//! The serving kernel against the paper's implementation.
//!
//! `ControlPlane` runs every session through its columnar shard kernel;
//! `cdba-core` runs the same algorithms as plain objects — a
//! `SingleSession` per dedicated session, a `SessionPool` per pooled
//! group. This suite drives both on the same rows, tick by tick, and
//! holds the plane to the core:
//!
//! - every `SessionMetrics` field of every session, live and retired, is
//!   bit-equal after every tick to a public [`SignallingMeter`] fed the
//!   core's allocations, so allocations and change counts agree bit for
//!   bit; a dedicated session's allocation, read off its
//!   `total_allocated`, is the core's, and 0 or a power of two ≤ `B_A`;
//! - the plane's stage count is the sum of the core's stage logs;
//! - once every queue has drained, each session's `max_delay` is
//!   `cdba_sim::measure::max_delay` over its arrivals and the bits its
//!   link served — a measure that shares nothing with the meter — and
//!   ≤ 2·D_O on feasible rows (Theorems 6 and 14);
//! - a dedicated session makes ≤ (log₂ B_A + 1)·(stages + 1) changes and
//!   a pooled group ≤ 3k in each of its stages, per the core's stage logs.
//!
//! Rows: the benchmark's bank rows without its 1/64-bit rounding (seeds
//! 2, 6 and 11 are named regressions: their queues keep sub-`EPS` dust
//! through idle stretches), `cdba_traffic::adversarial`'s stage forcer,
//! generated feasible traces, and `f32`-exact rows into which values only
//! an `f64` holds drop (the kernel's window ring keeps `f32`s until one
//! arrives); executors inline and threaded, with churn and shard
//! restarts. Where membership is fixed, each dedicated session is also
//! replayed through `cdba_sim::engine`.

use cdba_bench::replay::ReplaySpec;
use cdba_core::multi::pool::{SessionId, SessionPool};
use cdba_core::single::SingleSession;
use cdba_core::StageLog;
use cdba_ctrl::{ControlPlane, ExecMode, ServiceConfig, SessionMetrics, SignallingMeter};
use cdba_integration::proptest_cases;
use cdba_obs::Registry;
use cdba_sim::engine::{simulate, DrainPolicy};
use cdba_sim::{measure, Allocator, BitQueue};
use cdba_traffic::adversarial::{stage_forcer, StageForcerParams};
use cdba_traffic::{conditioner, Trace};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeMap;

/// One session as the core runs it, and what the plane reported for it.
struct Session {
    /// The dedicated allocator; `None` for a pooled member.
    alg: Option<SingleSession>,
    /// `(pool index, member id)` of a pooled member.
    member: Option<(usize, SessionId)>,
    meter: SignallingMeter,
    /// The session's link, for the delay leg.
    link: BitQueue,
    arrived: Vec<f64>,
    served: Vec<f64>,
    allocs: Vec<f64>,
    /// The plane's change count after each of the session's ticks.
    changes: Vec<u64>,
    /// The plane's `total_allocated` after the last of them.
    allocated: f64,
    leaving: bool,
    retired: bool,
}

impl Session {
    fn record(&mut self, arrived: f64, alloc: f64) {
        self.meter.record(arrived, alloc);
        self.served.push(self.link.tick(arrived, alloc));
        self.arrived.push(arrived);
        self.allocs.push(alloc);
    }

    /// Changes the plane counted in the session's ticks `[start, end)`.
    fn changes_in(&self, start: usize, end: usize) -> u64 {
        let at = |t: usize| match t.min(self.changes.len()) {
            0 => 0,
            n => self.changes[n - 1],
        };
        at(end) - at(start)
    }
}

/// The core side of the diff: `ControlPlane`'s lifecycle applied to
/// `cdba-core` objects, with the kernel's rules for leaving — a leaving
/// session submits nothing, a dedicated one retires once its link drains,
/// a pooled one once its pool stops reporting it.
struct Core {
    cfg: ServiceConfig,
    sessions: BTreeMap<u64, Session>,
    /// Each group's pool and its members' keys, in join order.
    pools: Vec<(SessionPool, Vec<(SessionId, u64)>)>,
}

impl Core {
    fn new(cfg: &ServiceConfig) -> Self {
        Core {
            cfg: cfg.clone(),
            sessions: BTreeMap::new(),
            pools: Vec::new(),
        }
    }

    fn session(&self, alg: Option<SingleSession>, member: Option<(usize, SessionId)>) -> Session {
        Session {
            alg,
            member,
            meter: SignallingMeter::new(self.cfg.cost, self.cfg.w),
            link: BitQueue::new(),
            arrived: Vec::new(),
            served: Vec::new(),
            allocs: Vec::new(),
            changes: Vec::new(),
            allocated: 0.0,
            leaving: false,
            retired: false,
        }
    }

    fn admit(&mut self, key: u64) {
        let alg = SingleSession::new(self.cfg.single_config());
        let s = self.session(Some(alg), None);
        assert!(self.sessions.insert(key, s).is_none());
    }

    fn admit_group(&mut self, keys: &[u64]) {
        let mut pool = SessionPool::new(self.cfg.multi_config());
        let members: Vec<(SessionId, u64)> = keys.iter().map(|&k| (pool.join(), k)).collect();
        for &(id, key) in &members {
            let s = self.session(None, Some((self.pools.len(), id)));
            assert!(self.sessions.insert(key, s).is_none());
        }
        self.pools.push((pool, members));
    }

    fn leave(&mut self, key: u64) {
        let s = self.sessions.get_mut(&key).expect("a known key");
        if s.retired || s.leaving {
            return;
        }
        s.leaving = true;
        match s.member {
            Some((pool, id)) => self.pools[pool].0.leave(id).expect("a pool member"),
            None if s.meter.is_drained() => s.retired = true,
            None => {}
        }
    }

    fn tick(&mut self, arrivals: &BTreeMap<u64, f64>) {
        let bits = |key: u64| arrivals.get(&key).copied().unwrap_or(0.0);
        let mut retire = Vec::new();
        for (pool, members) in &mut self.pools {
            if members.iter().all(|(_, k)| self.sessions[k].retired) {
                continue; // dissolved
            }
            for &(id, key) in members.iter() {
                let s = &self.sessions[&key];
                if !s.retired && !s.leaving {
                    pool.submit(id, bits(key)).expect("a live member");
                }
            }
            let allocs = pool.tick();
            for &(id, key) in members.iter() {
                let s = self.sessions.get_mut(&key).expect("a member");
                if s.retired {
                    continue;
                }
                match allocs.iter().find(|(m, _)| *m == id) {
                    Some(&(_, alloc)) => {
                        let a = if s.leaving { 0.0 } else { bits(key) };
                        s.record(a, alloc);
                    }
                    None => retire.push(key),
                }
            }
        }
        for (&key, s) in &mut self.sessions {
            if s.retired {
                continue;
            }
            let Some(alg) = s.alg.as_mut() else {
                continue;
            };
            let a = if s.leaving { 0.0 } else { bits(key) };
            let alloc = alg.on_tick(a);
            s.record(a, alloc);
            if s.leaving && s.meter.is_drained() {
                retire.push(key);
            }
        }
        for key in retire {
            self.sessions.get_mut(&key).expect("a session").retired = true;
        }
    }

    fn drained(&self) -> bool {
        self.sessions.values().all(|s| s.link.is_empty())
    }

    fn stages_completed(&self) -> usize {
        let dedicated = self.sessions.values().filter_map(|s| s.alg.as_ref());
        let single: usize = dedicated.map(|a| a.stage_log().completed()).sum();
        let pooled: usize = self
            .pools
            .iter()
            .map(|(p, _)| p.stage_log().completed())
            .sum();
        single + pooled
    }
}

/// Every field of a row, floats as bits.
fn bits(m: &SessionMetrics) -> [u64; 11] {
    [
        m.session,
        m.ticks,
        m.changes,
        m.peak_allocation.to_bits(),
        m.max_delay,
        m.total_arrived.to_bits(),
        m.total_served.to_bits(),
        m.total_allocated.to_bits(),
        m.windowed_utilization.map_or(u64::MAX, f64::to_bits),
        m.signalling_cost.to_bits(),
        m.bandwidth_cost.to_bits(),
    ]
}

/// A plane and the core, driven together.
struct Diff {
    plane: ControlPlane,
    core: Core,
    registry: Registry,
    ticks: u64,
}

impl Diff {
    fn new(cfg: ServiceConfig) -> Self {
        let registry = Registry::new();
        let mut plane = ControlPlane::new(cfg.clone());
        plane.attach_metrics(&registry);
        Diff {
            core: Core::new(&cfg),
            plane,
            registry,
            ticks: 0,
        }
    }

    fn admit(&mut self) -> u64 {
        let key = self.plane.admit("acme").expect("budget for every join");
        self.core.admit(key);
        key
    }

    fn admit_group(&mut self, size: usize) -> Vec<u64> {
        let keys = self.plane.admit_group("acme", size).expect("budget");
        self.core.admit_group(&keys);
        keys
    }

    fn leave(&mut self, key: u64) {
        self.plane.leave(key).expect("a live key");
        self.core.leave(key);
    }

    /// One tick on both sides, then the whole table compared. Arrivals
    /// for sessions that have left are dropped, as their clients stop
    /// sending, and so are empty ones.
    fn tick(
        &mut self,
        arrivals: impl IntoIterator<Item = (u64, f64)>,
    ) -> Result<(), TestCaseError> {
        let sessions = &self.core.sessions;
        let sending = |k| sessions.get(&k).is_some_and(|s| !s.leaving && !s.retired);
        let arrivals: BTreeMap<u64, f64> = arrivals
            .into_iter()
            .filter(|&(k, bits)| bits > 0.0 && sending(k))
            .collect();
        let listed: Vec<(u64, f64)> = arrivals.iter().map(|(&k, &b)| (k, b)).collect();
        self.plane.tick(&listed).expect("a valid tick");
        self.core.tick(&arrivals);
        self.ticks += 1;
        self.compare()
    }

    fn compare(&mut self) -> Result<(), TestCaseError> {
        let t = self.ticks;
        let b_max = self.core.cfg.session_b_max;
        let snap = self.plane.snapshot().expect("a snapshot");
        prop_assert!(snap.sessions.len() == self.core.sessions.len(), "tick {t}");
        for (row, (&key, s)) in snap.sessions.iter().zip(&mut self.core.sessions) {
            let want = s.meter.metrics(key, "acme".into(), row.shard);
            let same = bits(row) == bits(&want) && row.tenant == want.tenant;
            prop_assert!(same, "session {key} at tick {t}:\n{row:?}\n{want:?}");
            if row.ticks as usize > s.changes.len() {
                s.changes.push(row.changes);
                let alloc = row.total_allocated - s.allocated;
                s.allocated = row.total_allocated;
                if s.alg.is_some() {
                    let core = *s.allocs.last().expect("a recorded tick");
                    let same = alloc.to_bits() == core.to_bits();
                    prop_assert!(
                        same,
                        "session {key} allocated {alloc}, not {core}, at tick {t}"
                    );
                    let pow2 = alloc == 0.0 || (alloc.log2().fract() == 0.0 && alloc <= b_max);
                    prop_assert!(pow2, "session {key} allocated {alloc} at tick {t}");
                }
            }
        }
        Ok(())
    }

    /// Ticks without arrivals until every link has drained.
    fn drain(&mut self) -> Result<(), TestCaseError> {
        for _ in 0..4096 {
            if self.core.drained() {
                return Ok(());
            }
            self.tick([])?;
        }
        Err(TestCaseError::fail("the links never drained"))
    }

    /// The legs that need the whole run: stage counts, delays, and the
    /// paper's bounds. Returns the largest per-session delay.
    fn finish(&mut self, feasible: bool) -> Result<u64, TestCaseError> {
        self.drain()?;
        let text = self.registry.render();
        let line = text
            .lines()
            .find(|l| l.starts_with("cdba_ctrl_stages_completed_total "))
            .expect("the stage gauge is exported");
        let stages: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        prop_assert_eq!(stages as usize, self.core.stages_completed());

        let cfg = &self.core.cfg;
        let (d_o, ladder) = (cfg.d_o as u64, cfg.session_b_max.log2() as u64 + 1);
        let snap = self.plane.snapshot().expect("a snapshot");
        let mut worst = 0;
        for (row, (&key, s)) in snap.sessions.iter().zip(&self.core.sessions) {
            let trace = Trace::new(s.arrived.clone()).expect("valid arrivals");
            let measured = measure::max_delay(&trace, &s.served).map(|d| d as u64);
            let delay = row.max_delay;
            prop_assert!(
                Some(delay) == measured,
                "session {key}: delay {delay}, measured {measured:?}"
            );
            worst = worst.max(row.max_delay);
            prop_assert!(!feasible || row.max_delay <= 2 * d_o, "session {key} delay");
            if let Some(alg) = &s.alg {
                let stages = alg.stage_log().completed() as u64;
                let bound = ladder * (stages + 1);
                prop_assert!(
                    row.changes <= bound,
                    "session {key}: {} changes",
                    row.changes
                );
            }
        }
        for (pool, members) in &self.core.pools {
            let k = members.len() as u64;
            for stage in pool.stage_log().records() {
                let end = stage.end.unwrap_or(usize::MAX);
                let changes: u64 = members
                    .iter()
                    .map(|(_, key)| self.core.sessions[key].changes_in(stage.start, end))
                    .sum();
                prop_assert!(changes <= 3 * k, "{changes} changes in a stage of {k}");
            }
        }
        Ok(worst)
    }

    /// Where membership was fixed: each dedicated session replayed through
    /// `cdba_sim::engine` allocates as the core stepped it, and its served
    /// curve measures the delay the plane reports.
    fn engine_agrees(&mut self) -> Result<(), TestCaseError> {
        let cfg = self.core.cfg.single_config();
        let snap = self.plane.snapshot().expect("a snapshot");
        for (row, s) in snap.sessions.iter().zip(self.core.sessions.values()) {
            if s.alg.is_none() {
                continue;
            }
            let trace = Trace::new(s.arrived.clone()).expect("valid arrivals");
            let mut alg = SingleSession::new(cfg.clone());
            let run = simulate(&trace, &mut alg, DrainPolicy::StopAtTraceEnd).expect("a run");
            let bits = |a: &[f64]| a.iter().map(|a| a.to_bits()).collect::<Vec<_>>();
            let key = row.session;
            let same = bits(run.schedule.allocation()) == bits(&s.allocs);
            prop_assert!(same, "session {key}: the engine allocates otherwise");
            let delay = measure::max_delay(&trace, run.served()).map(|d| d as u64);
            prop_assert!(delay == Some(row.max_delay), "session {key}: {delay:?}");
        }
        Ok(())
    }
}

fn cfg(exec: ExecMode, shards: usize) -> ServiceConfig {
    spec(0)
        .service_builder(1e9)
        .exec(exec)
        .shards(shards)
        .checkpoint_every(16)
        .max_restarts(u32::MAX)
        .build()
        .expect("a valid config")
}

/// The benchmark's replay shape: 64 dedicated sessions, one 2,048-tick
/// bank row each.
fn spec(seed: u64) -> ReplaySpec {
    ReplaySpec {
        sessions: 64,
        ticks: 2048,
        seed,
        pool_frac: 0.0,
        churn_every: 0,
        ..ReplaySpec::default()
    }
}

/// `spec(seed)`'s bank rows, scaled so that their endless repetition is
/// feasible, as the benchmark scales them, but not rounded to 1/64 bit.
fn bank_rows(seed: u64) -> Vec<Vec<f64>> {
    let spec = spec(seed);
    let bandwidth = (spec.u_o * spec.b_max).min(spec.b_o);
    let bank = spec.bank().expect("a bank");
    let rows = bank.sessions().iter().map(|row| {
        let mut factor = 1.0f64;
        if row.total() > 0.0 {
            let by_window = bandwidth / row.concat(row).demand_bound(spec.d_o);
            let by_mean = bandwidth * row.len() as f64 / row.total();
            factor = factor.min(by_window).min(by_mean);
        }
        row.arrivals().iter().map(|bits| bits * factor).collect()
    });
    rows.collect()
}

/// 64 dedicated sessions replaying bank `seed` for 4,096 inline ticks.
fn bank_run(seed: u64) {
    let rows = bank_rows(seed);
    let mut diff = Diff::new(cfg(ExecMode::Inline, 1));
    let keys: Vec<u64> = (0..rows.len()).map(|_| diff.admit()).collect();
    for t in 0..4096 {
        let arrivals = keys
            .iter()
            .zip(&rows)
            .map(|(&k, row)| (k, row[t % row.len()]));
        diff.tick(arrivals).unwrap();
    }
    let worst = diff.finish(true).unwrap();
    assert!(worst > 0, "the rows queue");
    diff.engine_agrees().unwrap();
}

#[test]
fn bank_seed_2_meters_the_delay_the_sim_measures() {
    bank_run(2);
}

#[test]
fn bank_seed_6_meters_the_delay_the_sim_measures() {
    bank_run(6);
}

#[test]
fn bank_seed_11_meters_the_delay_the_sim_measures() {
    bank_run(11);
}

/// Dedicated sessions and pooled groups of three on bank rows (a member's
/// row scaled by 1/3, so that its group's sum is feasible at `B_O`), a
/// dedicated session swapped out every 40 ticks, a group member leaving
/// every 150, a group of two joining at 300 and a whole group leaving at
/// 420; threaded, a shard restarted every 64 ticks.
fn churn_run(exec: ExecMode, shards: usize) {
    let rows = bank_rows(1);
    let mut diff = Diff::new(cfg(exec, shards));
    let mut dedicated: Vec<u64> = (0..6).map(|_| diff.admit()).collect();
    let mut groups: Vec<Vec<u64>> = (0..2).map(|_| diff.admit_group(3)).collect();
    let third = groups.concat().into_iter().map(|k| (k, 1.0 / 3.0));
    let mut scale: BTreeMap<u64, f64> = third.collect();
    for t in 0..600u64 {
        if t % 40 == 20 {
            let key = dedicated.remove(0);
            diff.leave(key);
            dedicated.push(diff.admit());
        }
        if t % 150 == 75 {
            if let Some(key) = groups[0].pop() {
                diff.leave(key);
            }
        }
        if t == 300 {
            let g = diff.admit_group(2);
            scale.extend(g.iter().map(|&k| (k, 0.5)));
            groups.push(g);
        }
        if t == 420 {
            for key in std::mem::take(&mut groups[1]) {
                diff.leave(key);
            }
        }
        if exec == ExecMode::Threaded && t % 64 == 63 {
            diff.plane
                .restart_shard((t / 64) as usize % shards)
                .unwrap();
        }
        let keys: Vec<u64> = diff.core.sessions.keys().copied().collect();
        let arrivals = keys.into_iter().map(|k| {
            let row = &rows[k as usize % rows.len()];
            let scale = scale.get(&k).copied().unwrap_or(1.0);
            (k, row[t as usize % row.len()] * scale)
        });
        diff.tick(arrivals).unwrap();
    }
    diff.finish(true).unwrap();
    assert!(diff.plane.restarts() > 0 || exec == ExecMode::Inline);
}

#[test]
fn churn_and_groups_inline_match_the_core() {
    churn_run(ExecMode::Inline, 1);
}

#[test]
fn churn_groups_and_restarts_threaded_match_the_core() {
    churn_run(ExecMode::Threaded, 2);
}

/// Past the first ring block: 4,100 dedicated sessions and a group of
/// two, so the window ring spans two blocks of 4,096 slots, on bank rows
/// for 40 ticks, long enough to wrap `W` = 16 twice.
#[test]
fn a_population_past_one_ring_block_matches_the_core() {
    let rows = bank_rows(3);
    let mut diff = Diff::new(cfg(ExecMode::Inline, 1));
    let mut keys: Vec<u64> = (0..4_100).map(|_| diff.admit()).collect();
    keys.extend(diff.admit_group(2));
    for t in 0..40 {
        let arrivals = keys.iter().map(|&k| {
            let row = &rows[k as usize % rows.len()];
            (k, row[t % row.len()] / 2.0)
        });
        diff.tick(arrivals).unwrap();
    }
    diff.finish(true).unwrap();
}

/// Values only an `f64` holds, landing in ring blocks that hold `f32`s:
/// two blocks of 4,096 dedicated sessions on `f32`-exact arrivals
/// (multiples of 0.75), then a group of three in a third, whose quantum
/// `B_O / 3` makes its allocations inexact from its first tick. Mid-window,
/// 0.1 reaches the first block's last slot, the smallest subnormal the
/// second block's first, and 1e300 (a queue that never drains, so the run
/// skips `finish`) a slot of a block already wide. Threaded, the shard is
/// restarted at tick 20 from the checkpoint taken at 16, after one more
/// 0.1 the journal carries since. The window then wraps past all of them.
fn inexact_run(exec: ExecMode) {
    let mut diff = Diff::new(cfg(exec, 1));
    let keys: Vec<u64> = (0..2 * 4_096).map(|_| diff.admit()).collect();
    let group = diff.admit_group(3);
    let odd = |t: u64| match t {
        5 => Some((keys[4_095], 0.1)),
        9 => Some((keys[4_096], f64::from_bits(1))),
        13 => Some((keys[7], 1e300)),
        18 => Some((keys[8_191], 0.1)),
        _ => None,
    };
    for t in 0..40u64 {
        if exec == ExecMode::Threaded && t == 20 {
            diff.plane.restart_shard(0).unwrap();
        }
        let exact = keys
            .iter()
            .chain(&group)
            .map(|&k| (k, ((k + t) % 5) as f64 * 0.75));
        let arrivals: BTreeMap<u64, f64> = exact.chain(odd(t)).collect();
        diff.tick(arrivals).unwrap();
    }
    assert!(diff.plane.restarts() > 0 || exec == ExecMode::Inline);
}

#[test]
fn inexact_values_in_narrow_ring_blocks_inline_match_the_core() {
    inexact_run(ExecMode::Inline);
}

#[test]
fn inexact_values_in_narrow_ring_blocks_across_a_restart_match_the_core() {
    inexact_run(ExecMode::Threaded);
}

/// Overload on a window shorter than `2·D_O` (`W` = 4, `D_O` = 4): a
/// dedicated session offered 24.3 bits a tick against `B_A` = 16, and a
/// pair pressed as hard, queue bits for longer than the window, which the
/// kernel then keeps in its FIFO's cold spill. The plane still meters
/// what the core allocates and the delay the sim measures.
#[test]
fn overload_past_the_window_matches_the_core() {
    let cfg = ServiceConfig::builder(1e9)
        .offline_delay(4)
        .window(4)
        .exec(ExecMode::Inline)
        .build()
        .unwrap();
    let mut diff = Diff::new(cfg);
    let (a, b) = (diff.admit(), diff.admit());
    let pair = diff.admit_group(2);
    for t in 0..64u64 {
        let on = |bits: f64| if t < 20 { bits } else { 0.0 };
        let arrivals = [
            (a, on(24.3)),
            (b, (t % 3) as f64 * 1.1),
            (pair[0], on(12.1)),
            (pair[1], on(11.9)),
        ];
        diff.tick(arrivals).unwrap();
    }
    let worst = diff.finish(false).unwrap();
    assert!(worst > 4, "delay {worst} stays inside the window");
}

/// One stage-forcer row through the plane: the session follows the core
/// through the forced stages, and one of them spends the whole
/// (log₂ B_A + 1)-change ceiling. With `W` = 64 each stage is certified
/// at its first full window, after its climb, so the next stage opens
/// with the allocation falling from `B_A` to 0 before the next climb
/// takes it 0 → 2 → 4 → 8 → 16.
#[test]
fn the_stage_forcer_reaches_the_per_stage_ceiling() {
    let (b_max, d_o, w) = (16.0, 4, 64);
    let trace = stage_forcer(StageForcerParams::new(b_max, d_o, w, 3)).unwrap();
    let cfg = ServiceConfig::builder(1e9)
        .session_b_max(b_max)
        .offline_delay(d_o)
        .window(w)
        .exec(ExecMode::Inline)
        .build()
        .unwrap();
    let mut diff = Diff::new(cfg);
    let key = diff.admit();
    for &bits in trace.arrivals() {
        diff.tick([(key, bits)]).unwrap();
    }
    diff.finish(false).unwrap();
    diff.engine_agrees().unwrap();
    let s = &diff.core.sessions[&key];
    let log: &StageLog = s.alg.as_ref().unwrap().stage_log();
    assert!(log.completed() >= 3, "{} stages", log.completed());
    let per_stage = log
        .records()
        .iter()
        .map(|r| s.changes_in(r.start, r.end.unwrap_or(usize::MAX)));
    let ceiling = b_max.log2() as u64 + 1;
    assert_eq!(per_stage.max(), Some(ceiling));
}

/// Arbitrary arrivals for `dedicated` sessions and one group of `k`,
/// conditioned feasible: a dedicated row at `U_O·B_A`, a member's at
/// `B_O / k`.
fn feasible_rows() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<Vec<f64>>)> {
    (1usize..4, 2usize..4, 40usize..160)
        .prop_flat_map(|(dedicated, k, len)| {
            proptest::collection::vec(
                proptest::collection::vec(0.0f64..40.0, len..len + 1),
                dedicated + k..dedicated + k + 1,
            )
            .prop_map(move |raw| (dedicated, k, raw))
        })
        .prop_map(|(dedicated, k, raw)| {
            let spec = ReplaySpec::default();
            let conditioned = raw.into_iter().enumerate().map(|(i, row)| {
                let bandwidth = match i < dedicated {
                    true => spec.u_o * spec.b_max,
                    false => spec.b_o / k as f64,
                };
                let row = Trace::new(row).expect("valid arrivals");
                let row = conditioner::scale_to_feasible(&row, bandwidth, spec.d_o).unwrap();
                row.arrivals().to_vec()
            });
            let mut rows: Vec<Vec<f64>> = conditioned.collect();
            let pooled = rows.split_off(dedicated);
            (rows, pooled)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases(16)))]

    /// Generated feasible rows, inline, one dedicated session leaving
    /// halfway.
    #[test]
    fn feasible_traces_match_the_core(rows in feasible_rows()) {
        let (dedicated, pooled) = rows;
        let mut diff = Diff::new(cfg(ExecMode::Inline, 1));
        let mut keys: Vec<u64> = dedicated.iter().map(|_| diff.admit()).collect();
        keys.extend(diff.admit_group(pooled.len()));
        let rows: Vec<&Vec<f64>> = dedicated.iter().chain(&pooled).collect();
        let len = rows[0].len();
        for t in 0..len {
            if t == len / 2 {
                diff.leave(keys[0]);
            }
            diff.tick(keys.iter().zip(&rows).map(|(&k, row)| (k, row[t])))?;
        }
        diff.finish(true)?;
    }
}
