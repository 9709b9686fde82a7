//! The five workloads: their fixed sizes, the seeded arrival bank, and the
//! script every driver (wire, in-process, fleet) follows so that the same
//! seed always issues the same operations in the same order.

use cdba_bench::replay::{ReplaySpec, TENANTS};
use cdba_ctrl::{ExecMode, ServiceConfig};
use cdba_traffic::Trace;

/// Rows one `ReplaySpec::bank()` call yields; a workload draws several
/// banks so that its input statistics barely move from seed to seed.
const BANK_ROWS: usize = 64;
/// At most this many banks (4,096 distinct rows) per run.
const MAX_BANKS: usize = 64;
/// The seed `benchmark/expected.json` pins digests for.
pub const DEFAULT_SEED: u64 = 0xCDBA;
/// Group size of pooled sessions (Theorem 14's `SessionPool` path).
pub const GROUP: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Dense,
    Lean,
    Churn,
    Recover,
    Fleet,
}

pub const ALL: [Kind; 5] = [
    Kind::Dense,
    Kind::Lean,
    Kind::Churn,
    Kind::Recover,
    Kind::Fleet,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Dense => "dense-100k",
            Kind::Lean => "lean-256",
            Kind::Churn => "churn-pooled-20k",
            Kind::Recover => "recover-100k",
            Kind::Fleet => "fleet-failover-2k",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether a pass is pinned to one CPU. Where every hop is a blocking
    /// round trip (the wire workloads, the fleet) one thread at a time has
    /// work, and wake-ups across the vCPUs of a shared VM are the least
    /// repeatable thing on it. `recover-100k` runs a shard worker beside
    /// the driver — overlap between the two is what its executor is for —
    /// so it keeps every CPU the host allows.
    pub fn one_cpu(self) -> bool {
        self != Kind::Recover
    }

    /// One line for `BENCHMARK.json`: which layers this workload leans on.
    pub fn why(self) -> &'static str {
        match self {
            Kind::Dense => "100k dedicated sessions over loopback on 2 connections: kernel sweep and wire arrival path each about half a tick, so either can show a gain",
            Kind::Lean => "256 sessions, smallest messages: per-tick fixed cost (syscalls, core wake-up, count gate) dominates; kernel changes must not move it",
            Kind::Churn => "20k sessions, half in pooled groups of 4, one leave+join per tick: admission, slab and group bookkeeping plus the pooled sweep",
            Kind::Recover => "in-process threaded executor with checkpoints and journal, 100k sessions, a forced shard restart every 64 ticks across a full genesis+7 chain",
            Kind::Fleet => "2 ctrl processes behind 1 relay, 2k sessions, three process kills: relay hop, orchestrator routing, genesis-replay respawn",
        }
    }
}

/// Full size, or the 1/50 smoke size: the populations shrink 50x except
/// `lean-256`, already minimal, whose tick count shrinks instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

/// The fixed sizes of one workload.
#[derive(Debug, Clone)]
pub struct Shape {
    pub kind: Kind,
    /// Sessions in pooled groups of [`GROUP`], admitted first.
    pub pooled: usize,
    pub dedicated: usize,
    pub model: &'static str,
    /// Arrival batches repeat with this period, so they can be pre-built
    /// before timing starts.
    pub period: usize,
    /// Ticks before measurement starts, the set-up's first tick included.
    pub warm: u64,
    /// Scripted measured ticks of one pass; a timed run does at least
    /// `pin` and then continues until its seconds are up.
    pub ticks: u64,
    /// Measured tick whose snapshot the checks and pinned digests use.
    pub pin: u64,
    /// A snapshot poll follows every measured tick divisible by this.
    pub poll_every: u64,
    /// One leave + one join before every measured tick.
    pub churn: bool,
    /// Wire connections: 2 = one stages unacknowledged, one commits.
    pub connections: usize,
    /// Forced failures (shard restarts or process kills) follow these
    /// measured ticks.
    pub failures_after: Vec<u64>,
}

impl Shape {
    pub fn of(kind: Kind, scale: Scale) -> Shape {
        let smoke = scale == Scale::Smoke;
        let pop = |n: usize| if smoke { n / 50 } else { n };
        let base = Shape {
            kind,
            pooled: 0,
            dedicated: 0,
            model: "onoff",
            period: 32,
            warm: 33,
            ticks: 0,
            pin: 0,
            poll_every: 0,
            churn: false,
            connections: 1,
            failures_after: Vec::new(),
        };
        match kind {
            Kind::Dense => Shape {
                dedicated: pop(100_000),
                ticks: 420,
                pin: 210,
                poll_every: 105,
                connections: 2,
                ..base
            },
            Kind::Lean => {
                let ticks = if smoke { 2_000 } else { 100_000 };
                // 256 sessions are too few to average a 32-tick on/off
                // pattern out; a long period gives every row ~25 bursts.
                Shape {
                    dedicated: 256,
                    period: 2_048,
                    ticks,
                    pin: ticks / 2,
                    poll_every: ticks / 8,
                    connections: 2,
                    ..base
                }
            }
            Kind::Churn => Shape {
                pooled: pop(10_000),
                dedicated: pop(10_000),
                model: "mmpp",
                ticks: 1_700,
                pin: 850,
                poll_every: 50,
                churn: true,
                ..base
            },
            // 96 ticks in, every 64th measured tick sits 32 ticks past a
            // checkpoint; 8 restarts walk one genesis + 7 incrementals, and
            // tick 513 is the last restart's recovery tick, polled after.
            Kind::Recover => Shape {
                dedicated: pop(100_000),
                warm: 96,
                ticks: 513,
                pin: 513,
                failures_after: (1..=8).map(|c| c * 64).collect(),
                ..base
            },
            Kind::Fleet => Shape {
                dedicated: pop(2_000),
                ticks: 150,
                pin: 150,
                failures_after: vec![59, 89, 119],
                ..base
            },
        }
    }

    pub fn sessions(&self) -> usize {
        self.pooled + self.dedicated
    }

    pub fn groups(&self) -> usize {
        self.pooled / GROUP
    }

    /// 0-based index of the batch committed by measured tick `m` (1-based).
    pub fn batch_of(&self, m: u64) -> u64 {
        self.warm + m - 1
    }

    /// Ticks the service has committed once measured tick `m` is acked.
    pub fn ticks_at(&self, m: u64) -> u64 {
        self.warm + m
    }

    /// Sessions ever admitted once measured tick `m` is acked.
    pub fn admitted_at(&self, m: u64) -> u64 {
        self.sessions() as u64 + if self.churn { m } else { 0 }
    }

    /// The dedicated keys live during measured tick `m` (0 = set-up and
    /// warm-up): churn retires the oldest and appends a fresh key, and
    /// keys are dense in admission order, so the live set is one range.
    pub fn dedicated_keys(&self, m: u64) -> std::ops::Range<u64> {
        let shift = if self.churn { m } else { 0 };
        let first = self.pooled as u64 + shift;
        first..first + self.dedicated as u64
    }

    /// `[first, end)` batch indices during which `key` received arrivals
    /// up to and including measured tick `m`; `None` if it had not been
    /// admitted by then.
    pub fn lifetime(&self, key: u64, m: u64) -> Option<(u64, u64)> {
        let end = self.batch_of(m) + 1;
        let initial = self.sessions() as u64;
        if !self.churn {
            return (key < initial).then_some((0, end));
        }
        // Churn event i (before measured tick i) retires dedicated key
        // pooled+i-1 and admits key initial+i-1.
        let first = if key < initial {
            0
        } else {
            let i = key - initial + 1;
            if i > m {
                return None;
            }
            self.batch_of(i)
        };
        let last = if key >= self.pooled as u64 {
            let i = key - self.pooled as u64 + 1;
            end.min(self.batch_of(i))
        } else {
            end
        };
        Some((first, last.max(first)))
    }

    pub fn tenant(&self, nth_admit: usize) -> &'static str {
        TENANTS[nth_admit % TENANTS.len()]
    }

    fn spec(&self, seed: u64) -> ReplaySpec {
        ReplaySpec {
            sessions: self.sessions(),
            ticks: self.period as u64,
            seed,
            model: self.model.into(),
            group_size: GROUP,
            pool_frac: self.pooled as f64 / self.sessions() as f64,
            churn_every: 0,
            ..ReplaySpec::default()
        }
    }

    /// The service configuration every boundary of this workload runs:
    /// the spec's algorithm parameters, an exact-fit budget plus one spare
    /// dedicated envelope (so a churn replacement always admits), one
    /// shard, one kernel thread.
    pub fn service(&self, seed: u64, threaded: bool) -> ServiceConfig {
        let spec = self.spec(seed);
        let budget =
            self.dedicated as f64 * spec.b_max + self.groups() as f64 * 4.0 * spec.b_o + spec.b_max;
        let builder = spec.service_builder(budget).shards(1).kernel_threads(1);
        let builder = if threaded {
            builder
                .exec(ExecMode::Threaded)
                .pipeline_depth(4)
                .checkpoint_every(64)
                .max_restarts(u32::MAX)
        } else {
            builder.exec(ExecMode::Inline)
        };
        builder.build().expect("workload service config is valid")
    }

    /// Flags for the fleet's `cdba-cli gateway` children: the same
    /// service as [`Shape::service`] with the inline executor.
    pub fn fleet_child_args(&self) -> Vec<String> {
        let spec = self.spec(0);
        [
            ("--sessions", self.sessions().to_string()),
            ("--pool-frac", "0".into()),
            ("--bandwidth", spec.b_max.to_string()),
            ("--delay", spec.d_o.to_string()),
            ("--utilization", spec.u_o.to_string()),
            ("--window", spec.w.to_string()),
            ("--shards", "1".into()),
            ("--exec", "inline".into()),
        ]
        .into_iter()
        .flat_map(|(k, v)| [k.to_string(), v])
        .collect()
    }
}

/// The algorithm parameters the envelope checks hold outputs to.
pub struct Envelope {
    pub b_max: f64,
    pub d_o: u64,
}

/// Seeded inputs of one run: the arrival bank and batches built from it.
pub struct Inputs {
    pub shape: Shape,
    pub envelope: Envelope,
    /// `rows[r][c]`: bits session `k` (with `k % rows.len() == r`) submits
    /// in batch `g` (with `g % period == c`).
    rows: Vec<Vec<f64>>,
    /// How long the `ReplaySpec::bank()` calls took.
    pub bank_gen_ms: f64,
}

impl Inputs {
    pub fn generate(shape: Shape, seed: u64) -> Result<Inputs, String> {
        let mut spec = shape.spec(seed);
        let feasible_b = (spec.u_o * spec.b_max).min(spec.b_o);
        let banks = (shape.sessions() / BANK_ROWS).clamp(1, MAX_BANKS) as u64;
        let mut rows = Vec::with_capacity(banks as usize * BANK_ROWS);
        let mut bank_gen_ms = 0.0;
        for b in 0..banks {
            // Seeds n and n+1 share no bank.
            spec.seed = seed.wrapping_mul(MAX_BANKS as u64).wrapping_add(b);
            let started = std::time::Instant::now();
            let bank = spec.bank()?;
            bank_gen_ms += started.elapsed().as_secs_f64() * 1e3;
            for trace in bank.sessions() {
                if trace.len() != shape.period {
                    return Err(format!(
                        "bank row has {} ticks, not {}",
                        trace.len(),
                        shape.period
                    ));
                }
                // Every bank row opens with its source on, so rows repeated
                // in step would put the period's fullest batch at index 0
                // (48 % of the sessions active against 36 % on average) —
                // an artefact of the repetition, and on `fleet-failover-2k`
                // one that straddles an 8 KiB frame (README, "Findings"). A
                // row's repetition is feasible from any phase: start row
                // `r` at phase `r`, so that every batch carries the mean.
                let mut row = cyclic_feasible(trace, feasible_b, spec.d_o)?;
                row.rotate_left(rows.len() % shape.period);
                rows.push(row);
            }
        }
        Ok(Inputs {
            shape,
            envelope: Envelope {
                b_max: spec.b_max,
                d_o: spec.d_o as u64,
            },
            rows,
            bank_gen_ms,
        })
    }

    pub fn arrival(&self, key: u64, batch: u64) -> f64 {
        self.rows[key as usize % self.rows.len()][batch as usize % self.shape.period]
    }

    /// Appends the non-zero arrivals of `keys` in batch `batch` to `out`,
    /// in key order.
    pub fn extend_batch(&self, keys: std::ops::Range<u64>, batch: u64, out: &mut Vec<(u64, f64)>) {
        for key in keys {
            let bits = self.arrival(key, batch);
            if bits > 0.0 {
                out.push((key, bits));
            }
        }
    }

    /// One period of pre-built batches of a fixed key range; batch `g`
    /// is entry `g % period`.
    pub fn prebuild(&self, keys: std::ops::Range<u64>) -> Vec<Vec<(u64, f64)>> {
        (0..self.shape.period as u64)
            .map(|c| {
                let mut batch = Vec::new();
                self.extend_batch(keys.clone(), c, &mut batch);
                batch
            })
            .collect()
    }

    /// The generator's own account of the bits submitted up to measured
    /// tick `m`: per session over time, then over sessions in key order —
    /// the order the service's snapshot folds in.
    pub fn total_arrived(&self, m: u64) -> f64 {
        let mut total = 0.0;
        for key in 0..self.shape.admitted_at(m) {
            let Some((first, end)) = self.shape.lifetime(key, m) else {
                continue;
            };
            let mut session = 0.0;
            for g in first..end {
                session += self.arrival(key, g);
            }
            total += session;
        }
        total
    }
}

/// Arrivals are whole multiples of this many bits.
const QUANTUM: f64 = 1.0 / 64.0;

/// Scales `row` so that its endless repetition is `(bandwidth, delay)`
/// feasible — every window inside two periods conforms and the mean rate
/// does not exceed `bandwidth`, which by induction covers longer windows
/// (`ReplaySpec::bank()` conditions a row as a finite trace only) — and
/// rounds every arrival down to a multiple of [`QUANTUM`]. Dyadic arrivals
/// keep the service's queue arithmetic exact; with arbitrary floats its
/// delay meter ages rounding dust through idle stretches and reports
/// `max_delay` in the hundreds on a feasible on/off trace.
fn cyclic_feasible(row: &Trace, bandwidth: f64, delay: usize) -> Result<Vec<f64>, String> {
    let mut factor = 1.0f64;
    if row.total() > 0.0 {
        let doubled = row.concat(row);
        let by_window = bandwidth / doubled.demand_bound(delay);
        let by_mean = bandwidth * row.len() as f64 / row.total();
        factor = factor.min(by_window).min(by_mean);
    }
    Ok(row
        .arrivals()
        .iter()
        .map(|bits| (bits * factor / QUANTUM).floor() * QUANTUM)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdba_traffic::conditioner;

    #[test]
    fn names_round_trip() {
        for kind in ALL {
            assert_eq!(Kind::from_name(kind.name()), Some(kind));
            assert!(kind.why().len() <= 200, "{}", kind.name());
        }
        assert_eq!(Kind::from_name("nope"), None);
    }

    #[test]
    fn restarts_land_32_ticks_past_a_checkpoint() {
        let shape = Shape::of(Kind::Recover, Scale::Full);
        for &m in &shape.failures_after {
            assert_eq!(shape.ticks_at(m) % 64, 32);
        }
        assert_eq!(shape.failures_after.len(), 8);
    }

    #[test]
    fn churn_lifetimes_follow_the_script() {
        let shape = Shape::of(Kind::Churn, Scale::Smoke);
        let (p, d) = (shape.pooled as u64, shape.dedicated as u64);
        assert_eq!((p, d), (200, 200));
        // Pooled sessions never leave.
        assert_eq!(shape.lifetime(0, 10), Some((0, shape.batch_of(10) + 1)));
        // The oldest dedicated key leaves before measured tick 1.
        assert_eq!(shape.lifetime(p, 10), Some((0, shape.batch_of(1))));
        // Its replacement arrives with measured tick 1.
        assert_eq!(
            shape.lifetime(p + d, 10),
            Some((shape.batch_of(1), shape.batch_of(10) + 1))
        );
        // Not admitted yet.
        assert_eq!(shape.lifetime(p + d + 10, 10), None);
        assert_eq!(shape.dedicated_keys(0), p..p + d);
        assert_eq!(shape.dedicated_keys(3), p + 3..p + d + 3);
        assert_eq!(shape.admitted_at(10), p + d + 10);
    }

    #[test]
    fn repeated_rows_stay_feasible() {
        let shape = Shape::of(Kind::Churn, Scale::Smoke);
        let inputs = Inputs::generate(shape, 7).unwrap();
        for row in &inputs.rows {
            let one = Trace::new(row.to_vec()).unwrap();
            let mut long = one.clone();
            for _ in 0..4 {
                long = long.concat(&one);
            }
            assert!(conditioner::is_feasible(&long, 8.0, 8));
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        let a = Inputs::generate(Shape::of(Kind::Lean, Scale::Smoke), 11).unwrap();
        let b = Inputs::generate(Shape::of(Kind::Lean, Scale::Smoke), 11).unwrap();
        let c = Inputs::generate(Shape::of(Kind::Lean, Scale::Smoke), 12).unwrap();
        assert_eq!(a.rows, b.rows);
        assert_ne!(a.rows, c.rows);
        assert_eq!(a.total_arrived(5).to_bits(), b.total_arrived(5).to_bits());
    }
}
