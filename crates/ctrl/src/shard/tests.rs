use super::*;
use crate::config::ServiceConfig;
use proptest::prelude::*;

/// The shard's metrics answer, its streamed reports gathered into one.
fn report(s: &ShardState) -> ShardReport {
    let mut whole: Option<ShardReport> = None;
    s.report(REPORT_ROWS, |mut next| {
        match &mut whole {
            Some(w) => {
                w.live.append(&mut next.live);
                w.stages_completed = next.stages_completed;
            }
            None => whole = Some(next),
        }
        true
    });
    whole.expect("a metrics answer has at least one report")
}

fn shard() -> ShardState {
    ShardState::new(0, &shard_cfg())
}

fn shard_cfg() -> ServiceConfig {
    ServiceConfig::builder(1024.0)
        .session_b_max(16.0)
        .group_b_o(8.0)
        .offline_delay(4)
        .window(4)
        .build()
        .unwrap()
}

fn all_sessions(report: &ShardReport) -> Vec<SessionMetrics> {
    let mut out: Vec<SessionMetrics> = report.retired.as_ref().clone();
    out.extend(report.live.iter().cloned());
    out
}

#[test]
#[ignore = "manual perf probe: cargo test --release -p cdba-ctrl kernel_throughput -- --ignored --nocapture"]
fn kernel_throughput_probe() {
    // Test builds run 8-slot ring blocks, so the two ring passes read
    // slower here than in production; the other passes are unaffected.
    let n: usize = 100_000;
    let cfg = ServiceConfig::builder(n as f64 * 16.0)
        .session_b_max(16.0)
        .group_b_o(8.0)
        .offline_delay(8)
        .window(16)
        .build()
        .unwrap();
    let mut arrivals = Vec::with_capacity(n);
    let ticks = 20u64;

    let mut soa = ShardState::new(0, &cfg);
    for key in 0..n as u64 {
        soa.join_dedicated(key, &"acme".into());
    }
    let started = std::time::Instant::now();
    for round in 0..ticks {
        arrivals.clear();
        arrivals.extend((0..n as u64).map(|k| (k, ((round + k) % 5) as f64)));
        soa.tick(arrivals.iter().copied());
    }
    println!(
        "soa: {:.1} ticks/s",
        ticks as f64 / started.elapsed().as_secs_f64()
    );

    // Per-pass timings over the warmed SoA state, via the same phase
    // passes the sweep runs.
    let p = soa.params();
    let cols = &mut soa.cols;
    let rounds = 20u32;
    let per = |d: std::time::Duration| d.as_nanos() as f64 / (rounds as f64 * n as f64);
    let mut s = SweepScratch::default();
    let arr: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
    let started = std::time::Instant::now();
    let mut sink = 0.0f64;
    let mut pass_ns = [0u128; 7];
    for _ in 0..rounds {
        let t0 = std::time::Instant::now();
        s.open.clear();
        s.open_arr.clear();
        s.ded.clear();
        for (j, &a) in arr.iter().enumerate() {
            s.ded.push(j as u32);
            if cols.flags[j] & F_STAGE_OPEN != 0 {
                s.open.push(j as u32);
                s.open_arr.push(a);
            }
        }
        let t1 = std::time::Instant::now();
        cols.pass_track(&s.open, &s.open_arr, &p);
        let t2 = std::time::Instant::now();
        cols.pass_hull_query(&s.open, &p);
        let t3 = std::time::Instant::now();
        cols.pass_decide(&s.ded, &arr, &mut s.alloc, &p);
        let t4 = std::time::Instant::now();
        sink += s.alloc.iter().sum::<f64>();
        pass_ns[0] += (t1 - t0).as_nanos();
        pass_ns[1] += (t2 - t1).as_nanos();
        pass_ns[2] += (t3 - t2).as_nanos();
        pass_ns[3] += (t4 - t3).as_nanos();
    }
    let alg_elapsed = started.elapsed();
    let started = std::time::Instant::now();
    for _ in 0..rounds {
        let t0 = std::time::Instant::now();
        cols.pass_meter_flow(&s.ded, &arr, &s.alloc, &mut s.served);
        let t1 = std::time::Instant::now();
        cols.pass_meter_fifo(&s.ded, &arr, &s.served, p.w);
        let t2 = std::time::Instant::now();
        cols.pass_meter_window(&s.ded, &arr, &s.alloc, p.w);
        let t3 = std::time::Instant::now();
        pass_ns[4] += (t1 - t0).as_nanos();
        pass_ns[5] += (t2 - t1).as_nanos();
        pass_ns[6] += (t3 - t2).as_nanos();
    }
    let meter_elapsed = started.elapsed();
    let pn = |i: usize| pass_ns[i] as f64 / (rounds as f64 * n as f64);
    println!(
        "per-pass ns/session: lists {:.1}, track {:.1}, hull {:.1}, decide {:.1}, \
         flow {:.1}, fifo {:.1}, window {:.1}",
        pn(0),
        pn(1),
        pn(2),
        pn(3),
        pn(4),
        pn(5),
        pn(6),
    );
    let mut hull_points = 0usize;
    let mut open_stages = 0usize;
    for j in 0..n {
        if cols.flags[j] & F_STAGE_OPEN != 0 {
            open_stages += 1;
            hull_points += cols.hull_len[j] as usize;
        }
    }
    println!(
        "alg passes: {:.1} ns/session, meter passes: {:.1} ns/session \
         (open stages {open_stages}, avg hull {:.1} pts, sink {sink:.0})",
        per(alg_elapsed),
        per(meter_elapsed),
        hull_points as f64 / open_stages.max(1) as f64,
    );
}

#[test]
fn dedicated_lifecycle_joins_ticks_retires() {
    let mut s = shard();
    s.apply(&ReplayEvent::JoinDedicated {
        key: 7,
        tenant: "acme".into(),
    });
    for _ in 0..8 {
        s.apply(&ReplayEvent::Tick {
            arrivals: vec![(7, 2.0)].into(),
        });
    }
    assert_eq!(s.live_sessions(), 1);
    s.apply(&ReplayEvent::Leave { key: 7 });
    // Zero-arrival ticks drain the shadow queue, then the slot retires.
    for _ in 0..32 {
        s.apply(&ReplayEvent::Tick {
            arrivals: vec![].into(),
        });
    }
    assert_eq!(s.live_sessions(), 0);
    let report = report(&s);
    let sessions = all_sessions(&report);
    assert_eq!(sessions.len(), 1);
    let m = &sessions[0];
    assert_eq!(m.session, 7);
    assert_eq!(&*m.tenant, "acme");
    assert!((m.total_served - m.total_arrived).abs() < 1e-9);
    assert!(m.changes > 0);
}

#[test]
fn group_members_share_one_pool() {
    let mut s = shard();
    s.apply(&ReplayEvent::JoinGroup {
        group: 1,
        tenant: "acme".into(),
        members: vec![10, 11].into(),
    });
    for _ in 0..12 {
        s.apply(&ReplayEvent::Tick {
            arrivals: vec![(10, 1.0), (11, 1.0)].into(),
        });
    }
    let report = report(&s);
    let sessions = all_sessions(&report);
    assert_eq!(sessions.len(), 2);
    for m in &sessions {
        assert!(m.total_allocated > 0.0, "pool served {m:?}");
    }
    // One member leaves; the pool drains it and the shard retires it.
    s.apply(&ReplayEvent::Leave { key: 10 });
    for _ in 0..32 {
        s.apply(&ReplayEvent::Tick {
            arrivals: vec![(11, 1.0)].into(),
        });
    }
    assert_eq!(s.live_sessions(), 1);
    assert_eq!(s.groups.len(), 1);
    s.apply(&ReplayEvent::Leave { key: 11 });
    for _ in 0..32 {
        s.apply(&ReplayEvent::Tick {
            arrivals: vec![].into(),
        });
    }
    assert_eq!(s.live_sessions(), 0);
    assert!(s.groups.is_empty(), "empty group is dropped");
}

#[test]
fn unknown_keys_are_ignored() {
    let mut s = shard();
    s.apply(&ReplayEvent::Tick {
        arrivals: vec![(99, 5.0)].into(),
    });
    s.apply(&ReplayEvent::Leave { key: 99 });
    assert_eq!(s.live_sessions(), 0);
}

#[test]
fn retired_slots_are_reused_and_reports_share_the_retired_list() {
    let mut s = shard();
    s.apply(&ReplayEvent::JoinDedicated {
        key: 0,
        tenant: "acme".into(),
    });
    s.apply(&ReplayEvent::Leave { key: 0 }); // never ticked: drained, retires at once
    assert_eq!(s.live_sessions(), 0);
    s.apply(&ReplayEvent::JoinDedicated {
        key: 1,
        tenant: "acme".into(),
    });
    assert_eq!(s.cols.bound(), 1, "the retired session's slot is reused");
    let r1 = report(&s);
    let r2 = report(&s);
    assert!(
        Arc::ptr_eq(&r1.retired, &r2.retired),
        "steady-state reports share one retired list"
    );
    assert_eq!(r1.retired.len(), 1);
    assert_eq!(r1.live.len(), 1);
    // A retirement after a report was taken must not mutate the shared
    // list the earlier report still holds (copy-on-retire).
    s.apply(&ReplayEvent::Leave { key: 1 });
    assert_eq!(r1.retired.len(), 1, "earlier report is unaffected");
    assert_eq!(report(&s).retired.len(), 2);
}

/// A metrics answer streams its live rows [`REPORT_ROWS`] a report, each
/// report announcing the answer's rows, live and retired; only the last
/// says it is, with the stage count. A refused send ends the stream, and
/// an answer asked for whole is one report.
#[test]
fn a_metrics_answer_streams_bounded_reports() {
    let mut s = shard();
    let live = 2 * REPORT_ROWS + 76;
    for key in 0..=live as u64 {
        let tenant = "acme".into();
        s.apply(&ReplayEvent::JoinDedicated { key, tenant });
    }
    s.apply(&ReplayEvent::Leave { key: 0 }); // never ticked: retires at once
    let mut reports = Vec::new();
    s.report(REPORT_ROWS, |r| {
        reports.push(r);
        true
    });
    let runs: Vec<(usize, usize, bool)> = reports
        .iter()
        .map(|r| (r.live.len(), r.rows, r.last))
        .collect();
    let rows = live + 1;
    assert_eq!(
        runs,
        [
            (REPORT_ROWS, rows, false),
            (REPORT_ROWS, rows, false),
            (76, rows, true)
        ]
    );
    assert_eq!(reports[2].retired.len(), 1);
    // Whole, the answer is one report with room for the retired row.
    let mut whole = Vec::new();
    s.report(usize::MAX, |r| {
        whole.push((r.live.len(), r.live.capacity(), r.last));
        true
    });
    assert_eq!(whole, [(live, rows, true)]);
    let mut sent = 0;
    s.report(REPORT_ROWS, |_| {
        sent += 1;
        false
    });
    assert_eq!(sent, 1, "the collector is gone");
}

#[test]
fn export_forget_import_moves_a_session_bitwise() {
    let mut src = shard();
    let mut dst = shard();
    src.apply(&ReplayEvent::JoinDedicated {
        key: 3,
        tenant: "acme".into(),
    });
    src.apply(&ReplayEvent::JoinGroup {
        group: 0,
        tenant: "globex".into(),
        members: vec![4, 5].into(),
    });
    for t in 0..24u64 {
        src.apply(&ReplayEvent::Tick {
            arrivals: vec![(3, (t % 3) as f64), (4, 1.0), (5, 2.0)].into(),
        });
    }
    // Pooled members refuse to export; dedicated sessions lease.
    let sink = &mut columnar::ColumnSink::default();
    assert!(src.lease(4, sink).is_none());
    assert!(src.lease(99, sink).is_none());
    let lease = src.lease(3, sink).expect("dedicated exports");
    // Move it: forget at the source (no retired metrics left behind),
    // import at the destination under a fresh key.
    src.apply(&ReplayEvent::Forget { key: 3 });
    assert_eq!(src.live_sessions(), 2);
    assert_eq!(report(&src).retired.len(), 0, "forget must not retire");
    src.apply(&ReplayEvent::Tick {
        arrivals: vec![(4, 1.0), (5, 1.0)].into(),
    });
    dst.apply(&ReplayEvent::Import {
        key: 7,
        tenant: "acme".into(),
        lease: lease.into(),
    });
    assert_eq!(dst.live_sessions(), 1);
    // A twin that never migrated, driven through the same arrival
    // history under key 7, stays bitwise identical to the migrated
    // session.
    let mut twin_ref = shard();
    twin_ref.apply(&ReplayEvent::JoinDedicated {
        key: 7,
        tenant: "acme".into(),
    });
    for t in 0..24u64 {
        twin_ref.apply(&ReplayEvent::Tick {
            arrivals: vec![(7, (t % 3) as f64)].into(),
        });
    }
    for t in 0..16u64 {
        let bits = ((t + 1) % 4) as f64;
        dst.apply(&ReplayEvent::Tick {
            arrivals: vec![(7, bits)].into(),
        });
        twin_ref.apply(&ReplayEvent::Tick {
            arrivals: vec![(7, bits)].into(),
        });
    }
    let moved = report(&dst).live;
    let stayed = report(&twin_ref).live;
    assert_eq!(moved.len(), 1);
    assert_eq!(moved, stayed, "migration is bitwise-invisible");
}

#[test]
fn checkpoint_binary_roundtrip_restores_bitwise() {
    let mut s = shard();
    s.apply(&ReplayEvent::JoinDedicated {
        key: 0,
        tenant: "acme".into(),
    });
    s.apply(&ReplayEvent::JoinGroup {
        group: 0,
        tenant: "globex".into(),
        members: vec![1, 2].into(),
    });
    for t in 0..20u64 {
        s.apply(&ReplayEvent::Tick {
            arrivals: vec![(0, (t % 3) as f64), (1, 1.0), (2, 2.0)].into(),
        });
    }
    s.apply(&ReplayEvent::Leave { key: 1 });
    for _ in 0..8 {
        s.apply(&ReplayEvent::Tick {
            arrivals: vec![(0, 1.0), (2, 2.0)].into(),
        });
    }
    let (mut twin, frame, again) = land_frame(&s);
    assert_eq!(frame, again, "a frame round-trips exactly");
    // Lockstep continuation: the landed shard must stay bitwise
    // identical to the original under further events.
    for _ in 0..16 {
        let arrivals: TickBatch = vec![(0, 2.0), (2, 1.0)].into();
        s.apply(&ReplayEvent::Tick {
            arrivals: arrivals.clone(),
        });
        twin.apply(&ReplayEvent::Tick { arrivals });
    }
    assert_eq!(canonical_frame(&twin), canonical_frame(&s));
}

/// A lease is a frame, refused by the one frame validator: a cell out
/// of its column's domain (NaN, negative, infinite) and a row that is
/// dedicated and pooled at once are refused typed by the importer,
/// which admits nothing and holds no budget.
#[test]
fn checkpoint_validation_rejects_out_of_domain_floats() {
    use crate::{ControlPlane, CtrlError, ExecMode};
    let cfg = ServiceConfig {
        exec: ExecMode::Inline,
        ..shard_cfg()
    };
    let mut src = ControlPlane::new(cfg.clone());
    let key = src.admit("acme").unwrap();
    for t in 0..12u64 {
        src.tick(&[(key, (t % 4) as f64)]).unwrap();
    }
    let lease = src.export_session(key).unwrap();
    let refused = |blob: &[u8]| {
        let mut plane = ControlPlane::new(cfg.clone());
        let budget = plane.available_budget();
        let err = plane.import_session(blob).unwrap_err();
        assert_eq!(plane.live_sessions(), 0, "nothing was imported");
        assert_eq!(plane.available_budget(), budget, "no budget held");
        match err {
            CtrlError::InvalidCheckpoint { field } => field,
            other => panic!("expected a typed refusal, got {other}"),
        }
    };
    let mut plane = ControlPlane::new(cfg.clone());
    assert!(plane.import_session(&lease).is_ok(), "honest leases import");
    let f64_col = |j: usize| columnar::C_F64 + j;
    for (col, bad, field) in [
        (f64_col(0), f64::NAN, "columnar.shadow_backlog"),
        (f64_col(3), -5.0, "columnar.total_arrived"),
        (f64_col(8), f64::INFINITY, "columnar.backlog"),
        (f64_col(12), -1.0, "columnar.high_window_sum"),
    ] {
        assert_eq!(refused(&columnar::with_cells(&lease, col, &[bad])), field);
    }

    // A one-row frame whose pooled row also claims to be dedicated.
    let mut s = shard();
    s.apply(&ReplayEvent::JoinGroup {
        group: 0,
        tenant: "acme".into(),
        members: vec![0].into(),
    });
    let both = (F_LIVE | F_DEDICATED) as u64;
    let frame = columnar::with_cells(&frame_bytes(&s), columnar::C_FLAGS, &[both]);
    assert_eq!(refused(&frame), "columnar.migration");
    let parsed = columnar::parse(&frame).unwrap();
    let mut target = shard();
    let applied = target.apply_frame(&parsed, &mut ApplyScratch::default());
    assert_eq!(
        applied,
        Err("columnar.groups"),
        "a group names a dedicated row"
    );
}

/// Random lifecycle script for the shard tests.
#[derive(Debug, Clone)]
enum Op {
    JoinDedicated,
    JoinGroup(usize),
    Leave(usize),
    Ticks(u8, u8),
    /// One tick of 100 bits for every key: `low` jumps past the
    /// `B_A` = 16 that bounds `high`, and the 84 bits left queued keep
    /// the RESET open for several ticks.
    Burst,
    /// One tick in which only the `i`-th key issued sends, `bits`.
    Lone(usize, f64),
}

/// [`Op`] plus the state-moving operations only [`lockstep`]
/// interprets.
#[derive(Debug, Clone)]
enum LockstepOp {
    Plain(Op),
    /// Export → forget → import of one session under a fresh key.
    Migrate(usize),
    /// A checkpoint capture: encode a genesis frame, trim the journal.
    Capture,
    /// A crash recovery: fresh shard ← last frame + journal replay.
    Recover,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..9u8, 0usize..32usize, 1u8..=6u8, 0u8..=255u8).prop_map(
        |(class, idx, n, seed)| match class {
            0 | 1 => Op::JoinDedicated,
            2 => Op::JoinGroup(2 + idx % 3),
            3 | 4 => Op::Leave(idx),
            _ => Op::Ticks(n, seed),
        },
    )
}

/// What a lifecycle script carries from op to op: the keys issued so
/// far and the clocks its arrival pattern runs on.
#[derive(Default)]
struct Script {
    keys: Vec<u64>,
    next_key: u64,
    next_group: u64,
    tick_no: u64,
}

impl Script {
    fn pick(&self, i: usize) -> Option<u64> {
        (!self.keys.is_empty()).then(|| self.keys[i % self.keys.len()])
    }

    /// The replayable events `op` stands for (`Ticks(n, _)` is `n` of
    /// them). Arrivals name every key ever issued — retired and
    /// draining ones included, which a kernel must ignore — and every
    /// other five-tick block is silent: a full window of zeros drives
    /// `high` to 0, so the next arrival fires the certificate and two
    /// scripts in three cross a RESET.
    fn events(&mut self, op: &Op) -> Vec<ReplayEvent> {
        match *op {
            Op::JoinDedicated => {
                let key = self.next_key;
                self.keys.push(key);
                self.next_key += 1;
                let tenant = "acme".into();
                vec![ReplayEvent::JoinDedicated { key, tenant }]
            }
            Op::JoinGroup(n) => {
                let members: Arc<[u64]> = (self.next_key..self.next_key + n as u64).collect();
                self.keys.extend_from_slice(&members);
                self.next_key += n as u64;
                self.next_group += 1;
                vec![ReplayEvent::JoinGroup {
                    group: self.next_group - 1,
                    tenant: "globex".into(),
                    members,
                }]
            }
            Op::Leave(i) => self
                .pick(i)
                .map(|key| ReplayEvent::Leave { key })
                .into_iter()
                .collect(),
            Op::Ticks(n, seed) => (0..n)
                .map(|_| {
                    let t = self.tick_no;
                    self.tick_no += 1;
                    let silent = (t / 5) % 2 == 1;
                    let bits = |j: usize| match (seed as u64 + t * 31 + j as u64 * 7) % 5 {
                        _ if silent => 0.0,
                        lcg => lcg as f64 * 0.75,
                    };
                    let arrivals = self.keys.iter().enumerate();
                    let arrivals: Vec<_> = arrivals.map(|(j, &k)| (k, bits(j))).collect();
                    ReplayEvent::Tick {
                        arrivals: arrivals.into(),
                    }
                })
                .collect(),
            Op::Lone(i, bits) => {
                self.tick_no += 1;
                vec![ReplayEvent::Tick {
                    arrivals: vec![(self.keys[i], bits)].into(),
                }]
            }
            Op::Burst => {
                self.tick_no += 1;
                let arrivals: Vec<_> = self.keys.iter().map(|&k| (k, 100.0)).collect();
                vec![ReplayEvent::Tick {
                    arrivals: arrivals.into(),
                }]
            }
        }
    }
}

/// Leaves `state` the way a panic in the middle of an event could: a
/// scalar column cut short, a free slot and a live count no column
/// knows, a tenant no slot names, arrivals
/// staged and never un-scattered, flags longer than their columns and
/// live bits on slots nothing occupies.
fn tear(state: &mut ShardState) {
    let cols = &mut state.cols;
    cols.low_total.truncate(cols.low_total.len() / 2);
    if let Some(a) = cols.arrived.first_mut() {
        *a = 7.0;
        cols.touched.push(0);
    }
    cols.flags.push(0);
    for f in &mut cols.flags {
        if *f & F_LIVE == 0 {
            *f = F_LIVE | F_DEDICATED | F_STAGE_OPEN | F_LEAVING;
        }
    }
    for _ in 0..7 {
        state.slots.take(0);
    }
    state.slots.vacate(3);
    state.tenants.intern(&"torn".into());
}

/// Hull-and-query pairs for the `hull_max_slope` oracle test, three
/// arms behind a class selector:
///
/// - classes 0–3: hulls built exactly the way the kernel builds them
///   — cumulative arrival totals pushed through [`hull_keep`] at
///   x = 0, 1, 2, …, queried at a later x with the running total as y
///   (a one-arrival sequence yields the single-vertex hull);
/// - class 4: perfectly collinear vertices (which [`hull_keep`]
///   would collapse, so built directly) with an arbitrary query y —
///   the slope sequence is then monotone, the edge of unimodality;
/// - class 5: the explicit one-vertex hull, where the binary search
///   never iterates.
fn hull_and_query() -> impl Strategy<Value = (Vec<(f64, f64)>, (f64, f64))> {
    (
        0u8..6,
        proptest::collection::vec(0.0f64..32.0, 1..200),
        (2usize..50, -100.0f64..100.0, -4.0f64..4.0),
        (-100.0f64..100.0, 1u64..=16),
    )
        .prop_map(|(class, arrivals, (n, c, s), (qy, extra))| match class {
            0..=3 => {
                let mut hull = Vec::new();
                let mut total = 0.0f64;
                for (i, a) in arrivals.iter().enumerate() {
                    let p = (i as f64, total);
                    hull.truncate(hull_keep(
                        HullView {
                            head: &hull,
                            tail: &[],
                        },
                        p,
                    ));
                    hull.push(p);
                    total += a;
                }
                let q = ((arrivals.len() as u64 - 1 + extra) as f64, total);
                (hull, q)
            }
            4 => {
                let hull: Vec<(f64, f64)> = (0..n).map(|i| (i as f64, c + s * i as f64)).collect();
                (hull, ((n as u64 - 1 + extra) as f64, qy))
            }
            _ => (vec![(0.0, c)], (extra as f64, qy)),
        })
}

/// Arrival bits over every `f64` pattern, weighted towards the edges of
/// the `f32` form: arbitrary bits (NaN and ∞ included — the codec does
/// not validate), `-0.0`, subnormals, integers below 2^24, 1/64-bit
/// values, and widened `f32`s.
fn tick_bits() -> impl Strategy<Value = f64> {
    (0u8..6, 0..=u64::MAX).prop_map(|(class, raw)| match class {
        0 => f64::from_bits(raw),
        1 => -0.0,
        2 => f64::from_bits(raw & ((1 << 52) - 1) | (raw & 1 << 63)),
        3 => (raw % (1 << 24)) as f64,
        4 => (raw % (1 << 30)) as f64 / 64.0,
        _ => f64::from(f32::from_bits(raw as u32)),
    })
}

/// Tick batches in key order ascending, descending, as drawn, and one
/// key repeated.
fn tick_batch() -> impl Strategy<Value = Vec<(u64, f64)>> {
    (
        0u8..4,
        proptest::collection::vec((0..=u64::MAX, tick_bits()), 0..64),
    )
        .prop_map(|(order, mut arrivals)| {
            match order {
                0 => arrivals.sort_by_key(|a| a.0),
                1 => arrivals.sort_by_key(|a| std::cmp::Reverse(a.0)),
                2 => {}
                _ => {
                    let key = arrivals.first().map_or(0, |a| a.0);
                    arrivals.iter_mut().for_each(|a| a.0 = key);
                }
            }
            arrivals
        })
}

/// Decodes `arrivals`' encoding and compares it bit for bit; returns
/// what each arrival cost, read off the prefix lengths (the encoding
/// streams, so an arrival's bytes never depend on what follows it).
fn tick_round_trip(arrivals: &[(u64, f64)]) -> Vec<usize> {
    let mut buf = Vec::new();
    let batch = TickBatch::encode(arrivals, &mut buf);
    let bits = |a: &[(u64, f64)]| a.iter().map(|&(k, b)| (k, b.to_bits())).collect::<Vec<_>>();
    let decoded: Vec<(u64, f64)> = batch.iter().collect();
    assert_eq!(bits(&decoded), bits(arrivals), "round trip");
    let mut costs = Vec::new();
    let mut before = 0;
    for n in 1..=arrivals.len() {
        let len = TickBatch::encode(&arrivals[..n], &mut buf).bytes();
        costs.push(len - before);
        before = len;
    }
    assert_eq!(before, batch.bytes());
    costs
}

/// The journal's tick encoding at its edges: the keys `0` and
/// `u64::MAX` side by side (a wrapped delta of ±1), a delta of 2^63
/// (all 64 zigzag bits, so the width flag is bit 65 and the varint
/// runs to 10 bytes), and the width choice for `-0.0`, a subnormal, an
/// `f32`-exact and an inexact value.
#[test]
fn tick_batches_encode_their_edges_exactly() {
    let subnormal = f64::from_bits(1);
    assert_eq!(
        tick_round_trip(&[
            (0, 1.0),
            (u64::MAX, 2.0),
            (0, 3.0),
            (1 << 63, 0.1),
            (0, 0.1),
            (1, -0.0),
            (2, subnormal),
            (3, 0.015625),
            (4, 16_777_215.0),
            (5, 16_777_217.0),
        ]),
        [5, 5, 5, 18, 18, 5, 9, 5, 5, 9]
    );
    assert_eq!(TickBatch::encode(&[], &mut Vec::new()).bytes(), 0);
    assert_eq!(TickBatch::encode(&[], &mut Vec::new()).iter().count(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    /// Any batch round-trips bit for bit, in order, in at most 18
    /// bytes an arrival.
    #[test]
    fn tick_batches_round_trip_bitwise(arrivals in tick_batch()) {
        let costs = tick_round_trip(&arrivals);
        prop_assert!(costs.iter().all(|&c| c <= 18), "costs {costs:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24 })]

    /// `hull_max_slope`'s unimodal binary search against the naive
    /// linear scan it replaces: over kernel-built hulls, perfectly
    /// collinear hulls, and the single-vertex hull, both must return
    /// the *same f64* — the slope at the best vertex is the same
    /// division either way, so equality is bitwise, not approximate.
    #[test]
    fn hull_max_slope_matches_linear_scan_oracle(hq in hull_and_query()) {
        let (hull, q) = hq;
        let oracle = hull
            .iter()
            .map(|&(x, y)| (q.1 - y) / (q.0 - x))
            .fold(f64::NEG_INFINITY, f64::max);
        // Wherever the inline vertices end and the spill begins.
        for split in 0..=hull.len() {
            let (head, tail) = hull.split_at(split);
            let fast = hull_max_slope(HullView { head, tail }, q);
            prop_assert_eq!(fast, oracle);
        }
    }

    /// The columnar frames as a replication chain: a mirror shard
    /// re-fed a frame after every step writes the live shard's frame
    /// again, byte for byte (it compacts slots in frame-row order, and
    /// a frame carries no slot). Every dedicated session also
    /// round-trips bitwise through the single-row migration frame.
    #[test]
    fn columnar_chain_matches_full_checkpoint(
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let cfg = shard_cfg();
        let mut live = ShardState::new(0, &cfg);
        let mut mirror = ShardState::new(0, &cfg);
        let mut sink = columnar::ColumnSink::default();
        let mut scratch = ApplyScratch::default();
        let (mut buf, mut again) = (Vec::new(), Vec::new());
        let mut script = Script::default();
        for op in &ops {
            for ev in script.events(op) {
                live.apply(&ev);
            }
            buf.clear();
            live.encode_columnar(&mut sink, &mut buf);
            let frame = columnar::parse(&buf).expect("own frames parse");
            mirror.apply_frame(&frame, &mut scratch).expect("own frames apply");
            again.clear();
            mirror.encode_columnar(&mut sink, &mut again);
            prop_assert_eq!(&again, &buf);
        }
        // Leases: every dedicated session (the ones that migrate)
        // lands from its one-row frame as the row it was.
        for &key in &script.keys {
            let Some(lease) = live.lease(key, &mut sink) else {
                continue;
            };
            let mut lone = ShardState::new(0, &cfg);
            let (tenant, lease_bytes) = ("acme".into(), lease.as_slice().into());
            lone.apply(&ReplayEvent::Import { key, tenant, lease: lease_bytes });
            prop_assert_eq!(lone.lease(key, &mut sink), Some(lease));
        }
    }
}

/// Drives `ops` through a shard that is moved around the way
/// production moves it — migration as a lease blob (export → forget →
/// import), checkpoint capture, and crash recovery from the last frame
/// plus a journal replay — and through a twin that only migrates:
/// after every tick, and after every recovery, the two must hold the
/// same state, bit for bit ([`canonical_frame`]). Whether the kernel
/// itself is right is `tests/tests/ctrl_vs_core.rs`'s question.
/// Returns the moved shard.
fn lockstep(ops: &[LockstepOp]) -> ShardState {
    let mut soa = shard();
    let mut twin = shard();
    let mut sink = columnar::ColumnSink::default();
    // The supervisor's recovery state: the last captured frame
    // (none until the first capture, when the journal runs from
    // genesis) and the replayable events applied since.
    let mut frame: Option<Vec<u8>> = None;
    let mut journal: Vec<ReplayEvent> = Vec::new();
    let mut recoveries = 0usize;
    let mut script = Script::default();
    let apply = |soa: &mut ShardState,
                 twin: &mut ShardState,
                 journal: &mut Vec<ReplayEvent>,
                 ev: ReplayEvent| {
        soa.apply(&ev);
        twin.apply(&ev);
        journal.push(ev);
    };
    for op in ops {
        match op {
            LockstepOp::Plain(op) => {
                for ev in script.events(op) {
                    let ticked = matches!(ev, ReplayEvent::Tick { .. });
                    apply(&mut soa, &mut twin, &mut journal, ev);
                    if ticked {
                        assert_eq!(canonical_frame(&soa), canonical_frame(&twin));
                    }
                }
            }
            LockstepOp::Migrate(i) => {
                // Pooled members and retired keys do not export.
                let key = script.pick(*i);
                let Some((key, lease)) = key.and_then(|k| Some((k, soa.lease(k, &mut sink)?)))
                else {
                    continue;
                };
                // As a lease blob: one frame row, validated on import.
                let row = columnar::parse(&lease).expect("a lease parses");
                validate_lease(&row, &soa.single_cfg, soa.cost).expect("a lease validates");
                let new_key = script.next_key;
                apply(
                    &mut soa,
                    &mut twin,
                    &mut journal,
                    ReplayEvent::Forget { key },
                );
                let import = ReplayEvent::Import {
                    key: new_key,
                    tenant: "acme".into(),
                    lease: lease.into(),
                };
                apply(&mut soa, &mut twin, &mut journal, import);
                script.keys.push(new_key);
                script.next_key += 1;
            }
            LockstepOp::Capture => {
                let bytes = frame.get_or_insert_with(Vec::new);
                bytes.clear();
                soa.encode_columnar(&mut sink, bytes);
                journal.clear();
            }
            LockstepOp::Recover => {
                // Into the retired state itself, recycled, on every
                // other recovery (torn first on every fourth);
                // into a fresh state otherwise.
                if recoveries.is_multiple_of(4) {
                    tear(&mut soa);
                }
                let target = if recoveries.is_multiple_of(2) {
                    soa.recycle()
                } else {
                    shard()
                };
                soa = target.rebuild(frame.as_deref(), &journal);
                recoveries += 1;
                assert_eq!(canonical_frame(&soa), canonical_frame(&twin));
            }
        }
    }
    soa
}

/// A shard's frame bytes.
fn frame_bytes(state: &ShardState) -> Vec<u8> {
    let mut out = Vec::new();
    state.encode_columnar(&mut columnar::ColumnSink::default(), &mut out);
    out
}

/// Where the ring's blocks sit: a block that moved, went or came shows.
fn block_addrs(state: &ShardState) -> Vec<usize> {
    let ring = &state.cols.recent_ring;
    ring.blocks.iter().map(RingBlock::addr).collect()
}

/// Populations one short of a ring block, exactly one, one past it and
/// one reaching into a third, through [`lockstep`]. The script wraps the
/// `W` = 4 ring several times, meters a pooled group through the
/// gather path, and reuses a retired slot. Inexact arrivals widen the
/// last dedicated slot's block, and after a capture another's, whose
/// pair then reaches the recovery through the journal. A burst holds
/// every dedicated session in RESET for several ticks; one is leased
/// and the shard recovered from a frame in the middle of it, and again
/// a few ticks into the next stages, while windows are partly filled.
#[test]
fn ring_block_edges_are_bitwise_invisible() {
    use LockstepOp::*;
    for n in [
        RING_BLOCK - 1,
        RING_BLOCK,
        RING_BLOCK + 1,
        2 * RING_BLOCK + 3,
    ] {
        let joins = std::iter::repeat_n(Plain(Op::JoinDedicated), n - 3);
        let ops: Vec<LockstepOp> = joins
            .chain([
                Plain(Op::JoinGroup(3)),
                Plain(Op::Ticks(6, 3)),
                Plain(Op::Lone(n - 4, 0.1)),
                Plain(Op::Leave(n / 2)),
                Plain(Op::Ticks(6, 5)),
                Plain(Op::Burst),
                Plain(Op::Ticks(2, 9)),
                Migrate(0),
                Capture,
                Plain(Op::Lone(n / 3, f64::from_bits(1))),
                Plain(Op::Ticks(1, 9)),
                Recover,
                Plain(Op::Ticks(6, 11)),
                Capture,
                Recover,
                Migrate(1),
                Plain(Op::Ticks(6, 11)),
                Plain(Op::JoinDedicated),
                Plain(Op::Ticks(6, 7)),
            ])
            .collect();
        let shard = lockstep(&ops);
        let blocks = shard.cols.bound().div_ceil(RING_BLOCK);
        assert_eq!(block_addrs(&shard).len(), blocks, "{n} slots");
    }
}

/// Which ring blocks have been re-laid wide, in block order.
fn wide_blocks(state: &ShardState) -> Vec<bool> {
    let ring = &state.cols.recent_ring;
    ring.blocks.iter().map(RingBlock::is_wide).collect()
}

/// Three blocks of dedicated sessions on `f32`-exact arrivals and a
/// pooled group of three in a fourth, whose quantum `B_O / 3` is not
/// `f32`-exact. Mid-window, 0.1 arrives at a block's last slot, the
/// smallest subnormal at the next block's first, and 1e300 in a block
/// already wide: each inexact pair re-lays its own block wide and no
/// other, a wide block stays wide once the window has moved past the
/// pair that widened it, and a frame of the mixed shard lands the same
/// blocks wide. The frame's bytes are pinned to what the same script
/// wrote when every ring cell was two `f64`s. Once the window has moved
/// on, a restore into a fresh store widens only the pooled block, and one
/// into the recycled store keeps the blocks it had wide; both write the
/// same frame.
#[test]
fn an_inexact_pair_widens_its_own_block_and_moves_no_frame_byte() {
    let mut s = shard();
    let mut script = Script::default();
    let mut run = |s: &mut ShardState, op: Op| {
        for ev in script.events(&op) {
            s.apply(&ev);
        }
    };
    for _ in 0..3 * RING_BLOCK {
        run(&mut s, Op::JoinDedicated);
    }
    run(&mut s, Op::Ticks(2, 1));
    assert_eq!(wide_blocks(&s), [false; 3]);
    run(&mut s, Op::JoinGroup(3));
    run(&mut s, Op::Ticks(1, 2));
    assert_eq!(wide_blocks(&s), [false, false, false, true]);
    run(&mut s, Op::Lone(RING_BLOCK - 1, 0.1));
    assert_eq!(wide_blocks(&s), [true, false, false, true]);
    run(&mut s, Op::Ticks(1, 3));
    run(&mut s, Op::Lone(RING_BLOCK, f64::from_bits(1)));
    run(&mut s, Op::Lone(0, 1e300));
    let mixed = [true, true, false, true];
    assert_eq!(wide_blocks(&s), mixed);
    let frame = frame_bytes(&s);
    let fnv1a = |bytes: &[u8]| {
        let fold = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, fold)
    };
    assert_eq!(
        (frame.len(), fnv1a(&frame)),
        (4_556, 9_786_739_155_261_644_251)
    );
    let landed = shard().rebuild(Some(&frame), &[]);
    assert_eq!(wide_blocks(&landed), mixed);
    assert_eq!(frame_bytes(&landed), frame);
    run(&mut s, Op::Ticks(6, 4));
    assert_eq!(wide_blocks(&s), mixed, "a wide block stays wide");
    let frame = frame_bytes(&s);
    let fresh = shard().rebuild(Some(&frame), &[]);
    let recycled = s.recycle().rebuild(Some(&frame), &[]);
    assert_eq!(wide_blocks(&fresh), [false, false, false, true]);
    assert_eq!(wide_blocks(&recycled), mixed, "a recycled store keeps them");
    assert_eq!(frame_bytes(&recycled), frame);
    assert_eq!(frame_bytes(&fresh), frame);
}

/// A restore into a recycled store that holds fewer ring blocks than
/// the frame needs, and into one that holds more — torn first or not —
/// lands exactly where a restore into a fresh state does, keeps every
/// block the donor had where it was, and runs on identically.
#[test]
fn restores_into_recycled_stores_holding_fewer_and_more_blocks() {
    // A history of `n` sessions: the state, its last frame and the
    // journal since.
    let history = |n: usize| {
        let mut state = shard();
        let mut script = Script::default();
        let mut run = |state: &mut ShardState, ops: &[Op]| {
            let evs: Vec<ReplayEvent> = ops.iter().flat_map(|op| script.events(op)).collect();
            evs.iter().for_each(|ev| state.apply(ev));
            evs
        };
        let joins = vec![Op::JoinDedicated; n];
        run(&mut state, &joins);
        run(&mut state, &[Op::Ticks(6, 1), Op::Ticks(3, 2)]);
        let mut frame = Vec::new();
        let mut sink = columnar::ColumnSink::default();
        state.encode_columnar(&mut sink, &mut frame);
        let journal = run(
            &mut state,
            &[Op::Leave(1), Op::Ticks(4, 9), Op::JoinDedicated],
        );
        let after = script.events(&Op::Ticks(6, 4));
        (state, frame, journal, after)
    };
    let (small, big) = (RING_BLOCK - 1, 3 * RING_BLOCK + 1);
    for (donor_n, frame_n) in [(small, big), (big, small)] {
        for torn in [false, true] {
            let (mut donor, ..) = history(donor_n);
            let (_, frame, journal, after) = history(frame_n);
            let held = block_addrs(&donor);
            if torn {
                tear(&mut donor);
            }
            let mut restored = donor.recycle().rebuild(Some(&frame), &journal);
            let mut fresh = shard().rebuild(Some(&frame), &journal);
            assert_eq!(frame_bytes(&restored), frame_bytes(&fresh));
            let now = block_addrs(&restored);
            let blocks = donor_n.max(restored.cols.bound()).div_ceil(RING_BLOCK);
            assert_eq!(now.len(), blocks, "donor {donor_n}, frame {frame_n}");
            assert_eq!(&now[..held.len()], held);
            for ev in after {
                restored.apply(&ev);
                fresh.apply(&ev);
                assert_eq!(frame_bytes(&restored), frame_bytes(&fresh));
            }
        }
    }
}

/// `Columns::grow_to` runs on every tick; at a steady population, and
/// through a leave and a join that reuses the slot, it must leave the
/// ring blocks alone — same count, same addresses.
#[test]
fn steady_population_never_touches_the_ring_blocks() {
    let mut s = shard();
    let mut script = Script::default();
    let mut run = |s: &mut ShardState, op: Op| {
        for ev in script.events(&op) {
            s.apply(&ev);
        }
    };
    for _ in 0..=RING_BLOCK {
        run(&mut s, Op::JoinDedicated);
    }
    let blocks = block_addrs(&s);
    assert_eq!(blocks.len(), 2, "two ring blocks");
    for _ in 0..200 {
        run(&mut s, Op::Ticks(5, 1));
    }
    assert_eq!(s.ticks(), 1_000);
    let bound = s.cols.bound();
    run(&mut s, Op::Leave(2));
    run(&mut s, Op::Ticks(6, 1));
    run(&mut s, Op::Ticks(6, 1));
    assert_eq!(
        s.live_sessions(),
        RING_BLOCK,
        "the leaver has drained and retired"
    );
    run(&mut s, Op::JoinDedicated);
    run(&mut s, Op::Ticks(6, 1));
    assert_eq!(s.cols.bound(), bound, "the join reused the slot");
    assert_eq!(block_addrs(&s), blocks);
}

/// A window shorter than `2·D_O` (`W` = 4 < 8) and a dedicated session
/// offered 24 bits a tick against `B_A` = 16 keep FIFO entries queued
/// after the window has moved past them, so those entries live in the
/// cold spill (a pooled pair, also pressed hard, rides along through
/// the gather path). A frame taken while entries sit in the spill
/// lands them there again, and the shard it lands in runs on as the
/// uninterrupted one does, bit for bit. Once everything has drained,
/// no spill is held. (`ctrl_vs_core.rs` drives the same overload
/// against `cdba-core` and the sim's delay measure.)
#[test]
fn fifo_entries_older_than_the_window_spill_and_stay_bitwise() {
    let cfg = shard_cfg();
    let mut soa = ShardState::new(0, &cfg);
    let mut events = vec![
        ReplayEvent::JoinDedicated {
            key: 0,
            tenant: "acme".into(),
        },
        ReplayEvent::JoinDedicated {
            key: 1,
            tenant: "acme".into(),
        },
        ReplayEvent::JoinGroup {
            group: 0,
            tenant: "globex".into(),
            members: vec![2, 3].into(),
        },
    ];
    events.extend((0..64u64).map(|t| {
        let on = |bits: f64| if t < 20 { bits } else { 0.0 };
        let arrivals = vec![
            (0, on(24.0)),
            (1, (t % 3) as f64),
            (2, on(12.0)),
            (3, on(12.0)),
        ];
        ReplayEvent::Tick {
            arrivals: arrivals.into(),
        }
    }));
    // Entries held in spills, over all slots.
    let spilled = |s: &ShardState| {
        s.cols
            .pend_spill
            .iter()
            .flatten()
            .map(|p| p.len())
            .sum::<usize>()
    };
    let mut mirror: Option<ShardState> = None;
    for ev in &events {
        soa.apply(ev);
        if let Some(m) = &mut mirror {
            m.apply(ev);
            assert_eq!(canonical_frame(&soa), canonical_frame(m));
        }
        if mirror.is_none() && spilled(&soa) >= 3 {
            let mut frame = Vec::new();
            soa.encode_columnar(&mut columnar::ColumnSink::default(), &mut frame);
            let mut landed = ShardState::new(0, &cfg);
            let parsed = columnar::parse(&frame).unwrap();
            landed
                .apply_frame(&parsed, &mut ApplyScratch::default())
                .unwrap();
            assert_eq!(spilled(&landed), spilled(&soa), "the frame lands the spill");
            assert_eq!(canonical_frame(&soa), canonical_frame(&landed));
            mirror = Some(landed);
        }
    }
    assert!(
        mirror.is_some(),
        "three entries outlived the window at once"
    );
    let max_delay = report(&soa).live.iter().map(|m| m.max_delay).max();
    assert!(max_delay > Some(cfg.w as u64), "delay {max_delay:?}");
    assert!(
        soa.cols.pend_spill.iter().all(Option::is_none),
        "a drained FIFO holds no spill"
    );
}

/// Slots holding a hull spill.
fn hull_spills(s: &ShardState) -> usize {
    s.cols.hull_spill.iter().flatten().count()
}

/// A frame of `s`, landed in a fresh shard: the landed shard and both
/// frames' bytes.
fn land_frame(s: &ShardState) -> (ShardState, Vec<u8>, Vec<u8>) {
    let mut sink = columnar::ColumnSink::default();
    let mut frame = Vec::new();
    s.encode_columnar(&mut sink, &mut frame);
    let mut landed = shard();
    let parsed = columnar::parse(&frame).unwrap();
    landed
        .apply_frame(&parsed, &mut ApplyScratch::default())
        .unwrap();
    let mut again = Vec::new();
    landed.encode_columnar(&mut sink, &mut again);
    (landed, frame, again)
}

/// Session 0's arrivals climb by 1/64 bit a tick, so its cumulative
/// curve is strictly convex and every tick adds a hull vertex: the
/// hull outgrows its [`HULL_INLINE`] inline vertices and spills the
/// rest. A silent tick then makes the newest point pop all but the
/// first vertex, and the shrunken hull keeps its spill, emptied; it
/// climbs again, and a burst fires the certificate, so a RESET
/// empties the hull and drops the spill; flat traffic after it keeps
/// two vertices, as it does session 1's throughout. A pooled pair
/// rides along. While a hull is past its inline capacity a frame
/// lands it with a spill again, writes the same bytes again, and runs
/// on as the shard it came from does.
#[test]
fn hulls_past_the_inline_capacity_spill_and_stay_bitwise() {
    let mut soa = shard();
    let joins = [
        ReplayEvent::JoinDedicated {
            key: 0,
            tenant: "acme".into(),
        },
        ReplayEvent::JoinDedicated {
            key: 1,
            tenant: "initech".into(),
        },
        ReplayEvent::JoinGroup {
            group: 0,
            tenant: "globex".into(),
            members: vec![2, 3].into(),
        },
    ];
    for ev in &joins {
        soa.apply(ev);
    }
    let climb = |t: u64| 1.0 + t as f64 / 64.0;
    let ticks = (0..40u64).map(|t| {
        let bits = match t {
            10 => 0.0,
            17 => 100.0,
            18.. => 1.0,
            _ => climb(t),
        };
        let arrivals = vec![(0, bits), (1, 1.0), (2, 2.0), (3, 1.0)];
        ReplayEvent::Tick {
            arrivals: arrivals.into(),
        }
    });
    let (mut spilled, mut shrank_in_spill, mut reset_spilled) = (0, false, false);
    let mut mirrors: Vec<ShardState> = Vec::new();
    for ev in &ticks.collect::<Vec<_>>() {
        let (was_spilled, stages) = (hull_spills(&soa), soa.cols.stages_completed[0]);
        soa.apply(ev);
        for m in &mut mirrors {
            m.apply(ev);
            assert_eq!(canonical_frame(&soa), canonical_frame(m));
        }
        assert!(soa.cols.hull_len[1] <= 2, "a flat curve keeps two vertices");
        let now = hull_spills(&soa);
        if soa.cols.stages_completed[0] > stages {
            assert_eq!(now, 0, "a RESET drops the spill");
            reset_spilled |= was_spilled > 0;
        }
        if now > 0 {
            let n = soa.cols.hull(0).len();
            assert_eq!(soa.cols.hull_len[0] as usize, n);
            let spill = soa.cols.hull_spill[0].as_ref().expect("slot 0 spills");
            assert_eq!(spill.len(), n.saturating_sub(HULL_INLINE));
            shrank_in_spill |= n <= HULL_INLINE;
            if n > HULL_INLINE && spilled < 2 {
                let (landed, frame, again) = land_frame(&soa);
                assert_eq!(hull_spills(&landed), now, "the frame lands the spill");
                assert_eq!(frame, again, "a landed spill writes the same frame");
                assert_eq!(canonical_frame(&soa), canonical_frame(&landed));
                mirrors.push(landed);
                spilled += 1;
            }
        }
    }
    assert!(spilled >= 2, "the hull spilled");
    assert!(shrank_in_spill, "a shrinking hull keeps its spill");
    assert!(reset_spilled, "a RESET empties a spilled hull");
    assert_eq!(hull_spills(&soa), 0, "no hull outgrows flat traffic");
    assert_eq!(mirrors.len(), 2);
}

/// A slot freed by a retirement is the next join's, the last freed
/// first, and nothing addressed to the departed key reaches the
/// session that took its slot: its arrivals, its leave, its export
/// and its forget all miss. What the slab's generations guarded, the
/// exact key map and the slot's own key now do.
#[test]
fn departed_keys_miss_the_sessions_that_reuse_their_slots() {
    let script = |departed: bool| {
        let mut s = shard();
        for key in 0..4 {
            s.apply(&ReplayEvent::JoinDedicated {
                key,
                tenant: "acme".into(),
            });
        }
        s.apply(&ReplayEvent::JoinGroup {
            group: 0,
            tenant: "globex".into(),
            members: vec![4, 5].into(),
        });
        s.apply(&ReplayEvent::Tick {
            arrivals: vec![(0, 1.0), (3, 2.0), (4, 1.0), (5, 1.0)].into(),
        });
        // Idle sessions have nothing queued, so both retire at once.
        s.apply(&ReplayEvent::Leave { key: 1 });
        s.apply(&ReplayEvent::Leave { key: 2 });
        assert_eq!(s.live_sessions(), 4);
        s.apply(&ReplayEvent::JoinDedicated {
            key: 6,
            tenant: "acme".into(),
        });
        s.apply(&ReplayEvent::JoinDedicated {
            key: 7,
            tenant: "initech".into(),
        });
        assert_eq!((s.slot_of(6), s.slot_of(7)), (Some(2), Some(1)), "LIFO");
        assert_eq!(s.cols.bound(), 6, "no slot past the freed ones");
        for t in 0..12u64 {
            let mut arrivals = vec![(0, 1.0), (6, (t % 3) as f64), (7, 2.0), (4, 1.0)];
            if departed {
                arrivals.extend([(1, 9.0), (2, 9.0)]);
            }
            s.apply(&ReplayEvent::Tick {
                arrivals: arrivals.into(),
            });
            if departed && t == 4 {
                for key in [1, 2] {
                    assert_eq!(s.slot_of(key), None);
                    assert!(s.lease(key, &mut columnar::ColumnSink::default()).is_none());
                    s.apply(&ReplayEvent::Leave { key });
                    s.apply(&ReplayEvent::Forget { key });
                }
                assert_eq!(s.live_sessions(), 6);
            }
        }
        s
    };
    let (hit, clean) = (script(true), script(false));
    assert_eq!(frame_bytes(&hit), frame_bytes(&clean));
    assert_eq!(report(&hit).live, report(&clean).live);
    assert_eq!(
        hit.cols.flags[1] & F_LEAVING,
        0,
        "the newcomer is not leaving"
    );
    // The pooled pair frees its slots to a join as well.
    let mut s = clean;
    s.apply(&ReplayEvent::Leave { key: 4 });
    s.apply(&ReplayEvent::Leave { key: 5 });
    for _ in 0..32 {
        s.apply(&ReplayEvent::Tick {
            arrivals: vec![].into(),
        });
    }
    assert!(
        s.groups.is_empty(),
        "the pair retired and its group dissolved"
    );
    for key in [8, 9] {
        s.apply(&ReplayEvent::JoinDedicated {
            key,
            tenant: "acme".into(),
        });
    }
    let mut took = [s.slot_of(8), s.slot_of(9)];
    took.sort();
    assert_eq!(took, [Some(4), Some(5)]);
    s.apply(&ReplayEvent::Leave { key: 4 });
    assert_eq!(s.live_sessions(), 6);
    assert!(s.lease(4, &mut columnar::ColumnSink::default()).is_none());
}

/// A shard's full state as a frame whose rows and retired list run
/// in key order: the bitwise yardstick for two shards whose slots or
/// same-tick retirements may order differently (a recovery or a frame
/// apply compacts slots; slot order is placement, not state).
fn canonical_frame(state: &ShardState) -> Vec<u8> {
    let mut slots: Vec<usize> = state.live_slots().collect();
    slots.sort_by_key(|&i| state.cols.keys[i]);
    let mut retired = state.retired.to_vec();
    retired.sort_by_key(|m| m.session);
    let mut out = Vec::new();
    let sink = &mut columnar::ColumnSink::default();
    let groups = state.group_checkpoints();
    state.encode_rows(slots, state.header(), &groups, &retired, sink, &mut out);
    out
}
