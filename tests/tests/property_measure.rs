//! Property-based tests on the measurement substrate: FIFO delay and
//! utilization measures checked against independent brute-force oracles and
//! dominance laws.

use cdba_offline::PlaybackAllocator;
use cdba_sim::engine::{simulate, DrainPolicy};
use cdba_sim::{measure, Allocator, Schedule, ScheduleBuilder};
use cdba_traffic::Trace;
use proptest::prelude::*;

fn arb_trace(max_len: usize) -> impl Strategy<Value = Trace> {
    proptest::collection::vec(0.0f64..50.0, 1..max_len)
        .prop_map(|v| Trace::new(v).expect("valid arrivals"))
}

fn schedule_of(values: &[f64]) -> Schedule {
    let mut b = ScheduleBuilder::new();
    for &v in values {
        b.push(v);
    }
    b.build()
}

/// Brute-force FIFO delay oracle: serve the queue tick by tick, tracking
/// each arrival tick's remaining bits explicitly.
fn oracle_max_delay(trace: &Trace, served: &[f64]) -> Option<usize> {
    // pending[i] = (arrival tick, bits left)
    let mut pending: std::collections::VecDeque<(usize, f64)> = std::collections::VecDeque::new();
    let mut worst = 0usize;
    for (t, &cap) in served.iter().enumerate() {
        if t < trace.len() && trace.arrival(t) > 0.0 {
            pending.push_back((t, trace.arrival(t)));
        }
        let mut cap = cap;
        while cap > 1e-12 {
            let Some(front) = pending.front_mut() else {
                break;
            };
            let take = front.1.min(cap);
            front.1 -= take;
            cap -= take;
            if front.1 <= 1e-9 {
                worst = worst.max(t - front.0);
                pending.pop_front();
            }
        }
    }
    pending.is_empty().then_some(worst)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn max_delay_matches_bruteforce_oracle(
        trace in arb_trace(60),
        caps in proptest::collection::vec(0.0f64..60.0, 1..200),
    ) {
        // Drive a playback allocator so the served curve is realistic.
        let mut alg = PlaybackAllocator::new(caps, "caps");
        let run = simulate(&trace, &mut alg, DrainPolicy::StopAtTraceEnd).unwrap();
        let fast = measure::max_delay(&trace, run.served());
        let slow = oracle_max_delay(&trace, run.served());
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn generous_service_means_zero_delay(trace in arb_trace(80)) {
        let served: Vec<f64> = trace.arrivals().to_vec();
        prop_assert_eq!(measure::max_delay(&trace, &served), Some(0));
    }

    #[test]
    fn more_service_never_hurts_delay(
        trace in arb_trace(40),
        caps in proptest::collection::vec(0.0f64..30.0, 60..120),
        boost in 0.1f64..10.0,
    ) {
        let mut base = PlaybackAllocator::new(caps.clone(), "base");
        let run_base = simulate(&trace, &mut base, DrainPolicy::StopAtTraceEnd).unwrap();
        let boosted: Vec<f64> = caps.iter().map(|c| c + boost).collect();
        let mut more = PlaybackAllocator::new(boosted, "more");
        let run_more = simulate(&trace, &mut more, DrainPolicy::StopAtTraceEnd).unwrap();
        match (measure::max_delay(&trace, run_base.served()),
               measure::max_delay(&trace, run_more.served())) {
            (Some(d_base), Some(d_more)) => prop_assert!(d_more <= d_base),
            (None, Some(_)) | (None, None) => {} // base didn't serve all
            (Some(_), None) => prop_assert!(false, "more service served less"),
        }
    }

    #[test]
    fn local_utilization_matches_bruteforce(
        trace in arb_trace(50),
        w in 1usize..12,
    ) {
        // Allocation proportional to arrivals plus a floor.
        let alloc: Vec<f64> = trace.arrivals().iter().map(|a| a * 0.7 + 1.0).collect();
        let schedule = schedule_of(&alloc);
        let fast = measure::local_utilization(&trace, &schedule, w);
        // Brute force.
        let mut best = f64::INFINITY;
        for end in w..=schedule.len() {
            let a: f64 = alloc[end - w..end].iter().sum();
            if a <= 1e-6 {
                continue;
            }
            best = best.min(trace.window(end - w, end) / a);
        }
        if best.is_finite() {
            prop_assert!((fast.utilization - best).abs() < 1e-9,
                "fast {} brute {}", fast.utilization, best);
        } else {
            prop_assert!(fast.utilization.is_infinite());
        }
    }

    #[test]
    fn relaxed_utilization_dominates_strict(
        trace in arb_trace(50),
        w in 1usize..8,
        extra in 0usize..10,
    ) {
        let alloc: Vec<f64> = trace.arrivals().iter().map(|a| a * 0.5 + 2.0).collect();
        let schedule = schedule_of(&alloc);
        let strict = measure::local_utilization(&trace, &schedule, w);
        let relaxed = measure::relaxed_local_utilization(&trace, &schedule, w, w + extra);
        prop_assert!(relaxed.utilization >= strict.utilization - 1e-12);
    }

    #[test]
    fn schedule_change_log_reconstructs_timeline(
        values in proptest::collection::vec(0.0f64..20.0, 1..100),
    ) {
        let schedule = schedule_of(&values);
        // Replaying the change log must reproduce the recorded allocation.
        let mut current = 0.0;
        let mut changes = schedule.changes().iter().peekable();
        for (t, &a) in schedule.allocation().iter().enumerate() {
            while let Some(c) = changes.peek() {
                if c.tick == t {
                    current = c.to;
                    changes.next();
                } else {
                    break;
                }
            }
            prop_assert!((a - current).abs() < 1e-9, "tick {t}: {a} vs {current}");
        }
    }
}

/// A quickcheck-style deterministic case the proptest shrinker once found
/// interesting: service exactly at the boundary of the drain window.
#[test]
fn boundary_service_exactness() {
    let trace = Trace::new(vec![10.0, 0.0]).unwrap();
    let served = vec![5.0, 5.0];
    assert_eq!(measure::max_delay(&trace, &served), Some(1));
    assert_eq!(oracle_max_delay(&trace, &served), Some(1));
}

/// The control plane's delay meter against the per-bit oracle above, with
/// bits queued longer than the meter's window: `W` = 4 < 2·D_O = 8, and
/// one session offered 24 bits a tick against `B_A` = 16 for 20 ticks.
/// The per-tick service is read back from the metered totals (integer
/// arrivals and power-of-two allocations keep them exact). Once every
/// bit has drained, the reported maximum delay must be the oracle's. A
/// threaded plane restarted from a checkpoint taken while those bits were
/// queued must report every session exactly as the inline plane does.
#[test]
fn control_plane_delay_matches_the_oracle_past_the_window() {
    use cdba_ctrl::{ControlPlane, ExecMode, ServiceConfig};
    let cfg = |exec: ExecMode| {
        ServiceConfig::builder(1024.0)
            .session_b_max(16.0)
            .group_b_o(8.0)
            .offline_delay(4)
            .window(4)
            .shards(1)
            .exec(exec)
            .checkpoint_every(8)
            .build()
            .expect("valid config")
    };
    let mut inline = ControlPlane::new(cfg(ExecMode::Inline));
    let mut threaded = ControlPlane::new(cfg(ExecMode::Threaded));
    let (hot, calm) = (inline.admit("acme").unwrap(), inline.admit("acme").unwrap());
    assert_eq!(threaded.admit("acme").unwrap(), hot);
    assert_eq!(threaded.admit("acme").unwrap(), calm);
    let (mut arrivals, mut served) = (Vec::new(), Vec::new());
    let mut total = 0.0;
    for t in 0..48u64 {
        let bits = if t < 20 { 24.0 } else { 0.0 };
        let batch = [(hot, bits), (calm, (t % 3) as f64)];
        inline.tick(&batch).unwrap();
        threaded.tick(&batch).unwrap();
        if t == 18 {
            // The tick-16 frame holds bits queued longer than the window
            // (in the spill); the restart lands it, then replays 16..=18.
            threaded.restart_shard(0).unwrap();
        }
        let snap = inline.snapshot().unwrap();
        let now = snap.sessions.iter().find(|m| m.session == hot).unwrap();
        arrivals.push(bits);
        served.push(now.total_served - total);
        total = now.total_served;
    }
    let snap = inline.snapshot().unwrap();
    let hot_metrics = snap.sessions.iter().find(|m| m.session == hot).unwrap();
    let trace = Trace::new(arrivals).unwrap();
    let oracle = oracle_max_delay(&trace, &served).expect("every bit drained");
    assert!(oracle > 4, "delay {oracle} stays inside the window");
    assert_eq!(hot_metrics.max_delay, oracle as u64);
    let restarted = threaded.snapshot().unwrap();
    assert_eq!(restarted.restarts, 1);
    assert_eq!(restarted.sessions, snap.sessions);
    inline.shutdown();
    threaded.shutdown();
}

/// Allocator trait object sanity used by this suite.
#[test]
fn playback_is_an_allocator_object() {
    let mut p = PlaybackAllocator::new(vec![1.0], "obj");
    let obj: &mut dyn Allocator = &mut p;
    assert_eq!(obj.on_tick(0.0), 1.0);
}
