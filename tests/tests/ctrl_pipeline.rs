//! Determinism of the pipelined parallel tick executor: for any seeded
//! churn workload, `invariant_view()` must be **bitwise identical** across
//! the inline fallback, threaded execution at 1 and 4 shards, and
//! pipelined execution at depths 1 and 4 — and a run whose shard is
//! killed and recovered mid-stream must agree with all of them. Pipelining only changes how far dispatch runs ahead of
//! execution; it must never change a single bit of the results.

use cdba_ctrl::{ControlPlane, ExecMode, FaultPlan, GlobalMetrics, ServiceConfig, SessionMetrics};
use proptest::prelude::*;

const TICKS: u64 = 80;

fn config(
    shards: usize,
    exec: ExecMode,
    pipeline_depth: u32,
    fault: Option<FaultPlan>,
) -> ServiceConfig {
    let mut builder = ServiceConfig::builder(16384.0)
        .session_b_max(16.0)
        .group_b_o(8.0)
        .offline_delay(4)
        .window(8)
        .shards(shards)
        .exec(exec)
        .checkpoint_every(16)
        .pipeline_depth(pipeline_depth);
    if let Some(plan) = fault {
        builder = builder.fault(plan);
    }
    builder.build().expect("valid test config")
}

/// Drives a deterministic churn workload derived from `seed`: a mix of
/// dedicated sessions and one pooled group, a mid-run leave/admit swap,
/// two control bursts between ticks — one that fits a shard's 64-event
/// outbox and one that overflows it on every shard (admits, then leaves
/// of some of the sessions just admitted) — and LCG-generated arrivals.
/// Returns the placement-invariant view.
fn run_churn(
    mut service: ControlPlane,
    seed: u64,
    sessions: usize,
) -> (u64, GlobalMetrics, Vec<SessionMetrics>) {
    let mut rng = seed.wrapping_mul(2).wrapping_add(1);
    let mut next = move || {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        rng >> 33
    };
    let mut live: Vec<u64> = Vec::new();
    for i in 0..sessions {
        live.push(service.admit(["acme", "globex"][i % 2]).unwrap());
    }
    live.extend(service.admit_group("initech", 3).unwrap());
    for t in 0..TICKS {
        if t == TICKS / 2 {
            let gone = live.remove((next() as usize) % live.len());
            service.leave(gone).unwrap();
            live.push(service.admit("acme").unwrap());
        }
        let burst = match t {
            t if t == TICKS / 4 => 5 + next() as usize % 40,
            t if t == 3 * TICKS / 4 => 260 + next() as usize % 20,
            _ => 0,
        };
        for i in 0..burst {
            let key = service.admit(["acme", "globex"][i % 2]).unwrap();
            if i % 4 == 3 {
                service.leave(key).unwrap();
            } else {
                live.push(key);
            }
        }
        let arrivals: Vec<(u64, f64)> =
            live.iter().map(|&key| (key, (next() % 5) as f64)).collect();
        service.tick(&arrivals).unwrap();
    }
    let snapshot = service.snapshot().unwrap();
    service.shutdown();
    snapshot.invariant_view()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Inline fallback, threaded 1-shard, threaded 4-shard, and pipelined
    /// depths 1 and 4 all agree bitwise — including a run whose shard is
    /// killed mid-stream and recovered from checkpoint + journal replay.
    #[test]
    fn pipelined_execution_is_bitwise_deterministic(
        seed in 0u64..1_000_000,
        sessions in 2usize..7,
    ) {
        let reference = run_churn(
            ControlPlane::new(config(1, ExecMode::Inline, 4, None)),
            seed,
            sessions,
        );
        let inline4 = run_churn(
            ControlPlane::new(config(4, ExecMode::Inline, 4, None)),
            seed,
            sessions,
        );
        prop_assert_eq!(&reference, &inline4);
        let threaded1 = run_churn(
            ControlPlane::new(config(1, ExecMode::Threaded, 1, None)),
            seed,
            sessions,
        );
        prop_assert_eq!(&reference, &threaded1);
        let threaded1_deep = run_churn(
            ControlPlane::new(config(1, ExecMode::Threaded, 4, None)),
            seed,
            sessions,
        );
        prop_assert_eq!(&reference, &threaded1_deep);
        let threaded4_deep = run_churn(
            ControlPlane::new(config(4, ExecMode::Threaded, 4, None)),
            seed,
            sessions,
        );
        prop_assert_eq!(&reference, &threaded4_deep);
        // Kill a shard mid-run: past the first checkpoint, so recovery
        // combines a checkpoint restore with a journal replay — under an
        // active pipeline of unacked ticks.
        let kill_tick = 17 + seed % (TICKS / 2);
        let faulted = run_churn(
            ControlPlane::new(config(
                4,
                ExecMode::Threaded,
                4,
                Some(FaultPlan::kill((seed % 4) as usize, kill_tick)),
            )),
            seed,
            sessions,
        );
        prop_assert_eq!(&reference, &faulted);
    }
}

/// The snapshot cache returns identical results without recollecting, and
/// a mutation invalidates it.
#[test]
fn snapshot_cache_tracks_generations() {
    let mut service = ControlPlane::new(config(2, ExecMode::Threaded, 4, None));
    let a = service.admit("acme").unwrap();
    service.tick(&[(a, 1.0)]).unwrap();
    let first = service.snapshot_shared().unwrap();
    let second = service.snapshot_shared().unwrap();
    assert!(
        std::sync::Arc::ptr_eq(&first, &second),
        "unchanged plane must serve the cached snapshot"
    );
    service.tick(&[(a, 2.0)]).unwrap();
    let third = service.snapshot_shared().unwrap();
    assert!(
        !std::sync::Arc::ptr_eq(&second, &third),
        "a tick must invalidate the cache"
    );
    assert_eq!(third.ticks, 2);
    service.shutdown();
}
