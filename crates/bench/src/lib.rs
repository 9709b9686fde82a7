//! Shared fixtures for the criterion benches, the `repro` binary and the
//! release-only scale tests, plus the churn-replay workload ([`replay`])
//! shared by the `cdba-cli` serve/client/fleet subcommands and stackbench.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod replay;

use cdba_ctrl::{ControlPlane, ExecMode, ServiceConfig};
use cdba_traffic::models::{MmppParams, WorkloadKind};
use cdba_traffic::multi::rotating_hot;
use cdba_traffic::{conditioner, MultiTrace, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// The bench fixture's offline bandwidth.
pub const B_O: f64 = 64.0;
/// The bench fixture's offline delay (ticks).
pub const D_O: usize = 8;

/// A seeded MMPP trace scaled feasible for `(0.9·B_O, D_O)` — the standard
/// single-session bench input.
pub fn bench_trace(len: usize, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let raw = WorkloadKind::Mmpp(MmppParams::default())
        .generate(&mut rng, len)
        .expect("default parameters are valid");
    conditioner::scale_to_feasible(&raw, 0.9 * B_O, D_O)
        .expect("positive bandwidth")
        .pad_zeros(D_O)
}

/// The rotating-hot multi-session bench input.
pub fn bench_multi(k: usize, len: usize) -> MultiTrace {
    rotating_hot(k, 0.85 * B_O, 0.02 * B_O, 12 * D_O, len)
        .expect("valid adversary")
        .pad_zeros(D_O)
}

/// A control plane of `sessions` dedicated sessions on `shards` shards,
/// with the keys it admitted. The budget is sized to the population, so
/// every admit succeeds.
pub fn tick_service(
    sessions: usize,
    shards: usize,
    exec: ExecMode,
    depth: u32,
) -> (ControlPlane, Vec<u64>) {
    let cfg = ServiceConfig::builder(sessions as f64 * 16.0)
        .session_b_max(16.0)
        .group_b_o(8.0)
        .offline_delay(8)
        .window(16)
        .shards(shards)
        .exec(exec)
        .pipeline_depth(depth)
        .build()
        .expect("valid service config");
    let mut service = ControlPlane::new(cfg);
    let keys: Vec<u64> = (0..sessions)
        .map(|i| {
            service
                .admit(["alpha", "beta", "gamma"][i % 3])
                .expect("budget sized for the population")
        })
        .collect();
    (service, keys)
}

/// Drives `ticks` ticks of deterministic arrivals through the service.
/// `round` carries the arrival phase across calls so a warmup and a
/// measured pass see one continuous stream. The arrival pattern
/// `(round + i) mod 5` has period 5 in `round`, so the five distinct
/// batches are built once up front and a timed loop measures the
/// service, not the batch construction.
pub fn drive(service: &mut ControlPlane, keys: &[u64], ticks: u64, round: &mut u64) {
    let batches: Vec<Vec<(u64, f64)>> = (0..5u64)
        .map(|phase| {
            keys.iter()
                .enumerate()
                .map(|(i, &key)| (key, ((phase + i as u64) % 5) as f64))
                .collect()
        })
        .collect();
    for _ in 0..ticks {
        let batch = &batches[(*round % 5) as usize];
        service.tick(black_box(batch)).expect("keys are live");
        *round += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_feasible() {
        let t = bench_trace(2_000, 1);
        assert!(conditioner::is_feasible(&t, B_O, D_O));
        let m = bench_multi(4, 1_000);
        assert!(m.is_feasible(B_O, D_O));
    }
}
