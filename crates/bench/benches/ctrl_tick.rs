//! Pipelined-tick bench: throughput of the cdba-ctrl tick path across
//! executors, shard counts and pipeline depths at two populations — the
//! small one where inline wins (per-tick work is too small to amortize
//! cross-thread dispatch) and a larger one where sharding starts to pay.
//! The threaded-beats-inline property at 10 000 sessions is a release-only
//! test (`tests/tests/ctrl_scale.rs`); the whole stack is measured by
//! `benchmark/`.

use cdba_bench::{drive, tick_service};
use cdba_ctrl::ExecMode;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

const TICKS_PER_ITER: u64 = 64;
const SESSIONS: &[usize] = &[100, 1_000];

/// `(label, shards, exec, pipeline depth)`.
const CASES: &[(&str, usize, ExecMode, u32)] = &[
    ("inline/s1", 1, ExecMode::Inline, 1),
    ("threaded/s1/d4", 1, ExecMode::Threaded, 4),
    ("threaded/s4/d1", 4, ExecMode::Threaded, 1),
    ("threaded/s4/d4", 4, ExecMode::Threaded, 4),
];

fn ctrl_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("ctrl_tick");
    for &sessions in SESSIONS {
        for &(label, shards, exec, depth) in CASES {
            group.throughput(Throughput::Elements(sessions as u64 * TICKS_PER_ITER));
            group.bench_function(BenchmarkId::new(label, sessions), |b| {
                let (mut service, keys) = tick_service(sessions, shards, exec, depth);
                let mut round = 0u64;
                b.iter(|| drive(&mut service, &keys, TICKS_PER_ITER, &mut round));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, ctrl_tick);
criterion_main!(benches);
