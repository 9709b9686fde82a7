//! Control-plane bench: tick throughput of the cdba-ctrl service across
//! shard counts and session populations.
//!
//! Each measurement drives an already-populated [`ControlPlane`] through a
//! fixed batch of ticks (the service is built outside the timed loop, so
//! admissions and thread spawns are not measured). Throughput is reported
//! in session-ticks: sessions × ticks advanced per iteration.
//! `admit_cold_100k` times what that leaves out: the admissions — until
//! `admit` has returned for the last of them; `admit_then_sync_100k` until
//! a shard has applied them, which no amount of deferral shortens.

use cdba_ctrl::{ControlPlane, ExecMode, ServiceConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

const TICKS_PER_ITER: u64 = 64;

fn service(sessions: usize, shards: usize, exec: ExecMode) -> (ControlPlane, Vec<u64>) {
    let cfg = ServiceConfig::builder(sessions as f64 * 16.0)
        .session_b_max(16.0)
        .group_b_o(8.0)
        .offline_delay(8)
        .window(16)
        .shards(shards)
        .exec(exec)
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

fn drive(service: &mut ControlPlane, keys: &[u64], round: &mut u64) {
    let mut arrivals = Vec::with_capacity(keys.len());
    for _ in 0..TICKS_PER_ITER {
        arrivals.clear();
        for (i, &key) in keys.iter().enumerate() {
            arrivals.push((key, ((*round + i as u64) % 5) as f64));
        }
        service.tick(black_box(&arrivals)).expect("keys are live");
        *round += 1;
    }
}

fn ctrl_service(c: &mut Criterion) {
    let mut group = c.benchmark_group("ctrl_service");
    for &sessions in &[10usize, 100, 1_000] {
        for &shards in &[1usize, 2, 4, 8] {
            group.throughput(Throughput::Elements(sessions as u64 * TICKS_PER_ITER));
            let id = BenchmarkId::new(format!("threaded/s{shards}"), sessions);
            group.bench_with_input(id, &sessions, |b, &sessions| {
                let (mut service, keys) = service(sessions, shards, ExecMode::Threaded);
                let mut round = 0u64;
                b.iter(|| drive(&mut service, &keys, &mut round));
            });
        }
        // The single-threaded fallback at one shard, as the no-channel
        // baseline the threaded numbers are read against.
        group.throughput(Throughput::Elements(sessions as u64 * TICKS_PER_ITER));
        let id = BenchmarkId::new("inline/s1", sessions);
        group.bench_with_input(id, &sessions, |b, &sessions| {
            let (mut service, keys) = service(sessions, 1, ExecMode::Inline);
            let mut round = 0u64;
            b.iter(|| drive(&mut service, &keys, &mut round));
        });
    }
    group.finish();
}

const COLD_SESSIONS: usize = 100_000;

/// One cold-burst row per executor: `finish` runs on the freshly admitted
/// plane inside the timed iteration.
fn cold_burst(c: &mut Criterion, name: &str, finish: fn(&mut ControlPlane)) {
    let mut group = c.benchmark_group(name);
    group.throughput(Throughput::Elements(COLD_SESSIONS as u64));
    for (name, exec) in [
        ("inline", ExecMode::Inline),
        ("threaded", ExecMode::Threaded),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let (mut service, _) = service(COLD_SESSIONS, 1, exec);
                finish(&mut service);
                service
            })
        });
    }
    group.finish();
}

/// Admission as a cold burst: a fresh plane per iteration takes 100k
/// joins one `admit` at a time and dispatches one empty tick. On the
/// threaded executor that tick is pipelined — it returns once it is sent,
/// not once it is applied — so this row times the driver: how long the
/// caller of `admit` is held, with the kernel state growing from nothing
/// beside it. Inline, the two are the same thing.
fn admit_cold_100k(c: &mut Criterion) {
    cold_burst(c, "admit_cold_100k", |service| {
        service.tick(&[]).expect("an empty tick");
    });
}

/// The same burst up to a real sync point: `snapshot_shared` returns only
/// after the shard has applied every join. The row deferral cannot
/// flatter — work moved off the driver still has to finish inside it.
fn admit_then_sync_100k(c: &mut Criterion) {
    cold_burst(c, "admit_then_sync_100k", |service| {
        black_box(service.snapshot_shared().expect("a healthy plane"));
    });
}

criterion_group!(benches, ctrl_service, admit_cold_100k, admit_then_sync_100k);
criterion_main!(benches);
