//! Control-plane bench: tick throughput of the cdba-ctrl service across
//! shard counts and session populations.
//!
//! Each measurement drives an already-populated [`ControlPlane`] through a
//! fixed batch of ticks (the service is built outside the timed loop, so
//! admissions and thread spawns are not measured). Throughput is reported
//! in session-ticks: sessions × ticks advanced per iteration.
//! `admit_cold_100k` times what that leaves out: the admissions.

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

/// Admission as a cold burst: a fresh plane per iteration takes 100k
/// joins one `admit` at a time and one empty tick (the threaded
/// executor's sync point), so what is timed is the kernel state growing
/// from nothing — the cost `ctrl_service` above builds outside its loop.
fn admit_cold_100k(c: &mut Criterion) {
    const SESSIONS: usize = 100_000;
    let mut group = c.benchmark_group("admit_cold_100k");
    group.throughput(Throughput::Elements(SESSIONS as u64));
    for (name, exec) in [
        ("inline", ExecMode::Inline),
        ("threaded", ExecMode::Threaded),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let (mut service, _) = service(SESSIONS, 1, exec);
                service.tick(&[]).expect("an empty tick");
                service
            })
        });
    }
    group.finish();
}

criterion_group!(benches, ctrl_service, admit_cold_100k);
criterion_main!(benches);
