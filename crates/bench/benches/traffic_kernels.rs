//! Substrate kernels: workload generation, Claim-9 feasibility (Kadane),
//! the demand bound, and FIFO delay measurement throughput.

use cdba_bench::replay::{workload_kind, ReplaySpec};
use cdba_bench::{bench_trace, B_O, D_O};
use cdba_sim::measure;
use cdba_traffic::models::{self, WorkloadKind};
use cdba_traffic::{conditioner, Trace};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators");
    let n = 16_384usize;
    group.throughput(Throughput::Elements(n as u64));
    for kind in [
        WorkloadKind::Poisson(Default::default()),
        WorkloadKind::OnOff(Default::default()),
        WorkloadKind::Mmpp(Default::default()),
        WorkloadKind::Pareto(Default::default()),
        WorkloadKind::Video(Default::default()),
    ] {
        group.bench_function(kind.name(), |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(1);
                black_box(kind.generate(&mut rng, n).expect("valid params"))
            })
        });
    }
    // Diurnal modulation on top of Poisson.
    group.bench_function("diurnal", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            black_box(
                models::diurnal(&mut rng, models::DiurnalParams::default(), n)
                    .expect("valid params"),
            )
        })
    });
    group.finish();
}

fn feasibility(c: &mut Criterion) {
    let mut group = c.benchmark_group("feasibility");
    for &n in &[4_096usize, 65_536] {
        let trace = bench_trace(n, 3);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("is_feasible", n), &trace, |b, t| {
            b.iter(|| black_box(conditioner::is_feasible(t, B_O, D_O)))
        });
        group.bench_with_input(BenchmarkId::new("demand_bound", n), &trace, |b, t| {
            b.iter(|| black_box(t.demand_bound(D_O)))
        });
    }
    // stackbench's input shapes: a 2,048-tick on/off row as the bank draws
    // it (the call `scale_to_feasible` makes), and the same row conditioned
    // to its bound and doubled — the bisection's probes land next to the
    // density.
    let spec = ReplaySpec {
        sessions: 1,
        ticks: 2_048,
        ..ReplaySpec::default()
    };
    let kind = workload_kind(&spec.model).expect("default model");
    let raw = kind
        .generate(&mut StdRng::seed_from_u64(spec.seed), spec.ticks as usize)
        .expect("valid params");
    let bank = spec.bank().expect("default spec is valid");
    let doubled = bank.session(0).concat(bank.session(0));
    for row in [raw, doubled] {
        group.throughput(Throughput::Elements(row.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("demand_bound_threshold", row.len()),
            &row,
            |b, t| b.iter(|| black_box(t.demand_bound(spec.d_o))),
        );
    }
    group.finish();
}

fn delay_measurement(c: &mut Criterion) {
    let mut group = c.benchmark_group("delay_measurement");
    for &n in &[4_096usize, 65_536] {
        let trace = bench_trace(n, 9);
        // A service curve that lags slightly behind the arrivals.
        let served: Vec<f64> = {
            let mut q = 0.0f64;
            let mut out = Vec::with_capacity(n + 64);
            for t in 0..n + 64 {
                q += trace.arrival(t);
                let s = q.min(0.95 * B_O);
                q -= s;
                out.push(s);
            }
            out
        };
        let padded = trace.pad_zeros(64);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(
            BenchmarkId::new("max_delay", n),
            &(padded, served),
            |b, (t, s)| b.iter(|| black_box(measure::max_delay(t, s))),
        );
    }
    group.finish();
}

fn trace_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_ops");
    let n = 65_536usize;
    let trace = bench_trace(n, 4);
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("construction", |b| {
        let arrivals = trace.arrivals().to_vec();
        b.iter(|| black_box(Trace::new(arrivals.clone()).expect("valid")))
    });
    group.bench_function("excess_over", |b| {
        b.iter(|| black_box(trace.excess_over(0.5 * B_O)))
    });
    // stackbench's bank shapes: a 2,048-tick on/off row scaled as
    // `scale_to_feasible` scales it, and the conditioned row doubled as
    // the harness doubles it.
    let spec = ReplaySpec {
        sessions: 1,
        ticks: 2_048,
        ..ReplaySpec::default()
    };
    let kind = workload_kind(&spec.model).expect("default model");
    let raw = kind
        .generate(&mut StdRng::seed_from_u64(spec.seed), spec.ticks as usize)
        .expect("valid params");
    let bank = spec.bank().expect("default spec is valid");
    let row = bank.session(0);
    let factor = row.total() / raw.total();
    group.throughput(Throughput::Elements(raw.len() as u64));
    group.bench_with_input(BenchmarkId::new("scale", raw.len()), &raw, |b, t| {
        b.iter(|| black_box(t.scale(factor).expect("finite factor")))
    });
    group.throughput(Throughput::Elements(2 * row.len() as u64));
    group.bench_with_input(BenchmarkId::new("concat", row.len()), row, |b, t| {
        b.iter(|| black_box(t.concat(t)))
    });
    group.finish();
}

criterion_group!(
    benches,
    generators,
    feasibility,
    delay_measurement,
    trace_ops
);
criterion_main!(benches);
