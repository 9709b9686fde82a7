//! Pipelined-tick bench: throughput of the cdba-ctrl tick path across
//! pipeline depths and session populations, plus a machine-readable
//! `BENCH_ctrl.json` report.
//!
//! The criterion pass compares the inline single-threaded baseline
//! against the threaded backends at two population sizes — the small one
//! where inline wins (per-tick work is too small to amortize cross-thread
//! dispatch) and a larger one where sharding starts to pay. The full
//! sessions × shards matrix (100 → 100 000 sessions) lives in
//! [`cdba_bench::matrix`], shared with `cdba-cli bench-ctrl`.
//!
//! Unlike the other benches this one has a custom `main`: after the
//! criterion run it re-measures the whole matrix with plain wall-clock
//! loops and writes `BENCH_ctrl.json` at the workspace root — the
//! committed baseline the CI bench-smoke job gates against, including the
//! inline-vs-threaded inversion at ≥ 10 000 sessions. The JSON pass is
//! skipped in `--test` (smoke) mode.

use cdba_bench::matrix;
use criterion::{BenchmarkId, Criterion, Throughput};

const TICKS_PER_ITER: u64 = 64;
const CRITERION_SESSIONS: &[usize] = &[100, 1_000];

fn ctrl_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("ctrl_tick");
    let cases = matrix::tick_cases();
    for &sessions in CRITERION_SESSIONS {
        for case in &cases {
            group.throughput(Throughput::Elements(sessions as u64 * TICKS_PER_ITER));
            let id = BenchmarkId::new(case.label, sessions);
            group.bench_with_input(id, case, |b, case| {
                let (mut service, keys) = matrix::tick_service(case, sessions);
                let mut round = 0u64;
                b.iter(|| matrix::drive(&mut service, &keys, TICKS_PER_ITER, &mut round));
            });
        }
    }
    group.finish();
}

/// Wall-clock pass producing the committed `BENCH_ctrl.json` baseline.
fn write_report() -> Result<(), String> {
    let rows = matrix::run_matrix(matrix::SESSIONS_AXIS, None, None, |row| {
        println!(
            "{:>16} × {:>6} sessions: {:.0} ticks/s",
            row.label, row.sessions, row.ticks_per_sec
        );
    });
    let checkpoint = matrix::run_checkpoint_matrix(matrix::CHECKPOINT_SESSIONS_AXIS, |row| {
        println!(
            "checkpoint × {:>7} sessions: encode {:.1} ms, restore {:.1} ms \
             (warm {:.1} ms), {} B",
            row.sessions, row.encode_ms, row.restore_ms, row.restore_warm_ms, row.checkpoint_bytes
        );
    });
    let report = matrix::matrix_report(&rows, &checkpoint);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ctrl.json");
    let body = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    std::fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

fn main() {
    let mut criterion = Criterion::default();
    ctrl_tick(&mut criterion);
    if !std::env::args().skip(1).any(|a| a == "--test") {
        if let Err(e) = write_report() {
            eprintln!("ctrl_tick report failed: {e}");
            std::process::exit(1);
        }
    }
}
