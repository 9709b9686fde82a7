//! The sessions × shards tick-throughput matrix shared by the
//! `ctrl_tick` criterion bench and the `cdba-cli bench-ctrl` subcommand.
//!
//! Both entry points must measure the *same* configurations the same way
//! for the committed `BENCH_ctrl.json` baseline to mean anything: one
//! populated control plane per (case, sessions) cell, arrivals built
//! outside the service, a warmup pass, then a wall-clock measured pass.
//! The sessions axis runs 100 → 100 000 with the measured tick count
//! scaled down as the population grows, so every cell does a comparable
//! amount of allocator work.
//!
//! The interesting shape of the matrix: at 100 sessions the inline
//! single-threaded backend wins (per-tick work is too small to amortize
//! cross-thread dispatch), while from 10 000 sessions up the threaded
//! 4-shard backend must win — the inversion the CI gate pins. That claim
//! only means something on parallel hardware, so [`tick_cases`] includes
//! the threaded rows only when the host has more than one core.

use cdba_ctrl::{CheckpointMirror, CheckpointProbe, ControlPlane, ExecMode, ServiceConfig};
use std::hint::black_box;
use std::time::Instant;

/// One benchmarked service configuration.
pub struct TickCase {
    /// Stable row label, e.g. `threaded/s4/d4`.
    pub label: &'static str,
    /// Shard count.
    pub shards: usize,
    /// Inline or threaded backend.
    pub exec: ExecMode,
    /// Pipeline depth (dispatched-but-unacked ticks in flight).
    pub depth: u32,
}

/// The standard benchmarked configurations *for this host*: the inline
/// baseline always; the threaded backends only on multi-core hosts. On
/// one core a worker thread has nothing to overlap against — every
/// threaded row would just pin a meaningless inversion into the
/// committed baseline.
pub fn tick_cases() -> Vec<TickCase> {
    let mut cases = vec![TickCase {
        label: "inline/s1",
        shards: 1,
        exec: ExecMode::Inline,
        depth: 1,
    }];
    if host_cores() > 1 {
        cases.extend([
            TickCase {
                label: "threaded/s1/d4",
                shards: 1,
                exec: ExecMode::Threaded,
                depth: 4,
            },
            TickCase {
                label: "threaded/s4/d1",
                shards: 4,
                exec: ExecMode::Threaded,
                depth: 1,
            },
            TickCase {
                label: "threaded/s4/d4",
                shards: 4,
                exec: ExecMode::Threaded,
                depth: 4,
            },
        ]);
    }
    cases
}

/// The standard session-population axis of the committed baseline.
pub const SESSIONS_AXIS: &[usize] = &[100, 1_000, 10_000, 100_000];

/// Measured ticks for a population size: scaled down as sessions grow so
/// every cell drives a comparable number of session-ticks.
pub fn measured_ticks(sessions: usize) -> u64 {
    match sessions {
        0..=100 => 2_048,
        101..=1_000 => 1_024,
        1_001..=10_000 => 512,
        _ => 128,
    }
}

/// Warmup ticks for a population size (an eighth of the measured pass).
pub fn warmup_ticks(sessions: usize) -> u64 {
    (measured_ticks(sessions) / 8).max(8)
}

/// Builds and populates the control plane for one matrix cell. The
/// budget is sized to the population, so every admit succeeds.
pub fn tick_service(case: &TickCase, sessions: usize) -> (ControlPlane, Vec<u64>) {
    let cfg = ServiceConfig::builder(sessions as f64 * 16.0)
        .session_b_max(16.0)
        .group_b_o(8.0)
        .offline_delay(8)
        .window(16)
        .shards(case.shards)
        .exec(case.exec)
        .pipeline_depth(case.depth)
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
/// `round` carries the arrival phase across calls so warmup and measured
/// passes see a continuous stream. The arrival pattern
/// `(round + i) mod 5` has period 5 in `round`, so the five distinct
/// batches are built once up front and the timed loop measures the
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

/// One measured matrix cell, ready to serialize into `BENCH_ctrl.json`.
#[derive(Debug, Clone)]
pub struct TickMeasurement {
    /// The case's row label.
    pub label: &'static str,
    /// Session population.
    pub sessions: usize,
    /// Shard count.
    pub shards: usize,
    /// `"inline"` or `"threaded"`.
    pub exec: &'static str,
    /// Pipeline depth.
    pub depth: u32,
    /// Measured ticks.
    pub ticks: u64,
    /// Wall-clock seconds for the measured pass.
    pub elapsed_sec: f64,
    /// Ticks per second.
    pub ticks_per_sec: f64,
}

impl TickMeasurement {
    /// The `BENCH_ctrl.json` row for this cell.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "label": self.label,
            "sessions": self.sessions,
            "shards": self.shards,
            "exec": self.exec,
            "pipeline_depth": self.depth,
            "ticks": self.ticks,
            "elapsed_sec": self.elapsed_sec,
            "ticks_per_sec": self.ticks_per_sec,
            "session_ticks_per_sec": self.ticks_per_sec * self.sessions as f64,
        })
    }
}

/// Measures one (case, sessions) cell: populate, warm up, then time a
/// measured pass. `warmup`/`measured` default to the standard scaled
/// counts when `None` (the CLI overrides them for quick smoke runs).
pub fn measure_cell(
    case: &TickCase,
    sessions: usize,
    warmup: Option<u64>,
    measured: Option<u64>,
) -> TickMeasurement {
    let warmup = warmup.unwrap_or_else(|| warmup_ticks(sessions));
    let measured = measured.unwrap_or_else(|| measured_ticks(sessions));
    let (mut service, keys) = tick_service(case, sessions);
    let mut round = 0u64;
    drive(&mut service, &keys, warmup, &mut round);
    let started = Instant::now();
    drive(&mut service, &keys, measured, &mut round);
    let elapsed = started.elapsed().as_secs_f64();
    service.shutdown();
    let ticks_per_sec = if elapsed > 0.0 {
        measured as f64 / elapsed
    } else {
        f64::INFINITY
    };
    TickMeasurement {
        label: case.label,
        sessions,
        shards: case.shards,
        exec: match case.exec {
            ExecMode::Inline => "inline",
            ExecMode::Threaded => "threaded",
        },
        depth: case.depth,
        ticks: measured,
        elapsed_sec: elapsed,
        ticks_per_sec,
    }
}

/// Runs the full matrix: every standard case over `sessions_list`,
/// reporting progress through `progress`. The returned rows are in
/// (sessions, case) order — the order `BENCH_ctrl.json` commits.
pub fn run_matrix(
    sessions_list: &[usize],
    warmup: Option<u64>,
    measured: Option<u64>,
    mut progress: impl FnMut(&TickMeasurement),
) -> Vec<TickMeasurement> {
    let cases = tick_cases();
    let mut rows = Vec::with_capacity(sessions_list.len() * cases.len());
    for &sessions in sessions_list {
        for case in &cases {
            let row = measure_cell(case, sessions, warmup, measured);
            progress(&row);
            rows.push(row);
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Checkpoint codec matrix
// ---------------------------------------------------------------------------

/// The population axis of the committed checkpoint rows. It runs an
/// order of magnitude past the tick matrix because the columnar codec's
/// claims are about scale: a 1M-session frame must encode and restore
/// inside the CI wall-clock ceiling.
pub const CHECKPOINT_SESSIONS_AXIS: &[usize] = &[10_000, 100_000, 1_000_000];

/// One measured checkpoint cell, ready to serialize into the
/// `checkpoint` section of `BENCH_ctrl.json`.
#[derive(Debug, Clone)]
pub struct CheckpointMeasurement {
    /// Session population on the probe shard.
    pub sessions: usize,
    /// Wall-clock milliseconds for a warm full-population frame encode.
    pub encode_ms: f64,
    /// Wall-clock milliseconds to rebuild a fresh mirror from the frame.
    /// Cold: dominated by first-touch page faults on the mirror's slab,
    /// so it scales with the host's memory subsystem as much as with the
    /// codec.
    pub restore_ms: f64,
    /// Wall-clock milliseconds to re-apply the frame onto the
    /// already-populated mirror — the steady-state decode into
    /// preallocated columns, with zero per-session heap allocation. This
    /// is the codec's own speed, free of the cold slab's fault noise.
    pub restore_warm_ms: f64,
    /// Frame size in bytes: deterministic codec output.
    pub checkpoint_bytes: usize,
}

impl CheckpointMeasurement {
    /// The `BENCH_ctrl.json` checkpoint row for this cell.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "sessions": self.sessions,
            "checkpoint_encode_ms": self.encode_ms,
            "restore_ms": self.restore_ms,
            "restore_warm_ms": self.restore_warm_ms,
            "checkpoint_bytes": self.checkpoint_bytes,
        })
    }
}

/// The service config the checkpoint cells run. Narrower window than the
/// tick matrix so a 1M-session slab (probe + mirror + frame all resident
/// at once) stays comfortably inside CI memory.
pub fn checkpoint_config(sessions: usize) -> ServiceConfig {
    ServiceConfig::builder(sessions as f64 * 16.0)
        .session_b_max(16.0)
        .group_b_o(8.0)
        .offline_delay(4)
        .window(8)
        .build()
        .expect("valid service config")
}

/// Measures one checkpoint cell: populate a probe shard, meter a few
/// ticks of history into the rings, then time a warm frame encode, a
/// fresh-mirror restore and a warm re-apply.
pub fn measure_checkpoint(sessions: usize) -> CheckpointMeasurement {
    let cfg = checkpoint_config(sessions);
    let mut probe = CheckpointProbe::new(&cfg);
    probe.populate(sessions);
    probe.tick(4);
    let mut genesis = Vec::new();
    // First encode grows the pooled column buffers; the measured pass is
    // the steady-state (allocation-free) one, like a live worker's.
    probe.encode(true, &mut genesis);
    let started = Instant::now();
    let rows = probe.encode(true, black_box(&mut genesis));
    let encode_ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(rows as usize, sessions, "a frame carries the population");

    let mut mirror = CheckpointMirror::new(&cfg);
    let started = Instant::now();
    mirror.apply(&genesis).expect("the frame applies");
    let restore_ms = started.elapsed().as_secs_f64() * 1e3;
    // Warm pass: the mirror's slab is already sized, so this is the
    // decode alone — no per-session allocation, no first-touch faults.
    let started = Instant::now();
    mirror.apply(&genesis).expect("the frame re-applies warm");
    let restore_warm_ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(mirror.live_sessions(), sessions);

    CheckpointMeasurement {
        sessions,
        encode_ms,
        restore_ms,
        restore_warm_ms,
        checkpoint_bytes: genesis.len(),
    }
}

/// Runs the checkpoint axis, reporting progress through `progress`.
pub fn run_checkpoint_matrix(
    sessions_list: &[usize],
    mut progress: impl FnMut(&CheckpointMeasurement),
) -> Vec<CheckpointMeasurement> {
    sessions_list
        .iter()
        .map(|&sessions| {
            let row = measure_checkpoint(sessions);
            progress(&row);
            row
        })
        .collect()
}

/// Renders matrix rows as the `BENCH_ctrl.json` document. The measuring
/// host's core count is recorded because the matrix's headline property —
/// threaded/4-shard overtaking inline at ≥ 10 000 sessions — is a
/// statement about parallel hardware: on a single-core host the threaded
/// backends pay dispatch overhead with nothing to overlap against, and
/// the inversion gate reads `cores` to know whether the comparison is
/// meaningful. The checkpoint rows live in their own `checkpoint` list
/// (they carry different columns, and the tick-matrix gates must not
/// trip over them); an empty slice omits nothing — the section is always
/// present so gates can tell "not measured this run" from "file predates
/// the bench".
pub fn matrix_report(
    rows: &[TickMeasurement],
    checkpoint: &[CheckpointMeasurement],
) -> serde_json::Value {
    serde_json::json!({
        "bench": "ctrl_tick",
        "cores": host_cores(),
        "results": rows.iter().map(TickMeasurement::to_json).collect::<Vec<_>>(),
        "checkpoint": checkpoint
            .iter()
            .map(CheckpointMeasurement::to_json)
            .collect::<Vec<_>>(),
    })
}

/// The measuring host's available parallelism.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_ticks_scale_down_with_population() {
        let scaled: Vec<u64> = SESSIONS_AXIS.iter().map(|&s| measured_ticks(s)).collect();
        assert_eq!(scaled, vec![2_048, 1_024, 512, 128]);
        assert!(scaled.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn a_tiny_cell_measures_and_reports() {
        let row = measure_cell(&tick_cases()[0], 8, Some(4), Some(16));
        assert_eq!(row.label, "inline/s1");
        assert_eq!(row.sessions, 8);
        assert_eq!(row.ticks, 16);
        assert!(row.ticks_per_sec > 0.0);
        let ckpt = measure_checkpoint(8);
        let doc = matrix_report(std::slice::from_ref(&row), std::slice::from_ref(&ckpt));
        let body = serde_json::to_string(&doc).expect("report renders");
        assert!(body.contains("\"label\":\"inline/s1\""), "body: {body}");
        assert!(body.contains("\"sessions\":8"), "body: {body}");
        assert!(body.contains("\"checkpoint_bytes\""), "body: {body}");
    }
}
