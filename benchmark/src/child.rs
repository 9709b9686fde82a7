//! One pass of one workload, in a process of its own so that `VmHWM` is
//! the workload's and set-up starts from a cold process. Prints one JSON
//! object on stdout for the orchestrating parent.

use crate::affinity;
use crate::checks::{self, Check};
use crate::drive::{self, Outcome, RunCfg};
use crate::inputs::{Inputs, Kind, Scale, Shape, DEFAULT_SEED};
use crate::layers;
use crate::spans::{self, Tracer};
use crate::stats;
use cdba_gateway::GatewaySnapshot;
use serde_json::{json, Map, Value};
use std::path::PathBuf;
use std::time::Instant;

/// Everything the parent tells a child.
pub struct ChildArgs {
    pub kind: Kind,
    pub scale: Scale,
    pub seed: u64,
    pub seconds: f64,
    /// Measure at least this many ticks; 0 = the workload's scripted count.
    pub min_ticks: u64,
    pub traced: bool,
    pub setup_only: bool,
    pub cli: PathBuf,
    /// Where `expected.json` lives and `out/` goes.
    pub home: PathBuf,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn median_u64(values: &[u64]) -> f64 {
    let as_f64: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    stats::median(&as_f64).unwrap_or(0.0)
}

/// The eight end-to-end values of one pass. A workload with no forced
/// failure has no `recover_ms`.
fn end_to_end(out: &Outcome, inputs: &Inputs) -> Map {
    let shape = &inputs.shape;
    let mut e = Map::new();
    e.insert("setup_s", json!(out.setup_s));
    if let Some(tick_us) = window_tick_us(out) {
        e.insert(
            "session_ticks_per_s",
            json!(out.live as f64 / tick_us * 1e6),
        );
    }
    if !out.rtt_ns.is_empty() {
        let mut sorted = out.rtt_ns.clone();
        sorted.sort_unstable();
        e.insert(
            "tick_rtt_p50_us",
            json!(us(stats::percentile_sorted(&sorted, 0.50))),
        );
        e.insert(
            "tick_rtt_p99_us",
            json!(us(stats::percentile_sorted(&sorted, 0.99))),
        );
    }
    if let Some(ms) = stats::median(&out.recover_ms) {
        e.insert("recover_ms", json!(ms));
    }
    if let Some(ms) = stats::median(&out.poll_ms) {
        e.insert("snapshot_poll_ms", json!(ms));
    }
    e.insert("peak_rss_mb", json!(out.peak_rss_mb));
    if let Some((m, snap)) = &out.pin {
        // The population is constant, so session-ticks are a product.
        let session_ticks = (out.live * shape.ticks_at(*m)) as f64;
        e.insert(
            "changes_per_ksession_tick",
            json!(snap.global.changes as f64 / session_ticks * 1e3),
        );
    }
    e
}

/// Measured wall time per measured tick, µs: the whole window from its
/// opening to the last tick's ack, with the generator gap, churn
/// operations, polls and forced failures in it.
fn window_tick_us(out: &Outcome) -> Option<f64> {
    let end = *out.tick_end_ns.last()?;
    Some(us(end - out.window_start_ns) / out.tick_end_ns.len() as f64)
}

/// `(untraced, traced)` throughput of a traced pass, for
/// `trace.overhead_pct`: the median session-ticks/s over the 8-tick slices
/// (everything between their acks included; a short last one is dropped)
/// of the untraced and of the traced blocks, so that a poll or a forced
/// failure landing on one side does not pass for tracing cost. A block is
/// a whole number of slices, so no slice straddles the two.
fn block_rates(out: &Outcome) -> Option<(f64, f64)> {
    const SLICE: usize = 8;
    const _: () = assert!(drive::TRACE_BLOCK.is_multiple_of(SLICE));
    let mut rates: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut from_ns = out.window_start_ns;
    for (c, slice) in out.tick_end_ns.chunks_exact(SLICE).enumerate() {
        let to_ns = slice[SLICE - 1];
        let secs = (to_ns - from_ns).max(1) as f64 / 1e9;
        rates[usize::from(drive::traced_tick(c * SLICE))]
            .push((SLICE as u64 * out.live) as f64 / secs);
        from_ns = to_ns;
    }
    Some((stats::median(&rates[0])?, stats::median(&rates[1])?))
}

/// One ledger row per boundary, innermost first.
fn ledger(rows: &[(&str, f64)], sessions: f64) -> Vec<Value> {
    let mut out = Vec::new();
    let mut beneath: Option<(&str, f64)> = None;
    for &(boundary, tick_us) in rows {
        let rate = sessions / tick_us * 1e6;
        let mut row = Map::new();
        row.insert("boundary", json!(boundary));
        row.insert("tick_us", json!(tick_us));
        row.insert("session_ticks_per_s", json!(rate));
        if let Some((name, under_us)) = beneath {
            row.insert("self_us_per_tick", json!(tick_us - under_us));
            row.insert("slowdown", json!(tick_us / under_us));
            row.insert("slowdown_base", json!(name));
        }
        out.push(Value::Object(row));
        beneath = Some((boundary, tick_us));
    }
    out
}

/// The traced pass's per-layer numbers and ledger rows. Layers a workload
/// does not cross are left out here and reported as 0 by the parent.
fn per_layer(
    out: &Outcome,
    inputs: &Inputs,
    cfg: &RunCfg,
    replay: &layers::Replay,
    tracer: &Tracer,
    e2e: &Map,
) -> Result<(Map, Vec<Value>), String> {
    let shape = &inputs.shape;
    let kind = shape.kind;
    let sessions = shape.sessions() as f64;
    let service = shape.service(cfg.seed, false);
    let span_totals = spans::totals_by_name(tracer.spans());
    let span_self_us = |name: &str| {
        span_totals
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / 1e3 / t.count.max(1) as f64)
    };
    let mut l = Map::new();
    let rtt_p50 = e2e
        .get("tick_rtt_p50_us")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);

    l.insert("traffic.bank_gen_ms", json!(inputs.bank_gen_ms));
    let single_ns = layers::core_single_step_ns(inputs, &service);
    l.insert("core.single_step_ns", json!(single_ns));
    let mut core_tick_us = single_ns * shape.dedicated as f64 / 1e3;
    if shape.pooled > 0 {
        let pool_ns = layers::core_pool_step_ns(inputs, &service);
        l.insert("core.pool_step_ns", json!(pool_ns));
        core_tick_us += pool_ns * shape.pooled as f64 / 1e3;
    }
    l.insert(
        "ctrl.admission.request_ns",
        json!(layers::admission_request_ns(&service)),
    );
    l.insert("ctrl.service.admit_us", json!(replay.admit_us));
    l.insert("ctrl.service.leave_admit_us", json!(replay.leave_admit_us));
    let sweep_ns = layers::shard_sweep_ns(&service, shape.sessions());
    l.insert("ctrl.shard.sweep_ns_per_session_tick", json!(sweep_ns));
    let service_tick_us = us(median_u64(&replay.tick_ns) as u64);
    l.insert("ctrl.service.tick_us", json!(service_tick_us));
    l.insert(
        "ctrl.service.session_ticks_per_s",
        json!(replay.session_ticks_per_s),
    );
    l.insert("ctrl.service.snapshot_ms", json!(replay.snapshot_ms));

    let window_tick_us = window_tick_us(out).unwrap_or(0.0);
    let mut rows = vec![
        ("core", core_tick_us),
        ("ctrl.shard", sweep_ns * sessions / 1e3),
        ("ctrl.service", service_tick_us),
    ];

    match kind {
        Kind::Dense | Kind::Lean | Kind::Churn => {
            let proto = layers::proto_numbers(inputs)?;
            l.insert(
                "gateway.proto.encode_ns_per_arrival",
                json!(proto.encode_ns_per_arrival),
            );
            l.insert(
                "gateway.proto.decode_ns_per_arrival",
                json!(proto.decode_ns_per_arrival),
            );
            l.insert(
                "gateway.proto.bytes_per_arrival",
                json!(proto.bytes_per_arrival),
            );
            l.insert("gateway.client.join_us", json!(out.admit_us));
            l.insert(
                "gateway.client.stage_us",
                json!(span_self_us("client.stage")),
            );
            l.insert(
                "gateway.client.commit_wait_us",
                json!(span_self_us("client.commit_wait")),
            );
            let wire = out.wire.as_ref().ok_or("wire pass without wire stats")?;
            l.insert("gateway.server.frames_in", json!(wire.frames_in));
            l.insert("gateway.server.frames_out", json!(wire.frames_out));
            l.insert("gateway.server.requests", json!(wire.requests));
            l.insert("gateway.server.decode_errors", json!(wire.decode_errors));
            l.insert(
                "gateway.server.busy_rejections",
                json!(wire.busy_rejections),
            );
            l.insert("gateway.server.request_p50_us", json!(wire.latency_p50_us));
            l.insert("gateway.server.request_p99_us", json!(wire.latency_p99_us));
            l.insert("gateway.hop_us", json!(rtt_p50 - service_tick_us));
            let (_, last) = out.last.as_ref().ok_or("wire pass without a snapshot")?;
            let snap = GatewaySnapshot {
                service: (**last).clone(),
                wire: wire.clone(),
            };
            let (enc, dec, bytes) = layers::snapshot_codec(&snap)?;
            l.insert("gateway.codec.snapshot_encode_ms", json!(enc));
            l.insert("gateway.codec.snapshot_decode_ms", json!(dec));
            l.insert("gateway.codec.snapshot_bytes", json!(bytes));
            if kind == Kind::Dense {
                let (pct, render_ms) = layers::obs_overhead(inputs, cfg.seed)?;
                l.insert("obs.attached_tick_overhead_pct", json!(pct));
                l.insert("obs.render_ms", json!(render_ms));
            }
            rows.push(("gateway loopback", rtt_p50));
        }
        Kind::Recover => {
            // The i-th measured tick lands on a checkpoint when the
            // service's tick count after it is a multiple of 64.
            let p50_where = |on_checkpoint: bool| {
                let picked: Vec<u64> = (1u64..)
                    .zip(&out.rtt_ns)
                    .filter(|(m, _)| shape.ticks_at(*m).is_multiple_of(64) == on_checkpoint)
                    .map(|(_, &ns)| ns)
                    .collect();
                us(median_u64(&picked) as u64)
            };
            l.insert("ctrl.exec.threaded_tick_us", json!(p50_where(false)));
            l.insert("ctrl.exec.checkpoint_tick_us", json!(p50_where(true)));
            // The one scalar: the slowest restart of the cadence, the one
            // with the longest chain to apply. The whole series is in the
            // ledger.
            let slowest = out.restart_ms.iter().copied().fold(0.0, f64::max);
            l.insert("ctrl.exec.restart_ms_by_chain_len", json!(slowest));
            l.insert("ctrl.exec.events_replayed", json!(out.replayed));
            let codec = layers::codec_and_mirror(&shape.service(cfg.seed, true), shape.sessions())?;
            l.insert(
                "ctrl.codec.genesis_encode_ms",
                json!(codec.genesis_encode_ms),
            );
            l.insert("ctrl.codec.incr_encode_ms", json!(codec.incr_encode_ms));
            l.insert("ctrl.codec.genesis_bytes", json!(codec.genesis_bytes));
            l.insert(
                "ctrl.codec.bytes_per_dirty_session",
                json!(codec.bytes_per_dirty_session),
            );
            l.insert("ctrl.mirror.apply_cold_ms", json!(codec.apply_cold_ms));
            l.insert("ctrl.mirror.apply_warm_ms", json!(codec.apply_warm_ms));
            rows.push(("ctrl.exec threaded", rtt_p50));
        }
        Kind::Fleet => {
            let direct_us = layers::fleet_direct_tick_us(inputs, cfg)?;
            l.insert("fleet.admit_us", json!(out.admit_us));
            l.insert("fleet.tick_us", json!(rtt_p50));
            l.insert("fleet.direct_tick_us", json!(direct_us));
            l.insert("fleet.relay.hop_us", json!(rtt_p50 - direct_us));
            l.insert(
                "fleet.snapshot_ms",
                json!(out.poll_ms.last().copied().unwrap_or(0.0)),
            );
            l.insert("fleet.replay_ops", json!(out.replayed));
            rows.push(("gateway loopback (fleet, no relay)", direct_us));
            rows.push(("relay", rtt_p50));
        }
    }
    rows.push(("end to end (polls, churn, failures)", window_tick_us));

    if let Some((plain, traced)) = block_rates(out) {
        l.insert(
            "trace.overhead_pct",
            json!((plain - traced) / plain * 100.0),
        );
    }
    Ok((l, ledger(&rows, sessions)))
}

/// Runs the pass and returns the JSON the parent reads.
fn pass(args: &ChildArgs, started: Instant) -> Result<Value, String> {
    // Before any thread or fleet process exists, so that all inherit it.
    let cpus = if args.kind.one_cpu() {
        vec![affinity::pin_to_last_allowed()?]
    } else {
        affinity::allowed()?
    };
    let shape = Shape::of(args.kind, args.scale);
    let cfg = RunCfg {
        seed: args.seed,
        started,
        seconds: args.seconds,
        min_ticks: if args.min_ticks > 0 {
            args.min_ticks
        } else {
            shape.ticks
        },
        traced: args.traced,
        setup_only: args.setup_only,
        cli: args.cli.clone(),
    };
    let inputs = Inputs::generate(shape, args.seed)?;
    let shape = &inputs.shape;
    let mut tracer = Tracer::new();
    let mut out = drive::run(&inputs, &cfg, &mut tracer)?;
    let mut result = Map::new();
    result.insert("workload", json!(args.kind.name()));
    result.insert("seed", json!(args.seed));
    result.insert("cpus", json!(cpus));
    if args.setup_only {
        result.insert("setup_s", json!(out.setup_s));
        result.insert("attempted", json!(out.ops.attempted));
        result.insert("failed", json!(out.ops.failed));
        return Ok(Value::Object(result));
    }

    // The in-process replay of the same script: always for the fleet
    // (cheap at 2k sessions, and the only source of its pin snapshot),
    // and on every traced pass.
    let (last_m, last) = out.last.clone().ok_or("pass ended without a snapshot")?;
    let mut replay = None;
    if args.traced || args.kind == Kind::Fleet {
        let stops: Vec<u64> = if shape.pin < last_m {
            vec![shape.pin, last_m]
        } else {
            vec![last_m]
        };
        let r = layers::replay_in_process(&inputs, args.seed, &stops)?;
        let replayed_last = r.snapshots.last().expect("one snapshot per stop");
        out.checks.push(Check::equal(
            "replay_digest",
            format!("{:016x}", checks::digest(&last)),
            format!("{:016x}", checks::digest(replayed_last)),
        ));
        if out.pin.is_none() && shape.pin <= last_m {
            out.pin = Some((shape.pin, r.snapshots[0].clone()));
        }
        replay = Some(r);
    }

    match &out.pin {
        Some((m, snap)) => {
            out.checks.extend(checks::check_snapshot(snap, &inputs, *m));
            if args.seed == DEFAULT_SEED {
                // A missing file pins nothing: the check fails and says so.
                let file = std::fs::read_to_string(args.home.join("expected.json"))
                    .ok()
                    .and_then(|text| serde_json::from_str::<Value>(&text).ok())
                    .unwrap_or_default();
                let want = checks::expected(&file, args.scale, args.kind.name());
                out.checks.push(checks::check_pinned(snap, want));
            }
        }
        None => out.checks.push(Check::new(
            "pin_reached",
            false,
            format!("no snapshot at measured tick {}", shape.pin),
        )),
    }
    if out.pin.as_ref().is_none_or(|(m, _)| *m != last_m) {
        out.checks
            .extend(checks::check_snapshot(&last, &inputs, last_m));
    }

    let e2e = end_to_end(&out, &inputs);
    if let (true, Some(replay)) = (args.traced, &replay) {
        let (layers, ledger) = per_layer(&out, &inputs, &cfg, replay, &tracer, &e2e)?;
        result.insert("layers", Value::Object(layers));
        result.insert("ledger", Value::Array(ledger));
        result.insert("restart_ms", json!(out.restart_ms));
        let dir = args.home.join("out");
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let path = dir.join(format!("trace-{}.jsonl", args.kind.name()));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let by_name = spans::totals_by_name(tracer.spans());
        let mut spans_json = Map::new();
        for (name, t) in by_name {
            spans_json.insert(
                name,
                json!({"count": t.count, "total_us": t.total_ns as f64 / 1e3, "self_us": t.self_ns as f64 / 1e3}),
            );
        }
        result.insert("spans", Value::Object(spans_json));
    }

    let ok = out.ops.failed == 0 && out.checks.iter().all(|c| c.ok);
    result.insert("ok", json!(ok));
    result.insert("attempted", json!(out.ops.attempted));
    // A failed check marks every operation of the pass failed.
    result.insert(
        "failed",
        json!(if ok { 0 } else { out.ops.attempted.max(1) }),
    );
    result.insert("ticks", json!(out.rtt_ns.len()));
    result.insert(
        "checks",
        Value::Array(out.checks.iter().map(Check::to_json).collect()),
    );
    if let Some((_, snap)) = &out.pin {
        result.insert("pinned", checks::Pinned::of(snap).to_json());
    }
    result.insert("e2e", Value::Object(e2e));
    result.insert("rtt_ns", json!(out.rtt_ns));
    result.insert("recover_ms", json!(out.recover_ms));
    result.insert("poll_ms", json!(out.poll_ms));
    Ok(Value::Object(result))
}

/// Child entry point; the exit code says whether the pass ran at all
/// (a pass that ran but failed a check still exits 0 with `"ok": false`).
pub fn main(args: &ChildArgs, started: Instant) -> i32 {
    match pass(args, started) {
        Ok(result) => {
            println!(
                "{}",
                serde_json::to_string(&result).expect("rendering cannot fail")
            );
            0
        }
        Err(e) => {
            let result = json!({
                "workload": args.kind.name(),
                "ok": false,
                "error": e,
                "attempted": 1,
                "failed": 1,
            });
            println!(
                "{}",
                serde_json::to_string(&result).expect("rendering cannot fail")
            );
            1
        }
    }
}
