//! `cdba-cli` — generate workloads, inspect them, run the paper's
//! algorithms over them, plan clairvoyant baselines, and drive the
//! control plane as a service (in-process or over the gateway wire), from
//! the command line.
//!
//! ```text
//! cdba-cli generate      --model mmpp --len 4000 --seed 7 --out t.cdba [--feasible B,D] [--sessions K]
//! cdba-cli inspect       --trace t.cdba
//! cdba-cli run           --trace t.cdba --alg single|lookback|phased|continuous|combined
//!                        [--bandwidth 64] [--delay 8] [--utilization 0.25] [--window 16] [--json out.json]
//! cdba-cli offline       --trace t.cdba [--bandwidth 64] [--delay 8]
//! cdba-cli serve         --sessions 100 [--shards 4] [--ticks 100000] [--json snap.json]
//! cdba-cli gateway       --addr 127.0.0.1:4411 [--sessions 100] [--shards 4] ...
//! cdba-cli client        --addr 127.0.0.1:4411 --sessions 100 [--ticks 100000] [--json snap.json]
//! cdba-cli fleet         [--ctrl-procs 2] [--gateways 2] [--json snap.json]
//! cdba-cli relay         --backends HOST:PORT,HOST:PORT
//! ```
//!
//! (The full per-command flag lists are in `USAGE`, printed by `--help`;
//! a command refuses any flag outside its list.)
//! `serve` and `client` replay the same deterministic churn workload, so a
//! snapshot taken over the wire is bitwise-identical — in its
//! placement-invariant view — to one taken in-process. `fleet` replays it
//! once more across a multi-process fleet (`cdba-fleet`): M `gateway`
//! children behind N `relay` children, sessions placed on the
//! least-loaded process and live-migrated over the gateway's lease frames — and the
//! assembled fleet snapshot is *still* bitwise-identical in its invariant
//! view, including under a forced drain-and-migrate and a `--fault` kill
//! of one ctrl process.
//!
//! Traces use the compact binary format of `cdba_traffic::codec` (single- or
//! multi-session).

use cdba_analysis::cost::CostModel;
use cdba_bench::replay::{run_replay, workload_kind, FleetTarget, ReplaySpec};
use cdba_core::combined::Combined;
use cdba_core::config::{CombinedConfig, InnerMulti, MultiConfig, SingleConfig};
use cdba_core::multi::{Continuous, Phased};
use cdba_core::single::{LookbackSingle, SingleSession};
use cdba_ctrl::{ControlPlane, ExecMode, FaultPlan, ServiceConfig};
use cdba_fleet::{Fleet, FleetConfig, LeastLoaded};
use cdba_gateway::client::{Client, ClientConfig};
use cdba_gateway::{GatewayConfig, GatewayServer};
use cdba_obs::{MetricsServer, Registry, TraceRing};
use cdba_offline::multi::greedy_multi_offline;
use cdba_offline::single::greedy_offline;
use cdba_offline::OfflineConstraints;
use cdba_sim::engine::{simulate, simulate_multi, DrainPolicy};
use cdba_sim::verify::{verify_multi, verify_single};
use cdba_traffic::multi::independent_sessions;
use cdba_traffic::{codec, conditioner, stats, text_io, MultiTrace, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::process::ExitCode;

type CliResult = Result<(), String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "generate" => generate(rest),
        "inspect" => inspect(rest),
        "run" => run(rest),
        "offline" => offline(rest),
        "serve" => serve(rest),
        "gateway" => gateway(rest),
        "client" => client(rest),
        "fleet" => fleet(rest),
        "relay" => relay(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage: cdba-cli <command> [options]
  generate --model <cbr|poisson|onoff|mmpp|pareto|video|spike> --len N --out FILE
           [--seed S] [--sessions K] [--feasible B,D] [--format bin|csv]
  inspect  --trace FILE
  run      --trace FILE --alg <single|lookback|phased|continuous|combined>
           [--bandwidth B] [--delay D] [--utilization U] [--window W]
           [--json FILE] [--timeline yes]
  offline  --trace FILE [--bandwidth B] [--delay D]
  serve    [--json FILE] + workload and service flags: replays the
           deterministic churn workload through an in-process control plane
  gateway  [--addr HOST:PORT] [--metrics-addr HOST:PORT]
           + workload and service flags (the workload flags fix the
           default budget so a `client` replay admits exactly like
           `serve`); --metrics-addr serves GET /metrics (Prometheus text)
           and GET /trace (JSON lines) on a dedicated plain-HTTP listener
  client   [--addr HOST:PORT] [--json FILE] + workload flags: replays
           the same deterministic churn workload over the wire, polls the
           final snapshot as a binary body, and writes the same snapshot
           JSON as `serve`
  fleet    [--ctrl-procs 2] [--gateways 2] [--drain PROC|none]
           [--drain-at TICK] [--fault PROC@TICK:kill]
           [--metrics-addr HOST:PORT] (serves the orchestrator's
           cdba_fleet_* series and trace over plain HTTP)
           [--json FILE] + workload and service flags: replays
           the same deterministic churn workload across a multi-process
           fleet (ctrl-proc children behind relay children, spawned from
           this binary), placing each admission on the least-loaded
           process and live-migrating every dedicated session off the
           drained process at the drain tick; the assembled fleet
           snapshot's invariant view is bitwise-identical to `serve`'s
  relay    --backends HOST:PORT,HOST:PORT
           byte-shuttle frontend: binds one loopback listener per
           backend and pipes accepted connections through (spawned by
           `fleet`; rarely useful by hand)

workload flags (serve, gateway, client, fleet):
           [--sessions N] [--ticks T] [--seed X] [--model M]
           [--bandwidth B] [--group-bandwidth B_O] [--delay D]
           [--utilization U] [--window W] [--group-size G]
           [--pool-frac F] [--churn-every C]
service flags (serve, gateway, fleet):
           [--shards S] [--budget B_A] [--exec inline|threaded]
           [--checkpoint-every N] [--fault SHARD@TICK:<kill|hang:MS>]
           (`fleet` passes all but --fault to every ctrl process; its
           --fault is its own)

Every command refuses a flag outside its own list.";

/// The churn-replay workload flags ([`replay_spec_from_flags`]).
const WORKLOAD_FLAGS: &[&str] = &[
    "sessions",
    "ticks",
    "seed",
    "model",
    "group-size",
    "pool-frac",
    "churn-every",
    "bandwidth",
    "group-bandwidth",
    "delay",
    "utilization",
    "window",
];

/// The control-plane flags ([`service_config_from_flags`]).
const SERVICE_FLAGS: &[&str] = &["shards", "exec", "checkpoint-every", "fault", "budget"];

/// `fleet`'s own flags.
const FLEET_FLAGS: &[&str] = &[
    "ctrl-procs",
    "gateways",
    "drain",
    "drain-at",
    "fault",
    "metrics-addr",
];

/// Parses `--key value` pairs, refusing any key outside the `known`
/// lists: a misspelt or removed flag is a usage error, never a silent
/// default. The refusal names every flag the command takes.
fn parse_flags(args: &[String], known: &[&[&str]]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let key = key
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, found {key}"))?;
        if !known.iter().any(|list| list.contains(&key)) {
            let mut takes: Vec<&str> = known.concat();
            takes.sort_unstable();
            takes.dedup();
            return Err(format!(
                "unknown flag --{key} (takes --{}; see cdba-cli --help)",
                takes.join(" --")
            ));
        }
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
    }
    Ok(flags)
}

fn get<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required --{key}"))
}

fn get_parse<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match flags.get(key) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|e| format!("bad --{key} {raw}: {e}")),
    }
}

enum LoadedTrace {
    Single(Trace),
    Multi(MultiTrace),
}

fn load(path: &str) -> Result<LoadedTrace, String> {
    let raw = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let bytes = bytes::Bytes::from(raw.clone());
    if let Ok(multi) = codec::decode_multi(bytes.clone()) {
        if multi.num_sessions() > 1 {
            return Ok(LoadedTrace::Multi(multi));
        }
    }
    if let Ok(single) = codec::decode(bytes) {
        return Ok(LoadedTrace::Single(single));
    }
    // Fall back to the CSV text format.
    let text = String::from_utf8(raw).map_err(|_| format!("{path}: neither binary nor text"))?;
    if let Ok(multi) = text_io::parse_multi(&text) {
        if multi.num_sessions() > 1 {
            return Ok(LoadedTrace::Multi(multi));
        }
    }
    text_io::parse_trace(&text)
        .map(LoadedTrace::Single)
        .map_err(|e| format!("cannot decode {path} as binary or CSV: {e}"))
}

fn generate(args: &[String]) -> CliResult {
    let known = [
        "model", "len", "seed", "sessions", "out", "feasible", "format",
    ];
    let flags = parse_flags(args, &[&known])?;
    let model = get(&flags, "model")?;
    let len: usize = get_parse(&flags, "len", 4_000)?;
    let seed: u64 = get_parse(&flags, "seed", 0xCDBA)?;
    let sessions: usize = get_parse(&flags, "sessions", 1)?;
    let out = get(&flags, "out")?;
    let kind = workload_kind(model)?;
    let feasible: Option<(f64, usize)> = match flags.get("feasible") {
        None => None,
        Some(raw) => {
            let (b, d) = raw
                .split_once(',')
                .ok_or_else(|| format!("--feasible wants B,D — got {raw}"))?;
            Some((
                b.parse().map_err(|e| format!("bad bandwidth {b}: {e}"))?,
                d.parse().map_err(|e| format!("bad delay {d}: {e}"))?,
            ))
        }
    };
    let csv = match flags.get("format").map(String::as_str) {
        None | Some("bin") => false,
        Some("csv") => true,
        Some(other) => return Err(format!("unknown --format {other} (bin|csv)")),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let blob: Vec<u8> = if sessions <= 1 {
        let mut trace = kind.generate(&mut rng, len).map_err(|e| e.to_string())?;
        if let Some((b, d)) = feasible {
            trace = conditioner::scale_to_feasible(&trace, b, d).map_err(|e| e.to_string())?;
        }
        println!("generated {trace}");
        if csv {
            text_io::render_trace(&trace).into_bytes()
        } else {
            codec::encode(&trace).to_vec()
        }
    } else {
        let mut multi =
            independent_sessions(&mut rng, &kind, sessions, len).map_err(|e| e.to_string())?;
        if let Some((b, d)) = feasible {
            multi = multi.scale_to_feasible(b, d).map_err(|e| e.to_string())?;
        }
        println!(
            "generated {} sessions × {} ticks, {:.1} total bits",
            multi.num_sessions(),
            multi.len(),
            multi.total()
        );
        if csv {
            text_io::render_multi(&multi).into_bytes()
        } else {
            codec::encode_multi(&multi).to_vec()
        }
    };
    std::fs::write(out, &blob).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out} ({} bytes)", blob.len());
    Ok(())
}

fn inspect(args: &[String]) -> CliResult {
    let flags = parse_flags(args, &[&["trace"]])?;
    match load(get(&flags, "trace")?)? {
        LoadedTrace::Single(trace) => {
            let s = stats::summarize(&trace);
            println!("single-session trace: {trace}");
            println!("  std dev      {:.3}", s.std_dev);
            println!("  peak/mean    {:.3}", s.peak_to_mean);
            println!("  idle frac    {:.3}", s.idle_fraction);
            println!("  hurst (R/S)  {:.3}", s.hurst);
            println!(
                "  demand bound (D=8): {:.3} bits/tick",
                trace.demand_bound(8)
            );
        }
        LoadedTrace::Multi(multi) => {
            println!(
                "multi-session trace: {} sessions × {} ticks",
                multi.num_sessions(),
                multi.len()
            );
            for (i, session) in multi.sessions().iter().enumerate() {
                println!("  session {i}: {session}");
            }
            let agg = multi.aggregate();
            println!("  aggregate: {agg}");
        }
    }
    Ok(())
}

fn run(args: &[String]) -> CliResult {
    let known = [
        "trace",
        "alg",
        "bandwidth",
        "delay",
        "utilization",
        "window",
        "json",
        "timeline",
    ];
    let flags = parse_flags(args, &[&known])?;
    let alg = get(&flags, "alg")?.to_string();
    let b: f64 = get_parse(&flags, "bandwidth", 64.0)?;
    let d: usize = get_parse(&flags, "delay", 8)?;
    let u: f64 = get_parse(&flags, "utilization", 0.25)?;
    let w: usize = get_parse(&flags, "window", 2 * d)?;
    let loaded = load(get(&flags, "trace")?)?;
    let json_out = flags.get("json").cloned();
    let show_timeline = flags
        .get("timeline")
        .is_some_and(|v| v == "1" || v == "true" || v == "yes");

    let summary: serde_json::Value = match (loaded, alg.as_str()) {
        (LoadedTrace::Single(trace), "single" | "lookback") => {
            let cfg = SingleConfig::builder(b)
                .offline_delay(d)
                .offline_utilization(u)
                .window(w)
                .build()
                .map_err(|e| e.to_string())?;
            let bounds = cfg.promised_bounds();
            let (run, certified) = if alg == "single" {
                let mut a = SingleSession::new(cfg);
                let run = simulate(&trace, &mut a, DrainPolicy::DrainToEmpty)
                    .map_err(|e| e.to_string())?;
                (run, a.certified_offline_changes())
            } else {
                let mut a = LookbackSingle::new(cfg);
                let run = simulate(&trace, &mut a, DrainPolicy::DrainToEmpty)
                    .map_err(|e| e.to_string())?;
                (run, a.certified_offline_changes())
            };
            if show_timeline {
                println!(
                    "{}\n",
                    cdba_sim::timeline::render(
                        &trace,
                        &run,
                        cdba_sim::timeline::TimelineOptions::default()
                    )
                );
            }
            let verdict = verify_single(&trace, &run, &bounds);
            println!(
                "{alg}: {} changes, max delay {:?} (bound {}), relaxed util {:.3} (bound {:.3}), \
                 peak {:.1} (bound {}), certified offline changes >= {certified}",
                verdict.changes,
                verdict.max_delay,
                bounds.max_delay,
                verdict.utilization,
                bounds.min_utilization,
                verdict.peak_allocation,
                bounds.max_bandwidth,
            );
            println!(
                "all bounds: {}",
                if verdict.all_ok() { "OK" } else { "VIOLATED" }
            );
            serde_json::json!({ "algorithm": alg, "verdict": verdict, "certified": certified })
        }
        (LoadedTrace::Multi(input), "phased" | "continuous" | "combined") => {
            let k = input.num_sessions();
            let (run, bounds, certified) = match alg.as_str() {
                "phased" => {
                    let cfg = MultiConfig::new(k, b, d).map_err(|e| e.to_string())?;
                    let bounds = cfg.phased_bounds();
                    let mut a = Phased::new(cfg);
                    let run = simulate_multi(&input, &mut a, DrainPolicy::DrainToEmpty)
                        .map_err(|e| e.to_string())?;
                    (run, bounds, a.certified_offline_changes())
                }
                "continuous" => {
                    let cfg = MultiConfig::new(k, b, d).map_err(|e| e.to_string())?;
                    let bounds = cfg.continuous_bounds();
                    let mut a = Continuous::new(cfg);
                    let run = simulate_multi(&input, &mut a, DrainPolicy::DrainToEmpty)
                        .map_err(|e| e.to_string())?;
                    (run, bounds, a.certified_offline_changes())
                }
                _ => {
                    let cfg = CombinedConfig::new(k, b, d, u, w, InnerMulti::Phased)
                        .map_err(|e| e.to_string())?;
                    let bounds = cfg.promised_bounds();
                    let mut a = Combined::new(cfg);
                    let run = simulate_multi(&input, &mut a, DrainPolicy::DrainToEmpty)
                        .map_err(|e| e.to_string())?;
                    (run, bounds, a.certified_local_changes())
                }
            };
            let verdict = verify_multi(&input, &run, &bounds);
            println!(
                "{alg} (k={k}): {} local / {} global changes, worst delay {:?} (bound {}), \
                 peak total {:.1} (bound {:.1}), certified offline changes >= {certified}",
                verdict.local_changes,
                verdict.global_changes,
                verdict.max_delay,
                bounds.max_delay,
                verdict.peak_total_allocation,
                bounds.total_bandwidth,
            );
            println!(
                "all bounds: {}",
                if verdict.all_ok() { "OK" } else { "VIOLATED" }
            );
            serde_json::json!({ "algorithm": alg, "verdict": verdict, "certified": certified })
        }
        (LoadedTrace::Single(_), other) => {
            return Err(format!(
                "algorithm {other} needs a multi-session trace (generate with --sessions K)"
            ))
        }
        (LoadedTrace::Multi(_), other) => {
            return Err(format!("algorithm {other} needs a single-session trace"))
        }
    };
    if let Some(path) = json_out {
        let body = serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?;
        std::fs::write(&path, body).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// Parses the deterministic churn-replay workload shared by `serve`,
/// `client`, and the gateway's default-budget computation.
fn replay_spec_from_flags(flags: &HashMap<String, String>) -> Result<ReplaySpec, String> {
    let sessions: usize = get_parse(flags, "sessions", 100)?;
    if sessions == 0 {
        return Err("--sessions must be >= 1".into());
    }
    let d_o: usize = get_parse(flags, "delay", 8)?;
    let model = flags
        .get("model")
        .cloned()
        .unwrap_or_else(|| "onoff".into());
    workload_kind(&model)?; // fail fast on typos, before any admits
    Ok(ReplaySpec {
        sessions,
        ticks: get_parse(flags, "ticks", 100_000)?,
        seed: get_parse(flags, "seed", 0xCDBA)?,
        model,
        group_size: get_parse(flags, "group-size", 4)?,
        pool_frac: get_parse(flags, "pool-frac", 0.2)?,
        churn_every: get_parse(flags, "churn-every", 500)?,
        b_max: get_parse(flags, "bandwidth", 16.0)?,
        b_o: get_parse(flags, "group-bandwidth", 8.0)?,
        d_o,
        u_o: get_parse(flags, "utilization", 0.5)?,
        w: get_parse(flags, "window", 2 * d_o)?,
    })
}

/// The exec mode's flag spelling, for reporting.
fn exec_name(exec: ExecMode) -> &'static str {
    match exec {
        ExecMode::Inline => "inline",
        ExecMode::Threaded => "threaded",
    }
}

/// Builds the control-plane config from the service flags, defaulting the
/// budget to the spec's exact-fit value. Returns the config plus the
/// parsed exec mode and shard count (for reporting).
fn service_config_from_flags(
    flags: &HashMap<String, String>,
    spec: &ReplaySpec,
) -> Result<(ServiceConfig, ExecMode, usize), String> {
    let shards: usize = get_parse(flags, "shards", 4)?;
    let exec = match flags.get("exec").map(String::as_str) {
        None | Some("threaded") => ExecMode::Threaded,
        Some("inline") => ExecMode::Inline,
        Some(other) => return Err(format!("unknown --exec {other} (inline|threaded)")),
    };
    let checkpoint_every: u64 = get_parse(flags, "checkpoint-every", 64)?;
    let fault: Option<FaultPlan> = match flags.get("fault") {
        Some(raw) => Some(raw.parse()?),
        None => None,
    };
    let budget: f64 = get_parse(flags, "budget", spec.default_budget())?;
    let mut builder = spec
        .service_builder(budget)
        .shards(shards)
        .cost(CostModel::with_change_price(1.0))
        .exec(exec)
        .checkpoint_every(checkpoint_every);
    if let Some(plan) = fault {
        builder = builder.fault(plan);
    }
    Ok((builder.build().map_err(|e| e.to_string())?, exec, shards))
}

/// The load-imbalance gauge reported in summary JSON: max and mean
/// sessions over a set of placement units (shards or processes), plus
/// their ratio (1.0 = perfectly even; 0 units or an empty fleet reports
/// a ratio of 1.0 so dashboards need no special case).
fn imbalance(counts: &[u64]) -> serde_json::Value {
    let max = counts.iter().copied().max().unwrap_or(0);
    let mean = if counts.is_empty() {
        0.0
    } else {
        counts.iter().sum::<u64>() as f64 / counts.len() as f64
    };
    let ratio = if mean > 0.0 { max as f64 / mean } else { 1.0 };
    serde_json::json!({
        "max_sessions": max,
        "mean_sessions": mean,
        "ratio": ratio,
    })
}

/// Refuses an event scheduled at or past the run's last tick: it would
/// never fire, and the run would exit 0 as if it had.
fn check_scheduled(flag: &str, at: u64, ticks: u64) -> CliResult {
    if at >= ticks {
        return Err(format!(
            "{flag} tick {at} >= --ticks {ticks}: the event would never fire"
        ));
    }
    Ok(())
}

/// `serve`: spin up the cdba-ctrl control plane, replay a generated
/// `MultiTrace` through it with mid-run session churn, and report
/// throughput plus the service's JSON metrics snapshot. The
/// placement-invariant metrics (global change count, max delay, windowed
/// utilization, costs) are identical for any `--shards`/`--exec` choice
/// under the same seed — and for a `client` replay of the same workload
/// over the gateway wire.
fn serve(args: &[String]) -> CliResult {
    let flags = parse_flags(args, &[WORKLOAD_FLAGS, SERVICE_FLAGS, &["json"]])?;
    let spec = replay_spec_from_flags(&flags)?;
    let (cfg, exec, shards) = service_config_from_flags(&flags, &spec)?;
    // Not in `gateway`: there the client drives the ticks, so the server
    // cannot know their count.
    if let Some(plan) = &cfg.fault {
        check_scheduled("--fault", plan.at_tick, spec.ticks)?;
    }
    let split = spec.split();

    let mut service = ControlPlane::new(cfg);
    let outcome = run_replay(&mut service, &spec)?;
    let snapshot = service.snapshot().map_err(|e| e.to_string())?;
    service.shutdown();

    println!(
        "served {} sessions ({} pooled in {} groups) × {} ticks on {} {} shard(s): \
         {:.0} session-ticks/s, {} churn events",
        spec.sessions,
        split.pooled,
        split.groups,
        spec.ticks,
        shards,
        exec_name(exec),
        outcome.throughput(),
        outcome.churn_events,
    );
    println!(
        "signalling: {} changes, total cost {:.1}; max delay {} ticks; admitted {}, rejected {}",
        snapshot.global.changes,
        snapshot.global.total_cost(),
        snapshot.global.max_delay,
        snapshot.admitted,
        snapshot.rejected,
    );
    if snapshot.restarts > 0 || snapshot.health.iter().any(|h| !h.healthy) {
        let down: Vec<u64> = snapshot
            .health
            .iter()
            .filter(|h| !h.healthy)
            .map(|h| h.shard)
            .collect();
        println!(
            "supervision: {} restart(s), {} journal event(s) replayed, {} shard(s) down{}",
            snapshot.restarts,
            snapshot.events_replayed,
            down.len(),
            if down.is_empty() {
                String::new()
            } else {
                format!(" ({down:?})")
            },
        );
    }
    let summary = serde_json::json!({
        "sessions": spec.sessions,
        "shards": shards,
        "ticks": spec.ticks,
        "churn_events": outcome.churn_events,
        "elapsed_sec": outcome.elapsed_sec,
        "session_ticks_per_sec": outcome.throughput(),
        "admitted": snapshot.admitted,
        "rejected": snapshot.rejected,
        "restarts": snapshot.restarts,
        "events_replayed": snapshot.events_replayed,
        "global": serde_json::to_value(&snapshot.global),
        "per_shard": serde_json::to_value(&snapshot.per_shard),
        "health": serde_json::to_value(&snapshot.health),
        "imbalance": imbalance(
            &snapshot
                .per_shard
                .iter()
                .map(|s| s.sessions)
                .collect::<Vec<_>>(),
        ),
    });
    println!(
        "{}",
        serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?
    );
    if let Some(path) = flags.get("json") {
        std::fs::write(path, snapshot.to_json_string())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote full snapshot to {path}");
    }
    Ok(())
}

/// `gateway`: bind the cdba-gateway TCP frontend over a fresh control
/// plane and serve until the process is killed. The workload flags are
/// accepted (and fix the default `--budget`) so a `client` replay admits
/// exactly like `serve` would in-process.
fn gateway(args: &[String]) -> CliResult {
    let own = ["addr", "metrics-addr"];
    let flags = parse_flags(args, &[WORKLOAD_FLAGS, SERVICE_FLAGS, &own])?;
    let spec = replay_spec_from_flags(&flags)?;
    let (cfg, exec, shards) = service_config_from_flags(&flags, &spec)?;
    let gateway_cfg = GatewayConfig {
        addr: flags
            .get("addr")
            .cloned()
            .unwrap_or_else(|| "127.0.0.1:4411".into()),
        metrics_addr: flags.get("metrics-addr").cloned(),
        ..GatewayConfig::default()
    };
    let server = GatewayServer::start(cfg, gateway_cfg).map_err(|e| e.to_string())?;
    println!(
        "cdba-gateway listening on {} ({} {} shard(s), budget fits {} sessions)",
        server.local_addr(),
        shards,
        exec_name(exec),
        spec.sessions,
    );
    if let Some(addr) = server.metrics_addr() {
        println!("cdba-gateway metrics on http://{addr}/metrics");
    }
    // Serve until killed; clients come and go on their own schedule.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// `client`: replay the deterministic churn workload over the gateway
/// wire and report the same snapshot JSON as `serve`. With equal workload
/// flags, the written snapshot's placement-invariant view is
/// bitwise-identical to the in-process run's: the final state crosses
/// the wire as a binary body and becomes JSON only here.
fn client(args: &[String]) -> CliResult {
    let flags = parse_flags(args, &[WORKLOAD_FLAGS, &["addr", "json"]])?;
    let spec = replay_spec_from_flags(&flags)?;
    let split = spec.split();
    let addr = flags
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:4411".into());
    let mut client =
        Client::connect_with(addr.as_str(), ClientConfig::default()).map_err(|e| e.to_string())?;
    let outcome = run_replay(&mut client, &spec)?;
    let snap = client.snapshot_bin().map_err(|e| e.to_string())?;
    client.goodbye().map_err(|e| e.to_string())?;

    println!(
        "replayed {} sessions ({} pooled in {} groups) × {} ticks over {}: \
         {:.0} session-ticks/s, {} churn events",
        spec.sessions,
        split.pooled,
        split.groups,
        spec.ticks,
        addr,
        outcome.throughput(),
        outcome.churn_events,
    );
    println!(
        "signalling: {} changes, total cost {:.1}; max delay {} ticks; admitted {}, rejected {}",
        snap.service.global.changes,
        snap.service.global.total_cost(),
        snap.service.global.max_delay,
        snap.service.admitted,
        snap.service.rejected,
    );
    println!(
        "wire: {} frames in / {} out, {} decode errors, {} busy rejections; \
         {} requests, p50 {} µs, p99 {} µs",
        snap.wire.frames_in,
        snap.wire.frames_out,
        snap.wire.decode_errors,
        snap.wire.busy_rejections,
        snap.wire.requests,
        snap.wire.latency_p50_us,
        snap.wire.latency_p99_us,
    );
    if let Some(path) = flags.get("json") {
        std::fs::write(path, snap.service.to_json_string())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote full snapshot to {path}");
    }
    Ok(())
}

/// Parses the fleet's `--fault PROC@TICK:kill` (kill one ctrl process at
/// a tick boundary; the fleet recovers it from its latest image and the
/// ops journaled since on its next operation). Distinct from `serve`'s intra-process shard faults.
fn parse_proc_fault(raw: &str) -> Result<(usize, u64), String> {
    let err = || format!("bad --fault {raw}: want PROC@TICK:kill");
    let (proc, rest) = raw.split_once('@').ok_or_else(err)?;
    let (tick, action) = rest.split_once(':').ok_or_else(err)?;
    if action != "kill" {
        return Err(format!(
            "bad --fault action {action}: the fleet only injects kill"
        ));
    }
    Ok((
        proc.parse().map_err(|_| err())?,
        tick.parse().map_err(|_| err())?,
    ))
}

/// The service/workload flags forwarded verbatim to every ctrl-proc
/// child, so each child computes the exact same default budget (and
/// shard/exec/supervision shape) a single-process `serve` would use. The
/// workload values come from the parsed spec so defaults forward too.
fn fleet_child_args(spec: &ReplaySpec, flags: &HashMap<String, String>) -> Vec<String> {
    let mut args = vec![
        "--sessions".into(),
        spec.sessions.to_string(),
        "--bandwidth".into(),
        spec.b_max.to_string(),
        "--group-bandwidth".into(),
        spec.b_o.to_string(),
        "--delay".into(),
        spec.d_o.to_string(),
        "--utilization".into(),
        spec.u_o.to_string(),
        "--window".into(),
        spec.w.to_string(),
        "--group-size".into(),
        spec.group_size.to_string(),
        "--pool-frac".into(),
        spec.pool_frac.to_string(),
    ];
    for key in ["shards", "exec", "budget", "checkpoint-every"] {
        if let Some(value) = flags.get(key) {
            args.push(format!("--{key}"));
            args.push(value.clone());
        }
    }
    args
}

/// `fleet`: replay the deterministic churn workload across a
/// multi-process fleet — ctrl-proc children behind relay children, both
/// spawned from this very binary — with a forced drain-and-migrate
/// mid-run, and report the assembled fleet snapshot. Its
/// placement-invariant view is bitwise-identical to `serve`'s for the
/// same workload flags, across live migrations, and under a `--fault`
/// kill of one ctrl process.
fn fleet(args: &[String]) -> CliResult {
    let known = [WORKLOAD_FLAGS, SERVICE_FLAGS, FLEET_FLAGS, &["json"]];
    let flags = parse_flags(args, &known)?;
    let spec = replay_spec_from_flags(&flags)?;
    let split = spec.split();
    let ctrl_procs: usize = get_parse(&flags, "ctrl-procs", 2)?;
    if ctrl_procs == 0 {
        return Err("--ctrl-procs must be >= 1".into());
    }
    let gateways: usize = get_parse(&flags, "gateways", 2)?;
    let drain: Option<usize> = match flags.get("drain").map(String::as_str) {
        Some("none") => None,
        Some(raw) => Some(raw.parse().map_err(|e| format!("bad --drain {raw}: {e}"))?),
        None => Some(0),
    };
    let drain_at: u64 = get_parse(&flags, "drain-at", spec.ticks / 2)?;
    let fault: Option<(u64, usize)> = match flags.get("fault") {
        Some(raw) => {
            let (proc, tick) = parse_proc_fault(raw)?;
            if proc >= ctrl_procs {
                return Err(format!(
                    "--fault process {proc} >= --ctrl-procs {ctrl_procs}"
                ));
            }
            check_scheduled("--fault", tick, spec.ticks)?;
            Some((tick, proc))
        }
        None => None,
    };
    if let Some(proc) = drain {
        if proc >= ctrl_procs {
            return Err(format!(
                "--drain process {proc} >= --ctrl-procs {ctrl_procs}"
            ));
        }
        check_scheduled("--drain-at", drain_at, spec.ticks)?;
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let cfg = FleetConfig {
        exe,
        ctrl_procs,
        gateways,
        child_args: fleet_child_args(&spec, &flags),
        migration_price: 1.0,
    };
    let mut fleet = Fleet::start(cfg, Box::new(LeastLoaded)).map_err(|e| e.to_string())?;
    // The listener is held, and so served, for the whole run.
    let _metrics = match flags.get("metrics-addr") {
        Some(addr) => {
            let registry = std::sync::Arc::new(Registry::new());
            let trace = std::sync::Arc::new(TraceRing::new(4096));
            fleet.attach_metrics(&registry);
            fleet.attach_trace(std::sync::Arc::clone(&trace));
            let server = MetricsServer::start(addr, registry, Some(trace))
                .map_err(|e| format!("bind metrics {addr}: {e}"))?;
            println!(
                "cdba-fleet metrics on http://{}/metrics",
                server.local_addr()
            );
            Some(server)
        }
        None => None,
    };
    // The fault fires first, then the drain.
    let mut target = FleetTarget::new(fleet, |fleet: &mut Fleet, now| {
        if let Some((_, proc)) = fault.filter(|&(at, _)| at == now) {
            fleet.kill(proc);
        }
        if let Some(proc) = drain.filter(|_| drain_at == now) {
            let moved = fleet.drain_and_migrate(proc)?;
            println!("tick {now}: drained process {proc}, migrated {moved} session(s)");
        }
        Ok(())
    });
    let outcome = run_replay(&mut target, &spec)?;
    let snapshot = target.fleet.snapshot().map_err(|e| e.to_string())?;
    let fleet_summary = target.fleet.summary();

    println!(
        "fleet served {} sessions ({} pooled in {} groups) × {} ticks on {} ctrl \
         process(es) behind {} gateway(s): {:.0} session-ticks/s, {} churn events",
        spec.sessions,
        split.pooled,
        split.groups,
        spec.ticks,
        fleet_summary.ctrl_procs,
        fleet_summary.gateways,
        outcome.throughput(),
        outcome.churn_events,
    );
    println!(
        "placement {}: live per process {:?}; {} migration(s) costing {:.1}, {} respawn(s) \
         replaying {} op(s)",
        fleet_summary.placement,
        fleet_summary.live,
        fleet_summary.migrations,
        fleet_summary.migration_cost,
        fleet_summary.respawns,
        fleet_summary.replayed_ops,
    );
    println!(
        "signalling: {} changes, total cost {:.1}; max delay {} ticks; admitted {}, rejected {}",
        snapshot.global.changes,
        snapshot.global.total_cost(),
        snapshot.global.max_delay,
        snapshot.admitted,
        snapshot.rejected,
    );
    let summary = serde_json::json!({
        "sessions": spec.sessions,
        "ticks": spec.ticks,
        "ctrl_procs": fleet_summary.ctrl_procs,
        "gateways": fleet_summary.gateways,
        "placement": fleet_summary.placement,
        "migrations": fleet_summary.migrations,
        "migration_cost": fleet_summary.migration_cost,
        "respawns": fleet_summary.respawns,
        "replayed_ops": fleet_summary.replayed_ops,
        "live": fleet_summary.live,
        "imbalance": imbalance(
            &fleet_summary
                .live
                .iter()
                .map(|&n| n as u64)
                .collect::<Vec<_>>(),
        ),
        "churn_events": outcome.churn_events,
        "elapsed_sec": outcome.elapsed_sec,
        "session_ticks_per_sec": outcome.throughput(),
        "global": serde_json::to_value(&snapshot.global),
    });
    println!(
        "{}",
        serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?
    );
    if let Some(path) = flags.get("json") {
        std::fs::write(path, snapshot.to_json_string())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote full snapshot to {path}");
    }
    Ok(())
}

/// `relay`: the fleet's byte-shuttle frontend. One loopback listener per
/// backend; every accepted connection gets a fresh upstream connection
/// and two copy threads (one per direction). The relay is protocol-blind:
/// the lease frames, like everything else, are just bytes to it.
fn relay(args: &[String]) -> CliResult {
    let flags = parse_flags(args, &[&["backends"]])?;
    let backends: Vec<String> = get(&flags, "backends")?
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if backends.is_empty() {
        return Err("--backends needs at least one HOST:PORT".into());
    }
    for backend in backends {
        let listener = std::net::TcpListener::bind("127.0.0.1:0")
            .map_err(|e| format!("cannot bind relay listener: {e}"))?;
        let local = listener.local_addr().map_err(|e| e.to_string())?;
        // The parent fleet parses these lines, in backend order, to learn
        // where to connect.
        println!("cdba-relay listening on {local} -> {backend}");
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(down) = conn else { continue };
                let backend = backend.clone();
                std::thread::spawn(move || relay_conn(down, &backend));
            }
        });
    }
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// Shuttles one accepted connection to `backend` until either side
/// closes, then drops both (shutdown propagates the close).
fn relay_conn(down: std::net::TcpStream, backend: &str) {
    let Ok(up) = std::net::TcpStream::connect(backend) else {
        return;
    };
    // `io::copy` forwards a frame in 8 KiB writes; under Nagle every write
    // after the first waits out the peer's delayed ACK (~40 ms a frame).
    let _ = (down.set_nodelay(true), up.set_nodelay(true));
    let (Ok(down_read), Ok(up_read)) = (down.try_clone(), up.try_clone()) else {
        return;
    };
    let forward = std::thread::spawn(move || {
        let mut from = down_read;
        let mut to = up;
        let _ = std::io::copy(&mut from, &mut to);
        let _ = to.shutdown(std::net::Shutdown::Both);
    });
    let mut from = up_read;
    let mut to = down;
    let _ = std::io::copy(&mut from, &mut to);
    let _ = to.shutdown(std::net::Shutdown::Both);
    let _ = forward.join();
}

fn offline(args: &[String]) -> CliResult {
    let flags = parse_flags(args, &[&["trace", "bandwidth", "delay"]])?;
    let b: f64 = get_parse(&flags, "bandwidth", 64.0)?;
    let d: usize = get_parse(&flags, "delay", 8)?;
    match load(get(&flags, "trace")?)? {
        LoadedTrace::Single(trace) => {
            let plan = greedy_offline(&trace, OfflineConstraints::delay_only(b, d))
                .map_err(|e| e.to_string())?;
            println!(
                "greedy offline plan: {} changes over {} segments",
                plan.changes(),
                plan.segments.len()
            );
            for (s, e, bw) in plan.segments.iter().take(20) {
                println!("  [{s:>6}, {e:>6})  {bw:.3} bits/tick");
            }
            if plan.segments.len() > 20 {
                println!("  … {} more segments", plan.segments.len() - 20);
            }
        }
        LoadedTrace::Multi(input) => {
            let plan = greedy_multi_offline(&input, b, d).map_err(|e| e.to_string())?;
            println!(
                "greedy piecewise-static plan: {} local changes over {} intervals",
                plan.local_changes(),
                plan.num_intervals()
            );
        }
    }
    Ok(())
}
