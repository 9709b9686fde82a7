//! The parent side: spawns one child process per (pass, workload), takes
//! medians over passes, prints every metric by name with its unit, and
//! writes the report, the ledger and the calibrated bounds.

use crate::checks::Check;
use crate::inputs::{Kind, Scale, Shape, ALL, DEFAULT_SEED};
use crate::metrics::{self, MetricDef, E2E};
use crate::stats;
use serde_json::{json, Map, Value};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Round-robin passes of a full set.
const PASSES: usize = 3;
/// Measured seconds of a timed run: `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u32 = 10;
/// Timed sets of `--calibrate`'s noise phase, all at the default seed.
const NOISE_SETS: usize = 5;
/// Timed sets of `--calibrate`'s second phase, each with another seed:
/// as many as the benchmark is accepted on.
const SEED_SETS: u64 = 10;
/// The second seed `--selfcheck` exercises, with all checks on …
const SECOND_SEED: u64 = DEFAULT_SEED + 1;
/// … for this many measured seconds.
const SECOND_SEED_SECONDS: f64 = 2.0;

/// Where things are.
pub struct Env {
    pub cli: PathBuf,
    /// The `benchmark/` directory.
    pub home: PathBuf,
}

/// Host, commit and toolchain: stamped into every report row.
pub fn stamp() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    json!({
        "cores": cores,
        "cpu": cpu,
        "commit": env("STACKBENCH_COMMIT"),
        "rustc": env("STACKBENCH_RUSTC"),
        "transport": "loopback TCP, closed loop, 1 driver thread",
        "cpus": "a pass is pinned to the last allowed CPU; recover-100k keeps all",
    })
}

/// How one child is asked to run.
#[derive(Clone, Copy)]
pub struct Pass {
    pub kind: Kind,
    pub scale: Scale,
    pub seed: u64,
    pub seconds: f64,
    pub min_ticks: u64,
    pub traced: bool,
    pub setup_only: bool,
}

impl Pass {
    /// One untraced pass of the workload's scripted tick count.
    fn scripted(kind: Kind, scale: Scale, seed: u64) -> Pass {
        Pass {
            kind,
            scale,
            seed,
            seconds: 0.0,
            min_ticks: 0,
            traced: false,
            setup_only: false,
        }
    }

    /// One untraced full-size pass that measures for `seconds`, and at
    /// least up to the pin tick.
    fn timed(kind: Kind, seed: u64, seconds: f64) -> Pass {
        Pass {
            seconds,
            min_ticks: Shape::of(kind, Scale::Full).pin,
            ..Pass::scripted(kind, Scale::Full, seed)
        }
    }
}

fn spawn(env: &Env, pass: Pass) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .arg("child")
        .args(["--workload", pass.kind.name()])
        .args(["--scale", pass.scale.name()])
        .args(["--seed", &pass.seed.to_string()])
        .args(["--seconds", &pass.seconds.to_string()])
        .args(["--min-ticks", &pass.min_ticks.to_string()])
        .args(["--trace", if pass.traced { "1" } else { "0" }])
        .args(["--setup-only", if pass.setup_only { "1" } else { "0" }])
        .arg("--cli")
        .arg(&env.cli)
        .arg("--home")
        .arg(&env.home)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning child: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text.lines().last().unwrap_or("");
    let value: Value = serde_json::from_str(line)
        .map_err(|e| format!("{} child printed no result ({e})", pass.kind.name()))?;
    if let Some(err) = value["error"].as_str() {
        return Err(format!("{}: {err}", pass.kind.name()));
    }
    Ok(value)
}

fn failed_checks(result: &Value) -> Vec<Check> {
    result["checks"]
        .as_array()
        .unwrap_or(&[])
        .iter()
        .map(Check::from_json)
        .filter(|c| !c.ok)
        .collect()
}

fn print_metric(def: MetricDef, value: f64, note: &str) {
    println!("  {:<40} {:>16.4} {:<14} {note}", def.name, value, def.unit);
}

// ------------------------------------------------------------ timed runs

/// What one timed run of one workload measured.
pub struct Measured {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// What the result object carries: `{name: {value, unit}}`.
    pub metrics: Map,
    /// Every end-to-end value the run produced, gated or not.
    pub e2e: Vec<(MetricDef, f64)>,
    pub problems: Vec<String>,
    /// The CPUs the passes ran on, as the children report them.
    pub cpus: Value,
    /// Each set-up of the run, in order; `setup_s` is their median.
    pub setups: Vec<f64>,
}

impl Measured {
    /// The verdict of the measured children of one run: failed checks and
    /// missing gated metrics are `problems`, and any problem fails every
    /// operation.
    fn of(
        runs: &[&Value],
        metrics: Map,
        e2e: Vec<(MetricDef, f64)>,
        missing: Vec<String>,
    ) -> Measured {
        let mut problems: Vec<String> = runs
            .iter()
            .flat_map(|run| failed_checks(run))
            .map(|c| format!("{}: {}", c.name, c.detail))
            .collect();
        problems.extend(missing);
        let correct = runs
            .iter()
            .all(|run| matches!(run["ok"], Value::Bool(true)))
            && problems.is_empty();
        let attempted: f64 = runs.iter().filter_map(|r| r["attempted"].as_f64()).sum();
        let attempted = (attempted as u64).max(1);
        Measured {
            correct,
            attempted,
            failed: if correct { 0 } else { attempted },
            metrics,
            e2e,
            problems,
            cpus: runs.last().map_or(Value::Null, |run| run["cpus"].clone()),
            setups: Vec::new(),
        }
    }
}

/// One timed, untraced run: [`SETUPS`] set-ups in fresh processes (the
/// middle one goes on to measure for `seconds`), `setup_s` their median.
pub fn measure(env: &Env, kind: Kind, seed: u64, seconds: f64) -> Result<Measured, String> {
    let mut setups = Vec::new();
    let mut run = None;
    for i in 0..SETUPS {
        let pass = Pass {
            setup_only: i != SETUPS / 2,
            ..Pass::timed(kind, seed, seconds)
        };
        let result = spawn(env, pass)?;
        if pass.setup_only {
            setups.push(
                result["setup_s"]
                    .as_f64()
                    .ok_or("set-up child without setup_s")?,
            );
        } else {
            setups.push(
                result["e2e"]["setup_s"]
                    .as_f64()
                    .ok_or("child without setup_s")?,
            );
            run = Some(result);
        }
    }
    let run = run.expect("the middle set-up measures");
    let mut out = Map::new();
    let mut e2e = Vec::new();
    let mut missing = Vec::new();
    for def in E2E {
        let value = if def.name == "setup_s" {
            stats::median(&setups)
        } else {
            run["e2e"][def.name].as_f64()
        };
        let gated = metrics::GATED.contains(&def.name);
        match value {
            Some(v) if v != 0.0 => {
                e2e.push((def, v));
                if gated {
                    out.insert(def.name, json!({"value": v, "unit": def.unit}));
                }
            }
            _ if gated => missing.push(format!("{} not measured", def.name)),
            _ => {} // a reported metric this workload does not have
        }
    }
    Ok(Measured {
        setups,
        ..Measured::of(&[&run], out, e2e, missing)
    })
}

/// One timed `--trace 1` run: an untraced pass, which alone supplies the
/// end-to-end metrics reported without a bound, then a traced pass for
/// the layers; 0 for a layer the workload does not cross.
pub fn measure_layers(env: &Env, kind: Kind, seed: u64, seconds: f64) -> Result<Measured, String> {
    let plain = spawn(env, Pass::timed(kind, seed, seconds))?;
    let traced = spawn(
        env,
        Pass {
            traced: true,
            ..Pass::timed(kind, seed, seconds)
        },
    )?;
    let mut out = Map::new();
    for def in metrics::demoted() {
        let v = plain["e2e"][def.name].as_f64().unwrap_or(0.0);
        out.insert(def.name, json!({"value": v, "unit": def.unit}));
    }
    for def in metrics::LAYER {
        let v = traced["layers"][def.name].as_f64().unwrap_or(0.0);
        out.insert(def.name, json!({"value": v, "unit": def.unit}));
    }
    let measured = Measured::of(&[&plain, &traced], out, Vec::new(), Vec::new());
    write_ledger(env, &[(kind, traced)])?;
    Ok(measured)
}

/// The contract entry: one workload, one seed, `seconds` of measurement;
/// the last line printed is the result object.
pub fn contract(env: &Env, kind: Kind, seed: u64, seconds: f64, traced: bool) -> i32 {
    let measured = if traced {
        measure_layers(env, kind, seed, seconds)
    } else {
        measure(env, kind, seed, seconds)
    };
    let m = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("stackbench: {e}");
            return 1;
        }
    };
    println!(
        "stackbench {} seed {seed} on cpu(s) {} {}",
        kind.name(),
        serde_json::to_string(&m.cpus).unwrap_or_default(),
        serde_json::to_string(&stamp()).unwrap_or_default()
    );
    for (def, v) in &m.e2e {
        let note = if m.metrics.get(def.name).is_some() {
            "gated"
        } else {
            "reported"
        };
        print_metric(*def, *v, note);
        if def.name == "setup_s" {
            println!("    the median of the run's set-ups {:?}", m.setups);
        }
    }
    if traced {
        for (name, v) in m.metrics.iter() {
            if let Some(def) = metrics::find(name) {
                print_metric(def, v["value"].as_f64().unwrap_or(0.0), "");
            }
        }
    }
    for p in &m.problems {
        println!("  FAILED {p}");
    }
    let line = json!({
        "correct": m.correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": Value::Object(m.metrics),
    });
    println!(
        "{}",
        serde_json::to_string(&line).expect("rendering cannot fail")
    );
    i32::from(!m.correct)
}

// -------------------------------------------------------------- full set

/// Median, min and max of one metric over the passes of one workload.
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

fn spread(values: &[f64]) -> Option<Spread> {
    Some(Spread {
        median: stats::median(values)?,
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    })
}

fn numbers(v: &Value) -> Vec<f64> {
    v.as_array()
        .unwrap_or(&[])
        .iter()
        .filter_map(Value::as_f64)
        .collect()
}

/// The full set: every workload in `passes` round-robin passes of its
/// scripted tick count, medians over passes, RTT percentiles over the
/// pooled samples; with `traced`, one more pass that fills the per-layer
/// numbers and the ledger. Returns the process exit code.
pub fn full_set(env: &Env, scale: Scale, seed: u64, traced: bool) -> i32 {
    let passes = if scale == Scale::Smoke { 1 } else { PASSES };
    let stamp = stamp();
    println!(
        "stackbench: {} scale, seed {seed}, {passes} pass(es), {}",
        scale.name(),
        serde_json::to_string(&stamp).unwrap_or_default()
    );
    let mut results: Vec<Vec<Value>> = vec![Vec::new(); ALL.len()];
    let mut bad = 0usize;
    for pass in 0..passes {
        for (w, kind) in ALL.into_iter().enumerate() {
            match spawn(env, Pass::scripted(kind, scale, seed)) {
                Ok(r) => results[w].push(r),
                Err(e) => {
                    println!("pass {pass} FAILED {e}");
                    bad += 1;
                }
            }
        }
    }
    let mut report = Vec::new();
    for (kind, runs) in ALL.into_iter().zip(&results) {
        println!("{}", kind.name());
        let mut row = Map::new();
        row.insert("workload", json!(kind.name()));
        row.insert("host", stamp.clone());
        row.insert("seed", json!(seed));
        row.insert("passes", json!(runs.len()));
        if let Some(run) = runs.last() {
            row.insert("cpus", run["cpus"].clone());
        }
        let mut pooled: Vec<u64> = runs
            .iter()
            .flat_map(|r| numbers(&r["rtt_ns"]))
            .map(|ns| ns as u64)
            .collect();
        pooled.sort_unstable();
        let supported = stats::highest_supported_percentile(pooled.len());
        for def in E2E {
            let per_pass: Vec<f64> = runs
                .iter()
                .filter_map(|r| r["e2e"][def.name].as_f64())
                .collect();
            let Some(mut s) = spread(&per_pass) else {
                continue; // the workload does not report this metric
            };
            let mut note = format!("min {:.4} max {:.4}", s.min, s.max);
            if let Some(p) = match def.name {
                "tick_rtt_p50_us" => Some(0.50),
                "tick_rtt_p99_us" => Some(0.99),
                _ => None,
            } {
                s.median = stats::percentile_sorted(&pooled, p) as f64 / 1e3;
                let _ = write!(note, ", {} pooled samples", pooled.len());
                if supported.is_none_or(|top| p > top) {
                    let _ = write!(note, ", TOO FEW for p{}", p * 100.0);
                }
            }
            print_metric(def, s.median, &note);
            row.insert(
                def.name,
                json!({"value": s.median, "unit": def.unit, "min": s.min, "max": s.max}),
            );
        }
        let attempted: f64 = runs.iter().filter_map(|r| r["attempted"].as_f64()).sum();
        let failed: f64 = runs.iter().filter_map(|r| r["failed"].as_f64()).sum();
        println!("  operations: {attempted} attempted, {failed} failed");
        row.insert("attempted", json!(attempted));
        row.insert("failed", json!(failed));
        for r in runs {
            for c in failed_checks(r) {
                println!("  FAILED {}: {}", c.name, c.detail);
                bad += 1;
            }
        }
        report.push(Value::Object(row));
    }

    let mut traced_rows = Vec::new();
    if traced {
        for kind in ALL {
            let spec = Pass {
                traced: true,
                ..Pass::scripted(kind, scale, seed)
            };
            match spawn(env, spec) {
                Ok(r) => {
                    println!("{} (traced pass)", kind.name());
                    for def in metrics::LAYER {
                        if let Some(v) = r["layers"][def.name].as_f64() {
                            print_metric(def, v, "");
                        }
                    }
                    for c in failed_checks(&r) {
                        println!("  FAILED {}: {}", c.name, c.detail);
                        bad += 1;
                    }
                    traced_rows.push((kind, r));
                }
                Err(e) => {
                    println!("traced pass FAILED {e}");
                    bad += 1;
                }
            }
        }
        if let Err(e) = write_ledger(env, &traced_rows) {
            println!("FAILED writing the ledger: {e}");
            bad += 1;
        }
    }

    let out = env.home.join("out");
    let body = json!({"host": stamp, "scale": scale.name(), "seed": seed, "workloads": report});
    let written = std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(out.join("result.json"), render(&body)));
    if let Err(e) = written {
        println!("FAILED writing result.json: {e}");
        bad += 1;
    }
    println!(
        "stackbench: {}",
        if bad == 0 {
            "all checks passed".into()
        } else {
            format!("{bad} failure(s)")
        }
    );
    i32::from(bad > 0)
}

fn render(v: &Value) -> String {
    serde_json::to_string_pretty(v).expect("rendering cannot fail") + "\n"
}

/// Writes `out/ledger.md` and `out/ledger.json`: per workload, one row
/// per boundary with its rate, its self time per tick and the slowdown
/// against the layer beneath (always printed with that base).
fn write_ledger(env: &Env, traced: &[(Kind, Value)]) -> Result<(), String> {
    let mut md = String::from("# stackbench ledger\n\n");
    let _ = writeln!(
        md,
        "Host: `{}`\n",
        serde_json::to_string(&stamp()).unwrap_or_default()
    );
    let mut all = Map::new();
    for (kind, run) in traced {
        let _ = writeln!(md, "## {}\n", kind.name());
        md.push_str("| boundary | session-ticks/s | tick µs | self µs/tick | slowdown (base) |\n");
        md.push_str("|---|---:|---:|---:|---|\n");
        for row in run["ledger"].as_array().unwrap_or(&[]) {
            let f = |k: &str| row[k].as_f64();
            let self_us = f("self_us_per_tick").map_or("—".into(), |v| format!("{v:.1}"));
            let slowdown = match (f("slowdown"), row["slowdown_base"].as_str()) {
                (Some(x), Some(base)) => format!("{x:.2}× {base}"),
                _ => "—".into(),
            };
            let _ = writeln!(
                md,
                "| {} | {:.0} | {:.1} | {self_us} | {slowdown} |",
                row["boundary"].as_str().unwrap_or("?"),
                f("session_ticks_per_s").unwrap_or(0.0),
                f("tick_us").unwrap_or(0.0),
            );
        }
        let overhead = run["layers"]["trace.overhead_pct"].as_f64().unwrap_or(0.0);
        let _ = writeln!(md, "\n`trace.overhead_pct` = {overhead:.2} %");
        let restarts = numbers(&run["restart_ms"]);
        if !restarts.is_empty() {
            let list: Vec<String> = restarts.iter().map(|v| format!("{v:.1}")).collect();
            let _ = writeln!(
                md,
                "\nForced failures, ms inside the restart/kill call, in order: {}",
                list.join(", ")
            );
        }
        md.push('\n');
        all.insert(
            kind.name(),
            json!({
                "rows": run["ledger"].clone(),
                "layers": run["layers"].clone(),
                "spans": run["spans"].clone(),
                "restart_ms": run["restart_ms"].clone(),
            }),
        );
    }
    let out = env.home.join("out");
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    // A timed traced run covers one workload: keep the others' sections.
    let path = out.join("ledger.json");
    let mut merged = Map::new();
    if let Ok(old) = std::fs::read_to_string(&path) {
        if let Ok(Value::Object(old)) = serde_json::from_str::<Value>(&old) {
            for (k, v) in old.iter().filter(|(k, _)| *k != "host") {
                merged.insert(k, v.clone());
            }
        }
    }
    for (k, v) in all.iter() {
        merged.insert(k, v.clone());
    }
    merged.insert("host", stamp());
    std::fs::write(&path, render(&Value::Object(merged))).map_err(|e| e.to_string())?;
    if traced.len() == ALL.len() {
        std::fs::write(out.join("ledger.md"), md).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Runs every workload's scripted pass at the default seed, full and
/// smoke size, and writes what it pins into `expected.json`.
pub fn write_expected(env: &Env) -> i32 {
    let mut file = Map::new();
    file.insert("seed", json!(DEFAULT_SEED));
    for scale in [Scale::Full, Scale::Smoke] {
        let mut section = Map::new();
        for kind in ALL {
            match spawn(env, Pass::scripted(kind, scale, DEFAULT_SEED)) {
                Ok(r) if r["pinned"].as_object().is_some() => {
                    println!(
                        "{} {}: {}",
                        scale.name(),
                        kind.name(),
                        serde_json::to_string(&r["pinned"]).unwrap_or_default()
                    );
                    section.insert(kind.name(), r["pinned"].clone());
                }
                Ok(_) => {
                    println!("{} {} reached no pin snapshot", scale.name(), kind.name());
                    return 1;
                }
                Err(e) => {
                    println!("FAILED {e}");
                    return 1;
                }
            }
        }
        file.insert(scale.name(), Value::Object(section));
    }
    match std::fs::write(env.home.join("expected.json"), render(&Value::Object(file))) {
        Ok(()) => 0,
        Err(e) => {
            println!("FAILED writing expected.json: {e}");
            1
        }
    }
}

// ------------------------------------------------- calibrate / selfcheck

/// One timed run of every workload per entry of `seeds`;
/// `values[workload][metric]` collects one value per set for each of the
/// eight end-to-end metrics the workload reports.
fn timed_sets(env: &Env, seeds: &[u64], seconds: f64) -> Result<Vec<Vec<Vec<f64>>>, String> {
    let mut values = vec![vec![Vec::new(); E2E.len()]; ALL.len()];
    for &seed in seeds {
        for (w, kind) in ALL.into_iter().enumerate() {
            let m = measure(env, kind, seed, seconds)?;
            if !m.correct {
                return Err(format!(
                    "{} seed {seed}: {}",
                    kind.name(),
                    m.problems.join("; ")
                ));
            }
            let mut line = format!("  seed {seed} {:<18}", kind.name());
            for (def, v) in &m.e2e {
                let i = E2E
                    .iter()
                    .position(|d| d.name == def.name)
                    .expect("an E2E metric");
                values[w][i].push(*v);
                let _ = write!(line, " {}={v:.5e}", def.name);
            }
            println!("{line}");
        }
    }
    Ok(values)
}

/// `BENCHMARK.json` as this code defines it, with `bound(name)` for each
/// gated metric: the file is generated, never edited by hand.
pub fn benchmark_json(bound: &dyn Fn(&str) -> f64) -> Value {
    let workloads: Vec<Value> = ALL
        .into_iter()
        .map(|k| json!({"name": k.name(), "why": k.why()}))
        .collect();
    let end_to_end: Vec<Value> = metrics::gated()
        .map(|m| json!({"name": m.name, "unit": m.unit, "better": m.better.name(), "bound": bound(m.name)}))
        .collect();
    let per_layer: Vec<Value> = metrics::per_layer()
        .map(|m| json!({"name": m.name, "unit": m.unit, "better": m.better.name()}))
        .collect();
    json!({
        "command": vec!["bash", "benchmark/run.sh"],
        "paths": vec!["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    })
}

fn benchmark_json_path(env: &Env) -> PathBuf {
    env.home.join("..").join("BENCHMARK.json")
}

fn read_bounds(env: &Env) -> Result<Value, String> {
    let path = benchmark_json_path(env);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| e.to_string())
}

fn bound_of(benchmark: &Value, metric: &str) -> Option<f64> {
    benchmark["end_to_end"]
        .as_array()?
        .iter()
        .find(|m| m["name"].as_str() == Some(metric))?["bound"]
        .as_f64()
}

/// A value of `values` differs from the first by so much as a bit.
fn moved(values: &[f64]) -> bool {
    values.iter().any(|v| v.to_bits() != values[0].to_bits())
}

/// Two phases of timed sets, printed per (metric, workload) pair for all
/// eight end-to-end metrics, then `BENCHMARK.json` is written.
///
/// **Noise**: [`NOISE_SETS`] sets at the default seed, so only the host
/// moves a value. A pair's own bound is 1.5x the widest deviation from the
/// median, floor 3 %, and 0 for the exact count — which fails calibration
/// if it moves at all.
///
/// **Seeds**: [`SEED_SETS`] sets, each with another seed — how the
/// benchmark is accepted: the interquartile spread of every gated metric
/// as a share of its median has to stay within the bound in the file,
/// a third of it to be safe.
///
/// The file carries one bound per gated metric: over its workloads, the
/// larger of the pair's own bound and 3x the spread across seeds, rounded
/// up to a whole per cent, cap 25 %. `setup_s` gets the cap. A gated metric
/// that cannot be held within the cap is listed for demotion; a reported
/// one that can is listed for promotion (edit `metrics::GATED`).
pub fn calibrate(env: &Env) -> i32 {
    let seeds: Vec<u64> = (1..=SEED_SETS).map(|i| DEFAULT_SEED + i).collect();
    let phases = timed_sets(env, &[DEFAULT_SEED; NOISE_SETS], f64::from(RUN_SECONDS))
        .and_then(|noise| Ok((noise, timed_sets(env, &seeds, f64::from(RUN_SECONDS))?)));
    let (noise, across) = match phases {
        Ok(v) => v,
        Err(e) => {
            println!("calibrate FAILED {e}");
            return 1;
        }
    };
    let mut failures = Vec::new();
    let mut bounds: Vec<(&str, f64)> = Vec::new();
    println!(
        "{:<28} {:<20} {:>14} {:>12} {:>16}",
        "metric", "workload", "widest, 1 seed", "pair bound", "iqr/med, seeds"
    );
    for (i, def) in E2E.iter().enumerate() {
        let gated = metrics::GATED.contains(&def.name);
        let mut need = 0.03f64;
        let mut everywhere = true;
        for (w, kind) in ALL.into_iter().enumerate() {
            let (same, other) = (&noise[w][i], &across[w][i]);
            if same.len() < NOISE_SETS || other.len() < SEED_SETS as usize {
                everywhere = false;
                if gated {
                    failures.push(format!(
                        "{} on {}: {} + {} values, a gated pair needs {NOISE_SETS} + {SEED_SETS}",
                        def.name,
                        kind.name(),
                        same.len(),
                        other.len()
                    ));
                }
                continue; // the workload does not report this metric
            }
            let widest = stats::widest_deviation(same).unwrap_or(0.0);
            let spread = stats::iqr_share(other).unwrap_or(0.0);
            let pair = if def.name == metrics::EXACT {
                if moved(same) {
                    failures.push(format!(
                        "{} on {} moved at a fixed seed: {same:?}",
                        def.name,
                        kind.name()
                    ));
                }
                0.0
            } else {
                (1.5 * widest).max(0.03)
            };
            println!(
                "{:<28} {:<20} {:>13.2}% {:>11.2}% {:>15.2}%",
                def.name,
                kind.name(),
                widest * 100.0,
                pair * 100.0,
                spread * 100.0
            );
            need = need.max(pair).max(3.0 * spread);
        }
        let bound = if def.name == "setup_s" {
            0.25
        } else {
            (need.min(0.25) * 100.0).ceil() / 100.0
        };
        match (gated, need <= 0.25 || def.name == "setup_s") {
            (true, held) => {
                println!("bound {} = {bound}", def.name);
                bounds.push((def.name, bound));
                if !held {
                    failures.push(format!(
                        "{} needs {:.0} %, more than the 25 % cap: demote it",
                        def.name,
                        need * 100.0
                    ));
                }
            }
            (false, true) if everywhere => {
                println!("reported {}: could be gated at {bound}", def.name)
            }
            (false, _) => println!(
                "reported {}: needs {:.0} %{}",
                def.name,
                need * 100.0,
                if everywhere {
                    ""
                } else {
                    ", not on every workload"
                }
            ),
        }
    }
    for f in &failures {
        println!("calibrate FAILED {f}");
    }
    if !failures.is_empty() {
        return 1; // and BENCHMARK.json stays as it was
    }
    let lookup = |name: &str| {
        bounds
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.25, |(_, b)| *b)
    };
    let path = benchmark_json_path(env);
    if let Err(e) = std::fs::write(&path, render(&benchmark_json(&lookup))) {
        println!("calibrate FAILED writing {}: {e}", path.display());
        return 1;
    }
    0
}

/// Two timed sets of the same code at the default seed (three runs per
/// workload each, medians compared) must agree within each gated metric's
/// bound on every (metric, workload) pair, the exact count to the bit in
/// every run; reported pairs are listed beside them, not hidden. A
/// second seed is run once with all checks on.
pub fn selfcheck(env: &Env) -> i32 {
    let benchmark = match read_bounds(env) {
        Ok(v) => v,
        Err(e) => {
            println!("selfcheck FAILED {e}");
            return 1;
        }
    };
    // A set is three timed runs per workload, compared by their medians:
    // a single run's `setup_s` spreads wider than its bound.
    let run = || timed_sets(env, &[DEFAULT_SEED; 3], f64::from(RUN_SECONDS));
    let (a, b) = match (run(), run()) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            println!("selfcheck FAILED {e}");
            return 1;
        }
    };
    let mut unresolved = Vec::new();
    for (w, kind) in ALL.into_iter().enumerate() {
        for (i, def) in E2E.iter().enumerate() {
            let (Some(x), Some(y)) = (stats::median(&a[w][i]), stats::median(&b[w][i])) else {
                continue; // the workload does not report this metric
            };
            let gap = def
                .better
                .worsening(x, y)
                .abs()
                .max(def.better.worsening(y, x).abs());
            // Gated pairs must agree within their bound, the exact count
            // exactly; reported pairs are shown against the 25 % cap.
            let bound = bound_of(&benchmark, def.name);
            let ok = if def.name == metrics::EXACT {
                !moved(&[a[w][i].as_slice(), b[w][i].as_slice()].concat())
            } else {
                gap <= bound.unwrap_or(0.25)
            };
            let verdict = match (ok, bound) {
                (true, _) => "ok",
                (false, Some(_)) => "UNRESOLVED",
                (false, None) => "unresolved (reported, not gated)",
            };
            println!(
                "{:<20} {:<28} {:>16.4} {:>16.4} gap {:>6.2}% bound {:>5.1}% {verdict}",
                kind.name(),
                def.name,
                x,
                y,
                gap * 100.0,
                bound.unwrap_or(0.25) * 100.0,
            );
            if !ok && bound.is_some() {
                unresolved.push(format!("{} on {}", def.name, kind.name()));
            }
        }
    }
    if let Err(e) = timed_sets(env, &[SECOND_SEED], SECOND_SEED_SECONDS) {
        println!("selfcheck FAILED on the second seed: {e}");
        return 1;
    }
    println!("second seed {SECOND_SEED}: all checks passed");
    for u in &unresolved {
        println!("UNRESOLVED {u}");
    }
    i32::from(!unresolved.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed `BENCHMARK.json` is exactly what this code generates
    /// for the bounds it carries: names, units, whys and lists cannot
    /// drift apart.
    #[test]
    fn committed_benchmark_json_is_generated_from_this_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let committed: Value = serde_json::from_str(&text).unwrap();
        let regenerated = benchmark_json(&|name| bound_of(&committed, name).expect("a bound"));
        assert_eq!(render(&committed), render(&regenerated));
        assert_eq!(text, render(&committed), "file is in generated form");
        // Whatever calibration wrote: at least the floor, at most the cap.
        for m in metrics::gated() {
            let b = bound_of(&committed, m.name).unwrap();
            assert!((0.03..=0.25).contains(&b), "{} bound {b}", m.name);
        }
        assert!(text.len() <= 64 * 1024);
    }
}
