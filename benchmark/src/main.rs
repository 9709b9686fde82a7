//! stackbench: one benchmark for the whole cdba stack.
//!
//! ```text
//! stackbench --cli PATH --workload W --seed N --seconds S --trace 0|1   one timed run, result JSON last
//! stackbench --cli PATH [--seed N] [--trace]                           the full set, 3 passes
//! stackbench --cli PATH --smoke | --calibrate | --selfcheck | --write-expected
//! ```
//!
//! `benchmark/run.sh` builds `cdba-cli` and this binary and passes its
//! arguments through; see `benchmark/README.md`.

mod affinity;
mod checks;
mod child;
mod drive;
mod inputs;
mod layers;
mod metrics;
mod orchestrate;
mod procfs;
mod spans;
mod stats;

use inputs::{Kind, Scale, DEFAULT_SEED};
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

/// What the command line may carry. The method is fixed by the benchmark:
/// there is no flag for set counts, pass counts or sizes.
const FLAGS: [&str; 10] = [
    "cli",
    "home",
    "seed",
    "workload",
    "seconds",
    "trace",
    "smoke",
    "calibrate",
    "selfcheck",
    "write-expected",
];
/// What the parent passes a child on top of those.
const CHILD_FLAGS: [&str; 3] = ["scale", "min-ticks", "setup-only"];

/// Flags with a value, bare flags as `"1"`.
fn parse(args: &[String], child: bool) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {}", args[i]))?;
        let known = FLAGS.contains(&key) || (child && CHILD_FLAGS.contains(&key));
        if !known {
            return Err(format!("unknown flag --{key}"));
        }
        match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => {
                flags.insert(key.to_string(), v.clone());
                i += 2;
            }
            _ => {
                flags.insert(key.to_string(), "1".into());
                i += 1;
            }
        }
    }
    Ok(flags)
}

fn number<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(raw) => {
            let parsed = match raw.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16).ok().map(|v| v.to_string()),
                None => Some(raw.clone()),
            };
            parsed
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| format!("bad --{key} {raw}"))
        }
    }
}

fn run(args: &[String], started: Instant) -> Result<i32, String> {
    let child = args.first().is_some_and(|a| a == "child");
    let flags = parse(if child { &args[1..] } else { args }, child)?;
    let on = |key: &str| flags.get(key).is_some_and(|v| v != "0");
    let cli = PathBuf::from(
        flags
            .get("cli")
            .ok_or("--cli PATH (the cdba-cli binary) is required")?,
    );
    if !cli.is_file() {
        return Err(format!(
            "{} is not a file; run benchmark/run.sh",
            cli.display()
        ));
    }
    let home = PathBuf::from(flags.get("home").map_or("benchmark", String::as_str));
    let seed: u64 = number(&flags, "seed", DEFAULT_SEED)?;
    let kind = match flags.get("workload") {
        Some(name) => {
            Some(Kind::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?)
        }
        None => None,
    };

    if child {
        let scale = match flags.get("scale").map(String::as_str) {
            Some("smoke") => Scale::Smoke,
            _ => Scale::Full,
        };
        let args = child::ChildArgs {
            kind: kind.ok_or("child needs --workload")?,
            scale,
            seed,
            seconds: number(&flags, "seconds", 0.0)?,
            min_ticks: number(&flags, "min-ticks", 0)?,
            traced: on("trace"),
            setup_only: on("setup-only"),
            cli,
            home,
        };
        return Ok(child::main(&args, started));
    }

    let env = orchestrate::Env { cli, home };
    let Some(kind) = kind else {
        if flags.contains_key("seconds") {
            return Err("--seconds goes with --workload; every other mode measures for the benchmark's own run_seconds".into());
        }
        return Ok(if on("calibrate") {
            orchestrate::calibrate(&env)
        } else if on("selfcheck") {
            orchestrate::selfcheck(&env)
        } else if on("write-expected") {
            orchestrate::write_expected(&env)
        } else {
            let scale = if on("smoke") {
                Scale::Smoke
            } else {
                Scale::Full
            };
            orchestrate::full_set(&env, scale, seed, on("trace"))
        });
    };
    let seconds: f64 = number(&flags, "seconds", f64::from(orchestrate::RUN_SECONDS))?;
    Ok(orchestrate::contract(
        &env,
        kind,
        seed,
        seconds,
        on("trace"),
    ))
}

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = run(&args, started).unwrap_or_else(|e| {
        eprintln!("stackbench: {e}");
        2
    });
    std::process::exit(code);
}
