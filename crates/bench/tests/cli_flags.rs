//! `cdba-cli` refuses flags outside each subcommand's own list: a
//! misspelt or removed flag is a usage error with a non-zero exit, never
//! a silently ignored default. And a scheduled event the run accepts
//! fires and succeeds, down to a drain onto a process killed that tick.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `cdba-cli` with the whitespace-separated `args` to completion
/// (killing it after 30 s — a server subcommand that accepted its flags
/// would otherwise run forever) and returns whether it succeeded and its
/// stderr.
fn cli(args: &str) -> (bool, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cdba-cli"))
        .args(args.split_whitespace())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn cdba-cli");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("poll cdba-cli").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let out = child.wait_with_output().expect("collect cdba-cli");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn a_misspelt_flag_is_a_usage_error() {
    let (ok, err) = cli("serve --sessions 10 --ticks 10 --kernal-threads 2 --bogus 1");
    assert!(!ok, "a misspelt flag must fail");
    assert!(
        err.contains("unknown flag --kernal-threads"),
        "stderr: {err}"
    );
}

#[test]
fn removed_flags_and_values_are_refused() {
    for (args, why) in [
        (
            "serve --sessions 10 --ticks 10 --kernel-threads 2",
            "unknown flag",
        ),
        (
            "serve --sessions 10 --ticks 10 --exec adaptive",
            "unknown --exec",
        ),
        (
            "fleet --sessions 10 --ticks 10 --placement p2c",
            "unknown flag",
        ),
        (
            "serve --sessions 10 --ticks 10 --summary s.json",
            "unknown flag",
        ),
        ("bench-ctrl", "unknown command"),
        ("bench-gateway --ticks 10", "unknown command"),
        ("bench-fleet --ticks 10", "unknown command"),
    ] {
        let (ok, err) = cli(args);
        assert!(!ok, "{args} must fail");
        assert!(err.contains(why), "{args} stderr: {err}");
    }
}

/// A fault or drain scheduled at or past the last tick would never fire;
/// the run refuses it rather than exit 0 having done nothing.
#[test]
fn an_event_scheduled_past_the_run_is_a_usage_error() {
    for (args, why) in [
        (
            "serve --sessions 10 --ticks 100 --shards 2 --fault 1@500:kill",
            "--fault tick 500 >= --ticks 100",
        ),
        (
            "serve --sessions 10 --ticks 100 --shards 2 --fault 1@100:kill",
            "--fault tick 100 >= --ticks 100",
        ),
        (
            "fleet --ticks 100 --drain-at 500",
            "--drain-at tick 500 >= --ticks 100",
        ),
        (
            "fleet --ticks 100 --fault 1@500:kill",
            "--fault tick 500 >= --ticks 100",
        ),
        ("fleet --ctrl-procs 0", "--ctrl-procs must be >= 1"),
    ] {
        let (ok, err) = cli(args);
        assert!(!ok, "{args} must fail");
        assert!(err.contains(why), "{args} stderr: {err}");
    }
}

/// Each subcommand checks against its own list: a flag another command
/// takes is still refused, and a server refuses before it binds.
#[test]
fn each_subcommand_refuses_flags_outside_its_own_set() {
    for args in [
        "gateway --addr 127.0.0.1:0 --bogus 1",
        "client --sessions 10 --shards 2",
        "relay --backends 127.0.0.1:1 --sessions 10",
        "inspect --trace t.cdba --json out.json",
        "fleet --ticks 10 --addr 127.0.0.1:0",
    ] {
        let (ok, err) = cli(args);
        assert!(!ok, "{args} must fail");
        assert!(err.contains("unknown flag --"), "{args} stderr: {err}");
    }
}

#[test]
fn known_flags_still_run() {
    for args in [
        "serve --sessions 10 --ticks 10 --shards 1 --exec inline",
        "serve --sessions 10 --ticks 10 --shards 2 --fault 1@9:kill",
    ] {
        let (ok, err) = cli(args);
        assert!(ok, "{args} stderr: {err}");
    }
}

/// A drain whose migrations land on the process killed that same tick:
/// the first grant finds its target exited and respawns it (genesis
/// replay) before granting, so the run exits 0 with one respawn and the
/// fleet-wide metrics of the same run without the kill.
#[test]
fn a_drain_onto_a_process_killed_that_tick_respawns_it() {
    let dir = std::env::temp_dir().join(format!("cdba-cli-drain-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let run = |fault: &str, name: &str| {
        let json = dir.join(name);
        let args = format!("fleet --ticks 100 --sessions 40 --drain-at 99 {fault}");
        let out = Command::new(env!("CARGO_BIN_EXE_cdba-cli"))
            .args(args.split_whitespace())
            .arg("--json")
            .arg(&json)
            .output()
            .expect("run cdba-cli");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            out.status.success(),
            "{args}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let snapshot: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&json).expect("read --json"))
                .expect("parse --json");
        (stdout, snapshot["global"].clone())
    };
    let (clean_out, clean) = run("", "clean.json");
    let (faulted_out, faulted) = run("--fault 1@99:kill", "faulted.json");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(clean_out.contains(" 0 respawn(s)"), "{clean_out}");
    assert!(faulted_out.contains(" 1 respawn(s)"), "{faulted_out}");
    assert!(
        clean.as_object().is_some_and(|g| !g.is_empty()),
        "a global section"
    );
    assert_eq!(faulted, clean);
}
