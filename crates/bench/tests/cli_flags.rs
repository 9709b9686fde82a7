//! `cdba-cli` refuses flags outside each subcommand's own list: a
//! misspelt or removed flag is a usage error with a non-zero exit, never
//! a silently ignored default.

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
    for args in [
        "serve --sessions 10 --ticks 10 --kernel-threads 2",
        "serve --sessions 10 --ticks 10 --exec adaptive",
        "fleet --sessions 10 --ticks 10 --placement p2c",
    ] {
        let (ok, err) = cli(args);
        assert!(!ok, "{args} must fail");
        assert!(!err.is_empty(), "{args} says why");
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
        "bench-gateway --ticks 10 --exec inline",
    ] {
        let (ok, err) = cli(args);
        assert!(!ok, "{args} must fail");
        assert!(err.contains("unknown flag --"), "{args} stderr: {err}");
    }
}

#[test]
fn known_flags_still_run() {
    let (ok, err) = cli("serve --sessions 10 --ticks 10 --shards 1 --exec inline");
    assert!(ok, "stderr: {err}");
}
