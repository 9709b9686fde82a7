//! Process-level fleet tests: real `cdba-cli gateway` children spawned
//! from the compiled binary (hence this file lives in `cdba-bench`,
//! which owns the bin and gets `CARGO_BIN_EXE_cdba-cli`).

use cdba_bench::replay::{run_replay, ReplaySpec, ReplayTarget};
use cdba_ctrl::{ControlPlane, ExecMode};
use cdba_fleet::{Fleet, FleetConfig, FleetError, LeastLoaded};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Small single-shard inline children so each test run stays in the
/// hundreds of milliseconds.
fn config(ctrl_procs: usize, gateways: usize, child_args: &[&str]) -> FleetConfig {
    FleetConfig {
        exe: PathBuf::from(env!("CARGO_BIN_EXE_cdba-cli")),
        ctrl_procs,
        gateways,
        child_args: child_args.iter().map(|s| s.to_string()).collect(),
        migration_price: 1.0,
    }
}

/// A grant that fails on a live target — here one whose budget is full —
/// surfaces as the typed `MigrationFailed` error with the lease returned
/// to the source: the session keeps running there, its budget stays
/// accounted, and nothing panics. A retry once the target has room
/// succeeds.
#[test]
fn a_grant_refused_by_a_live_target_returns_the_lease_to_the_source() {
    // Each child's budget fits two 16-bit sessions.
    let cfg = config(
        2,
        0,
        &[
            "--sessions",
            "8",
            "--shards",
            "1",
            "--exec",
            "inline",
            "--budget",
            "32",
        ],
    );
    let mut fleet = Fleet::start(cfg, Box::new(LeastLoaded)).expect("fleet starts");
    // Least-loaded with lowest-index ties: keys 0 and 2 land on process
    // 0, keys 1 and 3 on process 1.
    for i in 0..4 {
        assert_eq!(fleet.admit("alpha").expect("admit"), i);
    }
    fleet.tick(&[(0, 2.0), (1, 1.0)]).expect("tick");

    let err = fleet
        .migrate(0, 1)
        .expect_err("grant against a full target");
    match err {
        FleetError::MigrationFailed { key, from, to, .. } => {
            assert_eq!((key, from, to), (0, 0, 1));
        }
        other => panic!("expected MigrationFailed, got {other}"),
    }

    // The session still runs at the source: ticking it succeeds, and the
    // fleet snapshot still carries all four sessions, the one rejection
    // being the refused grant. The re-granted lease re-took its budget
    // envelope: the source is full again (a leak would admit a fifth
    // session).
    fleet
        .tick(&[(0, 2.0)])
        .expect("session ticks at the source");
    let snap = fleet.snapshot().expect("snapshot");
    assert_eq!(snap.global.sessions, 4);
    assert_eq!(snap.rejected, 1);
    assert!(snap.sessions.iter().any(|s| s.session == 0));
    fleet.admit("beta").expect_err("both processes are full");

    // Once a session leaves the target, the identical migration goes
    // through, and the source has room again.
    fleet.leave(1).expect("leave");
    fleet.migrate(0, 1).expect("retry once the target has room");
    fleet
        .admit("beta")
        .expect("the source released the envelope");
    let summary = fleet.summary();
    assert_eq!(summary.migrations, 1);
    assert_eq!(summary.respawns, 0);
}

/// A target that had already exited when the migration starts — killed
/// that tick, say — is respawned by genesis replay before the grant, as
/// for any other op, and the migration goes through.
#[test]
fn a_target_killed_before_a_migration_is_respawned_for_the_grant() {
    let cfg = config(
        2,
        0,
        &["--sessions", "8", "--shards", "1", "--exec", "inline"],
    );
    let mut fleet = Fleet::start(cfg, Box::new(LeastLoaded)).expect("fleet starts");
    for i in 0..4 {
        assert_eq!(fleet.admit("alpha").expect("admit"), i);
    }
    fleet.tick(&[(0, 2.0), (1, 1.0)]).expect("tick");
    fleet.kill(1);
    fleet.migrate(0, 1).expect("the target is respawned first");
    fleet
        .tick(&[(0, 2.0), (1, 1.0)])
        .expect("tick after the move");
    let summary = fleet.summary();
    assert_eq!((summary.migrations, summary.respawns), (1, 1));
    assert_eq!(fleet.snapshot().expect("snapshot").global.sessions, 4);
}

/// Drives the shared churn replay through a fleet, forcing one
/// drain-and-migrate mid-run.
struct FleetTarget {
    fleet: Fleet,
    now: u64,
    drain_at: u64,
    drain_proc: usize,
}

impl ReplayTarget for FleetTarget {
    fn admit(&mut self, tenant: &str) -> Result<u64, String> {
        self.fleet.admit(tenant).map_err(|e| e.to_string())
    }

    fn admit_group(&mut self, tenant: &str, size: usize) -> Result<Vec<u64>, String> {
        self.fleet
            .admit_group(tenant, size as u32)
            .map_err(|e| e.to_string())
    }

    fn leave(&mut self, key: u64) -> Result<(), String> {
        self.fleet.leave(key).map_err(|e| e.to_string())
    }

    fn tick(&mut self, arrivals: &[(u64, f64)]) -> Result<(), String> {
        if self.now == self.drain_at {
            self.fleet
                .drain_and_migrate(self.drain_proc)
                .map_err(|e| e.to_string())?;
        }
        self.fleet.tick(arrivals).map_err(|e| e.to_string())?;
        self.now += 1;
        Ok(())
    }
}

/// The tentpole guarantee at test scale: the fleet replay — relays,
/// placement, churn, and a forced drain-and-migrate — produces an
/// invariant view bitwise-identical to the in-process run of the same
/// spec.
#[test]
fn fleet_replay_matches_the_in_process_invariant_view_across_a_migration() {
    let spec = ReplaySpec {
        sessions: 8,
        ticks: 200,
        churn_every: 50,
        pool_frac: 0.5,
        ..ReplaySpec::default()
    };

    let cfg = spec
        .service_builder(spec.default_budget())
        .exec(ExecMode::Inline)
        .build()
        .expect("service config");
    let mut plane = ControlPlane::new(cfg);
    run_replay(&mut plane, &spec).expect("in-process replay");
    let inline_view = plane.snapshot().expect("snapshot").invariant_view();
    plane.shutdown();

    let cfg = config(
        2,
        1,
        &[
            "--sessions",
            "8",
            "--pool-frac",
            "0.5",
            "--shards",
            "1",
            "--exec",
            "inline",
        ],
    );
    let fleet = Fleet::start(cfg, Box::new(LeastLoaded)).expect("fleet starts");
    // Least-loaded puts the pooled group on process 0 and every
    // dedicated session on process 1; draining 1 forces real migrations.
    let mut target = FleetTarget {
        fleet,
        now: 0,
        drain_at: 100,
        drain_proc: 1,
    };
    run_replay(&mut target, &spec).expect("fleet replay");
    assert!(
        target.fleet.migrations() >= 1,
        "the drain must have moved at least one session"
    );
    let fleet_view = target.fleet.snapshot().expect("snapshot").invariant_view();

    assert_eq!(inline_view, fleet_view);
}

/// A frame larger than `io::copy`'s 8 KiB buffer crosses the relay as
/// several writes; without `TCP_NODELAY` on the relay's sockets each one
/// after the first sits out Nagle against the peer's delayed ACK — a
/// ~40 ms stall on every such frame. 1,024 arrivals make a 16 KiB
/// `TickSync`.
#[test]
fn relay_forwards_a_16_kib_frame_without_a_nagle_stall() {
    const SESSIONS: usize = 1024;
    let service = cdba_ctrl::ServiceConfig::builder(SESSIONS as f64 * 16.0)
        .session_b_max(16.0)
        .exec(ExecMode::Inline)
        .build()
        .expect("valid config");
    let server = cdba_gateway::GatewayServer::start(service, Default::default()).expect("gateway");
    let mut relay = Command::new(env!("CARGO_BIN_EXE_cdba-cli"))
        .arg("relay")
        .args(["--backends", &server.local_addr().to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("relay spawns");
    let mut line = String::new();
    BufReader::new(relay.stdout.take().expect("piped"))
        .read_line(&mut line)
        .expect("relay announces its port");
    let via = line
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split(' ').next())
        .expect("listen line names the local address");

    let mut client = cdba_gateway::Client::connect(via).expect("client connects through the relay");
    let arrivals: Vec<(u64, f64)> = (0..SESSIONS)
        .map(|_| (client.join("acme").expect("join"), 1.0))
        .collect();
    let mut rtt_ms: Vec<f64> = (0..20)
        .map(|_| {
            let sent = Instant::now();
            client.tick_sync(&arrivals, SESSIONS as u32).expect("tick");
            sent.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    rtt_ms.sort_by(f64::total_cmp);
    client.goodbye().expect("goodbye");
    let _ = relay.kill();
    let _ = relay.wait();
    server.shutdown().expect("shutdown");
    assert!(
        rtt_ms[10] < 10.0,
        "median relayed tick took {:.1} ms: {rtt_ms:?}",
        rtt_ms[10]
    );
}

/// `Fleet::snapshot` fetches every child's table through the binary
/// snapshot codec. At 2,000 sessions over two processes behind a relay
/// the merged snapshot still carries the in-process run's invariant view
/// bit for bit — and returns in milliseconds, where the JSON path it
/// replaced took ~0.8 ms a session.
#[test]
fn fleet_snapshot_is_binary_fast_and_matches_in_process_at_2k_sessions() {
    const SESSIONS: usize = 2_000;
    let spec = ReplaySpec {
        sessions: SESSIONS,
        pool_frac: 0.0,
        ..ReplaySpec::default()
    };
    let service = spec
        .service_builder(spec.default_budget())
        .exec(ExecMode::Inline)
        .build()
        .expect("service config");
    let mut plane = ControlPlane::new(service);
    let sessions = SESSIONS.to_string();
    let cfg = config(
        2,
        1,
        &[
            "--sessions",
            &sessions,
            "--pool-frac",
            "0",
            "--shards",
            "1",
            "--exec",
            "inline",
        ],
    );
    let mut fleet = Fleet::start(cfg, Box::new(LeastLoaded)).expect("fleet starts");

    let mut arrivals = Vec::with_capacity(SESSIONS);
    for i in 0..SESSIONS {
        let tenant = ["alpha", "beta", "gamma"][i % 3];
        let key = plane.admit(tenant).expect("admit");
        assert_eq!(fleet.admit(tenant).expect("fleet admit"), key);
        arrivals.push((key, (i % 5) as f64 * 0.5));
    }
    for _ in 0..20 {
        plane.tick(&arrivals).expect("tick");
        fleet.tick(&arrivals).expect("fleet tick");
    }

    let polled = Instant::now();
    let merged = fleet.snapshot().expect("fleet snapshot");
    let took = polled.elapsed();
    let inline = plane.snapshot().expect("snapshot");
    plane.shutdown();
    assert_eq!(merged.sessions.len(), SESSIONS);
    assert_eq!(merged.invariant_view(), inline.invariant_view());
    assert!(
        took.as_millis() < 200,
        "a {SESSIONS}-session fleet snapshot took {took:?}"
    );
}
