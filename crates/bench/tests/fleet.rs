//! Process-level fleet tests: real `cdba-cli gateway` children spawned
//! from the compiled binary (hence this file lives in `cdba-bench`,
//! which owns the bin and gets `CARGO_BIN_EXE_cdba-cli`).

use cdba_bench::replay::{run_replay, FleetTarget, ReplaySpec};
use cdba_ctrl::{ControlPlane, ExecMode};
use cdba_fleet::{Fleet, FleetConfig, FleetError, LeastLoaded, IMAGE_EVERY, JOURNAL_OP_BYTES};
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

/// A replay through `fleet` that drains process 1 at tick 100, with
/// `kill`'s process killed at the start of its tick (before that tick's
/// drain) and, with `pull`, images pulled at once, so the pull's request
/// finds the process gone.
fn drained_run(
    fleet: Fleet,
    kill: Option<(u64, usize)>,
    pull: bool,
) -> FleetTarget<impl FnMut(&mut Fleet, u64) -> Result<(), FleetError>> {
    FleetTarget::new(fleet, move |fleet: &mut Fleet, now| {
        if let Some((_, proc)) = kill.filter(|&(at, _)| at == now) {
            fleet.kill(proc);
            if pull {
                fleet.pull_images()?;
            }
        }
        if now == 100 {
            fleet.drain_and_migrate(1)?;
        }
        Ok(())
    })
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
    let mut target = drained_run(fleet, None, false);
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

use cdba_ctrl::{GlobalMetrics, SessionMetrics};

type InvariantView = (u64, GlobalMetrics, Vec<SessionMetrics>);

/// Single-shard inline children sized for `sessions`.
fn inline_children(procs: usize, gateways: usize, sessions: &str, pool_frac: &str) -> FleetConfig {
    let args = ["--sessions", sessions, "--pool-frac", pool_frac];
    config(
        procs,
        gateways,
        &[&args[..], &["--shards", "1", "--exec", "inline"]].concat(),
    )
}

/// The churn spec the kill scenarios replay: half the sessions pooled,
/// churn every 50 ticks, 200 ticks — images at ticks 64, 128 and 192.
fn kill_spec() -> ReplaySpec {
    ReplaySpec {
        sessions: 8,
        ticks: 200,
        churn_every: 50,
        pool_frac: 0.5,
        ..ReplaySpec::default()
    }
}

/// `cdba-cli serve`'s in-process run of `spec`.
fn serve_view(spec: &ReplaySpec) -> InvariantView {
    let cfg = spec
        .service_builder(spec.default_budget())
        .exec(ExecMode::Inline)
        .build()
        .expect("service config");
    let mut plane = ControlPlane::new(cfg);
    run_replay(&mut plane, spec).expect("in-process replay");
    let view = plane.snapshot().expect("snapshot").invariant_view();
    plane.shutdown();
    view
}

/// Replays `spec` through a 2-process fleet behind one relay as
/// [`drained_run`] schedules it; returns the end view and the ops each
/// respawn replayed.
fn killed_run(spec: &ReplaySpec, kill: (u64, usize), pull: bool) -> (InvariantView, u64) {
    let cfg = inline_children(2, 1, "8", "0.5");
    let fleet = Fleet::start(cfg, Box::new(LeastLoaded)).expect("fleet starts");
    let mut target = drained_run(fleet, Some(kill), pull);
    run_replay(&mut target, spec).expect("fleet replay");
    let summary = target.fleet.summary();
    assert!(summary.migrations >= 1, "the drain moved sessions");
    assert_eq!(summary.respawns, 1, "one kill, one respawn");
    let view = target.fleet.snapshot().expect("snapshot").invariant_view();
    (view, summary.replayed_ops)
}

/// A killed process comes back from its latest image plus the ops
/// journaled since — or, before the first image, from the whole
/// journal — and the run ends bitwise where `serve` does, wherever the
/// kill lands: before the first image, right after one, as an image is
/// pulled, or at a drain, on either end of its migrations. After the
/// first image no respawn replays more than one image interval of ticks
/// (plus the two ops a churn event adds).
#[test]
fn a_kill_anywhere_around_an_image_recovers_bitwise() {
    let spec = kill_spec();
    let want = serve_view(&spec);
    let bound = IMAGE_EVERY + 2;

    // Before the first image: the whole history, admissions included.
    let (view, replayed) = killed_run(&spec, (30, 1), false);
    assert_eq!(view, want, "kill before the first image");
    assert!(
        replayed > 30,
        "genesis replay re-sends every op: {replayed}"
    );

    // Right after the image at tick 64: nothing to replay.
    let (view, replayed) = killed_run(&spec, (64, 1), false);
    assert_eq!(view, want, "kill right after an image");
    assert_eq!(replayed, 0);

    // The pull's request finds the process gone: it is restored from the
    // image at 64 plus ticks 65..=91, and asked again.
    let (view, replayed) = killed_run(&spec, (91, 1), true);
    assert_eq!(view, want, "kill as an image is pulled");
    assert!((27..=bound).contains(&replayed), "{replayed}");

    // At the drain: the drained source, then the migrations' target.
    for proc in [1, 0] {
        let (view, replayed) = killed_run(&spec, (100, proc), false);
        assert_eq!(view, want, "kill of process {proc} at a drain");
        assert!(replayed <= bound, "{replayed}");
    }
}

/// Every process's `cdba_fleet_journal_bytes` gauge, in process order.
fn journal_bytes(registry: &cdba_obs::Registry) -> Vec<u64> {
    let text = registry.render();
    let gauges = text
        .lines()
        .filter(|line| line.starts_with("cdba_fleet_journal_bytes{"));
    gauges
        .map(|line| line.rsplit(' ').next().unwrap().parse().unwrap())
        .collect()
}

/// 200 sessions on two processes, every session arriving every tick:
/// each tick journals the same bytes, so after the first image the
/// journal follows one sawtooth — empty at every image, the same bytes
/// at the same offset past it — however long the fleet runs.
#[test]
fn the_orchestrators_journal_is_flat_after_the_first_image() {
    const SESSIONS: u64 = 200;
    let cfg = inline_children(2, 0, "200", "0");
    let mut fleet = Fleet::start(cfg, Box::new(LeastLoaded)).expect("starts");
    let registry = cdba_obs::Registry::new();
    fleet.attach_metrics(&registry);
    for _ in 0..SESSIONS {
        fleet.admit("acme").expect("admit");
    }
    let windows = 4;
    let mut bytes = Vec::new();
    for t in 0..IMAGE_EVERY * (windows + 1) {
        let arrivals: Vec<(u64, f64)> = (0..SESSIONS).map(|k| (k, ((k + t) % 4) as f64)).collect();
        fleet.tick(&arrivals).expect("tick");
        bytes.push(journal_bytes(&registry).iter().sum::<u64>());
    }
    let every = IMAGE_EVERY as usize;
    let first = &bytes[every..2 * every];
    // A tick journals 100 arrivals per process, 5 bytes each (ascending
    // keys, integer bits), plus the op itself; the image empties it.
    let per_tick = 2 * (100 * 5 + JOURNAL_OP_BYTES);
    let sawtooth: Vec<u64> = (1..=IMAGE_EVERY)
        .map(|t| t % IMAGE_EVERY * per_tick)
        .collect();
    assert_eq!(first, sawtooth);
    for w in 2..=windows as usize {
        assert_eq!(&bytes[w * every..(w + 1) * every], first, "window {w}");
    }
    // Before the first image the journal also held the admissions.
    let peak = *first.iter().max().expect("non-empty");
    assert!(bytes[every - 2] > peak, "{} vs {peak}", bytes[every - 2]);
}

/// The long run: 10,000 fleet ticks at 200 sessions with a kill every
/// 1,000 ticks. Every respawn replays at most one image interval of
/// ticks, the journal gauge never passes its bound, and the fleet ends
/// bitwise where an in-process plane run in lockstep does.
#[test]
#[ignore = "release-only long run: cargo test --release -p cdba-bench --test fleet -- --ignored"]
fn ten_thousand_ticks_with_a_kill_every_thousand_stay_bounded() {
    const SESSIONS: u64 = 200;
    let cfg = inline_children(2, 1, "200", "0");
    let mut fleet = Fleet::start(cfg, Box::new(LeastLoaded)).expect("starts");
    let registry = cdba_obs::Registry::new();
    fleet.attach_metrics(&registry);
    let service = cdba_ctrl::ServiceConfig::builder(SESSIONS as f64 * 16.0)
        .exec(ExecMode::Inline)
        .build()
        .expect("config");
    let mut plane = ControlPlane::new(service);
    for i in 0..SESSIONS {
        let tenant = ["alpha", "beta"][i as usize % 2];
        assert_eq!(
            fleet.admit(tenant).expect("admit"),
            plane.admit(tenant).unwrap()
        );
    }
    // At most 100 arrivals a process and tick, 5 bytes each (`f32`-exact
    // halves), plus the op itself.
    let bound = IMAGE_EVERY * (100 * 5 + JOURNAL_OP_BYTES);
    let mut replayed = 0;
    for t in 0..10_000u64 {
        if t > 0 && t % 1_000 == 0 {
            fleet.kill((t / 1_000 % 2) as usize);
        }
        let arrivals: Vec<(u64, f64)> = (0..SESSIONS)
            .filter(|k| (k + t) % 3 != 0)
            .map(|k| (k, ((k * t) % 5) as f64 * 0.5))
            .collect();
        fleet.tick(&arrivals).expect("tick");
        plane.tick(&arrivals).expect("tick");
        let now = fleet.summary().replayed_ops;
        assert!(
            now - replayed <= IMAGE_EVERY,
            "tick {t}: {} ops",
            now - replayed
        );
        replayed = now;
        for bytes in journal_bytes(&registry) {
            assert!(bytes <= bound, "tick {t}: {bytes} journaled bytes");
        }
    }
    assert_eq!(fleet.summary().respawns, 9);
    assert_eq!(
        fleet.snapshot().expect("snapshot").invariant_view(),
        plane.snapshot().expect("snapshot").invariant_view()
    );
    plane.shutdown();
}

/// A `cdba-cli` stand-in in `dir`: a `/bin/sh` script that appends its
/// pid to `dir/pids`, exits before its banner as a relay once
/// `dir/relay-dies` exists, announces the address written in `dir/bogus`
/// once that exists, and otherwise becomes the real binary.
#[cfg(target_os = "linux")]
fn recording_exe(dir: &std::path::Path) -> PathBuf {
    let d = dir.display();
    let script = format!(
        "#!/bin/sh\n\
         echo $$ >> {d}/pids\n\
         if [ \"$1\" = relay ] && [ -e {d}/relay-dies ]; then exit 1; fi\n\
         if [ -e {d}/bogus ]; then echo \"listening on $(cat {d}/bogus)\"; exec sleep 30; fi\n\
         exec {} \"$@\"\n",
        env!("CARGO_BIN_EXE_cdba-cli")
    );
    let exe = dir.join("cdba-cli");
    // Written by a child process, so no fork of this one can hold the
    // file open for writing while it is executed.
    let written = Command::new("/bin/sh")
        .args(["-c", "printf %s \"$1\" > \"$0\" && chmod +x \"$0\""])
        .arg(&exe)
        .arg(script)
        .status()
        .expect("sh runs");
    assert!(written.success());
    exe
}

/// The pids `recording_exe` children wrote, each with whether it still
/// has a `/proc` entry — running, or exited and never reaped.
#[cfg(target_os = "linux")]
fn recorded(dir: &std::path::Path) -> Vec<(String, bool)> {
    let pids = std::fs::read_to_string(dir.join("pids")).expect("pid file");
    let proc = std::path::Path::new("/proc");
    pids.lines()
        .map(|pid| (pid.to_string(), proc.join(pid).exists()))
        .collect()
}

/// Every child the fleet spawns is killed and reaped on every error path:
/// a relay that dies before its banner fails `Fleet::start` with its
/// backends already running, and a respawn that announces a listener
/// which hangs up on the handshake, or a port nobody listens on, fails
/// the recovery after the child started. A child announces its address
/// only once it listens, so the refused port fails at once, not after a
/// connect budget's retries.
#[cfg(target_os = "linux")]
#[test]
fn every_child_is_reaped_when_start_or_a_respawn_fails() {
    let args = ["--sessions", "8", "--shards", "1", "--exec", "inline"];
    let scratch = |case: &str, gateways: usize| {
        let dir = std::env::temp_dir().join(format!("cdba-reap-{}-{case}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let mut cfg = config(2, gateways, &args);
        cfg.exe = recording_exe(&dir);
        (dir, cfg)
    };
    let none_alive = |pids: &[(String, bool)]| pids.iter().all(|&(_, alive)| !alive);

    let (dir, cfg) = scratch("start", 1);
    std::fs::write(dir.join("relay-dies"), "").unwrap();
    let Err(err) = Fleet::start(cfg, Box::new(LeastLoaded)) else {
        panic!("a relay without a banner fails the start");
    };
    assert!(matches!(err, FleetError::Spawn { .. }), "{err}");
    let pids = recorded(&dir);
    assert_eq!(pids.len(), 3, "two backends and the relay ran");
    assert!(none_alive(&pids), "after the failed start: {pids:?}");
    std::fs::remove_dir_all(&dir).unwrap();

    for case in ["hang-up", "refused"] {
        let (dir, cfg) = scratch(case, 0);
        let mut fleet = Fleet::start(cfg, Box::new(LeastLoaded)).expect("fleet starts");
        fleet.admit("acme").expect("admit");
        let bogus = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        std::fs::write(dir.join("bogus"), bogus.local_addr().unwrap().to_string()).unwrap();
        let hang_up = match case {
            "hang-up" => Some(std::thread::spawn(move || drop(bogus.accept()))),
            _ => {
                drop(bogus); // its port now refuses
                None
            }
        };
        fleet.kill(0);
        let recovering = Instant::now();
        let err = fleet
            .tick(&[(0, 1.0)])
            .expect_err("the respawn is unreachable");
        let took = recovering.elapsed();
        assert!(
            matches!(err, FleetError::ProcLost { proc: 0, .. }),
            "{case}: {err}"
        );
        assert!(
            took.as_secs_f64() < 2.0,
            "{case}: recovery failed after {took:?}"
        );
        if let Some(hang_up) = hang_up {
            hang_up.join().unwrap();
        }
        let pids = recorded(&dir);
        assert_eq!(pids.len(), 3, "two backends and the respawn ran");
        assert!(
            none_alive(&pids[2..]),
            "{case}: after the failed recovery: {pids:?}"
        );
        drop(fleet);
        let pids = recorded(&dir);
        assert!(none_alive(&pids), "{case}: after the fleet: {pids:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
