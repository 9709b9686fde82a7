//! End-to-end tests of the cdba-gateway TCP frontend: wire replays must
//! be bitwise-identical to in-process runs (including under an injected
//! shard kill), malformed input must be answered with typed error frames
//! while the budget state stays consistent, and the backpressure /
//! harvesting / shutdown paths must all be observable.

use cdba_analysis::cost::CostModel;
use cdba_bench::replay::{run_replay, ReplaySpec};
use cdba_ctrl::{ControlPlane, ExecMode, FaultPlan, GlobalMetrics, ServiceConfig, SessionMetrics};
use cdba_gateway::client::{Client, ClientError};
use cdba_gateway::proto::{self, encode, ErrorCode, Frame};
use cdba_gateway::{GatewayConfig, GatewayServer};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

type InvariantView = (u64, GlobalMetrics, Vec<SessionMetrics>);

fn small_spec() -> ReplaySpec {
    ReplaySpec {
        sessions: 12,
        ticks: 300,
        churn_every: 100,
        ..ReplaySpec::default()
    }
}

/// The service config `cdba-cli serve`/`client` would build for `spec`.
fn service_config(
    spec: &ReplaySpec,
    shards: usize,
    exec: ExecMode,
    fault: Option<FaultPlan>,
) -> ServiceConfig {
    let mut builder = spec
        .service_builder(spec.default_budget())
        .shards(shards)
        .cost(CostModel::with_change_price(1.0))
        .exec(exec)
        .checkpoint_every(32);
    if let Some(plan) = fault {
        builder = builder.fault(plan);
    }
    builder.build().expect("valid test config")
}

fn in_process_view(spec: &ReplaySpec, cfg: ServiceConfig) -> InvariantView {
    let mut plane = ControlPlane::new(cfg);
    run_replay(&mut plane, spec).expect("in-process replay");
    let snapshot = plane.snapshot().expect("snapshot");
    plane.shutdown();
    snapshot.invariant_view()
}

fn quick_gateway(cfg: ServiceConfig) -> GatewayServer {
    GatewayServer::start(cfg, GatewayConfig::default()).expect("gateway starts")
}

fn wire_view(spec: &ReplaySpec, cfg: ServiceConfig) -> (InvariantView, u64) {
    let server = quick_gateway(cfg);
    let mut client = Client::connect(server.local_addr()).expect("client connects");
    run_replay(&mut client, spec).expect("wire replay");
    let snapshot = client.snapshot_bin().expect("wire snapshot");
    client.goodbye().expect("clean goodbye");
    server.shutdown().expect("graceful shutdown");
    (snapshot.service.invariant_view(), snapshot.service.restarts)
}

/// Like [`wire_view`], but the final state is fetched **twice** on the
/// same connection, nothing committed in between: the second poll is
/// served from the control plane's cached snapshot, and the two decoded
/// service snapshots are asserted byte-identical through their JSON
/// rendering (which pins every `f64` to its exact shortest
/// representation), while the wire counters carried with them advance.
fn wire_view_bin(spec: &ReplaySpec, cfg: ServiceConfig) -> (InvariantView, u64) {
    let server = quick_gateway(cfg);
    let mut client = Client::connect(server.local_addr()).expect("client connects");
    run_replay(&mut client, spec).expect("wire replay");
    let first = client.snapshot_bin().expect("first binary snapshot");
    let again = client.snapshot_bin().expect("second binary snapshot");
    client.goodbye().expect("clean goodbye");
    server.shutdown().expect("graceful shutdown");
    assert_eq!(
        first.service.to_json_string(),
        again.service.to_json_string(),
        "a repeated poll decoded a different service snapshot"
    );
    assert_eq!(again.wire.full_snapshots, first.wire.full_snapshots + 1);
    (again.service.invariant_view(), again.service.restarts)
}

#[test]
fn wire_replay_is_bitwise_identical_to_in_process() {
    let spec = small_spec();
    let local = in_process_view(&spec, service_config(&spec, 2, ExecMode::Inline, None));
    let (wire, restarts) = wire_view(&spec, service_config(&spec, 2, ExecMode::Inline, None));
    assert_eq!(restarts, 0);
    assert_eq!(local, wire, "gateway replay diverged from in-process run");
}

#[test]
fn wire_replay_survives_a_shard_kill_bitwise() {
    let spec = small_spec();
    // Clean baseline: inline, no fault. Wire run: threaded with shard 1
    // killed mid-replay and recovered from checkpoint + journal.
    let local = in_process_view(&spec, service_config(&spec, 2, ExecMode::Inline, None));
    let fault: FaultPlan = "1@100:kill".parse().expect("valid fault plan");
    let (wire, restarts) = wire_view(
        &spec,
        service_config(&spec, 2, ExecMode::Threaded, Some(fault)),
    );
    assert!(restarts >= 1, "the injected kill never triggered a restart");
    assert_eq!(local, wire, "recovered wire replay diverged from clean run");
}

#[test]
fn binary_snapshot_replay_is_bitwise_identical_to_in_process() {
    let spec = small_spec();
    let local = in_process_view(&spec, service_config(&spec, 2, ExecMode::Inline, None));
    let (wire, restarts) = wire_view_bin(&spec, service_config(&spec, 2, ExecMode::Inline, None));
    assert_eq!(restarts, 0);
    assert_eq!(local, wire, "binary-decoded replay diverged");
}

#[test]
fn binary_snapshot_replay_survives_a_shard_kill_bitwise() {
    let spec = small_spec();
    let local = in_process_view(&spec, service_config(&spec, 2, ExecMode::Inline, None));
    let fault: FaultPlan = "1@100:kill".parse().expect("valid fault plan");
    let (wire, restarts) = wire_view_bin(
        &spec,
        service_config(&spec, 2, ExecMode::Threaded, Some(fault)),
    );
    assert!(restarts >= 1, "the injected kill never triggered a restart");
    assert_eq!(
        local, wire,
        "recovered binary-decoded replay diverged from clean run"
    );
}

// ---------------------------------------------------------------------------
// Raw-socket malformed-input suite.
// ---------------------------------------------------------------------------

fn raw_connect(server: &GatewayServer) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).expect("raw connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream
}

fn raw_send(stream: &mut TcpStream, frame: &Frame) {
    stream.write_all(&encode(frame)).expect("raw write");
}

fn raw_recv(stream: &mut TcpStream) -> Frame {
    let mut head = [0u8; 4];
    stream.read_exact(&mut head).expect("frame header");
    let len = u32::from_le_bytes(head) as usize;
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).expect("frame body");
    proto::decode_payload(bytes::Bytes::from(body)).expect("server frames decode")
}

fn raw_hello(stream: &mut TcpStream) {
    raw_send(
        stream,
        &Frame::Hello {
            magic: proto::MAGIC,
            version: proto::VERSION,
        },
    );
    assert!(matches!(raw_recv(stream), Frame::HelloOk { .. }));
}

fn expect_error(frame: Frame, code: ErrorCode) {
    match frame {
        Frame::Error { code: got, .. } => assert_eq!(got, code),
        other => panic!("expected {code} error, got {other:?}"),
    }
}

fn expect_closed(stream: &mut TcpStream) {
    let mut byte = [0u8; 1];
    match stream.read(&mut byte) {
        Ok(0) => {}
        other => panic!("expected closed connection, got {other:?}"),
    }
}

fn inline_config(budget: f64) -> ServiceConfig {
    ServiceConfig::builder(budget)
        .session_b_max(16.0)
        .offline_delay(8)
        .offline_utilization(0.5)
        .window(16)
        .exec(ExecMode::Inline)
        .build()
        .expect("valid config")
}

#[test]
fn handshake_rejects_bad_magic_and_bad_version() {
    let server = quick_gateway(inline_config(256.0));

    let mut conn = raw_connect(&server);
    raw_send(
        &mut conn,
        &Frame::Hello {
            magic: *b"NOPE",
            version: proto::VERSION,
        },
    );
    expect_error(raw_recv(&mut conn), ErrorCode::BadMagic);
    expect_closed(&mut conn);

    // Exactly one version is spoken: a newer one and every older one
    // are refused alike — 5 among them, whose snapshot body carried one
    // more wire counter.
    for version in [proto::VERSION + 1, proto::VERSION - 1, 1] {
        let mut conn = raw_connect(&server);
        raw_send(
            &mut conn,
            &Frame::Hello {
                magic: proto::MAGIC,
                version,
            },
        );
        expect_error(raw_recv(&mut conn), ErrorCode::BadVersion);
        expect_closed(&mut conn);
    }

    // The gateway itself survives every refusal.
    let mut client = Client::connect(server.local_addr()).expect("fresh client");
    client.join("acme").expect("join after refused handshakes");
    server.shutdown().expect("shutdown");
}

#[test]
fn oversized_length_prefix_fails_the_connection_not_the_gateway() {
    let server = quick_gateway(inline_config(256.0));
    let mut conn = raw_connect(&server);
    raw_hello(&mut conn);

    conn.write_all(&(proto::MAX_FRAME as u32 + 1).to_le_bytes())
        .expect("hostile prefix");
    expect_error(raw_recv(&mut conn), ErrorCode::Oversized);
    expect_closed(&mut conn);

    let wire = server.wire_stats();
    assert!(wire.decode_errors >= 1);

    let mut client = Client::connect(server.local_addr()).expect("fresh client");
    let key = client.join("acme").expect("join still admits");
    client.tick(&[(key, 1.0)]).expect("tick still works");
    let snap = server.shutdown().expect("shutdown");
    assert_eq!(snap.service.admitted, 1, "the refused conn perturbed state");
    assert_eq!(snap.service.ticks, 1);
}

/// A request over `MAX_FRAME`, which the gateway would refuse mid-stream,
/// is refused by the client before a byte of it is written, and the
/// connection serves the next request.
#[test]
fn a_request_over_max_frame_is_not_sent_and_the_connection_serves_on() {
    let server = quick_gateway(inline_config(256.0));
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // Kind, request id and blob length ahead of the blob.
    let blob = vec![0; proto::MAX_FRAME + 1 - 13];
    let refused = client.lease_grant(&blob).expect_err("an oversized request");
    assert!(
        matches!(&refused, ClientError::Protocol(m) if m.contains("exceeds")),
        "{refused:?}"
    );
    drop(blob);
    let key = client.join("acme").expect("the connection serves on");
    assert_eq!(client.tick(&[(key, 1.0)]), Ok(1));
    let snap = server.shutdown().expect("shutdown");
    assert_eq!((snap.wire.decode_errors, snap.service.admitted), (0, 1));
}

#[test]
fn well_framed_garbage_gets_a_typed_error_and_the_connection_survives() {
    let server = quick_gateway(inline_config(256.0));
    let mut conn = raw_connect(&server);
    raw_hello(&mut conn);

    // A correctly framed payload with an unknown kind byte — among them
    // the retired acked-stage, JSON-snapshot and delta-snapshot request
    // kinds, each followed by a request id.
    for kind in [0x77, 0x13, 0x15, 0x1A, 0x1C] {
        let mut wire = Vec::new();
        wire.extend_from_slice(&9u32.to_le_bytes());
        wire.push(kind);
        wire.extend_from_slice(&5u64.to_le_bytes());
        conn.write_all(&wire).expect("garbage frame");
        expect_error(raw_recv(&mut conn), ErrorCode::BadFrame);
    }

    // The frame boundary was intact, so the same connection keeps working.
    raw_send(&mut conn, &Frame::SnapshotBin { id: 5 });
    match raw_recv(&mut conn) {
        Frame::SnapshotBinOk { id, .. } => assert_eq!(id, 5),
        other => panic!("expected snapshot-bin-ok on surviving connection, got {other:?}"),
    }
    assert_eq!(server.wire_stats().decode_errors, 5);
    server.shutdown().expect("shutdown");
}

/// The plain tick, both subscribes, the subscribe reply and both event
/// pushes are gone from the wire (a tick is a `TickSync` gated at 0; the
/// signalling bill is read off a snapshot poll or `/metrics`): each, sent
/// in its old layout, is a typed `bad-frame`, and the connection keeps
/// working.
#[test]
fn retired_tick_subscribe_and_event_kinds_are_typed_bad_frames() {
    let server = quick_gateway(inline_config(256.0));
    let mut conn = raw_connect(&server);
    raw_hello(&mut conn);
    // Each in its old layout: a tick's id and empty arrival list, a
    // subscribe's id and period (and batch size), the subscribe reply's
    // id, an event's tick, changes and cost (behind a count, batched).
    let tick = [&[0x14][..], &7u64.to_le_bytes(), &0u32.to_le_bytes()].concat();
    let subscribe = [&[0x16][..], &8u64.to_le_bytes(), &1u32.to_le_bytes()].concat();
    let event = [&[0x30][..], &[0; 24]].concat();
    let batched = [
        &[0x1D][..],
        &9u64.to_le_bytes(),
        &2u32.to_le_bytes(),
        &4u32.to_le_bytes(),
    ]
    .concat();
    let subscribed = [&[0x26][..], &9u64.to_le_bytes()].concat();
    let events = [&[0x31][..], &1u32.to_le_bytes(), &[0; 24]].concat();
    for payload in [tick, subscribe, event, batched, subscribed, events] {
        let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&payload);
        conn.write_all(&wire).expect("retired frame");
        expect_error(raw_recv(&mut conn), ErrorCode::BadFrame);
    }
    raw_send(&mut conn, &Frame::SnapshotBin { id: 9 });
    match raw_recv(&mut conn) {
        Frame::SnapshotBinOk { id, bytes } => {
            assert_eq!(id, 9);
            let snap = cdba_gateway::codec::decode_gateway_snapshot(&bytes).expect("body");
            assert_eq!(snap.service.ticks, 0, "no retired tick committed");
        }
        other => panic!("expected snapshot-bin-ok on surviving connection, got {other:?}"),
    }
    assert_eq!(server.wire_stats().decode_errors, 6);
    server.shutdown().expect("shutdown");
}

#[test]
fn truncated_frame_then_silence_is_failed_with_a_typed_error() {
    let cfg = GatewayConfig {
        request_timeout_ms: 150,
        ..GatewayConfig::default()
    };
    let server = GatewayServer::start(inline_config(256.0), cfg).expect("gateway starts");
    let mut conn = raw_connect(&server);
    raw_hello(&mut conn);

    // Declare an 80-byte payload, deliver 3 bytes, then stall.
    conn.write_all(&80u32.to_le_bytes()).expect("prefix");
    conn.write_all(&[1, 2, 3]).expect("partial body");
    expect_error(raw_recv(&mut conn), ErrorCode::BadFrame);
    expect_closed(&mut conn);
    assert!(server.wire_stats().decode_errors >= 1);
    server.shutdown().expect("shutdown");
}

#[test]
fn idle_connections_are_harvested() {
    let cfg = GatewayConfig {
        idle_timeout_ms: 120,
        ..GatewayConfig::default()
    };
    let server = GatewayServer::start(inline_config(256.0), cfg).expect("gateway starts");
    let mut conn = raw_connect(&server);
    raw_hello(&mut conn);
    expect_error(raw_recv(&mut conn), ErrorCode::Idle);
    expect_closed(&mut conn);
    assert_eq!(server.wire_stats().connections_harvested, 1);
    server.shutdown().expect("shutdown");
}

#[test]
fn connections_past_the_capacity_are_a_typed_busy() {
    let cfg = GatewayConfig {
        max_connections: 2,
        ..GatewayConfig::default()
    };
    let server = GatewayServer::start(inline_config(256.0), cfg).expect("gateway starts");

    // Two connections fill the gateway...
    let mut held = raw_connect(&server);
    raw_hello(&mut held);
    std::thread::sleep(Duration::from_millis(100));
    let _second = raw_connect(&server);
    std::thread::sleep(Duration::from_millis(100));
    // ...and a third overflows and is refused with a typed Busy.
    let mut refused = raw_connect(&server);
    expect_error(raw_recv(&mut refused), ErrorCode::Busy);
    assert!(server.wire_stats().busy_rejections >= 1);
    server.shutdown().expect("shutdown");
}

/// The core polls its listener on every 16th pass while connections are
/// busy and after every back-off sleep, so a new connection is answered
/// promptly both beside a client that keeps the core busy and beside one
/// that leaves it sleeping.
#[test]
fn a_new_connection_is_answered_beside_a_busy_or_idle_one() {
    let server = quick_gateway(inline_config(16.0 * 1e6));
    let addr = server.local_addr();
    let hello_ms = || {
        let started = std::time::Instant::now();
        let client = Client::connect(addr).expect("second client");
        let ms = started.elapsed().as_secs_f64() * 1e3;
        drop(client);
        ms
    };

    // An idle connection: after a second the core sleeps ~14 ms a pass,
    // so polling every 16th pass alone would keep a hello waiting up to
    // ~220 ms. Each hello restarts the back-off ramp.
    let _idle = Client::connect(addr).expect("idle client");
    let beside_idle: Vec<f64> = (0..3)
        .map(|_| {
            std::thread::sleep(Duration::from_secs(1));
            hello_ms()
        })
        .collect();

    // A join loop: every pass of the core has work.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let joiner = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("joining client");
            let mut joins = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                client.join("acme").expect("join");
                joins += 1;
            }
            joins
        })
    };
    std::thread::sleep(Duration::from_millis(50));
    let beside_busy: Vec<f64> = (0..3).map(|_| hello_ms()).collect();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    assert!(joiner.join().expect("joiner") > 0);
    server.shutdown().expect("shutdown");

    assert!(
        beside_idle.iter().all(|&ms| ms < 50.0),
        "hello beside an idle connection: {beside_idle:?} ms"
    );
    let fastest = beside_busy.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(
        fastest < 50.0,
        "hello beside a join loop: {beside_busy:?} ms"
    );
}

// ---------------------------------------------------------------------------
// Session ownership and batching.
// ---------------------------------------------------------------------------

#[test]
fn sessions_are_owned_by_their_connection() {
    let server = quick_gateway(inline_config(256.0));
    let mut alice = Client::connect(server.local_addr()).expect("alice");
    let mut bob = Client::connect(server.local_addr()).expect("bob");

    let key = alice.join("acme").expect("alice joins");
    match bob.leave(key) {
        Err(cdba_gateway::ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::NotOwner)
        }
        other => panic!("expected not-owner, got {other:?}"),
    }
    match bob.tick(&[(key, 1.0)]) {
        Err(cdba_gateway::ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::NotOwner)
        }
        other => panic!("expected not-owner on foreign arrival, got {other:?}"),
    }
    alice.leave(key).expect("owner may leave");
    server.shutdown().expect("shutdown");
}

#[test]
fn cross_connection_staging_batches_into_one_deterministic_tick() {
    let server = quick_gateway(inline_config(256.0));
    let mut alice = Client::connect(server.local_addr()).expect("alice");
    let mut bob = Client::connect(server.local_addr()).expect("bob");

    let a = alice.join("acme").expect("a");
    let b = bob.join("globex").expect("b");

    alice.stage_noack(&[(a, 1.0)]).expect("alice stages");
    bob.stage_noack(&[(b, 2.0)]).expect("bob stages");
    // Restaging an already-pending key is a duplicate, all-or-nothing:
    // the commit carrying it is refused and stages nothing.
    match alice.tick_sync(&[(a, 1.0)], 2) {
        Err(cdba_gateway::ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::Ctrl);
            assert!(message.contains("twice"), "unexpected message {message}");
        }
        other => panic!("expected duplicate-arrival error, got {other:?}"),
    }
    // Either connection may commit; the batch holds both arrivals.
    let tick = bob.tick_sync(&[], 2).expect("bob commits the batch");
    assert_eq!(tick, 1);
    let snap = alice.snapshot_bin().expect("snapshot");
    assert!((snap.service.global.total_arrived - 3.0).abs() < 1e-9);
    server.shutdown().expect("shutdown");
}

#[test]
fn noack_staging_feeds_a_count_gated_commit_across_connections() {
    let server = quick_gateway(inline_config(256.0));
    let mut alice = Client::connect(server.local_addr()).expect("alice");
    let mut bob = Client::connect(server.local_addr()).expect("bob");
    let a = alice.join("acme").expect("a");
    let b = bob.join("globex").expect("b");

    // Bob stages fire-and-forget; Alice commits once two arrivals are
    // buffered gateway-wide. The commit parks if Bob's frame has not
    // landed yet, so the batch is independent of socket arrival order.
    bob.stage_noack(&[(b, 2.0)]).expect("no-ack stage");
    let tick = alice.tick_sync(&[(a, 1.0)], 2).expect("count-gated commit");
    assert_eq!(tick, 1);
    let snap = alice.snapshot_bin().expect("snapshot");
    assert!((snap.service.global.total_arrived - 3.0).abs() < 1e-9);
    assert_eq!(snap.wire.noack_stages, 1);
    server.shutdown().expect("shutdown");
}

/// A refused `stage_noack` surfaces at the next request in place of its
/// reply, and that reply is still read: every request after it gets its
/// own.
#[test]
fn a_refused_noack_stage_leaves_every_later_request_its_own_reply() {
    let server = quick_gateway(inline_config(256.0));
    let mut client = Client::connect(server.local_addr()).expect("client");
    let key = client.join("acme").expect("join");
    let unknown = [(u64::MAX - 1, 1.0)];
    client.stage_noack(&unknown).expect("one write");
    match client.tick(&[(key, 1.0)]) {
        Err(cdba_gateway::ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::Ctrl);
            assert!(message.contains("unknown"), "unexpected message {message}");
        }
        other => panic!("expected the pushed refusal, got {other:?}"),
    }
    let second = client.join("acme").expect("the join reads its own reply");
    assert_ne!(second, key);
    let tick = client.tick(&[(key, 1.0), (second, 1.0)]).expect("tick");
    assert_eq!(tick, 2, "the tick behind the refusal committed");
    // A refusal ahead of a snapshot: its body is read past too.
    client.stage_noack(&unknown).expect("one write");
    match client.snapshot_bin() {
        Err(cdba_gateway::ClientError::Server { .. }) => {}
        other => panic!("expected the pushed refusal, got {other:?}"),
    }
    assert_eq!(client.tick(&[]).expect("tick after the snapshot"), 3);
    server.shutdown().expect("shutdown");
}

#[test]
fn starved_tick_sync_fails_with_a_typed_timeout() {
    let cfg = GatewayConfig {
        request_timeout_ms: 150,
        ..GatewayConfig::default()
    };
    let server = GatewayServer::start(inline_config(256.0), cfg).expect("gateway starts");
    let mut client = Client::connect(server.local_addr()).expect("client");
    let key = client.join("acme").expect("join");
    match client.tick_sync(&[(key, 1.0)], 5) {
        Err(cdba_gateway::ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::Timeout)
        }
        other => panic!("expected starved commit to time out, got {other:?}"),
    }
    // The staged arrival is still pending; a plain tick commits it.
    let tick = client.tick(&[]).expect("tick after expiry");
    assert_eq!(tick, 1);
    let snap = client.snapshot_bin().expect("snapshot");
    assert!((snap.service.global.total_arrived - 1.0).abs() < 1e-9);
    server.shutdown().expect("shutdown");
}

#[test]
fn disconnect_returns_the_connections_budget() {
    // Budget fits exactly three dedicated envelopes of b_max = 16.
    let server = quick_gateway(inline_config(48.0));
    let mut alice = Client::connect(server.local_addr()).expect("alice");
    let mut bob = Client::connect(server.local_addr()).expect("bob");
    alice.join("acme").expect("a1");
    alice.join("acme").expect("a2");
    bob.join("globex").expect("b");

    // The budget is committed: a fourth session is refused by admission.
    match bob.join("globex") {
        Err(cdba_gateway::ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::Ctrl)
        }
        other => panic!("expected admission rejection, got {other:?}"),
    }

    drop(alice); // no goodbye, no leave: the gateway must clean up

    // The gateway notices the closed socket, leaves alice's sessions on
    // her behalf, and her two envelopes come back to the pool.
    std::thread::sleep(Duration::from_millis(200));
    bob.join("globex").expect("first returned envelope");
    bob.join("globex").expect("second returned envelope");
    server.shutdown().expect("shutdown");
}

#[test]
fn graceful_shutdown_reports_wire_observability() {
    let spec = ReplaySpec {
        sessions: 6,
        ticks: 50,
        churn_every: 20,
        ..ReplaySpec::default()
    };
    let server = quick_gateway(service_config(&spec, 1, ExecMode::Inline, None));
    let mut client = Client::connect(server.local_addr()).expect("client");
    run_replay(&mut client, &spec).expect("replay");
    client.goodbye().expect("goodbye");
    let snap = server.shutdown().expect("graceful shutdown");
    assert_eq!(snap.service.ticks, 50);
    assert_eq!(snap.wire.connections_accepted, 1);
    assert_eq!(snap.wire.connections_active, 0);
    assert!(snap.wire.frames_in > 50);
    assert!(snap.wire.frames_out > 50);
    assert!(snap.wire.requests > 50);
    assert!(snap.wire.latency_p99_us >= snap.wire.latency_p50_us);
    assert_eq!(snap.wire.decode_errors, 0);
}
