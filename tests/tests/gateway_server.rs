//! End-to-end tests of the cdba-gateway TCP frontend: wire replays must
//! be bitwise-identical to in-process runs (including under an injected
//! shard kill), malformed input must be answered with typed error frames
//! while the budget state stays consistent, and the backpressure /
//! harvesting / shutdown paths must all be observable.

use cdba_analysis::cost::CostModel;
use cdba_bench::replay::{run_replay, ReplaySpec};
use cdba_ctrl::{ControlPlane, ExecMode, FaultPlan, GlobalMetrics, ServiceConfig, SessionMetrics};
use cdba_gateway::client::Client;
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
    let gateway_cfg = GatewayConfig {
        read_timeout_ms: 10,
        ..GatewayConfig::default()
    };
    GatewayServer::start(cfg, gateway_cfg).expect("gateway starts")
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
    // are refused alike.
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

/// The plain tick, plain subscribe and one-event push are gone from the
/// wire (a tick is a `TickSync` gated at 0, a subscription a
/// `SubscribeBatch`, a push an `EventBatch`): each, sent in its old
/// layout, is a typed `bad-frame`, and the connection keeps working.
#[test]
fn retired_tick_subscribe_and_event_kinds_are_typed_bad_frames() {
    let server = quick_gateway(inline_config(256.0));
    let mut conn = raw_connect(&server);
    raw_hello(&mut conn);
    // Each in its old layout: a tick's id and empty arrival list, a
    // subscribe's id and period, an event's tick, changes and cost.
    let tick = [&[0x14][..], &7u64.to_le_bytes(), &0u32.to_le_bytes()].concat();
    let subscribe = [&[0x16][..], &8u64.to_le_bytes(), &1u32.to_le_bytes()].concat();
    let event = [&[0x30][..], &[0; 24]].concat();
    for payload in [tick, subscribe, event] {
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
    assert_eq!(server.wire_stats().decode_errors, 3);
    server.shutdown().expect("shutdown");
}

#[test]
fn truncated_frame_then_silence_is_failed_with_a_typed_error() {
    let cfg = GatewayConfig {
        read_timeout_ms: 10,
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
        read_timeout_ms: 10,
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
        read_timeout_ms: 10,
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

// ---------------------------------------------------------------------------
// Session ownership, batching, and subscriptions.
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

#[test]
fn starved_tick_sync_fails_with_a_typed_timeout() {
    let cfg = GatewayConfig {
        read_timeout_ms: 10,
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
fn subscriptions_push_signalling_events() {
    let server = quick_gateway(inline_config(256.0));
    let mut client = Client::connect(server.local_addr()).expect("client");
    let key = client.join("acme").expect("join");
    client.subscribe(2, 1).expect("subscribe");
    for t in 0..4u64 {
        client.tick(&[(key, (t % 3) as f64)]).expect("tick");
    }
    let first = client
        .next_event(Duration::from_secs(2))
        .expect("event read")
        .expect("first event");
    assert_eq!(first.tick, 2);
    let second = client
        .next_event(Duration::from_secs(2))
        .expect("event read")
        .expect("second event");
    assert_eq!(second.tick, 4);
    assert!(second.changes >= first.changes);
    assert_eq!(
        server.wire_stats().event_batches,
        2,
        "a batch of 1 is one frame per event"
    );
    server.shutdown().expect("shutdown");
}

#[test]
fn batched_subscriptions_deliver_the_same_events_in_fewer_frames() {
    let server = quick_gateway(inline_config(256.0));
    let mut client = Client::connect(server.local_addr()).expect("client");
    let key = client.join("acme").expect("join");
    // Every 2 ticks, flushed 2 events at a time: 8 ticks -> events at
    // ticks 2, 4, 6, 8, delivered as two EventBatch frames.
    client.subscribe(2, 2).expect("subscribe");
    for t in 0..8u64 {
        client.tick(&[(key, (t % 3) as f64)]).expect("tick");
    }
    let mut ticks = Vec::new();
    let mut changes = Vec::new();
    for _ in 0..4 {
        let event = client
            .next_event(Duration::from_secs(2))
            .expect("event read")
            .expect("batched event");
        ticks.push(event.tick);
        changes.push(event.changes);
    }
    assert_eq!(ticks, vec![2, 4, 6, 8]);
    assert!(
        changes.windows(2).all(|w| w[0] <= w[1]),
        "change counters must be monotone within batches: {changes:?}"
    );
    let wire = server.wire_stats();
    assert_eq!(
        wire.event_batches, 2,
        "4 due events at batch=2 should flush exactly 2 batch frames"
    );
    server.shutdown().expect("shutdown");
}

/// A batched subscriber that goes quiet mid-batch — events buffered
/// toward an [`Frame::EventBatch`] that never fills — must not wedge the
/// push path: the idle harvest reclaims the connection slot, the buffered
/// events die with it, and a fresh subscriber on a clean connection gets
/// exactly its own batches.
#[test]
fn subscriber_dropped_mid_batch_leaves_no_stuck_push_state() {
    let cfg = GatewayConfig {
        read_timeout_ms: 10,
        idle_timeout_ms: 150,
        ..GatewayConfig::default()
    };
    let server = GatewayServer::start(inline_config(256.0), cfg).expect("gateway starts");
    let mut driver = Client::connect(server.local_addr()).expect("driver");
    let key = driver.join("acme").expect("join");

    // Events due every 2 ticks, flushed 64 at a time: the run never
    // produces 64 due events, so the subscriber sits mid-batch (events
    // buffered server-side, batch frame never flushed) for its whole life.
    let mut sub = Client::connect(server.local_addr()).expect("subscriber");
    sub.subscribe(2, 64).expect("subscribe");
    for t in 0..6u64 {
        driver.tick(&[(key, (t % 3) as f64)]).expect("tick");
    }
    assert_eq!(
        server.wire_stats().event_batches,
        0,
        "an unfilled batch must not have flushed"
    );
    // The subscriber now falls silent mid-batch — socket open, never
    // another frame — while the driver keeps the service busy; the idle
    // harvest must reclaim the subscriber's slot out from under its
    // buffered events.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.wire_stats().connections_harvested == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "subscriber was never harvested"
        );
        driver.tick(&[(key, 1.0)]).expect("tick while waiting");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Ticking past more due events must not push toward the dead
    // connection or panic on its vanished state.
    for t in 0..4u64 {
        driver
            .tick(&[(key, (t % 3) as f64)])
            .expect("tick after harvest");
    }
    assert_eq!(server.wire_stats().event_batches, 0);

    // A fresh batched subscriber gets exactly its own events: the push
    // path is clean and the slot is reusable.
    let mut sub2 = Client::connect(server.local_addr()).expect("second subscriber");
    sub2.subscribe(2, 2).expect("subscribe");
    for t in 0..4u64 {
        driver
            .tick(&[(key, (t % 3) as f64)])
            .expect("tick for sub2");
    }
    let first = sub2
        .next_event(Duration::from_secs(2))
        .expect("event read")
        .expect("first event");
    let second = sub2
        .next_event(Duration::from_secs(2))
        .expect("event read")
        .expect("second event");
    assert!(first.tick < second.tick);
    assert!(first.tick.is_multiple_of(2) && second.tick.is_multiple_of(2));
    let wire = server.wire_stats();
    assert_eq!(wire.event_batches, 1, "exactly sub2's one full batch");
    assert_eq!(wire.connections_harvested, 1);
    drop(sub); // the harvested connection was dead all along
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
