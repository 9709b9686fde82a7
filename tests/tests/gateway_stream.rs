//! A snapshot poll holds the table once. The server answers `snapshot_bin`
//! with a stream — the frame head, then a bounded run of rows each time the
//! socket drains — whose rows an inline plane reads straight off its shard
//! columns (a threaded plane's come from its shared snapshot), and the
//! client decodes rows off the socket into the final table, so neither
//! side ever holds the wire body and an inline server holds no table. A
//! request that would change the plane while such a body is in flight
//! first reads the body's remaining rows into a table of their own, so a
//! body is always the snapshot at its request. This file pins what that
//! must not change (the bytes, the decoded value, every typed error) and
//! what it must guarantee (frame order behind a body in flight, a body
//! untouched by the requests behind it, a connection left in sync by an
//! undecodable body, a stalled reader costing one refill, an inline poll
//! costing one table and no body, a threaded one two tables, a by-value
//! threaded snapshot one, a process image cut once).
//!
//! Several tests read a byte-counting global allocator, so every test
//! here runs under [`serial`].

use cdba_ctrl::codec::CodecError;
use cdba_ctrl::{ControlPlane, ExecMode, ServiceConfig, ServiceSnapshot, SessionMetrics};
use cdba_gateway::codec::{
    decode_gateway_snapshot, encode_gateway_snapshot, read_gateway_snapshot, SnapshotStream,
};
use cdba_gateway::proto::{self, encode, Frame};
use cdba_gateway::{
    Client, GatewayConfig, GatewayServer, GatewaySnapshot, WireSnapshot, WireStats,
};
use cdba_integration::{image_frames, LiveBytesAlloc};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

#[global_allocator]
static HEAP: LiveBytesAlloc = LiveBytesAlloc::new();

static SERIAL: Mutex<()> = Mutex::new(());

/// One test at a time: the allocator counts the whole process.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The server's refill constant (`server::STREAM_REFILL`) and the write
/// buffer it may keep (`server::OUTBUF_KEEP`).
const REFILL: usize = 256 * 1024;
const KEEP: usize = 64 * 1024;

fn service(sessions: usize) -> ServiceConfig {
    service_on(sessions, 1, ExecMode::Inline)
}

fn service_on(sessions: usize, shards: usize, exec: ExecMode) -> ServiceConfig {
    ServiceConfig::builder(sessions as f64 * 32.0)
        .session_b_max(16.0)
        .offline_delay(4)
        .window(4)
        .shards(shards)
        .exec(exec)
        .build()
        .expect("valid config")
}

/// A plane with every row shape: pooled members, dedicated sessions with
/// a full window (`Some` utilisation), one admitted after the last tick
/// (`None`), and a retired session.
fn mixed_plane(dedicated: usize, shards: usize) -> ControlPlane {
    let mut plane = ControlPlane::new(service_on(dedicated + 8, shards, ExecMode::Inline));
    let mut keys = plane.admit_group("initech", 3).expect("group");
    for i in 0..dedicated {
        keys.push(plane.admit(["acme", "globex"][i % 2]).expect("admit"));
    }
    plane.leave(keys[4]).expect("leave");
    keys.remove(4);
    for t in 0..12u64 {
        let arrivals: Vec<(u64, f64)> = keys.iter().map(|&k| (k, ((k + t) % 3) as f64)).collect();
        plane.tick(&arrivals).expect("tick");
    }
    plane.admit("umbrella").expect("late admit");
    plane
}

/// Wire counters with two occupied latency buckets.
fn wire_counters() -> WireSnapshot {
    let wire = WireStats::new();
    wire.frames_in.store(40, Ordering::Relaxed);
    wire.latency.record(12);
    wire.latency.record(140);
    wire.snapshot()
}

/// [`mixed_plane`]'s snapshot beside [`wire_counters`].
fn mixed_snapshot(dedicated: usize) -> GatewaySnapshot {
    let mut plane = mixed_plane(dedicated, 1);
    let service = plane.snapshot().expect("snapshot");
    plane.shutdown();
    let utilisation = |m: &SessionMetrics| m.windowed_utilization.is_some();
    assert!(service.sessions.iter().any(utilisation));
    assert!(!service.sessions.iter().all(utilisation));
    GatewaySnapshot {
        service,
        wire: wire_counters(),
    }
}

#[test]
fn streamed_bytes_equal_the_slice_encoder_at_every_refill_budget() {
    let _serial = serial();
    let snap = mixed_snapshot(6);
    let whole = encode_gateway_snapshot(&snap);
    for budget in 1..=whole.len() + 1 {
        let mut stream = SnapshotStream::new(&snap.service, &snap.wire);
        assert_eq!(stream.left(), whole.len());
        let (mut streamed, mut run) = (Vec::new(), Vec::new());
        loop {
            run.clear();
            let done = stream.refill(None, &mut run, budget);
            assert!(!run.is_empty(), "budget {budget}: a refill makes progress");
            streamed.extend_from_slice(&run);
            assert_eq!(stream.left(), whole.len() - streamed.len());
            if done {
                break;
            }
        }
        assert_eq!(streamed, whole, "budget {budget}");
    }
}

/// Refills `stream` at `budget` until it completes, checking each run.
fn stream_all<S: std::ops::Deref<Target = ServiceSnapshot>>(
    stream: &mut SnapshotStream<S>,
    plane: Option<&ControlPlane>,
    budget: usize,
) -> Vec<u8> {
    let (mut streamed, mut run) = (Vec::new(), Vec::new());
    loop {
        run.clear();
        let done = stream.refill(plane, &mut run, budget);
        assert!(!run.is_empty(), "budget {budget}: a refill makes progress");
        streamed.extend_from_slice(&run);
        if done {
            return streamed;
        }
    }
}

/// An inline plane's rows read off its shard columns encode to the bytes
/// of its snapshot's table, at every refill budget, frozen part way or
/// not: on [`mixed_plane`], and on three shards whose retired lists are
/// out of key order and whose keys include one leased away.
#[test]
fn a_live_body_is_the_table_encoded_body_at_every_refill_budget() {
    let _serial = serial();
    let wire = wire_counters();
    let mut churned = mixed_plane(9, 3);
    let keys: Vec<u64> = (6..12).rev().collect();
    for &key in &keys[..4] {
        churned.leave(key).expect("leave");
    }
    churned.export_session(keys[4]).expect("leased away");
    let arrivals: Vec<(u64, f64)> = (0..3).map(|k| (k, 0.5)).collect();
    churned.tick(&arrivals).expect("retiring tick");
    for (what, mut plane) in [("mixed", mixed_plane(6, 1)), ("churned", churned)] {
        let service = plane.snapshot().expect("snapshot");
        let whole = encode_gateway_snapshot(&GatewaySnapshot {
            service: service.clone(),
            wire: wire.clone(),
        });
        for budget in 1..=whole.len() + 1 {
            let live = plane.snapshot_rows().expect("an inline plane");
            assert_eq!(live.cursor.left(), service.sessions.len(), "{what}");
            let mut stream = SnapshotStream::<&ServiceSnapshot>::live(live, &wire);
            assert_eq!(stream.left(), whole.len(), "{what}");
            let streamed = stream_all(&mut stream, Some(&plane), budget);
            assert_eq!(streamed, whole, "{what}, budget {budget}");

            // Frozen after its first run: the rest comes from the plane's
            // shared snapshot, from the row the body stands at.
            let live = plane.snapshot_rows().expect("an inline plane");
            let mut stream = SnapshotStream::<Arc<ServiceSnapshot>>::live(live, &wire);
            let mut frozen = Vec::new();
            let done = stream.refill(Some(&plane), &mut frozen, budget);
            stream.freeze(&mut plane);
            if !done {
                frozen.extend(stream_all(&mut stream, None, budget));
            }
            assert_eq!(frozen, whole, "{what}, frozen at budget {budget}");
        }
        assert!(service.sessions.iter().any(|m| m.shard == 2) || what == "mixed");
        plane.shutdown();
    }
}

/// A reader that hands out at most `step` bytes a call.
struct Trickle<'a> {
    bytes: &'a [u8],
    step: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.step.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

fn trickled(bytes: &[u8], step: usize) -> Result<GatewaySnapshot, CodecError> {
    let mut src = Trickle { bytes, step };
    let decoded = read_gateway_snapshot(&mut src, bytes.len()).expect("the source holds the body");
    assert!(src.bytes.is_empty(), "the body is read to its end");
    decoded
}

#[test]
fn chunked_decode_equals_slice_decode_and_rejects_what_it_rejects() {
    let _serial = serial();
    let snap = mixed_snapshot(6);
    let whole = encode_gateway_snapshot(&snap);
    assert_eq!(decode_gateway_snapshot(&whole), Ok(snap.clone()));
    for step in 1..=whole.len() {
        assert_eq!(trickled(&whole, step), Ok(snap.clone()), "step {step}");
    }

    // The row count is where this body first differs from the same
    // snapshot's with no rows.
    let mut rowless = snap.clone();
    rowless.service.sessions.clear();
    let rowless = encode_gateway_snapshot(&rowless);
    let count_at = (0..whole.len())
        .find(|&i| whole[i] != rowless[i])
        .expect("the bodies differ");
    let rows = snap.service.sessions.len() as u32;
    assert_eq!(whole[count_at..count_at + 4], rows.to_le_bytes());

    let mut hostile: Vec<(&str, Vec<u8>)> = Vec::new();
    for cut in 0..whole.len() {
        hostile.push(("truncated", whole[..cut].to_vec()));
    }
    hostile.push(("trailing byte", [&whole[..], &[0]].concat()));
    let mut version = whole.clone();
    version[0] += 1;
    hostile.push(("wrong version", version));
    for count in [rows + 1, rows - 1, 1 << 20, u32::MAX] {
        let mut counted = whole.clone();
        counted[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
        hostile.push(("hostile row count", counted));
    }
    let mut tag = whole.clone();
    let last_row_tag = whole.len() - rowless.len() + count_at + 4 - 17;
    assert_eq!(tag[last_row_tag], 0, "the late admit has no utilisation");
    tag[last_row_tag] = 2;
    hostile.push(("bad option tag", tag));

    for (what, body) in &hostile {
        let expected = decode_gateway_snapshot(body).expect_err(what);
        for step in [1, 2, 7, 64, body.len().max(1)] {
            assert_eq!(
                trickled(body, step),
                Err(expected.clone()),
                "{what}, {} bytes, step {step}",
                body.len()
            );
        }
    }
    assert_eq!(
        decode_gateway_snapshot(&hostile[whole.len()].1),
        Err(CodecError::Trailing(1))
    );
    assert!(matches!(
        decode_gateway_snapshot(&hostile[whole.len() + 1].1),
        Err(CodecError::BadVersion(_))
    ));
    assert_eq!(
        decode_gateway_snapshot(&hostile.last().expect("pushed").1),
        Err(CodecError::BadTag(2))
    );
}

fn gateway(sessions: usize) -> GatewayServer {
    GatewayServer::start(service(sessions), GatewayConfig::default()).expect("gateway starts")
}

fn raw_connect(server: &GatewayServer) -> TcpStream {
    let mut stream = TcpStream::connect(server.local_addr()).expect("raw connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    // Two requests written back to back must not wait out Nagle.
    stream.set_nodelay(true).expect("nodelay");
    let hello = Frame::Hello {
        magic: proto::MAGIC,
        version: proto::VERSION,
    };
    stream.write_all(&encode(&hello)).expect("hello");
    assert!(matches!(raw_recv(&mut stream), Frame::HelloOk { .. }));
    stream
}

fn raw_send(stream: &mut TcpStream, frame: &Frame) {
    stream.write_all(&encode(frame)).expect("raw write");
}

fn raw_recv(stream: &mut TcpStream) -> Frame {
    let mut head = [0u8; 4];
    stream.read_exact(&mut head).expect("frame header");
    let mut body = vec![0u8; u32::from_le_bytes(head) as usize];
    stream.read_exact(&mut body).expect("frame body");
    proto::decode_payload(bytes::Bytes::from(body)).expect("server frames decode")
}

/// Sessions whose rows make a body far larger than what loopback sockets
/// buffer for a peer that is not reading: 2 KiB of tenant name a row.
const WIDE: usize = 6_000;

fn wide_tenant(i: usize) -> String {
    format!("{:x<2047}{}", "tenant-", i % 4)
}

/// A gateway with a raw connection (made first, so the core serves it
/// ahead of the client in every pass) and a client that has joined
/// [`WIDE`] wide-named sessions.
fn wide_gateway() -> (GatewayServer, TcpStream, Client, Vec<u64>) {
    let server = gateway(WIDE + 8);
    let raw = raw_connect(&server);
    let mut client = Client::connect(server.local_addr()).expect("client connects");
    let keys = (0..WIDE)
        .map(|i| client.join(&wide_tenant(i)).expect("join"))
        .collect();
    (server, raw, client, keys)
}

#[test]
fn frames_queued_while_a_body_is_in_flight_follow_it_intact() {
    let _serial = serial();
    let (server, mut raw, mut client, keys) = wide_gateway();
    raw_send(
        &mut raw,
        &Frame::Join {
            id: 2,
            tenant: "acme".into(),
        },
    );
    let Frame::Joined { key: own, .. } = raw_recv(&mut raw) else {
        panic!("expected joined");
    };

    // A commit parked for one more arrival, then a poll nobody reads: the
    // body is in flight when the client's arrival releases the commit.
    raw_send(
        &mut raw,
        &Frame::TickSync {
            id: 3,
            arrivals: vec![(own, 1.0)],
            min_staged: 2,
        },
    );
    raw_send(&mut raw, &Frame::SnapshotBin { id: 4 });
    client.stage_noack(&[(keys[0], 2.0)]).expect("stage");
    // An acknowledged request behind it: the core has handled both, so
    // this commit is the second.
    assert_eq!(client.tick(&[]).expect("tick-ok"), 2);

    let bytes = match raw_recv(&mut raw) {
        Frame::SnapshotBinOk { id: 4, bytes } => bytes,
        other => panic!("the body comes first, not {other:?}"),
    };
    assert!(bytes.len() > 12 << 20, "a {}-byte body", bytes.len());
    let snap = decode_gateway_snapshot(&bytes).expect("the body is whole");
    assert_eq!(snap.service.sessions.len(), WIDE + 1);
    assert_eq!(snap.service.ticks, 0, "taken before the commit");
    assert_eq!(raw_recv(&mut raw), Frame::TickOk { id: 3, tick: 1 });

    client.goodbye().expect("goodbye");
    let last = server.shutdown().expect("shutdown");
    assert_eq!(last.wire.decode_errors, 0);
}

#[test]
fn a_stalled_reader_costs_one_refill_and_delays_nobody() {
    let _serial = serial();
    let (server, mut raw, mut client, keys) = wide_gateway();
    let arrivals: Vec<(u64, f64)> = keys.iter().map(|&k| (k, 1.0)).collect();
    client.tick_sync(&arrivals, WIDE as u32).expect("warm tick");
    let table = client.snapshot_bin().expect("poll").service.sessions.len()
        * std::mem::size_of::<SessionMetrics>();
    client.tick_sync(&arrivals, WIDE as u32).expect("tick");

    let before = HEAP.live();
    raw_send(&mut raw, &Frame::SnapshotBin { id: 1 });
    let mut first = [0u8; 1024];
    raw.read_exact(&mut first).expect("the reply starts");
    HEAP.reset_peak();
    let stalled = Instant::now();
    let mut slowest = Duration::ZERO;
    while stalled.elapsed() < Duration::from_millis(200) {
        let sent = Instant::now();
        client.tick_sync(&arrivals, WIDE as u32).expect("tick");
        slowest = slowest.max(sent.elapsed());
    }
    let held = HEAP.peak().saturating_sub(before);
    assert!(
        slowest < Duration::from_millis(100),
        "a tick took {slowest:?} beside a stalled reader"
    );
    // The shared table, the stalled connection's write buffer, and the
    // ticking client's own frames (two 96 KB batches and their staging).
    assert!(
        held <= table + REFILL + KEEP + (512 << 10),
        "{held} bytes held for a stalled reader; the table is {table}"
    );

    let declared = u32::from_le_bytes(first[..4].try_into().expect("4 bytes")) as usize;
    let mut payload = first[4..].to_vec();
    payload.resize(declared, 0);
    raw.read_exact(&mut payload[first.len() - 4..])
        .expect("the rest of the body");
    let Frame::SnapshotBinOk { bytes, .. } =
        proto::decode_payload(bytes::Bytes::from(payload)).expect("decodes")
    else {
        panic!("expected snapshot-bin-ok");
    };
    let snap = decode_gateway_snapshot(&bytes).expect("the body is whole");
    assert_eq!(snap.service.sessions.len(), WIDE);
    assert_eq!(snap.service.ticks, 2, "as of the request, not the last row");

    client.goodbye().expect("goodbye");
    server.shutdown().expect("shutdown");
}

#[test]
fn an_undecodable_body_leaves_the_connection_in_sync() {
    let _serial = serial();
    // A body several read buffers long with one tenant name, two thirds
    // in, that is not UTF-8.
    let mut body = encode_gateway_snapshot(&mixed_snapshot(3_000));
    let at = (body.len() * 2 / 3..body.len())
        .find(|&i| body[i..].starts_with(b"globex"))
        .expect("a tenant name");
    body[at] = 0xFF;
    let expected = decode_gateway_snapshot(&body).expect_err("bad utf-8");
    assert_eq!(expected, CodecError::BadUtf8);

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let fake = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        assert!(matches!(raw_recv(&mut conn), Frame::Hello { .. }));
        raw_send(
            &mut conn,
            &Frame::HelloOk {
                version: proto::VERSION,
            },
        );
        let Frame::SnapshotBin { id } = raw_recv(&mut conn) else {
            panic!("expected snapshot-bin");
        };
        raw_send(&mut conn, &Frame::SnapshotBinOk { id, bytes: body });
        let Frame::Leave { id, key: 7 } = raw_recv(&mut conn) else {
            panic!("expected leave");
        };
        raw_send(&mut conn, &Frame::LeaveOk { id });
    });
    let mut client = Client::connect(addr).expect("connect");
    let err = client.snapshot_bin().expect_err("the body does not decode");
    assert_eq!(
        err,
        cdba_gateway::ClientError::Codec(expected.to_string()),
        "the streamed decode names the slice decoder's error"
    );
    client.leave(7).expect("the next request finds its reply");
    fake.join().expect("fake server");
}

/// A gateway over `exec` with [`SESSIONS`] sessions of three tenants
/// named `width` bytes long that have ticked six times, and the client
/// that owns them.
fn polled_gateway(exec: ExecMode, width: usize) -> (GatewayServer, Client) {
    let server = GatewayServer::start(service_on(SESSIONS, 1, exec), GatewayConfig::default())
        .expect("gateway starts");
    let mut client = Client::connect(server.local_addr()).expect("client connects");
    let tenants: Vec<String> = (0..3)
        .map(|t| format!("{:x<width$}", format!("tenant-{t}-")))
        .collect();
    let arrivals: Vec<(u64, f64)> = (0..SESSIONS)
        .map(|i| (client.join(&tenants[i % 3]).expect("join"), 1.0))
        .collect();
    for _ in 0..6 {
        client.tick_sync(&arrivals, SESSIONS as u32).expect("tick");
    }
    (server, client)
}

const SESSIONS: usize = 20_000;

/// What one poll raises the live heap by, the table it decodes to, and
/// its body's length.
fn poll_cost(client: &mut Client) -> (usize, usize, usize) {
    HEAP.reset_peak();
    let before = HEAP.live();
    let snap = client.snapshot_bin().expect("poll");
    let raised = HEAP.peak().saturating_sub(before);
    assert_eq!(snap.service.sessions.len(), SESSIONS);
    let table = snap.service.sessions.len() * std::mem::size_of::<SessionMetrics>();
    let body = encode_gateway_snapshot(&snap).len();
    assert!(body > 2 << 20, "a body worth not holding: {body} bytes");
    (raised, table, body)
}

/// An inline server reads the rows off its shard columns as the socket
/// drains, so a poll holds one table: the client's. At the parent commit
/// the server's shared snapshot was a second.
#[test]
fn an_inline_poll_holds_one_table_and_no_body() {
    let _serial = serial();
    let (server, mut client) = polled_gateway(ExecMode::Inline, 8);
    let (raised, table, body) = poll_cost(&mut client);
    assert!(
        raised <= table + (1 << 20),
        "one poll raised the live heap by {raised} bytes: a table is {table}, the body {body}"
    );
    client.goodbye().expect("goodbye");
    server.shutdown().expect("shutdown");
}

/// A threaded plane's rows live on its workers: the poll streams from
/// the shared snapshot they were collected into, so a poll holds two
/// tables — that one and the client's — and still no body.
#[test]
fn a_threaded_poll_holds_two_tables_and_no_body() {
    let _serial = serial();
    let (server, mut client) = polled_gateway(ExecMode::Threaded, 8);
    let (raised, table, body) = poll_cost(&mut client);
    assert!(
        raised <= 2 * table + (1 << 20),
        "one poll raised the live heap by {raised} bytes: tables are {table} each, the body {body}"
    );
    client.goodbye().expect("goodbye");
    server.shutdown().expect("shutdown");
}

/// A by-value snapshot of a threaded plane holds one table: each shard
/// streams its rows into a table sized once for every shard's live and
/// retired rows. When the first shard's report grew to take the others',
/// it held 1.5 tables.
#[test]
fn a_threaded_snapshot_holds_one_table() {
    let _serial = serial();
    for shards in [2, 4] {
        let mut plane = ControlPlane::new(service_on(SESSIONS, shards, ExecMode::Threaded));
        let keys: Vec<u64> = (0..SESSIONS)
            .map(|i| plane.admit(["acme", "globex"][i % 2]).expect("admit"))
            .collect();
        for &key in keys.iter().step_by(10) {
            plane.leave(key).expect("leave"); // retired rows too
        }
        let live: Vec<(u64, f64)> = keys.iter().skip(1).step_by(10).map(|&k| (k, 1.0)).collect();
        plane.tick(&live).expect("tick");
        drop(plane.snapshot().expect("the tick lands"));
        HEAP.reset_peak();
        let before = HEAP.live();
        let snap = plane.snapshot().expect("snapshot");
        let raised = HEAP.peak().saturating_sub(before);
        let table = snap.sessions.len() * std::mem::size_of::<SessionMetrics>();
        assert_eq!(snap.sessions.len(), SESSIONS);
        assert!(
            raised <= table + (1 << 20),
            "{shards} shards: a snapshot raised the live heap by {raised} bytes for a \
             {table}-byte table"
        );
        drop(snap);
        plane.shutdown();
    }
}

/// A process image is cut onto the end of the caller's buffer. An inline
/// shard's frame is encoded straight into it, so an inline cut raises the
/// live heap by the image and the frame encoder's scratch (under a
/// quarter of a frame; at four shards, 1.54 images when each frame's
/// length prefix grew the buffer by doubling). A threaded shard's frame is written by its worker
/// and appended as it arrives, so a threaded cut holds one frame besides,
/// bar the few hundred bytes its fan-out takes (16 KiB allowed). When
/// every frame was gathered first and then copied behind the header, an
/// inline cut held the image twice: 3.68 MB for a 1.84 MB image.
#[test]
fn a_cut_holds_the_image_and_at_most_one_shard_frame() {
    let _serial = serial();
    for (exec, shards) in [
        (ExecMode::Inline, 1),
        (ExecMode::Inline, 4),
        (ExecMode::Threaded, 1),
    ] {
        let mut plane = ControlPlane::new(service_on(SESSIONS, shards, exec));
        let live: Vec<(u64, f64)> = (0..SESSIONS)
            .map(|i| (plane.admit(["acme", "globex"][i % 2]).expect("admit"), 1.0))
            .collect();
        for _ in 0..4 {
            plane.tick(&live).expect("tick");
        }
        // The first cut lands the ticks and warms the worker's encoder.
        plane.cut_image(&mut Vec::new()).expect("first cut");
        HEAP.reset_peak();
        let before = HEAP.live();
        let mut image = Vec::new();
        plane.cut_image(&mut image).expect("cut");
        let raised = HEAP.peak().saturating_sub(before);
        let frame = image_frames(&image)[0].len();
        let allowed = match exec {
            ExecMode::Inline => image.len() + frame / 4,
            ExecMode::Threaded => image.len() + frame + (16 << 10),
        };
        assert!(
            raised <= allowed,
            "{exec:?} over {shards} shard(s): a cut raised the live heap by {raised} bytes \
             for a {}-byte image, {frame} bytes in its first frame",
            image.len()
        );
        plane.shutdown();
    }
}

/// The float-exact identity of a snapshot's service part.
fn bits(snap: &ServiceSnapshot) -> Vec<u64> {
    let g = &snap.global;
    let mut bits = vec![
        snap.ticks,
        snap.admitted,
        snap.sessions.len() as u64,
        g.changes,
        g.total_arrived.to_bits(),
        g.total_allocated.to_bits(),
        g.signalling_cost.to_bits(),
        g.bandwidth_cost.to_bits(),
        g.min_windowed_utilization.map_or(0, f64::to_bits),
    ];
    for m in &snap.sessions {
        bits.extend([
            m.session,
            m.ticks,
            m.changes,
            m.max_delay,
            m.peak_allocation.to_bits(),
            m.total_arrived.to_bits(),
            m.total_served.to_bits(),
            m.total_allocated.to_bits(),
            m.windowed_utilization.map_or(0, f64::to_bits),
            m.signalling_cost.to_bits(),
            m.bandwidth_cost.to_bits(),
        ]);
    }
    bits
}

/// Reads the rest of a `SnapshotBinOk` whose first bytes are `first` off
/// `stream` and decodes its body.
fn finish_body(stream: &mut TcpStream, first: &[u8]) -> Vec<u8> {
    let declared = u32::from_le_bytes(first[..4].try_into().expect("4 bytes")) as usize;
    let mut payload = first[4..].to_vec();
    payload.resize(declared, 0);
    stream
        .read_exact(&mut payload[first.len() - 4..])
        .expect("the rest of the body");
    let Frame::SnapshotBinOk { id: 1, bytes } =
        proto::decode_payload(bytes::Bytes::from(payload)).expect("decodes")
    else {
        panic!("expected snapshot-bin-ok");
    };
    bytes
}

/// Connections A1 and A2 poll and do not read; connection B then joins,
/// leaves and ticks, each of which would change the rows their bodies are
/// read from. Each body is the snapshot at its request all the same — bit
/// for bit the one B took just before — and B's requests land after
/// them. Tenant names of 600 bytes make a body far larger than what
/// loopback sockets buffer for a peer that is not reading, so both are
/// still being read off the plane when B's requests arrive; both move
/// onto one shared table then, so two stalled pollers hold one table.
#[test]
fn requests_behind_a_live_body_do_not_change_it() {
    let _serial = serial();
    let (server, mut b) = polled_gateway(ExecMode::Inline, 600);
    let before = b.snapshot_bin().expect("poll").service;
    let table = before.sessions.len() * std::mem::size_of::<SessionMetrics>();
    let mut pollers = [raw_connect(&server), raw_connect(&server)];
    let mut firsts = [[0u8; 1024]; 2];
    HEAP.reset_peak();
    let start = HEAP.live();
    for (a, first) in pollers.iter_mut().zip(&mut firsts) {
        raw_send(a, &Frame::SnapshotBin { id: 1 });
        a.read_exact(first).expect("the reply starts");
    }

    let joined = b.join("umbrella").expect("join");
    assert_eq!(joined, SESSIONS as u64, "a fresh key");
    b.leave(0).expect("leave");
    let arrivals: Vec<(u64, f64)> = (1..=SESSIONS as u64).map(|k| (k, 2.0)).collect();
    assert_eq!(b.tick_sync(&arrivals, SESSIONS as u32).expect("tick"), 7);
    let held = HEAP.peak().saturating_sub(start);
    // The one shared table, the pollers' write buffers, and the ticking
    // client's frame and its staging.
    assert!(
        held <= table + 2 * REFILL + (1 << 20),
        "{held} bytes held for two stalled pollers; the table is {table}"
    );

    for (a, first) in pollers.iter_mut().zip(&firsts) {
        let bytes = finish_body(a, first);
        assert!(bytes.len() > 12 << 20, "a {}-byte body", bytes.len());
        let polled = decode_gateway_snapshot(&bytes)
            .expect("the body is whole")
            .service;
        assert_eq!(
            bits(&polled),
            bits(&before),
            "the body is the snapshot at its request"
        );
        assert_eq!(polled, before);
    }

    let after = b.snapshot_bin().expect("poll").service;
    assert_eq!(after.ticks, 7);
    assert_eq!(after.sessions.len(), SESSIONS + 1);
    assert_eq!(
        after.sessions[0].ticks, 6,
        "left before the tick: not metered by it"
    );
    b.goodbye().expect("goodbye");
    server.shutdown().expect("shutdown");
}

/// A by-value snapshot hands over the table it builds or the one the
/// plane cached: it holds one table, not that one and a copy.
#[test]
fn a_by_value_snapshot_holds_one_table() {
    let _serial = serial();
    let mut plane = ControlPlane::new(service_on(SESSIONS, 2, ExecMode::Inline));
    let keys: Vec<u64> = (0..SESSIONS)
        .map(|i| plane.admit(["acme", "globex"][i % 2]).expect("admit"))
        .collect();
    let arrivals: Vec<(u64, f64)> = keys.iter().map(|&k| (k, 1.0)).collect();
    for _ in 0..4 {
        plane.tick(&arrivals).expect("tick");
    }
    let table = SESSIONS * std::mem::size_of::<SessionMetrics>();
    for cached in [false, true] {
        if cached {
            drop(plane.snapshot_shared().expect("cached"));
        }
        HEAP.reset_peak();
        let before = HEAP.live();
        let snap = plane.snapshot().expect("snapshot");
        let raised = HEAP.peak().saturating_sub(before);
        assert_eq!(snap.sessions.len(), SESSIONS);
        assert!(
            raised <= table + (1 << 20),
            "cached: {cached}: one snapshot raised the live heap by {raised} bytes; a table is {table}"
        );
        drop(snap);
    }
    // Shared elsewhere, the cache is copied and kept.
    let shared = plane.snapshot_shared().expect("cached");
    assert_eq!(plane.snapshot().expect("copied"), *shared);
    assert!(std::sync::Arc::ptr_eq(
        &shared,
        &plane.snapshot_shared().expect("kept")
    ));
    plane.shutdown();
}
