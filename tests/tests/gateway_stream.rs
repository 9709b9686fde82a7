//! A snapshot poll holds the table once per side. The server answers
//! `snapshot_bin` with a stream over the control plane's shared snapshot —
//! the frame head, then a bounded run of rows each time the socket drains
//! — and the client decodes rows off the socket into the final table, so
//! neither side ever holds the wire body. This file pins what that must
//! not change (the bytes, the decoded value, every typed error) and what
//! it must guarantee (frame order behind a body in flight, a connection
//! left in sync by an undecodable body, a stalled reader costing one
//! refill, a poll costing two tables and no bodies).
//!
//! Two tests read a byte-counting global allocator, so every test here
//! runs under [`serial`].

use cdba_ctrl::codec::CodecError;
use cdba_ctrl::{ControlPlane, ExecMode, ServiceConfig, SessionMetrics};
use cdba_gateway::codec::{
    decode_gateway_snapshot, encode_gateway_snapshot, read_gateway_snapshot, SnapshotStream,
};
use cdba_gateway::proto::{self, encode, Frame};
use cdba_gateway::{Client, GatewayConfig, GatewayServer, GatewaySnapshot, WireStats};
use cdba_integration::LiveBytesAlloc;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Mutex, MutexGuard};
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
    ServiceConfig::builder(sessions as f64 * 32.0)
        .session_b_max(16.0)
        .offline_delay(4)
        .window(4)
        .exec(ExecMode::Inline)
        .build()
        .expect("valid config")
}

/// A snapshot with every row shape: pooled members, dedicated sessions
/// with a full window (`Some` utilisation), one admitted after the last
/// tick (`None`), and a retired session.
fn mixed_snapshot(dedicated: usize) -> GatewaySnapshot {
    let mut plane = ControlPlane::new(service(dedicated + 8));
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
    let service = plane.snapshot().expect("snapshot");
    plane.shutdown();
    let utilisation = |m: &SessionMetrics| m.windowed_utilization.is_some();
    assert!(service.sessions.iter().any(utilisation));
    assert!(!service.sessions.iter().all(utilisation));
    // Wire counters with two occupied latency buckets.
    let wire = WireStats::new();
    wire.frames_in.store(40, Ordering::Relaxed);
    wire.latency.record(12);
    wire.latency.record(140);
    GatewaySnapshot {
        service,
        wire: wire.snapshot(),
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
            let done = stream.refill(&mut run, budget);
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
    let cfg = GatewayConfig {
        read_timeout_ms: 5,
        ..GatewayConfig::default()
    };
    GatewayServer::start(service(sessions), cfg).expect("gateway starts")
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
    raw_send(&mut raw, &Frame::Subscribe { id: 1, every: 1 });
    assert_eq!(raw_recv(&mut raw), Frame::SubscribeOk { id: 1 });
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
    assert!(matches!(raw_recv(&mut raw), Frame::Event { tick: 1, .. }));
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

#[test]
fn a_poll_holds_two_tables_and_no_body() {
    let _serial = serial();
    const SESSIONS: usize = 20_000;
    let server = gateway(SESSIONS);
    let mut client = Client::connect(server.local_addr()).expect("client connects");
    let arrivals: Vec<(u64, f64)> = (0..SESSIONS)
        .map(|i| {
            (
                client
                    .join(["acme", "globex", "initech"][i % 3])
                    .expect("join"),
                1.0,
            )
        })
        .collect();
    for _ in 0..6 {
        client.tick_sync(&arrivals, SESSIONS as u32).expect("tick");
    }

    // The first poll: no earlier snapshot is cached on the server side.
    HEAP.reset_peak();
    let before = HEAP.live();
    let snap = client.snapshot_bin().expect("poll");
    let raised = HEAP.peak().saturating_sub(before);
    let table = snap.service.sessions.len() * std::mem::size_of::<SessionMetrics>();
    let body = encode_gateway_snapshot(&snap).len();
    assert_eq!(snap.service.sessions.len(), SESSIONS);
    // Shared on the server, decoded here; at the parent commit the body
    // sat whole in the server's write buffer and again in the client.
    assert!(
        raised <= 2 * table + (1 << 20),
        "one poll raised the live heap by {raised} bytes: tables are {table} each, the body {body}"
    );
    assert!(body > 2 << 20, "a body worth not holding: {body} bytes");

    client.goodbye().expect("goodbye");
    server.shutdown().expect("shutdown");
}
