//! A length prefix is four bytes of promise. Both frame readers — the
//! server's per-connection accumulator and the client's reply reader —
//! used to allocate the *declared* body (up to `MAX_FRAME` = 64 MiB) the
//! moment the header arrived, so 24 idle connections that sent nothing
//! else could commit 1.5 GiB. The body buffer now grows with the bytes
//! actually received; this file holds both readers to that with a
//! byte-counting global allocator (hence its single `#[test]`).

use cdba_ctrl::ServiceConfig;
use cdba_gateway::proto::{self, Frame, MAX_FRAME};
use cdba_gateway::{Client, ClientConfig, GatewayConfig, GatewayServer};
use cdba_integration::LiveBytesAlloc;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

#[global_allocator]
static HEAP: LiveBytesAlloc = LiveBytesAlloc::new();

/// What 24 header-only peers may cost in total; the old readers cost
/// 24 × 64 MiB.
const BUDGET: usize = 16 << 20;

#[test]
fn a_bare_header_commits_a_read_step_not_the_declared_body() {
    let service = ServiceConfig::builder(1024.0)
        .build()
        .expect("valid config");
    // Room for the 24 peers and the probe.
    let gateway = GatewayConfig {
        max_connections: 25,
        ..GatewayConfig::default()
    };
    let server = GatewayServer::start(service, gateway).expect("gateway starts");
    let header = (MAX_FRAME as u32).to_le_bytes();

    // Server side: 24 peers shake hands, then promise 64 MiB and go quiet.
    HEAP.reset_peak();
    let before = HEAP.live();
    let peers: Vec<TcpStream> = (0..24)
        .map(|_| {
            let mut peer = TcpStream::connect(server.local_addr()).expect("connect");
            let hello = Frame::Hello {
                magic: proto::MAGIC,
                version: proto::VERSION,
            };
            peer.write_all(&proto::encode(&hello)).expect("hello");
            let mut ok = [0u8; 6]; // prefix + kind + version
            peer.read_exact(&mut ok).expect("hello-ok");
            peer.write_all(&header).expect("bare header");
            peer
        })
        .collect();
    // A live client's round trip proves the core has polled every peer
    // since the headers landed.
    let mut probe = Client::connect(server.local_addr()).expect("probe connects");
    for _ in 0..3 {
        probe.snapshot_bin().expect("probe round trip");
    }
    let grown = HEAP.peak().saturating_sub(before);
    assert!(
        grown < BUDGET,
        "24 header-only peers cost the server {grown} bytes"
    );
    drop(peers);
    probe.goodbye().expect("goodbye");
    server.shutdown().expect("shutdown");

    // Client side: a server whose hello reply is a bare 64 MiB header.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let hostile = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        conn.write_all(&header).expect("bare header");
        let mut sink = [0u8; 64];
        while conn.read(&mut sink).is_ok_and(|n| n > 0) {}
    });
    HEAP.reset_peak();
    let before = HEAP.live();
    let cfg = ClientConfig {
        read_timeout_ms: 200,
        ..ClientConfig::default()
    };
    let err = Client::connect_with(addr, cfg).expect_err("the reply never completes");
    assert!(err.to_string().contains("mid-frame"), "{err}");
    let grown = HEAP.peak().saturating_sub(before);
    assert!(
        grown < BUDGET / 24,
        "a header-only reply cost the client {grown} bytes"
    );
    hostile
        .join()
        .expect("hostile server exits once the client hangs up");
}
