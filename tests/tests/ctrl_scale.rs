//! Wall-clock scale checks, release-only: the debug build is far too slow
//! for a million-session frame, and a debug-build timing says nothing.
//!
//! ```text
//! cargo test --release -p cdba-integration --test ctrl_scale -- --ignored --nocapture
//! ```
//!
//! Both hold on any host: the ceilings are generous enough for any CI
//! runner yet far below a hung or quadratic codec, and the threaded
//! comparison needs only a second core. The two tests run one at a time,
//! so the million-session cell never steals the comparison's second core.

use cdba_bench::{drive, tick_service};
use cdba_ctrl::{CheckpointMirror, CheckpointProbe, ExecMode, ServiceConfig};
use std::sync::Mutex;
use std::time::Instant;

static SERIAL: Mutex<()> = Mutex::new(());

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// A million-session probe shard encodes its checkpoint frame in under
/// 5 s, and a fresh mirror restores it in under 60 s.
#[test]
#[ignore = "release-only wall-clock"]
fn a_million_session_frame_encodes_and_restores_inside_its_ceilings() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const SESSIONS: usize = 1_000_000;
    // A narrow window keeps probe, frame and mirror resident at once
    // (~1.3 GB peak) inside CI memory.
    let cfg = ServiceConfig::builder(SESSIONS as f64 * 16.0)
        .session_b_max(16.0)
        .group_b_o(8.0)
        .offline_delay(4)
        .window(8)
        .build()
        .expect("valid service config");
    let mut probe = CheckpointProbe::new(&cfg);
    probe.populate(SESSIONS);
    probe.tick(4);
    let mut frame = Vec::new();
    // The first encode grows the column buffers; the timed one is the
    // steady-state pass a live worker runs.
    probe.encode(true, &mut frame);
    let started = Instant::now();
    let rows = probe.encode(true, &mut frame);
    let encode_ms = ms_since(started);
    assert_eq!(rows as usize, SESSIONS, "a frame carries the population");

    let mut mirror = CheckpointMirror::new(&cfg);
    let started = Instant::now();
    mirror.apply(&frame).expect("the frame applies");
    let cold_ms = ms_since(started);
    assert_eq!(mirror.live_sessions(), SESSIONS);
    // Warm: the mirror's slab is sized, so this is the decode alone.
    let started = Instant::now();
    mirror.apply(&frame).expect("the frame re-applies warm");
    let warm_ms = ms_since(started);
    assert_eq!(mirror.live_sessions(), SESSIONS);

    println!(
        "1M sessions: encode {encode_ms:.0} ms, apply cold {cold_ms:.0} ms, \
         warm {warm_ms:.0} ms, frame {} B",
        frame.len()
    );
    assert!(encode_ms < 5_000.0, "encode took {encode_ms:.0} ms");
    assert!(cold_ms < 60_000.0, "cold apply took {cold_ms:.0} ms");
}

/// Ticks per second over 64 warmup and 512 measured ticks.
fn ticks_per_sec(sessions: usize, shards: usize, exec: ExecMode, depth: u32) -> f64 {
    let (mut service, keys) = tick_service(sessions, shards, exec, depth);
    let mut round = 0;
    drive(&mut service, &keys, 64, &mut round);
    let started = Instant::now();
    drive(&mut service, &keys, 512, &mut round);
    let elapsed = started.elapsed().as_secs_f64();
    service.shutdown();
    512.0 / elapsed
}

/// At 10 000 sessions, four threaded shards with four ticks in flight
/// out-tick one inline shard.
#[test]
#[ignore = "release-only wall-clock"]
fn threaded_shards_beat_one_inline_shard_at_10k_sessions() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        println!("{cores} core(s): threaded-vs-inline comparison skipped");
        return;
    }
    let inline = ticks_per_sec(10_000, 1, ExecMode::Inline, 1);
    let threaded = ticks_per_sec(10_000, 4, ExecMode::Threaded, 4);
    println!("10k sessions: threaded/s4/d4 {threaded:.0} ticks/s, inline/s1 {inline:.0} ticks/s");
    assert!(
        threaded > inline,
        "threaded/s4/d4 {threaded:.0} ticks/s <= inline/s1 {inline:.0} ticks/s"
    );
}
