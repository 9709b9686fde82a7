//! Allocation accounting for the warm columnar-decode path.
//!
//! The columnar checkpoint codec's restore-side claim is that a frame
//! decodes *into* the mirror's preallocated slab columns: once a mirror
//! has absorbed a genesis frame at a given population, re-applying a
//! frame performs a small constant number of heap allocations (frame
//! parse scaffolding and the per-frame tenant table) and **zero
//! allocations proportional to the session count**. This file pins that
//! with a counting global allocator: the warm-apply allocation count at
//! 8× the population must match the count at 1× — any per-session
//! allocation on the decode path would scale the delta by thousands.
//!
//! Nor does a warm apply allocate a lower hull's spill: the spills the
//! columns held move to a free list when the apply empties them, and the
//! long hulls of the next frame land in those.
//!
//! The counting allocator is process-global, so this file's tests run one
//! at a time behind [`ONE_AT_A_TIME`] — integration tests compile
//! per-file, which keeps the counter isolated from the rest of the suite.

use cdba_ctrl::{CheckpointMirror, CheckpointProbe, ControlPlane, ExecMode, ServiceConfig};
use cdba_integration::{column_u64s, image_frames};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Held by each test while it counts.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Heap allocations observed process-wide (alloc + realloc + zeroed).
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic
// with no side effects on allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn builder() -> cdba_ctrl::ServiceConfigBuilder {
    ServiceConfig::builder(65_536.0)
        .session_b_max(16.0)
        .group_b_o(8.0)
        .offline_delay(4)
        .window(8)
}

fn cfg() -> ServiceConfig {
    builder().build().unwrap()
}

/// Allocations of one warm re-apply of `frame` (the third, as
/// [`warm_apply_allocs`] counts it).
fn warm_allocs(frame: &[u8]) -> u64 {
    let mut mirror = CheckpointMirror::new(&cfg());
    mirror.apply(frame).expect("cold apply populates the slab");
    mirror.apply(frame).expect("second apply settles scratch");
    let before = ALLOCS.load(Ordering::Relaxed);
    mirror.apply(frame).expect("warm apply");
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Allocations performed by one warm re-apply of a genesis frame at the
/// given population. The first two applies are untimed: the cold one
/// builds the slab, the second settles any lazily grown scratch so the
/// measured pass is pure steady state.
fn warm_apply_allocs(sessions: usize) -> u64 {
    let cfg = cfg();
    let mut probe = CheckpointProbe::new(&cfg);
    probe.populate(sessions);
    probe.tick(4);
    let mut frame = Vec::new();
    assert_eq!(probe.encode(true, &mut frame), sessions as u64);
    warm_allocs(&frame)
}

#[test]
fn warm_decode_allocations_do_not_scale_with_population() {
    let _counting = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let small = warm_apply_allocs(1_024);
    let large = warm_apply_allocs(8_192);

    // Per-frame scaffolding (parse-time column table, the 16-entry
    // tenant table) is allowed; anything per-session would put the
    // large count thousands of allocations above the small one.
    assert!(
        large <= small + 16,
        "warm decode allocates per session: {small} allocs at 1k sessions, \
         {large} at 8k"
    );
    assert!(
        small < 256,
        "warm decode scaffolding should be a small constant, got {small}"
    );
}

/// A frame whose lower hulls mostly outgrow their four inline vertices:
/// each session's arrivals climb by 1/64 bit a tick, so its cumulative
/// curve is strictly convex and every tick adds a vertex. Cut by a worker
/// at tick 8.
fn long_hull_frame(sessions: usize) -> Vec<u8> {
    let cfg = builder()
        .shards(1)
        .exec(ExecMode::Threaded)
        .checkpoint_every(8)
        .build()
        .unwrap();
    let mut plane = ControlPlane::new(cfg);
    let keys: Vec<u64> = (0..sessions)
        .map(|_| plane.admit("acme").unwrap())
        .collect();
    for t in 0..8 {
        let bits = 1.0 + t as f64 / 64.0;
        let arrivals: Vec<(u64, f64)> = keys.iter().map(|&k| (k, bits)).collect();
        plane.tick(&arrivals).unwrap();
    }
    let mut image = Vec::new();
    plane.cut_image(&mut image).unwrap();
    let frame = image_frames(&image)[0].to_vec();
    plane.shutdown();
    frame
}

/// Re-applying a frame whose hulls spill lands every long hull in a spill
/// the previous apply left: the warm apply allocates the same handful of
/// blocks with 2,048 spilled hulls as with none, where allocating each
/// spill afresh would add one a hull.
#[test]
fn a_warm_apply_allocates_no_hull_spill() {
    let _counting = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    const SESSIONS: usize = 2_048;
    let frame = long_hull_frame(SESSIONS);
    let spilled = column_u64s(&frame, "hull_len")
        .iter()
        .filter(|&&n| n > 4)
        .count();
    assert_eq!(spilled, SESSIONS, "every hull spills");
    let allocs = warm_allocs(&frame);
    assert!(
        allocs < 64,
        "a warm apply of {spilled} spilled hulls allocated {allocs} blocks"
    );
}
