//! Memory that follows population, not uptime.
//!
//! The paper's algorithm forgets at every RESET, and its proof needs only
//! the *count* of completed stages; a control plane serving a constant
//! population must therefore be stationary in memory however long it has
//! run. This file pins that with a byte-counting global allocator: under
//! a periodic workload that completes a stage per session every 32 ticks
//! (and overloads its pooled groups into stage ends of their own), the
//! process's live heap at tick 4,096 must sit within 1 % of where it sat
//! at tick 256, and the supervisor's retained genesis frame must be the
//! same size at the 32nd checkpoint as at the first — on the inline
//! executor and on the threaded one with checkpoints and journal on.
//! (With a per-session stage log — 32 bytes of heap and 17 of frame per
//! stage ever run — the heap grew 5× and the frame 6.7× over this run.)
//! Nor does a poll leave anything behind: the live heap after a poll and
//! one more tick is, to the byte, the heap before the poll. Nor does a
//! restart cost a second copy of the state: the supervisor restores into
//! the column set the retired worker hands back, so the heap's peak while
//! a shard restarts stays within a quarter of one column set of where it
//! stood, and eight restarts leave it where two did — whether the operator
//! asked for the restart or the worker was killed. Nor does growing cost
//! one: the window ring grows by appended blocks, so 4,097 admissions
//! never hold a byte more than they keep, bar kilobytes in flight. Nor
//! does a session keep its window twice, or wider than its values: a
//! column set stays under a ceiling per dedicated session that a second
//! window ring, a delay FIFO that copies the window's arrivals into a
//! deque, or 16-byte ring cells for values an `f32` holds would cross; a
//! value no `f32` holds widens its ring block, by exactly the low halves
//! of that block's cells; and a feasible dedicated session holds no heap
//! block of its own: its lower hull sits inline while it has at most four
//! vertices.
//! Nor does the retained frame carry what the kernel derives, write a
//! cell wider than it needs, or spend more than a bit on a zero cell of a
//! mostly-zero column: it stays under a ceiling per dedicated session
//! that frame v5 crosses.
//!
//! The counting allocator is process-global, so this file holds exactly
//! one `#[test]`.

use cdba_ctrl::{ControlPlane, ExecMode, FaultPlan, ServiceConfig};
use cdba_integration::{frame_columns, image_frames, LiveBytesAlloc};

#[global_allocator]
static HEAP: LiveBytesAlloc = LiveBytesAlloc::new();

const DEDICATED: usize = 192;
/// The restart phase's population: big enough that a column set dwarfs
/// everything else a restart allocates.
const DEDICATED_RESTARTS: usize = 2048;
const GROUPS: usize = 16;
const CHECKPOINT_EVERY: u64 = 128;
const RESTARTS: usize = 8;
/// How far past a checkpoint each restart lands: the journal suffix.
const PAST_CHECKPOINT: u64 = 32;

fn cfg(exec: ExecMode, fault: Option<FaultPlan>) -> ServiceConfig {
    let mut builder = ServiceConfig::builder(131_072.0)
        .session_b_max(16.0)
        .group_b_o(8.0)
        .offline_delay(4)
        .window(8)
        .shards(1)
        .exec(exec);
    if exec == ExecMode::Threaded {
        builder = builder
            .checkpoint_every(CHECKPOINT_EVERY)
            .max_restarts(RESTARTS as u32);
    }
    if let Some(plan) = fault {
        builder = builder.fault(plan);
    }
    builder.build().expect("valid config")
}

/// Sixteen ticks of traffic, sixteen of silence: a full window of zeros
/// takes `high` to 0, so each period's first arrival fires the stage
/// certificate. Pooled members (the low keys) offer 1.5× their group's
/// budget while active, which overflows the regular channel into RESETs.
fn batch(keys: &[u64], t: u64) -> Vec<(u64, f64)> {
    let pooled = (GROUPS * 4) as u64;
    keys.iter()
        .map(|&k| {
            let bits = match (t % 32 < 16, k < pooled) {
                (false, _) => 0.0,
                (true, true) => 3.0,
                (true, false) => ((k + t) % 5) as f64 * 0.75,
            };
            (k, bits)
        })
        .collect()
}

/// A plane with `dedicated` sessions and the pooled groups, and its keys.
fn populated(
    exec: ExecMode,
    dedicated: usize,
    fault: Option<FaultPlan>,
) -> (ControlPlane, Vec<u64>) {
    let mut plane = ControlPlane::new(cfg(exec, fault));
    let mut keys = Vec::new();
    for g in 0..GROUPS {
        keys.extend(
            plane
                .admit_group(["acme", "globex"][g % 2], 4)
                .expect("group"),
        );
    }
    for i in 0..dedicated {
        keys.push(
            plane
                .admit(["acme", "globex", "initech"][i % 3])
                .expect("admit"),
        );
    }
    (plane, keys)
}

/// Runs one plane to tick 4,096 and returns the live heap at ticks 256
/// and 4,096 plus (threaded only) the retained frame after the first and
/// the 32nd checkpoint.
fn run(exec: ExecMode) -> ([usize; 2], Option<[Vec<u8>; 2]>) {
    let (mut plane, keys) = populated(exec, DEDICATED, None);
    let threaded = exec == ExecMode::Threaded;
    let (mut heap, mut frames) = (Vec::new(), Vec::new());
    for t in 0..4096u64 {
        plane.tick(&batch(&keys, t)).expect("tick");
        let now = t + 1;
        if [CHECKPOINT_EVERY, 256, 4096].contains(&now) {
            // The snapshot's reply is behind this tick's checkpoint in the
            // worker's queue; cutting an image then takes it in (and trims
            // the journal), so both measuring points see the supervisor in
            // the same state. The image's frame is the checkpoint's.
            drop(plane.snapshot().expect("snapshot"));
            let mut kept = 0;
            if threaded {
                let mut image = Vec::new();
                plane.cut_image(&mut image).expect("image");
                if now != 256 {
                    let frame = image_frames(&image)[0].to_vec();
                    kept = frame.capacity();
                    frames.push(frame);
                }
            }
            // The copy just kept is this test's, not the plane's.
            heap.push(HEAP.live() - kept);
        }
    }
    plane.shutdown();
    let frames = threaded.then(|| frames.try_into().unwrap());
    ([heap[1], heap[2]], frames)
}

/// The live heap of an inline plane (whose ticks allocate nothing) that
/// has never been polled, and after its first poll and one more tick.
fn poll_then_tick() -> [usize; 2] {
    let (mut plane, keys) = populated(ExecMode::Inline, DEDICATED, None);
    for t in 0..320u64 {
        plane.tick(&batch(&keys, t)).expect("tick");
    }
    let unpolled = HEAP.live();
    drop(plane.snapshot_shared().expect("snapshot"));
    plane.tick(&batch(&keys, 320)).expect("tick");
    let polled = HEAP.live();
    plane.shutdown();
    [unpolled, polled]
}

/// One arrival [`column_set`] makes in place of its traffic's: `bits`
/// at tick `tick`, to the first pooled member or the last dedicated
/// session.
#[derive(Clone, Copy)]
struct Poke {
    tick: u64,
    pooled: bool,
    bits: f64,
}

/// What one column set of `dedicated` sessions and the pooled groups
/// weighs: the live heap bytes and blocks of an inline plane (one shard
/// state, no journal, no frame) holding it, a full traffic period in.
/// With `coded`, the pooled members are offered their quantum
/// `B_O / 4` = 2 bits while active instead of [`batch`]'s 3, so every
/// share the pool hands out is that power of two and the ring keeps every
/// allocation as a one-byte code. `poke` changes one arrival.
fn column_set(dedicated: usize, coded: bool, poke: Option<Poke>) -> (usize, usize) {
    let (base, base_blocks) = (HEAP.live(), HEAP.blocks());
    let (mut plane, keys) = populated(ExecMode::Inline, dedicated, None);
    for t in 0..PAST_CHECKPOINT {
        let mut arrivals = batch(&keys, t);
        if coded {
            for (k, bits) in &mut arrivals {
                if *k < (GROUPS * 4) as u64 {
                    *bits = bits.min(2.0);
                }
            }
        }
        if let Some(poke) = poke.filter(|p| p.tick == t) {
            let at = if poke.pooled { 0 } else { arrivals.len() - 1 };
            arrivals[at].1 = poke.bits;
        }
        plane.tick(&arrivals).expect("tick");
    }
    let set = (HEAP.live() - base, HEAP.blocks() - base_blocks);
    plane.shutdown();
    set
}

/// Eight restarts of a threaded, checkpointing plane, each
/// `PAST_CHECKPOINT` ticks after a checkpoint; the first is an injected
/// kill when `kill`, the rest (or all) are operator restarts. Arrivals
/// repeat every 32 ticks, so every checkpoint cycle asks the same
/// capacities of the buffers a restart keeps. Per restart: how far the
/// live heap peaked above where it stood while the shard was rebuilt, and
/// where it stood afterwards, polled at the same phase.
fn restarts(kill: bool) -> Vec<(usize, usize)> {
    let kill_at = CHECKPOINT_EVERY + PAST_CHECKPOINT;
    let fault = kill.then(|| FaultPlan::kill(0, kill_at));
    let (mut plane, keys) = populated(ExecMode::Threaded, DEDICATED_RESTARTS, fault);
    let mut samples = Vec::new();
    let mut t = 0u64;
    for n in 1..=RESTARTS {
        while t < n as u64 * CHECKPOINT_EVERY + PAST_CHECKPOINT {
            plane.tick(&batch(&keys, t % 32)).expect("tick");
            t += 1;
        }
        let before = HEAP.live();
        HEAP.reset_peak();
        if kill && n == 1 {
            // The worker dies applying tick `kill_at`; the driver learns
            // of it at one of the next dispatches and recovers there.
            while plane.restarts() == 0 {
                plane.tick(&batch(&keys, t % 32)).expect("tick");
                t += 1;
            }
        } else {
            plane.restart_shard(0).expect("restart");
        }
        let peak = HEAP.peak();
        assert_eq!(plane.restarts(), n as u64);
        // Synchronise with the new worker, so every sample sees the plane
        // holding the same things: one polled table, nothing in flight.
        drop(plane.snapshot().expect("snapshot"));
        samples.push((peak.saturating_sub(before), HEAP.live()));
    }
    plane.shutdown();
    samples
}

/// How far the heap peaked above where 4,097 admissions, one at a time,
/// leave it: the garbage of growing the kernel's state across a ring-block
/// edge (4,096 slots). The export is the sync point — a threaded worker
/// has applied every join before it answers — and a one-row reply, where
/// a collect's table would be larger than what is being looked for.
fn admission_garbage(exec: ExecMode) -> usize {
    let mut plane = ControlPlane::new(cfg(exec, None));
    HEAP.reset_peak();
    let first = plane.admit("acme").expect("admit");
    for i in 1..=4096 {
        plane
            .admit(["acme", "globex", "initech"][i % 3])
            .expect("admit");
    }
    drop(plane.export_session(first).expect("export"));
    let garbage = HEAP.peak() - HEAP.live();
    plane.shutdown();
    garbage
}

fn within(a: usize, b: usize, pct: usize) -> bool {
    a.abs_diff(b) * 100 <= a.min(b) * pct
}

#[test]
fn heap_and_retained_frame_are_flat_in_uptime() {
    for exec in [ExecMode::Inline, ExecMode::Threaded] {
        let base = HEAP.live();
        let (heap, frames) = run(exec);
        let [early, late] = heap.map(|h| h - base);
        assert!(
            within(early, late, 1),
            "{exec:?}: live heap went {early} -> {late} bytes between ticks 256 and 4,096"
        );
        if let Some([first, last]) = frames {
            // A column is as wide as its widest cell, so a counter of
            // uptime (the clock, the change count) takes a byte more per
            // row once it passes 255: logarithmic in uptime, and counted
            // exactly here. Nothing else may move.
            let widened: usize = frame_columns(&first)
                .iter()
                .zip(frame_columns(&last))
                .map(|(a, b)| a.count * b.width.saturating_sub(a.width))
                .sum();
            let (first, last) = (first.len() + widened, last.len());
            assert!(
                within(first, last, 2),
                "{exec:?}: retained frame went {first} -> {last} bytes over 32 checkpoints, \
                 {widened} of them widened counters"
            );
            // A frame carries only what the kernel cannot derive: no high
            // window, clock or group copies, the allocation history as
            // runs, the delay FIFO as its head — each column at the
            // narrowest width that holds its cells bit for bit, and a
            // column whose zero cells outweigh a bitmap as that bitmap and
            // its non-zero cells. Over the dedicated sessions (the pooled
            // rows and group section ride along) that is 90 B each
            // measured; frame v5, every zero written, weighed 201 B, frame
            // v4, every cell at full width, 438 B, and frame v3 620 B.
            let per_session = last / DEDICATED;
            assert!(
                per_session <= 99,
                "the retained frame weighs {per_session} B per dedicated session"
            );
        }
    }
    // Growth appends a ring block and moves nothing, so no second copy of
    // any ring is ever alive. What is left is the export's reply — and on
    // the threaded executor nothing more: a sealed journal segment is the
    // buffer its events were dispatched into, moved, never copied, and it
    // is kept: 1.7 KB measured on both, bounded here at 64 KiB — a
    // twelfth of the 768 KiB (4,096 slots x 8 ticks x 24 B) that a ring
    // re-laid out on growth retires at the 4,097th join, which is what
    // this read (475 KB inline, 656 KB threaded) before rings were blocks.
    for exec in [ExecMode::Inline, ExecMode::Threaded] {
        let garbage = admission_garbage(exec);
        assert!(
            garbage <= 64 << 10,
            "{exec:?}: 4,097 admissions peaked {garbage} bytes above what they keep"
        );
    }
    // A polled table is released by the next mutation, not held until the
    // next poll (31 KB here, 11.5 MB at 100k sessions).
    let [unpolled, polled] = poll_then_tick();
    assert_eq!(
        unpolled, polled,
        "live heap before a poll, and after that poll and a tick"
    );
    // A restart restores into the state it retires: frame-parse scratch
    // and a worker's fittings on top, never a second column set; and what
    // it keeps has stopped growing by the second restart.
    let (set, blocks) = column_set(DEDICATED_RESTARTS, false, None);
    // One window per session: the high tracker reads its `W` arrivals
    // from the meter's ring, the meter's clock is the only one, and the
    // delay FIFO keeps only its head — the entries behind it are the
    // ring's arrivals. And one record: a session's identity is its key,
    // flags and two `u32` ids in the shard's columns and two `u32` cells
    // in the driver's table, and its lower hull keeps four vertices
    // inline, the rest behind an 8-byte spill handle, its rare FIFO
    // spill in a table by slot. Every arrival here is `f32`-exact, so the
    // ring keeps each arrival as an `f32`; the pooled members' overload
    // shares are `f32`s too, no power of two, so the one ring block (all
    // 2,112 slots) keeps its allocations as `f32`s: 817 B per dedicated
    // session measured (769 with every allocation a one-byte code). With
    // two `f32`s a cell, a whole-tick delay column and a FIFO spill
    // handle a slot it was 849 B, with 16-byte ring cells 977 B, with a
    // slab entry, a placement record and a per-slot hull `Vec` too
    // 1,167 B, and a per-slot FIFO deque (a 32 B header where the spill
    // handle took 8, and the capacity it keeps once the FIFO has held two
    // entries) on top of those reached 1,281 B.
    let per_session = set / DEDICATED_RESTARTS;
    assert!(
        per_session <= 841,
        "a dedicated session's column set weighs {per_session} B"
    );
    // Each half of the ring block — `W` = 8 rows of 4,104 cells — widens
    // on its own, in one step of the block's cells and in place, so a
    // half's bytes never move. One arrival no `f32` holds widens the
    // arrivals to `f64`: one more heap block, their low halves' 4 bytes a
    // cell. The allocations' steps are measured from a set whose pooled
    // members stay within their quantum, so every allocation is a code.
    // A pooled share that is `f32`-exact but no power of two (a 30-bit
    // burst lifts the member's regular share to 4 and its overflow to 7)
    // turns the codes into `f32`s: 4 bytes a cell where the code took 1,
    // no more heap blocks, as the codes are freed. A share no `f32` holds
    // turns them into `f64`s: 8 bytes a cell and one more block, or from
    // the overloaded set's `f32`s the low halves' 4 bytes a cell. A
    // 2^28-bit burst makes one: its overflow share, near 2^26, plus the
    // regular 4 needs more bits than an `f32` has. It comes on the
    // period's last active tick, so no arrival queues behind it long
    // enough to spill.
    const CELLS: usize = 4_104 * 8;
    let (coded_set, coded_blocks) = column_set(DEDICATED_RESTARTS, true, None);
    let widened = |coded, tick, pooled, bits| {
        let poke = Some(Poke { tick, pooled, bits });
        let (wide, wide_blocks) = column_set(DEDICATED_RESTARTS, coded, poke);
        let (set, blocks) = if coded {
            (coded_set, coded_blocks)
        } else {
            (set, blocks)
        };
        (wide - set, wide_blocks - blocks)
    };
    let arrival = widened(false, 8, false, 0.1);
    assert_eq!(arrival, (CELLS * 4, 1), "an inexact arrival");
    let share = widened(true, 8, true, 30.0);
    assert_eq!(share, (CELLS * 3, 0), "an f32 share over codes");
    let share = widened(true, 15, true, 268_435_456.0);
    assert_eq!(share, (CELLS * 7, 1), "a share no f32 holds, over codes");
    let share = widened(false, 15, true, 268_435_456.0);
    assert_eq!(share, (CELLS * 4, 1), "a share no f32 holds, over f32s");
    // Feasible traffic at `W` = 2·D_O queues no bit past the window and
    // keeps every hull within its four inline vertices, so neither spill
    // allocates: a dedicated session adds no heap block. (A per-slot hull
    // `Vec` made that one, and a per-slot deque two.)
    let (_, half_blocks) = column_set(DEDICATED_RESTARTS / 2, false, None);
    assert_eq!(
        blocks - half_blocks,
        0,
        "heap blocks held by {} more dedicated sessions",
        DEDICATED_RESTARTS / 2
    );
    // Reporting the injected panic under `RUST_BACKTRACE` symbolises a
    // backtrace: megabytes of heap that are the hook's, not the
    // recovery's. Every other panic still reports.
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload().downcast_ref::<&str>();
        if !payload.is_some_and(|msg| msg.starts_with("injected fault")) {
            report(info);
        }
    }));
    for kill in [false, true] {
        let samples = restarts(kill);
        for (n, &(rise, _)) in samples.iter().enumerate() {
            assert!(
                rise < set / 4,
                "kill={kill}: restart {} raised the live heap by {rise} bytes; \
                 a column set is {set}",
                n + 1
            );
        }
        // The worker-to-driver queue keeps the capacity of its deepest
        // backlog, which is timing and worth a few hundred bytes; a
        // restart that kept anything of the state would show as kilobytes.
        let (second, last) = (samples[1].1, samples[RESTARTS - 1].1);
        assert!(
            last <= second + set / 1000,
            "kill={kill}: live heap {second} after restart 2, {last} after restart {RESTARTS}"
        );
    }
}
