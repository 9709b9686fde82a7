//! Hostile-schema tests of the columnar checkpoint decode path, driven
//! end-to-end through the public [`CheckpointMirror`] /
//! [`CheckpointProbe`] API: whatever bytes arrive — truncated, bit-flipped,
//! schema-corrupted, of another frame version — the mirror either applies
//! them or returns a typed [`CtrlError::InvalidCheckpoint`] with nothing
//! written. Never a panic, never a half-applied frame. And what it does
//! apply it holds bitwise: a genesis re-encodes to its own bytes, whatever
//! allocation history its rows carry and with pooled groups in it.

use cdba_ctrl::{
    CheckpointMirror, CheckpointProbe, ControlPlane, CtrlError, ExecMode, ServiceConfig,
};
use cdba_integration::{frame_column, group_members, with_columns};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::OnceLock;

fn cfg() -> ServiceConfig {
    ServiceConfig::builder(4096.0)
        .session_b_max(16.0)
        .group_b_o(8.0)
        .offline_delay(4)
        .window(4)
        .build()
        .expect("valid test config")
}

/// Dedicated sessions in [`grouped`]'s frame: its first rows.
const DEDICATED: usize = 4;

/// A worker's genesis frame at tick 16 with pooled groups in it: four
/// dedicated sessions and two groups of three under varied arrivals (the
/// pooled members' overload drives their groups' pools), the shard
/// emitting a frame every 8 ticks.
fn grouped() -> &'static [u8] {
    static FRAME: OnceLock<Vec<u8>> = OnceLock::new();
    FRAME.get_or_init(|| {
        let threaded = ServiceConfig::builder(4096.0)
            .session_b_max(16.0)
            .group_b_o(8.0)
            .offline_delay(4)
            .window(4)
            .shards(1)
            .exec(ExecMode::Threaded)
            .checkpoint_every(8)
            .build()
            .expect("valid test config");
        let mut plane = ControlPlane::new(threaded);
        let mut keys: Vec<u64> = (0..DEDICATED)
            .map(|i| plane.admit(["acme", "globex"][i % 2]).unwrap())
            .collect();
        keys.extend(plane.admit_group("initech", 3).unwrap());
        keys.extend(plane.admit_group("umbrella", 3).unwrap());
        for t in 0..16u64 {
            let arrivals: Vec<(u64, f64)> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| (k, ((t * 7 + 3 * i as u64) % 11) as f64))
                .collect();
            plane.tick(&arrivals).unwrap();
        }
        // The snapshot's Collect is answered after the tick-16 frame.
        plane.snapshot().unwrap();
        let (_, frames) = plane.checkpoint_frames_since(0, 0).unwrap();
        let frame = frames.last().expect("a retained frame").1.to_vec();
        plane.shutdown();
        frame
    })
}

/// A column's `u32` cells.
fn u32s(frame: &[u8], name: &str) -> Vec<u32> {
    let body = frame_column(frame, name);
    body.chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// The `alloc_runs` body of the maximal runs of `allocs` (one list per
/// row), and its `alloc_runs_len` body.
fn runs_columns(allocs: &[Vec<f64>]) -> (Vec<u8>, Vec<u8>) {
    let (mut runs, mut lens) = (Vec::new(), Vec::new());
    for row in allocs {
        let mut n = 0u32;
        for (j, &v) in row.iter().enumerate() {
            if j > 0 && row[j - 1].to_bits() == v.to_bits() {
                let at = runs.len() - 16;
                let ticks = u64::from_le_bytes(runs[at..at + 8].try_into().unwrap());
                runs[at..at + 8].copy_from_slice(&(ticks + 1).to_le_bytes());
            } else {
                runs.extend_from_slice(&1u64.to_le_bytes());
                runs.extend_from_slice(&v.to_le_bytes());
                n += 1;
            }
        }
        lens.extend_from_slice(&n.to_le_bytes());
    }
    (runs, lens)
}

/// A mirror primed with a probe's frame, plus the probe's next frame
/// (six sessions churned to leaving in between) ready to be poisoned.
fn primed() -> (CheckpointMirror, Vec<u8>) {
    let cfg = cfg();
    let mut probe = CheckpointProbe::new(&cfg);
    let mut mirror = CheckpointMirror::new(&cfg);
    let mut frame = Vec::new();
    probe.populate(24);
    probe.tick(5);
    probe.encode(true, &mut frame);
    mirror.apply(&frame).expect("the first frame applies");
    probe.churn(6);
    probe.encode(true, &mut frame);
    (mirror, frame)
}

/// Applies `evil` and requires the full rejection contract: a typed
/// `columnar.*` error, an untouched mirror, and the intact frame still
/// applying afterwards (nothing was half-written).
fn assert_rejected_untouched(
    mirror: &mut CheckpointMirror,
    intact: &[u8],
    evil: &[u8],
) -> Result<&'static str, TestCaseError> {
    let (ticks, live) = (mirror.ticks(), mirror.live_sessions());
    let err = mirror.apply(evil);
    let field = match err {
        Err(CtrlError::InvalidCheckpoint { field }) => field,
        other => {
            return Err(TestCaseError::fail(format!(
                "expected InvalidCheckpoint, got {other:?}"
            )))
        }
    };
    prop_assert!(
        field.starts_with("columnar."),
        "untyped rejection field {field:?}"
    );
    prop_assert_eq!(mirror.ticks(), ticks);
    prop_assert_eq!(mirror.live_sessions(), live);
    if mirror.apply(intact).is_err() {
        return Err(TestCaseError::fail(
            "the intact frame no longer applies after a rejected one",
        ));
    }
    Ok(field)
}

/// Cutting a frame anywhere — inside the header, a column body, or the
/// trailing sections — is a typed rejection that writes nothing: every
/// section is length-described, so a short buffer can never masquerade
/// as a complete frame. Every offset of a probe's frame and of a genesis
/// with pooled groups.
#[test]
fn truncation_anywhere_is_rejected_typed() {
    let (mut mirror, frame) = primed();
    for cut in 0..frame.len() {
        assert_rejected_untouched(&mut mirror, &frame, &frame[..cut]).unwrap();
    }
    let mut mirror = CheckpointMirror::new(&cfg());
    let frame = grouped();
    mirror.apply(frame).expect("the grouped genesis applies");
    for cut in 0..frame.len() {
        assert_rejected_untouched(&mut mirror, frame, &frame[..cut]).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any single-byte corruption either still applies (a benign flip in
    /// a float payload) or is rejected typed with the mirror untouched —
    /// the decoder never panics and never tears state, wherever the flip
    /// lands, in a probe's frame or in a genesis with pooled groups.
    #[test]
    fn single_byte_corruption_never_panics_or_tears(
        at in 0usize..4096,
        mask in 1u8..=255,
        grouped_frame in 0u8..2,
    ) {
        let (mut mirror, frame) = if grouped_frame == 1 {
            let mut mirror = CheckpointMirror::new(&cfg());
            mirror.apply(grouped()).expect("the grouped genesis applies");
            (mirror, grouped().to_vec())
        } else {
            primed()
        };
        let mut evil = frame.clone();
        let at = at % evil.len();
        evil[at] ^= mask;
        let (ticks, live) = (mirror.ticks(), mirror.live_sessions());
        match mirror.apply(&evil) {
            // A benign flip (float bits, tenant spelling) applies.
            Ok(_) => {}
            Err(CtrlError::InvalidCheckpoint { field }) => {
                prop_assert!(
                    field.starts_with("columnar."),
                    "untyped rejection field {:?}", field
                );
                prop_assert_eq!(mirror.ticks(), ticks);
                prop_assert_eq!(mirror.live_sessions(), live);
                mirror
                    .apply(&frame)
                    .expect("the intact frame applies after the rejected one");
            }
            Err(other) => {
                return Err(TestCaseError::fail(format!(
                    "corruption surfaced as a non-checkpoint error: {other}"
                )));
            }
        }
    }

    /// Whatever allocation history a row carries — one constant, a change
    /// every tick (the run-length worst case), or values drawn from four
    /// levels — a genesis with pooled groups applies to a fresh mirror and
    /// to a warm one, and the mirror re-encodes it to the same bytes.
    #[test]
    fn genesis_round_trips_bitwise_under_any_allocation_history(
        rows in proptest::collection::vec(
            (0u8..3, proptest::collection::vec(0u8..4, 4)),
            10,
        ),
    ) {
        let base = grouped();
        let lens = u32s(base, "recent_len");
        prop_assert_eq!(lens.len(), rows.len());
        let levels = [0.0, 4.0, 8.0, 16.0];
        let allocs: Vec<Vec<f64>> = rows
            .iter()
            .zip(&lens)
            .map(|((shape, draws), &n)| {
                (0..n as usize)
                    .map(|j| match shape {
                        0 => levels[draws[0] as usize],
                        1 => levels[draws[0] as usize] + (j % 2) as f64 * 0.5,
                        _ => levels[draws[j] as usize],
                    })
                    .collect()
            })
            .collect();
        let (runs, runs_len) = runs_columns(&allocs);
        let frame = with_columns(base, &[("alloc_runs", &runs), ("alloc_runs_len", &runs_len)]);
        let mut mirror = CheckpointMirror::new(&cfg());
        let mut out = Vec::new();
        for _ in 0..2 {
            prop_assert_eq!(mirror.apply(&frame).map_err(|e| e.to_string()), Ok(10));
            prop_assert_eq!(mirror.encode(&mut out), 10);
            prop_assert!(out == frame, "the re-encoded genesis differs");
        }
    }
}

/// Frames that are well formed cell by cell but describe a state that
/// cannot exist, each refused with its own typed field and the mirror
/// untouched: allocation runs that miss `recent_len` or have a zero
/// length, a group member naming a dedicated row or no row at all, a
/// pooled row that no group names, and a delay FIFO whose entries behind
/// the head disagree with the window's arrivals or come from the future —
/// the last refused in a lease blob too.
#[test]
fn impossible_v4_frames_are_refused_typed() {
    let frame = grouped();
    let mut mirror = CheckpointMirror::new(&cfg());
    mirror.apply(frame).expect("the grouped genesis applies");
    let runs = frame_column(frame, "alloc_runs");
    let mut runs_len = frame_column(frame, "alloc_runs_len").to_vec();
    let mut cases: Vec<(&str, Vec<u8>)> = Vec::new();

    let mut long = runs.to_vec();
    let ticks = u64::from_le_bytes(long[..8].try_into().unwrap());
    long[..8].copy_from_slice(&(ticks + 1).to_le_bytes());
    cases.push((
        "runs past recent_len",
        with_columns(frame, &[("alloc_runs", &long)]),
    ));

    let mut empty = [0u64.to_le_bytes(), 8.0f64.to_le_bytes()].concat();
    empty.extend_from_slice(runs);
    runs_len[..4].copy_from_slice(&(u32s(frame, "alloc_runs_len")[0] + 1).to_le_bytes());
    let zero = with_columns(
        frame,
        &[("alloc_runs", &empty), ("alloc_runs_len", &runs_len)],
    );
    cases.push(("a zero-length run", zero));

    let keys: Vec<u64> = frame_column(frame, "key")
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let (at, _, pooled_key) = group_members(frame)[0];
    assert!(!keys[..DEDICATED].contains(&pooled_key));
    let renamed = |key: u64| {
        let mut evil = frame.to_vec();
        evil[at + 8..at + 16].copy_from_slice(&key.to_le_bytes());
        evil
    };
    cases.push(("a member naming a dedicated row", renamed(keys[0])));
    cases.push(("a member naming no row", renamed(1 << 20)));

    let mut flags = frame_column(frame, "flags").to_vec();
    flags[..4].copy_from_slice(&1u32.to_le_bytes()); // live, not dedicated
    let orphan = with_columns(frame, &[("flags", &flags)]);
    cases.push(("a pooled row in no group", orphan));

    // Row 0's FIFO queues its head and two arrivals behind it, the newest
    // from the last tick: the window's own cell.
    assert_eq!(u32s(frame, "pend_len")[0], 3);
    let pend = frame_column(frame, "pend");
    let mut bits = pend.to_vec();
    let newest = f64::from_le_bytes(bits[40..48].try_into().unwrap());
    bits[40..48].copy_from_slice(&(newest + 0.5).to_le_bytes());
    cases.push((
        "a queued arrival the window disagrees with",
        with_columns(frame, &[("pend", &bits)]),
    ));
    let mut ticks = pend.to_vec();
    ticks[32..40].copy_from_slice(&16u64.to_le_bytes()); // the frame's own clock
    cases.push((
        "a queued arrival from the future",
        with_columns(frame, &[("pend", &ticks)]),
    ));

    for (what, evil) in cases {
        let field = assert_rejected_untouched(&mut mirror, frame, &evil)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        let want = if what.contains("run") {
            "columnar.runs"
        } else if what.contains("queued") {
            "columnar.pend"
        } else {
            "columnar.groups"
        };
        assert_eq!(field, want, "{what} mapped to the wrong field");
    }

    // A lease carries the same FIFO, and its import is refused the same
    // way, before admission: a session offered 24 bits a tick against
    // `B_A` = 16 queues arrivals behind its head.
    let mut plane = ControlPlane::new(cfg());
    let key = plane.admit("acme").unwrap();
    for _ in 0..6 {
        plane.tick(&[(key, 24.0)]).unwrap();
    }
    let lease = plane.export_session(key).unwrap();
    let queued = u32s(&lease, "pend_len")[0] as usize;
    assert!(queued >= 2, "{queued} queued entries");
    let mut bits = frame_column(&lease, "pend").to_vec();
    let at = (queued - 1) * 16 + 8;
    bits[at..at + 8].copy_from_slice(&23.0f64.to_le_bytes());
    let evil = with_columns(&lease, &[("pend", &bits)]);
    let mut mirror = CheckpointMirror::new(&cfg());
    mirror.apply(&lease).expect("a lease is a one-row frame");
    let field = assert_rejected_untouched(&mut mirror, &lease, &evil).unwrap();
    assert_eq!(field, "columnar.pend");
    let budget = plane.available_budget();
    assert!(matches!(
        plane.import_session(&evil),
        Err(CtrlError::InvalidCheckpoint {
            field: "meter.delay.pending"
        })
    ));
    assert_eq!(plane.available_budget(), budget, "nothing was admitted");
    plane
        .import_session(&lease)
        .expect("the intact lease imports");
    plane.shutdown();
}

/// The named hostile mutations from the schema's threat model, each built
/// from a valid frame and each required to fail with its own typed field:
/// a truncated header, a frame kind other than genesis, a row-count that
/// disagrees with the column bodies, an unknown column type tag, the same
/// key on two rows, and a tombstone (a genesis lists none).
#[test]
fn named_schema_attacks_map_to_typed_fields() {
    // Header layout: version u8, kind u8, ticks u64, rows u32 — the rows
    // field lives at bytes 10..14. The first column descriptor is the
    // canonical "key" column: u32 name length, "key", then the type tag.
    let key_desc: &[u8] = &[3, 0, 0, 0, b'k', b'e', b'y'];
    let (mut mirror, frame) = primed();
    let desc_at = frame
        .windows(key_desc.len())
        .position(|w| w == key_desc)
        .expect("the key column descriptor is in the frame");
    let ty_at = desc_at + key_desc.len();
    // name + ty u8 + width u32 + count u32 + body-length u32.
    let body_at = ty_at + 1 + 4 + 4 + 4;

    let mut cases: Vec<(&str, Vec<u8>, &str)> = Vec::new();
    cases.push((
        "truncated header",
        frame[..10].to_vec(),
        "columnar.truncated",
    ));
    let mut evil = frame.clone();
    evil[1] = 1; // the kind byte
    cases.push(("a frame kind other than genesis", evil, "columnar.type"));
    let mut evil = frame.clone();
    let rows = u32::from_le_bytes(evil[10..14].try_into().unwrap());
    assert!(rows >= 2, "the poisoning below needs at least two rows");
    evil[10..14].copy_from_slice(&(rows + 1).to_le_bytes());
    cases.push(("row-count mismatch", evil, "columnar.count"));
    let mut evil = frame.clone();
    evil[ty_at] = 0x2A; // no such cell type
    cases.push(("unknown column type", evil, "columnar.type"));
    let mut evil = frame.clone();
    let first_key = evil[body_at..body_at + 8].to_vec();
    evil[body_at + 8..body_at + 16].copy_from_slice(&first_key);
    cases.push(("one key on two rows", evil, "columnar.keys"));
    // The tail: no groups, the tombstone count, nothing retired.
    let tail = frame.len() - 12;
    assert_eq!(frame[tail..], [0; 12], "a probe frame with an empty tail");
    let mut evil = frame[..tail + 4].to_vec();
    evil.extend_from_slice(&1u32.to_le_bytes());
    evil.extend_from_slice(&first_key);
    evil.extend_from_slice(&0u32.to_le_bytes());
    cases.push(("a tombstone", evil, "columnar.count"));

    for (what, evil, want) in cases {
        let field = assert_rejected_untouched(&mut mirror, &frame, &evil)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(field, want, "{what} mapped to the wrong field");
    }
}

/// A frame as the v3 writer emitted it (`golden/reset_window.frame`: one
/// shard, four dedicated sessions and a pooled pair at tick 9, with the
/// high-window, clock and group columns v4 dropped). Frames are written
/// and read by the same binary, so there is no v3 decoder: the frame is
/// refused as `columnar.version`, and the mirror keeps the state it had.
#[test]
fn a_v3_frame_is_refused_typed_with_the_shard_untouched() {
    let v3: &[u8] = include_bytes!("golden/reset_window.frame");
    assert_eq!(v3[0], 3, "the fixture is a v3 frame");
    let (mut mirror, frame) = primed();
    let field = assert_rejected_untouched(&mut mirror, &frame, v3).unwrap();
    assert_eq!(field, "columnar.version");
    let mut empty = CheckpointMirror::new(&cfg());
    assert!(matches!(
        empty.apply(v3),
        Err(CtrlError::InvalidCheckpoint {
            field: "columnar.version"
        })
    ));
    assert_eq!((empty.ticks(), empty.live_sessions()), (0, 0));
}
