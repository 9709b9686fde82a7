//! Hostile-schema tests of the columnar checkpoint decode path, driven
//! end-to-end through the public [`CheckpointMirror`] /
//! [`CheckpointProbe`] API: whatever bytes arrive — truncated, bit-flipped,
//! schema-corrupted, of another frame version — the mirror either applies
//! them or returns a typed [`CtrlError::InvalidCheckpoint`] with nothing
//! written. Never a panic, never a half-applied frame. And what it does
//! apply it holds bitwise: a genesis re-encodes to its own bytes, whatever
//! allocation history its rows carry, whatever float bits its cells hold
//! and at whatever width they were written, and with pooled groups in it.

use cdba_ctrl::{
    CheckpointMirror, CheckpointProbe, ControlPlane, CtrlError, ExecMode, ServiceConfig,
};
use cdba_integration::{
    column_f64s, column_sparse, column_u64s, column_width, frame_strings, group_members,
    image_frames, with_columns, with_strings, Cells,
};
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
        let frame = image_frames(&plane.cut_image().unwrap())[0].to_vec();
        plane.shutdown();
        frame
    })
}

/// The `alloc_runs_ticks`, `alloc_runs_value` and `alloc_runs_len` cells
/// of the maximal runs of `allocs` (one list per row).
fn runs_columns(allocs: &[Vec<f64>]) -> (Vec<u64>, Vec<f64>, Vec<u64>) {
    let (mut ticks, mut values, mut lens) = (Vec::new(), Vec::new(), Vec::new());
    for row in allocs {
        let mut n = 0;
        for (j, &v) in row.iter().enumerate() {
            if j > 0 && row[j - 1].to_bits() == v.to_bits() {
                *ticks.last_mut().unwrap() += 1;
            } else {
                ticks.push(1);
                values.push(v);
                n += 1;
            }
        }
        lens.push(n);
    }
    (ticks, values, lens)
}

/// `frame` with its allocation runs replaced by those of `allocs`.
fn with_allocs(frame: &[u8], allocs: &[Vec<f64>]) -> Vec<u8> {
    let (ticks, values, lens) = runs_columns(allocs);
    with_columns(
        frame,
        &[
            ("alloc_runs_ticks", Cells::Unsigned(&ticks)),
            ("alloc_runs_value", Cells::Float(&values)),
            ("alloc_runs_len", Cells::Unsigned(&lens)),
        ],
    )
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
        let lens = column_u64s(base, "recent_len");
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
        let frame = with_allocs(base, &allocs);
        let mut mirror = CheckpointMirror::new(&cfg());
        let mut out = Vec::new();
        for _ in 0..2 {
            prop_assert_eq!(mirror.apply(&frame).map_err(|e| e.to_string()), Ok(10));
            prop_assert_eq!(mirror.encode(&mut out), 10);
            prop_assert!(out == frame, "the re-encoded genesis differs");
        }
    }

    /// Whatever bits a float cell holds — NaN with any payload (`min_util`'s
    /// none-yet NaN among them), `±∞` (the grace sentinel), `±0.0`, an
    /// `f32` subnormal, an `f64` subnormal, `0.1` — a frame carries it
    /// verbatim: a column is written at 4 bytes exactly when every one
    /// of its cells comes back from `f32` with identical bits, else at 8,
    /// and sparse exactly when its `+0.0` cells outweigh a bitmap. A
    /// genesis whose cells are all in their columns' domains (finite and
    /// non-negative, or NaN for `min_util`'s none-yet) applies to a fresh
    /// mirror and to a warm one and re-encodes to the same bytes; any
    /// other is refused typed, naming the first column out of its domain,
    /// with the mirror untouched.
    #[test]
    fn float_cells_round_trip_bitwise_at_either_width(
        draws in proptest::collection::vec(proptest::collection::vec(0usize..PALETTE.len(), 10), 4),
        clean in 0u8..2,
    ) {
        const COLUMNS: [&str; 4] = ["shadow_backlog", "min_util", "max_delay_exact", "peak_alloc"];
        let in_domain = |name: &str, c: f64| {
            (c.is_finite() && c >= 0.0) || (name == "min_util" && c.is_nan())
        };
        // Half the cases draw only from the column's domain.
        let seeded: Vec<Vec<f64>> = draws
            .iter()
            .zip(COLUMNS)
            .map(|(row, name)| {
                let palette: Vec<f64> = PALETTE
                    .iter()
                    .map(|&bits| f64::from_bits(bits))
                    .filter(|&c| clean == 0 || in_domain(name, c))
                    .collect();
                row.iter().map(|&d| palette[d % palette.len()]).collect()
            })
            .collect();
        let cols: Vec<(&str, Cells<'_>)> = COLUMNS
            .iter()
            .zip(&seeded)
            .map(|(&name, cells)| (name, Cells::Float(cells)))
            .collect();
        let frame = with_columns(grouped(), &cols);
        for (name, cells) in COLUMNS.iter().zip(&seeded) {
            let exact = cells.iter().all(|c| f64::from(*c as f32).to_bits() == c.to_bits());
            let width = column_width(&frame, name);
            prop_assert!(width == if exact { 4 } else { 8 }, "{} at {} bytes", name, width);
            let zeros = cells.iter().filter(|c| c.to_bits() == 0).count();
            let sparse = cells.len().div_ceil(8) < zeros * width;
            prop_assert_eq!(column_sparse(&frame, name), sparse);
            let back: Vec<u64> = column_f64s(&frame, name).iter().map(|c| c.to_bits()).collect();
            let want: Vec<u64> = cells.iter().map(|c| c.to_bits()).collect();
            prop_assert!(back == want, "{} as written", name);
        }
        let refused = COLUMNS
            .iter()
            .zip(&seeded)
            .find(|(name, cells)| !cells.iter().all(|&c| in_domain(name, c)));
        let mut mirror = CheckpointMirror::new(&cfg());
        let mut out = Vec::new();
        for _ in 0..2 {
            match refused {
                None => {
                    prop_assert_eq!(mirror.apply(&frame).map_err(|e| e.to_string()), Ok(10));
                    prop_assert_eq!(mirror.encode(&mut out), 10);
                    prop_assert!(out == frame, "the re-encoded genesis differs");
                }
                Some((name, _)) => {
                    let field = match mirror.apply(&frame) {
                        Err(CtrlError::InvalidCheckpoint { field }) => field,
                        other => return Err(TestCaseError::fail(format!("{other:?}"))),
                    };
                    prop_assert_eq!(field.strip_prefix("columnar."), Some(*name));
                    prop_assert_eq!(mirror.live_sessions(), 0);
                }
            }
        }
    }
}

/// Float bits a frame must carry verbatim: the first eight are `f32`-exact,
/// the last three are not, and only the first is zero.
const PALETTE: [u64; 11] = [
    0x0000_0000_0000_0000, // +0.0, a sparse column's absent cell
    0x7ff8_0000_0000_0000, // the none-yet NaN
    0x7ff0_0000_0000_0000, // +∞, the grace sentinel
    0xfff0_0000_0000_0000, // -∞
    0x8000_0000_0000_0000, // -0.0
    0x36a0_0000_0000_0000, // f32's smallest subnormal, 2^-149
    0x3ff8_0000_0000_0000, // 1.5
    0xfffc_0000_2000_0000, // a negative quiet NaN whose payload f32 holds
    0x7ff8_0000_0000_0001, // a NaN whose payload f32 cannot hold
    0x0000_0000_0000_0001, // f64's smallest subnormal
    0x3fb9_9999_9999_999a, // 0.1
];

/// One cell only `f64` holds widens its own column and nothing else: a
/// genesis whose `b_on` gains a single `0.1` writes that column at 8
/// bytes while its neighbours stay at 4, and re-encodes to itself. The
/// column is sparse (its pooled rows have no `B_on`), so only its written
/// cells widen.
#[test]
fn one_wide_cell_widens_only_its_column() {
    let base = grouped();
    let neighbours = ["backlog", "b_on", "low_total"];
    for name in neighbours {
        assert_eq!(
            column_width(base, name),
            4,
            "{name} narrows on integer traffic"
        );
    }
    let mut b_on = column_f64s(base, "b_on");
    let written = b_on.iter().filter(|c| c.to_bits() != 0).count();
    let first = b_on.iter().position(|c| c.to_bits() != 0).unwrap();
    b_on[first] = 0.1;
    let frame = with_columns(base, &[("b_on", Cells::Float(&b_on))]);
    assert!(column_sparse(base, "b_on") && column_sparse(&frame, "b_on"));
    assert_eq!(
        frame.len(),
        base.len() + written * 4,
        "{written} written cells, four bytes more each"
    );
    let widths = neighbours.map(|name| column_width(&frame, name));
    assert_eq!(widths, [4, 8, 4]);
    let mut mirror = CheckpointMirror::new(&cfg());
    assert_eq!(mirror.apply(&frame).unwrap(), 10);
    let mut out = Vec::new();
    mirror.encode(&mut out);
    assert!(out == frame, "the re-encoded genesis differs");
}

/// Frames that are well formed cell by cell but describe a state that
/// cannot exist, each refused with its own typed field and the mirror
/// untouched: allocation runs that miss `recent_len` or have a zero
/// length, a group member naming a dedicated row or no row at all, a
/// pooled row that no group names, and a delay FIFO whose count
/// disagrees with what its window queues behind the head or whose head is
/// from the future — the last two refused in a lease blob too.
#[test]
fn impossible_frames_are_refused_typed() {
    let frame = grouped();
    let mut mirror = CheckpointMirror::new(&cfg());
    mirror.apply(frame).expect("the grouped genesis applies");
    let ticks = column_u64s(frame, "alloc_runs_ticks");
    let values = column_f64s(frame, "alloc_runs_value");
    let lens = column_u64s(frame, "alloc_runs_len");
    let runs = |ticks: &[u64], values: &[f64], lens: &[u64]| {
        with_columns(
            frame,
            &[
                ("alloc_runs_ticks", Cells::Unsigned(ticks)),
                ("alloc_runs_value", Cells::Float(values)),
                ("alloc_runs_len", Cells::Unsigned(lens)),
            ],
        )
    };
    let mut cases: Vec<(&str, Vec<u8>, &str)> = Vec::new();

    let mut long = ticks.clone();
    long[0] += 1;
    cases.push((
        "runs past recent_len",
        runs(&long, &values, &lens),
        "columnar.runs",
    ));
    let (mut zero, mut zero_values, mut zero_lens) = (ticks.clone(), values.clone(), lens.clone());
    zero.insert(0, 0);
    zero_values.insert(0, 8.0);
    zero_lens[0] += 1;
    cases.push((
        "a zero-length run",
        runs(&zero, &zero_values, &zero_lens),
        "columnar.runs",
    ));

    let keys = column_u64s(frame, "key");
    let (at, _, pooled_key) = group_members(frame)[0];
    assert!(!keys[..DEDICATED].contains(&pooled_key));
    let renamed = |key: u64| {
        let mut evil = frame.to_vec();
        evil[at + 8..at + 16].copy_from_slice(&key.to_le_bytes());
        evil
    };
    cases.push((
        "a member naming a dedicated row",
        renamed(keys[0]),
        "columnar.groups",
    ));
    cases.push((
        "a member naming no row",
        renamed(1 << 20),
        "columnar.groups",
    ));

    let mut flags = column_u64s(frame, "flags");
    flags[0] = 1; // live, not dedicated
    let orphan = with_columns(frame, &[("flags", Cells::Unsigned(&flags))]);
    cases.push(("a pooled row in no group", orphan, "columnar.groups"));

    // Row 0's FIFO queues its head and two arrivals behind it, the newest
    // from the last tick: the window's own cells, so only the head
    // travels.
    let pend_len = column_u64s(frame, "pend_len");
    assert_eq!(pend_len[0], 3);
    assert_eq!(
        column_u64s(frame, "pend_age").len(),
        pend_len.iter().filter(|&&n| n > 0).count()
    );
    for (what, len) in [
        ("a FIFO longer than its head, spill and window hold", 4),
        ("a FIFO shorter than its window queues", 2),
    ] {
        let mut evil = pend_len.clone();
        evil[0] = len;
        let evil = with_columns(frame, &[("pend_len", Cells::Unsigned(&evil))]);
        cases.push((what, evil, "columnar.pend"));
    }
    let mut ages = column_u64s(frame, "pend_age");
    ages[0] = 0; // queued at the frame's own clock
    let future = with_columns(frame, &[("pend_age", Cells::Unsigned(&ages))]);
    cases.push(("a queued head from the future", future, "columnar.pend"));

    for (what, evil, want) in cases {
        let field = assert_rejected_untouched(&mut mirror, frame, &evil)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
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
    let queued = column_u64s(&lease, "pend_len")[0];
    assert!(queued >= 2, "{queued} queued entries");
    assert_eq!(
        column_u64s(&lease, "pend_age").len(),
        1,
        "the head travels alone"
    );
    let mut mirror = CheckpointMirror::new(&cfg());
    mirror.apply(&lease).expect("a lease is a one-row frame");
    let budget = plane.available_budget();
    for evil in [
        with_columns(&lease, &[("pend_len", Cells::Unsigned(&[queued + 1]))]),
        with_columns(&lease, &[("pend_age", Cells::Unsigned(&[0]))]),
    ] {
        let field = assert_rejected_untouched(&mut mirror, &lease, &evil).unwrap();
        assert_eq!(field, "columnar.pend");
        assert_eq!(
            plane.import_session(&evil),
            Err(CtrlError::InvalidCheckpoint {
                field: "columnar.pend"
            })
        );
        assert_eq!(plane.available_budget(), budget, "nothing was admitted");
    }
    plane
        .import_session(&lease)
        .expect("the intact lease imports");
    plane.shutdown();
}

/// A string table that names a tenant twice is no attack on the rows:
/// each entry resolves to its own name, whichever copy a row points at
/// and wherever the later names shift to. The frame applies, every row
/// under its own tenant, and re-encodes to the deduplicated original.
#[test]
fn a_tenant_named_twice_in_the_string_table_keeps_every_row_its_name() {
    let frame = grouped();
    assert_eq!(
        frame_strings(frame),
        ["acme", "globex", "initech", "umbrella"]
    );
    let tenants = column_u64s(frame, "tenant");
    assert_eq!(tenants[..DEDICATED], [0, 1, 0, 1]);
    // Row 2 names the second `acme`; `initech` and `umbrella` move one on.
    let shifted: Vec<u64> = tenants
        .iter()
        .enumerate()
        .map(|(r, &t)| match t {
            0 if r == 2 => 2,
            t if t >= 2 => t + 1,
            t => t,
        })
        .collect();
    let names = ["acme", "globex", "acme", "initech", "umbrella"];
    let repeated = with_columns(
        &with_strings(frame, &names),
        &[("tenant", Cells::Unsigned(&shifted))],
    );
    let mut mirror = CheckpointMirror::new(&cfg());
    mirror.apply(&repeated).expect("a repeated name applies");
    assert_eq!(mirror.live_sessions(), tenants.len());
    let mut out = Vec::new();
    mirror.encode(&mut out);
    assert!(out == frame, "a row landed under another tenant");
}

/// The named hostile mutations from the schema's threat model, each built
/// from a valid frame and each required to fail with its own typed field:
/// a truncated header, a frame kind other than genesis, a row-count that
/// disagrees with the column bodies, an unknown cell kind, a width its
/// kind does not allow, a column named twice, the same key on two rows,
/// and a tombstone (a genesis lists none).
#[test]
fn named_schema_attacks_map_to_typed_fields() {
    // Header layout: version u8, kind u8, ticks u64, rows u32 — the rows
    // field lives at bytes 10..14. Each column descriptor is a u32 name
    // length, the name, then the kind and width bytes.
    let (mut mirror, frame) = primed();
    let desc = |name: &str| {
        let mut desc = (name.len() as u32).to_le_bytes().to_vec();
        desc.extend_from_slice(name.as_bytes());
        let at = frame.windows(desc.len()).position(|w| w == desc);
        at.expect("the column descriptor is in the frame") + desc.len()
    };
    let kind_at = desc("key");
    assert!(!column_sparse(&frame, "key"), "the keys are written dense");
    let width = usize::from(frame[kind_at + 1]);
    // name + kind u8 + width u8 + count u32 + body-length u32.
    let body_at = kind_at + 1 + 1 + 4 + 4;

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
    evil[kind_at] = 0x2A; // no such cell kind
    cases.push(("unknown cell kind", evil, "columnar.type"));
    for (column, illegal) in [
        ("key", 3),
        ("key", 16),
        ("current_alloc", 2),
        ("recent", 0x82),
    ] {
        let mut evil = frame.clone();
        evil[desc(column) + 1] = illegal;
        cases.push(("a width its kind does not allow", evil, "columnar.width"));
    }
    let mut evil = frame.clone();
    let at = desc("hull_y") - 1;
    evil[at] = b'x'; // a second `hull_x`
    cases.push(("a column named twice", evil, "columnar.duplicate"));
    let mut evil = frame.clone();
    let first_key = evil[body_at..body_at + width].to_vec();
    evil[body_at + width..body_at + 2 * width].copy_from_slice(&first_key);
    cases.push(("one key on two rows", evil, "columnar.keys"));
    // The tail: no groups, the tombstone count, nothing retired.
    let tail = frame.len() - 12;
    assert_eq!(frame[tail..], [0; 12], "a probe frame with an empty tail");
    let mut evil = frame[..tail + 4].to_vec();
    evil.extend_from_slice(&1u32.to_le_bytes());
    evil.extend_from_slice(&0u64.to_le_bytes());
    evil.extend_from_slice(&0u32.to_le_bytes());
    cases.push(("a tombstone", evil, "columnar.count"));

    for (what, evil, want) in cases {
        let field = assert_rejected_untouched(&mut mirror, &frame, &evil)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(field, want, "{what} mapped to the wrong field");
    }
}

/// `old`, a frame of an older version, is refused as `columnar.version`
/// by a warm mirror, which keeps the state it had, and by an empty one.
fn assert_refused_as_foreign(old: &[u8]) {
    let (mut mirror, frame) = primed();
    let field = assert_rejected_untouched(&mut mirror, &frame, old).unwrap();
    assert_eq!(field, "columnar.version");
    let mut empty = CheckpointMirror::new(&cfg());
    assert!(matches!(
        empty.apply(old),
        Err(CtrlError::InvalidCheckpoint {
            field: "columnar.version"
        })
    ));
    assert_eq!((empty.ticks(), empty.live_sessions()), (0, 0));
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
    assert_refused_as_foreign(v3);
}

/// A frame as the v4 writer emitted it (`golden/probe_v4.frame`: a
/// probe's six sessions at tick 5, two of them leaving, every cell at
/// full width and the whole delay FIFO in `pend`). Like a v3 frame it is
/// refused as `columnar.version`, and the mirror keeps the state it had.
#[test]
fn a_v4_frame_is_refused_typed_with_the_shard_untouched() {
    let v4: &[u8] = include_bytes!("golden/probe_v4.frame");
    assert_eq!(v4[0], 4, "the fixture is a v4 frame");
    assert_refused_as_foreign(v4);
}

/// The same probe state as the v5 writer emitted it
/// (`golden/probe_v5.frame`: each cell at its narrowest width, every zero
/// cell written). Refused as `columnar.version` too.
#[test]
fn a_v5_frame_is_refused_typed_with_the_shard_untouched() {
    let v5: &[u8] = include_bytes!("golden/probe_v5.frame");
    assert_eq!(v5[0], 5, "the fixture is a v5 frame");
    assert_refused_as_foreign(v5);
}
