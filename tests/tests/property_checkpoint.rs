//! Hostile-schema tests of the columnar checkpoint decode path, driven
//! end-to-end through the public [`CheckpointMirror`] /
//! [`CheckpointProbe`] API: whatever bytes arrive — truncated, bit-flipped,
//! schema-corrupted — the mirror either applies them or returns a typed
//! [`CtrlError::InvalidCheckpoint`] with nothing written. Never a panic,
//! never a half-applied frame.

use cdba_ctrl::{CheckpointMirror, CheckpointProbe, CtrlError, ServiceConfig};
use cdba_integration::frame_column;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn cfg() -> ServiceConfig {
    ServiceConfig::builder(4096.0)
        .session_b_max(16.0)
        .group_b_o(8.0)
        .offline_delay(4)
        .window(4)
        .build()
        .expect("valid test config")
}

/// A mirror primed with a genesis frame, plus a valid incremental frame
/// (6 dirty rows) ready to be poisoned.
fn primed() -> (CheckpointMirror, Vec<u8>) {
    let cfg = cfg();
    let mut probe = CheckpointProbe::new(&cfg);
    let mut mirror = CheckpointMirror::new(&cfg);
    let mut frame = Vec::new();
    probe.populate(24);
    probe.tick(5);
    probe.encode(true, &mut frame);
    mirror.apply(&frame).expect("genesis applies");
    probe.churn(6);
    probe.encode(false, &mut frame);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Cutting the frame anywhere — inside the header, a column body, or
    /// the trailing sections — is a typed rejection that writes nothing:
    /// every section is length-described, so a short buffer can never
    /// masquerade as a complete frame.
    #[test]
    fn truncation_anywhere_is_rejected_typed(cut in 0usize..4096) {
        let (mut mirror, frame) = primed();
        let cut = cut % frame.len();
        assert_rejected_untouched(&mut mirror, &frame, &frame[..cut])?;
    }

    /// Any single-byte corruption either still applies (a benign flip in
    /// a float payload) or is rejected typed with the mirror untouched —
    /// the decoder never panics and never tears state, wherever the flip
    /// lands.
    #[test]
    fn single_byte_corruption_never_panics_or_tears(
        at in 0usize..4096,
        mask in 1u8..=255,
    ) {
        let (mut mirror, frame) = primed();
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
}

/// The named hostile mutations from the schema's threat model, each built
/// from a valid incremental frame and each required to fail with its own
/// typed field: a truncated header, a row-count that disagrees with the
/// column bodies, an unknown column type tag, and overlapping dirty rows
/// (the same key twice in one frame).
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
    cases.push(("overlapping dirty rows", evil, "columnar.keys"));

    for (what, evil, want) in cases {
        let field = assert_rejected_untouched(&mut mirror, &frame, &evil)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(field, want, "{what} mapped to the wrong field");
    }
}

/// A frame as the v3 writer emitted it before RESET rows dropped their
/// dead window (`golden/reset_window.frame`: one shard, four dedicated
/// sessions and a pooled pair, cut at tick 9 while a burst at tick 6
/// still holds session 0 in RESET). Row 0 carries the four arrivals its
/// closed stage ended on and that stage's tick count; the frame stays
/// valid, and the dead tracker state is dropped on apply.
#[test]
fn a_reset_row_carrying_its_dead_window_still_applies() {
    let frame: &[u8] = include_bytes!("golden/reset_window.frame");
    let cell = |name: &str| u32::from_le_bytes(frame_column(frame, name)[..4].try_into().unwrap());
    assert_eq!(cell("flags"), 3, "row 0 is a dedicated session in RESET");
    assert_eq!(cell("high_len"), 4, "... that carries a window");
    let mut mirror = CheckpointMirror::new(&cfg());
    assert_eq!(mirror.apply(frame).expect("the frame applies"), 6);
    assert_eq!((mirror.ticks(), mirror.live_sessions()), (9, 6));
}
