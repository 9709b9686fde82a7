//! Property tests on the gateway wire protocol: every frame kind
//! round-trips bit-exactly, and malformed inputs (truncations, hostile
//! length prefixes, unknown kinds, trailing garbage) decode to typed
//! errors instead of panics.

use bytes::{BufMut, Bytes, BytesMut};
use cdba_gateway::proto::{
    self, decode, decode_payload, encode, ErrorCode, EventBody, Frame, ProtoError, MAX_FRAME,
};
use cdba_gateway::stats::LatencyHistogram;
use cdba_integration::fnv1a;
use proptest::prelude::*;

fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(97u8..123, 0..24)
        .prop_map(|v| String::from_utf8(v).expect("ascii lowercase"))
}

fn arb_arrivals() -> impl Strategy<Value = Vec<(u64, f64)>> {
    proptest::collection::vec((0u64..10_000, 0.0f64..1e6), 0..16)
}

fn arb_keys() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..10_000, 0..16)
}

const ERROR_CODES: [ErrorCode; 11] = [
    ErrorCode::BadMagic,
    ErrorCode::BadVersion,
    ErrorCode::BadFrame,
    ErrorCode::Oversized,
    ErrorCode::Busy,
    ErrorCode::Timeout,
    ErrorCode::Ctrl,
    ErrorCode::NotOwner,
    ErrorCode::Idle,
    ErrorCode::Shutdown,
    ErrorCode::Proto,
];

/// Builds one frame of every kind from generated scalars, selected by
/// `kind`, so a single property covers the whole enum.
fn build_frame(
    kind: usize,
    (id, key, n, x): (u64, u64, u32, f64),
    s: String,
    arrivals: Vec<(u64, f64)>,
    keys: Vec<u64>,
) -> Frame {
    match kind {
        0 => Frame::Hello {
            magic: proto::MAGIC,
            version: (n % 255) as u8,
        },
        1 => Frame::HelloOk {
            version: (n % 255) as u8,
        },
        2 => Frame::Join { id, tenant: s },
        3 => Frame::JoinGroup {
            id,
            tenant: s,
            size: n,
        },
        4 => Frame::Leave { id, key },
        5 => Frame::Goodbye { id },
        6 => Frame::Joined { id, key },
        7 => Frame::GroupJoined { id, members: keys },
        8 => Frame::LeaveOk { id },
        9 => Frame::TickOk { id, tick: key },
        10 => Frame::SubscribeOk { id },
        11 => Frame::GoodbyeOk { id },
        12 => Frame::StageNoAck { arrivals },
        13 => Frame::TickSync {
            id,
            arrivals,
            min_staged: n,
        },
        14 => Frame::SnapshotBin { id },
        15 => Frame::SubscribeBatch {
            id,
            every: n,
            batch: n.rotate_left(7),
        },
        16 => Frame::SnapshotBinOk {
            id,
            bytes: s.into_bytes(),
        },
        17 => Frame::EventBatch {
            events: arrivals
                .iter()
                .map(|&(k, bits)| EventBody {
                    tick: k,
                    changes: k ^ id,
                    signalling_cost: bits * x,
                })
                .collect(),
        },
        18 => Frame::Image { id },
        19 => Frame::ImageOk {
            id,
            bytes: s.into_bytes(),
        },
        20 => Frame::Restore {
            id,
            bytes: s.into_bytes(),
        },
        21 => Frame::RestoreOk {
            id,
            tick: key,
            keys,
        },
        _ => Frame::Error {
            id,
            code: ERROR_CODES[kind % ERROR_CODES.len()],
            message: s,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_frame_kind_round_trips_bit_exactly(
        kind in 0usize..23,
        id in 0u64..u64::MAX,
        key in 0u64..u64::MAX,
        n in 0u32..u32::MAX,
        x in -1e12f64..1e12,
        s in arb_string(),
        arrivals in arb_arrivals(),
        keys in arb_keys(),
    ) {
        let frame = build_frame(kind, (id, key, n, x), s, arrivals, keys);
        let wire = encode(&frame);
        let mut buf = wire.clone();
        let back = decode(&mut buf).expect("round-trip decodes");
        prop_assert_eq!(back, frame);
        prop_assert_eq!(buf.len(), 0);
    }

    #[test]
    fn every_truncation_is_a_typed_error_never_a_panic(
        kind in 0usize..23,
        id in 0u64..1_000_000,
        s in arb_string(),
        arrivals in arb_arrivals(),
        cut_frac in 0.0f64..1.0,
    ) {
        let frame = build_frame(kind, (id, id ^ 7, 3, 1.5), s, arrivals, vec![1, 2]);
        let wire = encode(&frame);
        let cut = ((wire.len() as f64) * cut_frac) as usize;
        if cut < wire.len() {
            let mut partial = wire.slice(0..cut);
            prop_assert_eq!(decode(&mut partial), Err(ProtoError::Truncated));
        }
    }

    #[test]
    fn back_to_back_frames_decode_in_sequence(
        ids in proptest::collection::vec(0u64..1_000_000, 1..8),
    ) {
        let mut wire = BytesMut::new();
        for &id in &ids {
            wire.put_slice(&encode(&Frame::SnapshotBin { id }));
        }
        let mut buf = wire.freeze();
        for &id in &ids {
            prop_assert_eq!(decode(&mut buf), Ok(Frame::SnapshotBin { id }));
        }
        prop_assert_eq!(buf.len(), 0);
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        raw in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        // Whatever happens, it must be Ok or a typed ProtoError.
        let _ = decode(&mut Bytes::from(raw.clone()));
        let _ = decode_payload(Bytes::from(raw));
    }

    /// The latency histogram's reported bound covers every recordable
    /// sample across the full `u64` range (`raw >> shift` sweeps every
    /// decade log-uniformly): the bound strictly exceeds the sample,
    /// except at the saturated top bucket whose `u64::MAX` bound is
    /// inclusive.
    #[test]
    fn histogram_bound_covers_every_sample(
        shift in 0u32..64,
        raw in 0u64..u64::MAX,
    ) {
        let x = raw >> shift;
        let h = LatencyHistogram::new();
        h.record(x);
        let bound = h.quantile_us(1.0);
        prop_assert!(bound > x || bound == u64::MAX);
    }
}

/// The one sample no bound can strictly exceed: the top bucket saturates
/// and reports an inclusive `u64::MAX`.
#[test]
fn histogram_top_bucket_bound_is_inclusive_u64_max() {
    let h = LatencyHistogram::new();
    h.record(u64::MAX);
    assert_eq!(h.quantile_us(1.0), u64::MAX);
}

#[test]
fn oversized_length_prefix_is_typed() {
    let mut wire = BytesMut::new();
    wire.put_u32_le((MAX_FRAME as u32) + 1);
    wire.put_slice(&[0u8; 16]);
    let mut buf = wire.freeze();
    assert_eq!(
        decode(&mut buf),
        Err(ProtoError::Oversized {
            declared: (MAX_FRAME as u64) + 1
        })
    );
}

#[test]
fn unknown_kind_unknown_error_code_and_bad_utf8_are_typed() {
    assert_eq!(
        decode_payload(Bytes::from(vec![0x77u8])),
        Err(ProtoError::UnknownKind(0x77))
    );
    // Retired kinds stay unknown: the checkpoint pull and its reply, the
    // plain tick and subscribe, and the one-event push.
    for retired in [0x43u8, 0x2E, 0x14, 0x16, 0x30] {
        assert_eq!(
            decode_payload(Bytes::from(vec![retired, 0, 0, 0, 0, 0, 0, 0, 0])),
            Err(ProtoError::UnknownKind(retired))
        );
    }

    let mut payload = BytesMut::new();
    payload.put_u8(0x3F); // Error frame
    payload.put_u64_le(1);
    payload.put_u8(200); // no such error code
    payload.put_u32_le(0);
    assert_eq!(
        decode_payload(payload.freeze()),
        Err(ProtoError::BadErrorCode(200))
    );

    let mut payload = BytesMut::new();
    payload.put_u8(0x10); // Join
    payload.put_u64_le(1);
    payload.put_u32_le(2);
    payload.put_slice(&[0xFF, 0xFE]); // invalid UTF-8 tenant
    assert_eq!(decode_payload(payload.freeze()), Err(ProtoError::BadString));
}

#[test]
fn trailing_bytes_inside_a_declared_payload_are_typed() {
    let inner = encode(&Frame::LeaveOk { id: 9 });
    let payload_len = inner.len() - 4;
    let mut wire = BytesMut::new();
    wire.put_u32_le((payload_len + 3) as u32);
    wire.put_slice(&inner[4..]);
    wire.put_slice(&[0, 0, 0]);
    let mut buf = wire.freeze();
    assert_eq!(decode(&mut buf), Err(ProtoError::Trailing { extra: 3 }));
}

#[test]
fn hostile_collection_counts_cannot_allocate_past_the_payload() {
    // A TickSync frame declaring u32::MAX arrivals in a tiny payload must
    // be rejected by the length pre-check, not by attempting the
    // allocation.
    let mut payload = BytesMut::new();
    payload.put_u8(0x19); // TickSync
    payload.put_u64_le(1);
    payload.put_u32_le(0); // min_staged
    payload.put_u32_le(u32::MAX);
    assert_eq!(decode_payload(payload.freeze()), Err(ProtoError::Truncated));
}

/// One frame of every kind the protocol defines, with fixed contents.
fn one_of_every_kind() -> Vec<Frame> {
    let arrivals = vec![(3u64, 1.5f64), (9, 0.0), (70_000, 1e-3)];
    let blob: Vec<u8> = (0u16..300).map(|b| (b % 251) as u8).collect();
    vec![
        Frame::Hello {
            magic: proto::MAGIC,
            version: proto::VERSION,
        },
        Frame::HelloOk { version: 3 },
        Frame::Join {
            id: 1,
            tenant: "acme".into(),
        },
        Frame::JoinGroup {
            id: 2,
            tenant: "globex".into(),
            size: 4,
        },
        Frame::Leave { id: 3, key: 42 },
        Frame::StageNoAck {
            arrivals: arrivals.clone(),
        },
        Frame::TickSync {
            id: 6,
            arrivals,
            min_staged: 7,
        },
        Frame::SnapshotBin { id: 10 },
        Frame::SubscribeBatch {
            id: 13,
            every: 8,
            batch: 16,
        },
        Frame::LeaseRevoke { id: 14, key: 42 },
        Frame::LeaseGrant {
            id: 15,
            epoch: 3,
            bytes: blob.clone(),
        },
        Frame::Drain { id: 17 },
        Frame::Goodbye { id: 18 },
        Frame::Joined { id: 1, key: 42 },
        Frame::GroupJoined {
            id: 2,
            members: vec![1, 2, 3, 4],
        },
        Frame::LeaveOk { id: 3 },
        Frame::TickOk { id: 5, tick: 99 },
        Frame::SnapshotBinOk {
            id: 10,
            bytes: blob.clone(),
        },
        Frame::LeaseRevoked {
            id: 14,
            epoch: 2,
            bytes: blob.clone(),
        },
        Frame::LeaseGranted { id: 15, key: 5 },
        Frame::DrainOk {
            id: 17,
            keys: vec![1, 4, 9],
        },
        Frame::SubscribeOk { id: 12 },
        Frame::GoodbyeOk { id: 18 },
        Frame::EventBatch {
            events: vec![
                EventBody {
                    tick: 101,
                    changes: 13,
                    signalling_cost: 13.5,
                },
                EventBody {
                    tick: 102,
                    changes: 14,
                    signalling_cost: -0.0,
                },
            ],
        },
        Frame::Error {
            id: 19,
            code: ErrorCode::Draining,
            message: "process is draining".into(),
        },
        // The image kinds, pinned apart from the 25 above.
        Frame::Image { id: 20 },
        Frame::Restore {
            id: 21,
            bytes: blob.clone(),
        },
        Frame::ImageOk {
            id: 20,
            bytes: blob,
        },
        Frame::RestoreOk {
            id: 21,
            tick: 64,
            keys: vec![0, 2, 5],
        },
    ]
}

/// `encode_into` appends a frame's wire form to a buffer that may
/// already hold others; `encode` is a wrapper over it. The first pinned
/// digest is of the bytes the 25 kinds before the image kinds encoded to
/// before the plain tick, plain subscribe and one-event push were
/// deleted (computed with the encoder that still had them), so no
/// surviving kind's wire moved when they went; the image kinds are
/// pinned after them.
#[test]
fn encode_into_appends_the_pinned_wire_bytes_of_every_frame_kind() {
    let frames = one_of_every_kind();
    assert_eq!(frames.len(), 29, "one frame per kind");
    let (mut each, mut appended) = (Vec::new(), Vec::new());
    for frame in &frames {
        each.extend_from_slice(&encode(frame));
        proto::encode_into(frame, &mut appended);
    }
    assert_eq!(appended, each);
    let before: usize = frames[..25].iter().map(|f| encode(f).len()).sum();
    let (old, image) = each.split_at(before);
    assert_eq!((old.len(), fnv1a(old)), (1545, 10362492830773999881));
    assert_eq!((image.len(), fnv1a(image)), (696, 5368403828964007087));

    // A head written for a blob that follows it, then the blob, is the
    // same bytes.
    for frame in frames {
        let (head, blob) = match frame.clone() {
            Frame::SnapshotBinOk { id, bytes } => {
                (Frame::SnapshotBinOk { id, bytes: vec![] }, bytes)
            }
            Frame::LeaseRevoked { id, epoch, bytes } => (
                Frame::LeaseRevoked {
                    id,
                    epoch,
                    bytes: vec![],
                },
                bytes,
            ),
            _ => continue,
        };
        let mut in_place = vec![0xAA]; // appended behind what is already queued
        proto::encode_blob_head(&head, blob.len(), &mut in_place);
        in_place.extend_from_slice(&blob);
        assert_eq!(in_place[1..], encode(&frame)[..]);
    }
}

/// The two frames that carry arrivals encode straight from a borrowed
/// slice to the bytes `encode_into` makes of the owned list.
#[test]
fn arrivals_encode_from_a_slice_to_the_same_bytes() {
    let arrivals = [(3u64, 1.5f64), (9, 0.0), (70_000, 1e-3), (u64::MAX, -0.0)];
    let frames = |arrivals: Vec<(u64, f64)>| {
        [
            Frame::StageNoAck {
                arrivals: arrivals.clone(),
            },
            Frame::TickSync {
                id: 6,
                arrivals,
                min_staged: 7,
            },
        ]
    };
    for batch in [&arrivals[..], &arrivals[..1], &[]] {
        for (owned, head) in frames(batch.to_vec()).iter().zip(&frames(Vec::new())) {
            let mut from_slice = vec![0xAA];
            proto::encode_arrivals_into(head, batch, &mut from_slice);
            assert_eq!(from_slice[1..], encode(owned)[..], "{owned:?}");
        }
    }
    // A join's tenant goes the same way, from the caller's `&str`.
    for tenant in ["acme", "", "tenant-with-a-näme"] {
        let join = |tenant: &str| Frame::Join {
            id: 8,
            tenant: tenant.into(),
        };
        let mut from_str = vec![0xAA];
        proto::encode_tenant_into(&join(""), tenant, &mut from_str);
        assert_eq!(from_str[1..], encode(&join(tenant))[..], "{tenant:?}");
    }
}
