//! The gateway wire protocol: versioned, length-prefixed binary frames.
//!
//! Frames are written and read with [`cdba_ctrl::codec`], the codec of
//! every snapshot body, image and lease the frames carry — a four-byte
//! magic, a version byte, and little-endian fixed-width integers — so one
//! module bounds-checks hostile bytes however they arrive. Where a
//! snapshot body is one value, this module frames a *conversation*:
//!
//! ```text
//! frame   := u32_le payload_len · payload        (payload_len ≤ MAX_FRAME)
//! payload := u8 kind · kind-specific body
//! ```
//!
//! Every client request carries a `u64` request id; the matching response
//! (or a typed [`Frame::Error`]) echoes it. The only frame the server sends
//! unasked is a typed error push, which carries [`PUSH_ID`]. The first
//! frame on a connection must be [`Frame::Hello`] carrying [`MAGIC`] and
//! [`VERSION`]; the server answers [`Frame::HelloOk`] or a typed error and
//! closes.
//!
//! Strings are `u32_le` byte length + UTF-8 bytes; vectors are `u32_le`
//! element count + elements. Both are validated against the remaining
//! payload before allocation, so a hostile length cannot balloon memory.

use bytes::Bytes;
use cdba_ctrl::codec::{CodecError, Dec, Enc};
use std::fmt;

/// The protocol magic, sent in [`Frame::Hello`].
pub const MAGIC: [u8; 4] = *b"CDBG";

/// The protocol version, sent in [`Frame::Hello`] / [`Frame::HelloOk`].
/// The server speaks exactly this version and refuses a handshake
/// offering any other with [`ErrorCode::BadVersion`]: a client and a
/// server are built from the same source, so there is nothing to
/// negotiate. Version 7 is requests and their replies only —
/// unacknowledged staging ([`Frame::StageNoAck`]) with count-gated commits
/// ([`Frame::TickSync`]; a plain tick is one gated at 0), binary
/// snapshots ([`Frame::SnapshotBin`], which carry the signalling bill), the
/// lease hand-off a fleet migration is made of ([`Frame::LeaseRevoke`] /
/// [`Frame::LeaseGrant`], which carry the session's blob and nothing
/// else), and a control-plane image cut and restored whole
/// ([`Frame::Image`] / [`Frame::Restore`]), which an orchestrator respawns
/// a lost process from. Which sessions migrate, and which processes take
/// new ones, is the orchestrator's state alone.
pub const VERSION: u8 = 7;

/// Hard upper bound on one frame's payload, refused before allocation by a
/// reader and before a byte is written by a sender: a 100k-session binary
/// snapshot is ~14 MiB.
pub const MAX_FRAME: usize = 1 << 26;

/// Refuses a payload of `len` bytes, which no reader takes: over
/// [`MAX_FRAME`].
pub(crate) fn check_len(len: usize) -> Result<(), ProtoError> {
    match len > MAX_FRAME {
        true => Err(ProtoError::Oversized {
            declared: len as u64,
        }),
        false => Ok(()),
    }
}

/// The request id carried by error pushes — an unacknowledged stage's
/// refusal, or an error raised before a request id could be parsed.
pub const PUSH_ID: u64 = 0;

/// Typed error classes carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The handshake magic did not match [`MAGIC`].
    BadMagic,
    /// The handshake version did not match [`VERSION`].
    BadVersion,
    /// A well-framed payload failed to decode (or arrived truncated).
    BadFrame,
    /// A length prefix exceeded [`MAX_FRAME`], or a reply would have.
    Oversized,
    /// A bounded queue was full; retry later.
    Busy,
    /// The server could not answer within its request timeout.
    Timeout,
    /// The control plane refused the operation (admission, unknown
    /// session, shard down, …); the message carries the `CtrlError`.
    Ctrl,
    /// The session named by the request is owned by another connection.
    NotOwner,
    /// The connection was idle past the server's harvest timeout.
    Idle,
    /// The server is shutting down.
    Shutdown,
    /// A protocol-state violation (request before hello, server-only
    /// frame from a client, …).
    Proto,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::BadMagic => 1,
            ErrorCode::BadVersion => 2,
            ErrorCode::BadFrame => 3,
            ErrorCode::Oversized => 4,
            ErrorCode::Busy => 5,
            ErrorCode::Timeout => 6,
            ErrorCode::Ctrl => 7,
            ErrorCode::NotOwner => 8,
            ErrorCode::Idle => 9,
            ErrorCode::Shutdown => 10,
            ErrorCode::Proto => 11,
        }
    }

    fn from_u8(raw: u8) -> Option<Self> {
        Some(match raw {
            1 => ErrorCode::BadMagic,
            2 => ErrorCode::BadVersion,
            3 => ErrorCode::BadFrame,
            4 => ErrorCode::Oversized,
            5 => ErrorCode::Busy,
            6 => ErrorCode::Timeout,
            7 => ErrorCode::Ctrl,
            8 => ErrorCode::NotOwner,
            9 => ErrorCode::Idle,
            10 => ErrorCode::Shutdown,
            11 => ErrorCode::Proto,
            // 12, the retired draining refusal, is unknown and not reused.
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ErrorCode::BadMagic => "bad-magic",
            ErrorCode::BadVersion => "bad-version",
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::Oversized => "oversized",
            ErrorCode::Busy => "busy",
            ErrorCode::Timeout => "timeout",
            ErrorCode::Ctrl => "ctrl",
            ErrorCode::NotOwner => "not-owner",
            ErrorCode::Idle => "idle",
            ErrorCode::Shutdown => "shutdown",
            ErrorCode::Proto => "proto",
        };
        f.write_str(name)
    }
}

/// One wire frame, client→server or server→client.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Handshake: the first client frame on every connection.
    Hello {
        /// Must equal [`MAGIC`].
        magic: [u8; 4],
        /// Must equal [`VERSION`].
        version: u8,
    },
    /// Handshake accepted.
    HelloOk {
        /// The protocol version, [`VERSION`].
        version: u8,
    },
    /// Admit one dedicated session for `tenant`.
    Join {
        /// Request id.
        id: u64,
        /// Owning tenant.
        tenant: String,
    },
    /// Admit a pooled group of `size` sessions for `tenant`.
    JoinGroup {
        /// Request id.
        id: u64,
        /// Owning tenant.
        tenant: String,
        /// Group size (≥ 2).
        size: u32,
    },
    /// Begin draining a session out.
    Leave {
        /// Request id.
        id: u64,
        /// The session to leave.
        key: u64,
    },
    /// Buffer arrivals for the next batch tick without acknowledgement.
    /// The server sends no
    /// reply on success; a rejected batch is reported asynchronously with
    /// a typed [`Frame::Error`] carrying [`PUSH_ID`], which the client
    /// surfaces at its next synchronous request. This removes one round
    /// trip per staging connection per tick — the wire-level analogue of
    /// the paper's §1 drive to make signalling events cheap.
    StageNoAck {
        /// `(session key, bits)` pairs to stage.
        arrivals: Vec<(u64, f64)>,
    },
    /// Stage `arrivals`, then commit the batch tick (all staged arrivals
    /// across every connection, applied in ascending key order) once at
    /// least `min_staged` arrivals are buffered gateway-wide. The commit
    /// is parked until unacknowledged stages from other connections have
    /// landed, which makes the commit's contents independent of socket
    /// arrival order; a `min_staged` of 0 commits at once.
    TickSync {
        /// Request id, echoed by the deferred [`Frame::TickOk`].
        id: u64,
        /// `(session key, bits)` pairs to stage before committing.
        arrivals: Vec<(u64, f64)>,
        /// Arrivals that must be staged before the commit fires.
        min_staged: u32,
    },
    /// Request a full [`GatewaySnapshot`](crate::GatewaySnapshot),
    /// answered with [`Frame::SnapshotBinOk`] carrying a [`crate::codec`]
    /// body.
    SnapshotBin {
        /// Request id.
        id: u64,
    },
    /// Revoke one session's ownership lease and take its state: the
    /// session is quiesced, its session row captured as a binary checkpoint
    /// blob, and it is removed from this process with its budget envelope
    /// released. First half of a fleet live migration; the orchestrator
    /// feeds the blob to [`Frame::LeaseGrant`] on the target process.
    LeaseRevoke {
        /// Request id.
        id: u64,
        /// The session whose lease is revoked. Must be owned by this
        /// connection and dedicated (pooled members cannot migrate).
        key: u64,
    },
    /// Grant this process a lease on a migrated-in session: the blob
    /// from a [`Frame::LeaseRevoked`] is imported under a fresh key and
    /// the session resumes bitwise.
    LeaseGrant {
        /// Request id.
        id: u64,
        /// The session checkpoint blob, verbatim from the revoke.
        bytes: Vec<u8>,
    },
    /// Cut a process image at the current tick: the control plane's
    /// image (every shard's frame and the driver state), byte for byte.
    /// Refused with [`ErrorCode::Busy`] while arrivals are staged for the
    /// next tick.
    Image {
        /// Request id.
        id: u64,
    },
    /// Restore a fresh process — one that has issued no session and
    /// committed no tick — from an [`Frame::ImageOk`]'s bytes. The
    /// restoring connection owns every restored session; an image the
    /// process refuses leaves it fresh.
    Restore {
        /// Request id.
        id: u64,
        /// The image, verbatim from an [`Frame::ImageOk`].
        bytes: Vec<u8>,
    },
    /// Clean client-initiated close.
    Goodbye {
        /// Request id.
        id: u64,
    },
    /// Response to [`Frame::Join`].
    Joined {
        /// Echoed request id.
        id: u64,
        /// The admitted session's key.
        key: u64,
    },
    /// Response to [`Frame::JoinGroup`].
    GroupJoined {
        /// Echoed request id.
        id: u64,
        /// The admitted members' keys.
        members: Vec<u64>,
    },
    /// Response to [`Frame::Leave`].
    LeaveOk {
        /// Echoed request id.
        id: u64,
    },
    /// Response to [`Frame::TickSync`].
    TickOk {
        /// Echoed request id.
        id: u64,
        /// Ticks committed so far (after this one).
        tick: u64,
    },
    /// Response to [`Frame::SnapshotBin`].
    SnapshotBinOk {
        /// Echoed request id.
        id: u64,
        /// A `GatewaySnapshot` in the [`crate::codec`] binary encoding.
        bytes: Vec<u8>,
    },
    /// Response to [`Frame::LeaseRevoke`].
    LeaseRevoked {
        /// Echoed request id.
        id: u64,
        /// The session's checkpoint blob (binary codec); feed it to
        /// [`Frame::LeaseGrant`] on the target process verbatim.
        bytes: Vec<u8>,
    },
    /// Response to [`Frame::LeaseGrant`].
    LeaseGranted {
        /// Echoed request id.
        id: u64,
        /// The key the session resumed under on this process.
        key: u64,
    },
    /// Response to [`Frame::Image`].
    ImageOk {
        /// Echoed request id.
        id: u64,
        /// The image; feed it to [`Frame::Restore`] verbatim.
        bytes: Vec<u8>,
    },
    /// Response to [`Frame::Restore`].
    RestoreOk {
        /// Echoed request id.
        id: u64,
        /// The tick the process resumes from: the image's.
        tick: u64,
        /// Keys of every restored live session, ascending; the
        /// restoring connection owns them all.
        keys: Vec<u64>,
    },
    /// Response to [`Frame::Goodbye`]; the server closes afterwards.
    GoodbyeOk {
        /// Echoed request id.
        id: u64,
    },
    /// Typed error response; the connection may or may not survive it
    /// (framing-level errors close it, semantic ones do not).
    Error {
        /// Echoed request id, or [`PUSH_ID`] if none was parsed.
        id: u64,
        /// The error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// Error raised while decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The buffer ended before the declared payload.
    Truncated,
    /// A length prefix exceeded [`MAX_FRAME`].
    Oversized {
        /// The declared payload length.
        declared: u64,
    },
    /// The payload's kind byte is not a known frame kind.
    UnknownKind(u8),
    /// A string field was not valid UTF-8.
    BadString,
    /// The payload decoded cleanly but left unconsumed bytes.
    Trailing {
        /// How many bytes were left over.
        extra: usize,
    },
    /// An error frame carried an unknown [`ErrorCode`].
    BadErrorCode(u8),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "truncated frame"),
            ProtoError::Oversized { declared } => {
                write!(
                    f,
                    "declared payload of {declared} bytes exceeds {MAX_FRAME}"
                )
            }
            ProtoError::UnknownKind(kind) => write!(f, "unknown frame kind {kind:#04x}"),
            ProtoError::BadString => write!(f, "string field is not valid UTF-8"),
            ProtoError::Trailing { extra } => write!(f, "{extra} trailing bytes after payload"),
            ProtoError::BadErrorCode(raw) => write!(f, "unknown error code {raw}"),
        }
    }
}

impl std::error::Error for ProtoError {}

const K_HELLO: u8 = 0x01;
const K_HELLO_OK: u8 = 0x02;
const K_JOIN: u8 = 0x10;
const K_JOIN_GROUP: u8 = 0x11;
const K_LEAVE: u8 = 0x12;
// The retired acked-stage, plain-tick, JSON-snapshot, plain-subscribe,
// delta-snapshot, batched-subscribe, drain and checkpoint-pull requests
// (0x13, 0x14, 0x15, 0x16, 0x1A, 0x1C, 0x1D, 0x42, 0x43), their replies
// (0x23, 0x25, 0x26, 0x28, 0x2A, 0x2D, 0x2E) and the event pushes (0x30,
// 0x31) decode as unknown kinds; the bytes are not reused.
const K_GOODBYE: u8 = 0x17;
const K_STAGE_NOACK: u8 = 0x18;
const K_TICK_SYNC: u8 = 0x19;
const K_SNAPSHOT_BIN: u8 = 0x1B;
const K_JOINED: u8 = 0x20;
const K_GROUP_JOINED: u8 = 0x21;
const K_LEAVE_OK: u8 = 0x22;
const K_TICK_OK: u8 = 0x24;
const K_GOODBYE_OK: u8 = 0x27;
const K_SNAPSHOT_BIN_OK: u8 = 0x29;
const K_LEASE_REVOKED: u8 = 0x2B;
const K_LEASE_GRANTED: u8 = 0x2C;
const K_ERROR: u8 = 0x3F;
// The request block ends at 0x1F; later requests start a fresh one at
// 0x40.
const K_LEASE_REVOKE: u8 = 0x40;
const K_LEASE_GRANT: u8 = 0x41;
const K_IMAGE: u8 = 0x44;
const K_RESTORE: u8 = 0x45;
// The reply block ends at 0x2F; later replies start a fresh one at 0x50.
const K_IMAGE_OK: u8 = 0x50;
const K_RESTORE_OK: u8 = 0x51;

/// Codec refusals as wire errors. The wire reads no tag or version byte
/// through the codec, so those two refusals do not arise from a frame.
impl From<CodecError> for ProtoError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::BadUtf8 => ProtoError::BadString,
            CodecError::Trailing(extra) => ProtoError::Trailing { extra },
            CodecError::Eof
            | CodecError::BadLength(_)
            | CodecError::BadTag(_)
            | CodecError::BadVersion(_) => ProtoError::Truncated,
        }
    }
}

/// Encodes one frame to its full wire form (length prefix + payload).
pub fn encode(frame: &Frame) -> Bytes {
    let mut wire = Vec::new();
    encode_into(frame, &mut wire);
    wire.into()
}

/// Appends one frame's full wire form (length prefix + payload) to `out`
/// — a connection's write buffer, so a frame's bytes are written once,
/// where they are sent from. The prefix is reserved up front and patched
/// once the payload's length is known.
pub fn encode_into(frame: &Frame, out: &mut Vec<u8>) {
    let prefix = out.len();
    let mut e = Enc::new(out);
    e.u32(0);
    match frame {
        Frame::Hello { magic, version } => {
            e.u8(K_HELLO);
            e.bytes(magic);
            e.u8(*version);
        }
        Frame::HelloOk { version } => {
            e.u8(K_HELLO_OK);
            e.u8(*version);
        }
        Frame::Join { id, tenant } => {
            e.u8(K_JOIN);
            e.u64(*id);
            e.str(tenant);
        }
        Frame::JoinGroup { id, tenant, size } => {
            e.u8(K_JOIN_GROUP);
            e.u64(*id);
            e.str(tenant);
            e.u32(*size);
        }
        Frame::Leave { id, key } => {
            e.u8(K_LEAVE);
            e.u64(*id);
            e.u64(*key);
        }
        Frame::StageNoAck { arrivals } => {
            e.u8(K_STAGE_NOACK);
            encode_arrivals(&mut e, arrivals);
        }
        Frame::TickSync {
            id,
            arrivals,
            min_staged,
        } => {
            e.u8(K_TICK_SYNC);
            e.u64(*id);
            e.u32(*min_staged);
            encode_arrivals(&mut e, arrivals);
        }
        Frame::SnapshotBin { id } => {
            e.u8(K_SNAPSHOT_BIN);
            e.u64(*id);
        }
        Frame::LeaseRevoke { id, key } => {
            e.u8(K_LEASE_REVOKE);
            e.u64(*id);
            e.u64(*key);
        }
        Frame::LeaseGrant { id, bytes } => encode_blob(&mut e, K_LEASE_GRANT, *id, bytes),
        Frame::Image { id } => {
            e.u8(K_IMAGE);
            e.u64(*id);
        }
        Frame::Restore { id, bytes } => encode_blob(&mut e, K_RESTORE, *id, bytes),
        Frame::ImageOk { id, bytes } => encode_blob(&mut e, K_IMAGE_OK, *id, bytes),
        Frame::RestoreOk { id, tick, keys } => {
            e.u8(K_RESTORE_OK);
            e.u64(*id);
            e.u64(*tick);
            encode_keys(&mut e, keys);
        }
        Frame::Goodbye { id } => {
            e.u8(K_GOODBYE);
            e.u64(*id);
        }
        Frame::Joined { id, key } => {
            e.u8(K_JOINED);
            e.u64(*id);
            e.u64(*key);
        }
        Frame::GroupJoined { id, members } => {
            e.u8(K_GROUP_JOINED);
            e.u64(*id);
            encode_keys(&mut e, members);
        }
        Frame::LeaveOk { id } => {
            e.u8(K_LEAVE_OK);
            e.u64(*id);
        }
        Frame::TickOk { id, tick } => {
            e.u8(K_TICK_OK);
            e.u64(*id);
            e.u64(*tick);
        }
        Frame::SnapshotBinOk { id, bytes } => encode_blob(&mut e, K_SNAPSHOT_BIN_OK, *id, bytes),
        Frame::LeaseRevoked { id, bytes } => encode_blob(&mut e, K_LEASE_REVOKED, *id, bytes),
        Frame::LeaseGranted { id, key } => {
            e.u8(K_LEASE_GRANTED);
            e.u64(*id);
            e.u64(*key);
        }
        Frame::GoodbyeOk { id } => {
            e.u8(K_GOODBYE_OK);
            e.u64(*id);
        }
        Frame::Error { id, code, message } => {
            e.u8(K_ERROR);
            e.u64(*id);
            e.u8(code.to_u8());
            e.str(message);
        }
    }
    patch_len(out, prefix, 0);
}

fn encode_arrivals(e: &mut Enc<'_>, arrivals: &[(u64, f64)]) {
    e.len(arrivals.len());
    for &(key, bits) in arrivals {
        e.u64(key);
        e.f64(bits);
    }
}

fn encode_keys(e: &mut Enc<'_>, keys: &[u64]) {
    e.len(keys.len());
    for &key in keys {
        e.u64(key);
    }
}

/// A payload that is its kind, its request id and the blob it ends in.
fn encode_blob(e: &mut Enc<'_>, kind: u8, id: u64, blob: &[u8]) {
    e.u8(kind);
    e.u64(id);
    e.len(blob.len());
    e.bytes(blob);
}

/// Writes the length of the payload behind the prefix at `prefix`: the
/// bytes after it in `out`, and `beyond` more the caller sends behind them.
fn patch_len(out: &mut [u8], prefix: usize, beyond: usize) {
    let len = (out.len() - prefix - 4 + beyond) as u32;
    out[prefix..prefix + 4].copy_from_slice(&len.to_le_bytes());
}

/// [`encode_into`] for the two frames whose payload ends in arrivals
/// ([`Frame::StageNoAck`], [`Frame::TickSync`]), given with their own
/// list empty: `arrivals` goes
/// in its place straight from the caller's slice, so a client does not
/// copy a batch into a frame only to have it read once.
pub fn encode_arrivals_into(frame: &Frame, arrivals: &[(u64, f64)], out: &mut Vec<u8>) {
    encode_tail_into(frame, out, |e| encode_arrivals(e, arrivals));
}

/// The same for [`Frame::Join`], whose payload ends in the tenant: given
/// with an empty one, `tenant` is written from the caller's `&str`.
pub fn encode_tenant_into(frame: &Frame, tenant: &str, out: &mut Vec<u8>) {
    encode_tail_into(frame, out, |e| e.str(tenant));
}

/// Encodes `frame`, whose payload ends in an empty list, string or blob,
/// with what `put_tail` writes in that place.
fn encode_tail_into(frame: &Frame, out: &mut Vec<u8>, put_tail: impl FnOnce(&mut Enc<'_>)) {
    let prefix = out.len();
    encode_into(frame, out);
    debug_assert!(out.ends_with(&[0; 4]), "the frame ends in an empty tail");
    out.truncate(out.len() - 4); // that tail's count
    put_tail(&mut Enc::new(out));
    patch_len(out, prefix, 0);
}

/// [`encode_into`] for a frame whose payload ends in its blob (every
/// snapshot and lease body), given with the blob empty: the frame is
/// written up to where the blob starts, its lengths already counting the
/// `blob_len` bytes the caller sends behind it — so a multi-megabyte body
/// never has to exist in one piece on the sending side.
pub fn encode_blob_head(frame: &Frame, blob_len: usize, out: &mut Vec<u8>) {
    let prefix = out.len();
    encode_tail_into(frame, out, |e| e.len(blob_len));
    patch_len(out, prefix, blob_len);
}

/// The blob a frame's payload ends in, if its kind carries one.
fn blob_mut(frame: &mut Frame) -> Option<&mut Vec<u8>> {
    match frame {
        Frame::LeaseGrant { bytes, .. }
        | Frame::Restore { bytes, .. }
        | Frame::ImageOk { bytes, .. }
        | Frame::SnapshotBinOk { bytes, .. }
        | Frame::LeaseRevoked { bytes, .. } => Some(bytes),
        _ => None,
    }
}

/// Decodes one payload (the bytes after the length prefix) into a frame.
/// A blob the payload ends in keeps the payload's allocation when nothing
/// else holds it, so a multi-megabyte body is not copied.
///
/// # Errors
///
/// [`ProtoError`] for truncated bodies, unknown kinds, invalid UTF-8,
/// unknown error codes, or trailing bytes.
pub fn decode_payload(payload: Bytes) -> Result<Frame, ProtoError> {
    let (mut frame, blob) = decode_head(&mut Dec::new(&payload))?;
    if let Some(bytes) = blob_mut(&mut frame) {
        let tail = payload.slice(payload.len() - blob..payload.len());
        // Then the tail alone holds the allocation, and moves out of it.
        drop(payload);
        *bytes = tail.into();
    }
    Ok(frame)
}

/// Decodes a whole payload where it lies, copying out only what the frame
/// owns.
fn decode_slice(payload: &[u8]) -> Result<Frame, ProtoError> {
    let mut d = Dec::new(payload);
    let (mut frame, blob) = decode_head(&mut d)?;
    if let Some(bytes) = blob_mut(&mut frame) {
        *bytes = d.bytes(blob)?.to_vec();
    }
    Ok(frame)
}

/// Decodes a payload as far as the blob it ends in (every snapshot, lease
/// and image payload does): the frame with its blob empty, and the blob's
/// length — 0 for a kind with no blob — which is all `d` has left. Over
/// the front of a payload ([`Dec::partial`]) a frame decodes, or is
/// refused, as over the whole.
fn decode_head(d: &mut Dec<'_>) -> Result<(Frame, usize), ProtoError> {
    let mut frame = decode_fields(d)?;
    let blob = match blob_mut(&mut frame) {
        Some(_) => d.len(1)?,
        None => 0,
    };
    match d.remaining() - blob {
        0 => Ok((frame, blob)),
        extra => Err(ProtoError::Trailing { extra }),
    }
}

/// A `u32` count, then that many `(key, bits)` pairs. A count the payload
/// cannot hold is refused before anything is allocated.
fn decode_arrivals(d: &mut Dec<'_>) -> Result<Vec<(u64, f64)>, CodecError> {
    let count = d.len(16)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push((d.u64()?, d.f64()?));
    }
    Ok(out)
}

/// A `u32` count, then that many keys; refused as arrivals are.
fn decode_keys(d: &mut Dec<'_>) -> Result<Vec<u64>, CodecError> {
    let count = d.len(8)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(d.u64()?);
    }
    Ok(out)
}

/// A payload's kind byte and fields, in the order [`encode_into`] wrote
/// them, short of a blob.
fn decode_fields(d: &mut Dec<'_>) -> Result<Frame, ProtoError> {
    let kind = d.u8()?;
    Ok(match kind {
        K_HELLO => Frame::Hello {
            magic: d.bytes(4)?.try_into().expect("4 bytes"),
            version: d.u8()?,
        },
        K_HELLO_OK => Frame::HelloOk { version: d.u8()? },
        K_JOIN => Frame::Join {
            id: d.u64()?,
            tenant: d.str()?,
        },
        K_JOIN_GROUP => Frame::JoinGroup {
            id: d.u64()?,
            tenant: d.str()?,
            size: d.u32()?,
        },
        K_LEAVE => Frame::Leave {
            id: d.u64()?,
            key: d.u64()?,
        },
        K_STAGE_NOACK => Frame::StageNoAck {
            arrivals: decode_arrivals(d)?,
        },
        K_TICK_SYNC => Frame::TickSync {
            id: d.u64()?,
            min_staged: d.u32()?,
            arrivals: decode_arrivals(d)?,
        },
        K_SNAPSHOT_BIN => Frame::SnapshotBin { id: d.u64()? },
        K_LEASE_REVOKE => Frame::LeaseRevoke {
            id: d.u64()?,
            key: d.u64()?,
        },
        K_LEASE_GRANT => Frame::LeaseGrant {
            id: d.u64()?,
            bytes: Vec::new(),
        },
        K_IMAGE => Frame::Image { id: d.u64()? },
        K_RESTORE => Frame::Restore {
            id: d.u64()?,
            bytes: Vec::new(),
        },
        K_IMAGE_OK => Frame::ImageOk {
            id: d.u64()?,
            bytes: Vec::new(),
        },
        K_RESTORE_OK => Frame::RestoreOk {
            id: d.u64()?,
            tick: d.u64()?,
            keys: decode_keys(d)?,
        },
        K_LEASE_REVOKED => Frame::LeaseRevoked {
            id: d.u64()?,
            bytes: Vec::new(),
        },
        K_LEASE_GRANTED => Frame::LeaseGranted {
            id: d.u64()?,
            key: d.u64()?,
        },
        K_GOODBYE => Frame::Goodbye { id: d.u64()? },
        K_JOINED => Frame::Joined {
            id: d.u64()?,
            key: d.u64()?,
        },
        K_GROUP_JOINED => Frame::GroupJoined {
            id: d.u64()?,
            members: decode_keys(d)?,
        },
        K_LEAVE_OK => Frame::LeaveOk { id: d.u64()? },
        K_TICK_OK => Frame::TickOk {
            id: d.u64()?,
            tick: d.u64()?,
        },
        K_SNAPSHOT_BIN_OK => Frame::SnapshotBinOk {
            id: d.u64()?,
            bytes: Vec::new(),
        },
        K_GOODBYE_OK => Frame::GoodbyeOk { id: d.u64()? },
        K_ERROR => {
            let id = d.u64()?;
            let raw = d.u8()?;
            let code = ErrorCode::from_u8(raw).ok_or(ProtoError::BadErrorCode(raw))?;
            Frame::Error {
                id,
                code,
                message: d.str()?,
            }
        }
        other => return Err(ProtoError::UnknownKind(other)),
    })
}

/// Decodes one full frame (length prefix + payload) from the front of
/// `buf`, consuming it.
///
/// # Errors
///
/// [`ProtoError::Truncated`] when the buffer holds less than one whole
/// frame, [`ProtoError::Oversized`] for a hostile length prefix, and the
/// payload errors of [`decode_payload`].
pub fn decode(buf: &mut Bytes) -> Result<Frame, ProtoError> {
    let mut d = Dec::new(buf);
    let declared = d.u32()? as usize;
    check_len(declared)?;
    d.bytes(declared)?; // the whole payload is here
    let whole = 4 + declared;
    let payload = if whole == buf.len() {
        // Nothing else holds the buffer now, so a blob the payload ends
        // in is taken without a copy.
        std::mem::take(buf).slice(4..whole)
    } else {
        let payload = buf.slice(4..whole);
        *buf = buf.slice(whole..buf.len());
        payload
    };
    decode_payload(payload)
}

/// The request id a server response frame echoes, if it is one.
pub fn reply_id(frame: &Frame) -> Option<u64> {
    match frame {
        Frame::Joined { id, .. }
        | Frame::GroupJoined { id, .. }
        | Frame::LeaveOk { id }
        | Frame::TickOk { id, .. }
        | Frame::SnapshotBinOk { id, .. }
        | Frame::LeaseRevoked { id, .. }
        | Frame::LeaseGranted { id, .. }
        | Frame::ImageOk { id, .. }
        | Frame::RestoreOk { id, .. }
        | Frame::GoodbyeOk { id } => Some(*id),
        _ => None,
    }
}

/// The buffer a [`FrameReader`] reads into: one `read` takes a frame that
/// fits whole, with whatever frames follow it.
const READ_BUF: usize = 16 * 1024;

/// The most one read of a frame larger than [`READ_BUF`] asks for — and so
/// the most memory a peer commits on the reader by sending only a length
/// prefix.
const LARGE_READ_STEP: usize = 256 * 1024;

/// What one [`FrameReader::next`] call found.
#[derive(Debug)]
pub(crate) enum Next {
    /// The next whole frame.
    Frame(Frame),
    /// A length prefix over [`MAX_FRAME`] (the stream is lost), or a whole
    /// payload that does not decode (the stream is still in step).
    Bad(ProtoError),
    /// The source ended between frames.
    Closed,
    /// The source ended inside a frame.
    ClosedMidFrame,
    /// A read failed: `WouldBlock` from a non-blocking source, a blocking
    /// one's timeout, or a hard error.
    Failed(std::io::Error),
}

/// The one reader of frames off a byte stream — a server connection's
/// non-blocking socket or a client's blocking one. It reads into a fixed
/// buffer, allocated once and never cleared, and hands out, one per call,
/// the whole frames one `read` delivered. A frame too large for the
/// buffer is read straight into its own allocation, which grows with the
/// bytes received, so a bare length prefix commits one read step.
pub(crate) struct FrameReader {
    buf: Box<[u8]>,
    /// The bytes read and not handed out are `buf[at..end]`.
    at: usize,
    end: usize,
    /// A frame too large for `buf`, prefix included, as far as it has
    /// arrived, and its whole length (0: none).
    large: Vec<u8>,
    large_len: usize,
    /// The length of the blob behind the frame [`Self::next_with`]
    /// returned, until [`Self::blob`] takes it.
    blob: usize,
    /// Since when the reader has waited for the rest of a partial frame.
    stalled: Option<std::time::Instant>,
}

impl fmt::Debug for FrameReader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("FrameReader")
    }
}

impl FrameReader {
    pub(crate) fn new() -> Self {
        Self {
            buf: vec![0; READ_BUF].into_boxed_slice(),
            at: 0,
            end: 0,
            large: Vec::new(),
            large_len: 0,
            blob: 0,
            stalled: None,
        }
    }

    /// Whether part of a frame is buffered.
    pub(crate) fn mid_frame(&self) -> bool {
        self.end > self.at || self.large_len > 0
    }

    /// Since when the reader has waited for the rest of a partial frame.
    pub(crate) fn stalled_since(&self) -> Option<std::time::Instant> {
        self.stalled
    }

    /// The next frame: a buffered one without a read, else what reads
    /// bring, until the source reports `WouldBlock`, its end or an error.
    pub(crate) fn next(&mut self, src: &mut impl std::io::Read) -> Next {
        self.next_with(src, false)
    }

    /// The length of the blob behind the frame [`Self::next_with`]
    /// returned, and its bytes already buffered, now taken; the caller
    /// reads the rest off the source.
    pub(crate) fn blob(&mut self) -> (&[u8], usize) {
        let len = std::mem::take(&mut self.blob);
        let (from, n) = (self.at, len.min(self.end - self.at));
        self.consume(n);
        (&self.buf[from..from + n], len)
    }

    /// [`Self::next`]; with `apart`, a frame whose payload ends in a blob
    /// comes with its blob empty, left for [`Self::blob`]: a
    /// multi-megabyte snapshot body is decoded as it arrives.
    pub(crate) fn next_with(&mut self, src: &mut impl std::io::Read, apart: bool) -> Next {
        loop {
            if let Some(next) = self.take(apart) {
                return next;
            }
            if self.mid_frame() && self.stalled.is_none() {
                self.stalled = Some(std::time::Instant::now());
            }
            match self.fill(src) {
                Ok(0) if self.mid_frame() => return Next::ClosedMidFrame,
                Ok(0) => return Next::Closed,
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Next::Failed(e),
            }
        }
    }

    /// The front frame, once enough of it is buffered to hand out.
    fn take(&mut self, apart: bool) -> Option<Next> {
        if self.large_len > 0 {
            if self.large.len() < self.large_len {
                return None;
            }
            self.large_len = 0;
            self.stalled = None;
            let mut large = std::mem::take(&mut self.large);
            let head = decode_head(&mut Dec::new(&large[4..]));
            return Some(match head {
                Ok((mut frame, blob)) => {
                    if let Some(bytes) = blob_mut(&mut frame) {
                        // The blob keeps the frame's own allocation.
                        large.drain(..large.len() - blob);
                        *bytes = large;
                    }
                    Next::Frame(frame)
                }
                Err(e) => Next::Bad(e),
            });
        }
        let held = &self.buf[self.at..self.end];
        let declared = Dec::new(held).u32().ok()? as usize;
        if let Err(e) = check_len(declared) {
            return Some(Next::Bad(e));
        }
        let whole = 4 + declared;
        // As much of the frame as the buffer can hold is in it.
        let full = held.len() >= whole.min(self.buf.len());
        if apart && full {
            let front = &held[4..whole.min(held.len())];
            let mut d = Dec::partial(front, declared - front.len());
            if let Ok((frame, blob)) = decode_head(&mut d) {
                self.consume(whole - blob);
                self.blob = blob;
                return Some(Next::Frame(frame));
            }
        }
        if held.len() >= whole {
            let frame = decode_slice(&held[4..whole]);
            self.consume(whole);
            return Some(frame.map_or_else(Next::Bad, Next::Frame));
        }
        if whole > self.buf.len() && (full || !apart) {
            self.large = held.to_vec();
            self.large_len = whole;
            (self.at, self.end) = (0, 0);
        }
        None
    }

    fn consume(&mut self, n: usize) {
        self.at += n;
        self.stalled = None;
        if self.at == self.end {
            (self.at, self.end) = (0, 0);
        }
    }

    /// One read: into the large frame, or into the buffer behind the bytes
    /// it holds.
    fn fill(&mut self, src: &mut impl std::io::Read) -> std::io::Result<usize> {
        if self.large_len > 0 {
            let at = self.large.len();
            let left = self.large_len - at;
            if self.large.capacity() == at {
                self.large.reserve_exact(left.min(at.max(LARGE_READ_STEP)));
            }
            let room = left.min(LARGE_READ_STEP).min(self.large.capacity() - at);
            self.large.resize(at + room, 0);
            let got = src.read(&mut self.large[at..]);
            self.large.truncate(at + *got.as_ref().unwrap_or(&0));
            got
        } else {
            if self.at > 0 {
                self.buf.copy_within(self.at..self.end, 0);
                (self.at, self.end) = (0, self.end - self.at);
            }
            let got = src.read(&mut self.buf[self.end..]);
            self.end += *got.as_ref().unwrap_or(&0);
            got
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One frame of every kind, each a few bytes long.
    fn one_of_every_kind() -> Vec<Frame> {
        vec![
            Frame::Hello {
                magic: MAGIC,
                version: VERSION,
            },
            Frame::HelloOk { version: VERSION },
            Frame::Join {
                id: 7,
                tenant: "acme".into(),
            },
            Frame::JoinGroup {
                id: 8,
                tenant: "globex".into(),
                size: 4,
            },
            Frame::Leave { id: 9, key: 42 },
            Frame::StageNoAck {
                arrivals: vec![(5, 2.5)],
            },
            Frame::TickSync {
                id: 21,
                arrivals: vec![(1, 0.5)],
                min_staged: 6,
            },
            Frame::SnapshotBin { id: 23 },
            Frame::LeaseRevoke { id: 26, key: 42 },
            Frame::LeaseGrant {
                id: 27,
                bytes: vec![1, 0, 9],
            },
            Frame::LeaseRevoked {
                id: 26,
                bytes: vec![7, 7],
            },
            Frame::LeaseGranted { id: 27, key: 5 },
            Frame::Image { id: 30 },
            Frame::ImageOk {
                id: 30,
                bytes: vec![3, 1, 4],
            },
            Frame::Restore {
                id: 31,
                bytes: vec![3, 1, 4],
            },
            Frame::RestoreOk {
                id: 31,
                tick: 64,
                keys: vec![0, 2],
            },
            Frame::Goodbye { id: 14 },
            Frame::Joined { id: 7, key: 42 },
            Frame::GroupJoined {
                id: 8,
                members: vec![1, 2, 3],
            },
            Frame::LeaveOk { id: 9 },
            Frame::TickOk { id: 11, tick: 99 },
            Frame::SnapshotBinOk {
                id: 23,
                bytes: vec![1, 0, 255, 42],
            },
            Frame::GoodbyeOk { id: 14 },
            Frame::Error {
                id: 15,
                code: ErrorCode::Busy,
                message: "queue full".into(),
            },
        ]
    }

    /// A source that hands out its chunks one per `read` (an empty chunk
    /// is one `WouldBlock`), then `WouldBlock`, or the end with `eof`,
    /// counting its reads.
    struct Script {
        chunks: std::collections::VecDeque<Vec<u8>>,
        eof: bool,
        reads: usize,
    }

    fn script(chunks: impl IntoIterator<Item = Vec<u8>>, eof: bool) -> Script {
        let chunks = chunks.into_iter().collect();
        Script {
            chunks,
            eof,
            reads: 0,
        }
    }

    impl std::io::Read for Script {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            let Some(chunk) = self.chunks.pop_front() else {
                return match self.eof {
                    true => Ok(0),
                    false => Err(std::io::ErrorKind::WouldBlock.into()),
                };
            };
            if chunk.is_empty() {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = chunk.len().min(out.len());
            out[..n].copy_from_slice(&chunk[..n]);
            if n < chunk.len() {
                self.chunks.push_front(chunk[n..].to_vec());
            }
            Ok(n)
        }
    }

    /// Every frame `src` yields, and what ended them.
    fn frames(reader: &mut FrameReader, src: &mut Script) -> (Vec<Frame>, Next) {
        let mut out = Vec::new();
        loop {
            match reader.next(src) {
                Next::Frame(frame) => out.push(frame),
                end => return (out, end),
            }
        }
    }

    fn would_block(next: &Next) -> bool {
        matches!(next, Next::Failed(e) if e.kind() == std::io::ErrorKind::WouldBlock)
    }

    /// Every kind decodes, and comes back from the reader the same and in
    /// order, one per call, whether its bytes arrive in one read or a byte
    /// a read. The one read is all it takes: the call after the last frame
    /// reads once more and finds the source empty.
    #[test]
    fn every_kind_round_trips() {
        let want = one_of_every_kind();
        for frame in &want {
            let mut buf = encode(frame);
            assert_eq!(decode(&mut buf).as_ref(), Ok(frame));
            assert!(buf.is_empty(), "decode consumed the whole frame");
        }
        let wire: Vec<u8> = want.iter().flat_map(|f| encode(f).to_vec()).collect();
        assert!(wire.len() < READ_BUF);

        let (mut reader, mut src) = (FrameReader::new(), script([wire.clone()], false));
        for frame in &want {
            assert!(matches!(reader.next(&mut src), Next::Frame(f) if &f == frame));
        }
        assert!(would_block(&reader.next(&mut src)));
        assert_eq!(src.reads, 2);

        let (mut reader, mut src) = (
            FrameReader::new(),
            script(wire.iter().map(|&b| vec![b]), false),
        );
        let (got, end) = frames(&mut reader, &mut src);
        assert!(got == want && would_block(&end));
        assert_eq!(src.reads, wire.len() + 1);
    }

    /// A cut frame is `Truncated` to `decode`; to the reader, a source that
    /// ends there ended mid-frame, and one that ends behind a whole frame
    /// ended between frames.
    #[test]
    fn truncation_is_reported_at_every_cut() {
        let wire = encode(&Frame::Join {
            id: 1,
            tenant: "tenant-with-a-name".into(),
        });
        for cut in 0..=wire.len() {
            let mut partial = wire.slice(0..cut);
            if cut < wire.len() {
                assert_eq!(
                    decode(&mut partial),
                    Err(ProtoError::Truncated),
                    "cut at {cut}"
                );
            }
            let chunks = [wire.to_vec(), wire[..cut].to_vec()];
            let mut src = script(chunks.into_iter().filter(|c| !c.is_empty()), true);
            let (got, end) = frames(&mut FrameReader::new(), &mut src);
            match cut {
                0 => assert!(got.len() == 1 && matches!(end, Next::Closed)),
                _ if cut == wire.len() => assert!(got.len() == 2 && matches!(end, Next::Closed)),
                _ => assert!(
                    got.len() == 1 && matches!(end, Next::ClosedMidFrame),
                    "cut at {cut}"
                ),
            }
        }
    }

    /// `decode` refuses the prefix, and the reader refuses it before a
    /// byte of the body is read.
    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        let declared = (MAX_FRAME + 1) as u64;
        let prefix = (declared as u32).to_le_bytes().to_vec();
        let refused = ProtoError::Oversized { declared };
        assert_eq!(decode(&mut prefix.clone().into()), Err(refused.clone()));
        let mut src = script([prefix, vec![0; 64]], false);
        let next = FrameReader::new().next(&mut src);
        assert!(matches!(next, Next::Bad(e) if e == refused));
        assert_eq!((src.reads, src.chunks.len()), (1, 1), "the body is unread");
    }

    #[test]
    fn a_would_block_inside_a_frame_resumes_where_it_stopped() {
        let frame = Frame::Join {
            id: 3,
            tenant: "tenant-with-a-name".into(),
        };
        let wire = encode(&frame);
        let chunks = [wire[..7].to_vec(), vec![], vec![], wire[7..].to_vec()];
        let (mut reader, mut src) = (FrameReader::new(), script(chunks, false));
        assert!(would_block(&reader.next(&mut src)));
        assert_eq!(src.reads, 2, "the partial frame, then the empty source");
        let stalled = reader.stalled_since().expect("a partial frame");
        assert!(would_block(&reader.next(&mut src)));
        assert_eq!(reader.stalled_since(), Some(stalled));
        assert!(matches!(reader.next(&mut src), Next::Frame(f) if f == frame));
        assert_eq!((src.reads, reader.stalled_since()), (4, None));
    }

    /// A frame behind a read that brought only the one before it is read
    /// by the call after that one's, not left for a later pass.
    #[test]
    fn frames_in_two_reads_come_back_in_two_calls() {
        let want = [Frame::LeaveOk { id: 1 }, Frame::TickOk { id: 2, tick: 1 }];
        let chunks = want.iter().map(|f| encode(f).to_vec());
        let (mut reader, mut src) = (FrameReader::new(), script(chunks, false));
        for (reads, frame) in [(1, &want[0]), (2, &want[1])] {
            assert!(matches!(reader.next(&mut src), Next::Frame(f) if &f == frame));
            assert_eq!(src.reads, reads);
        }
        assert!(would_block(&reader.next(&mut src)));
        assert_eq!(src.reads, 3);
    }

    /// A frame three buffers long is read into one allocation of its
    /// size, which its blob then is, and the frame behind it is read as
    /// usual.
    #[test]
    fn a_frame_larger_than_the_buffer_lands_in_its_own_allocation() {
        let blob: Vec<u8> = (0..3 * READ_BUF).map(|i| i as u8).collect();
        let frame = Frame::ImageOk { id: 9, bytes: blob };
        let wire = encode(&frame);
        let behind = encode(&Frame::LeaveOk { id: 2 }).to_vec();
        let chunks = [wire[..100].to_vec(), wire[100..].to_vec(), behind];
        let (got, end) = frames(&mut FrameReader::new(), &mut script(chunks, false));
        assert!(would_block(&end));
        let Frame::ImageOk { bytes, .. } = &got[0] else {
            panic!("expected image-ok, got {got:?}");
        };
        assert_eq!(bytes.capacity(), wire.len());
        assert_eq!(got, [frame, Frame::LeaveOk { id: 2 }]);
    }

    #[test]
    fn unknown_kind_and_trailing_bytes_are_rejected() {
        assert_eq!(
            decode_payload(vec![0x7E].into()),
            Err(ProtoError::UnknownKind(0x7E))
        );
        let mut padded = encode(&Frame::LeaveOk { id: 1 }).to_vec();
        padded.push(0);
        let base = padded.len() - 4; // extend the declared length too
        padded[0..4].copy_from_slice(&((base - 4 + 1) as u32).to_le_bytes());
        let total = padded.len();
        padded[0..4].copy_from_slice(&((total - 4) as u32).to_le_bytes());
        assert_eq!(
            decode(&mut padded.into()),
            Err(ProtoError::Trailing { extra: 1 })
        );
    }

    #[test]
    fn hostile_string_length_cannot_balloon() {
        // A join whose tenant is declared far beyond the payload.
        let payload = [&[K_JOIN][..], &1u64.to_le_bytes(), &u32::MAX.to_le_bytes()].concat();
        assert_eq!(decode_payload(payload.into()), Err(ProtoError::Truncated));
    }

    /// A join over loopback, reads counted: the request reaches the
    /// server in one read and the reply the client in one (two each when
    /// a frame's head and body were read apart). The server's end is
    /// non-blocking, and its one read more finds the socket empty.
    #[test]
    fn a_join_costs_one_read_on_each_side() {
        use std::io::{Read, Write};
        use std::net::{TcpListener, TcpStream};
        struct Counted<'a>(&'a TcpStream, usize);
        impl Read for Counted<'_> {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                self.1 += 1;
                self.0.read(out)
            }
        }
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        let (mut join, tenant) = (Vec::new(), String::new());
        encode_tenant_into(&Frame::Join { id: 1, tenant }, "acme", &mut join);
        let joined = encode(&Frame::Joined { id: 1, key: 7 }).to_vec();
        for (wire, mut from, to) in [(join, &client, &server), (joined, &server, &client)] {
            from.write_all(&wire).expect("write");
            to.peek(&mut [0]).expect("the frame arrives");
            let at_server = std::ptr::eq(to, &server);
            to.set_nonblocking(at_server).expect("non-blocking");
            let (mut reader, mut src) = (FrameReader::new(), Counted(to, 0));
            let want = decode(&mut wire.into()).expect("decodes");
            assert!(matches!(reader.next(&mut src), Next::Frame(f) if f == want));
            assert_eq!(src.1, 1, "reads for {want:?}");
            if at_server {
                assert!(would_block(&reader.next(&mut src)), "the socket is empty");
                assert_eq!(src.1, 2);
            }
        }
    }
}
