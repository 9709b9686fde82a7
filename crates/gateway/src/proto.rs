//! The gateway wire protocol: versioned, length-prefixed binary frames.
//!
//! Conventions follow `cdba_traffic::codec` — a four-byte magic, a version
//! byte, and little-endian fixed-width integers over [`bytes`] — but where
//! the trace codec encodes one blob, this module frames a *conversation*:
//!
//! ```text
//! frame   := u32_le payload_len · payload        (payload_len ≤ MAX_FRAME)
//! payload := u8 kind · kind-specific body
//! ```
//!
//! Every client request carries a `u64` request id; the matching response
//! (or a typed [`Frame::Error`]) echoes it. Server pushes (subscription
//! [`Frame::EventBatch`]es) carry no id. The first frame on a connection must be
//! [`Frame::Hello`] carrying [`MAGIC`] and [`VERSION`]; the server answers
//! [`Frame::HelloOk`] or a typed error and closes.
//!
//! Strings are `u32_le` byte length + UTF-8 bytes; vectors are `u32_le`
//! element count + elements. Both are validated against the remaining
//! payload before allocation, so a hostile length cannot balloon memory.

use bytes::{Buf, BufMut, Bytes};
use std::fmt;

/// The protocol magic, sent in [`Frame::Hello`].
pub const MAGIC: [u8; 4] = *b"CDBG";

/// The protocol version, sent in [`Frame::Hello`] / [`Frame::HelloOk`].
/// The server speaks exactly this version and refuses a handshake
/// offering any other with [`ErrorCode::BadVersion`]: a client and a
/// server are built from the same source, so there is nothing to
/// negotiate. Version 5 is one way to do each job — unacknowledged
/// staging ([`Frame::StageNoAck`]) with count-gated commits
/// ([`Frame::TickSync`]; a plain tick is one gated at 0), binary
/// snapshots ([`Frame::SnapshotBin`]), subscription events in batches
/// ([`Frame::SubscribeBatch`] / [`Frame::EventBatch`]; one event a push
/// is a batch of 1), the fleet migration frames (lease hand-off
/// via [`Frame::LeaseRevoke`] / [`Frame::LeaseGrant`], and
/// [`Frame::Drain`], which lists migratable sessions and makes the
/// process refuse new joins with [`ErrorCode::Draining`]), and a process
/// image cut and restored whole ([`Frame::Image`] / [`Frame::Restore`]),
/// which an orchestrator respawns a lost process from.
pub const VERSION: u8 = 5;

/// Hard upper bound on one frame's payload, rejected before allocation:
/// a 100k-session binary snapshot is ~14 MiB.
pub const MAX_FRAME: usize = 1 << 26;

/// The most one body read asks a socket for — and so the most memory a
/// peer commits on the reader by sending only a length prefix.
const BODY_READ_STEP: usize = 256 * 1024;

/// Reads the next piece of a `declared`-byte frame body onto the end of
/// `body`, returning the bytes read (0: the peer closed). The buffer
/// grows with the bytes actually received — by at most doubling and never
/// past `declared` — so a bare header declaring [`MAX_FRAME`] costs one
/// read step instead of 64 MiB, and a whole body ends at its exact size.
pub(crate) fn read_body_step(
    stream: &mut impl std::io::Read,
    body: &mut Vec<u8>,
    declared: usize,
) -> std::io::Result<usize> {
    let at = body.len();
    let left = declared - at;
    if body.capacity() == at {
        body.reserve_exact(left.min(at.max(BODY_READ_STEP)));
    }
    let window = left.min(BODY_READ_STEP).min(body.capacity() - at);
    body.resize(at + window, 0);
    let got = stream.read(&mut body[at..]);
    body.truncate(at + got.as_ref().map_or(0, |&n| n));
    got
}

/// The request id used by server-push frames and by errors raised before a
/// request id could be parsed.
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
    /// A length prefix exceeded [`MAX_FRAME`].
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
    /// The process is draining: it refuses new sessions so an
    /// orchestrator can migrate the existing ones away.
    Draining,
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
            ErrorCode::Draining => 12,
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
            12 => ErrorCode::Draining,
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
            ErrorCode::Draining => "draining",
        };
        f.write_str(name)
    }
}

/// One subscription event, as carried inside a [`Frame::EventBatch`]: the
/// signalling state after a committed batch tick — the §1 "allocation
/// change" made wire-visible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventBody {
    /// Ticks committed so far.
    pub tick: u64,
    /// Cumulative allocation changes across all sessions.
    pub changes: u64,
    /// Cumulative signalling cost under the service's price model.
    pub signalling_cost: f64,
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
    /// Subscribe to events every `every` committed ticks: the server
    /// buffers `batch` due events and ships them as one
    /// [`Frame::EventBatch`] — one frame header and one socket write per
    /// `batch` events. A partial batch is held until it fills, so
    /// worst-case event latency is `every × batch` committed ticks;
    /// `batch == 1` pushes every event as it falls due.
    SubscribeBatch {
        /// Request id.
        id: u64,
        /// Event period in ticks (≥ 1).
        every: u32,
        /// Events per [`Frame::EventBatch`] push (≥ 1).
        batch: u32,
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
    /// the session resumes bitwise at the bumped lease epoch.
    LeaseGrant {
        /// Request id.
        id: u64,
        /// The lease epoch the session resumes at; the orchestrator bumps
        /// the epoch returned by the revoke so a stale source process can
        /// never be mistaken for the owner.
        epoch: u64,
        /// The session checkpoint blob, verbatim from the revoke.
        bytes: Vec<u8>,
    },
    /// Cut a process image at the current tick: every shard's frame,
    /// the control plane's driver state, and this gateway's lease epochs
    /// and draining flag. Refused with [`ErrorCode::Busy`] while arrivals
    /// are staged for the next tick.
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
    /// Put the process in draining mode: new joins are refused with
    /// [`ErrorCode::Draining`] while existing sessions keep ticking, and
    /// the reply lists every migratable (dedicated) session so the
    /// orchestrator can move them away.
    Drain {
        /// Request id.
        id: u64,
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
        /// The lease epoch the session held on this process.
        epoch: u64,
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
    /// Response to [`Frame::Drain`].
    DrainOk {
        /// Echoed request id.
        id: u64,
        /// Keys of every migratable (dedicated) session still live on
        /// this process, sorted ascending.
        keys: Vec<u64>,
    },
    /// Response to [`Frame::SubscribeBatch`].
    SubscribeOk {
        /// Echoed request id.
        id: u64,
    },
    /// Response to [`Frame::Goodbye`]; the server closes afterwards.
    GoodbyeOk {
        /// Echoed request id.
        id: u64,
    },
    /// Server push to subscribers: `batch` due events in one frame,
    /// oldest first. See [`Frame::SubscribeBatch`].
    EventBatch {
        /// The buffered events, in commit order.
        events: Vec<EventBody>,
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
// delta-snapshot and checkpoint-pull requests (0x13, 0x14, 0x15, 0x16,
// 0x1A, 0x1C, 0x43), their replies (0x23, 0x25, 0x28, 0x2A, 0x2E) and the
// one-event push (0x30) decode as unknown kinds; the bytes are not reused.
const K_GOODBYE: u8 = 0x17;
const K_STAGE_NOACK: u8 = 0x18;
const K_TICK_SYNC: u8 = 0x19;
const K_SNAPSHOT_BIN: u8 = 0x1B;
const K_SUBSCRIBE_BATCH: u8 = 0x1D;
const K_JOINED: u8 = 0x20;
const K_GROUP_JOINED: u8 = 0x21;
const K_LEAVE_OK: u8 = 0x22;
const K_TICK_OK: u8 = 0x24;
const K_SUBSCRIBE_OK: u8 = 0x26;
const K_GOODBYE_OK: u8 = 0x27;
const K_SNAPSHOT_BIN_OK: u8 = 0x29;
const K_LEASE_REVOKED: u8 = 0x2B;
const K_LEASE_GRANTED: u8 = 0x2C;
const K_DRAIN_OK: u8 = 0x2D;
const K_EVENT_BATCH: u8 = 0x31;
const K_ERROR: u8 = 0x3F;
// The request block ends at 0x1F; later requests start a fresh one at
// 0x40.
const K_LEASE_REVOKE: u8 = 0x40;
const K_LEASE_GRANT: u8 = 0x41;
const K_DRAIN: u8 = 0x42;
const K_IMAGE: u8 = 0x44;
const K_RESTORE: u8 = 0x45;
// The reply block ends at 0x2F; later replies start a fresh one at 0x50.
const K_IMAGE_OK: u8 = 0x50;
const K_RESTORE_OK: u8 = 0x51;

fn put_string(buf: &mut Vec<u8>, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn put_arrivals(buf: &mut Vec<u8>, arrivals: &[(u64, f64)]) {
    buf.put_u32_le(arrivals.len() as u32);
    for &(key, bits) in arrivals {
        buf.put_u64_le(key);
        buf.put_f64_le(bits);
    }
}

fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    buf.put_u32_le(bytes.len() as u32);
    buf.put_slice(bytes);
}

/// Encodes one frame to its full wire form (length prefix + payload).
pub fn encode(frame: &Frame) -> Bytes {
    let mut wire = Vec::new();
    encode_into(frame, &mut wire);
    Bytes::from(wire)
}

/// Appends one frame's full wire form (length prefix + payload) to `out`
/// — a connection's write buffer, so a frame's bytes are written once,
/// where they are sent from. The prefix is reserved up front and patched
/// once the payload's length is known.
pub fn encode_into(frame: &Frame, out: &mut Vec<u8>) {
    let prefix = out.len();
    out.put_u32_le(0);
    let payload = out;
    match frame {
        Frame::Hello { magic, version } => {
            payload.put_u8(K_HELLO);
            payload.put_slice(magic);
            payload.put_u8(*version);
        }
        Frame::HelloOk { version } => {
            payload.put_u8(K_HELLO_OK);
            payload.put_u8(*version);
        }
        Frame::Join { id, tenant } => {
            payload.put_u8(K_JOIN);
            payload.put_u64_le(*id);
            put_string(payload, tenant);
        }
        Frame::JoinGroup { id, tenant, size } => {
            payload.put_u8(K_JOIN_GROUP);
            payload.put_u64_le(*id);
            put_string(payload, tenant);
            payload.put_u32_le(*size);
        }
        Frame::Leave { id, key } => {
            payload.put_u8(K_LEAVE);
            payload.put_u64_le(*id);
            payload.put_u64_le(*key);
        }
        Frame::StageNoAck { arrivals } => {
            payload.put_u8(K_STAGE_NOACK);
            put_arrivals(payload, arrivals);
        }
        Frame::TickSync {
            id,
            arrivals,
            min_staged,
        } => {
            payload.put_u8(K_TICK_SYNC);
            payload.put_u64_le(*id);
            payload.put_u32_le(*min_staged);
            put_arrivals(payload, arrivals);
        }
        Frame::SnapshotBin { id } => {
            payload.put_u8(K_SNAPSHOT_BIN);
            payload.put_u64_le(*id);
        }
        Frame::SubscribeBatch { id, every, batch } => {
            payload.put_u8(K_SUBSCRIBE_BATCH);
            payload.put_u64_le(*id);
            payload.put_u32_le(*every);
            payload.put_u32_le(*batch);
        }
        Frame::LeaseRevoke { id, key } => {
            payload.put_u8(K_LEASE_REVOKE);
            payload.put_u64_le(*id);
            payload.put_u64_le(*key);
        }
        Frame::LeaseGrant { id, epoch, bytes } => {
            payload.put_u8(K_LEASE_GRANT);
            payload.put_u64_le(*id);
            payload.put_u64_le(*epoch);
            put_bytes(payload, bytes);
        }
        Frame::Drain { id } => {
            payload.put_u8(K_DRAIN);
            payload.put_u64_le(*id);
        }
        Frame::Image { id } => {
            payload.put_u8(K_IMAGE);
            payload.put_u64_le(*id);
        }
        Frame::Restore { id, bytes } => {
            payload.put_u8(K_RESTORE);
            payload.put_u64_le(*id);
            put_bytes(payload, bytes);
        }
        Frame::ImageOk { id, bytes } => {
            payload.put_u8(K_IMAGE_OK);
            payload.put_u64_le(*id);
            put_bytes(payload, bytes);
        }
        Frame::RestoreOk { id, tick, keys } => {
            payload.put_u8(K_RESTORE_OK);
            payload.put_u64_le(*id);
            payload.put_u64_le(*tick);
            payload.put_u32_le(keys.len() as u32);
            for &key in keys {
                payload.put_u64_le(key);
            }
        }
        Frame::Goodbye { id } => {
            payload.put_u8(K_GOODBYE);
            payload.put_u64_le(*id);
        }
        Frame::Joined { id, key } => {
            payload.put_u8(K_JOINED);
            payload.put_u64_le(*id);
            payload.put_u64_le(*key);
        }
        Frame::GroupJoined { id, members } => {
            payload.put_u8(K_GROUP_JOINED);
            payload.put_u64_le(*id);
            payload.put_u32_le(members.len() as u32);
            for &key in members {
                payload.put_u64_le(key);
            }
        }
        Frame::LeaveOk { id } => {
            payload.put_u8(K_LEAVE_OK);
            payload.put_u64_le(*id);
        }
        Frame::TickOk { id, tick } => {
            payload.put_u8(K_TICK_OK);
            payload.put_u64_le(*id);
            payload.put_u64_le(*tick);
        }
        Frame::SnapshotBinOk { id, bytes } => {
            payload.put_u8(K_SNAPSHOT_BIN_OK);
            payload.put_u64_le(*id);
            put_bytes(payload, bytes);
        }
        Frame::LeaseRevoked { id, epoch, bytes } => {
            payload.put_u8(K_LEASE_REVOKED);
            payload.put_u64_le(*id);
            payload.put_u64_le(*epoch);
            put_bytes(payload, bytes);
        }
        Frame::LeaseGranted { id, key } => {
            payload.put_u8(K_LEASE_GRANTED);
            payload.put_u64_le(*id);
            payload.put_u64_le(*key);
        }
        Frame::DrainOk { id, keys } => {
            payload.put_u8(K_DRAIN_OK);
            payload.put_u64_le(*id);
            payload.put_u32_le(keys.len() as u32);
            for &key in keys {
                payload.put_u64_le(key);
            }
        }
        Frame::SubscribeOk { id } => {
            payload.put_u8(K_SUBSCRIBE_OK);
            payload.put_u64_le(*id);
        }
        Frame::GoodbyeOk { id } => {
            payload.put_u8(K_GOODBYE_OK);
            payload.put_u64_le(*id);
        }
        Frame::EventBatch { events } => {
            payload.put_u8(K_EVENT_BATCH);
            payload.put_u32_le(events.len() as u32);
            for e in events {
                payload.put_u64_le(e.tick);
                payload.put_u64_le(e.changes);
                payload.put_f64_le(e.signalling_cost);
            }
        }
        Frame::Error { id, code, message } => {
            payload.put_u8(K_ERROR);
            payload.put_u64_le(*id);
            payload.put_u8(code.to_u8());
            put_string(payload, message);
        }
    }
    let len = (payload.len() - prefix - 4) as u32;
    payload[prefix..prefix + 4].copy_from_slice(&len.to_le_bytes());
}

/// [`encode_into`] for the two frames whose payload ends in arrivals
/// ([`Frame::StageNoAck`], [`Frame::TickSync`]), given with their own
/// list empty: `arrivals` goes
/// in its place straight from the caller's slice, so a client does not
/// copy a batch into a frame only to have it read once.
pub fn encode_arrivals_into(frame: &Frame, arrivals: &[(u64, f64)], out: &mut Vec<u8>) {
    encode_tail_into(frame, out, |out| put_arrivals(out, arrivals));
}

/// The same for [`Frame::Join`], whose payload ends in the tenant: given
/// with an empty one, `tenant` is written from the caller's `&str`.
pub fn encode_tenant_into(frame: &Frame, tenant: &str, out: &mut Vec<u8>) {
    encode_tail_into(frame, out, |out| put_string(out, tenant));
}

/// Encodes `frame`, whose payload ends in an empty list or string, with
/// what `put_tail` writes in that place.
fn encode_tail_into(frame: &Frame, out: &mut Vec<u8>, put_tail: impl FnOnce(&mut Vec<u8>)) {
    let prefix = out.len();
    encode_into(frame, out);
    debug_assert!(out.ends_with(&[0; 4]), "the frame ends in an empty tail");
    out.truncate(out.len() - 4); // that tail's count
    put_tail(out);
    let len = (out.len() - prefix - 4) as u32;
    out[prefix..prefix + 4].copy_from_slice(&len.to_le_bytes());
}

/// [`encode_into`] for a frame whose payload ends in its blob (every
/// snapshot and lease body), given with the blob empty: the frame is
/// written up to where the blob starts, its lengths already counting the
/// `blob_len` bytes the caller sends behind it — so a multi-megabyte body
/// never has to exist in one piece on the sending side.
pub fn encode_blob_head(frame: &Frame, blob_len: usize, out: &mut Vec<u8>) {
    let prefix = out.len();
    encode_into(frame, out);
    let blob = out.len();
    out[blob - 4..blob].copy_from_slice(&(blob_len as u32).to_le_bytes());
    let len = (blob - prefix - 4 + blob_len) as u32;
    out[prefix..prefix + 4].copy_from_slice(&len.to_le_bytes());
}

/// The payload bytes of a [`Frame::SnapshotBinOk`] ahead of its blob:
/// kind, request id, blob length.
pub(crate) const SNAPSHOT_BIN_OK_HEAD: usize = 1 + 8 + 4;

/// Reads the front of a `declared`-byte payload, as much of it as has
/// arrived, as the head of a [`Frame::SnapshotBinOk`]: the request id it
/// echoes and the length of the blob that is the rest of the payload.
/// `None` for any other frame, and for one yet shorter than the head.
pub(crate) fn snapshot_bin_ok_head(front: &[u8], declared: usize) -> Option<(u64, usize)> {
    let head = front.get(..SNAPSHOT_BIN_OK_HEAD)?;
    let id = u64::from_le_bytes(head[1..9].try_into().expect("8 bytes"));
    let blob_len = u32::from_le_bytes(head[9..].try_into().expect("4 bytes")) as usize;
    (head[0] == K_SNAPSHOT_BIN_OK && SNAPSHOT_BIN_OK_HEAD + blob_len == declared)
        .then_some((id, blob_len))
}

struct Reader {
    buf: Bytes,
}

impl Reader {
    fn need(&self, n: usize) -> Result<(), ProtoError> {
        if self.buf.remaining() < n {
            Err(ProtoError::Truncated)
        } else {
            Ok(())
        }
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    fn magic(&mut self) -> Result<[u8; 4], ProtoError> {
        self.need(4)?;
        let mut out = [0u8; 4];
        self.buf.copy_to_slice(&mut out);
        Ok(out)
    }

    fn string(&mut self) -> Result<String, ProtoError> {
        let len = self.u32()? as usize;
        self.need(len)?;
        let mut raw = vec![0u8; len];
        self.buf.copy_to_slice(&mut raw);
        String::from_utf8(raw).map_err(|_| ProtoError::BadString)
    }

    fn arrivals(&mut self) -> Result<Vec<(u64, f64)>, ProtoError> {
        let count = self.u32()? as usize;
        self.need(count * 16)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let key = self.buf.get_u64_le();
            let bits = self.buf.get_f64_le();
            out.push((key, bits));
        }
        Ok(out)
    }

    fn keys(&mut self) -> Result<Vec<u64>, ProtoError> {
        let count = self.u32()? as usize;
        self.need(count * 8)?;
        Ok((0..count).map(|_| self.buf.get_u64_le()).collect())
    }

    fn bytes(&mut self) -> Result<Vec<u8>, ProtoError> {
        let len = self.u32()? as usize;
        self.need(len)?;
        if len == self.buf.remaining() {
            // The blob is the payload's tail (every snapshot and lease
            // body is): hand the payload buffer itself on instead of
            // copying a multi-megabyte body out of it.
            return Ok(Vec::from(std::mem::take(&mut self.buf)));
        }
        let mut raw = vec![0u8; len];
        self.buf.copy_to_slice(&mut raw);
        Ok(raw)
    }

    fn events(&mut self) -> Result<Vec<EventBody>, ProtoError> {
        let count = self.u32()? as usize;
        self.need(count * 24)?;
        Ok((0..count)
            .map(|_| EventBody {
                tick: self.buf.get_u64_le(),
                changes: self.buf.get_u64_le(),
                signalling_cost: self.buf.get_f64_le(),
            })
            .collect())
    }

    fn finish(self, frame: Frame) -> Result<Frame, ProtoError> {
        if self.buf.remaining() > 0 {
            Err(ProtoError::Trailing {
                extra: self.buf.remaining(),
            })
        } else {
            Ok(frame)
        }
    }
}

/// Decodes one payload (the bytes after the length prefix) into a frame.
///
/// # Errors
///
/// [`ProtoError`] for truncated bodies, unknown kinds, invalid UTF-8,
/// unknown error codes, or trailing bytes.
pub fn decode_payload(payload: Bytes) -> Result<Frame, ProtoError> {
    let mut r = Reader { buf: payload };
    let kind = r.u8()?;
    let frame = match kind {
        K_HELLO => Frame::Hello {
            magic: r.magic()?,
            version: r.u8()?,
        },
        K_HELLO_OK => Frame::HelloOk { version: r.u8()? },
        K_JOIN => Frame::Join {
            id: r.u64()?,
            tenant: r.string()?,
        },
        K_JOIN_GROUP => Frame::JoinGroup {
            id: r.u64()?,
            tenant: r.string()?,
            size: r.u32()?,
        },
        K_LEAVE => Frame::Leave {
            id: r.u64()?,
            key: r.u64()?,
        },
        K_STAGE_NOACK => Frame::StageNoAck {
            arrivals: r.arrivals()?,
        },
        K_TICK_SYNC => Frame::TickSync {
            id: r.u64()?,
            min_staged: r.u32()?,
            arrivals: r.arrivals()?,
        },
        K_SNAPSHOT_BIN => Frame::SnapshotBin { id: r.u64()? },
        K_SUBSCRIBE_BATCH => Frame::SubscribeBatch {
            id: r.u64()?,
            every: r.u32()?,
            batch: r.u32()?,
        },
        K_LEASE_REVOKE => Frame::LeaseRevoke {
            id: r.u64()?,
            key: r.u64()?,
        },
        K_LEASE_GRANT => Frame::LeaseGrant {
            id: r.u64()?,
            epoch: r.u64()?,
            bytes: r.bytes()?,
        },
        K_DRAIN => Frame::Drain { id: r.u64()? },
        K_IMAGE => Frame::Image { id: r.u64()? },
        K_RESTORE => Frame::Restore {
            id: r.u64()?,
            bytes: r.bytes()?,
        },
        K_IMAGE_OK => Frame::ImageOk {
            id: r.u64()?,
            bytes: r.bytes()?,
        },
        K_RESTORE_OK => Frame::RestoreOk {
            id: r.u64()?,
            tick: r.u64()?,
            keys: r.keys()?,
        },
        K_LEASE_REVOKED => Frame::LeaseRevoked {
            id: r.u64()?,
            epoch: r.u64()?,
            bytes: r.bytes()?,
        },
        K_LEASE_GRANTED => Frame::LeaseGranted {
            id: r.u64()?,
            key: r.u64()?,
        },
        K_DRAIN_OK => Frame::DrainOk {
            id: r.u64()?,
            keys: r.keys()?,
        },
        K_GOODBYE => Frame::Goodbye { id: r.u64()? },
        K_JOINED => Frame::Joined {
            id: r.u64()?,
            key: r.u64()?,
        },
        K_GROUP_JOINED => Frame::GroupJoined {
            id: r.u64()?,
            members: r.keys()?,
        },
        K_LEAVE_OK => Frame::LeaveOk { id: r.u64()? },
        K_TICK_OK => Frame::TickOk {
            id: r.u64()?,
            tick: r.u64()?,
        },
        K_SNAPSHOT_BIN_OK => Frame::SnapshotBinOk {
            id: r.u64()?,
            bytes: r.bytes()?,
        },
        K_SUBSCRIBE_OK => Frame::SubscribeOk { id: r.u64()? },
        K_GOODBYE_OK => Frame::GoodbyeOk { id: r.u64()? },
        K_EVENT_BATCH => Frame::EventBatch {
            events: r.events()?,
        },
        K_ERROR => {
            let id = r.u64()?;
            let raw = r.u8()?;
            let code = ErrorCode::from_u8(raw).ok_or(ProtoError::BadErrorCode(raw))?;
            Frame::Error {
                id,
                code,
                message: r.string()?,
            }
        }
        other => return Err(ProtoError::UnknownKind(other)),
    };
    r.finish(frame)
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
    if buf.remaining() < 4 {
        return Err(ProtoError::Truncated);
    }
    let declared = buf.get_u32_le() as u64;
    if declared as usize > MAX_FRAME {
        return Err(ProtoError::Oversized { declared });
    }
    let len = declared as usize;
    if buf.remaining() < len {
        return Err(ProtoError::Truncated);
    }
    let payload = buf.slice(0..len);
    buf.advance(len);
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
        | Frame::DrainOk { id, .. }
        | Frame::ImageOk { id, .. }
        | Frame::RestoreOk { id, .. }
        | Frame::SubscribeOk { id }
        | Frame::GoodbyeOk { id } => Some(*id),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn roundtrip(frame: Frame) {
        let wire = encode(&frame);
        let mut buf = wire.clone();
        let back = decode(&mut buf).expect("frame decodes");
        assert_eq!(back, frame);
        assert_eq!(buf.remaining(), 0, "decode consumed the whole frame");
    }

    #[test]
    fn every_kind_round_trips() {
        roundtrip(Frame::Hello {
            magic: MAGIC,
            version: VERSION,
        });
        roundtrip(Frame::HelloOk { version: VERSION });
        roundtrip(Frame::Join {
            id: 7,
            tenant: "acme".into(),
        });
        roundtrip(Frame::JoinGroup {
            id: 8,
            tenant: "globex".into(),
            size: 4,
        });
        roundtrip(Frame::Leave { id: 9, key: 42 });
        roundtrip(Frame::StageNoAck {
            arrivals: vec![(5, 2.5)],
        });
        roundtrip(Frame::TickSync {
            id: 21,
            arrivals: vec![(1, 0.5)],
            min_staged: 6,
        });
        roundtrip(Frame::SnapshotBin { id: 23 });
        roundtrip(Frame::SubscribeBatch {
            id: 25,
            every: 8,
            batch: 16,
        });
        roundtrip(Frame::LeaseRevoke { id: 26, key: 42 });
        roundtrip(Frame::LeaseGrant {
            id: 27,
            epoch: 3,
            bytes: vec![1, 0, 9],
        });
        roundtrip(Frame::Drain { id: 28 });
        roundtrip(Frame::LeaseRevoked {
            id: 26,
            epoch: 2,
            bytes: vec![7, 7],
        });
        roundtrip(Frame::LeaseGranted { id: 27, key: 5 });
        roundtrip(Frame::DrainOk {
            id: 28,
            keys: vec![1, 4, 9],
        });
        roundtrip(Frame::Image { id: 30 });
        roundtrip(Frame::ImageOk {
            id: 30,
            bytes: vec![3, 1, 4],
        });
        roundtrip(Frame::Restore {
            id: 31,
            bytes: vec![3, 1, 4],
        });
        roundtrip(Frame::RestoreOk {
            id: 31,
            tick: 64,
            keys: vec![0, 2],
        });
        roundtrip(Frame::Goodbye { id: 14 });
        roundtrip(Frame::Joined { id: 7, key: 42 });
        roundtrip(Frame::GroupJoined {
            id: 8,
            members: vec![1, 2, 3],
        });
        roundtrip(Frame::LeaveOk { id: 9 });
        roundtrip(Frame::TickOk { id: 11, tick: 99 });
        roundtrip(Frame::SnapshotBinOk {
            id: 23,
            bytes: vec![1, 0, 255, 42],
        });
        roundtrip(Frame::SubscribeOk { id: 13 });
        roundtrip(Frame::GoodbyeOk { id: 14 });
        roundtrip(Frame::EventBatch {
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
        });
        roundtrip(Frame::Error {
            id: 15,
            code: ErrorCode::Busy,
            message: "queue full".into(),
        });
        roundtrip(Frame::Error {
            id: 16,
            code: ErrorCode::Draining,
            message: "process is draining".into(),
        });
    }

    #[test]
    fn truncation_is_reported_at_every_cut() {
        let wire = encode(&Frame::Join {
            id: 1,
            tenant: "tenant-with-a-name".into(),
        });
        for cut in 0..wire.len() {
            let mut partial = wire.slice(0..cut);
            assert_eq!(
                decode(&mut partial),
                Err(ProtoError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        let mut wire = BytesMut::new();
        wire.put_u32_le((MAX_FRAME + 1) as u32);
        let mut buf = wire.freeze();
        assert_eq!(
            decode(&mut buf),
            Err(ProtoError::Oversized {
                declared: (MAX_FRAME + 1) as u64
            })
        );
    }

    #[test]
    fn unknown_kind_and_trailing_bytes_are_rejected() {
        let mut payload = BytesMut::new();
        payload.put_u8(0x7E);
        assert_eq!(
            decode_payload(payload.freeze()),
            Err(ProtoError::UnknownKind(0x7E))
        );
        let mut padded = encode(&Frame::LeaveOk { id: 1 }).to_vec();
        padded.push(0);
        let base = padded.len() - 4; // extend the declared length too
        padded[0..4].copy_from_slice(&((base - 4 + 1) as u32).to_le_bytes());
        let total = padded.len();
        padded[0..4].copy_from_slice(&((total - 4) as u32).to_le_bytes());
        let mut buf = Bytes::from(padded);
        assert_eq!(decode(&mut buf), Err(ProtoError::Trailing { extra: 1 }));
    }

    #[test]
    fn hostile_string_length_cannot_balloon() {
        let mut payload = BytesMut::new();
        payload.put_u8(K_JOIN);
        payload.put_u64_le(1);
        payload.put_u32_le(u32::MAX); // declared string far beyond payload
        assert_eq!(decode_payload(payload.freeze()), Err(ProtoError::Truncated));
    }
}
