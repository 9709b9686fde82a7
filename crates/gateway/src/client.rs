//! A blocking client for the gateway wire protocol.
//!
//! One [`Client`] owns one TCP connection and therefore one gateway
//! "session scope": sessions it joins are owned by this connection and
//! are drained automatically if the connection drops. Requests are
//! strictly sequential (send, then block for the matching reply);
//! subscription [`TickEvent`]s that arrive in between are buffered and
//! surfaced through [`Client::next_event`].

use crate::codec;
use crate::proto::{self, ErrorCode, Frame, ProtoError, MAX_FRAME, PUSH_ID};
use crate::GatewaySnapshot;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Client-side socket tuning.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// How long one request may wait for its reply.
    pub read_timeout_ms: u64,
    /// Socket write timeout.
    pub write_timeout_ms: u64,
    /// Total connect budget: [`Client::connect_with`] retries refused
    /// connections (e.g. a gateway still binding) until this elapses.
    pub connect_timeout_ms: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            read_timeout_ms: 30_000,
            write_timeout_ms: 10_000,
            connect_timeout_ms: 10_000,
        }
    }
}

/// Anything a client call can fail with.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write, timeout).
    Io(String),
    /// The server answered with a typed error frame.
    Server {
        /// The server's error class.
        code: ErrorCode,
        /// The server's detail message.
        message: String,
    },
    /// The server broke the protocol (bad frame, wrong reply id).
    Protocol(String),
    /// A binary snapshot body failed to decode.
    Codec(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "gateway i/o error: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "gateway refused ({code}): {message}")
            }
            ClientError::Protocol(e) => write!(f, "gateway protocol violation: {e}"),
            ClientError::Codec(e) => write!(f, "gateway binary body undecodable: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Internal read outcome; folded into [`ClientError`] at the API edge.
#[derive(Debug)]
enum ReadError {
    /// The gateway closed the connection.
    Closed,
    /// The socket read timeout expired.
    Timeout {
        /// Whether part of the frame had already arrived (a desynced
        /// stream, not a quiet one).
        any_read: bool,
    },
    /// Any other socket failure.
    Other(String),
}

impl From<ReadError> for ClientError {
    fn from(e: ReadError) -> Self {
        match e {
            ReadError::Closed => ClientError::Io("connection closed by gateway".into()),
            ReadError::Timeout { any_read: true } => {
                ClientError::Io("read timed out mid-frame".into())
            }
            ReadError::Timeout { any_read: false } => ClientError::Io("read timed out".into()),
            ReadError::Other(msg) => ClientError::Io(format!("read: {msg}")),
        }
    }
}

/// One subscription push: the signalling state after a committed tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickEvent {
    /// Ticks committed so far.
    pub tick: u64,
    /// Cumulative allocation changes across all sessions.
    pub changes: u64,
    /// Cumulative signalling cost under the service's price model.
    pub signalling_cost: f64,
}

impl From<proto::EventBody> for TickEvent {
    fn from(e: proto::EventBody) -> Self {
        Self {
            tick: e.tick,
            changes: e.changes,
            signalling_cost: e.signalling_cost,
        }
    }
}

/// The last field of an outgoing frame, borrowed from the caller instead
/// of copied into the frame (see [`Client::write`]).
enum Apart<'a> {
    Arrivals(&'a [(u64, f64)]),
    Tenant(&'a str),
    Blob(&'a [u8]),
}

/// A blocking gateway client over one TCP connection.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    cfg: ClientConfig,
    next_id: u64,
    pending_events: VecDeque<TickEvent>,
    /// The outgoing frame's wire bytes, reused across requests.
    wbuf: Vec<u8>,
    /// The body of the last [`Frame::SnapshotBinOk`] read, decoded as it
    /// arrived; the frame itself is handed on with its blob empty.
    polled: Option<Result<GatewaySnapshot, cdba_ctrl::codec::CodecError>>,
}

impl Client {
    /// Connects with [`ClientConfig::default`] and performs the
    /// hello/hello-ok handshake.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when no connection can be made within the
    /// connect budget; [`ClientError::Server`] when the handshake is
    /// refused.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit tuning; see [`Client::connect`].
    ///
    /// # Errors
    ///
    /// As [`Client::connect`].
    pub fn connect_with(addr: impl ToSocketAddrs, cfg: ClientConfig) -> Result<Self, ClientError> {
        let deadline = Instant::now() + Duration::from_millis(cfg.connect_timeout_ms.max(1));
        let stream = loop {
            match TcpStream::connect(&addr) {
                Ok(stream) => break stream,
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(ClientError::Io(format!("connect: {e}")));
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        };
        stream
            .set_read_timeout(Some(Duration::from_millis(cfg.read_timeout_ms.max(1))))
            .map_err(|e| ClientError::Io(format!("set_read_timeout: {e}")))?;
        stream
            .set_write_timeout(Some(Duration::from_millis(cfg.write_timeout_ms.max(1))))
            .map_err(|e| ClientError::Io(format!("set_write_timeout: {e}")))?;
        let _ = stream.set_nodelay(true);
        let mut client = Self {
            stream,
            cfg,
            next_id: 1,
            pending_events: VecDeque::new(),
            wbuf: Vec::new(),
            polled: None,
        };
        let hello = Frame::Hello {
            magic: proto::MAGIC,
            version: proto::VERSION,
        };
        client.write(&hello, None)?;
        match client.read_frame()? {
            Frame::HelloOk { .. } => Ok(client),
            Frame::Error { code, message, .. } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!(
                "expected hello-ok, got {other:?}"
            ))),
        }
    }

    /// Sends `frame`. With `apart`, `frame` is one whose payload ends in
    /// a batch or a tenant, given with that field empty: it is encoded
    /// straight from the caller's borrow, not copied into a frame to be
    /// read once.
    fn write(&mut self, frame: &Frame, apart: Option<Apart<'_>>) -> Result<(), ClientError> {
        self.wbuf.clear();
        match apart {
            Some(Apart::Arrivals(arrivals)) => {
                proto::encode_arrivals_into(frame, arrivals, &mut self.wbuf)
            }
            Some(Apart::Tenant(tenant)) => proto::encode_tenant_into(frame, tenant, &mut self.wbuf),
            Some(Apart::Blob(blob)) => {
                proto::encode_blob_head(frame, blob.len(), &mut self.wbuf);
                self.wbuf.extend_from_slice(blob);
            }
            None => proto::encode_into(frame, &mut self.wbuf),
        }
        self.stream
            .write_all(&self.wbuf)
            .map_err(|e| ClientError::Io(format!("write: {e}")))
    }

    /// Reads exactly one frame, blocking up to the read timeout.
    fn read_frame(&mut self) -> Result<Frame, ClientError> {
        self.read_frame_opt(false)?
            .ok_or_else(|| ClientError::Io("read timed out".into()))
    }

    /// Reads one frame; with `none_on_timeout`, a timeout before the
    /// first byte yields `Ok(None)` instead of an error. A
    /// [`Frame::SnapshotBinOk`] is not read whole: once its head is in,
    /// the body is decoded as it arrives, into [`Self::polled`].
    fn read_frame_opt(&mut self, none_on_timeout: bool) -> Result<Option<Frame>, ClientError> {
        let mut head = [0u8; 4];
        match self.read_exact(&mut head) {
            Ok(()) => {}
            Err(ReadError::Timeout { any_read: false }) if none_on_timeout => return Ok(None),
            Err(e) => return Err(e.into()),
        }
        let declared = u32::from_le_bytes(head) as usize;
        if declared > MAX_FRAME {
            return Err(ClientError::Protocol(
                ProtoError::Oversized {
                    declared: declared as u64,
                }
                .to_string(),
            ));
        }
        let mut body = Vec::new();
        while body.len() < declared {
            match proto::read_body_step(&mut self.stream, &mut body, declared) {
                Ok(0) => return Err(ReadError::Closed.into()),
                Ok(_) => {}
                Err(e) => match Self::read_error(e, true) {
                    Some(e) => return Err(e.into()),
                    None => continue,
                },
            }
            if let Some((id, blob_len)) = proto::snapshot_bin_ok_head(&body, declared) {
                let read = &body[proto::SNAPSHOT_BIN_OK_HEAD..];
                let decoded = codec::read_gateway_snapshot(&mut read.chain(&self.stream), blob_len)
                    .map_err(|e| Self::read_error(e, true).unwrap_or(ReadError::Closed))?;
                self.polled = Some(decoded);
                let bytes = Vec::new();
                return Ok(Some(Frame::SnapshotBinOk { id, bytes }));
            }
        }
        proto::decode_payload(bytes::Bytes::from(body))
            .map_err(|e| ClientError::Protocol(e.to_string()))
            .map(Some)
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), ReadError> {
        let mut filled = 0;
        while filled < buf.len() {
            match self.stream.read(&mut buf[filled..]) {
                Ok(0) => return Err(ReadError::Closed),
                Ok(n) => filled += n,
                Err(e) => {
                    if let Some(e) = Self::read_error(e, filled > 0) {
                        return Err(e);
                    }
                }
            }
        }
        Ok(())
    }

    /// Classifies a failed socket read; `None` means retry (interrupted).
    fn read_error(e: std::io::Error, any_read: bool) -> Option<ReadError> {
        match e.kind() {
            ErrorKind::Interrupted => None,
            ErrorKind::UnexpectedEof => Some(ReadError::Closed),
            ErrorKind::WouldBlock | ErrorKind::TimedOut => Some(ReadError::Timeout { any_read }),
            _ => Some(ReadError::Other(e.to_string())),
        }
    }

    /// Sends a request and blocks for the reply with the matching id,
    /// buffering any events that arrive first.
    fn request(&mut self, make: impl FnOnce(u64) -> Frame) -> Result<Frame, ClientError> {
        self.request_with(None, make)
    }

    /// [`Self::request`], the frame's last field given apart (see
    /// [`Self::write`]).
    fn request_with(
        &mut self,
        apart: Option<Apart<'_>>,
        make: impl FnOnce(u64) -> Frame,
    ) -> Result<Frame, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        self.write(&make(id), apart)?;
        loop {
            match self.read_frame()? {
                Frame::EventBatch { events } => {
                    self.pending_events
                        .extend(events.into_iter().map(TickEvent::from));
                }
                Frame::Error {
                    id: got,
                    code,
                    message,
                } if got == id || got == PUSH_ID => {
                    return Err(ClientError::Server { code, message });
                }
                frame => match proto::reply_id(&frame) {
                    Some(got) if got == id => return Ok(frame),
                    _ => {
                        return Err(ClientError::Protocol(format!(
                            "unexpected frame awaiting reply {id}: {frame:?}"
                        )))
                    }
                },
            }
        }
    }

    /// Admits one dedicated session for `tenant`; returns its key.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorCode::Ctrl`] when admission
    /// refuses the join.
    pub fn join(&mut self, tenant: &str) -> Result<u64, ClientError> {
        match self.request_with(Some(Apart::Tenant(tenant)), |id| Frame::Join {
            id,
            tenant: String::new(),
        })? {
            Frame::Joined { key, .. } => Ok(key),
            other => Err(ClientError::Protocol(format!("expected joined: {other:?}"))),
        }
    }

    /// Admits a pooled group of `size` sessions; returns their keys.
    ///
    /// # Errors
    ///
    /// As [`Client::join`].
    pub fn join_group(&mut self, tenant: &str, size: u32) -> Result<Vec<u64>, ClientError> {
        match self.request(|id| Frame::JoinGroup {
            id,
            tenant: tenant.to_string(),
            size,
        })? {
            Frame::GroupJoined { members, .. } => Ok(members),
            other => Err(ClientError::Protocol(format!(
                "expected group-joined: {other:?}"
            ))),
        }
    }

    /// Starts draining session `key` out of the service.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NotOwner`] if another connection owns the session.
    pub fn leave(&mut self, key: u64) -> Result<(), ClientError> {
        match self.request(|id| Frame::Leave { id, key })? {
            Frame::LeaveOk { .. } => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "expected leave-ok: {other:?}"
            ))),
        }
    }

    /// Revokes session `key`'s ownership lease: the session is
    /// quiesced, removed from the process with its budget released, and
    /// its `(lease epoch, checkpoint blob)` returned. Feed the blob to
    /// [`Client::lease_grant`] on the migration target verbatim.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorCode::NotOwner`] if another
    /// connection owns the session, or with
    /// [`ErrorCode::Ctrl`] for unknown keys and pooled
    /// members (only dedicated sessions migrate).
    ///
    /// [`ErrorCode::NotOwner`]: crate::proto::ErrorCode::NotOwner
    /// [`ErrorCode::Ctrl`]: crate::proto::ErrorCode::Ctrl
    pub fn lease_revoke(&mut self, key: u64) -> Result<(u64, Vec<u8>), ClientError> {
        match self.request(|id| Frame::LeaseRevoke { id, key })? {
            Frame::LeaseRevoked { epoch, bytes, .. } => Ok((epoch, bytes)),
            other => Err(ClientError::Protocol(format!(
                "expected lease-revoked: {other:?}"
            ))),
        }
    }

    /// Grants the connected process a lease on a migrated-in session:
    /// `bytes` is the blob a [`Client::lease_revoke`]
    /// returned, `epoch` the lease epoch the session resumes at (bump the
    /// revoked epoch so a stale source can never pose as the owner).
    /// Returns the session's fresh key on this process; this connection
    /// owns it.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for malformed blobs or when admission
    /// cannot cover the session's envelope.
    pub fn lease_grant(&mut self, epoch: u64, bytes: Vec<u8>) -> Result<u64, ClientError> {
        match self.request(|id| Frame::LeaseGrant { id, epoch, bytes })? {
            Frame::LeaseGranted { key, .. } => Ok(key),
            other => Err(ClientError::Protocol(format!(
                "expected lease-granted: {other:?}"
            ))),
        }
    }

    /// Puts the connected process in draining mode: new joins
    /// are refused with [`ErrorCode::Draining`] while existing sessions
    /// keep ticking. Returns the keys of every migratable (dedicated)
    /// session, sorted, for the orchestrator to move away.
    ///
    /// [`ErrorCode::Draining`]: crate::proto::ErrorCode::Draining
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] / [`ClientError::Protocol`] on socket or
    /// framing failures.
    pub fn drain(&mut self) -> Result<Vec<u64>, ClientError> {
        match self.request(|id| Frame::Drain { id })? {
            Frame::DrainOk { keys, .. } => Ok(keys),
            other => Err(ClientError::Protocol(format!(
                "expected drain-ok: {other:?}"
            ))),
        }
    }

    /// Cuts a process image of the connected process at its current
    /// tick — every shard's frame, the control plane's driver state, and
    /// the gateway's lease epochs and draining flag — for
    /// [`Client::restore`] to bring up a fresh process from.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorCode::Busy`] while arrivals
    /// are staged for the next tick, or with [`ErrorCode::Ctrl`] when a
    /// shard is down.
    ///
    /// [`ErrorCode::Busy`]: crate::proto::ErrorCode::Busy
    /// [`ErrorCode::Ctrl`]: crate::proto::ErrorCode::Ctrl
    pub fn image(&mut self) -> Result<Vec<u8>, ClientError> {
        match self.request(|id| Frame::Image { id })? {
            Frame::ImageOk { bytes, .. } => Ok(bytes),
            other => Err(ClientError::Protocol(format!(
                "expected image-ok: {other:?}"
            ))),
        }
    }

    /// Restores the connected process, which must be fresh, from an
    /// image [`Client::image`] cut. Returns the tick the process resumes
    /// from and the restored live session keys, ascending; this
    /// connection owns them all.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorCode::Ctrl`] carrying the
    /// control plane's `process image refused: <field>` when the image is
    /// malformed or the process is not fresh or differently configured;
    /// the process is left as it was.
    ///
    /// [`ErrorCode::Ctrl`]: crate::proto::ErrorCode::Ctrl
    pub fn restore(&mut self, image: &[u8]) -> Result<(u64, Vec<u64>), ClientError> {
        match self.request_with(Some(Apart::Blob(image)), |id| Frame::Restore {
            id,
            bytes: Vec::new(),
        })? {
            Frame::RestoreOk { tick, keys, .. } => Ok((tick, keys)),
            other => Err(ClientError::Protocol(format!(
                "expected restore-ok: {other:?}"
            ))),
        }
    }

    /// Stages `arrivals`, then commits the batch tick (every staged
    /// arrival across all connections, in ascending key order) at once:
    /// [`Client::tick_sync`] gated at 0. Returns the tick count after the
    /// commit.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when validation or the control plane
    /// rejects the tick.
    pub fn tick(&mut self, arrivals: &[(u64, f64)]) -> Result<u64, ClientError> {
        self.tick_sync(arrivals, 0)
    }

    /// Buffers arrivals for the next committed tick **without waiting for
    /// an acknowledgement**. The server sends no reply on success; a
    /// rejected batch surfaces as a [`ClientError::Server`] at this
    /// client's next synchronous request. One write, zero reads: no round
    /// trip per staging connection per tick.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on write failure only; validation failures are
    /// deferred as described.
    pub fn stage_noack(&mut self, arrivals: &[(u64, f64)]) -> Result<(), ClientError> {
        let head = Frame::StageNoAck {
            arrivals: Vec::new(),
        };
        self.write(&head, Some(Apart::Arrivals(arrivals)))
    }

    /// Stages `arrivals`, then commits the batch tick once at least
    /// `min_staged` arrivals are buffered gateway-wide — the
    /// count gate makes the commit independent of socket arrival order
    /// when other connections stage with [`Client::stage_noack`]. Blocks
    /// for the (possibly parked) [`Frame::TickOk`]; returns the tick
    /// count after the commit.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when validation rejects the batch, another
    /// commit is already parked (`Busy`), or the gate times out waiting
    /// for peers (`Timeout`).
    pub fn tick_sync(
        &mut self,
        arrivals: &[(u64, f64)],
        min_staged: u32,
    ) -> Result<u64, ClientError> {
        match self.request_with(Some(Apart::Arrivals(arrivals)), |id| Frame::TickSync {
            id,
            arrivals: Vec::new(),
            min_staged,
        })? {
            Frame::TickOk { tick, .. } => Ok(tick),
            other => Err(ClientError::Protocol(format!(
                "expected tick-ok: {other:?}"
            ))),
        }
    }

    /// Fetches the full gateway snapshot (allocation state + wire
    /// counters) over the binary codec, decoding the body as it arrives.
    ///
    /// # Errors
    ///
    /// [`ClientError::Codec`] when the binary body does not decode.
    pub fn snapshot_bin(&mut self) -> Result<GatewaySnapshot, ClientError> {
        match self.request(|id| Frame::SnapshotBin { id })? {
            Frame::SnapshotBinOk { .. } => self
                .polled
                .take()
                .expect("the frame reader decodes the body of every snapshot-bin-ok")
                .map_err(|e| ClientError::Codec(e.to_string())),
            other => Err(ClientError::Protocol(format!(
                "expected snapshot-bin-ok: {other:?}"
            ))),
        }
    }

    /// Subscribes this connection to a [`TickEvent`] every `every`
    /// committed ticks, shipped `batch` at a time in one frame.
    /// [`Client::next_event`] surfaces them one by one, so `batch` changes
    /// only the wire framing — but a partial batch is held server-side
    /// until it fills, so worst-case event latency is `every × batch`
    /// committed ticks; a `batch` of 1 delivers each event as it falls
    /// due.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when `every` or `batch` is zero.
    pub fn subscribe(&mut self, every: u32, batch: u32) -> Result<(), ClientError> {
        match self.request(|id| Frame::SubscribeBatch { id, every, batch })? {
            Frame::SubscribeOk { .. } => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "expected subscribe-ok: {other:?}"
            ))),
        }
    }

    /// Returns the next buffered subscription event, waiting up to
    /// `timeout` for one to arrive off the wire. `None` on timeout.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] / [`ClientError::Protocol`] on socket or
    /// framing failures while waiting.
    pub fn next_event(&mut self, timeout: Duration) -> Result<Option<TickEvent>, ClientError> {
        if let Some(event) = self.pending_events.pop_front() {
            return Ok(Some(event));
        }
        self.stream
            .set_read_timeout(Some(timeout.max(Duration::from_millis(1))))
            .map_err(|e| ClientError::Io(format!("set_read_timeout: {e}")))?;
        let result = match self.read_frame_opt(true) {
            Ok(None) => Ok(None),
            Ok(Some(Frame::EventBatch { events })) => {
                self.pending_events
                    .extend(events.into_iter().map(TickEvent::from));
                Ok(self.pending_events.pop_front())
            }
            Ok(Some(Frame::Error { code, message, .. })) => {
                Err(ClientError::Server { code, message })
            }
            Ok(Some(other)) => Err(ClientError::Protocol(format!(
                "unexpected frame awaiting event: {other:?}"
            ))),
            Err(e) => Err(e),
        };
        let _ = self
            .stream
            .set_read_timeout(Some(Duration::from_millis(self.cfg.read_timeout_ms.max(1))));
        result
    }

    /// Clean close: sends goodbye and waits for the acknowledgement.
    ///
    /// # Errors
    ///
    /// Socket errors while closing; the connection is gone either way.
    pub fn goodbye(mut self) -> Result<(), ClientError> {
        match self.request(|id| Frame::Goodbye { id })? {
            Frame::GoodbyeOk { .. } => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "expected goodbye-ok: {other:?}"
            ))),
        }
    }
}
