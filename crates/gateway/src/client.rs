//! A blocking client for the gateway wire protocol.
//!
//! One [`Client`] owns one TCP connection and therefore one gateway
//! "session scope": sessions it joins are owned by this connection and
//! are drained automatically if the connection drops. Requests are
//! strictly sequential: send, then block for the matching reply; an
//! error pushed ahead of it (a refused [`Client::stage_noack`]) is
//! returned in its place once the reply is read.
//!
//! Replies come through the frame reader the server's connections use
//! too (`proto`'s `FrameReader`): a small reply costs one `read`, and a
//! snapshot body is decoded as it arrives — off the bytes the reader
//! already holds, then off the socket — never held whole.

use crate::codec;
use crate::proto::{self, ErrorCode, Frame, FrameReader, Next, PUSH_ID};
use crate::GatewaySnapshot;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Client-side socket tuning.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// How long one request may wait for its reply.
    pub read_timeout_ms: u64,
    /// Total connect budget: [`Client::connect_with`] retries refused
    /// connections (e.g. a gateway still binding) until this elapses; 0
    /// makes one attempt.
    pub connect_timeout_ms: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            read_timeout_ms: 30_000,
            connect_timeout_ms: 10_000,
        }
    }
}

/// How long one write to the socket may block.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

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
    /// The server broke the protocol (bad frame, wrong reply id), or a
    /// request would have (a frame over [`proto::MAX_FRAME`]).
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

/// A failed read as a [`ClientError`]; `mid_frame`: part of a frame had
/// already arrived (a desynced stream, not a quiet one).
fn read_failed(e: std::io::Error, mid_frame: bool) -> ClientError {
    ClientError::Io(match e.kind() {
        ErrorKind::UnexpectedEof => "connection closed by gateway".into(),
        ErrorKind::WouldBlock | ErrorKind::TimedOut if mid_frame => {
            "read timed out mid-frame".into()
        }
        ErrorKind::WouldBlock | ErrorKind::TimedOut => "read timed out".into(),
        _ => format!("read: {e}"),
    })
}

/// A reply of the wrong kind as a [`ClientError`].
fn unexpected(expected: &str, got: &Frame) -> ClientError {
    ClientError::Protocol(format!("expected {expected}: {got:?}"))
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
    next_id: u64,
    /// The outgoing frame's wire bytes, reused across requests.
    wbuf: Vec<u8>,
    reader: FrameReader,
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

    /// Connects with explicit tuning; see [`Client::connect`]. A refused
    /// connection is retried every 50 ms until `connect_timeout_ms` has
    /// elapsed; a zero budget makes exactly one attempt, for a caller that
    /// knows the server is already listening.
    ///
    /// # Errors
    ///
    /// As [`Client::connect`].
    pub fn connect_with(addr: impl ToSocketAddrs, cfg: ClientConfig) -> Result<Self, ClientError> {
        let deadline = Instant::now() + Duration::from_millis(cfg.connect_timeout_ms);
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
            .set_write_timeout(Some(WRITE_TIMEOUT))
            .map_err(|e| ClientError::Io(format!("set_write_timeout: {e}")))?;
        let _ = stream.set_nodelay(true);
        let mut client = Self {
            stream,
            next_id: 1,
            wbuf: Vec::new(),
            reader: FrameReader::new(),
        };
        let hello = Frame::Hello {
            magic: proto::MAGIC,
            version: proto::VERSION,
        };
        client.write(&hello, None)?;
        match client.read_frame(false)? {
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
    /// read once. A frame over [`proto::MAX_FRAME`], which the server would
    /// refuse mid-stream, is not sent.
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
        proto::check_len(self.wbuf.len() - 4)
            .map_err(|refused| ClientError::Protocol(format!("request not sent: {refused}")))?;
        self.stream
            .write_all(&self.wbuf)
            .map_err(|e| ClientError::Io(format!("write: {e}")))
    }

    /// Reads the next frame, blocking up to the read timeout; with
    /// `head`, a frame whose payload ends in a blob comes with the blob
    /// empty, left for [`FrameReader::blob`].
    fn read_frame(&mut self, head: bool) -> Result<Frame, ClientError> {
        match self.reader.next_with(&mut self.stream, head) {
            Next::Frame(frame) => Ok(frame),
            Next::Bad(e) => Err(ClientError::Protocol(e.to_string())),
            Next::Closed | Next::ClosedMidFrame => {
                Err(read_failed(ErrorKind::UnexpectedEof.into(), true))
            }
            Next::Failed(e) => Err(read_failed(e, self.reader.mid_frame())),
        }
    }

    /// Sends a request, its last field given `apart` or not (see
    /// [`Self::write`]), and blocks for the reply with the matching id.
    fn request(
        &mut self,
        apart: Option<Apart<'_>>,
        make: impl FnOnce(u64) -> Frame,
    ) -> Result<Frame, ClientError> {
        let id = self.send(apart, make)?;
        self.reply(id, false)
    }

    /// Sends the request `make` builds with a fresh id; returns the id.
    fn send(
        &mut self,
        apart: Option<Apart<'_>>,
        make: impl FnOnce(u64) -> Frame,
    ) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        self.write(&make(id), apart)?;
        Ok(id)
    }

    /// Blocks for the reply to request `id` (see [`Self::read_frame`]
    /// for `head`); an error pushed ahead of it is returned in its place,
    /// once the reply is read, blob included.
    fn reply(&mut self, id: u64, head: bool) -> Result<Frame, ClientError> {
        let mut pushed = None;
        let reply = loop {
            match self.read_frame(head) {
                Ok(Frame::Error {
                    id: got,
                    code,
                    message,
                }) if got == id || got == PUSH_ID => {
                    let refused = ClientError::Server { code, message };
                    if got == id {
                        break Err(refused);
                    }
                    pushed.get_or_insert(refused);
                }
                Ok(frame) if proto::reply_id(&frame) == Some(id) => break Ok(frame),
                Ok(frame) => {
                    let unexpected = format!("unexpected frame awaiting reply {id}: {frame:?}");
                    break Err(ClientError::Protocol(unexpected));
                }
                Err(e) => return Err(pushed.unwrap_or(e)),
            }
        };
        let Some(push) = pushed else { return reply };
        let (front, len) = self.reader.blob();
        let mut blob = front.chain(&self.stream).take(len as u64);
        std::io::copy(&mut blob, &mut std::io::sink()).map_err(|e| read_failed(e, true))?;
        Err(push)
    }

    /// Admits one dedicated session for `tenant`; returns its key.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ErrorCode::Ctrl`] when admission
    /// refuses the join.
    pub fn join(&mut self, tenant: &str) -> Result<u64, ClientError> {
        match self.request(Some(Apart::Tenant(tenant)), |id| Frame::Join {
            id,
            tenant: String::new(),
        })? {
            Frame::Joined { key, .. } => Ok(key),
            other => Err(unexpected("joined", &other)),
        }
    }

    /// Admits a pooled group of `size` sessions; returns their keys.
    ///
    /// # Errors
    ///
    /// As [`Client::join`].
    pub fn join_group(&mut self, tenant: &str, size: u32) -> Result<Vec<u64>, ClientError> {
        match self.request(None, |id| Frame::JoinGroup {
            id,
            tenant: tenant.to_string(),
            size,
        })? {
            Frame::GroupJoined { members, .. } => Ok(members),
            other => Err(unexpected("group-joined", &other)),
        }
    }

    /// Starts draining session `key` out of the service.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::NotOwner`] if another connection owns the session.
    pub fn leave(&mut self, key: u64) -> Result<(), ClientError> {
        match self.request(None, |id| Frame::Leave { id, key })? {
            Frame::LeaveOk { .. } => Ok(()),
            other => Err(unexpected("leave-ok", &other)),
        }
    }

    /// Revokes session `key`'s ownership lease: the session is
    /// quiesced, removed from the process with its budget released, and
    /// its checkpoint blob returned. Feed the blob to
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
    pub fn lease_revoke(&mut self, key: u64) -> Result<Vec<u8>, ClientError> {
        match self.request(None, |id| Frame::LeaseRevoke { id, key })? {
            Frame::LeaseRevoked { bytes, .. } => Ok(bytes),
            other => Err(unexpected("lease-revoked", &other)),
        }
    }

    /// Grants the connected process a lease on a migrated-in session:
    /// `blob` is the blob a [`Client::lease_revoke`] returned, sent from
    /// the caller's borrow. Returns the session's fresh key on this
    /// process; this connection owns it.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for malformed blobs or when admission
    /// cannot cover the session's envelope.
    pub fn lease_grant(&mut self, blob: &[u8]) -> Result<u64, ClientError> {
        match self.request(Some(Apart::Blob(blob)), |id| Frame::LeaseGrant {
            id,
            bytes: Vec::new(),
        })? {
            Frame::LeaseGranted { key, .. } => Ok(key),
            other => Err(unexpected("lease-granted", &other)),
        }
    }

    /// Cuts a process image of the connected process at its current
    /// tick — the control plane's image: every shard's frame and the
    /// driver state — for [`Client::restore`] to bring up a fresh process
    /// from.
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
        match self.request(None, |id| Frame::Image { id })? {
            Frame::ImageOk { bytes, .. } => Ok(bytes),
            other => Err(unexpected("image-ok", &other)),
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
        match self.request(Some(Apart::Blob(image)), |id| Frame::Restore {
            id,
            bytes: Vec::new(),
        })? {
            Frame::RestoreOk { tick, keys, .. } => Ok((tick, keys)),
            other => Err(unexpected("restore-ok", &other)),
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
    /// client's next synchronous request, in place of its reply: that
    /// request was applied as usual and its reply read and consumed, so
    /// the request after it gets its own. One write, zero reads: no round
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
        match self.request(Some(Apart::Arrivals(arrivals)), |id| Frame::TickSync {
            id,
            arrivals: Vec::new(),
            min_staged,
        })? {
            Frame::TickOk { tick, .. } => Ok(tick),
            other => Err(unexpected("tick-ok", &other)),
        }
    }

    /// Fetches the full gateway snapshot (allocation state + wire
    /// counters) over the binary codec, decoding the body as it arrives.
    ///
    /// # Errors
    ///
    /// [`ClientError::Codec`] when the binary body does not decode.
    pub fn snapshot_bin(&mut self) -> Result<GatewaySnapshot, ClientError> {
        let id = self.send(None, |id| Frame::SnapshotBin { id })?;
        match self.reply(id, true)? {
            Frame::SnapshotBinOk { .. } => {
                let (front, len) = self.reader.blob();
                codec::read_gateway_snapshot(&mut front.chain(&self.stream), len)
                    .map_err(|e| read_failed(e, true))?
                    .map_err(|e| ClientError::Codec(e.to_string()))
            }
            other => Err(unexpected("snapshot-bin-ok", &other)),
        }
    }

    /// Clean close: sends goodbye and waits for the acknowledgement.
    ///
    /// # Errors
    ///
    /// Socket errors while closing; the connection is gone either way.
    pub fn goodbye(mut self) -> Result<(), ClientError> {
        match self.request(None, |id| Frame::Goodbye { id })? {
            Frame::GoodbyeOk { .. } => Ok(()),
            other => Err(unexpected("goodbye-ok", &other)),
        }
    }
}
