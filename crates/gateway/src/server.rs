//! The TCP server: one evented core thread owning the listener, every
//! connection, and the service state.
//!
//! Earlier revisions ran a thread-per-connection worker pool feeding a
//! separate service thread over bounded channels. On the small machines
//! this gateway targets that architecture spends most of each tick in
//! context switches: every request crossed two threads and three channel
//! operations before touching the control plane. The evented core removes
//! all of it — non-blocking sockets polled in a single loop, requests
//! dispatched inline into the service core (`ServiceCore`), replies and
//! typed error pushes appended to per-connection write buffers. No async
//! runtime: `std::net` non-blocking I/O and one thread.
//!
//! The loop backs off when idle (a few busy passes, then sleeps of at most
//! 25 ms), so an idle gateway costs ~0 CPU while a saturated one never
//! sleeps. A busy loop polls the listener on every 16th pass only.

use crate::codec::SnapshotStream;
use crate::proto::{self, ErrorCode, Frame, FrameReader, Next, ProtoError, PUSH_ID};
use crate::service::{Outbox, Reply, ServiceCore};
use crate::stats::WireStats;
use crate::{GatewayError, GatewaySnapshot};
use cdba_ctrl::{ControlPlane, ServiceConfig, ServiceSnapshot};
use cdba_obs::{MetricsServer, Registry, TraceRing};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`GatewayServer`]. `Default` is sized for tests and
/// small deployments; every field is plain data so callers can override
/// selectively with struct-update syntax.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bind address; use port 0 to let the OS pick one.
    pub addr: String,
    /// How many connections the evented core serves at once; one past
    /// that is refused with a typed `Busy` error.
    pub max_connections: usize,
    /// Idle harvest threshold in milliseconds; 0 disables harvesting.
    pub idle_timeout_ms: u64,
    /// How long a half-received frame may dangle — and how long a parked
    /// tick-sync commit may wait for its peers — before the connection is
    /// failed with a typed `BadFrame`/`Timeout` error.
    pub request_timeout_ms: u64,
    /// Bind address for the plain-HTTP observability listener
    /// (`GET /metrics` Prometheus text, `GET /trace` JSON lines), or
    /// `None` to run without one. The listener lives on its own thread
    /// ([`cdba_obs::MetricsServer`]) and reads only atomics, so scraping
    /// never touches the wire protocol or perturbs tick batching.
    pub metrics_addr: Option<String>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            max_connections: 24,
            idle_timeout_ms: 30_000,
            request_timeout_ms: 10_000,
            metrics_addr: None,
        }
    }
}

/// How long a connection's write buffer may stall (peer not reading)
/// before the connection is dropped.
const WRITE_TIMEOUT: Duration = Duration::from_millis(2_000);

/// The longest the idle core sleeps between passes, which bounds how
/// stale accept, idle and shutdown handling can get.
const BACKOFF_CEILING: Duration = Duration::from_millis(25);

/// Calm passes that yield before the idle core starts sleeping.
const YIELD_PASSES: u32 = 50;

/// While connections are open and the core is not sleeping, it polls the
/// listener on every this many passes: an `EAGAIN` accept costs about as
/// much as eight reads, and a new connection waits at most this many
/// passes.
const ACCEPT_EVERY: u32 = 16;

/// A running gateway: one evented core thread owning a
/// [`ControlPlane`] behind the wire protocol.
#[derive(Debug)]
pub struct GatewayServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    core: Option<JoinHandle<Result<GatewaySnapshot, String>>>,
    stats: Arc<WireStats>,
    /// The observability listener, held for its Drop (stop + join).
    metrics: Option<MetricsServer>,
}

impl GatewayServer {
    /// Binds and spawns the evented core.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Io`] when the listener cannot bind or go
    /// non-blocking, or the core thread cannot spawn.
    pub fn start(service: ServiceConfig, gateway: GatewayConfig) -> Result<Self, GatewayError> {
        let listener = TcpListener::bind(&gateway.addr)
            .map_err(|e| GatewayError::Io(format!("bind {}: {e}", gateway.addr)))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| GatewayError::Io(format!("set_nonblocking: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| GatewayError::Io(format!("local_addr: {e}")))?;

        let stats = Arc::new(WireStats::new());
        let stop = Arc::new(AtomicBool::new(false));

        // Observability is opt-in and fully isolated: a dedicated scrape
        // thread serves the registry, whose reads are all atomics — the
        // evented core never sees a scrape.
        let mut metrics = None;
        let mut obs = None;
        if let Some(metrics_addr) = &gateway.metrics_addr {
            let registry = Arc::new(Registry::new());
            let trace = Arc::new(TraceRing::new(4096));
            stats.register_collector(&registry);
            let server = MetricsServer::start(
                metrics_addr,
                Arc::clone(&registry),
                Some(Arc::clone(&trace)),
            )
            .map_err(|e| GatewayError::Io(format!("bind metrics {metrics_addr}: {e}")))?;
            metrics = Some(server);
            obs = Some((registry, trace));
        }

        let core_stats = Arc::clone(&stats);
        let core_stop = Arc::clone(&stop);
        let core = std::thread::Builder::new()
            .name("gw-core".into())
            .spawn(move || {
                let mut service = ServiceCore::new(service, Arc::clone(&core_stats));
                if let Some((registry, trace)) = obs {
                    service.attach_obs(&registry, trace);
                }
                Core::new(listener, service, core_stats, core_stop, gateway).run()
            })
            .map_err(|e| GatewayError::Io(format!("spawn core: {e}")))?;

        Ok(Self {
            local_addr,
            stop,
            core: Some(core),
            stats,
            metrics,
        })
    }

    /// The bound address (resolves port 0 to the OS-assigned port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The observability listener's bound address, when one was
    /// configured (resolves port 0 to the OS-assigned port).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(|m| m.local_addr())
    }

    /// A point-in-time copy of the wire counters.
    pub fn wire_stats(&self) -> crate::stats::WireSnapshot {
        self.stats.snapshot()
    }

    /// Graceful shutdown: stop accepting, fail open connections with a
    /// typed `Shutdown` error, and return the final snapshot (allocation
    /// state plus wire counters). Requests already decoded are completed,
    /// not dropped.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Service`] when the core panicked or could not take
    /// its final snapshot.
    pub fn shutdown(mut self) -> Result<GatewaySnapshot, GatewayError> {
        self.stop.store(true, Ordering::SeqCst);
        match self.core.take() {
            Some(core) => match core.join() {
                Ok(Ok(snapshot)) => Ok(snapshot),
                Ok(Err(e)) => Err(GatewayError::Service(e)),
                Err(_) => Err(GatewayError::Service("gateway core panicked".into())),
            },
            None => Err(GatewayError::Service("gateway core already joined".into())),
        }
    }
}

impl Drop for GatewayServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(core) = self.core.take() {
            let _ = core.join();
        }
    }
}

/// The write-buffer capacity a connection keeps between flushes.
const OUTBUF_KEEP: usize = 64 * 1024;

/// How much of a streamed snapshot body a connection encodes ahead of its
/// socket: enough that a refill is worth its write call, and all a peer
/// that stops reading can make the server hold for it.
const STREAM_REFILL: usize = 256 * 1024;

/// One connection's state inside the core.
struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    /// Encoded frames waiting for the socket; `sent` bytes already went.
    outbuf: Vec<u8>,
    sent: usize,
    /// The [`Frame::SnapshotBinOk`] body `outbuf` ends inside of, if any,
    /// and when its request arrived.
    in_flight: Option<(Box<SnapshotStream<Arc<ServiceSnapshot>>>, Instant)>,
    /// Frames queued while a body is in flight, in wire form: they follow
    /// it.
    behind: Vec<u8>,
    /// Since when the write buffer has been non-empty without progress.
    write_stalled: Option<Instant>,
    hello_done: bool,
    last_activity: Instant,
    /// Flush the write buffer, then close (goodbye, fatal errors).
    closing: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            reader: FrameReader::new(),
            outbuf: Vec::new(),
            sent: 0,
            in_flight: None,
            behind: Vec::new(),
            write_stalled: None,
            hello_done: false,
            last_activity: Instant::now(),
            closing: false,
        }
    }

    /// Queues a typed error that answers no request ([`PUSH_ID`]).
    fn push_error(&mut self, stats: &WireStats, code: ErrorCode, message: impl Into<String>) {
        let (id, message) = (PUSH_ID, message.into());
        self.queue(stats, &Frame::Error { id, code, message });
    }

    fn queue(&mut self, stats: &WireStats, frame: &Frame) {
        let buf = match self.in_flight {
            Some(_) => &mut self.behind,
            None => &mut self.outbuf,
        };
        let at = buf.len();
        proto::encode_into(frame, buf);
        if let Err(refused) = proto::check_len(buf.len() - at - 4) {
            buf.truncate(at);
            return self.refuse(stats, proto::reply_id(frame), refused);
        }
        stats.frames_out.fetch_add(1, Ordering::Relaxed);
    }

    /// Answers request `id` with a typed `Oversized` error in place of a
    /// reply the peer's reader would refuse mid-stream: the connection
    /// stays in step.
    fn refuse(&mut self, stats: &WireStats, id: Option<u64>, refused: ProtoError) {
        let frame = Frame::Error {
            id: id.unwrap_or(PUSH_ID),
            code: ErrorCode::Oversized,
            message: format!("reply not sent: {refused}"),
        };
        self.queue(stats, &frame);
    }

    /// Queues a [`Frame::SnapshotBinOk`]: its head and the first run of
    /// `body` now, the rest as [`Self::flush`] drains the socket. Never
    /// called with a body in flight — a connection's requests are not
    /// read until its body has gone out.
    fn queue_snapshot(
        &mut self,
        stats: &WireStats,
        plane: &ControlPlane,
        id: u64,
        body: Box<SnapshotStream<Arc<ServiceSnapshot>>>,
        started: Instant,
    ) {
        let head = Frame::SnapshotBinOk {
            id,
            bytes: Vec::new(),
        };
        let at = self.outbuf.len();
        proto::encode_blob_head(&head, body.left(), &mut self.outbuf);
        if let Err(refused) = proto::check_len(self.outbuf.len() - at - 4 + body.left()) {
            self.outbuf.truncate(at);
            return self.refuse(stats, Some(id), refused);
        }
        stats.frames_out.fetch_add(1, Ordering::Relaxed);
        self.in_flight = Some((body, started));
        self.refill(stats, plane);
    }

    /// Appends the next run of the body in flight to the write buffer;
    /// with its last run go the request's latency sample and the frames
    /// that waited. The connection was active until then.
    fn refill(&mut self, stats: &WireStats, plane: &ControlPlane) {
        let Some((body, started)) = &mut self.in_flight else {
            return;
        };
        if body.refill(Some(plane), &mut self.outbuf, STREAM_REFILL) {
            stats.latency.record_since(*started);
            self.outbuf.append(&mut self.behind);
            self.in_flight = None;
            self.last_activity = Instant::now();
        }
    }

    /// Writes as much buffered output as the socket accepts, refilling
    /// the buffer from a body in flight each time it drains. Returns
    /// whether any byte went out, or `None` when the connection is dead
    /// (hard error or stalled past [`WRITE_TIMEOUT`]).
    fn flush(&mut self, stats: &WireStats, plane: &ControlPlane) -> Option<bool> {
        let mut wrote = false;
        loop {
            while self.sent < self.outbuf.len() {
                match self.stream.write(&self.outbuf[self.sent..]) {
                    Ok(0) => return None,
                    Ok(n) => {
                        self.sent += n;
                        self.write_stalled = None;
                        wrote = true;
                    }
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                        let stalled = *self.write_stalled.get_or_insert_with(Instant::now);
                        return (stalled.elapsed() < WRITE_TIMEOUT).then_some(wrote);
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => return None,
                }
            }
            self.outbuf.clear();
            self.sent = 0;
            if self.in_flight.is_none() {
                break;
            }
            self.refill(stats, plane);
        }
        if self.outbuf.capacity() > OUTBUF_KEEP {
            // A body's runs went out; their buffer is not this
            // connection's steady state.
            self.outbuf = Vec::new();
        }
        self.write_stalled = None;
        Some(wrote)
    }

    fn flushed(&self) -> bool {
        self.sent >= self.outbuf.len() && self.in_flight.is_none()
    }
}

/// What one frame's handling tells the core to do with the connection.
enum After {
    Keep,
    /// Flush remaining output, then close.
    Close,
}

struct Core {
    listener: TcpListener,
    service: ServiceCore,
    stats: Arc<WireStats>,
    stop: Arc<AtomicBool>,
    cfg: GatewayConfig,
    /// Open connections by id; ordered, because they are served in id order.
    conns: BTreeMap<u64, Conn>,
    next_conn: u64,
    out: Outbox,
}

impl Core {
    fn new(
        listener: TcpListener,
        service: ServiceCore,
        stats: Arc<WireStats>,
        stop: Arc<AtomicBool>,
        cfg: GatewayConfig,
    ) -> Self {
        Self {
            listener,
            service,
            stats,
            stop,
            cfg,
            conns: BTreeMap::new(),
            next_conn: 1,
            out: Outbox::new(),
        }
    }

    fn capacity(&self) -> usize {
        self.cfg.max_connections.max(1)
    }

    /// The event loop: accept, flush, read, dispatch — then back off when
    /// nothing happened. Exits on the stop flag, failing open connections
    /// with a typed `Shutdown` error, and returns the final snapshot.
    fn run(mut self) -> Result<GatewaySnapshot, String> {
        let request_timeout = Duration::from_millis(self.cfg.request_timeout_ms.max(1));
        let idle = Duration::from_millis(self.cfg.idle_timeout_ms);
        let (mut calm_passes, mut passes) = (0u32, 0u32);

        while !self.stop.load(Ordering::SeqCst) {
            let mut progressed = false;
            // The listener is polled while nothing else can progress (no
            // connection, or the last pass slept) and every
            // `ACCEPT_EVERY`th pass otherwise.
            if self.conns.is_empty() || calm_passes >= YIELD_PASSES || passes % ACCEPT_EVERY == 0 {
                progressed |= self.accept_pass();
            }
            passes = passes.wrapping_add(1);

            // Ascending connection id, walked off the ordered map itself:
            // a pass allocates nothing (closes are deferred to `dead`, so
            // the walk never loses its place).
            let mut dead: Vec<u64> = Vec::new();
            let mut next = self.conns.keys().next().copied();
            while let Some(conn_id) = next {
                let (advance, closed) = self.conn_pass(conn_id, request_timeout, idle);
                progressed |= advance;
                if closed {
                    dead.push(conn_id);
                }
                next = self.conns.range(conn_id + 1..).next().map(|(&id, _)| id);
            }
            self.service.expire_parked(request_timeout, &mut self.out);
            self.drain_outbox();
            for conn_id in dead {
                self.close_conn(conn_id);
            }

            if progressed {
                calm_passes = 0;
            } else {
                calm_passes = calm_passes.saturating_add(1);
                if calm_passes < YIELD_PASSES {
                    std::thread::yield_now();
                } else {
                    // Past the busy window: sleep, ramping toward the
                    // ceiling so an idle gateway costs ~0 CPU.
                    let step = Duration::from_micros(100);
                    let ramp =
                        step.saturating_mul(calm_passes.saturating_sub(YIELD_PASSES - 1).min(250));
                    std::thread::sleep(ramp.min(BACKOFF_CEILING));
                }
            }
        }

        // Shutdown: tell every open connection, flush best-effort, then
        // release their sessions in connection order.
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for conn_id in ids {
            if let Some(conn) = self.conns.get_mut(&conn_id) {
                conn.push_error(&self.stats, ErrorCode::Shutdown, "gateway shutting down");
                let _ = conn.flush(&self.stats, self.service.plane());
            }
            self.close_conn(conn_id);
        }
        self.service.finish()
    }

    /// Accepts whatever is queued on the listener. Connections beyond
    /// capacity are refused with a typed `Busy` error.
    fn accept_pass(&mut self) -> bool {
        let mut progressed = false;
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    progressed = true;
                    self.stats
                        .connections_accepted
                        .fetch_add(1, Ordering::Relaxed);
                    if self.conns.len() >= self.capacity() {
                        self.stats.busy_rejections.fetch_add(1, Ordering::Relaxed);
                        let mut stream = stream;
                        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
                        let frame = Frame::Error {
                            id: PUSH_ID,
                            code: ErrorCode::Busy,
                            message: "gateway at connection capacity".into(),
                        };
                        let _ = stream.write_all(&proto::encode(&frame));
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let conn_id = self.next_conn;
                    self.next_conn += 1;
                    self.stats
                        .connections_active
                        .fetch_add(1, Ordering::Relaxed);
                    self.conns.insert(conn_id, Conn::new(stream));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        progressed
    }

    /// One pass over one connection: flush pending output, then read and
    /// dispatch its frames until its socket is empty or a body is in
    /// flight, before the pass serves the next connection. Returns
    /// `(made_progress, close_now)`.
    fn conn_pass(
        &mut self,
        conn_id: u64,
        request_timeout: Duration,
        idle: Duration,
    ) -> (bool, bool) {
        let mut progressed = false;
        loop {
            let Some(conn) = self.conns.get_mut(&conn_id) else {
                return (progressed, false);
            };
            progressed |= match conn.flush(&self.stats, self.service.plane()) {
                None => return (true, true),
                Some(wrote) => wrote,
            };
            if conn.closing {
                return (progressed, conn.flushed());
            }
            if conn.in_flight.is_some() {
                // Its next request waits in the socket until the body is
                // out, so a connection has one body in flight at most.
                return (progressed, false);
            }
            match conn.reader.next(&mut conn.stream) {
                Next::Frame(frame) => {
                    progressed = true;
                    self.stats.frames_in.fetch_add(1, Ordering::Relaxed);
                    conn.last_activity = Instant::now();
                    match self.dispatch(conn_id, frame) {
                        After::Keep => continue,
                        After::Close => {
                            if let Some(conn) = self.conns.get_mut(&conn_id) {
                                conn.closing = true;
                            }
                            continue;
                        }
                    }
                }
                Next::Failed(e)
                    if !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
                {
                    return (true, true)
                }
                // The socket is empty.
                Next::Failed(_) => {
                    if let Some(since) = conn.reader.stalled_since() {
                        if since.elapsed() >= request_timeout {
                            self.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                            conn.push_error(
                                &self.stats,
                                ErrorCode::BadFrame,
                                "truncated frame: peer stalled mid-frame",
                            );
                            conn.closing = true;
                            continue;
                        }
                    } else if !idle.is_zero() && conn.last_activity.elapsed() >= idle {
                        self.stats
                            .connections_harvested
                            .fetch_add(1, Ordering::Relaxed);
                        conn.push_error(&self.stats, ErrorCode::Idle, "idle connection harvested");
                        conn.closing = true;
                        continue;
                    }
                    return (progressed, false);
                }
                Next::Closed => return (progressed, true),
                Next::ClosedMidFrame => {
                    self.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                    return (true, true);
                }
                Next::Bad(e) => {
                    progressed = true;
                    self.stats.decode_errors.fetch_add(1, Ordering::Relaxed);
                    match e {
                        // The length prefix cannot be trusted, so the
                        // stream cannot be resynchronised: fail the
                        // connection.
                        ProtoError::Oversized { .. } => {
                            conn.push_error(&self.stats, ErrorCode::Oversized, e.to_string());
                            conn.closing = true;
                        }
                        // The frame boundary was intact — only the payload
                        // was garbage — so the connection stays usable.
                        other => {
                            conn.push_error(&self.stats, ErrorCode::BadFrame, other.to_string());
                            conn.last_activity = Instant::now();
                        }
                    }
                    continue;
                }
            }
        }
    }

    /// Routes one decoded frame: handshake, goodbye, and protocol-state
    /// checks here; everything else into the service core.
    fn dispatch(&mut self, conn_id: u64, frame: Frame) -> After {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return After::Close;
        };
        if !conn.hello_done {
            return match frame {
                Frame::Hello { magic, version } => {
                    if magic != proto::MAGIC {
                        conn.push_error(
                            &self.stats,
                            ErrorCode::BadMagic,
                            "handshake magic mismatch",
                        );
                        return After::Close;
                    }
                    if version != proto::VERSION {
                        conn.push_error(
                            &self.stats,
                            ErrorCode::BadVersion,
                            format!(
                                "server speaks version {}, client sent {version}",
                                proto::VERSION
                            ),
                        );
                        return After::Close;
                    }
                    conn.hello_done = true;
                    conn.queue(&self.stats, &Frame::HelloOk { version });
                    After::Keep
                }
                _ => {
                    conn.push_error(&self.stats, ErrorCode::Proto, "first frame must be hello");
                    After::Close
                }
            };
        }
        match frame {
            Frame::Goodbye { id } => {
                conn.queue(&self.stats, &Frame::GoodbyeOk { id });
                After::Close
            }
            Frame::Hello { .. } => {
                conn.push_error(&self.stats, ErrorCode::Proto, "duplicate hello");
                After::Keep
            }
            request @ (Frame::Join { .. }
            | Frame::JoinGroup { .. }
            | Frame::Leave { .. }
            | Frame::StageNoAck { .. }
            | Frame::TickSync { .. }
            | Frame::SnapshotBin { .. }
            | Frame::LeaseRevoke { .. }
            | Frame::LeaseGrant { .. }
            | Frame::Image { .. }
            | Frame::Restore { .. }) => {
                if ServiceCore::mutates(&request) {
                    self.freeze_bodies();
                }
                self.service.handle(conn_id, request, &mut self.out);
                self.drain_outbox();
                After::Keep
            }
            // Server-to-client kinds arriving from a client.
            other => {
                let id = proto::reply_id(&other).unwrap_or(PUSH_ID);
                let frame = Frame::Error {
                    id,
                    code: ErrorCode::Proto,
                    message: "server-only frame from client".into(),
                };
                conn.queue(&self.stats, &frame);
                After::Keep
            }
        }
    }

    /// Copies service-produced frames into their target connections'
    /// write buffers. Frames for connections that vanished are dropped —
    /// the session cleanup already ran when they closed.
    fn drain_outbox(&mut self) {
        if self.out.is_empty() {
            return;
        }
        let out = std::mem::take(&mut self.out);
        for (conn_id, reply) in out {
            let Some(conn) = self.conns.get_mut(&conn_id) else {
                continue;
            };
            match reply {
                Reply::Frame(frame) => conn.queue(&self.stats, &frame),
                Reply::Snapshot { id, body, started } => {
                    let plane = self.service.plane();
                    conn.queue_snapshot(&self.stats, plane, id, body, started);
                }
            }
        }
    }

    /// Moves every live body in flight onto the plane's shared snapshot,
    /// one table for all of them, as the plane is about to change: a body
    /// is the snapshot at its request.
    fn freeze_bodies(&mut self) {
        let plane = self.service.plane_mut();
        for conn in self.conns.values_mut() {
            if let Some((body, _)) = &mut conn.in_flight {
                body.freeze(plane);
            }
        }
    }

    fn close_conn(&mut self, conn_id: u64) {
        if self.conns.remove(&conn_id).is_some() {
            self.stats
                .connections_active
                .fetch_sub(1, Ordering::Relaxed);
            // The closed connection's sessions leave.
            self.freeze_bodies();
            self.service.conn_closed(conn_id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reply too large for any reader is answered with a typed
    /// `Oversized` error, and the connection's next reply follows it.
    #[test]
    fn a_reply_over_max_frame_is_refused_typed_and_the_connection_kept() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("non-blocking");
        let cfg = ServiceConfig::builder(64.0).exec(cdba_ctrl::ExecMode::Inline);
        let plane = ControlPlane::new(cfg.build().expect("valid config"));
        let stats = WireStats::new();
        let mut conn = Conn::new(server);
        // Kind, request id and blob length ahead of the blob.
        let bytes = vec![0; proto::MAX_FRAME + 1 - 13];
        conn.queue(&stats, &Frame::ImageOk { id: 7, bytes });
        conn.queue(&stats, &Frame::LeaveOk { id: 8 });
        while !conn.flushed() {
            conn.flush(&stats, &plane).expect("the connection lives");
        }
        let mut reader = FrameReader::new();
        let Next::Frame(Frame::Error { id, code, .. }) = reader.next(&mut client) else {
            panic!("expected a typed error");
        };
        assert_eq!((id, code), (7, ErrorCode::Oversized));
        let next = reader.next(&mut client);
        assert!(
            matches!(next, Next::Frame(Frame::LeaveOk { id: 8 })),
            "{next:?}"
        );
        assert_eq!(stats.frames_out.load(Ordering::Relaxed), 2);
    }
}
