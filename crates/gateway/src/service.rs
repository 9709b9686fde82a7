//! The gateway service core: the single owner of the [`ControlPlane`],
//! called inline from the connection core's event loop.
//!
//! Earlier revisions ran this as a separate thread behind a bounded
//! channel, with every connection worker blocking on a per-request reply
//! channel — two context switches and three channel operations per
//! request. The evented server owns this struct directly, so a request is
//! now a plain method call; what made the gateway deterministic is
//! unchanged: one single-threaded owner commits arrivals staged by any
//! number of connections in ascending session-key order, so a gateway run
//! is bitwise-identical to the same operations applied in-process (see
//! [`ServiceSnapshot::invariant_view`](cdba_ctrl::ServiceSnapshot::invariant_view)).
//!
//! Replies are not written here. Every handler appends `(connection,
//! frame)` pairs to an output list and the connection core copies them
//! into the right write buffers — which is what lets one request answer
//! another connection (a parked [`Frame::TickSync`] commit released by
//! another connection's [`Frame::StageNoAck`]).

use crate::codec::SnapshotStream;
use crate::proto::{ErrorCode, Frame, PUSH_ID};
use crate::stats::WireStats;
use crate::GatewaySnapshot;
use cdba_ctrl::{ControlPlane, CtrlError, PlaneImage, ServiceConfig, ServiceSnapshot};
use std::sync::Arc;
use std::time::Instant;

/// What the service core wants delivered to a connection: a frame to
/// encode into its write buffer, or a [`Frame::SnapshotBinOk`] whose body
/// the connection encodes a run of rows at a time, as its socket drains —
/// off the plane's shard columns when it is inline, else from the shared
/// snapshot.
pub(crate) enum Reply {
    Frame(Frame),
    Snapshot {
        id: u64,
        body: Box<SnapshotStream<Arc<ServiceSnapshot>>>,
        /// When the request arrived.
        started: Instant,
    },
}

impl From<Frame> for Reply {
    fn from(frame: Frame) -> Self {
        Reply::Frame(frame)
    }
}

/// Replies the service core wants delivered, each to a specific
/// connection's write buffer.
pub(crate) type Outbox = Vec<(u64, Reply)>;

/// A [`Frame::TickSync`] commit waiting for more staged arrivals.
struct ParkedTick {
    conn: u64,
    id: u64,
    min_staged: u32,
    since: Instant,
}

/// The single-threaded service state, owned by the connection core.
pub(crate) struct ServiceCore {
    plane: ControlPlane,
    stats: Arc<WireStats>,
    /// session key → owning connection, direct-mapped: the plane issues
    /// keys densely and ascending (as `slab::KeyMap` and its own duplicate
    /// check assume), so this is 8 bytes per key ever issued and grows
    /// only by keys the plane returned. 0 is "no owner" (connection ids
    /// start at 1); [`STAGED`] marks a key with an arrival in `pending`.
    slots: Vec<u64>,
    /// Arrivals staged for the next committed tick, across connections.
    pending: Vec<(u64, f64)>,
    /// At most one count-gated tick commit may be parked at a time.
    parked: Option<ParkedTick>,
}

/// The bit of a [`ServiceCore::slots`] entry that says the key has an
/// arrival staged; the rest is the owning connection.
const STAGED: u64 = 1 << 63;

fn ctrl_error(id: u64, e: &CtrlError) -> Frame {
    Frame::Error {
        id,
        code: ErrorCode::Ctrl,
        message: e.to_string(),
    }
}

impl ServiceCore {
    pub(crate) fn new(service: ServiceConfig, stats: Arc<WireStats>) -> Self {
        Self {
            plane: ControlPlane::new(service),
            stats,
            slots: Vec::new(),
            pending: Vec::new(),
            parked: None,
        }
    }

    /// Attaches the observability registry and trace ring to the owned
    /// control plane. Called once before the event loop starts; the plane
    /// pays one branch per hook when attached, nothing when not.
    pub(crate) fn attach_obs(
        &mut self,
        registry: &cdba_obs::Registry,
        trace: Arc<cdba_obs::TraceRing>,
    ) {
        self.plane.attach_metrics(registry);
        self.plane.attach_trace(trace);
    }

    /// Handles one decoded client frame. Every produced frame — the
    /// reply, async stage failures, a released parked commit — lands in
    /// `out` tagged with its target connection.
    ///
    /// One request latency sample is recorded per replied request;
    /// [`Frame::StageNoAck`] deliberately records none (it has no reply —
    /// that is its point).
    pub(crate) fn handle(&mut self, conn: u64, frame: Frame, out: &mut Outbox) {
        let started = Instant::now();
        let reply = match frame {
            Frame::Join { id, tenant } => Some(self.join(conn, id, &tenant)),
            Frame::JoinGroup { id, tenant, size } => Some(self.join_group(conn, id, &tenant, size)),
            Frame::Leave { id, key } => Some(self.leave(conn, id, key)),
            Frame::StageNoAck { arrivals } => {
                self.stage_noack(conn, &arrivals, out);
                return;
            }
            Frame::TickSync {
                id,
                arrivals,
                min_staged,
            } => self.tick_sync(conn, id, &arrivals, min_staged, started),
            Frame::SnapshotBin { id } => {
                out.push((conn, self.snapshot_bin_reply(id, started)));
                return;
            }
            Frame::LeaseRevoke { id, key } => Some(self.lease_revoke(conn, id, key)),
            Frame::LeaseGrant { id, bytes } => Some(self.lease_grant(conn, id, &bytes)),
            Frame::Image { id } => Some(self.image(id)),
            Frame::Restore { id, bytes } => Some(self.restore(conn, id, &bytes)),
            other => {
                debug_assert!(false, "connection core routed a non-request: {other:?}");
                return;
            }
        };
        if let Some(frame) = reply {
            self.stats.latency.record_since(started);
            out.push((conn, frame.into()));
        }
    }

    fn join(&mut self, conn: u64, id: u64, tenant: &str) -> Frame {
        match self.plane.admit(tenant) {
            Ok(key) => {
                self.own(key, conn);
                Frame::Joined { id, key }
            }
            Err(e) => ctrl_error(id, &e),
        }
    }

    fn join_group(&mut self, conn: u64, id: u64, tenant: &str, size: u32) -> Frame {
        match self.plane.admit_group(tenant, size as usize) {
            Ok(members) => {
                for &key in &members {
                    self.own(key, conn);
                }
                Frame::GroupJoined { id, members }
            }
            Err(e) => ctrl_error(id, &e),
        }
    }

    /// Revokes `key`'s lease: quiesce, capture the checkpoint blob,
    /// remove the session (its envelope is released), and hand the blob
    /// back to the caller. First half of a live migration; a failed
    /// export leaves the session untouched.
    fn lease_revoke(&mut self, conn: u64, id: u64, key: u64) -> Frame {
        let owner = self.slot(key) & !STAGED;
        if owner != 0 && owner != conn {
            return Self::not_owner(id, key);
        }
        match self.plane.export_session(key) {
            Ok(bytes) => {
                self.forget_session(key);
                Frame::LeaseRevoked { id, bytes }
            }
            Err(e) => ctrl_error(id, &e),
        }
    }

    /// Grants this process a lease on a migrated-in session: the blob is
    /// imported under a fresh key owned by the granting connection.
    fn lease_grant(&mut self, conn: u64, id: u64, bytes: &[u8]) -> Frame {
        match self.plane.import_session(bytes) {
            Ok(key) => {
                self.own(key, conn);
                Frame::LeaseGranted { id, key }
            }
            Err(e) => ctrl_error(id, &e),
        }
    }

    /// Cuts a process image, which is the control plane's image as
    /// [`ControlPlane::cut_image`] writes it. Only at a tick boundary: a
    /// staged arrival or a parked commit belongs to no image.
    fn image(&mut self, id: u64) -> Frame {
        if !self.pending.is_empty() || self.parked.is_some() {
            return Frame::Error {
                id,
                code: ErrorCode::Busy,
                message: "arrivals are staged for the next tick; images are cut between ticks"
                    .into(),
            };
        }
        let mut bytes = Vec::new();
        match self.plane.cut_image(&mut bytes) {
            Ok(()) => Frame::ImageOk { id, bytes },
            Err(e) => ctrl_error(id, &e),
        }
    }

    /// Restores a fresh gateway — no session owned, nothing staged — and
    /// its fresh plane from an image; the restoring connection owns every
    /// restored session. Every check runs before the plane changes.
    fn restore(&mut self, conn: u64, id: u64, bytes: &[u8]) -> Frame {
        let fresh = self.pending.is_empty() && self.slots.iter().all(|&slot| slot == 0);
        let restored = if fresh {
            self.restore_image(conn, bytes)
        } else {
            Err(CtrlError::InvalidImage {
                field: "image.fresh",
            })
        };
        match restored {
            Ok(keys) => Frame::RestoreOk {
                id,
                tick: self.plane.ticks(),
                keys,
            },
            Err(e) => ctrl_error(id, &e),
        }
    }

    fn restore_image(&mut self, conn: u64, bytes: &[u8]) -> Result<Vec<u64>, CtrlError> {
        let image = PlaneImage::parse(bytes)?;
        self.plane.restore_image(&image)?;
        let live = image.live_keys();
        for &key in live {
            self.own(key, conn);
        }
        Ok(live.to_vec())
    }

    fn leave(&mut self, conn: u64, id: u64, key: u64) -> Frame {
        let owner = self.slot(key) & !STAGED;
        if owner != 0 && owner != conn {
            return Self::not_owner(id, key);
        }
        match self.plane.leave(key) {
            Ok(()) => {
                self.forget_session(key);
                Frame::LeaveOk { id }
            }
            Err(e) => ctrl_error(id, &e),
        }
    }

    /// `key`'s slot — its owner and [`STAGED`] bit — or 0 when no session
    /// of this gateway has the key, whatever a client sent for one.
    fn slot(&self, key: u64) -> u64 {
        let at = usize::try_from(key).ok();
        at.and_then(|at| self.slots.get(at)).copied().unwrap_or(0)
    }

    /// Records `conn` as the owner of `key`, a key the plane just issued.
    fn own(&mut self, key: u64, conn: u64) {
        let at = usize::try_from(key).expect("an issued key indexes memory");
        if self.slots.len() <= at {
            self.slots.resize(at + 1, 0);
        }
        self.slots[at] = conn;
    }

    fn not_owner(id: u64, key: u64) -> Frame {
        Frame::Error {
            id,
            code: ErrorCode::NotOwner,
            message: format!("session {key} is owned by another connection"),
        }
    }

    fn forget_session(&mut self, key: u64) {
        let slot = self.slot(key);
        if slot & STAGED != 0 {
            self.pending.retain(|&(k, _)| k != key);
        }
        if slot != 0 {
            self.slots[key as usize] = 0;
        }
    }

    /// Validates and buffers arrivals; all-or-nothing so a rejected batch
    /// leaves the pending tick untouched. One slot per arrival: the
    /// [`STAGED`] bit set on the way is also what catches a key listed
    /// twice, within this batch or across batches.
    fn stage_arrivals(&mut self, conn: u64, arrivals: &[(u64, f64)]) -> Result<(), Frame> {
        let id = 0; // caller rewrites the id on the error frame
        for (i, &(key, bits)) in arrivals.iter().enumerate() {
            let slot = self.slot(key);
            let refused = if slot == 0 {
                ctrl_error(id, &CtrlError::UnknownSession(key))
            } else if slot & !STAGED != conn {
                Self::not_owner(id, key)
            } else if !bits.is_finite() || bits < 0.0 {
                ctrl_error(id, &CtrlError::InvalidArrival { session: key, bits })
            } else if slot & STAGED != 0 {
                ctrl_error(id, &CtrlError::DuplicateArrival(key))
            } else {
                // A non-zero slot is in the table, so the key indexes it.
                self.slots[key as usize] = slot | STAGED;
                continue;
            };
            // Every arrival ahead of the refused one was staged just now.
            for &(staged, _) in &arrivals[..i] {
                self.slots[staged as usize] &= !STAGED;
            }
            return Err(refused);
        }
        self.pending.extend_from_slice(arrivals);
        Ok(())
    }

    fn with_id(frame: Frame, id: u64) -> Frame {
        match frame {
            Frame::Error { code, message, .. } => Frame::Error { id, code, message },
            other => other,
        }
    }

    /// Stages without a reply; a rejected batch is reported as an async
    /// error the client surfaces at its next synchronous request.
    fn stage_noack(&mut self, conn: u64, arrivals: &[(u64, f64)], out: &mut Outbox) {
        match self.stage_arrivals(conn, arrivals) {
            Ok(()) => {
                self.stats
                    .noack_stages
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                self.try_release_parked(out);
            }
            Err(e) => out.push((conn, Self::with_id(e, PUSH_ID).into())),
        }
    }

    /// Commits the pending batch in ascending key order, regardless of
    /// which connection staged what, when.
    fn commit(&mut self, id: u64) -> Frame {
        // Keys are unique, so the unstable sort gives the one order there
        // is, without a scratch half the batch's size.
        self.pending.sort_unstable_by_key(|&(k, _)| k);
        for &(key, _) in &self.pending {
            self.slots[key as usize] &= !STAGED;
        }
        let frame = match self.plane.tick(&self.pending) {
            Ok(()) => Frame::TickOk {
                id,
                tick: self.plane.ticks(),
            },
            Err(e) => ctrl_error(id, &e),
        };
        self.pending.clear();
        frame
    }

    /// Stages, then commits once `min_staged` arrivals are buffered
    /// gateway-wide — parking the commit until unacknowledged stages from
    /// other connections land, which makes the committed batch independent
    /// of socket arrival order. Returns `None` when parked: the
    /// [`Frame::TickOk`] is produced later by [`Self::try_release_parked`].
    fn tick_sync(
        &mut self,
        conn: u64,
        id: u64,
        arrivals: &[(u64, f64)],
        min_staged: u32,
        started: Instant,
    ) -> Option<Frame> {
        if self.parked.is_some() {
            return Some(Frame::Error {
                id,
                code: ErrorCode::Busy,
                message: "another tick-sync commit is already parked".into(),
            });
        }
        if let Err(e) = self.stage_arrivals(conn, arrivals) {
            // The committing connection's own batch was bad; earlier
            // staged arrivals stay buffered for a retried tick.
            return Some(Self::with_id(e, id));
        }
        if self.pending.len() as u32 >= min_staged {
            return Some(self.commit(id));
        }
        self.parked = Some(ParkedTick {
            conn,
            id,
            min_staged,
            since: started,
        });
        None
    }

    /// Releases a parked commit if enough arrivals have landed.
    fn try_release_parked(&mut self, out: &mut Outbox) {
        let staged = self.pending.len() as u32;
        let ready = self.parked.as_ref().is_some_and(|p| staged >= p.min_staged);
        if !ready {
            return;
        }
        let parked = self.parked.take().expect("checked above");
        let frame = self.commit(parked.id);
        self.stats.latency.record_since(parked.since);
        out.push((parked.conn, frame.into()));
    }

    /// Fails a parked commit that has waited longer than `timeout`
    /// (e.g. the peers it was counting on disconnected before staging).
    /// Its staged arrivals stay buffered for a retried tick.
    pub(crate) fn expire_parked(&mut self, timeout: std::time::Duration, out: &mut Outbox) {
        let expired = self
            .parked
            .as_ref()
            .is_some_and(|p| p.since.elapsed() >= timeout);
        if !expired {
            return;
        }
        let parked = self.parked.take().expect("checked above");
        self.stats.latency.record_since(parked.since);
        out.push((
            parked.conn,
            Reply::Frame(Frame::Error {
                id: parked.id,
                code: ErrorCode::Timeout,
                message: format!(
                    "tick-sync commit timed out at {}/{} staged arrivals",
                    self.pending.len(),
                    parked.min_staged
                ),
            }),
        ));
    }

    /// Answers a snapshot poll: the binary body is not encoded here, but
    /// streamed by the connection, which also takes the latency sample,
    /// once the last rows are queued. An inline plane's rows are read off
    /// its shard columns as the socket drains, so no table is built; a
    /// threaded plane's come from its shared snapshot.
    fn snapshot_bin_reply(&mut self, id: u64, started: Instant) -> Reply {
        self.stats
            .full_snapshots
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let body = match self.plane.snapshot_rows() {
            Some(inline) => SnapshotStream::live(inline, &self.stats.snapshot()),
            None => match self.plane.snapshot_shared() {
                Ok(service) => SnapshotStream::new(service, &self.stats.snapshot()),
                Err(e) => {
                    self.stats.latency.record_since(started);
                    return ctrl_error(id, &e).into();
                }
            },
        };
        Reply::Snapshot {
            id,
            body: Box::new(body),
            started,
        }
    }

    /// The plane live bodies read their rows off.
    pub(crate) fn plane(&self) -> &ControlPlane {
        &self.plane
    }

    /// The plane a live body in flight is frozen onto before it changes.
    pub(crate) fn plane_mut(&mut self) -> &mut ControlPlane {
        &mut self.plane
    }

    /// Whether handling `frame` may change the plane — and so a snapshot
    /// — which a live body in flight must not see: every request but the
    /// read-only ones. It says yes where the request turns out to change
    /// nothing, as a stage that only buffers arrivals or a refused join.
    pub(crate) fn mutates(frame: &Frame) -> bool {
        !matches!(frame, Frame::SnapshotBin { .. } | Frame::Image { .. })
    }

    /// Releases everything a closed connection held: a parked commit and
    /// its sessions (best-effort — a session may already be gone if its
    /// shard is down).
    pub(crate) fn conn_closed(&mut self, conn: u64) {
        if self.parked.as_ref().is_some_and(|p| p.conn == conn) {
            self.parked = None;
        }
        // One walk in ascending key order, which is join order. The
        // closed connection's slots end up 0, so one pass over `pending`
        // then drops exactly its staged arrivals.
        for key in 0..self.slots.len() {
            if self.slots[key] & !STAGED == conn {
                self.slots[key] = 0;
                let _ = self.plane.leave(key as u64);
            }
        }
        let slots = &self.slots;
        self.pending.retain(|&(k, _)| slots[k as usize] != 0);
        // Removing staged arrivals can only lower the staged count, so a
        // parked threshold cannot newly fire here; a parked commit now
        // starved of its peers is failed by `expire_parked`.
    }

    /// Takes the final snapshot and shuts the control plane down.
    pub(crate) fn finish(mut self) -> Result<GatewaySnapshot, String> {
        let service = self
            .plane
            .snapshot()
            .map_err(|e| format!("final snapshot failed: {e}"))?;
        let wire = self.stats.snapshot();
        self.plane.shutdown();
        Ok(GatewaySnapshot { service, wire })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdba_ctrl::ExecMode;
    use cdba_integration::{frame_column, frame_columns, image_frames};
    use cdba_obs::{TraceKind, TraceRing};
    use std::time::Duration;

    fn request(core: &mut ServiceCore, conn: u64, frame: Frame) -> Vec<Frame> {
        let mut out = Outbox::new();
        core.handle(conn, frame, &mut out);
        out.into_iter()
            .map(|(to, reply)| match reply {
                Reply::Frame(frame) => {
                    assert_eq!(to, conn);
                    frame
                }
                Reply::Snapshot { .. } => panic!("no poll in these tests"),
            })
            .collect()
    }

    /// Closing a connection that owns 50k sessions, 18k of them with an
    /// arrival staged, is one walk of the owner table and one pass over
    /// the staged batch: its sessions leave in join order, the other
    /// connection's interleaved keys and staged arrivals stay, and none
    /// of it is quadratic. (The owner list it replaced was scanned per
    /// leave, and the staged batch once per staged key.)
    #[test]
    fn closing_a_big_connection_releases_in_join_order_in_one_pass() {
        const MINE: u64 = 50_000;
        const STAGED: usize = 18_000;
        let service = ServiceConfig::builder(2e6)
            .exec(ExecMode::Inline)
            .build()
            .expect("valid config");
        let mut core = ServiceCore::new(service, Arc::new(WireStats::new()));
        let trace = Arc::new(TraceRing::new(1 << 17));
        core.plane.attach_trace(Arc::clone(&trace));

        // Connection 2 owns every 10th key, so the two interleave.
        let (mut mine, mut theirs) = (Vec::new(), Vec::new());
        while (mine.len() as u64) < MINE {
            let conn = if (mine.len() + theirs.len()) % 10 == 9 {
                2
            } else {
                1
            };
            let id = 1;
            let tenant = "acme".into();
            match request(&mut core, conn, Frame::Join { id, tenant })[..] {
                [Frame::Joined { key, .. }] if conn == 1 => mine.push(key),
                [Frame::Joined { key, .. }] => theirs.push(key),
                ref other => panic!("expected joined, got {other:?}"),
            }
        }
        let stage = |keys: &[u64]| Frame::StageNoAck {
            arrivals: keys.iter().map(|&k| (k, 1.0)).collect(),
        };
        assert!(request(&mut core, 1, stage(&mine[..STAGED / 2])).is_empty());
        assert!(request(&mut core, 2, stage(&theirs[..100])).is_empty());
        assert!(request(&mut core, 1, stage(&mine[STAGED / 2..STAGED])).is_empty());
        trace.drain();

        let closing = Instant::now();
        core.conn_closed(1);
        let took = closing.elapsed();
        let limit = Duration::from_millis(if cfg!(debug_assertions) { 1_000 } else { 50 });
        assert!(took < limit, "closing took {took:?}");

        let left: Vec<u64> = trace
            .drain()
            .iter()
            .filter(|e| e.kind == TraceKind::Leave)
            .map(|e| e.session.expect("a leave names its session"))
            .collect();
        assert_eq!(left, mine, "every session of the connection, in join order");

        // The other connection's batch is intact: committing it needs
        // exactly its 100 arrivals, and its keys are still its own.
        let tick = Frame::TickSync {
            id: 7,
            arrivals: vec![(theirs[100], 1.0)],
            min_staged: 101,
        };
        assert_eq!(
            request(&mut core, 2, tick),
            [Frame::TickOk { id: 7, tick: 1 }]
        );
        let gone = request(&mut core, 2, stage(&mine[..1]));
        assert!(matches!(&gone[..], [Frame::Error { message, .. }] if message.contains("unknown")));
        core.finish().expect("final snapshot");
    }

    /// Staging is all-or-nothing and names the first offence in the order
    /// unknown key, foreign key, invalid bits, duplicate — with a key no
    /// session ever had costing nothing.
    #[test]
    fn a_refused_batch_stages_nothing_and_errors_keep_their_order() {
        let service = ServiceConfig::builder(1024.0)
            .exec(ExecMode::Inline)
            .build()
            .expect("valid config");
        let mut core = ServiceCore::new(service, Arc::new(WireStats::new()));
        let mut join = |conn| {
            let id = 1;
            let tenant = "acme".into();
            match request(&mut core, conn, Frame::Join { id, tenant })[..] {
                [Frame::Joined { key, .. }] => key,
                ref other => panic!("expected joined, got {other:?}"),
            }
        };
        let (a, b, foreign) = (join(1), join(1), join(2));
        fn refused(core: &mut ServiceCore, arrivals: &[(u64, f64)]) -> (ErrorCode, String) {
            let arrivals = arrivals.to_vec();
            match request(core, 1, Frame::StageNoAck { arrivals }).pop() {
                Some(Frame::Error {
                    id: PUSH_ID,
                    code,
                    message,
                }) => (code, message),
                other => panic!("expected a refusal, got {other:?}"),
            }
        }
        let hostile = u64::MAX - 1;
        for (batch, code, needle) in [
            (
                vec![(a, 1.0), (hostile, -1.0), (foreign, 1.0)],
                ErrorCode::Ctrl,
                "unknown",
            ),
            (
                vec![(a, 1.0), (foreign, f64::NAN), (a, 1.0)],
                ErrorCode::NotOwner,
                "owned by",
            ),
            (
                vec![(a, 1.0), (b, -1.0), (a, 1.0)],
                ErrorCode::Ctrl,
                "invalid",
            ),
            (vec![(a, 1.0), (b, 1.0), (a, 1.0)], ErrorCode::Ctrl, "twice"),
        ] {
            let (got, message) = refused(&mut core, &batch);
            assert_eq!(got, code, "{message}");
            assert!(message.contains(needle), "{message}");
        }
        assert_eq!(core.slots.len(), 3, "a hostile key allocates nothing");
        // Nothing of the refused batches stayed staged.
        let arrivals = vec![(a, 1.0), (b, 2.0)];
        assert!(request(&mut core, 1, Frame::StageNoAck { arrivals }).is_empty());
        assert_eq!(core.pending.len(), 2);
        let (code, message) = refused(&mut core, &[(b, 1.0)]);
        assert_eq!(code, ErrorCode::Ctrl);
        assert!(message.contains("twice"), "across batches too: {message}");
        core.finish().expect("final snapshot");
    }

    /// The one frame a request is answered with.
    fn reply(core: &mut ServiceCore, conn: u64, frame: Frame) -> Frame {
        let mut replies = request(core, conn, frame);
        assert_eq!(replies.len(), 1, "{replies:?}");
        replies.pop().expect("one reply")
    }

    /// An image is the plane's image, byte for byte. A fresh gateway
    /// restored from it hands every session, a migrated-in one included,
    /// to the restoring connection and answers every later request as the
    /// original does; a gateway that is not fresh, or an image cut with
    /// arrivals staged, is refused typed.
    #[test]
    fn an_image_is_the_planes_and_restores_onto_one_connection() {
        let service = ServiceConfig::builder(256.0)
            .exec(ExecMode::Inline)
            .shards(2)
            .build()
            .expect("valid config");
        let core = || ServiceCore::new(service.clone(), Arc::new(WireStats::new()));
        let (mut donor, mut original) = (core(), core());
        let Frame::Joined { key: moving, .. } = reply(
            &mut donor,
            1,
            Frame::Join {
                id: 1,
                tenant: "acme".into(),
            },
        ) else {
            panic!("join")
        };
        let Frame::LeaseRevoked { bytes: blob, .. } =
            reply(&mut donor, 1, Frame::LeaseRevoke { id: 2, key: moving })
        else {
            panic!("revoke")
        };
        let mut keys = Vec::new();
        for (conn, tenant) in [(1, "acme"), (2, "globex"), (1, "acme")] {
            let join = Frame::Join {
                id: 3,
                tenant: tenant.into(),
            };
            let Frame::Joined { key, .. } = reply(&mut original, conn, join) else {
                panic!("join")
            };
            keys.push(key);
        }
        let grant = Frame::LeaseGrant { id: 4, bytes: blob };
        let Frame::LeaseGranted { key: migrated, .. } = reply(&mut original, 2, grant) else {
            panic!("grant")
        };
        let arrivals = vec![(keys[0], 3.0), (keys[2], 1.0)];
        assert!(request(&mut original, 1, Frame::StageNoAck { arrivals }).is_empty());
        let busy = reply(&mut original, 1, Frame::Image { id: 5 });
        assert!(
            matches!(
                busy,
                Frame::Error {
                    code: ErrorCode::Busy,
                    ..
                }
            ),
            "{busy:?}"
        );
        let tick = Frame::TickSync {
            id: 6,
            arrivals: vec![(keys[1], 2.0), (migrated, 1.0)],
            min_staged: 0,
        };
        assert!(matches!(
            reply(&mut original, 2, tick),
            Frame::TickOk { tick: 1, .. }
        ));
        let Frame::ImageOk { bytes: image, .. } = reply(&mut original, 1, Frame::Image { id: 8 })
        else {
            panic!("image")
        };
        let mut plane_image = Vec::new();
        original.plane.cut_image(&mut plane_image).unwrap();
        assert_eq!(image, plane_image);

        let mut restored = core();
        let restore = Frame::Restore {
            id: 9,
            bytes: image.clone(),
        };
        let Frame::RestoreOk {
            tick, keys: live, ..
        } = reply(&mut restored, 7, restore)
        else {
            panic!("restore")
        };
        assert_eq!(tick, 1);
        let mut all = keys.clone();
        all.push(migrated);
        assert_eq!(live, all);
        // Connection 7 owns everything now, so the same arrivals tick
        // from it that needed two connections on the original.
        for (core, conns) in [(&mut original, [1, 2]), (&mut restored, [7, 7])] {
            let tick = |id, arrivals| Frame::TickSync {
                id,
                arrivals,
                min_staged: 0,
            };
            assert!(request(
                core,
                conns[0],
                Frame::StageNoAck {
                    arrivals: vec![(keys[0], 1.0)],
                }
            )
            .is_empty());
            let reply = reply(core, conns[1], tick(10, vec![(migrated, 4.0)]));
            assert!(matches!(reply, Frame::TickOk { tick: 2, .. }), "{reply:?}");
        }
        // Both admit the same next key and revoke the migrated session;
        // the retired key's metrics stay.
        for (core, conn) in [(&mut original, 2), (&mut restored, 7)] {
            let join = Frame::Join {
                id: 11,
                tenant: "initech".into(),
            };
            let joined = reply(core, conn, join);
            assert!(
                matches!(joined, Frame::Joined { key, .. } if key == migrated + 1),
                "{joined:?}"
            );
            let revoked = reply(
                core,
                conn,
                Frame::LeaseRevoke {
                    id: 12,
                    key: migrated,
                },
            );
            assert!(matches!(revoked, Frame::LeaseRevoked { .. }), "{revoked:?}");
        }
        assert_eq!(
            original.plane.snapshot().unwrap().invariant_view(),
            restored.plane.snapshot().unwrap().invariant_view()
        );
        // Neither a restored gateway nor one with a session takes an
        // image, and nothing changed by the refusal.
        for core in [&mut restored, &mut original] {
            let again = Frame::Restore {
                id: 13,
                bytes: image.clone(),
            };
            let Frame::Error { code, message, .. } = reply(core, 3, again) else {
                panic!("refused")
            };
            assert_eq!(code, ErrorCode::Ctrl);
            assert!(message.contains("image.fresh"), "{message}");
        }
        let mut fresh = core();
        let foreign = Frame::Restore {
            id: 14,
            bytes: image[..image.len() - 1].to_vec(),
        };
        let Frame::Error { message, .. } = reply(&mut fresh, 1, foreign) else {
            panic!("refused")
        };
        assert!(message.contains("process image refused"), "{message}");
        assert_eq!(fresh.plane.ticks(), 0);
        assert!(fresh.slots.iter().all(|&slot| slot == 0));
    }

    /// `image` with the first written cell of its one frame's
    /// `total_arrived` column overwritten by `bad`, in place.
    fn poisoned(image: &[u8], bad: f64) -> Vec<u8> {
        const NAME: &str = "total_arrived";
        let frame = image_frames(image)[0];
        let columns = frame_columns(frame);
        let column = columns.iter().find(|c| c.name == NAME).unwrap();
        // A sparse body leads with its bitmap, one bit per cell.
        let bitmap = if column.sparse {
            column.count.div_ceil(8)
        } else {
            0
        };
        let cell = frame_column(frame, NAME).as_ptr() as usize - image.as_ptr() as usize + bitmap;
        let mut out = image.to_vec();
        match column.width {
            4 => out[cell..cell + 4].copy_from_slice(&(bad as f32).to_le_bytes()),
            _ => out[cell..cell + 8].copy_from_slice(&bad.to_le_bytes()),
        }
        out
    }

    /// A restore passes its frames through the one frame validator: a
    /// session total of NaN, −5 or ∞ in the image is refused typed,
    /// naming the column, and the gateway stays fresh.
    #[test]
    fn an_image_with_a_cell_out_of_its_domain_is_refused_typed() {
        let service = ServiceConfig::builder(256.0)
            .exec(ExecMode::Inline)
            .build()
            .expect("valid config");
        let core = || ServiceCore::new(service.clone(), Arc::new(WireStats::new()));
        let mut original = core();
        let join = Frame::Join {
            id: 1,
            tenant: "acme".into(),
        };
        let Frame::Joined { key, .. } = reply(&mut original, 1, join) else {
            panic!("join")
        };
        let tick = Frame::TickSync {
            id: 2,
            arrivals: vec![(key, 3.0)],
            min_staged: 0,
        };
        assert!(matches!(
            reply(&mut original, 1, tick),
            Frame::TickOk { .. }
        ));
        let Frame::ImageOk { bytes: image, .. } = reply(&mut original, 1, Frame::Image { id: 3 })
        else {
            panic!("image")
        };
        for bad in [f64::NAN, -5.0, f64::INFINITY] {
            let mut fresh = core();
            let restore = Frame::Restore {
                id: 4,
                bytes: poisoned(&image, bad),
            };
            let Frame::Error { code, message, .. } = reply(&mut fresh, 1, restore) else {
                panic!("refused")
            };
            assert_eq!(code, ErrorCode::Ctrl);
            assert!(
                message.contains("columnar.total_arrived"),
                "{bad}: {message}"
            );
            assert_eq!(fresh.plane.ticks(), 0);
            assert!(fresh.slots.iter().all(|&slot| slot == 0));
            let restore = Frame::Restore {
                id: 5,
                bytes: image.clone(),
            };
            assert!(matches!(
                reply(&mut fresh, 1, restore),
                Frame::RestoreOk { .. }
            ));
        }
    }
}
