//! The control plane: session registry, admission, and the supervised
//! sharded executor behind one handle.
//!
//! A [`ControlPlane`] is driven tick-batched: callers admit sessions
//! ([`ControlPlane::admit`] / [`ControlPlane::admit_group`]), feed
//! arrivals with [`ControlPlane::tick`], and read back a
//! [`ServiceSnapshot`] at any point. Under [`ExecMode::Threaded`] each
//! shard is a worker thread fed over a FIFO channel that never blocks the
//! driver: control events travel as sealed journal segments — sent every
//! 64 events to an idle worker, in blocks of 4,096 to a busy one, and by
//! the next tick or read at the latest — and ticks pipeline up to
//! [`ServiceConfig::pipeline_depth`] ahead of their acks, which is the
//! backpressure on the driver; under [`ExecMode::Inline`] the same shard
//! code runs on the calling thread. Sessions are placed on the
//! least-loaded healthy shard (lowest index on ties), a pooled group always
//! lands whole on one shard, and per-session dynamics are independent of
//! placement — so snapshots' placement-invariant parts are *identical*
//! across shard counts and execution modes. Shard supervision and crash
//! recovery live in the `supervisor` child module.

use crate::admission::AdmissionController;
use crate::config::{ExecMode, ServiceConfig};
use crate::journal::TickBatch;
use crate::meter::SessionMetrics;
use crate::metrics::{ServiceSnapshot, ShardHealth, SnapshotCounters};
use crate::obs::CtrlMetrics;
use crate::shard::{
    Collect, Event, ReplayEvent, ShardReport, ShardState, Tenants, WorkerMsg, REPORT_ROWS,
};
use crate::CtrlError;
use cdba_obs::{Registry, TraceEvent, TraceKind, TraceRing};
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

mod image;
mod rows;
mod supervisor;
pub use image::PlaneImage;
pub use rows::{RowCursor, SnapshotRows};
use supervisor::{spawn_worker, LagProbe, Retiring, ShardSup, Worker};

/// Where each live session runs, direct-mapped by key. Session keys are
/// dense monotone counters, so a `Vec` indexed by key replaces a hash map
/// on the tick hot path: the per-arrival lookup is one bounds check and a
/// 4-byte load. A key keeps two such cells and nothing else — its kind
/// and group live in `pooled`, which only pooled keys enter. Cells of
/// departed keys stay allocated (keys are never reused), so the footprint
/// is bounded by the highest key issued.
struct PlacementTable {
    /// The owning shard per key, `u32::MAX` for a key that is not live.
    shard_of: Vec<u32>,
    /// The owning tenant per key, an index into `tenants`; read only
    /// while the key is live.
    tenant_of: Vec<u32>,
    /// The group of each live pooled key; a live key absent here is
    /// dedicated.
    pooled: HashMap<u64, u64>,
    /// Every tenant a session was ever placed for, by id: the `Arc`s
    /// admission handed back, so each name is allocated once.
    tenants: Tenants,
    live: usize,
}

/// `shard_of` sentinel for a key with no live placement.
const NO_SHARD: u32 = u32::MAX;

impl PlacementTable {
    fn new() -> Self {
        PlacementTable {
            shard_of: Vec::new(),
            tenant_of: Vec::new(),
            pooled: HashMap::new(),
            tenants: Tenants::default(),
            live: 0,
        }
    }

    fn len(&self) -> usize {
        self.live
    }

    /// The owning shard of a live key.
    fn shard_of(&self, key: u64) -> Option<usize> {
        match self.shard_of.get(key as usize) {
            Some(&shard) if shard != NO_SHARD => Some(shard as usize),
            _ => None,
        }
    }

    /// Places `key` on `shard` for `tenant`, in `group` if pooled.
    fn insert(&mut self, key: u64, shard: usize, tenant: &Arc<str>, group: Option<u64>) {
        let at = key as usize;
        if self.shard_of.len() <= at {
            self.shard_of.resize(at + 1, NO_SHARD);
            self.tenant_of.resize(at + 1, 0);
        }
        debug_assert_eq!(self.shard_of[at], NO_SHARD, "session key {key} reused");
        self.shard_of[at] = shard as u32;
        self.tenant_of[at] = self.tenants.intern(tenant);
        if let Some(group) = group {
            self.pooled.insert(key, group);
        }
        self.live += 1;
    }

    /// Removes a live key's placement: its shard, its tenant, and its
    /// group if pooled.
    fn remove(&mut self, key: u64) -> Option<(usize, Arc<str>, Option<u64>)> {
        let shard = self.shard_of(key)?;
        self.shard_of[key as usize] = NO_SHARD;
        self.live -= 1;
        let tenant = Arc::clone(self.tenants.name(self.tenant_of[key as usize]));
        Some((shard, tenant, self.pooled.remove(&key)))
    }

    /// Whether a live key is a pooled-group member.
    fn is_pooled(&self, key: u64) -> bool {
        self.pooled.contains_key(&key)
    }
}

#[derive(Debug, Clone)]
struct GroupInfo {
    tenant: Arc<str>,
    live: usize,
    envelope: f64,
}

enum Backend {
    Inline(Vec<ShardState>),
    Threaded { workers: Vec<Option<Worker>> },
}

/// The sharded multi-tenant allocation service. See the module docs.
pub struct ControlPlane {
    cfg: ServiceConfig,
    admission: AdmissionController,
    placements: PlacementTable,
    groups: HashMap<u64, GroupInfo>,
    backend: Backend,
    /// Out-of-band worker→driver channel (threaded mode only).
    msgs: Option<(Sender<WorkerMsg>, Receiver<WorkerMsg>)>,
    sups: Vec<ShardSup>,
    /// Handles of superseded workers that had not exited when they were
    /// retired — hung ones, in practice. Joining one at restart time would
    /// block the driver, so it joins those that have finished whenever it
    /// next drains worker messages, and shutdown joins the rest.
    graveyard: Vec<JoinHandle<ShardState>>,
    events_replayed: u64,
    next_key: u64,
    next_group: u64,
    clock: u64,
    /// Per-shard arrival buffers reused across ticks.
    routes: Vec<Vec<(u64, f64)>>,
    /// Per-key stamp of the tick that last listed the key, indexed by
    /// session key; replaces a hash set on the duplicate-arrival check
    /// with one indexed load, and never needs clearing between ticks.
    seen_at: Vec<u64>,
    /// The stamp naming the current tick in `seen_at`.
    seen_stamp: u64,
    /// The shared empty tick encoding, so idle shards tick without a fresh
    /// allocation.
    empty_batch: TickBatch,
    /// Scratch buffer a route is encoded through on its way into its
    /// [`TickBatch`].
    encode_buf: Vec<u8>,
    /// The last assembled snapshot, until the next mutation that can
    /// change one ([`Self::mutated`]).
    snapshot_cache: Option<Arc<ServiceSnapshot>>,
    /// Mutations so far ([`Self::mutated`]): a [`RowCursor`] is valid
    /// only at the count it was made at.
    generation: u64,
    /// Pre-resolved metric handles; `None` until
    /// [`ControlPlane::attach_metrics`]. Every hook is one branch when
    /// unattached.
    obs: Option<CtrlMetrics>,
    /// Structured-event ring; `None` until
    /// [`ControlPlane::attach_trace`].
    trace: Option<Arc<TraceRing>>,
}

impl ControlPlane {
    /// Starts a control plane: shard states are created (and, in threaded
    /// mode, worker threads spawned) immediately. The configured fault
    /// plan, if any, is armed on the targeted shard's initial worker.
    pub fn new(cfg: ServiceConfig) -> Self {
        let mut sups: Vec<ShardSup> = (0..cfg.shards).map(|_| ShardSup::new()).collect();
        let (backend, msgs) = match cfg.exec {
            ExecMode::Inline => (
                Backend::Inline(
                    (0..cfg.shards)
                        .map(|s| ShardState::new(s as u64, &cfg))
                        .collect(),
                ),
                None,
            ),
            ExecMode::Threaded => {
                let (msg_tx, msg_rx) = unbounded();
                let mut workers = Vec::with_capacity(cfg.shards);
                for (s, sup) in sups.iter_mut().enumerate() {
                    let fault = cfg.fault.filter(|plan| plan.shard == s);
                    // A failed spawn degrades like any other shard fault:
                    // the shard starts permanently down instead of
                    // aborting the whole service.
                    let state = ShardState::new(s as u64, &cfg);
                    match spawn_worker(s, sup, state, &cfg, fault, &msg_tx) {
                        Ok(worker) => workers.push(Some(worker)),
                        Err(err) => {
                            sup.healthy = false;
                            sup.last_failure = Some(err.to_string());
                            workers.push(None);
                        }
                    }
                }
                (Backend::Threaded { workers }, Some((msg_tx, msg_rx)))
            }
        };
        let admission = AdmissionController::new(cfg.budget, cfg.default_quota);
        let routes = vec![Vec::new(); cfg.shards];
        ControlPlane {
            cfg,
            admission,
            placements: PlacementTable::new(),
            groups: HashMap::new(),
            backend,
            msgs,
            sups,
            graveyard: Vec::new(),
            events_replayed: 0,
            next_key: 0,
            next_group: 0,
            clock: 0,
            routes,
            seen_at: Vec::new(),
            seen_stamp: 0,
            empty_batch: TickBatch::encode(&[], &mut Vec::new()),
            encode_buf: Vec::new(),
            snapshot_cache: None,
            generation: 0,
            obs: None,
            trace: None,
        }
    }

    /// Resolves this plane's metric series against `registry` and starts
    /// updating them. The hooks live on the driver thread only (the tick
    /// kernel is untouched); snapshot-derived gauges (signalling cost,
    /// change count, max delay) refresh whenever a snapshot is assembled.
    pub fn attach_metrics(&mut self, registry: &Registry) {
        let metrics = CtrlMetrics::register(registry, self.cfg.shards);
        let probes: Vec<(Arc<LagProbe>, cdba_obs::Gauge, cdba_obs::Gauge)> = self
            .sups
            .iter()
            .zip(metrics.shard_lag.iter().zip(&metrics.shard_journal_bytes))
            .map(|(sup, (lag, journal))| (Arc::clone(&sup.probe), lag.clone(), journal.clone()))
            .collect();
        registry.register_collector(move || {
            for (probe, lag, journal) in &probes {
                lag.set(probe.lag() as f64);
                journal.set(probe.journal_bytes.load(Ordering::Relaxed) as f64);
            }
        });
        self.obs = Some(metrics);
        self.sync_membership_gauges();
    }

    /// Starts pushing structured control-plane events (admissions,
    /// restarts, checkpoints) into `ring`.
    pub fn attach_trace(&mut self, ring: Arc<TraceRing>) {
        self.trace = Some(ring);
    }

    /// Refreshes the membership-scoped gauges: live totals, per-shard
    /// placement, slab key-space size, and uncommitted budget. Called on
    /// every membership mutation — churn-rate, not tick-rate.
    fn sync_membership_gauges(&self) {
        let Some(m) = &self.obs else { return };
        m.live_sessions.set(self.placements.len() as f64);
        m.slab_slots.set(self.next_key as f64);
        m.available_budget.set(self.admission.available());
        for (shard, sup) in self.sups.iter().enumerate() {
            if let Some(gauge) = m.shard_sessions.get(shard) {
                gauge.set(sup.live as f64);
            }
        }
    }

    /// Pushes one trace event if a ring is attached.
    fn trace_push(&self, event: TraceEvent) {
        if let Some(ring) = &self.trace {
            ring.push(event);
        }
    }

    /// The configuration the service runs under.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Ticks executed so far.
    pub fn ticks(&self) -> u64 {
        self.clock
    }

    /// Live sessions (admitted and not yet left).
    pub fn live_sessions(&self) -> usize {
        self.placements.len()
    }

    /// Budget still uncommitted by admission control.
    pub fn available_budget(&self) -> f64 {
        self.admission.available()
    }

    /// Shard-worker restarts performed so far.
    pub fn restarts(&self) -> u64 {
        self.sups.iter().map(|s| s.restarts).sum()
    }

    /// Journal events replayed into restarted shards so far.
    pub fn events_replayed(&self) -> u64 {
        self.events_replayed
    }

    fn down_error(&self, shard: usize) -> CtrlError {
        CtrlError::ShardDown {
            shard,
            reason: self.sups[shard]
                .last_failure
                .clone()
                .unwrap_or_else(|| "shard is down".to_string()),
        }
    }

    /// The least-loaded healthy shard (lowest index on ties), or `None`
    /// when every shard is down.
    fn place(&self) -> Option<usize> {
        (0..self.cfg.shards)
            .filter(|&s| self.sups[s].healthy)
            .min_by_key(|&s| (self.sups[s].live, s))
    }

    /// Passes a join through admission control. The grant comes back as
    /// the tenant's interned name — the one `Arc` the placement table,
    /// the journal entry and the shard's tenant table all share.
    fn grant(&mut self, tenant: &str, envelope: f64) -> Result<Arc<str>, CtrlError> {
        self.admission.grant(tenant, envelope).map_err(|refused| {
            if let Some(m) = &self.obs {
                m.rejected.inc();
            }
            CtrlError::Admission(refused)
        })
    }

    /// Delivers a granted join to the least-loaded healthy shard and
    /// returns that shard; the grant is rolled back if no shard takes it.
    fn place_join(
        &mut self,
        tenant: &str,
        envelope: f64,
        join: ReplayEvent,
    ) -> Result<usize, CtrlError> {
        let placed = match self.place() {
            Some(shard) => self.dispatch(shard, join).map(|()| shard),
            None => Err(CtrlError::ShardDown {
                shard: 0,
                reason: "no healthy shard to place the session on".into(),
            }),
        };
        if placed.is_err() {
            self.admission.rollback(tenant, envelope);
        }
        placed
    }

    /// Admits a dedicated session for `tenant`, running the single-session
    /// algorithm under the configured `(B_A, D_O, U_O, W)`. The admission
    /// envelope is `B_A`. If the join cannot be delivered to any shard,
    /// the admission commit is rolled back — a failed join never holds
    /// budget and never counts as admitted.
    ///
    /// # Errors
    ///
    /// [`CtrlError::Admission`] when the budget or the tenant quota cannot
    /// cover the envelope; [`CtrlError::ShardDown`] when no shard could
    /// take the session.
    pub fn admit(&mut self, tenant: &str) -> Result<u64, CtrlError> {
        self.mutated();
        let envelope = self.cfg.dedicated_envelope();
        let tenant_shared = self.grant(tenant, envelope)?;
        let key = self.next_key;
        let join = ReplayEvent::JoinDedicated {
            key,
            tenant: tenant_shared.clone(),
        };
        let shard = self.place_join(tenant, envelope, join)?;
        self.next_key += 1;
        self.placements.insert(key, shard, &tenant_shared, None);
        self.sups[shard].live += 1;
        if let Some(m) = &self.obs {
            m.admitted.inc();
            self.sync_membership_gauges();
        }
        if self.trace.is_some() {
            self.trace_push(
                TraceEvent::at(self.clock, TraceKind::Admit)
                    .shard(shard as u32)
                    .session(key),
            );
        }
        Ok(key)
    }

    /// Admits a pooled group of `size ≥ 2` sessions for `tenant`, running
    /// the phased multi-session algorithm over one shared [`SessionPool`].
    /// The whole group lands on one shard; the admission envelope is the
    /// phased bound `4·B_O`, charged once for the group and rolled back if
    /// the join cannot be delivered.
    ///
    /// [`SessionPool`]: cdba_core::multi::pool::SessionPool
    ///
    /// # Errors
    ///
    /// [`CtrlError::InvalidService`] for `size < 2`, otherwise as
    /// [`ControlPlane::admit`].
    pub fn admit_group(&mut self, tenant: &str, size: usize) -> Result<Vec<u64>, CtrlError> {
        if size < 2 {
            return Err(CtrlError::InvalidService(format!(
                "pooled groups need at least 2 sessions, got {size}"
            )));
        }
        self.mutated();
        let envelope = self.cfg.group_envelope();
        let tenant_shared = self.grant(tenant, envelope)?;
        let group = self.next_group;
        let members: Arc<[u64]> = (0..size as u64).map(|i| self.next_key + i).collect();
        let join = ReplayEvent::JoinGroup {
            group,
            tenant: tenant_shared.clone(),
            members: members.clone(),
        };
        let shard = self.place_join(tenant, envelope, join)?;
        self.next_group += 1;
        self.next_key += size as u64;
        for &key in members.iter() {
            self.placements
                .insert(key, shard, &tenant_shared, Some(group));
        }
        self.groups.insert(
            group,
            GroupInfo {
                tenant: tenant_shared,
                live: size,
                envelope,
            },
        );
        self.sups[shard].live += size;
        if let Some(m) = &self.obs {
            m.admitted.inc();
            self.sync_membership_gauges();
        }
        if self.trace.is_some() {
            self.trace_push(
                TraceEvent::at(self.clock, TraceKind::AdmitGroup)
                    .shard(shard as u32)
                    .session(members[0])
                    .detail(format!("{size} members")),
            );
        }
        Ok(members.to_vec())
    }

    /// Begins draining a session out. Its committed envelope is released
    /// once the leave is delivered (a pooled group's only once its last
    /// member leaves); the executor retires the session once its backlog
    /// drains.
    ///
    /// # Errors
    ///
    /// [`CtrlError::UnknownSession`] if the key is not live;
    /// [`CtrlError::ShardDown`] if the session's shard is permanently down
    /// (the session then stays registered and keeps its envelope).
    pub fn leave(&mut self, key: u64) -> Result<(), CtrlError> {
        self.mutated();
        let shard = self
            .placements
            .shard_of(key)
            .ok_or(CtrlError::UnknownSession(key))?;
        self.dispatch(shard, ReplayEvent::Leave { key })?;
        let (_, tenant, group) = self.placements.remove(key).expect("checked above");
        self.sups[shard].live -= 1;
        match group {
            None => {
                self.admission
                    .release(&tenant, self.cfg.dedicated_envelope());
            }
            Some(group) => {
                if let Some(info) = self.groups.get_mut(&group) {
                    info.live -= 1;
                    if info.live == 0 {
                        let info = self.groups.remove(&group).expect("present");
                        self.admission.release(&info.tenant, info.envelope);
                    }
                }
            }
        }
        if let Some(m) = &self.obs {
            m.leaves.inc();
            self.sync_membership_gauges();
        }
        if self.trace.is_some() {
            self.trace_push(
                TraceEvent::at(self.clock, TraceKind::Leave)
                    .shard(shard as u32)
                    .session(key),
            );
        }
        Ok(())
    }

    /// Exports one *dedicated* session as a standalone migration blob and
    /// removes it from this service. The export quiesces the session —
    /// in threaded mode the capture reply arrives only after every
    /// previously dispatched event was applied (the queue is FIFO) — then
    /// writes its row bitwise as a one-row columnar frame, forgets it
    /// *without* retiring its metrics (they travel inside the blob), and
    /// releases its admission envelope. Feeding the blob to
    /// [`ControlPlane::import_session`] on another service resumes the
    /// session bitwise at its next tick.
    ///
    /// # Errors
    ///
    /// [`CtrlError::UnknownSession`] if the key is not live;
    /// [`CtrlError::InvalidService`] for pooled members;
    /// [`CtrlError::ShardDown`] if the session's shard is down or fails
    /// during the export (the session then stays registered and keeps its
    /// envelope).
    pub fn export_session(&mut self, key: u64) -> Result<Vec<u8>, CtrlError> {
        self.mutated();
        let shard = self
            .placements
            .shard_of(key)
            .ok_or(CtrlError::UnknownSession(key))?;
        if self.placements.is_pooled(key) {
            return Err(CtrlError::InvalidService(format!(
                "session {key} is pooled; only dedicated sessions can migrate"
            )));
        }
        let Some(blob) = self.capture_session(shard, key)? else {
            // The placement table says dedicated-and-live, so the shard
            // must know the key; a miss means the shard lost state.
            return Err(CtrlError::ShardDown {
                shard,
                reason: format!("shard does not know session {key}"),
            });
        };
        self.dispatch(shard, ReplayEvent::Forget { key })?;
        let (_, tenant, _) = self.placements.remove(key).expect("checked above");
        self.sups[shard].live -= 1;
        self.admission
            .release(&tenant, self.cfg.dedicated_envelope());
        self.sync_membership_gauges();
        if self.trace.is_some() {
            self.trace_push(
                TraceEvent::at(self.clock, TraceKind::Migration)
                    .shard(shard as u32)
                    .session(key)
                    .detail("exported"),
            );
        }
        Ok(blob)
    }

    /// Captures `key`'s lease from its shard. Read-only (like the
    /// snapshot path): not journaled, and the reply synchronizes the
    /// shard. A shard that goes silent is restarted and retried once,
    /// exactly like [`ControlPlane::collect_sessions`]; a second miss marks
    /// it permanently down.
    fn capture_session(&mut self, shard: usize, key: u64) -> Result<Option<Vec<u8>>, CtrlError> {
        if let Backend::Inline(states) = &mut self.backend {
            let sink = &mut crate::codec::columnar::ColumnSink::default();
            return Ok(states[shard].lease(key, sink));
        }
        for round in 0..2u32 {
            self.flush(shard, true)?;
            let epoch = self.sups[shard].epoch;
            let (reply, rx) = bounded(1);
            let sent = {
                let Backend::Threaded { workers } = &self.backend else {
                    unreachable!("inline handled above")
                };
                let worker = workers[shard].as_ref().expect("healthy shard has a worker");
                worker.tx.send(Event::ExportSession { key, reply })
            };
            let (how, failure) = match sent {
                Ok(()) => loop {
                    let remaining = self.patience(shard, Instant::now());
                    match rx.recv_timeout(remaining) {
                        Ok(cp) => {
                            // The reply proves every previously dispatched
                            // event was applied (the queue is FIFO).
                            self.sups[shard].inflight = 0;
                            return Ok(cp);
                        }
                        // Look again: a backlog ahead of the request may
                        // be shrinking.
                        Err(RecvTimeoutError::Timeout) if !remaining.is_zero() => {}
                        Err(_) => {
                            break (
                                Retiring::Silent,
                                "session export stalled past the shard timeout",
                            )
                        }
                    }
                },
                Err(_) => (
                    Retiring::Exiting,
                    "worker terminated without a failure report",
                ),
            };
            self.drain_worker_msgs();
            if self.sups[shard].epoch == epoch {
                if round == 0 {
                    let _ = self.recover(shard, how, failure.into());
                } else {
                    self.mutated();
                    self.retire_worker(shard, Retiring::Silent);
                    let sup = &mut self.sups[shard];
                    sup.healthy = false;
                    sup.inflight = 0;
                    sup.last_failure = Some("session export failed twice despite recovery".into());
                }
            }
        }
        Err(self.down_error(shard))
    }

    /// Admits a migrated-in dedicated session from a blob produced by
    /// [`ControlPlane::export_session`], under a fresh key (returned).
    /// The session passes admission control like any join — its tenant is
    /// charged the dedicated envelope here, mirroring the release on
    /// export — and resumes bitwise: meter totals, allocator state, and
    /// the draining flag all carry over.
    ///
    /// # Errors
    ///
    /// [`CtrlError::InvalidCheckpoint`] for a frame that is truncated, of
    /// another frame version (`columnar.version`), not a one-session
    /// dedicated slice (`columnar.migration`), or refused by the frame
    /// validator every checkpoint and image passes (an out-of-domain
    /// value, an impossible row, another configuration);
    /// [`CtrlError::Admission`] when the budget
    /// or tenant quota cannot cover the envelope; [`CtrlError::ShardDown`]
    /// when no shard could take the session. Admission is rolled back on
    /// a failed delivery, exactly like [`ControlPlane::admit`].
    pub fn import_session(&mut self, blob: &[u8]) -> Result<u64, CtrlError> {
        // Exporters emit one-session columnar frames, and the same binary
        // reads what it writes: a blob of any other frame version is
        // refused typed, not translated. Structure is not enough: the
        // validator refuses NaN/negative floats, impossible rows and a
        // session under another configuration before admission.
        let refused = |field| CtrlError::InvalidCheckpoint { field };
        let frame = crate::codec::columnar::parse(blob).map_err(refused)?;
        let tenant = crate::shard::validate_lease(&frame, &self.cfg.single_config(), self.cfg.cost)
            .map_err(refused)?;
        self.mutated();
        let envelope = self.cfg.dedicated_envelope();
        let tenant = self
            .admission
            .grant(tenant, envelope)
            .map_err(CtrlError::Admission)?;
        let key = self.next_key;
        let import = ReplayEvent::Import {
            key,
            tenant: tenant.clone(),
            lease: Arc::from(blob),
        };
        let shard = self.place_join(&tenant, envelope, import)?;
        self.next_key += 1;
        self.placements.insert(key, shard, &tenant, None);
        self.sups[shard].live += 1;
        self.sync_membership_gauges();
        if self.trace.is_some() {
            self.trace_push(
                TraceEvent::at(self.clock, TraceKind::Migration)
                    .shard(shard as u32)
                    .session(key)
                    .detail("imported"),
            );
        }
        Ok(key)
    }

    /// Advances the whole service by one tick. `arrivals` lists the bits
    /// each named session submits this tick (unlisted live sessions submit
    /// zero). Every healthy shard ticks, listed or not, so session clocks
    /// stay in lockstep.
    ///
    /// # Errors
    ///
    /// Validation errors — [`CtrlError::InvalidArrival`] for non-finite or
    /// negative bits, [`CtrlError::UnknownSession`] for a key that is not
    /// live, [`CtrlError::DuplicateArrival`] for a key listed twice, and
    /// [`CtrlError::ShardDown`] for an arrival targeting a dead shard —
    /// are raised before *anything* advances. A shard failure during
    /// dispatch that cannot be recovered also returns
    /// [`CtrlError::ShardDown`], but the remaining healthy shards (and the
    /// service clock) still advance.
    pub fn tick(&mut self, arrivals: &[(u64, f64)]) -> Result<(), CtrlError> {
        for route in &mut self.routes {
            route.clear();
        }
        self.seen_stamp += 1;
        let stamp = self.seen_stamp;
        if self.seen_at.len() < self.next_key as usize {
            self.seen_at.resize(self.next_key as usize, 0);
        }
        // With one shard and the inline backend, the validated batch *is*
        // shard 0's route (same entries, same order), so the copy into the
        // route buffer is skipped and the shard ticks straight from the
        // caller's slice.
        let passthrough = self.cfg.shards == 1 && matches!(self.backend, Backend::Inline(_));
        for &(key, bits) in arrivals {
            crate::validate_arrival(key, bits)?;
            let shard = self
                .placements
                .shard_of(key)
                .ok_or(CtrlError::UnknownSession(key))?;
            if !self.sups[shard].healthy {
                return Err(self.down_error(shard));
            }
            // A live placement proves `key < next_key`, so it indexes
            // `seen_at` after the resize above.
            let seen = &mut self.seen_at[key as usize];
            if *seen == stamp {
                return Err(CtrlError::DuplicateArrival(key));
            }
            *seen = stamp;
            if !passthrough {
                self.routes[shard].push((key, bits));
            }
        }
        self.mutated();
        // Inline fallback: run every shard's tick on this thread straight
        // from the reused route buffers — no events, no journal, no
        // allocations on the hot path.
        if let Backend::Inline(states) = &mut self.backend {
            if passthrough {
                states[0].tick(arrivals.iter().copied());
            } else {
                for (state, route) in states.iter_mut().zip(&self.routes) {
                    state.tick(route.iter().copied());
                }
            }
            self.clock += 1;
            if let Some(m) = &self.obs {
                m.ticks.inc();
                m.arrivals.add(arrivals.len() as u64);
            }
            return Ok(());
        }
        // Threaded: fan the batches out to every healthy shard. Sends never
        // block — the pipeline-depth gate in `dispatch_tick` is what keeps
        // the driver from running ahead — so tick N+1's dispatch overlaps
        // tick N's execution on every shard at once, up to the configured
        // depth.
        let mut first_err = None;
        for shard in 0..self.cfg.shards {
            if !self.sups[shard].healthy {
                // Validated above: no arrivals target a dead shard.
                self.routes[shard].clear();
                continue;
            }
            if let Err(err) = self.dispatch_tick(shard) {
                first_err.get_or_insert(err);
            }
        }
        self.clock += 1;
        if let Some(m) = &self.obs {
            m.ticks.inc();
            m.arrivals.add(arrivals.len() as u64);
        }
        match first_err {
            None => Ok(()),
            Some(err) => Err(err),
        }
    }

    /// Dispatches one shard's tick batch: waits for pipeline capacity,
    /// journals, and delivers. The route is encoded once ([`TickBatch`]);
    /// the route and encoding buffers keep their capacity, and the batch
    /// payload is one shared allocation (none at all when empty).
    fn dispatch_tick(&mut self, shard: usize) -> Result<(), CtrlError> {
        self.await_pipeline_slot(shard)?;
        if !self.sups[shard].healthy {
            return Err(self.down_error(shard));
        }
        let batch = if self.routes[shard].is_empty() {
            self.empty_batch.clone()
        } else {
            let batch = TickBatch::encode(&self.routes[shard], &mut self.encode_buf);
            self.routes[shard].clear();
            batch
        };
        let epoch = self.sups[shard].epoch;
        let delivered = self.dispatch(shard, ReplayEvent::Tick { arrivals: batch });
        // A recovery inside `dispatch` replayed the journaled tick on this
        // thread; only a delivery to the same worker incarnation will ack.
        if delivered.is_ok() && self.sups[shard].epoch == epoch {
            self.sups[shard].inflight += 1;
        }
        delivered
    }

    /// The fan-in of [`ControlPlane::collect_sessions`]: hands `take` the
    /// reports of the `pending` `(shard, epoch)` requests as they land,
    /// until every awaited shard sent its [`ShardReport::last`] or every
    /// one still awaited has gone silent ([`ControlPlane::patience`]);
    /// those are what is left in `pending`. A report ahead of the last is
    /// word from its worker, so it restarts that shard's silence clock. A shard that a later shard's flush found failed (its
    /// drain takes in any shard's failure report) is no longer awaited: it
    /// has a new worker, or none, and the old one's reply will not come.
    fn await_reports(
        &mut self,
        rx: &Receiver<ShardReport>,
        pending: &mut Vec<(usize, u64)>,
        mut take: impl FnMut(usize, ShardReport),
    ) {
        loop {
            pending.retain(|&(shard, epoch)| {
                let sup = &self.sups[shard];
                sup.healthy && sup.epoch == epoch
            });
            let now = Instant::now();
            let Some(remaining) = pending
                .iter()
                .map(|&(shard, _)| self.patience(shard, now))
                .max()
            else {
                return;
            };
            if remaining.is_zero() {
                return;
            }
            let report = match rx.recv_timeout(remaining) {
                Ok(report) => report,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return, // every pending worker died
            };
            let Some(at) = pending
                .iter()
                .position(|&(shard, epoch)| shard as u64 == report.shard && epoch == report.epoch)
            else {
                continue; // a superseded worker's stale reply
            };
            let (shard, _) = pending[at];
            if report.last {
                pending.swap_remove(at);
            } else {
                self.sups[shard].moved_at = Instant::now();
            }
            // The reply proves every previously dispatched event was
            // applied (the queue is FIFO).
            self.sups[shard].inflight = 0;
            take(shard, report);
        }
    }

    /// Collects every shard's session metrics. Inline shards report
    /// directly; threaded shards are collected fan-out/fan-in — one
    /// `Collect` is broadcast to every healthy shard, then replies are
    /// gathered off a shared channel as they land, for as long as some
    /// awaited shard is not silent ([`ControlPlane::patience`]). A shard
    /// silent for the shard timeout is restarted and retried once; a
    /// second miss marks it permanently down. Collection therefore never
    /// waits out more than `2 × shard_timeout_ms` of silence and never
    /// errors — lost shards degrade to `health: down`, exactly like the
    /// tick path.
    ///
    /// Returns the metrics and the shards' summed certified-stage count.
    fn collect_sessions(&mut self) -> (Vec<SessionMetrics>, u64) {
        if let Backend::Inline(states) = &self.backend {
            // Sized once for every shard's rows: the table is the one
            // allocation.
            let rows = states.iter().map(|s| s.live_sessions() + s.retired().len());
            let mut sessions = Vec::with_capacity(rows.sum());
            let mut stages = 0;
            for state in states {
                sessions.extend(state.live_rows());
                sessions.extend_from_slice(state.retired());
                stages += state.stages_completed();
            }
            return (sessions, stages);
        }
        // Each shard's rows move into the table a report at a time, and
        // the table grows to exactly the rows every shard announced, so
        // the table is the one place they gather; a lone shard's one
        // report *is* the table. Order is free: assembly sorts by key. A
        // shard whose answer broke off — asked again after a restart, or
        // given up on — has its live rows taken back out; its retired rows
        // only ever come with its last report.
        let shards = self.cfg.shards;
        let per_report = if shards == 1 { usize::MAX } else { REPORT_ROWS };
        let (mut table, mut stages) = (Vec::new(), 0);
        let mut answer: Vec<Option<(u64, usize)>> = vec![None; shards];
        let mut done = vec![false; shards];
        self.collect(Collect::Metrics { per_report }, |shard, mut report| {
            if answer[shard].is_none_or(|(epoch, _)| epoch != report.epoch) {
                if answer[shard].is_some() {
                    table.retain(|m: &SessionMetrics| m.shard != shard as u64);
                }
                answer[shard] = Some((report.epoch, report.rows));
                if table.capacity() == 0 && report.last {
                    table = std::mem::take(&mut report.live);
                }
                let announced: usize = answer.iter().flatten().map(|&(_, rows)| rows).sum();
                table.reserve_exact(announced.saturating_sub(table.len()));
            }
            table.append(&mut report.live);
            if report.last {
                table.extend(report.retired.iter().cloned());
                stages += report.stages_completed;
                done[shard] = true;
            }
        });
        if (0..shards).any(|s| answer[s].is_some() && !done[s]) {
            table.retain(|m| done.get(m.shard as usize).copied().unwrap_or(true));
        }
        (table, stages)
    }

    /// The threaded fan-out/fan-in behind snapshots and images: one
    /// `Collect` for `what` is broadcast to every healthy shard, and
    /// `take` gets each shard's report as it lands, for as long as some
    /// awaited shard is not silent ([`ControlPlane::patience`]). A shard
    /// silent for the shard timeout is restarted and retried once; a
    /// second miss marks it permanently down, and it is the one shard
    /// `take` never hears from.
    fn collect(&mut self, what: Collect, mut take: impl FnMut(usize, ShardReport)) {
        let mut collected = vec![false; self.cfg.shards];
        for round in 0..2 {
            // Fan-out: broadcast Collect to every healthy uncollected
            // shard on one shared reply channel, bounded so that streamed
            // reports wait for the driver instead of piling up.
            let (reply, rx) = bounded(self.cfg.shards);
            let mut pending: Vec<(usize, u64)> = Vec::new();
            for shard in 0..self.cfg.shards {
                // The flush fails exactly when the shard is (now) down.
                if collected[shard] || self.flush(shard, true).is_err() {
                    continue;
                }
                let epoch = self.sups[shard].epoch;
                let sent = {
                    let Backend::Threaded { workers } = &self.backend else {
                        unreachable!("the inline backend is read directly")
                    };
                    let worker = workers[shard].as_ref().expect("healthy shard has a worker");
                    worker.tx.send(Event::Collect {
                        reply: reply.clone(),
                        what,
                    })
                };
                if sent.is_ok() {
                    pending.push((shard, epoch));
                    continue;
                }
                // Disconnected. The worker's failure report, if any, is
                // already in the message channel; draining recovers the
                // shard for the next round.
                self.drain_worker_msgs();
                if self.sups[shard].epoch == epoch {
                    let _ = self.recover(
                        shard,
                        Retiring::Exiting,
                        "worker terminated without a failure report".into(),
                    );
                }
            }
            drop(reply);
            self.await_reports(&rx, &mut pending, |shard, report| {
                collected[shard] |= report.last;
                take(shard, report);
            });
            // Stragglers: restart and retry on the first round; give up on
            // the second — stop burning restarts on a shard that cannot
            // even report.
            for (shard, epoch) in pending {
                self.drain_worker_msgs();
                if !self.sups[shard].healthy || self.sups[shard].epoch != epoch {
                    continue; // the drain already handled a reported failure
                }
                if round == 0 {
                    let _ = self.recover(
                        shard,
                        Retiring::Silent,
                        "collect reply stalled past the shard timeout".into(),
                    );
                } else {
                    self.mutated();
                    self.retire_worker(shard, Retiring::Silent);
                    let sup = &mut self.sups[shard];
                    sup.healthy = false;
                    sup.inflight = 0;
                    sup.last_failure = Some("collect failed twice despite recovery".into());
                }
            }
            // A shard restarted during this round has not reported yet.
            if (0..self.cfg.shards).all(|s| collected[s] || !self.sups[s].healthy) {
                break;
            }
        }
    }

    /// Collects a full metrics snapshot. In threaded mode this
    /// synchronizes with every healthy shard (the reply arrives only after
    /// all previously sent events were applied) via a bounded fan-out/
    /// fan-in; shards already marked down are skipped, and a shard that
    /// stalls past the timeout twice is marked down rather than wedging
    /// the caller — its loss shows up in [`ServiceSnapshot::health`]
    /// rather than as an error.
    ///
    /// The table is built once: a snapshot cached by
    /// [`ControlPlane::snapshot_shared`] is handed over (copied only while
    /// a caller still holds it), and one assembled here is not cached.
    ///
    /// # Errors
    ///
    /// Currently infallible; the `Result` is kept so recovery-related
    /// failure modes can surface without an API break.
    pub fn snapshot(&mut self) -> Result<ServiceSnapshot, CtrlError> {
        let Some(cached) = self.snapshot_cache.take() else {
            return Ok(self.assemble());
        };
        Ok(Arc::try_unwrap(cached).unwrap_or_else(|shared| {
            let copy = ServiceSnapshot::clone(&shared);
            self.snapshot_cache = Some(shared);
            copy
        }))
    }

    /// Called by every operation that can change a snapshot: a cached
    /// snapshot is stale from here on, so it is released now, not at the
    /// next poll, and every [`RowCursor`] made before is spent.
    fn mutated(&mut self) {
        self.snapshot_cache = None;
        self.generation += 1;
    }

    /// Like [`ControlPlane::snapshot`], but returns a shared handle and
    /// caches the assembled snapshot: repeated calls without an
    /// intervening mutation (admit, leave, tick, recovery) are free, and
    /// the first such mutation drops the cache.
    ///
    /// # Errors
    ///
    /// As [`ControlPlane::snapshot`].
    pub fn snapshot_shared(&mut self) -> Result<Arc<ServiceSnapshot>, CtrlError> {
        if let Some(cached) = &self.snapshot_cache {
            return Ok(cached.clone());
        }
        let snapshot = Arc::new(self.assemble());
        // Collection may itself have recovered or downed shards; the
        // assembly observed the result, so it is cached all the same.
        self.snapshot_cache = Some(snapshot.clone());
        Ok(snapshot)
    }

    /// Collects every session's metrics and assembles them into a
    /// snapshot.
    fn assemble(&mut self) -> ServiceSnapshot {
        let (sessions, stages_completed) = self.collect_sessions();
        let snapshot = ServiceSnapshot::assemble(self.counters(), self.health(), sessions);
        self.publish(&snapshot, stages_completed);
        snapshot
    }

    /// The driver-side counters a snapshot carries.
    fn counters(&self) -> SnapshotCounters {
        let (admitted, rejected) = (self.admission.admitted(), self.admission.rejected());
        SnapshotCounters {
            ticks: self.clock,
            shards: self.cfg.shards as u64,
            admitted,
            rejected,
            restarts: self.restarts(),
            events_replayed: self.events_replayed,
        }
    }

    /// Every shard's supervision status, by shard index.
    fn health(&self) -> Vec<ShardHealth> {
        self.sups
            .iter()
            .enumerate()
            .map(|(shard, sup)| ShardHealth {
                shard: shard as u64,
                healthy: sup.healthy,
                restarts: sup.restarts,
                last_failure: sup.last_failure.clone(),
            })
            .collect()
    }

    /// Sets the snapshot-derived gauges from a snapshot's head. The fold
    /// behind it is placement-invariant and bitwise-deterministic, so
    /// these gauges are too — a clean and a faulted run expose the same
    /// values once recovered.
    fn publish(&self, snapshot: &ServiceSnapshot, stages_completed: u64) {
        if let Some(m) = &self.obs {
            m.changes.set(snapshot.global.changes as f64);
            m.stages_completed.set(stages_completed as f64);
            m.signalling_cost.set(snapshot.global.signalling_cost);
            m.bandwidth_cost.set(snapshot.global.bandwidth_cost);
            m.max_delay.set(snapshot.global.max_delay as f64);
            m.snapshot_tick.set(snapshot.ticks as f64);
        }
    }

    /// Stops the executor. Equivalent to dropping, but explicit: worker
    /// threads (including superseded ones) are joined before this returns.
    pub fn shutdown(mut self) {
        self.stop_workers();
    }
}

impl Drop for ControlPlane {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

#[cfg(test)]
mod tests;
