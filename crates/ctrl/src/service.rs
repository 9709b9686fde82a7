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
//! across shard counts and execution modes.
//!
//! # Supervision and crash recovery
//!
//! The driver doubles as the shard supervisor. Each threaded worker runs
//! under `catch_unwind` and reports panics as typed
//! [`ShardFailure`](crate::shard::ShardFailure)s instead of poisoning the
//! service; the driver also treats a worker as failed when it is silent
//! for [`ServiceConfig::shard_timeout_ms`] — events or a reply pending and
//! its watermark of applied events not moving; a backlog that shrinks is
//! slowness, however long. A failed shard is restarted from its last
//! periodic [`ShardCheckpoint`](crate::shard::ShardCheckpoint) (a full
//! frame taken every [`ServiceConfig::checkpoint_every`] ticks; the
//! driver retains only the latest) by replaying the driver's journal of
//! events sent since that checkpoint — the journal is trimmed on every
//! checkpoint receipt, which is what keeps it bounded.
//! Each incarnation of a worker gets a fresh *epoch*; messages stamped
//! with a superseded epoch are discarded, so a hung worker that wakes up
//! after being replaced cannot corrupt anything. Once a shard exhausts
//! [`ServiceConfig::max_restarts`] (or recovery is disabled with
//! `checkpoint_every = 0`), it is marked permanently down and every
//! operation touching it returns [`CtrlError::ShardDown`] — the driver
//! never panics on a dead shard. Restart and replay totals, plus
//! per-shard health, are surfaced in the [`ServiceSnapshot`].

use crate::admission::AdmissionController;
use crate::codec::columnar::KIND_GENESIS;
use crate::config::{ExecMode, ServiceConfig};
use crate::fault::FaultPlan;
use crate::meter::SessionMetrics;
use crate::metrics::{ServiceSnapshot, ShardHealth, SnapshotCounters};
use crate::obs::CtrlMetrics;
use crate::shard::{
    panic_reason, run_worker, Collect, Event, ReplayEvent, Segment, ShardCheckpoint, ShardReport,
    ShardState, Tenants, TickBatch, WorkerCtx, WorkerMsg, CONTROL_BATCH, JOURNAL_BLOCK,
};
use crate::CtrlError;
use cdba_obs::{Registry, TraceEvent, TraceKind, TraceRing};
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

mod image;
mod rows;
pub use image::PlaneImage;
pub use rows::{RowCursor, SnapshotRows};

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

    /// Live dedicated keys in ascending order.
    fn dedicated(&self) -> impl Iterator<Item = u64> + '_ {
        let live = self.shard_of.iter().enumerate();
        live.filter(|&(_, &shard)| shard != NO_SHARD)
            .map(|(key, _)| key as u64)
            .filter(|key| !self.pooled.contains_key(key))
    }
}

#[derive(Debug, Clone)]
struct GroupInfo {
    tenant: Arc<str>,
    live: usize,
    envelope: f64,
}

/// How often a retiring supervisor looks at an exiting worker's handle.
const RECLAIM_POLL: Duration = Duration::from_micros(100);

/// One live worker incarnation of a threaded shard. Joining the handle
/// yields the state the worker ran on.
struct Worker {
    /// Unbounded. With recovery enabled what is queued here is already
    /// held by the journal, so a bound would save nothing and only stall
    /// the driver. With `checkpoint_every = 0` nothing else holds it: the
    /// driver's lead over a slow worker is then memory only the worker
    /// frees — accepted for a configuration that has given up recovery,
    /// and visible as `cdba_ctrl_shard_lag_events`.
    tx: Sender<Event>,
    handle: JoinHandle<ShardState>,
    cancel: Arc<AtomicBool>,
}

/// What a metrics scrape reads a shard's lag and journal size from,
/// without the driver.
struct LagProbe {
    /// Replayable events dispatched to the shard so far.
    dispatched: AtomicU64,
    /// Encoded arrival bytes the journal holds ([`TickBatch::bytes`] over
    /// its ticks): what a restart replays on top of the retained frame.
    journal_bytes: AtomicU64,
    /// The current worker's watermark ([`WorkerCtx::applied`]), swapped at
    /// every spawn rather than shared with a successor: a retired worker
    /// may still finish — and publish — the event it was applying. The one
    /// handle the driver keeps; [`ControlPlane::patience`] reads it too.
    applied: Mutex<Arc<AtomicU64>>,
}

impl LagProbe {
    /// Events dispatched and not yet applied.
    fn lag(&self) -> u64 {
        let applied = self.applied.lock().load(Ordering::Relaxed);
        self.dispatched
            .load(Ordering::Relaxed)
            .saturating_sub(applied)
    }
}

/// What the supervisor knows about a worker it retires, which decides
/// whether the retiree's state is waited for.
#[derive(Clone, Copy, PartialEq)]
enum Retiring {
    /// It reported a failure, its queue disconnected, or the operator
    /// asked: it leaves its loop at the cancel flag or the closed queue,
    /// at the latest after the event it is applying.
    Exiting,
    /// It missed a deadline and may be hung: waiting could block the
    /// driver for as long as the hang lasts.
    Silent,
}

/// The driver's supervision record for one shard.
struct ShardSup {
    /// Incarnation counter; bumped on every restart. Worker messages from
    /// older epochs are discarded.
    epoch: u64,
    /// Cleared when the restart budget is exhausted (or recovery is
    /// impossible); a down shard never comes back.
    healthy: bool,
    /// Restarts performed so far.
    restarts: u64,
    /// Most recent failure reason, if any.
    last_failure: Option<String>,
    /// Replayable events sealed since the last accepted checkpoint, in
    /// dispatch order — the only place one is stored. A segment is sealed
    /// at a tick at the latest, and the worker is sent that same
    /// allocation, so a checkpoint (taken after a tick) always falls on a
    /// segment edge and a trim drops whole segments. Empty with recovery
    /// disabled: a sealed segment then belongs to the worker alone.
    journal: VecDeque<Segment>,
    /// The journal's open end: events dispatched but not yet sealed —
    /// [`CONTROL_BATCH`] at most in front of an idle worker,
    /// [`JOURNAL_BLOCK`] in front of a busy one. [`ControlPlane::flush`]
    /// seals and sends it; a recovery seals it without sending, having
    /// replayed it.
    tail: Vec<ReplayEvent>,
    /// Replayable events covered by the retained frame (i.e. sealed before
    /// `journal[0]`).
    journal_base: u64,
    /// Replayable events sealed so far: each reached the current worker
    /// in a segment, or the state it started from in a replay.
    sealed: u64,
    /// The worker's watermark when the driver last read it, and when it
    /// was last seen to have moved — the silence clock every wait on the
    /// worker runs on.
    seen_applied: u64,
    moved_at: Instant,
    /// The scrape-side view of this shard's lag and journal size.
    probe: Arc<LagProbe>,
    /// The latest accepted checkpoint: one full-population frame that
    /// supersedes every earlier one. Recovery applies it, then replays
    /// the journal. `None` until the first checkpoint is accepted.
    frame: Option<ShardCheckpoint>,
    /// Frames ever accepted — the cursor space checkpoint subscribers
    /// resume from. The retained frame is number `frames_seq - 1`.
    frames_seq: u64,
    /// The buffer of the frame the retained one superseded, once nothing
    /// else holds it, for the worker to write its next frame into. A
    /// steady shard so cycles two frame-sized buffers for its whole life,
    /// however often its worker restarts: freed and taken fresh each
    /// capture, buffers below the allocator's largest mmap threshold stay
    /// resident once freed and pile up, one set per worker arena.
    spare: Arc<Mutex<Option<Vec<u8>>>>,
    /// Live sessions placed on this shard, for least-loaded placement.
    live: usize,
    /// Ticks dispatched to the current worker incarnation but not yet
    /// acknowledged. Bounds how far the tick pipeline runs ahead.
    inflight: u64,
}

impl ShardSup {
    fn new() -> Self {
        ShardSup {
            epoch: 0,
            healthy: true,
            restarts: 0,
            last_failure: None,
            journal: VecDeque::new(),
            tail: Vec::new(),
            journal_base: 0,
            sealed: 0,
            seen_applied: 0,
            moved_at: Instant::now(),
            probe: Arc::new(LagProbe {
                dispatched: AtomicU64::new(0),
                journal_bytes: AtomicU64::new(0),
                applied: Mutex::default(),
            }),
            frame: None,
            frames_seq: 0,
            spare: Arc::default(),
            live: 0,
            inflight: 0,
        }
    }

    /// Makes `cp` the retained frame; the one it supersedes becomes the
    /// spare unless a subscriber still holds it. The spare holds at least
    /// the retained frame's length, the likeliest length of the next, so
    /// the two buffers follow the frame's size as it grows; it gives back
    /// what it holds beyond an eighth more, so they follow it down too,
    /// without moving on the small swings between frames.
    fn retain(&mut self, cp: ShardCheckpoint) {
        let len = cp.bytes.len();
        if let Some(old) = self.frame.replace(cp) {
            if let Ok(mut bytes) = Arc::try_unwrap(old.bytes) {
                bytes.clear();
                if bytes.capacity() > len + len / 8 {
                    bytes.shrink_to(len);
                }
                bytes.reserve_exact(len);
                *self.spare.lock() = Some(bytes);
            }
        }
        self.frames_seq += 1;
    }

    /// Seals the open tail into a segment and returns it for sending;
    /// `None` when nothing is open. With `keep` (recovery enabled) the
    /// segment also joins the journal until a checkpoint covers it.
    fn seal(&mut self, keep: bool) -> Option<Segment> {
        if self.tail.is_empty() {
            return None;
        }
        let segment = Arc::new(std::mem::take(&mut self.tail));
        self.sealed += segment.len() as u64;
        if keep {
            self.probe
                .journal_bytes
                .fetch_add(arrival_bytes(&segment), Ordering::Relaxed);
            self.journal.push_back(Arc::clone(&segment));
        } else {
            self.journal_base = self.sealed;
        }
        Some(segment)
    }
}

/// Encoded arrival bytes a journal segment's ticks hold.
fn arrival_bytes(segment: &[ReplayEvent]) -> u64 {
    segment
        .iter()
        .map(|ev| match ev {
            ReplayEvent::Tick { arrivals } => arrivals.bytes() as u64,
            _ => 0,
        })
        .sum()
}

enum Backend {
    Inline(Vec<ShardState>),
    Threaded { workers: Vec<Option<Worker>> },
}

/// Spawns the worker of `sup`'s current epoch on `state`, which holds
/// everything sealed so far, and starts its supervision record: the
/// silence clock and the scrape-side watermark.
fn spawn_worker(
    shard: usize,
    sup: &mut ShardSup,
    state: ShardState,
    cfg: &ServiceConfig,
    fault: Option<FaultPlan>,
    msgs: &Sender<WorkerMsg>,
) -> Result<Worker, CtrlError> {
    let (tx, rx) = unbounded();
    let cancel = Arc::new(AtomicBool::new(false));
    let applied = Arc::new(AtomicU64::new(sup.sealed));
    let epoch = sup.epoch;
    let ctx = WorkerCtx {
        epoch,
        cancel: cancel.clone(),
        msgs: msgs.clone(),
        checkpoint_every: cfg.checkpoint_every,
        spare: Arc::clone(&sup.spare),
        events_base: sup.sealed,
        applied: applied.clone(),
        fault,
    };
    let handle = std::thread::Builder::new()
        .name(format!("cdba-shard-{shard}-e{epoch}"))
        .spawn(move || run_worker(state, rx, ctx))
        .map_err(|e| CtrlError::Spawn {
            shard,
            reason: e.to_string(),
        })?;
    sup.seen_applied = sup.sealed;
    sup.moved_at = Instant::now();
    *sup.probe.applied.lock() = applied;
    Ok(Worker { tx, handle, cancel })
}

/// A resume cursor plus the retained columnar checkpoint frames past a
/// subscriber's cursor, each frame as `(kind, bytes)` — the return shape
/// of [`ControlPlane::checkpoint_frames_since`].
pub type CheckpointFrames = (u64, Vec<(u8, Arc<Vec<u8>>)>);

/// The sharded multi-tenant allocation service. See the module docs.
pub struct ControlPlane {
    cfg: ServiceConfig,
    admission: Mutex<AdmissionController>,
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
        let admission = Mutex::new(AdmissionController::new(cfg.budget, cfg.default_quota));
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
        m.available_budget.set(self.admission.lock().available());
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
        self.admission.lock().available()
    }

    /// Overrides one tenant's quota for future admissions.
    pub fn set_quota(&self, tenant: &str, quota: f64) {
        self.admission.lock().set_quota(tenant, quota);
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

    /// Applies all pending out-of-band worker messages: accepts
    /// current-epoch checkpoints (trimming the journal they cover), counts
    /// tick acks against the pipeline, and recovers shards that reported a
    /// failure. Recovery errors are not propagated here — the failed shard
    /// is marked down and the caller's own health check surfaces it.
    fn drain_worker_msgs(&mut self) {
        if !self.graveyard.is_empty() {
            self.reap_parked();
        }
        loop {
            let msg = match &self.msgs {
                Some((_, rx)) => match rx.try_recv() {
                    Ok(msg) => msg,
                    Err(_) => return,
                },
                None => return,
            };
            self.apply_worker_msg(msg);
        }
    }

    /// Applies one out-of-band worker message. Messages stamped with a
    /// superseded epoch are discarded.
    fn apply_worker_msg(&mut self, msg: WorkerMsg) {
        match msg {
            WorkerMsg::Checkpoint(cp) => self.accept_checkpoint(cp),
            WorkerMsg::TickAck { shard, epoch } => {
                let sup = &mut self.sups[shard as usize];
                if sup.epoch == epoch {
                    sup.inflight = sup.inflight.saturating_sub(1);
                }
            }
            WorkerMsg::Failure(failure) => {
                let shard = failure.shard as usize;
                if self.sups[shard].epoch == failure.epoch {
                    let _ = self.recover(shard, Retiring::Exiting, failure.reason);
                }
            }
        }
    }

    /// Blocks until `shard` has pipeline capacity for one more tick: fewer
    /// than [`ServiceConfig::pipeline_depth`] dispatched-but-unacked ticks.
    /// Worker messages that arrive while waiting (acks, checkpoints,
    /// failures) are applied as they land, so a failure surfaces here as a
    /// recovery rather than a stall. A shard that is silent for the shard
    /// timeout ([`ControlPlane::patience`]) is restarted.
    fn await_pipeline_slot(&mut self, shard: usize) -> Result<(), CtrlError> {
        let depth = u64::from(self.cfg.pipeline_depth);
        while self.sups[shard].healthy && self.sups[shard].inflight >= depth {
            let remaining = self.patience(shard, Instant::now());
            if remaining.is_zero() {
                return self.recover(
                    shard,
                    Retiring::Silent,
                    "tick pipeline stalled past the shard timeout".into(),
                );
            }
            let msg = match &self.msgs {
                Some((_, rx)) => match rx.recv_timeout(remaining) {
                    Ok(msg) => msg,
                    Err(_) => continue,
                },
                None => return Ok(()),
            };
            self.apply_worker_msg(msg);
        }
        Ok(())
    }

    fn accept_checkpoint(&mut self, cp: ShardCheckpoint) {
        let shard = cp.shard as usize;
        let payload_bytes = cp.bytes.len() as u64;
        let sup = &mut self.sups[shard];
        if sup.epoch != cp.epoch {
            return; // stale: a superseded worker's parting checkpoint
        }
        // Whole segments only, each freed as it goes: what an admission
        // burst leaves behind is the deque's ring of pointers, not events.
        while let Some(segment) = sup.journal.front() {
            let edge = sup.journal_base + segment.len() as u64;
            if edge > cp.events_applied {
                break;
            }
            sup.journal_base = edge;
            sup.probe
                .journal_bytes
                .fetch_sub(arrival_bytes(segment), Ordering::Relaxed);
            sup.journal.pop_front();
        }
        debug_assert_eq!(
            sup.journal_base, cp.events_applied,
            "a checkpoint follows a tick, and a tick ends its segment"
        );
        let sessions = cp.sessions;
        sup.retain(cp);
        if let Some(m) = &self.obs {
            if let Some(counter) = m.shard_checkpoints.get(shard) {
                counter.inc();
            }
            if let Some(counter) = m.shard_checkpoint_bytes.get(shard) {
                counter.add(payload_bytes);
            }
            if let Some(gauge) = m.shard_checkpoint_retained.get(shard) {
                gauge.set(payload_bytes as f64);
            }
            m.checkpoint_sessions.add(sessions);
        }
        if self.trace.is_some() {
            self.trace_push(
                TraceEvent::at(self.clock, TraceKind::Checkpoint)
                    .shard(shard as u32)
                    .detail(format!("{payload_bytes} bytes")),
            );
        }
    }

    /// Joins the parked workers that have exited by now, which also frees
    /// the state each handed back.
    fn reap_parked(&mut self) {
        let (exited, parked) = std::mem::take(&mut self.graveyard)
            .into_iter()
            .partition(JoinHandle::is_finished);
        self.graveyard = parked;
        for handle in exited {
            let _ = handle.join();
        }
        if let Some(m) = &self.obs {
            m.parked_workers.set(self.graveyard.len() as f64);
        }
    }

    /// Cancels and retires `shard`'s current worker, if any, and hands back
    /// the state it ran on when the worker has exited. An
    /// [`Retiring::Exiting`] worker is waited for, bounded by the shard
    /// timeout; a [`Retiring::Silent`] one is not — a hung worker only
    /// observes the cancel flag once its stall ends. Whatever has not
    /// exited is parked in the graveyard.
    fn retire_worker(&mut self, shard: usize, how: Retiring) -> Option<ShardState> {
        let mut retiree = None;
        if let Backend::Threaded { workers } = &mut self.backend {
            if let Some(old) = workers[shard].take() {
                old.cancel.store(true, Ordering::Release);
                drop(old.tx);
                if how == Retiring::Exiting {
                    let deadline =
                        Instant::now() + Duration::from_millis(self.cfg.shard_timeout_ms);
                    while !old.handle.is_finished() && Instant::now() < deadline {
                        std::thread::sleep(RECLAIM_POLL);
                    }
                }
                if old.handle.is_finished() {
                    // A worker that died outside its panic guard has no
                    // state to give; the restore then starts fresh.
                    retiree = old.handle.join().ok();
                } else {
                    self.graveyard.push(old.handle);
                }
            }
        }
        self.reap_parked();
        retiree
    }

    /// Restarts `shard` after a failure: retire the worker, reclaim its
    /// state when it has exited, and restore *into* that state — emptied
    /// first ([`ShardState::recycle`]; a fresh one when there is nothing to
    /// reclaim), then the retained checkpoint frame, then the journal
    /// suffix — so a restart allocates nothing that scales with the
    /// population. A fresh-epoch worker takes the result. Restarted
    /// workers never re-arm the injected fault.
    ///
    /// # Errors
    ///
    /// [`CtrlError::ShardDown`] when recovery is disabled
    /// (`checkpoint_every = 0`), the restart budget is exhausted, or the
    /// replay itself panics (a deterministic poison event); the shard is
    /// marked permanently down in all three cases.
    fn recover(&mut self, shard: usize, how: Retiring, reason: String) -> Result<(), CtrlError> {
        self.mutated();
        // Everything the driver is blocked for: reclaim, apply, replay.
        let restore_started = Instant::now();
        let retiree = self.retire_worker(shard, how);
        let max_restarts = u64::from(self.cfg.max_restarts);
        let sup = &mut self.sups[shard];
        sup.last_failure = Some(reason.clone());
        // The replay below applies every journaled event on this thread,
        // the open tail included — sealed here, and never sent; nothing
        // dispatched to the old worker is outstanding any more.
        sup.inflight = 0;
        sup.seal(self.cfg.checkpoint_every > 0);
        if self.cfg.checkpoint_every == 0 {
            sup.healthy = false;
            return Err(CtrlError::ShardDown {
                shard,
                reason: format!("{reason} (recovery disabled: checkpoint_every = 0)"),
            });
        }
        if sup.restarts >= max_restarts {
            sup.healthy = false;
            return Err(CtrlError::ShardDown {
                shard,
                reason: format!("{reason} (restart budget {max_restarts} exhausted)"),
            });
        }
        sup.restarts += 1;
        sup.epoch += 1;
        let replayed = sup.sealed - sup.journal_base;
        let frame = sup.frame.as_ref().map(|cp| cp.bytes.as_slice());
        let journal = sup.journal.iter().flat_map(|segment| segment.iter());
        let cfg = &self.cfg;
        // The replay runs on the driver thread; guard it so a poison event
        // that deterministically panics the shard cannot take the driver
        // down with it. The guard also covers emptying the retiree and
        // decoding the retained frame: a malformed payload downs the
        // shard, not the driver.
        let rebuilt = catch_unwind(AssertUnwindSafe(|| {
            retiree
                .map(ShardState::recycle)
                .unwrap_or_else(|| ShardState::new(shard as u64, cfg))
                .rebuild(frame, journal)
        }));
        let restore_seconds = restore_started.elapsed().as_secs_f64();
        let state = match rebuilt {
            Ok(state) => state,
            Err(payload) => {
                let why = format!("recovery replay panicked: {}", panic_reason(payload));
                let sup = &mut self.sups[shard];
                sup.healthy = false;
                sup.last_failure = Some(why.clone());
                return Err(CtrlError::ShardDown { shard, reason: why });
            }
        };
        self.events_replayed += replayed;
        let msg_tx = self
            .msgs
            .as_ref()
            .expect("threaded mode has a message channel")
            .0
            .clone();
        let sup = &mut self.sups[shard];
        let worker = match spawn_worker(shard, sup, state, &self.cfg, None, &msg_tx) {
            Ok(worker) => worker,
            Err(err) => {
                let sup = &mut self.sups[shard];
                sup.healthy = false;
                sup.last_failure = Some(err.to_string());
                return Err(err);
            }
        };
        let Backend::Threaded { workers } = &mut self.backend else {
            unreachable!("recover is only reachable in threaded mode")
        };
        workers[shard] = Some(worker);
        if let Some(m) = &self.obs {
            if let Some(counter) = m.shard_restarts.get(shard) {
                counter.inc();
            }
            m.events_replayed.add(replayed);
            m.restore_seconds.observe(restore_seconds);
        }
        if self.trace.is_some() {
            self.trace_push(
                TraceEvent::at(self.clock, TraceKind::ShardRestart)
                    .shard(shard as u32)
                    .detail(reason),
            );
        }
        Ok(())
    }

    /// Forces `shard` through the full recovery path — retire its worker,
    /// rebuild from the retained checkpoint frame plus a journal replay,
    /// spawn a fresh epoch — exactly as if the worker had failed. An
    /// operator uses this to rotate a worker in place (or a harness to
    /// exercise restore determinism); it counts against the restart
    /// budget like any recovery. Inline mode has no worker to rotate, so
    /// the call is a no-op there.
    ///
    /// # Errors
    ///
    /// [`CtrlError::ShardDown`] under the same conditions as a
    /// failure-driven recovery (budget exhausted, recovery disabled, or a
    /// poisoned replay).
    pub fn restart_shard(&mut self, shard: usize) -> Result<(), CtrlError> {
        if shard >= self.cfg.shards {
            return Err(CtrlError::InvalidService(format!(
                "shard {shard} out of range (shards = {})",
                self.cfg.shards
            )));
        }
        if matches!(self.backend, Backend::Inline(_)) {
            return Ok(());
        }
        self.drain_worker_msgs();
        if !self.sups[shard].healthy {
            return Err(self.down_error(shard));
        }
        self.recover(
            shard,
            Retiring::Exiting,
            "operator-requested restart".into(),
        )
    }

    /// The retained checkpoint frame of `shard` if it was accepted after
    /// `cursor` (a value returned by a previous call; 0 for "from the
    /// beginning"), plus the cursor to resume from. Only the latest frame
    /// is retained, so a subscriber any number of frames behind gets that
    /// one — a genesis, which resets the subscriber's
    /// [`crate::CheckpointMirror`] cleanly. Inline mode emits no
    /// checkpoints, so the cursor stays 0 and the list empty. No wire
    /// request serves it (a remote replica pulls a process image); it is
    /// how a test reads the retained frame.
    ///
    /// # Errors
    ///
    /// [`CtrlError::InvalidService`] for an out-of-range shard.
    pub fn checkpoint_frames_since(
        &mut self,
        shard: usize,
        cursor: u64,
    ) -> Result<CheckpointFrames, CtrlError> {
        if shard >= self.cfg.shards {
            return Err(CtrlError::InvalidService(format!(
                "shard {shard} out of range (shards = {})",
                self.cfg.shards
            )));
        }
        self.drain_worker_msgs();
        let sup = &self.sups[shard];
        let frames = match &sup.frame {
            Some(cp) if cursor < sup.frames_seq => vec![(KIND_GENESIS, Arc::clone(&cp.bytes))],
            _ => Vec::new(),
        };
        Ok((sup.frames_seq, frames))
    }

    /// Hands one replayable event to `shard`: applied on the spot inline;
    /// appended to the open tail of the shard's journal when threaded. A
    /// tick seals and sends the tail (a tick is always the last event of
    /// its segment); every [`CONTROL_BATCH`]-th control event looks at the
    /// worker ([`ControlPlane::flush`]). A worker failure between journal
    /// and delivery is recovered by replay, so a successful recovery counts
    /// as delivery.
    ///
    /// # Errors
    ///
    /// [`CtrlError::ShardDown`] if the shard is (or just became)
    /// permanently down.
    fn dispatch(&mut self, shard: usize, ev: ReplayEvent) -> Result<(), CtrlError> {
        if let Backend::Inline(states) = &mut self.backend {
            states[shard].apply(&ev);
            return Ok(());
        }
        if !self.sups[shard].healthy {
            return Err(self.down_error(shard));
        }
        let sup = &mut self.sups[shard];
        let sync = matches!(ev, ReplayEvent::Tick { .. });
        sup.tail.push(ev);
        let open = sup.tail.len();
        sup.probe
            .dispatched
            .store(sup.sealed + open as u64, Ordering::Relaxed);
        if sync || open.is_multiple_of(CONTROL_BATCH) {
            self.flush(shard, sync)
        } else {
            Ok(())
        }
    }

    /// How much longer the driver waits on `shard`'s worker as of `now`:
    /// the shard timeout less the time the worker's watermark has stood
    /// still. A look that finds the watermark moved restarts the clock, so
    /// what is timed is silence — a worker behind by a million joins is
    /// slow, one that applies nothing for the whole timeout is hung.
    fn patience(&mut self, shard: usize, now: Instant) -> Duration {
        let sup = &mut self.sups[shard];
        let applied = sup.probe.applied.lock().load(Ordering::Relaxed);
        if applied != sup.seen_applied {
            sup.seen_applied = applied;
            sup.moved_at = now;
        }
        Duration::from_millis(self.cfg.shard_timeout_ms)
            .saturating_sub(now.saturating_duration_since(sup.moved_at))
    }

    /// Seals `shard`'s open journal tail and sends the segment to its
    /// worker — the only way a replayable event reaches a worker, and it
    /// never blocks. A `sync` point (a tick, a collect, an export) sends
    /// whatever is open, so a reply always reflects everything dispatched
    /// before it. Between sync points the tail goes to a worker that has
    /// applied everything sent so far; one still busy is sent nothing
    /// until a [`JOURNAL_BLOCK`] has gathered — it has work, and a burst
    /// then costs a few large segments instead of a thousand small ones.
    /// This is also where a hung worker is found out while nothing waits
    /// on it: events sent, and none applied for the shard timeout,
    /// restarts the shard. No-op inline.
    ///
    /// # Errors
    ///
    /// As [`ControlPlane::dispatch`].
    fn flush(&mut self, shard: usize, sync: bool) -> Result<(), CtrlError> {
        self.drain_worker_msgs();
        if !self.sups[shard].healthy {
            return Err(self.down_error(shard));
        }
        let now = Instant::now();
        let patience = self.patience(shard, now);
        let sup = &mut self.sups[shard];
        let idle = sup.seen_applied == sup.sealed;
        if idle {
            // Caught up is idle, not silent: the clock starts with the
            // work about to be sent (or the reply about to be asked for).
            sup.moved_at = now;
        } else if patience.is_zero() {
            return self.recover(
                shard,
                Retiring::Silent,
                "worker applied nothing for the shard timeout with events pending".into(),
            );
        } else if !sync && sup.tail.len() < JOURNAL_BLOCK {
            return Ok(());
        }
        // Nothing open, too, when the drain above recovered the shard: the
        // replay applied what was waiting here.
        let Some(segment) = sup.seal(self.cfg.checkpoint_every > 0) else {
            return Ok(());
        };
        let epoch = sup.epoch;
        let Backend::Threaded { workers } = &self.backend else {
            unreachable!("the inline backend queues nothing")
        };
        let worker = workers[shard].as_ref().expect("healthy shard has a worker");
        if worker.tx.send(Event::Batch(segment)).is_ok() {
            if let Some(counter) = self
                .obs
                .as_ref()
                .and_then(|m| m.shard_deliveries.get(shard))
            {
                counter.inc();
            }
            return Ok(());
        }
        // Disconnected. The worker's failure report, if it made one, is
        // already in the message channel (it is sent before the worker
        // drops its event receiver) — draining recovers the shard.
        self.drain_worker_msgs();
        if !self.sups[shard].healthy {
            Err(self.down_error(shard))
        } else if self.sups[shard].epoch != epoch {
            Ok(()) // the drain already restarted the shard
        } else {
            self.recover(
                shard,
                Retiring::Exiting,
                "worker terminated without a failure report".into(),
            )
        }
    }

    /// Passes a join through admission control. The grant comes back as
    /// the tenant's interned name — the one `Arc` the placement table,
    /// the journal entry and the shard's tenant table all share.
    fn grant(&mut self, tenant: &str, envelope: f64) -> Result<Arc<str>, CtrlError> {
        self.admission
            .lock()
            .grant(tenant, envelope)
            .map_err(|refused| {
                if let Some(m) = &self.obs {
                    m.rejected.inc();
                }
                CtrlError::Admission(refused)
            })
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
        let Some(shard) = self.place() else {
            self.admission.lock().rollback(tenant, envelope);
            return Err(CtrlError::ShardDown {
                shard: 0,
                reason: "no healthy shard to place the session on".into(),
            });
        };
        let key = self.next_key;
        let join = ReplayEvent::JoinDedicated {
            key,
            tenant: tenant_shared.clone(),
        };
        if let Err(err) = self.dispatch(shard, join) {
            self.admission.lock().rollback(tenant, envelope);
            return Err(err);
        }
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
        let Some(shard) = self.place() else {
            self.admission.lock().rollback(tenant, envelope);
            return Err(CtrlError::ShardDown {
                shard: 0,
                reason: "no healthy shard to place the group on".into(),
            });
        };
        let group = self.next_group;
        let members: Arc<[u64]> = (0..size as u64).map(|i| self.next_key + i).collect();
        let join = ReplayEvent::JoinGroup {
            group,
            tenant: tenant_shared.clone(),
            members: members.clone(),
        };
        if let Err(err) = self.dispatch(shard, join) {
            self.admission.lock().rollback(tenant, envelope);
            return Err(err);
        }
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
                    .lock()
                    .release(&tenant, self.cfg.dedicated_envelope());
            }
            Some(group) => {
                if let Some(info) = self.groups.get_mut(&group) {
                    info.live -= 1;
                    if info.live == 0 {
                        let info = self.groups.remove(&group).expect("present");
                        self.admission.lock().release(&info.tenant, info.envelope);
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

    /// Keys a live migration can move out of this service: every live
    /// *dedicated* session, sorted. Pooled members are excluded — a pool
    /// member's dynamics are not separable from its group.
    pub fn migratable_keys(&self) -> Vec<u64> {
        // The table iterates in ascending key order already.
        self.placements.dedicated().collect()
    }

    /// Exports one *dedicated* session as a standalone migration blob and
    /// removes it from this service. The export quiesces the session —
    /// in threaded mode the capture reply arrives only after every
    /// previously dispatched event was applied (the queue is FIFO) — then
    /// captures its session row bitwise via the binary codec, forgets it
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
        let cp = self.capture_session(shard, key)?;
        let Some(cp) = cp else {
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
            .lock()
            .release(&tenant, self.cfg.dedicated_envelope());
        // A migration blob is a one-session columnar genesis frame — the
        // same frame format (and decoder) the shard checkpoints use.
        let mut blob = Vec::new();
        crate::codec::columnar::encode_session_frame(&cp, &mut blob);
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

    /// Captures `key`'s checkpoint from its shard. Read-only (like the
    /// snapshot path): not journaled, and the reply synchronizes the
    /// shard. A shard that goes silent is restarted and retried once,
    /// exactly like [`ControlPlane::collect_sessions`]; a second miss marks
    /// it permanently down.
    fn capture_session(
        &mut self,
        shard: usize,
        key: u64,
    ) -> Result<Option<crate::shard::SessionCheckpoint>, CtrlError> {
        if let Backend::Inline(states) = &mut self.backend {
            return Ok(states[shard].checkpoint_session(key));
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
    /// another frame version (`columnar.version`) or not a one-session
    /// dedicated slice (`columnar.migration`), and for
    /// a blob that decodes structurally but carries an out-of-domain value
    /// (a non-finite or negative float, an impossible tracker shape, a
    /// clock or high window that disagrees with the meter's);
    /// [`CtrlError::Admission`] when the budget
    /// or tenant quota cannot cover the envelope; [`CtrlError::ShardDown`]
    /// when no shard could take the session. Admission is rolled back on
    /// a failed delivery, exactly like [`ControlPlane::admit`].
    pub fn import_session(&mut self, blob: &[u8]) -> Result<u64, CtrlError> {
        // Exporters emit one-session columnar frames, and the same binary
        // reads what it writes: a blob of any other frame version is
        // refused typed, not translated.
        let frame = crate::codec::columnar::parse(blob)
            .map_err(|field| CtrlError::InvalidCheckpoint { field })?;
        let mut cp = crate::codec::columnar::session_from_frame(&frame)
            .map_err(|field| CtrlError::InvalidCheckpoint { field })?;
        // Structural decode is not enough: a hostile or corrupted blob can
        // carry NaN/negative floats or impossible tracker shapes that the
        // codec happily round-trips — and even a well-formed session must
        // run *this* service's configuration (the kernel applies one
        // shard-wide parameter block, not per-session config copies).
        // Reject both before admission.
        cp.validate()
            .and_then(|()| cp.conforms(&self.cfg.single_config(), self.cfg.cost))
            .map_err(|field| CtrlError::InvalidCheckpoint { field })?;
        self.mutated();
        let envelope = self.cfg.dedicated_envelope();
        let tenant = self
            .admission
            .lock()
            .grant(&cp.tenant, envelope)
            .map_err(CtrlError::Admission)?;
        cp.tenant = tenant.clone();
        let Some(shard) = self.place() else {
            self.admission.lock().rollback(&tenant, envelope);
            return Err(CtrlError::ShardDown {
                shard: 0,
                reason: "no healthy shard to place the session on".into(),
            });
        };
        let key = self.next_key;
        cp.key = key;
        let import = ReplayEvent::Import { cp: Arc::new(cp) };
        if let Err(err) = self.dispatch(shard, import) {
            self.admission.lock().rollback(&tenant, envelope);
            return Err(err);
        }
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
    /// until every awaited shard reported or every one still awaited has
    /// gone silent ([`ControlPlane::patience`]); those are what is left in
    /// `pending`. A shard that a later shard's flush found failed (its
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
            let (shard, _) = pending.swap_remove(at);
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
        // The first report's live vector *becomes* the collection (it was
        // sized to take its shard's retired list too), so a one-shard
        // snapshot holds one copy of the session table, not two. Order is
        // free: assembly sorts by key.
        let mut gathered: (Vec<SessionMetrics>, u64) = (Vec::new(), 0);
        self.collect(Collect::Metrics, |_, report| {
            let (sessions, stages) = &mut gathered;
            if sessions.is_empty() {
                *sessions = report.live;
            } else {
                sessions.extend(report.live);
            }
            sessions.extend(report.retired.iter().cloned());
            *stages += report.stages_completed;
        });
        gathered
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
            // shard on one shared reply channel.
            let (reply, rx) = unbounded();
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
                collected[shard] = true;
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
        let (admitted, rejected) = {
            let admission = self.admission.lock();
            (admission.admitted(), admission.rejected())
        };
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

    fn stop_workers(&mut self) {
        if let Backend::Threaded { workers } = &mut self.backend {
            for slot in workers.iter_mut() {
                if let Some(worker) = slot.take() {
                    // The cancel flag stops a worker with a backlog ahead
                    // of the shutdown event.
                    worker.cancel.store(true, Ordering::Release);
                    let _ = worker.tx.send(Event::Shutdown);
                    drop(worker.tx);
                    self.graveyard.push(worker.handle);
                }
            }
        }
        for handle in self.graveyard.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ControlPlane {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceConfig;

    fn config(shards: usize, exec: ExecMode) -> ServiceConfig {
        ServiceConfig::builder(1024.0)
            .session_b_max(16.0)
            .group_b_o(8.0)
            .offline_delay(4)
            .window(4)
            .shards(shards)
            .exec(exec)
            .build()
            .unwrap()
    }

    /// A deterministic churn scenario driven against any service.
    fn run_scenario(mut service: ControlPlane) -> ServiceSnapshot {
        let mut live: Vec<u64> = Vec::new();
        for _ in 0..6 {
            live.push(service.admit("acme").unwrap());
        }
        live.extend(service.admit_group("globex", 3).unwrap());
        for t in 0..200u64 {
            if t == 60 {
                let gone = live.remove(0);
                service.leave(gone).unwrap();
                live.push(service.admit("initech").unwrap());
            }
            let arrivals: Vec<(u64, f64)> = live
                .iter()
                .enumerate()
                .map(|(i, &key)| (key, ((t + i as u64) % 4) as f64))
                .collect();
            service.tick(&arrivals).unwrap();
        }
        let snapshot = service.snapshot().unwrap();
        service.shutdown();
        snapshot
    }

    #[test]
    fn inline_and_threaded_agree_exactly() {
        let a = run_scenario(ControlPlane::new(config(1, ExecMode::Inline)));
        let b = run_scenario(ControlPlane::new(config(1, ExecMode::Threaded)));
        assert_eq!(a, b, "same shard count: full snapshots agree");
    }

    #[test]
    fn shard_count_does_not_change_results() {
        let one = run_scenario(ControlPlane::new(config(1, ExecMode::Inline)));
        let four = run_scenario(ControlPlane::new(config(4, ExecMode::Threaded)));
        assert_eq!(one.invariant_view(), four.invariant_view());
        assert!(one.global.changes > 0);
        assert!(one.global.total_served > 0.0);
    }

    #[test]
    fn admission_rejections_do_not_allocate() {
        let cfg = ServiceConfig::builder(32.0)
            .session_b_max(16.0)
            .exec(ExecMode::Inline)
            .build()
            .unwrap();
        let mut service = ControlPlane::new(cfg);
        let a = service.admit("acme").unwrap();
        let _b = service.admit("acme").unwrap();
        assert!(matches!(
            service.admit("acme"),
            Err(CtrlError::Admission(_))
        ));
        assert_eq!(service.live_sessions(), 2);
        service.leave(a).unwrap();
        assert!(service.admit("acme").is_ok());
        let snap = service.snapshot().unwrap();
        assert_eq!(snap.admitted, 3);
        assert_eq!(snap.rejected, 1);
    }

    #[test]
    fn group_envelope_released_on_last_leave() {
        let cfg = ServiceConfig::builder(32.0)
            .group_b_o(8.0) // envelope 32: one group fills the budget
            .exec(ExecMode::Inline)
            .build()
            .unwrap();
        let mut service = ControlPlane::new(cfg);
        let members = service.admit_group("acme", 2).unwrap();
        assert!(service.admit_group("acme", 2).is_err());
        service.leave(members[0]).unwrap();
        assert!(service.admit_group("acme", 2).is_err(), "group still live");
        service.leave(members[1]).unwrap();
        assert!(service.admit_group("acme", 2).is_ok());
    }

    #[test]
    fn unknown_sessions_error() {
        let mut service = ControlPlane::new(config(1, ExecMode::Inline));
        assert!(matches!(
            service.leave(42),
            Err(CtrlError::UnknownSession(42))
        ));
        assert!(matches!(
            service.tick(&[(42, 1.0)]),
            Err(CtrlError::UnknownSession(42))
        ));
    }

    /// A departed key stays unknown after a newcomer takes its shard slot:
    /// its arrivals, its leave and its export are refused.
    #[test]
    fn left_sessions_reject_arrivals() {
        let mut service = ControlPlane::new(config(2, ExecMode::Inline));
        let key = service.admit("acme").unwrap();
        service.tick(&[(key, 2.0)]).unwrap();
        service.leave(key).unwrap();
        service.tick(&[]).unwrap();
        let newcomer = service.admit("acme").unwrap();
        service.tick(&[(newcomer, 1.0)]).unwrap();
        assert!(matches!(
            service.tick(&[(key, 2.0)]),
            Err(CtrlError::UnknownSession(k)) if k == key
        ));
        assert!(matches!(
            service.leave(key),
            Err(CtrlError::UnknownSession(k)) if k == key
        ));
        assert!(matches!(
            service.export_session(key),
            Err(CtrlError::UnknownSession(k)) if k == key
        ));
        assert_eq!(service.live_sessions(), 1);
        assert_eq!(service.migratable_keys(), vec![newcomer]);
    }

    #[test]
    fn malformed_arrivals_are_rejected_before_anything_advances() {
        let mut service = ControlPlane::new(config(1, ExecMode::Inline));
        let a = service.admit("acme").unwrap();
        let b = service.admit("acme").unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            assert!(matches!(
                service.tick(&[(a, 1.0), (b, bad)]),
                Err(CtrlError::InvalidArrival { session, bits })
                    if session == b && (bits.is_nan() == bad.is_nan() && (bits == bad || bad.is_nan()))
            ));
        }
        assert!(matches!(
            service.tick(&[(a, 1.0), (a, 2.0)]),
            Err(CtrlError::DuplicateArrival(key)) if key == a
        ));
        // Nothing advanced: the clock is untouched and a clean tick works.
        assert_eq!(service.ticks(), 0);
        service.tick(&[(a, 1.0), (b, 0.0)]).unwrap();
        assert_eq!(service.ticks(), 1);
    }

    /// A session exported from one control plane and imported into
    /// another continues bitwise — the core guarantee behind fleet live
    /// migration — and the admission budget moves with it.
    #[test]
    fn export_import_moves_a_session_between_services_bitwise() {
        let mut src = ControlPlane::new(config(1, ExecMode::Inline));
        let mut dst = ControlPlane::new(config(1, ExecMode::Inline));
        let mut twin = ControlPlane::new(config(1, ExecMode::Inline));

        let key = src.admit("acme").unwrap();
        let group = src.admit_group("globex", 2).unwrap();
        let twin_key = twin.admit("acme").unwrap();
        for t in 0..40u64 {
            src.tick(&[(key, (t % 5) as f64)]).unwrap();
            twin.tick(&[(twin_key, (t % 5) as f64)]).unwrap();
        }

        // Pooled members refuse to migrate; unknown keys error.
        assert!(matches!(
            src.export_session(group[0]),
            Err(CtrlError::InvalidService(_))
        ));
        assert!(matches!(
            src.export_session(999),
            Err(CtrlError::UnknownSession(999))
        ));

        let src_budget_before = src.available_budget();
        let dst_budget_before = dst.available_budget();
        let blob = src.export_session(key).unwrap();
        let moved = dst.import_session(&blob).unwrap();

        // The envelope moved: released at the source, charged at the
        // target.
        let envelope = src.config().dedicated_envelope();
        assert_eq!(src.available_budget(), src_budget_before + envelope);
        assert_eq!(dst.available_budget(), dst_budget_before - envelope);
        assert!(src.migratable_keys().is_empty());
        assert_eq!(dst.migratable_keys(), vec![moved]);

        // The source neither serves nor reports the session any more.
        assert!(matches!(
            src.tick(&[(key, 1.0)]),
            Err(CtrlError::UnknownSession(_))
        ));
        let src_snap = src.snapshot().unwrap();
        assert!(src_snap.sessions.iter().all(|m| m.session != key));

        // The moved session and its undisturbed twin agree bitwise after
        // identical continuations.
        for t in 0..25u64 {
            dst.tick(&[(moved, ((t + 1) % 4) as f64)]).unwrap();
            twin.tick(&[(twin_key, ((t + 1) % 4) as f64)]).unwrap();
        }
        let moved_m = dst
            .snapshot()
            .unwrap()
            .sessions
            .iter()
            .find(|m| m.session == moved)
            .cloned()
            .unwrap();
        let twin_m = twin
            .snapshot()
            .unwrap()
            .sessions
            .iter()
            .find(|m| m.session == twin_key)
            .cloned()
            .unwrap();
        assert_eq!(
            SessionMetrics {
                session: twin_key,
                ..moved_m
            },
            twin_m,
            "migrated session diverged from its single-service twin"
        );
    }

    /// The threaded export path (quiesce over the worker channel) emits
    /// the same blob as the inline path after the same history.
    #[test]
    fn threaded_export_matches_inline_export() {
        let run = |exec: ExecMode| {
            let mut plane = ControlPlane::new(config(2, exec));
            let key = plane.admit("acme").unwrap();
            let other = plane.admit("acme").unwrap();
            for t in 0..30u64 {
                plane
                    .tick(&[(key, (t % 3) as f64), (other, ((t + 1) % 3) as f64)])
                    .unwrap();
            }
            let blob = plane.export_session(key).unwrap();
            plane.shutdown();
            blob
        };
        assert_eq!(run(ExecMode::Inline), run(ExecMode::Threaded));
    }

    /// A worker that is known to be exiting is joined by the restart that
    /// retires it (its state is the restore target), so operator restarts
    /// park nothing. Only a worker retired for silence is parked: the
    /// recovery does not wait for it, restores into a fresh state just as
    /// invisibly, and the first recovery after it exits reaps it.
    #[test]
    fn restarts_reap_exited_workers() {
        let mut plane = ControlPlane::new(config(1, ExecMode::Threaded));
        let key = plane.admit("acme").unwrap();
        for t in 0..3u64 {
            plane.tick(&[(key, t as f64)]).unwrap();
            plane.restart_shard(0).unwrap();
            assert!(plane.graveyard.is_empty(), "after restart {t}");
        }
        plane.shutdown();

        const TIMEOUT_MS: u64 = 200;
        let run = |fault: Option<FaultPlan>| {
            let mut builder = ServiceConfig::builder(1024.0)
                .session_b_max(16.0)
                .offline_delay(4)
                .window(4)
                .exec(ExecMode::Threaded)
                .checkpoint_every(8)
                .shard_timeout_ms(TIMEOUT_MS);
            if let Some(plan) = fault {
                builder = builder.fault(plan);
            }
            let mut plane = ControlPlane::new(builder.build().unwrap());
            let key = plane.admit("acme").unwrap();
            for t in 0..50u64 {
                let started = Instant::now();
                plane.tick(&[(key, (t % 3) as f64)]).unwrap();
                if plane.restarts() == 1 && plane.graveyard.len() == 1 {
                    // The tick that detected the hang: one time-out to
                    // notice the silence, and no second one waiting for a
                    // worker that cannot answer.
                    let blocked = started.elapsed();
                    assert!(
                        blocked < Duration::from_millis(TIMEOUT_MS * 3 / 2),
                        "recovery from a hang blocked the driver for {blocked:?}"
                    );
                }
            }
            let view = plane.snapshot().unwrap().invariant_view();
            (plane, view)
        };
        let (clean, clean_view) = run(None);
        clean.shutdown();
        let (mut hung, hung_view) = run(Some(FaultPlan::hang(0, 30, 4 * TIMEOUT_MS)));
        assert_eq!(hung.restarts(), 1);
        assert_eq!(hung.graveyard.len(), 1, "the hung worker is parked");
        assert_eq!(clean_view, hung_view, "a fresh restore target shows");
        while !hung.graveyard.iter().all(JoinHandle::is_finished) {
            std::thread::sleep(Duration::from_millis(5));
        }
        hung.restart_shard(0).unwrap();
        assert!(hung.graveyard.is_empty(), "the next recovery reaps it");
        hung.shutdown();
    }

    /// An admission burst does not set the journal's footprint for life:
    /// a trim drops whole segments, each its own allocation, so what the
    /// burst leaves behind is the deque's ring of pointers — no capacity
    /// to give back, hence no shrink step — and the trimmed journal still
    /// replays bitwise.
    #[test]
    fn journal_capacity_follows_the_checkpoint_interval() {
        const EVERY: u64 = 16;
        let run = |restart: bool| {
            let cfg = ServiceConfig::builder(4096.0 * 16.0)
                .session_b_max(16.0)
                .offline_delay(4)
                .window(4)
                .exec(ExecMode::Threaded)
                .checkpoint_every(EVERY)
                .build()
                .unwrap();
            let mut plane = ControlPlane::new(cfg);
            let keys: Vec<u64> = (0..4096).map(|_| plane.admit("acme").unwrap()).collect();
            let tick = |plane: &mut ControlPlane, t: u64| {
                let batch: Vec<(u64, f64)> =
                    keys.iter().map(|&k| (k, ((k + t) % 4) as f64)).collect();
                plane.tick(&batch).unwrap();
            };
            for t in 0..2 * EVERY {
                tick(&mut plane, t);
            }
            // The snapshot reply is behind the second checkpoint in the
            // worker's queue; the drain after it takes that checkpoint in.
            drop(plane.snapshot().unwrap());
            plane.drain_worker_msgs();
            let sup = &plane.sups[0];
            assert_eq!(sup.frames_seq, 2, "two checkpoints accepted");
            let held: usize = sup.journal.iter().map(|segment| segment.len()).sum();
            let footprint = held * std::mem::size_of::<ReplayEvent>()
                + sup.journal.capacity() * std::mem::size_of::<Segment>();
            assert!(
                footprint <= 4 * EVERY as usize * std::mem::size_of::<ReplayEvent>(),
                "{held} events in a ring of {} segments ({footprint} bytes) after a \
                 4,096-join burst and two trims",
                sup.journal.capacity()
            );
            for t in 2 * EVERY..3 * EVERY {
                if restart && t == 2 * EVERY + EVERY / 2 {
                    plane.restart_shard(0).unwrap();
                }
                tick(&mut plane, t);
            }
            let view = plane.snapshot().unwrap().invariant_view();
            plane.shutdown();
            view
        };
        assert_eq!(run(false), run(true), "replay from the trimmed journal");
    }

    /// The journal keeps a tick's arrivals encoded ([`TickBatch`]): 5 bytes
    /// an arrival for key-ascending batches of integer bits (16 as
    /// `(u64, f64)` pairs), exactly, and `cdba_ctrl_journal_bytes` scrapes
    /// what it holds — until a checkpoint trims it.
    #[test]
    fn journal_holds_five_bytes_per_ascending_integer_arrival() {
        const EVERY: u64 = 16;
        let cfg = ServiceConfig::builder(4096.0 * 16.0)
            .session_b_max(16.0)
            .offline_delay(4)
            .window(4)
            .exec(ExecMode::Threaded)
            .checkpoint_every(EVERY)
            .build()
            .unwrap();
        let mut plane = ControlPlane::new(cfg);
        let registry = Registry::new();
        plane.attach_metrics(&registry);
        let keys: Vec<u64> = (0..4096).map(|_| plane.admit("acme").unwrap()).collect();
        for t in 0..EVERY - 1 {
            let batch: Vec<(u64, f64)> = keys.iter().map(|&k| (k, ((k + t) % 4) as f64)).collect();
            plane.tick(&batch).unwrap();
        }
        drop(plane.snapshot().unwrap());
        let sup = &plane.sups[0];
        let (held, arrivals) =
            sup.journal
                .iter()
                .flat_map(|segment| segment.iter())
                .fold((0, 0), |(held, n), ev| match ev {
                    ReplayEvent::Tick { arrivals } => {
                        (held + arrivals.bytes(), n + arrivals.iter().count())
                    }
                    _ => (held, n),
                });
        assert_eq!(arrivals, 4096 * (EVERY as usize - 1), "no checkpoint yet");
        assert_eq!(held, 5 * arrivals, "bytes per journaled arrival");
        let scraped = format!("cdba_ctrl_journal_bytes{{shard=\"0\"}} {held}\n");
        assert!(registry.render().contains(&scraped), "{scraped}");
        plane.tick(&[]).unwrap();
        drop(plane.snapshot().unwrap());
        plane.drain_worker_msgs();
        assert_eq!(plane.sups[0].frames_seq, 1);
        assert!(
            registry
                .render()
                .contains("cdba_ctrl_journal_bytes{shard=\"0\"} 0\n"),
            "the checkpoint trims every tick"
        );
        plane.shutdown();
    }

    /// A restart mid-interval replays ticks that hold both encoded widths
    /// — `f32`-exact bits and bits only an `f64` holds (`0.1`, `1/3`) —
    /// and lands bitwise where the inline backend, which never encodes,
    /// does.
    #[test]
    fn replayed_ticks_of_both_widths_match_inline_bitwise() {
        let run = |exec: ExecMode, shards: usize, restart: bool| {
            let cfg = ServiceConfig::builder(1024.0)
                .session_b_max(16.0)
                .group_b_o(8.0)
                .offline_delay(4)
                .window(4)
                .shards(shards)
                .exec(exec)
                .checkpoint_every(16)
                .build()
                .unwrap();
            let mut plane = ControlPlane::new(cfg);
            let mut keys: Vec<u64> = (0..12).map(|_| plane.admit("acme").unwrap()).collect();
            keys.extend(plane.admit_group("globex", 3).unwrap());
            for t in 0..60u64 {
                if restart && t == 40 {
                    for shard in 0..shards {
                        plane.restart_shard(shard).unwrap();
                    }
                }
                let batch: Vec<(u64, f64)> = keys
                    .iter()
                    .rev()
                    .map(|&k| match (k + t) % 4 {
                        0 => (k, 0.1),
                        1 => (k, 1.0 / 3.0),
                        r => (k, r as f64 * 1.5),
                    })
                    .collect();
                plane.tick(&batch).unwrap();
            }
            let replayed = plane.events_replayed();
            let view = plane.snapshot().unwrap().invariant_view();
            plane.shutdown();
            (view, replayed)
        };
        let (inline, _) = run(ExecMode::Inline, 1, false);
        let (threaded, replayed) = run(ExecMode::Threaded, 2, true);
        assert!(
            replayed >= 2 * 8,
            "each shard replays the 8 ticks past its frame"
        );
        assert_eq!(threaded, inline);
    }

    /// A checkpoint's `events_applied` is always a segment edge: a tick
    /// seals its segment, and a recovery seals the tail it replayed
    /// without sending it, so the worker that follows counts from an edge
    /// too. The trim's `debug_assert` is live in this build; the equalities
    /// below say the same where it is not.
    #[test]
    fn checkpoints_land_on_segment_edges() {
        const EVERY: u64 = 4;
        let cfg = ServiceConfig::builder(4096.0 * 16.0)
            .session_b_max(16.0)
            .offline_delay(4)
            .window(4)
            .exec(ExecMode::Threaded)
            .checkpoint_every(EVERY)
            .build()
            .unwrap();
        let mut plane = ControlPlane::new(cfg);
        for t in 0..6 * EVERY {
            if t % 3 == 0 {
                // More than one look at the worker's worth: one segment or
                // two ahead of the tick, as the worker keeps up, and the
                // tick seals whatever is open.
                for _ in 0..CONTROL_BATCH + 6 {
                    plane.admit("acme").unwrap();
                }
            }
            if t == 2 * EVERY + 1 {
                plane.admit("globex").unwrap();
                assert!(!plane.sups[0].tail.is_empty(), "an open tail");
                plane.restart_shard(0).unwrap();
                let sup = &plane.sups[0];
                assert!(sup.tail.is_empty(), "sealed by the recovery");
                assert_eq!(sup.seen_applied, sup.sealed, "replayed, not sent");
            }
            plane.tick(&[]).unwrap();
            // The reply is behind every checkpoint so far in the worker's
            // queue; the drain after it takes them in.
            drop(plane.snapshot().unwrap());
            plane.drain_worker_msgs();
            let sup = &plane.sups[0];
            let held: u64 = sup.journal.iter().map(|s| s.len() as u64).sum();
            assert_eq!(sup.journal_base + held, sup.sealed, "tick {t}");
            if let Some(cp) = &sup.frame {
                assert_eq!(cp.events_applied, sup.journal_base, "tick {t}");
            }
        }
        assert_eq!(plane.sups[0].frames_seq, 6, "one checkpoint per interval");
        assert_eq!(plane.restarts(), 1);
        plane.shutdown();
    }

    /// A snapshot's fan-out flushes shard after shard, and every flush
    /// first takes in whatever any worker has reported — so a shard already
    /// asked for its report can be found dead, and with no restart budget
    /// go down, before the fan-in starts. The fan-in stops awaiting it: it
    /// neither looks for the worker the shard no longer has nor waits out
    /// the timeout for a reply that cannot come. Both ways to lose the
    /// worker — no budget, recovery disabled — and the restart that
    /// replaces it.
    #[test]
    fn fan_in_stops_awaiting_a_shard_lost_during_the_fan_out() {
        let cfg = |every: u64, restarts: u32| {
            ServiceConfig::builder(1024.0)
                .session_b_max(16.0)
                .offline_delay(4)
                .window(4)
                .shards(2)
                .exec(ExecMode::Threaded)
                .checkpoint_every(every)
                .max_restarts(restarts)
                .build()
                .unwrap()
        };
        for (every, restarts, survives) in [(8, 0, false), (0, 3, false), (8, 3, true)] {
            let mut plane = ControlPlane::new(cfg(every, restarts));
            let keys: Vec<u64> = (0..4).map(|_| plane.admit("acme").unwrap()).collect();
            let arrivals: Vec<(u64, f64)> = keys.iter().map(|&k| (k, 1.0)).collect();
            plane.tick(&arrivals).unwrap();
            // Shard 0's share of a fan-out …
            plane.flush(0, true).unwrap();
            let (reply, rx) = unbounded();
            let mut pending = vec![(0, plane.sups[0].epoch)];
            // … and what shard 1's flush then finds in the message channel.
            plane.apply_worker_msg(WorkerMsg::Failure(crate::shard::ShardFailure {
                shard: 0,
                epoch: plane.sups[0].epoch,
                reason: "injected".into(),
            }));
            assert_eq!(plane.sups[0].healthy, survives);
            let started = Instant::now();
            plane.await_reports(&rx, &mut pending, |shard, _| {
                panic!("shard {shard} was asked nothing")
            });
            assert!(pending.is_empty(), "shard 0 is not a straggler");
            assert!(started.elapsed() < Duration::from_millis(plane.cfg.shard_timeout_ms));
            drop(reply);
            // The snapshot degrades, or sees the restarted shard, in full.
            let snapshot = plane.snapshot().expect("never an error");
            assert_eq!(snapshot.health[0].healthy, survives);
            assert!(snapshot.health[1].healthy);
            assert_eq!(snapshot.sessions.len(), if survives { 4 } else { 2 });
            plane.shutdown();
        }
    }

    #[test]
    fn placement_prefers_least_loaded_shard() {
        let mut service = ControlPlane::new(config(4, ExecMode::Inline));
        let keys: Vec<u64> = (0..4).map(|_| service.admit("acme").unwrap()).collect();
        // One session per shard so far (ties broken by index).
        service.leave(keys[2]).unwrap();
        // Shard 2 is now emptiest; the next session must land there.
        let replacement = service.admit("acme").unwrap();
        // And at one-per-shard again, ties go to the lowest index.
        let next = service.admit("acme").unwrap();
        let snap = service.snapshot().unwrap();
        let shard_of = |key: u64| {
            snap.sessions
                .iter()
                .find(|m| m.session == key)
                .map(|m| m.shard)
                .unwrap()
        };
        assert_eq!(shard_of(replacement), 2);
        assert_eq!(shard_of(next), 0);
    }
}
