//! The shard executor: the event-driven state machine that drives session
//! allocators and meters.
//!
//! One [`ShardState`] owns every session placed on it. Both execution
//! backends — the inline deterministic fallback and the per-shard worker
//! threads — drive the *same* [`ShardState::apply`] code path, so
//! the two modes cannot diverge. Sessions never interact across shards
//! (a pooled group lives wholly on one shard), which is what makes the
//! service's metrics invariant under the shard count.
//!
//! A session is one slot of a structure-of-arrays [`Columns`] store and
//! nothing else: every scalar the tick kernel touches (staged arrivals,
//! link backlogs, the `B_on` ladder level, the meter counters and rolling
//! window sums) is a column indexed by slot, and so is its identity — the
//! key, the `F_*` flags (live, dedicated, leaving), a `u32` tenant id
//! into the shard's tenant table and, for a pooled member, a `u32` group
//! slot. A [`KeyMap`] finds a key's slot; vacated slots are reused LIFO
//! by a [`Slots`] allocator, the one the group [`Slab`] keeps too.
//! A tick is then a few linear passes over the columns — scatter the
//! batched arrivals, step each pooled group, step each dedicated session —
//! instead of a pointer chase through boxed per-session objects. The
//! lower hull keeps its first [`HULL_INLINE`] vertices in a fixed column
//! and only the rest in a cold spill; the window ring that the meter,
//! the high tracker and the delay FIFO share and the FIFO's cold spill
//! sit in side columns; the float-op order inside the kernel replicates
//! `SingleSession::on_tick` and `SignallingMeter::record` exactly, so the
//! columnar kernel is bitwise-identical to `cdba-core`'s objects metered
//! by a `SignallingMeter` — which `tests/tests/ctrl_vs_core.rs` checks
//! tick by tick, together with the paper's delay and change bounds.
//!
//! Threaded workers are supervised: [`run_worker`] catches panics
//! (reporting a typed [`ShardFailure`] instead of dying silently),
//! periodically ships a [`ShardCheckpoint`] — the shard as one columnar
//! frame — back to the driver, honours a
//! cancellation flag so a superseded worker cannot corrupt anything after
//! the supervisor moves on, and hosts the fault-injection hooks of
//! [`crate::fault`]. Every message carries the worker's *epoch* so the
//! driver can discard stragglers from replaced workers.

use crate::codec::columnar;
use crate::config::ServiceConfig;
use crate::fault::{FaultKind, FaultPlan};
use crate::journal::{Entry, TickBatch};
use crate::meter::{delay_ticks, SessionMetrics};
use crate::slab::{KeyMap, Slab, Slots};
use cdba_core::config::{MultiConfig, SingleConfig};
use cdba_core::cost::CostModel;
use cdba_core::multi::pool::{PoolCheckpoint, SessionId as PoolSessionId, SessionPool};
use cdba_core::next_power_of_two;
use cdba_core::single::crossed;
use cdba_traffic::EPS;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

mod columns;
mod frame;
mod sweep;
#[cfg(test)]
mod tests;
mod worker;

use columns::*;
pub(crate) use frame::{validate_lease, ApplyScratch};
use sweep::*;
pub(crate) use worker::{panic_reason, run_worker, WorkerCtx, WorkerMsg};

/// One message on a threaded shard's queue. Within a shard, messages —
/// and the events inside a batch — apply in send order (the channels are
/// FIFO), which is all the ordering the executor needs.
#[derive(Debug)]
pub(crate) enum Event {
    /// Replayable events, in dispatch order: one sealed segment of the
    /// driver's journal, shared with it rather than copied. A lone event
    /// is a batch of one; there is no other way in for a [`ReplayEvent`].
    Batch(Segment),
    /// Report all metrics (live and retired sessions) back, the shard's
    /// state as one frame for a process image, or one session's lease.
    Collect {
        /// Where to send the report.
        reply: crossbeam::channel::Sender<ShardReport>,
        /// What the report carries.
        what: Collect,
    },
    /// Stop the worker loop.
    Shutdown,
}

/// A sealed run of the driver's journal: the buffer the events were
/// dispatched into, moved behind an `Arc` — sealing copies nothing, and the
/// journal and the worker's queue hold the one allocation.
pub(crate) type Segment = Arc<Vec<ReplayEvent>>;

/// Replayable events the driver's journal collects per shard before it
/// looks at the worker: one that has applied everything sent is sent these
/// at once, as one [`Event::Batch`] and one wake-up; a sync point (a tick,
/// a collect, an export) seals earlier.
pub(crate) const CONTROL_BATCH: usize = 64;

/// Replayable events an open segment grows to while the worker is still
/// busy with earlier ones — there is no hurry to send it more. An admission
/// burst is then journaled in blocks of 192 KiB rather than 3 KiB crumbs:
/// past the allocator's mapping threshold, so the checkpoint that trims
/// them returns them to the OS instead of leaving holes under whatever was
/// allocated since.
pub(crate) const JOURNAL_BLOCK: usize = 4096;

/// Live rows one metrics report carries at most when a plane has more
/// than one shard. A worker streams its rows this many at a time and the
/// collector moves each run into the one table it sized for every shard's
/// rows, so a shard's rows never gather anywhere else: a threaded snapshot
/// holds one table, not a second one spread over its reports (≈ 60 KiB a
/// report). A lone shard answers in one report, which becomes the table.
pub(crate) const REPORT_ROWS: usize = 512;

/// What an [`Event::Collect`] asks a shard for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Collect {
    /// Every session's metrics: [`ShardReport::live`], streamed at most
    /// `per_report` rows a report up to the [`ShardReport::last`], then
    /// [`ShardReport::retired`].
    Metrics { per_report: usize },
    /// The whole shard as one columnar frame in [`ShardReport::frame`],
    /// written into a fresh buffer — never the retained frame's spare.
    Image,
    /// Session `key`'s lease for a live migration ([`ShardState::lease`])
    /// in [`ShardReport::frame`]: empty if the key is not live on this
    /// shard or the session is pooled.
    Lease { key: u64 },
}

/// One shard's answer to [`Event::Collect`], or one report of a metrics
/// answer's stream.
///
/// Retired metrics are shared with the shard's accumulator (`Arc`), so a
/// steady-state answer allocates proportionally to the *live* session
/// count only.
#[derive(Debug, Clone)]
pub(crate) struct ShardReport {
    /// The reporting shard.
    pub shard: u64,
    /// Epoch of the worker that produced the report (0 inline). The driver
    /// discards reports from superseded workers.
    pub epoch: u64,
    /// Metrics of retired sessions, frozen at retirement.
    pub retired: Arc<Vec<SessionMetrics>>,
    /// Metrics of live sessions at their current totals, in slot order:
    /// the next [`REPORT_ROWS`] at most of a metrics answer.
    pub live: Vec<SessionMetrics>,
    /// The rows the whole answer carries, live and retired.
    pub rows: usize,
    /// Whether this report ends the answer; the collector takes the
    /// retired list and the stage count from it.
    pub last: bool,
    /// Stages completed on this shard so far, by dedicated sessions and
    /// pooled groups, live and retired — each certifies ≥ 1 offline change.
    pub stages_completed: u64,
    /// The frame a [`Collect::Image`] or [`Collect::Lease`] asked for
    /// (the metric fields then stay empty); empty for
    /// [`Collect::Metrics`].
    pub frame: Vec<u8>,
}

/// A control event that mutates shard state — everything but the
/// read-only `Collect`. The driver journals each one and
/// delivers the journal segment it lands in as an [`Event::Batch`]; the
/// inline backend and the recovery replay apply it directly
/// ([`ShardState::apply`]).
///
/// An event is stored once, in the journal, and applied by reference:
/// the shard takes what it keeps (a tenant name) with a refcount bump, not
/// a deep clone of tenants, member lists, or arrival batches.
#[derive(Debug, Clone)]
pub(crate) enum ReplayEvent {
    /// Place a dedicated session running the single-session algorithm.
    JoinDedicated {
        /// Service-wide session key.
        key: u64,
        /// Owning tenant.
        tenant: Arc<str>,
    },
    /// Place a pooled group running the phased algorithm; all members land
    /// on this shard.
    JoinGroup {
        /// Service-wide group id.
        group: u64,
        /// Owning tenant.
        tenant: Arc<str>,
        /// Service-wide keys of the members, in join order.
        members: Arc<[u64]>,
    },
    /// Begin draining a session out.
    Leave {
        /// The session to drain.
        key: u64,
    },
    /// Advance every session on this shard by one tick.
    Tick {
        /// `(key, bits)` arrivals for this tick; sessions not listed get 0.
        arrivals: TickBatch,
    },
    /// Remove a migrated-away session *without* retiring its metrics —
    /// the session lives on elsewhere and its meter travelled with it.
    Forget {
        /// The session to remove.
        key: u64,
    },
    /// Re-create a migrated-in dedicated session from its lease.
    Import {
        /// The key the session takes here, fresh in this service.
        key: u64,
        /// Its tenant, as admission interned it.
        tenant: Arc<str>,
        /// The lease: a one-row frame, validated at the service boundary
        /// ([`validate_lease`]).
        lease: Arc<[u8]>,
    },
}

/// A plane journal counts the encoded arrivals of its ticks
/// (`cdba_ctrl_journal_bytes`), what a restart replays on top of the
/// retained frame.
impl Entry for ReplayEvent {
    fn bytes(&self) -> u64 {
        match self {
            ReplayEvent::Tick { arrivals } => arrivals.bytes() as u64,
            _ => 0,
        }
    }
}

/// A typed worker-failure report: the worker panicked (organically or via
/// an injected fault) and has exited.
#[derive(Debug, Clone)]
pub(crate) struct ShardFailure {
    /// The failed shard.
    pub shard: u64,
    /// Epoch of the failed worker.
    pub epoch: u64,
    /// The panic message.
    pub reason: String,
}

/// One periodic checkpoint of one shard, shipped to the driver so a
/// restarted worker can resume from it instead of replaying the whole
/// history.
///
/// The state travels as one full-population columnar frame, so each
/// checkpoint supersedes the one before it and the driver retains
/// exactly one. The worker writes the frame into one allocation — the
/// driver's spare, the buffer of the frame two captures back, or a
/// fresh one of the frame's exact length — and ships that allocation;
/// it keeps nothing frame-sized between captures.
#[derive(Debug, Clone)]
pub(crate) struct ShardCheckpoint {
    /// The checkpointing shard.
    pub shard: u64,
    /// Epoch of the worker that took the checkpoint.
    pub epoch: u64,
    /// Replayable events applied when the checkpoint was taken. The
    /// driver trims its journal to this point: recovery restores the
    /// frame and replays only the journal suffix past this count.
    pub events_applied: u64,
    /// Session rows the frame carries — observability only.
    pub sessions: u64,
    /// The frame payload ([`columnar::parse`] +
    /// [`ShardState::apply_frame`] restore it).
    pub bytes: Vec<u8>,
}

/// A restorable snapshot of one pooled group.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GroupCheckpoint {
    /// Service-wide group id.
    pub group: u64,
    /// The shared pool state.
    pub pool: PoolCheckpoint,
    /// `(raw pool member id, session key)` pairs, sorted by member id.
    pub members: Vec<(u64, u64)>,
}

struct GroupEntry {
    /// Service-wide group id (the `group_index` key, kept for checkpoints
    /// and cleanup).
    group: u64,
    pool: SessionPool,
    /// `(pool member id, session key, session slot)` in join order. Pool
    /// ids are issued by one monotone counter, so this is ascending by
    /// member id — the tick kernel merges it against the pool's (equally
    /// ascending) allocation output with one cursor. The one place a
    /// member's pool id is kept.
    by_member: Vec<(PoolSessionId, u64, u32)>,
}

impl GroupEntry {
    /// The pool id of the member at session slot `i`.
    fn member_at(&self, i: usize) -> Option<PoolSessionId> {
        let mut members = self.by_member.iter();
        members.find(|m| m.2 as usize == i).map(|m| m.0)
    }
}

/// Tenant names by `u32` id: what a shard slot's `tenant` column and the
/// driver's placement table index. Both intern the `Arc` admission hands
/// out, so a name is held once whatever its population; a frame apply
/// rebuilds a shard's table from the frame's string table.
#[derive(Default)]
pub(crate) struct Tenants {
    names: Vec<Arc<str>>,
    ids: HashMap<Arc<str>, u32>,
}

impl Tenants {
    /// The id of `name`, registered on first sight.
    pub(crate) fn intern(&mut self, name: &Arc<str>) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("tenant ids fit a u32");
        self.names.push(Arc::clone(name));
        self.ids.insert(Arc::clone(name), id);
        id
    }

    pub(crate) fn name(&self, id: u32) -> &Arc<str> {
        &self.names[id as usize]
    }

    fn clear(&mut self) {
        self.names.clear();
        self.ids.clear();
    }
}

/// Slot flags packed into the `flags` column. Crate-visible because the
/// columnar checkpoint codec encodes the flags column verbatim and
/// validates decoded frames against these bits.
pub(crate) const F_LIVE: u32 = 1;
/// The slot runs the single-session algorithm (vs a pooled member).
pub(crate) const F_DEDICATED: u32 = 2;
/// The session is draining out.
pub(crate) const F_LEAVING: u32 = 4;
/// The bounds trackers are active — the columnar form of the algorithm's
/// `Mode::Stage` (clear during a RESET).
pub(crate) const F_STAGE_OPEN: u32 = 8;

/// Upper bound on the session and group keys a checkpoint frame may
/// carry. The driver issues keys from one monotone counter and the
/// [`crate::slab::KeyMap`] is direct-mapped (one 4-byte cell per key up to
/// the maximum), so the table a frame forces into existence is
/// proportional to its largest key — a hostile frame naming key `2^60`
/// would otherwise demand an exbi-scale allocation before any row
/// semantics are checked. `2^28` keys (a 1 GiB table, far past any
/// population this service addresses) keeps the worst case survivable
/// while never rejecting a frame a real driver could produce.
pub(crate) const MAX_FRAME_KEY: u64 = 1 << 28;

/// The per-shard session store and tick loop.
pub(crate) struct ShardState {
    shard: u64,
    /// Epoch of the worker driving this state (0 inline); stamped into
    /// collect replies so the driver can discard superseded reports.
    pub(crate) epoch: u64,
    single_cfg: SingleConfig,
    multi_cfg: MultiConfig,
    cost: CostModel,
    window: usize,
    /// Session key → slot ([`ShardState::slot_of`] checks the hit).
    index: KeyMap,
    /// The session slots below `cols.bound()`: taken ones are the live
    /// sessions (`F_LIVE` set). Reuse is LIFO — frames list rows, and the
    /// dedicated sweep steps sessions, in slot order.
    slots: Slots,
    /// The names behind the `tenant` column.
    tenants: Tenants,
    groups: Slab<GroupEntry>,
    group_index: KeyMap,
    /// The sweep work lists, reused across ticks.
    scratch: SweepScratch,
    /// Every session's state and identity, one slot each.
    cols: Columns,
    /// Copy-on-retire: shared with outstanding reports and checkpoints; a
    /// retirement while shared clones once, then appends in place.
    retired: Arc<Vec<SessionMetrics>>,
    /// Stages completed by sessions and groups that have since retired;
    /// with the live columns and pools, the shard's certified-stage count.
    stages_retired: u64,
    ticks: u64,
}

impl ShardState {
    pub(crate) fn new(shard: u64, cfg: &ServiceConfig) -> Self {
        ShardState {
            shard,
            epoch: 0,
            single_cfg: cfg.single_config(),
            multi_cfg: cfg.multi_config(),
            cost: cfg.cost,
            window: cfg.w,
            index: KeyMap::new(),
            slots: Slots::default(),
            tenants: Tenants::default(),
            groups: Slab::new(),
            group_index: KeyMap::new(),
            scratch: SweepScratch::default(),
            cols: Columns::default(),
            retired: Arc::new(Vec::new()),
            stages_retired: 0,
            ticks: 0,
        }
    }

    /// Turns a retired worker's state into a restore target: allocations
    /// are kept (columns, ring blocks, slab and key tables, the sweep
    /// scratch, whose lists every sweep clears before use),
    /// contents are not — the retiree may have been torn mid-event by the
    /// very panic that retired it, so everything a fresh state starts
    /// without is emptied here and rebuilt by the restore through the
    /// same `grow_to`/`take_slot` calls a fresh state takes.
    pub(crate) fn recycle(mut self) -> Self {
        self.epoch = 0;
        self.index.clear();
        self.slots.reset(0);
        self.tenants.clear();
        self.groups.clear();
        self.group_index.clear();
        self.cols.recycle();
        match Arc::get_mut(&mut self.retired) {
            Some(retired) => retired.clear(),
            None => self.retired = Arc::default(), // still held by a report
        }
        self.stages_retired = 0;
        self.ticks = 0;
        self
    }

    /// The supervisor's restore, into an empty state (fresh or recycled):
    /// the retained checkpoint frame, if one was ever accepted, then the
    /// journal since it.
    ///
    /// # Panics
    ///
    /// On a frame that does not parse or apply, and on a poison event —
    /// the supervisor runs this under `catch_unwind`.
    pub(crate) fn rebuild<'a>(
        mut self,
        frame: Option<&[u8]>,
        journal: impl IntoIterator<Item = &'a ReplayEvent>,
    ) -> Self {
        if let Some(bytes) = frame {
            let frame = columnar::parse(bytes).expect("retained checkpoint frame must parse");
            self.apply_frame(&frame, &mut ApplyScratch::default())
                .expect("retained checkpoint frame must apply");
        }
        for ev in journal {
            self.apply(ev);
        }
        self.cols.hull_free.clear(); // the spills no hull took
        self
    }

    /// Live sessions on this shard.
    pub(crate) fn live_sessions(&self) -> usize {
        self.slots.len()
    }

    /// The live sessions' slots, in slot order.
    fn live_slots(&self) -> impl Iterator<Item = usize> + '_ {
        let flags = self.cols.flags.iter().enumerate();
        flags.filter_map(|(i, &f)| (f & F_LIVE != 0).then_some(i))
    }

    /// The slot of live session `key`. The map is kept exact — every
    /// vacated slot's key is removed from it — and a hit is checked all
    /// the same: it must name a live slot holding the key.
    fn slot_of(&self, key: u64) -> Option<usize> {
        let i = self.index.get(key)? as usize;
        let live = self.cols.flags.get(i).is_some_and(|&f| f & F_LIVE != 0);
        (live && self.cols.keys[i] == key).then_some(i)
    }

    /// Ticks this shard has processed.
    pub(crate) fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Applies one replayable event — the single entry point every
    /// execution path (worker batch, inline dispatch, recovery replay)
    /// goes through.
    pub(crate) fn apply(&mut self, event: &ReplayEvent) {
        match event {
            ReplayEvent::JoinDedicated { key, tenant } => self.join_dedicated(*key, tenant),
            ReplayEvent::JoinGroup {
                group,
                tenant,
                members,
            } => self.join_group(*group, tenant, members),
            ReplayEvent::Leave { key } => self.leave(*key),
            ReplayEvent::Tick { arrivals } => self.tick(arrivals.iter()),
            ReplayEvent::Forget { key } => self.forget(*key),
            ReplayEvent::Import { key, tenant, lease } => self.import(*key, tenant, lease),
        }
    }

    /// Removes a migrated-away session without pushing retired metrics:
    /// the session continues on another shard (possibly in another
    /// process) and its meter state travelled with the checkpoint, so
    /// retiring it here would double-count it in the merged view.
    fn forget(&mut self, key: u64) {
        // Only dedicated sessions are exported, so no group bookkeeping.
        if let Some(i) = self.slot_of(key) {
            self.vacate(key, i);
        }
    }

    /// The shard-uniform kernel parameters, derived from the service
    /// config every session on this shard runs.
    fn params(&self) -> KernelParams {
        KernelParams {
            b_max: self.single_cfg.b_max,
            d_o: self.single_cfg.d_o as u64,
            high_denom: self.single_cfg.u_o * self.single_cfg.w as f64,
            w: self.window,
        }
    }

    /// Takes a slot for session `key` — the most recently vacated one,
    /// else a new one past the columns' bound, which grow to cover it —
    /// and maps the key to it. The caller then writes the slot
    /// (key and flags included). Also says whether the slot is one the
    /// growth just filled with the vacant-slot state.
    fn take_slot(&mut self, key: u64) -> (usize, bool) {
        let bound = self.cols.bound();
        let slot = self.slots.take(bound);
        self.index.insert(key, slot);
        let i = slot as usize;
        self.cols.grow_to(i + 1, self.window);
        (i, i == bound)
    }

    /// Unmaps `key`, frees its slot `i` for the next join and returns the
    /// slot to the vacant-slot state.
    fn vacate(&mut self, key: u64, i: usize) {
        self.index.remove(key);
        self.slots.vacate(i as u32);
        self.cols.reset_scalars(i);
    }

    /// Places a group and indexes it by id.
    fn insert_group(
        &mut self,
        group: u64,
        pool: SessionPool,
        by_member: Vec<(PoolSessionId, u64, u32)>,
    ) -> u32 {
        let gslot = self.groups.insert(GroupEntry {
            group,
            pool,
            by_member,
        });
        self.group_index.insert(group, gslot);
        for &(_, _, slot) in &self.groups.get(gslot).expect("just placed").by_member {
            self.cols.group[slot as usize] = gslot;
        }
        gslot
    }

    fn join_dedicated(&mut self, key: u64, tenant: &Arc<str>) {
        let (i, vacant) = self.take_slot(key);
        self.cols.init_fresh(i, key, vacant);
        self.cols.init_dedicated(i);
        self.cols.tenant[i] = self.tenants.intern(tenant);
    }

    fn join_group(&mut self, group: u64, tenant: &Arc<str>, members: &[u64]) {
        let gslot = match self.group_index.get(group) {
            Some(slot) => slot,
            None => {
                let pool = SessionPool::new(self.multi_cfg.clone());
                self.insert_group(group, pool, Vec::new())
            }
        };
        let tenant = self.tenants.intern(tenant);
        // Two-phase: every member joins the pool first (the pool's phase
        // arithmetic sees the whole batch), then the sessions land.
        let mut joined = Vec::with_capacity(members.len());
        {
            let entry = self.groups.get_mut(gslot).expect("group slot just placed");
            for &key in members {
                joined.push((key, entry.pool.join()));
            }
        }
        for (key, member) in joined {
            let (i, vacant) = self.take_slot(key);
            self.cols.init_fresh(i, key, vacant);
            self.cols.tenant[i] = tenant;
            self.cols.group[i] = gslot;
            self.groups
                .get_mut(gslot)
                .expect("group slot just placed")
                .by_member
                .push((member, key, i as u32));
        }
    }

    fn leave(&mut self, key: u64) {
        let Some(i) = self.slot_of(key) else {
            return; // already retired — leave is idempotent at the shard
        };
        let flags = self.cols.flags[i];
        if flags & F_LEAVING != 0 {
            return;
        }
        self.cols.flags[i] |= F_LEAVING;
        if flags & F_DEDICATED != 0 {
            // Nothing to tell the allocator; the session now receives zero
            // arrivals and retires once its link queue drains.
            if self.cols.shadow_backlog[i] <= EPS {
                self.retire(key);
            }
        } else if let Some(g) = self.groups.get_mut(self.cols.group[i]) {
            // The pool moves the residual backlog to the overflow queue
            // and retires the slot once it drains.
            if let Some(member) = g.member_at(i) {
                let _ = g.pool.leave(member);
            }
        }
    }

    /// Advances every session one tick on `arrivals` — the caller's
    /// slice inline, a [`TickBatch`] decoded on the fly in a worker or a
    /// replay; either way in routing order.
    pub(crate) fn tick(&mut self, arrivals: impl IntoIterator<Item = (u64, f64)>) {
        if self.slots.len() == 0 {
            // Idle shard: no sessions means no groups either (a group
            // dissolves with its last member), so only the clock moves.
            self.ticks += 1;
            return;
        }
        let bound = self.cols.bound();
        // Scatter pass: stage the batched arrivals into the arrived column
        // — one direct-mapped lookup, one array write, and one
        // touched-index record per arrival, so the un-scatter afterwards
        // costs O(arrivals), not O(slots) (the column is all-zero between
        // ticks by construction). The service boundary validated every
        // entry (finite, non-negative); the kernel asserts that contract
        // instead of clamping.
        debug_assert!(
            self.cols.arrived[..bound].iter().all(|&a| a == 0.0),
            "the arrived column rests at all-zero between ticks"
        );
        debug_assert!(self.cols.touched.is_empty());
        for (key, bits) in arrivals {
            debug_assert!(
                bits.is_finite() && bits >= 0.0,
                "arrival ({key}, {bits}) entered the kernel unvalidated"
            );
            if let Some(slot) = self.index.get(key) {
                debug_assert_eq!(self.cols.keys[slot as usize], key, "the key map is exact");
                self.cols.arrived[slot as usize] += bits;
                self.cols.touched.push(slot);
            }
        }
        self.tick_staged(bound);
    }

    /// The rest of [`ShardState::tick`] once the arrivals are scattered
    /// into the `arrived` column: kept out of the generic scatter so the
    /// kernel is compiled once.
    fn tick_staged(&mut self, bound: usize) {
        let p = self.params();
        let mut to_retire: Vec<u64> = Vec::new();
        {
            let ShardState {
                groups,
                scratch,
                cols,
                ..
            } = self;

            // Group pass: submit and tick each pool once, gathering the
            // members' meter inputs; the metering itself runs below in
            // the same phase passes as the dedicated sweep. Pools never
            // read meter columns and each member is metered exactly once,
            // so deferring the meter past the pool loop reorders across
            // independent state only.
            scratch.grp.clear();
            scratch.grp_arr.clear();
            scratch.grp_alloc.clear();
            for (_, group) in groups.iter_mut() {
                for &(member, _, slot) in &group.by_member {
                    let i = slot as usize;
                    if cols.flags[i] & F_LEAVING == 0 {
                        let _ = group.pool.submit(member, cols.arrived[i]);
                    }
                }
                let allocs = group.pool.tick();
                // Only the count of completed stages is ever read back,
                // so the pool's log must not grow with uptime.
                group.pool.forget_closed_stages();
                // Pool member ids come from one monotone counter and both
                // the pool's slot order and `by_member` preserve join
                // order, so the allocation output and the membership are
                // two ascending runs: matching them is a single merge
                // cursor. A `by_member` entry the output skips is a
                // leaving member the pool retired (its slot drained on an
                // earlier tick).
                debug_assert!(
                    group.by_member.windows(2).all(|w| w[0].0 < w[1].0),
                    "group membership is ascending by pool member id"
                );
                let mut mi = 0usize;
                for (member, alloc) in allocs {
                    while group.by_member.get(mi).map(|&(m, _, _)| m) != Some(member) {
                        let &(_, key, _) = group
                            .by_member
                            .get(mi)
                            .expect("pool reported an unknown member");
                        to_retire.push(key);
                        mi += 1;
                    }
                    let (_, _, slot) = group.by_member[mi];
                    mi += 1;
                    let i = slot as usize;
                    let arrived = if cols.flags[i] & F_LEAVING != 0 {
                        0.0
                    } else {
                        cols.arrived[i]
                    };
                    scratch.grp.push(i as u32);
                    scratch.grp_arr.push(arrived);
                    scratch.grp_alloc.push(alloc);
                }
                for &(_, key, _) in &group.by_member[mi..] {
                    to_retire.push(key);
                }
            }
            if !scratch.grp.is_empty() {
                cols.pass_meter_flow(
                    &scratch.grp,
                    &scratch.grp_arr,
                    &scratch.grp_alloc,
                    &mut scratch.served,
                );
                cols.pass_meter_fifo(&scratch.grp, &scratch.grp_arr, &scratch.served, p.w);
                cols.pass_meter_window(&scratch.grp, &scratch.grp_arr, &scratch.grp_alloc, p.w);
            }

            // Dedicated sweep ([`Columns::sweep`]): dense index lists
            // drive vectorization-friendly phase passes, in slot order.
            cols.sweep(bound, &p, scratch);
            to_retire.append(&mut scratch.retire);

            // O(arrivals) un-scatter: restore the column's all-zero
            // resting state by clearing only the touched indices.
            while let Some(i) = cols.touched.pop() {
                cols.arrived[i as usize] = 0.0;
            }
        }

        for key in to_retire {
            self.retire(key);
        }
        self.ticks += 1;
    }

    /// Freezes a session's metrics and removes it from the live set.
    fn retire(&mut self, key: u64) {
        let Some(i) = self.slot_of(key) else {
            return;
        };
        if self.cols.flags[i] & F_DEDICATED == 0 {
            let gslot = self.cols.group[i];
            let now_empty = match self.groups.get_mut(gslot) {
                Some(g) => {
                    g.by_member.retain(|m| m.2 as usize != i);
                    g.by_member.is_empty()
                }
                None => false,
            };
            if now_empty {
                let g = self.groups.remove(gslot).expect("checked above");
                self.group_index.remove(g.group);
                self.stages_retired += g.pool.stage_log().completed() as u64;
            }
        }
        self.stages_retired += self.cols.stages_completed[i];
        let tenant = Arc::clone(self.tenants.name(self.cols.tenant[i]));
        let metrics = self.cols.metrics(i, key, tenant, self.shard, self.cost);
        self.vacate(key, i);
        Arc::make_mut(&mut self.retired).push(metrics);
    }

    /// Streams the shard's metrics answer to `send`: its live rows
    /// `per_report` a report, the [`ShardReport::last`] one also carrying
    /// the stage count. Stops early once `send` says the collector is
    /// gone. A report that is the whole answer has room for the retired
    /// list too: the collector may make it the table.
    pub(crate) fn report(&self, per_report: usize, mut send: impl FnMut(ShardReport) -> bool) {
        let rows = self.live_sessions() + self.retired.len();
        let mut live_rows = self.live_rows().peekable();
        let mut left = self.live_sessions();
        loop {
            let whole = if left <= per_report {
                self.retired.len()
            } else {
                0
            };
            let mut live = Vec::with_capacity(per_report.min(left) + whole);
            live.extend(live_rows.by_ref().take(per_report));
            left = left.saturating_sub(live.len());
            let last = live_rows.peek().is_none();
            let report = ShardReport {
                shard: self.shard,
                epoch: self.epoch,
                retired: Arc::clone(&self.retired),
                live,
                rows,
                last,
                stages_completed: if last { self.stages_completed() } else { 0 },
                frame: Vec::new(),
            };
            if !send(report) || last {
                return;
            }
        }
    }

    /// Live slot `i`'s metrics at their current totals.
    fn metrics_at(&self, i: usize) -> SessionMetrics {
        let tenant = Arc::clone(self.tenants.name(self.cols.tenant[i]));
        self.cols
            .metrics(i, self.cols.keys[i], tenant, self.shard, self.cost)
    }

    /// Every live session's metrics, in slot order.
    pub(crate) fn live_rows(&self) -> impl Iterator<Item = SessionMetrics> + '_ {
        self.live_slots().map(|i| self.metrics_at(i))
    }

    /// Live session `key`'s metrics, or `None` when it is not live here.
    pub(crate) fn live_metrics(&self, key: u64) -> Option<SessionMetrics> {
        self.slot_of(key).map(|i| self.metrics_at(i))
    }

    /// Every retired session's metrics, in retirement order.
    pub(crate) fn retired(&self) -> &[SessionMetrics] {
        &self.retired
    }

    /// Stages completed on this shard so far, by dedicated sessions and
    /// pooled groups, live and retired.
    pub(crate) fn stages_completed(&self) -> u64 {
        // Vacant and pooled slots rest at zero, so the column sums whole.
        let live_stages: u64 = self.cols.stages_completed.iter().sum();
        let pools = self.groups.iter();
        let pool_stages: usize = pools.map(|(_, g)| g.pool.stage_log().completed()).sum();
        self.stages_retired + live_stages + pool_stages as u64
    }
}
