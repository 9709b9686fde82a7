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
//! periodically ships a [`ShardCheckpoint`] — the binary-encoded state of
//! every session's meter and algorithm — back to the driver, honours a
//! cancellation flag so a superseded worker cannot corrupt anything after
//! the supervisor moves on, and hosts the fault-injection hooks of
//! [`crate::fault`]. Every message carries the worker's *epoch* so the
//! driver can discard stragglers from replaced workers.

use crate::codec::columnar;
use crate::config::ServiceConfig;
use crate::fault::{FaultKind, FaultPlan};
use crate::meter::{delay_ticks, MeterCheckpoint, SessionMetrics};
use crate::slab::{KeyMap, Slab, Slots};
use cdba_analysis::cost::CostModel;
use cdba_core::config::{MultiConfig, SingleConfig};
use cdba_core::multi::pool::{PoolCheckpoint, SessionId as PoolSessionId, SessionPool};
use cdba_core::single::{crossed, SingleCheckpoint};
use cdba_core::stage::StageLog;
use cdba_core::{
    bounds::{HighTrackerState, LowTrackerState},
    next_power_of_two,
};
use cdba_sim::streaming::DelayTrackerState;
use cdba_traffic::EPS;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// One message on a threaded shard's queue. Within a shard, messages —
/// and the events inside a batch — apply in send order (the channels are
/// FIFO), which is all the ordering the executor needs.
#[derive(Debug)]
pub(crate) enum Event {
    /// Replayable events, in dispatch order: one sealed segment of the
    /// driver's journal, shared with it rather than copied. A lone event
    /// is a batch of one; there is no other way in for a [`ReplayEvent`].
    Batch(Segment),
    /// Report all metrics (live and retired sessions) back, or the
    /// shard's state as one frame for a process image.
    Collect {
        /// Where to send the report.
        reply: crossbeam::channel::Sender<ShardReport>,
        /// What the report carries.
        what: Collect,
    },
    /// Capture one session's restorable state (read-only, like
    /// [`Event::Collect`]) for a live migration. `None` if the key is not
    /// live on this shard or the session is pooled.
    ExportSession {
        /// The session to capture.
        key: u64,
        /// Where to send the captured state.
        reply: crossbeam::channel::Sender<Option<SessionCheckpoint>>,
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

/// What an [`Event::Collect`] asks a shard for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Collect {
    /// Every session's metrics: [`ShardReport::live`] and
    /// [`ShardReport::retired`].
    Metrics,
    /// The whole shard as one columnar frame in [`ShardReport::image`],
    /// written into a fresh buffer — never the retained frame's spare.
    Image,
}

/// One shard's answer to [`Event::Collect`].
///
/// Retired metrics are shared with the shard's accumulator (`Arc`), so a
/// steady-state report allocates proportionally to the *live* session
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
    /// Metrics of live sessions at their current totals, in slot order.
    pub live: Vec<SessionMetrics>,
    /// Stages completed on this shard so far, by dedicated sessions and
    /// pooled groups, live and retired — each certifies ≥ 1 offline change.
    pub stages_completed: u64,
    /// The shard's frame for a [`Collect::Image`] request (the metric
    /// fields then stay empty); empty for [`Collect::Metrics`].
    pub image: Vec<u8>,
}

/// A control event that mutates shard state — everything but the
/// read-only `Collect`/`ExportSession`. The driver journals each one and
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
    /// Re-create a migrated-in dedicated session from its checkpoint.
    Import {
        /// The captured state (key already rewritten to this service's).
        cp: Arc<SessionCheckpoint>,
    },
}

/// One shard's arrivals for one tick as the journal keeps them: sealed
/// bytes, in routing order. Each arrival is one LEB128 varint of the
/// 65-bit value `zigzag(key − previous key) << 1 | wide` (the previous key
/// starts at 0; the delta wraps), then the bits as a little-endian `f32`
/// when that round-trips bit for bit (`wide` = 0), else as the `f64`.
/// Ascending keys with integer bits below 2^24 cost 5 bytes an arrival;
/// nothing costs more than 18 (a 10-byte varint and an `f64`). Decoding
/// yields the exact pairs in the same order, so a tick from a batch is
/// bitwise the tick from the slice it was encoded from.
#[derive(Debug, Clone)]
pub(crate) struct TickBatch(Arc<[u8]>);

impl TickBatch {
    /// Encodes `arrivals` through `buf` (a reusable scratch buffer, left
    /// holding the encoding) into one allocation of the exact length.
    pub(crate) fn encode(arrivals: &[(u64, f64)], buf: &mut Vec<u8>) -> Self {
        buf.clear();
        let mut prev = 0u64;
        for &(key, bits) in arrivals {
            let delta = key.wrapping_sub(prev) as i64;
            prev = key;
            let zigzag = ((delta << 1) ^ (delta >> 63)) as u64;
            let narrow = bits as f32;
            let wide = f64::from(narrow).to_bits() != bits.to_bits();
            let mut byte = ((zigzag & 0x3f) as u8) << 1 | u8::from(wide);
            let mut rest = zigzag >> 6;
            while rest != 0 {
                buf.push(byte | 0x80);
                byte = (rest & 0x7f) as u8;
                rest >>= 7;
            }
            buf.push(byte);
            if wide {
                buf.extend_from_slice(&bits.to_le_bytes());
            } else {
                buf.extend_from_slice(&narrow.to_le_bytes());
            }
        }
        TickBatch(Arc::from(buf.as_slice()))
    }

    /// Encoded bytes held.
    pub(crate) fn bytes(&self) -> usize {
        self.0.len()
    }

    /// The arrivals, decoded in encoding order.
    pub(crate) fn iter(&self) -> TickArrivals<'_> {
        TickArrivals {
            rest: &self.0,
            key: 0,
        }
    }
}

#[cfg(test)]
impl From<Vec<(u64, f64)>> for TickBatch {
    fn from(arrivals: Vec<(u64, f64)>) -> Self {
        TickBatch::encode(&arrivals, &mut Vec::new())
    }
}

/// Decoding iterator over a [`TickBatch`].
pub(crate) struct TickArrivals<'a> {
    rest: &'a [u8],
    key: u64,
}

impl Iterator for TickArrivals<'_> {
    type Item = (u64, f64);

    fn next(&mut self) -> Option<(u64, f64)> {
        let (&first, mut rest) = self.rest.split_first()?;
        let wide = first & 1 != 0;
        let mut zigzag = u64::from(first >> 1 & 0x3f);
        let mut byte = first;
        let mut shift = 6;
        while byte & 0x80 != 0 {
            let (&next, r) = rest.split_first().expect("a whole varint");
            (byte, rest) = (next, r);
            zigzag |= u64::from(byte & 0x7f) << shift;
            shift += 7;
        }
        self.key = self
            .key
            .wrapping_add((zigzag >> 1) ^ (zigzag & 1).wrapping_neg());
        let bits = if wide {
            let (b, r) = rest.split_first_chunk::<8>().expect("whole f64");
            rest = r;
            f64::from_le_bytes(*b)
        } else {
            let (b, r) = rest.split_first_chunk::<4>().expect("whole f32");
            rest = r;
            f64::from(f32::from_le_bytes(*b))
        };
        self.rest = rest;
        Some((self.key, bits))
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
    /// [`ShardState::apply_frame`] restore it), shared with checkpoint
    /// subscribers rather than copied.
    pub bytes: Arc<Vec<u8>>,
}

/// A restorable snapshot of one session.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SessionCheckpoint {
    /// Service-wide session key.
    pub key: u64,
    /// Owning tenant.
    pub tenant: Arc<str>,
    /// The meter state.
    pub meter: MeterCheckpoint,
    /// `true` if the session is draining out.
    pub leaving: bool,
    /// Single-session algorithm state; `Some` iff the session is
    /// dedicated.
    pub dedicated: Option<SingleCheckpoint>,
    /// `(group id, raw pool member id)`; `Some` iff the session is pooled.
    pub pooled: Option<(u64, u64)>,
}

impl SessionCheckpoint {
    /// Domain-validates a decoded migration blob before any of it reaches
    /// a shard: every `f64` must be finite (non-negative where the domain
    /// requires it) and the tracker shapes must be internally consistent,
    /// i.e. exactly the states `HighTracker::restore` and friends would
    /// otherwise reject by panicking. And what the kernel derives rather
    /// than stores must agree with its source: the delay tracker and the
    /// algorithm run on the meter's clock, an open stage started at that
    /// clock less its ticks, its high window is the newest
    /// `min(stage ticks, W)` arrivals of the meter's ring, and the delay
    /// FIFO's entries behind its head that the ring covers are the ring's
    /// arrivals, bit for bit. Returns the first offending field.
    ///
    /// Worker-produced checkpoints satisfy this by construction; only
    /// blobs crossing a trust boundary (fleet migration import) pay the
    /// scan.
    pub(crate) fn validate(&self) -> Result<(), &'static str> {
        fn nn(v: f64) -> bool {
            v.is_finite() && v >= 0.0
        }
        let m = &self.meter;
        if m.window == 0 {
            return Err("meter.window");
        }
        if !nn(m.cost.per_bandwidth_tick) || !nn(m.cost.per_change) {
            return Err("meter.cost");
        }
        if !nn(m.shadow_backlog) {
            return Err("meter.shadow_backlog");
        }
        if !nn(m.delay.max_delay_exact) {
            return Err("meter.delay.max_delay_exact");
        }
        if m.delay.pending.iter().any(|&(_, bits)| !nn(bits)) {
            return Err("meter.delay.pending");
        }
        if m.recent.len() > m.window || m.recent.len() as u64 > m.ticks {
            return Err("meter.recent");
        }
        if m.recent.iter().any(|&(a, b)| !nn(a) || !nn(b)) {
            return Err("meter.recent");
        }
        if m.delay.tick as u64 != m.ticks {
            return Err("meter.delay.tick");
        }
        let pending = m.delay.pending.iter().map(|&(t, b)| (t as u64, b));
        if !crate::meter::pending_agrees(pending, m.ticks, m.recent.iter().map(|p| p.0)) {
            return Err("meter.delay.pending");
        }
        if !m.window_arrived.is_finite() || !m.window_allocated.is_finite() {
            return Err("meter.window_sums");
        }
        if m.min_windowed_utilization.is_some_and(|u| !nn(u)) {
            return Err("meter.min_windowed_utilization");
        }
        if !nn(m.current_alloc) {
            return Err("meter.current_alloc");
        }
        if !nn(m.peak_allocation) {
            return Err("meter.peak_allocation");
        }
        if !nn(m.total_arrived) || !nn(m.total_served) || !nn(m.total_allocated) {
            return Err("meter.totals");
        }
        if self.dedicated.is_some() == self.pooled.is_some() {
            return Err("kind");
        }
        if let Some(alg) = &self.dedicated {
            let cfg = &alg.cfg;
            if !(cfg.b_max.is_finite() && cfg.b_max > 0.0) {
                return Err("alg.cfg.b_max");
            }
            if !(cfg.u_o.is_finite() && cfg.u_o > 0.0 && cfg.u_o <= 1.0) {
                return Err("alg.cfg.u_o");
            }
            if cfg.d_o == 0 {
                return Err("alg.cfg.d_o");
            }
            if cfg.w == 0 {
                return Err("alg.cfg.w");
            }
            if !nn(alg.backlog) {
                return Err("alg.backlog");
            }
            if !nn(alg.b_on) {
                return Err("alg.b_on");
            }
            if alg.tick as u64 != m.ticks {
                return Err("alg.tick");
            }
            let start = |h: &HighTrackerState| m.ticks.checked_sub(h.ticks as u64);
            if alg.stages.open_start().map(|s| Some(s as u64)) != alg.stage_high.as_ref().map(start)
            {
                return Err("alg.stages");
            }
            match (&alg.stage_low, &alg.stage_high) {
                (Some(low), Some(high)) => {
                    if low.d_o == 0 {
                        return Err("alg.stage_low.d_o");
                    }
                    if low
                        .hull
                        .iter()
                        .any(|&(x, y)| !x.is_finite() || !y.is_finite())
                    {
                        return Err("alg.stage_low.hull");
                    }
                    if !nn(low.total) || !nn(low.low) {
                        return Err("alg.stage_low");
                    }
                    if !(high.u_o.is_finite() && high.u_o > 0.0 && high.u_o <= 1.0) {
                        return Err("alg.stage_high.u_o");
                    }
                    if high.w == 0 {
                        return Err("alg.stage_high.w");
                    }
                    if !(high.grace.is_finite() && high.grace > 0.0) {
                        return Err("alg.stage_high.grace");
                    }
                    if !nn(high.window_sum) {
                        return Err("alg.stage_high.window_sum");
                    }
                    if high.min_window_sum.is_some_and(|s| !nn(s)) {
                        return Err("alg.stage_high.min_window_sum");
                    }
                    let n = high.ticks.min(m.window);
                    let suffix = m.recent[m.recent.len().saturating_sub(n)..].iter();
                    let window = high.window.iter().map(|a| a.to_bits());
                    if high.window.len() != n || !suffix.map(|p| p.0.to_bits()).eq(window) {
                        return Err("alg.stage_high.window");
                    }
                }
                (None, None) => {}
                _ => return Err("alg.stage"),
            }
        }
        Ok(())
    }

    /// Checks that an imported checkpoint runs the importing service's
    /// configuration: algorithm config, meter window, pricing, and stage
    /// tracker parameters must all match, and the two stage trackers must
    /// agree on the stage clock. Checkpoints produced by a service with
    /// the same configuration conform by construction; anything else
    /// would silently continue the session under different rules than it
    /// was admitted with — the kernel keeps one shard-wide parameter
    /// block instead of per-session config copies and would apply the
    /// service's parameters regardless, so a non-conforming blob is
    /// rejected here with a typed error instead.
    pub(crate) fn conforms(
        &self,
        single: &SingleConfig,
        cost: CostModel,
    ) -> Result<(), &'static str> {
        let m = &self.meter;
        if m.window != single.w {
            return Err("meter.window differs from the service window");
        }
        if m.cost != cost {
            return Err("meter.cost differs from the service pricing");
        }
        if let Some(alg) = &self.dedicated {
            if alg.cfg != *single {
                return Err("alg.cfg differs from the service config");
            }
            if let (Some(low), Some(high)) = (&alg.stage_low, &alg.stage_high) {
                if low.d_o != single.d_o {
                    return Err("alg.stage_low.d_o differs from the service config");
                }
                if high.u_o != single.u_o || high.w != single.w || high.grace != single.b_max {
                    return Err("alg.stage_high differs from the service config");
                }
                if low.ticks != high.ticks {
                    return Err("alg.stage clocks disagree");
                }
            }
        }
        Ok(())
    }
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

/// Shard-uniform kernel parameters, derived once per tick from the
/// service config. Every session on a shard runs the same configuration
/// (joins read it, and imports are validated against it), so none of
/// these belong in per-session state.
#[derive(Clone, Copy)]
struct KernelParams {
    /// Per-session allocation cap `B_max` (also the stage grace value).
    b_max: f64,
    /// Offline delay `D_O`.
    d_o: u64,
    /// `high(t)` denominator `U_O · W` — one multiply hoisted out of the
    /// per-session division; the product is the same f64 every time, so
    /// hoisting it cannot move a bit.
    high_denom: f64,
    /// Window length `W` (bounds-tracker and meter windows share it).
    w: usize,
}

/// A lower hull's vertices, oldest first, as a slot holds them: the
/// first [`HULL_INLINE`] inline (`head`), any past them in the slot's
/// spill (`tail`).
#[derive(Clone, Copy)]
struct HullView<'a> {
    head: &'a [(f64, f64)],
    tail: &'a [(f64, f64)],
}

impl<'a> HullView<'a> {
    fn len(self) -> usize {
        self.head.len() + self.tail.len()
    }

    fn at(self, k: usize) -> (f64, f64) {
        match self.head.get(k) {
            Some(&v) => v,
            None => self.tail[k - self.head.len()],
        }
    }

    fn iter(self) -> impl Iterator<Item = &'a (f64, f64)> {
        self.head.iter().chain(self.tail)
    }
}

/// How many of `hull`'s vertices stay once `p` is pushed: the tail is
/// popped while `p` makes it non-convex — `HullLowTracker::add_point`,
/// same cross-product test. `p` then lands at that index.
fn hull_keep(hull: HullView<'_>, p: (f64, f64)) -> usize {
    let mut n = hull.len();
    while n >= 2 {
        let (a, b) = (hull.at(n - 2), hull.at(n - 1));
        let cross = (b.0 - a.0) * (p.1 - a.1) - (b.1 - a.1) * (p.0 - a.0);
        if cross <= 0.0 {
            n -= 1;
        } else {
            break;
        }
    }
    n
}

/// Maximum slope from a hull vertex to the query point —
/// `HullLowTracker::max_slope`, same unimodal binary search. The slope
/// at the answer index was already computed by the search's last
/// comparison, so it is reused instead of divided again (the same index
/// gives the same f64 — division is deterministic).
fn hull_max_slope(hull: HullView<'_>, q: (f64, f64)) -> f64 {
    debug_assert!(hull.len() > 0);
    let slope_to = |i: usize| {
        let p = hull.at(i);
        (q.1 - p.1) / (q.0 - p.0)
    };
    let (mut lo, mut hi) = (0usize, hull.len() - 1);
    let mut cached = None;
    while lo < hi {
        let mid = (lo + hi) / 2;
        let a = slope_to(mid);
        let b = slope_to(mid + 1);
        if a < b {
            lo = mid + 1;
            cached = Some((mid + 1, b));
        } else {
            hi = mid;
            cached = Some((mid, a));
        }
    }
    match cached {
        Some((i, s)) if i == lo => s,
        _ => slope_to(lo),
    }
}

/// Structure-of-arrays per-session state: one dense column per scalar
/// field the tick kernel reads or writes, indexed by session slot and
/// grouped below by the sweep phase that touches it. Each phase pass
/// streams exactly the columns it uses, so the cache-line footprint of a
/// session-tick is the sum of the phase working sets — roughly half the
/// packed-record layout this replaces, which dragged all 256 bytes of a
/// slot through the cache on every pass whether the pass read them or
/// not. A slot owns no heap object on feasible traffic: the lower hull
/// keeps [`HULL_INLINE`] vertices in place and spills only past them, and
/// the delay FIFO's cold spill allocates only for an entry older than the
/// window. There is no per-slot configuration (every session on a shard
/// runs the shard's [`KernelParams`]; imports are validated to conform at
/// the service boundary).
///
/// The sweep phases ([`Columns::sweep`]) replicate
/// `SingleSession::on_tick` (with its `HullLowTracker` / `HighTracker`
/// pushes inlined) and `SignallingMeter::record` float-op for float-op
/// *per field*: one field's operation sequence is never reordered, while
/// independent fields may advance in different passes — IEEE 754 ops are
/// deterministic functions of their inputs, so reordering across fields
/// cannot move a bit of any of them. `tests/tests/ctrl_vs_core.rs` holds
/// the columns to those objects bit for bit.
#[derive(Default)]
struct Columns {
    // -- scatter --
    /// Batched arrivals staged for the current tick (the scatter target).
    /// All-zero between ticks: the scatter records every written index in
    /// `touched` and the tick clears exactly those — O(arrivals), not
    /// O(slots).
    arrived: Vec<f64>,
    /// Slot indices the current tick's scatter wrote.
    touched: Vec<u32>,
    // -- identity --
    /// `F_*` occupancy and mode bits: `F_LIVE` marks an occupied slot,
    /// `F_DEDICATED` its kind, `F_LEAVING` a drain.
    flags: Vec<u32>,
    /// Session key per slot. A [`KeyMap`] hit names a live session only
    /// while its slot holds the key with `F_LIVE` set.
    keys: Vec<u64>,
    // -- tracker-push phase --
    /// Stage ticks consumed (0 with no stage open) — the low and high
    /// trackers open together and advance in lockstep, so one counter
    /// serves both (imports are validated to agree). The open stage
    /// started at `meter_ticks` less this, and the high tracker's window
    /// is the last `min(this, W)` arrivals of the meter ring.
    stage_ticks: Vec<u64>,
    /// Low tracker: total bits arrived this stage.
    low_total: Vec<f64>,
    /// High tracker: running sum of its window.
    high_window_sum: Vec<f64>,
    /// High tracker: minimum full-window sum (`+∞` while in grace).
    high_min_window_sum: Vec<f64>,
    // -- hull-query phase --
    /// Low tracker: running-max `low`.
    low_low: Vec<f64>,
    // -- decision phase --
    /// Current `B_on` ladder level.
    b_on: Vec<f64>,
    /// Dedicated link-queue backlog (`SingleSession`'s `BitQueue`).
    backlog: Vec<f64>,
    /// Stages completed so far — the offline-change certificate count.
    /// The paper's algorithm forgets at every RESET and its proof needs
    /// only this count and the open stage's start, not a per-session log.
    stages_completed: Vec<u64>,
    // -- meter flow phase --
    /// Meter shadow link-queue backlog.
    shadow_backlog: Vec<f64>,
    /// Allocation of the previous tick (change detection).
    current_alloc: Vec<f64>,
    /// Allocation changes counted.
    changes: Vec<u64>,
    /// Peak single-tick allocation.
    peak_alloc: Vec<f64>,
    /// Total bits arrived.
    total_arrived: Vec<f64>,
    /// Total bits served.
    total_served: Vec<f64>,
    /// Total allocated bandwidth.
    total_allocated: Vec<f64>,
    // -- delay-FIFO phase --
    /// Arrival tick of the delay FIFO's head entry.
    pend_tick: Vec<u64>,
    /// Unserved bits of the delay FIFO's head entry.
    pend_bits: Vec<f64>,
    /// Delay FIFO occupancy, counting the inline head. Only the head is
    /// ever partly served, so the entries behind it are arrivals as they
    /// came: the `pend_spill` entries, then every window arrival
    /// `> EPS` newer than the head ([`Columns::pending`]).
    pend_len: Vec<u32>,
    /// Maximum whole-tick FIFO delay observed.
    max_delay: Vec<u64>,
    /// Maximum exact (fractional) FIFO delay observed.
    max_delay_exact: Vec<f64>,
    // -- utilization-window phase --
    /// Ticks metered: the session's one clock. The delay tracker and the
    /// algorithm (pooled slots have none) advance on every metered tick.
    meter_ticks: Vec<u64>,
    /// Rolling sum of windowed arrivals.
    window_arrived: Vec<f64>,
    /// Rolling sum of windowed allocation.
    window_allocated: Vec<f64>,
    /// Meter recent ring: oldest-entry index.
    recent_head: Vec<u32>,
    /// Meter recent ring: occupancy (≤ `W`).
    recent_len: Vec<u32>,
    /// Minimum windowed utilization so far (`NaN` encodes "none yet";
    /// a real minimum is never NaN — the ratio has a positive finite
    /// denominator).
    min_util: Vec<f64>,
    // -- side columns (variable-size per-slot state) --
    /// Meter `(arrivals, allocation)` rings, under
    /// `recent_head`/`recent_len`; the arrival halves are also the high
    /// tracker's window.
    recent_ring: SlotRing<(f64, f64)>,
    /// Delay-FIFO entries behind the head that the window evicted while
    /// they were still queued, oldest first; `None` while there are none
    /// (a held spill is never empty). An entry outlives the window only if
    /// its delay exceeds `W`, and the paper bounds every delay by
    /// `2·D_O ≤ W` on feasible traffic, so this column allocates only
    /// under overload or a window shorter than `2·D_O`.
    pend_spill: Vec<Spill>,
    // -- identity, by id --
    /// Owning tenant: an id into the shard's [`Tenants`].
    tenant: Vec<u32>,
    /// A pooled member's group: its slot in the shard's group slab (read
    /// only when `F_DEDICATED` is clear).
    group: Vec<u32>,
    // -- lower hull --
    /// Low tracker: vertex count of the lower convex hull.
    hull_len: Vec<u32>,
    /// Low tracker: the hull's first [`HULL_INLINE`] vertices
    /// `(x, P[x])`, oldest first; unread past `hull_len`.
    hull_pts: Vec<[(f64, f64); HULL_INLINE]>,
    /// Low tracker: the hull's vertices past the inline ones. Made when
    /// the hull first outgrows [`HULL_INLINE`] and kept, emptied, while
    /// it shrinks back, until the hull empties (a RESET, a vacated slot):
    /// a hull that swings across the capacity tick after tick would
    /// otherwise allocate and free a spill on every swing.
    hull_spill: Vec<HullSpill>,
    /// Emptied spills [`Columns::recycle`] kept, lowest slot last, for
    /// the frame apply or restore that follows to land long hulls in
    /// instead of allocating them afresh; whatever it leaves is dropped.
    hull_free: Vec<SpillBox>,
}

/// One slot's cold delay-FIFO spill: 8 bytes while empty.
type Spill = Option<Box<VecDeque<(u64, f64)>>>;

/// Lower-hull vertices a slot keeps inline. A hull gains one vertex per
/// stage tick and loses every vertex the next one makes non-convex; on
/// the benchmark's `dense-100k` traffic (100k sessions, read at ticks
/// 138–528) 98.8–99.0 % of the hulls hold at most 4 and none more than 6.
const HULL_INLINE: usize = 4;

/// One slot's cold hull spill: 8 bytes until the hull first outgrows its
/// inline vertices.
type HullSpill = Option<SpillBox>;

/// A hull spill's vertices, boxed so that a slot without one holds only
/// the 8-byte handle.
type SpillBox = Box<Vec<(f64, f64)>>;

/// An empty hull spill: one [`Columns::recycle`] kept, if any is left,
/// else a new one.
fn free_spill(free: &mut Vec<SpillBox>) -> SpillBox {
    match free.pop() {
        Some(mut spill) => {
            spill.clear();
            spill
        }
        None => Box::new(Vec::with_capacity(HULL_INLINE)),
    }
}

/// Walks every fixed-width column of a [`Columns`] — the scalars, the
/// inline hull and the spill handles — with its vacant-slot value (zeros,
/// with the grace `+∞` and none-yet `NaN` sentinels armed, and no
/// spill): `$body` runs once per column with `$col` bound to the column
/// and `$vacant` to that value. The one list behind growing, resetting and recycling, so the
/// three cannot disagree (`touched` is a work list, not a column, and is
/// not here). The order is the order `grow_to` allocates in, which is
/// heap layout and shows in peak RSS: append, do not reorder.
macro_rules! scalar_columns {
    ($cols:expr, |$col:ident, $vacant:ident| $body:expr) => {
        scalar_columns!(@each $cols, $col, $vacant, $body;
            arrived 0.0, flags 0, keys 0, stage_ticks 0, low_total 0.0,
            high_window_sum 0.0, high_min_window_sum f64::INFINITY,
            low_low 0.0, b_on 0.0, backlog 0.0, stages_completed 0,
            shadow_backlog 0.0, current_alloc 0.0, changes 0,
            peak_alloc 0.0, total_arrived 0.0, total_served 0.0,
            total_allocated 0.0, pend_tick 0, pend_bits 0.0, pend_len 0,
            max_delay 0, max_delay_exact 0.0, meter_ticks 0,
            window_arrived 0.0, window_allocated 0.0, recent_head 0,
            recent_len 0, min_util f64::NAN, pend_spill Spill::None,
            tenant 0, group 0, hull_len 0, hull_pts [(0.0, 0.0); HULL_INLINE],
            hull_spill HullSpill::None)
    };
    (@each $cols:expr, $col:ident, $vacant:ident, $body:expr; $($field:ident $value:expr),+) => {
        $({
            let ($col, $vacant) = (&mut $cols.$field, $value);
            $body;
        })+
    };
}

impl Columns {
    /// Extends every column to cover `bound` slots, each new one in the
    /// vacant-slot state. Reached from every join, frame apply and tick:
    /// at a covered population it is this one length compare.
    fn grow_to(&mut self, bound: usize, w: usize) {
        if self.flags.len() >= bound {
            return;
        }
        scalar_columns!(self, |col, vacant| col.resize(bound, vacant));
        self.recent_ring.grow_to(bound, w);
    }

    /// Empties the store, keeping allocations only: every fixed-width
    /// column goes to length 0, so [`Columns::grow_to`] re-arms each slot
    /// exactly as it does in a fresh store; the rings keep their blocks (a
    /// ring cell is only read under a cursor that was written first), and
    /// the hull spills move to `hull_free`, emptied when drawn.
    /// Nothing that was *in* a column survives, so a store torn mid-event
    /// is worth exactly as much as a fresh one.
    fn recycle(&mut self) {
        self.hull_free
            .extend(self.hull_spill.drain(..).rev().flatten());
        scalar_columns!(self, |col, _vacant| col.clear());
        self.touched.clear();
    }

    /// Slots the columns cover: one past the highest slot ever occupied
    /// since the store was last emptied.
    fn bound(&self) -> usize {
        self.flags.len()
    }

    /// Slot `i`'s lower hull, oldest vertex first.
    fn hull(&self, i: usize) -> HullView<'_> {
        let n = (self.hull_len[i] as usize).min(HULL_INLINE);
        HullView {
            head: &self.hull_pts[i][..n],
            tail: self.hull_spill[i].as_deref().map_or(&[], Vec::as_slice),
        }
    }

    /// Pushes `p` onto slot `i`'s lower hull ([`hull_keep`]): at index
    /// `n` inline, or past the inline vertices into the spill, made on
    /// first need and kept (see `hull_spill`).
    fn hull_push(&mut self, i: usize, p: (f64, f64)) {
        let n = hull_keep(self.hull(i), p);
        self.hull_len[i] = n as u32 + 1;
        let spill = &mut self.hull_spill[i];
        if n < HULL_INLINE {
            self.hull_pts[i][n] = p;
            if let Some(spill) = spill {
                spill.clear();
            }
        } else {
            let spill = spill.get_or_insert_with(|| free_spill(&mut self.hull_free));
            spill.truncate(n - HULL_INLINE);
            spill.push(p);
        }
    }

    /// Lands slot `i`'s lower hull from its `n` vertices, oldest first.
    fn land_hull(&mut self, i: usize, n: usize, vertices: impl Iterator<Item = (f64, f64)>) {
        self.hull_len[i] = n as u32;
        let mut vertices = vertices;
        let cells = self.hull_pts[i].iter_mut();
        cells.zip(vertices.by_ref()).for_each(|(cell, v)| *cell = v);
        self.hull_spill[i] = (n > HULL_INLINE).then(|| {
            let mut spill = free_spill(&mut self.hull_free);
            spill.extend(vertices);
            spill
        });
    }

    /// Empties slot `i`'s lower hull.
    fn clear_hull(&mut self, i: usize) {
        self.hull_len[i] = 0;
        self.hull_spill[i] = None;
    }

    /// Resets every scalar column of slot `i` to the vacant-slot state.
    fn reset_scalars(&mut self, i: usize) {
        scalar_columns!(self, |col, vacant| col[i] = vacant);
    }

    /// Initializes slot `i` for a fresh session `key` (meter state as
    /// `SignallingMeter::new`; dedicated slots additionally get their
    /// allocator state via [`Columns::init_dedicated`]). The ring regions
    /// need no clearing: their cursors reset and writes precede reads.
    /// `vacant` says [`Columns::grow_to`] has just filled the slot with
    /// the vacant-slot state, so the reset would write every column twice.
    fn init_fresh(&mut self, i: usize, key: u64, vacant: bool) {
        if !vacant {
            self.reset_scalars(i);
        }
        self.keys[i] = key;
        self.flags[i] = F_LIVE;
    }

    /// Gives slot `i` a fresh dedicated allocator — `SingleSession::new`
    /// over the columns: stage 0 opens immediately with fresh trackers
    /// (which the vacant-slot scalars already encode).
    fn init_dedicated(&mut self, i: usize) {
        self.flags[i] |= F_DEDICATED | F_STAGE_OPEN;
    }

    /// Restores slot `i` from a session checkpoint, bitwise.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint fails [`SessionCheckpoint::validate`] or
    /// does not conform to the shard's configuration. The migration
    /// import path runs the same checks at the service boundary, turning
    /// hostile blobs into typed errors before they get here; crash
    /// recovery restores the shard's own checkpoints, which conform by
    /// construction. A panic here therefore means a corrupted recovery
    /// payload, and degrades to a downed shard under `catch_unwind`.
    fn restore_slot(
        &mut self,
        i: usize,
        cp: &SessionCheckpoint,
        cfg: &SingleConfig,
        cost: CostModel,
    ) {
        if let Err(field) = cp.validate().and_then(|()| cp.conforms(cfg, cost)) {
            panic!("checkpoint rejected on restore: {field}");
        }
        let m = &cp.meter;
        self.reset_scalars(i);
        self.keys[i] = cp.key;
        self.flags[i] = F_LIVE;
        if cp.leaving {
            self.flags[i] |= F_LEAVING;
        }
        self.shadow_backlog[i] = m.shadow_backlog;
        self.current_alloc[i] = m.current_alloc;
        self.peak_alloc[i] = m.peak_allocation;
        self.total_arrived[i] = m.total_arrived;
        self.total_served[i] = m.total_served;
        self.total_allocated[i] = m.total_allocated;
        self.window_arrived[i] = m.window_arrived;
        self.window_allocated[i] = m.window_allocated;
        self.meter_ticks[i] = m.ticks;
        self.changes[i] = m.changes;
        self.min_util[i] = m.min_windowed_utilization.unwrap_or(f64::NAN);
        self.recent_ring.land(i, m.recent.iter().copied());
        self.recent_len[i] = m.recent.len() as u32;
        let d = &m.delay;
        self.max_delay[i] = d.max_delay as u64;
        self.max_delay_exact[i] = d.max_delay_exact;
        let pending = d.pending.iter().map(|&(t, b)| (t as u64, b));
        self.land_pending(i, d.pending.len() as u32, pending);
        if let Some(alg) = &cp.dedicated {
            self.flags[i] |= F_DEDICATED;
            self.backlog[i] = alg.backlog;
            self.b_on[i] = alg.b_on;
            if let (Some(low), Some(high)) = (&alg.stage_low, &alg.stage_high) {
                self.flags[i] |= F_STAGE_OPEN;
                self.stage_ticks[i] = low.ticks as u64;
                self.low_total[i] = low.total;
                self.low_low[i] = low.low;
                self.land_hull(i, low.hull.len(), low.hull.iter().copied());
                self.high_window_sum[i] = high.window_sum;
                self.high_min_window_sum[i] = high.min_window_sum.unwrap_or(f64::INFINITY);
            }
            self.stages_completed[i] = alg.stages.completed() as u64;
        }
    }

    /// Lands slot `i`'s delay FIFO of `len` entries, after its clock and
    /// ring have landed, from `pending` oldest first: the head inline,
    /// the entries older than the window in the spill. The rest are the
    /// window's own arrivals, which the ring already holds, so `pending`
    /// may stop after the spill — a frame's does
    /// ([`crate::meter::pending_agrees`] and [`columnar::fifo_cells`] are
    /// the checks every import and frame passes first).
    fn land_pending(&mut self, i: usize, len: u32, pending: impl Iterator<Item = (u64, f64)>) {
        self.pend_len[i] = len;
        let start = self.meter_ticks[i] - u64::from(self.recent_len[i]);
        let mut pending = pending.peekable();
        if let Some((t0, bits)) = pending.next() {
            self.pend_tick[i] = t0;
            self.pend_bits[i] = bits;
        }
        let mut spill = VecDeque::new();
        while let Some(entry) = pending.next_if(|&(t, _)| t < start) {
            spill.push_back(entry);
        }
        self.pend_spill[i] = (!spill.is_empty()).then(|| Box::new(spill));
    }

    /// The tick slot `i`'s open stage started at; `None` while none is.
    fn stage_start(&self, i: usize) -> Option<u64> {
        let open = self.flags[i] & F_STAGE_OPEN != 0;
        open.then(|| self.meter_ticks[i] - self.stage_ticks[i])
    }

    /// Slot `i`'s high-tracker window, oldest first: the newest
    /// `min(stage ticks, W)` arrivals of its meter ring — none without an
    /// open stage, where `stage_ticks` rests at 0.
    fn high_window(&self, i: usize, w: usize) -> impl ExactSizeIterator<Item = f64> + '_ {
        let n = (self.stage_ticks[i] as usize).min(w);
        let cursors = (&self.recent_head[..], &self.recent_len[..]);
        let from = self.recent_len[i] as usize - n;
        self.recent_ring.run(w, cursors, i, from).map(|(a, _)| a)
    }

    /// The delay-FIFO entries slot `i` holds apart from its window, oldest
    /// first: the head, then the spill.
    fn fifo_held(&self, i: usize) -> impl Iterator<Item = (u64, f64)> + '_ {
        let head = (self.pend_len[i] > 0).then(|| (self.pend_tick[i], self.pend_bits[i]));
        let spill = self.pend_spill[i].iter().flat_map(|s| s.iter().copied());
        head.into_iter().chain(spill)
    }

    /// Slot `i`'s delay FIFO between ticks, oldest first: the head, the
    /// spill, then every ring arrival `> EPS` newer than the head — ring
    /// position `p` holds tick `meter_ticks − recent_len + p`.
    fn pending(&self, i: usize, w: usize) -> impl Iterator<Item = (u64, f64)> + '_ {
        let len = self.recent_len[i] as usize;
        let start = self.meter_ticks[i] - len as u64;
        // With no head, nothing is queued behind one.
        let from = match self.pend_len[i] {
            0 => len,
            _ => (self.pend_tick[i] + 1).saturating_sub(start) as usize,
        };
        let cursors = (&self.recent_head[..], &self.recent_len[..]);
        let ring = (start + from as u64..).zip(self.recent_ring.run(w, cursors, i, from));
        let newer = ring.filter_map(|(t, (a, _))| (a > EPS).then_some((t, a)));
        self.fifo_held(i).chain(newer)
    }

    /// The meter state of slot `i`, in checkpoint form.
    fn meter_checkpoint(&self, i: usize, cost: CostModel, w: usize) -> MeterCheckpoint {
        let mut pending = Vec::with_capacity(self.pend_len[i] as usize);
        pending.extend(self.pending(i, w).map(|(t, b)| (t as usize, b)));
        debug_assert_eq!(pending.len(), self.pend_len[i] as usize);
        MeterCheckpoint {
            cost,
            window: w,
            shadow_backlog: self.shadow_backlog[i],
            delay: DelayTrackerState {
                pending,
                tick: self.meter_ticks[i] as usize,
                max_delay: self.max_delay[i] as usize,
                max_delay_exact: self.max_delay_exact[i],
            },
            recent: self
                .recent_ring
                .run(w, (&self.recent_head, &self.recent_len), i, 0)
                .collect(),
            window_arrived: self.window_arrived[i],
            window_allocated: self.window_allocated[i],
            min_windowed_utilization: if self.min_util[i].is_nan() {
                None
            } else {
                Some(self.min_util[i])
            },
            current_alloc: self.current_alloc[i],
            ticks: self.meter_ticks[i],
            changes: self.changes[i],
            peak_allocation: self.peak_alloc[i],
            total_arrived: self.total_arrived[i],
            total_served: self.total_served[i],
            total_allocated: self.total_allocated[i],
        }
    }

    /// The algorithm state of slot `i`, in checkpoint form.
    fn alg_checkpoint(&self, i: usize, cfg: &SingleConfig) -> SingleCheckpoint {
        debug_assert!(
            self.flags[i] & F_DEDICATED != 0,
            "slot holds algorithm state"
        );
        let open = self.flags[i] & F_STAGE_OPEN != 0;
        let stages = stage_log(self.stages_completed[i], self.stage_start(i));
        SingleCheckpoint {
            cfg: cfg.clone(),
            backlog: self.backlog[i],
            stage_low: open.then(|| LowTrackerState {
                d_o: cfg.d_o,
                hull: self.hull(i).iter().copied().collect(),
                ticks: self.stage_ticks[i] as usize,
                total: self.low_total[i],
                low: self.low_low[i],
            }),
            stage_high: open.then(|| HighTrackerState {
                u_o: cfg.u_o,
                w: cfg.w,
                grace: cfg.b_max,
                window: self.high_window(i, cfg.w).collect(),
                window_sum: self.high_window_sum[i],
                min_window_sum: if self.high_min_window_sum[i].is_infinite() {
                    None
                } else {
                    Some(self.high_min_window_sum[i])
                },
                ticks: self.stage_ticks[i] as usize,
            }),
            b_on: self.b_on[i],
            tick: self.meter_ticks[i] as usize,
            stages,
        }
    }

    /// The metered totals of slot `i`, labelled for export.
    fn metrics(
        &self,
        i: usize,
        session: u64,
        tenant: Arc<str>,
        shard: u64,
        cost: CostModel,
    ) -> SessionMetrics {
        SessionMetrics {
            session,
            tenant,
            shard,
            ticks: self.meter_ticks[i],
            changes: self.changes[i],
            peak_allocation: self.peak_alloc[i],
            max_delay: delay_ticks(self.max_delay_exact[i]),
            total_arrived: self.total_arrived[i],
            total_served: self.total_served[i],
            total_allocated: self.total_allocated[i],
            windowed_utilization: if self.min_util[i].is_nan() {
                None
            } else {
                Some(self.min_util[i])
            },
            signalling_cost: self.changes[i] as f64 * cost.per_change,
            bandwidth_cost: self.total_allocated[i] * cost.per_bandwidth_tick,
        }
    }
}

/// The row form of the two stage columns: a log that has forgotten its
/// `completed` closed stages and holds the open one, if any.
pub(crate) fn stage_log(completed: u64, open_start: Option<u64>) -> StageLog {
    let mut log = StageLog::from_parts(completed as usize, Vec::new());
    if let Some(start) = open_start {
        log.open(start as usize);
    }
    log
}

/// Column `src` read at each listed slot, in list order — a fixed
/// column's cells for the checkpoint writer.
fn at_slots<'a, T: Copy>(src: &'a [T], slots: &'a [u32]) -> impl Iterator<Item = T> + 'a {
    slots.iter().map(move |&i| src[i as usize])
}

/// Slots per ring block. Tests run with a block of 8, so the bitwise
/// oracles cross block edges at their everyday populations.
#[cfg(not(test))]
const RING_BLOCK: usize = 4096;
#[cfg(test)]
const RING_BLOCK: usize = 8;

/// Cells from one ring position of a block to the next: the block's
/// slots and one cache line of `f64`s. At a stride of exactly
/// `RING_BLOCK` cells a slot's `W` cells sit 32 KiB apart, all in one L1
/// set, and landing a 100k-session frame ran 60 ms against 45.
const RING_ROW: usize = RING_BLOCK + 8;

/// One `W`-entry ring per slot, stored in zero-allocated blocks of
/// [`RING_BLOCK`] slots. A block is *time-major inside itself*: ring
/// position `q` of slot `i` lives at
/// `blocks[i / RING_BLOCK][q·RING_ROW + i % RING_BLOCK]`. Sessions that
/// joined together advance their cursors in lockstep, so a tick's ring
/// traffic lands on one densely shared row segment per block (8 bytes per
/// slot) instead of dragging a `W`-stride cache line per slot through the
/// sweep — the layout exists for that access pattern. Growth appends a
/// block; a cell, once placed, never moves.
#[derive(Default)]
struct SlotRing<T> {
    blocks: Vec<Box<[T]>>,
}

impl<T: Copy + Default> SlotRing<T> {
    /// Appends blocks until `bound` slots are covered; never shrinks.
    fn grow_to(&mut self, bound: usize, w: usize) {
        while self.blocks.len() * RING_BLOCK < bound {
            self.blocks
                .push(vec![T::default(); RING_ROW * w].into_boxed_slice());
        }
    }

    /// Lands `entries` (at most `w`) as slot `i`'s ring, oldest at
    /// position 0 — the form a restore leaves a ring in, head 0.
    fn land(&mut self, i: usize, entries: impl IntoIterator<Item = T>) {
        let (block, at) = (&mut self.blocks[i / RING_BLOCK], i % RING_BLOCK);
        let cells = block[at..].iter_mut().step_by(RING_ROW);
        cells.zip(entries).for_each(|(cell, v)| *cell = v);
    }

    /// Slot `i`'s entries from the `from`-th oldest on, oldest first
    /// (they sit [`RING_ROW`] apart, so there is no contiguous run to
    /// borrow).
    fn run<'a>(
        &'a self,
        w: usize,
        (heads, lens): (&[u32], &[u32]),
        i: usize,
        from: usize,
    ) -> impl ExactSizeIterator<Item = T> + 'a {
        let (block, at) = (&self.blocks[i / RING_BLOCK], i % RING_BLOCK);
        let head = heads[i] as usize;
        (from..lens[i] as usize).map(move |j| {
            let idx = head + j;
            let q = if idx >= w { idx - w } else { idx };
            block[q * RING_ROW + at]
        })
    }

    /// Ring position `q` of slot `i`.
    #[inline(always)]
    fn cell(&mut self, q: usize, i: usize) -> &mut T {
        &mut self.blocks[i / RING_BLOCK][q * RING_ROW + i % RING_BLOCK]
    }
}

/// Stage-open dedicated slots: the tracker/hull/decide passes run over
/// exactly the slots whose flags carry both bits.
const OPEN: u32 = F_DEDICATED | F_STAGE_OPEN;

/// One step of the shadow link queue plus the metering totals —
/// branch-free so the flow pass autovectorizes. Bitwise-identical to
/// the branchy original: the `select` forms produce the same values,
/// and the totals only read `arrivals`/`allocation`/`served`, so
/// hoisting them ahead of the FIFO drain reorders across independent
/// fields only. Returns the bits served this tick.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn flow_step(
    arrivals: f64,
    allocation: f64,
    current_alloc: &mut f64,
    changes: &mut u64,
    shadow_backlog: &mut f64,
    total_arrived: &mut f64,
    total_served: &mut f64,
    total_allocated: &mut f64,
    peak_alloc: &mut f64,
) -> f64 {
    let changed = (allocation - *current_alloc).abs() > EPS;
    *changes += changed as u64;
    *current_alloc = if changed { allocation } else { *current_alloc };
    let offered = *shadow_backlog + arrivals;
    let served = offered.min(allocation);
    let backlog = offered - served;
    *shadow_backlog = if backlog < EPS { 0.0 } else { backlog };
    *total_arrived += arrivals;
    *total_served += served;
    *total_allocated += allocation;
    *peak_alloc = peak_alloc.max(allocation);
    served
}

/// Reusable per-sweep work lists, one per shard, so steady-state ticks
/// allocate nothing.
#[derive(Default)]
struct SweepScratch {
    /// Indices of dedicated slots, in slot order.
    ded: Vec<u32>,
    /// Effective arrivals per `ded` entry (leaving slots read as 0).
    ded_arr: Vec<f64>,
    /// Indices of stage-open dedicated slots.
    open: Vec<u32>,
    /// Effective arrivals per `open` entry.
    open_arr: Vec<f64>,
    /// Per-`ded` allocation decided this tick.
    alloc: Vec<f64>,
    /// Per-index bits served by the flow pass.
    served: Vec<f64>,
    /// Keys whose drain completed this tick, in slot order.
    retire: Vec<u64>,
    /// Slot indices of pooled-group members metered this tick.
    grp: Vec<u32>,
    /// Effective arrivals per `grp` entry.
    grp_arr: Vec<f64>,
    /// Pool-decided allocation per `grp` entry.
    grp_alloc: Vec<f64>,
}

/// The sweep passes: each runs over an index list of slots, in list
/// order, touching only the columns its phase owns.
impl Columns {
    /// The tracker-push pass over the stage-open slots: the
    /// `HullLowTracker` point push and the `HighTracker` window push,
    /// same float-op order as `SingleSession::on_tick`. The hull
    /// *query* is hoisted into [`Columns::pass_hull_query`], so this
    /// pass is straight-line arithmetic.
    /// A full high window evicts the meter ring's oldest cell, read here
    /// before [`Columns::pass_meter_window`] overwrites it later in the
    /// same tick: [`Columns::sweep`] runs this pass first, and the pooled
    /// slots metered before the sweep are never open.
    fn pass_track(&mut self, open: &[u32], open_arr: &[f64], p: &KernelParams) {
        for (&j, &arrivals) in open.iter().zip(open_arr) {
            let j = j as usize;
            debug_assert!(
                self.flags[j] & F_STAGE_OPEN != 0,
                "tracker push on an open stage"
            );
            // Both trackers clamp identically; one shared clamp is the
            // same value.
            let a2 = arrivals.max(0.0);
            // Low push: candidate window-start x = stage tick, P[x] =
            // total so far; the query uses the post-arrival total.
            self.hull_push(j, (self.stage_ticks[j] as f64, self.low_total[j]));
            self.low_total[j] += a2;
            // High push: the running sum adds the new entry before
            // subtracting the evicted one, as the VecDeque form did. The
            // ring's unclamped arrival is `a2`'s bits: arrivals are
            // validated non-negative and scattered onto +0.0. Cohorts
            // share a ring cursor, so the eviction reads one dense row.
            self.high_window_sum[j] += a2;
            if self.stage_ticks[j] as usize >= p.w {
                let (old, _) = *self.recent_ring.cell(self.recent_head[j] as usize, j);
                self.high_window_sum[j] -= old;
                if self.high_window_sum[j] < 0.0 {
                    self.high_window_sum[j] = 0.0; // float-noise guard
                }
            }
            // One shared stage clock: the two trackers advance in
            // lockstep.
            self.stage_ticks[j] += 1;
            // The full-window minimum merge reads only high-tracker
            // fields, so folding it into this pass (ahead of the hull
            // query it used to follow) cannot move a bit of either
            // tracker.
            if self.stage_ticks[j] as usize >= p.w {
                self.high_min_window_sum[j] =
                    self.high_min_window_sum[j].min(self.high_window_sum[j]);
            }
        }
    }

    /// The hoisted hull query as its own pass over the stage-open index
    /// list: the `HullLowTracker::max_slope` binary search merged into
    /// the running `low` maximum — the one data-dependent, branchy part
    /// of the allocator step, kept out of the vectorizable passes.
    fn pass_hull_query(&mut self, open: &[u32], p: &KernelParams) {
        for &j in open {
            let j = j as usize;
            let q = ((self.stage_ticks[j] + p.d_o) as f64, self.low_total[j]);
            let candidate = hull_max_slope(self.hull(j), q);
            if candidate > self.low_low[j] {
                self.low_low[j] = candidate;
            }
        }
    }

    /// The decision pass over the dedicated slots: certificate check,
    /// `B_on` ladder, link queue, and RESET reopen —
    /// `SingleSession::on_tick` after the tracker pushes and the hull
    /// query already ran this tick for stage-open slots. Fills
    /// `alloc_out` parallel to `ded`.
    fn pass_decide(
        &mut self,
        ded: &[u32],
        ded_arr: &[f64],
        alloc_out: &mut Vec<f64>,
        p: &KernelParams,
    ) {
        alloc_out.clear();
        for (&j, &arrivals) in ded.iter().zip(ded_arr) {
            let j = j as usize;
            let alloc = if self.flags[j] & F_STAGE_OPEN != 0 {
                let l = self.low_low[j];
                let hi = if self.high_min_window_sum[j].is_infinite() {
                    p.b_max // grace: no full window constrains the offline yet
                } else {
                    self.high_min_window_sum[j] / p.high_denom
                };
                if crossed(l, hi) {
                    // Certificate fired: end the stage, enter RESET. The
                    // dead trackers go vacant now, as a restore without
                    // trackers lands them: one state, one encoding.
                    self.stages_completed[j] += 1;
                    self.flags[j] &= !F_STAGE_OPEN;
                    self.clear_hull(j);
                    self.stage_ticks[j] = 0;
                    self.low_total[j] = 0.0;
                    self.low_low[j] = 0.0;
                    self.high_window_sum[j] = 0.0;
                    self.high_min_window_sum[j] = f64::INFINITY;
                    self.b_on[j] = p.b_max;
                    p.b_max
                } else {
                    if self.b_on[j] < l {
                        self.b_on[j] = next_power_of_two(l).min(p.b_max);
                    }
                    self.b_on[j]
                }
            } else {
                p.b_max
            };
            // The session's link queue (`BitQueue::tick` on the backlog
            // field; inputs are validated upstream, so the clamps it
            // would apply are identities).
            let offered = self.backlog[j] + arrivals;
            let served = offered.min(alloc);
            let mut backlog = offered - served;
            if backlog < EPS {
                backlog = 0.0;
            }
            self.backlog[j] = backlog;
            if self.flags[j] & F_STAGE_OPEN == 0 && backlog <= EPS {
                // RESET complete: the next tick starts a new stage with
                // the fresh trackers a RESET slot already holds. It
                // starts at the meter clock this tick ends on.
                self.flags[j] |= F_STAGE_OPEN;
                self.b_on[j] = 0.0;
            }
            alloc_out.push(alloc);
        }
    }

    /// The metering flow pass: shadow link queue plus totals, via the
    /// branch-free [`flow_step`]. When the index list is one dense
    /// ascending run the loop specializes to pre-sliced contiguous
    /// columns, which is the form the compiler autovectorizes; the
    /// gather fallback handles sparse lists bit-identically.
    fn pass_meter_flow(
        &mut self,
        idx: &[u32],
        arr: &[f64],
        alloc: &[f64],
        served_out: &mut Vec<f64>,
    ) {
        let n = idx.len();
        served_out.clear();
        served_out.resize(n, 0.0);
        if n == 0 {
            return;
        }
        let base = idx[0] as usize;
        // Dense-run detection must check every element: group-gathered
        // lists need not be monotonic, so a first/last/len probe lies.
        let dense = idx.iter().enumerate().all(|(k, &j)| j as usize == base + k);
        if dense {
            let current_alloc = &mut self.current_alloc[base..base + n];
            let changes = &mut self.changes[base..base + n];
            let shadow_backlog = &mut self.shadow_backlog[base..base + n];
            let total_arrived = &mut self.total_arrived[base..base + n];
            let total_served = &mut self.total_served[base..base + n];
            let total_allocated = &mut self.total_allocated[base..base + n];
            let peak_alloc = &mut self.peak_alloc[base..base + n];
            for k in 0..n {
                served_out[k] = flow_step(
                    arr[k],
                    alloc[k],
                    &mut current_alloc[k],
                    &mut changes[k],
                    &mut shadow_backlog[k],
                    &mut total_arrived[k],
                    &mut total_served[k],
                    &mut total_allocated[k],
                    &mut peak_alloc[k],
                );
            }
        } else {
            for k in 0..n {
                let j = idx[k] as usize;
                served_out[k] = flow_step(
                    arr[k],
                    alloc[k],
                    &mut self.current_alloc[j],
                    &mut self.changes[j],
                    &mut self.shadow_backlog[j],
                    &mut self.total_arrived[j],
                    &mut self.total_served[j],
                    &mut self.total_allocated[j],
                    &mut self.peak_alloc[j],
                );
            }
        }
    }

    /// The FIFO delay-tracker pass (`OnlineDelayTracker::push`, then
    /// `link_drained` once the shadow queue the flow pass just stepped is
    /// empty): the head entry lives inline in the columns, and the entries
    /// behind it are the spill's and the window's arrivals
    /// ([`Columns::next_pending`]). Data-dependent drain loop, so it stays
    /// its own scalar pass.
    fn pass_meter_fifo(&mut self, idx: &[u32], arr: &[f64], served: &[f64], w: usize) {
        for (k, &j) in idx.iter().enumerate() {
            let j = j as usize;
            // The delay tracker runs on the meter clock, which
            // `pass_meter_window` advances after this pass.
            let now = self.meter_ticks[j];
            let arrivals = arr[k];
            if arrivals > EPS {
                // Behind a head, the entry is this tick's ring cell, which
                // `pass_meter_window` writes later in the tick.
                if self.pend_len[j] == 0 {
                    self.pend_tick[j] = now;
                    self.pend_bits[j] = arrivals;
                }
                self.pend_len[j] += 1;
            }
            let total = served[k];
            let mut left = total;
            while left > EPS && self.pend_len[j] > 0 {
                let take = self.pend_bits[j].min(left);
                self.pend_bits[j] -= take;
                left -= take;
                if self.pend_bits[j] <= EPS {
                    self.max_delay[j] = self.max_delay[j].max(now - self.pend_tick[j]);
                    // The entry completes after the fraction of this
                    // tick's service consumed so far (see
                    // `OnlineDelayTracker`).
                    let consumed = ((total - left) / total).clamp(0.0, 1.0);
                    let exact = ((now - self.pend_tick[j]) as f64 - 1.0 + consumed).max(0.0);
                    self.max_delay_exact[j] = self.max_delay_exact[j].max(exact);
                    self.pend_len[j] -= 1;
                    if self.pend_len[j] > 0 {
                        let (t0, bits) = self.next_pending(j, now, arrivals, w);
                        self.pend_tick[j] = t0;
                        self.pend_bits[j] = bits;
                    }
                }
            }
            // A still-pending head already implies at least this much
            // delay.
            if self.pend_len[j] > 0 {
                self.max_delay[j] = self.max_delay[j].max(now - self.pend_tick[j]);
                self.max_delay_exact[j] =
                    self.max_delay_exact[j].max((now - self.pend_tick[j]) as f64);
                // An emptied link queue leaves only rounding residue
                // behind (`OnlineDelayTracker::link_drained`).
                if self.shadow_backlog[j] <= EPS {
                    self.pend_len[j] = 0;
                    self.pend_spill[j] = None;
                }
            }
        }
    }

    /// The delay-FIFO entry behind slot `j`'s head, which has just
    /// completed at tick `now` with more entries queued: the spill's
    /// oldest, else the first window arrival `> EPS` newer than the head,
    /// else this tick's `arrivals`, not yet in the ring. The window holds
    /// ticks `now − recent_len ..` at positions `0 ..` from its head.
    fn next_pending(&mut self, j: usize, now: u64, arrivals: f64, w: usize) -> (u64, f64) {
        if let Some(spill) = &mut self.pend_spill[j] {
            let next = spill.pop_front().expect("a held spill is not empty");
            if spill.is_empty() {
                self.pend_spill[j] = None;
            }
            return next;
        }
        let len = self.recent_len[j] as usize;
        let first = (self.pend_tick[j] + 1 + len as u64).saturating_sub(now) as usize;
        for p in first..len {
            let q = self.recent_head[j] as usize + p;
            let (a, _) = *self.recent_ring.cell(if q >= w { q - w } else { q }, j);
            if a > EPS {
                return (now - (len - p) as u64, a);
            }
        }
        debug_assert!(arrivals > EPS, "the FIFO counts an entry it does not hold");
        (now, arrivals)
    }

    /// The utilization-window pass: the rolling `recent` ring and the
    /// windowed-minimum merge. The running sums add the new pair before
    /// subtracting the evicted one, as the VecDeque form did. An evicted
    /// arrival the delay FIFO still queues behind its head moves to the
    /// slot's spill before its cell is overwritten.
    fn pass_meter_window(&mut self, idx: &[u32], arr: &[f64], alloc: &[f64], w: usize) {
        for (k, &j) in idx.iter().enumerate() {
            let j = j as usize;
            let (arrivals, allocation) = (arr[k], alloc[k]);
            let now = self.meter_ticks[j];
            self.meter_ticks[j] += 1;
            if (self.recent_len[j] as usize) < w {
                *self.recent_ring.cell(self.recent_len[j] as usize, j) = (arrivals, allocation);
                self.recent_len[j] += 1;
                self.window_arrived[j] += arrivals;
                self.window_allocated[j] += allocation;
            } else {
                let idx2 = self.recent_head[j] as usize;
                let cell = self.recent_ring.cell(idx2, j);
                let (a0, b0) = std::mem::replace(cell, (arrivals, allocation));
                // The evicted cell is tick `now − W`; queued behind the
                // head means newer than it (the FIFO is in tick order).
                if a0 > EPS && self.pend_len[j] > 0 && self.pend_tick[j] + (w as u64) < now {
                    let spill = self.pend_spill[j].get_or_insert_with(Default::default);
                    spill.push_back((now - w as u64, a0));
                }
                self.recent_head[j] = if idx2 + 1 == w { 0 } else { (idx2 + 1) as u32 };
                self.window_arrived[j] += arrivals;
                self.window_allocated[j] += allocation;
                self.window_arrived[j] -= a0;
                self.window_allocated[j] -= b0;
            }
            if self.recent_len[j] as usize == w && self.window_allocated[j] > EPS {
                let ratio = self.window_arrived[j].max(0.0) / self.window_allocated[j];
                // `min` returns the other operand when one side is NaN,
                // so the NaN "none yet" sentinel picks up the first
                // ratio.
                self.min_util[j] = self.min_util[j].min(ratio);
            }
        }
    }

    /// One full dedicated-session sweep over slots `[0, bound)`: build
    /// the dense index lists, then run the phase passes in order. Leaves
    /// the keys of drain-completed slots in `s.retire`, in slot order.
    fn sweep(&mut self, bound: usize, p: &KernelParams, s: &mut SweepScratch) {
        s.ded.clear();
        s.ded_arr.clear();
        s.open.clear();
        s.open_arr.clear();
        s.retire.clear();
        for (j, &f) in self.flags[..bound].iter().enumerate() {
            if f & F_DEDICATED == 0 {
                continue;
            }
            // A leaving session stops arriving; it only drains.
            let a = if f & F_LEAVING != 0 {
                0.0
            } else {
                self.arrived[j]
            };
            s.ded.push(j as u32);
            s.ded_arr.push(a);
            // Capture stage-open membership before the decide pass can
            // close or reopen stages: matches the fused kernel, which
            // read the flag once at the top of the slot's step.
            if f & OPEN == OPEN {
                s.open.push(j as u32);
                s.open_arr.push(a);
            }
        }
        self.pass_track(&s.open, &s.open_arr, p);
        self.pass_hull_query(&s.open, p);
        self.pass_decide(&s.ded, &s.ded_arr, &mut s.alloc, p);
        self.pass_meter_flow(&s.ded, &s.ded_arr, &s.alloc, &mut s.served);
        self.pass_meter_fifo(&s.ded, &s.ded_arr, &s.served, p.w);
        self.pass_meter_window(&s.ded, &s.ded_arr, &s.alloc, p.w);
        for &j in &s.ded {
            let j = j as usize;
            if self.flags[j] & F_LEAVING != 0 && self.shadow_backlog[j] <= EPS {
                s.retire.push(self.keys[j]);
            }
        }
    }
}

/// Reusable scratch for [`ShardState::apply_frame`], so a mirror
/// re-applying frame after frame allocates the key tables once.
#[derive(Default)]
pub(crate) struct ApplyScratch {
    /// `(key, row)` of the frame being validated, sorted by key.
    keys: Vec<(u64, u32)>,
    /// The row of each member the group section names, sorted.
    members: Vec<u32>,
    /// The shard's tenant id of each entry of the frame's string table.
    tenant_ids: Vec<u32>,
}

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

    /// Every group's state, sorted by id (members by pool id) — identical
    /// event histories list identically.
    fn group_checkpoints(&self) -> Vec<GroupCheckpoint> {
        let mut groups: Vec<GroupCheckpoint> = self
            .groups
            .iter()
            .map(|(_, g)| {
                let mut members: Vec<(u64, u64)> = g
                    .by_member
                    .iter()
                    .map(|&(member, key, _)| (member.raw(), key))
                    .collect();
                members.sort_unstable();
                GroupCheckpoint {
                    group: g.group,
                    pool: g.pool.checkpoint(),
                    members,
                }
            })
            .collect();
        groups.sort_unstable_by_key(|g| g.group);
        groups
    }

    /// Encodes the shard as one columnar checkpoint frame — every live
    /// session, every group, the full retired list — into `out` (cleared
    /// first; allocated once at the frame's exact length when it has no
    /// capacity yet). Returns the number of session rows encoded.
    pub(crate) fn encode_columnar(
        &self,
        sink: &mut columnar::ColumnSink,
        out: &mut Vec<u8>,
    ) -> u64 {
        self.encode_rows(self.live_slots(), &self.retired, sink, out)
    }

    /// [`ShardState::encode_columnar`] with the rows of `slots`, in that
    /// order, and `retired` as the retired list.
    fn encode_rows(
        &self,
        slots: impl IntoIterator<Item = usize>,
        retired: &[SessionMetrics],
        sink: &mut columnar::ColumnSink,
        out: &mut Vec<u8>,
    ) -> u64 {
        sink.begin();
        for i in slots {
            sink.push_row(i as u32, self.tenants.name(self.cols.tenant[i]));
        }
        let hdr = columnar::FrameHeader {
            ticks: self.ticks,
            stages_retired: self.stages_retired,
            w: self.window as u32,
            cost: self.cost,
            b_max: self.single_cfg.b_max,
            d_o: self.single_cfg.d_o as u64,
            u_o: self.single_cfg.u_o,
        };
        sink.write(self, &hdr, &self.group_checkpoints(), retired, out)
    }

    /// Applies one parsed columnar frame. Validation runs in full before
    /// any mutation — a hostile frame yields a typed `columnar.*` field
    /// with the shard untouched; once mutation starts, nothing can fail.
    ///
    /// The frame replaces the whole population: slots compact to `0..n`
    /// in row order.
    ///
    /// # Errors
    ///
    /// A `columnar.*` field name for `CtrlError::InvalidCheckpoint`.
    pub(crate) fn apply_frame(
        &mut self,
        f: &columnar::RawFrame<'_>,
        scratch: &mut ApplyScratch,
    ) -> Result<(), &'static str> {
        use columnar::*;
        let w = self.window;
        // ---- validate: nothing below this block may touch state ----
        if f.w as usize != w {
            return Err("columnar.w");
        }
        let cfg = &self.single_cfg;
        if f.cost.per_bandwidth_tick.to_bits() != self.cost.per_bandwidth_tick.to_bits()
            || f.cost.per_change.to_bits() != self.cost.per_change.to_bits()
            || f.b_max.to_bits() != cfg.b_max.to_bits()
            || f.d_o != cfg.d_o as u64
            || f.u_o.to_bits() != cfg.u_o.to_bits()
        {
            return Err("columnar.cfg");
        }
        let rows = f.rows as usize;
        let key_c = f.fixed(C_KEY)?;
        let tenant_c = f.fixed(C_TENANT)?;
        let flags_c = f.fixed(C_FLAGS)?;
        let mut f64_cs = Vec::with_capacity(16);
        for j in 0..16 {
            f64_cs.push(f.fixed(C_F64 + j)?);
        }
        let mut u64_cs = Vec::with_capacity(5);
        for j in 0..5 {
            u64_cs.push(f.fixed(C_U64 + j)?);
        }
        let hull_len_c = f.fixed(C_HULL_LEN)?;
        let (hull_x, hull_y) = f.pair(C_HULL_X, C_HULL_Y)?;
        let recent_len_c = f.fixed(C_RECENT_LEN)?;
        let recent_c = f.col(C_RECENT)?;
        let runs_len_c = f.fixed(C_RUNS_LEN)?;
        let (runs_ticks, runs_value) = f.pair(C_RUNS_TICKS, C_RUNS_VALUE)?;
        let pend_len_c = f.fixed(C_PEND_LEN)?;
        let (pend_age, pend_bits) = f.pair(C_PEND_AGE, C_PEND_BITS)?;
        // Ragged bodies must account for exactly the sum of the per-row
        // run lengths — a mismatched cursor would smear rows together.
        // (The FIFO's cells are counted row by row below.)
        for (len_c, body_c) in [
            (hull_len_c, hull_x),
            (recent_len_c, recent_c),
            (runs_len_c, runs_ticks),
        ] {
            let total = (0..rows).try_fold(0u64, |sum, r| sum.checked_add(u64_at(len_c, r)));
            if total != Some(u64::from(body_c.count)) {
                return Err("columnar.ragged");
            }
        }
        const KNOWN: u64 = (F_LIVE | F_DEDICATED | F_LEAVING | F_STAGE_OPEN) as u64;
        let dedicated = |r: usize| u64_at(flags_c, r) & u64::from(F_DEDICATED) != 0;
        scratch.keys.clear();
        let (mut runs_off, mut pooled_rows) = (0usize, 0usize);
        let (mut recent_off, mut pend_off) = (0usize, 0usize);
        for r in 0..rows {
            // The key index is direct-mapped — one table slot per key up
            // to the maximum — so an astronomical key in a hostile frame
            // would translate straight into an astronomical allocation.
            if u64_at(key_c, r) >= MAX_FRAME_KEY {
                return Err("columnar.key");
            }
            let recent_n = u64_at(recent_len_c, r) as usize;
            let clock = u64_at(u64_cs[1], r);
            if recent_n > w || recent_n as u64 > clock {
                return Err("columnar.ring");
            }
            // Only the FIFO's head and spill travel: the entries behind
            // the head that the window covers are its arrivals.
            let recent = (recent_off..recent_off + recent_n).map(|j| f64_at(recent_c, j));
            let pend_n = u64_at(pend_len_c, r);
            pend_off += columnar::fifo_cells(pend_age, pend_off, pend_n, clock, recent)?;
            recent_off += recent_n;
            let flags = u64_at(flags_c, r);
            if flags & !KNOWN != 0 || flags & u64::from(F_LIVE) == 0 {
                return Err("columnar.flags");
            }
            let open = flags & u64::from(F_STAGE_OPEN) != 0;
            if !dedicated(r) && open {
                return Err("columnar.flags");
            }
            if u64_at(tenant_c, r) >= f.strings.len() as u64 {
                return Err("columnar.tenant");
            }
            // An open stage started at the meter's clock less its ticks,
            // and its high window is the ring's newest `min(ticks, W)`
            // arrivals: both must exist.
            let stage = u64_at(u64_cs[0], r);
            if open && (stage > clock || stage.min(w as u64) > recent_n as u64) {
                return Err("columnar.stage");
            }
            let runs_n = u64_at(runs_len_c, r) as usize;
            columnar::check_runs(
                runs_ticks,
                runs_value,
                runs_off..runs_off + runs_n,
                recent_n,
            )?;
            runs_off += runs_n;
            pooled_rows += usize::from(!dedicated(r));
            scratch.keys.push((u64_at(key_c, r), r as u32));
        }
        if pend_off != pend_age.count as usize {
            return Err("columnar.pend");
        }
        scratch.keys.sort_unstable();
        if scratch.keys.windows(2).any(|p| p[0].0 == p[1].0) {
            return Err("columnar.keys"); // one key, two rows
        }
        if !f.groups.windows(2).all(|g| g[0].group < g[1].group) {
            return Err("columnar.groups");
        }
        // A row carries no group: the group section names its pooled
        // rows. Every listed member must resolve to a pooled row of the
        // frame, and every pooled row must be listed exactly once, or the
        // rebuilt pool would silently drop it.
        scratch.members.clear();
        for g in &f.groups {
            // Group ids feed the same direct-mapped index as session keys.
            if g.group >= MAX_FRAME_KEY {
                return Err("columnar.key");
            }
            if !g.members.windows(2).all(|m| m[0].0 < m[1].0) {
                return Err("columnar.groups");
            }
            for &(_, key) in &g.members {
                let pos = scratch
                    .keys
                    .binary_search_by_key(&key, |&(k, _)| k)
                    .map_err(|_| "columnar.groups")?;
                let r = scratch.keys[pos].1;
                if dedicated(r as usize) {
                    return Err("columnar.groups");
                }
                scratch.members.push(r);
            }
        }
        scratch.members.sort_unstable();
        if scratch.members.len() != pooled_rows || scratch.members.windows(2).any(|p| p[0] == p[1])
        {
            return Err("columnar.groups");
        }
        // ---- mutate: infallible from here on ----
        // Row `r` lands in slot `r` of emptied columns, every scalar the
        // frame does not carry at its vacant value (arrived 0, heads 0,
        // pend head 0/0.0), and so do the trackers of a row with no open
        // stage.
        self.index.clear();
        self.slots.reset(rows);
        self.group_index.clear();
        self.groups.clear();
        self.cols.recycle();
        self.cols.grow_to(rows, w);
        // The frame's string table may repeat a name; every entry maps
        // to the id its name interns to, so a repeat shares one id.
        self.tenants.clear();
        scratch.tenant_ids.clear();
        for &name in &f.strings {
            let id = self.tenants.intern(&Arc::from(name));
            scratch.tenant_ids.push(id);
        }
        let (mut hull_off, mut recent_off) = (0usize, 0usize);
        let (mut runs_off, mut pend_off) = (0usize, 0usize);
        for r in 0..rows {
            let key = u64_at(key_c, r);
            let flags = u64_at(flags_c, r) as u32;
            self.index.insert(key, r as u32);
            let hull_n = u64_at(hull_len_c, r) as usize;
            let recent_n = u64_at(recent_len_c, r) as usize;
            let runs_n = u64_at(runs_len_c, r) as usize;
            let pend_n = u64_at(pend_len_c, r);
            let (cols, i) = (&mut self.cols, r);
            cols.keys[i] = key;
            cols.flags[i] = flags;
            // A frame index, validated below the string table's length.
            cols.tenant[i] = scratch.tenant_ids[u64_at(tenant_c, r) as usize];
            cols.shadow_backlog[i] = f64_at(f64_cs[0], r);
            cols.current_alloc[i] = f64_at(f64_cs[1], r);
            cols.peak_alloc[i] = f64_at(f64_cs[2], r);
            cols.total_arrived[i] = f64_at(f64_cs[3], r);
            cols.total_served[i] = f64_at(f64_cs[4], r);
            cols.total_allocated[i] = f64_at(f64_cs[5], r);
            cols.window_arrived[i] = f64_at(f64_cs[6], r);
            cols.window_allocated[i] = f64_at(f64_cs[7], r);
            cols.backlog[i] = f64_at(f64_cs[8], r);
            cols.b_on[i] = f64_at(f64_cs[9], r);
            cols.min_util[i] = f64_at(f64_cs[14], r);
            cols.max_delay_exact[i] = f64_at(f64_cs[15], r);
            let clock = u64_at(u64_cs[1], r);
            cols.meter_ticks[i] = clock;
            cols.changes[i] = u64_at(u64_cs[2], r);
            cols.max_delay[i] = u64_at(u64_cs[3], r);
            cols.stages_completed[i] = u64_at(u64_cs[4], r);
            // The ring lands at head = 0, exactly how the encoder read it,
            // its allocation runs expanded in place.
            let arrivals = (recent_off..recent_off + recent_n).map(|j| f64_at(recent_c, j));
            let allocs = columnar::expand_runs(runs_ticks, runs_value, runs_off..runs_off + runs_n);
            cols.recent_ring.land(i, arrivals.clone().zip(allocs));
            cols.recent_len[i] = recent_n as u32;
            if flags & F_STAGE_OPEN != 0 {
                cols.stage_ticks[i] = u64_at(u64_cs[0], r);
                cols.low_total[i] = f64_at(f64_cs[10], r);
                cols.low_low[i] = f64_at(f64_cs[11], r);
                cols.high_window_sum[i] = f64_at(f64_cs[12], r);
                cols.high_min_window_sum[i] = f64_at(f64_cs[13], r);
                let vertices = hull_off..hull_off + hull_n;
                let vertices = vertices.map(|j| (f64_at(hull_x, j), f64_at(hull_y, j)));
                cols.land_hull(i, hull_n, vertices);
            }
            let held = columnar::fifo_cells(pend_age, pend_off, pend_n, clock, arrivals)
                .expect("validated: the FIFO agrees with its window");
            let cells = pend_off..pend_off + held;
            let entries = columnar::fifo_held(pend_age, pend_bits, cells, clock);
            cols.land_pending(i, pend_n as u32, entries);
            hull_off += hull_n;
            recent_off += recent_n;
            runs_off += runs_n;
            pend_off += held;
        }
        // Groups, every member validated above to be a pooled row.
        for g in &f.groups {
            let by_member = g
                .members
                .iter()
                .map(|&(member, key)| {
                    let slot = self
                        .index
                        .get(key)
                        .expect("validated: member sessions are live after the frame");
                    (PoolSessionId::from_raw(member), key, slot)
                })
                .collect();
            self.insert_group(g.group, SessionPool::restore(&g.pool), by_member);
        }
        let retired = Arc::make_mut(&mut self.retired);
        retired.clear();
        retired.extend(f.retired.iter().cloned());
        self.cols.hull_free.clear(); // the spills no hull took
        self.ticks = f.ticks;
        self.stages_retired = f.stages_retired;
        Ok(())
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
            ReplayEvent::Import { cp } => self.import(cp),
        }
    }

    /// One session's restorable state.
    fn session_checkpoint_at(&self, i: usize) -> SessionCheckpoint {
        let cols = &self.cols;
        let (dedicated, pooled) = if cols.flags[i] & F_DEDICATED != 0 {
            (Some(cols.alg_checkpoint(i, &self.single_cfg)), None)
        } else {
            let g = self
                .groups
                .get(cols.group[i])
                .expect("a pooled slot's group is live");
            let member = g.member_at(i).expect("a group lists its members");
            (None, Some((g.group, member.raw())))
        };
        SessionCheckpoint {
            key: cols.keys[i],
            tenant: Arc::clone(self.tenants.name(cols.tenant[i])),
            meter: cols.meter_checkpoint(i, self.cost, self.window),
            leaving: cols.flags[i] & F_LEAVING != 0,
            dedicated,
            pooled,
        }
    }

    /// Captures one dedicated session's restorable state. `None` for
    /// unknown keys and pooled members (a pool member's dynamics are not
    /// separable from its group).
    pub(crate) fn checkpoint_session(&self, key: u64) -> Option<SessionCheckpoint> {
        let i = self.slot_of(key)?;
        (self.cols.flags[i] & F_DEDICATED != 0).then(|| self.session_checkpoint_at(i))
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

    /// Re-creates a migrated-in dedicated session bitwise from its
    /// checkpoint. The caller has already rewritten `cp.key` to a key
    /// that is fresh in this service.
    fn import(&mut self, cp: &SessionCheckpoint) {
        if cp.dedicated.is_none() || cp.pooled.is_some() {
            return; // only dedicated sessions migrate
        }
        self.insert_restored(cp);
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

    /// Re-creates one session from its checkpoint, bitwise. A pooled
    /// one's group is placed after it, by [`ShardState::insert_group`].
    fn insert_restored(&mut self, cp: &SessionCheckpoint) {
        assert!(
            cp.dedicated.is_some() != cp.pooled.is_some(),
            "session checkpoint must be exactly one of dedicated or pooled"
        );
        let (i, _) = self.take_slot(cp.key);
        self.cols.restore_slot(i, cp, &self.single_cfg, self.cost);
        self.cols.tenant[i] = self.tenants.intern(&cp.tenant);
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

    pub(crate) fn report(&self) -> ShardReport {
        // Room for the retired list too: the collector appends it to this
        // vector in place.
        let mut live = Vec::with_capacity(self.slots.len() + self.retired.len());
        live.extend(self.live_rows());
        ShardReport {
            shard: self.shard,
            epoch: self.epoch,
            retired: Arc::clone(&self.retired),
            live,
            stages_completed: self.stages_completed(),
            image: Vec::new(),
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

    /// The shard as an image report: its frame, written into a fresh
    /// buffer through `sink`, and no metrics.
    pub(crate) fn image_report(&self, sink: &mut columnar::ColumnSink) -> ShardReport {
        let mut image = Vec::new();
        self.encode_columnar(sink, &mut image);
        ShardReport {
            shard: self.shard,
            epoch: self.epoch,
            retired: Arc::default(),
            live: Vec::new(),
            stages_completed: 0,
            image,
        }
    }

    /// Every live row as `(key, tenant, leaving, group)`, in slot order:
    /// what the driver's placements, groups and admission grants are
    /// re-derived from when a process image is restored.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (u64, &Arc<str>, bool, Option<u64>)> + '_ {
        self.live_slots().map(|i| {
            let flags = self.cols.flags[i];
            let group = (flags & F_DEDICATED == 0).then(|| {
                let g = self.groups.get(self.cols.group[i]);
                g.expect("a pooled slot's group is live").group
            });
            let tenant = self.tenants.name(self.cols.tenant[i]);
            (self.cols.keys[i], tenant, flags & F_LEAVING != 0, group)
        })
    }
}

/// Messages a supervised worker sends back to the driver out of band.
#[derive(Debug, Clone)]
pub(crate) enum WorkerMsg {
    /// A periodic state snapshot.
    Checkpoint(ShardCheckpoint),
    /// One tick event was applied. The driver counts acks against its
    /// dispatched ticks to bound how far the pipeline may run ahead.
    TickAck {
        /// The acking shard.
        shard: u64,
        /// Epoch of the worker that applied the tick; stale acks from a
        /// superseded worker are discarded.
        epoch: u64,
    },
    /// The worker caught a panic and exited.
    Failure(ShardFailure),
}

/// Everything a supervised worker needs beyond its state and event queue.
pub(crate) struct WorkerCtx {
    /// This worker's epoch, stamped into every outgoing message.
    pub epoch: u64,
    /// Set by the supervisor when this worker is superseded; the worker
    /// exits at the next opportunity without touching further events.
    pub cancel: Arc<AtomicBool>,
    /// Out-of-band channel for checkpoints and failure reports.
    pub msgs: crossbeam::channel::Sender<WorkerMsg>,
    /// Checkpoint cadence in ticks (0 = never).
    pub checkpoint_every: u64,
    /// The driver's spare frame buffer, which the next checkpoint is
    /// written into when there is one.
    pub spare: Arc<parking_lot::Mutex<Option<Vec<u8>>>>,
    /// Replayable events already applied to the state at spawn (the
    /// journal replay baseline).
    pub events_base: u64,
    /// The watermark: `events_base` plus the events this worker has
    /// applied, stored after each one. The supervisor reads it to tell a
    /// slow worker (it moves) from a hung one (it does not) and to report
    /// the shard's lag. It publishes no other data — everything else
    /// reaches the driver over a channel — so `Relaxed` on both sides.
    pub applied: Arc<AtomicU64>,
    /// Armed fault, if this worker is the sabotage target. Only initial
    /// (epoch-0) workers ever get one, so a fault fires at most once.
    pub fault: Option<FaultPlan>,
}

pub(crate) fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// The supervised worker loop of one threaded shard: serve messages until
/// shutdown, disconnection, or cancellation; catch panics and report them
/// as [`ShardFailure`]. Every exit hands the state back through the join
/// handle, so the supervisor can restore the replacement into the
/// allocations this worker retires.
pub(crate) fn run_worker(
    state: ShardState,
    rx: crossbeam::channel::Receiver<Event>,
    ctx: WorkerCtx,
) -> ShardState {
    let mut worker = WorkerLoop {
        events_applied: ctx.events_base,
        fault: ctx.fault,
        cp_sink: columnar::ColumnSink::default(),
        state,
        ctx,
    };
    worker.state.epoch = worker.ctx.epoch;
    while let Ok(event) = rx.recv() {
        match catch_unwind(AssertUnwindSafe(|| worker.serve(event))) {
            Ok(true) => {}
            Ok(false) => break,
            Err(payload) => {
                // The state may be torn mid-event: its contents are worth
                // nothing, and the supervisor rebuilds from the last
                // checkpoint + journal — into this state's allocations,
                // emptied first ([`ShardState::recycle`]).
                let _ = worker.ctx.msgs.send(WorkerMsg::Failure(ShardFailure {
                    shard: worker.state.shard,
                    epoch: worker.ctx.epoch,
                    reason: panic_reason(payload),
                }));
                break;
            }
        }
    }
    worker.state
}

/// One worker incarnation: the state it runs on and what it counts.
struct WorkerLoop {
    state: ShardState,
    ctx: WorkerCtx,
    /// Replayable events applied, the count the checkpoint trim keys on.
    /// Read-only messages never enter the journal and never advance it.
    events_applied: u64,
    fault: Option<FaultPlan>,
    /// The writer's row scratch, reused across captures; the frame itself
    /// is allocated per capture and shipped, never held here.
    cp_sink: columnar::ColumnSink,
}

impl WorkerLoop {
    /// Whether the supervisor has superseded this worker.
    fn cancelled(&self) -> bool {
        self.ctx.cancel.load(Ordering::Acquire)
    }

    /// Serves one message; `false` ends the loop. A batch applies in
    /// order, every tick in it acked and — every `checkpoint_every` ticks
    /// — followed by a shipped [`ShardCheckpoint`]; the injected fault, if
    /// any, fires in front of its tick.
    fn serve(&mut self, event: Event) -> bool {
        if self.cancelled() {
            return false;
        }
        let batch = match event {
            Event::Batch(batch) => batch,
            Event::Collect { reply, what } => {
                let report = match what {
                    Collect::Metrics => self.state.report(),
                    Collect::Image => self.state.image_report(&mut self.cp_sink),
                };
                // The service may already have dropped the receiver (e.g. a
                // torn-down snapshot); losing the report is then harmless.
                let _ = reply.send(report);
                return true;
            }
            Event::ExportSession { key, reply } => {
                let _ = reply.send(self.state.checkpoint_session(key));
                return true;
            }
            Event::Shutdown => return false,
        };
        for event in batch.iter() {
            // A retired worker stops at the event it is applying, not at
            // the end of the batch it found it in.
            if self.cancelled() {
                return false;
            }
            let is_tick = matches!(event, ReplayEvent::Tick { .. });
            // Fault injection: fires when the worker is about to process
            // the planned tick, then disarms.
            if is_tick && self.fault.is_some_and(|p| self.state.ticks() >= p.at_tick) {
                match self.fault.take().expect("checked above").kind {
                    FaultKind::Kill => panic!("injected fault: kill"),
                    FaultKind::Hang { millis } | FaultKind::Delay { millis } => {
                        std::thread::sleep(std::time::Duration::from_millis(millis));
                        // A hung worker may have been replaced while asleep;
                        // if so, leave the event unapplied — the supervisor
                        // already replayed it into the replacement.
                        if self.cancelled() {
                            return false;
                        }
                    }
                }
            }
            self.state.apply(event);
            self.events_applied += 1;
            self.ctx
                .applied
                .store(self.events_applied, Ordering::Relaxed);
            if !is_tick {
                continue;
            }
            let _ = self.ctx.msgs.send(WorkerMsg::TickAck {
                shard: self.state.shard,
                epoch: self.ctx.epoch,
            });
            let every = self.ctx.checkpoint_every;
            if every > 0 && self.state.ticks().is_multiple_of(every) {
                let mut bytes = self.ctx.spare.lock().take().unwrap_or_default();
                let sessions = self.state.encode_columnar(&mut self.cp_sink, &mut bytes);
                let _ = self.ctx.msgs.send(WorkerMsg::Checkpoint(ShardCheckpoint {
                    shard: self.state.shard,
                    epoch: self.ctx.epoch,
                    events_applied: self.events_applied,
                    sessions,
                    bytes: Arc::new(bytes),
                }));
            }
        }
        true
    }
}

/// A shard's frame rows, read straight from its columns: one sequential
/// run per column.
impl columnar::ColumnSource for ShardState {
    fn columns(&self, rows: &columnar::Rows<'_>, f: &mut impl columnar::ColumnWriter) {
        use columnar::*;
        let cols = &self.cols;
        let w = self.window;
        let ring = |i: usize| {
            let cursors = (&cols.recent_head[..], &cols.recent_len[..]);
            cols.recent_ring.run(w, cursors, i, 0)
        };
        let allocs = move |i: usize| ring(i).map(|(_, b)| b);
        let slots = || rows.slots.iter().map(|&i| i as usize);
        f.col(C_KEY, at_slots(&cols.keys, rows.slots));
        f.col(C_TENANT, rows.tenants.iter().copied());
        f.col(C_FLAGS, at_slots(&cols.flags, rows.slots));
        let f64_cols: [&[f64]; 16] = [
            &cols.shadow_backlog,
            &cols.current_alloc,
            &cols.peak_alloc,
            &cols.total_arrived,
            &cols.total_served,
            &cols.total_allocated,
            &cols.window_arrived,
            &cols.window_allocated,
            &cols.backlog,
            &cols.b_on,
            &cols.low_total,
            &cols.low_low,
            &cols.high_window_sum,
            &cols.high_min_window_sum,
            &cols.min_util,
            &cols.max_delay_exact,
        ];
        for (j, src) in f64_cols.into_iter().enumerate() {
            f.col(C_F64 + j, at_slots(src, rows.slots));
        }
        let u64_cols: [&[u64]; 5] = [
            &cols.stage_ticks,
            &cols.meter_ticks,
            &cols.changes,
            &cols.max_delay,
            &cols.stages_completed,
        ];
        for (j, src) in u64_cols.into_iter().enumerate() {
            f.col(C_U64 + j, at_slots(src, rows.slots));
        }
        let hull = move || slots().flat_map(|i| cols.hull(i).iter());
        f.col(C_HULL_LEN, at_slots(&cols.hull_len, rows.slots));
        f.col(C_HULL_X, hull().map(|p| p.0));
        f.col(C_HULL_Y, hull().map(|p| p.1));
        f.col(C_RECENT_LEN, at_slots(&cols.recent_len, rows.slots));
        f.col(C_RECENT, slots().flat_map(|i| ring(i).map(|(a, _)| a)));
        let all_runs = move || slots().flat_map(move |i| runs(allocs(i)));
        f.col(C_RUNS_LEN, slots().map(|i| runs(allocs(i)).count() as u64));
        f.col(C_RUNS_TICKS, all_runs().map(|r| r.0));
        f.col(C_RUNS_VALUE, all_runs().map(|r| r.1));
        // The FIFO's head and spill: the window's arrivals behind them
        // are derived on apply.
        let held = move || slots().flat_map(|i| cols.fifo_held(i).map(move |p| (i, p)));
        f.col(C_PEND_LEN, at_slots(&cols.pend_len, rows.slots));
        f.col(
            C_PEND_AGE,
            held().map(|(i, (t, _))| cols.meter_ticks[i] - t),
        );
        f.col(C_PEND_BITS, held().map(|(_, (_, b))| b));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceConfig;
    use proptest::prelude::*;

    fn shard() -> ShardState {
        ShardState::new(0, &shard_cfg())
    }

    fn shard_cfg() -> ServiceConfig {
        ServiceConfig::builder(1024.0)
            .session_b_max(16.0)
            .group_b_o(8.0)
            .offline_delay(4)
            .window(4)
            .build()
            .unwrap()
    }

    fn all_sessions(report: &ShardReport) -> Vec<SessionMetrics> {
        let mut out: Vec<SessionMetrics> = report.retired.as_ref().clone();
        out.extend(report.live.iter().cloned());
        out
    }

    #[test]
    #[ignore = "manual perf probe: cargo test --release -p cdba-ctrl kernel_throughput -- --ignored --nocapture"]
    fn kernel_throughput_probe() {
        // Test builds run 8-slot ring blocks, so the two ring passes read
        // slower here than in production; the other passes are unaffected.
        let n: usize = 100_000;
        let cfg = ServiceConfig::builder(n as f64 * 16.0)
            .session_b_max(16.0)
            .group_b_o(8.0)
            .offline_delay(8)
            .window(16)
            .build()
            .unwrap();
        let mut arrivals = Vec::with_capacity(n);
        let ticks = 20u64;

        let mut soa = ShardState::new(0, &cfg);
        for key in 0..n as u64 {
            soa.join_dedicated(key, &"acme".into());
        }
        let started = std::time::Instant::now();
        for round in 0..ticks {
            arrivals.clear();
            arrivals.extend((0..n as u64).map(|k| (k, ((round + k) % 5) as f64)));
            soa.tick(arrivals.iter().copied());
        }
        println!(
            "soa: {:.1} ticks/s",
            ticks as f64 / started.elapsed().as_secs_f64()
        );

        // Per-pass timings over the warmed SoA state, via the same phase
        // passes the sweep runs.
        let p = soa.params();
        let cols = &mut soa.cols;
        let rounds = 20u32;
        let per = |d: std::time::Duration| d.as_nanos() as f64 / (rounds as f64 * n as f64);
        let mut s = SweepScratch::default();
        let arr: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
        let started = std::time::Instant::now();
        let mut sink = 0.0f64;
        let mut pass_ns = [0u128; 7];
        for _ in 0..rounds {
            let t0 = std::time::Instant::now();
            s.open.clear();
            s.open_arr.clear();
            s.ded.clear();
            for (j, &a) in arr.iter().enumerate() {
                s.ded.push(j as u32);
                if cols.flags[j] & F_STAGE_OPEN != 0 {
                    s.open.push(j as u32);
                    s.open_arr.push(a);
                }
            }
            let t1 = std::time::Instant::now();
            cols.pass_track(&s.open, &s.open_arr, &p);
            let t2 = std::time::Instant::now();
            cols.pass_hull_query(&s.open, &p);
            let t3 = std::time::Instant::now();
            cols.pass_decide(&s.ded, &arr, &mut s.alloc, &p);
            let t4 = std::time::Instant::now();
            sink += s.alloc.iter().sum::<f64>();
            pass_ns[0] += (t1 - t0).as_nanos();
            pass_ns[1] += (t2 - t1).as_nanos();
            pass_ns[2] += (t3 - t2).as_nanos();
            pass_ns[3] += (t4 - t3).as_nanos();
        }
        let alg_elapsed = started.elapsed();
        let started = std::time::Instant::now();
        for _ in 0..rounds {
            let t0 = std::time::Instant::now();
            cols.pass_meter_flow(&s.ded, &arr, &s.alloc, &mut s.served);
            let t1 = std::time::Instant::now();
            cols.pass_meter_fifo(&s.ded, &arr, &s.served, p.w);
            let t2 = std::time::Instant::now();
            cols.pass_meter_window(&s.ded, &arr, &s.alloc, p.w);
            let t3 = std::time::Instant::now();
            pass_ns[4] += (t1 - t0).as_nanos();
            pass_ns[5] += (t2 - t1).as_nanos();
            pass_ns[6] += (t3 - t2).as_nanos();
        }
        let meter_elapsed = started.elapsed();
        let pn = |i: usize| pass_ns[i] as f64 / (rounds as f64 * n as f64);
        println!(
            "per-pass ns/session: lists {:.1}, track {:.1}, hull {:.1}, decide {:.1}, \
             flow {:.1}, fifo {:.1}, window {:.1}",
            pn(0),
            pn(1),
            pn(2),
            pn(3),
            pn(4),
            pn(5),
            pn(6),
        );
        let mut hull_points = 0usize;
        let mut open_stages = 0usize;
        for j in 0..n {
            if cols.flags[j] & F_STAGE_OPEN != 0 {
                open_stages += 1;
                hull_points += cols.hull_len[j] as usize;
            }
        }
        println!(
            "alg passes: {:.1} ns/session, meter passes: {:.1} ns/session \
             (open stages {open_stages}, avg hull {:.1} pts, sink {sink:.0})",
            per(alg_elapsed),
            per(meter_elapsed),
            hull_points as f64 / open_stages.max(1) as f64,
        );
    }

    #[test]
    fn dedicated_lifecycle_joins_ticks_retires() {
        let mut s = shard();
        s.apply(&ReplayEvent::JoinDedicated {
            key: 7,
            tenant: "acme".into(),
        });
        for _ in 0..8 {
            s.apply(&ReplayEvent::Tick {
                arrivals: vec![(7, 2.0)].into(),
            });
        }
        assert_eq!(s.live_sessions(), 1);
        s.apply(&ReplayEvent::Leave { key: 7 });
        // Zero-arrival ticks drain the shadow queue, then the slot retires.
        for _ in 0..32 {
            s.apply(&ReplayEvent::Tick {
                arrivals: vec![].into(),
            });
        }
        assert_eq!(s.live_sessions(), 0);
        let report = s.report();
        let sessions = all_sessions(&report);
        assert_eq!(sessions.len(), 1);
        let m = &sessions[0];
        assert_eq!(m.session, 7);
        assert_eq!(&*m.tenant, "acme");
        assert!((m.total_served - m.total_arrived).abs() < 1e-9);
        assert!(m.changes > 0);
    }

    #[test]
    fn group_members_share_one_pool() {
        let mut s = shard();
        s.apply(&ReplayEvent::JoinGroup {
            group: 1,
            tenant: "acme".into(),
            members: vec![10, 11].into(),
        });
        for _ in 0..12 {
            s.apply(&ReplayEvent::Tick {
                arrivals: vec![(10, 1.0), (11, 1.0)].into(),
            });
        }
        let report = s.report();
        let sessions = all_sessions(&report);
        assert_eq!(sessions.len(), 2);
        for m in &sessions {
            assert!(m.total_allocated > 0.0, "pool served {m:?}");
        }
        // One member leaves; the pool drains it and the shard retires it.
        s.apply(&ReplayEvent::Leave { key: 10 });
        for _ in 0..32 {
            s.apply(&ReplayEvent::Tick {
                arrivals: vec![(11, 1.0)].into(),
            });
        }
        assert_eq!(s.live_sessions(), 1);
        assert_eq!(s.groups.len(), 1);
        s.apply(&ReplayEvent::Leave { key: 11 });
        for _ in 0..32 {
            s.apply(&ReplayEvent::Tick {
                arrivals: vec![].into(),
            });
        }
        assert_eq!(s.live_sessions(), 0);
        assert!(s.groups.is_empty(), "empty group is dropped");
    }

    #[test]
    fn unknown_keys_are_ignored() {
        let mut s = shard();
        s.apply(&ReplayEvent::Tick {
            arrivals: vec![(99, 5.0)].into(),
        });
        s.apply(&ReplayEvent::Leave { key: 99 });
        assert_eq!(s.live_sessions(), 0);
    }

    #[test]
    fn retired_slots_are_reused_and_reports_share_the_retired_list() {
        let mut s = shard();
        s.apply(&ReplayEvent::JoinDedicated {
            key: 0,
            tenant: "acme".into(),
        });
        s.apply(&ReplayEvent::Leave { key: 0 }); // never ticked: drained, retires at once
        assert_eq!(s.live_sessions(), 0);
        s.apply(&ReplayEvent::JoinDedicated {
            key: 1,
            tenant: "acme".into(),
        });
        assert_eq!(s.cols.bound(), 1, "the retired session's slot is reused");
        let r1 = s.report();
        let r2 = s.report();
        assert!(
            Arc::ptr_eq(&r1.retired, &r2.retired),
            "steady-state reports share one retired list"
        );
        assert_eq!(r1.retired.len(), 1);
        assert_eq!(r1.live.len(), 1);
        // A retirement after a report was taken must not mutate the shared
        // list the earlier report still holds (copy-on-retire).
        s.apply(&ReplayEvent::Leave { key: 1 });
        assert_eq!(r1.retired.len(), 1, "earlier report is unaffected");
        assert_eq!(s.report().retired.len(), 2);
    }

    #[test]
    fn export_forget_import_moves_a_session_bitwise() {
        let mut src = shard();
        let mut dst = shard();
        src.apply(&ReplayEvent::JoinDedicated {
            key: 3,
            tenant: "acme".into(),
        });
        src.apply(&ReplayEvent::JoinGroup {
            group: 0,
            tenant: "globex".into(),
            members: vec![4, 5].into(),
        });
        for t in 0..24u64 {
            src.apply(&ReplayEvent::Tick {
                arrivals: vec![(3, (t % 3) as f64), (4, 1.0), (5, 2.0)].into(),
            });
        }
        // Pooled members refuse to export; dedicated sessions capture.
        assert!(src.checkpoint_session(4).is_none());
        assert!(src.checkpoint_session(99).is_none());
        let mut cp = src.checkpoint_session(3).expect("dedicated exports");
        // Move it: forget at the source (no retired metrics left behind),
        // import at the destination under a fresh key.
        src.apply(&ReplayEvent::Forget { key: 3 });
        assert_eq!(src.live_sessions(), 2);
        assert_eq!(src.report().retired.len(), 0, "forget must not retire");
        cp.key = 7;
        src.apply(&ReplayEvent::Tick {
            arrivals: vec![(4, 1.0), (5, 1.0)].into(),
        });
        dst.apply(&ReplayEvent::Import { cp: Arc::new(cp) });
        assert_eq!(dst.live_sessions(), 1);
        // A twin that never migrated, driven through the same arrival
        // history under key 7, stays bitwise identical to the migrated
        // session.
        let mut twin_ref = shard();
        twin_ref.apply(&ReplayEvent::JoinDedicated {
            key: 7,
            tenant: "acme".into(),
        });
        for t in 0..24u64 {
            twin_ref.apply(&ReplayEvent::Tick {
                arrivals: vec![(7, (t % 3) as f64)].into(),
            });
        }
        for t in 0..16u64 {
            let bits = ((t + 1) % 4) as f64;
            dst.apply(&ReplayEvent::Tick {
                arrivals: vec![(7, bits)].into(),
            });
            twin_ref.apply(&ReplayEvent::Tick {
                arrivals: vec![(7, bits)].into(),
            });
        }
        let moved = dst.report().live;
        let stayed = twin_ref.report().live;
        assert_eq!(moved.len(), 1);
        assert_eq!(moved, stayed, "migration is bitwise-invisible");
    }

    #[test]
    fn checkpoint_binary_roundtrip_restores_bitwise() {
        let mut s = shard();
        s.apply(&ReplayEvent::JoinDedicated {
            key: 0,
            tenant: "acme".into(),
        });
        s.apply(&ReplayEvent::JoinGroup {
            group: 0,
            tenant: "globex".into(),
            members: vec![1, 2].into(),
        });
        for t in 0..20u64 {
            s.apply(&ReplayEvent::Tick {
                arrivals: vec![(0, (t % 3) as f64), (1, 1.0), (2, 2.0)].into(),
            });
        }
        s.apply(&ReplayEvent::Leave { key: 1 });
        for _ in 0..8 {
            s.apply(&ReplayEvent::Tick {
                arrivals: vec![(0, 1.0), (2, 2.0)].into(),
            });
        }
        let (mut twin, frame, again) = land_frame(&s);
        assert_eq!(frame, again, "a frame round-trips exactly");
        // Lockstep continuation: the landed shard must stay bitwise
        // identical to the original under further events.
        for _ in 0..16 {
            let arrivals: TickBatch = vec![(0, 2.0), (2, 1.0)].into();
            s.apply(&ReplayEvent::Tick {
                arrivals: arrivals.clone(),
            });
            twin.apply(&ReplayEvent::Tick { arrivals });
        }
        assert_eq!(canonical_frame(&twin), canonical_frame(&s));
    }

    #[test]
    fn checkpoint_validation_rejects_out_of_domain_floats() {
        let mut s = shard();
        s.apply(&ReplayEvent::JoinDedicated {
            key: 0,
            tenant: "acme".into(),
        });
        for t in 0..12u64 {
            s.apply(&ReplayEvent::Tick {
                arrivals: vec![(0, (t % 4) as f64)].into(),
            });
        }
        let cp = s.checkpoint_session(0).expect("dedicated exports");
        assert_eq!(cp.validate(), Ok(()), "honest checkpoints validate");

        let mut bad = cp.clone();
        bad.meter.shadow_backlog = f64::NAN;
        assert_eq!(bad.validate(), Err("meter.shadow_backlog"));

        let mut bad = cp.clone();
        bad.meter.total_arrived = -5.0;
        assert_eq!(bad.validate(), Err("meter.totals"));

        let mut bad = cp.clone();
        if let Some(alg) = &mut bad.dedicated {
            alg.backlog = f64::INFINITY;
        }
        assert_eq!(bad.validate(), Err("alg.backlog"));

        let mut bad = cp.clone();
        if let Some(alg) = &mut bad.dedicated {
            if let Some(high) = &mut alg.stage_high {
                high.window_sum = -1.0;
            }
        }
        assert_eq!(bad.validate(), Err("alg.stage_high.window_sum"));

        let mut bad = cp.clone();
        bad.pooled = Some((0, 0));
        assert_eq!(bad.validate(), Err("kind"), "dedicated+pooled is rejected");
    }

    /// Random lifecycle script for the shard tests.
    #[derive(Debug, Clone)]
    enum Op {
        JoinDedicated,
        JoinGroup(usize),
        Leave(usize),
        Ticks(u8, u8),
        /// One tick of 100 bits for every key: `low` jumps past the
        /// `B_A` = 16 that bounds `high`, and the 84 bits left queued keep
        /// the RESET open for several ticks.
        Burst,
    }

    /// [`Op`] plus the state-moving operations only [`lockstep`]
    /// interprets.
    #[derive(Debug, Clone)]
    enum LockstepOp {
        Plain(Op),
        /// Export → forget → import of one session under a fresh key.
        Migrate(usize),
        /// A checkpoint capture: encode a genesis frame, trim the journal.
        Capture,
        /// A crash recovery: fresh shard ← last frame + journal replay.
        Recover,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        (0u8..9u8, 0usize..32usize, 1u8..=6u8, 0u8..=255u8).prop_map(|(class, idx, n, seed)| {
            match class {
                0 | 1 => Op::JoinDedicated,
                2 => Op::JoinGroup(2 + idx % 3),
                3 | 4 => Op::Leave(idx),
                _ => Op::Ticks(n, seed),
            }
        })
    }

    /// What a lifecycle script carries from op to op: the keys issued so
    /// far and the clocks its arrival pattern runs on.
    #[derive(Default)]
    struct Script {
        keys: Vec<u64>,
        next_key: u64,
        next_group: u64,
        tick_no: u64,
    }

    impl Script {
        fn pick(&self, i: usize) -> Option<u64> {
            (!self.keys.is_empty()).then(|| self.keys[i % self.keys.len()])
        }

        /// The replayable events `op` stands for (`Ticks(n, _)` is `n` of
        /// them). Arrivals name every key ever issued — retired and
        /// draining ones included, which a kernel must ignore — and every
        /// other five-tick block is silent: a full window of zeros drives
        /// `high` to 0, so the next arrival fires the certificate and two
        /// scripts in three cross a RESET.
        fn events(&mut self, op: &Op) -> Vec<ReplayEvent> {
            match *op {
                Op::JoinDedicated => {
                    let key = self.next_key;
                    self.keys.push(key);
                    self.next_key += 1;
                    let tenant = "acme".into();
                    vec![ReplayEvent::JoinDedicated { key, tenant }]
                }
                Op::JoinGroup(n) => {
                    let members: Arc<[u64]> = (self.next_key..self.next_key + n as u64).collect();
                    self.keys.extend_from_slice(&members);
                    self.next_key += n as u64;
                    self.next_group += 1;
                    vec![ReplayEvent::JoinGroup {
                        group: self.next_group - 1,
                        tenant: "globex".into(),
                        members,
                    }]
                }
                Op::Leave(i) => self
                    .pick(i)
                    .map(|key| ReplayEvent::Leave { key })
                    .into_iter()
                    .collect(),
                Op::Ticks(n, seed) => (0..n)
                    .map(|_| {
                        let t = self.tick_no;
                        self.tick_no += 1;
                        let silent = (t / 5) % 2 == 1;
                        let bits = |j: usize| match (seed as u64 + t * 31 + j as u64 * 7) % 5 {
                            _ if silent => 0.0,
                            lcg => lcg as f64 * 0.75,
                        };
                        let arrivals = self.keys.iter().enumerate();
                        let arrivals: Vec<_> = arrivals.map(|(j, &k)| (k, bits(j))).collect();
                        ReplayEvent::Tick {
                            arrivals: arrivals.into(),
                        }
                    })
                    .collect(),
                Op::Burst => {
                    self.tick_no += 1;
                    let arrivals: Vec<_> = self.keys.iter().map(|&k| (k, 100.0)).collect();
                    vec![ReplayEvent::Tick {
                        arrivals: arrivals.into(),
                    }]
                }
            }
        }
    }

    /// Leaves `state` the way a panic in the middle of an event could: a
    /// scalar column cut short, a free slot and a live count no column
    /// knows, a tenant no slot names, arrivals
    /// staged and never un-scattered, flags longer than their columns and
    /// live bits on slots nothing occupies.
    fn tear(state: &mut ShardState) {
        let cols = &mut state.cols;
        cols.low_total.truncate(cols.low_total.len() / 2);
        if let Some(a) = cols.arrived.first_mut() {
            *a = 7.0;
            cols.touched.push(0);
        }
        cols.flags.push(0);
        for f in &mut cols.flags {
            if *f & F_LIVE == 0 {
                *f = F_LIVE | F_DEDICATED | F_STAGE_OPEN | F_LEAVING;
            }
        }
        for _ in 0..7 {
            state.slots.take(0);
        }
        state.slots.vacate(3);
        state.tenants.intern(&"torn".into());
    }

    /// Hull-and-query pairs for the `hull_max_slope` oracle test, three
    /// arms behind a class selector:
    ///
    /// - classes 0–3: hulls built exactly the way the kernel builds them
    ///   — cumulative arrival totals pushed through [`hull_keep`] at
    ///   x = 0, 1, 2, …, queried at a later x with the running total as y
    ///   (a one-arrival sequence yields the single-vertex hull);
    /// - class 4: perfectly collinear vertices (which [`hull_keep`]
    ///   would collapse, so built directly) with an arbitrary query y —
    ///   the slope sequence is then monotone, the edge of unimodality;
    /// - class 5: the explicit one-vertex hull, where the binary search
    ///   never iterates.
    fn hull_and_query() -> impl Strategy<Value = (Vec<(f64, f64)>, (f64, f64))> {
        (
            0u8..6,
            proptest::collection::vec(0.0f64..32.0, 1..200),
            (2usize..50, -100.0f64..100.0, -4.0f64..4.0),
            (-100.0f64..100.0, 1u64..=16),
        )
            .prop_map(|(class, arrivals, (n, c, s), (qy, extra))| match class {
                0..=3 => {
                    let mut hull = Vec::new();
                    let mut total = 0.0f64;
                    for (i, a) in arrivals.iter().enumerate() {
                        let p = (i as f64, total);
                        hull.truncate(hull_keep(
                            HullView {
                                head: &hull,
                                tail: &[],
                            },
                            p,
                        ));
                        hull.push(p);
                        total += a;
                    }
                    let q = ((arrivals.len() as u64 - 1 + extra) as f64, total);
                    (hull, q)
                }
                4 => {
                    let hull: Vec<(f64, f64)> =
                        (0..n).map(|i| (i as f64, c + s * i as f64)).collect();
                    (hull, ((n as u64 - 1 + extra) as f64, qy))
                }
                _ => (vec![(0.0, c)], (extra as f64, qy)),
            })
    }

    /// Arrival bits over every `f64` pattern, weighted towards the edges of
    /// the `f32` form: arbitrary bits (NaN and ∞ included — the codec does
    /// not validate), `-0.0`, subnormals, integers below 2^24, 1/64-bit
    /// values, and widened `f32`s.
    fn tick_bits() -> impl Strategy<Value = f64> {
        (0u8..6, 0..=u64::MAX).prop_map(|(class, raw)| match class {
            0 => f64::from_bits(raw),
            1 => -0.0,
            2 => f64::from_bits(raw & ((1 << 52) - 1) | (raw & 1 << 63)),
            3 => (raw % (1 << 24)) as f64,
            4 => (raw % (1 << 30)) as f64 / 64.0,
            _ => f64::from(f32::from_bits(raw as u32)),
        })
    }

    /// Tick batches in key order ascending, descending, as drawn, and one
    /// key repeated.
    fn tick_batch() -> impl Strategy<Value = Vec<(u64, f64)>> {
        (
            0u8..4,
            proptest::collection::vec((0..=u64::MAX, tick_bits()), 0..64),
        )
            .prop_map(|(order, mut arrivals)| {
                match order {
                    0 => arrivals.sort_by_key(|a| a.0),
                    1 => arrivals.sort_by_key(|a| std::cmp::Reverse(a.0)),
                    2 => {}
                    _ => {
                        let key = arrivals.first().map_or(0, |a| a.0);
                        arrivals.iter_mut().for_each(|a| a.0 = key);
                    }
                }
                arrivals
            })
    }

    /// Decodes `arrivals`' encoding and compares it bit for bit; returns
    /// what each arrival cost, read off the prefix lengths (the encoding
    /// streams, so an arrival's bytes never depend on what follows it).
    fn tick_round_trip(arrivals: &[(u64, f64)]) -> Vec<usize> {
        let mut buf = Vec::new();
        let batch = TickBatch::encode(arrivals, &mut buf);
        let bits = |a: &[(u64, f64)]| a.iter().map(|&(k, b)| (k, b.to_bits())).collect::<Vec<_>>();
        let decoded: Vec<(u64, f64)> = batch.iter().collect();
        assert_eq!(bits(&decoded), bits(arrivals), "round trip");
        let mut costs = Vec::new();
        let mut before = 0;
        for n in 1..=arrivals.len() {
            let len = TickBatch::encode(&arrivals[..n], &mut buf).bytes();
            costs.push(len - before);
            before = len;
        }
        assert_eq!(before, batch.bytes());
        costs
    }

    /// The journal's tick encoding at its edges: the keys `0` and
    /// `u64::MAX` side by side (a wrapped delta of ±1), a delta of 2^63
    /// (all 64 zigzag bits, so the width flag is bit 65 and the varint
    /// runs to 10 bytes), and the width choice for `-0.0`, a subnormal, an
    /// `f32`-exact and an inexact value.
    #[test]
    fn tick_batches_encode_their_edges_exactly() {
        let subnormal = f64::from_bits(1);
        assert_eq!(
            tick_round_trip(&[
                (0, 1.0),
                (u64::MAX, 2.0),
                (0, 3.0),
                (1 << 63, 0.1),
                (0, 0.1),
                (1, -0.0),
                (2, subnormal),
                (3, 0.015625),
                (4, 16_777_215.0),
                (5, 16_777_217.0),
            ]),
            [5, 5, 5, 18, 18, 5, 9, 5, 5, 9]
        );
        assert_eq!(TickBatch::encode(&[], &mut Vec::new()).bytes(), 0);
        assert_eq!(TickBatch::encode(&[], &mut Vec::new()).iter().count(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256 })]

        /// Any batch round-trips bit for bit, in order, in at most 18
        /// bytes an arrival.
        #[test]
        fn tick_batches_round_trip_bitwise(arrivals in tick_batch()) {
            let costs = tick_round_trip(&arrivals);
            prop_assert!(costs.iter().all(|&c| c <= 18), "costs {costs:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24 })]

        /// `hull_max_slope`'s unimodal binary search against the naive
        /// linear scan it replaces: over kernel-built hulls, perfectly
        /// collinear hulls, and the single-vertex hull, both must return
        /// the *same f64* — the slope at the best vertex is the same
        /// division either way, so equality is bitwise, not approximate.
        #[test]
        fn hull_max_slope_matches_linear_scan_oracle(hq in hull_and_query()) {
            let (hull, q) = hq;
            let oracle = hull
                .iter()
                .map(|&(x, y)| (q.1 - y) / (q.0 - x))
                .fold(f64::NEG_INFINITY, f64::max);
            // Wherever the inline vertices end and the spill begins.
            for split in 0..=hull.len() {
                let (head, tail) = hull.split_at(split);
                let fast = hull_max_slope(HullView { head, tail }, q);
                prop_assert_eq!(fast, oracle);
            }
        }

        /// The columnar frames as a replication chain: a mirror shard
        /// re-fed a frame after every step writes the live shard's frame
        /// again, byte for byte (it compacts slots in frame-row order, and
        /// a frame carries no slot). Every dedicated session also
        /// round-trips bitwise through the single-row migration frame.
        #[test]
        fn columnar_chain_matches_full_checkpoint(
            ops in proptest::collection::vec(op_strategy(), 1..40),
        ) {
            let cfg = shard_cfg();
            let mut live = ShardState::new(0, &cfg);
            let mut mirror = ShardState::new(0, &cfg);
            let mut sink = columnar::ColumnSink::default();
            let mut scratch = ApplyScratch::default();
            let (mut buf, mut again) = (Vec::new(), Vec::new());
            let mut script = Script::default();
            for op in &ops {
                for ev in script.events(op) {
                    live.apply(&ev);
                }
                live.encode_columnar(&mut sink, &mut buf);
                let frame = columnar::parse(&buf).expect("own frames parse");
                mirror.apply_frame(&frame, &mut scratch).expect("own frames apply");
                mirror.encode_columnar(&mut sink, &mut again);
                prop_assert_eq!(&again, &buf);
            }
            // Migration frames: every dedicated session (the ones that
            // migrate) round-trips bitwise through the single-row slice.
            for s in script.keys.iter().filter_map(|&key| live.checkpoint_session(key)) {
                columnar::encode_session_frame(&s, &mut buf);
                let frame = columnar::parse(&buf).expect("migration frame parses");
                let rt = columnar::session_from_frame(&frame).expect("migration frame lands");
                columnar::encode_session_frame(&rt, &mut again);
                prop_assert_eq!(&again, &buf);
            }
        }
    }

    /// Drives `ops` through a shard that is moved around the way
    /// production moves it — migration as a lease blob (export → forget →
    /// import), checkpoint capture, and crash recovery from the last frame
    /// plus a journal replay — and through a twin that only migrates:
    /// after every tick, and after every recovery, the two must hold the
    /// same state, bit for bit ([`canonical_frame`]). Whether the kernel
    /// itself is right is `tests/tests/ctrl_vs_core.rs`'s question.
    /// Returns the moved shard.
    fn lockstep(ops: &[LockstepOp]) -> ShardState {
        let mut soa = shard();
        let mut twin = shard();
        let mut sink = columnar::ColumnSink::default();
        // The supervisor's recovery state: the last captured frame
        // (none until the first capture, when the journal runs from
        // genesis) and the replayable events applied since.
        let mut frame: Option<Vec<u8>> = None;
        let mut journal: Vec<ReplayEvent> = Vec::new();
        let mut recoveries = 0usize;
        let mut script = Script::default();
        let apply = |soa: &mut ShardState,
                     twin: &mut ShardState,
                     journal: &mut Vec<ReplayEvent>,
                     ev: ReplayEvent| {
            soa.apply(&ev);
            twin.apply(&ev);
            journal.push(ev);
        };
        for op in ops {
            match op {
                LockstepOp::Plain(op) => {
                    for ev in script.events(op) {
                        let ticked = matches!(ev, ReplayEvent::Tick { .. });
                        apply(&mut soa, &mut twin, &mut journal, ev);
                        if ticked {
                            assert_eq!(canonical_frame(&soa), canonical_frame(&twin));
                        }
                    }
                }
                LockstepOp::Migrate(i) => {
                    // Pooled members and retired keys do not export.
                    let exported = script.pick(*i).and_then(|key| soa.checkpoint_session(key));
                    let Some(cp) = exported else {
                        continue;
                    };
                    // As a lease blob: one frame row, validated on import.
                    let mut blob = Vec::new();
                    columnar::encode_session_frame(&cp, &mut blob);
                    let row = columnar::parse(&blob).expect("a lease blob parses");
                    let mut leased = columnar::session_from_frame(&row).expect("it lands");
                    let (key, new_key) = (cp.key, script.next_key);
                    leased.key = new_key;
                    apply(
                        &mut soa,
                        &mut twin,
                        &mut journal,
                        ReplayEvent::Forget { key },
                    );
                    let cp = Arc::new(leased);
                    apply(
                        &mut soa,
                        &mut twin,
                        &mut journal,
                        ReplayEvent::Import { cp },
                    );
                    script.keys.push(new_key);
                    script.next_key += 1;
                }
                LockstepOp::Capture => {
                    let bytes = frame.get_or_insert_with(Vec::new);
                    soa.encode_columnar(&mut sink, bytes);
                    journal.clear();
                }
                LockstepOp::Recover => {
                    // Into the retired state itself, recycled, on every
                    // other recovery (torn first on every fourth);
                    // into a fresh state otherwise.
                    if recoveries.is_multiple_of(4) {
                        tear(&mut soa);
                    }
                    let target = if recoveries.is_multiple_of(2) {
                        soa.recycle()
                    } else {
                        shard()
                    };
                    soa = target.rebuild(frame.as_deref(), &journal);
                    recoveries += 1;
                    assert_eq!(canonical_frame(&soa), canonical_frame(&twin));
                }
            }
        }
        soa
    }

    /// A shard's frame bytes.
    fn frame_bytes(state: &ShardState) -> Vec<u8> {
        let mut out = Vec::new();
        state.encode_columnar(&mut columnar::ColumnSink::default(), &mut out);
        out
    }

    /// Where the ring's blocks sit: a block that moved, went or came shows.
    fn block_addrs(state: &ShardState) -> Vec<usize> {
        let ring = &state.cols.recent_ring;
        ring.blocks.iter().map(|b| b.as_ptr() as usize).collect()
    }

    /// Populations one short of a ring block, exactly one, one past it and
    /// one reaching into a third, through [`lockstep`]. The script wraps the
    /// `W` = 4 ring several times, meters a pooled group through the
    /// gather path, and reuses a retired slot. A burst holds every
    /// dedicated session in RESET for several ticks; one is leased and
    /// the shard recovered from a frame in the middle of it, and again a
    /// few ticks into the next stages, while windows are partly filled.
    #[test]
    fn ring_block_edges_are_bitwise_invisible() {
        use LockstepOp::*;
        for n in [
            RING_BLOCK - 1,
            RING_BLOCK,
            RING_BLOCK + 1,
            2 * RING_BLOCK + 3,
        ] {
            let joins = std::iter::repeat_n(Plain(Op::JoinDedicated), n - 3);
            let ops: Vec<LockstepOp> = joins
                .chain([
                    Plain(Op::JoinGroup(3)),
                    Plain(Op::Ticks(6, 3)),
                    Plain(Op::Leave(n / 2)),
                    Plain(Op::Ticks(6, 5)),
                    Plain(Op::Burst),
                    Plain(Op::Ticks(2, 9)),
                    Migrate(0),
                    Capture,
                    Plain(Op::Ticks(1, 9)),
                    Recover,
                    Plain(Op::Ticks(6, 11)),
                    Capture,
                    Recover,
                    Migrate(1),
                    Plain(Op::Ticks(6, 11)),
                    Plain(Op::JoinDedicated),
                    Plain(Op::Ticks(6, 7)),
                ])
                .collect();
            let shard = lockstep(&ops);
            let blocks = shard.cols.bound().div_ceil(RING_BLOCK);
            assert_eq!(block_addrs(&shard).len(), blocks, "{n} slots");
        }
    }

    /// A restore into a recycled store that holds fewer ring blocks than
    /// the frame needs, and into one that holds more — torn first or not —
    /// lands exactly where a restore into a fresh state does, keeps every
    /// block the donor had where it was, and runs on identically.
    #[test]
    fn restores_into_recycled_stores_holding_fewer_and_more_blocks() {
        // A history of `n` sessions: the state, its last frame and the
        // journal since.
        let history = |n: usize| {
            let mut state = shard();
            let mut script = Script::default();
            let mut run = |state: &mut ShardState, ops: &[Op]| {
                let evs: Vec<ReplayEvent> = ops.iter().flat_map(|op| script.events(op)).collect();
                evs.iter().for_each(|ev| state.apply(ev));
                evs
            };
            let joins = vec![Op::JoinDedicated; n];
            run(&mut state, &joins);
            run(&mut state, &[Op::Ticks(6, 1), Op::Ticks(3, 2)]);
            let mut frame = Vec::new();
            let mut sink = columnar::ColumnSink::default();
            state.encode_columnar(&mut sink, &mut frame);
            let journal = run(
                &mut state,
                &[Op::Leave(1), Op::Ticks(4, 9), Op::JoinDedicated],
            );
            let after = script.events(&Op::Ticks(6, 4));
            (state, frame, journal, after)
        };
        let (small, big) = (RING_BLOCK - 1, 3 * RING_BLOCK + 1);
        for (donor_n, frame_n) in [(small, big), (big, small)] {
            for torn in [false, true] {
                let (mut donor, ..) = history(donor_n);
                let (_, frame, journal, after) = history(frame_n);
                let held = block_addrs(&donor);
                if torn {
                    tear(&mut donor);
                }
                let mut restored = donor.recycle().rebuild(Some(&frame), &journal);
                let mut fresh = shard().rebuild(Some(&frame), &journal);
                assert_eq!(frame_bytes(&restored), frame_bytes(&fresh));
                let now = block_addrs(&restored);
                let blocks = donor_n.max(restored.cols.bound()).div_ceil(RING_BLOCK);
                assert_eq!(now.len(), blocks, "donor {donor_n}, frame {frame_n}");
                assert_eq!(&now[..held.len()], held);
                for ev in after {
                    restored.apply(&ev);
                    fresh.apply(&ev);
                    assert_eq!(frame_bytes(&restored), frame_bytes(&fresh));
                }
            }
        }
    }

    /// `Columns::grow_to` runs on every tick; at a steady population, and
    /// through a leave and a join that reuses the slot, it must leave the
    /// ring blocks alone — same count, same addresses.
    #[test]
    fn steady_population_never_touches_the_ring_blocks() {
        let mut s = shard();
        let mut script = Script::default();
        let mut run = |s: &mut ShardState, op: Op| {
            for ev in script.events(&op) {
                s.apply(&ev);
            }
        };
        for _ in 0..=RING_BLOCK {
            run(&mut s, Op::JoinDedicated);
        }
        let blocks = block_addrs(&s);
        assert_eq!(blocks.len(), 2, "two ring blocks");
        for _ in 0..200 {
            run(&mut s, Op::Ticks(5, 1));
        }
        assert_eq!(s.ticks(), 1_000);
        let bound = s.cols.bound();
        run(&mut s, Op::Leave(2));
        run(&mut s, Op::Ticks(6, 1));
        run(&mut s, Op::Ticks(6, 1));
        assert_eq!(
            s.live_sessions(),
            RING_BLOCK,
            "the leaver has drained and retired"
        );
        run(&mut s, Op::JoinDedicated);
        run(&mut s, Op::Ticks(6, 1));
        assert_eq!(s.cols.bound(), bound, "the join reused the slot");
        assert_eq!(block_addrs(&s), blocks);
    }

    /// A window shorter than `2·D_O` (`W` = 4 < 8) and a dedicated session
    /// offered 24 bits a tick against `B_A` = 16 keep FIFO entries queued
    /// after the window has moved past them, so those entries live in the
    /// cold spill (a pooled pair, also pressed hard, rides along through
    /// the gather path). A frame taken while entries sit in the spill
    /// lands them there again, and the shard it lands in runs on as the
    /// uninterrupted one does, bit for bit. Once everything has drained,
    /// no spill is held. (`ctrl_vs_core.rs` drives the same overload
    /// against `cdba-core` and the sim's delay measure.)
    #[test]
    fn fifo_entries_older_than_the_window_spill_and_stay_bitwise() {
        let cfg = shard_cfg();
        let mut soa = ShardState::new(0, &cfg);
        let mut events = vec![
            ReplayEvent::JoinDedicated {
                key: 0,
                tenant: "acme".into(),
            },
            ReplayEvent::JoinDedicated {
                key: 1,
                tenant: "acme".into(),
            },
            ReplayEvent::JoinGroup {
                group: 0,
                tenant: "globex".into(),
                members: vec![2, 3].into(),
            },
        ];
        events.extend((0..64u64).map(|t| {
            let on = |bits: f64| if t < 20 { bits } else { 0.0 };
            let arrivals = vec![
                (0, on(24.0)),
                (1, (t % 3) as f64),
                (2, on(12.0)),
                (3, on(12.0)),
            ];
            ReplayEvent::Tick {
                arrivals: arrivals.into(),
            }
        }));
        // Entries held in spills, over all slots.
        let spilled = |s: &ShardState| {
            s.cols
                .pend_spill
                .iter()
                .flatten()
                .map(|p| p.len())
                .sum::<usize>()
        };
        let mut mirror: Option<ShardState> = None;
        for ev in &events {
            soa.apply(ev);
            if let Some(m) = &mut mirror {
                m.apply(ev);
                assert_eq!(canonical_frame(&soa), canonical_frame(m));
            }
            if mirror.is_none() && spilled(&soa) >= 3 {
                let mut frame = Vec::new();
                soa.encode_columnar(&mut columnar::ColumnSink::default(), &mut frame);
                let mut landed = ShardState::new(0, &cfg);
                let parsed = columnar::parse(&frame).unwrap();
                landed
                    .apply_frame(&parsed, &mut ApplyScratch::default())
                    .unwrap();
                assert_eq!(spilled(&landed), spilled(&soa), "the frame lands the spill");
                assert_eq!(canonical_frame(&soa), canonical_frame(&landed));
                mirror = Some(landed);
            }
        }
        assert!(
            mirror.is_some(),
            "three entries outlived the window at once"
        );
        let max_delay = soa.report().live.iter().map(|m| m.max_delay).max();
        assert!(max_delay > Some(cfg.w as u64), "delay {max_delay:?}");
        assert!(
            soa.cols.pend_spill.iter().all(Option::is_none),
            "a drained FIFO holds no spill"
        );
    }

    /// Slots holding a hull spill.
    fn hull_spills(s: &ShardState) -> usize {
        s.cols.hull_spill.iter().flatten().count()
    }

    /// A frame of `s`, landed in a fresh shard: the landed shard and both
    /// frames' bytes.
    fn land_frame(s: &ShardState) -> (ShardState, Vec<u8>, Vec<u8>) {
        let mut sink = columnar::ColumnSink::default();
        let mut frame = Vec::new();
        s.encode_columnar(&mut sink, &mut frame);
        let mut landed = shard();
        let parsed = columnar::parse(&frame).unwrap();
        landed
            .apply_frame(&parsed, &mut ApplyScratch::default())
            .unwrap();
        let mut again = Vec::new();
        landed.encode_columnar(&mut sink, &mut again);
        (landed, frame, again)
    }

    /// Session 0's arrivals climb by 1/64 bit a tick, so its cumulative
    /// curve is strictly convex and every tick adds a hull vertex: the
    /// hull outgrows its [`HULL_INLINE`] inline vertices and spills the
    /// rest. A silent tick then makes the newest point pop all but the
    /// first vertex, and the shrunken hull keeps its spill, emptied; it
    /// climbs again, and a burst fires the certificate, so a RESET
    /// empties the hull and drops the spill; flat traffic after it keeps
    /// two vertices, as it does session 1's throughout. A pooled pair
    /// rides along. While a hull is past its inline capacity a frame
    /// lands it with a spill again, writes the same bytes again, and runs
    /// on as the shard it came from does.
    #[test]
    fn hulls_past_the_inline_capacity_spill_and_stay_bitwise() {
        let mut soa = shard();
        let joins = [
            ReplayEvent::JoinDedicated {
                key: 0,
                tenant: "acme".into(),
            },
            ReplayEvent::JoinDedicated {
                key: 1,
                tenant: "initech".into(),
            },
            ReplayEvent::JoinGroup {
                group: 0,
                tenant: "globex".into(),
                members: vec![2, 3].into(),
            },
        ];
        for ev in &joins {
            soa.apply(ev);
        }
        let climb = |t: u64| 1.0 + t as f64 / 64.0;
        let ticks = (0..40u64).map(|t| {
            let bits = match t {
                10 => 0.0,
                17 => 100.0,
                18.. => 1.0,
                _ => climb(t),
            };
            let arrivals = vec![(0, bits), (1, 1.0), (2, 2.0), (3, 1.0)];
            ReplayEvent::Tick {
                arrivals: arrivals.into(),
            }
        });
        let (mut spilled, mut shrank_in_spill, mut reset_spilled) = (0, false, false);
        let mut mirrors: Vec<ShardState> = Vec::new();
        for ev in &ticks.collect::<Vec<_>>() {
            let (was_spilled, stages) = (hull_spills(&soa), soa.cols.stages_completed[0]);
            soa.apply(ev);
            for m in &mut mirrors {
                m.apply(ev);
                assert_eq!(canonical_frame(&soa), canonical_frame(m));
            }
            assert!(soa.cols.hull_len[1] <= 2, "a flat curve keeps two vertices");
            let now = hull_spills(&soa);
            if soa.cols.stages_completed[0] > stages {
                assert_eq!(now, 0, "a RESET drops the spill");
                reset_spilled |= was_spilled > 0;
            }
            if now > 0 {
                let n = soa.cols.hull(0).len();
                assert_eq!(soa.cols.hull_len[0] as usize, n);
                let spill = soa.cols.hull_spill[0].as_ref().expect("slot 0 spills");
                assert_eq!(spill.len(), n.saturating_sub(HULL_INLINE));
                shrank_in_spill |= n <= HULL_INLINE;
                if n > HULL_INLINE && spilled < 2 {
                    let (landed, frame, again) = land_frame(&soa);
                    assert_eq!(hull_spills(&landed), now, "the frame lands the spill");
                    assert_eq!(frame, again, "a landed spill writes the same frame");
                    assert_eq!(canonical_frame(&soa), canonical_frame(&landed));
                    mirrors.push(landed);
                    spilled += 1;
                }
            }
        }
        assert!(spilled >= 2, "the hull spilled");
        assert!(shrank_in_spill, "a shrinking hull keeps its spill");
        assert!(reset_spilled, "a RESET empties a spilled hull");
        assert_eq!(hull_spills(&soa), 0, "no hull outgrows flat traffic");
        assert_eq!(mirrors.len(), 2);
    }

    /// A slot freed by a retirement is the next join's, the last freed
    /// first, and nothing addressed to the departed key reaches the
    /// session that took its slot: its arrivals, its leave, its export
    /// and its forget all miss. What the slab's generations guarded, the
    /// exact key map and the slot's own key now do.
    #[test]
    fn departed_keys_miss_the_sessions_that_reuse_their_slots() {
        let script = |departed: bool| {
            let mut s = shard();
            for key in 0..4 {
                s.apply(&ReplayEvent::JoinDedicated {
                    key,
                    tenant: "acme".into(),
                });
            }
            s.apply(&ReplayEvent::JoinGroup {
                group: 0,
                tenant: "globex".into(),
                members: vec![4, 5].into(),
            });
            s.apply(&ReplayEvent::Tick {
                arrivals: vec![(0, 1.0), (3, 2.0), (4, 1.0), (5, 1.0)].into(),
            });
            // Idle sessions have nothing queued, so both retire at once.
            s.apply(&ReplayEvent::Leave { key: 1 });
            s.apply(&ReplayEvent::Leave { key: 2 });
            assert_eq!(s.live_sessions(), 4);
            s.apply(&ReplayEvent::JoinDedicated {
                key: 6,
                tenant: "acme".into(),
            });
            s.apply(&ReplayEvent::JoinDedicated {
                key: 7,
                tenant: "initech".into(),
            });
            assert_eq!((s.slot_of(6), s.slot_of(7)), (Some(2), Some(1)), "LIFO");
            assert_eq!(s.cols.bound(), 6, "no slot past the freed ones");
            for t in 0..12u64 {
                let mut arrivals = vec![(0, 1.0), (6, (t % 3) as f64), (7, 2.0), (4, 1.0)];
                if departed {
                    arrivals.extend([(1, 9.0), (2, 9.0)]);
                }
                s.apply(&ReplayEvent::Tick {
                    arrivals: arrivals.into(),
                });
                if departed && t == 4 {
                    for key in [1, 2] {
                        assert_eq!(s.slot_of(key), None);
                        assert!(s.checkpoint_session(key).is_none());
                        s.apply(&ReplayEvent::Leave { key });
                        s.apply(&ReplayEvent::Forget { key });
                    }
                    assert_eq!(s.live_sessions(), 6);
                }
            }
            s
        };
        let (hit, clean) = (script(true), script(false));
        assert_eq!(frame_bytes(&hit), frame_bytes(&clean));
        assert_eq!(hit.report().live, clean.report().live);
        assert_eq!(
            hit.cols.flags[1] & F_LEAVING,
            0,
            "the newcomer is not leaving"
        );
        // The pooled pair frees its slots to a join as well.
        let mut s = clean;
        s.apply(&ReplayEvent::Leave { key: 4 });
        s.apply(&ReplayEvent::Leave { key: 5 });
        for _ in 0..32 {
            s.apply(&ReplayEvent::Tick {
                arrivals: vec![].into(),
            });
        }
        assert!(
            s.groups.is_empty(),
            "the pair retired and its group dissolved"
        );
        for key in [8, 9] {
            s.apply(&ReplayEvent::JoinDedicated {
                key,
                tenant: "acme".into(),
            });
        }
        let mut took = [s.slot_of(8), s.slot_of(9)];
        took.sort();
        assert_eq!(took, [Some(4), Some(5)]);
        s.apply(&ReplayEvent::Leave { key: 4 });
        assert_eq!(s.live_sessions(), 6);
        assert!(s.checkpoint_session(4).is_none());
    }

    /// A shard's full state as a frame whose rows and retired list run
    /// in key order: the bitwise yardstick for two shards whose slots or
    /// same-tick retirements may order differently (a recovery or a frame
    /// apply compacts slots; slot order is placement, not state).
    fn canonical_frame(state: &ShardState) -> Vec<u8> {
        let mut slots: Vec<usize> = state.live_slots().collect();
        slots.sort_by_key(|&i| state.cols.keys[i]);
        let mut retired = state.retired.to_vec();
        retired.sort_by_key(|m| m.session);
        let mut out = Vec::new();
        let sink = &mut columnar::ColumnSink::default();
        state.encode_rows(slots, &retired, sink, &mut out);
        out
    }
}
