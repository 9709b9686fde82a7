//! The session store: one slot per session and one column per scalar
//! the tick kernel reads or writes, the lower hull inline with a cold
//! spill, and the window ring a slot's meter, high tracker and delay FIFO
//! share.

use super::*;
use crate::codec;
use std::collections::hash_map::DefaultHasher;
use std::hash::BuildHasherDefault;

/// A lower hull's vertices, oldest first, as a slot holds them: the
/// first [`HULL_INLINE`] inline (`head`), any past them in the slot's
/// spill (`tail`).
#[derive(Clone, Copy)]
pub(super) struct HullView<'a> {
    pub(super) head: &'a [(f64, f64)],
    pub(super) tail: &'a [(f64, f64)],
}

impl<'a> HullView<'a> {
    pub(super) fn len(self) -> usize {
        self.head.len() + self.tail.len()
    }

    pub(super) fn at(self, k: usize) -> (f64, f64) {
        match self.head.get(k) {
            Some(&v) => v,
            None => self.tail[k - self.head.len()],
        }
    }

    pub(super) fn iter(self) -> impl Iterator<Item = &'a (f64, f64)> {
        self.head.iter().chain(self.tail)
    }
}

/// How many of `hull`'s vertices stay once `p` is pushed: the tail is
/// popped while `p` makes it non-convex — `HullLowTracker::add_point`,
/// same cross-product test. `p` then lands at that index.
pub(super) fn hull_keep(hull: HullView<'_>, p: (f64, f64)) -> usize {
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
pub(super) fn hull_max_slope(hull: HullView<'_>, q: (f64, f64)) -> f64 {
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
pub(super) struct Columns {
    // -- scatter --
    /// Batched arrivals staged for the current tick (the scatter target).
    /// All-zero between ticks: the scatter records every written index in
    /// `touched` and the tick clears exactly those — O(arrivals), not
    /// O(slots).
    pub(super) arrived: Vec<f64>,
    /// Slot indices the current tick's scatter wrote.
    pub(super) touched: Vec<u32>,
    // -- identity --
    /// `F_*` occupancy and mode bits: `F_LIVE` marks an occupied slot,
    /// `F_DEDICATED` its kind, `F_LEAVING` a drain.
    pub(super) flags: Vec<u32>,
    /// Session key per slot. A [`KeyMap`] hit names a live session only
    /// while its slot holds the key with `F_LIVE` set.
    pub(super) keys: Vec<u64>,
    // -- tracker-push phase --
    /// Stage ticks consumed (0 with no stage open) — the low and high
    /// trackers open together and advance in lockstep, so one counter
    /// serves both (imports are validated to agree). The open stage
    /// started at `meter_ticks` less this, and the high tracker's window
    /// is the last `min(this, W)` arrivals of the meter ring.
    pub(super) stage_ticks: Vec<u64>,
    /// Low tracker: total bits arrived this stage.
    pub(super) low_total: Vec<f64>,
    /// High tracker: running sum of its window.
    pub(super) high_window_sum: Vec<f64>,
    /// High tracker: minimum full-window sum (`+∞` while in grace).
    pub(super) high_min_window_sum: Vec<f64>,
    // -- hull-query phase --
    /// Low tracker: running-max `low`.
    pub(super) low_low: Vec<f64>,
    // -- decision phase --
    /// Current `B_on` ladder level.
    pub(super) b_on: Vec<f64>,
    /// Dedicated link-queue backlog (`SingleSession`'s `BitQueue`).
    pub(super) backlog: Vec<f64>,
    /// Stages completed so far — the offline-change certificate count.
    /// The paper's algorithm forgets at every RESET and its proof needs
    /// only this count and the open stage's start, not a per-session log.
    pub(super) stages_completed: Vec<u64>,
    // -- meter flow phase --
    /// Meter shadow link-queue backlog.
    pub(super) shadow_backlog: Vec<f64>,
    /// Allocation of the previous tick (change detection).
    pub(super) current_alloc: Vec<f64>,
    /// Allocation changes counted.
    pub(super) changes: Vec<u64>,
    /// Peak single-tick allocation.
    pub(super) peak_alloc: Vec<f64>,
    /// Total bits arrived.
    pub(super) total_arrived: Vec<f64>,
    /// Total bits served.
    pub(super) total_served: Vec<f64>,
    /// Total allocated bandwidth.
    pub(super) total_allocated: Vec<f64>,
    // -- delay-FIFO phase --
    /// Arrival tick of the delay FIFO's head entry.
    pub(super) pend_tick: Vec<u64>,
    /// Unserved bits of the delay FIFO's head entry.
    pub(super) pend_bits: Vec<f64>,
    /// Delay FIFO occupancy, counting the inline head. Only the head is
    /// ever partly served, so the entries behind it are arrivals as they
    /// came: the `pend_spills` entries, then every window arrival
    /// `> EPS` newer than the head.
    pub(super) pend_len: Vec<u32>,
    /// Maximum exact (fractional) FIFO delay observed; the whole-tick
    /// delay a snapshot reports is its ceiling ([`delay_ticks`]).
    pub(super) max_delay_exact: Vec<f64>,
    // -- utilization-window phase --
    /// Ticks metered: the session's one clock. The delay tracker and the
    /// algorithm (pooled slots have none) advance on every metered tick.
    pub(super) meter_ticks: Vec<u64>,
    /// Rolling sum of windowed arrivals.
    pub(super) window_arrived: Vec<f64>,
    /// Rolling sum of windowed allocation.
    pub(super) window_allocated: Vec<f64>,
    /// Meter recent ring: oldest-entry index.
    pub(super) recent_head: Vec<u32>,
    /// Meter recent ring: occupancy (≤ `W`).
    pub(super) recent_len: Vec<u32>,
    /// Minimum windowed utilization so far (`NaN` encodes "none yet";
    /// a real minimum is never NaN — the ratio has a positive finite
    /// denominator).
    pub(super) min_util: Vec<f64>,
    // -- side columns (variable-size per-slot state) --
    /// Meter `(arrivals, allocation)` rings, under
    /// `recent_head`/`recent_len`; the arrival halves are also the high
    /// tracker's window.
    pub(super) recent_ring: SlotRing,
    /// Delay-FIFO entries behind the head that the window evicted while
    /// they were still queued, oldest first, by slot; a slot has an entry
    /// here only while it holds some. An entry outlives the window only
    /// if its delay exceeds `W`, and the paper bounds every delay by
    /// `2·D_O ≤ W` on feasible traffic, so this table fills only under
    /// overload or a window shorter than `2·D_O`.
    pub(super) pend_spills: SlotTable<VecDeque<(u64, f64)>>,
    // -- identity, by id --
    /// Owning tenant: an id into the shard's [`Tenants`].
    pub(super) tenant: Vec<u32>,
    /// A pooled member's group: its slot in the shard's group slab (read
    /// only when `F_DEDICATED` is clear).
    pub(super) group: Vec<u32>,
    // -- lower hull --
    /// Low tracker: vertex count of the lower convex hull.
    pub(super) hull_len: Vec<u32>,
    /// Low tracker: the hull's first [`HULL_INLINE`] vertices
    /// `(x, P[x])`, oldest first; unread past `hull_len`.
    pub(super) hull_pts: Vec<[(f64, f64); HULL_INLINE]>,
    /// Low tracker: the hull's vertices past the inline ones. Made when
    /// the hull first outgrows [`HULL_INLINE`] and kept, emptied, while
    /// it shrinks back, until the hull empties (a RESET, a vacated slot):
    /// a hull that swings across the capacity tick after tick would
    /// otherwise allocate and free a spill on every swing. A handle per
    /// slot, not a table by slot: on traffic whose hulls outgrow their
    /// inline vertices every session can hold one, and hashing its slot
    /// on every hull read more than doubled the inline tick.
    pub(super) hull_spill: Vec<HullSpill>,
    /// Emptied spills [`Columns::recycle`] kept, lowest slot last, for
    /// the frame apply or restore that follows to land long hulls in
    /// instead of allocating them afresh; whatever it leaves is dropped.
    pub(super) hull_free: Vec<SpillBox>,
}

/// State only a few slots ever hold, keyed by slot: a column of handles
/// would cost every slot 8 bytes. A lookup in an empty table (every
/// slot's, on the benchmark's traffic) is one length test; the hashing
/// sits in cold functions, as inlined into the sweep's passes it slowed
/// every slot's step, not just a spilled one's. The hasher is fixed, so
/// two stores with one history hold their entries alike.
pub(super) struct SlotTable<T>(HashMap<u32, T, BuildHasherDefault<DefaultHasher>>);

impl<T> Default for SlotTable<T> {
    fn default() -> Self {
        Self(HashMap::default())
    }
}

impl<T> SlotTable<T> {
    /// Slot `i`'s entry, if it holds one.
    #[inline(always)]
    pub(super) fn get(&self, i: usize) -> Option<&T> {
        if self.0.is_empty() {
            return None;
        }
        self.find(i)
    }

    #[cold]
    #[inline(never)]
    fn find(&self, i: usize) -> Option<&T> {
        self.0.get(&(i as u32))
    }

    /// Slot `i`'s entry, if it holds one, to change.
    #[inline(always)]
    pub(super) fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        if self.0.is_empty() {
            return None;
        }
        self.find_mut(i)
    }

    #[cold]
    #[inline(never)]
    fn find_mut(&mut self, i: usize) -> Option<&mut T> {
        self.0.get_mut(&(i as u32))
    }

    /// Drops slot `i`'s entry, and the table's buckets with its last
    /// entry: a burst of spills (an overloaded cohort) would otherwise
    /// keep its bucket array for good.
    #[inline(always)]
    pub(super) fn remove(&mut self, i: usize) {
        if !self.0.is_empty() {
            self.drop_held(i);
        }
    }

    #[cold]
    #[inline(never)]
    fn drop_held(&mut self, i: usize) {
        if self.0.remove(&(i as u32)).is_some() && self.0.is_empty() {
            self.0.shrink_to_fit();
        }
    }

    /// Slot `i`'s entry, made by `make` if it holds none.
    #[cold]
    #[inline(never)]
    pub(super) fn get_or_insert_with(&mut self, i: usize, make: impl FnOnce() -> T) -> &mut T {
        self.0.entry(i as u32).or_insert_with(make)
    }

    /// Gives slot `i` the entry `entry`.
    pub(super) fn insert(&mut self, i: usize, entry: T) {
        self.0.insert(i as u32, entry);
    }

    /// Drops every entry, keeping the buckets.
    pub(super) fn clear(&mut self) {
        self.0.clear();
    }

    /// Every entry, in no set order.
    #[cfg(test)]
    pub(super) fn values(&self) -> impl Iterator<Item = &T> {
        self.0.values()
    }
}

/// Lower-hull vertices a slot keeps inline. A hull gains one vertex per
/// stage tick and loses every vertex the next one makes non-convex; on
/// the benchmark's `dense-100k` traffic (100k sessions, read at ticks
/// 138–528) 98.8–99.0 % of the hulls hold at most 4 and none more than 6.
pub(super) const HULL_INLINE: usize = 4;

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
/// inline hull and the hull spill handles — with its vacant-slot value
/// (zeros, with the grace `+∞` and none-yet `NaN` sentinels armed, and no
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
            max_delay_exact 0.0, meter_ticks 0,
            window_arrived 0.0, window_allocated 0.0, recent_head 0,
            recent_len 0, min_util f64::NAN,
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
    pub(super) fn grow_to(&mut self, bound: usize, w: usize) {
        if self.flags.len() >= bound {
            return;
        }
        scalar_columns!(self, |col, vacant| col.resize(bound, vacant));
        self.recent_ring.grow_to(bound, w);
    }

    /// Empties the store, keeping allocations only: every fixed-width
    /// column goes to length 0, so [`Columns::grow_to`] re-arms each slot
    /// exactly as it does in a fresh store; the rings keep their blocks (a
    /// ring cell is only read under a cursor that was written first), the
    /// FIFO spills go, and the hull spills move to `hull_free`, emptied
    /// when drawn. Nothing that was *in* a column survives, so a store
    /// torn mid-event is worth exactly as much as a fresh one.
    pub(super) fn recycle(&mut self) {
        self.hull_free
            .extend(self.hull_spill.drain(..).rev().flatten());
        self.pend_spills.clear();
        scalar_columns!(self, |col, _vacant| col.clear());
        self.touched.clear();
    }

    /// Slots the columns cover: one past the highest slot ever occupied
    /// since the store was last emptied.
    pub(super) fn bound(&self) -> usize {
        self.flags.len()
    }

    /// Slot `i`'s lower hull, oldest vertex first.
    pub(super) fn hull(&self, i: usize) -> HullView<'_> {
        let n = (self.hull_len[i] as usize).min(HULL_INLINE);
        HullView {
            head: &self.hull_pts[i][..n],
            tail: self.hull_spill[i].as_deref().map_or(&[], Vec::as_slice),
        }
    }

    /// Pushes `p` onto slot `i`'s lower hull ([`hull_keep`]): at index
    /// `n` inline, or past the inline vertices into the spill, made on
    /// first need and kept (see `hull_spill`).
    pub(super) fn hull_push(&mut self, i: usize, p: (f64, f64)) {
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
    pub(super) fn land_hull(
        &mut self,
        i: usize,
        n: usize,
        vertices: impl Iterator<Item = (f64, f64)>,
    ) {
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
    pub(super) fn clear_hull(&mut self, i: usize) {
        self.hull_len[i] = 0;
        self.hull_spill[i] = None;
    }

    /// Resets slot `i` to the vacant-slot state: every scalar column, and
    /// no spill.
    pub(super) fn reset_scalars(&mut self, i: usize) {
        scalar_columns!(self, |col, vacant| col[i] = vacant);
        self.pend_spills.remove(i);
    }

    /// Initializes slot `i` for a fresh session `key` (meter state as
    /// `SignallingMeter::new`; dedicated slots additionally get their
    /// allocator state via [`Columns::init_dedicated`]). The ring regions
    /// need no clearing: their cursors reset and writes precede reads.
    /// `vacant` says [`Columns::grow_to`] has just filled the slot with
    /// the vacant-slot state, so the reset would write every column twice.
    pub(super) fn init_fresh(&mut self, i: usize, key: u64, vacant: bool) {
        if !vacant {
            self.reset_scalars(i);
        }
        self.keys[i] = key;
        self.flags[i] = F_LIVE;
    }

    /// Gives slot `i` a fresh dedicated allocator — `SingleSession::new`
    /// over the columns: stage 0 opens immediately with fresh trackers
    /// (which the vacant-slot scalars already encode).
    pub(super) fn init_dedicated(&mut self, i: usize) {
        self.flags[i] |= F_DEDICATED | F_STAGE_OPEN;
    }

    /// Lands slot `i`'s delay FIFO of `len` entries, after its clock and
    /// ring have landed, from `pending` oldest first: the head inline,
    /// the entries older than the window in the spill. The rest are the
    /// window's own arrivals, which the ring already holds, so `pending`
    /// stops after the spill ([`columnar::fifo_cells`] is the check every
    /// frame passes first).
    pub(super) fn land_pending(
        &mut self,
        i: usize,
        len: u32,
        pending: impl Iterator<Item = (u64, f64)>,
    ) {
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
        if !spill.is_empty() {
            self.pend_spills.insert(i, spill);
        }
    }

    /// The delay-FIFO entries slot `i` holds apart from its window, oldest
    /// first: the head, then the spill.
    pub(super) fn fifo_held(&self, i: usize) -> impl Iterator<Item = (u64, f64)> + '_ {
        let head = (self.pend_len[i] > 0).then(|| (self.pend_tick[i], self.pend_bits[i]));
        let spill = self.pend_spills.get(i).into_iter().flatten().copied();
        head.into_iter().chain(spill)
    }

    /// The metered totals of slot `i`, labelled for export.
    pub(super) fn metrics(
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

/// Column `src` read at each listed slot, in list order — a fixed
/// column's cells for the checkpoint writer.
pub(super) fn at_slots<'a, T: Copy>(
    src: &'a [T],
    slots: &'a [u32],
) -> impl Iterator<Item = T> + 'a {
    slots.iter().map(move |&i| src[i as usize])
}

/// Slots per ring block. Tests run with a block of 8, so the bitwise
/// oracles cross block edges at their everyday populations.
#[cfg(not(test))]
pub(super) const RING_BLOCK: usize = 4096;
#[cfg(test)]
pub(super) const RING_BLOCK: usize = 8;

/// Cells from one ring position of a block to the next: the block's
/// slots and one cache line of cells more. At a stride of exactly
/// `RING_BLOCK` cells a slot's `W` cells sit 32 KiB apart, all in one L1
/// set, and landing a 100k-session frame ran 60 ms against 45.
const RING_ROW: usize = RING_BLOCK + 8;

/// The bits of an `f64`'s mantissa.
const MANTISSA: u64 = (1 << 52) - 1;

/// What each one-byte allocation code stands for: 0 is `0.0`, and `c` in
/// `1..=255` is `2^(c − 128)`. Theorem 6's allocator hands a dedicated
/// session nothing else: 0, or the smallest power of two at or above
/// `low(t)`, capped at `B_A`, itself a power of two (a configuration with
/// any other `B_A` is refused).
static CODES: [f64; 256] = {
    let mut values = [0.0; 256];
    let mut c = 1;
    while c < 256 {
        values[c] = f64::from_bits((c as u64 + 895) << 52);
        c += 1;
    }
    values
};

/// The code that reads back as `v`'s bits, if there is one: for a
/// positive power of two, its biased exponent less 895 (a set sign bit
/// puts it out of range).
#[inline(always)]
fn code(v: f64) -> Option<u8> {
    let bits = v.to_bits();
    let exp = bits >> 52;
    if bits & MANTISSA == 0 && (896..=1150).contains(&exp) {
        Some((exp - 895) as u8)
    } else {
        (bits == 0).then_some(0)
    }
}

/// One half of a ring block's cells as floats, 4 bytes a cell while
/// narrow: an `f32`'s bits. It stays narrow while every value written is
/// [`codec::f32_exact`]; the first that is not widens it for good: `hi`
/// then holds the high halves of the `f64` bits and a zero-allocated
/// `lo` their low halves. Widening frees nothing: freeing the narrow
/// cells raised glibc's dynamic mmap threshold, and later mid-size
/// allocations stayed resident in the heap (`lean-256` on unrounded
/// arrivals peaked 0.75 MB higher).
struct Floats {
    hi: Box<[u32]>,
    lo: Option<Box<[u32]>>,
}

impl Floats {
    fn zeroed(cells: usize) -> Self {
        Floats {
            hi: vec![0; cells].into_boxed_slice(),
            lo: None,
        }
    }

    #[inline(always)]
    fn get(&self, k: usize) -> f64 {
        let h = self.hi[k];
        match &self.lo {
            None => f64::from(f32::from_bits(h)),
            Some(lo) => f64::from_bits(u64::from(h) << 32 | u64::from(lo[k])),
        }
    }

    /// Writes cell `k`, widening the half if `v` needs it.
    #[inline(always)]
    fn set(&mut self, k: usize, v: f64) {
        if self.lo.is_none() {
            if let Some(narrow) = codec::f32_exact(v) {
                self.hi[k] = narrow.to_bits();
                return;
            }
            self.widen();
        }
        if let Some(lo) = &mut self.lo {
            let bits = v.to_bits();
            (self.hi[k], lo[k]) = ((bits >> 32) as u32, bits as u32);
        }
    }

    /// Widens a narrow half in place. Only the non-zero cells are
    /// rewritten, so a page of `lo` no cell was written to stays
    /// untouched, as in the rest of a zero-allocated half.
    #[cold]
    #[inline(never)]
    fn widen(&mut self) {
        let mut lo = vec![0; self.hi.len()].into_boxed_slice();
        for (h, l) in self.hi.iter_mut().zip(lo.iter_mut()) {
            if *h != 0 {
                let bits = f64::from(f32::from_bits(*h)).to_bits();
                (*h, *l) = ((bits >> 32) as u32, bits as u32);
            }
        }
        self.lo = Some(lo);
    }

    /// Bytes a cell.
    #[cfg(test)]
    fn cell_bytes(&self) -> usize {
        if self.lo.is_some() {
            8
        } else {
            4
        }
    }
}

/// A ring block's allocation half: a one-byte code a cell ([`CODES`])
/// while every allocation written has one — a dedicated session's
/// always do — else floats. The first allocation no code holds (a
/// pooled member's share) turns the half into [`Floats`] for good and
/// frees the codes: at `W` ≤ 31 they are a heap chunk below glibc's
/// 128 KiB mmap threshold, so freeing them leaves that threshold alone.
enum Allocs {
    Coded(Box<[u8]>),
    Floats(Floats),
}

/// One ring block's `(arrivals, allocation)` cells, each half widening
/// on its own: arrivals from `f32` to `f64`, allocations from a code to
/// `f32` to `f64`. Either way a cell reads back as the `f64`s written.
pub(super) struct RingBlock {
    arrivals: Floats,
    allocs: Allocs,
}

impl RingBlock {
    fn zeroed(cells: usize) -> Self {
        RingBlock {
            arrivals: Floats::zeroed(cells),
            allocs: Allocs::Coded(vec![0; cells].into_boxed_slice()),
        }
    }

    #[inline(always)]
    fn alloc(&self, k: usize) -> f64 {
        match &self.allocs {
            Allocs::Coded(c) => CODES[usize::from(c[k])],
            Allocs::Floats(f) => f.get(k),
        }
    }

    /// Writes cell `k`, widening either half if the pair needs it, and
    /// returns what the cell held.
    #[inline(always)]
    fn replace(&mut self, k: usize, (a, b): (f64, f64)) -> (f64, f64) {
        let old = (self.arrivals.get(k), self.alloc(k));
        self.arrivals.set(k, a);
        if let Allocs::Coded(c) = &mut self.allocs {
            if let Some(code) = code(b) {
                c[k] = code;
                return old;
            }
            self.uncode();
        }
        if let Allocs::Floats(f) = &mut self.allocs {
            f.set(k, b);
        }
        old
    }

    /// Turns a coded allocation half into floats, writing only the
    /// non-zero cells (see [`Floats::widen`]).
    #[cold]
    #[inline(never)]
    fn uncode(&mut self) {
        if let Allocs::Coded(c) = &self.allocs {
            let mut floats = Floats::zeroed(c.len());
            for (k, &code) in c.iter().enumerate().filter(|&(_, &code)| code != 0) {
                floats.set(k, CODES[usize::from(code)]);
            }
            self.allocs = Allocs::Floats(floats);
        }
    }

    /// Bytes a cell of each half: arrivals 4 or 8, allocations 1, 4
    /// or 8.
    #[cfg(test)]
    pub(super) fn cell_bytes(&self) -> (usize, usize) {
        let allocs = match &self.allocs {
            Allocs::Coded(_) => 1,
            Allocs::Floats(f) => f.cell_bytes(),
        };
        (self.arrivals.cell_bytes(), allocs)
    }

    /// Where the block's arrival cells sit.
    #[cfg(test)]
    pub(super) fn addr(&self) -> usize {
        self.arrivals.hi.as_ptr() as usize
    }
}

/// One `W`-entry `(arrivals, allocation)` ring per slot, stored in
/// zero-allocated [`RingBlock`]s of [`RING_BLOCK`] slots. A block is
/// *time-major inside itself*: ring position `q` of slot `i` is cell
/// `q·RING_ROW + i % RING_BLOCK` of `blocks[i / RING_BLOCK]`. Sessions
/// that joined together advance their cursors in lockstep, so a tick's
/// ring traffic lands on one densely shared row segment per block and
/// half (5 bytes per slot while narrow and coded) instead of dragging a
/// `W`-stride cache line per slot through the sweep — the layout exists
/// for that access pattern. Growth appends a block and moves no cell;
/// only turning a block's codes into floats re-lays that half.
#[derive(Default)]
pub(super) struct SlotRing {
    pub(super) blocks: Vec<RingBlock>,
}

impl SlotRing {
    /// Appends narrow, coded blocks until `bound` slots are covered;
    /// never shrinks.
    pub(super) fn grow_to(&mut self, bound: usize, w: usize) {
        while self.blocks.len() * RING_BLOCK < bound {
            self.blocks.push(RingBlock::zeroed(RING_ROW * w));
        }
    }

    /// Lands `entries` (at most `w`) as slot `i`'s ring, oldest at
    /// position 0 — the form a restore leaves a ring in, head 0.
    pub(super) fn land(&mut self, i: usize, entries: impl IntoIterator<Item = (f64, f64)>) {
        let (block, at) = (&mut self.blocks[i / RING_BLOCK], i % RING_BLOCK);
        for (q, v) in entries.into_iter().enumerate() {
            block.replace(q * RING_ROW + at, v);
        }
    }

    /// Slot `i`'s cells as `read` reads them, oldest first (they sit
    /// [`RING_ROW`] apart, so there is no contiguous run to borrow).
    fn cells<'a, T>(
        &'a self,
        w: usize,
        (heads, lens): (&[u32], &[u32]),
        i: usize,
        read: impl Fn(&'a RingBlock, usize) -> T + 'a,
    ) -> impl ExactSizeIterator<Item = T> + 'a {
        let (block, at) = (&self.blocks[i / RING_BLOCK], i % RING_BLOCK);
        let head = heads[i] as usize;
        (0..lens[i] as usize).map(move |j| {
            let idx = head + j;
            let q = if idx >= w { idx - w } else { idx };
            read(block, q * RING_ROW + at)
        })
    }

    /// Slot `i`'s arrivals, oldest first.
    pub(super) fn arrivals<'a>(
        &'a self,
        w: usize,
        cursors: (&[u32], &[u32]),
        i: usize,
    ) -> impl ExactSizeIterator<Item = f64> + 'a {
        self.cells(w, cursors, i, |block, k| block.arrivals.get(k))
    }

    /// Slot `i`'s allocations, oldest first.
    pub(super) fn allocs<'a>(
        &'a self,
        w: usize,
        cursors: (&[u32], &[u32]),
        i: usize,
    ) -> impl ExactSizeIterator<Item = f64> + 'a {
        self.cells(w, cursors, i, |block, k| block.alloc(k))
    }

    /// The arrival at ring position `q` of slot `i`.
    #[inline(always)]
    pub(super) fn arrival(&self, q: usize, i: usize) -> f64 {
        self.blocks[i / RING_BLOCK]
            .arrivals
            .get(q * RING_ROW + i % RING_BLOCK)
    }

    /// Writes ring position `q` of slot `i`, widening a half of its block
    /// if `v` needs it, and returns what the position held.
    #[inline(always)]
    pub(super) fn replace(&mut self, q: usize, i: usize, v: (f64, f64)) -> (f64, f64) {
        let k = q * RING_ROW + i % RING_BLOCK;
        self.blocks[i / RING_BLOCK].replace(k, v)
    }
}
