//! The session store: one slot per session and one column per scalar
//! the tick kernel reads or writes, the lower hull inline with a cold
//! spill, and the window ring a slot's meter, high tracker and delay FIFO
//! share.

use super::*;

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
    /// came: the `pend_spill` entries, then every window arrival
    /// `> EPS` newer than the head ([`Columns::pending`]).
    pub(super) pend_len: Vec<u32>,
    /// Maximum whole-tick FIFO delay observed.
    pub(super) max_delay: Vec<u64>,
    /// Maximum exact (fractional) FIFO delay observed.
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
    pub(super) recent_ring: SlotRing<(f64, f64)>,
    /// Delay-FIFO entries behind the head that the window evicted while
    /// they were still queued, oldest first; `None` while there are none
    /// (a held spill is never empty). An entry outlives the window only if
    /// its delay exceeds `W`, and the paper bounds every delay by
    /// `2·D_O ≤ W` on feasible traffic, so this column allocates only
    /// under overload or a window shorter than `2·D_O`.
    pub(super) pend_spill: Vec<Spill>,
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
    /// otherwise allocate and free a spill on every swing.
    pub(super) hull_spill: Vec<HullSpill>,
    /// Emptied spills [`Columns::recycle`] kept, lowest slot last, for
    /// the frame apply or restore that follows to land long hulls in
    /// instead of allocating them afresh; whatever it leaves is dropped.
    pub(super) hull_free: Vec<SpillBox>,
}

/// One slot's cold delay-FIFO spill: 8 bytes while empty.
type Spill = Option<Box<VecDeque<(u64, f64)>>>;

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
    /// ring cell is only read under a cursor that was written first), and
    /// the hull spills move to `hull_free`, emptied when drawn.
    /// Nothing that was *in* a column survives, so a store torn mid-event
    /// is worth exactly as much as a fresh one.
    pub(super) fn recycle(&mut self) {
        self.hull_free
            .extend(self.hull_spill.drain(..).rev().flatten());
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

    /// Resets every scalar column of slot `i` to the vacant-slot state.
    pub(super) fn reset_scalars(&mut self, i: usize) {
        scalar_columns!(self, |col, vacant| col[i] = vacant);
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
        self.pend_spill[i] = (!spill.is_empty()).then(|| Box::new(spill));
    }

    /// The delay-FIFO entries slot `i` holds apart from its window, oldest
    /// first: the head, then the spill.
    pub(super) fn fifo_held(&self, i: usize) -> impl Iterator<Item = (u64, f64)> + '_ {
        let head = (self.pend_len[i] > 0).then(|| (self.pend_tick[i], self.pend_bits[i]));
        let spill = self.pend_spill[i].iter().flat_map(|s| s.iter().copied());
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
pub(super) struct SlotRing<T> {
    pub(super) blocks: Vec<Box<[T]>>,
}

impl<T: Copy + Default> SlotRing<T> {
    /// Appends blocks until `bound` slots are covered; never shrinks.
    pub(super) fn grow_to(&mut self, bound: usize, w: usize) {
        while self.blocks.len() * RING_BLOCK < bound {
            self.blocks
                .push(vec![T::default(); RING_ROW * w].into_boxed_slice());
        }
    }

    /// Lands `entries` (at most `w`) as slot `i`'s ring, oldest at
    /// position 0 — the form a restore leaves a ring in, head 0.
    pub(super) fn land(&mut self, i: usize, entries: impl IntoIterator<Item = T>) {
        let (block, at) = (&mut self.blocks[i / RING_BLOCK], i % RING_BLOCK);
        let cells = block[at..].iter_mut().step_by(RING_ROW);
        cells.zip(entries).for_each(|(cell, v)| *cell = v);
    }

    /// Slot `i`'s entries from the `from`-th oldest on, oldest first
    /// (they sit [`RING_ROW`] apart, so there is no contiguous run to
    /// borrow).
    pub(super) fn run<'a>(
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
    pub(super) fn cell(&mut self, q: usize, i: usize) -> &mut T {
        &mut self.blocks[i / RING_BLOCK][q * RING_ROW + i % RING_BLOCK]
    }
}
