//! The columnar checkpoint codec: shard state as schema-described
//! struct-of-arrays columns mirroring the kernel's `Columns` layout.
//!
//! A frame is: version byte ([`FRAME_VERSION`]), a kind byte
//! (always [`KIND_GENESIS`]: every frame carries every live session
//! and supersedes the one before it), the shard clock and row count, the
//! shard-uniform configuration (window, pricing, algorithm parameters
//! — one copy per frame instead of one per session), the count of
//! stages completed by since-retired sessions, a tenant string
//! table, then the column set. Every column is self-describing
//! (`name, kind, width, count, body length`), so a decoder can skip
//! columns it does not know and reject bodies whose byte length
//! disagrees with their cell count *before* touching any state.
//! Fixed columns carry one cell per row; ragged columns (the low
//! hull, window arrivals, allocation runs, the delay FIFO) carry the
//! rows' runs concatenated in row order, with a sibling `*_len` fixed
//! column giving each row's run length. Ring columns are normalized to
//! head = 0 on encode, so no cursor columns travel.
//!
//! There are two cell kinds, [`K_UNSIGNED`] and [`K_FLOAT`], and the
//! writer gives each column the narrowest width that holds every one
//! of its cells bit for bit ([`Cell::width`]): an unsigned column 1,
//! 2, 4 or 8 bytes by its largest cell, a float column 4 bytes when
//! every cell round-trips through `f32` with identical bits (NaN
//! payloads, `-0.0`, subnormals and `+∞` included), else 8. The
//! paper keeps most cells small — Theorem 6's allocations are powers
//! of two, change counts are bounded per stage — so most columns
//! narrow, and none is ever rounded. A pair is two columns, one per
//! half, so each half narrows on its own.
//!
//! A zero cell costs one bit. A cell whose bits are all zero (`+0.0`,
//! integer 0; `-0.0` and NaN payloads are not zero) is common: the
//! paper's allocator forgets its trackers at every RESET, and on on/off
//! traffic most sessions are idle at any tick. So a column is written
//! [`SPARSE`] — a presence bitmap of `⌈count / 8⌉` bytes (bit `i` of
//! byte `i / 8` set for each non-zero cell `i`), then only the non-zero
//! cells at the column's width — whenever that body is smaller than
//! the dense one, which is exactly when the zero cells' bytes outweigh
//! the bitmap. The choice follows from the cells alone, so a state
//! still has one encoding. A sparse column is read in place: the parser
//! keeps one `u32` rank per 64 cells (1/16 byte a cell) and
//! [`u64_at`] / [`f64_at`] find a present cell by rank plus popcount,
//! and an absent one reads as zero. Nothing expands it to a dense copy.
//!
//! A frame carries only what the kernel cannot derive. Stage history
//! is two fixed columns (completed count, open-stage ticks), so a
//! frame's size follows the population, not how long the sessions
//! have run. The meter's clock is the only clock: the algorithm's and
//! the delay tracker's equal it, and an open stage started at it less
//! the stage's ticks. The high tracker's window is the newest
//! `min(stage ticks, W)` cells of `recent`, the meter's arrivals. The
//! ring's allocation half is piecewise constant (the paper's objective
//! keeps changes rare), so it travels as `alloc_runs_ticks` /
//! `alloc_runs_value`: maximal runs that tile the row's `recent_len`
//! cells. A pooled row names no group: its `(group, member)` is where
//! the group section lists its key. The delay FIFO travels as the
//! kernel holds it: `pend_len` counts every entry, but `pend_age` /
//! `pend_bits` carry only the head and the spill (the entries older
//! than the window), each tick as its age on the row's clock. The
//! entries behind the head that `recent` covers are its arrivals
//! `> EPS` newer than the head, so they are derived on apply, and a
//! row whose count disagrees with them is refused as `columnar.pend`
//! ([`fifo_cells`]).
//!
//! After the columns: the group section (the full group set), a
//! tombstone count that is always zero, and the full retired-metrics
//! list.

use super::*;
use crate::shard::GroupCheckpoint;
use cdba_core::config::MultiConfig;
use cdba_core::cost::CostModel;
use cdba_core::multi::pool::{PoolCheckpoint, SlotCheckpoint};
use cdba_core::stage::{StageKind, StageLog, StageRecord};
use cdba_traffic::EPS;
use std::collections::HashMap;
use std::ops::Range;

// The group section: each pooled group, row by row.

fn enc_stage_log(log: &StageLog, e: &mut Enc<'_>) {
    let records = log.records();
    e.usize(log.forgotten());
    e.len(records.len());
    for r in records {
        e.usize(r.start);
        e.opt_u64(r.end.map(|x| x as u64));
        e.u8(match r.kind {
            StageKind::BoundsCrossed => 0,
            StageKind::RegularOverflow => 1,
            StageKind::GlobalBoundsCrossed => 2,
            StageKind::BudgetChanged => 3,
        });
    }
}

fn dec_stage_log(d: &mut Dec<'_>) -> Result<StageLog, CodecError> {
    let forgotten = d.usize()?;
    let n = d.len(10)?;
    let mut records = Vec::with_capacity(n);
    for _ in 0..n {
        let start = d.usize()?;
        let end = match d.opt_u64()? {
            None => None,
            Some(v) => Some(usize::try_from(v).map_err(|_| CodecError::BadLength(v))?),
        };
        let kind = match d.u8()? {
            0 => StageKind::BoundsCrossed,
            1 => StageKind::RegularOverflow,
            2 => StageKind::GlobalBoundsCrossed,
            3 => StageKind::BudgetChanged,
            t => return Err(CodecError::BadTag(t)),
        };
        records.push(StageRecord { start, end, kind });
    }
    Ok(StageLog::from_parts(forgotten, records))
}

fn enc_pool(cp: &PoolCheckpoint, e: &mut Enc<'_>) {
    e.usize(cp.cfg.k);
    e.f64(cp.cfg.b_o);
    e.usize(cp.cfg.d_o);
    e.len(cp.slots.len());
    for s in &cp.slots {
        e.u64(s.id);
        e.f64(s.br);
        e.f64(s.bo);
        e.f64(s.qr_backlog);
        e.f64(s.qo_backlog);
        e.bool(s.leaving);
    }
    e.len(cp.pending.len());
    for &(slot, bits) in &cp.pending {
        e.usize(slot);
        e.f64(bits);
    }
    e.u64(cp.next_id);
    e.usize(cp.tick);
    e.usize(cp.phase_anchor);
    enc_stage_log(&cp.stages, e);
    e.usize(cp.membership_changes);
}

fn dec_pool(d: &mut Dec<'_>) -> Result<PoolCheckpoint, CodecError> {
    let k = d.usize()?;
    let b_o = d.f64()?;
    let d_o = d.usize()?;
    let cfg = MultiConfig { k, b_o, d_o };
    let n = d.len(41)?;
    let mut slots = Vec::with_capacity(n);
    for _ in 0..n {
        slots.push(SlotCheckpoint {
            id: d.u64()?,
            br: d.f64()?,
            bo: d.f64()?,
            qr_backlog: d.f64()?,
            qo_backlog: d.f64()?,
            leaving: d.bool()?,
        });
    }
    let n = d.len(16)?;
    let mut pending = Vec::with_capacity(n);
    for _ in 0..n {
        pending.push((d.usize()?, d.f64()?));
    }
    Ok(PoolCheckpoint {
        cfg,
        slots,
        pending,
        next_id: d.u64()?,
        tick: d.usize()?,
        phase_anchor: d.usize()?,
        stages: dec_stage_log(d)?,
        membership_changes: d.usize()?,
    })
}

fn enc_group(cp: &GroupCheckpoint, e: &mut Enc<'_>) {
    e.u64(cp.group);
    enc_pool(&cp.pool, e);
    e.len(cp.members.len());
    for &(member, key) in &cp.members {
        e.u64(member);
        e.u64(key);
    }
}

fn dec_group(d: &mut Dec<'_>) -> Result<GroupCheckpoint, CodecError> {
    let group = d.u64()?;
    let pool = dec_pool(d)?;
    let n = d.len(16)?;
    let mut members = Vec::with_capacity(n);
    for _ in 0..n {
        members.push((d.u64()?, d.u64()?));
    }
    Ok(GroupCheckpoint {
        group,
        pool,
        members,
    })
}

/// Version byte leading every columnar frame. Frames live in memory,
/// in process images and in lease blobs, all written by the
/// same binary that reads them, so an older version is refused
/// (`columnar.version`), not translated.
pub(crate) const FRAME_VERSION: u8 = 7;
/// The one frame kind: every live session, full retired list, no
/// tombstones. The decoder refuses any other kind byte.
pub(crate) const KIND_GENESIS: u8 = 0;

/// Cell kind: an unsigned integer, little-endian in 1, 2, 4 or 8
/// bytes.
pub(crate) const K_UNSIGNED: u8 = 0;
/// Cell kind: a float as raw IEEE-754 bits, little-endian: an `f32`
/// in 4 bytes or an `f64` in 8.
pub(crate) const K_FLOAT: u8 = 1;

/// The high bit of a schema entry's width byte: the column's body is a
/// presence bitmap, then its non-zero cells (see the module notes).
pub(crate) const SPARSE: u8 = 0x80;

/// Whether a column of `kind` may hold cells `width` bytes wide.
const fn legal(kind: u8, width: u8) -> bool {
    match kind {
        K_UNSIGNED => matches!(width, 1 | 2 | 4 | 8),
        K_FLOAT => matches!(width, 4 | 8),
        _ => false,
    }
}

// Column indices, fixed by the encoder. Decoders resolve columns by
// (name, kind) — the indices are a convenience for the canonical
// schema, not part of the wire contract — so a future frame may
// append columns without breaking older readers.
pub(crate) const C_KEY: usize = 0;
pub(crate) const C_TENANT: usize = 1;
pub(crate) const C_FLAGS: usize = 2;
/// First of the 16 float scalar columns of the kernel's `Columns`
/// (schema order).
pub(crate) const C_F64: usize = 3;
/// First of the 4 `Columns` counter columns (schema order:
/// stage ticks, meter ticks, changes, stages completed).
pub(crate) const C_U64: usize = 19;
pub(crate) const C_HULL_LEN: usize = 23;
/// The low hull's vertices `(x, P[x])`, one column per half.
pub(crate) const C_HULL_X: usize = 24;
pub(crate) const C_HULL_Y: usize = 25;
pub(crate) const C_RECENT_LEN: usize = 26;
pub(crate) const C_RECENT: usize = 27;
pub(crate) const C_RUNS_LEN: usize = 28;
/// The allocation runs `(ticks, value)`, one column per half.
pub(crate) const C_RUNS_TICKS: usize = 29;
pub(crate) const C_RUNS_VALUE: usize = 30;
pub(crate) const C_PEND_LEN: usize = 31;
/// The delay FIFO's head and spill `(tick, bits)`, one column per
/// half; the tick travels as its age on the row's clock.
pub(crate) const C_PEND_AGE: usize = 32;
pub(crate) const C_PEND_BITS: usize = 33;
pub(crate) const NCOLS: usize = 34;

/// The canonical schema: `(name, kind)` per column index.
pub(crate) const SPECS: [(&str, u8); NCOLS] = [
    ("key", K_UNSIGNED),
    ("tenant", K_UNSIGNED),
    ("flags", K_UNSIGNED),
    ("shadow_backlog", K_FLOAT),
    ("current_alloc", K_FLOAT),
    ("peak_alloc", K_FLOAT),
    ("total_arrived", K_FLOAT),
    ("total_served", K_FLOAT),
    ("total_allocated", K_FLOAT),
    ("window_arrived", K_FLOAT),
    ("window_allocated", K_FLOAT),
    ("backlog", K_FLOAT),
    ("b_on", K_FLOAT),
    ("low_total", K_FLOAT),
    ("low_low", K_FLOAT),
    ("high_window_sum", K_FLOAT),
    ("high_min_window_sum", K_FLOAT),
    ("min_util", K_FLOAT),
    ("max_delay_exact", K_FLOAT),
    ("stage_ticks", K_UNSIGNED),
    ("meter_ticks", K_UNSIGNED),
    ("changes", K_UNSIGNED),
    ("stages_completed", K_UNSIGNED),
    ("hull_len", K_UNSIGNED),
    ("hull_x", K_FLOAT),
    ("hull_y", K_FLOAT),
    ("recent_len", K_UNSIGNED),
    ("recent", K_FLOAT),
    ("alloc_runs_len", K_UNSIGNED),
    ("alloc_runs_ticks", K_UNSIGNED),
    ("alloc_runs_value", K_FLOAT),
    ("pend_len", K_UNSIGNED),
    ("pend_age", K_UNSIGNED),
    ("pend_bits", K_FLOAT),
];

/// The maximal runs of bit-equal `values`, oldest first, as
/// `(ticks, value)` cells: the `alloc_runs_*` form of a ring's
/// allocation half.
pub(crate) fn runs(values: impl IntoIterator<Item = f64>) -> impl Iterator<Item = (u64, f64)> {
    let mut values = values.into_iter().peekable();
    std::iter::from_fn(move || {
        let v = values.next()?;
        let mut ticks = 1u64;
        while values.next_if(|x| x.to_bits() == v.to_bits()).is_some() {
            ticks += 1;
        }
        Some((ticks, v))
    })
}

/// Cells `cells` of the `alloc_runs_*` columns expanded back to one
/// value per tick, oldest first.
pub(crate) fn expand_runs<'a>(
    ticks: &'a RawColumn<'_>,
    values: &'a RawColumn<'_>,
    cells: Range<usize>,
) -> impl Iterator<Item = f64> + 'a {
    cells.flat_map(move |j| std::iter::repeat_n(f64_at(values, j), u64_at(ticks, j) as usize))
}

/// Checks that cells `cells` of the `alloc_runs_*` columns tile a
/// ring of `len` entries the one way the encoder does: every run
/// non-empty, no two neighbours equal, the lengths summing to `len`.
pub(crate) fn check_runs(
    ticks: &RawColumn<'_>,
    values: &RawColumn<'_>,
    cells: Range<usize>,
    len: usize,
) -> Result<(), &'static str> {
    let (mut total, mut prev) = (0u64, None);
    for j in cells {
        let (n, v) = (u64_at(ticks, j), f64_at(values, j).to_bits());
        total = total.saturating_add(n);
        if n == 0 || prev == Some(v) || total > len as u64 {
            return Err("columnar.runs");
        }
        prev = Some(v);
    }
    if total != len as u64 {
        return Err("columnar.runs");
    }
    Ok(())
}

/// The tick of cell `j` of a `pend_age` column on a row whose clock
/// is `clock`. An entry queued at tick `t` travels as its age
/// `clock − t`, at least 1: nothing queued is from the row's current
/// tick or later.
fn pend_tick(age: &RawColumn<'_>, j: usize, clock: u64) -> Result<u64, &'static str> {
    match u64_at(age, j) {
        a @ 1.. if a <= clock => Ok(clock - a),
        _ => Err("columnar.pend"),
    }
}

/// Checks one row's delay FIFO as a frame carries it and returns the
/// `pend_*` cells it holds, from cell `at`: the FIFO is `len` entries
/// long on a row whose clock is `clock` and whose window arrivals are
/// `recent`, oldest first (ticks `clock − recent.len() ..`, at most
/// `clock` of them). The cells are its head, then its spill: the
/// entries behind the head that the window covers are the window's
/// arrivals `> EPS` newer than the head, so every other entry must be
/// older than the window, newer than the head, and in ascending tick
/// order. A count that disagrees with the window is `columnar.pend`.
pub(crate) fn fifo_cells(
    age: &RawColumn<'_>,
    at: usize,
    len: u64,
    clock: u64,
    recent: impl ExactSizeIterator<Item = f64>,
) -> Result<usize, &'static str> {
    if len == 0 {
        return Ok(0);
    }
    let cells = (age.count as usize).saturating_sub(at);
    if len > u64::from(u32::MAX) || cells == 0 {
        return Err("columnar.pend");
    }
    let start = clock - recent.len() as u64;
    let head = pend_tick(age, at, clock)?;
    let queued = (start..).zip(recent).filter(|&(t, a)| t > head && a > EPS);
    let spill = (len - 1)
        .checked_sub(queued.count() as u64)
        .filter(|&spill| spill < cells as u64)
        .ok_or("columnar.pend")? as usize;
    let mut last = head;
    for j in at + 1..=at + spill {
        let t = pend_tick(age, j, clock)?;
        if t <= last || t >= start {
            return Err("columnar.pend");
        }
        last = t;
    }
    Ok(1 + spill)
}

/// Cells `cells` of the `pend_*` columns on a row whose clock is
/// `clock`, as `(tick, bits)` entries: a FIFO's head and spill.
pub(crate) fn fifo_held<'a>(
    age: &'a RawColumn<'_>,
    bits: &'a RawColumn<'_>,
    cells: Range<usize>,
    clock: u64,
) -> impl ExactSizeIterator<Item = (u64, f64)> + 'a {
    cells.map(move |j| (clock - u64_at(age, j), f64_at(bits, j)))
}

/// One cell of a column: its kind, the narrowest width that holds it
/// bit for bit, and how it lands in a frame body at a given width.
pub(crate) trait Cell: Copy {
    /// [`K_UNSIGNED`] or [`K_FLOAT`].
    const KIND: u8;
    /// The narrowest width legal for the kind.
    const NARROWEST: u8;
    /// The narrowest legal width that holds this cell bit for bit.
    fn width(self) -> u8;
    /// Appends the cell at `width`, at least [`Cell::width`].
    fn put(self, width: u8, out: &mut Vec<u8>);
    /// Whether every bit of the cell is zero: a sparse column's absent
    /// cell.
    fn is_zero(self) -> bool;
}

impl Cell for u64 {
    const KIND: u8 = K_UNSIGNED;
    const NARROWEST: u8 = 1;

    fn width(self) -> u8 {
        match self {
            0..=0xff => 1,
            0x100..=0xffff => 2,
            0x1_0000..=0xffff_ffff => 4,
            _ => 8,
        }
    }

    fn put(self, width: u8, out: &mut Vec<u8>) {
        match width {
            1 => out.push(self as u8),
            2 => out.extend_from_slice(&(self as u16).to_le_bytes()),
            4 => out.extend_from_slice(&(self as u32).to_le_bytes()),
            _ => out.extend_from_slice(&self.to_le_bytes()),
        }
    }

    fn is_zero(self) -> bool {
        self == 0
    }
}

impl Cell for u32 {
    const KIND: u8 = K_UNSIGNED;
    const NARROWEST: u8 = 1;

    fn width(self) -> u8 {
        u64::from(self).width()
    }

    fn put(self, width: u8, out: &mut Vec<u8>) {
        u64::from(self).put(width, out);
    }

    fn is_zero(self) -> bool {
        self == 0
    }
}

impl Cell for f64 {
    const KIND: u8 = K_FLOAT;
    const NARROWEST: u8 = 4;

    /// 4 when the value is [`f32_exact`], else 8.
    fn width(self) -> u8 {
        if f32_exact(self).is_some() {
            4
        } else {
            8
        }
    }

    fn put(self, width: u8, out: &mut Vec<u8>) {
        if width == 4 {
            out.extend_from_slice(&(self as f32).to_le_bytes());
        } else {
            out.extend_from_slice(&self.to_le_bytes());
        }
    }

    /// `+0.0` only: `-0.0` and every NaN have a bit set.
    fn is_zero(self) -> bool {
        self.to_bits() == 0
    }
}

/// One pass over a frame's columns, which a [`ColumnSource`] hands it
/// in schema order: the shape pass sizes each column, the fill pass
/// writes it.
pub(crate) trait ColumnWriter {
    /// Takes column `col`: `cells`, in row order.
    fn col<C: Cell>(&mut self, col: usize, cells: impl IntoIterator<Item = C>);
}

/// The rows a frame's writer registered ([`ColumnSink::push_row`]).
pub(crate) struct Rows<'a> {
    /// The source slot of each row, in row order.
    pub slots: &'a [u32],
    /// Each row's index into the frame's tenant table.
    pub tenants: &'a [u32],
}

/// What a frame's rows are read from: a shard's columns (a lease is one
/// of its rows).
pub(crate) trait ColumnSource {
    /// Hands `w` all [`NCOLS`] columns of `rows`, in schema order.
    /// Called twice per frame, so both passes see the same cells.
    fn columns(&self, rows: &Rows<'_>, w: &mut impl ColumnWriter);
}

/// Everything frame-scoped the encoder needs beyond the rows.
pub(crate) struct FrameHeader {
    /// The shard clock at capture.
    pub ticks: u64,
    /// Stages completed by sessions and groups retired before capture.
    pub stages_retired: u64,
    /// The shared meter/tracker window `W`.
    pub w: u32,
    pub cost: CostModel,
    /// Single-session config (`b_max`, `d_o`, `u_o`; `w` above) — the
    /// shard-uniform parameters every dedicated session runs.
    pub b_max: f64,
    pub d_o: u64,
    pub u_o: f64,
}

/// Bytes of the fixed header fields, version byte through `u_o`.
const HEADER_LEN: usize = 1 + 1 + 8 + 4 + 4 + 8 + 8 + 8 + 8 + 8 + 8;
/// Bytes of one column's schema entry around its name: the name's
/// length prefix, kind, width, cell count, body length.
const SCHEMA_ENTRY_LEN: usize = 4 + 1 + 1 + 4 + 4;

/// One column's shape, from the shape pass: how many cells, the widest
/// width any of them needs, and how many are zero.
#[derive(Clone, Copy, Default)]
struct Layout {
    count: usize,
    width: u8,
    zeros: usize,
}

impl Layout {
    /// Whether the column is written [`SPARSE`]: its zero cells' bytes
    /// outweigh the bitmap (a tie stays dense).
    fn sparse(&self) -> bool {
        self.count.div_ceil(8) < self.zeros * usize::from(self.width)
    }

    /// The body's length in bytes, in the layout [`Layout::sparse`]
    /// picks.
    fn body(&self) -> usize {
        let w = usize::from(self.width);
        if self.sparse() {
            self.count.div_ceil(8) + (self.count - self.zeros) * w
        } else {
            self.count * w
        }
    }
}

/// Each column's layout, from the shape pass.
type Shape = [Layout; NCOLS];

/// The shape pass: counts each column's cells and zero cells and takes
/// the widest width any of them needs.
struct Measure {
    shape: Shape,
    next: usize,
}

impl ColumnWriter for Measure {
    fn col<C: Cell>(&mut self, col: usize, cells: impl IntoIterator<Item = C>) {
        assert_eq!(col, self.next, "columns come in schema order");
        assert_eq!(
            C::KIND,
            SPECS[col].1,
            "column `{}` vs its kind",
            SPECS[col].0
        );
        self.next += 1;
        // A fold, not a `for`: a ragged column's cells come through
        // `flat_map`, which folds each row's run in place.
        let (count, width, zeros) = cells
            .into_iter()
            .fold((0, C::NARROWEST, 0), |(n, w, z), c| {
                (n + 1, w.max(c.width()), z + usize::from(c.is_zero()))
            });
        self.shape[col] = Layout {
            count,
            width,
            zeros,
        };
    }
}

/// The fill pass: each column's schema entry, then its body in the
/// layout and at the width the shape pass chose.
struct Fill<'a> {
    out: &'a mut Vec<u8>,
    shape: &'a Shape,
    next: usize,
}

impl ColumnWriter for Fill<'_> {
    fn col<C: Cell>(&mut self, col: usize, cells: impl IntoIterator<Item = C>) {
        assert_eq!(col, self.next, "columns come in schema order");
        self.next += 1;
        let (name, kind) = SPECS[col];
        let layout = self.shape[col];
        let (width, body) = (layout.width, layout.body());
        let mut e = Enc::new(self.out);
        e.str(name);
        e.u8(kind);
        e.u8(if layout.sparse() {
            width | SPARSE
        } else {
            width
        });
        e.u32(u32::try_from(layout.count).expect("column cells fit a u32"));
        e.u32(u32::try_from(body).expect("column body fits a u32"));
        let filled = self.out.len() + body;
        if layout.sparse() {
            let bitmap = self.out.len();
            self.out.resize(bitmap + layout.count.div_ceil(8), 0);
            let mut i = 0;
            cells.into_iter().for_each(|c| {
                if !c.is_zero() {
                    self.out[bitmap + i / 8] |= 1 << (i % 8);
                    c.put(width, self.out);
                }
                i += 1;
            });
        } else {
            cells.into_iter().for_each(|c| c.put(width, self.out));
        }
        assert_eq!(self.out.len(), filled, "column `{name}` vs the shape pass");
    }
}

/// `frame` with column `col`'s cells replaced by `cells`, written as
/// the frame writer writes a column (its narrowest width, the smaller
/// layout): a frame as a hostile writer would produce it.
#[cfg(test)]
pub(crate) fn with_cells<C: Cell>(frame: &[u8], col: usize, cells: &[C]) -> Vec<u8> {
    let parsed = parse(frame).expect("a frame to rewrite");
    let c = parsed.col(col).expect("the column to rewrite");
    let at = |p: *const u8| p as usize - frame.as_ptr() as usize;
    let (entry, end) = (
        at(c.name.as_ptr()) - 4,
        at(c.cells.as_ptr()) + c.cells.len(),
    );
    let mut measure = Measure {
        shape: [Layout::default(); NCOLS],
        next: col,
    };
    measure.col(col, cells.iter().copied());
    let mut out = frame[..entry].to_vec();
    let mut fill = Fill {
        out: &mut out,
        shape: &measure.shape,
        next: col,
    };
    fill.col(col, cells.iter().copied());
    out.extend_from_slice(&frame[end..]);
    out
}

/// The frame writer's reusable scratch. The caller registers each
/// row ([`ColumnSink::push_row`]); [`ColumnSink::write`] then reads
/// the columns twice from a [`ColumnSource`]: a shape pass picks each
/// column's width and layout from its own cells, the output is
/// allocated once at the exact frame length, and a fill pass streams
/// every column straight into it. Nothing frame-sized survives between frames: the
/// scratch is eight bytes per row, the tenant table, and the
/// pre-encoded tail sections.
#[derive(Default)]
pub(crate) struct ColumnSink {
    /// The source slot of each row, in row order.
    slots: Vec<u32>,
    /// The interned tenant index of each row.
    tenant_ids: Vec<u32>,
    /// Per-frame tenant string table, in first-appearance order (the
    /// deterministic interning order; the map is lookup only).
    tenants: Vec<Arc<str>>,
    tenant_idx: HashMap<Arc<str>, u32>,
    /// Groups, the empty tombstone list and the retired list, encoded
    /// ahead of the allocation because their length is only known
    /// once written.
    tail: Vec<u8>,
}

impl ColumnSink {
    /// Resets for a new frame, keeping the scratch allocations.
    pub(crate) fn begin(&mut self) {
        self.slots.clear();
        self.tenant_ids.clear();
        self.tenants.clear();
        self.tenant_idx.clear();
    }

    /// Registers the next row, living at `slot` of the source's
    /// columns, owned by `tenant`.
    pub(crate) fn push_row(&mut self, slot: u32, tenant: &Arc<str>) {
        let id = match self.tenant_idx.get(tenant.as_ref() as &str) {
            Some(&id) => id,
            None => {
                let id = u32::try_from(self.tenants.len()).expect("tenant table fits a u32");
                self.tenants.push(Arc::clone(tenant));
                self.tenant_idx.insert(Arc::clone(tenant), id);
                id
            }
        };
        self.slots.push(slot);
        self.tenant_ids.push(id);
    }

    /// Appends the frame of the registered rows to `out`, growing it by
    /// exactly the frame's length in at most one allocation, reading
    /// their columns from `src`. Returns the row count.
    pub(crate) fn write(
        &mut self,
        src: &impl ColumnSource,
        hdr: &FrameHeader,
        groups: &[GroupCheckpoint],
        retired: &[SessionMetrics],
        out: &mut Vec<u8>,
    ) -> u64 {
        self.tail.clear();
        let mut e = Enc::new(&mut self.tail);
        e.len(groups.len());
        for g in groups {
            enc_group(g, &mut e);
        }
        e.len(0); // tombstones
        e.len(retired.len());
        for m in retired {
            encode_session_metrics(m, &mut e);
        }
        let rows = Rows {
            slots: &self.slots,
            tenants: &self.tenant_ids,
        };
        let mut measure = Measure {
            shape: [Layout::default(); NCOLS],
            next: 0,
        };
        src.columns(&rows, &mut measure);
        assert_eq!(measure.next, NCOLS, "every column was measured");
        let shape = measure.shape;
        let tenant_table: usize = self.tenants.iter().map(|t| 4 + t.len()).sum();
        let columns: usize = SPECS
            .iter()
            .zip(&shape)
            .map(|(&(name, _), layout)| SCHEMA_ENTRY_LEN + name.len() + layout.body())
            .sum();
        let len = HEADER_LEN + 4 + tenant_table + 4 + columns + self.tail.len();
        let start = out.len();
        out.reserve_exact(len);
        let mut e = Enc::new(out);
        e.u8(FRAME_VERSION);
        e.u8(KIND_GENESIS);
        e.u64(hdr.ticks);
        e.len(self.slots.len());
        e.u32(hdr.w);
        e.f64(hdr.cost.per_bandwidth_tick);
        e.f64(hdr.cost.per_change);
        e.f64(hdr.b_max);
        e.u64(hdr.d_o);
        e.f64(hdr.u_o);
        e.u64(hdr.stages_retired);
        e.len(self.tenants.len());
        for t in &self.tenants {
            e.str(t.as_ref());
        }
        e.u32(NCOLS as u32);
        let mut fill = Fill {
            out,
            shape: &shape,
            next: 0,
        };
        src.columns(&rows, &mut fill);
        assert_eq!(fill.next, NCOLS, "every column was filled");
        out.extend_from_slice(&self.tail);
        assert_eq!(out.len() - start, len, "frame length vs the shape pass");
        self.slots.len() as u64
    }
}

/// One parsed column: the schema entry plus its raw body, still
/// borrowing the payload (cells are read in place — no per-session
/// copy is made until the rows land in slab columns).
pub(crate) struct RawColumn<'a> {
    pub name: &'a str,
    pub kind: u8,
    /// Bytes per cell, legal for `kind` ([`SPARSE`] masked off).
    pub width: u8,
    pub count: u32,
    /// The written cells, `width` bytes each: every cell of a dense
    /// column, the non-zero ones of a sparse one.
    pub cells: &'a [u8],
    /// A sparse column's presence bitmap and its rank table.
    pub sparse: Option<Presence<'a>>,
}

/// Which cells of a [`SPARSE`] column are written: the frame's bitmap,
/// and the count of set bits before each 64-cell word of it — one
/// `u32` per 64 cells, so a lookup is one table read and one popcount.
pub(crate) struct Presence<'a> {
    pub bitmap: &'a [u8],
    rank: Vec<u32>,
}

impl<'a> Presence<'a> {
    /// Splits a sparse body of `count` cells `width` bytes wide into
    /// its presence and its written cells. The bitmap must have no bit
    /// set past `count`, and the cells must be one per set bit.
    fn parse(body: &'a [u8], count: usize, width: u8) -> Result<(Self, &'a [u8]), &'static str> {
        let len = count.div_ceil(8);
        if body.len() < len {
            return Err("columnar.sparse");
        }
        let (bitmap, cells) = body.split_at(len);
        if !count.is_multiple_of(8) && bitmap[len - 1] >> (count % 8) != 0 {
            return Err("columnar.sparse");
        }
        let mut rank = Vec::with_capacity(count.div_ceil(64));
        let mut present = 0usize;
        for k in 0..count.div_ceil(64) {
            rank.push(present as u32);
            present += word(bitmap, k).count_ones() as usize;
        }
        if cells.len() != present * usize::from(width) {
            return Err("columnar.sparse");
        }
        Ok((Presence { bitmap, rank }, cells))
    }

    /// Where cell `i` lies among the written cells, or `None` for a
    /// zero cell.
    #[inline]
    fn written(&self, i: usize) -> Option<usize> {
        let (word, bit) = (word(self.bitmap, i / 64), 1u64 << (i % 64));
        let below = (word & (bit - 1)).count_ones() as usize;
        (word & bit != 0).then(|| self.rank[i / 64] as usize + below)
    }
}

/// Word `k` of a bitmap: its bits `64k ..`, little-endian, zero past
/// the end.
#[inline]
fn word(bitmap: &[u8], k: usize) -> u64 {
    match bitmap.get(k * 8..k * 8 + 8) {
        Some(whole) => u64::from_le_bytes(whole.try_into().expect("8")),
        None => {
            let tail = &bitmap[k * 8..];
            tail.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b))
        }
    }
}

/// A structurally validated frame: header fields, the tenant table
/// and column bodies borrowed zero-copy from the payload, and the
/// (small) eagerly decoded group and retired sections. All
/// *structural* invariants hold — version/kind bytes are known, every
/// (kind, width) pair is legal, no column name repeats, the tombstone
/// list is empty, every dense body is `count × width` bytes and every
/// sparse one its bitmap plus one cell per set bit — but
/// nothing row-semantic has been checked yet; that is the applier's
/// job.
pub(crate) struct RawFrame<'a> {
    pub ticks: u64,
    pub stages_retired: u64,
    pub rows: u32,
    pub w: u32,
    pub cost: CostModel,
    pub b_max: f64,
    pub d_o: u64,
    pub u_o: f64,
    pub strings: Vec<&'a str>,
    pub cols: Vec<RawColumn<'a>>,
    pub groups: Vec<GroupCheckpoint>,
    pub retired: Vec<SessionMetrics>,
}

impl<'a> RawFrame<'a> {
    /// Resolves canonical column `idx` by `(name, kind)`. Unknown
    /// extra columns in the frame are simply never looked up —
    /// forward compatibility — while a frame missing a canonical
    /// column fails here with a typed field.
    pub(crate) fn col(&self, idx: usize) -> Result<&RawColumn<'a>, &'static str> {
        let (name, kind) = SPECS[idx];
        self.cols
            .iter()
            .find(|c| c.name == name && c.kind == kind)
            .ok_or("columnar.missing")
    }

    /// Resolves canonical column `idx` and checks it carries exactly
    /// one cell per row.
    pub(crate) fn fixed(&self, idx: usize) -> Result<&RawColumn<'a>, &'static str> {
        let c = self.col(idx)?;
        if c.count != self.rows {
            return Err("columnar.count");
        }
        Ok(c)
    }

    /// Resolves the two halves of a split pair column, which must
    /// carry the same number of cells.
    pub(crate) fn pair(
        &self,
        a: usize,
        b: usize,
    ) -> Result<(&RawColumn<'a>, &RawColumn<'a>), &'static str> {
        let (a, b) = (self.col(a)?, self.col(b)?);
        if a.count != b.count {
            return Err("columnar.ragged");
        }
        Ok((a, b))
    }
}

/// Cell `i` of an unsigned column, at any width and in either layout.
pub(crate) fn u64_at(c: &RawColumn<'_>, i: usize) -> u64 {
    let Some(i) = written(c, i) else { return 0 };
    let b = c.cells;
    match c.width {
        1 => u64::from(b[i]),
        2 => u64::from(u16::from_le_bytes(
            b[i * 2..i * 2 + 2].try_into().expect("2"),
        )),
        4 => u64::from(u32::from_le_bytes(
            b[i * 4..i * 4 + 4].try_into().expect("4"),
        )),
        _ => u64::from_le_bytes(b[i * 8..i * 8 + 8].try_into().expect("8")),
    }
}

/// Cell `i` of a float column, at either width and in either layout.
pub(crate) fn f64_at(c: &RawColumn<'_>, i: usize) -> f64 {
    let Some(i) = written(c, i) else { return 0.0 };
    if c.width == 4 {
        let le = c.cells[i * 4..i * 4 + 4].try_into().expect("4");
        f64::from(f32::from_le_bytes(le))
    } else {
        f64::from_le_bytes(c.cells[i * 8..i * 8 + 8].try_into().expect("8"))
    }
}

/// The written cells of a float column, in order: every cell of a
/// dense column, the non-zero ones of a sparse one (the rest are
/// `+0.0`). What a check that `+0.0` passes needs to scan.
pub(crate) fn float_cells<'c>(c: &'c RawColumn<'_>) -> impl Iterator<Item = f64> + 'c {
    let wide = c.width == 8;
    c.cells.chunks_exact(usize::from(c.width)).map(move |b| {
        if wide {
            f64::from_le_bytes(b.try_into().expect("8"))
        } else {
            f64::from(f32::from_le_bytes(b.try_into().expect("4")))
        }
    })
}

/// Where cell `i` of `c` lies among its written cells; `None` for a
/// zero cell of a sparse column.
#[inline]
fn written(c: &RawColumn<'_>, i: usize) -> Option<usize> {
    match &c.sparse {
        None => Some(i),
        Some(p) => p.written(i),
    }
}

/// A structural decode error as the typed field the service's
/// `InvalidCheckpoint` error carries, so `parse` can `?` its
/// cursor reads.
impl From<CodecError> for &'static str {
    fn from(err: CodecError) -> Self {
        match err {
            CodecError::Eof => "columnar.truncated",
            CodecError::BadTag(_) => "columnar.type",
            CodecError::BadUtf8 => "columnar.utf8",
            CodecError::BadVersion(_) => "columnar.version",
            CodecError::BadLength(_) => "columnar.count",
            CodecError::Trailing(_) => "columnar.trailing",
        }
    }
}

/// Parses and structurally validates a columnar frame. Zero-copy for
/// the column bodies and string table; the group and retired tail
/// sections (small, frame-scoped) decode eagerly.
///
/// # Errors
///
/// A typed `columnar.*` field: `version` for a frame of another
/// version, `type` for a kind byte other than [`KIND_GENESIS`] or an
/// unknown cell kind, `width` for a width its kind does not allow,
/// `duplicate` for a column named twice, `count` for a dense body
/// length other than `count × width` or a non-empty tombstone list,
/// `sparse` for a sparse body whose bitmap has a bit set past `count`
/// or whose length is not the bitmap plus one cell per set bit, and
/// `truncated` / `trailing` / `utf8` for what the cursor finds.
pub(crate) fn parse(payload: &[u8]) -> Result<RawFrame<'_>, &'static str> {
    let mut d = Dec::new(payload);
    if d.u8()? != FRAME_VERSION {
        return Err("columnar.version");
    }
    if d.u8()? != KIND_GENESIS {
        return Err("columnar.type");
    }
    let ticks = d.u64()?;
    let rows = d.u32()?;
    let w = d.u32()?;
    let cost = CostModel {
        per_bandwidth_tick: d.f64()?,
        per_change: d.f64()?,
    };
    let b_max = d.f64()?;
    let d_o = d.u64()?;
    let u_o = d.f64()?;
    let stages_retired = d.u64()?;
    let n = d.len(4)?;
    let mut strings = Vec::with_capacity(n);
    for _ in 0..n {
        strings.push(d.str_ref()?);
    }
    let ncols = d.len(SCHEMA_ENTRY_LEN)?;
    let mut cols = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let name = d.str_ref()?;
        let kind = d.u8()?;
        if kind > K_FLOAT {
            return Err("columnar.type");
        }
        let width = d.u8()?;
        let (sparse, width) = (width & SPARSE != 0, width & !SPARSE);
        if !legal(kind, width) {
            return Err("columnar.width");
        }
        let count = d.u32()?;
        let body_len = d.u32()? as usize;
        if !sparse && body_len != count as usize * usize::from(width) {
            return Err("columnar.count");
        }
        let body = d.bytes(body_len)?;
        let (sparse, cells) = if sparse {
            let (presence, cells) = Presence::parse(body, count as usize, width)?;
            (Some(presence), cells)
        } else {
            (None, body)
        };
        cols.push(RawColumn {
            name,
            kind,
            width,
            count,
            cells,
            sparse,
        });
    }
    // A name resolves to one column: a second would be shadowed.
    let mut names: Vec<&str> = cols.iter().map(|c| c.name).collect();
    names.sort_unstable();
    if names.windows(2).any(|p| p[0] == p[1]) {
        return Err("columnar.duplicate");
    }
    let n = d.len(8)?;
    let mut groups = Vec::with_capacity(n);
    for _ in 0..n {
        groups.push(dec_group(&mut d)?);
    }
    if d.len(8)? != 0 {
        return Err("columnar.count"); // a genesis lists no tombstones
    }
    let n = d.len(8)?;
    let mut retired = Vec::with_capacity(n);
    let mut tenants = TenantInterner::default();
    for _ in 0..n {
        retired.push(decode_session_metrics(&mut d, &mut tenants)?);
    }
    d.finish()?;
    Ok(RawFrame {
        ticks,
        stages_retired,
        rows,
        w,
        cost,
        b_max,
        d_o,
        u_o,
        strings,
        cols,
        groups,
        retired,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// Every column of a frame as raw cell bits, in schema order: a
    /// writer handed arbitrary — hostile — cells.
    struct Hostile(Vec<Vec<u64>>);

    impl ColumnSource for Hostile {
        fn columns(&self, _: &Rows<'_>, w: &mut impl ColumnWriter) {
            for (col, bits) in self.0.iter().enumerate() {
                if SPECS[col].1 == K_UNSIGNED {
                    w.col(col, bits.iter().copied());
                } else {
                    w.col(col, bits.iter().map(|&b| f64::from_bits(b)));
                }
            }
        }
    }

    /// Unsigned cells at every width edge; 0 first.
    const UNSIGNED: [u64; 9] = [
        0,
        1,
        0xff,
        0x100,
        0xffff,
        0x1_0000,
        0xffff_ffff,
        0x1_0000_0000,
        u64::MAX,
    ];

    /// Float bits a frame must carry verbatim; `+0.0` first.
    const FLOAT: [u64; 11] = [
        0x0000_0000_0000_0000, // +0.0, the one zero
        0x8000_0000_0000_0000, // -0.0
        0x7ff8_0000_0000_0000, // the none-yet NaN
        0xfffc_0000_2000_0000, // a NaN whose payload f32 holds
        0x7ff8_0000_0000_0001, // a NaN whose payload f32 cannot hold
        0x36a0_0000_0000_0000, // f32's smallest subnormal
        0x0000_0000_0000_0001, // f64's smallest subnormal
        0x7ff0_0000_0000_0000, // +∞
        0xfff0_0000_0000_0000, // -∞
        0x3ff8_0000_0000_0000, // 1.5
        0x3fb9_9999_9999_999a, // 0.1
    ];

    /// The cells of one column of `kind` drawn in `shape`: all zero,
    /// none zero, mostly zero, or anything from the palette.
    fn cells(kind: u8, shape: u8, draws: &[usize]) -> Vec<u64> {
        let palette: &[u64] = if kind == K_UNSIGNED {
            &UNSIGNED
        } else {
            &FLOAT
        };
        let any = |d: usize| palette[d % palette.len()];
        let nonzero = |d: usize| palette[1 + d % (palette.len() - 1)];
        let cell = |d: usize| match shape {
            0 => 0,
            1 => nonzero(d),
            2 if !d.is_multiple_of(4) => 0,
            2 => nonzero(d),
            _ => any(d),
        };
        draws.iter().map(|&d| cell(d)).collect()
    }

    /// The narrowest width every cell of a column of `kind` fits.
    fn narrowest(kind: u8, bits: &[u64]) -> usize {
        if kind == K_UNSIGNED {
            let widest = bits.iter().fold(0, |w, &c| w | c);
            [1, 2, 4, 8]
                .into_iter()
                .find(|&w| w == 8 || widest >> (8 * w) == 0)
                .unwrap()
        } else {
            let exact = |&b: &u64| {
                let v = f64::from_bits(b);
                f64::from(v as f32).to_bits() == b
            };
            if bits.iter().all(exact) {
                4
            } else {
                8
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever cells a column holds — all zero, none zero, mostly
        /// zero, or any mix of `-0.0`, NaN payloads, subnormals, `±∞`
        /// and every unsigned width edge up to `u64::MAX` — and however
        /// many (a bitmap's last byte part-filled, several 64-cell rank
        /// words), every cell reads back with its bits, and the column
        /// is written in the smaller of its two layouts, a tie dense, and
        /// read through a rank table of one `u32` per 64 cells.
        #[test]
        fn hostile_columns_round_trip_in_the_smaller_layout(
            columns in proptest::collection::vec(
                (0u8..4, proptest::collection::vec(0usize..64, 0..200)),
                NCOLS,
            ),
        ) {
            let bits: Vec<Vec<u64>> = columns
                .iter()
                .zip(SPECS)
                .map(|((shape, draws), (_, kind))| cells(kind, *shape, draws))
                .collect();
            let hdr = FrameHeader {
                ticks: 0,
                stages_retired: 0,
                w: 1,
                cost: CostModel::with_change_price(1.0),
                b_max: 1.0,
                d_o: 1,
                u_o: 1.0,
            };
            let mut frame = Vec::new();
            ColumnSink::default().write(&Hostile(bits.clone()), &hdr, &[], &[], &mut frame);
            let parsed = parse(&frame).map_err(TestCaseError::fail)?;
            for (col, want) in bits.iter().enumerate() {
                let (name, kind) = SPECS[col];
                let c = parsed.col(col).map_err(TestCaseError::fail)?;
                let got: Vec<u64> = (0..want.len())
                    .map(|i| match kind {
                        K_UNSIGNED => u64_at(c, i),
                        _ => f64_at(c, i).to_bits(),
                    })
                    .collect();
                prop_assert!(&got == want, "`{}` reads back other bits", name);
                let (n, w) = (want.len(), narrowest(kind, want));
                let zeros = want.iter().filter(|&&b| b == 0).count();
                let (dense, sparse) = (n * w, n.div_ceil(8) + (n - zeros) * w);
                let written = c.cells.len() + c.sparse.as_ref().map_or(0, |p| p.bitmap.len());
                prop_assert_eq!(usize::from(c.width), w);
                prop_assert_eq!(c.sparse.is_some(), sparse < dense);
                prop_assert_eq!(written, dense.min(sparse));
                // The only decode-side scratch: 4 bytes per 64 cells.
                let rank = c.sparse.as_ref().map_or(0, |p| p.rank.len());
                prop_assert_eq!(rank, if sparse < dense { n.div_ceil(64) } else { 0 });
            }
        }
    }
}
