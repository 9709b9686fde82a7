//! The binary snapshot/checkpoint codec.
//!
//! serde-JSON stays the *reference* encoding — human-readable, stable, and
//! exact (`f64` survives through the shortest round-trip representation).
//! But at 100k sessions a snapshot is tens of megabytes of text and the
//! formatter dominates the export path. This module is the fast twin: a
//! flat little-endian encoding over the same structs, `f64` carried as raw
//! IEEE-754 bits (`to_bits`), so a decoded value is **bitwise identical**
//! to what the JSON path reproduces. Field order is struct declaration
//! order; every top-level payload leads with [`CODEC_VERSION`] and decoding
//! rejects trailing bytes.
//!
//! Primitives: `u64`/`u32`/`u8` little-endian; `usize` as `u64`; `f64` as
//! `to_bits()` little-endian; `bool` as one byte (0/1); `Option<T>` as a
//! 0/1 tag byte then the payload; `String`/`str` as `u32` length + UTF-8
//! bytes; `Vec<T>` as `u32` count + elements. Decoding is hostile-input
//! safe: lengths are checked against the remaining payload *before* any
//! allocation, so a forged count cannot balloon memory.

use crate::meter::SessionMetrics;
use crate::metrics::{GlobalMetrics, ServiceSnapshot, ShardHealth, ShardMetrics};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// Version byte leading every top-level binary payload.
pub const CODEC_VERSION: u8 = 1;

/// Why a binary payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before the value did.
    Eof,
    /// A tag byte held an undefined value.
    BadTag(u8),
    /// A string was not UTF-8.
    BadUtf8,
    /// The leading version byte is not [`CODEC_VERSION`].
    BadVersion(u8),
    /// A collection count exceeds what the remaining bytes could hold.
    BadLength(u64),
    /// Bytes remained after the top-level value was decoded.
    Trailing(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Eof => write!(f, "payload truncated"),
            CodecError::BadTag(t) => write!(f, "undefined tag byte {t:#04x}"),
            CodecError::BadUtf8 => write!(f, "string is not UTF-8"),
            CodecError::BadVersion(v) => {
                write!(f, "codec version {v} (this build speaks {CODEC_VERSION})")
            }
            CodecError::BadLength(n) => write!(f, "count {n} exceeds the remaining payload"),
            CodecError::Trailing(n) => write!(f, "{n} trailing bytes after the value"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Binary encoder: appends primitives to a caller-owned buffer, so hot
/// paths (the shard checkpoint loop) can reuse one allocation across
/// captures.
pub struct Enc<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Enc<'a> {
    /// Wraps `buf`; encoded bytes are appended (the caller clears it).
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        Enc { buf }
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// `f64` as raw IEEE-754 bits: the round trip is the identity, even
    /// for `-0.0`, subnormals, and NaN payloads.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    pub fn str(&mut self, v: &str) {
        self.u32(u32::try_from(v.len()).expect("string fits a u32 length"));
        self.buf.extend_from_slice(v.as_bytes());
    }

    pub fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
        }
    }

    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
        }
    }

    pub fn opt_str(&mut self, v: Option<&str>) {
        match v {
            None => self.u8(0),
            Some(s) => {
                self.u8(1);
                self.str(s);
            }
        }
    }

    /// Collection prefix: the element count.
    pub fn len(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("collection fits a u32 count"));
    }
}

/// Binary decoder: a cursor over a payload slice — or over the part of a
/// payload that has arrived so far ([`Dec::partial`]).
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Payload bytes that exist past the end of `buf` but have not arrived.
    beyond: usize,
    starved: bool,
}

impl<'a> Dec<'a> {
    /// Wraps a whole payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Self::partial(buf, 0)
    }

    /// Wraps the front of a payload whose last `beyond` bytes have not
    /// arrived. Every length check counts them, so a value decodes, or is
    /// refused, exactly as from the whole payload; a read that runs into
    /// them fails with [`CodecError::Eof`] and sets [`Dec::starved`]:
    /// "retry with more bytes", not "truncated".
    pub fn partial(buf: &'a [u8], beyond: usize) -> Self {
        Dec {
            buf,
            pos: 0,
            beyond,
            starved: false,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Eof)?;
        if end > self.buf.len() {
            self.starved = end - self.buf.len() <= self.beyond;
            return Err(CodecError::Eof);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Payload bytes not yet consumed, arrived or not.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos + self.beyond
    }

    /// Whether the last [`CodecError::Eof`] only ran into bytes that have
    /// not arrived (see [`Dec::partial`]).
    pub fn starved(&self) -> bool {
        self.starved
    }

    /// Fails unless every byte was consumed.
    pub fn finish(&self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(CodecError::Trailing(n)),
        }
    }

    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    pub fn usize(&mut self) -> Result<usize, CodecError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CodecError::BadLength(v))
    }

    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(CodecError::BadTag(t)),
        }
    }

    pub fn str(&mut self) -> Result<String, CodecError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
    }

    /// Borrows a string straight out of the payload — the columnar
    /// decoder's zero-copy path (schema names, the tenant table).
    pub fn str_ref(&mut self) -> Result<&'a str, CodecError> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes).map_err(|_| CodecError::BadUtf8)
    }

    /// Borrows `n` raw bytes out of the payload (a column body).
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    fn opt<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Option<T>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(read(self)?)),
            t => Err(CodecError::BadTag(t)),
        }
    }

    pub fn opt_f64(&mut self) -> Result<Option<f64>, CodecError> {
        self.opt(Self::f64)
    }

    pub fn opt_u64(&mut self) -> Result<Option<u64>, CodecError> {
        self.opt(Self::u64)
    }

    pub fn opt_str(&mut self) -> Result<Option<String>, CodecError> {
        self.opt(Self::str)
    }

    /// Reads a collection count, validating it against the remaining bytes
    /// at `min_elem` bytes per element — a forged count fails here instead
    /// of reserving gigabytes.
    pub fn len(&mut self, min_elem: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem.max(1)) > self.remaining() {
            return Err(CodecError::BadLength(n as u64));
        }
        Ok(n)
    }

    /// Leading version byte of a top-level payload.
    pub fn version(&mut self) -> Result<(), CodecError> {
        match self.u8()? {
            CODEC_VERSION => Ok(()),
            v => Err(CodecError::BadVersion(v)),
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot family (public: the gateway reuses these for its wire frames).
// ---------------------------------------------------------------------------

/// Encodes one session's metrics (no version byte; a fragment).
pub fn encode_session_metrics(m: &SessionMetrics, e: &mut Enc<'_>) {
    e.u64(m.session);
    e.str(&m.tenant);
    e.u64(m.shard);
    e.u64(m.ticks);
    e.u64(m.changes);
    e.f64(m.peak_allocation);
    e.u64(m.max_delay);
    e.f64(m.total_arrived);
    e.f64(m.total_served);
    e.f64(m.total_allocated);
    e.opt_f64(m.windowed_utilization);
    e.f64(m.signalling_cost);
    e.f64(m.bandwidth_cost);
}

/// The fewest bytes [`encode_session_metrics`] writes for one row: an
/// empty tenant name and no windowed utilisation.
pub const SESSION_METRICS_MIN_LEN: usize = 93;

/// The exact number of bytes [`encode_session_metrics`] writes for `m`.
pub fn session_metrics_len(m: &SessionMetrics) -> usize {
    SESSION_METRICS_MIN_LEN + m.tenant.len() + 8 * usize::from(m.windowed_utilization.is_some())
}

/// The tenant handles of one decode: a hundred thousand rows of a dozen
/// tenants share a dozen allocations, which outlive the bytes the rows
/// were decoded from.
#[derive(Default)]
pub struct TenantInterner(HashSet<Arc<str>>);

/// Decodes one session's metrics, its tenant handle shared through
/// `tenants`.
///
/// # Errors
///
/// Any [`CodecError`] raised by a malformed fragment.
pub fn decode_session_metrics(
    d: &mut Dec<'_>,
    tenants: &mut TenantInterner,
) -> Result<SessionMetrics, CodecError> {
    let session = d.u64()?;
    let name = d.str_ref()?;
    let tenant = match tenants.0.get(name) {
        Some(known) => Arc::clone(known),
        None => {
            let fresh: Arc<str> = Arc::from(name);
            tenants.0.insert(Arc::clone(&fresh));
            fresh
        }
    };
    Ok(SessionMetrics {
        session,
        tenant,
        shard: d.u64()?,
        ticks: d.u64()?,
        changes: d.u64()?,
        peak_allocation: d.f64()?,
        max_delay: d.u64()?,
        total_arrived: d.f64()?,
        total_served: d.f64()?,
        total_allocated: d.f64()?,
        windowed_utilization: d.opt_f64()?,
        signalling_cost: d.f64()?,
        bandwidth_cost: d.f64()?,
    })
}

/// Encodes the placement-invariant global totals (a fragment).
pub fn encode_global_metrics(g: &GlobalMetrics, e: &mut Enc<'_>) {
    e.u64(g.sessions);
    e.u64(g.changes);
    e.u64(g.max_delay);
    e.f64(g.peak_allocation);
    e.f64(g.total_arrived);
    e.f64(g.total_served);
    e.f64(g.total_allocated);
    e.opt_f64(g.min_windowed_utilization);
    e.f64(g.signalling_cost);
    e.f64(g.bandwidth_cost);
}

/// Decodes the global totals.
///
/// # Errors
///
/// Any [`CodecError`] raised by a malformed fragment.
pub fn decode_global_metrics(d: &mut Dec<'_>) -> Result<GlobalMetrics, CodecError> {
    Ok(GlobalMetrics {
        sessions: d.u64()?,
        changes: d.u64()?,
        max_delay: d.u64()?,
        peak_allocation: d.f64()?,
        total_arrived: d.f64()?,
        total_served: d.f64()?,
        total_allocated: d.f64()?,
        min_windowed_utilization: d.opt_f64()?,
        signalling_cost: d.f64()?,
        bandwidth_cost: d.f64()?,
    })
}

/// Encodes one shard's totals (a fragment).
pub fn encode_shard_metrics(s: &ShardMetrics, e: &mut Enc<'_>) {
    e.u64(s.shard);
    e.u64(s.sessions);
    e.u64(s.changes);
    e.f64(s.peak_allocation);
    e.u64(s.max_delay);
    e.f64(s.signalling_cost);
    e.f64(s.bandwidth_cost);
}

/// Decodes one shard's totals.
///
/// # Errors
///
/// Any [`CodecError`] raised by a malformed fragment.
pub fn decode_shard_metrics(d: &mut Dec<'_>) -> Result<ShardMetrics, CodecError> {
    Ok(ShardMetrics {
        shard: d.u64()?,
        sessions: d.u64()?,
        changes: d.u64()?,
        peak_allocation: d.f64()?,
        max_delay: d.u64()?,
        signalling_cost: d.f64()?,
        bandwidth_cost: d.f64()?,
    })
}

/// Encodes one shard's supervision status (a fragment).
pub fn encode_shard_health(h: &ShardHealth, e: &mut Enc<'_>) {
    e.u64(h.shard);
    e.bool(h.healthy);
    e.u64(h.restarts);
    e.opt_str(h.last_failure.as_deref());
}

/// Decodes one shard's supervision status.
///
/// # Errors
///
/// Any [`CodecError`] raised by a malformed fragment.
pub fn decode_shard_health(d: &mut Dec<'_>) -> Result<ShardHealth, CodecError> {
    Ok(ShardHealth {
        shard: d.u64()?,
        healthy: d.bool()?,
        restarts: d.u64()?,
        last_failure: d.opt_str()?,
    })
}

/// Encodes a service snapshot up to its session rows — counters, totals,
/// per-shard tables and the row count, `rows`, which need not be the
/// length of `snap`'s table: a snapshot read off the shard columns
/// ([`crate::ControlPlane::snapshot_rows`]) heads rows it does not hold.
/// No version byte: the embedding payload carries one, and follows this
/// with [`encode_session_metrics`] per row, a run of rows at a time if it
/// likes.
pub fn encode_snapshot_head(snap: &ServiceSnapshot, rows: usize, e: &mut Enc<'_>) {
    e.u64(snap.ticks);
    e.u64(snap.shards);
    e.u64(snap.admitted);
    e.u64(snap.rejected);
    e.u64(snap.restarts);
    e.u64(snap.events_replayed);
    encode_global_metrics(&snap.global, e);
    e.len(snap.per_shard.len());
    for s in &snap.per_shard {
        encode_shard_metrics(s, e);
    }
    e.len(snap.health.len());
    for h in &snap.health {
        encode_shard_health(h, e);
    }
    e.len(rows);
}

/// Decodes what [`encode_snapshot_head`] wrote: the snapshot with its
/// session table empty but reserved, and the number of rows
/// ([`decode_session_metrics`]) that follow.
///
/// # Errors
///
/// Any [`CodecError`] raised by a malformed fragment; a row count the
/// remaining payload could not hold is [`CodecError::BadLength`].
pub fn decode_snapshot_head(d: &mut Dec<'_>) -> Result<(ServiceSnapshot, usize), CodecError> {
    let ticks = d.u64()?;
    let shards = d.u64()?;
    let admitted = d.u64()?;
    let rejected = d.u64()?;
    let restarts = d.u64()?;
    let events_replayed = d.u64()?;
    let global = decode_global_metrics(d)?;
    let n = d.len(8)?;
    let mut per_shard = Vec::with_capacity(n);
    for _ in 0..n {
        per_shard.push(decode_shard_metrics(d)?);
    }
    let n = d.len(8)?;
    let mut health = Vec::with_capacity(n);
    for _ in 0..n {
        health.push(decode_shard_health(d)?);
    }
    let rows = d.len(SESSION_METRICS_MIN_LEN)?;
    let snap = ServiceSnapshot {
        ticks,
        shards,
        admitted,
        rejected,
        restarts,
        events_replayed,
        global,
        per_shard,
        health,
        sessions: Vec::with_capacity(rows),
    };
    Ok((snap, rows))
}

// ---------------------------------------------------------------------------
// Columnar checkpoint frames (v6): schema-described struct-of-arrays.
// ---------------------------------------------------------------------------

pub(crate) mod columnar {
    //! The columnar checkpoint codec: shard state as schema-described
    //! struct-of-arrays columns mirroring the kernel's `HotState` layout.
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
    use crate::meter::MeterCheckpoint;
    use crate::shard::{
        stage_log, GroupCheckpoint, SessionCheckpoint, F_DEDICATED, F_LEAVING, F_LIVE, F_STAGE_OPEN,
    };
    use cdba_analysis::cost::CostModel;
    use cdba_core::bounds::{HighTrackerState, LowTrackerState};
    use cdba_core::config::{MultiConfig, SingleConfig};
    use cdba_core::multi::pool::{PoolCheckpoint, SlotCheckpoint};
    use cdba_core::single::SingleCheckpoint;
    use cdba_core::stage::{StageKind, StageLog, StageRecord};
    use cdba_sim::streaming::DelayTrackerState;
    use cdba_traffic::EPS;
    use std::collections::HashMap;
    use std::ops::Range;

    // The group section: each pooled group row by row, the layout the
    // test-only row-oriented oracle shares.

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
    /// in wire-v5 mirror streams and in lease blobs, all written by the
    /// same binary that reads them, so an older version is refused
    /// (`columnar.version`), not translated.
    pub(crate) const FRAME_VERSION: u8 = 6;
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
    /// First of the 16 `HotState` f64 scalar columns (declaration order).
    pub(crate) const C_F64: usize = 3;
    /// First of the 5 `HotState` u64 counter columns (declaration order:
    /// stage ticks, meter ticks, changes, max delay, stages completed).
    pub(crate) const C_U64: usize = 19;
    pub(crate) const C_HULL_LEN: usize = 24;
    /// The low hull's vertices `(x, P[x])`, one column per half.
    pub(crate) const C_HULL_X: usize = 25;
    pub(crate) const C_HULL_Y: usize = 26;
    pub(crate) const C_RECENT_LEN: usize = 27;
    pub(crate) const C_RECENT: usize = 28;
    pub(crate) const C_RUNS_LEN: usize = 29;
    /// The allocation runs `(ticks, value)`, one column per half.
    pub(crate) const C_RUNS_TICKS: usize = 30;
    pub(crate) const C_RUNS_VALUE: usize = 31;
    pub(crate) const C_PEND_LEN: usize = 32;
    /// The delay FIFO's head and spill `(tick, bits)`, one column per
    /// half; the tick travels as its age on the row's clock.
    pub(crate) const C_PEND_AGE: usize = 33;
    pub(crate) const C_PEND_BITS: usize = 34;
    pub(crate) const NCOLS: usize = 35;

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
        ("max_delay", K_UNSIGNED),
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

        /// 4 when the value survives `f64 → f32 → f64` with identical
        /// bits — compared as bits, so a NaN payload, `-0.0`, a subnormal
        /// or `+∞` narrows only if it comes back exactly — else 8.
        fn width(self) -> u8 {
            if f64::from(self as f32).to_bits() == self.to_bits() {
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

    /// What a frame's rows are read from: a shard's columns, or one
    /// leased session.
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

        /// Writes the frame of the registered rows into `out` (cleared
        /// first, and made exactly the frame's length in one allocation),
        /// reading their columns from `src`. Returns the row count.
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
            out.clear();
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
            assert_eq!(out.len(), len, "frame length vs the shape pass");
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
        fn parse(
            body: &'a [u8],
            count: usize,
            width: u8,
        ) -> Result<(Self, &'a [u8]), &'static str> {
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
    /// `InvalidCheckpoint` error carries, so [`parse`] can `?` its
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

    /// One dedicated session as a [`ColumnSource`]: the lease frame's
    /// single row.
    struct Lease<'a> {
        cp: &'a SessionCheckpoint,
        flags: u32,
        f64s: [f64; 16],
        u64s: [u64; 5],
        hull: &'a [(f64, f64)],
        /// The delay FIFO's head and spill.
        held: &'a [(usize, f64)],
    }

    impl ColumnSource for Lease<'_> {
        fn columns(&self, rows: &Rows<'_>, f: &mut impl ColumnWriter) {
            let m = &self.cp.meter;
            let allocs = || m.recent.iter().map(|p| p.1);
            f.col(C_KEY, [self.cp.key]);
            f.col(C_TENANT, rows.tenants.iter().copied());
            f.col(C_FLAGS, [self.flags]);
            for (j, &v) in self.f64s.iter().enumerate() {
                f.col(C_F64 + j, [v]);
            }
            for (j, &v) in self.u64s.iter().enumerate() {
                f.col(C_U64 + j, [v]);
            }
            f.col(C_HULL_LEN, [self.hull.len() as u64]);
            f.col(C_HULL_X, self.hull.iter().map(|p| p.0));
            f.col(C_HULL_Y, self.hull.iter().map(|p| p.1));
            f.col(C_RECENT_LEN, [m.recent.len() as u64]);
            f.col(C_RECENT, m.recent.iter().map(|p| p.0));
            f.col(C_RUNS_LEN, [runs(allocs()).count() as u64]);
            f.col(C_RUNS_TICKS, runs(allocs()).map(|r| r.0));
            f.col(C_RUNS_VALUE, runs(allocs()).map(|r| r.1));
            f.col(C_PEND_LEN, [m.delay.pending.len() as u64]);
            f.col(C_PEND_AGE, self.held.iter().map(|p| m.ticks - p.0 as u64));
            f.col(C_PEND_BITS, self.held.iter().map(|p| p.1));
        }
    }

    /// Encodes one dedicated session's checkpoint as a standalone
    /// single-row frame — the migration blob. Same writer, same
    /// column layout, same decode path as a full shard frame: a quiesced
    /// session is just a one-session column slice. Only dedicated
    /// sessions migrate; a pooled one has no group section to name it.
    pub(crate) fn encode_session_frame(cp: &SessionCheckpoint, out: &mut Vec<u8>) {
        let m = &cp.meter;
        let alg = cp
            .dedicated
            .as_ref()
            .expect("only dedicated sessions travel as lease frames");
        let mut flags = F_LIVE | F_DEDICATED;
        if cp.leaving {
            flags |= F_LEAVING;
        }
        let mut f64s = [0.0f64; 16];
        f64s[0] = m.shadow_backlog;
        f64s[1] = m.current_alloc;
        f64s[2] = m.peak_allocation;
        f64s[3] = m.total_arrived;
        f64s[4] = m.total_served;
        f64s[5] = m.total_allocated;
        f64s[6] = m.window_arrived;
        f64s[7] = m.window_allocated;
        f64s[8] = alg.backlog;
        f64s[9] = alg.b_on;
        f64s[13] = f64::INFINITY; // grace sentinel when no stage travels
        f64s[14] = m.min_windowed_utilization.unwrap_or(f64::NAN);
        f64s[15] = m.delay.max_delay_exact;
        let mut u64s = [0u64; 5];
        u64s[1] = m.ticks;
        u64s[2] = m.changes;
        u64s[3] = m.delay.max_delay as u64;
        u64s[4] = alg.stages.completed() as u64;
        let mut hull: &[(f64, f64)] = &[];
        if let (Some(low), Some(high)) = (&alg.stage_low, &alg.stage_high) {
            flags |= F_STAGE_OPEN;
            u64s[0] = low.ticks as u64;
            f64s[10] = low.total;
            f64s[11] = low.low;
            f64s[12] = high.window_sum;
            f64s[13] = high.min_window_sum.unwrap_or(f64::INFINITY);
            hull = &low.hull;
        }
        // The head, then the entries older than the window.
        let pending = &m.delay.pending;
        let start = (m.ticks as usize).saturating_sub(m.recent.len());
        let spill = pending.iter().skip(1).take_while(|p| p.0 < start).count();
        let held = &pending[..pending.len().min(1 + spill)];
        let mut sink = ColumnSink::default();
        sink.push_row(0, &cp.tenant);
        let hdr = FrameHeader {
            ticks: 0,
            stages_retired: 0,
            w: m.window as u32,
            cost: m.cost,
            b_max: alg.cfg.b_max,
            d_o: alg.cfg.d_o as u64,
            u_o: alg.cfg.u_o,
        };
        let lease = Lease {
            cp,
            flags,
            f64s,
            u64s,
            hull,
            held,
        };
        sink.write(&lease, &hdr, &[], &[], out);
    }

    /// Materializes the [`SessionCheckpoint`] of a single-row migration
    /// frame, so the import path can run it through the `validate()` /
    /// `conforms()` gauntlet before admitting it. What the
    /// frame does not carry is derived as the kernel derives it: both
    /// clocks from the meter's, the stage start and the high window from
    /// the stage's ticks, and the FIFO's entries behind its head from the
    /// window. Rejects frames that are not a pure one-session dedicated
    /// slice.
    ///
    /// # Errors
    ///
    /// A typed `columnar.*` field name, suitable for
    /// `CtrlError::InvalidCheckpoint`.
    pub(crate) fn session_from_frame(f: &RawFrame<'_>) -> Result<SessionCheckpoint, &'static str> {
        if f.rows != 1 || !f.groups.is_empty() || !f.retired.is_empty() {
            return Err("columnar.migration");
        }
        let w = f.w as usize;
        if w == 0 {
            return Err("columnar.w");
        }
        let flags = u64_at(f.fixed(C_FLAGS)?, 0);
        const KNOWN: u64 = (F_LIVE | F_DEDICATED | F_LEAVING | F_STAGE_OPEN) as u64;
        if flags & !KNOWN != 0 || flags & u64::from(F_LIVE) == 0 {
            return Err("columnar.flags");
        }
        if flags & u64::from(F_DEDICATED) == 0 {
            return Err("columnar.migration");
        }
        let tenant_i = u64_at(f.fixed(C_TENANT)?, 0);
        let tenant = usize::try_from(tenant_i)
            .ok()
            .and_then(|i| f.strings.get(i))
            .ok_or("columnar.tenant")?;
        let tenant: Arc<str> = Arc::from(*tenant);
        let mut f64s = [0.0f64; 16];
        for (j, v) in f64s.iter_mut().enumerate() {
            *v = f64_at(f.fixed(C_F64 + j)?, 0);
        }
        let mut u64s = [0u64; 5];
        for (j, v) in u64s.iter_mut().enumerate() {
            *v = u64_at(f.fixed(C_U64 + j)?, 0);
        }
        // A ragged column's cells, checked against its row's length.
        let ragged = |len_idx: usize, c: &RawColumn<'_>| -> Result<usize, &'static str> {
            let n = u64_at(f.fixed(len_idx)?, 0);
            if u64::from(c.count) != n {
                return Err("columnar.ragged");
            }
            Ok(n as usize)
        };
        let (hull_x, hull_y) = f.pair(C_HULL_X, C_HULL_Y)?;
        let hull_n = ragged(C_HULL_LEN, hull_x)?;
        let recent_c = f.col(C_RECENT)?;
        let recent_n = ragged(C_RECENT_LEN, recent_c)?;
        let (runs_ticks, runs_value) = f.pair(C_RUNS_TICKS, C_RUNS_VALUE)?;
        let runs_n = ragged(C_RUNS_LEN, runs_ticks)?;
        let clock = u64s[1];
        if recent_n > w || recent_n as u64 > clock {
            return Err("columnar.ring");
        }
        check_runs(runs_ticks, runs_value, 0..runs_n, recent_n)?;
        let stage_ticks = u64s[0];
        let open = flags & u64::from(F_STAGE_OPEN) != 0;
        let window = (stage_ticks as usize).min(w);
        if open && (stage_ticks > clock || window > recent_n) {
            return Err("columnar.stage");
        }
        let recent: Vec<(f64, f64)> = (0..recent_n)
            .map(|j| f64_at(recent_c, j))
            .zip(expand_runs(runs_ticks, runs_value, 0..runs_n))
            .collect();
        let arrivals = || recent.iter().map(|p| p.0);
        let pend_len = u64_at(f.fixed(C_PEND_LEN)?, 0);
        let (age, bits) = f.pair(C_PEND_AGE, C_PEND_BITS)?;
        if fifo_cells(age, 0, pend_len, clock, arrivals())? != age.count as usize {
            return Err("columnar.pend");
        }
        let mut pending: Vec<(usize, f64)> = fifo_held(age, bits, 0..age.count as usize, clock)
            .map(|(t, b)| (t as usize, b))
            .collect();
        if let Some(&(head, _)) = pending.first() {
            let start = clock as usize - recent_n;
            let queued = (start..)
                .zip(arrivals())
                .filter(|&(t, a)| t > head && a > EPS);
            pending.extend(queued);
        }
        let cfg = SingleConfig {
            b_max: f.b_max,
            d_o: f.d_o as usize,
            u_o: f.u_o,
            w,
        };
        let (stage_low, stage_high) = if open {
            let low = LowTrackerState {
                d_o: cfg.d_o,
                hull: (0..hull_n)
                    .map(|j| (f64_at(hull_x, j), f64_at(hull_y, j)))
                    .collect(),
                ticks: stage_ticks as usize,
                total: f64s[10],
                low: f64s[11],
            };
            let high = HighTrackerState {
                u_o: cfg.u_o,
                w,
                grace: cfg.b_max,
                window: arrivals().skip(recent_n - window).collect(),
                window_sum: f64s[12],
                min_window_sum: (!f64s[13].is_infinite()).then_some(f64s[13]),
                ticks: stage_ticks as usize,
            };
            (Some(low), Some(high))
        } else {
            (None, None)
        };
        let meter = MeterCheckpoint {
            cost: f.cost,
            window: w,
            shadow_backlog: f64s[0],
            delay: DelayTrackerState {
                pending,
                tick: clock as usize,
                max_delay: u64s[3] as usize,
                max_delay_exact: f64s[15],
            },
            recent,
            window_arrived: f64s[6],
            window_allocated: f64s[7],
            min_windowed_utilization: (!f64s[14].is_nan()).then_some(f64s[14]),
            current_alloc: f64s[1],
            ticks: clock,
            changes: u64s[2],
            peak_allocation: f64s[2],
            total_arrived: f64s[3],
            total_served: f64s[4],
            total_allocated: f64s[5],
        };
        let dedicated = SingleCheckpoint {
            stages: stage_log(u64s[4], open.then(|| clock - stage_ticks)),
            cfg,
            backlog: f64s[8],
            stage_low,
            stage_high,
            b_on: f64s[9],
            tick: clock as usize,
        };
        Ok(SessionCheckpoint {
            key: u64_at(f.fixed(C_KEY)?, 0),
            tenant,
            meter,
            leaving: flags & u64::from(F_LEAVING) != 0,
            dedicated: Some(dedicated),
            pooled: None,
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(session: u64) -> SessionMetrics {
        SessionMetrics {
            session,
            tenant: Arc::from(format!("tenant-{session}").as_str()),
            shard: session % 3,
            ticks: 100 + session,
            changes: 7,
            peak_allocation: 16.0,
            max_delay: 3,
            total_arrived: 0.1 + session as f64, // not exactly representable
            total_served: 1.0 / 3.0,
            total_allocated: f64::MIN_POSITIVE, // subnormal-adjacent edge
            windowed_utilization: if session.is_multiple_of(2) {
                Some(0.3)
            } else {
                None
            },
            signalling_cost: 7.0,
            bandwidth_cost: -0.0, // signed zero must survive
        }
    }

    fn snapshot() -> ServiceSnapshot {
        ServiceSnapshot {
            ticks: 42,
            shards: 2,
            admitted: 5,
            rejected: 1,
            restarts: 1,
            events_replayed: 17,
            global: GlobalMetrics {
                sessions: 3,
                changes: 21,
                max_delay: 3,
                peak_allocation: 16.0,
                total_arrived: 123.456,
                total_served: 120.0,
                total_allocated: 200.0,
                min_windowed_utilization: Some(0.25),
                signalling_cost: 21.0,
                bandwidth_cost: 200.0,
            },
            per_shard: vec![
                ShardMetrics {
                    shard: 0,
                    sessions: 2,
                    changes: 14,
                    peak_allocation: 16.0,
                    max_delay: 3,
                    signalling_cost: 14.0,
                    bandwidth_cost: 120.0,
                },
                ShardMetrics {
                    shard: 1,
                    sessions: 1,
                    changes: 7,
                    peak_allocation: 8.0,
                    max_delay: 1,
                    signalling_cost: 7.0,
                    bandwidth_cost: 80.0,
                },
            ],
            health: vec![
                ShardHealth {
                    shard: 0,
                    healthy: true,
                    restarts: 0,
                    last_failure: None,
                },
                ShardHealth {
                    shard: 1,
                    healthy: false,
                    restarts: 1,
                    last_failure: Some("injected fault: kill".into()),
                },
            ],
            sessions: (0..3).map(metric).collect(),
        }
    }

    /// Field-for-field bitwise comparison, `f64` by `to_bits`.
    fn assert_bitwise(a: &ServiceSnapshot, b: &ServiceSnapshot) {
        assert_eq!(a, b, "struct equality");
        for (x, y) in a.sessions.iter().zip(&b.sessions) {
            assert_eq!(x.peak_allocation.to_bits(), y.peak_allocation.to_bits());
            assert_eq!(x.total_arrived.to_bits(), y.total_arrived.to_bits());
            assert_eq!(x.total_served.to_bits(), y.total_served.to_bits());
            assert_eq!(x.total_allocated.to_bits(), y.total_allocated.to_bits());
            assert_eq!(
                x.windowed_utilization.map(f64::to_bits),
                y.windowed_utilization.map(f64::to_bits)
            );
            assert_eq!(x.signalling_cost.to_bits(), y.signalling_cost.to_bits());
            assert_eq!(x.bandwidth_cost.to_bits(), y.bandwidth_cost.to_bits());
        }
        assert_eq!(
            a.global.total_arrived.to_bits(),
            b.global.total_arrived.to_bits()
        );
    }

    /// A snapshot as a self-contained payload: version byte, head, rows.
    fn encode_snapshot(snap: &ServiceSnapshot, buf: &mut Vec<u8>) {
        let mut e = Enc::new(buf);
        e.u8(CODEC_VERSION);
        encode_snapshot_head(snap, snap.sessions.len(), &mut e);
        for m in &snap.sessions {
            encode_session_metrics(m, &mut e);
        }
    }

    fn decode_snapshot(payload: &[u8]) -> Result<ServiceSnapshot, CodecError> {
        let mut d = Dec::new(payload);
        d.version()?;
        let (mut snap, rows) = decode_snapshot_head(&mut d)?;
        let mut tenants = TenantInterner::default();
        for _ in 0..rows {
            snap.sessions
                .push(decode_session_metrics(&mut d, &mut tenants)?);
        }
        d.finish()?;
        Ok(snap)
    }

    #[test]
    fn snapshot_roundtrip_is_bitwise() {
        let snap = snapshot();
        let mut buf = Vec::new();
        encode_snapshot(&snap, &mut buf);
        let back = decode_snapshot(&buf).unwrap();
        assert_bitwise(&snap, &back);
    }

    #[test]
    fn binary_decode_matches_json_decode() {
        // The acceptance contract: decode(binary) == decode(json),
        // field for field, f64 by to_bits.
        let snap = snapshot();
        let mut buf = Vec::new();
        encode_snapshot(&snap, &mut buf);
        let from_binary = decode_snapshot(&buf).unwrap();
        let from_json: ServiceSnapshot =
            serde::Deserialize::deserialize(&serde_json::from_str(&snap.to_json_string()).unwrap())
                .unwrap();
        assert_bitwise(&from_binary, &from_json);
        // JSON text equality doubles as a bit-exactness proxy: serde_json
        // prints the shortest exact f64, so equal text ⇔ equal bits.
        assert_eq!(
            from_binary.to_json_string(),
            from_json.to_json_string(),
            "binary- and JSON-decoded snapshots render identically"
        );
    }

    #[test]
    fn signed_zero_and_nan_survive() {
        let mut buf = Vec::new();
        let mut e = Enc::new(&mut buf);
        e.f64(-0.0);
        e.f64(f64::NAN);
        e.f64(f64::INFINITY);
        let mut d = Dec::new(&buf);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(d.f64().unwrap().is_nan());
        assert_eq!(d.f64().unwrap(), f64::INFINITY);
        d.finish().unwrap();
    }

    #[test]
    fn truncated_and_trailing_payloads_are_rejected() {
        let snap = snapshot();
        let mut buf = Vec::new();
        encode_snapshot(&snap, &mut buf);
        for cut in [0, 1, 5, buf.len() / 2, buf.len() - 1] {
            let err = decode_snapshot(&buf[..cut]).unwrap_err();
            assert!(
                matches!(err, CodecError::Eof | CodecError::BadLength(_)),
                "cut at {cut}: {err:?}"
            );
        }
        let mut extended = buf.clone();
        extended.push(0);
        assert_eq!(
            decode_snapshot(&extended).unwrap_err(),
            CodecError::Trailing(1)
        );
    }

    #[test]
    fn hostile_counts_cannot_balloon_memory() {
        // A payload claiming u32::MAX sessions must fail on the length
        // check, before any allocation happens.
        let mut buf = Vec::new();
        let mut e = Enc::new(&mut buf);
        e.u8(CODEC_VERSION);
        for _ in 0..6 {
            e.u64(0);
        }
        encode_global_metrics(&snapshot().global, &mut e);
        e.u32(u32::MAX); // per_shard count
        let err = decode_snapshot(&buf).unwrap_err();
        assert_eq!(err, CodecError::BadLength(u64::from(u32::MAX)));
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut buf = Vec::new();
        encode_snapshot(&snapshot(), &mut buf);
        buf[0] = 99;
        assert_eq!(
            decode_snapshot(&buf).unwrap_err(),
            CodecError::BadVersion(99)
        );
    }

    #[test]
    fn bad_utf8_is_rejected() {
        let mut buf = Vec::new();
        let mut e = Enc::new(&mut buf);
        e.u32(2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(Dec::new(&buf).str().unwrap_err(), CodecError::BadUtf8);
    }
}
