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

    /// Raw bytes, with no length ahead of them: a magic, or a body whose
    /// length was written before it.
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
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

/// `v` as an `f32` when `f64 → f32 → f64` gives back its bits, else
/// `None`. Compared as bits, so a NaN payload, `-0.0`, a subnormal or
/// `±∞` narrows only if it comes back exactly. The one rule behind every
/// half-width store: journal arrivals, frame float cells, window rings.
#[inline(always)]
pub(crate) fn f32_exact(v: f64) -> Option<f32> {
    let narrow = v as f32;
    (f64::from(narrow).to_bits() == v.to_bits()).then_some(narrow)
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

pub(crate) mod columnar;

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
