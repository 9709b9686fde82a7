//! The binary encoding of the gateway's snapshot bodies — the one wire
//! encoding of a snapshot.
//!
//! A snapshot body is one length-prefixed buffer with fixed-width
//! little-endian integers and `f64::to_bits` floats, so every field
//! decodes to the *bitwise-identical* value that was encoded (`f64`
//! compared by `to_bits`), which the tests here and the integration
//! suite assert. It is built on [`cdba_ctrl::codec`], so the service
//! section shares its layout (and its hostile-input guards) with the
//! control plane's snapshot fragments.
//!
//! A full snapshot has one encoder ([`SnapshotStream`]) and one decoder,
//! each driven from a slice ([`encode_gateway_snapshot`],
//! [`decode_gateway_snapshot`]) or a socket (a connection's write buffer
//! refilled a run of rows at a time; [`read_gateway_snapshot`]), so neither
//! side of a poll holds the body in one piece. The encoder reads its rows
//! from a snapshot's table or, on an inline plane, straight off the shard
//! columns, so an inline server holds no table either.
//!
//! Layouts (after the leading codec-version byte):
//!
//! ```text
//! gateway-snapshot := service-snapshot · wire-counters
//! ```

use crate::stats::{LatencyBucket, WireSnapshot};
use crate::GatewaySnapshot;
use cdba_ctrl::codec::{
    decode_session_metrics, decode_snapshot_head, encode_session_metrics, encode_snapshot_head,
    session_metrics_len, CodecError, Dec, Enc, TenantInterner, CODEC_VERSION,
};
use cdba_ctrl::{ControlPlane, RowCursor, ServiceSnapshot, SessionMetrics, SnapshotRows};
use std::io::{self, ErrorKind, Read};
use std::ops::Deref;
use std::sync::Arc;

/// Encodes the wire counters (fixed-width, field order = struct order).
fn encode_wire(w: &WireSnapshot, e: &mut Enc<'_>) {
    e.u64(w.connections_accepted);
    e.u64(w.connections_active);
    e.u64(w.connections_harvested);
    e.u64(w.frames_in);
    e.u64(w.frames_out);
    e.u64(w.decode_errors);
    e.u64(w.busy_rejections);
    e.u64(w.noack_stages);
    e.u64(w.full_snapshots);
    e.u64(w.requests);
    e.u64(w.latency_p50_us);
    e.u64(w.latency_p99_us);
    e.len(w.latency_buckets.len());
    for b in &w.latency_buckets {
        e.u64(b.bound_us);
        e.u64(b.count);
    }
}

fn decode_wire(d: &mut Dec<'_>) -> Result<WireSnapshot, CodecError> {
    let connections_accepted = d.u64()?;
    let connections_active = d.u64()?;
    let connections_harvested = d.u64()?;
    let frames_in = d.u64()?;
    let frames_out = d.u64()?;
    let decode_errors = d.u64()?;
    let busy_rejections = d.u64()?;
    let noack_stages = d.u64()?;
    let full_snapshots = d.u64()?;
    let requests = d.u64()?;
    let latency_p50_us = d.u64()?;
    let latency_p99_us = d.u64()?;
    let n = d.len(8 * 2)?;
    let mut latency_buckets = Vec::with_capacity(n);
    for _ in 0..n {
        latency_buckets.push(LatencyBucket {
            bound_us: d.u64()?,
            count: d.u64()?,
        });
    }
    Ok(WireSnapshot {
        connections_accepted,
        connections_active,
        connections_harvested,
        frames_in,
        frames_out,
        decode_errors,
        busy_rejections,
        noack_stages,
        full_snapshots,
        requests,
        latency_p50_us,
        latency_p99_us,
        latency_buckets,
    })
}

/// Encodes a full gateway snapshot as one binary body: one refill, which
/// reserves the exact length.
pub fn encode_gateway_snapshot(snap: &GatewaySnapshot) -> Vec<u8> {
    let mut buf = Vec::new();
    SnapshotStream::new(&snap.service, &snap.wire).refill(None, &mut buf, usize::MAX);
    buf
}

/// The encoder of a full gateway snapshot body, resumable between session
/// rows: the body's length is fixed up front (a frame head needs it), then
/// [`SnapshotStream::refill`] appends a bounded run at a time.
///
/// The rows come from a snapshot's table — `S` is how it is held: borrowed
/// for a one-shot encode, the control plane's shared handle for a reply
/// that outlives its request — or, on an inline plane, straight off the
/// shard columns ([`SnapshotStream::live`]), in which case the plane must
/// not change until the body is complete or [`SnapshotStream::freeze`]
/// has been called. The bytes are the same either way.
pub struct SnapshotStream<S> {
    rows: Rows<S>,
    /// Version byte and everything ahead of the rows; empty once sent.
    head: Vec<u8>,
    /// The wire counters, which follow the last row.
    tail: Vec<u8>,
    /// Body bytes not yet appended.
    left: usize,
}

/// Where a body's session rows come from, in key order.
enum Rows<S> {
    /// A snapshot's table, from row `next` on.
    Table { service: S, next: usize },
    /// The inline plane's shard columns; `held` is a row read off them
    /// that did not fit the last refill.
    Live {
        cursor: RowCursor,
        held: Option<SessionMetrics>,
    },
}

impl<S: Deref<Target = ServiceSnapshot>> Rows<S> {
    /// The next row, still to be stepped past; `None` after the last.
    fn peek(&mut self, plane: Option<&ControlPlane>) -> Option<&SessionMetrics> {
        match self {
            Rows::Table { service, next } => service.sessions.get(*next),
            Rows::Live { cursor, held } => {
                if held.is_none() {
                    let plane = plane.expect("a live body is refilled from its plane");
                    *held = plane.next_row(cursor);
                }
                held.as_ref()
            }
        }
    }

    /// Steps past the row [`Rows::peek`] returned.
    fn step(&mut self) {
        match self {
            Rows::Table { next, .. } => *next += 1,
            Rows::Live { held, .. } => *held = None,
        }
    }
}

impl<S: Deref<Target = ServiceSnapshot>> SnapshotStream<S> {
    /// Starts a body over `service`'s table and the wire counters `wire`.
    pub fn new(service: S, wire: &WireSnapshot) -> Self {
        let rows = service.sessions.len();
        let row_bytes = service.sessions.iter().map(session_metrics_len).sum();
        let head = Self::head(&service, rows);
        Self::start(Rows::Table { service, next: 0 }, head, row_bytes, wire)
    }

    /// Starts a body over an inline plane's snapshot, its rows read off
    /// the shard columns as the body is refilled.
    pub fn live(snapshot: SnapshotRows, wire: &WireSnapshot) -> Self {
        let head = Self::head(&snapshot.head, snapshot.cursor.left());
        let rows = Rows::Live {
            cursor: snapshot.cursor,
            held: None,
        };
        Self::start(rows, head, snapshot.row_bytes, wire)
    }

    fn head(service: &ServiceSnapshot, rows: usize) -> Vec<u8> {
        let mut head = vec![CODEC_VERSION];
        encode_snapshot_head(service, rows, &mut Enc::new(&mut head));
        head
    }

    fn start(rows: Rows<S>, head: Vec<u8>, row_bytes: usize, wire: &WireSnapshot) -> Self {
        let mut tail = Vec::new();
        encode_wire(wire, &mut Enc::new(&mut tail));
        let left = head.len() + row_bytes + tail.len();
        Self {
            rows,
            head,
            tail,
            left,
        }
    }

    /// Body bytes yet to append: on a fresh stream, the body's length.
    pub fn left(&self) -> usize {
        self.left
    }

    /// Appends the next run of the body to `out`: whole rows (and, behind
    /// the last, the tail) while the run stays within `budget` bytes, but
    /// always at least one, so any budget makes progress. A live body
    /// reads its rows off `plane`, which must be the plane that made it,
    /// unchanged; other bodies ignore it. Returns whether the body is now
    /// complete.
    pub fn refill(
        &mut self,
        plane: Option<&ControlPlane>,
        out: &mut Vec<u8>,
        budget: usize,
    ) -> bool {
        let start = out.len();
        out.reserve(budget.min(self.left));
        out.append(&mut self.head);
        let done = loop {
            let row = self.rows.peek(plane);
            let unit = row.map_or(self.tail.len(), session_metrics_len);
            if out.len() > start && out.len() - start + unit > budget {
                break false;
            }
            match row {
                Some(row) => encode_session_metrics(row, &mut Enc::new(out)),
                None => {
                    out.append(&mut self.tail);
                    break true;
                }
            }
            self.rows.step();
        };
        self.left -= out.len() - start;
        debug_assert!(!done || self.left == 0, "size pass and fill pass disagree");
        done
    }
}

impl SnapshotStream<Arc<ServiceSnapshot>> {
    /// Moves a live body onto `plane`'s shared snapshot, from the row it
    /// stands at, so the plane may change; a no-op on any other body. The
    /// plane is still the one the body was made from, so that snapshot is
    /// the body's own, bit for bit, and every body frozen before the same
    /// change shares the one table.
    ///
    /// # Panics
    ///
    /// If `plane` fails to snapshot, which an inline plane — the only one
    /// that makes live bodies — never does.
    pub fn freeze(&mut self, plane: &mut ControlPlane) {
        let Rows::Live { cursor, held } = &self.rows else {
            return;
        };
        let left = cursor.left() + usize::from(held.is_some());
        let service = plane
            .snapshot_shared()
            .expect("an inline plane snapshots infallibly");
        let next = service.sessions.len() - left;
        self.rows = Rows::Table { service, next };
    }
}

/// The decoder of a full gateway snapshot body, resumable wherever the
/// bytes received so far end; rows go straight into the final table.
#[derive(Default)]
struct SnapshotDecoder {
    /// `None` until the head is decoded; then the snapshot, its table
    /// filling row by row, and the rows still to come.
    service: Option<(ServiceSnapshot, usize)>,
    tenants: TenantInterner,
    /// `None` until the body is decoded to its last byte.
    wire: Option<WireSnapshot>,
}

impl SnapshotDecoder {
    /// Decodes the whole values at the front of `buf` — the body from
    /// where the last call stopped, `beyond` more bytes still to arrive —
    /// and returns the bytes they took. With `beyond == 0` the body
    /// completes or fails.
    fn feed(&mut self, buf: &[u8], beyond: usize) -> Result<usize, CodecError> {
        let mut d = Dec::partial(buf, beyond);
        let mut used = 0;
        while self.wire.is_none() {
            match self.step(&mut d) {
                Ok(()) => used = buf.len() + beyond - d.remaining(),
                Err(CodecError::Eof) if d.starved() => break,
                Err(e) => return Err(e),
            }
        }
        Ok(used)
    }

    /// Decodes the next value: the head, one row, or the wire counters.
    fn step(&mut self, d: &mut Dec<'_>) -> Result<(), CodecError> {
        let Some((service, rows_left)) = &mut self.service else {
            d.version()?;
            self.service = Some(decode_snapshot_head(d)?);
            return Ok(());
        };
        if *rows_left > 0 {
            let row = decode_session_metrics(d, &mut self.tenants)?;
            service.sessions.push(row);
            *rows_left -= 1;
            return Ok(());
        }
        let wire = decode_wire(d)?;
        d.finish()?;
        self.wire = Some(wire);
        Ok(())
    }

    fn finish(self) -> GatewaySnapshot {
        let whole = "a whole body completes or fails";
        GatewaySnapshot {
            service: self.service.expect(whole).0,
            wire: self.wire.expect(whole),
        }
    }
}

/// Decodes a binary gateway snapshot body.
///
/// # Errors
///
/// [`CodecError`] on a version mismatch, truncation, hostile lengths,
/// or trailing bytes.
pub fn decode_gateway_snapshot(payload: &[u8]) -> Result<GatewaySnapshot, CodecError> {
    let mut decoder = SnapshotDecoder::default();
    decoder.feed(payload, 0)?;
    Ok(decoder.finish())
}

/// The buffer a streamed body is decoded through: a read worth its system
/// call, still in cache when its rows are decoded.
const READ_BUF: usize = 64 * 1024;

/// [`decode_gateway_snapshot`] over the next `len` bytes of `src`, read
/// through one bounded buffer. A body that does not decode (the inner
/// error) is still read to its end, so `src` is left at the next frame.
///
/// # Errors
///
/// The outer error is `src`'s own: the body was not read to its end.
pub fn read_gateway_snapshot(
    src: &mut impl Read,
    len: usize,
) -> io::Result<Result<GatewaySnapshot, CodecError>> {
    let mut decoder = SnapshotDecoder::default();
    let mut buf = vec![0u8; READ_BUF.min(len)];
    // Body bytes sitting in `buf`, and body bytes `src` still holds.
    let (mut held, mut unread) = (0, len);
    loop {
        match decoder.feed(&buf[..held], unread) {
            Ok(used) => {
                buf.copy_within(used..held, 0);
                held -= used;
            }
            Err(e) => {
                let rest = &mut src.take(unread as u64);
                let short = io::copy(rest, &mut io::sink())? < unread as u64;
                return if short {
                    Err(ErrorKind::UnexpectedEof.into())
                } else {
                    Ok(Err(e))
                };
            }
        }
        if unread == 0 {
            return Ok(Ok(decoder.finish()));
        }
        if held == buf.len() {
            // One value outgrew the buffer (a long tenant name): grow it,
            // never past what the body still has.
            buf.resize((2 * held).min(held + unread), 0);
        }
        let want = (buf.len() - held).min(unread);
        match src.read(&mut buf[held..held + want]) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(got) => (held, unread) = (held + got, unread - got),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdba_ctrl::{ControlPlane, ExecMode, ServiceConfig};
    use serde::Deserialize;

    fn plane() -> ControlPlane {
        ControlPlane::new(
            ServiceConfig::builder(256.0)
                .session_b_max(16.0)
                .offline_delay(4)
                .window(4)
                .exec(ExecMode::Inline)
                .build()
                .unwrap(),
        )
    }

    fn wire() -> WireSnapshot {
        WireSnapshot {
            connections_accepted: 3,
            connections_active: 2,
            connections_harvested: 1,
            frames_in: 40,
            frames_out: 41,
            decode_errors: 0,
            busy_rejections: 1,
            noack_stages: 7,
            full_snapshots: 1,
            requests: 30,
            latency_p50_us: 12,
            latency_p99_us: 140,
            latency_buckets: vec![
                LatencyBucket {
                    bound_us: 12,
                    count: 26,
                },
                LatencyBucket {
                    bound_us: 140,
                    count: 4,
                },
            ],
        }
    }

    fn churned_snapshot() -> GatewaySnapshot {
        let mut service = plane();
        let a = service.admit("acme").unwrap();
        let b = service.admit("globex").unwrap();
        let group = service.admit_group("initech", 3).unwrap();
        service.leave(b).unwrap();
        for t in 0..12u64 {
            let mut arrivals = vec![(a, (t % 3) as f64)];
            arrivals.extend(group.iter().map(|&k| (k, 0.5 + (t % 2) as f64)));
            service.tick(&arrivals).unwrap();
        }
        let snap = GatewaySnapshot {
            service: service.snapshot().unwrap(),
            wire: wire(),
        };
        service.shutdown();
        snap
    }

    #[test]
    fn gateway_snapshot_binary_roundtrip_is_exact() {
        let snap = churned_snapshot();
        let bytes = encode_gateway_snapshot(&snap);
        let back = decode_gateway_snapshot(&bytes).unwrap();
        assert_eq!(back, snap);
        // Byte identity through the JSON reference encoding proves the
        // float bits survived, not just `PartialEq`.
        assert_eq!(
            back.to_json_string().unwrap(),
            snap.to_json_string().unwrap()
        );
    }

    #[test]
    fn binary_decode_matches_json_decode() {
        let snap = churned_snapshot();
        let json = snap.to_json_string().unwrap();
        let via_json = GatewaySnapshot::deserialize(&serde_json::from_str(&json).unwrap()).unwrap();
        let via_binary = decode_gateway_snapshot(&encode_gateway_snapshot(&snap)).unwrap();
        assert_eq!(via_binary, via_json);
        for (b, j) in via_binary
            .service
            .sessions
            .iter()
            .zip(via_json.service.sessions.iter())
        {
            assert_eq!(b.total_arrived.to_bits(), j.total_arrived.to_bits());
            assert_eq!(b.signalling_cost.to_bits(), j.signalling_cost.to_bits());
            assert_eq!(b.bandwidth_cost.to_bits(), j.bandwidth_cost.to_bits());
        }
    }

    #[test]
    fn truncated_and_trailing_bodies_are_rejected() {
        let snap = churned_snapshot();
        let bytes = encode_gateway_snapshot(&snap);
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_gateway_snapshot(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(matches!(
            decode_gateway_snapshot(&padded),
            Err(CodecError::Trailing(1))
        ));
    }

    #[test]
    fn wrong_codec_version_is_rejected() {
        let snap = churned_snapshot();
        let mut bytes = encode_gateway_snapshot(&snap);
        bytes[0] = CODEC_VERSION + 1;
        assert!(matches!(
            decode_gateway_snapshot(&bytes),
            Err(CodecError::BadVersion(_))
        ));
    }
}
