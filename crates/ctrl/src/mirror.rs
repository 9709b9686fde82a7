//! Public consumers of the columnar checkpoint stream.
//!
//! Two façades over the crate-private shard machinery:
//!
//! * [`CheckpointMirror`] — a passive replica of one shard, fed the same
//!   columnar frames the driver retains, handed over in memory (by a
//!   bench harness or a test). Every frame carries the whole shard
//!   and replaces whatever the mirror held. Frames land in the mirror's
//!   preallocated slab columns — after the first frame at a given
//!   population, a warm re-apply performs no per-session heap allocation.
//! * [`CheckpointProbe`] — a self-contained shard driver for benchmarks:
//!   populate, tick, churn, and encode checkpoint frames without spinning
//!   up a [`crate::ControlPlane`], its threads, or its channels. The
//!   probe reuses one encode sink and hands out frames byte-identical to
//!   what a worker would ship.
//!
//! Both speak the frame format of `codec::columnar`; nothing
//! here can diverge from the service path because it *is* the service
//! path, minus the supervisor.

use crate::codec::columnar;
use crate::config::ServiceConfig;
use crate::shard::{ApplyScratch, ReplayEvent, ShardState};
use crate::CtrlError;
use std::sync::Arc;

/// A passive shard replica built from columnar checkpoint frames.
///
/// The mirror enforces the same validate-then-mutate contract the
/// driver's recovery path does: a frame that fails validation leaves the
/// mirror untouched and returns [`CtrlError::InvalidCheckpoint`] with a
/// typed field, so a hostile or corrupted stream cannot leave a
/// half-written replica behind.
pub struct CheckpointMirror {
    state: ShardState,
    scratch: ApplyScratch,
    sink: columnar::ColumnSink,
}

impl CheckpointMirror {
    /// An empty mirror running `cfg`. The config must match the service
    /// that produced the frames — the frame header carries the kernel
    /// parameters and [`CheckpointMirror::apply`] rejects a mismatch
    /// (`columnar.cfg`).
    pub fn new(cfg: &ServiceConfig) -> Self {
        CheckpointMirror {
            state: ShardState::new(0, cfg),
            scratch: ApplyScratch::default(),
            sink: columnar::ColumnSink::default(),
        }
    }

    /// Applies one columnar frame, returning the number of session rows
    /// it carried.
    ///
    /// # Errors
    ///
    /// [`CtrlError::InvalidCheckpoint`] with the offending field for a
    /// frame that is truncated, structurally malformed, or semantically
    /// inconsistent with the mirror's state; the mirror is unchanged.
    pub fn apply(&mut self, frame: &[u8]) -> Result<u64, CtrlError> {
        let parsed =
            columnar::parse(frame).map_err(|field| CtrlError::InvalidCheckpoint { field })?;
        let rows = parsed.rows;
        self.state
            .apply_frame(&parsed, &mut self.scratch)
            .map_err(|field| CtrlError::InvalidCheckpoint { field })?;
        Ok(u64::from(rows))
    }

    /// Encodes the replica as one frame into `out` (cleared first),
    /// returning its row count. Apply is bitwise, so right after a frame
    /// is applied this is that frame byte for byte.
    pub fn encode(&mut self, out: &mut Vec<u8>) -> u64 {
        out.clear();
        self.state.encode_columnar(&mut self.sink, out)
    }

    /// Ticks the mirrored shard has processed (as of the last frame).
    pub fn ticks(&self) -> u64 {
        self.state.ticks()
    }

    /// Live sessions in the mirrored shard.
    pub fn live_sessions(&self) -> usize {
        self.state.live_sessions()
    }
}

/// A bench harness around one shard: drive a population directly and
/// encode/apply checkpoint frames with no control plane in the way.
pub struct CheckpointProbe {
    state: ShardState,
    sink: columnar::ColumnSink,
    /// Next session key to hand out (keys are dense, like the driver's).
    next_key: u64,
    /// Oldest key not yet marked leaving, for churn.
    churn_cursor: u64,
    /// Tenant handles, reused so joins don't allocate per session.
    tenants: Vec<Arc<str>>,
}

/// Tenants the probe spreads sessions across — enough to exercise the
/// frame's string table without dominating it.
const PROBE_TENANTS: usize = 16;

impl CheckpointProbe {
    /// An empty probe shard running `cfg`.
    pub fn new(cfg: &ServiceConfig) -> Self {
        CheckpointProbe {
            state: ShardState::new(0, cfg),
            sink: columnar::ColumnSink::default(),
            next_key: 0,
            churn_cursor: 0,
            tenants: (0..PROBE_TENANTS)
                .map(|t| Arc::from(format!("bench-{t}").as_str()))
                .collect(),
        }
    }

    /// Joins `sessions` fresh dedicated sessions.
    pub fn populate(&mut self, sessions: usize) {
        for _ in 0..sessions {
            let key = self.next_key;
            self.next_key += 1;
            self.state.apply(&ReplayEvent::JoinDedicated {
                key,
                tenant: Arc::clone(&self.tenants[key as usize % PROBE_TENANTS]),
            });
        }
    }

    /// Advances the shard `n` ticks, every not-yet-churned session
    /// receiving arrivals (so each carries backlog and a later
    /// [`CheckpointProbe::churn`] marks it leaving instead of retiring it
    /// on the spot).
    ///
    /// The kernel reads a plain slice, as the inline backend hands it one,
    /// so a timed tick is the sweep and not a journal decode.
    pub fn tick(&mut self, n: usize) {
        let arrivals: Vec<(u64, f64)> = (self.churn_cursor..self.next_key)
            .map(|k| (k, 8.0))
            .collect();
        for _ in 0..n {
            self.state.tick(arrivals.iter().copied());
        }
    }

    /// Marks the oldest `k` not-yet-churned sessions as leaving, without
    /// advancing the clock: between-tick churn.
    pub fn churn(&mut self, k: usize) {
        for _ in 0..k {
            if self.churn_cursor >= self.next_key {
                break;
            }
            let key = self.churn_cursor;
            self.churn_cursor += 1;
            self.state.apply(&ReplayEvent::Leave { key });
        }
    }

    /// Encodes the probe shard's checkpoint frame into `out` (cleared
    /// first), returning the number of session rows encoded: every live
    /// session, as a worker ships it. `_full` is ignored, since every
    /// frame is full; it stays because stackbench's harness passes it.
    pub fn encode(&mut self, _full: bool, out: &mut Vec<u8>) -> u64 {
        out.clear();
        self.state.encode_columnar(&mut self.sink, out)
    }

    /// Live sessions on the probe shard.
    pub fn live_sessions(&self) -> usize {
        self.state.live_sessions()
    }

    /// Ticks the probe shard has processed.
    pub fn ticks(&self) -> u64 {
        self.state.ticks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ServiceConfig {
        ServiceConfig::builder(4096.0)
            .session_b_max(16.0)
            .group_b_o(8.0)
            .offline_delay(4)
            .window(4)
            .build()
            .unwrap()
    }

    #[test]
    fn probe_frames_replicate_into_a_mirror() {
        let cfg = cfg();
        let mut probe = CheckpointProbe::new(&cfg);
        let mut mirror = CheckpointMirror::new(&cfg);
        let mut frame = Vec::new();

        probe.populate(100);
        probe.tick(6);
        let rows = probe.encode(true, &mut frame);
        assert_eq!(rows, 100);
        assert_eq!(mirror.apply(&frame).unwrap(), 100);
        assert_eq!(mirror.live_sessions(), 100);
        assert_eq!(mirror.ticks(), 6);

        // Between-tick churn marks sessions leaving; every frame still
        // carries every live session, whatever the flag says.
        probe.churn(7);
        let full = frame.clone();
        assert_eq!(probe.encode(false, &mut frame), 100);
        let mut again = Vec::new();
        probe.encode(true, &mut again);
        assert_eq!(frame, again, "the flag changes nothing");
        assert_ne!(frame, full, "the churned rows are leaving");
        assert_eq!(mirror.apply(&frame).unwrap(), 100);
        assert_eq!(mirror.live_sessions(), 100, "leaving sessions stay live");

        // A frame resets a mirror wherever it stands: the one that
        // followed every frame and one that saw none land together, and
        // re-encode the frame byte for byte.
        probe.churn(4);
        probe.tick(3);
        probe.encode(true, &mut frame);
        let mut behind = CheckpointMirror::new(&cfg);
        for m in [&mut mirror, &mut behind] {
            m.apply(&frame).unwrap();
            assert_eq!(m.ticks(), 9);
            assert_eq!(m.live_sessions(), probe.live_sessions());
            m.encode(&mut again);
            assert_eq!(again, frame);
        }
    }

    #[test]
    fn malformed_frame_leaves_the_mirror_untouched() {
        let cfg = cfg();
        let mut probe = CheckpointProbe::new(&cfg);
        let mut mirror = CheckpointMirror::new(&cfg);
        let mut frame = Vec::new();
        probe.populate(10);
        probe.tick(2);
        probe.encode(true, &mut frame);
        mirror.apply(&frame).unwrap();

        probe.churn(3);
        probe.encode(true, &mut frame);
        let err = mirror.apply(&frame[..frame.len() - 1]).unwrap_err();
        assert!(
            matches!(err, CtrlError::InvalidCheckpoint { field } if field.starts_with("columnar.")),
            "truncation yields a typed columnar error, got {err:?}"
        );
        assert_eq!(mirror.live_sessions(), 10, "failed apply mutated nothing");
        assert_eq!(mirror.ticks(), 2);
        mirror
            .apply(&frame)
            .expect("the intact frame still applies after the failed one");
    }

    /// `frame` with cell `cell` of unsigned column `col` set to `value`,
    /// the column re-encoded as the writer lays it out.
    fn poisoned(frame: &[u8], col: usize, cell: usize, value: u64) -> Vec<u8> {
        let parsed = columnar::parse(frame).unwrap();
        let c = parsed.col(col);
        let mut cells: Vec<u64> = (0..c.count as usize)
            .map(|i| columnar::u64_at(c, i))
            .collect();
        cells[cell] = value;
        columnar::with_cells(frame, col, &cells)
    }

    /// `state`'s frame bytes.
    fn frame_of(state: &ShardState) -> Vec<u8> {
        let mut out = Vec::new();
        state.encode_columnar(&mut columnar::ColumnSink::default(), &mut out);
        out
    }

    /// `frame` with its one occurrence of `from` replaced by `to`.
    fn swapped(frame: &[u8], from: &[u8], to: &[u8]) -> Vec<u8> {
        let at = frame.windows(from.len()).position(|w| w == from).unwrap();
        assert!(!frame[at + 1..].windows(from.len()).any(|w| w == from));
        let mut evil = frame.to_vec();
        evil[at..at + to.len()].copy_from_slice(to);
        evil
    }

    /// `frame` with byte `at` of column `col`'s presence bitmap XORed with
    /// `mask`, every length left as written.
    fn flipped(frame: &[u8], col: usize, at: usize, mask: u8) -> Vec<u8> {
        let parsed = columnar::parse(frame).unwrap();
        let bitmap = parsed.col(col).sparse.as_ref().unwrap().bitmap;
        let at = bitmap.as_ptr() as usize - frame.as_ptr() as usize + at;
        let mut evil = frame.to_vec();
        evil[at] ^= mask;
        evil
    }

    /// A sparse column's body is its bitmap plus one cell per set bit: a
    /// bit set past the column's cell count is refused as
    /// `columnar.sparse`. A flipped bit inside it (one set bit cleared,
    /// one clear bit set) makes the column one cell shorter or longer,
    /// so the next column's width byte is read from a cell's bytes;
    /// these frames all fail there, as `columnar.width`. Either is
    /// refused before anything is written — by a mirror, a recovering
    /// shard and a lease import alike.
    #[test]
    fn malformed_sparse_bodies_are_refused_typed() {
        use columnar::{C_F64, C_RECENT};
        let cfg = cfg();
        let mut live = ShardState::new(0, &cfg);
        for key in 0..3 {
            live.apply(&ReplayEvent::JoinDedicated {
                key,
                tenant: "acme".into(),
            });
        }
        live.apply(&ReplayEvent::JoinGroup {
            group: 0,
            tenant: "acme".into(),
            members: vec![3, 4].into(),
        });
        for t in 0..7 {
            let arrivals: Vec<(u64, f64)> = (0..5).map(|k| (k, ((k + t) % 3) as f64)).collect();
            live.apply(&ReplayEvent::Tick {
                arrivals: arrivals.into(),
            });
        }
        let mut frame = Vec::new();
        live.encode_columnar(&mut columnar::ColumnSink::default(), &mut frame);
        // `b_on` has five cells, the pooled pair's zero: one bitmap byte,
        // bits 5..8 past the count. `recent` has zeros among its 20: three
        // bitmap bytes, the last one's bits 4..8 past the count.
        const B_ON: usize = C_F64 + 9;
        let parsed = columnar::parse(&frame).unwrap();
        let (b_on, recent) = (parsed.col(B_ON), parsed.col(C_RECENT));
        assert_eq!((b_on.count, recent.count), (5, 20));
        let bits = b_on.sparse.as_ref().expect("b_on is written sparse").bitmap[0];
        assert_eq!(bits, 0b0_0111, "the dedicated rows' cells are written");
        assert!(recent.sparse.is_some(), "recent is written sparse");
        let (sparse, width) = ("columnar.sparse", "columnar.width");
        let cases = [
            (flipped(&frame, B_ON, 0, 0x80), sparse),
            (flipped(&frame, B_ON, 0, 0x20), sparse),
            (flipped(&frame, B_ON, 0, 0x01), width),
            (flipped(&frame, B_ON, 0, 0x08), width),
            (flipped(&frame, C_RECENT, 2, 0x10), sparse),
            (flipped(&frame, C_RECENT, 1, 0x08), width),
        ];
        let mut mirror = CheckpointMirror::new(&cfg);
        mirror.apply(&frame).unwrap();
        let held = frame_of(&mirror.state);
        for &(ref evil, want) in &cases {
            let err = mirror.apply(evil).unwrap_err();
            assert_eq!(err, CtrlError::InvalidCheckpoint { field: want });
            assert_eq!(frame_of(&mirror.state), held, "the mirror was written");
            let mut recovering = ShardState::new(0, &cfg).recycle();
            let field = columnar::parse(evil)
                .and_then(|f| recovering.apply_frame(&f, &mut ApplyScratch::default()))
                .unwrap_err();
            assert_eq!(field, want);
            assert_eq!(recovering.live_sessions(), 0, "recovery was written");
        }
        mirror
            .apply(&frame)
            .expect("the intact frame still applies");

        // A lease's one row: its zero float cells are one-bit bitmaps.
        let mut plane = crate::ControlPlane::new(cfg.clone());
        let key = plane.admit("acme").unwrap();
        for _ in 0..7 {
            plane.tick(&[(key, 1.0)]).unwrap();
        }
        let blob = plane.export_session(key).unwrap();
        let parsed = columnar::parse(&blob).unwrap();
        let zero = |j: usize| {
            let c = parsed.col(j);
            c.sparse.as_ref().is_some_and(|p| p.bitmap == [0])
        };
        let col = (0..columnar::NCOLS).find(|&j| zero(j));
        let col = col.expect("a lease writes a zero float cell as one clear bit");
        let budget = plane.available_budget();
        for (mask, want) in [(0x02, sparse), (0x01, width)] {
            assert_eq!(
                plane.import_session(&flipped(&blob, col, 0, mask)),
                Err(CtrlError::InvalidCheckpoint { field: want })
            );
            assert_eq!(
                (plane.live_sessions(), plane.available_budget()),
                (0, budget)
            );
        }
        plane
            .import_session(&blob)
            .expect("the intact blob imports");
    }

    /// A string table may name a tenant twice; each row still lands under
    /// its own name — the one the entry it points at spells — in a mirror
    /// and in a recovering shard alike.
    #[test]
    fn a_repeated_tenant_name_resolves_row_by_row() {
        let cfg = cfg();
        let mut live = ShardState::new(0, &cfg);
        for (key, tenant) in ["acme", "globex", "initech"].into_iter().enumerate() {
            live.apply(&ReplayEvent::JoinDedicated {
                key: key as u64,
                tenant: tenant.into(),
            });
        }
        let mut frame = Vec::new();
        live.encode_columnar(&mut columnar::ColumnSink::default(), &mut frame);
        // The table [acme, globex, initech] becomes [acme, globex, acme,
        // initech]: row 0 names the second `acme`, row 2 the shifted
        // `initech`.
        let parsed = columnar::parse(&frame).unwrap();
        assert_eq!(parsed.strings, ["acme", "globex", "initech"]);
        let table = {
            let first = parsed.strings[0].as_ptr() as usize - frame.as_ptr() as usize;
            let last = parsed.strings[2];
            first - 8..last.as_ptr() as usize - frame.as_ptr() as usize + last.len()
        };
        let mut evil = frame[..table.start].to_vec();
        evil.extend_from_slice(&4u32.to_le_bytes());
        for name in ["acme", "globex", "acme", "initech"] {
            evil.extend_from_slice(&(name.len() as u32).to_le_bytes());
            evil.extend_from_slice(name.as_bytes());
        }
        evil.extend_from_slice(&frame[table.end..]);
        let evil = poisoned(&evil, columnar::C_TENANT, 0, 2);
        let evil = poisoned(&evil, columnar::C_TENANT, 2, 3);

        let mut mirror = CheckpointMirror::new(&cfg);
        mirror.apply(&evil).expect("a repeated name applies");
        let mut again = Vec::new();
        mirror.encode(&mut again);
        assert_eq!(again, frame);
        let recovering = ShardState::new(0, &cfg).recycle().rebuild(Some(&evil), []);
        assert_eq!(frame_of(&recovering), frame);
    }

    /// A frame carries nothing the kernel derives, so all that is left to
    /// refuse is state that cannot exist: an open stage that outlasts the
    /// session's clock, allocation runs that do not tile the ring (a
    /// zero-length run, lengths that miss `recent_len`), a group member
    /// naming a dedicated or an absent row, a pooled row no group names,
    /// and a frame of another version. Each is refused with a typed field
    /// before anything is written — by a mirror, by a recovering shard,
    /// and (the cases a one-row lease can carry) by a lease import.
    #[test]
    fn impossible_rows_and_foreign_versions_are_refused_typed() {
        use columnar::{C_FLAGS, C_RECENT, C_RUNS_TICKS, C_U64};
        let cfg = cfg();
        let mut live = ShardState::new(0, &cfg);
        for key in 0..3 {
            live.apply(&ReplayEvent::JoinDedicated {
                key,
                tenant: "acme".into(),
            });
        }
        live.apply(&ReplayEvent::JoinGroup {
            group: 0,
            tenant: "acme".into(),
            members: vec![3, 4].into(),
        });
        for _ in 0..7 {
            let arrivals: Vec<(u64, f64)> = (0..5).map(|k| (k, 1.0)).collect();
            live.apply(&ReplayEvent::Tick {
                arrivals: arrivals.into(),
            });
        }
        let mut frame = Vec::new();
        live.encode_columnar(&mut columnar::ColumnSink::default(), &mut frame);
        let clock = {
            let parsed = columnar::parse(&frame).unwrap();
            columnar::u64_at(parsed.col(C_U64 + 1), 0)
        };
        let refusal = |state: &mut ShardState, bytes: &[u8]| {
            let parsed = columnar::parse(bytes)?;
            state.apply_frame(&parsed, &mut ApplyScratch::default())
        };
        // Row 0 (key 0) is mid-stage, one constant-allocation run long;
        // rows 3 and 4 are the pooled pair.
        let row_cases = [
            (C_U64, clock + 1, "columnar.stage"),
            (C_RUNS_TICKS, 0, "columnar.runs"),
            (C_RUNS_TICKS, 5, "columnar.runs"),
        ];
        // The group section lists `(pool member id, key)`; the pool
        // numbers its members from 0.
        let pair = |key: u64| [0u64.to_le_bytes(), key.to_le_bytes()].concat();
        let mut cases: Vec<(Vec<u8>, &str)> = row_cases
            .iter()
            .map(|&(col, value, want)| (poisoned(&frame, col, 0, value), want))
            .collect();
        cases.push((swapped(&frame, &pair(3), &pair(0)), "columnar.groups"));
        cases.push((swapped(&frame, &pair(3), &pair(99)), "columnar.groups"));
        let pooled_flags = u64::from(crate::shard::F_LIVE);
        cases.push((
            poisoned(&frame, C_FLAGS, 0, pooled_flags),
            "columnar.groups",
        ));
        let mut v5 = frame.clone();
        v5[0] = 5;
        cases.push((v5, "columnar.version"));
        let mut mirror = CheckpointMirror::new(&cfg);
        mirror.apply(&frame).unwrap();
        let held = frame_of(&mirror.state);
        for (evil, want) in &cases {
            let err = mirror.apply(evil).unwrap_err();
            assert!(
                matches!(err, CtrlError::InvalidCheckpoint { field } if field == *want),
                "{want}: {err}"
            );
            assert_eq!(
                frame_of(&mirror.state),
                held,
                "{want}: the mirror was written"
            );
            let mut recovering = ShardState::new(0, &cfg).recycle();
            assert_eq!(refusal(&mut recovering, evil), Err(*want));
            assert_eq!(
                recovering.live_sessions(),
                0,
                "{want}: recovery was written"
            );
        }
        mirror
            .apply(&frame)
            .expect("the intact frame still applies");

        let mut plane = crate::ControlPlane::new(cfg.clone());
        let key = plane.admit("acme").unwrap();
        for _ in 0..7 {
            plane.tick(&[(key, 1.0)]).unwrap();
        }
        let blob = plane.export_session(key).unwrap();
        let window = columnar::parse(&blob).unwrap().col(C_RECENT).count;
        assert_eq!(window, 4, "the lease carries a full window");
        let budget = plane.available_budget();
        let mut v5 = blob.clone();
        v5[0] = 5;
        let leases = row_cases
            .iter()
            .map(|&(col, value, want)| (poisoned(&blob, col, 0, value), want))
            .chain([(v5, "columnar.version")]);
        for (evil, want) in leases {
            let err = plane.import_session(&evil).unwrap_err();
            assert_eq!(err, CtrlError::InvalidCheckpoint { field: want });
            assert_eq!(
                (plane.live_sessions(), plane.available_budget()),
                (0, budget)
            );
        }
        plane
            .import_session(&blob)
            .expect("the intact blob imports");
    }
}
