//! Process images: a control plane's whole state at a tick boundary, as
//! one byte string a fresh plane restores from.
//!
//! An image is every shard's columnar checkpoint frame at the current
//! tick plus the driver state no frame holds:
//!
//! ```text
//! image := "CDPI" · u8 version · u32 shards · u64 clock · u64 next_key
//!        · u64 next_group · u64 admitted · u64 rejected
//!        · f64 budget · f64 default_quota · f64 dedicated_envelope
//!        · f64 group_envelope · shards × (u32 frame_len · frame)
//! ```
//!
//! The rest of the driver is derived on restore from the frames' rows:
//! every row that is not leaving is a placement, a pooled row's group
//! counts it as live, and each dedicated row and each group with a live
//! member re-takes its admission envelope. A restore therefore reproduces
//! keys, placements, groups, budget and admission tallies, and the plane
//! runs on from the image's tick exactly as the plane it was cut from —
//! in either executor, whichever one cut it.

use super::{spawn_worker, Backend, ControlPlane, GroupInfo, Retiring};
use crate::codec::columnar::{self, RawFrame, C_FLAGS, C_KEY};
use crate::codec::{CodecError, Dec, Enc};
use crate::shard::{ApplyScratch, Collect, ShardCheckpoint, ShardState, F_LEAVING};
use crate::CtrlError;
use std::collections::HashSet;
use std::sync::Arc;

/// Leads every image.
const MAGIC: [u8; 4] = *b"CDPI";

/// The image layout's version; any other is refused (`image.version`).
const VERSION: u8 = 1;

fn refused(field: &'static str) -> CtrlError {
    CtrlError::InvalidImage { field }
}

/// The header fields, in wire order.
struct Header {
    shards: u32,
    clock: u64,
    next_key: u64,
    next_group: u64,
    admitted: u64,
    rejected: u64,
    budget: f64,
    default_quota: f64,
    dedicated_envelope: f64,
    group_envelope: f64,
}

/// A parsed process image whose header agrees with its frames; what
/// [`ControlPlane::restore_image`] restores. Parsing checks the image on
/// its own; the restore checks it against the restoring plane.
pub struct PlaneImage<'a> {
    header: Header,
    /// Each shard's frame, raw and parsed.
    frames: Vec<(&'a [u8], RawFrame<'a>)>,
    /// Keys of the rows that are not leaving, ascending.
    live: Vec<u64>,
}

impl<'a> PlaneImage<'a> {
    /// Parses an image and checks its header against its frames.
    ///
    /// # Errors
    ///
    /// [`CtrlError::InvalidImage`] naming what is wrong: `image.magic`,
    /// `image.version` or `image.header` for a foreign or truncated
    /// header, `image.trailing` for bytes past the last frame, a frame's
    /// own `columnar.*` field for a malformed frame, `image.clock` for a
    /// frame at another tick, `image.key` / `image.group` for a key or
    /// group at or past the header's next one, and `image.keys` /
    /// `image.groups` for one live on two shards.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, CtrlError> {
        let mut d = Dec::new(bytes);
        let truncated = |_| refused("image.header");
        if d.bytes(4).map_err(truncated)? != MAGIC {
            return Err(refused("image.magic"));
        }
        if d.u8().map_err(truncated)? != VERSION {
            return Err(refused("image.version"));
        }
        let header = (|| {
            Ok::<_, CodecError>(Header {
                shards: d.u32()?,
                clock: d.u64()?,
                next_key: d.u64()?,
                next_group: d.u64()?,
                admitted: d.u64()?,
                rejected: d.u64()?,
                budget: d.f64()?,
                default_quota: d.f64()?,
                dedicated_envelope: d.f64()?,
                group_envelope: d.f64()?,
            })
        })()
        .map_err(truncated)?;
        let mut frames = Vec::new();
        let (mut keys, mut groups) = (HashSet::new(), HashSet::new());
        let mut live = Vec::new();
        for _ in 0..header.shards {
            let len = d.u32().map_err(|_| refused("image.header"))?;
            let raw = d.bytes(len as usize).map_err(|_| refused("image.header"))?;
            let frame = columnar::parse(raw).map_err(refused)?;
            if frame.ticks != header.clock {
                return Err(refused("image.clock"));
            }
            let (key_c, flags_c) = (
                frame.fixed(C_KEY).map_err(refused)?,
                frame.fixed(C_FLAGS).map_err(refused)?,
            );
            for r in 0..frame.rows as usize {
                let key = columnar::u64_at(key_c, r);
                if key >= header.next_key {
                    return Err(refused("image.key"));
                }
                if !keys.insert(key) {
                    return Err(refused("image.keys"));
                }
                if columnar::u64_at(flags_c, r) & u64::from(F_LEAVING) == 0 {
                    live.push(key);
                }
            }
            if frame.retired.iter().any(|m| m.session >= header.next_key) {
                return Err(refused("image.key"));
            }
            for g in &frame.groups {
                if g.group >= header.next_group {
                    return Err(refused("image.group"));
                }
                if !groups.insert(g.group) {
                    return Err(refused("image.groups"));
                }
            }
            frames.push((raw, frame));
        }
        if d.remaining() > 0 {
            return Err(refused("image.trailing"));
        }
        live.sort_unstable();
        Ok(PlaneImage {
            header,
            frames,
            live,
        })
    }

    /// Keys of the sessions a restore makes live, ascending: every row
    /// not leaving.
    pub fn live_keys(&self) -> &[u64] {
        &self.live
    }
}

impl ControlPlane {
    /// Cuts a process image onto the end of `out`: every shard's frame
    /// at the current tick and the driver state frames do not hold (see
    /// the module docs). Inline shards are encoded straight into `out`;
    /// threaded ones are asked over the snapshot's fan-out, after
    /// everything dispatched before the call, each writes a fresh buffer,
    /// not the retained frame's spare, and each is appended as soon as
    /// the shards before it are — so a cut holds the image and the frames
    /// that came in ahead of their turn, never a second copy of the
    /// image. Nothing is journaled or retained, so the plane runs on
    /// unchanged.
    ///
    /// # Errors
    ///
    /// [`CtrlError::ShardDown`] when a shard is down: its frame would not
    /// be at the plane's tick. `out` is then as it was.
    pub fn cut_image(&mut self, out: &mut Vec<u8>) -> Result<(), CtrlError> {
        let start = out.len();
        let shards = self.cfg.shards;
        let (admitted, rejected) = (self.admission.admitted(), self.admission.rejected());
        out.extend_from_slice(&MAGIC);
        let mut e = Enc::new(out);
        e.u8(VERSION);
        e.u32(shards as u32);
        e.u64(self.clock);
        e.u64(self.next_key);
        e.u64(self.next_group);
        e.u64(admitted);
        e.u64(rejected);
        e.f64(self.cfg.budget);
        e.f64(self.cfg.default_quota);
        e.f64(self.cfg.dedicated_envelope());
        e.f64(self.cfg.group_envelope());
        // Shards whose frames are in `out`, in shard order.
        let mut appended = 0;
        if let Backend::Inline(states) = &self.backend {
            let mut sink = columnar::ColumnSink::default();
            for state in states {
                // Exact growth: an amortised push would double the image.
                out.reserve_exact(4);
                let at = out.len();
                out.extend_from_slice(&[0; 4]);
                state.encode_columnar(&mut sink, out);
                let len = (out.len() - at - 4) as u32;
                out[at..at + 4].copy_from_slice(&len.to_le_bytes());
            }
            appended = shards;
        } else {
            let mut early: Vec<Option<Vec<u8>>> = vec![None; shards];
            self.collect(Collect::Image, |s, report| {
                early[s] = Some(report.image);
                while let Some(frame) = early.get_mut(appended).and_then(Option::take) {
                    out.reserve_exact(4 + frame.len());
                    out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
                    out.extend_from_slice(&frame);
                    appended += 1;
                }
            });
        }
        if let Some(s) = (0..shards).find(|&s| s >= appended || !self.sups[s].healthy) {
            out.truncate(start);
            return Err(self.down_error(s));
        }
        Ok(())
    }

    /// Restores a fresh plane from `image`: every shard is rebuilt from its
    /// frame, then placements, groups and admission are derived from the
    /// rows (see the module docs), and the clock and key counters are the
    /// image's. A threaded shard's worker is replaced by one running the
    /// rebuilt state, with the frame retained as its recovery base. Every
    /// check runs before anything changes, so a refused image leaves the
    /// plane fresh.
    ///
    /// # Errors
    ///
    /// [`CtrlError::InvalidImage`] with `image.fresh` when the plane has
    /// ticked, issued a key or group, or counted an admission, or has a
    /// shard down;
    /// `image.config` when the shard count, budget, default quota or an
    /// admission envelope differs from the image's; a frame's own
    /// `columnar.*` field when it does not apply under this plane's
    /// configuration.
    pub fn restore_image(&mut self, image: &PlaneImage<'_>) -> Result<(), CtrlError> {
        let fresh = self.clock == 0
            && self.next_key == 0
            && self.next_group == 0
            && self.sups.iter().all(|sup| sup.healthy)
            && self.admission.admitted() == 0
            && self.admission.rejected() == 0;
        if !fresh {
            return Err(refused("image.fresh"));
        }
        let h = &image.header;
        let cfg = &self.cfg;
        let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
        if h.shards as usize != cfg.shards
            || !same(h.budget, cfg.budget)
            || !same(h.default_quota, cfg.default_quota)
            || !same(h.dedicated_envelope, cfg.dedicated_envelope())
            || !same(h.group_envelope, cfg.group_envelope())
        {
            return Err(refused("image.config"));
        }
        // Every shard is rebuilt before any is touched.
        let mut scratch = ApplyScratch::default();
        let mut states = Vec::with_capacity(cfg.shards);
        for (s, (_, frame)) in image.frames.iter().enumerate() {
            let mut state = ShardState::new(s as u64, cfg);
            state.apply_frame(frame, &mut scratch).map_err(refused)?;
            states.push(state);
        }
        let (dedicated, pooled) = (cfg.dedicated_envelope(), cfg.group_envelope());
        // ---- mutate: nothing below can be refused ----
        self.mutated();
        {
            let admission = &mut self.admission;
            admission.restore_tallies(h.admitted, h.rejected);
            for (s, state) in states.iter().enumerate() {
                for (key, tenant, leaving, group) in state.rows() {
                    if leaving {
                        continue; // left: its placement and envelope are gone
                    }
                    let tenant = match group {
                        None => admission.restore_grant(tenant, dedicated),
                        Some(group) => {
                            let info = self.groups.entry(group).or_insert_with(|| GroupInfo {
                                tenant: admission.restore_grant(tenant, pooled),
                                live: 0,
                                envelope: pooled,
                            });
                            info.live += 1;
                            Arc::clone(&info.tenant)
                        }
                    };
                    self.placements.insert(key, s, &tenant, group);
                    self.sups[s].live += 1;
                }
            }
        }
        self.clock = h.clock;
        self.next_key = h.next_key;
        self.next_group = h.next_group;
        if let Backend::Inline(slots) = &mut self.backend {
            *slots = states;
        } else {
            let msgs = self
                .msgs
                .as_ref()
                .expect("threaded mode has a message channel");
            let msgs = msgs.0.clone();
            for (s, state) in states.into_iter().enumerate() {
                let _ = self.retire_worker(s, Retiring::Exiting);
                let sup = &mut self.sups[s];
                sup.epoch += 1;
                // The recovery base until the worker's first checkpoint.
                let raw = image.frames[s].0;
                sup.retain(ShardCheckpoint {
                    shard: s as u64,
                    epoch: sup.epoch,
                    events_applied: 0,
                    sessions: u64::from(image.frames[s].1.rows),
                    bytes: raw.to_vec(),
                });
                let fault = self.cfg.fault.filter(|plan| plan.shard == s);
                let spawned = spawn_worker(s, sup, state, &self.cfg, fault, &msgs);
                let Backend::Threaded { workers } = &mut self.backend else {
                    unreachable!("inline handled above")
                };
                match spawned {
                    Ok(worker) => workers[s] = Some(worker),
                    Err(err) => {
                        // Degrades like a failed spawn at start-up.
                        let sup = &mut self.sups[s];
                        sup.healthy = false;
                        sup.last_failure = Some(err.to_string());
                    }
                }
            }
        }
        self.sync_membership_gauges();
        Ok(())
    }
}
