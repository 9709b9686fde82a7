//! Dynamic session pool: the paper's multi-session algorithm extended to
//! sessions that **join and leave** mid-run.
//!
//! The paper's model has "sessions join the network with a certain delay
//! requirement" but analyzes a fixed set of `k` sessions; this module is
//! the natural extension (documented in DESIGN.md as ours, not the
//! paper's): the phased algorithm of §3.1 runs over the current membership,
//! and every membership change triggers a RESET with the new quantum
//! `B_O/k'`. A membership change also forces any offline algorithm to
//! re-plan (it must start/stop allocating to the affected session), so each
//! one is a sound certificate boundary like a stage end.
//!
//! A leaving session's residual backlog is moved to its overflow queue
//! (sized to drain within `D_O`) and the slot is retired once empty, so no
//! bits are lost and the departure cannot violate other sessions' delay.

use crate::config::MultiConfig;
use crate::stage::{StageKind, StageLog};
use cdba_sim::BitQueue;
use cdba_traffic::EPS;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Opaque session identifier issued by [`SessionPool::join`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(u64);

impl SessionId {
    /// The raw numeric id — for serialization (checkpoints) only; ids stay
    /// opaque everywhere else.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds an id from its raw value. Only meaningful with values that
    /// came out of [`SessionId::raw`] for the same pool.
    pub fn from_raw(raw: u64) -> Self {
        SessionId(raw)
    }
}

/// Error returned by pool operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// The session id is unknown or already retired.
    UnknownSession(SessionId),
    /// Arrivals were submitted for a session that is draining out.
    SessionLeaving(SessionId),
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::UnknownSession(id) => write!(f, "unknown session {id:?}"),
            PoolError::SessionLeaving(id) => write!(f, "session {id:?} is leaving"),
        }
    }
}

impl std::error::Error for PoolError {}

#[derive(Debug)]
struct Slot {
    id: SessionId,
    br: f64,
    bo: f64,
    qr: BitQueue,
    qo: BitQueue,
    leaving: bool,
}

/// A restorable snapshot of one pool slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotCheckpoint {
    /// Raw session id ([`SessionId::raw`]).
    pub id: u64,
    /// Regular-channel bandwidth.
    pub br: f64,
    /// Overflow-channel bandwidth.
    pub bo: f64,
    /// Regular-queue backlog in bits.
    pub qr_backlog: f64,
    /// Overflow-queue backlog in bits.
    pub qo_backlog: f64,
    /// `true` if the session is draining out.
    pub leaving: bool,
}

/// A complete, restorable snapshot of a [`SessionPool`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoolCheckpoint {
    /// The pool configuration.
    pub cfg: MultiConfig,
    /// Per-slot state, in slot order (slot order is part of the state:
    /// allocations are reported in it).
    pub slots: Vec<SlotCheckpoint>,
    /// Arrivals submitted but not yet ticked, as `(slot index, bits)`.
    pub pending: Vec<(usize, f64)>,
    /// Next id to issue.
    pub next_id: u64,
    /// Ticks processed so far.
    pub tick: usize,
    /// Tick the current phase schedule is anchored at.
    pub phase_anchor: usize,
    /// The stage log.
    pub stages: StageLog,
    /// Membership changes so far.
    pub membership_changes: usize,
}

/// A phased multi-session allocator over a dynamic session set.
///
/// Drive it manually (it cannot implement
/// [`cdba_sim::MultiAllocator`], whose arity is fixed): call
/// [`SessionPool::submit`] for each session's arrivals, then
/// [`SessionPool::tick`] once per time step; the returned allocation pairs
/// follow the §3.1 discipline with `k` = the current active membership.
///
/// # Example
///
/// ```
/// use cdba_core::multi::pool::SessionPool;
/// use cdba_core::config::MultiConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut pool = SessionPool::new(MultiConfig::new(2, 8.0, 4)?);
/// let a = pool.join();
/// let b = pool.join();
/// pool.submit(a, 3.0)?;
/// pool.submit(b, 1.0)?;
/// let allocs = pool.tick();
/// assert_eq!(allocs.len(), 2);
/// pool.leave(b)?;             // b's backlog drains, then the slot retires
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SessionPool {
    cfg: MultiConfig,
    slots: Vec<Slot>,
    pending: Vec<(usize, f64)>, // (slot index, arrivals) for this tick
    next_id: u64,
    tick: usize,
    phase_anchor: usize,
    stages: StageLog,
    membership_changes: usize,
}

impl SessionPool {
    /// Creates an empty pool. `cfg.k` is only the *initial sizing hint*;
    /// the quantum always follows the live membership. `cfg.b_o` and
    /// `cfg.d_o` are the offline budget and the phase length as in §3.1.
    pub fn new(cfg: MultiConfig) -> Self {
        let mut stages = StageLog::new();
        stages.open(0);
        SessionPool {
            cfg,
            slots: Vec::new(),
            pending: Vec::new(),
            next_id: 0,
            tick: 0,
            phase_anchor: 0,
            stages,
            membership_changes: 0,
        }
    }

    /// Number of sessions currently served (including draining ones).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` if no session is currently served.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of *active* (not leaving) sessions — the `k` of the inner
    /// algorithm.
    pub fn active(&self) -> usize {
        self.slots.iter().filter(|s| !s.leaving).count()
    }

    /// The stage log: stage ends and membership changes are certificate
    /// boundaries.
    pub fn stage_log(&self) -> &StageLog {
        &self.stages
    }

    /// Drops the stage log's closed records, keeping their count
    /// ([`StageLog::forget_closed`]): a pool that runs indefinitely calls
    /// this so its log does not grow with uptime.
    pub fn forget_closed_stages(&mut self) {
        self.stages.forget_closed();
    }

    /// Membership changes (joins + leaves) so far.
    pub fn membership_changes(&self) -> usize {
        self.membership_changes
    }

    /// Admits a new session and re-plans (RESET with the new quantum).
    pub fn join(&mut self) -> SessionId {
        let id = SessionId(self.next_id);
        self.next_id += 1;
        self.slots.push(Slot {
            id,
            br: 0.0,
            bo: 0.0,
            qr: BitQueue::new(),
            qo: BitQueue::new(),
            leaving: false,
        });
        self.membership_changes += 1;
        self.reset();
        id
    }

    /// Marks a session as leaving: it accepts no further arrivals, its
    /// residual backlog drains through the overflow channel, and the slot
    /// retires once empty. Re-plans for the reduced membership.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::UnknownSession`] for ids not in the pool and
    /// [`PoolError::SessionLeaving`] if called twice.
    pub fn leave(&mut self, id: SessionId) -> Result<(), PoolError> {
        let slot = self
            .slots
            .iter_mut()
            .find(|s| s.id == id)
            .ok_or(PoolError::UnknownSession(id))?;
        if slot.leaving {
            return Err(PoolError::SessionLeaving(id));
        }
        slot.leaving = true;
        // Residual bits all go to the overflow queue, drained within D_O.
        let residual = slot.qr.drain_all();
        slot.qo.inject(residual);
        slot.bo = slot.qo.backlog() / self.cfg.d_o as f64;
        slot.br = 0.0;
        self.membership_changes += 1;
        self.reset();
        Ok(())
    }

    /// Queues `arrivals` bits for session `id` for the upcoming
    /// [`SessionPool::tick`].
    ///
    /// # Errors
    ///
    /// Returns [`PoolError::UnknownSession`] / [`PoolError::SessionLeaving`]
    /// as appropriate.
    pub fn submit(&mut self, id: SessionId, arrivals: f64) -> Result<(), PoolError> {
        let idx = self
            .slots
            .iter()
            .position(|s| s.id == id)
            .ok_or(PoolError::UnknownSession(id))?;
        if self.slots[idx].leaving {
            return Err(PoolError::SessionLeaving(id));
        }
        self.pending.push((idx, arrivals.max(0.0)));
        Ok(())
    }

    /// Advances one time step: runs the §3.1 phase logic if a phase boundary
    /// is due, serves every queue, retires drained leavers, and returns the
    /// per-session allocations for this tick.
    pub fn tick(&mut self) -> Vec<(SessionId, f64)> {
        if self.tick > self.phase_anchor
            && (self.tick - self.phase_anchor).is_multiple_of(self.cfg.d_o)
        {
            self.run_phase();
        }
        // Deliver pending arrivals.
        let pending = std::mem::take(&mut self.pending);
        for (idx, bits) in pending {
            self.slots[idx].qr.inject(bits);
        }
        // Serve.
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in &mut self.slots {
            slot.qo.tick(0.0, slot.bo);
            slot.qr.tick(0.0, slot.br);
            out.push((slot.id, slot.br + slot.bo));
        }
        // Retire drained leavers (their allocation drops to zero next tick).
        self.slots
            .retain(|s| !(s.leaving && s.qr.is_empty() && s.qo.is_empty()));
        self.tick += 1;
        out
    }

    /// Exports a complete snapshot of the pool; feeding identical
    /// submit/tick/join/leave sequences to the original and to
    /// [`SessionPool::restore`]'s result produces bitwise-identical
    /// allocations and ids.
    pub fn checkpoint(&self) -> PoolCheckpoint {
        PoolCheckpoint {
            cfg: self.cfg.clone(),
            slots: self
                .slots
                .iter()
                .map(|s| SlotCheckpoint {
                    id: s.id.raw(),
                    br: s.br,
                    bo: s.bo,
                    qr_backlog: s.qr.backlog(),
                    qo_backlog: s.qo.backlog(),
                    leaving: s.leaving,
                })
                .collect(),
            pending: self.pending.clone(),
            next_id: self.next_id,
            tick: self.tick,
            phase_anchor: self.phase_anchor,
            stages: self.stages.clone(),
            membership_changes: self.membership_changes,
        }
    }

    /// Rebuilds a pool from a checkpoint, bitwise.
    pub fn restore(cp: &PoolCheckpoint) -> Self {
        let slots = cp
            .slots
            .iter()
            .map(|s| {
                let mut qr = BitQueue::new();
                qr.inject(s.qr_backlog);
                let mut qo = BitQueue::new();
                qo.inject(s.qo_backlog);
                Slot {
                    id: SessionId::from_raw(s.id),
                    br: s.br,
                    bo: s.bo,
                    qr,
                    qo,
                    leaving: s.leaving,
                }
            })
            .collect();
        SessionPool {
            cfg: cp.cfg.clone(),
            slots,
            pending: cp.pending.clone(),
            next_id: cp.next_id,
            tick: cp.tick,
            phase_anchor: cp.phase_anchor,
            stages: cp.stages.clone(),
            membership_changes: cp.membership_changes,
        }
    }

    fn quantum(&self) -> f64 {
        let k = self.active().max(1);
        self.cfg.b_o / k as f64
    }

    fn reset(&mut self) {
        let quantum = self.quantum();
        let d_o = self.cfg.d_o as f64;
        for slot in &mut self.slots {
            if slot.leaving {
                continue;
            }
            let spill = slot.qr.drain_all();
            slot.qo.inject(spill);
            slot.bo = slot.qo.backlog() / d_o;
            slot.br = quantum;
        }
        if !self.stages.is_empty() {
            self.stages.close(self.tick, StageKind::RegularOverflow);
        }
        self.stages.open(self.tick);
        self.phase_anchor = self.tick;
    }

    fn run_phase(&mut self) {
        let quantum = self.quantum();
        let d_o = self.cfg.d_o as f64;
        for slot in &mut self.slots {
            if slot.leaving {
                continue;
            }
            if slot.qr.backlog() <= slot.br * d_o + EPS {
                slot.bo = 0.0;
            } else {
                slot.br += quantum;
                let spill = slot.qr.drain_all();
                slot.qo.inject(spill);
                slot.bo = slot.qo.backlog() / d_o;
            }
        }
        let total_regular: f64 = self.slots.iter().map(|s| s.br).sum();
        if total_regular > 2.0 * self.cfg.b_o + EPS {
            for slot in &mut self.slots {
                let spill = slot.qr.drain_all();
                slot.qo.inject(spill);
                slot.bo = slot.qo.backlog() / d_o;
            }
            self.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> SessionPool {
        SessionPool::new(MultiConfig::new(2, 8.0, 4).unwrap())
    }

    #[test]
    fn join_sets_quantum_by_membership() {
        let mut p = pool();
        let _a = p.join();
        assert_eq!(p.active(), 1);
        let allocs = p.tick();
        assert_eq!(allocs.len(), 1);
        assert!((allocs[0].1 - 8.0).abs() < 1e-9, "sole session gets B_O");
        let _b = p.join();
        let allocs = p.tick();
        assert!((allocs[0].1 - 4.0).abs() < 1e-9, "quantum halves at k=2");
        assert!((allocs[1].1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn leaver_drains_and_retires() {
        let mut p = pool();
        let a = p.join();
        let b = p.join();
        p.submit(b, 20.0).unwrap();
        p.tick();
        p.leave(b).unwrap();
        assert_eq!(p.active(), 1);
        assert_eq!(p.len(), 2, "leaver still draining");
        // Within D_O ticks the residual 16 bits drain and the slot retires.
        for _ in 0..5 {
            p.tick();
        }
        assert_eq!(p.len(), 1);
        // The remaining session owns the full budget again.
        p.submit(a, 1.0).unwrap();
        let allocs = p.tick();
        assert!((allocs[0].1 - 8.0).abs() < 1e-9);
    }

    #[test]
    fn submit_to_leaver_is_rejected() {
        let mut p = pool();
        let a = p.join();
        p.leave(a).unwrap();
        assert_eq!(p.submit(a, 1.0), Err(PoolError::SessionLeaving(a)));
        assert_eq!(p.leave(a), Err(PoolError::SessionLeaving(a)));
        let ghost = SessionId(99);
        assert_eq!(p.submit(ghost, 1.0), Err(PoolError::UnknownSession(ghost)));
    }

    #[test]
    fn membership_changes_are_certificate_boundaries() {
        let mut p = pool();
        let a = p.join();
        let b = p.join();
        for _ in 0..10 {
            p.submit(a, 1.0).unwrap();
            p.submit(b, 1.0).unwrap();
            p.tick();
        }
        let before = p.stage_log().completed();
        let c = p.join();
        assert_eq!(p.stage_log().completed(), before + 1);
        p.leave(c).unwrap();
        assert_eq!(p.stage_log().completed(), before + 2);
        assert_eq!(p.membership_changes(), 4);
    }

    #[test]
    fn delay_stays_bounded_through_churn() {
        // One stable heavy session; others churn around it. The stable
        // session's bits must never wait beyond 2·D_O.
        let mut p = SessionPool::new(MultiConfig::new(2, 16.0, 4).unwrap());
        let stable = p.join();
        let mut arrived = 0.0f64;
        let mut served = 0.0f64;
        let mut worst_lag = 0.0f64;
        let mut churn: Option<SessionId> = None;
        for t in 0..200 {
            if t % 20 == 0 {
                if let Some(id) = churn.take() {
                    let _ = p.leave(id);
                } else {
                    churn = Some(p.join());
                }
            }
            p.submit(stable, 6.0).unwrap();
            arrived += 6.0;
            if let Some(id) = churn {
                let _ = p.submit(id, 2.0);
            }
            for (id, alloc) in p.tick() {
                if id == stable {
                    served += alloc.min(arrived - served);
                }
            }
            // Bits older than 2·D_O ticks must be gone: compare served with
            // arrivals 8 ticks ago.
            let due = 6.0 * (t as f64 - 8.0).max(0.0);
            worst_lag = worst_lag.max(due - served);
        }
        assert!(
            worst_lag <= EPS,
            "stable session lagged by {worst_lag} bits"
        );
    }

    #[test]
    fn checkpoint_restore_is_bitwise_under_churn() {
        let mut p = SessionPool::new(MultiConfig::new(2, 16.0, 4).unwrap());
        let a = p.join();
        let b = p.join();
        for t in 0..13 {
            p.submit(a, (t % 5) as f64).unwrap();
            p.submit(b, 2.5).unwrap();
            p.tick();
        }
        p.leave(b).unwrap();
        let cp = p.checkpoint();
        let mut twin = SessionPool::restore(&cp);
        assert_eq!(twin.checkpoint(), cp, "restore not idempotent");
        // Continue both in lockstep through more churn.
        let c = p.join();
        let c2 = twin.join();
        assert_eq!(c, c2, "restored pool must issue the same ids");
        for t in 0..20 {
            p.submit(a, 1.0 + t as f64).unwrap();
            twin.submit(a, 1.0 + t as f64).unwrap();
            p.submit(c, 3.0).unwrap();
            twin.submit(c, 3.0).unwrap();
            let x = p.tick();
            let y = twin.tick();
            assert_eq!(x.len(), y.len());
            for ((id1, a1), (id2, a2)) in x.iter().zip(&y) {
                assert_eq!(id1, id2);
                assert_eq!(a1.to_bits(), a2.to_bits(), "divergence at tick {t}");
            }
        }
        assert_eq!(p.stage_log(), twin.stage_log());
        assert_eq!(p.membership_changes(), twin.membership_changes());
    }

    #[test]
    fn session_id_raw_roundtrip() {
        let mut p = pool();
        let a = p.join();
        assert_eq!(SessionId::from_raw(a.raw()), a);
    }

    #[test]
    fn empty_pool_ticks_are_noops() {
        let mut p = pool();
        assert!(p.is_empty());
        assert!(p.tick().is_empty());
        assert_eq!(p.active(), 0);
    }
}
