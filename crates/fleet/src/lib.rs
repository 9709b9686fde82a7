#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Multi-process fleet orchestration for cdba.
//!
//! A [`Fleet`] spawns M control-plane worker processes (`cdba-cli
//! gateway` children, each a full wire-protocol server wrapping its own
//! [`ControlPlane`](cdba_ctrl::ControlPlane)) behind N relay frontends
//! (`cdba-cli relay` children shuttling bytes on loopback), places
//! sessions across them with a pluggable [`Placement`] policy, and
//! live-migrates sessions between processes over the gateway's lease
//! frames — quiesce, checkpoint the session row through the binary codec,
//! transfer, resume at a bumped lease epoch.
//!
//! # Determinism
//!
//! The fleet allocates *global* session keys in admission order —
//! exactly the keys a single in-process run of the same trace would
//! assign — and per-session dynamics are placement-invariant, so
//! [`Fleet::snapshot`] assembles a
//! [`ServiceSnapshot`](cdba_ctrl::ServiceSnapshot) whose
//! [`invariant_view`](cdba_ctrl::ServiceSnapshot::invariant_view) is
//! bitwise-identical to the single-process run: under any placement
//! policy, any process count, across live migrations, and across
//! crash-recovery respawns (a lost process is restored from its latest
//! process image and replayed the ops journaled since, at most
//! [`IMAGE_EVERY`] ticks' worth).
//!
//! Migration is not free: every hop is metered through
//! [`cdba_analysis::cost::CostModel`] as one signalling change, in the
//! spirit of the paper's §1 accounting — the fleet reports the total in
//! its [`FleetSummary`], keeping rebalancing an explicitly billed
//! operation rather than a free action.

use std::fmt;

mod fleet;
mod placement;

pub use fleet::{Fleet, FleetConfig, FleetSummary, IMAGE_EVERY};
pub use placement::{LeastLoaded, Placement};

/// Everything that can go wrong driving a fleet.
#[derive(Debug)]
pub enum FleetError {
    /// The fleet configuration is unusable.
    Config(String),
    /// A child process could not be spawned or its listen address read.
    Spawn {
        /// Process index (or relay index for relay children).
        proc: usize,
        /// What failed.
        reason: String,
    },
    /// A wire operation against a process failed even after recovery.
    Wire {
        /// The process the operation targeted.
        proc: usize,
        /// The client error.
        reason: String,
    },
    /// A process died and could not be respawned and replayed.
    ProcLost {
        /// The lost process.
        proc: usize,
        /// Why recovery failed.
        reason: String,
    },
    /// A live migration failed at the grant step (e.g. the target died
    /// mid-migration); the lease was returned to the source process, so
    /// the session keeps running there and the budget is conserved.
    MigrationFailed {
        /// The session that stayed put.
        key: u64,
        /// The source process still holding the session.
        from: usize,
        /// The target that refused (or vanished).
        to: usize,
        /// The underlying failure.
        reason: String,
    },
    /// The named session is not live in the fleet.
    UnknownSession(u64),
    /// The session cannot migrate (pooled members move only with their
    /// whole group, which the fleet does not split across processes).
    NotMigratable(u64),
    /// No eligible process to place on (all draining or lost).
    NoCapacity,
    /// The placement policy declined to pick a process — it returned no
    /// index (or one out of range) for a non-empty candidate list. Keeps
    /// a misbehaving policy a typed error instead of a panic or a
    /// silently clamped pick.
    NoHealthyProcess,
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Config(msg) => write!(f, "fleet config: {msg}"),
            FleetError::Spawn { proc, reason } => {
                write!(f, "spawning process {proc}: {reason}")
            }
            FleetError::Wire { proc, reason } => {
                write!(f, "wire operation against process {proc}: {reason}")
            }
            FleetError::ProcLost { proc, reason } => {
                write!(f, "process {proc} lost: {reason}")
            }
            FleetError::MigrationFailed {
                key,
                from,
                to,
                reason,
            } => write!(
                f,
                "migrating session {key} from process {from} to {to} failed \
                 (lease returned to {from}): {reason}"
            ),
            FleetError::UnknownSession(key) => write!(f, "unknown session {key}"),
            FleetError::NotMigratable(key) => {
                write!(f, "session {key} is pooled and cannot migrate alone")
            }
            FleetError::NoCapacity => write!(f, "no eligible process to place on"),
            FleetError::NoHealthyProcess => {
                write!(f, "placement policy produced no usable process")
            }
        }
    }
}

impl std::error::Error for FleetError {}
