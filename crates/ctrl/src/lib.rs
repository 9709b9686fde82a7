//! cdba-ctrl: a sharded multi-tenant allocation control plane.
//!
//! The algorithm crates answer "how should *one* session's bandwidth move?"
//! This crate runs *many* of them as a service, closing the loop the paper
//! leaves to the operator:
//!
//! - **Admission control** ([`admission`]): a join is admitted only if its
//!   worst-case allocation envelope — `B_A` for a dedicated session, the
//!   Theorem 14 bound `4·B_O` for a phased group — still fits under the
//!   aggregate budget and the tenant's quota. This is what makes the
//!   paper's "the link can always grant the allocation" assumption true.
//! - **Sharded execution** ([`service`], `shard`): sessions are placed
//!   on the least-loaded healthy worker shard (threads fed by bounded
//!   channels, or an inline single-threaded fallback) and driven
//!   tick-batched through the existing machines — [`SingleSession`]
//!   allocators for dedicated sessions, one [`SessionPool`] per pooled
//!   group.
//! - **Shard supervision** ([`service`], [`fault`]): workers run under
//!   `catch_unwind` and report typed failures; the driver restarts a
//!   failed shard from its last periodic checkpoint plus a bounded
//!   journal replay, surfaces `restarts` / `events_replayed` / per-shard
//!   health in the snapshot, and degrades to typed [`CtrlError::ShardDown`]
//!   errors instead of panicking when recovery is disabled or exhausted.
//!   A [`FaultPlan`] injects kills, hangs, and delays for testing.
//! - **Signalling-cost metering** ([`meter`]): every allocation change is
//!   charged under the §1 pricing (via [`cdba_analysis::cost`]) and each
//!   session's delay, peak allocation, and windowed utilization are tracked
//!   online.
//! - **Snapshots** ([`metrics`]): serde-JSON exports whose
//!   placement-invariant parts are *bitwise identical* across shard counts
//!   and execution modes — sessions never interact across shards, and
//!   global folds run in session-key order.
//!
//! [`SingleSession`]: cdba_core::single::SingleSession
//! [`SessionPool`]: cdba_core::multi::pool::SessionPool
//!
//! # Example
//!
//! ```
//! use cdba_ctrl::{ControlPlane, ExecMode, ServiceConfig};
//!
//! let cfg = ServiceConfig::builder(256.0)
//!     .session_b_max(16.0)
//!     .offline_delay(4)
//!     .window(4)
//!     .exec(ExecMode::Inline)
//!     .build()
//!     .unwrap();
//! let mut service = ControlPlane::new(cfg);
//! let a = service.admit("acme").unwrap();
//! let b = service.admit("globex").unwrap();
//! for t in 0..32u64 {
//!     service.tick(&[(a, (t % 3) as f64), (b, 1.0)]).unwrap();
//! }
//! let snapshot = service.snapshot().unwrap();
//! assert_eq!(snapshot.global.sessions, 2);
//! assert!(snapshot.global.changes > 0);
//! ```

#![forbid(unsafe_code)]

pub mod admission;
pub mod codec;
pub mod config;
pub mod fault;
pub mod meter;
pub mod metrics;
pub mod mirror;
pub(crate) mod obs;
pub mod service;
pub(crate) mod shard;
pub(crate) mod slab;

pub use admission::{AdmissionController, AdmissionError};
pub use config::{ExecMode, ServiceConfig, ServiceConfigBuilder};
pub use fault::{FaultKind, FaultPlan};
pub use meter::{SessionMetrics, SignallingMeter};
pub use metrics::{GlobalMetrics, ServiceSnapshot, ShardHealth, ShardMetrics, SnapshotCounters};
pub use mirror::{CheckpointMirror, CheckpointProbe};
pub use service::{ControlPlane, PlaneImage, RowCursor, SnapshotRows};

use std::fmt;

/// Anything the control plane can refuse to do.
#[derive(Debug, Clone, PartialEq)]
pub enum CtrlError {
    /// An algorithm-parameter constraint was violated (delegated to the
    /// core config builders).
    Config(cdba_core::config::ConfigError),
    /// Admission control turned a join down.
    Admission(AdmissionError),
    /// An operation named a session key that is not live.
    UnknownSession(u64),
    /// A service-level parameter or request was invalid.
    InvalidService(String),
    /// A shard worker failed and could not be recovered (its restart
    /// budget is exhausted, or recovery is disabled).
    ShardDown {
        /// The failed shard.
        shard: usize,
        /// The last failure reason the supervisor recorded.
        reason: String,
    },
    /// A shard worker thread could not be spawned. The shard degrades
    /// like any other shard fault: it is marked down and subsequent
    /// operations touching it report [`CtrlError::ShardDown`].
    Spawn {
        /// The shard whose worker failed to spawn.
        shard: usize,
        /// The operating-system error.
        reason: String,
    },
    /// A tick named a session with non-finite or negative arrival bits.
    InvalidArrival {
        /// The offending session key.
        session: u64,
        /// The rejected bit count.
        bits: f64,
    },
    /// A tick listed the same session key twice.
    DuplicateArrival(u64),
    /// A columnar frame — a migration blob, a mirrored or retained
    /// checkpoint — was refused by the frame validator before it reached
    /// a shard: it is malformed, not a lease where one was due, runs
    /// another configuration, holds a row the kernel could not hold, or
    /// carries a value outside its column's domain (a non-finite or
    /// negative float).
    InvalidCheckpoint {
        /// The first offending field.
        field: &'static str,
    },
    /// A process image was refused before the restoring plane changed:
    /// it is malformed, its header disagrees with its frames, or the
    /// plane is not fresh or runs another configuration (see
    /// [`ControlPlane::restore_image`]).
    InvalidImage {
        /// What was wrong: an `image.*` or `columnar.*` field.
        field: &'static str,
    },
}

/// The one arrival validator every kernel entry routes through: the bits
/// of an arrival must be finite and non-negative. The shard kernel
/// `debug_assert!`s this contract instead of clamping.
pub(crate) fn validate_arrival(session: u64, bits: f64) -> Result<(), CtrlError> {
    if bits.is_finite() && bits >= 0.0 {
        Ok(())
    } else {
        Err(CtrlError::InvalidArrival { session, bits })
    }
}

impl fmt::Display for CtrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtrlError::Config(e) => write!(f, "invalid algorithm configuration: {e}"),
            CtrlError::Admission(e) => write!(f, "admission rejected: {e}"),
            CtrlError::UnknownSession(key) => write!(f, "unknown session {key}"),
            CtrlError::InvalidService(msg) => write!(f, "invalid service request: {msg}"),
            CtrlError::ShardDown { shard, reason } => {
                write!(f, "shard {shard} is down: {reason}")
            }
            CtrlError::Spawn { shard, reason } => {
                write!(
                    f,
                    "shard {shard} worker thread could not be spawned: {reason}"
                )
            }
            CtrlError::InvalidArrival { session, bits } => {
                write!(f, "invalid arrival of {bits} bits for session {session}")
            }
            CtrlError::DuplicateArrival(key) => {
                write!(f, "session {key} listed twice in one tick")
            }
            CtrlError::InvalidCheckpoint { field } => {
                write!(f, "checkpoint frame refused: {field}")
            }
            CtrlError::InvalidImage { field } => write!(f, "process image refused: {field}"),
        }
    }
}

impl std::error::Error for CtrlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CtrlError::Config(e) => Some(e),
            CtrlError::Admission(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AdmissionError> for CtrlError {
    fn from(e: AdmissionError) -> Self {
        CtrlError::Admission(e)
    }
}

impl From<cdba_core::config::ConfigError> for CtrlError {
    fn from(e: cdba_core::config::ConfigError) -> Self {
        CtrlError::Config(e)
    }
}
