//! cdba-gateway: a socket-facing network frontend for the control plane.
//!
//! The paper's premise is that bandwidth re-allocation is a costly
//! *control-plane* operation on a real network path — yet until this
//! crate, [`ControlPlane`](cdba_ctrl::ControlPlane) could only be driven
//! in-process. The gateway puts it behind TCP:
//!
//! - **Wire protocol** ([`proto`]): versioned, length-prefixed binary
//!   frames (magic + version handshake, request ids, typed error frames),
//!   following `cdba_traffic::codec` conventions. One version, one way to
//!   do each job: unacknowledged staging, count-gated tick commits, and
//!   snapshots in the binary codec ([`codec`]); JSON is only what a
//!   client renders locally ([`GatewaySnapshot::to_json_string`]).
//! - **Server** ([`server`]): one evented core thread over non-blocking
//!   `std::net` sockets — no async runtime, no worker pool. The core owns
//!   the listener, every connection, and the service state; requests
//!   dispatch inline and replies land in per-connection write buffers, so
//!   a request crosses zero threads and zero channels.
//! - **Determinism** (`service`, private): the single-threaded core
//!   commits arrivals staged by any number of connections in ascending
//!   session-key order, so a gateway run is bitwise-identical to the same
//!   workload driven in-process (compare
//!   [`ServiceSnapshot::invariant_view`](cdba_ctrl::ServiceSnapshot::invariant_view)).
//! - **Client** ([`client`]): a blocking client library used by the
//!   `cdba-cli gateway` / `cdba-cli client` subcommands to replay traces
//!   over the wire.
//! - **Observability** ([`stats`]): connections accepted/active/harvested,
//!   frames in/out, decode errors, busy rejections, snapshot counts, and p50/p99 request latency from a two-significant-digit
//!   histogram, carried next to the allocation snapshot in
//!   [`GatewaySnapshot`].
//!
//! # Example
//!
//! ```
//! use cdba_ctrl::{ExecMode, ServiceConfig};
//! use cdba_gateway::{client::Client, GatewayConfig, GatewayServer};
//!
//! let service = ServiceConfig::builder(256.0)
//!     .session_b_max(16.0)
//!     .offline_delay(4)
//!     .window(4)
//!     .exec(ExecMode::Inline)
//!     .build()
//!     .unwrap();
//! let server = GatewayServer::start(service, GatewayConfig::default()).unwrap();
//!
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let key = client.join("acme").unwrap();
//! for t in 0..8u64 {
//!     client.tick(&[(key, (t % 3) as f64)]).unwrap();
//! }
//! let snapshot = client.snapshot_bin().unwrap();
//! assert_eq!(snapshot.service.ticks, 8);
//! client.goodbye().unwrap();
//!
//! let last = server.shutdown().unwrap();
//! assert!(last.wire.frames_in >= 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod codec;
pub mod proto;
pub mod server;
mod service;
pub mod stats;

pub use client::{Client, ClientConfig, ClientError, TickEvent};
pub use proto::{ErrorCode, EventBody, Frame, ProtoError};
pub use server::{GatewayConfig, GatewayServer};
pub use stats::{LatencyBucket, WireSnapshot, WireStats};

use cdba_ctrl::ServiceSnapshot;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The full gateway snapshot: the control plane's allocation state plus
/// the wire-level counters.
///
/// Only `service` participates in determinism checks — compare
/// [`ServiceSnapshot::invariant_view`] across runs; `wire` depends on
/// connection count and timing by construction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GatewaySnapshot {
    /// The control plane's snapshot, identical in shape to what
    /// `ControlPlane::snapshot` returns in-process.
    pub service: ServiceSnapshot,
    /// Wire-level counters at the moment the snapshot was taken.
    pub wire: WireSnapshot,
}

impl GatewaySnapshot {
    /// The snapshot pretty-printed as JSON.
    ///
    /// # Errors
    ///
    /// Propagates `serde_json` rendering failures.
    pub fn to_json_string(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }
}

/// Anything [`GatewayServer`] can fail with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GatewayError {
    /// Socket or thread-spawn failure while starting.
    Io(String),
    /// The service loop failed (panicked, or could not snapshot).
    Service(String),
}

impl fmt::Display for GatewayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GatewayError::Io(e) => write!(f, "gateway i/o error: {e}"),
            GatewayError::Service(e) => write!(f, "gateway service error: {e}"),
        }
    }
}

impl std::error::Error for GatewayError {}
