//! **cdba** — Competitive Dynamic Bandwidth Allocation.
//!
//! The facade crate: one dependency that re-exports the whole stack from
//! the reproduction of Bar-Noy, Mansour & Schieber, *Competitive Dynamic
//! Bandwidth Allocation* (PODC 1998).
//!
//! * [`traffic`] — traces, workload generators, adversaries, feasibility;
//! * [`sim`] — the tick engine, schedules, delay/utilization measurement;
//! * [`algorithms`] — the paper's four online algorithms;
//! * [`offline`] — clairvoyant comparators and classical baselines;
//! * [`analysis`] — cost accounting and competitive-ratio reports;
//! * [`ctrl`] — the sharded multi-tenant allocation service with
//!   admission control and signalling-cost metering;
//! * [`gateway`] — the TCP frontend for the control plane: wire protocol,
//!   threaded server, blocking client.
//!
//! The [`prelude`] pulls in the handful of names almost every program
//! needs.
//!
//! # Example
//!
//! ```
//! use cdba::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A bursty session, the paper's single-session algorithm, and the
//! // verified Theorem 6 envelope — in six lines.
//! let cfg = SingleConfig::builder(64.0)
//!     .offline_delay(8)
//!     .offline_utilization(0.3)
//!     .window(16)
//!     .build()?;
//! let trace = Trace::new(vec![40.0, 0.0, 0.0, 10.0, 0.0, 0.0, 0.0, 0.0])?;
//! let mut alg = SingleSession::new(cfg.clone());
//! let run = simulate(&trace, &mut alg, DrainPolicy::DrainToEmpty)?;
//! let verdict = verify_single(&trace, &run, &cfg.promised_bounds());
//! assert!(verdict.delay_ok && verdict.bandwidth_ok);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Traffic traces, generators, adversaries, and feasibility conditioning
/// (re-export of `cdba-traffic`).
pub mod traffic {
    pub use cdba_traffic::*;
}

/// The simulation substrate: engine, schedules, measures, verifiers
/// (re-export of `cdba-sim`).
pub mod sim {
    pub use cdba_sim::*;
}

/// The paper's online algorithms (re-export of `cdba-core`).
pub mod algorithms {
    pub use cdba_core::*;
}

/// Clairvoyant comparators and baselines (re-export of `cdba-offline`).
pub mod offline {
    pub use cdba_offline::*;
}

/// Cost accounting and competitive-ratio reporting (re-export of
/// `cdba-analysis`).
pub mod analysis {
    pub use cdba_analysis::*;
}

/// The sharded multi-tenant allocation service: admission control,
/// tick-batched execution, signalling-cost metering (re-export of
/// `cdba-ctrl`).
pub mod ctrl {
    pub use cdba_ctrl::*;
}

/// The socket-facing frontend for the control plane: versioned wire
/// protocol, threaded TCP server, and blocking client (re-export of
/// `cdba-gateway`).
pub mod gateway {
    pub use cdba_gateway::*;
}

/// The names almost every `cdba` program needs.
pub mod prelude {
    pub use cdba_analysis::cost::CostModel;
    pub use cdba_core::combined::Combined;
    pub use cdba_core::config::{CombinedConfig, InnerMulti, MultiConfig, SingleConfig};
    pub use cdba_core::multi::{Continuous, Phased};
    pub use cdba_core::single::{LookbackSingle, SingleSession};
    pub use cdba_ctrl::{ControlPlane, ExecMode, FaultPlan, ServiceConfig, ServiceSnapshot};
    pub use cdba_gateway::{Client, GatewayConfig, GatewayServer, GatewaySnapshot};
    pub use cdba_sim::engine::{simulate, simulate_multi, DrainPolicy};
    pub use cdba_sim::verify::{verify_multi, verify_single};
    pub use cdba_sim::{Allocator, MultiAllocator, Schedule};
    pub use cdba_traffic::{conditioner, models, MultiTrace, Trace};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_covers_the_full_single_flow() {
        let cfg = SingleConfig::builder(16.0)
            .offline_delay(2)
            .offline_utilization(0.5)
            .window(4)
            .build()
            .unwrap();
        let trace = Trace::new(vec![8.0, 0.0, 2.0, 0.0]).unwrap();
        let mut alg = SingleSession::new(cfg.clone());
        let run = simulate(&trace, &mut alg, DrainPolicy::DrainToEmpty).unwrap();
        let verdict = verify_single(&trace, &run, &cfg.promised_bounds());
        assert!(verdict.delay_ok);
    }

    #[test]
    fn prelude_covers_the_control_plane_flow() {
        let cfg = ServiceConfig::builder(64.0)
            .session_b_max(16.0)
            .offline_delay(4)
            .window(4)
            .cost(CostModel::with_change_price(2.0))
            .exec(ExecMode::Inline)
            .build()
            .unwrap();
        let mut service = ControlPlane::new(cfg);
        let key = service.admit("tenant").unwrap();
        for _ in 0..8 {
            service.tick(&[(key, 2.0)]).unwrap();
        }
        let snapshot: ServiceSnapshot = service.snapshot().unwrap();
        assert_eq!(snapshot.global.sessions, 1);
        assert!(snapshot.global.signalling_cost > 0.0);
    }

    #[test]
    fn prelude_covers_the_gateway_flow() {
        let cfg = ServiceConfig::builder(64.0)
            .session_b_max(16.0)
            .offline_delay(4)
            .window(4)
            .exec(ExecMode::Inline)
            .build()
            .unwrap();
        let server = GatewayServer::start(cfg, GatewayConfig::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let key = client.join("tenant").unwrap();
        client.tick(&[(key, 2.0)]).unwrap();
        let snapshot: GatewaySnapshot = client.snapshot_bin().unwrap();
        assert_eq!(snapshot.service.ticks, 1);
        client.goodbye().unwrap();
        server.shutdown().unwrap();
    }

    #[test]
    fn prelude_covers_the_full_multi_flow() {
        let cfg = MultiConfig::new(2, 8.0, 2).unwrap();
        let input = MultiTrace::new(vec![
            Trace::new(vec![2.0, 2.0, 2.0, 0.0]).unwrap(),
            Trace::new(vec![0.0, 4.0, 0.0, 0.0]).unwrap(),
        ])
        .unwrap();
        let bounds = cfg.phased_bounds();
        let mut alg = Phased::new(cfg);
        let run = simulate_multi(&input, &mut alg, DrainPolicy::DrainToEmpty).unwrap();
        let verdict = verify_multi(&input, &run, &bounds);
        assert!(verdict.all_ok(), "{verdict:?}");
    }
}
