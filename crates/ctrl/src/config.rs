//! Validated control-plane configuration.
//!
//! Follows the repo's `C-VALIDATE` convention: every parameter is checked
//! once, in [`ServiceConfigBuilder::build`], so the executor never
//! re-validates. The per-session parameters are exactly the paper's —
//! dedicated sessions run the §2 single-session algorithm under
//! `(B_A, D_O, U_O, W)`, pooled groups run the §3.1 phased algorithm under
//! `(B_O, D_O)` — and the admission envelopes are the theorems' bandwidth
//! bounds for those configurations.

use crate::fault::FaultPlan;
use crate::CtrlError;
use cdba_core::config::{MultiConfig, SingleConfig};
use cdba_core::cost::CostModel;

/// How the shard executor runs. Shards are the one unit of parallelism:
/// sessions never interact outside a pooled group, and a group lives on
/// one shard, so a shard's sweep is sequential and the threaded backend
/// runs the shards side by side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// All shards execute on the calling thread, in shard order — the
    /// deterministic fallback. Results are identical to [`ExecMode::Threaded`]
    /// (sessions never interact across shards), so this mode exists to make
    /// that claim cheap to check and to debug without thread interleaving.
    Inline,
    /// One worker thread per shard, fed over an unbounded event queue.
    Threaded,
}

/// Full configuration of a [`crate::service::ControlPlane`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Aggregate bandwidth budget `B_A` admission is held to.
    pub budget: f64,
    /// Default per-tenant quota (overridable per tenant).
    pub default_quota: f64,
    /// Per-dedicated-session maximum bandwidth (a power of two).
    pub session_b_max: f64,
    /// Per-group offline budget `B_O` for pooled sessions.
    pub group_b_o: f64,
    /// Offline delay bound `D_O` in ticks.
    pub d_o: usize,
    /// Offline utilization bound `U_O ∈ (0, 1]`.
    pub u_o: f64,
    /// Utilization window `W ≥ D_O` in ticks (also the meter's window).
    pub w: usize,
    /// Number of worker shards (≥ 1).
    pub shards: usize,
    /// Prices for bandwidth and signalling.
    pub cost: CostModel,
    /// Execution backend.
    pub exec: ExecMode,
    /// Ticks between periodic shard checkpoints (threaded mode; ≥ 1): a
    /// failed shard restarts from its last one.
    pub checkpoint_every: u64,
    /// How many times the supervisor restarts one shard before declaring
    /// it permanently down.
    pub max_restarts: u32,
    /// How long the driver waits on an unresponsive shard (a full event
    /// queue, a missing tick ack, or a missing snapshot reply) before
    /// restarting it.
    pub shard_timeout_ms: u64,
    /// How many ticks the driver may dispatch to a shard beyond the last
    /// one the shard acknowledged (threaded mode). Depth 1 waits for every
    /// tick before dispatching the next; deeper pipelines overlap tick
    /// `N+1`'s dispatch with tick `N`'s execution. Must be ≥ 1.
    pub pipeline_depth: u32,
    /// An injected fault for the supervision test harness; `None` in
    /// production. Threaded mode only.
    pub fault: Option<FaultPlan>,
}

impl ServiceConfig {
    /// Starts building a configuration with aggregate budget `budget`.
    pub fn builder(budget: f64) -> ServiceConfigBuilder {
        ServiceConfigBuilder {
            budget,
            default_quota: budget,
            session_b_max: 16.0,
            group_b_o: 8.0,
            d_o: 8,
            u_o: 0.5,
            w: 16,
            shards: 1,
            cost: CostModel::with_change_price(1.0),
            exec: ExecMode::Threaded,
            checkpoint_every: 64,
            max_restarts: 3,
            shard_timeout_ms: 2000,
            pipeline_depth: 4,
            kernel_threads: 1,
            fault: None,
        }
    }

    /// The admission envelope of one dedicated session: its `B_A`.
    pub fn dedicated_envelope(&self) -> f64 {
        self.session_b_max
    }

    /// The admission envelope of one pooled group: the phased algorithm's
    /// `4·B_O` total-bandwidth bound (Theorem 14).
    pub fn group_envelope(&self) -> f64 {
        4.0 * self.group_b_o
    }

    /// The validated single-session configuration dedicated sessions run.
    pub fn single_config(&self) -> SingleConfig {
        SingleConfig::builder(self.session_b_max)
            .offline_delay(self.d_o)
            .offline_utilization(self.u_o)
            .window(self.w)
            .build()
            .expect("validated at ServiceConfig construction")
    }

    /// The validated multi-session configuration pooled groups run.
    pub fn multi_config(&self) -> MultiConfig {
        MultiConfig::new(2, self.group_b_o, self.d_o)
            .expect("validated at ServiceConfig construction")
    }
}

/// Builder for [`ServiceConfig`].
#[derive(Debug, Clone)]
pub struct ServiceConfigBuilder {
    budget: f64,
    default_quota: f64,
    session_b_max: f64,
    group_b_o: f64,
    d_o: usize,
    u_o: f64,
    w: usize,
    shards: usize,
    cost: CostModel,
    exec: ExecMode,
    checkpoint_every: u64,
    max_restarts: u32,
    shard_timeout_ms: u64,
    pipeline_depth: u32,
    kernel_threads: usize,
    fault: Option<FaultPlan>,
}

impl ServiceConfigBuilder {
    /// Sets the default per-tenant quota. Defaults to the full budget.
    pub fn default_quota(mut self, quota: f64) -> Self {
        self.default_quota = quota;
        self
    }

    /// Sets the per-dedicated-session `B_A` (a power of two). Default 16.
    pub fn session_b_max(mut self, b: f64) -> Self {
        self.session_b_max = b;
        self
    }

    /// Sets the per-group `B_O`. Default 8.
    pub fn group_b_o(mut self, b: f64) -> Self {
        self.group_b_o = b;
        self
    }

    /// Sets the offline delay bound `D_O` (ticks). Default 8.
    pub fn offline_delay(mut self, d_o: usize) -> Self {
        self.d_o = d_o;
        self
    }

    /// Sets the offline utilization bound `U_O`. Default 0.5.
    pub fn offline_utilization(mut self, u_o: f64) -> Self {
        self.u_o = u_o;
        self
    }

    /// Sets the utilization window `W` (ticks). Default 16.
    pub fn window(mut self, w: usize) -> Self {
        self.w = w;
        self
    }

    /// Sets the shard count. Default 1.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the cost model. Default: unit bandwidth price, change price 1.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the execution backend. Default [`ExecMode::Threaded`].
    pub fn exec(mut self, exec: ExecMode) -> Self {
        self.exec = exec;
        self
    }

    /// Sets the shard checkpoint period in ticks (≥ 1). Default 64.
    pub fn checkpoint_every(mut self, ticks: u64) -> Self {
        self.checkpoint_every = ticks;
        self
    }

    /// Sets the per-shard restart budget. Default 3.
    pub fn max_restarts(mut self, restarts: u32) -> Self {
        self.max_restarts = restarts;
        self
    }

    /// Sets the unresponsive-shard timeout in milliseconds. Default 2000.
    pub fn shard_timeout_ms(mut self, millis: u64) -> Self {
        self.shard_timeout_ms = millis;
        self
    }

    /// Sets how many unacknowledged ticks may be in flight per shard
    /// (threaded mode). Default 4.
    pub fn pipeline_depth(mut self, depth: u32) -> Self {
        self.pipeline_depth = depth;
        self
    }

    /// Accepts exactly 1: a shard's sweep runs on one thread, and more
    /// parallelism means more [`ServiceConfigBuilder::shards`]; any other
    /// value makes [`ServiceConfigBuilder::build`] fail. Kept only for the
    /// callers that still pass `.kernel_threads(1)` (the whole-stack
    /// benchmark's service builder); the next change to that benchmark
    /// drops the call, and then this method goes.
    pub fn kernel_threads(mut self, threads: usize) -> Self {
        self.kernel_threads = threads;
        self
    }

    /// Injects a fault plan for the supervision test harness. Default none.
    pub fn fault(mut self, fault: FaultPlan) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Validates and builds.
    ///
    /// # Errors
    ///
    /// [`CtrlError::Config`] wraps the violated algorithm-parameter
    /// constraint; [`CtrlError::InvalidService`] reports service-level ones
    /// (budget, quota, shard count, prices).
    pub fn build(self) -> Result<ServiceConfig, CtrlError> {
        if !self.budget.is_finite() || self.budget <= 0.0 {
            return Err(CtrlError::InvalidService(format!(
                "budget {} must be positive and finite",
                self.budget
            )));
        }
        if !self.default_quota.is_finite() || self.default_quota <= 0.0 {
            return Err(CtrlError::InvalidService(format!(
                "default quota {} must be positive and finite",
                self.default_quota
            )));
        }
        if self.shards == 0 {
            return Err(CtrlError::InvalidService("shards must be >= 1".into()));
        }
        for (name, price) in [
            ("per_bandwidth_tick", self.cost.per_bandwidth_tick),
            ("per_change", self.cost.per_change),
        ] {
            if !price.is_finite() || price < 0.0 {
                return Err(CtrlError::InvalidService(format!(
                    "price {name} {price} must be non-negative and finite"
                )));
            }
        }
        if self.shard_timeout_ms == 0 {
            return Err(CtrlError::InvalidService(
                "shard timeout must be at least one millisecond".into(),
            ));
        }
        if self.checkpoint_every == 0 {
            return Err(CtrlError::InvalidService(
                "checkpoint period must be at least one tick".into(),
            ));
        }
        if self.pipeline_depth == 0 {
            return Err(CtrlError::InvalidService(
                "pipeline depth must be at least 1".into(),
            ));
        }
        if self.kernel_threads != 1 {
            return Err(CtrlError::InvalidService(format!(
                "kernel threads {} unsupported: a shard sweeps on one thread; \
                 use more shards for parallelism",
                self.kernel_threads
            )));
        }
        if let Some(fault) = &self.fault {
            // A fault plan arms on a shard worker, which inline execution
            // never spawns.
            if self.exec != ExecMode::Threaded {
                return Err(CtrlError::InvalidService(
                    "fault injection requires threaded execution".into(),
                ));
            }
            if fault.shard >= self.shards {
                return Err(CtrlError::InvalidService(format!(
                    "fault targets shard {} but only {} shards exist",
                    fault.shard, self.shards
                )));
            }
        }
        // Delegate the algorithm-parameter checks to the core builders.
        SingleConfig::builder(self.session_b_max)
            .offline_delay(self.d_o)
            .offline_utilization(self.u_o)
            .window(self.w)
            .build()
            .map_err(CtrlError::Config)?;
        MultiConfig::new(2, self.group_b_o, self.d_o).map_err(CtrlError::Config)?;
        Ok(ServiceConfig {
            budget: self.budget,
            default_quota: self.default_quota,
            session_b_max: self.session_b_max,
            group_b_o: self.group_b_o,
            d_o: self.d_o,
            u_o: self.u_o,
            w: self.w,
            shards: self.shards,
            cost: self.cost,
            exec: self.exec,
            checkpoint_every: self.checkpoint_every,
            max_restarts: self.max_restarts,
            shard_timeout_ms: self.shard_timeout_ms,
            pipeline_depth: self.pipeline_depth,
            fault: self.fault,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_happy_path() {
        let cfg = ServiceConfig::builder(256.0)
            .session_b_max(32.0)
            .group_b_o(16.0)
            .offline_delay(4)
            .window(8)
            .shards(4)
            .exec(ExecMode::Inline)
            .build()
            .unwrap();
        assert_eq!(cfg.dedicated_envelope(), 32.0);
        assert_eq!(cfg.group_envelope(), 64.0);
        assert_eq!(cfg.single_config().b_max, 32.0);
        assert_eq!(cfg.multi_config().d_o, 4);
    }

    #[test]
    fn service_level_violations_are_reported() {
        assert!(matches!(
            ServiceConfig::builder(0.0).build(),
            Err(CtrlError::InvalidService(_))
        ));
        assert!(matches!(
            ServiceConfig::builder(64.0).shards(0).build(),
            Err(CtrlError::InvalidService(_))
        ));
        assert!(matches!(
            ServiceConfig::builder(64.0).default_quota(-1.0).build(),
            Err(CtrlError::InvalidService(_))
        ));
        // Shards are the parallelism: one kernel thread or a refusal
        // that names them.
        for threads in [0, 2] {
            match ServiceConfig::builder(64.0).kernel_threads(threads).build() {
                Err(CtrlError::InvalidService(msg)) => assert!(msg.contains("shards"), "{msg}"),
                other => panic!("kernel_threads({threads}) built: {other:?}"),
            }
        }
        assert!(ServiceConfig::builder(64.0)
            .kernel_threads(1)
            .build()
            .is_ok());
    }

    #[test]
    fn fault_plans_are_validated() {
        // Only threaded execution can host a fault: inline never spawns a
        // worker.
        assert!(matches!(
            ServiceConfig::builder(64.0)
                .exec(ExecMode::Inline)
                .fault(FaultPlan::kill(0, 5))
                .build(),
            Err(CtrlError::InvalidService(_))
        ));
        // The targeted shard must exist.
        assert!(matches!(
            ServiceConfig::builder(64.0)
                .shards(2)
                .fault(FaultPlan::kill(2, 5))
                .build(),
            Err(CtrlError::InvalidService(_))
        ));
        let cfg = ServiceConfig::builder(64.0)
            .shards(2)
            .fault(FaultPlan::hang(1, 5, 100))
            .build()
            .unwrap();
        assert_eq!(cfg.fault, Some(FaultPlan::hang(1, 5, 100)));
        assert!(matches!(
            ServiceConfig::builder(64.0).shard_timeout_ms(0).build(),
            Err(CtrlError::InvalidService(_))
        ));
        assert!(matches!(
            ServiceConfig::builder(64.0).pipeline_depth(0).build(),
            Err(CtrlError::InvalidService(_))
        ));
        // Recovery is always on: a shard restarts from its last checkpoint.
        assert!(matches!(
            ServiceConfig::builder(64.0).checkpoint_every(0).build(),
            Err(CtrlError::InvalidService(_))
        ));
    }

    #[test]
    fn algorithm_violations_are_delegated() {
        assert!(matches!(
            ServiceConfig::builder(64.0).session_b_max(48.0).build(),
            Err(CtrlError::Config(_))
        ));
        assert!(matches!(
            ServiceConfig::builder(64.0)
                .offline_delay(8)
                .window(4)
                .build(),
            Err(CtrlError::Config(_))
        ));
    }
}
