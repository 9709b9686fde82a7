//! The churn-replay workload shared by `cdba-cli serve` (in-process),
//! `cdba-cli client` (over the gateway wire), and `cdba-cli fleet`.
//!
//! The drivers must issue the *same* operations in the *same* order for
//! the determinism guarantee to be checkable: a trace replayed through the
//! gateway has to produce a snapshot whose
//! [`invariant_view`](cdba_ctrl::ServiceSnapshot::invariant_view) is
//! bitwise-identical to the in-process run. Factoring the workload here —
//! and driving every backend through one [`ReplayTarget`] trait — makes
//! that equality structural instead of hopeful.

use cdba_ctrl::{ControlPlane, ServiceConfig, ServiceConfigBuilder};
use cdba_fleet::{Fleet, FleetError};
use cdba_gateway::client::Client;
use cdba_traffic::models::WorkloadKind;
use cdba_traffic::{conditioner, MultiTrace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// The tenants sessions are attributed to, round-robin.
pub const TENANTS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// Everything that determines the replayed workload. Two replays with
/// equal specs issue identical operation sequences.
#[derive(Debug, Clone)]
pub struct ReplaySpec {
    /// Total session population (pooled + dedicated).
    pub sessions: usize,
    /// Ticks to replay.
    pub ticks: u64,
    /// Seed for the arrival bank.
    pub seed: u64,
    /// Traffic model name (`cbr|poisson|onoff|mmpp|pareto|video|spike`).
    pub model: String,
    /// Pooled group size; groups form only when ≥ 2.
    pub group_size: usize,
    /// Fraction of the population run in pooled groups.
    pub pool_frac: f64,
    /// Churn period in ticks; 0 disables churn.
    pub churn_every: u64,
    /// Dedicated per-session bandwidth `B_A`.
    pub b_max: f64,
    /// Pooled per-session offline bandwidth `B_O`.
    pub b_o: f64,
    /// Offline delay bound `D_O` (ticks).
    pub d_o: usize,
    /// Offline utilization target `U_O`.
    pub u_o: f64,
    /// Utilization measurement window (ticks).
    pub w: usize,
}

impl Default for ReplaySpec {
    fn default() -> Self {
        Self {
            sessions: 100,
            ticks: 100_000,
            seed: 0xCDBA,
            model: "onoff".into(),
            group_size: 4,
            pool_frac: 0.2,
            churn_every: 500,
            b_max: 16.0,
            b_o: 8.0,
            d_o: 8,
            u_o: 0.5,
            w: 16,
        }
    }
}

/// How [`ReplaySpec::split`] partitions the population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Split {
    /// Sessions running in pooled groups.
    pub pooled: usize,
    /// Sessions with dedicated allocators.
    pub dedicated: usize,
    /// Number of pooled groups.
    pub groups: usize,
}

impl ReplaySpec {
    /// Splits the population: `pool_frac` of the sessions run in pooled
    /// groups of `group_size`, the rest get dedicated allocators.
    pub fn split(&self) -> Split {
        let pooled = if self.group_size >= 2 && self.pool_frac > 0.0 {
            ((self.sessions as f64 * self.pool_frac.clamp(0.0, 1.0)) as usize / self.group_size)
                * self.group_size
        } else {
            0
        };
        let groups = if self.group_size >= 2 {
            pooled / self.group_size
        } else {
            0
        };
        Split {
            pooled,
            dedicated: self.sessions - pooled,
            groups,
        }
    }

    /// The default budget: an exact fit for the initial population plus
    /// one spare dedicated envelope so churn replacements always admit.
    pub fn default_budget(&self) -> f64 {
        let split = self.split();
        split.dedicated as f64 * self.b_max + split.groups as f64 * 4.0 * self.b_o + self.b_max
    }

    /// Rows in the arrival bank (session key `k` replays row `k % rows`).
    pub fn rows(&self) -> usize {
        self.sessions.min(64)
    }

    /// A pre-filled [`ServiceConfig`] builder carrying the spec's
    /// algorithm parameters; callers add budget/exec/supervision knobs.
    pub fn service_builder(&self, budget: f64) -> ServiceConfigBuilder {
        ServiceConfig::builder(budget)
            .session_b_max(self.b_max)
            .group_b_o(self.b_o)
            .offline_delay(self.d_o)
            .offline_utilization(self.u_o)
            .window(self.w)
    }

    /// Generates the bank of feasible arrival rows the replay tiles
    /// across the run. Feasibility targets the tighter of the dedicated
    /// offline budget `U_O·B_A` and the group budget `B_O`.
    ///
    /// # Errors
    ///
    /// Unknown model names and infeasible conditioning targets.
    pub fn bank(&self) -> Result<MultiTrace, String> {
        let kind = workload_kind(&self.model)?;
        let rows = self.rows();
        let base_len = (self.ticks.min(2048) as usize).max(self.w + 1);
        let feasible_b = (self.u_o * self.b_max).min(self.b_o);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut bank = Vec::with_capacity(rows);
        for _ in 0..rows {
            let trace = kind
                .generate(&mut rng, base_len)
                .map_err(|e| e.to_string())?;
            let trace = conditioner::scale_to_feasible(&trace, feasible_b, self.d_o)
                .map_err(|e| e.to_string())?;
            bank.push(trace);
        }
        MultiTrace::new(bank).map_err(|e| e.to_string())
    }
}

/// Resolves a traffic model name to its default-parameter [`WorkloadKind`].
///
/// # Errors
///
/// Unknown names.
pub fn workload_kind(model: &str) -> Result<WorkloadKind, String> {
    Ok(match model {
        "cbr" => WorkloadKind::Cbr(Default::default()),
        "poisson" => WorkloadKind::Poisson(Default::default()),
        "onoff" => WorkloadKind::OnOff(Default::default()),
        "mmpp" => WorkloadKind::Mmpp(Default::default()),
        "pareto" => WorkloadKind::Pareto(Default::default()),
        "video" => WorkloadKind::Video(Default::default()),
        "spike" => WorkloadKind::Spike(Default::default()),
        other => return Err(format!("unknown model {other}")),
    })
}

/// A control-plane backend the replay can drive: the in-process
/// [`ControlPlane`] or a gateway [`Client`] over TCP.
pub trait ReplayTarget {
    /// Admits one dedicated session; returns its key.
    fn admit(&mut self, tenant: &str) -> Result<u64, String>;
    /// Admits a pooled group; returns the members' keys.
    fn admit_group(&mut self, tenant: &str, size: usize) -> Result<Vec<u64>, String>;
    /// Starts draining a session out.
    fn leave(&mut self, key: u64) -> Result<(), String>;
    /// Applies one tick of arrivals.
    fn tick(&mut self, arrivals: &[(u64, f64)]) -> Result<(), String>;
}

impl ReplayTarget for ControlPlane {
    fn admit(&mut self, tenant: &str) -> Result<u64, String> {
        ControlPlane::admit(self, tenant).map_err(|e| e.to_string())
    }

    fn admit_group(&mut self, tenant: &str, size: usize) -> Result<Vec<u64>, String> {
        ControlPlane::admit_group(self, tenant, size).map_err(|e| e.to_string())
    }

    fn leave(&mut self, key: u64) -> Result<(), String> {
        ControlPlane::leave(self, key).map_err(|e| e.to_string())
    }

    fn tick(&mut self, arrivals: &[(u64, f64)]) -> Result<(), String> {
        ControlPlane::tick(self, arrivals).map_err(|e| e.to_string())
    }
}

impl ReplayTarget for Client {
    fn admit(&mut self, tenant: &str) -> Result<u64, String> {
        self.join(tenant).map_err(|e| e.to_string())
    }

    fn admit_group(&mut self, tenant: &str, size: usize) -> Result<Vec<u64>, String> {
        self.join_group(tenant, size as u32)
            .map_err(|e| e.to_string())
    }

    fn leave(&mut self, key: u64) -> Result<(), String> {
        Client::leave(self, key).map_err(|e| e.to_string())
    }

    fn tick(&mut self, arrivals: &[(u64, f64)]) -> Result<(), String> {
        Client::tick(self, arrivals)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }
}

/// Replays through a [`Fleet`]. `at_tick` runs at every tick boundary,
/// before the fleet ticks, with the tick's index: the caller's schedule
/// of kills and drains.
pub struct FleetTarget<S> {
    /// The fleet replayed through.
    pub fleet: Fleet,
    now: u64,
    at_tick: S,
}

impl<S: FnMut(&mut Fleet, u64) -> Result<(), FleetError>> FleetTarget<S> {
    /// A target over `fleet` that runs `at_tick` before each tick.
    pub fn new(fleet: Fleet, at_tick: S) -> Self {
        Self {
            fleet,
            now: 0,
            at_tick,
        }
    }
}

impl<S: FnMut(&mut Fleet, u64) -> Result<(), FleetError>> ReplayTarget for FleetTarget<S> {
    fn admit(&mut self, tenant: &str) -> Result<u64, String> {
        self.fleet.admit(tenant).map_err(|e| e.to_string())
    }

    fn admit_group(&mut self, tenant: &str, size: usize) -> Result<Vec<u64>, String> {
        self.fleet
            .admit_group(tenant, size as u32)
            .map_err(|e| e.to_string())
    }

    fn leave(&mut self, key: u64) -> Result<(), String> {
        self.fleet.leave(key).map_err(|e| e.to_string())
    }

    fn tick(&mut self, arrivals: &[(u64, f64)]) -> Result<(), String> {
        (self.at_tick)(&mut self.fleet, self.now).map_err(|e| e.to_string())?;
        self.fleet.tick(arrivals).map_err(|e| e.to_string())?;
        self.now += 1;
        Ok(())
    }
}

/// What a finished replay reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayOutcome {
    /// Total session-ticks driven (live sessions summed over ticks).
    pub session_ticks: u64,
    /// Churn events performed (one leave + one admit each).
    pub churn_events: u64,
    /// Wall-clock seconds spent in the replay loop.
    pub elapsed_sec: f64,
}

impl ReplayOutcome {
    /// Session-ticks per wall-clock second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed_sec > 0.0 {
            self.session_ticks as f64 / self.elapsed_sec
        } else {
            f64::INFINITY
        }
    }
}

/// Replays the spec's workload against `target`: admit pooled groups,
/// admit dedicated sessions, then tick with periodic churn (the oldest
/// dedicated session leaves, a fresh one is admitted in its place).
///
/// The operation order is a function of the spec alone, so replaying the
/// same spec against an in-process control plane and a gateway client
/// yields identical session keys and identical invariant metrics.
///
/// # Errors
///
/// Bank-generation failures and whatever the target refuses.
pub fn run_replay<T: ReplayTarget>(
    target: &mut T,
    spec: &ReplaySpec,
) -> Result<ReplayOutcome, String> {
    if spec.sessions == 0 {
        return Err("replay needs at least 1 session".into());
    }
    let split = spec.split();
    let rows = spec.rows();
    let replay = spec.bank()?;

    let mut pooled_keys: Vec<u64> = Vec::with_capacity(split.pooled);
    for g in 0..split.groups {
        let members = target.admit_group(TENANTS[g % TENANTS.len()], spec.group_size)?;
        pooled_keys.extend(members);
    }
    let mut dedicated_keys: VecDeque<u64> = VecDeque::with_capacity(split.dedicated);
    for i in 0..split.dedicated {
        dedicated_keys.push_back(target.admit(TENANTS[i % TENANTS.len()])?);
    }

    let mut arrivals: Vec<(u64, f64)> = Vec::with_capacity(spec.sessions);
    let mut session_ticks: u64 = 0;
    let mut churn_events: u64 = 0;
    let started = std::time::Instant::now();
    for t in 0..spec.ticks {
        if spec.churn_every > 0 && t > 0 && t.is_multiple_of(spec.churn_every) {
            if let Some(gone) = dedicated_keys.pop_front() {
                target.leave(gone)?;
                let key = target.admit(TENANTS[churn_events as usize % TENANTS.len()])?;
                dedicated_keys.push_back(key);
                churn_events += 1;
            }
        }
        arrivals.clear();
        let col = (t as usize) % replay.len();
        for &key in pooled_keys.iter().chain(dedicated_keys.iter()) {
            let bits = replay.session(key as usize % rows).arrival(col);
            if bits > 0.0 {
                arrivals.push((key, bits));
            }
        }
        session_ticks += (pooled_keys.len() + dedicated_keys.len()) as u64;
        target.tick(&arrivals)?;
    }
    Ok(ReplayOutcome {
        session_ticks,
        churn_events,
        elapsed_sec: started.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdba_ctrl::ExecMode;

    fn tiny_spec() -> ReplaySpec {
        ReplaySpec {
            sessions: 8,
            ticks: 64,
            churn_every: 16,
            ..ReplaySpec::default()
        }
    }

    #[test]
    fn split_and_budget_match_the_serve_arithmetic() {
        let spec = ReplaySpec::default();
        let split = spec.split();
        assert_eq!(split.pooled, 20);
        assert_eq!(split.groups, 5);
        assert_eq!(split.dedicated, 80);
        let expected = 80.0 * 16.0 + 5.0 * 4.0 * 8.0 + 16.0;
        assert!((spec.default_budget() - expected).abs() < 1e-9);
    }

    #[test]
    fn replay_is_deterministic_in_process() {
        let spec = tiny_spec();
        let run = |spec: &ReplaySpec| {
            let cfg = spec
                .service_builder(spec.default_budget())
                .exec(ExecMode::Inline)
                .build()
                .unwrap();
            let mut plane = ControlPlane::new(cfg);
            let outcome = run_replay(&mut plane, spec).unwrap();
            let snap = plane.snapshot().unwrap();
            plane.shutdown();
            (outcome, snap.invariant_view())
        };
        let (a_out, a_view) = run(&spec);
        let (b_out, b_view) = run(&spec);
        assert_eq!(a_out.session_ticks, b_out.session_ticks);
        assert_eq!(a_out.churn_events, b_out.churn_events);
        assert_eq!(a_view, b_view);
        assert!(a_out.churn_events > 0, "churn exercised");
    }
}
