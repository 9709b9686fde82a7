//! Per-session signalling-cost metering.
//!
//! The paper's introduction prices a session on two axes: total bandwidth
//! consumption (allocation × duration) and the number of allocation
//! *changes*, each of which is a costly switch signalling operation. The
//! [`SignallingMeter`] charges both online, per tick, against the
//! [`CostModel`] of `cdba-analysis`, while folding the paper's three
//! quality measures with constant memory:
//!
//! * allocation changes and peak allocation — O(1) counters, the same
//!   change criterion as `cdba_sim::streaming` (|Δ| > [`EPS`], starting
//!   from an implicit allocation of 0);
//! * maximum FIFO delay — a shadow [`BitQueue`] mirrors the external link
//!   (fed the same arrivals and allocation the session sees) and feeds an
//!   [`OnlineDelayTracker`], which forgets its entries whenever the queue
//!   drains, rounding residue included;
//! * windowed utilization — rolling `W`-tick sums of arrivals and
//!   allocation, minimized over every complete window with non-zero
//!   allocation (the paper's local utilization, folded online).

use cdba_analysis::cost::CostModel;
use cdba_sim::streaming::OnlineDelayTracker;
use cdba_sim::BitQueue;
use cdba_traffic::EPS;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;

/// Rounds an exact (possibly fractional) delay up to reported whole ticks,
/// with explicit non-finite handling: NaN and non-positive values report
/// 0, `+∞` saturates to `u64::MAX`. A measured delay of 2.9 ticks reports
/// as 3, never truncated to 2.
pub(crate) fn delay_ticks(exact: f64) -> u64 {
    if exact.is_nan() || exact <= 0.0 {
        0
    } else if exact.is_infinite() {
        u64::MAX
    } else {
        exact.ceil() as u64
    }
}

/// The metered totals of one session, exported in snapshots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionMetrics {
    /// The service-wide session key.
    pub session: u64,
    /// Owning tenant. Shared with the shard's tenant table: stamping
    /// metrics costs a refcount bump, not a string copy per session.
    pub tenant: Arc<str>,
    /// Shard the session ran on (placement detail; excluded from
    /// shard-count-invariance comparisons).
    pub shard: u64,
    /// Ticks metered.
    pub ticks: u64,
    /// Allocation changes (each one a billed signalling operation).
    pub changes: u64,
    /// Peak single-tick allocation.
    pub peak_allocation: f64,
    /// Maximum FIFO delay in ticks (queued bits are charged their age so
    /// far).
    pub max_delay: u64,
    /// Total bits that arrived.
    pub total_arrived: f64,
    /// Total bits served over the link.
    pub total_served: f64,
    /// Total allocated bandwidth (bandwidth-unit·ticks).
    pub total_allocated: f64,
    /// Minimum windowed utilization over complete `W`-tick windows with
    /// non-zero allocation; `None` until one such window has elapsed.
    pub windowed_utilization: Option<f64>,
    /// Changes × change price.
    pub signalling_cost: f64,
    /// Allocation × duration × bandwidth price.
    pub bandwidth_cost: f64,
}

impl SessionMetrics {
    /// Total bill for this session under the service's cost model.
    pub fn total_cost(&self) -> f64 {
        self.signalling_cost + self.bandwidth_cost
    }
}

/// Online meter for one session; see the module docs.
#[derive(Debug, Clone)]
pub struct SignallingMeter {
    cost: CostModel,
    window: usize,
    shadow: BitQueue,
    delay: OnlineDelayTracker,
    recent: VecDeque<(f64, f64)>, // (arrivals, allocation) of the last W ticks
    window_arrived: f64,
    window_allocated: f64,
    min_windowed_utilization: Option<f64>,
    current_alloc: f64,
    ticks: u64,
    changes: u64,
    peak_allocation: f64,
    total_arrived: f64,
    total_served: f64,
    total_allocated: f64,
}

impl SignallingMeter {
    /// Creates a meter pricing with `cost` and measuring utilization over
    /// `window` ticks.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(cost: CostModel, window: usize) -> Self {
        assert!(window > 0, "utilization window must be at least one tick");
        SignallingMeter {
            cost,
            window,
            shadow: BitQueue::new(),
            delay: OnlineDelayTracker::new(),
            recent: VecDeque::with_capacity(window),
            window_arrived: 0.0,
            window_allocated: 0.0,
            min_windowed_utilization: None,
            current_alloc: 0.0,
            ticks: 0,
            changes: 0,
            peak_allocation: 0.0,
            total_arrived: 0.0,
            total_served: 0.0,
            total_allocated: 0.0,
        }
    }

    /// Charges one tick: `arrivals` bits were submitted and `allocation`
    /// bandwidth was granted for that tick.
    pub fn record(&mut self, arrivals: f64, allocation: f64) {
        let arrivals = if arrivals.is_finite() {
            arrivals.max(0.0)
        } else {
            0.0
        };
        let allocation = if allocation.is_finite() {
            allocation.max(0.0)
        } else {
            0.0
        };
        if (allocation - self.current_alloc).abs() > EPS {
            self.changes += 1;
            self.current_alloc = allocation;
        }
        let served = self.shadow.tick(arrivals, allocation);
        self.delay.push(arrivals, served);
        if self.shadow.is_empty() {
            self.delay.link_drained();
        }
        self.ticks += 1;
        self.total_arrived += arrivals;
        self.total_served += served;
        self.total_allocated += allocation;
        self.peak_allocation = self.peak_allocation.max(allocation);
        // Rolling utilization window.
        self.recent.push_back((arrivals, allocation));
        self.window_arrived += arrivals;
        self.window_allocated += allocation;
        if self.recent.len() > self.window {
            let (a, b) = self.recent.pop_front().expect("non-empty by len check");
            self.window_arrived -= a;
            self.window_allocated -= b;
        }
        if self.recent.len() == self.window && self.window_allocated > EPS {
            let ratio = self.window_arrived.max(0.0) / self.window_allocated;
            self.min_windowed_utilization = Some(match self.min_windowed_utilization {
                Some(best) => best.min(ratio),
                None => ratio,
            });
        }
    }

    /// Bits still waiting in the shadow link queue.
    pub fn backlog(&self) -> f64 {
        self.shadow.backlog()
    }

    /// `true` once every submitted bit has been served.
    pub fn is_drained(&self) -> bool {
        self.shadow.is_empty()
    }

    /// The metered totals so far, labelled for export.
    pub fn metrics(&self, session: u64, tenant: Arc<str>, shard: u64) -> SessionMetrics {
        SessionMetrics {
            session,
            tenant,
            shard,
            ticks: self.ticks,
            changes: self.changes,
            peak_allocation: self.peak_allocation,
            max_delay: delay_ticks(self.delay.max_delay_exact()),
            total_arrived: self.total_arrived,
            total_served: self.total_served,
            total_allocated: self.total_allocated,
            windowed_utilization: self.min_windowed_utilization,
            signalling_cost: self.changes as f64 * self.cost.per_change,
            bandwidth_cost: self.total_allocated * self.cost.per_bandwidth_tick,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meter() -> SignallingMeter {
        SignallingMeter::new(CostModel::with_change_price(10.0), 4)
    }

    #[test]
    fn changes_and_costs_accumulate() {
        let mut m = meter();
        m.record(2.0, 4.0); // 0 → 4: change
        m.record(2.0, 4.0);
        m.record(2.0, 8.0); // 4 → 8: change
        let x = m.metrics(1, "acme".into(), 0);
        assert_eq!(x.changes, 2);
        assert_eq!(x.signalling_cost, 20.0);
        assert_eq!(x.bandwidth_cost, 16.0);
        assert_eq!(x.total_cost(), 36.0);
        assert_eq!(x.peak_allocation, 8.0);
        assert_eq!(x.ticks, 3);
    }

    #[test]
    fn delay_matches_streaming_semantics() {
        let mut m = meter();
        m.record(10.0, 2.0);
        for _ in 0..4 {
            m.record(0.0, 2.0);
        }
        // 10 bits at 2/tick: last bit leaves during tick 4.
        assert_eq!(m.metrics(0, "t".into(), 0).max_delay, 4);
        assert!(m.is_drained());
    }

    #[test]
    fn windowed_utilization_takes_the_min_over_full_windows() {
        let mut m = meter();
        for _ in 0..4 {
            m.record(2.0, 4.0); // first full window: 8/16 = 0.5
        }
        assert_eq!(m.metrics(0, "t".into(), 0).windowed_utilization, Some(0.5));
        for _ in 0..4 {
            m.record(0.0, 4.0); // window decays to 0/16
        }
        assert_eq!(m.metrics(0, "t".into(), 0).windowed_utilization, Some(0.0));
    }

    #[test]
    fn incomplete_windows_report_none() {
        let mut m = meter();
        m.record(1.0, 1.0);
        m.record(1.0, 1.0);
        assert_eq!(m.metrics(0, "t".into(), 0).windowed_utilization, None);
    }

    #[test]
    fn zero_allocation_windows_are_skipped() {
        let mut m = meter();
        for _ in 0..6 {
            m.record(0.0, 0.0);
        }
        assert_eq!(m.metrics(0, "t".into(), 0).windowed_utilization, None);
        assert_eq!(m.metrics(0, "t".into(), 0).changes, 0);
    }

    #[test]
    fn fractional_delays_report_ceil_not_truncation() {
        // 10 bits arrive, then 4/tick: the last bit leaves midway through
        // the third service tick (exact delay 2.5), which must report as 3.
        let mut m = meter();
        m.record(10.0, 0.0);
        m.record(0.0, 4.0);
        m.record(0.0, 4.0);
        m.record(0.0, 4.0);
        assert_eq!(m.metrics(0, "t".into(), 0).max_delay, 3);
        assert!(m.is_drained());
    }

    #[test]
    fn residue_an_emptied_queue_snaps_away_does_not_age() {
        // The second tick serves the first entry and 0.6e-6 bits more, so
        // the FIFO stops with 1.5e-6 bits of the second entry still
        // queued, while the queue's own backlog of 0.9e-6 snaps to zero.
        let mut m = meter();
        m.record(1.0, 0.0);
        m.record(1.5e-6, 1.0 + 0.6e-6);
        assert!(m.is_drained());
        for _ in 0..10 {
            m.record(0.0, 0.0);
        }
        assert_eq!(m.metrics(0, "t".into(), 0).max_delay, 1);
        assert_eq!(m.delay.pending_ticks(), 0);
    }

    #[test]
    fn delay_ticks_handles_non_finite_explicitly() {
        assert_eq!(delay_ticks(0.0), 0);
        assert_eq!(delay_ticks(-1.0), 0);
        assert_eq!(delay_ticks(f64::NAN), 0);
        assert_eq!(delay_ticks(f64::NEG_INFINITY), 0);
        assert_eq!(delay_ticks(f64::INFINITY), u64::MAX);
        assert_eq!(delay_ticks(2.9), 3);
        assert_eq!(delay_ticks(3.0), 3);
        assert_eq!(delay_ticks(1e-12), 1);
    }

    #[test]
    fn hostile_inputs_are_clamped() {
        let mut m = meter();
        m.record(f64::NAN, f64::INFINITY);
        m.record(-3.0, -1.0);
        let x = m.metrics(0, "t".into(), 0);
        assert_eq!(x.total_arrived, 0.0);
        assert_eq!(x.total_allocated, 0.0);
        assert_eq!(x.changes, 0);
    }
}
