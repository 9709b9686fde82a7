//! Constant-memory streaming simulation: drive an allocator over an
//! arbitrarily long arrival *iterator* without materializing the trace, the
//! schedule, or the service curve.
//!
//! The batch engine ([`crate::engine`]) records everything and measures
//! post-hoc; this module instead folds the measurements online:
//!
//! * changes and peak allocation — O(1) state;
//! * maximum FIFO delay — [`OnlineDelayTracker`], O(backlog ticks) state
//!   (bounded by the algorithm's delay guarantee in practice);
//! * utilization — rolling window sums, O(W) state.
//!
//! Use it for soak tests and for replaying real packet traces that do not
//! fit in memory.

use crate::queue::BitQueue;
use crate::traits::Allocator;
use cdba_traffic::EPS;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// The full internal state of an [`OnlineDelayTracker`], exported for
/// checkpointing. Restoring from this state reproduces the tracker
/// bitwise: every field is copied verbatim, no recomputation happens.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayTrackerState {
    /// `(arrival tick, unserved bits)` entries, oldest first.
    pub pending: Vec<(usize, f64)>,
    /// Ticks pushed so far.
    pub tick: usize,
    /// Maximum whole-tick FIFO delay observed so far.
    pub max_delay: usize,
    /// Maximum exact (fractional) FIFO delay observed so far.
    pub max_delay_exact: f64,
}

/// Online maximum-FIFO-delay tracker: feed `(arrivals, served)` per tick.
///
/// Keeps one entry per arrival tick whose bits are not yet fully served —
/// under an algorithm with delay bound `D` this is at most `D + 1` entries.
#[derive(Debug, Clone, Default)]
pub struct OnlineDelayTracker {
    pending: VecDeque<(usize, f64)>,
    tick: usize,
    max_delay: usize,
    max_delay_exact: f64,
}

impl OnlineDelayTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances one tick.
    pub fn push(&mut self, arrivals: f64, served: f64) {
        if arrivals > EPS {
            self.pending.push_back((self.tick, arrivals));
        }
        let total = served;
        let mut left = served;
        while left > EPS {
            let Some(front) = self.pending.front_mut() else {
                break;
            };
            let take = front.1.min(left);
            front.1 -= take;
            left -= take;
            if front.1 <= EPS {
                self.max_delay = self.max_delay.max(self.tick - front.0);
                // The entry completes after the fraction of this tick's
                // service consumed so far, so its exact delay is that
                // fraction into tick `tick - t0`. The exact value is
                // always in (integer − 1, integer], so `ceil(exact)`
                // equals the whole-tick delay above.
                let consumed = ((total - left) / total).clamp(0.0, 1.0);
                let exact = ((self.tick - front.0) as f64 - 1.0 + consumed).max(0.0);
                self.max_delay_exact = self.max_delay_exact.max(exact);
                self.pending.pop_front();
            }
        }
        // A still-pending head already implies at least this much delay.
        if let Some(&(t0, _)) = self.pending.front() {
            self.max_delay = self.max_delay.max(self.tick - t0);
            self.max_delay_exact = self.max_delay_exact.max((self.tick - t0) as f64);
        }
        self.tick += 1;
    }

    /// Forgets every pending entry: the link queue this tracker shadows
    /// came out of the tick just pushed empty ([`BitQueue::is_empty`]).
    /// Anything still pending is then sub-`EPS` residue of the per-entry
    /// subtraction that the queue snapped to zero with its own backlog;
    /// it left with the tick's last bit, at the whole-tick delay
    /// [`OnlineDelayTracker::push`] already charged the head. Kept, it
    /// would age through every idle tick after it and read as a delay the
    /// link never had.
    pub fn link_drained(&mut self) {
        self.pending.clear();
    }

    /// The maximum FIFO delay observed so far (including bits still queued,
    /// charged with their age so far).
    pub fn max_delay(&self) -> usize {
        self.max_delay
    }

    /// The maximum FIFO delay with sub-tick resolution: a batch completing
    /// partway through a tick's service is charged the fraction of the
    /// tick consumed at its completion, not the whole tick. Always in
    /// `(max_delay − 1, max_delay]`, so `ceil` of this value recovers
    /// [`OnlineDelayTracker::max_delay`].
    pub fn max_delay_exact(&self) -> f64 {
        self.max_delay_exact
    }

    /// Ticks with unserved bits currently tracked.
    pub fn pending_ticks(&self) -> usize {
        self.pending.len()
    }

    /// Exports the full internal state (for checkpointing).
    pub fn state(&self) -> DelayTrackerState {
        DelayTrackerState {
            pending: self.pending.iter().copied().collect(),
            tick: self.tick,
            max_delay: self.max_delay,
            max_delay_exact: self.max_delay_exact,
        }
    }

    /// Rebuilds a tracker from an exported state, bitwise.
    pub fn restore(state: &DelayTrackerState) -> Self {
        OnlineDelayTracker {
            pending: state.pending.iter().copied().collect(),
            tick: state.tick,
            max_delay: state.max_delay,
            max_delay_exact: state.max_delay_exact,
        }
    }
}

/// The running summary a streaming run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSummary {
    /// Ticks processed (including drain ticks).
    pub ticks: usize,
    /// Total bits that arrived.
    pub total_arrived: f64,
    /// Total bits served.
    pub total_served: f64,
    /// Allocation changes.
    pub changes: usize,
    /// Peak single-tick allocation.
    pub peak_allocation: f64,
    /// Total allocated bandwidth (for global utilization).
    pub total_allocated: f64,
    /// Maximum FIFO delay in ticks (bits still queued at the end are
    /// charged with their age so far).
    pub max_delay: usize,
    /// Backlog remaining at the end.
    pub final_backlog: f64,
}

impl StreamSummary {
    /// Global utilization: arrived bits over allocated bandwidth.
    pub fn global_utilization(&self) -> f64 {
        if self.total_allocated <= EPS {
            f64::INFINITY
        } else {
            self.total_arrived / self.total_allocated
        }
    }
}

/// Drives an allocator over an arrival iterator with O(1)+O(backlog)
/// memory, then keeps ticking with zero arrivals until the queue drains
/// (capped at `drain_cap` extra ticks; pass 0 to stop at the iterator's
/// end).
///
/// Invalid allocations (negative/NaN) are clamped to 0 rather than
/// reported — streaming favours forward progress; use the batch engine
/// when diagnosing an allocator.
pub fn simulate_streaming<A: Allocator + ?Sized>(
    arrivals: impl IntoIterator<Item = f64>,
    allocator: &mut A,
    drain_cap: usize,
) -> StreamSummary {
    let mut queue = BitQueue::new();
    let mut delay = OnlineDelayTracker::new();
    let mut summary = StreamSummary {
        ticks: 0,
        total_arrived: 0.0,
        total_served: 0.0,
        changes: 0,
        peak_allocation: 0.0,
        total_allocated: 0.0,
        max_delay: 0,
        final_backlog: 0.0,
    };
    let mut current_alloc = 0.0f64;
    let step = |arrival: f64,
                queue: &mut BitQueue,
                delay: &mut OnlineDelayTracker,
                summary: &mut StreamSummary,
                current_alloc: &mut f64,
                allocator: &mut A| {
        let arrival = if arrival.is_finite() {
            arrival.max(0.0)
        } else {
            0.0
        };
        let alloc = allocator.on_tick(arrival);
        let alloc = if alloc.is_finite() {
            alloc.max(0.0)
        } else {
            0.0
        };
        if (alloc - *current_alloc).abs() > EPS {
            summary.changes += 1;
            *current_alloc = alloc;
        }
        let served = queue.tick(arrival, alloc);
        delay.push(arrival, served);
        if queue.is_empty() {
            delay.link_drained();
        }
        summary.ticks += 1;
        summary.total_arrived += arrival;
        summary.total_served += served;
        summary.total_allocated += alloc;
        summary.peak_allocation = summary.peak_allocation.max(alloc);
    };
    for arrival in arrivals {
        step(
            arrival,
            &mut queue,
            &mut delay,
            &mut summary,
            &mut current_alloc,
            allocator,
        );
    }
    let mut extra = 0usize;
    while !queue.is_empty() && extra < drain_cap {
        step(
            0.0,
            &mut queue,
            &mut delay,
            &mut summary,
            &mut current_alloc,
            allocator,
        );
        extra += 1;
    }
    summary.max_delay = delay.max_delay();
    summary.final_backlog = queue.backlog();
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Flat(f64);
    impl Allocator for Flat {
        fn on_tick(&mut self, _a: f64) -> f64 {
            self.0
        }
        fn name(&self) -> &'static str {
            "flat"
        }
    }

    #[test]
    fn matches_batch_engine_on_small_input() {
        let arrivals = vec![2.0, 8.0, 0.0, 0.0, 5.0, 0.0];
        let stream = simulate_streaming(arrivals.iter().copied(), &mut Flat(3.0), 1024);
        let trace = cdba_traffic::Trace::new(arrivals).unwrap();
        let run = crate::engine::simulate(
            &trace,
            &mut Flat(3.0),
            crate::engine::DrainPolicy::DrainToEmpty,
        )
        .unwrap();
        assert_eq!(stream.changes, run.schedule.num_changes());
        assert!((stream.total_served - run.total_served()).abs() < 1e-9);
        assert_eq!(
            stream.max_delay,
            crate::measure::max_delay(&trace, run.served()).unwrap()
        );
        assert_eq!(stream.final_backlog, 0.0);
    }

    #[test]
    fn online_delay_tracker_charges_queued_age() {
        let mut t = OnlineDelayTracker::new();
        t.push(10.0, 0.0);
        t.push(0.0, 0.0);
        t.push(0.0, 0.0);
        // Nothing served, but the bits are already 2 ticks old.
        assert_eq!(t.max_delay(), 2);
        t.push(0.0, 10.0);
        assert_eq!(t.max_delay(), 3);
        assert_eq!(t.pending_ticks(), 0);
    }

    #[test]
    fn exact_delay_tracks_completion_fraction() {
        let mut t = OnlineDelayTracker::new();
        // 10 bits arrive; 2 ticks later a 5-bit batch arrives too.
        t.push(10.0, 0.0);
        t.push(0.0, 0.0);
        t.push(5.0, 0.0);
        // Serve 20 this tick: the first batch completes after 10/20 of the
        // tick (delay 3 − 1 + 0.5 = 2.5), the second after 15/20
        // (delay 1 − 1 + 0.75 = 0.75).
        t.push(0.0, 20.0);
        assert_eq!(t.max_delay(), 3);
        assert!((t.max_delay_exact() - 2.5).abs() < 1e-12);
        assert_eq!(t.max_delay_exact().ceil() as usize, t.max_delay());
    }

    #[test]
    fn exact_delay_charges_pending_head_whole_ticks() {
        let mut t = OnlineDelayTracker::new();
        t.push(4.0, 0.0);
        t.push(0.0, 0.0);
        t.push(0.0, 0.0);
        // Unserved head is 2 ticks old: integer and exact agree.
        assert_eq!(t.max_delay(), 2);
        assert_eq!(t.max_delay_exact(), 2.0);
    }

    #[test]
    fn state_roundtrip_is_bitwise() {
        let mut t = OnlineDelayTracker::new();
        for (a, s) in [(7.0, 0.0), (3.0, 4.0), (0.0, 2.5), (1.0, 0.0)] {
            t.push(a, s);
        }
        let state = t.state();
        let mut restored = OnlineDelayTracker::restore(&state);
        assert_eq!(restored.state(), state);
        // Continue both in lockstep: they must agree exactly.
        t.push(0.0, 10.0);
        restored.push(0.0, 10.0);
        assert_eq!(t.max_delay(), restored.max_delay());
        assert_eq!(
            t.max_delay_exact().to_bits(),
            restored.max_delay_exact().to_bits()
        );
        // And through serde JSON as well.
        let json = serde_json::to_string(&t.state()).unwrap();
        let back: DelayTrackerState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t.state());
    }

    #[test]
    fn constant_memory_over_long_streams() {
        // 1M ticks through a generator closure; pending stays tiny.
        let arrivals = (0..1_000_000).map(|i| if i % 97 == 0 { 20.0 } else { 1.0 });
        let summary = simulate_streaming(arrivals, &mut Flat(4.0), 64);
        assert_eq!(summary.final_backlog, 0.0);
        assert!(summary.max_delay <= 8, "delay {}", summary.max_delay);
        assert!(summary.ticks >= 1_000_000);
        assert!((summary.global_utilization() - 0.30).abs() < 0.02);
    }

    #[test]
    fn residue_an_emptied_queue_snaps_away_does_not_age() {
        // Tick 1 serves the first batch and 0.6e-6 bits more: the
        // tracker stops with 1.5e-6 bits of the second batch pending
        // while the queue snaps its 0.9e-6-bit backlog to zero.
        struct Script(std::vec::IntoIter<f64>);
        impl Allocator for Script {
            fn on_tick(&mut self, _a: f64) -> f64 {
                self.0.next().unwrap_or(0.0)
            }
            fn name(&self) -> &'static str {
                "script"
            }
        }
        let arrivals = [1.0, 1.5e-6].into_iter().chain([0.0; 10]);
        let mut alloc = Script(vec![0.0, 1.0 + 0.6e-6].into_iter());
        let summary = simulate_streaming(arrivals, &mut alloc, 0);
        assert_eq!(summary.final_backlog, 0.0);
        assert_eq!(summary.max_delay, 1);
    }

    #[test]
    fn drain_cap_zero_stops_at_stream_end() {
        let summary = simulate_streaming([100.0], &mut Flat(1.0), 0);
        assert_eq!(summary.ticks, 1);
        assert!((summary.final_backlog - 99.0).abs() < 1e-9);
    }

    #[test]
    fn hostile_allocations_are_clamped() {
        struct Nan;
        impl Allocator for Nan {
            fn on_tick(&mut self, _a: f64) -> f64 {
                f64::NAN
            }
            fn name(&self) -> &'static str {
                "nan"
            }
        }
        let summary = simulate_streaming([5.0], &mut Nan, 4);
        assert_eq!(summary.total_served, 0.0);
        assert!(summary.final_backlog > 0.0);
    }
}
