//! The utilization upper bound `high(t)`.
//!
//! Within a stage, an offline algorithm that kept a constant allocation `B`
//! since the stage start and honours windowed utilization `U_O` over windows
//! of `W` ticks must satisfy, for every full window inside the stage,
//! `IN(window) / (B·W) ≥ U_O`, i.e. `B ≤ IN(window) / (U_O·W)`. So
//!
//! ```text
//! high = (1 / (U_O·W)) · min over full windows of IN(window)
//! ```
//!
//! For the first `W` ticks of a stage no full window exists and `high` is
//! the grace value `B_A` (nothing constrains the offline from above yet).
//! `high` is non-increasing over the stage (a running minimum).

use std::collections::VecDeque;

/// Incremental tracker for `high(t)`: O(1) per tick, O(W) memory.
///
/// # Example
///
/// ```
/// use cdba_core::bounds::HighTracker;
///
/// let mut high = HighTracker::new(0.5, 4, 64.0); // U_O, W, grace B_A
/// for _ in 0..3 {
///     assert_eq!(high.push(8.0), 64.0);          // grace: no full window yet
/// }
/// // First full window: 32 bits → high = 32 / (0.5·4) = 16.
/// assert_eq!(high.push(8.0), 16.0);
/// ```
#[derive(Debug, Clone)]
pub struct HighTracker {
    u_o: f64,
    w: usize,
    grace: f64,
    window: VecDeque<f64>,
    window_sum: f64,
    min_window_sum: f64,
    ticks: usize,
}

impl HighTracker {
    /// Creates a tracker with utilization bound `u_o`, window `w` ticks, and
    /// grace value `grace` (the stage's `B_A`: the value reported before the
    /// first full window completes).
    ///
    /// # Panics
    ///
    /// Panics if `w == 0`, `u_o ∉ (0, 1]`, or `grace` is not positive and
    /// finite.
    pub fn new(u_o: f64, w: usize, grace: f64) -> Self {
        assert!(w > 0, "window must be at least one tick");
        assert!(u_o > 0.0 && u_o <= 1.0, "utilization must be in (0, 1]");
        assert!(grace.is_finite() && grace > 0.0, "grace must be positive");
        HighTracker {
            u_o,
            w,
            grace,
            window: VecDeque::with_capacity(w),
            window_sum: 0.0,
            min_window_sum: f64::INFINITY,
            ticks: 0,
        }
    }

    /// Advances one stage tick and returns the updated `high`.
    pub fn push(&mut self, arrivals: f64) -> f64 {
        let arrivals = arrivals.max(0.0);
        self.window.push_back(arrivals);
        self.window_sum += arrivals;
        if self.window.len() > self.w {
            self.window_sum -= self.window.pop_front().expect("window non-empty");
            if self.window_sum < 0.0 {
                self.window_sum = 0.0; // float-noise guard
            }
        }
        self.ticks += 1;
        if self.window.len() == self.w {
            self.min_window_sum = self.min_window_sum.min(self.window_sum);
        }
        self.high()
    }

    /// The current `high` (grace value before the first full window).
    pub fn high(&self) -> f64 {
        if self.min_window_sum.is_infinite() {
            self.grace
        } else {
            self.min_window_sum / (self.u_o * self.w as f64)
        }
    }

    /// Stage ticks consumed so far.
    pub fn ticks(&self) -> usize {
        self.ticks
    }

    /// `true` while the grace period (no full window yet) lasts.
    pub fn in_grace(&self) -> bool {
        self.min_window_sum.is_infinite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grace_period_reports_grace_value() {
        let mut h = HighTracker::new(0.5, 4, 64.0);
        for _ in 0..3 {
            assert_eq!(h.push(100.0), 64.0);
            assert!(h.in_grace());
        }
        // 4th tick completes the first window.
        let v = h.push(100.0);
        assert!(!h.in_grace());
        assert!((v - 400.0 / (0.5 * 4.0)).abs() < 1e-9);
    }

    #[test]
    fn high_is_running_minimum() {
        let mut h = HighTracker::new(1.0, 2, 100.0);
        h.push(10.0);
        let v1 = h.push(10.0); // window sum 20 → 10
        assert!((v1 - 10.0).abs() < 1e-12);
        let v2 = h.push(0.0); // window sum 10 → 5
        assert!((v2 - 5.0).abs() < 1e-12);
        let v3 = h.push(100.0); // window sum 100 → but min stays 5
        assert!((v3 - 5.0).abs() < 1e-12);
    }

    #[test]
    fn silence_collapses_high_to_zero() {
        let mut h = HighTracker::new(0.25, 3, 32.0);
        for _ in 0..3 {
            h.push(0.0);
        }
        assert_eq!(h.high(), 0.0);
    }

    #[test]
    fn cbr_high_matches_rate_over_u() {
        let mut h = HighTracker::new(0.5, 8, 1024.0);
        for _ in 0..50 {
            h.push(4.0);
        }
        // min window sum = 32; high = 32 / (0.5·8) = 8 = rate/U_O.
        assert!((h.high() - 8.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "utilization")]
    fn bad_utilization_rejected() {
        HighTracker::new(0.0, 4, 8.0);
    }
}
