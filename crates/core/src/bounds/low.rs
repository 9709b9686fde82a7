//! The delay lower bound `low(t)`.
//!
//! After `n` ticks of a stage with stage-relative prefix sums `P` (`P[i]` =
//! bits in stage ticks `[0, i)`), the bound is
//!
//! ```text
//! low = max over 0 ≤ x < n of  (P[n] − P[x]) / ((n − x) + D_O)
//! ```
//!
//! — the least constant bandwidth that delivers every window of arrivals
//! within the offline delay `D_O`. `low` is non-decreasing in `n` (it is a
//! running maximum), which is what makes the power-of-two allocation ladder
//! monotone within a stage.
//!
//! Two implementations are provided:
//!
//! * [`NaiveLowTracker`] — the textbook O(n) *per tick* rescan; the reference
//!   for correctness tests.
//! * [`HullLowTracker`] — O(log n) amortized per tick. The ratio
//!   `(P[n] − P[x]) / ((n + D_O) − x)` is the slope from the point
//!   `(x, P[x])` to the query point `Q = (n + D_O, P[n])`, which lies to the
//!   right of every candidate; the maximizing candidate is a vertex of the
//!   *lower convex hull* of the points, found by binary search on the
//!   unimodal slope sequence along the hull.

/// Common interface of the two `low(t)` implementations (sealed to this
/// crate's two implementations by construction of the algorithms).
pub trait LowTracker {
    /// Advances one stage tick with that tick's arrivals and returns the
    /// updated `low`.
    fn push(&mut self, arrivals: f64) -> f64;

    /// The current `low` (0 before any push).
    fn low(&self) -> f64;

    /// Stage ticks consumed so far.
    fn ticks(&self) -> usize;
}

/// Reference implementation: rescans all window start points each tick.
#[derive(Debug, Clone)]
pub struct NaiveLowTracker {
    d_o: usize,
    prefix: Vec<f64>,
    low: f64,
}

impl NaiveLowTracker {
    /// Creates a tracker for offline delay `d_o`.
    ///
    /// # Panics
    ///
    /// Panics if `d_o == 0`.
    pub fn new(d_o: usize) -> Self {
        assert!(d_o > 0, "offline delay must be at least one tick");
        NaiveLowTracker {
            d_o,
            prefix: vec![0.0],
            low: 0.0,
        }
    }
}

impl LowTracker for NaiveLowTracker {
    fn push(&mut self, arrivals: f64) -> f64 {
        let last = *self.prefix.last().expect("prefix never empty");
        self.prefix.push(last + arrivals.max(0.0));
        let n = self.prefix.len() - 1;
        let p_n = self.prefix[n];
        for (x, &p_x) in self.prefix.iter().enumerate().take(n) {
            let ratio = (p_n - p_x) / ((n - x) + self.d_o) as f64;
            if ratio > self.low {
                self.low = ratio;
            }
        }
        self.low
    }

    fn low(&self) -> f64 {
        self.low
    }

    fn ticks(&self) -> usize {
        self.prefix.len() - 1
    }
}

/// Production implementation: lower-convex-hull of `(x, P[x])` with binary
/// search per query. O(log n) per tick amortized.
#[derive(Debug, Clone)]
pub struct HullLowTracker {
    d_o: usize,
    /// Lower convex hull of the candidate points `(x, P[x])`, slopes strictly
    /// increasing along the chain.
    hull: Vec<(f64, f64)>,
    ticks: usize,
    total: f64,
    low: f64,
}

impl HullLowTracker {
    /// Creates a tracker for offline delay `d_o`.
    ///
    /// # Panics
    ///
    /// Panics if `d_o == 0`.
    pub fn new(d_o: usize) -> Self {
        assert!(d_o > 0, "offline delay must be at least one tick");
        HullLowTracker {
            d_o,
            hull: Vec::new(),
            ticks: 0,
            total: 0.0,
            low: 0.0,
        }
    }

    fn add_point(&mut self, p: (f64, f64)) {
        // Maintain strictly increasing slopes along the hull; pop while the
        // middle point is above (or on) the chord — cross product ≤ 0.
        while self.hull.len() >= 2 {
            let a = self.hull[self.hull.len() - 2];
            let b = self.hull[self.hull.len() - 1];
            let cross = (b.0 - a.0) * (p.1 - a.1) - (b.1 - a.1) * (p.0 - a.0);
            if cross <= 0.0 {
                self.hull.pop();
            } else {
                break;
            }
        }
        self.hull.push(p);
    }

    fn slope_to(&self, i: usize, q: (f64, f64)) -> f64 {
        let p = self.hull[i];
        (q.1 - p.1) / (q.0 - p.0)
    }

    fn max_slope(&self, q: (f64, f64)) -> f64 {
        debug_assert!(!self.hull.is_empty());
        // The slope sequence along the lower hull towards a query point on
        // the right is unimodal; find the peak by binary search.
        let (mut lo, mut hi) = (0usize, self.hull.len() - 1);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.slope_to(mid, q) < self.slope_to(mid + 1, q) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        self.slope_to(lo, q)
    }
}

impl LowTracker for HullLowTracker {
    fn push(&mut self, arrivals: f64) -> f64 {
        // Candidate window-start x = current tick index, with P[x] = total so
        // far; then the query uses the post-arrival total.
        self.add_point((self.ticks as f64, self.total));
        self.total += arrivals.max(0.0);
        self.ticks += 1;
        let q = ((self.ticks + self.d_o) as f64, self.total);
        let candidate = self.max_slope(q);
        if candidate > self.low {
            self.low = candidate;
        }
        self.low
    }

    fn low(&self) -> f64 {
        self.low
    }

    fn ticks(&self) -> usize {
        self.ticks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_burst_bound() {
        // 10 bits in one tick, D_O = 4: low = 10 / (1 + 4) = 2.
        for tracker in [
            &mut NaiveLowTracker::new(4) as &mut dyn LowTracker,
            &mut HullLowTracker::new(4),
        ] {
            assert_eq!(tracker.push(10.0), 2.0);
            // low persists through silence (running max).
            assert_eq!(tracker.push(0.0), 2.0);
            assert_eq!(tracker.push(0.0), 2.0);
            assert_eq!(tracker.ticks(), 3);
        }
    }

    #[test]
    fn sustained_rate_converges_to_rate() {
        let mut t = HullLowTracker::new(2);
        let mut low = 0.0;
        for _ in 0..200 {
            low = t.push(4.0);
        }
        // After n ticks: 4n / (n + 2) → 4.
        assert!(low > 3.9 && low < 4.0, "low {low}");
    }

    #[test]
    fn low_is_monotone() {
        let arrivals = [5.0, 0.0, 9.0, 1.0, 0.0, 0.0, 20.0, 0.0];
        let mut t = HullLowTracker::new(3);
        let mut prev = 0.0;
        for &a in &arrivals {
            let l = t.push(a);
            assert!(l >= prev);
            prev = l;
        }
    }

    #[test]
    fn hull_matches_naive_on_fixed_patterns() {
        let patterns: [&[f64]; 5] = [
            &[0.0; 16],
            &[7.0, 0.0, 0.0, 7.0, 0.0, 0.0, 7.0],
            &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0],
            &[100.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
            &[3.0, 3.0, 3.0, 50.0, 3.0, 3.0, 3.0, 50.0],
        ];
        for pat in patterns {
            for d_o in [1usize, 2, 5, 17] {
                let mut naive = NaiveLowTracker::new(d_o);
                let mut hull = HullLowTracker::new(d_o);
                for &a in pat {
                    let ln = naive.push(a);
                    let lh = hull.push(a);
                    assert!(
                        (ln - lh).abs() <= 1e-9 * ln.max(1.0),
                        "d_o={d_o} pat={pat:?}: naive {ln} hull {lh}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "offline delay")]
    fn zero_delay_rejected() {
        NaiveLowTracker::new(0);
    }
}
