//! The [`Trace`] type: an immutable arrival sequence with prefix sums.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// Error returned when constructing or manipulating a [`Trace`].
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// An arrival count was negative, NaN, or infinite.
    InvalidArrival {
        /// Tick index of the offending value.
        tick: usize,
        /// The offending value.
        value: f64,
    },
    /// An operation required a non-empty trace.
    Empty,
    /// Two traces that must have equal length did not.
    LengthMismatch {
        /// Length of the first operand.
        left: usize,
        /// Length of the second operand.
        right: usize,
    },
    /// A window or parameter was out of range.
    InvalidParameter(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::InvalidArrival { tick, value } => {
                write!(f, "invalid arrival {value} at tick {tick}")
            }
            TraceError::Empty => write!(f, "trace must be non-empty"),
            TraceError::LengthMismatch { left, right } => {
                write!(f, "trace lengths differ: {left} vs {right}")
            }
            TraceError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// An immutable per-tick arrival sequence with precomputed prefix sums.
///
/// `arrivals[t]` is the number of bits submitted at the sending end during
/// tick `t`. The paper's windowed quantity `IN[a, b)` (bits arriving in the
/// half-open tick interval `[a, b)`) is [`Trace::window`], an O(1) prefix-sum
/// difference.
///
/// Building a trace costs about one pass over memory: [`Trace::new`] checks
/// every value with a branch-free fold and fills the prefix sums with one
/// length-exact `extend`, adding in tick order, so the sums are the bits a
/// serial loop gives. [`Trace::concat`] copies its left operand's prefix
/// and continues the running sum from that trace's total over the right
/// one, the same additions again; [`Trace::scale`], [`Trace::add`],
/// [`Trace::pad_zeros`], [`Trace::rebuild`], `collect` and the generators
/// in [`crate::models`] build through the same two steps.
///
/// # Example
///
/// ```
/// use cdba_traffic::Trace;
///
/// # fn main() -> Result<(), cdba_traffic::TraceError> {
/// let t = Trace::new(vec![1.0, 0.0, 3.0, 2.0])?;
/// assert_eq!(t.window(1, 4), 5.0);
/// assert_eq!(t.total(), 6.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    arrivals: Vec<f64>,
    /// `prefix[t]` = bits arrived in ticks `[0, t)`; `prefix.len() == arrivals.len() + 1`.
    #[serde(skip)]
    prefix: Vec<f64>,
}

impl Trace {
    /// Builds a trace from per-tick arrival counts.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidArrival`] if any value is negative, NaN,
    /// or infinite, and [`TraceError::Empty`] for an empty sequence.
    pub fn new(arrivals: Vec<f64>) -> Result<Self, TraceError> {
        if arrivals.is_empty() {
            return Err(TraceError::Empty);
        }
        // A value is valid iff it lies in [0, f64::MAX] (−0.0 does; NaN lies
        // in no range). The fold has no early exit, so it vectorises; the
        // first bad tick is looked for only once the fold has failed.
        let valid = |v: f64| (0.0..=f64::MAX).contains(&v);
        if !arrivals.iter().fold(true, |ok, &v| ok & valid(v)) {
            let tick = arrivals
                .iter()
                .position(|&v| !valid(v))
                .expect("the fold found an invalid tick");
            let value = arrivals[tick];
            return Err(TraceError::InvalidArrival { tick, value });
        }
        Ok(Self::new_unchecked(arrivals))
    }

    fn new_unchecked(arrivals: Vec<f64>) -> Self {
        let mut prefix = Vec::with_capacity(arrivals.len() + 1);
        prefix.push(0.0);
        extend_prefix(&mut prefix, 0.0, &arrivals);
        Trace { arrivals, prefix }
    }

    /// Rebuilds the prefix sums; needed after deserialization, where the
    /// prefix vector is skipped.
    pub fn rebuild(self) -> Self {
        Self::new_unchecked(self.arrivals)
    }

    /// Number of ticks in the trace.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// `true` if the trace has no ticks (impossible for a validated trace).
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// The per-tick arrival slice.
    pub fn arrivals(&self) -> &[f64] {
        &self.arrivals
    }

    /// Bits arrived during tick `t`, or 0 beyond the end of the trace.
    pub fn arrival(&self, t: usize) -> f64 {
        self.arrivals.get(t).copied().unwrap_or(0.0)
    }

    /// Bits arrived in ticks `[0, t)`. Saturates at the trace total for
    /// `t > len`.
    pub fn cumulative(&self, t: usize) -> f64 {
        let t = t.min(self.arrivals.len());
        self.prefix[t]
    }

    /// The paper's `IN[a, b)`: bits arrived in the half-open interval
    /// `[a, b)`. Indices beyond the trace clamp to the end; `a >= b` yields 0.
    pub fn window(&self, a: usize, b: usize) -> f64 {
        if a >= b {
            return 0.0;
        }
        (self.cumulative(b) - self.cumulative(a)).max(0.0)
    }

    /// Total number of bits in the trace.
    pub fn total(&self) -> f64 {
        *self.prefix.last().expect("prefix is never empty")
    }

    /// Mean arrival rate (bits per tick).
    pub fn mean_rate(&self) -> f64 {
        self.total() / self.arrivals.len() as f64
    }

    /// Largest single-tick arrival.
    pub fn peak(&self) -> f64 {
        count_full_scan();
        // A maximum over finite values is exact in any order, so eight
        // lanes fold side by side instead of one chain.
        let mut lanes = [0.0f64; 8];
        let mut chunks = self.arrivals.chunks_exact(lanes.len());
        for chunk in &mut chunks {
            for (lane, &a) in lanes.iter_mut().zip(chunk) {
                *lane = lane.max(a);
            }
        }
        chunks
            .remainder()
            .iter()
            .chain(&lanes)
            .copied()
            .fold(0.0, f64::max)
    }

    /// Maximum arrival rate over any window of exactly `w` ticks
    /// (`max_t IN[t, t+w) / w`).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidParameter`] if `w == 0` or
    /// `w > self.len()`.
    pub fn peak_window_rate(&self, w: usize) -> Result<f64, TraceError> {
        if w == 0 || w > self.len() {
            return Err(TraceError::InvalidParameter(format!(
                "window {w} out of range 1..={}",
                self.len()
            )));
        }
        let mut best = 0.0f64;
        for a in 0..=(self.len() - w) {
            best = best.max(self.window(a, a + w));
        }
        Ok(best / w as f64)
    }

    /// Maximum over all non-empty windows `[x, y)` of
    /// `IN[x, y) − bandwidth·(y − x)`: the worst-case backlog a constant
    /// `bandwidth` server accumulates. Computed with Kadane's maximum-subarray
    /// scan in O(n).
    ///
    /// This is the quantity behind the paper's Claim 9: the trace is
    /// `(B, D)`-feasible iff `excess_over(B) ≤ B·D`. Each step's bits are
    /// `(run + a - bandwidth).max(0.0)`'s up to the sign of a zero; the
    /// clamp is a branch, off the run's chain of additions.
    pub fn excess_over(&self, bandwidth: f64) -> f64 {
        max_excess(&self.arrivals, 0..self.len(), bandwidth).0
    }

    /// Minimum constant bandwidth that serves every bit within `delay` ticks.
    ///
    /// By the paper's Claim 9 the trace is `(B, delay)`-feasible iff every
    /// window carries `IN[x, y) ≤ (y − x + delay)·B`, so the bound is the
    /// maximum window density `IN[x, y) / (y − x + delay)` — the paper's
    /// `low(t)` (`cdba_core::bounds::low`) taken over the whole trace. With
    /// `delay == 0` it is the peak arrival; a trace without bits needs 0.
    ///
    /// The value returned is, bit for bit, the one a bisection on
    /// `excess_over(B) ≤ B·delay` reaches (relative precision `1e-9`, from
    /// the feasible side): `scale_to_feasible`'s output and every digest
    /// built on it depend on those bits. The density is solved for once,
    /// and the bisection is replayed against it; only a probe too close to
    /// the density for rounding to be ruled out scans the trace. The solver
    /// (`max_window_density_from`) returns only a density that a full
    /// Kadane pass in this bisection's arithmetic has confirmed, which is
    /// what the replay needs. A call reads the whole trace about 3.3 times:
    /// one peak fold, the solver's first pass, the pass that confirms its
    /// answer, now and then one more.
    pub fn demand_bound(&self, delay: usize) -> f64 {
        if self.total() == 0.0 {
            return 0.0;
        }
        let peak = self.peak();
        if delay == 0 {
            return peak;
        }
        // A probe's scan rounds twice per tick, on terms that sum to at most
        // 2·mid·(y − x + delay) near the threshold, so it misjudges only a
        // probe within 2·n·ε (relative) of the maximum density. The solver
        // leaves the maximum at most `band / 2` above its answer (plus that
        // rounding), so outside `band` of the answer comparing with it is
        // the scan's verdict: 8·(n + delay)·ε ≈ 7e-12 at n = 4,096.
        let band = 8.0 * (self.len() as f64 + delay as f64) * f64::EPSILON;
        let density = self.max_window_density_from(peak, delay, band / 2.0);
        let mut lo = 0.0f64;
        let mut hi = peak.max(self.mean_rate()).max(1e-12);
        // excess_over(peak) == 0 ≤ peak·delay, so `hi` is always feasible.
        for _ in 0..100 {
            let mid = 0.5 * (lo + hi);
            let feasible = if (mid - density).abs() > band * density {
                mid > density
            } else {
                // `excess_over(mid) ≤ mid·delay`, answered at the first run
                // past the limit: the maximum can only be larger.
                count_full_scan();
                let limit = mid * delay as f64;
                let mut run = 0.0f64;
                self.arrivals.iter().all(|&a| {
                    run = kadane_step(run, a, mid).unwrap_or(0.0);
                    run <= limit
                })
            };
            if feasible {
                hi = mid;
            } else {
                lo = mid;
            }
            if hi - lo <= 1e-9 * hi.max(1.0) {
                break;
            }
        }
        hi
    }

    /// The density `δ = IN[x, y) / (y − x + delay)` of a window (or the
    /// peak tick's or the whole trace's density), at least the maximum over
    /// all windows divided by `1 + tolerance`, up to the rounding of a scan
    /// (see [`Trace::demand_bound`]).
    ///
    /// Post-condition: a Kadane pass over the whole trace at the probe
    /// `δ·(1 + tolerance)` either finds no run past `probe·delay`, or ends
    /// on a window whose density is at most `δ` (a run past the limit whose
    /// density rounds below the probe). Only such a pass returns, so
    /// however `δ` was reached the banded bisection sees the maximum within
    /// `tolerance` of it.
    ///
    /// Dinkelbach's iteration: a Kadane pass at `δ·(1 + tolerance)` either
    /// confirms `δ` or ends on the window of largest excess, whose density
    /// is the next, strictly larger, iterate. The iterates climb from far
    /// below the answer through windows that mostly nest (one on/off row:
    /// 213..1519, 1346..1519, 1394..1500), so the climb runs inside the
    /// last window found and only the pass that confirms it reads the
    /// whole trace. `peak` is [`Trace::peak`], folded once by the caller.
    fn max_window_density_from(&self, peak: f64, delay: usize, tolerance: f64) -> f64 {
        let (n, d) = (self.len(), delay as f64);
        // The densities of the peak tick alone and of the whole trace.
        let mut density = (peak / (1.0 + d)).max(self.total() / (n as f64 + d));
        let mut span = 0..n;
        loop {
            let whole = span.len() == n;
            if whole {
                count_full_scan();
            }
            let probe = density * (1.0 + tolerance);
            let (best, window) = max_excess(&self.arrivals, span, probe);
            if best > probe * d {
                // A run past the limit has a density above the probe, up to
                // a rounding `tolerance` outweighs; this only guarantees the
                // end.
                let found =
                    self.arrivals[window.clone()].iter().sum::<f64>() / (window.len() as f64 + d);
                if found > density {
                    density = found;
                    span = window;
                    continue;
                }
            }
            if whole {
                return density;
            }
            span = 0..n;
        }
    }

    /// `max_window_density_from` with the peak folded afresh.
    #[cfg(test)]
    fn max_window_density(&self, delay: usize, tolerance: f64) -> f64 {
        self.max_window_density_from(self.peak(), delay, tolerance)
    }

    /// Element-wise sum of two equal-length traces.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::LengthMismatch`] if lengths differ.
    pub fn add(&self, other: &Trace) -> Result<Trace, TraceError> {
        if self.len() != other.len() {
            return Err(TraceError::LengthMismatch {
                left: self.len(),
                right: other.len(),
            });
        }
        let arrivals = self
            .arrivals
            .iter()
            .zip(&other.arrivals)
            .map(|(a, b)| a + b)
            .collect();
        Trace::new(arrivals)
    }

    /// Scales every arrival by `factor` (≥ 0).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidParameter`] for negative or non-finite
    /// factors.
    pub fn scale(&self, factor: f64) -> Result<Trace, TraceError> {
        if !factor.is_finite() || factor < 0.0 {
            return Err(TraceError::InvalidParameter(format!(
                "scale factor {factor}"
            )));
        }
        Trace::new(self.arrivals.iter().map(|a| a * factor).collect())
    }

    /// Concatenates two traces.
    ///
    /// Both vectors are allocated once at their final length: `self`'s
    /// prefix sums are copied and the running sum continues from
    /// `self.total()` over `other`, the additions a serial pass over the
    /// joined arrivals makes. A `self` deserialized without
    /// [`Trace::rebuild`] has no prefix to copy; its sums are taken afresh.
    pub fn concat(&self, other: &Trace) -> Trace {
        let len = self.len() + other.len();
        let mut arrivals = Vec::with_capacity(len);
        arrivals.extend_from_slice(&self.arrivals);
        arrivals.extend_from_slice(&other.arrivals);
        if self.prefix.len() != self.len() + 1 {
            return Self::new_unchecked(arrivals);
        }
        let mut prefix = Vec::with_capacity(len + 1);
        prefix.extend_from_slice(&self.prefix);
        extend_prefix(&mut prefix, self.total(), &other.arrivals);
        Trace { arrivals, prefix }
    }

    /// Pads the trace with `ticks` trailing zero-arrival ticks (drain time
    /// for simulations that must end with empty queues).
    pub fn pad_zeros(&self, ticks: usize) -> Trace {
        let mut arrivals = self.arrivals.clone();
        arrivals.extend(std::iter::repeat_n(0.0, ticks));
        Self::new_unchecked(arrivals)
    }
}

/// Appends the running sum of `arrivals`, continued from `acc`, to
/// `prefix`: one `extend` of a length-exact iterator, so no per-tick
/// capacity check, with the additions in tick order.
fn extend_prefix(prefix: &mut Vec<f64>, mut acc: f64, arrivals: &[f64]) {
    prefix.extend(arrivals.iter().map(|&a| {
        acc += a;
        acc
    }));
}

/// One step of Kadane's pass at `probe`: rounds `(run + a) − probe` and
/// clamps it at 0, to the bits `(run + a - probe).max(0.0)` gives up to
/// the sign of a zero; `None` is the clamp. Callers branch on it, so the
/// run's dependency chain is the two additions alone.
#[inline(always)]
fn kadane_step(run: f64, a: f64, probe: f64) -> Option<f64> {
    let run = run + a - probe;
    (run > 0.0).then_some(run)
}

/// Kadane's pass at `probe` over `arrivals[span]`: the largest run
/// `Σ (a − probe)` over a non-empty window, and that window (its first
/// occurrence; empty with a run of 0 if no tick exceeds the probe).
fn max_excess(arrivals: &[f64], span: Range<usize>, probe: f64) -> (f64, Range<usize>) {
    let (mut run, mut start) = (0.0f64, span.start);
    let (mut best, mut window) = (0.0f64, span.start..span.start);
    for (t, &a) in (span.start..).zip(&arrivals[span]) {
        match kadane_step(run, a, probe) {
            None => {
                run = 0.0;
                start = t + 1;
            }
            Some(next) => {
                run = next;
                if run > best {
                    best = run;
                    window = start..t + 1;
                }
            }
        }
    }
    (best, window)
}

#[cfg(test)]
thread_local! {
    /// Whole-trace reads on this thread: peak folds, Kadane passes over the
    /// whole trace and in-band probe scans.
    static FULL_SCANS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Counts one whole-trace read (tests only).
#[inline(always)]
fn count_full_scan() {
    #[cfg(test)]
    FULL_SCANS.with(|n| n.set(n.get() + 1));
}

impl FromIterator<f64> for Trace {
    /// Collects arrivals into a trace.
    ///
    /// # Panics
    ///
    /// Panics if any value is invalid or the iterator is empty; use
    /// [`Trace::new`] for fallible construction.
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Trace::new(iter.into_iter().collect()).expect("invalid arrivals in FromIterator")
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Trace[{} ticks, {:.1} bits, mean {:.3}/tick, peak {:.1}]",
            self.len(),
            self.total(),
            self.mean_rate(),
            self.peak()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditioner;
    use crate::models::WorkloadKind;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn prefix_sums_match_windows() {
        let t = Trace::new(vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(t.window(0, 4), 10.0);
        assert_eq!(t.window(1, 3), 5.0);
        assert_eq!(t.window(2, 2), 0.0);
        assert_eq!(t.window(3, 100), 4.0);
        assert_eq!(t.cumulative(0), 0.0);
        assert_eq!(t.cumulative(2), 3.0);
    }

    #[test]
    fn rejects_invalid_arrivals() {
        assert!(matches!(
            Trace::new(vec![1.0, -0.5]),
            Err(TraceError::InvalidArrival { tick: 1, .. })
        ));
        assert!(matches!(
            Trace::new(vec![f64::NAN]),
            Err(TraceError::InvalidArrival { tick: 0, .. })
        ));
        assert!(matches!(Trace::new(vec![]), Err(TraceError::Empty)));
    }

    /// The check tick by tick: the first tick that is not finite and
    /// non-negative, with its value's bits.
    fn first_invalid_serial(arrivals: &[f64]) -> Option<(usize, u64)> {
        for (tick, &value) in arrivals.iter().enumerate() {
            if !value.is_finite() || value < 0.0 {
                return Some((tick, value.to_bits()));
            }
        }
        None
    }

    /// NaN, ±∞ and negative values at every position of every length up
    /// to 33 ticks (every remainder of a vectorised fold), alone and ahead
    /// of a second bad tick: refused with the serial check's first tick
    /// and value. −0.0 and `f64::MAX` are accepted anywhere.
    #[test]
    fn new_refuses_what_the_serial_check_refused_at_every_position() {
        let bad = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1.0,
            -f64::MIN_POSITIVE,
        ];
        let verdict = |arrivals: Vec<f64>| match Trace::new(arrivals) {
            Ok(_) => None,
            Err(TraceError::InvalidArrival { tick, value }) => Some((tick, value.to_bits())),
            Err(e) => panic!("{e}"),
        };
        for len in 1..=33usize {
            let base: Vec<f64> = (0..len).map(|t| [0.0, 1.5, f64::MAX][t % 3]).collect();
            for pos in 0..len {
                for good in [-0.0, f64::MAX, 0.0] {
                    let mut a = base.clone();
                    a[pos] = good;
                    assert_eq!(verdict(a.clone()), None, "{len} ticks, {good} at {pos}");
                    assert_eq!(first_invalid_serial(&a), None);
                }
                for &value in &bad {
                    let mut a = base.clone();
                    a[pos] = value;
                    let want = Some((pos, value.to_bits()));
                    assert_eq!(first_invalid_serial(&a), want);
                    assert_eq!(verdict(a.clone()), want, "{len} ticks, {value} at {pos}");
                    if pos + 1 < len {
                        a[len - 1] = -2.0;
                        assert_eq!(verdict(a), want, "{len} ticks, then -2 last");
                    }
                }
            }
        }
    }

    #[test]
    fn scale_that_overflows_a_cell_is_refused() {
        let t = Trace::new(vec![1.0, f64::MAX, 3.0]).unwrap();
        assert_eq!(
            t.scale(2.0),
            Err(TraceError::InvalidArrival {
                tick: 1,
                value: f64::INFINITY
            })
        );
        assert!(t.scale(1.0).is_ok());
    }

    #[test]
    fn excess_over_matches_bruteforce() {
        let t = Trace::new(vec![5.0, 0.0, 0.0, 7.0, 7.0, 0.0, 1.0]).unwrap();
        for b in [0.5, 1.0, 2.0, 3.5, 10.0] {
            let mut brute = 0.0f64;
            for x in 0..t.len() {
                for y in (x + 1)..=t.len() {
                    brute = brute.max(t.window(x, y) - b * (y - x) as f64);
                }
            }
            assert!(
                (t.excess_over(b) - brute).abs() < 1e-9,
                "b={b}: kadane {} vs brute {brute}",
                t.excess_over(b)
            );
        }
    }

    #[test]
    fn demand_bound_is_tight() {
        let t = Trace::new(vec![10.0, 0.0, 0.0, 0.0]).unwrap();
        // 10 bits at tick 0, delay 4 → needs ≥ 10/(1+4) = 2 bits/tick
        // (window of width 1 ending at tick 1, slack D).
        let b = t.demand_bound(4);
        assert!((b - 2.0).abs() < 1e-6, "got {b}");
        // Feasibility holds at the bound and fails just below it.
        assert!(t.excess_over(b * 1.001) <= b * 1.001 * 4.0);
        assert!(t.excess_over(b * 0.9) > b * 0.9 * 4.0);
    }

    #[test]
    fn demand_bound_zero_delay_is_peak() {
        let t = Trace::new(vec![3.0, 9.0, 1.0]).unwrap();
        assert_eq!(t.demand_bound(0), 9.0);
    }

    #[test]
    fn demand_bound_of_finite_cbr() {
        // For a finite constant-rate trace the binding window is the whole
        // trace: B must deliver all 400 bits within len + delay ticks.
        let t = Trace::new(vec![4.0; 100]).unwrap();
        let expected = 400.0 / 110.0;
        assert!(
            (t.demand_bound(10) - expected).abs() < 1e-6,
            "got {}",
            t.demand_bound(10)
        );
    }

    /// The maximum window density, every window summed afresh.
    fn max_density_brute(t: &Trace, delay: usize) -> f64 {
        let a = t.arrivals();
        let mut best = 0.0f64;
        for x in 0..a.len() {
            let mut sum = 0.0;
            for (len, &bits) in a[x..].iter().enumerate() {
                sum += bits;
                best = best.max(sum / (len + 1 + delay) as f64);
            }
        }
        best
    }

    #[test]
    fn max_window_density_matches_bruteforce() {
        let mut rng = StdRng::seed_from_u64(25);
        for case in 0..400 {
            let n = rng.random_range(1..64usize);
            let t: Trace = (0..n)
                .map(|_| {
                    if rng.random_bool(0.4) {
                        0.0
                    } else {
                        rng.random_range(0.0..500.0)
                    }
                })
                .collect();
            for d in [1usize, 4, 8, 64] {
                let tolerance = 4.0 * (n + d) as f64 * f64::EPSILON;
                let fast = t.max_window_density(d, tolerance);
                let brute = max_density_brute(&t, d);
                assert!(
                    (fast - brute).abs() <= 1e-12 * brute,
                    "case {case} d={d}: {fast} vs {brute}"
                );
            }
        }
    }

    /// The bisection `demand_bound` replays, every probe answered by a full
    /// scan; returns the bound and each probe with its verdict.
    fn full_scan_bisection(t: &Trace, delay: usize) -> (f64, Vec<(f64, bool)>) {
        let mut probes = Vec::new();
        let mut lo = 0.0f64;
        let mut hi = t.peak().max(t.mean_rate()).max(1e-12);
        for _ in 0..100 {
            let mid = 0.5 * (lo + hi);
            let feasible = t.excess_over(mid) <= mid * delay as f64;
            probes.push((mid, feasible));
            if feasible {
                hi = mid;
            } else {
                lo = mid;
            }
            if hi - lo <= 1e-9 * hi.max(1.0) {
                break;
            }
        }
        (hi, probes)
    }

    /// stackbench's bank row 33 at seed 9 (on/off, 32 ticks, conditioned to
    /// `(8, 8)`), doubled as the harness doubles it: a row at its own
    /// bound, where a probe lands closer to the density than rounding.
    #[test]
    fn demand_bound_scans_probes_inside_the_band() {
        let mut rng = StdRng::seed_from_u64(9);
        let kind = WorkloadKind::OnOff(Default::default());
        let rows: Vec<Trace> = (0..34)
            .map(|_| kind.generate(&mut rng, 32).unwrap())
            .collect();
        let row = conditioner::scale_to_feasible(&rows[33], 8.0, 8).unwrap();
        let doubled = row.concat(&row);
        let (bound, probes) = full_scan_bisection(&doubled, 8);
        assert_eq!(doubled.demand_bound(8).to_bits(), bound.to_bits());
        // Comparing every probe with the density (no band) answers one wrongly.
        let density = doubled.max_window_density(8, 0.0);
        assert!(probes
            .iter()
            .any(|&(mid, feasible)| (mid > density) != feasible));
    }

    /// Whole-trace reads per `demand_bound` call on stackbench's input
    /// shape: `lean-256`'s first bank (2,048-tick on/off rows, seed
    /// 0xCDBA·64), each row conditioned as `ReplaySpec::bank()` conditions
    /// it (`scale_to_feasible` to `(8, 8)`: one call) and then doubled (one
    /// more). Two peak folds and a whole-trace pass per Dinkelbach step
    /// read 6.1 here.
    #[test]
    fn demand_bound_scans_a_bank_row_at_most_3_5_times() {
        let scans = || FULL_SCANS.with(std::cell::Cell::get);
        let mut rng = StdRng::seed_from_u64(0xCDBA * 64);
        let kind = WorkloadKind::OnOff(Default::default());
        let (before, mut calls) = (scans(), 0);
        for _ in 0..64 {
            let raw = kind.generate(&mut rng, 2048).unwrap();
            let row = conditioner::scale_to_feasible(&raw, 8.0, 8).unwrap();
            row.concat(&row).demand_bound(8);
            calls += 2;
        }
        let mean = (scans() - before) as f64 / calls as f64;
        assert!(mean <= 3.5, "{mean} whole-trace reads per call");
    }

    #[test]
    fn add_scale_concat() {
        let a = Trace::new(vec![1.0, 2.0]).unwrap();
        let b = Trace::new(vec![3.0, 4.0]).unwrap();
        assert_eq!(a.add(&b).unwrap().arrivals(), &[4.0, 6.0]);
        assert_eq!(a.scale(2.0).unwrap().arrivals(), &[2.0, 4.0]);
        assert_eq!(a.concat(&b).arrivals(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.pad_zeros(2).arrivals(), &[1.0, 2.0, 0.0, 0.0]);
        let c = Trace::new(vec![1.0]).unwrap();
        assert!(matches!(a.add(&c), Err(TraceError::LengthMismatch { .. })));
    }

    #[test]
    fn serde_roundtrip_rebuilds_prefix() {
        let t = Trace::new(vec![1.0, 2.0, 3.0]).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        let back = back.rebuild();
        assert_eq!(back.window(0, 3), 6.0);
    }
}
