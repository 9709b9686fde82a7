//! Feasibility checking and enforcement (the paper's footnote 1 / Claim 9).
//!
//! An input stream is *feasible* for an offline `(B_O, D_O)`-algorithm iff
//! every interval `[t, t+Δ)` carries at most `(Δ + D_O)·B_O` bits (Claim 9
//! gives the "only if"; allocating `B_O` constantly gives the "if"). That
//! condition is exactly conformance to a token bucket with rate `B_O` and
//! depth `B_O·D_O`, so feasibility can be checked in O(n) with a leaky-bucket
//! scan and *enforced* by shaping.

use crate::{Trace, TraceError, EPS};

/// Returns `true` iff `trace` is `(bandwidth, delay)`-feasible in the sense
/// of the paper's Claim 9: every window `[x, y)` carries at most
/// `(y − x + delay) · bandwidth` bits.
///
/// # Example
///
/// ```
/// use cdba_traffic::{conditioner, Trace};
///
/// # fn main() -> Result<(), cdba_traffic::TraceError> {
/// let t = Trace::new(vec![10.0, 0.0, 0.0])?;
/// assert!(conditioner::is_feasible(&t, 2.0, 4));   // 10 ≤ (1+4)·2
/// assert!(!conditioner::is_feasible(&t, 1.0, 4));  // 10 > (1+4)·1
/// # Ok(())
/// # }
/// ```
pub fn is_feasible(trace: &Trace, bandwidth: f64, delay: usize) -> bool {
    trace.excess_over(bandwidth) <= bandwidth * delay as f64 + EPS
}

/// Scales the trace by the largest factor that makes it
/// `(bandwidth, delay)`-feasible (factor 1 if it already is). The factor is
/// `bandwidth / demand_bound(delay)`.
///
/// # Errors
///
/// Returns [`TraceError::InvalidParameter`] if `bandwidth` is not finite
/// and strictly positive.
pub fn scale_to_feasible(trace: &Trace, bandwidth: f64, delay: usize) -> Result<Trace, TraceError> {
    trace.scale(feasible_factor(trace, bandwidth, delay)?)
}

/// The factor that makes `trace` `(bandwidth, delay)`-feasible: 1 if it
/// already is, else just below `bandwidth / demand_bound(delay)`.
///
/// # Errors
///
/// Returns [`TraceError::InvalidParameter`] if `bandwidth` is not finite
/// and strictly positive.
pub(crate) fn feasible_factor(
    trace: &Trace,
    bandwidth: f64,
    delay: usize,
) -> Result<f64, TraceError> {
    if !bandwidth.is_finite() || bandwidth <= 0.0 {
        return Err(TraceError::InvalidParameter(format!(
            "bandwidth {bandwidth}"
        )));
    }
    let demand = trace.demand_bound(delay);
    if demand <= bandwidth {
        return Ok(1.0);
    }
    // Shave slightly below the exact factor so the bisection error in
    // demand_bound cannot leave the result marginally infeasible.
    Ok(bandwidth / demand * (1.0 - 1e-9))
}

/// How [`shape_to_feasible`] disposes of non-conformant bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeMode {
    /// Excess bits are deferred to later ticks (total bits preserved).
    Defer,
    /// Excess bits are dropped (models loss at the ingress policer).
    Drop,
}

/// Passes the trace through a token bucket with rate `bandwidth` and depth
/// `bandwidth·delay`, producing a `(bandwidth, delay)`-feasible trace.
///
/// In [`ShapeMode::Defer`] the shaper queues excess bits and releases them as
/// tokens accrue, preserving the total bit count (the output is the same
/// workload with its bursts flattened to the feasibility envelope). In
/// [`ShapeMode::Drop`] excess bits are discarded.
///
/// The output has the same length as the input; in `Defer` mode bits still
/// queued at the end are appended in extra trailing ticks so no traffic is
/// silently lost.
///
/// # Errors
///
/// Returns [`TraceError::InvalidParameter`] if `bandwidth` is not strictly
/// positive.
pub fn shape_to_feasible(
    trace: &Trace,
    bandwidth: f64,
    delay: usize,
    mode: ShapeMode,
) -> Result<Trace, TraceError> {
    if !bandwidth.is_finite() || bandwidth <= 0.0 {
        return Err(TraceError::InvalidParameter(format!(
            "bandwidth {bandwidth}"
        )));
    }
    let depth = bandwidth * delay as f64 + bandwidth;
    let mut tokens = depth;
    let mut backlog = 0.0f64;
    let mut out = Vec::with_capacity(trace.len());
    for &a in trace.arrivals() {
        tokens = (tokens + bandwidth).min(depth);
        let offered = match mode {
            ShapeMode::Defer => backlog + a,
            ShapeMode::Drop => a,
        };
        let pass = offered.min(tokens);
        tokens -= pass;
        if mode == ShapeMode::Defer {
            backlog = offered - pass;
        }
        out.push(pass);
    }
    if mode == ShapeMode::Defer {
        while backlog > EPS {
            tokens = (tokens + bandwidth).min(depth);
            let pass = backlog.min(tokens);
            tokens -= pass;
            backlog -= pass;
            out.push(pass);
        }
    }
    Trace::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MultiTrace;

    #[test]
    fn scale_makes_feasible_and_is_maximal() {
        let t = Trace::new(vec![100.0, 0.0, 0.0, 0.0, 100.0, 0.0, 0.0, 0.0]).unwrap();
        let s = scale_to_feasible(&t, 5.0, 3).unwrap();
        assert!(is_feasible(&s, 5.0, 3));
        // Maximality: scaling up by 2% breaks feasibility.
        let s2 = s.scale(1.02).unwrap();
        assert!(!is_feasible(&s2, 5.0, 3));
    }

    #[test]
    fn both_scalers_reject_an_invalid_bandwidth() {
        let t = Trace::new(vec![4.0, 0.0, 2.0]).unwrap();
        let m = MultiTrace::new(vec![t.clone(), t.clone()]).unwrap();
        for b in [f64::NAN, 0.0, -1.0, f64::INFINITY] {
            assert!(
                matches!(
                    scale_to_feasible(&t, b, 2),
                    Err(TraceError::InvalidParameter(_))
                ),
                "single, bandwidth {b}"
            );
            assert!(
                matches!(
                    m.scale_to_feasible(b, 2),
                    Err(TraceError::InvalidParameter(_))
                ),
                "multi, bandwidth {b}"
            );
        }
    }

    #[test]
    fn already_feasible_is_untouched() {
        let t = Trace::new(vec![1.0, 1.0, 1.0]).unwrap();
        let s = scale_to_feasible(&t, 10.0, 2).unwrap();
        assert_eq!(s, t);
    }

    #[test]
    fn defer_shaping_preserves_bits() {
        let t = Trace::new(vec![50.0, 0.0, 0.0, 50.0, 0.0]).unwrap();
        let s = shape_to_feasible(&t, 4.0, 2, ShapeMode::Defer).unwrap();
        assert!(is_feasible(&s, 4.0, 2), "shaped trace must be feasible");
        assert!((s.total() - t.total()).abs() < 1e-6);
    }

    #[test]
    fn drop_shaping_loses_excess() {
        let t = Trace::new(vec![100.0, 0.0]).unwrap();
        let s = shape_to_feasible(&t, 2.0, 3, ShapeMode::Drop).unwrap();
        assert!(is_feasible(&s, 2.0, 3));
        assert!(s.total() < t.total());
        assert_eq!(s.len(), t.len());
    }

    #[test]
    fn shaped_cbr_below_rate_passes_through() {
        let t = Trace::new(vec![3.0; 20]).unwrap();
        let s = shape_to_feasible(&t, 4.0, 1, ShapeMode::Defer).unwrap();
        assert_eq!(s.arrivals()[..20], t.arrivals()[..]);
    }

    #[test]
    fn feasibility_matches_claim9_bruteforce() {
        let t = Trace::new(vec![8.0, 0.0, 5.0, 5.0, 0.0, 9.0, 1.0]).unwrap();
        for b in [1.0, 2.0, 3.0, 5.0] {
            for d in [0usize, 1, 3, 6] {
                let mut ok = true;
                for x in 0..t.len() {
                    for y in (x + 1)..=t.len() {
                        if t.window(x, y) > ((y - x + d) as f64) * b + EPS {
                            ok = false;
                        }
                    }
                }
                assert_eq!(is_feasible(&t, b, d), ok, "b={b} d={d}");
            }
        }
    }
}
