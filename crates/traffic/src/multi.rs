//! Multi-session workloads: `k` equal-length traces sharing one channel.

use crate::models::WorkloadKind;
use crate::{conditioner, Trace, TraceError};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A bundle of `k ≥ 1` equal-length session traces (the multi-session input
/// of the paper's Sections 3–4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiTrace {
    sessions: Vec<Trace>,
}

impl MultiTrace {
    /// Builds a multi-trace from per-session traces.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Empty`] for zero sessions and
    /// [`TraceError::LengthMismatch`] if session lengths differ.
    pub fn new(sessions: Vec<Trace>) -> Result<Self, TraceError> {
        let first = sessions.first().ok_or(TraceError::Empty)?;
        let len = first.len();
        for s in &sessions {
            if s.len() != len {
                return Err(TraceError::LengthMismatch {
                    left: len,
                    right: s.len(),
                });
            }
        }
        Ok(MultiTrace { sessions })
    }

    /// Number of sessions `k`.
    pub fn num_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Trace length in ticks (uniform across sessions).
    pub fn len(&self) -> usize {
        self.sessions[0].len()
    }

    /// `true` if the traces have zero ticks (impossible for validated input).
    pub fn is_empty(&self) -> bool {
        self.sessions[0].is_empty()
    }

    /// The per-session traces.
    pub fn sessions(&self) -> &[Trace] {
        &self.sessions
    }

    /// The trace of session `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn session(&self, i: usize) -> &Trace {
        &self.sessions[i]
    }

    /// Element-wise aggregate of all sessions (the "single session view" used
    /// by the combined algorithm's global tracker).
    pub fn aggregate(&self) -> Trace {
        let mut acc = self.sessions[0].clone();
        for s in &self.sessions[1..] {
            acc = acc.add(s).expect("uniform lengths by construction");
        }
        acc
    }

    /// Total bits across all sessions.
    pub fn total(&self) -> f64 {
        self.sessions.iter().map(Trace::total).sum()
    }

    /// Returns `true` iff the *aggregate* is `(bandwidth, delay)`-feasible
    /// (Claim 9 is stated for all sessions together).
    pub fn is_feasible(&self, bandwidth: f64, delay: usize) -> bool {
        conditioner::is_feasible(&self.aggregate(), bandwidth, delay)
    }

    /// Scales every session by the same factor so the aggregate becomes
    /// `(bandwidth, delay)`-feasible.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidParameter`] if `bandwidth` is not finite
    /// and strictly positive.
    pub fn scale_to_feasible(&self, bandwidth: f64, delay: usize) -> Result<Self, TraceError> {
        let factor = conditioner::feasible_factor(&self.aggregate(), bandwidth, delay)?;
        let sessions = self
            .sessions
            .iter()
            .map(|s| s.scale(factor))
            .collect::<Result<Vec<_>, _>>()?;
        MultiTrace::new(sessions)
    }

    /// Pads every session with `ticks` trailing zero ticks.
    pub fn pad_zeros(&self, ticks: usize) -> Self {
        MultiTrace {
            sessions: self.sessions.iter().map(|s| s.pad_zeros(ticks)).collect(),
        }
    }
}

/// Generates `k` independent sessions of the given workload kind.
///
/// # Errors
///
/// Propagates generator errors; `k == 0` yields [`TraceError::Empty`].
pub fn independent_sessions<R: Rng + ?Sized>(
    rng: &mut R,
    kind: &WorkloadKind,
    k: usize,
    len: usize,
) -> Result<MultiTrace, TraceError> {
    let sessions = (0..k)
        .map(|_| kind.generate(rng, len))
        .collect::<Result<Vec<_>, _>>()?;
    MultiTrace::new(sessions)
}

/// The multi-session adversary for Theorems 14/17: a "hot token" rotates
/// round-robin among the `k` sessions every `block` ticks; the hot session
/// sends at `hot_rate`, the others trickle at `cold_rate`. A fixed offline
/// allocation sized for the cold rate is violated as soon as the token moves,
/// so the offline must re-allocate ~once per rotation while the online phased
/// algorithm pays O(k) changes per stage.
///
/// # Errors
///
/// Returns [`TraceError::InvalidParameter`] for `k == 0`, `block == 0`,
/// invalid rates, or `len == 0`.
pub fn rotating_hot(
    k: usize,
    hot_rate: f64,
    cold_rate: f64,
    block: usize,
    len: usize,
) -> Result<MultiTrace, TraceError> {
    if k == 0 || block == 0 {
        return Err(TraceError::InvalidParameter(
            "rotating_hot: k and block must be >= 1".into(),
        ));
    }
    for (name, v) in [("hot_rate", hot_rate), ("cold_rate", cold_rate)] {
        if !v.is_finite() || v < 0.0 {
            return Err(TraceError::InvalidParameter(format!(
                "rotating_hot {name} {v}"
            )));
        }
    }
    let mut sessions = vec![Vec::with_capacity(len); k];
    for t in 0..len {
        let hot = (t / block) % k;
        for (i, s) in sessions.iter_mut().enumerate() {
            s.push(if i == hot { hot_rate } else { cold_rate });
        }
    }
    MultiTrace::new(
        sessions
            .into_iter()
            .map(Trace::new)
            .collect::<Result<Vec<_>, _>>()?,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::CbrParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn aggregate_sums_sessions() {
        let a = Trace::new(vec![1.0, 2.0]).unwrap();
        let b = Trace::new(vec![3.0, 4.0]).unwrap();
        let m = MultiTrace::new(vec![a, b]).unwrap();
        assert_eq!(m.aggregate().arrivals(), &[4.0, 6.0]);
        assert_eq!(m.total(), 10.0);
        assert_eq!(m.num_sessions(), 2);
    }

    #[test]
    fn rejects_mismatched_lengths() {
        let a = Trace::new(vec![1.0, 2.0]).unwrap();
        let b = Trace::new(vec![3.0]).unwrap();
        assert!(matches!(
            MultiTrace::new(vec![a, b]),
            Err(TraceError::LengthMismatch { .. })
        ));
        assert!(matches!(MultiTrace::new(vec![]), Err(TraceError::Empty)));
    }

    #[test]
    fn rotating_hot_rotates() {
        let m = rotating_hot(3, 9.0, 1.0, 2, 12).unwrap();
        // Ticks 0–1: session 0 hot; ticks 2–3: session 1; ticks 4–5: session 2.
        assert_eq!(m.session(0).arrival(0), 9.0);
        assert_eq!(m.session(1).arrival(0), 1.0);
        assert_eq!(m.session(1).arrival(2), 9.0);
        assert_eq!(m.session(2).arrival(4), 9.0);
        assert_eq!(m.session(0).arrival(6), 9.0);
        // Exactly one hot session per tick.
        for t in 0..12 {
            let hot = m.sessions().iter().filter(|s| s.arrival(t) == 9.0).count();
            assert_eq!(hot, 1, "tick {t}");
        }
    }

    #[test]
    fn independent_sessions_generate() {
        let mut rng = StdRng::seed_from_u64(71);
        let kind = WorkloadKind::Cbr(CbrParams {
            rate: 2.0,
            jitter: 0.0,
        });
        let m = independent_sessions(&mut rng, &kind, 4, 50).unwrap();
        assert_eq!(m.num_sessions(), 4);
        assert_eq!(m.len(), 50);
        assert!((m.aggregate().mean_rate() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn scale_to_feasible_scales_aggregate() {
        let m = rotating_hot(2, 100.0, 0.0, 4, 64).unwrap();
        let scaled = m.scale_to_feasible(10.0, 8).unwrap();
        assert!(scaled.is_feasible(10.0, 8));
        // All sessions scaled by the same factor: ratios preserved.
        let f = scaled.session(0).total() / m.session(0).total();
        let f2 = scaled.session(1).total() / m.session(1).total();
        assert!((f - f2).abs() < 1e-9);
    }

    #[test]
    fn pad_zeros_extends_all_sessions() {
        let m = rotating_hot(2, 1.0, 0.0, 1, 4).unwrap();
        let p = m.pad_zeros(3);
        assert_eq!(p.len(), 7);
        assert_eq!(p.num_sessions(), 2);
    }
}
