//! Two-state on/off bursts with geometric sojourn times — the canonical
//! bursty data source.

use crate::distr;
use crate::{Trace, TraceError};
use rand::{Rng, RngExt};

/// Parameters for the [`onoff`] generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnOffParams {
    /// Bits per tick while ON.
    pub on_rate: f64,
    /// Bits per tick while OFF (usually 0).
    pub off_rate: f64,
    /// Mean ON duration in ticks (geometric).
    pub mean_on: f64,
    /// Mean OFF duration in ticks (geometric).
    pub mean_off: f64,
}

impl Default for OnOffParams {
    fn default() -> Self {
        OnOffParams {
            on_rate: 16.0,
            off_rate: 0.0,
            mean_on: 20.0,
            mean_off: 60.0,
        }
    }
}

/// Generates `len` ticks of on/off traffic with geometrically distributed
/// burst and silence durations.
///
/// # Errors
///
/// Returns [`TraceError::InvalidParameter`] for invalid rates or mean
/// durations below 1 tick, or `len == 0`.
pub fn onoff<R: Rng + ?Sized>(
    rng: &mut R,
    params: OnOffParams,
    len: usize,
) -> Result<Trace, TraceError> {
    for (name, v) in [("on_rate", params.on_rate), ("off_rate", params.off_rate)] {
        if !v.is_finite() || v < 0.0 {
            return Err(TraceError::InvalidParameter(format!("onoff {name} {v}")));
        }
    }
    for (name, v) in [("mean_on", params.mean_on), ("mean_off", params.mean_off)] {
        if !v.is_finite() || v < 1.0 {
            return Err(TraceError::InvalidParameter(format!("onoff {name} {v}")));
        }
    }
    let mut arrivals = Vec::with_capacity(len);
    let mut on = rng.random::<bool>();
    while arrivals.len() < len {
        let (mean, rate) = if on {
            (params.mean_on, params.on_rate)
        } else {
            (params.mean_off, params.off_rate)
        };
        let dur = distr::geometric(rng, 1.0 / mean) as usize;
        arrivals.resize(arrivals.len() + dur.min(len - arrivals.len()), rate);
        on = !on;
    }
    Trace::new(arrivals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rates_alternate() {
        let mut rng = StdRng::seed_from_u64(11);
        let t = onoff(&mut rng, OnOffParams::default(), 5_000).unwrap();
        let distinct: std::collections::BTreeSet<u64> =
            t.arrivals().iter().map(|&a| a.to_bits()).collect();
        assert_eq!(distinct.len(), 2, "only on/off rates should appear");
        assert!(t.arrivals().contains(&16.0));
        assert!(t.arrivals().contains(&0.0));
    }

    #[test]
    fn long_run_mean_matches_duty_cycle() {
        let mut rng = StdRng::seed_from_u64(12);
        let p = OnOffParams {
            on_rate: 10.0,
            off_rate: 0.0,
            mean_on: 30.0,
            mean_off: 30.0,
        };
        let t = onoff(&mut rng, p, 100_000).unwrap();
        assert!((t.mean_rate() - 5.0).abs() < 0.4, "mean {}", t.mean_rate());
    }

    #[test]
    fn rejects_submaximal_durations() {
        let mut rng = StdRng::seed_from_u64(13);
        let p = OnOffParams {
            mean_on: 0.5,
            ..OnOffParams::default()
        };
        assert!(onoff(&mut rng, p, 10).is_err());
    }
}
