//! Lockstep property tests on the two `low(t)` implementations: the
//! O(log n) [`HullLowTracker`] must agree with the O(n)-per-tick
//! [`NaiveLowTracker`] reference on random arrival streams and random
//! offline delays, tick by tick.

use cdba_core::bounds::{HullLowTracker, LowTracker, NaiveLowTracker};
use proptest::prelude::*;

/// Arrival streams that stress the hull: silence runs, moderate traffic,
/// heavy bursts, and (clamped) negative inputs mixed freely, weighted
/// 3 : 4 : 1 : 1.
fn arb_arrivals() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(
        (0u8..9, 0.0f64..1.0).prop_map(|(class, x)| match class {
            0..=2 => 0.0,
            3..=6 => x * 100.0,
            7 => 1_000.0 + x * (1e6 - 1_000.0),
            _ => -50.0 * x,
        }),
        1..160,
    )
}

fn close(naive: f64, hull: f64) -> bool {
    (naive - hull).abs() <= 1e-9 * naive.max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn hull_matches_naive_in_lockstep(
        arrivals in arb_arrivals(),
        d_o in 1usize..64,
    ) {
        let mut naive = NaiveLowTracker::new(d_o);
        let mut hull = HullLowTracker::new(d_o);
        let mut prev = 0.0f64;
        for (t, &a) in arrivals.iter().enumerate() {
            let ln = naive.push(a);
            let lh = hull.push(a);
            prop_assert!(
                close(ln, lh),
                "tick {t}, d_o={d_o}: naive {ln} hull {lh}"
            );
            // Both are running maxima: monotone, never negative.
            prop_assert!(lh >= prev, "low regressed at tick {t}: {prev} -> {lh}");
            prop_assert!(lh >= 0.0);
            prev = lh;
        }
        prop_assert_eq!(naive.ticks(), arrivals.len());
        prop_assert_eq!(hull.ticks(), arrivals.len());
    }
}
