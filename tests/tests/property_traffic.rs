//! Property-based tests on the traffic substrate: conditioner soundness,
//! codec roundtrips, trace arithmetic, and the Claim 9 feasibility
//! predicate.

use cdba_traffic::conditioner::{self, ShapeMode};
use cdba_traffic::{codec, MultiTrace, Trace};
use proptest::prelude::*;

fn arb_trace() -> impl Strategy<Value = Trace> {
    proptest::collection::vec(0.0f64..500.0, 1..200)
        .prop_map(|v| Trace::new(v).expect("valid arrivals"))
}

fn arb_short_trace() -> impl Strategy<Value = Trace> {
    proptest::collection::vec(0.0f64..50.0, 1..40).prop_map(|v| Trace::new(v).unwrap())
}

/// `Trace::demand_bound` as it was before its bisection predicate learnt
/// to stop at the first run past the limit: every probe scans the whole
/// trace with `excess_over`.
fn demand_bound_full_scan(trace: &Trace, delay: usize) -> f64 {
    if trace.total() == 0.0 {
        return 0.0;
    }
    let mut lo = 0.0f64;
    let mut hi = trace.peak().max(trace.mean_rate()).max(1e-12);
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if trace.excess_over(mid) <= mid * delay as f64 {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn scale_to_feasible_is_sound_and_maximal(
        trace in arb_trace(), b in 1.0f64..100.0, d in 0usize..20,
    ) {
        let scaled = conditioner::scale_to_feasible(&trace, b, d).unwrap();
        prop_assert!(conditioner::is_feasible(&scaled, b, d));
        // Maximality: if the input was infeasible, scaling the result up by
        // 1% must break feasibility again.
        if !conditioner::is_feasible(&trace, b, d) {
            let bumped = scaled.scale(1.01).unwrap();
            prop_assert!(!conditioner::is_feasible(&bumped, b * 0.999, d));
        }
    }

    #[test]
    fn defer_shaping_preserves_bits_and_is_feasible(
        trace in arb_trace(), b in 1.0f64..100.0, d in 0usize..20,
    ) {
        let shaped = conditioner::shape_to_feasible(&trace, b, d, ShapeMode::Defer).unwrap();
        prop_assert!(conditioner::is_feasible(&shaped, b, d));
        prop_assert!((shaped.total() - trace.total()).abs() < 1e-6 * trace.total().max(1.0));
    }

    #[test]
    fn drop_shaping_never_creates_bits(
        trace in arb_trace(), b in 1.0f64..100.0, d in 0usize..20,
    ) {
        let shaped = conditioner::shape_to_feasible(&trace, b, d, ShapeMode::Drop).unwrap();
        prop_assert!(conditioner::is_feasible(&shaped, b, d));
        prop_assert!(shaped.total() <= trace.total() + 1e-9);
        prop_assert_eq!(shaped.len(), trace.len());
    }

    #[test]
    fn feasibility_matches_claim9_definition(
        trace in arb_short_trace(),
        b in 0.5f64..20.0,
        d in 0usize..10,
    ) {
        let fast = conditioner::is_feasible(&trace, b, d);
        let mut brute = true;
        for x in 0..trace.len() {
            for y in (x + 1)..=trace.len() {
                if trace.window(x, y) > ((y - x + d) as f64) * b + 1e-6 {
                    brute = false;
                }
            }
        }
        prop_assert_eq!(fast, brute);
    }

    #[test]
    fn codec_roundtrips_exactly(trace in arb_trace()) {
        let back = codec::decode(codec::encode(&trace)).unwrap();
        prop_assert_eq!(back, trace);
    }

    #[test]
    fn multi_codec_roundtrips(
        sessions in (1usize..5, 1usize..50).prop_flat_map(|(k, len)| {
            proptest::collection::vec(
                proptest::collection::vec(0.0f64..100.0, len..=len), k..=k)
        })
    ) {
        let m = MultiTrace::new(
            sessions.into_iter().map(|s| Trace::new(s).unwrap()).collect()
        ).unwrap();
        let back = codec::decode_multi(codec::encode_multi(&m)).unwrap();
        prop_assert_eq!(back, m);
    }

    #[test]
    fn window_sums_are_consistent(trace in arb_trace(), a in 0usize..250, b in 0usize..250) {
        let direct = trace.window(a, b);
        let via_cumulative = (trace.cumulative(b) - trace.cumulative(a)).max(0.0);
        if a < b {
            prop_assert!((direct - via_cumulative).abs() < 1e-9);
        } else {
            prop_assert_eq!(direct, 0.0);
        }
    }

    /// The early exit cannot change a probe's answer (the maximum run is
    /// past the limit as soon as one run is), so the bisection walks the
    /// same path to the same bits.
    #[test]
    fn demand_bound_matches_full_scan_oracle(long in arb_trace(), short in arb_short_trace()) {
        for trace in [&long, &short] {
            for d in [1usize, 4, 8, 64] {
                prop_assert_eq!(
                    trace.demand_bound(d).to_bits(),
                    demand_bound_full_scan(trace, d).to_bits()
                );
            }
        }
    }

    #[test]
    fn demand_bound_is_feasibility_threshold(trace in arb_trace(), d in 1usize..16) {
        let bound = trace.demand_bound(d);
        if bound > 0.0 {
            prop_assert!(conditioner::is_feasible(&trace, bound * 1.001, d));
            prop_assert!(!conditioner::is_feasible(&trace, bound * 0.98, d));
        }
    }
}
