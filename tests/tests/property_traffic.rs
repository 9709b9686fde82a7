//! Property-based tests on the traffic substrate: conditioner soundness,
//! codec roundtrips, trace arithmetic, and the Claim 9 feasibility
//! predicate.

use cdba_bench::replay::{workload_kind, ReplaySpec};
use cdba_traffic::conditioner::{self, ShapeMode};
use cdba_traffic::{codec, MultiTrace, Trace};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The traffic models a `ReplaySpec` can name.
const MODELS: [&str; 7] = [
    "cbr", "poisson", "onoff", "mmpp", "pareto", "video", "spike",
];

fn arb_trace() -> impl Strategy<Value = Trace> {
    proptest::collection::vec(0.0f64..500.0, 1..200)
        .prop_map(|v| Trace::new(v).expect("valid arrivals"))
}

fn arb_short_trace() -> impl Strategy<Value = Trace> {
    proptest::collection::vec(0.0f64..50.0, 1..40).prop_map(|v| Trace::new(v).unwrap())
}

/// A model row and the fraction of its demand bound to condition it to.
fn arb_model_row() -> impl Strategy<Value = (Trace, f64)> {
    (0..MODELS.len(), 0..u64::MAX, 1usize..300, 0.05f64..0.95).prop_map(
        |(model, seed, len, fraction)| {
            let kind = workload_kind(MODELS[model]).unwrap();
            let row = kind
                .generate(&mut StdRng::seed_from_u64(seed), len)
                .unwrap();
            (row, fraction)
        },
    )
}

/// `Trace::demand_bound` as a plain bisection: every probe scans the whole
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

    /// Neither the solved density nor the early exit changes a probe's
    /// answer, so the bisection walks the same path to the same bits. The
    /// third input is the harness's shape: a row conditioned to a bound
    /// and doubled, whose probes land closest to the density.
    #[test]
    fn demand_bound_matches_full_scan_oracle(
        long in arb_trace(), short in arb_short_trace(), model_row in arb_model_row(),
    ) {
        let (row, fraction) = model_row;
        for d in [1usize, 4, 8, 64, 1000] {
            let mut traces = vec![long.clone(), short.clone()];
            let bound = row.demand_bound(d);
            if bound > 0.0 {
                let scaled = conditioner::scale_to_feasible(&row, fraction * bound, d).unwrap();
                traces.push(scaled.concat(&scaled));
            }
            for trace in &traces {
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

/// Asserts `demand_bound` returns the full-scan bisection's bits on
/// `trace` at `delay`.
fn assert_oracle_bits(trace: &Trace, delay: usize, what: &str) {
    assert_eq!(
        trace.demand_bound(delay).to_bits(),
        demand_bound_full_scan(trace, delay).to_bits(),
        "{what}, delay {delay}, {} ticks long",
        trace.len()
    );
}

/// The rows `spec.bank()` draws before `scale_to_feasible` conditions them.
fn raw_bank_rows(spec: &ReplaySpec) -> Vec<Trace> {
    let kind = workload_kind(&spec.model).unwrap();
    let mut rng = StdRng::seed_from_u64(spec.seed);
    (0..spec.rows())
        .map(|_| kind.generate(&mut rng, spec.ticks as usize).unwrap())
        .collect()
}

/// Every bank a `ReplaySpec` draws at stackbench's two periods, row by row
/// — raw as drawn, conditioned, and conditioned then doubled as the harness
/// doubles it — plus `lean-256`'s own four banks. Seeds 0 and 9 hold rows
/// whose probes land inside the band `demand_bound` scans. Then rows built
/// to walk each branch of the solver: its first window is not where the
/// densest window lies, two windows tie, the densest window touches tick 0
/// or the last tick, and a lone spike under a long delay.
#[test]
fn demand_bound_matches_full_scan_oracle_on_replay_banks() {
    let mut specs = Vec::new();
    for model in MODELS {
        for ticks in [32u64, 2048] {
            for seed in [0, 9] {
                specs.push(ReplaySpec {
                    sessions: 64,
                    ticks,
                    seed,
                    model: model.into(),
                    ..ReplaySpec::default()
                });
            }
        }
    }
    // lean-256: 256 sessions draw banks 0xCDBA·64 + b for b < 4.
    for b in 0..4 {
        specs.push(ReplaySpec {
            sessions: 256,
            ticks: 2048,
            seed: 0xCDBA * 64 + b,
            ..ReplaySpec::default()
        });
    }
    for spec in &specs {
        let what = |r: usize, kind: &str| {
            format!(
                "{}, {} ticks, seed {}, {kind} row {r}",
                spec.model, spec.ticks, spec.seed
            )
        };
        for (r, row) in raw_bank_rows(spec).iter().enumerate() {
            assert_oracle_bits(row, spec.d_o, &what(r, "raw"));
        }
        for (r, row) in spec.bank().unwrap().sessions().iter().enumerate() {
            assert_oracle_bits(row, spec.d_o, &what(r, "bank"));
            assert_oracle_bits(&row.concat(row), spec.d_o, &what(r, "doubled bank"));
        }
    }

    let row = |parts: &[(f64, usize)]| -> Trace {
        parts
            .iter()
            .flat_map(|&(bits, ticks)| std::iter::repeat_n(bits, ticks))
            .collect()
    };
    let cases = [
        // At the first probe the long moderate stretch has the largest
        // excess; the short burst 300 ticks after it is densest.
        (
            "densest window outside the first",
            row(&[(6.0, 1000), (0.0, 300), (40.0, 10), (0.0, 50)]),
        ),
        (
            "two disjoint windows, equal density",
            row(&[(0.0, 7), (10.0, 3), (0.0, 40), (10.0, 3), (0.0, 7)]),
        ),
        ("densest window at tick 0", row(&[(50.0, 5), (1.0, 100)])),
        (
            "densest window at the last tick",
            row(&[(1.0, 100), (50.0, 5)]),
        ),
        (
            "dense windows at both ends",
            row(&[(50.0, 5), (0.5, 200), (50.0, 5)]),
        ),
        ("lone spike", row(&[(0.0, 500), (1000.0, 1), (0.0, 500)])),
        ("one tick", row(&[(3.0, 1)])),
    ];
    for (what, trace) in &cases {
        for delay in [1usize, 4, 8, 64, 1000] {
            assert_oracle_bits(trace, delay, what);
            assert_oracle_bits(&trace.concat(trace), delay, what);
        }
    }
}
