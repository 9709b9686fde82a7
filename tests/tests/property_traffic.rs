//! Property-based tests on the traffic substrate: conditioner soundness,
//! codec roundtrips, trace arithmetic, and the Claim 9 feasibility
//! predicate.

use cdba_bench::replay::{workload_kind, ReplaySpec};
use cdba_integration::{fnv1a, proptest_cases};
use cdba_traffic::conditioner::{self, ShapeMode};
use cdba_traffic::{codec, MultiTrace, Trace, TraceError};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
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

/// Claim 9's excess `max IN[x, y) − bandwidth·(y − x)` by Kadane's scan in
/// the `(run + a - b).max(0.0)` form, written here so that the oracles
/// share no code with the `Trace` kernels they check.
fn excess_reference(arrivals: &[f64], bandwidth: f64) -> f64 {
    let (mut best, mut run) = (0.0f64, 0.0f64);
    for &a in arrivals {
        run = (run + a - bandwidth).max(0.0);
        best = best.max(run);
    }
    best
}

/// `Trace::demand_bound` as a plain bisection: every probe scans the whole
/// trace with [`excess_reference`].
fn demand_bound_full_scan(trace: &Trace, delay: usize) -> f64 {
    if trace.total() == 0.0 {
        return 0.0;
    }
    let arrivals = trace.arrivals();
    let peak = arrivals.iter().copied().fold(0.0, f64::max);
    let mut lo = 0.0f64;
    let mut hi = peak.max(trace.mean_rate()).max(1e-12);
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if excess_reference(arrivals, mid) <= mid * delay as f64 {
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

/// An arrival cell: zeros of both signs, a value others tie with, a large
/// or a tiny magnitude, `f64::MAX` or an ordinary value, so that sums round.
fn arb_cell() -> impl Strategy<Value = f64> {
    (0u8..10, 0.0f64..500.0).prop_map(|(kind, v)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => 5.0,
        3 => v * 1e13,
        4 => v * 1e-300,
        5 => f64::MAX,
        _ => v,
    })
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// `t` holds exactly `arrivals` and the prefix sums a serial loop takes
/// over them: every `cumulative(t)` and `total()`, bit for bit.
fn assert_serial_bits(t: &Trace, arrivals: &[f64]) -> Result<(), TestCaseError> {
    prop_assert_eq!(bits(t.arrivals()), bits(arrivals));
    let mut sums = vec![0.0f64];
    let mut acc = 0.0f64;
    for &a in arrivals {
        acc += a;
        sums.push(acc);
    }
    let got: Vec<f64> = (0..=arrivals.len()).map(|i| t.cumulative(i)).collect();
    prop_assert_eq!(bits(&got), bits(&sums));
    prop_assert_eq!(t.total().to_bits(), acc.to_bits());
    Ok(())
}

/// The result `Trace::new` must give for `arrivals`: the serial sums, or
/// the first tick that is not finite and non-negative.
fn assert_built_like_serial(
    built: Result<Trace, TraceError>,
    arrivals: &[f64],
) -> Result<(), TestCaseError> {
    let first_bad = arrivals
        .iter()
        .position(|&v| !v.is_finite() || v < 0.0)
        .map(|tick| (tick, arrivals[tick].to_bits()));
    match (built, first_bad) {
        (Ok(t), None) => assert_serial_bits(&t, arrivals),
        (Err(TraceError::InvalidArrival { tick, value }), Some(want)) => {
            prop_assert_eq!((tick, value.to_bits()), want);
            Ok(())
        }
        (got, want) => Err(TestCaseError::fail(format!("{got:?}, want {want:?}"))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases(64)))]

    /// Every constructor's arrivals and prefix sums are the serial
    /// loop's, bit for bit; a scale that overflows a cell is refused.
    #[test]
    fn constructors_match_the_serial_reference_bitwise(
        pair in proptest::collection::vec((arb_cell(), arb_cell()), 1..80),
        factor in (0u8..4, 0.0f64..4.0).prop_map(|(k, f)| if k == 0 { f * 1e300 } else { f }),
        pad in 0usize..40,
    ) {
        let (left, right): (Vec<f64>, Vec<f64>) = pair.into_iter().unzip();
        let a = Trace::new(left.clone()).unwrap();
        let b = Trace::new(right.clone()).unwrap();
        assert_serial_bits(&a, &left)?;
        assert_serial_bits(&left.iter().copied().collect::<Trace>(), &left)?;
        assert_serial_bits(&a.clone().rebuild(), &left)?;

        let scaled: Vec<f64> = left.iter().map(|v| v * factor).collect();
        assert_built_like_serial(a.scale(factor), &scaled)?;
        let sum: Vec<f64> = left.iter().zip(&right).map(|(x, y)| x + y).collect();
        assert_built_like_serial(a.add(&b), &sum)?;

        let joined = [left.as_slice(), &right].concat();
        assert_serial_bits(&a.concat(&b), &joined)?;
        let twice = [joined.as_slice(), &left].concat();
        assert_serial_bits(&a.concat(&b).concat(&a), &twice)?;
        // Deserialized without `rebuild`: no prefix sums to continue.
        let raw = |t: &Trace| -> Trace {
            serde_json::from_str(&serde_json::to_string(t).unwrap()).unwrap()
        };
        assert_serial_bits(&raw(&a).concat(&b), &joined)?;
        assert_serial_bits(&a.concat(&raw(&b)), &joined)?;
        assert_serial_bits(&raw(&a).rebuild(), &left)?;

        let padded = [left.as_slice(), &vec![0.0; pad]].concat();
        assert_serial_bits(&a.pad_zeros(pad), &padded)?;
    }

    /// `excess_over` is the `(run + a - b).max(0.0)` scan's value, bit for
    /// bit up to the sign of a zero, on rows with zeros, ties, large
    /// values and one tick.
    #[test]
    fn excess_over_matches_the_reference_scan_bitwise(
        cells in proptest::collection::vec(arb_cell(), 1..60),
        bandwidth in (0u8..5, 0.0f64..500.0).prop_map(|(k, v)| match k {
            0 => 0.0,
            1 => 5.0,
            2 => v * 1e300,
            _ => v,
        }),
    ) {
        for row in [&cells[..], &cells[..1]] {
            let got = Trace::new(row.to_vec()).unwrap().excess_over(bandwidth);
            let want = excess_reference(row, bandwidth);
            prop_assert!(
                got.to_bits() == want.to_bits() || (got == 0.0 && want == 0.0),
                "{got} vs {want} at {bandwidth} over {row:?}"
            );
        }
    }
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

/// Each model's 2,048-tick row at seed 47, hashed over its arrivals' bits
/// (`to_bits`, little-endian, FNV-1a). Computed with the tick-by-tick
/// constructors these rows were first built with; a change that claims the
/// same bits does not re-pin them.
#[test]
fn generators_emit_their_pinned_bits() {
    let pins: [u64; 7] = [
        239160890826567649,
        5771204051214246453,
        3043159229962861477,
        15201405065873078988,
        9938892303642797201,
        4253814180951181580,
        18242047630358776101,
    ];
    for (model, pin) in MODELS.into_iter().zip(pins) {
        let row = workload_kind(model)
            .unwrap()
            .generate(&mut StdRng::seed_from_u64(47), 2048)
            .unwrap();
        let bytes: Vec<u8> = row
            .arrivals()
            .iter()
            .flat_map(|a| a.to_bits().to_le_bytes())
            .collect();
        assert_eq!(fnv1a(&bytes), pin, "{model}");
    }
}
