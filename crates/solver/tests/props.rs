//! Property-based tests for the optimization substrate.

use cyclops_solver::lm::{levenberg_marquardt, LmOptions};
use cyclops_solver::pattern::{pattern_search, PatternOptions};
use cyclops_solver::scalar::bisect_threshold;
use cyclops_solver::stats::{quantile, ResidualStats};
use proptest::prelude::*;

proptest! {
    /// LM never ends with a higher cost than it started with.
    #[test]
    fn lm_never_increases_cost(a in -5.0..5.0f64, b in -5.0..5.0f64,
                               x0 in -3.0..3.0f64, y0 in -3.0..3.0f64) {
        let f = move |x: &[f64]| vec![(x[0] - a) * (x[0] + b), x[1] - a * b];
        let rep = levenberg_marquardt(f, &[x0, y0], &LmOptions::default());
        prop_assert!(rep.cost <= rep.initial_cost + 1e-12);
    }

    /// LM solves any consistent 2×2 linear system exactly.
    #[test]
    fn lm_solves_linear_systems(m00 in -3.0..3.0f64, m01 in -3.0..3.0f64,
                                m10 in -3.0..3.0f64, m11 in -3.0..3.0f64,
                                tx in -2.0..2.0f64, ty in -2.0..2.0f64) {
        prop_assume!((m00 * m11 - m01 * m10).abs() > 0.1); // well-conditioned
        let b0 = m00 * tx + m01 * ty;
        let b1 = m10 * tx + m11 * ty;
        let f = move |x: &[f64]| vec![m00 * x[0] + m01 * x[1] - b0, m10 * x[0] + m11 * x[1] - b1];
        let rep = levenberg_marquardt(f, &[0.0, 0.0], &LmOptions::default());
        prop_assert!((rep.params[0] - tx).abs() < 1e-5, "{:?}", rep.params);
        prop_assert!((rep.params[1] - ty).abs() < 1e-5);
    }

    /// Pattern search respects its box bounds.
    #[test]
    fn pattern_respects_bounds(peak in -20.0..20.0f64, lo in -5.0..-1.0f64, hi in 1.0..5.0f64) {
        let f = move |x: &[f64]| -(x[0] - peak).powi(2);
        let opts = PatternOptions::uniform(1, lo, hi, 1.0);
        let rep = pattern_search(f, &[0.0], &opts);
        prop_assert!(rep.params[0] >= lo - 1e-12 && rep.params[0] <= hi + 1e-12);
        // And finds the clamped optimum.
        let expect = peak.clamp(lo, hi);
        prop_assert!((rep.params[0] - expect).abs() < 1e-3,
            "peak {peak}, got {}", rep.params[0]);
    }

    /// Threshold bisection brackets the true threshold from below.
    #[test]
    fn bisect_brackets_threshold(thr in 0.1..9.9f64) {
        let t = bisect_threshold(|x| x < thr, 0.0, 10.0, 1e-9);
        prop_assert!(t <= thr);
        prop_assert!(thr - t < 1e-6);
    }

    /// Quantiles are monotone and bounded by the extremes.
    #[test]
    fn quantiles_monotone(mut values in prop::collection::vec(-100.0..100.0f64, 2..60),
                          qa in 0.0..1.0f64, qb in 0.0..1.0f64) {
        let (lo_q, hi_q) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        let a = quantile(&values, lo_q);
        let b = quantile(&values, hi_q);
        prop_assert!(a <= b + 1e-12);
        values.sort_by(|x, y| x.partial_cmp(y).unwrap());
        prop_assert!(a >= values[0] - 1e-12);
        prop_assert!(b <= values[values.len() - 1] + 1e-12);
    }

    /// Residual statistics are internally consistent.
    #[test]
    fn stats_consistency(values in prop::collection::vec(0.0..50.0f64, 1..40)) {
        let s = ResidualStats::from_slice(&values);
        prop_assert!(s.min <= s.mean + 1e-12);
        prop_assert!(s.mean <= s.max + 1e-12);
        prop_assert!(s.mean <= s.rms + 1e-9, "mean {} rms {}", s.mean, s.rms);
        prop_assert_eq!(s.n, values.len());
    }
}
