//! Serial/parallel equivalence properties — the thread count is a pure
//! scheduling change: every result is bit-identical to the serial loop.
//!
//! The properties pin the worker pool to several widths, one thread (the
//! plain serial loop) included, and compare each against the identical
//! hand-rolled reference.

use cyclops_solver::{numeric_jacobian_into, DMat};
use proptest::prelude::*;

/// The residual family used by the Jacobian property: smooth, coupled, with
/// per-component curvature so every column is informative.
fn residual(x: &[f64]) -> Vec<f64> {
    (0..x.len() + 2)
        .map(|i| {
            let t = 0.3 + i as f64 * 0.41;
            x.iter()
                .enumerate()
                .map(|(j, &v)| (v * t + j as f64 * 0.17).sin() + v * v * t * 1e-2)
                .sum::<f64>()
        })
        .collect()
}

/// Hand-rolled serial central-difference Jacobian — the pre-parallel
/// algorithm, kept verbatim as the reference.
fn serial_jacobian(x: &[f64], rel_step: f64) -> DMat {
    let m = x.len() + 2;
    let n = x.len();
    let mut jac = DMat::zeros(m, n);
    for j in 0..n {
        let mut xp = x.to_vec();
        let h = rel_step * x[j].abs().max(1.0);
        xp[j] = x[j] + h;
        let rp = residual(&xp);
        xp[j] = x[j] - h;
        let rm = residual(&xp);
        let inv = 1.0 / (2.0 * h);
        for i in 0..m {
            jac[(i, j)] = (rp[i] - rm[i]) * inv;
        }
    }
    jac
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(24))]

    /// `numeric_jacobian_into` equals the serial reference bit-for-bit at any
    /// pool width.
    #[test]
    fn jacobian_bitwise_equals_serial_reference(
        x in proptest::collection::vec(-3.0..3.0f64, 1..7),
        threads in 1usize..9,
    ) {
        let reference = serial_jacobian(&x, 1e-7);
        let jac = cyclops_par::with_threads(threads, || {
            let mut jac = DMat::zeros(x.len() + 2, x.len());
            numeric_jacobian_into(&|v: &[f64]| residual(v), &x, 1e-7, &mut jac);
            jac
        });
        prop_assert_eq!(jac, reference);
    }
}
