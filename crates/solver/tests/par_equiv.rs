//! Serial/parallel equivalence properties — the thread count is a pure
//! scheduling change: every result is bit-identical to the serial loop.
//!
//! The properties pin the worker pool to several widths, one thread (the
//! plain serial loop) included, and compare each against the identical
//! hand-rolled reference.

use cyclops_solver::{
    grid_scan2, grid_scan2_sync, nelder_mead_multistart, numeric_jacobian, DMat, NmOptions,
};
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

    /// `numeric_jacobian` equals the serial reference bit-for-bit at any
    /// pool width.
    #[test]
    fn jacobian_bitwise_equals_serial_reference(
        x in proptest::collection::vec(-3.0..3.0f64, 1..7),
        threads in 1usize..9,
    ) {
        let reference = serial_jacobian(&x, 1e-7);
        let jac = cyclops_par::with_threads(threads, || {
            numeric_jacobian(&|v: &[f64]| residual(v), &x, x.len() + 2, 1e-7)
        });
        prop_assert_eq!(jac, reference);
    }

    /// The parallel 2-D grid scan picks exactly the serial scan's winner —
    /// including its first-wins tie-breaking — at any pool width. The
    /// objective is floor-quantized so exact ties genuinely occur.
    #[test]
    fn grid_scan_matches_serial_winner(
        cx in -4.0..4.0f64,
        cy in -4.0..4.0f64,
        quant in 1.0..8.0f64,
        threads in 1usize..9,
    ) {
        let f = move |v: &[f64]| {
            (-((v[0] - cx).powi(2) + (v[1] - cy).powi(2)) * quant).floor()
        };
        let serial = grid_scan2(&mut |v: &[f64]| f(v), &[0.0, 0.0], (0, 1),
                                (-5.0, -5.0), (5.0, 5.0), 33);
        let parallel = cyclops_par::with_threads(threads, || {
            grid_scan2_sync(&f, &[0.0, 0.0], (0, 1), (-5.0, -5.0), (5.0, 5.0), 33)
        });
        prop_assert_eq!(parallel.params.clone(), serial.params);
        prop_assert_eq!(parallel.value.to_bits(), serial.value.to_bits());
        prop_assert_eq!(parallel.n_evals, serial.n_evals);
    }

    /// Multi-start Nelder–Mead returns the same winner at any pool width.
    #[test]
    fn multistart_invariant_to_thread_count(
        shift in -2.0..2.0f64,
        threads in 2usize..9,
    ) {
        let f = move |x: &[f64]| {
            (x[0] - shift).powi(2) * (x[0] + shift).powi(2) + x[0].sin() * 0.05
        };
        let starts: Vec<Vec<f64>> = (0..5).map(|i| vec![-3.0 + i as f64 * 1.4]).collect();
        let opts = NmOptions::default();
        let reference = cyclops_par::with_threads(1, || nelder_mead_multistart(&f, &starts, &opts));
        let rep = cyclops_par::with_threads(threads, || nelder_mead_multistart(&f, &starts, &opts));
        prop_assert_eq!(rep.params, reference.params);
        prop_assert_eq!(rep.value.to_bits(), reference.value.to_bits());
        prop_assert_eq!(rep.n_evals, reference.n_evals);
    }
}
