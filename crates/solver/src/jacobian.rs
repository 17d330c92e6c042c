//! Numeric Jacobians (central differences).

use crate::linalg::DMat;

/// Residual functions accepted by the numeric-Jacobian and LM drivers.
///
/// Residual closures must be [`Sync`] so Jacobian columns can be evaluated
/// from worker threads. The alias is blanket-implemented, so callers never
/// name it — any suitable closure works.
pub trait Residual: Fn(&[f64]) -> Vec<f64> + Sync {}
impl<F: Fn(&[f64]) -> Vec<f64> + Sync> Residual for F {}

/// Computes the Jacobian `J[i][j] = ∂rᵢ/∂xⱼ` of a residual function by central
/// differences.
///
/// `f` maps a parameter vector to a residual vector of fixed length
/// `jac.rows`. The step for parameter `j` is `rel_step · max(|xⱼ|, 1)`,
/// which behaves well across the mixed metre/radian/volt parameter scales in
/// the Cyclops fits.
///
/// The result is written into a caller-owned matrix, so iterative solvers
/// (LM) can reuse one allocation across iterations.
///
/// Columns are evaluated in parallel. The result is bit-identical to the
/// serial evaluation: each column depends only on `x` and `j`, and columns
/// are written back in index order.
///
/// # Panics
/// Panics if `jac.cols != x.len()`.
pub fn numeric_jacobian_into<F>(f: &F, x: &[f64], rel_step: f64, jac: &mut DMat)
where
    F: Residual,
{
    central_differences_into(
        |xp: &[f64], _, out: &mut Vec<f64>| out.extend_from_slice(&f(xp)),
        x,
        rel_step,
        jac,
    );
}

/// The central differences of [`numeric_jacobian_into`] with the residual
/// at `xp` appended to an empty vector by `f(xp, j, out)`, where `xp`
/// differs from `x` only in component `j`: the same steps, perturbed
/// vectors and `(r⁺ − r⁻)·(1/2h)`, so a residual that reuses what
/// component `j` cannot change fills `jac` with the same bits as the plain
/// one.
///
/// The columns are split into the blocks of [`cyclops_par::par_blocks`],
/// one per thread. Each block keeps one perturbed vector and one `r⁺`,
/// `r⁻` pair for all its columns, and writes its differences into the
/// matrix at one thread, or into a row-major block whose row slices are
/// copied into the matrix otherwise. Every entry is the same subtraction
/// and product either way.
///
/// # Panics
/// Panics if `jac.cols != x.len()`.
pub fn central_differences_into<F>(f: F, x: &[f64], rel_step: f64, jac: &mut DMat)
where
    F: Fn(&[f64], usize, &mut Vec<f64>) + Sync,
{
    let n = x.len();
    let m = jac.rows;
    assert_eq!(jac.cols, n, "jacobian column count must match x.len()");
    if n == 0 {
        return;
    }
    if cyclops_par::max_threads() == 1 {
        differences(&f, x, rel_step, m, 0..n, |i, j, v| jac[(i, j)] = v);
        return;
    }
    let blocks = cyclops_par::par_blocks(n, 1, |cols| {
        let w = cols.len();
        let mut out = vec![0.0; m * w];
        differences(&f, x, rel_step, m, cols, |i, c, v| out[i * w + c] = v);
        out
    });
    for (cols, out) in &blocks {
        for (i, row) in out.chunks_exact(cols.len()).enumerate() {
            jac.row_mut(i)[cols.clone()].copy_from_slice(row);
        }
    }
}

/// The central differences of `f` at `x` for the columns `cols`: entry
/// `(i, j)`, column `j` being the `k`-th of `cols`, goes to `put(i, k, v)`.
/// One perturbed vector and one `r⁺`, `r⁻` pair serve every column.
fn differences<F>(
    f: &F,
    x: &[f64],
    rel_step: f64,
    m: usize,
    cols: std::ops::Range<usize>,
    mut put: impl FnMut(usize, usize, f64),
) where
    F: Fn(&[f64], usize, &mut Vec<f64>),
{
    let mut xp = x.to_vec();
    let (mut rp, mut rm) = (Vec::with_capacity(m), Vec::with_capacity(m));
    for (k, j) in cols.enumerate() {
        let h = rel_step * x[j].abs().max(1.0);
        xp[j] = x[j] + h;
        rp.clear();
        f(&xp, j, &mut rp);
        xp[j] = x[j] - h;
        rm.clear();
        f(&xp, j, &mut rm);
        xp[j] = x[j];
        debug_assert_eq!(rp.len(), m);
        debug_assert_eq!(rm.len(), m);
        let inv = 1.0 / (2.0 * h);
        for (i, (p, q)) in rp.iter().zip(&rm).enumerate() {
            put(i, k, (p - q) * inv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numeric_jacobian<F: Residual>(f: &F, x: &[f64], m: usize, rel_step: f64) -> DMat {
        let mut jac = DMat::zeros(m, x.len());
        numeric_jacobian_into(f, x, rel_step, &mut jac);
        jac
    }

    #[test]
    fn linear_function_exact() {
        // r = A x with A = [[1, 2], [3, 4], [5, 6]]: Jacobian is A.
        let f = |x: &[f64]| {
            vec![
                x[0] + 2.0 * x[1],
                3.0 * x[0] + 4.0 * x[1],
                5.0 * x[0] + 6.0 * x[1],
            ]
        };
        let j = numeric_jacobian(&f, &[0.7, -0.3], 3, 1e-6);
        let expect = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]];
        for r in 0..3 {
            for c in 0..2 {
                assert!((j[(r, c)] - expect[r][c]).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn nonlinear_function() {
        // r = [x², sin(y)]: J = [[2x, 0], [0, cos(y)]].
        let f = |x: &[f64]| vec![x[0] * x[0], x[1].sin()];
        let x = [1.5, 0.4];
        let j = numeric_jacobian(&f, &x, 2, 1e-6);
        assert!((j[(0, 0)] - 3.0).abs() < 1e-6);
        assert!(j[(0, 1)].abs() < 1e-9);
        assert!(j[(1, 0)].abs() < 1e-9);
        assert!((j[(1, 1)] - 0.4f64.cos()).abs() < 1e-6);
    }

    #[test]
    fn step_scales_with_parameter_magnitude() {
        // For very large parameters a fixed step would lose all precision;
        // relative stepping keeps the error controlled.
        let f = |x: &[f64]| vec![x[0] * 1e-6];
        let j = numeric_jacobian(&f, &[1e9], 1, 1e-7);
        assert!((j[(0, 0)] - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn into_variant_matches_and_reuses_buffer() {
        let f = |x: &[f64]| vec![x[0].sin() * x[1], x[0] + x[1] * x[1], x[0] * x[1]];
        let x = [0.3, -1.2];
        let fresh = numeric_jacobian(&f, &x, 3, 1e-7);
        let mut reused = DMat::zeros(3, 2);
        for _ in 0..3 {
            numeric_jacobian_into(&f, &x, 1e-7, &mut reused);
        }
        assert_eq!(fresh, reused);
    }

    /// The parallel column evaluation must be bit-identical to a plain serial
    /// loop, for any thread count.
    #[test]
    fn parallel_columns_bit_identical_to_serial() {
        let f = |x: &[f64]| -> Vec<f64> {
            (0..7)
                .map(|i| {
                    let t = i as f64 * 0.37;
                    (x[0] * t).sin() + x[1] * t * t - (x[2] + t).exp() * 1e-3 + x[3] / (1.0 + t)
                })
                .collect()
        };
        let x = [0.21f64, -1.7, 0.05, 3.3];
        let rel = 1e-7f64;
        // Hand-rolled serial reference (the pre-parallel algorithm).
        let mut reference = DMat::zeros(7, 4);
        for j in 0..4 {
            let mut xp = x.to_vec();
            let h = rel * x[j].abs().max(1.0);
            xp[j] = x[j] + h;
            let rp = f(&xp);
            xp[j] = x[j] - h;
            let rm = f(&xp);
            let inv = 1.0 / (2.0 * h);
            for i in 0..7 {
                reference[(i, j)] = (rp[i] - rm[i]) * inv;
            }
        }
        for threads in [1, 2, 3, 8] {
            let jac = cyclops_par::with_threads(threads, || numeric_jacobian(&f, &x, 7, rel));
            assert_eq!(jac, reference, "threads={threads}");
        }
    }
}
