//! Levenberg–Marquardt non-linear least squares.
//!
//! This is the workhorse behind both training stages of the Cyclops pointing
//! pipeline (§4.1(B) and §4.2). The paper uses `scipy.optimize` with "a good
//! initial guess" (from the galvo's CAD drawing and manual measurement); we
//! mirror that: callers provide the initial guess and this solver refines it.

use crate::jacobian::{numeric_jacobian_into, Residual};
use crate::linalg::DMat;

/// Why the optimizer stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LmStatus {
    /// Residual norm change fell below `tol_cost`.
    CostConverged,
    /// Parameter step fell below `tol_step`.
    StepConverged,
    /// Gradient (Jᵀr) norm fell below `tol_grad`.
    GradConverged,
    /// Iteration budget exhausted.
    MaxIterations,
    /// The damped normal equations became singular even at maximum damping.
    Singular,
}

/// Options for [`levenberg_marquardt`] and [`levenberg_marquardt_with`].
#[derive(Debug, Clone, Copy)]
pub struct LmOptions {
    /// Maximum outer iterations.
    pub max_iters: usize,
    /// Stop when the relative cost decrease is below this.
    pub tol_cost: f64,
    /// Stop when the parameter step norm is below this.
    pub tol_step: f64,
    /// Stop when the gradient norm is below this.
    pub tol_grad: f64,
    /// Initial damping factor λ.
    pub lambda_init: f64,
    /// Multiplier applied to λ on rejected steps (and its inverse on accepts).
    pub lambda_factor: f64,
    /// Relative finite-difference step for the numeric Jacobian.
    pub fd_rel_step: f64,
}

impl Default for LmOptions {
    fn default() -> Self {
        LmOptions {
            max_iters: 200,
            tol_cost: 1e-14,
            tol_step: 1e-12,
            tol_grad: 1e-12,
            lambda_init: 1e-3,
            lambda_factor: 10.0,
            fd_rel_step: 1e-7,
        }
    }
}

/// Result of a Levenberg–Marquardt run.
#[derive(Debug, Clone)]
pub struct LmReport {
    /// Best parameter vector found.
    pub params: Vec<f64>,
    /// Final cost `½‖r‖²`.
    pub cost: f64,
    /// Initial cost at the starting guess.
    pub initial_cost: f64,
    /// Outer iterations performed.
    pub iterations: usize,
    /// Number of residual-function evaluations.
    pub n_evals: usize,
    /// Why the solver stopped.
    pub status: LmStatus,
}

fn cost_of(r: &[f64]) -> f64 {
    0.5 * r.iter().map(|v| v * v).sum::<f64>()
}

/// Minimizes `½‖f(x)‖²` starting from `x0`.
///
/// `f` returns the residual vector; its length must be constant. The Jacobian
/// is computed numerically ([`crate::jacobian::numeric_jacobian_into`]), matching
/// how one would drive `scipy.optimize.least_squares` without analytic
/// derivatives. The Jacobian columns are evaluated concurrently —
/// bit-identical to the serial path — which is where the solver spends
/// nearly all of its time on the Cyclops fits.
pub fn levenberg_marquardt<F>(f: F, x0: &[f64], opts: &LmOptions) -> LmReport
where
    F: Residual,
{
    levenberg_marquardt_with(
        &f,
        |x: &[f64], rel_step: f64, jac: &mut DMat| numeric_jacobian_into(&f, x, rel_step, jac),
        x0,
        opts,
    )
}

/// [`levenberg_marquardt`] with the Jacobian supplied by `jacobian(x,
/// rel_step, jac)`, which must fill `jac` with the central differences of
/// [`numeric_jacobian_into`] at `x` (`rel_step` is `opts.fd_rel_step`):
/// each column costs two evaluations of `f` in [`LmReport::n_evals`]. A
/// caller whose residual has structure can compute the same differences
/// with less work. The Jacobian, normal matrix and step vectors live in
/// scratch buffers reused across iterations, so the per-iteration
/// allocations are only those of `f` and `jacobian`.
pub fn levenberg_marquardt_with<F, J>(f: F, jacobian: J, x0: &[f64], opts: &LmOptions) -> LmReport
where
    F: Fn(&[f64]) -> Vec<f64>,
    J: Fn(&[f64], f64, &mut DMat),
{
    let mut x = x0.to_vec();
    let mut r = f(&x);
    let m = r.len();
    let n = x.len();
    let mut n_evals = 1usize;
    let initial_cost = cost_of(&r);
    let mut cost = initial_cost;
    let mut lambda = opts.lambda_init;
    let mut status = LmStatus::MaxIterations;
    let mut iterations = 0usize;

    // Scratch storage reused across (inner and outer) iterations.
    let mut jac = DMat::zeros(m, n);
    let mut gram = DMat::zeros(n, n);
    let mut a = DMat::zeros(n, n);
    let mut grad = vec![0.0; n];
    let mut step = vec![0.0; n];
    let mut x_new = vec![0.0; n];

    for iter in 0..opts.max_iters {
        iterations = iter + 1;
        jacobian(&x, opts.fd_rel_step, &mut jac);
        n_evals += 2 * n;
        jac.t_mul_vec_into(&r, &mut grad);
        let grad_norm = grad.iter().map(|g| g * g).sum::<f64>().sqrt();
        if grad_norm < opts.tol_grad {
            status = LmStatus::GradConverged;
            break;
        }
        jac.gram_into(&mut gram);

        // Inner loop: increase damping until a step reduces the cost.
        let mut accepted = false;
        for _ in 0..32 {
            // Damped normal matrix: JᵀJ + λ·diag(JᵀJ) (Marquardt scaling),
            // with an absolute floor so flat directions stay regularized.
            a.copy_from(&gram);
            for i in 0..n {
                let d = gram[(i, i)];
                a[(i, i)] = d + lambda * d.max(1e-12);
            }
            for (s, g) in step.iter_mut().zip(&grad) {
                *s = -g;
            }
            if !a.solve_in_place(&mut step) {
                lambda *= opts.lambda_factor;
                continue;
            }
            for ((xn, xi), s) in x_new.iter_mut().zip(&x).zip(&step) {
                *xn = xi + s;
            }
            let r_new = f(&x_new);
            n_evals += 1;
            let cost_new = cost_of(&r_new);
            if cost_new < cost {
                let step_norm = step.iter().map(|s| s * s).sum::<f64>().sqrt();
                let rel_decrease = (cost - cost_new) / cost.max(1e-300);
                std::mem::swap(&mut x, &mut x_new);
                r = r_new;
                cost = cost_new;
                lambda = (lambda / opts.lambda_factor).max(1e-12);
                accepted = true;
                if rel_decrease < opts.tol_cost {
                    status = LmStatus::CostConverged;
                }
                if step_norm < opts.tol_step {
                    status = LmStatus::StepConverged;
                }
                break;
            }
            lambda *= opts.lambda_factor;
            if lambda > 1e12 {
                break;
            }
        }
        if !accepted {
            // Could not find a descending step even with huge damping: we are
            // at a (local) minimum or the problem is singular.
            if status == LmStatus::MaxIterations {
                status = LmStatus::Singular;
            }
            break;
        }
        if status != LmStatus::MaxIterations {
            break;
        }
    }

    LmReport {
        params: x,
        cost,
        initial_cost,
        iterations,
        n_evals,
        status,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_linear_least_squares_exactly() {
        // Overdetermined linear system: residuals r_i = a_i·x - b_i.
        let f = |x: &[f64]| {
            vec![
                x[0] + x[1] - 3.0,
                x[0] - x[1] - 1.0,
                2.0 * x[0] + x[1] - 5.0,
            ]
        };
        let rep = levenberg_marquardt(f, &[0.0, 0.0], &LmOptions::default());
        assert!(rep.cost < 1e-18, "cost {}", rep.cost);
        assert!((rep.params[0] - 2.0).abs() < 1e-8);
        assert!((rep.params[1] - 1.0).abs() < 1e-8);
    }

    #[test]
    fn rosenbrock_as_least_squares() {
        // Classic: r = [10(y - x²), 1 - x], minimum at (1, 1).
        let f = |x: &[f64]| vec![10.0 * (x[1] - x[0] * x[0]), 1.0 - x[0]];
        let rep = levenberg_marquardt(f, &[-1.2, 1.0], &LmOptions::default());
        assert!((rep.params[0] - 1.0).abs() < 1e-6, "{:?}", rep);
        assert!((rep.params[1] - 1.0).abs() < 1e-6);
        assert!(rep.cost < 1e-12);
    }

    #[test]
    fn exponential_curve_fit() {
        // Fit y = a·exp(b·t) to synthetic data from a=2, b=-0.7.
        let ts: Vec<f64> = (0..20).map(|i| i as f64 * 0.2).collect();
        let ys: Vec<f64> = ts.iter().map(|t| 2.0 * (-0.7 * t).exp()).collect();
        let f = move |p: &[f64]| -> Vec<f64> {
            ts.iter()
                .zip(&ys)
                .map(|(t, y)| p[0] * (p[1] * t).exp() - y)
                .collect()
        };
        let rep = levenberg_marquardt(f, &[1.0, 0.0], &LmOptions::default());
        assert!((rep.params[0] - 2.0).abs() < 1e-6, "{:?}", rep.params);
        assert!((rep.params[1] + 0.7).abs() < 1e-6);
    }

    #[test]
    fn reports_cost_decrease() {
        let f = |x: &[f64]| vec![x[0] - 5.0];
        let rep = levenberg_marquardt(f, &[0.0], &LmOptions::default());
        assert!(rep.initial_cost > rep.cost);
        assert!(rep.n_evals > 0);
        assert!(rep.iterations >= 1);
    }

    #[test]
    fn converges_from_good_guess_in_few_iterations() {
        // Mirrors the paper's setup: the initial guess is close (CAD data),
        // LM only refines. Must converge fast.
        let f = |x: &[f64]| vec![(x[0] - 1.0) * (x[0] + 3.0), x[1] - 2.0];
        let rep = levenberg_marquardt(f, &[1.05, 1.9], &LmOptions::default());
        assert!(rep.cost < 1e-16);
        assert!(rep.iterations < 20);
    }

    #[test]
    fn handles_singular_jacobian_gracefully() {
        // Residual ignores x[1] entirely: JᵀJ is singular; damping must cope.
        let f = |x: &[f64]| vec![x[0] - 1.0];
        let rep = levenberg_marquardt(f, &[10.0, 7.0], &LmOptions::default());
        assert!((rep.params[0] - 1.0).abs() < 1e-6);
        assert_eq!(rep.params[1], 7.0); // untouched direction
    }

    /// A hand-written central-difference routine: the differences of
    /// `numeric_jacobian_into`, column by column in a plain loop.
    fn serial_jacobian(f: &impl Fn(&[f64]) -> Vec<f64>, x: &[f64], rel: f64, jac: &mut DMat) {
        for j in 0..x.len() {
            let mut xp = x.to_vec();
            let h = rel * x[j].abs().max(1.0);
            xp[j] = x[j] + h;
            let rp = f(&xp);
            xp[j] = x[j] - h;
            let rm = f(&xp);
            let inv = 1.0 / (2.0 * h);
            for (i, (p, q)) in rp.iter().zip(&rm).enumerate() {
                jac[(i, j)] = (p - q) * inv;
            }
        }
    }

    #[test]
    fn both_entry_points_return_identical_reports() {
        let ts: Vec<f64> = (0..15).map(|i| i as f64 * 0.3).collect();
        let f = move |p: &[f64]| -> Vec<f64> {
            ts.iter()
                .map(|t| p[0] * (p[1] * t).exp() + p[2] * t.sin() - 1.5 + 0.1 * t)
                .collect()
        };
        for x0 in [[1.0, 0.0, 0.0], [0.3, -0.4, 2.0], [-2.0, 0.2, 0.7]] {
            let opts = LmOptions::default();
            let want = levenberg_marquardt(&f, &x0, &opts);
            for threads in [1, 4] {
                let got = cyclops_par::with_threads(threads, || {
                    levenberg_marquardt_with(
                        &f,
                        |x, rel, jac| serial_jacobian(&f, x, rel, jac),
                        &x0,
                        &opts,
                    )
                });
                let bits = |r: &LmReport| {
                    let mut b: Vec<u64> = r.params.iter().map(|v| v.to_bits()).collect();
                    b.extend([r.cost.to_bits(), r.initial_cost.to_bits()]);
                    (b, r.iterations, r.n_evals, r.status)
                };
                assert_eq!(bits(&got), bits(&want), "x0 {x0:?}, threads {threads}");
            }
        }
    }

    #[test]
    fn zero_residual_at_start_stops_immediately() {
        let f = |x: &[f64]| vec![x[0] - 1.0];
        let rep = levenberg_marquardt(f, &[1.0], &LmOptions::default());
        assert_eq!(rep.status, LmStatus::GradConverged);
        assert!(rep.cost < 1e-30);
    }
}
