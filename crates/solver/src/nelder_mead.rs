//! Nelder–Mead downhill simplex minimization.
//!
//! Derivative-free scalar minimizer. In Cyclops it serves as (a) a fallback /
//! cross-check for the Levenberg–Marquardt fits, and (b) the refinement stage
//! of the four-voltage alignment search where the objective (simulated
//! received power) is noisy enough that finite-difference Jacobians are
//! unreliable.

/// Options for [`nelder_mead`].
#[derive(Debug, Clone, Copy)]
pub struct NmOptions {
    /// Maximum objective evaluations.
    pub max_evals: usize,
    /// Stop when the simplex's objective spread is below this.
    pub tol_fun: f64,
    /// Stop when the simplex's diameter is below this.
    pub tol_x: f64,
    /// Initial simplex scale relative to `max(|x₀ᵢ|, 1)`.
    pub init_scale: f64,
}

impl Default for NmOptions {
    fn default() -> Self {
        NmOptions {
            max_evals: 2000,
            tol_fun: 1e-12,
            tol_x: 1e-10,
            init_scale: 0.05,
        }
    }
}

/// Result of a Nelder–Mead run.
#[derive(Debug, Clone)]
pub struct NmReport {
    /// Best parameter vector found.
    pub params: Vec<f64>,
    /// Objective at the best point.
    pub value: f64,
    /// Objective evaluations used.
    pub n_evals: usize,
    /// Whether a tolerance (rather than the budget) stopped the run.
    pub converged: bool,
}

/// Minimizes `f` starting from `x0` with the standard Nelder–Mead moves
/// (reflection α=1, expansion γ=2, contraction ρ=½, shrink σ=½).
pub fn nelder_mead<F>(mut f: F, x0: &[f64], opts: &NmOptions) -> NmReport
where
    F: FnMut(&[f64]) -> f64,
{
    let n = x0.len();
    assert!(n >= 1, "need at least one parameter");
    let mut n_evals = 0usize;
    let mut eval = |x: &[f64], n_evals: &mut usize| {
        *n_evals += 1;
        f(x)
    };

    // Initial simplex: x0 plus a perturbation of each coordinate.
    let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
    simplex.push(x0.to_vec());
    for i in 0..n {
        let mut v = x0.to_vec();
        let h = opts.init_scale * v[i].abs().max(1.0);
        v[i] += h;
        simplex.push(v);
    }
    let mut values: Vec<f64> = simplex.iter().map(|x| eval(x, &mut n_evals)).collect();

    let mut converged = false;
    while n_evals < opts.max_evals {
        // Order the simplex by objective.
        let mut idx: Vec<usize> = (0..=n).collect();
        idx.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
        let reorder = |v: &mut Vec<Vec<f64>>, w: &mut Vec<f64>, idx: &[usize]| {
            let nv: Vec<Vec<f64>> = idx.iter().map(|&i| v[i].clone()).collect();
            let nw: Vec<f64> = idx.iter().map(|&i| w[i]).collect();
            *v = nv;
            *w = nw;
        };
        reorder(&mut simplex, &mut values, &idx);

        // Convergence checks.
        let spread = values[n] - values[0];
        let diameter = simplex[1..]
            .iter()
            .map(|x| {
                x.iter()
                    .zip(&simplex[0])
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max)
            })
            .fold(0.0f64, f64::max);
        // Both criteria must hold (as in MATLAB's fminsearch): a symmetric
        // simplex straddling the minimum has zero objective spread while
        // still being far from converged in x.
        if spread.abs() < opts.tol_fun && diameter < opts.tol_x {
            converged = true;
            break;
        }

        // Centroid of all but the worst.
        let mut centroid = vec![0.0; n];
        for x in &simplex[..n] {
            for (c, xi) in centroid.iter_mut().zip(x) {
                *c += xi / n as f64;
            }
        }
        let worst = simplex[n].clone();
        let blend = |a: &[f64], b: &[f64], t: f64| -> Vec<f64> {
            a.iter().zip(b).map(|(x, y)| x + t * (y - x)).collect()
        };

        // Reflection.
        let xr = blend(&centroid, &worst, -1.0);
        let fr = eval(&xr, &mut n_evals);
        if fr < values[0] {
            // Expansion.
            let xe = blend(&centroid, &worst, -2.0);
            let fe = eval(&xe, &mut n_evals);
            if fe < fr {
                simplex[n] = xe;
                values[n] = fe;
            } else {
                simplex[n] = xr;
                values[n] = fr;
            }
        } else if fr < values[n - 1] {
            simplex[n] = xr;
            values[n] = fr;
        } else {
            // Contraction (outside if reflected is better than worst).
            let (xc, fc) = if fr < values[n] {
                let xc = blend(&centroid, &xr, 0.5);
                let fc = eval(&xc, &mut n_evals);
                (xc, fc)
            } else {
                let xc = blend(&centroid, &worst, 0.5);
                let fc = eval(&xc, &mut n_evals);
                (xc, fc)
            };
            if fc < values[n].min(fr) {
                simplex[n] = xc;
                values[n] = fc;
            } else {
                // Shrink towards the best vertex.
                for i in 1..=n {
                    simplex[i] = blend(&simplex[0], &simplex[i], 0.5);
                    values[i] = eval(&simplex[i], &mut n_evals);
                }
            }
        }
    }

    // Best vertex.
    let (best_i, _) = values
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .unwrap();
    NmReport {
        params: simplex[best_i].clone(),
        value: values[best_i],
        n_evals,
        converged,
    }
}

/// Runs [`nelder_mead`] from every start in `starts` and returns the best
/// result (lowest objective; ties broken by start index).
///
/// The restarts run concurrently; because each run is independent and the
/// winner is selected by an index-ordered scan, the result is bit-identical
/// to running the starts serially. `n_evals` in the report is the total
/// across all restarts.
///
/// # Panics
/// Panics if `starts` is empty.
pub fn nelder_mead_multistart<F>(f: &F, starts: &[Vec<f64>], opts: &NmOptions) -> NmReport
where
    F: crate::ScalarObjective,
{
    assert!(!starts.is_empty(), "need at least one start");
    let run = |x0: &Vec<f64>| nelder_mead(|x| f(x), x0, opts);
    let reports = cyclops_par::par_map(starts, 1, run);

    let total_evals: usize = reports.iter().map(|r| r.n_evals).sum();
    let mut best = None::<NmReport>;
    for rep in reports {
        // MSRV 1.75: spelled as a match rather than `Option::is_none_or`.
        let take = match &best {
            None => true,
            Some(b) => rep.value < b.value,
        };
        if take {
            best = Some(rep);
        }
    }
    let mut best = best.unwrap();
    best.n_evals = total_evals;
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadratic_bowl() {
        let f = |x: &[f64]| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2);
        let rep = nelder_mead(f, &[0.0, 0.0], &NmOptions::default());
        assert!(rep.converged);
        assert!((rep.params[0] - 3.0).abs() < 1e-4, "{:?}", rep.params);
        assert!((rep.params[1] + 1.0).abs() < 1e-4);
    }

    #[test]
    fn rosenbrock() {
        let f = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
        let rep = nelder_mead(
            f,
            &[-1.2, 1.0],
            &NmOptions {
                max_evals: 5000,
                ..Default::default()
            },
        );
        assert!((rep.params[0] - 1.0).abs() < 1e-3, "{:?}", rep.params);
        assert!((rep.params[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn one_dimensional() {
        let f = |x: &[f64]| (x[0] - 0.25).powi(2) + 7.0;
        let rep = nelder_mead(f, &[5.0], &NmOptions::default());
        assert!((rep.params[0] - 0.25).abs() < 1e-4);
        assert!((rep.value - 7.0).abs() < 1e-8);
    }

    #[test]
    fn four_dimensional_sphere() {
        // Mirrors the 4-voltage alignment refinement dimensionality.
        let f = |x: &[f64]| x.iter().map(|v| (v - 1.0) * (v - 1.0)).sum::<f64>();
        let rep = nelder_mead(f, &[0.0, 2.0, -1.0, 0.5], &NmOptions::default());
        for (i, p) in rep.params.iter().enumerate() {
            assert!((p - 1.0).abs() < 1e-3, "param {i} = {p}");
        }
    }

    #[test]
    fn respects_eval_budget() {
        let f = |x: &[f64]| x[0] * x[0];
        let rep = nelder_mead(
            f,
            &[100.0],
            &NmOptions {
                max_evals: 10,
                ..Default::default()
            },
        );
        assert!(rep.n_evals <= 12); // budget plus the move in flight
    }

    #[test]
    fn multistart_escapes_local_minimum() {
        // Double well: basin at x=-2 (value 1) and global at x=+2 (value 0).
        let f = |x: &[f64]| {
            let a = (x[0] + 2.0).powi(2) + 1.0;
            let b = (x[0] - 2.0).powi(2);
            a.min(b)
        };
        let single = nelder_mead(f, &[-3.0], &NmOptions::default());
        assert!((single.params[0] + 2.0).abs() < 1e-2, "stuck well expected");
        let starts = vec![vec![-3.0], vec![0.5], vec![3.0]];
        let multi = nelder_mead_multistart(&f, &starts, &NmOptions::default());
        assert!((multi.params[0] - 2.0).abs() < 1e-3, "{:?}", multi.params);
        assert!(multi.n_evals > single.n_evals);
    }

    #[test]
    fn multistart_bit_identical_across_thread_counts() {
        let f = |x: &[f64]| {
            (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2) + x[0].sin() * 0.01
        };
        let starts: Vec<Vec<f64>> = (0..6)
            .map(|i| vec![-2.0 + i as f64 * 0.8, 1.0 - i as f64 * 0.3])
            .collect();
        let opts = NmOptions::default();
        let reference = cyclops_par::with_threads(1, || nelder_mead_multistart(&f, &starts, &opts));
        for threads in [2, 3, 8] {
            let rep =
                cyclops_par::with_threads(threads, || nelder_mead_multistart(&f, &starts, &opts));
            assert_eq!(rep.params, reference.params, "threads={threads}");
            assert_eq!(rep.value.to_bits(), reference.value.to_bits());
            assert_eq!(rep.n_evals, reference.n_evals);
        }
    }

    #[test]
    fn tolerant_to_mild_noise() {
        // Deterministic "noise" from a hash of the input — NM should still
        // land near the basin bottom.
        let f = |x: &[f64]| {
            let base = (x[0] - 2.0).powi(2) + (x[1] - 2.0).powi(2);
            let h = ((x[0] * 1e4) as i64 ^ (x[1] * 1e4) as i64) % 100;
            base + h as f64 * 1e-9
        };
        let rep = nelder_mead(f, &[0.0, 0.0], &NmOptions::default());
        assert!((rep.params[0] - 2.0).abs() < 1e-2);
        assert!((rep.params[1] - 2.0).abs() < 1e-2);
    }
}
