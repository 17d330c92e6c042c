//! Coarse-to-fine pattern search (the "automated exhaustive search").
//!
//! §4.2 aligns the link by exhaustively searching the four galvo voltages for
//! maximum received power, taking "1–2 mins" per sample on the bench. A naive
//! full grid over four voltage axes is astronomically large, so — as in the
//! authors' earlier FSONet system \[32\] — the practical implementation is a
//! multi-resolution search: evaluate a coarse grid pattern around the current
//! point, move to the best neighbour, shrink the step when no neighbour
//! improves. This module implements that.

/// Options for [`pattern_search`].
#[derive(Debug, Clone)]
pub struct PatternOptions {
    /// Initial step per dimension.
    pub init_step: Vec<f64>,
    /// Terminate when every step falls below this factor of its initial value.
    pub shrink_tol: f64,
    /// Step shrink factor applied when no neighbour improves.
    pub shrink_factor: f64,
    /// Maximum objective evaluations.
    pub max_evals: usize,
    /// Lower bounds per dimension (clamped).
    pub lower: Vec<f64>,
    /// Upper bounds per dimension (clamped).
    pub upper: Vec<f64>,
}

impl PatternOptions {
    /// Uniform configuration for `n` dimensions in `[lo, hi]` with initial
    /// step `step`.
    pub fn uniform(n: usize, lo: f64, hi: f64, step: f64) -> PatternOptions {
        PatternOptions {
            init_step: vec![step; n],
            shrink_tol: 1e-4,
            shrink_factor: 0.5,
            max_evals: 200_000,
            lower: vec![lo; n],
            upper: vec![hi; n],
        }
    }
}

/// Result of a pattern search.
#[derive(Debug, Clone)]
pub struct PatternReport {
    /// Best point found.
    pub params: Vec<f64>,
    /// Objective at the best point (the *maximum*).
    pub value: f64,
    /// Evaluations used.
    pub n_evals: usize,
}

/// Maximizes `f` by compass/pattern search starting from `x0`.
///
/// Deterministic, derivative-free and robust to plateaus — exactly what the
/// four-voltage received-power landscape needs (power is ~flat at zero until
/// the beam begins to graze the receive aperture).
pub fn pattern_search<F>(mut f: F, x0: &[f64], opts: &PatternOptions) -> PatternReport
where
    F: FnMut(&[f64]) -> f64,
{
    let n = x0.len();
    assert_eq!(opts.init_step.len(), n);
    assert_eq!(opts.lower.len(), n);
    assert_eq!(opts.upper.len(), n);

    let clamp = |x: &mut Vec<f64>| {
        for (xi, (lo, hi)) in x.iter_mut().zip(opts.lower.iter().zip(&opts.upper)) {
            *xi = xi.clamp(*lo, *hi);
        }
    };

    let mut x = x0.to_vec();
    clamp(&mut x);
    let mut n_evals = 0usize;
    let mut best = f(&x);
    n_evals += 1;
    let mut step: Vec<f64> = opts.init_step.clone();

    loop {
        if n_evals >= opts.max_evals {
            break;
        }
        let mut improved = false;
        // Compass moves: ± step along each axis.
        for dim in 0..n {
            for sign in [1.0f64, -1.0] {
                let mut cand = x.clone();
                cand[dim] += sign * step[dim];
                clamp(&mut cand);
                if cand == x {
                    continue;
                }
                let v = f(&cand);
                n_evals += 1;
                if v > best {
                    best = v;
                    x = cand;
                    improved = true;
                }
                if n_evals >= opts.max_evals {
                    break;
                }
            }
        }
        if !improved {
            // Shrink the pattern.
            let mut all_small = true;
            for (s, s0) in step.iter_mut().zip(&opts.init_step) {
                *s *= opts.shrink_factor;
                if *s > opts.shrink_tol * s0 {
                    all_small = false;
                }
            }
            if all_small {
                break;
            }
        }
    }

    PatternReport {
        params: x,
        value: best,
        n_evals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_peak_of_gaussian() {
        let f = |x: &[f64]| (-(x[0] - 0.3).powi(2) - (x[1] + 0.7).powi(2)).exp();
        let opts = PatternOptions::uniform(2, -5.0, 5.0, 1.0);
        let rep = pattern_search(f, &[0.0, 0.0], &opts);
        assert!((rep.params[0] - 0.3).abs() < 1e-3, "{:?}", rep.params);
        assert!((rep.params[1] + 0.7).abs() < 1e-3);
    }

    #[test]
    fn four_dimensional_alignment_shape() {
        // A product of two 2-D Gaussians — the structure of TX/RX voltage
        // alignment (two nearly independent pairs).
        let f = |x: &[f64]| {
            (-(x[0] - 1.0).powi(2) - (x[1] - 2.0).powi(2)).exp()
                * (-(x[2] + 1.5).powi(2) - (x[3] - 0.5).powi(2)).exp()
        };
        let opts = PatternOptions::uniform(4, -10.0, 10.0, 2.0);
        let rep = pattern_search(f, &[0.0; 4], &opts);
        let expect = [1.0, 2.0, -1.5, 0.5];
        for (i, (&got, &want)) in rep.params.iter().zip(&expect).enumerate() {
            assert!((got - want).abs() < 1e-2, "dim {i}: {:?}", rep.params);
        }
    }

    #[test]
    fn respects_bounds() {
        // Peak outside the box: search must end pinned at the boundary.
        let f = |x: &[f64]| -(x[0] - 10.0).powi(2);
        let opts = PatternOptions::uniform(1, -1.0, 1.0, 0.5);
        let rep = pattern_search(f, &[0.0], &opts);
        assert!((rep.params[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn respects_eval_budget() {
        let f = |x: &[f64]| -x[0] * x[0];
        let mut opts = PatternOptions::uniform(1, -100.0, 100.0, 1.0);
        opts.max_evals = 5;
        let rep = pattern_search(f, &[50.0], &opts);
        assert!(rep.n_evals <= 6);
    }
}
