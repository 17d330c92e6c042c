//! Coarse-to-fine pattern search (the "automated exhaustive search").
//!
//! §4.2 aligns the link by exhaustively searching the four galvo voltages for
//! maximum received power, taking "1–2 mins" per sample on the bench. A naive
//! full grid over four voltage axes is astronomically large, so — as in the
//! authors' earlier FSONet system \[32\] — the practical implementation is a
//! multi-resolution search: evaluate a coarse grid pattern around the current
//! point, move to the best neighbour, shrink the step when no neighbour
//! improves. This module implements that, plus an optional axis-aligned
//! initial scan.

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

/// Scans each axis on a uniform grid (holding the others fixed), returning
/// the best point found. Useful to bootstrap [`pattern_search`] when the
/// objective is zero except in a small basin (a narrow beam far from the
/// receiver): the scan sweeps the beam across the whole coverage cone.
pub fn axis_scan<F>(
    mut f: F,
    x0: &[f64],
    lower: &[f64],
    upper: &[f64],
    points_per_axis: usize,
) -> PatternReport
where
    F: FnMut(&[f64]) -> f64,
{
    assert!(points_per_axis >= 2, "need at least two points per axis");
    let n = x0.len();
    let mut x = x0.to_vec();
    let mut best = f(&x);
    let mut n_evals = 1usize;
    for dim in 0..n {
        let mut best_axis = x[dim];
        for k in 0..points_per_axis {
            let t = k as f64 / (points_per_axis - 1) as f64;
            let v = lower[dim] + t * (upper[dim] - lower[dim]);
            let mut cand = x.clone();
            cand[dim] = v;
            let fv = f(&cand);
            n_evals += 1;
            if fv > best {
                best = fv;
                best_axis = v;
            }
        }
        x[dim] = best_axis;
    }
    PatternReport {
        params: x,
        value: best,
        n_evals,
    }
}

/// Jointly scans a *pair* of dimensions `(d0, d1)` on a full 2-D grid while
/// holding the others fixed, returning the best point found.
///
/// This is the bootstrap for the four-voltage alignment search: the received
/// power is zero until the TX beam grazes the receiver, so the TX voltage
/// pair must be swept jointly across the whole coverage cone (the bench
/// procedure that takes "1–2 mins" in §4.2).
pub fn grid_scan2<F>(
    mut f: F,
    x0: &[f64],
    dims: (usize, usize),
    lower: (f64, f64),
    upper: (f64, f64),
    points_per_axis: usize,
) -> PatternReport
where
    F: FnMut(&[f64]) -> f64,
{
    assert!(points_per_axis >= 2);
    let (d0, d1) = dims;
    let mut x = x0.to_vec();
    let mut best = f(&x);
    let mut n_evals = 1usize;
    let mut best_pair = (x[d0], x[d1]);
    let step =
        |lo: f64, hi: f64, k: usize| lo + (hi - lo) * k as f64 / (points_per_axis - 1) as f64;
    let mut cand = x.clone();
    for i in 0..points_per_axis {
        cand[d0] = step(lower.0, upper.0, i);
        for j in 0..points_per_axis {
            cand[d1] = step(lower.1, upper.1, j);
            let v = f(&cand);
            n_evals += 1;
            if v > best {
                best = v;
                best_pair = (cand[d0], cand[d1]);
            }
        }
    }
    x[d0] = best_pair.0;
    x[d1] = best_pair.1;
    PatternReport {
        params: x,
        value: best,
        n_evals,
    }
}

/// Runs [`pattern_search`] from every start in `starts` and returns the best
/// result (highest objective; ties broken by start index).
///
/// The restarts run concurrently; each run is independent and the winner
/// is selected by an index-ordered scan, so the result is bit-identical to
/// the serial execution. `n_evals` is the total across restarts.
///
/// # Panics
/// Panics if `starts` is empty.
pub fn pattern_search_multistart<F>(
    f: &F,
    starts: &[Vec<f64>],
    opts: &PatternOptions,
) -> PatternReport
where
    F: crate::ScalarObjective,
{
    assert!(!starts.is_empty(), "need at least one start");
    let run = |x0: &Vec<f64>| pattern_search(|x| f(x), x0, opts);
    let reports = cyclops_par::par_map(starts, 1, run);

    let total_evals: usize = reports.iter().map(|r| r.n_evals).sum();
    let mut best = None::<PatternReport>;
    for rep in reports {
        // MSRV 1.75: spelled as a match rather than `Option::is_none_or`.
        let take = match &best {
            None => true,
            Some(b) => rep.value > b.value,
        };
        if take {
            best = Some(rep);
        }
    }
    let mut best = best.unwrap();
    best.n_evals = total_evals;
    best
}

/// [`grid_scan2`] for `Sync` objectives: rows of the 2-D grid are evaluated
/// on worker threads.
///
/// The result is bit-identical to [`grid_scan2`]: every grid point sees the
/// same inputs, and the row results are folded in row order with the same
/// strict-`>` comparison, reproducing the serial first-wins tie-breaking.
pub fn grid_scan2_sync<F>(
    f: &F,
    x0: &[f64],
    dims: (usize, usize),
    lower: (f64, f64),
    upper: (f64, f64),
    points_per_axis: usize,
) -> PatternReport
where
    F: crate::ScalarObjective,
{
    assert!(points_per_axis >= 2);
    let (d0, d1) = dims;
    let mut x = x0.to_vec();
    let best0 = f(&x);
    let step =
        |lo: f64, hi: f64, k: usize| lo + (hi - lo) * k as f64 / (points_per_axis - 1) as f64;

    // Each row scans d1 serially and reports its first-wins row maximum.
    let scan_row = |i: usize| -> (f64, usize) {
        let mut cand = x0.to_vec();
        cand[d0] = step(lower.0, upper.0, i);
        let mut row_best = f64::NEG_INFINITY;
        let mut row_j = 0usize;
        for j in 0..points_per_axis {
            cand[d1] = step(lower.1, upper.1, j);
            let v = f(&cand);
            if v > row_best {
                row_best = v;
                row_j = j;
            }
        }
        (row_best, row_j)
    };

    let rows = cyclops_par::par_map_indexed(points_per_axis, 1, scan_row);

    // Fold rows in order with the serial strict-> comparison.
    let mut best = best0;
    let mut best_pair = (x[d0], x[d1]);
    for (i, &(v, j)) in rows.iter().enumerate() {
        if v > best {
            best = v;
            best_pair = (step(lower.0, upper.0, i), step(lower.1, upper.1, j));
        }
    }
    x[d0] = best_pair.0;
    x[d1] = best_pair.1;
    PatternReport {
        params: x,
        value: best,
        n_evals: 1 + points_per_axis * points_per_axis,
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

    #[test]
    fn axis_scan_finds_axis_reachable_basin() {
        // Basin centred on the x-axis through the start point: axis_scan can
        // walk into it one dimension at a time.
        let f = |x: &[f64]| -((x[0] - 3.0).powi(2) + (x[1] + 4.0).powi(2));
        let rep = axis_scan(f, &[0.0, 0.0], &[-10.0, -10.0], &[10.0, 10.0], 101);
        assert!((rep.params[0] - 3.0).abs() < 0.11, "{:?}", rep.params);
        assert!((rep.params[1] + 4.0).abs() < 0.11);
    }

    #[test]
    fn multistart_pattern_finds_global_peak() {
        // Two peaks; the one at (4, 4) is taller but needs the right start.
        let f = |x: &[f64]| {
            let p1 = (-(x[0] + 4.0).powi(2) - (x[1] + 4.0).powi(2)).exp();
            let p2 = 2.0 * (-(x[0] - 4.0).powi(2) - (x[1] - 4.0).powi(2)).exp();
            p1 + p2
        };
        let opts = PatternOptions::uniform(2, -10.0, 10.0, 1.0);
        let starts = vec![vec![-4.5, -4.5], vec![0.0, 0.0], vec![4.5, 4.5]];
        let rep = pattern_search_multistart(&f, &starts, &opts);
        assert!((rep.params[0] - 4.0).abs() < 1e-2, "{:?}", rep.params);
        assert!((rep.params[1] - 4.0).abs() < 1e-2);
    }

    #[test]
    fn grid_scan2_sync_bit_identical_to_serial() {
        // Plateaued objective with exact ties to stress tie-breaking.
        let f = |x: &[f64]| {
            let d2 = (x[0] - 3.0).powi(2) + (x[1] + 4.0).powi(2);
            ((4.0 - d2).max(0.0) * 4.0).floor()
        };
        let serial = grid_scan2(f, &[0.0, 0.0], (0, 1), (-10.0, -10.0), (10.0, 10.0), 37);
        for threads in [1, 2, 3, 8] {
            let par = cyclops_par::with_threads(threads, || {
                grid_scan2_sync(&f, &[0.0, 0.0], (0, 1), (-10.0, -10.0), (10.0, 10.0), 37)
            });
            assert_eq!(par.params, serial.params, "threads={threads}");
            assert_eq!(par.value.to_bits(), serial.value.to_bits());
            assert_eq!(par.n_evals, serial.n_evals);
        }
    }

    #[test]
    fn grid_scan2_finds_narrow_offaxis_basin() {
        // Objective is zero except near (3, -4) — per-axis scans through the
        // origin never see it; the joint 2-D grid does. This is the structure
        // of the four-voltage alignment bootstrap.
        let f = |x: &[f64]| {
            let d2 = (x[0] - 3.0).powi(2) + (x[1] + 4.0).powi(2);
            (4.0 - d2).max(0.0)
        };
        let axis = axis_scan(f, &[0.0, 0.0], &[-10.0, -10.0], &[10.0, 10.0], 101);
        assert_eq!(axis.value, 0.0, "axis scan must miss the off-axis basin");
        let rep = grid_scan2(f, &[0.0, 0.0], (0, 1), (-10.0, -10.0), (10.0, 10.0), 41);
        assert!(rep.value > 0.0);
        // Refine with pattern search.
        let opts = PatternOptions::uniform(2, -10.0, 10.0, 0.5);
        let rep2 = pattern_search(f, &rep.params, &opts);
        assert!((rep2.params[0] - 3.0).abs() < 0.01, "{:?}", rep2.params);
        assert!((rep2.params[1] + 4.0).abs() < 0.01);
    }
}
