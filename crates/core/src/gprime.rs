//! The reverse GMA function `G'` (§4.3, Fig 10).
//!
//! Given a model `G` and a target point `τ`, find the voltage pair whose
//! beam passes through `τ`. The paper's purely-computational iteration:
//!
//! 1. evaluate `G(v₁, v₂)`, `G(v₁+ε, v₂)`, `G(v₁, v₂+ε)`;
//! 2. intersect the three beams with the plane `P` perpendicular to the
//!    current beam direction through `τ`, giving points `k₀, k₁, k₂`;
//! 3. with `u₁ = k₁−k₀`, `u₂ = k₂−k₀` (the per-ε beam displacements on `P`),
//!    solve the 2×2 least-squares problem `k₀ + a·u₁ + b·u₂ ≈ τ`;
//! 4. step the voltages by `(a·ε, b·ε)`; stop when the step falls below the
//!    minimum galvo voltage step.
//!
//! "In our evaluations, the above converged in 2–4 iterations" — enforced by
//! this module's tests.
//!
//! The three beams of step 1 share work: `G(v₁+ε, v₂)` reuses the tilted
//! second-mirror normal of `G(v₁, v₂)`, and `G(v₁, v₂+ε)` reuses its
//! mid-mirror beam, so a step costs four mirror rotations instead of six.

use cyclops_geom::plane::Plane;
use cyclops_geom::ray::Ray;
use cyclops_geom::vec3::Vec3;
use cyclops_optics::galvo::{GalvoAxes, GalvoParams};

/// Default finite-difference voltage perturbation ε.
pub const DEFAULT_EPS_V: f64 = 0.01;

/// Default convergence threshold: the 16-bit DAC step over ±10 V.
pub const DEFAULT_V_TOL: f64 = cyclops_optics::galvo::DAC_STEP_V;

/// Result of a `G'` inversion.
#[derive(Debug, Clone, Copy)]
pub struct GPrimeResult {
    /// Voltage for the first mirror.
    pub v1: f64,
    /// Voltage for the second mirror.
    pub v2: f64,
    /// Iterations used.
    pub iterations: usize,
    /// Whether the voltage step fell below tolerance within the budget.
    pub converged: bool,
    /// Final perpendicular distance from the beam's supporting line to the
    /// target (metres). Note `G'` is purely geometric: it solves for the
    /// *line* through the target, so callers must also check
    /// [`GPrimeResult::in_range`] for physical realizability.
    pub miss_distance: f64,
    /// Whether the solution voltages are within the galvo's ±10 V range.
    pub in_range: bool,
}

/// Computes `G'(τ)`: voltages steering the model's beam through `target`,
/// starting from `(v1_init, v2_init)` (warm starts come from the previous
/// pointing solution).
pub fn gprime(
    model: &GalvoParams,
    target: Vec3,
    v_init: (f64, f64),
    eps: f64,
    v_tol: f64,
    max_iters: usize,
) -> GPrimeResult {
    let axes = model.axes();
    gprime_with(model, &axes, target, v_init, None, eps, v_tol, max_iters)
        .finish(model, &axes, target)
}

/// One model beam traced on the mirror lines, with the intermediates a
/// finite-difference step reuses: the mid-mirror beam (unchanged by a `v₂`
/// step) and the tilted second-mirror normal (unchanged by a `v₁` step).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LineTrace {
    mid: Ray,
    n2p: Vec3,
    /// The output beam, bit-identical to `model.trace_line(v1, v2)`.
    pub(crate) beam: Ray,
}

impl LineTrace {
    pub(crate) fn new(
        model: &GalvoParams,
        axes: &GalvoAxes,
        v1: f64,
        v2: f64,
    ) -> Option<LineTrace> {
        let mid = model.mid_line(axes, model.mirror1_normal(axes, v1))?;
        let n2p = model.mirror2_normal(axes, v2);
        let beam = model.out_line(&mid, n2p)?;
        Some(LineTrace { mid, n2p, beam })
    }
}

/// The iteration's outcome before the closing checks of [`GPrimeResult`]:
/// the pointing loop reads only these four fields, so it skips the miss
/// trace that [`GPrimeSolve::finish`] adds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GPrimeSolve {
    pub(crate) v1: f64,
    pub(crate) v2: f64,
    pub(crate) iterations: usize,
    pub(crate) converged: bool,
}

impl GPrimeSolve {
    /// The full [`GPrimeResult`]: one more line trace at the solution for
    /// `miss_distance`, and the drive-range check.
    pub(crate) fn finish(
        self,
        model: &GalvoParams,
        axes: &GalvoAxes,
        target: Vec3,
    ) -> GPrimeResult {
        let GPrimeSolve {
            v1,
            v2,
            iterations,
            converged,
        } = self;
        let miss_distance = model
            .trace_line_with(axes, v1, v2)
            .map_or(f64::INFINITY, |r| r.distance_to_point(target));
        let lim = cyclops_optics::galvo::VOLT_MAX;
        GPrimeResult {
            v1,
            v2,
            iterations,
            converged,
            miss_distance,
            in_range: v1.abs() <= lim && v2.abs() <= lim,
        }
    }
}

/// [`gprime`] with the model's axes hoisted and, optionally, the trace at
/// `v_init` already done (the pointing loop has it). Bit-identical to
/// [`gprime`]: every beam is the same arithmetic, just not repeated.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gprime_with(
    model: &GalvoParams,
    axes: &GalvoAxes,
    target: Vec3,
    v_init: (f64, f64),
    mut first: Option<LineTrace>,
    eps: f64,
    v_tol: f64,
    max_iters: usize,
) -> GPrimeSolve {
    let (mut v1, mut v2) = v_init;
    let mut iterations = 0;
    let mut converged = false;
    for _ in 0..max_iters {
        iterations += 1;
        let Some(t0) = first.take().or_else(|| LineTrace::new(model, axes, v1, v2)) else {
            break;
        };
        let b0 = t0.beam;
        let Some(b1) = model
            .mid_line(axes, model.mirror1_normal(axes, v1 + eps))
            .and_then(|mid| model.out_line(&mid, t0.n2p))
        else {
            break;
        };
        let Some(b2) = model.out_line(&t0.mid, model.mirror2_normal(axes, v2 + eps)) else {
            break;
        };
        // Plane P ⊥ current beam, through τ.
        let p = Plane::new(target, b0.dir);
        let Some((_, k0)) = p.intersect_line(&b0) else {
            break;
        };
        let Some((_, k1)) = p.intersect_line(&b1) else {
            break;
        };
        let Some((_, k2)) = p.intersect_line(&b2) else {
            break;
        };
        let u1 = k1 - k0;
        let u2 = k2 - k0;
        let d = target - k0;
        // Least-squares solve of a·u1 + b·u2 ≈ d (all three live in P).
        let (a11, a12, a22) = (u1.dot(u1), u1.dot(u2), u2.dot(u2));
        let (r1, r2) = (u1.dot(d), u2.dot(d));
        let det = a11 * a22 - a12 * a12;
        if det.abs() < 1e-30 {
            break;
        }
        let a = (r1 * a22 - a12 * r2) / det;
        let b = (a11 * r2 - r1 * a12) / det;
        // Trust region: the local linearization is only good for a few
        // volts; clamp the step so a far cold start cannot overshoot into
        // broken beam-path territory.
        let (dv1, dv2) = ((a * eps).clamp(-3.0, 3.0), (b * eps).clamp(-3.0, 3.0));
        v1 += dv1;
        v2 += dv2;
        if dv1.abs() < v_tol && dv2.abs() < v_tol {
            converged = true;
            break;
        }
    }
    GPrimeSolve {
        v1,
        v2,
        iterations,
        converged,
    }
}

/// Convenience wrapper with the paper-default ε and DAC-step tolerance.
pub fn gprime_default(model: &GalvoParams, target: Vec3, v_init: (f64, f64)) -> GPrimeResult {
    gprime(model, target, v_init, DEFAULT_EPS_V, DEFAULT_V_TOL, 20)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cyclops_geom::vec3::v3;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn model(seed: u64) -> GalvoParams {
        let mut rng = StdRng::seed_from_u64(seed);
        GalvoParams::nominal().perturbed(&mut rng, 1.0, 1.0, 0.02)
    }

    /// The textbook iteration: three independent `trace_line` calls per
    /// step, no shared intermediates.
    pub(crate) fn reference_gprime(
        model: &GalvoParams,
        target: Vec3,
        v_init: (f64, f64),
        eps: f64,
        v_tol: f64,
        max_iters: usize,
    ) -> GPrimeResult {
        let (mut v1, mut v2) = v_init;
        let mut iterations = 0;
        let mut converged = false;
        for _ in 0..max_iters {
            iterations += 1;
            let (Some(b0), Some(b1), Some(b2)) = (
                model.trace_line(v1, v2),
                model.trace_line(v1 + eps, v2),
                model.trace_line(v1, v2 + eps),
            ) else {
                break;
            };
            let p = Plane::new(target, b0.dir);
            let (Some((_, k0)), Some((_, k1)), Some((_, k2))) = (
                p.intersect_line(&b0),
                p.intersect_line(&b1),
                p.intersect_line(&b2),
            ) else {
                break;
            };
            let (u1, u2, d) = (k1 - k0, k2 - k0, target - k0);
            let (a11, a12, a22) = (u1.dot(u1), u1.dot(u2), u2.dot(u2));
            let (r1, r2) = (u1.dot(d), u2.dot(d));
            let det = a11 * a22 - a12 * a12;
            if det.abs() < 1e-30 {
                break;
            }
            let a = (r1 * a22 - a12 * r2) / det;
            let b = (a11 * r2 - r1 * a12) / det;
            let (dv1, dv2) = ((a * eps).clamp(-3.0, 3.0), (b * eps).clamp(-3.0, 3.0));
            v1 += dv1;
            v2 += dv2;
            if dv1.abs() < v_tol && dv2.abs() < v_tol {
                converged = true;
                break;
            }
        }
        let miss_distance = model
            .trace_line(v1, v2)
            .map_or(f64::INFINITY, |r| r.distance_to_point(target));
        let lim = cyclops_optics::galvo::VOLT_MAX;
        GPrimeResult {
            v1,
            v2,
            iterations,
            converged,
            miss_distance,
            in_range: v1.abs() <= lim && v2.abs() <= lim,
        }
    }

    #[test]
    fn shared_intermediates_are_bit_identical_to_reference() {
        let mut rng = StdRng::seed_from_u64(23);
        for seed in 0..16 {
            let g = model(100 + seed);
            for _ in 0..40 {
                let (v1, v2) = (rng.gen_range(-4.0..4.0), rng.gen_range(-4.0..4.0));
                let target = g.trace(v1, v2).unwrap().point_at(rng.gen_range(1.0..2.5))
                    + v3(
                        rng.gen_range(-0.05..0.05),
                        rng.gen_range(-0.05..0.05),
                        rng.gen_range(-0.05..0.05),
                    );
                // Cold starts, warm starts near the answer, and a budget
                // too small to converge.
                let warm = (v1 + rng.gen_range(-0.1..0.1), v2 + rng.gen_range(-0.1..0.1));
                for (init, tol, iters) in [
                    ((0.0, 0.0), DEFAULT_V_TOL, 20),
                    (warm, DEFAULT_V_TOL, 20),
                    (warm, 0.0, 2),
                ] {
                    let a = gprime(&g, target, init, DEFAULT_EPS_V, tol, iters);
                    let b = reference_gprime(&g, target, init, DEFAULT_EPS_V, tol, iters);
                    assert_eq!(a.v1.to_bits(), b.v1.to_bits());
                    assert_eq!(a.v2.to_bits(), b.v2.to_bits());
                    assert_eq!(a.iterations, b.iterations);
                    assert_eq!(a.converged, b.converged);
                    assert_eq!(a.miss_distance.to_bits(), b.miss_distance.to_bits());
                    assert_eq!(a.in_range, b.in_range);
                }
            }
        }
    }

    #[test]
    fn miss_distance_and_range_are_read_at_the_solution() {
        // `gprime` reports the miss of its own solution: one full line
        // trace there, and the ±10 V check, whatever the budget left off.
        let mut rng = StdRng::seed_from_u64(29);
        let (mut n, mut outside) = (0, 0);
        for seed in 0..8 {
            let g = model(300 + seed);
            for _ in 0..25 {
                let target = v3(
                    rng.gen_range(-1.2..1.2),
                    rng.gen_range(-1.2..1.2),
                    rng.gen_range(1.0..2.5),
                );
                for (tol, iters) in [(DEFAULT_V_TOL, 20), (0.0, 1)] {
                    let r = gprime(&g, target, (0.0, 0.0), DEFAULT_EPS_V, tol, iters);
                    let miss = g
                        .trace_line(r.v1, r.v2)
                        .map_or(f64::INFINITY, |b| b.distance_to_point(target));
                    assert_eq!(r.miss_distance.to_bits(), miss.to_bits());
                    let lim = cyclops_optics::galvo::VOLT_MAX;
                    assert_eq!(r.in_range, r.v1.abs() <= lim && r.v2.abs() <= lim);
                    n += 1;
                    outside += !r.in_range as usize;
                }
            }
        }
        assert!(outside > 0 && outside < n, "{outside} of {n} out of range");
    }

    #[test]
    fn inverts_forward_model() {
        let g = model(1);
        // Pick a ground-truth voltage pair, find where its beam goes, then
        // ask G' to recover voltages hitting a point on that beam.
        let (tv1, tv2) = (1.3, -0.8);
        let beam = g.trace(tv1, tv2).unwrap();
        let target = beam.point_at(1.75);
        let res = gprime_default(&g, target, (0.0, 0.0));
        assert!(res.converged, "{res:?}");
        assert!(res.miss_distance < 1e-6, "miss {}", res.miss_distance);
        assert!((res.v1 - tv1).abs() < 1e-3, "{res:?}");
        assert!((res.v2 - tv2).abs() < 1e-3);
    }

    #[test]
    fn converges_in_2_to_4_iterations_from_cold_start() {
        // The paper's observation, across many random targets.
        let g = model(2);
        let mut rng = StdRng::seed_from_u64(3);
        let mut worst = 0usize;
        for _ in 0..200 {
            let v1: f64 = rng.gen_range(-3.0..3.0);
            let v2: f64 = rng.gen_range(-3.0..3.0);
            let beam = g.trace(v1, v2).unwrap();
            let target = beam.point_at(rng.gen_range(1.0..2.5));
            let res = gprime_default(&g, target, (0.0, 0.0));
            assert!(res.converged, "target {target} did not converge");
            assert!(res.miss_distance < 1e-5);
            worst = worst.max(res.iterations);
        }
        assert!(
            (2..=5).contains(&worst),
            "worst-case iterations {worst} (paper: 2–4)"
        );
    }

    #[test]
    fn warm_start_converges_faster_or_equal() {
        let g = model(4);
        let beam = g.trace(0.52, -0.77).unwrap();
        let target = beam.point_at(1.75);
        let cold = gprime_default(&g, target, (0.0, 0.0));
        let warm = gprime_default(&g, target, (0.5, -0.75));
        assert!(warm.iterations <= cold.iterations);
        assert!(warm.miss_distance < 1e-6);
    }

    #[test]
    fn off_axis_3d_targets_work() {
        // Targets need not be on any calibration plane — G' is geometric.
        let g = model(5);
        for target in [v3(0.3, 0.2, 1.2), v3(-0.25, 0.4, 2.0), v3(0.1, -0.3, 1.6)] {
            let res = gprime_default(&g, target, (0.0, 0.0));
            assert!(res.converged, "target {target}");
            assert!(
                res.miss_distance < 1e-5,
                "target {target}: miss {}",
                res.miss_distance
            );
        }
    }

    #[test]
    fn target_outside_coverage_cone_is_flagged() {
        let g = model(6);
        // ~60° off-axis: far beyond the ±25° optical cone, so the solved
        // voltages must exceed the ±10 V drive range.
        let res = gprime(
            &g,
            v3(3.0, 0.0, 1.75),
            (0.0, 0.0),
            DEFAULT_EPS_V,
            DEFAULT_V_TOL,
            40,
        );
        assert!(!res.in_range, "{res:?}");
        // In-cone targets are in range.
        let ok = gprime_default(&g, v3(0.2, 0.1, 1.75), (0.0, 0.0));
        assert!(ok.in_range && ok.converged);
    }

    #[test]
    fn respects_iteration_budget() {
        let g = model(7);
        let res = gprime(&g, v3(0.2, 0.1, 1.75), (0.0, 0.0), DEFAULT_EPS_V, 0.0, 3);
        // Zero tolerance can never converge; must stop at the budget.
        assert_eq!(res.iterations, 3);
        assert!(!res.converged);
    }
}
