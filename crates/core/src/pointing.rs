//! The pointing function `P` (§4.3).
//!
//! Given the VR-space models of both GMAs (from a [`crate::mapping`] result
//! composed with the current VRH-T report), compute the four voltages that
//! align the beam — with no optical feedback at all. The paper's iteration,
//! justified by Lemma 1:
//!
//! 1. initialize the four voltages (warm-started from the previous solution
//!    in the online controller);
//! 2. `(p_t, ·) = G_T(v_t)`, `(p_r, ·) = G_R(v_r)` — the two beams' current
//!    originating points on their second mirrors;
//! 3. aim each end at the *other* end's originating point:
//!    `v_t = G'_T(p_r)`, `v_r = G'_R(p_t)`;
//! 4. repeat until the voltage change is below the minimum galvo step.
//!
//! "In our evaluations, the above converged in 2–5 iterations."

use crate::gprime::{gprime_with, LineTrace, DEFAULT_EPS_V, DEFAULT_V_TOL};
use cyclops_optics::galvo::{GalvoAxes, GalvoParams};

/// Result of evaluating the pointing function.
#[derive(Debug, Clone, Copy)]
pub struct PointingResult {
    /// The four aligned voltages `(v_t1, v_t2, v_r1, v_r2)`.
    pub voltages: [f64; 4],
    /// Outer iterations used.
    pub iterations: usize,
    /// Whether the outer loop converged within budget.
    pub converged: bool,
    /// Total inner `G'` iterations across the run (for latency accounting).
    pub gprime_iterations: usize,
}

/// Evaluates `P`: the four voltages aligning a TX model and an RX model,
/// both expressed in the same (VR-)space.
pub fn pointing(
    tx_vr: &GalvoParams,
    rx_vr: &GalvoParams,
    init: [f64; 4],
    v_tol: f64,
    max_iters: usize,
) -> PointingResult {
    pointing_with(tx_vr, &tx_vr.axes(), rx_vr, init, v_tol, max_iters)
}

/// [`pointing`] with the TX model's axes already computed: the online
/// controller's TX model depends only on its mapping, so it keeps both.
pub(crate) fn pointing_with(
    tx_vr: &GalvoParams,
    tx_axes: &GalvoAxes,
    rx_vr: &GalvoParams,
    init: [f64; 4],
    v_tol: f64,
    max_iters: usize,
) -> PointingResult {
    let rx_axes = rx_vr.axes();
    let mut v = init;
    let mut gprime_iterations = 0usize;
    let mut iterations = 0usize;
    let mut converged = false;
    for _ in 0..max_iters {
        iterations += 1;
        let Some(trace_t) = LineTrace::new(tx_vr, tx_axes, v[0], v[1]) else {
            break;
        };
        let Some(trace_r) = LineTrace::new(rx_vr, &rx_axes, v[2], v[3]) else {
            break;
        };
        let (p_t, p_r) = (trace_t.beam.origin, trace_r.beam.origin);
        // Each beam just traced is the first `b0` of its own `G'` solve,
        // and neither solve traces its miss distance: `P` reads only the
        // voltages and convergence.
        let gt = gprime_with(
            tx_vr,
            tx_axes,
            p_r,
            (v[0], v[1]),
            Some(trace_t),
            DEFAULT_EPS_V,
            v_tol,
            10,
        );
        let gr = gprime_with(
            rx_vr,
            &rx_axes,
            p_t,
            (v[2], v[3]),
            Some(trace_r),
            DEFAULT_EPS_V,
            v_tol,
            10,
        );
        gprime_iterations += gt.iterations + gr.iterations;
        // Keep the iterate inside the physical drive range: outside it the
        // model geometry can degenerate, and the hardware clamps anyway.
        let lim = cyclops_optics::galvo::VOLT_MAX;
        let new_v = [
            gt.v1.clamp(-lim, lim),
            gt.v2.clamp(-lim, lim),
            gr.v1.clamp(-lim, lim),
            gr.v2.clamp(-lim, lim),
        ];
        let max_change = new_v
            .iter()
            .zip(&v)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        v = new_v;
        // Converged only if the voltages settled AND both inverse solves
        // actually succeeded — a broken model whose G' cannot make progress
        // must not masquerade as converged.
        if max_change < v_tol && gt.converged && gr.converged {
            converged = true;
            break;
        }
    }
    PointingResult {
        voltages: v,
        iterations,
        converged,
        gprime_iterations,
    }
}

/// A bounded re-acquisition search: after optical signal loss with no
/// trustworthy pose (reports stale, SFP down), sweep the TX beam over an
/// expanding sunflower spiral of voltage offsets around the last good
/// command. The RX voltages are held — its wide acceptance cone means the
/// TX aim is what loses the aperture first — and the radius grows with
/// `step_v · √k`, giving near-uniform areal coverage of the voltage disc.
///
/// The search is bounded: after `max_steps` probes the caller should
/// restore the center command and fall back to waiting for tracking.
#[derive(Debug, Clone, Copy)]
pub struct ReacqSpiral {
    center: [f64; 4],
    step_v: f64,
    max_steps: usize,
    k: usize,
}

impl ReacqSpiral {
    /// Creates a spiral around `center` (the last known-good command).
    pub fn new(center: [f64; 4], step_v: f64, max_steps: usize) -> ReacqSpiral {
        ReacqSpiral {
            center,
            step_v,
            max_steps,
            k: 0,
        }
    }

    /// The next probe voltages, or `None` once the budget is exhausted.
    pub fn next_voltages(&mut self) -> Option<[f64; 4]> {
        if self.k >= self.max_steps {
            return None;
        }
        self.k += 1;
        let k = self.k as f64;
        // Golden-angle (Vogel) spiral: r ∝ √k at irrational angular steps
        // never revisits a direction, so coverage stays uniform at any
        // truncation.
        const GOLDEN_ANGLE: f64 = 2.399_963_229_728_653;
        let r = self.step_v * k.sqrt();
        let a = k * GOLDEN_ANGLE;
        let lim = cyclops_optics::galvo::VOLT_MAX;
        Some([
            (self.center[0] + r * a.cos()).clamp(-lim, lim),
            (self.center[1] + r * a.sin()).clamp(-lim, lim),
            self.center[2],
            self.center[3],
        ])
    }

    /// The spiral's center (the command to restore on give-up).
    pub fn center(&self) -> [f64; 4] {
        self.center
    }
}

/// [`pointing`] with the DAC-step tolerance and the paper's iteration budget.
pub fn pointing_default(
    tx_vr: &GalvoParams,
    rx_vr: &GalvoParams,
    init: [f64; 4],
) -> PointingResult {
    pointing(tx_vr, rx_vr, init, DEFAULT_V_TOL, 12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gprime::tests::reference_gprime;
    use cyclops_geom::pose::Pose;
    use cyclops_geom::rotation::axis_angle;
    use cyclops_geom::vec3::{v3, Vec3};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A TX at the origin firing +Z and an RX 1.75 m away firing back.
    fn facing_pair(seed: u64) -> (GalvoParams, GalvoParams) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tx = GalvoParams::nominal()
            .perturbed(&mut rng, 1.0, 1.0, 0.02)
            .transformed(&Pose::new(
                axis_angle(Vec3::X, rng.gen_range(-0.05..0.05)),
                v3(0.0, 0.0, 0.0),
            ));
        let flip = axis_angle(Vec3::Y, std::f64::consts::PI);
        let rx = GalvoParams::nominal()
            .perturbed(&mut rng, 1.0, 1.0, 0.02)
            .transformed(&Pose::new(
                flip * axis_angle(Vec3::X, rng.gen_range(-0.05..0.05)),
                v3(rng.gen_range(-0.1..0.1), rng.gen_range(-0.1..0.1), 1.75),
            ));
        (tx, rx)
    }

    /// The Lemma-1 gap of a voltage assignment under the given models.
    fn gap(tx: &GalvoParams, rx: &GalvoParams, v: [f64; 4]) -> f64 {
        let bt = tx.trace(v[0], v[1]).unwrap();
        let br = rx.trace(v[2], v[3]).unwrap();
        let (_, tau_t) = rx.second_mirror_plane(v[3]).intersect_line(&bt).unwrap();
        let (_, tau_r) = tx.second_mirror_plane(v[1]).intersect_line(&br).unwrap();
        bt.origin.distance(tau_r) + br.origin.distance(tau_t)
    }

    /// `P` built from independent `trace_line` calls and the reference
    /// `G'`, sharing nothing between the two.
    fn reference_pointing(
        tx_vr: &GalvoParams,
        rx_vr: &GalvoParams,
        init: [f64; 4],
        v_tol: f64,
        max_iters: usize,
    ) -> PointingResult {
        let mut v = init;
        let (mut gprime_iterations, mut iterations, mut converged) = (0, 0, false);
        for _ in 0..max_iters {
            iterations += 1;
            let (Some(beam_t), Some(beam_r)) =
                (tx_vr.trace_line(v[0], v[1]), rx_vr.trace_line(v[2], v[3]))
            else {
                break;
            };
            let gt = reference_gprime(tx_vr, beam_r.origin, (v[0], v[1]), DEFAULT_EPS_V, v_tol, 10);
            let gr = reference_gprime(rx_vr, beam_t.origin, (v[2], v[3]), DEFAULT_EPS_V, v_tol, 10);
            gprime_iterations += gt.iterations + gr.iterations;
            let lim = cyclops_optics::galvo::VOLT_MAX;
            let new_v = [gt.v1, gt.v2, gr.v1, gr.v2].map(|x| x.clamp(-lim, lim));
            let max_change = new_v
                .iter()
                .zip(&v)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            v = new_v;
            if max_change < v_tol && gt.converged && gr.converged {
                converged = true;
                break;
            }
        }
        PointingResult {
            voltages: v,
            iterations,
            converged,
            gprime_iterations,
        }
    }

    #[test]
    fn pointing_is_bit_identical_to_reference() {
        let mut rng = StdRng::seed_from_u64(31);
        for seed in 0..24 {
            let (tx, rx) = facing_pair(200 + seed);
            let cold = pointing_default(&tx, &rx, [0.0; 4]);
            let near = cold.voltages.map(|x| x + rng.gen_range(-0.05..0.05));
            let far: [f64; 4] = std::array::from_fn(|_| rng.gen_range(-2.0..2.0));
            for init in [[0.0; 4], near, far] {
                for (tol, iters) in [(DEFAULT_V_TOL, 12), (0.0, 2)] {
                    let a = pointing(&tx, &rx, init, tol, iters);
                    let b = reference_pointing(&tx, &rx, init, tol, iters);
                    assert_eq!(a.voltages.map(f64::to_bits), b.voltages.map(f64::to_bits));
                    assert_eq!(a.iterations, b.iterations);
                    assert_eq!(a.converged, b.converged);
                    assert_eq!(a.gprime_iterations, b.gprime_iterations);
                }
            }
        }
    }

    #[test]
    fn pointing_closes_the_lemma_gap() {
        let (tx, rx) = facing_pair(1);
        let res = pointing_default(&tx, &rx, [0.0; 4]);
        assert!(res.converged, "{res:?}");
        let g = gap(&tx, &rx, res.voltages);
        assert!(g < 1e-4, "gap {g} m after pointing");
    }

    #[test]
    fn converges_in_2_to_5_iterations() {
        // The paper's claim, over many random geometries.
        let mut worst = 0usize;
        for seed in 0..60 {
            let (tx, rx) = facing_pair(seed);
            let res = pointing_default(&tx, &rx, [0.0; 4]);
            assert!(res.converged, "seed {seed}: {res:?}");
            worst = worst.max(res.iterations);
        }
        assert!(
            (2..=6).contains(&worst),
            "worst-case outer iterations {worst} (paper: 2–5)"
        );
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let (tx, rx) = facing_pair(7);
        let cold = pointing_default(&tx, &rx, [0.0; 4]);
        let warm = pointing_default(&tx, &rx, cold.voltages);
        assert!(
            warm.iterations <= 2,
            "warm restart took {}",
            warm.iterations
        );
        assert!(warm.converged);
    }

    #[test]
    fn the_two_beams_coincide_as_lines() {
        let (tx, rx) = facing_pair(9);
        let res = pointing_default(&tx, &rx, [0.0; 4]);
        let bt = tx.trace(res.voltages[0], res.voltages[1]).unwrap();
        let br = rx.trace(res.voltages[2], res.voltages[3]).unwrap();
        // Anti-parallel directions, near-zero line distance.
        assert!(
            bt.dir.dot(br.dir) < -0.999_99,
            "dirs {} vs {}",
            bt.dir,
            br.dir
        );
        assert!(bt.line_distance(&br) < 1e-4);
    }

    #[test]
    fn model_error_translates_to_proportional_pointing_error() {
        // Perturb the RX model the pointing uses (not the "real" one) and
        // verify the Lemma gap measured against the REAL models grows
        // smoothly — the mechanism behind Table 2's combined error.
        let (tx, rx) = facing_pair(11);
        let mut rng = StdRng::seed_from_u64(99);
        let rx_believed = rx.perturbed(&mut rng, 0.5, 0.05, 1e-6);
        let res = pointing_default(&tx, &rx_believed, [0.0; 4]);
        let g = gap(&tx, &rx, res.voltages);
        assert!(g > 1e-5, "a wrong model cannot align perfectly");
        assert!(g < 0.02, "but a slightly wrong model misses slightly: {g}");
    }

    #[test]
    fn reacq_spiral_covers_expanding_disc_and_terminates() {
        let center = [1.0, -2.0, 0.5, 0.25];
        let mut sp = ReacqSpiral::new(center, 0.02, 200);
        let mut max_r = 0.0f64;
        let mut n = 0usize;
        let mut prev_r = 0.0f64;
        while let Some(v) = sp.next_voltages() {
            n += 1;
            // RX pair untouched.
            assert_eq!(v[2], center[2]);
            assert_eq!(v[3], center[3]);
            let r = ((v[0] - center[0]).powi(2) + (v[1] - center[1]).powi(2)).sqrt();
            assert!(r >= prev_r - 1e-12, "radius must not shrink");
            prev_r = r;
            max_r = max_r.max(r);
        }
        assert_eq!(n, 200);
        // Budget of 200 steps at 0.02 V reaches r = 0.02·√200 ≈ 0.28 V.
        assert!((max_r - 0.02 * 200f64.sqrt()).abs() < 1e-9, "max r {max_r}");
        assert!(sp.next_voltages().is_none(), "exhausted spiral stays done");
    }

    #[test]
    fn reacq_spiral_clamps_to_drive_range() {
        let lim = cyclops_optics::galvo::VOLT_MAX;
        let mut sp = ReacqSpiral::new([lim - 0.01, -lim + 0.01, 0.0, 0.0], 0.5, 50);
        while let Some(v) = sp.next_voltages() {
            assert!(v[0].abs() <= lim && v[1].abs() <= lim);
        }
    }

    #[test]
    fn degenerate_models_do_not_hang() {
        let (tx, mut rx) = facing_pair(13);
        // A pathological fitted model: both mirror rotation axes equal
        // their normals, so voltages cannot steer the beam at all — G' can
        // never reach its target.
        rx.r1 = rx.n1;
        rx.r2 = rx.n2;
        let res = pointing_default(&tx, &rx, [0.0; 4]);
        assert!(!res.converged, "{res:?}");
        assert!(res.iterations <= 12);
    }

    #[test]
    fn solution_is_invariant_to_common_frame_change() {
        // P computed in any rigid frame gives the same voltages — the
        // pipeline's frame-consistency sanity check.
        let (tx, rx) = facing_pair(17);
        let frame = Pose::new(
            axis_angle(v3(0.3, 0.2, 0.93).normalized(), 0.8),
            v3(1.0, -2.0, 0.5),
        );
        let res_a = pointing_default(&tx, &rx, [0.0; 4]);
        let res_b = pointing_default(&tx.transformed(&frame), &rx.transformed(&frame), [0.0; 4]);
        for i in 0..4 {
            assert!(
                (res_a.voltages[i] - res_b.voltages[i]).abs() < 1e-6,
                "voltage {i} differs across frames"
            );
        }
    }
}
