//! Stage 2: joint learning of the 12 mapping parameters (§4.2).
//!
//! The K-space models of the TX and RX assemblies must be expressed in the
//! common VR-space of the headset tracker. Each mapping is a rigid transform
//! (6 parameters, [`Pose6`]): for the TX, K-space → VR-space directly; for
//! the RX — which moves — K-space → the *tracked-point frame*, so that
//! composing with any VRH-T report places the model correctly (footnote 8 of
//! the paper).
//!
//! Training data: for ~30 headset placements, the exhaustive search aligns
//! the link, yielding 5-tuples `(v₁, v₂, v₃, v₄, Ψ)` of aligning voltages
//! plus the reported pose. The fit minimizes the **Lemma-1 error**
//! `Σ d(p_t, τ_r) + d(p_r, τ_t)` over the 12 parameters: at perfect
//! alignment the TX beam's origin must coincide with where the RX imaginary
//! beam lands and vice versa, *if* the mapped models are correct.

use crate::alignment::{align_with, SweepTables};
use crate::deployment::Deployment;
use cyclops_geom::plane::Plane;
use cyclops_geom::pose::{Pose, Pose6};
use cyclops_geom::ray::Ray;
use cyclops_geom::vec3::{v3, Vec3};
use cyclops_optics::galvo::{GalvoAxes, GalvoParams};
use cyclops_solver::jacobian::central_differences_into;
use cyclops_solver::linalg::DMat;
use cyclops_solver::lm::{levenberg_marquardt_with, LmOptions, LmReport};
use cyclops_solver::stats::ResidualStats;
use cyclops_vrh::tracking::TrackerConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One §4.2 training sample: aligning voltages plus the reported pose.
#[derive(Debug, Clone, Copy)]
pub struct MappingSample {
    /// The four aligning voltages `(v_t1, v_t2, v_r1, v_r2)`.
    pub voltages: [f64; 4],
    /// The (noisy) VRH-T report Ψ at that placement.
    pub reported: Pose,
}

/// The trained stage-2 result: both K-space models plus their mappings.
#[derive(Debug, Clone)]
pub struct TrainedMapping {
    /// Learned TX model in its K-space (stage-1 output).
    pub tx_model: GalvoParams,
    /// Learned RX model in its K-space (stage-1 output).
    pub rx_model: GalvoParams,
    /// TX K-space → VR-space.
    pub tx_map: Pose,
    /// RX K-space → tracked-point frame.
    pub rx_map: Pose,
    /// Solver diagnostics of the 12-parameter fit.
    pub report: LmReport,
}

impl TrainedMapping {
    /// The TX model expressed in VR-space.
    pub fn tx_in_vr(&self) -> GalvoParams {
        self.tx_model.transformed(&self.tx_map)
    }

    /// The RX model expressed in VR-space, given a VRH-T report.
    pub fn rx_in_vr(&self, reported: &Pose) -> GalvoParams {
        self.rx_model.transformed(&reported.compose(&self.rx_map))
    }

    /// Per-sample Lemma-1 distances `(d(p_t, τ_r), d(p_r, τ_t))` in metres —
    /// the "Combined (TX)" / "Combined (RX)" error split of Table 2. `None`
    /// if a trace degenerates.
    pub fn lemma_distances(&self, s: &MappingSample) -> Option<(f64, f64)> {
        let txp = self.tx_in_vr();
        let rxp = self.rx_in_vr(&s.reported);
        let beam_t = txp.trace_line(s.voltages[0], s.voltages[1])?;
        let beam_r = rxp.trace_line(s.voltages[2], s.voltages[3])?;
        let (_, tau_t) = rxp
            .second_mirror_plane(s.voltages[3])
            .intersect_line(&beam_t)?;
        let (_, tau_r) = txp
            .second_mirror_plane(s.voltages[1])
            .intersect_line(&beam_r)?;
        Some((beam_t.origin.distance(tau_r), beam_r.origin.distance(tau_t)))
    }

    /// Combined-error statistics over a sample set: `(tx_stats, rx_stats)`
    /// in metres (Table 2 "Combined" rows).
    pub fn combined_errors(&self, samples: &[MappingSample]) -> (ResidualStats, ResidualStats) {
        let mut tx_e = Vec::new();
        let mut rx_e = Vec::new();
        for s in samples {
            if let Some((dt, dr)) = self.lemma_distances(s) {
                tx_e.push(dt);
                rx_e.push(dr);
            }
        }
        (
            ResidualStats::from_slice(&tx_e),
            ResidualStats::from_slice(&rx_e),
        )
    }
}

/// Collects `n` mapping samples: random headset placements in the coverage
/// zone, exhaustive alignment, noisy VRH-T report (§4.2 step 2).
///
/// The placements span ±25 cm laterally, the 1.5–2 m range band, and ±~10°
/// of orientation. The orientation envelope is bounded by the K-space
/// calibration: compensating an RX rotation of θ needs galvo voltages
/// ≈ θ/(2·θ₁) ≈ 0.4 V/deg, and the paper's 20×15-inch grid board at 1.5 m
/// exercises ≈ ±3.7 V (±9.6°). The CAD prior in the stage-1 fit keeps the
/// learned `G` usable slightly beyond the board cone, but placements (and
/// the rotation-stage sweeps) should stay near it. (A larger calibration
/// board buys a larger envelope; see the board-size ablation.)
pub fn collect_samples(dep: &mut Deployment, n: usize, seed: u64) -> Vec<MappingSample> {
    collect_samples_with(dep, n, seed, &TrackerConfig::default())
}

/// [`collect_samples`] with an explicit tracker configuration (the reports'
/// noise should match the tracker actually deployed).
pub fn collect_samples_with(
    dep: &mut Deployment,
    n: usize,
    seed: u64,
    tracker_cfg: &TrackerConfig,
) -> Vec<MappingSample> {
    // The bench operator keeps trying placements until n usable ones are
    // collected (a placement where the search cannot close the link is
    // simply re-drawn), within a sanity bound.
    let max_attempts = 3 * n + 10;

    // Every attempt is deterministic in isolation: the placement, the report
    // noise, and the rig clone's hardware-noise stream all derive from
    // `mix64(seed, attempt)`, never from a shared RNG. Attempts run in waves
    // of (at most) the thread count and are accepted strictly in attempt
    // order, so the collected set is identical for any thread count — a
    // one-thread wave degenerates to exactly the serial loop, including its
    // early exit. Wider waves may evaluate up to `threads − 1` attempts past
    // the n-th acceptance and discard them; that costs only wall-clock work
    // already saved many times over.
    let base = dep.clone();
    let tables = SweepTables::new(&base);
    let try_attempt = |k: usize| -> Option<(Pose, MappingSample)> {
        let mut rng = StdRng::seed_from_u64(cyclops_par::mix64(seed, 2 * k as u64));
        let mut d = base.clone();
        *d.rng() = StdRng::seed_from_u64(cyclops_par::mix64(seed, 2 * k as u64 + 1));
        let pose = random_placement(&mut rng, d.design.nominal_range);
        d.set_headset_pose(pose);
        let res = align_with(&mut d, &tables);
        if res.power_dbm < d.design.sfp.rx_sensitivity_dbm {
            return None;
        }
        let reported = tracker_cfg.jitter(d.headset.true_reported_pose(), &mut rng);
        Some((
            pose,
            MappingSample {
                voltages: res.voltages,
                reported,
            },
        ))
    };

    let mut out = Vec::with_capacity(n);
    let mut last_accepted: Option<(Pose, [f64; 4])> = None;
    let mut next = 0usize;
    while out.len() < n && next < max_attempts {
        let wave = cyclops_par::max_threads().min(max_attempts - next);
        let results = cyclops_par::par_map_indexed(wave, 1, |i| try_attempt(next + i));
        next += wave;
        for (pose, sample) in results.into_iter().flatten() {
            if out.len() >= n {
                break;
            }
            last_accepted = Some((pose, sample.voltages));
            out.push(sample);
        }
    }

    // Leave the real rig posed and aligned at the last accepted placement —
    // commissioning reads the aligning voltages off the deployment after
    // training.
    if let Some((pose, v)) = last_accepted {
        dep.set_headset_pose(pose);
        dep.set_voltages(v[0], v[1], v[2], v[3]);
    }
    out
}

/// A random headset placement within the rig's working volume.
pub fn random_placement<R: Rng>(rng: &mut R, range: f64) -> Pose {
    use cyclops_geom::rotation::axis_angle;
    let axis = v3(
        rng.gen_range(-1.0..1.0),
        rng.gen_range(-1.0..1.0),
        rng.gen_range(-1.0..1.0),
    )
    .try_normalized(1e-6)
    .unwrap_or(Vec3::Y);
    let ang = rng.gen_range(-0.17..0.17);
    Pose::new(
        axis_angle(axis, ang),
        v3(
            rng.gen_range(-0.25..0.25),
            rng.gen_range(-0.25..0.25),
            range + rng.gen_range(-0.25..0.25),
        ),
    )
}

/// One noisy VRH-T pose report of the deployment's headset, drawing noise
/// from the deployment's own RNG.
pub fn noisy_report(dep: &mut Deployment, cfg: &TrackerConfig) -> Pose {
    let clean = dep.headset.true_reported_pose();
    cfg.jitter(clean, dep.rng())
}

/// The learner's initial guess for the two mappings: the true composites
/// perturbed by "manual measurement" error (`pos_m` metres, `ang_rad`
/// radians) — the deployment-time analogue of §4.1's CAD initial guess.
pub fn rough_initial_guess(
    dep: &Deployment,
    tx_rig_pose: &Pose,
    rx_rig_pose: &Pose,
    pos_m: f64,
    ang_rad: f64,
    seed: u64,
) -> (Pose6, Pose6) {
    use cyclops_geom::rotation::axis_angle;
    let mut rng = StdRng::seed_from_u64(seed);
    let hidden = dep.headset.hidden_config();
    let tx_true = hidden
        .vr_from_world
        .compose(&dep.tx_pose)
        .compose(&tx_rig_pose.inverse());
    let rx_true = hidden
        .x_offset
        .inverse()
        .compose(&dep.rx_mount)
        .compose(&rx_rig_pose.inverse());
    let perturb = |p: &Pose, rng: &mut StdRng| {
        let axis = v3(
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
        )
        .try_normalized(1e-6)
        .unwrap_or(Vec3::X);
        let rot = axis_angle(axis, rng.gen_range(-ang_rad..ang_rad)) * p.rot;
        let t = p.trans
            + v3(
                rng.gen_range(-pos_m..pos_m),
                rng.gen_range(-pos_m..pos_m),
                rng.gen_range(-pos_m..pos_m),
            );
        Pose::new(rot, t).to_params()
    };
    (perturb(&tx_true, &mut rng), perturb(&rx_true, &mut rng))
}

/// Each sample's four mirror turns, `(θ₁·v).sin_cos()` for its voltages
/// `(v_t1, v_t2)` under the TX model's gain and `(v_r1, v_r2)` under the
/// RX model's. A mapping moves neither gain, so one table serves the fit.
fn mirror_turns(
    tx_model: &GalvoParams,
    rx_model: &GalvoParams,
    samples: &[MappingSample],
) -> Vec<[(f64, f64); 4]> {
    samples
        .iter()
        .map(|s| {
            let v = s.voltages;
            [
                (tx_model.theta1 * v[0]).sin_cos(),
                (tx_model.theta1 * v[1]).sin_cos(),
                (rx_model.theta1 * v[2]).sin_cos(),
                (rx_model.theta1 * v[3]).sin_cos(),
            ]
        })
        .collect()
}

/// One model's part of a sample's Lemma-1 residual: its second-mirror
/// pivot `q₂`, its tilted second-mirror normal (which serves its trace and
/// its plane, the normal `second_mirror_plane` rotates to) and its output
/// line.
struct Side {
    q2: Vec3,
    n2p: Vec3,
    beam: Option<Ray>,
}

impl Side {
    /// The side of the model `g`, with normalized directions `axes`, at the
    /// mirror turns `sc1`, `sc2`.
    fn new(g: &GalvoParams, axes: &GalvoAxes, sc1: (f64, f64), sc2: (f64, f64)) -> Side {
        let n2p = g.mirror2_normal_sc(axes, sc2);
        Side {
            q2: g.q2,
            n2p,
            beam: g.trace_line_tilted(axes, g.mirror1_normal_sc(axes, sc1), n2p),
        }
    }
}

/// Each sample's TX [`Side`] under the mapping `tx_map`. The TX model is
/// the same for every sample, so its axes are normalized once.
fn tx_sides(tx_map: &[f64], tx_model: &GalvoParams, turns: &[[(f64, f64); 4]]) -> Vec<Side> {
    let txp = tx_model.transformed(&Pose6::from_slice(tx_map).to_pose());
    let axes = txp.axes();
    turns
        .iter()
        .map(|&[t1, t2, _, _]| Side::new(&txp, &axes, t1, t2))
        .collect()
}

/// Each sample's RX [`Side`] under the mapping `rx_map`, placed by the
/// sample's report.
fn rx_sides(
    rx_map: &[f64],
    rx_model: &GalvoParams,
    samples: &[MappingSample],
    turns: &[[(f64, f64); 4]],
) -> Vec<Side> {
    let rx_map = Pose6::from_slice(rx_map).to_pose();
    samples
        .iter()
        .zip(turns)
        .map(|(s, &[_, _, r1, r2])| {
            let rxp = rx_model.transformed(&s.reported.compose(&rx_map));
            Side::new(&rxp, &rxp.axes(), r1, r2)
        })
        .collect()
}

/// Pushes one sample's six Lemma-1 residual components, the vector gaps
/// `p_t − τ_r` and `p_r − τ_t`, or six `1.0` when a trace degenerates.
fn push_lemma_residual(out: &mut Vec<f64>, tx: &Side, rx: &Side) {
    let gaps = (|| {
        let (beam_t, beam_r) = (tx.beam?, rx.beam?);
        let (_, tau_t) = Plane::new(rx.q2, rx.n2p).intersect_line(&beam_t)?;
        let (_, tau_r) = Plane::new(tx.q2, tx.n2p).intersect_line(&beam_r)?;
        let g1 = beam_t.origin - tau_r;
        let g2 = beam_r.origin - tau_t;
        Some([g1.x, g1.y, g1.z, g2.x, g2.y, g2.z])
    })();
    out.extend_from_slice(&gaps.unwrap_or([1.0; 6]));
}

/// Pushes the residuals of the sides `tx` and `rx`, sample by sample.
fn push_residuals(out: &mut Vec<f64>, tx: &[Side], rx: &[Side]) {
    for (tx, rx) in tx.iter().zip(rx) {
        push_lemma_residual(out, tx, rx);
    }
}

/// Residuals of the Lemma-1 error for the LM fit: six components per sample
/// (the vector gaps `p_t − τ_r` and `p_r − τ_t`). `turns` are the samples'
/// [`mirror_turns`].
fn residuals(
    params12: &[f64],
    tx_model: &GalvoParams,
    rx_model: &GalvoParams,
    samples: &[MappingSample],
    turns: &[[(f64, f64); 4]],
) -> Vec<f64> {
    let mut out = Vec::with_capacity(samples.len() * 6);
    push_residuals(
        &mut out,
        &tx_sides(&params12[0..6], tx_model, turns),
        &rx_sides(&params12[6..12], rx_model, samples, turns),
    );
    out
}

/// The central differences of `numeric_jacobian_into` on [`residuals`] at
/// `x`, bit for bit. A TX-map column (the first six) leaves the RX
/// mapping's bits, and so every sample's RX [`Side`], as at `x`; an RX-map
/// column leaves the TX sides. Each column recomputes only the other side.
fn jacobian_into(
    x: &[f64],
    rel_step: f64,
    jac: &mut DMat,
    tx_model: &GalvoParams,
    rx_model: &GalvoParams,
    samples: &[MappingSample],
    turns: &[[(f64, f64); 4]],
) {
    let tx_base = tx_sides(&x[0..6], tx_model, turns);
    let rx_base = rx_sides(&x[6..12], rx_model, samples, turns);
    let column = |p: &[f64], j: usize, out: &mut Vec<f64>| {
        if j < 6 {
            push_residuals(out, &tx_sides(&p[0..6], tx_model, turns), &rx_base);
        } else {
            push_residuals(
                out,
                &tx_base,
                &rx_sides(&p[6..12], rx_model, samples, turns),
            );
        }
    };
    central_differences_into(column, x, rel_step, jac);
}

/// Fits the 12 mapping parameters (§4.2 step 3).
pub fn fit(
    tx_model: &GalvoParams,
    rx_model: &GalvoParams,
    samples: &[MappingSample],
    init_tx: Pose6,
    init_rx: Pose6,
) -> TrainedMapping {
    assert!(samples.len() >= 4, "need at least 4 aligned samples");
    let mut x0 = Vec::with_capacity(12);
    x0.extend_from_slice(&init_tx.to_array());
    x0.extend_from_slice(&init_rx.to_array());
    let turns = mirror_turns(tx_model, rx_model, samples);
    let f = |p: &[f64]| residuals(p, tx_model, rx_model, samples, &turns);
    let jacobian = |x: &[f64], rel_step: f64, jac: &mut DMat| {
        jacobian_into(x, rel_step, jac, tx_model, rx_model, samples, &turns)
    };
    let opts = LmOptions {
        max_iters: 150,
        ..Default::default()
    };
    let report = levenberg_marquardt_with(f, jacobian, &x0, &opts);
    TrainedMapping {
        tx_model: *tx_model,
        rx_model: *rx_model,
        tx_map: Pose6::from_slice(&report.params[0..6]).to_pose(),
        rx_map: Pose6::from_slice(&report.params[6..12]).to_pose(),
        report,
    }
}

/// End-to-end stage-2 helper used by experiments and tests: collect samples
/// and fit, given the stage-1 outputs. Returns the mapping and the samples
/// (so callers can evaluate combined errors on them or on held-out sets).
pub struct MappingTraining {
    /// The fitted mapping.
    pub trained: TrainedMapping,
    /// The samples used for the fit.
    pub samples: Vec<MappingSample>,
}

/// Runs collection + fit with the paper's sample budget (~30) and the
/// default tracker.
pub fn train(
    dep: &mut Deployment,
    tx_model: &GalvoParams,
    rx_model: &GalvoParams,
    init_tx: Pose6,
    init_rx: Pose6,
    n_samples: usize,
    seed: u64,
) -> MappingTraining {
    train_with(
        dep,
        tx_model,
        rx_model,
        init_tx,
        init_rx,
        n_samples,
        seed,
        &TrackerConfig::default(),
    )
}

/// [`train`] with an explicit tracker configuration — the training reports'
/// noise must match the tracker the system will run with.
#[allow(clippy::too_many_arguments)]
pub fn train_with(
    dep: &mut Deployment,
    tx_model: &GalvoParams,
    rx_model: &GalvoParams,
    init_tx: Pose6,
    init_rx: Pose6,
    n_samples: usize,
    seed: u64,
    tracker: &TrackerConfig,
) -> MappingTraining {
    let samples = collect_samples_with(dep, n_samples, seed, tracker);
    assert!(
        samples.len() >= 4,
        "only {} usable placements collected — the link cannot close over \
         enough of this deployment's working volume (check range vs design)",
        samples.len()
    );
    let trained = fit(tx_model, rx_model, &samples, init_tx, init_rx);
    MappingTraining { trained, samples }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::DeploymentConfig;
    use crate::kspace::{train_both, BoardConfig};

    /// Full pipeline fixture: stage 1 + stage 2 on a fresh deployment.
    /// Expensive (~seconds), so shared across assertions in one test.
    fn full_training(seed: u64) -> (Deployment, MappingTraining) {
        let mut dep = Deployment::new(&DeploymentConfig::paper_10g(seed));
        let (tx_tr, tx_rig, rx_tr, rx_rig) =
            train_both(&dep, &BoardConfig::default(), seed).expect("stage-1 training");
        let (init_tx, init_rx) =
            rough_initial_guess(&dep, &tx_rig, &rx_rig, 0.05, 0.08, seed.wrapping_add(7));
        let mt = train(
            &mut dep,
            &tx_tr.fitted,
            &rx_tr.fitted,
            init_tx,
            init_rx,
            30,
            seed.wrapping_add(9),
        );
        (dep, mt)
    }

    /// The structured [`jacobian_into`] against `numeric_jacobian_into` on
    /// [`residuals`], bit for bit, at 1 and 4 threads: at the identity
    /// mapping and seven random ones, over samples whose voltages span the
    /// sweep range, one of them with an RX model whose mirror-2 plane is
    /// parallel to its mid beam, so that its trace degenerates to the `1.0`
    /// sentinel.
    #[test]
    fn structured_mapping_jacobian_is_the_numeric_one_bit_for_bit() {
        use cyclops_solver::jacobian::numeric_jacobian_into;
        let mut rng = StdRng::seed_from_u64(5);
        let nominal = GalvoParams::nominal();
        let tx_model = nominal.perturbed(&mut rng, 1.0, 1.0, 0.02);
        // Mirror 2 turns about its own normal, so at `v_r1 = 0` the mid beam
        // runs along its plane.
        let rx_model = GalvoParams {
            n2: nominal.r2,
            ..nominal
        };
        let samples: Vec<MappingSample> = (0..12)
            .map(|k| MappingSample {
                voltages: [0, 1, 2, 3].map(|m| match (k, m) {
                    (0, 2) => 0.0,
                    _ => rng.gen_range(-10.0..10.0),
                }),
                reported: random_placement(&mut rng, 1.75),
            })
            .collect();
        let turns = mirror_turns(&tx_model, &rx_model, &samples);
        let residual = |p: &[f64]| residuals(p, &tx_model, &rx_model, &samples, &turns);
        let rel = LmOptions::default().fd_rel_step;
        let mut sentinels = 0;
        for k in 0..8 {
            let x: Vec<f64> = (0..12)
                .map(|i| {
                    let scale = if i % 6 < 3 { 0.3 } else { 0.5 };
                    scale * rng.gen_range(-1.0..1.0) * f64::from(k > 0)
                })
                .collect();
            sentinels += residual(&x).iter().filter(|&&r| r == 1.0).count();
            let mut want = DMat::zeros(6 * samples.len(), 12);
            numeric_jacobian_into(&residual, &x, rel, &mut want);
            for threads in [1, 4] {
                let mut got = DMat::zeros(6 * samples.len(), 12);
                cyclops_par::with_threads(threads, || {
                    jacobian_into(&x, rel, &mut got, &tx_model, &rx_model, &samples, &turns)
                });
                let bits = |m: &DMat| -> Vec<u64> {
                    (0..m.rows)
                        .flat_map(|r| m.row(r).to_vec())
                        .map(f64::to_bits)
                        .collect()
                };
                assert_eq!(bits(&got), bits(&want), "point {k}, {threads} threads");
            }
        }
        assert!(sentinels > 0, "no trace degenerated");
    }

    #[test]
    fn mapping_fit_reaches_table2_combined_accuracy() {
        let (_dep, mt) = full_training(2024);
        assert!(mt.samples.len() >= 25, "got {} samples", mt.samples.len());
        let (tx_err, rx_err) = mt.trained.combined_errors(&mt.samples);
        let (tx_mm, rx_mm) = (tx_err.mean * 1e3, rx_err.mean * 1e3);
        // Table 2: combined avg 2.18 mm (TX) / 4.54 mm (RX); max ≈ 4–6.5 mm.
        // Accept the same order (we train a wider orientation envelope).
        assert!(tx_mm < 12.0, "combined TX avg {tx_mm} mm");
        assert!(rx_mm < 15.0, "combined RX avg {rx_mm} mm");
        assert!(
            tx_err.max * 1e3 < 30.0,
            "combined TX max {} mm",
            tx_err.max * 1e3
        );
        // The fit must improve dramatically on the initial guess.
        assert!(
            mt.trained.report.cost < mt.trained.report.initial_cost / 10.0,
            "cost {} vs initial {}",
            mt.trained.report.cost,
            mt.trained.report.initial_cost
        );
    }

    #[test]
    fn mapping_generalizes_to_held_out_placements() {
        let (mut dep, mt) = full_training(31);
        let held_out = collect_samples(&mut dep, 8, 777);
        assert!(held_out.len() >= 6);
        let (tx_err, rx_err) = mt.trained.combined_errors(&held_out);
        assert!(
            tx_err.mean * 1e3 < 15.0,
            "held-out TX avg {} mm",
            tx_err.mean * 1e3
        );
        assert!(
            rx_err.mean * 1e3 < 18.0,
            "held-out RX avg {} mm",
            rx_err.mean * 1e3
        );
    }
}
