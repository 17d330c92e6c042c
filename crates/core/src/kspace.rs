//! Stage 1: learning the GMA model `G` in K-space (§4.1).
//!
//! The bench procedure: a planar board with grid lines stands in front of
//! the (fixed) GMA; for each interior grid point the experimenter finds the
//! voltage pair that makes the beam hit it, yielding 4-attribute samples
//! `(x, y, v₁, v₂)`. The K-space coordinate system's x–y plane *is* the
//! board. Non-linear least squares then fits the parameterized beam-path
//! expression (the [`GalvoParams`] of `cyclops-optics`) to the samples,
//! starting "from the available CAD design of the GM ... and manual
//! measurement of \[the] GM's position".
//!
//! Paper numbers reproduced here: a 20×15 board of 1-inch cells at 1.5 m
//! giving 266 interior training points, and stage-1 fit errors of ~1–2 mm
//! average (Table 2).

use crate::deployment::Deployment;
use cyclops_geom::plane::Plane;
use cyclops_geom::pose::{Pose, Pose6};
use cyclops_geom::ray::Ray;
use cyclops_geom::rotation::axis_angle;
use cyclops_geom::vec3::{v3, Vec3};
use cyclops_optics::galvo::{
    check_volts, GalvoAxes, GalvoError, GalvoParams, GalvoSim, N_PARAMS, VOLT_MAX, VOLT_MIN,
};
use cyclops_solver::jacobian::central_differences_into;
use cyclops_solver::linalg::DMat;
use cyclops_solver::lm::{levenberg_marquardt_with, LmOptions, LmReport};
use cyclops_solver::stats::ResidualStats;
use cyclops_vrh::rand_util::gauss2;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Board layout (paper defaults: 20×15 one-inch cells).
#[derive(Debug, Clone, Copy)]
pub struct BoardConfig {
    /// Number of cell columns.
    pub cols: usize,
    /// Number of cell rows.
    pub rows: usize,
    /// Cell edge length (metres); 1 inch in the prototype.
    pub cell_m: f64,
}

impl Default for BoardConfig {
    fn default() -> Self {
        BoardConfig {
            cols: 20,
            rows: 15,
            cell_m: 0.0254,
        }
    }
}

impl BoardConfig {
    /// Number of interior intersection points = training samples
    /// ((cols−1)×(rows−1); 19×14 = 266 for the paper's board).
    pub fn n_interior(&self) -> usize {
        (self.cols - 1) * (self.rows - 1)
    }
}

/// Errors of the stage-1 training pipeline, surfaced as values instead of
/// panics so a mis-assembled rig degrades gracefully.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KspaceError {
    /// The training set is empty: the rest beam missed the board entirely,
    /// or the operator could not land the beam on a single grid point.
    EmptyTrainingSet,
    /// A training sample carries an invalid voltage pair (propagated from
    /// the galvo layer's validation).
    Galvo(GalvoError),
}

impl std::fmt::Display for KspaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KspaceError::EmptyTrainingSet => {
                write!(f, "K-space training set is empty (no board hits)")
            }
            KspaceError::Galvo(e) => write!(f, "K-space training sample invalid: {e}"),
        }
    }
}

impl std::error::Error for KspaceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            KspaceError::Galvo(e) => Some(e),
            KspaceError::EmptyTrainingSet => None,
        }
    }
}

impl From<GalvoError> for KspaceError {
    fn from(e: GalvoError) -> KspaceError {
        KspaceError::Galvo(e)
    }
}

/// One K-space training sample: board coordinates hit at a voltage pair.
#[derive(Debug, Clone, Copy)]
pub struct KspaceSample {
    /// Board x coordinate (metres).
    pub x: f64,
    /// Board y coordinate (metres).
    pub y: f64,
    /// First-mirror voltage.
    pub v1: f64,
    /// Second-mirror voltage.
    pub v2: f64,
}

/// The calibration rig: one galvo assembly fixed in front of the board.
///
/// K-space is the board frame: the board occupies the `z = 0` plane and the
/// assembly sits ~1.5 m in front of it, firing towards −Z.
#[derive(Debug, Clone)]
pub struct KspaceRig {
    /// The hardware under calibration (truth in its body frame).
    pub galvo: GalvoSim,
    /// Body frame → K-space (truth; hidden from the learner, who only has
    /// [`KspaceRig::cad_initial_guess`]).
    rig_pose: Pose,
    /// σ of the board hit-point reading (metres) — grid resolution /
    /// spot-centroid judgement by the experimenter.
    pub board_noise_m: f64,
    rng: StdRng,
}

impl KspaceRig {
    /// Standard rig: assembly at `z ≈ 1.5 m` firing down at the board, with
    /// centimetre/half-degree placement imperfection drawn from the seed.
    pub fn standard(galvo: GalvoSim, seed: u64) -> KspaceRig {
        let mut rng = StdRng::seed_from_u64(seed);
        // Flip the body's +Z output to world −Z and lift to z = 1.5.
        let flip = axis_angle(Vec3::X, std::f64::consts::PI);
        let tilt_axis = v3(
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
            rng.gen_range(-1.0..1.0),
        )
        .try_normalized(1e-6)
        .unwrap_or(Vec3::X);
        let tilt = axis_angle(tilt_axis, rng.gen_range(-0.01..0.01));
        let rig_pose = Pose::new(
            tilt * flip,
            v3(
                rng.gen_range(-0.01..0.01),
                rng.gen_range(-0.01..0.01),
                1.5 + rng.gen_range(-0.01..0.01),
            ),
        );
        KspaceRig {
            galvo,
            rig_pose,
            board_noise_m: 1.2e-3,
            rng,
        }
    }

    /// True rig pose (experiment-setup/white-box access only).
    pub fn true_rig_pose(&self) -> Pose {
        self.rig_pose
    }

    /// The learner's initial guess: the CAD-nominal assembly placed at the
    /// *measured* rig pose (tape-measure accuracy: ~3 mm, ~0.5°).
    pub fn cad_initial_guess(&mut self) -> GalvoParams {
        let axis = v3(
            self.rng.gen_range(-1.0..1.0),
            self.rng.gen_range(-1.0..1.0),
            self.rng.gen_range(-1.0..1.0),
        )
        .try_normalized(1e-6)
        .unwrap_or(Vec3::Y);
        let ang = self.rng.gen_range(-0.01..0.01);
        let dt = v3(
            self.rng.gen_range(-3e-3..3e-3),
            self.rng.gen_range(-3e-3..3e-3),
            self.rng.gen_range(-3e-3..3e-3),
        );
        let measured_pose = Pose::new(
            axis_angle(axis, ang) * self.rig_pose.rot,
            self.rig_pose.trans + dt,
        );
        GalvoParams::nominal().transformed(&measured_pose)
    }

    /// Fires the beam at the given voltages and reads the board hit point
    /// (with measurement noise). `None` if the beam misses the board plane.
    pub fn measure_hit(&mut self, v1: f64, v2: f64) -> Option<(f64, f64)> {
        self.galvo.command(v1, v2);
        let ray_body = self.galvo.output_ray(&mut self.rng)?;
        let ray = self.rig_pose.apply_ray(&ray_body);
        let board = Plane::new(Vec3::ZERO, Vec3::Z);
        let (_, hit) = board.intersect_ray(&ray)?;
        let [gx, gy] = gauss2(&mut self.rng);
        let (nx, ny) = (gx * self.board_noise_m, gy * self.board_noise_m);
        Some((hit.x + nx, hit.y + ny))
    }

    /// The bench inner loop: find the voltage pair that puts the beam on the
    /// target board point, by damped Newton iteration on measured hits.
    ///
    /// Uses a wide finite-difference baseline (0.25 V ≈ 2 cm of board travel)
    /// so the measured Jacobian is barely corrupted by the millimetre-level
    /// reading noise, and *verifies* the final hit: a point the beam visibly
    /// missed is rejected (`None`), exactly as a bench operator would skip a
    /// grid point they could not land on.
    pub fn find_voltages_for(&mut self, x: f64, y: f64) -> Option<(f64, f64)> {
        let (mut v1, mut v2) = (0.0f64, 0.0f64);
        let eps = 0.25;
        let mut best: Option<(f64, f64, f64)> = None; // (err, v1, v2)
        for _ in 0..30 {
            let (hx, hy) = self.measure_hit(v1, v2)?;
            let (ex, ey) = (x - hx, y - hy);
            let err = (ex * ex + ey * ey).sqrt();
            if best.map_or(true, |(e, _, _)| err < e) {
                best = Some((err, v1, v2));
            }
            // Stop once the measured error reaches the reading-noise floor
            // (an exact rig can therefore converge much tighter).
            if err < (1.25 * self.board_noise_m).max(0.3e-3) {
                break;
            }
            let (h1x, h1y) = self.measure_hit(v1 + eps, v2)?;
            let (h2x, h2y) = self.measure_hit(v1, v2 + eps)?;
            // 2×2 linear solve for the voltage correction.
            let (a, b) = (h1x - hx, h2x - hx);
            let (c, d) = (h1y - hy, h2y - hy);
            let det = a * d - b * c;
            if det.abs() < 1e-12 {
                return None;
            }
            let dv1 = (ex * d - b * ey) / det * eps;
            let dv2 = (a * ey - ex * c) / det * eps;
            // Damp steps for stability against measurement noise.
            v1 = (v1 + (0.9 * dv1).clamp(-2.0, 2.0)).clamp(VOLT_MIN, VOLT_MAX);
            v2 = (v2 + (0.9 * dv2).clamp(-2.0, 2.0)).clamp(VOLT_MIN, VOLT_MAX);
        }
        let (err, bv1, bv2) = best?;
        // Operator verification: independently re-measure the best setting
        // and only record the sample if the beam is visibly on the target.
        let (hx, hy) = self.measure_hit(bv1, bv2)?;
        let verify = ((x - hx).powi(2) + (y - hy).powi(2)).sqrt();
        if err.max(verify) > 4.5e-3 {
            return None;
        }
        Some((bv1, bv2))
    }

    /// Collects the full §4.1 training set: the interior grid points of a
    /// board centred on the beam's rest hit point.
    pub fn collect_samples(&mut self, board: &BoardConfig) -> Vec<KspaceSample> {
        // A rest beam that misses the board entirely means the rig is
        // grossly mis-assembled; the operator gets no samples (and `fit`
        // will refuse an empty set) rather than a panic.
        let Some((cx, cy)) = self.measure_hit(0.0, 0.0) else {
            return Vec::new();
        };
        let w = board.cols as f64 * board.cell_m;
        let h = board.rows as f64 * board.cell_m;
        let (ox, oy) = (cx - w / 2.0, cy - h / 2.0);
        let mut out = Vec::with_capacity(board.n_interior());
        for i in 1..board.cols {
            for j in 1..board.rows {
                let x = ox + i as f64 * board.cell_m;
                let y = oy + j as f64 * board.cell_m;
                if let Some((v1, v2)) = self.find_voltages_for(x, y) {
                    out.push(KspaceSample { x, y, v1, v2 });
                }
            }
        }
        out
    }
}

/// Result of the stage-1 fit.
#[derive(Debug, Clone)]
pub struct KspaceTraining {
    /// The learned model `G` in K-space.
    pub fitted: GalvoParams,
    /// Solver diagnostics.
    pub report: LmReport,
    /// Board-plane hit error statistics over the training samples (metres) —
    /// the "First Stage" rows of Table 2.
    pub train_error: ResidualStats,
}

/// The board: the `z = 0` plane of K-space.
fn board() -> Plane {
    Plane::new(Vec3::ZERO, Vec3::Z)
}

/// Pushes sample `s`'s board-plane residual pair for the traced output
/// line `line`: the (x, y) gap between its hit and the recorded target, or
/// `(1, 1)` when the trace degenerates.
fn push_board_residual(out: &mut Vec<f64>, board: &Plane, line: Option<Ray>, s: &KspaceSample) {
    match line.and_then(|ray| board.intersect_line(&ray)) {
        Some((_, hit)) => {
            out.push(hit.x - s.x);
            out.push(hit.y - s.y);
        }
        None => {
            out.push(1.0);
            out.push(1.0);
        }
    }
}

/// Each sample's mirror turns for the gain `theta1`: `(θ₁·v₁).sin_cos()`
/// and `(θ₁·v₂).sin_cos()`. They hold for every model with that `θ₁`.
fn mirror_turns(theta1: f64, samples: &[KspaceSample]) -> Vec<[(f64, f64); 2]> {
    samples
        .iter()
        .map(|s| [(theta1 * s.v1).sin_cos(), (theta1 * s.v2).sin_cos()])
        .collect()
}

/// Board-plane residuals of a candidate model against the samples: for each
/// sample, the (x, y) gap between the traced hit and the recorded target.
/// `turns` are the samples' [`mirror_turns`] for the model's `θ₁`.
fn residuals(
    params: &GalvoParams,
    samples: &[KspaceSample],
    turns: &[[(f64, f64); 2]],
) -> Vec<f64> {
    let mut out = Vec::with_capacity(samples.len() * 2);
    push_residuals(&mut out, params, samples, turns);
    out
}

/// Pushes the [`residuals`] of `params` onto `out`.
fn push_residuals(
    out: &mut Vec<f64>,
    params: &GalvoParams,
    samples: &[KspaceSample],
    turns: &[[(f64, f64); 2]],
) {
    let (board, axes) = (board(), params.axes());
    for (s, [sc1, sc2]) in samples.iter().zip(turns) {
        push_board_residual(out, &board, params.trace_line_sc(&axes, *sc1, *sc2), s);
    }
}

/// Phase A of [`fit_with_options`]: a 6-DoF rigid correction
/// `(rv, t)` ([`Pose6`]) of the initial guess. A pose leaves `θ₁` alone, so
/// every evaluation shares one table of mirror turns.
struct PhaseA<'a> {
    initial: &'a GalvoParams,
    samples: &'a [KspaceSample],
    turns: Vec<[(f64, f64); 2]>,
}

impl PhaseA<'_> {
    fn model(&self, p: &[f64]) -> GalvoParams {
        self.initial.transformed(&Pose6::from_slice(p).to_pose())
    }

    fn residuals(&self, p: &[f64]) -> Vec<f64> {
        residuals(&self.model(p), self.samples, &self.turns)
    }

    /// The central differences of `numeric_jacobian_into` on
    /// [`PhaseA::residuals`] at `x`, bit for bit. A translation column
    /// (`t`, the last three) keeps the rotation vector's bits, so the moved
    /// model keeps every direction's bits and differs from the base point
    /// in its points alone: each sample's line takes the base point's
    /// normals and directions ([`SampleTrace::moved_hits`]). The rotation
    /// columns trace in full.
    fn jacobian_into(&self, x: &[f64], rel_step: f64, jac: &mut DMat) {
        let base = self.model(x);
        let axes = base.axes();
        let traces = sample_traces(&base, &axes, &self.turns);
        let board = board();
        let column = |p: &[f64], j: usize, r: &mut Vec<f64>| {
            let g = self.model(p);
            if j < 3 {
                return push_residuals(r, &g, self.samples, &self.turns);
            }
            // The moved model's axes are the base point's, bit for bit.
            for (s, b) in self.samples.iter().zip(&traces) {
                push_board_residual(r, &board, b.moved_hits(&g, &axes), s);
            }
        };
        central_differences_into(column, x, rel_step, jac);
    }
}

/// Phase B of [`fit_with_options`]: the board residuals of the full
/// geometric model, followed by the CAD prior's pull on each parameter.
struct PhaseB<'a> {
    samples: &'a [KspaceSample],
    anchor: Vec<f64>,
    prior_sigma: Vec<f64>,
    prior_w: f64,
}

/// The base point's geometry of one sample in a structured Jacobian: both
/// tilted mirror normals, raw and normalized (`n̂₁′`, `n̂₂′`, as the mirror
/// planes normalize them), the mid-mirror line and the output line's
/// (normalized) direction.
struct SampleTrace {
    n1p: Vec3,
    n2p: Vec3,
    n1u: Vec3,
    n2u: Vec3,
    mid: Option<Ray>,
    out_dir: Option<Vec3>,
}

impl SampleTrace {
    /// The output line of a model `g`, with normalized directions `axes`,
    /// that differs from the base point in its points `p0`, `q1`, `q2`
    /// alone: both normals and both directions are the base point's, and
    /// only the mirror hits move.
    fn moved_hits(&self, g: &GalvoParams, axes: &GalvoAxes) -> Option<Ray> {
        let mid = Ray {
            origin: g.mirror1_hit(axes, self.n1u)?,
            ..self.mid?
        };
        Some(Ray {
            origin: g.mirror2_hit(&mid, self.n2u)?,
            dir: self.out_dir?,
        })
    }
}

/// Each sample's [`SampleTrace`] for the model `base`, whose normalized
/// directions are `axes` and mirror turns `turns`.
fn sample_traces(
    base: &GalvoParams,
    axes: &GalvoAxes,
    turns: &[[(f64, f64); 2]],
) -> Vec<SampleTrace> {
    turns
        .iter()
        .map(|&[sc1, sc2]| {
            let (n1p, n2p) = (
                base.mirror1_normal_sc(axes, sc1),
                base.mirror2_normal_sc(axes, sc2),
            );
            let (n1u, n2u) = (n1p.normalized(), n2p.normalized());
            let mid = base.mid_line_unit(axes, n1p, n1u);
            SampleTrace {
                n1p,
                n2p,
                n1u,
                n2u,
                mid,
                out_dir: mid
                    .and_then(|mid| base.out_line_unit(&mid, n2p, n2u))
                    .map(|out| out.dir),
            }
        })
        .collect()
}

impl PhaseB<'_> {
    /// Phase B on `samples`, its prior anchored at `anchor` (the phase-A
    /// parameters) when `use_prior` is set.
    fn new<'a>(samples: &'a [KspaceSample], anchor: &[f64], use_prior: bool) -> PhaseB<'a> {
        // Prior 1σ per parameter: positions (m) 2 mm, direction components
        // 0.02, θ₁ 2 %. One σ of deviation costs about one 1.2 mm board
        // residual.
        let prior_sigma: Vec<f64> = (0..N_PARAMS)
            .map(|i| match i {
                24 => 0.02 * anchor[24].abs().max(1e-6), // theta1, fractional
                _ => {
                    // Layout: p0 x0 n1 q1 r1 n2 q2 r2 (3 components each).
                    let block = i / 3;
                    match block {
                        0 | 3 | 6 => 2e-3, // points: p0, q1, q2
                        _ => 0.02,         // direction components
                    }
                }
            })
            .collect();
        const PRIOR_WEIGHT: f64 = 1.2e-3;
        PhaseB {
            samples,
            anchor: anchor.to_vec(),
            prior_sigma,
            prior_w: if use_prior { PRIOR_WEIGHT } else { 0.0 },
        }
    }

    fn residuals(&self, p: &[f64]) -> Vec<f64> {
        let g = GalvoParams::from_vec(p);
        let mut r = residuals(&g, self.samples, &mirror_turns(g.theta1, self.samples));
        self.push_prior(p, &mut r);
        r
    }

    fn push_prior(&self, p: &[f64], r: &mut Vec<f64>) {
        for ((x, a), sigma) in p.iter().zip(&self.anchor).zip(&self.prior_sigma) {
            r.push(self.prior_w * (x - a) / sigma);
        }
    }

    /// The central differences of `numeric_jacobian_into` on
    /// [`PhaseB::residuals`] at `x`, bit for bit. A column's perturbed
    /// vector moves one parameter, so each sample reuses the base point's
    /// normals and line directions wherever that parameter cannot change
    /// them (layout: `p0 x0 n1 q1 r1 n2 q2 r2 θ₁`):
    /// - `p0`, `q1`, `q2` move only the mirror hits: both normals and both
    ///   directions are the base point's ([`SampleTrace::moved_hits`]);
    /// - `x0` turns the input beam: both normals are the base point's;
    /// - `n1`, `r1` move `n̂₁′` and the mid line: `n̂₂′` is the base
    ///   point's;
    /// - `n2`, `r2` move only `n̂₂′`: the mid line is the base point's;
    /// - `θ₁` moves everything, so its columns trace in full.
    ///
    /// Every other column keeps the base `θ₁`, so its mirror rotations take
    /// the base point's [`mirror_turns`]. Every reused value is the one the
    /// full trace would recompute from the same bits, so each residual is
    /// unchanged.
    fn jacobian_into(&self, x: &[f64], rel_step: f64, jac: &mut DMat) {
        let base = GalvoParams::from_vec(x);
        let axes = base.axes();
        let turns = mirror_turns(base.theta1, self.samples);
        let traces = sample_traces(&base, &axes, &turns);
        let board = board();
        let column = |p: &[f64], j: usize, r: &mut Vec<f64>| {
            let g = GalvoParams::from_vec(p);
            let axes = g.axes();
            for ((s, b), &[sc1, sc2]) in self.samples.iter().zip(&traces).zip(&turns) {
                let line = match j / 3 {
                    0 | 3 | 6 => b.moved_hits(&g, &axes),
                    1 => g
                        .mid_line_unit(&axes, b.n1p, b.n1u)
                        .and_then(|mid| g.out_line_unit(&mid, b.n2p, b.n2u)),
                    2 | 4 => g
                        .mid_line(&axes, g.mirror1_normal_sc(&axes, sc1))
                        .and_then(|mid| g.out_line_unit(&mid, b.n2p, b.n2u)),
                    5 | 7 => b
                        .mid
                        .and_then(|mid| g.out_line(&mid, g.mirror2_normal_sc(&axes, sc2))),
                    _ => g.trace_line_with(&axes, s.v1, s.v2),
                };
                push_board_residual(r, &board, line, s);
            }
            self.push_prior(p, r);
        };
        central_differences_into(column, x, rel_step, jac);
    }
}

/// Per-sample hit-distance errors (metres) of a model. Samples where the
/// candidate model's trace degenerates are excluded from the statistics
/// (they are penalized inside the fit's residuals, but a fabricated sentinel
/// distance would corrupt the *reported* Table-2 numbers).
pub fn eval_error(params: &GalvoParams, samples: &[KspaceSample]) -> ResidualStats {
    let (board, axes) = (board(), params.axes());
    let dists: Vec<f64> = samples
        .iter()
        .filter_map(|s| {
            let ray = params.trace_line_with(&axes, s.v1, s.v2)?;
            let (_, hit) = board.intersect_line(&ray)?;
            Some(((hit.x - s.x).powi(2) + (hit.y - s.y).powi(2)).sqrt())
        })
        .collect();
    ResidualStats::from_slice(&dists)
}

/// Fits `G` to the samples from the CAD initial guess (§4.1(B)).
///
/// Two-phase fit reflecting the error structure of a real rig: the dominant
/// unknown is *where the assembly sits* (centimetres/degrees of placement
/// error), while the CAD internals are right to a millimetre. Phase A
/// optimizes a 6-DoF rigid correction of the whole assembly; phase B then
/// releases all [`N_PARAMS`] geometric parameters. Fitting all 25 parameters
/// directly from the raw guess stalls in the flat placement valley for some
/// geometries — the staging makes the §4.1 procedure robust.
pub fn fit(samples: &[KspaceSample], initial: &GalvoParams) -> Result<KspaceTraining, KspaceError> {
    fit_with_options(samples, initial, true)
}

/// [`fit`] with the CAD prior optionally disabled — used by the board-size
/// ablation to quantify what the prior buys.
///
/// Fails with [`KspaceError::EmptyTrainingSet`] when there is nothing to fit
/// (formerly a panic) and with [`KspaceError::Galvo`] when a sample records
/// a voltage outside the driver range — a sample no real bench could have
/// produced.
pub fn fit_with_options(
    samples: &[KspaceSample],
    initial: &GalvoParams,
    use_prior: bool,
) -> Result<KspaceTraining, KspaceError> {
    if samples.is_empty() {
        return Err(KspaceError::EmptyTrainingSet);
    }
    for s in samples {
        check_volts(s.v1, s.v2)?;
    }

    // Phase A: 6-DoF rigid correction on top of the initial guess.
    let phase_a = PhaseA {
        initial,
        samples,
        turns: mirror_turns(initial.theta1, samples),
    };
    let opts_a = LmOptions {
        max_iters: 80,
        ..Default::default()
    };
    let rep_a = levenberg_marquardt_with(
        |p: &[f64]| phase_a.residuals(p),
        |x: &[f64], rel_step: f64, jac: &mut DMat| phase_a.jacobian_into(x, rel_step, jac),
        &[0.0; 6],
        &opts_a,
    );
    let posed = phase_a.model(&rep_a.params);

    // Phase B: full geometric fit, with a CAD prior.
    //
    // A single-plane training set leaves weakly-determined parameter
    // directions (e.g. trading beam-origin depth against mirror positions):
    // the board residual is flat along them, but extrapolation off the board
    // is not. The CAD drawing *is* informative there — assembly tolerances
    // are ~1 mm / ~1° — so the fit is a MAP estimate: board residuals plus a
    // weak pull of each parameter towards its phase-A (CAD + measured rig
    // pose) value, scaled by the CAD tolerance class. This keeps the
    // on-board residual at the reading-noise floor while anchoring the
    // off-board behaviour, which is what lets the learned model support the
    // full rotation envelope of §5.3.
    let x0 = posed.to_vec();
    assert_eq!(x0.len(), N_PARAMS);
    let phase_b = PhaseB::new(samples, &x0, use_prior);
    let opts = LmOptions {
        max_iters: 120,
        ..Default::default()
    };
    let report = levenberg_marquardt_with(
        |p: &[f64]| phase_b.residuals(p),
        |x: &[f64], rel_step: f64, jac: &mut DMat| phase_b.jacobian_into(x, rel_step, jac),
        &x0,
        &opts,
    );
    let fitted = GalvoParams::from_vec(&report.params);
    let train_error = eval_error(&fitted, samples);
    Ok(KspaceTraining {
        fitted,
        report,
        train_error,
    })
}

/// Convenience: run the whole stage-1 pipeline for the TX and RX assemblies
/// of a deployment, as the manufacturer would pre-deployment. Returns
/// `(tx_training, tx_rig_pose_truth, rx_training, rx_rig_pose_truth)` —
/// the rig poses are needed by white-box tests only. Fails (instead of
/// panicking) when either rig yields no usable training samples.
pub fn train_both(
    dep: &Deployment,
    board: &BoardConfig,
    seed: u64,
) -> Result<(KspaceTraining, Pose, KspaceTraining, Pose), KspaceError> {
    let mut tx_rig = KspaceRig::standard(dep.tx.clone(), seed.wrapping_add(1));
    let tx_init = tx_rig.cad_initial_guess();
    let tx_samples = tx_rig.collect_samples(board);
    let tx_tr = fit(&tx_samples, &tx_init)?;

    let mut rx_rig = KspaceRig::standard(dep.rx.clone(), seed.wrapping_add(2));
    let rx_init = rx_rig.cad_initial_guess();
    let rx_samples = rx_rig.collect_samples(board);
    let rx_tr = fit(&rx_samples, &rx_init)?;

    Ok((tx_tr, tx_rig.true_rig_pose(), rx_tr, rx_rig.true_rig_pose()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclops_optics::galvo::GalvoSimConfig;
    use cyclops_solver::jacobian::numeric_jacobian_into;
    use cyclops_solver::lm::levenberg_marquardt;

    fn test_rig(seed: u64) -> KspaceRig {
        let mut rng = StdRng::seed_from_u64(seed);
        let truth = GalvoParams::nominal().perturbed(&mut rng, 1.0, 1.0, 0.02);
        KspaceRig::standard(GalvoSim::new(truth, GalvoSimConfig::default()), seed)
    }

    #[test]
    fn board_has_266_interior_points() {
        assert_eq!(BoardConfig::default().n_interior(), 266);
    }

    #[test]
    fn empty_or_invalid_training_sets_are_typed_errors() {
        let init = GalvoParams::nominal();
        // Formerly a panic: an operator who landed zero grid points.
        assert_eq!(fit(&[], &init).err(), Some(KspaceError::EmptyTrainingSet));
        // A sample no real bench could record: voltage past the driver rail.
        let bad = KspaceSample {
            x: 0.0,
            y: 0.0,
            v1: 42.0,
            v2: 0.0,
        };
        assert!(matches!(
            fit(&[bad], &init),
            Err(KspaceError::Galvo(GalvoError::VoltageOutOfRange {
                mirror: 1,
                ..
            }))
        ));
    }

    #[test]
    fn find_voltages_actually_hits_target() {
        let mut rig = test_rig(1);
        let (cx, cy) = rig.measure_hit(0.0, 0.0).unwrap();
        let (tx, ty) = (cx + 0.1, cy - 0.08);
        let (v1, v2) = rig.find_voltages_for(tx, ty).unwrap();
        // Verify with an independent measurement (noise ≈ 0.7 mm).
        let (hx, hy) = rig.measure_hit(v1, v2).unwrap();
        let err = ((hx - tx).powi(2) + (hy - ty).powi(2)).sqrt();
        assert!(err < 2.5e-3, "residual targeting error {err} m");
    }

    #[test]
    fn collect_samples_covers_board() {
        let mut rig = test_rig(2);
        let board = BoardConfig {
            cols: 6,
            rows: 5,
            cell_m: 0.0254,
        };
        let samples = rig.collect_samples(&board);
        assert!(samples.len() >= board.n_interior() * 9 / 10);
        // Distinct voltage pairs.
        for w in samples.windows(2) {
            assert!(w[0].v1 != w[1].v1 || w[0].v2 != w[1].v2);
        }
    }

    #[test]
    fn fit_reaches_table2_stage1_accuracy() {
        // Full paper-scale training: 266 samples, CAD initial guess.
        let mut rig = test_rig(3);
        let init = rig.cad_initial_guess();
        let samples = rig.collect_samples(&BoardConfig::default());
        assert!(samples.len() >= 250, "collected {} samples", samples.len());
        let tr = fit(&samples, &init).expect("stage-1 fit");
        let avg_mm = tr.train_error.mean * 1e3;
        let max_mm = tr.train_error.max * 1e3;
        // Table 2 stage-1: avg 1.24–1.90 mm, max 5.3–5.4 mm. Accept the
        // same order of magnitude.
        assert!(avg_mm < 3.0, "avg error {avg_mm} mm");
        assert!(max_mm < 9.0, "max error {max_mm} mm");
        // And the fit must actually improve on the CAD guess.
        let init_err = eval_error(&init, &samples);
        assert!(tr.train_error.mean < init_err.mean / 3.0);
    }

    #[test]
    fn fitted_model_generalizes_off_grid() {
        // Hold out fresh targets never used in training.
        let mut rig = test_rig(4);
        let init = rig.cad_initial_guess();
        let samples = rig.collect_samples(&BoardConfig::default());
        let tr = fit(&samples, &init).expect("stage-1 fit");
        let mut held_out = Vec::new();
        let (cx, cy) = rig.measure_hit(0.0, 0.0).unwrap();
        for k in 0..20 {
            let ang = k as f64 * 0.7;
            let r = 0.05 + 0.13 * ((k % 5) as f64 / 5.0);
            let (x, y) = (cx + r * ang.cos(), cy + r * ang.sin());
            if let Some((v1, v2)) = rig.find_voltages_for(x, y) {
                held_out.push(KspaceSample { x, y, v1, v2 });
            }
        }
        let err = eval_error(&tr.fitted, &held_out);
        assert!(err.mean * 1e3 < 4.0, "held-out avg {} mm", err.mean * 1e3);
    }

    /// Phase B's structured Jacobian against `numeric_jacobian_into` on
    /// its residual, bit for bit, at 1 and 4 threads.
    fn assert_jacobians_match(phase_b: &PhaseB<'_>, x: &[f64], ctx: &str) {
        assert_structured_jacobian_matches(
            2 * phase_b.samples.len() + N_PARAMS,
            |p: &[f64]| phase_b.residuals(p),
            |x: &[f64], rel: f64, jac: &mut DMat| phase_b.jacobian_into(x, rel, jac),
            x,
            ctx,
        );
    }

    /// A structured `jacobian` of `residual` (`rows` residuals) against
    /// `numeric_jacobian_into` at `x`, bit for bit, at 1 and 4 threads.
    fn assert_structured_jacobian_matches(
        rows: usize,
        residual: impl Fn(&[f64]) -> Vec<f64> + Sync,
        jacobian: impl Fn(&[f64], f64, &mut DMat),
        x: &[f64],
        ctx: &str,
    ) {
        let cols = x.len();
        let rel = LmOptions::default().fd_rel_step;
        let mut want = DMat::zeros(rows, cols);
        numeric_jacobian_into(&residual, x, rel, &mut want);
        for threads in [1, 4] {
            let mut got = DMat::zeros(rows, cols);
            cyclops_par::with_threads(threads, || jacobian(x, rel, &mut got));
            for i in 0..rows {
                for j in 0..cols {
                    assert_eq!(
                        got[(i, j)].to_bits(),
                        want[(i, j)].to_bits(),
                        "{ctx}, threads {threads}: J[{i}][{j}] = {} vs {}",
                        got[(i, j)],
                        want[(i, j)]
                    );
                }
            }
        }
    }

    #[test]
    fn structured_jacobian_is_the_numeric_one_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(31);
        let samples: Vec<KspaceSample> = (0..40)
            .map(|k| KspaceSample {
                x: rng.gen_range(-0.3..0.3),
                y: rng.gen_range(-0.3..0.3),
                // Every tenth sample at v₁ = 0, where the grazing model
                // below degenerates.
                v1: if k % 10 == 0 {
                    0.0
                } else {
                    rng.gen_range(VOLT_MIN..VOLT_MAX)
                },
                v2: rng.gen_range(VOLT_MIN..VOLT_MAX),
            })
            .collect();
        let rig = KspaceRig::standard(
            GalvoSim::new(GalvoParams::nominal(), GalvoSimConfig::default()),
            5,
        );
        let anchor = rig.galvo.truth.transformed(&rig.rig_pose).to_vec();
        for use_prior in [true, false] {
            let phase_b = PhaseB::new(&samples, &anchor, use_prior);
            for k in 0..24 {
                let x = GalvoParams::from_vec(&anchor)
                    .perturbed(&mut rng, 3.0, 3.0, 0.05)
                    .to_vec();
                assert_jacobians_match(&phase_b, &x, &format!("vector {k}, prior {use_prior}"));
            }
            // A first mirror parallel to the input beam at v₁ = 0: those
            // samples' mid lines degenerate to the 1.0 sentinel at the base
            // point, but not once an `x0`, `n1` or `r1` column tilts them.
            let mut grazing = GalvoParams::nominal();
            grazing.n1 = v3(0.0, 1.0, 0.0);
            let x = grazing.to_vec();
            assert!(phase_b.residuals(&x).iter().filter(|&&r| r == 1.0).count() >= 8);
            assert_jacobians_match(&phase_b, &x, &format!("grazing, prior {use_prior}"));
        }
    }

    #[test]
    fn phase_a_jacobian_is_the_numeric_one_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(32);
        let samples: Vec<KspaceSample> = (0..40)
            .map(|k| KspaceSample {
                x: rng.gen_range(-0.3..0.3),
                y: rng.gen_range(-0.3..0.3),
                // Every tenth sample at v₁ = 0, where the grazing model
                // below degenerates.
                v1: if k % 10 == 0 {
                    0.0
                } else {
                    rng.gen_range(VOLT_MIN..VOLT_MAX)
                },
                v2: rng.gen_range(VOLT_MIN..VOLT_MAX),
            })
            .collect();
        let mut rig = KspaceRig::standard(
            GalvoSim::new(GalvoParams::nominal(), GalvoSimConfig::default()),
            6,
        );
        // A first mirror parallel to the input beam at v₁ = 0: those
        // samples' lines degenerate to the 1.0 sentinel in every column.
        let mut grazing = GalvoParams::nominal();
        grazing.n1 = v3(0.0, 1.0, 0.0);
        let cad = rig.cad_initial_guess();
        for (name, initial) in [
            ("CAD guess", cad),
            ("grazing", grazing.transformed(&rig.true_rig_pose())),
        ] {
            let phase_a = PhaseA {
                initial: &initial,
                samples: &samples,
                turns: mirror_turns(initial.theta1, &samples),
            };
            let sentinels = phase_a
                .residuals(&[0.0; 6])
                .iter()
                .filter(|&&r| r == 1.0)
                .count();
            assert_eq!(
                sentinels >= 8,
                name == "grazing",
                "{name}: {sentinels} sentinels"
            );
            for k in 0..12 {
                let x: Vec<f64> = (0..6)
                    .map(|i| match (k, i < 3) {
                        (0, _) => 0.0,
                        (_, true) => rng.gen_range(-0.05..0.05),
                        (_, false) => rng.gen_range(-0.02..0.02),
                    })
                    .collect();
                assert_structured_jacobian_matches(
                    2 * samples.len(),
                    |p: &[f64]| phase_a.residuals(p),
                    |x: &[f64], rel: f64, jac: &mut DMat| phase_a.jacobian_into(x, rel, jac),
                    &x,
                    &format!("{name}, vector {k}"),
                );
            }
        }
    }

    #[test]
    fn phase_b_fit_matches_the_numeric_jacobian_fit() {
        let mut rig = test_rig(9);
        let init = rig.cad_initial_guess();
        let board = BoardConfig {
            cols: 8,
            rows: 6,
            cell_m: 0.0508,
        };
        let samples = rig.collect_samples(&board);
        let x0 = init.to_vec();
        let phase_b = PhaseB::new(&samples, &x0, true);
        let opts = LmOptions {
            max_iters: 120,
            ..Default::default()
        };
        let want = levenberg_marquardt(|p: &[f64]| phase_b.residuals(p), &x0, &opts);
        let got = levenberg_marquardt_with(
            |p: &[f64]| phase_b.residuals(p),
            |x: &[f64], rel: f64, jac: &mut DMat| phase_b.jacobian_into(x, rel, jac),
            &x0,
            &opts,
        );
        let bits = |r: &LmReport| {
            let mut b: Vec<u64> = r.params.iter().map(|v| v.to_bits()).collect();
            b.push(r.cost.to_bits());
            (b, r.iterations, r.n_evals, r.status)
        };
        assert_eq!(bits(&got), bits(&want));
        assert!(want.iterations > 1, "{want:?}");
    }

    #[test]
    fn noiseless_rig_fits_nearly_exactly() {
        let mut rng = StdRng::seed_from_u64(8);
        let truth = GalvoParams::nominal().perturbed(&mut rng, 1.0, 1.0, 0.02);
        let mut rig = KspaceRig::standard(GalvoSim::new(truth, GalvoSimConfig::ideal()), 8);
        rig.board_noise_m = 0.0;
        let init = rig.cad_initial_guess();
        let samples = rig.collect_samples(&BoardConfig::default());
        let tr = fit(&samples, &init).expect("stage-1 fit");
        assert!(
            tr.train_error.mean * 1e3 < 0.35,
            "noise-free avg error {} mm",
            tr.train_error.mean * 1e3
        );
    }
}
