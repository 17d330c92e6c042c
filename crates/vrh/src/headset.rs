//! The headset as a rigid body, with the two hidden unknowns of §3.
//!
//! The RX assembly (collimator + galvo + VRH) is rigid; its world pose is the
//! simulation's ground truth. What the tracking system *reports*, however, is
//! the pose of an unknown internal point `X`, expressed in an unknown
//! coordinate frame (VR-space). Formally, with `W` the world pose of the
//! headset body:
//!
//! ```text
//! reported pose = T_vr ∘ W ∘ X_off
//! ```
//!
//! where `T_vr` (world → VR-space) and `X_off` (body → tracked-point frame)
//! are both hidden from the learner. The §4.2 mapping stage implicitly
//! absorbs both into its 12 learned parameters.

use cyclops_geom::pose::Pose;
use cyclops_geom::rotation::from_rotation_vector;
use cyclops_geom::vec3::{v3, Vec3};
use rand::Rng;

/// A smooth spatial warp of the tracker's reported positions.
///
/// Inside-out trackers (the Rift S's camera SLAM) are locally precise but
/// have millimetre-to-centimetre *absolute* distortion across a room: the
/// reported coordinate field is a smooth warp of reality. A rigid §4.2
/// mapping cannot absorb a warp, so this is the error floor behind the
/// paper's combined-stage numbers (Table 2's 4.54 mm RX average) and its
/// residual-error constants in the §5.4 simulation.
#[derive(Debug, Clone, Copy)]
pub struct SpatialDistortion {
    /// Centre of the tracked volume (metres, world frame).
    pub center: Vec3,
    /// Length scale of the warp (metres).
    pub scale: f64,
    /// Linear warp coefficients (3×3, row-major, dimensionless).
    pub linear: [f64; 9],
    /// Quadratic warp coefficients: for each output axis, coefficients of
    /// `x², y², z²` (dimensionless).
    pub quad: [f64; 9],
    /// Peak amplitude scaling (metres).
    pub amplitude: f64,
}

impl SpatialDistortion {
    /// No distortion.
    pub fn none() -> SpatialDistortion {
        SpatialDistortion {
            center: Vec3::ZERO,
            scale: 1.0,
            linear: [0.0; 9],
            quad: [0.0; 9],
            amplitude: 0.0,
        }
    }

    /// A random warp with the given peak amplitude over the tracked volume.
    pub fn random<R: Rng>(rng: &mut R, center: Vec3, amplitude: f64) -> SpatialDistortion {
        let mut linear = [0.0; 9];
        let mut quad = [0.0; 9];
        for v in linear.iter_mut().chain(quad.iter_mut()) {
            *v = rng.gen_range(-1.0..1.0);
        }
        SpatialDistortion {
            center,
            scale: 0.3,
            linear,
            quad,
            amplitude,
        }
    }

    /// The warp displacement at a world position.
    pub fn displacement(&self, p: Vec3) -> Vec3 {
        if self.amplitude == 0.0 {
            return Vec3::ZERO;
        }
        let u = (p - self.center) / self.scale;
        let mut out = [0.0f64; 3];
        for (k, o) in out.iter_mut().enumerate() {
            let l = &self.linear[3 * k..3 * k + 3];
            let q = &self.quad[3 * k..3 * k + 3];
            *o = l[0] * u.x
                + l[1] * u.y
                + l[2] * u.z
                + q[0] * u.x * u.x
                + q[1] * u.y * u.y
                + q[2] * u.z * u.z;
        }
        // The random coefficients give |D| of order 1–2 at |u| ≈ 1; the 0.4
        // factor normalizes so `amplitude` is a typical in-volume peak.
        v3(out[0], out[1], out[2]) * (0.4 * self.amplitude)
    }
}

/// Hidden configuration of the headset's tracking frames.
#[derive(Debug, Clone, Copy)]
pub struct HeadsetConfig {
    /// World → VR-space transform (hidden).
    pub vr_from_world: Pose,
    /// Body frame → tracked-point frame (hidden): where inside the headset
    /// the reported point `X` actually sits.
    pub x_offset: Pose,
    /// Room-scale tracking distortion (hidden).
    pub distortion: SpatialDistortion,
}

impl HeadsetConfig {
    /// An identity configuration (useful for white-box unit tests only; real
    /// experiments should use [`HeadsetConfig::random`]).
    pub fn identity() -> HeadsetConfig {
        HeadsetConfig {
            vr_from_world: Pose::IDENTITY,
            x_offset: Pose::IDENTITY,
            distortion: SpatialDistortion::none(),
        }
    }

    /// Draws a random hidden configuration: VR-space origin anywhere within
    /// a couple of metres with arbitrary yaw/pitch/roll, and a tracked point
    /// up to ~8 cm from the body origin (the Rift S reports a point near the
    /// IMU, not the geometric centre).
    pub fn random<R: Rng>(rng: &mut R) -> HeadsetConfig {
        let rv = v3(
            rng.gen_range(-0.5..0.5),
            rng.gen_range(-3.0..3.0),
            rng.gen_range(-0.5..0.5),
        );
        let t = v3(
            rng.gen_range(-2.0..2.0),
            rng.gen_range(-2.0..2.0),
            rng.gen_range(-1.0..1.0),
        );
        let x_rv = v3(
            rng.gen_range(-0.2..0.2),
            rng.gen_range(-0.2..0.2),
            rng.gen_range(-0.2..0.2),
        );
        let x_t = v3(
            rng.gen_range(-0.08..0.08),
            rng.gen_range(-0.08..0.08),
            rng.gen_range(-0.08..0.08),
        );
        // ~10 mm of room-scale warp, centred on the user zone — the Rift-S
        // class absolute accuracy the paper's combined errors reflect
        // (inside-out SLAM absolute error across a room is mm-to-cm).
        let distortion = SpatialDistortion::random(rng, v3(0.0, 0.0, 1.75), 10.0e-3);
        HeadsetConfig {
            vr_from_world: Pose::new(from_rotation_vector(rv), t),
            x_offset: Pose::new(from_rotation_vector(x_rv), x_t),
            distortion,
        }
    }
}

/// The headset rigid body.
#[derive(Debug, Clone)]
pub struct Headset {
    cfg: HeadsetConfig,
    /// Current true world pose of the headset body frame.
    pub world_pose: Pose,
}

impl Headset {
    /// Creates a headset with the given hidden configuration, at the world
    /// origin.
    pub fn new(cfg: HeadsetConfig) -> Headset {
        Headset {
            cfg,
            world_pose: Pose::IDENTITY,
        }
    }

    /// The hidden configuration — accessible to *experiment setup* code (to
    /// build the world) and to white-box tests, never to the learner.
    pub fn hidden_config(&self) -> &HeadsetConfig {
        &self.cfg
    }

    /// The noiseless VR-space pose the tracking system is trying to report:
    /// `T_vr ∘ warp(world_pose) ∘ X_off`, where `warp` is the hidden
    /// room-scale tracking distortion (positions only).
    pub fn true_reported_pose(&self) -> Pose {
        let warp = self.cfg.distortion.displacement(self.world_pose.trans);
        let warped = Pose::new(self.world_pose.rot, self.world_pose.trans + warp);
        self.cfg
            .vr_from_world
            .compose(&warped)
            .compose(&self.cfg.x_offset)
    }

    /// Shifts the hidden VR-space by `delta` (applied on the VR side):
    /// simulates a SLAM re-anchoring / re-localization event, after which
    /// every report is expressed in a slightly different frame. Experiment
    /// world-manipulation API (the learner never calls this); the §4
    /// mapping-only re-calibration (`cyclops-core::recalib`) is the designed
    /// response.
    pub fn apply_vr_drift(&mut self, delta: &Pose) {
        self.cfg.vr_from_world = delta.compose(&self.cfg.vr_from_world);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclops_geom::rotation::axis_angle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_config_reports_world_pose() {
        let mut h = Headset::new(HeadsetConfig::identity());
        let pose = Pose::new(axis_angle(Vec3::Y, 0.3), v3(1.0, 2.0, 3.0));
        h.world_pose = pose;
        let rep = h.true_reported_pose();
        assert!(rep.rot.max_abs_diff(&pose.rot) < 1e-12);
        assert!((rep.trans - pose.trans).norm() < 1e-12);
    }

    #[test]
    fn hidden_frames_change_report_but_not_rigidity() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut h = Headset::new(HeadsetConfig::random(&mut rng));
        h.world_pose = Pose::new(axis_angle(Vec3::X, -0.2), v3(0.5, 1.5, 0.1));
        let rep = h.true_reported_pose();
        assert!(rep.is_rigid(1e-9));
        // With random hidden frames the report differs from the world pose.
        assert!((rep.trans - h.world_pose.trans).norm() > 1e-3);
    }

    #[test]
    fn report_moves_rigidly_with_the_body() {
        // Moving the body by a world-frame motion M changes the report by
        // the conjugated motion — and in particular preserves *relative*
        // distances up to the room-scale tracking distortion, which is what
        // the mapping stage relies on (and what bounds its accuracy).
        let mut rng = StdRng::seed_from_u64(5);
        let mut cfg = HeadsetConfig::random(&mut rng);
        cfg.distortion = SpatialDistortion::none();
        let mut h = Headset::new(cfg);
        let p1 = Pose::new(axis_angle(Vec3::Z, 0.1), v3(0.0, 0.0, 0.0));
        let p2 = Pose::new(axis_angle(Vec3::Z, 0.1), v3(0.3, 0.0, 0.0));
        h.world_pose = p1;
        let r1 = h.true_reported_pose();
        h.world_pose = p2;
        let r2 = h.true_reported_pose();
        // Pure translation of the body translates the reported point by the
        // same distance (rigid maps are isometries).
        assert!(((r2.trans - r1.trans).norm() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn distortion_bends_reported_distances() {
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = HeadsetConfig::random(&mut rng);
        assert!(cfg.distortion.amplitude > 0.0);
        let mut h = Headset::new(cfg);
        h.world_pose = Pose::translation(v3(0.0, 0.0, 1.75));
        let r1 = h.true_reported_pose();
        h.world_pose = Pose::translation(v3(0.3, 0.0, 1.75));
        let r2 = h.true_reported_pose();
        let err = ((r2.trans - r1.trans).norm() - 0.3).abs();
        // Millimetre-scale non-rigidity across 30 cm — the tracker's
        // room-scale absolute error.
        assert!(err > 1e-5, "distortion should bend distances: {err}");
        assert!(err < 8e-3, "but only at the mm scale: {err}");
    }

    #[test]
    fn distortion_field_is_smooth_and_bounded() {
        let mut rng = StdRng::seed_from_u64(9);
        let d = SpatialDistortion::random(&mut rng, v3(0.0, 0.0, 1.75), 3e-3);
        let mut max_disp: f64 = 0.0;
        for k in 0..200 {
            let p = v3(
                -0.25 + 0.0025 * k as f64,
                0.1 - 0.001 * k as f64,
                1.5 + 0.0025 * k as f64,
            );
            let disp = d.displacement(p).norm();
            max_disp = max_disp.max(disp);
            // Smooth: neighbouring points displace nearly identically.
            let disp2 = d.displacement(p + v3(1e-4, 0.0, 0.0));
            assert!((d.displacement(p) - disp2).norm() < 1e-5);
        }
        assert!(max_disp > 0.5e-3, "field should reach mm scale: {max_disp}");
        assert!(max_disp < 12e-3, "field stays cm-bounded: {max_disp}");
    }

    #[test]
    fn body_to_world_follows_pose() {
        let mut h = Headset::new(HeadsetConfig::identity());
        h.world_pose = Pose::new(
            axis_angle(Vec3::Z, std::f64::consts::FRAC_PI_2),
            v3(1.0, 0.0, 0.0),
        );
        let p = h.world_pose.apply_point(v3(1.0, 0.0, 0.0));
        assert!((p - v3(1.0, 1.0, 0.0)).norm() < 1e-12);
    }

    #[test]
    fn random_configs_differ_across_seeds() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let ca = HeadsetConfig::random(&mut a);
        let cb = HeadsetConfig::random(&mut b);
        assert!((ca.vr_from_world.trans - cb.vr_from_world.trans).norm() > 1e-6);
    }
}
