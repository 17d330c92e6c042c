//! Rotation-stage stroke protocol (§5.3, "Purely ... Angular Motions").
//!
//! The same ramping-stroke protocol as the linear rail, but sweeping an
//! angle about the stage axis (the ThorLabs PR01 in the prototype), with the
//! rail locked.

use super::Motion;
use cyclops_geom::pose::Pose;
use cyclops_geom::rotation::axis_angle;
use cyclops_geom::units::deg_to_rad;
use cyclops_geom::vec3::Vec3;

/// Back-and-forth angular sweeps about a fixed axis with per-stroke
/// angular-speed ramp.
#[derive(Debug, Clone)]
pub struct RotationStage {
    /// Pose of the assembly at the stage's zero position.
    pub base: Pose,
    /// Unit rotation axis in world coordinates (vertical for yaw sweeps).
    pub axis: Vec3,
    /// Total sweep range (radians); travel is ±range/2.
    pub range: f64,
    /// Angular speed of the first stroke (rad/s).
    pub w0: f64,
    /// Angular-speed increment per stroke (rad/s).
    pub dw: f64,
    /// Pause at each end of the sweep (seconds).
    pub turn_pause: f64,
}

impl RotationStage {
    /// §5.3-style protocol: ±9° sweeps starting at 4 deg/s, stepping up
    /// 2 deg/s per stroke. (±9° keeps the assembly inside the envelope the
    /// grid-board calibration covers; see `cyclops-core::mapping`.)
    pub fn paper_protocol(base: Pose, axis: Vec3) -> RotationStage {
        RotationStage {
            base,
            axis: axis.normalized(),
            range: deg_to_rad(18.0),
            w0: deg_to_rad(4.0),
            dw: deg_to_rad(2.0),
            turn_pause: 0.2,
        }
    }

    /// Stage angle from the zero position at time `t`, plus the current
    /// angular speed.
    pub fn angle_and_speed(&self, t: f64) -> (f64, f64) {
        let mut t_rem = t;
        let mut k = 0usize;
        loop {
            let w = self.w0 + k as f64 * self.dw;
            let stroke_t = self.range / w;
            if t_rem < stroke_t {
                let a = t_rem * w;
                let signed = if k % 2 == 0 {
                    a - self.range / 2.0
                } else {
                    self.range / 2.0 - a
                };
                return (signed, w);
            }
            t_rem -= stroke_t;
            if t_rem < self.turn_pause {
                let end = if k % 2 == 0 { 0.5 } else { -0.5 } * self.range;
                return (end, 0.0);
            }
            t_rem -= self.turn_pause;
            k += 1;
        }
    }
}

impl Motion for RotationStage {
    fn pose_at(&mut self, t: f64) -> Pose {
        let (angle, _) = self.angle_and_speed(t);
        // The stage rotates the assembly about the axis through its own
        // position: world rotation applied on top of the base pose.
        let rot = axis_angle(self.axis, angle);
        Pose::new(rot * self.base.rot, self.base.trans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclops_geom::vec3::v3;

    fn stage() -> RotationStage {
        RotationStage::paper_protocol(Pose::translation(v3(0.0, 0.0, 1.0)), Vec3::Y)
    }

    #[test]
    fn sweeps_within_range() {
        let s = stage();
        for i in 0..20000 {
            let (a, _) = s.angle_and_speed(i as f64 * 0.01);
            assert!(a.to_degrees().abs() <= 9.0 + 1e-9);
        }
    }

    #[test]
    fn first_stroke_speed() {
        let s = stage();
        let (_, w) = s.angle_and_speed(1.0);
        assert!((w.to_degrees() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn speed_ramps() {
        let s = stage();
        // First stroke: 18°/4°s⁻¹ = 4.5 s; second stroke at 6 deg/s.
        let (_, w) = s.angle_and_speed(4.5 + 0.2 + 1.0);
        assert!((w.to_degrees() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn rotation_preserves_position() {
        let mut s = stage();
        for t in [0.0, 3.0, 11.0, 30.0] {
            let p = s.pose_at(t);
            assert!((p.trans - v3(0.0, 0.0, 1.0)).norm() < 1e-12);
            assert!(p.is_rigid(1e-9));
        }
    }

    #[test]
    fn angular_velocity_matches_numerically() {
        let mut s = stage();
        let q1 = s.pose_at(2.000).quat();
        let q2 = s.pose_at(2.010).quat();
        let w = q1.angle_to(&q2) / 0.01;
        assert!(
            (w.to_degrees() - 4.0).abs() < 0.05,
            "got {} deg/s",
            w.to_degrees()
        );
    }
}
