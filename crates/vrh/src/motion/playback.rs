//! Replaying a recorded head-motion trace as a [`Motion`].

use super::Motion;
use crate::traces::HeadTrace;
use cyclops_geom::mat3::Mat3;
use cyclops_geom::pose::Pose;
use cyclops_geom::vec3::Vec3;

/// The turn that carries a Y-up head frame onto the deployment's Z-up
/// world: +90° about X, so the trace's +Y (up) becomes the world's +Z and
/// its +Z becomes the world's −Y.
const Y_UP_TO_Z_UP: Mat3 = Mat3::from_rows(
    Vec3::new(1.0, 0.0, 0.0),
    Vec3::new(0.0, 0.0, -1.0),
    Vec3::new(0.0, 1.0, 0.0),
);

/// Plays a [`HeadTrace`] back in the deployment's world: each trace pose
/// is carried from the trace's Y-up frame into the world's Z-up one and
/// composed onto a base pose (placing the traced motion somewhere in the
/// world).
///
/// A trace pose `P` plays as `F·P·F⁻¹` for the +90° turn `F` about X, so a
/// head turn about the trace's up axis turns the headset about the
/// world's. Generated traces (and CSV traces, see [`HeadTrace::from_csv`])
/// are Y-up; the deployment is Z-up.
#[derive(Debug, Clone)]
pub struct TracePlayback {
    /// World pose of the trace's origin.
    pub base: Pose,
    /// The trace to follow.
    pub trace: HeadTrace,
    /// Playback speed factor (1.0 = real time).
    pub speed: f64,
}

impl TracePlayback {
    /// Creates a real-time playback of a Y-up trace.
    pub fn new(base: Pose, trace: HeadTrace) -> TracePlayback {
        TracePlayback {
            base,
            trace,
            speed: 1.0,
        }
    }
}

impl Motion for TracePlayback {
    fn pose_at(&mut self, t: f64) -> Pose {
        let p = self.trace.pose_at(t * self.speed);
        let in_world = Pose::new(
            Y_UP_TO_Z_UP * p.rot * Y_UP_TO_Z_UP.transpose(),
            Y_UP_TO_Z_UP * p.trans,
        );
        self.base.compose(&in_world)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traces::{TraceGenConfig, TraceSample};
    use cyclops_geom::quat::Quat;
    use cyclops_geom::vec3::v3;

    #[test]
    fn playback_matches_trace() {
        let tr = HeadTrace::generate(
            &TraceGenConfig {
                duration_s: 2.0,
                ..Default::default()
            },
            1,
        );
        let mut pb = TracePlayback::new(Pose::IDENTITY, tr.clone());
        // Carried back into the trace's own frame, the playback is the
        // trace.
        let back = Y_UP_TO_Z_UP.transpose();
        for t in [0.0, 0.5, 1.0, 1.999] {
            let (a, b) = (pb.pose_at(t), tr.pose_at(t));
            let a = Pose::new(back * a.rot * Y_UP_TO_Z_UP, back * a.trans);
            assert!((a.trans - b.trans).norm() < 1e-12);
            assert!(a.quat().angle_to(&b.quat()) < 1e-12);
        }
    }

    #[test]
    fn base_offsets_playback() {
        let tr = HeadTrace::generate(
            &TraceGenConfig {
                duration_s: 1.0,
                ..Default::default()
            },
            2,
        );
        let base = Pose::translation(v3(0.0, 1.6, 0.0)); // head height
        let mut pb = TracePlayback::new(base, tr.clone());
        let p = pb.pose_at(0.5);
        let raw = tr.pose_at(0.5);
        let want = Y_UP_TO_Z_UP * raw.trans + v3(0.0, 1.6, 0.0);
        assert!((p.trans - want).norm() < 1e-12);
    }

    #[test]
    fn double_speed_plays_twice_as_fast() {
        let tr = HeadTrace::generate(
            &TraceGenConfig {
                duration_s: 2.0,
                ..Default::default()
            },
            3,
        );
        let mut fast = TracePlayback::new(Pose::IDENTITY, tr.clone());
        fast.speed = 2.0;
        let a = fast.pose_at(0.5);
        let b = tr.pose_at(1.0);
        assert!((a.trans - Y_UP_TO_Z_UP * b.trans).norm() < 1e-12);
    }

    /// A viewer who only turns their head about the trace's up axis (Y)
    /// keeps the headset's +Z, which faces the ceiling-mounted TX, on the
    /// world's +Z, and its other axes level, at any yaw.
    #[test]
    fn pure_yaw_keeps_the_headset_level_in_the_world() {
        let samples = (0..=36)
            .map(|k| TraceSample {
                t_ms: 10.0 * k as f64,
                pos: v3(0.01 * k as f64, 0.0, 0.0),
                quat: Quat::from_axis_angle(Vec3::Y, (10.0 * k as f64).to_radians()),
            })
            .collect();
        let mut pb = TracePlayback::new(
            Pose::translation(v3(0.0, 0.0, 1.75)),
            HeadTrace::new(10.0, samples),
        );
        for t in [0.0, 0.05, 0.123, 0.2, 0.31, 0.36] {
            let pose = pb.pose_at(t);
            assert!(
                (pose.apply_dir(Vec3::Z) - Vec3::Z).norm() < 1e-12,
                "t = {t}"
            );
            for axis in [Vec3::X, Vec3::Y] {
                assert!(pose.apply_dir(axis).z.abs() < 1e-12, "t = {t}");
            }
            // The head stays at its height; the trace's motion along X
            // stays along the world's X.
            assert!((pose.trans.z - 1.75).abs() < 1e-12 && pose.trans.y.abs() < 1e-12);
        }
        // A yaw turns the headset about the world's +Z.
        let quarter = pb.pose_at(0.09).apply_dir(Vec3::X);
        assert!((quarter - v3(0.0, 1.0, 0.0)).norm() < 1e-12, "{quarter:?}");
    }
}
