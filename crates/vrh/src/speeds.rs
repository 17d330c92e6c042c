//! Linear/angular speed extraction from traces and pose sequences.
//!
//! Fig 3 of the paper (from the authors' earlier study \[55\]) characterizes
//! VRH movement as CDFs of linear and angular speed; these helpers compute
//! the per-sample speeds that feed those CDFs and the throughput figures'
//! x-axes (which the paper measures "using VRH-T reports" over 50 ms
//! windows).

use crate::traces::HeadTrace;
use cyclops_geom::pose::Pose;

/// Per-interval linear speeds (m/s) between consecutive trace samples.
pub fn linear_speeds(trace: &HeadTrace) -> Vec<f64> {
    let dt = trace.period_ms * 1e-3;
    trace
        .samples
        .windows(2)
        .map(|w| (w[1].pos - w[0].pos).norm() / dt)
        .collect()
}

/// Per-interval angular speeds (rad/s) between consecutive trace samples.
pub fn angular_speeds(trace: &HeadTrace) -> Vec<f64> {
    let dt = trace.period_ms * 1e-3;
    trace
        .samples
        .windows(2)
        .map(|w| w[0].quat.angle_to(&w[1].quat) / dt)
        .collect()
}

/// Linear and angular speed between two timed poses: `(m/s, rad/s)`.
pub fn pose_speeds(a: &Pose, b: &Pose, dt: f64) -> (f64, f64) {
    assert!(dt > 0.0);
    (
        (b.trans - a.trans).norm() / dt,
        a.quat().angle_to(&b.quat()) / dt,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traces::{HeadTrace, TraceSample};
    use cyclops_geom::quat::Quat;
    use cyclops_geom::vec3::{v3, Vec3};

    fn uniform_motion_trace() -> HeadTrace {
        // 10 cm/s along X, 0.5 rad/s about Y, 10 ms sampling.
        let samples = (0..101)
            .map(|i| {
                let t = i as f64 * 0.01;
                TraceSample {
                    t_ms: t * 1e3,
                    pos: v3(0.1 * t, 0.0, 0.0),
                    quat: Quat::from_axis_angle(Vec3::Y, 0.5 * t),
                }
            })
            .collect();
        HeadTrace::new(10.0, samples)
    }

    #[test]
    fn constant_speeds_recovered() {
        let tr = uniform_motion_trace();
        for v in linear_speeds(&tr) {
            assert!((v - 0.1).abs() < 1e-9);
        }
        for w in angular_speeds(&tr) {
            assert!((w - 0.5).abs() < 1e-9);
        }
    }

    #[test]
    fn pose_speeds_basic() {
        let a = Pose::translation(v3(0.0, 0.0, 0.0));
        let b = Pose::translation(v3(0.0, 0.03, 0.0));
        let (lin, ang) = pose_speeds(&a, &b, 0.1);
        assert!((lin - 0.3).abs() < 1e-12);
        assert!(ang < 1e-9);
    }

    #[test]
    fn speeds_length_matches() {
        let tr = uniform_motion_trace();
        assert_eq!(linear_speeds(&tr).len(), tr.len() - 1);
        assert_eq!(angular_speeds(&tr).len(), tr.len() - 1);
    }
}
