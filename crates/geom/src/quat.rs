//! Unit quaternions for orientation.
//!
//! VR headsets report orientation as quaternions; the headset tracking
//! simulator (`cyclops-vrh`) stores poses this way, and motion trajectories
//! interpolate orientations with [`Quat::slerp`].

use crate::mat3::Mat3;
use crate::vec3::{v3, Vec3};
use std::ops::Mul;

/// A quaternion `w + xi + yj + zk`. All public constructors produce unit
/// quaternions representing rotations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quat {
    /// Scalar part.
    pub w: f64,
    /// Vector part, x.
    pub x: f64,
    /// Vector part, y.
    pub y: f64,
    /// Vector part, z.
    pub z: f64,
}

impl Quat {
    /// The identity rotation.
    pub const IDENTITY: Quat = Quat {
        w: 1.0,
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Rotation by `angle` radians about the unit `axis`.
    #[inline]
    pub fn from_axis_angle(axis: Vec3, angle: f64) -> Quat {
        debug_assert!(axis.is_unit(1e-9));
        let (s, c) = (angle / 2.0).sin_cos();
        Quat {
            w: c,
            x: axis.x * s,
            y: axis.y * s,
            z: axis.z * s,
        }
    }

    /// Rotation encoded as a rotation vector (axis × angle); zero is identity.
    pub fn from_rotation_vector(rv: Vec3) -> Quat {
        let angle = rv.norm();
        if angle < 1e-12 {
            return Quat {
                w: 1.0,
                x: rv.x / 2.0,
                y: rv.y / 2.0,
                z: rv.z / 2.0,
            }
            .normalized();
        }
        Quat::from_axis_angle(rv / angle, angle)
    }

    /// Inverse of [`Quat::from_rotation_vector`]: `2·atan2(|v|, w)·v/|v|`
    /// for the vector part `v`, with the sign of `q` chosen so that `w ≥ 0`
    /// (angle in `[0, π]`). Reads the rotation straight off the quaternion,
    /// where going through [`Quat::to_matrix`] would cost a matrix build
    /// and an `acos`.
    pub fn to_rotation_vector(&self) -> Vec3 {
        let sign = if self.w < 0.0 { -1.0 } else { 1.0 };
        let v = v3(self.x, self.y, self.z) * sign;
        let s = v.norm();
        if s == 0.0 {
            return Vec3::ZERO;
        }
        v * (2.0 * s.atan2(self.w * sign) / s)
    }

    /// Converts a rotation matrix to a quaternion.
    pub fn from_matrix(m: &Mat3) -> Quat {
        // Shepperd's method: pick the largest of w,x,y,z to avoid cancellation.
        let t = m.trace();
        let q = if t > 0.0 {
            let s = (t + 1.0).sqrt() * 2.0;
            Quat {
                w: 0.25 * s,
                x: (m.at(2, 1) - m.at(1, 2)) / s,
                y: (m.at(0, 2) - m.at(2, 0)) / s,
                z: (m.at(1, 0) - m.at(0, 1)) / s,
            }
        } else if m.at(0, 0) > m.at(1, 1) && m.at(0, 0) > m.at(2, 2) {
            let s = (1.0 + m.at(0, 0) - m.at(1, 1) - m.at(2, 2)).sqrt() * 2.0;
            Quat {
                w: (m.at(2, 1) - m.at(1, 2)) / s,
                x: 0.25 * s,
                y: (m.at(0, 1) + m.at(1, 0)) / s,
                z: (m.at(0, 2) + m.at(2, 0)) / s,
            }
        } else if m.at(1, 1) > m.at(2, 2) {
            let s = (1.0 + m.at(1, 1) - m.at(0, 0) - m.at(2, 2)).sqrt() * 2.0;
            Quat {
                w: (m.at(0, 2) - m.at(2, 0)) / s,
                x: (m.at(0, 1) + m.at(1, 0)) / s,
                y: 0.25 * s,
                z: (m.at(1, 2) + m.at(2, 1)) / s,
            }
        } else {
            let s = (1.0 + m.at(2, 2) - m.at(0, 0) - m.at(1, 1)).sqrt() * 2.0;
            Quat {
                w: (m.at(1, 0) - m.at(0, 1)) / s,
                x: (m.at(0, 2) + m.at(2, 0)) / s,
                y: (m.at(1, 2) + m.at(2, 1)) / s,
                z: 0.25 * s,
            }
        };
        q.normalized()
    }

    /// Converts to a rotation matrix.
    pub fn to_matrix(&self) -> Mat3 {
        let Quat { w, x, y, z } = *self;
        Mat3::from_rows(
            v3(
                1.0 - 2.0 * (y * y + z * z),
                2.0 * (x * y - w * z),
                2.0 * (x * z + w * y),
            ),
            v3(
                2.0 * (x * y + w * z),
                1.0 - 2.0 * (x * x + z * z),
                2.0 * (y * z - w * x),
            ),
            v3(
                2.0 * (x * z - w * y),
                2.0 * (y * z + w * x),
                1.0 - 2.0 * (x * x + y * y),
            ),
        )
    }

    /// Quaternion norm.
    #[inline]
    pub fn norm(&self) -> f64 {
        (self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Renormalizes to unit length.
    #[inline]
    pub fn normalized(&self) -> Quat {
        let n = self.norm();
        debug_assert!(n > 1e-300);
        Quat {
            w: self.w / n,
            x: self.x / n,
            y: self.y / n,
            z: self.z / n,
        }
    }

    /// Conjugate (inverse rotation for unit quaternions).
    #[inline]
    pub fn conjugate(&self) -> Quat {
        Quat {
            w: self.w,
            x: -self.x,
            y: -self.y,
            z: -self.z,
        }
    }

    /// Rotates a vector.
    #[inline]
    pub fn rotate(&self, v: Vec3) -> Vec3 {
        // v' = v + 2w(q×v) + 2 q×(q×v)
        let qv = v3(self.x, self.y, self.z);
        let t = qv.cross(v) * 2.0;
        v + t * self.w + qv.cross(t)
    }

    /// Rotation angle of this quaternion in `[0, π]` radians.
    #[inline]
    pub fn angle(&self) -> f64 {
        2.0 * self.w.abs().clamp(0.0, 1.0).acos()
    }

    /// Angular distance to another rotation in `[0, π]` radians — the angle of
    /// the relative rotation. This is the metric used for "angular drift" in
    /// the §5.4 trace simulation.
    #[inline]
    pub fn angle_to(&self, other: &Quat) -> f64 {
        (self.conjugate() * *other).angle()
    }

    /// Spherical linear interpolation from `self` (t = 0) to `other` (t = 1).
    /// Always takes the short arc.
    pub fn slerp(&self, other: &Quat, t: f64) -> Quat {
        let mut b = *other;
        let mut cos_half = self.w * b.w + self.x * b.x + self.y * b.y + self.z * b.z;
        if cos_half < 0.0 {
            // Take the short way around.
            b = Quat {
                w: -b.w,
                x: -b.x,
                y: -b.y,
                z: -b.z,
            };
            cos_half = -cos_half;
        }
        if cos_half > 1.0 - 1e-10 {
            // Nearly identical: nlerp.
            return Quat {
                w: self.w + (b.w - self.w) * t,
                x: self.x + (b.x - self.x) * t,
                y: self.y + (b.y - self.y) * t,
                z: self.z + (b.z - self.z) * t,
            }
            .normalized();
        }
        let half = cos_half.clamp(-1.0, 1.0).acos();
        let s = half.sin();
        let wa = ((1.0 - t) * half).sin() / s;
        let wb = (t * half).sin() / s;
        Quat {
            w: self.w * wa + b.w * wb,
            x: self.x * wa + b.x * wb,
            y: self.y * wa + b.y * wb,
            z: self.z * wa + b.z * wb,
        }
        .normalized()
    }
}

impl Mul for Quat {
    type Output = Quat;
    /// Hamilton product: `(a * b).rotate(v) == a.rotate(b.rotate(v))`.
    #[inline]
    fn mul(self, b: Quat) -> Quat {
        let a = self;
        Quat {
            w: a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
            x: a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
            y: a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
            z: a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
        }
    }
}

impl Default for Quat {
    fn default() -> Self {
        Quat::IDENTITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rotation::axis_angle;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn rotate_matches_matrix() {
        let axis = v3(0.1, 0.9, -0.3).normalized();
        for angle in [0.0, 0.5, 1.7, -2.0, PI] {
            let q = Quat::from_axis_angle(axis, angle);
            let m = axis_angle(axis, angle);
            let v = v3(1.0, 2.0, -0.4);
            assert!((q.rotate(v) - m * v).norm() < 1e-12, "angle {angle}");
        }
    }

    #[test]
    fn matrix_roundtrip_all_branches() {
        // Exercise all four branches of Shepperd's method.
        let cases = [
            (Vec3::Z, 0.1),                          // trace-dominant
            (Vec3::X, PI - 0.01),                    // x-dominant
            (Vec3::Y, PI - 0.01),                    // y-dominant
            (Vec3::Z, PI - 0.01),                    // z-dominant
            (v3(0.6, 0.48, 0.64).normalized(), 2.9), // generic large angle
        ];
        for (axis, angle) in cases {
            let m = axis_angle(axis, angle);
            let q = Quat::from_matrix(&m);
            assert!(
                m.max_abs_diff(&q.to_matrix()) < 1e-10,
                "axis {axis} angle {angle}"
            );
        }
    }

    #[test]
    fn hamilton_product_composes() {
        let qa = Quat::from_axis_angle(Vec3::X, 0.7);
        let qb = Quat::from_axis_angle(Vec3::Z, -1.1);
        let v = v3(0.2, -0.8, 1.5);
        let composed = (qa * qb).rotate(v);
        let sequential = qa.rotate(qb.rotate(v));
        assert!((composed - sequential).norm() < 1e-12);
    }

    #[test]
    fn conjugate_inverts() {
        let q = Quat::from_axis_angle(v3(1.0, 2.0, 2.0).normalized(), 1.3);
        let v = v3(0.5, -0.6, 0.7);
        assert!((q.conjugate().rotate(q.rotate(v)) - v).norm() < 1e-12);
    }

    #[test]
    fn angle_metric() {
        let qa = Quat::from_axis_angle(Vec3::Y, 0.2);
        let qb = Quat::from_axis_angle(Vec3::Y, 0.5);
        assert!((qa.angle_to(&qb) - 0.3).abs() < 1e-12);
        assert!(qa.angle_to(&qa) < 1e-9);
    }

    #[test]
    fn angle_handles_double_cover() {
        let q = Quat::from_axis_angle(Vec3::Z, 0.4);
        let neg = Quat {
            w: -q.w,
            x: -q.x,
            y: -q.y,
            z: -q.z,
        };
        // q and -q are the same rotation.
        assert!(q.angle_to(&neg) < 1e-9);
    }

    #[test]
    fn slerp_endpoints_and_halfway() {
        let qa = Quat::from_axis_angle(Vec3::Z, 0.0);
        let qb = Quat::from_axis_angle(Vec3::Z, FRAC_PI_2);
        assert!(qa.slerp(&qb, 0.0).angle_to(&qa) < 1e-9);
        assert!(qa.slerp(&qb, 1.0).angle_to(&qb) < 1e-9);
        let mid = qa.slerp(&qb, 0.5);
        let expect = Quat::from_axis_angle(Vec3::Z, FRAC_PI_2 / 2.0);
        assert!(mid.angle_to(&expect) < 1e-9);
    }

    #[test]
    fn slerp_takes_short_arc() {
        let qa = Quat::from_axis_angle(Vec3::Z, 0.1);
        let qb = Quat::from_axis_angle(Vec3::Z, 0.3);
        let qb_neg = Quat {
            w: -qb.w,
            x: -qb.x,
            y: -qb.y,
            z: -qb.z,
        };
        let m = qa.slerp(&qb_neg, 0.5);
        assert!(m.angle_to(&Quat::from_axis_angle(Vec3::Z, 0.2)) < 1e-9);
    }

    #[test]
    fn rotation_vector_roundtrip_and_matrix_agreement() {
        let axis = v3(0.3, -0.5, 0.81).normalized();
        for angle in [0.0, 1e-13, 1e-7, 0.05, 0.35, 1.2, 2.5, PI - 1e-4] {
            let rv = axis * angle;
            let q = Quat::from_rotation_vector(rv);
            // Both signs of the double cover decode to the short rotation.
            let neg = Quat {
                w: -q.w,
                x: -q.x,
                y: -q.y,
                z: -q.z,
            };
            for qq in [q, neg] {
                assert!(
                    (qq.to_rotation_vector() - rv).norm() < 1e-12,
                    "angle {angle}"
                );
            }
            if angle > 1e-12 {
                let via_matrix = crate::rotation::to_rotation_vector(&q.to_matrix());
                assert!(
                    (q.to_rotation_vector() - via_matrix).norm() < 1e-7,
                    "angle {angle}"
                );
            }
        }
        assert_eq!(Quat::IDENTITY.to_rotation_vector(), Vec3::ZERO);
    }

    #[test]
    fn rotation_vector_constructor() {
        let rv = v3(0.0, 0.0, FRAC_PI_2);
        let q = Quat::from_rotation_vector(rv);
        assert!((q.rotate(Vec3::X) - Vec3::Y).norm() < 1e-12);
        let tiny = Quat::from_rotation_vector(v3(1e-14, 0.0, 0.0));
        assert!(tiny.angle() < 1e-10);
    }
}
