//! Axis–angle rotations (Rodrigues' formula).
//!
//! The galvo-mirror model `G` of the paper (§4.1) tilts each mirror's normal
//! by `θ₁·v` about the mirror's rotation axis: `n̂' = R(r̂, θ₁·v)·n̂`. This
//! module provides that `R`.

use crate::mat3::Mat3;
use crate::vec3::{v3, Vec3};

/// Rotation matrix rotating by `angle` radians about the **unit** axis `axis`
/// (right-hand rule).
///
/// Rodrigues' rotation formula:
/// `R = I + sin(θ)·K + (1 − cos(θ))·K²` where `K` is the cross-product matrix
/// of the axis.
pub fn axis_angle(axis: Vec3, angle: f64) -> Mat3 {
    debug_assert!(axis.is_unit(1e-9), "axis must be a unit vector");
    let (s, c) = angle.sin_cos();
    let t = 1.0 - c;
    let (x, y, z) = (axis.x, axis.y, axis.z);
    Mat3::from_rows(
        v3(t * x * x + c, t * x * y - s * z, t * x * z + s * y),
        v3(t * x * y + s * z, t * y * y + c, t * y * z - s * x),
        v3(t * x * z - s * y, t * y * z + s * x, t * z * z + c),
    )
}

/// Rotates vector `v` by `angle` radians about the unit axis `axis` without
/// building the matrix (direct Rodrigues formula). Equivalent to
/// `axis_angle(axis, angle) * v` but cheaper for one-off use.
///
/// Below |angle| = 1e-3 — galvo mirror jitter is ~10 µrad — `sin` and
/// `1 − cos` come from their series instead of `sin_cos`; the truncation
/// error there is under 2e-21.
#[inline]
pub fn rotate_about(v: Vec3, axis: Vec3, angle: f64) -> Vec3 {
    debug_assert!(axis.is_unit(1e-9), "axis must be a unit vector");
    let (s, one_minus_c) = if angle.abs() < 1e-3 {
        let a2 = angle * angle;
        (
            angle * (1.0 - a2 / 6.0 * (1.0 - a2 / 20.0)),
            0.5 * a2 * (1.0 - a2 / 12.0),
        )
    } else {
        let (s, c) = angle.sin_cos();
        (s, 1.0 - c)
    };
    let k_cross_v = axis.cross(v);
    v + k_cross_v * s + axis.cross(k_cross_v) * one_minus_c
}

/// Extracts the rotation angle (radians, in `[0, π]`) of a rotation matrix.
pub fn rotation_angle(r: &Mat3) -> f64 {
    // trace = 1 + 2cos(theta); clamp for numerical safety.
    let c = ((r.trace() - 1.0) / 2.0).clamp(-1.0, 1.0);
    c.acos()
}

/// Extracts the (axis, angle) of a rotation matrix. The axis is arbitrary for
/// the identity rotation (angle 0) and for rotations by exactly π only one of
/// the two valid axes is returned.
pub fn to_axis_angle(r: &Mat3) -> (Vec3, f64) {
    let angle = rotation_angle(r);
    if angle < 1e-12 {
        return (Vec3::Z, 0.0);
    }
    if (std::f64::consts::PI - angle) < 1e-6 {
        // Near π: extract axis from the symmetric part (R + I)/2 = aaᵀ-ish.
        // Diagonal of R = 2aᵢ² − 1 at θ=π.
        let ax = ((r.at(0, 0) + 1.0) / 2.0).max(0.0).sqrt();
        let ay = ((r.at(1, 1) + 1.0) / 2.0).max(0.0).sqrt();
        let az = ((r.at(2, 2) + 1.0) / 2.0).max(0.0).sqrt();
        // Resolve signs using the largest component as reference.
        let mut a = v3(ax, ay, az);
        if ax >= ay && ax >= az {
            a.y = a.y.copysign(r.at(0, 1) + r.at(1, 0));
            a.z = a.z.copysign(r.at(0, 2) + r.at(2, 0));
        } else if ay >= az {
            a.x = a.x.copysign(r.at(0, 1) + r.at(1, 0));
            a.z = a.z.copysign(r.at(1, 2) + r.at(2, 1));
        } else {
            a.x = a.x.copysign(r.at(0, 2) + r.at(2, 0));
            a.y = a.y.copysign(r.at(1, 2) + r.at(2, 1));
        }
        return (a.normalized(), angle);
    }
    // Generic case: axis from the antisymmetric part.
    let axis = v3(
        r.at(2, 1) - r.at(1, 2),
        r.at(0, 2) - r.at(2, 0),
        r.at(1, 0) - r.at(0, 1),
    ) / (2.0 * angle.sin());
    (axis.normalized(), angle)
}

/// Rotation-vector (so(3)) encoding: `axis · angle`. The zero vector encodes
/// the identity. This is the 3-parameter rotation encoding used for the
/// "mapping parameters" of §4.2.
pub fn from_rotation_vector(rv: Vec3) -> Mat3 {
    let angle = rv.norm();
    if angle < 1e-12 {
        // Second-order small-angle expansion keeps gradients smooth near 0,
        // which matters for the Levenberg–Marquardt fits in cyclops-core.
        let k = cross_matrix(rv);
        return Mat3::IDENTITY + k + k * k * 0.5;
    }
    axis_angle(rv / angle, angle)
}

/// Inverse of [`from_rotation_vector`].
pub fn to_rotation_vector(r: &Mat3) -> Vec3 {
    let (axis, angle) = to_axis_angle(r);
    axis * angle
}

/// The skew-symmetric cross-product matrix `K` with `K·v = k × v`.
pub fn cross_matrix(k: Vec3) -> Mat3 {
    Mat3::from_rows(v3(0.0, -k.z, k.y), v3(k.z, 0.0, -k.x), v3(-k.y, k.x, 0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI};

    #[test]
    fn quarter_turn_about_z() {
        let r = axis_angle(Vec3::Z, FRAC_PI_2);
        let v = r * Vec3::X;
        assert!((v - Vec3::Y).norm() < 1e-12);
    }

    #[test]
    fn axis_is_fixed_point() {
        let axis = v3(1.0, 2.0, -0.5).normalized();
        let r = axis_angle(axis, 0.87);
        assert!((r * axis - axis).norm() < 1e-12);
    }

    #[test]
    fn rotation_matrices_are_rotations() {
        for angle in [-3.0, -0.5, 0.0, 1e-8, 0.5, 2.9] {
            let r = axis_angle(v3(0.3, -0.4, 0.86).normalized(), angle);
            assert!(r.is_rotation(1e-12), "angle {angle}");
        }
    }

    #[test]
    fn rotate_about_matches_matrix() {
        let axis = v3(-0.2, 0.5, 1.0).normalized();
        let v = v3(1.0, -2.0, 0.3);
        for angle in [0.0, 1e-5, -9.99e-4, 1e-3, 0.1, 1.5, -2.2] {
            let a = rotate_about(v, axis, angle);
            let b = axis_angle(axis, angle) * v;
            assert!((a - b).norm() < 1e-12);
        }
        assert_eq!(rotate_about(v, axis, 0.0), v);
    }

    #[test]
    fn angle_extraction() {
        for angle in [0.0, 0.3, 1.0, 2.5, PI - 1e-9] {
            let r = axis_angle(Vec3::Y, angle);
            assert!((rotation_angle(&r) - angle).abs() < 1e-6, "angle {angle}");
        }
    }

    #[test]
    fn axis_angle_roundtrip_generic() {
        let axis = v3(0.6, -0.64, 0.48).normalized();
        let angle = 1.234;
        let r = axis_angle(axis, angle);
        let (a2, th2) = to_axis_angle(&r);
        assert!((th2 - angle).abs() < 1e-10);
        assert!((a2 - axis).norm() < 1e-9);
    }

    #[test]
    fn axis_angle_roundtrip_near_pi() {
        let axis = v3(0.0, 0.8, 0.6);
        let angle = PI - 1e-8;
        let r = axis_angle(axis, angle);
        let (a2, th2) = to_axis_angle(&r);
        assert!((th2 - angle).abs() < 1e-4);
        // Axis may flip sign near π.
        assert!((a2 - axis).norm().min((a2 + axis).norm()) < 1e-3);
    }

    #[test]
    fn rotation_vector_roundtrip() {
        for rv in [
            Vec3::ZERO,
            v3(1e-13, 0.0, 0.0),
            v3(0.1, 0.0, 0.0),
            v3(0.5, -1.0, 0.25),
            v3(2.0, 2.0, -1.0),
        ] {
            let r = from_rotation_vector(rv);
            assert!(r.is_rotation(1e-9));
            let rv2 = to_rotation_vector(&r);
            assert!((rv - rv2).norm() < 1e-6, "rv {rv} vs {rv2}");
        }
    }

    #[test]
    fn cross_matrix_matches_cross_product() {
        let k = v3(0.3, -1.0, 2.0);
        let v = v3(-0.5, 0.2, 0.9);
        assert!((cross_matrix(k) * v - k.cross(v)).norm() < 1e-15);
    }

    #[test]
    fn composition_adds_angles_same_axis() {
        let axis = v3(1.0, 1.0, 1.0).normalized();
        let r = axis_angle(axis, 0.4) * axis_angle(axis, 0.35);
        assert!((rotation_angle(&r) - 0.75).abs() < 1e-12);
    }
}
