//! Property-based tests for the geometry kernel.

use cyclops_geom::quat::Quat;
use cyclops_geom::rotation::{axis_angle, from_rotation_vector, to_rotation_vector};
use cyclops_geom::{reflect_ray, Plane, Pose, Pose6, Ray, Vec3};
use proptest::prelude::*;

fn finite_vec3() -> impl Strategy<Value = Vec3> {
    (-10.0..10.0f64, -10.0..10.0f64, -10.0..10.0f64).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn unit_vec3() -> impl Strategy<Value = Vec3> {
    finite_vec3()
        .prop_filter("non-degenerate", |v| v.norm() > 1e-3)
        .prop_map(|v| v.normalized())
}

fn rotation_vec() -> impl Strategy<Value = Vec3> {
    // Angles up to ~3 rad; avoids the π ambiguity region for round-trips.
    finite_vec3().prop_map(|v| {
        let n = v.norm();
        if n > 3.0 {
            v * (3.0 / n)
        } else {
            v
        }
    })
}

fn pose6() -> impl Strategy<Value = Pose6> {
    (rotation_vec(), finite_vec3()).prop_map(|(rv, t)| Pose6::new(rv, t))
}

proptest! {
    #[test]
    fn rotation_preserves_norm(axis in unit_vec3(), angle in -6.0..6.0f64, v in finite_vec3()) {
        let r = axis_angle(axis, angle);
        prop_assert!((r * v).norm() - v.norm() < 1e-9);
        prop_assert!(r.is_rotation(1e-9));
    }

    #[test]
    fn rotation_preserves_dot(axis in unit_vec3(), angle in -6.0..6.0f64,
                              a in finite_vec3(), b in finite_vec3()) {
        let r = axis_angle(axis, angle);
        prop_assert!(((r * a).dot(r * b) - a.dot(b)).abs() < 1e-7);
    }

    #[test]
    fn rotation_vector_roundtrip(rv in rotation_vec()) {
        let r = from_rotation_vector(rv);
        let rv2 = to_rotation_vector(&r);
        prop_assert!((rv - rv2).norm() < 1e-6, "rv {} vs {}", rv, rv2);
    }

    #[test]
    fn quat_matrix_agree(axis in unit_vec3(), angle in -3.0..3.0f64, v in finite_vec3()) {
        let q = Quat::from_axis_angle(axis, angle);
        let m = axis_angle(axis, angle);
        prop_assert!((q.rotate(v) - m * v).norm() < 1e-9);
        prop_assert!(m.max_abs_diff(&q.to_matrix()) < 1e-9);
    }

    #[test]
    fn quat_matrix_roundtrip(axis in unit_vec3(), angle in -3.0..3.0f64) {
        let m = axis_angle(axis, angle);
        let q = Quat::from_matrix(&m);
        prop_assert!(m.max_abs_diff(&q.to_matrix()) < 1e-9);
    }

    #[test]
    fn pose_inverse_roundtrip(p6 in pose6(), v in finite_vec3()) {
        let pose = p6.to_pose();
        let back = pose.inverse().apply_point(pose.apply_point(v));
        prop_assert!((back - v).norm() < 1e-8);
    }

    #[test]
    fn pose_composition_associative(a in pose6(), b in pose6(), c in pose6(), v in finite_vec3()) {
        let (a, b, c) = (a.to_pose(), b.to_pose(), c.to_pose());
        let lhs = a.compose(&b).compose(&c).apply_point(v);
        let rhs = a.compose(&b.compose(&c)).apply_point(v);
        prop_assert!((lhs - rhs).norm() < 1e-7);
    }

    #[test]
    fn pose_params_roundtrip(p6 in pose6()) {
        let pose = p6.to_pose();
        let p6b = pose.to_params();
        let pose2 = p6b.to_pose();
        prop_assert!(pose.rot.max_abs_diff(&pose2.rot) < 1e-6);
        prop_assert!((pose.trans - pose2.trans).norm() < 1e-9);
    }

    #[test]
    fn reflection_is_involutive(origin in finite_vec3(), dir in unit_vec3(),
                                q in finite_vec3(), n in unit_vec3()) {
        let ray = Ray::new(origin, dir);
        if let Some(out) = reflect_ray(&ray, q, n) {
            prop_assert!(out.dir.is_unit(1e-9));
            // Reflecting the reversed output off the same mirror recovers the
            // reversed input direction (time-reversal symmetry of optics).
            let back = cyclops_geom::reflect::reflect_dir(-out.dir, n);
            prop_assert!((back + ray.dir).norm() < 1e-9);
            // Angle of incidence == angle of reflection.
            let ai = ray.dir.angle_to(n).min(ray.dir.angle_to(-n));
            let ar = out.dir.angle_to(n).min(out.dir.angle_to(-n));
            prop_assert!((ai - ar).abs() < 1e-9);
        }
    }

    #[test]
    fn plane_projection_idempotent(p in finite_vec3(), q in finite_vec3(), n in unit_vec3()) {
        let plane = Plane::new(q, n);
        let project = |x: Vec3| x - plane.normal * plane.signed_distance(x);
        let proj = project(p);
        prop_assert!(plane.signed_distance(proj).abs() < 1e-9);
        prop_assert!((project(proj) - proj).norm() < 1e-9);
    }

    #[test]
    fn ray_plane_intersection_is_on_both(origin in finite_vec3(), dir in unit_vec3(),
                                         q in finite_vec3(), n in unit_vec3()) {
        let ray = Ray::new(origin, dir);
        let plane = Plane::new(q, n);
        if let Some((t, p)) = plane.intersect_ray(&ray) {
            prop_assert!(t >= 0.0);
            prop_assert!(plane.signed_distance(p).abs() < 1e-7);
            prop_assert!(ray.distance_to_point(p) < 1e-7);
        }
    }

    #[test]
    fn line_distance_is_symmetric(a in finite_vec3(), da in unit_vec3(),
                                  b in finite_vec3(), db in unit_vec3()) {
        let ra = Ray::new(a, da);
        let rb = Ray::new(b, db);
        prop_assert!((ra.line_distance(&rb) - rb.line_distance(&ra)).abs() < 1e-8);
    }

    #[test]
    fn slerp_angle_is_linear(axis in unit_vec3(), angle in 0.01..2.5f64, t in 0.0..1.0f64) {
        let qa = Quat::IDENTITY;
        let qb = Quat::from_axis_angle(axis, angle);
        let qm = qa.slerp(&qb, t);
        prop_assert!((qa.angle_to(&qm) - t * angle).abs() < 1e-7);
    }
}

#[test]
fn pose_transform_preserves_distances() {
    // Deterministic spot-check that rigid transforms are isometries.
    let pose = Pose::from_quat(
        Quat::from_axis_angle(Vec3::new(0.3, 0.5, 0.81).normalized(), 1.2),
        Vec3::new(0.5, -0.25, 2.0),
    );
    let a = Vec3::new(1.0, 2.0, 3.0);
    let b = Vec3::new(-1.0, 0.5, 0.25);
    let d0 = a.distance(b);
    let d1 = pose.apply_point(a).distance(pose.apply_point(b));
    assert!((d0 - d1).abs() < 1e-12);
}
