//! Property-based tests for the optical substrate.

use cyclops_geom::pose::Pose;
use cyclops_geom::ray::Ray;
use cyclops_geom::rotation::axis_angle;
use cyclops_geom::vec3::Vec3;
use cyclops_optics::beam::{capture_fraction, BeamState};
use cyclops_optics::coupling::{CouplingModel, LinkDesign, ReceiverGeometry};
use cyclops_optics::galvo::GalvoParams;
use cyclops_optics::power::linear_to_db;
use proptest::prelude::*;

fn unit_vec() -> impl Strategy<Value = Vec3> {
    (-1.0..1.0f64, -1.0..1.0f64, -1.0..1.0f64)
        .prop_filter("nonzero", |(x, y, z)| x * x + y * y + z * z > 1e-3)
        .prop_map(|(x, y, z)| Vec3::new(x, y, z).normalized())
}

/// A dB ratio as a linear factor: the inverse `linear_to_db` is checked
/// against.
fn db_to_linear(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

proptest! {
    /// Capture fraction is a probability, monotone ↓ in offset and ↑ in
    /// aperture.
    #[test]
    fn capture_fraction_monotonicity(w in 1e-3..0.05f64, a in 1e-4..0.02f64,
                                     d1 in 0.0..0.05f64, d2 in 0.0..0.05f64) {
        let (near, far) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let c_near = capture_fraction(w, near, a);
        let c_far = capture_fraction(w, far, a);
        prop_assert!((0.0..=1.0).contains(&c_near));
        prop_assert!(c_far <= c_near + 1e-6, "offset ↑ must capture ≤");
    }

    /// Coupling efficiency is always a loss (≤ 0 dB) and decreases with
    /// every misalignment coordinate.
    #[test]
    fn efficiency_is_a_loss(w in 5e-3..0.04f64, delta in 0.0..0.02f64,
                            phi in 0.0..0.02f64, theta in 0.0..0.02f64) {
        let m = CouplingModel::commodity_10g();
        let e = m.efficiency_db(w, delta, phi, theta);
        prop_assert!(e <= 0.0, "efficiency {e} dB");
        // Monotone in φ within the physically relevant range (the deep-tail
        // fast path switches to a separable approximation below −90 dB,
        // where a fraction of a dB of non-monotonicity is irrelevant).
        let e2 = m.efficiency_db(w, delta, phi + 0.002, theta);
        if e > -85.0 && e2 > -85.0 {
            prop_assert!(e2 <= e + 1e-9);
        } else {
            prop_assert!(e2 <= e + 1.0);
        }
    }

    /// Beam radius grows monotonically along propagation and never shrinks
    /// below the waist.
    #[test]
    fn beam_radius_monotone(w0 in 1e-3..0.02f64, theta in 0.0..0.02f64,
                            d1 in 0.0..3.0f64, d2 in 0.0..3.0f64) {
        let b = BeamState::new(Ray::new(Vec3::ZERO, Vec3::Z), w0, theta, 0.0);
        let (near, far) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(b.radius_at(near) <= b.radius_at(far) + 1e-12);
        prop_assert!(b.radius_at(near) >= w0 - 1e-12);
    }

    /// dB composition: splitting a loss into two halves is exact.
    #[test]
    fn db_composition(l1 in -40.0..0.0f64, l2 in -40.0..0.0f64) {
        let joint = db_to_linear(l1 + l2);
        let split = db_to_linear(l1) * db_to_linear(l2);
        prop_assert!((linear_to_db(joint) - linear_to_db(split)).abs() < 1e-9);
    }

    /// Galvo frame-transform commutes with tracing for any rigid frame.
    #[test]
    fn galvo_transform_commutes(axis in unit_vec(), ang in -2.0..2.0f64,
                                tx in -2.0..2.0f64, ty in -2.0..2.0f64, tz in -2.0..2.0f64,
                                v1 in -5.0..5.0f64, v2 in -5.0..5.0f64) {
        let g = GalvoParams::nominal();
        let pose = Pose::new(axis_angle(axis, ang), Vec3::new(tx, ty, tz));
        let lhs = g.trace(v1, v2).map(|r| pose.apply_ray(&r));
        let rhs = g.transformed(&pose).trace(v1, v2);
        match (lhs, rhs) {
            (Some(a), Some(b)) => {
                prop_assert!((a.origin - b.origin).norm() < 1e-9);
                prop_assert!((a.dir - b.dir).norm() < 1e-9);
            }
            (None, None) => {}
            _ => prop_assert!(false, "trace success must be frame-invariant"),
        }
    }

    /// trace and trace_line agree wherever the strict path is valid.
    #[test]
    fn trace_line_extends_trace(v1 in -8.0..8.0f64, v2 in -8.0..8.0f64) {
        let g = GalvoParams::nominal();
        if let Some(strict) = g.trace(v1, v2) {
            let line = g.trace_line(v1, v2).expect("line version must be total here");
            prop_assert!((strict.origin - line.origin).norm() < 1e-12);
            prop_assert!((strict.dir - line.dir).norm() < 1e-12);
        }
    }

    /// Received power is maximal at the aligned geometry.
    #[test]
    fn aligned_is_optimal(off in -0.02..0.02f64, tilt in -0.01..0.01f64) {
        let d = LinkDesign::ten_g_diverging(20e-3, 1.75);
        let chief = Ray::new(Vec3::ZERO, Vec3::Z);
        let aligned = ReceiverGeometry::new(Vec3::Z * 1.75, -Vec3::Z);
        let p0 = d.received_power_dbm(chief, &aligned);
        let perturbed = ReceiverGeometry::new(
            Vec3::new(off, 0.0, 1.75),
            axis_angle(Vec3::X, tilt) * -Vec3::Z,
        );
        let p1 = d.received_power_dbm(chief, &perturbed);
        prop_assert!(p1 <= p0 + 0.05, "perturbed {p1} vs aligned {p0}");
    }
}
