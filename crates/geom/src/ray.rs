//! Rays — the representation of optical beams' chief axis.
//!
//! The paper's GMA model `G(v₁, v₂) = (p, x̂)` outputs exactly a ray: the
//! beam's originating point `p` on the second galvo mirror and its direction
//! `x̂` (§4.1, Fig. 7).

use crate::vec3::Vec3;

/// A ray: origin point plus unit direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ray {
    /// Origin point (metres).
    pub origin: Vec3,
    /// Unit direction.
    pub dir: Vec3,
}

impl Ray {
    /// Creates a ray, normalizing the direction.
    pub fn new(origin: Vec3, dir: Vec3) -> Ray {
        Ray {
            origin,
            dir: dir.normalized(),
        }
    }

    /// The point `origin + t·dir`.
    #[inline]
    pub fn point_at(&self, t: f64) -> Vec3 {
        self.origin + self.dir * t
    }

    /// Parameter `t` of the point on the ray's supporting line closest to `p`
    /// (may be negative: behind the origin).
    #[inline]
    pub fn closest_t(&self, p: Vec3) -> f64 {
        (p - self.origin).dot(self.dir)
    }

    /// The point on the ray's supporting line closest to `p`.
    #[inline]
    pub fn closest_point(&self, p: Vec3) -> Vec3 {
        self.point_at(self.closest_t(p))
    }

    /// Perpendicular distance from `p` to the ray's supporting line.
    ///
    /// This is the "does the beam pass through the target point τ" metric of
    /// the `G'` iteration (§4.3).
    #[inline]
    pub fn distance_to_point(&self, p: Vec3) -> f64 {
        (p - self.closest_point(p)).norm()
    }

    /// Minimum distance between the supporting lines of two rays.
    ///
    /// Used to verify Lemma 1: at perfect alignment the TX beam and the RX
    /// "imaginary beam" must be the same line, i.e. mutual distance zero.
    pub fn line_distance(&self, other: &Ray) -> f64 {
        let n = self.dir.cross(other.dir);
        let w = other.origin - self.origin;
        let n_norm = n.norm();
        if n_norm < 1e-12 {
            // Parallel lines: perpendicular distance of other's origin.
            return self.distance_to_point(other.origin);
        }
        (w.dot(n) / n_norm).abs()
    }

    /// Angle between the two rays' directions, radians in `[0, π]`.
    #[inline]
    pub fn angle_to(&self, other: &Ray) -> f64 {
        self.dir.angle_to(other.dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::v3;

    #[test]
    fn construction_normalizes() {
        let r = Ray::new(Vec3::ZERO, v3(0.0, 0.0, 5.0));
        assert!(r.dir.is_unit(1e-12));
        assert_eq!(r.dir, Vec3::Z);
    }

    #[test]
    fn point_at_walks_along_direction() {
        let r = Ray::new(v3(1.0, 0.0, 0.0), Vec3::Y);
        assert_eq!(r.point_at(3.0), v3(1.0, 3.0, 0.0));
        assert_eq!(r.point_at(-1.0), v3(1.0, -1.0, 0.0));
    }

    #[test]
    fn closest_point_projects() {
        let r = Ray::new(Vec3::ZERO, Vec3::X);
        let p = v3(2.0, 5.0, 0.0);
        assert_eq!(r.closest_point(p), v3(2.0, 0.0, 0.0));
        assert!((r.distance_to_point(p) - 5.0).abs() < 1e-12);
        assert!((r.closest_t(p) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn distance_zero_on_the_ray() {
        let r = Ray::new(v3(1.0, 1.0, 1.0), v3(1.0, 2.0, 3.0));
        assert!(r.distance_to_point(r.point_at(7.7)) < 1e-12);
    }

    #[test]
    fn skew_line_distance() {
        // Line 1 along X through origin; line 2 along Y through (0, 0, 2).
        let a = Ray::new(Vec3::ZERO, Vec3::X);
        let b = Ray::new(v3(0.0, 0.0, 2.0), Vec3::Y);
        assert!((a.line_distance(&b) - 2.0).abs() < 1e-12);
        assert!((b.line_distance(&a) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_line_distance() {
        let a = Ray::new(Vec3::ZERO, Vec3::X);
        let b = Ray::new(v3(5.0, 3.0, 4.0), Vec3::X);
        assert!((a.line_distance(&b) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn intersecting_lines_distance_zero() {
        let a = Ray::new(Vec3::ZERO, Vec3::X);
        let b = Ray::new(v3(1.0, -1.0, 0.0), Vec3::Y);
        assert!(a.line_distance(&b) < 1e-12);
    }

    #[test]
    fn angle_between_rays() {
        let a = Ray::new(Vec3::ZERO, Vec3::X);
        let b = Ray::new(v3(9.0, 9.0, 9.0), Vec3::Y);
        assert!((a.angle_to(&b) - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        let reversed = Ray::new(a.origin, -a.dir);
        assert!((a.angle_to(&reversed) - std::f64::consts::PI).abs() < 1e-12);
    }
}
