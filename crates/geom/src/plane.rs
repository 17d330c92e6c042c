//! Planes — mirror surfaces, the K-space training board, and the auxiliary
//! plane `P` of the `G'` iteration (§4.3, Fig. 10).

use crate::ray::Ray;
use crate::vec3::Vec3;

/// An infinite plane through `point` with unit `normal`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plane {
    /// A point on the plane.
    pub point: Vec3,
    /// Unit normal.
    pub normal: Vec3,
}

impl Plane {
    /// Creates a plane, normalizing the normal.
    pub fn new(point: Vec3, normal: Vec3) -> Plane {
        Plane {
            point,
            normal: normal.normalized(),
        }
    }

    /// Signed distance of `p` from the plane (positive on the normal side).
    #[inline]
    pub fn signed_distance(&self, p: Vec3) -> f64 {
        (p - self.point).dot(self.normal)
    }

    /// Ray–plane intersection.
    ///
    /// Returns the parameter `t ≥ 0` and intersection point, or `None` if the
    /// ray is parallel to the plane or points away from it.
    pub fn intersect_ray(&self, ray: &Ray) -> Option<(f64, Vec3)> {
        let denom = ray.dir.dot(self.normal);
        if denom.abs() < 1e-12 {
            return None;
        }
        let t = (self.point - ray.origin).dot(self.normal) / denom;
        if t < 0.0 {
            return None;
        }
        Some((t, ray.point_at(t)))
    }

    /// Intersection of the ray's full supporting *line* with the plane
    /// (allows negative `t`). `None` only if parallel.
    pub fn intersect_line(&self, ray: &Ray) -> Option<(f64, Vec3)> {
        let denom = ray.dir.dot(self.normal);
        if denom.abs() < 1e-12 {
            return None;
        }
        let t = (self.point - ray.origin).dot(self.normal) / denom;
        Some((t, ray.point_at(t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vec3::v3;

    #[test]
    fn signed_distance_sides() {
        let pl = Plane::new(Vec3::ZERO, Vec3::Z);
        assert!((pl.signed_distance(v3(0.0, 0.0, 3.0)) - 3.0).abs() < 1e-12);
        assert!((pl.signed_distance(v3(1.0, 2.0, -4.0)) + 4.0).abs() < 1e-12);
    }

    #[test]
    fn projection_lands_on_plane() {
        let pl = Plane::new(v3(0.0, 0.0, 1.0), v3(0.0, 1.0, 1.0));
        let p = v3(3.0, -2.0, 5.0);
        // Stepping back along the unit normal by the signed distance lands
        // on the plane.
        let q = p - pl.normal * pl.signed_distance(p);
        assert!(pl.signed_distance(q).abs() < 1e-12);
        // Projection displacement is parallel to the normal.
        assert!((p - q).cross(pl.normal).norm() < 1e-12);
    }

    #[test]
    fn ray_hits_plane() {
        let pl = Plane::new(v3(0.0, 0.0, 2.0), Vec3::Z);
        let ray = Ray::new(Vec3::ZERO, v3(0.0, 0.6, 0.8));
        let (t, p) = pl.intersect_ray(&ray).unwrap();
        assert!((t - 2.5).abs() < 1e-12);
        assert!((p - v3(0.0, 1.5, 2.0)).norm() < 1e-12);
    }

    #[test]
    fn parallel_ray_misses() {
        let pl = Plane::new(v3(0.0, 0.0, 2.0), Vec3::Z);
        let ray = Ray::new(Vec3::ZERO, Vec3::X);
        assert!(pl.intersect_ray(&ray).is_none());
        assert!(pl.intersect_line(&ray).is_none());
    }

    #[test]
    fn behind_ray_misses_but_line_hits() {
        let pl = Plane::new(v3(0.0, 0.0, -1.0), Vec3::Z);
        let ray = Ray::new(Vec3::ZERO, Vec3::Z);
        assert!(pl.intersect_ray(&ray).is_none());
        let (t, p) = pl.intersect_line(&ray).unwrap();
        assert!((t + 1.0).abs() < 1e-12);
        assert!((p - v3(0.0, 0.0, -1.0)).norm() < 1e-12);
    }

    #[test]
    fn normal_is_normalized_on_construction() {
        let pl = Plane::new(Vec3::ZERO, v3(0.0, 0.0, 10.0));
        assert!(pl.normal.is_unit(1e-12));
    }
}
