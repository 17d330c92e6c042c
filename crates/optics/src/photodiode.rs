//! Quadrant photodiode monitor around the RX collimator.
//!
//! §4.2 (footnote 9): "To monitor the receiver power, we surround the RX's
//! collimator by four photodiodes connected to a DAQ, as in our earlier work
//! \[32\]." The exhaustive four-voltage alignment search needs a feedback
//! signal with a much wider basin than the fiber coupling itself (which is
//! −∞ dB until the beam nearly hits the aperture); the photodiode halo
//! provides it: the four diodes sample the beam's intensity skirt over a
//! several-centimetre footprint.

use crate::beam::{capture_fraction, BeamState};
use crate::coupling::ReceiverGeometry;
use cyclops_geom::plane::Plane;
use cyclops_geom::vec3::Vec3;

/// Four photodiodes arranged on a ring around the collimator aperture, plus
/// the aperture itself, forming the alignment-search objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadrantMonitor {
    /// Ring radius: distance of each diode centre from the aperture centre.
    pub ring_radius: f64,
    /// Active radius of each photodiode element.
    pub diode_radius: f64,
}

impl Default for QuadrantMonitor {
    fn default() -> Self {
        // 15 mm ring of 5 mm-radius diodes around the collimator, per the
        // FSONet-style arrangement.
        QuadrantMonitor {
            ring_radius: 15.0e-3,
            diode_radius: 5.0e-3,
        }
    }
}

impl QuadrantMonitor {
    /// The monitor around the receiver aperture `rx`: its plane, ring basis
    /// and diode centres, built once for every reading at that placement.
    pub fn place(&self, rx: &ReceiverGeometry) -> PlacedMonitor {
        // (u, v): an arbitrary-but-fixed orthonormal basis perpendicular to
        // the receiver axis.
        let u = rx.axis.any_perpendicular();
        let v = rx.axis.cross(u).normalized();
        let c = rx.aperture_center;
        let r = self.ring_radius;
        PlacedMonitor {
            rx: *rx,
            plane: Plane::new(rx.aperture_center, rx.axis),
            centers: [c + u * r, c + v * r, c - u * r, c - v * r],
            diode_radius: self.diode_radius,
        }
    }
}

/// A [`QuadrantMonitor`] placed around one receiver aperture
/// ([`QuadrantMonitor::place`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlacedMonitor {
    /// The receiver aperture the ring surrounds.
    pub rx: ReceiverGeometry,
    plane: Plane,
    /// Diode centres, ordered +u, +v, −u, −v in the aperture plane.
    centers: [Vec3; 4],
    diode_radius: f64,
}

impl PlacedMonitor {
    /// Where the beam's chief ray meets the aperture plane, and the beam
    /// radius there; `None` when the beam arrives from behind the plane or
    /// never reaches it, which reads dark.
    #[inline]
    fn landing(&self, beam: &BeamState) -> Option<(Vec3, f64)> {
        if beam.chief.dir.dot(self.rx.axis) >= 0.0 {
            return None;
        }
        let (t, hit) = self.plane.intersect_line(&beam.chief)?;
        if t <= 0.0 {
            return None;
        }
        Some((hit, beam.radius_at(t)))
    }

    /// The four diode signals (linear power fractions of a beam of radius
    /// `w` landing at `hit`), in the order of the centres.
    #[inline]
    fn diodes(&self, hit: Vec3, w: f64) -> [f64; 4] {
        self.centers
            .map(|c| capture_fraction(w, (hit - c).norm(), self.diode_radius))
    }

    /// The four individual diode signals; `[0.0; 4]` if the beam misses
    /// the receiver plane entirely.
    #[cfg(test)]
    fn diode_signals(&self, beam: &BeamState) -> [f64; 4] {
        self.landing(beam)
            .map_or([0.0; 4], |(hit, w)| self.diodes(hit, w))
    }

    /// The alignment-search objective: total monitored power fraction —
    /// the sum of the four diode signals plus the power entering the
    /// collimator aperture (`aperture_radius`). Smooth and nonzero over a
    /// basin of roughly `ring_radius + diode_radius + w`, which is what lets
    /// the coarse search find the receiver at all.
    pub fn search_signal(&self, beam: &BeamState, aperture_radius: f64) -> f64 {
        let Some((hit, w)) = self.landing(beam) else {
            return 0.0;
        };
        let delta = (hit - self.rx.aperture_center).norm();
        let aperture = capture_fraction(w, delta, aperture_radius);
        let diodes: f64 = self.diodes(hit, w).iter().sum();
        aperture + diodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclops_geom::ray::Ray;
    use cyclops_geom::vec3::v3;

    fn beam_at(offset_x_mm: f64) -> BeamState {
        BeamState::new(
            Ray::new(v3(offset_x_mm * 1e-3, 0.0, 0.0), Vec3::Z),
            2e-3,
            0.0114,
            20.0,
        )
    }

    fn placed() -> PlacedMonitor {
        QuadrantMonitor::default().place(&ReceiverGeometry::new(v3(0.0, 0.0, 1.75), -Vec3::Z))
    }

    #[test]
    fn centered_beam_gives_equal_quadrants() {
        let s = placed().diode_signals(&beam_at(0.0));
        for i in 1..4 {
            assert!((s[i] - s[0]).abs() < 1e-9, "{s:?}");
        }
        assert!(s[0] > 0.0);
    }

    #[test]
    fn offset_beam_biases_quadrants() {
        let s = placed().diode_signals(&beam_at(10.0));
        // The diode on the side the beam moved towards must read more than
        // the opposite one.
        let (hi, lo) = (
            s.iter().cloned().fold(0.0, f64::max),
            s.iter().cloned().fold(1.0, f64::min),
        );
        assert!(hi > lo * 1.2, "{s:?}");
    }

    #[test]
    fn search_signal_has_wide_basin() {
        let m = placed();
        // Even 25 mm off-centre, the monitor still sees the beam skirt —
        // while the 5 mm collimator aperture alone would see ~nothing.
        let sig = m.search_signal(&beam_at(25.0), 5e-3);
        assert!(sig > 1e-6, "signal {sig}");
        // And it decreases monotonically outward.
        let closer = m.search_signal(&beam_at(10.0), 5e-3);
        let centered = m.search_signal(&beam_at(0.0), 5e-3);
        assert!(centered > closer && closer > sig);
    }

    #[test]
    fn beam_pointing_away_reads_zero() {
        let m = placed();
        let away = BeamState::new(Ray::new(Vec3::ZERO, -Vec3::Z), 2e-3, 0.0114, 20.0);
        assert_eq!(m.search_signal(&away, 5e-3), 0.0);
        assert_eq!(m.diode_signals(&away), [0.0; 4]);
    }
}
