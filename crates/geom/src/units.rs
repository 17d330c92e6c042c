//! Unit conversions used throughout the workspace.
//!
//! Conventions: lengths in **metres**, angles in **radians**, time in
//! **seconds** internally. The paper quotes voltage-to-angle slopes and
//! motion ranges in degrees, so the one conversion the code needs lives
//! here; the reverse direction is `f64::to_degrees`.

/// Radians per degree.
const RAD_PER_DEG: f64 = std::f64::consts::PI / 180.0;

/// Converts degrees to radians.
#[inline]
pub fn deg_to_rad(deg: f64) -> f64 {
    deg * RAD_PER_DEG
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degree_radian_roundtrip() {
        assert!((deg_to_rad(180.0) - std::f64::consts::PI).abs() < 1e-12);
        assert!((deg_to_rad(33.3).to_degrees() - 33.3).abs() < 1e-12);
    }
}
