//! Erbium-doped fiber amplifier (EDFA).
//!
//! §5.1: "we use an amplifier \[34\] to compensate for the coupling losses due
//! to using a fiber rather than an exposed photodetector as in an actual
//! system." The EDFA sits between the TX SFP and the collimator; it has a
//! fixed small-signal gain and a saturation output power.

/// A booster EDFA: fixed gain up to a saturated output power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edfa {
    /// Small-signal gain (dB).
    pub gain_db: f64,
    /// Saturation output power (dBm) — output is clamped here.
    pub sat_output_dbm: f64,
}

impl Edfa {
    /// The booster used in the prototypes: +18 dB gain, 20 dBm saturated
    /// output (an FS.com C-band booster class device \[34\]). With the 10G ZR's
    /// +2 dBm this launches 20 dBm into the collimator, reproducing the
    /// paper's measured −10 dBm diverging-beam peak after its −30 dB coupling
    /// loss.
    pub fn booster_18db() -> Edfa {
        Edfa {
            gain_db: 18.0,
            sat_output_dbm: 20.0,
        }
    }

    /// An O-band semiconductor optical amplifier (SOA) for the §6 CWDM
    /// lanes around 1310 nm, where an erbium (C-band) device cannot operate:
    /// +15 dB gain, 17 dBm saturated output.
    pub fn o_band_soa() -> Edfa {
        Edfa {
            gain_db: 15.0,
            sat_output_dbm: 17.0,
        }
    }

    /// Amplifies an input power (dBm), respecting saturation.
    pub fn amplify_dbm(&self, input_dbm: f64) -> f64 {
        (input_dbm + self.gain_db).min(self.sat_output_dbm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_region() {
        let e = Edfa::booster_18db();
        assert!((e.amplify_dbm(0.0) - 18.0).abs() < 1e-12);
        assert!((e.amplify_dbm(-10.0) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn saturation_clamps() {
        let e = Edfa::booster_18db();
        assert_eq!(e.amplify_dbm(2.0), 20.0);
        assert_eq!(e.amplify_dbm(10.0), 20.0);
    }

    #[test]
    fn prototype_launch_power() {
        // 10G ZR (+2 dBm) through the booster → the 20 dBm launch that the
        // calibrated link budget assumes.
        let launch = Edfa::booster_18db().amplify_dbm(2.0);
        assert_eq!(launch, 20.0);
    }
}
