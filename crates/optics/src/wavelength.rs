//! Multi-wavelength (WDM) links — the §6 path to 40 Gbps+.
//!
//! "For higher-bandwidth (40Gbps+) links, our designed TP mechanism remains
//! unchanged; however, the link would likely need customized collimators
//! that can efficiently capture a range of wavelengths *because* the
//! high-bandwidth single-strand transceivers use multiple wavelengths
//! \[12, 13\]." (§6)
//!
//! This module models that: a QSFP-class module carries several lanes on a
//! CWDM grid, and the receive collimator adds a *chromatic* coupling penalty
//! growing with each lane's distance from the lens's design wavelength — a
//! simple singlet/aspheric has focal shift ∝ Δλ, an achromatic (custom)
//! design does not. The link is up only when **every** lane clears its
//! sensitivity, so chromatic penalty eats the margin of the outer lanes
//! first.

use crate::coupling::LinkDesign;

/// The CWDM4 lane grid used by 100GBASE-LR4-class modules (nm).
pub const CWDM4_LANES_NM: [f64; 4] = [1271.0, 1291.0, 1311.0, 1331.0];

/// Chromatic behaviour of a receive collimator.
#[derive(Debug, Clone, Copy)]
pub struct ChromaticCollimator {
    /// Wavelength the lens is focused for (nm).
    pub design_wavelength_nm: f64,
    /// Coupling penalty per nm² of detuning (dB/nm²). The focal shift of a
    /// singlet grows linearly with Δλ and the defocused-spot coupling loss
    /// quadratically with the shift.
    pub chromatic_db_per_nm2: f64,
}

impl ChromaticCollimator {
    /// A commodity aspheric collimator (the F810/CFC class the prototypes
    /// use): fine at its design wavelength, several dB down 20–30 nm away.
    pub fn commodity(design_wavelength_nm: f64) -> ChromaticCollimator {
        ChromaticCollimator {
            design_wavelength_nm,
            chromatic_db_per_nm2: 0.012,
        }
    }

    /// A custom achromatic collimator (the §6 ask): near-flat response over
    /// the CWDM band.
    pub fn custom_achromat(design_wavelength_nm: f64) -> ChromaticCollimator {
        ChromaticCollimator {
            design_wavelength_nm,
            chromatic_db_per_nm2: 0.0004,
        }
    }

    /// Extra coupling loss (dB ≤ 0) for a lane at `wavelength_nm`.
    pub fn lane_penalty_db(&self, wavelength_nm: f64) -> f64 {
        let d = wavelength_nm - self.design_wavelength_nm;
        -self.chromatic_db_per_nm2 * d * d
    }
}

/// A WDM link: a base (single-wavelength-calibrated) link design plus the
/// lane grid and the receive collimator's chromatic behaviour.
#[derive(Debug, Clone)]
pub struct WdmLink {
    /// The underlying link design (beam geometry, budget, coupling).
    pub design: LinkDesign,
    /// Lane wavelengths (nm).
    pub lanes: Vec<f64>,
    /// Receive collimator chromatic model.
    pub collimator: ChromaticCollimator,
}

impl WdmLink {
    /// A 100G CWDM4 link over the Cyclops diverging-beam geometry.
    pub fn hundred_g_cwdm4(w_rx: f64, range: f64, collimator: ChromaticCollimator) -> WdmLink {
        use crate::amplifier::Edfa;
        use crate::coupling::CouplingModel;
        use crate::sfp::SfpSpec;
        let launch_radius = 2.0e-3;
        let theta_half = ((w_rx * w_rx - launch_radius * launch_radius).max(0.0)).sqrt() / range;
        // O-band lanes need an O-band amplifier (the prototypes' erbium
        // EDFA is C-band only): a +15 dB SOA.
        let design = LinkDesign {
            sfp: SfpSpec::qsfp28_100g(),
            edfa: Edfa::o_band_soa(),
            launch_radius,
            theta_half,
            coupling: CouplingModel::adjustable_25g(),
            nominal_range: range,
        };
        WdmLink {
            design,
            lanes: CWDM4_LANES_NM.to_vec(),
            collimator,
        }
    }

    /// Per-lane link margin (dB) at perfect alignment over the nominal
    /// range: the single-wavelength margin plus the lane's chromatic
    /// penalty. Lane TX power is the module power split across lanes.
    pub fn lane_margins_db(&self) -> Vec<(f64, f64)> {
        let n = self.lanes.len() as f64;
        let split_db = 10.0 * n.log10();
        let base = self.design.nominal_margin_db() - split_db;
        self.lanes
            .iter()
            .map(|&nm| (nm, base + self.collimator.lane_penalty_db(nm)))
            .collect()
    }

    /// True if every lane clears sensitivity — a multi-lane module only
    /// links up when all lanes do.
    pub fn link_closes(&self) -> bool {
        self.lane_margins_db().iter().all(|&(_, m)| m >= 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chromatic_penalty_shape() {
        let c = ChromaticCollimator::commodity(1311.0);
        assert_eq!(c.lane_penalty_db(1311.0), 0.0);
        let p20 = c.lane_penalty_db(1331.0);
        let p40 = c.lane_penalty_db(1271.0);
        assert!(p20 < 0.0);
        // Quadratic: 40 nm detuning costs 4× the 20 nm penalty.
        assert!((p40 / p20 - 4.0).abs() < 1e-9);
        // Commodity: ~5 dB at 20 nm, custom: negligible.
        assert!((-8.0..-2.0).contains(&p20), "penalty {p20}");
        let custom = ChromaticCollimator::custom_achromat(1311.0);
        assert!(custom.lane_penalty_db(1331.0) > -0.3);
    }

    #[test]
    fn commodity_collimator_kills_outer_lanes() {
        // The §6 claim, quantified: with a commodity collimator the outer
        // CWDM lanes lose the link margin; a custom achromat keeps all four.
        let commodity =
            WdmLink::hundred_g_cwdm4(12e-3, 1.5, ChromaticCollimator::commodity(1311.0));
        let custom =
            WdmLink::hundred_g_cwdm4(12e-3, 1.5, ChromaticCollimator::custom_achromat(1311.0));
        assert!(custom.link_closes(), "{:?}", custom.lane_margins_db());
        assert!(
            !commodity.link_closes(),
            "commodity should fail an outer lane: {:?}",
            commodity.lane_margins_db()
        );
        // And specifically it is an *outer* lane that fails.
        let worst = commodity
            .lane_margins_db()
            .into_iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        assert!(
            worst.0 == 1271.0 || worst.0 == 1331.0,
            "worst lane {worst:?}"
        );
    }

    #[test]
    fn lane_split_costs_6db_for_four_lanes() {
        let link =
            WdmLink::hundred_g_cwdm4(12e-3, 1.5, ChromaticCollimator::custom_achromat(1311.0));
        let single = link.design.nominal_margin_db();
        let center_lane = link
            .lane_margins_db()
            .into_iter()
            .find(|&(nm, _)| nm == 1311.0)
            .unwrap()
            .1;
        assert!(((single - center_lane) - 10.0 * 4f64.log10()).abs() < 0.3);
    }
}
