//! SFP transceiver specifications.
//!
//! The paper builds its links from commodity SFP transceivers (§2.2,
//! Appendix A): Cisco SFP-10G-ZR100 1550 nm modules for the 10G prototype
//! (0–4 dBm TX, −25 dBm sensitivity \[14\]) and 25G SFP28-LR modules for the
//! 25G prototype, whose link budget is "about 13 dB less than the SFPs used
//! in our 10G prototype" (§5.3.1). An important dynamical detail (§5.3):
//! "once the link is lost, it takes a few seconds to regain the link partly
//! due to the SFPs taking a few seconds to report that the link is up" — the
//! re-lock time below drives that behaviour in `cyclops-link`.

/// Static characteristics of an SFP transceiver (one of each sits at either
/// end of the link).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SfpSpec {
    /// Human-readable model name.
    pub name: &'static str,
    /// Line rate in Gbps.
    pub line_rate_gbps: f64,
    /// Goodput achievable by iperf over this link when perfectly aligned
    /// (Gbps) — the paper measures 9.4 Gbps on the 10G link and ~23.5 Gbps on
    /// the 25G link.
    pub optimal_goodput_gbps: f64,
    /// Laser transmit power (dBm).
    pub tx_power_dbm: f64,
    /// Receiver sensitivity (dBm): minimum power at which the link closes.
    pub rx_sensitivity_dbm: f64,
    /// Receiver overload/damage threshold (dBm).
    pub rx_overload_dbm: f64,
    /// Time for the SFP + NIC to re-establish the link after loss of signal
    /// (seconds) — "a few seconds" per §5.3.
    pub relink_time_s: f64,
    /// Carrier wavelength (nm).
    pub wavelength_nm: f64,
}

impl SfpSpec {
    /// Cisco SFP-10G-ZR100 (1550 nm), the 10G prototype transceiver.
    pub fn sfp10g_zr() -> SfpSpec {
        SfpSpec {
            name: "SFP-10G-ZR100",
            line_rate_gbps: 10.3125,
            optimal_goodput_gbps: 9.4,
            tx_power_dbm: 2.0,
            rx_sensitivity_dbm: -25.0,
            rx_overload_dbm: 7.0,
            relink_time_s: 2.5,
            wavelength_nm: 1550.0,
        }
    }

    /// Generic 25G SFP28-LR \[1\]: the short-budget module the 25G prototype
    /// had to use because no NICs support the longer-reach SFP28-ER.
    pub fn sfp28_lr() -> SfpSpec {
        SfpSpec {
            name: "SFP28-25G-LR",
            line_rate_gbps: 25.78125,
            optimal_goodput_gbps: 23.5,
            tx_power_dbm: 0.0,
            rx_sensitivity_dbm: -12.5,
            rx_overload_dbm: 2.0,
            relink_time_s: 2.0,
            wavelength_nm: 1310.0,
        }
    }

    /// A 100G QSFP28-class module (§6: the TP mechanism generalizes to
    /// 40G+ links with custom optics) — used by the forward-looking ablation.
    pub fn qsfp28_100g() -> SfpSpec {
        SfpSpec {
            name: "QSFP28-100G-LR4",
            line_rate_gbps: 103.125,
            optimal_goodput_gbps: 94.0,
            tx_power_dbm: 3.0,
            rx_sensitivity_dbm: -10.0,
            rx_overload_dbm: 4.5,
            relink_time_s: 2.0,
            wavelength_nm: 1310.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Link budget (dB): TX power minus sensitivity.
    fn budget_db(s: SfpSpec) -> f64 {
        s.tx_power_dbm - s.rx_sensitivity_dbm
    }

    #[test]
    fn budgets_match_paper() {
        // 10G ZR budget ≈ 27 dB; SFP28-LR budget 12–18 dB (§5.3.1), i.e.
        // roughly 13 dB less than the 10G ZR.
        let b10 = budget_db(SfpSpec::sfp10g_zr());
        let b25 = budget_db(SfpSpec::sfp28_lr());
        assert!((25.0..=29.0).contains(&b10), "10G budget {b10}");
        assert!((12.0..=18.0).contains(&b25), "25G budget {b25}");
        assert!((b10 - b25 - 13.0).abs() < 3.0, "difference ≈ 13 dB");
    }

    #[test]
    fn goodput_below_line_rate() {
        for s in [
            SfpSpec::sfp10g_zr(),
            SfpSpec::sfp28_lr(),
            SfpSpec::qsfp28_100g(),
        ] {
            assert!(s.optimal_goodput_gbps < s.line_rate_gbps, "{}", s.name);
            assert!(s.relink_time_s > 1.0, "relink takes seconds: {}", s.name);
            assert!(s.rx_overload_dbm > s.rx_sensitivity_dbm);
        }
    }

    #[test]
    fn measured_goodputs_match_paper() {
        assert_eq!(SfpSpec::sfp10g_zr().optimal_goodput_gbps, 9.4);
        assert_eq!(SfpSpec::sfp28_lr().optimal_goodput_gbps, 23.5);
    }
}
