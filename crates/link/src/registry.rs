//! Hardware device registry: data-driven capability tables for the SFP
//! stack, the galvo assembly and the headset tracker, with named presets
//! and a validating [`HardwareProfile`] builder.
//!
//! The paper evaluates one build — 10G ZR optics, one GVS-class galvo,
//! Rift-S tracking. The registry turns each of those axes into a profile so
//! sessions and fleets mix heterogeneous hardware: `cyclops run --headset
//! quest --sfp 25g-lr` resolves names here, and the builder rejects unknown
//! names, out-of-range capability values and incompatible SFP/galvo
//! pairings with a typed [`RegistryError`] instead of panicking.
//!
//! Everything is data: a profile is a plain struct ([`SfpProfileDef`] /
//! [`GalvoProfileDef`] / [`HeadsetProfileDef`]), and the preset tables are
//! just `const`-like constructors — downstream code can define custom
//! profiles and feed them through the same builder validation.

use cyclops_core::commission::SystemConfig;
use cyclops_core::deployment::DeploymentConfig;
use cyclops_optics::coupling::LinkDesign;
use cyclops_optics::galvo::GalvoSimConfig;
use cyclops_optics::sfp::SfpSpec;
use cyclops_vrh::tracking::TrackerConfig;

/// Typed registry failure: every way resolving or combining profiles can go
/// wrong. CLI input errors surface as one of these, never a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryError {
    /// No profile of `kind` is registered under `name`.
    UnknownProfile {
        /// Profile kind: `"sfp"`, `"galvo"` or `"headset"`.
        kind: &'static str,
        /// The name that failed to resolve.
        name: String,
    },
    /// A capability value is outside its valid range.
    OutOfRange {
        /// Which capability failed validation.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// The SFP stack and the galvo assembly cannot be deployed together.
    IncompatiblePair {
        /// SFP profile name.
        sfp: String,
        /// Galvo profile name.
        galvo: String,
        /// Why the pairing is rejected.
        why: &'static str,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownProfile { kind, name } => {
                write!(f, "unknown {kind} profile {name:?}")
            }
            RegistryError::OutOfRange { what, value } => {
                write!(f, "{what} out of range: {value}")
            }
            RegistryError::IncompatiblePair { sfp, galvo, why } => {
                write!(f, "sfp {sfp:?} incompatible with galvo {galvo:?}: {why}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

// ---------------------------------------------------------------------------
// Data-driven profile definitions + preset tables
// ---------------------------------------------------------------------------

/// An SFP/optics stack: the transceiver + optical design a TX unit is
/// built from, plus deployment constraints the builder validates.
#[derive(Debug, Clone, Copy)]
pub struct SfpProfileDef {
    /// Registry name (e.g. `"25g-lr"`).
    pub name: &'static str,
    /// The full optical link design (transceiver, EDFA, beam, coupling).
    pub design: LinkDesign,
    /// Minimum galvo slew (deg/s of mirror angle) the stack needs; a WDM
    /// stack with per-lane alignment wants a fast mirror.
    pub min_galvo_slew_deg_s: f64,
    /// Number of wavelength lanes (1 = single-λ).
    pub wdm_lanes: u32,
}

/// A galvo assembly: the driver non-idealities of the steering mirror
/// pair.
#[derive(Debug, Clone, Copy)]
pub struct GalvoProfileDef {
    /// Registry name (e.g. `"galvo-fast"`).
    pub name: &'static str,
    /// The simulator configuration for this assembly.
    pub cfg: GalvoSimConfig,
}

/// A headset class: the tracking timing/noise model the VRH reports with.
#[derive(Debug, Clone, Copy)]
pub struct HeadsetProfileDef {
    /// Registry name (e.g. `"quest"`).
    pub name: &'static str,
    /// The tracker configuration for this headset class.
    pub tracker: TrackerConfig,
}

/// The registered SFP stacks: the paper's 10G ZR and 25G LR prototypes plus
/// the §6 forward-looking 4×10G CWDM stack (whose mux/demux insertion loss
/// eats ~4 dB of the ZR budget and whose per-lane alignment wants the fast
/// galvo).
pub fn sfp_profiles() -> Vec<SfpProfileDef> {
    let wdm_design = {
        let mut d = LinkDesign::ten_g_diverging(20.0e-3, 1.75);
        d.sfp = SfpSpec {
            name: "4x10G-CWDM-stack",
            line_rate_gbps: 41.25,
            optimal_goodput_gbps: 37.6,
            tx_power_dbm: 2.0,
            rx_sensitivity_dbm: -21.0,
            rx_overload_dbm: 7.0,
            relink_time_s: 2.5,
            wavelength_nm: 1291.0,
        };
        d
    };
    vec![
        SfpProfileDef {
            name: "10g-zr",
            design: LinkDesign::ten_g_diverging(20.0e-3, 1.75),
            min_galvo_slew_deg_s: 0.0,
            wdm_lanes: 1,
        },
        SfpProfileDef {
            name: "25g-lr",
            design: LinkDesign::twenty_five_g(20.0e-3, 1.75),
            min_galvo_slew_deg_s: 0.0,
            wdm_lanes: 1,
        },
        SfpProfileDef {
            name: "40g-wdm",
            design: wdm_design,
            min_galvo_slew_deg_s: 500.0,
            wdm_lanes: 4,
        },
    ]
}

/// The registered galvo assemblies: the paper's GVS-class fast mirror and a
/// slow large-aperture mirror (bigger beam, 10× slower slew, longer
/// settle).
pub fn galvo_profiles() -> Vec<GalvoProfileDef> {
    vec![
        GalvoProfileDef {
            name: "galvo-fast",
            cfg: GalvoSimConfig::default(),
        },
        GalvoProfileDef {
            name: "galvo-slow",
            cfg: GalvoSimConfig {
                small_step_settle_s: 2e-3,
                slew_rad_per_s: 100f64.to_radians(),
                ..GalvoSimConfig::default()
            },
        },
    ]
}

/// The registered headset classes: the paper's Rift S (§5.2 noise
/// measurements) and a Quest-class standalone headset — slower 72 Hz
/// report cadence, more late reports, and roughly 1.5× the inside-out
/// tracking jitter.
pub fn headset_profiles() -> Vec<HeadsetProfileDef> {
    let rift = TrackerConfig::default();
    vec![
        HeadsetProfileDef {
            name: "rift-s",
            tracker: rift,
        },
        HeadsetProfileDef {
            name: "quest",
            tracker: TrackerConfig {
                period_min_s: 0.0136,
                period_max_s: 0.0142,
                late_prob: 0.015,
                late_min_s: 0.016,
                late_max_s: 0.018,
                pos_noise_sigma: rift.pos_noise_sigma * 1.5,
                ang_noise_sigma: rift.ang_noise_sigma * 1.5,
                ..rift
            },
        },
    ]
}

/// Resolves an SFP profile by name.
pub fn sfp_profile(name: &str) -> Result<SfpProfileDef, RegistryError> {
    sfp_profiles()
        .into_iter()
        .find(|p| p.name == name)
        .ok_or_else(|| RegistryError::UnknownProfile {
            kind: "sfp",
            name: name.to_string(),
        })
}

/// Resolves a galvo profile by name.
pub fn galvo_profile(name: &str) -> Result<GalvoProfileDef, RegistryError> {
    galvo_profiles()
        .into_iter()
        .find(|p| p.name == name)
        .ok_or_else(|| RegistryError::UnknownProfile {
            kind: "galvo",
            name: name.to_string(),
        })
}

/// Resolves a headset profile by name.
pub fn headset_profile(name: &str) -> Result<HeadsetProfileDef, RegistryError> {
    headset_profiles()
        .into_iter()
        .find(|p| p.name == name)
        .ok_or_else(|| RegistryError::UnknownProfile {
            kind: "headset",
            name: name.to_string(),
        })
}

// ---------------------------------------------------------------------------
// Validating hardware-profile builder
// ---------------------------------------------------------------------------

/// One validated hardware build: an SFP stack, a galvo assembly and a
/// headset class that are mutually compatible. Construct through
/// [`HardwareProfile::builder`].
#[derive(Debug, Clone, Copy)]
pub struct HardwareProfile {
    /// The SFP/optics stack.
    pub sfp: SfpProfileDef,
    /// The galvo assembly.
    pub galvo: GalvoProfileDef,
    /// The headset class.
    pub headset: HeadsetProfileDef,
}

impl Default for HardwareProfile {
    /// The paper's build: 10G ZR + fast galvo + Rift S. Infallible by
    /// construction (the presets validate).
    fn default() -> Self {
        HardwareProfile::builder()
            .build()
            .expect("default presets are compatible")
    }
}

impl HardwareProfile {
    /// Starts a builder at the paper's default build (`10g-zr`,
    /// `galvo-fast`, `rift-s`).
    pub fn builder() -> HardwareProfileBuilder {
        HardwareProfileBuilder {
            sfp: Named::Name("10g-zr".to_string()),
            galvo: Named::Name("galvo-fast".to_string()),
            headset: Named::Name("rift-s".to_string()),
        }
    }

    /// Resolves and validates three preset names in one call.
    pub fn named(sfp: &str, galvo: &str, headset: &str) -> Result<HardwareProfile, RegistryError> {
        HardwareProfile::builder()
            .sfp(sfp)
            .galvo(galvo)
            .headset(headset)
            .build()
    }

    /// Display label, e.g. `"25g-lr/galvo-fast/quest"`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            self.sfp.name, self.galvo.name, self.headset.name
        )
    }

    /// The commissioning configuration of this build: the profile's link
    /// design and galvo non-idealities over the paper's assembly
    /// tolerances, the profile's headset tracker, and the fast training
    /// budget of [`SystemConfig::fast_10g`] (the CLI's default).
    pub fn system_config(&self, seed: u64) -> SystemConfig {
        SystemConfig {
            deployment: DeploymentConfig {
                design: self.sfp.design,
                galvo_cfg: self.galvo.cfg,
                ..DeploymentConfig::paper_10g(seed)
            },
            tracker: self.tracker(),
            ..SystemConfig::fast_10g(seed)
        }
    }

    /// The tracker configuration of the headset class.
    pub fn tracker(&self) -> TrackerConfig {
        self.headset.tracker
    }
}

/// A builder slot: a preset name to resolve, or a custom definition to
/// validate.
#[derive(Debug, Clone)]
enum Named<T> {
    Name(String),
    Custom(T),
}

/// Validating builder for [`HardwareProfile`]. Name resolution, capability
/// range checks and pairing checks all happen in
/// [`HardwareProfileBuilder::build`], so errors surface once, typed.
#[derive(Debug, Clone)]
pub struct HardwareProfileBuilder {
    sfp: Named<SfpProfileDef>,
    galvo: Named<GalvoProfileDef>,
    headset: Named<HeadsetProfileDef>,
}

impl HardwareProfileBuilder {
    /// Selects an SFP stack by registry name.
    pub fn sfp(mut self, name: &str) -> Self {
        self.sfp = Named::Name(name.to_string());
        self
    }

    /// Supplies a custom SFP stack definition.
    pub fn sfp_def(mut self, def: SfpProfileDef) -> Self {
        self.sfp = Named::Custom(def);
        self
    }

    /// Selects a galvo assembly by registry name.
    pub fn galvo(mut self, name: &str) -> Self {
        self.galvo = Named::Name(name.to_string());
        self
    }

    /// Supplies a custom galvo definition.
    pub fn galvo_def(mut self, def: GalvoProfileDef) -> Self {
        self.galvo = Named::Custom(def);
        self
    }

    /// Selects a headset class by registry name.
    pub fn headset(mut self, name: &str) -> Self {
        self.headset = Named::Name(name.to_string());
        self
    }

    /// Supplies a custom headset definition.
    pub fn headset_def(mut self, def: HeadsetProfileDef) -> Self {
        self.headset = Named::Custom(def);
        self
    }

    /// Resolves names, validates every capability range and checks the
    /// SFP/galvo pairing.
    pub fn build(self) -> Result<HardwareProfile, RegistryError> {
        let sfp = match self.sfp {
            Named::Name(ref n) => sfp_profile(n)?,
            Named::Custom(d) => d,
        };
        let galvo = match self.galvo {
            Named::Name(ref n) => galvo_profile(n)?,
            Named::Custom(d) => d,
        };
        let headset = match self.headset {
            Named::Name(ref n) => headset_profile(n)?,
            Named::Custom(d) => d,
        };
        validate_sfp(&sfp)?;
        validate_galvo(&galvo)?;
        validate_headset(&headset)?;
        if galvo.cfg.slew_rad_per_s.to_degrees() < sfp.min_galvo_slew_deg_s {
            return Err(RegistryError::IncompatiblePair {
                sfp: sfp.name.to_string(),
                galvo: galvo.name.to_string(),
                why: "stack needs a faster mirror (per-lane WDM alignment)",
            });
        }
        Ok(HardwareProfile {
            sfp,
            galvo,
            headset,
        })
    }
}

fn out_of_range(what: &'static str, value: f64) -> RegistryError {
    RegistryError::OutOfRange { what, value }
}

fn validate_sfp(p: &SfpProfileDef) -> Result<(), RegistryError> {
    let s = &p.design.sfp;
    if !(s.rx_sensitivity_dbm.is_finite() && s.rx_overload_dbm.is_finite()) {
        return Err(out_of_range("sfp rx thresholds", s.rx_sensitivity_dbm));
    }
    if s.rx_overload_dbm <= s.rx_sensitivity_dbm {
        return Err(out_of_range(
            "sfp rx_overload_dbm (must exceed sensitivity)",
            s.rx_overload_dbm,
        ));
    }
    if !(s.line_rate_gbps.is_finite() && s.line_rate_gbps > 0.0) {
        return Err(out_of_range("sfp line_rate_gbps", s.line_rate_gbps));
    }
    if !(s.optimal_goodput_gbps > 0.0 && s.optimal_goodput_gbps <= s.line_rate_gbps) {
        return Err(out_of_range(
            "sfp optimal_goodput_gbps (must be in (0, line rate])",
            s.optimal_goodput_gbps,
        ));
    }
    if !(s.relink_time_s.is_finite() && s.relink_time_s >= 0.0) {
        return Err(out_of_range("sfp relink_time_s", s.relink_time_s));
    }
    if !(s.wavelength_nm.is_finite() && s.wavelength_nm > 0.0) {
        return Err(out_of_range("sfp wavelength_nm", s.wavelength_nm));
    }
    if !(p.min_galvo_slew_deg_s.is_finite() && p.min_galvo_slew_deg_s >= 0.0) {
        return Err(out_of_range(
            "sfp min_galvo_slew_deg_s",
            p.min_galvo_slew_deg_s,
        ));
    }
    if p.wdm_lanes == 0 {
        return Err(out_of_range("sfp wdm_lanes (must be >= 1)", 0.0));
    }
    Ok(())
}

fn validate_galvo(p: &GalvoProfileDef) -> Result<(), RegistryError> {
    let g = &p.cfg;
    if g.slew_rad_per_s.is_nan() || g.slew_rad_per_s <= 0.0 {
        return Err(out_of_range("galvo slew_rad_per_s", g.slew_rad_per_s));
    }
    if !(g.small_step_settle_s.is_finite() && g.small_step_settle_s >= 0.0) {
        return Err(out_of_range(
            "galvo small_step_settle_s",
            g.small_step_settle_s,
        ));
    }
    if !(g.angle_noise_rad.is_finite() && g.angle_noise_rad >= 0.0) {
        return Err(out_of_range("galvo angle_noise_rad", g.angle_noise_rad));
    }
    if !(g.dac_step_v.is_finite() && g.dac_step_v >= 0.0) {
        return Err(out_of_range("galvo dac_step_v", g.dac_step_v));
    }
    Ok(())
}

fn validate_headset(p: &HeadsetProfileDef) -> Result<(), RegistryError> {
    p.tracker
        .validate()
        .map_err(|(what, value)| out_of_range(what, value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_resolve_and_validate() {
        for p in sfp_profiles() {
            assert!(sfp_profile(p.name).is_ok());
            assert!(validate_sfp(&p).is_ok(), "{}", p.name);
        }
        for p in galvo_profiles() {
            assert!(galvo_profile(p.name).is_ok());
            assert!(validate_galvo(&p).is_ok(), "{}", p.name);
        }
        for p in headset_profiles() {
            assert!(headset_profile(p.name).is_ok());
            assert!(validate_headset(&p).is_ok(), "{}", p.name);
        }
    }

    #[test]
    fn default_build_is_the_paper_prototype() {
        let hw = HardwareProfile::default();
        assert_eq!(hw.label(), "10g-zr/galvo-fast/rift-s");
        let dc = hw.system_config(7).deployment;
        let paper = DeploymentConfig::paper_10g(7);
        assert_eq!(
            dc.design.sfp.rx_sensitivity_dbm,
            paper.design.sfp.rx_sensitivity_dbm
        );
        assert_eq!(dc.galvo_cfg.slew_rad_per_s, paper.galvo_cfg.slew_rad_per_s);
        assert_eq!(
            hw.tracker().period_min_s,
            TrackerConfig::default().period_min_s
        );
    }

    #[test]
    fn unknown_names_are_rejected_per_kind() {
        assert!(matches!(
            sfp_profile("400g-zr"),
            Err(RegistryError::UnknownProfile { kind: "sfp", .. })
        ));
        assert!(matches!(
            galvo_profile("warp-drive"),
            Err(RegistryError::UnknownProfile { kind: "galvo", .. })
        ));
        assert!(matches!(
            headset_profile("vision-pro"),
            Err(RegistryError::UnknownProfile {
                kind: "headset",
                ..
            })
        ));
        assert!(HardwareProfile::named("10g-zr", "galvo-fast", "nope").is_err());
    }

    #[test]
    fn out_of_range_capabilities_are_rejected() {
        // SFP: overload below sensitivity.
        let mut bad = sfp_profile("10g-zr").unwrap();
        bad.design.sfp.rx_overload_dbm = bad.design.sfp.rx_sensitivity_dbm - 1.0;
        assert!(matches!(
            HardwareProfile::builder().sfp_def(bad).build(),
            Err(RegistryError::OutOfRange { .. })
        ));
        // SFP: goodput above line rate.
        let mut bad = sfp_profile("25g-lr").unwrap();
        bad.design.sfp.optimal_goodput_gbps = bad.design.sfp.line_rate_gbps * 2.0;
        assert!(matches!(
            HardwareProfile::builder().sfp_def(bad).build(),
            Err(RegistryError::OutOfRange { .. })
        ));
        // Galvo: non-positive slew.
        let mut bad = galvo_profile("galvo-fast").unwrap();
        bad.cfg.slew_rad_per_s = 0.0;
        assert!(matches!(
            HardwareProfile::builder().galvo_def(bad).build(),
            Err(RegistryError::OutOfRange { .. })
        ));
        // Headset: period band inverted.
        let mut bad = headset_profile("rift-s").unwrap();
        bad.tracker.period_max_s = bad.tracker.period_min_s / 2.0;
        assert!(matches!(
            HardwareProfile::builder().headset_def(bad).build(),
            Err(RegistryError::OutOfRange { .. })
        ));
        // Headset: probability outside [0, 1], and late reports enabled
        // over an empty late-period band.
        let quest = headset_profile("quest").unwrap();
        for tracker in [
            TrackerConfig {
                late_prob: 1.5,
                ..quest.tracker
            },
            TrackerConfig {
                late_min_s: 0.0,
                ..quest.tracker
            },
        ] {
            assert!(matches!(
                HardwareProfile::builder()
                    .headset_def(HeadsetProfileDef { tracker, ..quest })
                    .build(),
                Err(RegistryError::OutOfRange { .. })
            ));
        }
    }

    #[test]
    fn wdm_stack_requires_the_fast_galvo() {
        let err = HardwareProfile::named("40g-wdm", "galvo-slow", "rift-s").unwrap_err();
        assert!(matches!(err, RegistryError::IncompatiblePair { .. }));
        assert!(HardwareProfile::named("40g-wdm", "galvo-fast", "rift-s").is_ok());
        // Single-λ stacks pair with either mirror.
        assert!(HardwareProfile::named("25g-lr", "galvo-slow", "quest").is_ok());
    }

    #[test]
    fn quest_class_is_noisier_and_slower_than_rift() {
        let rift = headset_profile("rift-s").unwrap().tracker;
        let quest = headset_profile("quest").unwrap().tracker;
        assert!(quest.period_min_s > rift.period_min_s);
        assert!(quest.pos_noise_sigma > rift.pos_noise_sigma);
        assert!(quest.ang_noise_sigma > rift.ang_noise_sigma);
        assert!(quest.late_prob > rift.late_prob);
    }

    #[test]
    fn error_display_is_informative() {
        let e = RegistryError::UnknownProfile {
            kind: "sfp",
            name: "x".into(),
        };
        assert!(e.to_string().contains("unknown sfp profile"));
        let e = out_of_range("galvo slew", -1.0);
        assert!(e.to_string().contains("out of range"));
        let e = RegistryError::IncompatiblePair {
            sfp: "40g-wdm".into(),
            galvo: "galvo-slow".into(),
            why: "needs a faster mirror",
        };
        assert!(e.to_string().contains("incompatible"));
    }
}
