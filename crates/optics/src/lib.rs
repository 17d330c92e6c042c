//! # cyclops-optics
//!
//! The optical substrate of the Cyclops reproduction: everything the paper's
//! bench prototype did with photons, modelled as deterministic `f64` physics.
//!
//! The paper's link (§2.2, §5.1, Appendix A) is:
//!
//! ```text
//! SFP ── fiber ── EDFA ── collimator ──> GM (TX) ~~~ air ~~~ GM (RX) ──> collimator ── fiber ── SFP
//! ```
//!
//! and this crate provides each stage:
//!
//! * [`power`] — dBm/milliwatt arithmetic;
//! * [`beam`] — Gaussian-beam geometry (waist, divergence, radius at range,
//!   capture of an offset aperture), for both the *collimated* and the
//!   *diverging* designs compared in Table 1;
//! * [`galvo`] — the two-mirror galvanometer geometry: the **ground-truth
//!   hardware** that the learning pipeline in `cyclops-core` fits its model
//!   `G` against, including DAC quantization, angular noise and settle
//!   latency of the ThorLabs GVS102 used in the prototype;
//! * [`coupling`] — received-power model: aperture capture × fiber angular
//!   acceptance × divergence penalty, with constants calibrated once against
//!   the four measured values of the paper's Table 1;
//! * [`sfp`] / [`amplifier`] — transceiver presets (10G ZR, 25G SFP28-LR,
//!   100G QSFP28) and the EDFA block;
//! * [`photodiode`] — the quadrant-monitor halo used by the exhaustive
//!   alignment search of §4.2 (the paper surrounds the RX collimator with
//!   four photodiodes, as in FSONet \[32\]);
//! * [`wavelength`] — the §6 multi-wavelength (40G+) extension: CWDM lanes
//!   and chromatic collimator penalties.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod amplifier;
pub mod beam;
pub mod coupling;
pub mod galvo;
pub mod photodiode;
pub mod power;
pub mod sfp;
pub mod wavelength;

pub use amplifier::Edfa;
pub use beam::{capture_fraction, BeamState};
pub use coupling::{CouplingModel, LinkDesign, ReceiverGeometry};
pub use galvo::{GalvoError, GalvoParams, GalvoSim, GalvoSimConfig};
pub use photodiode::QuadrantMonitor;
pub use power::{dbm_to_mw, linear_to_db, mw_to_dbm};
pub use sfp::SfpSpec;
pub use wavelength::{ChromaticCollimator, WdmLink};
