//! # cyclops-core
//!
//! The paper's contribution: the learning-based tracking-and-pointing (TP)
//! pipeline of *Cyclops* (SIGCOMM '22), §4 — plus the simulated bench
//! ([`deployment`]) it trains against.
//!
//! The pipeline has three stages (Fig 6):
//!
//! 1. **[`kspace`]** — learn each galvo-mirror assembly's model `G` in a
//!    known coordinate space by shooting at a grid board and fitting the
//!    parameterized beam-path expression (§4.1);
//! 2. **[`mapping`]** — learn the 12 parameters mapping both K-spaces into
//!    the headset tracker's VR-space, from exhaustively-aligned link
//!    configurations, using the Lemma-1 error function (§4.2), with the
//!    [`alignment`] search providing the aligned samples;
//! 3. **[`pointing`](mod@pointing)** — the real-time pointing function `P`: an iteration
//!    alternating the forward models `G` and the computational inverse
//!    [`gprime`](mod@gprime) across the two ends until the Lemma-1 points coincide
//!    (§4.3).
//!
//! [`tp`] packages the trained models into the online controller driven by
//! VRH-T reports; [`commission`](mod@commission) runs stages 1 and 2 end to
//! end and hands back that controller; [`tolerance`] measures link movement
//! tolerance (§5.1).
//!
//! Throughout, the *learner* only touches simulated-hardware outputs
//! (voltages in, noisy rays/power out); the hidden truth lives inside
//! [`deployment::Deployment`] exactly as it lived inside the authors' bench
//! hardware.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod alignment;
pub mod commission;
pub mod deployment;
pub mod gprime;
pub mod kspace;
pub mod mapping;
pub mod pointing;
pub mod recalib;
pub mod tolerance;
pub mod tp;

pub use commission::commission;
