//! # cyclops-vrh
//!
//! The VR-headset substrate: everything the Oculus Rift S contributed to the
//! paper's prototype, simulated.
//!
//! * [`headset`] — the headset as a rigid body with two **hidden** facts the
//!   paper's §3 emphasises: the tracked point `X` is "some unknown point
//!   within \[the] VRH", and poses are reported "in an unknown coordinate
//!   space (VR-space)". The learning pipeline never sees either; the
//!   simulation holds them as ground truth.
//! * [`tracking`] — the VRH-T model, [`tracking::TrackerConfig`]: its
//!   report period (12–13 ms, 0.7 % of the time 14–15 ms, §5.2), its
//!   optional drift walk, and the stationary report noise the paper
//!   measured (≤1.79 mm location, ≤0.41 mrad orientation over 30 minutes).
//!   The engine and the mapping sample collection draw every report
//!   through it.
//! * [`motion`] — the §5.3 test rigs as motion models: linear rail strokes,
//!   rotation-stage sweeps, and free hand-held (Ornstein–Uhlenbeck) motion.
//! * [`traces`] — 360°-video viewing head-motion traces: a synthetic
//!   generator calibrated to the speed CDFs of Fig 3 (the public dataset
//!   \[47\] is substituted per DESIGN.md), plus a CSV codec so real traces can
//!   be dropped in.
//! * [`speeds`] — linear/angular speed extraction used by Fig 3 and the
//!   throughput experiments.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod headset;
pub mod motion;
pub mod rand_util;
pub mod speeds;
pub mod traces;
pub mod tracking;
