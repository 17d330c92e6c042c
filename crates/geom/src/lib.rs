//! # cyclops-geom
//!
//! Minimal, dependency-free 3-D geometry kernel for the Cyclops FSO-VR link
//! reproduction.
//!
//! The Cyclops pointing pipeline (SIGCOMM '22, §4) is built almost entirely
//! out of a handful of geometric primitives:
//!
//! * [`Vec3`] / [`Mat3`] / [`Quat`] — vectors, rotation matrices and unit
//!   quaternions;
//! * [`rotation::axis_angle`] — the rotation matrix `R(r̂, θ)` used by the
//!   galvo-mirror model `G` to tilt mirror normals with applied voltage;
//! * [`Ray`] / [`Plane`] / [`reflect::reflect_ray`] — beam propagation and the
//!   mirror-reflection operator `R(p₀, x̂₀, n̂, q)` of §4.1;
//! * [`noise::box_muller`] — the one Gaussian-noise kernel every simulated
//!   noise source shares ([`noise::box_muller2`] evaluates two at once, bit
//!   for bit);
//! * [`Pose`] — rigid transforms; the "12 mapping parameters" of §4.2 are two
//!   [`Pose6`] values (6 parameters each) mapping each GMA's K-space into
//!   VR-space.
//!
//! Everything is `f64`, deterministic and allocation-free. The crate
//! deliberately avoids external linear-algebra dependencies so that the
//! numerical behaviour of the reproduction is fully pinned down by this
//! repository.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod approx;
pub mod mat3;
pub mod noise;
pub mod plane;
pub mod pose;
pub mod quat;
pub mod ray;
pub mod reflect;
pub mod rotation;
pub mod units;
pub mod vec3;

pub use approx::{approx_eq, approx_eq_eps};
pub use mat3::Mat3;
pub use plane::Plane;
pub use pose::{Pose, Pose6};
pub use quat::Quat;
pub use ray::Ray;
pub use reflect::reflect_ray;
pub use vec3::Vec3;
