//! # cyclops-solver
//!
//! Self-contained numerical optimization, replacing the paper's use of
//! `scipy.optimize` \[57\] for the two training stages of the Cyclops pointing
//! mechanism:
//!
//! * **K-space GMA fit (§4.1(B))** — non-linear least squares over the ~20
//!   geometric parameters of the galvo-mirror-assembly model `G`, minimizing
//!   board-hit error over the 266 grid samples → [`lm::levenberg_marquardt`],
//!   and [`lm::levenberg_marquardt_with`] for the full fit, whose Jacobian
//!   routine reuses the mirror geometry a column does not change.
//! * **VR-space mapping fit (§4.2)** — non-linear least squares over the 12
//!   mapping parameters minimizing the Lemma-1 error
//!   `Σ d(p_t, τ_r) + d(p_r, τ_t)` → also LM, with
//!   [`nelder_mead::nelder_mead`] available as a derivative-free fallback.
//! * **Exhaustive alignment search (§4.2)** — the "automated exhaustive
//!   search \[for] the optimal combination of the four voltages that maximizes
//!   the received power" → [`pattern::pattern_search`] (coarse-to-fine
//!   coordinate/pattern search, the practical form of exhaustive search the
//!   earlier FSONet work \[32\] used).
//! * **Tolerance bisection (§5.1)** — finding the maximum misalignment at
//!   which the link still closes → [`scalar::bisect_threshold`] and
//!   [`scalar::golden_min`].
//!
//! All algorithms are deterministic; none allocate outside of plain `Vec`s.
//!
//! ## Parallelism
//!
//! The hot loops — Jacobian columns in [`jacobian::numeric_jacobian`],
//! independent restarts in [`nelder_mead::nelder_mead_multistart`] /
//! [`pattern::pattern_search_multistart`], and the 2-D bootstrap grid in
//! [`pattern::grid_scan2_sync`] — fan out over [`cyclops_par`] worker
//! threads. Every parallel path is **bit-identical** to the serial one
//! (index-ordered collection, serial tie-breaking), so every thread count,
//! `CYCLOPS_THREADS=1` included, produces exactly the same numbers.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod jacobian;
pub mod linalg;
pub mod lm;
pub mod nelder_mead;
pub mod pattern;
pub mod scalar;
pub mod stats;

pub use jacobian::{central_differences_into, numeric_jacobian, numeric_jacobian_into, Residual};
pub use linalg::DMat;
pub use lm::{levenberg_marquardt, levenberg_marquardt_with, LmOptions, LmReport, LmStatus};
pub use nelder_mead::{nelder_mead, nelder_mead_multistart, NmOptions, NmReport};
pub use pattern::{
    axis_scan, grid_scan2, grid_scan2_sync, pattern_search, pattern_search_multistart,
    PatternOptions, PatternReport,
};
pub use scalar::{bisect_threshold, golden_min};
pub use stats::ResidualStats;

/// Scalar objectives accepted by the parallel multi-start drivers.
///
/// The objective must be [`Sync`] so restarts can run on worker threads.
/// Blanket-implemented — callers never name it.
pub trait ScalarObjective: Fn(&[f64]) -> f64 + Sync {}
impl<F: Fn(&[f64]) -> f64 + Sync> ScalarObjective for F {}
