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
//!   `Σ d(p_t, τ_r) + d(p_r, τ_t)` → also LM.
//! * **Exhaustive alignment search (§4.2)** — the "automated exhaustive
//!   search \[for] the optimal combination of the four voltages that maximizes
//!   the received power" → [`pattern::pattern_search`] (coarse-to-fine
//!   coordinate/pattern search, the practical form of exhaustive search the
//!   earlier FSONet work \[32\] used).
//! * **Tolerance bisection (§5.1)** — finding the maximum misalignment at
//!   which the link still closes → [`scalar::bisect_threshold`].
//!
//! All algorithms are deterministic; none allocate outside of plain `Vec`s.
//!
//! ## Parallelism
//!
//! The Jacobian columns in [`jacobian::numeric_jacobian_into`] fan out over
//! [`cyclops_par`] worker threads. The parallel path is **bit-identical** to
//! the serial one (columns are written back in index order), so every thread
//! count, `CYCLOPS_THREADS=1` included, produces exactly the same numbers.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod jacobian;
pub mod linalg;
pub mod lm;
pub mod pattern;
pub mod scalar;
pub mod stats;

pub use jacobian::{central_differences_into, numeric_jacobian_into, Residual};
pub use linalg::DMat;
pub use lm::{levenberg_marquardt, levenberg_marquardt_with, LmOptions, LmReport, LmStatus};
pub use pattern::{pattern_search, PatternOptions, PatternReport};
pub use scalar::bisect_threshold;
pub use stats::ResidualStats;
