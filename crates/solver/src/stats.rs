//! Residual/error statistics — the "Avg. Error / Max. Error" numbers of the
//! paper's Table 2 and general summary utilities for the experiment harness.

/// Summary statistics of a set of non-negative errors/residuals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResidualStats {
    /// Number of samples.
    pub n: usize,
    /// Mean error.
    pub mean: f64,
    /// Maximum error.
    pub max: f64,
    /// Minimum error.
    pub min: f64,
    /// Root-mean-square error.
    pub rms: f64,
}

impl ResidualStats {
    /// Computes statistics over a slice of values.
    ///
    /// Returns a zeroed struct for an empty slice.
    pub fn from_slice(values: &[f64]) -> ResidualStats {
        if values.is_empty() {
            return ResidualStats {
                n: 0,
                mean: 0.0,
                max: 0.0,
                min: 0.0,
                rms: 0.0,
            };
        }
        let n = values.len();
        let sum: f64 = values.iter().sum();
        let sum_sq: f64 = values.iter().map(|v| v * v).sum();
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        ResidualStats {
            n,
            mean: sum / n as f64,
            max,
            min,
            rms: (sum_sq / n as f64).sqrt(),
        }
    }
}

/// Returns the `q`-quantile (0 ≤ q ≤ 1) of the values using linear
/// interpolation between order statistics. Used for the CDF figures
/// (Fig 3, Fig 16).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of empty slice");
    assert!((0.0..=1.0).contains(&q));
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_stats() {
        let s = ResidualStats::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.min, 1.0);
        assert!((s.rms - (30.0f64 / 4.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_stats() {
        let s = ResidualStats::from_slice(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn quantiles() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert!((quantile(&v, 0.25) - 2.0).abs() < 1e-12);
        // Interpolated.
        assert!((quantile(&v, 0.1) - 1.4).abs() < 1e-12);
    }

    #[test]
    fn quantile_unsorted_input() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
    }

    /// Regression for the `partial_cmp().unwrap()` sweep: a NaN in the
    /// sample must not panic the sort. `total_cmp` places NaN above every
    /// real value, so low quantiles are unaffected.
    #[test]
    fn nan_samples_do_not_panic() {
        let v = [3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert!((quantile(&v, 1.0 / 3.0) - 2.0).abs() < 1e-12);
        assert!(quantile(&v, 1.0).is_nan());
    }
}
