//! One-dimensional threshold bisection.
//!
//! [`bisect_threshold`] implements the §5.1 tolerance measurement: "the
//! maximum angular movement from the aligned position for which the link
//! remains connected" — i.e. the largest `x` for which a monotone predicate
//! still holds.

/// Finds the largest `x` in `[lo, hi]` for which `pred(x)` is true, assuming
/// `pred` is true at `lo` and monotonically switches to false somewhere in
/// the interval.
///
/// Returns `hi` if the predicate holds on the whole interval and `lo` if it
/// fails immediately above `lo`. `tol` bounds the bracket width.
///
/// This is the "movement tolerance" measurement: `pred(offset)` = "link still
/// closes at this misalignment".
pub fn bisect_threshold<F>(mut pred: F, lo: f64, hi: f64, tol: f64) -> f64
where
    F: FnMut(f64) -> bool,
{
    assert!(hi > lo);
    if !pred(lo) {
        return lo;
    }
    if pred(hi) {
        return hi;
    }
    let (mut a, mut b) = (lo, hi);
    while b - a > tol {
        let mid = (a + b) / 2.0;
        if pred(mid) {
            a = mid;
        } else {
            b = mid;
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisect_finds_threshold() {
        // Link "closes" while offset < 5.77 (a tolerance in mrad).
        let t = bisect_threshold(|x| x < 5.77, 0.0, 20.0, 1e-9);
        assert!((t - 5.77).abs() < 1e-6);
    }

    #[test]
    fn bisect_whole_interval_true() {
        assert_eq!(bisect_threshold(|_| true, 0.0, 3.0, 1e-9), 3.0);
    }

    #[test]
    fn bisect_false_at_lo() {
        assert_eq!(bisect_threshold(|x| x < -1.0, 0.0, 3.0, 1e-9), 0.0);
    }

    #[test]
    fn bisect_respects_tolerance() {
        let t = bisect_threshold(|x| x < 1.0, 0.0, 2.0, 1e-3);
        assert!((t - 1.0).abs() <= 1e-3);
        assert!(t <= 1.0);
    }
}
