//! Order statistics, the log-bucketed span histogram, and the regression
//! verdict `--compare` prints.

/// Median of `xs` (mean of the middle two for even counts). `NaN` when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// First and third quartiles, by the method of Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so the
/// spreads this benchmark reports are the ones a reader recomputes from the
/// raw samples. A single sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (f64::NAN, f64::NAN),
        1 => (v[0], v[0]),
        n => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(3))
        }
    }
}

/// Interquartile range as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs).abs()
}

/// The nearest-rank index (0-based) of the `q` quantile among `n` sorted
/// samples — but only when at least ten samples lie beyond it, the rule for
/// reporting a tail percentile at all. `None` otherwise.
pub fn percentile_rank(n: u64, q: f64) -> Option<u64> {
    let rank = ((q * n as f64).ceil() as u64).max(1) - 1;
    (n > rank && n - 1 - rank >= 10).then_some(rank)
}

const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;

/// A log-bucketed histogram of durations: exact below 16 units, then 16
/// buckets per octave (≤ 6.25 % wide). Memory stays a few KiB no
/// matter how many spans a layer records.
#[derive(Debug, Clone, Default)]
pub struct LogHist {
    counts: Vec<u64>,
    n: u64,
}

impl LogHist {
    fn index(v: u64) -> usize {
        if v < SUB {
            v as usize
        } else {
            let octave = 63 - v.leading_zeros();
            let shift = octave - SUB_BITS;
            ((shift + 1) as u64 * SUB + ((v >> shift) - SUB)) as usize
        }
    }

    /// Lower edge and width of bucket `i`.
    fn bucket(i: usize) -> (u64, u64) {
        let i = i as u64;
        if i < SUB {
            (i, 1)
        } else {
            let shift = i / SUB - 1;
            ((SUB + i % SUB) << shift, 1 << shift)
        }
    }

    pub fn record(&mut self, v: u64) {
        let i = Self::index(v);
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, o: &LogHist) {
        if o.counts.len() > self.counts.len() {
            self.counts.resize(o.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&o.counts) {
            *a += b;
        }
        self.n += o.n;
    }

    /// The `q` quantile, interpolated linearly by rank inside its bucket;
    /// `None` unless ten or more samples lie beyond it.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let rank = percentile_rank(self.n, q)?;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && below + c > rank {
                let (lo, width) = Self::bucket(i);
                let frac = (rank - below) as f64 + 0.5;
                return Some(lo as f64 + width as f64 * frac / c as f64);
            }
            below += c;
        }
        None
    }

    /// Non-empty buckets as `(lower edge, count)`.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket(i).0, c))
    }
}

/// Outcome of comparing one metric between a baseline and a candidate run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Worse,
    /// The run-to-run spread is wider than the bound, so "unchanged" cannot
    /// be told from "worse".
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse candidate `b` is than baseline `a` (as a share of `a`'s
/// median; negative = better).
fn worse_by(a: &[f64], b: &[f64], lower_is_better: bool) -> f64 {
    let (ma, mb) = (median(a), median(b));
    let d = (mb - ma) / ma.abs();
    if lower_is_better {
        d
    } else {
        -d
    }
}

/// The regression rule: worse when the median moved the wrong way by more
/// than `bound` (a share of the baseline median); unresolved when either
/// side's quartile spread exceeds the bound, unless every candidate sample
/// beats every baseline sample; improved when the median moved the right
/// way by more than the baseline's own spread.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if spread(a).max(spread(b)) > bound {
        return if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let w = worse_by(a, b, lower_is_better);
    if w > bound {
        Verdict::Worse
    } else if -w > spread(a) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        // p99 of 1000 samples: rank 989, ten beyond — reported.
        assert_eq!(percentile_rank(1000, 0.99), Some(989));
        // p99 of 999: nine beyond — withheld.
        assert_eq!(percentile_rank(999, 0.99), None);
        assert_eq!(percentile_rank(10_000, 0.999), Some(9_989));
        assert_eq!(percentile_rank(9_999, 0.999), None);
        assert_eq!(percentile_rank(21, 0.5), Some(10));
        assert_eq!(percentile_rank(19, 0.5), None);
        assert_eq!(percentile_rank(0, 0.5), None);

        let mut h = LogHist::default();
        for v in 0..999 {
            h.record(v);
        }
        assert!(h.quantile(0.99).is_none());
        h.record(999);
        let p99 = h.quantile(0.99).unwrap();
        assert!((960.0..=1000.0).contains(&p99), "{p99}");
    }

    #[test]
    fn histogram_buckets_are_contiguous_and_quantiles_track_the_data() {
        let mut prev_end = 0;
        for i in 0..400 {
            let (lo, w) = LogHist::bucket(i);
            assert_eq!(lo, prev_end, "bucket {i}");
            assert_eq!(LogHist::index(lo), i);
            assert_eq!(LogHist::index(lo + w - 1), i);
            prev_end = lo + w;
        }
        let mut h = LogHist::default();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((p50 / 50_000.0 - 1.0).abs() < 0.07, "{p50}");
        let mut g = LogHist::default();
        g.merge(&h);
        assert_eq!(g.quantile(0.5), h.quantile(0.5));
    }

    #[test]
    fn verdict_at_bound_edges() {
        let base = [100.0; 5];
        // Exactly at the bound is not a regression; just past it is.
        assert_eq!(verdict(&base, &[105.0; 5], true, 0.05), Verdict::Unchanged);
        assert_eq!(verdict(&base, &[105.01; 5], true, 0.05), Verdict::Worse);
        // Same for higher-is-better metrics.
        assert_eq!(verdict(&base, &[95.0; 5], false, 0.05), Verdict::Unchanged);
        assert_eq!(verdict(&base, &[94.99; 5], false, 0.05), Verdict::Worse);
        assert_eq!(verdict(&base, &[110.0; 5], false, 0.05), Verdict::Improved);
        assert_eq!(verdict(&base, &[100.0; 5], false, 0.05), Verdict::Unchanged);
        // Spread wider than the bound: unresolved, unless every candidate
        // sample beats every baseline sample.
        let noisy = [90.0, 95.0, 100.0, 105.0, 110.0];
        assert!(spread(&noisy) > 0.05);
        assert_eq!(
            verdict(&noisy, &[100.0; 5], true, 0.05),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&noisy, &[80.0; 5], true, 0.05), Verdict::Improved);
        // Spread exactly at the bound still resolves.
        let edge = [95.0, 95.0, 100.0, 100.0, 100.0];
        assert_eq!(spread(&edge), 0.05);
        assert_eq!(verdict(&edge, &edge, true, 0.05), Verdict::Unchanged);
    }
}
