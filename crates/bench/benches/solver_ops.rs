//! Criterion benchmarks of the numerical substrate: the Levenberg–Marquardt
//! fits behind both training stages and the pattern search behind the
//! exhaustive alignment.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use cyclops::solver::lm::{levenberg_marquardt, LmOptions};
use cyclops::solver::pattern::{pattern_search, PatternOptions};

fn bench_lm(c: &mut Criterion) {
    // An exponential fit of the size class of the 12-parameter mapping fit.
    let ts: Vec<f64> = (0..60).map(|i| i as f64 * 0.1).collect();
    let ys: Vec<f64> = ts
        .iter()
        .map(|t| 2.0 * (-0.7 * t).exp() + 0.1 * t)
        .collect();
    c.bench_function("lm: 3-param curve fit, 120 residuals", |b| {
        b.iter(|| {
            let ts = ts.clone();
            let ys = ys.clone();
            let f = move |p: &[f64]| -> Vec<f64> {
                ts.iter()
                    .zip(&ys)
                    .flat_map(|(t, y)| {
                        let r = p[0] * (p[1] * t).exp() + p[2] * t - y;
                        [r, r * 0.5]
                    })
                    .collect()
            };
            levenberg_marquardt(f, black_box(&[1.0, 0.0, 0.0]), &LmOptions::default()).cost
        })
    });
}

fn bench_pattern(c: &mut Criterion) {
    let f = |x: &[f64]| {
        (-(x[0] - 1.0).powi(2) - (x[1] - 2.0).powi(2)).exp()
            * (-(x[2] + 1.5).powi(2) - (x[3] - 0.5).powi(2)).exp()
    };
    let opts = PatternOptions::uniform(4, -10.0, 10.0, 2.0);
    c.bench_function("pattern: 4-D compass search", |b| {
        b.iter(|| pattern_search(f, black_box(&[0.0; 4]), &opts).value)
    });
}

criterion_group!(benches, bench_lm, bench_pattern);
criterion_main!(benches);
