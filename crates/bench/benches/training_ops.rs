//! Criterion benchmarks of the (offline) training stages — the costs the
//! paper quotes qualitatively: K-space fitting (pre-deployment), one
//! exhaustive alignment ("1–2 mins" of bench time; here: hardware
//! evaluations), and the 12-parameter mapping fit.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use cyclops::core::alignment::exhaustive_align;
use cyclops::core::deployment::{Deployment, DeploymentConfig};
use cyclops::core::kspace::{self, BoardConfig, KspaceRig};
use cyclops::core::mapping;
use cyclops::optics::galvo::{GalvoSim, GalvoSimConfig};
use cyclops::prelude::*;

fn bench_kspace_fit(c: &mut Criterion) {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
    let truth = GalvoParams::nominal().perturbed(&mut rng, 1.0, 1.0, 0.02);
    let mut rig = KspaceRig::standard(GalvoSim::new(truth, GalvoSimConfig::default()), 1);
    let init = rig.cad_initial_guess();
    let samples = rig.collect_samples(&BoardConfig::default());
    c.bench_function("training: K-space fit (266 samples, 25 params)", |b| {
        b.iter(|| kspace::fit(&samples, &init).expect("fit").train_error.mean)
    });
}

fn bench_exhaustive_align(c: &mut Criterion) {
    let mut group = c.benchmark_group("training");
    group.sample_size(10);
    // The 25G design's wider acceptance lights more of the RX sweep, so its
    // full readings set the floor the dark-cell skip cannot remove.
    for (name, cfg) in [
        (
            "exhaustive 4-voltage alignment",
            DeploymentConfig::paper_10g(2),
        ),
        (
            "exhaustive 4-voltage alignment (25G)",
            DeploymentConfig::paper_25g(2),
        ),
    ] {
        let dep = Deployment::new(&cfg);
        group.bench_function(name, |b| {
            b.iter_batched(
                || dep.clone(),
                |mut d| exhaustive_align(&mut d).power_dbm,
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_mapping_fit(c: &mut Criterion) {
    // Prepare one full training context, then benchmark only the 12-param fit.
    let seed = 3u64;
    let mut dep = Deployment::new(&DeploymentConfig::paper_10g(seed));
    let (tx_tr, tx_rig, rx_tr, rx_rig) =
        kspace::train_both(&dep, &BoardConfig::default(), seed).expect("stage-1 training");
    let (init_tx, init_rx) =
        mapping::rough_initial_guess(&dep, &tx_rig, &rx_rig, 0.05, 0.08, seed + 7);
    let samples = mapping::collect_samples(&mut dep, 30, seed + 9);
    c.bench_function("training: 12-parameter mapping fit (30 samples)", |b| {
        b.iter(|| {
            mapping::fit(&tx_tr.fitted, &rx_tr.fitted, &samples, init_tx, init_rx)
                .report
                .cost
        })
    });
}

criterion_group!(
    benches,
    bench_kspace_fit,
    bench_exhaustive_align,
    bench_mapping_fit
);
criterion_main!(benches);
