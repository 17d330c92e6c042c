//! Serial/parallel equivalence of the training hot paths.
//!
//! The alignment grids and the mapping-sample collection parallelize over
//! per-row / per-attempt deployment clones whose noise RNGs are reseeded by
//! a pure function of (stage seed, item index) — never shared — so the
//! results must be bit-identical at any pool width, one thread (the plain
//! serial loop) included.

use cyclops_core::alignment::{exhaustive_align, AlignResult};
use cyclops_core::deployment::{Deployment, DeploymentConfig};
use cyclops_core::mapping::{collect_samples, MappingSample};
use cyclops_optics::galvo::GalvoSimConfig;

fn align_at(threads: usize, seed: u64) -> AlignResult {
    cyclops_par::with_threads(threads, || {
        let mut dep = Deployment::new(&DeploymentConfig::paper_10g(seed));
        exhaustive_align(&mut dep)
    })
}

fn align_cfg_at(threads: usize, cfg: &DeploymentConfig) -> AlignResult {
    cyclops_par::with_threads(threads, || exhaustive_align(&mut Deployment::new(cfg)))
}

fn assert_align_eq(a: &AlignResult, b: &AlignResult, ctx: &str) {
    for k in 0..4 {
        assert_eq!(
            a.voltages[k].to_bits(),
            b.voltages[k].to_bits(),
            "{ctx}: voltage {k} differs: {} vs {}",
            a.voltages[k],
            b.voltages[k]
        );
    }
    assert_eq!(a.power_dbm.to_bits(), b.power_dbm.to_bits(), "{ctx}: power");
    assert_eq!(a.n_evals, b.n_evals, "{ctx}: n_evals");
}

#[test]
fn exhaustive_align_invariant_to_thread_count() {
    for seed in [42, 77] {
        let reference = align_at(1, seed);
        for threads in [2, 3, 8] {
            let res = align_at(threads, seed);
            assert_align_eq(&res, &reference, &format!("seed {seed}, threads {threads}"));
        }
    }
    // The 25G design, with ~23 % of the RX sweep lit; a noiseless bench,
    // where a dark cell owes no draws; and ten times the galvo noise,
    // which widens both sweeps' jitter slack.
    let mut noiseless = DeploymentConfig::paper_10g(42);
    noiseless.galvo_cfg = GalvoSimConfig::ideal();
    noiseless.power_noise_db = 0.0;
    let mut noisy = DeploymentConfig::paper_25g(42);
    noisy.galvo_cfg.angle_noise_rad *= 10.0;
    for (name, cfg) in [
        ("paper_25g(42)", DeploymentConfig::paper_25g(42)),
        ("noiseless", noiseless),
        ("paper_25g(42), 10x galvo noise", noisy),
    ] {
        let reference = align_cfg_at(1, &cfg);
        for threads in [2, 3, 8] {
            let res = align_cfg_at(threads, &cfg);
            assert_align_eq(&res, &reference, &format!("{name}, threads {threads}"));
        }
    }
}

fn assert_samples_eq(a: &[MappingSample], b: &[MappingSample], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: sample count");
    for (i, (sa, sb)) in a.iter().zip(b).enumerate() {
        for k in 0..4 {
            assert_eq!(
                sa.voltages[k].to_bits(),
                sb.voltages[k].to_bits(),
                "{ctx}: sample {i} voltage {k}"
            );
        }
        let (qa, qb) = (sa.reported.quat(), sb.reported.quat());
        for (va, vb) in [
            (qa.w, qb.w),
            (qa.x, qb.x),
            (qa.y, qb.y),
            (qa.z, qb.z),
            (sa.reported.trans.x, sb.reported.trans.x),
            (sa.reported.trans.y, sb.reported.trans.y),
            (sa.reported.trans.z, sb.reported.trans.z),
        ] {
            assert_eq!(va.to_bits(), vb.to_bits(), "{ctx}: sample {i} pose");
        }
    }
}

#[test]
fn sample_collection_invariant_to_thread_count() {
    let base = Deployment::new(&DeploymentConfig::paper_10g(7));
    let reference = cyclops_par::with_threads(1, || collect_samples(&mut base.clone(), 3, 99));
    assert!(reference.len() >= 2, "fixture should close the link");
    for threads in [2, 5] {
        let got = cyclops_par::with_threads(threads, || collect_samples(&mut base.clone(), 3, 99));
        assert_samples_eq(&got, &reference, &format!("threads {threads}"));
    }
}

#[test]
fn sample_collection_invariant_to_thread_count_25g() {
    // The 25G design's wider acceptance lights more of both sweeps.
    let base = Deployment::new(&DeploymentConfig::paper_25g(7));
    let reference = cyclops_par::with_threads(1, || collect_samples(&mut base.clone(), 3, 99));
    assert!(reference.len() >= 2, "fixture should close the link");
    for threads in [2, 5] {
        let got = cyclops_par::with_threads(threads, || collect_samples(&mut base.clone(), 3, 99));
        assert_samples_eq(&got, &reference, &format!("25G, threads {threads}"));
    }
}
