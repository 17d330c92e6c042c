//! Serial/parallel equivalence of the training hot paths.
//!
//! The alignment grids and the mapping-sample collection parallelize over
//! per-row / per-attempt deployment clones whose noise RNGs are reseeded by
//! a pure function of (stage seed, item index) — never shared — and the
//! Levenberg–Marquardt fits split their Jacobian columns across workers,
//! so the results must be bit-identical at any pool width, one thread (the
//! plain serial loop) included.

use cyclops_core::alignment::{exhaustive_align, AlignResult};
use cyclops_core::deployment::{Deployment, DeploymentConfig};
use cyclops_core::kspace::{self, BoardConfig, KspaceRig};
use cyclops_core::mapping::{self, collect_samples, MappingSample};
use cyclops_geom::pose::Pose;
use cyclops_geom::rotation::axis_angle;
use cyclops_geom::vec3::v3;
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
    // A displaced headset, whose sweeps, and with the RX sweep its pilot
    // row, peak far from where they do at the nominal pose.
    let displaced = |threads: usize| {
        cyclops_par::with_threads(threads, || {
            let mut dep = Deployment::new(&DeploymentConfig::paper_10g(43));
            dep.set_headset_pose(Pose::new(
                axis_angle(v3(0.2, 1.0, 0.1).normalized(), 0.15),
                v3(0.15, -0.1, 1.9),
            ));
            exhaustive_align(&mut dep)
        })
    };
    let reference = displaced(1);
    for threads in [2, 3, 8] {
        let res = displaced(threads);
        assert_align_eq(&res, &reference, &format!("displaced, threads {threads}"));
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

/// `{:?}` prints each float in its shortest round-trip form, so equal text
/// means equal bits for every non-NaN field.
fn assert_same_debug<T: std::fmt::Debug>(got: &T, want: &T, ctx: &str) {
    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{ctx}");
}

#[test]
fn kspace_fit_invariant_to_thread_count() {
    // Stage 1 end to end: fitted params, the LM report (cost included) and
    // the board-plane error statistics.
    let dep = Deployment::new(&DeploymentConfig::paper_10g(71));
    let mut rig = KspaceRig::standard(dep.tx.clone(), 72);
    let init = rig.cad_initial_guess();
    let samples = rig.collect_samples(&BoardConfig::default());
    let fit_at = |threads: usize| {
        cyclops_par::with_threads(threads, || {
            kspace::fit(&samples, &init).expect("stage-1 fit")
        })
    };
    let reference = fit_at(1);
    for threads in [2, 3, 8] {
        assert_same_debug(&fit_at(threads), &reference, &format!("threads {threads}"));
    }
}

#[test]
fn mapping_train_invariant_to_thread_count() {
    // Stage 2 end to end: placement collection and the 12-parameter fit,
    // so the samples (and their count), the LM report and both trained
    // maps.
    let dep = Deployment::new(&DeploymentConfig::paper_10g(73));
    let (tx_tr, tx_rig, rx_tr, rx_rig) =
        kspace::train_both(&dep, &BoardConfig::default(), 73).expect("stage-1 training");
    let (init_tx, init_rx) = mapping::rough_initial_guess(&dep, &tx_rig, &rx_rig, 0.05, 0.08, 80);
    let train_at = |threads: usize| {
        cyclops_par::with_threads(threads, || {
            let mut dep = dep.clone();
            let mt = mapping::train(
                &mut dep,
                &tx_tr.fitted,
                &rx_tr.fitted,
                init_tx,
                init_rx,
                8,
                81,
            );
            (mt.trained, mt.samples)
        })
    };
    let reference = train_at(1);
    for threads in [2, 3, 8] {
        assert_same_debug(
            &train_at(threads),
            &reference,
            &format!("threads {threads}"),
        );
    }
}
