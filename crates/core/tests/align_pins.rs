//! `exhaustive_align` outputs pinned to their bits.
//!
//! The §4.2 sweeps skip cells that geometry proves dark, or (on the RX
//! sweep) unable to beat a reading of the sweep's pilot row, and replay
//! their noise draws later; a wrongly skipped cell, or a change to the draw
//! order, moves a voltage or the power reading. The first four literals
//! were recorded from a search that read every TX-sweep cell and tested
//! every RX-sweep cell on its own; the last three from one that skipped
//! only cells proved to read `+0.0`. Such a change fails here directly
//! rather than only through the `engine_digest` goldens.

use cyclops_core::alignment::exhaustive_align;
use cyclops_core::deployment::{Deployment, DeploymentConfig};
use cyclops_geom::pose::Pose;
use cyclops_geom::rotation::axis_angle;
use cyclops_geom::vec3::v3;
use cyclops_optics::galvo::GalvoSimConfig;

/// `(v_t1, v_t2, v_r1, v_r2, power_dbm)` as bits, and `n_evals`.
type Pin = ([u64; 5], usize);

fn pin_of(mut dep: Deployment) -> Pin {
    let res = cyclops_par::with_threads(1, || exhaustive_align(&mut dep));
    let v = res.voltages.map(f64::to_bits);
    (
        [v[0], v[1], v[2], v[3], res.power_dbm.to_bits()],
        res.n_evals,
    )
}

fn check(name: &str, cfg: &DeploymentConfig, want: Pin) {
    check_dep(name, Deployment::new(cfg), want);
}

fn check_dep(name: &str, dep: Deployment, want: Pin) {
    let got = pin_of(dep);
    assert_eq!(
        got,
        want,
        "{name}: got {got:#x?} (voltages {:?}, power {} dBm)",
        &got.0[..4]
            .iter()
            .map(|&b| f64::from_bits(b))
            .collect::<Vec<_>>(),
        f64::from_bits(got.0[4])
    );
}

#[test]
fn paper_10g_alignment_is_pinned() {
    check("paper_10g(42)", &DeploymentConfig::paper_10g(42), PAPER_10G);
}

#[test]
fn paper_25g_alignment_is_pinned() {
    check("paper_25g(42)", &DeploymentConfig::paper_25g(42), PAPER_25G);
}

#[test]
fn noiseless_alignment_is_pinned() {
    // Ideal galvos and no power noise: a dark cell owes no draws.
    let mut cfg = DeploymentConfig::paper_10g(42);
    cfg.galvo_cfg = GalvoSimConfig::ideal();
    cfg.power_noise_db = 0.0;
    check("noiseless paper_10g(42)", &cfg, NOISELESS);
}

#[test]
fn noisy_galvo_alignment_is_pinned() {
    // Ten times the galvo positioning noise widens every jitter margin.
    let mut cfg = DeploymentConfig::paper_10g(42);
    cfg.galvo_cfg.angle_noise_rad *= 10.0;
    check("10x galvo noise paper_10g(42)", &cfg, NOISY_GALVO);
}

#[test]
fn noisy_power_alignment_is_pinned() {
    // Ten times the power-meter noise widens the noise term of the RX
    // sweep's bound.
    let mut cfg = DeploymentConfig::paper_10g(42);
    cfg.power_noise_db *= 10.0;
    check("10x power noise paper_10g(42)", &cfg, NOISY_POWER);
}

#[test]
fn displaced_headset_alignment_is_pinned() {
    // The pose of `align_works_from_displaced_headset_pose`: both sweeps,
    // and with the RX sweep its pilot row, peak far from where they do at
    // the nominal pose.
    let mut dep = Deployment::new(&DeploymentConfig::paper_10g(43));
    dep.set_headset_pose(Pose::new(
        axis_angle(v3(0.2, 1.0, 0.1).normalized(), 0.15),
        v3(0.15, -0.1, 1.9),
    ));
    check_dep("displaced paper_10g(43)", dep, DISPLACED);
}

#[test]
fn noisy_galvo_25g_alignment_is_pinned() {
    let mut cfg = DeploymentConfig::paper_25g(42);
    cfg.galvo_cfg.angle_noise_rad *= 10.0;
    check("10x galvo noise paper_25g(42)", &cfg, NOISY_GALVO_25G);
}

const PAPER_10G: Pin = (
    [
        0xbfdf7b851eb851d2,
        0x3fd0c999999999a0,
        0xbff850a3d70a3d71,
        0xbfd947ae147ae147,
        0xc024f8c1550ed744,
    ],
    28704,
);
const PAPER_25G: Pin = (
    [
        0xbfdf299999999980,
        0x3fd0c999999999a0,
        0xbff8a3d70a3d70a4,
        0xbfda8f5c28f5c28f,
        0xc020d0b647607a93,
    ],
    28688,
);
const NOISELESS: Pin = (
    [
        0xbfdeb947ae147ac9,
        0x3fd10ae147ae1480,
        0xbff8335c28f5c28f,
        0xbfd9dccccccccccc,
        0xc02427eab8782ece,
    ],
    28868,
);
const NOISY_GALVO: Pin = (
    [
        0xbfddf5c28f5c28dc,
        0x3fd19999999999a0,
        0xbff851eb851eb852,
        0xbfd9eb851eb851eb,
        0xc02444eff2a5b730,
    ],
    28704,
);
const NOISY_POWER: Pin = (
    [
        0xbfdf299999999980,
        0x3fd0c999999999a0,
        0xbff851eb851eb852,
        0xbfd8000000000000,
        0xc029146c351c5093,
    ],
    28680,
);
const DISPLACED: Pin = (
    [
        0xc0040a3333333332,
        0x3ffa7999999999a0,
        0x3fe2b851eb851eb8,
        0xbfd947ae147ae147,
        0xc025ee4dd169eb6f,
    ],
    28696,
);
const NOISY_GALVO_25G: Pin = (
    [
        0xbfde8f5c28f5c276,
        0x3fd19999999999a0,
        0xbff8a3d70a3d70a4,
        0xbfda8f5c28f5c28f,
        0xc0206ec64b1f2539,
    ],
    28672,
);
