//! `exhaustive_align` and commissioning-fit outputs pinned to their bits.
//!
//! The §4.2 sweeps skip cells that geometry proves dark, or (on the RX
//! sweep) unable to beat a reading of the sweep's pilot row, and replay
//! their noise draws later; a wrongly skipped cell, or a change to the draw
//! order, moves a voltage or the power reading. The first four literals
//! were recorded from a search that read every TX-sweep cell and tested
//! every RX-sweep cell on its own; the last three from one that skipped
//! only cells proved to read `+0.0`. Such a change fails here directly
//! rather than only through the `engine_digest` goldens.
//!
//! The K-space and mapping fits reuse per-sample mirror rotations across
//! residual evaluations; the fit pins were recorded from fits that
//! recomputed every rotation, so a reused value that differs from the one
//! a full trace would compute moves a fitted parameter here.

use cyclops_core::alignment::exhaustive_align;
use cyclops_core::deployment::{Deployment, DeploymentConfig};
use cyclops_core::kspace::{train_both, BoardConfig};
use cyclops_core::mapping::{rough_initial_guess, train};
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

/// The benchmark fixture's calibration board: 10×8 two-inch cells.
const BENCH_BOARD: BoardConfig = BoardConfig {
    cols: 10,
    rows: 8,
    cell_m: 0.0508,
};

/// A fit's parameters as bits, and its LM iterations.
type FitPin<const N: usize> = ([u64; N], usize);

fn pose_bits(p: &Pose) -> [u64; 12] {
    let r = p.rot.rows;
    [
        r[0].x, r[0].y, r[0].z, r[1].x, r[1].y, r[1].z, r[2].x, r[2].y, r[2].z, p.trans.x,
        p.trans.y, p.trans.z,
    ]
    .map(f64::to_bits)
}

#[test]
fn kspace_and_mapping_fits_are_pinned() {
    const SEED: u64 = 42;
    let mut dep = Deployment::new(&DeploymentConfig::paper_10g(SEED));
    let (tx_tr, tx_rig, rx_tr, rx_rig) =
        train_both(&dep, &BENCH_BOARD, SEED).expect("stage-1 training");
    let kspace_pin = |fitted: &[f64], iterations: usize| -> FitPin<25> {
        let bits: Vec<u64> = fitted.iter().map(|x| x.to_bits()).collect();
        (bits.try_into().expect("25 parameters"), iterations)
    };
    let tx = kspace_pin(&tx_tr.fitted.to_vec(), tx_tr.report.iterations);
    let rx = kspace_pin(&rx_tr.fitted.to_vec(), rx_tr.report.iterations);

    let (init_tx, init_rx) = rough_initial_guess(&dep, &tx_rig, &rx_rig, 0.05, 0.08, SEED + 7);
    let mt = cyclops_par::with_threads(1, || {
        train(
            &mut dep,
            &tx_tr.fitted,
            &rx_tr.fitted,
            init_tx,
            init_rx,
            12,
            SEED + 9,
        )
    });
    let mut maps = [0u64; 24];
    maps[..12].copy_from_slice(&pose_bits(&mt.trained.tx_map));
    maps[12..].copy_from_slice(&pose_bits(&mt.trained.rx_map));
    let mapping = (maps, mt.trained.report.iterations);

    assert_eq!(tx, KSPACE_TX, "TX K-space fit: got {tx:#x?}");
    assert_eq!(rx, KSPACE_RX, "RX K-space fit: got {rx:#x?}");
    assert_eq!(mapping, MAPPING, "mapping fit: got {mapping:#x?}");
}
/// The TX rig's 25 fitted parameters, and the fit's iterations.
const KSPACE_TX: FitPin<25> = (
    [
        0xbfaef4307eccf338,
        0xbf989917e76f70a0,
        0x3ff83cbd5b24c85d,
        0x3feffe3cb0ac1016,
        0x3f9012be743cd66b,
        0xbf8b72dfd386f0eb,
        0xbfe6610a5d5ed5fe,
        0xbfe6df34e2ca81c9,
        0x3f6e8f061f8c5f34,
        0xbf85258d1de69c20,
        0xbf9736196f9c4418,
        0x3ff8399e48221416,
        0xbf83cd3d5a9f8111,
        0xbf67c552f893bbf7,
        0xbfefff5b96fbd9b5,
        0xbf8f2024b3427d9e,
        0x3fe6bef3e3bd6a3f,
        0xbfe6808c444db460,
        0xbf85136a12ba6739,
        0xbfa24e508395b20b,
        0x3ff83962267b41d4,
        0x3feffdfd60546d50,
        0x3f919b85da967887,
        0xbf8bdaaa2ad69dbc,
        0x3f96550453b30513,
    ],
    10,
);
/// The RX rig's.
const KSPACE_RX: FitPin<25> = (
    [
        0xbfb010f8e07b0375,
        0x3f972c7d31e3f5c9,
        0x3ff793c952e6b8b8,
        0x3fefff6b12b0cdea,
        0x3f7417d3abf3add4,
        0xbf7cb0e86e4b7923,
        0xbfe68bf0990d976c,
        0xbfe6b44b1eb6ef7a,
        0x3f89d0a1aaf733a2,
        0xbf89df53269dcfec,
        0x3f97d2a8f4440460,
        0x3ff790d158fa5e3a,
        0xbf86f8f4a3b7f3fd,
        0xbf65bacd17893112,
        0xbfefff61c6541637,
        0xbf898b8ce96ac95d,
        0x3fe6753a214d9438,
        0xbfe6cab413e78e81,
        0xbf8a0665c7b1054c,
        0x3f85e3dda2af506a,
        0x3ff79124a1588b58,
        0x3fefff2195ce804e,
        0x3f77b993d6af79fe,
        0xbf8ae5dd849df5b1,
        0x3f9655be7b39e814,
    ],
    10,
);
/// `tx_map` then `rx_map`, each as its rotation rows then translation, and
/// the fit's iterations.
const MAPPING: FitPin<24> = (
    [
        0xbfed95bde200e0d2,
        0x3fd34e45d381e053,
        0xbfcdd056310aec76,
        0xbfcdd0c53735773a,
        0xbfedca8e94f2f2de,
        0xbfd1fdc6bf3310e1,
        0xbfd34e1af5f191df,
        0xbfca5285069194e8,
        0x3fedca9586ba5c3b,
        0xbff28a22566d292d,
        0xbfed351806bff265,
        0xbff87a1b28cf8349,
        0xbfef380ccdefdd0d,
        0xbfcbf9469018b588,
        0x3f95ec367f75ab7a,
        0x3fcb080bfa4c141e,
        0xbfeebc5156025a70,
        0xbfc7345ebec680d9,
        0x3faed02de5818ed9,
        0xbfc60f3a2da862cf,
        0x3fef765a6b4f8979,
        0x3f9d5566dbc4b638,
        0x3fcc9072e32df3fd,
        0xbff676f81fd84b51,
    ],
    7,
);
