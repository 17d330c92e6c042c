//! `exhaustive_align` outputs pinned to their bits.
//!
//! The §4.2 sweeps skip cells that geometry proves dark and replay their
//! noise draws later; a skipped lit cell, or a change to the draw order,
//! moves a voltage or the power reading. The literals were recorded from a
//! search that read every TX-sweep cell and tested every RX-sweep cell on
//! its own, so such a change fails here directly rather than only through
//! the `engine_digest` goldens.

use cyclops_core::alignment::exhaustive_align;
use cyclops_core::deployment::{Deployment, DeploymentConfig};
use cyclops_optics::galvo::GalvoSimConfig;

/// `(v_t1, v_t2, v_r1, v_r2, power_dbm)` as bits, and `n_evals`.
type Pin = ([u64; 5], usize);

fn pin_of(cfg: &DeploymentConfig) -> Pin {
    let res = cyclops_par::with_threads(1, || exhaustive_align(&mut Deployment::new(cfg)));
    let v = res.voltages.map(f64::to_bits);
    (
        [v[0], v[1], v[2], v[3], res.power_dbm.to_bits()],
        res.n_evals,
    )
}

fn check(name: &str, cfg: &DeploymentConfig, want: Pin) {
    let got = pin_of(cfg);
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
