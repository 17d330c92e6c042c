//! The automated exhaustive alignment search (§4.2).
//!
//! "We leverage the obvious precision of an automated-exhaustive search to
//! optimally align a beam; the exhaustive search finds the optimal
//! combination of the four voltages that maximizes the received power at the
//! RX ... the time taken (1–2 mins) by the search is tolerable."
//!
//! The practical realization (as in the authors' FSONet \[32\]) is
//! multi-resolution:
//!
//! 1. **TX coarse** — sweep the TX voltage pair over the whole coverage cone
//!    watching the *photodiode monitor* (whose basin is centimetres wide,
//!    unlike the fiber's millimetres) until the beam lands on the RX front;
//! 2. **TX refine** — pattern-search the monitor signal to centre the beam;
//! 3. **RX coarse** — sweep the RX voltage pair until the fiber sees light
//!    (the imaginary beam points back at the TX);
//! 4. **joint refine** — 4-D pattern search on received power down to the
//!    DAC step.
//!
//! The search only ever touches hardware observables: the monitor signal and
//! the received power.
//!
//! Most RX coarse cells point the fiber far outside its angular acceptance.
//! A cell that noiseless geometry proves dark reads `+0.0` mW without the
//! coupling physics and without commanding the galvo, yet it still counts
//! in `n_evals`. Its noise draws are replayed before the row's next full
//! reading, so every reading and the argmax are those of the full physics
//! (DESIGN.md §8, "dark-cell bound").

use crate::deployment::{DarkCellBound, Deployment, RX_SWEEP_POINTS};
use cyclops_optics::galvo::{VOLT_MAX, VOLT_MIN};
use cyclops_optics::power::dbm_to_mw;
use cyclops_solver::pattern::{pattern_search, PatternOptions};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Result of an exhaustive alignment.
#[derive(Debug, Clone, Copy)]
pub struct AlignResult {
    /// The four aligning voltages `(v_t1, v_t2, v_r1, v_r2)`.
    pub voltages: [f64; 4],
    /// Received power at the aligned configuration (dBm).
    pub power_dbm: f64,
    /// Total hardware evaluations (power/monitor readings) used.
    pub n_evals: usize,
}

/// Voltage of point `k` of a `points`-point sweep axis over
/// `[VOLT_MIN, VOLT_MAX]`.
fn grid_volts(points: usize, k: usize) -> f64 {
    let step = (VOLT_MAX - VOLT_MIN) / (points - 1) as f64;
    VOLT_MIN + k as f64 * step
}

/// The second-mirror voltages of the RX coarse sweep's columns.
pub(crate) fn rx_sweep_columns() -> [f64; RX_SWEEP_POINTS] {
    std::array::from_fn(|j| grid_volts(RX_SWEEP_POINTS, j))
}

/// One coarse voltage-pair sweep over the full `[VOLT_MIN, VOLT_MAX]²` grid,
/// row-parallel. Returns the first-wins argmax `(v_a, v_b, score)`.
///
/// The simulated hardware is stateful — every reading advances the
/// deployment's noise RNG — so rows cannot share `dep` across threads
/// without making the draw order depend on the schedule. Instead each row
/// scans its own clone whose RNG is reseeded from
/// `mix64(stage_seed, row)`, a pure function of the stage and the row, and
/// rows are folded in index order with a strictly-greater comparison. The
/// result is therefore bit-identical for any thread count, including one
/// (which maps the same row closure in a plain loop).
fn par_voltage_scan<R, C>(
    dep: &Deployment,
    stage_seed: u64,
    points: usize,
    row: R,
) -> (f64, f64, f64)
where
    R: Fn(&Deployment, f64) -> C + Sync,
    C: FnMut(&mut Deployment, usize, f64) -> f64,
{
    let rows =
        cyclops_par::par_map_indexed(points, 1, |i| scan_row(dep, stage_seed, points, i, &row));
    let mut best = (VOLT_MIN, VOLT_MIN, f64::NEG_INFINITY);
    for row in rows {
        if row.2 > best.2 {
            best = row;
        }
    }
    best
}

/// Row `i` of [`par_voltage_scan`] on its reseeded clone of `dep`:
/// `row(clone, v_a)` makes the row's cell reader, which reads column `j`
/// (voltage `v_b`) as `cell(clone, j, v_b)`, in column order. Returns the
/// row's first-wins argmax.
fn scan_row<R, C>(
    dep: &Deployment,
    stage_seed: u64,
    points: usize,
    i: usize,
    row: &R,
) -> (f64, f64, f64)
where
    R: Fn(&Deployment, f64) -> C,
    C: FnMut(&mut Deployment, usize, f64) -> f64,
{
    let mut d = dep.clone();
    *d.rng() = StdRng::seed_from_u64(cyclops_par::mix64(stage_seed, i as u64));
    let va = grid_volts(points, i);
    let mut cell = row(&d, va);
    let mut best = (va, VOLT_MIN, f64::NEG_INFINITY);
    for j in 0..points {
        let vb = grid_volts(points, j);
        let s = cell(&mut d, j, vb);
        if s > best.2 {
            best = (va, vb, s);
        }
    }
    best
}

/// The Stage 3 cell reader for row `va` at TX voltages `vt`: received
/// power in linear mW, so that "no light" is a clean zero.
///
/// A cell `bound` proves dark reads `+0.0` without commanding the galvo or
/// drawing; it only adds to the draws the row owes. Those are replayed just
/// before the next full reading, so that reading sees the RNG state of the
/// full physics. Galvo state after `command` is a pure function of the
/// quantized voltages, so the skipped commands are invisible too. Draws
/// still owed at the end of the row are never made: the row's clone is
/// discarded and nothing reads its RNG again.
fn rx_sweep_row<'b>(
    bound: Option<&'b DarkCellBound>,
    (vt1, vt2): (f64, f64),
    dep: &Deployment,
    va: f64,
) -> impl FnMut(&mut Deployment, usize, f64) -> f64 + 'b {
    let row = bound.and_then(|b| Some((b, b.row_mid(dep, va)?)));
    let mut owed = 0;
    move |d: &mut Deployment, j: usize, vb: f64| {
        if row.is_some_and(|(b, mid)| b.proves_dark(&d.rx, &mid, j)) {
            owed += 1;
            return 0.0;
        }
        d.replay_dark_draws(std::mem::take(&mut owed));
        d.set_voltages(vt1, vt2, va, vb);
        dbm_to_mw(d.received_power_unfloored_dbm())
    }
}

/// Stages 1–2: the TX coarse sweep and refine on the monitor signal.
/// Returns the refined TX voltages and counts its readings into `n_evals`.
fn align_tx(dep: &mut Deployment, n_evals: &mut usize) -> (f64, f64) {
    // Stage 1: TX coarse sweep on the monitor signal (row-parallel).
    let seed_tx = dep.rng().next_u64();
    let (ct1, ct2, _) = par_voltage_scan(dep, seed_tx, 51, |_: &Deployment, a| {
        move |d: &mut Deployment, _: usize, b| {
            let keep = d.voltages();
            d.set_voltages(a, b, keep.2, keep.3);
            d.monitor_signal()
        }
    });
    *n_evals += 51 * 51;

    // Stage 2: TX refine on the monitor signal (serial, on the real rig).
    let mut local = |v: &[f64]| {
        let keep = dep.voltages();
        dep.set_voltages(v[0], v[1], keep.2, keep.3);
        *n_evals += 1;
        dep.monitor_signal()
    };
    let mut opts = PatternOptions::uniform(2, VOLT_MIN, VOLT_MAX, 0.25);
    opts.shrink_tol = 1e-3;
    let refine = pattern_search(&mut local, &[ct1, ct2], &opts);
    (refine.params[0], refine.params[1])
}

/// Runs the §4.2 exhaustive search on the deployment as currently posed.
/// Leaves the galvos commanded to the aligned voltages.
pub fn exhaustive_align(dep: &mut Deployment) -> AlignResult {
    let mut n_evals = 0usize;
    let (vt1, vt2) = align_tx(dep, &mut n_evals);
    dep.set_voltages(vt1, vt2, 0.0, 0.0);

    // Stage 3: RX coarse sweep on received power (row-parallel). Cells the
    // dark-cell bound proves unlit skip the physics; their draws are owed.
    let seed_rx = dep.rng().next_u64();
    let bound = dep.dark_cell_bound(&rx_sweep_columns());
    let (cr1, cr2, _) = par_voltage_scan(dep, seed_rx, RX_SWEEP_POINTS, |d: &Deployment, va| {
        rx_sweep_row(bound.as_ref(), (vt1, vt2), d, va)
    });
    n_evals += RX_SWEEP_POINTS * RX_SWEEP_POINTS;

    // Stage 4: joint 4-D refine on received power, down to the DAC step
    // (serial, on the real rig).
    let dac_step = dep.tx.cfg.dac_step_v.max(1e-5);
    let joint = {
        let mut local = |v: &[f64]| {
            dep.set_voltages(v[0], v[1], v[2], v[3]);
            n_evals += 1;
            dbm_to_mw(dep.received_power_unfloored_dbm())
        };
        let mut opts = PatternOptions::uniform(4, VOLT_MIN, VOLT_MAX, 0.08);
        opts.shrink_tol = dac_step / 0.08;
        opts.max_evals = 20_000;
        pattern_search(&mut local, &[vt1, vt2, cr1, cr2], &opts)
    };

    let v = [
        joint.params[0],
        joint.params[1],
        joint.params[2],
        joint.params[3],
    ];
    dep.set_voltages(v[0], v[1], v[2], v[3]);
    let power_dbm = dep.received_power_dbm();
    AlignResult {
        voltages: v,
        power_dbm,
        n_evals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::{cheat_align, Deployment, DeploymentConfig};
    use crate::mapping::random_placement;
    use cyclops_geom::pose::Pose;
    use cyclops_geom::rotation::axis_angle;
    use cyclops_geom::vec3::v3;
    use cyclops_optics::coupling::LinkDesign;

    #[test]
    fn align_reaches_near_optimal_power() {
        let mut dep = Deployment::new(&DeploymentConfig::paper_10g(42));
        let res = exhaustive_align(&mut dep);
        // Independently find the true optimum.
        let mut dep2 = Deployment::new(&DeploymentConfig::paper_10g(42));
        cheat_align(&mut dep2);
        let best = dep2.received_power_dbm();
        assert!(
            res.power_dbm > best - 1.5,
            "search found {} dBm, optimum ≈ {best} dBm",
            res.power_dbm
        );
        assert!(dep.link_up());
    }

    #[test]
    fn align_works_from_displaced_headset_pose() {
        let mut dep = Deployment::new(&DeploymentConfig::paper_10g(43));
        let pose = Pose::new(
            axis_angle(v3(0.2, 1.0, 0.1).normalized(), 0.15),
            v3(0.15, -0.1, 1.9),
        );
        dep.set_headset_pose(pose);
        let res = exhaustive_align(&mut dep);
        assert!(
            res.power_dbm >= dep.design.sfp.rx_sensitivity_dbm,
            "power {} dBm",
            res.power_dbm
        );
    }

    #[test]
    fn align_result_voltages_are_applied() {
        let mut dep = Deployment::new(&DeploymentConfig::paper_10g(44));
        let res = exhaustive_align(&mut dep);
        let (a, b, c, d) = dep.voltages();
        // Voltages are quantized on application, so compare loosely.
        assert!((a - res.voltages[0]).abs() < 1e-3);
        assert!((b - res.voltages[1]).abs() < 1e-3);
        assert!((c - res.voltages[2]).abs() < 1e-3);
        assert!((d - res.voltages[3]).abs() < 1e-3);
    }

    #[test]
    fn search_uses_bounded_hardware_evaluations() {
        let mut dep = Deployment::new(&DeploymentConfig::paper_10g(45));
        let res = exhaustive_align(&mut dep);
        // 51² + 161² + refines ≈ 30k: "a few minutes" at bench reading
        // rates, per the paper.
        assert!(res.n_evals < 80_000, "{} evals", res.n_evals);
        assert!(
            res.n_evals > 25_000,
            "{} evals (sweeps should dominate)",
            res.n_evals
        );
    }

    /// The registry's 40G-WDM stack (`cyclops_link::registry`, which this
    /// crate cannot depend on): the 10G diverging optics with a 2 dBm CWDM
    /// transmitter.
    fn wdm_40g_design() -> LinkDesign {
        let mut d = LinkDesign::ten_g_diverging(20.0e-3, 1.75);
        d.sfp.tx_power_dbm = 2.0;
        d.sfp.rx_sensitivity_dbm = -21.0;
        d
    }

    /// Every row of the RX coarse sweep at the refined TX voltages: the
    /// sweep's row argmax has the bits of a full-physics scan of the same
    /// row, and the column tables skip exactly the cells the per-cell test
    /// proves dark. Returns the fraction of cells skipped.
    fn rx_rows_match_full_physics(cfg: &DeploymentConfig, placement_seed: u64) -> f64 {
        let mut dep = Deployment::new(cfg);
        let mut rng = StdRng::seed_from_u64(placement_seed);
        dep.set_headset_pose(random_placement(&mut rng, cfg.design.nominal_range));
        let (vt1, vt2) = align_tx(&mut dep, &mut 0);
        dep.set_voltages(vt1, vt2, 0.0, 0.0);
        let columns = rx_sweep_columns();
        let bound = dep
            .dark_cell_bound(&columns)
            .expect("refined TX beam traces");
        let seed = dep.rng().next_u64();
        let full_row = |_: &Deployment, va: f64| {
            move |d: &mut Deployment, _: usize, vb: f64| {
                d.set_voltages(vt1, vt2, va, vb);
                dbm_to_mw(d.received_power_unfloored_dbm())
            }
        };
        let mut skipped = 0usize;
        for i in 0..RX_SWEEP_POINTS {
            let sweep_row = |d: &Deployment, va: f64| rx_sweep_row(Some(&bound), (vt1, vt2), d, va);
            let got = scan_row(&dep, seed, RX_SWEEP_POINTS, i, &sweep_row);
            let want = scan_row(&dep, seed, RX_SWEEP_POINTS, i, &full_row);
            assert_eq!(
                [got.0.to_bits(), got.1.to_bits(), got.2.to_bits()],
                [want.0.to_bits(), want.1.to_bits(), want.2.to_bits()],
                "row {i}: {got:?} vs {want:?}"
            );
            let va = columns[i];
            let mut cell = dep.clone();
            let mid = bound.row_mid(&cell, va);
            for (j, &vb) in columns.iter().enumerate() {
                cell.set_voltages(vt1, vt2, va, vb);
                let table = mid.is_some_and(|m| bound.proves_dark(&cell.rx, &m, j));
                assert_eq!(
                    table,
                    cell.proves_dark_per_cell(&bound),
                    "cell ({va}, {vb})"
                );
                skipped += usize::from(table);
            }
        }
        skipped as f64 / (RX_SWEEP_POINTS * RX_SWEEP_POINTS) as f64
    }

    #[test]
    fn dark_cell_rows_are_bit_identical_across_designs_and_noise() {
        let designs = [
            LinkDesign::ten_g_diverging(20.0e-3, 1.75),
            LinkDesign::twenty_five_g(20.0e-3, 1.75),
            wdm_40g_design(),
        ];
        for (k, design) in designs.into_iter().enumerate() {
            for noise_scale in [1.0, 10.0] {
                let mut cfg = DeploymentConfig::paper_10g(50 + k as u64);
                cfg.design = design;
                cfg.galvo_cfg.angle_noise_rad *= noise_scale;
                for placement in 0..4 {
                    let rate = rx_rows_match_full_physics(&cfg, 100 * k as u64 + placement);
                    if k == 0 && noise_scale == 1.0 {
                        // paper_10g: the bound must keep firing.
                        assert!(rate >= 0.9, "skip rate {rate} on paper_10g");
                    }
                }
            }
        }
    }

    #[test]
    fn aligned_beams_satisfy_lemma1() {
        let mut dep = Deployment::new(&DeploymentConfig::paper_10g(46));
        exhaustive_align(&mut dep);
        let lp = dep.lemma_points().unwrap();
        // The search maximizes power; by Lemma 1 the coincidence gap must be
        // small (within the beam geometry scale).
        assert!(lp.gap() < 5e-3, "lemma gap {} m", lp.gap());
    }
}
