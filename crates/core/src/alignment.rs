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
//! Most coarse cells are dark: the TX sweep lands the beam metres off the
//! monitor, and the RX sweep points the fiber far outside its angular
//! acceptance. A cell that noiseless geometry proves dark reads `+0.0`
//! without the physics and without commanding the galvo, yet it still
//! counts in `n_evals`. The RX sweep also skips, the same way, every cell
//! it proves to read below the best reading of one pilot row of its own:
//! such a cell cannot be the sweep's argmax. A skipped cell's noise draws
//! are replayed before the row's next full reading, so every full reading,
//! the argmax, `n_evals` and every draw a later reading sees are those of
//! the full physics. A skipped cell's margin, over a bound on how fast the
//! geometry moves per column, also clears the next columns of its row with
//! the one test (DESIGN.md §8, "dark-cell bound", "monitor bound", "run
//! bound" and "cannot-win bound").

use crate::deployment::{
    DarkCellBound, DarkRow, DarkSweep, Deployment, DARK_DBM, RX_SWEEP_POINTS, TX_SWEEP_POINTS,
};
use cyclops_optics::galvo::{VOLT_MAX, VOLT_MIN};
use cyclops_optics::power::{dbm_to_mw, mw_to_dbm};
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

/// The second-mirror voltages of an `N`-point coarse sweep's columns.
pub(crate) fn sweep_columns<const N: usize>() -> [f64; N] {
    std::array::from_fn(|j| grid_volts(N, j))
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

/// A coarse-sweep cell reader for row `va` that reads `full(d, v_b)`
/// except where `bound` proves the reading `+0.0`.
///
/// A proved-dark cell reads `+0.0` without commanding the galvo or
/// drawing; it only adds to the draws the row owes. Those are replayed just
/// before the next full reading, so that reading sees the RNG state of the
/// full physics. Galvo state after `command` is a pure function of the
/// quantized voltages, so the skipped commands are invisible too. Draws
/// still owed at the end of the row are never made: the row's clone is
/// discarded and nothing reads its RNG again.
fn skipping_row<'b, B: DarkSweep>(
    bound: Option<&'b B>,
    dep: &Deployment,
    va: f64,
    mut full: impl FnMut(&mut Deployment, f64) -> f64 + 'b,
) -> impl FnMut(&mut Deployment, usize, f64) -> f64 + 'b {
    let mut row = bound.and_then(|b| DarkRow::new(b, dep, va));
    let mut owed = 0;
    move |d: &mut Deployment, j: usize, vb: f64| {
        if row.as_mut().is_some_and(|r| r.skips(j)) {
            owed += 1;
            return 0.0;
        }
        B::replay(d, std::mem::take(&mut owed));
        full(d, vb)
    }
}

/// The Stage 1 reading of TX voltages `(va, vb)`: the monitor signal, with
/// the RX left where it is.
fn monitor_reading(va: f64) -> impl FnMut(&mut Deployment, f64) -> f64 {
    move |d: &mut Deployment, vb: f64| {
        let keep = d.voltages();
        d.set_voltages(va, vb, keep.2, keep.3);
        d.monitor_signal()
    }
}

/// The Stage 3 reading of RX voltages `(va, vb)` at TX voltages `vt`:
/// received power in linear mW, so that "no light" is a clean zero.
fn power_reading((vt1, vt2): (f64, f64), va: f64) -> impl FnMut(&mut Deployment, f64) -> f64 {
    move |d: &mut Deployment, vb: f64| {
        d.set_voltages(vt1, vt2, va, vb);
        dbm_to_mw(d.received_power_unfloored_dbm())
    }
}

/// How far (dB) below the pilot row's best reading the cannot-win bound's
/// floor sits. It covers the rounding of `mw_to_dbm`, `dbm_to_mw` and the
/// coupling sum, all below 1e-12 dB, with room to spare.
const WIN_SLACK_DB: f64 = 0.1;

/// The floor of the Stage 3 sweep's cannot-win bound at TX voltages `vt`:
/// [`WIN_SLACK_DB`] below `L`, the best reading of the sweep's pilot row
/// ([`DarkCellBound::pilot_row`]). The row is scanned exactly as the sweep
/// scans it (the same reseeded clone, the dark bound and its replay), so
/// `L` is one of the sweep's own readings. `None` unless `L` is a positive
/// normal number: below that, `dbm_to_mw` rounds too coarsely for a
/// reading under the floor to stay under `L`.
fn cannot_win_floor(
    dep: &Deployment,
    dark: &DarkCellBound,
    seed_rx: u64,
    vt: (f64, f64),
) -> Option<f64> {
    let pilot = dark.pilot_row(dep, &sweep_columns());
    let row = |d: &Deployment, va| skipping_row(Some(dark), d, va, power_reading(vt, va));
    let (_, _, best) = scan_row(dep, seed_rx, RX_SWEEP_POINTS, pilot, &row);
    (best >= f64::MIN_POSITIVE).then(|| mw_to_dbm(best) - WIN_SLACK_DB)
}

/// The Stage 3 sweep's skip bound at TX voltages `vt`: the cannot-win
/// bound, or the dark bound when [`cannot_win_floor`] has no floor; `None`
/// when the noiseless TX beam path is broken.
///
/// A cannot-win cell reads below `L`, and `L` is at most the sweep's
/// maximum `M`. Reading it as `+0.0` can only lower a row's best, so a row
/// whose best is below `M` stays below it. In a row that reaches `M`, the
/// first cell reading `M` is never skipped and every cell before it still
/// reads below `M`. Both folds take a strictly greater score, so the
/// argmax is unchanged; `n_evals` counts every cell either way.
fn rx_sweep_bound(dep: &Deployment, seed_rx: u64, vt: (f64, f64)) -> Option<DarkCellBound> {
    let columns = sweep_columns();
    let dark = dep.dark_cell_bound(&columns, DARK_DBM)?;
    match cannot_win_floor(dep, &dark, seed_rx, vt) {
        Some(floor) => dep.dark_cell_bound(&columns, floor),
        None => Some(dark),
    }
}

/// Stages 1–2: the TX coarse sweep and refine on the monitor signal.
/// Returns the refined TX voltages and counts its readings into `n_evals`.
fn align_tx(dep: &mut Deployment, n_evals: &mut usize) -> (f64, f64) {
    // Stage 1: TX coarse sweep on the monitor signal (row-parallel). Cells
    // the monitor bound proves unlit skip the physics; their draws are owed.
    let seed_tx = dep.rng().next_u64();
    let bound = dep.monitor_dark_bound(&sweep_columns());
    let (ct1, ct2, _) = par_voltage_scan(dep, seed_tx, TX_SWEEP_POINTS, |d: &Deployment, va| {
        skipping_row(Some(&bound), d, va, monitor_reading(va))
    });
    *n_evals += TX_SWEEP_POINTS * TX_SWEEP_POINTS;

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
    let vt = align_tx(dep, &mut n_evals);
    dep.set_voltages(vt.0, vt.1, 0.0, 0.0);
    let seed_rx = dep.rng().next_u64();
    let bound = rx_sweep_bound(dep, seed_rx, vt);
    align_rx(dep, seed_rx, vt, bound.as_ref(), n_evals)
}

/// Stages 3–4 at the refined TX voltages `vt`, after `n_evals` readings:
/// the RX coarse sweep from `seed_rx`, skipping the cells `bound` proves,
/// then the joint refine. Leaves the galvos commanded to the aligned
/// voltages.
fn align_rx(
    dep: &mut Deployment,
    seed_rx: u64,
    (vt1, vt2): (f64, f64),
    bound: Option<&DarkCellBound>,
    mut n_evals: usize,
) -> AlignResult {
    // Stage 3: RX coarse sweep on received power (row-parallel). Skipped
    // cells owe their draws.
    let (cr1, cr2, _) = par_voltage_scan(dep, seed_rx, RX_SWEEP_POINTS, |d: &Deployment, va| {
        skipping_row(bound, d, va, power_reading((vt1, vt2), va))
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

    /// Every row of a `points`² coarse sweep on `dep`, whose full reading
    /// of row `va` is `reading(va)` and which commands cell `(va, vb)` as
    /// `command`: the skipping row's argmax has the bits of a full-physics
    /// scan of the same row; each cell's own test agrees with the per-cell
    /// reference `per_cell`; and every cell the row skips, by its own test
    /// or inside a run, is one the reference proves dark. Returns the
    /// fractions of cells skipped and of cells tested.
    fn rows_match_full_physics<B, F>(
        dep: &Deployment,
        bound: &B,
        points: usize,
        reading: impl Fn(f64) -> F,
        command: impl Fn(&mut Deployment, f64, f64),
        per_cell: impl Fn(&Deployment, &B) -> bool,
    ) -> (f64, f64)
    where
        B: DarkSweep,
        F: FnMut(&mut Deployment, f64) -> f64,
    {
        let seed = dep.clone().rng().next_u64();
        let sweep_row = |d: &Deployment, va: f64| skipping_row(Some(bound), d, va, reading(va));
        let full_row = |_: &Deployment, va: f64| {
            let mut full = reading(va);
            move |d: &mut Deployment, _: usize, vb: f64| full(d, vb)
        };
        let (mut skipped, mut tested) = (0usize, 0usize);
        for i in 0..points {
            let got = scan_row(dep, seed, points, i, &sweep_row);
            let want = scan_row(dep, seed, points, i, &full_row);
            assert_eq!(
                [got.0.to_bits(), got.1.to_bits(), got.2.to_bits()],
                [want.0.to_bits(), want.1.to_bits(), want.2.to_bits()],
                "row {i}: {got:?} vs {want:?}"
            );
            let va = grid_volts(points, i);
            let mut cell = dep.clone();
            let row = bound.row(&cell, va);
            let mut walk = DarkRow::new(bound, &cell, va);
            for j in 0..points {
                let vb = grid_volts(points, j);
                command(&mut cell, va, vb);
                let reference = per_cell(&cell, bound);
                let own = bound.column_skippable(j)
                    && row.is_some_and(|r| bound.dark_run(&r, j).is_some());
                assert_eq!(own, reference, "cell ({va}, {vb})");
                let run_end = walk.as_ref().map_or(usize::MAX, |w| w.run_end());
                tested += usize::from(bound.column_skippable(j) && j >= run_end);
                if walk.as_mut().is_some_and(|w| w.skips(j)) {
                    assert!(reference, "skipped cell ({va}, {vb}) is not proved dark");
                    skipped += 1;
                }
            }
        }
        let cells = (points * points) as f64;
        (skipped as f64 / cells, tested as f64 / cells)
    }

    /// The Stage 1 sweep of `dep` as posed: `(skipped, tested)` fractions.
    fn tx_rows_match_full_physics(dep: &Deployment) -> (f64, f64) {
        let bound = dep.monitor_dark_bound(&sweep_columns());
        rows_match_full_physics(
            dep,
            &bound,
            TX_SWEEP_POINTS,
            monitor_reading,
            |d, va, vb| {
                let keep = d.voltages();
                d.set_voltages(va, vb, keep.2, keep.3);
            },
            |d, b| d.monitor_dark_per_cell(b),
        )
    }

    /// The Stage 3 sweep of `dep` at its refined TX voltages.
    fn rx_rows_match_full_physics(dep: &mut Deployment) -> (f64, f64) {
        let (vt1, vt2) = align_tx(dep, &mut 0);
        dep.set_voltages(vt1, vt2, 0.0, 0.0);
        let bound = dep
            .dark_cell_bound(&sweep_columns(), DARK_DBM)
            .expect("refined TX beam traces");
        rows_match_full_physics(
            dep,
            &bound,
            RX_SWEEP_POINTS,
            |va| power_reading((vt1, vt2), va),
            |d, va, vb| {
                d.set_voltages(vt1, vt2, va, vb);
            },
            |d, b| d.proves_dark_per_cell(b),
        )
    }

    #[test]
    fn dark_cell_rows_are_bit_identical_across_designs_and_noise() {
        let designs = [
            LinkDesign::ten_g_diverging(20.0e-3, 1.75),
            LinkDesign::twenty_five_g(20.0e-3, 1.75),
            wdm_40g_design(),
        ];
        for (k, design) in designs.into_iter().enumerate() {
            for noise_scale in [0.0, 1.0, 10.0] {
                let mut cfg = DeploymentConfig::paper_10g(50 + k as u64);
                cfg.design = design;
                cfg.galvo_cfg.angle_noise_rad *= noise_scale;
                for placement in 0..4 {
                    let mut dep = Deployment::new(&cfg);
                    let mut rng = StdRng::seed_from_u64(100 * k as u64 + placement);
                    dep.set_headset_pose(random_placement(&mut rng, cfg.design.nominal_range));
                    let tx = tx_rows_match_full_physics(&dep);
                    let rx = rx_rows_match_full_physics(&mut dep);
                    if k == 0 && noise_scale == 1.0 {
                        // paper_10g: the bounds must keep firing, and the
                        // runs must spare most of the tests.
                        assert!(tx.0 >= 0.9 && rx.0 >= 0.9, "skip rates {tx:?} {rx:?}");
                        assert!(tx.1 <= 0.4 && rx.1 <= 0.15, "test rates {tx:?} {rx:?}");
                    }
                }
            }
        }
    }

    /// The Stage 3 sweep of `dep` at TX voltages `vt` under the bound
    /// `exhaustive_align` builds. Checks that the floor sits below `L`, the
    /// pilot row's full-physics best; that every cell a row skips reads
    /// below `L` in full physics (`+0.0` on the dark fallback); that every
    /// row whose best reaches `L` keeps its bits; and that Stages 3–4 give
    /// the bits and `n_evals` of a sweep that skips nothing. Returns `L`
    /// and the fraction of cells skipped.
    fn cannot_win_sweep_is_sound(dep: &Deployment, vt: (f64, f64)) -> (f64, f64) {
        const N: usize = RX_SWEEP_POINTS;
        let mut dep = dep.clone();
        dep.set_voltages(vt.0, vt.1, 0.0, 0.0);
        let seed = dep.rng().next_u64();
        let dark = dep
            .dark_cell_bound(&sweep_columns(), DARK_DBM)
            .expect("TX beam traces");
        let floor = cannot_win_floor(&dep, &dark, seed, vt);
        let bound = rx_sweep_bound(&dep, seed, vt).expect("TX beam traces");

        let readings = std::cell::RefCell::new(Vec::with_capacity(N));
        let recording = |_: &Deployment, va: f64| {
            let mut full = power_reading(vt, va);
            let readings = &readings;
            move |d: &mut Deployment, _: usize, vb: f64| {
                let r = full(d, vb);
                readings.borrow_mut().push(r);
                r
            }
        };
        let pruned =
            |d: &Deployment, va: f64| skipping_row(Some(&bound), d, va, power_reading(vt, va));
        let rows: Vec<_> = (0..N)
            .map(|i| {
                readings.borrow_mut().clear();
                let want = scan_row(&dep, seed, N, i, &recording);
                let got = scan_row(&dep, seed, N, i, &pruned);
                (want, got, readings.borrow().clone())
            })
            .collect();
        let l = rows[dark.pilot_row(&dep, &sweep_columns())].0 .2;
        assert_eq!(
            floor,
            (l >= f64::MIN_POSITIVE).then(|| mw_to_dbm(l) - WIN_SLACK_DB),
            "the pilot scan's best is the pilot row's full-physics best"
        );

        let bits = |c: (f64, f64, f64)| [c.0.to_bits(), c.1.to_bits(), c.2.to_bits()];
        let mut skipped = 0;
        for (i, (want, got, readings)) in rows.iter().enumerate() {
            let va = grid_volts(N, i);
            let mut walk = DarkRow::new(&bound, &dep, va);
            for (j, &r) in readings.iter().enumerate() {
                if walk.as_mut().is_some_and(|w| w.skips(j)) {
                    skipped += 1;
                    match floor {
                        Some(_) => assert!(r < l, "cell ({i}, {j}) reads {r} ≥ L = {l}"),
                        None => assert_eq!(r, 0.0, "dark cell ({i}, {j})"),
                    }
                }
            }
            if want.2 >= l {
                assert_eq!(bits(*got), bits(*want), "row {i}: {got:?} vs {want:?}");
            }
        }

        let got = align_rx(&mut dep.clone(), seed, vt, Some(&bound), 0);
        let want = align_rx(&mut dep.clone(), seed, vt, None, 0);
        assert_eq!(
            (
                got.voltages.map(f64::to_bits),
                got.power_dbm.to_bits(),
                got.n_evals
            ),
            (
                want.voltages.map(f64::to_bits),
                want.power_dbm.to_bits(),
                want.n_evals
            ),
            "stages 3–4: {got:?} vs {want:?}"
        );
        (l, skipped as f64 / (N * N) as f64)
    }

    #[test]
    fn cannot_win_sweeps_keep_the_argmax_across_designs_and_noise() {
        let designs = [
            LinkDesign::ten_g_diverging(20.0e-3, 1.75),
            LinkDesign::twenty_five_g(20.0e-3, 1.75),
            wdm_40g_design(),
        ];
        let displaced = Pose::new(
            axis_angle(v3(0.2, 1.0, 0.1).normalized(), 0.15),
            v3(0.15, -0.1, 1.9),
        );
        // Galvo noise and power noise each at 0×, 1× and 10×.
        let noise = [(0.0, 1.0), (10.0, 1.0), (1.0, 1.0), (1.0, 0.0), (1.0, 10.0)];
        for (k, design) in designs.into_iter().enumerate() {
            for (galvo, power) in noise {
                let mut cfg = DeploymentConfig::paper_10g(60 + k as u64);
                cfg.design = design;
                cfg.galvo_cfg.angle_noise_rad *= galvo;
                cfg.power_noise_db *= power;
                let mut rng = StdRng::seed_from_u64(200 + k as u64);
                for placement in 0..4 {
                    let mut dep = Deployment::new(&cfg);
                    dep.set_headset_pose(match placement {
                        0 => displaced,
                        _ => random_placement(&mut rng, cfg.design.nominal_range),
                    });
                    let vt = align_tx(&mut dep.clone(), &mut 0);
                    let (l, skipped) = cannot_win_sweep_is_sound(&dep, vt);
                    assert!(l > 0.0, "design {k}, placement {placement}: pilot reads 0");
                    if k < 2 && galvo == 1.0 && power == 1.0 {
                        assert!(skipped > 0.98, "design {k}: skipped {skipped}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_dark_pilot_row_falls_back_to_the_dark_bound() {
        // The TX beam steered to a corner of its range, far off the
        // headset: every reading of the RX sweep is `+0.0`.
        let dep = Deployment::new(&DeploymentConfig::paper_10g(47));
        let (l, skipped) = cannot_win_sweep_is_sound(&dep, (VOLT_MAX, VOLT_MAX));
        assert_eq!(l, 0.0);
        assert!(skipped > 0.0, "the dark bound still skips");
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
