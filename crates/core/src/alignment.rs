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
//! counts in `n_evals`. Each sweep scans one pilot row first, and then
//! also skips, the same way, every cell it proves to read below the
//! pilot's best reading or below its own row's best so far: such a cell
//! cannot be the sweep's argmax. A skipped cell's noise draws are replayed
//! before the row's next full reading, so every full reading, the argmax,
//! `n_evals` and every draw a later reading sees are those of the full
//! physics. One closed-form test of a whole row proves every cell outside
//! the few lit columns near its peak, and only those are tested cell by
//! cell (DESIGN.md §8, "dark-cell bound", "monitor bound", "cannot-win
//! bound", "monitor cannot-win bound", "pilot-first sweep" and "row
//! bound").

use crate::deployment::{
    DarkCellBound, DarkRow, DarkSweep, Deployment, MonitorDarkBound, SweepTable, RX_SWEEP_POINTS,
    TX_SWEEP_POINTS,
};
use cyclops_optics::galvo::{VOLT_MAX, VOLT_MIN};
use cyclops_optics::photodiode::PlacedMonitor;
use cyclops_optics::power::dbm_to_mw;
use cyclops_solver::pattern::{pattern_search, PatternOptions};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::ops::Range;

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

/// The voltages of an `N`-point coarse sweep axis.
pub(crate) fn sweep_columns<const N: usize>() -> [f64; N] {
    std::array::from_fn(|j| grid_volts(N, j))
}

/// Both galvos' coarse-sweep tables. They depend on the galvos alone, so
/// the mapping collection builds them once for all its alignments, on the
/// stack.
pub(crate) struct SweepTables {
    tx: SweepTable<TX_SWEEP_POINTS>,
    rx: SweepTable<RX_SWEEP_POINTS>,
}

impl SweepTables {
    /// The tables of `dep`'s galvos.
    pub(crate) fn new(dep: &Deployment) -> SweepTables {
        SweepTables {
            tx: SweepTable::new(&dep.tx, &sweep_columns()),
            rx: SweepTable::new(&dep.rx, &sweep_columns()),
        }
    }
}

/// One coarse voltage-pair sweep over the full `[VOLT_MIN, VOLT_MAX]²` grid,
/// row-parallel, skipping the cells `bound` proves cannot win. Returns the
/// first-wins argmax `(v_a, v_b, score)`; `reading(v_a)` makes the full
/// reader of row `v_a`.
///
/// The simulated hardware is stateful — every reading advances the
/// deployment's noise RNG — so rows cannot share `dep` across threads
/// without making the draw order depend on the schedule. Instead each row
/// scans its own clone whose RNG is reseeded from
/// `mix64(stage_seed, row)`, a pure function of the stage and the row, and
/// rows are folded in index order with a strictly-greater comparison. The
/// result is therefore bit-identical for any thread count, including one
/// (which maps the same row closure in a plain loop).
///
/// The bound's pilot row is scanned first, on its own, and its best
/// reading `L` lets every other row skip what reads below it. A row keeps
/// its first-wins argmax while it skips only cells below its own best so
/// far, so the pilot's result is the one the fold would get from it,
/// and it is folded in at its index. Every other row also skips cells
/// below `L`: that can only lower a row whose best is below `L ≤ M`, the
/// sweep's maximum, and in the first row that reaches `M` the first cell
/// reading `M` is never skipped. So the argmax is unchanged (DESIGN.md §8,
/// "pilot-first sweep").
fn coarse_sweep<B, F>(
    dep: &Deployment,
    stage_seed: u64,
    points: usize,
    bound: Option<&B>,
    reading: impl Fn(f64) -> F + Sync,
) -> (f64, f64, f64)
where
    B: DarkSweep + Sync,
    F: FnMut(&mut Deployment, f64) -> f64,
{
    // Every row starting from one reading shares its floor.
    let row = |i: usize, start: f64, floor: Option<(&B, B::Floor)>| {
        let full = reading(grid_volts(points, i));
        sweep_row(dep, stage_seed, points, floor, i, start, full)
    };
    let floor = |start: f64| bound.map(|b| (b, b.floor(start)));
    let pilot_row = bound.map_or(0, B::pilot_row);
    let pilot = row(pilot_row, 0.0, floor(0.0));
    let others = floor(pilot.2);
    let rows = cyclops_par::par_map_indexed(points, 1, |i| {
        if i == pilot_row {
            pilot
        } else {
            row(i, pilot.2, others)
        }
    });
    let mut best = (VOLT_MIN, VOLT_MIN, f64::NEG_INFINITY);
    for row in rows {
        if row.2 > best.2 {
            best = row;
        }
    }
    best
}

/// Row `i` of [`coarse_sweep`] from `start`, read by `full` where the
/// bound proves nothing; `bound` comes with its floor at `start`. When the
/// row bound proves every cell of the row below that floor and no
/// column's flags forbid a skip, the row is one stretch of `+0.0` cells:
/// it returns `(v_a, v_b of column 0, +0.0)`, as its scan would, without
/// cloning `dep` or drawing. Otherwise the scan skips what the row bound
/// proves ([`DarkSweep::lit_columns`]) and what the per-cell tests prove.
fn sweep_row<B: DarkSweep>(
    dep: &Deployment,
    stage_seed: u64,
    points: usize,
    bound: Option<(&B, B::Floor)>,
    i: usize,
    start: f64,
    full: impl FnMut(&mut Deployment, f64) -> f64,
) -> (f64, f64, f64) {
    let lit = bound.map(|(b, floor)| b.lit_columns(&floor, i));
    let proved = lit.as_ref().is_some_and(Range::is_empty);
    if proved && bound.is_some_and(|(b, _)| b.skippable_until(0) == points) {
        return (grid_volts(points, i), grid_volts(points, 0), 0.0);
    }
    let cell = skipping_row(bound, i, start, lit, full);
    scan_row(dep, stage_seed, points, i, cell)
}

/// Row `i` of [`coarse_sweep`] on its reseeded clone of `dep`, read by
/// `cell`. In column order, it reads column `j` (voltage `v_b`) as
/// `cell(clone, j, v_b) = (score, n)`: the `n ≥ 1` cells from `j` on all
/// read `score`, and the scan goes on at column `j + n`. Returns the row's
/// first-wins argmax, which only the first cell of such a stretch can take.
fn scan_row(
    dep: &Deployment,
    stage_seed: u64,
    points: usize,
    i: usize,
    mut cell: impl FnMut(&mut Deployment, usize, f64) -> (f64, usize),
) -> (f64, f64, f64) {
    let mut d = dep.clone();
    *d.rng() = StdRng::seed_from_u64(cyclops_par::mix64(stage_seed, i as u64));
    let va = grid_volts(points, i);
    let mut best = (va, VOLT_MIN, f64::NEG_INFINITY);
    let mut j = 0;
    while j < points {
        let vb = grid_volts(points, j);
        let (s, n) = cell(&mut d, j, vb);
        if s > best.2 {
            best = (va, vb, s);
        }
        j += n;
    }
    best
}

/// A coarse-sweep cell reader for row `i` ([`scan_row`]) that reads
/// `full(d, v_b)` one cell at a time, except where `bound` proves cells
/// to read below the row's best so far, which starts at `start` (the
/// bound comes with its floor there), or exactly `+0.0` while that is not
/// a positive normal number: those it steps over, reading `+0.0`, one at
/// a time inside the columns `lit` the row bound leaves and each stretch
/// of them outside those columns at once.
///
/// A skipped cell reads `+0.0` without commanding the galvo or drawing; it
/// only adds to the draws the row owes. Those are replayed just before the
/// next full reading, so that reading sees the RNG state of the full
/// physics. Galvo state after `command` is a pure function of the
/// quantized voltages, so the skipped commands are invisible too. Draws
/// still owed at the end of the row are never made: the row's clone is
/// discarded and nothing reads its RNG again.
fn skipping_row<'b, B: DarkSweep>(
    bound: Option<(&'b B, B::Floor)>,
    i: usize,
    start: f64,
    lit: Option<Range<usize>>,
    mut full: impl FnMut(&mut Deployment, f64) -> f64 + 'b,
) -> impl FnMut(&mut Deployment, usize, f64) -> (f64, usize) + 'b {
    let mut row = bound.and_then(|(b, floor)| Some((b, DarkRow::new(b, i, lit?)?, floor)));
    let (mut best, mut owed) = (start, 0);
    move |d: &mut Deployment, j: usize, vb: f64| {
        if let Some((b, row, floor)) = row.as_mut() {
            let dark = row.dark_cells(*b, floor, j);
            if dark > 0 {
                owed += dark;
                return (0.0, dark);
            }
        }
        B::replay(d, std::mem::take(&mut owed));
        let s = full(d, vb);
        if s > best {
            best = s;
            if let Some((b, _, floor)) = row.as_mut() {
                *floor = b.floor(s);
            }
        }
        (s, 1)
    }
}

/// The Stage 1 reading of TX voltages `(va, vb)` on the placed `monitor`:
/// the monitor signal, with the RX left where it is.
fn monitor_reading(monitor: &PlacedMonitor, va: f64) -> impl FnMut(&mut Deployment, f64) -> f64 {
    let monitor = *monitor;
    move |d: &mut Deployment, vb: f64| {
        let keep = d.voltages();
        d.set_voltages(va, vb, keep.2, keep.3);
        d.monitor_signal_at(&monitor)
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

/// Stages 1–2: the TX coarse sweep and refine on the monitor signal, the
/// sweep skipping what `bound` proves (none when `None`). Returns the
/// refined TX voltages and counts its readings into `n_evals`.
fn align_tx(
    dep: &mut Deployment,
    bound: Option<&MonitorDarkBound>,
    n_evals: &mut usize,
) -> (f64, f64) {
    // Stage 1: TX coarse sweep on the monitor signal (row-parallel). The
    // monitor stays placed while only the TX voltages move.
    let seed_tx = dep.rng().next_u64();
    let monitor = bound.map_or_else(|| dep.placed_monitor(), |b| *b.monitor());
    let (ct1, ct2, _) = coarse_sweep(dep, seed_tx, TX_SWEEP_POINTS, bound, |va| {
        monitor_reading(&monitor, va)
    });
    *n_evals += TX_SWEEP_POINTS * TX_SWEEP_POINTS;

    // Stage 2: TX refine on the monitor signal (serial, on the real rig).
    let mut local = |v: &[f64]| {
        let keep = dep.voltages();
        dep.set_voltages(v[0], v[1], keep.2, keep.3);
        *n_evals += 1;
        dep.monitor_signal_at(&monitor)
    };
    let mut opts = PatternOptions::uniform(2, VOLT_MIN, VOLT_MAX, 0.25);
    opts.shrink_tol = 1e-3;
    let refine = pattern_search(&mut local, &[ct1, ct2], &opts);
    (refine.params[0], refine.params[1])
}

/// Runs the §4.2 exhaustive search on the deployment as currently posed.
/// Leaves the galvos commanded to the aligned voltages.
pub fn exhaustive_align(dep: &mut Deployment) -> AlignResult {
    let tables = SweepTables::new(dep);
    align_with(dep, &tables)
}

/// [`exhaustive_align`] on the sweep tables of `dep`'s galvos.
pub(crate) fn align_with(dep: &mut Deployment, tables: &SweepTables) -> AlignResult {
    let mut n_evals = 0usize;
    let bound = dep.monitor_dark_bound(&tables.tx);
    let vt = align_tx(dep, Some(&bound), &mut n_evals);
    dep.set_voltages(vt.0, vt.1, 0.0, 0.0);
    let seed_rx = dep.rng().next_u64();
    let bound = dep.dark_cell_bound(&tables.rx);
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
    // Stage 3: RX coarse sweep on received power (row-parallel).
    let (cr1, cr2, _) = coarse_sweep(dep, seed_rx, RX_SWEEP_POINTS, bound, |va| {
        power_reading((vt1, vt2), va)
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
    use crate::deployment::{cheat_align, Deployment, DeploymentConfig, SweepRow};
    use crate::mapping::random_placement;
    use cyclops_geom::pose::Pose;
    use cyclops_geom::rotation::axis_angle;
    use cyclops_geom::vec3::v3;
    use cyclops_optics::coupling::LinkDesign;
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicUsize, Ordering};

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

    /// What [`rows_match_full_physics`] saw of a sweep: the fractions of
    /// its cells skipped, tested one by one and proved by the row bound,
    /// and how many cells proved, by the row bound or their own test, were
    /// read in full because their column's flags forbid the skip.
    struct SweepWalk {
        skipped: f64,
        tested: f64,
        row_proved: f64,
        read_proved: usize,
    }

    /// Every row of a `points`² coarse sweep from `seed` on `dep` under
    /// `bound`, whose full reading of row `va` is `reading(va)` and which
    /// commands cell `(va, vb)` as `command`. Each row starts from `+0.0`,
    /// or with `from_pilot` as in [`coarse_sweep`]: the pilot row from
    /// `+0.0` and every other row from `L`, the pilot's full-physics best.
    /// Each row is checked against a walk of it cell by cell over its
    /// full-physics readings, whose floor rises with its best reading so
    /// far as the production row's does:
    /// - the row bound's proved cells at the row start's floor
    ///   ([`DarkSweep::lit_columns`]) are a stretch before the lit columns
    ///   and one after them: every such cell is proved by the per-cell
    ///   reference at that floor, and the walk tests every cell inside the
    ///   lit columns, and no other;
    /// - each cell's own test agrees with the per-cell reference
    ///   `per_cell(cell, bound, floor, j)` at the walk's floor;
    /// - every cell the walk skips, by the row bound or its own test, is
    ///   one the reference proves below the floor it was proved at, and
    ///   reads below the row's best at that time in full physics, or
    ///   exactly `+0.0` while that best is not a positive normal number;
    /// - the production row reads in full exactly the columns the walk does
    ///   not skip, with the bits of the full-physics readings there (so
    ///   every skipped cell's draws were replayed), and calls its reader at
    ///   exactly those columns and at the first column of each stretch the
    ///   walk skips, each tested cell starting one, not once per cell;
    /// - its first-wins argmax has the bits of the full-physics row's when
    ///   that row's best reaches the row's start, and stays below it
    ///   otherwise; [`sweep_row`], which returns a proved row without a
    ///   scan when no column's flags forbid a skip, gives the same bits
    ///   and full readings.
    ///
    /// Returns the walk's rates and `L`.
    #[allow(clippy::too_many_arguments)]
    fn rows_match_full_physics<B, F>(
        dep: &Deployment,
        seed: u64,
        bound: &B,
        points: usize,
        from_pilot: bool,
        reading: impl Fn(f64) -> F,
        command: impl Fn(&mut Deployment, f64, f64),
        per_cell: impl Fn(&Deployment, &B, &B::Floor, usize) -> bool,
    ) -> (SweepWalk, f64)
    where
        B: DarkSweep,
        F: FnMut(&mut Deployment, f64) -> f64,
    {
        let pilot = bound.pilot_row();
        let mut full = reading(grid_volts(points, pilot));
        let (_, _, l) = scan_row(dep, seed, points, pilot, |d: &mut Deployment, _, vb| {
            (full(d, vb), 1)
        });
        let start = |i: usize| if from_pilot && i != pilot { l } else { 0.0 };
        // The columns of the production row's reader calls, the voltages
        // and bits of its full readings, and the full-physics readings.
        let calls = RefCell::new(Vec::new());
        let full_reads = RefCell::new(Vec::new());
        let physics = RefCell::new(Vec::new());
        let (mut skipped, mut tested, mut read_proved) = (0usize, 0usize, 0usize);
        let mut row_proved = 0;
        for i in 0..points {
            let va = grid_volts(points, i);
            calls.borrow_mut().clear();
            full_reads.borrow_mut().clear();
            physics.borrow_mut().clear();
            let mut full = reading(va);
            let want = scan_row(dep, seed, points, i, |d: &mut Deployment, _, vb| {
                let r = full(d, vb);
                physics.borrow_mut().push(r);
                (r, 1)
            });
            let lit = bound.lit_columns(&bound.floor(start(i)), i);
            row_proved += points - lit.len();
            let (mut full, mut swept_full) = (reading(va), reading(va));
            let recorded = |d: &mut Deployment, vb: f64| {
                let r = full(d, vb);
                full_reads.borrow_mut().push((vb.to_bits(), r.to_bits()));
                r
            };
            let mut cell = skipping_row(
                Some((bound, bound.floor(start(i)))),
                i,
                start(i),
                Some(lit.clone()),
                recorded,
            );
            let got = scan_row(dep, seed, points, i, |d: &mut Deployment, j, vb| {
                calls.borrow_mut().push(j);
                cell(d, j, vb)
            });
            let bits = |c: (f64, f64, f64)| [c.0.to_bits(), c.1.to_bits(), c.2.to_bits()];
            if want.2 >= start(i) {
                assert_eq!(bits(got), bits(want), "row {i}: {got:?} vs {want:?}");
            } else {
                assert!(got.2 < start(i), "row {i}: {got:?} vs {want:?}");
            }
            let swept_reads = RefCell::new(Vec::new());
            let swept_recorded = |d: &mut Deployment, vb: f64| {
                let r = swept_full(d, vb);
                swept_reads.borrow_mut().push((vb.to_bits(), r.to_bits()));
                r
            };
            let swept = sweep_row(
                dep,
                seed,
                points,
                Some((bound, bound.floor(start(i)))),
                i,
                start(i),
                swept_recorded,
            );
            assert_eq!(bits(swept), bits(got), "row {i}: sweep_row");
            assert_eq!(
                *swept_reads.borrow(),
                *full_reads.borrow(),
                "row {i}: sweep_row"
            );

            // The cell-by-cell walk: a cell is skipped when its column
            // allows it and it lies outside the lit columns, proved by the
            // row bound at the row start's floor, or its own test proves it
            // at the walk's floor. A stretch of skipped cells starts at a
            // tested cell, or where the walk resumes after a full reading.
            let physics = physics.borrow();
            let row = bound.row(i);
            let mut cell = dep.clone();
            let mut best = start(i);
            let mut floor = bound.floor(best);
            let (lit_floor, lit_best) = (floor, best);
            let mut resumed = true;
            let (mut want_calls, mut want_full) = (Vec::new(), Vec::new());
            for (j, &r) in physics.iter().enumerate() {
                let vb = grid_volts(points, j);
                command(&mut cell, va, vb);
                let skippable = bound.skippable_until(j) > j;
                let own = row.is_some_and(|row| bound.proves_cell(&floor, &row, j));
                let want = per_cell(&cell, bound, &floor, j);
                assert_eq!(skippable && own, want, "cell ({va}, {vb})");
                let by_row = !lit.contains(&j);
                let test = skippable && !by_row && row.is_some();
                tested += usize::from(test);
                if skippable && (by_row || own) {
                    let (proof_floor, proof_best) = if by_row {
                        (lit_floor, lit_best)
                    } else {
                        (floor, best)
                    };
                    assert!(
                        per_cell(&cell, bound, &proof_floor, j),
                        "skipped cell ({va}, {vb}) is not proved below its floor"
                    );
                    if proof_best >= f64::MIN_POSITIVE {
                        assert!(r < proof_best, "skipped cell ({va}, {vb}) reads {r}");
                    } else {
                        assert_eq!(r.to_bits(), 0.0f64.to_bits(), "cell ({va}, {vb})");
                    }
                    skipped += 1;
                    if test || resumed {
                        want_calls.push(j);
                    }
                    resumed = false;
                } else {
                    read_proved += usize::from(by_row || own);
                    resumed = true;
                    want_calls.push(j);
                    want_full.push((vb.to_bits(), r.to_bits()));
                    if r > best {
                        best = r;
                        floor = bound.floor(best);
                    }
                }
            }
            assert_eq!(*full_reads.borrow(), want_full, "row {i}: full readings");
            assert_eq!(*calls.borrow(), want_calls, "row {i}: reader calls");
        }
        let cells = (points * points) as f64;
        let walk = SweepWalk {
            skipped: skipped as f64 / cells,
            tested: tested as f64 / cells,
            row_proved: row_proved as f64 / cells,
            read_proved,
        };
        (walk, l)
    }

    /// The argmax of [`coarse_sweep`] and how often it made each row's
    /// reader, that is, how often it scanned each row.
    fn counted_sweep<B, F>(
        dep: &Deployment,
        seed: u64,
        points: usize,
        bound: Option<&B>,
        reading: impl Fn(f64) -> F + Sync,
    ) -> ((f64, f64, f64), Vec<usize>)
    where
        B: DarkSweep + Sync,
        F: FnMut(&mut Deployment, f64) -> f64,
    {
        let scans: Vec<AtomicUsize> = (0..points).map(|_| AtomicUsize::new(0)).collect();
        let best = coarse_sweep(dep, seed, points, bound, |va| {
            let i = (0..points).position(|i| grid_volts(points, i) == va);
            scans[i.expect("a row voltage")].fetch_add(1, Ordering::Relaxed);
            reading(va)
        });
        (
            best,
            scans.into_iter().map(AtomicUsize::into_inner).collect(),
        )
    }

    /// [`rows_match_full_physics`] on the Stage 1 sweep of `dep` as
    /// posed, from the seed its next draw would give.
    fn tx_rows_match_full_physics(dep: &Deployment, from_pilot: bool) -> (SweepWalk, f64) {
        let table = SweepTable::new(&dep.tx, &sweep_columns());
        let bound = dep.monitor_dark_bound(&table);
        let monitor = *bound.monitor();
        rows_match_full_physics(
            dep,
            dep.clone().rng().next_u64(),
            &bound,
            TX_SWEEP_POINTS,
            from_pilot,
            |va| monitor_reading(&monitor, va),
            |d, va, vb| {
                let keep = d.voltages();
                d.set_voltages(va, vb, keep.2, keep.3);
            },
            |d, b, f, _| d.monitor_dark_per_cell(b, f),
        )
    }

    /// [`rows_match_full_physics`] on the Stage 3 sweep from `seed` of
    /// `dep`, commanded to TX voltages `vt`, with the plane flag of column
    /// `down` lowered when it is given.
    fn rx_rows_match_full_physics(
        dep: &Deployment,
        seed: u64,
        vt: (f64, f64),
        down: Option<usize>,
        from_pilot: bool,
    ) -> (SweepWalk, f64) {
        let table = SweepTable::new(&dep.rx, &sweep_columns());
        let mut bound = dep.dark_cell_bound(&table).expect("TX beam traces");
        if let Some(k) = down {
            bound = bound.with_plane_flag_down(k);
        }
        rows_match_full_physics(
            dep,
            seed,
            &bound,
            RX_SWEEP_POINTS,
            from_pilot,
            |va| power_reading(vt, va),
            |d, va, vb| {
                d.set_voltages(vt.0, vt.1, va, vb);
            },
            |d, b, f, j| Some(j) != down && d.proves_dark_per_cell(b, f),
        )
    }

    /// `dep` with its TX refined by Stages 1–2 and the RX at zero volts,
    /// and the refined TX voltages.
    fn refined(dep: &Deployment) -> (Deployment, (f64, f64)) {
        let mut dep = dep.clone();
        let vt = align_tx(&mut dep, None, &mut 0);
        dep.set_voltages(vt.0, vt.1, 0.0, 0.0);
        (dep, vt)
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
                    let (tx, _) = tx_rows_match_full_physics(&dep, false);
                    let (dep, vt) = refined(&dep);
                    let (rx, _) = rx_rows_match_full_physics(&dep, 0, vt, None, false);
                    let rates = [tx.skipped, rx.skipped, tx.tested, rx.tested];
                    if k == 0 && noise_scale == 1.0 {
                        // paper_10g: the bounds must keep firing, and the
                        // row bound must prove most cells and leave few to
                        // test.
                        assert!(rates[0] >= 0.9 && rates[1] >= 0.9, "skip rates {rates:?}");
                        assert!(rates[2] <= 0.4 && rates[3] <= 0.15, "test rates {rates:?}");
                        let proved = [tx.row_proved, rx.row_proved];
                        assert!(proved.iter().all(|&p| p >= 0.9), "row rates {proved:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_column_the_plane_flag_forbids_is_read_in_and_out_of_the_lit_columns() {
        // The middle column of the Stage 3 sweep, flagged as if the chief
        // ray could miss its mirror plane: every stretch the row bound
        // proves around the lit columns stops there, reads it in full, and
        // resumes after it, and inside the lit columns it is read however
        // its own test comes out.
        let (dep, vt) = refined(&Deployment::new(&DeploymentConfig::paper_10g(50)));
        let (walk, _) = rx_rows_match_full_physics(&dep, 0, vt, Some(RX_SWEEP_POINTS / 2), false);
        assert!(walk.read_proved > 50, "{} cells", walk.read_proved);
        assert!(walk.skipped >= 0.9, "skip rate {}", walk.skipped);
    }

    /// The Stage 1 sweep of `dep` under the bound `exhaustive_align`
    /// builds, against the full physics: every row as
    /// [`rows_match_full_physics`] checks it, the pilot's at its own best
    /// so far and every other row's from `L`, the pilot's full-physics
    /// best; the sweep scans each row once and keeps the argmax of a sweep
    /// that skips nothing; and Stages 1–2 give the voltages, `n_evals` and
    /// RNG state of one that skips nothing. Returns `L` and the fraction
    /// of cells skipped.
    fn monitor_sweep_is_sound(dep: &Deployment) -> (f64, f64) {
        let (walk, l) = tx_rows_match_full_physics(dep, true);
        let table = SweepTable::new(&dep.tx, &sweep_columns());
        let bound = dep.monitor_dark_bound(&table);
        let monitor = *bound.monitor();
        let seed = dep.clone().rng().next_u64();
        let sweep = |b: Option<&MonitorDarkBound>| {
            counted_sweep(dep, seed, TX_SWEEP_POINTS, b, |va| {
                monitor_reading(&monitor, va)
            })
        };
        let (got, scans) = sweep(Some(&bound));
        let (want, _) = sweep(None);
        assert_eq!(scans, vec![1; TX_SWEEP_POINTS], "rows scanned");
        assert_eq!(
            [got.0, got.1, got.2].map(f64::to_bits),
            [want.0, want.1, want.2].map(f64::to_bits),
            "stage 1: {got:?} vs {want:?}"
        );

        let stages = |b: Option<&MonitorDarkBound>| {
            let mut d = dep.clone();
            let mut n_evals = 0;
            let (vt1, vt2) = align_tx(&mut d, b, &mut n_evals);
            ([vt1.to_bits(), vt2.to_bits()], n_evals, d.rng().clone())
        };
        assert_eq!(stages(Some(&bound)), stages(None), "stages 1–2");
        (l, walk.skipped)
    }

    /// The Stage 3 sweep of `dep` at TX voltages `vt` under the bound
    /// `exhaustive_align` builds, against the full physics as
    /// [`monitor_sweep_is_sound`] checks Stage 1, with Stages 3–4 giving
    /// the bits, `n_evals` and RNG state of a sweep that skips nothing.
    /// Returns `L` and the fraction of cells skipped.
    fn cannot_win_sweep_is_sound(dep: &Deployment, vt: (f64, f64)) -> (f64, f64) {
        const N: usize = RX_SWEEP_POINTS;
        let mut dep = dep.clone();
        dep.set_voltages(vt.0, vt.1, 0.0, 0.0);
        let seed = dep.rng().next_u64();
        let (walk, l) = rx_rows_match_full_physics(&dep, seed, vt, None, true);
        let table = SweepTable::new(&dep.rx, &sweep_columns());
        let bound = dep.dark_cell_bound(&table).expect("TX beam traces");
        let sweep =
            |b: Option<&DarkCellBound>| counted_sweep(&dep, seed, N, b, |va| power_reading(vt, va));
        let (got, scans) = sweep(Some(&bound));
        let (want, _) = sweep(None);
        assert_eq!(scans, vec![1; N], "rows scanned");
        assert_eq!(
            [got.0, got.1, got.2].map(f64::to_bits),
            [want.0, want.1, want.2].map(f64::to_bits),
            "stage 3: {got:?} vs {want:?}"
        );

        let stages = |b: Option<&DarkCellBound>| {
            let mut d = dep.clone();
            let res = align_rx(&mut d, seed, vt, b, 0);
            let v = res.voltages.map(f64::to_bits);
            (v, res.power_dbm.to_bits(), res.n_evals, d.rng().clone())
        };
        assert_eq!(stages(Some(&bound)), stages(None), "stages 3–4");
        (l, walk.skipped)
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
                    let vt = align_tx(&mut dep.clone(), None, &mut 0);
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
    fn monitor_cannot_win_sweeps_keep_the_argmax_across_designs_and_noise() {
        let designs = [
            LinkDesign::ten_g_diverging(20.0e-3, 1.75),
            LinkDesign::twenty_five_g(20.0e-3, 1.75),
            wdm_40g_design(),
        ];
        let displaced = Pose::new(
            axis_angle(v3(0.2, 1.0, 0.1).normalized(), 0.15),
            v3(0.15, -0.1, 1.9),
        );
        // Galvo noise at 0×, 1× and 10×; the monitor reads no power noise.
        for (k, design) in designs.into_iter().enumerate() {
            for galvo in [0.0, 1.0, 10.0] {
                let mut cfg = DeploymentConfig::paper_10g(70 + k as u64);
                cfg.design = design;
                cfg.galvo_cfg.angle_noise_rad *= galvo;
                let mut rng = StdRng::seed_from_u64(300 + k as u64);
                for placement in 0..4 {
                    let mut dep = Deployment::new(&cfg);
                    dep.set_headset_pose(match placement {
                        0 => displaced,
                        _ => random_placement(&mut rng, cfg.design.nominal_range),
                    });
                    let (l, skipped) = monitor_sweep_is_sound(&dep);
                    assert!(l > 0.0, "design {k}, placement {placement}: pilot reads 0");
                    if galvo == 1.0 {
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

    /// A bound that counts its row tests and cell tests.
    struct Counted<'b, B> {
        bound: &'b B,
        row_tests: AtomicUsize,
        cell_tests: AtomicUsize,
    }

    impl<'b, B> Counted<'b, B> {
        fn new(bound: &'b B) -> Self {
            Counted {
                bound,
                row_tests: AtomicUsize::new(0),
                cell_tests: AtomicUsize::new(0),
            }
        }
    }

    impl<B: DarkSweep> DarkSweep for Counted<'_, B> {
        type Floor = B::Floor;

        fn floor(&self, best: f64) -> B::Floor {
            self.bound.floor(best)
        }

        fn row(&self, i: usize) -> Option<SweepRow> {
            self.bound.row(i)
        }

        fn pilot_row(&self) -> usize {
            self.bound.pilot_row()
        }

        fn skippable_until(&self, j: usize) -> usize {
            self.bound.skippable_until(j)
        }

        fn lit_columns(&self, floor: &B::Floor, i: usize) -> Range<usize> {
            self.row_tests.fetch_add(1, Ordering::Relaxed);
            self.bound.lit_columns(floor, i)
        }

        fn proves_cell(&self, floor: &B::Floor, row: &SweepRow, j: usize) -> bool {
            self.cell_tests.fetch_add(1, Ordering::Relaxed);
            self.bound.proves_cell(floor, row, j)
        }

        fn replay(dep: &mut Deployment, n: usize) {
            B::replay(dep, n)
        }
    }

    /// One coarse sweep of `dep` from `seed` under `bound`, counted: its
    /// row tests, cell tests and full readings.
    fn sweep_work<B, F>(
        dep: &Deployment,
        seed: u64,
        points: usize,
        bound: &B,
        reading: impl Fn(f64) -> F + Sync,
    ) -> [usize; 3]
    where
        B: DarkSweep + Sync,
        F: FnMut(&mut Deployment, f64) -> f64,
    {
        let counted = Counted::new(bound);
        let reads = AtomicUsize::new(0);
        coarse_sweep(dep, seed, points, Some(&counted), |va| {
            let mut full = reading(va);
            let reads = &reads;
            move |d: &mut Deployment, vb: f64| {
                reads.fetch_add(1, Ordering::Relaxed);
                full(d, vb)
            }
        });
        [counted.row_tests, counted.cell_tests, reads].map(AtomicUsize::into_inner)
    }

    /// The work of both coarse sweeps on the benchmark fixture's geometry:
    /// two `paper_10g(911)` units 0.7 m apart, each aligned at the first
    /// twelve placements its mapping collection draws (seed 920), 24
    /// alignments in all. Each sweep makes one row test per row; its cell
    /// tests are capped a little above the measured counts and its full
    /// readings at them, so that a bound which stops firing fails here.
    /// Measured over the 24 alignments: Stage 1 makes 442 cell tests and
    /// 260 full readings, Stage 3 1,014 and 658. Before the row bound they
    /// made 7.7 k and 16.4 k run tests, and 260 and 941 full readings.
    #[test]
    fn fixture_sweeps_stay_under_their_work_ceilings() {
        const ALIGNMENTS: usize = 12;
        let (mut stage1, mut stage3) = ([0usize; 3], [0usize; 3]);
        for x in [-0.35, 0.35] {
            let mut cfg = DeploymentConfig::paper_10g(911);
            cfg.tx_position = v3(x, 0.0, 0.0);
            let base = Deployment::new(&cfg);
            let tables = SweepTables::new(&base);
            for k in 0..ALIGNMENTS as u64 {
                let mut rng = StdRng::seed_from_u64(cyclops_par::mix64(920, 2 * k));
                let mut dep = base.clone();
                *dep.rng() = StdRng::seed_from_u64(cyclops_par::mix64(920, 2 * k + 1));
                dep.set_headset_pose(random_placement(&mut rng, cfg.design.nominal_range));

                let bound = dep.monitor_dark_bound(&tables.tx);
                let monitor = *bound.monitor();
                let seed = dep.clone().rng().next_u64();
                let work = sweep_work(&dep, seed, TX_SWEEP_POINTS, &bound, |va| {
                    monitor_reading(&monitor, va)
                });
                stage1 = std::array::from_fn(|n| stage1[n] + work[n]);

                let vt = align_tx(&mut dep, Some(&bound), &mut 0);
                dep.set_voltages(vt.0, vt.1, 0.0, 0.0);
                let seed = dep.rng().next_u64();
                let bound = dep.dark_cell_bound(&tables.rx).expect("TX beam traces");
                let work = sweep_work(&dep, seed, RX_SWEEP_POINTS, &bound, |va| {
                    power_reading(vt, va)
                });
                stage3 = std::array::from_fn(|n| stage3[n] + work[n]);
            }
        }
        let [rows1, cells1, reads1] = stage1;
        let [rows3, cells3, reads3] = stage3;
        let alignments = 2 * ALIGNMENTS;
        assert_eq!(rows1, alignments * TX_SWEEP_POINTS, "stage 1 {stage1:?}");
        assert_eq!(rows3, alignments * RX_SWEEP_POINTS, "stage 3 {stage3:?}");
        assert!(cells1 <= 460 && reads1 <= 260, "stage 1 {stage1:?}");
        assert!(cells3 <= 1050 && reads3 <= 658, "stage 3 {stage3:?}");
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
