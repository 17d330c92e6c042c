//! Shared machinery for the Cyclops experiment harness.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` for the index); this library holds the common pieces:
//! speed-ladder throughput sweeps (the §5.3 protocol), window filtering,
//! tolerated-speed extraction, the two-unit ceiling fixture and text-table
//! formatting.

#![deny(missing_docs)]
#![warn(clippy::all)]

use cyclops::link::engine::{windows_50ms, Window};
use cyclops::prelude::*;
use cyclops::vrh::motion::ArbitraryMotionConfig;

/// Result of one rung of a speed ladder.
#[derive(Debug, Clone, Copy)]
pub struct LadderPoint {
    /// Commanded speed (m/s for linear, rad/s for angular).
    pub speed: f64,
    /// Fraction of *moving* 50 ms windows at optimal throughput.
    pub optimal_frac: f64,
    /// Mean goodput over moving windows (Gbps).
    pub mean_goodput: f64,
    /// Minimum received power over moving windows (dBm).
    pub min_power: f64,
}

/// Runs `motion` against a clone of the commissioned system for `dur_s`
/// seconds and aggregates the slots into the paper's 50 ms windows.
fn run_windows<M: Motion>(
    sys: &CyclopsSystem,
    motion: M,
    pause_on_outage: bool,
    dur_s: f64,
) -> Vec<Window> {
    let mut session = sys
        .clone()
        .into_session_builder(motion)
        .pause_on_outage(pause_on_outage)
        .build()
        .expect("a commissioned system builds a valid session");
    let slot_s = session.cfg().slot_s;
    let slots = session.run(dur_s);
    windows_50ms(&slots, slot_s, sys.dep.design.sfp.rx_sensitivity_dbm)
}

fn eval_windows(
    windows: &[Window],
    speed_of: impl Fn(&Window) -> f64,
    commanded: f64,
    optimal_gbps: f64,
) -> LadderPoint {
    // Only windows genuinely moving near the commanded speed (strokes pause
    // at the ends; those windows don't probe the speed under test).
    let moving: Vec<&Window> = windows
        .iter()
        .skip(2)
        .filter(|w| speed_of(w) >= 0.8 * commanded)
        .collect();
    if moving.is_empty() {
        return LadderPoint {
            speed: commanded,
            optimal_frac: 0.0,
            mean_goodput: 0.0,
            min_power: f64::NEG_INFINITY,
        };
    }
    let n = moving.len() as f64;
    let optimal = moving
        .iter()
        .filter(|w| w.goodput >= 0.95 * optimal_gbps)
        .count() as f64;
    LadderPoint {
        speed: commanded,
        optimal_frac: optimal / n,
        mean_goodput: moving.iter().map(|w| w.goodput).sum::<f64>() / n,
        min_power: moving
            .iter()
            .map(|w| w.min_power)
            .fold(f64::INFINITY, f64::min),
    }
}

/// Runs the §5.3 purely-linear protocol at each speed: constant-speed rail
/// strokes, measuring throughput/power over the paper's 50 ms windows.
///
/// Rungs are independent (each clones the commissioned system), so they run
/// on worker threads and are collected in input order — bit-identical to
/// the serial sweep.
pub fn linear_ladder(sys: &CyclopsSystem, speeds_mps: &[f64], dur_s: f64) -> Vec<LadderPoint> {
    let optimal = sys.dep.design.sfp.optimal_goodput_gbps;
    cyclops_par::par_map(speeds_mps, 1, |&v: &f64| {
        let base = Pose::translation(Vec3::new(0.0, 0.0, 1.75));
        let mut rail = LinearRail::paper_protocol(base, Vec3::X);
        rail.v0 = v;
        rail.dv = 0.0;
        eval_windows(&run_windows(sys, rail, false, dur_s), |w| w.lin, v, optimal)
    })
}

/// Runs the §5.3 purely-angular protocol at each angular speed (rad/s).
/// Rungs parallelize exactly as in [`linear_ladder`].
pub fn angular_ladder(sys: &CyclopsSystem, speeds_rps: &[f64], dur_s: f64) -> Vec<LadderPoint> {
    let optimal = sys.dep.design.sfp.optimal_goodput_gbps;
    cyclops_par::par_map(speeds_rps, 1, |&w: &f64| {
        let base = Pose::translation(Vec3::new(0.0, 0.0, 1.75));
        let mut stage = RotationStage::paper_protocol(base, Vec3::Y);
        stage.w0 = w;
        stage.dw = 0.0;
        eval_windows(
            &run_windows(sys, stage, false, dur_s),
            |x| x.ang,
            w,
            optimal,
        )
    })
}

/// A batch of mixed-motion (hand-held) runs, one per
/// `(lin_rms, ang_rms, seed)` config, each returning its 50 ms windows in
/// config order. Runs follow the paper's §5.3 protocol: after a link loss
/// the operator pauses and resumes once the link is back. They are seeded
/// independently, so they execute on worker threads with results
/// bit-identical to the serial loop.
pub fn arbitrary_runs(
    sys: &CyclopsSystem,
    configs: &[(f64, f64, u64)],
    dur_s: f64,
) -> Vec<Vec<Window>> {
    cyclops_par::par_map(configs, 1, |&(lin_rms, ang_rms, seed)| {
        let base = Pose::translation(Vec3::new(0.0, 0.0, 1.75));
        let cfg = ArbitraryMotionConfig {
            lin_rms,
            ang_rms,
            ..Default::default()
        };
        let motion = ArbitraryMotion::new(base, cfg, seed);
        run_windows(sys, motion, true, dur_s)
    })
}

/// The largest ladder speed whose optimal fraction is ≥ 95 % — the paper's
/// "link throughput remains optimal for speeds below X".
pub fn tolerated_speed(points: &[LadderPoint]) -> f64 {
    points
        .iter()
        .filter(|p| p.optimal_frac >= 0.95)
        .map(|p| p.speed)
        .fold(0.0, f64::max)
}

/// Folds a ladder's numeric output into a running `mix64` digest — the
/// determinism fingerprint the `chaos` CI job compares across thread
/// counts (`CYCLOPS_THREADS=1` vs several).
pub fn digest_ladder(mut digest: u64, points: &[LadderPoint]) -> u64 {
    for p in points {
        for bits in [
            p.speed.to_bits(),
            p.optimal_frac.to_bits(),
            p.mean_goodput.to_bits(),
            p.min_power.to_bits(),
        ] {
            digest = cyclops_par::mix64(digest ^ bits, 0x9e37_79b9_7f4a_7c15);
        }
    }
    digest
}

/// Two commissioned installations of `cfg` on the ceiling at x = ∓0.35 m,
/// sharing one headset world: the multi-TX fixture of the fleet bins.
pub fn ceiling_units(cfg: &SystemConfig) -> Vec<TxInstallation> {
    [-0.35, 0.35]
        .into_iter()
        .map(|x| {
            let mut cfg = cfg.clone();
            cfg.deployment.tx_position = Vec3::new(x, 0.0, 0.0);
            let (dep, ctl, ..) = cyclops::core::commission(&cfg);
            TxInstallation { dep, ctl }
        })
        .collect()
}

/// Prints a section header.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// Prints one aligned table row from string cells.
pub fn row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{c:>w$}  ", w = w));
    }
    println!("{}", line.trim_end());
}

/// Quantile of a sample (linear interpolation).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    cyclops::solver::stats::quantile(values, q)
}

/// Prints the Fig-14/15-style 2-D speed-bin table: for each (linear,
/// angular) speed bin with at least `min_windows` members, the fraction of
/// windows at ≥95 % of `optimal_gbps`, and (optionally) the minimum power.
/// Windows dominated by SFP re-locking are excluded (the operator pauses
/// during them; they probe no speed).
pub fn print_speed_bins(
    windows: &[Window],
    lin_edges_mps: &[f64],
    ang_edges_deg: &[f64],
    optimal_gbps: f64,
    show_power: bool,
    min_windows: usize,
) {
    let mut header = vec![
        "linear bin".to_string(),
        "angular bin".to_string(),
        "windows".to_string(),
        "optimal wins".to_string(),
    ];
    let mut widths = vec![16, 16, 10, 14];
    if show_power {
        header.push("min power dBm".into());
        widths.push(14);
    }
    row(&header, &widths);
    let usable: Vec<&Window> = windows.iter().filter(|w| w.relink_frac < 0.1).collect();
    for li in 0..lin_edges_mps.len() - 1 {
        for ai in 0..ang_edges_deg.len() - 1 {
            let sel: Vec<&&Window> = usable
                .iter()
                .filter(|w| {
                    w.lin >= lin_edges_mps[li]
                        && w.lin < lin_edges_mps[li + 1]
                        && w.ang.to_degrees() >= ang_edges_deg[ai]
                        && w.ang.to_degrees() < ang_edges_deg[ai + 1]
                })
                .collect();
            if sel.len() < min_windows {
                continue;
            }
            let opt = sel
                .iter()
                .filter(|w| w.goodput >= 0.95 * optimal_gbps)
                .count() as f64
                / sel.len() as f64;
            let mut cells = vec![
                format!(
                    "{:.0}-{:.0} cm/s",
                    lin_edges_mps[li] * 100.0,
                    lin_edges_mps[li + 1] * 100.0
                ),
                format!(
                    "{:.0}-{:.0} deg/s",
                    ang_edges_deg[ai],
                    ang_edges_deg[ai + 1]
                ),
                format!("{}", sel.len()),
                format!("{:.0}%", opt * 100.0),
            ];
            if show_power {
                let pmin = sel
                    .iter()
                    .map(|w| w.min_power)
                    .fold(f64::INFINITY, f64::min);
                cells.push(format!("{pmin:.1}"));
            }
            row(&cells, &widths);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerated_speed_picks_last_optimal() {
        let pts = vec![
            LadderPoint {
                speed: 0.1,
                optimal_frac: 1.0,
                mean_goodput: 9.4,
                min_power: -15.0,
            },
            LadderPoint {
                speed: 0.2,
                optimal_frac: 0.97,
                mean_goodput: 9.4,
                min_power: -20.0,
            },
            LadderPoint {
                speed: 0.3,
                optimal_frac: 0.4,
                mean_goodput: 4.0,
                min_power: -40.0,
            },
        ];
        assert_eq!(tolerated_speed(&pts), 0.2);
        assert_eq!(tolerated_speed(&pts[2..]), 0.0);
    }

    #[test]
    fn ladder_end_to_end_smoke() {
        // One slow rung on a fast commissioning: must be fully optimal.
        let sys = CyclopsSystem::commission(&SystemConfig::fast_10g(9001));
        let pts = linear_ladder(&sys, &[0.05], 4.0);
        assert_eq!(pts.len(), 1);
        assert!(pts[0].optimal_frac > 0.9, "{:?}", pts[0]);
        assert!((pts[0].mean_goodput - 9.4).abs() < 0.5);
    }
}
