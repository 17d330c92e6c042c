//! The online TP controller (§3 + §5.2).
//!
//! Ties the trained models to the live loop: on every VRH-T report, evaluate
//! the pointing function `P` (warm-started from the last solution) and
//! command the galvos. The paper's latency budget, reproduced here:
//!
//! * computation — "minimal (in µsecs)";
//! * realignment — "about 1–2 msec comprised mostly of digital-to-analog
//!   conversion latency at a DAQ device" plus the mirror settle time.

use crate::mapping::TrainedMapping;
use crate::pointing::{pointing_with, PointingResult};
use cyclops_geom::pose::Pose;
use cyclops_optics::galvo::{GalvoAxes, GalvoParams};
use std::sync::Arc;

/// Controller configuration.
#[derive(Debug, Clone, Copy)]
pub struct TpConfig {
    /// DAQ digital-to-analog conversion latency per command (seconds) —
    /// the dominant term of the paper's 1–2 ms pointing latency.
    pub dac_latency_s: f64,
    /// Computation time charged per `G`/`G'` model evaluation (seconds);
    /// scales the "µsecs" compute budget with the actual iteration count.
    pub compute_per_eval_s: f64,
    /// Voltage convergence tolerance of the pointing iteration.
    pub v_tol: f64,
    /// Outer-iteration budget of the pointing iteration.
    pub max_iters: usize,
}

impl Default for TpConfig {
    fn default() -> Self {
        TpConfig {
            dac_latency_s: 1.3e-3,
            compute_per_eval_s: 2e-6,
            v_tol: cyclops_optics::galvo::DAC_STEP_V,
            max_iters: 12,
        }
    }
}

/// One pointing command produced from a tracking report.
#[derive(Debug, Clone, Copy)]
pub struct TpCommand {
    /// The four voltages to command `(v_t1, v_t2, v_r1, v_r2)`.
    pub voltages: [f64; 4],
    /// Latency from report receipt until the DACs have output the voltages
    /// (computation + DAC conversion; galvo settle time is added by the
    /// hardware when applied).
    pub latency_s: f64,
    /// Outer pointing iterations spent on this command (after any cold
    /// restart; what `latency_s` and the telemetry iteration histograms are
    /// built from).
    pub iterations: usize,
    /// Whether the pointing iteration converged.
    pub converged: bool,
}

/// Aggregate controller metrics (§5.2's TP-performance numbers).
#[derive(Debug, Clone, Default)]
pub struct TpMetrics {
    /// Reports processed.
    pub n_reports: u64,
    /// Pointing failures (non-converged iterations).
    pub n_failures: u64,
    /// Sum and max of outer pointing iterations.
    pub sum_iters: u64,
    /// See [`TpMetrics::sum_iters`].
    pub max_iters: u64,
    /// Sum and max of command latency (seconds).
    pub sum_latency_s: f64,
    /// See [`TpMetrics::sum_latency_s`].
    pub max_latency_s: f64,
    /// Dead-reckoned commands issued from extrapolated (not reported) poses
    /// while the control channel was stale.
    pub n_extrapolated: u64,
    /// Re-acquisition spiral steps taken after optical signal loss.
    pub n_reacq_steps: u64,
}

impl TpMetrics {
    /// Commands issued (reported + extrapolated poses).
    fn n_commands(&self) -> u64 {
        self.n_reports + self.n_extrapolated
    }

    /// Mean outer pointing iterations per command.
    pub fn mean_iters(&self) -> f64 {
        if self.n_commands() == 0 {
            0.0
        } else {
            self.sum_iters as f64 / self.n_commands() as f64
        }
    }

    /// Mean command latency (seconds).
    pub fn mean_latency_s(&self) -> f64 {
        if self.n_commands() == 0 {
            0.0
        } else {
            self.sum_latency_s / self.n_commands() as f64
        }
    }
}

/// The online controller.
#[derive(Debug, Clone)]
pub struct TpController {
    /// Trained models, shared by every clone (each fleet session clones
    /// one commissioned controller).
    trained: Arc<Trained>,
    /// Timing configuration.
    pub cfg: TpConfig,
    /// Running metrics.
    pub metrics: TpMetrics,
    last_voltages: [f64; 4],
}

/// A controller's trained stage-1+2 models and the TX side of every solve
/// derived from them. Immutable, so the derived part cannot go stale.
#[derive(Debug)]
struct Trained {
    mapping: TrainedMapping,
    /// `mapping.tx_in_vr()` and its axes.
    tx_vr: GalvoParams,
    tx_axes: GalvoAxes,
}

impl TpController {
    /// Creates a controller; `initial_voltages` seed the warm start (e.g.
    /// the last exhaustive-alignment result).
    pub fn new(mapping: TrainedMapping, cfg: TpConfig, initial_voltages: [f64; 4]) -> TpController {
        let tx_vr = mapping.tx_in_vr();
        TpController {
            trained: Arc::new(Trained {
                tx_axes: tx_vr.axes(),
                tx_vr,
                mapping,
            }),
            cfg,
            metrics: TpMetrics::default(),
            last_voltages: initial_voltages,
        }
    }

    /// The trained stage-1+2 models the controller points with.
    pub fn mapping(&self) -> &TrainedMapping {
        &self.trained.mapping
    }

    /// Processes one VRH-T report: computes `P(Ψ)` and returns the command.
    pub fn on_report(&mut self, reported_pose: &Pose) -> TpCommand {
        self.metrics.n_reports += 1;
        self.solve(reported_pose)
    }

    /// Processes a dead-reckoned pose (constant-velocity extrapolation from
    /// stale reports): same pointing math as [`TpController::on_report`],
    /// accounted separately so session stats can tell how often the
    /// controller flew blind.
    pub fn on_extrapolated(&mut self, extrapolated_pose: &Pose) -> TpCommand {
        self.metrics.n_extrapolated += 1;
        self.solve(extrapolated_pose)
    }

    /// Records one re-acquisition spiral step (taken by the simulator on the
    /// controller's behalf).
    pub fn note_reacq_step(&mut self) {
        self.metrics.n_reacq_steps += 1;
    }

    fn solve(&mut self, reported_pose: &Pose) -> TpCommand {
        let Trained {
            mapping,
            tx_vr,
            tx_axes,
        } = &*self.trained;
        let rx_vr = mapping.rx_in_vr(reported_pose);
        let mut res: PointingResult = pointing_with(
            tx_vr,
            tx_axes,
            &rx_vr,
            self.last_voltages,
            self.cfg.v_tol,
            self.cfg.max_iters,
        );
        let mut extra_evals = 0usize;
        if !res.converged {
            // A stale warm start (large headset jump since the last report)
            // can strand the iteration; restart cold once, as the real
            // controller would.
            extra_evals = 2 * res.iterations + 3 * res.gprime_iterations;
            res = pointing_with(
                tx_vr,
                tx_axes,
                &rx_vr,
                [0.0; 4],
                self.cfg.v_tol,
                self.cfg.max_iters,
            );
        }
        // Each outer iteration costs 2 traces; each G' iteration 3 traces
        // plus the plane algebra.
        let evals = 2 * res.iterations + 3 * res.gprime_iterations + extra_evals;
        let latency = self.cfg.dac_latency_s + evals as f64 * self.cfg.compute_per_eval_s;
        if res.converged {
            self.last_voltages = res.voltages;
        }
        if !res.converged {
            self.metrics.n_failures += 1;
        }
        self.metrics.sum_iters += res.iterations as u64;
        self.metrics.max_iters = self.metrics.max_iters.max(res.iterations as u64);
        self.metrics.sum_latency_s += latency;
        self.metrics.max_latency_s = self.metrics.max_latency_s.max(latency);
        TpCommand {
            voltages: res.voltages,
            latency_s: latency,
            iterations: res.iterations,
            converged: res.converged,
        }
    }

    /// The warm-start voltages currently held.
    pub fn last_voltages(&self) -> [f64; 4] {
        self.last_voltages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commission::{commission, SystemConfig};
    use crate::deployment::{cheat_align, Deployment};
    use crate::mapping;
    use crate::pointing::pointing;
    use cyclops_geom::vec3::v3;

    /// Builds a fully-trained controller plus its deployment.
    fn trained_controller(seed: u64) -> (Deployment, TpController) {
        let (dep, ctl, ..) = commission(&SystemConfig::paper_10g(seed));
        (dep, ctl)
    }

    #[test]
    fn tp_realigns_after_headset_moves() {
        // The §5.2 experiment: move the RX randomly, lock it, run TP, check
        // the link reaches (near-)optimal state — 10/10 in the paper.
        let (mut dep, mut ctl) = trained_controller(501);
        let mut successes = 0;
        for k in 0..10 {
            let pose = mapping::random_placement(dep.rng(), 1.75 + 0.01 * k as f64);
            dep.set_headset_pose(pose);
            let report = mapping::noisy_report(&mut dep, &Default::default());
            let cmd = ctl.on_report(&report);
            dep.set_voltages(
                cmd.voltages[0],
                cmd.voltages[1],
                cmd.voltages[2],
                cmd.voltages[3],
            );
            if dep.link_up() {
                successes += 1;
            }
        }
        assert!(
            successes >= 9,
            "only {successes}/10 realignments closed the link"
        );
    }

    #[test]
    fn tp_accuracy_close_to_optimal_power() {
        // §5.2: received power after TP within a few dB of the optimal
        // (paper: −13…−14 dBm vs −10 dBm peak). Sampled over several
        // placements: the focal-spot cross-blur makes residual misalignment
        // cost real dB, so individual placements spread — the median must
        // stay in the paper's few-dB band and no placement may fall off a
        // cliff.
        let mut gaps: Vec<f64> = Vec::new();
        for seed in [500u64, 501, 502, 503, 504, 505, 506, 507] {
            let (mut dep, mut ctl) = trained_controller(seed);
            let pose = mapping::random_placement(dep.rng(), 1.8);
            dep.set_headset_pose(pose);
            let report = mapping::noisy_report(&mut dep, &Default::default());
            let cmd = ctl.on_report(&report);
            dep.set_voltages(
                cmd.voltages[0],
                cmd.voltages[1],
                cmd.voltages[2],
                cmd.voltages[3],
            );
            let tp_power = dep.received_power_dbm();
            cheat_align(&mut dep);
            let best = dep.received_power_dbm();
            gaps.push(best - tp_power);
        }
        gaps.sort_by(|a, b| a.total_cmp(b));
        let median = 0.5 * (gaps[3] + gaps[4]);
        assert!(median < 4.0, "median TP gap {median} dB of {gaps:?}");
        assert!(gaps[7] < 9.0, "worst TP gap {} dB", gaps[7]);
    }

    #[test]
    fn latency_is_one_to_two_ms() {
        let (mut dep, mut ctl) = trained_controller(503);
        for _ in 0..20 {
            let pose = mapping::random_placement(dep.rng(), 1.75);
            dep.set_headset_pose(pose);
            let report = mapping::noisy_report(&mut dep, &Default::default());
            let cmd = ctl.on_report(&report);
            assert!(
                (0.8e-3..2.5e-3).contains(&cmd.latency_s),
                "latency {} ms",
                cmd.latency_s * 1e3
            );
        }
        let m = &ctl.metrics;
        assert_eq!(m.n_reports, 20);
        assert!(m.mean_latency_s() < 2.0e-3);
        assert!(m.mean_iters() >= 1.0 && m.mean_iters() <= 6.0);
    }

    #[test]
    fn cached_tx_model_issues_the_rebuilding_commands() {
        // The reference rebuilds `mapping.tx_in_vr()` and its axes on
        // every solve through the public `pointing`, with the controller's
        // warm start, cold restart and latency accounting.
        let (mut dep, mut ctl) = trained_controller(505);
        let mapping = ctl.mapping().clone();
        let mut warm = ctl.last_voltages();
        let mut restarts = 0;
        for k in 0..40 {
            let pose = mapping::random_placement(dep.rng(), 1.6 + 0.01 * k as f64);
            dep.set_headset_pose(pose);
            let report = mapping::noisy_report(&mut dep, &Default::default());
            // Every fourth solve gets too small a budget to converge, so
            // it restarts cold.
            ctl.cfg.max_iters = if k % 4 == 3 { 1 } else { 12 };
            let cfg = ctl.cfg;
            let cmd = ctl.on_report(&report);

            let (tx_vr, rx_vr) = (mapping.tx_in_vr(), mapping.rx_in_vr(&report));
            let mut res = pointing(&tx_vr, &rx_vr, warm, cfg.v_tol, cfg.max_iters);
            let mut evals = 0;
            if !res.converged {
                restarts += 1;
                evals = 2 * res.iterations + 3 * res.gprime_iterations;
                res = pointing(&tx_vr, &rx_vr, [0.0; 4], cfg.v_tol, cfg.max_iters);
            }
            evals += 2 * res.iterations + 3 * res.gprime_iterations;
            let latency = cfg.dac_latency_s + evals as f64 * cfg.compute_per_eval_s;
            if res.converged {
                warm = res.voltages;
            }
            assert_eq!(
                cmd.voltages.map(f64::to_bits),
                res.voltages.map(f64::to_bits)
            );
            assert_eq!(cmd.latency_s.to_bits(), latency.to_bits());
            assert_eq!(cmd.iterations, res.iterations);
            assert_eq!(cmd.converged, res.converged);
        }
        assert_eq!(ctl.metrics.n_reports, 40);
        assert!(restarts >= 10, "{restarts} cold restarts");
    }

    #[test]
    fn small_motion_uses_warm_start_efficiently() {
        let (mut dep, mut ctl) = trained_controller(504);
        let base = mapping::random_placement(dep.rng(), 1.75);
        dep.set_headset_pose(base);
        let r0 = mapping::noisy_report(&mut dep, &Default::default());
        ctl.on_report(&r0);
        // A 2 mm nudge: pointing should converge in very few iterations.
        let mut nudged = base;
        nudged.trans += v3(0.002, 0.0, 0.0);
        dep.set_headset_pose(nudged);
        let r1 = mapping::noisy_report(&mut dep, &Default::default());
        let before = ctl.metrics.sum_iters;
        ctl.on_report(&r1);
        let iters = ctl.metrics.sum_iters - before;
        assert!(iters <= 3, "warm-started pointing took {iters} iterations");
    }
}
