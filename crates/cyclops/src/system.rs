//! High-level system API: commission, track, point.
//!
//! [`CyclopsSystem::commission`] runs the paper's full deployment procedure
//! (§4, Fig 6) end to end:
//!
//! 1. build the bench (hidden-truth hardware) from a seed;
//! 2. **stage 1** — calibrate both galvo assemblies on the grid board,
//!    fitting the model `G` for each (§4.1);
//! 3. **stage 2** — collect exhaustively-aligned placements and jointly fit
//!    the 12 K-space→VR-space mapping parameters (§4.2);
//! 4. hand back a ready [`TpController`] plus a [`CommissioningReport`]
//!    carrying the Table-2-style error statistics.

use cyclops_core::deployment::{Deployment, DeploymentConfig};
use cyclops_core::kspace::{self, BoardConfig};
use cyclops_core::mapping::{self, MappingSample};
use cyclops_core::tp::{TpConfig, TpController};
use cyclops_geom::pose::Pose;
use cyclops_link::control::ControlPlaneConfig;
use cyclops_link::engine::{EngineConfig, FirstReport, SessionBuilder, SingleTx};
use cyclops_solver::stats::ResidualStats;
use cyclops_vrh::motion::Motion;
use cyclops_vrh::tracking::TrackerConfig;

/// Configuration for commissioning a system.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// The bench/hardware configuration.
    pub deployment: DeploymentConfig,
    /// The K-space calibration board.
    pub board: BoardConfig,
    /// Number of §4.2 mapping placements (the paper uses ~30).
    pub mapping_samples: usize,
    /// Tracking-system characteristics.
    pub tracker: TrackerConfig,
    /// TP controller timing.
    pub tp: TpConfig,
    /// "Manual measurement" accuracy of the deployment-time initial guess
    /// (metres, radians).
    pub rough_guess: (f64, f64),
    /// Master seed.
    pub seed: u64,
}

impl SystemConfig {
    /// The paper's 10G prototype, full-size training.
    pub fn paper_10g(seed: u64) -> SystemConfig {
        SystemConfig {
            deployment: DeploymentConfig::paper_10g(seed),
            board: BoardConfig::default(),
            mapping_samples: 30,
            tracker: TrackerConfig::default(),
            tp: TpConfig::default(),
            rough_guess: (0.05, 0.08),
            seed,
        }
    }

    /// The paper's 25G prototype (§5.3.1).
    pub fn paper_25g(seed: u64) -> SystemConfig {
        SystemConfig {
            deployment: DeploymentConfig::paper_25g(seed),
            ..SystemConfig::paper_10g(seed)
        }
    }

    /// A reduced-budget 10G commissioning for examples/doc tests: a smaller
    /// board and fewer mapping placements (seconds instead of tens of
    /// seconds), at slightly reduced accuracy.
    pub fn fast_10g(seed: u64) -> SystemConfig {
        SystemConfig {
            board: BoardConfig {
                cols: 10,
                rows: 8,
                cell_m: 0.0508,
            },
            mapping_samples: 12,
            ..SystemConfig::paper_10g(seed)
        }
    }

    /// Builds a commissioning config from a registry hardware profile
    /// (`cyclops_link::registry`): the profile's optical design and galvo
    /// non-idealities over the paper's assembly tolerances, the profile's
    /// headset tracker, and the fast training budget (the CLI's default).
    pub fn from_profile(hw: &cyclops_link::registry::HardwareProfile, seed: u64) -> SystemConfig {
        SystemConfig {
            deployment: hw.deployment_config(seed),
            tracker: hw.tracker(),
            ..SystemConfig::fast_10g(seed)
        }
    }
}

/// Training diagnostics (the numbers behind Table 2).
#[derive(Debug, Clone)]
pub struct CommissioningReport {
    /// Stage-1 board-hit error of the TX model (metres).
    pub kspace_tx: ResidualStats,
    /// Stage-1 board-hit error of the RX model (metres).
    pub kspace_rx: ResidualStats,
    /// Combined (stage 1+2) Lemma-1 error on the TX side (metres).
    pub combined_tx: ResidualStats,
    /// Combined error on the RX side (metres).
    pub combined_rx: ResidualStats,
    /// Number of mapping placements actually aligned and used.
    pub mapping_samples_used: usize,
}

/// A commissioned Cyclops link: bench + trained controller.
#[derive(Debug, Clone)]
pub struct CyclopsSystem {
    /// The simulated bench (plays the role of the physical hardware).
    pub dep: Deployment,
    /// The trained TP controller.
    pub ctl: TpController,
    /// Training diagnostics.
    pub report: CommissioningReport,
    /// Tracker configuration used for reports.
    pub tracker: TrackerConfig,
    /// Control-plane configuration for simulations built from this system:
    /// fault injection plus ARQ/dead-reckoning/re-acquisition mitigations.
    /// `None` (the default) keeps the legacy reliable-channel path.
    pub control: Option<ControlPlaneConfig>,
    /// The mapping training set (kept for evaluation).
    pub mapping_samples: Vec<MappingSample>,
}

impl CyclopsSystem {
    /// Runs the full §4 deployment procedure. Takes seconds for
    /// [`SystemConfig::paper_10g`]-scale training.
    pub fn commission(cfg: &SystemConfig) -> CyclopsSystem {
        let mut dep = Deployment::new(&cfg.deployment);
        let (tx_tr, tx_rig, rx_tr, rx_rig) =
            kspace::train_both(&dep, &cfg.board, cfg.seed).expect("stage-1 K-space training");
        let (init_tx, init_rx) = mapping::rough_initial_guess(
            &dep,
            &tx_rig,
            &rx_rig,
            cfg.rough_guess.0,
            cfg.rough_guess.1,
            cfg.seed.wrapping_add(7),
        );
        let mt = mapping::train_with(
            &mut dep,
            &tx_tr.fitted,
            &rx_tr.fitted,
            init_tx,
            init_rx,
            cfg.mapping_samples,
            cfg.seed.wrapping_add(9),
            &cfg.tracker,
        );
        let (combined_tx, combined_rx) = mt.trained.combined_errors(&mt.samples);
        let report = CommissioningReport {
            kspace_tx: tx_tr.train_error,
            kspace_rx: rx_tr.train_error,
            combined_tx,
            combined_rx,
            mapping_samples_used: mt.samples.len(),
        };
        let v0 = dep.voltages();
        let ctl = TpController::new(mt.trained, cfg.tp, [v0.0, v0.1, v0.2, v0.3]);
        CyclopsSystem {
            dep,
            ctl,
            report,
            tracker: cfg.tracker,
            control: None,
            mapping_samples: mt.samples,
        }
    }

    /// Moves the headset to a new true pose.
    pub fn move_headset(&mut self, pose: Pose) {
        self.dep.set_headset_pose(pose);
    }

    /// Takes one (noisy) tracking report of the current pose.
    pub fn track(&mut self) -> Pose {
        mapping::noisy_report(&mut self.dep, &self.tracker)
    }

    /// Runs the pointing function on a report and applies the voltages.
    /// Returns the TP latency (seconds).
    pub fn point(&mut self, reported: &Pose) -> f64 {
        let cmd = self.ctl.on_report(reported);
        let settle = self.dep.set_voltages(
            cmd.voltages[0],
            cmd.voltages[1],
            cmd.voltages[2],
            cmd.voltages[3],
        );
        cmd.latency_s + settle
    }

    /// Received power right now (dBm).
    pub fn received_power_dbm(&mut self) -> f64 {
        self.dep.received_power_dbm()
    }

    /// Whether the optical link currently closes.
    pub fn link_up(&mut self) -> bool {
        self.dep.link_up()
    }

    /// Consumes the system into a pre-seeded 1 ms-slot engine
    /// [`SessionBuilder`] over a motion: the single-TX profile with this
    /// system's tracker and control plane, the first report one tracker
    /// period in (the paper's "starts with a perfectly aligned beam").
    /// Chain further calls (e.g.
    /// [`telemetry`](SessionBuilder::telemetry)) before `.build()`.
    pub fn into_session_builder<M: Motion>(self, motion: M) -> SessionBuilder<M, SingleTx> {
        let cfg = EngineConfig {
            tracker: self.tracker,
            control: self.control,
            ..EngineConfig::default()
        };
        cyclops_link::engine::LinkSession::builder(motion)
            .deployment(self.dep, self.ctl)
            .config(cfg)
            .first_report(FirstReport::AfterPeriod)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclops_geom::vec3::v3;

    #[test]
    fn fast_commissioning_produces_working_system() {
        let mut sys = CyclopsSystem::commission(&SystemConfig::fast_10g(99));
        assert!(sys.report.mapping_samples_used >= 8);
        assert!(sys.report.kspace_tx.mean < 5e-3);
        // Track-and-point closes the link at a new pose.
        sys.move_headset(Pose::translation(v3(0.1, -0.08, 1.85)));
        let rep = sys.track();
        let latency = sys.point(&rep);
        assert!(
            latency < 10e-3,
            "latency {latency} (includes slew for a large initial move)"
        );
        assert!(sys.link_up(), "power {}", sys.received_power_dbm());
    }

    #[test]
    fn system_converts_to_session() {
        use cyclops_vrh::motion::StaticPose;
        let sys = CyclopsSystem::commission(&SystemConfig::fast_10g(100));
        let pose = Pose::translation(v3(0.0, 0.0, 1.75));
        let mut session = sys
            .into_session_builder(StaticPose(pose))
            .build()
            .expect("valid engine config");
        let recs = session.run(0.5);
        assert_eq!(recs.len(), 500);
        let up = recs.iter().filter(|r| r.link_up).count();
        assert!(up > 495, "up slots {up}");
    }
}
