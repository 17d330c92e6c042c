//! The paper's full deployment procedure (§4, Fig 6) as one function.
//!
//! [`commission`] runs it end to end:
//!
//! 1. build the bench (hidden-truth hardware) from a seed;
//! 2. **stage 1** — calibrate both galvo assemblies on the grid board,
//!    fitting the model `G` for each (§4.1);
//! 3. **stage 2** — collect exhaustively-aligned placements and jointly fit
//!    the 12 K-space→VR-space mapping parameters (§4.2);
//! 4. hand back a ready [`TpController`] plus a [`CommissioningReport`]
//!    carrying the Table-2-style error statistics.

use crate::deployment::{Deployment, DeploymentConfig};
use crate::kspace::{self, BoardConfig};
use crate::mapping::{self, MappingSample};
use crate::tp::{TpConfig, TpController};
use cyclops_solver::stats::ResidualStats;
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

/// Runs the full §4 deployment procedure: returns the bench, its trained TP
/// controller (warm-started at the bench's current voltages), the training
/// diagnostics and the mapping training set. At one thread on a shared
/// 2-vCPU x86-64 host it takes about 0.007 s for [`SystemConfig::fast_10g`]
/// and 0.022 s for [`SystemConfig::paper_10g`] (seed 42, best of 15); host
/// load can double that.
///
/// Panics if stage 1 fails or stage 2 cannot align enough placements — a
/// deployment whose link cannot close over its working volume.
pub fn commission(
    cfg: &SystemConfig,
) -> (
    Deployment,
    TpController,
    CommissioningReport,
    Vec<MappingSample>,
) {
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
    (dep, ctl, report, mt.samples)
}
