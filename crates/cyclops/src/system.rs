//! High-level system API: commission, track, point.
//!
//! [`CyclopsSystem::commission`] runs the paper's full deployment procedure
//! (§4, Fig 6) through [`cyclops_core::commission()`] and wraps the result in
//! a track-and-point handle.

pub use cyclops_core::commission::{CommissioningReport, SystemConfig};

use cyclops_core::deployment::Deployment;
use cyclops_core::mapping::{self, MappingSample};
use cyclops_core::tp::TpController;
use cyclops_geom::pose::Pose;
use cyclops_link::control::ControlPlaneConfig;
use cyclops_link::engine::{EngineConfig, FirstReport, SessionBuilder, SingleTx};
use cyclops_vrh::motion::Motion;
use cyclops_vrh::tracking::TrackerConfig;

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
    /// Runs the full §4 deployment procedure,
    /// [`cyclops_core::commission()`], whose documentation gives its run
    /// time.
    pub fn commission(cfg: &SystemConfig) -> CyclopsSystem {
        let (dep, ctl, report, mapping_samples) = cyclops_core::commission(cfg);
        CyclopsSystem {
            dep,
            ctl,
            report,
            tracker: cfg.tracker,
            control: None,
            mapping_samples,
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
