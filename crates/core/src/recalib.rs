//! Drift detection and mapping-only re-calibration.
//!
//! §4 (Offline vs. Online Training): "in case of re-deployment or VRH-T
//! drift, the only re-training (calibration) that needs to be re-done is the
//! mapping step" — the K-space models `G` are properties of the assemblies
//! and survive; only the 12 mapping parameters go stale when the tracker's
//! VR-space shifts (SLAM re-anchoring, a bumped ceiling unit, a re-seated
//! headset mount).
//!
//! This module adds the operational half the paper leaves implicit:
//!
//! * [`DriftMonitor`] — watches the aligned received power the TP achieves
//!   after each realignment; a sustained drop below the commissioning
//!   baseline flags stale mapping;
//! * [`recalibrate_mapping`] — re-runs *only* §4.2 (a handful of exhaustive
//!   alignments plus the 12-parameter fit, warm-started from the stale
//!   mapping), about an order of magnitude cheaper than full commissioning.

use crate::deployment::Deployment;
use crate::mapping::{self, MappingTraining, TrainedMapping};

/// Exponentially-weighted monitor of post-realignment received power.
#[derive(Debug, Clone, Copy)]
pub struct DriftMonitor {
    /// Baseline aligned power established at commissioning (dBm).
    pub baseline_dbm: f64,
    /// Trigger threshold: flag drift when the EWMA falls this many dB below
    /// the baseline.
    pub threshold_db: f64,
    /// EWMA smoothing factor per observation (0..1; higher = faster).
    pub alpha: f64,
    ewma_dbm: f64,
    n_obs: u64,
    below_streak: u32,
}

impl DriftMonitor {
    /// Creates a monitor with the given baseline (typically the mean aligned
    /// power over the last few commissioning placements).
    pub fn new(baseline_dbm: f64, threshold_db: f64) -> DriftMonitor {
        DriftMonitor {
            baseline_dbm,
            threshold_db,
            alpha: 0.2,
            ewma_dbm: baseline_dbm,
            n_obs: 0,
            below_streak: 0,
        }
    }

    /// Feeds one post-realignment power observation. Returns `true` when
    /// drift is flagged — which requires the smoothed power to sit below the
    /// threshold for several *consecutive* observations, so one outage
    /// reading (however deep) cannot trip it alone.
    pub fn observe(&mut self, aligned_power_dbm: f64) -> bool {
        // Clamp crazy readings (full misses) so one outage doesn't dominate
        // the average for dozens of observations.
        let p = aligned_power_dbm.max(self.baseline_dbm - 15.0);
        self.ewma_dbm = if self.n_obs == 0 {
            p
        } else {
            (1.0 - self.alpha) * self.ewma_dbm + self.alpha * p
        };
        self.n_obs += 1;
        if self.is_drifted() {
            self.below_streak += 1;
        } else {
            self.below_streak = 0;
        }
        self.n_obs >= 5 && self.below_streak >= 3
    }

    /// Current smoothed aligned power (dBm).
    pub fn ewma_dbm(&self) -> f64 {
        self.ewma_dbm
    }

    /// Whether the smoothed power sits below the trigger threshold.
    pub fn is_drifted(&self) -> bool {
        self.ewma_dbm < self.baseline_dbm - self.threshold_db
    }
}

/// Re-runs the §4.2 mapping step only: collects `n_samples` fresh
/// exhaustively-aligned placements and refits the 12 parameters,
/// warm-started from the stale mapping (the K-space models are reused
/// untouched).
pub fn recalibrate_mapping(
    dep: &mut Deployment,
    stale: &TrainedMapping,
    n_samples: usize,
    seed: u64,
) -> MappingTraining {
    let samples = mapping::collect_samples(dep, n_samples, seed);
    assert!(
        samples.len() >= 4,
        "re-calibration collected only {} usable placements — the optical \
         link cannot close at this deployment's geometry; re-run the full \
         commissioning (or check the install) instead",
        samples.len()
    );
    let trained = mapping::fit(
        &stale.tx_model,
        &stale.rx_model,
        &samples,
        stale.tx_map.to_params(),
        stale.rx_map.to_params(),
    );
    MappingTraining { trained, samples }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commission::{commission, SystemConfig};
    use crate::tp::{TpConfig, TpController};
    use cyclops_geom::pose::Pose;
    use cyclops_geom::rotation::from_rotation_vector;
    use cyclops_geom::vec3::v3;

    #[test]
    fn monitor_triggers_on_sustained_drop_only() {
        let mut m = DriftMonitor::new(-12.0, 3.0);
        // A single bad reading among good ones: no trigger — even a deep one
        // after the warm-up.
        assert!(!m.observe(-12.1));
        assert!(!m.observe(-30.0));
        assert!(!m.observe(-12.0));
        assert!(!m.observe(-11.9));
        assert!(!m.observe(-12.2));
        assert!(!m.observe(-12.0));
        assert!(
            !m.observe(-60.0),
            "one outage reading must not trip the flag"
        );
        assert!(!m.observe(-12.0));
        assert!(!m.observe(-12.1));
        // Sustained 6 dB shortfall: triggers within a handful of reports.
        let mut fired = false;
        for _ in 0..20 {
            fired |= m.observe(-18.0);
        }
        assert!(fired);
        assert!(m.is_drifted());
    }

    #[test]
    fn mapping_only_recalibration_recovers_from_vr_space_shift() {
        // Full commissioning.
        let seed = 7100u64;
        let (mut dep, mut ctl, ..) = commission(&SystemConfig {
            mapping_samples: 25,
            ..SystemConfig::paper_10g(seed)
        });

        let probe = |dep: &mut Deployment, ctl: &mut TpController| -> f64 {
            // Mean TP-aligned power over a few placements.
            let mut acc = 0.0;
            const N: usize = 4;
            for _ in 0..N {
                let pose = mapping::random_placement(dep.rng(), 1.75);
                dep.set_headset_pose(pose);
                let rep = mapping::noisy_report(dep, &Default::default());
                let cmd = ctl.on_report(&rep);
                dep.set_voltages(
                    cmd.voltages[0],
                    cmd.voltages[1],
                    cmd.voltages[2],
                    cmd.voltages[3],
                );
                acc += dep.received_power_dbm().max(-40.0);
            }
            acc / N as f64
        };

        let healthy = probe(&mut dep, &mut ctl);
        assert!(healthy > -20.0, "healthy TP power {healthy} dBm");

        // The tracker re-anchors: VR-space shifts by 2 cm and ~1.7°.
        let drift = Pose::new(
            from_rotation_vector(v3(0.0, 0.03, 0.0)),
            v3(0.02, -0.01, 0.015),
        );
        dep.headset.apply_vr_drift(&drift);

        let broken = probe(&mut dep, &mut ctl);
        assert!(
            broken < healthy - 10.0,
            "drift should hurt: {healthy} -> {broken} dBm"
        );

        // Mapping-only recalibration: 10 placements, K-space models reused.
        let re = recalibrate_mapping(&mut dep, ctl.mapping(), 10, seed + 77);
        assert!(re.samples.len() >= 8);
        let v = dep.voltages();
        let mut ctl2 = TpController::new(re.trained, TpConfig::default(), [v.0, v.1, v.2, v.3]);
        let recovered = probe(&mut dep, &mut ctl2);
        assert!(
            recovered > broken + 8.0 && recovered > -20.0,
            "recalibration should recover: healthy {healthy}, broken {broken}, recovered {recovered} dBm"
        );
    }
}
