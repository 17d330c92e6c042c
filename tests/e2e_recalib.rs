//! End-to-end drift + mapping-only re-calibration: the §4 operational story
//! ("in case of re-deployment or VRH-T drift, the only re-training that
//! needs to be re-done is the mapping step"), asserted rather than just
//! demonstrated (see `examples/recalibration.rs` for the narrated version).

use cyclops::core::mapping;
use cyclops::core::recalib::{recalibrate_mapping, DriftMonitor};
use cyclops::core::tp::TpController;
use cyclops::geom::rotation::from_rotation_vector;
use cyclops::prelude::*;

/// Mean TP-aligned power over a few random placements.
fn probe(
    dep: &mut cyclops::core::deployment::Deployment,
    ctl: &mut TpController,
    tracker: &TrackerConfig,
) -> f64 {
    let mut acc = 0.0;
    const N: usize = 5;
    for _ in 0..N {
        let pose = mapping::random_placement(dep.rng(), 1.75);
        dep.set_headset_pose(pose);
        let rep = mapping::noisy_report(dep, tracker);
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
}

#[test]
fn drift_is_flagged_and_mapping_only_recalibration_recovers() {
    let sys = CyclopsSystem::commission(&SystemConfig::fast_10g(77));
    let tracker = sys.tracker;
    let mut dep = sys.dep;
    let mut ctl = sys.ctl;

    let healthy = probe(&mut dep, &mut ctl, &tracker);
    assert!(healthy > -20.0, "commissioned TP unhealthy: {healthy} dBm");
    let mut monitor = DriftMonitor::new(healthy, 4.0);

    // Healthy operation must not trip the monitor.
    for _ in 0..6 {
        let p = probe(&mut dep, &mut ctl, &tracker);
        assert!(!monitor.observe(p), "false drift alarm at {p} dBm");
    }

    // The tracker re-anchors: hidden VR-space shifts ~2 cm / ~1.7°.
    let drift = Pose::new(
        from_rotation_vector(Vec3::new(0.0, 0.03, 0.0)),
        Vec3::new(0.02, -0.01, 0.015),
    );
    dep.headset.apply_vr_drift(&drift);

    // The monitor must flag the sustained shortfall within a dozen rounds.
    let mut flagged = false;
    let mut degraded = f64::INFINITY;
    for _ in 0..12 {
        let p = probe(&mut dep, &mut ctl, &tracker);
        degraded = degraded.min(p);
        if monitor.observe(p) {
            flagged = true;
            break;
        }
    }
    assert!(flagged, "drift never flagged (worst probe {degraded} dBm)");
    assert!(
        degraded < healthy - 4.0,
        "drift should cost several dB: healthy {healthy}, degraded {degraded}"
    );

    // Mapping-only repair: a handful of placements, board models untouched.
    let re = recalibrate_mapping(&mut dep, ctl.mapping(), 10, 4077);
    let v = dep.voltages();
    let mut ctl2 = TpController::new(re.trained, Default::default(), [v.0, v.1, v.2, v.3]);
    let recovered = probe(&mut dep, &mut ctl2, &tracker);
    assert!(
        recovered > healthy - 3.0,
        "recalibration must restore TP power: healthy {healthy}, recovered {recovered}"
    );
}
