//! Drift and mapping-only re-calibration — the §4 operational story:
//! "in case of re-deployment or VRH-T drift, the only re-training
//! (calibration) that needs to be re-done is the mapping step."
//!
//! This example commissions a link, lets the headset tracker re-anchor its
//! map (a real SLAM behaviour that shifts the hidden VR-space), watches the
//! drift monitor flag the degradation, and repairs it with a 10-placement
//! mapping-only re-calibration — reusing the grid-board models untouched.
//!
//! ```sh
//! cargo run --release --example recalibration
//! ```

use cyclops::core::mapping;
use cyclops::core::recalib::{recalibrate_mapping, DriftMonitor};
use cyclops::core::tp::TpController;
use cyclops::geom::rotation::from_rotation_vector;
use cyclops::prelude::*;

/// Mean TP-aligned power over a few random placements.
fn probe(sys_dep: &mut cyclops::core::deployment::Deployment, ctl: &mut TpController) -> f64 {
    let mut acc = 0.0;
    const N: usize = 5;
    for _ in 0..N {
        let pose = mapping::random_placement(sys_dep.rng(), 1.75);
        sys_dep.set_headset_pose(pose);
        let rep = mapping::noisy_report(sys_dep, &TrackerConfig::default());
        let cmd = ctl.on_report(&rep);
        sys_dep.set_voltages(
            cmd.voltages[0],
            cmd.voltages[1],
            cmd.voltages[2],
            cmd.voltages[3],
        );
        acc += sys_dep.received_power_dbm().max(-40.0);
    }
    acc / N as f64
}

fn main() {
    println!("== Drift + mapping-only re-calibration ==\n");
    println!("commissioning 10G system ...");
    let sys = CyclopsSystem::commission(&SystemConfig::paper_10g(2026));
    let mut dep = sys.dep;
    let mut ctl = sys.ctl;

    let healthy = probe(&mut dep, &mut ctl);
    println!("healthy: mean TP-aligned power {healthy:.1} dBm");
    let mut monitor = DriftMonitor::new(healthy, 4.0);

    // The tracker re-anchors: VR-space shifts by ~2 cm / ~1.7°.
    println!("\n[tracker re-localizes: hidden VR-space shifts 2 cm / 1.7°]");
    let drift = Pose::new(
        from_rotation_vector(Vec3::new(0.0, 0.03, 0.0)),
        Vec3::new(0.02, -0.01, 0.015),
    );
    dep.headset.apply_vr_drift(&drift);

    // The monitor sees the sustained power shortfall within a few reports.
    let mut flagged_after = None;
    for k in 1..=12 {
        let p = probe(&mut dep, &mut ctl);
        if monitor.observe(p) && flagged_after.is_none() {
            flagged_after = Some(k);
        }
    }
    println!(
        "degraded: mean TP-aligned power {:.1} dBm; drift flagged after {} probe rounds",
        monitor.ewma_dbm(),
        flagged_after.map_or("never".into(), |k: usize| k.to_string())
    );

    // Mapping-only repair: 10 exhaustive placements, grid-board models reused.
    println!("\n[re-running §4.2 only: 10 placements, K-space models untouched]");
    let re = recalibrate_mapping(&mut dep, ctl.mapping(), 10, 4077);
    let v = dep.voltages();
    let mut ctl2 = TpController::new(re.trained, Default::default(), [v.0, v.1, v.2, v.3]);
    let recovered = probe(&mut dep, &mut ctl2);
    println!("recovered: mean TP-aligned power {recovered:.1} dBm");
    println!(
        "\nfull commissioning aligns ~30 placements + 2×266 board points;\nthe repair needed {} placements and no board time at all.",
        re.samples.len()
    );
}
