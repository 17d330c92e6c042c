//! End-to-end throughput behaviour (the mechanism behind Figs 13–15) as
//! integration tests: slow motion sustains line rate, fast motion collapses,
//! and the 25G link tolerates less than the 10G link.

use cyclops::link::engine::SingleTx;
use cyclops::prelude::*;
use std::sync::OnceLock;

/// One paper-scale 10G commissioning shared by the tests in this file.
fn commissioned() -> CyclopsSystem {
    static SYS: OnceLock<CyclopsSystem> = OnceLock::new();
    SYS.get_or_init(|| CyclopsSystem::commission(&SystemConfig::paper_10g(1500)))
        .clone()
}

/// Runs `motion` against the shared commissioning for `duration_s`.
fn run<M: Motion>(motion: M, duration_s: f64) -> (Vec<EngineSlot>, LinkSession<M, SingleTx>) {
    let mut session = commissioned()
        .into_session_builder(motion)
        .build()
        .expect("valid engine config");
    (session.run(duration_s), session)
}

fn sim_with_rail(v: f64) -> Vec<EngineSlot> {
    let base = Pose::translation(Vec3::new(0.0, 0.0, 1.75));
    let mut rail = LinearRail::paper_protocol(base, Vec3::X);
    rail.v0 = v;
    rail.dv = 0.0;
    run(rail, 6.0).0
}

fn up_fraction(recs: &[EngineSlot]) -> f64 {
    recs.iter().filter(|r| r.link_up).count() as f64 / recs.len() as f64
}

#[test]
fn slow_linear_motion_sustains_line_rate_10g() {
    let recs = sim_with_rail(0.08);
    assert!(up_fraction(&recs) > 0.97, "up {}", up_fraction(&recs));
    let tp: f64 = recs.iter().map(|r| r.goodput_gbps).sum::<f64>() / recs.len() as f64;
    assert!(tp > 9.0, "mean goodput {tp} Gbps (optimal 9.4)");
}

#[test]
fn excessive_linear_speed_collapses_throughput() {
    let recs = sim_with_rail(1.5);
    assert!(up_fraction(&recs) < 0.5, "up {}", up_fraction(&recs));
}

#[test]
fn slow_rotation_sustains_line_rate() {
    let base = Pose::translation(Vec3::new(0.0, 0.0, 1.75));
    let mut stage = RotationStage::paper_protocol(base, Vec3::Y);
    stage.w0 = 8.0f64.to_radians();
    stage.dw = 0.0;
    let up = up_fraction(&run(stage, 6.0).0);
    assert!(up > 0.95, "up fraction {up} at 8 deg/s");
}

#[test]
fn outage_costs_seconds_due_to_relink() {
    // One fast stroke breaks the link; even after motion stops the SFP
    // relink hysteresis keeps throughput at zero for seconds (§5.3: "once
    // the link is lost, it takes a few seconds to regain").
    struct Burst {
        base: Pose,
    }
    impl Motion for Burst {
        fn pose_at(&mut self, t: f64) -> Pose {
            // 1 m/s for 0.2 s, then frozen (still inside the trained
            // placement envelope).
            let x = t.min(0.2) * 1.0;
            Pose::new(self.base.rot, self.base.trans + Vec3::new(x, 0.0, 0.0))
        }
    }
    let motion = Burst {
        base: Pose::translation(Vec3::new(0.0, 0.0, 1.75)),
    };
    let (recs, sim) = run(motion, 4.0);
    // Link must be down at t = 1 s (motion stopped at 0.2 s, TP has long
    // realigned the optics, but the SFP is still re-locking).
    let at_1s = &recs[999];
    assert!(!at_1s.link_up, "relink hysteresis missing");
    // Optical signal is already back, though:
    assert!(
        at_1s.power_dbm >= sim.units()[0].dep.design.sfp.rx_sensitivity_dbm,
        "optics should be realigned by 1 s (power {})",
        at_1s.power_dbm
    );
    // And the link eventually returns.
    assert!(recs.last().unwrap().link_up, "link should be back by 4 s");
}

#[test]
fn link_25g_has_less_margin_than_10g() {
    let sys10 = CyclopsSystem::commission(&SystemConfig::fast_10g(1505));
    let sys25 = CyclopsSystem::commission(&SystemConfig {
        deployment: cyclops::core::deployment::DeploymentConfig::paper_25g(1505),
        ..SystemConfig::fast_10g(1505)
    });
    let m10 = sys10.dep.design.nominal_margin_db();
    let m25 = sys25.dep.design.nominal_margin_db();
    assert!(
        m25 < m10 - 5.0,
        "25G margin {m25} dB should be well below 10G {m10} dB (§5.3.1: ~13 dB less budget)"
    );
}
