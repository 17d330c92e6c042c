//! **Ablation: tracking-report loss** — robustness of the TP loop to a lossy
//! control channel, with and without the reliable control plane.
//!
//! §3 sends VRH-T reports to the TX controller over a (wireless) control
//! channel; the paper assumes it is reliable. This ablation drops a fraction
//! of the reports at runtime and measures the tolerated §5.3 speeds twice:
//!
//! * **unprotected** — the paper's architecture on a lossy channel: the TP
//!   holds its last command between reports, so each lost report costs a
//!   tracking period of staleness, and at speed those stale windows break
//!   the ≥95 %-optimal bar (5 % loss already halves tolerated speeds);
//! * **ARQ + DR** — the reliable control plane (`ControlPlaneConfig`):
//!   sequence-numbered ARQ retransmits lost reports within ~3 ms and
//!   constant-velocity dead reckoning covers what ARQ cannot recover.
//!
//! Loss decisions come from the deterministic `FaultPlan` streams, so every
//! number printed here is bit-identical per seed at any thread count — the
//! `chaos` CI job diffs its run digest at one thread and at four.

use cyclops::prelude::*;
use cyclops_bench::{angular_ladder, digest_ladder, linear_ladder, row, section, tolerated_speed};

fn main() {
    let seed = 7u64;
    println!("commissioning 10G system (paper-scale), seed {seed} ...");
    let sys = CyclopsSystem::commission(&SystemConfig::paper_10g(seed));

    section("Ablation: control-channel report loss vs tolerated speed (10G)");
    let lin_speeds: Vec<f64> = (1..=14).map(|k| 0.05 * k as f64).collect();
    let ang_speeds: Vec<f64> = (1..=12).map(|k| (2.0 * k as f64).to_radians()).collect();
    let widths = [12, 14, 22, 22];
    row(
        &[
            "loss".into(),
            "plane".into(),
            "tol. linear".into(),
            "tol. angular".into(),
        ],
        &widths,
    );
    let mut digest = 0u64;
    let mut baseline_ang = 0.0f64;
    let mut hardened_5pct_ang = 0.0f64;
    for loss in [0.0, 0.05, 0.10, 0.20, 0.40] {
        for hardened in [false, true] {
            if loss == 0.0 && hardened {
                continue; // mitigations are a no-op on a clean channel
            }
            let mut s = sys.clone();
            let fault = FaultPlan::iid_loss(40, loss);
            s.control = Some(if hardened {
                ControlPlaneConfig::hardened(fault)
            } else {
                ControlPlaneConfig::unprotected(fault)
            });
            let lin_pts = linear_ladder(&s, &lin_speeds, 6.0);
            let ang_pts = angular_ladder(&s, &ang_speeds, 6.0);
            digest = digest_ladder(digest, &lin_pts);
            digest = digest_ladder(digest, &ang_pts);
            let lin = tolerated_speed(&lin_pts);
            let ang = tolerated_speed(&ang_pts);
            if loss == 0.0 {
                baseline_ang = ang;
            }
            if hardened && (loss - 0.05).abs() < 1e-9 {
                hardened_5pct_ang = ang;
            }
            row(
                &[
                    format!("{:.0}%", loss * 100.0),
                    if hardened { "ARQ+DR" } else { "none" }.into(),
                    format!("{:.0} cm/s", lin * 100.0),
                    format!("{:.0} deg/s", ang.to_degrees()),
                ],
                &widths,
            );
        }
    }

    println!("\nunprotected, the TP loop freewheels on its last command between");
    println!("reports and never destabilizes, but the §5.3 criterion (≥95% of");
    println!("windows optimal) is far harsher on loss than on a uniformly slower");
    println!("tracker: each lost report doubles the staleness of a few windows,");
    println!("and even 5% loss halves the tolerated speeds. With the reliable");
    println!("control plane, ARQ retransmits recover almost every loss within a");
    println!("few ms and dead reckoning bridges the rest.");
    println!(
        "\nARQ+DR at 5% loss: {:.0} deg/s vs loss-free {:.0} deg/s ({:.0}% retained)",
        hardened_5pct_ang.to_degrees(),
        baseline_ang.to_degrees(),
        100.0 * hardened_5pct_ang / baseline_ang.max(1e-9)
    );
    assert!(
        hardened_5pct_ang >= 0.8 * baseline_ang,
        "acceptance: ARQ+DR at 5% loss must retain ≥80% of the loss-free angular speed"
    );
    println!("run digest: {digest:016x} (seed-deterministic at any thread count)");
}
