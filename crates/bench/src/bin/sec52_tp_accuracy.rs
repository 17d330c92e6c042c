//! **§5.2 "TP Performance"** — tracking frequency, TP latency and accuracy.
//!
//! Regenerates the three measurements of the section:
//! * the VRH-T report-period distribution (12–13 ms, 0.7 % at 14–15 ms);
//! * the TP latency budget (computation µs-scale, ~1–2 ms DAC-dominated);
//! * the lock-in accuracy test: move randomly, lock, run TP once, compare
//!   received power/throughput against the exhaustively-aligned optimum
//!   (paper: 10/10 optimal throughput, power −13…−14 dBm vs −10 dBm peak).

use cyclops::core::deployment::cheat_align;
use cyclops::core::mapping;
use cyclops::prelude::*;
use cyclops_bench::{row, section};

fn main() {
    let seed = 52u64;
    section("§5.2: tracking frequency");
    // Tracking-period statistics from the tracker model: each report draws
    // its noise, then the period to the next report.
    let tracker = TrackerConfig::default();
    let clean =
        cyclops::vrh::headset::Headset::new(cyclops::vrh::headset::HeadsetConfig::identity())
            .true_reported_pose();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    let mut periods = Vec::new();
    let (mut t, mut last) = (0.0, 0.0);
    for i in 0..50_000 {
        tracker.jitter(clean, &mut rng);
        if i > 0 {
            periods.push(t - last);
        }
        last = t;
        t += tracker.draw_period(&mut rng);
    }
    let late = periods.iter().filter(|&&p| p >= 0.0139).count() as f64 / periods.len() as f64;
    let lo = periods.iter().cloned().fold(f64::INFINITY, f64::min) * 1e3;
    let hi = periods.iter().cloned().fold(0.0f64, f64::max) * 1e3;
    println!(
        "report period: {lo:.1}-{hi:.1} ms, {:.2}% late (paper: 12-13 ms, 0.7% at 14-15 ms)",
        late * 100.0
    );

    section("§5.2: TP lock-in accuracy (10 random realignments)");
    println!("commissioning 10G system ...");
    let mut sys = CyclopsSystem::commission(&SystemConfig::paper_10g(seed));
    let widths = [6, 14, 14, 12, 10];
    row(
        &[
            "trial".into(),
            "TP power".into(),
            "optimal".into(),
            "gap (dB)".into(),
            "link".into(),
        ],
        &widths,
    );
    let mut ups = 0;
    let mut gaps = Vec::new();
    for trial in 0..10 {
        let pose = mapping::random_placement(sys.dep.rng(), 1.75);
        sys.move_headset(pose);
        let rep = sys.track();
        sys.point(&rep);
        let tp_power = sys.received_power_dbm();
        let up = sys.link_up();
        cheat_align(&mut sys.dep);
        let best = sys.received_power_dbm();
        gaps.push(best - tp_power);
        if up {
            ups += 1;
        }
        row(
            &[
                format!("{}", trial + 1),
                format!("{tp_power:.1} dBm"),
                format!("{best:.1} dBm"),
                format!("{:.1}", best - tp_power),
                (if up { "UP" } else { "DOWN" }).into(),
            ],
            &widths,
        );
    }
    let mean_gap = gaps.iter().sum::<f64>() / gaps.len() as f64;
    println!("\n{ups}/10 trials at optimal link state (paper: 10/10)");
    println!("mean power gap to optimum: {mean_gap:.1} dB (paper: ~3-4 dB)");

    section("§5.2: TP latency");
    let m = &sys.ctl.metrics;
    println!(
        "pointing latency: mean {:.2} ms, max {:.2} ms over {} reports (paper: 1-2 ms)",
        m.mean_latency_s() * 1e3,
        m.max_latency_s * 1e3,
        m.n_reports
    );
    println!(
        "pointing iterations: mean {:.1}, max {} (paper: P converges in 2-5)",
        m.mean_iters(),
        m.max_iters
    );
    println!("pointing failures: {}", m.n_failures);
}
