//! **Fig 16** — CDF of per-trace link disconnection over 500 user traces
//! (§5.4), using the paper's own simulation methodology.
//!
//! Paper: "our 25 Gbps link prototype is operational in 98.6 % of the
//! timeslots over all the 500 traces, with the operation percentage varying
//! from 99.98 to 95 %"; effective bandwidth ≈ 23 Gbps; >60 % of off-slots
//! fall in frames with fewer than 10 off-slots.

use cyclops::link::trace_sim::{replay_with_fallback, simulate_trace, TraceSimParams};
use cyclops::prelude::*;
use cyclops::solver::stats::quantile;
use cyclops_bench::{row, section};

/// §5.3's multi-second SFP re-lock applied to the §5.4 replay.
const RELINK_S: f64 = 2.5;
/// Top rung of the RF fallback ladder (Gbps).
const RF_RATE_GBPS: f64 = 2.31;
/// The 25G prototype's effective FSO rate (Gbps).
const FSO_RATE_GBPS: f64 = 23.5;

fn main() {
    section("Fig 16: §5.4 user-trace study (500 synthetic 360°-viewing traces)");
    let corpus = HeadTrace::generate_corpus(1600, 50, 10);
    println!("{} traces x {:.0} s", corpus.len(), corpus[0].duration_s());

    let p = TraceSimParams::default();
    println!(
        "TP model: realign {:.1} ms after each report, residual {:.2} mm / {:.2} mrad,\n tolerance {:.0} mm / {:.2} mrad (the paper's §5.4 constants)\n",
        p.realign_latency_ms,
        p.residual_lat_m * 1e3,
        p.residual_ang_rad * 1e3,
        p.tol_lat_m * 1e3,
        p.tol_ang_rad * 1e3
    );

    let mut on_fracs = Vec::with_capacity(corpus.len());
    let mut total_off = 0usize;
    let mut total_slots = 0usize;
    let mut scattered_off = 0.0f64;
    let mut replays_off = Vec::with_capacity(corpus.len());
    let mut replays_on = Vec::with_capacity(corpus.len());
    for tr in &corpus {
        let r = simulate_trace(tr, &p);
        total_off += r.off_slots();
        total_slots += r.slots_on.len();
        if r.off_slots() > 0 {
            scattered_off += r.off_slot_scatter_fraction(30, 10) * r.off_slots() as f64;
        }
        replays_off.push(replay_with_fallback(
            &r.slots_on,
            p.slot_ms,
            RELINK_S,
            FallbackPolicy::Off,
            RF_RATE_GBPS,
            FSO_RATE_GBPS,
        ));
        replays_on.push(replay_with_fallback(
            &r.slots_on,
            p.slot_ms,
            RELINK_S,
            FallbackPolicy::RfOnOutage,
            RF_RATE_GBPS,
            FSO_RATE_GBPS,
        ));
        on_fracs.push(r.on_fraction);
    }

    // The CDF of disconnection percentage (x-axis of Fig 16).
    let off_pcts: Vec<f64> = on_fracs.iter().map(|f| (1.0 - f) * 100.0).collect();
    let widths = [26, 12];
    row(&["disconnected ≤ (% slots)".into(), "CDF".into()], &widths);
    for thr in [0.02, 0.1, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0] {
        let frac = off_pcts.iter().filter(|&&o| o <= thr).count() as f64 / off_pcts.len() as f64;
        row(
            &[format!("{thr:.2}%"), format!("{:.1}%", frac * 100.0)],
            &widths,
        );
    }

    let overall_on = 1.0 - total_off as f64 / total_slots as f64;
    let best = quantile(&on_fracs, 1.0) * 100.0;
    let worst = quantile(&on_fracs, 0.0) * 100.0;
    println!(
        "\noverall operational slots: {:.2}% (paper: 98.6%)",
        overall_on * 100.0
    );
    println!("per-trace range: {worst:.2}%..{best:.2}% (paper: 95%..99.98%)");
    println!(
        "effective bandwidth: {:.1} Gbps of 23.5 (paper: ~23 Gbps)",
        overall_on * 23.5
    );
    let scatter = if total_off > 0 {
        scattered_off / total_off as f64
    } else {
        1.0
    };
    println!(
        "off-slots in frames with <10/30 off: {:.0}% (paper: >60%)",
        scatter * 100.0
    );

    // --- Hybrid FSO/RF fallback ablation: the same 500 traces replayed
    // through the §5.3 SFP re-lock (an alignment loss costs a multi-second
    // outage, not just its own slots) with the fallback off vs on.
    section("Hybrid fallback ablation (same corpus, §5.3 SFP re-lock applied)");
    let n = replays_off.len() as f64;
    let mean =
        |f: &dyn Fn(&FallbackReplay) -> f64, v: &[FallbackReplay]| v.iter().map(f).sum::<f64>() / n;
    let up_off = mean(&|r| r.up_frac, &replays_off);
    let up_on = mean(&|r| r.up_frac, &replays_on);
    let bw_off = mean(&|r| r.effective_gbps, &replays_off);
    let bw_on = mean(&|r| r.effective_gbps, &replays_on);
    let rf_on = mean(&|r| r.rf_frac, &replays_on);
    let failovers: u64 = replays_on.iter().map(|r| r.failovers).sum();
    let widths = [26, 14, 14];
    row(
        &["".into(), "fallback off".into(), "RfOnOutage".into()],
        &widths,
    );
    row(
        &[
            "mean availability".into(),
            format!("{:.2}%", up_off * 100.0),
            format!("{:.2}%", up_on * 100.0),
        ],
        &widths,
    );
    row(
        &[
            "mean effective bw (Gbps)".into(),
            format!("{bw_off:.2}"),
            format!("{bw_on:.2}"),
        ],
        &widths,
    );
    row(
        &[
            "mean RF-carried slots".into(),
            "0.00%".into(),
            format!("{:.2}%", rf_on * 100.0),
        ],
        &widths,
    );
    println!("\nfailovers across the corpus: {failovers}");
    let worst_off = replays_off
        .iter()
        .map(|r| r.up_frac)
        .fold(f64::INFINITY, f64::min);
    let worst_on = replays_on
        .iter()
        .map(|r| r.up_frac)
        .fold(f64::INFINITY, f64::min);
    println!(
        "worst-trace availability: {:.2}% -> {:.2}%",
        worst_off * 100.0,
        worst_on * 100.0
    );
    assert!(
        up_on > up_off,
        "fallback must strictly improve mean availability ({up_on} vs {up_off})"
    );
    assert!(
        bw_on > bw_off,
        "fallback must strictly improve mean effective bandwidth ({bw_on} vs {bw_off})"
    );
    println!("ablation holds: availability and effective bandwidth strictly improve");
}
