//! Runs every experiment binary's logic in sequence — the one-shot
//! regeneration of all the paper's tables and figures.
//!
//! ```sh
//! cargo run --release -p cyclops-bench --bin all_experiments
//! ```
//!
//! (Each experiment is also available as its own binary; see DESIGN.md's
//! per-experiment index.)

use std::process::Command;

fn main() {
    // Each child binary sizes its own pool from the inherited environment.
    println!(
        "worker threads: {} (parallel build; set CYCLOPS_THREADS to override)",
        cyclops_par::max_threads()
    );
    let bins = [
        "fig03_speed_cdfs",
        "table1_link_tolerance",
        "fig11_tolerance_sweep",
        "table2_g_errors",
        "sec52_tp_accuracy",
        "fig13_10g_pure_motions",
        "fig14_10g_arbitrary",
        "fig15_25g",
        "table3_summary",
        "fig16_user_traces",
        "ablation_tracking_freq",
        "ablation_coupling_loss",
        "ablation_board_size",
        "ablation_mapping_placements",
        "ablation_report_loss",
        "ablation_40g_wdm",
        "ext_multi_tx_coverage",
    ];
    // Re-exec the sibling binaries (they live next to this one).
    let me = std::env::current_exe().expect("current_exe");
    let dir = me.parent().expect("bin dir");
    let t0 = std::time::Instant::now();
    for b in bins {
        let path = dir.join(b);
        println!("\n################################################################");
        println!("## {b}");
        println!("################################################################");
        let status = Command::new(&path)
            .status()
            .unwrap_or_else(|e| panic!("failed to run {}: {e}", path.display()));
        assert!(status.success(), "{b} failed");
    }
    println!(
        "\nall {} experiments regenerated in {:.0} s",
        bins.len(),
        t0.elapsed().as_secs_f64()
    );
}
