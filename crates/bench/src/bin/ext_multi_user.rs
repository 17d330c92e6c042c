//! **Extension: multi-user fleets** — N independently-seeded headsets
//! sharing M ceiling TX installations, on the unified simulation engine.
//!
//! The paper measures one headset; its §3 deployment sketch ("multiple TXs
//! on the ceiling with appropriate handover techniques") implies several
//! users sharing an installed base. This bin runs the engine's native
//! multi-session workload twice — a clean fleet and a hostile one (roaming
//! occluders + the stress fault plan on the control channel) — and prints
//! per-session rows plus the fleet rollup, including the rolled-up
//! telemetry counters and histograms (`collect_telemetry`).
//!
//! ```sh
//! cargo run --release -p cyclops-bench --bin ext_multi_user
//! ```

use cyclops::core::commission;
use cyclops::link::engine::FleetSummary;
use cyclops::prelude::*;

/// Two fully-trained ceiling installations sharing one headset world
/// (full-size board and mapping budget, as in the paper's prototype).
fn two_units(seed: u64) -> Vec<TxInstallation> {
    [Vec3::new(-0.35, 0.0, 0.0), Vec3::new(0.35, 0.0, 0.0)]
        .into_iter()
        .map(|pos| {
            let mut cfg = SystemConfig::paper_10g(seed);
            cfg.deployment.tx_position = pos;
            let (dep, ctl, ..) = commission(&cfg);
            TxInstallation { dep, ctl }
        })
        .collect()
}

fn print_fleet(title: &str, fleet: &FleetSummary) {
    println!("\n{title}");
    println!(
        "{:>3} {:>10} {:>8} {:>8} {:>9} {:>10} {:>5} {:>7} {:>9} {:>7} {:>7}",
        "s",
        "seed",
        "signal",
        "up_frac",
        "gbps",
        "power_dBm",
        "hand",
        "outages",
        "worst_s",
        "dr",
        "reacq"
    );
    for s in &fleet.sessions {
        println!(
            "{:>3} {:>10x} {:>8.4} {:>8.4} {:>9.3} {:>10.2} {:>5} {:>7} {:>9.3} {:>7} {:>7}",
            s.session,
            s.seed & 0xffff_ffff,
            s.signal_frac,
            s.up_frac,
            s.mean_goodput_gbps,
            s.mean_power_dbm,
            s.handovers,
            s.stats.n_outages,
            s.stats.longest_outage_s,
            s.stats.n_extrapolated,
            s.stats.n_reacq_steps
        );
    }
    let r = fleet.rollup();
    println!(
        "fleet: {} sessions x {} slots  mean signal {:.4}, mean up {:.4} (min {:.4})  \
         aggregate {:.2} Gbps  {} handovers  {} outages (worst {:.3} s)",
        r.n_sessions,
        r.total_slots / r.n_sessions.max(1),
        r.mean_signal_frac,
        r.mean_up_frac,
        r.min_up_frac,
        r.sum_goodput_gbps,
        r.total_handovers,
        r.total_outages,
        r.worst_outage_s
    );
    if r.ctrl_sent > 0 {
        println!(
            "control: {} sent, {} delivered, {} retransmits  \
             ({} dead-reckoned cmds, {} re-acq probes)",
            r.ctrl_sent,
            r.ctrl_delivered,
            r.ctrl_retransmits,
            r.total_extrapolated,
            r.total_reacq_steps
        );
    }
    if r.total_rf_slots > 0 {
        println!(
            "rf fallback: {} failovers, {} failbacks, {} RF slots \
             (mean rf_frac {:.4}), {:.2} Gb delivered over RF",
            r.total_failovers,
            r.total_failbacks,
            r.total_rf_slots,
            r.mean_rf_frac,
            r.rf_delivered_gb
        );
    }
    if let Some(t) = &r.telemetry {
        println!(
            "telemetry: {} TP commands ({} dead-reckoned, {} handover shots), \
             {} ctrl drops, {} SFP downs; margin_db mean {:.2} (min {:.2}), \
             outage_s mean {:.3}",
            t.events.tp_commands,
            t.events.tp_dead_reckoned,
            t.events.tp_handover_shots,
            t.events.ctrl_dropped,
            t.events.sfp_downs,
            t.margin_db.mean(),
            t.margin_db.min().unwrap_or(f64::NAN),
            t.outage_s.mean()
        );
        println!("telemetry rollup: {}", t.to_json());
    }
}

fn main() {
    println!("ext_multi_user: training 2 ceiling installations ...");
    let units = two_units(911);
    let tx0 = units[0].dep.tx_world_params().q2;
    let base = Pose::translation(Vec3::new(0.0, 0.0, 1.75));

    // Clean fleet: 8 users, perfect control channel, unobstructed room.
    // 6 s per session leaves room to recover from an outage (the SFP relink
    // alone takes ~2.5 s).
    let clean = FleetConfig {
        n_sessions: 8,
        duration_s: 6.0,
        seed: 424,
        collect_telemetry: true,
        ..FleetConfig::default()
    };
    let fleet_clean = run_fleet(&units, &clean);
    print_fleet("clean fleet (8 users, 2 TX units, no faults)", &fleet_clean);

    // Hostile fleet: per-session roaming occluder plus the stress fault plan
    // on a hardened control plane (ARQ + dead reckoning + re-acquisition).
    let hostile = FleetConfig {
        control: Some(ControlPlaneConfig::hardened(FaultPlan::stress(5))),
        occluders: vec![Occluder::new(tx0.lerp(base.trans, 0.5), 0.12, 0.4, 0)],
        ..clean
    };
    let fleet_hostile = run_fleet(&units, &hostile);
    print_fleet(
        "hostile fleet (roaming occluders, stress fault plan, hardened control)",
        &fleet_hostile,
    );

    let rc = fleet_clean.rollup();
    let rh = fleet_hostile.rollup();
    println!(
        "\nsummary: clean signal {:.4} / up {:.4} vs hostile signal {:.4} / up {:.4}; \
         hostile paid {} handovers and {} dead-reckoned commands across {} sessions",
        rc.mean_signal_frac,
        rc.mean_up_frac,
        rh.mean_signal_frac,
        rh.mean_up_frac,
        rh.total_handovers,
        rh.total_extrapolated,
        rh.n_sessions
    );
    assert!(
        rc.mean_up_frac >= rh.mean_up_frac,
        "clean fleet cannot be worse than the hostile one"
    );

    // Hybrid-fallback ablation: the hostile fleet again with RF-on-outage.
    // The FSO timeline is policy-invariant, so availability and goodput can
    // only gain the RF-covered slots — and on this workload they must
    // strictly improve.
    let hostile_rf = FleetConfig {
        fallback: FallbackPolicy::RfOnOutage,
        ..hostile
    };
    let fleet_rf = run_fleet(&units, &hostile_rf);
    print_fleet(
        "hostile fleet + RF fallback (RfOnOutage, same seeds)",
        &fleet_rf,
    );
    let rf = fleet_rf.rollup();
    println!(
        "\nfallback ablation: hostile up {:.4} / {:.2} Gbps sum -> with RF {:.4} / {:.2} Gbps \
         ({} failovers, mean rf_frac {:.4})",
        rh.mean_up_frac,
        rh.sum_goodput_gbps,
        rf.mean_up_frac,
        rf.sum_goodput_gbps,
        rf.total_failovers,
        rf.mean_rf_frac
    );
    assert_eq!(
        rh.total_rf_slots, 0,
        "fallback-off fleet must never ride RF"
    );
    assert!(rf.total_failovers >= 1, "hostile fleet must fail over");
    assert!(
        rf.mean_up_frac > rh.mean_up_frac,
        "RF fallback must strictly improve hostile availability ({} vs {})",
        rf.mean_up_frac,
        rh.mean_up_frac
    );
    assert!(
        rf.sum_goodput_gbps > rh.sum_goodput_gbps,
        "RF fallback must strictly improve hostile goodput ({} vs {})",
        rf.sum_goodput_gbps,
        rh.sum_goodput_gbps
    );

    // Contention ablation: the TX pool becomes a shared, scheduled resource
    // — 6 sessions over 2 units (N > M, so the pool is oversubscribed ~2.3x
    // by the bursty viewport traffic). The units get FSO-tuned SFPs: with
    // the paper's off-the-shelf 2.5 s re-lock (§5.3) the fleet spends ~84%
    // of its time in SFP dead time and every policy drowns in it; at a
    // 20 ms re-lock the link is signal-limited (availability ≈ 0.999) and
    // pool contention is the binding constraint. Same per-session channel
    // timelines under every policy — only who gets served differs.
    println!("\ncontention ablation: 6 sessions / 2 shared TX units, bursty viewport traffic");
    let mut sched_units = units.clone();
    for u in &mut sched_units {
        u.dep.design.sfp.relink_time_s = 0.02;
    }
    let sched_fleet = FleetConfig {
        n_sessions: 6,
        duration_s: 6.0,
        seed: 777,
        ..FleetConfig::default()
    };
    // Offered load is tuned to a *moderate* overload (~2.2 Gbps/session,
    // ~1.4x the effective pool capacity): heavy enough that greedy starves
    // the weak sessions outright, light enough that a fairly-served session
    // mostly keeps up — which is what separates the policies on stall time.
    let traffic = TrafficConfig {
        base_frame_mbit: 23.0,
        ..TrafficConfig::default()
    };
    let mut policies = [
        ("static", SchedConfig::static_partition()),
        ("greedy", SchedConfig::greedy()),
        ("pf", SchedConfig::proportional_fair(1.0)),
    ];
    for (_, sc) in &mut policies {
        sc.traffic = traffic;
    }
    println!(
        "{:>8} {:>10} {:>9} {:>9} {:>11} {:>12} {:>9} {:>6}",
        "policy",
        "mean_avail",
        "min_avail",
        "agg_gbps",
        "stall_frac",
        "worst_stall",
        "preempts",
        "jain"
    );
    let mut rolls = Vec::new();
    for (name, sc) in &policies {
        let sum = run_fleet_scheduled(&sched_units, &sched_fleet, sc).expect("valid sched config");
        for s in &sum.sessions {
            let sc = s.sched.expect("scheduled session stats");
            println!(
                "    s{} granted {:>5} served {:>5} denied {:>5} retarget {:>4} \
                 preempts {:>3} delivered {:>6.2} Gb offered {:>6.2} Gb stall {:>5.2} s",
                s.session,
                sc.granted_slots,
                sc.served_slots,
                sc.denied_slots,
                sc.retarget_slots,
                sc.preempts,
                sc.delivered_gb,
                sc.offered_gb,
                sc.stall_s
            );
        }
        let r = sum.rollup().sched.expect("scheduled fleet must roll up");
        println!(
            "{:>8} {:>10.4} {:>9.4} {:>9.2} {:>11.4} {:>11.3}s {:>9} {:>6.3}",
            name,
            r.mean_availability,
            r.min_availability,
            r.sum_served_gbps,
            r.mean_stall_frac,
            r.worst_stall_s,
            r.total_preempts,
            r.fairness_jain
        );
        rolls.push(r);
    }
    let (st, gr, pf) = (rolls[0], rolls[1], rolls[2]);
    println!(
        "\nscheduling tradeoff: greedy wins aggregate ({:.2} vs pf {:.2} Gbps), \
         pf wins worst-session stall ({:.3} vs greedy {:.3} s), \
         both beat static partition on mean availability ({:.4} / {:.4} vs {:.4})",
        gr.sum_served_gbps,
        pf.sum_served_gbps,
        pf.worst_stall_s,
        gr.worst_stall_s,
        gr.mean_availability,
        pf.mean_availability,
        st.mean_availability
    );
    assert!(
        pf.worst_stall_s < gr.worst_stall_s,
        "proportional-fair must beat greedy on worst-session stall ({} vs {})",
        pf.worst_stall_s,
        gr.worst_stall_s
    );
    assert!(
        gr.sum_served_gbps > pf.sum_served_gbps,
        "greedy must beat proportional-fair on aggregate goodput ({} vs {})",
        gr.sum_served_gbps,
        pf.sum_served_gbps
    );
    assert!(
        gr.mean_availability > st.mean_availability,
        "greedy must beat static partition on mean availability ({} vs {})",
        gr.mean_availability,
        st.mean_availability
    );
    assert!(
        pf.mean_availability > st.mean_availability,
        "proportional-fair must beat static partition on mean availability ({} vs {})",
        pf.mean_availability,
        st.mean_availability
    );
}
