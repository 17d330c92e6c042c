//! **Perf snapshot** — machine-readable timing of the parallel hot paths
//! (training, alignment, trace corpus, chaos suite, and the multi-session
//! engine fleet), written to `BENCH_<date>.json`.
//!
//! Each workload runs twice over identical inputs: once pinned to 1 thread
//! and once at the configured pool width (`CYCLOPS_THREADS` env var, else
//! the machine's hardware parallelism). The two runs' numeric outputs are
//! compared bit-for-bit — the workspace's parallelism contract — and the
//! wall-times, speedups and thread count land in the JSON for CI trending.
//!
//! ```sh
//! CYCLOPS_THREADS=8 cargo run --release -p cyclops-bench --bin perf_snapshot
//! ```

use cyclops::core::alignment::exhaustive_align;
use cyclops::core::kspace::{self, BoardConfig, KspaceRig};
use cyclops::core::mapping;
use cyclops::link::engine::SessionStats;
use cyclops::link::trace_sim::{simulate_corpus, TraceSimParams};
use cyclops::prelude::*;
use cyclops::vrh::motion::ArbitraryMotionConfig;
use std::time::Instant;

struct WorkloadResult {
    name: &'static str,
    serial_s: f64,
    parallel_s: f64,
    bit_identical: bool,
    sig_len: usize,
    /// Total engine slots stepped per run; 0 for workloads that are not
    /// slot loops (training/alignment), which then report no `slots_per_sec`.
    slots: usize,
}

impl WorkloadResult {
    fn speedup(&self) -> f64 {
        self.serial_s / self.parallel_s.max(1e-12)
    }

    /// Headline throughput metric of the single-thread leg (slots/second).
    fn slots_per_sec_serial(&self) -> f64 {
        self.slots as f64 / self.serial_s.max(1e-12)
    }

    /// Throughput of the full-width parallel leg (slots/second).
    fn slots_per_sec_parallel(&self) -> f64 {
        self.slots as f64 / self.parallel_s.max(1e-12)
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// Repetitions per leg; the minimum wall-time is reported (the standard
/// guard against scheduler noise on short workloads).
const REPS: usize = 3;

fn best_of(threads: usize, work: &impl Fn() -> Vec<f64>) -> (f64, Vec<f64>) {
    let mut best_s = f64::INFINITY;
    let mut sig = Vec::new();
    for _ in 0..REPS {
        let (s, r) = timed(|| cyclops_par::with_threads(threads, work));
        best_s = best_s.min(s);
        sig = r;
    }
    (best_s, sig)
}

/// Runs `work` at 1 thread and at `threads` ([`REPS`] times each), checking
/// the two signature vectors for bitwise equality. `slots` is the workload's
/// total slot count per run (0 for non-slot-loop workloads).
fn run_workload(
    name: &'static str,
    threads: usize,
    slots: usize,
    work: impl Fn() -> Vec<f64>,
) -> WorkloadResult {
    println!("  {name}: serial leg ...");
    let (serial_s, sig_serial) = best_of(1, &work);
    println!("  {name}: parallel leg ({threads} threads) ...");
    let (parallel_s, sig_parallel) = best_of(threads, &work);
    let bit_identical = sig_serial.len() == sig_parallel.len()
        && sig_serial
            .iter()
            .zip(&sig_parallel)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    WorkloadResult {
        name,
        serial_s,
        parallel_s,
        bit_identical,
        sig_len: sig_serial.len(),
        slots,
    }
}

/// One fault-injected simulator session for the chaos workload: hardened
/// control plane (ARQ + dead reckoning + re-acquisition) under the `stress`
/// fault plan (loss bursts, delay spikes, dup/reorder, SFP flaps), hand-held
/// motion. Returns a numeric signature plus the session counters.
fn chaos_session(sys: &CyclopsSystem, seed: u64, dur_s: f64) -> (Vec<f64>, SessionStats) {
    let mut s = sys.clone();
    s.control = Some(ControlPlaneConfig::hardened(FaultPlan::stress(seed)));
    let base = Pose::translation(Vec3::new(0.0, 0.0, 1.75));
    let motion = ArbitraryMotion::new(base, ArbitraryMotionConfig::default(), 500 + seed);
    let mut sim = s
        .into_session_builder(motion)
        .build()
        .expect("valid chaos session config");
    let recs = sim.run(dur_s);
    let stats = sim.session_stats();
    let c = stats.control.expect("control plane is active");
    let mut sig = vec![
        recs.iter().map(|r| r.power_dbm).sum::<f64>(),
        recs.iter().map(|r| r.goodput_gbps).sum::<f64>(),
        recs.iter().filter(|r| r.link_up).count() as f64,
    ];
    sig.extend(
        [
            c.sent,
            c.delivered,
            c.retransmits,
            c.channel_losses,
            c.dup_frames,
            c.stale_drops,
            c.acks_lost,
            c.gave_up,
            stats.n_extrapolated,
            stats.n_reacq_steps,
            stats.n_outages,
        ]
        .map(|n| n as f64),
    );
    sig.push(stats.outage_s);
    sig.push(stats.longest_outage_s);
    (sig, stats)
}

/// Two fully-trained ceiling installations sharing one headset world — the
/// TX side of the multi-session fleet workload (fast board).
fn fleet_units(seed: u64) -> Vec<TxInstallation> {
    [Vec3::new(-0.35, 0.0, 0.0), Vec3::new(0.35, 0.0, 0.0)]
        .into_iter()
        .map(|pos| {
            let mut cfg = SystemConfig::fast_10g(seed);
            cfg.deployment.tx_position = pos;
            let (dep, ctl, ..) = cyclops::core::commission(&cfg);
            TxInstallation { dep, ctl }
        })
        .collect()
}

/// The multi-session workload: 8 independently-seeded headsets sharing the
/// two ceiling installations, hardened control plane under the stress fault
/// plan, one roaming occluder per session.
fn fleet_config(units: &[TxInstallation]) -> FleetConfig {
    let tx0 = units[0].dep.tx_world_params().q2;
    let base = Pose::translation(Vec3::new(0.0, 0.0, 1.75));
    let mid = tx0.lerp(base.trans, 0.5);
    // 4 s per session: long enough to hand over away from the occluded
    // unit 0 and complete the ~2.5 s SFP relink on unit 1 within the run.
    FleetConfig {
        n_sessions: 8,
        duration_s: 4.0,
        seed: 424,
        control: Some(ControlPlaneConfig::hardened(FaultPlan::stress(5))),
        occluders: vec![Occluder::new(mid, 0.12, 0.4, 0)],
        ..FleetConfig::default()
    }
}

/// Flattens a fleet run into the bit-identity signature vector.
fn fleet_signature(summary: &cyclops::link::engine::FleetSummary) -> Vec<f64> {
    let mut sig = Vec::new();
    for s in &summary.sessions {
        sig.extend([
            s.seed as f64,
            s.slots as f64,
            s.up_frac,
            s.signal_frac,
            s.mean_goodput_gbps,
            s.mean_power_dbm,
            s.handovers as f64,
            s.tp_reports as f64,
            s.tp_failures as f64,
            s.stats.n_extrapolated as f64,
            s.stats.n_reacq_steps as f64,
            s.stats.n_outages as f64,
            s.stats.outage_s,
            s.stats.longest_outage_s,
            s.rf_frac,
            s.stats.rf.failovers as f64,
            s.stats.rf.failbacks as f64,
            s.stats.rf.rf_slots as f64,
            s.stats.rf_delivered_gb,
        ]);
        if let Some(c) = s.stats.control {
            sig.extend([c.sent, c.delivered, c.retransmits, c.channel_losses].map(|n| n as f64));
        }
    }
    sig
}

/// Flattens a scheduled fleet run into the bit-identity signature vector:
/// the physics signature plus every scheduling/QoE counter, so a
/// thread-count-dependent divergence in the grant engine or the traffic
/// layer fails the bit-identical check.
fn sched_signature(summary: &cyclops::link::engine::FleetSummary) -> Vec<f64> {
    let mut sig = fleet_signature(summary);
    for s in &summary.sessions {
        let st = s.sched.expect("scheduled session stats");
        sig.extend([
            st.admitted as u64 as f64,
            st.granted_slots as f64,
            st.served_slots as f64,
            st.denied_slots as f64,
            st.retarget_slots as f64,
            st.preempts as f64,
            st.availability,
            st.delivered_gb,
            st.mean_served_gbps,
            st.offered_gb,
            st.stall_s,
            st.stall_frac,
            st.stall_events as f64,
            st.frames_generated as f64,
            st.frames_played as f64,
        ]);
    }
    sig
}

/// Flattens a mixed-hardware fleet into the bit-identity signature: the
/// physics signature plus each session's pool stamp and the per-profile
/// rollups, so pool dispatch or environment re-keying divergence between
/// the serial and parallel legs fails the check.
fn hetero_signature(summary: &cyclops::link::engine::FleetSummary) -> Vec<f64> {
    let mut sig = fleet_signature(summary);
    for s in &summary.sessions {
        sig.push(s.profile.map_or(-1.0, |p| p as f64));
    }
    for (pool, r) in summary.profile_rollups() {
        sig.extend([
            pool as f64,
            r.n_sessions as f64,
            r.mean_up_frac,
            r.min_up_frac,
            r.sum_goodput_gbps,
            r.total_outages as f64,
            r.worst_outage_s,
        ]);
    }
    sig
}

/// Outcome of the telemetry overhead probe.
struct TelemetryProbe {
    null_sink_s: f64,
    counters_s: f64,
    bit_identical: bool,
    counters: SessionTelemetry,
}

impl TelemetryProbe {
    /// Slot-loop overhead of full counter/histogram aggregation relative to
    /// the virtual-dispatch floor (a [`NullSink`]), in percent.
    fn overhead_pct(&self) -> f64 {
        (self.counters_s / self.null_sink_s.max(1e-12) - 1.0) * 100.0
    }
}

/// Measures the telemetry layer's slot-loop cost on the chaos workload: the
/// same session once with a [`NullSink`] (dispatch floor) and once with full
/// counter + histogram aggregation, best of [`REPS`]·2 runs each, with the
/// two slot streams compared bit-for-bit (telemetry must be pure
/// observation).
fn telemetry_probe(sys: &CyclopsSystem, dur_s: f64) -> TelemetryProbe {
    let leg = |mk: &dyn Fn() -> Telemetry| -> (f64, Vec<f64>, Option<SessionTelemetry>) {
        let mut best = f64::INFINITY;
        let mut sig = Vec::new();
        let mut counters = None;
        for _ in 0..REPS * 2 {
            let mut s = sys.clone();
            s.control = Some(ControlPlaneConfig::hardened(FaultPlan::stress(3)));
            let base = Pose::translation(Vec3::new(0.0, 0.0, 1.75));
            let motion = ArbitraryMotion::new(base, ArbitraryMotionConfig::default(), 503);
            let mut session = s
                .into_session_builder(motion)
                .telemetry(mk())
                .build()
                .expect("valid telemetry-probe config");
            let (t, recs) = timed(|| session.run(dur_s));
            best = best.min(t);
            sig = recs
                .iter()
                .flat_map(|r| [r.t, r.power_dbm, r.goodput_gbps, r.link_up as u64 as f64])
                .collect();
            counters = session.telemetry().copied();
        }
        (best, sig, counters)
    };
    let (null_sink_s, sig_null, _) = leg(&|| Telemetry::with_sink(Box::new(NullSink)));
    let (counters_s, sig_counters, counters) = leg(&Telemetry::counters);
    let bit_identical = sig_null.len() == sig_counters.len()
        && sig_null
            .iter()
            .zip(&sig_counters)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    TelemetryProbe {
        null_sink_s,
        counters_s,
        bit_identical,
        counters: counters.expect("counters leg aggregates"),
    }
}

/// Proleptic-Gregorian civil date from days since 1970-01-01 (Howard
/// Hinnant's `civil_from_days`). Avoids a date-time dependency.
fn civil_from_days(z: i64) -> (i64, u64, u64) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    (if m <= 2 { y + 1 } else { y }, m, d)
}

fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock before epoch")
        .as_secs();
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// `exhaustive_align`'s voltages, power and evaluation count on a fresh
/// deployment of `cfg`.
fn align_signature(cfg: &DeploymentConfig) -> Vec<f64> {
    let res = exhaustive_align(&mut Deployment::new(cfg));
    let mut sig = res.voltages.to_vec();
    sig.push(res.power_dbm);
    sig.push(res.n_evals as f64);
    sig
}

fn main() {
    let threads = cyclops_par::max_threads();
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perf snapshot: parallel legs use {threads} thread(s) on a {host}-thread host \
         (set CYCLOPS_THREADS to override)"
    );

    // Shared fixtures built once, outside the timed regions.
    let dep_k = Deployment::new(&DeploymentConfig::paper_10g(71));
    let dep_m = Deployment::new(&DeploymentConfig::paper_10g(73));
    println!("fixtures: stage-1 K-space models for the mapping workload ...");
    let (tx_tr, tx_rig, rx_tr, rx_rig) =
        kspace::train_both(&dep_m, &BoardConfig::default(), 73).expect("stage-1 training");
    let (init_tx, init_rx) = mapping::rough_initial_guess(&dep_m, &tx_rig, &rx_rig, 0.05, 0.08, 80);
    let traces: Vec<HeadTrace> = (0..200)
        .map(|i| HeadTrace::generate(&TraceGenConfig::default(), 9_100 + i))
        .collect();
    println!("fixtures: fast-profile system for the chaos workload ...");
    let sys_chaos = CyclopsSystem::commission(&SystemConfig::fast_10g(9_007));
    let chaos_seeds: Vec<u64> = (0..6).collect();
    println!("fixtures: two ceiling installations for the fleet workload ...");
    let units = fleet_units(911);
    let fleet_cfg = fleet_config(&units);
    // The 1000-session scale workload: same physics and control plane as the
    // 8-session fleet, 1 s per session — a pure slot-throughput stressor for
    // the `slots_per_sec` headline (handover/relink physics are exercised by
    // the longer 8-session runs above).
    let fleet_1k_cfg = FleetConfig {
        n_sessions: 1000,
        duration_s: 1.0,
        ..fleet_cfg.clone()
    };
    // The hybrid-fallback ablation: the same 8-session hostile fleet with
    // RF-on-outage, so the JSON trends the on/off availability comparison
    // alongside the timings.
    let fleet_rf_cfg = FleetConfig {
        fallback: FallbackPolicy::RfOnOutage,
        ..fleet_cfg.clone()
    };
    // The heterogeneous-fleet workload: the same 8 hostile sessions split
    // across two hardware pools — the paper build (Rift-S tracking) and the
    // registry's noisier Quest class — under a light environment (fog +
    // scintillation), so mixed-pool dispatch, per-session environment
    // re-keying, and the per-slot attenuation sum are all on the timed path.
    let hetero_pools = vec![
        FleetPool {
            label: "10g/rift-s".into(),
            units: units.clone(),
            tracker: TrackerConfig::default(),
        },
        FleetPool {
            label: "10g/quest".into(),
            units: units.clone(),
            tracker: headset_profile("quest").expect("registered preset").tracker,
        },
    ];
    let fleet_hetero_cfg = FleetConfig {
        environment: Some(
            Environment::new()
                .stage(FogStage::from_density(0.3, 1550.0).expect("valid density"))
                .stage(ScintillationStage::new(0.6, 10e-3, 77).expect("valid scintillation")),
        ),
        ..fleet_cfg.clone()
    };

    // The scheduled-fleet contention workload: the same 8 hostile sessions
    // treat the 2 TX installations as a shared pool under proportional-fair
    // scheduling with the bursty viewport traffic source. The driver is
    // serial by construction (shared grant state), so the two legs trend
    // the overlay's cost rather than a speedup.
    let sched_cfg = SchedConfig::proportional_fair(1.0);

    // Slot counts per run, for the slots/s headline. All slot loops run on
    // the default 1 ms engine slot (`EngineConfig::default().slot_s`).
    let slot_params = TraceSimParams::default();
    let trace_slots: usize = traces
        .iter()
        .map(|t| ((t.duration_s() * 1e3) / slot_params.slot_ms).floor() as usize)
        .sum();
    let chaos_slots = chaos_seeds.len() * 4_000;
    let fleet_slots = fleet_cfg.n_sessions * (fleet_cfg.duration_s * 1e3).round() as usize;
    let fleet_1k_slots = fleet_1k_cfg.n_sessions * (fleet_1k_cfg.duration_s * 1e3).round() as usize;

    println!("running workloads (each twice: 1 thread, then {threads}) ...");
    let results = [
        // §4.1 stage-1 fit: LM over ~25 galvo parameters — parallel Jacobian
        // columns.
        run_workload("kspace_fit", threads, 0, || {
            let mut rig = KspaceRig::standard(dep_k.tx.clone(), 72);
            let init = rig.cad_initial_guess();
            let samples = rig.collect_samples(&BoardConfig::default());
            let tr = kspace::fit(&samples, &init).expect("stage-1 fit");
            let mut sig = tr.fitted.to_vec();
            sig.push(tr.report.cost);
            sig
        }),
        // §4.2 exhaustive search: row-parallel 51² + 161² voltage grids.
        run_workload("exhaustive_align", threads, 0, || {
            align_signature(&DeploymentConfig::paper_10g(42))
        }),
        // The same search on the 25G design, whose wider acceptance lights
        // ~23 % of the RX sweep.
        run_workload("exhaustive_align_25g", threads, 0, || {
            align_signature(&DeploymentConfig::paper_25g(42))
        }),
        // §4.2 stage-2 training: parallel placement collection + LM fit.
        run_workload("mapping_fit", threads, 0, || {
            let mut dep = dep_m.clone();
            let mt = mapping::train(
                &mut dep,
                &tx_tr.fitted,
                &rx_tr.fitted,
                init_tx,
                init_rx,
                8,
                81,
            );
            let mut sig = vec![mt.trained.report.cost, mt.samples.len() as f64];
            sig.extend_from_slice(&mt.trained.tx_map.to_params().to_array());
            sig.extend_from_slice(&mt.trained.rx_map.to_params().to_array());
            sig
        }),
        // §5.4 connectivity simulation: 200 × 60 s traces, one per work item.
        run_workload("trace_sim_60s", threads, trace_slots, || {
            simulate_corpus(&traces, &TraceSimParams::default())
        }),
        // Fault-injection suite: hardened control plane under the stress
        // fault plan, one session per seed. The signature includes every
        // per-session counter, so any serial/parallel divergence in the
        // control plane itself fails the bit-identical check.
        run_workload("chaos_fault_injection", threads, chaos_slots, || {
            cyclops_par::par_map(&chaos_seeds, 1, |&s| chaos_session(&sys_chaos, s, 4.0).0)
                .into_iter()
                .flatten()
                .collect()
        }),
        // Multi-session engine workload: 8 independently-seeded headsets
        // over 2 TX installations, one session per work item. The signature
        // covers every per-session counter, so a thread-count-dependent
        // divergence anywhere in the engine fails the bit-identical check.
        run_workload("fleet_multi_session", threads, fleet_slots, || {
            fleet_signature(&run_fleet(&units, &fleet_cfg))
        }),
        // Hybrid-fallback fleet: the same hostile workload with RfOnOutage —
        // the RF counters are in the signature, so a thread-count-dependent
        // divergence in the fallback path fails the bit-identical check.
        run_workload("fleet_fallback", threads, fleet_slots, || {
            fleet_signature(&run_fleet(&units, &fleet_rf_cfg))
        }),
        // Scheduled fleet: the shared-TX grant engine + traffic/QoE layer
        // on the hostile 8-session workload. Every scheduling counter is in
        // the signature, so any thread-count sensitivity in the overlay
        // fails the bit-identical check.
        run_workload("fleet_sched", threads, fleet_slots, || {
            sched_signature(
                &run_fleet_scheduled(&units, &fleet_cfg, &sched_cfg).expect("valid sched config"),
            )
        }),
        // Heterogeneous fleet: mixed hardware pools + environment layer on
        // the hostile 8-session workload. Pool stamps and per-profile
        // rollups are in the signature, so a divergence in mixed dispatch
        // or environment re-keying fails the bit-identical check.
        run_workload("fleet_hetero", threads, fleet_slots, || {
            hetero_signature(
                &run_fleet_mixed(&hetero_pools, &fleet_hetero_cfg).expect("valid mixed fleet"),
            )
        }),
        // 1000-session scale: the slot-throughput headline at fleet width.
        run_workload("fleet_1k", threads, fleet_1k_slots, || {
            fleet_signature(&run_fleet(&units, &fleet_1k_cfg))
        }),
    ];

    println!(
        "\n{:<18} {:>10} {:>10} {:>8} {:>14}  bit-identical",
        "workload", "serial s", "par s", "speedup", "slots/s (1T)"
    );
    let mut total_serial = 0.0;
    let mut total_parallel = 0.0;
    let mut all_identical = true;
    for r in &results {
        let sps = if r.slots > 0 {
            format!("{:.3e}", r.slots_per_sec_serial())
        } else {
            "-".to_string()
        };
        println!(
            "{:<18} {:>10.3} {:>10.3} {:>7.2}x {:>14}  {}",
            r.name,
            r.serial_s,
            r.parallel_s,
            r.speedup(),
            sps,
            r.bit_identical
        );
        total_serial += r.serial_s;
        total_parallel += r.parallel_s;
        all_identical &= r.bit_identical;
    }
    println!(
        "{:<18} {:>10.3} {:>10.3} {:>7.2}x",
        "total",
        total_serial,
        total_parallel,
        total_serial / total_parallel.max(1e-12)
    );

    // Hand-rolled JSON (the workspace builds offline; no serde available).
    let date = today_utc();
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"date\": \"{date}\",\n"));
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!("  \"host_threads\": {host},\n"));
    json.push_str(&format!(
        "  \"cyclops_threads_env\": {},\n",
        match std::env::var("CYCLOPS_THREADS") {
            Ok(v) => format!("\"{}\"", v.trim()),
            Err(_) => "null".to_string(),
        }
    ));
    json.push_str(&format!(
        "  \"parallel_compiled\": {},\n",
        cyclops_par::parallel_compiled()
    ));
    json.push_str("  \"workloads\": [\n");
    for (i, r) in results.iter().enumerate() {
        // Slot-loop workloads carry the slots/s headline; training and
        // alignment workloads report null there.
        let sps = if r.slots > 0 {
            format!(
                "\"slots\": {}, \"slots_per_sec_serial\": {:.1}, \
                 \"slots_per_sec_parallel\": {:.1}",
                r.slots,
                r.slots_per_sec_serial(),
                r.slots_per_sec_parallel()
            )
        } else {
            "\"slots\": null, \"slots_per_sec_serial\": null, \
             \"slots_per_sec_parallel\": null"
                .to_string()
        };
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"serial_s\": {:.6}, \"parallel_s\": {:.6}, \
             \"speedup\": {:.4}, \"bit_identical\": {}, \"signature_len\": {}, {}}}{}\n",
            r.name,
            r.serial_s,
            r.parallel_s,
            r.speedup(),
            r.bit_identical,
            r.sig_len,
            sps,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    // Session counters from one canonical (serial-order) pass over the chaos
    // seeds — the fault-injection health record that trends alongside the
    // timings.
    let chaos: Vec<SessionStats> = chaos_seeds
        .iter()
        .map(|&s| chaos_session(&sys_chaos, s, 4.0).1)
        .collect();
    let sum = |f: &dyn Fn(&SessionStats) -> u64| chaos.iter().map(f).sum::<u64>();
    let csum = |f: &dyn Fn(&cyclops::link::control::ControlStats) -> u64| {
        chaos
            .iter()
            .map(|s| f(s.control.as_ref().expect("control plane is active")))
            .sum::<u64>()
    };
    json.push_str(&format!(
        "  \"chaos\": {{\"sessions\": {}, \"sent\": {}, \"delivered\": {}, \
         \"retransmits\": {}, \"channel_losses\": {}, \"dup_frames\": {}, \
         \"stale_drops\": {}, \"acks_lost\": {}, \"gave_up\": {}, \
         \"extrapolated\": {}, \"reacq_steps\": {}, \"outages\": {}, \
         \"outage_s\": {:.4}, \"longest_outage_s\": {:.4}}},\n",
        chaos.len(),
        csum(&|c| c.sent),
        csum(&|c| c.delivered),
        csum(&|c| c.retransmits),
        csum(&|c| c.channel_losses),
        csum(&|c| c.dup_frames),
        csum(&|c| c.stale_drops),
        csum(&|c| c.acks_lost),
        csum(&|c| c.gave_up),
        sum(&|s| s.n_extrapolated),
        sum(&|s| s.n_reacq_steps),
        sum(&|s| s.n_outages),
        chaos.iter().map(|s| s.outage_s).sum::<f64>(),
        chaos.iter().map(|s| s.longest_outage_s).fold(0.0, f64::max)
    ));
    // Multi-session fleet counters: one canonical (deterministic) pass —
    // per-session rows plus the fleet rollup, the multi-user health record.
    // This pass also collects per-session telemetry for the rolled-up
    // counter block (the timed legs above keep telemetry off).
    let fleet = run_fleet(
        &units,
        &FleetConfig {
            collect_telemetry: true,
            ..fleet_cfg.clone()
        },
    );
    json.push_str("  \"fleet\": {\n    \"sessions\": [\n");
    for (i, s) in fleet.sessions.iter().enumerate() {
        let c = s
            .stats
            .control
            .expect("fleet runs the hardened control plane");
        json.push_str(&format!(
            "      {{\"session\": {}, \"seed\": {}, \"slots\": {}, \
             \"up_frac\": {:.6}, \"signal_frac\": {:.6}, \
             \"mean_goodput_gbps\": {:.6}, \
             \"mean_power_dbm\": {:.4}, \"handovers\": {}, \"outages\": {}, \
             \"longest_outage_s\": {:.4}, \"extrapolated\": {}, \
             \"reacq_steps\": {}, \"tp_reports\": {}, \"tp_failures\": {}, \
             \"ctrl_sent\": {}, \"ctrl_delivered\": {}, \
             \"ctrl_retransmits\": {}}}{}\n",
            s.session,
            s.seed,
            s.slots,
            s.up_frac,
            s.signal_frac,
            s.mean_goodput_gbps,
            s.mean_power_dbm,
            s.handovers,
            s.stats.n_outages,
            s.stats.longest_outage_s,
            s.stats.n_extrapolated,
            s.stats.n_reacq_steps,
            s.tp_reports,
            s.tp_failures,
            c.sent,
            c.delivered,
            c.retransmits,
            if i + 1 < fleet.sessions.len() {
                ","
            } else {
                ""
            }
        ));
    }
    let roll = fleet.rollup();
    json.push_str("    ],\n");
    json.push_str(&format!(
        "    \"rollup\": {{\"n_sessions\": {}, \"total_slots\": {}, \
         \"mean_up_frac\": {:.6}, \"mean_signal_frac\": {:.6}, \
         \"min_up_frac\": {:.6}, \
         \"sum_goodput_gbps\": {:.6}, \"total_handovers\": {}, \
         \"total_outages\": {}, \"worst_outage_s\": {:.4}, \
         \"total_extrapolated\": {}, \"total_reacq_steps\": {}, \
         \"ctrl_sent\": {}, \"ctrl_delivered\": {}, \"ctrl_retransmits\": {}}}\n",
        roll.n_sessions,
        roll.total_slots,
        roll.mean_up_frac,
        roll.mean_signal_frac,
        roll.min_up_frac,
        roll.sum_goodput_gbps,
        roll.total_handovers,
        roll.total_outages,
        roll.worst_outage_s,
        roll.total_extrapolated,
        roll.total_reacq_steps,
        roll.ctrl_sent,
        roll.ctrl_delivered,
        roll.ctrl_retransmits
    ));
    if let Some(t) = &roll.telemetry {
        json.push_str(&format!("    ,\"telemetry\": {}\n", t.to_json()));
    }
    json.push_str("  },\n");
    // Hybrid-fallback ablation block: one canonical pass of the same fleet
    // with RF-on-outage, landed next to the fallback-off rollup above. The
    // off side must carry zero RF state; the on side must strictly improve
    // availability and goodput on this hostile workload.
    let roll_rf = run_fleet(&units, &fleet_rf_cfg).rollup();
    assert_eq!(
        roll.total_rf_slots, 0,
        "fallback-off fleet must never ride RF"
    );
    assert!(
        roll_rf.mean_up_frac > roll.mean_up_frac,
        "RF fallback must strictly improve availability ({} vs {})",
        roll_rf.mean_up_frac,
        roll.mean_up_frac
    );
    assert!(
        roll_rf.sum_goodput_gbps > roll.sum_goodput_gbps,
        "RF fallback must strictly improve goodput ({} vs {})",
        roll_rf.sum_goodput_gbps,
        roll.sum_goodput_gbps
    );
    json.push_str(&format!(
        "  \"fleet_fallback\": {{\"policy\": \"RfOnOutage\", \
         \"mean_up_frac_off\": {:.6}, \"mean_up_frac_on\": {:.6}, \
         \"min_up_frac_off\": {:.6}, \"min_up_frac_on\": {:.6}, \
         \"sum_goodput_gbps_off\": {:.6}, \"sum_goodput_gbps_on\": {:.6}, \
         \"mean_rf_frac\": {:.6}, \"total_failovers\": {}, \
         \"total_failbacks\": {}, \"total_rf_slots\": {}, \
         \"rf_delivered_gb\": {:.6}}},\n",
        roll.mean_up_frac,
        roll_rf.mean_up_frac,
        roll.min_up_frac,
        roll_rf.min_up_frac,
        roll.sum_goodput_gbps,
        roll_rf.sum_goodput_gbps,
        roll_rf.mean_rf_frac,
        roll_rf.total_failovers,
        roll_rf.total_failbacks,
        roll_rf.total_rf_slots,
        roll_rf.rf_delivered_gb
    ));
    println!(
        "fleet fallback ablation: up {:.4} -> {:.4}, goodput {:.2} -> {:.2} Gbps \
         ({} failovers, mean rf_frac {:.4})",
        roll.mean_up_frac,
        roll_rf.mean_up_frac,
        roll.sum_goodput_gbps,
        roll_rf.sum_goodput_gbps,
        roll_rf.total_failovers,
        roll_rf.mean_rf_frac
    );
    // Scheduling ablation block: one canonical pass per policy over the
    // same hostile fleet, so the JSON trends the contention tradeoff
    // (aggregate service vs worst-session stall vs fairness) alongside the
    // timings. The strict policy-ordering asserts live in `ext_multi_user`,
    // which tunes the regime where they are meaningful.
    json.push_str("  \"fleet_sched\": {\n");
    let sched_policies = [
        ("static_partition", SchedConfig::static_partition()),
        ("greedy_max_margin", SchedConfig::greedy()),
        ("proportional_fair", SchedConfig::proportional_fair(1.0)),
    ];
    for (i, (name, sc)) in sched_policies.iter().enumerate() {
        let r = run_fleet_scheduled(&units, &fleet_cfg, sc)
            .expect("valid sched config")
            .rollup()
            .sched
            .expect("scheduled fleet must roll up");
        json.push_str(&format!(
            "    \"{}\": {{\"n_admitted\": {}, \"total_granted\": {}, \
             \"total_served\": {}, \"total_denied\": {}, \"total_preempts\": {}, \
             \"mean_availability\": {:.6}, \"min_availability\": {:.6}, \
             \"sum_served_gbps\": {:.6}, \"mean_stall_frac\": {:.6}, \
             \"worst_stall_s\": {:.4}, \"total_stall_events\": {}, \
             \"total_frames_played\": {}, \"fairness_jain\": {:.6}}}{}\n",
            name,
            r.n_admitted,
            r.total_granted,
            r.total_served,
            r.total_denied,
            r.total_preempts,
            r.mean_availability,
            r.min_availability,
            r.sum_served_gbps,
            r.mean_stall_frac,
            r.worst_stall_s,
            r.total_stall_events,
            r.total_frames_played,
            r.fairness_jain,
            if i + 1 < sched_policies.len() {
                ","
            } else {
                ""
            }
        ));
        println!(
            "fleet sched [{name}]: avail {:.4}/{:.4} (mean/min), {:.2} Gbps, \
             worst stall {:.3} s, jain {:.3}",
            r.mean_availability,
            r.min_availability,
            r.sum_served_gbps,
            r.worst_stall_s,
            r.fairness_jain
        );
    }
    json.push_str("  },\n");
    // Telemetry overhead: counters vs the NullSink dispatch floor on the
    // chaos workload (the ISSUE budget is <= 3% — reported, not asserted,
    // so a loaded CI host can't flake the build).
    println!("telemetry overhead probe (NullSink vs counters) ...");
    let probe = telemetry_probe(&sys_chaos, 4.0);
    println!(
        "telemetry: null sink {:.3} s, counters {:.3} s ({:+.2}% overhead), \
         bit-identical {}",
        probe.null_sink_s,
        probe.counters_s,
        probe.overhead_pct(),
        probe.bit_identical
    );
    json.push_str(&format!(
        "  \"telemetry\": {{\"null_sink_s\": {:.6}, \"counters_s\": {:.6}, \
         \"overhead_pct\": {:.4}, \"bit_identical\": {}, \"counters\": {}}},\n",
        probe.null_sink_s,
        probe.counters_s,
        probe.overhead_pct(),
        probe.bit_identical,
        probe.counters.to_json()
    ));
    json.push_str(&format!("  \"total_serial_s\": {total_serial:.6},\n"));
    json.push_str(&format!("  \"total_parallel_s\": {total_parallel:.6},\n"));
    json.push_str(&format!(
        "  \"overall_speedup\": {:.4}\n}}\n",
        total_serial / total_parallel.max(1e-12)
    ));
    let path = format!("BENCH_{date}.json");
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("\nwrote {path}");

    assert!(
        all_identical,
        "serial/parallel outputs diverged — the parallelism contract is broken"
    );
    assert!(
        probe.bit_identical,
        "telemetry counters perturbed the slot stream — telemetry must be pure observation"
    );
}
