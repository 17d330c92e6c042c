//! **Engine digest** — the bit-identity fingerprint of every slot-loop
//! simulator, for the `engine-digest` CI job.
//!
//! Runs a fixed set of workloads spanning all simulator code paths — the
//! legacy single-TX loop, the chaos control plane (ARQ + dead reckoning +
//! re-acquisition under the stress fault plan), pause-on-outage, the
//! full-physics multi-TX handover, the geometric handover model, and the
//! §5.4 trace corpus — and folds every public output field into one `mix64`
//! digest per workload.
//!
//! The digests are pure functions of the seeds: they must match the golden
//! file `goldens/engine_digest.txt` bit-for-bit on every platform and
//! thread count (`CYCLOPS_THREADS=1` included).
//! A mismatch means a refactor changed simulation semantics; the bin then
//! prints only the lines that moved, as `name: golden → got`, and exits 1.
//!
//! ```sh
//! cargo run --release -p cyclops-bench --bin engine_digest            # print
//! cargo run --release -p cyclops-bench --bin engine_digest -- --write # regen golden
//! ```

use cyclops::link::engine::{visible_margin_db, DarkDebounce, MarginSelector, SingleTx};
use cyclops::link::trace_sim::{simulate_corpus, simulate_trace, TraceSimParams};
use cyclops::prelude::*;
use cyclops::vrh::motion::ArbitraryMotionConfig;
use cyclops_bench::ceiling_units;

const GOLDEN_PATH: &str = "goldens/engine_digest.txt";

/// Folds a stream of f64 bit patterns into a running `mix64` digest (the
/// same discipline as `cyclops_bench::digest_ladder`).
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0x0063_7963_6c6f_7073_u64) // "cyclops"
    }
    fn f64(&mut self, x: f64) {
        self.0 = cyclops_par::mix64(self.0 ^ x.to_bits(), 0x9e37_79b9_7f4a_7c15);
    }
    fn u64(&mut self, x: u64) {
        self.0 = cyclops_par::mix64(self.0 ^ x, 0x9e37_79b9_7f4a_7c15);
    }
    fn bool(&mut self, b: bool) {
        self.u64(b as u64);
    }
    fn slots(&mut self, recs: &[EngineSlot]) {
        for r in recs {
            self.f64(r.t);
            self.f64(r.power_dbm);
            self.bool(r.link_up);
            self.f64(r.goodput_gbps);
            self.f64(r.lin_speed);
            self.f64(r.ang_speed);
        }
    }
    fn session_stats(&mut self, s: &SessionStats) {
        if let Some(c) = s.control {
            for n in [
                c.sent,
                c.delivered,
                c.retransmits,
                c.channel_losses,
                c.dup_frames,
                c.stale_drops,
                c.acks_lost,
                c.gave_up,
            ] {
                self.u64(n);
            }
        }
        self.u64(s.n_extrapolated);
        self.u64(s.n_reacq_steps);
        self.u64(s.n_outages);
        self.f64(s.outage_s);
        self.f64(s.longest_outage_s);
    }
}

/// The digest lines that differ between the golden file and this run, by
/// name, as `name: golden → got` (`(none)` for a line only one side has).
fn changed_lines(golden: &str, got: &str) -> Vec<String> {
    fn parse(text: &str) -> Vec<(&str, &str)> {
        text.lines().filter_map(|l| l.split_once(": ")).collect()
    }
    fn lookup<'a>(lines: &[(&str, &'a str)], name: &str) -> Option<&'a str> {
        lines.iter().find(|(n, _)| *n == name).map(|&(_, d)| d)
    }
    let (old, new) = (parse(golden), parse(got));
    let mut names: Vec<&str> = old.iter().map(|&(n, _)| n).collect();
    for &(n, _) in &new {
        if !names.contains(&n) {
            names.push(n);
        }
    }
    names
        .into_iter()
        .filter_map(|n| {
            let (o, g) = (lookup(&old, n), lookup(&new, n));
            (o != g).then(|| format!("{n}: {} → {}", o.unwrap_or("(none)"), g.unwrap_or("(none)")))
        })
        .collect()
}

fn main() {
    let write = std::env::args().any(|a| a == "--write");
    let mut lines: Vec<String> = Vec::new();
    let mut emit = |name: &str, d: Digest| {
        let line = format!("{name}: {:016x}", d.0);
        println!("{line}");
        lines.push(line);
    };

    // --- Single-TX: legacy path (i.i.d. report loss from the deployment
    // RNG, no control plane), with tracker drift.
    {
        let sys = CyclopsSystem::commission(&SystemConfig::fast_10g(9_007));
        let mut tracker = sys.tracker;
        tracker.report_loss_prob = 0.3;
        tracker.drift_sigma_per_sqrt_s = 1e-3;
        let base = Pose::translation(Vec3::new(0.0, 0.0, 1.75));
        let motion = ArbitraryMotion::new(base, ArbitraryMotionConfig::default(), 611);
        let mut sim = sys
            .into_session_builder(motion)
            .tracker(tracker)
            .build()
            .expect("valid engine config");
        let recs = sim.run(3.0);
        let mut d = Digest::new();
        d.slots(&recs);
        d.session_stats(&sim.session_stats());
        emit("link_legacy", d);
    }

    // --- Single-TX: chaos control plane (ARQ + DR + re-acquisition under
    // the stress fault plan), hand-held motion. `chaos` runs it with a hook
    // on the session builder, so the identity guards below reuse it.
    {
        type Builder = SessionBuilder<ArbitraryMotion, SingleTx>;
        let chaos = |hook: &dyn Fn(Builder) -> Builder| -> Digest {
            let mut sys = CyclopsSystem::commission(&SystemConfig::fast_10g(9_007));
            sys.control = Some(ControlPlaneConfig::hardened(FaultPlan::stress(17)));
            let base = Pose::translation(Vec3::new(0.0, 0.0, 1.75));
            let motion = ArbitraryMotion::new(base, ArbitraryMotionConfig::default(), 613);
            let mut session = hook(sys.into_session_builder(motion))
                .build()
                .expect("valid engine config");
            let recs = session.run(3.0);
            let mut d = Digest::new();
            d.slots(&recs);
            d.session_stats(&session.session_stats());
            d
        };
        let d = chaos(&|b| b);
        let chaos_digest = d.0;
        emit("link_chaos", d);

        // Telemetry-identity guard (not a golden line): attaching observers
        // — counters, or a JSONL sink — must not move a single bit.
        let jsonl_path = std::env::temp_dir().join("cyclops_engine_digest_tele.jsonl");
        let jsonl = |b: Builder| {
            b.telemetry(Telemetry::with_sink_and_counters(Box::new(
                JsonlSink::create(&jsonl_path).expect("create jsonl sink"),
            )))
        };
        let guards: [(&str, &dyn Fn(Builder) -> Builder); 3] = [
            ("off", &|b| b.telemetry(Telemetry::off())),
            ("counters", &|b| b.telemetry(Telemetry::counters())),
            ("jsonl+counters", &jsonl),
        ];
        for (name, hook) in guards {
            assert_eq!(
                chaos(hook).0,
                chaos_digest,
                "telemetry config `{name}` perturbed the link_chaos digest"
            );
        }
        let _ = std::fs::remove_file(&jsonl_path);
        println!("link_chaos: telemetry identity holds (off/counters/jsonl)");

        // Fallback-identity guard (not a golden line): with
        // `FallbackPolicy::Off` — whether defaulted or set explicitly —
        // the hybrid-link machinery must be fully skipped and the digest
        // must not move a bit. (`RfOnOutage` is covered by its own tests;
        // here we pin that *opting out* is free.)
        assert_eq!(
            chaos(&|b| b.fallback(FallbackPolicy::Off)).0,
            chaos_digest,
            "explicit FallbackPolicy::Off perturbed the link_chaos digest"
        );
        println!("link_chaos: fallback-off identity holds");

        // Environment-identity guard (not a golden line): an explicitly
        // attached empty `Environment`, and one whose only stage attenuates
        // nothing (density-0 fog), must leave the digest bit-identical —
        // opting out of weather is free, per the registry/environment
        // determinism contract.
        assert_eq!(
            chaos(&|b| b.environment(Environment::new())).0,
            chaos_digest,
            "empty Environment perturbed the link_chaos digest"
        );
        let zero_fog = |b: Builder| {
            b.environment(
                Environment::new()
                    .stage(FogStage::from_density(0.0, 1550.0).expect("valid density")),
            )
        };
        assert_eq!(
            chaos(&zero_fog).0,
            chaos_digest,
            "density-0 fog perturbed the link_chaos digest"
        );
        println!("link_chaos: environment-off identity holds");
    }

    // --- Single-TX: pause-on-outage operator protocol on a too-fast rail.
    {
        let sys = CyclopsSystem::commission(&SystemConfig::fast_10g(9_007));
        let base = Pose::translation(Vec3::new(0.0, 0.0, 1.75));
        let mut rail = LinearRail::paper_protocol(base, Vec3::X);
        rail.v0 = 1.0;
        rail.dv = 0.0;
        let mut sim = sys
            .into_session_builder(rail)
            .pause_on_outage(true)
            .build()
            .expect("valid engine config");
        let recs = sim.run(4.0);
        let mut d = Digest::new();
        d.slots(&recs);
        d.session_stats(&sim.session_stats());
        emit("link_pause", d);
    }

    // --- Multi-TX full-physics handover under a parked occluder.
    {
        let units = ceiling_units(&SystemConfig::fast_10g(902));
        let tx0 = units[0].dep.tx_world_params().q2;
        let rx = Vec3::new(0.0, 0.0, 1.75);
        let mid = tx0.lerp(rx, 0.5);
        let occ = Occluder::new(mid, 0.12, 0.4, 1);
        let motion = StaticPose(Pose::translation(rx));
        let mut sim = LinkSession::builder(motion)
            .units(units)
            .occluder(occ)
            .selector(DarkDebounce::new(0.03))
            .config(EngineConfig {
                los_gating: true,
                ..EngineConfig::default()
            })
            .first_report(FirstReport::AtZero)
            .build()
            .expect("valid multi-TX config");
        let recs = sim.run(4.0);
        let mut d = Digest::new();
        for r in &recs {
            d.f64(r.t);
            d.u64(r.active as u64);
            d.bool(r.los);
            d.f64(r.power_dbm);
            d.bool(r.link_up);
        }
        d.u64(sim.active() as u64);
        emit("multi_tx", d);
    }

    // --- Geometric handover model under a roaming occluder.
    {
        let txs: Vec<Vec3> = (0..3)
            .map(|i| Vec3::new(-0.8 + 0.8 * i as f64, 2.0, 0.0))
            .collect();
        let design = LinkDesign::ten_g_diverging(20e-3, 2.0);
        let mut sel = MarginSelector::new(0.05);
        let mut active = 0;
        let mut occ = Occluder::new(Vec3::new(-0.4, 1.0, 0.0), 0.25, 1.5, 7);
        let rx = Vec3::new(0.0, 0.0, 0.0);
        let mut d = Digest::new();
        for _ in 0..20_000 {
            occ.step(1e-3);
            let occluders = std::slice::from_ref(&occ);
            let margin = |i: usize| visible_margin_db(&design, occluders, txs[i], rx);
            let (delivering, a) = sel.step(active, txs.len(), margin, 1e-3);
            active = a;
            d.bool(delivering);
            d.u64(active as u64);
        }
        emit("handover_geom", d);
    }

    // --- §5.4 trace corpus with loss + dead reckoning.
    {
        let traces: Vec<HeadTrace> = (0..40)
            .map(|i| HeadTrace::generate(&TraceGenConfig::default(), 9_100 + i))
            .collect();
        let p = TraceSimParams {
            report_loss_prob: 0.2,
            loss_seed: 41,
            dead_reckoning: true,
            ..Default::default()
        };
        let fracs = simulate_corpus(&traces, &p);
        let mut d = Digest::new();
        for f in &fracs {
            d.f64(*f);
        }
        // Per-slot connectivity + the scatter metric of one trace.
        let r = simulate_trace(&traces[0], &p);
        for &b in &r.slots_on {
            d.bool(b);
        }
        d.f64(r.on_fraction);
        d.f64(r.off_slot_scatter_fraction(30, 10));
        emit("trace_corpus", d);
    }

    // --- Scheduled fleet: the shared-TX grant engine under all three
    // policies (static partition, greedy max-margin, proportional-fair)
    // with the bursty viewport traffic source, folded into one digest.
    {
        let units = ceiling_units(&SystemConfig::fast_10g(905));
        let fleet = FleetConfig {
            n_sessions: 4,
            duration_s: 1.5,
            seed: 905,
            ..FleetConfig::default()
        };
        let mut d = Digest::new();
        for sc in [
            SchedConfig::static_partition(),
            SchedConfig::greedy(),
            SchedConfig::proportional_fair(1.0),
        ] {
            let sum = run_fleet_scheduled(&units, &fleet, &sc).expect("valid sched config");
            for s in &sum.sessions {
                d.u64(s.seed);
                d.f64(s.up_frac);
                d.f64(s.signal_frac);
                d.f64(s.mean_goodput_gbps);
                d.f64(s.mean_power_dbm);
                d.u64(s.handovers);
                let st = s.sched.expect("scheduled session stats");
                d.bool(st.admitted);
                for n in [
                    st.granted_slots,
                    st.served_slots,
                    st.denied_slots,
                    st.retarget_slots,
                    st.preempts,
                    st.stall_events,
                    st.frames_generated,
                    st.frames_played,
                ] {
                    d.u64(n);
                }
                for x in [
                    st.availability,
                    st.delivered_gb,
                    st.mean_served_gbps,
                    st.offered_gb,
                    st.stall_s,
                    st.stall_frac,
                ] {
                    d.f64(x);
                }
            }
            let r = sum.rollup().sched.expect("scheduled rollup");
            d.u64(r.n_admitted as u64);
            d.u64(r.total_served);
            d.u64(r.total_preempts);
            d.f64(r.mean_availability);
            d.f64(r.min_availability);
            d.f64(r.sum_served_gbps);
            d.f64(r.worst_stall_s);
            d.f64(r.fairness_jain);
        }
        emit("fleet_sched", d);
    }

    let body = lines.join("\n") + "\n";
    if write {
        std::fs::create_dir_all("goldens").expect("mkdir goldens");
        std::fs::write(GOLDEN_PATH, &body).expect("write golden");
        println!("wrote {GOLDEN_PATH}");
        return;
    }
    match std::fs::read_to_string(GOLDEN_PATH) {
        Ok(golden) => {
            if golden == body {
                println!("engine digests match {GOLDEN_PATH}");
            } else {
                eprintln!("engine digest MISMATCH against {GOLDEN_PATH} (golden → got):");
                let changed = changed_lines(&golden, &body);
                if changed.is_empty() {
                    eprintln!("  every digest matches; the file's line order or layout differs");
                }
                for line in changed {
                    eprintln!("  {line}");
                }
                std::process::exit(1);
            }
        }
        Err(_) => {
            eprintln!("no {GOLDEN_PATH}; run with --write to create it");
            std::process::exit(1);
        }
    }
}
