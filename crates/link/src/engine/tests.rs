use super::*;
use crate::telemetry::{
    SessionTelemetry, Telemetry, TelemetryCounters, TelemetryEvent, TelemetrySink,
};
use cyclops_core::commission::{commission, SystemConfig};
use cyclops_core::deployment::Deployment;
use cyclops_core::pointing::ReacqSpiral;
use cyclops_core::tp::TpController;
use cyclops_geom::pose::Pose;
use cyclops_geom::vec3::v3;
use cyclops_geom::vec3::Vec3;
use cyclops_optics::coupling::LinkDesign;
use cyclops_vrh::motion::Motion;
use cyclops_vrh::traces::HeadTrace;

/// Two fully-trained installations sharing one headset world.
pub(crate) fn two_units(seed: u64) -> Vec<TxInstallation> {
    [v3(-0.35, 0.0, 0.0), v3(0.35, 0.0, 0.0)]
        .into_iter()
        .map(|pos| {
            let mut cfg = SystemConfig::fast_10g(seed);
            cfg.deployment.tx_position = pos;
            let (dep, ctl, ..) = commission(&cfg);
            TxInstallation { dep, ctl }
        })
        .collect()
}

#[test]
fn single_tx_selector_never_switches() {
    let mut s = SingleTx;
    let ctx = SelectCtx {
        active: 0,
        signal: false,
        slot_s: 1e-3,
        rx_pos: Vec3::ZERO,
        tx_positions: &[Vec3::ZERO, v3(1.0, 0.0, 0.0)],
        occluders: &[],
    };
    for _ in 0..100 {
        assert_eq!(s.on_slot(&ctx), None);
    }
}

#[test]
fn dark_debounce_waits_then_picks_nearest_visible() {
    let mut s = DarkDebounce::new(0.03);
    let tx = [v3(-1.0, 2.0, 0.0), v3(0.4, 2.0, 0.0), v3(3.0, 2.0, 0.0)];
    let dark = |sel: &mut DarkDebounce| {
        sel.on_slot(&SelectCtx {
            active: 0,
            signal: false,
            slot_s: 1e-3,
            rx_pos: Vec3::ZERO,
            tx_positions: &tx,
            occluders: &[],
        })
    };
    // 29 dark ms: still debouncing.
    for _ in 0..29 {
        assert_eq!(dark(&mut s), None);
    }
    // 30th dark slot: nearest sibling (unit 1) wins.
    assert_eq!(dark(&mut s), Some(1));
}

#[test]
fn dark_debounce_resets_on_signal() {
    let mut s = DarkDebounce::new(0.03);
    let tx = [v3(-1.0, 2.0, 0.0), v3(0.4, 2.0, 0.0)];
    let slot = |sel: &mut DarkDebounce, signal: bool| {
        sel.on_slot(&SelectCtx {
            active: 0,
            signal,
            slot_s: 1e-3,
            rx_pos: Vec3::ZERO,
            tx_positions: &tx,
            occluders: &[],
        })
    };
    for _ in 0..29 {
        assert_eq!(slot(&mut s, false), None);
    }
    assert_eq!(slot(&mut s, true), None); // signal resets the clock
    for _ in 0..29 {
        assert_eq!(slot(&mut s, false), None);
    }
    assert_eq!(slot(&mut s, false), Some(1));
}

#[test]
fn margin_selector_without_hysteresis_matches_legacy_semantics() {
    let mut sel = MarginSelector::new(0.05);
    // Active usable: deliver, never switch.
    let (d, a) = sel.step(0, 2, |i| if i == 0 { 1.0 } else { 10.0 }, 1e-3);
    assert!(d);
    assert_eq!(a, 0);
    // Active dead: switch to the best usable, pay the delay.
    let (d, a) = sel.step(0, 2, |i| if i == 0 { -1.0 } else { 3.0 }, 1e-3);
    assert!(!d);
    assert_eq!(a, 1);
    assert!(sel.switching());
}

#[test]
fn margin_selector_hysteresis_upgrades_only_past_threshold() {
    let mut sel = MarginSelector::new(0.0);
    sel.hysteresis_db = Some(2.0);
    // 1 dB better: below hysteresis, stay.
    let (d, a) = sel.step(0, 2, |i| if i == 0 { 5.0 } else { 6.0 }, 1e-3);
    assert!(d);
    assert_eq!(a, 0);
    // 3 dB better: upgrade.
    let (_, a) = sel.step(0, 2, |i| if i == 0 { 5.0 } else { 8.0 }, 1e-3);
    assert_eq!(a, 1);
}

// -- Geometric handover: MarginSelector over visible_margin_db ---------

/// Two ceiling units 1.6 m apart, 2 m above an RX at the origin.
fn ceiling() -> [Vec3; 2] {
    [v3(-0.8, 2.0, 0.0), v3(0.8, 2.0, 0.0)]
}

/// One 1 ms geometric handover step on the 10G diverging design; the
/// caller holds the active unit. Returns whether the link delivers.
fn geo_step(
    sel: &mut MarginSelector,
    active: &mut usize,
    txs: &[Vec3],
    rx: Vec3,
    occluders: &[Occluder],
) -> bool {
    let design = LinkDesign::ten_g_diverging(20e-3, 2.0);
    let margin = |i: usize| visible_margin_db(&design, occluders, txs[i], rx);
    let (delivering, a) = sel.step(*active, txs.len(), margin, 1e-3);
    *active = a;
    delivering
}

#[test]
fn occluder_blocks_geometry() {
    let o = Occluder::new(v3(0.0, 1.0, 0.0), 0.15, 0.0, 1);
    assert!(o.blocks(v3(0.0, 2.0, 0.0), v3(0.0, 0.0, 0.0)));
    assert!(!o.blocks(v3(1.0, 2.0, 0.0), v3(1.0, 0.0, 0.0)));
    // Segment ending before the sphere.
    assert!(!o.blocks(v3(0.0, 3.0, 0.0), v3(0.0, 2.0, 0.0)));
    // A blocked unit's visible margin is -inf; an unblocked one's is
    // the aligned margin.
    let design = LinkDesign::ten_g_diverging(20e-3, 2.0);
    let (tx, rx) = (v3(0.0, 2.0, 0.0), Vec3::ZERO);
    assert_eq!(
        visible_margin_db(&design, std::slice::from_ref(&o), tx, rx),
        f64::NEG_INFINITY
    );
    assert_eq!(
        visible_margin_db(&design, &[], tx, rx),
        aligned_margin_db(&design, tx, rx)
    );
}

#[test]
fn unobstructed_link_stays_on_unit0() {
    let mut sel = MarginSelector::new(0.05);
    let mut active = 0;
    for _ in 0..100 {
        assert!(geo_step(&mut sel, &mut active, &ceiling(), Vec3::ZERO, &[]));
    }
    assert_eq!(active, 0);
}

#[test]
fn blocking_unit0_hands_over_to_unit1() {
    let mut sel = MarginSelector::new(0.05);
    let mut active = 0;
    // Occluder square on the unit-0 path.
    let occ = [Occluder::new(v3(-0.4, 1.0, 0.0), 0.2, 0.0, 2)];
    let mut delivered = 0;
    let mut outage = 0;
    for _ in 0..200 {
        if geo_step(&mut sel, &mut active, &ceiling(), Vec3::ZERO, &occ) {
            delivered += 1;
        } else {
            outage += 1;
        }
    }
    assert_eq!(active, 1);
    // 50 ms switch ≈ 50 slots of outage, then delivery resumes.
    assert!((45..60).contains(&outage), "outage {outage}");
    assert!(delivered > 130);
}

#[test]
fn out_of_range_unit_is_not_selected() {
    // A visible unit whose link cannot close at the RX distance must not
    // be handed over to.
    let txs = [v3(-0.8, 2.0, 0.0), v3(40.0, 2.0, 0.0)]; // 40 m away
    let design = LinkDesign::ten_g_diverging(20e-3, 2.0);
    assert!(
        aligned_margin_db(&design, txs[1], Vec3::ZERO) < 0.0,
        "far unit must be out of margin"
    );
    let mut sel = MarginSelector::new(0.01);
    let mut active = 0;
    let occ = [Occluder::new(v3(-0.4, 1.0, 0.0), 0.2, 0.0, 5)];
    for _ in 0..100 {
        assert!(
            !geo_step(&mut sel, &mut active, &txs, Vec3::ZERO, &occ),
            "no usable unit -> no delivery"
        );
    }
    assert_eq!(active, 0, "must not switch to the out-of-range unit");
}

#[test]
fn all_blocked_means_no_delivery() {
    let mut sel = MarginSelector::new(0.01);
    let mut active = 0;
    let occ = [
        Occluder::new(v3(-0.4, 1.0, 0.0), 0.3, 0.0, 3),
        Occluder::new(v3(0.4, 1.0, 0.0), 0.3, 0.0, 4),
    ];
    let txs = ceiling();
    for _ in 0..50 {
        assert!(!geo_step(&mut sel, &mut active, &txs, Vec3::ZERO, &occ));
    }
}

#[test]
fn multi_tx_beats_single_tx_under_roaming_occlusion() {
    // Availability comparison — the quantitative case for the §3 idea.
    let run = |txs: &[Vec3]| -> f64 {
        let mut sel = MarginSelector::new(0.05);
        let mut active = 0;
        let mut occ = Occluder::new(v3(-0.4, 1.0, 0.0), 0.25, 1.5, 7);
        let mut ok = 0usize;
        const N: usize = 20_000;
        for _ in 0..N {
            occ.step(1e-3);
            let occ = std::slice::from_ref(&occ);
            ok += geo_step(&mut sel, &mut active, txs, Vec3::ZERO, occ) as usize;
        }
        ok as f64 / N as f64
    };
    let single = run(&ceiling()[..1]);
    let dual = run(&ceiling());
    assert!(dual > single, "dual {dual} vs single {single}");
}

#[test]
fn hysteresis_upgrades_to_a_much_better_unit() {
    // RX parked far off-centre: unit 1 is much closer (higher margin)
    // but unit 0 still closes. Without hysteresis the selector never
    // leaves unit 0; with it, it upgrades after the switch delay.
    let rx = v3(0.7, 0.0, 0.0);
    let mut plain = MarginSelector::new(0.01);
    let mut active = 0;
    for _ in 0..100 {
        geo_step(&mut plain, &mut active, &ceiling(), rx, &[]);
    }
    assert_eq!(active, 0, "no hysteresis: never upgrade");
    let mut greedy = MarginSelector::new(0.01);
    greedy.hysteresis_db = Some(0.5);
    let mut active = 0;
    for _ in 0..100 {
        geo_step(&mut greedy, &mut active, &ceiling(), rx, &[]);
    }
    assert_eq!(active, 1, "hysteresis: upgrade to better unit");
}

#[test]
fn trace_session_matches_simulate_trace() {
    use crate::trace_sim::{simulate_trace, TraceSimParams};
    use cyclops_vrh::traces::TraceGenConfig;
    let tr = HeadTrace::generate(&TraceGenConfig::default(), 4242);
    let p = TraceSimParams {
        report_loss_prob: 0.25,
        loss_seed: 9,
        dead_reckoning: true,
        ..Default::default()
    };
    let r = simulate_trace(&tr, &p);
    let n_slots = ((tr.duration_s() * 1e3) / p.slot_ms).floor() as usize;
    let mut s = TraceSession::new(&tr, p);
    let slots = run_slots(&mut s, n_slots);
    assert_eq!(r.slots_on, slots);
}

#[test]
fn fleet_reports_are_deterministic_and_per_session_seeded() {
    let units = two_units(911);
    let cfg = FleetConfig {
        n_sessions: 3,
        duration_s: 0.5,
        seed: 77,
        ..Default::default()
    };
    let a = run_fleet(&units, &cfg);
    let b = run_fleet(&units, &cfg);
    assert_eq!(a.sessions.len(), 3);
    for (x, y) in a.sessions.iter().zip(&b.sessions) {
        assert_eq!(x.seed, y.seed);
        assert_eq!(x.up_frac.to_bits(), y.up_frac.to_bits());
        assert_eq!(x.mean_goodput_gbps.to_bits(), y.mean_goodput_gbps.to_bits());
        assert_eq!(x.stats.n_outages, y.stats.n_outages);
    }
    // Sessions are independently seeded: their streams must differ.
    assert_ne!(a.sessions[0].seed, a.sessions[1].seed);
    let r = a.rollup();
    assert_eq!(r.n_sessions, 3);
    assert_eq!(r.total_slots, a.sessions.iter().map(|s| s.slots).sum());
    assert!(r.min_up_frac <= r.mean_up_frac + 1e-12);
    // Telemetry is off by default: no per-session or rolled-up counters.
    assert!(a.sessions.iter().all(|s| s.telemetry.is_none()));
    assert!(r.telemetry.is_none());

    // The fleet drivers at pool widths {1, 2, 3, 8} on a hostile shape:
    // the hardened control plane under the stress fault plan, a roaming
    // occluder and the RF fallback. Five sessions split into a different
    // set of worker chunks at every width.
    let tx0 = units[0].dep.tx_world_params().q2;
    let hostile = FleetConfig {
        n_sessions: 5,
        duration_s: 1.5,
        seed: 424,
        control: Some(ControlPlaneConfig::hardened(FaultPlan::stress(5))),
        occluders: vec![Occluder::new(
            tx0.lerp(park_pose().trans, 0.5),
            0.12,
            0.4,
            0,
        )],
        fallback: FallbackPolicy::RfOnOutage,
        ..FleetConfig::default()
    };
    // The mixed driver adds two tracker pools, fog, scintillation and
    // per-session telemetry.
    let pools = ["rift-s", "quest"].map(|name| FleetPool {
        label: name.into(),
        units: units.clone(),
        tracker: crate::registry::headset_profile(name)
            .expect("registered headset")
            .tracker,
    });
    let mixed = FleetConfig {
        environment: Some(
            crate::channel::Environment::new()
                .stage(crate::channel::FogStage::from_density(0.3, 1550.0).expect("valid density"))
                .stage(
                    crate::channel::ScintillationStage::new(0.6, 10e-3, 77)
                        .expect("valid scintillation"),
                ),
        ),
        collect_telemetry: true,
        ..hostile.clone()
    };
    let at = |threads: usize| {
        cyclops_par::with_threads(threads, || {
            (
                run_fleet(&units, &hostile),
                run_fleet_mixed(&pools, &mixed).expect("valid mixed fleet"),
            )
        })
    };
    let (plain1, mixed1) = at(1);
    // The shape bites: every path the signature covers is exercised.
    let r = plain1.rollup();
    assert!(r.total_failovers > 0 && r.ctrl_retransmits > 0 && r.total_handovers > 0);
    assert_eq!(mixed1.profile_rollups().len(), 2);
    for threads in [2, 3, 8] {
        let (plain, mixed) = at(threads);
        assert_same_fleet(&plain, &plain1, &format!("run_fleet, {threads} threads"));
        assert_same_fleet(
            &mixed,
            &mixed1,
            &format!("run_fleet_mixed, {threads} threads"),
        );
    }
}

/// Every field of every report, and the per-profile rollups, must match.
/// `{:?}` prints each float in its shortest round-trip form, so equal text
/// means equal bits for every non-NaN field.
fn assert_same_fleet(got: &FleetSummary, want: &FleetSummary, ctx: &str) {
    assert_eq!(got.sessions.len(), want.sessions.len(), "{ctx}");
    for (g, w) in got.sessions.iter().zip(&want.sessions) {
        assert_eq!(
            format!("{g:?}"),
            format!("{w:?}"),
            "{ctx}: session {}",
            w.session
        );
    }
    assert_eq!(
        format!("{:?}", got.profile_rollups()),
        format!("{:?}", want.profile_rollups()),
        "{ctx}: profile rollups"
    );
}

/// The streaming rollup accumulator: `rollup()` must match a
/// hand-written single fold bit-for-bit.
#[test]
fn rollup_matches_manual_fold() {
    let units = two_units(911);
    let cfg = FleetConfig {
        n_sessions: 6,
        duration_s: 0.3,
        seed: 42,
        collect_telemetry: true,
        ..Default::default()
    };
    let summary = run_fleet(&units, &cfg);
    let direct = summary.rollup();

    // Manual fold, the historical implementation.
    let n = summary.sessions.len();
    let mut mean_up = 0.0;
    let mut mean_sig = 0.0;
    let mut min_up = f64::INFINITY;
    let mut sum_goodput = 0.0;
    let mut handovers = 0u64;
    let mut slots = 0usize;
    for s in &summary.sessions {
        slots += s.slots;
        mean_up += s.up_frac;
        mean_sig += s.signal_frac;
        min_up = min_up.min(s.up_frac);
        sum_goodput += s.mean_goodput_gbps;
        handovers += s.handovers;
    }
    mean_up /= n as f64;
    mean_sig /= n as f64;
    assert_eq!(direct.total_slots, slots);
    assert_eq!(direct.mean_up_frac.to_bits(), mean_up.to_bits());
    assert_eq!(direct.mean_signal_frac.to_bits(), mean_sig.to_bits());
    assert_eq!(direct.min_up_frac.to_bits(), min_up.to_bits());
    assert_eq!(direct.sum_goodput_gbps.to_bits(), sum_goodput.to_bits());
    assert_eq!(direct.total_handovers, handovers);
}

use crate::control::FaultPlan;
use crate::telemetry::JsonlSink;
use cyclops_vrh::motion::StaticPose;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A sink that only counts records, observable from outside the session.
#[derive(Debug)]
struct CountingSink(Arc<AtomicU64>);
impl TelemetrySink for CountingSink {
    fn record(&mut self, _ev: &TelemetryEvent) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

fn park_pose() -> Pose {
    Pose::translation(v3(0.0, 0.0, 1.75))
}

/// Single-TX chaos session (ARQ + DR + re-acq under the stress fault
/// plan) over one commissioned unit, with the given telemetry layer.
fn chaos_session(tele: Telemetry) -> LinkSession<StaticPose, SingleTx> {
    let unit = two_units(912).remove(0);
    let mut cfg = EngineConfig::default();
    cfg.tracker.drift_sigma_per_sqrt_s = 1e-3;
    cfg.control = Some(ControlPlaneConfig::hardened(FaultPlan::stress(17)));
    LinkSession::builder(StaticPose(park_pose()))
        .deployment(unit.dep, unit.ctl)
        .config(cfg)
        .first_report(FirstReport::AfterPeriod)
        .telemetry(tele)
        .build()
        .expect("valid chaos config")
}

fn assert_streams_identical(a: &[EngineSlot], b: &[EngineSlot]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.t.to_bits(), y.t.to_bits());
        assert_eq!(x.active, y.active);
        assert_eq!(x.los, y.los);
        assert_eq!(x.power_dbm.to_bits(), y.power_dbm.to_bits());
        assert_eq!(x.link_up, y.link_up);
        assert_eq!(x.rf_active, y.rf_active);
        assert_eq!(x.goodput_gbps.to_bits(), y.goodput_gbps.to_bits());
        assert_eq!(x.lin_speed.to_bits(), y.lin_speed.to_bits());
        assert_eq!(x.ang_speed.to_bits(), y.ang_speed.to_bits());
    }
}

#[test]
fn telemetry_sinks_do_not_perturb_the_slot_stream() {
    // The determinism contract of the telemetry layer: the EngineSlot
    // stream is bit-identical with telemetry disabled, with counters,
    // with a JSONL sink, and with an arbitrary custom sink.
    let run = |tele: Telemetry| {
        let mut s = chaos_session(tele);
        let recs = s.run(1.0);
        let counters = s.telemetry().copied();
        (recs, counters)
    };
    let (off, c_off) = run(Telemetry::off());
    let (counted, c_on) = run(Telemetry::counters());
    assert!(c_off.is_none());
    let jsonl_path = std::env::temp_dir().join("cyclops_engine_tele_identity.jsonl");
    let sink = JsonlSink::create(&jsonl_path).expect("create jsonl");
    let (jsonl, c_jsonl) = run(Telemetry::with_sink_and_counters(Box::new(sink)));
    let n_events = Arc::new(AtomicU64::new(0));
    let (custom, _) = run(Telemetry::with_sink(Box::new(CountingSink(
        n_events.clone(),
    ))));
    assert_streams_identical(&off, &counted);
    assert_streams_identical(&off, &jsonl);
    assert_streams_identical(&off, &custom);
    // Counters aggregate the same stream regardless of the sink.
    let c_on = c_on.expect("counters attached");
    assert_eq!(Some(c_on), c_jsonl);
    assert_eq!(c_on.events.slots as usize, off.len());
    assert!(c_on.events.ctrl_sent > 0, "{:?}", c_on.events);
    assert!(c_on.events.ctrl_delivered > 0, "{:?}", c_on.events);
    assert!(c_on.events.tp_commands > 0, "{:?}", c_on.events);
    // One JSONL line per recorded event.
    let body = std::fs::read_to_string(&jsonl_path).expect("read jsonl");
    let _ = std::fs::remove_file(&jsonl_path);
    assert_eq!(
        body.lines().count() as u64,
        n_events.load(Ordering::Relaxed)
    );
    assert!(body.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
}

#[test]
fn multi_tx_handover_telemetry_counts_events() {
    // The occlusion-handover workload under counters: handover, SFP
    // down/up and outage-histogram events must land, and the stream must
    // stay bit-identical to the uninstrumented run.
    let units = two_units(902);
    let tx0 = units[0].dep.tx_world_params().q2;
    let rx = v3(0.0, 0.0, 1.75);
    let occ = Occluder::new(tx0.lerp(rx, 0.5), 0.12, 0.0, 1);
    let run = |tele: Telemetry| {
        let mut s = LinkSession::builder(StaticPose(Pose::translation(rx)))
            .units(units.clone())
            .occluder(occ.clone())
            .selector(DarkDebounce::new(0.03))
            .config(EngineConfig {
                los_gating: true,
                ..EngineConfig::default()
            })
            .first_report(FirstReport::AtZero)
            .telemetry(tele)
            .build()
            .expect("valid multi-TX config");
        let recs = s.run(4.0);
        let counters = s.telemetry().copied();
        (recs, counters)
    };
    let (off, _) = run(Telemetry::off());
    let (counted, c) = run(Telemetry::counters());
    assert_streams_identical(&off, &counted);
    let c = c.expect("counters attached");
    assert_eq!(c.events.slots as usize, off.len());
    assert!(c.events.handovers >= 1, "{:?}", c.events);
    assert!(c.events.sfp_downs >= 1, "{:?}", c.events);
    assert!(c.events.sfp_ups >= 1, "{:?}", c.events);
    assert!(c.outage_s.samples() >= 1, "outage histogram must fill");
}

#[test]
fn empty_environment_is_bit_identical_to_none() {
    // Builder contract: an empty Environment is stored as None, and a
    // density-0 fog stage attenuates nothing — both must leave the slot
    // stream bit-identical to a session built without an environment.
    let run = |env: Option<crate::channel::Environment>| {
        let unit = two_units(913).remove(0);
        let mut b = LinkSession::builder(StaticPose(park_pose()))
            .deployment(unit.dep, unit.ctl)
            .config(EngineConfig::default());
        if let Some(env) = env {
            b = b.environment(env);
        }
        b.build().expect("valid config").run(0.5)
    };
    let base = run(None);
    assert_streams_identical(&base, &run(Some(crate::channel::Environment::new())));
    let zero_fog = crate::channel::Environment::new()
        .stage(crate::channel::FogStage::from_density(0.0, 1550.0).expect("valid density"));
    assert_streams_identical(&base, &run(Some(zero_fog)));
}

#[test]
fn fog_environment_attenuates_power() {
    let run = |env: Option<crate::channel::Environment>| {
        let unit = two_units(913).remove(0);
        let mut b = LinkSession::builder(StaticPose(park_pose()))
            .deployment(unit.dep, unit.ctl)
            .config(EngineConfig::default());
        if let Some(env) = env {
            b = b.environment(env);
        }
        b.build().expect("valid config").run(0.5)
    };
    let clean = run(None);
    let fog = crate::channel::Environment::new()
        .stage(crate::channel::FogStage::from_density(0.8, 1550.0).expect("valid density"));
    let foggy = run(Some(fog.clone()));
    // Dense fog over the paper's 1.75 m path: every slot loses the same
    // static Beer–Lambert amount.
    let att = {
        let mut probe = fog.clone();
        probe.attenuation_db(0.0, 1.75)
    };
    assert!(att > 0.0, "dense fog must attenuate: {att}");
    for (a, b) in clean.iter().zip(&foggy) {
        assert!(
            b.power_dbm <= a.power_dbm - att + 1e-9,
            "fog slot {} vs clean {}",
            b.power_dbm,
            a.power_dbm
        );
    }
}

#[test]
fn fleet_rollup_merges_session_telemetry() {
    let units = two_units(911);
    let cfg = FleetConfig {
        n_sessions: 3,
        duration_s: 0.4,
        seed: 77,
        collect_telemetry: true,
        ..FleetConfig::default()
    };
    let s = run_fleet(&units, &cfg);
    assert!(s.sessions.iter().all(|r| r.telemetry.is_some()));
    let r = s.rollup();
    let t = r.telemetry.expect("telemetry collected");
    assert_eq!(t.events.sessions, 3);
    assert_eq!(t.events.slots, r.total_slots as u64);
    // The roll-up is exactly the merge of the per-session aggregates.
    let mut manual = SessionTelemetry::default();
    for rep in &s.sessions {
        manual.merge(rep.telemetry.as_ref().unwrap());
    }
    assert_eq!(manual, t);
}

#[test]
fn clear_inflight_resets_all_per_unit_state() {
    // Regression for the handover counter sweep: an exhausted spiral
    // budget (or stale DR state) on the old unit must not leak into the
    // new unit after a handover.
    let mut tp = TpPolicy::default();
    tp.pending.push_back((1.0, [0.1; 4]));
    tp.deliveries.push_back((0.5, park_pose()));
    tp.last_delivery_arrival = Some(0.6);
    tp.last_dr_t = 0.7;
    tp.spiral = Some(ReacqSpiral::new([0.0; 4], 0.02, 100));
    tp.spiral_exhausted = true;
    tp.signal_lost_since = Some(0.2);
    tp.clear_inflight();
    assert!(tp.pending.is_empty());
    assert!(tp.deliveries.is_empty());
    assert_eq!(tp.last_delivery_arrival, None);
    assert_eq!(tp.last_dr_t, 0.0);
    assert!(tp.spiral.is_none());
    assert!(!tp.spiral_exhausted, "exhausted budget must not carry over");
    assert_eq!(tp.signal_lost_since, None);
}

#[test]
fn builders_reject_invalid_configs() {
    assert_eq!(EngineConfig::default().validate(), Ok(()));
    let c = EngineConfig {
        slot_s: 0.0,
        ..EngineConfig::default()
    };
    assert_eq!(c.validate(), Err(EngineConfigError::InvalidSlot));
    let c = EngineConfig {
        slot_s: f64::NAN,
        ..EngineConfig::default()
    };
    assert_eq!(c.validate(), Err(EngineConfigError::InvalidSlot));
    // Goodput accounting is on in the default profile, so zero-size
    // frames must be rejected.
    let c = EngineConfig {
        frame_bits: 0,
        ..EngineConfig::default()
    };
    assert_eq!(c.validate(), Err(EngineConfigError::ZeroFrameBits));
    for bad in [
        TrackerConfig {
            late_prob: 1.5,
            ..TrackerConfig::default()
        },
        TrackerConfig {
            pos_noise_sigma: f64::NAN,
            ..TrackerConfig::default()
        },
    ] {
        let c = EngineConfig {
            tracker: bad,
            ..EngineConfig::default()
        };
        assert!(matches!(
            c.validate(),
            Err(EngineConfigError::InvalidTracker(_))
        ));
    }
    let c = EngineConfig {
        control: Some(ControlPlaneConfig::hardened(FaultPlan {
            loss_prob: -0.1,
            ..FaultPlan::clean(1)
        })),
        ..EngineConfig::default()
    };
    assert!(matches!(
        c.validate(),
        Err(EngineConfigError::InvalidControl(_))
    ));
    // A builder with no units fails before validation even matters.
    assert_eq!(
        LinkSession::builder(StaticPose(park_pose())).build().err(),
        Some(EngineConfigError::NoUnits)
    );
    // Fleet-level validation.
    assert_eq!(FleetConfig::default().validate(), Ok(()));
    let c = FleetConfig {
        n_sessions: 0,
        ..FleetConfig::default()
    };
    assert!(matches!(
        c.validate(),
        Err(EngineConfigError::InvalidFleet(_))
    ));
    let c = FleetConfig {
        duration_s: 0.0,
        ..FleetConfig::default()
    };
    assert!(matches!(
        c.validate(),
        Err(EngineConfigError::InvalidFleet(_))
    ));
    // Errors render human-readable messages.
    assert!(!EngineConfigError::NoUnits.to_string().is_empty());
    assert!(!EngineConfigError::InvalidFleet("x").to_string().is_empty());
}

#[test]
fn builders_reject_invalid_occluders() {
    // Regression: a NaN walk speed used to pass both builders and then
    // panic inside `Occluder::step` ("empty gen_range") mid-run.
    let c = v3(0.0, 1.0, 1.0);
    let nan = f64::NAN;
    let bad = [
        Occluder::new(c, 0.1, nan, 1),
        Occluder::new(c, 0.1, f64::INFINITY, 1),
        Occluder::new(c, 0.1, -0.4, 1),
        Occluder::new(c, nan, 0.4, 1),
        Occluder::new(c, -0.1, 0.4, 1),
        Occluder::new(v3(nan, 1.0, 1.0), 0.1, 0.4, 1),
    ];
    let units = two_units(913);
    let invalid = |r: Result<(), EngineConfigError>| matches!(r, Err(EngineConfigError::InvalidEnvironment(m)) if m.contains("occluder"));
    let session = |o: Occluder| {
        LinkSession::builder(StaticPose(park_pose()))
            .units(units.clone())
            .occluder(o)
            .build()
            .map(drop)
    };
    assert_eq!(session(Occluder::new(c, 0.1, 0.4, 1)), Ok(()));
    let fleet = |o: Occluder| FleetConfig {
        n_sessions: 1,
        duration_s: 0.05,
        occluders: vec![o],
        ..FleetConfig::default()
    };
    for o in bad {
        assert!(invalid(session(o.clone())), "{o:?}");
        assert!(invalid(fleet(o.clone()).validate()));
        // The fallible drivers check the fleet before any session runs.
        let pool = FleetPool {
            label: "bad".into(),
            units: units.clone(),
            tracker: TrackerConfig::default(),
        };
        assert!(invalid(
            run_fleet_mixed(&[pool], &fleet(o.clone())).map(drop)
        ));
        let sched = crate::sched::SchedConfig::greedy();
        let r = crate::sched::run_fleet_scheduled(&units, &fleet(o), &sched);
        assert!(invalid(r.map(drop)));
    }
}

// -- NaN-safe selector comparisons --------------------------------------

#[test]
fn selectors_survive_nan_margins_from_degenerate_geometry() {
    // Regression: a pose degenerating to NaN (rx collapsing onto a TX,
    // an unnormalizable direction) used to reach the selectors'
    // `partial_cmp().unwrap()` and panic. `total_cmp` sorts NaN above
    // +inf, so a NaN candidate loses every min-scan and the comparison
    // is total.
    let nan = f64::NAN;
    let txs = [v3(0.0, 0.0, 3.0), v3(nan, nan, nan), v3(2.0, 0.0, 3.0)];
    let ctx = SelectCtx {
        active: 0,
        signal: false,
        slot_s: 1.0, // one slot clears any debounce
        rx_pos: v3(0.1, 0.0, 1.75),
        tx_positions: &txs,
        occluders: &[],
    };
    let mut dd = DarkDebounce::new(0.0);
    // The NaN-distance unit must lose to the finite sibling.
    assert_eq!(dd.on_slot(&ctx), Some(2));

    // NaN rx makes *every* distance NaN: the scan must stay total
    // (returning some candidate) rather than panic.
    let ctx = SelectCtx {
        rx_pos: v3(nan, 0.0, 0.0),
        ..ctx
    };
    let mut dd = DarkDebounce::new(0.0);
    assert!(dd.on_slot(&ctx).is_some());

    // MarginSelector: the `>= 0` filter drops NaN margins and the
    // max-scan itself is NaN-proof.
    let mut ms = MarginSelector::new(0.0);
    let (up, active) = ms.step(0, 3, |i| [nan, 1.0, 3.0][i], 1e-3);
    assert!(!up);
    assert_eq!(active, 2);
    // All margins NaN: nothing usable, stay put, no panic.
    let mut ms = MarginSelector::new(0.0);
    assert_eq!(ms.step(1, 3, |_| nan, 1e-3), (false, 1));
    // Greedy-upgrade path with a NaN sibling in the pool.
    let mut ms = MarginSelector::new(0.0);
    ms.hysteresis_db = Some(1.0);
    assert_eq!(ms.step(1, 3, |i| [nan, 1.0, 3.0][i], 1e-3), (false, 2));
}

// -- Hybrid FSO/RF fallback ---------------------------------------------

#[test]
fn link_policy_debounces_failover_and_holds_failback() {
    let slot = 1e-3;
    let mut p = LinkPolicy::new(5e-3, 0.25);
    // A 4 ms dark blip stays below the failover delay.
    for _ in 0..4 {
        assert!(!p.step(false, slot));
    }
    assert!(!p.step(true, slot));
    assert_eq!(p.n_failovers(), 0);
    // 5 continuous dark ms fail over; the failover slot itself is RF.
    for i in 0..5 {
        assert_eq!(p.step(false, slot), i == 4, "slot {i}");
    }
    assert!(p.is_rf_active());
    assert_eq!(p.n_failovers(), 1);
    // FSO back up: traffic stays on RF through the whole failback hold.
    for _ in 0..249 {
        assert!(p.step(true, slot));
    }
    assert!(!p.step(true, slot), "250 ms of hold completes the failback");
    assert_eq!(p.n_failbacks(), 1);
    // Episode = failover slot + 249 held slots (the failback slot
    // itself is back on FSO).
    assert!((p.last_rf_episode_s() - 0.250).abs() < 1e-9);
}

#[test]
fn periodic_flapping_faster_than_failback_hold_never_fails_back() {
    // Mirror of sfp_state's
    // `periodic_flapping_faster_than_relink_never_relocks`: FSO up for
    // 100 ms then dark for one slot, forever. The up-hold resets on
    // every flicker before reaching the 250 ms failback hold, so the
    // session rides RF indefinitely — no residual credit across blips.
    let slot = 1e-3;
    let mut p = LinkPolicy::new(5e-3, 0.25);
    for _ in 0..5 {
        p.step(false, slot);
    }
    assert!(p.is_rf_active());
    for cycle in 0..50 {
        for _ in 0..100 {
            assert!(p.step(true, slot), "cycle {cycle}");
        }
        assert!(p.step(false, slot), "cycle {cycle}");
    }
    assert_eq!(p.n_failbacks(), 0);
    assert_eq!(p.n_failovers(), 1);
}

#[test]
fn rf_stats_since_saturates_like_control_stats() {
    let a = RfStats {
        failovers: 3,
        failbacks: 2,
        rf_slots: 100,
    };
    let b = RfStats {
        failovers: 5,
        failbacks: 2,
        rf_slots: 140,
    };
    assert_eq!(
        b.since(&a),
        RfStats {
            failovers: 2,
            failbacks: 0,
            rf_slots: 40,
        }
    );
    // Swapped snapshots clamp to zero instead of wrapping.
    assert_eq!(a.since(&b), RfStats::default());
}

/// Occluded multi-TX session used by the fallback tests: the occluder
/// sits on the unit-0 beam, forcing outages and a handover.
fn occluded_session(fallback: FallbackPolicy) -> LinkSession<StaticPose, DarkDebounce> {
    occluded_session_with(EngineConfig {
        los_gating: true,
        fallback,
        ..EngineConfig::default()
    })
}

/// [`occluded_session`] under an arbitrary engine configuration.
fn occluded_session_with(cfg: EngineConfig) -> LinkSession<StaticPose, DarkDebounce> {
    let units = two_units(902);
    let tx0 = units[0].dep.tx_world_params().q2;
    let rx = v3(0.0, 0.0, 1.75);
    let occ = Occluder::new(tx0.lerp(rx, 0.5), 0.12, 0.0, 1);
    LinkSession::builder(StaticPose(Pose::translation(rx)))
        .units(units)
        .occluder(occ)
        .selector(DarkDebounce::new(0.03))
        .config(cfg)
        .first_report(FirstReport::AtZero)
        .telemetry(Telemetry::counters())
        .build()
        .expect("valid multi-TX config")
}

#[test]
fn fallback_preserves_fso_timeline_and_only_adds_delivery() {
    // The policy observes the SFP machine but never feeds it: the FSO
    // side of every slot must be bit-identical between Off and
    // RfOnOutage, and the fallback may only *add* delivering slots.
    let mut off_s = occluded_session(FallbackPolicy::Off);
    let mut on_s = occluded_session(FallbackPolicy::RfOnOutage);
    let off = off_s.run(4.0);
    let on = on_s.run(4.0);
    assert_eq!(off.len(), on.len());
    let mut n_rf = 0u64;
    for (x, y) in off.iter().zip(&on) {
        assert_eq!(x.t.to_bits(), y.t.to_bits());
        assert_eq!(x.active, y.active);
        assert_eq!(x.los, y.los);
        assert_eq!(x.power_dbm.to_bits(), y.power_dbm.to_bits());
        assert_eq!(x.lin_speed.to_bits(), y.lin_speed.to_bits());
        assert_eq!(x.ang_speed.to_bits(), y.ang_speed.to_bits());
        assert!(!x.rf_active, "Off must never ride RF");
        // Delivering is exactly "FSO up or RF carrying".
        assert_eq!(y.link_up, x.link_up || y.rf_active);
        // RF-carried slots deliver at the RF ladder rate.
        if y.rf_active {
            assert!(
                y.goodput_gbps > 0.0,
                "RF slot at t = {} carried nothing",
                y.t
            );
        }
        n_rf += y.rf_active as u64;
    }
    assert!(n_rf > 0, "occlusion must trigger the fallback");
    // FSO outage accounting keeps its meaning under the fallback.
    let so = off_s.session_stats();
    let sn = on_s.session_stats();
    assert_eq!(so.n_outages, sn.n_outages);
    assert_eq!(so.outage_s.to_bits(), sn.outage_s.to_bits());
    assert_eq!(so.rf, RfStats::default());
    assert_eq!(sn.rf.rf_slots, n_rf);
    assert!(sn.rf.failovers >= 1, "{:?}", sn.rf);
    // Strictly more delivering slots with the fallback on.
    let ups = |v: &[EngineSlot]| v.iter().filter(|r| r.link_up).count();
    assert!(ups(&on) > ups(&off), "{} vs {}", ups(&on), ups(&off));
}

#[test]
fn failover_survives_handover_and_lands_in_telemetry() {
    // RF fallback is session-level state (the radio is independent of
    // which ceiling unit serves FSO): a handover mid-outage must not
    // reset it. The occluded workload hands over while dark, so RF must
    // be active on some slot where the active unit just changed.
    let mut s = occluded_session(FallbackPolicy::RfOnOutage);
    let recs = s.run(4.0);
    let rf_through_handover = recs
        .windows(2)
        .any(|w| w[1].rf_active && w[1].active != w[0].active);
    assert!(rf_through_handover, "RF must persist across the handover");
    let stats = s.session_stats();
    let c = s.telemetry().copied().expect("counters attached");
    assert!(c.events.handovers >= 1, "{:?}", c.events);
    assert_eq!(c.events.rf_failovers, stats.rf.failovers);
    assert_eq!(c.events.rf_failbacks, stats.rf.failbacks);
    assert_eq!(c.events.rf_slots, stats.rf.rf_slots);
    // The policy view agrees with the stats.
    let p = s.rf_policy().expect("policy attached");
    assert_eq!(p.n_failovers(), stats.rf.failovers);
}

#[test]
fn fleet_fallback_counts_rf_slots_and_never_hurts_availability() {
    let units = two_units(911);
    let tx0 = units[0].dep.tx_world_params().q2;
    let base = v3(0.0, 0.0, 1.75);
    let fleet = |fallback: FallbackPolicy| {
        let cfg = FleetConfig {
            n_sessions: 4,
            duration_s: 1.5,
            seed: 424,
            control: Some(ControlPlaneConfig::hardened(FaultPlan::stress(5))),
            occluders: vec![Occluder::new(tx0.lerp(base, 0.5), 0.12, 0.4, 1)],
            fallback,
            ..FleetConfig::default()
        };
        run_fleet(&units, &cfg).rollup()
    };
    let off = fleet(FallbackPolicy::Off);
    let on = fleet(FallbackPolicy::RfOnOutage);
    // Off: the RF aggregates stay identically zero.
    assert_eq!(off.mean_rf_frac, 0.0);
    assert_eq!(off.total_failovers, 0);
    assert_eq!(off.total_rf_slots, 0);
    assert_eq!(off.rf_delivered_gb, 0.0);
    // On: the hostile fleet actually exercises the fallback, and RF
    // slots can only add to availability and goodput.
    assert!(on.total_failovers >= 1);
    assert!(on.total_rf_slots >= on.total_failovers);
    assert!(on.mean_rf_frac > 0.0);
    assert!(on.rf_delivered_gb > 0.0, "fleet profile accounts goodput");
    assert!(
        on.mean_up_frac > off.mean_up_frac,
        "{} vs {}",
        on.mean_up_frac,
        off.mean_up_frac
    );
    assert!(on.sum_goodput_gbps >= off.sum_goodput_gbps);
}

// -- Single-TX sessions: the paper's §5.3 throughput runs ---------------

use crate::control::{FlapSchedule, ReacqConfig};
use cyclops_vrh::motion::LinearRail;

/// Full commissioning: train stages 1+2, leave the link aligned.
fn commissioned(seed: u64) -> (Deployment, TpController) {
    let (mut dep, mut ctl, ..) = commission(&SystemConfig::paper_10g(seed));
    // Park the headset at the nominal pose and align via TP.
    dep.set_headset_pose(park_pose());
    let rep = cyclops_core::mapping::noisy_report(&mut dep, &TrackerConfig::default());
    let cmd = ctl.on_report(&rep);
    dep.set_voltages(
        cmd.voltages[0],
        cmd.voltages[1],
        cmd.voltages[2],
        cmd.voltages[3],
    );
    (dep, ctl)
}

/// The single-TX session of the §5.3 runs: per the paper's methodology
/// the link "starts with a perfectly aligned beam", so the first report
/// lands one tracker period in.
fn single_tx<M: Motion>(
    dep: &Deployment,
    ctl: &TpController,
    motion: M,
    cfg: EngineConfig,
) -> LinkSession<M, SingleTx> {
    LinkSession::builder(motion)
        .deployment(dep.clone(), ctl.clone())
        .config(cfg)
        .first_report(FirstReport::AfterPeriod)
        .build()
        .expect("valid single-TX config")
}

/// A rail at constant speed `v0` (m/s) along X from the park pose.
fn rail(v0: f64) -> LinearRail {
    let mut rail = LinearRail::paper_protocol(park_pose(), Vec3::X);
    rail.v0 = v0;
    rail.dv = 0.0;
    rail
}

fn up_frac(slots: &[EngineSlot]) -> f64 {
    slots.iter().filter(|r| r.link_up).count() as f64 / slots.len() as f64
}

#[test]
fn static_headset_sustains_optimal_throughput() {
    let (dep, ctl) = commissioned(601);
    let motion = StaticPose(park_pose());
    let recs = single_tx(&dep, &ctl, motion, EngineConfig::default()).run(2.0);
    let up = up_frac(&recs);
    assert!(up > 0.999, "up fraction {up}");
    let mean_tp = recs.iter().map(|r| r.goodput_gbps).sum::<f64>() / recs.len() as f64;
    assert!((mean_tp - 9.4).abs() < 0.1, "mean goodput {mean_tp} Gbps");
}

#[test]
fn slow_rail_motion_keeps_link_up() {
    // 5 cm/s strokes: far below the §5.3 33 cm/s threshold.
    let (dep, ctl) = commissioned(602);
    let recs = single_tx(&dep, &ctl, rail(0.05), EngineConfig::default()).run(8.0);
    let up = up_frac(&recs);
    assert!(up > 0.98, "up fraction {up}");
}

#[test]
fn fast_rail_motion_breaks_link() {
    // 1.2 m/s: far beyond any tolerated speed — throughput must die and
    // the relink hysteresis must keep it dead for seconds.
    let (dep, ctl) = commissioned(603);
    let recs = single_tx(&dep, &ctl, rail(1.2), EngineConfig::default()).run(3.0);
    let down = 1.0 - up_frac(&recs);
    assert!(down > 0.5, "down fraction {down}");
}

#[test]
fn tracker_drift_degrades_the_link_over_time() {
    // With a strong random-walk drift the reported frame walks away from
    // reality; the TP acts on stale coordinates and the static link
    // degrades within seconds — the §4 re-calibration trigger.
    let (dep, ctl) = commissioned(606);
    let run = |drift: f64| -> f64 {
        let mut cfg = EngineConfig::default();
        cfg.tracker.drift_sigma_per_sqrt_s = drift;
        up_frac(&single_tx(&dep, &ctl, StaticPose(park_pose()), cfg).run(8.0))
    };
    let stable = run(0.0);
    let drifting = run(4e-3);
    assert!(stable > 0.99, "no drift: {stable}");
    assert!(
        drifting < stable - 0.1,
        "drift must hurt: {stable} -> {drifting}"
    );
}

#[test]
fn report_loss_degrades_speed_tolerance() {
    // Losing half the control-channel reports doubles the effective
    // report interval, so a speed that was comfortably tolerated starts
    // dropping windows.
    let (dep, ctl) = commissioned(605);
    let run = |loss: f64| -> f64 {
        let mut cfg = EngineConfig::default();
        cfg.tracker.report_loss_prob = loss;
        up_frac(&single_tx(&dep, &ctl, rail(0.25), cfg).run(5.0))
    };
    let clean = run(0.0);
    let lossy = run(0.6);
    assert!(
        clean > 0.95,
        "clean channel should hold at 25 cm/s: {clean}"
    );
    assert!(
        lossy < clean - 0.02,
        "60% report loss must hurt: {clean} -> {lossy}"
    );
}

#[test]
fn pause_on_outage_freezes_motion_until_relink() {
    // A fast rail breaks the link; with the §5.3 operator protocol the
    // motion must freeze (speed ≈ 0) while the SFP re-locks, then resume.
    let (dep, ctl) = commissioned(604);
    let cfg = EngineConfig {
        pause_on_outage: true,
        ..Default::default()
    };
    let recs = single_tx(&dep, &ctl, rail(1.2), cfg).run(6.0);
    // Find the first down slot, then check motion is frozen while down.
    let first_down = recs
        .iter()
        .position(|r| !r.link_up)
        .expect("1.2 m/s must break the link");
    let mut frozen = 0usize;
    let mut down = 0usize;
    for r in &recs[first_down + 2..] {
        if !r.link_up {
            down += 1;
            if r.lin_speed < 1e-9 {
                frozen += 1;
            }
        }
    }
    assert!(
        down > 100,
        "expect a multi-second relink ({down} down slots)"
    );
    let frac = frozen as f64 / down as f64;
    assert!(
        frac > 0.95,
        "motion frozen during {:.0}% of down slots",
        frac * 100.0
    );
    // The protocol cycles: freeze → re-lock → resume → (at this
    // over-threshold speed) break again. The link must come back up at
    // least once after the first loss.
    assert!(
        recs[first_down..].iter().any(|r| r.link_up),
        "link should re-lock at least once after the first loss"
    );
}

#[test]
fn arq_plus_dead_reckoning_survives_bursty_report_loss() {
    // Bursty control-channel loss (~6-report blackouts) at a speed the
    // clean channel tolerates: unprotected, one blackout mid-stroke lets
    // the beam walk off the aperture and the SFP's multi-second re-lock
    // eats the run; with ARQ + dead reckoning the link must ride it out
    // at (near-)clean availability. The run stays within a single rail
    // stroke: a velocity *reversal* inside a total blackout is beyond
    // any constant-velocity predictor and is not the claim under test.
    let (dep, ctl) = commissioned(607);
    let bursty = FaultPlan {
        loss_prob: 0.05,
        burst_enter_prob: 0.08,
        burst_exit_prob: 0.15,
        burst_loss_prob: 1.0,
        ..FaultPlan::clean(71)
    };
    let run = |control: ControlPlaneConfig| -> f64 {
        // 0.15 m/s over the 0.40 m rail: the first stroke lasts 2.67 s,
        // longer than the 2.5 s run. One ~84 ms blackout costs ~13 mm of
        // unrealigned drift — past the ~8.6 mm lateral tolerance.
        let cfg = EngineConfig {
            control: Some(control),
            ..Default::default()
        };
        up_frac(&single_tx(&dep, &ctl, rail(0.15), cfg).run(2.5))
    };
    let clean = run(ControlPlaneConfig::hardened(FaultPlan::clean(71)));
    let unprotected = run(ControlPlaneConfig::unprotected(bursty));
    let hardened = run(ControlPlaneConfig::hardened(bursty));
    assert!(clean > 0.95, "clean control plane should hold: {clean}");
    assert!(
        unprotected < 0.7,
        "bursty loss without mitigation should collapse: {unprotected}"
    );
    assert!(
        hardened > clean - 0.05,
        "ARQ+DR should ride out bursts: clean {clean}, hardened {hardened}, \
         unprotected {unprotected}"
    );
}

#[test]
fn reacq_spiral_recovers_a_lost_beam_without_reports() {
    // Total report blackout AND a badly mispointed beam: without the
    // spiral the link can never come back (no reports, no search); with
    // it the beam is re-found within the probe budget and the SFP
    // re-locks after its hysteresis.
    let (dep, ctl) = commissioned(608);
    let run = |reacq: Option<ReacqConfig>| {
        let cfg = EngineConfig {
            control: Some(ControlPlaneConfig {
                fault: FaultPlan::iid_loss(5, 1.0),
                arq: None,
                dead_reckoning: None,
                reacq,
            }),
            ..Default::default()
        };
        let mut sim = single_tx(&dep, &ctl, StaticPose(park_pose()), cfg);
        // Knock the TX aim well off the aperture (0.64 V ≈ 24 mm at the
        // RX plane — far outside the ~10 mm lateral tolerance).
        let d = &mut sim.units_mut()[0].dep;
        let v = d.voltages();
        d.set_voltages(v.0 + 0.5, v.1 - 0.4, v.2, v.3);
        let recs = sim.run(5.0);
        let up_at_end = recs[recs.len() - 1].link_up;
        (up_at_end, sim.session_stats())
    };
    let (up_without, st_without) = run(None);
    assert!(!up_without, "no search, no reports: must stay down");
    assert_eq!(st_without.n_reacq_steps, 0);
    let reacq = ReacqConfig {
        trigger_after_s: 0.03,
        step_v: 0.02,
        max_steps: 1500,
        ..Default::default()
    };
    let (up_with, st_with) = run(Some(reacq));
    assert!(
        up_with,
        "spiral should recover the beam and re-lock ({st_with:?})"
    );
    assert!(st_with.n_reacq_steps > 0, "{st_with:?}");
    assert!(
        st_with.longest_outage_s < 4.0,
        "outage should end within the run: {st_with:?}"
    );
}

#[test]
fn scheduled_flaps_force_counted_outages() {
    let (dep, ctl) = commissioned(609);
    let cfg = EngineConfig {
        control: Some(ControlPlaneConfig::hardened(FaultPlan {
            flap: Some(FlapSchedule {
                first_s: 1.0,
                period_s: 30.0,
                down_s: 0.1,
            }),
            ..FaultPlan::clean(3)
        })),
        ..Default::default()
    };
    let mut sim = single_tx(&dep, &ctl, StaticPose(park_pose()), cfg);
    let recs = sim.run(5.0);
    let st = sim.session_stats();
    // One flap at t=1: down for 0.1 s forced + ~2.5 s re-lock.
    assert_eq!(st.n_outages, 1, "{st:?}");
    assert!(
        (2.0..3.5).contains(&st.longest_outage_s),
        "outage {} s should be flap + re-lock",
        st.longest_outage_s
    );
    // Beam itself never moved: no spiral probes should have fired.
    assert_eq!(st.n_reacq_steps, 0, "{st:?}");
    let up = up_frac(&recs);
    assert!((0.3..0.6).contains(&up), "up fraction {up}");
    assert!(st.control.is_some());
}

#[test]
fn control_plane_runs_are_bit_identical_per_seed() {
    let (dep, ctl) = commissioned(610);
    let run = || {
        let cfg = EngineConfig {
            control: Some(ControlPlaneConfig::hardened(FaultPlan::stress(17))),
            ..Default::default()
        };
        let mut sim = single_tx(&dep, &ctl, rail(0.2), cfg);
        let recs = sim.run(3.0);
        (recs, sim.session_stats())
    };
    let (a, sa) = run();
    let (b, sb) = run();
    assert_streams_identical(&a, &b);
    assert_eq!(sa.control, sb.control);
    assert_eq!(sa.n_extrapolated, sb.n_extrapolated);
    assert_eq!(sa.n_reacq_steps, sb.n_reacq_steps);
}

/// A synthetic 1 ms slot at a fixed −20 dBm.
fn slot(i: usize, link_up: bool, goodput_gbps: f64) -> EngineSlot {
    EngineSlot {
        t: i as f64 * 1e-3,
        active: 0,
        los: true,
        power_dbm: -20.0,
        link_up,
        rf_active: false,
        goodput_gbps,
        lin_speed: 0.1,
        ang_speed: 0.2,
    }
}

#[test]
fn windows_aggregate_correctly() {
    // The second window is a relink window.
    let recs: Vec<EngineSlot> = (0..100)
        .map(|i| slot(i, i < 50, if i < 50 { 9.4 } else { 0.0 }))
        .collect();
    let w = windows_50ms(&recs, 1e-3, -25.0);
    assert_eq!(w.len(), 2);
    assert!((w[0].lin - 0.1).abs() < 1e-12);
    assert!((w[0].ang - 0.2).abs() < 1e-12);
    assert!((w[0].goodput - 9.4).abs() < 1e-12);
    assert!((w[0].min_power + 20.0).abs() < 1e-12);
    assert!((w[0].up_frac - 1.0).abs() < 1e-12);
    assert_eq!(w[0].relink_frac, 0.0);
    // Second window: signal present (−20 ≥ −25) but link down → relink.
    assert!((w[1].relink_frac - 1.0).abs() < 1e-12);
    assert_eq!(w[1].up_frac, 0.0);
}

#[test]
fn windows_of_empty_records_are_empty() {
    assert!(windows_50ms(&[], 1e-3, -25.0).is_empty());
}

#[test]
fn windows_drop_trailing_partial_window() {
    // 80 slots at 1 ms = one full 50 ms window + 30 leftover slots: the
    // partial tail must be dropped, not averaged over a short window.
    let recs: Vec<EngineSlot> = (0..80).map(|i| slot(i, true, 9.4)).collect();
    let w = windows_50ms(&recs, 1e-3, -25.0);
    assert_eq!(w.len(), 1);
    // Exactly one full window must also survive intact.
    let w = windows_50ms(&recs[..50], 1e-3, -25.0);
    assert_eq!(w.len(), 1);
    // And fewer slots than one window yields nothing.
    let w = windows_50ms(&recs[..49], 1e-3, -25.0);
    assert!(w.is_empty());
}

// -- Multi-TX sessions: the §3 occlusion/handover extension ------------

/// The multi-TX session: unit 0 starts active and aligned at time zero,
/// and the dark-debounce selector hands over to the nearest visible
/// sibling.
fn multi_tx(
    units: Vec<TxInstallation>,
    occluders: Vec<Occluder>,
) -> LinkSession<StaticPose, DarkDebounce> {
    LinkSession::builder(StaticPose(park_pose()))
        .units(units)
        .occluders(occluders)
        .selector(DarkDebounce::new(0.03))
        .config(EngineConfig {
            los_gating: true,
            ..EngineConfig::default()
        })
        .first_report(FirstReport::AtZero)
        .build()
        .expect("valid multi-TX config")
}

#[test]
fn units_share_one_headset_world() {
    let units = two_units(901);
    // Same hidden headset config (same seed) but different TX positions.
    let h0 = units[0].dep.headset.hidden_config().vr_from_world.trans;
    let h1 = units[1].dep.headset.hidden_config().vr_from_world.trans;
    assert!((h0 - h1).norm() < 1e-12, "hidden worlds must match");
    let t0 = units[0].dep.tx_world_params().q2;
    let t1 = units[1].dep.tx_world_params().q2;
    assert!((t0 - t1).norm() > 0.5, "TX units must be installed apart");
}

#[test]
fn occlusion_triggers_physical_handover() {
    let units = two_units(902);
    // Park an occluder permanently on unit 0's line of sight.
    let tx0 = units[0].dep.tx_world_params().q2;
    let mid = tx0.lerp(park_pose().trans, 0.5);
    let occ = Occluder::new(mid, 0.12, 0.0, 1);
    let mut sim = multi_tx(units, vec![occ]);
    assert_eq!(sim.active(), 0);
    let recs = sim.run(4.0);
    // Handover happened...
    assert_eq!(sim.active(), 1, "should have switched to unit 1");
    // ...and after the SFP re-lock, data flows again on real optics.
    let tail = &recs[recs.len() - 200..];
    let up = tail.iter().filter(|r| r.link_up).count();
    assert!(
        up > 190,
        "link should be up on unit 1 at the end ({up}/200)"
    );
    // The outage is dominated by the SFP re-lock, not the steering.
    let first_up_again = recs
        .iter()
        .position(|r| r.active == 1 && r.link_up)
        .expect("must recover");
    let outage_s = recs[first_up_again].t;
    assert!(
        (2.0..3.5).contains(&outage_s),
        "recovery after ≈ relink time, got {outage_s}s"
    );
}

#[test]
fn no_occluder_means_no_handover() {
    let mut sim = multi_tx(two_units(903), vec![]);
    let recs = sim.run(1.0);
    assert_eq!(sim.active(), 0);
    assert!(up_frac(&recs) > 0.98);
}

#[test]
fn handover_shot_aims_with_tracker_drift() {
    // The shot on the new unit aims from the same drifted tracker as the
    // regular reports. Both runs see the same true pose and draw the
    // shot's report noise from the same unit-1 RNG state, so only the
    // accumulated drift can move the shot's voltages.
    let shot = |drift_sigma_per_sqrt_s: f64| {
        let mut cfg = EngineConfig {
            los_gating: true,
            ..EngineConfig::default()
        };
        cfg.tracker.drift_sigma_per_sqrt_s = drift_sigma_per_sqrt_s;
        let mut s = occluded_session_with(cfg);
        let k = (0..4000)
            .find(|&k| {
                s.step_slot(k);
                s.active() == 1
            })
            .expect("the occluded unit hands over");
        let (v0, v1, v2, v3) = s.units()[1].dep.voltages();
        (k, [v0, v1, v2, v3])
    };
    let (k_clean, v_clean) = shot(0.0);
    let (k_drift, v_drift) = shot(0.05);
    assert_eq!(k_clean, k_drift, "drift must not move the handover slot");
    assert_ne!(
        v_clean.map(f64::to_bits),
        v_drift.map(f64::to_bits),
        "the handover shot ignored the tracker drift"
    );
}

/// A sink that keeps the session's JSONL in memory for the test to read.
#[derive(Debug, Clone)]
struct SharedJsonl(Arc<Mutex<JsonlSink<Vec<u8>>>>);
impl TelemetrySink for SharedJsonl {
    fn record(&mut self, ev: &TelemetryEvent) {
        self.0.lock().expect("sink lock").record(ev);
    }
}

/// The raw value of `key` in one flat JSONL object (quotes stripped).
fn json_field<'a>(line: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat).expect("field present") + pat.len()..];
    rest[..rest.find([',', '}']).expect("field ends")].trim_matches('"')
}

/// Every `TpCommandIssued` event is one TP solve: over a session the
/// command count equals the reports and extrapolations its controllers
/// gained, minus the pre-start alignment (a solve that emits no event);
/// the dead-reckoned and handover-shot counts match their own counters.
/// Every session runs one timing model: report and dead-reckoned commands
/// apply no earlier than `t + latency_s`, and handover shots apply at `t`.
#[test]
fn tp_command_events_account_for_every_solve() {
    fn solves(units: &[TxInstallation]) -> (u64, u64) {
        units.iter().fold((0, 0), |(r, x), u| {
            (
                r + u.ctl.metrics.n_reports,
                x + u.ctl.metrics.n_extrapolated,
            )
        })
    }
    fn check<M: Motion, S: TxSelector>(
        before: (u64, u64),
        mut s: LinkSession<M, S>,
        secs: f64,
    ) -> TelemetryCounters {
        let sink = SharedJsonl(Arc::new(Mutex::new(JsonlSink::in_memory())));
        *s.telemetry_mut() = Telemetry::with_sink_and_counters(Box::new(sink.clone()));
        s.run(secs);
        let m = s.tp_metrics();
        let e = s.telemetry().expect("counters attached").events;
        let (reports, extrapolated) = (m.n_reports - before.0, m.n_extrapolated - before.1);
        assert_eq!(e.tp_commands, reports + extrapolated - 1, "{e:?}");
        assert_eq!(e.tp_dead_reckoned, extrapolated, "{e:?}");
        assert_eq!(e.tp_handover_shots, s.n_handovers(), "{e:?}");
        let jsonl = std::mem::replace(
            &mut *sink.0.lock().expect("sink lock"),
            JsonlSink::in_memory(),
        );
        let mut n = 0;
        for line in jsonl.into_string().lines() {
            if json_field(line, "ev") != "tp_command" {
                continue;
            }
            let num = |key| json_field(line, key).parse::<f64>().expect("finite time");
            let (t, apply_at) = (num("t"), num("apply_at"));
            match json_field(line, "source") {
                "handover_shot" => assert_eq!(apply_at.to_bits(), t.to_bits(), "{line}"),
                _ => assert!(apply_at >= t + num("latency_s"), "{line}"),
            }
            n += 1;
        }
        assert_eq!(n, e.tp_commands, "one JSONL line per TP command");
        e
    }
    // The perfect channel: scheduled report commands on a moving rail.
    let (dep, ctl) = commissioned(611);
    let units = vec![TxInstallation { dep, ctl }];
    let before = solves(&units);
    let s = LinkSession::builder(rail(0.2))
        .units(units)
        .first_report(FirstReport::AfterPeriod)
        .telemetry(Telemetry::counters())
        .build()
        .expect("valid single-TX config");
    assert!(check(before, s, 2.0).tp_commands > 0);
    // Stress faults behind ARQ with dead reckoning active.
    let before = solves(&two_units(912)[..1]);
    let e = check(before, chaos_session(Telemetry::counters()), 1.0);
    assert!(e.tp_dead_reckoned > 0, "{e:?}");
    // A two-unit session handing over around an occluder.
    let before = solves(&two_units(902));
    let e = check(before, occluded_session(FallbackPolicy::Off), 4.0);
    assert!(e.tp_handover_shots > 0, "{e:?}");
}

/// Hand-held motion that records every time the session samples it.
struct RecordingMotion {
    inner: cyclops_vrh::motion::ArbitraryMotion,
    times: Vec<f64>,
}

impl Motion for RecordingMotion {
    fn pose_at(&mut self, t: f64) -> Pose {
        self.times.push(t);
        self.inner.pose_at(t)
    }
}

#[test]
fn motion_is_sampled_at_non_decreasing_times() {
    // `ArbitraryMotion::pose_at` asserts that time never decreases, and
    // returns its cached pose when no integration step ran since the last
    // call. Both rest on the engine sampling the motion in time order:
    // reports are backdated, but never before the previous slot's pose,
    // and paused slots repeat the frozen time.
    let motion = || RecordingMotion {
        inner: cyclops_vrh::motion::ArbitraryMotion::new(
            park_pose(),
            cyclops_vrh::motion::ArbitraryMotionConfig {
                lin_rms: 0.3,
                ang_rms: 0.5,
                ..Default::default()
            },
            77,
        ),
        times: Vec::new(),
    };
    let check = |times: &[f64], what: &str| {
        assert!(times.len() > 4000, "{what}: {} samples", times.len());
        for w in times.windows(2) {
            assert!(w[1] >= w[0], "{what}: motion time {} after {}", w[1], w[0]);
        }
        let repeats = times.windows(2).filter(|w| w[1] == w[0]).count();
        assert!(repeats > 0, "{what}: no paused or report-time repeats");
    };

    // Single TX: the stress fault plan under ARQ, dead reckoning and
    // re-acquisition, with pause-on-outage.
    let unit = two_units(913).remove(0);
    let mut cfg = EngineConfig {
        pause_on_outage: true,
        ..EngineConfig::default()
    };
    cfg.control = Some(ControlPlaneConfig::hardened(FaultPlan::stress(17)));
    let mut s = LinkSession::builder(motion())
        .deployment(unit.dep, unit.ctl)
        .config(cfg)
        .build()
        .expect("valid chaos config");
    s.run(4.0);
    let st = s.session_stats();
    assert!(st.n_outages > 0 && st.n_extrapolated > 0, "{st:?}");
    check(&s.motion_mut().times, "chaos");

    // Two units: an occluder forcing a handover, the RF fallback, and
    // pause-on-outage.
    let units = two_units(902);
    let tx0 = units[0].dep.tx_world_params().q2;
    let occ = Occluder::new(tx0.lerp(park_pose().trans, 0.5), 0.12, 0.0, 1);
    let mut s = LinkSession::builder(motion())
        .units(units)
        .occluder(occ)
        .selector(DarkDebounce::new(0.03))
        .config(EngineConfig {
            los_gating: true,
            pause_on_outage: true,
            fallback: FallbackPolicy::RfOnOutage,
            ..EngineConfig::default()
        })
        .first_report(FirstReport::AtZero)
        .build()
        .expect("valid multi-TX config");
    s.run(4.0);
    let st = s.session_stats();
    assert!(s.n_handovers() > 0 && st.rf.rf_slots > 0, "{st:?}");
    check(&s.motion_mut().times, "handover");
}
