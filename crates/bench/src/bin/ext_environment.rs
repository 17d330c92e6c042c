//! **Extension: environment ablation** — what weather and people do to an
//! indoor FSO link, and what the RF fallback buys back.
//!
//! The paper evaluates clean indoor air only. This bin attaches the
//! composable environment layer (`link::channel::EnvStage`) to the 25G
//! profile — the thin-margin build, where degradation actually bites — and
//! runs the same hand-held session three ways:
//!
//! 1. **clean** — no environment, FSO only (the paper's regime);
//! 2. **fog + crossings** — dense Kim-model fog plus transient human beam
//!    crossings, FSO only: every crossing forces the multi-second SFP
//!    relink, so availability drops hard;
//! 3. **fog + crossings + RF** — the same environment with
//!    `FallbackPolicy::RfOnOutage`: the link degrades to the RF ladder
//!    instead of zero, and availability recovers.
//!
//! A fog-density sweep (no crossings) is printed alongside: over the
//! paper's 1.75 m path even dense fog costs only a few dB of Beer–Lambert
//! loss — but a few dB is exactly the 25G margin, so availability falls off
//! a cliff between density 0.5 and 1.0 while the 10G diverging build would
//! shrug it off. The headline asserts are strict: the clean→fog+crossings
//! drop and the RF recovery must reproduce on every run (everything is
//! seeded; the digest discipline of the engine applies).
//!
//! ```sh
//! cargo run --release -p cyclops-bench --bin ext_environment
//! ```

use cyclops::prelude::*;
use cyclops::vrh::motion::ArbitraryMotionConfig;

const SEED: u64 = 2_026;
const DURATION_S: f64 = 12.0;

/// One session of the fixed workload: the commissioned 25G system, the same
/// hand-held motion, an optional environment, an optional fallback.
fn run_session(
    sys: &CyclopsSystem,
    env: Option<&Environment>,
    fallback: FallbackPolicy,
) -> (Vec<EngineSlot>, SessionStats) {
    let base = Pose::translation(Vec3::new(0.0, 0.0, 1.75));
    // Gentle hand-held motion (fig 15's lowest mixed intensity) under the
    // paper's §5.3 protocol: the operator pauses on link loss and resumes
    // when it is back, so the clean 25G baseline is healthy and every
    // availability loss below is attributable to the environment.
    let motion_cfg = ArbitraryMotionConfig {
        lin_rms: 0.05,
        ang_rms: 0.08,
        ..Default::default()
    };
    let motion = ArbitraryMotion::new(base, motion_cfg, SEED ^ 0x611);
    let mut builder = sys
        .clone()
        .into_session_builder(motion)
        .pause_on_outage(true)
        .fallback(fallback);
    if let Some(env) = env {
        builder = builder.environment(env.clone());
    }
    let mut session = builder.build().expect("valid engine config");
    let recs = session.run(DURATION_S);
    let stats = session.session_stats();
    (recs, stats)
}

struct Row {
    name: &'static str,
    up_frac: f64,
    signal_frac: f64,
    rf_frac: f64,
    goodput: f64,
    outages: u64,
    longest_s: f64,
}

fn row(name: &'static str, recs: &[EngineSlot], stats: &SessionStats, sens: f64) -> Row {
    let n = recs.len().max(1) as f64;
    Row {
        name,
        up_frac: recs.iter().filter(|r| r.link_up).count() as f64 / n,
        signal_frac: recs.iter().filter(|r| r.power_dbm >= sens).count() as f64 / n,
        rf_frac: recs.iter().filter(|r| r.rf_active).count() as f64 / n,
        goodput: recs.iter().map(|r| r.goodput_gbps).sum::<f64>() / n,
        outages: stats.n_outages,
        longest_s: stats.longest_outage_s,
    }
}

fn main() {
    // The registry's 25G build: LR optics (thin margin), fast galvo, Rift-S
    // tracking — commissioned once and cloned per run.
    let hw = HardwareProfile::named("25g-lr", "galvo-fast", "rift-s")
        .expect("preset profiles are registered");
    println!("commissioning {} ...", hw.label());
    // Full paper-scale training (§4 board + 30 placements): the 25G margin
    // is thin enough that the CLI's fast budget leaves the clean baseline
    // marginal, which would confound the ablation.
    let cfg = SystemConfig {
        board: BoardConfig::default(),
        mapping_samples: 30,
        ..hw.system_config(SEED)
    };
    let sys = CyclopsSystem::commission(&cfg);
    let sens = sys.dep.design.sfp.rx_sensitivity_dbm;
    let wavelength = sys.dep.design.sfp.wavelength_nm;

    // The hostile environment: dense fog (Kim model at the SFP wavelength)
    // plus human beam crossings (~3/min, deep body shadow).
    let hostile = Environment::new()
        .stage(FogStage::from_density(0.7, wavelength).expect("valid density"))
        .stage(
            HumanOccluderStage::new(3.0, 0.6, 30.0, cyclops_par::mix64(SEED, 0x0cc1))
                .expect("valid crossing config"),
        );
    println!(
        "environment: {:?} over {DURATION_S} s\n",
        hostile.stage_names()
    );

    let (clean_recs, clean_stats) = run_session(&sys, None, FallbackPolicy::Off);
    let (fog_recs, fog_stats) = run_session(&sys, Some(&hostile), FallbackPolicy::Off);
    let (rf_recs, rf_stats) = run_session(&sys, Some(&hostile), FallbackPolicy::RfOnOutage);

    let rows = [
        row("clean, fso-only", &clean_recs, &clean_stats, sens),
        row("fog+crossings, fso-only", &fog_recs, &fog_stats, sens),
        row("fog+crossings, rf-fallback", &rf_recs, &rf_stats, sens),
    ];
    println!(
        "{:<28} {:>8} {:>8} {:>8} {:>9} {:>8} {:>9}",
        "scenario", "up_frac", "signal", "rf_frac", "gbps", "outages", "longest_s"
    );
    for r in &rows {
        println!(
            "{:<28} {:>8.4} {:>8.4} {:>8.4} {:>9.3} {:>8} {:>9.3}",
            r.name, r.up_frac, r.signal_frac, r.rf_frac, r.goodput, r.outages, r.longest_s
        );
    }

    // Fog-density sweep, crossings off: Beer–Lambert over 1.75 m indoors.
    println!("\nfog-only sweep (no crossings, fso-only):");
    println!(
        "{:>8} {:>9} {:>8} {:>8}",
        "density", "atten_dB", "up_frac", "signal"
    );
    for d in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let fog = FogStage::from_density(d, wavelength).expect("valid density");
        let mut env = Environment::new().stage(fog);
        let att = env.attenuation_db(0.0, 1.75);
        let (recs, stats) = run_session(&sys, Some(&env), FallbackPolicy::Off);
        let r = row("fog", &recs, &stats, sens);
        println!(
            "{d:>8.2} {att:>9.2} {:>8.4} {:>8.4}",
            r.up_frac, r.signal_frac
        );
    }

    // Strict ablation asserts: the scenario ordering is the experiment.
    let (clean, fog, rf) = (&rows[0], &rows[1], &rows[2]);
    assert!(
        clean.up_frac >= 0.90,
        "clean 25G baseline must be healthy: up {}",
        clean.up_frac
    );
    assert!(
        fog.up_frac <= clean.up_frac - 0.10,
        "fog+crossings must cost >= 10% availability FSO-only: clean {} fog {}",
        clean.up_frac,
        fog.up_frac
    );
    assert!(
        fog.outages >= 1,
        "crossings must force at least one SFP relink"
    );
    assert!(
        rf.up_frac >= fog.up_frac + 0.05 && rf.up_frac >= 0.90,
        "RfOnOutage must recover availability: fog {} rf {}",
        fog.up_frac,
        rf.up_frac
    );
    assert!(
        rf.rf_frac > 0.0,
        "the RF fallback must actually carry slots: rf_frac {}",
        rf.rf_frac
    );
    assert!(
        rf.goodput < clean.goodput,
        "RF recovery is degraded service, not free: clean {} rf {}",
        clean.goodput,
        rf.goodput
    );
    println!("\nablation asserts hold: clean -> fog drop, RF recovery");
}
