//! `cyclops` — the operator CLI: list registry hardware profiles, run
//! sessions and fleets from profile + environment flags, stream telemetry
//! JSONL, and replay synthetic head-trace corpora.
//!
//! Arg parsing is hand-rolled (no dependencies); every input error reports
//! a typed message and exits with status 2, never a panic.
//!
//! ```sh
//! cyclops list-profiles
//! cyclops run --headset quest --sfp 25g-lr --env fog:0.3 --duration 2
//! cyclops run --digest --seed 9007            # bit-identity fingerprint
//! cyclops fleet --sessions 6 --mix 10g-zr/galvo-fast/rift-s,25g-lr/galvo-fast/quest
//! cyclops replay --traces 8 --duration 30
//! ```

use cyclops::prelude::*;
use cyclops::vrh::motion::ArbitraryMotionConfig;
use cyclops::vrh::traces::{HeadTrace, TraceGenConfig};
use cyclops_link::trace_sim::simulate_trace;

/// A CLI failure: what the operator typed wasn't runnable. Everything
/// converges here so `main` can print one line and exit 2.
#[derive(Debug)]
enum CliError {
    Usage(String),
    Registry(RegistryError),
    Config(EngineConfigError),
    Io(std::io::Error),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Registry(e) => write!(f, "{e}"),
            CliError::Config(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl From<RegistryError> for CliError {
    fn from(e: RegistryError) -> CliError {
        CliError::Registry(e)
    }
}

impl From<EngineConfigError> for CliError {
    fn from(e: EngineConfigError) -> CliError {
        CliError::Config(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> CliError {
        CliError::Io(e)
    }
}

fn usage() -> String {
    "cyclops — Cyclops FSO link simulator CLI

USAGE:
  cyclops list-profiles
  cyclops run   [--sfp NAME] [--galvo NAME] [--headset NAME]
                [--env SPEC] [--duration SECS] [--seed N]
                [--fallback rf|off] [--telemetry PATH.jsonl] [--digest]
  cyclops fleet [--sessions N] [--mix PROFILE[,PROFILE...]] [--env SPEC]
                [--duration SECS] [--seed N] [--policy static|greedy|pf]
  cyclops replay [--traces N] [--duration SECS] [--seed N] [--fallback rf|off]

PROFILE is sfp/galvo/headset, e.g. 25g-lr/galvo-fast/quest.
SPEC is comma-separated stages:
  fog:D        fog density in [0,1] (Kim-model Beer–Lambert)
  rain:R       rain rate in mm/h (Carbonneau)
  scint:S      log-normal scintillation sigma in dB
  occluders:R  human beam crossings per minute"
        .to_string()
}

/// Pulls the value of `--flag value` out of `args`, if present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, CliError> {
    if let Some(i) = args.iter().position(|a| a == flag) {
        if i + 1 >= args.len() || args[i + 1].starts_with("--") {
            return Err(CliError::Usage(format!("{flag} needs a value")));
        }
        let v = args.remove(i + 1);
        args.remove(i);
        Ok(Some(v))
    } else {
        Ok(None)
    }
}

/// Pulls a boolean `--flag` out of `args`.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

fn parse_f64(what: &str, s: &str) -> Result<f64, CliError> {
    s.parse::<f64>()
        .map_err(|_| CliError::Usage(format!("{what}: not a number: {s:?}")))
}

fn parse_u64(what: &str, s: &str) -> Result<u64, CliError> {
    s.parse::<u64>()
        .map_err(|_| CliError::Usage(format!("{what}: not an integer: {s:?}")))
}

fn parse_fallback(s: &str) -> Result<FallbackPolicy, CliError> {
    match s {
        "rf" => Ok(FallbackPolicy::RfOnOutage),
        "off" => Ok(FallbackPolicy::Off),
        other => Err(CliError::Usage(format!(
            "--fallback: expected rf|off, got {other:?}"
        ))),
    }
}

/// Parses `--env fog:0.3,rain:10,scint:0.2,occluders:2` into an
/// [`Environment`]. Stage seeds derive from the session seed per stream, so
/// the spec string plus the seed fully determine the run.
fn parse_env(spec: &str, wavelength_nm: f64, seed: u64) -> Result<Environment, CliError> {
    let mut env = Environment::new();
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        let (kind, val) = part
            .split_once(':')
            .ok_or_else(|| CliError::Usage(format!("--env: expected kind:value, got {part:?}")))?;
        match kind {
            "fog" => {
                let d = parse_f64("--env fog", val)?;
                env = env.stage(FogStage::from_density(d, wavelength_nm)?);
            }
            "rain" => {
                let r = parse_f64("--env rain", val)?;
                env = env.stage(RainStage::new(r)?);
            }
            "scint" => {
                let s = parse_f64("--env scint", val)?;
                env = env.stage(ScintillationStage::new(
                    s,
                    10e-3,
                    cyclops_par::mix64(seed, 0x5c17),
                )?);
            }
            "occluders" => {
                let r = parse_f64("--env occluders", val)?;
                env = env.stage(HumanOccluderStage::new(
                    r,
                    0.5,
                    30.0,
                    cyclops_par::mix64(seed, 0x0cc1),
                )?);
            }
            other => {
                return Err(CliError::Usage(format!(
                    "--env: unknown stage {other:?} (fog|rain|scint|occluders)"
                )));
            }
        }
    }
    Ok(env)
}

/// Resolves `--sfp/--galvo/--headset` into a validated build.
fn parse_profile(
    sfp: Option<&str>,
    galvo: Option<&str>,
    headset: Option<&str>,
) -> Result<HardwareProfile, CliError> {
    let mut b = HardwareProfile::builder();
    if let Some(s) = sfp {
        b = b.sfp(s);
    }
    if let Some(g) = galvo {
        b = b.galvo(g);
    }
    if let Some(h) = headset {
        b = b.headset(h);
    }
    Ok(b.build()?)
}

/// Parses one `sfp/galvo/headset` pool label.
fn parse_pool_label(label: &str) -> Result<HardwareProfile, CliError> {
    let parts: Vec<&str> = label.split('/').collect();
    if parts.len() != 3 {
        return Err(CliError::Usage(format!(
            "--mix: expected sfp/galvo/headset, got {label:?}"
        )));
    }
    Ok(HardwareProfile::named(parts[0], parts[1], parts[2])?)
}

fn cmd_list_profiles() {
    println!("SFP/optics stacks:");
    for p in sfp_profiles() {
        let s = &p.design.sfp;
        println!(
            "  {:<10} {:>6.2} Gbps goodput, TX {:>5.1} dBm, sens {:>6.1} dBm, \
             relink {:.1} s, {} lane(s){}",
            p.name,
            s.optimal_goodput_gbps,
            s.tx_power_dbm,
            s.rx_sensitivity_dbm,
            s.relink_time_s,
            p.wdm_lanes,
            if p.min_galvo_slew_deg_s > 0.0 {
                format!(", needs galvo >= {:.0} deg/s", p.min_galvo_slew_deg_s)
            } else {
                String::new()
            }
        );
    }
    println!("Galvo assemblies:");
    for p in galvo_profiles() {
        println!(
            "  {:<11} slew {:>6.0} deg/s, settle {:>5.0} us",
            p.name,
            p.cfg.slew_rad_per_s.to_degrees(),
            p.cfg.small_step_settle_s * 1e6
        );
    }
    println!("Headset classes:");
    for p in headset_profiles() {
        println!(
            "  {:<8} report period {:>4.1}-{:.1} ms, late {:>4.1}%, pos noise {:>5.2} mm",
            p.name,
            p.tracker.period_min_s * 1e3,
            p.tracker.period_max_s * 1e3,
            p.tracker.late_prob * 100.0,
            p.tracker.pos_noise_sigma * 1e3
        );
    }
}

/// Folds a slot stream into the engine-digest discipline (`mix64` over the
/// public fields), so CI can assert bit-identity across flag spellings.
fn slot_digest(recs: &[EngineSlot]) -> u64 {
    let mut d = 0x0063_7963_6c6f_7073_u64; // "cyclops"
    let mut fold = |x: u64| d = cyclops_par::mix64(d ^ x, 0x9e37_79b9_7f4a_7c15);
    for r in recs {
        fold(r.t.to_bits());
        fold(r.power_dbm.to_bits());
        fold(r.link_up as u64);
        fold(r.goodput_gbps.to_bits());
    }
    d
}

fn cmd_run(mut args: Vec<String>) -> Result<(), CliError> {
    let sfp = take_flag(&mut args, "--sfp")?;
    let galvo = take_flag(&mut args, "--galvo")?;
    let headset = take_flag(&mut args, "--headset")?;
    let env_spec = take_flag(&mut args, "--env")?;
    let duration = take_flag(&mut args, "--duration")?;
    let seed = take_flag(&mut args, "--seed")?;
    let fallback = take_flag(&mut args, "--fallback")?;
    let telemetry = take_flag(&mut args, "--telemetry")?;
    let digest = take_switch(&mut args, "--digest");
    reject_leftovers(&args)?;

    let seed = seed.map_or(Ok(9_007), |s| parse_u64("--seed", &s))?;
    let duration_s = duration.map_or(Ok(2.0), |s| parse_f64("--duration", &s))?;
    if !(duration_s.is_finite() && duration_s > 0.0) {
        return Err(CliError::Usage(format!(
            "--duration must be positive, got {duration_s}"
        )));
    }
    let fallback = fallback.map_or(Ok(FallbackPolicy::Off), |s| parse_fallback(&s))?;
    let hw = parse_profile(sfp.as_deref(), galvo.as_deref(), headset.as_deref())?;
    let wavelength = hw.sfp.design.sfp.wavelength_nm;
    let env = env_spec.map_or(Ok(Environment::new()), |s| parse_env(&s, wavelength, seed))?;

    eprintln!("commissioning {} (seed {seed})...", hw.label());
    let sys = CyclopsSystem::commission(&hw.system_config(seed));
    let sens = sys.dep.design.sfp.rx_sensitivity_dbm;
    let base = Pose::translation(Vec3::new(0.0, 0.0, 1.75));
    let motion = ArbitraryMotion::new(base, ArbitraryMotionConfig::default(), seed ^ 0x611);
    let mut builder = sys
        .into_session_builder(motion)
        .fallback(fallback)
        .environment(env);
    if let Some(path) = &telemetry {
        let sink = JsonlSink::create(std::path::Path::new(path))?;
        builder = builder.telemetry_sink(Box::new(sink));
    }
    let mut session = builder.build()?;
    let recs = session.run(duration_s);

    let n = recs.len().max(1) as f64;
    let up = recs.iter().filter(|r| r.link_up).count() as f64 / n;
    let sig = recs.iter().filter(|r| r.power_dbm >= sens).count() as f64 / n;
    let rf = recs.iter().filter(|r| r.rf_active).count() as f64 / n;
    let goodput = recs.iter().map(|r| r.goodput_gbps).sum::<f64>() / n;
    let stats = session.session_stats();
    println!("profile:      {}", hw.label());
    println!("slots:        {}", recs.len());
    println!("availability: {up:.4} (signal {sig:.4}, rf-carried {rf:.4})");
    println!("goodput:      {goodput:.3} Gbps mean");
    println!(
        "outages:      {} (total {:.3} s, longest {:.3} s)",
        stats.n_outages, stats.outage_s, stats.longest_outage_s
    );
    if let Some(path) = &telemetry {
        println!("telemetry:    {path}");
    }
    if digest {
        println!("digest:       {:016x}", slot_digest(&recs));
    }
    Ok(())
}

fn cmd_fleet(mut args: Vec<String>) -> Result<(), CliError> {
    let sessions = take_flag(&mut args, "--sessions")?;
    let mix = take_flag(&mut args, "--mix")?;
    let env_spec = take_flag(&mut args, "--env")?;
    let duration = take_flag(&mut args, "--duration")?;
    let seed = take_flag(&mut args, "--seed")?;
    let policy = take_flag(&mut args, "--policy")?;
    reject_leftovers(&args)?;

    let seed = seed.map_or(Ok(905), |s| parse_u64("--seed", &s))?;
    let duration_s = duration.map_or(Ok(1.0), |s| parse_f64("--duration", &s))?;
    let n_sessions = sessions.map_or(Ok(4), |s| parse_u64("--sessions", &s))? as usize;
    let profiles: Vec<HardwareProfile> = match &mix {
        Some(m) => m
            .split(',')
            .filter(|p| !p.is_empty())
            .map(parse_pool_label)
            .collect::<Result<_, _>>()?,
        None => vec![HardwareProfile::default()],
    };
    if profiles.is_empty() {
        return Err(CliError::Usage("--mix: no profiles given".to_string()));
    }
    let wavelength = profiles[0].sfp.design.sfp.wavelength_nm;
    let env = env_spec.map_or(Ok(Environment::new()), |s| parse_env(&s, wavelength, seed))?;

    let mut pools = Vec::with_capacity(profiles.len());
    for (i, hw) in profiles.iter().enumerate() {
        eprintln!("commissioning pool {i}: {} ...", hw.label());
        let sys = CyclopsSystem::commission(&hw.system_config(seed));
        pools.push(FleetPool {
            label: hw.label(),
            units: vec![TxInstallation {
                dep: sys.dep,
                ctl: sys.ctl,
            }],
            tracker: hw.tracker(),
        });
    }

    let fleet = FleetConfig::builder()
        .n_sessions(n_sessions)
        .duration_s(duration_s)
        .seed(seed)
        .environment(env)
        .build()?;

    let summary = match policy.as_deref() {
        None => run_fleet_mixed(&pools, &fleet)?,
        Some(p) => {
            if pools.len() != 1 {
                return Err(CliError::Usage(
                    "--policy: scheduled fleets are homogeneous; use a single --mix profile"
                        .to_string(),
                ));
            }
            let sc = match p {
                "static" => SchedConfig::static_partition(),
                "greedy" => SchedConfig::greedy(),
                "pf" => SchedConfig::proportional_fair(1.0),
                other => {
                    return Err(CliError::Usage(format!(
                        "--policy: expected static|greedy|pf, got {other:?}"
                    )));
                }
            };
            let fleet = FleetConfig {
                tracker: pools[0].tracker,
                ..fleet
            };
            run_fleet_scheduled(&pools[0].units, &fleet, &sc)?
        }
    };

    for s in &summary.sessions {
        let pool = s
            .profile
            .map(|p| pools[p as usize].label.clone())
            .unwrap_or_else(|| pools[0].label.clone());
        println!(
            "session {:>2} [{}] up {:.4} signal {:.4} goodput {:>6.3} Gbps outages {}",
            s.session, pool, s.up_frac, s.signal_frac, s.mean_goodput_gbps, s.stats.n_outages
        );
    }
    let roll = summary.rollup();
    println!(
        "fleet: {} sessions, mean up {:.4}, min up {:.4}, aggregate {:.3} Gbps",
        roll.n_sessions, roll.mean_up_frac, roll.min_up_frac, roll.sum_goodput_gbps
    );
    for (p, r) in summary.profile_rollups() {
        println!(
            "  pool {} [{}]: {} sessions, mean up {:.4}, aggregate {:.3} Gbps",
            p, pools[p as usize].label, r.n_sessions, r.mean_up_frac, r.sum_goodput_gbps
        );
    }
    if let Some(sr) = roll.sched {
        println!(
            "sched: availability {:.4} (min {:.4}), served {:.3} Gbps, \
             worst stall {:.3} s, Jain {:.3}",
            sr.mean_availability,
            sr.min_availability,
            sr.sum_served_gbps,
            sr.worst_stall_s,
            sr.fairness_jain
        );
    }
    Ok(())
}

fn cmd_replay(mut args: Vec<String>) -> Result<(), CliError> {
    let traces = take_flag(&mut args, "--traces")?;
    let duration = take_flag(&mut args, "--duration")?;
    let seed = take_flag(&mut args, "--seed")?;
    let fallback = take_flag(&mut args, "--fallback")?;
    reject_leftovers(&args)?;

    let n = traces.map_or(Ok(8), |s| parse_u64("--traces", &s))? as usize;
    let duration_s = duration.map_or(Ok(30.0), |s| parse_f64("--duration", &s))?;
    let seed = seed.map_or(Ok(42), |s| parse_u64("--seed", &s))?;
    let fallback = fallback.map_or(Ok(FallbackPolicy::Off), |s| parse_fallback(&s))?;
    if n == 0 {
        return Err(CliError::Usage("--traces must be >= 1".to_string()));
    }

    let p = TraceSimParams::default();
    println!("replaying {n} synthetic §5.4 traces of {duration_s} s (seed {seed}):");
    let mut fracs = Vec::with_capacity(n);
    for i in 0..n {
        let cfg = TraceGenConfig {
            duration_s,
            ..TraceGenConfig::normal_use()
        };
        let trace = HeadTrace::generate(&cfg, cyclops_par::mix64(seed, 1 + i as u64));
        let r = simulate_trace(&trace, &p);
        match fallback {
            FallbackPolicy::Off => {
                println!("  trace {i:>2}: on {:.4}", r.on_fraction);
            }
            FallbackPolicy::RfOnOutage => {
                let fb = cyclops_link::trace_sim::replay_with_fallback(
                    &r.slots_on,
                    p.slot_ms,
                    2.5,
                    fallback,
                    1.0,
                    8.6,
                );
                println!(
                    "  trace {i:>2}: fso {:.4} rf {:.4} up {:.4} rate {:.3} Gbps",
                    fb.fso_up_frac, fb.rf_frac, fb.up_frac, fb.effective_gbps
                );
            }
        }
        fracs.push(r.on_fraction);
    }
    let mean = fracs.iter().sum::<f64>() / fracs.len() as f64;
    println!("mean on-fraction: {mean:.4}");
    Ok(())
}

fn reject_leftovers(args: &[String]) -> Result<(), CliError> {
    if let Some(a) = args.first() {
        return Err(CliError::Usage(format!("unknown argument {a:?}")));
    }
    Ok(())
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" || args[0] == "help" {
        println!("{}", usage());
        return;
    }
    let cmd = args.remove(0);
    let result = match cmd.as_str() {
        "list-profiles" => {
            if let Err(e) = reject_leftovers(&args) {
                Err(e)
            } else {
                cmd_list_profiles();
                Ok(())
            }
        }
        "run" => cmd_run(args),
        "fleet" => cmd_fleet(args),
        "replay" => cmd_replay(args),
        other => Err(CliError::Usage(format!(
            "unknown command {other:?}\n\n{}",
            usage()
        ))),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}
