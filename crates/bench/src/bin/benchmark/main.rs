//! **benchmark** — the repository benchmark: four slot-loop workloads, each
//! timed end to end with tracing off, checked for correct outputs, and
//! broken down layer by layer in a separate traced pass. See README.md in
//! this directory for the workloads, the metrics and how to read them.
//!
//! ```sh
//! # all four workloads, each in its own process, then their traced passes:
//! cargo run --release --manifest-path crates/bench/src/bin/benchmark/Cargo.toml
//! # one workload, with the arguments a benchmark harness passes:
//! cargo run --release --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
//!     --workload fleet_steady --seed 7 --seconds 10 --trace 0
//! # two full runs against each other:
//! cargo run --release --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
//!     --compare before.json after.json
//! ```
//!
//! Every workload runs on one worker thread. A single-workload run prints
//! each metric by name with its unit and, as its last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; it also writes its full
//! result (every repetition's samples) under `<target dir>/benchmark/`.

mod checks;
mod host;
mod json;
mod stats;
mod traced;
mod workloads;

use cyclops::prelude::{run_fleet, FleetConfig};
use json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{Fixture, Output, Workload, ALL, DEFAULT_SEED};

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

const USAGE: &str = "\
usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--reps N] [--trace 0|1]
       benchmark --compare A.json B.json

  --workload  fleet_steady | fleet_hostile | fleet_sched | trace_sweep
              (default: all four, each in its own process, then traced)
  --seed      input seed (default 1)
  --seconds   timed phase length per workload (default 20)
  --reps      a fixed number of timed repetitions instead of --seconds
  --trace     0: end-to-end metrics; 1: the traced pass's per-layer metrics
  --compare   verdicts between two full-run results files, from the bounds
              in ./BENCHMARK.json";

/// Fixture builds per run; `setup_s` is their median.
const SETUP_BUILDS: usize = 5;
/// Repetitions timed at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;
const DEFAULT_SECONDS: f64 = 20.0;

/// `(name, unit, lower is better)` of the end-to-end metrics.
const END_TO_END: [(&str, &str, bool); 5] = [
    ("slots_per_s", "slots/s", false),
    ("setup_s", "s", true),
    ("peak_heap_mb", "MiB", true),
    ("availability", "fraction", false),
    ("goodput_gbps", "Gbps", false),
];

/// `(name, unit, lower is better)` of the per-layer metrics, in the order
/// [`traced::Traced::metrics`] returns them.
const PER_LAYER: [(&str, &str, bool); 33] = [
    ("engine.ns_per_slot", "ns", true),
    ("engine.slot_ns_p50", "ns", true),
    ("engine.slot_ns_p99", "ns", true),
    ("engine.slot_ns_p999", "ns", true),
    ("engine.other_ns_per_slot", "ns", true),
    ("engine.attributed_frac", "fraction", false),
    ("engine.trace_overhead_pct", "%", true),
    ("engine.session_build_us", "us", true),
    ("motion.share", "fraction", true),
    ("motion.calls_per_slot", "count", true),
    ("tp.share", "fraction", true),
    ("tp.solves_per_slot", "count", true),
    ("tp.mean_iters", "count", true),
    ("deployment.share", "fraction", true),
    ("deployment.power_calls_per_slot", "count", true),
    ("beam.quadrature_frac", "fraction", true),
    ("channel.share", "fraction", true),
    ("channel.env_share", "fraction", true),
    ("selector.share", "fraction", true),
    ("selector.handovers_per_session", "count", true),
    ("control.delivered_per_sent", "fraction", false),
    ("control.retransmits_per_sent", "fraction", true),
    ("sfp_state.down_frac", "fraction", true),
    ("fallback.rf_frac", "fraction", true),
    ("sched.share", "fraction", true),
    ("sched.served_per_granted", "fraction", false),
    ("sched.denied_frac", "fraction", true),
    ("telemetry.overhead_frac", "fraction", true),
    ("trace_sim.share", "fraction", true),
    ("trace_sim.reports_per_slot", "count", true),
    ("kspace.setup_share", "fraction", true),
    ("mapping.setup_share", "fraction", true),
    ("traces.setup_share", "fraction", true),
];

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    reps: Option<usize>,
    trace: Option<bool>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        reps: None,
        trace: None,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = val()?;
                a.workload =
                    Some(Workload::from_name(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => a.seed = val()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                a.seconds = val()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(a.seconds.is_finite() && a.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--reps" => {
                let n: usize = val()?.parse().map_err(|_| "--reps takes an integer")?;
                if n == 0 {
                    return Err("--reps must be at least 1".into());
                }
                a.reps = Some(n);
            }
            "--trace" => {
                a.trace = Some(match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--compare" => {
                let x = PathBuf::from(val()?);
                let y = PathBuf::from(val()?);
                a.compare = Some((x, y));
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("benchmark: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if let Some((a, b)) = &args.compare {
        compare(a, b)
    } else if let Some(w) = args.workload {
        let trace = args.trace.unwrap_or(false);
        cyclops_par::with_threads(1, || run_single(w, &args, trace))
    } else {
        run_all(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Where results and traces go: `<CARGO_TARGET_DIR or target>/benchmark`.
fn out_dir() -> Result<PathBuf, String> {
    let base =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let dir = base.join("benchmark");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

fn write_json(path: &Path, v: &Json) -> Result<(), String> {
    std::fs::write(path, format!("{v}\n")).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One metric's samples, summarized.
fn metric_json(unit: &str, lower_is_better: bool, samples: &[f64]) -> Json {
    let (q1, q3) = stats::quartiles(samples);
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Json::obj([
        ("unit", Json::Str(unit.into())),
        (
            "better",
            Json::Str(if lower_is_better { "lower" } else { "higher" }.into()),
        ),
        ("median", Json::Num(stats::median(samples))),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        ("min", Json::Num(min)),
        ("max", Json::Num(max)),
        ("n", Json::Num(samples.len() as f64)),
        ("samples", Json::nums(samples.iter().copied())),
    ])
}

/// Runs one repetition, turning a panic into an error.
fn guarded(rep: impl FnOnce() -> Output) -> Result<Output, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(rep)).map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".into())
    })
}

/// Operation accounting over the warm-up and timed repetitions.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

impl Tally {
    fn violation(&mut self, v: String) {
        if self.violations.len() < 20 {
            self.violations.push(v);
        }
    }

    /// Checks one repetition against the invariants and, through `sig`,
    /// against the first repetition's per-operation signatures.
    fn absorb(
        &mut self,
        w: Workload,
        rep: &Result<Output, String>,
        first: &[u64],
        expected_slots: usize,
        sig: fn(&Output) -> Vec<u64>,
    ) {
        let n = w.ops_per_rep() as u64;
        self.attempted += n;
        let out = match rep {
            Ok(out) => out,
            Err(e) => {
                self.failed += n;
                self.violation(format!("repetition panicked: {e}"));
                return;
            }
        };
        let sigs = sig(out);
        let viol = checks::op_violations(out, expected_slots);
        if sigs.len() != first.len() || viol.len() != sigs.len() {
            self.failed += n;
            self.violation("repetition produced a different number of operations".into());
            return;
        }
        for ((sig, first), v) in sigs.iter().zip(first).zip(viol) {
            let drift = sig != first;
            if drift {
                self.violation("operation output differs from the first repetition".into());
            }
            for v in &v {
                self.violation(v.clone());
            }
            self.failed += (drift || !v.is_empty()) as u64;
        }
    }
}

/// The simulated outcome recorded at the default seed, and its tolerances.
const REFERENCE: &str = include_str!("reference.json");

/// Compares the default-seed outcome against `reference.json`: availability
/// within an absolute tolerance, goodput within a relative one. A drift
/// fails the run and prints the difference.
fn reference_check(w: Workload, out: &Output, tally: &mut Tally) {
    let reference = json::parse(REFERENCE).expect("reference.json is valid JSON");
    let num = |v: Option<&Json>| v.and_then(Json::as_f64).unwrap_or(f64::NAN);
    let entry = reference.get("workloads").and_then(|x| x.get(w.name()));
    let want = |name: &str| num(entry.and_then(|r| r.get(name)));
    let checks = [
        (
            "availability",
            out.availability(),
            want("availability"),
            num(reference.get("availability_abs_tol")),
        ),
        (
            "goodput_gbps",
            out.goodput_gbps(),
            want("goodput_gbps"),
            num(reference.get("goodput_rel_tol")) * want("goodput_gbps"),
        ),
    ];
    for (name, got, want, tol) in checks {
        // A missing (NaN) reference value fails too.
        let within = (got - want).abs() <= tol;
        if !within {
            let msg = format!(
                "{}: simulated {name} {got} differs from the reference {want} \
                 by {:+e} (tolerance {tol:e})",
                w.name(),
                got - want
            );
            eprintln!("benchmark: {msg}");
            tally.violation(msg);
            tally.failed += 1;
        }
    }
}

/// One workload in this process: set-up, a warm-up repetition, the timed
/// repetitions, and with `trace` the traced pass. Prints the metrics and
/// the final JSON line; returns whether every check passed.
fn run_single(w: Workload, args: &Args, trace: bool) -> Result<bool, String> {
    let seed = args.seed;
    println!("{}: seed {seed}, 1 worker thread", w.name());

    // Set-up, several times: the fixtures must agree, the time is their
    // median, and the layer times are their mean.
    let mut tally = Tally::default();
    let mut setup_clock = host::CalibratedClock::new(w.kernel());
    let mut setup = workloads::SetupLayers::default();
    let mut fixture: Option<Fixture> = None;
    let mut fixture_sig = None;
    for _ in 0..SETUP_BUILDS {
        // One fixture alive at a time, so peak memory is one fixture's.
        drop(fixture.take());
        let (fx, layers) = setup_clock.time(|| Fixture::build(w, seed));
        let sig = fx.signature();
        if *fixture_sig.get_or_insert(sig) != sig {
            tally.violation("fixture builds from one seed differ".into());
            tally.failed += 1;
        }
        setup.kspace_s += layers.kspace_s / SETUP_BUILDS as f64;
        setup.mapping_s += layers.mapping_s / SETUP_BUILDS as f64;
        setup.traces_s += layers.traces_s / SETUP_BUILDS as f64;
        fixture = Some(fx);
    }
    let fx = fixture.expect("at least one fixture build");

    let slots = workloads::rep_slots(w, &fx, seed);
    let expected_slots = match &fx {
        Fixture::Units(units) => {
            let cfg = workloads::fleet_config(w, units, seed);
            (cfg.duration_s / cyclops::prelude::EngineConfig::default().slot_s).round() as usize
        }
        Fixture::Traces(_) => 0,
    };

    // Warm-up: caches fill, and its output is what later repetitions must
    // reproduce.
    let warm = guarded(|| workloads::run_rep(w, &fx, seed));
    let first = warm.as_ref().map(Output::op_signatures).unwrap_or_default();
    tally.absorb(w, &warm, &first, expected_slots, Output::op_signatures);

    // The timed phase: repetitions until its share of `--seconds` is used
    // up, and at least MIN_REPS (`--reps N`: exactly N). A unit is one
    // repetition, or in a traced fleet run one telemetry pair.
    let budget = if trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let t_phase = Instant::now();
    let enough = |units: usize, last_s: f64| match args.reps {
        Some(n) => units >= n,
        None => units >= MIN_REPS && t_phase.elapsed().as_secs_f64() + last_s > budget,
    };
    let mut clock = host::CalibratedClock::new(w.kernel());
    // Reference and host seconds of the repetitions behind `slots_per_s`.
    let (mut rep_ref, mut rep_host) = (Vec::new(), Vec::new());
    // Telemetry-on over telemetry-off time, one ratio per pair.
    let mut telemetry_ratios = Vec::new();
    let mut last_s = 0.0;
    match (&fx, trace) {
        (Fixture::Units(units), true) => {
            // Pairs of repetitions through the unscheduled driver, the one
            // the traced pass rebuilds: the workload's telemetry setting,
            // then the flipped one, the order alternating from pair to
            // pair so a drifting host favours neither side.
            let own = workloads::fleet_config(w, units, seed);
            let flipped = FleetConfig {
                collect_telemetry: !own.collect_telemetry,
                ..own.clone()
            };
            let physics = warm
                .as_ref()
                .map(Output::physics_signatures)
                .unwrap_or_default();
            while !enough(telemetry_ratios.len(), last_s) {
                let mut ref_s = [0.0; 2]; // [own, flipped]
                last_s = 0.0;
                let order = if telemetry_ratios.len() % 2 == 0 {
                    [0, 1]
                } else {
                    [1, 0]
                };
                for k in order {
                    let cfg = if k == 0 { &own } else { &flipped };
                    let rep = clock.time(|| guarded(|| Output::Fleet(run_fleet(units, cfg))));
                    let sig = Output::physics_signatures;
                    tally.absorb(w, &rep, &physics, expected_slots, sig);
                    let (host_s, r) = clock.last();
                    ref_s[k] = r;
                    last_s += host_s;
                    if k == 0 {
                        rep_ref.push(r);
                        rep_host.push(host_s);
                    }
                }
                let (on, off) = if own.collect_telemetry {
                    (ref_s[0], ref_s[1])
                } else {
                    (ref_s[1], ref_s[0])
                };
                telemetry_ratios.push(on / off);
            }
        }
        _ => {
            while !enough(rep_ref.len(), last_s) {
                let rep = clock.time(|| guarded(|| workloads::run_rep(w, &fx, seed)));
                tally.absorb(w, &rep, &first, expected_slots, Output::op_signatures);
                let (host_s, ref_s) = clock.last();
                rep_ref.push(ref_s);
                rep_host.push(host_s);
                last_s = host_s;
            }
        }
    }
    let slots_per_s: Vec<f64> = rep_ref.iter().map(|s| slots as f64 / s).collect();
    // The simulated outcome, identical in every repetition.
    let (availability, goodput) = warm.as_ref().map_or((f64::NAN, f64::NAN), |out| {
        (out.availability(), out.goodput_gbps())
    });
    if seed == DEFAULT_SEED {
        if let Ok(out) = &warm {
            reference_check(w, out, &mut tally);
        }
    }

    let mut metrics: Vec<(&str, &str, bool, Vec<f64>)> = Vec::new();
    let mut trace_file = None;
    if trace {
        let out = warm.as_ref().map_err(|e| format!("cannot trace: {e}"))?;
        let t = clock.time(|| traced::run(w, &fx, seed, out));
        if !t.identical {
            tally.violation("the traced pass did not reproduce the untraced repetition".into());
            tally.failed += w.ops_per_rep() as u64;
        }
        // The pass is timed like a repetition, so its slot loop reads in
        // reference seconds too.
        let (host_s, ref_s) = clock.last();
        let telemetry_overhead = if telemetry_ratios.is_empty() {
            0.0
        } else {
            stats::median(&telemetry_ratios) - 1.0
        };
        let values = t.metrics(
            stats::median(&slots_per_s),
            ref_s / host_s,
            telemetry_overhead,
            &setup,
            out,
        );
        for ((name, v), (pname, unit, lower)) in values.into_iter().zip(PER_LAYER) {
            assert_eq!(name, pname, "per-layer metric order");
            metrics.push((name, unit, lower, vec![v]));
        }
        trace_file = Some(t.to_json(w, seed));
    } else {
        for (name, unit, lower) in END_TO_END {
            let samples = match name {
                "slots_per_s" => slots_per_s.clone(),
                "setup_s" => setup_clock.ref_s.clone(),
                "peak_heap_mb" => vec![host::peak_heap_mb()],
                "availability" => vec![availability],
                "goodput_gbps" => vec![goodput],
                _ => unreachable!("metric table"),
            };
            metrics.push((name, unit, lower, samples));
        }
    }

    for (name, _, _, samples) in &metrics {
        if !samples.iter().all(|x| x.is_finite()) {
            tally.violation(format!("metric {name} is not a finite number"));
            tally.failed += 1;
        }
    }
    let correct = tally.failed == 0;
    for (name, unit, _, samples) in &metrics {
        let (lo, hi) = samples
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &x| {
                (a.min(x), b.max(x))
            });
        println!(
            "  {name:<34} {:>14.6} {unit:<8} (median of {}, range {lo:.6} .. {hi:.6})",
            stats::median(samples),
            samples.len()
        );
    }
    for v in &tally.violations {
        println!("  check failed: {v}");
    }
    println!(
        "  {} timed reps of {slots} slots; {} of {} operations failed",
        rep_ref.len(),
        tally.failed,
        tally.attempted
    );

    let dir = out_dir()?;
    let kind = if trace { "traced" } else { "untraced" };
    let detail = Json::obj([
        ("workload", Json::Str(w.name().into())),
        ("seed", Json::Num(seed as f64)),
        ("trace", Json::Bool(trace)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("slots_per_rep", Json::Num(slots as f64)),
        ("rep_ref_s", Json::nums(rep_ref.iter().copied())),
        ("rep_host_s", Json::nums(rep_host.iter().copied())),
        (
            "telemetry_on_over_off",
            Json::nums(telemetry_ratios.iter().copied()),
        ),
        ("kernel_s", Json::nums(clock.kernel_s.iter().copied())),
        (
            "setup_host_s",
            Json::nums(setup_clock.host_s.iter().copied()),
        ),
        (
            "setup_kernel_s",
            Json::nums(setup_clock.kernel_s.iter().copied()),
        ),
        ("peak_rss_mb", Json::Num(host::peak_rss_mb())),
        (
            "violations",
            Json::Arr(
                tally
                    .violations
                    .iter()
                    .map(|v| Json::Str(v.clone()))
                    .collect(),
            ),
        ),
        (
            "metrics",
            Json::obj(
                metrics
                    .iter()
                    .map(|(name, unit, lower, s)| (*name, metric_json(unit, *lower, s))),
            ),
        ),
    ]);
    write_json(&dir.join(format!("{}.{kind}.json", w.name())), &detail)?;
    if let Some(tf) = &trace_file {
        write_json(&dir.join(format!("trace_{}.json", w.name())), tf)?;
    }

    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(name, unit, _, s)| {
                (
                    *name,
                    Json::obj([
                        ("value", Json::Num(stats::median(s))),
                        ("unit", Json::Str(unit.to_string())),
                    ]),
                )
            })),
        ),
    ]);
    println!("{line}");
    Ok(correct)
}

/// Every workload in its own child process (untraced, then traced unless
/// `--trace 0`), merged into `results.json`.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let dir = out_dir()?;
    let passes: &[bool] = match args.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let mut all_ok = true;
    let mut sections = Vec::new();
    for &trace in passes {
        let mut per_workload = Vec::new();
        for w in ALL {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if let Some(n) = args.reps {
                cmd.args(["--reps", &n.to_string()]);
            }
            let status = cmd
                .status()
                .map_err(|e| format!("running {}: {e}", exe.display()))?;
            all_ok &= status.success();
            let kind = if trace { "traced" } else { "untraced" };
            per_workload.push((
                w.name(),
                read_json(&dir.join(format!("{}.{kind}.json", w.name())))?,
            ));
        }
        sections.push((
            if trace { "traced" } else { "workloads" },
            Json::obj(per_workload),
        ));
    }
    let host = Json::obj([
        (
            "available_parallelism",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("worker_threads", Json::Num(1.0)),
        (
            "parallel_compiled",
            Json::Bool(cyclops_par::parallel_compiled()),
        ),
    ]);
    let mut top = vec![("seed", Json::Num(args.seed as f64)), ("host", host)];
    top.extend(sections);
    let results = Json::obj(top);
    let path = dir.join("results.json");
    write_json(&path, &results)?;

    if let Some(ws) = results.get("workloads") {
        println!(
            "\n{:<14} {}",
            "workload",
            END_TO_END.map(|m| format!("{:>16}", m.0)).join("")
        );
        for (name, r) in ws.as_obj().unwrap_or_default() {
            let cells: String = END_TO_END
                .iter()
                .map(|(m, _, _)| {
                    let v = r
                        .get("metrics")
                        .and_then(|x| x.get(m))
                        .and_then(|x| x.get("median"));
                    format!("{:>16.6}", v.and_then(Json::as_f64).unwrap_or(f64::NAN))
                })
                .collect();
            println!("{name:<14} {cells}");
        }
    }
    println!("wrote {}", path.display());
    Ok(all_ok)
}

/// Samples of `metric` for `workload` in a full-run results file.
fn samples(results: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    results
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("samples")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// Prints, per workload and end-to-end metric, both sides' medians and
/// quartiles, the change, and the verdict under the bound `BENCHMARK.json`
/// fixes. Returns false when any verdict is "worse".
fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let a = read_json(a_path)?;
    let b = read_json(b_path)?;
    let spec = read_json(Path::new("BENCHMARK.json"))?;
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    println!(
        "{:<14} {:<14} {:>30} {:>30} {:>9} {:>7}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    let mut ok = true;
    for w in ALL {
        for m in metrics {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let (Some(xa), Some(xb)) = (samples(&a, w.name(), name), samples(&b, w.name(), name))
            else {
                continue;
            };
            let v = stats::verdict(&xa, &xb, lower, bound);
            ok &= v != stats::Verdict::Worse;
            let cell = |xs: &[f64]| {
                let (q1, q3) = stats::quartiles(xs);
                format!("{:.6} [{:.6}, {:.6}]", stats::median(xs), q1, q3)
            };
            let change = (stats::median(&xb) / stats::median(&xa) - 1.0) * 100.0;
            println!(
                "{:<14} {:<14} {:>30} {:>30} {:>+8.2}% {:>6.1}%  {}",
                w.name(),
                name,
                cell(&xa),
                cell(&xb),
                change,
                bound * 100.0,
                v.name()
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn run_arguments_parse() {
        let a = args("--workload trace_sweep --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::TraceSweep));
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, Some(true)));
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--reps 0",
            "--seed",
            "--bogus",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    /// The metric tables here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let spec = json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let check = |key: &str, table: &[(&str, &str, bool)]| {
            let listed = spec.get(key).and_then(Json::as_arr).unwrap();
            let got: Vec<(String, String, bool)> = listed
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                        m.get("better").and_then(Json::as_str) == Some("lower"),
                    )
                })
                .collect();
            let want: Vec<(String, String, bool)> = table
                .iter()
                .map(|(n, u, l)| (n.to_string(), u.to_string(), *l))
                .collect();
            assert_eq!(got, want, "{key}");
        };
        check("end_to_end", &END_TO_END);
        check("per_layer", &PER_LAYER);
        let names: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, ALL.map(Workload::name));
    }

    /// This package's release profile and the workspace's agree, so the
    /// benchmark measures the library as the workspace builds it.
    #[test]
    fn release_profile_matches_the_workspace() {
        let section = |toml: &str| -> Vec<String> {
            toml.lines()
                .map(|l| l.split('#').next().unwrap_or("").trim())
                .skip_while(|l| *l != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.is_empty())
                .map(String::from)
                .collect()
        };
        let own = section(include_str!("Cargo.toml"));
        assert!(!own.is_empty(), "no [profile.release] in this package");
        assert_eq!(own, section(include_str!("../../../../../Cargo.toml")));
    }

    #[test]
    fn reference_covers_every_workload_at_the_default_seed() {
        let r = json::parse(REFERENCE).unwrap();
        assert_eq!(
            r.get("seed").and_then(Json::as_f64),
            Some(DEFAULT_SEED as f64)
        );
        for w in ALL {
            let e = r.get("workloads").and_then(|x| x.get(w.name())).unwrap();
            assert!(
                e.get("availability").and_then(Json::as_f64).is_some(),
                "{}",
                w.name()
            );
            assert!(
                e.get("goodput_gbps").and_then(Json::as_f64).is_some(),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn results_file_round_trips() {
        let dir = std::env::temp_dir().join(format!("benchmark-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("r.json");
        let v = Json::obj([(
            "workloads",
            Json::obj([(
                "fleet_steady",
                Json::obj([(
                    "metrics",
                    Json::obj([(
                        "slots_per_s",
                        metric_json("slots/s", false, &[1.5, 2.25, 1e6]),
                    )]),
                )]),
            )]),
        )]);
        write_json(&path, &v).unwrap();
        let back = read_json(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(back, v);
        assert_eq!(
            samples(&back, "fleet_steady", "slots_per_s"),
            Some(vec![1.5, 2.25, 1e6])
        );
    }
}
