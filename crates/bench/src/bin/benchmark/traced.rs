//! The traced pass: per-layer host time, measured from the benchmark's own
//! files around calls into each layer's public functions (the library
//! carries no probes).
//!
//! Fleet sessions are rebuilt from public APIs with the recipe of the
//! library's fleet constructor (`mix64` session seeds, re-keyed fault and
//! occluder streams, `FirstReport::AtZero`), with the motion and the TX
//! selector wrapped in [`Timed`], and stepped one `step_slot` at a time
//! inside a span. Layers that live in concrete types — the coupling power,
//! the TP solve, the frame-success math and the environment — are timed by
//! calling them on clones of the live session state every
//! [`PROBE_EVERY`]th slot (the clone is made outside the span), and scaled
//! by call rates counted from the session's own counters. The rebuilt
//! sessions must reproduce the untraced fleet bit for bit, or the pass
//! fails.

use crate::json::Json;
use crate::stats::LogHist;
use crate::workloads::{self, physics_hash, Fixture, Output, Workload};
use cyclops::link::channel::{FrameSuccessCache, FsoChannel};
use cyclops::link::engine::{
    BestMargin, SelectCtx, SessionReport, SlotSession, TraceSession, TxSelector,
};
use cyclops::link::sched::{GrantSet, SchedCtx};
use cyclops::optics::CouplingModel;
use cyclops::prelude::*;
use std::collections::BTreeMap;
use std::f64::consts::{FRAC_PI_2, LOG10_E};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Concrete-type layers are probed on every this-many-th slot.
const PROBE_EVERY: usize = 16;
/// Raw spans are kept for this many slots of session 0 (trace sweep: this
/// many operations).
const RAW_SPANS: usize = 10_000;

/// One layer's spans: their count and total duration, a histogram of
/// duration per unit of work in picoseconds (so that sub-nanosecond
/// per-slot costs keep their digits), and raw
/// `[start ns since the pass began, duration ns, id]` spans for the first
/// slots of session 0.
#[derive(Debug, Default)]
struct Layer {
    hist: LogHist,
    n: u64,
    total_ns: f64,
    raw: Vec<[u64; 3]>,
}

impl Layer {
    /// Records a span of `dur` covering `per` units of work (slots).
    fn record(&mut self, dur: Duration, per: u64) {
        let ns = dur.as_nanos() as u64;
        self.hist.record(ns * 1000 / per.max(1));
        self.n += 1;
        self.total_ns += ns as f64;
    }

    fn keep_raw(&mut self, origin: Instant, start: Instant, dur: Duration, id: u64) {
        self.raw.push([
            (start - origin).as_nanos() as u64,
            dur.as_nanos() as u64,
            id,
        ]);
    }

    fn merge(&mut self, o: Layer) {
        self.hist.merge(&o.hist);
        self.n += o.n;
        self.total_ns += o.total_ns;
        self.raw.extend(o.raw);
    }

    /// Mean span duration.
    fn mean_ns(&self) -> f64 {
        self.total_ns / self.n.max(1) as f64
    }

    fn to_json(&self) -> Json {
        // Quantiles are per unit of work: per slot for the trace sweep's
        // per-operation spans, per call everywhere else.
        let q = |p: f64| {
            self.hist
                .quantile(p)
                .map_or(Json::Null, |x| Json::Num(x / 1000.0))
        };
        Json::obj([
            ("n", Json::Num(self.n as f64)),
            ("total_ns", Json::Num(self.total_ns)),
            ("mean_ns", Json::Num(self.mean_ns())),
            ("p50_ns", q(0.5)),
            ("p99_ns", q(0.99)),
            ("p999_ns", q(0.999)),
            (
                "hist_lo_ns",
                Json::nums(self.hist.buckets().map(|(lo, _)| lo as f64 / 1000.0)),
            ),
            (
                "hist_count",
                Json::nums(self.hist.buckets().map(|(_, c)| c as f64)),
            ),
            (
                "raw_start_dur_id",
                Json::Arr(
                    self.raw
                        .iter()
                        .map(|s| Json::nums(s.map(|x| x as f64)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// A layer wrapped for timing: every call into it is a span.
struct Timed<T> {
    inner: T,
    layer: Layer,
    origin: Instant,
    /// Keep raw spans (session 0's first slots).
    capture: bool,
    /// Start of the previous call, for the gaps between calls.
    prev: Option<Instant>,
    gaps: Layer,
}

impl<T> Timed<T> {
    fn new(inner: T, origin: Instant, capture: bool) -> Timed<T> {
        Timed {
            inner,
            layer: Layer::default(),
            origin,
            capture,
            prev: None,
            gaps: Layer::default(),
        }
    }

    #[inline]
    fn time<R>(&mut self, f: impl FnOnce(&mut T) -> R) -> R {
        let t0 = Instant::now();
        let r = f(&mut self.inner);
        let dur = t0.elapsed();
        self.layer.record(dur, 1);
        if self.capture {
            self.layer.keep_raw(self.origin, t0, dur, 0);
        }
        r
    }
}

impl<M: Motion> Motion for Timed<M> {
    fn pose_at(&mut self, t: f64) -> Pose {
        self.time(|m| m.pose_at(t))
    }
}

impl<S: TxSelector> TxSelector for Timed<S> {
    fn on_slot(&mut self, ctx: &SelectCtx<'_>) -> Option<usize> {
        self.time(|s| s.on_slot(ctx))
    }
}

impl<S: TxScheduler> TxScheduler for Timed<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn admit(&mut self, session: usize, n_admitted: usize, cap: usize) -> bool {
        self.inner.admit(session, n_admitted, cap)
    }

    /// Also records the gap since the previous `assign`: one lockstep
    /// fleet slot (every session's step plus the grant and traffic work).
    fn assign(&mut self, ctx: &SchedCtx<'_>, grants: &mut GrantSet) {
        let now = Instant::now();
        if let Some(p) = self.prev.replace(now) {
            self.gaps.record(now - p, 1);
        }
        self.time(|s| s.assign(ctx, grants));
    }
}

/// Per-slot counts summed over a pass, the base of the per-slot call rates.
#[derive(Debug, Default)]
struct Counts {
    sessions: u64,
    slots: u64,
    los_slots: u64,
    fso_slots: u64,
    env_slots: u64,
    tp_solves: u64,
    tp_iters: u64,
    reacq_steps: u64,
    handovers: u64,
    ctrl_sent: u64,
    ctrl_delivered: u64,
    ctrl_retransmits: u64,
    down_s: f64,
    rf_slots: u64,
    beam_samples: u64,
    beam_quadrature: u64,
    trace_reports: u64,
}

/// What a traced pass measured.
pub struct Traced {
    /// Span layers by name (`engine.step`, `motion.pose_at`, ...).
    layers: BTreeMap<&'static str, Layer>,
    counts: Counts,
    /// Host time of the slot loop with the spans but without the probes.
    loop_s: f64,
    /// The pass reproduced the untraced repetition bit for bit.
    pub identical: bool,
}

impl Traced {
    fn new() -> Traced {
        Traced {
            layers: BTreeMap::new(),
            counts: Counts::default(),
            loop_s: 0.0,
            identical: true,
        }
    }

    fn layer(&mut self, name: &'static str) -> &mut Layer {
        self.layers.entry(name).or_default()
    }

    fn ns(&self, name: &str) -> f64 {
        self.layers.get(name).map_or(0.0, |l| l.total_ns)
    }

    fn mean(&self, name: &str) -> f64 {
        self.layers.get(name).map_or(0.0, Layer::mean_ns)
    }

    /// Traced slots per reference second, given the reference seconds per
    /// host second the pass ran at.
    fn slots_per_s(&self, ref_per_host: f64) -> f64 {
        self.counts.slots as f64 / (self.loop_s * ref_per_host)
    }

    /// The per-layer metrics (names as in `BENCHMARK.json`), given the
    /// untraced slot rate of the driver the pass rebuilds (per reference
    /// second), the host speed during the pass, the telemetry overhead, the
    /// set-up layer times, and the untraced repetition's output.
    pub fn metrics(
        &self,
        untraced_slots_per_s: f64,
        ref_per_host: f64,
        telemetry_overhead: f64,
        setup: &workloads::SetupLayers,
        out: &Output,
    ) -> Vec<(&'static str, f64)> {
        let c = &self.counts;
        let s = c.slots.max(1) as f64;
        let per = |x: f64| x / s;
        let step = &self.layers["engine.step"];
        let engine = per(step.total_ns);
        let q = |p: f64| step.hist.quantile(p).map_or(f64::NAN, |x| x / 1000.0);
        let motion = per(self.ns("motion.pose_at"));
        let selector = per(self.ns("selector.on_slot"));
        let tp = self.mean("tp.on_report") * per(c.tp_solves as f64);
        let power =
            self.mean("deployment.received_power_dbm") * per((c.los_slots + c.reacq_steps) as f64);
        let fsp = self.mean("channel.frame_success_prob") * per(c.fso_slots as f64);
        let env = self.mean("channel.attenuation_db") * per(c.env_slots as f64);
        let trace_sim = per(self.ns("trace_sim.run_count"));
        let attributed = motion + selector + tp + power + fsp + env + trace_sim;
        let sched = self.ns("sched.assign") / self.ns("sched.fleet_slot").max(1.0);
        let (granted, served, denied) = match out {
            Output::Fleet(f) => f.rollup().sched.map_or((0, 0, 0), |r| {
                (r.total_granted, r.total_served, r.total_denied)
            }),
            Output::Trace(_) => (0, 0, 0),
        };
        let setup_total = setup.kspace_s + setup.mapping_s + setup.traces_s;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        vec![
            ("engine.ns_per_slot", engine),
            ("engine.slot_ns_p50", q(0.5)),
            ("engine.slot_ns_p99", q(0.99)),
            ("engine.slot_ns_p999", q(0.999)),
            ("engine.other_ns_per_slot", engine - attributed),
            ("engine.attributed_frac", attributed / engine),
            (
                "engine.trace_overhead_pct",
                (untraced_slots_per_s / self.slots_per_s(ref_per_host) - 1.0) * 100.0,
            ),
            (
                "engine.session_build_us",
                self.mean("engine.session_build") / 1000.0,
            ),
            ("motion.share", motion / engine),
            (
                "motion.calls_per_slot",
                per(self
                    .layers
                    .get("motion.pose_at")
                    .map_or(0.0, |l| l.n as f64)),
            ),
            ("tp.share", tp / engine),
            ("tp.solves_per_slot", per(c.tp_solves as f64)),
            (
                "tp.mean_iters",
                ratio(c.tp_iters as f64, c.tp_solves as f64),
            ),
            ("deployment.share", power / engine),
            (
                "deployment.power_calls_per_slot",
                per((c.los_slots + c.reacq_steps) as f64),
            ),
            (
                "beam.quadrature_frac",
                ratio(c.beam_quadrature as f64, c.beam_samples as f64),
            ),
            ("channel.share", (fsp + env) / engine),
            ("channel.env_share", env / engine),
            ("selector.share", selector / engine),
            (
                "selector.handovers_per_session",
                ratio(c.handovers as f64, c.sessions as f64),
            ),
            (
                "control.delivered_per_sent",
                ratio(c.ctrl_delivered as f64, c.ctrl_sent as f64),
            ),
            (
                "control.retransmits_per_sent",
                ratio(c.ctrl_retransmits as f64, c.ctrl_sent as f64),
            ),
            (
                "sfp_state.down_frac",
                c.down_s / (s * EngineConfig::default().slot_s),
            ),
            ("fallback.rf_frac", per(c.rf_slots as f64)),
            ("sched.share", sched),
            (
                "sched.served_per_granted",
                ratio(served as f64, granted as f64),
            ),
            ("sched.denied_frac", per(denied as f64)),
            ("telemetry.overhead_frac", telemetry_overhead),
            ("trace_sim.share", trace_sim / engine),
            ("trace_sim.reports_per_slot", per(c.trace_reports as f64)),
            ("kspace.setup_share", ratio(setup.kspace_s, setup_total)),
            ("mapping.setup_share", ratio(setup.mapping_s, setup_total)),
            ("traces.setup_share", ratio(setup.traces_s, setup_total)),
        ]
    }

    /// The trace file: every layer's histogram and raw spans, plus the
    /// counts behind the call rates.
    pub fn to_json(&self, w: Workload, seed: u64) -> Json {
        let c = &self.counts;
        Json::obj([
            ("workload", Json::Str(w.name().into())),
            ("seed", Json::Num(seed as f64)),
            ("sessions", Json::Num(c.sessions as f64)),
            ("slots", Json::Num(c.slots as f64)),
            ("loop_s", Json::Num(self.loop_s)),
            ("probe_every", Json::Num(PROBE_EVERY as f64)),
            (
                "raw_spans",
                Json::Str(format!(
                    "session 0, first {RAW_SPANS} slots (trace sweep: operations); \
                     [start ns since the pass began, duration ns, slot]; a child span \
                     belongs to the engine.step span that contains it"
                )),
            ),
            (
                "counts",
                Json::obj(
                    [
                        ("los_slots", c.los_slots as f64),
                        ("fso_slots", c.fso_slots as f64),
                        ("env_slots", c.env_slots as f64),
                        ("tp_solves", c.tp_solves as f64),
                        ("tp_iters", c.tp_iters as f64),
                        ("reacq_steps", c.reacq_steps as f64),
                        ("handovers", c.handovers as f64),
                        ("ctrl_sent", c.ctrl_sent as f64),
                        ("ctrl_delivered", c.ctrl_delivered as f64),
                        ("ctrl_retransmits", c.ctrl_retransmits as f64),
                        ("down_s", c.down_s),
                        ("rf_slots", c.rf_slots as f64),
                        ("beam_samples", c.beam_samples as f64),
                        ("beam_quadrature", c.beam_quadrature as f64),
                        ("trace_reports", c.trace_reports as f64),
                    ]
                    .map(|(k, v)| (k, Json::Num(v))),
                ),
            ),
            (
                "layers",
                Json::obj(self.layers.iter().map(|(k, l)| (*k, l.to_json()))),
            ),
        ])
    }
}

/// Runs the traced pass of `w` and checks it against `untraced`, the
/// output of an untraced repetition with the same seed.
pub fn run(w: Workload, fx: &Fixture, seed: u64, untraced: &Output) -> Traced {
    let mut t = Traced::new();
    match fx {
        Fixture::Traces(traces) => trace_sweep(&mut t, traces, seed, untraced),
        Fixture::Units(units) => {
            let cfg = workloads::fleet_config(w, units, seed);
            let reports = fleet(&mut t, units, &cfg);
            if let Output::Fleet(s) = untraced {
                t.identical &= reports.len() == s.sessions.len()
                    && reports
                        .iter()
                        .zip(&s.sessions)
                        .all(|(a, b)| physics_hash(a) == physics_hash(b));
            }
            if w == Workload::FleetSched {
                sched(&mut t, units, &cfg, untraced);
            }
        }
    }
    t
}

/// Rebuilds and steps every session of the fleet under spans. Returns the
/// sessions' reports, folded as the library's fleet driver folds them.
fn fleet(t: &mut Traced, units: &[TxInstallation], cfg: &FleetConfig) -> Vec<SessionReport> {
    let origin = Instant::now();
    let slot_s = EngineConfig::default().slot_s;
    let n_slots = (cfg.duration_s / slot_s).round() as usize;
    let sens = units[0].dep.design.sfp.rx_sensitivity_dbm;
    let channel = FsoChannel::new(sens, units[0].dep.design.sfp.rx_overload_dbm);
    let fsp = FrameSuccessCache::new(channel, EngineConfig::default().frame_bits);
    let mut reports = Vec::with_capacity(cfg.n_sessions);
    let mut step = Layer::default();
    let mut probe_s = 0.0;
    let t_loop = Instant::now();
    for i in 0..cfg.n_sessions {
        let t0 = Instant::now();
        let (mut session, seed, env) = build_session(units, cfg, i, origin);
        t.layer("engine.session_build").record(t0.elapsed(), 1);
        // The run prologue (primes speed tracking), then the slot loop.
        session.run_each(0.0, |_| {});
        let mut sums = [0usize; 4]; // up, signal, rf, fso
        let (mut goodput_sum, mut power_sum) = (0.0, 0.0);
        for k in 0..n_slots {
            let t0 = Instant::now();
            let rec = session.step_slot(k);
            let dur = t0.elapsed();
            step.record(dur, 1);
            if i == 0 && k < RAW_SPANS {
                step.keep_raw(origin, t0, dur, k as u64);
                if k + 1 == RAW_SPANS {
                    session.motion_mut().capture = false;
                    session.selector_mut().capture = false;
                }
            }
            sums[0] += rec.link_up as usize;
            sums[1] += (rec.power_dbm >= sens) as usize;
            sums[2] += rec.rf_active as usize;
            sums[3] += (rec.link_up && !rec.rf_active) as usize;
            t.counts.los_slots += rec.los as u64;
            goodput_sum += rec.goodput_gbps;
            power_sum += rec.power_dbm;
            if k % PROBE_EVERY == 0 {
                let p0 = Instant::now();
                probe(t, &session, &rec, &fsp, env.as_ref());
                probe_s += p0.elapsed().as_secs_f64();
            }
        }
        let n = n_slots.max(1) as f64;
        let tp = session.tp_metrics();
        let stats = session.session_stats();
        let c = &mut t.counts;
        c.sessions += 1;
        c.slots += n_slots as u64;
        c.fso_slots += sums[3] as u64;
        c.env_slots += if env.is_some() { n_slots as u64 } else { 0 };
        c.tp_solves += tp.n_reports + tp.n_extrapolated;
        c.tp_iters += tp.sum_iters;
        c.reacq_steps += stats.n_reacq_steps;
        c.handovers += session.n_handovers();
        if let Some(cs) = stats.control {
            c.ctrl_sent += cs.sent;
            c.ctrl_delivered += cs.delivered;
            c.ctrl_retransmits += cs.retransmits;
        }
        c.down_s += stats.outage_s;
        c.rf_slots += stats.rf.rf_slots;
        let motion = std::mem::take(&mut session.motion_mut().layer);
        t.layer("motion.pose_at").merge(motion);
        let selector = std::mem::take(&mut session.selector_mut().layer);
        t.layer("selector.on_slot").merge(selector);
        reports.push(SessionReport {
            session: i,
            seed,
            slots: n_slots,
            up_frac: sums[0] as f64 / n,
            signal_frac: sums[1] as f64 / n,
            mean_goodput_gbps: goodput_sum / n,
            rf_frac: sums[2] as f64 / n,
            mean_power_dbm: power_sum / n,
            handovers: session.n_handovers(),
            stats,
            tp_reports: tp.n_reports,
            tp_failures: tp.n_failures,
            telemetry: session.telemetry().copied(),
            sched: None,
            profile: None,
        });
    }
    t.loop_s += t_loop.elapsed().as_secs_f64() - probe_s;
    t.layer("engine.step").merge(step);
    reports
}

type TracedSession = LinkSession<Timed<ArbitraryMotion>, Timed<BestMargin>>;

/// Fleet session `i`, built as the library's fleet constructor builds it,
/// with the motion and the selector wrapped for timing. Also returns the
/// session seed and a copy of its environment for the probes.
fn build_session(
    units: &[TxInstallation],
    cfg: &FleetConfig,
    i: usize,
    origin: Instant,
) -> (TracedSession, u64, Option<Environment>) {
    use cyclops_par::mix64;
    let seed = mix64(cfg.seed, 1 + i as u64);
    let capture = i == 0;
    let motion = Timed::new(
        ArbitraryMotion::new(cfg.base_pose, cfg.motion, seed),
        origin,
        capture,
    );
    let mut control = cfg.control;
    if let Some(c) = control.as_mut() {
        c.fault.seed = mix64(c.fault.seed, 1 + i as u64);
    }
    let occluders: Vec<Occluder> = cfg
        .occluders
        .iter()
        .enumerate()
        .map(|(j, o)| Occluder::new(o.center, o.radius, o.speed, mix64(seed, 0x0cc1 + j as u64)))
        .collect();
    let ecfg = EngineConfig {
        control,
        los_gating: !occluders.is_empty(),
        pause_on_outage: cfg.pause_on_outage,
        fallback: cfg.fallback,
        tracker: cfg.tracker,
        ..EngineConfig::default()
    };
    let selector = Timed::new(
        BestMargin::new(units[0].dep.design, cfg.debounce_s),
        origin,
        capture,
    );
    let telemetry = if cfg.collect_telemetry {
        Telemetry::counters()
    } else {
        Telemetry::off()
    };
    let env = cfg.environment.as_ref().map(|e| e.reseeded(seed));
    let mut builder = LinkSession::builder(motion)
        .units(units.to_vec())
        .occluders(occluders)
        .selector(selector)
        .config(ecfg)
        .telemetry(telemetry)
        .first_report(FirstReport::AtZero);
    if let Some(e) = &env {
        builder = builder.environment(e.clone());
    }
    let mut session = builder.build().expect("fleet engine config is valid");
    if cfg.collect_telemetry {
        session.telemetry_mut().emit(&TelemetryEvent::SessionStart {
            session: i as u64,
            seed,
        });
    }
    (session, seed, env)
}

/// Times the concrete-type layers on clones of the live state after slot
/// `rec`, and samples whether the coupling power takes the quadrature.
fn probe(
    t: &mut Traced,
    session: &TracedSession,
    rec: &EngineSlot,
    fsp: &FrameSuccessCache,
    env: Option<&Environment>,
) {
    let unit = &session.units()[session.active()];

    let mut dep = unit.dep.clone();
    let t0 = Instant::now();
    black_box(dep.received_power_dbm());
    t.layer("deployment.received_power_dbm")
        .record(t0.elapsed(), 1);
    // The slot loop evaluates the power on line-of-sight slots only.
    if rec.los {
        t.counts.beam_samples += 1;
        t.counts.beam_quadrature += reaches_quadrature(&mut unit.dep.clone()) as u64;
    }

    let mut ctl = unit.ctl.clone();
    let pose = unit.dep.headset.true_reported_pose();
    let t0 = Instant::now();
    black_box(ctl.on_report(black_box(&pose)));
    t.layer("tp.on_report").record(t0.elapsed(), 1);

    let mut f = fsp.clone();
    let t0 = Instant::now();
    black_box(f.frame_success_prob(black_box(rec.power_dbm)));
    t.layer("channel.frame_success_prob")
        .record(t0.elapsed(), 1);

    if let Some(env) = env {
        let mut e = env.clone();
        let path = unit
            .dep
            .rx_world_params()
            .q2
            .distance(unit.dep.tx_world_params().q2);
        let t0 = Instant::now();
        black_box(e.attenuation_db(black_box(rec.t), black_box(path)));
        t.layer("channel.attenuation_db").record(t0.elapsed(), 1);
    }
}

/// Whether `dep`'s received power, evaluated now, integrates
/// `capture_fraction` by quadrature. Follows
/// `Deployment::received_power_unfloored_dbm` to the misalignment (δ, φ, w)
/// and its early exits, then [`quadrature_branch`].
fn reaches_quadrature(dep: &mut Deployment) -> bool {
    let Some(beam) = dep.tx_beam() else {
        return false;
    };
    let rx_pose = dep.rx_world_pose();
    let rx = dep.rx.clone();
    let Some(imag_body) = rx.output_ray(dep.rng()) else {
        return false;
    };
    let imag = rx_pose.apply_ray(&imag_body);
    let plane = rx
        .truth
        .transformed(&rx_pose)
        .second_mirror_plane(rx.voltages().1);
    let Some((t, hit)) = plane.intersect_ray(&beam.chief) else {
        return false;
    };
    let delta = hit.distance(imag.origin);
    let phi = beam
        .local_ray_dir(imag.origin)
        .angle_to(-imag.dir)
        .min(FRAC_PI_2);
    if phi >= FRAC_PI_2 {
        return false;
    }
    let design = &dep.design;
    quadrature_branch(
        &design.coupling,
        beam.radius_at(t),
        delta,
        phi,
        design.theta_half,
    )
}

/// The misalignment-independent loss terms `CouplingModel::efficiency_db`
/// adds to the capture (dB), as it sums them.
fn fixed_loss_db(c: &CouplingModel, delta: f64, phi: f64, theta_half: f64) -> f64 {
    let sp = c.sigma_phi(theta_half);
    let ang_db = -10.0 * LOG10_E * (phi * phi) / (2.0 * sp * sp);
    let cross_db = -c.cross_blur_db_per_mm_mrad * (delta.abs() * 1e3) * (phi.abs() * 1e3);
    ang_db + cross_db + c.divergence_loss_db(theta_half) + c.base_insertion_db
}

/// Whether `c.efficiency_db(w, delta, phi, theta_half)` reaches the
/// quadrature of `capture_fraction`: it does not below -90 dB of fixed loss
/// (separable closed form), nor for offsets under 0.02 w (small-offset
/// closed form) or beyond 8 w past the aperture edge (zero). The library
/// has no predicate for this; the conditions are copied, and the tests
/// below pin each one to the library's behaviour.
fn quadrature_branch(c: &CouplingModel, w: f64, delta: f64, phi: f64, theta_half: f64) -> bool {
    let a = c.aperture_radius;
    fixed_loss_db(c, delta, phi, theta_half) >= -90.0
        && a > 0.0
        && delta >= 0.02 * w
        && delta <= 8.0 * w + a
}

/// The scheduled fleet again, through a timed scheduler: `assign` spans
/// and the lockstep fleet slot between them.
fn sched(t: &mut Traced, units: &[TxInstallation], cfg: &FleetConfig, untraced: &Output) {
    let mut policy = Timed::new(ProportionalFair { alpha: 1.0 }, Instant::now(), false);
    let summary = run_fleet_with_scheduler(units, cfg, &workloads::sched_config(), &mut policy)
        .expect("valid scheduled fleet");
    let same = Output::Fleet(summary).op_signatures() == untraced.op_signatures();
    t.identical &= same;
    t.layer("sched.assign").merge(policy.layer);
    t.layer("sched.fleet_slot").merge(policy.gaps);
}

/// The trace sweep under spans: one per (parameter point, trace)
/// operation, covering the session's construction and its fused run.
fn trace_sweep(t: &mut Traced, traces: &[HeadTrace], seed: u64, untraced: &Output) {
    let origin = Instant::now();
    let params = workloads::sweep_params(seed);
    let mut fracs = Vec::with_capacity(params.len());
    let mut op = 0u64;
    let t_loop = Instant::now();
    for p in &params {
        let mut row = Vec::with_capacity(traces.len());
        for tr in traces {
            let n = workloads::trace_slots(tr, p);
            let t0 = Instant::now();
            let mut s = TraceSession::new(tr, *p);
            let t1 = Instant::now();
            let on = s.run_count(n);
            let t2 = Instant::now();
            row.push(on as f64 / n.max(1) as f64);
            t.counts.trace_reports += tr.motion_rates().len() as u64;
            t.counts.slots += n as u64;
            t.counts.sessions += 1;
            let t3 = Instant::now();
            t.layer("engine.session_build").record(t1 - t0, 1);
            t.layer("trace_sim.run_count").record(t2 - t1, n as u64);
            let step = t.layer("engine.step");
            step.record(t3 - t0, n as u64);
            if (op as usize) < RAW_SPANS {
                step.keep_raw(origin, t0, t3 - t0, op);
            }
            op += 1;
        }
        fracs.push(row);
    }
    t.loop_s += t_loop.elapsed().as_secs_f64();
    t.identical &= Output::Trace(fracs).op_signatures() == untraced.op_signatures();
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclops::optics::{capture_fraction, linear_to_db};

    /// `capture_fraction` keeps its closed forms exactly where
    /// `quadrature_branch` says it does not integrate.
    #[test]
    fn offset_conditions_match_capture_fraction() {
        let c = CouplingModel::commodity_10g();
        let (a, w) = (c.aperture_radius, 4.0e-3);
        let small_offset = |d: f64| {
            let e = (-2.0 * a * a / (w * w)).exp();
            1.0 - e - 4.0 * d * d * a * a * e / (w * w * w * w)
        };
        let (below, above) = (0.02 * w * (1.0 - 1e-9), 0.02 * w * (1.0 + 1e-9));
        assert_eq!(capture_fraction(w, below, a), small_offset(below));
        assert_ne!(capture_fraction(w, above, a), small_offset(above));
        assert!(!quadrature_branch(&c, w, below, 0.0, 0.0));
        assert!(quadrature_branch(&c, w, above, 0.0, 0.0));

        let edge = 8.0 * w + a;
        let (inside, beyond) = (edge * (1.0 - 1e-9), edge * (1.0 + 1e-9));
        assert!(capture_fraction(w, inside, a) > 0.0);
        assert_eq!(capture_fraction(w, beyond, a), 0.0);
        assert!(quadrature_branch(&c, w, inside, 0.0, 0.0));
        assert!(!quadrature_branch(&c, w, beyond, 0.0, 0.0));
    }

    /// `efficiency_db` adds exactly `fixed_loss_db` to the integrated
    /// capture down to -90 dB of fixed loss, and leaves the integral below.
    #[test]
    fn fixed_loss_condition_matches_efficiency_db() {
        let c = CouplingModel::commodity_10g();
        let (w, delta, th) = (4.0e-3, 6.0e-3, 1.0e-3);
        // Bisect the incidence angle at which the fixed loss crosses -90 dB
        // (it grows with the angle).
        let (mut lo, mut hi) = (0.0, 0.5);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if fixed_loss_db(&c, delta, mid, th) >= -90.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let integrated = |phi: f64| {
            linear_to_db(capture_fraction(w, delta, c.aperture_radius))
                + fixed_loss_db(&c, delta, phi, th)
        };
        assert_eq!(c.efficiency_db(w, delta, lo, th), integrated(lo));
        assert_ne!(c.efficiency_db(w, delta, hi, th), integrated(hi));
        assert!(quadrature_branch(&c, w, delta, lo, th));
        assert!(!quadrature_branch(&c, w, delta, hi, th));
    }
}
