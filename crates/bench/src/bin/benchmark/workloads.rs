//! The four slot-loop workloads: their fixtures (the set-up the benchmark
//! times as `setup_s`), their inputs derived from `--seed`, one repetition
//! of each, and the simulated outcomes a repetition reports.
//!
//! Sizes are per repetition, chosen so one repetition takes about a second
//! on one core (see README.md for the measured rates). Each fleet keeps the
//! session length and the sessions per TX unit of the regime it stands for;
//! only the number of sessions is cut to fit the repetition.

use crate::host::Kernel;
use cyclops::core::kspace::{train_both, BoardConfig};
use cyclops::core::mapping::{self, rough_initial_guess};
use cyclops::link::engine::{FleetSummary, SessionReport};
use cyclops::link::trace_sim::{simulate_corpus, TraceSimParams};
use cyclops::optics::sfp::SfpSpec;
use cyclops::prelude::*;
use cyclops::vrh::motion::ArbitraryMotionConfig;
use cyclops_par::mix64;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetSteady,
    FleetHostile,
    FleetSched,
    TraceSweep,
}

pub const ALL: [Workload; 4] = [
    Workload::FleetSteady,
    Workload::FleetHostile,
    Workload::FleetSched,
    Workload::TraceSweep,
];

/// The seed a run uses without `--seed`, and the one `reference.json` was
/// recorded at.
pub const DEFAULT_SEED: u64 = 1;

/// Commissioning seed of the two ceiling units. The units are the fixed
/// installation every fleet workload runs in; `--seed` varies the sessions.
const UNITS_SEED: u64 = 911;

const STEADY_SESSIONS: usize = 40;
const STEADY_DURATION_S: f64 = 60.0;
const HOSTILE_SESSIONS: usize = 160;
const HOSTILE_DURATION_S: f64 = 4.0;
const SCHED_SESSIONS: usize = 8;
const SCHED_DURATION_S: f64 = 80.0;
const SCHED_SESSIONS_PER_UNIT: usize = 4;
const N_TRACES: usize = 125;

/// Lateral and angular tolerance scales of the trace sweep (8 × 5 points,
/// each run reliable and with report loss).
const LAT_SCALES: [f64; 8] = [0.5, 0.625, 0.75, 0.875, 1.0, 1.25, 1.5, 2.0];
const ANG_SCALES: [f64; 5] = [0.5, 0.75, 1.0, 1.5, 2.0];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetSteady => "fleet_steady",
            Workload::FleetHostile => "fleet_hostile",
            Workload::FleetSched => "fleet_sched",
            Workload::TraceSweep => "trace_sweep",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == s)
    }

    /// Operations per repetition: one fleet session, or one trace at one
    /// parameter point.
    pub fn ops_per_rep(self) -> usize {
        match self {
            Workload::FleetSteady => STEADY_SESSIONS,
            Workload::FleetHostile => HOSTILE_SESSIONS,
            Workload::FleetSched => SCHED_SESSIONS,
            Workload::TraceSweep => N_TRACES * sweep_params(0).len(),
        }
    }

    /// The calibration kernel that slows with the host as this workload
    /// does: the trace sweep streams its corpus, the fleets do not.
    pub fn kernel(self) -> Kernel {
        match self {
            Workload::TraceSweep => Kernel::ScalarAndStream,
            _ => Kernel::Scalar,
        }
    }
}

/// Time spent in each set-up layer while building one fixture.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupLayers {
    /// Stage-1 K-space training (§4.1), both galvos of both units.
    pub kspace_s: f64,
    /// Stage-2 VR-space mapping training (§4.2), both units.
    pub mapping_s: f64,
    /// Trace generation plus the drift-rate cache.
    pub traces_s: f64,
}

/// What a workload runs against: the commissioned TX units, or the trace
/// corpus.
pub enum Fixture {
    Units(Vec<TxInstallation>),
    Traces(Vec<HeadTrace>),
}

impl Fixture {
    pub fn build(w: Workload, seed: u64) -> (Fixture, SetupLayers) {
        let mut layers = SetupLayers::default();
        if w == Workload::TraceSweep {
            let t0 = Instant::now();
            let traces: Vec<HeadTrace> = (0..N_TRACES)
                .map(|i| HeadTrace::generate(&TraceGenConfig::default(), mix64(seed, i as u64)))
                .collect();
            // Warm the lazily-built drift-rate cache, which the first
            // simulation of each trace would otherwise pay for.
            for t in &traces {
                std::hint::black_box(t.motion_rates());
            }
            layers.traces_s = t0.elapsed().as_secs_f64();
            return (Fixture::Traces(traces), layers);
        }
        let board = BoardConfig {
            cols: 10,
            rows: 8,
            cell_m: 0.0508,
        };
        let units = [Vec3::new(-0.35, 0.0, 0.0), Vec3::new(0.35, 0.0, 0.0)]
            .into_iter()
            .map(|pos| {
                let mut cfg = DeploymentConfig::paper_10g(UNITS_SEED);
                cfg.tx_position = pos;
                let mut dep = Deployment::new(&cfg);
                let t0 = Instant::now();
                let (tx_tr, tx_rig, rx_tr, rx_rig) =
                    train_both(&dep, &board, UNITS_SEED).expect("stage-1 training");
                let t1 = Instant::now();
                let (itx, irx) =
                    rough_initial_guess(&dep, &tx_rig, &rx_rig, 0.05, 0.08, UNITS_SEED + 7);
                let mt = mapping::train(
                    &mut dep,
                    &tx_tr.fitted,
                    &rx_tr.fitted,
                    itx,
                    irx,
                    12,
                    UNITS_SEED + 9,
                );
                layers.kspace_s += (t1 - t0).as_secs_f64();
                layers.mapping_s += t1.elapsed().as_secs_f64();
                let v = dep.voltages();
                let ctl = TpController::new(mt.trained, TpConfig::default(), [v.0, v.1, v.2, v.3]);
                TxInstallation { dep, ctl }
            })
            .collect();
        (Fixture::Units(units), layers)
    }

    /// A hash of the fixture's numeric content; two builds from one seed
    /// must agree.
    pub fn signature(&self) -> u64 {
        let mut h = Fnv::default();
        match self {
            Fixture::Units(units) => {
                for u in units {
                    let v = u.dep.voltages();
                    h.f64s(&[v.0, v.1, v.2, v.3]);
                    h.f64s(&u.ctl.last_voltages());
                    let q = u.dep.tx_world_params().q2;
                    h.f64s(&[q.x, q.y, q.z]);
                }
            }
            Fixture::Traces(traces) => {
                for t in traces {
                    for s in &t.samples {
                        h.f64s(&[s.t_ms, s.pos.x, s.pos.y, s.pos.z]);
                        h.f64s(&[s.quat.w, s.quat.x, s.quat.y, s.quat.z]);
                    }
                }
            }
        }
        h.0
    }
}

/// The fleet a workload runs: every stream derived from `seed`.
pub fn fleet_config(w: Workload, units: &[TxInstallation], seed: u64) -> FleetConfig {
    // Gentle hand-held motion, as in `ext_environment`.
    let gentle = ArbitraryMotionConfig {
        lin_rms: 0.05,
        ang_rms: 0.08,
        ..Default::default()
    };
    match w {
        Workload::FleetSteady => FleetConfig {
            n_sessions: STEADY_SESSIONS,
            duration_s: STEADY_DURATION_S,
            seed,
            motion: gentle,
            ..FleetConfig::default()
        },
        Workload::FleetHostile => {
            // `perf_snapshot`'s hostile fleet: a roaming occluder half-way
            // between unit 0 and the headset, the stress fault plan under
            // the hardened control plane, plus the RF fallback.
            let base = FleetConfig::default().base_pose;
            let mid = units[0].dep.tx_world_params().q2.lerp(base.trans, 0.5);
            FleetConfig {
                n_sessions: HOSTILE_SESSIONS,
                duration_s: HOSTILE_DURATION_S,
                seed,
                control: Some(ControlPlaneConfig::hardened(FaultPlan::stress(mix64(
                    seed, 5,
                )))),
                occluders: vec![Occluder::new(mid, 0.12, 0.4, 0)],
                fallback: FallbackPolicy::RfOnOutage,
                ..FleetConfig::default()
            }
        }
        Workload::FleetSched => FleetConfig {
            n_sessions: SCHED_SESSIONS,
            duration_s: SCHED_DURATION_S,
            seed,
            motion: gentle,
            collect_telemetry: true,
            environment: Some(
                Environment::new()
                    .stage(FogStage::from_density(0.3, 1550.0).expect("valid density"))
                    .stage(ScintillationStage::new(0.6, 10e-3, 77).expect("valid scintillation")),
            ),
            ..FleetConfig::default()
        },
        Workload::TraceSweep => panic!("trace_sweep is not a fleet"),
    }
}

/// Proportional fair (α = 1), every session admitted (8 sessions, 4 per
/// unit, 2 units).
pub fn sched_config() -> SchedConfig {
    SchedConfig {
        max_sessions_per_unit: SCHED_SESSIONS_PER_UNIT,
        ..SchedConfig::proportional_fair(1.0)
    }
}

/// The trace sweep's parameter points; `seed` keys the report-loss draws.
pub fn sweep_params(seed: u64) -> Vec<TraceSimParams> {
    let base = TraceSimParams::default();
    let mut out = Vec::new();
    for (i, &sl) in LAT_SCALES.iter().enumerate() {
        for (j, &sa) in ANG_SCALES.iter().enumerate() {
            let p = TraceSimParams {
                tol_lat_m: base.tol_lat_m * sl,
                tol_ang_rad: base.tol_ang_rad * sa,
                ..base
            };
            out.push(p);
            out.push(TraceSimParams {
                report_loss_prob: 0.05,
                loss_seed: mix64(seed, (i * ANG_SCALES.len() + j) as u64),
                dead_reckoning: true,
                ..p
            });
        }
    }
    out
}

/// Slots one trace simulates (the `simulate_corpus` rule).
pub fn trace_slots(t: &HeadTrace, p: &TraceSimParams) -> usize {
    ((t.duration_s() * 1e3) / p.slot_ms).floor() as usize
}

/// What one repetition produced.
pub enum Output {
    Fleet(FleetSummary),
    /// On-fractions, parameter-major (`[param][trace]`).
    Trace(Vec<Vec<f64>>),
}

/// Runs one repetition of `w`.
pub fn run_rep(w: Workload, fx: &Fixture, seed: u64) -> Output {
    match (w, fx) {
        (Workload::TraceSweep, Fixture::Traces(traces)) => Output::Trace(
            sweep_params(seed)
                .iter()
                .map(|p| simulate_corpus(traces, p))
                .collect(),
        ),
        (Workload::FleetSched, Fixture::Units(units)) => {
            let mut policy = ProportionalFair { alpha: 1.0 };
            let cfg = fleet_config(w, units, seed);
            Output::Fleet(
                run_fleet_with_scheduler(units, &cfg, &sched_config(), &mut policy)
                    .expect("valid scheduled fleet"),
            )
        }
        (_, Fixture::Units(units)) => {
            Output::Fleet(run_fleet(units, &fleet_config(w, units, seed)))
        }
        _ => panic!("fixture does not match workload {}", w.name()),
    }
}

/// Simulated slots in one repetition.
pub fn rep_slots(w: Workload, fx: &Fixture, seed: u64) -> u64 {
    match fx {
        Fixture::Traces(traces) => sweep_params(seed)
            .iter()
            .map(|p| traces.iter().map(|t| trace_slots(t, p) as u64).sum::<u64>())
            .sum(),
        Fixture::Units(units) => {
            let cfg = fleet_config(w, units, seed);
            let slot_s = EngineConfig::default().slot_s;
            cfg.n_sessions as u64 * (cfg.duration_s / slot_s).round() as u64
        }
    }
}

impl Output {
    /// Mean delivering-slot fraction: the fleet's mean up fraction (the
    /// scheduled availability under a scheduler), or the trace sweep's mean
    /// on-fraction.
    pub fn availability(&self) -> f64 {
        match self {
            Output::Fleet(s) => {
                let r = s.rollup();
                r.sched.map_or(r.mean_up_frac, |sr| sr.mean_availability)
            }
            Output::Trace(fr) => mean(fr.iter().flatten().copied()),
        }
    }

    /// Mean per-session goodput (served goodput under a scheduler). The
    /// trace sweep has no channel: its on-fraction at the 25G SFP's optimal
    /// goodput, the link its §5.4 parameters model.
    pub fn goodput_gbps(&self) -> f64 {
        match self {
            Output::Fleet(s) => {
                let r = s.rollup();
                let sum = r.sched.map_or(r.sum_goodput_gbps, |sr| sr.sum_served_gbps);
                sum / r.n_sessions as f64
            }
            Output::Trace(_) => self.availability() * SfpSpec::sfp28_lr().optimal_goodput_gbps,
        }
    }

    /// One hash per operation over its physics only: the same under any
    /// scheduling overlay and with telemetry on or off.
    pub fn physics_signatures(&self) -> Vec<u64> {
        match self {
            Output::Trace(_) => self.op_signatures(),
            Output::Fleet(s) => s.sessions.iter().map(physics_hash).collect(),
        }
    }

    /// One hash per operation, over every simulated output it reports.
    pub fn op_signatures(&self) -> Vec<u64> {
        match self {
            Output::Trace(fr) => fr.iter().flatten().map(|x| x.to_bits()).collect(),
            Output::Fleet(s) => s
                .sessions
                .iter()
                .map(|r| {
                    let mut h = Fnv(physics_hash(r));
                    if let Some(sc) = r.sched {
                        h.u64s(&[
                            sc.granted_slots,
                            sc.served_slots,
                            sc.denied_slots,
                            sc.retarget_slots,
                            sc.preempts,
                            sc.frames_generated,
                            sc.frames_played,
                        ]);
                        h.f64s(&[sc.availability, sc.delivered_gb, sc.stall_s]);
                    }
                    if let Some(t) = r.telemetry {
                        let e = t.events;
                        h.u64s(&[
                            e.slots,
                            e.tp_commands,
                            e.ctrl_sent,
                            e.sfp_downs,
                            e.handovers,
                        ]);
                    }
                    h.0
                })
                .collect(),
        }
    }
}

/// A hash of one fleet session's physics outcome: every field the slot
/// loop folds into its report, none of the scheduling overlay's.
pub fn physics_hash(r: &SessionReport) -> u64 {
    let mut h = Fnv::default();
    h.f64s(&[
        r.up_frac,
        r.signal_frac,
        r.mean_goodput_gbps,
        r.rf_frac,
        r.mean_power_dbm,
        r.stats.outage_s,
        r.stats.longest_outage_s,
        r.stats.rf_delivered_gb,
    ]);
    h.u64s(&[
        r.seed,
        r.slots as u64,
        r.handovers,
        r.tp_reports,
        r.tp_failures,
        r.stats.n_extrapolated,
        r.stats.n_reacq_steps,
        r.stats.n_outages,
        r.stats.rf.failovers,
        r.stats.rf.failbacks,
        r.stats.rf.rf_slots,
    ]);
    if let Some(c) = r.stats.control {
        h.u64s(&[
            c.sent,
            c.delivered,
            c.retransmits,
            c.channel_losses,
            c.dup_frames,
            c.stale_drops,
            c.acks_lost,
            c.gave_up,
        ]);
    }
    h.0
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (mut s, mut n) = (0.0, 0usize);
    for x in xs {
        s += x;
        n += 1;
    }
    s / n.max(1) as f64
}

/// FNV-1a over the bit patterns of numbers.
#[derive(Debug)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn u64s(&mut self, xs: &[u64]) {
        for x in xs {
            for b in x.to_le_bytes() {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    fn f64s(&mut self, xs: &[f64]) {
        for x in xs {
            self.u64s(&[x.to_bits()]);
        }
    }
}
