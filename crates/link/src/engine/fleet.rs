use super::{
    BestMargin, EngineConfig, EngineConfigError, EngineSlot, FallbackPolicy, FirstReport,
    LinkSession, Occluder, SessionStats, TxInstallation, TxSelector,
};
use crate::control::ControlPlaneConfig;
use crate::telemetry::{SessionTelemetry, Telemetry, TelemetryEvent};
use cyclops_geom::pose::Pose;
use cyclops_geom::vec3::Vec3;
use cyclops_vrh::motion::{ArbitraryMotion, ArbitraryMotionConfig, Motion};
use cyclops_vrh::tracking::TrackerConfig;

// ---------------------------------------------------------------------------
// Multi-session (fleet) workloads
// ---------------------------------------------------------------------------

/// Configuration of a multi-session workload: N independently-seeded
/// headsets, each served by its own clone of the M TX installations.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of concurrent sessions (headsets).
    pub n_sessions: usize,
    /// Duration of each session (seconds).
    pub duration_s: f64,
    /// Master seed; session `i` draws its motion and fault streams from
    /// `mix64(seed, 1 + i)` — independent per session, reproducible, and
    /// identical at any thread count.
    pub seed: u64,
    /// Hand-held motion model applied per session (seeded per session).
    pub motion: ArbitraryMotionConfig,
    /// Base pose each session starts from.
    pub base_pose: Pose,
    /// Control-plane template; each session re-keys the fault seed by its
    /// session stream.
    pub control: Option<ControlPlaneConfig>,
    /// Occluder templates; each session rebuilds them with per-session walk
    /// seeds.
    pub occluders: Vec<Occluder>,
    /// Handover debounce for multi-unit fleets (seconds).
    pub debounce_s: f64,
    /// The paper's §5.3 operator protocol: on a link loss the user pauses
    /// and resumes once the link is back. Without it a hand-held session
    /// rarely holds the signal through the multi-second SFP relink.
    pub pause_on_outage: bool,
    /// Attach per-session telemetry counters ([`Telemetry::counters`]) and
    /// roll them up in the [`FleetRollup`]. Off by default (telemetry is
    /// zero-cost when disabled).
    pub collect_telemetry: bool,
    /// Hybrid FSO/RF fallback applied to every session (default: off).
    pub fallback: FallbackPolicy,
    /// Tracker timing/noise model applied to every session (default: the
    /// Rift-S model, matching the pre-registry engine bit-exactly).
    pub tracker: TrackerConfig,
    /// Environment template applied to every session; each session re-keys
    /// the stage streams by its session seed. `None` = clean air.
    pub environment: Option<crate::channel::Environment>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            n_sessions: 8,
            duration_s: 2.0,
            seed: 1,
            motion: ArbitraryMotionConfig::default(),
            base_pose: Pose::translation(Vec3::new(0.0, 0.0, 1.75)),
            control: None,
            occluders: Vec::new(),
            debounce_s: 0.03,
            pause_on_outage: true,
            collect_telemetry: false,
            fallback: FallbackPolicy::Off,
            tracker: TrackerConfig::default(),
            environment: None,
        }
    }
}

impl FleetConfig {
    /// Checks the configuration: at least one session, a finite positive
    /// duration, a finite non-negative debounce, valid occluder templates
    /// and a valid per-session engine config. The fallible fleet drivers
    /// run this before any session starts.
    pub fn validate(&self) -> Result<(), EngineConfigError> {
        if self.n_sessions == 0 {
            return Err(EngineConfigError::InvalidFleet("n_sessions must be >= 1"));
        }
        if !(self.duration_s.is_finite() && self.duration_s > 0.0) {
            return Err(EngineConfigError::InvalidFleet(
                "duration_s must be finite and positive",
            ));
        }
        if !(self.debounce_s.is_finite() && self.debounce_s >= 0.0) {
            return Err(EngineConfigError::InvalidFleet(
                "debounce_s must be finite and non-negative",
            ));
        }
        for o in &self.occluders {
            o.validate()?;
        }
        // Pre-validate the per-session engine config the fleet driver will
        // assemble, so bad tracker/control templates fail here instead of
        // mid-fan-out.
        EngineConfig {
            tracker: self.tracker,
            control: self.control,
            ..EngineConfig::default()
        }
        .validate()
    }
}

/// Per-session outcome of a fleet run.
#[derive(Debug, Clone, Copy)]
pub struct SessionReport {
    /// Session index.
    pub session: usize,
    /// The session's derived seed.
    pub seed: u64,
    /// Slots simulated.
    pub slots: usize,
    /// Fraction of slots with the link up.
    pub up_frac: f64,
    /// Fraction of slots with received power above the SFP sensitivity —
    /// the paper's Fig. 14 "availability", which ignores the relink dead
    /// time that `up_frac` pays after every dip.
    pub signal_frac: f64,
    /// Mean goodput over the run (Gbps).
    pub mean_goodput_gbps: f64,
    /// Fraction of slots carried by the RF fallback (0 with the fallback
    /// off; counted toward `up_frac`).
    pub rf_frac: f64,
    /// Mean received power over the run (dBm).
    pub mean_power_dbm: f64,
    /// Handovers performed.
    pub handovers: u64,
    /// Fault-handling counters.
    pub stats: SessionStats,
    /// TP reports processed (across units).
    pub tp_reports: u64,
    /// TP pointing failures (across units).
    pub tp_failures: u64,
    /// Aggregated telemetry (`Some` iff [`FleetConfig::collect_telemetry`]).
    pub telemetry: Option<SessionTelemetry>,
    /// Scheduling/QoE accounting (`Some` iff the fleet ran through
    /// [`run_fleet_scheduled`](crate::sched::run_fleet_scheduled);
    /// `None` on the unscheduled private-clone path).
    pub sched: Option<crate::sched::SchedSessionStats>,
    /// Hardware-pool index this session ran on (`Some` iff the fleet ran
    /// through [`run_fleet_mixed`]; indexes the pool list passed there).
    pub profile: Option<u32>,
}

/// Fleet-level rollup of the per-session counters.
#[derive(Debug, Clone, Copy)]
pub struct FleetRollup {
    /// Sessions run.
    pub n_sessions: usize,
    /// Total slots simulated across the fleet.
    pub total_slots: usize,
    /// Mean of the per-session up fractions.
    pub mean_up_frac: f64,
    /// Mean of the per-session signal-availability fractions.
    pub mean_signal_frac: f64,
    /// Worst session's up fraction.
    pub min_up_frac: f64,
    /// Sum of the per-session mean goodputs (aggregate offered load, Gbps).
    pub sum_goodput_gbps: f64,
    /// Total handovers.
    pub total_handovers: u64,
    /// Total link-down episodes.
    pub total_outages: u64,
    /// Longest outage across the fleet (seconds).
    pub worst_outage_s: f64,
    /// Total dead-reckoned commands.
    pub total_extrapolated: u64,
    /// Total re-acquisition probes.
    pub total_reacq_steps: u64,
    /// Total control frames sent (0 when the fleet ran the legacy path).
    pub ctrl_sent: u64,
    /// Total control frames delivered.
    pub ctrl_delivered: u64,
    /// Total ARQ retransmissions.
    pub ctrl_retransmits: u64,
    /// Mean of the per-session RF-carried fractions.
    pub mean_rf_frac: f64,
    /// Total FSO → RF failovers across the fleet.
    pub total_failovers: u64,
    /// Total RF → FSO failbacks across the fleet.
    pub total_failbacks: u64,
    /// Total RF-carried slots across the fleet.
    pub total_rf_slots: u64,
    /// Total gigabits delivered over the RF fallback across the fleet.
    pub rf_delivered_gb: f64,
    /// Merged per-session telemetry (`Some` iff the fleet ran with
    /// [`FleetConfig::collect_telemetry`]).
    pub telemetry: Option<SessionTelemetry>,
    /// Scheduling/QoE rollup (`Some` iff the sessions carry scheduling
    /// accounting, i.e. the fleet ran through
    /// [`run_fleet_scheduled`](crate::sched::run_fleet_scheduled)).
    pub sched: Option<crate::sched::SchedRollup>,
}

/// Outcome of [`run_fleet`]: per-session reports (in session order) plus
/// the rollup.
#[derive(Debug, Clone)]
pub struct FleetSummary {
    /// Per-session reports, indexed by session.
    pub sessions: Vec<SessionReport>,
}

impl FleetSummary {
    /// Aggregates the per-session counters. Streams the reports through a
    /// [`FleetRollupAcc`] in session order, so the result is bit-identical
    /// to the historical single-fold implementation.
    pub fn rollup(&self) -> FleetRollup {
        let mut acc = FleetRollupAcc::new();
        for s in &self.sessions {
            acc.absorb(s);
        }
        acc.finish()
    }
}

/// Streaming accumulator behind [`FleetSummary::rollup`]: absorbs
/// [`SessionReport`]s one at a time, so a fleet rollup needs O(1) memory
/// instead of a materialized report vector.
///
/// Mean-valued [`FleetRollup`] fields are carried as running sums and only
/// divided in [`FleetRollupAcc::finish`], so `absorb`-in-session-order
/// reproduces the historical fold bit-for-bit.
#[derive(Debug, Clone)]
pub struct FleetRollupAcc {
    r: FleetRollup,
    n_sched: usize,
    avail_sum: f64,
    stall_frac_sum: f64,
    jain_sum: f64,
    jain_sum_sq: f64,
}

impl Default for FleetRollupAcc {
    fn default() -> Self {
        FleetRollupAcc::new()
    }
}

impl FleetRollupAcc {
    /// An empty accumulator.
    pub fn new() -> FleetRollupAcc {
        FleetRollupAcc {
            r: FleetRollup {
                n_sessions: 0,
                total_slots: 0,
                mean_up_frac: 0.0,
                mean_signal_frac: 0.0,
                min_up_frac: f64::INFINITY,
                sum_goodput_gbps: 0.0,
                total_handovers: 0,
                total_outages: 0,
                worst_outage_s: 0.0,
                total_extrapolated: 0,
                total_reacq_steps: 0,
                ctrl_sent: 0,
                ctrl_delivered: 0,
                ctrl_retransmits: 0,
                mean_rf_frac: 0.0,
                total_failovers: 0,
                total_failbacks: 0,
                total_rf_slots: 0,
                rf_delivered_gb: 0.0,
                telemetry: None,
                sched: None,
            },
            n_sched: 0,
            avail_sum: 0.0,
            stall_frac_sum: 0.0,
            jain_sum: 0.0,
            jain_sum_sq: 0.0,
        }
    }

    /// Folds one session report into the accumulator.
    pub fn absorb(&mut self, s: &SessionReport) {
        let r = &mut self.r;
        r.n_sessions += 1;
        r.total_slots += s.slots;
        r.mean_up_frac += s.up_frac;
        r.mean_signal_frac += s.signal_frac;
        r.min_up_frac = r.min_up_frac.min(s.up_frac);
        r.sum_goodput_gbps += s.mean_goodput_gbps;
        r.total_handovers += s.handovers;
        r.total_outages += s.stats.n_outages;
        r.worst_outage_s = r.worst_outage_s.max(s.stats.longest_outage_s);
        r.total_extrapolated += s.stats.n_extrapolated;
        r.total_reacq_steps += s.stats.n_reacq_steps;
        r.mean_rf_frac += s.rf_frac;
        r.total_failovers += s.stats.rf.failovers;
        r.total_failbacks += s.stats.rf.failbacks;
        r.total_rf_slots += s.stats.rf.rf_slots;
        r.rf_delivered_gb += s.stats.rf_delivered_gb;
        if let Some(c) = s.stats.control {
            r.ctrl_sent += c.sent;
            r.ctrl_delivered += c.delivered;
            r.ctrl_retransmits += c.retransmits;
        }
        if let Some(t) = s.telemetry.as_ref() {
            match r.telemetry.as_mut() {
                Some(acc) => acc.merge(t),
                None => r.telemetry = Some(*t),
            }
        }
        if let Some(sc) = s.sched {
            let sr = r.sched.get_or_insert_with(|| crate::sched::SchedRollup {
                min_availability: f64::INFINITY,
                ..Default::default()
            });
            sr.n_admitted += sc.admitted as usize;
            sr.total_granted += sc.granted_slots;
            sr.total_served += sc.served_slots;
            sr.total_denied += sc.denied_slots;
            sr.total_preempts += sc.preempts;
            sr.min_availability = sr.min_availability.min(sc.availability);
            sr.sum_served_gbps += sc.mean_served_gbps;
            sr.worst_stall_s = sr.worst_stall_s.max(sc.stall_s);
            sr.total_stall_events += sc.stall_events;
            sr.total_frames_played += sc.frames_played;
            self.n_sched += 1;
            self.avail_sum += sc.availability;
            self.stall_frac_sum += sc.stall_frac;
            if sc.admitted {
                self.jain_sum += sc.mean_served_gbps;
                self.jain_sum_sq += sc.mean_served_gbps * sc.mean_served_gbps;
            }
        }
    }

    /// Finalizes the rollup: divides the running sums into means and
    /// computes the Jain fairness index over the admitted sessions.
    pub fn finish(mut self) -> FleetRollup {
        let n = self.r.n_sessions;
        if n > 0 {
            self.r.mean_up_frac /= n as f64;
            self.r.mean_signal_frac /= n as f64;
            self.r.mean_rf_frac /= n as f64;
        } else {
            self.r.min_up_frac = 0.0;
        }
        if let Some(sr) = self.r.sched.as_mut() {
            let ns = self.n_sched.max(1) as f64;
            sr.mean_availability = self.avail_sum / ns;
            sr.mean_stall_frac = self.stall_frac_sum / ns;
            sr.fairness_jain = if self.jain_sum_sq > 0.0 {
                (self.jain_sum * self.jain_sum) / (sr.n_admitted.max(1) as f64 * self.jain_sum_sq)
            } else {
                1.0
            };
        }
        self.r
    }
}

/// The concrete session type fleet drivers run.
pub(crate) type FleetSession = LinkSession<ArbitraryMotion, BestMargin>;

/// Builds fleet session `i` against a private clone of `units` — the one
/// constructor shared by [`run_fleet`] and the scheduled driver
/// ([`crate::sched::run_fleet_scheduled`]), so both paths derive the same
/// per-session seed, motion, fault, and occluder streams and their physics
/// timelines are bit-identical. Emits the `SessionStart` telemetry event.
/// Returns the session and its derived seed.
pub(crate) fn build_fleet_session(
    units: &[TxInstallation],
    cfg: &FleetConfig,
    i: usize,
) -> (FleetSession, u64) {
    let seed = cyclops_par::mix64(cfg.seed, 1 + i as u64);
    let motion = ArbitraryMotion::new(cfg.base_pose, cfg.motion, seed);
    let mut control = cfg.control;
    if let Some(c) = control.as_mut() {
        c.fault.seed = cyclops_par::mix64(c.fault.seed, 1 + i as u64);
    }
    let occluders: Vec<Occluder> = cfg
        .occluders
        .iter()
        .enumerate()
        .map(|(j, o)| {
            Occluder::new(
                o.center,
                o.radius,
                o.speed,
                cyclops_par::mix64(seed, 0x0cc1 + j as u64),
            )
        })
        .collect();
    // No fleet report reads the per-slot speeds, so they are not tracked.
    let ecfg = EngineConfig {
        control,
        los_gating: !occluders.is_empty(),
        pause_on_outage: cfg.pause_on_outage,
        fallback: cfg.fallback,
        tracker: cfg.tracker,
        track_speeds: false,
        ..EngineConfig::default()
    };
    let selector = BestMargin::new(units[0].dep.design, cfg.debounce_s);
    let telemetry = if cfg.collect_telemetry {
        Telemetry::counters()
    } else {
        Telemetry::off()
    };
    let mut builder = LinkSession::builder(motion)
        .units(units.to_vec())
        .occluders(occluders)
        .selector(selector)
        .config(ecfg)
        .telemetry(telemetry)
        .first_report(FirstReport::AtZero);
    if let Some(env) = &cfg.environment {
        // Re-key every stage stream by the session seed so fleet sessions
        // see independent scintillation/occluder draws.
        builder = builder.environment(env.reseeded(seed));
    }
    let mut session = builder.build().expect("fleet engine config must be valid");
    if cfg.collect_telemetry {
        session.telemetry_mut().emit(&TelemetryEvent::SessionStart {
            session: i as u64,
            seed,
        });
    }
    (session, seed)
}

/// Streaming per-slot sums a fleet session folds into its report — shared
/// by [`run_fleet`]'s internal fold and the scheduled driver so the
/// derived [`SessionReport`] fields are computed identically on both paths
/// (counts and running sums; no duration-proportional buffering).
pub(crate) struct SlotSums {
    pub(crate) slots: usize,
    n_up: usize,
    n_sig: usize,
    n_rf: usize,
    goodput_sum: f64,
    power_sum: f64,
}

impl SlotSums {
    pub(crate) fn new() -> SlotSums {
        SlotSums {
            slots: 0,
            n_up: 0,
            n_sig: 0,
            n_rf: 0,
            goodput_sum: 0.0,
            power_sum: 0.0,
        }
    }

    pub(crate) fn absorb(&mut self, r: &EngineSlot, sens_dbm: f64) {
        self.slots += 1;
        self.n_up += r.link_up as usize;
        self.n_sig += (r.power_dbm >= sens_dbm) as usize;
        self.n_rf += r.rf_active as usize;
        self.goodput_sum += r.goodput_gbps;
        self.power_sum += r.power_dbm;
    }

    pub(crate) fn report<M: Motion, S: TxSelector>(
        &self,
        i: usize,
        seed: u64,
        session: &LinkSession<M, S>,
    ) -> SessionReport {
        let n = self.slots.max(1) as f64;
        let tp = session.tp_metrics();
        SessionReport {
            session: i,
            seed,
            slots: self.slots,
            up_frac: self.n_up as f64 / n,
            signal_frac: self.n_sig as f64 / n,
            mean_goodput_gbps: self.goodput_sum / n,
            rf_frac: self.n_rf as f64 / n,
            mean_power_dbm: self.power_sum / n,
            handovers: session.n_handovers(),
            stats: session.session_stats(),
            tp_reports: tp.n_reports,
            tp_failures: tp.n_failures,
            telemetry: session.telemetry().copied(),
            sched: None,
            profile: None,
        }
    }
}

/// Runs one fleet session (index `i`) against a private clone of `units`.
fn run_fleet_session(units: &[TxInstallation], cfg: &FleetConfig, i: usize) -> SessionReport {
    let (mut session, seed) = build_fleet_session(units, cfg, i);
    let sens = units[0].dep.design.sfp.rx_sensitivity_dbm;
    let mut sums = SlotSums::new();
    session.run_each(cfg.duration_s, |r| sums.absorb(&r, sens));
    if cfg.collect_telemetry {
        session.telemetry_mut().emit(&TelemetryEvent::SessionEnd {
            session: i as u64,
            slots: sums.slots as u64,
        });
    }
    sums.report(i, seed, &session)
}

/// Runs `cfg.n_sessions` independently-seeded sessions, each against its
/// own clone of `units`, and collects the reports in session-index order.
///
/// Sessions are independent, so they run on worker threads and are
/// collected in index order — bit-identical to the serial loop at any
/// thread count.
pub fn run_fleet(units: &[TxInstallation], cfg: &FleetConfig) -> FleetSummary {
    let sessions =
        cyclops_par::par_map_indexed(cfg.n_sessions, 1, |i| run_fleet_session(units, cfg, i));
    FleetSummary { sessions }
}

// ---------------------------------------------------------------------------
// Heterogeneous (mixed-hardware) fleets
// ---------------------------------------------------------------------------

/// One hardware pool of a mixed fleet: the TX installations plus the
/// tracker model of the headset class served by them. Build from a
/// registry profile ([`crate::registry::HardwareProfile`]) or by hand.
#[derive(Debug, Clone)]
pub struct FleetPool {
    /// Display label (e.g. the profile's `"25g-lr/galvo-fast/quest"`).
    pub label: String,
    /// The TX installations sessions of this pool run against.
    pub units: Vec<TxInstallation>,
    /// The tracker model of this pool's headset class.
    pub tracker: TrackerConfig,
}

/// Runs a mixed-hardware fleet: session `i` runs on pool `i % pools.len()`
/// with the shared [`FleetConfig`] template (seeds, motion, faults,
/// occluders, environment are all derived exactly as in [`run_fleet`], from
/// the global session index — so pool membership never perturbs another
/// session's streams). Each report is stamped with its pool index for
/// per-profile accounting ([`FleetSummary::profile_rollups`]).
pub fn run_fleet_mixed(
    pools: &[FleetPool],
    cfg: &FleetConfig,
) -> Result<FleetSummary, EngineConfigError> {
    if pools.is_empty() {
        return Err(EngineConfigError::InvalidFleet(
            "mixed fleet needs at least one pool",
        ));
    }
    cfg.validate()?;
    for p in pools {
        if p.units.is_empty() {
            return Err(EngineConfigError::NoUnits);
        }
    }
    // Per-pool config clones up front: the only field that varies is the
    // tracker; everything seed-bearing stays on the shared template.
    let cfgs: Vec<FleetConfig> = pools
        .iter()
        .map(|p| FleetConfig {
            tracker: p.tracker,
            ..cfg.clone()
        })
        .collect();
    let sessions = cyclops_par::par_map_indexed(cfg.n_sessions, 1, |i| {
        let pool = i % pools.len();
        let mut r = run_fleet_session(&pools[pool].units, &cfgs[pool], i);
        r.profile = Some(pool as u32);
        r
    });
    Ok(FleetSummary { sessions })
}

impl FleetSummary {
    /// Per-profile rollups of a mixed fleet: one `(pool index, rollup)` per
    /// pool that ran at least one session, in pool order. Sessions without
    /// a profile stamp (a homogeneous [`run_fleet`]) are skipped.
    pub fn profile_rollups(&self) -> Vec<(u32, FleetRollup)> {
        let mut pools: Vec<u32> = self.sessions.iter().filter_map(|s| s.profile).collect();
        pools.sort_unstable();
        pools.dedup();
        pools
            .into_iter()
            .map(|p| {
                let mut acc = FleetRollupAcc::new();
                for s in self.sessions.iter().filter(|s| s.profile == Some(p)) {
                    acc.absorb(s);
                }
                (p, acc.finish())
            })
            .collect()
    }
}
