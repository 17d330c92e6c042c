use super::{
    fold_slots, ChannelModel, CommandTiming, EngineConfig, EngineConfigError, FallbackPolicy,
    FirstReport, LinkPolicy, Occluder, PoseTiming, RfFallback, RfStats, SelectCtx, SingleTx,
    SlotSession, TxSelector,
};
use crate::channel::FsoChannel;
use crate::control::{ControlLink, ControlPlaneConfig, ControlStats};
use crate::sfp_state::SfpLinkState;
use crate::telemetry::{
    CommandSource, DropReason, SessionTelemetry, Telemetry, TelemetryEvent, TelemetrySink,
};
use cyclops_core::deployment::Deployment;
use cyclops_core::mapping::noisy_report_of;
use cyclops_core::pointing::ReacqSpiral;
use cyclops_core::tp::{TpCommand, TpController, TpMetrics};
use cyclops_geom::pose::Pose;
use cyclops_geom::vec3::Vec3;
use cyclops_vrh::motion::{extrapolate_pose, Motion};
use cyclops_vrh::speeds::pose_speeds;
use cyclops_vrh::tracking::TrackerConfig;
use rand::Rng;
use std::collections::VecDeque;

// ---------------------------------------------------------------------------
// Components: control plane, TP policy
// ---------------------------------------------------------------------------

/// How reports travel from the VRH tracker to the TP: either the perfect
/// channel (reports act instantly, losses drawn i.i.d. from the deployment
/// RNG by the session) or the PR 2 ARQ/fault stack ([`ControlLink`]).
#[derive(Debug)]
pub struct ControlPlane {
    /// The faulty/ARQ link; `None` = perfect channel.
    link: Option<ControlLink<(f64, Pose)>>,
}

impl ControlPlane {
    /// Builds the plane from the optional config; `latency_s` is the base
    /// control-channel latency carried by every frame.
    pub fn new(cfg: Option<ControlPlaneConfig>, latency_s: f64) -> ControlPlane {
        ControlPlane {
            link: cfg.map(|cp| ControlLink::new(cp.fault, cp.arq, latency_s)),
        }
    }

    /// Whether the faulty/ARQ stack is active (vs the perfect channel).
    pub fn is_faulty(&self) -> bool {
        self.link.is_some()
    }

    /// Channel counters, when the faulty stack is active.
    pub fn stats(&self) -> Option<ControlStats> {
        self.link.as_ref().map(|l| l.stats())
    }
}

/// What the TP does with reports: the scheduled-command queue, the
/// dead-reckoning state (recent deliveries + velocity anchor), and the
/// re-acquisition spiral. One instance per session.
#[derive(Debug, Default)]
pub struct TpPolicy {
    /// Commands awaiting their apply time `(when, voltages)`.
    pub(super) pending: VecDeque<(f64, [f64; 4])>,
    /// Recent delivered reports `(t_sample, pose)`, newest at the back,
    /// feeding the dead-reckoning velocity estimate. The velocity anchor is
    /// the newest entry at least `min_baseline_s` older than the latest, so
    /// tracker noise isn't amplified by differencing two near-coincident
    /// samples.
    pub(super) deliveries: VecDeque<(f64, Pose)>,
    /// Arrival time of the last delivered report (staleness clock).
    pub(super) last_delivery_arrival: Option<f64>,
    pub(super) last_dr_t: f64,
    /// Re-acquisition search state.
    pub(super) spiral: Option<ReacqSpiral>,
    pub(super) spiral_exhausted: bool,
    pub(super) signal_lost_since: Option<f64>,
}

/// What [`TpPolicy::reacq`] did this slot (telemetry only — the spiral's
/// effect on the deployment happens inside the call).
#[derive(Debug, Clone, Copy, Default)]
struct ReacqActivity {
    /// A spiral was created this slot.
    started: bool,
    /// A voltage probe was taken this slot.
    probed: bool,
    /// The spiral ended this slot: `Some(true)` recovered solid signal,
    /// `Some(false)` exhausted the probe budget.
    ended: Option<bool>,
}

impl TpPolicy {
    /// Applies every command whose time has come, in order (at high
    /// tracking rates a command can still be in the DAC pipeline when the
    /// next report arrives). Returns how many were applied.
    fn apply_due(&mut self, t_slot: f64, dep: &mut Deployment) -> u64 {
        let mut n = 0;
        while let Some(&(when, v)) = self.pending.front() {
            if when > t_slot {
                break;
            }
            dep.set_voltages(v[0], v[1], v[2], v[3]);
            self.pending.pop_front();
            n += 1;
        }
        n
    }

    /// Records a control-plane delivery into the dead-reckoning window.
    fn on_delivery(&mut self, t_arr: f64, t_sample: f64, pose: Pose) {
        self.deliveries.push_back((t_sample, pose));
        if self.deliveries.len() > 64 {
            self.deliveries.pop_front();
        }
        self.last_delivery_arrival = Some(t_arr);
    }

    /// Dead reckoning: while reports are stale but the velocity estimate
    /// is still fresh, returns the constant-velocity pose prediction at
    /// `t_slot` for the session to steer on.
    fn dead_reckon(
        &mut self,
        t_slot: f64,
        dr: crate::control::DeadReckoningConfig,
    ) -> Option<Pose> {
        let &(t1, p1) = self.deliveries.back()?;
        let arr = self.last_delivery_arrival?;
        // Velocity anchor: the newest delivery at least `min_baseline_s`
        // older than the latest (falling back to the oldest we kept).
        let &(t0, p0) = self
            .deliveries
            .iter()
            .rev()
            .find(|(t, _)| t1 - t >= dr.min_baseline_s)
            .or(self.deliveries.front())?;
        let due = t0 < t1
            && t_slot - arr > dr.stale_after_s
            && t_slot - t1 <= dr.max_horizon_s
            && t_slot - self.last_dr_t >= dr.interval_s;
        if !due {
            return None;
        }
        self.last_dr_t = t_slot;
        Some(extrapolate_pose(&p0, t0, &p1, t1, t_slot))
    }

    /// The re-acquisition spiral: probes voltages around the last aim when
    /// the beam is lost and tracking can't help. May re-evaluate the slot's
    /// `power` and `signal` in place. Returns what happened, for telemetry.
    fn reacq(
        &mut self,
        st: &mut SlotState,
        rq: crate::control::ReacqConfig,
        period_max_s: f64,
        unit: &mut TxInstallation,
        channel: &ChannelModel,
    ) -> ReacqActivity {
        let t_slot = st.t;
        let mut act = ReacqActivity::default();
        // The search only rests on *solid* signal: a point at the bare
        // sensitivity edge flickers under drift, resetting the SFP hold
        // timer forever.
        let solid = st.power >= channel.sensitivity_dbm + rq.success_margin_db;
        if (st.signal && solid) || st.flap_forced {
            // Solid signal (or the outage is the SFP's, not the beam's): no
            // search.
            self.signal_lost_since = None;
            if self.spiral.take().is_some() {
                act.ended = Some(true);
            }
            self.spiral_exhausted = false;
        } else {
            let since = *self.signal_lost_since.get_or_insert(t_slot);
            // Only search when tracking can't help: reports stale for 2+
            // periods (else the TP already points better than a blind probe
            // would).
            let reports_stale = self
                .last_delivery_arrival
                .map_or(true, |arr| t_slot - arr > 2.0 * period_max_s);
            if !self.spiral_exhausted && reports_stale && t_slot - since >= rq.trigger_after_s {
                let v = unit.dep.voltages();
                act.started = self.spiral.is_none();
                let sp = self.spiral.get_or_insert_with(|| {
                    ReacqSpiral::new([v.0, v.1, v.2, v.3], rq.step_v, rq.max_steps)
                });
                match sp.next_voltages() {
                    Some(nv) => {
                        act.probed = true;
                        unit.dep.set_voltages(nv[0], nv[1], nv[2], nv[3]);
                        unit.ctl.note_reacq_step();
                        // Probe through the same environment the slot saw:
                        // fog doesn't clear because the mirror moved.
                        st.power = unit.dep.received_power_dbm() - st.env_att_db;
                        st.signal = st.power >= channel.sensitivity_dbm;
                        if st.power >= channel.sensitivity_dbm + rq.success_margin_db {
                            self.signal_lost_since = None;
                            self.spiral = None;
                            act.ended = Some(true);
                        }
                    }
                    None => {
                        // Budget exhausted: restore the center and wait for
                        // tracking after all.
                        let c = sp.center();
                        unit.dep.set_voltages(c[0], c[1], c[2], c[3]);
                        self.spiral = None;
                        self.spiral_exhausted = true;
                        act.ended = Some(false);
                    }
                }
            }
        }
        act
    }

    /// Drops in-flight state that belonged to the previous active unit —
    /// its command queue, delivery window, staleness clock and search state
    /// are meaningless on the new unit's mapping. The policy restarts from
    /// scratch on the new unit; in particular an exhausted spiral budget on
    /// the old unit must not forbid searching on the new one.
    pub(super) fn clear_inflight(&mut self) {
        self.pending.clear();
        self.deliveries.clear();
        self.last_delivery_arrival = None;
        self.last_dr_t = 0.0;
        self.spiral = None;
        self.spiral_exhausted = false;
        self.signal_lost_since = None;
    }
}

// ---------------------------------------------------------------------------
// The full-physics session
// ---------------------------------------------------------------------------

/// One ceiling unit: its world (with its TX) plus its trained controller.
#[derive(Debug, Clone)]
pub struct TxInstallation {
    /// The unit's deployment (shares the headset world with its siblings).
    pub dep: Deployment,
    /// The unit's trained TP controller.
    pub ctl: TpController,
}

/// Per-session fault-handling counters (ARQ retries, dead reckoning,
/// re-acquisition, outage durations).
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionStats {
    /// Control-channel counters (`None` when the legacy path ran).
    pub control: Option<ControlStats>,
    /// Dead-reckoned commands issued from extrapolated poses.
    pub n_extrapolated: u64,
    /// Re-acquisition spiral probes taken.
    pub n_reacq_steps: u64,
    /// Link-down episodes entered.
    pub n_outages: u64,
    /// Total link-down time (seconds).
    pub outage_s: f64,
    /// Longest single link-down episode (seconds).
    pub longest_outage_s: f64,
    /// RF-fallback counters (all zero with [`FallbackPolicy::Off`]).
    pub rf: RfStats,
    /// Data delivered over the RF fallback (gigabits: Σ rate · slot).
    pub rf_delivered_gb: f64,
}

/// Per-slot record of a [`LinkSession`] — the union of every wrapper's
/// record fields (wrappers project it onto their public record types).
///
/// Layout audit: with the default (compiler-chosen) repr the three `bool`s
/// pack into the trailing word next to `active`, giving 56 bytes — five
/// doubles, one `usize`, and one flag word. A run's record vector is the
/// engine's dominant allocation, so the size is pinned by a compile-time
/// assert below; widening this struct is a deliberate decision, not drift.
#[derive(Debug, Clone, Copy)]
pub struct EngineSlot {
    /// Slot end time (seconds).
    pub t: f64,
    /// Index of the active unit (after any handover this slot).
    pub active: usize,
    /// Whether the active unit had line of sight this slot (always true
    /// without LOS gating).
    pub los: bool,
    /// Received optical power on the active unit (dBm).
    pub power_dbm: f64,
    /// Whether the link delivers data this slot: the SFP is up, or — with
    /// [`FallbackPolicy::RfOnOutage`] — the RF fallback carries traffic.
    /// With the fallback off this is exactly "the SFP is up".
    pub link_up: bool,
    /// Whether the RF fallback carried this slot's traffic (always false
    /// with [`FallbackPolicy::Off`]).
    pub rf_active: bool,
    /// Goodput delivered this slot (Gbps; 0 when not accounted). RF-carried
    /// slots report the RF ladder rate.
    pub goodput_gbps: f64,
    /// True linear speed over the slot (m/s; 0 when not tracked).
    pub lin_speed: f64,
    /// True angular speed over the slot (rad/s; 0 when not tracked).
    pub ang_speed: f64,
}

// 5 × f64 + usize + 3 packed bools, padded to 8-byte alignment.
const _: () = assert!(std::mem::size_of::<EngineSlot>() == 56);
const _: () = assert!(std::mem::align_of::<EngineSlot>() == 8);

/// One of the paper's 50 ms measurement windows (§5.3's iperf methodology).
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Mean linear speed (m/s).
    pub lin: f64,
    /// Mean angular speed (rad/s).
    pub ang: f64,
    /// Mean goodput (Gbps).
    pub goodput: f64,
    /// Minimum received power (dBm).
    pub min_power: f64,
    /// Fraction of slots with the link up.
    pub up_frac: f64,
    /// Fraction of slots where optical signal was present but the SFP was
    /// still re-locking — the §5.3 "takes a few seconds to regain the link"
    /// deadtime, which the paper's plots show as recovery gaps.
    pub relink_frac: f64,
}

/// Aggregates engine slots into the paper's 50 ms windows.
///
/// An empty slot list yields no windows, and a trailing partial window
/// (fewer than 50 ms of slots) is dropped rather than averaged over a
/// shorter denominator — both pinned by unit tests.
pub fn windows_50ms(slots: &[EngineSlot], slot_s: f64, sensitivity_dbm: f64) -> Vec<Window> {
    assert!(
        slot_s > 0.0 && slot_s <= 0.050,
        "slots must fit inside the 50 ms window"
    );
    let per = (0.050 / slot_s).round() as usize;
    slots
        .chunks(per)
        .filter(|c| c.len() == per)
        .map(|c| {
            let n = c.len() as f64;
            let lin = c.iter().map(|r| r.lin_speed).sum::<f64>() / n;
            let ang = c.iter().map(|r| r.ang_speed).sum::<f64>() / n;
            let tp = c.iter().map(|r| r.goodput_gbps).sum::<f64>() / n;
            let pmin = c.iter().map(|r| r.power_dbm).fold(f64::INFINITY, f64::min);
            let up = c.iter().filter(|r| r.link_up).count() as f64 / n;
            let relink = c
                .iter()
                .filter(|r| !r.link_up && r.power_dbm >= sensitivity_dbm)
                .count() as f64
                / n;
            Window {
                lin,
                ang,
                goodput: tp,
                min_power: pmin,
                up_frac: up,
                relink_frac: relink,
            }
        })
        .collect()
}

/// The full-physics slot session: motion × tracking × TP × optics × data
/// plane against one or more TX installations. Every behavioral axis —
/// command timing, pose timing, control plane, LOS gating, TX selection —
/// is a configuration, so the single-TX simulator, the multi-TX handover
/// simulator and the fleet workloads are all this one type.
#[derive(Debug)]
pub struct LinkSession<M: Motion, S: TxSelector> {
    units: Vec<TxInstallation>,
    motion: M,
    occluders: Vec<Occluder>,
    selector: S,
    cfg: EngineConfig,
    channel: ChannelModel,
    /// Hot-path frame-success evaluator, bit-identical to `channel`.
    fsp: crate::channel::FrameSuccessCache,
    control: ControlPlane,
    tp: TpPolicy,
    sfp: SfpLinkState,
    active: usize,
    next_report_t: f64,
    t: f64,
    /// Motion-clock time (lags `t` when pause_on_outage freezes motion).
    motion_t: f64,
    /// Accumulated tracker random-walk drift (applied to report positions
    /// when `tracker.drift_sigma_per_sqrt_s` is set).
    drift: Vec3,
    last_report_t: f64,
    prev_pose: Pose,
    /// Cached TX aperture positions (ceiling units do not move).
    tx_positions: Vec<Vec3>,
    n_handovers: u64,
    /// Outage accounting.
    n_outages: u64,
    outage_s: f64,
    cur_outage_s: f64,
    longest_outage_s: f64,
    /// RF fallback attachment (`None` iff [`FallbackPolicy::Off`], which
    /// keeps the data plane on the pre-fallback fast path).
    rf: Option<RfFallback>,
    /// Slots carried by the RF fallback.
    rf_slots: u64,
    /// Gigabits delivered over the RF fallback (Σ rate · slot).
    rf_delivered_gb: f64,
    /// Composable environment attachment (`None` = clean air, which keeps
    /// the power path bit-identical to the pre-environment engine).
    env: Option<crate::channel::Environment>,
    /// Telemetry attachment (observers only; never feeds the simulation).
    tele: Telemetry,
    /// Control-stats snapshot at the end of the previous slot, for
    /// synthesizing per-slot retransmit/drop deltas.
    prev_ctrl: ControlStats,
    /// Slot end time of the last SFP down-transition (the open outage).
    outage_start: Option<f64>,
    /// Global slot index across `run` calls (telemetry event numbering).
    slot_idx: u64,
}

impl<M: Motion> LinkSession<M, SingleTx> {
    /// Starts building a session over `motion` (see [`SessionBuilder`]).
    /// The builder starts with the single-TX profile ([`SingleTx`] selector,
    /// `EngineConfig::default()`); add units, a selector, a config and
    /// telemetry, then [`SessionBuilder::build`].
    pub fn builder(motion: M) -> SessionBuilder<M, SingleTx> {
        SessionBuilder {
            units: Vec::new(),
            motion,
            occluders: Vec::new(),
            selector: SingleTx,
            cfg: EngineConfig::default(),
            telemetry: Telemetry::off(),
            first_report: None,
            environment: None,
        }
    }
}

impl<M: Motion, S: TxSelector> LinkSession<M, S> {
    /// The one true constructor, behind [`SessionBuilder::build`] (which
    /// has already validated `b`, so it holds at least one unit). The RNG
    /// draw order here is part of the determinism contract: one
    /// `noisy_report_of` on unit 0's deployment RNG for the pre-start
    /// alignment, then (for [`FirstReport::AfterPeriod`] only) one
    /// `draw_period` on the same RNG.
    fn assemble(b: SessionBuilder<M, S>) -> Self {
        let SessionBuilder {
            mut units,
            mut motion,
            occluders,
            selector,
            cfg,
            telemetry,
            first_report,
            environment: env,
        } = b;
        let relink = units[0].dep.design.sfp.relink_time_s;
        let pose0 = motion.pose_at(0.0);
        for u in units.iter_mut() {
            u.dep.set_headset_pose(pose0);
        }
        // Align unit 0 against the initial pose, before time zero.
        let clean = units[0].dep.headset.true_reported_pose();
        let rep = noisy_report_of(clean, &cfg.tracker, units[0].dep.rng());
        let [v0, v1, v2, v3] = units[0].ctl.on_report(&rep).voltages;
        units[0].dep.set_voltages(v0, v1, v2, v3);
        let channel = FsoChannel::new(
            units[0].dep.design.sfp.rx_sensitivity_dbm,
            units[0].dep.design.sfp.rx_overload_dbm,
        );
        let first_report = first_report.unwrap_or(if units.len() == 1 {
            FirstReport::AfterPeriod
        } else {
            FirstReport::AtZero
        });
        let next_report_t = match first_report {
            FirstReport::AfterPeriod => cfg.tracker.draw_period(units[0].dep.rng()),
            FirstReport::AtZero => 0.0,
        };
        let control = ControlPlane::new(cfg.control, cfg.tracker.control_channel_latency_s);
        let tx_positions = units.iter().map(|u| u.dep.tx_world_params().q2).collect();
        let fsp = crate::channel::FrameSuccessCache::new(channel, cfg.frame_bits);
        LinkSession {
            units,
            motion,
            occluders,
            selector,
            cfg,
            channel,
            fsp,
            control,
            tp: TpPolicy::default(),
            sfp: SfpLinkState::new_up(relink),
            active: 0,
            next_report_t,
            t: 0.0,
            motion_t: 0.0,
            drift: Vec3::ZERO,
            last_report_t: 0.0,
            prev_pose: Pose::IDENTITY,
            tx_positions,
            n_handovers: 0,
            n_outages: 0,
            outage_s: 0.0,
            cur_outage_s: 0.0,
            longest_outage_s: 0.0,
            rf: match cfg.fallback {
                FallbackPolicy::Off => None,
                FallbackPolicy::RfOnOutage => Some(RfFallback::default()),
            },
            rf_slots: 0,
            rf_delivered_gb: 0.0,
            env,
            tele: telemetry,
            prev_ctrl: ControlStats::default(),
            outage_start: None,
            slot_idx: 0,
        }
    }

    /// The installed units.
    pub fn units(&self) -> &[TxInstallation] {
        &self.units
    }

    /// Mutable access to the installed units.
    pub fn units_mut(&mut self) -> &mut [TxInstallation] {
        &mut self.units
    }

    /// The motion source.
    pub fn motion_mut(&mut self) -> &mut M {
        &mut self.motion
    }

    /// The occluders.
    pub fn occluders_mut(&mut self) -> &mut [Occluder] {
        &mut self.occluders
    }

    /// The TX selector.
    pub fn selector_mut(&mut self) -> &mut S {
        &mut self.selector
    }

    /// The session configuration.
    pub fn cfg(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Mutable access to the session configuration. Note the control-plane
    /// stack is built at construction; changing `cfg.control` afterwards
    /// only affects the DR/re-acquisition/flap policies, not the channel.
    pub fn cfg_mut(&mut self) -> &mut EngineConfig {
        &mut self.cfg
    }

    /// Index of the currently active unit.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Handovers performed so far.
    pub fn n_handovers(&self) -> u64 {
        self.n_handovers
    }

    /// The session's aggregated telemetry, when counter aggregation was
    /// enabled at construction ([`Telemetry::counters`]).
    pub fn telemetry(&self) -> Option<&SessionTelemetry> {
        self.tele.counters_ref()
    }

    /// Mutable access to the telemetry attachment (e.g. to emit
    /// fleet-level events, flush, or recover an in-memory sink).
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.tele
    }

    fn unit_los(&self, i: usize, rx_pos: Vec3) -> bool {
        let tx_pos = self.tx_positions[i];
        !self.occluders.iter().any(|o| o.blocks(tx_pos, rx_pos))
    }

    /// Runs for `duration_s`, returning one record per slot. Flushes the
    /// telemetry sink (if any) at the end of the run.
    pub fn run(&mut self, duration_s: f64) -> Vec<EngineSlot> {
        let mut recs = Vec::new();
        self.run_each(duration_s, |r| recs.push(r));
        recs
    }

    /// Streaming form of [`LinkSession::run`]: hands each [`EngineSlot`] to
    /// `f` in slot order without materializing the per-slot vector — the
    /// same slot loop, so the record stream is identical. Flushes the
    /// telemetry sink (if any) at the end.
    pub fn run_each(&mut self, duration_s: f64, f: impl FnMut(EngineSlot)) {
        let n_slots = (duration_s / self.cfg.slot_s).round() as usize;
        if self.cfg.track_speeds {
            self.prev_pose = self.motion.pose_at(self.motion_t);
        }
        fold_slots(self, n_slots, f);
        self.tele.flush();
    }

    /// Prologue of [`LinkSession::run_each`] for external slot drivers
    /// (the scheduled fleet steps sessions in lockstep through
    /// [`SlotSession::step_slot`]): primes the speed-tracking pose.
    pub(crate) fn begin_external_run(&mut self) {
        if self.cfg.track_speeds {
            self.prev_pose = self.motion.pose_at(self.motion_t);
        }
    }

    /// Epilogue of [`LinkSession::run_each`] for external slot drivers:
    /// flushes the telemetry sink.
    pub(crate) fn end_external_run(&mut self) {
        self.tele.flush();
    }

    /// Fault-handling counters accumulated across all [`LinkSession::run`]
    /// calls: control-channel stats, dead-reckoning and re-acquisition
    /// activity, and outage durations.
    pub fn session_stats(&self) -> SessionStats {
        SessionStats {
            control: self.control.stats(),
            n_extrapolated: self
                .units
                .iter()
                .map(|u| u.ctl.metrics.n_extrapolated)
                .sum(),
            n_reacq_steps: self.units.iter().map(|u| u.ctl.metrics.n_reacq_steps).sum(),
            n_outages: self.n_outages,
            outage_s: self.outage_s,
            longest_outage_s: self.longest_outage_s,
            rf: RfStats {
                failovers: self.rf.as_ref().map_or(0, |r| r.policy.n_failovers()),
                failbacks: self.rf.as_ref().map_or(0, |r| r.policy.n_failbacks()),
                rf_slots: self.rf_slots,
            },
            rf_delivered_gb: self.rf_delivered_gb,
        }
    }

    /// The RF failover machine, when the fallback is enabled.
    pub fn rf_policy(&self) -> Option<&LinkPolicy> {
        self.rf.as_ref().map(|r| &r.policy)
    }

    /// TP metrics merged across all units.
    pub fn tp_metrics(&self) -> TpMetrics {
        let mut m = TpMetrics::default();
        for u in &self.units {
            let um = &u.ctl.metrics;
            m.n_reports += um.n_reports;
            m.n_failures += um.n_failures;
            m.sum_iters += um.sum_iters;
            m.max_iters = m.max_iters.max(um.max_iters);
            m.sum_latency_s += um.sum_latency_s;
            m.max_latency_s = m.max_latency_s.max(um.max_latency_s);
            m.n_extrapolated += um.n_extrapolated;
            m.n_reacq_steps += um.n_reacq_steps;
        }
        m
    }
}

impl<M: Motion, S: TxSelector> SlotSession for LinkSession<M, S> {
    type Record = EngineSlot;

    fn step_slot(&mut self, _k: usize) -> EngineSlot {
        let mut st = self.sync_environment();
        self.track(&st);
        self.apply_commands(&st);
        self.optics_and_select(&mut st);
        self.data_plane(&mut st);
        self.record(&st)
    }
}

/// One slot's working state, handed from stage to stage of
/// [`LinkSession::step_slot`].
#[derive(Debug, Default)]
struct SlotState {
    /// Global slot index (telemetry event numbering).
    k: u64,
    /// Slot end time (seconds).
    t: f64,
    /// Motion-clock time at slot end (frozen while paused on an outage).
    motion_t: f64,
    /// Whether telemetry observes this slot. Telemetry is pure
    /// observation: every emission is gated on this one flag and fires only
    /// after its stage's random draws, so sinks cannot perturb the streams.
    tele_on: bool,
    /// The true pose, once synced into the unit worlds this slot.
    pose: Option<Pose>,
    /// RX aperture position at that pose (world, metres).
    rx_pos: Vec3,
    /// Line of sight to the active unit.
    los: bool,
    /// Received power on the active unit (dBm).
    power: f64,
    /// Environment path attenuation (dB).
    env_att_db: f64,
    /// A scheduled SFP flap forces loss of signal at the receiver.
    flap_forced: bool,
    /// Optical signal present at the receiver.
    signal: bool,
    /// True linear and angular speed over the slot.
    lin: f64,
    ang: f64,
    /// Whether the link delivers data, whether RF carries it, and the
    /// goodput (Gbps).
    link_up: bool,
    rf_active: bool,
    goodput: f64,
}

impl<M: Motion, S: TxSelector> LinkSession<M, S> {
    /// Stage 1, environment and pose sync: opens the slot, walks the
    /// occluders and, under [`PoseTiming::SlotStart`], syncs the true pose.
    fn sync_environment(&mut self) -> SlotState {
        let slot_s = self.cfg.slot_s;
        let moving = !self.cfg.pause_on_outage || self.sfp.is_up();
        let mut st = SlotState {
            k: self.slot_idx,
            t: self.t + slot_s,
            motion_t: if moving {
                self.motion_t + slot_s
            } else {
                self.motion_t
            },
            tele_on: self.tele.is_active(),
            los: true,
            power: Deployment::POWER_METER_FLOOR_DBM,
            ..SlotState::default()
        };
        self.slot_idx += 1;
        if st.tele_on {
            self.tele
                .emit(&TelemetryEvent::SlotStart { k: st.k, t: st.t });
        }
        for o in self.occluders.iter_mut() {
            o.step(slot_s);
        }
        if self.cfg.pose_timing == PoseTiming::SlotStart {
            self.sync_pose(&mut st);
        }
        st
    }

    /// Samples the true pose at the slot's motion time into every unit
    /// world and records it with the RX position: the one pose sync of a
    /// slot.
    fn sync_pose(&mut self, st: &mut SlotState) -> Pose {
        let pose = self.motion.pose_at(st.motion_t);
        for u in self.units.iter_mut() {
            u.dep.set_headset_pose(pose);
        }
        st.rx_pos = self.units[self.active].dep.rx_pivot_world();
        st.pose = Some(pose);
        pose
    }

    /// Stage 2, tracking and control delivery: the tracking reports due
    /// this slot, the control plane's deliveries and dead reckoning, each
    /// turned into a TP command by [`LinkSession::issue`].
    fn track(&mut self, st: &SlotState) {
        while self.next_report_t <= st.t {
            let rt = self.next_report_t;
            let period = self
                .cfg
                .tracker
                .draw_period(self.units[self.active].dep.rng());
            self.next_report_t = rt + period;
            // Legacy path only: the control channel may lose the report
            // entirely; the TP then simply waits for the next one. With the
            // control plane enabled, losses (and everything else) come from
            // the deterministic fault layer instead.
            if !self.control.is_faulty() {
                let loss_p = self.cfg.tracker.report_loss_prob;
                if loss_p > 0.0 && self.units[self.active].dep.rng().gen_bool(loss_p) {
                    if st.tele_on {
                        self.tele.emit(&TelemetryEvent::CtrlDropped {
                            t: rt,
                            n: 1,
                            reason: DropReason::ChannelLoss,
                        });
                    }
                    continue;
                }
            }
            if self.cfg.pose_timing == PoseTiming::AtReport {
                // Backdate the sampled pose to the report time.
                let pose = self.motion.pose_at(
                    st.motion_t
                        .min(self.motion_t.max(st.motion_t - (st.t - rt))),
                );
                self.units[self.active].dep.set_headset_pose(pose);
            }
            let ds = self.cfg.tracker.drift_sigma_per_sqrt_s;
            let u = &mut self.units[self.active];
            let mut clean = u.dep.headset.true_reported_pose();
            // Tracker random-walk drift (the §4 re-calibration trigger).
            if ds > 0.0 {
                let dt = (rt - self.last_report_t).max(0.0);
                let step = ds * dt.sqrt();
                let rng = u.dep.rng();
                self.drift += cyclops_geom::vec3::v3(
                    cyclops_vrh::rand_util::gauss(rng) * step,
                    cyclops_vrh::rand_util::gauss(rng) * step,
                    cyclops_vrh::rand_util::gauss(rng) * step,
                );
                clean.trans += self.drift;
            }
            self.last_report_t = rt;
            let reported = noisy_report_of(clean, &self.cfg.tracker, u.dep.rng());
            if let Some(link) = self.control.link.as_mut() {
                // Hand the report to the (faulty) control channel; the TP
                // acts on deliveries, not submissions.
                link.send(rt, (rt, reported));
                if st.tele_on {
                    self.tele.emit(&TelemetryEvent::CtrlSent { t: rt });
                }
            } else {
                let cmd = u.ctl.on_report(&reported);
                // Scheduled commands wait out the control channel as well.
                let queue_from = match self.cfg.command_timing {
                    CommandTiming::Scheduled => {
                        Some(rt + self.cfg.tracker.control_channel_latency_s)
                    }
                    CommandTiming::Immediate => None,
                };
                self.issue(st, rt, &cmd, queue_from, CommandSource::Report);
            }
        }

        // Control-plane deliveries and dead reckoning. Delivered reports
        // already carry the channel latency in their arrival time; only TP
        // compute + settle remain.
        if let Some(link) = self.control.link.as_mut() {
            for (t_arr, (t_sample, rep_pose)) in link.poll(st.t) {
                let cmd = self.units[self.active].ctl.on_report(&rep_pose);
                self.tp.on_delivery(t_arr, t_sample, rep_pose);
                if st.tele_on {
                    self.tele.emit(&TelemetryEvent::CtrlDelivered {
                        t: t_arr,
                        age_s: t_arr - t_sample,
                    });
                }
                self.issue(st, t_arr, &cmd, Some(t_arr), CommandSource::Report);
            }
            let dr = self.cfg.control.and_then(|c| c.dead_reckoning);
            if let Some(pred) = dr.and_then(|dr| self.tp.dead_reckon(st.t, dr)) {
                let cmd = self.units[self.active].ctl.on_extrapolated(&pred);
                self.issue(st, st.t, &cmd, Some(st.t), CommandSource::DeadReckoned);
            }
        }
        // Synthesize per-slot retransmit/drop events from the cumulative
        // channel counters (the ARQ stack doesn't surface per-frame hooks).
        if st.tele_on {
            if let Some(cur) = self.control.stats() {
                let d = cur.since(&self.prev_ctrl);
                if d.retransmits > 0 {
                    self.tele.emit(&TelemetryEvent::CtrlRetransmit {
                        t: st.t,
                        n: d.retransmits,
                    });
                }
                for (n, reason) in [
                    (d.channel_losses, DropReason::ChannelLoss),
                    (d.stale_drops + d.dup_frames, DropReason::Stale),
                    (d.acks_lost, DropReason::AckLost),
                    (d.gave_up, DropReason::GaveUp),
                ] {
                    if n > 0 {
                        self.tele
                            .emit(&TelemetryEvent::CtrlDropped { t: st.t, n, reason });
                    }
                }
                self.prev_ctrl = cur;
            }
        }
    }

    /// The one TP-command issue path, on the active unit. With
    /// `queue_from = Some(t0)` the command is queued to apply at `t0` + TP
    /// compute + the galvo settle estimate (the scheduled timing model);
    /// with `None` it is applied at once. Emits `TpCommandIssued` at `t`.
    fn issue(
        &mut self,
        st: &SlotState,
        t: f64,
        cmd: &TpCommand,
        queue_from: Option<f64>,
        source: CommandSource,
    ) {
        let [v0, v1, v2, v3] = cmd.voltages;
        let dep = &mut self.units[self.active].dep;
        let apply_at = match queue_from {
            Some(t0) => {
                let apply_at = t0 + cmd.latency_s + dep.settle_estimate(v0, v1, v2, v3);
                self.tp.pending.push_back((apply_at, cmd.voltages));
                apply_at
            }
            None => {
                dep.set_voltages(v0, v1, v2, v3);
                t
            }
        };
        if st.tele_on {
            self.tele.emit(&TelemetryEvent::TpCommandIssued {
                t,
                apply_at,
                source,
                latency_s: cmd.latency_s,
                iters: cmd.iterations as u64,
                converged: cmd.converged,
            });
        }
    }

    /// Stage 3, command apply: every queued command whose time has come
    /// reaches the active unit's mirrors.
    fn apply_commands(&mut self, st: &SlotState) {
        let n = self.tp.apply_due(st.t, &mut self.units[self.active].dep);
        if st.tele_on && n > 0 {
            self.tele.emit(&TelemetryEvent::TpApplied { t: st.t, n });
        }
    }

    /// Stage 4, optics and selection: the true pose at slot end, received
    /// power through the environment, the re-acquisition spiral, and the
    /// TX selector's handover with its immediate TP shot.
    fn optics_and_select(&mut self, st: &mut SlotState) {
        let slot_s = self.cfg.slot_s;
        let pose = match st.pose {
            Some(p) => p,
            None => self.sync_pose(st),
        };
        st.los = !self.cfg.los_gating || self.unit_los(self.active, st.rx_pos);
        if st.los {
            st.power = self.units[self.active].dep.received_power_dbm();
        }
        // Environment: path attenuation ahead of the SFP/channel math.
        // Gated on attachment so clean-air sessions never evaluate a stage
        // (the power stream stays bit-identical to the pre-environment
        // engine), and the stages draw no engine RNG: each is a pure
        // function of (t, path) via per-stream `mix64`.
        if let Some(env) = self.env.as_mut() {
            let path_m = st.rx_pos.distance(self.tx_positions[self.active]);
            st.env_att_db = env.attenuation_db(st.t, path_m);
        }
        if st.env_att_db > 0.0 {
            st.power -= st.env_att_db;
        }
        if self.cfg.track_speeds {
            (st.lin, st.ang) = pose_speeds(&self.prev_pose, &pose, slot_s);
        }
        self.prev_pose = pose;

        // Scheduled SFP flaps force loss-of-signal at the receiver (the
        // beam is fine; the transceiver isn't), and the re-acquisition
        // spiral searches for lost *beams*.
        st.flap_forced = self
            .cfg
            .control
            .and_then(|c| c.fault.flap)
            .is_some_and(|f| f.forced_down(st.t));
        st.signal = !st.flap_forced && st.power >= self.channel.sensitivity_dbm;
        if let Some(rq) = self.cfg.control.and_then(|c| c.reacq) {
            let act = self.tp.reacq(
                st,
                rq,
                self.cfg.tracker.period_max_s,
                &mut self.units[self.active],
                &self.channel,
            );
            if st.tele_on {
                if act.started {
                    self.tele.emit(&TelemetryEvent::ReacqStarted { t: st.t });
                }
                if act.probed {
                    self.tele.emit(&TelemetryEvent::ReacqProbe { t: st.t });
                }
                if let Some(recovered) = act.ended {
                    self.tele
                        .emit(&TelemetryEvent::ReacqEnded { t: st.t, recovered });
                }
            }
        }

        // TX selection (handover).
        let switch_to = self.selector.on_slot(&SelectCtx {
            active: self.active,
            signal: st.signal,
            slot_s,
            rx_pos: st.rx_pos,
            tx_positions: &self.tx_positions,
            occluders: &self.occluders,
        });
        if let Some(best) = switch_to {
            let from = self.active;
            let spiral_abandoned = self.tp.spiral.is_some();
            self.active = best;
            self.n_handovers += 1;
            self.tp.clear_inflight();
            // One immediate TP shot on the new unit.
            let u = &mut self.units[best];
            let clean = u.dep.headset.true_reported_pose();
            let rep = noisy_report_of(clean, &self.cfg.tracker, u.dep.rng());
            let cmd = u.ctl.on_report(&rep);
            if st.tele_on {
                if spiral_abandoned {
                    // The old unit's spiral dies with the handover.
                    self.tele.emit(&TelemetryEvent::ReacqEnded {
                        t: st.t,
                        recovered: false,
                    });
                }
                self.tele.emit(&TelemetryEvent::Handover {
                    t: st.t,
                    from: from as u32,
                    to: best as u32,
                });
            }
            self.issue(st, st.t, &cmd, None, CommandSource::HandoverShot);
        }
    }

    /// Stage 5, data plane: the SFP re-lock machine, outage accounting,
    /// goodput, and the hybrid RF fallback.
    fn data_plane(&mut self, st: &mut SlotState) {
        let slot_s = self.cfg.slot_s;
        let was_up = self.sfp.is_up();
        let up = self.sfp.step(st.signal, slot_s);
        if was_up && !up {
            self.n_outages += 1;
            self.cur_outage_s = 0.0;
            self.outage_start = Some(st.t);
            if st.tele_on {
                self.tele.emit(&TelemetryEvent::SfpDown { t: st.t });
            }
        }
        if !up {
            self.outage_s += slot_s;
            self.cur_outage_s += slot_s;
            self.longest_outage_s = self.longest_outage_s.max(self.cur_outage_s);
        }
        if !was_up && up {
            let outage = self
                .outage_start
                .take()
                .map_or(self.cur_outage_s, |t0| st.t - t0);
            if st.tele_on {
                self.tele.emit(&TelemetryEvent::SfpUp {
                    t: st.t,
                    outage_s: outage,
                });
            }
        }
        if self.cfg.goodput && up {
            let rate = self.units[self.active].dep.design.sfp.optimal_goodput_gbps;
            st.goodput = rate * self.fsp.frame_success_prob(st.power);
        }

        // Hybrid fallback: the RF side channel rides through FSO outages
        // (and through the failback hold; traffic only moves back onto FSO
        // once it has proven stable). With `FallbackPolicy::Off` this whole
        // block is skipped: no extra world queries, no float changes, and
        // the goldens' slot stream is preserved bit-exactly.
        if let Some(rf) = self.rf.as_mut() {
            let was_rf = rf.policy.is_rf_active();
            st.rf_active = rf.policy.step(up, slot_s);
            if st.rf_active {
                let tx = self.tx_positions[self.active];
                let occluded = self.occluders.iter().any(|o| o.blocks(tx, st.rx_pos));
                st.goodput = if self.cfg.goodput {
                    rf.channel.rate_gbps(tx.distance(st.rx_pos), occluded)
                } else {
                    0.0
                };
                self.rf_slots += 1;
                self.rf_delivered_gb += st.goodput * slot_s;
            }
            if st.tele_on && was_rf != st.rf_active {
                if st.rf_active {
                    self.tele.emit(&TelemetryEvent::RfFailover { t: st.t });
                } else {
                    self.tele.emit(&TelemetryEvent::RfFailback {
                        t: st.t,
                        rf_s: rf.policy.last_rf_episode_s(),
                    });
                }
            }
        }
        st.link_up = up || st.rf_active;
    }

    /// Closes the slot: its record, the `SlotEnd` event, and the clocks.
    fn record(&mut self, st: &SlotState) -> EngineSlot {
        if st.tele_on {
            self.tele.emit(&TelemetryEvent::SlotEnd {
                k: st.k,
                t: st.t,
                active: self.active as u32,
                power_dbm: st.power,
                margin_db: st.power - self.channel.sensitivity_dbm,
                link_up: st.link_up,
                rf_active: st.rf_active,
                goodput_gbps: st.goodput,
            });
        }
        self.t = st.t;
        self.motion_t = st.motion_t;
        EngineSlot {
            t: st.t,
            active: self.active,
            los: st.los,
            power_dbm: st.power,
            link_up: st.link_up,
            rf_active: st.rf_active,
            goodput_gbps: st.goodput,
            lin_speed: st.lin,
            ang_speed: st.ang,
        }
    }
}

// ---------------------------------------------------------------------------
// Session builder
// ---------------------------------------------------------------------------

/// Validating builder for [`LinkSession`] — the construction API
/// ([`LinkSession::builder`] is the entry point):
///
/// ```no_run
/// # use cyclops_link::engine::{EngineConfig, LinkSession};
/// # use cyclops_link::telemetry::{JsonlSink, Telemetry};
/// # use cyclops_vrh::motion::StaticPose;
/// # use cyclops_geom::pose::Pose;
/// # fn demo(dep: cyclops_core::deployment::Deployment,
/// #         ctl: cyclops_core::tp::TpController) {
/// let sink = JsonlSink::create(std::path::Path::new("session.jsonl")).unwrap();
/// let mut session = LinkSession::builder(StaticPose(Pose::IDENTITY))
///     .deployment(dep, ctl)
///     .telemetry(Telemetry::with_sink_and_counters(Box::new(sink)))
///     .build()
///     .expect("valid config");
/// let slots = session.run(2.0);
/// # let _ = slots;
/// # }
/// ```
///
/// `build` validates the configuration ([`EngineConfig::validate`] plus the
/// unit list) instead of panicking mid-run. Unless overridden with
/// [`SessionBuilder::first_report`], single-unit sessions use
/// [`FirstReport::AfterPeriod`] (the single-TX methodology: pre-start
/// alignment consumes the t = 0 report) and multi-unit sessions
/// [`FirstReport::AtZero`] (the multi-TX methodology).
#[derive(Debug)]
pub struct SessionBuilder<M: Motion, S: TxSelector> {
    units: Vec<TxInstallation>,
    motion: M,
    occluders: Vec<Occluder>,
    selector: S,
    cfg: EngineConfig,
    telemetry: Telemetry,
    first_report: Option<FirstReport>,
    environment: Option<crate::channel::Environment>,
}

impl<M: Motion, S: TxSelector> SessionBuilder<M, S> {
    /// Adds one TX installation from its parts.
    pub fn deployment(mut self, dep: Deployment, ctl: TpController) -> Self {
        self.units.push(TxInstallation { dep, ctl });
        self
    }

    /// Adds one TX installation.
    pub fn unit(mut self, unit: TxInstallation) -> Self {
        self.units.push(unit);
        self
    }

    /// Adds several TX installations.
    pub fn units(mut self, units: impl IntoIterator<Item = TxInstallation>) -> Self {
        self.units.extend(units);
        self
    }

    /// Adds one occluder.
    pub fn occluder(mut self, occluder: Occluder) -> Self {
        self.occluders.push(occluder);
        self
    }

    /// Adds several occluders.
    pub fn occluders(mut self, occluders: impl IntoIterator<Item = Occluder>) -> Self {
        self.occluders.extend(occluders);
        self
    }

    /// Replaces the TX selector (changes the builder's selector type).
    pub fn selector<S2: TxSelector>(self, selector: S2) -> SessionBuilder<M, S2> {
        SessionBuilder {
            units: self.units,
            motion: self.motion,
            occluders: self.occluders,
            selector,
            cfg: self.cfg,
            telemetry: self.telemetry,
            first_report: self.first_report,
            environment: self.environment,
        }
    }

    /// Replaces the whole engine configuration.
    pub fn config(mut self, cfg: EngineConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets the slot length (seconds).
    pub fn slot_s(mut self, slot_s: f64) -> Self {
        self.cfg.slot_s = slot_s;
        self
    }

    /// Sets the tracker timing/noise model.
    pub fn tracker(mut self, tracker: TrackerConfig) -> Self {
        self.cfg.tracker = tracker;
        self
    }

    /// Enables the reliable control plane (fault-injected channel, ARQ,
    /// dead reckoning, re-acquisition).
    pub fn control(mut self, control: ControlPlaneConfig) -> Self {
        self.cfg.control = Some(control);
        self
    }

    /// Sets the §5.3 pause-on-outage operator protocol.
    pub fn pause_on_outage(mut self, pause: bool) -> Self {
        self.cfg.pause_on_outage = pause;
        self
    }

    /// Sets the hybrid FSO/RF fallback policy.
    pub fn fallback(mut self, fallback: FallbackPolicy) -> Self {
        self.cfg.fallback = fallback;
        self
    }

    /// Attaches a telemetry configuration (sink and/or counters).
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Attaches an event sink (keeps any counter setting).
    pub fn telemetry_sink(mut self, sink: Box<dyn TelemetrySink>) -> Self {
        self.telemetry = if self.telemetry.counters_ref().is_some() {
            Telemetry::with_sink_and_counters(sink)
        } else {
            Telemetry::with_sink(sink)
        };
        self
    }

    /// Enables in-session counter/histogram aggregation (keeps any sink).
    pub fn telemetry_counters(mut self) -> Self {
        self.telemetry = match self.telemetry.take_sink() {
            Some(sink) => Telemetry::with_sink_and_counters(sink),
            None => Telemetry::counters(),
        };
        self
    }

    /// Overrides the first-report timing (the default follows the unit
    /// count; see [`FirstReport`]).
    pub fn first_report(mut self, first_report: FirstReport) -> Self {
        self.first_report = Some(first_report);
        self
    }

    /// Attaches a composable environment
    /// ([`Environment`](crate::channel::Environment)): per-slot path
    /// attenuation applied ahead of the SFP/channel math. An empty
    /// environment is stored as `None`, keeping the clean-air fast path —
    /// and the bit-identical power stream — of a session built without one.
    pub fn environment(mut self, env: crate::channel::Environment) -> Self {
        self.environment = if env.is_empty() { None } else { Some(env) };
        self
    }

    /// Validates and constructs the session.
    pub fn build(self) -> Result<LinkSession<M, S>, EngineConfigError> {
        if self.units.is_empty() {
            return Err(EngineConfigError::NoUnits);
        }
        self.cfg.validate()?;
        for o in &self.occluders {
            o.validate()?;
        }
        Ok(LinkSession::assemble(self))
    }
}
