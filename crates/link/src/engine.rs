//! The unified simulation engine: one slot-clocked scheduler driving
//! pluggable components behind small traits.
//!
//! The single-TX link simulator (Figs 13–15), the full-physics multi-TX
//! handover and the §5.4 trace drift model are *configurations* of this
//! engine rather than bespoke loops:
//!
//! ```text
//!                      ┌────────────────────────────┐
//!                      │   run_slots (slot clock)   │
//!                      └─────────────┬──────────────┘
//!                                    │ step_slot(k)
//!                      ┌─────────────▼──────────────┐
//!   MotionSource ────▶ │                            │ ◀──── ControlPlane
//!   (vrh motion /      │     LinkSession<M, S>      │       (perfect or
//!    trace playback)   │                            │        ARQ + faults)
//!                      │  report → TP → optics →    │
//!   TxSelector ──────▶ │  channel → SFP → record    │ ◀──── ChannelModel
//!   (single / dark-    │                            │       (power → BER →
//!    debounce / margin)└─────────────┬──────────────┘        frame loss)
//!                                    │ TpPolicy (pending commands,
//!                                    ▼  dead reckoning, re-acq spiral)
//!                               EngineSlot
//! ```
//!
//! The components:
//!
//! * [`MotionSource`] — where the headset truly is (`vrh` motion models and
//!   trace playback);
//! * [`TpPolicy`] — what the TP does with reports: scheduled command queue,
//!   dead reckoning on stale channels, re-acquisition spiral on lost beams;
//! * [`ControlPlane`] — how reports travel: a perfect channel or the
//!   sequence-numbered ARQ stack over the deterministic fault layer;
//! * [`ChannelModel`] — what the photons deliver: received power → BER →
//!   frame-success (an alias of [`FsoChannel`]);
//! * [`TxSelector`] — which ceiling unit serves the headset: pinned
//!   ([`SingleTx`]), dark-time debounced nearest sibling ([`DarkDebounce`]),
//!   or margin-based ([`BestMargin`]). The geometric handover policy
//!   (switch delay, hysteresis) is [`MarginSelector`], a bare state machine
//!   its caller steps over [`visible_margin_db`].
//!
//! Determinism is the engine's core contract: every random draw comes from a
//! seeded per-deployment RNG or a `mix64` stream, and the slot loop touches
//! them in a fixed order, so any configuration replays bit-identically for a
//! given seed — on any platform and thread count. The
//! `engine_digest` bench bin pins this against committed goldens.
//!
//! On top of single sessions the engine runs **multi-session workloads**
//! ([`run_fleet`]): N independently-seeded headsets, each against its own
//! clone of M TX installations, reduced in session-index order into a
//! [`FleetSummary`].
//!
//! Sessions are configured through validating builders —
//! [`LinkSession::builder`] / [`FleetConfig::builder`] — which check the
//! configuration up front (`Result<_, EngineConfigError>`) and inject
//! [`crate::telemetry`] observers at construction time. Telemetry is pure
//! observation: events are emitted only after every random draw of the slot
//! has happened, so attaching a sink cannot move the engine's RNG or float
//! streams (pinned by the `engine_digest` identity checks).

use crate::channel::{FsoChannel, RfChannel};
use crate::control::{unit, ControlLink, ControlPlaneConfig, ControlStats};
use crate::sfp_state::SfpLinkState;
use crate::telemetry::{
    CommandSource, DropReason, ScopedTimer, SessionTelemetry, Telemetry, TelemetryEvent,
    TelemetrySink, VirtualClock,
};
use cyclops_core::deployment::Deployment;
use cyclops_core::mapping::noisy_report_of;
use cyclops_core::pointing::ReacqSpiral;
use cyclops_core::tp::{TpCommand, TpController, TpMetrics};
use cyclops_geom::pose::Pose;
use cyclops_geom::ray::Ray;
use cyclops_geom::vec3::Vec3;
use cyclops_optics::coupling::{LinkDesign, ReceiverGeometry};
use cyclops_vrh::motion::{extrapolate_pose, ArbitraryMotion, ArbitraryMotionConfig, Motion};
use cyclops_vrh::speeds::pose_speeds;
use cyclops_vrh::traces::HeadTrace;
use cyclops_vrh::tracking::TrackerConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Where the headset truly is: the engine's motion component. This is the
/// `vrh` [`Motion`] trait under its engine-facing name — every motion model
/// (rails, rotation stages, hand-held OU processes, trace playback) plugs in
/// here.
pub use cyclops_vrh::motion::Motion as MotionSource;

/// What the photons deliver: received power → BER → frame success. The
/// engine's channel component is exactly the [`FsoChannel`] model.
pub type ChannelModel = FsoChannel;

// ---------------------------------------------------------------------------
// Slot clock
// ---------------------------------------------------------------------------

/// A simulation that advances in fixed slots under [`run_slots`].
///
/// The driver hands each session its slot *index*; the session derives its
/// own clock from it (sessions differ in how they accumulate time — the
/// full-physics session accumulates `t + slot_s` while the trace session
/// computes `(k + 1) · slot_ms` — and those float streams must be preserved
/// bit-exactly).
pub trait SlotSession {
    /// Per-slot output record.
    type Record;
    /// Advances one slot (index `k`, counted from 0 at the start of the
    /// current [`run_slots`] call) and returns its record.
    fn step_slot(&mut self, k: usize) -> Self::Record;
}

/// The engine's slot clock: drives `session` for `n_slots` slots and
/// collects the records in slot order.
pub fn run_slots<S: SlotSession>(session: &mut S, n_slots: usize) -> Vec<S::Record> {
    let mut out = Vec::with_capacity(n_slots);
    for k in 0..n_slots {
        out.push(session.step_slot(k));
    }
    out
}

/// Streaming form of [`run_slots`]: hands each record to `f` in slot order
/// instead of materializing the vector. Aggregating consumers (the fleet
/// runner folds a handful of sums per session) use this to keep a session's
/// memory footprint independent of its duration.
pub fn fold_slots<S: SlotSession>(session: &mut S, n_slots: usize, mut f: impl FnMut(S::Record)) {
    for k in 0..n_slots {
        f(session.step_slot(k));
    }
}

// ---------------------------------------------------------------------------
// Session configuration
// ---------------------------------------------------------------------------

/// When a TP command becomes optically effective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandTiming {
    /// Queued and applied after control-channel latency + TP compute + DAC
    /// and mirror settle — the single-TX simulator's timing model.
    Scheduled,
    /// Applied the moment the report is processed — the multi-TX
    /// simulator's simplification (its outages are dominated by the SFP
    /// re-lock, not steering latency).
    Immediate,
}

/// When the true headset pose is sampled and written into the unit worlds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoseTiming {
    /// Sampled per report, backdated to the report time, on the active
    /// unit; plus once at slot end on every unit — the single-TX model.
    AtReport,
    /// Sampled once at slot start and synced to every unit — the multi-TX
    /// model.
    SlotStart,
}

/// Full configuration of a [`LinkSession`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Slot length (seconds); the paper's studies use 1 ms.
    pub slot_s: f64,
    /// Tracking system timing/noise.
    pub tracker: TrackerConfig,
    /// Frame size for loss accounting (bits).
    pub frame_bits: u64,
    /// The §5.3 operator protocol: motion time freezes while the link is
    /// down.
    pub pause_on_outage: bool,
    /// Reliable control plane (fault-injected channel, optional ARQ, dead
    /// reckoning, re-acquisition). `None` preserves the legacy path —
    /// i.i.d. report loss drawn from the deployment RNG — bit-exactly.
    pub control: Option<ControlPlaneConfig>,
    /// Command timing model.
    pub command_timing: CommandTiming,
    /// Pose sampling model.
    pub pose_timing: PoseTiming,
    /// Account goodput through the BER channel (single-TX records use it;
    /// the multi-TX records don't).
    pub goodput: bool,
    /// Gate received power on occluder line of sight.
    pub los_gating: bool,
    /// Track per-slot true linear/angular speeds (costs one extra motion
    /// sample at the start of each run).
    pub track_speeds: bool,
    /// Hybrid FSO/RF fallback. [`FallbackPolicy::Off`] (the default) skips
    /// the fallback path entirely and preserves the pre-fallback slot
    /// stream bit-exactly.
    pub fallback: FallbackPolicy,
}

impl Default for EngineConfig {
    /// The single-TX profile: 1 ms slots, scheduled commands, per-report
    /// pose sampling, goodput accounting, no occluder gating.
    fn default() -> Self {
        EngineConfig {
            slot_s: 1e-3,
            tracker: TrackerConfig::default(),
            frame_bits: 12_000,
            pause_on_outage: false,
            control: None,
            command_timing: CommandTiming::Scheduled,
            pose_timing: PoseTiming::AtReport,
            goodput: true,
            los_gating: false,
            track_speeds: true,
            fallback: FallbackPolicy::Off,
        }
    }
}

impl EngineConfig {
    /// The multi-TX profile: slot-start pose sync to every unit, immediate
    /// commands, line-of-sight gating, no goodput/speed accounting.
    pub fn multi_tx(tracker: TrackerConfig) -> EngineConfig {
        EngineConfig {
            tracker,
            command_timing: CommandTiming::Immediate,
            pose_timing: PoseTiming::SlotStart,
            goodput: false,
            los_gating: true,
            track_speeds: false,
            ..EngineConfig::default()
        }
    }

    /// Validates the configuration ([`SessionBuilder::build`] runs this
    /// before constructing a session).
    pub fn validate(&self) -> Result<(), EngineConfigError> {
        if !(self.slot_s.is_finite() && self.slot_s > 0.0) {
            return Err(EngineConfigError::InvalidSlot);
        }
        if self.goodput && self.frame_bits == 0 {
            return Err(EngineConfigError::ZeroFrameBits);
        }
        self.tracker
            .validate()
            .map_err(|(what, _)| EngineConfigError::InvalidTracker(what))?;
        if let Some(c) = &self.control {
            let is_prob = |p: f64| p.is_finite() && (0.0..=1.0).contains(&p);
            let f = &c.fault;
            for (p, what) in [
                (f.loss_prob, "fault.loss_prob must be a probability"),
                (
                    f.burst_enter_prob,
                    "fault.burst_enter_prob must be a probability",
                ),
                (
                    f.burst_exit_prob,
                    "fault.burst_exit_prob must be a probability",
                ),
                (
                    f.burst_loss_prob,
                    "fault.burst_loss_prob must be a probability",
                ),
                (
                    f.delay_spike_prob,
                    "fault.delay_spike_prob must be a probability",
                ),
                (f.dup_prob, "fault.dup_prob must be a probability"),
                (f.reorder_prob, "fault.reorder_prob must be a probability"),
            ] {
                if !is_prob(p) {
                    return Err(EngineConfigError::InvalidControl(what));
                }
            }
        }
        Ok(())
    }
}

/// Why a session or fleet configuration was rejected by a builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineConfigError {
    /// The builder was given no TX installation.
    NoUnits,
    /// `slot_s` is not finite and positive.
    InvalidSlot,
    /// Goodput accounting is on but `frame_bits` is zero.
    ZeroFrameBits,
    /// A [`TrackerConfig`] field is out of range.
    InvalidTracker(&'static str),
    /// A control-plane fault probability is out of range.
    InvalidControl(&'static str),
    /// A [`FleetConfig`] field is out of range.
    InvalidFleet(&'static str),
    /// An [`Environment`](crate::channel::Environment) stage parameter is
    /// out of range.
    InvalidEnvironment(&'static str),
}

impl std::fmt::Display for EngineConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineConfigError::NoUnits => write!(f, "session needs at least one TX installation"),
            EngineConfigError::InvalidSlot => write!(f, "slot_s must be finite and positive"),
            EngineConfigError::ZeroFrameBits => {
                write!(
                    f,
                    "frame_bits must be nonzero when goodput accounting is on"
                )
            }
            EngineConfigError::InvalidTracker(what) => write!(f, "tracker config: {what}"),
            EngineConfigError::InvalidControl(what) => write!(f, "control config: {what}"),
            EngineConfigError::InvalidFleet(what) => write!(f, "fleet config: {what}"),
            EngineConfigError::InvalidEnvironment(what) => write!(f, "environment config: {what}"),
        }
    }
}

impl std::error::Error for EngineConfigError {}

/// When a session's first tracking report fires, relative to the pre-start
/// alignment every session runs at t = 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirstReport {
    /// The pre-start alignment consumed the t = 0 report; the next arrives
    /// a full tracker period later (the single-TX methodology; the default
    /// for one-unit sessions).
    AfterPeriod,
    /// A report also fires at t = 0 (the multi-TX methodology; the default
    /// for multi-unit sessions).
    AtZero,
}

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
    pending: VecDeque<(f64, [f64; 4])>,
    /// Recent delivered reports `(t_sample, pose)`, newest at the back,
    /// feeding the dead-reckoning velocity estimate. The velocity anchor is
    /// the newest entry at least `min_baseline_s` older than the latest, so
    /// tracker noise isn't amplified by differencing two near-coincident
    /// samples.
    deliveries: VecDeque<(f64, Pose)>,
    /// Arrival time of the last delivered report (staleness clock).
    last_delivery_arrival: Option<f64>,
    last_dr_t: f64,
    /// Re-acquisition search state.
    spiral: Option<ReacqSpiral>,
    spiral_exhausted: bool,
    signal_lost_since: Option<f64>,
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

    /// Issues a dead-reckoned command when reports are stale but the
    /// velocity estimate is still fresh. Returns the issued command and its
    /// apply time, for telemetry.
    fn dead_reckon(
        &mut self,
        t_slot: f64,
        dr: crate::control::DeadReckoningConfig,
        unit: &mut TxInstallation,
    ) -> Option<(f64, TpCommand)> {
        if let (Some(&(t1, p1)), Some(arr)) = (self.deliveries.back(), self.last_delivery_arrival) {
            // Velocity anchor: the newest delivery at least `min_baseline_s`
            // older than the latest (falling back to the oldest we kept).
            let (t0, p0) = self
                .deliveries
                .iter()
                .rev()
                .find(|(t, _)| t1 - t >= dr.min_baseline_s)
                .or_else(|| self.deliveries.front())
                .copied()
                .unwrap();
            // Reports stale but the velocity estimate still fresh: steer on
            // the constant-velocity prediction.
            if t0 < t1
                && t_slot - arr > dr.stale_after_s
                && t_slot - t1 <= dr.max_horizon_s
                && t_slot - self.last_dr_t >= dr.interval_s
            {
                let pred = extrapolate_pose(&p0, t0, &p1, t1, t_slot);
                let cmd = unit.ctl.on_extrapolated(&pred);
                let settle = unit.dep.settle_estimate(
                    cmd.voltages[0],
                    cmd.voltages[1],
                    cmd.voltages[2],
                    cmd.voltages[3],
                );
                let apply_at = t_slot + cmd.latency_s + settle;
                self.pending.push_back((apply_at, cmd.voltages));
                self.last_dr_t = t_slot;
                return Some((apply_at, cmd));
            }
        }
        None
    }

    /// The re-acquisition spiral: probes voltages around the last aim when
    /// the beam is lost and tracking can't help. May re-evaluate `power` and
    /// `signal` in place. Returns what happened, for telemetry.
    #[allow(clippy::too_many_arguments)]
    fn reacq(
        &mut self,
        t_slot: f64,
        rq: crate::control::ReacqConfig,
        period_max_s: f64,
        flap_forced: bool,
        unit: &mut TxInstallation,
        channel: &ChannelModel,
        env_att_db: f64,
        power: &mut f64,
        signal: &mut bool,
    ) -> ReacqActivity {
        let mut act = ReacqActivity::default();
        // The search only rests on *solid* signal: a point at the bare
        // sensitivity edge flickers under drift, resetting the SFP hold
        // timer forever.
        let solid = *power >= channel.sensitivity_dbm + rq.success_margin_db;
        if (*signal && solid) || flap_forced {
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
                        *power = unit.dep.received_power_dbm() - env_att_db;
                        *signal = *power >= channel.sensitivity_dbm;
                        if *power >= channel.sensitivity_dbm + rq.success_margin_db {
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
    fn clear_inflight(&mut self) {
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
// Components: TX selection
// ---------------------------------------------------------------------------

/// A spherical occluder moving on a random walk (an arm, another person).
#[derive(Debug, Clone)]
pub struct Occluder {
    /// Current centre.
    pub center: Vec3,
    /// Radius (metres).
    pub radius: f64,
    /// RMS walk speed (m/s).
    pub speed: f64,
    rng: StdRng,
}

impl Occluder {
    /// Creates an occluder at a position with a seeded walk.
    pub fn new(center: Vec3, radius: f64, speed: f64, seed: u64) -> Occluder {
        Occluder {
            center,
            radius,
            speed,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Advances the random walk by `dt` seconds (no-op for a static
    /// occluder).
    pub fn step(&mut self, dt: f64) {
        let s = self.speed * dt;
        if s <= 0.0 {
            return;
        }
        self.center += Vec3::new(
            self.rng.gen_range(-s..s),
            self.rng.gen_range(-s..s),
            self.rng.gen_range(-s..s),
        );
    }

    /// Checks that the centre is finite and the radius and speed are finite
    /// and non-negative; the session and fleet builders run this, so a bad
    /// occluder fails there instead of panicking in [`Occluder::step`].
    fn validate(&self) -> Result<(), EngineConfigError> {
        let ok = |x: f64| x.is_finite() && x >= 0.0;
        if !self.center.is_finite() {
            Err(EngineConfigError::InvalidEnvironment(
                "occluder center must be finite",
            ))
        } else if !ok(self.radius) {
            Err(EngineConfigError::InvalidEnvironment(
                "occluder radius must be finite and non-negative",
            ))
        } else if !ok(self.speed) {
            Err(EngineConfigError::InvalidEnvironment(
                "occluder speed must be finite and non-negative",
            ))
        } else {
            Ok(())
        }
    }

    /// True if the segment `a → b` passes through the occluder.
    pub fn blocks(&self, a: Vec3, b: Vec3) -> bool {
        let ab = b - a;
        let len = ab.norm();
        if len < 1e-12 {
            return a.distance(self.center) < self.radius;
        }
        let t = ((self.center - a).dot(ab) / (len * len)).clamp(0.0, 1.0);
        let closest = a + ab * t;
        closest.distance(self.center) < self.radius
    }
}

/// Per-slot context handed to a [`TxSelector`].
#[derive(Debug)]
pub struct SelectCtx<'a> {
    /// Currently active unit index.
    pub active: usize,
    /// Whether the active unit has optical signal this slot.
    pub signal: bool,
    /// Slot length (seconds).
    pub slot_s: f64,
    /// RX aperture position (world, metres).
    pub rx_pos: Vec3,
    /// TX aperture positions (world, metres), one per unit.
    pub tx_positions: &'a [Vec3],
    /// The occluders currently in the room.
    pub occluders: &'a [Occluder],
}

impl SelectCtx<'_> {
    /// Whether unit `i` has line of sight to the RX.
    pub fn los(&self, i: usize) -> bool {
        let tx_pos = self.tx_positions[i];
        !self.occluders.iter().any(|o| o.blocks(tx_pos, self.rx_pos))
    }
}

/// Which ceiling unit serves the headset. Called once per slot after
/// channel evaluation; returning `Some(i)` switches the session to unit `i`
/// (the session then fires one immediate TP shot on it).
pub trait TxSelector {
    /// Decides this slot's handover, if any.
    fn on_slot(&mut self, ctx: &SelectCtx<'_>) -> Option<usize>;
}

/// The single-TX selector: unit 0, forever.
#[derive(Debug, Clone, Copy, Default)]
pub struct SingleTx;

impl TxSelector for SingleTx {
    fn on_slot(&mut self, _ctx: &SelectCtx<'_>) -> Option<usize> {
        None
    }
}

/// The multi-TX simulator's policy: after the active unit has been dark for
/// a debounce interval, switch to the nearest unoccluded sibling.
#[derive(Debug, Clone)]
pub struct DarkDebounce {
    /// Dark time on the active unit before a handover is attempted (s).
    pub debounce_s: f64,
    dark_s: f64,
}

impl DarkDebounce {
    /// Creates the selector with the given debounce.
    pub fn new(debounce_s: f64) -> DarkDebounce {
        DarkDebounce {
            debounce_s,
            dark_s: 0.0,
        }
    }
}

impl TxSelector for DarkDebounce {
    fn on_slot(&mut self, ctx: &SelectCtx<'_>) -> Option<usize> {
        if ctx.signal {
            self.dark_s = 0.0;
        } else {
            self.dark_s += ctx.slot_s;
        }
        if self.dark_s < self.debounce_s || ctx.tx_positions.len() <= 1 {
            return None;
        }
        let best = (0..ctx.tx_positions.len())
            .filter(|&i| i != ctx.active && ctx.los(i))
            .min_by(|&a, &b| {
                let da = ctx.tx_positions[a].distance(ctx.rx_pos);
                let db = ctx.tx_positions[b].distance(ctx.rx_pos);
                // total_cmp sorts NaN above +inf, so a unit whose distance
                // degenerates to NaN is never preferred — and the old
                // partial_cmp().unwrap() panic is gone.
                da.total_cmp(&db)
            });
        if best.is_some() {
            self.dark_s = 0.0;
        }
        best
    }
}

/// Margin-based selection for full-physics sessions: after the dark-time
/// debounce, switch to the unoccluded sibling with the best *aligned link
/// margin* (not merely the nearest).
#[derive(Debug, Clone)]
pub struct BestMargin {
    /// Dark time on the active unit before a handover is attempted (s).
    pub debounce_s: f64,
    /// Link design shared by the units (margins are evaluated on it).
    pub design: LinkDesign,
    dark_s: f64,
}

impl BestMargin {
    /// Creates the selector.
    pub fn new(design: LinkDesign, debounce_s: f64) -> BestMargin {
        BestMargin {
            debounce_s,
            design,
            dark_s: 0.0,
        }
    }
}

impl TxSelector for BestMargin {
    fn on_slot(&mut self, ctx: &SelectCtx<'_>) -> Option<usize> {
        if ctx.signal {
            self.dark_s = 0.0;
        } else {
            self.dark_s += ctx.slot_s;
        }
        if self.dark_s < self.debounce_s || ctx.tx_positions.len() <= 1 {
            return None;
        }
        let margin = |i: usize| aligned_margin_db(&self.design, ctx.tx_positions[i], ctx.rx_pos);
        let best = (0..ctx.tx_positions.len())
            .filter(|&i| i != ctx.active && ctx.los(i) && margin(i) >= 0.0)
            .max_by(|&a, &b| margin(a).total_cmp(&margin(b)));
        if best.is_some() {
            self.dark_s = 0.0;
        }
        best
    }
}

/// Aligned link margin (dB) a unit at `tx_pos` would give at `rx_pos`: the
/// design's margin re-evaluated at that range. Negative when the link
/// cannot close; `-inf` when the geometry degenerates.
pub fn aligned_margin_db(design: &LinkDesign, tx_pos: Vec3, rx_pos: Vec3) -> f64 {
    let dir = (rx_pos - tx_pos).try_normalized(1e-9);
    let Some(dir) = dir else {
        return f64::NEG_INFINITY;
    };
    let chief = Ray::new(tx_pos, dir);
    let rx = ReceiverGeometry::new(rx_pos, -dir);
    design.received_power_dbm(chief, &rx) - design.sfp.rx_sensitivity_dbm
}

/// [`aligned_margin_db`] behind line of sight: `-inf` when any occluder
/// blocks the segment `tx_pos → rx_pos`. This is the margin a geometric
/// [`MarginSelector`] steps on.
pub fn visible_margin_db(
    design: &LinkDesign,
    occluders: &[Occluder],
    tx_pos: Vec3,
    rx_pos: Vec3,
) -> f64 {
    if occluders.iter().any(|o| o.blocks(tx_pos, rx_pos)) {
        f64::NEG_INFINITY
    } else {
        aligned_margin_db(design, tx_pos, rx_pos)
    }
}

/// The geometric margin-based handover state machine (margins typically
/// from [`visible_margin_db`]; the caller holds the active unit): pays a
/// switch delay on every handover, and — when `hysteresis_db` is set — also
/// upgrades away from a *working* unit once a sibling's margin beats it by
/// more than the hysteresis. A tie never triggers a switch, so two equal
/// units cannot flip-flop.
#[derive(Debug, Clone, Copy)]
pub struct MarginSelector {
    /// Time a switch takes (re-steer + re-lock), seconds.
    pub switch_time_s: f64,
    /// Greedy-upgrade hysteresis (dB): `None` switches only when the active
    /// unit is unusable (the legacy behavior); `Some(h)` also switches when
    /// a sibling's margin exceeds the active unit's by more than `h`.
    pub hysteresis_db: Option<f64>,
    switch_remaining_s: f64,
}

impl MarginSelector {
    /// Creates the state machine (no greedy upgrades).
    pub fn new(switch_time_s: f64) -> MarginSelector {
        MarginSelector {
            switch_time_s,
            hysteresis_db: None,
            switch_remaining_s: 0.0,
        }
    }

    /// Whether a switch is currently in progress.
    pub fn switching(&self) -> bool {
        self.switch_remaining_s > 0.0
    }

    /// Advances one step. `margin(i)` must return unit `i`'s link margin in
    /// dB, `NEG_INFINITY` when it is occluded or otherwise unusable; a unit
    /// is selectable iff its margin is ≥ 0. Returns whether the link
    /// delivers data this step and the (possibly new) active unit.
    pub fn step(
        &mut self,
        active: usize,
        n: usize,
        margin: impl Fn(usize) -> f64,
        dt: f64,
    ) -> (bool, usize) {
        if self.switch_remaining_s > 0.0 {
            self.switch_remaining_s -= dt;
            return (false, active);
        }
        let m_active = margin(active);
        if m_active >= 0.0 {
            if let Some(h) = self.hysteresis_db {
                // Greedy upgrade: only on a *strict* improvement beyond the
                // hysteresis — equal margins never switch.
                // The `>= 0.0` filter already excludes NaN margins (NaN
                // compares false); total_cmp makes the max itself NaN-proof.
                let best = (0..n)
                    .filter(|&i| i != active && margin(i) >= 0.0)
                    .max_by(|&a, &b| margin(a).total_cmp(&margin(b)));
                if let Some(b) = best {
                    if margin(b) > m_active + h {
                        self.switch_remaining_s = self.switch_time_s;
                        return (false, b);
                    }
                }
            }
            return (true, active);
        }
        // Pick the usable unit with the highest margin.
        let best = (0..n)
            .filter(|&i| margin(i) >= 0.0)
            .max_by(|&a, &b| margin(a).total_cmp(&margin(b)));
        match best {
            Some(i) => {
                self.switch_remaining_s = self.switch_time_s;
                (false, i)
            }
            None => (false, active), // everything blocked or out of reach
        }
    }
}

// ---------------------------------------------------------------------------
// Components: hybrid FSO/RF fallback
// ---------------------------------------------------------------------------

/// Whether a session may degrade to the RF side channel during FSO outages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FallbackPolicy {
    /// Pure FSO (the paper's system): an outage delivers zero rate. The
    /// default — and the determinism contract: with `Off` the engine skips
    /// the fallback path entirely and the slot stream stays bit-identical
    /// to the pre-fallback engine (the `engine_digest` goldens pin this).
    #[default]
    Off,
    /// Fail over to the low-rate RF channel ([`RfChannel`]) while the FSO
    /// link is down; fail back once FSO has held for the failback hold —
    /// flicker-safe hysteresis mirroring [`SfpLinkState`].
    RfOnOutage,
}

/// The hybrid-link failover state machine: decides, per slot, whether
/// traffic rides the RF side channel.
///
/// Deterministic and RNG-free, like [`SfpLinkState`] (whose flicker-safe
/// hysteresis it mirrors on the failback edge):
///
/// - *Failover*: FSO must be down continuously for `failover_delay_s`
///   before traffic moves to RF (a one-slot dark blip doesn't thrash).
/// - *Failback*: FSO must be up continuously for `failback_hold_s` before
///   traffic moves back; any flicker resets the hold and traffic stays on
///   RF — the same "no residual credit" rule as the SFP re-lock timer.
#[derive(Debug, Clone, Copy)]
pub struct LinkPolicy {
    /// Continuous FSO-down time before failing over to RF (seconds).
    pub failover_delay_s: f64,
    /// Continuous FSO-up time before failing back to FSO (seconds).
    pub failback_hold_s: f64,
    rf_active: bool,
    down_held_s: f64,
    up_held_s: f64,
    cur_rf_s: f64,
    last_rf_s: f64,
    n_failovers: u64,
    n_failbacks: u64,
}

impl Default for LinkPolicy {
    /// 5 ms failover debounce, 250 ms failback hold.
    fn default() -> LinkPolicy {
        LinkPolicy::new(5e-3, 0.25)
    }
}

impl LinkPolicy {
    /// Creates the machine on FSO (RF inactive).
    pub fn new(failover_delay_s: f64, failback_hold_s: f64) -> LinkPolicy {
        LinkPolicy {
            failover_delay_s,
            failback_hold_s,
            rf_active: false,
            down_held_s: 0.0,
            up_held_s: 0.0,
            cur_rf_s: 0.0,
            last_rf_s: 0.0,
            n_failovers: 0,
            n_failbacks: 0,
        }
    }

    /// Advances by `dt` seconds given the FSO link state after this slot's
    /// SFP step. Returns whether RF carries traffic this slot (the failover
    /// slot itself already counts as an RF slot).
    ///
    /// The 1 ns slack on both thresholds matches [`SfpLinkState::step`]:
    /// float accumulation over thousands of sub-millisecond slots must not
    /// land a transition a full slot late.
    #[inline]
    pub fn step(&mut self, fso_up: bool, dt: f64) -> bool {
        if fso_up {
            self.down_held_s = 0.0;
            if self.rf_active {
                self.up_held_s += dt;
                if self.up_held_s >= self.failback_hold_s - 1e-9 {
                    self.rf_active = false;
                    self.n_failbacks += 1;
                    self.last_rf_s = self.cur_rf_s;
                    self.cur_rf_s = 0.0;
                    self.up_held_s = 0.0;
                }
            }
        } else {
            self.up_held_s = 0.0;
            if !self.rf_active {
                self.down_held_s += dt;
                if self.down_held_s >= self.failover_delay_s - 1e-9 {
                    self.rf_active = true;
                    self.n_failovers += 1;
                    self.down_held_s = 0.0;
                }
            }
        }
        if self.rf_active {
            self.cur_rf_s += dt;
        }
        self.rf_active
    }

    /// Whether RF currently carries traffic.
    #[inline]
    pub fn is_rf_active(&self) -> bool {
        self.rf_active
    }

    /// Failovers (FSO → RF transitions) so far.
    pub fn n_failovers(&self) -> u64 {
        self.n_failovers
    }

    /// Failbacks (RF → FSO transitions) so far.
    pub fn n_failbacks(&self) -> u64 {
        self.n_failbacks
    }

    /// Duration of the most recently *ended* RF episode (seconds); the
    /// current episode's accumulated time while one is in progress.
    pub fn last_rf_episode_s(&self) -> f64 {
        if self.rf_active {
            self.cur_rf_s
        } else {
            self.last_rf_s
        }
    }
}

/// RF-fallback counters, with [`ControlStats`]-style saturating deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RfStats {
    /// FSO → RF failovers.
    pub failovers: u64,
    /// RF → FSO failbacks.
    pub failbacks: u64,
    /// Slots during which RF carried traffic.
    pub rf_slots: u64,
}

impl RfStats {
    /// Counters accumulated since `earlier` — field-wise `saturating_sub`,
    /// consistent with [`ControlStats::since`]: a stale or swapped snapshot
    /// clamps to zero instead of wrapping.
    pub fn since(&self, earlier: &RfStats) -> RfStats {
        RfStats {
            failovers: self.failovers.saturating_sub(earlier.failovers),
            failbacks: self.failbacks.saturating_sub(earlier.failbacks),
            rf_slots: self.rf_slots.saturating_sub(earlier.rf_slots),
        }
    }
}

/// A session's RF fallback attachment: the failover machine plus the RF
/// channel it degrades to.
#[derive(Debug, Clone, Copy, Default)]
struct RfFallback {
    policy: LinkPolicy,
    channel: RfChannel,
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
    /// Monotonic virtual clock (simulation time) for scoped timers.
    clock: VirtualClock,
    /// Timer opened at the last SFP down-transition.
    outage_timer: Option<ScopedTimer>,
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
    /// The one true constructor behind the builder. The RNG draw order
    /// here is part of the determinism contract:
    /// one `noisy_report_of` on unit 0's deployment RNG for the pre-start
    /// alignment, then (for [`FirstReport::AfterPeriod`] only) one
    /// `draw_period` on the same RNG.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        mut units: Vec<TxInstallation>,
        mut motion: M,
        occluders: Vec<Occluder>,
        selector: S,
        cfg: EngineConfig,
        telemetry: Telemetry,
        first_report: FirstReport,
        env: Option<crate::channel::Environment>,
    ) -> Self {
        assert!(!units.is_empty());
        let relink = units[0].dep.design.sfp.relink_time_s;
        let pose0 = motion.pose_at(0.0);
        for u in units.iter_mut() {
            u.dep.set_headset_pose(pose0);
        }
        // Align unit 0 against the initial pose, before time zero.
        let clean = units[0].dep.headset.true_reported_pose();
        let rep = noisy_report_of(clean, &cfg.tracker, units[0].dep.rng());
        let cmd = units[0].ctl.on_report(&rep);
        units[0].dep.set_voltages(
            cmd.voltages[0],
            cmd.voltages[1],
            cmd.voltages[2],
            cmd.voltages[3],
        );
        let channel = FsoChannel::new(
            units[0].dep.design.sfp.rx_sensitivity_dbm,
            units[0].dep.design.sfp.rx_overload_dbm,
        );
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
            clock: VirtualClock::default(),
            outage_timer: None,
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
        let slot_s = self.cfg.slot_s;
        let t_slot = self.t + slot_s;
        let moving = !self.cfg.pause_on_outage || self.sfp.is_up();
        let motion_t_slot = if moving {
            self.motion_t + slot_s
        } else {
            self.motion_t
        };
        // Telemetry is pure observation: all emission below is gated on this
        // one flag, and every event fires only after the slot's random draws
        // for that stage have happened, so sinks cannot perturb the streams.
        let tele_on = self.tele.is_active();
        self.clock.advance(slot_s);
        let k_ev = self.slot_idx;
        self.slot_idx += 1;
        if tele_on {
            self.tele
                .emit(&TelemetryEvent::SlotStart { k: k_ev, t: t_slot });
        }

        // 0. Environment: occluders wander.
        for o in self.occluders.iter_mut() {
            o.step(slot_s);
        }

        // 0b. Slot-start pose sync (multi-TX timing model).
        let need_rx = self.cfg.los_gating || self.tx_positions.len() > 1;
        let mut rx_pos = Vec3::ZERO;
        let mut slot_pose: Option<Pose> = None;
        if self.cfg.pose_timing == PoseTiming::SlotStart {
            let pose = self.motion.pose_at(motion_t_slot);
            for u in self.units.iter_mut() {
                u.dep.set_headset_pose(pose);
            }
            if need_rx {
                rx_pos = self.units[self.active].dep.rx_pivot_world();
            }
            slot_pose = Some(pose);
        }

        // 1. Tracking reports due within this slot.
        while self.next_report_t <= t_slot {
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
                    if tele_on {
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
                let pose = self
                    .motion
                    .pose_at(motion_t_slot.min(self.motion_t.max(motion_t_slot - (t_slot - rt))));
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
                if tele_on {
                    self.tele.emit(&TelemetryEvent::CtrlSent { t: rt });
                }
            } else {
                let cmd = u.ctl.on_report(&reported);
                let apply_at = match self.cfg.command_timing {
                    CommandTiming::Scheduled => {
                        // The command is optically effective only after the
                        // control channel, the DAC conversion AND the mirror
                        // settle/slew.
                        let settle = u.dep.settle_estimate(
                            cmd.voltages[0],
                            cmd.voltages[1],
                            cmd.voltages[2],
                            cmd.voltages[3],
                        );
                        let apply_at = rt
                            + self.cfg.tracker.control_channel_latency_s
                            + cmd.latency_s
                            + settle;
                        self.tp.pending.push_back((apply_at, cmd.voltages));
                        apply_at
                    }
                    CommandTiming::Immediate => {
                        u.dep.set_voltages(
                            cmd.voltages[0],
                            cmd.voltages[1],
                            cmd.voltages[2],
                            cmd.voltages[3],
                        );
                        rt
                    }
                };
                if tele_on {
                    self.tele.emit(&TelemetryEvent::TpCommandIssued {
                        t: rt,
                        apply_at,
                        source: CommandSource::Report,
                        latency_s: cmd.latency_s,
                        iters: cmd.iterations as u64,
                        converged: cmd.converged,
                    });
                }
            }
        }

        // 1b. Control-plane deliveries and dead reckoning. Delivered
        // reports already carry the channel latency in their arrival time;
        // only TP compute + settle remain.
        if let Some(link) = self.control.link.as_mut() {
            let delivered = link.poll(t_slot);
            for (t_arr, (t_sample, rep_pose)) in delivered {
                let u = &mut self.units[self.active];
                let cmd = u.ctl.on_report(&rep_pose);
                let settle = u.dep.settle_estimate(
                    cmd.voltages[0],
                    cmd.voltages[1],
                    cmd.voltages[2],
                    cmd.voltages[3],
                );
                let apply_at = t_arr + cmd.latency_s + settle;
                self.tp.pending.push_back((apply_at, cmd.voltages));
                self.tp.on_delivery(t_arr, t_sample, rep_pose);
                if tele_on {
                    self.tele.emit(&TelemetryEvent::CtrlDelivered {
                        t: t_arr,
                        age_s: t_arr - t_sample,
                    });
                    self.tele.emit(&TelemetryEvent::TpCommandIssued {
                        t: t_arr,
                        apply_at,
                        source: CommandSource::Report,
                        latency_s: cmd.latency_s,
                        iters: cmd.iterations as u64,
                        converged: cmd.converged,
                    });
                }
            }
            if let Some(dr) = self.cfg.control.and_then(|c| c.dead_reckoning) {
                let issued = self
                    .tp
                    .dead_reckon(t_slot, dr, &mut self.units[self.active]);
                if tele_on {
                    if let Some((apply_at, cmd)) = issued {
                        self.tele.emit(&TelemetryEvent::TpCommandIssued {
                            t: t_slot,
                            apply_at,
                            source: CommandSource::DeadReckoned,
                            latency_s: cmd.latency_s,
                            iters: cmd.iterations as u64,
                            converged: cmd.converged,
                        });
                    }
                }
            }
        }
        // Synthesize per-slot retransmit/drop events from the cumulative
        // channel counters (the ARQ stack doesn't surface per-frame hooks).
        if tele_on {
            if let Some(cur) = self.control.stats() {
                let d = cur.since(&self.prev_ctrl);
                if d.retransmits > 0 {
                    self.tele.emit(&TelemetryEvent::CtrlRetransmit {
                        t: t_slot,
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
                        self.tele.emit(&TelemetryEvent::CtrlDropped {
                            t: t_slot,
                            n,
                            reason,
                        });
                    }
                }
                self.prev_ctrl = cur;
            }
        }

        // 2. Apply the due commands.
        let n_applied = self.tp.apply_due(t_slot, &mut self.units[self.active].dep);
        if tele_on && n_applied > 0 {
            self.tele.emit(&TelemetryEvent::TpApplied {
                t: t_slot,
                n: n_applied,
            });
        }

        // 3. True pose & optics at slot end.
        let pose = match slot_pose {
            Some(p) => p,
            None => {
                let p = self.motion.pose_at(motion_t_slot);
                for u in self.units.iter_mut() {
                    u.dep.set_headset_pose(p);
                }
                if need_rx {
                    rx_pos = self.units[self.active].dep.rx_pivot_world();
                }
                p
            }
        };
        let los = if self.cfg.los_gating {
            self.unit_los(self.active, rx_pos)
        } else {
            true
        };
        let mut power = if los {
            self.units[self.active].dep.received_power_dbm()
        } else {
            Deployment::POWER_METER_FLOOR_DBM
        };
        // 3a. Environment: path attenuation ahead of the SFP/channel math.
        // Gated on attachment so clean-air sessions never evaluate a stage
        // (the power stream stays bit-identical to the pre-environment
        // engine), and the stages draw no engine RNG — each is a pure
        // function of (t, path) via per-stream `mix64`.
        let env_att_db = match self.env.as_mut() {
            Some(env) => {
                let rx = if need_rx {
                    rx_pos
                } else {
                    self.units[self.active].dep.rx_pivot_world()
                };
                let path_m = rx.distance(self.tx_positions[self.active]);
                env.attenuation_db(t_slot, path_m)
            }
            None => 0.0,
        };
        if env_att_db > 0.0 {
            power -= env_att_db;
        }
        let (lin, ang) = if self.cfg.track_speeds {
            pose_speeds(&self.prev_pose, &pose, slot_s)
        } else {
            (0.0, 0.0)
        };
        self.prev_pose = pose;

        // 3b. Scheduled SFP flaps force loss-of-signal at the receiver (the
        // beam is fine; the transceiver isn't), and the re-acquisition
        // spiral searches for lost *beams*.
        let flap_forced = self
            .cfg
            .control
            .and_then(|c| c.fault.flap)
            .is_some_and(|f| f.forced_down(t_slot));
        let mut signal = !flap_forced && power >= self.channel.sensitivity_dbm;
        if let Some(rq) = self.cfg.control.and_then(|c| c.reacq) {
            let act = self.tp.reacq(
                t_slot,
                rq,
                self.cfg.tracker.period_max_s,
                flap_forced,
                &mut self.units[self.active],
                &self.channel,
                env_att_db,
                &mut power,
                &mut signal,
            );
            if tele_on {
                if act.started {
                    self.tele.emit(&TelemetryEvent::ReacqStarted { t: t_slot });
                }
                if act.probed {
                    self.tele.emit(&TelemetryEvent::ReacqProbe { t: t_slot });
                }
                if let Some(recovered) = act.ended {
                    self.tele.emit(&TelemetryEvent::ReacqEnded {
                        t: t_slot,
                        recovered,
                    });
                }
            }
        }

        // 3c. TX selection (handover).
        let switch_to = self.selector.on_slot(&SelectCtx {
            active: self.active,
            signal,
            slot_s,
            rx_pos,
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
            u.dep.set_voltages(
                cmd.voltages[0],
                cmd.voltages[1],
                cmd.voltages[2],
                cmd.voltages[3],
            );
            if tele_on {
                if spiral_abandoned {
                    // The old unit's spiral dies with the handover.
                    self.tele.emit(&TelemetryEvent::ReacqEnded {
                        t: t_slot,
                        recovered: false,
                    });
                }
                self.tele.emit(&TelemetryEvent::Handover {
                    t: t_slot,
                    from: from as u32,
                    to: best as u32,
                });
                self.tele.emit(&TelemetryEvent::TpCommandIssued {
                    t: t_slot,
                    apply_at: t_slot,
                    source: CommandSource::HandoverShot,
                    latency_s: cmd.latency_s,
                    iters: cmd.iterations as u64,
                    converged: cmd.converged,
                });
            }
        }

        // 4. Data plane.
        let was_up = self.sfp.is_up();
        let up = self.sfp.step(signal, slot_s);
        if was_up && !up {
            self.n_outages += 1;
            self.cur_outage_s = 0.0;
            self.outage_timer = Some(self.clock.start());
            if tele_on {
                self.tele.emit(&TelemetryEvent::SfpDown { t: t_slot });
            }
        }
        if !up {
            self.outage_s += slot_s;
            self.cur_outage_s += slot_s;
            self.longest_outage_s = self.longest_outage_s.max(self.cur_outage_s);
        }
        if !was_up && up {
            let outage = self
                .outage_timer
                .take()
                .map_or(self.cur_outage_s, |tm| tm.elapsed(&self.clock));
            if tele_on {
                self.tele.emit(&TelemetryEvent::SfpUp {
                    t: t_slot,
                    outage_s: outage,
                });
            }
        }
        let mut goodput = if self.cfg.goodput && up {
            let rate = self.units[self.active].dep.design.sfp.optimal_goodput_gbps;
            rate * self.fsp.frame_success_prob(power)
        } else {
            0.0
        };

        // 4b. Hybrid fallback: the RF side channel rides through FSO
        // outages (and through the failback hold — traffic only moves back
        // onto FSO once it has proven stable). With `FallbackPolicy::Off`
        // this whole block is skipped: no extra world queries, no float
        // changes, and the goldens' slot stream is preserved bit-exactly.
        let mut rf_active = false;
        if let Some(rf) = self.rf.as_mut() {
            let was_rf = rf.policy.is_rf_active();
            rf_active = rf.policy.step(up, slot_s);
            if rf_active {
                let rx = if need_rx {
                    rx_pos
                } else {
                    self.units[self.active].dep.rx_pivot_world()
                };
                let tx = self.tx_positions[self.active];
                let occluded = self.occluders.iter().any(|o| o.blocks(tx, rx));
                let rf_rate = if self.cfg.goodput {
                    rf.channel.rate_gbps(tx.distance(rx), occluded)
                } else {
                    0.0
                };
                goodput = rf_rate;
                self.rf_slots += 1;
                self.rf_delivered_gb += rf_rate * slot_s;
            }
            if tele_on && was_rf != rf_active {
                if rf_active {
                    self.tele.emit(&TelemetryEvent::RfFailover { t: t_slot });
                } else {
                    self.tele.emit(&TelemetryEvent::RfFailback {
                        t: t_slot,
                        rf_s: rf.policy.last_rf_episode_s(),
                    });
                }
            }
        }
        let delivering = up || rf_active;

        let rec = EngineSlot {
            t: t_slot,
            active: self.active,
            los,
            power_dbm: power,
            link_up: delivering,
            rf_active,
            goodput_gbps: goodput,
            lin_speed: lin,
            ang_speed: ang,
        };
        if tele_on {
            self.tele.emit(&TelemetryEvent::SlotEnd {
                k: k_ev,
                t: t_slot,
                active: self.active as u32,
                power_dbm: power,
                margin_db: power - self.channel.sensitivity_dbm,
                link_up: delivering,
                rf_active,
                goodput_gbps: goodput,
            });
        }
        self.t = t_slot;
        self.motion_t = motion_t_slot;
        rec
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
        let first_report = self.first_report.unwrap_or(if self.units.len() == 1 {
            FirstReport::AfterPeriod
        } else {
            FirstReport::AtZero
        });
        Ok(LinkSession::assemble(
            self.units,
            self.motion,
            self.occluders,
            self.selector,
            self.cfg,
            self.telemetry,
            first_report,
            self.environment,
        ))
    }
}

// ---------------------------------------------------------------------------
// The §5.4 trace session
// ---------------------------------------------------------------------------

/// The §5.4 drift-model session: plays a head trace against the paper's
/// realignment/drift/tolerance rules, one boolean (connected?) per slot.
/// [`crate::trace_sim::simulate_trace`] is this session under [`run_slots`].
#[derive(Debug)]
pub struct TraceSession<'a> {
    trace: &'a HeadTrace,
    // Per-pair drift rates, precomputed once per trace and cached on it
    // (`HeadTrace::motion_rates`): the exact IEEE values `step_slot` would
    // compute per report, so consuming them is bit-identical — and repeated
    // simulations of one trace (parameter sweeps, benchmark reps) skip the
    // norm/acos work entirely.
    rates: &'a [cyclops_vrh::traces::MotionRate],
    p: crate::trace_sim::TraceSimParams,
    // Misalignment state, starting perfectly aligned.
    lat: f64,
    ang: f64,
    // Drift rates (per ms), from the most recent report pair.
    lat_rate: f64,
    ang_rate: f64,
    // Pending realignment completion time (ms) and whether it is a
    // dead-reckoned (extrapolated) one.
    realign_at: Option<(f64, bool)>,
    report_idx: usize,
}

impl<'a> TraceSession<'a> {
    /// Creates the session over a trace (which must have ≥ 2 samples).
    pub fn new(trace: &'a HeadTrace, p: crate::trace_sim::TraceSimParams) -> TraceSession<'a> {
        assert!(trace.len() >= 2, "need at least two samples");
        TraceSession {
            trace,
            rates: trace.motion_rates(),
            p,
            lat: 0.0,
            ang: 0.0,
            lat_rate: 0.0,
            ang_rate: 0.0,
            realign_at: None,
            report_idx: 0,
        }
    }

    /// Runs the session for `n_slots`, returning the per-slot connectivity —
    /// bit-identical to `run_slots(self, n_slots)` but several times faster
    /// (see `DESIGN.md` §12 for the measured numbers).
    ///
    /// Between events (a report arriving, a realignment completing) the only
    /// per-slot work in [`SlotSession::step_slot`] is the drift accumulation
    /// `lat += lat_rate * slot_ms` and the tolerance compare; the event
    /// checks are branches over state that cannot change mid-segment. This
    /// runner hoists those checks out: it finds the next event time
    /// (`min(next report, pending realignment)`), runs the drift-only slots
    /// before it in a fused loop (the hoisted `lat_rate * slot_ms` product
    /// is the same IEEE value every slot, so the accumulation sequence is
    /// bitwise unchanged), and handles the event slot inline with the exact
    /// operation sequence of `step_slot` (report consumption, realignment
    /// completion, drift, tolerance compare — in that order). Segment
    /// boundaries are decided by the *same* exact comparison `step_slot`
    /// uses (`event_t <= (k as f64 + 1.0) * slot_ms`), so float rounding
    /// cannot shift a slot across the boundary. Pinned by the `trace_corpus`
    /// engine-digest golden (which folds per-slot booleans) and by the
    /// `fused_run_matches_step_slot_exactly` test.
    pub fn run(&mut self, n_slots: usize) -> Vec<bool> {
        let mut out = Vec::with_capacity(n_slots);
        self.run_impl(n_slots, |b| out.push(b));
        out
    }

    /// Runs the session for `n_slots`, returning only the number of
    /// connected slots — the same fused loop as [`TraceSession::run`]
    /// without materializing (or allocating) the per-slot vector. The count
    /// equals `run(n_slots).iter().filter(|&&b| b).count()` exactly;
    /// [`crate::trace_sim::simulate_corpus`] uses this path since the Fig-16
    /// CDF only needs per-trace on-fractions.
    pub fn run_count(&mut self, n_slots: usize) -> usize {
        let mut on = 0usize;
        self.run_impl(n_slots, |b| on += b as usize);
        on
    }

    /// The fused slot loop behind [`TraceSession::run`] /
    /// [`TraceSession::run_count`]: `emit` is called exactly once per slot,
    /// in slot order, with the same boolean `step_slot` would produce.
    ///
    /// Structure (one outer iteration per report period in the common case):
    /// fused drift-only segment to the next report; the report slot's event
    /// logic inline (verbatim `step_slot` operation order); then, when the
    /// resulting realignment completes before the next report arrives (the
    /// paper's 1.5 ms latency vs 10 ms report period), the 1–2 window slots
    /// as another fused segment and the completion slot inline. Segment
    /// boundaries are decided by the *same* exact comparison `step_slot`
    /// uses (`event_t <= (k as f64 + 1.0) * slot_ms`), and the hoisted
    /// `rate * slot_ms` products are the same IEEE values every slot, so
    /// the accumulation sequence is bitwise unchanged.
    #[inline]
    fn run_impl(&mut self, n_slots: usize, mut emit: impl FnMut(bool)) {
        let p = self.p;
        let slot_ms = p.slot_ms;
        let inv_slot = 1.0 / slot_ms;
        let tol_l = p.tol_lat_m;
        let tol_a = p.tol_ang_rad;
        let rates = self.rates;
        let n_rates = rates.len();
        // Session state lives in locals for the duration of the run (written
        // back at the end) so the hot loop never round-trips through `self`.
        let mut lat = self.lat;
        let mut ang = self.ang;
        let mut lat_rate = self.lat_rate;
        let mut ang_rate = self.ang_rate;
        let mut realign_at = self.realign_at;
        let mut report_idx = self.report_idx;
        let mut k = 0usize;

        // First slot whose end time (k+1)*slot_ms reaches event time `ev`:
        // a reciprocal-multiply guess, then corrected by the *exact*
        // comparison step_slot itself performs — float rounding in the guess
        // cannot shift the boundary.
        macro_rules! boundary {
            ($ev:expr) => {{
                let ev = $ev;
                if ev == f64::INFINITY {
                    n_slots
                } else {
                    let mut g = (((ev * inv_slot - 1.0).max(k as f64)) as usize).min(n_slots);
                    // `black_box` keeps LLVM from auto-vectorizing these
                    // 0-or-1-step correction walks into a 16-wide search
                    // (it assumes a trip count of ~`n_slots` from the loop
                    // bound; the vector prologue alone costs ~10× the walk).
                    while g > k && g as f64 * slot_ms >= ev {
                        g = std::hint::black_box(g - 1);
                    }
                    while g < n_slots && (g as f64 + 1.0) * slot_ms < ev {
                        g = std::hint::black_box(g + 1);
                    }
                    g
                }
            }};
        }
        // One event slot at index `k`: step_slot's operation sequence,
        // verbatim (report consumption, realignment completion, drift,
        // tolerance compare). Advances `k`.
        macro_rules! event_slot {
            () => {{
                let t_ms = (k as f64 + 1.0) * slot_ms;
                while report_idx < n_rates && rates[report_idx].t_report_ms <= t_ms {
                    let r = rates[report_idx];
                    report_idx += 1;
                    lat_rate = r.lat_per_ms;
                    ang_rate = r.ang_per_ms;
                    let lost = p.report_loss_prob > 0.0
                        && unit(cyclops_par::mix64(p.loss_seed, report_idx as u64))
                            < p.report_loss_prob;
                    if !lost {
                        realign_at = Some((r.t_report_ms + p.realign_latency_ms, false));
                    } else if p.dead_reckoning {
                        realign_at = Some((r.t_report_ms + p.realign_latency_ms, true));
                    }
                }
                if let Some((when, dr)) = realign_at {
                    if when <= t_ms {
                        let scale = if dr { p.dr_residual_scale } else { 1.0 };
                        lat = p.residual_lat_m * scale;
                        ang = p.residual_ang_rad * scale;
                        realign_at = None;
                    }
                }
                lat += lat_rate * slot_ms;
                ang += ang_rate * slot_ms;
                emit((lat <= tol_l) & (ang <= tol_a));
                k += 1;
            }};
        }
        // Fused drift-only segment [k, `$to`): no report arrives and no
        // realignment completes in these slots.
        macro_rules! drift_to {
            ($to:expr) => {{
                let to = $to;
                let lr = lat_rate * slot_ms;
                let ar = ang_rate * slot_ms;
                while k < to {
                    lat += lr;
                    ang += ar;
                    emit((lat <= tol_l) & (ang <= tol_a));
                    k += 1;
                }
            }};
        }

        while k < n_slots {
            if realign_at.is_some() {
                // Rare path (realignment latency exceeding the report
                // period, or a window cut by the trace end): one verbatim
                // per-slot step until the window resolves.
                event_slot!();
                continue;
            }
            // Drift to the next report, then the report slot itself.
            let next_report = if report_idx < n_rates {
                rates[report_idx].t_report_ms
            } else {
                f64::INFINITY
            };
            drift_to!(boundary!(next_report));
            if k >= n_slots {
                break;
            }
            event_slot!();
            // Fast path for the realignment window the report just opened:
            // if it completes before the next report arrives, its 1–2 slots
            // are drift-only — fuse them and run the completion slot inline,
            // all within this iteration.
            if let Some((when, _)) = realign_at {
                let nr = if report_idx < n_rates {
                    rates[report_idx].t_report_ms
                } else {
                    f64::INFINITY
                };
                // The window is 1–2 slots (1.5 ms latency vs 10 ms report
                // period), so a direct fused check loop beats the generic
                // boundary machinery. Window slots must see no report
                // (`nr > t_ms`) and no completion (`when > t_ms`) — the
                // exact `step_slot` comparisons; the completion slot
                // itself runs verbatim via `event_slot!`.
                let lr = lat_rate * slot_ms;
                let ar = ang_rate * slot_ms;
                let mut t_ms = (k as f64 + 1.0) * slot_ms;
                while k < n_slots && when > t_ms && nr > t_ms {
                    lat += lr;
                    ang += ar;
                    emit((lat <= tol_l) & (ang <= tol_a));
                    k = std::hint::black_box(k + 1);
                    t_ms = (k as f64 + 1.0) * slot_ms;
                }
                if k < n_slots && when <= t_ms && nr > t_ms {
                    event_slot!();
                }
            }
        }
        self.lat = lat;
        self.ang = ang;
        self.lat_rate = lat_rate;
        self.ang_rate = ang_rate;
        self.realign_at = realign_at;
        self.report_idx = report_idx;
    }
}

impl SlotSession for TraceSession<'_> {
    type Record = bool;

    fn step_slot(&mut self, k: usize) -> bool {
        let p = &self.p;
        let t_ms = (k as f64 + 1.0) * p.slot_ms;

        // Reports that arrived by this slot.
        while self.report_idx + 1 < self.trace.len()
            && self.trace.samples[self.report_idx + 1].t_ms <= t_ms
        {
            self.report_idx += 1;
            let b_t_ms = self.trace.samples[self.report_idx].t_ms;
            // Drift tracks true motion regardless of report delivery. The
            // rates are the precomputed exact values of the pair math
            // (`HeadTrace::motion_rates`).
            let r = self.rates[self.report_idx - 1];
            self.lat_rate = r.lat_per_ms;
            self.ang_rate = r.ang_per_ms;
            let lost = p.report_loss_prob > 0.0
                && unit(cyclops_par::mix64(p.loss_seed, self.report_idx as u64))
                    < p.report_loss_prob;
            if !lost {
                self.realign_at = Some((b_t_ms + p.realign_latency_ms, false));
            } else if p.dead_reckoning {
                // The TP realigns on the extrapolated pose instead — same
                // latency, degraded residual.
                self.realign_at = Some((b_t_ms + p.realign_latency_ms, true));
            }
            // Lost without DR: no realignment; drift keeps accruing until
            // the next delivered report.
        }

        // Realignment completion.
        if let Some((when, dr)) = self.realign_at {
            if when <= t_ms {
                let scale = if dr { p.dr_residual_scale } else { 1.0 };
                self.lat = p.residual_lat_m * scale;
                self.ang = p.residual_ang_rad * scale;
                self.realign_at = None;
            }
        }

        // Drift accrues every slot.
        self.lat += self.lat_rate * p.slot_ms;
        self.ang += self.ang_rate * p.slot_ms;

        self.lat <= p.tol_lat_m && self.ang <= p.tol_ang_rad
    }
}

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
    /// Starts a validating builder over the default fleet configuration.
    pub fn builder() -> FleetConfigBuilder {
        FleetConfigBuilder {
            cfg: FleetConfig::default(),
        }
    }

    /// Checks the configuration: at least one session, a finite positive
    /// duration, a finite non-negative debounce, valid occluder templates
    /// and a valid per-session engine config.
    pub(crate) fn validate(&self) -> Result<(), EngineConfigError> {
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

/// Validating builder for [`FleetConfig`] (entry point:
/// [`FleetConfig::builder`]).
#[derive(Debug, Clone)]
pub struct FleetConfigBuilder {
    cfg: FleetConfig,
}

impl FleetConfigBuilder {
    /// Sets the number of concurrent sessions.
    pub fn n_sessions(mut self, n: usize) -> Self {
        self.cfg.n_sessions = n;
        self
    }

    /// Sets the per-session duration (seconds).
    pub fn duration_s(mut self, duration_s: f64) -> Self {
        self.cfg.duration_s = duration_s;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets the per-session motion model.
    pub fn motion(mut self, motion: ArbitraryMotionConfig) -> Self {
        self.cfg.motion = motion;
        self
    }

    /// Sets the base pose sessions start from.
    pub fn base_pose(mut self, base_pose: Pose) -> Self {
        self.cfg.base_pose = base_pose;
        self
    }

    /// Sets the control-plane template.
    pub fn control(mut self, control: ControlPlaneConfig) -> Self {
        self.cfg.control = Some(control);
        self
    }

    /// Adds an occluder template.
    pub fn occluder(mut self, occluder: Occluder) -> Self {
        self.cfg.occluders.push(occluder);
        self
    }

    /// Sets the handover debounce (seconds).
    pub fn debounce_s(mut self, debounce_s: f64) -> Self {
        self.cfg.debounce_s = debounce_s;
        self
    }

    /// Sets the §5.3 pause-on-outage protocol.
    pub fn pause_on_outage(mut self, pause: bool) -> Self {
        self.cfg.pause_on_outage = pause;
        self
    }

    /// Enables per-session telemetry counters and the fleet roll-up.
    pub fn collect_telemetry(mut self, collect: bool) -> Self {
        self.cfg.collect_telemetry = collect;
        self
    }

    /// Sets the hybrid FSO/RF fallback policy for every session.
    pub fn fallback(mut self, fallback: FallbackPolicy) -> Self {
        self.cfg.fallback = fallback;
        self
    }

    /// Sets the tracker timing/noise model for every session.
    pub fn tracker(mut self, tracker: TrackerConfig) -> Self {
        self.cfg.tracker = tracker;
        self
    }

    /// Sets the environment template; an empty environment is stored as
    /// `None` (the clean-air fast path).
    pub fn environment(mut self, env: crate::channel::Environment) -> Self {
        self.cfg.environment = if env.is_empty() { None } else { Some(env) };
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<FleetConfig, EngineConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cyclops_core::commission::{commission, SystemConfig};
    use cyclops_geom::vec3::v3;

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
    use std::sync::Arc;

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
                .config(EngineConfig::multi_tx(TrackerConfig::default()))
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
        let cfg = FleetConfig::builder()
            .n_sessions(3)
            .duration_s(0.4)
            .seed(77)
            .collect_telemetry(true)
            .build()
            .expect("valid fleet config");
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
        assert!(matches!(
            FleetConfig::builder().n_sessions(0).build(),
            Err(EngineConfigError::InvalidFleet(_))
        ));
        assert!(matches!(
            FleetConfig::builder().duration_s(0.0).build(),
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
            assert!(invalid(
                FleetConfig::builder().occluder(o.clone()).build().map(drop)
            ));
            // Fleets assembled without the builder are checked by the
            // fallible drivers before any session runs.
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
        let units = two_units(902);
        let tx0 = units[0].dep.tx_world_params().q2;
        let rx = v3(0.0, 0.0, 1.75);
        let occ = Occluder::new(tx0.lerp(rx, 0.5), 0.12, 0.0, 1);
        let mut cfg = EngineConfig::multi_tx(TrackerConfig::default());
        cfg.fallback = fallback;
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
            // The multi-TX profile disables goodput accounting; the RF path
            // must respect that gate too.
            assert_eq!(y.goodput_gbps.to_bits(), 0.0f64.to_bits());
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
            let cfg = FleetConfig::builder()
                .n_sessions(4)
                .duration_s(1.5)
                .seed(424)
                .control(ControlPlaneConfig::hardened(FaultPlan::stress(5)))
                .occluder(Occluder::new(tx0.lerp(base, 0.5), 0.12, 0.4, 1))
                .fallback(fallback)
                .build()
                .expect("valid fleet config");
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
            .config(EngineConfig::multi_tx(TrackerConfig::default()))
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
}
