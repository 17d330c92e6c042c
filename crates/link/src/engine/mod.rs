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
//! Sessions are built through the validating [`LinkSession::builder`], and
//! fleets are checked by [`FleetConfig::validate`]: both reject a bad
//! configuration up front with an [`EngineConfigError`]. The builder injects
//! [`crate::telemetry`] observers at construction time. Telemetry is pure
//! observation: events are emitted only after every random draw of the slot
//! has happened, so attaching a sink cannot move the engine's RNG or float
//! streams (pinned by the `engine_digest` identity checks).
//!
//! The code is split by concern. This module holds the slot clock and the
//! configuration; `select` the occluders and TX selectors; `fallback` the
//! RF failover machine; `session` the TP policy, [`LinkSession`] and its
//! builder; `trace` the [`TraceSession`]; `fleet` the fleet drivers. A
//! [`LinkSession`] slot runs five stages in order: environment and pose
//! sync, tracking and control delivery, command apply, optics and
//! selection, and the data plane.

use crate::channel::FsoChannel;
use crate::control::ControlPlaneConfig;
use cyclops_vrh::tracking::TrackerConfig;

mod fallback;
mod fleet;
mod select;
mod session;
mod trace;

pub use fallback::*;
pub use fleet::*;
pub use select::*;
pub use session::*;
pub use trace::*;

/// Where the headset truly is: the engine's motion component. This is the
/// `vrh` [`Motion`](cyclops_vrh::motion::Motion) trait under its engine-facing name — every motion model
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

#[cfg(test)]
pub(crate) mod tests;
