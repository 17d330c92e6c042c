//! The unified simulation engine: one slot-clocked scheduler driving the
//! full-physics session over pluggable motion and TX selection.
//!
//! The single-TX link simulator (Figs 13–15), the full-physics multi-TX
//! handover and the §5.4 trace drift model are *configurations* of this
//! engine rather than bespoke loops:
//!
//! ```text
//!                      ┌────────────────────────────┐
//!                      │  slot clock (run / fused)  │
//!                      └─────────────┬──────────────┘
//!                                    │ step_slot(k)
//!                      ┌─────────────▼──────────────┐
//!   Motion ──────────▶ │                            │ ◀──── ControlLink
//!   (vrh motion /      │     LinkSession<M, S>      │       (none = perfect,
//!    trace playback)   │                            │        or ARQ + faults)
//!                      │  report → TP → optics →    │
//!   TxSelector ──────▶ │  channel → SFP → record    │ ◀──── FsoChannel
//!   (single / dark-    │                            │       (power → BER →
//!    debounce / margin)└─────────────┬──────────────┘        frame loss)
//!                                    │ TpPolicy (pending commands,
//!                                    ▼  dead reckoning, re-acq spiral)
//!                               EngineSlot
//! ```
//!
//! The components:
//!
//! * [`Motion`](cyclops_vrh::motion::Motion) — where the headset truly is
//!   (`vrh` motion models and trace playback);
//! * [`TpPolicy`] — what the TP does with reports: scheduled command queue,
//!   dead reckoning on stale channels, re-acquisition spiral on lost beams;
//! * [`ControlLink`](crate::control::ControlLink) — how reports travel: with
//!   [`EngineConfig::control`] unset the channel is perfect (i.i.d. report
//!   loss from the deployment RNG), otherwise the sequence-numbered ARQ
//!   stack over the deterministic fault layer;
//! * [`FsoChannel`](crate::channel::FsoChannel) — what the photons
//!   deliver: received power → BER → frame-success;
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
//! [`LinkSession`] slot runs five stages in order: environment, tracking and
//! control delivery, command apply, optics and selection, and the data
//! plane.
//!
//! Every [`LinkSession`] runs one timing model, the paper's (§4.3, §5.4):
//! each report's pose is sampled at the report time, and its TP command is
//! queued behind control latency + TP compute + galvo settle, so the beam
//! realigns 1–2 ms after the report. Only the shot that aims a newly
//! selected unit after a handover applies at once. The pose is synced into
//! the unit worlds once per slot, at slot end, and goodput is always
//! accounted. The §3 multi-TX extension is this same session with several
//! units, [`EngineConfig::los_gating`] and a handover selector.

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

// ---------------------------------------------------------------------------
// Slot clock
// ---------------------------------------------------------------------------

/// A simulation that advances in fixed slots, one
/// [`SlotSession::step_slot`] call per slot.
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
    /// current run) and returns its record.
    fn step_slot(&mut self, k: usize) -> Self::Record;
}

// ---------------------------------------------------------------------------
// Session configuration
// ---------------------------------------------------------------------------

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
    /// 1 ms slots, the default tracker, 12 kbit frames, no control plane,
    /// no occluder gating, speed tracking on, fallback off.
    fn default() -> Self {
        EngineConfig {
            slot_s: 1e-3,
            tracker: TrackerConfig::default(),
            frame_bits: 12_000,
            pause_on_outage: false,
            control: None,
            los_gating: false,
            track_speeds: true,
            fallback: FallbackPolicy::Off,
        }
    }
}

impl EngineConfig {
    /// Validates the configuration ([`SessionBuilder::build`] runs this
    /// before constructing a session).
    pub fn validate(&self) -> Result<(), EngineConfigError> {
        if !(self.slot_s.is_finite() && self.slot_s > 0.0) {
            return Err(EngineConfigError::InvalidSlot);
        }
        if self.frame_bits == 0 {
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
    /// `frame_bits` is zero.
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
            EngineConfigError::ZeroFrameBits => write!(f, "frame_bits must be nonzero"),
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
    /// a full tracker period later (the single-TX methodology; the
    /// builder's default).
    AfterPeriod,
    /// A report also fires at t = 0 (the multi-TX and fleet methodology).
    AtZero,
}

#[cfg(test)]
pub(crate) mod tests;
