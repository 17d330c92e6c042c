//! # cyclops-link
//!
//! The data plane of the Cyclops reproduction: what happens to *bits* once
//! the optics deliver (or fail to deliver) photons.
//!
//! * [`channel`] — received power → BER → frame-loss, anchored at the SFP's
//!   specified sensitivity (BER 10⁻¹² at sensitivity, Gaussian-noise OOK
//!   scaling above/below);
//! * [`control`] — the reliable control channel (sequence-numbered ARQ
//!   with dedup, timeouts and capped backoff) and the deterministic
//!   fault-injection layer (`FaultPlan`) behind the chaos suite;
//! * [`sfp_state`] — the link up/down state machine with the multi-second
//!   re-lock the paper observed ("once the link is lost, it takes a few
//!   seconds to regain", §5.3);
//! * [`engine`] — the unified slot-clocked simulation engine: one scheduler
//!   driving pluggable components (motion source, TP policy, control plane,
//!   channel model, TX selector), plus multi-session fleet workloads and
//!   the paper's 50 ms iperf \[42\] windows ([`engine::windows_50ms`]);
//!   every session is built through [`engine::LinkSession::builder`];
//! * [`telemetry`] — deterministic engine observability: slot/TP/control/
//!   SFP/handover events, counter + histogram aggregation and a JSONL
//!   sink, all on simulation time so instrumented runs stay bit-identical;
//! * [`registry`] — the hardware device registry: data-driven
//!   SFP/galvo/headset capability profiles with named presets and a
//!   validating builder, so fleets mix heterogeneous hardware;
//! * [`trace_sim`] — the §5.4 user-trace connectivity simulation (Fig 16),
//!   implemented with exactly the paper's drift/tolerance methodology — a
//!   trace engine session.
//!
//! The §3 multi-TX extension ("to circumvent occasional occlusions ...
//! multiple TXs on the ceiling with appropriate handover techniques") is an
//! [`engine`] configuration: several [`engine::TxInstallation`]s, moving
//! [`engine::Occluder`]s and a [`engine::TxSelector`].
//!
//! The composable environment layer (fog, rain, scintillation, human
//! occluders) lives in [`channel`] as [`channel::EnvStage`] stacks; attach
//! one to a session via [`engine::SessionBuilder::environment`] or a fleet
//! via `FleetConfig`.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod channel;
pub mod control;
pub mod engine;
pub mod registry;
pub mod sched;
pub mod sfp_state;
pub mod telemetry;
pub mod trace_sim;
pub mod traffic;
pub mod video;

pub use channel::{
    EnvChannel, EnvStage, Environment, FogStage, FsoChannel, HumanOccluderStage, RainStage,
    RfChannel, ScintillationStage,
};
pub use control::{
    slots_in, ArqConfig, ControlLink, ControlPlaneConfig, ControlStats, DeadReckoningConfig,
    FaultPlan, FlapSchedule, ReacqConfig,
};
pub use engine::{
    run_fleet, run_fleet_mixed, run_slots, BestMargin, DarkDebounce, EngineConfig,
    EngineConfigError, EngineSlot, FallbackPolicy, FirstReport, FleetConfig, FleetPool,
    FleetRollup, FleetSummary, LinkPolicy, LinkSession, MarginSelector, RfStats, SessionBuilder,
    SessionReport, SessionStats, SingleTx, SlotSession, TxInstallation, TxSelector,
};
pub use registry::{
    galvo_profile, galvo_profiles, headset_profile, headset_profiles, sfp_profile, sfp_profiles,
    GalvoProfileDef, HardwareProfile, HardwareProfileBuilder, HeadsetProfileDef, RegistryError,
    SfpProfileDef,
};
pub use sfp_state::SfpLinkState;
pub use telemetry::{
    CommandSource, DropReason, Histogram, JsonlSink, NullSink, SessionTelemetry, Telemetry,
    TelemetryCounters, TelemetryEvent, TelemetrySink,
};
pub use trace_sim::{
    replay_with_fallback, simulate_trace, FallbackReplay, TraceSimParams, TraceSimResult,
};
