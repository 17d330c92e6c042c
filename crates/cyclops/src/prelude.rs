//! Curated re-exports for typical use.
//!
//! ```
//! use cyclops::prelude::*;
//! ```

pub use crate::system::{CommissioningReport, CyclopsSystem, SystemConfig};

pub use cyclops_geom::pose::{Pose, Pose6};
pub use cyclops_geom::quat::Quat;
pub use cyclops_geom::ray::Ray;
pub use cyclops_geom::vec3::Vec3;

pub use cyclops_optics::amplifier::Edfa;
pub use cyclops_optics::beam::BeamState;
pub use cyclops_optics::coupling::{CouplingModel, LinkDesign, ReceiverGeometry};
pub use cyclops_optics::galvo::{GalvoError, GalvoParams, GalvoSim, GalvoSimConfig};
pub use cyclops_optics::sfp::SfpSpec;

pub use cyclops_core::deployment::{Deployment, DeploymentConfig};
pub use cyclops_core::gprime::{gprime, gprime_default};
pub use cyclops_core::kspace::{BoardConfig, KspaceError};
pub use cyclops_core::pointing::{pointing, pointing_default};
pub use cyclops_core::tolerance::{lateral_tolerance, rx_angular_tolerance, tx_angular_tolerance};
pub use cyclops_core::tp::{TpConfig, TpController};

pub use cyclops_vrh::motion::{
    ArbitraryMotion, LinearRail, Motion, RotationStage, StaticPose, TracePlayback,
};
pub use cyclops_vrh::traces::{HeadTrace, TraceGenConfig};
pub use cyclops_vrh::tracking::{TrackerConfig, TrackingReport, VrhTracker};

pub use cyclops_link::channel::{
    EnvChannel, EnvStage, Environment, FogStage, HumanOccluderStage, RainStage, RfChannel,
    ScintillationStage,
};
pub use cyclops_link::control::{
    ArqConfig, ControlLink, ControlPlaneConfig, ControlStats, DeadReckoningConfig, FaultPlan,
    FlapSchedule, ReacqConfig,
};
pub use cyclops_link::engine::{
    run_fleet, run_fleet_mixed, EngineConfig, EngineConfigError, EngineSlot, FallbackPolicy,
    FirstReport, FleetConfig, FleetPool, FleetRollup, FleetRollupAcc, FleetSummary, LinkPolicy,
    LinkSession, Occluder, RfStats, SessionBuilder, SessionReport, SessionStats, TxInstallation,
};
pub use cyclops_link::registry::{
    galvo_profile, galvo_profiles, headset_profile, headset_profiles, sfp_profile, sfp_profiles,
    GalvoProfileDef, HardwareProfile, HardwareProfileBuilder, HeadsetProfileDef, RegistryError,
    SfpProfileDef,
};
pub use cyclops_link::sched::{
    run_fleet_scheduled, run_fleet_with_scheduler, GrantEngine, GrantSet, GreedyMaxMargin,
    ProportionalFair, SchedConfig, SchedCtx, SchedPolicy, SchedRollup, SchedSessionStats,
    SessionSlotState, StaticPartition, TxScheduler,
};
pub use cyclops_link::telemetry::{
    Histogram, JsonlSink, NullSink, SessionTelemetry, Telemetry, TelemetryCounters, TelemetryEvent,
    TelemetrySink,
};
pub use cyclops_link::trace_sim::{
    replay_with_fallback, simulate_trace, FallbackReplay, TraceSimParams,
};
pub use cyclops_link::traffic::{TrafficConfig, TrafficSource, TrafficStats};
