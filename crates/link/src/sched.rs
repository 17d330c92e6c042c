//! **Shared-TX scheduling** — the venue-scale contention layer.
//!
//! The unscheduled fleet ([`run_fleet`](crate::engine::run_fleet)) gives every session a private clone
//! of the TX pool: N headsets, zero contention. This module makes the pool a
//! shared, scheduled resource: each slot a [`TxScheduler`] assigns TX units
//! to sessions, and a unit steering at session A is dark for session B that
//! slot. Demand comes from the [`traffic`](crate::traffic) layer (bursty
//! viewport frames + playout buffer), so goodput rolls up into a stall-time
//! QoE metric per session.
//!
//! # Determinism and the physics contract
//!
//! Each session still integrates its own full physics — motion, tracking,
//! TP, optics, SFP — against per-session unit replicas, exactly as the
//! unscheduled fleet does and in the same per-session `mix64` streams. The
//! replicas are *counterfactual channel state*: "what would this TX deliver
//! were it steering at this headset". The scheduler is a pure overlay on
//! top: it observes each session's slot observables (active unit, signal,
//! margin, demand) and gates *delivery* — an ungranted session transports
//! nothing that slot no matter what its channel would have carried. The FSO
//! timeline (power, outages, handovers, control) is therefore
//! policy-invariant and bit-identical to [`run_fleet`](crate::engine::run_fleet) for every policy,
//! which is what keeps the engine-digest goldens stable and makes
//! policy ablations apples-to-apples. The scheduled slot loop is serial and
//! RNG-free, so per-seed bit-identity holds at any thread count.
//!
//! # Grant mechanics
//!
//! [`GrantEngine`] owns the slot-clocked mechanics shared by every policy:
//!
//! - **Stickiness**: a grant holds for [`SchedConfig::min_hold_slots`]
//!   before the policy is consulted again, so schedulers cannot thrash.
//! - **Occlusion/handover-aware release**: a grant is revoked early the
//!   moment its session stops being servable — beam occluded, SFP down,
//!   handed over to a different unit, or queue drained — freeing the unit
//!   for reassignment that same slot.
//! - **Retarget penalty**: when a unit switches sessions it spends
//!   [`SchedConfig::retarget_penalty_slots`] re-steering (dark), so
//!   preemption has a price.
//! - **Admission control**: [`TxScheduler::admit`] caps how many sessions
//!   enter service ([`SchedConfig::max_sessions_per_unit`]).
//!
//! Policies only rank: [`StaticPartition`] (sessions pinned to units by
//! index, rotated on a fixed quantum, blind to channel state — the
//! baseline), [`GreedyMaxMargin`] (best instantaneous margin wins —
//! maximizes aggregate goodput, starves the weak), and [`ProportionalFair`]
//! (rate normalized by an EWMA of received service, fairness knob `alpha` —
//! trades a little aggregate goodput for worst-session QoE).

use crate::control::slots_in;
use crate::engine::{
    build_fleet_session, EngineConfigError, EngineSlot, FleetConfig, FleetSummary, SlotSession,
    SlotSums, TxInstallation,
};
use crate::telemetry::TelemetryEvent;
use crate::traffic::{TrafficConfig, TrafficSource};
use cyclops_par::mix64;

/// Floor on the PF throughput average (Gbps) so unserved sessions have
/// finite, comparable scores.
const PF_EPS_GBPS: f64 = 1e-3;

// ---------------------------------------------------------------------------
// Grants
// ---------------------------------------------------------------------------

/// The slot's TX-unit → session assignment. Enforces the core invariant:
/// a unit serves at most one session and a session holds at most one unit.
#[derive(Debug, Clone)]
pub struct GrantSet {
    /// session → unit.
    unit_of: Vec<Option<u32>>,
    /// unit → session.
    session_of: Vec<Option<u32>>,
}

impl GrantSet {
    /// An empty grant set for `n_sessions` sessions over `n_units` units.
    pub fn new(n_sessions: usize, n_units: usize) -> GrantSet {
        GrantSet {
            unit_of: vec![None; n_sessions],
            session_of: vec![None; n_units],
        }
    }

    /// Grants `unit` to `session`. Returns `false` (and changes nothing) if
    /// either side is already taken — a unit cannot serve two sessions in
    /// one slot, and a session cannot hold two beams.
    pub fn grant(&mut self, session: usize, unit: usize) -> bool {
        if self.unit_of[session].is_some() || self.session_of[unit].is_some() {
            return false;
        }
        self.unit_of[session] = Some(unit as u32);
        self.session_of[unit] = Some(session as u32);
        true
    }

    /// Revokes whatever grant `unit` holds.
    pub fn release_unit(&mut self, unit: usize) {
        if let Some(s) = self.session_of[unit].take() {
            self.unit_of[s as usize] = None;
        }
    }

    /// The unit granted to `session`, if any.
    pub fn unit_of(&self, session: usize) -> Option<usize> {
        self.unit_of[session].map(|u| u as usize)
    }

    /// The session holding `unit`, if any.
    pub fn session_of(&self, unit: usize) -> Option<usize> {
        self.session_of[unit].map(|s| s as usize)
    }

    /// Grants currently held.
    pub fn n_granted(&self) -> usize {
        self.session_of.iter().filter(|s| s.is_some()).count()
    }

    /// Debug check of the bidirectional mapping (used by the proptests).
    pub fn is_consistent(&self) -> bool {
        for (u, s) in self.session_of.iter().enumerate() {
            if let Some(s) = s {
                if self.unit_of[*s as usize] != Some(u as u32) {
                    return false;
                }
            }
        }
        for (s, u) in self.unit_of.iter().enumerate() {
            if let Some(u) = u {
                if self.session_of[*u as usize] != Some(s as u32) {
                    return false;
                }
            }
        }
        true
    }
}

// ---------------------------------------------------------------------------
// Scheduler interface
// ---------------------------------------------------------------------------

/// One session's slot observables, as the scheduler sees them. Everything
/// here is derived from the session's own deterministic physics and traffic
/// state — schedulers observe, they never feed the physics.
#[derive(Debug, Clone, Copy)]
pub struct SessionSlotState {
    /// Session index.
    pub session: usize,
    /// Passed admission control at fleet start.
    pub admitted: bool,
    /// The unit the session's tracking/TP stack currently uses.
    pub active_unit: usize,
    /// Received power on the active unit is above SFP sensitivity.
    pub signal: bool,
    /// The FSO link is up (SFP locked, not RF-carried).
    pub link_up: bool,
    /// Link margin over sensitivity on the active unit (dB).
    pub margin_db: f64,
    /// Deliverable rate this slot if granted (Gbps).
    pub rate_gbps: f64,
    /// The sender has queued traffic.
    pub demand: bool,
    /// Bits queued at the sender.
    pub backlog_bits: f64,
    /// The session handed over to a different unit this slot.
    pub handed_over: bool,
    /// EWMA of the service rate actually received (Gbps) — the PF average.
    pub served_ewma_gbps: f64,
    /// The session's playout buffer is currently stalled.
    pub stalled: bool,
}

/// Per-slot scheduling context.
#[derive(Debug)]
pub struct SchedCtx<'a> {
    /// Slot index since fleet start.
    pub slot: u64,
    /// Slot length (seconds).
    pub slot_s: f64,
    /// Units in the shared pool.
    pub n_units: usize,
    /// One entry per session, indexed by session.
    pub sessions: &'a [SessionSlotState],
}

/// Slot-clocked assignment of sessions to the shared TX pool.
///
/// `assign` is consulted once per slot with the grants that survived the
/// [`GrantEngine`] release pass already in place; the policy fills free
/// units. [`GrantSet::grant`] enforces the one-session-per-unit invariant,
/// so a policy cannot double-book no matter how it ranks.
pub trait TxScheduler {
    /// The policy's display name (rollup/ablation tables).
    fn name(&self) -> &'static str;

    /// Admission control, called once per session at fleet start in
    /// session order. `cap` is the pool's admission capacity
    /// (`n_units × max_sessions_per_unit`; 0 = unlimited); `n_admitted`
    /// sessions were admitted before this one. The default admits while
    /// capacity allows.
    fn admit(&mut self, session: usize, n_admitted: usize, cap: usize) -> bool {
        let _ = session;
        cap == 0 || n_admitted < cap
    }

    /// Fills free units in `grants` for this slot.
    fn assign(&mut self, ctx: &SchedCtx<'_>, grants: &mut GrantSet);
}

// ---------------------------------------------------------------------------
// Policies
// ---------------------------------------------------------------------------

/// The baseline: session `i` belongs to unit `i mod M` forever; each unit
/// serves its residents round-robin on a fixed quantum. Blind to occlusion,
/// demand, and where the session's beam actually points — exactly the
/// static partitioning a naive venue deployment would wire up.
#[derive(Debug, Clone, Copy)]
pub struct StaticPartition {
    /// Slots each resident keeps the unit before rotation.
    pub quantum_slots: u64,
}

impl Default for StaticPartition {
    fn default() -> Self {
        StaticPartition { quantum_slots: 64 }
    }
}

impl TxScheduler for StaticPartition {
    fn name(&self) -> &'static str {
        "static_partition"
    }

    fn assign(&mut self, ctx: &SchedCtx<'_>, grants: &mut GrantSet) {
        let m = ctx.n_units;
        let q = self.quantum_slots.max(1);
        for unit in 0..m {
            if grants.session_of(unit).is_some() {
                continue;
            }
            // Residents of this unit, in session order.
            let n_res = ctx
                .sessions
                .iter()
                .filter(|s| s.admitted && s.session % m == unit)
                .count() as u64;
            if n_res == 0 {
                continue;
            }
            let pick = ((ctx.slot / q) % n_res) as usize;
            let s = ctx
                .sessions
                .iter()
                .filter(|s| s.admitted && s.session % m == unit)
                .nth(pick)
                .expect("resident count just computed")
                .session;
            if grants.unit_of(s).is_none() {
                grants.grant(s, unit);
            }
        }
    }
}

/// Greedy max-margin: every slot, hand each free unit to the servable
/// session with the best link margin on it. Maximizes aggregate goodput;
/// persistently weak sessions starve.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyMaxMargin;

impl TxScheduler for GreedyMaxMargin {
    fn name(&self) -> &'static str {
        "greedy_max_margin"
    }

    fn assign(&mut self, ctx: &SchedCtx<'_>, grants: &mut GrantSet) {
        assign_by_score(ctx, grants, |s| s.margin_db);
    }
}

/// Proportional-fair: rank by `rate / (eps + ewma)^alpha`, where `ewma` is
/// the service rate the session has actually been receiving. `alpha` is the
/// fairness knob: 0 degenerates to greedy-by-rate, 1 is classic PF, larger
/// values approach max-min.
#[derive(Debug, Clone, Copy)]
pub struct ProportionalFair {
    /// Fairness exponent (≥ 0).
    pub alpha: f64,
}

impl Default for ProportionalFair {
    fn default() -> Self {
        ProportionalFair { alpha: 1.0 }
    }
}

impl TxScheduler for ProportionalFair {
    fn name(&self) -> &'static str {
        "proportional_fair"
    }

    fn assign(&mut self, ctx: &SchedCtx<'_>, grants: &mut GrantSet) {
        let alpha = self.alpha;
        assign_by_score(ctx, grants, move |s| {
            s.rate_gbps / (PF_EPS_GBPS + s.served_ewma_gbps).powf(alpha)
        });
    }
}

/// Shared ranking loop for channel-aware policies: repeatedly grant the
/// best-scoring servable candidate whose active unit is still free.
/// Ties break toward the lower session index ([`f64::total_cmp`], so NaN
/// scores cannot panic and sort below every real score).
fn assign_by_score(
    ctx: &SchedCtx<'_>,
    grants: &mut GrantSet,
    score: impl Fn(&SessionSlotState) -> f64,
) {
    loop {
        let mut best: Option<(f64, usize)> = None;
        for s in ctx.sessions {
            let servable = s.admitted && s.demand && s.signal && s.link_up;
            if !servable
                || grants.unit_of(s.session).is_some()
                || grants.session_of(s.active_unit).is_some()
            {
                continue;
            }
            let sc = score(s);
            let better = match best {
                Some((b, _)) => sc.total_cmp(&b) == std::cmp::Ordering::Greater,
                None => true,
            };
            if better {
                best = Some((sc, s.session));
            }
        }
        match best {
            Some((_, s)) => {
                grants.grant(s, ctx.sessions[s].active_unit);
            }
            None => break,
        }
    }
}

/// The built-in policies, as fleet-config data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedPolicy {
    /// [`StaticPartition`] with the given rotation quantum.
    StaticPartition {
        /// Slots each resident keeps the unit before rotation.
        quantum_slots: u64,
    },
    /// [`GreedyMaxMargin`].
    GreedyMaxMargin,
    /// [`ProportionalFair`] with fairness exponent `alpha`.
    ProportionalFair {
        /// Fairness exponent (≥ 0).
        alpha: f64,
    },
}

impl SchedPolicy {
    /// The policy's display name.
    pub fn name(&self) -> &'static str {
        match self {
            SchedPolicy::StaticPartition { .. } => "static_partition",
            SchedPolicy::GreedyMaxMargin => "greedy_max_margin",
            SchedPolicy::ProportionalFair { .. } => "proportional_fair",
        }
    }

    /// Instantiates the scheduler.
    pub fn scheduler(&self) -> Box<dyn TxScheduler> {
        match *self {
            SchedPolicy::StaticPartition { quantum_slots } => {
                Box::new(StaticPartition { quantum_slots })
            }
            SchedPolicy::GreedyMaxMargin => Box::new(GreedyMaxMargin),
            SchedPolicy::ProportionalFair { alpha } => Box::new(ProportionalFair { alpha }),
        }
    }
}

// ---------------------------------------------------------------------------
// Scheduling configuration
// ---------------------------------------------------------------------------

/// Configuration of the scheduled fleet: policy, traffic model, and the
/// grant mechanics every policy shares.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// The assignment policy.
    pub policy: SchedPolicy,
    /// Per-session traffic model (each session draws its own stream).
    pub traffic: TrafficConfig,
    /// Admission cap: at most `n_units × max_sessions_per_unit` sessions
    /// are admitted (0 = admit everyone).
    pub max_sessions_per_unit: usize,
    /// Minimum slots a grant holds before the policy may reassign it
    /// (early release still happens when the session stops being servable).
    pub min_hold_slots: u64,
    /// Slots a unit spends re-steering (dark) when it switches sessions.
    pub retarget_penalty_slots: u64,
    /// Time constant of the PF service-rate EWMA (seconds).
    pub ewma_tau_s: f64,
}

impl SchedConfig {
    /// A scheduled-fleet config with the given policy and default
    /// traffic/grant mechanics.
    pub fn new(policy: SchedPolicy) -> SchedConfig {
        SchedConfig {
            policy,
            traffic: TrafficConfig::default(),
            max_sessions_per_unit: 0,
            min_hold_slots: 16,
            retarget_penalty_slots: 1,
            ewma_tau_s: 0.25,
        }
    }

    /// The static-partition baseline.
    pub fn static_partition() -> SchedConfig {
        SchedConfig::new(SchedPolicy::StaticPartition { quantum_slots: 64 })
    }

    /// Greedy max-margin.
    pub fn greedy() -> SchedConfig {
        SchedConfig::new(SchedPolicy::GreedyMaxMargin)
    }

    /// Proportional-fair with fairness exponent `alpha`.
    pub fn proportional_fair(alpha: f64) -> SchedConfig {
        SchedConfig::new(SchedPolicy::ProportionalFair { alpha })
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), EngineConfigError> {
        self.traffic
            .validate()
            .map_err(EngineConfigError::InvalidFleet)?;
        if self.min_hold_slots == 0 {
            return Err(EngineConfigError::InvalidFleet(
                "min_hold_slots must be >= 1",
            ));
        }
        if !(self.ewma_tau_s.is_finite() && self.ewma_tau_s > 0.0) {
            return Err(EngineConfigError::InvalidFleet(
                "ewma_tau_s must be finite and positive",
            ));
        }
        match self.policy {
            SchedPolicy::StaticPartition { quantum_slots } => {
                if quantum_slots == 0 {
                    return Err(EngineConfigError::InvalidFleet(
                        "quantum_slots must be >= 1",
                    ));
                }
            }
            SchedPolicy::ProportionalFair { alpha } => {
                if !(alpha.is_finite() && alpha >= 0.0) {
                    return Err(EngineConfigError::InvalidFleet(
                        "alpha must be finite and >= 0",
                    ));
                }
            }
            SchedPolicy::GreedyMaxMargin => {}
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Grant engine
// ---------------------------------------------------------------------------

/// The slot-clocked grant mechanics shared by every policy: stickiness,
/// occlusion/handover-aware early release, retarget penalties, preemption
/// accounting and the PF service EWMA. Policies only rank candidates.
///
/// The engine is pure bookkeeping over the states the caller passes in —
/// no RNG, no physics — so it is trivially deterministic and directly
/// drivable by the property tests.
#[derive(Debug)]
pub struct GrantEngine {
    n_sessions: usize,
    n_units: usize,
    min_hold_slots: u64,
    retarget_penalty_slots: u64,
    /// Per-slot EWMA blend factor (`slot_s / ewma_tau_s`, clamped to 1).
    beta: f64,
    grants: GrantSet,
    /// Per-unit slots left on the current grant's hold.
    hold_left: Vec<u64>,
    /// Per-unit slots left re-steering (dark while > 0).
    retarget_left: Vec<u64>,
    /// Per-unit last session the beam steered at.
    last_served: Vec<Option<u32>>,
    /// Per-unit dark flag for the current slot.
    dark: Vec<bool>,
    /// Per-session service-rate EWMA (Gbps).
    ewma: Vec<f64>,
    /// Per-session grant at the end of the previous slot.
    prev_grant: Vec<Option<u32>>,
    /// Per-session preempted-this-slot flag.
    preempted: Vec<bool>,
}

impl GrantEngine {
    /// A fresh engine over `n_sessions` sessions and `n_units` units.
    pub fn new(n_sessions: usize, n_units: usize, cfg: &SchedConfig, slot_s: f64) -> GrantEngine {
        GrantEngine {
            n_sessions,
            n_units,
            min_hold_slots: cfg.min_hold_slots.max(1),
            retarget_penalty_slots: cfg.retarget_penalty_slots,
            beta: (slot_s / cfg.ewma_tau_s).min(1.0),
            grants: GrantSet::new(n_sessions, n_units),
            hold_left: vec![0; n_units],
            retarget_left: vec![0; n_units],
            last_served: vec![None; n_units],
            dark: vec![false; n_units],
            ewma: vec![0.0; n_sessions],
            prev_grant: vec![None; n_sessions],
            preempted: vec![false; n_sessions],
        }
    }

    /// One slot of grant maintenance: writes the service EWMAs into
    /// `states`, releases expired/unservable grants, consults `policy` for
    /// the free units, and starts retarget penalties for units that
    /// switched sessions.
    pub fn step(
        &mut self,
        slot: u64,
        slot_s: f64,
        states: &mut [SessionSlotState],
        policy: &mut dyn TxScheduler,
    ) {
        assert_eq!(states.len(), self.n_sessions);
        for (st, e) in states.iter_mut().zip(&self.ewma) {
            st.served_ewma_gbps = *e;
        }
        for (i, p) in self.prev_grant.iter_mut().enumerate() {
            *p = self.grants.unit_of(i).map(|u| u as u32);
        }

        // Release pass: holds tick down; a grant survives only while its
        // session stays servable on that exact unit.
        for unit in 0..self.n_units {
            if let Some(s) = self.grants.session_of(unit) {
                let st = &states[s];
                let servable =
                    st.admitted && st.demand && st.active_unit == unit && st.signal && st.link_up;
                self.hold_left[unit] = self.hold_left[unit].saturating_sub(1);
                if !servable || self.hold_left[unit] == 0 {
                    self.grants.release_unit(unit);
                }
            }
        }

        policy.assign(
            &SchedCtx {
                slot,
                slot_s,
                n_units: self.n_units,
                sessions: states,
            },
            &mut self.grants,
        );

        // Post-assign: fresh holds for new grants, retarget penalties for
        // units whose served session changed, dark flags for the slot.
        for unit in 0..self.n_units {
            match self.grants.session_of(unit) {
                Some(s) => {
                    if self.hold_left[unit] == 0 {
                        self.hold_left[unit] = self.min_hold_slots;
                    }
                    if self.last_served[unit] != Some(s as u32) {
                        self.retarget_left[unit] = self.retarget_penalty_slots;
                        self.last_served[unit] = Some(s as u32);
                    }
                    self.dark[unit] = self.retarget_left[unit] > 0;
                    self.retarget_left[unit] = self.retarget_left[unit].saturating_sub(1);
                }
                None => {
                    self.hold_left[unit] = 0;
                    self.dark[unit] = false;
                }
            }
        }

        for (i, st) in states.iter().enumerate().take(self.n_sessions) {
            self.preempted[i] =
                self.prev_grant[i].is_some() && self.grants.unit_of(i).is_none() && st.demand;
        }
    }

    /// Records the service rate session `i` actually received this slot
    /// (0 when unserved) — feeds the PF average.
    pub fn note_rate(&mut self, session: usize, gbps: f64) {
        let e = &mut self.ewma[session];
        *e += self.beta * (gbps - *e);
    }

    /// The unit granted to `session` this slot.
    pub fn unit_of(&self, session: usize) -> Option<usize> {
        self.grants.unit_of(session)
    }

    /// Whether `unit` is re-steering (dark) this slot.
    pub fn unit_dark(&self, unit: usize) -> bool {
        self.dark[unit]
    }

    /// Whether `session` lost its grant this slot with traffic queued.
    pub fn preempted(&self, session: usize) -> bool {
        self.preempted[session]
    }

    /// Whether `session` can transport bits this slot: granted the unit its
    /// beam actually uses, FSO up, and the unit done re-steering.
    pub fn deliverable(&self, session: usize, st: &SessionSlotState) -> bool {
        match self.grants.unit_of(session) {
            Some(u) => u == st.active_unit && st.link_up && !self.dark[u],
            None => false,
        }
    }

    /// The current grant set (for tests/inspection).
    pub fn grants(&self) -> &GrantSet {
        &self.grants
    }
}

// ---------------------------------------------------------------------------
// Per-session / fleet accounting
// ---------------------------------------------------------------------------

/// Contention, fairness and QoE accounting of one scheduled session
/// ([`SessionReport::sched`](crate::engine::SessionReport::sched); `None` when the fleet ran unscheduled).
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedSessionStats {
    /// Passed admission control.
    pub admitted: bool,
    /// Slots holding a TX grant.
    pub granted_slots: u64,
    /// Slots that actually transported bits (granted ∧ FSO up ∧ steered).
    pub served_slots: u64,
    /// Slots with queued traffic but no service.
    pub denied_slots: u64,
    /// Slots lost to the unit re-steering after a switch.
    pub retarget_slots: u64,
    /// Grants revoked with traffic still queued.
    pub preempts: u64,
    /// Service availability: `served_slots / slots`.
    pub availability: f64,
    /// Gigabits delivered to the traffic layer.
    pub delivered_gb: f64,
    /// Mean delivered rate over the run (Gbps).
    pub mean_served_gbps: f64,
    /// Gigabits offered by the traffic source.
    pub offered_gb: f64,
    /// Total playout stall time (seconds).
    pub stall_s: f64,
    /// Stall time as a fraction of the run.
    pub stall_frac: f64,
    /// Stall episodes entered.
    pub stall_events: u64,
    /// Frames generated by the source.
    pub frames_generated: u64,
    /// Frames consumed by the display.
    pub frames_played: u64,
}

/// Fleet-level rollup of the scheduling/QoE accounting
/// ([`FleetRollup::sched`](crate::engine::FleetRollup::sched)).
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedRollup {
    /// Sessions admitted.
    pub n_admitted: usize,
    /// Total granted slots.
    pub total_granted: u64,
    /// Total served slots.
    pub total_served: u64,
    /// Total demand-but-no-service slots.
    pub total_denied: u64,
    /// Total preemptions.
    pub total_preempts: u64,
    /// Mean per-session service availability.
    pub mean_availability: f64,
    /// Worst session's service availability.
    pub min_availability: f64,
    /// Aggregate delivered rate (Gbps, sum of per-session means).
    pub sum_served_gbps: f64,
    /// Mean per-session stall fraction.
    pub mean_stall_frac: f64,
    /// Worst session's total stall time (seconds) — the QoE headline.
    pub worst_stall_s: f64,
    /// Total stall episodes.
    pub total_stall_events: u64,
    /// Total frames played.
    pub total_frames_played: u64,
    /// Jain fairness index over the admitted sessions' delivered rates
    /// (1 = perfectly even service).
    pub fairness_jain: f64,
}

// ---------------------------------------------------------------------------
// Scheduled fleet driver
// ---------------------------------------------------------------------------

/// Runs a fleet with the TX pool as a shared, scheduled resource, using the
/// policy named in `sched`. See the module docs for the physics contract.
/// Rejects an empty unit pool, an invalid [`FleetConfig`] or an invalid
/// [`SchedConfig`] with a typed error instead of panicking.
pub fn run_fleet_scheduled(
    units: &[TxInstallation],
    fleet: &FleetConfig,
    sched: &SchedConfig,
) -> Result<FleetSummary, EngineConfigError> {
    let mut policy = sched.policy.scheduler();
    run_fleet_with_scheduler(units, fleet, sched, policy.as_mut())
}

/// [`run_fleet_scheduled`] with a caller-supplied policy (custom
/// [`TxScheduler`] implementations plug in here).
pub fn run_fleet_with_scheduler(
    units: &[TxInstallation],
    fleet: &FleetConfig,
    sched: &SchedConfig,
    policy: &mut dyn TxScheduler,
) -> Result<FleetSummary, EngineConfigError> {
    if units.is_empty() {
        return Err(EngineConfigError::NoUnits);
    }
    fleet.validate()?;
    sched.validate()?;
    let n = fleet.n_sessions;
    let m = units.len();

    // Build every session exactly as the unscheduled fleet does — same
    // constructor, same per-session streams — so the physics timelines are
    // bit-identical to run_fleet regardless of policy.
    let mut sessions = Vec::with_capacity(n);
    let mut seeds = Vec::with_capacity(n);
    for i in 0..n {
        let (s, seed) = build_fleet_session(units, fleet, i);
        sessions.push(s);
        seeds.push(seed);
    }

    // Admission control, in session order.
    let cap = m * sched.max_sessions_per_unit;
    let mut admitted = vec![false; n];
    let mut n_admitted = 0usize;
    for (i, a) in admitted.iter_mut().enumerate() {
        *a = policy.admit(i, n_admitted, cap);
        n_admitted += *a as usize;
    }

    let slot_s = sessions[0].cfg().slot_s;
    let n_slots = slots_in(fleet.duration_s, slot_s);
    let sens = units[0].dep.design.sfp.rx_sensitivity_dbm;
    let collect = fleet.collect_telemetry;

    let mut ge = GrantEngine::new(n, m, sched, slot_s);
    let mut traffic: Vec<TrafficSource> = seeds
        .iter()
        .map(|&s| TrafficSource::new(sched.traffic, mix64(s, 0x7ea_ff1c)))
        .collect();
    let mut sums: Vec<SlotSums> = (0..n).map(|_| SlotSums::new()).collect();
    let mut acc: Vec<SchedSessionStats> = admitted
        .iter()
        .map(|&a| SchedSessionStats {
            admitted: a,
            ..SchedSessionStats::default()
        })
        .collect();
    let mut states: Vec<SessionSlotState> = (0..n)
        .map(|i| SessionSlotState {
            session: i,
            admitted: admitted[i],
            active_unit: 0,
            signal: false,
            link_up: false,
            margin_db: f64::NEG_INFINITY,
            rate_gbps: 0.0,
            demand: false,
            backlog_bits: 0.0,
            handed_over: false,
            served_ewma_gbps: 0.0,
            stalled: false,
        })
        .collect();
    let mut recs: Vec<EngineSlot> = Vec::with_capacity(n);
    let mut prev_active = vec![0usize; n];
    let mut prev_grant: Vec<Option<usize>> = vec![None; n];

    for s in sessions.iter_mut() {
        s.begin_external_run();
    }

    // The slot-synchronous loop: all sessions advance one slot, then the
    // scheduler assigns the pool, then traffic drains over the grants.
    // Serial by design (sessions couple through the pool), and RNG-free
    // outside the per-session physics — deterministic at any thread count.
    for k in 0..n_slots {
        recs.clear();
        for i in 0..n {
            let rec = sessions[i].step_slot(k);
            sums[i].absorb(&rec, sens);
            traffic[i].arrive_until(rec.t);
            let fso_up = rec.link_up && !rec.rf_active;
            states[i] = SessionSlotState {
                session: i,
                admitted: admitted[i],
                active_unit: rec.active,
                signal: rec.power_dbm >= sens,
                link_up: fso_up,
                margin_db: rec.power_dbm - sens,
                rate_gbps: rec.goodput_gbps,
                demand: traffic[i].has_demand(),
                backlog_bits: traffic[i].backlog_bits(),
                handed_over: rec.active != prev_active[i],
                served_ewma_gbps: 0.0, // filled by the grant engine
                stalled: traffic[i].is_stalled(),
            };
            prev_active[i] = rec.active;
            recs.push(rec);
        }

        ge.step(k as u64, slot_s, &mut states, policy);

        for i in 0..n {
            let rec = &recs[i];
            let unit = ge.unit_of(i);
            let fso_served = ge.deliverable(i, &states[i]);
            // RF-carried slots bypass the TX pool entirely (the fallback is
            // broadcast, not steered), so they drain without a grant.
            let capacity_gbps = if rec.rf_active || fso_served {
                rec.goodput_gbps
            } else {
                0.0
            };
            let delivered = if capacity_gbps > 0.0 {
                traffic[i].deliver(capacity_gbps * 1e9 * slot_s)
            } else {
                0.0
            };
            ge.note_rate(i, delivered / (1e9 * slot_s));
            let ps = traffic[i].playout_step(rec.t, slot_s);

            let a = &mut acc[i];
            a.granted_slots += unit.is_some() as u64;
            a.served_slots += fso_served as u64;
            a.denied_slots += (states[i].demand && !fso_served && !rec.rf_active) as u64;
            if let Some(u) = unit {
                a.retarget_slots += ge.unit_dark(u) as u64;
            }
            a.preempts += ge.preempted(i) as u64;
            a.delivered_gb += delivered / 1e9;

            if collect {
                let tele = sessions[i].telemetry_mut();
                if unit != prev_grant[i] {
                    if let Some(u) = unit {
                        tele.emit(&TelemetryEvent::SchedGrant {
                            t: rec.t,
                            unit: u as u64,
                        });
                    } else if ge.preempted(i) {
                        tele.emit(&TelemetryEvent::SchedPreempt {
                            t: rec.t,
                            unit: prev_grant[i].unwrap_or(0) as u64,
                        });
                    }
                }
                if let Some(stall_s) = ps.stall_ended {
                    tele.emit(&TelemetryEvent::PlayoutStall { t: rec.t, stall_s });
                }
            }
            prev_grant[i] = unit;
        }
    }

    // Reports: the physics fields are byte-for-byte what run_fleet folds;
    // the scheduling/QoE accounting rides alongside.
    let mut reports = Vec::with_capacity(n);
    for (i, mut session) in sessions.into_iter().enumerate() {
        session.end_external_run();
        if collect {
            session.telemetry_mut().emit(&TelemetryEvent::SessionEnd {
                session: i as u64,
                slots: sums[i].slots as u64,
            });
        }
        let mut rep = sums[i].report(i, seeds[i], &session);
        let ts = traffic[i].stats();
        let slots = sums[i].slots.max(1) as f64;
        let dur = slots * slot_s;
        let a = &mut acc[i];
        a.availability = a.served_slots as f64 / slots;
        a.mean_served_gbps = a.delivered_gb / dur;
        a.offered_gb = ts.offered_gb;
        a.stall_s = ts.stall_s;
        a.stall_frac = ts.stall_s / dur;
        a.stall_events = ts.stall_events;
        a.frames_generated = ts.frames_generated;
        a.frames_played = ts.frames_played;
        rep.sched = Some(*a);
        reports.push(rep);
    }
    Ok(FleetSummary { sessions: reports })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_fleet;
    use std::sync::OnceLock;

    fn units() -> &'static Vec<TxInstallation> {
        static UNITS: OnceLock<Vec<TxInstallation>> = OnceLock::new();
        UNITS.get_or_init(|| crate::engine::tests::two_units(911))
    }

    /// Synthetic state: always servable on unit `active`, given rate.
    fn state(session: usize, active: usize, rate: f64) -> SessionSlotState {
        SessionSlotState {
            session,
            admitted: true,
            active_unit: active,
            signal: true,
            link_up: true,
            margin_db: rate, // monotone stand-in
            rate_gbps: rate,
            demand: true,
            backlog_bits: 1e9,
            handed_over: false,
            served_ewma_gbps: 0.0,
            stalled: false,
        }
    }

    #[test]
    fn grant_set_rejects_double_booking() {
        let mut g = GrantSet::new(3, 2);
        assert!(g.grant(0, 1));
        assert!(!g.grant(1, 1), "unit 1 already serves session 0");
        assert!(!g.grant(0, 0), "session 0 already holds unit 1");
        assert!(g.grant(2, 0));
        assert_eq!(g.n_granted(), 2);
        assert!(g.is_consistent());
        g.release_unit(1);
        assert_eq!(g.unit_of(0), None);
        assert!(g.grant(1, 1));
        assert!(g.is_consistent());
    }

    #[test]
    fn admission_respects_pool_capacity() {
        let mut p = GreedyMaxMargin;
        let cap = 4; // 2 units × 2
        let mut admitted = 0;
        for i in 0..10 {
            if TxScheduler::admit(&mut p, i, admitted, cap) {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 4);
        // cap 0 = unlimited
        let mut admitted = 0;
        for i in 0..10 {
            if TxScheduler::admit(&mut p, i, admitted, 0) {
                admitted += 1;
            }
        }
        assert_eq!(admitted, 10);
    }

    /// Drives the grant engine over synthetic always-servable states and
    /// returns per-session served-slot counts.
    fn drive_synthetic(
        policy: &mut dyn TxScheduler,
        cfg: &SchedConfig,
        rates: &[f64],
        n_units: usize,
        slots: u64,
    ) -> Vec<u64> {
        let n = rates.len();
        let slot_s = 1e-3;
        let mut ge = GrantEngine::new(n, n_units, cfg, slot_s);
        let mut served = vec![0u64; n];
        let mut states: Vec<SessionSlotState> = rates
            .iter()
            .enumerate()
            .map(|(i, &r)| state(i, i % n_units, r))
            .collect();
        for k in 0..slots {
            ge.step(k, slot_s, &mut states, policy);
            for i in 0..n {
                let ok = ge.deliverable(i, &states[i]);
                served[i] += ok as u64;
                ge.note_rate(i, if ok { states[i].rate_gbps } else { 0.0 });
            }
        }
        served
    }

    #[test]
    fn proportional_fair_shares_a_single_unit_evenly() {
        let cfg = SchedConfig::proportional_fair(1.0);
        let mut p = ProportionalFair { alpha: 1.0 };
        // 4 equal sessions all wanting unit 0.
        let served = drive_synthetic(&mut p, &cfg, &[8.0, 8.0, 8.0, 8.0], 1, 20_000);
        let total: u64 = served.iter().sum();
        for (i, &s) in served.iter().enumerate() {
            let share = s as f64 / total as f64;
            assert!(
                (share - 0.25).abs() < 0.05,
                "session {i} share {share} (served {served:?})"
            );
        }
    }

    #[test]
    fn greedy_starves_the_weak_session() {
        let cfg = SchedConfig::greedy();
        let mut g = GreedyMaxMargin;
        let served = drive_synthetic(&mut g, &cfg, &[8.0, 4.0], 1, 5_000);
        assert!(
            served[0] > 9 * served[1].max(1),
            "greedy should all-but-starve the weak session: {served:?}"
        );
        let cfg = SchedConfig::proportional_fair(1.0);
        let mut p = ProportionalFair { alpha: 1.0 };
        let served_pf = drive_synthetic(&mut p, &cfg, &[8.0, 4.0], 1, 5_000);
        assert!(
            served_pf[1] > served[1] * 10,
            "PF should serve the weak session far more than greedy: pf {served_pf:?} greedy {served:?}"
        );
    }

    #[test]
    fn static_partition_rotates_residents_on_the_quantum() {
        // Hold of 1 and no retarget penalty so the rotation is exactly the
        // quantum pattern (a longer hold beats against the quantum).
        let mut cfg = SchedConfig::static_partition();
        cfg.min_hold_slots = 1;
        cfg.retarget_penalty_slots = 0;
        let mut p = StaticPartition { quantum_slots: 10 };
        // 2 sessions share 1 unit: each should get ~half the slots.
        let served = drive_synthetic(&mut p, &cfg, &[8.0, 8.0], 1, 10_000);
        let total: u64 = served.iter().sum();
        for &s in &served {
            let share = s as f64 / total as f64;
            assert!((share - 0.5).abs() < 0.05, "{served:?}");
        }
    }

    /// The tentpole invariant: scheduling is a pure overlay, so every
    /// physics field of every session report is bit-identical to the
    /// unscheduled (cloned-unit) fleet — for the static-partition baseline
    /// and for every other policy.
    #[test]
    fn scheduled_physics_is_bit_identical_to_cloned_unit_fleet() {
        let units = units();
        let fleet = FleetConfig {
            n_sessions: 3,
            duration_s: 0.5,
            seed: 77,
            collect_telemetry: false,
            ..FleetConfig::default()
        };
        let base = run_fleet(units, &fleet);
        for sched in [
            SchedConfig::static_partition(),
            SchedConfig::greedy(),
            SchedConfig::proportional_fair(1.0),
        ] {
            let got = run_fleet_scheduled(units, &fleet, &sched).unwrap();
            assert_eq!(base.sessions.len(), got.sessions.len());
            for (a, b) in base.sessions.iter().zip(&got.sessions) {
                assert_eq!(a.session, b.session);
                assert_eq!(a.seed, b.seed);
                assert_eq!(a.slots, b.slots);
                assert_eq!(a.up_frac.to_bits(), b.up_frac.to_bits());
                assert_eq!(a.signal_frac.to_bits(), b.signal_frac.to_bits());
                assert_eq!(a.mean_goodput_gbps.to_bits(), b.mean_goodput_gbps.to_bits());
                assert_eq!(a.mean_power_dbm.to_bits(), b.mean_power_dbm.to_bits());
                assert_eq!(a.rf_frac.to_bits(), b.rf_frac.to_bits());
                assert_eq!(a.handovers, b.handovers);
                assert_eq!(a.stats.n_outages, b.stats.n_outages);
                assert_eq!(a.stats.outage_s.to_bits(), b.stats.outage_s.to_bits());
                assert_eq!(a.tp_reports, b.tp_reports);
                assert_eq!(a.tp_failures, b.tp_failures);
                assert!(a.sched.is_none());
                assert!(b.sched.is_some());
            }
        }
    }

    #[test]
    fn scheduled_run_is_deterministic() {
        let units = units();
        let fleet = FleetConfig {
            n_sessions: 4,
            duration_s: 0.4,
            seed: 5,
            ..FleetConfig::default()
        };
        let sched = SchedConfig::proportional_fair(1.0);
        let a = run_fleet_scheduled(units, &fleet, &sched).unwrap();
        let b = run_fleet_scheduled(units, &fleet, &sched).unwrap();
        for (x, y) in a.sessions.iter().zip(&b.sessions) {
            let (xs, ys) = (x.sched.unwrap(), y.sched.unwrap());
            assert_eq!(xs.served_slots, ys.served_slots);
            assert_eq!(xs.delivered_gb.to_bits(), ys.delivered_gb.to_bits());
            assert_eq!(xs.stall_s.to_bits(), ys.stall_s.to_bits());
            assert_eq!(xs.preempts, ys.preempts);
        }
    }

    #[test]
    fn contention_caps_aggregate_service() {
        // More sessions than units: total served slots per slot can't
        // exceed the pool size.
        let units = units();
        let fleet = FleetConfig {
            n_sessions: 5,
            duration_s: 0.4,
            seed: 9,
            ..FleetConfig::default()
        };
        let sum = run_fleet_scheduled(units, &fleet, &SchedConfig::greedy()).unwrap();
        let total_served: u64 = sum
            .sessions
            .iter()
            .map(|s| s.sched.unwrap().served_slots)
            .sum();
        let slots = sum.sessions[0].slots as u64;
        assert!(
            total_served <= slots * units.len() as u64,
            "served {total_served} > pool capacity {}",
            slots * units.len() as u64
        );
        // And with demand this heavy at least one unit should be serving
        // most slots (sessions often converge on the same best unit, so
        // the second unit can sit idle).
        assert!(total_served * 2 > slots, "pool nearly idle: {total_served}");
    }

    #[test]
    fn admission_cap_rejects_and_reports() {
        let units = units();
        let fleet = FleetConfig {
            n_sessions: 5,
            duration_s: 0.3,
            seed: 3,
            ..FleetConfig::default()
        };
        let mut sched = SchedConfig::greedy();
        sched.max_sessions_per_unit = 1; // cap = 2 admitted
        let sum = run_fleet_scheduled(units, &fleet, &sched).unwrap();
        let admitted = sum
            .sessions
            .iter()
            .filter(|s| s.sched.unwrap().admitted)
            .count();
        assert_eq!(admitted, 2);
        for s in &sum.sessions {
            let sc = s.sched.unwrap();
            if !sc.admitted {
                assert_eq!(sc.granted_slots, 0, "rejected session was granted");
                assert_eq!(sc.delivered_gb, 0.0);
            }
        }
        let roll = sum.rollup();
        assert_eq!(roll.sched.unwrap().n_admitted, 2);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

        /// Across fleet seeds, the static-partition baseline's physics is
        /// bit-identical to the cloned-unit fleet (the per-case work rides
        /// on the shared `OnceLock` fixture, so cases stay cheap).
        #[test]
        fn prop_static_partition_physics_matches_cloned_fleet(seed in 0u64..1_000) {
            let fleet = FleetConfig {
                n_sessions: 2,
                duration_s: 0.25,
                seed,
                ..FleetConfig::default()
            };
            let base = run_fleet(units(), &fleet);
            let got = run_fleet_scheduled(units(), &fleet, &SchedConfig::static_partition()).unwrap();
            for (a, b) in base.sessions.iter().zip(&got.sessions) {
                proptest::prop_assert_eq!(a.up_frac.to_bits(), b.up_frac.to_bits());
                proptest::prop_assert_eq!(
                    a.mean_goodput_gbps.to_bits(),
                    b.mean_goodput_gbps.to_bits()
                );
                proptest::prop_assert_eq!(a.mean_power_dbm.to_bits(), b.mean_power_dbm.to_bits());
                proptest::prop_assert_eq!(a.handovers, b.handovers);
            }
        }
    }

    #[test]
    fn invalid_fleet_config_is_an_error_not_a_panic() {
        use crate::engine::{run_fleet_mixed, FleetPool};
        let pool = FleetPool {
            label: "two-unit".into(),
            units: units().clone(),
            tracker: cyclops_vrh::tracking::TrackerConfig::default(),
        };
        let bad = [
            FleetConfig {
                n_sessions: 0,
                ..FleetConfig::default()
            },
            FleetConfig {
                duration_s: f64::NAN,
                ..FleetConfig::default()
            },
        ];
        for fleet in &bad {
            let sched = SchedConfig::greedy();
            let mut policy = sched.policy.scheduler();
            let results = [
                run_fleet_scheduled(units(), fleet, &sched),
                run_fleet_with_scheduler(units(), fleet, &sched, policy.as_mut()),
                run_fleet_mixed(std::slice::from_ref(&pool), fleet),
            ];
            for r in results {
                assert!(
                    matches!(r, Err(EngineConfigError::InvalidFleet(_))),
                    "{fleet:?}: {r:?}"
                );
            }
        }
    }

    #[test]
    fn sched_config_validation() {
        assert!(SchedConfig::greedy().validate().is_ok());
        let mut c = SchedConfig::greedy();
        c.min_hold_slots = 0;
        assert!(c.validate().is_err());
        let mut c = SchedConfig::proportional_fair(f64::NAN);
        assert!(c.validate().is_err());
        c = SchedConfig::new(SchedPolicy::StaticPartition { quantum_slots: 0 });
        assert!(c.validate().is_err());
        let mut c = SchedConfig::greedy();
        c.traffic.fps = -1.0;
        assert!(c.validate().is_err());
    }
}
