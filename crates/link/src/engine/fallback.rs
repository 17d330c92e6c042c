use crate::channel::RfChannel;

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
    /// flicker-safe hysteresis mirroring [`SfpLinkState`](crate::sfp_state::SfpLinkState).
    RfOnOutage,
}

/// The hybrid-link failover state machine: decides, per slot, whether
/// traffic rides the RF side channel.
///
/// Deterministic and RNG-free, like [`SfpLinkState`](crate::sfp_state::SfpLinkState) (whose flicker-safe
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
    /// The 1 ns slack on both thresholds matches [`SfpLinkState::step`](crate::sfp_state::SfpLinkState::step):
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

/// RF-fallback counters, with [`ControlStats`](crate::control::ControlStats)-style saturating deltas.
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
    /// consistent with [`ControlStats::since`](crate::control::ControlStats::since): a stale or swapped snapshot
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
pub(super) struct RfFallback {
    pub(super) policy: LinkPolicy,
    pub(super) channel: RfChannel,
}
