//! Reliable control channel: ARQ over a faulty report link, plus the
//! deterministic fault-injection layer behind the chaos suite.
//!
//! The paper assumes the RF side channel carrying VRH-T reports to the TX is
//! reliable ("< 1 ms" latency, §5.2) — our own ablations show that 5 %
//! report loss already collapses tolerated speeds. This module drops that
//! assumption:
//!
//! * [`FaultPlan`] — a deterministic channel-fault model: i.i.d. and bursty
//!   (Gilbert–Elliott) report loss, delay jitter and spikes, duplicated and
//!   reordered frames, plus scheduled SFP flaps. Every stochastic decision
//!   is a pure function of `mix64(mix64(seed, stream), counter)`, the same
//!   per-item keying the parallel substrate uses, so identical seeds give
//!   bit-identical runs at any thread count.
//! * [`ControlLink`] — a sequence-numbered, deduplicating ACK/NACK ARQ
//!   sender/receiver pair over that channel, with per-report retransmit
//!   timeouts and capped exponential backoff. Stale frames (older than the
//!   newest delivered report) are dropped at the receiver: a retransmitted
//!   pose from 30 ms ago must not steer the beam backwards.
//! * [`ControlStats`] — per-session counters (retries, losses, duplicates,
//!   abandons) surfaced through the simulator's session stats and the perf
//!   snapshot.

use cyclops_par::mix64;

/// Decision-stream identifiers: each fault dimension draws from its own
/// `mix64` stream so changing one probability never perturbs another's
/// outcomes (the same discipline the trainers use for per-item RNGs).
mod stream {
    pub const LOSS: u64 = 0x101;
    pub const BURST: u64 = 0x102;
    pub const DELAY: u64 = 0x103;
    pub const DUP: u64 = 0x104;
    pub const REORDER: u64 = 0x105;
    pub const JITTER: u64 = 0x106;
    pub const DUP_JITTER: u64 = 0x107;
    pub const ACK_LOSS: u64 = 0x108;
    pub const ACK_JITTER: u64 = 0x109;
}

/// Maps a hash to a uniform in `[0, 1)` (53 mantissa bits).
pub(crate) fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A deterministic schedule of forced SFP signal losses ("flaps"): the
/// optical signal is forced absent for `down_s` seconds every `period_s`,
/// starting at `first_s`. Deterministic by construction — no seed needed —
/// so outage timing is identical across runs and thread counts.
#[derive(Debug, Clone, Copy)]
pub struct FlapSchedule {
    /// Time of the first flap (seconds).
    pub first_s: f64,
    /// Flap repetition period (seconds).
    pub period_s: f64,
    /// Forced-down duration per flap (seconds).
    pub down_s: f64,
}

impl FlapSchedule {
    /// Whether the signal is forced down at time `t`.
    pub fn forced_down(&self, t: f64) -> bool {
        if t < self.first_s || self.period_s <= 0.0 {
            return false;
        }
        (t - self.first_s) % self.period_s < self.down_s
    }
}

/// Deterministic fault model for the report channel. All probabilities are
/// per frame transmission (original or retransmit).
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Seed of the decision streams; two plans with the same seed and the
    /// same call sequence make identical decisions.
    pub seed: u64,
    /// I.i.d. loss probability outside bursts.
    pub loss_prob: f64,
    /// Probability of entering a loss burst (good → bad), per frame.
    pub burst_enter_prob: f64,
    /// Probability of leaving a loss burst (bad → good), per frame.
    pub burst_exit_prob: f64,
    /// Loss probability while inside a burst.
    pub burst_loss_prob: f64,
    /// Probability of a delay spike on a surviving frame.
    pub delay_spike_prob: f64,
    /// Added delay of a spike (seconds).
    pub delay_spike_s: f64,
    /// Uniform extra delay in `[0, jitter_s)` on every frame (seconds).
    pub jitter_s: f64,
    /// Probability a surviving frame is duplicated in the channel.
    pub dup_prob: f64,
    /// Probability a surviving frame is held back (reordered).
    pub reorder_prob: f64,
    /// Hold-back delay of a reordered frame (seconds).
    pub reorder_delay_s: f64,
    /// Optional scheduled SFP flaps (applied by the simulator, not the
    /// control link itself).
    pub flap: Option<FlapSchedule>,
}

impl FaultPlan {
    /// A fault-free plan (the paper's reliable-channel assumption).
    pub fn clean(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            loss_prob: 0.0,
            burst_enter_prob: 0.0,
            burst_exit_prob: 1.0,
            burst_loss_prob: 0.0,
            delay_spike_prob: 0.0,
            delay_spike_s: 0.0,
            jitter_s: 0.0,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            reorder_delay_s: 0.0,
            flap: None,
        }
    }

    /// I.i.d. loss at probability `p`, nothing else.
    pub fn iid_loss(seed: u64, p: f64) -> FaultPlan {
        FaultPlan {
            loss_prob: p,
            ..FaultPlan::clean(seed)
        }
    }

    /// The chaos-suite stress plan: bursty loss, jitter, spikes, dups and
    /// reorders all at once.
    pub fn stress(seed: u64) -> FaultPlan {
        FaultPlan {
            loss_prob: 0.05,
            burst_enter_prob: 0.01,
            burst_exit_prob: 0.25,
            burst_loss_prob: 0.9,
            delay_spike_prob: 0.02,
            delay_spike_s: 0.015,
            jitter_s: 0.8e-3,
            dup_prob: 0.03,
            reorder_prob: 0.03,
            reorder_delay_s: 0.004,
            ..FaultPlan::clean(seed)
        }
    }

    fn roll(&self, stream: u64, k: u64) -> f64 {
        unit(mix64(mix64(self.seed, stream), k))
    }
}

/// ARQ (retransmission) configuration.
#[derive(Debug, Clone, Copy)]
pub struct ArqConfig {
    /// Initial retransmit timeout after an unacknowledged send (seconds).
    pub timeout_s: f64,
    /// Timeout multiplier per retry (capped exponential backoff).
    pub backoff: f64,
    /// Timeout cap (seconds).
    pub max_timeout_s: f64,
    /// Retransmissions allowed per report before the sender gives up. Pose
    /// reports go stale within a few periods, so this stays small.
    pub max_retries: u32,
}

impl Default for ArqConfig {
    /// Tuned to the 0.5 ms one-way channel latency and the 12–13 ms report
    /// period: the timeout leaves 50 % headroom over the 1 ms ACK RTT, so a
    /// first retransmit lands ~2 ms after the original send — the residual
    /// steering staleness it adds stays small against the period — and a
    /// report is abandoned once fresher data has certainly superseded it.
    fn default() -> Self {
        ArqConfig {
            timeout_s: 1.5e-3,
            backoff: 2.0,
            max_timeout_s: 20.0e-3,
            max_retries: 4,
        }
    }
}

/// Per-session control-channel counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ControlStats {
    /// Reports submitted by the sender.
    pub sent: u64,
    /// Reports delivered (in order, once each) to the application.
    pub delivered: u64,
    /// Retransmissions issued.
    pub retransmits: u64,
    /// Frame transmissions lost in the channel (originals + retransmits).
    pub channel_losses: u64,
    /// Duplicate frames injected by the channel.
    pub dup_frames: u64,
    /// Frames dropped at the receiver as duplicate or stale (older than the
    /// newest delivered report).
    pub stale_drops: u64,
    /// ACKs lost on the reverse path.
    pub acks_lost: u64,
    /// Reports abandoned after `max_retries` unacknowledged attempts.
    pub gave_up: u64,
}

impl ControlStats {
    /// Field-wise difference since an earlier snapshot (saturating, so a
    /// stale snapshot can never underflow). The engine's telemetry layer
    /// uses this to synthesize per-slot retransmit/drop events from the
    /// cumulative counters.
    pub fn since(&self, earlier: &ControlStats) -> ControlStats {
        ControlStats {
            sent: self.sent.saturating_sub(earlier.sent),
            delivered: self.delivered.saturating_sub(earlier.delivered),
            retransmits: self.retransmits.saturating_sub(earlier.retransmits),
            channel_losses: self.channel_losses.saturating_sub(earlier.channel_losses),
            dup_frames: self.dup_frames.saturating_sub(earlier.dup_frames),
            stale_drops: self.stale_drops.saturating_sub(earlier.stale_drops),
            acks_lost: self.acks_lost.saturating_sub(earlier.acks_lost),
            gave_up: self.gave_up.saturating_sub(earlier.gave_up),
        }
    }
}

/// Number of slots in a run of `run_s` seconds at `slot_s` per slot,
/// rounded to the nearest integer.
///
/// Naive truncation (`(run_s / slot_s) as usize`) silently drops the final
/// slot whenever the quotient lands just below an integer — e.g.
/// `0.3 / 1e-3` is `299.999…` in binary floating point, so a 300-slot run
/// would poll only 299 slots. The engine's run loops
/// ([`crate::engine::LinkSession::run_each`] and the scheduled fleet) count
/// their slots with it; drivers stepping a [`ControlLink`] by hand should
/// too.
pub fn slots_in(run_s: f64, slot_s: f64) -> usize {
    (run_s / slot_s).round() as usize
}

#[derive(Debug, Clone, Copy)]
struct InFlight<T> {
    arrive_t: f64,
    seq: u64,
    payload: T,
}

#[derive(Debug, Clone, Copy)]
struct Outstanding<T> {
    seq: u64,
    payload: T,
    next_retx_t: f64,
    timeout_s: f64,
    retries: u32,
}

/// A sequence-numbered sender/receiver pair over a [`FaultPlan`] channel,
/// optionally running ACK/NACK ARQ. Drive it with [`ControlLink::send`] at
/// report times and [`ControlLink::poll`] once per simulation slot.
#[derive(Debug, Clone)]
pub struct ControlLink<T> {
    /// Channel fault model.
    pub plan: FaultPlan,
    /// ARQ configuration; `None` disables retransmission (fire-and-forget,
    /// the legacy lossy channel with richer fault modes).
    pub arq: Option<ArqConfig>,
    /// Base one-way latency of the channel, both directions (seconds).
    pub base_latency_s: f64,
    next_seq: u64,
    frame_counter: u64,
    ack_counter: u64,
    in_burst: bool,
    data_in_flight: Vec<InFlight<T>>,
    acks_in_flight: Vec<(f64, u64)>,
    outstanding: Vec<Outstanding<T>>,
    highest_delivered: Option<u64>,
    stats: ControlStats,
}

impl<T: Copy> ControlLink<T> {
    /// Creates a link with the given fault model and base one-way latency.
    pub fn new(plan: FaultPlan, arq: Option<ArqConfig>, base_latency_s: f64) -> ControlLink<T> {
        ControlLink {
            plan,
            arq,
            base_latency_s,
            next_seq: 0,
            frame_counter: 0,
            ack_counter: 0,
            in_burst: false,
            data_in_flight: Vec::new(),
            acks_in_flight: Vec::new(),
            outstanding: Vec::new(),
            highest_delivered: None,
            stats: ControlStats::default(),
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> ControlStats {
        self.stats
    }

    /// Submits a report at time `t`; it is transmitted immediately and, with
    /// ARQ enabled, tracked until acknowledged or abandoned.
    pub fn send(&mut self, t: f64, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.stats.sent += 1;
        self.transmit(t, seq, payload);
        if let Some(arq) = self.arq {
            self.outstanding.push(Outstanding {
                seq,
                payload,
                next_retx_t: t + arq.timeout_s,
                timeout_s: arq.timeout_s,
                retries: 0,
            });
        }
    }

    /// One frame transmission through the fault model.
    fn transmit(&mut self, t: f64, seq: u64, payload: T) {
        let k = self.frame_counter;
        self.frame_counter += 1;
        // Gilbert–Elliott burst state; the transition draw happens every
        // frame so the state sequence depends only on the frame counter.
        let b = self.plan.roll(stream::BURST, k);
        if self.in_burst {
            if b < self.plan.burst_exit_prob {
                self.in_burst = false;
            }
        } else if b < self.plan.burst_enter_prob {
            self.in_burst = true;
        }
        let p_loss = if self.in_burst {
            self.plan.burst_loss_prob
        } else {
            self.plan.loss_prob
        };
        if p_loss > 0.0 && self.plan.roll(stream::LOSS, k) < p_loss {
            self.stats.channel_losses += 1;
            return;
        }
        let mut delay =
            self.base_latency_s + self.plan.jitter_s * self.plan.roll(stream::JITTER, k);
        if self.plan.delay_spike_prob > 0.0
            && self.plan.roll(stream::DELAY, k) < self.plan.delay_spike_prob
        {
            delay += self.plan.delay_spike_s;
        }
        if self.plan.reorder_prob > 0.0
            && self.plan.roll(stream::REORDER, k) < self.plan.reorder_prob
        {
            delay += self.plan.reorder_delay_s;
        }
        self.data_in_flight.push(InFlight {
            arrive_t: t + delay,
            seq,
            payload,
        });
        if self.plan.dup_prob > 0.0 && self.plan.roll(stream::DUP, k) < self.plan.dup_prob {
            self.stats.dup_frames += 1;
            let extra =
                self.base_latency_s + self.plan.jitter_s * self.plan.roll(stream::DUP_JITTER, k);
            self.data_in_flight.push(InFlight {
                arrive_t: t + delay + extra,
                seq,
                payload,
            });
        }
    }

    /// Advances the channel to time `t`: processes ACK arrivals, issues due
    /// retransmissions, and returns the reports delivered to the receiver by
    /// `t` as `(arrival_time, payload)`, in arrival order. Duplicates and
    /// stale (out-of-order) frames are filtered here.
    pub fn poll(&mut self, t: f64) -> Vec<(f64, T)> {
        // Idle fast path: between report times all three queues are usually
        // empty, and every step below is then a no-op. Skip the scans (and
        // the ARQ block) entirely — `Vec::new()` does not allocate, so the
        // common once-per-slot poll is a three-load check.
        if self.data_in_flight.is_empty()
            && self.acks_in_flight.is_empty()
            && self.outstanding.is_empty()
        {
            return Vec::new();
        }
        // 1. ACKs that reached the sender clear their outstanding entry.
        let mut i = 0;
        while i < self.acks_in_flight.len() {
            if self.acks_in_flight[i].0 <= t {
                let (_, seq) = self.acks_in_flight.swap_remove(i);
                self.outstanding.retain(|o| o.seq != seq);
            } else {
                i += 1;
            }
        }

        // 2. Due retransmissions (ARQ only).
        if let Some(arq) = self.arq {
            let mut due: Vec<Outstanding<T>> = Vec::new();
            let mut i = 0;
            while i < self.outstanding.len() {
                if self.outstanding[i].next_retx_t <= t {
                    due.push(self.outstanding.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            // Deterministic order regardless of swap_remove shuffling.
            due.sort_by_key(|o| o.seq);
            for mut o in due {
                if o.retries >= arq.max_retries {
                    self.stats.gave_up += 1;
                    continue;
                }
                o.retries += 1;
                self.stats.retransmits += 1;
                let send_t = o.next_retx_t;
                o.timeout_s = (o.timeout_s * arq.backoff).min(arq.max_timeout_s);
                o.next_retx_t = send_t + o.timeout_s;
                self.transmit(send_t, o.seq, o.payload);
                self.outstanding.push(o);
            }
        }

        // 3. Frame arrivals at the receiver, in arrival order.
        let mut ready: Vec<InFlight<T>> = Vec::new();
        let mut i = 0;
        while i < self.data_in_flight.len() {
            if self.data_in_flight[i].arrive_t <= t {
                ready.push(self.data_in_flight.swap_remove(i));
            } else {
                i += 1;
            }
        }
        ready.sort_by(|a, b| a.arrive_t.total_cmp(&b.arrive_t).then(a.seq.cmp(&b.seq)));

        let mut delivered = Vec::new();
        for f in ready {
            // Every received frame is acknowledged (even dups — the earlier
            // ACK may have been lost).
            if self.arq.is_some() {
                let ka = self.ack_counter;
                self.ack_counter += 1;
                if self.plan.loss_prob > 0.0
                    && self.plan.roll(stream::ACK_LOSS, ka) < self.plan.loss_prob
                {
                    self.stats.acks_lost += 1;
                } else {
                    let d = self.base_latency_s
                        + self.plan.jitter_s * self.plan.roll(stream::ACK_JITTER, ka);
                    self.acks_in_flight.push((f.arrive_t + d, f.seq));
                }
            }
            // Dedup + staleness: only ever deliver newer-than-anything-seen
            // reports; a late retransmit of an old pose must not win.
            if self.highest_delivered.is_some_and(|h| f.seq <= h) {
                self.stats.stale_drops += 1;
                continue;
            }
            self.highest_delivered = Some(f.seq);
            self.stats.delivered += 1;
            delivered.push((f.arrive_t, f.payload));
        }
        delivered
    }
}

/// Dead-reckoning configuration: when delivered reports go stale, the TP
/// extrapolates the pose at constant velocity and keeps steering rather than
/// letting the beam drift open-loop.
#[derive(Debug, Clone, Copy)]
pub struct DeadReckoningConfig {
    /// Reports older than this are considered stale (seconds).
    pub stale_after_s: f64,
    /// Minimum spacing between extrapolated commands (seconds) — matches
    /// the tracker cadence so DR never outruns the real report rate.
    pub interval_s: f64,
    /// Extrapolation horizon (seconds); beyond it the velocity estimate is
    /// useless and DR stops (bounded degradation, not divergence).
    pub max_horizon_s: f64,
    /// Minimum time baseline for the velocity estimate (seconds). Two
    /// consecutive reports are only ~12 ms apart, so differencing them
    /// amplifies tracker noise ~20× at the full extrapolation horizon;
    /// anchoring the difference on a report at least this much older keeps
    /// the amplification bounded (≈ horizon / baseline).
    pub min_baseline_s: f64,
}

impl Default for DeadReckoningConfig {
    fn default() -> Self {
        DeadReckoningConfig {
            stale_after_s: 0.02,
            interval_s: 0.012,
            max_horizon_s: 0.25,
            min_baseline_s: 0.06,
        }
    }
}

/// Re-acquisition configuration: after optical signal loss with no fresh
/// pose to point at, spiral the TX beam around the last good command to
/// recover signal early instead of waiting out the full SFP re-lock.
#[derive(Debug, Clone, Copy)]
pub struct ReacqConfig {
    /// Continuous signal-absence time that triggers the spiral (seconds).
    pub trigger_after_s: f64,
    /// Radial voltage step per spiral turn (volts).
    pub step_v: f64,
    /// Spiral step budget; exhausted means give up and restore the center.
    pub max_steps: usize,
    /// Required margin above receiver sensitivity (dB) before a probe point
    /// is accepted. Accepting a point *at* the sensitivity edge is a trap:
    /// any subsequent drift flickers the signal, resets the SFP's re-lock
    /// hold timer, and the link never comes back. The search only stops on
    /// solid signal.
    pub success_margin_db: f64,
}

impl Default for ReacqConfig {
    fn default() -> Self {
        ReacqConfig {
            trigger_after_s: 30.0e-3,
            step_v: 0.01,
            max_steps: 400,
            success_margin_db: 2.0,
        }
    }
}

/// Everything the simulator needs to run the reliable control plane.
#[derive(Debug, Clone, Copy)]
pub struct ControlPlaneConfig {
    /// Channel fault model (seeded).
    pub fault: FaultPlan,
    /// ARQ; `None` = fire-and-forget over the faulty channel.
    pub arq: Option<ArqConfig>,
    /// Dead reckoning; `None` = wait for the next delivered report.
    pub dead_reckoning: Option<DeadReckoningConfig>,
    /// Re-acquisition spiral; `None` = wait out the outage.
    pub reacq: Option<ReacqConfig>,
}

impl ControlPlaneConfig {
    /// The given fault plan with the full mitigation stack enabled.
    pub fn hardened(fault: FaultPlan) -> ControlPlaneConfig {
        ControlPlaneConfig {
            fault,
            arq: Some(ArqConfig::default()),
            dead_reckoning: Some(DeadReckoningConfig::default()),
            reacq: Some(ReacqConfig::default()),
        }
    }

    /// The given fault plan with every mitigation disabled (the ablation
    /// baseline: faults hit the raw channel).
    pub fn unprotected(fault: FaultPlan) -> ControlPlaneConfig {
        ControlPlaneConfig {
            fault,
            arq: None,
            dead_reckoning: None,
            reacq: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(
        plan: FaultPlan,
        arq: Option<ArqConfig>,
        n_reports: usize,
        period_s: f64,
        run_s: f64,
    ) -> (Vec<(f64, u64)>, ControlStats) {
        let mut link: ControlLink<u64> = ControlLink::new(plan, arq, 0.5e-3);
        let mut out = Vec::new();
        let slot = 1e-3;
        let n_slots = slots_in(run_s, slot);
        let mut sent = 0usize;
        for k in 0..n_slots {
            let t = (k + 1) as f64 * slot;
            while sent < n_reports && sent as f64 * period_s <= t {
                link.send(sent as f64 * period_s, sent as u64);
                sent += 1;
            }
            out.extend(link.poll(t));
        }
        (out, link.stats())
    }

    #[test]
    fn slots_in_does_not_truncate_the_final_slot() {
        // 0.35 / 1e-3 is 349.999… in binary floating point: truncation gave
        // 349 and silently dropped the run's final slot (same for 8.1 s).
        assert_eq!((0.35_f64 / 1e-3) as usize, 349, "the naive cast truncates");
        assert_eq!(slots_in(0.35, 1e-3), 350);
        assert_eq!((8.1_f64 / 1e-3) as usize, 8099, "the naive cast truncates");
        assert_eq!(slots_in(8.1, 1e-3), 8100);
        // Exact and near-exact quotients on both sides.
        assert_eq!(slots_in(2.0, 1e-3), 2000);
        assert_eq!(slots_in(6.0, 1e-3), 6000);
        assert_eq!(slots_in(0.0999999999, 1e-3), 100);
        assert_eq!(slots_in(0.1000000001, 1e-3), 100);
    }

    #[test]
    fn clean_channel_delivers_everything_in_order() {
        let (got, st) = drive(FaultPlan::clean(1), None, 50, 0.0125, 2.0);
        assert_eq!(got.len(), 50);
        for (i, (t, v)) in got.iter().enumerate() {
            assert_eq!(*v, i as u64);
            // Base latency only.
            assert!((t - (i as f64 * 0.0125 + 0.5e-3)).abs() < 1e-12);
        }
        assert_eq!(st.retransmits, 0);
        assert_eq!(st.channel_losses, 0);
    }

    #[test]
    fn lossy_channel_without_arq_drops_reports() {
        let (got, st) = drive(FaultPlan::iid_loss(2, 0.3), None, 400, 0.0125, 6.0);
        assert!(got.len() < 350, "delivered {}", got.len());
        assert!(st.channel_losses > 50, "{st:?}");
        // Deliveries stay in order.
        assert!(got.windows(2).all(|w| w[0].1 < w[1].1));
    }

    #[test]
    fn arq_recovers_heavy_loss() {
        let plan = FaultPlan::iid_loss(3, 0.3);
        let (got, st) = drive(plan, Some(ArqConfig::default()), 400, 0.0125, 6.0);
        // ARQ recovers the vast majority; only back-to-back losses at the
        // very end of the run can still be missing.
        assert!(got.len() >= 390, "delivered {} of 400", got.len());
        assert!(st.retransmits > 50, "{st:?}");
        assert!(got.windows(2).all(|w| w[0].1 < w[1].1));
    }

    #[test]
    fn duplicates_and_reorders_are_filtered() {
        let plan = FaultPlan {
            dup_prob: 0.5,
            reorder_prob: 0.3,
            reorder_delay_s: 0.03,
            ..FaultPlan::clean(4)
        };
        let (got, st) = drive(plan, Some(ArqConfig::default()), 300, 0.0125, 5.0);
        // Strictly increasing seqs, no dups delivered.
        assert!(got.windows(2).all(|w| w[0].1 < w[1].1));
        assert!(st.dup_frames > 100, "{st:?}");
        assert!(st.stale_drops > 100, "{st:?}");
    }

    #[test]
    fn backoff_caps_and_sender_gives_up() {
        // A channel that loses everything: every report is retried exactly
        // max_retries times then abandoned.
        let plan = FaultPlan::iid_loss(5, 1.0);
        let arq = ArqConfig {
            timeout_s: 2e-3,
            backoff: 2.0,
            max_timeout_s: 8e-3,
            max_retries: 3,
        };
        let (got, st) = drive(plan, Some(arq), 10, 0.0125, 2.0);
        assert!(got.is_empty());
        assert_eq!(st.gave_up, 10);
        assert_eq!(st.retransmits, 30);
        // 1 original + 3 retries per report, all lost.
        assert_eq!(st.channel_losses, 40);
    }

    #[test]
    fn identical_seeds_are_bit_identical() {
        let run = || {
            let (got, st) = drive(
                FaultPlan::stress(99),
                Some(ArqConfig::default()),
                300,
                0.0125,
                5.0,
            );
            (got, st)
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(sa, sb);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.0.to_bits(), y.0.to_bits());
            assert_eq!(x.1, y.1);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let (a, _) = drive(FaultPlan::iid_loss(7, 0.3), None, 300, 0.0125, 5.0);
        let (b, _) = drive(FaultPlan::iid_loss(8, 0.3), None, 300, 0.0125, 5.0);
        assert_ne!(
            a.iter().map(|x| x.1).collect::<Vec<_>>(),
            b.iter().map(|x| x.1).collect::<Vec<_>>()
        );
    }

    #[test]
    fn burst_loss_clusters() {
        // Pure burst model: long bad states with certain loss. Gaps in the
        // delivered sequence should be multi-report runs, not singles.
        let plan = FaultPlan {
            loss_prob: 0.0,
            burst_enter_prob: 0.03,
            burst_exit_prob: 0.15,
            burst_loss_prob: 1.0,
            ..FaultPlan::clean(11)
        };
        let (got, _) = drive(plan, None, 2000, 0.0125, 30.0);
        let seqs: Vec<u64> = got.iter().map(|x| x.1).collect();
        let mut run_lens = Vec::new();
        for w in seqs.windows(2) {
            if w[1] > w[0] + 1 {
                run_lens.push(w[1] - w[0] - 1);
            }
        }
        assert!(!run_lens.is_empty(), "bursts must cause losses");
        let max_run = run_lens.iter().max().copied().unwrap();
        assert!(max_run >= 3, "longest loss run {max_run} — not bursty");
    }

    #[test]
    fn flap_schedule_is_deterministic() {
        let f = FlapSchedule {
            first_s: 1.0,
            period_s: 5.0,
            down_s: 0.2,
        };
        assert!(!f.forced_down(0.5));
        assert!(f.forced_down(1.1));
        assert!(!f.forced_down(1.25));
        assert!(f.forced_down(6.05));
        assert!(!f.forced_down(5.9));
    }

    #[test]
    fn delay_spikes_delay_but_do_not_lose() {
        let plan = FaultPlan {
            delay_spike_prob: 1.0,
            delay_spike_s: 0.01,
            ..FaultPlan::clean(12)
        };
        let (got, st) = drive(plan, None, 50, 0.0125, 2.0);
        assert_eq!(got.len(), 50);
        assert_eq!(st.channel_losses, 0);
        for (i, (t, _)) in got.iter().enumerate() {
            let expect = i as f64 * 0.0125 + 0.5e-3 + 0.01;
            assert!((t - expect).abs() < 1e-12, "report {i} at {t}");
        }
    }
}
