//! Deterministic, zero-cost-when-disabled engine observability.
//!
//! The paper's evaluation (§5) lives on per-slot visibility — TP latency
//! breakdowns, re-acquisition timelines, outage/handover causality — and the
//! ROADMAP's fleet-scale north star needs the same visibility at millions of
//! sessions. This module is the telemetry layer threaded through
//! [`crate::engine`]:
//!
//! * [`TelemetryEvent`] — the event taxonomy: slot lifecycle, TP command
//!   issue/apply, control-channel send/deliver/retransmit/drop, SFP
//!   lock/unlock, handover decisions, re-acquisition spiral start/probe/end,
//!   and fleet session start/finish;
//! * [`TelemetrySink`] — where events go: [`JsonlSink`] (one JSON object
//!   per line, hand-rolled — the workspace builds offline, no serde) or any
//!   user type; [`Telemetry::off`], the default, holds no sink at all;
//! * [`Histogram`] / [`TelemetryCounters`] / [`SessionTelemetry`] —
//!   fixed-bucket aggregation per session, merged across sessions by
//!   `run_fleet` into a fleet-level rollup;
//! * event times are *simulation* time (a session's own slot clock). Sim
//!   paths never read the wall clock (`std::time::Instant` is confined to
//!   `crates/bench` by a CI grep lint), so attaching telemetry cannot
//!   perturb the engine's float streams.
//!
//! **Determinism contract.** Telemetry is pure observation: no random draw,
//! no float computed by the engine, and no control-flow decision depends on
//! whether a sink is attached. The `engine_digest` bin re-runs the chaos
//! workload with telemetry off, with counters, and with counters plus a
//! [`JsonlSink`] and asserts bit-identical digests; the engine's unit tests
//! compare the slot stream under the same three settings and a custom sink.

use std::fmt;
use std::io::{self, Write};

/// Number of equal-width buckets in a [`Histogram`].
pub const HIST_BUCKETS: usize = 16;

// ---------------------------------------------------------------------------
// Event model
// ---------------------------------------------------------------------------

/// Where a TP command came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandSource {
    /// A delivered tracking report.
    Report,
    /// A constant-velocity dead-reckoned pose (stale control channel).
    DeadReckoned,
    /// The immediate alignment shot fired on the new unit after a handover.
    HandoverShot,
}

/// Why control-channel frames were dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Lost in the channel (original or retransmit).
    ChannelLoss,
    /// The ACK was lost on the reverse path.
    AckLost,
    /// Dropped at the receiver as duplicate or stale.
    Stale,
    /// Abandoned by the sender after the retry budget.
    GaveUp,
}

/// One engine observation. Times are simulation seconds (the slot clock);
/// `k` is the session's global slot index, counted across `run` calls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TelemetryEvent {
    /// A fleet session began.
    SessionStart {
        /// Session index within the fleet.
        session: u64,
        /// The session's derived seed.
        seed: u64,
    },
    /// A fleet session finished.
    SessionEnd {
        /// Session index within the fleet.
        session: u64,
        /// Slots the session simulated.
        slots: u64,
    },
    /// A slot began.
    SlotStart {
        /// Global slot index.
        k: u64,
        /// Slot end time (s).
        t: f64,
    },
    /// A slot finished; carries the slot's record fields.
    SlotEnd {
        /// Global slot index.
        k: u64,
        /// Slot end time (s).
        t: f64,
        /// Active unit after any handover this slot.
        active: u32,
        /// Received power on the active unit (dBm).
        power_dbm: f64,
        /// Link margin over the SFP sensitivity (dB).
        margin_db: f64,
        /// Whether the link delivers data this slot (SFP up, or the RF
        /// fallback carrying traffic).
        link_up: bool,
        /// Whether the RF fallback carried this slot's traffic.
        rf_active: bool,
        /// Goodput delivered this slot (Gbps).
        goodput_gbps: f64,
    },
    /// The TP issued a pointing command.
    TpCommandIssued {
        /// Issue time (s).
        t: f64,
        /// When the command becomes optically effective (s).
        apply_at: f64,
        /// What triggered it.
        source: CommandSource,
        /// Compute + DAC latency of the command (s).
        latency_s: f64,
        /// Outer pointing-solver iterations spent.
        iters: u64,
        /// Whether the pointing iteration converged.
        converged: bool,
    },
    /// Queued commands reached their apply time and hit the DACs.
    TpApplied {
        /// Slot end time (s).
        t: f64,
        /// Commands applied this slot.
        n: u64,
    },
    /// A report was submitted to the control channel.
    CtrlSent {
        /// Submission time (s).
        t: f64,
    },
    /// A report was delivered to the TP.
    CtrlDelivered {
        /// Arrival time (s).
        t: f64,
        /// Sample-to-delivery age (s) — the latency the TP actually
        /// experiences, ARQ retries included.
        age_s: f64,
    },
    /// ARQ retransmissions were issued.
    CtrlRetransmit {
        /// Slot end time (s).
        t: f64,
        /// Retransmissions this slot.
        n: u64,
    },
    /// Control-channel frames were dropped.
    CtrlDropped {
        /// Slot end time (s).
        t: f64,
        /// Frames dropped this slot.
        n: u64,
        /// Why.
        reason: DropReason,
    },
    /// The SFP link dropped (loss of signal).
    SfpDown {
        /// Slot end time (s).
        t: f64,
    },
    /// The SFP link re-locked after holding signal for the relink time.
    SfpUp {
        /// Slot end time (s).
        t: f64,
        /// Duration of the outage that just ended (s).
        outage_s: f64,
    },
    /// The session handed over to another TX unit.
    Handover {
        /// Slot end time (s).
        t: f64,
        /// Previous active unit.
        from: u32,
        /// New active unit.
        to: u32,
    },
    /// A re-acquisition spiral started.
    ReacqStarted {
        /// Slot end time (s).
        t: f64,
    },
    /// The spiral probed one voltage point.
    ReacqProbe {
        /// Slot end time (s).
        t: f64,
    },
    /// The spiral ended.
    ReacqEnded {
        /// Slot end time (s).
        t: f64,
        /// True when solid signal was recovered; false when the probe
        /// budget was exhausted or a handover abandoned the search.
        recovered: bool,
    },
    /// Traffic failed over from FSO to the RF fallback.
    RfFailover {
        /// Slot end time (s).
        t: f64,
    },
    /// Traffic failed back from the RF fallback onto FSO.
    RfFailback {
        /// Slot end time (s).
        t: f64,
        /// Duration of the RF episode that just ended (s).
        rf_s: f64,
    },
    /// The fleet scheduler granted this session a TX unit (emitted on
    /// acquiring or changing a grant, not every slot).
    SchedGrant {
        /// Slot end time (s).
        t: f64,
        /// Index of the granted TX unit.
        unit: u64,
    },
    /// The fleet scheduler revoked this session's TX grant while it still
    /// had traffic queued.
    SchedPreempt {
        /// Slot end time (s).
        t: f64,
        /// Index of the TX unit that was taken away.
        unit: u64,
    },
    /// A playout-buffer stall (rebuffering episode) ended.
    PlayoutStall {
        /// Slot end time (s).
        t: f64,
        /// Duration of the stall episode that just ended (s).
        stall_s: f64,
    },
}

/// Formats an `f64` as JSON (non-finite values become `null`) straight into
/// the caller's buffer.
struct Jf(f64);

impl fmt::Display for Jf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            f.write_str("null")
        }
    }
}

impl TelemetryEvent {
    /// The event's kind tag, as used in the JSONL `"ev"` field.
    pub fn kind(&self) -> &'static str {
        match self {
            TelemetryEvent::SessionStart { .. } => "session_start",
            TelemetryEvent::SessionEnd { .. } => "session_end",
            TelemetryEvent::SlotStart { .. } => "slot_start",
            TelemetryEvent::SlotEnd { .. } => "slot_end",
            TelemetryEvent::TpCommandIssued { .. } => "tp_command",
            TelemetryEvent::TpApplied { .. } => "tp_applied",
            TelemetryEvent::CtrlSent { .. } => "ctrl_sent",
            TelemetryEvent::CtrlDelivered { .. } => "ctrl_delivered",
            TelemetryEvent::CtrlRetransmit { .. } => "ctrl_retransmit",
            TelemetryEvent::CtrlDropped { .. } => "ctrl_dropped",
            TelemetryEvent::SfpDown { .. } => "sfp_down",
            TelemetryEvent::SfpUp { .. } => "sfp_up",
            TelemetryEvent::Handover { .. } => "handover",
            TelemetryEvent::ReacqStarted { .. } => "reacq_started",
            TelemetryEvent::ReacqProbe { .. } => "reacq_probe",
            TelemetryEvent::ReacqEnded { .. } => "reacq_ended",
            TelemetryEvent::RfFailover { .. } => "rf_failover",
            TelemetryEvent::RfFailback { .. } => "rf_failback",
            TelemetryEvent::SchedGrant { .. } => "sched_grant",
            TelemetryEvent::SchedPreempt { .. } => "sched_preempt",
            TelemetryEvent::PlayoutStall { .. } => "playout_stall",
        }
    }

    /// One-line JSON rendering (the JSONL wire format).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.write_json(&mut s);
        s
    }

    /// Appends the one-line JSON rendering to `buf` — same bytes as
    /// [`TelemetryEvent::to_json`], no allocation. [`JsonlSink`] uses this
    /// with a reused line buffer so steady-state event recording is
    /// allocation-free.
    pub fn write_json(&self, buf: &mut String) {
        use fmt::Write as _;
        let kind = self.kind();
        let _ = match *self {
            TelemetryEvent::SessionStart { session, seed } => {
                write!(
                    buf,
                    "{{\"ev\":\"{kind}\",\"session\":{session},\"seed\":{seed}}}"
                )
            }
            TelemetryEvent::SessionEnd { session, slots } => {
                write!(
                    buf,
                    "{{\"ev\":\"{kind}\",\"session\":{session},\"slots\":{slots}}}"
                )
            }
            TelemetryEvent::SlotStart { k, t } => {
                write!(buf, "{{\"ev\":\"{kind}\",\"k\":{k},\"t\":{}}}", Jf(t))
            }
            TelemetryEvent::SlotEnd {
                k,
                t,
                active,
                power_dbm,
                margin_db,
                link_up,
                rf_active,
                goodput_gbps,
            } => write!(
                buf,
                "{{\"ev\":\"{kind}\",\"k\":{k},\"t\":{},\"active\":{active},\
                 \"power_dbm\":{},\"margin_db\":{},\"link_up\":{link_up},\
                 \"rf_active\":{rf_active},\"goodput_gbps\":{}}}",
                Jf(t),
                Jf(power_dbm),
                Jf(margin_db),
                Jf(goodput_gbps)
            ),
            TelemetryEvent::TpCommandIssued {
                t,
                apply_at,
                source,
                latency_s,
                iters,
                converged,
            } => write!(
                buf,
                "{{\"ev\":\"{kind}\",\"t\":{},\"apply_at\":{},\"source\":\"{}\",\
                 \"latency_s\":{},\"iters\":{iters},\"converged\":{converged}}}",
                Jf(t),
                Jf(apply_at),
                match source {
                    CommandSource::Report => "report",
                    CommandSource::DeadReckoned => "dead_reckoned",
                    CommandSource::HandoverShot => "handover_shot",
                },
                Jf(latency_s)
            ),
            TelemetryEvent::TpApplied { t, n } => {
                write!(buf, "{{\"ev\":\"{kind}\",\"t\":{},\"n\":{n}}}", Jf(t))
            }
            TelemetryEvent::CtrlSent { t } => {
                write!(buf, "{{\"ev\":\"{kind}\",\"t\":{}}}", Jf(t))
            }
            TelemetryEvent::CtrlDelivered { t, age_s } => {
                write!(
                    buf,
                    "{{\"ev\":\"{kind}\",\"t\":{},\"age_s\":{}}}",
                    Jf(t),
                    Jf(age_s)
                )
            }
            TelemetryEvent::CtrlRetransmit { t, n } => {
                write!(buf, "{{\"ev\":\"{kind}\",\"t\":{},\"n\":{n}}}", Jf(t))
            }
            TelemetryEvent::CtrlDropped { t, n, reason } => write!(
                buf,
                "{{\"ev\":\"{kind}\",\"t\":{},\"n\":{n},\"reason\":\"{}\"}}",
                Jf(t),
                match reason {
                    DropReason::ChannelLoss => "channel_loss",
                    DropReason::AckLost => "ack_lost",
                    DropReason::Stale => "stale",
                    DropReason::GaveUp => "gave_up",
                }
            ),
            TelemetryEvent::SfpDown { t } => {
                write!(buf, "{{\"ev\":\"{kind}\",\"t\":{}}}", Jf(t))
            }
            TelemetryEvent::SfpUp { t, outage_s } => write!(
                buf,
                "{{\"ev\":\"{kind}\",\"t\":{},\"outage_s\":{}}}",
                Jf(t),
                Jf(outage_s)
            ),
            TelemetryEvent::Handover { t, from, to } => write!(
                buf,
                "{{\"ev\":\"{kind}\",\"t\":{},\"from\":{from},\"to\":{to}}}",
                Jf(t)
            ),
            TelemetryEvent::ReacqStarted { t } => {
                write!(buf, "{{\"ev\":\"{kind}\",\"t\":{}}}", Jf(t))
            }
            TelemetryEvent::ReacqProbe { t } => {
                write!(buf, "{{\"ev\":\"{kind}\",\"t\":{}}}", Jf(t))
            }
            TelemetryEvent::ReacqEnded { t, recovered } => write!(
                buf,
                "{{\"ev\":\"{kind}\",\"t\":{},\"recovered\":{recovered}}}",
                Jf(t)
            ),
            TelemetryEvent::RfFailover { t } => {
                write!(buf, "{{\"ev\":\"{kind}\",\"t\":{}}}", Jf(t))
            }
            TelemetryEvent::RfFailback { t, rf_s } => write!(
                buf,
                "{{\"ev\":\"{kind}\",\"t\":{},\"rf_s\":{}}}",
                Jf(t),
                Jf(rf_s)
            ),
            TelemetryEvent::SchedGrant { t, unit } => {
                write!(buf, "{{\"ev\":\"{kind}\",\"t\":{},\"unit\":{unit}}}", Jf(t))
            }
            TelemetryEvent::SchedPreempt { t, unit } => {
                write!(buf, "{{\"ev\":\"{kind}\",\"t\":{},\"unit\":{unit}}}", Jf(t))
            }
            TelemetryEvent::PlayoutStall { t, stall_s } => write!(
                buf,
                "{{\"ev\":\"{kind}\",\"t\":{},\"stall_s\":{}}}",
                Jf(t),
                Jf(stall_s)
            ),
        };
    }
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Where engine events go. Implementations must be pure observers: a sink
/// must never feed anything back into the simulation (the engine's digest
/// identity with sinks attached is CI-enforced).
pub trait TelemetrySink: fmt::Debug + Send {
    /// Records one event.
    fn record(&mut self, ev: &TelemetryEvent);
    /// Flushes buffered output (no-op by default).
    fn flush(&mut self) {}
}

/// Writes one JSON object per event, one per line (JSONL). On the first
/// write error the sink latches failed and silently drops further events —
/// a telemetry I/O error must never abort a simulation.
pub struct JsonlSink<W: Write + Send> {
    out: W,
    /// Reused line buffer: one event = one `write_json` into this buffer +
    /// one `write_all`, so steady-state recording allocates nothing.
    line: String,
    events: u64,
    failed: bool,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps any writer.
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink {
            out,
            line: String::new(),
            events: 0,
            failed: false,
        }
    }

    /// Whether a write error occurred (subsequent events were dropped).
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl JsonlSink<io::BufWriter<std::fs::File>> {
    /// Creates (truncating) a JSONL file sink.
    pub fn create(path: &std::path::Path) -> io::Result<Self> {
        Ok(JsonlSink::new(io::BufWriter::new(std::fs::File::create(
            path,
        )?)))
    }
}

impl<W: Write + Send> fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlSink")
            .field("events", &self.events)
            .field("failed", &self.failed)
            .finish_non_exhaustive()
    }
}

impl<W: Write + Send> TelemetrySink for JsonlSink<W> {
    fn record(&mut self, ev: &TelemetryEvent) {
        if self.failed {
            return;
        }
        self.line.clear();
        ev.write_json(&mut self.line);
        self.line.push('\n');
        if self.out.write_all(self.line.as_bytes()).is_ok() {
            self.events += 1;
        } else {
            self.failed = true;
        }
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

// ---------------------------------------------------------------------------
// Aggregation: histogram, counters, per-session rollup
// ---------------------------------------------------------------------------

/// A fixed-bucket linear histogram over `[lo, hi)` with
/// underflow/overflow rails: [`HIST_BUCKETS`] equal-width buckets, plus
/// finite-sample sum/min/max for the mean. `Copy`, mergeable, and cheap
/// enough to record on every slot.
///
/// Edge semantics (pinned by unit tests): `x == lo` lands in bucket 0;
/// `x == hi` counts as overflow (half-open buckets); `-inf` is underflow;
/// `+inf` and `NaN` are overflow. Non-finite samples never touch
/// sum/min/max.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: [u64; HIST_BUCKETS],
    underflow: u64,
    overflow: u64,
    n_finite: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)`. Both edges must be finite with
    /// `lo < hi`.
    pub fn new(lo: f64, hi: f64) -> Histogram {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "histogram needs finite lo < hi (got [{lo}, {hi}))"
        );
        Histogram {
            lo,
            hi,
            counts: [0; HIST_BUCKETS],
            underflow: 0,
            overflow: 0,
            n_finite: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        if x.is_nan() {
            self.overflow += 1;
            return;
        }
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let frac = (x - self.lo) / (self.hi - self.lo);
            let idx = ((frac * HIST_BUCKETS as f64) as usize).min(HIST_BUCKETS - 1);
            self.counts[idx] += 1;
        }
        if x.is_finite() {
            self.n_finite += 1;
            self.sum += x;
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
    }

    /// Adds another histogram's contents. Panics when the bucket edges
    /// differ — merging histograms of different quantities is a bug.
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lo.to_bits() == other.lo.to_bits() && self.hi.to_bits() == other.hi.to_bits(),
            "cannot merge histograms with different edges: [{}, {}) vs [{}, {})",
            self.lo,
            self.hi,
            other.lo,
            other.hi
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.n_finite += other.n_finite;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Samples below `lo` (includes `-inf`).
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above `hi` (includes `+inf` and `NaN`).
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Finite samples (the population behind mean/min/max).
    pub fn samples(&self) -> u64 {
        self.n_finite
    }

    /// Mean of the finite samples; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n_finite == 0 {
            0.0
        } else {
            self.sum / self.n_finite as f64
        }
    }

    /// Minimum finite sample, if any.
    pub fn min(&self) -> Option<f64> {
        (self.n_finite > 0).then_some(self.min)
    }

    /// Maximum finite sample, if any.
    pub fn max(&self) -> Option<f64> {
        (self.n_finite > 0).then_some(self.max)
    }

    /// One-line JSON rendering.
    pub fn to_json(&self) -> String {
        let counts: Vec<String> = self.counts.iter().map(|c| c.to_string()).collect();
        format!(
            "{{\"lo\":{},\"hi\":{},\"counts\":[{}],\"underflow\":{},\"overflow\":{},\
             \"samples\":{},\"mean\":{},\"min\":{},\"max\":{}}}",
            Jf(self.lo),
            Jf(self.hi),
            counts.join(","),
            self.underflow,
            self.overflow,
            self.n_finite,
            Jf(self.mean()),
            Jf(self.min().unwrap_or(f64::NAN)),
            Jf(self.max().unwrap_or(f64::NAN))
        )
    }
}

/// Event-class counters (one `u64` per taxonomy class).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetryCounters {
    /// Fleet sessions started.
    pub sessions: u64,
    /// Slots completed.
    pub slots: u64,
    /// TP commands issued (all sources).
    pub tp_commands: u64,
    /// Of which dead-reckoned.
    pub tp_dead_reckoned: u64,
    /// Of which post-handover alignment shots.
    pub tp_handover_shots: u64,
    /// Commands that reached the DACs.
    pub tp_applied: u64,
    /// Reports submitted to the control channel.
    pub ctrl_sent: u64,
    /// Reports delivered to the TP.
    pub ctrl_delivered: u64,
    /// ARQ retransmissions.
    pub ctrl_retransmits: u64,
    /// Control frames dropped (all reasons).
    pub ctrl_dropped: u64,
    /// SFP link-down transitions.
    pub sfp_downs: u64,
    /// SFP re-locks.
    pub sfp_ups: u64,
    /// Handovers performed.
    pub handovers: u64,
    /// Re-acquisition spirals started.
    pub reacq_started: u64,
    /// Spiral probes taken.
    pub reacq_probes: u64,
    /// Spirals that recovered solid signal.
    pub reacq_recovered: u64,
    /// Spirals abandoned (budget exhausted or handover).
    pub reacq_abandoned: u64,
    /// FSO → RF failovers.
    pub rf_failovers: u64,
    /// RF → FSO failbacks.
    pub rf_failbacks: u64,
    /// Slots carried by the RF fallback.
    pub rf_slots: u64,
    /// Scheduler TX grants acquired (grant start or unit change).
    pub sched_grants: u64,
    /// Scheduler TX grants revoked with traffic still queued.
    pub sched_preempts: u64,
    /// Playout-buffer stall episodes ended.
    pub playout_stalls: u64,
}

impl TelemetryCounters {
    /// Adds another counter set.
    pub fn merge(&mut self, o: &TelemetryCounters) {
        self.sessions += o.sessions;
        self.slots += o.slots;
        self.tp_commands += o.tp_commands;
        self.tp_dead_reckoned += o.tp_dead_reckoned;
        self.tp_handover_shots += o.tp_handover_shots;
        self.tp_applied += o.tp_applied;
        self.ctrl_sent += o.ctrl_sent;
        self.ctrl_delivered += o.ctrl_delivered;
        self.ctrl_retransmits += o.ctrl_retransmits;
        self.ctrl_dropped += o.ctrl_dropped;
        self.sfp_downs += o.sfp_downs;
        self.sfp_ups += o.sfp_ups;
        self.handovers += o.handovers;
        self.reacq_started += o.reacq_started;
        self.reacq_probes += o.reacq_probes;
        self.reacq_recovered += o.reacq_recovered;
        self.reacq_abandoned += o.reacq_abandoned;
        self.rf_failovers += o.rf_failovers;
        self.rf_failbacks += o.rf_failbacks;
        self.rf_slots += o.rf_slots;
        self.sched_grants += o.sched_grants;
        self.sched_preempts += o.sched_preempts;
        self.playout_stalls += o.playout_stalls;
    }

    /// One-line JSON rendering.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"sessions\":{},\"slots\":{},\"tp_commands\":{},\"tp_dead_reckoned\":{},\
             \"tp_handover_shots\":{},\"tp_applied\":{},\"ctrl_sent\":{},\
             \"ctrl_delivered\":{},\"ctrl_retransmits\":{},\"ctrl_dropped\":{},\
             \"sfp_downs\":{},\"sfp_ups\":{},\"handovers\":{},\"reacq_started\":{},\
             \"reacq_probes\":{},\"reacq_recovered\":{},\"reacq_abandoned\":{},\
             \"rf_failovers\":{},\"rf_failbacks\":{},\"rf_slots\":{},\
             \"sched_grants\":{},\"sched_preempts\":{},\"playout_stalls\":{}}}",
            self.sessions,
            self.slots,
            self.tp_commands,
            self.tp_dead_reckoned,
            self.tp_handover_shots,
            self.tp_applied,
            self.ctrl_sent,
            self.ctrl_delivered,
            self.ctrl_retransmits,
            self.ctrl_dropped,
            self.sfp_downs,
            self.sfp_ups,
            self.handovers,
            self.reacq_started,
            self.reacq_probes,
            self.reacq_recovered,
            self.reacq_abandoned,
            self.rf_failovers,
            self.rf_failbacks,
            self.rf_slots,
            self.sched_grants,
            self.sched_preempts,
            self.playout_stalls
        )
    }
}

/// Per-session aggregation: event counters plus fixed-bucket histograms of
/// the quantities §5 evaluates (power, margin, goodput, TP latency and
/// solver iterations, control delivery age — the ARQ-RTT equivalent the TP
/// experiences — and outage durations). Merged by `run_fleet` into the
/// fleet rollup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionTelemetry {
    /// Event-class counters.
    pub events: TelemetryCounters,
    /// Per-slot received power on the active unit (dBm), over `[-60, 0)`.
    pub power_dbm: Histogram,
    /// Per-slot link margin over sensitivity (dB), over `[-40, 24)`.
    pub margin_db: Histogram,
    /// Per-slot goodput (Gbps), over `[0, 32)`.
    pub goodput_gbps: Histogram,
    /// TP command latency (ms), over `[0, 4)`.
    pub tp_latency_ms: Histogram,
    /// Outer solver iterations per TP command, over `[0, 16)`.
    pub tp_iters: Histogram,
    /// Control-channel sample-to-delivery age (ms), over `[0, 40)`.
    pub ctrl_age_ms: Histogram,
    /// Outage durations (s), over `[0, 8)`.
    pub outage_s: Histogram,
    /// RF-fallback episode durations (s), over `[0, 8)`.
    pub rf_s: Histogram,
    /// Playout-stall episode durations (s), over `[0, 8)`.
    pub stall_s: Histogram,
}

impl Default for SessionTelemetry {
    fn default() -> Self {
        SessionTelemetry {
            events: TelemetryCounters::default(),
            power_dbm: Histogram::new(-60.0, 0.0),
            margin_db: Histogram::new(-40.0, 24.0),
            goodput_gbps: Histogram::new(0.0, 32.0),
            tp_latency_ms: Histogram::new(0.0, 4.0),
            tp_iters: Histogram::new(0.0, 16.0),
            ctrl_age_ms: Histogram::new(0.0, 40.0),
            outage_s: Histogram::new(0.0, 8.0),
            rf_s: Histogram::new(0.0, 8.0),
            stall_s: Histogram::new(0.0, 8.0),
        }
    }
}

impl SessionTelemetry {
    /// Folds one event into the counters and histograms.
    pub fn observe(&mut self, ev: &TelemetryEvent) {
        let c = &mut self.events;
        match *ev {
            TelemetryEvent::SessionStart { .. } => c.sessions += 1,
            TelemetryEvent::SessionEnd { .. } => {}
            TelemetryEvent::SlotStart { .. } => {}
            TelemetryEvent::SlotEnd {
                power_dbm,
                margin_db,
                rf_active,
                goodput_gbps,
                ..
            } => {
                c.slots += 1;
                c.rf_slots += rf_active as u64;
                self.power_dbm.record(power_dbm);
                self.margin_db.record(margin_db);
                self.goodput_gbps.record(goodput_gbps);
            }
            TelemetryEvent::TpCommandIssued {
                source,
                latency_s,
                iters,
                ..
            } => {
                c.tp_commands += 1;
                match source {
                    CommandSource::Report => {}
                    CommandSource::DeadReckoned => c.tp_dead_reckoned += 1,
                    CommandSource::HandoverShot => c.tp_handover_shots += 1,
                }
                self.tp_latency_ms.record(latency_s * 1e3);
                self.tp_iters.record(iters as f64);
            }
            TelemetryEvent::TpApplied { n, .. } => c.tp_applied += n,
            TelemetryEvent::CtrlSent { .. } => c.ctrl_sent += 1,
            TelemetryEvent::CtrlDelivered { age_s, .. } => {
                c.ctrl_delivered += 1;
                self.ctrl_age_ms.record(age_s * 1e3);
            }
            TelemetryEvent::CtrlRetransmit { n, .. } => c.ctrl_retransmits += n,
            TelemetryEvent::CtrlDropped { n, .. } => c.ctrl_dropped += n,
            TelemetryEvent::SfpDown { .. } => c.sfp_downs += 1,
            TelemetryEvent::SfpUp { outage_s, .. } => {
                c.sfp_ups += 1;
                self.outage_s.record(outage_s);
            }
            TelemetryEvent::Handover { .. } => c.handovers += 1,
            TelemetryEvent::ReacqStarted { .. } => c.reacq_started += 1,
            TelemetryEvent::ReacqProbe { .. } => c.reacq_probes += 1,
            TelemetryEvent::ReacqEnded { recovered, .. } => {
                if recovered {
                    c.reacq_recovered += 1;
                } else {
                    c.reacq_abandoned += 1;
                }
            }
            TelemetryEvent::RfFailover { .. } => c.rf_failovers += 1,
            TelemetryEvent::RfFailback { rf_s, .. } => {
                c.rf_failbacks += 1;
                self.rf_s.record(rf_s);
            }
            TelemetryEvent::SchedGrant { .. } => c.sched_grants += 1,
            TelemetryEvent::SchedPreempt { .. } => c.sched_preempts += 1,
            TelemetryEvent::PlayoutStall { stall_s, .. } => {
                c.playout_stalls += 1;
                self.stall_s.record(stall_s);
            }
        }
    }

    /// Adds another session's aggregation (the fleet roll-up operation).
    pub fn merge(&mut self, o: &SessionTelemetry) {
        self.events.merge(&o.events);
        self.power_dbm.merge(&o.power_dbm);
        self.margin_db.merge(&o.margin_db);
        self.goodput_gbps.merge(&o.goodput_gbps);
        self.tp_latency_ms.merge(&o.tp_latency_ms);
        self.tp_iters.merge(&o.tp_iters);
        self.ctrl_age_ms.merge(&o.ctrl_age_ms);
        self.outage_s.merge(&o.outage_s);
        self.rf_s.merge(&o.rf_s);
        self.stall_s.merge(&o.stall_s);
    }

    /// One-line JSON rendering (counters + histograms).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"events\":{},\"power_dbm\":{},\"margin_db\":{},\"goodput_gbps\":{},\
             \"tp_latency_ms\":{},\"tp_iters\":{},\"ctrl_age_ms\":{},\"outage_s\":{},\
             \"rf_s\":{},\"stall_s\":{}}}",
            self.events.to_json(),
            self.power_dbm.to_json(),
            self.margin_db.to_json(),
            self.goodput_gbps.to_json(),
            self.tp_latency_ms.to_json(),
            self.tp_iters.to_json(),
            self.ctrl_age_ms.to_json(),
            self.outage_s.to_json(),
            self.rf_s.to_json(),
            self.stall_s.to_json()
        )
    }
}

impl TelemetrySink for SessionTelemetry {
    fn record(&mut self, ev: &TelemetryEvent) {
        self.observe(ev);
    }
}

// ---------------------------------------------------------------------------
// Session attachment
// ---------------------------------------------------------------------------

/// A session's telemetry attachment: an optional event sink plus optional
/// in-session aggregation. The default ([`Telemetry::off`]) costs one
/// branch per slot; with neither sink nor counters attached no event is
/// even constructed.
#[derive(Debug, Default)]
pub struct Telemetry {
    sink: Option<Box<dyn TelemetrySink>>,
    counters: Option<Box<SessionTelemetry>>,
}

impl Telemetry {
    /// No telemetry (the default).
    pub fn off() -> Telemetry {
        Telemetry::default()
    }

    /// In-session counter/histogram aggregation, no event sink.
    pub fn counters() -> Telemetry {
        Telemetry {
            sink: None,
            counters: Some(Box::default()),
        }
    }

    /// An event sink, no aggregation.
    pub fn with_sink(sink: Box<dyn TelemetrySink>) -> Telemetry {
        Telemetry {
            sink: Some(sink),
            counters: None,
        }
    }

    /// Both an event sink and in-session aggregation.
    pub fn with_sink_and_counters(sink: Box<dyn TelemetrySink>) -> Telemetry {
        Telemetry {
            sink: Some(sink),
            counters: Some(Box::default()),
        }
    }

    /// Whether any observer is attached (the engine's per-slot gate).
    #[inline]
    pub fn is_active(&self) -> bool {
        self.sink.is_some() || self.counters.is_some()
    }

    /// Dispatches one event to the attached observers.
    #[inline]
    pub fn emit(&mut self, ev: &TelemetryEvent) {
        if let Some(c) = self.counters.as_mut() {
            c.observe(ev);
        }
        if let Some(s) = self.sink.as_mut() {
            s.record(ev);
        }
    }

    /// The aggregated counters, when enabled.
    pub fn counters_ref(&self) -> Option<&SessionTelemetry> {
        self.counters.as_deref()
    }

    /// Flushes the sink, if any.
    pub fn flush(&mut self) {
        if let Some(s) = self.sink.as_mut() {
            s.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total samples recorded (buckets + rails).
    fn total(h: &Histogram) -> u64 {
        h.underflow + h.overflow + h.counts.iter().sum::<u64>()
    }

    /// The JSONL text an in-memory sink wrote.
    fn text(sink: JsonlSink<Vec<u8>>) -> String {
        String::from_utf8(sink.into_inner()).expect("JSONL output is ASCII")
    }

    #[test]
    fn histogram_bucket_edges_are_half_open() {
        let mut h = Histogram::new(0.0, 16.0);
        h.record(0.0); // == lo → bucket 0
        h.record(15.999_999); // just below hi → last bucket
        h.record(16.0); // == hi → overflow
        h.record(-1e-12); // below lo → underflow
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[HIST_BUCKETS - 1], 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.underflow(), 1);
        assert_eq!(total(&h), 4);
    }

    #[test]
    fn histogram_nonfinite_samples_hit_the_rails_only() {
        let mut h = Histogram::new(0.0, 1.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        assert_eq!(h.overflow(), 2, "NaN and +inf overflow");
        assert_eq!(h.underflow(), 1, "-inf underflows");
        assert_eq!(h.samples(), 0, "no finite sample recorded");
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn histogram_mean_min_max_cover_finite_samples() {
        let mut h = Histogram::new(0.0, 10.0);
        for x in [1.0, 2.0, 9.0] {
            h.record(x);
        }
        assert_eq!(h.samples(), 3);
        assert!((h.mean() - 4.0).abs() < 1e-12);
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(9.0));
    }

    #[test]
    fn histogram_empty_merge_is_identity() {
        let mut a = Histogram::new(0.0, 10.0);
        a.record(3.0);
        let before = a;
        a.merge(&Histogram::new(0.0, 10.0));
        assert_eq!(a, before, "merging an empty histogram changes nothing");
        // And merging into an empty one yields the source.
        let mut empty = Histogram::new(0.0, 10.0);
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn histogram_merge_adds_everything() {
        let mut a = Histogram::new(0.0, 10.0);
        let mut b = Histogram::new(0.0, 10.0);
        a.record(1.0);
        a.record(-5.0);
        b.record(9.5);
        b.record(42.0);
        a.merge(&b);
        assert_eq!(total(&a), 4);
        assert_eq!(a.underflow(), 1);
        assert_eq!(a.overflow(), 1);
        assert_eq!(a.samples(), 4);
        assert_eq!(a.min(), Some(-5.0));
        assert_eq!(a.max(), Some(42.0));
    }

    #[test]
    #[should_panic(expected = "different edges")]
    fn histogram_merge_rejects_mismatched_edges() {
        let mut a = Histogram::new(0.0, 10.0);
        a.merge(&Histogram::new(0.0, 20.0));
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&TelemetryEvent::SlotStart { k: 0, t: 1e-3 });
        sink.record(&TelemetryEvent::SfpUp {
            t: 0.5,
            outage_s: 0.25,
        });
        sink.record(&TelemetryEvent::Handover {
            t: 0.6,
            from: 0,
            to: 1,
        });
        assert_eq!(sink.events, 3);
        assert!(!sink.failed());
        let text = text(sink);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "not JSON: {l}");
        }
        assert!(lines[0].contains("\"ev\":\"slot_start\""));
        assert!(lines[1].contains("\"outage_s\":0.25"));
        assert!(lines[2].contains("\"from\":0,\"to\":1"));
    }

    #[test]
    fn jsonl_sink_buffer_reuse_matches_per_event_to_json() {
        // One representative of every event variant (including non-finite
        // floats): the sink's reused-line-buffer path must produce exactly
        // `to_json() + "\n"` per event, byte for byte.
        let events = vec![
            TelemetryEvent::SessionStart {
                session: 3,
                seed: 99,
            },
            TelemetryEvent::SessionEnd {
                session: 3,
                slots: 4000,
            },
            TelemetryEvent::SlotStart { k: 7, t: 7e-3 },
            TelemetryEvent::SlotEnd {
                k: 7,
                t: 7e-3,
                active: 1,
                power_dbm: -21.25,
                margin_db: f64::NAN,
                link_up: true,
                rf_active: false,
                goodput_gbps: 9.6,
            },
            TelemetryEvent::TpCommandIssued {
                t: 0.01,
                apply_at: 0.012,
                source: CommandSource::Report,
                latency_s: 2e-3,
                iters: 4,
                converged: true,
            },
            TelemetryEvent::TpApplied { t: 0.012, n: 5 },
            TelemetryEvent::CtrlSent { t: 0.02 },
            TelemetryEvent::CtrlDelivered {
                t: 0.021,
                age_s: 1e-3,
            },
            TelemetryEvent::CtrlRetransmit { t: 0.022, n: 2 },
            TelemetryEvent::CtrlDropped {
                t: 0.023,
                n: 3,
                reason: DropReason::AckLost,
            },
            TelemetryEvent::SfpDown { t: 0.5 },
            TelemetryEvent::SfpUp {
                t: 0.75,
                outage_s: 0.25,
            },
            TelemetryEvent::Handover {
                t: 0.8,
                from: 0,
                to: 1,
            },
            TelemetryEvent::ReacqStarted { t: 0.9 },
            TelemetryEvent::ReacqProbe { t: f64::INFINITY },
            TelemetryEvent::ReacqEnded {
                t: 0.95,
                recovered: false,
            },
            TelemetryEvent::RfFailover { t: 0.96 },
            TelemetryEvent::RfFailback { t: 1.2, rf_s: 0.24 },
        ];
        let mut sink = JsonlSink::new(Vec::new());
        let mut expected = String::new();
        for ev in &events {
            sink.record(ev);
            expected.push_str(&ev.to_json());
            expected.push('\n');
        }
        assert_eq!(sink.events, events.len() as u64);
        assert_eq!(text(sink), expected);
    }

    #[test]
    fn event_json_maps_nonfinite_to_null() {
        let ev = TelemetryEvent::SlotEnd {
            k: 1,
            t: 1e-3,
            active: 0,
            power_dbm: f64::NEG_INFINITY,
            margin_db: f64::NAN,
            link_up: false,
            rf_active: false,
            goodput_gbps: 0.0,
        };
        let j = ev.to_json();
        assert!(j.contains("\"power_dbm\":null"));
        assert!(j.contains("\"margin_db\":null"));
    }

    #[test]
    fn session_telemetry_observes_and_merges() {
        let mut a = SessionTelemetry::default();
        a.observe(&TelemetryEvent::SlotEnd {
            k: 0,
            t: 1e-3,
            active: 0,
            power_dbm: -20.0,
            margin_db: 5.0,
            link_up: true,
            rf_active: true,
            goodput_gbps: 9.4,
        });
        a.observe(&TelemetryEvent::TpCommandIssued {
            t: 1e-3,
            apply_at: 2e-3,
            source: CommandSource::DeadReckoned,
            latency_s: 1.4e-3,
            iters: 3,
            converged: true,
        });
        a.observe(&TelemetryEvent::ReacqEnded {
            t: 0.1,
            recovered: false,
        });
        a.observe(&TelemetryEvent::RfFailover { t: 0.2 });
        a.observe(&TelemetryEvent::RfFailback { t: 0.5, rf_s: 0.3 });
        assert_eq!(a.events.slots, 1);
        assert_eq!(a.events.rf_slots, 1);
        assert_eq!(a.events.tp_commands, 1);
        assert_eq!(a.events.tp_dead_reckoned, 1);
        assert_eq!(a.events.reacq_abandoned, 1);
        assert_eq!(a.events.rf_failovers, 1);
        assert_eq!(a.events.rf_failbacks, 1);
        assert_eq!(a.rf_s.samples(), 1);
        assert_eq!(a.power_dbm.samples(), 1);
        assert!((a.tp_latency_ms.mean() - 1.4).abs() < 1e-12);
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.events.slots, 2);
        assert_eq!(b.events.tp_dead_reckoned, 2);
        assert_eq!(b.power_dbm.samples(), 2);
    }

    #[test]
    fn telemetry_off_is_inactive_and_emit_is_a_no_op() {
        let mut t = Telemetry::off();
        assert!(!t.is_active());
        t.emit(&TelemetryEvent::SfpDown { t: 0.0 });
        assert!(t.counters_ref().is_none());
        assert!(t.sink.is_none());
    }

    #[test]
    fn telemetry_counters_aggregate_emitted_events() {
        let mut t = Telemetry::counters();
        assert!(t.is_active());
        t.emit(&TelemetryEvent::SfpDown { t: 0.1 });
        t.emit(&TelemetryEvent::SfpUp {
            t: 0.3,
            outage_s: 0.2,
        });
        let c = t.counters_ref().expect("counters enabled");
        assert_eq!(c.events.sfp_downs, 1);
        assert_eq!(c.events.sfp_ups, 1);
        assert_eq!(c.outage_s.samples(), 1);
    }

    #[test]
    fn telemetry_sink_and_counters_both_observe() {
        let mut t = Telemetry::with_sink_and_counters(Box::new(JsonlSink::new(Vec::new())));
        t.emit(&TelemetryEvent::CtrlSent { t: 0.0 });
        assert_eq!(t.counters_ref().unwrap().events.ctrl_sent, 1);
        let sink = t.sink.take().unwrap();
        let dbg = format!("{sink:?}");
        assert!(dbg.contains("events: 1"), "{dbg}");
    }
}
