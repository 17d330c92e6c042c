use super::SlotSession;
use crate::control::unit;
use cyclops_vrh::traces::HeadTrace;

// ---------------------------------------------------------------------------
// The §5.4 trace session
// ---------------------------------------------------------------------------

/// The §5.4 drift-model session: plays a head trace against the paper's
/// realignment/drift/tolerance rules, one boolean (connected?) per slot.
/// [`crate::trace_sim::simulate_trace`] is this session under [`run_slots`](super::run_slots).
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
