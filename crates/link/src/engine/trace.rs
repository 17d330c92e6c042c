use super::SlotSession;
use crate::control::unit;
use cyclops_vrh::traces::HeadTrace;

// ---------------------------------------------------------------------------
// The §5.4 trace session
// ---------------------------------------------------------------------------

/// The §5.4 drift-model session: plays a head trace against the paper's
/// realignment/drift/tolerance rules, one boolean (connected?) per slot.
/// [`crate::trace_sim::simulate_trace`] is this session under its interval
/// runner, [`TraceSession::run`].
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

/// Most slots one interval decision may prove connected without walking
/// them: with `n ≤ 4096` adds the rounding factor `(1 + 2⁻⁵³)^(n+4)` stays
/// under the `2⁻⁴⁰` slack of [`proof_bound`] (`DESIGN.md` §12).
const PROVED_MAX_SLOTS: usize = 4096;

/// The value a computed drift sum must not exceed for an interval to be
/// proved connected against tolerance `tol`: `tol·(1 − 2⁻⁴⁰)`, or −∞
/// (prove nothing, walk instead) for a tolerance that is NaN, negative or
/// too close to the subnormal range for relative rounding bounds to hold.
fn proof_bound(tol: f64) -> f64 {
    if tol >= 1e-300 {
        tol * (1.0 - 2f64.powi(-40))
    } else {
        f64::NEG_INFINITY
    }
}

impl<'a> TraceSession<'a> {
    /// Creates the session over a trace. A trace of fewer than two samples
    /// publishes no report: the beam never realigns and never drifts.
    pub fn new(trace: &'a HeadTrace, p: crate::trace_sim::TraceSimParams) -> TraceSession<'a> {
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
    /// bit-identical to one [`SlotSession::step_slot`] call per slot but
    /// several times faster (see `DESIGN.md` §12 for the measured numbers).
    ///
    /// The runner decides one realignment interval at a time: the drift
    /// slots up to a report, the report slot, the 1–2 slots of the
    /// realignment window and the completion slot that resets the drift.
    /// Whether a report arrives, is lost, and when its realignment completes
    /// never depends on the drift, so those slot indices are found first,
    /// by the exact comparisons `step_slot` makes. Inside the interval every
    /// drift increment `rate * slot_ms` is ≥ 0 and round-to-nearest
    /// addition is monotone, so the drift never decreases: the slots are
    /// connected on a prefix and disconnected for the rest. The interval is
    /// proved fully connected from one sum `lat + n₁·d₁ + n₂·d₂` per axis
    /// checked against the tolerance less a rounding slack, or else its
    /// exact adds are walked up to the first disconnected slot. The
    /// completion slot's drift `residual·scale + d` does not depend on the
    /// interval at all.
    ///
    /// Anything outside those preconditions — a negative or NaN increment,
    /// a report lost without dead reckoning, two reports in one slot, a
    /// realignment completing at or after the next report, the trace end —
    /// runs through `step_slot`'s operation sequence verbatim, one slot at
    /// a time. Pinned by the `trace_corpus` engine-digest golden (which
    /// folds per-slot booleans), `sweep_fractions_are_pinned` and
    /// `fused_run_matches_step_slot_exactly`.
    pub fn run(&mut self, n_slots: usize) -> Vec<bool> {
        let mut out = Vec::with_capacity(n_slots);
        self.run_impl(n_slots, |on, off| {
            out.resize(out.len() + on, true);
            out.resize(out.len() + off, false);
        });
        out
    }

    /// Runs the session for `n_slots`, returning only the number of
    /// connected slots — the same runner as [`TraceSession::run`] without
    /// materializing (or allocating) the per-slot vector. The count equals
    /// `run(n_slots).iter().filter(|&&b| b).count()` exactly;
    /// [`crate::trace_sim::simulate_corpus`] uses this path since the Fig-16
    /// CDF only needs per-trace on-fractions.
    pub fn run_count(&mut self, n_slots: usize) -> usize {
        let mut on_slots = 0usize;
        self.run_impl(n_slots, |on, _| on_slots += on);
        on_slots
    }

    /// The interval runner behind [`TraceSession::run`] /
    /// [`TraceSession::run_count`]: `emit(on, off)` reports the next
    /// `on + off` slots, in slot order, as `on` connected slots followed by
    /// `off` disconnected ones — the booleans `step_slot` would produce.
    #[inline]
    fn run_impl(&mut self, n_slots: usize, mut emit: impl FnMut(usize, usize)) {
        use std::hint::black_box;
        let p = self.p;
        let slot_ms = p.slot_ms;
        let inv_slot = 1.0 / slot_ms;
        let tol_l = p.tol_lat_m;
        let tol_a = p.tol_ang_rad;
        let bound_l = proof_bound(tol_l);
        let bound_a = proof_bound(tol_a);
        // Interval decisions need slot end times that grow with the index.
        let intervals = slot_ms > 0.0;
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
        // Slot `j` as a float, and its end time as step_slot computes it.
        // Slot indices stay below 2^63, so converting through `i64` gives
        // the value `j as f64` does, with one instruction instead of four.
        let idx = |j: usize| j as i64 as f64;
        let t_end = |j: usize| (idx(j) + 1.0) * slot_ms;
        // Whether slot `g` runs and its end reaches event time `ev`, and
        // whether `ev` lands in `g`: the previous slot's end does not reach
        // it. Both are false for a NaN `ev`.
        let reaches = |ev: f64, g: usize| g < n_slots && ev <= t_end(g);
        let lands = |ev: f64, g: usize| reaches(ev, g) && idx(g) * slot_ms < ev;

        // First slot at or after `lo` whose end time reaches event time `ev`
        // (`n_slots` if none): a reciprocal-multiply guess, then corrected by
        // the *exact* comparison step_slot itself performs — float rounding
        // in the guess cannot shift the boundary. A NaN `ev` yields `lo`;
        // callers confirm `reaches(ev, g)` before relying on the result.
        macro_rules! boundary {
            ($ev:expr, $lo:expr) => {{
                let (ev, lo) = ($ev, $lo);
                let mut g = (((ev * inv_slot - 1.0).max(idx(lo))) as usize).min(n_slots);
                // `black_box` keeps LLVM from auto-vectorizing these
                // 0-or-1-step correction walks into a 16-wide search
                // (it assumes a trip count of ~`n_slots` from the loop
                // bound; the vector prologue alone costs ~10× the walk).
                while g > lo && idx(g) * slot_ms >= ev {
                    g = black_box(g - 1);
                }
                while g < n_slots && t_end(g) < ev {
                    g = black_box(g + 1);
                }
                g
            }};
        }
        // One slot at index `k`: step_slot's operation sequence, verbatim
        // (report consumption, realignment completion, drift, tolerance
        // compare). Advances `k`.
        macro_rules! event_slot {
            () => {{
                let t_ms = t_end(k);
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
                let on = (lat <= tol_l) & (ang <= tol_a);
                emit(on as usize, !on as usize);
                k += 1;
            }};
        }

        // The last interval's report slot and its offsets: the report slot
        // from the one before, the completion slot from the report slot.
        // Report periods repeat, so they predict the next interval's slots,
        // which `lands` then confirms exactly.
        let (mut kr_prev, mut gap_r, mut gap_c) = (0usize, 0usize, 0usize);

        'slots: while k < n_slots {
            // One interval [k, kc]: drift slots [k, kr), the report slot kr
            // and the window slots up to the completion slot kc. Breaking out
            // names the slot the verbatim steps run to instead.
            let stop = 'interval: {
                if !intervals || report_idx >= n_rates {
                    break 'interval n_slots;
                }
                if realign_at.is_some() {
                    break 'interval k + 1;
                }
                let r = rates[report_idx];
                let mut kr = kr_prev + gap_r;
                if !(kr >= k && lands(r.t_report_ms, kr)) {
                    kr = boundary!(r.t_report_ms, k);
                    if !reaches(r.t_report_ms, kr) {
                        break 'interval (kr + 1).min(n_slots);
                    }
                }
                let fallback = kr + 1;
                let when = r.t_report_ms + p.realign_latency_ms;
                let mut kc = kr + gap_c;
                if !lands(when, kc) {
                    kc = boundary!(when, kr);
                    if !reaches(when, kc) {
                        break 'interval fallback;
                    }
                }
                let next = rates
                    .get(report_idx + 1)
                    .map_or(f64::INFINITY, |n| n.t_report_ms);
                if next <= t_end(kc) {
                    break 'interval fallback;
                }
                let (d1, a1) = (lat_rate * slot_ms, ang_rate * slot_ms);
                let (d2, a2) = (r.lat_per_ms * slot_ms, r.ang_per_ms * slot_ms);
                if !(d1 >= 0.0 && a1 >= 0.0 && d2 >= 0.0 && a2 >= 0.0) {
                    break 'interval fallback;
                }
                let lost = p.report_loss_prob > 0.0
                    && unit(cyclops_par::mix64(p.loss_seed, report_idx as u64 + 1))
                        < p.report_loss_prob;
                if lost && !p.dead_reckoning {
                    break 'interval fallback;
                }

                // Slots [k, kc): n₁ adds of (d1, a1), then n − n₁ of (d2, a2).
                let (n1, n) = (kr - k, kc - k);
                let (f1, f2) = (idx(n1), idx(n - n1));
                let proved = n <= PROVED_MAX_SLOTS
                    && lat >= 0.0
                    && ang >= 0.0
                    && lat + f1 * d1 + f2 * d2 <= bound_l
                    && ang + f1 * a1 + f2 * a2 <= bound_a;
                let on = if proved {
                    n
                } else {
                    let (mut x, mut y, mut i) = (lat, ang, 0);
                    while i < n {
                        let (dx, dy) = if i < n1 { (d1, a1) } else { (d2, a2) };
                        x += dx;
                        y += dy;
                        if !((x <= tol_l) & (y <= tol_a)) {
                            break;
                        }
                        i += 1;
                    }
                    i
                };
                emit(on, n - on);

                // The completion slot kc: the report's rates, the reset to
                // the residual, one slot of drift.
                report_idx += 1;
                lat_rate = r.lat_per_ms;
                ang_rate = r.ang_per_ms;
                let scale = if lost { p.dr_residual_scale } else { 1.0 };
                lat = p.residual_lat_m * scale + d2;
                ang = p.residual_ang_rad * scale + a2;
                let on = (lat <= tol_l) & (ang <= tol_a);
                emit(on as usize, !on as usize);
                k = kc + 1;
                (kr_prev, gap_r, gap_c) = (kr, kr - kr_prev, kc - kr);
                continue 'slots;
            };
            while k < stop {
                event_slot!();
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
