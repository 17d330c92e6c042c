//! The §5.4 user-trace connectivity simulation (Fig 16).
//!
//! The paper's methodology, implemented verbatim: "we divide time into 1 ms
//! slots. The prototype's link starts with a perfectly aligned beam.
//! Whenever the head/VRH position is reported (roughly every 10 ms), the TP
//! mechanism aligns the beam in 1–2 ms with a lateral and angular error of
//! 4.54 mm and 4.54/1.75 mrad respectively ... In between two position
//! reports r and r′, the beam drifts laterally (angularly) at a rate of
//! d(r,r′)/t(r′,r) per ms ... In any timeslot, if the total angular or
//! lateral drift is more than the link's angular (8.73 mrad) or lateral
//! (6 mm) tolerance, the link is marked as disconnected in that timeslot."
//!
//! Since the engine refactor the slot loop lives in
//! [`crate::engine::TraceSession`]; [`simulate_trace`] drives it through its
//! interval runner, bit-identically to one
//! [`SlotSession::step_slot`](crate::engine::SlotSession::step_slot) call
//! per slot and to the pre-refactor loop.
//!
//! [`simulate_trace`]/[`simulate_corpus`] are the Fig-16 and benchmark
//! entry points. Code that needs per-slot control drives
//! [`crate::engine::TraceSession`] through
//! [`SlotSession::step_slot`](crate::engine::SlotSession::step_slot)
//! directly.

use crate::engine::{FallbackPolicy, LinkPolicy, TraceSession};
use crate::sfp_state::SfpLinkState;
use cyclops_vrh::traces::HeadTrace;

/// Parameters of the §5.4 simulation — defaults are the paper's 25G values.
#[derive(Debug, Clone, Copy)]
pub struct TraceSimParams {
    /// Slot length (ms).
    pub slot_ms: f64,
    /// TP realignment completion latency after a report (ms).
    pub realign_latency_ms: f64,
    /// Residual lateral error right after realignment (m) — Table 2's
    /// combined average.
    pub residual_lat_m: f64,
    /// Residual angular error right after realignment (rad) — 4.54 mm over
    /// the 1.75 m link.
    pub residual_ang_rad: f64,
    /// Lateral tolerance (m) — §5.3.1's 6 mm for the 25G link.
    pub tol_lat_m: f64,
    /// Angular tolerance (rad) — §5.3.1's 8.73 mrad.
    pub tol_ang_rad: f64,
    /// Probability a position report is lost on the control channel
    /// (0 = the paper's reliable-channel assumption). Decisions are keyed
    /// `mix64(loss_seed, report_index)`, so results are reproducible and
    /// identical at any thread count.
    pub report_loss_prob: f64,
    /// Seed of the report-loss decisions.
    pub loss_seed: u64,
    /// Dead reckoning: on a lost report, realign anyway from the
    /// constant-velocity extrapolation — with the residual error inflated by
    /// [`TraceSimParams::dr_residual_scale`]. Without it a lost report
    /// simply skips the realignment and drift keeps accruing.
    pub dead_reckoning: bool,
    /// Residual-error multiplier for dead-reckoned realignments (the
    /// extrapolated pose is less accurate than a measured one).
    pub dr_residual_scale: f64,
}

impl Default for TraceSimParams {
    fn default() -> Self {
        TraceSimParams {
            slot_ms: 1.0,
            realign_latency_ms: 1.5,
            residual_lat_m: 4.54e-3,
            residual_ang_rad: 4.54e-3 / 1.75,
            tol_lat_m: 6.0e-3,
            tol_ang_rad: 8.73e-3,
            report_loss_prob: 0.0,
            loss_seed: 0,
            dead_reckoning: false,
            dr_residual_scale: 2.0,
        }
    }
}

/// Result of simulating one trace.
#[derive(Debug, Clone)]
pub struct TraceSimResult {
    /// Per-slot connectivity.
    pub slots_on: Vec<bool>,
    /// Fraction of slots connected.
    pub on_fraction: f64,
}

impl TraceSimResult {
    /// Number of disconnected slots.
    pub fn off_slots(&self) -> usize {
        self.slots_on.iter().filter(|&&b| !b).count()
    }

    /// §5.4's clustering metric: fraction of off-slots that fall in frames
    /// (30 contiguous slots) containing fewer than `threshold` off-slots —
    /// "widely scattered off-timeslots should have minimal impact on user
    /// experience". The paper reports > 60 % at threshold 10.
    ///
    /// Edge cases: with no off-slots at all the fraction is 1.0 (vacuously
    /// perfectly scattered); `frame_slots == 0` defines no frames, so no
    /// off-slot counts as scattered and the fraction is 0.0. A trailing
    /// partial frame is counted like any other (its off-count can only be
    /// lower).
    pub fn off_slot_scatter_fraction(&self, frame_slots: usize, threshold: usize) -> f64 {
        let total_off = self.off_slots();
        if total_off == 0 {
            return 1.0;
        }
        if frame_slots == 0 {
            return 0.0;
        }
        let mut scattered = 0usize;
        for frame in self.slots_on.chunks(frame_slots) {
            let off = frame.iter().filter(|&&b| !b).count();
            if off < threshold {
                scattered += off;
            }
        }
        scattered as f64 / total_off as f64
    }
}

/// Outcome of replaying a trace's per-slot alignment through the SFP
/// re-lock machine and the hybrid-fallback policy
/// ([`replay_with_fallback`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FallbackReplay {
    /// Fraction of slots with the FSO link up (after SFP re-lock).
    pub fso_up_frac: f64,
    /// Fraction of slots carried by the RF fallback (0 with the policy
    /// off).
    pub rf_frac: f64,
    /// Fraction of slots delivering data on either medium.
    pub up_frac: f64,
    /// Mean delivered rate over the run (Gbps): FSO rate on FSO slots, RF
    /// rate on RF slots, zero otherwise.
    pub effective_gbps: f64,
    /// FSO → RF failovers.
    pub failovers: u64,
}

/// Replays a trace's per-slot optical alignment (`slots_on`, e.g.
/// [`TraceSimResult::slots_on`]) through the SFP link-state machine (the
/// multi-second `relink_s` re-lock of §5.3) and then the hybrid FSO/RF
/// [`LinkPolicy`] — the Fig 16 fallback ablation: what the availability CDF
/// looks like when an outage degrades to `rf_rate_gbps` instead of zero.
///
/// Deterministic and RNG-free; with [`FallbackPolicy::Off`] the RF leg is
/// skipped entirely and `up_frac == fso_up_frac` (availability is exactly
/// the pure-FSO replay).
pub fn replay_with_fallback(
    slots_on: &[bool],
    slot_ms: f64,
    relink_s: f64,
    fallback: FallbackPolicy,
    rf_rate_gbps: f64,
    fso_rate_gbps: f64,
) -> FallbackReplay {
    let dt = slot_ms * 1e-3;
    let mut sfp = SfpLinkState::new_up(relink_s);
    let mut policy = match fallback {
        FallbackPolicy::Off => None,
        FallbackPolicy::RfOnOutage => Some(LinkPolicy::default()),
    };
    let mut n_fso = 0usize;
    let mut n_rf = 0usize;
    let mut n_up = 0usize;
    let mut rate_sum = 0.0;
    for &aligned in slots_on {
        let up = sfp.step(aligned, dt);
        let rf = policy.as_mut().is_some_and(|p| p.step(up, dt));
        n_fso += up as usize;
        n_rf += rf as usize;
        n_up += (up || rf) as usize;
        // During the failback hold traffic stays on RF even while FSO is
        // instantaneously up — same accounting as the engine.
        rate_sum += if rf {
            rf_rate_gbps
        } else if up {
            fso_rate_gbps
        } else {
            0.0
        };
    }
    let n = slots_on.len().max(1) as f64;
    FallbackReplay {
        fso_up_frac: n_fso as f64 / n,
        rf_frac: n_rf as f64 / n,
        up_frac: n_up as f64 / n,
        effective_gbps: rate_sum / n,
        failovers: policy.map_or(0, |p| p.n_failovers()),
    }
}

/// Simulates link connectivity over one head-motion trace with the paper's
/// drift model.
pub fn simulate_trace(trace: &HeadTrace, p: &TraceSimParams) -> TraceSimResult {
    let n_slots = ((trace.duration_s() * 1e3) / p.slot_ms).floor() as usize;
    let mut session = TraceSession::new(trace, *p);
    // The interval runner is bit-identical to one `step_slot` call per slot
    // (pinned by the trace_corpus engine-digest golden and the
    // `fused_run_matches_step_slot_exactly` test) and several times faster.
    let slots_on = session.run(n_slots);
    let on = slots_on.iter().filter(|&&b| b).count();
    let on_fraction = on as f64 / slots_on.len().max(1) as f64;
    TraceSimResult {
        slots_on,
        on_fraction,
    }
}

/// Simulates a corpus of traces, returning each trace's on-fraction — the
/// distribution behind Fig 16's CDF.
///
/// Traces are independent and the simulation is pure, so they are
/// evaluated on worker threads and collected in input order — bit-identical
/// to the serial loop.
pub fn simulate_corpus(traces: &[HeadTrace], p: &TraceSimParams) -> Vec<f64> {
    // Counting path: same runner as `simulate_trace`, no per-slot
    // vector — the CDF only needs each trace's on-fraction.
    let one = |t: &HeadTrace| {
        let n_slots = ((t.duration_s() * 1e3) / p.slot_ms).floor() as usize;
        let on = TraceSession::new(t, *p).run_count(n_slots);
        on as f64 / n_slots.max(1) as f64
    };
    cyclops_par::par_map(traces, 1, one)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::run_slots;
    use cyclops_geom::quat::Quat;
    use cyclops_geom::vec3::{v3, Vec3};
    use cyclops_vrh::traces::{TraceGenConfig, TraceSample};

    /// A trace moving at constant linear/angular speed.
    fn uniform_trace(lin_mps: f64, ang_rps: f64, secs: f64) -> HeadTrace {
        let n = (secs * 100.0) as usize + 1;
        let samples = (0..n)
            .map(|i| {
                let t = i as f64 * 0.01;
                TraceSample {
                    t_ms: t * 1e3,
                    pos: v3(lin_mps * t, 0.0, 0.0),
                    quat: Quat::from_axis_angle(Vec3::Y, ang_rps * t),
                }
            })
            .collect();
        HeadTrace::new(10.0, samples)
    }

    #[test]
    fn stationary_trace_is_fully_connected() {
        let tr = uniform_trace(0.0, 0.0, 10.0);
        let r = simulate_trace(&tr, &TraceSimParams::default());
        assert_eq!(r.on_fraction, 1.0);
        assert_eq!(r.off_slots(), 0);
    }

    #[test]
    fn slow_motion_stays_connected() {
        // 10 cm/s: lateral budget per 10 ms = 1 mm ≪ (6 − 4.54) mm.
        let tr = uniform_trace(0.10, 0.1, 10.0);
        let r = simulate_trace(&tr, &TraceSimParams::default());
        assert!(r.on_fraction > 0.999, "{}", r.on_fraction);
    }

    #[test]
    fn threshold_speed_matches_paper_budget() {
        // The lateral budget is (6 − 4.54) mm per 10 ms interval → the
        // critical linear speed is ≈ 14.6 cm/s: slots late in each interval
        // disconnect above it.
        let below = simulate_trace(&uniform_trace(0.13, 0.0, 10.0), &TraceSimParams::default());
        let above = simulate_trace(&uniform_trace(0.18, 0.0, 10.0), &TraceSimParams::default());
        assert!(below.on_fraction > 0.99, "below {}", below.on_fraction);
        assert!(above.on_fraction < 0.9, "above {}", above.on_fraction);
    }

    #[test]
    fn angular_threshold_matches_paper_budget() {
        // Angular budget (8.73 − 2.59) mrad per 10 ms → ≈ 0.61 rad/s
        // (35 deg/s).
        let below = simulate_trace(&uniform_trace(0.0, 0.45, 10.0), &TraceSimParams::default());
        let above = simulate_trace(&uniform_trace(0.0, 0.9, 10.0), &TraceSimParams::default());
        assert!(below.on_fraction > 0.99, "below {}", below.on_fraction);
        assert!(above.on_fraction < 0.9, "above {}", above.on_fraction);
    }

    #[test]
    fn generated_corpus_availability_matches_fig16() {
        // A small corpus (the Fig 16 harness runs the full 500): overall
        // availability should land in the high-90s with per-trace spread.
        let traces: Vec<HeadTrace> = (0..20)
            .map(|i| HeadTrace::generate(&TraceGenConfig::default(), 9000 + i))
            .collect();
        let fracs = simulate_corpus(&traces, &TraceSimParams::default());
        let mean = fracs.iter().sum::<f64>() / fracs.len() as f64;
        assert!((0.93..1.0).contains(&mean), "mean availability {mean}");
    }

    #[test]
    fn scatter_metric_distinguishes_clustered_outages() {
        // All-off frame vs scattered singles.
        let mut clustered = vec![true; 300];
        for s in clustered.iter_mut().take(60).skip(30) {
            *s = false;
        }
        let r1 = TraceSimResult {
            on_fraction: 0.9,
            slots_on: clustered,
        };
        assert_eq!(r1.off_slot_scatter_fraction(30, 10), 0.0);

        let mut scattered = vec![true; 300];
        for i in (0..300).step_by(30) {
            scattered[i] = false;
        }
        let r2 = TraceSimResult {
            on_fraction: 0.97,
            slots_on: scattered,
        };
        assert_eq!(r2.off_slot_scatter_fraction(30, 10), 1.0);
    }

    #[test]
    fn scatter_metric_edge_cases_are_pinned() {
        // Empty record list: no off-slots → vacuously 1.0.
        let empty = TraceSimResult {
            on_fraction: 1.0,
            slots_on: vec![],
        };
        assert_eq!(empty.off_slot_scatter_fraction(30, 10), 1.0);
        // frame_slots == 0 must not panic (chunks(0) would): no frames
        // exist, so nothing is scattered.
        let some_off = TraceSimResult {
            on_fraction: 0.5,
            slots_on: vec![true, false, true, false],
        };
        assert_eq!(some_off.off_slot_scatter_fraction(0, 10), 0.0);
        // Trailing partial frame still counts its off-slots.
        let partial_tail = TraceSimResult {
            on_fraction: 0.97,
            slots_on: {
                let mut s = vec![true; 35];
                s[33] = false; // lives in the 5-slot tail frame
                s
            },
        };
        assert_eq!(partial_tail.off_slot_scatter_fraction(30, 10), 1.0);
        // All-off with threshold 0: nothing can be under the threshold.
        let all_off = TraceSimResult {
            on_fraction: 0.0,
            slots_on: vec![false; 60],
        };
        assert_eq!(all_off.off_slot_scatter_fraction(30, 0), 0.0);
    }

    #[test]
    fn report_loss_degrades_availability_and_dead_reckoning_recovers_it() {
        // Rotation at 0.45 rad/s: 4.5 mrad per 10 ms interval — inside the
        // clean angular budget (8.73 − 2.59 = 6.14 mrad) and still inside
        // the dead-reckoned one (8.73 − 1.2·2.59 = 5.62 mrad), but a single
        // skipped realignment doubles the drift past tolerance.
        let tr = uniform_trace(0.0, 0.45, 20.0);
        let clean = simulate_trace(&tr, &TraceSimParams::default());
        let lossy = simulate_trace(
            &tr,
            &TraceSimParams {
                report_loss_prob: 0.30,
                loss_seed: 41,
                ..Default::default()
            },
        );
        let dr = simulate_trace(
            &tr,
            &TraceSimParams {
                report_loss_prob: 0.30,
                loss_seed: 41,
                dead_reckoning: true,
                dr_residual_scale: 1.2,
                ..Default::default()
            },
        );
        assert!(
            lossy.on_fraction < clean.on_fraction - 0.02,
            "loss must hurt: clean {} lossy {}",
            clean.on_fraction,
            lossy.on_fraction
        );
        assert!(
            dr.on_fraction > lossy.on_fraction,
            "DR must recover: lossy {} dr {}",
            lossy.on_fraction,
            dr.on_fraction
        );
        // DR recovers most of the gap.
        let gap = clean.on_fraction - lossy.on_fraction;
        let recovered = dr.on_fraction - lossy.on_fraction;
        assert!(recovered > 0.5 * gap, "recovered {recovered} of gap {gap}");
    }

    #[test]
    fn lossy_trace_sim_is_deterministic_per_seed() {
        let tr = uniform_trace(0.14, 0.4, 10.0);
        let p = TraceSimParams {
            report_loss_prob: 0.2,
            loss_seed: 1234,
            dead_reckoning: true,
            ..Default::default()
        };
        let a = simulate_trace(&tr, &p);
        let b = simulate_trace(&tr, &p);
        assert_eq!(a.slots_on, b.slots_on);
        assert_eq!(a.on_fraction.to_bits(), b.on_fraction.to_bits());
        // And a different seed actually changes the loss pattern.
        let c = simulate_trace(&tr, &TraceSimParams { loss_seed: 77, ..p });
        assert_ne!(a.slots_on, c.slots_on, "seed must matter");
    }

    /// Slots [`simulate_trace`] runs over `trace`.
    fn trace_slots(trace: &HeadTrace, p: &TraceSimParams) -> usize {
        ((trace.duration_s() * 1e3) / p.slot_ms).floor() as usize
    }

    /// Asserts that `run`, `run_count` and one `step_slot` call per slot
    /// agree over `n_slots`; returns the per-slot flags.
    fn assert_runners_agree(trace: &HeadTrace, p: &TraceSimParams, n_slots: usize) -> Vec<bool> {
        let naive = run_slots(&mut TraceSession::new(trace, *p), n_slots);
        let run = TraceSession::new(trace, *p).run(n_slots);
        assert_eq!(naive, run, "interval run diverged (p = {p:?})");
        let count = TraceSession::new(trace, *p).run_count(n_slots);
        let expect = naive.iter().filter(|&&b| b).count();
        assert_eq!(count, expect, "counting run diverged (p = {p:?})");
        naive
    }

    /// `trace` with every timestamp after the first moved by up to
    /// ±`jitter_ms / 2` (still increasing for a jitter below the period),
    /// so report slots stop repeating.
    fn jittered(trace: HeadTrace, jitter_ms: f64, seed: u64) -> HeadTrace {
        let mut samples = trace.samples;
        for (i, s) in samples.iter_mut().enumerate().skip(1) {
            let u = crate::control::unit(cyclops_par::mix64(seed, i as u64));
            s.t_ms += jitter_ms * (u - 0.5);
        }
        HeadTrace::new(trace.period_ms, samples)
    }

    #[test]
    fn fused_run_matches_step_slot_exactly() {
        // The interval runner (TraceSession::run / run_count) must equal the
        // naive per-slot loop bit-for-bit, across loss/DR configurations,
        // generated and uniform traces, non-default slot lengths (including
        // slot/report-period ratios that stress the slot-boundary
        // comparisons) and every fallback the runner takes.
        let gen = |seed| HeadTrace::generate(&TraceGenConfig::default(), seed);
        let base = TraceSimParams::default();
        let mut cases: Vec<(HeadTrace, TraceSimParams)> = vec![
            (uniform_trace(0.0, 0.0, 5.0), base),
            (uniform_trace(0.14, 0.4, 10.0), base),
            (
                uniform_trace(0.18, 0.0, 10.0),
                TraceSimParams {
                    slot_ms: 0.5,
                    ..base
                },
            ),
            (
                uniform_trace(0.1, 0.6, 10.0),
                TraceSimParams {
                    slot_ms: 0.7, // non-divisor of the 10 ms report period
                    realign_latency_ms: 1.3,
                    ..base
                },
            ),
        ];
        for i in 0..6 {
            cases.push((
                gen(9_100 + i),
                TraceSimParams {
                    report_loss_prob: 0.2,
                    loss_seed: 41,
                    dead_reckoning: i % 2 == 0,
                    ..base
                },
            ));
        }
        // The benchmark sweep's all-off (0.5×), crossing-heavy (0.875×) and
        // all-on (2×) tolerance scales, on both axes and on each alone,
        // reliable and with report loss under dead reckoning.
        for (i, scale) in [0.5, 0.875, 2.0].into_iter().enumerate() {
            for (sl, sa) in [(scale, scale), (scale, 1.0), (1.0, scale)] {
                let p = TraceSimParams {
                    tol_lat_m: base.tol_lat_m * sl,
                    tol_ang_rad: base.tol_ang_rad * sa,
                    ..base
                };
                let lossy = TraceSimParams {
                    report_loss_prob: 0.05,
                    loss_seed: 7 + i as u64,
                    dead_reckoning: true,
                    ..p
                };
                cases.push((gen(9_200 + i as u64), p));
                cases.push((gen(9_200 + i as u64), lossy));
            }
        }
        // Loss without dead reckoning; zero, negative and negatively scaled
        // residuals; jittered report times.
        let lossy = |seed, dead_reckoning| TraceSimParams {
            report_loss_prob: 0.3,
            loss_seed: seed,
            dead_reckoning,
            ..base
        };
        cases.push((gen(9_300), lossy(5, false)));
        cases.push((
            gen(9_301),
            TraceSimParams {
                residual_lat_m: 0.0,
                residual_ang_rad: 0.0,
                ..base
            },
        ));
        cases.push((
            gen(9_302),
            TraceSimParams {
                residual_lat_m: -2e-3,
                residual_ang_rad: -1e-3,
                ..lossy(6, true)
            },
        ));
        cases.push((
            gen(9_303),
            TraceSimParams {
                dr_residual_scale: -1.5,
                ..lossy(3, true)
            },
        ));
        cases.push((jittered(gen(9_304), 4.0, 1), lossy(2, true)));
        // Realignments completing after, exactly at, and before the next
        // report, in the report slot itself, and slots holding two reports.
        for latency in [12.0, 10.0, 9.5, 0.0, -0.5] {
            let p = TraceSimParams {
                realign_latency_ms: latency,
                ..base
            };
            cases.push((gen(9_305), p));
        }
        let p = TraceSimParams {
            slot_ms: 12.0,
            ..base
        };
        cases.push((gen(9_306), p));
        // Negative and NaN drift increments: a decreasing timestamp pair and
        // a NaN position (traces `HeadTrace::from_csv` would reject).
        let mut samples = gen(9_307).samples;
        samples[100].t_ms = samples[99].t_ms - 5.0;
        samples[300].pos.x = f64::NAN;
        cases.push((HeadTrace::new(10.0, samples), lossy(4, true)));
        // Negative increments from a residual above the tolerance: every
        // seventh timestamp steps back, so the drift falls for 20 ms after
        // its realignment and turns disconnected slots back on.
        let mut samples = uniform_trace(0.3, 0.0, 6.0).samples;
        for i in (7..samples.len()).step_by(7) {
            samples[i].t_ms = samples[i - 1].t_ms - 5.0;
        }
        let p = TraceSimParams {
            residual_lat_m: base.tol_lat_m + 3e-3,
            ..base
        };
        cases.push((HeadTrace::new(10.0, samples), p));
        // A tolerance equal to a drift value the slot loop reaches, and its
        // ±1-ulp neighbours: the interval proof must not round a tie either
        // way. Slot 500 is the last slot before a realignment completes, so
        // it holds its interval's largest drift; bisecting over the
        // tolerance's bits finds the smallest tolerance that keeps it
        // connected — exactly the drift value there. The third trace starts
        // each interval 1 km below zero, so its drift sums cancel and no
        // relative rounding bound holds for them.
        for (trace, lateral, p) in [
            (uniform_trace(0.16, 0.0, 6.0), true, base),
            (uniform_trace(0.0, 0.6, 6.0), false, base),
            (
                uniform_trace(100_001.98, 0.0, 6.0),
                true,
                TraceSimParams {
                    residual_lat_m: -1e3,
                    ..base
                },
            ),
        ] {
            let with_tol = |tol: f64| {
                if lateral {
                    TraceSimParams {
                        tol_lat_m: tol,
                        ..p
                    }
                } else {
                    TraceSimParams {
                        tol_ang_rad: tol,
                        ..p
                    }
                }
            };
            let slot_500_on =
                |tol: f64| run_slots(&mut TraceSession::new(&trace, with_tol(tol)), 501)[500];
            let (mut off, mut on) = (0.0f64.to_bits(), 1.0f64.to_bits());
            assert!(!slot_500_on(f64::from_bits(off)) && slot_500_on(f64::from_bits(on)));
            while on - off > 1 {
                let mid = off + (on - off) / 2;
                if slot_500_on(f64::from_bits(mid)) {
                    on = mid;
                } else {
                    off = mid;
                }
            }
            for tol in [off, on, on + 1].map(f64::from_bits) {
                cases.push((trace.clone(), with_tol(tol)));
            }
        }

        for (trace, p) in &cases {
            assert_runners_agree(trace, p, trace_slots(trace, p));
        }
    }

    #[test]
    fn traces_without_reports_never_drift() {
        // Fewer than two samples publish no report: no realignment, no
        // drift, every slot connected — on every runner.
        let sample = TraceSample {
            t_ms: 250.0,
            pos: v3(0.1, 0.2, 0.3),
            quat: Quat::IDENTITY,
        };
        let p = TraceSimParams::default();
        for trace in [
            HeadTrace::new(10.0, vec![]),
            HeadTrace::new(10.0, vec![sample]),
        ] {
            assert_eq!(assert_runners_agree(&trace, &p, 60), vec![true; 60]);
            let r = simulate_trace(&trace, &p);
            assert_eq!(r.slots_on.len(), trace_slots(&trace, &p));
            assert_eq!(r.off_slots(), 0);
            assert_eq!(simulate_corpus(std::slice::from_ref(&trace), &p).len(), 1);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random parameters over short generated traces, jittered or not:
        /// the interval runner matches one `step_slot` call per slot.
        #[test]
        fn prop_interval_runner_matches_step_slot(
            seed in 0u64..1_000_000,
            secs in 0.0f64..3.0,
            jitter_ms in 0.0f64..6.0,
            slot_ms in 0.25f64..12.0,
            latency in -1.0f64..14.0,
            (res_lat, res_ang) in (-2e-3f64..8e-3, -1e-3f64..5e-3),
            (tol_lat, tol_ang) in (-1e-3f64..1.2e-2, -1e-3f64..1.5e-2),
            (loss, dead_reckoning, dr_scale) in
                (0.0f64..0.5, proptest::prelude::any::<bool>(), -1.0f64..3.0),
        ) {
            let cfg = TraceGenConfig {
                duration_s: secs,
                ..Default::default()
            };
            let trace = jittered(HeadTrace::generate(&cfg, seed), jitter_ms, seed);
            let p = TraceSimParams {
                slot_ms,
                realign_latency_ms: latency,
                residual_lat_m: res_lat,
                residual_ang_rad: res_ang,
                tol_lat_m: tol_lat,
                tol_ang_rad: tol_ang,
                report_loss_prob: loss,
                loss_seed: seed,
                dead_reckoning,
                dr_residual_scale: dr_scale,
            };
            assert_runners_agree(&trace, &p, trace_slots(&trace, &p) + 5);
        }
    }

    #[test]
    fn fallback_replay_off_equals_pure_fso_and_on_only_improves() {
        // A mid-trace alignment loss long enough to drop the SFP, with the
        // multi-second re-lock afterwards.
        let mut slots_on = vec![true; 4000];
        for s in slots_on.iter_mut().take(1200).skip(1000) {
            *s = false;
        }
        let off = replay_with_fallback(&slots_on, 1.0, 2.5, FallbackPolicy::Off, 2.31, 23.5);
        let on = replay_with_fallback(&slots_on, 1.0, 2.5, FallbackPolicy::RfOnOutage, 2.31, 23.5);
        // Off: no RF leg at all; availability is the pure-FSO replay.
        assert_eq!(off.rf_frac, 0.0);
        assert_eq!(off.failovers, 0);
        assert_eq!(off.up_frac, off.fso_up_frac);
        // The outage is real: 200 dark slots + 2.5 s re-lock.
        assert!(off.fso_up_frac < 0.4, "{}", off.fso_up_frac);
        // On: the FSO timeline is untouched, RF covers the hole.
        assert_eq!(on.fso_up_frac.to_bits(), off.fso_up_frac.to_bits());
        assert_eq!(on.failovers, 1);
        assert!(on.rf_frac > 0.5, "{}", on.rf_frac);
        assert!(on.up_frac > 0.99, "{}", on.up_frac);
        assert!(on.effective_gbps > off.effective_gbps);
        // RF is a degraded medium: effective rate sits strictly between
        // the outage-punched FSO rate and full FSO rate.
        assert!(on.effective_gbps < 23.5);
    }

    #[test]
    fn fallback_replay_is_deterministic() {
        let tr = uniform_trace(0.16, 0.3, 10.0);
        let r = simulate_trace(&tr, &TraceSimParams::default());
        let a = replay_with_fallback(
            &r.slots_on,
            1.0,
            2.5,
            FallbackPolicy::RfOnOutage,
            2.31,
            23.5,
        );
        let b = replay_with_fallback(
            &r.slots_on,
            1.0,
            2.5,
            FallbackPolicy::RfOnOutage,
            2.31,
            23.5,
        );
        assert_eq!(a, b);
        assert!(a.up_frac >= a.fso_up_frac);
    }

    #[test]
    fn perfect_tp_never_disconnects_at_moderate_speed() {
        // With zero residual error the budget doubles.
        let p = TraceSimParams {
            residual_lat_m: 0.0,
            residual_ang_rad: 0.0,
            ..Default::default()
        };
        let r = simulate_trace(&uniform_trace(0.25, 0.0, 5.0), &p);
        // 0.25 m/s × 10 ms = 2.5 mm < 6 mm → fully connected.
        assert!(r.on_fraction > 0.999, "{}", r.on_fraction);
    }

    /// Pins `simulate_corpus` at the benchmark trace sweep's 80 points (8
    /// lateral × 5 angular tolerance scales, each reliable and with 5 %
    /// report loss under dead reckoning) on 8 generated traces: the
    /// `trace_corpus` golden sees only the default tolerances. FNV-1a over
    /// the on-fractions' bits, recorded before the interval runner.
    #[test]
    fn sweep_fractions_are_pinned() {
        use cyclops_par::mix64;
        let base = TraceSimParams::default();
        let traces: Vec<HeadTrace> = (0..8)
            .map(|i| HeadTrace::generate(&TraceGenConfig::default(), mix64(1, i)))
            .collect();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut point = 0u64;
        for sl in [0.5, 0.625, 0.75, 0.875, 1.0, 1.25, 1.5, 2.0] {
            for sa in [0.5, 0.75, 1.0, 1.5, 2.0] {
                let p = TraceSimParams {
                    tol_lat_m: base.tol_lat_m * sl,
                    tol_ang_rad: base.tol_ang_rad * sa,
                    ..base
                };
                let lossy = TraceSimParams {
                    report_loss_prob: 0.05,
                    loss_seed: mix64(1, point),
                    dead_reckoning: true,
                    ..p
                };
                point += 1;
                for q in [p, lossy] {
                    for f in simulate_corpus(&traces, &q) {
                        for b in f.to_bits().to_le_bytes() {
                            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
                        }
                    }
                }
            }
        }
        assert_eq!(h, 0xc5ac_33bd_8d5d_6ff7, "sweep on-fractions moved");
    }
}
