//! Output checks. Every operation of every repetition is checked; an
//! operation with any violation counts as failed.

use crate::workloads::Output;
use cyclops::link::engine::SessionReport;

/// Accounting identities one fleet session's report must satisfy.
pub fn session_violations(r: &SessionReport, expected_slots: usize) -> Vec<String> {
    let mut v = Vec::new();
    let mut check = |ok: bool, what: &str| {
        if !ok {
            v.push(format!("session {}: {what}", r.session));
        }
    };
    check(
        r.slots == expected_slots,
        "slot count differs from the configured duration",
    );
    let mut floats = vec![
        r.up_frac,
        r.signal_frac,
        r.mean_goodput_gbps,
        r.rf_frac,
        r.mean_power_dbm,
        r.stats.outage_s,
        r.stats.longest_outage_s,
        r.stats.rf_delivered_gb,
    ];
    if let Some(s) = &r.sched {
        floats.extend([
            s.availability,
            s.delivered_gb,
            s.mean_served_gbps,
            s.offered_gb,
            s.stall_s,
            s.stall_frac,
        ]);
    }
    check(floats.iter().all(|x| x.is_finite()), "non-finite output");
    check(
        0.0 <= r.rf_frac && r.rf_frac <= r.up_frac && r.up_frac <= 1.0,
        "not 0 <= rf_frac <= up_frac <= 1",
    );
    check(
        (0.0..=1.0).contains(&r.signal_frac),
        "signal_frac outside [0, 1]",
    );
    check(
        r.tp_failures <= r.tp_reports,
        "more TP failures than reports",
    );
    if let Some(c) = &r.stats.control {
        check(
            c.delivered <= c.sent,
            "control plane delivered more than it sent",
        );
    }
    if let Some(s) = &r.sched {
        check(
            s.served_slots <= s.granted_slots,
            "served more slots than granted",
        );
        check(
            s.served_slots + s.denied_slots <= r.slots as u64,
            "served + denied exceeds the slot count",
        );
        check(
            s.frames_played <= s.frames_generated,
            "played more frames than generated",
        );
        check(
            (0.0..=1.0).contains(&s.availability),
            "availability outside [0, 1]",
        );
    }
    v
}

/// The violations of each operation of one repetition, in operation order.
pub fn op_violations(out: &Output, expected_slots: usize) -> Vec<Vec<String>> {
    match out {
        Output::Fleet(s) => s
            .sessions
            .iter()
            .map(|r| session_violations(r, expected_slots))
            .collect(),
        Output::Trace(fr) => fr
            .iter()
            .flatten()
            .enumerate()
            .map(|(i, &f)| {
                if (0.0..=1.0).contains(&f) {
                    Vec::new()
                } else {
                    vec![format!("trace op {i}: on-fraction {f} outside [0, 1]")]
                }
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclops::link::engine::SessionStats;
    use cyclops::link::sched::SchedSessionStats;

    fn good() -> SessionReport {
        SessionReport {
            session: 3,
            seed: 7,
            slots: 1000,
            up_frac: 0.9,
            signal_frac: 0.95,
            mean_goodput_gbps: 8.1,
            rf_frac: 0.1,
            mean_power_dbm: -20.0,
            handovers: 1,
            stats: SessionStats::default(),
            tp_reports: 100,
            tp_failures: 2,
            telemetry: None,
            sched: Some(SchedSessionStats {
                admitted: true,
                granted_slots: 500,
                served_slots: 400,
                denied_slots: 300,
                availability: 0.4,
                frames_generated: 72,
                frames_played: 70,
                ..Default::default()
            }),
            profile: None,
        }
    }

    #[test]
    fn a_consistent_report_passes() {
        assert!(session_violations(&good(), 1000).is_empty());
    }

    #[test]
    fn crafted_bad_reports_are_rejected() {
        let bad: Vec<(&str, SessionReport)> = vec![
            (
                "nan",
                SessionReport {
                    mean_power_dbm: f64::NAN,
                    ..good()
                },
            ),
            (
                "rf above up",
                SessionReport {
                    rf_frac: 0.95,
                    ..good()
                },
            ),
            (
                "wrong slot count",
                SessionReport {
                    slots: 999,
                    ..good()
                },
            ),
            (
                "tp failures",
                SessionReport {
                    tp_failures: 101,
                    ..good()
                },
            ),
            (
                "served above granted",
                SessionReport {
                    sched: Some(SchedSessionStats {
                        served_slots: 501,
                        ..good().sched.unwrap()
                    }),
                    ..good()
                },
            ),
            (
                "served + denied above slots",
                SessionReport {
                    sched: Some(SchedSessionStats {
                        denied_slots: 601,
                        ..good().sched.unwrap()
                    }),
                    ..good()
                },
            ),
            (
                "frames",
                SessionReport {
                    sched: Some(SchedSessionStats {
                        frames_played: 73,
                        ..good().sched.unwrap()
                    }),
                    ..good()
                },
            ),
        ];
        for (name, r) in bad {
            assert_eq!(session_violations(&r, 1000).len(), 1, "{name}");
        }
    }

    #[test]
    fn trace_fractions_outside_the_unit_interval_fail() {
        let out = Output::Trace(vec![vec![0.5, 1.0], vec![f64::NAN, -0.1]]);
        let v = op_violations(&out, 0);
        assert_eq!(v.iter().map(Vec::len).collect::<Vec<_>>(), [0, 0, 1, 1]);
    }
}
