//! The VRH tracking system (VRH-T) simulator.
//!
//! §5.2 measurements this module reproduces:
//!
//! * update period: "every 12–13 ms except 0.7 % of times at 14–15 ms";
//! * stationary noise: "over a 30 minute period, even with \[the] VRH
//!   completely stationary, the reported location and orientation varied by
//!   up to 1.79 mm and 0.41 mrad" — modelled as Gaussian jitter whose ±3σ
//!   band matches those peak-to-peak excursions;
//! * optionally, a slow random-walk drift between camera relocalizations
//!   (§4: "in case of ... VRH-T drift, the only re-training that needs to be
//!   re-done is the mapping step").
//!
//! The tracker wraps a [`Headset`] and emits [`TrackingReport`]s in VR-space.

use crate::headset::Headset;
use crate::rand_util::{gauss, gauss2, gauss6};
use cyclops_geom::pose::Pose;
use cyclops_geom::quat::Quat;
use cyclops_geom::vec3::{v3, Vec3};
use rand::Rng;

/// Timing and noise configuration of the tracking simulator.
#[derive(Debug, Clone, Copy)]
pub struct TrackerConfig {
    /// Lower bound of the normal update period (seconds).
    pub period_min_s: f64,
    /// Upper bound of the normal update period (seconds).
    pub period_max_s: f64,
    /// Probability of a late report (14–15 ms band).
    pub late_prob: f64,
    /// Lower/upper bounds of the late period (seconds).
    pub late_min_s: f64,
    /// See [`TrackerConfig::late_min_s`].
    pub late_max_s: f64,
    /// Std-dev of positional jitter per axis (metres).
    pub pos_noise_sigma: f64,
    /// Std-dev of orientation jitter per axis (radians).
    pub ang_noise_sigma: f64,
    /// Std-dev of the positional random-walk drift per √second (m/√s);
    /// zero disables drift.
    pub drift_sigma_per_sqrt_s: f64,
    /// Extra latency from the RF control channel carrying the report to the
    /// TX (§5.2: "< 1 ms").
    pub control_channel_latency_s: f64,
    /// Probability a report is lost in the control channel (the paper's
    /// "macro-cellular" side channel is not lossless); the TP simply acts on
    /// the next report ~12.5 ms later.
    pub report_loss_prob: f64,
}

impl Default for TrackerConfig {
    /// Oculus Rift S values from §5.2, scaled so the extreme excursions of
    /// a ~30-minute stationary run (~140k samples, whose expected
    /// peak-to-peak is ≈9σ) match the measured 1.79 mm / 0.41 mrad.
    fn default() -> Self {
        TrackerConfig {
            period_min_s: 0.012,
            period_max_s: 0.013,
            late_prob: 0.007,
            late_min_s: 0.014,
            late_max_s: 0.015,
            pos_noise_sigma: 1.79e-3 / 9.0,
            ang_noise_sigma: 0.41e-3 / 6.0,
            drift_sigma_per_sqrt_s: 0.0,
            control_channel_latency_s: 0.5e-3,
            report_loss_prob: 0.0,
        }
    }
}

impl TrackerConfig {
    /// A hypothetical high-rate tracker for the §5.2 ablation: "a custom
    /// VRH-T with much higher tracking frequency will improve Cyclops's
    /// performance significantly". `factor` divides the update period.
    pub fn high_rate(factor: f64) -> TrackerConfig {
        let base = TrackerConfig::default();
        TrackerConfig {
            period_min_s: base.period_min_s / factor,
            period_max_s: base.period_max_s / factor,
            late_min_s: base.late_min_s / factor,
            late_max_s: base.late_max_s / factor,
            ..base
        }
    }

    /// Draws one report period from the timing distribution (the 12–13 ms
    /// band with the 0.7 % late tail).
    pub fn draw_period<R: Rng>(&self, rng: &mut R) -> f64 {
        if self.late_prob > 0.0 && rng.gen_bool(self.late_prob) {
            rng.gen_range(self.late_min_s..=self.late_max_s)
        } else {
            rng.gen_range(self.period_min_s..=self.period_max_s)
        }
    }

    /// Checks every field's range; on failure returns what is wrong and the
    /// offending value. Session builders and the hardware registry both
    /// validate through this.
    pub fn validate(&self) -> Result<(), (&'static str, f64)> {
        let prob = |p: f64| p.is_finite() && (0.0..=1.0).contains(&p);
        let non_negative = |x: f64| x.is_finite() && x >= 0.0;
        let late_band =
            self.late_prob <= 0.0 || (self.late_min_s > 0.0 && self.late_max_s >= self.late_min_s);
        [
            (
                self.period_min_s.is_finite() && self.period_min_s > 0.0,
                "period_min_s must be finite and positive",
                self.period_min_s,
            ),
            (
                self.period_max_s.is_finite() && self.period_max_s >= self.period_min_s,
                "period_max_s must be finite and >= period_min_s",
                self.period_max_s,
            ),
            (
                prob(self.late_prob),
                "late_prob must be a probability in [0, 1]",
                self.late_prob,
            ),
            (
                late_band,
                "late_min_s/late_max_s must bound a positive interval when late_prob > 0",
                self.late_min_s,
            ),
            (
                prob(self.report_loss_prob),
                "report_loss_prob must be a probability in [0, 1]",
                self.report_loss_prob,
            ),
            (
                non_negative(self.pos_noise_sigma),
                "pos_noise_sigma must be finite and non-negative",
                self.pos_noise_sigma,
            ),
            (
                non_negative(self.ang_noise_sigma),
                "ang_noise_sigma must be finite and non-negative",
                self.ang_noise_sigma,
            ),
            (
                non_negative(self.drift_sigma_per_sqrt_s),
                "drift_sigma_per_sqrt_s must be finite and non-negative",
                self.drift_sigma_per_sqrt_s,
            ),
            (
                non_negative(self.control_channel_latency_s),
                "control_channel_latency_s must be finite and non-negative",
                self.control_channel_latency_s,
            ),
        ]
        .into_iter()
        .find(|(ok, ..)| !ok)
        .map_or(Ok(()), |(_, what, value)| Err((what, value)))
    }

    /// A noiseless, perfectly periodic tracker for white-box tests.
    pub fn ideal(period_s: f64) -> TrackerConfig {
        TrackerConfig {
            period_min_s: period_s,
            period_max_s: period_s,
            late_prob: 0.0,
            late_min_s: period_s,
            late_max_s: period_s,
            pos_noise_sigma: 0.0,
            ang_noise_sigma: 0.0,
            drift_sigma_per_sqrt_s: 0.0,
            control_channel_latency_s: 0.0,
            report_loss_prob: 0.0,
        }
    }
}

/// One pose report from the headset tracking system.
#[derive(Debug, Clone, Copy)]
pub struct TrackingReport {
    /// Monotonic sequence number.
    pub seq: u64,
    /// Time the pose was sampled (seconds).
    pub t_sample: f64,
    /// Time the report becomes available at the TX controller (sample time +
    /// control-channel latency).
    pub t_available: f64,
    /// Reported pose of the tracked point, in VR-space, including noise.
    pub pose: Pose,
}

/// The VRH-T simulator. Drive it with [`VrhTracker::next_report_time`] /
/// [`VrhTracker::sample`].
#[derive(Debug, Clone)]
pub struct VrhTracker {
    /// Configuration in effect.
    pub cfg: TrackerConfig,
    seq: u64,
    next_t: f64,
    last_t: f64,
    drift: Vec3,
}

impl VrhTracker {
    /// Creates a tracker that will emit its first report at `t = 0`.
    pub fn new(cfg: TrackerConfig) -> VrhTracker {
        VrhTracker {
            cfg,
            seq: 0,
            next_t: 0.0,
            last_t: 0.0,
            drift: Vec3::ZERO,
        }
    }

    /// The time of the next report.
    pub fn next_report_time(&self) -> f64 {
        self.next_t
    }

    /// Samples the headset at the scheduled report time, advancing the
    /// schedule. The caller is responsible for having set
    /// `headset.world_pose` to the true pose at `self.next_report_time()`.
    pub fn sample<R: Rng>(&mut self, headset: &Headset, rng: &mut R) -> TrackingReport {
        let t = self.next_t;
        let dt = (t - self.last_t).max(0.0);
        self.last_t = t;

        // Random-walk drift accumulates in VR-space.
        if self.cfg.drift_sigma_per_sqrt_s > 0.0 && dt > 0.0 {
            let s = self.cfg.drift_sigma_per_sqrt_s * dt.sqrt();
            let [dx, dy] = gauss2(rng);
            self.drift += v3(dx * s, dy * s, gauss(rng) * s);
        }

        let clean = headset.true_reported_pose();
        let [tx, ty, tz, rx, ry, rz] = gauss6(rng);
        let (sp, sa) = (self.cfg.pos_noise_sigma, self.cfg.ang_noise_sigma);
        let jitter_t = v3(tx * sp, ty * sp, tz * sp);
        let jitter_rv = v3(rx * sa, ry * sa, rz * sa);
        let noisy = Pose::from_quat(
            Quat::from_rotation_vector(jitter_rv) * clean.quat(),
            clean.trans + jitter_t + self.drift,
        );

        // Schedule the next report.
        self.next_t = t + self.cfg.draw_period(rng);

        let rep = TrackingReport {
            seq: self.seq,
            t_sample: t,
            t_available: t + self.cfg.control_channel_latency_s,
            pose: noisy,
        };
        self.seq += 1;
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headset::{Headset, HeadsetConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_reports(cfg: TrackerConfig, n: usize, seed: u64) -> Vec<TrackingReport> {
        let headset = Headset::new(HeadsetConfig::identity());
        let mut tracker = VrhTracker::new(cfg);
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| tracker.sample(&headset, &mut rng)).collect()
    }

    #[test]
    fn periods_match_paper_distribution() {
        let reps = run_reports(TrackerConfig::default(), 20_000, 3);
        let mut late = 0usize;
        for w in reps.windows(2) {
            let dt = w[1].t_sample - w[0].t_sample;
            assert!((0.0119..=0.0151).contains(&dt), "period {dt}");
            if dt >= 0.0139 {
                late += 1;
            }
        }
        let frac = late as f64 / (reps.len() - 1) as f64;
        assert!(
            (0.004..0.011).contains(&frac),
            "late fraction {frac} (paper: 0.7 %)"
        );
    }

    #[test]
    fn stationary_noise_magnitude_matches_paper() {
        // Stationary headset: peak-to-peak position ≈ 1.79 mm, orientation
        // ≈ 0.41 mrad (±25 % slack for finite samples).
        let reps = run_reports(TrackerConfig::default(), 140_000, 7); // ≈ 30 min
        let ref_pose = Headset::new(HeadsetConfig::identity()).true_reported_pose();
        let mut max_pos: f64 = 0.0;
        let mut min_pos: f64 = 0.0;
        let mut max_ang: f64 = 0.0;
        for r in &reps {
            let dx = r.pose.trans.x - ref_pose.trans.x;
            max_pos = max_pos.max(dx);
            min_pos = min_pos.min(dx);
            max_ang = max_ang.max(ref_pose.quat().angle_to(&r.pose.quat()));
        }
        let p2p_mm = (max_pos - min_pos) * 1e3;
        assert!((1.2..2.6).contains(&p2p_mm), "p2p position {p2p_mm} mm");
        let ang_mrad = max_ang * 1e3;
        assert!(
            (0.2..0.75).contains(&ang_mrad),
            "max angle dev {ang_mrad} mrad"
        );
    }

    #[test]
    fn reports_are_sequenced_and_latency_applied() {
        let reps = run_reports(TrackerConfig::default(), 10, 1);
        for (i, r) in reps.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
            assert!((r.t_available - r.t_sample - 0.5e-3).abs() < 1e-12);
        }
    }

    #[test]
    fn ideal_tracker_is_exact() {
        let reps = run_reports(TrackerConfig::ideal(0.01), 100, 9);
        let truth = Headset::new(HeadsetConfig::identity()).true_reported_pose();
        for (i, r) in reps.iter().enumerate() {
            assert!((r.t_sample - i as f64 * 0.01).abs() < 1e-9);
            assert!((r.pose.trans - truth.trans).norm() < 1e-15);
        }
    }

    #[test]
    fn high_rate_tracker_reports_faster() {
        let fast = run_reports(TrackerConfig::high_rate(4.0), 100, 2);
        let dt = fast[99].t_sample / 99.0;
        assert!((0.0028..0.0035).contains(&dt), "mean period {dt}");
    }

    #[test]
    fn drift_accumulates_when_enabled() {
        let cfg = TrackerConfig {
            drift_sigma_per_sqrt_s: 1e-3,
            pos_noise_sigma: 0.0,
            ang_noise_sigma: 0.0,
            ..Default::default()
        };
        let reps = run_reports(cfg, 50_000, 4);
        let first = reps.first().unwrap().pose.trans;
        let last = reps.last().unwrap().pose.trans;
        // Over ~10 min of 1 mm/√s random walk the position should wander
        // several cm (probability of staying within 2 mm is negligible).
        let drift = (last - first).norm();
        assert!(drift > 2e-3, "drift {drift}");
    }
}
