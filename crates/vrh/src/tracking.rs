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
//! [`TrackerConfig`] holds the one definition of each of the tracker's
//! three draws: [`TrackerConfig::draw_period`] (time to the next report),
//! [`TrackerConfig::drift_step`] (one step of the drift walk) and
//! [`TrackerConfig::jitter`] (the noise on one report). The engine's slot
//! loop draws all three, the mapping sample collection draws `jitter`; the
//! caller owns the clock, the accumulated drift and the RNG.

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

    /// One step of the positional random-walk drift over `dt` seconds since
    /// the previous report, in VR-space. Draws one [`gauss2`] pair and one
    /// [`gauss`] whenever drift is enabled, even at `dt = 0`, so a caller's
    /// RNG stream does not depend on the report spacing; with drift disabled
    /// it draws nothing and returns zero.
    pub fn drift_step<R: Rng>(&self, dt: f64, rng: &mut R) -> Vec3 {
        let ds = self.drift_sigma_per_sqrt_s;
        if ds > 0.0 {
            let step = ds * dt.sqrt();
            let [dx, dy] = gauss2(rng);
            let dz = gauss(rng);
            v3(dx * step, dy * step, dz * step)
        } else {
            Vec3::ZERO
        }
    }

    /// Applies the stationary report noise to a clean reported pose: a
    /// Gaussian translation (`pos_noise_sigma` per axis) and a Gaussian
    /// rotation vector (`ang_noise_sigma` per axis), drawn as one
    /// [`gauss6`].
    pub fn jitter<R: Rng>(&self, clean: Pose, rng: &mut R) -> Pose {
        let [tx, ty, tz, rx, ry, rz] = gauss6(rng);
        let (sp, sa) = (self.pos_noise_sigma, self.ang_noise_sigma);
        let jt = v3(tx * sp, ty * sp, tz * sp);
        let jr = v3(rx * sa, ry * sa, rz * sa);
        Pose::from_quat(
            Quat::from_rotation_vector(jr) * clean.quat(),
            clean.trans + jt,
        )
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headset::{Headset, HeadsetConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Report times of `n` reports from `t = 0`, one `draw_period` each.
    fn report_times(cfg: &TrackerConfig, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = 0.0;
        (0..n)
            .map(|_| {
                let rt = t;
                t += cfg.draw_period(&mut rng);
                rt
            })
            .collect()
    }

    fn stationary_pose() -> Pose {
        Headset::new(HeadsetConfig::identity()).true_reported_pose()
    }

    #[test]
    fn periods_match_paper_distribution() {
        let times = report_times(&TrackerConfig::default(), 20_000, 3);
        let mut late = 0usize;
        for w in times.windows(2) {
            let dt = w[1] - w[0];
            assert!((0.0119..=0.0151).contains(&dt), "period {dt}");
            if dt >= 0.0139 {
                late += 1;
            }
        }
        let frac = late as f64 / (times.len() - 1) as f64;
        assert!(
            (0.004..0.011).contains(&frac),
            "late fraction {frac} (paper: 0.7 %)"
        );
    }

    #[test]
    fn stationary_noise_magnitude_matches_paper() {
        // Stationary headset: peak-to-peak position ≈ 1.79 mm, orientation
        // ≈ 0.41 mrad (±25 % slack for finite samples).
        let cfg = TrackerConfig::default();
        let ref_pose = stationary_pose();
        let mut rng = StdRng::seed_from_u64(7);
        let mut max_pos: f64 = 0.0;
        let mut min_pos: f64 = 0.0;
        let mut max_ang: f64 = 0.0;
        for _ in 0..140_000 {
            // ≈ 30 min of reports
            let r = cfg.jitter(ref_pose, &mut rng);
            let dx = r.trans.x - ref_pose.trans.x;
            max_pos = max_pos.max(dx);
            min_pos = min_pos.min(dx);
            max_ang = max_ang.max(ref_pose.quat().angle_to(&r.quat()));
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
    fn ideal_tracker_is_exact() {
        let cfg = TrackerConfig::ideal(0.01);
        for (i, t) in report_times(&cfg, 100, 9).into_iter().enumerate() {
            assert!((t - i as f64 * 0.01).abs() < 1e-9);
        }
        let truth = stationary_pose();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            let r = cfg.jitter(truth, &mut rng);
            assert!((r.trans - truth.trans).norm() < 1e-15);
        }
    }

    #[test]
    fn high_rate_tracker_reports_faster() {
        let fast = report_times(&TrackerConfig::high_rate(4.0), 100, 2);
        let dt = fast[99] / 99.0;
        assert!((0.0028..0.0035).contains(&dt), "mean period {dt}");
    }

    #[test]
    fn drift_accumulates_when_enabled() {
        let cfg = TrackerConfig {
            drift_sigma_per_sqrt_s: 1e-3,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(4);
        let mut drift = Vec3::ZERO;
        for _ in 0..50_000 {
            let dt = cfg.draw_period(&mut rng);
            drift += cfg.drift_step(dt, &mut rng);
        }
        // Over ~10 min of 1 mm/√s random walk the position should wander
        // several cm (probability of staying within 2 mm is negligible).
        let drift = drift.norm();
        assert!(drift > 2e-3, "drift {drift}");
    }

    #[test]
    fn drift_step_draws_three_deviates_even_at_zero_dt() {
        let cfg = TrackerConfig {
            drift_sigma_per_sqrt_s: 1e-3,
            ..Default::default()
        };
        let mut a = StdRng::seed_from_u64(11);
        let mut b = a.clone();
        let step = cfg.drift_step(0.0, &mut a);
        assert_eq!(step.norm(), 0.0);
        gauss2(&mut b);
        gauss(&mut b);
        assert_eq!(
            a, b,
            "a zero-dt step must draw one gauss2 pair and one gauss"
        );
        // Disabled drift draws nothing and adds nothing.
        let c = a.clone();
        assert_eq!(TrackerConfig::default().drift_step(0.5, &mut a), Vec3::ZERO);
        assert_eq!(a, c);
    }
}
