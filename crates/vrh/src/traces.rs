//! 360°-video viewing head-motion traces.
//!
//! §5.4 evaluates Cyclops over "the publicly available dataset ... collected
//! from 50 viewers watching 1-min segments from 10 360° videos" \[47\]: 500
//! one-minute traces of head location and orientation sampled every 10 ms.
//! That dataset is not redistributable here, so this module provides:
//!
//! * a **synthetic generator** ([`HeadTrace::generate`]) calibrated to the
//!   speed envelope the paper reports (Fig 3: at most ~19 deg/s angular and
//!   ~14 cm/s linear during *normal* use, with heavier tails — quick
//!   reorientation "saccades" — that produce the small outage fraction of
//!   Fig 16). Per-viewer style parameters vary across traces, giving the
//!   spread of per-trace availability (95 %–99.98 %) the paper observes;
//! * a **CSV codec** ([`HeadTrace::to_csv`] / [`HeadTrace::from_csv`]) with
//!   the natural `t_ms,x,y,z,qw,qx,qy,qz` layout, so the real dataset can be
//!   dropped in unchanged.

use cyclops_geom::pose::Pose;
use cyclops_geom::quat::Quat;
use cyclops_geom::units::deg_to_rad;
use cyclops_geom::vec3::{v3, Vec3};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One trace sample: timestamp plus the head pose.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSample {
    /// Time in milliseconds from trace start.
    pub t_ms: f64,
    /// Head position (metres).
    pub pos: Vec3,
    /// Head orientation.
    pub quat: Quat,
}

/// Motion rates over one consecutive sample pair: the paper's §5.4 drift
/// rates `d(r,r′)/t(r′,r)`, lateral (m/ms) and angular (rad/ms).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotionRate {
    /// Lateral speed over the pair (metres per millisecond).
    pub lat_per_ms: f64,
    /// Angular speed over the pair (radians per millisecond).
    pub ang_per_ms: f64,
    /// Arrival time of the pair's later sample (`samples[i + 1].t_ms`) —
    /// the report that publishes these rates. Duplicated here so slot loops
    /// walk one dense 24-byte-stride array instead of gathering from the
    /// 64-byte-stride [`TraceSample`] array.
    pub t_report_ms: f64,
}

/// A recorded (or generated) head-motion trace, uniformly sampled.
#[derive(Debug, Clone)]
pub struct HeadTrace {
    /// Sample period in milliseconds (10 ms for the paper's dataset).
    pub period_ms: f64,
    /// The samples, in time order.
    pub samples: Vec<TraceSample>,
    /// Lazily-computed per-pair motion rates ([`HeadTrace::motion_rates`]).
    /// Derived data only — excluded from equality.
    rates: std::sync::OnceLock<Box<[MotionRate]>>,
}

impl PartialEq for HeadTrace {
    fn eq(&self, other: &Self) -> bool {
        self.period_ms == other.period_ms && self.samples == other.samples
    }
}

/// Generator configuration: one "viewer style" watching one video.
#[derive(Debug, Clone, Copy)]
pub struct TraceGenConfig {
    /// Trace duration (seconds).
    pub duration_s: f64,
    /// Sample period (milliseconds).
    pub period_ms: f64,
    /// RMS yaw rate of calm viewing (rad/s).
    pub yaw_rms: f64,
    /// RMS pitch/roll rate (rad/s).
    pub pitch_rms: f64,
    /// RMS linear sway speed per axis (m/s).
    pub sway_rms: f64,
    /// Rate of quick-reorientation saccades (events per second).
    pub saccade_rate: f64,
    /// Peak angular speed of a saccade (rad/s).
    pub saccade_peak: f64,
    /// Saccade duration (seconds).
    pub saccade_dur: f64,
}

impl Default for TraceGenConfig {
    /// The 360°-video *viewing* profile behind the §5.4 dataset \[47\]:
    /// calm scanning punctuated by quick reorientations whose peaks sit just
    /// above the TP drift budget (~35 deg/s for the 25G link). That
    /// combination yields the paper's Fig 16 signature — ~98.6 % of slots
    /// connected, with the off-slots mostly *scattered* (brief threshold
    /// crossings), not clustered.
    fn default() -> Self {
        TraceGenConfig {
            duration_s: 60.0,
            period_ms: 10.0,
            yaw_rms: deg_to_rad(5.0),
            pitch_rms: deg_to_rad(2.5),
            sway_rms: 0.02,
            saccade_rate: 0.42,
            saccade_peak: deg_to_rad(50.0),
            saccade_dur: 0.30,
        }
    }
}

impl TraceGenConfig {
    /// Samples [`HeadTrace::generate`] makes: one per period over the
    /// duration, both ends included (saturating; a NaN or negative
    /// duration gives one).
    pub fn n_samples(&self) -> usize {
        ((self.duration_s * 1e3 / self.period_ms).round() as usize).saturating_add(1)
    }

    /// The *normal-use* profile of Fig 3 (from the authors' earlier study
    /// \[55\]): linear speeds up to ~14 cm/s and angular speeds up to
    /// ~19 deg/s, with no fast reorientation tail.
    pub fn normal_use() -> TraceGenConfig {
        TraceGenConfig {
            yaw_rms: deg_to_rad(3.2),
            pitch_rms: deg_to_rad(1.6),
            sway_rms: 0.026,
            saccade_rate: 0.05,
            saccade_peak: deg_to_rad(11.0),
            saccade_dur: 0.35,
            ..Default::default()
        }
    }

    /// Draws a per-viewer style: calm to restless, matching the spread of
    /// the 50-viewer dataset (per-trace availability 95–99.98 % in Fig 16).
    pub fn random_style<R: Rng>(rng: &mut R) -> TraceGenConfig {
        let restlessness: f64 = rng.gen_range(0.25..2.4);
        TraceGenConfig {
            yaw_rms: deg_to_rad(rng.gen_range(2.5..7.5)) * restlessness.sqrt(),
            pitch_rms: deg_to_rad(rng.gen_range(1.0..3.5)),
            sway_rms: rng.gen_range(0.008..0.040) * restlessness.sqrt(),
            saccade_rate: rng.gen_range(0.18..0.85) * restlessness,
            saccade_peak: deg_to_rad(rng.gen_range(38.0..68.0)),
            saccade_dur: rng.gen_range(0.25..0.40),
            ..Default::default()
        }
    }
}

impl HeadTrace {
    /// Creates a trace from raw samples (must be in time order).
    pub fn new(period_ms: f64, samples: Vec<TraceSample>) -> HeadTrace {
        HeadTrace {
            period_ms,
            samples,
            rates: std::sync::OnceLock::new(),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The §5.4 drift rates over each consecutive sample pair (`rates[i]`
    /// covers `samples[i] → samples[i+1]`), computed once per trace and
    /// cached. The values are the *exact* IEEE results of
    /// `(b.pos - a.pos).norm() / dt` and `a.quat.angle_to(&b.quat) / dt`
    /// (dt in ms), so slot loops that consume them instead of recomputing
    /// per report stay bit-identical — while repeated simulations of the
    /// same trace (parameter sweeps, benchmark repetitions) skip the
    /// norm/acos work entirely.
    ///
    /// The samples are treated as immutable from the first call on; code
    /// that edits `samples` in place must build a new trace instead.
    pub fn motion_rates(&self) -> &[MotionRate] {
        self.rates.get_or_init(|| {
            self.samples
                .windows(2)
                .map(|w| {
                    let (a, b) = (&w[0], &w[1]);
                    let dt = b.t_ms - a.t_ms;
                    MotionRate {
                        lat_per_ms: (b.pos - a.pos).norm() / dt,
                        ang_per_ms: a.quat.angle_to(&b.quat) / dt,
                        t_report_ms: b.t_ms,
                    }
                })
                .collect()
        })
    }

    /// True if the trace has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Trace duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.samples.last().map_or(0.0, |s| s.t_ms * 1e-3)
    }

    /// Pose at an arbitrary time by interpolation (lerp position, slerp
    /// orientation); clamps outside the trace. Time is measured from the
    /// trace's first sample (CSV traces may start at a nonzero timestamp).
    pub fn pose_at(&self, t_s: f64) -> Pose {
        assert!(!self.is_empty());
        let t_ms = t_s * 1e3 + self.samples[0].t_ms;
        let idx = ((t_ms - self.samples[0].t_ms) / self.period_ms).floor();
        let i = (idx.max(0.0) as usize).min(self.samples.len() - 1);
        let j = (i + 1).min(self.samples.len() - 1);
        let a = &self.samples[i];
        let b = &self.samples[j];
        if i == j {
            return Pose::from_quat(a.quat, a.pos);
        }
        let frac = ((t_ms - a.t_ms) / (b.t_ms - a.t_ms)).clamp(0.0, 1.0);
        Pose::from_quat(a.quat.slerp(&b.quat, frac), a.pos.lerp(b.pos, frac))
    }

    /// Generates a synthetic viewing trace with the given style and seed.
    ///
    /// Yaw dominates (scanning the 360° scene); pitch/roll and positional
    /// sway are smaller; Poisson-timed saccades add the heavy angular tail.
    pub fn generate(cfg: &TraceGenConfig, seed: u64) -> HeadTrace {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = cfg.n_samples();
        let dt = cfg.period_ms * 1e-3;
        let tau = 0.8; // velocity relaxation (s)

        let mut pos = Vec3::ZERO;
        let mut vel = Vec3::ZERO;
        let mut yaw = rng.gen_range(-1.0..1.0);
        let mut pitch: f64 = 0.0;
        let mut roll: f64 = 0.0;
        let mut yaw_rate = 0.0f64;
        let mut pitch_rate = 0.0f64;
        let mut roll_rate = 0.0f64;
        // Saccade state: remaining time and rate.
        let mut sac_t = 0.0f64;
        let mut sac_rate = 0.0f64;

        let mut samples = Vec::with_capacity(n);
        for k in 0..n {
            let t_ms = k as f64 * cfg.period_ms;
            // OU updates for baseline motion.
            let kick = (2.0 * dt / tau).sqrt();
            let [g_yaw, g_pitch, g_roll, sx, sy, sz] = crate::rand_util::gauss6(&mut rng);
            yaw_rate += -yaw_rate / tau * dt + cfg.yaw_rms * kick * g_yaw;
            pitch_rate += (-pitch_rate / tau - pitch * 2.0) * dt + cfg.pitch_rms * kick * g_pitch;
            roll_rate += (-roll_rate / tau - roll * 4.0) * dt + cfg.pitch_rms * 0.5 * kick * g_roll;
            for (v, p, g) in [
                (&mut vel.x, pos.x, sx),
                (&mut vel.y, pos.y, sy),
                (&mut vel.z, pos.z, sz),
            ] {
                *v += (-*v / tau - p * 3.0) * dt + cfg.sway_rms * kick * g;
            }
            // Saccade triggering.
            if sac_t <= 0.0 && rng.gen_bool((cfg.saccade_rate * dt).min(1.0)) {
                sac_t = cfg.saccade_dur;
                let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                sac_rate = sign * cfg.saccade_peak * rng.gen_range(0.5..1.0);
            }
            let sac = if sac_t > 0.0 {
                sac_t -= dt;
                // Half-sine velocity profile.
                let phase = 1.0 - (sac_t / cfg.saccade_dur).clamp(0.0, 1.0);
                sac_rate * (std::f64::consts::PI * phase).sin()
            } else {
                0.0
            };

            yaw += (yaw_rate + sac) * dt;
            pitch += pitch_rate * dt;
            roll += roll_rate * dt;
            pos += vel * dt;

            let q = Quat::from_axis_angle(Vec3::Y, yaw)
                * Quat::from_axis_angle(Vec3::X, pitch)
                * Quat::from_axis_angle(Vec3::Z, roll);
            samples.push(TraceSample {
                t_ms,
                pos,
                quat: q.normalized(),
            });
        }
        HeadTrace::new(cfg.period_ms, samples)
    }

    /// Generates the full 500-trace corpus (50 viewer styles × 10 videos),
    /// mirroring the shape of the dataset in \[47\].
    pub fn generate_corpus(master_seed: u64, n_viewers: usize, n_videos: usize) -> Vec<HeadTrace> {
        let mut rng = StdRng::seed_from_u64(master_seed);
        let mut out = Vec::with_capacity(n_viewers * n_videos);
        for viewer in 0..n_viewers {
            let style = TraceGenConfig::random_style(&mut rng);
            for video in 0..n_videos {
                let seed = master_seed
                    .wrapping_mul(1_000_003)
                    .wrapping_add((viewer * n_videos + video) as u64);
                out.push(HeadTrace::generate(&style, seed));
            }
        }
        out
    }

    /// Serializes to CSV (`t_ms,x,y,z,qw,qx,qy,qz` with a header line).
    pub fn to_csv(&self) -> String {
        let mut s = String::with_capacity(self.samples.len() * 64);
        s.push_str("t_ms,x,y,z,qw,qx,qy,qz\n");
        for smp in &self.samples {
            s.push_str(&format!(
                "{},{},{},{},{},{},{},{}\n",
                smp.t_ms,
                smp.pos.x,
                smp.pos.y,
                smp.pos.z,
                smp.quat.w,
                smp.quat.x,
                smp.quat.y,
                smp.quat.z
            ));
        }
        s
    }

    /// Parses the CSV produced by [`HeadTrace::to_csv`] (or the real dataset
    /// exported into the same layout).
    ///
    /// The trace's frame is the generator's: Y up, positions in metres,
    /// and orientations as head-to-trace quaternions, so that a head turn
    /// is a rotation about +Y. `TracePlayback` (`crate::motion`) carries
    /// such a trace into the deployment's Z-up world.
    ///
    /// Every row is validated: it must hold eight finite numbers, its
    /// timestamp must exceed the previous row's, and its quaternion must
    /// have a norm that can be normalized. The error names the offending
    /// line. A trace also needs at least two samples.
    pub fn from_csv(csv: &str) -> Result<HeadTrace, String> {
        let mut samples: Vec<TraceSample> = Vec::new();
        for (ln, line) in csv.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || (ln == 0 && line.starts_with("t_ms")) {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 8 {
                return Err(format!(
                    "line {}: expected 8 fields, got {}",
                    ln + 1,
                    fields.len()
                ));
            }
            let mut vals = [0.0f64; 8];
            for (i, f) in fields.iter().enumerate() {
                vals[i] = f
                    .trim()
                    .parse()
                    .map_err(|e| format!("line {}: field {}: {}", ln + 1, i + 1, e))?;
                if !vals[i].is_finite() {
                    return Err(format!(
                        "line {}: field {}: {} is not finite",
                        ln + 1,
                        i + 1,
                        vals[i]
                    ));
                }
            }
            if let Some(prev) = samples.last() {
                if vals[0] <= prev.t_ms {
                    return Err(format!(
                        "line {}: timestamp {} ms does not increase on {} ms",
                        ln + 1,
                        vals[0],
                        prev.t_ms
                    ));
                }
            }
            let quat = Quat {
                w: vals[4],
                x: vals[5],
                y: vals[6],
                z: vals[7],
            };
            // `Quat::normalized`'s precondition; a norm that overflows
            // would normalize to zero.
            let norm = quat.norm();
            if !(norm > 1e-300 && norm.is_finite()) {
                return Err(format!(
                    "line {}: quaternion of norm {} cannot be normalized",
                    ln + 1,
                    norm
                ));
            }
            samples.push(TraceSample {
                t_ms: vals[0],
                pos: v3(vals[1], vals[2], vals[3]),
                quat: quat.normalized(),
            });
        }
        if samples.len() < 2 {
            return Err("trace needs at least two samples".into());
        }
        let period_ms = samples[1].t_ms - samples[0].t_ms;
        Ok(HeadTrace::new(period_ms, samples))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::speeds::{angular_speeds, linear_speeds};

    #[test]
    fn generated_trace_has_expected_shape() {
        let tr = HeadTrace::generate(&TraceGenConfig::default(), 42);
        assert_eq!(tr.len(), 6001);
        assert!((tr.duration_s() - 60.0).abs() < 1e-9);
        assert_eq!(tr.period_ms, 10.0);
    }

    #[test]
    fn speeds_match_fig3_envelope() {
        // Normal-use envelope (Fig 3): "at most 19 deg/s and 14 cm/s". The
        // *maximum* over a many-trace sample must bracket the paper's caps —
        // close below them, neither exceeding (the old profile peaked at
        // 21+ deg/s) nor sandbagging far under (which would make every
        // downstream tolerance look better than the paper's).
        let mut lin_max = 0.0f64;
        let mut ang_max = 0.0f64;
        for seed in 0..20 {
            let tr = HeadTrace::generate(&TraceGenConfig::normal_use(), 300 + seed);
            lin_max = linear_speeds(&tr).iter().fold(lin_max, |a, &v| a.max(v));
            ang_max = angular_speeds(&tr).iter().fold(ang_max, |a, &v| a.max(v));
        }
        let ang_max_deg = ang_max.to_degrees();
        assert!(
            (10.0..=14.5).contains(&(lin_max * 100.0)),
            "linear envelope {:.1} cm/s vs paper's ~14",
            lin_max * 100.0
        );
        assert!(
            (14.0..=19.5).contains(&ang_max_deg),
            "angular envelope {ang_max_deg:.1} deg/s vs paper's ~19"
        );
    }

    #[test]
    fn viewing_profile_has_a_saccade_tail() {
        // The 360°-viewing default must exceed the TP drift budget
        // occasionally — otherwise Fig 16 would read 100 % availability.
        let tr = HeadTrace::generate(&TraceGenConfig::default(), 7);
        let ang = angular_speeds(&tr);
        let max_ang = ang.iter().cloned().fold(0.0, f64::max);
        assert!(
            max_ang.to_degrees() > 35.0,
            "max angular {} deg/s",
            max_ang.to_degrees()
        );
    }

    #[test]
    fn corpus_has_varied_styles() {
        let corpus = HeadTrace::generate_corpus(1, 5, 2);
        assert_eq!(corpus.len(), 10);
        let max_angs: Vec<f64> = corpus
            .iter()
            .map(|t| angular_speeds(t).iter().cloned().fold(0.0, f64::max))
            .collect();
        let lo = max_angs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = max_angs.iter().cloned().fold(0.0, f64::max);
        assert!(hi > 1.5 * lo, "styles should vary: {lo}..{hi}");
    }

    #[test]
    fn csv_roundtrip() {
        let tr = HeadTrace::generate(
            &TraceGenConfig {
                duration_s: 1.0,
                ..Default::default()
            },
            3,
        );
        let csv = tr.to_csv();
        let back = HeadTrace::from_csv(&csv).unwrap();
        assert_eq!(back.len(), tr.len());
        assert_eq!(back.period_ms, tr.period_ms);
        for (a, b) in tr.samples.iter().zip(&back.samples) {
            assert!((a.pos - b.pos).norm() < 1e-9);
            assert!(a.quat.angle_to(&b.quat) < 1e-6);
        }
    }

    #[test]
    fn csv_rejects_malformed_input() {
        assert!(HeadTrace::from_csv("").is_err());
        assert!(HeadTrace::from_csv("1,2,3\n").is_err());
        assert!(HeadTrace::from_csv(
            "t_ms,x,y,z,qw,qx,qy,qz\n0,0,0,0,1,0,0,nope\n10,0,0,0,1,0,0,0\n"
        )
        .is_err());
        // Single sample: not enough.
        assert!(HeadTrace::from_csv("0,0,0,0,1,0,0,0\n").is_err());
        // Every row is checked, and the error names the row's line.
        let rejects = |rows: &str, needle: &str| {
            let csv = format!("t_ms,x,y,z,qw,qx,qy,qz\n0,0,0,0,1,0,0,0\n10,0,0,0,1,0,0,0\n{rows}");
            let err = HeadTrace::from_csv(&csv).expect_err(rows);
            assert!(
                err.starts_with("line 4: ") && err.contains(needle),
                "{rows}: {err}"
            );
        };
        rejects("10,0,0,0,1,0,0,0\n", "does not increase"); // repeated timestamp
        rejects("5,0,0,0,1,0,0,0\n", "does not increase"); // decreasing timestamp
        rejects("20,NaN,0,0,1,0,0,0\n", "field 2: NaN is not finite");
        rejects("20,0,0,0,1,0,0,inf\n", "field 8: inf is not finite");
        rejects("20,0,0,0,0,0,0,0\n", "cannot be normalized"); // zero quaternion
        rejects("20,0,0,0,1e200,1e200,0,0\n", "cannot be normalized"); // norm overflows
                                                                       // A decreasing first pair is caught on its own line too.
        let err = HeadTrace::from_csv("10,0,0,0,1,0,0,0\n0,0,0,0,1,0,0,0\n").unwrap_err();
        assert!(err.starts_with("line 2: "), "{err}");
    }

    #[test]
    fn pose_interpolation_is_continuous() {
        let tr = HeadTrace::generate(
            &TraceGenConfig {
                duration_s: 2.0,
                ..Default::default()
            },
            11,
        );
        let mut last = tr.pose_at(0.0);
        for i in 1..200 {
            let p = tr.pose_at(i as f64 * 0.01 / 2.0);
            assert!((p.trans - last.trans).norm() < 0.05, "jump at step {i}");
            last = p;
        }
        // Clamps beyond the end.
        let end = tr.pose_at(100.0);
        let last_sample = tr.samples.last().unwrap();
        assert!((end.trans - last_sample.pos).norm() < 1e-12);
    }

    /// FNV-1a over the bits of every sample and motion rate of `traces`.
    fn trace_bits_hash<'a>(traces: impl IntoIterator<Item = &'a HeadTrace>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |x: f64| {
            for b in x.to_bits().to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for tr in traces {
            fold(tr.period_ms);
            for s in &tr.samples {
                let q = s.quat;
                for x in [s.t_ms, s.pos.x, s.pos.y, s.pos.z, q.w, q.x, q.y, q.z] {
                    fold(x);
                }
            }
            for r in tr.motion_rates() {
                for x in [r.lat_per_ms, r.ang_per_ms, r.t_report_ms] {
                    fold(x);
                }
            }
        }
        h
    }

    /// Pins every bit of generated traces, which the `trace_corpus` golden
    /// (on/off flags and on-fractions only) would not see move: a change to
    /// how the noise kernel evaluates must leave these hashes alone.
    #[test]
    fn generated_trace_bits_are_pinned() {
        let cfg = TraceGenConfig::default();
        let singles: Vec<HeadTrace> = [0, 5, 42]
            .into_iter()
            .map(|s| HeadTrace::generate(&cfg, s))
            .collect();
        let corpus = HeadTrace::generate_corpus(1, 5, 2);
        assert_eq!(
            [trace_bits_hash(&singles), trace_bits_hash(&corpus)],
            [0x68be_121e_8c46_9c80, 0x6629_9ac5_d5a7_3c17],
            "generated trace bits moved"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = HeadTrace::generate(&TraceGenConfig::default(), 5);
        let b = HeadTrace::generate(&TraceGenConfig::default(), 5);
        assert_eq!(a, b);
    }
}
