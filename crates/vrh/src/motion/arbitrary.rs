//! Free hand-held motion (§5.3 "User Study (Arbitrary Motions)").
//!
//! "We detach the RX assembly ..., hold it in hands, and move it around in
//! front of the TX." Hand-held motion is well described by an
//! Ornstein–Uhlenbeck (OU) process over linear and angular velocity: velocity
//! relaxes towards zero with a ~half-second time constant while being kicked
//! by noise, giving the smooth-but-erratic trajectories of a human hand, with
//! simultaneous (mixed) linear and angular components — the case the paper
//! stresses its TP design on.

use super::Motion;
use cyclops_geom::pose::Pose;
use cyclops_geom::quat::Quat;
use cyclops_geom::vec3::{v3, Vec3};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parameters of the OU velocity processes.
#[derive(Debug, Clone, Copy)]
pub struct ArbitraryMotionConfig {
    /// Velocity relaxation time constant (seconds).
    pub tau: f64,
    /// Stationary RMS linear speed per axis (m/s).
    pub lin_rms: f64,
    /// Stationary RMS angular speed per axis (rad/s).
    pub ang_rms: f64,
    /// Hard cap on linear speed (m/s) — a hand can only move so fast.
    pub lin_max: f64,
    /// Hard cap on angular speed (rad/s).
    pub ang_max: f64,
    /// Soft position tether: spring constant pulling back to the start
    /// position (1/s²) so the assembly stays in front of the TX.
    pub tether: f64,
    /// Soft orientation tether (1/s²): a hand holding the assembly keeps it
    /// roughly facing the TX.
    pub ang_tether: f64,
    /// Integration step (seconds).
    pub dt: f64,
}

impl Default for ArbitraryMotionConfig {
    fn default() -> Self {
        ArbitraryMotionConfig {
            tau: 0.5,
            lin_rms: 0.12,
            ang_rms: 0.20,
            lin_max: 1.0,
            ang_max: 2.5,
            tether: 2.0,
            ang_tether: 4.0,
            dt: 1e-3,
        }
    }
}

/// OU-process hand-held motion, deterministic per seed.
#[derive(Debug, Clone)]
pub struct ArbitraryMotion {
    cfg: ArbitraryMotionConfig,
    rng: StdRng,
    base: Pose,
    pos: Vec3,
    quat: Quat,
    vel: Vec3,
    omega: Vec3,
    t: f64,
    /// The OU kick scales `σ·√(2·dt/τ)` (linear, angular) of `cfg`.
    kick: (f64, f64),
    /// `base ∘ (quat, pos)` as of the last [`Motion::pose_at`], or `None`
    /// once a step has moved the state since.
    pose: Option<Pose>,
}

impl ArbitraryMotion {
    /// Creates the motion starting at `base`, seeded for reproducibility.
    pub fn new(base: Pose, cfg: ArbitraryMotionConfig, seed: u64) -> ArbitraryMotion {
        let root = (2.0 * cfg.dt / cfg.tau).sqrt();
        ArbitraryMotion {
            kick: (cfg.lin_rms * root, cfg.ang_rms * root),
            pose: None,
            cfg,
            rng: StdRng::seed_from_u64(seed),
            base,
            pos: Vec3::ZERO,
            quat: Quat::IDENTITY,
            vel: Vec3::ZERO,
            omega: Vec3::ZERO,
            t: 0.0,
        }
    }

    /// One integration step of `cfg.dt`.
    fn step(&mut self) {
        let c = self.cfg;
        let dt = c.dt;
        // OU: dv = −v/τ dt + σ√(2dt/τ) ξ, stationary std = σ.
        let (kick_l, kick_a) = self.kick;
        let [lx, ly, lz, ax, ay, az] = crate::rand_util::gauss6(&mut self.rng);
        let (gl, ga) = (v3(lx, ly, lz), v3(ax, ay, az));
        self.vel += (-self.vel / c.tau - self.pos * c.tether) * dt + gl * kick_l;
        // Orientation spring: pull back towards the facing-the-TX attitude.
        let rv = self.quat.to_rotation_vector();
        self.omega += (-self.omega / c.tau - rv * c.ang_tether) * dt + ga * kick_a;
        // Caps.
        let vs = self.vel.norm();
        if vs > c.lin_max {
            self.vel *= c.lin_max / vs;
        }
        let ws = self.omega.norm();
        if ws > c.ang_max {
            self.omega *= c.ang_max / ws;
        }
        self.pos += self.vel * dt;
        self.quat = (Quat::from_rotation_vector(self.omega * dt) * self.quat).normalized();
    }
}

impl Motion for ArbitraryMotion {
    fn pose_at(&mut self, t: f64) -> Pose {
        // Unreachable from the engine, which samples motion at
        // non-decreasing times (pinned by the link crate's
        // `motion_is_sampled_at_non_decreasing_times`); the cached pose
        // below relies on the same order.
        assert!(
            t + 1e-9 >= self.t,
            "ArbitraryMotion must be sampled with non-decreasing time"
        );
        while self.t + self.cfg.dt <= t {
            self.step();
            self.t += self.cfg.dt;
            self.pose = None;
        }
        // Paused slots and a report sampled at the slot-end time ask again
        // for an unchanged state.
        *self
            .pose
            .get_or_insert_with(|| self.base.compose(&Pose::from_quat(self.quat, self.pos)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mk = || ArbitraryMotion::new(Pose::IDENTITY, Default::default(), 99);
        let (mut a, mut b) = (mk(), mk());
        for i in 1..50 {
            let t = i as f64 * 0.05;
            assert_eq!(a.pose_at(t).trans, b.pose_at(t).trans);
        }
        let mut c = ArbitraryMotion::new(Pose::IDENTITY, Default::default(), 100);
        let mut a2 = mk();
        assert_ne!(a2.pose_at(2.0).trans, c.pose_at(2.0).trans);
    }

    #[test]
    fn stays_tethered_near_start() {
        let mut m = ArbitraryMotion::new(Pose::IDENTITY, Default::default(), 7);
        let mut max_dist: f64 = 0.0;
        let mut max_ang: f64 = 0.0;
        for i in 1..1200 {
            let p = m.pose_at(i as f64 * 0.05); // 60 s
            max_dist = max_dist.max(p.trans.norm());
            max_ang = max_ang.max(Quat::IDENTITY.angle_to(&p.quat()));
        }
        assert!(max_dist < 1.0, "wandered {max_dist} m");
        assert!(max_dist > 0.01, "should actually move");
        // The hand keeps the assembly roughly facing forward.
        assert!(max_ang < 0.35, "spun away by {max_ang} rad");
        assert!(max_ang > 0.01, "should actually rotate");
    }

    #[test]
    fn speeds_are_humanlike() {
        let mut m = ArbitraryMotion::new(Pose::IDENTITY, Default::default(), 13);
        let mut lin = Vec::new();
        let mut ang = Vec::new();
        let mut last = m.pose_at(0.0);
        for i in 1..3000 {
            let t = i as f64 * 0.02;
            let p = m.pose_at(t);
            lin.push((p.trans - last.trans).norm() / 0.02);
            ang.push(last.quat().angle_to(&p.quat()) / 0.02);
            last = p;
        }
        let mean_lin = lin.iter().sum::<f64>() / lin.len() as f64;
        let mean_ang = ang.iter().sum::<f64>() / ang.len() as f64;
        // RMS per axis 0.12 m/s ⇒ mean |v| ≈ 1.6·0.12 ≈ 0.19 m/s.
        assert!(
            (0.05..0.5).contains(&mean_lin),
            "mean linear {mean_lin} m/s"
        );
        assert!(
            (5.0..40.0).contains(&mean_ang.to_degrees()),
            "mean angular {} deg/s",
            mean_ang.to_degrees()
        );
        let max_lin = lin.iter().cloned().fold(0.0, f64::max);
        assert!(max_lin <= 1.01, "cap respected: {max_lin}");
    }

    #[test]
    fn sampling_cadence_does_not_change_the_trajectory() {
        // The engine samples motion once per 1 ms slot, but pause-on-outage
        // and the fleet runner stretch the cadence arbitrarily; the internal
        // dt-stepped OU process must make the trajectory a function of the
        // query time alone, bit-identically.
        let mk = || ArbitraryMotion::new(Pose::IDENTITY, Default::default(), 41);
        let (mut fine, mut coarse) = (mk(), mk());
        for k in 1..=2000 {
            let p = fine.pose_at(k as f64 * 1e-3);
            if k % 50 == 0 {
                let q = coarse.pose_at(k as f64 * 1e-3);
                assert_eq!(p.trans, q.trans, "slot {k}");
                assert_eq!(p.rot, q.rot, "slot {k}");
            }
        }
    }

    #[test]
    fn repeated_times_return_the_cached_pose() {
        // Paused slots and report-time samples repeat a time, or advance it
        // by less than one step: the cached pose must be the one composed
        // afresh by a twin that sees each time once.
        let mk =
            || ArbitraryMotion::new(Pose::translation(v3(0.0, 0.0, 1.75)), Default::default(), 5);
        let (mut cached, mut fresh) = (mk(), mk());
        for k in 0..600 {
            let t = (k / 3) as f64 * 1e-3 + (k % 3) as f64 * 2e-4;
            let p = cached.pose_at(t);
            let mut twin = fresh.clone();
            twin.pose = None;
            let q = twin.pose_at(t);
            assert_eq!(p, q, "sample {k}");
            fresh = twin;
        }
    }

    #[test]
    #[should_panic]
    fn time_must_not_go_backwards() {
        let mut m = ArbitraryMotion::new(Pose::IDENTITY, Default::default(), 1);
        m.pose_at(1.0);
        m.pose_at(0.5);
    }

    #[test]
    fn poses_remain_rigid() {
        let mut m = ArbitraryMotion::new(Pose::IDENTITY, Default::default(), 3);
        for i in 0..100 {
            assert!(m.pose_at(i as f64 * 0.1).is_rigid(1e-7));
        }
    }
}
