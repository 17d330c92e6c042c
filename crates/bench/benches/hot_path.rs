//! Criterion microbenches of the per-slot hot path: the three channel-math
//! entry points (`q_factor`, `ber`, `frame_success_prob`) individually, the
//! three physics kernels of a slot (a 1 ms hand-held motion step, a TP solve
//! on a tracking report and the coupling power at a tracked pose), and one
//! full [`LinkSession`]
//! `step_slot` — the end-to-end serial cost a fleet pays per session-slot.
//! Power inputs sweep a small grid so the optimizer cannot constant-fold the
//! transcendental pipeline away.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use cyclops::link::channel::FsoChannel;
use cyclops::link::engine::SlotSession;
use cyclops::prelude::*;
use cyclops::vrh::motion::ArbitraryMotionConfig;

/// Power sweep across the channel's interesting region: deep outage,
/// threshold shoulder, and overload.
const POWERS: [f64; 8] = [-90.0, -40.0, -26.0, -24.5, -23.0, -21.0, -19.5, -15.0];

fn bench_q_factor(c: &mut Criterion) {
    let ch = FsoChannel::new(-25.0, -18.0);
    c.bench_function("channel: q_factor (8-power sweep)", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &p in &POWERS {
                acc += ch.q_factor(black_box(p));
            }
            acc
        })
    });
}

fn bench_ber(c: &mut Criterion) {
    let ch = FsoChannel::new(-25.0, -18.0);
    c.bench_function("channel: ber (8-power sweep)", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &p in &POWERS {
                acc += ch.ber(black_box(p));
            }
            acc
        })
    });
}

fn bench_frame_success(c: &mut Criterion) {
    let ch = FsoChannel::new(-25.0, -18.0);
    c.bench_function("channel: frame_success_prob (8-power sweep)", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &p in &POWERS {
                acc += ch.frame_success_prob(black_box(p), black_box(81_920));
            }
            acc
        })
    });
}

/// Hand-held headset poses 8 ms apart (about one tracking period), as the
/// slot loop sees them.
fn hand_held_poses(n: usize) -> Vec<Pose> {
    let base = Pose::translation(Vec3::new(0.0, 0.0, 1.75));
    let mut motion = ArbitraryMotion::new(base, ArbitraryMotionConfig::default(), 500);
    (1..=n).map(|k| motion.pose_at(k as f64 * 8e-3)).collect()
}

/// One 1 ms step of hand-held motion: six Gaussian kicks (three paired
/// draws), the OU update and the orientation integration.
fn bench_motion_step(c: &mut Criterion) {
    let base = Pose::translation(Vec3::new(0.0, 0.0, 1.75));
    let mut motion = ArbitraryMotion::new(base, ArbitraryMotionConfig::default(), 500);
    let mut t = 0.0;
    c.bench_function("vrh: ArbitraryMotion step (hand-held)", |b| {
        b.iter(|| {
            t += 1e-3;
            motion.pose_at(black_box(t))
        })
    });
}

/// `TpController::on_report` on a commissioned unit, warm-started from the
/// previous report as in the slot loop. Reports are the headset's tracked
/// (VR-space) poses: raw world poses would drive `P` into the ±10 V clamps
/// and time a path the loop never takes.
fn bench_tp_solve(c: &mut Criterion) {
    let sys = CyclopsSystem::commission(&SystemConfig::fast_10g(4242));
    let (mut dep, mut ctl) = (sys.dep, sys.ctl);
    let reports: Vec<Pose> = hand_held_poses(256)
        .into_iter()
        .map(|p| {
            dep.set_headset_pose(p);
            dep.headset.true_reported_pose()
        })
        .collect();
    let mut k = 0usize;
    c.bench_function("tp: TpController::on_report (hand-held reports)", |b| {
        b.iter(|| {
            let cmd = ctl.on_report(black_box(&reports[k % reports.len()]));
            k += 1;
            cmd.voltages
        })
    });
}

/// `Deployment::received_power_dbm` at a tracked pose: TP-aligned, so the
/// reading integrates the Marcum-Q capture series rather than taking the
/// dark fast path.
fn bench_coupling_power(c: &mut Criterion) {
    let sys = CyclopsSystem::commission(&SystemConfig::fast_10g(4242));
    let (mut dep, mut ctl) = (sys.dep, sys.ctl);
    dep.set_headset_pose(hand_held_poses(1)[0]);
    let cmd = ctl.on_report(&dep.headset.true_reported_pose());
    let [v0, v1, v2, v3] = cmd.voltages;
    dep.set_voltages(v0, v1, v2, v3);
    let p = dep.received_power_dbm();
    assert!(
        p >= dep.design.sfp.rx_sensitivity_dbm,
        "bench pose must be tracked: {p} dBm"
    );
    c.bench_function("optics: Deployment::received_power_dbm (tracked)", |b| {
        b.iter(|| black_box(dep.received_power_dbm()))
    });
}

/// One full engine slot: galvo trace, capture fraction, channel math, SFP
/// state machine, goodput accounting — the serial cost every session pays
/// per millisecond of simulated time.
fn bench_engine_slot(c: &mut Criterion) {
    let sys = CyclopsSystem::commission(&SystemConfig::fast_10g(4242));
    let base = Pose::translation(Vec3::new(0.0, 0.0, 1.75));
    let motion = ArbitraryMotion::new(base, ArbitraryMotionConfig::default(), 500);
    let mut session = sys
        .into_session_builder(motion)
        .build()
        .expect("valid bench session config");
    let mut k = 0usize;
    c.bench_function("engine: one full EngineSlot step", |b| {
        b.iter(|| {
            let r = session.step_slot(black_box(k));
            k += 1;
            r.power_dbm
        })
    });
}

criterion_group!(
    benches,
    bench_q_factor,
    bench_ber,
    bench_frame_success,
    bench_motion_step,
    bench_tp_solve,
    bench_coupling_power,
    bench_engine_slot
);
criterion_main!(benches);
