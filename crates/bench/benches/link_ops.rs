//! Criterion benchmarks of the data-plane and simulation layers: the BER
//! channel, SFP state machine, the §5.4 trace simulation and
//! one second of the full 1 ms-slot physical simulator.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use cyclops::link::channel::FsoChannel;
use cyclops::link::sfp_state::SfpLinkState;
use cyclops::link::trace_sim::{simulate_trace, TraceSimParams};
use cyclops::prelude::*;

fn bench_channel(c: &mut Criterion) {
    let ch = FsoChannel::new(-25.0, 7.0);
    c.bench_function("channel: BER + frame success", |b| {
        b.iter(|| ch.frame_success_prob(black_box(-24.5), 12_000))
    });
}

fn bench_sfp_state(c: &mut Criterion) {
    c.bench_function("sfp: 1000 state-machine steps", |b| {
        b.iter(|| {
            let mut s = SfpLinkState::new_up(2.5);
            for i in 0..1000 {
                s.step(i % 97 != 0, 1e-3);
            }
            s.is_up()
        })
    });
}

fn bench_trace_sim(c: &mut Criterion) {
    let trace = HeadTrace::generate(&TraceGenConfig::default(), 42);
    let p = TraceSimParams::default();
    c.bench_function("trace_sim: one 60 s trace (60k slots)", |b| {
        b.iter(|| simulate_trace(black_box(&trace), &p).on_fraction)
    });
    // Tighter tolerances of the benchmark's trace sweep: at 0.875× many
    // realignment intervals cross the tolerance mid-interval (walked slot
    // by slot), at 0.5× every slot is off.
    for (scale, label) in [(0.875, "crossing-heavy"), (0.5, "all off")] {
        let q = TraceSimParams {
            tol_lat_m: p.tol_lat_m * scale,
            tol_ang_rad: p.tol_ang_rad * scale,
            ..p
        };
        c.bench_function(
            &format!("trace_sim: one 60 s trace at {scale}× tolerance ({label})"),
            |b| b.iter(|| simulate_trace(black_box(&trace), &q).on_fraction),
        );
    }
}

fn bench_full_simulator(c: &mut Criterion) {
    // Commission once; clone per iteration (the sim consumes its state).
    let sys = CyclopsSystem::commission(&SystemConfig::fast_10g(4242));
    let base = Pose::translation(Vec3::new(0.0, 0.0, 1.75));
    c.bench_function("simulator: 1 s of physical link sim (1k slots)", |b| {
        b.iter(|| {
            let mut rail = LinearRail::paper_protocol(base, Vec3::X);
            rail.v0 = 0.1;
            rail.dv = 0.0;
            let mut sim = sys
                .clone()
                .into_session_builder(rail)
                .build()
                .expect("valid bench session config");
            sim.run(1.0).len()
        })
    });
}

fn bench_trace_generation(c: &mut Criterion) {
    c.bench_function("traces: generate one 60 s viewing trace", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            HeadTrace::generate(&TraceGenConfig::default(), seed).len()
        })
    });
}

criterion_group!(
    benches,
    bench_channel,
    bench_sfp_state,
    bench_trace_sim,
    bench_full_simulator,
    bench_trace_generation
);
criterion_main!(benches);
