//! Criterion micro-benchmarks of the real-time pipeline — the operations
//! whose latency the paper budgets in §5.2 ("computation time ... is minimal
//! (in µsecs)"):
//!
//! * `G` — one galvo-model trace;
//! * `G'` — the computational inverse (2–4 trace triples);
//! * `P`  — the full four-voltage pointing solve (2–5 outer iterations);
//! * received-power evaluation (the simulator's hot path);
//! * the slot primitives under it: one Gaussian draw, a paired draw of two
//!   and one noisy galvo output beam (the 1 ms hand-held motion step is in
//!   `hot_path`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use cyclops::core::deployment::{cheat_align, Deployment, DeploymentConfig};
use cyclops::core::gprime::gprime_default;
use cyclops::core::pointing::pointing_default;
use cyclops::geom::rotation::axis_angle;
use cyclops::prelude::*;

fn facing_pair() -> (GalvoParams, GalvoParams) {
    let tx = GalvoParams::nominal();
    let rx = GalvoParams::nominal().transformed(&Pose::new(
        axis_angle(Vec3::Y, std::f64::consts::PI),
        Vec3::new(0.05, 0.0, 1.75),
    ));
    (tx, rx)
}

fn bench_g_trace(c: &mut Criterion) {
    let g = GalvoParams::nominal();
    c.bench_function("G: galvo model trace", |b| {
        b.iter(|| g.trace(black_box(0.7), black_box(-0.3)))
    });
    c.bench_function("G: trace_line (learned-model variant)", |b| {
        b.iter(|| g.trace_line(black_box(0.7), black_box(-0.3)))
    });
}

fn bench_gprime(c: &mut Criterion) {
    let g = GalvoParams::nominal();
    let target = g.trace(1.0, -0.5).unwrap().point_at(1.75);
    c.bench_function("G': inverse solve (cold start)", |b| {
        b.iter(|| gprime_default(&g, black_box(target), (0.0, 0.0)))
    });
    c.bench_function("G': inverse solve (warm start)", |b| {
        b.iter(|| gprime_default(&g, black_box(target), (1.0, -0.5)))
    });
}

fn bench_pointing(c: &mut Criterion) {
    let (tx, rx) = facing_pair();
    let warm = pointing_default(&tx, &rx, [0.0; 4]).voltages;
    c.bench_function("P: pointing solve (cold start)", |b| {
        b.iter(|| pointing_default(black_box(&tx), black_box(&rx), [0.0; 4]))
    });
    c.bench_function("P: pointing solve (warm start)", |b| {
        b.iter(|| pointing_default(black_box(&tx), black_box(&rx), warm))
    });
}

fn bench_received_power(c: &mut Criterion) {
    let mut dep = Deployment::new(&DeploymentConfig::paper_10g(7));
    cheat_align(&mut dep);
    c.bench_function("optics: received power (aligned)", |b| {
        b.iter(|| black_box(dep.received_power_dbm()))
    });
    let (a, b2, c2, d) = dep.voltages();
    dep.set_voltages(a + 3.0, b2, c2, d);
    c.bench_function("optics: received power (far off — fast path)", |b| {
        b.iter(|| black_box(dep.received_power_dbm()))
    });
}

fn bench_capture(c: &mut Criterion) {
    use cyclops::optics::beam::capture_fraction;
    c.bench_function("optics: aperture capture (δ = 0.2w)", |b| {
        b.iter(|| capture_fraction(black_box(0.02), black_box(0.004), black_box(0.005)))
    });
    // The tracked operating point: a 18.5 mm beam held at δ/w ≈ 0.075.
    c.bench_function("optics: aperture capture (tracked, δ = 0.075w)", |b| {
        b.iter(|| {
            capture_fraction(
                black_box(18.5e-3),
                black_box(0.075 * 18.5e-3),
                black_box(5.0e-3),
            )
        })
    });
}

fn bench_slot_primitives(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(3);
    c.bench_function("noise: one Box–Muller draw", |b| {
        b.iter(|| cyclops::vrh::rand_util::gauss(&mut rng))
    });
    c.bench_function("noise: gauss2 (two deviates)", |b| {
        b.iter(|| cyclops::vrh::rand_util::gauss2(&mut rng))
    });
    let mut sim = GalvoSim::new(GalvoParams::nominal(), GalvoSimConfig::default());
    sim.command(0.7, -0.3);
    c.bench_function("galvo: GalvoSim::output_ray (10 µrad noise)", |b| {
        b.iter(|| sim.output_ray(&mut rng))
    });
}

criterion_group!(
    benches,
    bench_g_trace,
    bench_gprime,
    bench_pointing,
    bench_received_power,
    bench_capture,
    bench_slot_primitives
);
criterion_main!(benches);
