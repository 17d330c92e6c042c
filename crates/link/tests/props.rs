//! Property-based tests for the data-plane layer.

use cyclops_geom::vec3::v3;
use cyclops_link::channel::FsoChannel;
use cyclops_link::engine::{
    aligned_margin_db, visible_margin_db, windows_50ms, EngineSlot, MarginSelector,
};
use cyclops_link::sfp_state::SfpLinkState;
use cyclops_link::trace_sim::{simulate_trace, TraceSimParams};
use cyclops_optics::coupling::LinkDesign;
use cyclops_vrh::traces::{HeadTrace, TraceGenConfig};
use proptest::prelude::*;

proptest! {
    /// BER is a monotone non-increasing function of power below overload,
    /// bounded in [0, 0.5].
    #[test]
    fn ber_monotone(p1 in -60.0..5.0f64, p2 in -60.0..5.0f64) {
        let ch = FsoChannel::new(-25.0, 7.0);
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let b_lo = ch.ber(lo);
        let b_hi = ch.ber(hi);
        prop_assert!((0.0..=0.5).contains(&b_lo));
        prop_assert!(b_hi <= b_lo + 1e-15);
    }

    /// The power→BER→frame-success chain is total: any input — finite,
    /// ±∞ or NaN, as a corrupted report could inject — yields BER in
    /// [0, 0.5] and frame success in [0, 1], never NaN.
    #[test]
    fn channel_total_on_any_input(
        finite in -1e308..1e308f64,
        pick in 0u8..4,
        n in 1u64..100_000,
    ) {
        let p = match pick {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            _ => finite,
        };
        let ch = FsoChannel::new(-25.0, 7.0);
        let q = ch.q_factor(p);
        prop_assert!(q.is_finite() && q >= 0.0, "q({p}) = {q}");
        let b = ch.ber(p);
        prop_assert!((0.0..=0.5).contains(&b), "ber({p}) = {b}");
        let f = ch.frame_success_prob(p, n);
        prop_assert!((0.0..=1.0).contains(&f), "fsp({p}) = {f}");
    }

    /// Frame survival decreases with frame size.
    #[test]
    fn bigger_frames_survive_less(p in -30.0..-24.0f64, n1 in 100u64..5_000, n2 in 5_000u64..50_000) {
        let ch = FsoChannel::new(-25.0, 7.0);
        prop_assert!(ch.frame_success_prob(p, n2) <= ch.frame_success_prob(p, n1) + 1e-12);
    }

    /// The SFP machine's total up-time never exceeds slots with signal.
    #[test]
    fn sfp_up_implies_signal_history(pattern in prop::collection::vec(any::<bool>(), 1..400)) {
        let mut s = SfpLinkState::new_up(0.05);
        let mut up_slots = 0usize;
        let mut signal_slots = 0usize;
        for &sig in &pattern {
            if sig {
                signal_slots += 1;
            }
            if s.step(sig, 1e-3) {
                up_slots += 1;
                // The link can only be up on a slot with signal.
                prop_assert!(sig);
            }
        }
        prop_assert!(up_slots <= signal_slots);
    }

    /// The 50 ms meter conserves bits: the windows' goodput over their
    /// length equals the bits of the slots in complete windows.
    #[test]
    fn meter_conserves_bits(rates in prop::collection::vec(0.0..10e9f64, 50..400)) {
        let slots: Vec<EngineSlot> = rates
            .iter()
            .enumerate()
            .map(|(i, r)| EngineSlot {
                t: (i + 1) as f64 * 1e-3,
                active: 0,
                los: true,
                power_dbm: -20.0,
                link_up: true,
                rf_active: false,
                goodput_gbps: r * 1e-9,
                lin_speed: 0.0,
                ang_speed: 0.0,
            })
            .collect();
        let complete = rates.len() / 50;
        let windows = windows_50ms(&slots, 1e-3, -25.0);
        prop_assert_eq!(windows.len(), complete);
        let windowed_bits: f64 = windows.iter().map(|w| w.goodput * 1e9 * 0.050).sum();
        let expected: f64 = rates.iter().take(complete * 50).map(|r| r * 1e-3).sum();
        prop_assert!((windowed_bits - expected).abs() < 1e-3,
            "windowed {windowed_bits} vs expected {expected}");
    }

    /// Trace-sim availability is in \[0,1\] and zero-tolerance kills any
    /// moving trace.
    #[test]
    fn trace_sim_bounds(seed in 0u64..50) {
        let cfg = TraceGenConfig { duration_s: 2.0, ..Default::default() };
        let tr = HeadTrace::generate(&cfg, seed);
        let r = simulate_trace(&tr, &TraceSimParams::default());
        prop_assert!((0.0..=1.0).contains(&r.on_fraction));
        let strict = TraceSimParams {
            tol_lat_m: 0.0,
            tol_ang_rad: 0.0,
            residual_lat_m: 0.0,
            residual_ang_rad: 0.0,
            ..Default::default()
        };
        let r2 = simulate_trace(&tr, &strict);
        prop_assert!(r2.on_fraction <= r.on_fraction);
    }

    /// Tightening either tolerance can only reduce availability.
    #[test]
    fn trace_sim_monotone_in_tolerance(seed in 0u64..30, shrink in 0.2..1.0f64) {
        let cfg = TraceGenConfig { duration_s: 2.0, ..Default::default() };
        let tr = HeadTrace::generate(&cfg, seed);
        let base = TraceSimParams::default();
        let tight = TraceSimParams {
            tol_lat_m: base.tol_lat_m * shrink,
            tol_ang_rad: base.tol_ang_rad * shrink,
            ..base
        };
        let a = simulate_trace(&tr, &base).on_fraction;
        let b = simulate_trace(&tr, &tight).on_fraction;
        prop_assert!(b <= a + 1e-12);
    }

    /// Handover invariant: once the active unit dies, the selector pays
    /// exactly the switch delay (no delivery meanwhile) and lands on the
    /// usable unit with the best margin, which then delivers.
    #[test]
    fn dead_unit_hands_over_to_best_margin_after_the_delay(
        margins in prop::collection::vec(0.0..30.0f64, 1..6),
        switch_ms in 1usize..80,
    ) {
        // Unit 0 is dead (occluded / out of range); siblings carry random
        // non-negative margins.
        let n = margins.len() + 1;
        let margin =
            |i: usize| if i == 0 { f64::NEG_INFINITY } else { margins[i - 1] };
        let mut sel = MarginSelector::new(switch_ms as f64 * 1e-3);
        let mut active = 0usize;
        // Step 1 initiates the switch, then `switch_ms` slots count it down.
        for step in 0..=switch_ms {
            let (delivering, a) = sel.step(active, n, margin, 1e-3);
            prop_assert!(!delivering, "no delivery mid-switch (step {step})");
            active = a;
        }
        let best = (1..n)
            .max_by(|&a, &b| margin(a).partial_cmp(&margin(b)).unwrap())
            .unwrap();
        prop_assert_eq!(active, best, "active must hold the best margin");
        let (delivering, a) = sel.step(active, n, margin, 1e-3);
        prop_assert!(delivering && a == best, "delivery resumes after the delay");
    }

    /// Tie invariant: under a margin tie the selector never switches,
    /// whatever unit we start from — no flip-flop.
    #[test]
    fn hysteresis_never_flip_flops_on_a_margin_tie(
        m in 0.0..25.0f64,
        start in 0usize..4,
        n in 2usize..5,
        steps in 1usize..200,
    ) {
        let start = start % n;
        let mut sel = MarginSelector::new(0.01);
        let mut active = start;
        for _ in 0..steps {
            let (delivering, a) = sel.step(active, n, |_| m, 1e-3);
            prop_assert!(delivering, "tied usable units always deliver");
            active = a;
        }
        prop_assert_eq!(active, start, "a tie must never trigger a switch");
    }

    /// The geometric handover system agrees: an RX equidistant from two
    /// units (a perfect margin tie) never leaves unit 0.
    #[test]
    fn handover_system_is_stable_under_symmetry(
        y in 0.0..1.5f64,
        z in -0.5..0.5f64,
    ) {
        let design = LinkDesign::ten_g_diverging(20e-3, 2.0);
        let txs = [v3(-0.8, 2.0, 0.0), v3(0.8, 2.0, 0.0)];
        let mut sel = MarginSelector::new(0.01);
        // x = 0 ⇒ both units are at identical range: a perfect tie.
        let rx = v3(0.0, y, z);
        prop_assume!(aligned_margin_db(&design, txs[0], rx) >= 0.0);
        let mut active = 0;
        for _ in 0..120 {
            let margin = |i: usize| visible_margin_db(&design, &[], txs[i], rx);
            active = sel.step(active, txs.len(), margin, 1e-3).1;
        }
        prop_assert_eq!(active, 0, "margin tie must not flip-flop");
    }
}

/// Properties of the composable environment layer: attenuation only ever
/// removes power, and every stage is a pure function of (seed, time) — the
/// determinism contract the engine's golden digests rely on.
mod environment {
    use super::*;
    use cyclops_link::channel::{
        Environment, FogStage, HumanOccluderStage, RainStage, ScintillationStage,
    };

    /// Builds a full four-stage environment from sampled knobs.
    fn env(density: f64, rain: f64, sigma: f64, rate: f64, seed: u64) -> Environment {
        Environment::new()
            .stage(FogStage::from_density(density, 1550.0).expect("valid density"))
            .stage(RainStage::new(rain).expect("valid rain rate"))
            .stage(ScintillationStage::new(sigma, 10e-3, seed ^ 0x5c17).expect("valid sigma"))
            .stage(HumanOccluderStage::new(rate, 0.5, 30.0, seed ^ 0x0cc1).expect("valid rate"))
    }

    proptest! {
        /// The environment is monotone non-increasing in power: for any
        /// stage mix, time and path, the attenuation is finite and
        /// non-negative (scintillation is loss-clamped by design).
        #[test]
        fn env_only_removes_power(
            density in 0.0..1.0f64,
            rain in 0.0..150.0f64,
            sigma in 0.0..6.0f64,
            rate in 0.0..30.0f64,
            seed in any::<u64>(),
            t in 0.0..600.0f64,
            path in 0.1..50.0f64,
        ) {
            let mut e = env(density, rain, sigma, rate, seed);
            let att = e.attenuation_db(t, path);
            prop_assert!(att.is_finite() && att >= 0.0, "att({t}, {path}) = {att}");
        }

        /// Identical seeds give bit-identical attenuation sequences, and
        /// `reseeded` is itself a pure function of (construction seed,
        /// stream) — stages derive everything from (seed, slot epoch),
        /// never from call count or shared RNG state.
        #[test]
        fn env_bit_deterministic_per_seed(
            density in 0.0..1.0f64,
            sigma in 0.0..6.0f64,
            rate in 0.0..30.0f64,
            seed in any::<u64>(),
            t0 in 0.0..60.0f64,
        ) {
            let mut a = env(density, 0.0, sigma, rate, seed);
            let mut b = env(density, 0.0, sigma, rate, seed);
            let mut c = env(density, 0.0, sigma, rate, seed).reseeded(seed ^ 0xdead);
            let mut d = env(density, 0.0, sigma, rate, seed).reseeded(seed ^ 0xdead);
            for k in 0..64 {
                let t = t0 + k as f64 * 1e-3;
                let x = a.attenuation_db(t, 1.75);
                prop_assert_eq!(x.to_bits(), b.attenuation_db(t, 1.75).to_bits());
                // Re-keying the same environment with the same stream
                // agrees bit-for-bit.
                prop_assert_eq!(
                    c.attenuation_db(t, 1.75).to_bits(),
                    d.attenuation_db(t, 1.75).to_bits()
                );
            }
        }
    }
}
