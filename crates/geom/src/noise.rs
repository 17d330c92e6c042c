//! The workspace's one Gaussian-noise kernel.
//!
//! Every simulated noise source — galvo jitter, power-meter noise, tracker
//! noise, the hand-held motion's velocity kicks, scintillation — turns two
//! uniforms into a standard normal with [`box_muller`]. Callers own the
//! uniforms (an RNG draw or a `mix64` hash), so this module stays
//! dependency-free and the RNG streams are the callers' business. A caller
//! that needs several deviates in a row takes them in pairs through
//! [`box_muller2`], whose lanes equal [`box_muller`] bit for bit.
//!
//! The cosine is evaluated in *turns*: `cos(2πu)` for `u ∈ [0, 1]` reduces
//! exactly to a quarter-turn remainder and a quadrant, so no `2π`
//! multiple-of-π/2 reduction (the expensive part of a general `cos`) is
//! needed.

use std::f64::consts::TAU;

/// Minimax coefficients of `sin` on `[−π/4, π/4]` (the fdlibm kernel,
/// written as the shortest decimals of the same `f64` bits).
const S1: f64 = -0.166_666_666_666_666_32;
const S2: f64 = 0.008_333_333_333_322_49;
const S3: f64 = -0.000_198_412_698_298_579_5;
const S4: f64 = 2.755_731_370_707_006_8e-6;
const S5: f64 = -2.505_076_025_340_686_3e-8;
const S6: f64 = 1.589_690_995_211_55e-10;

/// Minimax coefficients of `cos` on `[−π/4, π/4]` (the fdlibm kernel).
const C1: f64 = 0.041_666_666_666_666_6;
const C2: f64 = -0.001_388_888_888_887_411;
const C3: f64 = 2.480_158_728_947_673e-5;
const C4: f64 = -2.755_731_435_139_066_3e-7;
const C5: f64 = 2.087_572_321_298_175e-9;
const C6: f64 = -1.135_964_755_778_819_5e-11;

/// `(sin x, cos x)` for `|x| ≤ π/4`, accurate to about one ulp.
#[inline]
fn sin_cos_kernel(x: f64) -> (f64, f64) {
    let z = x * x;
    let w = z * z;
    let rs = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    let sin = x + z * x * (S1 + z * rs);
    let rc = z * (C1 + z * (C2 + z * C3)) + w * w * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let c = 1.0 - hz;
    (sin, c + (((1.0 - c) - hz) + z * rc))
}

/// `cos(2πu)` for `u ∈ [0, 1]`, within about one ulp, exact at quarter
/// turns.
///
/// `k = round(4u)` picks the quadrant; `r = u − k/4` is exact with
/// `|r| ≤ 1/8`, so the kernels only ever see `|2πr| ≤ π/4`. The quadrant
/// is applied by bit selection rather than a branch: the uniforms this
/// serves land in a random quadrant, which a branch would mispredict.
#[inline]
pub fn cos_turns(u: f64) -> f64 {
    cos_turns_lane(u)
}

/// [`cos_turns`] of two turns at once, bit for bit: the two lanes are
/// independent, so their polynomials overlap (or share vector registers)
/// instead of running one after the other.
#[inline]
pub fn cos_turns2(u: [f64; 2]) -> [f64; 2] {
    [cos_turns_lane(u[0]), cos_turns_lane(u[1])]
}

/// The one evaluation behind [`cos_turns`] and [`cos_turns2`].
#[inline(always)]
fn cos_turns_lane(u: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&u), "u = {u} outside [0, 1]");
    // Truncating `4u + ½ ∈ [0.5, 4.5]` rounds without `f64::round` (a libm
    // call on baseline x86-64); the signed conversions are one instruction
    // each way there, the unsigned ones are not.
    let k = (4.0 * u + 0.5) as i64;
    let (s, c) = sin_cos_kernel((u - k as f64 * 0.25) * TAU);
    // cos(x + kπ/2): quadrant 0 → c, 1 → −s, 2 → −c, 3 → s.
    let k = k as u64;
    let odd = 0u64.wrapping_sub(k & 1);
    let bits = (c.to_bits() & !odd) | (s.to_bits() & odd);
    let sign = ((k + 1) & 2) << 62;
    f64::from_bits(bits ^ sign)
}

/// Lower end of the `u₁` uniform every RNG-fed caller draws
/// (`gen_range(U1_MIN..1.0)`), which keeps `ln u₁` finite.
pub const U1_MIN: f64 = 1e-12;

/// `√(−2 ln U1_MIN)` rounded up: no [`box_muller`] deviate drawn with
/// `u₁ ≥ U1_MIN` exceeds it in magnitude. Worst-case noise bounds (the
/// alignment search's dark-cell test) rest on it.
pub const MAX_DEVIATE: f64 = 7.433_845;

/// One standard-normal deviate from two uniforms by Box–Muller:
/// `√(−2 ln u₁) · cos(2πu₂)`, for `u₁ ∈ (0, 1]` and `u₂ ∈ [0, 1]`.
#[inline]
pub fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * cos_turns_lane(u2)
}

/// Two [`box_muller`] deviates at once, bit for bit: lane `i` is
/// `box_muller(u1[i], u2[i])`. The two `ln` stay scalar library calls;
/// the square roots, products and [`cos_turns2`] run as two independent
/// lanes, each performing the scalar kernel's IEEE operations in the same
/// order.
#[inline]
pub fn box_muller2(u1: [f64; 2], u2: [f64; 2]) -> [f64; 2] {
    let ln = [u1[0].ln(), u1[1].ln()];
    let c = cos_turns2(u2);
    [(-2.0 * ln[0]).sqrt() * c[0], (-2.0 * ln[1]).sqrt() * c[1]]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64 → a uniform in `[0, 1)` with 53 random bits.
    fn uniforms(seed: u64) -> impl Iterator<Item = f64> {
        let mut x = seed;
        std::iter::from_fn(move || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            Some((z >> 11) as f64 * (1.0 / (1u64 << 53) as f64))
        })
    }

    #[test]
    fn coefficients_are_the_fdlibm_bits() {
        let bits = [S1, S2, S3, S4, S5, S6, C1, C2, C3, C4, C5, C6].map(f64::to_bits);
        assert_eq!(
            bits,
            [
                0xbfc5_5555_5555_5549,
                0x3f81_1111_1110_f8a6,
                0xbf2a_01a0_19c1_61d5,
                0x3ec7_1de3_57b1_fe7d,
                0xbe5a_e5e6_8a2b_9ceb,
                0x3de5_d93a_5acf_d57c,
                0x3fa5_5555_5555_554c,
                0xbf56_c16c_16c1_5177,
                0x3efa_01a0_19cb_1590,
                0xbe92_7e4f_809c_52ad,
                0x3e21_ee9e_bdb4_b1c4,
                0xbda8_fae9_be88_38d4,
            ]
        );
    }

    #[test]
    fn exact_at_quarter_turns() {
        assert_eq!(cos_turns(0.0), 1.0);
        assert_eq!(cos_turns(0.25), 0.0);
        assert_eq!(cos_turns(0.5), -1.0);
        assert_eq!(cos_turns(0.75), 0.0);
        assert_eq!(cos_turns(1.0), 1.0);
    }

    #[test]
    fn matches_libm_over_a_million_draws() {
        let mut worst = 0.0f64;
        for u in uniforms(1).take(1_000_000) {
            worst = worst.max((cos_turns(u) - (TAU * u).cos()).abs());
        }
        assert!(worst <= 1e-15, "worst |Δ| = {worst:e}");
    }

    #[test]
    fn matches_libm_at_octant_edges() {
        // Either side of every quadrant switch and kernel-range edge.
        for i in 0..=8 {
            let e = i as f64 / 8.0;
            let bits = e.to_bits();
            for u in [
                e,
                f64::from_bits(bits + 1),
                f64::from_bits(bits.saturating_sub(1)),
            ] {
                if u <= 1.0 {
                    let d = (cos_turns(u) - (TAU * u).cos()).abs();
                    assert!(d <= 1e-15, "u = {u}: |Δ| = {d:e}");
                }
            }
        }
    }

    #[test]
    fn deviates_are_bounded_by_the_smallest_u1() {
        assert!((-2.0 * U1_MIN.ln()).sqrt() <= MAX_DEVIATE);
        // `ln` is increasing and `|cos_turns| ≤ 1`, so `u₁ = U1_MIN` is the
        // worst case; quarter turns hit `cos = ±1` and `0` exactly.
        for u2 in [0.0, 0.25, 0.5, 1.0] {
            assert!(box_muller(U1_MIN, u2).abs() <= MAX_DEVIATE, "u2 = {u2}");
            for g in box_muller2([U1_MIN; 2], [u2, 1.0 - u2]) {
                assert!(g.abs() <= MAX_DEVIATE, "u2 = {u2}");
            }
        }
        for u in uniforms(3).take(100_000) {
            assert!(cos_turns(u).abs() <= 1.0, "u = {u}");
        }
    }

    /// Asserts `box_muller2` (and `cos_turns2`) equal the scalar kernels bit
    /// for bit in each lane.
    fn assert_pair_is_two_singles(u1: [f64; 2], u2: [f64; 2]) {
        let pair = box_muller2(u1, u2).map(f64::to_bits);
        let singles = [box_muller(u1[0], u2[0]), box_muller(u1[1], u2[1])].map(f64::to_bits);
        assert_eq!(pair, singles, "u1 = {u1:?}, u2 = {u2:?}");
        assert_eq!(
            cos_turns2(u2).map(f64::to_bits),
            u2.map(|u| cos_turns(u).to_bits()),
            "u2 = {u2:?}"
        );
    }

    #[test]
    fn paired_kernel_is_bit_identical_over_a_million_pairs() {
        let mut us = uniforms(4);
        let mut u = || us.next().unwrap();
        for _ in 0..1_000_000 {
            let u1 = [u().max(U1_MIN), u().max(U1_MIN)];
            assert_pair_is_two_singles(u1, [u(), u()]);
        }
    }

    #[test]
    fn paired_kernel_is_bit_identical_at_eighth_turns_and_u1_ends() {
        // Every eighth turn and its neighbours (the quadrant switches and
        // the kernel-range edges), in both lanes, against both ends of u₁.
        let mut u2s = Vec::new();
        for i in 0..=8 {
            let bits = (i as f64 / 8.0).to_bits();
            for b in [bits.saturating_sub(1), bits, bits + 1] {
                let u = f64::from_bits(b);
                if (0.0..=1.0).contains(&u) {
                    u2s.push(u);
                }
            }
        }
        for &a in &u2s {
            for &b in &u2s {
                for u1 in [[U1_MIN, 1.0], [1.0, U1_MIN], [U1_MIN; 2], [1.0; 2]] {
                    assert_pair_is_two_singles(u1, [a, b]);
                }
            }
        }
    }

    #[test]
    fn box_muller_matches_the_textbook_formula() {
        let mut us = uniforms(2);
        for _ in 0..200_000 {
            let u1 = us.next().unwrap().max(1e-12);
            let u2 = us.next().unwrap();
            let radius = (-2.0 * u1.ln()).sqrt();
            let textbook = radius * (TAU * u2).cos();
            let d = (box_muller(u1, u2) - textbook).abs();
            assert!(
                d <= 1e-15 * radius.max(1.0),
                "u = ({u1}, {u2}): |Δ| = {d:e}"
            );
        }
    }
}
