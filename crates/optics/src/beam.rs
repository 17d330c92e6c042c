//! Gaussian-beam geometry.
//!
//! §5.1 compares two link designs: a **collimated** beam (near-zero
//! divergence, width set by a beam expander) and a **diverging** beam whose
//! divergence is tuned with an adjustable collimator so the beam reaches a
//! chosen diameter (16–20 mm) at the receiver. [`BeamState`] models both with
//! one parameterization: a chief ray, a waist radius/offset, and a
//! half-divergence angle.

use cyclops_geom::{Ray, Vec3};

/// A propagating quasi-Gaussian beam.
///
/// The intensity profile is Gaussian with 1/e² radius following the
/// hyperbola `w(z) = sqrt(w_waist² + (θ·(z − z_waist))²)`, where `z` is the
/// distance along the chief ray from its origin and `z_waist = −waist_back`
/// (the waist sits `waist_back` metres *behind* the current chief-ray
/// origin). The *virtual source* is the point the far-field rays appear to
/// emanate from; for a collimated beam it recedes to infinity. The
/// source-distance distinction drives the Table-1 asymmetry between TX and
/// RX angular tolerance (see [`crate::coupling`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeamState {
    /// Chief ray: current reference point and propagation direction.
    pub chief: Ray,
    /// 1/e² intensity radius at the waist (metres).
    pub waist_radius: f64,
    /// Half-divergence angle (radians).
    pub theta_half: f64,
    /// Path distance from the chief-ray origin *back* to the waist (metres,
    /// ≥ 0). Zero for a freshly launched beam.
    pub waist_back: f64,
    /// Total optical power carried by the beam, in dBm.
    pub power_dbm: f64,
}

impl BeamState {
    /// Creates a freshly launched beam: waist at the chief-ray origin.
    pub fn new(chief: Ray, waist_radius: f64, theta_half: f64, power_dbm: f64) -> BeamState {
        assert!(waist_radius > 0.0, "beam must have positive waist radius");
        assert!(theta_half >= 0.0, "divergence cannot be negative");
        BeamState {
            chief,
            waist_radius,
            theta_half,
            waist_back: 0.0,
            power_dbm,
        }
    }

    /// 1/e² radius after travelling distance `d` beyond the chief-ray origin.
    #[inline]
    pub fn radius_at(&self, d: f64) -> f64 {
        let z = d + self.waist_back;
        (self.waist_radius * self.waist_radius + (self.theta_half * z) * (self.theta_half * z))
            .sqrt()
    }

    /// The virtual source point: where backwards-extrapolated far-field rays
    /// converge — at `w_waist/θ` behind the waist.
    ///
    /// `None` for a (near-)collimated beam; callers should use
    /// [`BeamState::local_ray_dir`], which handles that limit.
    pub fn virtual_source(&self) -> Option<Vec3> {
        if self.theta_half < 1e-9 {
            return None;
        }
        let behind = self.waist_back + self.waist_radius / self.theta_half;
        Some(self.chief.origin - self.chief.dir * behind)
    }

    /// Direction of the local ray passing through point `p` — the direction
    /// light actually travels at `p`.
    pub fn local_ray_dir(&self, p: Vec3) -> Vec3 {
        match self.virtual_source() {
            Some(src) => (p - src).normalized(),
            None => self.chief.dir,
        }
    }
}

/// `1.0 / k as f64` for `k < 32` (entry 0 unused): the same correctly
/// rounded quotients [`capture_fraction`]'s series divides out per term,
/// read instead of divided for the first terms, which cover the tracked
/// link (~10 terms).
const INV_K: [f64; 32] = {
    let mut t = [0.0; 32];
    let mut k = 1;
    while k < t.len() {
        t[k] = 1.0 / k as f64;
        k += 1;
    }
    t
};

/// Fraction of a Gaussian beam's power (1/e² radius `w`) passing through a
/// circular aperture of radius `a` whose centre is offset laterally by
/// `delta` from the beam centre.
///
/// The offset disk integral has a closed form in the first-order Marcum Q
/// function: with σ = w/2 per axis the capture is the probability that a
/// Rician radius stays inside the aperture, `P = 1 − Q₁(2δ/w, 2a/w)`
/// (Gil, Segura & Temme, ACM TOMS 2014). For `delta = 0` it is the analytic
/// `1 − exp(−2a²/w²)`. The aperture radius must be finite.
pub fn capture_fraction(w: f64, delta: f64, a: f64) -> f64 {
    assert!(w > 0.0 && a >= 0.0 && a.is_finite() && delta >= 0.0);
    if a == 0.0 {
        return 0.0;
    }
    if delta < 0.02 * w {
        // Sub-2 % offsets: centred closed form plus the analytic O(δ²) term
        //   P(δ) ≈ (1 − E) − 4 δ² a² E / w⁴,   E = e^(−2a²/w²),
        // the first two terms of the series below in λ = 2δ²/w². The next
        // term, λ²·xE(1 − x/2)/2 with x = 2a²/w², is ≤ 1e-7 at the boundary,
        // so capture stays monotone in offset across the switch to 1e-7.
        // Exactly monotone in `a`: the correction's slope in `a` is at most
        // (δ/w)² ≪ 1 of the leading term's. Tracked links sit at δ/w ≈ 0.075,
        // so only ~2 % of live power evaluations land here.
        let e = (-2.0 * a * a / (w * w)).exp();
        return 1.0 - e - 4.0 * delta * delta * a * a * e / (w * w * w * w);
    }
    // Nothing measurable couples this far into the tail (P < e⁻¹²⁸).
    if delta > 8.0 * w + a {
        return 0.0;
    }
    // 1 − Q₁ as the Poisson mixture of the non-central χ²₂ distribution,
    // with λ = 2δ²/w² and x = 2a²/w²:
    //   P = e^(−λ−x) Σ_{k≥1} (x^k/k!) · S_{k−1}(λ),   S_m(λ) = Σ_{n≤m} λⁿ/n!.
    // Every term is positive, so there is no cancellation: the relative
    // error stays near rounding level (the tests see ≤ 2e-13). The
    // terms are log-concave in k, so once t_k < t_{k−1} the remaining tail is
    // below t_k·r/(1 − r) with r = t_k/t_{k−1}; the sum stops when that bound
    // drops under EPS of it (~10 terms at the tracked δ/w ≈ 0.075). x^k/k!
    // and S grow to e^x and e^λ (λ + x reaches ~10⁴ at large a/w), so each
    // is rescaled by 2⁻²⁰⁰ when it passes 2²⁰⁰ and the scale is carried in
    // log space: only the final exp can underflow, and only where P itself
    // is below the f64 range.
    const BIG: f64 = 1.606_938_044_258_990_3e60; // 2²⁰⁰
    const SMALL: f64 = 6.223_015_277_861_142e-61; // 2⁻²⁰⁰
    const EPS: f64 = f64::EPSILON / 8.0;
    let (lam, x) = (2.0 * delta * delta / (w * w), 2.0 * a * a / (w * w));
    // At term k: p = x^k/k!, q = λ^(k−1)/(k−1)!, s = S_{k−1}(λ); sum and
    // prev carry the same 2⁻²⁰⁰ factors as the terms they hold.
    let (mut p, mut q, mut s) = (1.0, 1.0, 1.0);
    let (mut sum, mut prev, mut k, mut rescales) = (0.0, 0.0, 0usize, 0u32);
    loop {
        k += 1;
        let inv_k = match INV_K.get(k) {
            Some(&r) => r,
            None => 1.0 / k as f64,
        };
        p *= x * inv_k;
        let t = p * s;
        sum += t;
        if t <= prev && t * t <= EPS * (prev - t) * sum {
            break;
        }
        prev = t;
        q *= lam * inv_k;
        s += q;
        if p > BIG {
            (p, sum, prev, rescales) = (p * SMALL, sum * SMALL, prev * SMALL, rescales + 1);
        }
        if s > BIG {
            (q, s, sum, prev, rescales) = (
                q * SMALL,
                s * SMALL,
                sum * SMALL,
                prev * SMALL,
                rescales + 1,
            );
        }
    }
    let log_scale = f64::from(rescales) * 200.0 * std::f64::consts::LN_2;
    (sum.ln() + log_scale - lam - x).exp().min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclops_geom::vec3::v3;

    fn test_beam(theta: f64) -> BeamState {
        BeamState::new(Ray::new(Vec3::ZERO, Vec3::Z), 0.005, theta, 20.0)
    }

    #[test]
    fn radius_grows_with_divergence() {
        let b = test_beam(0.003); // ~3 mrad half divergence
        assert!((b.radius_at(0.0) - 0.005).abs() < 1e-12);
        let w = b.radius_at(1.75);
        // sqrt(5mm² + 5.25mm²) ≈ 7.25 mm
        assert!((w - (0.005f64.powi(2) + 0.00525f64.powi(2)).sqrt()).abs() < 1e-12);
        // Collimated beam barely grows.
        let c = test_beam(1e-5);
        assert!(c.radius_at(2.0) < 0.0051);
    }

    #[test]
    fn virtual_source_position() {
        let b = test_beam(0.005); // w/θ = 1 m behind launch
        let src = b.virtual_source().unwrap();
        assert!((src - v3(0.0, 0.0, -1.0)).norm() < 1e-12);
        assert!(test_beam(0.0).virtual_source().is_none());
    }

    #[test]
    fn local_ray_dir_diverging_vs_collimated() {
        let b = test_beam(0.005);
        // Ray through a point 10 cm off axis at z = 1 m tilts outwards.
        let dir = b.local_ray_dir(v3(0.1, 0.0, 1.0));
        assert!(dir.x > 0.0);
        // Collimated: always the chief direction.
        let c = test_beam(0.0);
        assert_eq!(c.local_ray_dir(v3(0.1, 0.0, 1.0)), Vec3::Z);
    }

    #[test]
    fn capture_centered_matches_closed_form() {
        for (w, a) in [(0.01, 0.005), (0.008, 0.008), (0.02, 0.004)] {
            let got = capture_fraction(w, 0.0, a);
            let expect = 1.0 - (-2.0 * a * a / (w * w)).exp();
            assert!((got - expect).abs() < 1e-9, "w={w} a={a}");
        }
    }

    #[test]
    fn capture_offset_matches_integral_properties() {
        let w = 0.01;
        let a = 0.005;
        let c0 = capture_fraction(w, 0.0, a);
        let c1 = capture_fraction(w, 0.005, a);
        let c2 = capture_fraction(w, 0.015, a);
        // Monotone decreasing in offset.
        assert!(c0 > c1 && c1 > c2);
        // Far tail is nearly zero.
        assert!(capture_fraction(w, 0.1, a) < 1e-12);
        // All within [0, 1].
        for c in [c0, c1, c2] {
            assert!((0.0..=1.0).contains(&c));
        }
    }

    #[test]
    fn capture_offset_numerical_accuracy() {
        // Cross-check against a brute-force Cartesian integration.
        let (w, delta, a) = (0.01, 0.006, 0.005);
        let n = 400;
        let mut sum = 0.0;
        let h = 2.0 * a / n as f64;
        for i in 0..n {
            for j in 0..n {
                let x = -a + (i as f64 + 0.5) * h;
                let y = -a + (j as f64 + 0.5) * h;
                if x * x + y * y <= a * a {
                    let r2 = (x + delta) * (x + delta) + y * y;
                    sum += (-2.0 * r2 / (w * w)).exp();
                }
            }
        }
        let brute = 2.0 / (std::f64::consts::PI * w * w) * sum * h * h;
        let fast = capture_fraction(w, delta, a);
        assert!((fast - brute).abs() < 2e-3, "fast {fast} brute {brute}");
    }

    /// e⁻ᶻ I₀(z) from its power series (z ≤ 30) or its large-argument
    /// expansion (z > 30), each summed until a term is below 1e-17 of the sum.
    fn i0_scaled_reference(z: f64) -> f64 {
        let (mut term, mut sum, mut k) = (1.0f64, 1.0f64, 0.0);
        if z <= 30.0 {
            while term > 1e-17 * sum {
                k += 1.0;
                term *= (0.5 * z / k).powi(2);
                sum += term;
            }
            sum * (-z).exp()
        } else {
            // Σ [(2k−1)!!]² / (k!·(8z)^k): its terms shrink until k ≈ 2z.
            while term > 1e-17 * sum {
                k += 1.0;
                term *= (2.0 * k - 1.0).powi(2) / (8.0 * z * k);
                sum += term;
            }
            sum / (2.0 * std::f64::consts::PI * z).sqrt()
        }
    }

    /// Independent high-resolution capture: the aperture-centred radial
    /// integral with the ring average in closed form,
    ///   P = (4/w²) ∫₀^a ρ · exp(−2(ρ−δ)²/w²) · e⁻ᶻI₀(z) dρ,   z = 4ρδ/w²,
    /// by four-point Gauss–Legendre on ≥ 8192 cells no wider than w/1024.
    fn capture_reference(w: f64, delta: f64, a: f64) -> f64 {
        const GL4: [(f64, f64); 4] = [
            (-0.861_136_311_594_052_6, 0.347_854_845_137_453_9),
            (-0.339_981_043_584_856_3, 0.652_145_154_862_546_1),
            (0.339_981_043_584_856_3, 0.652_145_154_862_546_1),
            (0.861_136_311_594_052_6, 0.347_854_845_137_453_9),
        ];
        let n = ((1024.0 * a / w).ceil() as usize).max(8192);
        let h = a / n as f64;
        let mut sum = 0.0;
        for i in 0..n {
            let mid = (i as f64 + 0.5) * h;
            for (node, weight) in GL4 {
                let rho = mid + 0.5 * h * node;
                let g = rho - delta;
                sum += weight
                    * rho
                    * (-2.0 * g * g / (w * w)).exp()
                    * i0_scaled_reference(4.0 * rho * delta / (w * w));
            }
        }
        2.0 * h / (w * w) * sum
    }

    /// Relative error ≤ 1e-9 against the reference wherever the capture is
    /// ≥ 1e-12, absolute ≤ 1e-12 below, over w ∈ [1, 50] mm, a ∈ [0.1, 20]
    /// mm and δ from 0.02w (below it the O(δ²) closed form applies) to just
    /// inside the 8w + a cut.
    #[test]
    fn capture_matches_high_resolution_reference() {
        for w in [1e-3, 2.5e-3, 7e-3, 18.5e-3, 50e-3] {
            for a in [0.1e-3, 1e-3, 5e-3, 20e-3] {
                let edge = 8.0 * w + a;
                for delta in [
                    0.02 * w,
                    0.075 * w,
                    0.5 * w,
                    2.0 * w,
                    a,
                    3.0 * w + a,
                    edge * (1.0 - 1e-9),
                ]
                .into_iter()
                .filter(|&d| d >= 0.02 * w)
                {
                    let got = capture_fraction(w, delta, a);
                    let want = capture_reference(w, delta, a);
                    let err = (got - want).abs();
                    let ok = if want >= 1e-12 {
                        err <= 1e-9 * want
                    } else {
                        err <= 1e-12
                    };
                    assert!(ok, "w={w} a={a} δ={delta}: {got} vs reference {want}");
                }
            }
        }
    }

    /// The tail bound the monitor's cannot-win bound rests on: a disk
    /// whose edge lies `δ − a ≥ 0` beyond the beam centre lies inside a
    /// half-plane that far away, whose share of a Gaussian beam is
    /// `½·erfc(√2·(δ − a)/w) ≤ ½·exp(−2(δ − a)²/w²)`. Checked, with a 1e-12
    /// relative slack for the computed capture, wherever `δ ≥ a` on
    /// [`capture_matches_high_resolution_reference`]'s grid, from the
    /// `δ < 0.02w` closed form to either side of the `8w + a` cut.
    #[test]
    fn capture_is_below_the_half_plane_tail_bound() {
        let mut closed_form = 0;
        for w in [1e-3, 2.5e-3, 7e-3, 18.5e-3, 50e-3] {
            for a in [0.1e-3, 1e-3, 5e-3, 20e-3] {
                let edge = 8.0 * w + a;
                for delta in [
                    a,
                    0.01 * w,
                    0.015 * w,
                    0.02 * w,
                    0.075 * w,
                    0.5 * w,
                    2.0 * w,
                    a + 0.5 * w,
                    a + w,
                    3.0 * w + a,
                    edge * (1.0 - 1e-9),
                    edge,
                    edge * (1.0 + 1e-9),
                ]
                .into_iter()
                .filter(|&d| d >= a)
                {
                    closed_form += usize::from(delta < 0.02 * w);
                    let got = capture_fraction(w, delta, a);
                    let t = delta - a;
                    let bound = 0.5 * (-2.0 * t * t / (w * w)).exp();
                    assert!(
                        got <= bound * (1.0 + 1e-12),
                        "w={w} a={a} δ={delta}: {got} > {bound}"
                    );
                }
            }
        }
        assert!(closed_form >= 4, "{closed_form} closed-form cases");
    }

    #[test]
    fn capture_extremes_are_finite_and_resolved() {
        assert_eq!(capture_fraction(0.01, 0.003, 0.0), 0.0);
        // (w, a, δ): x = 2a²/w² = 800 from near-centred to the 8w + a cut
        // (λ = 2δ²/w² = 1568 there); λ = 131 with a tiny aperture; and
        // λ ≈ 9.2e3, x = 7.2e3 at the widest aperture the cross-crate
        // proptest draws.
        let inside = 1.0 - 1e-9;
        for (w, a, delta) in [
            (1e-3, 20e-3, 0.02e-3),
            (1e-3, 20e-3, 20e-3),
            (1e-3, 20e-3, 28e-3 * inside),
            (1e-3, 0.1e-3, 8.1e-3 * inside),
            (1e-3, 60e-3, 68e-3 * inside),
        ] {
            let got = capture_fraction(w, delta, a);
            let want = capture_reference(w, delta, a);
            assert!((0.0..=1.0).contains(&got), "w={w} a={a} δ={delta}: {got}");
            assert!(want >= 1e-300 && got > 0.0, "underflow: {got} vs {want}");
            assert!((got - want).abs() <= 1e-9 * want, "{got} vs {want}");
        }
    }

    #[test]
    fn inv_k_table_holds_the_runtime_quotients() {
        for (k, &r) in INV_K.iter().enumerate().skip(1) {
            let k = std::hint::black_box(k as f64);
            assert_eq!(r.to_bits(), (1.0 / k).to_bits(), "k = {k}");
        }
    }

    #[test]
    fn wider_beam_captures_less() {
        let a = 0.005;
        let narrow = capture_fraction(0.008, 0.0, a);
        let wide = capture_fraction(0.02, 0.0, a);
        assert!(narrow > wide);
    }
}
