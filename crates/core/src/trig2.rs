//! Bounds on a trigonometric polynomial of degree 2 over an interval.
//!
//! Along a coarse-sweep row only the galvo's second mirror turns, by an
//! angle `α`, so the row's noiseless output direction is a trigonometric
//! polynomial of degree 2 in `α`, and so is its dot product with any fixed
//! vector (DESIGN.md §8, "row bound"). [`Trig2::extremes`] bounds such a
//! polynomial over the row's [`Span`] in closed form, with square roots as
//! its only library calls.

/// The values a [`Trig2`] is evaluated from at one angle `α`:
/// `(cos α, sin α, cos 2α, sin 2α)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Turns([f64; 4]);

impl Turns {
    /// The turns of `α`.
    pub(crate) fn of(alpha: f64) -> Turns {
        Turns::from_sin_cos(alpha.sin_cos())
    }

    /// The turns of the angle whose `(sin, cos)` is `(s, c)`.
    fn from_sin_cos((s, c): (f64, f64)) -> Turns {
        Turns([c, s, c * c - s * s, 2.0 * s * c])
    }
}

/// The widest half-span (rad) [`Trig2::extremes`] analyses: its crest and
/// trough windows (at most 0.27 rad wide each side) then meet the span at
/// most once each. A wider span gets the bounds `c₀ ∓ (A₁ + A₂)`.
const NARROW_HALF_SPAN: f64 = 0.5;

/// The angles `[lo, hi]` of a row's columns, with what [`Trig2::extremes`]
/// needs of them: the turns of both ends and of the centre, and the cosine
/// and sine of the half-width.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    ends: [Turns; 2],
    centre: Turns,
    cos_half: f64,
    sin_half: f64,
    narrow: bool,
}

impl Span {
    /// The span `[lo, hi]`.
    pub(crate) fn new(lo: f64, hi: f64) -> Span {
        let half = 0.5 * (hi - lo);
        let (sin_half, cos_half) = half.sin_cos();
        Span {
            ends: [Turns::of(lo), Turns::of(hi)],
            centre: Turns::of(lo + half),
            cos_half,
            sin_half,
            narrow: (0.0..=NARROW_HALF_SPAN).contains(&half),
        }
    }
}

/// `f(α) = c₀ + c₁·cos α + c₂·sin α + c₃·cos 2α + c₄·sin 2α`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Trig2(pub(crate) [f64; 5]);

/// Where a [`Trig2`]'s critical points lie relative to a [`Span`]: its
/// second harmonic's crest nearest the span's centre, at offset `t` from
/// it (`cos 2t`, `sin 2t`; `|t| ≤ π/2`), the half-width `w` of the windows
/// around each crest and trough that hold every critical point, and the
/// curvature bound `m` inside them ([`Trig2::harmonic`]).
struct Harmonic {
    cos_2t: f64,
    sin_2t: f64,
    w: f64,
    m: f64,
}

impl Trig2 {
    /// `f` at the angle whose turns are `t`.
    #[inline]
    pub(crate) fn at(&self, t: &Turns) -> f64 {
        let [c0, c1, c2, c3, c4] = self.0;
        let [cos1, sin1, cos2, sin2] = t.0;
        c0 + (c1 * cos1 + c2 * sin1) + (c3 * cos2 + c4 * sin2)
    }

    /// `f′` at the angle whose turns are `t`.
    #[inline]
    pub(crate) fn slope(&self, t: &Turns) -> f64 {
        let [_, c1, c2, c3, c4] = self.0;
        let [cos1, sin1, cos2, sin2] = t.0;
        c2 * cos1 - c1 * sin1 + 2.0 * (c4 * cos2 - c3 * sin2)
    }

    /// The amplitudes `A₁ = |(c₁, c₂)|` and `A₂ = |(c₃, c₄)|` of the two
    /// harmonics.
    fn amplitudes(&self) -> (f64, f64) {
        let [_, c1, c2, c3, c4] = self.0;
        ((c1 * c1 + c2 * c2).sqrt(), (c3 * c3 + c4 * c4).sqrt())
    }

    /// Write the second harmonic as `A₂·cos(2α − ψ)`. Then
    /// `f′ = −2A₂·sin(2α − ψ) + g′` with `|g′| ≤ A₁`, so every critical
    /// point has `|sin(2α − ψ)| ≤ r = A₁/(2A₂)`: for `r ≤ ½` it lies within
    /// `asin(r)/2 ≤ 0.5236·r` of a crest (`2α = ψ`) or a trough
    /// (`2α = ψ + π`). The windows are `w = 0.53·r + 1e-6` wide each side,
    /// the extra covering the rounding of the crest. In them
    /// `f″ = −4A₂·cos(2α − ψ) − g` with `|g| ≤ A₁` is at most
    /// `−m = −(4A₂·(1 − 2w²) − A₁) < 0` near a crest and at least `m` near
    /// a trough. `None` unless `r ≤ ½` and the span is narrow.
    fn harmonic(&self, span: &Span, (a1, a2): (f64, f64)) -> Option<Harmonic> {
        if !(a1 <= a2 && a2 > 0.0 && span.narrow) {
            return None;
        }
        let [_, _, _, c3, c4] = self.0;
        let [_, _, cos2, sin2] = span.centre.0;
        let w = 0.53 * (0.5 * a1 / a2) + 1e-6;
        // `(cos 2t, sin 2t)` for the crest `2α = ψ` at `α = centre + t`.
        Some(Harmonic {
            cos_2t: (c3 * cos2 + c4 * sin2) / a2,
            sin_2t: (c4 * cos2 - c3 * sin2) / a2,
            w,
            m: 4.0 * a2 * (1.0 - 2.0 * w * w) - a1,
        })
    }

    /// Bounds `(lower, upper)` of `f` over `span`, exact but for rounding
    /// (a caller adds its own slack).
    ///
    /// An interior maximum of `f` lies in a crest window ([`Harmonic`]),
    /// where `f ≤ f(x₀) + f′(x₀)²/(2m)` at the crest `x₀`. Only the crest
    /// nearest the span's centre can meet a narrow span: if it lies within
    /// `h + w` of the centre (`h` the half-span), which
    /// `cos t ≥ cos h·(1 − w²/2) − sin h·w` covers, its bound joins the two
    /// ends'. The minimum is the maximum of `−f`, whose crests are `f`'s
    /// troughs: `(cos 2t, sin 2t)` negated. Without the windows the bounds
    /// are `c₀ ∓ (A₁ + A₂)`, which also cap them.
    pub(crate) fn extremes(&self, span: &Span) -> (f64, f64) {
        let (a1, a2) = self.amplitudes();
        let crude = (self.0[0] - (a1 + a2), self.0[0] + (a1 + a2));
        let Some(Harmonic {
            cos_2t,
            sin_2t,
            w,
            m,
        }) = self.harmonic(span, (a1, a2))
        else {
            return crude;
        };
        let ends = [self.at(&span.ends[0]), self.at(&span.ends[1])];
        let (mut lo, mut hi) = (ends[0].min(ends[1]), ends[0].max(ends[1]));
        let reach = span.cos_half * (1.0 - 0.5 * w * w) - span.sin_half * w - 1e-12;
        let [cos_c, sin_c, _, _] = span.centre.0;
        for sign in [1.0, -1.0] {
            let cos_t = (0.5 * (1.0 + sign * cos_2t)).max(0.0).sqrt();
            if cos_t < reach {
                continue;
            }
            // `cos t ≥ 0.7` here, so `sin t = sin 2t/(2 cos t)` is accurate.
            let sin_t = sign * sin_2t / (2.0 * cos_t);
            let x0 =
                Turns::from_sin_cos((sin_c * cos_t + cos_c * sin_t, cos_c * cos_t - sin_c * sin_t));
            let d1 = self.slope(&x0);
            let rise = d1 * d1 / (2.0 * m);
            if sign > 0.0 {
                hi = hi.max(self.at(&x0) + rise);
            } else {
                lo = lo.min(self.at(&x0) - rise);
            }
        }
        (lo.max(crude.0), hi.min(crude.1))
    }

    /// Whether `f` provably rises and then falls over `span` (either part
    /// may be empty): no trough window meets it, so `f′` changes sign at
    /// most once, from `+` to `−` ([`Trig2::extremes`]). The trough nearest
    /// the centre lies `π/2 − |t|` from it, beyond `h + w` when
    /// `cos t > sin(h + w)`, which `cos t > sin h + w` covers.
    pub(crate) fn rises_then_falls(&self, span: &Span) -> bool {
        self.harmonic(span, self.amplitudes()).is_some_and(|h| {
            let cos_t = (0.5 * (1.0 + h.cos_2t)).max(0.0).sqrt();
            cos_t > span.sin_half + h.w + 1e-12
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn neg(f: &Trig2) -> Trig2 {
        Trig2(f.0.map(|c| -c))
    }

    /// `f` on a fine grid of `[lo, hi]`: its largest value, and the grid
    /// step's bound on how far the true maximum can lie above it.
    fn sampled_max(f: &Trig2, lo: f64, hi: f64) -> (f64, f64) {
        const N: usize = 20_000;
        let step = (hi - lo) / N as f64;
        let (a1, a2) = f.amplitudes();
        let best = (0..=N)
            .map(|k| f.at(&Turns::of(lo + k as f64 * step)))
            .fold(f64::NEG_INFINITY, f64::max);
        // Between grid points f is within |f″|·step²/8 of its chord.
        (best, (a1 + 4.0 * a2) * step * step / 8.0)
    }

    /// Whether `f` rises and then falls over `[lo, hi]` on a fine grid.
    fn sampled_unimodal(f: &Trig2, lo: f64, hi: f64) -> bool {
        const N: usize = 4_000;
        let values: Vec<f64> = (0..=N)
            .map(|k| f.at(&Turns::of(lo + (hi - lo) * k as f64 / N as f64)))
            .collect();
        let peak = values.windows(2).take_while(|w| w[1] >= w[0]).count();
        values[peak..].windows(2).all(|w| w[1] <= w[0])
    }

    #[test]
    fn bounds_hold_and_are_tight_on_random_polynomials() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut tight = 0;
        for case in 0..2000 {
            // Harmonic ratios from sinusoid-like (A₁ ≪ A₂) to the crude case.
            let a1_scale = [1e-3, 1e-2, 0.1, 0.5, 2.0][case % 5];
            let c = Trig2([
                rng.gen_range(-1.0..1.0),
                a1_scale * rng.gen_range(-1.0..1.0),
                a1_scale * rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            ]);
            // Spans from a point to beyond the narrow limit, anywhere.
            let lo = rng.gen_range(-4.0..4.0);
            let hi = lo + rng.gen_range(0.0..1.2);
            let span = Span::new(lo, hi);
            let (min, max) = c.extremes(&span);
            for (f, bound) in [(c, max), (neg(&c), -min)] {
                let (sampled, gap) = sampled_max(&f, lo, hi);
                assert!(bound >= sampled - 1e-12, "case {case}: {bound} < {sampled}");
                let (a1, a2) = f.amplitudes();
                if a1 <= 0.1 * a2 && span.narrow {
                    // The crest bound exceeds the crest's own value by at
                    // most A₁²/(2m), and a crest up to w outside the span
                    // lies at most about 8A₂w² above its nearer end.
                    let slack = a1 * a1 / a2;
                    assert!(
                        bound <= sampled + gap + slack + 1e-14,
                        "case {case}: {bound} vs {sampled}"
                    );
                    tight += 1;
                }
                let (a1, a2) = f.amplitudes();
                assert!(bound <= f.0[0] + (a1 + a2), "case {case}");
            }
            if c.rises_then_falls(&span) {
                assert!(sampled_unimodal(&c, lo, hi), "case {case}");
            }
        }
        assert!(tight > 300, "only {tight} tight cases");
    }

    #[test]
    fn a_crest_inside_the_span_is_found() {
        // cos 2(α − 0.3) + 0.01·sin α peaks near α = 0.3, inside [0, 0.8].
        let psi = 0.6f64;
        let f = Trig2([0.0, 0.0, 0.01, psi.cos(), psi.sin()]);
        let span = Span::new(0.0, 0.8);
        let bound = f.extremes(&span).1;
        let (sampled, gap) = sampled_max(&f, 0.0, 0.8);
        // The crest's curvature bound, 4A₂(1 − 2w²) − A₁ for −f″ ≈ 4A₂,
        // overstates the crest's rise of ~1e-5 by about 0.3 %.
        assert!(
            bound >= sampled && bound - sampled < gap + 1e-7,
            "{bound} vs {sampled}"
        );
        assert!(bound > f.at(&span.ends[0]).max(f.at(&span.ends[1])) + 0.1);
        assert!(f.rises_then_falls(&span));
        // Around a trough, it does not.
        assert!(!neg(&f).rises_then_falls(&span));
    }
}
