//! Two-mirror galvanometer (GM) geometry and hardware simulation.
//!
//! This module plays **two roles**, with one shared geometry:
//!
//! 1. [`GalvoParams`] is the parameterized beam-path expression of the
//!    paper's §4.1(A): input beam `(p₀, x̂₀)`, per-mirror `(n̂ᵢ, qᵢ, r̂ᵢ)`, and
//!    the voltage-to-angle gain `θ₁`. `cyclops-core` *fits* an instance of
//!    this struct from training samples — that fitted instance is the model
//!    `G`.
//! 2. [`GalvoSim`] wraps a (hidden, "true") `GalvoParams` with the
//!    non-idealities of the bench hardware (ThorLabs GVS102 \[36\]): 16-bit
//!    DAC quantization, ~10 µrad angular noise, and the ~300 µs small-angle
//!    settle latency the paper quotes. The learning pipeline only ever sees
//!    `GalvoSim` outputs, exactly as the authors only ever saw their real
//!    galvos.
//!
//! The beam-path math is verbatim from the paper:
//!
//! ```text
//! n̂₁' = R(r̂₁, θ₁·v₁)·n̂₁          n̂₂' = R(r̂₂, θ₁·v₂)·n̂₂
//! (p_mid, x̂_mid) = R(p₀, x̂₀, n̂₁', q₁)
//! (p, x̂)         = R(p_mid, x̂_mid, n̂₂', q₂)
//! ```

use cyclops_geom::noise::{box_muller2, MAX_DEVIATE, U1_MIN};
use cyclops_geom::plane::Plane;
use cyclops_geom::pose::Pose;
use cyclops_geom::ray::Ray;
use cyclops_geom::reflect::{reflect_dir, reflect_ray};
use cyclops_geom::rotation::{axis_angle, axis_angle_sc, rotate_about};
use cyclops_geom::units::deg_to_rad;
use cyclops_geom::vec3::{v3, Vec3};
use rand::Rng;

/// Voltage limits of the galvo driver (±10 V, the GVS102 command range).
pub const VOLT_MIN: f64 = -10.0;

/// DAC quantization step: the USB-1608G's 16 bits over the ±10 V range.
/// This is the "minimum GM voltage step" the paper uses as the pointing
/// iteration's convergence threshold.
pub const DAC_STEP_V: f64 = 20.0 / 65536.0;
/// See [`VOLT_MIN`].
pub const VOLT_MAX: f64 = 10.0;

/// Number of free parameters in the flattened representation used by the
/// K-space fit: `p0`(3) `x0`(3) `n1`(3) `q1`(3) `r1`(3) `n2`(3) `q2`(3)
/// `r2`(3) `theta1`(1).
pub const N_PARAMS: usize = 25;

/// Typed failure modes of the galvo layer: [`check_volts`] returns them, and
/// the K-space fit propagates them instead of panicking.
///
/// The geometry itself does not fail: [`GalvoSim::command`] clamps
/// out-of-range voltages exactly like the real driver, and
/// [`GalvoParams::trace`] reports a degenerate path as `None` (the fit
/// treats it as a large residual).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GalvoError {
    /// A commanded voltage lies outside the ±10 V driver range (or is not
    /// finite).
    VoltageOutOfRange {
        /// Which mirror channel (1 or 2).
        mirror: u8,
        /// The offending voltage (volts).
        volts: f64,
    },
    /// The beam path degenerates: a reflection misses a mirror plane.
    DegenerateBeamPath,
}

impl std::fmt::Display for GalvoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GalvoError::VoltageOutOfRange { mirror, volts } => write!(
                f,
                "galvo mirror {mirror} commanded to {volts} V, outside \
                 [{VOLT_MIN}, {VOLT_MAX}] V"
            ),
            GalvoError::DegenerateBeamPath => {
                write!(
                    f,
                    "beam path degenerate: a reflection misses a mirror plane"
                )
            }
        }
    }
}

impl std::error::Error for GalvoError {}

/// Validates a voltage pair against the ±10 V driver range (NaN and
/// infinities are rejected too).
pub fn check_volts(v1: f64, v2: f64) -> Result<(), GalvoError> {
    for (mirror, volts) in [(1u8, v1), (2u8, v2)] {
        if !(VOLT_MIN..=VOLT_MAX).contains(&volts) {
            return Err(GalvoError::VoltageOutOfRange { mirror, volts });
        }
    }
    Ok(())
}

/// Geometric model of a galvo-mirror assembly (GMA): collimator launch beam
/// plus two voltage-steered mirrors. All points/directions are in whatever
/// frame the instance is expressed in (body frame, K-space or VR-space —
/// see [`GalvoParams::transformed`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GalvoParams {
    /// Input-beam originating point (from the collimator).
    pub p0: Vec3,
    /// Input-beam direction (normalized at use).
    pub x0: Vec3,
    /// First mirror: normal at zero voltage.
    pub n1: Vec3,
    /// First mirror: point on the mirror plane *and* its rotation axis.
    pub q1: Vec3,
    /// First mirror: rotation-axis direction.
    pub r1: Vec3,
    /// Second mirror: normal at zero voltage.
    pub n2: Vec3,
    /// Second mirror: point on the mirror plane and rotation axis.
    pub q2: Vec3,
    /// Second mirror: rotation-axis direction.
    pub r2: Vec3,
    /// Voltage-to-angle gain (radians of mirror rotation per volt); the paper
    /// observed this to be linear and shared by both mirrors.
    pub theta1: f64,
}

/// Precomputed normalized directions of a [`GalvoParams`]
/// ([`GalvoParams::axes`]): hoists the five `normalized()` calls (four
/// mirror axes/normals and the input beam) out of the per-voltage
/// beam-path math. Derived data — rebuild after any parameter change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GalvoAxes {
    /// `x0.normalized()`: the input beam's direction, as `Ray::new(p0, x0)`
    /// normalizes it.
    pub x0n: Vec3,
    /// `r1.normalized()`.
    pub r1n: Vec3,
    /// `n1.normalized()`.
    pub n1n: Vec3,
    /// `r2.normalized()`.
    pub r2n: Vec3,
    /// `n2.normalized()`.
    pub n2n: Vec3,
}

impl GalvoParams {
    /// Nominal ("CAD drawing") geometry of a GVS102-like assembly, in the
    /// assembly's body frame: input beam along +X at `x = −50 mm`, first
    /// mirror at the origin rotating about Z, second mirror 12 mm away along
    /// +Y rotating about X, output beam along +Z at rest.
    ///
    /// The voltage gain is 1.25° of mechanical rotation per volt, i.e. the
    /// full ±10 V range sweeps ±12.5° mechanical (±25° optical), matching the
    /// GVS102 data sheet.
    pub fn nominal() -> GalvoParams {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        GalvoParams {
            p0: v3(-0.05, 0.0, 0.0),
            x0: v3(1.0, 0.0, 0.0),
            n1: v3(-s, s, 0.0),
            q1: Vec3::ZERO,
            r1: v3(0.0, 0.0, 1.0),
            n2: v3(0.0, -s, s),
            q2: v3(0.0, 0.012, 0.0),
            r2: v3(1.0, 0.0, 0.0),
            theta1: deg_to_rad(1.25),
        }
    }

    /// A randomly perturbed copy — the "true" hardware that differs from the
    /// CAD nominal by assembly tolerances. Positions move by up to
    /// `pos_mm` millimetres per axis, directions tilt by up to `ang_deg`
    /// degrees, and the gain varies by up to `gain_frac` (fractional).
    pub fn perturbed<R: Rng>(
        &self,
        rng: &mut R,
        pos_mm: f64,
        ang_deg: f64,
        gain_frac: f64,
    ) -> GalvoParams {
        let jitter_p = |p: Vec3, rng: &mut R| {
            p + v3(
                rng.gen_range(-pos_mm..pos_mm) * 1e-3,
                rng.gen_range(-pos_mm..pos_mm) * 1e-3,
                rng.gen_range(-pos_mm..pos_mm) * 1e-3,
            )
        };
        let jitter_d = |d: Vec3, rng: &mut R| {
            let axis = v3(
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            );
            let axis = axis.try_normalized(1e-6).unwrap_or(Vec3::X);
            let ang = deg_to_rad(rng.gen_range(-ang_deg..ang_deg));
            axis_angle(axis, ang) * d.normalized()
        };
        GalvoParams {
            p0: jitter_p(self.p0, rng),
            x0: jitter_d(self.x0, rng),
            n1: jitter_d(self.n1, rng),
            q1: jitter_p(self.q1, rng),
            r1: jitter_d(self.r1, rng),
            n2: jitter_d(self.n2, rng),
            q2: jitter_p(self.q2, rng),
            r2: jitter_d(self.r2, rng),
            theta1: self.theta1 * (1.0 + rng.gen_range(-gain_frac..gain_frac)),
        }
    }

    /// The normalized input direction and mirror axes/normals, computed
    /// once. `trace` / `trace_line` / `second_mirror_plane` renormalize
    /// `x0/r1/n1/r2/n2` on every call; on fixed geometry (the per-slot
    /// simulation path) those calls are loop-invariant. The cache holds the
    /// exact outputs of the same `normalized()` calls, so tracing through
    /// it ([`GalvoParams::trace_with`]) is bit-identical to
    /// [`GalvoParams::trace`].
    pub fn axes(&self) -> GalvoAxes {
        GalvoAxes {
            x0n: self.x0.normalized(),
            r1n: self.r1.normalized(),
            n1n: self.n1.normalized(),
            r2n: self.r2.normalized(),
            n2n: self.n2.normalized(),
        }
    }

    /// Evaluates the GMA function `G(v₁, v₂) = (p, x̂)`: the output beam after
    /// both voltage-tilted reflections. `None` if the beam geometrically
    /// misses a mirror plane (possible for badly wrong parameter guesses
    /// during fitting — the fit treats that as a large residual).
    pub fn trace(&self, v1: f64, v2: f64) -> Option<Ray> {
        self.trace_with(&self.axes(), v1, v2)
    }

    /// [`GalvoParams::trace`] with the normalizations hoisted into a
    /// precomputed [`GalvoAxes`] — bit-identical, the per-voltage work is
    /// two axis-angle rotations and two reflections.
    #[inline]
    pub fn trace_with(&self, axes: &GalvoAxes, v1: f64, v2: f64) -> Option<Ray> {
        self.trace_tilted(
            axes,
            self.mirror1_normal(axes, v1),
            self.mirror2_normal(axes, v2),
        )
    }

    /// The input beam from the collimator, `Ray::new(p0, x0)`, with its
    /// direction read from `axes`.
    #[inline]
    fn input_ray(&self, axes: &GalvoAxes) -> Ray {
        Ray {
            origin: self.p0,
            dir: axes.x0n,
        }
    }

    /// The tilted first-mirror normal `n̂₁' = R(r̂₁, θ₁·v₁)·n̂₁`.
    #[inline]
    pub fn mirror1_normal(&self, axes: &GalvoAxes, v1: f64) -> Vec3 {
        self.mirror1_normal_sc(axes, (self.theta1 * v1).sin_cos())
    }

    /// The tilted second-mirror normal `n̂₂' = R(r̂₂, θ₁·v₂)·n̂₂`.
    #[inline]
    pub fn mirror2_normal(&self, axes: &GalvoAxes, v2: f64) -> Vec3 {
        self.mirror2_normal_sc(axes, (self.theta1 * v2).sin_cos())
    }

    /// [`GalvoParams::mirror1_normal`] from `(θ₁·v₁).sin_cos()`, already
    /// computed — bit-identical. A fit whose `θ₁` stays put computes each
    /// sample's sines once.
    #[inline]
    pub fn mirror1_normal_sc(&self, axes: &GalvoAxes, sc1: (f64, f64)) -> Vec3 {
        axis_angle_sc(axes.r1n, sc1) * axes.n1n
    }

    /// [`GalvoParams::mirror2_normal`] from `(θ₁·v₂).sin_cos()`, already
    /// computed — bit-identical.
    #[inline]
    pub fn mirror2_normal_sc(&self, axes: &GalvoAxes, sc2: (f64, f64)) -> Vec3 {
        axis_angle_sc(axes.r2n, sc2) * axes.n2n
    }

    /// The strict two-reflection path for already-tilted mirror normals:
    /// [`GalvoParams::mid_ray`], then [`GalvoParams::out_ray`].
    #[inline]
    fn trace_tilted(&self, axes: &GalvoAxes, n1p: Vec3, n2p: Vec3) -> Option<Ray> {
        self.out_ray(&self.mid_ray(axes, n1p)?, n2p)
    }

    /// First reflection of the strict path: the beam between the mirrors
    /// for the tilted first-mirror normal `n1p`. A sweep along `v₂` reuses
    /// it unchanged.
    #[inline]
    fn mid_ray(&self, axes: &GalvoAxes, n1p: Vec3) -> Option<Ray> {
        reflect_ray(&self.input_ray(axes), self.q1, n1p)
    }

    /// Second reflection of the strict path: the mid-mirror beam off the
    /// second mirror with tilted normal `n2p`.
    #[inline]
    pub fn out_ray(&self, mid: &Ray, n2p: Vec3) -> Option<Ray> {
        reflect_ray(mid, self.q2, n2p)
    }

    /// Like [`GalvoParams::trace`], but intersecting the mirror *lines*
    /// rather than forward rays.
    ///
    /// A **fitted** model (K-space learning, §4.1) reproduces the output
    /// beam lines of the hardware, but its internal layout is only
    /// determined up to gauge: the fitted `p₀/q₁/q₂` can imply reflections
    /// with negative path parameters at some voltages even though the
    /// resulting output line is correct. Computational consumers of a
    /// learned model (`G'`, the pointing iteration, the mapping residuals)
    /// must therefore use this total, smooth version; the strict
    /// [`GalvoParams::trace`] stays the physical ground-truth path used by
    /// the hardware simulation.
    pub fn trace_line(&self, v1: f64, v2: f64) -> Option<Ray> {
        self.trace_line_with(&self.axes(), v1, v2)
    }

    /// [`GalvoParams::trace_line`] with precomputed [`GalvoAxes`] —
    /// bit-identical (see [`GalvoParams::trace_with`]).
    #[inline]
    pub fn trace_line_with(&self, axes: &GalvoAxes, v1: f64, v2: f64) -> Option<Ray> {
        let mid = self.mid_line(axes, self.mirror1_normal(axes, v1))?;
        self.out_line(&mid, self.mirror2_normal(axes, v2))
    }

    /// [`GalvoParams::trace_line_with`] from `(θ₁·v₁).sin_cos()` and
    /// `(θ₁·v₂).sin_cos()`, already computed — bit-identical.
    #[inline]
    pub fn trace_line_sc(&self, axes: &GalvoAxes, sc1: (f64, f64), sc2: (f64, f64)) -> Option<Ray> {
        self.trace_line_tilted(
            axes,
            self.mirror1_normal_sc(axes, sc1),
            self.mirror2_normal_sc(axes, sc2),
        )
    }

    /// The line path for already-tilted mirror normals `n1p`, `n2p`:
    /// [`GalvoParams::mid_line`], then [`GalvoParams::out_line`].
    #[inline]
    pub fn trace_line_tilted(&self, axes: &GalvoAxes, n1p: Vec3, n2p: Vec3) -> Option<Ray> {
        self.out_line(&self.mid_line(axes, n1p)?, n2p)
    }

    /// First half of [`GalvoParams::trace_line_with`]: the beam between the
    /// mirrors for the tilted first-mirror normal `n1p`. A finite-difference
    /// step in `v₂` reuses it unchanged. (It keeps its own body rather than
    /// calling [`GalvoParams::mid_line_unit`]: the delegating form measured
    /// slower in the mapping fit, which traces through it.)
    #[inline]
    pub fn mid_line(&self, axes: &GalvoAxes, n1p: Vec3) -> Option<Ray> {
        let input = self.input_ray(axes);
        let (_, hit1) = Plane::new(self.q1, n1p).intersect_line(&input)?;
        Some(Ray::new(hit1, reflect_dir(input.dir, n1p)))
    }

    /// [`GalvoParams::mid_line`] with `n1u = n1p.normalized()`, the first
    /// mirror plane's unit normal, already computed — bit-identical.
    #[inline]
    pub fn mid_line_unit(&self, axes: &GalvoAxes, n1p: Vec3, n1u: Vec3) -> Option<Ray> {
        let hit1 = self.mirror1_hit(axes, n1u)?;
        Some(Ray::new(hit1, reflect_dir(axes.x0n, n1p)))
    }

    /// Where the input beam's line meets the first mirror's plane of unit
    /// normal `n1u`: the origin of [`GalvoParams::mid_line_unit`].
    #[inline]
    pub fn mirror1_hit(&self, axes: &GalvoAxes, n1u: Vec3) -> Option<Vec3> {
        line_hit(self.q1, n1u, &self.input_ray(axes))
    }

    /// Second half of [`GalvoParams::trace_line_with`]: reflects the
    /// mid-mirror beam off the second-mirror line with tilted normal `n2p`.
    #[inline]
    pub fn out_line(&self, mid: &Ray, n2p: Vec3) -> Option<Ray> {
        let (_, hit2) = Plane::new(self.q2, n2p).intersect_line(mid)?;
        Some(Ray::new(hit2, reflect_dir(mid.dir, n2p)))
    }

    /// [`GalvoParams::out_line`] with `n2u = n2p.normalized()`, the second
    /// mirror plane's unit normal, already computed — bit-identical.
    #[inline]
    pub fn out_line_unit(&self, mid: &Ray, n2p: Vec3, n2u: Vec3) -> Option<Ray> {
        let hit2 = self.mirror2_hit(mid, n2u)?;
        Some(Ray::new(hit2, reflect_dir(mid.dir, n2p)))
    }

    /// Where `mid`'s line meets the second mirror's plane of unit normal
    /// `n2u`: the origin of [`GalvoParams::out_line_unit`].
    #[inline]
    pub fn mirror2_hit(&self, mid: &Ray, n2u: Vec3) -> Option<Vec3> {
        line_hit(self.q2, n2u, mid)
    }

    /// The plane of the second mirror at voltage `v2`.
    ///
    /// The pointing mechanism (§4.3) computes the target point `τ` as the
    /// intersection of the far beam with the *other* GMA's second-mirror
    /// plane, so this is part of the public model surface.
    pub fn second_mirror_plane(&self, v2: f64) -> Plane {
        let n2p = axis_angle(self.r2.normalized(), self.theta1 * v2) * self.n2.normalized();
        Plane::new(self.q2, n2p)
    }

    /// Expresses the same physical assembly in another frame:
    /// points map as points, directions as directions.
    pub fn transformed(&self, pose: &Pose) -> GalvoParams {
        GalvoParams {
            p0: pose.apply_point(self.p0),
            x0: pose.apply_dir(self.x0),
            n1: pose.apply_dir(self.n1),
            q1: pose.apply_point(self.q1),
            r1: pose.apply_dir(self.r1),
            n2: pose.apply_dir(self.n2),
            q2: pose.apply_point(self.q2),
            r2: pose.apply_dir(self.r2),
            theta1: self.theta1,
        }
    }

    /// Flattens into the [`N_PARAMS`]-element vector the K-space fit
    /// optimizes over.
    pub fn to_vec(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(N_PARAMS);
        for p in [
            self.p0, self.x0, self.n1, self.q1, self.r1, self.n2, self.q2, self.r2,
        ] {
            v.extend_from_slice(&p.to_array());
        }
        v.push(self.theta1);
        v
    }

    /// Rebuilds from a flattened parameter vector (directions are
    /// re-normalized lazily inside [`GalvoParams::trace`]).
    pub fn from_vec(v: &[f64]) -> GalvoParams {
        assert_eq!(v.len(), N_PARAMS);
        let g = |i: usize| v3(v[3 * i], v[3 * i + 1], v[3 * i + 2]);
        GalvoParams {
            p0: g(0),
            x0: g(1),
            n1: g(2),
            q1: g(3),
            r1: g(4),
            n2: g(5),
            q2: g(6),
            r2: g(7),
            theta1: v[24],
        }
    }
}

/// Where `ray`'s line meets the plane through `point` with unit normal
/// `unit`: the hit of `Plane::new(point, n).intersect_line(ray)` for
/// `unit = n.normalized()`, bit for bit.
#[inline]
fn line_hit(point: Vec3, unit: Vec3, ray: &Ray) -> Option<Vec3> {
    let plane = Plane {
        point,
        normal: unit,
    };
    plane.intersect_line(ray).map(|(_, hit)| hit)
}

/// Hardware non-idealities of the galvo driver chain.
#[derive(Debug, Clone, Copy)]
pub struct GalvoSimConfig {
    /// DAC quantization step in volts (USB-1608G: 16-bit over ±10 V).
    pub dac_step_v: f64,
    /// RMS angular positioning noise per mirror (GVS102: ~10 µrad).
    pub angle_noise_rad: f64,
    /// Small-angle settle time (the paper quotes 300 µs).
    pub small_step_settle_s: f64,
    /// Slew rate for large steps, radians of mirror angle per second.
    pub slew_rad_per_s: f64,
}

impl Default for GalvoSimConfig {
    fn default() -> Self {
        GalvoSimConfig {
            dac_step_v: DAC_STEP_V,
            angle_noise_rad: 10e-6,
            small_step_settle_s: 300e-6,
            slew_rad_per_s: deg_to_rad(1000.0),
        }
    }
}

/// An ideal config with no noise or quantization — useful in unit tests that
/// need exact geometry.
impl GalvoSimConfig {
    /// No quantization, no noise, instant settle.
    pub fn ideal() -> GalvoSimConfig {
        GalvoSimConfig {
            dac_step_v: 0.0,
            angle_noise_rad: 0.0,
            small_step_settle_s: 0.0,
            slew_rad_per_s: f64::INFINITY,
        }
    }
}

/// Simulated galvo hardware: hidden true geometry plus driver non-idealities.
///
/// Deterministic given its seed history; every noisy draw comes from the RNG
/// handed to [`GalvoSim::output_ray`].
#[derive(Debug, Clone)]
pub struct GalvoSim {
    /// The true (hidden) geometry. Experiments read this only to *build* the
    /// world; the learning pipeline never does. Treated as fixed from
    /// construction (the cached `axes` are derived from it).
    pub truth: GalvoParams,
    /// Driver non-idealities.
    pub cfg: GalvoSimConfig,
    /// Precomputed [`GalvoParams::axes`] of `truth`, so the per-slot
    /// [`GalvoSim::output_ray`] skips the five renormalizations (the input
    /// ray's direction among them).
    axes: GalvoAxes,
    v1: f64,
    v2: f64,
    /// The tilted mirror normals `R(r̂ᵢ, θ₁vᵢ)·n̂ᵢ` at the commanded
    /// voltages. [`GalvoSim::command`] re-rotates a normal only when that
    /// mirror's quantized voltage changes: each slot reads them several
    /// times while commands arrive only with tracking reports, and a
    /// voltage sweep moves one mirror per reading.
    n1p: Vec3,
    n2p: Vec3,
}

impl GalvoSim {
    /// Creates the hardware at zero volts.
    pub fn new(truth: GalvoParams, cfg: GalvoSimConfig) -> GalvoSim {
        let axes = truth.axes();
        GalvoSim {
            n1p: truth.mirror1_normal(&axes, 0.0),
            n2p: truth.mirror2_normal(&axes, 0.0),
            axes,
            truth,
            cfg,
            v1: 0.0,
            v2: 0.0,
        }
    }

    /// Commands the two mirror voltages (clamped to ±10 V, quantized to the
    /// DAC step). Returns the settle time in seconds: the paper's 1–2 ms
    /// pointing latency is dominated by this plus DAC conversion.
    pub fn command(&mut self, v1: f64, v2: f64) -> f64 {
        let (nv1, nv2) = (self.quantize(v1), self.quantize(v2));
        let dang = ((nv1 - self.v1).abs().max((nv2 - self.v2).abs())) * self.truth.theta1;
        // Equal bits rotate to equal bits, so an unmoved mirror keeps its
        // normal.
        if nv1.to_bits() != self.v1.to_bits() {
            self.n1p = self.truth.mirror1_normal(&self.axes, nv1);
        }
        if nv2.to_bits() != self.v2.to_bits() {
            self.n2p = self.truth.mirror2_normal(&self.axes, nv2);
        }
        self.v1 = nv1;
        self.v2 = nv2;
        if dang == 0.0 {
            0.0
        } else if self.cfg.slew_rad_per_s.is_infinite() {
            self.cfg.small_step_settle_s
        } else {
            self.cfg.small_step_settle_s + dang / self.cfg.slew_rad_per_s
        }
    }

    /// The voltage a command of `v` puts on a mirror: clamped to ±10 V and
    /// rounded to the DAC step.
    fn quantize(&self, v: f64) -> f64 {
        let c = v.clamp(VOLT_MIN, VOLT_MAX);
        if self.cfg.dac_step_v > 0.0 {
            (c / self.cfg.dac_step_v).round() * self.cfg.dac_step_v
        } else {
            c
        }
    }

    /// Current commanded voltages (after clamping/quantization).
    pub fn voltages(&self) -> (f64, f64) {
        (self.v1, self.v2)
    }

    /// Settle time [`GalvoSim::command`] *would* report for moving to the
    /// given voltages from the current state, without moving anything —
    /// used to schedule when a queued command becomes optically effective.
    pub fn settle_estimate(&self, v1: f64, v2: f64) -> f64 {
        let q = |v: f64| v.clamp(VOLT_MIN, VOLT_MAX);
        let dang = ((q(v1) - self.v1).abs().max((q(v2) - self.v2).abs())) * self.truth.theta1;
        if dang == 0.0 {
            0.0
        } else if self.cfg.slew_rad_per_s.is_infinite() {
            self.cfg.small_step_settle_s
        } else {
            self.cfg.small_step_settle_s + dang / self.cfg.slew_rad_per_s
        }
    }

    /// The commanded (noise-free) second-mirror normal in the assembly's
    /// body frame — the normal of [`GalvoParams::second_mirror_plane`] at
    /// the current voltage.
    pub fn second_mirror_normal(&self) -> Vec3 {
        self.n2p
    }

    /// The physical output beam right now, with angular positioning noise
    /// drawn from `rng`.
    ///
    /// A voltage jitter `j` tilts a mirror by a further `α = θ₁·j` about the
    /// same axis, so the noisy normal is the cached one rotated by `α`
    /// (within 1e-15 of tracing at `v + j`). Without noise the cached
    /// normals are used as they are, bit-identical to
    /// [`GalvoParams::trace`] at the commanded voltages.
    pub fn output_ray<R: Rng>(&self, rng: &mut R) -> Option<Ray> {
        let Some((u1, u2)) = self.jitter_uniforms(rng) else {
            return self.noiseless_output_ray();
        };
        let noise_v = self.noise_v();
        let [j1, j2] = box_muller2(u1, u2).map(|g| g * noise_v);
        let jitter = |n: Vec3, axis: Vec3, j: f64| rotate_about(n, axis, self.truth.theta1 * j);
        self.truth.trace_tilted(
            &self.axes,
            jitter(self.n1p, self.axes.r1n, j1),
            jitter(self.n2p, self.axes.r2n, j2),
        )
    }

    /// The output beam at the commanded voltages without positioning noise:
    /// the trace [`GalvoSim::output_ray`] makes at zero jitter.
    pub fn noiseless_output_ray(&self) -> Option<Ray> {
        self.truth.trace_tilted(&self.axes, self.n1p, self.n2p)
    }

    /// The noiseless beam between the mirrors with mirror 1 commanded to
    /// `v1`: the first half of [`GalvoSim::noiseless_output_ray`] after
    /// `command(v1, _)`, whatever the second voltage.
    pub fn noiseless_mid_ray(&self, v1: f64) -> Option<Ray> {
        self.truth.mid_ray(
            &self.axes,
            self.truth.mirror1_normal(&self.axes, self.quantize(v1)),
        )
    }

    /// The body-frame second-mirror normal [`GalvoSim::command`] caches for
    /// a command of `v2`: what [`GalvoSim::second_mirror_normal`] reports
    /// after `command(_, v2)`.
    pub fn second_mirror_normal_at(&self, v2: f64) -> Vec3 {
        self.truth.mirror2_normal(&self.axes, self.quantize(v2))
    }

    /// Makes exactly the RNG draws of one [`GalvoSim::output_ray`] call
    /// without tracing, for a caller that has proved it does not need the
    /// ray. Both draw through one private helper, so the two cannot drift
    /// apart.
    pub fn skip_output_ray<R: Rng>(&self, rng: &mut R) {
        self.jitter_uniforms(rng);
    }

    /// The largest extra mirror tilt (rad) one jittered trace can add:
    /// [`MAX_DEVIATE`] times the RMS angle, 0 when the driver is noiseless.
    pub fn max_jitter_rad(&self) -> f64 {
        MAX_DEVIATE * (self.truth.theta1 * self.noise_v()).abs()
    }

    /// RMS positioning noise in volts; 0 turns the jitter off.
    fn noise_v(&self) -> f64 {
        if self.cfg.angle_noise_rad > 0.0 {
            self.cfg.angle_noise_rad / self.truth.theta1
        } else {
            0.0
        }
    }

    /// The Box–Muller uniforms of both mirrors' jitter as `(u₁, u₂)` lanes
    /// (lane 0 is mirror 1, drawn first), or `None` (drawing nothing) when
    /// there is no jitter.
    #[inline]
    fn jitter_uniforms<R: Rng>(&self, rng: &mut R) -> Option<([f64; 2], [f64; 2])> {
        if self.noise_v() > 0.0 {
            let mut draw = || (rng.gen_range(U1_MIN..1.0), rng.gen_range(0.0..1.0));
            let ((a1, a2), (b1, b2)) = (draw(), draw());
            Some(([a1, b1], [a2, b2]))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclops_geom::noise::box_muller;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn nominal_rest_beam_points_up() -> Result<(), GalvoError> {
        let g = GalvoParams::nominal();
        let out = g.trace(0.0, 0.0).ok_or(GalvoError::DegenerateBeamPath)?;
        assert!((out.dir - Vec3::Z).norm() < 1e-12);
        assert!((out.origin - v3(0.0, 0.012, 0.0)).norm() < 1e-12);
        Ok(())
    }

    #[test]
    fn voltage_steers_beam_by_twice_mirror_angle() -> Result<(), GalvoError> {
        let g = GalvoParams::nominal();
        let rest = g.trace(0.0, 0.0).ok_or(GalvoError::DegenerateBeamPath)?;
        let steered = g.trace(0.0, 1.0).ok_or(GalvoError::DegenerateBeamPath)?;
        let ang = rest.dir.angle_to(steered.dir);
        // Optical deflection = 2 × mechanical rotation = 2 × θ₁ × 1 V.
        assert!((ang - 2.0 * g.theta1).abs() < 1e-9, "got {ang}");
        Ok(())
    }

    #[test]
    fn both_axes_are_independent_at_rest() -> Result<(), GalvoError> {
        let g = GalvoParams::nominal();
        let a = g.trace(0.5, 0.0).ok_or(GalvoError::DegenerateBeamPath)?;
        let b = g.trace(0.0, 0.5).ok_or(GalvoError::DegenerateBeamPath)?;
        // First-mirror steering moves the beam in the X direction (axis Z
        // rotates the beam in the XY plane → output tilts in X); second
        // mirror tilts in Y. They must be (nearly) orthogonal deflections.
        let rest = g.trace(0.0, 0.0).ok_or(GalvoError::DegenerateBeamPath)?;
        let da = (a.dir - rest.dir).normalized();
        let db = (b.dir - rest.dir).normalized();
        assert!(
            da.dot(db).abs() < 0.1,
            "deflections not orthogonal: {da} vs {db}"
        );
        Ok(())
    }

    #[test]
    fn origin_point_depends_on_first_voltage() -> Result<(), GalvoError> {
        // The "distortion effect" [58]: p is NOT constant — steering the
        // first mirror moves the hit point on the second mirror. This is why
        // the paper fits the full geometric model instead of assuming p
        // constant as in [32, 33].
        let g = GalvoParams::nominal();
        let a = g.trace(0.0, 0.0).ok_or(GalvoError::DegenerateBeamPath)?;
        let b = g.trace(2.0, 0.0).ok_or(GalvoError::DegenerateBeamPath)?;
        assert!((a.origin - b.origin).norm() > 1e-5);
        Ok(())
    }

    #[test]
    fn cached_axes_paths_are_bit_identical() {
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..32 {
            let g = GalvoParams::nominal().perturbed(&mut rng, 2.0, 2.0, 0.05);
            let axes = g.axes();
            assert_eq!(g.input_ray(&axes), Ray::new(g.p0, g.x0));
            for (v1, v2) in [(0.0, 0.0), (1.3, -2.7), (-9.9, 9.9), (0.123, 4.567)] {
                // Hoisted normalizations reproduce the plain paths exactly.
                assert_eq!(g.trace(v1, v2), g.trace_with(&axes, v1, v2));
                assert_eq!(g.trace_line(v1, v2), g.trace_line_with(&axes, v1, v2));
                // So do the rotations' sines, computed ahead.
                let sc = |v: f64| (g.theta1 * v).sin_cos();
                assert_eq!(
                    g.trace_line_sc(&axes, sc(v1), sc(v2)),
                    g.trace_line_with(&axes, v1, v2)
                );
            }
        }
    }

    #[test]
    fn param_vec_roundtrip() {
        let g = GalvoParams::nominal();
        let v = g.to_vec();
        assert_eq!(v.len(), N_PARAMS);
        let g2 = GalvoParams::from_vec(&v);
        assert_eq!(g, g2);
    }

    #[test]
    fn transformed_commutes_with_trace() -> Result<(), GalvoError> {
        use cyclops_geom::rotation::axis_angle as aa;
        let g = GalvoParams::nominal();
        let pose = Pose::new(aa(v3(0.1, 0.9, 0.2).normalized(), 0.6), v3(1.0, 2.0, 3.0));
        let gt = g.transformed(&pose);
        let (v1, v2) = (0.7, -1.2);
        let direct = pose.apply_ray(&g.trace(v1, v2).ok_or(GalvoError::DegenerateBeamPath)?);
        let via = gt.trace(v1, v2).ok_or(GalvoError::DegenerateBeamPath)?;
        assert!((direct.origin - via.origin).norm() < 1e-12);
        assert!((direct.dir - via.dir).norm() < 1e-12);
        Ok(())
    }

    #[test]
    fn perturbed_is_close_but_not_equal() -> Result<(), GalvoError> {
        let mut rng = StdRng::seed_from_u64(7);
        let g = GalvoParams::nominal();
        let p = g.perturbed(&mut rng, 1.0, 1.0, 0.02);
        assert_ne!(g, p);
        // Still a working galvo with a similar rest beam.
        let out = p.trace(0.0, 0.0).ok_or(GalvoError::DegenerateBeamPath)?;
        assert!(out.dir.angle_to(Vec3::Z) < deg_to_rad(10.0));
        Ok(())
    }

    #[test]
    fn second_mirror_plane_tracks_voltage() {
        let g = GalvoParams::nominal();
        let p0 = g.second_mirror_plane(0.0);
        let p1 = g.second_mirror_plane(1.5);
        assert!((p0.normal.angle_to(p1.normal) - 1.5 * g.theta1).abs() < 1e-9);
        assert_eq!(p0.point, p1.point);
    }

    #[test]
    fn sim_quantizes_and_clamps() {
        let mut sim = GalvoSim::new(GalvoParams::nominal(), GalvoSimConfig::default());
        sim.command(0.12345, 99.0);
        let (v1, v2) = sim.voltages();
        assert!((v2 - VOLT_MAX).abs() < 1e-12, "clamped to +10 V");
        let step = sim.cfg.dac_step_v;
        assert!(
            (v1 / step - (v1 / step).round()).abs() < 1e-9,
            "on DAC grid"
        );
    }

    #[test]
    fn sim_settle_time_model() {
        let mut sim = GalvoSim::new(GalvoParams::nominal(), GalvoSimConfig::default());
        let t_small = sim.command(0.01, 0.0);
        assert!(
            (300e-6..1e-3).contains(&t_small),
            "small step ~300 µs, got {t_small}"
        );
        let t_large = sim.command(10.0, 0.0);
        assert!(t_large > t_small, "large steps slew");
        let t_none = sim.command(10.0, 0.0);
        assert_eq!(t_none, 0.0, "no movement, no settle");
    }

    #[test]
    fn sim_noise_is_small_and_zero_mean() -> Result<(), GalvoError> {
        let mut sim = GalvoSim::new(GalvoParams::nominal(), GalvoSimConfig::default());
        sim.command(1.0, 1.0);
        let mut rng = StdRng::seed_from_u64(42);
        let ideal = sim
            .truth
            .trace(sim.voltages().0, sim.voltages().1)
            .ok_or(GalvoError::DegenerateBeamPath)?;
        let mut max_dev: f64 = 0.0;
        let mut mean = Vec3::ZERO;
        const N: usize = 500;
        for _ in 0..N {
            let r = sim
                .output_ray(&mut rng)
                .ok_or(GalvoError::DegenerateBeamPath)?;
            max_dev = max_dev.max(r.dir.angle_to(ideal.dir));
            mean += r.dir;
        }
        mean /= N as f64;
        // 10 µrad mirror noise → ≤ ~100 µrad worst-case optical deviation.
        assert!(max_dev < 100e-6, "max dev {max_dev}");
        assert!(
            mean.normalized().angle_to(ideal.dir) < 5e-6,
            "bias too large"
        );
        Ok(())
    }

    #[test]
    fn ideal_sim_is_exact() -> Result<(), GalvoError> {
        let mut sim = GalvoSim::new(GalvoParams::nominal(), GalvoSimConfig::ideal());
        sim.command(0.123456789, -0.2);
        let (v1, v2) = sim.voltages();
        assert_eq!(v1, 0.123456789);
        let mut rng = StdRng::seed_from_u64(0);
        let out = sim
            .output_ray(&mut rng)
            .ok_or(GalvoError::DegenerateBeamPath)?;
        let exact = sim
            .truth
            .trace(v1, v2)
            .ok_or(GalvoError::DegenerateBeamPath)?;
        assert!((out.dir - exact.dir).norm() < 1e-15);
        Ok(())
    }

    #[test]
    fn ideal_output_ray_is_bit_identical_to_trace() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..32 {
            let truth = GalvoParams::nominal().perturbed(&mut rng, 2.0, 2.0, 0.05);
            let mut sim = GalvoSim::new(truth, GalvoSimConfig::ideal());
            for _ in 0..8 {
                sim.command(rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0));
                let (v1, v2) = sim.voltages();
                assert_eq!(sim.output_ray(&mut rng), truth.trace(v1, v2));
                assert_eq!(
                    Plane::new(truth.q2, sim.second_mirror_normal()),
                    truth.second_mirror_plane(v2)
                );
            }
        }
    }

    #[test]
    fn noisy_output_ray_matches_tracing_at_jittered_voltages() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..64 {
            let truth = GalvoParams::nominal().perturbed(&mut rng, 2.0, 2.0, 0.05);
            // The bench's 10 µrad and a noise large enough for `sin_cos`.
            for noise in [10e-6, 3e-3] {
                let cfg = GalvoSimConfig {
                    angle_noise_rad: noise,
                    ..GalvoSimConfig::default()
                };
                let mut sim = GalvoSim::new(truth, cfg);
                sim.command(rng.gen_range(-9.0..9.0), rng.gen_range(-9.0..9.0));
                let (v1, v2) = sim.voltages();
                // Replay the same draws: two uniforms per mirror.
                let mut replay = rng.clone();
                let noise_v = noise / truth.theta1;
                let mut j = || {
                    box_muller(replay.gen_range(1e-12..1.0), replay.gen_range(0.0..1.0)) * noise_v
                };
                let (j1, j2) = (j(), j());
                let expect = truth.trace(v1 + j1, v2 + j2).unwrap();
                let got = sim.output_ray(&mut rng).unwrap();
                assert!(
                    (got.origin - expect.origin).norm() < 1e-15,
                    "{got:?} vs {expect:?}"
                );
                assert!(
                    (got.dir - expect.dir).norm() < 1e-15,
                    "{got:?} vs {expect:?}"
                );
                // Both streams consumed the same four uniforms.
                assert_eq!(rng.gen_range(0..u64::MAX), replay.gen_range(0..u64::MAX));
            }
        }
    }

    #[test]
    fn skip_and_noiseless_paths_agree_with_output_ray() {
        let mut rng = StdRng::seed_from_u64(8);
        for noise in [0.0, 10e-6, 3e-3] {
            let cfg = GalvoSimConfig {
                angle_noise_rad: noise,
                ..GalvoSimConfig::default()
            };
            let truth = GalvoParams::nominal().perturbed(&mut rng, 2.0, 2.0, 0.05);
            let mut sim = GalvoSim::new(truth, cfg);
            for _ in 0..64 {
                sim.command(rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0));
                let (v1, v2) = sim.voltages();
                let clean = sim.noiseless_output_ray();
                assert_eq!(clean, truth.trace(v1, v2));
                let mut skipped = rng.clone();
                sim.skip_output_ray(&mut skipped);
                let noisy = sim.output_ray(&mut rng).unwrap();
                assert_eq!(rng, skipped, "skip must draw what output_ray draws");
                // Two mirrors, each deflecting the beam by twice its tilt.
                let dev = noisy.dir.angle_to(clean.unwrap().dir);
                assert!(dev <= 4.0 * sim.max_jitter_rad(), "{dev} at noise {noise}");
            }
        }
    }

    #[test]
    fn sweep_halves_match_the_commanded_path() {
        let mut rng = StdRng::seed_from_u64(10);
        for cfg in [GalvoSimConfig::default(), GalvoSimConfig::ideal()] {
            let truth = GalvoParams::nominal().perturbed(&mut rng, 2.0, 2.0, 0.05);
            let mut sim = GalvoSim::new(truth, cfg);
            for _ in 0..64 {
                // Out-of-range commands exercise the clamp.
                let (v1, v2) = (rng.gen_range(-11.0..11.0), rng.gen_range(-11.0..11.0));
                let (mid, n2p) = (sim.noiseless_mid_ray(v1), sim.second_mirror_normal_at(v2));
                sim.command(v1, v2);
                assert_eq!(sim.voltages(), (sim.quantize(v1), sim.quantize(v2)));
                assert_eq!(sim.second_mirror_normal(), n2p);
                assert_eq!(
                    sim.noiseless_output_ray(),
                    mid.and_then(|m| truth.out_ray(&m, n2p))
                );
            }
        }
    }

    #[test]
    fn command_keeps_unmoved_normals_bit_identical() {
        let mut rng = StdRng::seed_from_u64(9);
        let truth = GalvoParams::nominal().perturbed(&mut rng, 2.0, 2.0, 0.05);
        let mut swept = GalvoSim::new(truth, GalvoSimConfig::default());
        for _ in 0..256 {
            // Move the first mirror, the second, both or neither.
            let (mut v1, mut v2) = swept.voltages();
            let moves = rng.gen_range(0..4u32);
            if moves & 1 == 1 {
                v1 = rng.gen_range(-10.0..10.0);
            }
            if moves & 2 == 2 {
                v2 = rng.gen_range(-10.0..10.0);
            }
            swept.command(v1, v2);
            let mut fresh = GalvoSim::new(truth, GalvoSimConfig::default());
            fresh.command(v1, v2);
            assert_eq!(swept.noiseless_output_ray(), fresh.noiseless_output_ray());
            assert_eq!(swept.second_mirror_normal(), fresh.second_mirror_normal());
        }
    }

    #[test]
    fn trace_none_for_degenerate_parameters() {
        let mut g = GalvoParams::nominal();
        // Point the input beam away from the first mirror.
        g.x0 = -g.x0;
        assert!(g.trace(0.0, 0.0).is_none());
        // Line tracing is total over mirror *lines*, so the inverted beam
        // still intersects; only a beam parallel to the mirror plane
        // degenerates it.
        assert!(g.trace_line(0.0, 0.0).is_some());
        let mut gp = GalvoParams::nominal();
        gp.x0 = v3(1.0, 1.0, 0.0); // perpendicular to n1 ⇒ parallel to mirror 1
        assert!(gp.trace_line(0.0, 0.0).is_none());
    }

    #[test]
    fn try_command_rejects_out_of_range_without_moving() {
        // Callers validate with `check_volts` before commanding, so a
        // rejected pair never reaches the (clamping) mirrors.
        let mut sim = GalvoSim::new(GalvoParams::nominal(), GalvoSimConfig::default());
        let err = check_volts(0.0, 99.0)
            .map(|()| sim.command(0.0, 99.0))
            .unwrap_err();
        assert_eq!(
            err,
            GalvoError::VoltageOutOfRange {
                mirror: 2,
                volts: 99.0
            }
        );
        assert_eq!(sim.voltages(), (0.0, 0.0), "mirrors must not move");
        // NaN is rejected, not quantized.
        assert!(check_volts(f64::NAN, 0.0).is_err());
        // In-range commands pass through to `command`.
        assert!(check_volts(0.5, -0.5)
            .map(|()| sim.command(0.5, -0.5))
            .is_ok());
        assert_ne!(sim.voltages(), (0.0, 0.0));
    }

    #[test]
    fn try_trace_rejects_out_of_range_voltage() {
        assert_eq!(
            check_volts(-10.5, 0.0),
            Err(GalvoError::VoltageOutOfRange {
                mirror: 1,
                volts: -10.5
            })
        );
        let msg = check_volts(-10.5, 0.0).unwrap_err().to_string();
        assert!(msg.contains("mirror 1"), "display names the channel: {msg}");
    }
}
