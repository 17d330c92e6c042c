//! Received power → bit-error rate → frame loss.
//!
//! An intensity-modulated direct-detection (OOK) receiver in Gaussian noise
//! has `BER = ½·erfc(Q/√2)`, with the Q factor proportional to the received
//! *amplitude*. SFP data sheets specify the sensitivity as the power at
//! which BER reaches 10⁻¹² (`Q ≈ 7.03`); the model anchors there and scales
//! `Q` with received power: `Q = Q_ref · 10^((P − P_sens)/20)` (20, not 10:
//! amplitude, not power).
//!
//! The practical upshot reproduced from the paper: the link is a cliff. A
//! couple of dB above sensitivity the frame loss is immeasurably small; a
//! couple of dB below, nothing gets through — which is why the paper's
//! throughput plots switch between "optimal" and "zero" so sharply.

/// Q factor at the specified sensitivity (BER 10⁻¹²).
pub const Q_AT_SENSITIVITY: f64 = 7.034;

/// Complementary error function (Abramowitz & Stegun 7.1.26-based rational
/// approximation, |error| < 1.5·10⁻⁷, extended by symmetry).
#[inline]
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    poly * (-x * x).exp()
}

/// The power→loss channel for a given transceiver sensitivity.
#[derive(Debug, Clone, Copy)]
pub struct FsoChannel {
    /// Receiver sensitivity (dBm) at which BER = 10⁻¹².
    pub sensitivity_dbm: f64,
    /// Receiver overload threshold (dBm): above this the receiver saturates
    /// and errors grow again.
    pub overload_dbm: f64,
}

impl FsoChannel {
    /// Channel anchored at a transceiver's data-sheet points.
    pub fn new(sensitivity_dbm: f64, overload_dbm: f64) -> FsoChannel {
        FsoChannel {
            sensitivity_dbm,
            overload_dbm,
        }
    }

    /// Q factor at the given received power. Total: NaN and ±∞ inputs map
    /// to `Q = 0` (no usable signal) rather than propagating — a garbage
    /// power report must read as "link dead", never as NaN throughput.
    /// (+∞ is genuinely the overload limit: `Q ∝ 10^(p/20 − p/10) → 0`.)
    #[inline]
    pub fn q_factor(&self, rx_dbm: f64) -> f64 {
        if !rx_dbm.is_finite() {
            return 0.0;
        }
        let mut q = Q_AT_SENSITIVITY * 10f64.powf((rx_dbm - self.sensitivity_dbm) / 20.0);
        if rx_dbm > self.overload_dbm {
            // Saturation: Q degrades with overdrive.
            q *= 10f64.powf(-(rx_dbm - self.overload_dbm) / 10.0);
        }
        if q.is_finite() {
            q
        } else {
            0.0
        }
    }

    /// Bit-error rate at the given received power. Total: always in
    /// `[0, 0.5]`, even for non-finite input.
    #[inline]
    pub fn ber(&self, rx_dbm: f64) -> f64 {
        let q = self.q_factor(rx_dbm);
        let b = 0.5 * erfc(q / std::f64::consts::SQRT_2);
        if b.is_nan() {
            return 0.5;
        }
        b.clamp(0.0, 0.5)
    }

    /// Probability an `n_bits` frame survives (no bit errors). Total:
    /// always in `[0, 1]`.
    #[inline]
    pub fn frame_success_prob(&self, rx_dbm: f64, n_bits: u64) -> f64 {
        let ber = self.ber(rx_dbm);
        if ber <= 1e-15 {
            return 1.0;
        }
        // (1−p)^n via exp(n·ln(1−p)), stable for small p.
        (n_bits as f64 * (1.0 - ber).ln()).exp().clamp(0.0, 1.0)
    }
}

/// mmWave-style RF fallback rates (Gbps), highest modulation first. The
/// values follow the 802.11ad single-carrier MCS ladder shape: each rung
/// down sheds modulation order as SNR drops with distance.
pub const RF_RATE_LADDER_GBPS: [f64; 6] = [2.31, 1.925, 1.54, 1.155, 0.77, 0.385];

/// A low-rate RF side channel used as a fallback while the FSO beam is
/// re-acquiring (hybrid FSO/RF, cf. the RF-assisted-FSO literature).
///
/// Deliberately *not* an optical model: RF needs no pointing, no SFP
/// re-lock, and survives occlusion by diffraction — so its rate is a pure,
/// deterministic function of TX–RX distance and a line-of-sight flag. The
/// rate ladder steps down one rung per `rung_range_m` of distance and
/// `occlusion_rung_penalty` extra rungs when the path is blocked (reduced
/// but nonzero: that is the whole point of the fallback). Beyond
/// `max_range_m` (or for non-finite distance) the rate is zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RfChannel {
    /// Distance per modulation rung (m): rung `i` covers
    /// `[i·rung_range_m, (i+1)·rung_range_m)`.
    pub rung_range_m: f64,
    /// Extra rungs lost when the direct path is occluded (diffraction loss).
    pub occlusion_rung_penalty: usize,
    /// Hard range limit (m); past this the RF link is unusable too.
    pub max_range_m: f64,
}

impl Default for RfChannel {
    /// Room-scale 60 GHz defaults: full rate within 2 m, one rung per
    /// further 2 m, two rungs of diffraction penalty, 30 m hard range.
    fn default() -> RfChannel {
        RfChannel {
            rung_range_m: 2.0,
            occlusion_rung_penalty: 2,
            max_range_m: 30.0,
        }
    }
}

impl RfChannel {
    /// Ladder rung in use at this distance/occlusion, or `None` when out of
    /// range (non-finite or negative distances are out of range). Total:
    /// never panics on garbage input.
    #[inline]
    pub fn rung(&self, distance_m: f64, occluded: bool) -> Option<usize> {
        if !(distance_m >= 0.0 && distance_m <= self.max_range_m) {
            return None;
        }
        let base = (distance_m / self.rung_range_m) as usize;
        let rung = base.saturating_add(if occluded {
            self.occlusion_rung_penalty
        } else {
            0
        });
        Some(rung.min(RF_RATE_LADDER_GBPS.len() - 1))
    }

    /// Deliverable RF rate (Gbps) at this distance/occlusion; `0.0` when out
    /// of range. No pointing, no lock hysteresis: the rate is available the
    /// instant the policy switches traffic onto the RF link.
    #[inline]
    pub fn rate_gbps(&self, distance_m: f64, occluded: bool) -> f64 {
        match self.rung(distance_m, occluded) {
            Some(r) => RF_RATE_LADDER_GBPS[r],
            None => 0.0,
        }
    }
}

/// Hot-path wrapper over [`FsoChannel::frame_success_prob`] at a fixed frame
/// size, used by the engine's slot loop.
///
/// In the default build it is **bit-identical** to the analytic path; the
/// speed comes from two exact shortcuts:
///
/// 1. *Unity interval.* The analytic path returns exactly `1.0` whenever
///    `ber ≤ 1e-15`. At construction, a bisection against the exact `ber`
///    finds a conservative power interval where `ber ≤ 1e-18` — three orders
///    of magnitude of safety margin, so float wiggle at the edges cannot
///    cross the `1e-15` early-return threshold. Powers inside the interval
///    skip the `powf`/`erfc`/`ln`/`exp` chain entirely.
/// 2. *Exact-input memo.* The last `(rx_dbm bits → result)` pair is kept, so
///    repeated identical inputs (e.g. the −90 dBm power-meter floor during
///    an occlusion) are answered without recomputation.
#[derive(Debug, Clone)]
pub struct FrameSuccessCache {
    channel: FsoChannel,
    frame_bits: u64,
    /// Conservative closed interval on which the analytic path provably
    /// returns exactly 1.0. NaN bounds ⇒ no such interval (checks fail).
    unity_lo_dbm: f64,
    unity_hi_dbm: f64,
    last_in_bits: u64,
    last_out: f64,
}

impl FrameSuccessCache {
    /// Builds the cache for one channel and frame size.
    pub fn new(channel: FsoChannel, frame_bits: u64) -> FrameSuccessCache {
        // ber(p) is decreasing below the overload point and increasing above
        // it, so the sub-target region (if any) is an interval containing
        // the overload power. Bisect each edge against the *exact* ber.
        const TARGET: f64 = 1e-18;
        let o = channel.overload_dbm;
        let (mut lo, mut hi) = (f64::NAN, f64::NAN);
        if channel.ber(o) <= TARGET {
            let (mut a, mut b) = (o - 400.0, o);
            if channel.ber(a) > TARGET {
                for _ in 0..80 {
                    let m = 0.5 * (a + b);
                    if channel.ber(m) <= TARGET {
                        b = m;
                    } else {
                        a = m;
                    }
                }
                lo = b;
            } else {
                lo = a;
            }
            let (mut a2, mut b2) = (o, o + 400.0);
            if channel.ber(b2) > TARGET {
                for _ in 0..80 {
                    let m = 0.5 * (a2 + b2);
                    if channel.ber(m) <= TARGET {
                        a2 = m;
                    } else {
                        b2 = m;
                    }
                }
                hi = a2;
            } else {
                hi = b2;
            }
            // Guard band (in dB) against float wiggle right at the edges.
            lo += 1e-3;
            hi -= 1e-3;
            // NaN-safe: an inverted or NaN band degenerates to "no band".
            if lo.partial_cmp(&hi) != Some(std::cmp::Ordering::Less) {
                lo = f64::NAN;
                hi = f64::NAN;
            }
        }
        let mut cache = FrameSuccessCache {
            channel,
            frame_bits,
            unity_lo_dbm: lo,
            unity_hi_dbm: hi,
            last_in_bits: 0,
            last_out: 0.0,
        };
        // Seed the memo with the most commonly repeated input: the power
        // floor an occluded meter reads.
        let floor = cyclops_core::deployment::Deployment::POWER_METER_FLOOR_DBM;
        cache.last_in_bits = floor.to_bits();
        cache.last_out = cache.compute(floor);
        cache
    }

    /// The wrapped channel.
    #[inline]
    pub fn channel(&self) -> &FsoChannel {
        &self.channel
    }

    #[inline]
    fn compute(&self, rx_dbm: f64) -> f64 {
        self.channel.frame_success_prob(rx_dbm, self.frame_bits)
    }

    /// Frame success probability at the cache's frame size — see the type
    /// docs for the exactness contract.
    #[inline]
    pub fn frame_success_prob(&mut self, rx_dbm: f64) -> f64 {
        // NaN rx_dbm fails both comparisons and falls through.
        if rx_dbm >= self.unity_lo_dbm && rx_dbm <= self.unity_hi_dbm {
            return 1.0;
        }
        let bits = rx_dbm.to_bits();
        if bits == self.last_in_bits {
            return self.last_out;
        }
        let out = self.compute(rx_dbm);
        self.last_in_bits = bits;
        self.last_out = out;
        out
    }
}

// ---------------------------------------------------------------------------
// Composable environment stages
// ---------------------------------------------------------------------------

/// Converts a `mix64` output to a uniform draw in the half-open unit
/// interval, bounded away from zero so `ln` stays finite.
#[inline]
fn unit_open(x: u64) -> f64 {
    (((x >> 11) + 1) as f64) * (1.0 / ((1u64 << 53) as f64 + 1.0))
}

/// A standard normal deviate derived purely from `(seed, stream)` via two
/// `mix64` draws and the shared [`cyclops_geom::noise::box_muller`] — no
/// RNG object, so stages sampling per epoch/event are bit-deterministic and
/// order-independent.
#[inline]
fn gauss_at(seed: u64, stream: u64) -> f64 {
    let u1 = unit_open(cyclops_par::mix64(seed, 2 * stream + 1));
    let u2 = unit_open(cyclops_par::mix64(seed, 2 * stream + 2));
    cyclops_geom::noise::box_muller(u1, u2)
}

/// One composable channel-impairment stage: an extra optical loss (dB ≥ 0)
/// applied to the received power each slot, as a pure function of slot time
/// and TX→RX path length.
///
/// Contract (relied on by the engine and enforced by the environment
/// proptests):
///
/// - **loss-only** — the returned attenuation is clamped at ≥ 0 dB by
///   [`Environment::attenuation_db`], so applying a stage is monotone
///   non-increasing in received power;
/// - **bit-deterministic** — any randomness must derive from the stage's
///   seed via per-stream [`cyclops_par::mix64`] keyed by epoch/event index,
///   never from a shared RNG, so stages cannot perturb the engine's
///   deployment/fault streams and replays are bit-identical per seed;
/// - **monotone time** — `attenuation_db` is called once per slot with
///   non-decreasing `t_s` (stages may keep a forward cursor).
pub trait EnvStage: std::fmt::Debug + Send + Sync {
    /// Short stable stage name (telemetry / CLI listings).
    fn name(&self) -> &'static str;

    /// Extra optical loss (dB) during the slot ending at `t_s` over a
    /// TX→RX path of `path_m` metres.
    fn attenuation_db(&mut self, t_s: f64, path_m: f64) -> f64;

    /// Re-keys the stage's random stream (per-session fleet seeding) and
    /// resets any forward cursor. Deterministic stages ignore it.
    fn reseed(&mut self, _stream: u64) {}

    /// Clones the stage behind the object-safe interface.
    fn boxed_clone(&self) -> Box<dyn EnvStage>;
}

impl Clone for Box<dyn EnvStage> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// Static fog/smoke extinction via Beer–Lambert: `loss = α · L` with a
/// constant extinction coefficient α (dB/km) from the Kim visibility model.
/// Deterministic — no random stream.
#[derive(Debug, Clone, Copy)]
pub struct FogStage {
    /// Extinction coefficient (dB per km of path).
    pub alpha_db_per_km: f64,
}

impl FogStage {
    /// A fog/smoke stage from a raw extinction coefficient (dB/km).
    pub fn new(alpha_db_per_km: f64) -> Result<FogStage, crate::engine::EngineConfigError> {
        if !(alpha_db_per_km.is_finite() && alpha_db_per_km >= 0.0) {
            return Err(crate::engine::EngineConfigError::InvalidEnvironment(
                "fog extinction must be finite and >= 0 dB/km",
            ));
        }
        Ok(FogStage { alpha_db_per_km })
    }

    /// Kim-model extinction from meteorological visibility: `α =
    /// (3.91/V)·(λ/550 nm)^−q` dB/km with Kim's piecewise size-distribution
    /// exponent `q(V)` (wavelength dependence vanishes below 500 m — dense
    /// fog scatters all bands equally).
    pub fn from_visibility(
        visibility_m: f64,
        wavelength_nm: f64,
    ) -> Result<FogStage, crate::engine::EngineConfigError> {
        if !(visibility_m.is_finite() && visibility_m > 0.0) {
            return Err(crate::engine::EngineConfigError::InvalidEnvironment(
                "visibility must be finite and > 0 m",
            ));
        }
        if !(wavelength_nm.is_finite() && wavelength_nm > 0.0) {
            return Err(crate::engine::EngineConfigError::InvalidEnvironment(
                "wavelength must be finite and > 0 nm",
            ));
        }
        let v_km = visibility_m / 1000.0;
        let q = if v_km > 50.0 {
            1.6
        } else if v_km > 6.0 {
            1.3
        } else if v_km > 1.0 {
            0.16 * v_km + 0.34
        } else if v_km > 0.5 {
            v_km - 0.5
        } else {
            0.0
        };
        let alpha = (3.91 / v_km) * (wavelength_nm / 550.0).powf(-q);
        FogStage::new(alpha)
    }

    /// Indoor haze/smoke density knob for the CLI: `d ∈ [0, 1]` maps
    /// log-linearly from clear air (d = 0, no loss) through light haze to
    /// theatrical-smoke visibility of 1 m at d = 1.
    pub fn from_density(
        density: f64,
        wavelength_nm: f64,
    ) -> Result<FogStage, crate::engine::EngineConfigError> {
        if !(density.is_finite() && (0.0..=1.0).contains(&density)) {
            return Err(crate::engine::EngineConfigError::InvalidEnvironment(
                "fog density must be in [0, 1]",
            ));
        }
        if density == 0.0 {
            return FogStage::new(0.0);
        }
        // 100 m visibility at d→0+ down to 1 m at d = 1, log scale.
        let visibility_m = 100.0 * 10f64.powf(-2.0 * density);
        FogStage::from_visibility(visibility_m, wavelength_nm)
    }
}

impl EnvStage for FogStage {
    fn name(&self) -> &'static str {
        "fog"
    }

    fn attenuation_db(&mut self, _t_s: f64, path_m: f64) -> f64 {
        self.alpha_db_per_km * path_m * 1e-3
    }

    fn boxed_clone(&self) -> Box<dyn EnvStage> {
        Box::new(*self)
    }
}

/// Rain attenuation via the Carbonneau FSO power law `γ = 1.076·R^0.67`
/// dB/km for rain rate `R` mm/h. Deterministic — no random stream.
#[derive(Debug, Clone, Copy)]
pub struct RainStage {
    /// Rain rate (mm/h).
    pub rate_mm_h: f64,
    /// Specific attenuation (dB/km), precomputed from the rate.
    gamma_db_per_km: f64,
}

impl RainStage {
    /// A rain stage from a rain rate in mm/h (0 = dry).
    pub fn new(rate_mm_h: f64) -> Result<RainStage, crate::engine::EngineConfigError> {
        if !(rate_mm_h.is_finite() && rate_mm_h >= 0.0) {
            return Err(crate::engine::EngineConfigError::InvalidEnvironment(
                "rain rate must be finite and >= 0 mm/h",
            ));
        }
        Ok(RainStage {
            rate_mm_h,
            gamma_db_per_km: 1.076 * rate_mm_h.powf(0.67),
        })
    }
}

impl EnvStage for RainStage {
    fn name(&self) -> &'static str {
        "rain"
    }

    fn attenuation_db(&mut self, _t_s: f64, path_m: f64) -> f64 {
        self.gamma_db_per_km * path_m * 1e-3
    }

    fn boxed_clone(&self) -> Box<dyn EnvStage> {
        Box::new(*self)
    }
}

/// Log-normal scintillation: a zero-mean Gaussian fade (dB) redrawn every
/// coherence interval, clipped to loss-only (enhancements are dropped —
/// conservative, and it keeps the stage monotone non-increasing in power).
/// The fade for epoch `k = ⌊t/τ⌋` is a pure function of `(seed, k)`, so the
/// sequence is bit-deterministic per seed.
#[derive(Debug, Clone, Copy)]
pub struct ScintillationStage {
    /// Fade standard deviation (dB).
    pub sigma_db: f64,
    /// Fade coherence interval τ (seconds).
    pub coherence_s: f64,
    seed: u64,
    /// The last epoch's unit deviate `gauss_at(seed, epoch)`: the fade
    /// holds for a coherence interval of ~10 slots. The unscaled deviate,
    /// so a changed `sigma_db` still applies.
    last: Option<(u64, f64)>,
}

impl ScintillationStage {
    /// A scintillation stage with fade σ (dB), coherence τ (s), and a seed.
    pub fn new(
        sigma_db: f64,
        coherence_s: f64,
        seed: u64,
    ) -> Result<ScintillationStage, crate::engine::EngineConfigError> {
        if !(sigma_db.is_finite() && sigma_db >= 0.0) {
            return Err(crate::engine::EngineConfigError::InvalidEnvironment(
                "scintillation sigma must be finite and >= 0 dB",
            ));
        }
        if !(coherence_s.is_finite() && coherence_s > 0.0) {
            return Err(crate::engine::EngineConfigError::InvalidEnvironment(
                "scintillation coherence must be finite and > 0 s",
            ));
        }
        Ok(ScintillationStage {
            sigma_db,
            coherence_s,
            seed,
            last: None,
        })
    }
}

impl EnvStage for ScintillationStage {
    fn name(&self) -> &'static str {
        "scintillation"
    }

    fn attenuation_db(&mut self, t_s: f64, _path_m: f64) -> f64 {
        let epoch = (t_s / self.coherence_s).floor() as u64;
        let g = match self.last {
            Some((e, g)) if e == epoch => g,
            _ => {
                let g = gauss_at(self.seed, epoch);
                self.last = Some((epoch, g));
                g
            }
        };
        (self.sigma_db * g).max(0.0)
    }

    fn reseed(&mut self, stream: u64) {
        self.seed = cyclops_par::mix64(self.seed, stream);
        self.last = None;
    }

    fn boxed_clone(&self) -> Box<dyn EnvStage> {
        Box::new(*self)
    }
}

/// Transient human occluders crossing the beam: a renewal process of
/// blocking episodes — exponential inter-arrival gaps, log-uniform crossing
/// durations around the mean, and a deep body-shadow loss while inside an
/// episode. Every gap/duration is a pure `mix64` function of `(seed, event
/// index)`; the stage keeps only a forward cursor, so identically-seeded
/// replays are bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct HumanOccluderStage {
    /// Mean crossings per minute.
    pub rate_per_min: f64,
    /// Mean crossing duration (seconds).
    pub mean_duration_s: f64,
    /// Loss while a body blocks the beam (dB). A torso at 1550 nm is
    /// opaque; 30+ dB kills any indoor FSO budget.
    pub block_db: f64,
    seed: u64,
    /// Start of the next (or current) crossing.
    next_start_s: f64,
    /// End of the current crossing (valid when `t >= next_start_s`).
    cur_end_s: f64,
    /// Crossing index for the per-event streams.
    k: u64,
    primed: bool,
}

impl HumanOccluderStage {
    /// A crossing stage from a rate (crossings/minute), a mean crossing
    /// duration (s), a body-shadow loss (dB) and a seed.
    pub fn new(
        rate_per_min: f64,
        mean_duration_s: f64,
        block_db: f64,
        seed: u64,
    ) -> Result<HumanOccluderStage, crate::engine::EngineConfigError> {
        if !(rate_per_min.is_finite() && rate_per_min >= 0.0) {
            return Err(crate::engine::EngineConfigError::InvalidEnvironment(
                "crossing rate must be finite and >= 0 per minute",
            ));
        }
        if !(mean_duration_s.is_finite() && mean_duration_s > 0.0) {
            return Err(crate::engine::EngineConfigError::InvalidEnvironment(
                "crossing duration must be finite and > 0 s",
            ));
        }
        if !(block_db.is_finite() && block_db >= 0.0) {
            return Err(crate::engine::EngineConfigError::InvalidEnvironment(
                "body-shadow loss must be finite and >= 0 dB",
            ));
        }
        Ok(HumanOccluderStage {
            rate_per_min,
            mean_duration_s,
            block_db,
            seed,
            next_start_s: 0.0,
            cur_end_s: 0.0,
            k: 0,
            primed: false,
        })
    }

    /// Exponential gap before crossing `k` (seconds).
    fn gap_s(&self, k: u64) -> f64 {
        let mean_gap_s = 60.0 / self.rate_per_min;
        -unit_open(cyclops_par::mix64(self.seed, 3 * k + 1)).ln() * mean_gap_s
    }

    /// Duration of crossing `k`: log-uniform in [½·mean, 2·mean].
    fn duration_s(&self, k: u64) -> f64 {
        let u = unit_open(cyclops_par::mix64(self.seed, 3 * k + 2));
        self.mean_duration_s * 4f64.powf(u) * 0.5
    }

    fn reset_cursor(&mut self) {
        self.k = 0;
        self.primed = false;
        self.next_start_s = 0.0;
        self.cur_end_s = 0.0;
    }
}

impl EnvStage for HumanOccluderStage {
    fn name(&self) -> &'static str {
        "occluders"
    }

    fn attenuation_db(&mut self, t_s: f64, _path_m: f64) -> f64 {
        if self.rate_per_min == 0.0 {
            return 0.0;
        }
        if !self.primed {
            self.primed = true;
            self.next_start_s = self.gap_s(0);
            self.cur_end_s = self.next_start_s + self.duration_s(0);
        }
        // Advance the cursor past finished crossings.
        while t_s > self.cur_end_s {
            self.k += 1;
            self.next_start_s = self.cur_end_s + self.gap_s(self.k);
            self.cur_end_s = self.next_start_s + self.duration_s(self.k);
        }
        if t_s >= self.next_start_s {
            self.block_db
        } else {
            0.0
        }
    }

    fn reseed(&mut self, stream: u64) {
        self.seed = cyclops_par::mix64(self.seed, stream);
        self.reset_cursor();
    }

    fn boxed_clone(&self) -> Box<dyn EnvStage> {
        Box::new(*self)
    }
}

/// A stack of [`EnvStage`]s applied to the received optical power each
/// slot. The empty environment is the engine default and is bit-free: the
/// engine skips the whole path (no world queries, no float ops), so all
/// goldens are preserved exactly; see `DESIGN.md` §15 for the determinism
/// contract.
#[derive(Debug, Clone, Default)]
pub struct Environment {
    stages: Vec<Box<dyn EnvStage>>,
}

impl Environment {
    /// An empty (clear-air) environment.
    pub fn new() -> Environment {
        Environment::default()
    }

    /// Adds a stage (builder style).
    pub fn stage(mut self, stage: impl EnvStage + 'static) -> Environment {
        self.stages.push(Box::new(stage));
        self
    }

    /// Adds an already-boxed stage.
    pub fn push(&mut self, stage: Box<dyn EnvStage>) {
        self.stages.push(stage);
    }

    /// Whether any stage is attached.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Number of attached stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Stage names in application order.
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.stages.iter().map(|s| s.name()).collect()
    }

    /// Total extra loss (dB ≥ 0) for the slot ending at `t_s` over a path
    /// of `path_m` metres. Each stage's contribution is clamped at ≥ 0, so
    /// the environment is monotone non-increasing in received power.
    pub fn attenuation_db(&mut self, t_s: f64, path_m: f64) -> f64 {
        self.stages
            .iter_mut()
            .map(|s| s.attenuation_db(t_s, path_m).max(0.0))
            .sum()
    }

    /// A per-session copy with every stage's random stream re-keyed by
    /// `mix64(stream, stage index)` — the fleet drivers use this so each
    /// session sees independent scintillation/crossing streams derived from
    /// its session seed.
    pub fn reseeded(&self, stream: u64) -> Environment {
        let mut env = self.clone();
        for (j, s) in env.stages.iter_mut().enumerate() {
            s.reseed(cyclops_par::mix64(stream, 0xe27 + j as u64));
        }
        env
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ch() -> FsoChannel {
        FsoChannel::new(-25.0, 7.0)
    }

    #[test]
    fn erfc_anchor_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!((erfc(-1.0) - (2.0 - 0.157_299_2)).abs() < 1e-6);
        assert!(erfc(5.0) < 1.6e-12);
    }

    #[test]
    fn ber_at_sensitivity_is_1e12() {
        let ber = ch().ber(-25.0);
        assert!((1e-13..1e-11).contains(&ber), "BER {ber}");
    }

    #[test]
    fn ber_is_a_cliff() {
        let c = ch();
        // 3 dB above sensitivity: essentially error-free (BER ~1e-22).
        assert!(c.ber(-22.0) < 1e-18);
        // 6 dB below: catastrophic for any packet stream.
        assert!(c.ber(-31.0) > 1e-4, "ber {}", c.ber(-31.0));
        // No signal at all: coin flips.
        assert!((c.ber(f64::NEG_INFINITY) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn ber_monotone_in_power_below_overload() {
        let c = ch();
        let mut last = 1.0;
        for p in [-30.0, -27.0, -25.0, -23.0, -20.0, -10.0] {
            let b = c.ber(p);
            assert!(b <= last, "BER must fall with power ({p} dBm: {b})");
            last = b;
        }
    }

    #[test]
    fn channel_is_total_on_garbage_input() {
        let c = ch();
        for p in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e308, -1e308] {
            let q = c.q_factor(p);
            assert!(q.is_finite() && q >= 0.0, "q({p}) = {q}");
            let b = c.ber(p);
            assert!((0.0..=0.5).contains(&b), "ber({p}) = {b}");
            let f = c.frame_success_prob(p, 12_000);
            assert!((0.0..=1.0).contains(&f), "fsp({p}) = {f}");
        }
        // Garbage reads as "link dead", not "link fine".
        assert!((c.ber(f64::NAN) - 0.5).abs() < 1e-6);
        assert!(c.frame_success_prob(f64::NAN, 12_000) < 1e-9);
    }

    #[test]
    fn overload_degrades_q() {
        let c = ch();
        assert!(c.q_factor(12.0) < c.q_factor(5.0));
    }

    #[test]
    fn rf_ladder_steps_down_with_distance() {
        let rf = RfChannel::default();
        // Room scale: full rate.
        assert_eq!(rf.rate_gbps(1.75, false), RF_RATE_LADDER_GBPS[0]);
        let mut last = f64::INFINITY;
        for d in [0.5, 2.5, 4.5, 6.5, 8.5, 10.5, 25.0] {
            let r = rf.rate_gbps(d, false);
            assert!(r <= last, "rate must not rise with distance ({d} m: {r})");
            assert!(r > 0.0, "in-range distance must keep a nonzero rate");
            last = r;
        }
        // Past the hard range: dead.
        assert_eq!(rf.rate_gbps(31.0, false), 0.0);
    }

    #[test]
    fn rf_occlusion_degrades_but_does_not_kill() {
        let rf = RfChannel::default();
        let clear = rf.rate_gbps(1.75, false);
        let blocked = rf.rate_gbps(1.75, true);
        assert!(blocked < clear, "occlusion must cost rate");
        assert!(
            blocked > 0.0,
            "RF diffracts: occlusion must not zero the rate"
        );
        assert_eq!(rf.rung(1.75, true), Some(rf.rung(1.75, false).unwrap() + 2));
    }

    #[test]
    fn rf_is_total_on_garbage_input() {
        let rf = RfChannel::default();
        for d in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 1e308] {
            assert_eq!(rf.rate_gbps(d, false), 0.0, "rate({d})");
            assert_eq!(rf.rung(d, true), None, "rung({d})");
        }
        // Deep rungs saturate at the bottom of the ladder, never index OOB.
        let r = rf.rate_gbps(29.9, true);
        assert_eq!(r, RF_RATE_LADDER_GBPS[RF_RATE_LADDER_GBPS.len() - 1]);
    }

    #[test]
    fn frame_success_probability() {
        let c = ch();
        // 1500-byte frame = 12k bits.
        assert!((c.frame_success_prob(-20.0, 12_000) - 1.0).abs() < 1e-9);
        let marginal = c.frame_success_prob(-26.5, 12_000);
        assert!((0.0..1.0).contains(&marginal), "marginal {marginal}");
        assert!(c.frame_success_prob(-35.0, 12_000) < 1e-6);
    }

    #[test]
    fn scintillation_epoch_cache_matches_the_pure_fade() {
        // The fade of slot time t is the pure function of (seed, ⌊t/τ⌋);
        // the cached deviate must reproduce it on every slot, under a
        // changed sigma, and for a reseeded stream.
        let pure = |s: &ScintillationStage, t: f64| {
            let epoch = (t / s.coherence_s).floor() as u64;
            (s.sigma_db * gauss_at(s.seed, epoch)).max(0.0)
        };
        let mut st = ScintillationStage::new(0.6, 10e-3, 77).expect("valid scintillation");
        for k in 0..500 {
            let t = k as f64 * 1e-3;
            if k == 200 {
                st.sigma_db = 1.7;
            }
            if k == 350 {
                st.reseed(3);
            }
            let want = pure(&st, t);
            assert_eq!(
                st.attenuation_db(t, 1.75).to_bits(),
                want.to_bits(),
                "slot {k}"
            );
        }
    }
}
