//! The simulated bench: everything the learning pipeline treats as physical
//! hardware.
//!
//! Geometry (world frame): the TX assembly sits near the origin with its
//! rest beam along +Z; the user zone is around `z ≈ 1.75 m` (the paper's
//! 1.5–2 m link). The RX assembly is bolted to the headset via a fixed mount
//! pose; the headset's own tracking system reports poses in its hidden
//! VR-space (see `cyclops-vrh`).
//!
//! The received-power physics follows the reciprocity picture behind the
//! paper's Lemma 1: trace the TX beam and the RX's *imaginary* beam (the
//! time-reversed ray launched from the RX collimator through its galvo);
//! coupling is maximal when the two coincide, and degrades with
//!
//! * `δ` — the lateral gap on the RX galvo's second-mirror plane between
//!   where the TX beam lands and where the imaginary beam originates,
//! * `φ` — the angle between the arriving ray and the reversed imaginary
//!   beam,
//!
//! evaluated through the calibrated `CouplingModel`. By construction the
//! power is maximized exactly at the Lemma-1 coincidence — which is the
//! physical content of the lemma.

use cyclops_geom::noise::MAX_DEVIATE;
use cyclops_geom::plane::Plane;
use cyclops_geom::pose::Pose;
use cyclops_geom::ray::Ray;
use cyclops_geom::rotation::axis_angle;
use cyclops_geom::vec3::{v3, Vec3};
use cyclops_optics::beam::BeamState;
use cyclops_optics::coupling::{LinkDesign, ReceiverGeometry};
use cyclops_optics::galvo::{GalvoParams, GalvoSim, GalvoSimConfig};
use cyclops_optics::photodiode::{PlacedMonitor, QuadrantMonitor};
use cyclops_vrh::headset::{Headset, HeadsetConfig};
use cyclops_vrh::rand_util::{gauss, skip_gauss};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::{FRAC_PI_2, LOG10_E};

/// Configuration for building a [`Deployment`].
#[derive(Debug, Clone)]
pub struct DeploymentConfig {
    /// Optical link design (10G/25G, collimated/diverging).
    pub design: LinkDesign,
    /// Galvo driver non-idealities (shared by both ends).
    pub galvo_cfg: GalvoSimConfig,
    /// RMS measurement noise on power readings (dB).
    pub power_noise_db: f64,
    /// Assembly tolerance of the galvo hardware relative to the CAD nominal:
    /// positions (mm), angles (deg), gain (fraction).
    pub assembly_tol: (f64, f64, f64),
    /// Where this TX unit is installed (added to the unit's mounting pose).
    /// Multi-TX experiments build several deployments sharing a seed (same
    /// headset/RX hardware world) with different installation points.
    pub tx_position: Vec3,
    /// Master seed (hardware perturbations + measurement noise).
    pub seed: u64,
}

impl DeploymentConfig {
    /// The paper's 10G diverging-beam prototype at 1.75 m.
    pub fn paper_10g(seed: u64) -> DeploymentConfig {
        DeploymentConfig {
            design: LinkDesign::ten_g_diverging(20.0e-3, 1.75),
            galvo_cfg: GalvoSimConfig::default(),
            power_noise_db: 0.2,
            assembly_tol: (1.0, 1.0, 0.02),
            tx_position: Vec3::ZERO,
            seed,
        }
    }

    /// The paper's 25G prototype (§5.3.1).
    pub fn paper_25g(seed: u64) -> DeploymentConfig {
        DeploymentConfig {
            design: LinkDesign::twenty_five_g(20.0e-3, 1.75),
            ..DeploymentConfig::paper_10g(seed)
        }
    }

    /// A noiseless variant for white-box tests (ideal galvos, no power
    /// noise, hardware exactly at nominal).
    pub fn ideal_10g(seed: u64) -> DeploymentConfig {
        DeploymentConfig {
            design: LinkDesign::ten_g_diverging(20.0e-3, 1.75),
            galvo_cfg: GalvoSimConfig::ideal(),
            power_noise_db: 0.0,
            assembly_tol: (0.0, 0.0, 0.0),
            tx_position: Vec3::ZERO,
            seed,
        }
    }
}

/// The Lemma-1 point pairs for the current configuration (world frame).
#[derive(Debug, Clone, Copy)]
pub struct LemmaPoints {
    /// TX beam's originating point on the TX second mirror.
    pub p_t: Vec3,
    /// Where the TX beam strikes the RX second-mirror plane.
    pub tau_t: Vec3,
    /// RX imaginary beam's originating point on the RX second mirror.
    pub p_r: Vec3,
    /// Where the RX imaginary beam strikes the TX second-mirror plane.
    pub tau_r: Vec3,
}

impl LemmaPoints {
    /// The Lemma-1 error `d(p_t, τ_r) + d(p_r, τ_t)`.
    pub fn gap(&self) -> f64 {
        self.p_t.distance(self.tau_r) + self.p_r.distance(self.tau_t)
    }
}

/// The simulated bench.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// Link design in effect.
    pub design: LinkDesign,
    /// TX galvo hardware (truth parameters in the TX body frame).
    pub tx: GalvoSim,
    /// TX body frame → world.
    pub tx_pose: Pose,
    /// RX galvo hardware (truth parameters in the RX body frame).
    pub rx: GalvoSim,
    /// Headset body frame → RX body frame mount.
    pub rx_mount: Pose,
    /// The headset (carries its own hidden tracking frames).
    pub headset: Headset,
    /// Photodiode monitor around the RX front.
    pub monitor: QuadrantMonitor,
    /// RMS power-measurement noise (dB).
    pub power_noise_db: f64,
    rng: StdRng,
    /// `2σ_φ²` of `design`, for the per-slot coupling power.
    acceptance: Acceptance,
}

/// `design.coupling.two_sigma_phi_sq(design.theta_half)`, kept with the bits
/// of the four design inputs it depends on. `Deployment::design` is a
/// public field, so a reassigned design is noticed and recomputed instead
/// of read stale.
#[derive(Debug, Clone, Copy)]
struct Acceptance {
    inputs: [u64; 4],
    two_sigma_sq: f64,
}

impl Acceptance {
    fn inputs(d: &LinkDesign) -> [u64; 4] {
        let c = &d.coupling;
        [
            d.theta_half,
            c.sigma_phi0,
            c.sigma_phi_gain,
            c.sigma_phi_sat,
        ]
        .map(f64::to_bits)
    }

    fn new(d: &LinkDesign) -> Acceptance {
        Acceptance {
            inputs: Acceptance::inputs(d),
            two_sigma_sq: d.coupling.two_sigma_phi_sq(d.theta_half),
        }
    }

    /// `2σ_φ²` of `d`, recomputed only when `d` is not the design it was
    /// last computed for.
    fn two_sigma_sq(&mut self, d: &LinkDesign) -> f64 {
        if Acceptance::inputs(d) != self.inputs {
            *self = Acceptance::new(d);
        }
        self.two_sigma_sq
    }
}

impl Deployment {
    /// Builds the standard bench: TX near the world origin firing along +Z,
    /// headset near `(0, 0, 1.75)` with the RX assembly mounted beside it
    /// facing back at the TX. Hardware is drawn as `nominal ± assembly_tol`
    /// from the config's seed.
    pub fn new(cfg: &DeploymentConfig) -> Deployment {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let nominal = GalvoParams::nominal();
        let (pos_mm, ang_deg, gain) = cfg.assembly_tol;
        let tx_truth = if pos_mm > 0.0 || ang_deg > 0.0 || gain > 0.0 {
            nominal.perturbed(&mut rng, pos_mm, ang_deg, gain)
        } else {
            nominal
        };
        let rx_truth = if pos_mm > 0.0 || ang_deg > 0.0 || gain > 0.0 {
            nominal.perturbed(&mut rng, pos_mm, ang_deg, gain)
        } else {
            nominal
        };
        // TX mounted almost axis-aligned (a real install is never perfect).
        let tilt = |rng: &mut StdRng, scale: f64| {
            let axis = v3(
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            )
            .try_normalized(1e-6)
            .unwrap_or(Vec3::X);
            axis_angle(axis, rng.gen_range(-scale..scale))
        };
        let tx_pose = Pose::new(
            tilt(&mut rng, 0.03),
            cfg.tx_position + v3(rng.gen_range(-0.02..0.02), rng.gen_range(-0.02..0.02), 0.0),
        );
        // RX assembly mounted on the headset, rest beam facing back (−Z).
        let rx_mount = Pose::new(
            axis_angle(Vec3::Y, std::f64::consts::PI) * tilt(&mut rng, 0.03),
            v3(0.06, -0.02, 0.05),
        );
        let headset_cfg = HeadsetConfig::random(&mut rng);
        let mut headset = Headset::new(headset_cfg);
        headset.world_pose = Pose::translation(v3(0.0, 0.0, cfg.design.nominal_range));
        Deployment {
            design: cfg.design,
            tx: GalvoSim::new(tx_truth, cfg.galvo_cfg),
            tx_pose,
            rx: GalvoSim::new(rx_truth, cfg.galvo_cfg),
            rx_mount,
            headset,
            monitor: QuadrantMonitor::default(),
            power_noise_db: cfg.power_noise_db,
            rng,
            acceptance: Acceptance::new(&cfg.design),
        }
    }

    /// World pose of the RX assembly body frame (follows the headset).
    pub fn rx_world_pose(&self) -> Pose {
        self.headset.world_pose.compose(&self.rx_mount)
    }

    /// World position of the RX second-mirror pivot `q₂` — bit-identical
    /// to `rx_world_params().q2` without transforming the other eight
    /// parameters.
    pub fn rx_pivot_world(&self) -> Vec3 {
        self.rx_world_pose().apply_point(self.rx.truth.q2)
    }

    /// True TX galvo parameters expressed in world frame.
    pub fn tx_world_params(&self) -> GalvoParams {
        self.tx.truth.transformed(&self.tx_pose)
    }

    /// True RX galvo parameters expressed in world frame.
    pub fn rx_world_params(&self) -> GalvoParams {
        self.rx.truth.transformed(&self.rx_world_pose())
    }

    /// Commands all four galvo voltages; returns the worst settle time (s).
    pub fn set_voltages(&mut self, vt1: f64, vt2: f64, vr1: f64, vr2: f64) -> f64 {
        let a = self.tx.command(vt1, vt2);
        let b = self.rx.command(vr1, vr2);
        a.max(b)
    }

    /// Worst-of-both-galvos settle time for a prospective four-voltage
    /// command, without applying it.
    pub fn settle_estimate(&self, vt1: f64, vt2: f64, vr1: f64, vr2: f64) -> f64 {
        self.tx
            .settle_estimate(vt1, vt2)
            .max(self.rx.settle_estimate(vr1, vr2))
    }

    /// Current voltages `(vt1, vt2, vr1, vr2)`.
    pub fn voltages(&self) -> (f64, f64, f64, f64) {
        let (a, b) = self.tx.voltages();
        let (c, d) = self.rx.voltages();
        (a, b, c, d)
    }

    /// Moves the headset (and with it the RX assembly).
    pub fn set_headset_pose(&mut self, pose: Pose) {
        self.headset.world_pose = pose;
    }

    /// The launched TX beam in world frame (with galvo noise), or `None` if
    /// the internal beam path is broken.
    pub fn tx_beam(&mut self) -> Option<BeamState> {
        let ray_body = self.tx.output_ray(&mut self.rng)?;
        let ray_world = self.tx_pose.apply_ray(&ray_body);
        Some(self.design.make_beam(ray_world))
    }

    /// The reading floor of the power meter / SFP RSSI (dBm): anything
    /// weaker reads as this value, as on the bench.
    pub const POWER_METER_FLOOR_DBM: f64 = -90.0;

    /// Received power at the RX SFP (dBm), including measurement noise,
    /// floored at [`Self::POWER_METER_FLOOR_DBM`].
    pub fn received_power_dbm(&mut self) -> f64 {
        let rx_pose = self.rx_world_pose();
        self.received_power_dbm_at(&rx_pose)
    }

    /// [`Deployment::received_power_dbm`] with the RX world pose already
    /// composed: `rx_pose` must be [`Deployment::rx_world_pose`]. The slot
    /// loop composes it once for the RX pivot and the power.
    pub fn received_power_dbm_at(&mut self, rx_pose: &Pose) -> f64 {
        self.received_power_unfloored_at(rx_pose)
            .max(Self::POWER_METER_FLOOR_DBM)
    }

    /// Received power without the meter floor (`-inf` when the beam misses
    /// entirely) — used by the alignment search, which benefits from the
    /// far-tail gradient an ideal detector would see.
    pub fn received_power_unfloored_dbm(&mut self) -> f64 {
        let rx_pose = self.rx_world_pose();
        self.received_power_unfloored_at(&rx_pose)
    }

    /// [`Deployment::received_power_unfloored_dbm`] at the RX world pose
    /// `rx_pose`, from which both the imaginary beam and the second-mirror
    /// plane are derived.
    fn received_power_unfloored_at(&mut self, rx_pose: &Pose) -> f64 {
        debug_assert_eq!(*rx_pose, self.rx_world_pose(), "stale RX world pose");
        let Some(beam) = self.tx_beam() else {
            return f64::NEG_INFINITY;
        };
        let Some(imag_body) = self.rx.output_ray(&mut self.rng) else {
            return f64::NEG_INFINITY;
        };
        let imag = rx_pose.apply_ray(&imag_body);
        // The RX second-mirror plane at the commanded voltage: the galvo's
        // cached body-frame normal, carried into the world frame.
        let plane = Plane::new(
            rx_pose.apply_point(self.rx.truth.q2),
            rx_pose.apply_dir(self.rx.second_mirror_normal()),
        );
        let Some((t, hit)) = plane.intersect_ray(&beam.chief) else {
            return f64::NEG_INFINITY;
        };
        let delta = hit.distance(imag.origin);
        // Arriving ray direction at the RX, vs. the reversed imaginary beam.
        let arriving = beam.local_ray_dir(imag.origin);
        let phi = arriving
            .angle_to(-imag.dir)
            .min(std::f64::consts::FRAC_PI_2);
        if phi >= std::f64::consts::FRAC_PI_2 {
            return f64::NEG_INFINITY;
        }
        let w = beam.radius_at(t);
        let d = &self.design;
        let two_sigma_sq = self.acceptance.two_sigma_sq(d);
        let eff = d
            .coupling
            .efficiency_db_with(two_sigma_sq, w, delta, phi, d.theta_half);
        let noise = if self.power_noise_db > 0.0 {
            self.power_noise_db * gauss(&mut self.rng)
        } else {
            0.0
        };
        beam.power_dbm + eff + noise
    }

    /// The noiseless geometry, angle limits and mirror tables of an RX
    /// sweep over the second-mirror voltages `columns` at the current TX
    /// voltages and headset pose (see [`DarkCellBound`]), proving cells
    /// that read below `floor_dbm`; `None` when the noiseless TX beam path
    /// is broken and no reading can be bounded. At [`DARK_DBM`] a skipped
    /// cell reads exactly `+0.0`.
    pub(crate) fn dark_cell_bound(
        &self,
        columns: &[f64; RX_SWEEP_POINTS],
        floor_dbm: f64,
    ) -> Option<DarkCellBound> {
        let chief = self.tx_pose.apply_ray(&self.tx.noiseless_output_ray()?);
        let beam = self.design.make_beam(chief);
        // A reading is at most `p_hi + ang_db(φ)`: every other coupling
        // term is ≤ 0 dB, and the power noise is at most MAX_DEVIATE RMS.
        let d = &self.design;
        let p_hi = d.launch_power_dbm()
            + (d.coupling.divergence_loss_db(d.theta_half) + d.coupling.base_insertion_db).max(0.0)
            + self.power_noise_db.max(0.0) * MAX_DEVIATE;
        let sigma = d.coupling.sigma_phi(d.theta_half);
        let phi_dark = ((p_hi - floor_dbm) * 2.0 * sigma * sigma / (10.0 * LOG10_E)).sqrt();
        let margin = self.jitter_margin();
        // The angle limits as cosines (φ ∈ [0, π], so cos is decreasing);
        // an empty interval, or the NaN angle of a floor above `p_hi`,
        // leaves `cos_dark` at −∞, which no cell passes.
        let (dark, lit) = (phi_dark + margin, FRAC_PI_2 - margin);
        let rx_pose = self.rx_world_pose();
        let rx_pivot = rx_pose.apply_point(self.rx.truth.q2);
        let mirrors = MirrorColumns::new(&self.rx, columns);
        let mut plane_until = [RX_SWEEP_POINTS; RX_SWEEP_POINTS];
        let mut next = RX_SWEEP_POINTS;
        for j in (0..RX_SWEEP_POINTS).rev() {
            if !meets_plane_robustly(&chief, &rx_pose, rx_pivot, mirrors.n2p[j], margin) {
                next = j;
            }
            plane_until[j] = next;
        }
        Some(DarkCellBound {
            tx_volts: self.tx.voltages(),
            source: beam.virtual_source(),
            chief,
            rx_pose,
            cos_dark: if dark < lit {
                dark.cos()
            } else {
                f64::NEG_INFINITY
            },
            cos_lit: lit.cos(),
            phi_dark: dark,
            phi_lit: lit,
            mirrors,
            plane_until,
        })
    }

    /// How far (rad) the jitter of both galvos can move the noiseless
    /// incidence angle. Each mirror tilts by at most `max_jitter_rad` and
    /// deflects by twice that; four times the worst case of both
    /// assemblies covers the µm shifts of the beam origins, and 1 nrad the
    /// rounding.
    fn jitter_margin(&self) -> f64 {
        4.0 * 4.0 * (self.tx.max_jitter_rad() + self.rx.max_jitter_rad()) + 1e-9
    }

    /// The geometry, jitter slack and mirror table of a TX coarse sweep on
    /// the monitor over the second-mirror voltages `columns`, at the
    /// current headset pose (see [`MonitorDarkBound`]).
    pub(crate) fn monitor_dark_bound(&self, columns: &[f64; TX_SWEEP_POINTS]) -> MonitorDarkBound {
        let tilt = self.tx.max_jitter_rad();
        MonitorDarkBound {
            mirrors: MirrorColumns::new(&self.tx, columns),
            tx_pose: self.tx_pose,
            monitor: self.placed_monitor(),
            profile: self.design.make_beam(Ray::new(Vec3::ZERO, Vec3::Z)),
            ring_radius: self.monitor.ring_radius,
            capture_radius: self
                .monitor
                .diode_radius
                .max(self.design.coupling.aperture_radius),
            jitter_dir: 4.0 * tilt,
            jitter_origin: 2.0 * JITTER_LEVER_M * tilt,
        }
    }

    /// Whether a TX sweep reading of the monitor at the current voltages is
    /// provably `+0.0` by the per-cell form of
    /// [`MonitorDarkBound::dark_run`]: from the commanded galvo state
    /// rather than the sweep tables, and without a run. The reference the
    /// tables and runs are tested against.
    #[cfg(test)]
    pub(crate) fn monitor_dark_per_cell(&self, b: &MonitorDarkBound) -> bool {
        assert_eq!(
            self.placed_monitor(),
            b.monitor,
            "bound is for another pose"
        );
        self.tx.noiseless_output_ray().is_some_and(|out| {
            b.landing(&self.tx_pose.apply_ray(&out))
                .is_some_and(|l| b.clears(&l, 0, 0.0))
        })
    }

    /// The per-cell form of [`DarkCellBound::dark_run`] at the current
    /// voltages, from the commanded galvo state rather than the sweep
    /// tables, and without a run: the reference the tables and runs are
    /// tested against.
    #[cfg(test)]
    pub(crate) fn proves_dark_per_cell(&self, b: &DarkCellBound) -> bool {
        let Some(imag) = self.rx.noiseless_output_ray() else {
            return false;
        };
        b.dark_angle(&imag)
            && meets_plane_robustly(
                &b.chief,
                &b.rx_pose,
                self.rx_pivot_world(),
                self.rx.second_mirror_normal(),
                self.jitter_margin(),
            )
    }

    /// True if the link currently closes (received power ≥ sensitivity).
    pub fn link_up(&mut self) -> bool {
        self.received_power_dbm() >= self.design.sfp.rx_sensitivity_dbm
    }

    /// The photodiode-monitor feedback signal used by the coarse alignment
    /// search. The monitor ring is fixed to the RX front (centred on the RX
    /// galvo's second-mirror pivot, facing the TX), so it depends only on
    /// where the TX beam lands — not on the RX galvo steering. `monitor`
    /// must be [`Deployment::placed_monitor`]: the search places it once
    /// for all its readings at one headset pose.
    pub(crate) fn monitor_signal_at(&mut self, monitor: &PlacedMonitor) -> f64 {
        debug_assert_eq!(*monitor, self.placed_monitor(), "stale monitor placement");
        let Some(beam) = self.tx_beam() else {
            return 0.0;
        };
        monitor.search_signal(&beam, self.design.coupling.aperture_radius)
    }

    /// The monitor ring on its plane: centred on the RX second-mirror pivot
    /// and facing the TX second-mirror pivot, both exactly as
    /// `GalvoParams::transformed` maps them. Only the headset pose moves
    /// it.
    pub(crate) fn placed_monitor(&self) -> PlacedMonitor {
        let rx_q2 = self.rx_pivot_world();
        let tx_q2 = self.tx_pose.apply_point(self.tx.truth.q2);
        let axis = (tx_q2 - rx_q2).try_normalized(1e-9).unwrap_or(Vec3::Z);
        self.monitor.place(&ReceiverGeometry::new(rx_q2, axis))
    }

    /// The Lemma-1 point pairs at the current voltages, computed from the
    /// *noiseless* truth (analysis/testing aid).
    pub fn lemma_points(&self) -> Option<LemmaPoints> {
        let txp = self.tx_world_params();
        let rxp = self.rx_world_params();
        let (vt1, vt2) = self.tx.voltages();
        let (vr1, vr2) = self.rx.voltages();
        let beam_t = txp.trace(vt1, vt2)?;
        let beam_r = rxp.trace(vr1, vr2)?;
        let rx_plane = rxp.second_mirror_plane(vr2);
        let tx_plane = txp.second_mirror_plane(vt2);
        let (_, tau_t) = rx_plane.intersect_line(&beam_t)?;
        let (_, tau_r) = tx_plane.intersect_line(&beam_r)?;
        Some(LemmaPoints {
            p_t: beam_t.origin,
            tau_t,
            p_r: beam_r.origin,
            tau_r,
        })
    }

    /// Borrow of the internal RNG for experiment code that needs correlated
    /// randomness (e.g. the tracker sampling).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

/// Readings below this (dBm) convert to exactly `+0.0` mW: `dbm_to_mw`
/// underflows below ≈ −3236 dBm.
pub(crate) const DARK_DBM: f64 = -3400.0;

/// Points in each axis of the §4.2 RX coarse sweep; the column table of a
/// [`DarkCellBound`] holds one entry per point.
pub(crate) const RX_SWEEP_POINTS: usize = 161;

/// [`DarkCellBound::pilot_row`] samples every this-many rows and columns.
const PILOT_STRIDE: usize = 8;

/// Points in each axis of the §4.2 TX coarse sweep on the monitor; the
/// column table of a [`MonitorDarkBound`] holds one entry per point.
pub(crate) const TX_SWEEP_POINTS: usize = 51;

/// Metres the beam's origin on the second mirror can move per radian of
/// jitter tilt of either mirror. The path inside an assembly is centimetres
/// long and meets each mirror far from grazing, so the true factor is a
/// few centimetres (a test pins it below a tenth of this).
const JITTER_LEVER_M: f64 = 1.0;

/// Rounding slack of the monitor landing bound (m) and of the RX run's
/// angle (rad).
const LANDING_ROUNDING_M: f64 = 1e-6;
const ANGLE_ROUNDING_RAD: f64 = 1e-9;

/// The smallest `|cos|` between a TX chief ray and the monitor plane that
/// the landing bound accepts: nearer grazing, the landing point runs away.
const MIN_LANDING_COS: f64 = 1e-2;

/// Whether the TX chief ray meets the RX second-mirror plane (body-frame
/// normal `n2p`) under any jitter. Otherwise the full reading returns early
/// without the power noise.
fn meets_plane_robustly(
    chief: &Ray,
    rx_pose: &Pose,
    rx_pivot: Vec3,
    n2p: Vec3,
    margin: f64,
) -> bool {
    let normal = rx_pose.apply_dir(n2p);
    let cos = chief.dir.dot(normal);
    let ahead = (rx_pivot - chief.origin).dot(normal) * cos.signum();
    cos.abs() > margin.max(1e-2) && ahead > 1e-2 * cos.abs()
}

/// A coarse voltage-pair sweep whose dark cells can be skipped. Rows step
/// the swept galvo's first mirror, columns its second; a row is tested in
/// column order by a [`DarkRow`].
pub(crate) trait DarkSweep {
    /// Row `va`'s noiseless mid-mirror ray and run data on `dep`, or `None`
    /// when no cell of the row can be proved dark.
    fn row(&self, dep: &Deployment, va: f64) -> Option<SweepRow>;

    /// The first column at or after `j` whose table flags forbid skipping a
    /// dark cell there, or the sweep's column count when none does.
    fn skippable_until(&self, j: usize) -> usize;

    /// Whether column `j`'s table flags let a dark cell there be skipped.
    #[cfg(test)]
    fn column_skippable(&self, j: usize) -> bool {
        self.skippable_until(j) > j
    }

    /// When cell `j` of `row` provably reads `+0.0`, how many of the
    /// following columns provably do too: `Some(0)` proves the cell alone.
    fn dark_run(&self, row: &SweepRow, j: usize) -> Option<usize>;

    /// Makes the RNG draws of `n` skipped readings, in order.
    fn replay(dep: &mut Deployment, n: usize);
}

/// One sweep row's dark cells, asked for in column order: a cell is
/// skipped when its column allows it and it lies in a run that
/// [`DarkSweep::dark_run`] proved, so one test covers a whole run, and the
/// row steps over the run's cells at once.
pub(crate) struct DarkRow<'b, B> {
    bound: &'b B,
    row: SweepRow,
    /// Cells before this column are proved dark by the last run.
    run_end: usize,
}

impl<'b, B: DarkSweep> DarkRow<'b, B> {
    /// Row `va` of `bound` on `dep`; `None` when no cell can be skipped.
    pub(crate) fn new(bound: &'b B, dep: &Deployment, va: f64) -> Option<DarkRow<'b, B>> {
        Some(DarkRow {
            row: bound.row(dep, va)?,
            bound,
            run_end: 0,
        })
    }

    /// How many cells from `j` on read `+0.0` without the physics: the
    /// proved run through `j`, cut at the next column whose flags forbid a
    /// skip; 0 when cell `j` needs its full reading. `j` must not decrease
    /// from call to call.
    #[inline]
    pub(crate) fn dark_cells(&mut self, j: usize) -> usize {
        let open = self.bound.skippable_until(j);
        if open == j {
            return 0;
        }
        if j >= self.run_end {
            let Some(run) = self.bound.dark_run(&self.row, j) else {
                return 0;
            };
            self.run_end = j + 1 + run;
        }
        self.run_end.min(open) - j
    }
}

/// A sweep row's noiseless mid-mirror ray and what bounds its runs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SweepRow {
    /// The swept galvo's noiseless beam between its mirrors, body frame.
    mid: Ray,
    /// How far (m) the beam's origin on the second mirror can move per
    /// radian of mirror-2 rotation anywhere in the row; `None` when the
    /// mid ray does not meet mirror 2 robustly at every column, so that no
    /// run may cross one.
    origin_rate: Option<f64>,
}

/// The swept galvo's second-mirror table of one sweep, computed once.
#[derive(Debug, Clone)]
struct MirrorColumns<const N: usize> {
    truth: GalvoParams,
    /// Second-mirror normal at each column's quantized voltage, body frame:
    /// the value [`GalvoSim::command`] caches.
    n2p: [Vec3; N],
    /// Bound on the mirror-2 rotation (rad) between neighbouring columns.
    step_rad: f64,
    /// Bound on the rotation from the middle column's normal to any
    /// column's normal, jitter included.
    reach_rad: f64,
}

impl<const N: usize> MirrorColumns<N> {
    fn new(galvo: &GalvoSim, columns: &[f64; N]) -> MirrorColumns<N> {
        // `command` clamps and rounds to the DAC step, so two quantized
        // voltages differ by at most their raw gap plus one step, and a
        // normal turns by the gain times that.
        let gain = galvo.truth.theta1.abs();
        let dac = galvo.cfg.dac_step_v.max(0.0);
        let step = columns
            .windows(2)
            .map(|w| (w[1] - w[0]).abs())
            .fold(0.0, f64::max);
        let centre = columns[N / 2];
        let reach = columns
            .iter()
            .map(|v| (v - centre).abs())
            .fold(0.0, f64::max);
        MirrorColumns {
            truth: galvo.truth,
            n2p: columns.map(|v| galvo.second_mirror_normal_at(v)),
            step_rad: gain * (step + dac),
            reach_rad: gain * (reach + dac) + galvo.max_jitter_rad(),
        }
    }

    /// Row `va` of a sweep of `galvo`. Every column's normal lies within
    /// `reach_rad` of the middle one `n`, so with `N = (q₂ − o)·n` and
    /// `D = d·n` for the mid ray `(o, d)` (each moving by at most its
    /// vector's norm per radian), a row where neither can reach zero hits
    /// mirror 2 ahead at every column. Its hit `o + (N/D)·d` then moves by
    /// at most `2·|q₂ − o|·|d|²/D_min²` per radian.
    fn row(&self, galvo: &GalvoSim, va: f64) -> Option<SweepRow> {
        let mid = galvo.noiseless_mid_ray(va)?;
        let n = self.n2p[N / 2];
        let to_q2 = self.truth.q2 - mid.origin;
        let (num, den) = (to_q2.dot(n), mid.dir.dot(n));
        let (lever, dir) = (to_q2.norm(), mid.dir.norm());
        let den_min = den.abs() - dir * self.reach_rad;
        let robust = num * den > 0.0 && num.abs() > lever * self.reach_rad && den_min > 1e-3;
        Some(SweepRow {
            mid,
            origin_rate: robust.then(|| 2.0 * lever * dir * dir / (den_min * den_min)),
        })
    }

    /// The noiseless output ray at column `j` of `row`, body frame.
    #[inline]
    fn out_ray(&self, row: &SweepRow, j: usize) -> Option<Ray> {
        self.truth.out_ray(&row.mid, self.n2p[j])
    }
}

/// What [`DarkCellBound::dark_run`] needs to prove RX sweep cells below a
/// floor from noiseless geometry alone, computed once per sweep.
///
/// While only the RX voltages move, the TX beam and the RX pose are fixed.
/// A cell reads below the floor once its incidence angle `φ` is so far
/// outside the fiber's Gaussian acceptance that the best case — launch
/// power, no other loss, the largest power-noise deviate — is below it.
/// The noiseless `φ` must exceed that angle, and stay below `π/2`, by a
/// margin that covers the largest galvo jitter a bounded Box–Muller draw
/// can give. At the floor [`DARK_DBM`] such a cell reads `+0.0` mW (the
/// dark bound); at a floor below a reading the sweep itself makes, it
/// cannot be the sweep's argmax (the cannot-win bound).
///
/// The second-mirror normal and the plane test depend only on the column,
/// so they are tabled per column; the mirror-1 beam depends only on the
/// row ([`DarkSweep::row`]). A cell is then one reflection and one angle
/// test, the same arithmetic the commanded galvo would do.
#[derive(Debug, Clone)]
pub(crate) struct DarkCellBound {
    tx_volts: (f64, f64),
    /// The noiseless TX chief ray and its beam's virtual source, world
    /// frame.
    chief: Ray,
    source: Option<Vec3>,
    rx_pose: Pose,
    /// `cos φ` below which a reading is below the floor.
    cos_dark: f64,
    /// `cos φ` above which the full path stays under `π/2`.
    cos_lit: f64,
    /// The same two limits as angles, for the run bound.
    phi_dark: f64,
    phi_lit: f64,
    mirrors: MirrorColumns<RX_SWEEP_POINTS>,
    /// For each column, the first column at or after it whose mirror plane
    /// the chief ray may miss under some jitter (the plane flag is down),
    /// or [`RX_SWEEP_POINTS`].
    plane_until: [usize; RX_SWEEP_POINTS],
}

impl DarkCellBound {
    /// `cos φ` of the noiseless imaginary beam `imag` (RX body frame)
    /// against the TX light where it starts, and the length of the
    /// arriving vector that `cos φ` was normalized by.
    #[inline]
    fn incidence(&self, imag: &Ray) -> (f64, f64) {
        // The direction the TX light travels where the imaginary beam
        // starts (`BeamState::local_ray_dir`, unnormalized).
        let origin = self.rx_pose.apply_point(imag.origin);
        let back = -self.rx_pose.apply_dir(imag.dir);
        let arriving = self.source.map_or(self.chief.dir, |src| origin - src);
        let norm = arriving.norm();
        (arriving.dot(back) / norm, norm)
    }

    /// This bound with column `k`'s plane flag down, as when the chief ray
    /// may miss that column's mirror plane.
    #[cfg(test)]
    pub(crate) fn with_plane_flag_down(mut self, k: usize) -> DarkCellBound {
        for until in &mut self.plane_until[..=k] {
            *until = (*until).min(k);
        }
        self
    }

    /// Whether the noiseless imaginary beam `imag` (RX body frame) meets
    /// the TX light at an angle that reads dark under any jitter.
    #[cfg(test)]
    fn dark_angle(&self, imag: &Ray) -> bool {
        let cos_phi = self.incidence(imag).0;
        cos_phi < self.cos_dark && cos_phi > self.cos_lit
    }

    /// The pilot row of a sweep whose rows step the RX first mirror
    /// through `rows`: the row of the cell, among every
    /// [`PILOT_STRIDE`]-th row and column, whose noiseless imaginary beam
    /// meets the TX light most nearly head-on (the largest `cos φ`). Row 0
    /// when no sampled cell traces. Any row is a correct pilot; one near
    /// the sweep's peak prunes more.
    pub(crate) fn pilot_row(&self, dep: &Deployment, rows: &[f64; RX_SWEEP_POINTS]) -> usize {
        let mut best = (0, f64::NEG_INFINITY);
        for i in (0..RX_SWEEP_POINTS).step_by(PILOT_STRIDE) {
            let Some(row) = self.row(dep, rows[i]) else {
                continue;
            };
            for j in (0..RX_SWEEP_POINTS).step_by(PILOT_STRIDE) {
                if let Some(imag) = self.mirrors.out_ray(&row, j) {
                    let cos_phi = self.incidence(&imag).0;
                    if cos_phi > best.1 {
                        best = (i, cos_phi);
                    }
                }
            }
        }
        best.0
    }
}

impl DarkSweep for DarkCellBound {
    fn row(&self, dep: &Deployment, va: f64) -> Option<SweepRow> {
        debug_assert_eq!(
            dep.tx.voltages(),
            self.tx_volts,
            "bound is for other TX voltages"
        );
        self.mirrors.row(&dep.rx, va)
    }

    #[inline]
    fn skippable_until(&self, j: usize) -> usize {
        self.plane_until[j]
    }

    /// A cell is dark when its noiseless `φ` lies inside the dark band.
    /// Column by column the imaginary beam turns by at most twice the
    /// mirror step, and its origin moves by `shift`, which turns the
    /// arriving light by at most `2·shift/|arriving|` while the total move
    /// stays under half of `|arriving|`. So `φ` stays in the band for as
    /// many columns as that per-column turn fits into its distance to the
    /// nearer limit.
    #[inline]
    fn dark_run(&self, row: &SweepRow, j: usize) -> Option<usize> {
        let imag = self.mirrors.out_ray(row, j)?;
        let (cos_phi, arriving) = self.incidence(&imag);
        if !(cos_phi < self.cos_dark && cos_phi > self.cos_lit) {
            return None;
        }
        let Some(rate) = row.origin_rate else {
            return Some(0);
        };
        let phi = cos_phi.clamp(-1.0, 1.0).acos();
        let excess = (phi - self.phi_dark).min(self.phi_lit - phi) - ANGLE_ROUNDING_RAD;
        let shift = rate * self.mirrors.step_rad;
        let turn = match self.source {
            Some(_) => 2.0 * shift / arriving,
            None => 0.0,
        };
        let run = (excess / (2.0 * self.mirrors.step_rad + turn))
            .min(0.5 * arriving / shift)
            .min(RX_SWEEP_POINTS as f64);
        // Saturating: a negative or NaN run is no run.
        Some(run as usize)
    }

    /// A skipped reading reaches its power-noise draw, so each is the TX
    /// jitter, the RX jitter and the power noise, through the helpers the
    /// full reading draws with.
    fn replay(dep: &mut Deployment, n: usize) {
        for _ in 0..n {
            dep.tx.skip_output_ray(&mut dep.rng);
            dep.rx.skip_output_ray(&mut dep.rng);
            if dep.power_noise_db > 0.0 {
                skip_gauss(&mut dep.rng);
            }
        }
    }
}

/// Where a noiseless TX chief ray meets the monitor plane.
#[derive(Debug, Clone, Copy)]
struct Landing {
    /// Distance from the landing point to the aperture centre (m).
    dist: f64,
    /// `|cos|` between the chief ray and the plane normal.
    cos: f64,
    /// Distance from the chief ray's origin to the plane (m).
    depth: f64,
}

/// What [`MonitorDarkBound::dark_run`] needs to prove TX sweep cells dark
/// on the photodiode monitor, computed once per sweep.
///
/// While only the TX voltages move, the monitor plane is fixed. A reading
/// is `+0.0` when each of its five `capture_fraction` terms takes the
/// `δ > 8w + a` early exit: the jittered landing point lies more than
/// `8·w + max(diode radius, aperture radius)` beyond the diode ring, with
/// `w` the beam radius at the jittered path length. The noiseless landing
/// point is moved by at most a jitter slack, and the path length bounded,
/// from the noiseless chief ray, the largest tilt and the plane angle.
/// Every other exit of the reading is `+0.0` as well, and every exit
/// draws the same TX jitter, so only the landing needs proving.
#[derive(Debug, Clone)]
pub(crate) struct MonitorDarkBound {
    mirrors: MirrorColumns<TX_SWEEP_POINTS>,
    tx_pose: Pose,
    /// The monitor as placed for every reading of the sweep.
    monitor: PlacedMonitor,
    /// The launched beam's profile (its chief ray is unused).
    profile: BeamState,
    ring_radius: f64,
    capture_radius: f64,
    /// Bounds on how far the jitter turns the chief ray (rad) and moves
    /// its origin (m).
    jitter_dir: f64,
    jitter_origin: f64,
}

impl MonitorDarkBound {
    /// The monitor as placed for the sweep's readings.
    pub(crate) fn monitor(&self) -> &PlacedMonitor {
        &self.monitor
    }

    /// Where `chief` (world frame) lands on the monitor plane, or `None`
    /// unless it heads at the plane from in front of it.
    #[inline]
    fn landing(&self, chief: &Ray) -> Option<Landing> {
        let geom = &self.monitor.rx;
        let n = geom.axis;
        let cos = chief.dir.dot(n);
        let ahead = (geom.aperture_center - chief.origin).dot(n);
        if !(cos < 0.0 && ahead < 0.0) {
            return None;
        }
        let hit = chief.point_at(ahead / cos);
        Some(Landing {
            dist: (hit - geom.aperture_center).norm(),
            cos: -cos,
            depth: -ahead,
        })
    }

    /// A lower bound on how far beyond its dark limit every jittered ray
    /// of the `k` columns after `l`'s lands, in a row of `origin_rate`
    /// ([`SweepRow`]); −∞ unless each such ray surely meets the plane from
    /// in front. Each column turns the chief ray by at most twice the
    /// mirror step and moves its origin by the rate times the step; the
    /// jitter adds its own slack.
    ///
    /// A unit direction `d` from origin `o` lands at `o + p·d/(d·n)`, with
    /// `p = (c − o)·n`. Turning `d` at unit angular speed moves `d/(d·n)`
    /// by at most `1/(d·n)²`, and `|d·n|` stays above `|s| − ε` along a
    /// turn of `ε`; moving the origin by `δo` then moves the landing point
    /// by at most `δo(1 + 1/|s′|)`. The path is at most
    /// `(|p| + δo)/|s′|`.
    #[inline]
    fn excess(&self, l: &Landing, k: usize, origin_rate: f64) -> f64 {
        let turn = self.mirrors.step_rad * k as f64;
        let eps = self.jitter_dir + 2.0 * turn;
        let d_o = self.jitter_origin + origin_rate * turn;
        let cos_lo = l.cos - eps;
        if !(cos_lo > MIN_LANDING_COS && l.depth > d_o) {
            return f64::NEG_INFINITY;
        }
        let shift = l.depth * eps / (cos_lo * cos_lo) + d_o * (1.0 + 1.0 / cos_lo);
        let w = self.profile.radius_at((l.depth + d_o) / cos_lo);
        l.dist - self.ring_radius - shift - 8.0 * w - self.capture_radius - LANDING_ROUNDING_M
    }

    /// Whether [`MonitorDarkBound::excess`] proves those rays dark.
    #[inline]
    fn clears(&self, l: &Landing, k: usize, origin_rate: f64) -> bool {
        self.excess(l, k, origin_rate) > 0.0
    }
}

impl DarkSweep for MonitorDarkBound {
    fn row(&self, dep: &Deployment, va: f64) -> Option<SweepRow> {
        self.mirrors.row(&dep.tx, va)
    }

    #[inline]
    fn skippable_until(&self, _: usize) -> usize {
        TX_SWEEP_POINTS
    }

    /// A cell is dark when its own landing clears the limit. Every term of
    /// the bound grows with the run length, so a run is proved by its last
    /// cell alone, and the longest proved run is found by bisection.
    #[inline]
    fn dark_run(&self, row: &SweepRow, j: usize) -> Option<usize> {
        let out = self.mirrors.out_ray(row, j)?;
        let l = self.landing(&self.tx_pose.apply_ray(&out))?;
        if !self.clears(&l, 0, 0.0) {
            return None;
        }
        let Some(rate) = row.origin_rate else {
            return Some(0);
        };
        // Runs up to `proved` are proved; `refuted` is not.
        let (mut proved, mut refuted) = (0, TX_SWEEP_POINTS + 1);
        while refuted - proved > 1 {
            let mid = (proved + refuted) / 2;
            if self.clears(&l, mid, rate) {
                proved = mid;
            } else {
                refuted = mid;
            }
        }
        Some(proved)
    }

    /// A monitor reading draws the TX jitter and nothing else, on every
    /// exit path.
    fn replay(dep: &mut Deployment, n: usize) {
        for _ in 0..n {
            dep.tx.skip_output_ray(&mut dep.rng);
        }
    }
}

/// Steers both galvos to near-perfect alignment using the hidden truth —
/// a white-box shortcut for tests and experiment setup (the learner must
/// instead use [`crate::alignment::exhaustive_align`]).
///
/// Minimizes the true Lemma-1 gap by coarse-to-fine compass search, which by
/// Lemma 1 maximizes received power.
#[doc(hidden)]
pub fn cheat_align(dep: &mut Deployment) {
    // Aim the TX beam at the RX second-mirror pivot and vice versa by
    // local search on the true geometry, minimizing the Lemma-1 gap.
    let obj = |v: &[f64], dep: &mut Deployment| -> f64 {
        dep.set_voltages(v[0], v[1], v[2], v[3]);
        dep.lemma_points().map_or(1e9, |lp| lp.gap())
    };
    let mut best = vec![0.0; 4];
    let mut best_val = obj(&best, dep);
    // Coarse-to-fine compass search.
    let mut step = 2.0;
    while step > 1e-6 {
        let mut improved = false;
        for dim in 0..4 {
            for sign in [1.0, -1.0] {
                let mut cand = best.clone();
                cand[dim] += sign * step;
                let v = obj(&cand, dep);
                if v < best_val {
                    best_val = v;
                    best = cand;
                    improved = true;
                }
            }
        }
        if !improved {
            step *= 0.5;
        }
    }
    dep.set_voltages(best[0], best[1], best[2], best[3]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclops_geom::mat3::Mat3;
    use cyclops_optics::power::dbm_to_mw;
    use rand::RngCore;

    #[test]
    fn aligned_link_closes_with_expected_power() {
        let mut dep = Deployment::new(&DeploymentConfig::ideal_10g(1));
        cheat_align(&mut dep);
        let p = dep.received_power_dbm();
        assert!(
            (p - (-10.0)).abs() < 3.0,
            "peak aligned power {p} dBm (Table 1: ≈ −10 dBm)"
        );
        assert!(dep.link_up());
    }

    #[test]
    fn zero_voltages_miss_by_default() {
        // With assembly/mount perturbations, an untrained link at rest
        // voltages typically misses the tiny fiber target.
        let mut dep = Deployment::new(&DeploymentConfig::paper_10g(3));
        let p = dep.received_power_dbm();
        assert!(p < dep.design.sfp.rx_sensitivity_dbm + 3.0, "power {p}");
    }

    #[test]
    fn lemma_gap_small_at_max_power_and_power_falls_with_gap() {
        let mut dep = Deployment::new(&DeploymentConfig::ideal_10g(2));
        cheat_align(&mut dep);
        let lp = dep.lemma_points().unwrap();
        assert!(lp.gap() < 1e-4, "gap {} m at alignment", lp.gap());
        let p0 = dep.received_power_dbm();
        // Mis-steer the TX slightly: gap grows, power falls.
        let (a, b, c, d) = dep.voltages();
        dep.set_voltages(a + 0.2, b, c, d);
        let lp2 = dep.lemma_points().unwrap();
        assert!(lp2.gap() > lp.gap());
        assert!(dep.received_power_dbm() < p0 - 1.0);
    }

    #[test]
    fn monitor_signal_guides_towards_alignment() {
        let mut dep = Deployment::new(&DeploymentConfig::ideal_10g(4));
        cheat_align(&mut dep);
        let aligned_sig = dep.monitor_signal_at(&dep.placed_monitor());
        let (a, b, c, d) = dep.voltages();
        dep.set_voltages(a + 1.0, b, c, d); // ~44 mrad mirror = way off
        let off_sig = dep.monitor_signal_at(&dep.placed_monitor());
        assert!(aligned_sig > off_sig, "{aligned_sig} vs {off_sig}");
    }

    #[test]
    fn moving_the_headset_breaks_alignment() {
        let mut dep = Deployment::new(&DeploymentConfig::ideal_10g(5));
        cheat_align(&mut dep);
        assert!(dep.link_up());
        let mut pose = dep.headset.world_pose;
        pose.trans += v3(0.05, 0.0, 0.0); // 5 cm sideways
        dep.set_headset_pose(pose);
        assert!(
            !dep.link_up(),
            "5 cm without re-pointing must break the link"
        );
    }

    #[test]
    fn deployment_is_deterministic_per_seed() {
        let mut a = Deployment::new(&DeploymentConfig::paper_10g(9));
        let mut b = Deployment::new(&DeploymentConfig::paper_10g(9));
        a.set_voltages(0.1, 0.2, 0.3, 0.4);
        b.set_voltages(0.1, 0.2, 0.3, 0.4);
        assert_eq!(a.received_power_dbm(), b.received_power_dbm());
        let mut c = Deployment::new(&DeploymentConfig::paper_10g(10));
        c.set_voltages(0.1, 0.2, 0.3, 0.4);
        // Different seed → different hardware.
        assert_ne!(a.tx.truth, c.tx.truth);
    }

    /// The RX imaginary beam (time-reversed collimator launch) in world
    /// frame, with galvo noise.
    fn rx_imaginary_ray(dep: &mut Deployment) -> Option<Ray> {
        let ray_body = dep.rx.output_ray(&mut dep.rng)?;
        Some(dep.rx_world_pose().apply_ray(&ray_body))
    }

    /// [`Deployment::received_power_dbm`] from public parts: the noisy TX
    /// beam and RX imaginary ray, the RX plane of the commanded
    /// second-mirror normal, `efficiency_db` (which recomputes `σ_φ`), and
    /// the power noise, in the reading's draw order.
    fn reference_power_dbm(dep: &mut Deployment) -> f64 {
        let floor = Deployment::POWER_METER_FLOOR_DBM;
        let Some(beam) = dep.tx_beam() else {
            return floor;
        };
        let Some(imag) = rx_imaginary_ray(dep) else {
            return floor;
        };
        let normal = dep.rx_world_pose().apply_dir(dep.rx.second_mirror_normal());
        let plane = Plane::new(dep.rx_pivot_world(), normal);
        let Some((t, hit)) = plane.intersect_ray(&beam.chief) else {
            return floor;
        };
        let delta = hit.distance(imag.origin);
        let phi = beam
            .local_ray_dir(imag.origin)
            .angle_to(-imag.dir)
            .min(FRAC_PI_2);
        if phi >= FRAC_PI_2 {
            return floor;
        }
        let d = dep.design;
        let eff = d
            .coupling
            .efficiency_db(beam.radius_at(t), delta, phi, d.theta_half);
        let noise = if dep.power_noise_db > 0.0 {
            dep.power_noise_db * gauss(dep.rng())
        } else {
            0.0
        };
        (beam.power_dbm + eff + noise).max(floor)
    }

    #[test]
    fn received_power_is_bit_identical_to_its_public_parts() {
        // Seeded poses around alignment and voltage sets from near-aligned
        // to far off, on the 10G design and again after `design` is
        // reassigned to the 25G one (the cached 2σ_φ² must follow).
        let mut rng = StdRng::seed_from_u64(71);
        let (mut n, mut lit, mut dark) = (0, 0, 0);
        for seed in 0..4 {
            let mut dep = Deployment::new(&DeploymentConfig::paper_10g(40 + seed));
            cheat_align(&mut dep);
            let (home, aligned) = (dep.headset.world_pose, dep.voltages());
            for design in [None, Some(LinkDesign::twenty_five_g(20.0e-3, 1.75))] {
                if let Some(d) = design {
                    dep.design = d;
                }
                for k in 0..30 {
                    let mut off = |r: f64| rng.gen_range(-r..r);
                    let axis = v3(off(1.0), off(1.0), off(1.0));
                    let tilt = axis_angle(axis.try_normalized(1e-6).unwrap_or(Vec3::X), off(5e-3));
                    let shift = v3(off(5e-3), off(5e-3), off(5e-3));
                    dep.set_headset_pose(Pose::new(tilt * home.rot, home.trans + shift));
                    let dv = [0.02, 0.2, 1.0][k % 3];
                    dep.set_voltages(
                        aligned.0 + off(dv),
                        aligned.1 + off(dv),
                        aligned.2 + off(dv),
                        aligned.3 + off(dv),
                    );
                    let mut twin = dep.clone();
                    let got = dep.received_power_dbm();
                    let want = reference_power_dbm(&mut twin);
                    assert_eq!(got.to_bits(), want.to_bits(), "seed {seed} case {k}");
                    assert_eq!(dep.rng(), twin.rng(), "draws differ");
                    n += 1;
                    lit += (got >= dep.design.sfp.rx_sensitivity_dbm) as usize;
                    dark += (got == Deployment::POWER_METER_FLOOR_DBM) as usize;
                }
            }
        }
        assert!(
            n >= 200 && lit >= 40 && dark >= 10,
            "{n} cases, {lit} lit, {dark} dark"
        );
    }

    /// How many uniforms (one `next_u64` each) took `before` to `after`.
    fn draws_between(before: &StdRng, after: &StdRng) -> usize {
        let mut r = before.clone();
        for k in 0..64 {
            if &r == after {
                return k;
            }
            r.next_u64();
        }
        panic!("more than 64 draws apart");
    }

    /// Whether the noiseless TX chief ray meets the RX second-mirror plane.
    fn chief_meets_rx_plane(dep: &Deployment) -> bool {
        let chief = dep
            .tx_pose
            .apply_ray(&dep.tx.noiseless_output_ray().unwrap());
        let normal = dep.rx_world_pose().apply_dir(dep.rx.second_mirror_normal());
        Plane::new(dep.rx_pivot_world(), normal)
            .intersect_ray(&chief)
            .is_some()
    }

    /// `(reading, uniforms drawn)` of one unfloored power reading.
    fn reading_draws(dep: &mut Deployment) -> (f64, usize) {
        let before = dep.rng().clone();
        let p = dep.received_power_unfloored_dbm();
        (p, draws_between(&before, dep.rng()))
    }

    #[test]
    fn power_reading_draws_are_pinned_per_exit_path() {
        let base = || {
            let mut dep = Deployment::new(&DeploymentConfig::paper_10g(11));
            cheat_align(&mut dep);
            dep
        };
        // Two uniforms per mirror jitter, two per galvo, two for the power
        // noise.
        let mut dep = base();
        let (p, n) = reading_draws(&mut dep);
        assert!(p.is_finite());
        assert_eq!(n, 10, "full path with power noise");
        dep.power_noise_db = 0.0;
        assert_eq!(
            reading_draws(&mut dep).1,
            8,
            "full path without power noise"
        );

        // The input beam turned away from the first mirror breaks a trace.
        let broken = |g: &GalvoSim| {
            let truth = GalvoParams {
                x0: -g.truth.x0,
                ..g.truth
            };
            GalvoSim::new(truth, g.cfg)
        };
        let mut dep = base();
        dep.tx = broken(&dep.tx);
        assert_eq!(
            reading_draws(&mut dep),
            (f64::NEG_INFINITY, 4),
            "TX trace fails"
        );
        let mut dep = base();
        dep.rx = broken(&dep.rx);
        assert_eq!(
            reading_draws(&mut dep),
            (f64::NEG_INFINITY, 8),
            "RX trace fails"
        );

        // The TX turned round fires away from the RX second-mirror plane.
        let mut dep = base();
        dep.tx_pose.rot = axis_angle(Vec3::Y, std::f64::consts::PI) * dep.tx_pose.rot;
        assert!(!chief_meets_rx_plane(&dep));
        assert_eq!(
            reading_draws(&mut dep),
            (f64::NEG_INFINITY, 8),
            "plane missed"
        );

        // The RX mounted facing away from the TX: the plane is still hit,
        // but the imaginary beam leaves at φ ≈ π.
        let mut dep = base();
        dep.rx_mount.rot = Mat3::IDENTITY;
        assert!(chief_meets_rx_plane(&dep));
        assert_eq!(reading_draws(&mut dep), (f64::NEG_INFINITY, 8), "φ ≥ π/2");
    }

    #[test]
    fn dark_cell_replay_leaves_the_full_path_state() {
        let mut dep = Deployment::new(&DeploymentConfig::paper_10g(12));
        cheat_align(&mut dep);
        let (vt1, vt2, _, _) = dep.voltages();
        let columns = crate::alignment::sweep_columns();
        let bound = dep.dark_cell_bound(&columns, DARK_DBM).unwrap();
        // Far corners of the RX range are dark, with and without power
        // noise. Their draws, replayed late and together, leave the state
        // of the full readings made one by one.
        for noise in [0.2, 0.0] {
            dep.power_noise_db = noise;
            let mut full = dep.clone();
            let mut owed = 0;
            for (a, b) in [
                (9.0, 9.0),
                (-9.0, 9.0),
                (9.0, -9.0),
                (-9.0, -9.0),
                (4.0, 0.0),
            ] {
                full.set_voltages(vt1, vt2, a, b);
                assert!(
                    full.proves_dark_per_cell(&bound),
                    "({a}, {b}) should be provably dark"
                );
                let j = columns.iter().position(|&c| c == b).unwrap();
                let row = bound.row(&dep, a).unwrap();
                assert!(bound.dark_run(&row, j).is_some(), "table at ({a}, {b})");
                let want = dbm_to_mw(full.received_power_unfloored_dbm());
                assert_eq!(want.to_bits(), 0.0f64.to_bits());
                owed += 1;
            }
            DarkCellBound::replay(&mut dep, owed);
            assert_eq!(dep.rng(), full.rng());
        }
    }

    #[test]
    fn monitor_replay_leaves_the_full_path_state() {
        // Far corners of the TX range land metres off the monitor, with
        // and without galvo noise; a dark monitor reading draws only the
        // TX jitter.
        for galvo_cfg in [GalvoSimConfig::default(), GalvoSimConfig::ideal()] {
            let mut dep = Deployment::new(&DeploymentConfig {
                galvo_cfg,
                ..DeploymentConfig::paper_10g(12)
            });
            cheat_align(&mut dep);
            let (_, _, vr1, vr2) = dep.voltages();
            let columns = crate::alignment::sweep_columns();
            let bound = dep.monitor_dark_bound(&columns);
            let mut full = dep.clone();
            let mut owed = 0;
            for (i, j) in [(1, 1), (49, 1), (1, 49), (49, 49)] {
                let (a, b) = (columns[i], columns[j]);
                full.set_voltages(a, b, vr1, vr2);
                assert!(full.monitor_dark_per_cell(&bound), "({a}, {b})");
                let row = bound.row(&dep, a).unwrap();
                assert!(bound.dark_run(&row, j).is_some(), "table at ({a}, {b})");
                let before = full.rng().clone();
                let monitor = full.placed_monitor();
                assert_eq!(full.monitor_signal_at(&monitor).to_bits(), 0.0f64.to_bits());
                let draws = if galvo_cfg.angle_noise_rad > 0.0 {
                    4
                } else {
                    0
                };
                assert_eq!(draws_between(&before, full.rng()), draws);
                owed += 1;
            }
            MonitorDarkBound::replay(&mut dep, owed);
            assert_eq!(dep.rng(), full.rng());
        }
    }

    #[test]
    fn monitor_runs_are_the_longest_the_bound_proves() {
        // Every run the monitor bound takes is proved at its last cell, and
        // one column more is not.
        let dep = Deployment::new(&DeploymentConfig::paper_10g(15));
        let columns = crate::alignment::sweep_columns();
        let bound = dep.monitor_dark_bound(&columns);
        let mut long_runs = 0;
        for &va in &columns {
            let row = bound.row(&dep, va).unwrap();
            let rate = row.origin_rate.expect("rows meet mirror 2 robustly");
            for j in 0..TX_SWEEP_POINTS {
                let Some(run) = bound.dark_run(&row, j) else {
                    continue;
                };
                let out = bound.mirrors.out_ray(&row, j).unwrap();
                let l = bound.landing(&bound.tx_pose.apply_ray(&out)).unwrap();
                assert!(bound.clears(&l, run, rate), "({va}, {j}): {run}");
                assert!(
                    run == TX_SWEEP_POINTS || !bound.clears(&l, run + 1, rate),
                    "({va}, {j}): {run} is not the longest"
                );
                long_runs += usize::from(run >= 10);
            }
        }
        assert!(long_runs > 100, "{long_runs} runs of 10 columns or more");
    }

    #[test]
    fn jitter_moves_the_output_ray_within_its_slack() {
        // The extreme jitter of both mirrors, in every sign combination,
        // across the voltage range of both assemblies: the output ray turns
        // by at most 4 tilts, and its origin moves by well under the lever
        // the bounds assume.
        let dep = Deployment::new(&DeploymentConfig::paper_10g(14));
        for galvo in [&dep.tx, &dep.rx] {
            let tilt = galvo.max_jitter_rad();
            let jv = tilt / galvo.truth.theta1;
            let mut worst = 0.0f64;
            for k in 0..=20 {
                for l in 0..=20 {
                    let (v1, v2) = (-10.0 + k as f64, -10.0 + l as f64);
                    let base = galvo.truth.trace(v1, v2).unwrap();
                    for (s1, s2) in [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)] {
                        let moved = galvo.truth.trace(v1 + s1 * jv, v2 + s2 * jv).unwrap();
                        assert!(moved.dir.angle_to(base.dir) <= 4.0 * tilt);
                        worst = worst.max(moved.origin.distance(base.origin) / tilt);
                    }
                }
            }
            // The bounds allow `JITTER_LEVER_M` per radian of each
            // mirror's tilt; both tilts together move it by ~3 cm per
            // radian.
            assert!(
                worst < 0.1 * JITTER_LEVER_M,
                "origin moves {worst} m per rad"
            );
        }
    }

    #[test]
    fn cells_the_chief_ray_cannot_reach_are_never_skipped() {
        // The RX behind the TX and facing the same way: most RX voltages
        // give a dark angle, but the chief ray never meets the RX plane, so
        // every full reading exits before its power noise.
        let mut dep = Deployment::new(&DeploymentConfig::paper_10g(13));
        dep.rx_mount.rot = Mat3::IDENTITY;
        dep.set_headset_pose(Pose::translation(v3(0.0, 0.0, -1.75)));
        let (vt1, vt2, _, _) = dep.voltages();
        let columns = crate::alignment::sweep_columns();
        let bound = dep.dark_cell_bound(&columns, DARK_DBM).unwrap();
        let mut angle_dark = 0;
        for &va in columns.iter().step_by(16) {
            let row = bound.row(&dep, va).unwrap();
            let mut walk = DarkRow::new(&bound, &dep, va).unwrap();
            for (j, &vb) in columns.iter().enumerate().step_by(16) {
                let imag = bound.mirrors.out_ray(&row, j).unwrap();
                angle_dark += usize::from(bound.dark_angle(&imag));
                assert!(!bound.column_skippable(j), "({va}, {vb})");
                assert_eq!(walk.dark_cells(j), 0, "({va}, {vb})");
                dep.set_voltages(vt1, vt2, va, vb);
                assert!(!dep.proves_dark_per_cell(&bound), "({va}, {vb})");
                assert_eq!(reading_draws(&mut dep), (f64::NEG_INFINITY, 8));
            }
        }
        assert!(angle_dark > 50, "{angle_dark} of 121 cells at a dark angle");
    }

    #[test]
    fn rx_assembly_follows_headset() {
        let dep0 = Deployment::new(&DeploymentConfig::ideal_10g(6));
        let q2_before = dep0.rx_world_params().q2;
        let mut dep = dep0.clone();
        let mut pose = dep.headset.world_pose;
        pose.trans += v3(0.0, 0.1, 0.0);
        dep.set_headset_pose(pose);
        let q2_after = dep.rx_world_params().q2;
        assert!(((q2_after - q2_before) - v3(0.0, 0.1, 0.0)).norm() < 1e-12);
        assert_eq!(dep.rx_pivot_world(), q2_after);
    }
}
