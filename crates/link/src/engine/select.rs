use super::EngineConfigError;
use cyclops_geom::ray::Ray;
use cyclops_geom::vec3::Vec3;
use cyclops_optics::coupling::{LinkDesign, ReceiverGeometry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------------
// Components: TX selection
// ---------------------------------------------------------------------------

/// A spherical occluder moving on a random walk (an arm, another person).
#[derive(Debug, Clone)]
pub struct Occluder {
    /// Current centre.
    pub center: Vec3,
    /// Radius (metres).
    pub radius: f64,
    /// RMS walk speed (m/s).
    pub speed: f64,
    rng: StdRng,
}

impl Occluder {
    /// Creates an occluder at a position with a seeded walk.
    pub fn new(center: Vec3, radius: f64, speed: f64, seed: u64) -> Occluder {
        Occluder {
            center,
            radius,
            speed,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Advances the random walk by `dt` seconds (no-op for a static
    /// occluder).
    pub fn step(&mut self, dt: f64) {
        let s = self.speed * dt;
        if s <= 0.0 {
            return;
        }
        self.center += Vec3::new(
            self.rng.gen_range(-s..s),
            self.rng.gen_range(-s..s),
            self.rng.gen_range(-s..s),
        );
    }

    /// Checks that the centre is finite and the radius and speed are finite
    /// and non-negative; the session and fleet builders run this, so a bad
    /// occluder fails there instead of panicking in [`Occluder::step`].
    pub(super) fn validate(&self) -> Result<(), EngineConfigError> {
        let ok = |x: f64| x.is_finite() && x >= 0.0;
        if !self.center.is_finite() {
            Err(EngineConfigError::InvalidEnvironment(
                "occluder center must be finite",
            ))
        } else if !ok(self.radius) {
            Err(EngineConfigError::InvalidEnvironment(
                "occluder radius must be finite and non-negative",
            ))
        } else if !ok(self.speed) {
            Err(EngineConfigError::InvalidEnvironment(
                "occluder speed must be finite and non-negative",
            ))
        } else {
            Ok(())
        }
    }

    /// True if the segment `a → b` passes through the occluder.
    pub fn blocks(&self, a: Vec3, b: Vec3) -> bool {
        let ab = b - a;
        let len = ab.norm();
        if len < 1e-12 {
            return a.distance(self.center) < self.radius;
        }
        let t = ((self.center - a).dot(ab) / (len * len)).clamp(0.0, 1.0);
        let closest = a + ab * t;
        closest.distance(self.center) < self.radius
    }
}

/// Per-slot context handed to a [`TxSelector`].
#[derive(Debug)]
pub struct SelectCtx<'a> {
    /// Currently active unit index.
    pub active: usize,
    /// Whether the active unit has optical signal this slot.
    pub signal: bool,
    /// Slot length (seconds).
    pub slot_s: f64,
    /// RX aperture position (world, metres).
    pub rx_pos: Vec3,
    /// TX aperture positions (world, metres), one per unit.
    pub tx_positions: &'a [Vec3],
    /// The occluders currently in the room.
    pub occluders: &'a [Occluder],
}

impl SelectCtx<'_> {
    /// Whether unit `i` has line of sight to the RX.
    pub fn los(&self, i: usize) -> bool {
        let tx_pos = self.tx_positions[i];
        !self.occluders.iter().any(|o| o.blocks(tx_pos, self.rx_pos))
    }
}

/// Which ceiling unit serves the headset. Called once per slot after
/// channel evaluation; returning `Some(i)` switches the session to unit `i`
/// (the session then fires one immediate TP shot on it).
pub trait TxSelector {
    /// Decides this slot's handover, if any.
    fn on_slot(&mut self, ctx: &SelectCtx<'_>) -> Option<usize>;
}

/// The single-TX selector: unit 0, forever.
#[derive(Debug, Clone, Copy, Default)]
pub struct SingleTx;

impl TxSelector for SingleTx {
    fn on_slot(&mut self, _ctx: &SelectCtx<'_>) -> Option<usize> {
        None
    }
}

/// The multi-TX simulator's policy: after the active unit has been dark for
/// a debounce interval, switch to the nearest unoccluded sibling.
#[derive(Debug, Clone)]
pub struct DarkDebounce {
    /// Dark time on the active unit before a handover is attempted (s).
    pub debounce_s: f64,
    dark_s: f64,
}

impl DarkDebounce {
    /// Creates the selector with the given debounce.
    pub fn new(debounce_s: f64) -> DarkDebounce {
        DarkDebounce {
            debounce_s,
            dark_s: 0.0,
        }
    }
}

impl TxSelector for DarkDebounce {
    fn on_slot(&mut self, ctx: &SelectCtx<'_>) -> Option<usize> {
        if ctx.signal {
            self.dark_s = 0.0;
        } else {
            self.dark_s += ctx.slot_s;
        }
        if self.dark_s < self.debounce_s || ctx.tx_positions.len() <= 1 {
            return None;
        }
        let best = (0..ctx.tx_positions.len())
            .filter(|&i| i != ctx.active && ctx.los(i))
            .min_by(|&a, &b| {
                let da = ctx.tx_positions[a].distance(ctx.rx_pos);
                let db = ctx.tx_positions[b].distance(ctx.rx_pos);
                // total_cmp sorts NaN above +inf, so a unit whose distance
                // degenerates to NaN is never preferred — and the old
                // partial_cmp().unwrap() panic is gone.
                da.total_cmp(&db)
            });
        if best.is_some() {
            self.dark_s = 0.0;
        }
        best
    }
}

/// Margin-based selection for full-physics sessions: after the dark-time
/// debounce, switch to the unoccluded sibling with the best *aligned link
/// margin* (not merely the nearest).
#[derive(Debug, Clone)]
pub struct BestMargin {
    /// Dark time on the active unit before a handover is attempted (s).
    pub debounce_s: f64,
    /// Link design shared by the units (margins are evaluated on it).
    pub design: LinkDesign,
    dark_s: f64,
}

impl BestMargin {
    /// Creates the selector.
    pub fn new(design: LinkDesign, debounce_s: f64) -> BestMargin {
        BestMargin {
            debounce_s,
            design,
            dark_s: 0.0,
        }
    }
}

impl TxSelector for BestMargin {
    fn on_slot(&mut self, ctx: &SelectCtx<'_>) -> Option<usize> {
        if ctx.signal {
            self.dark_s = 0.0;
        } else {
            self.dark_s += ctx.slot_s;
        }
        if self.dark_s < self.debounce_s || ctx.tx_positions.len() <= 1 {
            return None;
        }
        let margin = |i: usize| aligned_margin_db(&self.design, ctx.tx_positions[i], ctx.rx_pos);
        let best = (0..ctx.tx_positions.len())
            .filter(|&i| i != ctx.active && ctx.los(i) && margin(i) >= 0.0)
            .max_by(|&a, &b| margin(a).total_cmp(&margin(b)));
        if best.is_some() {
            self.dark_s = 0.0;
        }
        best
    }
}

/// Aligned link margin (dB) a unit at `tx_pos` would give at `rx_pos`: the
/// design's margin re-evaluated at that range. Negative when the link
/// cannot close; `-inf` when the geometry degenerates.
pub fn aligned_margin_db(design: &LinkDesign, tx_pos: Vec3, rx_pos: Vec3) -> f64 {
    let dir = (rx_pos - tx_pos).try_normalized(1e-9);
    let Some(dir) = dir else {
        return f64::NEG_INFINITY;
    };
    let chief = Ray::new(tx_pos, dir);
    let rx = ReceiverGeometry::new(rx_pos, -dir);
    design.received_power_dbm(chief, &rx) - design.sfp.rx_sensitivity_dbm
}

/// [`aligned_margin_db`] behind line of sight: `-inf` when any occluder
/// blocks the segment `tx_pos → rx_pos`. This is the margin a geometric
/// [`MarginSelector`] steps on.
pub fn visible_margin_db(
    design: &LinkDesign,
    occluders: &[Occluder],
    tx_pos: Vec3,
    rx_pos: Vec3,
) -> f64 {
    if occluders.iter().any(|o| o.blocks(tx_pos, rx_pos)) {
        f64::NEG_INFINITY
    } else {
        aligned_margin_db(design, tx_pos, rx_pos)
    }
}

/// The geometric margin-based handover state machine (margins typically
/// from [`visible_margin_db`]; the caller holds the active unit): pays a
/// switch delay on every handover, and — when `hysteresis_db` is set — also
/// upgrades away from a *working* unit once a sibling's margin beats it by
/// more than the hysteresis. A tie never triggers a switch, so two equal
/// units cannot flip-flop.
#[derive(Debug, Clone, Copy)]
pub struct MarginSelector {
    /// Time a switch takes (re-steer + re-lock), seconds.
    pub switch_time_s: f64,
    /// Greedy-upgrade hysteresis (dB): `None` switches only when the active
    /// unit is unusable (the legacy behavior); `Some(h)` also switches when
    /// a sibling's margin exceeds the active unit's by more than `h`.
    pub hysteresis_db: Option<f64>,
    switch_remaining_s: f64,
}

impl MarginSelector {
    /// Creates the state machine (no greedy upgrades).
    pub fn new(switch_time_s: f64) -> MarginSelector {
        MarginSelector {
            switch_time_s,
            hysteresis_db: None,
            switch_remaining_s: 0.0,
        }
    }

    /// Whether a switch is currently in progress.
    pub fn switching(&self) -> bool {
        self.switch_remaining_s > 0.0
    }

    /// Advances one step. `margin(i)` must return unit `i`'s link margin in
    /// dB, `NEG_INFINITY` when it is occluded or otherwise unusable; a unit
    /// is selectable iff its margin is ≥ 0. Returns whether the link
    /// delivers data this step and the (possibly new) active unit.
    pub fn step(
        &mut self,
        active: usize,
        n: usize,
        margin: impl Fn(usize) -> f64,
        dt: f64,
    ) -> (bool, usize) {
        if self.switch_remaining_s > 0.0 {
            self.switch_remaining_s -= dt;
            return (false, active);
        }
        let m_active = margin(active);
        if m_active >= 0.0 {
            if let Some(h) = self.hysteresis_db {
                // Greedy upgrade: only on a *strict* improvement beyond the
                // hysteresis — equal margins never switch.
                // The `>= 0.0` filter already excludes NaN margins (NaN
                // compares false); total_cmp makes the max itself NaN-proof.
                let best = (0..n)
                    .filter(|&i| i != active && margin(i) >= 0.0)
                    .max_by(|&a, &b| margin(a).total_cmp(&margin(b)));
                if let Some(b) = best {
                    if margin(b) > m_active + h {
                        self.switch_remaining_s = self.switch_time_s;
                        return (false, b);
                    }
                }
            }
            return (true, active);
        }
        // Pick the usable unit with the highest margin.
        let best = (0..n)
            .filter(|&i| margin(i) >= 0.0)
            .max_by(|&a, &b| margin(a).total_cmp(&margin(b)));
        match best {
            Some(i) => {
                self.switch_remaining_s = self.switch_time_s;
                (false, i)
            }
            None => (false, active), // everything blocked or out of reach
        }
    }
}
