//! Multi-TX handover — the §3 occlusion/coverage extension.
//!
//! "To circumvent occasional occlusions and/or limited field-of-view
//! coverage of the GMs, we can use multiple TXs on the ceiling with
//! appropriate handover techniques." The paper does not build this; we
//! implement the natural design: several ceiling TX units, a line-of-sight
//! occlusion model (a sphere — e.g. a raised arm — wandering through the
//! room), and a controller that re-points to the best unoccluded TX, paying
//! a switch penalty (steering + SFP re-lock on the new unit).
//!
//! Since the engine refactor the selection state machine lives in
//! [`crate::engine::MarginSelector`]; [`HandoverSystem`] binds it to a set
//! of [`TxUnit`]s and an occlusion model.
//!
//! This geometric model backs the `handover_geom` digest golden and the
//! `multi_tx_handover` example. Full-physics multi-TX sessions (trained TP
//! per unit, real SFP re-lock, telemetry) are built with
//! [`LinkSession::builder`](crate::engine::LinkSession::builder),
//! `.units(..)` and a [`crate::engine::TxSelector`].

use crate::engine::{aligned_margin_db, MarginSelector};
use cyclops_geom::vec3::Vec3;
use cyclops_optics::coupling::LinkDesign;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A ceiling transmitter unit.
#[derive(Debug, Clone, Copy)]
pub struct TxUnit {
    /// Position of the unit's aperture (world, metres).
    pub pos: Vec3,
}

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

/// Handover controller state.
#[derive(Debug, Clone)]
pub struct HandoverSystem {
    /// The ceiling units.
    pub txs: Vec<TxUnit>,
    /// Link design shared by all units.
    pub design: LinkDesign,
    active: usize,
    selector: MarginSelector,
}

impl HandoverSystem {
    /// Creates the system, active on unit 0; `switch_time_s` is the time to
    /// switch to another TX (re-steer + re-lock), seconds.
    pub fn new(txs: Vec<TxUnit>, design: LinkDesign, switch_time_s: f64) -> HandoverSystem {
        assert!(!txs.is_empty());
        HandoverSystem {
            txs,
            design,
            active: 0,
            selector: MarginSelector::new(switch_time_s),
        }
    }

    /// Currently active unit index.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Greedy-upgrade hysteresis: with `Some(h)` the system also switches
    /// away from a *working* unit once a sibling's margin beats the active
    /// unit's by strictly more than `h` dB (a tie never switches). `None`
    /// (the default) only switches when the active unit is unusable.
    pub fn set_hysteresis_db(&mut self, h: Option<f64>) {
        self.selector.hysteresis_db = h;
    }

    /// Aligned link margin (dB) unit `i` would give at the RX position:
    /// the design's margin re-evaluated at that unit's actual range. Units
    /// further away than the design closes for return negative margin.
    pub fn unit_margin_db(&self, i: usize, rx_pos: Vec3) -> f64 {
        aligned_margin_db(&self.design, self.txs[i].pos, rx_pos)
    }

    /// Advances one step: given the RX position and the occluders, decide
    /// whether the active unit still has line of sight and closes its link;
    /// if not, hand over to the visible unit with the best link margin.
    /// Returns whether the link delivers data this step (false while
    /// blocked, out of margin, or mid-switch).
    pub fn step(&mut self, rx_pos: Vec3, occluders: &[Occluder], dt: f64) -> bool {
        let txs = &self.txs;
        let design = &self.design;
        let margin = |i: usize| {
            if occluders.iter().any(|o| o.blocks(txs[i].pos, rx_pos)) {
                f64::NEG_INFINITY
            } else {
                aligned_margin_db(design, txs[i].pos, rx_pos)
            }
        };
        let (delivering, active) = self.selector.step(self.active, txs.len(), margin, dt);
        self.active = active;
        delivering
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclops_geom::vec3::v3;

    fn two_tx_system(switch_s: f64) -> HandoverSystem {
        HandoverSystem::new(
            vec![
                TxUnit {
                    pos: v3(-0.8, 2.0, 0.0),
                },
                TxUnit {
                    pos: v3(0.8, 2.0, 0.0),
                },
            ],
            LinkDesign::ten_g_diverging(20e-3, 2.0),
            switch_s,
        )
    }

    #[test]
    fn occluder_blocks_geometry() {
        let o = Occluder::new(v3(0.0, 1.0, 0.0), 0.15, 0.0, 1);
        assert!(o.blocks(v3(0.0, 2.0, 0.0), v3(0.0, 0.0, 0.0)));
        assert!(!o.blocks(v3(1.0, 2.0, 0.0), v3(1.0, 0.0, 0.0)));
        // Segment ending before the sphere.
        assert!(!o.blocks(v3(0.0, 3.0, 0.0), v3(0.0, 2.0, 0.0)));
    }

    #[test]
    fn unobstructed_link_stays_on_unit0() {
        let mut hs = two_tx_system(0.05);
        let rx = v3(0.0, 0.0, 0.0);
        for _ in 0..100 {
            assert!(hs.step(rx, &[], 1e-3));
        }
        assert_eq!(hs.active(), 0);
    }

    #[test]
    fn blocking_unit0_hands_over_to_unit1() {
        let mut hs = two_tx_system(0.05);
        let rx = v3(0.0, 0.0, 0.0);
        // Occluder square on the unit-0 path.
        let occ = [Occluder::new(v3(-0.4, 1.0, 0.0), 0.2, 0.0, 2)];
        let mut delivered = 0;
        let mut outage = 0;
        for _ in 0..200 {
            if hs.step(rx, &occ, 1e-3) {
                delivered += 1;
            } else {
                outage += 1;
            }
        }
        assert_eq!(hs.active(), 1);
        // 50 ms switch ≈ 50 slots of outage, then delivery resumes.
        assert!((45..60).contains(&outage), "outage {outage}");
        assert!(delivered > 130);
    }

    #[test]
    fn out_of_range_unit_is_not_selected() {
        // A visible unit whose link cannot close at the RX distance must not
        // be handed over to.
        let mut hs = HandoverSystem::new(
            vec![
                TxUnit {
                    pos: v3(-0.8, 2.0, 0.0),
                },
                TxUnit {
                    pos: v3(40.0, 2.0, 0.0),
                }, // visible but 40 m away
            ],
            LinkDesign::ten_g_diverging(20e-3, 2.0),
            0.01,
        );
        let rx = v3(0.0, 0.0, 0.0);
        assert!(
            hs.unit_margin_db(1, rx) < 0.0,
            "far unit must be out of margin"
        );
        let occ = [Occluder::new(v3(-0.4, 1.0, 0.0), 0.2, 0.0, 5)];
        for _ in 0..100 {
            assert!(!hs.step(rx, &occ, 1e-3), "no usable unit -> no delivery");
        }
        assert_eq!(hs.active(), 0, "must not switch to the out-of-range unit");
    }

    #[test]
    fn all_blocked_means_no_delivery() {
        let mut hs = two_tx_system(0.01);
        let rx = v3(0.0, 0.0, 0.0);
        let occ = [
            Occluder::new(v3(-0.4, 1.0, 0.0), 0.3, 0.0, 3),
            Occluder::new(v3(0.4, 1.0, 0.0), 0.3, 0.0, 4),
        ];
        for _ in 0..50 {
            assert!(!hs.step(rx, &occ, 1e-3));
        }
    }

    #[test]
    fn multi_tx_beats_single_tx_under_roaming_occlusion() {
        // Availability comparison — the quantitative case for the §3 idea.
        let rx = v3(0.0, 0.0, 0.0);
        let run = |n_tx: usize| -> f64 {
            let txs: Vec<TxUnit> = (0..n_tx)
                .map(|i| TxUnit {
                    pos: v3(-0.8 + 1.6 * i as f64 / (n_tx.max(2) - 1) as f64, 2.0, 0.0),
                })
                .collect();
            let mut hs = HandoverSystem::new(txs, LinkDesign::ten_g_diverging(20e-3, 2.0), 0.05);
            let mut occ = Occluder::new(v3(-0.4, 1.0, 0.0), 0.25, 1.5, 7);
            let mut ok = 0usize;
            const N: usize = 20_000;
            for _ in 0..N {
                occ.step(1e-3);
                if hs.step(rx, std::slice::from_ref(&occ), 1e-3) {
                    ok += 1;
                }
            }
            ok as f64 / N as f64
        };
        let single = run(1);
        let dual = run(2);
        assert!(dual > single, "dual {dual} vs single {single}");
    }

    #[test]
    fn hysteresis_upgrades_to_a_much_better_unit() {
        // RX parked far off-centre: unit 1 is much closer (higher margin)
        // but unit 0 still closes. Without hysteresis the system never
        // leaves unit 0; with it, it upgrades after the switch delay.
        let rx = v3(0.7, 0.0, 0.0);
        let mut plain = two_tx_system(0.01);
        for _ in 0..100 {
            plain.step(rx, &[], 1e-3);
        }
        assert_eq!(plain.active(), 0, "no hysteresis: never upgrade");
        let mut greedy = two_tx_system(0.01);
        greedy.set_hysteresis_db(Some(0.5));
        for _ in 0..100 {
            greedy.step(rx, &[], 1e-3);
        }
        assert_eq!(greedy.active(), 1, "hysteresis: upgrade to better unit");
    }
}
