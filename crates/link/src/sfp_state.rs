//! SFP/NIC link state machine.
//!
//! §5.3: "once the link is lost, it takes a few seconds to regain the link
//! partly due to the SFPs taking a few seconds to report that the link is
//! up, after receiving the light \[38\]." The machine below: the link drops as
//! soon as the optical signal falls below sensitivity (loss-of-signal is
//! fast), but after light returns the SFP + NIC must hold signal
//! continuously for `relink_time_s` before traffic flows again — which is
//! what makes every beam outage cost seconds of throughput in Figs 13–15.

/// Link state with re-lock hysteresis.
#[derive(Debug, Clone, Copy)]
pub struct SfpLinkState {
    /// Required continuous signal time before the link re-establishes (s).
    pub relink_time_s: f64,
    up: bool,
    signal_held_s: f64,
}

impl SfpLinkState {
    /// Creates the machine in the *up* state (link starts aligned).
    pub fn new_up(relink_time_s: f64) -> SfpLinkState {
        SfpLinkState {
            relink_time_s,
            up: true,
            signal_held_s: 0.0,
        }
    }

    /// Advances by `dt` seconds with the given optical-signal presence.
    /// Returns whether the link is up after the step.
    ///
    /// Branch-light form: the hold timer and the up/down decision are both
    /// computed with boolean arithmetic so the per-slot call compiles to
    /// straight-line code (this runs once per slot per session in the
    /// engine's hot loop). Semantics are unchanged from the nested-if
    /// original: the timer accumulates only while *down with signal*, and
    /// re-lock fires once the accumulated hold reaches `relink_time_s`.
    #[inline]
    pub fn step(&mut self, signal_present: bool, dt: f64) -> bool {
        let accumulating = !self.up & signal_present;
        // The 1 ns slack absorbs float accumulation over thousands of
        // sub-millisecond slots; without it 2500 × 0.001 s sums just
        // under 2.5 s and re-lock lands a full slot late.
        self.signal_held_s = if accumulating {
            self.signal_held_s + dt
        } else {
            0.0
        };
        self.up = (self.up & signal_present)
            | (accumulating & (self.signal_held_s >= self.relink_time_s - 1e-9));
        self.up
    }

    /// Current state.
    #[inline]
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Continuous signal-hold time accumulated toward re-lock (seconds);
    /// 0 while the link is up. Exposed for telemetry/diagnosis — outage
    /// post-mortems need to see how close a flapping link got to re-locking.
    pub fn signal_held_s(&self) -> f64 {
        if self.up {
            0.0
        } else {
            self.signal_held_s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drops_immediately_on_signal_loss() {
        let mut s = SfpLinkState::new_up(2.5);
        assert!(s.is_up());
        assert!(!s.step(false, 1e-3));
        assert!(!s.is_up());
    }

    #[test]
    fn relock_takes_seconds() {
        let mut s = SfpLinkState::new_up(2.5);
        s.step(false, 1e-3);
        // 2.4 s of good signal: still down.
        for _ in 0..2400 {
            assert!(!s.step(true, 1e-3));
        }
        // Another 0.2 s: up again.
        let mut up = false;
        for _ in 0..200 {
            up = s.step(true, 1e-3);
        }
        assert!(up);
    }

    #[test]
    fn relock_timer_resets_on_flicker() {
        let mut s = SfpLinkState::new_up(2.0);
        s.step(false, 1e-3);
        for _ in 0..1900 {
            s.step(true, 1e-3);
        }
        // One bad slot resets the hold timer.
        s.step(false, 1e-3);
        for _ in 0..1900 {
            assert!(!s.step(true, 1e-3), "must re-hold the full relink time");
        }
        for _ in 0..200 {
            s.step(true, 1e-3);
        }
        assert!(s.is_up());
    }

    #[test]
    fn relock_never_overshoots_by_more_than_one_step() {
        // Regression: re-lock must fire on the first step where accumulated
        // continuous signal reaches `relink_time_s` — i.e. after exactly
        // ceil(relink/dt) good steps — never a step late, at any step size.
        for &dt in &[1e-3, 7e-3, 0.05, 0.4, 2.5, 3.0] {
            let relink = 2.5;
            let mut s = SfpLinkState::new_up(relink);
            s.step(false, dt);
            let mut held = 0.0;
            loop {
                let up = s.step(true, dt);
                held += dt;
                assert!(
                    held < relink + dt + 1e-12,
                    "dt={dt}: still down after {held} s of signal"
                );
                if up {
                    break;
                }
            }
            assert!(held + 1e-12 >= relink, "dt={dt}: re-locked early at {held}");
            let expect_steps = (relink / dt).ceil();
            assert!(
                (held / dt - expect_steps).abs() < 1e-9,
                "dt={dt}: took {} steps, expected {expect_steps}",
                held / dt
            );
        }
    }

    #[test]
    fn periodic_flapping_faster_than_relink_never_relocks() {
        // Signal flaps every 2.0 s with relink_time 2.5 s: partial hold
        // progress (80 % of the way) must reset to zero on every flap, so
        // the link stays down indefinitely — and once the flapping stops it
        // still needs the FULL relink time (no residual credit).
        let relink = 2.5;
        let mut s = SfpLinkState::new_up(relink);
        s.step(false, 1e-3);
        for cycle in 0..10 {
            for k in 0..2000 {
                assert!(!s.step(true, 1e-3), "up mid-flap (cycle {cycle}, slot {k})");
            }
            assert!(!s.step(false, 1e-3));
        }
        for _ in 0..2499 {
            assert!(!s.step(true, 1e-3), "must re-hold the full relink time");
        }
        assert!(s.step(true, 1e-3), "re-lock exactly at relink_time_s");
    }

    #[test]
    fn down_slots_between_flaps_zero_the_hold_timer() {
        // Two bad slots in a row behave identically to one: the timer is
        // already zero, and subsequent re-lock timing is unaffected.
        let mut a = SfpLinkState::new_up(0.5);
        let mut b = SfpLinkState::new_up(0.5);
        a.step(false, 1e-3);
        b.step(false, 1e-3);
        b.step(false, 1e-3);
        let mut ups = (0, 0);
        for _ in 0..500 {
            ups.0 += a.step(true, 1e-3) as u32;
            ups.1 += b.step(true, 1e-3) as u32;
        }
        assert_eq!(ups.0, ups.1, "extra down slots must not shift re-lock");
        assert!(a.is_up() && b.is_up());
    }

    #[test]
    fn hold_accessors_track_relink_progress() {
        let mut s = SfpLinkState::new_up(2.0);
        assert_eq!(s.signal_held_s(), 0.0);
        s.step(false, 1e-3);
        assert_eq!(s.signal_held_s(), 0.0);
        for _ in 0..1000 {
            s.step(true, 1e-3);
        }
        assert!((s.signal_held_s() - 1.0).abs() < 1e-9);
        // A flap zeroes the hold; re-lock completion pins it at "up".
        s.step(false, 1e-3);
        assert_eq!(s.signal_held_s(), 0.0);
        for _ in 0..2000 {
            s.step(true, 1e-3);
        }
        assert!(s.is_up());
        assert_eq!(s.signal_held_s(), 0.0);
    }

    #[test]
    fn stays_up_with_signal() {
        let mut s = SfpLinkState::new_up(2.5);
        for _ in 0..10_000 {
            assert!(s.step(true, 1e-3));
        }
    }

    #[test]
    fn starts_down_when_requested() {
        let mut s = SfpLinkState {
            relink_time_s: 0.01,
            up: false,
            signal_held_s: 0.0,
        };
        assert!(!s.is_up());
        for _ in 0..11 {
            s.step(true, 1e-3);
        }
        assert!(s.is_up());
    }
}
