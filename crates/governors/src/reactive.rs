//! Reactive thermal-throttling heuristic (the software analogue of the fan).
//!
//! Section 6.2: "we also implemented a heuristic thermal management algorithm
//! which mimics the fan control algorithm. Instead of increasing the fan
//! speed, this heuristic throttles the frequency by 18 % and 25 % when the
//! temperature passes 63 °C and 68 °C, respectively." The paper measures a
//! ≈20 % performance loss for this baseline, which the proposed predictive
//! DTPM algorithm beats by a wide margin.

use soc_model::{Frequency, OppTable};

/// Throttling state of the reactive heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThrottleStage {
    /// No throttling.
    None,
    /// 18 % frequency reduction (above the first threshold).
    Mild,
    /// 25 % frequency reduction (above the second threshold).
    Strong,
}

/// Reactive frequency throttler with the paper's thresholds and factors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReactiveThrottler {
    /// Temperature (°C) above which the mild throttle engages.
    pub mild_threshold_c: f64,
    /// Temperature (°C) above which the strong throttle engages.
    pub strong_threshold_c: f64,
    /// Temperature (°C) below which throttling is released.
    pub release_threshold_c: f64,
    /// Frequency multiplier for the mild stage (0.82 = −18 %).
    pub mild_factor: f64,
    /// Frequency multiplier for the strong stage (0.75 = −25 %).
    pub strong_factor: f64,
    stage: ThrottleStage,
}

impl ReactiveThrottler {
    /// The heuristic exactly as described in Section 6.2.
    pub fn paper_default() -> Self {
        ReactiveThrottler {
            mild_threshold_c: 63.0,
            strong_threshold_c: 68.0,
            release_threshold_c: 57.0,
            mild_factor: 0.82,
            strong_factor: 0.75,
            stage: ThrottleStage::None,
        }
    }

    /// A throttler re-anchored to an arbitrary temperature constraint,
    /// keeping the paper's threshold spacing and cut factors: the strong
    /// stage engages at the constraint, the mild stage 5 °C below it and the
    /// release 11 °C below it (the 63/68/57 °C geometry of
    /// [`ReactiveThrottler::paper_default`], slid to `constraint_c`). This is
    /// the degraded-mode fallback a predictive policy demotes to when its
    /// sensor chain goes unreliable — same constraint, no model in the loop.
    pub fn for_constraint(constraint_c: f64) -> Self {
        ReactiveThrottler {
            mild_threshold_c: constraint_c - 5.0,
            strong_threshold_c: constraint_c,
            release_threshold_c: constraint_c - 11.0,
            ..ReactiveThrottler::paper_default()
        }
    }

    /// Whether the throttler is currently limiting the frequency.
    pub fn is_throttling(&self) -> bool {
        self.stage != ThrottleStage::None
    }

    /// Applies the heuristic: given the current maximum core temperature and
    /// the frequency the stock governor requested, returns the (possibly
    /// throttled) frequency to actually program.
    pub fn apply(
        &mut self,
        max_core_temp_c: f64,
        requested: Frequency,
        opps: &OppTable,
    ) -> Frequency {
        // Stage transitions (reactive: they only fire after the temperature
        // has already crossed the threshold).
        self.stage = if max_core_temp_c > self.strong_threshold_c {
            ThrottleStage::Strong
        } else if max_core_temp_c > self.mild_threshold_c {
            // Never relax directly from Strong to Mild unless below the mild threshold.
            if self.stage == ThrottleStage::Strong {
                ThrottleStage::Strong
            } else {
                ThrottleStage::Mild
            }
        } else if max_core_temp_c < self.release_threshold_c {
            ThrottleStage::None
        } else {
            self.stage
        };

        match self.stage {
            ThrottleStage::None => requested,
            ThrottleStage::Mild => opps.scaled_floor(requested, self.mild_factor).frequency,
            ThrottleStage::Strong => opps.scaled_floor(requested, self.strong_factor).frequency,
        }
    }
}

impl Default for ReactiveThrottler {
    fn default() -> Self {
        ReactiveThrottler::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_throttle_below_thresholds() {
        let opps = OppTable::exynos5410_big();
        let mut t = ReactiveThrottler::paper_default();
        let f = t.apply(55.0, Frequency::from_mhz(1600), &opps);
        assert_eq!(f.mhz(), 1600);
        assert!(!t.is_throttling());
    }

    #[test]
    fn mild_throttle_cuts_18_percent() {
        let opps = OppTable::exynos5410_big();
        let mut t = ReactiveThrottler::paper_default();
        let f = t.apply(64.0, Frequency::from_mhz(1600), &opps);
        // 1600 * 0.82 = 1312 -> snaps down to 1300 MHz.
        assert_eq!(f.mhz(), 1300);
        assert!(t.is_throttling());
    }

    #[test]
    fn strong_throttle_cuts_25_percent() {
        let opps = OppTable::exynos5410_big();
        let mut t = ReactiveThrottler::paper_default();
        let f = t.apply(69.0, Frequency::from_mhz(1600), &opps);
        assert_eq!(f.mhz(), 1200);
    }

    #[test]
    fn strong_stage_sticks_until_temperature_recovers() {
        let opps = OppTable::exynos5410_big();
        let mut t = ReactiveThrottler::paper_default();
        t.apply(69.0, Frequency::from_mhz(1600), &opps);
        // Still above the mild threshold: remains at the strong cut.
        let f = t.apply(65.0, Frequency::from_mhz(1600), &opps);
        assert_eq!(f.mhz(), 1200);
        // Between release and mild: holds whatever stage it was in.
        let f = t.apply(60.0, Frequency::from_mhz(1600), &opps);
        assert_eq!(f.mhz(), 1200);
        // Below the release threshold: back to the governor's request.
        let f = t.apply(55.0, Frequency::from_mhz(1600), &opps);
        assert_eq!(f.mhz(), 1600);
        assert!(!t.is_throttling());
    }

    #[test]
    fn throttles_relative_to_requested_frequency() {
        let opps = OppTable::exynos5410_big();
        let mut t = ReactiveThrottler::paper_default();
        let f = t.apply(64.0, Frequency::from_mhz(1000), &opps);
        // 1000 * 0.82 = 820 -> snaps to 800 MHz.
        assert_eq!(f.mhz(), 800);
    }
}
