//! CPU frequency governors (DVFS policies).

use soc_model::{Frequency, OppTable};

/// Input the kernel hands a cpufreq governor at every sampling interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GovernorInput {
    /// Busy fraction of the most loaded online core over the last interval,
    /// 0..1 (what `ondemand` calls the load).
    pub load: f64,
    /// Frequency the cluster ran at during that interval.
    pub current: Frequency,
}

/// A CPU frequency governor: given the observed load, pick the next operating
/// frequency from the cluster's OPP table.
pub trait CpufreqGovernor {
    /// Selects the frequency for the next interval.
    fn select_frequency(&mut self, input: &GovernorInput, opps: &OppTable) -> Frequency;

    /// Human-readable governor name (matches the Linux sysfs names).
    fn name(&self) -> &'static str;
}

/// Which stock governor to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GovernorKind {
    /// The `ondemand` governor (the paper's default configuration).
    Ondemand,
    /// The `interactive` governor common on Android devices.
    Interactive,
    /// Always the maximum frequency.
    Performance,
    /// Always the minimum frequency.
    Powersave,
}

/// The classic `ondemand` governor: jump to the maximum frequency when the
/// load exceeds the up-threshold, otherwise pick the lowest frequency that
/// can serve the measured load with some headroom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OndemandGovernor {
    /// Load above which the governor jumps straight to the maximum frequency.
    pub up_threshold: f64,
    /// Headroom factor when scaling down (the selected frequency can serve the
    /// load at no more than this utilisation).
    pub down_headroom: f64,
}

impl Default for OndemandGovernor {
    fn default() -> Self {
        OndemandGovernor {
            up_threshold: 0.80,
            down_headroom: 0.80,
        }
    }
}

impl CpufreqGovernor for OndemandGovernor {
    fn select_frequency(&mut self, input: &GovernorInput, opps: &OppTable) -> Frequency {
        let load = input.load.clamp(0.0, 1.0);
        if load > self.up_threshold {
            return opps.highest().frequency;
        }
        // Capacity needed so the load would sit at `down_headroom` utilisation.
        let required_mhz = input.current.mhz() as f64 * load / self.down_headroom;
        opps.ceil(Frequency::from_mhz(required_mhz.ceil() as u32))
            .frequency
    }

    fn name(&self) -> &'static str {
        "ondemand"
    }
}

/// A simplified `interactive` governor: ramp to a high-speed frequency as soon
/// as the load crosses `go_hispeed_load`, then adjust around a target load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InteractiveGovernor {
    /// Load that triggers the jump to the hi-speed frequency.
    pub go_hispeed_load: f64,
    /// Fraction of the maximum frequency used as the hi-speed frequency.
    pub hispeed_fraction: f64,
    /// Long-run target load the governor tries to keep the CPU at.
    pub target_load: f64,
}

impl Default for InteractiveGovernor {
    fn default() -> Self {
        InteractiveGovernor {
            go_hispeed_load: 0.85,
            hispeed_fraction: 0.75,
            target_load: 0.90,
        }
    }
}

impl CpufreqGovernor for InteractiveGovernor {
    fn select_frequency(&mut self, input: &GovernorInput, opps: &OppTable) -> Frequency {
        let load = input.load.clamp(0.0, 1.0);
        let max_mhz = opps.highest().frequency.mhz() as f64;
        let target_mhz = input.current.mhz() as f64 * load / self.target_load;
        let chosen = if load >= self.go_hispeed_load {
            // At sustained high load keep climbing past the hi-speed point.
            let hispeed = self.hispeed_fraction * max_mhz;
            target_mhz.max(hispeed)
        } else {
            target_mhz
        };
        opps.ceil(Frequency::from_mhz(chosen.ceil() as u32))
            .frequency
    }

    fn name(&self) -> &'static str {
        "interactive"
    }
}

/// The `performance` governor: always the maximum frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PerformanceGovernor;

impl CpufreqGovernor for PerformanceGovernor {
    fn select_frequency(&mut self, _input: &GovernorInput, opps: &OppTable) -> Frequency {
        opps.highest().frequency
    }

    fn name(&self) -> &'static str {
        "performance"
    }
}

/// The `powersave` governor: always the minimum frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PowersaveGovernor;

impl CpufreqGovernor for PowersaveGovernor {
    fn select_frequency(&mut self, _input: &GovernorInput, opps: &OppTable) -> Frequency {
        opps.lowest().frequency
    }

    fn name(&self) -> &'static str {
        "powersave"
    }
}

/// The `userspace` governor: a fixed frequency chosen by the caller (used by
/// the PRBS identification experiments, which toggle the frequency directly).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UserspaceGovernor {
    /// The pinned frequency.
    pub frequency: Frequency,
}

impl UserspaceGovernor {
    /// Creates a userspace governor pinned to `frequency`.
    pub fn new(frequency: Frequency) -> Self {
        UserspaceGovernor { frequency }
    }

    /// Re-pins the governor to a new frequency (how the PRBS experiment
    /// toggles between the minimum and maximum levels).
    pub fn set_frequency(&mut self, frequency: Frequency) {
        self.frequency = frequency;
    }
}

impl CpufreqGovernor for UserspaceGovernor {
    fn select_frequency(&mut self, _input: &GovernorInput, opps: &OppTable) -> Frequency {
        // Snap to the nearest supported operating point at or below the pin.
        opps.floor(self.frequency)
            .unwrap_or_else(|| opps.lowest())
            .frequency
    }

    fn name(&self) -> &'static str {
        "userspace"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(load: f64, mhz: u32) -> GovernorInput {
        GovernorInput {
            load,
            current: Frequency::from_mhz(mhz),
        }
    }

    #[test]
    fn ondemand_jumps_to_max_under_high_load() {
        let opps = OppTable::exynos5410_big();
        let mut gov = OndemandGovernor::default();
        assert_eq!(gov.select_frequency(&input(0.95, 800), &opps).mhz(), 1600);
        assert_eq!(gov.select_frequency(&input(1.0, 1600), &opps).mhz(), 1600);
    }

    #[test]
    fn ondemand_scales_down_proportionally_to_load() {
        let opps = OppTable::exynos5410_big();
        let mut gov = OndemandGovernor::default();
        // 40% load at 1.6 GHz needs ~800 MHz at 80% headroom.
        assert_eq!(gov.select_frequency(&input(0.40, 1600), &opps).mhz(), 800);
        // 60% load at 1.6 GHz needs 1200 MHz.
        assert_eq!(gov.select_frequency(&input(0.60, 1600), &opps).mhz(), 1200);
        // Idle load clamps at the minimum.
        assert_eq!(gov.select_frequency(&input(0.0, 1600), &opps).mhz(), 800);
    }

    #[test]
    fn ondemand_clamps_out_of_range_load() {
        let opps = OppTable::exynos5410_big();
        let mut gov = OndemandGovernor::default();
        assert_eq!(gov.select_frequency(&input(7.0, 800), &opps).mhz(), 1600);
        assert_eq!(gov.select_frequency(&input(-1.0, 1600), &opps).mhz(), 800);
    }

    #[test]
    fn interactive_ramps_to_hispeed() {
        let opps = OppTable::exynos5410_big();
        let mut gov = InteractiveGovernor::default();
        // A burst of load from a low frequency jumps at least to the hi-speed point.
        let f = gov.select_frequency(&input(0.9, 800), &opps);
        assert!(f.mhz() >= 1200, "hispeed jump gave {f}");
        // Low load tracks the target load downwards.
        let f = gov.select_frequency(&input(0.3, 1600), &opps);
        assert!(f.mhz() <= 900, "low load gave {f}");
    }

    #[test]
    fn interactive_sustained_full_load_reaches_max() {
        let opps = OppTable::exynos5410_big();
        let mut gov = InteractiveGovernor::default();
        let mut freq = opps.lowest().frequency;
        for _ in 0..10 {
            freq = gov.select_frequency(&input(1.0, freq.mhz()), &opps);
        }
        assert_eq!(freq.mhz(), 1600);
    }

    #[test]
    fn performance_and_powersave_pin_the_extremes() {
        let opps = OppTable::exynos5410_little();
        assert_eq!(
            PerformanceGovernor
                .select_frequency(&input(0.1, 500), &opps)
                .mhz(),
            1200
        );
        assert_eq!(
            PowersaveGovernor
                .select_frequency(&input(1.0, 1200), &opps)
                .mhz(),
            500
        );
    }

    #[test]
    fn userspace_pins_and_snaps_to_table() {
        let opps = OppTable::exynos5410_big();
        let mut gov = UserspaceGovernor::new(Frequency::from_mhz(1234));
        assert_eq!(gov.select_frequency(&input(1.0, 800), &opps).mhz(), 1200);
        gov.set_frequency(Frequency::from_mhz(100));
        assert_eq!(gov.select_frequency(&input(1.0, 800), &opps).mhz(), 800);
    }

    #[test]
    fn governor_names_match_linux() {
        assert_eq!(OndemandGovernor::default().name(), "ondemand");
        assert_eq!(InteractiveGovernor::default().name(), "interactive");
        assert_eq!(PerformanceGovernor.name(), "performance");
        assert_eq!(PowersaveGovernor.name(), "powersave");
        assert_eq!(
            UserspaceGovernor::new(Frequency::from_mhz(800)).name(),
            "userspace"
        );
    }
}
