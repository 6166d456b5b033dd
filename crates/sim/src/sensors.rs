//! Sensor sampling: on-board power/temperature sensors and the external meter.
//!
//! The controller never sees the plant's state directly — it sees what the
//! kernel driver reads from the INA231 power monitors and the per-core thermal
//! sensors: quantised, noisy, sampled once per control interval. The external
//! power meter (used in the paper for total-platform power) is modelled the
//! same way.

use power_model::DomainPower;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One set of sensor readings for a control interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorReadings {
    /// Measured big-core temperatures, °C (quantised to the sensor resolution).
    pub core_temps_c: [f64; 4],
    /// Measured per-domain powers, watts.
    pub domain_power: DomainPower,
    /// Total platform power from the external meter, watts.
    pub platform_power_w: f64,
}

impl SensorReadings {
    /// The maximum measured core temperature.
    ///
    /// NaN-propagating: a dropped (NaN) sensor lane makes the maximum NaN
    /// instead of being silently skipped, so a corrupted reading cannot
    /// masquerade as a cool one at the control-loop boundary. (`f64::max`
    /// ignores NaN operands; the control loop folds temperatures into
    /// throttling and prediction decisions, where "ignore the broken lane"
    /// is exactly the wrong default.) For finite inputs the result is
    /// bit-identical to the plain `f64::max` fold.
    pub fn max_core_temp_c(&self) -> f64 {
        let mut max = f64::NEG_INFINITY;
        for &temp in &self.core_temps_c {
            if temp.is_nan() {
                return f64::NAN;
            }
            max = max.max(temp);
        }
        max
    }

    /// Whether every channel of this reading is finite: the validity check
    /// applied at the control-loop boundary before any value is trusted.
    /// (Range plausibility is judged by the sensor-health monitor, which
    /// knows the configured operating envelope.)
    pub fn is_valid(&self) -> bool {
        self.core_temps_c.iter().all(|t| t.is_finite())
            && self.domain_power.as_array().iter().all(|p| p.is_finite())
            && self.platform_power_w.is_finite()
    }
}

/// Noise/quantisation model of the measurement chain.
#[derive(Debug, Clone)]
pub struct SensorSuite {
    /// Standard deviation of the temperature sensor noise, °C.
    pub temp_noise_c: f64,
    /// Temperature sensor resolution (quantisation step), °C.
    pub temp_resolution_c: f64,
    /// Standard deviation of the power sensor noise, watts.
    pub power_noise_w: f64,
    /// Standard deviation of the external power meter noise, watts.
    pub meter_noise_w: f64,
    rng: StdRng,
}

impl SensorSuite {
    /// Sensor chain of the Odroid-XU+E: ~0.15 °C of temperature noise at
    /// 0.1 °C resolution and ~10 mW of power-sensor noise.
    pub fn odroid_defaults(seed: u64) -> Self {
        SensorSuite {
            temp_noise_c: 0.15,
            temp_resolution_c: 0.1,
            power_noise_w: 0.010,
            meter_noise_w: 0.030,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// A noiseless, full-resolution sensor chain (useful in tests and for
    /// isolating algorithmic effects from measurement effects).
    pub fn ideal(seed: u64) -> Self {
        SensorSuite {
            temp_noise_c: 0.0,
            temp_resolution_c: 0.0,
            power_noise_w: 0.0,
            meter_noise_w: 0.0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn gaussian(&mut self, sigma: f64) -> f64 {
        // `!(sigma > 0)` rather than `sigma <= 0`: a non-finite (NaN) sigma
        // from a degenerate config must disable the noise, not inject NaN
        // into every reading. (+inf still fails the finite check below.)
        if !(sigma > 0.0) || !sigma.is_finite() {
            return 0.0;
        }
        // Box–Muller transform on two uniform samples.
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        sigma * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    fn quantise(value: f64, resolution: f64) -> f64 {
        // Degenerate resolutions (zero, negative, NaN, ±inf) and non-finite
        // values pass through unquantised: `value / resolution` would
        // otherwise manufacture NaN out of a merely misconfigured sensor.
        if !(resolution > 0.0) || !resolution.is_finite() || !value.is_finite() {
            value
        } else {
            (value / resolution).round() * resolution
        }
    }

    /// Samples the sensor chain for one control interval.
    pub fn sample(
        &mut self,
        true_core_temps_c: [f64; 4],
        true_domain_power: &DomainPower,
        true_platform_power_w: f64,
    ) -> SensorReadings {
        let mut core_temps_c = [0.0; 4];
        for (i, slot) in core_temps_c.iter_mut().enumerate() {
            let noisy = true_core_temps_c[i] + self.gaussian(self.temp_noise_c);
            *slot = Self::quantise(noisy, self.temp_resolution_c);
        }
        let mut domain_power = *true_domain_power;
        for value in [
            &mut domain_power.big_w,
            &mut domain_power.little_w,
            &mut domain_power.gpu_w,
            &mut domain_power.memory_w,
        ] {
            *value = (*value + self.gaussian(self.power_noise_w)).max(0.0);
        }
        let platform_power_w = (true_platform_power_w + self.gaussian(self.meter_noise_w)).max(0.0);
        SensorReadings {
            core_temps_c,
            domain_power,
            platform_power_w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_sensors_pass_values_through() {
        let mut sensors = SensorSuite::ideal(1);
        let reading = sensors.sample(
            [50.0, 51.0, 49.5, 50.5],
            &DomainPower::new(2.0, 0.1, 0.3, 0.4),
            4.6,
        );
        assert_eq!(reading.core_temps_c, [50.0, 51.0, 49.5, 50.5]);
        assert_eq!(reading.domain_power, DomainPower::new(2.0, 0.1, 0.3, 0.4));
        assert_eq!(reading.platform_power_w, 4.6);
        assert_eq!(reading.max_core_temp_c(), 51.0);
    }

    #[test]
    fn noisy_sensors_stay_close_to_truth() {
        let mut sensors = SensorSuite::odroid_defaults(42);
        let truth = [55.0, 54.0, 56.0, 55.5];
        let mut worst_temp_err = 0.0f64;
        let mut sum_big = 0.0;
        for _ in 0..500 {
            let reading = sensors.sample(truth, &DomainPower::new(2.5, 0.05, 0.2, 0.4), 6.0);
            for (measured, real) in reading.core_temps_c.iter().zip(&truth) {
                worst_temp_err = worst_temp_err.max((measured - real).abs());
            }
            sum_big += reading.domain_power.big_w;
        }
        assert!(
            worst_temp_err < 1.0,
            "temperature noise too large: {worst_temp_err}"
        );
        let mean_big = sum_big / 500.0;
        assert!(
            (mean_big - 2.5).abs() < 0.01,
            "power noise biased: {mean_big}"
        );
    }

    #[test]
    fn quantisation_rounds_to_resolution() {
        let mut sensors = SensorSuite::ideal(3);
        sensors.temp_resolution_c = 0.5;
        let reading = sensors.sample([50.26, 50.24, 49.99, 50.74], &DomainPower::default(), 0.0);
        assert_eq!(reading.core_temps_c, [50.5, 50.0, 50.0, 50.5]);
    }

    #[test]
    fn power_readings_never_go_negative() {
        let mut sensors = SensorSuite::odroid_defaults(7);
        for _ in 0..200 {
            let reading = sensors.sample([40.0; 4], &DomainPower::default(), 0.0);
            assert!(reading.domain_power.is_physical());
            assert!(reading.platform_power_w >= 0.0);
        }
    }

    #[test]
    fn max_core_temp_propagates_nan_instead_of_swallowing_it() {
        let mut reading = SensorReadings {
            core_temps_c: [50.0, f64::NAN, 49.5, 50.5],
            domain_power: DomainPower::default(),
            platform_power_w: 0.0,
        };
        // The old `f64::max` fold skipped the NaN lane and reported 50.5.
        assert!(reading.max_core_temp_c().is_nan());
        assert!(!reading.is_valid());
        reading.core_temps_c = [50.0, 51.0, 49.5, 50.5];
        assert_eq!(reading.max_core_temp_c(), 51.0);
        assert!(reading.is_valid());
        reading.platform_power_w = f64::INFINITY;
        assert!(!reading.is_valid());
    }

    #[test]
    fn degenerate_quantisation_passes_values_through() {
        for resolution in [0.0, -0.1, f64::NAN, f64::INFINITY] {
            let mut sensors = SensorSuite::ideal(5);
            sensors.temp_resolution_c = resolution;
            let reading =
                sensors.sample([50.26, 50.24, 49.99, 50.74], &DomainPower::default(), 0.0);
            assert_eq!(
                reading.core_temps_c,
                [50.26, 50.24, 49.99, 50.74],
                "resolution {resolution} must pass values through unquantised"
            );
            assert!(reading.is_valid());
        }
    }

    #[test]
    fn degenerate_noise_sigma_disables_noise_instead_of_injecting_nan() {
        for sigma in [f64::NAN, f64::NEG_INFINITY, f64::INFINITY, -1.0] {
            let mut sensors = SensorSuite::ideal(6);
            sensors.temp_noise_c = sigma;
            sensors.power_noise_w = sigma;
            sensors.meter_noise_w = sigma;
            let reading = sensors.sample([50.0; 4], &DomainPower::new(2.0, 0.1, 0.3, 0.4), 4.6);
            assert_eq!(reading.core_temps_c, [50.0; 4], "sigma {sigma}");
            assert!(reading.is_valid());
        }
    }

    #[test]
    fn non_finite_true_values_survive_quantisation_unmangled() {
        // A NaN *input* (e.g. an upstream fault) must come out as NaN, not
        // be laundered into some quantised finite value — and must trip the
        // validity check.
        let mut sensors = SensorSuite::odroid_defaults(11);
        let reading = sensors.sample([f64::NAN, 50.0, 50.0, 50.0], &DomainPower::default(), 0.0);
        assert!(reading.core_temps_c[0].is_nan());
        assert!(!reading.is_valid());
    }

    #[test]
    fn same_seed_reproduces_the_same_noise() {
        let mut a = SensorSuite::odroid_defaults(9);
        let mut b = SensorSuite::odroid_defaults(9);
        let truth = [60.0; 4];
        let power = DomainPower::new(3.0, 0.1, 0.4, 0.5);
        for _ in 0..10 {
            assert_eq!(a.sample(truth, &power, 6.0), b.sample(truth, &power, 6.0));
        }
    }
}
