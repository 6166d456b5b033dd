//! Per-layer probes: each times calls into one layer's public functions on
//! inputs drawn from the workload (its benchmarks, ambients, fault plans
//! and calibration), outside any campaign.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use dtpm::{BatchPredictor, DtpmInputs, DtpmPolicy};
use platform_sim::distributed::{decode_sink, encode_sink};
use platform_sim::plant::PlantStep;
use platform_sim::{
    Calibration, FaultInjector, IncidentLog, LaneInput, MergeSink, PanelEngine, PlantEngine,
    PlantPowerParams, SafetyLadder, SensorHealth, SensorReadings, SensorSuite, SimError, SweepSpec,
};
use soc_model::{FanLevel, PlatformState, SocSpec};
use workload::{Demand, WorkloadState};

use crate::stats::median;
use crate::LANES;

/// Timed passes per probe; each probe reports the median pass.
const PASSES: usize = 5;

/// Measured per-layer values, by metric name.
pub type Layers = Vec<(&'static str, f64)>;

/// Median over [`PASSES`] of the wall time per call of `op`, run `calls`
/// times per pass, in nanoseconds.
fn per_call_ns(calls: usize, mut op: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..PASSES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                op();
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples)
}

/// Scales probe loop lengths: the quick mode only has to exercise the code.
fn calls(full: usize, quick: bool) -> usize {
    if quick {
        (full / 20).max(1)
    } else {
        full
    }
}

/// `SweepSpec::cell` and `SweepSpec::fingerprint`.
pub fn campaign(spec: &SweepSpec, quick: bool) -> Layers {
    let cells = spec.cells();
    let mut index = 0;
    let cell_ns = per_call_ns(calls(cells.min(4_000), quick), || {
        black_box(spec.cell(index % cells));
        index += 1;
    });
    let fingerprint_ns = per_call_ns(calls(100, quick), || {
        black_box(spec.fingerprint());
    });
    vec![
        ("campaign.cell_ns", cell_ns),
        ("campaign.fingerprint_us", fingerprint_ns / 1e3),
    ]
}

/// One demand per lane from the workload's benchmarks.
fn lane_demands(spec: &SweepSpec, seed: u64) -> Vec<Demand> {
    (0..LANES)
        .map(|lane| {
            let benchmark = spec.benchmarks[lane % spec.benchmarks.len()];
            WorkloadState::new(benchmark, seed.wrapping_add(lane as u64)).demand()
        })
        .collect()
}

/// A `PanelEngine` of [`LANES`] lanes stepped through `step_interval` with
/// one fan level for every lane (the uniform transition path) and with
/// mixed fan levels (the strided fallback DefaultWithFan lanes take), plus
/// the cost of admitting a lane. Returns the layers and the last interval's
/// plant outputs, which seed the absorb-chain probes.
///
/// # Errors
///
/// Returns a message if the engine rejects a step.
pub fn engine(
    spec: &SweepSpec,
    seed: u64,
    quick: bool,
) -> Result<(Layers, Vec<PlantStep>), String> {
    let soc = SocSpec::odroid_xu_e();
    let state = PlatformState::default_for(&soc);
    let demands = lane_demands(spec, seed);
    let ambient_c = spec.ambients_c[0];
    let fans = [
        FanLevel::Off,
        FanLevel::Base,
        FanLevel::Half,
        FanLevel::Full,
    ];
    let inputs = |mixed: bool| -> Vec<LaneInput<'_>> {
        (0..LANES)
            .map(|lane| LaneInput {
                state: &state,
                demand: &demands[lane],
                fan_level: if mixed {
                    fans[lane % fans.len()]
                } else {
                    FanLevel::Off
                },
                ambient_c,
            })
            .collect()
    };
    let (uniform, diverged) = (inputs(false), inputs(true));
    let mut engine = PanelEngine::new(soc.clone(), &[spec.plant; LANES]);
    let mut steps: Vec<Result<PlantStep, SimError>> = Vec::with_capacity(LANES);
    let intervals = calls(300, quick);
    // Every pass re-admits the lanes, so each one integrates the same
    // 30 simulated seconds from the cells' initial temperature.
    let mut lane_step_ns = |engine: &mut PanelEngine, inputs: &[LaneInput<'_>]| {
        let mut samples = Vec::with_capacity(PASSES);
        for _ in 0..PASSES {
            for lane in 0..LANES {
                engine.admit(lane, spec.plant);
            }
            let start = Instant::now();
            for _ in 0..intervals {
                engine
                    .step_interval(inputs, spec.control_period_s, &mut steps)
                    .map_err(|e| format!("engine probe: {e}"))?;
                black_box(&steps);
            }
            samples.push(start.elapsed().as_nanos() as f64 / (intervals * LANES) as f64);
        }
        Ok::<f64, String>(median(&samples))
    };
    let uniform_ns = lane_step_ns(&mut engine, &uniform)?;
    let diverged_ns = lane_step_ns(&mut engine, &diverged)?;
    let mut lane = 0;
    let admit_ns = per_call_ns(calls(2_000, quick), || {
        engine.admit(lane % LANES, PlantPowerParams::default());
        lane += 1;
    });
    // One interval from fresh lanes hands realistic outputs on.
    for lane in 0..LANES {
        engine.admit(lane, spec.plant);
    }
    engine
        .step_interval(&uniform, spec.control_period_s, &mut steps)
        .map_err(|e| format!("engine probe: {e}"))?;
    let outputs = steps
        .into_iter()
        .collect::<Result<Vec<PlantStep>, SimError>>()
        .map_err(|e| format!("engine probe lane: {e}"))?;
    Ok((
        vec![
            ("engine.step_ns_per_lane_step_uniform", uniform_ns),
            ("engine.step_ns_per_lane_step_fan_diverged", diverged_ns),
            ("engine.admit_ns", admit_ns),
        ],
        outputs,
    ))
}

/// `DtpmPolicy::decide` per lane and `BatchPredictor::predict` over
/// [`LANES`] lanes, on the plant outputs of the engine probe.
///
/// # Errors
///
/// Returns a message if the policy rejects its configuration or inputs.
pub fn core(
    spec: &SweepSpec,
    calibration: &Calibration,
    plant: &[PlantStep],
    quick: bool,
) -> Result<Layers, String> {
    let soc = SocSpec::odroid_xu_e();
    let config = spec.dtpm_variants[0].apply(spec.base_dtpm);
    let policy = DtpmPolicy::new(config, calibration.predictor.clone())
        .map_err(|e| format!("core probe: {e}"))?;
    let inputs: Vec<DtpmInputs<'_>> = plant
        .iter()
        .map(|step| DtpmInputs {
            spec: &soc,
            proposed: PlatformState::default_for(&soc),
            core_temps_c: step.core_temps_c,
            measured_power: step.domain_power,
        })
        .collect();
    let mut failure: Option<String> = None;
    let mut lane = 0;
    let decide_ns = per_call_ns(calls(4_000, quick), || {
        match policy.decide(&inputs[lane % inputs.len()], &calibration.power_model) {
            Ok(decision) => {
                black_box(decision);
            }
            Err(e) => {
                failure.get_or_insert(e.to_string());
            }
        }
        lane += 1;
    });
    let mut batch = BatchPredictor::new(
        Arc::clone(policy.horizon_map()),
        calibration.predictor.ambient_c(),
        LANES,
    )
    .map_err(|e| format!("core probe: {e}"))?;
    for (lane, input) in inputs.iter().enumerate() {
        let powers = policy
            .proposal_powers(input, &calibration.power_model)
            .map_err(|e| format!("core probe: {e}"))?;
        batch.set_lane(lane, input.core_temps_c, &powers);
    }
    let predict_ns = per_call_ns(calls(4_000, quick), || {
        batch.predict();
        black_box(batch.peak_c(0));
    });
    if let Some(e) = failure {
        return Err(format!("core probe: {e}"));
    }
    Ok(vec![
        ("core.decide_ns", decide_ns),
        ("core.batch_predict_ns_per_lane", predict_ns / LANES as f64),
    ])
}

/// The absorb chain on one lane's stream: `SensorSuite::sample`, the
/// workload's `FaultInjector::apply` (0 when it injects no faults),
/// `SensorHealth::screen` and `SafetyLadder::observe`.
pub fn absorb(spec: &SweepSpec, seed: u64, plant: &[PlantStep], quick: bool) -> Layers {
    let period = spec.control_period_s;
    let mut sensors = SensorSuite::odroid_defaults(seed);
    let mut k = 0usize;
    let sample_ns = per_call_ns(calls(20_000, quick), || {
        let step = &plant[k % plant.len()];
        black_box(sensors.sample(step.core_temps_c, &step.domain_power, step.platform_power_w));
        k += 1;
    });
    // A ring of distinct noisy readings: replaying one reading would trip
    // the flatline detector and time the incident path instead.
    let ring: Vec<SensorReadings> = (0..64)
        .map(|i| {
            let step = &plant[i % plant.len()];
            sensors.sample(step.core_temps_c, &step.domain_power, step.platform_power_w)
        })
        .collect();
    let plans: Vec<_> = spec.fault_plans.iter().flatten().collect();
    let apply_ns = if plans.is_empty() {
        0.0
    } else {
        let per_plan: Vec<f64> = plans
            .iter()
            .map(|plan| {
                let mut injector = FaultInjector::new((*plan).clone());
                let mut interval = 0usize;
                per_call_ns(calls(20_000, quick), || {
                    let time_s = interval as f64 * period;
                    black_box(injector.apply(interval, time_s, ring[interval % ring.len()]));
                    interval += 1;
                })
            })
            .collect();
        per_plan.iter().sum::<f64>() / per_plan.len() as f64
    };
    let config = spec.cell(0).safety;
    let mut health = SensorHealth::new(config.health);
    let mut log = IncidentLog::default();
    let mut interval = 0usize;
    let screen_ns = per_call_ns(calls(20_000, quick), || {
        let time_s = interval as f64 * period;
        black_box(health.screen(interval, time_s, ring[interval % ring.len()], &mut log));
        interval += 1;
    });
    let mut ladder = SafetyLadder::new(config.ladder);
    let mut interval = 0usize;
    let observe_ns = per_call_ns(calls(20_000, quick), || {
        let time_s = interval as f64 * period;
        let hottest = ring[interval % ring.len()].max_core_temp_c();
        ladder.observe(interval, time_s, hottest, &mut log);
        interval += 1;
    });
    black_box(&log);
    vec![
        ("sensors.sample_ns", sample_ns),
        ("faults.apply_ns", apply_ns),
        ("safety.screen_ns", screen_ns),
        ("safety.ladder_observe_ns", observe_ns),
    ]
}

/// `encode_sink` / `decode_sink` of a finished campaign fold; checks the
/// round trip is exact.
///
/// # Errors
///
/// Returns a message if the blob does not decode to the same fold.
pub fn codec(fold: &MergeSink, quick: bool) -> Result<Layers, String> {
    let blob = encode_sink(fold);
    let decoded = decode_sink(&blob).map_err(|e| format!("codec probe: {e}"))?;
    if decoded != *fold {
        return Err("codec probe: decode_sink(encode_sink(fold)) differs from the fold".into());
    }
    let encode_ns = per_call_ns(calls(200, quick), || {
        black_box(encode_sink(fold));
    });
    let decode_ns = per_call_ns(calls(200, quick), || {
        black_box(decode_sink(&blob).is_ok());
    });
    Ok(vec![
        ("codec.encode_sink_us", encode_ns / 1e3),
        ("codec.decode_sink_us", decode_ns / 1e3),
        ("codec.sink_bytes", blob.len() as f64),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use power_model::DomainPower;

    #[test]
    fn per_call_time_grows_with_work() {
        let cheap = per_call_ns(200, || {
            black_box((0..10u64).sum::<u64>());
        });
        let costly = per_call_ns(200, || {
            black_box((0..black_box(100_000u64)).map(|x| x ^ 7).sum::<u64>());
        });
        assert!(costly > cheap, "{costly} <= {cheap}");
    }

    #[test]
    fn absorb_probe_reports_zero_for_a_workload_without_faults() {
        let spec = SweepSpec::new(
            vec![platform_sim::ExperimentKind::Dtpm],
            vec![workload::BenchmarkId::Crc32],
        );
        let plant = vec![PlantStep {
            domain_power: DomainPower::new(3.4, 0.04, 0.15, 0.4),
            core_temps_c: [55.0, 54.5, 56.0, 55.2],
            platform_power_w: 5.0,
            work_done: 1.0,
        }];
        let layers = absorb(&spec, 1, &plant, true);
        let get = |name| layers.iter().find(|(n, _)| *n == name).expect("metric").1;
        assert_eq!(get("faults.apply_ns"), 0.0);
        assert!(get("sensors.sample_ns") > 0.0);
    }
}
