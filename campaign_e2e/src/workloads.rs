//! The three campaign workloads: their specs, one timed campaign of each
//! (plain or traced), and the measurement loop that repeats campaigns for
//! the requested time and checks every fold.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use platform_sim::distributed::{ChildTransport, Transport};
use platform_sim::{
    splitmix64, Calibration, CalibrationCampaign, CampaignAggregate, CampaignCheckpoint, CellStats,
    CheckpointSink, Coordinator, ExperimentKind, FaultKind, FaultPlan, FaultWindow, MergeSink,
    SensorChannel, SweepSpec,
};
use workload::{BenchmarkCategory, BenchmarkId};

use crate::fold;
use crate::host;
use crate::probes::{self, Layers};
use crate::stats::{median, peak_rss_mb, percentile_u64, quartiles};
use crate::trace::{CountingTransport, TimingSink, WireCounters};
use crate::LANES;

/// Seed of the platform characterisation every workload runs on. The
/// calibration models the board, not the campaign, so it stays fixed while
/// `--seed` varies the campaign.
pub const CALIBRATION_SEED: u64 = 1;
/// Replicates per grid point of `paper_grid` (and its distributed twin).
const GRID_REPLICATES: usize = 8;
/// Replicates per grid point of `fault_churn`.
const CHURN_REPLICATES: usize = 8;
/// `fault_churn`'s per-cell duration cap, seconds: 80 intervals, so no
/// benchmark completes.
const CHURN_CAP_S: f64 = 8.0;
/// Seconds between in-process set-up samples: the calibration is timed
/// before the first campaign and again between campaigns whenever this
/// long has passed since the last sample, so that the samples span the run
/// as the host's speed wanders.
const SETUP_EVERY_S: f64 = 2.5;
/// `fault_churn`'s checkpoint cadence, cells: three snapshots and the
/// final one per campaign. Each is `fsync`ed, and shared-disk sync latency
/// swings by phase, so more writes per campaign make throughput track the
/// disk rather than the program.
const CHECKPOINT_EVERY: usize = 1000;
/// Upper bound on campaign threads and on worker processes.
const MAX_PARALLEL: usize = 2;
/// How long a finished distributed campaign may take to reap its workers.
const REAP_TIMEOUT: Duration = Duration::from_secs(60);

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's evaluation grid at full length, in process.
    PaperGrid,
    /// Short faulted cells with checkpoint writes, in process.
    FaultChurn,
    /// `PaperGrid` through a coordinator and worker processes.
    PaperGridDistributed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperGrid,
        Workload::FaultChurn,
        Workload::PaperGridDistributed,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::FaultChurn => "fault_churn",
            Workload::PaperGridDistributed => "paper_grid_distributed",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload whose recorded reference fold this one must match.
    pub fn reference_name(self) -> &'static str {
        match self {
            Workload::FaultChurn => "fault_churn",
            Workload::PaperGrid | Workload::PaperGridDistributed => "paper_grid",
        }
    }

    /// The campaign grid for `seed`. Quick mode keeps every axis but runs
    /// one replicate.
    pub fn spec(self, seed: u64, quick: bool) -> SweepSpec {
        let kinds = vec![
            ExperimentKind::DefaultWithFan,
            ExperimentKind::Reactive,
            ExperimentKind::Dtpm,
        ];
        let base = SweepSpec::new(kinds, BenchmarkId::paper_set().collect())
            .with_ambients_c(vec![24.0, 32.0])
            .with_campaign_seed(seed);
        let replicates = |full: usize| if quick { 1 } else { full };
        match self {
            Workload::PaperGrid | Workload::PaperGridDistributed => {
                base.with_replicates(replicates(GRID_REPLICATES))
            }
            Workload::FaultChurn => base
                .with_fault_plans(fault_axis(splitmix64(seed)))
                .with_max_duration_s(CHURN_CAP_S)
                .with_replicates(replicates(CHURN_REPLICATES)),
        }
    }
}

/// `fault_churn`'s fault axis: healthy, then one faulted channel per entry,
/// each fault opening 2 s into the cell and holding to its end.
fn fault_axis(seed: u64) -> Vec<Option<FaultPlan>> {
    let plan = |channel, kind| {
        Some(FaultPlan::new(seed).with_window(FaultWindow {
            channel,
            kind,
            start_s: 2.0,
            end_s: f64::INFINITY,
        }))
    };
    vec![
        None,
        plan(SensorChannel::CoreTemp(0), FaultKind::Dropped),
        plan(SensorChannel::CoreTemp(1), FaultKind::StuckAt),
        plan(
            SensorChannel::CoreTemp(2),
            FaultKind::Spike {
                magnitude: 25.0,
                period_intervals: 5,
            },
        ),
        plan(
            SensorChannel::PlatformPower,
            FaultKind::Delayed { intervals: 3 },
        ),
    ]
}

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// The campaign seed.
    pub seed: u64,
    /// Minimum measuring time.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of a plain one.
    pub trace: bool,
    /// One replicate per grid point, short probes.
    pub quick: bool,
    /// The `dtpm-worker` binary.
    pub worker: PathBuf,
    /// A directory this invocation may write checkpoints into.
    pub scratch: PathBuf,
}

/// Threads (in process) or worker processes (distributed) a campaign uses.
pub fn parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(MAX_PARALLEL)
}

/// One timed campaign.
struct Campaign {
    traced: bool,
    /// Spawning the workers and connecting them, seconds (distributed
    /// campaigns; in process, campaigns share one calibration).
    setup_s: Option<f64>,
    /// Campaign wall time (run plus, for `fault_churn`, the final
    /// checkpoint write), seconds.
    wall_s: f64,
    /// The host's speed around the campaign: the mean of the readings
    /// just before and just after it (see [`host::speed`]), set by
    /// [`measure`].
    speed: f64,
    aggregate: CampaignAggregate,
    /// Per-cell statistics (traced in-process campaigns only).
    cells: Option<Vec<Option<CellStats>>>,
    /// The finished fold (traced distributed campaigns only).
    fold: Option<MergeSink>,
    layers: Layers,
    problems: Vec<String>,
}

impl Campaign {
    /// Cells folded per wall second.
    fn cells_per_wall_s(&self) -> f64 {
        self.aggregate.cells as f64 / self.wall_s
    }

    /// Cells folded per reference second (wall seconds × host speed).
    fn cells_per_ref_s(&self) -> f64 {
        self.cells_per_wall_s() / self.speed
    }
}

/// Cells folded per reference second over `campaigns` taken together.
fn total_cells_per_ref_s(campaigns: &[&Campaign]) -> f64 {
    let cells: usize = campaigns.iter().map(|c| c.aggregate.cells).sum();
    let ref_s: f64 = campaigns.iter().map(|c| c.wall_s * c.speed).sum();
    cells as f64 / ref_s
}

/// A calibration timed as set-up.
fn calibrate() -> Result<(Calibration, f64), String> {
    let start = Instant::now();
    let calibration = CalibrationCampaign::default()
        .run(CALIBRATION_SEED)
        .map_err(|e| format!("calibration failed: {e}"))?;
    Ok((calibration, start.elapsed().as_secs_f64()))
}

/// Sink-side layers of a traced in-process campaign.
fn sink_layers<S>(sink: &TimingSink<S>) -> Layers {
    vec![
        ("sink.accepts", sink.accept_ns.len() as f64),
        ("sink.busy_s", sink.busy_s()),
        ("sink.accept_ns_p50", percentile_u64(&sink.accept_ns, 50.0)),
        ("sink.accept_ns_p99", percentile_u64(&sink.accept_ns, 99.0)),
        ("sink.max_out_of_order", sink.max_out_of_order as f64),
    ]
}

/// Executor layers from a campaign's wall time and fold.
fn executor_layers(wall_s: f64, aggregate: &CampaignAggregate) -> Layers {
    vec![
        (
            "executor.lane_steps_per_s",
            aggregate.total_intervals as f64 / wall_s,
        ),
        ("executor.cells", aggregate.cells as f64),
        ("executor.intervals", aggregate.total_intervals as f64),
    ]
}

/// One `paper_grid` campaign: the grid folded into a `MergeSink` by a
/// `CampaignRunner`.
fn paper_grid_once(spec: &SweepSpec, calibration: &Calibration, traced: bool) -> Campaign {
    let cells = spec.cells();
    let runner = spec.runner().with_threads(parallelism()).with_lanes(LANES);
    let mut problems = Vec::new();
    let (wall_s, sink, timing) = if traced {
        let mut sink = TimingSink::new(MergeSink::new(0..cells), cells);
        let start = Instant::now();
        runner.run_into(calibration, &mut sink);
        let wall_s = start.elapsed().as_secs_f64();
        let mut layers = sink_layers(&sink);
        layers.push(("executor.self_s", wall_s - sink.busy_s()));
        layers.extend(executor_layers(wall_s, sink.inner().aggregate()));
        let captured = std::mem::take(&mut sink.cells);
        (wall_s, sink.into_inner(), Some((layers, captured)))
    } else {
        let mut sink = MergeSink::new(0..cells);
        let start = Instant::now();
        runner.run_into(calibration, &mut sink);
        (start.elapsed().as_secs_f64(), sink, None)
    };
    if !sink.is_complete() {
        problems.push(format!(
            "fold incomplete: {} of {cells} cells",
            sink.folded()
        ));
    }
    let (layers, cells) = match timing {
        Some((layers, captured)) => (layers, Some(captured)),
        None => (Vec::new(), None),
    };
    Campaign {
        traced,
        setup_s: None,
        wall_s,
        speed: 1.0,
        aggregate: sink.aggregate().clone(),
        cells,
        fold: None,
        layers,
        problems,
    }
}

/// One `fault_churn` campaign: the grid through a `CheckpointSink` that
/// persists every [`CHECKPOINT_EVERY`] cells; the final write is part of
/// the campaign. The durable checkpoint is loaded back and must equal the
/// in-memory one.
fn fault_churn_once(
    spec: &SweepSpec,
    calibration: &Calibration,
    traced: bool,
    path: &Path,
) -> Campaign {
    let cells = spec.cells();
    let runner = spec.runner().with_threads(parallelism()).with_lanes(LANES);
    let checkpointing = CheckpointSink::new(spec.fingerprint(), cells, path, CHECKPOINT_EVERY, ());
    let mut problems = Vec::new();
    let (wall_s, checkpoint, finished, traced_parts) = if traced {
        let mut sink = TimingSink::new(checkpointing, cells);
        let start = Instant::now();
        runner.run_into(calibration, &mut sink);
        let run_s = start.elapsed().as_secs_f64();
        if let Some(e) = sink.inner().last_write_error() {
            problems.push(format!("checkpoint write failed: {e}"));
        }
        let captured = std::mem::take(&mut sink.cells);
        let mut layers = sink_layers(&sink);
        // Every CHECKPOINT_EVERY-th delivery wrote a snapshot inside accept.
        let mut writes_ns: Vec<u64> = sink
            .accept_ns
            .iter()
            .skip(CHECKPOINT_EVERY - 1)
            .step_by(CHECKPOINT_EVERY)
            .copied()
            .collect();
        let busy_s = sink.busy_s();
        let finish_start = Instant::now();
        let (checkpoint, (), finished) = sink.into_inner().finish();
        let finish_ns = finish_start.elapsed().as_nanos() as u64;
        writes_ns.push(finish_ns);
        let wall_s = run_s + finish_ns as f64 * 1e-9;
        layers.push(("executor.self_s", run_s - busy_s));
        layers.extend(executor_layers(run_s, checkpoint.fold().aggregate()));
        layers.push(("checkpoint.writes", writes_ns.len() as f64));
        layers.push((
            "checkpoint.write_ms_p50",
            percentile_u64(&writes_ns, 50.0) / 1e6,
        ));
        layers.push((
            "checkpoint.write_ms_max",
            writes_ns.iter().copied().max().unwrap_or(0) as f64 / 1e6,
        ));
        (wall_s, checkpoint, finished, Some((layers, captured)))
    } else {
        let mut sink = checkpointing;
        let start = Instant::now();
        runner.run_into(calibration, &mut sink);
        if let Some(e) = sink.last_write_error() {
            problems.push(format!("checkpoint write failed: {e}"));
        }
        let (checkpoint, (), finished) = sink.finish();
        (start.elapsed().as_secs_f64(), checkpoint, finished, None)
    };
    if let Err(e) = finished {
        problems.push(format!("final checkpoint write failed: {e}"));
    }
    if !checkpoint.is_complete() {
        problems.push(format!(
            "checkpoint incomplete: {} of {cells} cells",
            checkpoint.completed()
        ));
    }
    let load_start = Instant::now();
    match CampaignCheckpoint::load(path) {
        Ok(loaded) if loaded == checkpoint => {}
        Ok(_) => problems.push("the loaded checkpoint differs from the in-memory one".into()),
        Err(e) => problems.push(format!("loading the checkpoint failed: {e}")),
    }
    let load_ms = load_start.elapsed().as_secs_f64() * 1e3;
    let (layers, cells) = match traced_parts {
        Some((mut layers, captured)) => {
            let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            layers.push(("checkpoint.bytes", bytes as f64));
            layers.push(("checkpoint.load_ms", load_ms));
            (layers, Some(captured))
        }
        None => (Vec::new(), None),
    };
    Campaign {
        traced,
        setup_s: None,
        wall_s,
        speed: 1.0,
        aggregate: checkpoint.fold().aggregate().clone(),
        cells,
        fold: None,
        layers,
        problems,
    }
}

/// One distributed campaign: spawn the workers and connect (the set-up:
/// handshake plus each worker's calibration), run, then wait until every
/// worker process has been reaped.
fn distributed_once(spec: &SweepSpec, traced: bool, worker: &Path) -> Result<Campaign, String> {
    let counters = Arc::new(WireCounters::default());
    let result = distributed_run(spec, traced, worker, &counters);
    counters.wait_for_readers(REAP_TIMEOUT)?;
    let (setup_s, wall_s, report) = result?;
    let stats = report.stats();
    let mut problems = Vec::new();
    if stats.releases + stats.duplicate_cells + stats.lost_workers != 0 {
        problems.push(format!("unhealthy distributed run: {stats:?}"));
    }
    let aggregate = report.aggregate().clone();
    let layers = if traced {
        let load = |counter: &std::sync::atomic::AtomicU64| {
            counter.load(std::sync::atomic::Ordering::SeqCst) as f64
        };
        // The executor runs in the workers: its self time is not seen here.
        let mut layers = executor_layers(wall_s, &aggregate);
        layers.extend([
            ("coordinator.handshake_s", setup_s),
            ("coordinator.leases", stats.leases as f64),
            ("coordinator.releases", stats.releases as f64),
            ("coordinator.duplicate_cells", stats.duplicate_cells as f64),
            ("coordinator.lost_workers", stats.lost_workers as f64),
            (
                "coordinator.useful_cell_share",
                aggregate.cells as f64 / (aggregate.cells + stats.duplicate_cells) as f64,
            ),
            ("transport.bytes_sent", load(&counters.bytes_sent)),
            ("transport.bytes_recv", load(&counters.bytes_recv)),
            ("transport.writes", load(&counters.writes)),
            ("transport.recv_wait_s", load(&counters.recv_wait_ns) * 1e-9),
        ]);
        layers
    } else {
        Vec::new()
    };
    Ok(Campaign {
        traced,
        setup_s: Some(setup_s),
        wall_s,
        speed: 1.0,
        aggregate,
        cells: None,
        fold: traced.then(|| report.into_fold()),
        layers,
        problems,
    })
}

fn distributed_run(
    spec: &SweepSpec,
    traced: bool,
    worker: &Path,
    counters: &Arc<WireCounters>,
) -> Result<(f64, f64, platform_sim::DistributedReport), String> {
    let start = Instant::now();
    let mut transports: Vec<Box<dyn Transport>> = Vec::new();
    for _ in 0..parallelism() {
        let child = ChildTransport::spawn(&mut Command::new(worker))
            .map_err(|e| format!("spawning {}: {e}", worker.display()))?;
        transports.push(Box::new(CountingTransport::new(
            Box::new(child),
            Arc::clone(counters),
            traced,
        )));
    }
    let pool = Coordinator::new(spec.clone())
        .with_calibration(CalibrationCampaign::default(), CALIBRATION_SEED)
        .with_worker_threads(1)
        .with_worker_lanes(LANES)
        .connect(transports)
        .map_err(|e| format!("connecting workers: {e}"))?;
    let setup_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let report = pool.run().map_err(|e| format!("distributed run: {e}"))?;
    Ok((setup_s, start.elapsed().as_secs_f64(), report))
}

/// One end-to-end or per-layer metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The result of one invocation.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// End-to-end metrics (plain runs) or per-layer metrics (traced runs).
    pub metrics: Vec<Metric>,
    /// Cells attempted over every campaign.
    pub attempted: u64,
    /// Cells that failed over every campaign.
    pub failed: u64,
    /// Every correctness problem found; empty means correct.
    pub problems: Vec<String>,
    /// Human-readable report lines.
    pub notes: Vec<String>,
    /// The first campaign's fold.
    pub first: CampaignAggregate,
}

/// Runs campaigns of `options.workload` until `options.seconds` have
/// passed (and at least three plain, or two plain and two traced, campaigns
/// ran), checking each fold, then derives the metrics.
///
/// # Errors
///
/// Returns a message if a campaign cannot be run at all.
pub fn measure(options: &Options) -> Result<Outcome, String> {
    let workload = options.workload;
    let spec = workload.spec(options.seed, options.quick);
    let checkpoint_path = options.scratch.join("fault_churn.ckpt");
    let started = Instant::now();
    // The host's speed is read first and after every set-up sample and
    // campaign; each is scaled by the mean of the readings around it.
    let threads = parallelism();
    let mut speed = host::speed(threads);
    let mut readings = vec![speed];
    // In process, set-up is the calibration; every campaign shares the
    // first one. Set-up samples: wall and reference seconds.
    let mut setup = Vec::new();
    let mut setup_ref = Vec::new();
    let mut shared = None;
    let mut last_setup: Option<Instant> = None;
    let mut campaigns: Vec<Campaign> = Vec::new();
    let mut peak_rss = 0.0;
    loop {
        if workload != Workload::PaperGridDistributed
            && last_setup.is_none_or(|t| t.elapsed().as_secs_f64() >= SETUP_EVERY_S)
        {
            let (calibration, seconds) = calibrate()?;
            let after = host::speed(threads);
            setup.push(seconds);
            setup_ref.push(seconds * 0.5 * (speed + after));
            speed = after;
            readings.push(speed);
            shared.get_or_insert(calibration);
            last_setup = Some(Instant::now());
        }
        // Traced runs alternate plain and traced campaigns, so the tracing
        // overhead is measured under the same conditions.
        let traced = options.trace && campaigns.len() % 2 == 1;
        let mut campaign = match (workload, &shared) {
            (Workload::PaperGridDistributed, _) => {
                distributed_once(&spec, traced, &options.worker)?
            }
            (Workload::PaperGrid, Some(calibration)) => paper_grid_once(&spec, calibration, traced),
            (Workload::FaultChurn, Some(calibration)) => {
                fault_churn_once(&spec, calibration, traced, &checkpoint_path)
            }
            (_, None) => unreachable!("in-process workloads calibrate before any campaign"),
        };
        if campaigns.is_empty() {
            // The peak of a fresh process over one set-up and campaign:
            // later campaigns start from whatever heap earlier ones left.
            peak_rss = peak_rss_mb()?;
        }
        let after = host::speed(threads);
        campaign.speed = 0.5 * (speed + after);
        speed = after;
        readings.push(speed);
        campaigns.push(campaign);
        let traced_runs = campaigns.iter().filter(|c| c.traced).count();
        let plain_runs = campaigns.len() - traced_runs;
        let enough = if options.trace {
            traced_runs >= 2 && plain_runs >= 2
        } else {
            plain_runs >= 3
        };
        if enough && started.elapsed().as_secs_f64() >= options.seconds {
            break;
        }
    }

    let first = campaigns[0].aggregate.clone();
    let first_fields = fold::fields(&first);
    let mut problems = Vec::new();
    for (k, campaign) in campaigns.iter().enumerate() {
        problems.extend(
            campaign
                .problems
                .iter()
                .map(|p| format!("campaign {k}: {p}")),
        );
        for diff in fold::mismatches(&first_fields, &fold::fields(&campaign.aggregate)) {
            problems.push(format!("campaign {k} fold differs from campaign 0: {diff}"));
        }
    }
    problems.extend(invariants(workload, &spec, &first));
    let mode = if options.quick { "quick" } else { "full" };
    let reference = fold::reference(workload.reference_name(), mode, options.seed)?;
    for diff in fold::mismatches(&reference, &first_fields) {
        problems.push(format!("fold differs from the recorded reference: {diff}"));
    }
    let mut notes = Vec::new();
    notes.push(format!(
        "fold cells={} completed={} failed={} shutdowns={} intervals={} escalations={} \
         sensor_faults={} energy_j={:?} (reference {})",
        first.cells,
        first.completed_runs,
        first.failed_cells,
        first.shutdowns,
        first.total_intervals,
        first.escalations,
        first.sensor_faults,
        first.total_energy_j,
        if reference.is_empty() {
            "none for this seed"
        } else {
            "checked"
        },
    ));
    for campaign in &campaigns {
        if let Some(seconds) = campaign.setup_s {
            setup.push(seconds);
            setup_ref.push(seconds * campaign.speed);
        }
    }
    let (calibration, calibrate_s) = match shared {
        Some(calibration) => (calibration, median(&setup)),
        None => calibrate()?,
    };
    if workload == Workload::PaperGridDistributed {
        // The same spec in process must fold to the same aggregate. Run
        // after the campaigns, whose peak RSS is the coordinator's alone.
        let in_process = paper_grid_once(&spec, &calibration, false);
        for diff in fold::mismatches(&fold::fields(&in_process.aggregate), &first_fields) {
            problems.push(format!(
                "distributed fold differs from the in-process fold: {diff}"
            ));
        }
    }

    let attempted: u64 = campaigns.iter().map(|c| c.aggregate.cells as u64).sum();
    let failed: u64 = campaigns
        .iter()
        .map(|c| c.aggregate.failed_cells as u64)
        .sum();
    // The first campaign warms the process up (heap, caches) and is not
    // timed; the rest of the plain campaigns are taken together.
    let plain: Vec<&Campaign> = campaigns.iter().skip(1).filter(|c| !c.traced).collect();
    let plain_cps = total_cells_per_ref_s(&plain);
    notes.push(format!(
        "cells_per_ref_s: {plain_cps:.6} over {} plain campaigns after the first",
        plain.len()
    ));
    notes.push(describe(
        "cells per reference second, per campaign",
        &plain
            .iter()
            .map(|c| c.cells_per_ref_s())
            .collect::<Vec<_>>(),
    ));
    notes.push(describe(
        "cells per wall second, per campaign",
        &plain
            .iter()
            .map(|c| c.cells_per_wall_s())
            .collect::<Vec<_>>(),
    ));
    notes.push(describe("host speed", &readings));
    notes.push(describe("setup_s (reference seconds)", &setup_ref));
    notes.push(describe("set-up wall seconds", &setup));
    notes.push(format!(
        "peak_rss_mb: {peak_rss:.6} over the set-up and first campaign"
    ));

    let metrics = if options.trace {
        let traced: Vec<&Campaign> = campaigns.iter().filter(|c| c.traced).collect();
        per_layer(
            options,
            &spec,
            &traced,
            plain_cps,
            (&calibration, calibrate_s),
            &mut notes,
        )?
    } else {
        vec![
            Metric {
                name: "cells_per_ref_s",
                value: plain_cps,
            },
            Metric {
                name: "setup_s",
                value: median(&setup_ref),
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss,
            },
            Metric {
                name: "cell_success_share",
                value: 1.0 - failed as f64 / attempted as f64,
            },
        ]
    };
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        problems,
        notes,
        first,
    })
}

/// A series as median, quartiles, count and every sample.
fn describe(name: &str, samples: &[f64]) -> String {
    let (q1, q3) = quartiles(samples);
    let all: Vec<String> = samples.iter().map(|v| format!("{v:.4}")).collect();
    format!(
        "{name}: median {:.6} q1 {q1:.6} q3 {q3:.6} over {} samples [{}]",
        median(samples),
        samples.len(),
        all.join(" ")
    )
}

/// Workload properties every fold must show, independent of other runs.
fn invariants(workload: Workload, spec: &SweepSpec, aggregate: &CampaignAggregate) -> Vec<String> {
    let mut problems = Vec::new();
    if aggregate.cells != spec.cells() {
        problems.push(format!(
            "folded {} cells, the grid has {}",
            aggregate.cells,
            spec.cells()
        ));
    }
    if aggregate.failed_cells != 0 {
        problems.push(format!("{} cells failed", aggregate.failed_cells));
    }
    match workload {
        Workload::PaperGrid | Workload::PaperGridDistributed => {
            if aggregate.completed_runs != aggregate.cells {
                problems.push(format!(
                    "{} of {} cells did not complete their benchmark",
                    aggregate.cells - aggregate.completed_runs,
                    aggregate.cells
                ));
            }
        }
        Workload::FaultChurn => {
            let intervals = (CHURN_CAP_S / spec.control_period_s).round() as usize;
            if aggregate.total_intervals != aggregate.cells * intervals {
                problems.push(format!(
                    "{} intervals folded, expected {intervals} for each of {} cells",
                    aggregate.total_intervals, aggregate.cells
                ));
            }
            if aggregate.sensor_faults == 0 {
                problems.push("no sensor fault was detected under fault injection".into());
            }
        }
    }
    problems
}

/// Every per-layer metric of a traced invocation: medians over the traced
/// campaigns, the probes, and the derived shares.
fn per_layer(
    options: &Options,
    spec: &SweepSpec,
    traced: &[&Campaign],
    plain_cps: f64,
    (calibration, calibrate_s): (&Calibration, f64),
    notes: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let mut measured: Vec<(&'static str, f64)> = Vec::new();
    let names: Vec<&'static str> = {
        let mut names: Vec<&'static str> = traced
            .iter()
            .flat_map(|c| c.layers.iter().map(|(n, _)| *n))
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    };
    for name in names {
        let values: Vec<f64> = traced
            .iter()
            .filter_map(|c| c.layers.iter().find(|(n, _)| *n == name).map(|(_, v)| *v))
            .collect();
        measured.push((name, median(&values)));
    }
    measured.push(("calibrate.run_s", calibrate_s));

    let captures: Vec<&Vec<Option<CellStats>>> =
        traced.iter().filter_map(|c| c.cells.as_ref()).collect();
    if let [a, b, ..] = captures[..] {
        let mismatched = fold::cell_mismatch(a, b);
        measured.push(("executor.cell_mismatch", mismatched as f64));
        notes.push(format!(
            "executor.cell_mismatch: {mismatched} of {} cells differ bitwise between two traced \
             campaigns of the same spec",
            spec.cells()
        ));
        if options.workload == Workload::PaperGrid {
            notes.extend(fidelity_notes(spec, a));
        }
    }

    measured.extend(probes::campaign(spec, options.quick));
    let (engine, plant) = probes::engine(spec, options.seed, options.quick)?;
    measured.extend(engine);
    measured.extend(probes::core(spec, calibration, &plant, options.quick)?);
    measured.extend(probes::absorb(spec, options.seed, &plant, options.quick));
    if let Some(fold) = traced.iter().find_map(|c| c.fold.as_ref()) {
        measured.extend(probes::codec(fold, options.quick)?);
    }

    let get = |measured: &[(&str, f64)], name: &str| {
        measured.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    };
    let traced_wall = median(&traced.iter().map(|c| c.wall_s).collect::<Vec<_>>());
    // Plant-step share of the campaign's thread time, priced at the uniform
    // path: a lower bound, since batches mixing fan levels or ambients take
    // the slower strided fallback.
    let est_share = get(&measured, "executor.intervals").unwrap_or(0.0)
        * get(&measured, "engine.step_ns_per_lane_step_uniform").unwrap_or(0.0)
        * 1e-9
        / (parallelism() as f64 * traced_wall);
    measured.push(("engine.est_share", est_share));
    measured.push((
        "trace.overhead_pct",
        100.0 * (plain_cps / total_cells_per_ref_s(traced) - 1.0),
    ));

    Ok(crate::PER_LAYER
        .iter()
        .map(|(name, _)| Metric {
            name,
            value: get(&measured, name).unwrap_or(0.0),
        })
        .collect())
}

/// The fidelity readout: simulated DTPM savings against the paper's.
fn fidelity_notes(spec: &SweepSpec, cells: &[Option<CellStats>]) -> Vec<String> {
    let mut notes =
        vec!["fidelity (simulated, for comparison with the paper; not a gated metric):".to_owned()];
    for row in fold::fidelity(spec, cells) {
        notes.push(format!(
            "  {:<6} activity: DTPM saves {:6.2} % platform power vs DefaultWithFan \
             (paper {:.0} %), execution-time loss {:5.2} %{}, {} pairs",
            row.class.to_string(),
            row.saving_pct,
            fold::paper_saving_pct(row.class),
            row.loss_pct,
            if row.class == BenchmarkCategory::Low {
                " (paper < 1 %)"
            } else {
                ""
            },
            row.pairs
        ));
    }
    notes
}
