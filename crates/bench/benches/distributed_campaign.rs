//! Wall-clock benchmarks for distributed campaign execution.
//!
//! Two acceptance bars, both asserted on the full (non `--test`) run:
//!
//! * **Straggler-proofing** (floor ≥ [`SPEEDUP_FLOOR`]): micro-shard
//!   leasing versus a static split into contiguous cell ranges when one of
//!   two workers is a straggler. The grid is ragged twice over — DTPM cells cost more
//!   wall time per simulated second than Reactive ones (kind-major order
//!   hands the first half-range all the expensive cells), and one DTPM
//!   cell panics late and is retried under the resilience policy — and on
//!   top of that worker 0 stalls for [`STRAGGLER_STALL`] before its first
//!   delivery. Under a static split the stalled worker's whole shard
//!   convoys behind the stall; under leasing the coordinator re-leases the
//!   silent worker's micro-shard after [`LEASE_TIMEOUT`] and the healthy
//!   worker absorbs it, so the damage is bounded by the timeout instead of
//!   the stall. Stalls sleep rather than burn CPU, so the gap measures the
//!   scheduling difference honestly on any core count.
//! * **Dispatch overhead** (ceiling ≤ [`OVERHEAD_CEILING`]): coordinator +
//!   one healthy local worker (binary frames over an in-process pipe,
//!   per-cell outcome transport, heartbeats) versus the plain in-process
//!   [`platform_sim::CampaignRunner`] at the same thread count on the same
//!   grid.
//!
//! The leasing arms must fold the **bit-identical** aggregate of the
//! in-process run (compared by [`platform_sim::distributed::encode_sink`]
//! bytes, where every float is a bit pattern) — the tax and the speed-up are both pure wall clock. Worker
//! calibration re-derivation happens during the untimed handshake, exactly
//! as a long campaign would amortise it. Measured numbers land in
//! `BENCH_distributed_campaign.json`.

use std::time::{Duration, Instant};

use platform_sim::distributed::{
    encode_sink, serve, serve_with, MemoryTransport, Transport, WorkerChaos, WorkerOptions,
};
use platform_sim::{
    Calibration, CalibrationCampaign, ChaosPlan, Coordinator, DtpmVariant, ExperimentKind,
    MergeSink, ResiliencePolicy, SweepSpec,
};
use workload::BenchmarkId;

/// Simulated duration cap per cell, seconds (full run). Long enough that
/// per-cell compute dominates per-lease latency.
const FULL_DURATION_S: f64 = 300.0;
/// Workers / static shards in the straggler arm.
const WORKERS: usize = 2;
/// Cells per micro-shard lease.
const LEASE_CELLS: usize = 2;
/// How long the straggling worker goes silent.
const STRAGGLER_STALL: Duration = Duration::from_millis(400);
/// Missed-heartbeat deadline in the straggler arm: the bound leasing puts
/// on the stall's damage.
const LEASE_TIMEOUT: Duration = Duration::from_millis(100);
/// Threads per side in the overhead arm.
const OVERHEAD_THREADS: usize = 2;
/// Lease size in the overhead arm: half the grid per lease, so the tax
/// measured is the frame/heartbeat/outcome transport, not scheduler
/// round-trip latency (arm (a) covers micro-shard scheduling).
const OVERHEAD_LEASE_CELLS: usize = 12;
/// Retry budget covering the injected panicking cell.
const MAX_RETRIES: u32 = 2;
/// Acceptance floor: static-split wall over leased wall with a straggler.
const SPEEDUP_FLOOR: f64 = 1.3;
/// Acceptance ceiling: distributed wall over in-process wall, equal threads.
const OVERHEAD_CEILING: f64 = 1.15;

/// The ragged grid: kind-major order puts all DTPM cells (a predictive
/// optimisation every control interval — expensive) in the first half and
/// all Reactive cells (a threshold check — cheap) in the second, so
/// a two-way static split hands shard 0 all the expensive cells. One DTPM cell panics
/// late in its first attempt and heals on retry, so its true cost is
/// roughly doubled in a way no static partitioner can predict. The same
/// spec (chaos plan included — it travels in the Hello frame) runs on
/// every arm; only the topology differs.
fn campaign(test_mode: bool) -> SweepSpec {
    let (benchmarks, ambients, replicates, duration_s, panic_at) = if test_mode {
        (vec![BenchmarkId::Crc32], vec![28.0], 2, 1.0, 3)
    } else {
        (
            vec![
                BenchmarkId::Templerun,
                BenchmarkId::Crc32,
                BenchmarkId::Qsort,
            ],
            vec![26.0, 32.0],
            2,
            FULL_DURATION_S,
            // Late enough to waste most of a first attempt, early enough
            // that even the shortest DTPM cell (~865 intervals) reaches it.
            700,
        )
    };
    SweepSpec::new(
        vec![ExperimentKind::Dtpm, ExperimentKind::Reactive],
        benchmarks,
    )
    .with_ambients_c(ambients)
    .with_dtpm_variants(vec![DtpmVariant {
        horizon_steps: 80,
        constraint_c: 60.0,
    }])
    .with_replicates(replicates)
    .with_campaign_seed(0xD157_CA4D)
    .with_max_duration_s(duration_s)
    .with_ideal_sensors(true)
    .with_cell_chaos(
        if test_mode { 1 } else { 4 },
        ChaosPlan::panic_at(panic_at).healing_after(1),
    )
}

fn resilience() -> ResiliencePolicy {
    ResiliencePolicy::default().with_max_retries(MAX_RETRIES)
}

/// The calibration recipe both sides share: the coordinator ships it to
/// workers, the in-process arms run it directly.
fn calibration_campaign() -> CalibrationCampaign {
    CalibrationCampaign {
        prbs_duration_s: 120.0,
        run_furnace: false,
        ..CalibrationCampaign::default()
    }
}

const CALIBRATION_SEED: u64 = 41;

/// Static sharding with a straggler: `WORKERS` contiguous, near-equal cell
/// ranges, one OS thread per shard (each single-threaded, like one remote
/// worker), and the thread
/// holding shard 0 stalled for `stall` before it starts — a statically
/// assigned shard has nowhere else to go, so the campaign eats the whole
/// delay. Deterministic merge at the end.
fn run_static_split(
    spec: &SweepSpec,
    calibration: &Calibration,
    stall: Duration,
) -> (Duration, platform_sim::CampaignAggregate) {
    let cells = spec.cells();
    let start = Instant::now();
    let sinks: Vec<MergeSink> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|which| {
                let range =
                    (which * cells).div_ceil(WORKERS)..((which + 1) * cells).div_ceil(WORKERS);
                scope.spawn(move || {
                    if which == 0 {
                        std::thread::sleep(stall);
                    }
                    let mut sink = MergeSink::new(range.clone());
                    let indices: Vec<usize> = range.collect();
                    spec.runner()
                        .with_threads(1)
                        .with_resilience(resilience())
                        .run_indices_into(&indices, calibration, &mut sink);
                    sink
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard"))
            .collect()
    });
    let merged = MergeSink::merge_all(sinks).expect("shards must merge");
    (start.elapsed(), merged)
}

/// Leased execution over in-process worker threads speaking the real
/// binary protocol over memory pipes; worker 0 gets `chaos` (the straggler
/// arm stalls it). The handshake (including worker calibration) is
/// untimed; the timer covers leasing through completion.
fn run_leased(
    spec: &SweepSpec,
    workers: usize,
    threads_per_worker: usize,
    lease_cells: usize,
    lease_timeout: Duration,
    chaos: WorkerChaos,
) -> (Duration, MergeSink) {
    let mut transports: Vec<Box<dyn Transport>> = Vec::new();
    let mut serving = Vec::new();
    for which in 0..workers {
        let (coordinator_end, worker_end) = MemoryTransport::pair();
        transports.push(Box::new(coordinator_end));
        serving.push(std::thread::spawn(move || {
            if which == 0 {
                serve_with(Box::new(worker_end), WorkerOptions { chaos })
            } else {
                serve(Box::new(worker_end))
            }
        }));
    }
    let pool = Coordinator::new(spec.clone())
        .with_calibration(calibration_campaign(), CALIBRATION_SEED)
        .with_lease_cells(lease_cells)
        .with_lease_timeout(lease_timeout)
        .with_worker_threads(threads_per_worker)
        .with_resilience(resilience())
        .connect(transports)
        .expect("handshake must succeed");
    let start = Instant::now();
    let report = pool.run().expect("campaign must complete");
    let wall = start.elapsed();
    for worker in serving {
        worker
            .join()
            .expect("worker thread must not panic")
            .expect("worker must exit cleanly");
    }
    (wall, report.into_fold())
}

/// Plain in-process run at the overhead arm's thread count.
fn run_in_process(spec: &SweepSpec, calibration: &Calibration) -> (Duration, MergeSink) {
    let mut sink = MergeSink::new(0..spec.cells());
    let start = Instant::now();
    spec.runner()
        .with_threads(OVERHEAD_THREADS)
        .with_resilience(resilience())
        .run_into(calibration, &mut sink);
    (start.elapsed(), sink)
}

/// The injected chaos panics are caught and retried by the resilience
/// machinery; with `RUST_BACKTRACE` set their default-hook backtrace
/// symbolisation is slow enough to pollute the timings, so silence exactly
/// those panics and leave every other one loud.
fn silence_chaos_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let message = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        if !message.contains("chaos plan") {
            default_hook(info);
        }
    }));
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    silence_chaos_panics();
    let spec = campaign(test_mode);
    let cells = spec.cells();
    let stall = if test_mode {
        Duration::from_millis(60)
    } else {
        STRAGGLER_STALL
    };
    let timeout = if test_mode {
        Duration::from_millis(20)
    } else {
        LEASE_TIMEOUT
    };
    let straggler = WorkerChaos {
        stall_after_cells: Some(0),
        stall_for: stall,
        ..WorkerChaos::default()
    };

    let calibration = calibration_campaign()
        .run(CALIBRATION_SEED)
        .expect("calibration campaign must succeed");

    // Straggler arm: interleaved best-of-two per scheduler.
    let (static_a, static_fold) = run_static_split(&spec, &calibration, stall);
    let (leased_a, leased_fold) = run_leased(&spec, WORKERS, 1, LEASE_CELLS, timeout, straggler);
    let (leased_b, _) = run_leased(&spec, WORKERS, 1, LEASE_CELLS, timeout, straggler);
    let (static_b, _) = run_static_split(&spec, &calibration, stall);
    let static_wall = static_a.min(static_b);
    let leased_wall = leased_a.min(leased_b);

    // Overhead arm: one healthy worker at OVERHEAD_THREADS vs in-process at
    // the same thread count.
    let healthy = WorkerChaos::default();
    let long = Duration::from_secs(120);
    let (inproc_a, inproc_fold) = run_in_process(&spec, &calibration);
    let (dist_a, dist_fold) = run_leased(
        &spec,
        1,
        OVERHEAD_THREADS,
        OVERHEAD_LEASE_CELLS,
        long,
        healthy,
    );
    let (dist_b, _) = run_leased(
        &spec,
        1,
        OVERHEAD_THREADS,
        OVERHEAD_LEASE_CELLS,
        long,
        healthy,
    );
    let (inproc_b, _) = run_in_process(&spec, &calibration);
    let inproc_wall = inproc_a.min(inproc_b);
    let dist_wall = dist_a.min(dist_b);

    // The leasing paths fold in canonical order and must reproduce the
    // in-process bits exactly (every float compared as a bit pattern via
    // the wire encoding) — stalls, re-leases and deduped duplicates
    // included. The static baseline combines shard aggregates through the
    // Chan–Welford merge — deterministic, but a different floating-point
    // association — so it gets exact integer fields and a tight tolerance
    // on the float totals instead.
    assert!(leased_fold.is_complete());
    assert!(inproc_fold.is_complete() && dist_fold.is_complete());
    let reference = encode_sink(&inproc_fold);
    assert_eq!(encode_sink(&leased_fold), reference, "leased fold diverged");
    assert_eq!(
        encode_sink(&dist_fold),
        reference,
        "distributed fold diverged"
    );
    let inproc_agg = inproc_fold.aggregate();
    assert_eq!(inproc_agg.cells, cells);
    assert_eq!(static_fold.cells, inproc_agg.cells, "static cell count");
    assert_eq!(static_fold.completed_runs, inproc_agg.completed_runs);
    assert_eq!(static_fold.failed_cells, inproc_agg.failed_cells);
    assert_eq!(static_fold.total_intervals, inproc_agg.total_intervals);
    let energy_gap = (static_fold.total_energy_j - inproc_agg.total_energy_j).abs();
    assert!(
        energy_gap <= 1e-9 * inproc_agg.total_energy_j.abs(),
        "static energy total diverged by {energy_gap}"
    );

    let static_ms = static_wall.as_secs_f64() * 1e3;
    let leased_ms = leased_wall.as_secs_f64() * 1e3;
    let speedup = static_ms / leased_ms;
    let inproc_ms = inproc_wall.as_secs_f64() * 1e3;
    let dist_ms = dist_wall.as_secs_f64() * 1e3;
    let overhead = dist_ms / inproc_ms;

    println!("distributed_campaign/cells              {cells:>14}");
    println!("distributed_campaign/workers            {WORKERS:>14}");
    println!("distributed_campaign/lease_cells        {LEASE_CELLS:>14}");
    println!(
        "distributed_campaign/straggler_stall    {:>14.0} ms",
        stall.as_secs_f64() * 1e3
    );
    println!(
        "distributed_campaign/lease_timeout      {:>14.0} ms",
        timeout.as_secs_f64() * 1e3
    );
    println!("distributed_campaign/static_split_wall  {static_ms:>14.2} ms");
    println!("distributed_campaign/leased_wall        {leased_ms:>14.2} ms");
    println!(
        "distributed_campaign/lease_speedup      {speedup:>14.3}x \
         (acceptance floor: >= {SPEEDUP_FLOOR}x)"
    );
    println!("distributed_campaign/in_process_wall    {inproc_ms:>14.2} ms");
    println!("distributed_campaign/distributed_wall   {dist_ms:>14.2} ms");
    println!(
        "distributed_campaign/dispatch_overhead  {overhead:>14.3}x \
         (acceptance ceiling: <= {OVERHEAD_CEILING}x)"
    );

    if !test_mode {
        write_bench_json(
            cells, static_ms, leased_ms, speedup, inproc_ms, dist_ms, overhead,
        );
        assert!(
            speedup >= SPEEDUP_FLOOR,
            "lease speedup fell to {speedup:.3}x (floor: {SPEEDUP_FLOOR}x)"
        );
        assert!(
            overhead <= OVERHEAD_CEILING,
            "dispatch overhead regressed to {overhead:.3}x \
             (ceiling: {OVERHEAD_CEILING}x)"
        );
    }
}

/// Records the measured numbers for tracking
/// (`BENCH_distributed_campaign.json`).
fn write_bench_json(
    cells: usize,
    static_ms: f64,
    leased_ms: f64,
    speedup: f64,
    inproc_ms: f64,
    dist_ms: f64,
    overhead: f64,
) {
    let stall_ms = STRAGGLER_STALL.as_secs_f64() * 1e3;
    let timeout_ms = LEASE_TIMEOUT.as_secs_f64() * 1e3;
    let json = format!(
        "{{\n  \"bench\": \"distributed_campaign\",\n  \"cells\": {cells},\n  \
         \"workers\": {WORKERS},\n  \
         \"lease_cells\": {LEASE_CELLS},\n  \
         \"max_duration_s\": {FULL_DURATION_S},\n  \
         \"straggler_stall_ms\": {stall_ms:.0},\n  \
         \"lease_timeout_ms\": {timeout_ms:.0},\n  \
         \"static_split_wall_ms\": {static_ms:.2},\n  \
         \"leased_wall_ms\": {leased_ms:.2},\n  \
         \"lease_speedup\": {speedup:.3},\n  \
         \"speedup_floor\": {SPEEDUP_FLOOR},\n  \
         \"overhead_threads\": {OVERHEAD_THREADS},\n  \
         \"in_process_wall_ms\": {inproc_ms:.2},\n  \
         \"distributed_wall_ms\": {dist_ms:.2},\n  \
         \"dispatch_overhead\": {overhead:.3},\n  \
         \"overhead_ceiling\": {OVERHEAD_CEILING}\n}}\n"
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_distributed_campaign.json"
    );
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("warning: could not write {path}: {e}");
    }
}
