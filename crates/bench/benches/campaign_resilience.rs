//! Wall-clock overhead of checkpointed campaigns.
//!
//! The same ~200-cell summaries-only grid as `sweep_campaign` is run through
//! two sinks:
//!
//! * **plain** — a bare [`MergeSink`]: the in-memory canonical fold, no
//!   persistence.
//! * **checkpointed** — a [`CheckpointSink`] around the same fold, writing
//!   an atomic on-disk snapshot every [`CHECKPOINT_EVERY`] completed cells
//!   (temp-file + sync + rename, the crash-safe path a long campaign uses).
//!
//! The acceptance bar: resilience must be close to free. The checkpointed
//! arm's best-of-two wall clock must stay within [`OVERHEAD_CEILING`] of the
//! plain arm's, and both arms must fold to the **bit-identical** aggregate
//! (compared by [`platform_sim::distributed::encode_sink`] bytes, where
//! every float is a bit pattern). The
//! measured numbers land in `BENCH_campaign_resilience.json`.

use std::time::{Duration, Instant};

use platform_sim::distributed::encode_sink;
use platform_sim::{
    Calibration, CalibrationCampaign, CheckpointSink, DtpmVariant, ExperimentKind, MergeSink,
    SweepSpec, TracePolicy,
};
use workload::BenchmarkId;

/// Lanes per worker engine (batch width) for both arms.
const LANES: usize = 8;
/// Simulated duration cap per cell in the full run, seconds. Long enough
/// that cells carry a realistic amount of simulation work: the checkpoint
/// bar is about amortised cost, and a campaign of trivially short cells
/// would measure little but the fsync floor.
const FULL_DURATION_S: f64 = 60.0;
/// Checkpoint cadence, completed cells per snapshot.
const CHECKPOINT_EVERY: usize = 25;
/// Acceptance ceiling: checkpointed wall over plain wall.
const OVERHEAD_CEILING: f64 = 1.05;

/// The campaign grid: 2 kinds × 5 benchmarks × 2 ambients × 2 DTPM variants
/// × 5 replicates = 200 cells (8 cells in `--test` mode).
fn campaign(test_mode: bool) -> SweepSpec {
    let (benchmarks, ambients, variants, replicates) = if test_mode {
        (
            vec![BenchmarkId::Crc32],
            vec![28.0],
            vec![DtpmVariant::default()],
            4,
        )
    } else {
        (
            vec![
                BenchmarkId::Crc32,
                BenchmarkId::Qsort,
                BenchmarkId::Dijkstra,
                BenchmarkId::Basicmath,
                BenchmarkId::Templerun,
            ],
            vec![26.0, 32.0],
            vec![
                DtpmVariant::default(),
                DtpmVariant {
                    horizon_steps: 20,
                    constraint_c: 60.0,
                },
            ],
            5,
        )
    };
    SweepSpec::new(
        vec![ExperimentKind::Reactive, ExperimentKind::Dtpm],
        benchmarks,
    )
    .with_ambients_c(ambients)
    .with_dtpm_variants(variants)
    .with_replicates(replicates)
    .with_campaign_seed(0x5EED_CA4D)
    .with_max_duration_s(if test_mode { 1.0 } else { FULL_DURATION_S })
    .with_ideal_sensors(true)
}

fn run_plain(spec: &SweepSpec, calibration: &Calibration) -> (Duration, MergeSink) {
    let mut sink = MergeSink::new(0..spec.cells());
    let start = Instant::now();
    spec.runner()
        .with_threads(1)
        .with_lanes(LANES)
        .with_recording(TracePolicy::SummaryOnly)
        .run_into(calibration, &mut sink);
    (start.elapsed(), sink)
}

fn run_checkpointed(
    spec: &SweepSpec,
    calibration: &Calibration,
    path: &std::path::Path,
) -> (Duration, MergeSink) {
    let mut sink =
        CheckpointSink::new(spec.fingerprint(), spec.cells(), path, CHECKPOINT_EVERY, ());
    let start = Instant::now();
    spec.runner()
        .with_threads(1)
        .with_lanes(LANES)
        .with_recording(TracePolicy::SummaryOnly)
        .run_into(calibration, &mut sink);
    let wall = start.elapsed();
    let (checkpoint, (), write) = sink.finish();
    write.expect("final checkpoint write must succeed");
    assert!(checkpoint.is_complete(), "every cell must be recorded");
    (wall, checkpoint.into_fold())
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let spec = campaign(test_mode);
    let cells = spec.cells();
    let path = std::env::temp_dir().join(format!(
        "dtpm-bench-campaign-resilience-{}.ckpt",
        std::process::id()
    ));

    let calibration = CalibrationCampaign {
        prbs_duration_s: 120.0,
        run_furnace: false,
        ..CalibrationCampaign::default()
    }
    .run(41)
    .expect("calibration campaign must succeed");

    // Two interleaved passes per arm; best-of-two removes warm-up noise.
    let (plain_a, plain_fold) = run_plain(&spec, &calibration);
    let (ckpt_a, ckpt_fold) = run_checkpointed(&spec, &calibration, &path);
    let (ckpt_b, _) = run_checkpointed(&spec, &calibration, &path);
    let (plain_b, _) = run_plain(&spec, &calibration);
    let plain_wall = plain_a.min(plain_b);
    let ckpt_wall = ckpt_a.min(ckpt_b);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(path.with_extension("ckpt.tmp")).ok();

    // Resilience must be invisible in the numbers: the checkpointed fold is
    // bit-identical to the plain one (the binary encoding stores every float
    // as its bit pattern).
    assert!(plain_fold.is_complete() && ckpt_fold.is_complete());
    assert_eq!(
        encode_sink(&plain_fold),
        encode_sink(&ckpt_fold),
        "checkpointed fold diverged from the plain fold"
    );
    assert_eq!(plain_fold.aggregate().cells, cells);

    let plain_ms = plain_wall.as_secs_f64() * 1e3;
    let ckpt_ms = ckpt_wall.as_secs_f64() * 1e3;
    let overhead = ckpt_ms / plain_ms;
    let snapshots = cells.div_ceil(CHECKPOINT_EVERY);
    println!("campaign_resilience/cells               {cells:>14}");
    println!("campaign_resilience/checkpoint_every    {CHECKPOINT_EVERY:>14}");
    println!("campaign_resilience/snapshots           {snapshots:>14}");
    println!("campaign_resilience/plain_wall          {plain_ms:>14.2} ms");
    println!("campaign_resilience/checkpointed_wall   {ckpt_ms:>14.2} ms");
    println!(
        "campaign_resilience/overhead            {overhead:>14.3}x \
         (acceptance ceiling: <= {OVERHEAD_CEILING}x)"
    );

    if !test_mode {
        write_bench_json(cells, snapshots, plain_ms, ckpt_ms, overhead);
        assert!(
            overhead <= OVERHEAD_CEILING,
            "checkpointing overhead regressed to {overhead:.3}x \
             (ceiling: {OVERHEAD_CEILING}x)"
        );
    }
}

/// Records the measured numbers for tracking
/// (`BENCH_campaign_resilience.json`).
fn write_bench_json(cells: usize, snapshots: usize, plain_ms: f64, ckpt_ms: f64, overhead: f64) {
    let json = format!(
        "{{\n  \"bench\": \"campaign_resilience\",\n  \"cells\": {cells},\n  \
         \"lanes\": {LANES},\n  \
         \"max_duration_s\": {FULL_DURATION_S},\n  \
         \"checkpoint_every\": {CHECKPOINT_EVERY},\n  \
         \"snapshots\": {snapshots},\n  \
         \"plain_wall_ms\": {plain_ms:.2},\n  \
         \"checkpointed_wall_ms\": {ckpt_ms:.2},\n  \
         \"overhead\": {overhead:.3},\n  \
         \"ceiling\": {OVERHEAD_CEILING}\n}}\n"
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_campaign_resilience.json"
    );
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("warning: could not write {path}: {e}");
    }
}
