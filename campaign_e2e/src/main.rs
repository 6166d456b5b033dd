//! `campaign-e2e`: the end-to-end campaign benchmark.
//!
//! ```text
//! campaign-e2e --workload <paper_grid|fault_churn|paper_grid_distributed>
//!              --seed N --seconds S --trace <0|1> [--quick] [--worker PATH]
//!              [--print-reference]
//! ```
//!
//! Runs campaigns of one workload for at least `S` seconds, checks every
//! fold, and prints a report followed by one JSON result line. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` alternates plain and traced
//! campaigns and reports the per-layer metrics. `--quick` runs one
//! replicate per grid point and short probes (the benchmark's own tests).
//! `--print-reference` prints the first fold as reference lines for
//! `reference.txt` instead of the result. See `README.md` for the
//! workloads and metrics.

mod fold;
mod host;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{Options, Outcome, Workload};

/// SIMD batch lanes of every engine, in process and in each worker.
pub const LANES: usize = 8;

/// The end-to-end metrics: name, unit (as in `BENCHMARK.json`).
pub const END_TO_END: [(&str, &str); 4] = [
    ("cells_per_ref_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cell_success_share", "ratio"),
];

/// The per-layer metrics: name, unit (as in `BENCHMARK.json`). A metric of
/// a layer the workload does not run in this process reads 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("calibrate.run_s", "s"),
    ("campaign.cell_ns", "ns"),
    ("campaign.fingerprint_us", "us"),
    ("executor.self_s", "s"),
    ("executor.lane_steps_per_s", "1/s"),
    ("executor.cells", "count"),
    ("executor.intervals", "count"),
    ("executor.cell_mismatch", "count"),
    ("engine.step_ns_per_lane_step_uniform", "ns"),
    ("engine.step_ns_per_lane_step_fan_diverged", "ns"),
    ("engine.admit_ns", "ns"),
    ("engine.est_share", "ratio"),
    ("core.decide_ns", "ns"),
    ("core.batch_predict_ns_per_lane", "ns"),
    ("sensors.sample_ns", "ns"),
    ("faults.apply_ns", "ns"),
    ("safety.screen_ns", "ns"),
    ("safety.ladder_observe_ns", "ns"),
    ("sink.accepts", "count"),
    ("sink.busy_s", "s"),
    ("sink.accept_ns_p50", "ns"),
    ("sink.accept_ns_p99", "ns"),
    ("sink.max_out_of_order", "count"),
    ("checkpoint.writes", "count"),
    ("checkpoint.write_ms_p50", "ms"),
    ("checkpoint.write_ms_max", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.load_ms", "ms"),
    ("coordinator.handshake_s", "s"),
    ("coordinator.leases", "count"),
    ("coordinator.releases", "count"),
    ("coordinator.duplicate_cells", "count"),
    ("coordinator.lost_workers", "count"),
    ("coordinator.useful_cell_share", "ratio"),
    ("transport.bytes_sent", "bytes"),
    ("transport.bytes_recv", "bytes"),
    ("transport.writes", "count"),
    ("transport.recv_wait_s", "s"),
    ("codec.encode_sink_us", "us"),
    ("codec.decode_sink_us", "us"),
    ("codec.sink_bytes", "bytes"),
    ("trace.overhead_pct", "%"),
];

/// The parsed command line.
struct Args {
    options: Options,
    print_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let exe_dir = exe
        .parent()
        .ok_or("this binary has no parent directory")?
        .to_path_buf();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut quick, mut print_reference) = (false, false);
    let mut worker = exe_dir.join("dtpm-worker");
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err(format!(
                        "--seconds must be a finite non-negative number, got {s}"
                    ));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                });
            }
            "--worker" => worker = PathBuf::from(value()?),
            "--quick" => quick = true,
            "--print-reference" => print_reference = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let missing = |what: &str| format!("missing {what}");
    Ok(Args {
        options: Options {
            workload: workload.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
            quick,
            worker,
            scratch: exe_dir
                .join("campaign_e2e-scratch")
                .join(std::process::id().to_string()),
        },
        print_reference,
    })
}

/// `text` as a JSON string literal.
fn json_str(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The conditions a result was measured under, as one JSON object.
fn conditions(options: &Options) -> String {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_owned());
    let spec = options.workload.spec(options.seed, options.quick);
    let nproc = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let (threads, workers) = match options.workload {
        Workload::PaperGridDistributed => (1, workloads::parallelism()),
        _ => (workloads::parallelism(), 0),
    };
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"quick\": {}, \
         \"cells\": {}, \"kernel\": {}, \"nproc\": {nproc}, \"threads\": {threads}, \
         \"workers\": {workers}, \"lanes\": {LANES}, \"precision\": {}, \"rustc\": {}, \
         \"commit\": {}, \"source_digest\": {}}}",
        json_str(options.workload.name()),
        options.seed,
        options.seconds,
        options.trace,
        options.quick,
        spec.cells(),
        json_str(numeric::simd::PanelKernel::active().name()),
        json_str(&format!("{:?}", spec.precision)),
        json_str(&env("CAMPAIGN_E2E_RUSTC")),
        json_str(&env("CAMPAIGN_E2E_COMMIT")),
        json_str(&env("CAMPAIGN_E2E_SOURCE_DIGEST")),
    )
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
fn result_line(outcome: &Outcome, problems: &[String]) -> String {
    let unit = |name: &str| -> &str {
        END_TO_END
            .into_iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| u)
    };
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                if m.value.is_finite() { m.value } else { 0.0 },
                json_str(unit(m.name))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        problems.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn run(args: &Args) -> Result<(), String> {
    let options = &args.options;
    std::fs::create_dir_all(&options.scratch)
        .map_err(|e| format!("creating {}: {e}", options.scratch.display()))?;
    let measured = workloads::measure(options);
    // Best effort: the scratch directory only ever holds checkpoints.
    let _ = std::fs::remove_dir_all(&options.scratch);
    let outcome = measured?;
    if args.print_reference {
        let mode = if options.quick { "quick" } else { "full" };
        print!(
            "{}",
            fold::reference_lines(
                options.workload.reference_name(),
                mode,
                options.seed,
                &outcome.first
            )
        );
        return Ok(());
    }
    let mut problems = outcome.problems.clone();
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            problems.push(format!("metric {} is not finite ({})", m.name, m.value));
        }
    }
    println!("conditions {}", conditions(options));
    for note in &outcome.notes {
        println!("{note}");
    }
    for problem in &problems {
        println!("problem: {problem}");
    }
    println!("{}", result_line(&outcome, &problems));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("campaign-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("campaign-e2e: {e}");
            ExitCode::FAILURE
        }
    }
}
