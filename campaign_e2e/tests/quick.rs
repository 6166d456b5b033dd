//! The benchmark's own tests: the quick mode of every workload, plain and
//! traced, through the real binary. Each run exercises the sink and
//! transport wrappers, the fold checks and the JSON result line, and its
//! metrics must be exactly the ones `BENCHMARK.json` lists.

use std::process::Command;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Runs the benchmark binary; returns (exit success, stdout).
fn run(args: &[&str]) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_campaign-e2e"))
        .args(args)
        .args(["--worker", env!("CARGO_BIN_EXE_dtpm-worker")])
        .output()
        .expect("the benchmark binary runs");
    (
        output.status.success(),
        String::from_utf8(output.stdout).expect("utf-8 output"),
    )
}

/// The `(name, unit)` pairs of one `BENCHMARK.json` metric list.
fn listed(section: &str) -> Vec<(String, String)> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("list end")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = &entry[..entry.find('"').expect("name end")];
            let unit = entry.split("\"unit\": \"").nth(1).expect("unit");
            (
                name.to_owned(),
                unit[..unit.find('"').expect("unit end")].to_owned(),
            )
        })
        .collect()
}

/// The `(name, unit)` pairs of a result line, in order.
fn reported(result: &str) -> Vec<(String, String)> {
    let metrics = &result[result.find("\"metrics\": {").expect("metrics") + 12..];
    metrics
        .split("}, ")
        .map(|entry| {
            let entry = entry.trim_start_matches('"');
            let name = &entry[..entry.find('"').expect("name end")];
            let unit = entry.split("\"unit\": \"").nth(1).expect("unit");
            (
                name.to_owned(),
                unit[..unit.find('"').expect("unit end")].to_owned(),
            )
        })
        .collect()
}

/// A quick run of `workload` at `seed` for zero seconds (the minimum
/// campaign count).
fn quick(workload: &str, seed: &str, trace: &str) -> (bool, String) {
    run(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "0",
        "--trace",
        trace,
        "--quick",
    ])
}

fn check_workload(workload: &str) {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let (ok, stdout) = quick(workload, "1", trace);
        assert!(ok, "{workload} trace {trace} failed:\n{stdout}");
        let result = stdout.lines().last().expect("a result line");
        assert!(
            result.starts_with("{\"correct\": true, \"attempted\": "),
            "{workload} trace {trace}:\n{stdout}"
        );
        assert!(result.contains("\"failed\": 0, "), "{result}");
        assert_eq!(reported(result), listed(section), "{workload} {trace}");
        assert!(
            stdout.contains("(reference checked)"),
            "seed 1 must be checked against reference.txt:\n{stdout}"
        );
        assert!(stdout.starts_with("conditions {\"workload\": "), "{stdout}");
    }
}

#[test]
fn paper_grid_quick() {
    check_workload("paper_grid");
}

#[test]
fn fault_churn_quick() {
    check_workload("fault_churn");
}

#[test]
fn paper_grid_distributed_quick() {
    check_workload("paper_grid_distributed");
}

#[test]
fn traced_paper_grid_reports_the_fidelity_readout_and_cell_mismatch() {
    let (ok, stdout) = quick("paper_grid", "2", "1");
    assert!(ok, "{stdout}");
    assert!(stdout.contains("fidelity (simulated"), "{stdout}");
    assert!(stdout.contains("executor.cell_mismatch: "), "{stdout}");
    assert!(
        stdout.contains("(reference none for this seed)"),
        "{stdout}"
    );
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let no_seconds = ["--workload", "paper_grid", "--seed", "1", "--trace", "0"];
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ][..],
        &no_seconds[..],
        &[
            "--workload",
            "paper_grid",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "2",
        ][..],
    ] {
        let (ok, stdout) = run(args);
        assert!(!ok, "{args:?} must fail");
        assert!(stdout.is_empty(), "{args:?} printed {stdout}");
    }
}
