//! Correctness of a campaign's fold: field-by-field comparison of
//! [`CampaignAggregate`]s, the recorded default-seed references, the
//! per-cell bitwise comparison behind `executor.cell_mismatch`, and the
//! paper-fidelity readout.

use numeric::stats::Welford;
use platform_sim::{CampaignAggregate, CellStats, ExperimentKind, SweepSpec};
use workload::BenchmarkCategory;

/// Relative tolerance for float fields of two folds of the same spec.
///
/// Two runs at several threads × several lanes are not bit-identical
/// today (lane placement leaks into a few cells at the 1e-16 level), so
/// floats are held to this bound while every integer field must match
/// exactly.
pub const FLOAT_RTOL: f64 = 1e-12;

/// One aggregate field's value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Field {
    /// A count, compared exactly.
    Int(u64),
    /// A float, compared within [`FLOAT_RTOL`].
    Float(f64),
}

/// Every field of `aggregate` by name, in a fixed order.
pub fn fields(aggregate: &CampaignAggregate) -> Vec<(String, Field)> {
    let int = |v: usize| Field::Int(v as u64);
    let mut out = vec![
        ("cells".to_owned(), int(aggregate.cells)),
        ("completed_runs".to_owned(), int(aggregate.completed_runs)),
        ("failed_cells".to_owned(), int(aggregate.failed_cells)),
        ("shutdowns".to_owned(), int(aggregate.shutdowns)),
        ("total_intervals".to_owned(), int(aggregate.total_intervals)),
        ("escalations".to_owned(), int(aggregate.escalations)),
        ("sensor_faults".to_owned(), int(aggregate.sensor_faults)),
        (
            "total_energy_j".to_owned(),
            Field::Float(aggregate.total_energy_j),
        ),
    ];
    let welfords: [(&str, &Welford); 5] = [
        ("energy_j", &aggregate.energy_j),
        ("mean_power_w", &aggregate.mean_power_w),
        ("execution_time_s", &aggregate.execution_time_s),
        ("peak_temp_c", &aggregate.peak_temp_c),
        ("mean_temp_c", &aggregate.mean_temp_c),
    ];
    for (name, w) in welfords {
        out.push((format!("{name}.count"), int(w.count())));
        for (part, value) in [
            ("mean", w.mean()),
            ("m2", w.m2()),
            ("min", w.min()),
            ("max", w.max()),
        ] {
            out.push((format!("{name}.{part}"), Field::Float(value)));
        }
    }
    out
}

fn field_matches(a: Field, b: Field) -> bool {
    match (a, b) {
        (Field::Int(a), Field::Int(b)) => a == b,
        (Field::Float(a), Field::Float(b)) => {
            a.to_bits() == b.to_bits() || (a - b).abs() <= FLOAT_RTOL * a.abs().max(b.abs())
        }
        _ => false,
    }
}

/// Names of the fields where `actual` differs from `expected` beyond the
/// fold rule (integers exact, floats within [`FLOAT_RTOL`] relative).
pub fn mismatches(expected: &[(String, Field)], actual: &[(String, Field)]) -> Vec<String> {
    let mut out = Vec::new();
    for (name, want) in expected {
        match actual.iter().find(|(n, _)| n == name) {
            Some((_, got)) if field_matches(*want, *got) => {}
            Some((_, got)) => out.push(format!("{name}: expected {want:?}, got {got:?}")),
            None => out.push(format!("{name}: missing")),
        }
    }
    out
}

/// The recorded references, compiled in: lines of
/// `<workload> <mode> <seed> <field> <value>`.
const REFERENCE: &str = include_str!("../reference.txt");

/// The recorded reference fold for `workload` (`paper_grid` or
/// `fault_churn`) in `mode` (`full` or `quick`) at `seed`, if one exists.
///
/// # Errors
///
/// Returns a message for a malformed reference line.
pub fn reference(workload: &str, mode: &str, seed: u64) -> Result<Vec<(String, Field)>, String> {
    let mut out = Vec::new();
    for line in REFERENCE.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let [w, m, s, name, value] = parts[..] else {
            return Err(format!("malformed reference line {line:?}"));
        };
        if w != workload || m != mode || s.parse::<u64>().ok() != Some(seed) {
            continue;
        }
        let field = parse_value(value).ok_or_else(|| format!("bad value in {line:?}"))?;
        out.push((name.to_owned(), field));
    }
    Ok(out)
}

/// Parses one reference value: a float when it carries a decimal point,
/// exponent, `inf` or `NaN` (as [`reference_lines`] writes floats), an
/// integer otherwise.
fn parse_value(value: &str) -> Option<Field> {
    if value.contains(['.', 'e', 'E', 'N', 'n']) {
        value.parse().ok().map(Field::Float)
    } else {
        value.parse().ok().map(Field::Int)
    }
}

/// Reference lines for `aggregate`, in the format [`reference`] reads.
pub fn reference_lines(
    workload: &str,
    mode: &str,
    seed: u64,
    aggregate: &CampaignAggregate,
) -> String {
    let mut out = String::new();
    for (name, field) in fields(aggregate) {
        let value = match field {
            Field::Int(v) => v.to_string(),
            // Debug prints the shortest round-trip form, always with a
            // decimal point or exponent.
            Field::Float(v) => format!("{v:?}"),
        };
        out.push_str(&format!("{workload} {mode} {seed} {name} {value}\n"));
    }
    out
}

/// A cell's statistics as raw bits, for exact comparison.
fn cell_bits(stats: &CellStats) -> [u64; 11] {
    [
        u64::from(stats.completed),
        stats.execution_time_s.to_bits(),
        stats.intervals as u64,
        stats.energy_j.to_bits(),
        stats.mean_platform_power_w.to_bits(),
        stats.mean_temp_c.to_bits(),
        stats.peak_temp_c.to_bits(),
        stats.intervention_rate.to_bits(),
        stats.escalations as u64,
        stats.sensor_faults as u64,
        u64::from(stats.shut_down),
    ]
}

/// How many cells differ bitwise between two per-cell captures of the same
/// spec (a cell captured in one and missing in the other counts too).
pub fn cell_mismatch(a: &[Option<CellStats>], b: &[Option<CellStats>]) -> usize {
    a.iter()
        .zip(b)
        .filter(|(x, y)| x.as_ref().map(cell_bits) != y.as_ref().map(cell_bits))
        .count()
        + a.len().abs_diff(b.len())
}

/// DTPM against the fan baseline for one activity class, averaged over
/// matched (benchmark, ambient, replicate) pairs.
#[derive(Debug, Clone, Copy)]
pub struct Fidelity {
    /// The activity class.
    pub class: BenchmarkCategory,
    /// Mean platform-power saving, percent.
    pub saving_pct: f64,
    /// Mean execution-time loss, percent.
    pub loss_pct: f64,
    /// Matched pairs averaged.
    pub pairs: usize,
}

/// The paper's published DTPM power saving per activity class, percent.
pub fn paper_saving_pct(class: BenchmarkCategory) -> f64 {
    match class {
        BenchmarkCategory::Low => 3.0,
        BenchmarkCategory::Medium => 8.0,
        BenchmarkCategory::High => 14.0,
    }
}

/// Per-class DTPM-vs-DefaultWithFan savings and losses from a per-cell
/// capture of `spec` (which must have the kind, benchmark, ambient and
/// replicate axes only).
pub fn fidelity(spec: &SweepSpec, cells: &[Option<CellStats>]) -> Vec<Fidelity> {
    let kind_at = |kind| spec.kinds.iter().position(|k| *k == kind);
    let (Some(base), Some(dtpm)) = (
        kind_at(ExperimentKind::DefaultWithFan),
        kind_at(ExperimentKind::Dtpm),
    ) else {
        return Vec::new();
    };
    let per_kind = spec.cells() / spec.kinds.len();
    let per_benchmark = per_kind / spec.benchmarks.len();
    let mut out = Vec::new();
    for class in [
        BenchmarkCategory::Low,
        BenchmarkCategory::Medium,
        BenchmarkCategory::High,
    ] {
        let (mut saving, mut loss, mut pairs) = (0.0, 0.0, 0usize);
        for (b, benchmark) in spec.benchmarks.iter().enumerate() {
            if benchmark.spec().category != class {
                continue;
            }
            for offset in 0..per_benchmark {
                let at = |kind: usize| cells.get(kind * per_kind + b * per_benchmark + offset);
                if let (Some(Some(x)), Some(Some(y))) = (at(base), at(dtpm)) {
                    saving += 100.0 * (x.mean_platform_power_w - y.mean_platform_power_w)
                        / x.mean_platform_power_w;
                    loss += 100.0 * (y.execution_time_s - x.execution_time_s) / x.execution_time_s;
                    pairs += 1;
                }
            }
        }
        if pairs > 0 {
            out.push(Fidelity {
                class,
                saving_pct: saving / pairs as f64,
                loss_pct: loss / pairs as f64,
                pairs,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_match_within_the_relative_tolerance_and_ints_exactly() {
        assert!(field_matches(Field::Float(1.0), Field::Float(1.0 + 1e-15)));
        assert!(!field_matches(Field::Float(1.0), Field::Float(1.0 + 1e-9)));
        assert!(field_matches(Field::Float(0.0), Field::Float(0.0)));
        assert!(!field_matches(Field::Int(3), Field::Int(4)));
        assert!(!field_matches(Field::Int(3), Field::Float(3.0)));
    }

    #[test]
    fn reference_lines_round_trip() {
        let mut aggregate = CampaignAggregate {
            cells: 12,
            total_energy_j: 1234.5678901234567,
            ..CampaignAggregate::default()
        };
        aggregate.energy_j.push(0.1);
        let text = reference_lines("w", "full", 9, &aggregate);
        let parsed: Vec<(String, Field)> = text
            .lines()
            .map(|line| {
                let parts: Vec<&str> = line.split_whitespace().collect();
                (parts[3].to_owned(), parse_value(parts[4]).expect("value"))
            })
            .collect();
        assert_eq!(parsed, fields(&aggregate));
        assert_eq!(parse_value("inf"), Some(Field::Float(f64::INFINITY)));
    }
}
