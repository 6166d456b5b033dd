//! Small order statistics and process readings shared by the workloads.

/// The median of `samples` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        0.5 * (sorted[mid - 1] + sorted[mid])
    } else {
        sorted[mid]
    }
}

/// First and third quartiles by the "exclusive" method (Python's
/// `statistics.quantiles(values, n=4)` default). With fewer than two
/// samples both quartiles are the single value (0 when empty).
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let n = samples.len();
    if n < 2 {
        let only = samples.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |p: f64| {
        // Position (n + 1)·p on a 1-based scale, clamped to the data.
        let pos = ((n + 1) as f64 * p).clamp(1.0, n as f64);
        let low = pos.floor() as usize;
        let frac = pos - low as f64;
        let lo = sorted[low - 1];
        let hi = sorted[low.min(n - 1)];
        lo + (hi - lo) * frac
    };
    (at(0.25), at(0.75))
}

/// Nearest-rank percentile `p` (0–100) of integer samples; 0 when empty.
pub fn percentile_u64(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// This process's peak resident set size (`VmHWM`), MiB.
///
/// # Errors
///
/// Returns a message if `/proc/self/status` cannot be read or has no
/// `VmHWM` line (the benchmark needs Linux procfs).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|line| line.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parsing {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        assert_eq!(median(&values), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let values: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_u64(&values, 50.0), 50.0);
        assert_eq!(percentile_u64(&values, 99.0), 99.0);
        assert_eq!(percentile_u64(&[7], 99.0), 7.0);
    }
}
