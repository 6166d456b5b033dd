//! Campaign sharding: contiguous cell-index slices of one grid, runnable on
//! independent workers (processes, machines, sessions) and merged back
//! deterministically.
//!
//! Because cells are addressed by linear index with order-independent seeds
//! ([`SweepSpec::cell_seed`]), a shard needs nothing beyond the shared spec
//! and its index range: every shard derives exactly the cells it owns, and
//! the union of shards is exactly the campaign. Each shard streams into its
//! own [`MergeSink`]; [`MergeSink::merge_all`] then folds any arrival order
//! of completed shard sinks into aggregates bit-identical to every other
//! arrival order.

use serde::{Deserialize, Serialize};

use super::merge::MergeSink;
use crate::campaign::SweepSpec;

/// One contiguous slice of a campaign grid: the shared [`SweepSpec`] plus
/// the half-open cell-index range this shard owns. Serde-able, so a driver
/// can hand shards to remote workers as small values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// The campaign grid every shard shares.
    pub spec: SweepSpec,
    /// First cell index this shard owns.
    pub start: usize,
    /// One past the last cell index this shard owns.
    pub end: usize,
}

impl ShardSpec {
    /// A shard owning cells `[start, end)` of `spec`'s grid.
    ///
    /// # Panics
    ///
    /// Panics if the range is inverted or reaches past the grid.
    pub fn new(spec: SweepSpec, start: usize, end: usize) -> ShardSpec {
        assert!(start <= end, "inverted shard range");
        assert!(end <= spec.cells(), "shard range reaches past the grid");
        ShardSpec { spec, start, end }
    }

    /// Splits a campaign into `shards` contiguous, near-equal slices that
    /// exactly cover the grid (the first `cells % shards` slices hold one
    /// extra cell). Slices can be empty when `shards` exceeds the cell
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn split(spec: &SweepSpec, shards: usize) -> Vec<ShardSpec> {
        assert!(shards > 0, "a campaign needs at least one shard");
        let cells = spec.cells();
        let (base, extra) = (cells / shards, cells % shards);
        let mut out = Vec::with_capacity(shards);
        let mut start = 0;
        for k in 0..shards {
            let end = start + base + usize::from(k < extra);
            out.push(ShardSpec::new(spec.clone(), start, end));
            start = end;
        }
        out
    }

    /// The number of cells this shard owns.
    pub fn cells(&self) -> usize {
        self.end - self.start
    }

    /// The global cell indices this shard owns, in ascending order.
    pub fn indices(&self) -> Vec<usize> {
        (self.start..self.end).collect()
    }

    /// A fresh [`MergeSink`] covering exactly this shard's range.
    pub fn merge_sink(&self) -> MergeSink {
        MergeSink::new(self.start..self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentKind;
    use workload::BenchmarkId;

    fn spec() -> SweepSpec {
        SweepSpec::new(
            vec![ExperimentKind::Dtpm],
            vec![BenchmarkId::Crc32, BenchmarkId::Qsort],
        )
        .with_replicates(5)
    }

    #[test]
    fn split_covers_the_grid_contiguously_and_near_equally() {
        let spec = spec();
        assert_eq!(spec.cells(), 10);
        for shards in [1, 2, 3, 4, 7, 10, 13] {
            let split = ShardSpec::split(&spec, shards);
            assert_eq!(split.len(), shards);
            assert_eq!(split[0].start, 0);
            assert_eq!(split.last().expect("non-empty").end, spec.cells());
            for pair in split.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "contiguous");
            }
            let sizes: Vec<usize> = split.iter().map(ShardSpec::cells).collect();
            let (min, max) = (
                sizes.iter().min().expect("non-empty"),
                sizes.iter().max().expect("non-empty"),
            );
            assert!(max - min <= 1, "near-equal split: {sizes:?}");
            assert_eq!(sizes.iter().sum::<usize>(), spec.cells());
        }
    }

    #[test]
    fn shards_expose_their_indices_and_sinks() {
        let shard = ShardSpec::new(spec(), 3, 7);
        assert_eq!(shard.cells(), 4);
        assert_eq!(shard.indices(), vec![3, 4, 5, 6]);
        assert_eq!(shard.merge_sink().range(), 3..7);
    }

    #[test]
    #[should_panic(expected = "past the grid")]
    fn shards_cannot_reach_past_the_grid() {
        ShardSpec::new(spec(), 0, 11);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        ShardSpec::split(&spec(), 0);
    }
}
