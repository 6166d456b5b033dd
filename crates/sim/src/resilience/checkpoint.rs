//! Campaign checkpointing: durable, atomically-written snapshots of a
//! campaign's progress, and the [`CheckpointSink`] that maintains them as
//! results stream in.
//!
//! A [`CampaignCheckpoint`] is small and closed-form — a completed-cell
//! bitmap plus the canonical-order merge fold ([`MergeSink`]) over the
//! completed cells — so it costs O(cells/8) bytes no matter how much trace
//! data the campaign produced. Snapshots go to disk through the classic
//! temp-file + `sync` + rename dance, so a kill at any instant leaves either
//! the previous checkpoint or the new one, never a torn file. Because the
//! embedded fold replays cells in canonical index order and stores floats as
//! exact bit patterns, resuming from any checkpoint reproduces the
//! uninterrupted campaign's merged output bit-for-bit.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use super::merge::MergeSink;
use super::wire;
use crate::error::SimError;
use crate::experiment::{ResultSink, RunReport};

/// A fixed-size bitmap over campaign cell indices: which cells have reported
/// a terminal outcome (success or quarantined failure).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellBitmap {
    words: Vec<u64>,
    len: usize,
}

impl CellBitmap {
    /// An all-clear bitmap over `len` cells.
    pub fn new(len: usize) -> CellBitmap {
        CellBitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// The number of cells the bitmap covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap covers zero cells.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Marks a cell complete.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set(&mut self, index: usize) {
        assert!(
            index < self.len,
            "cell {index} outside bitmap of {}",
            self.len
        );
        self.words[index / 64] |= 1u64 << (index % 64);
    }

    /// Whether a cell is marked complete.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "cell {index} outside bitmap of {}",
            self.len
        );
        self.words[index / 64] & (1u64 << (index % 64)) != 0
    }

    /// The number of cells marked complete.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The indices of cells *not* marked complete, in ascending order.
    pub fn missing(&self) -> Vec<usize> {
        (0..self.len).filter(|&k| !self.get(k)).collect()
    }

    /// The raw 64-bit words backing the bitmap. Crate-internal, for the
    /// wire codecs.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Reassembles a bitmap from its raw words, validating the word count
    /// and that no bit is set past the cell count. Both wire decoders (text
    /// and binary) funnel through here.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Io`] on any violated invariant.
    pub(crate) fn from_words(words: Vec<u64>, len: usize) -> Result<CellBitmap, SimError> {
        if words.len() != len.div_ceil(64) {
            return Err(wire::malformed("bitmap word count disagrees with cells"));
        }
        if !len.is_multiple_of(64) {
            if let Some(last) = words.last() {
                if last >> (len % 64) != 0 {
                    return Err(wire::malformed("bitmap has bits past the cell count"));
                }
            }
        }
        Ok(CellBitmap { words, len })
    }
}

/// A durable snapshot of a campaign's progress: which cells have reported
/// (bitmap) and the canonical-order merge fold over their outcomes. Bound to
/// its grid by the [`crate::SweepSpec`] fingerprint, so a checkpoint cannot
/// silently resume a different campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignCheckpoint {
    fingerprint: u64,
    bitmap: CellBitmap,
    fold: MergeSink,
}

impl CampaignCheckpoint {
    /// A fresh checkpoint for a campaign of `cells` cells whose grid hashes
    /// to `fingerprint` ([`crate::SweepSpec::fingerprint`]).
    pub fn new(fingerprint: u64, cells: usize) -> CampaignCheckpoint {
        CampaignCheckpoint {
            fingerprint,
            bitmap: CellBitmap::new(cells),
            fold: MergeSink::new(0..cells),
        }
    }

    /// The grid fingerprint this checkpoint is bound to.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The number of cells in the campaign grid.
    pub fn cells(&self) -> usize {
        self.bitmap.len()
    }

    /// The number of cells with a recorded terminal outcome.
    pub fn completed(&self) -> usize {
        self.bitmap.count_ones()
    }

    /// Whether the given cell already has a recorded outcome.
    pub fn is_cell_complete(&self, index: usize) -> bool {
        self.bitmap.get(index)
    }

    /// Whether every cell has reported.
    pub fn is_complete(&self) -> bool {
        self.fold.is_complete()
    }

    /// The indices still to run, in ascending order.
    pub fn remaining(&self) -> Vec<usize> {
        self.bitmap.missing()
    }

    /// The canonical-order merge fold over the recorded outcomes.
    pub fn fold(&self) -> &MergeSink {
        &self.fold
    }

    /// The completion bitmap. Crate-internal, for the wire codecs.
    pub(crate) fn bitmap(&self) -> &CellBitmap {
        &self.bitmap
    }

    /// Consumes the checkpoint, returning its merge fold (the campaign's
    /// aggregated result).
    pub fn into_fold(self) -> MergeSink {
        self.fold
    }

    /// Records one cell's terminal outcome.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of range or already recorded (the sweep
    /// contract delivers each cell exactly once; resume skips completed
    /// cells).
    pub fn record(&mut self, index: usize, outcome: Result<RunReport, SimError>) {
        self.bitmap.set(index);
        self.fold.accept(index, outcome);
    }

    /// Reassembles a checkpoint from its raw parts, validating the
    /// cross-field invariants: the fold covers exactly the bitmap's cells
    /// and the two completion counts agree. Both wire decoders (text and
    /// binary) funnel through here.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Io`] on any violated invariant.
    pub(crate) fn from_parts(
        fingerprint: u64,
        bitmap: CellBitmap,
        fold: MergeSink,
    ) -> Result<CampaignCheckpoint, SimError> {
        if fold.range() != (0..bitmap.len()) {
            return Err(wire::malformed("fold range disagrees with cell count"));
        }
        if fold.completed_cells() != bitmap.count_ones() {
            return Err(wire::malformed(
                "fold completion count disagrees with bitmap",
            ));
        }
        Ok(CampaignCheckpoint {
            fingerprint,
            bitmap,
            fold,
        })
    }

    /// Serialises the checkpoint (the on-disk format): the v1 body followed
    /// by a `crc32` integrity footer over every byte before it, so bit rot
    /// and torn writes are detected at load instead of skewing a resumed
    /// campaign.
    pub fn encode(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        out.push_str("dtpm-campaign-checkpoint v1\n");
        writeln!(out, "fingerprint {:016x}", self.fingerprint).expect("string write");
        writeln!(out, "cells {}", self.bitmap.len).expect("string write");
        out.push_str("bitmap");
        for word in &self.bitmap.words {
            use std::fmt::Write as _;
            write!(out, " {word:016x}").expect("string write");
        }
        out.push('\n');
        self.fold.encode_into(&mut out);
        let crc = numeric::codec::crc32(out.as_bytes());
        writeln!(out, "crc32 {crc:08x}").expect("string write");
        out
    }

    /// Splits a trailing `crc32` footer line off a checkpoint rendering,
    /// returning the covered body and the stated checksum — or `None` for a
    /// footerless (pre-footer) checkpoint, which stays decodable.
    fn split_crc_footer(text: &str) -> Result<Option<(&str, u32)>, SimError> {
        let Some(stripped) = text.strip_suffix('\n') else {
            return Ok(None);
        };
        let Some((head, last)) = stripped.rsplit_once('\n') else {
            return Ok(None);
        };
        let Some(bits) = last.strip_prefix("crc32 ") else {
            return Ok(None);
        };
        let stated = u32::from_str_radix(bits, 16)
            .map_err(|_| SimError::Corrupted(format!("unreadable crc32 footer {bits:?}")))?;
        // The footer covers everything before its own line, including the
        // preceding newline.
        Ok(Some((&text[..head.len() + 1], stated)))
    }

    /// Decodes a checkpoint serialised by [`CampaignCheckpoint::encode`],
    /// bit-exactly. Footerless checkpoints (written before the integrity
    /// footer existed) decode unchanged; a present footer is verified
    /// first, so corruption anywhere in the body is rejected wholesale.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Corrupted`] on a checksum mismatch and
    /// [`SimError::Io`] on structurally malformed input.
    pub fn decode(text: &str) -> Result<CampaignCheckpoint, SimError> {
        let text = match CampaignCheckpoint::split_crc_footer(text)? {
            Some((body, stated)) => {
                let computed = numeric::codec::crc32(body.as_bytes());
                if computed != stated {
                    return Err(SimError::Corrupted(format!(
                        "checkpoint crc32 mismatch: footer says {stated:08x}, \
                         content hashes to {computed:08x}"
                    )));
                }
                body
            }
            None => text,
        };
        let mut lines = text.lines();
        let header = lines.next().unwrap_or_default();
        if header != "dtpm-campaign-checkpoint v1" {
            return Err(wire::malformed(format!("bad checkpoint header {header:?}")));
        }
        let fingerprint_line = lines
            .next()
            .ok_or_else(|| wire::malformed("missing fingerprint line"))?;
        let fingerprint = match fingerprint_line.split_once(' ') {
            Some(("fingerprint", bits)) => wire::parse_u64_hex(bits)?,
            _ => return Err(wire::malformed("expected fingerprint line")),
        };
        let cells_line = lines
            .next()
            .ok_or_else(|| wire::malformed("missing cells line"))?;
        let cells = match cells_line.split_once(' ') {
            Some(("cells", n)) => wire::parse_usize(n)?,
            _ => return Err(wire::malformed("expected cells line")),
        };
        let bitmap_line = lines
            .next()
            .ok_or_else(|| wire::malformed("missing bitmap line"))?;
        let mut fields = bitmap_line.split_whitespace();
        if fields.next() != Some("bitmap") {
            return Err(wire::malformed("expected bitmap line"));
        }
        let words = fields
            .map(wire::parse_u64_hex)
            .collect::<Result<Vec<u64>, SimError>>()?;
        let bitmap = CellBitmap::from_words(words, cells)?;
        let fold = MergeSink::decode_from(&mut lines)?;
        if lines.next().is_some() {
            return Err(wire::malformed("trailing data after checkpoint"));
        }
        CampaignCheckpoint::from_parts(fingerprint, bitmap, fold)
    }

    /// Writes the checkpoint to `path` atomically: the serialised snapshot
    /// goes to a sibling temp file, is synced, and is renamed over `path` —
    /// a kill at any instant leaves either the old checkpoint or the new
    /// one, never a torn file.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Io`] if any filesystem step fails.
    pub fn write_atomic(&self, path: &Path) -> Result<(), SimError> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(self.encode().as_bytes())?;
            file.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Loads a checkpoint previously written with
    /// [`CampaignCheckpoint::write_atomic`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Io`] if the file cannot be read or is structurally
    /// malformed, and [`SimError::Corrupted`] if its crc32 footer does not
    /// match its contents (see [`CampaignCheckpoint::decode`]).
    pub fn load(path: &Path) -> Result<CampaignCheckpoint, SimError> {
        CampaignCheckpoint::decode(&fs::read_to_string(path)?)
    }
}

/// A [`ResultSink`] adapter that maintains a [`CampaignCheckpoint`] as
/// results stream in, persisting it atomically every `every` completed
/// cells, while forwarding every result unchanged to the wrapped sink.
///
/// Persistence failures never interrupt the campaign: a failed write is
/// recorded (and retried at the next checkpoint boundary) rather than
/// panicking a worker — losing checkpoint durability is strictly better
/// than losing the campaign. [`CheckpointSink::finish`] performs the final
/// write and surfaces any persistent failure.
#[derive(Debug)]
pub struct CheckpointSink<S: ResultSink> {
    inner: S,
    checkpoint: CampaignCheckpoint,
    path: PathBuf,
    every: usize,
    since_write: usize,
    last_write_error: Option<SimError>,
}

impl<S: ResultSink> CheckpointSink<S> {
    /// A sink for a fresh campaign: `fingerprint`/`cells` describe the grid
    /// ([`crate::SweepSpec::fingerprint`] / cell count), `path` is where
    /// snapshots land, and `every` is the checkpoint cadence in completed
    /// cells (clamped to at least 1).
    pub fn new(
        fingerprint: u64,
        cells: usize,
        path: impl Into<PathBuf>,
        every: usize,
        inner: S,
    ) -> CheckpointSink<S> {
        CheckpointSink::resume(
            CampaignCheckpoint::new(fingerprint, cells),
            path,
            every,
            inner,
        )
    }

    /// A sink continuing from a previously-loaded checkpoint: already
    /// recorded cells stay recorded, new results extend the fold.
    pub fn resume(
        checkpoint: CampaignCheckpoint,
        path: impl Into<PathBuf>,
        every: usize,
        inner: S,
    ) -> CheckpointSink<S> {
        CheckpointSink {
            inner,
            checkpoint,
            path: path.into(),
            every: every.max(1),
            since_write: 0,
            last_write_error: None,
        }
    }

    /// The current checkpoint state.
    pub fn checkpoint(&self) -> &CampaignCheckpoint {
        &self.checkpoint
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The most recent persistence failure, if the last attempted write
    /// failed (`None` once a later write succeeds).
    pub fn last_write_error(&self) -> Option<&SimError> {
        self.last_write_error.as_ref()
    }

    /// Writes the final snapshot and dismantles the adapter, returning the
    /// checkpoint and the wrapped sink.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Io`] (alongside the state, which is never lost)
    /// if the final write fails.
    pub fn finish(self) -> (CampaignCheckpoint, S, Result<(), SimError>) {
        let result = self.checkpoint.write_atomic(&self.path);
        (self.checkpoint, self.inner, result)
    }

    /// Persists the checkpoint, recording rather than propagating failure.
    fn try_write(&mut self) {
        match self.checkpoint.write_atomic(&self.path) {
            Ok(()) => {
                self.since_write = 0;
                self.last_write_error = None;
            }
            Err(error) => {
                // Leave since_write at the threshold so the very next
                // completion retries the write.
                self.last_write_error = Some(error);
            }
        }
    }
}

impl<S: ResultSink> ResultSink for CheckpointSink<S> {
    fn accept(&mut self, index: usize, outcome: Result<RunReport, SimError>) {
        self.checkpoint.record(index, outcome.clone());
        self.inner.accept(index, outcome);
        self.since_write += 1;
        if self.since_write >= self.every {
            self.try_write();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dtpm-checkpoint-{}-{tag}.ckpt", std::process::id()))
    }

    fn failed(index: usize) -> Result<RunReport, SimError> {
        Err(SimError::Panicked(format!("boom {index}")))
    }

    #[test]
    fn bitmap_tracks_cells_across_word_boundaries() {
        let mut bitmap = CellBitmap::new(130);
        assert_eq!(bitmap.len(), 130);
        assert!(!bitmap.is_empty());
        for k in [0, 63, 64, 65, 127, 128, 129] {
            assert!(!bitmap.get(k));
            bitmap.set(k);
            assert!(bitmap.get(k));
        }
        assert_eq!(bitmap.count_ones(), 7);
        assert_eq!(bitmap.missing().len(), 123);
        assert!(CellBitmap::new(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "outside bitmap")]
    fn bitmap_rejects_out_of_range_cells() {
        CellBitmap::new(10).set(10);
    }

    #[test]
    fn checkpoint_round_trips_bit_exactly_through_text_and_disk() {
        let mut checkpoint = CampaignCheckpoint::new(0xDEAD_BEEF_F00D_CAFE, 70);
        for k in [0, 1, 2, 5, 64, 69] {
            checkpoint.record(k, failed(k));
        }
        assert_eq!(checkpoint.completed(), 6);
        assert!(checkpoint.is_cell_complete(64));
        assert!(!checkpoint.is_cell_complete(63));
        assert!(!checkpoint.is_complete());
        assert_eq!(checkpoint.remaining().len(), 64);

        let decoded = CampaignCheckpoint::decode(&checkpoint.encode()).expect("decode");
        assert_eq!(decoded, checkpoint);

        let path = temp_path("round-trip");
        checkpoint.write_atomic(&path).expect("write");
        let loaded = CampaignCheckpoint::load(&path).expect("load");
        assert_eq!(loaded, checkpoint);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_rejects_malformed_and_inconsistent_input() {
        assert!(CampaignCheckpoint::decode("not a checkpoint").is_err());
        let good = CampaignCheckpoint::new(7, 3).encode();
        // Flip the cell count without touching the rest: inconsistency caught.
        let bad = good.replace("cells 3", "cells 130");
        assert!(CampaignCheckpoint::decode(&bad).is_err());
        let truncated: String = good.lines().take(2).collect::<Vec<_>>().join("\n");
        assert!(CampaignCheckpoint::decode(&truncated).is_err());
    }

    #[test]
    fn crc_footer_detects_corruption_and_tolerates_legacy_files() {
        let mut checkpoint = CampaignCheckpoint::new(0xABCD, 70);
        for k in [0, 3, 64] {
            checkpoint.record(k, failed(k));
        }
        let encoded = checkpoint.encode();
        let footer = encoded.trim_end().lines().last().expect("footer line");
        assert!(footer.starts_with("crc32 "), "encode appends the footer");
        assert_eq!(
            CampaignCheckpoint::decode(&encoded).expect("round trip"),
            checkpoint
        );

        // A footerless rendering — the pre-footer on-disk format — still
        // decodes to the same state.
        let legacy: String = encoded
            .lines()
            .filter(|line| !line.starts_with("crc32 "))
            .map(|line| format!("{line}\n"))
            .collect();
        assert_eq!(
            CampaignCheckpoint::decode(&legacy).expect("legacy decode"),
            checkpoint
        );

        // A flipped hex digit in the body (here: the fingerprint) would
        // parse fine structurally — the checksum catches it wholesale.
        let flipped = encoded.replacen(
            "fingerprint 000000000000abcd",
            "fingerprint 000000000000abce",
            1,
        );
        assert_ne!(flipped, encoded, "corruption actually applied");
        assert!(matches!(
            CampaignCheckpoint::decode(&flipped),
            Err(SimError::Corrupted(_))
        ));

        // An unreadable footer is corruption, not a silent legacy fallback.
        let bad_footer = format!("{legacy}crc32 zzzzzzzz\n");
        assert!(matches!(
            CampaignCheckpoint::decode(&bad_footer),
            Err(SimError::Corrupted(_))
        ));

        // A file truncated mid-body (footer gone entirely) is still
        // rejected, through the structural checks.
        assert!(CampaignCheckpoint::decode(&encoded[..encoded.len() / 2]).is_err());
    }

    #[test]
    fn checkpoint_sink_persists_on_cadence_and_forwards_everything() {
        /// Counts forwarded outcomes.
        struct Counter(usize);
        impl ResultSink for Counter {
            fn accept(&mut self, _index: usize, _outcome: Result<RunReport, SimError>) {
                self.0 += 1;
            }
        }
        let path = temp_path("cadence");
        std::fs::remove_file(&path).ok();
        let mut sink = CheckpointSink::new(42, 10, &path, 4, Counter(0));
        for k in 0..3 {
            sink.accept(k, failed(k));
        }
        assert!(!path.exists(), "below the cadence: nothing written yet");
        sink.accept(3, failed(3));
        let on_disk = CampaignCheckpoint::load(&path).expect("written at cadence");
        assert_eq!(on_disk.completed(), 4);
        for k in 4..7 {
            sink.accept(k, failed(k));
        }
        assert_eq!(
            CampaignCheckpoint::load(&path).expect("load").completed(),
            4,
            "mid-cadence completions stay in memory"
        );
        assert!(sink.last_write_error().is_none());
        assert_eq!(sink.inner().0, 7, "every outcome forwarded");
        let (checkpoint, inner, write) = sink.finish();
        write.expect("final write");
        assert_eq!(inner.0, 7);
        assert_eq!(checkpoint.completed(), 7);
        assert_eq!(
            CampaignCheckpoint::load(&path).expect("load"),
            checkpoint,
            "finish persists the final state"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_aggregate_matches_a_plain_merge_sink() {
        // The checkpoint's embedded fold is a MergeSink over 0..cells: the
        // same outcomes produce the same bits.
        let mut checkpoint = CampaignCheckpoint::new(1, 5);
        let mut reference = MergeSink::new(0..5);
        for k in 0..5 {
            checkpoint.record(k, failed(k));
            reference.accept(k, failed(k));
        }
        assert!(checkpoint.is_complete());
        assert_eq!(checkpoint.fold(), &reference);
    }
}
