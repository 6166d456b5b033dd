//! Distributed campaign execution: worker processes, a binary transport,
//! and straggler-proof micro-shard leasing.
//!
//! The resilience layer provides the in-process half — the order-independent
//! [`MergeSink`](crate::resilience::MergeSink) fold and durable
//! checkpoints. This module adds a real transport that ships work out to
//! worker *processes* and folds their results back deterministically.
//!
//! # Architecture
//!
//! ```text
//!  Coordinator (this process)                Worker process (×N)
//!  ───────────────────────────              ─────────────────────
//!  SweepSpec + lease queue    ── Hello ──►  re-derive Calibration
//!  one driver thread / worker ◄─ Ready ──   from shipped seed
//!         │
//!         ├─────────────────── Lease ────►  run_indices_into(...)
//!         │                 ◄─ Heartbeat ─  (one per retired cell)
//!   fold dedup ◄──────────── LeaseDone ──   per-cell outcomes
//!         │
//!         └───────────────── Shutdown ───►  exit
//! ```
//!
//! * **One [`Transport`] trait, three wirings.** Localhost TCP
//!   ([`TcpTransport`]), child-process stdio ([`ChildTransport`] spawning
//!   the `dtpm-worker` binary, [`StdioTransport`] inside it), and an
//!   in-process byte pipe ([`MemoryTransport`]) for tests and benches. All
//!   three carry the same length-prefixed binary frames
//!   ([`write_frame`]/[`read_frame`]).
//! * **Micro-shard leasing, not static splits.** The coordinator leases
//!   small index ranges from the remaining-cell queue as workers report in,
//!   so a slow worker naturally takes fewer cells — the shard-level
//!   analogue of the lane-compacting scheduler, and the fix for a static
//!   split's convoy on ragged grids. A lease whose worker misses its
//!   heartbeat deadline or dies is put back on the queue and re-leased; a
//!   worker that merely stalled and finishes late is folded through
//!   **cell-index dedup**, so a twice-landed shard counts once.
//! * **One canonical fold.** Workers return *per-cell* outcomes, and the
//!   coordinator offers them to a single
//!   [`MergeSink`](crate::resilience::MergeSink) over the whole grid
//!   — the identical canonical-order fold an in-process run uses — so the
//!   distributed aggregate is bit-identical to the single-process one, no
//!   matter which worker ran which cell, how leases interleaved, or how
//!   many re-leases a straggler caused (proven by the chaos proptests in
//!   `tests/distributed.rs`).
//! * **Binary payloads** ([`codec`]): specs, per-cell results and
//!   checkpoints travel as compact little-endian binary (floats as exact
//!   bit patterns), with CRC32-sealed standalone blobs for the fold and the
//!   on-disk checkpoint. It is the crate's only serialiser.
//!
//! Calibration is *not* serialised: workers re-derive it from the shipped
//! [`crate::CalibrationCampaign`] parameters and seed, which is both small
//! and exactly reproducible (the characterisation pipeline is
//! deterministic).
//!
//! # Lease sizing
//!
//! [`Coordinator::with_lease_cells`] sets the cells per lease; the default
//! targets ~8 leases per worker so the tail is fine-grained without
//! drowning the wire in round trips. Shrink it toward 1 when cell runtimes
//! are wildly ragged (faster straggler recovery, more frames); grow it when
//! cells are uniform and tiny (fewer round trips). The heartbeat deadline
//! ([`Coordinator::with_lease_timeout`]) must comfortably exceed the wall
//! time of a few cells — workers heartbeat per retired cell (batched with
//! the result sink's delivery, so allow a handful of cells of slack).

pub mod codec;
pub mod coordinator;
mod protocol;
pub mod transport;
pub mod worker;

pub use codec::{decode_checkpoint, decode_sink, encode_checkpoint, encode_sink};
pub use coordinator::{Coordinator, DistributedReport, LeaseStats, WorkerPool};
pub use transport::{
    read_frame, write_frame, ChildTransport, MemoryTransport, StdioTransport, TcpTransport,
    Transport, MAX_FRAME_LEN,
};
pub use worker::{serve, serve_with, WorkerChaos, WorkerOptions};

/// Decoder fuzz: bit flips, truncations and splices of valid encodings, plus
/// random bytes, fed to every decoder that reads bytes from outside the
/// process. No input may panic. A CRC-sealed blob that was damaged in any
/// way is [`crate::SimError::Corrupted`]; a protocol message either is an
/// exact encoding of some message or fails as `Corrupted`/`Io`; a frame
/// reader returns exactly what a reference model of the framing predicts.
#[cfg(test)]
mod fuzz {
    use std::io;

    use numeric::codec::crc32;
    use proptest::prelude::*;
    use workload::BenchmarkId;

    use super::protocol::{ToCoordinator, ToWorker, WorkerSetup};
    use super::{decode_sink, encode_sink, read_frame, write_frame, MAX_FRAME_LEN};
    use crate::calibrate::CalibrationCampaign;
    use crate::campaign::SweepSpec;
    use crate::experiment::ExperimentKind;
    use crate::resilience::{
        CellFailure, CellOutcome, CellStats, ChaosPlan, MergeSink, ResiliencePolicy,
    };
    use crate::SimError;

    /// The four mutations of `seeds` that one case's random words select:
    /// a single bit flip, a strict truncation, a splice of a prefix of one
    /// seed onto a suffix of another, and `noise` as raw bytes.
    fn mutations(seeds: &[Vec<u8>], pick: &[usize], noise: &[usize]) -> [Vec<u8>; 4] {
        let a = &seeds[pick[0] % seeds.len()];
        let b = &seeds[pick[1] % seeds.len()];
        let mut flipped = a.clone();
        let bit = pick[2] % (8 * a.len());
        flipped[bit / 8] ^= 1 << (bit % 8);
        let truncated = a[..pick[3] % a.len()].to_vec();
        let mut spliced = a[..pick[2] % (a.len() + 1)].to_vec();
        spliced.extend_from_slice(&b[pick[4] % (b.len() + 1)..]);
        let random = noise.iter().map(|&byte| byte as u8).collect();
        [flipped, truncated, spliced, random]
    }

    fn stats(x: f64) -> CellStats {
        CellStats {
            completed: x > 1.0,
            execution_time_s: 10.0 + x,
            intervals: 100 + x as usize,
            energy_j: 40.0 * x,
            mean_platform_power_w: 4.0 + x * 0.01,
            mean_temp_c: 50.0 + x,
            peak_temp_c: 60.0 + x,
            intervention_rate: 0.25,
            escalations: 1,
            sensor_faults: 2,
            shut_down: false,
        }
    }

    fn failure(index: usize) -> CellOutcome {
        CellOutcome::Failed(CellFailure {
            index,
            error: format!("cell panicked (contained): boom {index}"),
        })
    }

    /// Sink blobs: an empty fold, a finished one, and one mid-flight with
    /// failures and out-of-order pending cells.
    fn sink_seeds() -> Vec<Vec<u8>> {
        let mut finished = MergeSink::new(0..3);
        let mut mid_flight = MergeSink::new(5..40);
        for k in 0..3 {
            finished.offer(k, CellOutcome::Completed(stats(k as f64)));
        }
        for k in [5, 6, 9, 12, 30] {
            let outcome = if k == 6 {
                failure(k)
            } else {
                CellOutcome::Completed(stats(k as f64))
            };
            mid_flight.offer(k, outcome);
        }
        [MergeSink::new(0..4), finished, mid_flight]
            .iter()
            .map(encode_sink)
            .collect()
    }

    fn to_worker_seeds() -> Vec<Vec<u8>> {
        let setup = WorkerSetup {
            spec: SweepSpec::new(
                vec![ExperimentKind::Dtpm, ExperimentKind::Reactive],
                vec![BenchmarkId::Crc32, BenchmarkId::Fft],
            )
            .with_ambients_c(vec![24.0, 31.5])
            .with_replicates(2)
            .with_campaign_seed(7)
            .with_cell_chaos(3, ChaosPlan::panic_at(4).healing_after(1)),
            calibration: CalibrationCampaign::default(),
            calibration_seed: 37,
            threads: 2,
            lanes: 8,
            resilience: ResiliencePolicy::default().with_max_retries(1),
        };
        [
            ToWorker::Hello(Box::new(setup)),
            ToWorker::Lease {
                lease: 9,
                start: 16,
                end: 48,
            },
            ToWorker::Shutdown,
        ]
        .iter()
        .map(ToWorker::encode)
        .collect()
    }

    fn to_coordinator_seeds() -> Vec<Vec<u8>> {
        let outcomes = vec![
            (4, CellOutcome::Completed(stats(4.0))),
            (5, failure(5)),
            (6, CellOutcome::Completed(stats(0.5))),
        ];
        [
            ToCoordinator::Ready,
            ToCoordinator::Heartbeat {
                lease: 3,
                completed: 2,
            },
            ToCoordinator::LeaseDone { lease: 3, outcomes },
        ]
        .iter()
        .map(ToCoordinator::encode)
        .collect()
    }

    /// Frame streams: empty, short and multi-kilobyte payloads.
    fn frame_seeds() -> Vec<Vec<u8>> {
        [&b""[..], b"lease", &[0xA5; 3000]]
            .iter()
            .map(|payload| {
                let mut frame = Vec::new();
                write_frame(&mut frame, payload).expect("in-memory write");
                frame
            })
            .collect()
    }

    /// What `read_frame` must return for `bytes`: the framing's reference
    /// model, as `Ok(payload)` or the expected error kind.
    fn expected_frame(bytes: &[u8]) -> Result<Option<&[u8]>, io::ErrorKind> {
        if bytes.is_empty() {
            return Ok(None);
        }
        let Some(prefix) = bytes.get(..4) else {
            return Err(io::ErrorKind::UnexpectedEof);
        };
        let len = u32::from_le_bytes(prefix.try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_LEN {
            return Err(io::ErrorKind::InvalidData);
        }
        bytes
            .get(4..4 + len)
            .map(Some)
            .ok_or(io::ErrorKind::UnexpectedEof)
    }

    fn assert_frame_matches_model(bytes: &[u8]) {
        let mut reader = bytes;
        match (read_frame(&mut reader), expected_frame(bytes)) {
            (Ok(got), Ok(want)) => assert_eq!(got.as_deref(), want, "frame {bytes:?}"),
            (Err(got), Err(want)) => assert_eq!(got.kind(), want, "frame {bytes:?}"),
            (got, want) => panic!("frame {bytes:?}: read {got:?}, model says {want:?}"),
        }
    }

    #[test]
    fn a_frame_claiming_the_size_cap_with_three_bytes_is_torn() {
        let mut bytes = (MAX_FRAME_LEN as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[1, 2, 3]);
        let mut reader = &bytes[..];
        let err = read_frame(&mut reader).expect_err("3 of 64 MiB arrived");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_frame_matches_model(&bytes);
    }

    proptest! {
        #[test]
        fn damaged_sink_blobs_are_corrupted(
            pick in prop::collection::vec(0usize..1 << 32, 5),
            noise in prop::collection::vec(0usize..256, 0..64),
        ) {
            let seeds = sink_seeds();
            for bytes in mutations(&seeds, &pick, &noise) {
                if seeds.contains(&bytes) {
                    continue;
                }
                prop_assert!(
                    matches!(decode_sink(&bytes), Err(SimError::Corrupted(_))),
                    "damaged blob {bytes:?} was not rejected as corrupted"
                );
            }
        }

        #[test]
        fn resealed_sink_payloads_decode_or_fail_without_panicking(
            pick in prop::collection::vec(0usize..1 << 32, 5),
            noise in prop::collection::vec(0usize..256, 0..64),
        ) {
            // Damage under a recomputed CRC reaches the structural decoder
            // behind the checksum.
            let bodies: Vec<Vec<u8>> = sink_seeds()
                .iter()
                .map(|blob| blob[..blob.len() - 4].to_vec())
                .collect();
            for mut bytes in mutations(&bodies, &pick, &noise) {
                let crc = crc32(&bytes);
                bytes.extend_from_slice(&crc.to_le_bytes());
                match decode_sink(&bytes) {
                    Ok(sink) => prop_assert_eq!(encode_sink(&sink), bytes),
                    Err(e) => prop_assert!(
                        matches!(e, SimError::Corrupted(_) | SimError::Io(_)),
                        "unexpected error {e:?}"
                    ),
                }
            }
        }

        #[test]
        fn mutated_worker_messages_fail_or_reencode_exactly(
            pick in prop::collection::vec(0usize..1 << 32, 5),
            noise in prop::collection::vec(0usize..256, 0..64),
        ) {
            for bytes in mutations(&to_worker_seeds(), &pick, &noise) {
                match ToWorker::decode(&bytes) {
                    Ok(message) => prop_assert_eq!(message.encode(), bytes),
                    Err(e) => prop_assert!(
                        matches!(e, SimError::Corrupted(_) | SimError::Io(_)),
                        "unexpected error {e:?}"
                    ),
                }
            }
        }

        #[test]
        fn mutated_coordinator_messages_fail_or_reencode_exactly(
            pick in prop::collection::vec(0usize..1 << 32, 5),
            noise in prop::collection::vec(0usize..256, 0..64),
        ) {
            for bytes in mutations(&to_coordinator_seeds(), &pick, &noise) {
                match ToCoordinator::decode(&bytes) {
                    Ok(message) => prop_assert_eq!(message.encode(), bytes),
                    Err(e) => prop_assert!(
                        matches!(e, SimError::Corrupted(_) | SimError::Io(_)),
                        "unexpected error {e:?}"
                    ),
                }
            }
        }

        #[test]
        fn mutated_frames_read_as_the_framing_model_predicts(
            pick in prop::collection::vec(0usize..1 << 32, 5),
            noise in prop::collection::vec(0usize..256, 0..64),
        ) {
            for bytes in mutations(&frame_seeds(), &pick, &noise) {
                assert_frame_matches_model(&bytes);
            }
        }
    }
}
