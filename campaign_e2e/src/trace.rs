//! Outside-in instrumentation: wrappers over the public [`ResultSink`] and
//! [`Transport`] traits that time and count what crosses each boundary,
//! without touching the program's own code.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use platform_sim::distributed::Transport;
use platform_sim::{CellStats, CheckpointSink, MergeSink, ResultSink, RunReport, SimError};

/// A sink whose in-order fold progress can be read: the wrapped sink's
/// pending-map depth is "accepted minus folded".
pub trait FoldProgress {
    /// Cells folded into the aggregate so far (the contiguous prefix).
    fn folded(&self) -> usize;
}

impl FoldProgress for MergeSink {
    fn folded(&self) -> usize {
        MergeSink::folded(self)
    }
}

impl FoldProgress for CheckpointSink<()> {
    fn folded(&self) -> usize {
        self.checkpoint().fold().folded()
    }
}

/// A [`ResultSink`] wrapper that times every `accept` of the inner sink,
/// tracks the inner fold's out-of-order depth, and captures each cell's
/// [`CellStats`] (outside the timed span) for per-cell comparisons.
#[derive(Debug)]
pub struct TimingSink<S> {
    inner: S,
    /// Wall time of each inner `accept`, nanoseconds, in delivery order.
    pub accept_ns: Vec<u64>,
    /// Largest `accepted − folded` seen after any delivery.
    pub max_out_of_order: usize,
    /// Each cell's statistics (`None` for failed or undelivered cells).
    pub cells: Vec<Option<CellStats>>,
}

impl<S> TimingSink<S> {
    /// Wraps `inner` for a grid of `cells` cells.
    pub fn new(inner: S, cells: usize) -> TimingSink<S> {
        TimingSink {
            inner,
            accept_ns: Vec::with_capacity(cells),
            max_out_of_order: 0,
            cells: vec![None; cells],
        }
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Unwraps the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Total time spent inside the inner sink, seconds.
    pub fn busy_s(&self) -> f64 {
        self.accept_ns.iter().sum::<u64>() as f64 * 1e-9
    }
}

impl<S: ResultSink + FoldProgress> ResultSink for TimingSink<S> {
    fn accept(&mut self, index: usize, outcome: Result<RunReport, SimError>) {
        if let (Ok(report), Some(slot)) = (&outcome, self.cells.get_mut(index)) {
            *slot = Some(CellStats::from(&report.summary));
        }
        let start = Instant::now();
        self.inner.accept(index, outcome);
        self.accept_ns.push(start.elapsed().as_nanos() as u64);
        let depth = self.accept_ns.len().saturating_sub(self.inner.folded());
        self.max_out_of_order = self.max_out_of_order.max(depth);
    }
}

/// Byte and time counters shared by every half of every
/// [`CountingTransport`] of one campaign.
#[derive(Debug, Default)]
pub struct WireCounters {
    /// Bytes written towards workers.
    pub bytes_sent: AtomicU64,
    /// Bytes read from workers.
    pub bytes_recv: AtomicU64,
    /// `write` calls on the write halves.
    pub writes: AtomicU64,
    /// Time the read halves spent blocked in `read`, nanoseconds.
    pub recv_wait_ns: AtomicU64,
    /// Read halves not yet dropped. The read half of a child transport
    /// owns the child and reaps it on drop, so zero means every worker
    /// process has ended.
    live_readers: AtomicUsize,
}

impl WireCounters {
    /// Waits until every read half has been dropped (every child reaped).
    ///
    /// # Errors
    ///
    /// Returns a message if some are still alive after `timeout`.
    pub fn wait_for_readers(&self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        while self.live_readers.load(Ordering::SeqCst) > 0 {
            if Instant::now() >= deadline {
                return Err(format!(
                    "{} worker transport(s) still open after {timeout:?}",
                    self.live_readers.load(Ordering::SeqCst)
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }
}

/// A [`Transport`] wrapper that counts bytes and writes, times blocking
/// reads (when `counting`), and always tracks when its read half is gone.
pub struct CountingTransport {
    inner: Box<dyn Transport>,
    counters: Arc<WireCounters>,
    counting: bool,
}

impl CountingTransport {
    /// Wraps `inner`; with `counting` off only the read-half lifetime is
    /// tracked, so untraced runs pay nothing per byte.
    pub fn new(
        inner: Box<dyn Transport>,
        counters: Arc<WireCounters>,
        counting: bool,
    ) -> CountingTransport {
        CountingTransport {
            inner,
            counters,
            counting,
        }
    }
}

impl Transport for CountingTransport {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn split(self: Box<Self>) -> io::Result<(Box<dyn Write + Send>, Box<dyn Read + Send>)> {
        let (writer, reader) = self.inner.split()?;
        self.counters.live_readers.fetch_add(1, Ordering::SeqCst);
        Ok((
            Box::new(CountingWriter {
                inner: writer,
                counters: Arc::clone(&self.counters),
                counting: self.counting,
            }),
            Box::new(CountingReader {
                inner: Some(reader),
                counters: self.counters,
                counting: self.counting,
            }),
        ))
    }
}

struct CountingWriter {
    inner: Box<dyn Write + Send>,
    counters: Arc<WireCounters>,
    counting: bool,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let written = self.inner.write(buf)?;
        if self.counting {
            self.counters.writes.fetch_add(1, Ordering::Relaxed);
            self.counters
                .bytes_sent
                .fetch_add(written as u64, Ordering::Relaxed);
        }
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

struct CountingReader {
    /// Always `Some` until dropped; taken in `drop` so the inner half (and
    /// the child it reaps) is gone before the live count falls.
    inner: Option<Box<dyn Read + Send>>,
    counters: Arc<WireCounters>,
    counting: bool,
}

impl Read for CountingReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let inner = self.inner.as_mut().expect("reader used after drop");
        if !self.counting {
            return inner.read(buf);
        }
        let start = Instant::now();
        let read = inner.read(buf)?;
        self.counters
            .recv_wait_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.counters
            .bytes_recv
            .fetch_add(read as u64, Ordering::Relaxed);
        Ok(read)
    }
}

impl Drop for CountingReader {
    fn drop(&mut self) {
        drop(self.inner.take());
        self.counters.live_readers.fetch_sub(1, Ordering::SeqCst);
    }
}
