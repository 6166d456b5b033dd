//! The host's speed, read from a fixed reference kernel.
//!
//! A shared cloud host does not run a guest at one speed: on the 2-vCPU
//! KVM guest this benchmark was tuned on, every workload, the calibration
//! and this kernel ran about twice as fast in some hours as in others,
//! with no steal time reported. Throughput over wall time then measures
//! the host's state as much as the program. The benchmark therefore times
//! this kernel on every campaign thread at once, between campaigns, and
//! reports times in *reference seconds*: wall seconds × [`speed`]. One
//! reference second is the time the host takes for [`NOMINAL_NS`] worth of
//! the kernel when it runs at full speed, so on a host at full speed a
//! reference second is a wall second.
//!
//! The kernel is the benchmark's own code and never changes with the
//! program. It has the plant step's two kinds of arithmetic on an
//! L1-resident working set: dependent scalar multiply–add chains with an
//! `exp` per row, and the same matrix applied to an 8-lane panel, whose
//! lanes the compiler vectorises.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

/// Rows and columns of the reference matrix.
const N: usize = 32;
/// Lanes of the panel phase.
const LANES: usize = 8;
/// Passes of the scalar phase in one timing.
const SCALAR_PASSES: usize = 2_000;
/// Passes of the panel phase in one timing.
const PANEL_PASSES: usize = 1_000;
/// Timings per reading; a reading is their median.
const TIMINGS: usize = 3;
/// One timing (both phases) on a host at full speed, nanoseconds:
/// measured on an idle 2-vCPU Sapphire Rapids KVM guest (avx2 arm,
/// `target-cpu=native`) in its fast state.
pub const NOMINAL_NS: f64 = 2.27e6;

/// The reference matrix: a contraction (row sums < 1), so that with a
/// constant drive the state settles on normal, non-zero values and every
/// pass costs the same.
fn matrix() -> Vec<f64> {
    (0..N * N)
        .map(|k| 0.9 / N as f64 * (1.0 + ((k * 7) % 13) as f64 / 13.0) / 2.0)
        .collect()
}

/// Scalar phase: `x ← A·x + drive(A·x)`, one dependent dot product and
/// one `exp` per row.
fn scalar_phase(a: &[f64]) -> f64 {
    let mut x: Vec<f64> = (0..N).map(|i| 20.0 + i as f64).collect();
    let mut y = vec![0.0; N];
    for _ in 0..SCALAR_PASSES {
        let a = black_box(a);
        for (row, out) in a.chunks_exact(N).zip(y.iter_mut()) {
            let dot: f64 = row.iter().zip(&x).map(|(r, v)| r * v).sum();
            *out = dot + 0.5 * (-0.01 * dot).exp();
        }
        std::mem::swap(&mut x, &mut y);
    }
    x.iter().sum()
}

/// Panel phase: `X ← A·X + drive` on an `N × LANES` row-major panel, one
/// `exp` per row.
fn panel_phase(a: &[f64]) -> f64 {
    let mut x: Vec<f64> = (0..N * LANES).map(|i| 20.0 + i as f64).collect();
    let mut y = vec![0.0; N * LANES];
    for _ in 0..PANEL_PASSES {
        let a = black_box(a);
        for (row, out) in a.chunks_exact(N).zip(y.chunks_exact_mut(LANES)) {
            let mut acc = [0.0; LANES];
            for (r, lanes) in row.iter().zip(x.chunks_exact(LANES)) {
                for (sum, v) in acc.iter_mut().zip(lanes) {
                    *sum += r * v;
                }
            }
            let drive = 0.5 * (-0.01 * acc[0]).exp();
            for (o, sum) in out.iter_mut().zip(acc) {
                *o = sum + drive;
            }
        }
        std::mem::swap(&mut x, &mut y);
    }
    x.iter().sum()
}

/// Runs both phases once; returns a value that depends on every pass.
fn kernel() -> f64 {
    let a = matrix();
    scalar_phase(&a) + panel_phase(&a)
}

/// The host's current speed relative to full speed (1 = full speed,
/// 0.5 = half): [`NOMINAL_NS`] over the kernel's time, averaged over
/// `threads` threads that run it at once, as campaign threads share the
/// host. The median of [`TIMINGS`] timings, after one untimed run on each
/// thread so that the first reading of a process is not a cold one.
pub fn speed(threads: usize) -> f64 {
    let threads = threads.max(1);
    let mut readings: Vec<f64> = (0..=TIMINGS)
        .map(|_| {
            let barrier = Barrier::new(threads);
            let per_thread: Vec<f64> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            let start = Instant::now();
                            black_box(kernel());
                            NOMINAL_NS / start.elapsed().as_nanos().max(1) as f64
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("the reference kernel does not panic"))
                    .collect()
            });
            per_thread.iter().sum::<f64>() / threads as f64
        })
        .collect();
    readings.remove(0);
    readings.sort_by(f64::total_cmp);
    readings[TIMINGS / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_finite() {
        let value = kernel();
        assert!(value.is_finite() && value > 0.0);
        assert_eq!(value.to_bits(), kernel().to_bits());
    }

    #[test]
    fn speed_is_positive() {
        let s = speed(2);
        assert!(s.is_finite() && s > 0.0);
    }
}
