//! Criterion microbenchmark for the SIMD panel-kernel dispatch arms.
//!
//! Times the three hot loop shapes the batched engines spend their cycles in
//! — the single-matrix panel product, the fused affine-pair step and the
//! anchored leakage span — once through the auto-detected vector arm and once
//! through forced scalar, at 8 lanes (one chunk, the per-interval shape) and
//! 32 lanes (the compacted-sweep shape). The headline number is the
//! vector-over-scalar speedup on the 8-lane affine-pair kernel: on an AVX2
//! host the acceptance floor is ≥ 1.5×, asserted in the full (non `--test`)
//! run.
//!
//! The measured numbers are also written to `BENCH_panel_kernels.json` at the
//! workspace root so sweeps of the bench can be tracked over time.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;

use numeric::simd::PanelKernel;
use numeric::{affine_pair_apply_with, Matrix, Panel};
use power_model::{LeakageModel, LeakagePanel};

/// The paper's plant is an 8-node model; every hot kernel call is 8×8.
const N: usize = 8;
/// Leakage-driven node rows per scenario in the batched plant.
const LEAK_ROWS: usize = 6;
/// Acceptance floor for the vector arm on the 8-lane affine-pair kernel
/// (only asserted when an AVX2 host provides a vector arm to measure).
const SPEEDUP_FLOOR: f64 = 1.5;

fn test_matrix(seed: f64) -> Matrix {
    let mut m = Matrix::zeros(N, N);
    for i in 0..N {
        for j in 0..N {
            m[(i, j)] = ((i * N + j) as f64).sin() * seed + if i == j { 0.9 } else { 0.0 };
        }
    }
    m
}

fn test_panel(rows: usize, lanes: usize, scale: f64) -> Panel {
    let mut p = Panel::zeros(rows, lanes);
    for i in 0..rows {
        for l in 0..lanes {
            p.set(i, l, 40.0 + scale * (i * lanes + l) as f64);
        }
    }
    p
}

/// A named kernel-shaped operation on the fixture, timed per dispatch arm.
type KernelOp = (&'static str, fn(&mut KernelFixture, PanelKernel));

struct KernelFixture {
    a: Matrix,
    b: Matrix,
    bias: Vec<f64>,
    x: Panel,
    y: Panel,
    out: Panel,
    leak: LeakagePanel,
    temps: Vec<f64>,
    currents: Vec<f64>,
}

impl KernelFixture {
    fn new(lanes: usize) -> Self {
        let cells = LEAK_ROWS * lanes;
        KernelFixture {
            a: test_matrix(0.2),
            b: test_matrix(0.05),
            bias: (0..N).map(|i| 0.01 * i as f64).collect(),
            x: test_panel(N, lanes, 0.037),
            y: test_panel(N, lanes, 0.011),
            out: Panel::zeros(N, lanes),
            leak: LeakagePanel::filled(LEAK_ROWS, lanes, &LeakageModel::exynos5410_big(), 52.0),
            temps: (0..cells).map(|k| 52.0 + 0.002 * k as f64).collect(),
            currents: vec![0.0; cells],
        }
    }

    fn mul_panel(&mut self, kernel: PanelKernel) {
        self.a
            .mul_panel_into_with(kernel, black_box(&self.x), &mut self.out)
            .unwrap();
        black_box(&self.out);
    }

    fn affine_pair(&mut self, kernel: PanelKernel) {
        affine_pair_apply_with(
            kernel,
            &self.a,
            &self.b,
            &self.bias,
            black_box(&self.x),
            black_box(&self.y),
            &mut self.out,
        )
        .unwrap();
        black_box(&self.out);
    }

    fn leakage_span(&mut self, kernel: PanelKernel) {
        self.leak
            .currents_into_with(kernel, black_box(&self.temps), &mut self.currents);
        black_box(&self.currents[0]);
    }
}

fn bench_panel_kernels(c: &mut Criterion) {
    for lanes in [8usize, 32] {
        let mut group = c.benchmark_group(&format!("panel_kernels/{lanes}_lanes"));
        let active = PanelKernel::active();
        let mut fx = KernelFixture::new(lanes);
        group.bench_function(&format!("mul_panel/{}", active.name()), |bench| {
            bench.iter(|| fx.mul_panel(active))
        });
        group.bench_function("mul_panel/scalar", |bench| {
            bench.iter(|| fx.mul_panel(PanelKernel::Scalar))
        });
        group.bench_function(&format!("affine_pair/{}", active.name()), |bench| {
            bench.iter(|| fx.affine_pair(active))
        });
        group.bench_function("affine_pair/scalar", |bench| {
            bench.iter(|| fx.affine_pair(PanelKernel::Scalar))
        });
        group.bench_function(&format!("leakage_span/{}", active.name()), |bench| {
            bench.iter(|| fx.leakage_span(active))
        });
        group.bench_function("leakage_span/scalar", |bench| {
            bench.iter(|| fx.leakage_span(PanelKernel::Scalar))
        });
        group.finish();
    }

    report_speedups();
}

/// Best-of-N nanoseconds per kernel call.
fn time_op(passes: usize, iters: usize, mut op: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..passes {
        let start = Instant::now();
        for _ in 0..iters {
            op();
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e9 / iters as f64);
    }
    best
}

/// Times every (op, lanes, arm) cell, prints the speedup table, asserts the
/// acceptance floor and records `BENCH_panel_kernels.json`.
fn report_speedups() {
    let test_mode = std::env::args().any(|a| a == "--test");
    let passes = if test_mode { 1 } else { 5 };
    let iters = if test_mode { 200 } else { 200_000 };
    let active = PanelKernel::active();

    let mut rows = Vec::new();
    let mut affine8_speedup = None;
    for lanes in [8usize, 32] {
        let mut fx = KernelFixture::new(lanes);
        let ops: [KernelOp; 3] = [
            ("mul_panel", KernelFixture::mul_panel),
            ("affine_pair", KernelFixture::affine_pair),
            ("leakage_span", KernelFixture::leakage_span),
        ];
        for (name, op) in ops {
            let wide_ns = time_op(passes, iters, || op(&mut fx, active));
            let scalar_ns = time_op(passes, iters, || op(&mut fx, PanelKernel::Scalar));
            let speedup = scalar_ns / wide_ns;
            println!(
                "panel_kernels/{name}/{lanes}_lanes  {:>8.1} ns ({}) vs {:>8.1} ns (scalar)  {speedup:>6.2}x",
                wide_ns,
                active.name(),
                scalar_ns,
            );
            if name == "affine_pair" && lanes == 8 {
                affine8_speedup = Some(speedup);
            }
            rows.push(format!(
                "    {{ \"op\": \"{name}\", \"lanes\": {lanes}, \
                 \"{}_ns_per_call\": {wide_ns:.1}, \"scalar_ns_per_call\": {scalar_ns:.1}, \
                 \"speedup\": {speedup:.3} }}",
                active.name()
            ));
        }
    }
    let affine8 = affine8_speedup.expect("affine_pair at 8 lanes was measured");
    println!(
        "panel_kernels/affine_pair_8_lane_speedup  {affine8:>6.2}x \
         (acceptance floor on AVX2 hosts: >= {SPEEDUP_FLOOR}x)"
    );

    if !test_mode {
        write_bench_json(active, affine8, &rows);
        // The floor is a property of the AVX2 arm; on hosts without one the
        // active kernel IS the scalar path and there is nothing to assert.
        if active == PanelKernel::Avx2Fma {
            assert!(
                affine8 >= SPEEDUP_FLOOR,
                "AVX2 affine-pair kernel regressed to {affine8:.2}x over blocked scalar \
                 at 8 lanes (floor: {SPEEDUP_FLOOR}x)"
            );
        }
    }
}

/// Records the measured numbers for tracking (`BENCH_panel_kernels.json`).
fn write_bench_json(active: PanelKernel, affine8: f64, rows: &[String]) {
    let json = format!(
        "{{\n  \"bench\": \"panel_kernels\",\n  \"active_kernel\": \"{}\",\n  \
         \"affine_pair_8_lane_speedup\": {affine8:.3},\n  \
         \"floor\": {SPEEDUP_FLOOR},\n  \"cells\": [\n{}\n  ]\n}}\n",
        active.name(),
        rows.join(",\n")
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_panel_kernels.json"
    );
    if let Err(e) = std::fs::write(path, json) {
        eprintln!("warning: could not write {path}: {e}");
    }
}

criterion_group!(benches, bench_panel_kernels);
criterion_main!(benches);
