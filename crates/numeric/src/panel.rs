//! Structure-of-arrays panels: one scenario per column.
//!
//! A [`Panel`] holds the same state vector for `lanes` independent scenarios
//! side by side: row `i` stores element `i` of every scenario contiguously, so
//! column `l` is scenario `l`'s state scattered at stride `lanes`. Batched
//! kernels walk a row across all lanes with unit stride, which is exactly the
//! layout wide vector loads want and what lets an `n × n` transition matrix be
//! loaded *once* per step for every scenario instead of once per scenario.
//! Panel storage is allocated at [`crate::PANEL_ALIGN`]-byte boundaries (see
//! [`crate::aligned`]) so those wide loads never straddle cache lines.
//!
//! The panel kernels ([`Matrix::mul_panel_into`], [`affine_pair_apply`])
//! process lanes in fixed-width chunks of [`LANE_CHUNK`] through the SIMD arm
//! selected by [`PanelKernel::active`] (see [`crate::simd`] for the dispatch
//! and equivalence contract), falling back to register-blocked scalar code for
//! the remainder lanes and on hosts without a vector unit. Every arm
//! accumulates each lane in the same per-lane order (`j = 0..n`, `A`-term
//! before `B`-term), so a lane's result is bit-identical no matter which arm
//! processed it or how many lanes surround it. [`gathered_affine_apply`]
//! keeps that order when every lane brings its own matrices.
//!
//! # Example
//!
//! ```
//! use numeric::{Matrix, Panel};
//!
//! # fn main() -> Result<(), numeric::NumericError> {
//! // Two scenarios advanced by the same 2×2 map in one pass.
//! let a = Matrix::from_rows(&[&[0.5, 0.0], &[0.0, 2.0]])?;
//! let mut x = Panel::zeros(2, 2);
//! x.set_column(0, &[1.0, 1.0]);
//! x.set_column(1, &[4.0, 4.0]);
//! let mut out = Panel::zeros(2, 2);
//! a.mul_panel_into(&x, &mut out)?;
//! assert_eq!(out.column(0), vec![0.5, 2.0]);
//! assert_eq!(out.column(1), vec![2.0, 8.0]);
//! # Ok(())
//! # }
//! ```

use crate::aligned::{AlignedVec, PANEL_ALIGN};
use crate::matrix::Matrix;
use crate::simd::{self, madd, madd2, PanelKernel};
use crate::NumericError;

/// Width of the register-blocked fast path of the panel kernels.
pub const LANE_CHUNK: usize = 8;

/// A structure-of-arrays panel: `rows` state elements for `lanes` independent
/// scenarios, stored row-major (`data[i * lanes + l]` is element `i` of
/// scenario `l`) in [`crate::PANEL_ALIGN`]-byte-aligned storage.
#[derive(Debug, Clone, PartialEq)]
pub struct Panel {
    rows: usize,
    lanes: usize,
    data: AlignedVec,
}

impl Panel {
    /// Creates a `rows × lanes` panel filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `lanes` is zero.
    pub fn zeros(rows: usize, lanes: usize) -> Self {
        assert!(rows > 0 && lanes > 0, "panel dimensions must be non-zero");
        let data = AlignedVec::zeroed(rows * lanes);
        debug_assert_eq!(
            data.as_ptr() as usize % PANEL_ALIGN,
            0,
            "panel storage must be {PANEL_ALIGN}-byte aligned"
        );
        Panel { rows, lanes, data }
    }

    /// Number of state rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of scenario lanes (columns).
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Row `i` across all lanes, unit stride.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "panel row index out of bounds");
        &self.data[i * self.lanes..(i + 1) * self.lanes]
    }

    /// Mutable row `i` across all lanes.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "panel row index out of bounds");
        &mut self.data[i * self.lanes..(i + 1) * self.lanes]
    }

    /// Element `i` of scenario `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `lane` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize, lane: usize) -> f64 {
        assert!(
            i < self.rows && lane < self.lanes,
            "panel index out of bounds"
        );
        self.data[i * self.lanes + lane]
    }

    /// Sets element `i` of scenario `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `lane` is out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, lane: usize, value: f64) {
        assert!(
            i < self.rows && lane < self.lanes,
            "panel index out of bounds"
        );
        self.data[i * self.lanes + lane] = value;
    }

    /// Copies scenario `lane`'s state vector into the panel (one value per
    /// row).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of bounds or `values.len() != self.rows()`.
    pub fn set_column(&mut self, lane: usize, values: &[f64]) {
        assert!(lane < self.lanes, "panel lane index out of bounds");
        assert_eq!(values.len(), self.rows, "column length mismatch");
        for (i, &v) in values.iter().enumerate() {
            self.data[i * self.lanes + lane] = v;
        }
    }

    /// Extracts scenario `lane`'s state vector into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of bounds or `out.len() != self.rows()`.
    pub fn column_into(&self, lane: usize, out: &mut [f64]) {
        assert!(lane < self.lanes, "panel lane index out of bounds");
        assert_eq!(out.len(), self.rows, "column length mismatch");
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.data[i * self.lanes + lane];
        }
    }

    /// Scenario `lane`'s state vector as a fresh `Vec` (allocating
    /// convenience over [`Panel::column_into`]).
    pub fn column(&self, lane: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.rows];
        self.column_into(lane, &mut out);
        out
    }

    /// Fills the whole panel with `value`.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// The underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The underlying row-major storage, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

impl Matrix {
    /// The `i`-th row as a borrowed slice — the allocation-free form of
    /// [`Matrix::row`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    #[inline]
    pub fn row_slice(&self, i: usize) -> &[f64] {
        assert!(i < self.rows(), "row index out of bounds");
        &self.as_slice()[i * self.cols()..(i + 1) * self.cols()]
    }

    /// Matrix–panel product `out = self · x`: advances every scenario column
    /// of `x` through the same linear map in one pass, loading each matrix
    /// entry once for all lanes.
    ///
    /// Full chunks of [`LANE_CHUNK`] lanes go through the SIMD arm selected
    /// by [`PanelKernel::active`]; remainder lanes take the blocked scalar
    /// path. Every lane accumulates in the same order regardless of arm, so
    /// results are bit-identical across chunk boundaries, lane counts and
    /// (in the default build) dispatch arms — see [`crate::simd`].
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] if `self.cols() != x.rows()`
    /// or `out` is not `self.rows() × x.lanes()`.
    pub fn mul_panel_into(&self, x: &Panel, out: &mut Panel) -> Result<(), NumericError> {
        self.mul_panel_into_with(PanelKernel::active(), x, out)
    }

    /// [`Matrix::mul_panel_into`] through an explicit [`PanelKernel`] arm
    /// (testing/benching form; an unavailable kernel degrades to scalar).
    ///
    /// # Errors
    ///
    /// As for [`Matrix::mul_panel_into`].
    pub fn mul_panel_into_with(
        &self,
        kernel: PanelKernel,
        x: &Panel,
        out: &mut Panel,
    ) -> Result<(), NumericError> {
        if self.cols() != x.rows() {
            return Err(NumericError::DimensionMismatch {
                operation: "matrix-panel multiplication",
                left: (self.rows(), self.cols()),
                right: (x.rows(), x.lanes()),
            });
        }
        if out.rows != self.rows() || out.lanes != x.lanes {
            return Err(NumericError::DimensionMismatch {
                operation: "matrix-panel output",
                left: (self.rows(), x.lanes),
                right: (out.rows, out.lanes),
            });
        }
        let (m, n, lanes) = (self.rows(), self.cols(), x.lanes);
        fused_panel_kernel(
            kernel,
            self.as_slice(),
            None,
            None,
            x.as_slice(),
            None,
            &mut out.data,
            m,
            n,
            lanes,
        );
        Ok(())
    }
}

/// Fused affine panel step `out = bias ⊗ 1ᵀ + a·x + b·y`.
///
/// This is the batched form of one affine transition applied to `x.lanes()`
/// scenarios at once: both matrices are streamed through the cache a single
/// time per call, and the inner loops run across lanes at unit stride through
/// the SIMD arm selected by [`PanelKernel::active`]. For each output element
/// the accumulation order is `bias`, then for `j = 0..n` the `a`-term
/// followed by the `b`-term — the same order for every lane and arm, and
/// identical to a scalar column-major (axpy) evaluation, which is what makes
/// batched and scalar transition stepping agree to the last bit (see
/// [`crate::simd`] for the `fma`-build contract).
///
/// # Errors
///
/// Returns [`NumericError::DimensionMismatch`] if the matrix shapes differ,
/// `bias` does not cover the output rows, the panels disagree in shape, or
/// `out` is not `a.rows() × x.lanes()`.
pub fn affine_pair_apply(
    a: &Matrix,
    b: &Matrix,
    bias: &[f64],
    x: &Panel,
    y: &Panel,
    out: &mut Panel,
) -> Result<(), NumericError> {
    affine_pair_apply_with(PanelKernel::active(), a, b, bias, x, y, out)
}

/// [`affine_pair_apply`] through an explicit [`PanelKernel`] arm
/// (testing/benching form; an unavailable kernel degrades to scalar).
///
/// # Errors
///
/// As for [`affine_pair_apply`].
pub fn affine_pair_apply_with(
    kernel: PanelKernel,
    a: &Matrix,
    b: &Matrix,
    bias: &[f64],
    x: &Panel,
    y: &Panel,
    out: &mut Panel,
) -> Result<(), NumericError> {
    if a.rows() != b.rows() || a.cols() != b.cols() {
        return Err(NumericError::DimensionMismatch {
            operation: "affine panel pair",
            left: (a.rows(), a.cols()),
            right: (b.rows(), b.cols()),
        });
    }
    if a.cols() != x.rows() || x.rows != y.rows || x.lanes != y.lanes {
        return Err(NumericError::DimensionMismatch {
            operation: "affine panel inputs",
            left: (a.cols(), x.lanes),
            right: (y.rows, y.lanes),
        });
    }
    if bias.len() != a.rows() || out.rows != a.rows() || out.lanes != x.lanes {
        return Err(NumericError::DimensionMismatch {
            operation: "affine panel output",
            left: (a.rows(), x.lanes),
            right: (out.rows, out.lanes),
        });
    }
    let (m, n, lanes) = (a.rows(), a.cols(), x.lanes);
    fused_panel_kernel(
        kernel,
        a.as_slice(),
        Some(b.as_slice()),
        Some(bias),
        x.as_slice(),
        Some(y.as_slice()),
        &mut out.data,
        m,
        n,
        lanes,
    );
    Ok(())
}

/// Fused affine panel step with a per-lane bias *panel*:
/// `out = bias + a·x + b·y`, where `bias` is `m × lanes` (the same layout as
/// `out`) instead of a per-row broadcast vector. This is the batched plant's
/// transition apply: the bias panel carries each lane's own ambient drive, so
/// lanes that share `a`/`b` but not their ambient still advance in one
/// blocked pass, and the drive rides in through the accumulator
/// initialisation (a plain vector load) rather than a separate
/// read-modify-write pass. Accumulation order per output element is the bias
/// element, then for `j = 0..n` the `a`-term followed by the `b`-term — the
/// same contract as [`affine_pair_apply`], upheld identically by every arm.
///
/// # Errors
///
/// Returns [`NumericError::DimensionMismatch`] if the matrix shapes differ,
/// the inputs do not match, or `bias`/`out` is not `a.rows() × x.lanes()`.
pub fn affine_panel_bias_apply(
    a: &Matrix,
    b: &Matrix,
    bias: &Panel,
    x: &Panel,
    y: &Panel,
    out: &mut Panel,
) -> Result<(), NumericError> {
    affine_panel_bias_apply_with(PanelKernel::active(), a, b, bias, x, y, out)
}

/// [`affine_panel_bias_apply`] through an explicit [`PanelKernel`] arm
/// (testing/benching form; an unavailable kernel degrades to scalar).
///
/// # Errors
///
/// As for [`affine_panel_bias_apply`].
pub fn affine_panel_bias_apply_with(
    kernel: PanelKernel,
    a: &Matrix,
    b: &Matrix,
    bias: &Panel,
    x: &Panel,
    y: &Panel,
    out: &mut Panel,
) -> Result<(), NumericError> {
    let (a_rows, a_cols) = (a.rows(), a.cols());
    if a_rows != b.rows() || a_cols != b.cols() {
        return Err(NumericError::DimensionMismatch {
            operation: "affine panel pair",
            left: (a_rows, a_cols),
            right: (b.rows(), b.cols()),
        });
    }
    if a_cols != x.rows || x.rows != y.rows || x.lanes != y.lanes {
        return Err(NumericError::DimensionMismatch {
            operation: "affine panel inputs",
            left: (a_cols, x.lanes),
            right: (y.rows, y.lanes),
        });
    }
    if bias.rows != a_rows || bias.lanes != x.lanes || out.rows != a_rows || out.lanes != x.lanes {
        return Err(NumericError::DimensionMismatch {
            operation: "affine panel bias/output",
            left: (a_rows, x.lanes),
            right: (out.rows, out.lanes),
        });
    }
    let (m, n, lanes) = (a_rows, a_cols, x.lanes);
    let (a_data, b_data) = (a.as_slice(), b.as_slice());
    let bias_data = bias.as_slice();
    let (x_data, y_data) = (x.as_slice(), y.as_slice());
    let out = &mut out.data;
    let full = lanes - lanes % LANE_CHUNK;
    let handled = simd::affine_panel_chunks(
        kernel, a_data, b_data, bias_data, x_data, y_data, out, m, n, lanes, full,
    );
    if handled == lanes {
        return Ok(());
    }

    // Scalar arm and remainder: same row blocking as [`fused_panel_kernel`],
    // with the accumulators seeded from the bias panel row instead of a
    // broadcast.
    let mut i = 0;
    while i + 2 <= m {
        let mut off = handled;
        while off + LANE_CHUNK <= lanes {
            scalar_rows_bias_panel::<2>(
                a_data, b_data, bias_data, x_data, y_data, out, i, n, lanes, off, LANE_CHUNK,
            );
            off += LANE_CHUNK;
        }
        if off < lanes {
            scalar_rows_bias_panel::<2>(
                a_data,
                b_data,
                bias_data,
                x_data,
                y_data,
                out,
                i,
                n,
                lanes,
                off,
                lanes - off,
            );
        }
        i += 2;
    }
    if i < m {
        let mut off = handled;
        while off + LANE_CHUNK <= lanes {
            scalar_rows_bias_panel::<1>(
                a_data, b_data, bias_data, x_data, y_data, out, i, n, lanes, off, LANE_CHUNK,
            );
            off += LANE_CHUNK;
        }
        if off < lanes {
            scalar_rows_bias_panel::<1>(
                a_data,
                b_data,
                bias_data,
                x_data,
                y_data,
                out,
                i,
                n,
                lanes,
                off,
                lanes - off,
            );
        }
    }
    Ok(())
}

/// Gathered-coefficient affine panel step: every lane brings its own
/// matrices. For each output row `i` and lane `l`,
///
/// ```text
/// out[i][l] = bias[i][l] + Σ_j r[i·n + j][l] · x[j][l] + s[i·n + j][l] · y[j][l]
/// ```
///
/// where `r` and `s` are `(m·n) × lanes` panels holding, in column `l`, lane
/// `l`'s row-major `m × n` matrices. This is the batched plant's transition
/// apply when lanes need different matrices (e.g. mixed fan levels): the
/// coefficients are gathered into panels once when the lane→transition map
/// changes, so every micro-step still runs at unit stride across lanes.
///
/// Lanes are processed in fixed [`LANE_CHUNK`]-wide chunks with register
/// accumulators over `j`, through the same [`madd2`] step as the other
/// panel kernels: per lane the order is `bias`, then for `j = 0..n` the
/// `r`-term before the `s`-term, so a lane's result is bit-identical to
/// [`affine_panel_bias_apply`] (and to the scalar transition) given the same
/// matrices. The loops are portable; the compiler vectorises the fixed-width
/// chunk body.
///
/// # Errors
///
/// Returns [`NumericError::DimensionMismatch`] if `x` and `y` differ in
/// shape, `r`/`s` are not `(bias.rows() · x.rows()) × x.lanes()`, or
/// `bias`/`out` are not `m × x.lanes()`.
pub fn gathered_affine_apply(
    r: &Panel,
    s: &Panel,
    bias: &Panel,
    x: &Panel,
    y: &Panel,
    out: &mut Panel,
) -> Result<(), NumericError> {
    let (m, n, lanes) = (bias.rows, x.rows, x.lanes);
    if x.rows != y.rows || x.lanes != y.lanes {
        return Err(NumericError::DimensionMismatch {
            operation: "gathered affine inputs",
            left: (x.rows, x.lanes),
            right: (y.rows, y.lanes),
        });
    }
    for coef in [r, s] {
        if coef.rows != m * n || coef.lanes != lanes {
            return Err(NumericError::DimensionMismatch {
                operation: "gathered affine coefficients",
                left: (m * n, lanes),
                right: (coef.rows, coef.lanes),
            });
        }
    }
    if bias.lanes != lanes || out.rows != m || out.lanes != lanes {
        return Err(NumericError::DimensionMismatch {
            operation: "gathered affine bias/output",
            left: (m, lanes),
            right: (out.rows, out.lanes),
        });
    }
    let (r, s, bias, x, y) = (
        r.as_slice(),
        s.as_slice(),
        bias.as_slice(),
        x.as_slice(),
        y.as_slice(),
    );
    let out = &mut out.data;
    let mut off = 0;
    while off + LANE_CHUNK <= lanes {
        gathered_rows(r, s, bias, x, y, out, m, n, lanes, off, LANE_CHUNK);
        off += LANE_CHUNK;
    }
    if off < lanes {
        gathered_rows(r, s, bias, x, y, out, m, n, lanes, off, lanes - off);
    }
    Ok(())
}

/// Body of [`gathered_affine_apply`] over lanes `[off, off + width)`
/// (`width <=` [`LANE_CHUNK`]); called with the literal [`LANE_CHUNK`] for
/// full chunks so the inner loops get a fixed trip count to vectorise.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn gathered_rows(
    r: &[f64],
    s: &[f64],
    bias: &[f64],
    x: &[f64],
    y: &[f64],
    out: &mut [f64],
    m: usize,
    n: usize,
    lanes: usize,
    off: usize,
    width: usize,
) {
    for i in 0..m {
        let row = i * lanes + off;
        let mut acc = [0.0; LANE_CHUNK];
        acc[..width].copy_from_slice(&bias[row..row + width]);
        for j in 0..n {
            let x_row = &x[j * lanes + off..j * lanes + off + width];
            let y_row = &y[j * lanes + off..j * lanes + off + width];
            let k = (i * n + j) * lanes + off;
            let (r_row, s_row) = (&r[k..k + width], &s[k..k + width]);
            for q in 0..width {
                acc[q] = madd2(r_row[q], x_row[q], s_row[q], y_row[q], acc[q]);
            }
        }
        out[row..row + width].copy_from_slice(&acc[..width]);
    }
}

/// Shared dispatching kernel behind [`Matrix::mul_panel_into`] and
/// [`affine_pair_apply`], operating on raw row-major slices. `b_data` /
/// `y_data` are `None` for the single-matrix product; a `None` bias means all
/// zeros (no allocation). Dimensions are assumed pre-validated: `a` (and `b`)
/// cover `m × n`, `x` (and `y`) `n × lanes`, `out` `m × lanes`.
///
/// The requested arm (degraded to scalar if unavailable on this host)
/// handles the full [`LANE_CHUNK`]-wide chunks `[0, full)`; the remainder
/// lanes always take [`scalar_rows`]. Both produce bit-identical lanes — see
/// [`crate::simd`].
#[allow(clippy::too_many_arguments)]
fn fused_panel_kernel(
    kernel: PanelKernel,
    a_data: &[f64],
    b_data: Option<&[f64]>,
    bias: Option<&[f64]>,
    x_data: &[f64],
    y_data: Option<&[f64]>,
    out: &mut [f64],
    m: usize,
    n: usize,
    lanes: usize,
) {
    let full = lanes - lanes % LANE_CHUNK;
    let handled = match (b_data, y_data) {
        (Some(bd), Some(yd)) => {
            simd::affine_chunks(kernel, a_data, bd, bias, x_data, yd, out, m, n, lanes, full)
        }
        _ => simd::mul_chunks(kernel, a_data, bias, x_data, out, m, n, lanes, full),
    };
    if handled == lanes {
        return;
    }

    // Scalar arm and remainder: rows outer so each row's bias is read once
    // (not once per lane chunk), two output rows per pass so each loaded
    // input row is applied twice. Full chunks call the width-generic helper
    // with the literal `LANE_CHUNK` so constant propagation recovers the
    // fixed-trip-count inner loops the autovectorizer needs.
    let mut i = 0;
    while i + 2 <= m {
        let biases = [bias_at(bias, i), bias_at(bias, i + 1)];
        let mut off = handled;
        while off + LANE_CHUNK <= lanes {
            scalar_rows::<2>(
                a_data, b_data, biases, x_data, y_data, out, i, n, lanes, off, LANE_CHUNK,
            );
            off += LANE_CHUNK;
        }
        if off < lanes {
            scalar_rows::<2>(
                a_data,
                b_data,
                biases,
                x_data,
                y_data,
                out,
                i,
                n,
                lanes,
                off,
                lanes - off,
            );
        }
        i += 2;
    }
    if i < m {
        let biases = [bias_at(bias, i)];
        let mut off = handled;
        while off + LANE_CHUNK <= lanes {
            scalar_rows::<1>(
                a_data, b_data, biases, x_data, y_data, out, i, n, lanes, off, LANE_CHUNK,
            );
            off += LANE_CHUNK;
        }
        if off < lanes {
            scalar_rows::<1>(
                a_data,
                b_data,
                biases,
                x_data,
                y_data,
                out,
                i,
                n,
                lanes,
                off,
                lanes - off,
            );
        }
    }
}

#[inline(always)]
fn bias_at(bias: Option<&[f64]>, i: usize) -> f64 {
    bias.map_or(0.0, |b| b[i])
}

/// Width-generic scalar body of the panel kernels:
/// accumulates `R` output rows starting at `i` over lanes
/// `[off, off + width)` (`width <=` [`LANE_CHUNK`]). The single helper serves
/// the blocked full-chunk pass, the odd-row tail and the remainder lanes, so
/// all of them share one accumulation order by construction — per lane,
/// `bias`, then for each `j` the `a`-term before the `b`-term, through the
/// [`madd`] / [`madd2`] primitives.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn scalar_rows<const R: usize>(
    a_data: &[f64],
    b_data: Option<&[f64]>,
    biases: [f64; R],
    x_data: &[f64],
    y_data: Option<&[f64]>,
    out: &mut [f64],
    i: usize,
    n: usize,
    lanes: usize,
    off: usize,
    width: usize,
) {
    let mut acc = [[0.0; LANE_CHUNK]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        *row = [biases[r]; LANE_CHUNK];
    }
    match (b_data, y_data) {
        (Some(bd), Some(yd)) => {
            for j in 0..n {
                let x_row = &x_data[j * lanes + off..j * lanes + off + width];
                let y_row = &yd[j * lanes + off..j * lanes + off + width];
                for (r, row) in acc.iter_mut().enumerate() {
                    let a0 = a_data[(i + r) * n + j];
                    let b0 = bd[(i + r) * n + j];
                    for q in 0..width {
                        row[q] = madd2(a0, x_row[q], b0, y_row[q], row[q]);
                    }
                }
            }
        }
        _ => {
            for j in 0..n {
                let x_row = &x_data[j * lanes + off..j * lanes + off + width];
                for (r, row) in acc.iter_mut().enumerate() {
                    let a0 = a_data[(i + r) * n + j];
                    for q in 0..width {
                        row[q] = madd(a0, x_row[q], row[q]);
                    }
                }
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        out[(i + r) * lanes + off..(i + r) * lanes + off + width].copy_from_slice(&row[..width]);
    }
}

/// The [`scalar_rows`] twin for [`affine_panel_bias_apply`]: identical
/// blocking and accumulation order, except the accumulators are seeded from
/// the `m × lanes` bias panel row (one element per lane) instead of a
/// per-row broadcast.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn scalar_rows_bias_panel<const R: usize>(
    a_data: &[f64],
    b_data: &[f64],
    bias_data: &[f64],
    x_data: &[f64],
    y_data: &[f64],
    out: &mut [f64],
    i: usize,
    n: usize,
    lanes: usize,
    off: usize,
    width: usize,
) {
    let mut acc = [[0.0; LANE_CHUNK]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        let start = (i + r) * lanes + off;
        row[..width].copy_from_slice(&bias_data[start..start + width]);
    }
    for j in 0..n {
        let x_row = &x_data[j * lanes + off..j * lanes + off + width];
        let y_row = &y_data[j * lanes + off..j * lanes + off + width];
        for (r, row) in acc.iter_mut().enumerate() {
            let a0 = a_data[(i + r) * n + j];
            let b0 = b_data[(i + r) * n + j];
            for q in 0..width {
                row[q] = madd2(a0, x_row[q], b0, y_row[q], row[q]);
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        out[(i + r) * lanes + off..(i + r) * lanes + off + width].copy_from_slice(&row[..width]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vector;

    fn test_matrix(n: usize, seed: f64) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = ((i * n + j) as f64).sin() * seed + if i == j { 0.9 } else { 0.0 };
            }
        }
        m
    }

    #[test]
    fn panel_accessors_round_trip() {
        let mut p = Panel::zeros(3, 5);
        assert_eq!(p.rows(), 3);
        assert_eq!(p.lanes(), 5);
        p.set(1, 4, 2.5);
        assert_eq!(p.get(1, 4), 2.5);
        p.set_column(2, &[1.0, 2.0, 3.0]);
        assert_eq!(p.column(2), vec![1.0, 2.0, 3.0]);
        assert_eq!(p.row(1)[2], 2.0);
        p.row_mut(0)[0] = 7.0;
        assert_eq!(p.get(0, 0), 7.0);
        let mut col = vec![0.0; 3];
        p.column_into(2, &mut col);
        assert_eq!(col, vec![1.0, 2.0, 3.0]);
        p.fill(0.0);
        assert!(p.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "column length mismatch")]
    fn set_column_rejects_wrong_length() {
        Panel::zeros(3, 2).set_column(0, &[1.0]);
    }

    #[test]
    fn panel_storage_is_aligned() {
        let p = Panel::zeros(6, 9);
        assert_eq!(p.as_slice().as_ptr() as usize % PANEL_ALIGN, 0);
        let twin = p.clone();
        assert_eq!(twin.as_slice().as_ptr() as usize % PANEL_ALIGN, 0);
    }

    #[test]
    fn row_slice_matches_row() {
        let m = test_matrix(4, 0.3);
        for i in 0..4 {
            assert_eq!(m.row_slice(i), m.row(i).as_slice());
        }
    }

    #[test]
    fn mul_panel_matches_per_column_mat_vec() {
        // Cover the blocked path, the remainder path and the odd-row tail.
        for lanes in [1, 3, 7, 8, 9, 16, 19] {
            for n in [3, 4, 8] {
                let a = test_matrix(n, 0.7);
                let mut x = Panel::zeros(n, lanes);
                for lane in 0..lanes {
                    let col: Vec<f64> = (0..n).map(|i| (lane * n + i) as f64 * 0.1 + 1.0).collect();
                    x.set_column(lane, &col);
                }
                let mut out = Panel::zeros(n, lanes);
                a.mul_panel_into(&x, &mut out).unwrap();
                for lane in 0..lanes {
                    let v = Vector::from_slice(&x.column(lane));
                    let expect = a.mul_vector(&v).unwrap();
                    for i in 0..n {
                        assert!(
                            (out.get(i, lane) - expect[i]).abs() < 1e-12,
                            "n={n} lanes={lanes} lane={lane} row={i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mul_panel_lane_results_do_not_depend_on_neighbours() {
        // A lane's result must be bit-identical whether it sits in a full
        // chunk of 8 (SIMD arm) or in the scalar remainder.
        let n = 8;
        let a = test_matrix(n, 0.4);
        let col: Vec<f64> = (0..n).map(|i| 40.0 + i as f64 * 1.3).collect();
        let mut wide = Panel::zeros(n, 11);
        for lane in 0..11 {
            wide.set_column(lane, &col);
        }
        let mut out_wide = Panel::zeros(n, 11);
        a.mul_panel_into(&wide, &mut out_wide).unwrap();
        let mut narrow = Panel::zeros(n, 1);
        narrow.set_column(0, &col);
        let mut out_narrow = Panel::zeros(n, 1);
        a.mul_panel_into(&narrow, &mut out_narrow).unwrap();
        for lane in 0..11 {
            for i in 0..n {
                assert_eq!(
                    out_wide.get(i, lane).to_bits(),
                    out_narrow.get(i, 0).to_bits(),
                    "lane {lane} row {i}"
                );
            }
        }
    }

    #[test]
    fn affine_pair_matches_scalar_reference() {
        for lanes in [1, 5, 8, 13] {
            let n = 8;
            let a = test_matrix(n, 0.2);
            let b = test_matrix(n, 0.05);
            let bias: Vec<f64> = (0..n).map(|i| 0.01 * i as f64).collect();
            let mut x = Panel::zeros(n, lanes);
            let mut y = Panel::zeros(n, lanes);
            for lane in 0..lanes {
                for i in 0..n {
                    x.set(i, lane, 50.0 + (lane + i) as f64 * 0.37);
                    y.set(i, lane, 0.5 + (lane * i) as f64 * 0.011);
                }
            }
            let mut out = Panel::zeros(n, lanes);
            affine_pair_apply(&a, &b, &bias, &x, &y, &mut out).unwrap();
            for lane in 0..lanes {
                for i in 0..n {
                    let mut acc = bias[i];
                    for j in 0..n {
                        acc += a[(i, j)] * x.get(j, lane);
                        acc += b[(i, j)] * y.get(j, lane);
                    }
                    assert!(
                        (out.get(i, lane) - acc).abs() < 1e-10,
                        "lanes={lanes} lane={lane} row={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn explicit_kernel_arms_agree_with_scalar() {
        // The `_with` forms are the oracle hook for the dispatch arms: on the
        // default build every available arm must match forced-scalar to the
        // bit; under `fma` they still must match each other (all arms fuse
        // identically), which this test covers by comparing vs Scalar, whose
        // madd primitives fuse too.
        let n = 8;
        let a = test_matrix(n, 0.2);
        let b = test_matrix(n, 0.05);
        let bias: Vec<f64> = (0..n).map(|i| 0.01 * i as f64).collect();
        for lanes in [8, 11, 24] {
            let mut x = Panel::zeros(n, lanes);
            let mut y = Panel::zeros(n, lanes);
            for lane in 0..lanes {
                for i in 0..n {
                    x.set(i, lane, 50.0 + (lane + i) as f64 * 0.37);
                    y.set(i, lane, 0.5 + (lane * i) as f64 * 0.011);
                }
            }
            let mut scalar_out = Panel::zeros(n, lanes);
            affine_pair_apply_with(PanelKernel::Scalar, &a, &b, &bias, &x, &y, &mut scalar_out)
                .unwrap();
            let mut scalar_mul = Panel::zeros(n, lanes);
            a.mul_panel_into_with(PanelKernel::Scalar, &x, &mut scalar_mul)
                .unwrap();
            for kernel in [PanelKernel::Avx2Fma, PanelKernel::Neon] {
                if !kernel.is_available() {
                    continue;
                }
                let mut out = Panel::zeros(n, lanes);
                affine_pair_apply_with(kernel, &a, &b, &bias, &x, &y, &mut out).unwrap();
                assert_eq!(out, scalar_out, "affine {kernel:?} lanes={lanes}");
                let mut mul = Panel::zeros(n, lanes);
                a.mul_panel_into_with(kernel, &x, &mut mul).unwrap();
                assert_eq!(mul, scalar_mul, "mul {kernel:?} lanes={lanes}");
            }
        }
    }

    #[test]
    fn kernels_reject_mismatched_shapes() {
        let a = Matrix::zeros(3, 3);
        let x = Panel::zeros(4, 2);
        let mut out = Panel::zeros(3, 2);
        assert!(a.mul_panel_into(&x, &mut out).is_err());
        let x = Panel::zeros(3, 2);
        let mut bad_out = Panel::zeros(3, 4);
        assert!(a.mul_panel_into(&x, &mut bad_out).is_err());

        let b = Matrix::zeros(3, 2);
        let y = Panel::zeros(3, 2);
        assert!(affine_pair_apply(&a, &b, &[0.0; 3], &x, &y, &mut out).is_err());
        let b = Matrix::zeros(3, 3);
        assert!(affine_pair_apply(&a, &b, &[0.0; 2], &x, &y, &mut out).is_err());
        let y_bad = Panel::zeros(3, 3);
        assert!(affine_pair_apply(&a, &b, &[0.0; 3], &x, &y_bad, &mut out).is_err());

        let bias = Panel::zeros(3, 2);
        assert!(affine_panel_bias_apply(&a, &b, &bias, &x, &y, &mut out).is_ok());
        assert!(affine_panel_bias_apply(&a, &b, &Panel::zeros(3, 3), &x, &y, &mut out).is_err());
        let coef = Panel::zeros(9, 2);
        assert!(gathered_affine_apply(&coef, &coef, &bias, &x, &y, &mut out).is_ok());
        let short = Panel::zeros(6, 2);
        assert!(gathered_affine_apply(&short, &coef, &bias, &x, &y, &mut out).is_err());
        assert!(gathered_affine_apply(&coef, &coef, &bias, &x, &y_bad, &mut out).is_err());
        assert!(gathered_affine_apply(&coef, &coef, &bias, &x, &y, &mut bad_out).is_err());
    }

    /// Per-lane `m × n` matrices gathered into an `(m·n) × lanes` panel:
    /// lane `l`'s matrix is `test_matrix`-like with a lane-dependent seed.
    fn gathered_panel(m: usize, n: usize, lanes: usize, scale: f64) -> Panel {
        let mut p = Panel::zeros(m * n, lanes);
        for lane in 0..lanes {
            for i in 0..m {
                for j in 0..n {
                    let v = ((i * n + j + 7 * lane) as f64).sin() * scale
                        + if i == j { 0.9 } else { 0.0 };
                    p.set(i * n + j, lane, v);
                }
            }
        }
        p
    }

    fn input_panel(rows: usize, lanes: usize, base: f64, step: f64) -> Panel {
        let mut p = Panel::zeros(rows, lanes);
        for lane in 0..lanes {
            for i in 0..rows {
                p.set(i, lane, base + ((lane * 3 + i) % 11) as f64 * step);
            }
        }
        p
    }

    #[test]
    fn gathered_affine_matches_per_lane_scalar_reference_bitwise() {
        // Ragged widths around LANE_CHUNK, square (the plant's 8×8) and
        // non-square shapes: every lane must equal the scalar bias-then-j
        // `madd2` recurrence over its own matrices, to the bit.
        for (m, n) in [(8, 8), (3, 5)] {
            for lanes in [1, 3, 8, 9, 17] {
                let r = gathered_panel(m, n, lanes, 0.2);
                let s = gathered_panel(m, n, lanes, 0.05);
                let bias = input_panel(m, lanes, 0.01, 0.003);
                let x = input_panel(n, lanes, 50.0, 0.37);
                let y = input_panel(n, lanes, 0.5, 0.011);
                let mut out = Panel::zeros(m, lanes);
                gathered_affine_apply(&r, &s, &bias, &x, &y, &mut out).unwrap();
                for lane in 0..lanes {
                    for i in 0..m {
                        let mut acc = bias.get(i, lane);
                        for j in 0..n {
                            acc = crate::simd::madd2(
                                r.get(i * n + j, lane),
                                x.get(j, lane),
                                s.get(i * n + j, lane),
                                y.get(j, lane),
                                acc,
                            );
                        }
                        assert_eq!(
                            out.get(i, lane).to_bits(),
                            acc.to_bits(),
                            "m={m} n={n} lanes={lanes} lane={lane} row={i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gathered_affine_matches_every_bias_panel_arm_on_shared_matrices() {
        // With every lane carrying the same matrices, the gathered kernel
        // must reproduce the shared-matrix bias-panel kernel on every arm
        // that kernel dispatches to, so a batch can switch between the two
        // paths from one interval to the next without moving a bit.
        let n = 8;
        let a = test_matrix(n, 0.2);
        let b = test_matrix(n, 0.05);
        for lanes in [1, 3, 8, 9, 17] {
            let mut r = Panel::zeros(n * n, lanes);
            let mut s = Panel::zeros(n * n, lanes);
            for lane in 0..lanes {
                for k in 0..n * n {
                    r.set(k, lane, a.as_slice()[k]);
                    s.set(k, lane, b.as_slice()[k]);
                }
            }
            let bias = input_panel(n, lanes, 0.01, 0.003);
            let x = input_panel(n, lanes, 50.0, 0.37);
            let y = input_panel(n, lanes, 0.5, 0.011);
            let mut gathered = Panel::zeros(n, lanes);
            gathered_affine_apply(&r, &s, &bias, &x, &y, &mut gathered).unwrap();
            let mut shared = Panel::zeros(n, lanes);
            affine_panel_bias_apply(&a, &b, &bias, &x, &y, &mut shared).unwrap();
            assert_eq!(gathered, shared, "active arm lanes={lanes}");
            for kernel in [PanelKernel::Scalar, PanelKernel::Avx2Fma, PanelKernel::Neon] {
                let mut out = Panel::zeros(n, lanes);
                affine_panel_bias_apply_with(kernel, &a, &b, &bias, &x, &y, &mut out).unwrap();
                assert_eq!(gathered, out, "{kernel:?} lanes={lanes}");
            }
        }
    }
}
