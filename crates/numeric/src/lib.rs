//! Small, dependency-free numerical substrate for the DTPM reproduction.
//!
//! The paper's methodology relies on three numerical building blocks that are
//! normally delegated to MATLAB:
//!
//! * dense linear algebra for the discrete thermal state-space model
//!   `T[k+1] = As·T[k] + Bs·P[k]` ([`Matrix`], [`Vector`]),
//! * linear least squares for system identification of `As` and `Bs`
//!   ([`lstsq`](mod@lstsq)),
//! * nonlinear least squares for fitting the leakage model
//!   `I_leak = c1·T²·e^(c2/T) + I_gate` to furnace measurements ([`fit`]).
//!
//! On top of those, [`stats`] provides the descriptive statistics used by the
//! evaluation (variance, max–min spread, RMSE, MAPE, fit percentage) and
//! [`interp`] provides the table interpolation used by voltage/frequency maps.
//!
//! For batched scenario evaluation, [`panel`] adds the structure-of-arrays
//! [`Panel`] (one scenario per column, [`PANEL_ALIGN`]-byte-aligned storage)
//! and the blocked matrix–panel kernels ([`Matrix::mul_panel_into`],
//! [`affine_pair_apply`]) that advance many scenarios per instruction stream
//! with each matrix loaded once per step.
//!
//! # Kernel dispatch
//!
//! The panel kernels run through an explicit SIMD backend ([`simd`]):
//!
//! * **Selection** happens once per process. [`PanelKernel::active`] probes
//!   the host at first use (`is_x86_feature_detected!("avx2")` on x86-64,
//!   `is_aarch64_feature_detected!("neon")` on ARM) and caches the widest
//!   available arm — AVX2 (4 f64 per vector), NEON (2 f64), or the portable
//!   blocked scalar code.
//! * **Override for testing**: set [`KERNEL_ENV`] (`DTPM_PANEL_KERNEL`) to
//!   `scalar`, `avx2`, `neon` or `auto`. Naming an arm the host cannot run
//!   panics rather than silently degrading. Each kernel entry point also has
//!   a `*_with` form taking an explicit [`PanelKernel`] so equivalence suites
//!   and benchmarks can compare arms inside one process.
//! * **Bit-identical by default**: every arm performs the same per-lane
//!   sequence of IEEE-754 multiplies and adds, so in the default build a
//!   lane's result is bit-for-bit independent of the arm that produced it —
//!   the scalar-vs-batched equivalence suites double as the SIMD oracle.
//! * **`fma` feature**: opts into fused multiply-add in *all* arms (scalar
//!   code via [`f64::mul_add`]), which keeps the arms bit-identical to each
//!   other but relaxes the contract against unfused reference expressions to
//!   the documented ≤ 1e-12 °C simulation-level bound.
//!
//! # Example
//!
//! ```
//! use numeric::{Matrix, Vector};
//!
//! # fn main() -> Result<(), numeric::NumericError> {
//! // Solve a small linear system A x = b.
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let b = Vector::from_slice(&[1.0, 2.0]);
//! let x = a.solve(&b)?;
//! assert!((a.mul_vector(&x)? - b).norm() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod aligned;
pub mod codec;
pub mod fit;
pub mod interp;
pub mod lstsq;
pub mod matrix;
pub mod panel;
pub mod simd;
pub mod solve;
pub mod stats;

mod error;

pub use aligned::PANEL_ALIGN;
pub use codec::{crc32, ByteReader, ByteWriter, CodecError};
pub use error::NumericError;
pub use fit::{levenberg_marquardt, FitOptions, FitReport};
pub use interp::{interp1, Table1d};
pub use lstsq::{lstsq, ridge_lstsq};
pub use matrix::{Matrix, Vector};
pub use panel::{
    affine_pair_apply, affine_pair_apply_with, affine_panel_bias_apply,
    affine_panel_bias_apply_with, gathered_affine_apply, Panel, LANE_CHUNK,
};
pub use simd::{fused_mul_add_span, fused_mul_add_span_with, PanelKernel, KERNEL_ENV};
pub use solve::LuDecomposition;
pub use stats::{Summary, Welford};
