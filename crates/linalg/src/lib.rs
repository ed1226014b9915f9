//! # slb-linalg
//!
//! Self-contained dense and sparse linear algebra for matrix-geometric
//! queueing analysis.
//!
//! This crate provides exactly the numeric substrate needed by the
//! quasi-birth-death (QBD) machinery in `slb-qbd`, the Markov solvers in
//! `slb-markov` and the bound models in `slb-core`: a dense row-major
//! [`Matrix`] of `f64`, LU decomposition with partial pivoting ([`Lu`]),
//! linear solves, inverses, determinants, norms, spectral utilities, and a
//! compressed-sparse-row [`CsrMatrix`] (with its [`CooBuilder`]) that the
//! whole solver stack shares for large, structurally sparse generators.
//! It also hosts the cooperative-cancellation primitives ([`Budget`],
//! [`CancelToken`]) every iterative solve above it polls, so the whole
//! stack shares one interruption vocabulary. Its only dependency is the
//! workspace's vendored `slb-fault` fail-point registry (free when
//! disarmed), which those primitives use for chaos injection.
//!
//! The matrix-geometric method of Neuts repeatedly forms expressions such
//! as `(−A1)⁻¹ A0`, `R = −A0 (A1 + A0 G)⁻¹` and `(I − R)⁻¹ e`; all of them
//! reduce to the LU solve implemented here.
//!
//! ## Example
//!
//! ```
//! use slb_linalg::Matrix;
//!
//! # fn main() -> Result<(), slb_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[2.0, 3.0]])?;
//! let b = vec![1.0, 2.0];
//! let x = a.solve_vec(&b)?;
//! let r = a.mat_vec(&x);
//! assert!((r[0] - 1.0).abs() < 1e-12 && (r[1] - 2.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod error;
mod gs;
mod lu;
mod matrix;
mod ops;
mod sparse;
mod spectral;
pub mod vector;
mod workspace;

pub use budget::{Budget, CancelToken};
pub use error::LinalgError;
pub use gs::{null_vector_gs, GsOptions, NullVector};
pub use lu::Lu;
pub use matrix::Matrix;
pub use sparse::{CooBuilder, CsrMatrix};
pub use spectral::{power_iteration, LinearOperator, PowerIteration};
pub use workspace::Workspace;

/// Convenience result alias for fallible linear-algebra operations.
pub type Result<T> = std::result::Result<T, LinalgError>;
