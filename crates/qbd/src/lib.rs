//! # slb-qbd
//!
//! Solver for level-independent **quasi-birth-death (QBD) processes** with
//! a finite boundary block — the matrix-geometric machinery of Neuts used
//! in Section IV of *Godtschalk & Ciucu, ICDCS 2016* to evaluate the
//! SQ(d) lower- and upper-bound models.
//!
//! A QBD here is a CTMC whose generator has the block-tridiagonal form
//!
//! ```text
//!     ⎡ R00  R01   0    0   … ⎤
//!     ⎢ R10  A1   A0    0   … ⎥
//! Q = ⎢  0   A2   A1   A0   … ⎥
//!     ⎢  0    0   A2   A1   … ⎥
//!     ⎣  …    …    …    …   … ⎦
//! ```
//!
//! with a boundary block of `nb` states and repeating levels of `m` states.
//! The crate provides:
//!
//! * [`QbdBlocks`] — validated container for `(R00, R01, R10, A0, A1, A2)`.
//! * [`logarithmic_reduction`] — the Latouche–Ramaswami algorithm for the
//!   first-passage matrix `G` (`A2 + A1·G + A0·G² = 0`), plus
//!   [`functional_iteration`] as a slow cross-check; both report iteration
//!   counts (the paper observes convergence "within k = 6").
//! * [`rate_matrix`] — `R = −A0 (A1 + A0 G)⁻¹` (`A0 + R·A1 + R²·A2 = 0`).
//! * [`QbdBlocks::is_stable`] — Neuts' mean-drift condition
//!   `π A0 e < π A2 e`.
//! * [`QbdStationary`] — the stationary distribution `(π_b, π_0, π_1)` with
//!   geometric tail `π_{q+1} = π_q R` (Theorem 1) or scalar tail
//!   `π_{q+1} = β π_q` (Theorems 2–3), and linear-cost expectations over
//!   the infinite state space.
//!
//! ## Example: M/M/1 as the trivial QBD
//!
//! ```
//! use slb_linalg::Matrix;
//! use slb_qbd::QbdBlocks;
//!
//! # fn main() -> Result<(), slb_qbd::QbdError> {
//! let (lam, mu) = (0.6, 1.0);
//! let blocks = QbdBlocks::new(
//!     Matrix::from_vec(1, 1, vec![-lam]).unwrap(),        // R00
//!     Matrix::from_vec(1, 1, vec![lam]).unwrap(),         // R01
//!     Matrix::from_vec(1, 1, vec![mu]).unwrap(),          // R10
//!     Matrix::from_vec(1, 1, vec![lam]).unwrap(),         // A0
//!     Matrix::from_vec(1, 1, vec![-(lam + mu)]).unwrap(), // A1
//!     Matrix::from_vec(1, 1, vec![mu]).unwrap(),          // A2
//! )?;
//! let sol = blocks.solve()?;
//! // Geometric queue: π_q = (1 − ρ) ρ^q for levels q ≥ 0 beyond boundary.
//! let rho: f64 = lam / mu;
//! assert!((sol.level_prob(0)[0] - (1.0 - rho) * rho).abs() < 1e-10);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blocks;
mod cr;
mod error;
mod logred;
mod lumped;
pub mod models;
mod stationary;

pub use blocks::QbdBlocks;
pub use cr::{cyclic_reduction, decay_rate, u_based_iteration};
pub use error::QbdError;
pub use logred::{
    functional_iteration, logarithmic_reduction, logarithmic_reduction_in, rate_matrix,
    GComputation,
};
pub use lumped::{SparseQbdBlocks, SparseSolveOptions, TruncatedStationary};
pub use stationary::{QbdStationary, Tail};

/// Convenience result alias for fallible QBD operations.
pub type Result<T> = std::result::Result<T, QbdError>;
