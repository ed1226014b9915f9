//! # slb-markov
//!
//! Finite Markov-chain toolkit: continuous- and discrete-time chains,
//! numerically stable stationary solvers, and closed-form birth–death /
//! M/M/c analytics.
//!
//! This crate supplies the "classical" queueing substrate that the finite-
//! regime SQ(d) analysis is checked against:
//!
//! * [`Ctmc`] / [`Dtmc`] — dense generator / stochastic-matrix chains with
//!   validation and stationary solves via the Grassmann–Taksar–Heyman
//!   (GTH) elimination, which involves no subtractions and is therefore
//!   immune to the cancellation that plagues naive `πQ = 0` solves.
//! * Sparse chains too large for dense `O(n³)` elimination (the
//!   brute-force SQ(d) ground truth) are assembled by their callers as a
//!   transposed [`slb_linalg::CsrMatrix`] and solved by
//!   [`slb_linalg::null_vector_gs`], the workspace's one sparse
//!   stationary solver; GTH stays the direct solver and the oracle its
//!   tests compare against.
//! * [`birth_death`] — birth–death chains and the exact M/M/1, M/M/c and
//!   M/M/1/K formulas (Erlang C and friends) used as oracles in tests and
//!   as the `d = 1` special case of SQ(d).
//!
//! ## Example: M/M/1 as a CTMC vs the closed form
//!
//! ```
//! use slb_markov::{birth_death, Ctmc};
//!
//! # fn main() -> Result<(), slb_markov::MarkovError> {
//! // Truncated M/M/1 with λ = 0.5, µ = 1 on {0, …, 60}.
//! let n = 61;
//! let mut q = vec![vec![0.0; n]; n];
//! for i in 0..n - 1 {
//!     q[i][i + 1] = 0.5;
//!     q[i + 1][i] = 1.0;
//! }
//! let ctmc = Ctmc::from_rates(&q)?;
//! let pi = ctmc.stationary()?;
//! let exact = birth_death::mm1_queue_length_pmf(0.5, 10);
//! assert!((pi[3] - exact[3]).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod birth_death;
mod ctmc;
mod dtmc;
mod error;
mod gth;
mod map;
mod phase_type;

pub use ctmc::Ctmc;
pub use dtmc::Dtmc;
pub use error::MarkovError;
pub use gth::gth_stationary;
pub use map::Map;
pub use phase_type::PhaseType;

/// Convenience result alias for fallible Markov-chain operations.
pub type Result<T> = std::result::Result<T, MarkovError>;
