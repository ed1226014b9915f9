//! # slb-core
//!
//! Finite-regime stochastic delay bounds for the **SQ(d)** randomized
//! load-balancing policy — a Rust implementation of *Godtschalk & Ciucu,
//! "Randomized Load Balancing in Finite Regimes", ICDCS 2016*.
//!
//! ## The model
//!
//! `N` parallel FIFO servers with exponential(µ = 1) service; jobs arrive
//! Poisson with total rate `λN`; each arrival polls `d` servers uniformly
//! without replacement and joins the shortest polled queue ([`Sqd`]).
//! `d = 1` is uniform random routing (N independent M/M/1 queues);
//! `d = N` is join-the-shortest-queue (JSQ).
//!
//! The classical analysis of this policy (Mitzenmacher; Vvedenskaya et
//! al.) is **asymptotic** in `N` ([`asymptotic`], Eq. 16 of the paper).
//! This crate computes **non-asymptotic bounds** valid at any finite `N`:
//! two threshold-truncated Markov models — built by redirecting the
//! transitions that would let the longest/shortest queue differ by more
//! than `T` jobs — sandwich the true mean delay from below and above
//! ([`BoundModel`], [`Sqd::lower_bound`], [`Sqd::upper_bound`]). The
//! truncated chains are quasi-birth-death processes solved by the
//! matrix-geometric machinery of `slb-qbd`; the lower-bound model
//! additionally admits the scalar-tail shortcut `π_{q+1} = ρᴺ π_q`
//! (Theorem 3), implemented in [`Sqd::lower_bound`] and cross-checked by
//! [`Sqd::lower_bound_full_r`].
//!
//! A brute-force truncated-CTMC solver ([`brute`]) provides ground truth
//! for small systems, and [`sigma`] implements the Theorem-2 root `σ` for
//! renewal (non-Poisson) arrival processes. Beyond the paper's mean
//! delays, [`delay_dist`] derives the full sojourn-time distribution of
//! each model as a mixture of Erlangs, giving percentile bounds
//! ([`Sqd::delay_distribution`]).
//!
//! ## Quickstart
//!
//! ```
//! use slb_core::Sqd;
//!
//! # fn main() -> Result<(), slb_core::CoreError> {
//! let sqd = Sqd::new(3, 2, 0.7)?; // N = 3 servers, d = 2 choices, λ = 0.7
//! let lb = sqd.lower_bound(3)?;   // threshold T = 3
//! let ub = sqd.upper_bound(3)?;
//! let approx = sqd.asymptotic_delay();
//! assert!(lb.delay <= ub.delay);
//! // The asymptotic formula underestimates the true delay at small N:
//! assert!(approx < ub.delay);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asymptotic;
pub mod brute;
pub mod combinatorics;
pub mod delay_dist;
pub mod meanfield;
pub mod occupancy;
pub mod precedence;
pub mod sigma;
pub mod transient;

mod bounds;
mod error;
mod state;
mod transitions;

pub use bounds::{BoundKind, BoundModel, BoundResult, Sqd};
pub use delay_dist::DelayDistribution;
pub use error::CoreError;
pub use occupancy::{LumpedModel, OccLocation, OccupancySpace};
pub use state::{Group, State};
pub use transitions::{transitions, transitions_with_mode, ModelVariant, PollMode, Transition};

/// Convenience result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
