//! Transient (time-dependent) analysis of the finite-`N` SQ(d) chain.
//!
//! The paper — like most of the power-of-d literature — studies the
//! stationary regime. This module computes the *time-dependent* state
//! distribution of the exact (truncated) SQ(d) chain by uniformization,
//! answering questions the stationary bounds cannot: how long after a
//! cold start (or a load spike) do the stationary numbers become
//! trustworthy, and how does that warm-up horizon scale with load?
//! Together with [`crate::meanfield`] this quantifies both rungs of the
//! ladder: the `N = ∞` fluid transient and the finite-`N` stochastic
//! transient it approximates.

use slb_linalg::{null_vector_gs, GsOptions};
use slb_markov::{Ctmc, MarkovError};

use crate::{transitions_with_mode, CoreError, ModelVariant, PollMode, Result, State};

/// Transient solver for the exact SQ(d) chain, truncated at `m1 ≤ cap`.
///
/// # Example
///
/// ```
/// use slb_core::transient::TransientSqd;
///
/// # fn main() -> Result<(), slb_core::CoreError> {
/// let tr = TransientSqd::new(3, 2, 0.7, 12)?;
/// // From empty, the mean job count climbs toward its stationary value.
/// let early = tr.mean_jobs_at(0.5)?;
/// let late = tr.mean_jobs_at(120.0)?;
/// assert!(early < late);
/// assert!((late - tr.stationary_mean_jobs()).abs() < 1e-4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TransientSqd {
    ctmc: Ctmc,
    states: Vec<State>,
    stationary: Vec<f64>,
    n: usize,
    lambda: f64,
}

impl TransientSqd {
    /// Builds the truncated chain (all sorted states with `m1 ≤ cap`).
    ///
    /// The dense uniformization underneath limits practical sizes to a
    /// few thousand states — ample for the small-`N` regimes the paper
    /// targets (`C(N+cap, N)` states).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameters`] for invalid `(N, d, λ, cap)`;
    /// solver errors from the stationary cross-check.
    pub fn new(n: usize, d: usize, lambda: f64, cap: u32) -> Result<Self> {
        if n == 0 || !(1..=n).contains(&d) {
            return Err(CoreError::InvalidParameters {
                reason: format!("need 1 <= d <= N, got d = {d}, N = {n}"),
            });
        }
        if !(lambda > 0.0 && lambda < 1.0) {
            return Err(CoreError::InvalidParameters {
                reason: format!("need 0 < lambda < 1, got {lambda}"),
            });
        }
        if cap < 2 {
            return Err(CoreError::InvalidParameters {
                reason: "cap must be at least 2".into(),
            });
        }

        let states = enumerate_capped(n, cap);
        let index: std::collections::HashMap<&State, usize> =
            states.iter().enumerate().map(|(i, s)| (s, i)).collect();

        let mut q = slb_linalg::Matrix::zeros(states.len(), states.len());
        for (i, s) in states.iter().enumerate() {
            let mut outflow = 0.0;
            for tr in transitions_with_mode(
                s,
                d,
                lambda,
                ModelVariant::Base,
                PollMode::WithoutReplacement,
            ) {
                if tr.target.level(0) > cap {
                    continue; // truncation
                }
                let j = index[&tr.target];
                outflow += tr.rate;
                q[(i, j)] += tr.rate;
            }
            q[(i, i)] -= outflow;
        }
        let ctmc = Ctmc::from_generator(q)?;
        // Equal job totals as classes: every transition moves the total
        // by one, so the coarse chain is tridiagonal.
        let classes: Vec<u32> = states.iter().map(State::total).collect();
        let stationary = null_vector_gs(
            &ctmc.sparse_generator().transpose(),
            &vec![1.0; states.len()],
            &GsOptions {
                tol: 1e-13,
                classes: Some(&classes),
                ..GsOptions::default()
            },
        )
        .map_err(MarkovError::from)?
        .x;

        Ok(TransientSqd {
            ctmc,
            states,
            stationary,
            n,
            lambda,
        })
    }

    /// Number of states in the truncated chain.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// The stationary mean number of jobs (truncated chain).
    pub fn stationary_mean_jobs(&self) -> f64 {
        self.states
            .iter()
            .zip(&self.stationary)
            .map(|(s, &p)| p * f64::from(s.total()))
            .sum()
    }

    /// The stationary mean delay via Little's law.
    pub fn stationary_mean_delay(&self) -> f64 {
        self.stationary_mean_jobs() / (self.lambda * self.n as f64)
    }

    /// State distribution at time `t`, starting from the empty system.
    ///
    /// # Errors
    ///
    /// Propagates uniformization failures.
    pub fn distribution_at(&self, t: f64) -> Result<Vec<f64>> {
        let mut initial = vec![0.0; self.states.len()];
        // The all-zero state sorts first in the enumeration only by
        // construction of `enumerate_capped`; locate it robustly.
        let empty = State::empty(self.n);
        let idx = self
            .states
            .iter()
            .position(|s| *s == empty)
            .expect("empty state is enumerated");
        initial[idx] = 1.0;
        Ok(self.ctmc.transient(&initial, t)?)
    }

    /// Mean number of jobs at time `t` (empty start).
    ///
    /// # Errors
    ///
    /// As [`TransientSqd::distribution_at`].
    pub fn mean_jobs_at(&self, t: f64) -> Result<f64> {
        let p = self.distribution_at(t)?;
        Ok(self
            .states
            .iter()
            .zip(&p)
            .map(|(s, &pr)| pr * f64::from(s.total()))
            .sum())
    }

    /// Total-variation distance between the time-`t` law (empty start)
    /// and the stationary law.
    ///
    /// # Errors
    ///
    /// As [`TransientSqd::distribution_at`].
    pub fn tv_distance_at(&self, t: f64) -> Result<f64> {
        let p = self.distribution_at(t)?;
        Ok(0.5
            * p.iter()
                .zip(&self.stationary)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>())
    }

    /// The smallest time (on a doubling-then-bisecting grid, absolute
    /// accuracy `0.01·t`) at which the TV distance from stationarity
    /// drops below `eps` — the finite-`N` warm-up horizon.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameters`] if `t_max` is reached first.
    ///
    /// # Panics
    ///
    /// Panics unless `eps ∈ (0, 1)`.
    pub fn relaxation_time(&self, eps: f64, t_max: f64) -> Result<f64> {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0, 1)");
        // TV from stationarity is nonincreasing in t (Markov semigroup
        // contraction), so bracketing + bisection is sound.
        let mut hi = 1.0;
        while self.tv_distance_at(hi)? > eps {
            hi *= 2.0;
            if hi > t_max {
                return Err(CoreError::InvalidParameters {
                    reason: format!("no relaxation below {eps} within {t_max}"),
                });
            }
        }
        let mut lo = hi / 2.0;
        if hi <= 1.0 {
            lo = 0.0;
        }
        while hi - lo > 0.01 * hi.max(1.0) {
            let mid = 0.5 * (lo + hi);
            if self.tv_distance_at(mid)? > eps {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(hi)
    }
}

/// All sorted states on `n` servers with `m1 ≤ cap`.
fn enumerate_capped(n: usize, cap: u32) -> Vec<State> {
    let mut out = Vec::new();
    let mut cur = vec![0u32; n];
    fn rec(cur: &mut Vec<u32>, pos: usize, max: u32, out: &mut Vec<State>) {
        if pos == cur.len() {
            out.push(State::new(cur.clone()).expect("sorted by construction"));
            return;
        }
        for v in (0..=max).rev() {
            cur[pos] = v;
            rec(cur, pos + 1, v, out);
        }
    }
    rec(&mut cur, 0, cap, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_validation() {
        assert!(TransientSqd::new(0, 1, 0.5, 10).is_err());
        assert!(TransientSqd::new(3, 4, 0.5, 10).is_err());
        assert!(TransientSqd::new(3, 2, 1.0, 10).is_err());
        assert!(TransientSqd::new(3, 2, 0.5, 1).is_err());
    }

    #[test]
    fn starts_empty_and_converges_to_stationary() {
        let tr = TransientSqd::new(3, 2, 0.6, 14).unwrap();
        assert!(tr.mean_jobs_at(0.0).unwrap() < 1e-12);
        assert!(tr.tv_distance_at(0.0).unwrap() > 0.3);
        // Two independent solvers meet here: aggregated Gauss–Seidel at
        // scaled residual 1e-13 and uniformization with its own series
        // truncation.
        let late = tr.mean_jobs_at(120.0).unwrap();
        assert!(
            (late - tr.stationary_mean_jobs()).abs() < 1e-5,
            "{late} vs {}",
            tr.stationary_mean_jobs()
        );
        assert!(tr.tv_distance_at(120.0).unwrap() < 1e-5);
    }

    #[test]
    fn small_time_growth_is_arrival_rate() {
        // E[jobs](dt) = λN·dt + O(dt²) from an empty start.
        let (n, lam) = (3usize, 0.7f64);
        let tr = TransientSqd::new(n, 2, lam, 10).unwrap();
        let dt = 1e-3;
        let got = tr.mean_jobs_at(dt).unwrap();
        let want = lam * n as f64 * dt;
        assert!((got - want).abs() < 1e-5, "{got} vs {want}");
    }

    #[test]
    fn tv_distance_monotone_and_relaxation_bracketed() {
        let tr = TransientSqd::new(3, 2, 0.7, 14).unwrap();
        let mut prev = 1.0;
        for i in 0..=10 {
            let tv = tr.tv_distance_at(i as f64 * 2.0).unwrap();
            assert!(tv <= prev + 1e-9, "TV not contracting at {i}");
            prev = tv;
        }
        let t = tr.relaxation_time(1e-3, 10_000.0).unwrap();
        assert!(tr.tv_distance_at(t).unwrap() <= 1e-3);
        assert!(tr.tv_distance_at(0.5 * t).unwrap() > 1e-3 * 0.5);
    }

    #[test]
    fn relaxation_grows_with_load() {
        let relax = |lam: f64| {
            TransientSqd::new(3, 2, lam, 12)
                .unwrap()
                .relaxation_time(1e-3, 100_000.0)
                .unwrap()
        };
        let fast = relax(0.5);
        let slow = relax(0.9);
        assert!(slow > 2.0 * fast, "{slow} vs {fast}");
    }

    #[test]
    fn stationary_matches_brute_force() {
        let (n, d, lam, cap) = (3usize, 2usize, 0.65f64, 16u32);
        let tr = TransientSqd::new(n, d, lam, cap).unwrap();
        let bf = crate::brute::BruteForce::solve(n, d, lam, cap).unwrap();
        assert!(
            (tr.stationary_mean_delay() - bf.mean_delay()).abs() < 1e-8,
            "{} vs {}",
            tr.stationary_mean_delay(),
            bf.mean_delay()
        );
    }

    #[test]
    fn mean_jobs_trajectory_monotone_from_empty() {
        // From an empty start of this monotone queueing network the mean
        // job count climbs toward its stationary value without
        // overshooting.
        let tr = TransientSqd::new(3, 2, 0.8, 12).unwrap();
        let stat = tr.stationary_mean_jobs();
        let mut prev = 0.0;
        for i in 1..=25 {
            let m = tr.mean_jobs_at(i as f64 * 1.5).unwrap();
            assert!(m >= prev - 1e-9, "dip at step {i}: {m} < {prev}");
            assert!(m <= stat + 1e-9, "overshoot at step {i}");
            prev = m;
        }
    }
}
