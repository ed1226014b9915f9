//! Brute-force ground truth: the exact SQ(d) chain, truncated at a queue
//! cap, solved as a sparse CTMC.
//!
//! The untransformed SQ(d) Markov process has the "irregular" generator
//! the paper says makes exact analysis intractable *at scale* — but for
//! small `N` it can simply be enumerated and solved. This module does
//! exactly that and serves as the oracle against which the lower/upper
//! bound models are validated: for every test configuration,
//! `lower ≤ brute force ≤ upper` must hold.
//!
//! Truncation: arrivals that would push a queue past `cap` are dropped.
//! With `cap` chosen so that `P(m1 ≥ cap)` is negligible (the stationary
//! tail decays at least geometrically with ratio λ), the bias is far below
//! the tolerances used in tests; [`BruteForce::truncation_mass`] exposes
//! the actual mass on the capped layer so callers can check.

use std::collections::HashMap;

use slb_linalg::{null_vector_gs, CooBuilder, GsOptions};
use slb_markov::MarkovError;

use crate::{transitions_with_mode, CoreError, ModelVariant, PollMode, Result, State};

/// Exact (truncated) SQ(d) solver for small systems.
///
/// # Example
///
/// ```
/// use slb_core::brute::BruteForce;
///
/// # fn main() -> Result<(), slb_core::CoreError> {
/// // d = 1 decomposes into independent M/M/1 queues: E[Delay] = 1/(1−λ).
/// let bf = BruteForce::solve(2, 1, 0.5, 25)?;
/// assert!((bf.mean_delay() - 2.0).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BruteForce {
    n: usize,
    d: usize,
    lambda: f64,
    mode: PollMode,
    states: Vec<State>,
    pi: Vec<f64>,
    index: HashMap<State, usize>,
    cap: u32,
}

impl BruteForce {
    /// Enumerates all sorted states with `m1 ≤ cap` and solves the SQ(d)
    /// chain restricted to them.
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidParameters`] for `n == 0`, `d ∉ 1..=n`,
    ///   `λ ∉ (0, 1)` or `cap < 2`.
    /// * [`CoreError::Markov`] if the sparse stationary solve fails.
    pub fn solve(n: usize, d: usize, lambda: f64, cap: u32) -> Result<Self> {
        BruteForce::solve_with_mode(n, d, lambda, cap, PollMode::WithoutReplacement)
    }

    /// As [`BruteForce::solve`], with an explicit polling mode.
    ///
    /// # Errors
    ///
    /// As [`BruteForce::solve`].
    pub fn solve_with_mode(
        n: usize,
        d: usize,
        lambda: f64,
        cap: u32,
        mode: PollMode,
    ) -> Result<Self> {
        let d_ok = match mode {
            PollMode::WithoutReplacement => (1..=n).contains(&d),
            PollMode::WithReplacement => d >= 1,
        };
        if n == 0 || !d_ok {
            return Err(CoreError::InvalidParameters {
                reason: format!("need valid d for N = {n} under {mode:?}, got d = {d}"),
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
        let index: HashMap<State, usize> = states
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), i))
            .collect();

        // Assemble the transposed truncated generator `Qᵀ` directly in
        // the shared CSR kernel: off-diagonal rates plus the matching
        // -outflow diagonal, row `j` listing the inflows of state `j`.
        let to_core = |e: slb_linalg::LinalgError| CoreError::InvalidParameters {
            reason: format!("generator assembly failed: {e}"),
        };
        let mut coo = CooBuilder::new(states.len(), states.len());
        for (i, s) in states.iter().enumerate() {
            let mut outflow = 0.0;
            for tr in transitions_with_mode(s, d, lambda, ModelVariant::Base, mode) {
                if tr.target.level(0) > cap {
                    continue; // truncation: drop arrivals past the cap
                }
                let j = index[&tr.target];
                if j != i {
                    coo.add(j, i, tr.rate).map_err(to_core)?;
                    outflow += tr.rate;
                }
            }
            coo.add(i, i, -outflow).map_err(to_core)?;
        }
        // Every transition moves the job total by one, so classes of
        // equal total make a tridiagonal coarse chain.
        let classes: Vec<u32> = states.iter().map(State::total).collect();
        let pi = null_vector_gs(
            &coo.build(),
            &vec![1.0; states.len()],
            &GsOptions {
                tol: 1e-13,
                classes: Some(&classes),
                ..GsOptions::default()
            },
        )
        .map_err(MarkovError::from)?
        .x;

        Ok(BruteForce {
            n,
            d,
            lambda,
            mode,
            states,
            pi,
            index,
            cap,
        })
    }

    /// Number of enumerated states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Stationary probability of a state (0 if outside the truncation).
    pub fn prob(&self, state: &State) -> f64 {
        self.index.get(state).map_or(0.0, |&i| self.pi[i])
    }

    /// Mean number of jobs in the system.
    pub fn mean_jobs(&self) -> f64 {
        self.states
            .iter()
            .zip(&self.pi)
            .map(|(s, &p)| p * f64::from(s.total()))
            .sum()
    }

    /// Mean number of *waiting* jobs.
    pub fn mean_waiting(&self) -> f64 {
        self.states
            .iter()
            .zip(&self.pi)
            .map(|(s, &p)| p * f64::from(s.waiting()))
            .sum()
    }

    /// Mean sojourn time (delay including service) via Little's law,
    /// `E[T] = E[L] / (λN)`.
    pub fn mean_delay(&self) -> f64 {
        self.mean_jobs() / (self.lambda * self.n as f64)
    }

    /// Stationary probability mass on states with `m1 = cap` — an upper
    /// proxy for the truncation bias. Keep this below ~1e-10 by raising
    /// `cap` when using the result as an oracle.
    pub fn truncation_mass(&self) -> f64 {
        self.states
            .iter()
            .zip(&self.pi)
            .filter(|(s, _)| s.level(0) == self.cap)
            .map(|(_, &p)| p)
            .sum()
    }

    /// Stationary fraction of servers holding at least `k` jobs, for
    /// `k = 0..=k_max` — the finite-`N` analogue of the asymptotic tail
    /// fractions `s_k = λ^{(dᵏ−1)/(d−1)}`.
    pub fn queue_tail_fractions(&self, k_max: u32) -> Vec<f64> {
        let mut tails = vec![0.0; k_max as usize + 1];
        for (s, &p) in self.states.iter().zip(&self.pi) {
            for (k, t) in tails.iter_mut().enumerate() {
                let frac =
                    s.as_slice().iter().filter(|&&x| x >= k as u32).count() as f64 / self.n as f64;
                *t += p * frac;
            }
        }
        tails
    }

    /// The exact sojourn-time distribution of the (truncated) SQ(d)
    /// chain: by PASTA the tagged arrival sees `π`, joins a server with
    /// `k` jobs with the SQ(d) polling probability, and then experiences
    /// an `Erlang(k+1, 1)` sojourn (see [`crate::delay_dist`]).
    ///
    /// # Errors
    ///
    /// Propagates weight validation failures (possible only if the
    /// truncation mass is large enough to distort the mixture).
    pub fn delay_distribution(&self) -> Result<crate::DelayDistribution> {
        use crate::delay_dist::arrival_level_weights;

        let mut weights: Vec<f64> = Vec::new();
        for (s, &p) in self.states.iter().zip(&self.pi) {
            if p <= 0.0 {
                continue;
            }
            for (level, prob) in arrival_level_weights(s, self.d, ModelVariant::Base, self.mode) {
                let k = level as usize;
                if weights.len() <= k {
                    weights.resize(k + 1, 0.0);
                }
                weights[k] += p * prob;
            }
        }
        crate::DelayDistribution::from_weights(weights)
    }

    /// Marginal distribution of the imbalance `m1 − mN`.
    pub fn imbalance_pmf(&self) -> Vec<f64> {
        let mut pmf = vec![0.0; self.cap as usize + 1];
        for (s, &p) in self.states.iter().zip(&self.pi) {
            pmf[s.diff() as usize] += p;
        }
        pmf
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
    fn enumeration_counts_multisets() {
        // Sorted vectors of length n with entries ≤ cap: C(n+cap, n).
        let states = enumerate_capped(3, 4);
        assert_eq!(states.len(), 35); // C(7, 3)
        let states = enumerate_capped(2, 3);
        assert_eq!(states.len(), 10); // C(5, 2)
    }

    #[test]
    fn d1_matches_mm1() {
        // SQ(1) = independent M/M/1 queues; delay is 1/(1−λ) regardless
        // of N.
        let bf = BruteForce::solve(3, 1, 0.4, 30).unwrap();
        assert!(bf.truncation_mass() < 1e-10);
        assert!(
            (bf.mean_delay() - 1.0 / 0.6).abs() < 1e-6,
            "delay {}",
            bf.mean_delay()
        );
    }

    #[test]
    fn d2_beats_d1_and_loses_to_jsq() {
        let (n, lam, cap) = (3, 0.7, 25);
        let d1 = BruteForce::solve(n, 1, lam, cap).unwrap().mean_delay();
        let d2 = BruteForce::solve(n, 2, lam, cap).unwrap().mean_delay();
        let d3 = BruteForce::solve(n, 3, lam, cap).unwrap().mean_delay();
        assert!(d1 > d2 && d2 > d3, "{d1} > {d2} > {d3} violated");
    }

    #[test]
    fn jsq_keeps_queues_balanced() {
        let bf = BruteForce::solve(3, 3, 0.8, 25).unwrap();
        let pmf = bf.imbalance_pmf();
        // JSQ concentrates imbalance on {0, 1} far more than random
        // (measured: ≈ 0.77 at λ = 0.8 vs ≈ 0.5 for d = 1).
        assert!(pmf[0] + pmf[1] > 0.7, "pmf {pmf:?}");
        let rand = BruteForce::solve(3, 1, 0.8, 25).unwrap();
        let rand_pmf = rand.imbalance_pmf();
        assert!(rand_pmf[0] + rand_pmf[1] < pmf[0] + pmf[1]);
    }

    #[test]
    fn matches_gth_near_the_boundary() {
        // The sparse solve against dense GTH on the same truncated chain,
        // up to ρ = 0.97 where the chain mixes slowest.
        for (n, lam, cap) in [(2usize, 0.97, 60u32), (3, 0.95, 22), (4, 0.9, 12)] {
            let bf = BruteForce::solve(n, 2, lam, cap).unwrap();
            let m = bf.states.len();
            let mut q = slb_linalg::Matrix::zeros(m, m);
            for (i, s) in bf.states.iter().enumerate() {
                let trans = transitions_with_mode(s, 2, lam, ModelVariant::Base, bf.mode);
                for tr in trans.iter().filter(|tr| tr.target.level(0) <= cap) {
                    let j = bf.index[&tr.target];
                    if j != i {
                        q[(i, j)] += tr.rate;
                        q[(i, i)] -= tr.rate;
                    }
                }
            }
            let pi = slb_markov::gth_stationary(&q).unwrap();
            let jobs: f64 = bf
                .states
                .iter()
                .zip(&pi)
                .map(|(s, &p)| p * f64::from(s.total()))
                .sum();
            let want = jobs / (lam * n as f64);
            let rel = (bf.mean_delay() - want).abs() / want;
            assert!(
                rel < 1e-10,
                "N={n} ρ={lam}: {} vs {want} ({rel:e})",
                bf.mean_delay()
            );
        }
    }

    #[test]
    fn invalid_parameters() {
        assert!(BruteForce::solve(0, 1, 0.5, 10).is_err());
        assert!(BruteForce::solve(3, 4, 0.5, 10).is_err());
        assert!(BruteForce::solve(3, 2, 1.0, 10).is_err());
        assert!(BruteForce::solve(3, 2, 0.5, 1).is_err());
        // d > N is fine with replacement.
        assert!(BruteForce::solve_with_mode(3, 4, 0.5, 10, PollMode::WithReplacement).is_ok());
    }

    #[test]
    fn replacement_slightly_worse_at_small_n() {
        // Wasted duplicate polls make with-replacement SQ(2) strictly
        // worse than without at N = 3 (the gap vanishes as N grows).
        let (n, lam, cap) = (3, 0.8, 28);
        let without = BruteForce::solve(n, 2, lam, cap).unwrap().mean_delay();
        let with = BruteForce::solve_with_mode(n, 2, lam, cap, PollMode::WithReplacement)
            .unwrap()
            .mean_delay();
        assert!(
            with > without,
            "with {with} should exceed without {without}"
        );
        // Both still beat random routing.
        let random = BruteForce::solve(n, 1, lam, cap).unwrap().mean_delay();
        assert!(with < random);
    }

    #[test]
    fn tail_fractions_basics() {
        let bf = BruteForce::solve(3, 2, 0.6, 28).unwrap();
        let tails = bf.queue_tail_fractions(6);
        // s_0 = 1; s_1 = utilization = λ (work conservation); decreasing.
        assert!((tails[0] - 1.0).abs() < 1e-10);
        assert!((tails[1] - 0.6).abs() < 1e-6, "s1 = {}", tails[1]);
        for k in 1..tails.len() {
            assert!(tails[k] <= tails[k - 1] + 1e-12);
        }
        // Finite N with d = 2 has heavier tails than the N → ∞ limit at
        // small k... and the asymptotic s_2 = λ³ anchors the scale.
        let s2_asym = 0.6f64.powi(3);
        assert!(
            (tails[2] - s2_asym).abs() < 0.05,
            "s2 {} vs {}",
            tails[2],
            s2_asym
        );
    }

    #[test]
    fn d1_delay_distribution_is_mm1_exponential() {
        // SQ(1): the tagged job joins a uniformly random M/M/1 queue, so
        // its sojourn is exp(1 − λ) — the classical M/M/1 result.
        let lam = 0.5;
        let bf = BruteForce::solve(2, 1, lam, 30).unwrap();
        let dist = bf.delay_distribution().unwrap();
        for i in 0..=20 {
            let t = i as f64 * 0.4;
            let want = (-(1.0 - lam) * t).exp();
            assert!(
                (dist.survival(t) - want).abs() < 1e-6,
                "t={t}: {} vs {want}",
                dist.survival(t)
            );
        }
        assert!((dist.mean() - 1.0 / (1.0 - lam)).abs() < 1e-6);
    }

    #[test]
    fn delay_distribution_mean_matches_little() {
        for &(n, d, lam) in &[(3usize, 2usize, 0.6f64), (3, 3, 0.8), (4, 2, 0.5)] {
            let bf = BruteForce::solve(n, d, lam, 28).unwrap();
            let dist = bf.delay_distribution().unwrap();
            assert!(
                (dist.mean() - bf.mean_delay()).abs() < 1e-6,
                "N={n} d={d}: {} vs {}",
                dist.mean(),
                bf.mean_delay()
            );
        }
    }

    #[test]
    fn higher_d_stochastically_smaller_delay() {
        // More choices ⇒ the whole delay distribution shifts down, not
        // just the mean.
        let (n, lam, cap) = (3usize, 0.75f64, 28u32);
        let d1 = BruteForce::solve(n, 1, lam, cap)
            .unwrap()
            .delay_distribution()
            .unwrap();
        let d2 = BruteForce::solve(n, 2, lam, cap)
            .unwrap()
            .delay_distribution()
            .unwrap();
        let d3 = BruteForce::solve(n, 3, lam, cap)
            .unwrap()
            .delay_distribution()
            .unwrap();
        for i in 1..=40 {
            let t = i as f64 * 0.3;
            assert!(d3.survival(t) <= d2.survival(t) + 1e-9, "t={t}");
            assert!(d2.survival(t) <= d1.survival(t) + 1e-9, "t={t}");
        }
    }

    #[test]
    fn mass_and_little_consistency() {
        let bf = BruteForce::solve(2, 2, 0.6, 30).unwrap();
        // π sums to 1.
        let total: f64 = bf.pi.iter().sum();
        assert!((total - 1.0).abs() < 1e-10);
        // waiting = jobs − busy servers.
        let busy: f64 = bf
            .states
            .iter()
            .zip(&bf.pi)
            .map(|(s, &p)| p * s.busy() as f64)
            .sum();
        assert!((bf.mean_jobs() - bf.mean_waiting() - busy).abs() < 1e-10);
        // Utilization: busy fraction = λ (work conservation).
        assert!((busy / 2.0 - 0.6).abs() < 1e-6, "busy {busy}");
    }
}
