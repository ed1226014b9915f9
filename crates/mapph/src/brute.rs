//! Brute-force ground truth for the MAP-modulated SQ(d) chain.
//!
//! Mirrors `slb_core::brute` on the product space (queue shape × arrival
//! phase): enumerate every sorted state with `m1 ≤ cap`, cross with the
//! arrival phases, drop arrivals that would exceed the cap, and solve the
//! sparse CTMC. Used to certify `LB ≤ exact ≤ UB` for bursty input
//! without simulation noise.

use std::collections::HashMap;

use slb_core::{transitions_with_mode, ModelVariant, PollMode, State};
use slb_linalg::{null_vector_gs, CooBuilder, GsOptions};
use slb_markov::Map;

use crate::{MapphError, Result};

/// Exact (truncated) solver for the MAP/SQ(d) product chain.
///
/// # Example
///
/// ```
/// use slb_markov::Map;
/// use slb_mapph::MapBrute;
///
/// # fn main() -> Result<(), slb_mapph::MapphError> {
/// // Poisson-as-MAP reduces to the ordinary SQ(d) chain.
/// let map = Map::poisson(2.1).map_err(slb_mapph::MapphError::from)?;
/// let bf = MapBrute::solve(3, 2, &map, 16)?;
/// assert!(bf.truncation_mass() < 1e-6);
/// assert!(bf.mean_delay() >= 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MapBrute {
    n: usize,
    rate: f64,
    phases: usize,
    states: Vec<State>,
    pi: Vec<f64>,
    cap: u32,
}

impl MapBrute {
    /// Enumerates all `(shape, phase)` pairs with `m1 ≤ cap` and solves
    /// the modulated SQ(d) chain restricted to them.
    ///
    /// # Errors
    ///
    /// * [`MapphError::InvalidParameters`] for invalid `(N, d, cap)` or an
    ///   overloaded MAP.
    /// * [`MapphError::Linalg`] if the sparse stationary solve fails.
    pub fn solve(n: usize, d: usize, map: &Map, cap: u32) -> Result<Self> {
        MapBrute::solve_with_mode(n, d, map, cap, PollMode::WithoutReplacement)
    }

    /// As [`MapBrute::solve`] with an explicit polling mode.
    ///
    /// # Errors
    ///
    /// As [`MapBrute::solve`].
    pub fn solve_with_mode(
        n: usize,
        d: usize,
        map: &Map,
        cap: u32,
        mode: PollMode,
    ) -> Result<Self> {
        let d_ok = match mode {
            PollMode::WithoutReplacement => (1..=n).contains(&d),
            PollMode::WithReplacement => d >= 1,
        };
        if n == 0 || !d_ok {
            return Err(MapphError::InvalidParameters {
                reason: format!("need valid d for N = {n} under {mode:?}, got d = {d}"),
            });
        }
        if cap < 2 {
            return Err(MapphError::InvalidParameters {
                reason: "cap must be at least 2".into(),
            });
        }
        let rate = map.rate()?;
        if rate >= n as f64 {
            return Err(MapphError::InvalidParameters {
                reason: format!("MAP rate {rate} saturates {n} unit servers"),
            });
        }

        let states = enumerate_capped(n, cap);
        let p = map.phases();
        let index: HashMap<&State, usize> =
            states.iter().enumerate().map(|(i, s)| (s, i)).collect();
        let idx = |shape: usize, h: usize| shape * p + h;

        let d0 = map.d0();
        let d1 = map.d1();
        let probe = 1.0 / n as f64; // λN = 1 ⇒ arrival rates are join probs

        // The transposed generator `Qᵀ`: row `to` lists the inflows of
        // state `to`, and each state's diagonal is its -outflow.
        let len = states.len() * p;
        let mut qt = CooBuilder::new(len, len);
        let mut outflow = vec![0.0; len];
        let mut add = |from: usize, to: usize, rate: f64| -> Result<()> {
            qt.add(to, from, rate)?;
            outflow[from] += rate;
            Ok(())
        };
        for (i, s) in states.iter().enumerate() {
            let trans = transitions_with_mode(s, d, probe, ModelVariant::Base, mode);
            for h in 0..p {
                let from = idx(i, h);
                // Phase changes without arrival.
                for h2 in 0..p {
                    if h2 != h && d0[(h, h2)] > 0.0 {
                        add(from, idx(i, h2), d0[(h, h2)])?;
                    }
                }
                for tr in &trans {
                    if tr.target.total() > s.total() {
                        if tr.target.level(0) > cap {
                            continue; // truncation: drop arrivals past cap
                        }
                        let j = index[&tr.target];
                        for h2 in 0..p {
                            let r = d1[(h, h2)] * tr.rate;
                            if r > 0.0 && idx(j, h2) != from {
                                add(from, idx(j, h2), r)?;
                            }
                        }
                    } else {
                        let j = index[&tr.target];
                        add(from, idx(j, h), tr.rate)?;
                    }
                }
            }
        }
        for (i, &o) in outflow.iter().enumerate() {
            qt.add(i, i, -o)?;
        }
        // Classes of equal (job total, phase): the modulating phase is the
        // chain's slow mode, so the coarse chain must keep phases apart
        // (over job totals alone the aggregation stalls).
        let classes: Vec<u32> = states
            .iter()
            .flat_map(|s| (0..p).map(move |h| (s.total() as usize * p + h) as u32))
            .collect();
        let pi = null_vector_gs(
            &qt.build(),
            &vec![1.0; len],
            &GsOptions {
                tol: 1e-13,
                classes: Some(&classes),
                ..GsOptions::default()
            },
        )?
        .x;

        Ok(MapBrute {
            n,
            rate,
            phases: p,
            states,
            pi,
            cap,
        })
    }

    /// Number of product states enumerated.
    pub fn state_count(&self) -> usize {
        self.states.len() * self.phases
    }

    /// Mean number of jobs in the system.
    pub fn mean_jobs(&self) -> f64 {
        self.shape_sum(|s| f64::from(s.total()))
    }

    /// Mean number of *waiting* jobs.
    pub fn mean_waiting(&self) -> f64 {
        self.shape_sum(|s| f64::from(s.waiting()))
    }

    /// Mean sojourn time via Little's law at the MAP's fundamental rate.
    pub fn mean_delay(&self) -> f64 {
        self.mean_jobs() / self.rate
    }

    /// Stationary mass on the capped layer `m1 = cap` (truncation proxy).
    pub fn truncation_mass(&self) -> f64 {
        self.states
            .iter()
            .enumerate()
            .filter(|(_, s)| s.level(0) == self.cap)
            .map(|(i, _)| self.phase_mass(i))
            .sum()
    }

    /// Marginal stationary distribution of the arrival phase; must agree
    /// with [`Map::phase_stationary`] because the queue does not feed back
    /// into the modulation.
    pub fn phase_marginal(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.phases];
        for (i, _) in self.states.iter().enumerate() {
            for (h, o) in out.iter_mut().enumerate() {
                *o += self.pi[i * self.phases + h];
            }
        }
        out
    }

    /// Stationary fraction of servers with at least `k` jobs,
    /// `k = 0..=k_max`.
    pub fn queue_tail_fractions(&self, k_max: u32) -> Vec<f64> {
        (0..=k_max)
            .map(|k| {
                self.shape_sum(|s| {
                    s.as_slice().iter().filter(|&&x| x >= k).count() as f64 / self.n as f64
                })
            })
            .collect()
    }

    fn phase_mass(&self, shape_index: usize) -> f64 {
        (0..self.phases)
            .map(|h| self.pi[shape_index * self.phases + h])
            .sum()
    }

    fn shape_sum<F: Fn(&State) -> f64>(&self, f: F) -> f64 {
        self.states
            .iter()
            .enumerate()
            .map(|(i, s)| f(s) * self.phase_mass(i))
            .sum()
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
    fn poisson_map_matches_core_brute() {
        let (n, d, lam, cap) = (3usize, 2usize, 0.6f64, 18u32);
        let map = Map::poisson(lam * n as f64).unwrap();
        let ours = MapBrute::solve(n, d, &map, cap).unwrap();
        let core = slb_core::brute::BruteForce::solve(n, d, lam, cap).unwrap();
        assert!(
            (ours.mean_delay() - core.mean_delay()).abs() < 1e-8,
            "{} vs {}",
            ours.mean_delay(),
            core.mean_delay()
        );
        assert!((ours.mean_jobs() - core.mean_jobs()).abs() < 1e-8);
    }

    #[test]
    fn phase_marginal_matches_map_stationary() {
        let map = Map::mmpp2(0.4, 0.9, 0.3, 1.8).unwrap();
        let bf = MapBrute::solve(3, 2, &map, 14).unwrap();
        let got = bf.phase_marginal();
        let want = map.phase_stationary().unwrap();
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-7, "{got:?} vs {want:?}");
        }
    }

    #[test]
    fn slow_modulation_converges_with_phase_classes() {
        // Aggregating over job totals alone stalls here (the phase is the
        // chain's slow mode); (total, phase) classes must converge.
        let (n, rho) = (3usize, 0.7f64);
        let map = Map::mmpp2(0.1, 0.3, 0.5, 2.0)
            .unwrap()
            .with_rate(rho * n as f64)
            .unwrap();
        let bf = MapBrute::solve(n, 2, &map, 20).unwrap();
        let got = bf.phase_marginal();
        let want = map.phase_stationary().unwrap();
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9, "{got:?} vs {want:?}");
        }
        assert!(bf.mean_delay().is_finite() && bf.mean_delay() >= 1.0);
    }

    #[test]
    fn burstiness_inflates_exact_delay() {
        let (n, d, rho, cap) = (3usize, 2usize, 0.6f64, 16u32);
        let poisson = Map::poisson(rho * n as f64).unwrap();
        let bursty = Map::mmpp2(0.1, 0.1, 0.2, 4.0)
            .unwrap()
            .with_rate(rho * n as f64)
            .unwrap();
        let base = MapBrute::solve(n, d, &poisson, cap).unwrap().mean_delay();
        let hot = MapBrute::solve(n, d, &bursty, cap).unwrap().mean_delay();
        assert!(hot > base * 1.05, "bursty {hot} vs Poisson {base}");
    }

    #[test]
    fn invalid_parameters_rejected() {
        let map = Map::poisson(1.0).unwrap();
        assert!(MapBrute::solve(0, 1, &map, 10).is_err());
        assert!(MapBrute::solve(3, 4, &map, 10).is_err());
        assert!(MapBrute::solve(3, 2, &map, 1).is_err());
        let hot = Map::poisson(4.0).unwrap();
        assert!(MapBrute::solve(3, 2, &hot, 10).is_err());
    }

    #[test]
    fn tail_fractions_sane() {
        let map = Map::mmpp2(0.5, 0.5, 0.4, 1.4).unwrap();
        let bf = MapBrute::solve(3, 2, &map, 14).unwrap();
        let tails = bf.queue_tail_fractions(4);
        assert!((tails[0] - 1.0).abs() < 1e-9);
        // Busy fraction = utilization (work conservation).
        let rho = map.rate().unwrap() / 3.0;
        assert!((tails[1] - rho).abs() < 1e-5, "s1 {} vs ρ {rho}", tails[1]);
        for k in 1..tails.len() {
            assert!(tails[k] <= tails[k - 1] + 1e-12);
        }
    }
}
