//! The MAP-modulated SQ(d) bound models: the paper's methodology with the
//! Poisson assumption removed.

use slb_core::occupancy::occupancy_to_state;
use slb_core::{BoundKind, ModelVariant, OccupancySpace, PollMode};
use slb_linalg::{power_iteration, Budget, CsrMatrix};
use slb_markov::Map;
use slb_qbd::{QbdBlocks, Tail};

use crate::{blocks, MapphError, Result};

/// SQ(d) with `N` servers, `d` choices and a MAP arrival stream.
///
/// Service stays exponential with unit rate (the paper's convention);
/// the utilization is `ρ = λ_MAP / N` with `λ_MAP` the MAP's fundamental
/// rate. Stability of the *lower* model requires `ρ < 1`; the upper model
/// additionally needs head-room that grows as the threshold `T` shrinks,
/// exactly as in the Poisson case.
///
/// # Example
///
/// ```
/// use slb_markov::Map;
/// use slb_mapph::MapSqd;
///
/// # fn main() -> Result<(), slb_mapph::MapphError> {
/// let map = Map::mmpp2(0.5, 0.5, 0.4, 1.6).map_err(slb_mapph::MapphError::from)?;
/// let model = MapSqd::with_utilization(3, 2, &map, 0.6)?;
/// assert!((model.utilization() - 0.6).abs() < 1e-12);
/// let lb = model.lower_bound(2)?;
/// assert!(lb.delay >= 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MapSqd {
    n: usize,
    d: usize,
    map: Map,
    rate: f64,
    poll_mode: PollMode,
}

/// Outcome of a MAP-modulated bound computation.
#[derive(Debug, Clone, PartialEq)]
pub struct MapBoundResult {
    /// Bound on the mean delay (sojourn time, service included).
    pub delay: f64,
    /// Bound on the mean number of waiting jobs in the system.
    pub waiting_jobs: f64,
    /// Residual of the finite balance system (solution certificate).
    pub residual: f64,
    /// Logarithmic-reduction iterations for the `G` matrix.
    pub g_iterations: usize,
    /// Product states in the boundary block.
    pub boundary_states: usize,
    /// Product states per repeating block, `C(N+T−1, T)·p`.
    pub level_states: usize,
    /// Spectral radius of the rate matrix `R` — the geometric decay rate
    /// of the stationary tail. For a Poisson stream and the lower model
    /// this reproduces Theorem 3's `ρᴺ`.
    pub tail_decay: f64,
}

impl MapSqd {
    /// Builds the model from an explicit MAP (its fundamental rate is
    /// taken as the *total* arrival rate `λN`).
    ///
    /// # Errors
    ///
    /// [`MapphError::InvalidParameters`] unless `N ≥ 2`, `1 ≤ d ≤ N` and
    /// the MAP rate is positive with `ρ = rate/N < 1`.
    pub fn new(n: usize, d: usize, map: &Map) -> Result<Self> {
        MapSqd::new_with_mode(n, d, map, PollMode::WithoutReplacement)
    }

    /// As [`MapSqd::new`] with an explicit polling mode (with replacement
    /// allows `d > N`).
    ///
    /// # Errors
    ///
    /// As [`MapSqd::new`].
    pub fn new_with_mode(n: usize, d: usize, map: &Map, poll_mode: PollMode) -> Result<Self> {
        if n < 2 {
            return Err(MapphError::InvalidParameters {
                reason: format!("need at least 2 servers, got {n}"),
            });
        }
        let d_ok = match poll_mode {
            PollMode::WithoutReplacement => (1..=n).contains(&d),
            PollMode::WithReplacement => d >= 1,
        };
        if !d_ok {
            return Err(MapphError::InvalidParameters {
                reason: format!("invalid d = {d} for N = {n} under {poll_mode:?}"),
            });
        }
        let rate = map.rate()?;
        if !(rate > 0.0 && rate.is_finite()) {
            return Err(MapphError::InvalidParameters {
                reason: format!("MAP fundamental rate must be positive, got {rate}"),
            });
        }
        if rate >= n as f64 {
            return Err(MapphError::InvalidParameters {
                reason: format!(
                    "utilization {} must be below 1 (MAP rate {rate}, N = {n})",
                    rate / n as f64
                ),
            });
        }
        Ok(MapSqd {
            n,
            d,
            map: map.clone(),
            rate,
            poll_mode,
        })
    }

    /// Builds the model after rescaling the MAP's time axis so the
    /// utilization is exactly `rho` — the natural way to sweep a load
    /// curve while keeping the burstiness structure fixed.
    ///
    /// # Errors
    ///
    /// [`MapphError::InvalidParameters`] unless `0 < rho < 1` (plus the
    /// [`MapSqd::new`] preconditions).
    pub fn with_utilization(n: usize, d: usize, map: &Map, rho: f64) -> Result<Self> {
        if !(rho > 0.0 && rho < 1.0) {
            return Err(MapphError::InvalidParameters {
                reason: format!("need 0 < rho < 1, got {rho}"),
            });
        }
        let scaled = map.with_rate(rho * n as f64)?;
        MapSqd::new(n, d, &scaled)
    }

    /// Number of servers `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of polled servers `d`.
    pub fn d(&self) -> usize {
        self.d
    }

    /// The (possibly rescaled) arrival MAP.
    pub fn map(&self) -> &Map {
        &self.map
    }

    /// Utilization `ρ = λ_MAP / N`.
    pub fn utilization(&self) -> f64 {
        self.rate / self.n as f64
    }

    /// The polling mode.
    pub fn poll_mode(&self) -> PollMode {
        self.poll_mode
    }

    /// Lower bound on the mean delay with threshold `T`.
    ///
    /// # Errors
    ///
    /// Propagates state-space and solver failures; the lower model is
    /// stable whenever `ρ < 1`.
    pub fn lower_bound(&self, t: u32) -> Result<MapBoundResult> {
        self.solve(BoundKind::Lower, t)
    }

    /// Upper bound on the mean delay with threshold `T`.
    ///
    /// # Errors
    ///
    /// [`MapphError::UpperBoundUnstable`] when blocking reduces capacity
    /// below the offered load at this `(ρ, T)` — raise `T` in that case.
    pub fn upper_bound(&self, t: u32) -> Result<MapBoundResult> {
        self.solve(BoundKind::Upper, t)
    }

    /// The product-space QBD blocks of either bound variant (public for
    /// diagnostics and benchmarks).
    ///
    /// # Errors
    ///
    /// Propagates state-space construction and validation failures.
    pub fn qbd_blocks(&self, kind: BoundKind, t: u32) -> Result<QbdBlocks> {
        let space = OccupancySpace::new(self.n, t, &Budget::unlimited())?;
        blocks::assemble(&space, &self.map, self.d, kind, self.poll_mode)
    }

    /// The delay-distribution companion of the mean bounds under MAP
    /// arrivals (mixture of Erlangs; see `slb_core::delay_dist`).
    ///
    /// PASTA does not hold for a MAP: an arrival in phase `h` occurs at
    /// intensity `Σ_{h'} D1[h, h']`, so the state a tagged job sees is
    /// the *arrival-biased* law `π(m, h)·d1row(h) / λ`. The SQ(d) polling
    /// kernel is then applied exactly as in the Poisson case. For a
    /// one-phase MAP the bias is constant and this reduces to the
    /// `slb-core` construction.
    ///
    /// # Errors
    ///
    /// As the corresponding bound solve.
    pub fn delay_distribution(
        &self,
        kind: BoundKind,
        t: u32,
    ) -> Result<slb_core::DelayDistribution> {
        use slb_core::delay_dist::arrival_level_weights;

        let space = OccupancySpace::new(self.n, t, &Budget::unlimited())?;
        let qbd = blocks::assemble(&space, &self.map, self.d, kind, self.poll_mode)?;
        let sol = qbd.solve()?;

        let p = self.map.phases();
        let d1_row: Vec<f64> = (0..p)
            .map(|h| (0..p).map(|h2| self.map.d1()[(h, h2)]).sum())
            .collect();

        let mut weights: Vec<f64> = Vec::new();
        let mut add = |k: usize, w: f64| {
            if weights.len() <= k {
                weights.resize(k + 1, 0.0);
            }
            weights[k] += w;
        };

        // As in slb-core, the kernel uses the *base* policy; the bias
        // d1row(h)/λ converts time-stationary mass into what arrivals see.
        let kernel = |occ: &[u32]| {
            let s = occupancy_to_state(occ);
            arrival_level_weights(&s, self.d, ModelVariant::Base, self.poll_mode)
        };
        for i in 0..space.boundary_len() {
            let kernel = kernel(space.boundary_state(i));
            for (h, bias) in d1_row.iter().enumerate() {
                let mass = sol.boundary()[i * p + h] * bias / self.rate;
                if mass <= 0.0 {
                    continue;
                }
                for &(level, prob) in &kernel {
                    add(level as usize, mass * prob);
                }
            }
        }
        let kernels: Vec<Vec<(u32, f64)>> = (0..space.block_len())
            .map(|j| kernel(space.block0_state(j)))
            .collect();
        sol.for_each_level(1e-12, |q, pi_q| {
            for (j, kernel) in kernels.iter().enumerate() {
                for h in 0..p {
                    let mass = pi_q[j * p + h] * d1_row[h] / self.rate;
                    if mass <= 0.0 {
                        continue;
                    }
                    for &(level, prob) in kernel {
                        add(level as usize + q, mass * prob);
                    }
                }
            }
        });

        Ok(slb_core::DelayDistribution::from_weights(weights)?)
    }

    /// The saturation utilization of the upper-bound model at threshold
    /// `T`: the supremum of `ρ` for which [`MapSqd::upper_bound`] is
    /// stable, located by bisection to absolute accuracy `tol`. The MAP's
    /// burstiness structure is held fixed while its time axis is rescaled
    /// across the sweep.
    ///
    /// # Errors
    ///
    /// Propagates state-space construction failures.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < tol < 1`.
    pub fn upper_bound_saturation(&self, t: u32, tol: f64) -> Result<f64> {
        assert!(tol > 0.0 && tol < 1.0, "tolerance must be in (0, 1)");
        let space = OccupancySpace::new(self.n, t, &Budget::unlimited())?;
        let stable_at = |rho: f64| -> Result<bool> {
            let map = self.map.with_rate(rho * self.n as f64)?;
            let qbd = blocks::assemble(&space, &map, self.d, BoundKind::Upper, self.poll_mode)?;
            Ok(qbd.is_stable()?)
        };
        let (mut lo, mut hi) = (1e-6, 1.0 - 1e-9);
        if !stable_at(lo)? {
            return Ok(0.0);
        }
        while hi - lo > tol {
            let mid = 0.5 * (lo + hi);
            if stable_at(mid)? {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }

    fn solve(&self, kind: BoundKind, t: u32) -> Result<MapBoundResult> {
        let space = OccupancySpace::new(self.n, t, &Budget::unlimited())?;
        let qbd = blocks::assemble(&space, &self.map, self.d, kind, self.poll_mode)?;
        let sol = qbd.solve()?;

        // Waiting jobs are phase-blind: each macro-state's cost repeats
        // over its `p` phases.
        let p = self.map.phases();
        let per_phase = |costs: Vec<f64>| -> Vec<f64> {
            costs
                .into_iter()
                .flat_map(|c| std::iter::repeat_n(c, p))
                .collect()
        };
        let (cb, c0) = space.waiting_costs();
        let (cb, c0) = (per_phase(cb), per_phase(c0));
        let growth = vec![self.n as f64; space.block_len() * p];
        let waiting = sol.mean_linear_cost(&cb, &c0, &growth);

        let tail_decay = match sol.tail() {
            Tail::Matrix(r) => {
                // sp(R) through the shared sparse kernel.
                let r = CsrMatrix::from_dense(r, 0.0);
                power_iteration(&r, 1e-12, 50_000)?.eigenvalue
            }
            Tail::Scalar(b) => *b,
        };

        Ok(MapBoundResult {
            delay: waiting / self.rate + 1.0,
            waiting_jobs: waiting,
            residual: sol.residual(),
            g_iterations: sol.g_iterations(),
            boundary_states: space.boundary_len() * p,
            level_states: space.block_len() * p,
            tail_decay,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_validation() {
        let map = Map::poisson(1.0).unwrap();
        assert!(MapSqd::new(1, 1, &map).is_err());
        assert!(MapSqd::new(3, 0, &map).is_err());
        assert!(MapSqd::new(3, 4, &map).is_err());
        // Overloaded: rate 3 on 3 unit servers.
        let hot = Map::poisson(3.0).unwrap();
        assert!(MapSqd::new(3, 2, &hot).is_err());
        assert!(MapSqd::with_utilization(3, 2, &map, 0.0).is_err());
        assert!(MapSqd::with_utilization(3, 2, &map, 1.0).is_err());
        assert!(MapSqd::with_utilization(3, 2, &map, 0.5).is_ok());
        // d > N allowed with replacement.
        assert!(MapSqd::new_with_mode(3, 5, &map, PollMode::WithReplacement).is_ok());
    }

    #[test]
    fn poisson_map_reproduces_core_bounds() {
        // One-phase MAP ≡ Poisson: delays must match slb-core to solver
        // precision, and the lower tail decay must be Theorem 3's ρᴺ.
        for &(n, d, lam, t) in &[
            (3usize, 2usize, 0.6f64, 2u32),
            (3, 2, 0.8, 3),
            (4, 3, 0.7, 2),
        ] {
            let map = Map::poisson(lam * n as f64).unwrap();
            let model = MapSqd::new(n, d, &map).unwrap();
            let core = slb_core::Sqd::new(n, d, lam).unwrap();

            let lb = model.lower_bound(t).unwrap();
            let core_lb = core.lower_bound_full_r(t).unwrap();
            assert!(
                (lb.delay - core_lb.delay).abs() < 1e-8,
                "LB N={n} d={d} λ={lam} T={t}: {} vs {}",
                lb.delay,
                core_lb.delay
            );
            assert!(
                (lb.tail_decay - lam.powi(n as i32)).abs() < 1e-6,
                "sp(R) {} vs ρᴺ {}",
                lb.tail_decay,
                lam.powi(n as i32)
            );

            let ub = model.upper_bound(t).unwrap();
            let core_ub = core.upper_bound(t).unwrap();
            assert!(
                (ub.delay - core_ub.delay).abs() < 1e-8,
                "UB: {} vs {}",
                ub.delay,
                core_ub.delay
            );
        }
    }

    #[test]
    fn bursty_arrivals_increase_delay() {
        // MMPP-2 with SCV > 1 at the same utilization must have a larger
        // lower bound than Poisson (burstiness hurts).
        let (n, d, rho, t) = (3usize, 2usize, 0.7f64, 3u32);
        let poisson = MapSqd::new(n, d, &Map::poisson(rho * n as f64).unwrap()).unwrap();
        let bursty_map = Map::mmpp2(0.1, 0.1, 0.2, 4.0).unwrap();
        assert!(bursty_map.interarrival_scv().unwrap() > 1.2);
        let bursty = MapSqd::with_utilization(n, d, &bursty_map, rho).unwrap();
        let p_lb = poisson.lower_bound(t).unwrap().delay;
        let b_lb = bursty.lower_bound(t).unwrap().delay;
        assert!(
            b_lb > p_lb * 1.05,
            "bursty LB {b_lb} should exceed Poisson LB {p_lb}"
        );
    }

    #[test]
    fn sandwich_order_under_modulation() {
        let map = Map::mmpp2(0.5, 0.5, 0.5, 1.5).unwrap();
        let model = MapSqd::with_utilization(3, 2, &map, 0.6).unwrap();
        let lb = model.lower_bound(3).unwrap();
        let ub = model.upper_bound(3).unwrap();
        assert!(
            lb.delay <= ub.delay + 1e-9,
            "LB {} > UB {}",
            lb.delay,
            ub.delay
        );
        assert!(lb.residual < 1e-8 && ub.residual < 1e-8);
        assert!(lb.tail_decay < 1.0 && ub.tail_decay < 1.0);
    }

    #[test]
    fn upper_bound_unstable_at_small_threshold() {
        let map = Map::mmpp2(0.2, 0.2, 0.3, 5.4).unwrap();
        let model = MapSqd::with_utilization(3, 2, &map, 0.95).unwrap();
        match model.upper_bound(1) {
            Err(MapphError::UpperBoundUnstable { .. }) => {}
            other => panic!("expected instability, got {other:?}"),
        }
        assert!(model.lower_bound(1).is_ok());
    }

    #[test]
    fn larger_threshold_tightens_upper_bound() {
        let map = Map::mmpp2(1.0, 1.0, 0.5, 1.5).unwrap();
        let model = MapSqd::with_utilization(3, 2, &map, 0.65).unwrap();
        let ub2 = model.upper_bound(2).unwrap();
        let ub3 = model.upper_bound(3).unwrap();
        assert!(
            ub3.delay <= ub2.delay + 1e-9,
            "{} vs {}",
            ub3.delay,
            ub2.delay
        );
    }

    #[test]
    fn saturation_grows_with_threshold_and_shrinks_with_burstiness() {
        let map = Map::mmpp2(0.3, 0.3, 0.4, 1.6).unwrap();
        let model = MapSqd::with_utilization(3, 2, &map, 0.5).unwrap();
        let s2 = model.upper_bound_saturation(2, 1e-3).unwrap();
        let s3 = model.upper_bound_saturation(3, 1e-3).unwrap();
        assert!(s2 < s3 && s3 < 1.0, "{s2} vs {s3}");
        // Poisson (one phase) saturates no earlier than a bursty MMPP at
        // the same threshold.
        let poisson = MapSqd::new(3, 2, &Map::poisson(1.5).unwrap()).unwrap();
        let sp = poisson.upper_bound_saturation(3, 1e-3).unwrap();
        let bursty_map = Map::mmpp2(0.1, 0.1, 0.2, 4.0).unwrap();
        let bursty = MapSqd::with_utilization(3, 2, &bursty_map, 0.5).unwrap();
        let sb = bursty.upper_bound_saturation(3, 1e-3).unwrap();
        assert!(sb < sp, "bursty frontier {sb} vs Poisson {sp}");
        // Consistency: just below the frontier solves, just above fails.
        let probe = MapSqd::with_utilization(3, 2, &map, (s3 - 1e-2).max(0.01)).unwrap();
        assert!(probe.upper_bound(3).is_ok());
        let probe = MapSqd::with_utilization(3, 2, &map, (s3 + 1e-2).min(0.999)).unwrap();
        assert!(probe.upper_bound(3).is_err());
    }

    #[test]
    fn delay_distribution_reduces_to_core_for_poisson() {
        // One-phase MAP: the arrival bias is constant, so the curve must
        // coincide with the slb-core construction.
        let (n, d, lam, t) = (3usize, 2usize, 0.7f64, 3u32);
        let map = Map::poisson(lam * n as f64).unwrap();
        let model = MapSqd::new(n, d, &map).unwrap();
        let core = slb_core::Sqd::new(n, d, lam).unwrap();
        // Tolerance note: slb-core's lower path uses the Theorem-3 scalar
        // tail while this crate always uses the full rate matrix; their
        // stationary *vectors* differ at the ~1e-3 level for d < N (the
        // documented Theorem-3 vector residual), which feeds through to
        // the mixture weights at ~1e-4.
        for kind in [slb_core::BoundKind::Lower, slb_core::BoundKind::Upper] {
            let ours = model.delay_distribution(kind, t).unwrap();
            let theirs = core.delay_distribution(kind, t).unwrap();
            let tol = match kind {
                slb_core::BoundKind::Lower => 5e-4,
                slb_core::BoundKind::Upper => 1e-8,
            };
            assert!(
                (ours.mean() - theirs.mean()).abs() < tol,
                "{kind:?}: {} vs {}",
                ours.mean(),
                theirs.mean()
            );
            for i in 1..=30 {
                let x = i as f64 * 0.4;
                assert!(
                    (ours.survival(x) - theirs.survival(x)).abs() < tol,
                    "{kind:?} t={x}"
                );
            }
        }
    }

    #[test]
    fn bursty_delay_distribution_has_heavier_tail() {
        let (n, d, rho, t) = (3usize, 2usize, 0.7f64, 3u32);
        let poisson = MapSqd::new(n, d, &Map::poisson(rho * n as f64).unwrap())
            .unwrap()
            .delay_distribution(slb_core::BoundKind::Lower, t)
            .unwrap();
        let bursty_map = Map::mmpp2(0.1, 0.1, 0.2, 4.0).unwrap();
        let bursty = MapSqd::with_utilization(n, d, &bursty_map, rho)
            .unwrap()
            .delay_distribution(slb_core::BoundKind::Lower, t)
            .unwrap();
        for i in 2..=30 {
            let x = i as f64 * 0.5;
            assert!(
                bursty.survival(x) > poisson.survival(x),
                "t={x}: bursty {} vs poisson {}",
                bursty.survival(x),
                poisson.survival(x)
            );
        }
    }

    #[test]
    fn renewal_erlang_bounds_are_lighter_than_poisson() {
        // Erlang-2 interarrivals (SCV = 1/2) are *smoother* than Poisson:
        // the lower bound should drop at equal utilization.
        let (n, d, rho, t) = (3usize, 2usize, 0.7f64, 3u32);
        let ph = slb_markov::PhaseType::erlang(2, 2.0).unwrap();
        let erlang_map = Map::renewal(&ph).unwrap();
        let smooth = MapSqd::with_utilization(n, d, &erlang_map, rho).unwrap();
        let poisson = MapSqd::new(n, d, &Map::poisson(rho * n as f64).unwrap()).unwrap();
        let s_lb = smooth.lower_bound(t).unwrap().delay;
        let p_lb = poisson.lower_bound(t).unwrap().delay;
        assert!(
            s_lb < p_lb,
            "smooth-arrival LB {s_lb} should be below Poisson LB {p_lb}"
        );
    }
}
