//! The paper's headline API: finite-regime lower and upper bounds on the
//! SQ(d) mean delay.
//!
//! [`Sqd`] holds the system parameters; [`BoundModel`] assembles the
//! threshold-truncated chain of either bound variant into dense QBD
//! blocks (Section IV, Eq. 8–13) and solves it with the dense solvers of
//! `slb-qbd`. The blocks are those of the one state space and generator
//! in [`crate::occupancy`], densified; that module holds the sparse
//! solvers for large `N`. The lower bound
//! uses Theorem 3's scalar tail `π_{q+1} = ρᴺ π_q` by default
//! ([`Sqd::lower_bound`]) with the full matrix-geometric path retained for
//! cross-validation ([`Sqd::lower_bound_full_r`]); the upper bound always
//! needs the full rate matrix ([`Sqd::upper_bound`]).

use slb_linalg::Matrix;
use slb_qbd::QbdBlocks;

use crate::occupancy::occupancy_to_state;
use crate::{asymptotic, CoreError, LumpedModel, ModelVariant, OccupancySpace, PollMode, Result};

/// SQ(d) system parameters: `N` servers, `d` choices per arrival, per-
/// server arrival rate `λ < 1` (total rate `λN`), unit service rate.
///
/// # Example
///
/// ```
/// use slb_core::Sqd;
///
/// # fn main() -> Result<(), slb_core::CoreError> {
/// let sqd = Sqd::new(6, 2, 0.8)?;
/// let lb = sqd.lower_bound(3)?;
/// assert!(lb.delay >= 1.0); // delay includes the service time
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sqd {
    n: usize,
    d: usize,
    lambda: f64,
    poll_mode: PollMode,
}

impl Sqd {
    /// Validates and stores the parameters (polling without replacement,
    /// the paper's model; see [`Sqd::new_with_mode`] for Mitzenmacher's
    /// with-replacement variant).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameters`] unless `N ≥ 2`, `1 ≤ d ≤ N` and
    /// `0 < λ < 1`.
    pub fn new(n: usize, d: usize, lambda: f64) -> Result<Self> {
        Sqd::new_with_mode(n, d, lambda, PollMode::WithoutReplacement)
    }

    /// As [`Sqd::new`], with an explicit polling mode. With replacement,
    /// `d` may exceed `N`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameters`] on violated preconditions.
    pub fn new_with_mode(n: usize, d: usize, lambda: f64, poll_mode: PollMode) -> Result<Self> {
        if n < 2 {
            return Err(CoreError::InvalidParameters {
                reason: format!("need at least 2 servers, got {n}"),
            });
        }
        let d_ok = match poll_mode {
            PollMode::WithoutReplacement => (1..=n).contains(&d),
            PollMode::WithReplacement => d >= 1,
        };
        if !d_ok {
            return Err(CoreError::InvalidParameters {
                reason: format!("invalid d = {d} for N = {n} under {poll_mode:?}"),
            });
        }
        if lambda.is_nan() || lambda <= 0.0 || lambda >= 1.0 {
            return Err(CoreError::InvalidParameters {
                reason: format!("need 0 < lambda < 1, got {lambda}"),
            });
        }
        Ok(Sqd {
            n,
            d,
            lambda,
            poll_mode,
        })
    }

    /// The polling mode.
    pub fn poll_mode(&self) -> PollMode {
        self.poll_mode
    }

    /// Number of servers `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of polled servers `d`.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Per-server arrival rate (= utilization) `λ`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The asymptotic (`N → ∞`) mean delay, Eq. 16.
    pub fn asymptotic_delay(&self) -> f64 {
        asymptotic::mean_delay(self.lambda, self.d)
    }

    /// Lower bound on the mean delay with threshold `T`, solved with the
    /// Theorem-3 scalar tail `π_{q+1} = ρᴺ π_q` (the paper's "improved"
    /// dramatically cheaper method).
    ///
    /// # Errors
    ///
    /// Propagates state-space or solver failures; the lower-bound model is
    /// stable for every `λ < 1`.
    pub fn lower_bound(&self, t: u32) -> Result<BoundResult> {
        BoundModel::new(*self, BoundKind::Lower, t)?.solve_scalar_tail()
    }

    /// Lower bound solved by the full matrix-geometric method (Theorem 1);
    /// same value as [`Sqd::lower_bound`], kept for cross-validation and
    /// the complexity ablation.
    ///
    /// # Errors
    ///
    /// Propagates state-space or solver failures.
    pub fn lower_bound_full_r(&self, t: u32) -> Result<BoundResult> {
        BoundModel::new(*self, BoundKind::Lower, t)?.solve_full()
    }

    /// Upper bound on the mean delay with threshold `T` (full matrix-
    /// geometric solve).
    ///
    /// # Errors
    ///
    /// [`CoreError::UpperBoundUnstable`] when blocking reduces capacity
    /// below the offered load at this `(λ, T)` — raise `T` in that case.
    pub fn upper_bound(&self, t: u32) -> Result<BoundResult> {
        BoundModel::new(*self, BoundKind::Upper, t)?.solve_full()
    }

    /// Stationary fraction of servers holding at least `k` jobs
    /// (`k = 0..=k_max`) under the given bound model — the finite-`N`
    /// counterpart of the asymptotic fractions
    /// [`asymptotic::tail_fraction`].
    ///
    /// # Errors
    ///
    /// As the corresponding bound solve.
    pub fn queue_tail_fractions(&self, kind: BoundKind, t: u32, k_max: u32) -> Result<Vec<f64>> {
        BoundModel::new(*self, kind, t)?.queue_tail_fractions(k_max)
    }

    /// The full sojourn-time distribution of the given bound model
    /// (mixture of Erlangs via PASTA; see [`crate::delay_dist`]), from
    /// which percentile bounds follow.
    ///
    /// # Errors
    ///
    /// As the corresponding bound solve.
    pub fn delay_distribution(&self, kind: BoundKind, t: u32) -> Result<crate::DelayDistribution> {
        BoundModel::new(*self, kind, t)?.delay_distribution(1e-12)
    }

    /// The saturation utilization of the upper-bound model at threshold
    /// `T`: the supremum of `λ` for which [`Sqd::upper_bound`] is stable,
    /// located by bisection to absolute accuracy `tol`.
    ///
    /// Blocking bottom-level departures removes real service capacity, so
    /// this is strictly below 1 and grows toward 1 as `T → ∞` — the
    /// complexity/accuracy trade-off discussed in the paper's conclusion.
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
        let stable_at = |lambda: f64| -> Result<bool> {
            let probe = Sqd { lambda, ..*self };
            let blocks = BoundModel::new(probe, BoundKind::Upper, t)?.qbd_blocks()?;
            blocks.is_stable().map_err(CoreError::from)
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
}

/// Which bound a [`BoundModel`] computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundKind {
    /// Stochastic lower bound (redirects toward balance).
    Lower,
    /// Stochastic upper bound (blocking + amplification).
    Upper,
}

/// Outcome of a bound computation.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundResult {
    /// Bound on the mean delay (sojourn time, service included).
    pub delay: f64,
    /// Bound on the mean number of waiting jobs in the system.
    pub waiting_jobs: f64,
    /// Residual of the finite balance system (solution certificate).
    pub residual: f64,
    /// Logarithmic-reduction iterations (0 for the scalar-tail path).
    pub g_iterations: usize,
    /// States in the boundary block.
    pub boundary_states: usize,
    /// States per repeating block, `C(N+T−1, T)`.
    pub level_states: usize,
}

/// A threshold-truncated bound model, assembled into dense QBD form for
/// the dense solvers.
///
/// The blocks come from the occupancy generator through the
/// [`LumpedModel`] this type holds, densified; only the solvers differ
/// from the sparse path. Most callers use the [`Sqd`] convenience
/// methods; this type is public for benchmarks and diagnostics (block
/// inspection, regularity checks).
#[derive(Debug, Clone)]
pub struct BoundModel {
    sqd: Sqd,
    lumped: LumpedModel,
}

impl BoundModel {
    /// Builds the model and enumerates its state space.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameters`] for invalid `(N, T)`.
    pub fn new(sqd: Sqd, kind: BoundKind, t: u32) -> Result<Self> {
        Ok(BoundModel {
            sqd,
            lumped: LumpedModel::new(sqd, kind, t)?,
        })
    }

    /// The model variant of the tuple generator
    /// ([`crate::transitions_with_mode`]) that this model lumps.
    pub fn variant(&self) -> ModelVariant {
        let threshold = self.lumped.threshold();
        match self.lumped.kind() {
            BoundKind::Lower => ModelVariant::Lower { threshold },
            BoundKind::Upper => ModelVariant::Upper { threshold },
        }
    }

    /// The underlying block-partitioned state space.
    pub fn space(&self) -> &OccupancySpace {
        self.lumped.space()
    }

    /// Assembles the six QBD generator blocks: the sparse blocks of
    /// [`LumpedModel::qbd_blocks`], densified.
    ///
    /// # Errors
    ///
    /// Propagates block-validation failures (which would indicate a bug in
    /// the transition rules rather than bad user input).
    pub fn qbd_blocks(&self) -> Result<QbdBlocks> {
        // The dense blocks are allocated before the sparse assembly runs,
        // so its short-lived allocations land above them on the heap.
        // Allocated last, they sit at the heap top and glibc returns
        // their pages to the OS when a solve frees them; the next model
        // then faults the megabytes back in (about 1,000 page faults per
        // model at N = 10, T = 3, some 10% of a dense bounds query).
        let (nb, m) = (self.space().boundary_len(), self.space().block_len());
        let mut dense = [(nb, nb), (nb, m), (m, nb), (m, m), (m, m), (m, m)]
            .map(|(rows, cols)| Matrix::zeros(rows, cols));
        let b = self.lumped.qbd_blocks()?;
        let sparse = [b.r00(), b.r01(), b.r10(), b.a0(), b.a1(), b.a2()];
        for (d, s) in dense.iter_mut().zip(sparse) {
            for r in 0..s.rows() {
                for (c, v) in s.row(r) {
                    d[(r, c)] = v;
                }
            }
        }
        let [r00, r01, r10, a0, a1, a2] = dense;
        Ok(QbdBlocks::new(r00, r01, r10, a0, a1, a2)?)
    }

    /// Solves via the full matrix-geometric method (Theorem 1).
    ///
    /// # Errors
    ///
    /// [`CoreError::UpperBoundUnstable`] if the drift condition fails
    /// (upper model at high `λ` / small `T`); solver failures otherwise.
    pub fn solve_full(&self) -> Result<BoundResult> {
        let blocks = self.qbd_blocks()?;
        let sol = blocks.solve()?;
        Ok(self.result_from(&sol))
    }

    /// Solves via the Theorem-3 scalar tail `β = ρᴺ` (lower model only).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameters`] if called on an upper model — the
    /// scalar tail is a theorem about the lower model only.
    pub fn solve_scalar_tail(&self) -> Result<BoundResult> {
        if self.lumped.kind() != BoundKind::Lower {
            return Err(CoreError::InvalidParameters {
                reason: "the ρᴺ scalar tail (Theorem 3) applies to the lower model only".into(),
            });
        }
        let blocks = self.qbd_blocks()?;
        let beta = self.sqd.lambda.powi(self.sqd.n as i32);
        let sol = blocks.solve_with_scalar_tail(beta)?;
        Ok(self.result_from(&sol))
    }

    /// Stationary fraction of servers with at least `k` jobs
    /// (`k = 0..=k_max`) under this bound model.
    ///
    /// Solved with the full matrix-geometric method; the indicator costs
    /// are not linear in the level, so the expectation is evaluated by
    /// explicit level summation with a `1e-12` tail cut-off.
    ///
    /// # Errors
    ///
    /// As [`BoundModel::solve_full`].
    pub fn queue_tail_fractions(&self, k_max: u32) -> Result<Vec<f64>> {
        let blocks = self.qbd_blocks()?;
        let sol = blocks.solve()?;
        let n = self.sqd.n as f64;
        let sp = self.space();
        let mut out = Vec::with_capacity(k_max as usize + 1);
        for k in 0..=k_max {
            let cb: Vec<f64> = (0..sp.boundary_len())
                .map(|i| f64::from(servers_at_least(sp.boundary_state(i), 0, k)) / n)
                .collect();
            let frac = sol.mean_cost_per_level(
                &cb,
                // Level q state = template + q on every server.
                |q, j| f64::from(servers_at_least(sp.block0_state(j), q as u32, k)) / n,
                1e-12,
            );
            out.push(frac.min(1.0));
        }
        Ok(out)
    }

    /// The delay-distribution bound induced by this model: the SQ(d)
    /// polling kernel (what a tagged arrival would experience under the
    /// *unmodified* policy — a precedence-monotone state cost for every
    /// `t`, exactly like the paper's waiting-job cost) integrated against
    /// this model's stationary law. See [`crate::delay_dist`]. The lower
    /// model is solved with the cheap Theorem-3 scalar tail, the upper
    /// model with the full rate matrix; levels are accumulated until the
    /// remaining tail mass drops below `tail_tol`.
    ///
    /// # Errors
    ///
    /// As the corresponding bound solve.
    ///
    /// # Panics
    ///
    /// Panics unless `tail_tol ∈ (0, 1)`.
    pub fn delay_distribution(&self, tail_tol: f64) -> Result<crate::DelayDistribution> {
        use crate::delay_dist::arrival_level_weights;

        let blocks = self.qbd_blocks()?;
        let sol = match self.lumped.kind() {
            BoundKind::Lower => {
                let beta = self.sqd.lambda.powi(self.sqd.n as i32);
                blocks.solve_with_scalar_tail(beta)?
            }
            BoundKind::Upper => blocks.solve()?,
        };

        // The kernel deliberately uses the *base* policy: the bound
        // models' redirects distort state occupancy (which the stationary
        // law already reflects) but a tagged job's sojourn is only
        // meaningful under the real SQ(d) routing and per-queue FIFO
        // drain.
        let variant = ModelVariant::Base;
        let (d, mode) = (self.sqd.d, self.sqd.poll_mode);
        let mut weights: Vec<f64> = Vec::new();
        let mut add = |k: usize, w: f64| {
            if weights.len() <= k {
                weights.resize(k + 1, 0.0);
            }
            weights[k] += w;
        };

        let sp = self.space();
        let kernel =
            |occ: &[u32]| arrival_level_weights(&occupancy_to_state(occ), d, variant, mode);
        for (i, &p) in sol.boundary().iter().enumerate() {
            if p <= 0.0 {
                continue;
            }
            for (level, prob) in kernel(sp.boundary_state(i)) {
                add(level as usize, p * prob);
            }
        }
        // Per-shape kernels are level-invariant: level q shifts every
        // entry (and hence the assigned server's level) by exactly q.
        let kernels: Vec<Vec<(u32, f64)>> = (0..sp.block_len())
            .map(|j| kernel(sp.block0_state(j)))
            .collect();
        sol.for_each_level(tail_tol, |q, pi_q| {
            for (kernel, &p) in kernels.iter().zip(pi_q) {
                if p <= 0.0 {
                    continue;
                }
                for &(level, prob) in kernel {
                    add(level as usize + q, p * prob);
                }
            }
        });

        crate::DelayDistribution::from_weights(weights)
    }

    /// Converts a QBD stationary solution into delay metrics.
    ///
    /// Waiting-job cost: `Σ_i max(m_i − 1, 0)` per state; on repeating
    /// levels the cost grows by exactly `N` per level because every server
    /// is busy there. Delay follows from Little's law at the true arrival
    /// rate `λN`, plus the unit service time.
    fn result_from(&self, sol: &slb_qbd::QbdStationary) -> BoundResult {
        let (cb, c0, growth) = self.lumped.cost_vectors();
        let waiting = sol.mean_linear_cost(&cb, &c0, &growth);
        let mean_wait = waiting / (self.sqd.lambda * self.sqd.n as f64);
        BoundResult {
            delay: mean_wait + 1.0,
            waiting_jobs: waiting,
            residual: sol.residual(),
            g_iterations: sol.g_iterations(),
            boundary_states: self.space().boundary_len(),
            level_states: self.space().block_len(),
        }
    }
}

/// Servers of macro-state `occ`, shifted up `shift` levels, holding at
/// least `k` jobs.
fn servers_at_least(occ: &[u32], shift: u32, k: u32) -> u32 {
    let base = occ[0] + shift;
    occ[1..]
        .iter()
        .zip(base..)
        .filter(|&(_, level)| level >= k)
        .map(|(&c, _)| c)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_validation() {
        assert!(Sqd::new(1, 1, 0.5).is_err());
        assert!(Sqd::new(3, 0, 0.5).is_err());
        assert!(Sqd::new(3, 4, 0.5).is_err());
        assert!(Sqd::new(3, 2, 0.0).is_err());
        assert!(Sqd::new(3, 2, 1.0).is_err());
        assert!(Sqd::new(3, 2, 0.5).is_ok());
    }

    #[test]
    fn blocks_assemble_for_paper_configs() {
        for &(n, t) in &[(3usize, 2u32), (3, 3), (6, 3)] {
            let sqd = Sqd::new(n, 2, 0.7).unwrap();
            for kind in [BoundKind::Lower, BoundKind::Upper] {
                let model = BoundModel::new(sqd, kind, t).unwrap();
                let blocks = model.qbd_blocks().unwrap();
                assert_eq!(blocks.level_len(), model.space().block_len());
            }
        }
    }

    #[test]
    fn lower_bound_sandwich_order() {
        // LB ≤ UB for every stable configuration.
        let sqd = Sqd::new(3, 2, 0.6).unwrap();
        let lb = sqd.lower_bound(3).unwrap();
        let ub = sqd.upper_bound(3).unwrap();
        assert!(
            lb.delay <= ub.delay + 1e-9,
            "LB {} > UB {}",
            lb.delay,
            ub.delay
        );
        assert!(lb.delay >= 1.0);
        assert!(lb.residual < 1e-8 && ub.residual < 1e-8);
    }

    #[test]
    fn scalar_tail_matches_full_r_lower_bound() {
        // Theorem 3 cross-validation: the two lower-bound paths agree.
        for &(n, d, lam, t) in &[
            (3usize, 2usize, 0.5f64, 2u32),
            (3, 2, 0.8, 3),
            (4, 3, 0.7, 2),
            (3, 1, 0.6, 2),
        ] {
            let sqd = Sqd::new(n, d, lam).unwrap();
            let fast = sqd.lower_bound(t).unwrap();
            let full = sqd.lower_bound_full_r(t).unwrap();
            assert!(
                (fast.delay - full.delay).abs() < 1e-7,
                "N={n}, d={d}, λ={lam}, T={t}: {} vs {}",
                fast.delay,
                full.delay
            );
            assert_eq!(fast.g_iterations, 0);
            assert!(full.g_iterations > 0);
        }
    }

    #[test]
    fn upper_bound_unstable_at_high_load_small_t() {
        // Blocking at T = 1 sheds real capacity: the upper model must
        // saturate strictly below λ = 1.
        let sqd = Sqd::new(3, 2, 0.95).unwrap();
        match sqd.upper_bound(1) {
            Err(CoreError::UpperBoundUnstable { .. }) => {}
            other => panic!("expected instability, got {other:?}"),
        }
        // The lower bound is unaffected.
        assert!(sqd.lower_bound(1).is_ok());
    }

    #[test]
    fn larger_threshold_tightens_upper_bound() {
        let sqd = Sqd::new(3, 2, 0.7).unwrap();
        let ub2 = sqd.upper_bound(2).unwrap();
        let ub3 = sqd.upper_bound(3).unwrap();
        let ub4 = sqd.upper_bound(4).unwrap();
        assert!(
            ub3.delay <= ub2.delay + 1e-9,
            "{} vs {}",
            ub3.delay,
            ub2.delay
        );
        assert!(ub4.delay <= ub3.delay + 1e-9);
    }

    #[test]
    fn bounds_bracket_brute_force() {
        // The defining property of the paper: LB ≤ exact ≤ UB.
        for &(n, d, lam) in &[(3usize, 2usize, 0.5f64), (3, 2, 0.7), (3, 3, 0.6)] {
            let sqd = Sqd::new(n, d, lam).unwrap();
            let exact = crate::brute::BruteForce::solve(n, d, lam, 30)
                .unwrap()
                .mean_delay();
            let lb = sqd.lower_bound(3).unwrap().delay;
            let ub = sqd.upper_bound(3).unwrap().delay;
            assert!(
                lb <= exact + 1e-6 && exact <= ub + 1e-6,
                "N={n}, d={d}, λ={lam}: LB {lb} ≤ exact {exact} ≤ UB {ub} violated"
            );
            // The paper's headline: the lower bound is remarkably tight.
            assert!(
                (exact - lb) / exact < 0.05,
                "lower bound unexpectedly loose: {lb} vs {exact}"
            );
        }
    }

    #[test]
    fn d1_lower_bound_close_to_mm1() {
        let lam = 0.6;
        let sqd = Sqd::new(3, 1, lam).unwrap();
        let lb = sqd.lower_bound(4).unwrap();
        let mm1 = 1.0 / (1.0 - lam);
        assert!(
            lb.delay <= mm1 + 1e-9,
            "LB {} above M/M/1 {}",
            lb.delay,
            mm1
        );
    }

    #[test]
    fn tail_fractions_bracket_brute_force() {
        let (n, d, lam, t) = (3usize, 2usize, 0.6f64, 3u32);
        let sqd = Sqd::new(n, d, lam).unwrap();
        let exact = crate::brute::BruteForce::solve(n, d, lam, 28)
            .unwrap()
            .queue_tail_fractions(5);
        let lo = sqd.queue_tail_fractions(BoundKind::Lower, t, 5).unwrap();
        let hi = sqd.queue_tail_fractions(BoundKind::Upper, t, 5).unwrap();
        // s_0 = 1 and s_1 = λ in all three (work conservation).
        assert!((lo[0] - 1.0).abs() < 1e-9 && (hi[0] - 1.0).abs() < 1e-9);
        assert!((lo[1] - lam).abs() < 1e-6, "lo s1 {}", lo[1]);
        // The upper model injects phantom jobs (amplified arrivals), so
        // its busy fraction strictly exceeds the offered load.
        assert!(hi[1] >= lam - 1e-9 && hi[1] < lam + 0.05, "hi s1 {}", hi[1]);
        // Deeper tails are ordered: balanced model has lighter tails.
        for k in 2..=5 {
            assert!(
                lo[k] <= exact[k] + 1e-6,
                "k={k}: lower {} > exact {}",
                lo[k],
                exact[k]
            );
            assert!(
                exact[k] <= hi[k] + 1e-6,
                "k={k}: exact {} > upper {}",
                exact[k],
                hi[k]
            );
        }
    }

    #[test]
    fn saturation_grows_with_threshold() {
        let sqd = Sqd::new(3, 2, 0.5).unwrap();
        let s2 = sqd.upper_bound_saturation(2, 1e-4).unwrap();
        let s3 = sqd.upper_bound_saturation(3, 1e-4).unwrap();
        let s4 = sqd.upper_bound_saturation(4, 1e-4).unwrap();
        assert!(s2 < s3 && s3 < s4, "{s2} {s3} {s4}");
        assert!(s4 < 1.0);
        // And the solve really is feasible just below / infeasible just
        // above the frontier.
        assert!(Sqd::new(3, 2, s3 - 1e-3).unwrap().upper_bound(3).is_ok());
        assert!(Sqd::new(3, 2, (s3 + 1e-3).min(0.999))
            .unwrap()
            .upper_bound(3)
            .is_err());
    }

    #[test]
    fn with_replacement_bounds_bracket_its_brute_force() {
        let (n, d, lam, t) = (3usize, 2usize, 0.7f64, 3u32);
        let sqd = Sqd::new_with_mode(n, d, lam, PollMode::WithReplacement).unwrap();
        let exact =
            crate::brute::BruteForce::solve_with_mode(n, d, lam, 30, PollMode::WithReplacement)
                .unwrap()
                .mean_delay();
        let lb = sqd.lower_bound(t).unwrap().delay;
        let ub = sqd.upper_bound(t).unwrap().delay;
        assert!(
            lb <= exact + 1e-6 && exact <= ub + 1e-6,
            "{lb} ≤ {exact} ≤ {ub} violated (with replacement)"
        );
        // And the with-replacement system is slower than without.
        let without = Sqd::new(n, d, lam).unwrap().lower_bound(t).unwrap().delay;
        assert!(lb > without);
    }

    #[test]
    fn delay_distribution_means_track_exact() {
        // The distribution-derived means must track the exact mean: the
        // upper curve dominates; the lower curve is a sharp estimate
        // (the polling kernel is not precedence-monotone, so it may
        // cross by a few 1e-3 — see the delay_dist module docs).
        for &(n, d, lam, t) in &[
            (3usize, 2usize, 0.6f64, 2u32),
            (3, 2, 0.85, 3),
            (4, 3, 0.7, 2),
        ] {
            let sqd = Sqd::new(n, d, lam).unwrap();
            let exact = crate::brute::BruteForce::solve(n, d, lam, 32)
                .unwrap()
                .delay_distribution()
                .unwrap()
                .mean();
            let lo = sqd.delay_distribution(BoundKind::Lower, t).unwrap().mean();
            let hi = sqd.delay_distribution(BoundKind::Upper, t).unwrap().mean();
            assert!(
                lo <= exact + 5e-3 && exact <= hi + 1e-9,
                "N={n} d={d} λ={lam}: {lo} ≲ {exact} ≤ {hi} violated"
            );
            // Sharpness of the lower estimate.
            assert!((exact - lo).abs() / exact < 0.06, "loose: {lo} vs {exact}");
        }
    }

    #[test]
    fn delay_distribution_sandwich_pointwise() {
        // Upper survival dominates exact survival pointwise; lower
        // survival tracks it within the documented few-1e-3 band.
        let (n, d, lam, t) = (3usize, 2usize, 0.7f64, 3u32);
        let sqd = Sqd::new(n, d, lam).unwrap();
        let lo = sqd.delay_distribution(BoundKind::Lower, t).unwrap();
        let hi = sqd.delay_distribution(BoundKind::Upper, t).unwrap();
        let exact = crate::brute::BruteForce::solve(n, d, lam, 30)
            .unwrap()
            .delay_distribution()
            .unwrap();
        for i in 1..=60 {
            let x = i as f64 * 0.25;
            let (l, e, h) = (lo.survival(x), exact.survival(x), hi.survival(x));
            assert!(
                l <= e + 3e-3 && e <= h + 1e-9,
                "t={x}: {l} ≲ {e} ≤ {h} violated"
            );
        }
        // Percentiles inherit the order (with the same lower-side band).
        for &p in &[0.5, 0.9, 0.99] {
            let (ql, qe, qh) = (
                lo.quantile(p).unwrap(),
                exact.quantile(p).unwrap(),
                hi.quantile(p).unwrap(),
            );
            assert!(ql <= qe + 0.05 && qe <= qh + 1e-9, "p={p}: {ql} {qe} {qh}");
        }
    }

    #[test]
    fn result_diagnostics_populated() {
        let sqd = Sqd::new(3, 2, 0.5).unwrap();
        let r = sqd.upper_bound(2).unwrap();
        assert_eq!(r.level_states, 6); // C(4, 2)
        assert!(r.boundary_states > 0);
        assert!(r.g_iterations >= 1);
        assert!(r.waiting_jobs >= 0.0);
    }
}
