//! Experiment families: the mapping from one expanded [`Job`] to its
//! result rows.
//!
//! Each family reproduces one of the repository's former one-off
//! experiment binaries (`crates/bench/src/bin/*`) as a pure function of
//! the job parameters — pure in the sense that the rows depend only on
//! the parameters, never on thread scheduling or execution order, which
//! is what makes both the cache and the deterministic-output guarantee
//! of the executor sound.

use std::fmt;

use slb_core::brute::BruteForce;
use slb_core::{asymptotic, BoundKind, BoundModel, CoreError, LumpedModel, Sqd};
use slb_linalg::{power_iteration, Budget, Workspace};
use slb_mapph::MapSqd;
use slb_markov::{Map, PhaseType};
use slb_qbd::{
    functional_iteration, logarithmic_reduction_in, GComputation, QbdError, SparseSolveOptions,
    Tail,
};
use slb_sim::{Policy, SimConfig, SimResult};

use crate::spec::Job;

/// A result row: one stringified cell per column of the family.
pub type Row = Vec<String>;

/// The experiment families the sweep engine knows how to run.
///
/// | family | former binary | what it reproduces |
/// |---|---|---|
/// | `bounds` | `fig10` | LB/sim/UB/asymptotic vs utilization (Fig. 10) |
/// | `asymptotic-error` | `fig9` | relative error of Eq. 16 vs `N` (Fig. 9) |
/// | `delay-tails` | `delay_tails` | sojourn-time percentiles, 4 solvers |
/// | `burstiness` | `burstiness` | bounds under MAP arrivals |
/// | `logred-iters` | `logred_iters` | §IV-A iteration-count claim |
/// | `theorem3` | `theorem3` | scalar-tail ablation diagnostics |
/// | `scaling` | — (new) | large-`N` simulator scaling, mean-field sandwich |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Lower/upper/simulated/asymptotic mean delay (Figure 10), the
    /// bounds from the occupancy-lumped solvers at every `N`.
    Bounds,
    /// Relative error of the asymptotic formula vs simulation (Figure 9).
    AsymptoticError,
    /// Sojourn-time percentiles: lower / exact / simulated / upper.
    DelayTails,
    /// Bounds under Markov-modulated and renewal arrivals.
    Burstiness,
    /// Logarithmic-reduction vs functional-iteration counts.
    LogredIters,
    /// Theorem-3 scalar-tail diagnostics.
    Theorem3,
    /// QBD bounds at production scale: the simulated mean delay under
    /// SQ(d) or JSQ sandwiched between the paper's **exact** lower and
    /// upper bound models, evaluated on the occupancy-lumped state
    /// space ([`Sqd::lower_bound_lumped`], [`Sqd::upper_bound_lumped`])
    /// whose block size `C(N+T−1, T)` is polynomial in `N` — thousands
    /// of servers instead of the dense solver's `N ≤ ~12`. Where the
    /// threshold-`T` upper model is not positive recurrent (fixed `T`
    /// at large `N`; the paper's known accuracy/complexity trade-off)
    /// the row reports `unstable` and only the lower side is checked.
    Scaling,
    /// One service-level point: the simulated mean delay *and* its
    /// p50/p90/p99 sojourn-time percentiles at `(policy, N, d, ρ)`,
    /// with the same O(1) mean-delay sandwich as [`Family::Scaling`].
    /// This is the evaluation primitive behind the capacity-planning
    /// queries of [`crate::query`]: "how many servers for arrival rate
    /// λ at a p99 SLO" bisects `N` over rows of this family.
    Service,
}

impl Family {
    /// Parses a family name as written in spec files.
    ///
    /// # Errors
    ///
    /// Lists the valid names when the input matches none.
    pub fn from_name(s: &str) -> Result<Self, String> {
        match s {
            "bounds" => Ok(Family::Bounds),
            "asymptotic-error" => Ok(Family::AsymptoticError),
            "delay-tails" => Ok(Family::DelayTails),
            "burstiness" => Ok(Family::Burstiness),
            "logred-iters" => Ok(Family::LogredIters),
            "theorem3" => Ok(Family::Theorem3),
            "scaling" => Ok(Family::Scaling),
            "service" => Ok(Family::Service),
            other => Err(format!(
                "unknown family '{other}' (expected bounds, asymptotic-error, delay-tails, \
                 burstiness, logred-iters, theorem3, scaling or service)"
            )),
        }
    }

    /// The spec-file name of the family.
    pub fn as_str(self) -> &'static str {
        match self {
            Family::Bounds => "bounds",
            Family::AsymptoticError => "asymptotic-error",
            Family::DelayTails => "delay-tails",
            Family::Burstiness => "burstiness",
            Family::LogredIters => "logred-iters",
            Family::Theorem3 => "theorem3",
            Family::Scaling => "scaling",
            Family::Service => "service",
        }
    }

    /// Column names of the rows this family emits.
    pub fn columns(self) -> &'static [&'static str] {
        match self {
            Family::Bounds => &[
                "n",
                "t",
                "d",
                "rho",
                "lower",
                "sim",
                "sim_ci",
                "upper",
                "asymptotic",
            ],
            Family::AsymptoticError => &[
                "rho",
                "d",
                "n",
                "sim_delay",
                "sim_ci",
                "asymptotic",
                "rel_error_pct",
            ],
            Family::DelayTails => &["n", "d", "t", "rho", "p", "lower", "exact", "sim", "upper"],
            Family::Burstiness => &[
                "n",
                "d",
                "t",
                "rho",
                "arrivals",
                "scv",
                "lower",
                "sim",
                "sim_ci",
                "upper",
                "tail_decay",
            ],
            Family::LogredIters => &[
                "n",
                "t",
                "d",
                "rho",
                "kind",
                "logred_iters",
                "logred_residual",
                "functional_iters",
            ],
            Family::Theorem3 => &[
                "n",
                "d",
                "rho",
                "t",
                "sp_r",
                "rho_n",
                "vec_residual",
                "delay_rel_diff",
            ],
            Family::Scaling => &[
                "policy",
                "n",
                "d",
                "t",
                "rho",
                "lower",
                "sim",
                "sim_ci",
                "upper",
                "max_queue",
            ],
            Family::Service => &[
                "policy",
                "n",
                "d",
                "rho",
                "lower",
                "sim",
                "sim_ci",
                "p50",
                "p90",
                "p99",
                "upper",
                "max_queue",
            ],
        }
    }

    /// Whether this family drives the discrete-event simulator (and thus
    /// receives the `jobs`/`replications`/`seed` defaults and the
    /// `SIM_REPLICATIONS` override).
    pub fn needs_sim(self) -> bool {
        !matches!(self, Family::LogredIters | Family::Theorem3)
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-thread scratch: one [`Workspace`] per QBD block shape, reused
/// across every job a thread executes. A utilization sweep at fixed
/// `(N, T)` revisits the same shape at every grid point, so after the
/// first job of a shape the dense solvers draw all their temporaries
/// from a warm pool.
#[derive(Debug, Default)]
struct Scratch {
    pools: Vec<(usize, Workspace)>,
}

impl Scratch {
    /// The workspace pool for `m × m` blocks, created on first use.
    fn square(&mut self, m: usize) -> &mut Workspace {
        if let Some(i) = self.pools.iter().position(|(s, _)| *s == m) {
            return &mut self.pools[i].1;
        }
        self.pools.push((m, Workspace::square(m)));
        &mut self.pools.last_mut().expect("just pushed").1
    }
}

thread_local! {
    /// The calling thread's [`Scratch`]: long-lived pool workers (sweep
    /// executor, `slb serve` handlers) keep their dense workspaces warm
    /// across every job they ever run, not just one batch.
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::new(Scratch::default());
}

/// Formats a float with 4 decimal places (the shared table precision).
fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Runs one job under a cooperative [`Budget`], returning its rows in
/// deterministic order. Every iterative solve and the simulator poll
/// the budget and abandon the job with an `interrupted: ...` error when
/// it trips; interrupted jobs are never cached ([`crate::CacheStore`]
/// only publishes `Ok` results), so a later uninterrupted run recomputes
/// them cleanly. Dense scratch comes from the calling thread's pool.
///
/// # Errors
///
/// Returns a message naming the family and the failing stage, or an
/// `interrupted: ...` message on a budget trip; infeasible points that
/// the old binaries silently skipped (e.g. `d > N` in the Figure-9 grid)
/// yield an empty row list instead of an error.
pub fn run_job(job: &Job, budget: &Budget) -> Result<Vec<Row>, String> {
    match job.family {
        Family::Bounds => run_bounds(job, budget),
        Family::AsymptoticError => run_asymptotic_error(job, budget),
        Family::DelayTails => run_delay_tails(job, budget),
        Family::Burstiness => run_burstiness(job, budget),
        Family::LogredIters => run_logred_iters(job, budget),
        Family::Theorem3 => run_theorem3(job),
        Family::Scaling => run_scaling(job, budget),
        Family::Service => run_service(job, budget),
    }
}

/// Splits a total job budget across replications, floored so degenerate
/// budgets still leave room for a warm-up prefix (the same rule the old
/// binaries applied via `slb_bench::rep_jobs`).
fn rep_jobs(total: u64, replications: usize) -> u64 {
    (total / replications.max(1) as u64).max(10)
}

/// Drives the simulator for one grid point. Replications run serially
/// (`n_threads = 1`): the sweep executor already parallelizes across
/// grid points, and `run_parallel`'s merge is thread-count independent,
/// so the merged statistics are identical either way.
fn run_sim(
    job: &Job,
    n: usize,
    rho: f64,
    policy: Policy,
    map: Option<&Map>,
    budget: &Budget,
) -> Result<SimResult, String> {
    let total = job.u64("jobs")?;
    let reps = job.usize("replications")?.max(1);
    let per_rep = rep_jobs(total, reps);
    let mut cfg = SimConfig::new(n, rho).map_err(|e| format!("sim config: {e}"))?;
    cfg.policy(policy)
        .jobs(per_rep)
        .warmup(per_rep / 10)
        .seed(job.derived_seed());
    if let Some(m) = map {
        cfg.arrival_map(m.clone());
    }
    cfg.run_parallel_budgeted(reps, 1, budget)
        .map_err(|e| format!("sim run: {e}"))
}

/// `bounds` (ex-`fig10`): LB / sim / UB / asymptotic at one `(N, T, ρ)`.
fn run_bounds(job: &Job, budget: &Budget) -> Result<Vec<Row>, String> {
    let n = job.usize("n")?;
    let d = job.usize("d")?;
    let t = job.u32("t")?;
    let rho = job.f64("rho")?;

    let sqd = Sqd::new(n, d, rho).map_err(|e| format!("bounds model: {e}"))?;
    // Where the upper-bound model is unstable (high utilization at small
    // T — the blow-up visible in the paper's plots) report `inf`.
    let (lb_cell, ub_cell) = lumped_sandwich(&sqd, t, budget, "inf")?;
    let sim = run_sim(job, n, rho, Policy::SqD { d }, None, budget)?;

    Ok(vec![vec![
        n.to_string(),
        t.to_string(),
        d.to_string(),
        f4(rho),
        lb_cell,
        f4(sim.mean_delay),
        f4(sim.ci_halfwidth),
        ub_cell,
        f4(sqd.asymptotic_delay()),
    ]])
}

/// `asymptotic-error` (ex-`fig9`): relative error of Eq. 16 vs sim.
fn run_asymptotic_error(job: &Job, budget: &Budget) -> Result<Vec<Row>, String> {
    let n = job.usize("n")?;
    let d = job.usize("d")?;
    let rho = job.f64("rho")?;
    if d > n {
        return Ok(Vec::new()); // cannot poll more servers than exist
    }
    let approx = asymptotic::mean_delay(rho, d);
    let sim = run_sim(job, n, rho, Policy::SqD { d }, None, budget)?;
    let rel = 100.0 * (sim.mean_delay - approx).abs() / sim.mean_delay;
    Ok(vec![vec![
        f4(rho),
        d.to_string(),
        n.to_string(),
        f4(sim.mean_delay),
        f4(sim.ci_halfwidth),
        f4(approx),
        f4(rel),
    ]])
}

/// `delay-tails` (ex-`delay_tails`): percentile rows for one `(N, T, ρ)`
/// — one row per requested percentile.
fn run_delay_tails(job: &Job, budget: &Budget) -> Result<Vec<Row>, String> {
    let n = job.usize("n")?;
    let d = job.usize("d")?;
    let t = job.u32("t")?;
    let rho = job.f64("rho")?;
    let percentiles = job.f64_list("percentiles")?;
    let cap = job.u32_or("cap", if rho > 0.9 { 60 } else { 35 })?;

    let sqd = Sqd::new(n, d, rho).map_err(|e| format!("model: {e}"))?;
    let lo = sqd
        .delay_distribution(BoundKind::Lower, t)
        .map_err(|e| format!("lower distribution: {e}"))?;
    let hi = sqd.delay_distribution(BoundKind::Upper, t).ok();
    let exact = BruteForce::solve(n, d, rho, cap)
        .map_err(|e| format!("brute force: {e}"))?
        .delay_distribution()
        .map_err(|e| format!("exact distribution: {e}"))?;
    let sim = run_sim(job, n, rho, Policy::SqD { d }, None, budget)?;

    let q = |dist: &slb_core::DelayDistribution, p: f64| {
        dist.quantile(p).map_err(|e| format!("quantile({p}): {e}"))
    };
    let mut rows = Vec::with_capacity(percentiles.len());
    for &p in &percentiles {
        let hi_cell = match &hi {
            Some(h) => f4(q(h, p)?),
            None => "unstable".to_string(),
        };
        rows.push(vec![
            n.to_string(),
            d.to_string(),
            t.to_string(),
            f4(rho),
            format!("{p}"),
            f4(q(&lo, p)?),
            f4(q(&exact, p)?),
            f4(sim
                .delay_quantile(p)
                .ok_or_else(|| "simulation measured no jobs".to_string())?),
            hi_cell,
        ]);
    }
    Ok(rows)
}

/// The arrival laws of the burstiness experiment, by spec-file name.
fn arrival_case(name: &str) -> Result<Map, String> {
    let err = |e| format!("arrival '{name}': {e}");
    match name {
        "poisson" => Map::poisson(1.0).map_err(err),
        "erlang2" => PhaseType::erlang(2, 2.0)
            .and_then(|ph| Map::renewal(&ph))
            .map_err(err),
        "mmpp-mild" => Map::mmpp2(0.5, 0.5, 0.5, 1.5).map_err(err),
        "mmpp-bursty" => Map::mmpp2(0.1, 0.1, 0.2, 4.0).map_err(err),
        other => Err(format!(
            "unknown arrival case '{other}' (expected poisson, erlang2, mmpp-mild or mmpp-bursty)"
        )),
    }
}

/// `burstiness`: bounds and simulation under one MAP arrival law.
fn run_burstiness(job: &Job, budget: &Budget) -> Result<Vec<Row>, String> {
    let n = job.usize("n")?;
    let d = job.usize("d")?;
    let t = job.u32("t")?;
    let rho = job.f64("rho")?;
    let map = arrival_case(job.str("arrival")?)?;

    let scv = map
        .interarrival_scv()
        .map_err(|e| format!("interarrival SCV: {e}"))?;
    let model = MapSqd::with_utilization(n, d, &map, rho).map_err(|e| format!("MAP model: {e}"))?;
    let lb = model
        .lower_bound(t)
        .map_err(|e| format!("lower bound: {e}"))?;
    let ub_cell = model
        .upper_bound(t)
        .map_or("unstable".to_string(), |u| f4(u.delay));
    let sim = run_sim(job, n, rho, Policy::SqD { d }, Some(&map), budget)?;

    Ok(vec![vec![
        n.to_string(),
        d.to_string(),
        t.to_string(),
        f4(rho),
        job.str("arrival")?.to_string(),
        f4(scv),
        f4(lb.delay),
        f4(sim.mean_delay),
        f4(sim.ci_halfwidth),
        ub_cell,
        f4(lb.tail_decay),
    ]])
}

/// Iteration cap of the `logred-iters` functional iteration; a point
/// that needs more prints `>2000000`.
const FUNCTIONAL_CAP: usize = 2_000_000;

/// `logred-iters`: the §IV-A "within k = 6" claim, against functional
/// iteration, drawing dense scratch from the thread's shared pool.
fn run_logred_iters(job: &Job, budget: &Budget) -> Result<Vec<Row>, String> {
    let n = job.usize("n")?;
    let d = job.usize("d")?;
    let t = job.u32("t")?;
    let rho = job.f64("rho")?;
    let kind = match job.str("kind")? {
        "lower" => BoundKind::Lower,
        "upper" => BoundKind::Upper,
        other => return Err(format!("unknown bound kind '{other}'")),
    };

    let sqd = Sqd::new(n, d, rho).map_err(|e| format!("model: {e}"))?;
    let model = BoundModel::new(sqd, kind, t).map_err(|e| format!("bound model: {e}"))?;
    let blocks = model.qbd_blocks().map_err(|e| format!("assembly: {e}"))?;
    // The G equation has a solution regardless of positive recurrence;
    // report iterations even for unstable UB cases.
    let lr = SCRATCH
        .with(|s| {
            let mut scratch = s.borrow_mut();
            let ws = scratch.square(blocks.level_len());
            logarithmic_reduction_in(&blocks, 1e-13, 64, ws, budget)
        })
        .map_err(|e| format!("logred: {e}"))?;
    let fi = functional_cell(functional_iteration(&blocks, 1e-12, FUNCTIONAL_CAP, budget))?;

    Ok(vec![vec![
        n.to_string(),
        t.to_string(),
        d.to_string(),
        f4(rho),
        job.str("kind")?.to_string(),
        lr.iterations.to_string(),
        format!("{:.3e}", lr.residual),
        fi,
    ]])
}

/// The `functional_iters` cell: the iteration count, or `>2000000` when
/// the cap ran out. Any other failure, an interruption included, fails
/// the job.
fn functional_cell(g: Result<GComputation, QbdError>) -> Result<String, String> {
    match g {
        Ok(g) => Ok(g.iterations.to_string()),
        Err(QbdError::NoConvergence { .. }) => Ok(format!(">{FUNCTIONAL_CAP}")),
        Err(e) => Err(format!("functional iteration: {}", CoreError::from(e))),
    }
}

/// `theorem3`: scalar-tail diagnostics for the lower-bound model.
fn run_theorem3(job: &Job) -> Result<Vec<Row>, String> {
    let n = job.usize("n")?;
    let d = job.usize("d")?;
    let t = job.u32("t")?;
    let rho = job.f64("rho")?;

    let sqd = Sqd::new(n, d, rho).map_err(|e| format!("model: {e}"))?;
    let model =
        BoundModel::new(sqd, BoundKind::Lower, t).map_err(|e| format!("bound model: {e}"))?;
    let blocks = model.qbd_blocks().map_err(|e| format!("assembly: {e}"))?;
    let sol = blocks
        .solve()
        .map_err(|e| format!("stationary solve: {e}"))?;

    let rho_n = rho.powi(n as i32);
    let sp_r = match sol.tail() {
        Tail::Matrix(r) => {
            power_iteration(r, 1e-13, 100_000)
                .map_err(|e| format!("power iteration: {e}"))?
                .eigenvalue
        }
        Tail::Scalar(b) => *b,
    };

    let pi1 = sol.level_prob(1);
    let pi2 = sol.level_prob(2);
    let num = pi2
        .iter()
        .zip(&pi1)
        .map(|(a, b)| (a - rho_n * b).abs())
        .fold(0.0_f64, f64::max);
    let den = pi2.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    let vec_res = if den > 0.0 { num / den } else { 0.0 };

    let fast = sqd
        .lower_bound(t)
        .map_err(|e| format!("scalar solve: {e}"))?
        .delay;
    let full = sqd
        .lower_bound_full_r(t)
        .map_err(|e| format!("full solve: {e}"))?
        .delay;
    let rel = (fast - full).abs() / full;

    Ok(vec![vec![
        n.to_string(),
        d.to_string(),
        format!("{rho}"),
        t.to_string(),
        format!("{sp_r:.12}"),
        format!("{rho_n:.12}"),
        format!("{vec_res:.3e}"),
        format!("{rel:.3e}"),
    ]])
}

/// `scaling`: the paper's delay sandwich at production `N`, computed on
/// the occupancy-lumped QBD state space. The lower bound uses the
/// Theorem-3 scalar tail (`β = ρᴺ`); the upper bound uses the sparse
/// decay-tail solver and degrades to an `unstable` cell where the
/// threshold-`T` upper model is not positive recurrent — the sandwich
/// check then verifies only `lower ≤ sim` for that row. JSQ rows poll
/// all `N` servers (`d = N` in the lumped model); the `d` column keeps
/// the spec value for grid identity.
fn run_scaling(job: &Job, budget: &Budget) -> Result<Vec<Row>, String> {
    let n = job.usize("n")?;
    let d = job.usize("d")?;
    let t = job.u32("t")?;
    let rho = job.f64("rho")?;
    let policy_name = job.str("policy")?;
    let Some(policy) = scaling_policy(policy_name, d, n)? else {
        return Ok(Vec::new());
    };
    // JSQ is SQ(N): every arrival polls all servers.
    let poll = if matches!(policy, Policy::Jsq) { n } else { d };
    let sqd = Sqd::new(n, poll, rho).map_err(|e| format!("scaling model: {e}"))?;
    let (lower, upper) = lumped_sandwich(&sqd, t, budget, "unstable")?;
    let sim = run_sim(job, n, rho, policy, None, budget)?;

    Ok(vec![vec![
        policy_name.to_string(),
        n.to_string(),
        d.to_string(),
        t.to_string(),
        f4(rho),
        lower,
        f4(sim.mean_delay),
        f4(sim.ci_halfwidth),
        upper,
        sim.max_queue_len.to_string(),
    ]])
}

/// The exact lumped-QBD mean-delay sandwich of `sqd` at threshold `t`,
/// both bound models over one enumerated state space. Returns the
/// lower- and upper-bound cells: the `unstable` cell (`inf` for
/// `bounds`, `unstable` for `scaling`) where the upper model's drift
/// condition fails — [`check_sandwich`] skips that side of the
/// comparison — and `nonconverged` where a solver exhausted its
/// iteration cap, which [`check_sandwich`] reports as a skipped row
/// status instead of comparing a last iterate that is not a bound. A
/// tripped budget aborts the job instead (`interrupted: ...`).
///
/// [`check_sandwich`]: crate::check_sandwich
fn lumped_sandwich(
    sqd: &Sqd,
    t: u32,
    budget: &Budget,
    unstable: &str,
) -> Result<(String, String), String> {
    let opts = SparseSolveOptions {
        budget: budget.clone(),
    };
    let model = LumpedModel::new_budgeted(*sqd, BoundKind::Lower, t, budget)
        .map_err(|e| format!("lumped lower bound: {e}"))?;
    let lower = match model.solve_scalar_tail(&opts) {
        Ok(r) => f4(r.delay),
        Err(CoreError::NonConverged { .. }) => "nonconverged".to_string(),
        Err(e) => return Err(format!("lumped lower bound: {e}")),
    };
    let upper = match model.with_kind(BoundKind::Upper).solve_truncated(&opts) {
        Ok(r) => f4(r.delay),
        Err(CoreError::UpperBoundUnstable { .. }) => unstable.to_string(),
        Err(CoreError::NonConverged { .. }) => "nonconverged".to_string(),
        Err(e) => return Err(format!("lumped upper bound: {e}")),
    };
    Ok((lower, upper))
}

/// Checks a scaling/service policy name against the policies
/// [`scaling_policy`] resolves.
pub(crate) fn check_policy(name: &str) -> Result<(), String> {
    match name {
        "sqd" | "jsq" => Ok(()),
        other => Err(format!("unknown policy '{other}' (expected sqd or jsq)")),
    }
}

/// Resolves the scaling/service policy name; `Ok(None)` marks an
/// infeasible point (`d > N` under SQ(d)) that the sweep skips, as the
/// asymptotic-error family does, instead of silently clamping `d`
/// while the row still prints the unclamped value.
fn scaling_policy(name: &str, d: usize, n: usize) -> Result<Option<Policy>, String> {
    check_policy(name)?;
    Ok(match name {
        "sqd" if d > n => None,
        "sqd" => Some(Policy::SqD { d }),
        _ => Some(Policy::Jsq),
    })
}

/// The O(1)-to-evaluate mean-delay sandwich valid at any `N`: the
/// mean-field delay (Eq. 16 for SQ(d); the bare unit service time for
/// JSQ, whose delay tends to 1 as `N → ∞`) from below, and the SQ(1)
/// random-routing M/M/1 delay `1/(1 − ρ)` from above. Only the
/// `service` family still uses this: a capacity query bisects `N`, so
/// its per-probe references must stay O(1); the `scaling` family
/// computes the exact lumped-QBD sandwich instead.
fn o1_sandwich(policy: Policy, rho: f64) -> (f64, f64) {
    let lower = match policy {
        Policy::SqD { d } => asymptotic::mean_delay(rho, d),
        _ => 1.0,
    };
    (lower, 1.0 / (1.0 - rho))
}

/// `service`: one service-level grid point — the scaling row extended
/// with the p50/p90/p99 sojourn-time percentiles the capacity planner
/// bisects against. Percentiles come from the simulation's delay
/// histogram (bin width 0.02 service units).
fn run_service(job: &Job, budget: &Budget) -> Result<Vec<Row>, String> {
    let n = job.usize("n")?;
    let d = job.usize("d")?;
    let rho = job.f64("rho")?;
    let policy_name = job.str("policy")?;
    let Some(policy) = scaling_policy(policy_name, d, n)? else {
        return Ok(Vec::new());
    };
    let (lower, upper) = o1_sandwich(policy, rho);
    let sim = run_sim(job, n, rho, policy, None, budget)?;
    let q = |p: f64| {
        sim.delay_quantile(p)
            .map(f4)
            .ok_or_else(|| "simulation measured no jobs".to_string())
    };

    Ok(vec![vec![
        policy_name.to_string(),
        n.to_string(),
        d.to_string(),
        f4(rho),
        f4(lower),
        f4(sim.mean_delay),
        f4(sim.ci_halfwidth),
        q(0.5)?,
        q(0.9)?,
        q(0.99)?,
        f4(upper),
        sim.max_queue_len.to_string(),
    ]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn job(family: Family, params: &[(&str, Value)]) -> Job {
        Job::new(
            family,
            0,
            params
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        )
    }

    #[test]
    fn family_names_roundtrip() {
        for f in [
            Family::Bounds,
            Family::AsymptoticError,
            Family::DelayTails,
            Family::Burstiness,
            Family::LogredIters,
            Family::Theorem3,
            Family::Scaling,
            Family::Service,
        ] {
            assert_eq!(Family::from_name(f.as_str()).unwrap(), f);
            assert!(!f.columns().is_empty());
        }
        assert!(Family::from_name("bogus").is_err());
    }

    #[test]
    fn service_row_orders_percentiles_and_sandwiches() {
        let j = job(
            Family::Service,
            &[
                ("n", Value::Int(16)),
                ("d", Value::Int(2)),
                ("rho", Value::Float(0.8)),
                ("policy", Value::Str("sqd".into())),
                ("jobs", Value::Int(60_000)),
                ("replications", Value::Int(2)),
                ("seed", Value::Int(7)),
            ],
        );
        let rows = run_job(&j, &Budget::unlimited()).unwrap();
        assert_eq!(rows.len(), 1);
        let cols = Family::Service.columns();
        assert_eq!(rows[0].len(), cols.len());
        let cell = |name: &str| -> f64 {
            rows[0][cols.iter().position(|c| *c == name).unwrap()]
                .parse()
                .unwrap()
        };
        assert!(cell("p50") <= cell("p90") && cell("p90") <= cell("p99"));
        assert!(cell("lower") <= cell("sim") + 0.1);
        assert!(cell("sim") <= cell("upper") + 0.1);
        // A second run on the now-warm thread scratch is identical.
        assert_eq!(run_job(&j, &Budget::unlimited()).unwrap(), rows);
        // Infeasible d > n skips, like scaling.
        let j = job(
            Family::Service,
            &[
                ("n", Value::Int(2)),
                ("d", Value::Int(4)),
                ("rho", Value::Float(0.5)),
                ("policy", Value::Str("sqd".into())),
                ("jobs", Value::Int(1_000)),
                ("replications", Value::Int(1)),
                ("seed", Value::Int(1)),
            ],
        );
        assert_eq!(
            run_job(&j, &Budget::unlimited()).unwrap(),
            Vec::<Row>::new()
        );
    }

    #[test]
    fn scaling_row_is_sandwiched_for_both_policies() {
        let cols = Family::Scaling.columns();
        let cell = |row: &Row, name: &str| -> f64 {
            row[cols.iter().position(|c| *c == name).unwrap()]
                .parse()
                .unwrap()
        };
        for policy in ["sqd", "jsq"] {
            let j = job(
                Family::Scaling,
                &[
                    ("n", Value::Int(8)),
                    ("d", Value::Int(2)),
                    ("t", Value::Int(3)),
                    ("rho", Value::Float(0.7)),
                    ("policy", Value::Str(policy.into())),
                    ("jobs", Value::Int(60_000)),
                    ("replications", Value::Int(2)),
                    ("seed", Value::Int(5)),
                ],
            );
            let rows = run_job(&j, &Budget::unlimited()).unwrap();
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0].len(), cols.len());
            let (lower, sim, upper) = (
                cell(&rows[0], "lower"),
                cell(&rows[0], "sim"),
                cell(&rows[0], "upper"),
            );
            // Both QBD bounds are finite here and the sim sits between
            // them (generous slack for the smoke-sized sim budget).
            assert!(
                lower <= sim + 0.1 && sim <= upper + 0.1,
                "{policy}: {rows:?}"
            );
            assert!(lower <= upper, "{policy}: {rows:?}");
        }
        // Where the threshold-T upper model loses positive recurrence
        // the row degrades to an `unstable` cell instead of failing —
        // check_sandwich then verifies only the lower side.
        let j = job(
            Family::Scaling,
            &[
                ("n", Value::Int(16)),
                ("d", Value::Int(2)),
                ("t", Value::Int(2)),
                ("rho", Value::Float(0.9)),
                ("policy", Value::Str("sqd".into())),
                ("jobs", Value::Int(20_000)),
                ("replications", Value::Int(1)),
                ("seed", Value::Int(5)),
            ],
        );
        let rows = run_job(&j, &Budget::unlimited()).unwrap();
        let upper_i = cols.iter().position(|c| *c == "upper").unwrap();
        assert_eq!(rows[0][upper_i], "unstable", "{rows:?}");
        assert!(cell(&rows[0], "lower") <= cell(&rows[0], "sim") + 0.1);
        // Unknown policies are reported, not panicked on.
        let j = job(
            Family::Scaling,
            &[
                ("n", Value::Int(8)),
                ("d", Value::Int(2)),
                ("t", Value::Int(2)),
                ("rho", Value::Float(0.5)),
                ("policy", Value::Str("lru".into())),
                ("jobs", Value::Int(1_000)),
                ("replications", Value::Int(1)),
                ("seed", Value::Int(1)),
            ],
        );
        assert!(run_job(&j, &Budget::unlimited())
            .unwrap_err()
            .contains("unknown policy"));
        // d > n under sqd is infeasible: skipped, like asymptotic-error.
        let j = job(
            Family::Scaling,
            &[
                ("n", Value::Int(4)),
                ("d", Value::Int(8)),
                ("t", Value::Int(2)),
                ("rho", Value::Float(0.5)),
                ("policy", Value::Str("sqd".into())),
                ("jobs", Value::Int(1_000)),
                ("replications", Value::Int(1)),
                ("seed", Value::Int(1)),
            ],
        );
        assert_eq!(
            run_job(&j, &Budget::unlimited()).unwrap(),
            Vec::<Row>::new()
        );
    }

    #[test]
    fn bounds_row_is_sandwiched() {
        let j = job(
            Family::Bounds,
            &[
                ("n", Value::Int(3)),
                ("t", Value::Int(3)),
                ("d", Value::Int(2)),
                ("rho", Value::Float(0.7)),
                ("jobs", Value::Int(40_000)),
                ("replications", Value::Int(2)),
                ("seed", Value::Int(1)),
            ],
        );
        let rows = run_job(&j, &Budget::unlimited()).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].len(), Family::Bounds.columns().len());
        let lower: f64 = rows[0][4].parse().unwrap();
        let sim: f64 = rows[0][5].parse().unwrap();
        let upper: f64 = rows[0][7].parse().unwrap();
        assert!(lower <= sim + 0.1 && sim <= upper + 0.1, "{rows:?}");
    }

    #[test]
    fn asymptotic_error_skips_infeasible_points() {
        let j = job(
            Family::AsymptoticError,
            &[
                ("n", Value::Int(3)),
                ("d", Value::Int(5)),
                ("rho", Value::Float(0.75)),
            ],
        );
        assert_eq!(
            run_job(&j, &Budget::unlimited()).unwrap(),
            Vec::<Row>::new()
        );
    }

    #[test]
    fn logred_iters_uses_shared_scratch() {
        let shapes = || SCRATCH.with(|s| s.borrow().pools.len());
        let j = job(
            Family::LogredIters,
            &[
                ("n", Value::Int(3)),
                ("t", Value::Int(2)),
                ("d", Value::Int(2)),
                ("rho", Value::Float(0.7)),
                ("kind", Value::Str("lower".into())),
            ],
        );
        let first = run_job(&j, &Budget::unlimited()).unwrap();
        let warmed = shapes();
        assert!(warmed >= 1);
        // Re-running on the warm pool is deterministic and adds no shape.
        assert_eq!(run_job(&j, &Budget::unlimited()).unwrap(), first);
        assert_eq!(shapes(), warmed);
        let iters: usize = first[0][5].parse().unwrap();
        assert!(iters <= 8, "logred should converge within ~6: {first:?}");
    }

    #[test]
    fn functional_iteration_cap_is_a_cell_but_an_interruption_fails_the_job() {
        let sqd = Sqd::new(3, 2, 0.9).unwrap();
        let blocks = BoundModel::new(sqd, BoundKind::Lower, 2)
            .unwrap()
            .qbd_blocks()
            .unwrap();
        let capped = functional_iteration(&blocks, 1e-12, 3, &Budget::unlimited());
        assert!(matches!(capped, Err(QbdError::NoConvergence { .. })));
        assert_eq!(
            functional_cell(capped).unwrap(),
            format!(">{FUNCTIONAL_CAP}")
        );
        let expired = Budget::with_deadline(std::time::Duration::ZERO);
        let interrupted = functional_iteration(&blocks, 1e-12, FUNCTIONAL_CAP, &expired);
        assert!(matches!(interrupted, Err(QbdError::Interrupted { .. })));
        let err = functional_cell(interrupted).unwrap_err();
        assert!(err.contains("interrupted:"), "{err}");
    }

    #[test]
    fn an_expired_budget_interrupts_every_budgeted_family() {
        // `theorem3` is left out: its dense solves take no budget.
        let sim = [
            ("jobs", Value::Int(20_000)),
            ("replications", Value::Int(1)),
            ("seed", Value::Int(3)),
        ];
        let point = [
            ("n", Value::Int(3)),
            ("d", Value::Int(2)),
            ("t", Value::Int(2)),
            ("rho", Value::Float(0.6)),
        ];
        let cases: [(Family, &[(&str, Value)]); 7] = [
            (Family::Bounds, &[]),
            (Family::AsymptoticError, &[]),
            (
                Family::DelayTails,
                &[
                    ("percentiles", Value::List(vec![Value::Float(0.9)])),
                    ("cap", Value::Int(12)),
                ],
            ),
            (
                Family::Burstiness,
                &[("arrival", Value::Str("mmpp-mild".into()))],
            ),
            (Family::LogredIters, &[("kind", Value::Str("upper".into()))]),
            (Family::Scaling, &[("policy", Value::Str("sqd".into()))]),
            (Family::Service, &[("policy", Value::Str("sqd".into()))]),
        ];
        let expired = Budget::with_deadline(std::time::Duration::ZERO);
        for (family, extra) in cases {
            let mut params: Vec<(&str, Value)> = point.to_vec();
            params.extend(sim.iter().cloned());
            params.extend(extra.iter().cloned());
            let err = run_job(&job(family, &params), &expired).unwrap_err();
            assert!(err.contains("interrupted"), "{family}: {err}");
        }
    }

    #[test]
    fn runner_errors_name_the_stage() {
        let j = job(Family::Bounds, &[("n", Value::Int(3))]);
        let err = run_job(&j, &Budget::unlimited()).unwrap_err();
        assert!(err.contains("missing parameter"), "{err}");
        let j = job(
            Family::Burstiness,
            &[
                ("n", Value::Int(3)),
                ("d", Value::Int(2)),
                ("t", Value::Int(3)),
                ("rho", Value::Float(0.5)),
                ("arrival", Value::Str("weird".into())),
            ],
        );
        assert!(run_job(&j, &Budget::unlimited())
            .unwrap_err()
            .contains("unknown arrival case"));
    }
}
