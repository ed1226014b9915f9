//! Sparse stationary solver: Gauss–Seidel with iterative
//! aggregation/disaggregation.
//!
//! [`null_vector_gs`] is the workspace's one sparse stationary solver.
//! The lumped QBD path (`slb-qbd`'s `SparseQbdBlocks`, the phase chain of
//! the drift test), the brute-force SQ(d) chain (`slb-core`'s
//! `BruteForce`), its MAP-modulated twin (`slb-mapph`'s `MapBrute`) and
//! the stationary law of the transient chain (`TransientSqd`) all call
//! it, each with class labels it already knows. They assemble finite
//! balance systems `π M = 0`, `π · w = 1` whose dimension reaches the
//! hundreds of thousands; a dense LU factorization is out of the question
//! there. The rows of `M` are
//! CTMC-like (nonnegative off-diagonal rates, strictly negative diagonal)
//! which makes the classical Gauss–Seidel splitting semiconvergent.
//!
//! Every iteration is a *symmetric* sweep: a forward pass over the states
//! followed by a backward pass (Stewart, *Introduction to the Numerical
//! Solution of Markov Chains*, 1994, ch. 3). A forward pass carries mass
//! up the state order through a whole chain of updates but down it by one
//! transition only; the backward pass does the reverse, so an iteration
//! moves mass both ways. One iteration costs two passes over `Mᵀ`. On the
//! phase chain of the SQ(d) upper model at `N = 16, T = 3` (with the
//! aggregation below) it needs 49 / 91 / 100 iterations at `ρ = 0.05 /
//! 0.25 / 0.45`, where forward-only sweeps needed 340 / 262 / 219.
//!
//! Plain iterations, however, resolve the *distribution of mass between*
//! distant groups of states only slowly: the iteration count follows the
//! chain's mixing time, not its utilization (the truncated upper model at
//! `N = 16, T = 3`, four levels, needs 45 iterations at `ρ = 0.05` and
//! 454 at `ρ = 0.45`).
//!
//! Iterative aggregation/disaggregation (IAD; Takahashi 1975; Stewart,
//! *Introduction to the Numerical Solution of Markov Chains*, 1994,
//! ch. 6) fixes exactly that part. The caller partitions the states into
//! classes ([`GsOptions::classes`]). Every fourth iteration the solver sums
//! the iterate into classes, builds the coarse `K × K` chain between
//! them from the current within-class shape, solves it exactly, and
//! rescales each class to its coarse mass. Gauss–Seidel then only has to
//! resolve the shape *within* a class. The coarse solve fixes the first
//! class's mass at 1, drops its equation, eliminates the rest without
//! pivoting and normalizes by the weights, which also covers balance
//! systems that are not generators. A coarse solve that meets a zero
//! pivot or yields a non-positive mass is skipped; the convergence test,
//! the true-residual check and the budget poll never see the difference.
//!
//! The classes must keep the chain's slow modes apart: aggregation only
//! fixes the mass *between* classes, so a slow mode inside one class is
//! left to plain Gauss–Seidel. The brute-force chains label states by
//! their job total; the MAP-modulated one needs `(total, phase)` labels,
//! because the modulating phase changes slowly (over job totals alone
//! its solve stalls at a residual near `2e-3` under a slow MMPP-2).
//!
//! The coarse chain is banded when one transition moves a state by only
//! a few classes (the bound models label states by their job total, and
//! a transition changes it by a few jobs): the balance equation of class
//! `I` involves classes `I − bl ..= I + bu` only. The solver measures
//! `(bl, bu)` over `Mᵀ` once per solve and eliminates inside the band,
//! `K·(bl+1)·(bu+1)` flops against `nnz` for one pass. While the band
//! solve costs more than `3·nnz` it merges adjacent class labels into
//! runs, so labels should number the classes in an order where
//! neighbours are close. A chain whose classes all talk to each other
//! (the bound models' phase chain) is the full-band case of the same
//! code.
//!
//! The solver consumes `Mᵀ` rather than `M`: row `i` of `Mᵀ` lists exactly
//! the balance equation of state `i` (all inflow terms of `π M = 0`),
//! which is what one Gauss–Seidel update needs contiguously.

use crate::budget::Budget;
use crate::sparse::CsrMatrix;
use crate::{LinalgError, Result};

/// Iterations between two aggregation/disaggregation steps (the first
/// step runs before the first iteration). A step costs about two passes.
/// On the SQ(d) bound models (`N = 16, T = 3`, the nine loads `ρ = 0.05
/// … 0.45`) periods 1 to 8 need nearly the same iterations (588 to 659
/// for the upper solves together); periods 1 and 2 pay for their extra
/// steps, and 4 to 6 take about the same time.
const IAD_PERIOD: usize = 4;

/// A converged left null vector of a balance system; see
/// [`null_vector_gs`].
#[derive(Debug, Clone, PartialEq)]
pub struct NullVector {
    /// The normalized solution `π ≥ 0` with `π · w = 1`.
    pub x: Vec<f64>,
    /// Final true residual `‖π M‖∞`.
    pub residual: f64,
    /// Symmetric Gauss–Seidel iterations performed; each is two passes
    /// over the matrix, one forward and one backward.
    pub sweeps: usize,
}

/// Options for [`null_vector_gs`].
#[derive(Debug, Clone, PartialEq)]
pub struct GsOptions<'a> {
    /// Scaled residual target `‖π M‖∞ / (‖M‖₁ · ‖π‖∞)`.
    pub tol: f64,
    /// Cap on symmetric iterations (each one forward and one backward
    /// pass); the solve fails with [`LinalgError::NoConvergence`] past
    /// it.
    pub max_sweeps: usize,
    /// Cooperative cancellation budget, polled once per iteration.
    pub budget: Budget,
    /// Class label of every state, for the aggregation step; `None` (or
    /// a single label) runs plain Gauss–Seidel. Labels need not be dense:
    /// unused labels are dropped.
    pub classes: Option<&'a [u32]>,
    /// Starting iterate (nonnegative, not all zero); `None` starts from
    /// the uniform vector.
    pub start: Option<&'a [f64]>,
}

impl Default for GsOptions<'_> {
    fn default() -> Self {
        GsOptions {
            tol: 1e-12,
            max_sweeps: 50_000,
            budget: Budget::unlimited(),
            classes: None,
            start: None,
        }
    }
}

/// Solves `π M = 0`, `π · weights = 1`, `π ≥ 0` by symmetric
/// Gauss–Seidel iterations (a forward then a backward pass) accelerated
/// by aggregation/disaggregation over [`GsOptions::classes`], given the
/// **transpose** `Mᵀ` of the balance matrix.
///
/// `M` must have CTMC balance structure: strictly negative diagonal and
/// nonnegative off-diagonal entries (so the update preserves nonnegativity
/// and the splitting is semiconvergent). Convergence is declared when the
/// scaled residual `‖π M‖∞ / (‖M‖₁ · ‖π‖∞)` drops below
/// [`GsOptions::tol`] and the true residual confirms it; the raw residual
/// is reported in [`NullVector::residual`]. `weights` must be strictly
/// positive. The budget is polled after every iteration's convergence
/// test, so an iteration that converged is returned even if the budget
/// expired during it.
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] if `mt` is not square.
/// * [`LinalgError::InvalidInput`] for a missing/nonnegative diagonal,
///   non-positive weights, or a class or start vector of the wrong
///   length (or a start vector that is negative, non-finite or zero).
/// * [`LinalgError::NoConvergence`] if the scaled residual is still above
///   the tolerance after [`GsOptions::max_sweeps`] iterations.
/// * [`LinalgError::Interrupted`] (carrying iterations done, the latest
///   backward-pass residual and elapsed time) when the budget trips
///   first.
///
/// # Examples
///
/// An M/M/1 queue truncated at 3 states (λ = 1, µ = 2): the stationary
/// vector is geometric with ratio ρ = 1/2.
///
/// ```
/// use slb_linalg::{null_vector_gs, CooBuilder, GsOptions};
///
/// // Generator M (rows sum to 0), assembled transposed: add(col, row, v).
/// let mut mt = CooBuilder::new(3, 3);
/// for (r, c, v) in [
///     (0, 0, -1.0), (0, 1, 1.0),
///     (1, 0, 2.0), (1, 1, -3.0), (1, 2, 1.0),
///     (2, 1, 2.0), (2, 2, -2.0),
/// ] {
///     mt.add(c, r, v).unwrap();
/// }
/// let opts = GsOptions { tol: 1e-14, ..GsOptions::default() };
/// let sol = null_vector_gs(&mt.build(), &[1.0; 3], &opts).unwrap();
/// let expect = [4.0 / 7.0, 2.0 / 7.0, 1.0 / 7.0];
/// for (got, want) in sol.x.iter().zip(expect) {
///     assert!((got - want).abs() < 1e-12);
/// }
/// assert!(sol.residual < 1e-12);
/// ```
pub fn null_vector_gs(mt: &CsrMatrix, weights: &[f64], opts: &GsOptions) -> Result<NullVector> {
    if !mt.is_square() {
        return Err(LinalgError::NotSquare { shape: mt.shape() });
    }
    let n = mt.rows();
    let invalid = |reason: String| Err(LinalgError::InvalidInput { reason });
    if weights.len() != n {
        return invalid(format!("{} weights for a {n}-state system", weights.len()));
    }
    if weights.iter().any(|&w| !w.is_finite() || w <= 0.0) {
        return invalid("normalization weights must be strictly positive and finite".into());
    }
    // Diagonal pivots of M (== diagonal of Mᵀ).
    let mut diag = vec![0.0; n];
    for (i, d) in diag.iter_mut().enumerate() {
        *d = mt.get(i, i);
        // NaN must fail too, so test for "not strictly negative".
        if d.is_nan() || *d >= 0.0 {
            return invalid(format!(
                "balance matrix needs a negative diagonal; row {i} has {d}"
            ));
        }
    }
    let mut agg = match opts.classes {
        Some(c) if c.len() != n => {
            return invalid(format!("{} class labels for a {n}-state system", c.len()));
        }
        Some(c) => Aggregation::new(c, mt),
        None => None,
    };
    let mut x = match opts.start {
        Some(s) if s.len() != n => {
            return invalid(format!("start vector of length {} for {n} states", s.len()));
        }
        Some(s) if s.iter().any(|&v| !v.is_finite() || v < 0.0) || s.iter().all(|&v| v == 0.0) => {
            return invalid("start vector must be nonnegative, finite and nonzero".into());
        }
        Some(s) => s.to_vec(),
        None => vec![1.0 / n as f64; n],
    };
    normalize(&mut x, weights);
    // ‖M‖∞ over rows of M = maximum absolute column sum of Mᵀ.
    let scale_m = mt.norm_one().max(f64::MIN_POSITIVE);

    let mut sweeps = 0;
    while sweeps < opts.max_sweeps {
        if sweeps % IAD_PERIOD == 0 {
            if let Some(agg) = agg.as_mut() {
                agg.step(mt, weights, &mut x);
            }
        }
        sweeps += 1;
        // One symmetric iteration: a forward pass, then a backward pass.
        // The backward pass's pre-update row sums are the balance
        // residuals of each equation under the current (mixed old/new)
        // iterate; their max converges to the true residual as the
        // updates die out, giving a free convergence signal without
        // another pass over the matrix.
        for i in 0..n {
            gs_update(mt, &diag, &mut x, i);
        }
        let mut sweep_res = 0.0_f64;
        for i in (0..n).rev() {
            sweep_res = sweep_res.max(gs_update(mt, &diag, &mut x, i).abs());
        }
        normalize(&mut x, weights);
        let x_inf = x.iter().fold(0.0_f64, |a, &b| a.max(b.abs()));
        let target = opts.tol * scale_m * x_inf.max(f64::MIN_POSITIVE);
        if sweep_res <= target {
            let residual = true_residual(mt, &x);
            if residual <= target {
                return Ok(NullVector {
                    x,
                    residual,
                    sweeps,
                });
            }
        }
        // Poll after the convergence test so an iteration that just
        // converged is returned rather than interrupted.
        opts.budget.check("null_vector_gs", sweeps, sweep_res)?;
    }
    Err(LinalgError::NoConvergence {
        method: "null_vector_gs",
        iterations: opts.max_sweeps,
        residual: true_residual(mt, &x),
    })
}

/// The class partition of one solve plus the scratch of its coarse
/// solves. Per-state indices are `u32` to keep the solve's footprint
/// near that of the matrix.
#[derive(Debug)]
struct Aggregation {
    /// Dense class index of every state, `0..k`.
    class: Vec<u32>,
    /// Per class: mass `Σ x_i`, weighted mass `Σ w_i x_i`, and the index
    /// among the classes with positive mass (or `OUT`).
    mass: Vec<f64>,
    wmass: Vec<f64>,
    active: Vec<u32>,
    /// Per state, the coarse index of its class (or `OUT`).
    coarse: Vec<u32>,
    /// Band of the coarse system `Cᵀ` in class units: the balance
    /// equation of class `I` involves classes `I − lower ..= I + upper`.
    lower: usize,
    upper: usize,
    /// `Cᵀ` in band storage: row `I` holds columns `I − lower ..= I +
    /// upper`, `lower + upper + 1` entries per row.
    band: Vec<f64>,
    /// Per coarse index: the weight per unit mass `ω_I` and the coarse
    /// solution `y_I`.
    omega: Vec<f64>,
    y: Vec<f64>,
}

/// Coarse index of a class left out of the coarse solve (no mass).
const OUT: u32 = u32::MAX;

impl Aggregation {
    /// Compacts the labels to `0..k` and measures the band of the coarse
    /// system over `mt`; merges runs of adjacent labels while the band
    /// elimination (`k·(lower+1)·(upper+1)` flops) costs more than one
    /// pass over `nnz` entries, counted as `3·nnz`. `None` when fewer
    /// than two classes remain.
    fn new(labels: &[u32], mt: &CsrMatrix) -> Option<Self> {
        let span = labels.iter().max().map_or(0, |&l| l as usize + 1);
        let mut rank = vec![OUT; span];
        for &l in labels {
            rank[l as usize] = 0;
        }
        let mut used = 0;
        for r in rank.iter_mut().filter(|r| **r == 0) {
            *r = used;
            used += 1;
        }
        let used = used as usize;
        let mut class: Vec<u32> = labels.iter().map(|&l| rank[l as usize]).collect();
        let (mut lower, mut upper) = band_of(mt, &class);
        // Merging `g` adjacent classes divides the band by `g`, rounded up.
        let cost = |g: usize| used.div_ceil(g) * (lower.div_ceil(g) + 1) * (upper.div_ceil(g) + 1);
        let group = (1..used.max(1))
            .find(|&g| cost(g) <= 3 * mt.nnz())
            .unwrap_or(used.max(1));
        let k = used.div_ceil(group);
        if k < 2 {
            return None;
        }
        if group > 1 {
            for c in &mut class {
                *c /= group as u32;
            }
            (lower, upper) = band_of(mt, &class);
        }
        Some(Aggregation {
            class,
            mass: vec![0.0; k],
            wmass: vec![0.0; k],
            active: vec![OUT; k],
            coarse: vec![OUT; labels.len()],
            lower,
            upper,
            band: vec![0.0; k * (lower + upper + 1)],
            omega: vec![0.0; k],
            y: vec![0.0; k],
        })
    }

    /// One aggregation/disaggregation step on `x`. With class masses
    /// `ξ_I = Σ_{i∈I} x_i`, the coarse chain `C[I][J] = Σ_{i∈I} x_i
    /// Σ_{j∈J} M_ij / ξ_I` is solved for `y C = 0`, `Σ y_I ω_I = 1`
    /// (`ω_I` the class's weight per unit mass), and each class is
    /// rescaled by `y_I / ξ_I`. The solve fixes `y₀ = 1`, drops class 0's
    /// equation, eliminates the rest of `Cᵀ` inside its band without
    /// pivoting, and normalizes. Classes without mass stay out; `x` is
    /// left as it is when fewer than two classes have mass or the coarse
    /// solve meets a zero pivot or a non-positive mass.
    fn step(&mut self, mt: &CsrMatrix, weights: &[f64], x: &mut [f64]) {
        self.mass.fill(0.0);
        self.wmass.fill(0.0);
        for ((&c, &xi), &w) in self.class.iter().zip(x.iter()).zip(weights) {
            self.mass[c as usize] += xi;
            self.wmass[c as usize] += w * xi;
        }
        let mut ka = 0;
        for (c, a) in self.active.iter_mut().enumerate() {
            *a = if self.mass[c] > 0.0 {
                self.omega[ka] = self.wmass[c] / self.mass[c];
                ka += 1;
                ka as u32 - 1
            } else {
                OUT
            };
        }
        if ka < 2 {
            return;
        }
        // Coarse index of every state's class, for one lookup per entry.
        for (s, &c) in self.coarse.iter_mut().zip(&self.class) {
            *s = self.active[c as usize];
        }
        // Dropping empty classes keeps the order, so the band still holds.
        let (lo, w) = (self.lower, self.lower + self.upper + 1);
        let band = &mut self.band[..ka * w];
        band.fill(0.0);
        // Row J of Cᵀ is the balance equation of class J. Row i of Mᵀ
        // lists the entries M_ji, which flow from class(j) to class(i);
        // column `from` of row `to` sits at offset `from + lo − to`.
        for (i, &to) in self.coarse.iter().enumerate() {
            if to == OUT {
                continue;
            }
            let row = &mut band[to as usize * w..(to as usize + 1) * w];
            for (j, v) in mt.row(i) {
                let from = self.coarse[j];
                if from != OUT {
                    row[from as usize + lo - to as usize] += x[j] * v;
                }
            }
        }
        for (c, &a) in self.active.iter().enumerate() {
            if a == OUT {
                continue;
            }
            let (a, inv) = (a as usize, 1.0 / self.mass[c]);
            for to in a.saturating_sub(self.upper)..ka.min(a + lo + 1) {
                band[to * w + a + lo - to] *= inv;
            }
        }
        let y = &mut self.y[..ka];
        if !solve_fixing_first(band, ka, lo, self.upper, y) {
            return;
        }
        let s: f64 = y.iter().zip(&self.omega).map(|(a, b)| a * b).sum();
        if !(s.is_finite() && s > 0.0) || y.iter().any(|&v| !(v.is_finite() && v > 0.0)) {
            return;
        }
        // Per class, the factor y_I / (s ξ_I) (1 for classes left out).
        for (m, &a) in self.mass.iter_mut().zip(&self.active) {
            *m = if a == OUT {
                1.0
            } else {
                y[a as usize] / (s * *m)
            };
        }
        for (xi, &c) in x.iter_mut().zip(&self.class) {
            *xi *= self.mass[c as usize];
        }
    }
}

/// Band `(lower, upper)` of the coarse system over `mt` under `class`:
/// the largest `class(i) − class(j)` and `class(j) − class(i)` over the
/// entries `(i, j)` of `mt`.
fn band_of(mt: &CsrMatrix, class: &[u32]) -> (usize, usize) {
    let (mut lower, mut upper) = (0, 0);
    for (i, &ci) in class.iter().enumerate() {
        for (j, _) in mt.row(i) {
            let cj = class[j];
            lower = lower.max(ci.saturating_sub(cj));
            upper = upper.max(cj.saturating_sub(ci));
        }
    }
    (lower as usize, upper as usize)
}

/// Solves `A y = 0` with `y₀ = 1` for the `k × k` band matrix `A` in
/// row-major band storage (`lower` sub- and `upper` superdiagonals): row
/// 0 is dropped, column 0 moves to the right-hand side, and the rest is
/// eliminated inside the band without pivoting. Without pivoting the
/// elimination creates no fill outside the band; it is stable for the
/// column diagonally dominant Z-matrices the coarse chains give.
/// Overwrites `a`; `false` on a zero or non-finite pivot.
fn solve_fixing_first(a: &mut [f64], k: usize, lower: usize, upper: usize, y: &mut [f64]) -> bool {
    let w = lower + upper + 1;
    // Entry (r, c) lives at a[r·w + lower + c − r].
    y[0] = 1.0;
    for (r, yr) in y.iter_mut().enumerate().skip(1) {
        *yr = if r <= lower {
            -a[r * w + lower - r]
        } else {
            0.0
        };
    }
    for p in 1..k {
        let pivot = a[p * w + lower];
        if pivot == 0.0 || !pivot.is_finite() {
            return false;
        }
        let len = upper.min(k - 1 - p);
        for r in p + 1..k.min(p + lower + 1) {
            let (head, tail) = a.split_at_mut(r * w);
            let f = tail[lower + p - r] / pivot;
            if f == 0.0 {
                continue;
            }
            let prow = &head[p * w + lower + 1..p * w + lower + 1 + len];
            let rrow = &mut tail[lower + p + 1 - r..lower + p + 1 - r + len];
            for (dst, &src) in rrow.iter_mut().zip(prow) {
                *dst -= f * src;
            }
            y[r] -= f * y[p];
        }
    }
    for p in (1..k).rev() {
        let len = upper.min(k - 1 - p);
        let row = &a[p * w + lower..p * w + lower + 1 + len];
        let s: f64 = row[1..].iter().zip(&y[p + 1..]).map(|(a, b)| a * b).sum();
        y[p] = (y[p] - s) / row[0];
    }
    true
}

/// Solves balance equation `i` of `Mᵀ` for `x_i` in place; returns its
/// residual before the update.
#[inline]
fn gs_update(mt: &CsrMatrix, diag: &[f64], x: &mut [f64], i: usize) -> f64 {
    let res: f64 = mt.row(i).map(|(j, v)| v * x[j]).sum();
    // The inflow `res − diag·x_i` is nonnegative up to round-off and
    // diag < 0, so clamping at 0 keeps the iterate nonnegative.
    x[i] = ((diag[i] * x[i] - res) / diag[i]).max(0.0);
    res
}

/// `‖π M‖∞ = ‖Mᵀ πᵀ‖∞`.
fn true_residual(mt: &CsrMatrix, x: &[f64]) -> f64 {
    let mut r = vec![0.0; x.len()];
    mt.mat_vec_into(x, &mut r);
    r.iter().fold(0.0_f64, |a, &b| a.max(b.abs()))
}

fn normalize(x: &mut [f64], weights: &[f64]) {
    let s: f64 = x.iter().zip(weights).map(|(a, w)| a * w).sum();
    if s > 0.0 {
        for v in x.iter_mut() {
            *v /= s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CooBuilder, Lu, Matrix};

    /// Birth–death generator transposed, with uniform weights.
    fn bd_mt(rates: &[(f64, f64)]) -> CsrMatrix {
        // rates[i] = (up_i, down_i) for states 0..n; boundary rates 0.
        let n = rates.len();
        let mut mt = CooBuilder::new(n, n);
        for (i, &(up, down)) in rates.iter().enumerate() {
            let mut out = 0.0;
            if i + 1 < n {
                mt.add(i + 1, i, up).unwrap();
                out += up;
            }
            if i > 0 {
                mt.add(i - 1, i, down).unwrap();
                out += down;
            }
            mt.add(i, i, -out).unwrap();
        }
        mt.build()
    }

    fn mm1_rates(rho: f64, n: usize) -> Vec<(f64, f64)> {
        (0..n)
            .map(|i| {
                (
                    if i + 1 < n { rho } else { 0.0 },
                    if i > 0 { 1.0 } else { 0.0 },
                )
            })
            .collect()
    }

    fn opts(tol: f64, max_sweeps: usize) -> GsOptions<'static> {
        GsOptions {
            tol,
            max_sweeps,
            ..GsOptions::default()
        }
    }

    #[test]
    fn truncated_mm1_geometric() {
        let rho = 0.8;
        let n = 40;
        let mt = bd_mt(&mm1_rates(rho, n));
        let sol = null_vector_gs(&mt, &vec![1.0; n], &opts(1e-13, 10_000)).unwrap();
        for i in 1..n {
            let ratio = sol.x[i] / sol.x[i - 1];
            assert!((ratio - rho).abs() < 1e-9, "state {i}: ratio {ratio}");
        }
        let mass: f64 = sol.x.iter().sum();
        assert!((mass - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_normalization_respected() {
        let rates = vec![(1.0, 0.0), (0.0, 2.0)];
        let mt = bd_mt(&rates);
        let w = vec![2.0, 4.0];
        for classes in [None, Some(&[0u32, 1][..])] {
            let o = GsOptions {
                classes,
                ..opts(1e-13, 1000)
            };
            let sol = null_vector_gs(&mt, &w, &o).unwrap();
            let dot: f64 = sol.x.iter().zip(&w).map(|(a, b)| a * b).sum();
            assert!((dot - 1.0).abs() < 1e-12);
            // Balance: x0 * 1 = x1 * 2.
            assert!((sol.x[0] - 2.0 * sol.x[1]).abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_nonnegative_diagonal() {
        let mut mt = CooBuilder::new(2, 2);
        mt.add(0, 0, 1.0).unwrap();
        mt.add(1, 1, -1.0).unwrap();
        let e = null_vector_gs(&mt.build(), &[1.0, 1.0], &opts(1e-10, 10));
        assert!(matches!(e, Err(LinalgError::InvalidInput { .. })));
    }

    #[test]
    fn cancelled_budget_interrupts_mid_solve() {
        use crate::CancelToken;
        let n = 200;
        let mt = bd_mt(&mm1_rates(0.999, n)); // slow contraction
        let token = CancelToken::new();
        token.cancel();
        let o = GsOptions {
            budget: Budget::unlimited().cancel_token(token),
            ..opts(1e-13, 100_000)
        };
        match null_vector_gs(&mt, &vec![1.0; n], &o) {
            Err(LinalgError::Interrupted {
                method, iterations, ..
            }) => {
                assert_eq!(method, "null_vector_gs");
                assert_eq!(iterations, 1, "aborts after the first sweep");
            }
            other => panic!("expected Interrupted, got {other:?}"),
        }
        // Without the budget the same system converges.
        assert!(null_vector_gs(&mt, &vec![1.0; n], &opts(1e-10, 1_000_000)).is_ok());
    }

    #[test]
    fn rejects_bad_weights() {
        let rates = vec![(1.0, 0.0), (0.0, 2.0)];
        let mt = bd_mt(&rates);
        let o = opts(1e-10, 10);
        assert!(null_vector_gs(&mt, &[1.0, 0.0], &o).is_err());
        assert!(null_vector_gs(&mt, &[1.0], &o).is_err());
    }

    #[test]
    fn rejects_bad_classes_and_start() {
        let mt = bd_mt(&[(1.0, 0.0), (0.0, 2.0)]);
        let o = opts(1e-10, 10);
        let bad_classes = GsOptions {
            classes: Some(&[0]),
            ..o.clone()
        };
        assert!(null_vector_gs(&mt, &[1.0, 1.0], &bad_classes).is_err());
        for start in [&[1.0][..], &[0.0, 0.0], &[1.0, -1.0], &[f64::NAN, 1.0]] {
            let bad_start = GsOptions {
                start: Some(start),
                ..o.clone()
            };
            assert!(null_vector_gs(&mt, &[1.0, 1.0], &bad_start).is_err());
        }
    }

    /// Dense GTH (Grassmann–Taksar–Heyman) elimination on the generator
    /// `M = (Mᵀ)ᵀ`: subtraction-free, so exact to round-off — the
    /// reference the iterative solve is held to.
    fn gth(mt: &CsrMatrix) -> Vec<f64> {
        let n = mt.rows();
        let mut q = mt.to_dense().transpose();
        for k in (1..n).rev() {
            let s: f64 = (0..k).map(|j| q[(k, j)]).sum();
            for i in 0..k {
                q[(i, k)] /= s;
            }
            for i in 0..k {
                for j in 0..k {
                    if i != j {
                        q[(i, j)] += q[(i, k)] * q[(k, j)];
                    }
                }
            }
        }
        let mut p = vec![0.0; n];
        p[0] = 1.0;
        for k in 1..n {
            p[k] = (0..k).map(|i| p[i] * q[(i, k)]).sum();
        }
        let s: f64 = p.iter().sum();
        p.iter().map(|v| v / s).collect()
    }

    /// A nearly completely decomposable chain: `blocks` dense clusters of
    /// `size` states with O(1) internal rates, joined in a ring by rates
    /// of order `eps`. Plain Gauss–Seidel needs ~1/eps sweeps to move
    /// mass between clusters; one aggregation step per period places it.
    fn nearly_decomposable(blocks: usize, size: usize, eps: f64) -> (CsrMatrix, Vec<u32>) {
        let n = blocks * size;
        let mut q = vec![vec![0.0; n]; n];
        for b in 0..blocks {
            for i in 0..size {
                for j in 0..size {
                    if i != j {
                        q[b * size + i][b * size + j] =
                            1.0 + ((3 * i + 5 * j + b) % 7) as f64 / 7.0;
                    }
                }
            }
            let next = (b + 1) % blocks;
            q[b * size + size - 1][next * size] = eps * (1.0 + b as f64);
            q[next * size][b * size + size - 1] = eps * 0.5;
        }
        let mut mt = CooBuilder::new(n, n);
        for (i, row) in q.iter().enumerate() {
            let out: f64 = row.iter().sum();
            for (j, &v) in row.iter().enumerate() {
                if v > 0.0 {
                    mt.add(j, i, v).unwrap();
                }
            }
            mt.add(i, i, -out).unwrap();
        }
        let classes = (0..n).map(|i| (i / size) as u32).collect();
        (mt.build(), classes)
    }

    #[test]
    fn aggregation_solves_nearly_decomposable_chain_in_few_sweeps() {
        let (mt, classes) = nearly_decomposable(6, 5, 1e-3);
        let n = mt.rows();
        let exact = gth(&mt);
        let plain = null_vector_gs(&mt, &vec![1.0; n], &opts(1e-13, 200_000)).unwrap();
        let iad_opts = GsOptions {
            classes: Some(&classes),
            ..opts(1e-13, 200_000)
        };
        let iad = null_vector_gs(&mt, &vec![1.0; n], &iad_opts).unwrap();
        for (i, (&got, &want)) in iad.x.iter().zip(&exact).enumerate() {
            assert!((got - want).abs() < 1e-12, "state {i}: {got} vs GTH {want}");
        }
        assert!(
            iad.sweeps * 20 < plain.sweeps,
            "aggregation {} sweeps vs plain {}",
            iad.sweeps,
            plain.sweeps
        );
        // One label for everything is plain Gauss–Seidel, sweep for sweep.
        let single = GsOptions {
            classes: Some(&vec![7; n]),
            ..opts(1e-13, 200_000)
        };
        let one = null_vector_gs(&mt, &vec![1.0; n], &single).unwrap();
        assert_eq!(one, plain);
    }

    /// A birth–death ring: the M/M/1 rates of [`mm1_rates`] plus a
    /// jump between the two ends, which makes every class talk to the
    /// first and last.
    fn ring_mt(rho: f64, n: usize) -> CsrMatrix {
        let mut q = vec![vec![0.0; n]; n];
        for i in 0..n - 1 {
            q[i][i + 1] = rho;
            q[i + 1][i] = 1.0;
        }
        q[n - 1][0] = 0.5;
        q[0][n - 1] = 0.25;
        generator_mt(&q)
    }

    /// `Mᵀ` of the generator with off-diagonal rates `q`.
    fn generator_mt(q: &[Vec<f64>]) -> CsrMatrix {
        let n = q.len();
        let mut mt = CooBuilder::new(n, n);
        for (i, row) in q.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if v > 0.0 {
                    mt.add(j, i, v).unwrap();
                }
            }
            mt.add(i, i, -row.iter().sum::<f64>()).unwrap();
        }
        mt.build()
    }

    #[test]
    fn class_merging_caps_the_coarse_system() {
        // The ring's band is full: 40 classes would cost 40·40·40 flops
        // against 3·nnz = 360. Runs of 7 labels leave 6 classes, whose
        // full band costs 6·6·6 = 216.
        let mt = ring_mt(0.9, 40);
        assert_eq!(mt.nnz(), 120);
        let labels: Vec<u32> = (0..40).map(|i| 2 * i).collect();
        let agg = Aggregation::new(&labels, &mt).unwrap();
        let k = agg.mass.len();
        assert_eq!(k, 6);
        assert_eq!((agg.lower, agg.upper), (5, 5));
        assert!(k * (agg.lower + 1) * (agg.upper + 1) <= 3 * mt.nnz());
        assert_eq!(&agg.class[..8], &[0, 0, 0, 0, 0, 0, 0, 1]);
        assert_eq!(agg.class[39], 5);
        // Merged classes still converge to the exact answer.
        let o = GsOptions {
            classes: Some(&labels),
            ..opts(1e-13, 10_000)
        };
        let sol = null_vector_gs(&mt, &vec![1.0; 40], &o).unwrap();
        for (i, (&got, &want)) in sol.x.iter().zip(&gth(&mt)).enumerate() {
            assert!((got - want).abs() < 1e-12, "state {i}: {got} vs GTH {want}");
        }
    }

    #[test]
    fn narrow_band_keeps_every_class() {
        // A birth–death chain's coarse band is (1, 1): 40 classes cost
        // 40·2·2 = 160 ≤ 3·nnz = 354, so no label is merged.
        let mt = bd_mt(&mm1_rates(0.9, 40));
        let labels: Vec<u32> = (0..40).map(|i| 2 * i).collect();
        let agg = Aggregation::new(&labels, &mt).unwrap();
        assert_eq!(agg.mass.len(), 40);
        assert_eq!((agg.lower, agg.upper), (1, 1));
        assert_eq!(agg.class, (0..40).collect::<Vec<u32>>());
        let o = GsOptions {
            classes: Some(&labels),
            ..opts(1e-13, 10_000)
        };
        let sol = null_vector_gs(&mt, &vec![1.0; 40], &o).unwrap();
        assert!((sol.x[1] / sol.x[0] - 0.9).abs() < 1e-9);
    }

    #[test]
    fn band_step_matches_a_dense_coarse_solve() {
        // Arrivals of one or two jobs, single departures: the balance
        // equation of state i involves states i−2 ..= i+1.
        let n = 12;
        let mut q = vec![vec![0.0; n]; n];
        for i in 0..n {
            if i + 1 < n {
                q[i][i + 1] = 0.4 + 0.05 * i as f64;
            }
            if i + 2 < n {
                q[i][i + 2] = 0.2;
            }
            if i > 0 {
                q[i][i - 1] = 1.0;
            }
        }
        let mt = generator_mt(&q);
        let labels: Vec<u32> = (0..n as u32).collect();
        let weights: Vec<f64> = (0..n).map(|i| 1.0 + 0.1 * i as f64).collect();
        let mut agg = Aggregation::new(&labels, &mt).unwrap();
        let k = agg.mass.len();
        assert_eq!((k, agg.lower, agg.upper), (12, 2, 1));
        // Any positive iterate that is not stationary.
        let x0: Vec<f64> = (0..n).map(|i| 1.0 + ((7 * i) % 5) as f64).collect();
        let mut x = x0.clone();
        agg.step(&mt, &weights, &mut x);

        // The same coarse chain, dense: C[I][J] = Σ_{i∈I} x_i Σ_{j∈J} M_ij / ξ_I,
        // solved with its first equation replaced by Σ y_I ω_I = 1.
        let class = |i: usize| labels[i] as usize;
        let mut xi = vec![0.0; k];
        let mut wxi = vec![0.0; k];
        for i in 0..n {
            xi[class(i)] += x0[i];
            wxi[class(i)] += weights[i] * x0[i];
        }
        let m = mt.to_dense().transpose();
        let mut ct = Matrix::zeros(k, k);
        for i in 0..n {
            for j in 0..n {
                ct[(class(j), class(i))] += x0[i] * m[(i, j)] / xi[class(i)];
            }
        }
        for c in 0..k {
            ct[(0, c)] = wxi[c] / xi[c];
        }
        let mut rhs = vec![0.0; k];
        rhs[0] = 1.0;
        let y = Lu::new(&ct).unwrap().solve_vec(&rhs).unwrap();
        let mut got = vec![0.0; k];
        for i in 0..n {
            got[class(i)] += x[i];
        }
        for (c, (&g, &want)) in got.iter().zip(&y).enumerate() {
            assert!(
                (g - want).abs() < 1e-13 * want,
                "class {c}: {g} vs dense {want}"
            );
        }
    }

    #[test]
    fn warm_start_is_used() {
        let n = 40;
        let mt = bd_mt(&mm1_rates(0.8, n));
        let cold = null_vector_gs(&mt, &vec![1.0; n], &opts(1e-13, 10_000)).unwrap();
        let warm_opts = GsOptions {
            start: Some(&cold.x),
            ..opts(1e-13, 10_000)
        };
        let warm = null_vector_gs(&mt, &vec![1.0; n], &warm_opts).unwrap();
        assert_eq!(warm.sweeps, 1, "a converged start needs one sweep");
    }
}
