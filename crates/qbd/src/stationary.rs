//! Stationary analysis of the QBD: Theorem 1 (matrix-geometric tail) and
//! the Theorem 2/3 scalar-tail shortcut of the paper.
//!
//! With blocks `(R00, R01, R10, A0, A1, A2)` and rate matrix `R`, the
//! stationary vector `(π_b, π_0, π_1, π_2, …)` satisfies `π_{q+1} = π_q R`
//! for `q ≥ 1` and the finite balance system
//!
//! ```text
//!                      ⎡ R00  R01      0     ⎤
//! (π_b, π_0, π_1)  ·   ⎢ R10  A1      A0     ⎥  =  0
//!                      ⎣  0   A2   A1 + R·A2 ⎦
//! ```
//!
//! normalized by `π_b e + π_0 e + π_1 (I − R)⁻¹ e = 1`.
//!
//! For the paper's **lower-bound model** Theorem 3 shows `R` can be
//! replaced by the scalar `ρᴺ` (more generally `σᴺ`, Theorem 2), removing
//! the `G`/`R` computation entirely; [`QbdBlocks::solve_with_scalar_tail`]
//! implements that dramatically cheaper path.

use slb_linalg::{null_vector_gs, vector, CooBuilder, CsrMatrix, Lu, Matrix};

use crate::lumped::{add_csr_block_transposed, SparseQbdBlocks, SparseSolveOptions};
use crate::{logarithmic_reduction, rate_matrix, QbdBlocks, QbdError, Result};

/// Geometric tail operator of a solved QBD.
#[derive(Debug, Clone, PartialEq)]
pub enum Tail {
    /// `π_{q+1} = π_q · R` (Theorem 1).
    Matrix(Matrix),
    /// `π_{q+1} = β · π_q` (Theorems 2–3; `β = σᴺ`, `= ρᴺ` for Poisson).
    Scalar(f64),
}

/// Convergence tolerance of the logarithmic reduction for `G` in
/// [`QbdBlocks::solve`].
const G_TOL: f64 = 1e-14;

/// Iteration cap of that reduction: each doubling squares the horizon,
/// so 64 iterations cover `2⁶⁴` levels.
const G_MAX_ITER: usize = 64;

/// Absolute residual `‖π M‖∞` above which the boundary solve falls back
/// from the fast replace-one-equation path to least squares.
const RESIDUAL_TOL: f64 = 1e-8;

/// Absolute residual above which even the least-squares boundary solve
/// is rejected as [`QbdError::NoConvergence`].
const MAX_RESIDUAL: f64 = 1e-6;

/// The stationary distribution of a QBD, in the factored form
/// `(π_b, π_0, π_1, tail)`.
///
/// Probabilities of deeper levels are generated on demand via
/// [`QbdStationary::level_prob`]; expectations of costs that grow linearly
/// with the level are evaluated in closed form by
/// [`QbdStationary::mean_linear_cost`].
#[derive(Debug, Clone, PartialEq)]
pub struct QbdStationary {
    boundary: Vec<f64>,
    level0: Vec<f64>,
    level1: Vec<f64>,
    tail: Tail,
    /// `‖π M‖∞` of the solved finite system — a quality certificate.
    residual: f64,
    /// Iterations used by the G computation (0 for the scalar-tail path).
    g_iterations: usize,
}

impl QbdStationary {
    /// Stationary probabilities of the boundary states.
    pub fn boundary(&self) -> &[f64] {
        &self.boundary
    }

    /// Stationary probabilities of repeating level `q` (0-based).
    pub fn level_prob(&self, q: usize) -> Vec<f64> {
        match q {
            0 => self.level0.clone(),
            1 => self.level1.clone(),
            _ => match &self.tail {
                Tail::Matrix(r) => {
                    // Two ping-pong buffers; the level walk allocates
                    // nothing beyond them.
                    let mut v = self.level1.clone();
                    let mut next = vec![0.0; v.len()];
                    for _ in 1..q {
                        r.vec_mat_into(&v, &mut next);
                        std::mem::swap(&mut v, &mut next);
                    }
                    v
                }
                Tail::Scalar(b) => vector::scale(&self.level1, b.powi(q as i32 - 1)),
            },
        }
    }

    /// The tail operator.
    pub fn tail(&self) -> &Tail {
        &self.tail
    }

    /// Residual `‖π M‖∞` of the finite balance system.
    pub fn residual(&self) -> f64 {
        self.residual
    }

    /// Iterations used by the logarithmic reduction (0 when the scalar
    /// tail was supplied).
    pub fn g_iterations(&self) -> usize {
        self.g_iterations
    }

    /// Total probability mass `π_b e + Σ_q π_q e`; equals 1 up to
    /// round-off and is exposed as a sanity check.
    pub fn total_mass(&self) -> f64 {
        let (s, _) = self.tail_sums();
        vector::sum(&self.boundary) + vector::sum(&self.level0) + vector::sum(&s)
    }

    /// `(Σ_{q≥1} π_q, Σ_{q≥1} q·π_q)` in closed form.
    fn tail_sums(&self) -> (Vec<f64>, Vec<f64>) {
        match &self.tail {
            Tail::Matrix(r) => {
                // (I−R)ᵀ assembled in place from Rᵀ, without an identity
                // temporary. Row-vector solves:
                // x (I−R) = π₁  ⇔  (I−R)ᵀ xᵀ = π₁ᵀ.
                let mut i_minus_r_t = r.transpose();
                i_minus_r_t.scale_in_place(-1.0);
                i_minus_r_t
                    .add_assign_scaled_identity(1.0)
                    .expect("R is square");
                let lu = Lu::new(&i_minus_r_t).expect("I − R must be nonsingular");
                let s = lu.solve_vec(&self.level1).expect("tail sum solve");
                let qs = lu.solve_vec(&s).expect("weighted tail sum solve");
                (s, qs)
            }
            Tail::Scalar(b) => {
                let s = vector::scale(&self.level1, 1.0 / (1.0 - b));
                let qs = vector::scale(&self.level1, 1.0 / ((1.0 - b) * (1.0 - b)));
                (s, qs)
            }
        }
    }

    /// Expectation of a cost that is `c_b(i)` on boundary state `i` and
    /// `c0(j) + q·growth(j)` on state `j` of repeating level `q`.
    ///
    /// This covers every metric in the paper: for the number of waiting
    /// jobs, `growth ≡ N` because moving one level up adds one job to each
    /// of the `N` (all busy) servers.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match the block sizes.
    pub fn mean_linear_cost(&self, c_b: &[f64], c0: &[f64], growth: &[f64]) -> f64 {
        assert_eq!(c_b.len(), self.boundary.len(), "boundary cost length");
        assert_eq!(c0.len(), self.level0.len(), "level cost length");
        assert_eq!(growth.len(), self.level0.len(), "growth length");
        let (s, qs) = self.tail_sums();
        vector::dot(&self.boundary, c_b)
            + vector::dot(&self.level0, c0)
            + vector::dot(&s, c0)
            + vector::dot(&qs, growth)
    }

    /// Probability mass of repeating level `q` (`Σ_j π_q(j)`).
    pub fn level_mass(&self, q: usize) -> f64 {
        vector::sum(&self.level_prob(q))
    }

    /// Visits the repeating levels in order, passing `(q, π_q)` to `f`,
    /// until the remaining level mass drops below `tail_tol`. The
    /// geometric tail guarantees termination after
    /// `O(log(1/tail_tol) / log(1/decay))` levels.
    ///
    /// This is the building block for expectations of costs with an
    /// arbitrary level structure that need the whole *vector* per level
    /// (e.g. the waiting-time distribution's mixture weights); scalar
    /// costs should prefer [`QbdStationary::mean_cost_per_level`].
    ///
    /// # Panics
    ///
    /// Panics unless `tail_tol ∈ (0, 1)`.
    pub fn for_each_level<F>(&self, tail_tol: f64, mut f: F)
    where
        F: FnMut(usize, &[f64]),
    {
        assert!(
            tail_tol > 0.0 && tail_tol < 1.0,
            "tail tolerance must be in (0, 1)"
        );
        f(0, &self.level0);
        let mut v = self.level1.clone();
        let mut next = vec![0.0; v.len()];
        let mut q = 1usize;
        while vector::sum(&v) >= tail_tol {
            f(q, &v);
            match &self.tail {
                Tail::Matrix(r) => {
                    r.vec_mat_into(&v, &mut next);
                    std::mem::swap(&mut v, &mut next);
                }
                Tail::Scalar(b) => vector::scale_in_place(&mut v, *b),
            }
            q += 1;
            debug_assert!(q < 100_000, "tail failed to decay");
        }
    }

    /// Expectation of a cost with an arbitrary (not necessarily linear)
    /// level dependence: `Σ_b π_b(i)·c_b(i) + Σ_q Σ_j π_q(j)·cost(q, j)`.
    ///
    /// Levels are summed until the remaining tail mass drops below
    /// `tail_tol`; because the tail is geometric this terminates after
    /// `O(log(1/tail_tol) / log(1/decay))` levels. Costs must be bounded
    /// (or at most polynomially growing) for the truncation to be
    /// meaningful; for *linear* costs prefer the closed-form
    /// [`QbdStationary::mean_linear_cost`].
    ///
    /// # Panics
    ///
    /// Panics if `c_b` has the wrong length or `tail_tol` is not in
    /// `(0, 1)`.
    pub fn mean_cost_per_level<F>(&self, c_b: &[f64], cost: F, tail_tol: f64) -> f64
    where
        F: Fn(usize, usize) -> f64,
    {
        assert_eq!(c_b.len(), self.boundary.len(), "boundary cost length");
        assert!(
            tail_tol > 0.0 && tail_tol < 1.0,
            "tail tolerance must be in (0, 1)"
        );
        let m = self.level0.len();
        let mut total = vector::dot(&self.boundary, c_b);
        // Level 0.
        for (j, &p) in self.level0.iter().enumerate() {
            total += p * cost(0, j);
        }
        // Levels q >= 1: iterate the tail operator in place.
        let mut v = self.level1.clone();
        let mut next = vec![0.0; v.len()];
        let mut q = 1usize;
        loop {
            let mass = vector::sum(&v);
            if mass < tail_tol {
                break;
            }
            for (j, &p) in v.iter().enumerate() {
                total += p * cost(q, j);
            }
            match &self.tail {
                Tail::Matrix(r) => {
                    r.vec_mat_into(&v, &mut next);
                    std::mem::swap(&mut v, &mut next);
                }
                Tail::Scalar(b) => vector::scale_in_place(&mut v, *b),
            }
            q += 1;
            debug_assert!(q < 100_000, "tail failed to decay");
            let _ = m;
        }
        total
    }
}

impl QbdBlocks {
    /// Solves the QBD by the full matrix-geometric method (Theorem 1):
    /// logarithmic reduction for `G`, then `R`, then the finite boundary
    /// system.
    ///
    /// # Errors
    ///
    /// * [`QbdError::Unstable`] if Neuts' drift condition fails.
    /// * [`QbdError::NoConvergence`] from the `G` computation.
    /// * [`QbdError::Linalg`] if the boundary system is singular.
    pub fn solve(&self) -> Result<QbdStationary> {
        let (up, down) = self.drifts()?;
        if up >= down {
            return Err(QbdError::Unstable {
                up_drift: up,
                down_drift: down,
            });
        }
        let g = logarithmic_reduction(self, G_TOL, G_MAX_ITER)?;
        let r = rate_matrix(self, &g.g)?;
        let sol = self.solve_boundary(Tail::Matrix(r))?;
        Ok(QbdStationary {
            g_iterations: g.iterations,
            ..sol
        })
    }

    /// Solves the QBD assuming the scalar geometric tail
    /// `π_{q+1} = β·π_q` (Theorems 2–3 of the paper; for the lower-bound
    /// model with Poisson arrivals `β = ρᴺ`).
    ///
    /// This skips the `G`/`R` computation entirely — the "dramatic"
    /// complexity reduction of Section IV-B.
    ///
    /// # Errors
    ///
    /// * [`QbdError::InvalidBlocks`] if `β ∉ (0, 1)`.
    /// * [`QbdError::Linalg`] if the boundary system is singular.
    pub fn solve_with_scalar_tail(&self, beta: f64) -> Result<QbdStationary> {
        if !(0.0..1.0).contains(&beta) || beta == 0.0 {
            return Err(QbdError::InvalidBlocks {
                reason: format!("scalar tail β must lie in (0, 1), got {beta}"),
            });
        }
        self.solve_boundary(Tail::Scalar(beta))
    }

    /// Builds and solves the finite system
    /// `(π_b, π_0, π_1)·M = 0`, `π_b e + π_0 e + π_1 w = 1`
    /// where the third block column of `M` is `A1 + R A2` (or
    /// `A1 + β A2`) and `w = (I−R)⁻¹ e` (or `e/(1−β)`).
    fn solve_boundary(&self, tail: Tail) -> Result<QbdStationary> {
        let nb = self.boundary_len();
        let m = self.level_len();
        let k = nb + 2 * m;

        // Tail column `A1 + R·A2` (or `A1 + β·A2`) and the tail weight
        // `w = (I−R)⁻¹e` (or `e/(1−β)`), formed on the in-place kernel:
        // one scratch matrix, no expression-tree temporaries.
        let mut tail_block = Matrix::zeros(m, m);
        match &tail {
            Tail::Matrix(r) => {
                r.mul_into(self.a2(), &mut tail_block)?;
            }
            Tail::Scalar(b) => {
                tail_block.copy_from(self.a2());
                tail_block.scale_in_place(*b);
            }
        }
        tail_block += self.a1();
        let w = match &tail {
            Tail::Matrix(r) => {
                let mut i_minus_r = r.scale(-1.0);
                i_minus_r.add_assign_scaled_identity(1.0)?;
                i_minus_r.solve_vec(&vec![1.0; m])?
            }
            Tail::Scalar(b) => vec![1.0 / (1.0 - b); m],
        };

        // Assemble M (the finite balance system) through the shared
        // sparse builder: the system is block-tridiagonal, so the CSR
        // form both feeds the residual checks at O(nnz) and densifies
        // into exactly the matrix the LU boundary solve needs.
        let mut coo = CooBuilder::new(k, k);
        let ok = "balance block in range";
        coo.add_dense_block(0, 0, self.r00()).expect(ok);
        coo.add_dense_block(0, nb, self.r01()).expect(ok);
        coo.add_dense_block(nb, 0, self.r10()).expect(ok);
        coo.add_dense_block(nb, nb, self.a1()).expect(ok);
        coo.add_dense_block(nb, nb + m, self.a0()).expect(ok);
        coo.add_dense_block(nb + m, nb, self.a2()).expect(ok);
        coo.add_dense_block(nb + m, nb + m, &tail_block).expect(ok);
        let sparse = coo.build();
        let big = sparse.to_dense();

        // Normalization coefficients n = [e_b ; e_0 ; w].
        let mut norm = vec![1.0; k];
        norm[nb + m..].copy_from_slice(&w);

        // Fast path: replace balance equation 0 with the normalization and
        // solve the transposed square system.
        let pi = match solve_replacing_equation(&big, &norm) {
            Ok(pi) if residual_of(&sparse, &pi) <= RESIDUAL_TOL => pi,
            _ => solve_least_squares(&big, &norm)?,
        };

        let res = residual_of(&sparse, &pi);
        if res > MAX_RESIDUAL {
            return Err(QbdError::NoConvergence {
                method: "qbd_boundary_solve",
                iterations: 1,
                residual: res,
            });
        }

        let mut boundary = pi[..nb].to_vec();
        let mut level0 = pi[nb..nb + m].to_vec();
        let mut level1 = pi[nb + m..].to_vec();
        // Stationary vectors are nonnegative; clamp round-off only.
        vector::clamp_nonnegative(&mut boundary, 1e-8);
        vector::clamp_nonnegative(&mut level0, 1e-8);
        vector::clamp_nonnegative(&mut level1, 1e-8);

        Ok(QbdStationary {
            boundary,
            level0,
            level1,
            tail,
            residual: res,
            g_iterations: 0,
        })
    }
}

impl SparseQbdBlocks {
    /// Sparse twin of [`QbdBlocks::solve_with_scalar_tail`]: solves the
    /// QBD assuming the scalar geometric tail `π_{q+1} = β·π_q`
    /// (Theorems 2–3 of the paper; `β = ρᴺ` for the Poisson lower-bound
    /// model), with the finite balance system kept in CSR form and
    /// solved by Gauss–Seidel with aggregation over the blocks' classes
    /// (level 1 standing for the whole tail) instead of LU.
    ///
    /// The assembled system and normalization are *identical* to the
    /// dense path — `(π_b, π_0, π_1)·M = 0` with tail column `A1 + β·A2`
    /// and weight `w = e/(1−β)` — so the two paths agree to solver
    /// tolerance wherever both run.
    ///
    /// # Errors
    ///
    /// * [`QbdError::InvalidBlocks`] if `β ∉ (0, 1)`.
    /// * [`QbdError::NoConvergence`] if Gauss–Seidel exhausts its sweep
    ///   cap, [`QbdError::Interrupted`] if the options' budget trips.
    ///
    /// # Examples
    ///
    /// M/M/1, where the scalar tail is exactly ρ:
    ///
    /// ```
    /// use slb_linalg::CsrMatrix;
    /// use slb_qbd::{SparseQbdBlocks, SparseSolveOptions};
    ///
    /// # fn main() -> Result<(), slb_qbd::QbdError> {
    /// let (lam, mu) = (0.5, 1.0);
    /// let one = |v: f64| CsrMatrix::from_triplets(1, 1, [(0, 0, v)]).unwrap();
    /// let blocks = SparseQbdBlocks::new(
    ///     one(-lam), one(lam), one(mu),
    ///     one(lam), one(-(lam + mu)), one(mu),
    /// )?;
    /// let sol = blocks.solve_scalar_tail(0.5, &SparseSolveOptions::default())?;
    /// // π_0 = 1 − ρ for the empty boundary state.
    /// assert!((sol.boundary()[0] - 0.5).abs() < 1e-10);
    /// assert!((sol.total_mass() - 1.0).abs() < 1e-10);
    /// # Ok(())
    /// # }
    /// ```
    pub fn solve_scalar_tail(&self, beta: f64, opts: &SparseSolveOptions) -> Result<QbdStationary> {
        if !(0.0..1.0).contains(&beta) || beta == 0.0 {
            return Err(QbdError::InvalidBlocks {
                reason: format!("scalar tail β must lie in (0, 1), got {beta}"),
            });
        }
        let nb = self.boundary_len();
        let m = self.level_len();
        let k = nb + 2 * m;

        // Transpose of the finite balance system
        //   ⎡ R00  R01      0     ⎤
        //   ⎢ R10  A1      A0     ⎥
        //   ⎣  0   A2   A1 + β·A2 ⎦
        // assembled directly (blocks added with indices swapped).
        let mut coo = CooBuilder::new(k, k);
        add_csr_block_transposed(&mut coo, 0, 0, self.r00(), 1.0)?;
        add_csr_block_transposed(&mut coo, 0, nb, self.r01(), 1.0)?;
        add_csr_block_transposed(&mut coo, nb, 0, self.r10(), 1.0)?;
        add_csr_block_transposed(&mut coo, nb, nb, self.a1(), 1.0)?;
        add_csr_block_transposed(&mut coo, nb, nb + m, self.a0(), 1.0)?;
        add_csr_block_transposed(&mut coo, nb + m, nb, self.a2(), 1.0)?;
        add_csr_block_transposed(&mut coo, nb + m, nb + m, self.a1(), 1.0)?;
        add_csr_block_transposed(&mut coo, nb + m, nb + m, self.a2(), beta)?;
        let mt = coo.build();

        // Normalization coefficients [e_b ; e_0 ; w], w = e/(1−β).
        let mut norm = vec![1.0; k];
        for v in &mut norm[nb + m..] {
            *v = 1.0 / (1.0 - beta);
        }

        let classes = self.system_classes(2);
        let gs = null_vector_gs(&mt, &norm, &opts.gs(&classes, None))?;

        let mut boundary = gs.x[..nb].to_vec();
        let mut level0 = gs.x[nb..nb + m].to_vec();
        let mut level1 = gs.x[nb + m..].to_vec();
        vector::clamp_nonnegative(&mut boundary, 1e-8);
        vector::clamp_nonnegative(&mut level0, 1e-8);
        vector::clamp_nonnegative(&mut level1, 1e-8);

        Ok(QbdStationary {
            boundary,
            level0,
            level1,
            tail: Tail::Scalar(beta),
            residual: gs.residual,
            g_iterations: 0,
        })
    }
}

/// `‖π M‖∞` for the assembled finite system, via the shared sparse
/// transpose-matvec.
fn residual_of(big: &CsrMatrix, pi: &[f64]) -> f64 {
    vector::norm_inf(&big.vec_mat(pi))
}

/// Solve `π M = 0`, `π·n = 1` by replacing the first balance equation with
/// the normalization: `Mᵀ` with row 0 ← `n`, RHS `e_0`.
fn solve_replacing_equation(big: &Matrix, norm: &[f64]) -> Result<Vec<f64>> {
    let k = big.rows();
    let mut sys = big.transpose();
    for c in 0..k {
        sys[(0, c)] = norm[c];
    }
    let mut rhs = vec![0.0; k];
    rhs[0] = 1.0;
    Ok(sys.solve_vec(&rhs)?)
}

/// Solve the overdetermined `[Mᵀ ; nᵀ] π = [0 ; 1]` by normal equations —
/// slower but immune to a badly chosen replaced equation.
fn solve_least_squares(big: &Matrix, norm: &[f64]) -> Result<Vec<f64>> {
    let k = big.rows();
    // AᵀA = M Mᵀ + n nᵀ ;  Aᵀ b = n.
    let mmt = big.mat_mul(&big.transpose())?;
    let mut ata = mmt;
    for r in 0..k {
        for c in 0..k {
            ata[(r, c)] += norm[r] * norm[c];
        }
    }
    Ok(ata.solve_vec(norm)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mm1_blocks(lam: f64, mu: f64) -> QbdBlocks {
        QbdBlocks::new(
            Matrix::from_vec(1, 1, vec![-lam]).unwrap(),
            Matrix::from_vec(1, 1, vec![lam]).unwrap(),
            Matrix::from_vec(1, 1, vec![mu]).unwrap(),
            Matrix::from_vec(1, 1, vec![lam]).unwrap(),
            Matrix::from_vec(1, 1, vec![-(lam + mu)]).unwrap(),
            Matrix::from_vec(1, 1, vec![mu]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn mm1_full_solution_geometric() {
        let rho = 0.6;
        let b = mm1_blocks(rho, 1.0);
        let sol = b.solve().unwrap();
        // Boundary = state 0, level q = state q+1.
        assert!((sol.boundary()[0] - (1.0 - rho)).abs() < 1e-10);
        for q in 0..6 {
            let expect = (1.0 - rho) * rho.powi(q as i32 + 1);
            assert!(
                (sol.level_prob(q)[0] - expect).abs() < 1e-10,
                "level {q}: {} vs {expect}",
                sol.level_prob(q)[0]
            );
        }
        assert!((sol.total_mass() - 1.0).abs() < 1e-10);
        assert!(sol.residual() < 1e-10);
        assert!(sol.g_iterations() > 0);
    }

    #[test]
    fn mm1_scalar_tail_matches_full() {
        let rho = 0.6;
        let b = mm1_blocks(rho, 1.0);
        let full = b.solve().unwrap();
        // For M/M/1, levels have a single state, so the tail scalar is ρ.
        let scalar = b.solve_with_scalar_tail(rho).unwrap();
        assert!((full.boundary()[0] - scalar.boundary()[0]).abs() < 1e-10);
        assert!((full.level_prob(3)[0] - scalar.level_prob(3)[0]).abs() < 1e-10);
        assert_eq!(scalar.g_iterations(), 0);
    }

    #[test]
    fn mm1_mean_jobs_via_linear_cost() {
        let rho = 0.7;
        let b = mm1_blocks(rho, 1.0);
        let sol = b.solve().unwrap();
        // Number of jobs: boundary state has 0; level q has q+1 jobs
        // (cost0 = 1, growth = 1).
        let el = sol.mean_linear_cost(&[0.0], &[1.0], &[1.0]);
        let exact = rho / (1.0 - rho);
        assert!((el - exact).abs() < 1e-9, "E[L] = {el} vs {exact}");
    }

    #[test]
    fn unstable_detected() {
        let b = mm1_blocks(1.2, 1.0);
        assert!(matches!(b.solve(), Err(QbdError::Unstable { .. })));
    }

    #[test]
    fn scalar_tail_rejects_bad_beta() {
        let b = mm1_blocks(0.4, 1.0);
        assert!(b.solve_with_scalar_tail(1.0).is_err());
        assert!(b.solve_with_scalar_tail(0.0).is_err());
        assert!(b.solve_with_scalar_tail(-0.3).is_err());
    }

    /// Two-phase QBD solved both matrix-geometrically and by brute-force
    /// truncation: the distributions must agree.
    #[test]
    fn two_phase_vs_truncation() {
        let (l0, l1, mu, r) = (0.3, 0.8, 1.0, 0.5);
        let a0 = Matrix::from_rows(&[&[l0, 0.0], &[0.0, l1]]).unwrap();
        let a2 = Matrix::from_rows(&[&[mu, 0.0], &[0.0, mu]]).unwrap();
        let a1 = Matrix::from_rows(&[&[-(l0 + mu + r), r], &[r, -(l1 + mu + r)]]).unwrap();
        let r00 = Matrix::from_rows(&[&[-(l0 + r), r], &[r, -(l1 + r)]]).unwrap();
        let r01 = a0.clone();
        let r10 = a2.clone();
        let b = QbdBlocks::new(r00, r01, r10, a0, a1, a2).unwrap();

        let sol = b.solve().unwrap();
        assert!((sol.total_mass() - 1.0).abs() < 1e-9);

        // Brute force: truncate at 60 levels and GTH-solve.
        let q = b.truncated_generator(60);
        let pi = slb_markov::gth_stationary(&q).unwrap();
        for (i, (b, p)) in sol.boundary().iter().zip(&pi).enumerate() {
            assert!((b - p).abs() < 1e-8, "boundary {i}");
        }
        for qlvl in 0..5 {
            let lp = sol.level_prob(qlvl);
            for i in 0..2 {
                let truth = pi[2 + qlvl * 2 + i];
                assert!(
                    (lp[i] - truth).abs() < 1e-8,
                    "level {qlvl} phase {i}: {} vs {truth}",
                    lp[i]
                );
            }
        }
    }

    #[test]
    fn per_level_cost_matches_linear_closed_form() {
        let rho = 0.7;
        let b = mm1_blocks(rho, 1.0);
        let sol = b.solve().unwrap();
        // Linear cost via both APIs must agree.
        let linear = sol.mean_linear_cost(&[0.0], &[1.0], &[1.0]);
        let general = sol.mean_cost_per_level(&[0.0], |q, _| q as f64 + 1.0, 1e-14);
        assert!((linear - general).abs() < 1e-9, "{linear} vs {general}");
    }

    #[test]
    fn per_level_cost_indicator() {
        // P(L >= 3) for M/M/1 = ρ³, via an indicator cost.
        let rho = 0.6;
        let b = mm1_blocks(rho, 1.0);
        let sol = b.solve().unwrap();
        // Level q corresponds to L = q + 1 jobs.
        let p_ge3 =
            sol.mean_cost_per_level(&[0.0], |q, _| if q + 1 >= 3 { 1.0 } else { 0.0 }, 1e-14);
        assert!((p_ge3 - rho.powi(3)).abs() < 1e-9, "{p_ge3}");
    }

    #[test]
    fn for_each_level_reproduces_geometric_masses() {
        let rho = 0.7;
        let b = mm1_blocks(rho, 1.0);
        let sol = b.solve().unwrap();
        let mut seen = Vec::new();
        sol.for_each_level(1e-12, |q, v| {
            assert_eq!(v.len(), 1);
            seen.push((q, v[0]));
        });
        // Levels are visited in order starting at 0 and match level_prob.
        for (i, &(q, p)) in seen.iter().enumerate() {
            assert_eq!(q, i);
            assert!((p - sol.level_prob(q)[0]).abs() < 1e-14);
        }
        // Coverage: boundary + visited levels ≈ 1.
        let covered: f64 = sol.boundary()[0] + seen.iter().map(|&(_, p)| p).sum::<f64>();
        assert!((covered - 1.0).abs() < 1e-10);
    }

    #[test]
    fn level_mass_decreases_geometrically() {
        let b = mm1_blocks(0.8, 1.0);
        let sol = b.solve().unwrap();
        let m1 = sol.level_mass(1);
        let m2 = sol.level_mass(2);
        let m3 = sol.level_mass(3);
        assert!((m2 / m1 - 0.8).abs() < 1e-9);
        assert!((m3 / m2 - 0.8).abs() < 1e-9);
    }
}
