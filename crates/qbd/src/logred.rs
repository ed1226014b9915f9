//! Computation of the first-passage matrix `G` and the rate matrix `R`.
//!
//! `G[i][j]` is the probability that, starting in phase `i` of level
//! `q ≥ 1`, the QBD's first visit to level `q − 1` happens in phase `j`.
//! It is the minimal nonnegative solution of
//!
//! ```text
//! A2 + A1·G + A0·G² = 0 .
//! ```
//!
//! Two algorithms are provided:
//!
//! * [`logarithmic_reduction`] — Latouche & Ramaswami (1993). Quadratic
//!   convergence; the paper reports (and our tests confirm) convergence
//!   within ~6 iterations for every SQ(d) configuration evaluated.
//! * [`functional_iteration`] — the natural fixed point
//!   `G ← (−A1)⁻¹ (A2 + A0·G²)`; linear convergence, kept as an
//!   independent cross-check and as the baseline for the ablation bench.
//!
//! The rate matrix follows as `R = −A0 (A1 + A0·G)⁻¹` and satisfies
//! `A0 + R·A1 + R²·A2 = 0` ([`rate_matrix`]).

use slb_linalg::{Budget, Lu, Matrix, Workspace};

use crate::{QbdBlocks, QbdError, Result};

/// Result of a converged `G` computation.
#[derive(Debug, Clone, PartialEq)]
pub struct GComputation {
    /// The first-passage matrix `G`.
    pub g: Matrix,
    /// Outer iterations used by the algorithm.
    pub iterations: usize,
    /// Final residual `‖A2 + A1 G + A0 G²‖∞`.
    pub residual: f64,
}

/// `‖A2 + A1·G + A0·G²‖∞` evaluated through the workspace kernel — two
/// scratch matrices, no temporaries. The term order matches the textbook
/// expression `(A2 + A1 G) + A0 G²` exactly, so the value agrees bit for
/// bit with the operator-overload formulation.
pub(crate) fn g_residual(blocks: &QbdBlocks, g: &Matrix, ws: &mut Workspace) -> f64 {
    let mut acc = ws.take();
    let mut tmp = ws.take();
    acc.copy_from(blocks.a2());
    let ok = "g_residual: blocks and G share one square shape";
    blocks.a1().mul_into(g, &mut tmp).expect(ok); // tmp = A1·G
    acc += &tmp;
    let mut a0g = ws.take();
    blocks.a0().mul_into(g, &mut a0g).expect(ok); // A0·G
    a0g.mul_into(g, &mut tmp).expect(ok); // tmp = A0·G²
    acc += &tmp;
    let r = acc.norm_inf();
    ws.put(acc);
    ws.put(tmp);
    ws.put(a0g);
    r
}

/// Computes `G` by the logarithmic-reduction algorithm of Latouche &
/// Ramaswami.
///
/// Iterates until the additive update falls below `tol` in infinity norm
/// or `max_iter` doublings have been performed. Each iteration squares the
/// effective horizon, so `max_iter = 64` already covers `2⁶⁴` levels; the
/// practical default of `tol = 1e-14, max_iter = 64` is what the paper's
/// "within k = 6" claim refers to.
///
/// # Errors
///
/// * [`QbdError::NoConvergence`] if `max_iter` is exhausted.
/// * [`QbdError::Linalg`] if an inner solve fails (structurally impossible
///   for a valid transient/recurrent QBD, but surfaced rather than
///   panicking).
///
/// # Example
///
/// ```
/// use slb_linalg::Matrix;
/// use slb_qbd::{logarithmic_reduction, QbdBlocks};
///
/// # fn main() -> Result<(), slb_qbd::QbdError> {
/// // M/M/1, λ = 0.5, µ = 1: G = [1] (recurrent).
/// let b = QbdBlocks::new(
///     Matrix::from_vec(1, 1, vec![-0.5]).unwrap(),
///     Matrix::from_vec(1, 1, vec![0.5]).unwrap(),
///     Matrix::from_vec(1, 1, vec![1.0]).unwrap(),
///     Matrix::from_vec(1, 1, vec![0.5]).unwrap(),
///     Matrix::from_vec(1, 1, vec![-1.5]).unwrap(),
///     Matrix::from_vec(1, 1, vec![1.0]).unwrap(),
/// )?;
/// let g = logarithmic_reduction(&b, 1e-14, 64)?;
/// assert!((g.g[(0, 0)] - 1.0).abs() < 1e-12);
/// assert!(g.iterations <= 8);
/// # Ok(())
/// # }
/// ```
pub fn logarithmic_reduction(
    blocks: &QbdBlocks,
    tol: f64,
    max_iter: usize,
) -> Result<GComputation> {
    let mut ws = Workspace::square(blocks.level_len());
    logarithmic_reduction_in(blocks, tol, max_iter, &mut ws, &Budget::unlimited())
}

/// [`logarithmic_reduction`] drawing its scratch matrices from a
/// caller-owned [`Workspace`] instead of a fresh pool, under a
/// cooperative [`Budget`] polled once per doubling iteration.
///
/// Long-lived drivers that solve many same-shape QBDs — the sweep
/// executor's worker threads in particular — keep one pool per block
/// shape and amortize all scratch allocation across jobs; after the
/// first call on a given shape the setup phase allocates nothing but
/// the returned `G`.
///
/// An interruption returns every scratch matrix to the caller's pool —
/// exactly like the other failure paths — before surfacing
/// [`QbdError::Interrupted`] with the doublings completed and the last
/// additive update as the residual.
///
/// # Errors
///
/// As [`logarithmic_reduction`], plus [`QbdError::InvalidBlocks`] when
/// the workspace shape does not match the blocks' level length and
/// [`QbdError::Interrupted`] when the budget trips.
pub fn logarithmic_reduction_in(
    blocks: &QbdBlocks,
    tol: f64,
    max_iter: usize,
    ws: &mut Workspace,
    budget: &Budget,
) -> Result<GComputation> {
    let m = blocks.level_len();
    if ws.shape() != (m, m) {
        return Err(QbdError::InvalidBlocks {
            reason: format!(
                "workspace shape {:?} does not match QBD level length {m}",
                ws.shape()
            ),
        });
    }
    let ok = "logred: all QBD blocks share one square shape";

    // Setup (the only allocating phase): factor −A1 and form
    // H = (−A1)⁻¹ A0 (up), L = (−A1)⁻¹ A2 (down). Every fallible step
    // returns its scratch to the pool before bailing so a failure (a
    // singular factor from degenerate blocks) leaves a caller-owned
    // pool warm, not leaking its matrices.
    let mut scratch = ws.take();
    scratch.copy_from(blocks.a1());
    scratch.scale_in_place(-1.0);
    let mut lu = match Lu::new(&scratch) {
        Ok(lu) => lu,
        Err(e) => {
            ws.put(scratch);
            return Err(e.into());
        }
    };
    let mut h = ws.take();
    let mut l = ws.take();
    if let Err(e) = lu
        .solve_mat_into(blocks.a0(), &mut h)
        .and_then(|()| lu.solve_mat_into(blocks.a2(), &mut l))
    {
        ws.put(scratch);
        ws.put(h);
        ws.put(l);
        return Err(e.into());
    }

    let mut g = ws.take();
    g.copy_from(&l);
    let mut t = ws.take();
    t.copy_from(&h);

    // Per-iteration scratch, reused every round: the loop below performs
    // zero heap allocation (pinned by `tests/alloc_free.rs`).
    let mut u = ws.take();
    let mut sq = ws.take();
    let mut last_delta = f64::NAN;

    for it in 1..=max_iter {
        // The budget poll honours the same scratch discipline as every
        // other early exit: the pool gets all seven matrices back.
        if let Err(e) = budget.check("logarithmic_reduction", it - 1, last_delta) {
            ws.put(scratch);
            ws.put(u);
            ws.put(sq);
            ws.put(h);
            ws.put(l);
            ws.put(g);
            ws.put(t);
            return Err(e.into());
        }
        // U = H·L + L·H ; H ← (I−U)⁻¹ H² ; L ← (I−U)⁻¹ L².
        h.mul_into(&l, &mut u).expect(ok);
        l.mul_into(&h, &mut scratch).expect(ok);
        u += &scratch;
        u.scale_in_place(-1.0);
        u.add_assign_scaled_identity(1.0).expect(ok); // u = I − U
        if let Err(e) = lu.refactor(&u) {
            ws.put(scratch);
            ws.put(u);
            ws.put(sq);
            ws.put(h);
            ws.put(l);
            ws.put(g);
            ws.put(t);
            return Err(e.into());
        }
        h.mul_into(&h, &mut sq).expect(ok);
        lu.solve_mat_into(&sq, &mut h).expect(ok);
        l.mul_into(&l, &mut sq).expect(ok);
        lu.solve_mat_into(&sq, &mut l).expect(ok);

        // G += T·L ; T ← T·H.
        t.mul_into(&l, &mut scratch).expect(ok);
        let delta = scratch.norm_inf();
        last_delta = delta;
        g += &scratch;
        t.mul_into(&h, &mut u).expect(ok);
        std::mem::swap(&mut t, &mut u);

        if delta < tol {
            // Retire the loop scratch into the pool; g_residual recycles
            // it instead of allocating, and a reused pool starts the
            // next same-shape solve fully warm.
            ws.put(scratch);
            ws.put(u);
            ws.put(sq);
            ws.put(h);
            ws.put(l);
            ws.put(t);
            return Ok(GComputation {
                residual: g_residual(blocks, &g, ws),
                g,
                iterations: it,
            });
        }
    }
    ws.put(scratch);
    ws.put(u);
    ws.put(sq);
    ws.put(h);
    ws.put(l);
    ws.put(t);
    Err(QbdError::NoConvergence {
        method: "logarithmic_reduction",
        iterations: max_iter,
        residual: g_residual(blocks, &g, ws),
    })
}

/// Computes `G` by natural functional iteration
/// `G ← (−A1)⁻¹ (A2 + A0·G²)` starting from `G = 0`, under a
/// cooperative [`Budget`] polled once per fixed-point step (the linear
/// convergence means hundreds of steps at high load, so the step is the
/// natural batch).
///
/// Converges monotonically (entrywise, from below) to the minimal
/// nonnegative solution, but only linearly — hundreds of iterations at
/// high loads, versus ~6 for [`logarithmic_reduction`]. Kept as an
/// independent oracle and ablation baseline.
///
/// # Errors
///
/// * [`QbdError::NoConvergence`] if `max_iter` is exhausted before the
///   successive-iterate change drops below `tol`.
/// * [`QbdError::Interrupted`] when the budget trips.
/// * [`QbdError::Linalg`] if `A1` is singular (invalid QBD).
pub fn functional_iteration(
    blocks: &QbdBlocks,
    tol: f64,
    max_iter: usize,
    budget: &Budget,
) -> Result<GComputation> {
    let m = blocks.level_len();
    let mut ws = Workspace::square(m);
    let ok = "functional_iteration: all QBD blocks share one square shape";

    let mut rhs = ws.take();
    rhs.copy_from(blocks.a1());
    rhs.scale_in_place(-1.0);
    let lu = Lu::new(&rhs)?;
    let mut g = ws.take();
    g.fill(0.0);
    // Per-iteration scratch; the loop allocates nothing.
    let mut gg = ws.take();
    let mut next = ws.take();
    let mut last_delta = f64::NAN;
    for it in 1..=max_iter {
        budget.check("functional_iteration", it - 1, last_delta)?;
        g.mul_into(&g, &mut gg).expect(ok); // G²
        blocks.a0().mul_into(&gg, &mut rhs).expect(ok); // A0·G²
        rhs += blocks.a2(); // A2 + A0·G²
        lu.solve_mat_into(&rhs, &mut next).expect(ok);
        let delta = next.norm_inf_diff(&g);
        last_delta = delta;
        std::mem::swap(&mut g, &mut next);
        if delta < tol {
            // Retire the loop scratch; g_residual recycles it.
            ws.put(rhs);
            ws.put(gg);
            ws.put(next);
            return Ok(GComputation {
                residual: g_residual(blocks, &g, &mut ws),
                g,
                iterations: it,
            });
        }
    }
    ws.put(rhs);
    ws.put(gg);
    ws.put(next);
    Err(QbdError::NoConvergence {
        method: "functional_iteration",
        iterations: max_iter,
        residual: g_residual(blocks, &g, &mut ws),
    })
}

/// Computes the rate matrix `R = −A0 (A1 + A0·G)⁻¹` from a converged `G`.
///
/// `R[i][j]` is the expected sojourn time in phase `j` of level `q+1`,
/// per unit of sojourn in phase `i` of level `q`, before returning to
/// level `q` (Neuts). The stationary tail is `π_{q+1} = π_q R`.
///
/// # Errors
///
/// [`QbdError::Linalg`] if `A1 + A0 G` is singular, which signals a
/// non-irreducible or unstable QBD.
pub fn rate_matrix(blocks: &QbdBlocks, g: &Matrix) -> Result<Matrix> {
    let m = blocks.level_len();
    let mut ws = Workspace::square(m);

    // inner = A1 + A0·G, then transposed in place into scratch. `g` is
    // caller-supplied, so its shape errors propagate (a wrong-shaped `G`
    // fails the `mul_into` check against the m×m scratch).
    let mut prod = ws.take();
    blocks.a0().mul_into(g, &mut prod)?;
    prod.axpy(1.0, blocks.a1())?;
    let mut inner_t = ws.take();
    prod.transpose_into(&mut inner_t);
    // R = −A0 · inner⁻¹  ⇔  R · inner = −A0  ⇔  innerᵀ Rᵀ = −A0ᵀ.
    let lu = Lu::new(&inner_t)?;
    let mut rhs = ws.take();
    blocks.a0().transpose_into(&mut rhs);
    rhs.scale_in_place(-1.0);
    let mut rt = ws.take();
    lu.solve_mat_into(&rhs, &mut rt)?;
    let mut r = ws.take();
    rt.transpose_into(&mut r);
    Ok(r)
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

    /// A 2-phase QBD: MMPP-modulated M/M/1-type queue. Phase switches at
    /// rate r; arrivals at rate λ_i per phase; service µ.
    fn two_phase_blocks(l0: f64, l1: f64, mu: f64, r: f64) -> QbdBlocks {
        let a0 = Matrix::from_rows(&[&[l0, 0.0], &[0.0, l1]]).unwrap();
        let a2 = Matrix::from_rows(&[&[mu, 0.0], &[0.0, mu]]).unwrap();
        let a1 = Matrix::from_rows(&[&[-(l0 + mu + r), r], &[r, -(l1 + mu + r)]]).unwrap();
        // Boundary: empty system in phase i; only arrivals and switches.
        let r00 = Matrix::from_rows(&[&[-(l0 + r), r], &[r, -(l1 + r)]]).unwrap();
        let r01 = Matrix::from_rows(&[&[l0, 0.0], &[0.0, l1]]).unwrap();
        let r10 = a2.clone();
        QbdBlocks::new(r00, r01, r10, a0, a1, a2).unwrap()
    }

    #[test]
    fn mm1_g_is_one() {
        let b = mm1_blocks(0.5, 1.0);
        let g = logarithmic_reduction(&b, 1e-14, 64).unwrap();
        assert!((g.g[(0, 0)] - 1.0).abs() < 1e-13);
        assert!(g.residual < 1e-12);
    }

    #[test]
    fn mm1_rate_matrix_is_rho() {
        let (lam, mu) = (0.7, 1.0);
        let b = mm1_blocks(lam, mu);
        let g = logarithmic_reduction(&b, 1e-14, 64).unwrap();
        let r = rate_matrix(&b, &g.g).unwrap();
        assert!((r[(0, 0)] - lam / mu).abs() < 1e-12, "R = {:?}", r);
    }

    #[test]
    fn logred_and_functional_agree() {
        let b = two_phase_blocks(0.4, 1.2, 1.0, 0.3);
        let g1 = logarithmic_reduction(&b, 1e-14, 64).unwrap();
        let g2 = functional_iteration(&b, 1e-13, 200_000, &Budget::unlimited()).unwrap();
        assert!(
            g1.g.approx_eq(&g2.g, 1e-9),
            "logred {:?} vs functional {:?}",
            g1.g,
            g2.g
        );
        assert!(g1.iterations < g2.iterations);
    }

    #[test]
    fn g_is_stochastic_for_stable_qbd() {
        let b = two_phase_blocks(0.4, 0.9, 1.0, 0.25);
        assert!(b.is_stable().unwrap());
        let g = logarithmic_reduction(&b, 1e-14, 64).unwrap();
        for r in 0..2 {
            let s: f64 = g.g.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-10, "row {r} sums to {s}");
            assert!(g.g.row(r).iter().all(|&v| v >= -1e-14));
        }
    }

    #[test]
    fn g_substochastic_for_unstable_qbd() {
        // Transient upward QBD: λ > µ. G exists but is strictly
        // substochastic.
        let b = mm1_blocks(2.0, 1.0);
        let g = logarithmic_reduction(&b, 1e-14, 64).unwrap();
        assert!(g.g[(0, 0)] < 1.0 - 1e-6);
        // For M/M/1 the return probability is µ/λ.
        assert!((g.g[(0, 0)] - 0.5).abs() < 1e-10);
    }

    #[test]
    fn quadratic_equation_satisfied() {
        let b = two_phase_blocks(0.8, 0.2, 1.0, 0.6);
        let g = logarithmic_reduction(&b, 1e-14, 64).unwrap();
        assert!(g.residual < 1e-11, "residual {}", g.residual);
        let r = rate_matrix(&b, &g.g).unwrap();
        // A0 + R A1 + R² A2 = 0.
        let res = &(&(b.a0() + &(&r * b.a1())) + &(&(&r * &r) * b.a2())).norm_inf();
        assert!(*res < 1e-11, "R residual {res}");
    }

    #[test]
    fn iteration_count_small() {
        // The paper's in-text claim: logarithmic reduction converges within
        // ~6 iterations across its configurations.
        for &(l0, l1) in &[(0.2, 0.5), (0.5, 0.9), (0.85, 0.95)] {
            let b = two_phase_blocks(l0, l1, 1.0, 0.4);
            let g = logarithmic_reduction(&b, 1e-13, 64).unwrap();
            assert!(g.iterations <= 10, "iterations {}", g.iterations);
        }
    }

    #[test]
    fn rate_matrix_rejects_wrong_shaped_g() {
        // Public entry point: a caller-supplied G of the wrong shape is a
        // recoverable error, not a panic.
        let b = two_phase_blocks(0.4, 1.2, 1.0, 0.3);
        let bad_g = Matrix::zeros(3, 3);
        assert!(matches!(rate_matrix(&b, &bad_g), Err(QbdError::Linalg(_))));
    }

    #[test]
    fn cancelled_budget_interrupts_g_computations() {
        use slb_linalg::CancelToken;
        let b = two_phase_blocks(0.4, 1.2, 1.0, 0.3);
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::unlimited().cancel_token(token);
        let mut ws = Workspace::square(b.level_len());
        match logarithmic_reduction_in(&b, 1e-14, 64, &mut ws, &budget) {
            Err(QbdError::Interrupted {
                method: "logarithmic_reduction",
                iterations: 0,
                ..
            }) => {}
            other => panic!("expected Interrupted, got {other:?}"),
        }
        // The interruption path returned all scratch: the pool can run a
        // full solve without the shape check tripping on missing mats.
        logarithmic_reduction_in(&b, 1e-14, 64, &mut ws, &Budget::unlimited()).unwrap();
        assert!(matches!(
            functional_iteration(&b, 1e-13, 200_000, &budget),
            Err(QbdError::Interrupted {
                method: "functional_iteration",
                ..
            })
        ));
    }

    #[test]
    fn no_convergence_budget_respected() {
        let b = two_phase_blocks(0.9, 0.99, 1.0, 0.1);
        let e = logarithmic_reduction(&b, 1e-16, 1);
        match e {
            Err(QbdError::NoConvergence { iterations: 1, .. }) => {}
            other => panic!("expected NoConvergence after 1 iteration, got {other:?}"),
        }
    }
}
