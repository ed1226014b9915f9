//! Alternative `G`-matrix algorithms: cyclic reduction and the U-based
//! fixed point.
//!
//! The paper uses logarithmic reduction (Latouche–Ramaswami 1993); the
//! structured-Markov-chain literature offers several competitors with
//! different constant factors and convergence orders. Implementing them
//! side by side turns the paper's algorithm choice into a measured
//! ablation (see `slb-bench`'s `logred` bench) instead of an appeal to
//! authority:
//!
//! * [`cyclic_reduction`] — Bini–Meini. Quadratically convergent like
//!   logarithmic reduction, with a slightly different per-iteration cost
//!   profile (one LU per iteration, six products vs. logred's one LU and
//!   five products).
//! * [`u_based_iteration`] — the fixed point `G ← (−(A1 + A0·G))⁻¹ A2`.
//!   Linearly convergent but markedly faster than the natural iteration
//!   (`slb_qbd::functional_iteration`) because the local block is
//!   re-solved with the current `G` folded in.
//!
//! All algorithms return the same minimal nonnegative solution of
//! `A2 + A1·G + A0·G² = 0`; the unit tests pin them against each other
//! and against closed forms.

use slb_linalg::{Lu, Matrix, Workspace};

use crate::logred::{g_residual, GComputation};
use crate::{QbdBlocks, QbdError, Result};

/// Uniformization constant: strictly dominates every diagonal rate so the
/// discretized local block `I + A1/u` stays substochastic with a strictly
/// positive diagonal.
fn uniformization_rate(a1: &Matrix) -> f64 {
    let mut u = 0.0_f64;
    for i in 0..a1.rows() {
        u = u.max(-a1[(i, i)]);
    }
    u * (1.0 + 1e-9) + 1e-12
}

/// Computes `G` by cyclic reduction (Bini–Meini).
///
/// The generator blocks are first uniformized into the DTMC blocks
/// `(B₋ , B₀, B₊) = (A2/u, I + A1/u, A0/u)` — a transformation that
/// preserves `G` exactly — and the classical CR recurrence is applied:
///
/// ```text
/// S  = (I − B₀⁽ᵏ⁾)⁻¹
/// B₀⁽ᵏ⁺¹⁾ = B₀⁽ᵏ⁾ + B₊⁽ᵏ⁾·S·B₋⁽ᵏ⁾ + B₋⁽ᵏ⁾·S·B₊⁽ᵏ⁾
/// B₊⁽ᵏ⁺¹⁾ = B₊⁽ᵏ⁾·S·B₊⁽ᵏ⁾ ,  B₋⁽ᵏ⁺¹⁾ = B₋⁽ᵏ⁾·S·B₋⁽ᵏ⁾
/// B̂₀⁽ᵏ⁺¹⁾ = B̂₀⁽ᵏ⁾ + B₊⁽ᵏ⁾·S·B₋⁽ᵏ⁾
/// G = (I − B̂₀⁽∞⁾)⁻¹ B₋⁽⁰⁾
/// ```
///
/// Convergence is quadratic; iteration stops when the `G` update falls
/// below `tol` in infinity norm.
///
/// # Errors
///
/// * [`QbdError::NoConvergence`] if `max_iter` is exhausted.
/// * [`QbdError::Linalg`] if an inner solve fails.
///
/// # Example
///
/// ```
/// use slb_linalg::Matrix;
/// use slb_qbd::{cyclic_reduction, QbdBlocks};
///
/// # fn main() -> Result<(), slb_qbd::QbdError> {
/// // M/M/1, λ = 0.5, µ = 1: G = [1].
/// let b = QbdBlocks::new(
///     Matrix::from_vec(1, 1, vec![-0.5]).unwrap(),
///     Matrix::from_vec(1, 1, vec![0.5]).unwrap(),
///     Matrix::from_vec(1, 1, vec![1.0]).unwrap(),
///     Matrix::from_vec(1, 1, vec![0.5]).unwrap(),
///     Matrix::from_vec(1, 1, vec![-1.5]).unwrap(),
///     Matrix::from_vec(1, 1, vec![1.0]).unwrap(),
/// )?;
/// let g = cyclic_reduction(&b, 1e-13, 64)?;
/// assert!((g.g[(0, 0)] - 1.0).abs() < 1e-11);
/// # Ok(())
/// # }
/// ```
pub fn cyclic_reduction(blocks: &QbdBlocks, tol: f64, max_iter: usize) -> Result<GComputation> {
    let m = blocks.level_len();
    let mut ws = Workspace::square(m);
    let ok = "cyclic_reduction: all QBD blocks share one square shape";
    let u = uniformization_rate(blocks.a1());

    // Setup (the only allocating phase): uniformized DTMC blocks and two
    // LU factorizations whose storage the loop refactors in place.
    let mut b_minus0 = ws.take();
    b_minus0.copy_from(blocks.a2());
    b_minus0.scale_in_place(1.0 / u);
    let mut b_minus = ws.take();
    b_minus.copy_from(&b_minus0);
    let mut b_plus = ws.take();
    b_plus.copy_from(blocks.a0());
    b_plus.scale_in_place(1.0 / u);
    let mut b0 = ws.take();
    b0.copy_from(blocks.a1());
    b0.scale_in_place(1.0 / u);
    b0.add_assign_scaled_identity(1.0).expect(ok);
    let mut b0_hat = ws.take();
    b0_hat.copy_from(&b0);

    let eye = Matrix::identity(m);
    let mut lu = Lu::new(&eye)?; // placeholder factorization, refactored below
    let mut lu_hat = lu.clone();

    let mut g_prev = ws.take();
    g_prev.fill(0.0);
    // Per-iteration scratch, reused every round: the loop below performs
    // zero heap allocation (pinned by `tests/alloc_free.rs`).
    let mut g = ws.take();
    let mut s_minus = ws.take();
    let mut s_plus = ws.take();
    let mut up_down = ws.take();
    let mut down_up = ws.take();
    let mut tmp = ws.take();

    for it in 1..=max_iter {
        // tmp = I − B₀, factorized into reused LU storage.
        tmp.copy_from(&b0);
        tmp.scale_in_place(-1.0);
        tmp.add_assign_scaled_identity(1.0).expect(ok);
        lu.refactor(&tmp)?;
        lu.solve_mat_into(&b_minus, &mut s_minus).expect(ok); // S·B₋
        lu.solve_mat_into(&b_plus, &mut s_plus).expect(ok); // S·B₊

        b_plus.mul_into(&s_minus, &mut up_down).expect(ok);
        b_minus.mul_into(&s_plus, &mut down_up).expect(ok);
        b0_hat += &up_down;
        b0 += &up_down;
        b0 += &down_up;
        b_plus.mul_into(&s_plus, &mut tmp).expect(ok);
        std::mem::swap(&mut b_plus, &mut tmp);
        b_minus.mul_into(&s_minus, &mut tmp).expect(ok);
        std::mem::swap(&mut b_minus, &mut tmp);

        // Current G estimate from the accumulated hat block.
        tmp.copy_from(&b0_hat);
        tmp.scale_in_place(-1.0);
        tmp.add_assign_scaled_identity(1.0).expect(ok); // I − B̂₀
        lu_hat.refactor(&tmp)?;
        lu_hat.solve_mat_into(&b_minus0, &mut g).expect(ok);
        let delta = g.norm_inf_diff(&g_prev);
        std::mem::swap(&mut g_prev, &mut g);
        if delta < tol {
            // Retire the loop scratch into the pool; g_residual recycles
            // it instead of allocating.
            ws.put(g);
            ws.put(s_minus);
            ws.put(s_plus);
            ws.put(up_down);
            ws.put(down_up);
            ws.put(tmp);
            return Ok(GComputation {
                residual: g_residual(blocks, &g_prev, &mut ws),
                g: g_prev,
                iterations: it,
            });
        }
    }
    ws.put(g);
    ws.put(s_minus);
    ws.put(s_plus);
    ws.put(up_down);
    ws.put(down_up);
    ws.put(tmp);
    Err(QbdError::NoConvergence {
        method: "cyclic_reduction",
        iterations: max_iter,
        residual: g_residual(blocks, &g_prev, &mut ws),
    })
}

/// Computes `G` by the U-based fixed point
/// `G ← (−(A1 + A0·G))⁻¹ A2`, starting from `G = 0`.
///
/// Each step folds the current `G` into the local block (the matrix
/// `U = A1 + A0·G` generates the process restricted to "up-excursions
/// resolved"), giving a substantially better linear rate than the natural
/// iteration at the cost of one LU factorization per step.
///
/// # Errors
///
/// * [`QbdError::NoConvergence`] if `max_iter` is exhausted.
/// * [`QbdError::Linalg`] if `A1 + A0·G` becomes singular (invalid QBD).
pub fn u_based_iteration(blocks: &QbdBlocks, tol: f64, max_iter: usize) -> Result<GComputation> {
    let m = blocks.level_len();
    let mut ws = Workspace::square(m);
    let ok = "u_based_iteration: all QBD blocks share one square shape";
    let mut g = ws.take();
    g.fill(0.0);
    let mut lu = Lu::new(&Matrix::identity(m))?; // refactored every round
                                                 // Per-iteration scratch; the loop allocates nothing.
    let mut u = ws.take();
    let mut next = ws.take();
    for it in 1..=max_iter {
        blocks.a0().mul_into(&g, &mut u).expect(ok); // A0·G
        u += blocks.a1(); // U = A1 + A0·G
        u.scale_in_place(-1.0);
        lu.refactor(&u)?;
        lu.solve_mat_into(blocks.a2(), &mut next).expect(ok);
        let delta = next.norm_inf_diff(&g);
        std::mem::swap(&mut g, &mut next);
        if delta < tol {
            // Retire the loop scratch; g_residual recycles it.
            ws.put(u);
            ws.put(next);
            return Ok(GComputation {
                residual: g_residual(blocks, &g, &mut ws),
                g,
                iterations: it,
            });
        }
    }
    ws.put(u);
    ws.put(next);
    Err(QbdError::NoConvergence {
        method: "u_based_iteration",
        iterations: max_iter,
        residual: g_residual(blocks, &g, &mut ws),
    })
}

/// The tail decay rate `η = sp(R)` of a stable QBD (the "caudal
/// characteristic"): `π_{q+1} ≈ η·π_q` deep in the tail. Computed by
/// solving for `G`, forming `R`, and power-iterating.
///
/// # Errors
///
/// Propagates `G`/`R` computation failures; [`QbdError::Unstable`] is
/// *not* raised here — for an unstable QBD the returned value simply
/// reaches 1 or beyond, which callers can test.
pub fn decay_rate(blocks: &QbdBlocks, tol: f64, max_iter: usize) -> Result<f64> {
    let g = crate::logarithmic_reduction(blocks, tol, max_iter)?;
    let r = crate::rate_matrix(blocks, &g.g)?;
    // R inherits the sparsity of A0 (zero rows for phases that cannot
    // move up); iterate on the shared CSR kernel.
    let r = slb_linalg::CsrMatrix::from_dense(&r, 0.0);
    let p = slb_linalg::power_iteration(&r, 1e-13, 100_000).map_err(QbdError::from)?;
    Ok(p.eigenvalue)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{functional_iteration, logarithmic_reduction};

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

    fn two_phase_blocks(l0: f64, l1: f64, mu: f64, r: f64) -> QbdBlocks {
        let a0 = Matrix::from_rows(&[&[l0, 0.0], &[0.0, l1]]).unwrap();
        let a2 = Matrix::from_rows(&[&[mu, 0.0], &[0.0, mu]]).unwrap();
        let a1 = Matrix::from_rows(&[&[-(l0 + mu + r), r], &[r, -(l1 + mu + r)]]).unwrap();
        let r00 = Matrix::from_rows(&[&[-(l0 + r), r], &[r, -(l1 + r)]]).unwrap();
        let r01 = a0.clone();
        let r10 = a2.clone();
        QbdBlocks::new(r00, r01, r10, a0, a1, a2).unwrap()
    }

    #[test]
    fn cr_mm1_g_is_one() {
        let b = mm1_blocks(0.6, 1.0);
        let g = cyclic_reduction(&b, 1e-13, 64).unwrap();
        assert!((g.g[(0, 0)] - 1.0).abs() < 1e-11, "G = {:?}", g.g);
        assert!(g.residual < 1e-10);
    }

    #[test]
    fn all_four_algorithms_agree() {
        for &(l0, l1, mu, r) in &[
            (0.4f64, 1.2f64, 1.0f64, 0.3f64),
            (0.8, 0.2, 1.0, 0.6),
            (0.85, 0.95, 1.0, 0.1),
        ] {
            let b = two_phase_blocks(l0, l1, mu, r);
            let lr = logarithmic_reduction(&b, 1e-14, 64).unwrap();
            let cr = cyclic_reduction(&b, 1e-13, 64).unwrap();
            let ub = u_based_iteration(&b, 1e-13, 100_000).unwrap();
            let fi =
                functional_iteration(&b, 1e-13, 500_000, &slb_linalg::Budget::unlimited()).unwrap();
            assert!(lr.g.approx_eq(&cr.g, 1e-9), "CR mismatch at ({l0}, {l1})");
            assert!(lr.g.approx_eq(&ub.g, 1e-8), "U-based mismatch");
            assert!(lr.g.approx_eq(&fi.g, 1e-8), "functional mismatch");
        }
    }

    #[test]
    fn convergence_order_ranking() {
        // Quadratic methods take O(log) iterations; U-based beats the
        // natural fixed point; both linear methods need far more.
        let b = two_phase_blocks(0.9, 0.95, 1.0, 0.2);
        let lr = logarithmic_reduction(&b, 1e-13, 64).unwrap();
        let cr = cyclic_reduction(&b, 1e-13, 64).unwrap();
        let ub = u_based_iteration(&b, 1e-13, 100_000).unwrap();
        let fi =
            functional_iteration(&b, 1e-13, 500_000, &slb_linalg::Budget::unlimited()).unwrap();
        assert!(lr.iterations <= 12 && cr.iterations <= 12);
        assert!(
            ub.iterations < fi.iterations,
            "{} < {}",
            ub.iterations,
            fi.iterations
        );
        assert!(cr.iterations < ub.iterations);
    }

    #[test]
    fn cr_transient_case_substochastic() {
        let b = mm1_blocks(2.0, 1.0);
        let g = cyclic_reduction(&b, 1e-13, 64).unwrap();
        assert!((g.g[(0, 0)] - 0.5).abs() < 1e-9, "G = {:?}", g.g);
    }

    #[test]
    fn decay_rate_mm1_is_rho() {
        let b = mm1_blocks(0.7, 1.0);
        let eta = decay_rate(&b, 1e-14, 64).unwrap();
        assert!((eta - 0.7).abs() < 1e-10, "η = {eta}");
    }

    #[test]
    fn decay_rate_two_phase_in_unit_interval() {
        let b = two_phase_blocks(0.5, 1.1, 1.0, 0.3);
        assert!(b.is_stable().unwrap());
        let eta = decay_rate(&b, 1e-14, 64).unwrap();
        assert!(eta > 0.0 && eta < 1.0, "η = {eta}");
        // Heavier load ⇒ slower decay.
        let heavy = two_phase_blocks(0.8, 1.15, 1.0, 0.3);
        let eta_heavy = decay_rate(&heavy, 1e-14, 64).unwrap();
        assert!(eta_heavy > eta);
    }

    #[test]
    fn budget_exhaustion_reported() {
        let b = two_phase_blocks(0.9, 0.99, 1.0, 0.1);
        assert!(matches!(
            cyclic_reduction(&b, 1e-16, 1),
            Err(QbdError::NoConvergence { iterations: 1, .. })
        ));
        assert!(matches!(
            u_based_iteration(&b, 1e-16, 2),
            Err(QbdError::NoConvergence { iterations: 2, .. })
        ));
    }
}
