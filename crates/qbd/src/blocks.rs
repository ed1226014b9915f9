//! Validated QBD block container and the Neuts drift / stability test.

use slb_linalg::{CooBuilder, CsrMatrix, Matrix};
use slb_markov::gth_stationary;

use crate::{QbdError, Result};

/// Row sums of a generator must vanish to this absolute tolerance.
const ROW_SUM_TOL: f64 = 1e-9;

/// The six blocks of a level-independent QBD generator with one boundary
/// level (see the crate docs for the layout).
///
/// Invariants validated at construction:
///
/// * shape consistency: `R00: nb×nb`, `R01: nb×m`, `R10: m×nb`,
///   `A0, A1, A2: m×m`;
/// * nonnegative off-diagonal entries (`A1`, `R00` may have negative
///   diagonals only);
/// * vanishing row sums of each full generator row:
///   `R00·e + R01·e = 0`, `R10·e + A1·e + A0·e = 0`,
///   `A2·e + A1·e + A0·e = 0`.
#[derive(Debug, Clone, PartialEq)]
pub struct QbdBlocks {
    r00: Matrix,
    r01: Matrix,
    r10: Matrix,
    a0: Matrix,
    a1: Matrix,
    a2: Matrix,
}

impl QbdBlocks {
    /// Builds and validates the block container.
    ///
    /// # Errors
    ///
    /// [`QbdError::InvalidBlocks`] describing the first violated invariant.
    pub fn new(
        r00: Matrix,
        r01: Matrix,
        r10: Matrix,
        a0: Matrix,
        a1: Matrix,
        a2: Matrix,
    ) -> Result<Self> {
        let nb = r00.rows();
        let m = a1.rows();
        let shape_checks = [
            ("R00", r00.shape(), (nb, nb)),
            ("R01", r01.shape(), (nb, m)),
            ("R10", r10.shape(), (m, nb)),
            ("A0", a0.shape(), (m, m)),
            ("A1", a1.shape(), (m, m)),
            ("A2", a2.shape(), (m, m)),
        ];
        for (name, got, want) in shape_checks {
            if got != want {
                return Err(QbdError::InvalidBlocks {
                    reason: format!("{name} has shape {got:?}, expected {want:?}"),
                });
            }
        }

        let off_diag_nonneg = |mat: &Matrix, name: &str, diag_ok: bool| -> Result<()> {
            for r in 0..mat.rows() {
                for c in 0..mat.cols() {
                    let v = mat[(r, c)];
                    if v < 0.0 && !(diag_ok && r == c) {
                        return Err(QbdError::InvalidBlocks {
                            reason: format!("{name} has negative off-diagonal {v} at ({r}, {c})"),
                        });
                    }
                }
            }
            Ok(())
        };
        off_diag_nonneg(&r00, "R00", true)?;
        off_diag_nonneg(&r01, "R01", false)?;
        off_diag_nonneg(&r10, "R10", false)?;
        off_diag_nonneg(&a0, "A0", false)?;
        off_diag_nonneg(&a1, "A1", true)?;
        off_diag_nonneg(&a2, "A2", false)?;

        for r in 0..nb {
            let s: f64 = r00.row(r).iter().sum::<f64>() + r01.row(r).iter().sum::<f64>();
            if s.abs() > ROW_SUM_TOL {
                return Err(QbdError::InvalidBlocks {
                    reason: format!("boundary row {r} sums to {s}, expected 0"),
                });
            }
        }
        for r in 0..m {
            let s0: f64 = r10.row(r).iter().sum::<f64>()
                + a1.row(r).iter().sum::<f64>()
                + a0.row(r).iter().sum::<f64>();
            if s0.abs() > ROW_SUM_TOL {
                return Err(QbdError::InvalidBlocks {
                    reason: format!("level-0 row {r} sums to {s0}, expected 0"),
                });
            }
            let si: f64 = a2.row(r).iter().sum::<f64>()
                + a1.row(r).iter().sum::<f64>()
                + a0.row(r).iter().sum::<f64>();
            if si.abs() > ROW_SUM_TOL {
                return Err(QbdError::InvalidBlocks {
                    reason: format!("repeating row {r} sums to {si}, expected 0"),
                });
            }
        }

        Ok(QbdBlocks {
            r00,
            r01,
            r10,
            a0,
            a1,
            a2,
        })
    }

    /// Number of boundary states.
    pub fn boundary_len(&self) -> usize {
        self.r00.rows()
    }

    /// Number of states per repeating level.
    pub fn level_len(&self) -> usize {
        self.a1.rows()
    }

    /// Boundary-internal block `R00`.
    pub fn r00(&self) -> &Matrix {
        &self.r00
    }

    /// Boundary → level-0 block `R01`.
    pub fn r01(&self) -> &Matrix {
        &self.r01
    }

    /// Level-0 → boundary block `R10`.
    pub fn r10(&self) -> &Matrix {
        &self.r10
    }

    /// Upward (level `q` → `q+1`) block `A0`.
    pub fn a0(&self) -> &Matrix {
        &self.a0
    }

    /// Local (level `q` → `q`) block `A1`.
    pub fn a1(&self) -> &Matrix {
        &self.a1
    }

    /// Downward (level `q` → `q−1`) block `A2`.
    pub fn a2(&self) -> &Matrix {
        &self.a2
    }

    /// The phase-process generator `A = A0 + A1 + A2` and its stationary
    /// vector, used by the drift condition.
    ///
    /// # Errors
    ///
    /// Propagates a GTH failure if `A` is reducible.
    pub fn phase_stationary(&self) -> Result<Vec<f64>> {
        let a = self.a0.add(&self.a1)?.add(&self.a2)?;
        Ok(gth_stationary(&a)?)
    }

    /// Mean drifts `(π A0 e, π A2 e)` of the level process under the phase
    /// stationary vector `π`.
    ///
    /// # Errors
    ///
    /// Propagates [`QbdBlocks::phase_stationary`] failures.
    pub fn drifts(&self) -> Result<(f64, f64)> {
        let pi = self.phase_stationary()?;
        let up: f64 = self.a0.vec_mat(&pi).iter().sum();
        let down: f64 = self.a2.vec_mat(&pi).iter().sum();
        Ok((up, down))
    }

    /// Neuts' stability criterion: positive recurrence iff
    /// `π A0 e < π A2 e`.
    ///
    /// # Errors
    ///
    /// Propagates [`QbdBlocks::drifts`] failures.
    pub fn is_stable(&self) -> Result<bool> {
        let (up, down) = self.drifts()?;
        Ok(up < down)
    }

    /// Assembles the explicit generator of the QBD truncated at
    /// `levels` repeating levels (the last level's upward block is folded
    /// into its diagonal so rows still sum to zero). Used by tests to
    /// compare against direct CTMC solves.
    ///
    /// Thin densification of [`QbdBlocks::truncated_generator_csr`]; use
    /// the CSR form directly for anything beyond a handful of levels.
    ///
    /// # Panics
    ///
    /// Panics if `levels == 0`.
    pub fn truncated_generator(&self, levels: usize) -> Matrix {
        self.truncated_generator_csr(levels).to_dense()
    }

    /// The truncated generator assembled directly into the shared
    /// [`CsrMatrix`] kernel. The block-tridiagonal structure means only
    /// `O(levels · m²)` entries exist out of `(nb + levels·m)²` dense
    /// slots, so this is the form the iterative stationary solvers in
    /// `slb-markov` should consume.
    ///
    /// # Panics
    ///
    /// Panics if `levels == 0`.
    pub fn truncated_generator_csr(&self, levels: usize) -> CsrMatrix {
        assert!(levels > 0, "need at least one repeating level");
        let nb = self.boundary_len();
        let m = self.level_len();
        let n = nb + levels * m;
        let mut q = CooBuilder::new(n, n);
        let ok = "block entry in range";
        q.add_dense_block(0, 0, &self.r00).expect(ok);
        q.add_dense_block(0, nb, &self.r01).expect(ok);
        q.add_dense_block(nb, 0, &self.r10).expect(ok);
        for l in 0..levels {
            let row = nb + l * m;
            q.add_dense_block(row, row, &self.a1).expect(ok);
            if l + 1 < levels {
                q.add_dense_block(row, row + m, &self.a0).expect(ok);
            } else {
                // Fold A0 into the diagonal block: redirect up-transitions
                // back to the same state (lost rate becomes a self-loop,
                // i.e. is simply removed from the generator).
                for r in 0..m {
                    let excess: f64 = self.a0.row(r).iter().sum();
                    q.add(row + r, row + r, excess).expect(ok);
                }
            }
            if l > 0 {
                q.add_dense_block(row, row - m, &self.a2).expect(ok);
            }
        }
        q.build()
    }
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
    fn mm1_drift_and_stability() {
        let b = mm1_blocks(0.5, 1.0);
        let (up, down) = b.drifts().unwrap();
        assert!((up - 0.5).abs() < 1e-14);
        assert!((down - 1.0).abs() < 1e-14);
        assert!(b.is_stable().unwrap());

        let b = mm1_blocks(1.5, 1.0);
        assert!(!b.is_stable().unwrap());
    }

    #[test]
    fn shape_mismatch_rejected() {
        let e = QbdBlocks::new(
            Matrix::zeros(2, 2),
            Matrix::zeros(2, 1),
            Matrix::zeros(1, 2),
            Matrix::zeros(1, 1),
            Matrix::zeros(2, 2), // wrong: A1 must match A0
            Matrix::zeros(1, 1),
        );
        assert!(matches!(e, Err(QbdError::InvalidBlocks { .. })));
    }

    #[test]
    fn row_sum_violation_rejected() {
        let e = QbdBlocks::new(
            Matrix::from_vec(1, 1, vec![-1.0]).unwrap(),
            Matrix::from_vec(1, 1, vec![2.0]).unwrap(), // boundary row sums to 1
            Matrix::from_vec(1, 1, vec![1.0]).unwrap(),
            Matrix::from_vec(1, 1, vec![1.0]).unwrap(),
            Matrix::from_vec(1, 1, vec![-2.0]).unwrap(),
            Matrix::from_vec(1, 1, vec![1.0]).unwrap(),
        );
        assert!(matches!(e, Err(QbdError::InvalidBlocks { .. })));
    }

    #[test]
    fn negative_rate_rejected() {
        let e = QbdBlocks::new(
            Matrix::from_vec(1, 1, vec![1.0]).unwrap(), // R00 diagonal may be negative, not positive? positive diagonal means positive row sum
            Matrix::from_vec(1, 1, vec![-1.0]).unwrap(), // negative off-diagonal block entry
            Matrix::from_vec(1, 1, vec![1.0]).unwrap(),
            Matrix::from_vec(1, 1, vec![1.0]).unwrap(),
            Matrix::from_vec(1, 1, vec![-2.0]).unwrap(),
            Matrix::from_vec(1, 1, vec![1.0]).unwrap(),
        );
        assert!(matches!(e, Err(QbdError::InvalidBlocks { .. })));
    }

    #[test]
    fn truncated_generator_is_valid_ctmc() {
        let b = mm1_blocks(0.7, 1.0);
        let q = b.truncated_generator(5);
        assert_eq!(q.rows(), 6);
        for r in 0..q.rows() {
            let s: f64 = q.row(r).iter().sum();
            assert!(s.abs() < 1e-12, "row {r} sums to {s}");
        }
        // Truncated M/M/1 stationary ≈ geometric.
        let pi = slb_markov::gth_stationary(&q).unwrap();
        assert!(pi[0] > pi[1] && pi[1] > pi[2]);
    }

    #[test]
    fn csr_truncation_matches_dense() {
        let b = mm1_blocks(0.6, 1.0);
        let sparse = b.truncated_generator_csr(8);
        let dense = b.truncated_generator(8);
        assert!(sparse.to_dense().approx_eq(&dense, 0.0));
        // Block-tridiagonal: nnz far below the dense square.
        assert!(sparse.nnz() <= 3 * sparse.rows());
        for s in sparse.row_sums() {
            assert!(s.abs() < 1e-12);
        }
        // The shared sparse solver agrees with dense GTH on the
        // truncated chain.
        let pi_gth = slb_markov::gth_stationary(&dense).unwrap();
        let opts = slb_linalg::GsOptions {
            tol: 1e-13,
            ..slb_linalg::GsOptions::default()
        };
        let pi_csr =
            slb_linalg::null_vector_gs(&sparse.transpose(), &vec![1.0; sparse.rows()], &opts)
                .unwrap()
                .x;
        for (a, b) in pi_gth.iter().zip(&pi_csr) {
            assert!((a - b).abs() < 1e-9, "{pi_gth:?} vs {pi_csr:?}");
        }
    }

    #[test]
    fn phase_stationary_of_mm1_is_unit() {
        let b = mm1_blocks(0.3, 1.0);
        let pi = b.phase_stationary().unwrap();
        assert_eq!(pi, vec![1.0]);
    }
}
