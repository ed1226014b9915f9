//! The Grassmann–Taksar–Heyman (GTH) algorithm for stationary
//! distributions.
//!
//! GTH is a variant of Gaussian elimination specialized to (sub)generator /
//! stochastic matrices: the diagonal is recomputed from the off-diagonal
//! mass at every step, so the algorithm performs **no subtractions** and is
//! backward stable regardless of how stiff the chain is. It is the solver
//! of choice for the small-to-medium dense chains in this project (ground
//! truth for the SQ(d) bound validation, boundary chains, drift vectors).

use slb_linalg::Matrix;

use crate::{MarkovError, Result};

/// Computes the stationary distribution of an irreducible CTMC from its
/// generator matrix `Q` (off-diagonal entries ≥ 0, rows summing to 0) using
/// GTH elimination.
///
/// The same routine handles DTMCs: pass `P − I`, whose off-diagonal
/// structure GTH consumes identically (only off-diagonal entries are read;
/// the diagonal is reconstructed internally).
///
/// # Errors
///
/// * [`MarkovError::InvalidChain`] if `q` is not square or has a negative
///   off-diagonal entry.
/// * [`MarkovError::NotErgodic`] if elimination exposes a state with no
///   outgoing mass toward the remaining states (the chain is reducible).
///
/// # Example
///
/// ```
/// use slb_linalg::Matrix;
/// use slb_markov::gth_stationary;
///
/// # fn main() -> Result<(), slb_markov::MarkovError> {
/// // Two-state chain: 0 →(1) 1, 1 →(2) 0. π = (2/3, 1/3).
/// let q = Matrix::from_rows(&[&[-1.0, 1.0], &[2.0, -2.0]]).unwrap();
/// let pi = gth_stationary(&q)?;
/// assert!((pi[0] - 2.0 / 3.0).abs() < 1e-14);
/// # Ok(())
/// # }
/// ```
pub fn gth_stationary(q: &Matrix) -> Result<Vec<f64>> {
    if !q.is_square() {
        return Err(MarkovError::InvalidChain {
            reason: format!("generator must be square, got {:?}", q.shape()),
        });
    }
    let n = q.rows();
    for r in 0..n {
        for c in 0..n {
            if r != c && q[(r, c)] < 0.0 {
                return Err(MarkovError::InvalidChain {
                    reason: format!("negative off-diagonal rate {} at ({r}, {c})", q[(r, c)]),
                });
            }
        }
    }
    if n == 1 {
        return Ok(vec![1.0]);
    }

    // Work on a copy; only off-diagonal entries matter.
    let mut a = q.clone();

    // Elimination pass (standard GTH): fold state k into states 0..k-1.
    // The column entering k is rescaled by k's total outflow toward the
    // surviving states; the rank-one update uses only additions of
    // nonnegative quantities — no cancellation anywhere.
    for k in (1..n).rev() {
        let s: f64 = (0..k).map(|c| a[(k, c)]).sum();
        if s <= 0.0 {
            return Err(MarkovError::NotErgodic {
                reason: format!(
                    "state {k} has no transition into states 0..{k}; chain is reducible"
                ),
            });
        }
        for r in 0..k {
            a[(r, k)] /= s;
        }
        for r in 0..k {
            let w = a[(r, k)];
            if w == 0.0 {
                continue;
            }
            for c in 0..k {
                if c != r {
                    a[(r, c)] += w * a[(k, c)];
                }
            }
        }
    }

    // Back substitution: unnormalized π built from the scaled columns.
    let mut pi = vec![0.0; n];
    pi[0] = 1.0;
    for k in 1..n {
        let mut s = 0.0;
        for r in 0..k {
            s += pi[r] * a[(r, k)];
        }
        pi[k] = s;
    }

    let total: f64 = pi.iter().sum();
    for v in &mut pi {
        *v /= total;
    }
    Ok(pi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_state_exact() {
        let q = Matrix::from_rows(&[&[-3.0, 3.0], &[1.0, -1.0]]).unwrap();
        let pi = gth_stationary(&q).unwrap();
        assert!((pi[0] - 0.25).abs() < 1e-15);
        assert!((pi[1] - 0.75).abs() < 1e-15);
    }

    #[test]
    fn detailed_balance_birth_death() {
        // Birth-death chain: π should satisfy π_i λ = π_{i+1} µ.
        let n = 6;
        let (lam, mu) = (0.7, 1.3);
        let mut q = Matrix::zeros(n, n);
        for i in 0..n - 1 {
            q[(i, i + 1)] = lam;
            q[(i + 1, i)] = mu;
        }
        for i in 0..n {
            let s: f64 = (0..n).filter(|&j| j != i).map(|j| q[(i, j)]).sum();
            q[(i, i)] = -s;
        }
        let pi = gth_stationary(&q).unwrap();
        for i in 0..n - 1 {
            assert!(
                (pi[i] * lam - pi[i + 1] * mu).abs() < 1e-14,
                "balance violated at {i}"
            );
        }
    }

    #[test]
    fn residual_pi_q_zero() {
        // Random-ish irreducible 5-state generator.
        let mut q = Matrix::from_fn(5, 5, |r, c| ((r * 7 + c * 3) % 5) as f64 * 0.2 + 0.1);
        for i in 0..5 {
            q[(i, i)] = 0.0;
            let s: f64 = (0..5).map(|j| q[(i, j)]).sum();
            q[(i, i)] = -s;
        }
        let pi = gth_stationary(&q).unwrap();
        let r = q.vec_mat(&pi);
        for v in r {
            assert!(v.abs() < 1e-13, "residual {v}");
        }
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-14);
    }

    #[test]
    fn reducible_chain_rejected() {
        // State 1 never reaches state 0.
        let q = Matrix::from_rows(&[&[-1.0, 1.0], &[0.0, 0.0]]).unwrap();
        assert!(matches!(
            gth_stationary(&q),
            Err(MarkovError::NotErgodic { .. })
        ));
    }

    #[test]
    fn negative_rate_rejected() {
        let q = Matrix::from_rows(&[&[-1.0, -1.0], &[1.0, -1.0]]).unwrap();
        assert!(matches!(
            gth_stationary(&q),
            Err(MarkovError::InvalidChain { .. })
        ));
    }

    #[test]
    fn single_state() {
        let q = Matrix::zeros(1, 1);
        assert_eq!(gth_stationary(&q).unwrap(), vec![1.0]);
    }

    #[test]
    fn stiff_chain_stability() {
        // Rates spanning 12 orders of magnitude: GTH should still produce
        // an exact-balance answer where naive elimination loses digits.
        let eps = 1e-12;
        let q = Matrix::from_rows(&[
            &[-eps, eps, 0.0],
            &[1.0, -1.0 - eps, eps],
            &[0.0, 1.0, -1.0],
        ])
        .unwrap();
        let pi = gth_stationary(&q).unwrap();
        let r = q.vec_mat(&pi);
        for v in r {
            assert!(v.abs() < 1e-15, "residual {v}");
        }
    }
}
