//! Spectral utilities: power iteration for the dominant eigenpair and a
//! cheap spectral-radius upper bound.
//!
//! The QBD stability analysis needs `sp(R) < 1`; the rate matrix `R` is
//! nonnegative, so power iteration converges to its Perron root from a
//! positive start vector, and `min(‖R‖₁, ‖R‖_∞)` is a certified upper
//! bound.
//!
//! The iteration is written against the [`LinearOperator`] abstraction,
//! so the same code runs on a dense [`Matrix`] or a sparse
//! [`CsrMatrix`]; a sparse operator is never materialized densely.

use crate::{CsrMatrix, LinalgError, Matrix, Result};

/// A linear map exposing only its shape and `y = A·x` — everything
/// power iteration needs. Implemented by [`Matrix`] (dense, `O(n²)` per
/// apply) and [`CsrMatrix`] (sparse, `O(nnz)` per apply).
pub trait LinearOperator {
    /// Shape `(rows, cols)` of the operator.
    fn shape(&self) -> (usize, usize);

    /// Computes `y = A·x`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `x.len()` or `y.len()` differ from the
    /// column or row count of [`LinearOperator::shape`].
    fn apply(&self, x: &[f64], y: &mut [f64]);
}

impl LinearOperator for Matrix {
    fn shape(&self) -> (usize, usize) {
        Matrix::shape(self)
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.mat_vec_into(x, y);
    }
}

impl LinearOperator for CsrMatrix {
    fn shape(&self) -> (usize, usize) {
        CsrMatrix::shape(self)
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.mat_vec_into(x, y);
    }
}

/// Result of a converged power iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerIteration {
    /// Estimated dominant eigenvalue (in modulus).
    pub eigenvalue: f64,
    /// Corresponding right eigenvector, normalized to unit 1-norm.
    pub eigenvector: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
}

/// Estimates the dominant eigenvalue of a square dense or sparse matrix
/// by power iteration: `O(n²)` per step on a [`Matrix`], `O(nnz)` on a
/// [`CsrMatrix`].
///
/// Starts from the uniform positive vector, which is adequate for the
/// nonnegative matrices this project applies it to (rate matrices `R`,
/// stochastic matrices `G`).
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] for rectangular input.
/// * [`LinalgError::NoConvergence`] if the eigenvalue estimate has not
///   stabilized to within `tol` after `max_iter` iterations.
///
/// # Example
///
/// ```
/// use slb_linalg::{power_iteration, CsrMatrix, Matrix};
///
/// # fn main() -> Result<(), slb_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 0.5]])?;
/// let p = power_iteration(&a, 1e-12, 10_000)?;
/// assert!((p.eigenvalue - 2.0).abs() < 1e-9);
/// let s = CsrMatrix::from_dense(&a, 0.0);
/// assert!((power_iteration(&s, 1e-12, 10_000)?.eigenvalue - 2.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn power_iteration<A: LinearOperator + ?Sized>(
    a: &A,
    tol: f64,
    max_iter: usize,
) -> Result<PowerIteration> {
    let (n, cols) = a.shape();
    if n != cols {
        return Err(LinalgError::NotSquare { shape: (n, cols) });
    }
    let mut v = vec![1.0 / n as f64; n];
    let mut w = vec![0.0; n];
    let mut aw = vec![0.0; n];
    let mut lambda = 0.0_f64;
    for it in 1..=max_iter {
        a.apply(&v, &mut w);
        let norm = crate::vector::norm_one(&w);
        if norm == 0.0 {
            // a annihilates the positive cone only if it is nilpotent on
            // it; the dominant eigenvalue is 0.
            return Ok(PowerIteration {
                eigenvalue: 0.0,
                eigenvector: v,
                iterations: it,
            });
        }
        for x in &mut w {
            *x /= norm;
        }
        a.apply(&w, &mut aw);
        let new_lambda = crate::vector::dot(&aw, &w) / crate::vector::dot(&w, &w);
        let done = (new_lambda - lambda).abs() <= tol * (1.0 + new_lambda.abs());
        lambda = new_lambda;
        std::mem::swap(&mut v, &mut w);
        if done && it > 1 {
            return Ok(PowerIteration {
                eigenvalue: lambda,
                eigenvector: v,
                iterations: it,
            });
        }
    }
    Err(LinalgError::NoConvergence {
        method: "power_iteration",
        iterations: max_iter,
        residual: f64::NAN,
    })
}

/// A certified upper bound on the spectral radius:
/// `sp(A) ≤ min(‖A‖₁, ‖A‖_∞)`.
pub fn spectral_radius_upper_bound(a: &Matrix) -> f64 {
    a.norm_one().min(a.norm_inf())
}

/// Sparse counterpart of [`spectral_radius_upper_bound`].
pub fn spectral_radius_upper_bound_sparse(a: &CsrMatrix) -> f64 {
    a.norm_one().min(a.norm_inf())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_dominant_eigenvalue() {
        let a = Matrix::from_diag(&[3.0, 1.0, 0.5]);
        let p = power_iteration(&a, 1e-13, 10_000).unwrap();
        assert!((p.eigenvalue - 3.0).abs() < 1e-8, "{p:?}");
    }

    #[test]
    fn stochastic_matrix_has_unit_radius() {
        let a = Matrix::from_rows(&[&[0.5, 0.5], &[0.25, 0.75]]).unwrap();
        let p = power_iteration(&a, 1e-13, 10_000).unwrap();
        assert!((p.eigenvalue - 1.0).abs() < 1e-9);
        assert!(spectral_radius_upper_bound(&a) >= 1.0 - 1e-12);
    }

    #[test]
    fn zero_matrix() {
        let a = Matrix::zeros(3, 3);
        let p = power_iteration(&a, 1e-12, 100).unwrap();
        assert_eq!(p.eigenvalue, 0.0);
    }

    #[test]
    fn norm_bound_dominates() {
        let a = Matrix::from_rows(&[&[0.1, 0.7], &[0.2, 0.05]]).unwrap();
        let p = power_iteration(&a, 1e-13, 10_000).unwrap();
        assert!(p.eigenvalue <= spectral_radius_upper_bound(&a) + 1e-12);
    }

    #[test]
    fn rectangular_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            power_iteration(&a, 1e-12, 10),
            Err(LinalgError::NotSquare { .. })
        ));
        let s = CsrMatrix::from_dense(&a, 0.0);
        assert!(matches!(
            power_iteration(&s, 1e-12, 10),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn sparse_matches_dense() {
        let d = Matrix::from_rows(&[&[0.2, 0.7, 0.0], &[0.0, 0.1, 0.5], &[0.3, 0.0, 0.4]]).unwrap();
        let s = CsrMatrix::from_dense(&d, 0.0);
        let pd = power_iteration(&d, 1e-13, 100_000).unwrap();
        let ps = power_iteration(&s, 1e-13, 100_000).unwrap();
        assert!((pd.eigenvalue - ps.eigenvalue).abs() < 1e-10);
        assert!(
            (spectral_radius_upper_bound(&d) - spectral_radius_upper_bound_sparse(&s)).abs()
                < 1e-15
        );
    }

    #[test]
    fn sparse_stochastic_large() {
        // Ring DTMC on 500 states: dominant eigenvalue 1, O(nnz) per step.
        let n = 500;
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, (i + 1) % n, 0.6));
            t.push((i, i, 0.4));
        }
        let p = CsrMatrix::from_triplets(n, n, t).unwrap();
        let r = power_iteration(&p, 1e-12, 100_000).unwrap();
        assert!((r.eigenvalue - 1.0).abs() < 1e-9);
    }
}
