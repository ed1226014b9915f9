//! Compressed sparse row (CSR) matrices — the shared sparse kernel of the
//! solver stack.
//!
//! The SQ(d) ground-truth chains, the QBD truncated generators and the
//! uniformized transition operators are all *structurally* sparse: a state
//! has at most `O(N)` outgoing transitions while the state space has tens
//! of thousands of states. Storing them densely wastes `O(n²)` space and
//! turns every matrix–vector product into `O(n²)` work; this module keeps
//! them in CSR form so the iterative solvers in `slb-markov`, `slb-qbd`
//! and `slb-core::brute` share one `O(nnz)` kernel.
//!
//! Build incrementally with [`CooBuilder`] (duplicates are summed), or
//! convert an existing dense [`Matrix`] with [`CsrMatrix::from_dense`].
//!
//! # Example
//!
//! ```
//! use slb_linalg::CooBuilder;
//!
//! # fn main() -> Result<(), slb_linalg::LinalgError> {
//! let mut b = CooBuilder::new(2, 2);
//! b.add(0, 0, -2.0)?;
//! b.add(0, 1, 2.0)?;
//! b.add(1, 0, 1.0)?;
//! b.add(1, 1, -1.0)?;
//! let q = b.build();
//! // y = Q·x
//! let y = q.mat_vec(&[1.0, 0.0]);
//! assert_eq!(y, vec![-2.0, 1.0]);
//! // x·Q (transpose-matvec): the flow balance form used by π·Q = 0.
//! let pi = [1.0 / 3.0, 2.0 / 3.0];
//! let r = q.vec_mat(&pi);
//! assert!(r.iter().all(|v| v.abs() < 1e-15));
//! # Ok(())
//! # }
//! ```

use crate::{LinalgError, Matrix, Result};

/// Incremental coordinate-format builder for [`CsrMatrix`].
///
/// Entries may be added in any order; duplicate coordinates are **summed**
/// (the natural semantics for accumulating transition rates). Rows are kept
/// separately so building the final CSR is a per-row sort, `O(nnz log k)`
/// for maximum row length `k`.
#[derive(Debug, Clone)]
pub struct CooBuilder {
    rows: usize,
    cols: usize,
    entries: Vec<Vec<(usize, f64)>>,
}

impl CooBuilder {
    /// An empty builder for a `rows × cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix must be non-empty");
        CooBuilder {
            rows,
            cols,
            entries: vec![Vec::new(); rows],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries. Entries inserted via [`CooBuilder::add`]
    /// are merged on insertion, so for that path this equals the final
    /// [`CsrMatrix::nnz`]; [`CooBuilder::add_dense_block`] may leave
    /// duplicates that only collapse in [`CooBuilder::build`], making this
    /// an upper bound.
    pub fn raw_len(&self) -> usize {
        self.entries.iter().map(Vec::len).sum()
    }

    /// Adds `value` at `(row, col)`, summing with any entry already there.
    /// Exact zeros are accepted and dropped.
    ///
    /// # Errors
    ///
    /// [`LinalgError::InvalidInput`] if the coordinates are out of range or
    /// the value is non-finite.
    pub fn add(&mut self, row: usize, col: usize, value: f64) -> Result<()> {
        if row >= self.rows || col >= self.cols {
            return Err(LinalgError::InvalidInput {
                reason: format!(
                    "entry ({row}, {col}) out of range for {}x{} matrix",
                    self.rows, self.cols
                ),
            });
        }
        if !value.is_finite() {
            return Err(LinalgError::InvalidInput {
                reason: format!("non-finite value {value} at ({row}, {col})"),
            });
        }
        if value == 0.0 {
            return Ok(());
        }
        // Merge duplicates eagerly so repeated accumulation (e.g. redirected
        // transition rates) stays compact; rows are short in practice.
        if let Some(e) = self.entries[row].iter_mut().find(|(c, _)| *c == col) {
            e.1 += value;
        } else {
            self.entries[row].push((col, value));
        }
        Ok(())
    }

    /// Adds every non-zero of a dense block with its top-left corner at
    /// `(r0, c0)` — the block-matrix assembly primitive used by the QBD
    /// generators.
    ///
    /// Entries are appended without the per-entry duplicate scan of
    /// [`CooBuilder::add`] (a block's coordinates are distinct by
    /// construction, and wide QBD blocks would otherwise pay a quadratic
    /// scan per row); any overlap with previously added entries is summed
    /// when [`CooBuilder::build`] merges duplicates.
    ///
    /// # Errors
    ///
    /// [`LinalgError::InvalidInput`] if the block overhangs the matrix or
    /// contains a non-finite value; the builder is left untouched on
    /// error (all validation happens before the first insertion).
    pub fn add_dense_block(&mut self, r0: usize, c0: usize, block: &Matrix) -> Result<()> {
        if r0 + block.rows() > self.rows || c0 + block.cols() > self.cols {
            return Err(LinalgError::InvalidInput {
                reason: format!(
                    "{}x{} block at ({r0}, {c0}) overhangs {}x{} matrix",
                    block.rows(),
                    block.cols(),
                    self.rows,
                    self.cols
                ),
            });
        }
        if !block.is_finite() {
            return Err(LinalgError::InvalidInput {
                reason: format!("block at ({r0}, {c0}) contains a non-finite value"),
            });
        }
        for r in 0..block.rows() {
            for (c, &v) in block.row(r).iter().enumerate() {
                if v != 0.0 {
                    self.entries[r0 + r].push((c0 + c, v));
                }
            }
        }
        Ok(())
    }

    /// Freezes the builder into a [`CsrMatrix`], summing any duplicate
    /// coordinates left by [`CooBuilder::add_dense_block`].
    pub fn build(&self) -> CsrMatrix {
        let nnz = self.raw_len();
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx: Vec<usize> = Vec::with_capacity(nnz);
        let mut values: Vec<f64> = Vec::with_capacity(nnz);
        row_ptr.push(0);
        for row in &self.entries {
            let mut sorted: Vec<(usize, f64)> = row.clone();
            sorted.sort_unstable_by_key(|&(c, _)| c);
            let row_start = col_idx.len();
            for (c, v) in sorted {
                if col_idx.len() > row_start && *col_idx.last().expect("non-empty") == c {
                    *values.last_mut().expect("non-empty") += v;
                } else {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }
}

/// An immutable sparse matrix in compressed sparse row format.
///
/// Within each row, column indices are strictly increasing and values are
/// finite; these invariants are established by every constructor.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds from coordinate triplets; duplicates are summed.
    ///
    /// # Errors
    ///
    /// [`LinalgError::InvalidInput`] for empty dimensions, out-of-range
    /// coordinates or non-finite values.
    pub fn from_triplets<I>(rows: usize, cols: usize, triplets: I) -> Result<Self>
    where
        I: IntoIterator<Item = (usize, usize, f64)>,
    {
        if rows == 0 || cols == 0 {
            return Err(LinalgError::InvalidInput {
                reason: format!("matrix must be non-empty, got {rows}x{cols}"),
            });
        }
        let mut b = CooBuilder::new(rows, cols);
        for (r, c, v) in triplets {
            b.add(r, c, v)?;
        }
        Ok(b.build())
    }

    /// Compresses a dense matrix, dropping entries with `|a| ≤ drop_tol`
    /// (use `0.0` to keep every non-zero exactly).
    ///
    /// # Panics
    ///
    /// Panics if the matrix contains a non-finite value — silently
    /// dropping a `NaN` (or carrying an `∞`) would violate the finiteness
    /// invariant every other constructor enforces with an error.
    pub fn from_dense(dense: &Matrix, drop_tol: f64) -> Self {
        assert!(
            dense.is_finite(),
            "from_dense: matrix contains a non-finite value"
        );
        let (rows, cols) = dense.shape();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..rows {
            for (c, &v) in dense.row(r).iter().enumerate() {
                if v.abs() > drop_tol {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Expands to a dense [`Matrix`].
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                m[(r, c)] = v;
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterates over the stored entries of row `r` as `(col, value)`, in
    /// increasing column order.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    #[inline]
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let span = self.row_ptr[r]..self.row_ptr[r + 1];
        self.col_idx[span.clone()]
            .iter()
            .copied()
            .zip(self.values[span].iter().copied())
    }

    /// The entry at `(r, c)` (zero when not stored).
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        let span = self.row_ptr[r]..self.row_ptr[r + 1];
        match self.col_idx[span.clone()].binary_search(&c) {
            Ok(k) => self.values[span.start + k],
            Err(_) => 0.0,
        }
    }

    /// `y = A·x` into a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn mat_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.mat_vec_into(x, &mut y);
        y
    }

    /// `y = A·x` into a caller-provided buffer — the allocation-free hot
    /// path used by the iterative solvers.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    #[inline]
    pub fn mat_vec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "mat_vec: x has wrong length");
        assert_eq!(y.len(), self.rows, "mat_vec: y has wrong length");
        // Iterator-based row walk: one pair of slices per row, no
        // per-element bounds check on the CSR arrays.
        for (yr, (cols, vals)) in y.iter_mut().zip(
            self.row_ptr
                .windows(2)
                .map(|w| (&self.col_idx[w[0]..w[1]], &self.values[w[0]..w[1]])),
        ) {
            let mut acc = 0.0;
            for (c, v) in cols.iter().zip(vals) {
                acc += v * x[*c];
            }
            *yr = acc;
        }
    }

    /// `y = x·A` (equivalently `Aᵀ·x`) into a fresh vector — the
    /// transpose-matvec used by stationary solves `π·Q = 0`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows`.
    pub fn vec_mat(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.cols];
        self.vec_mat_into(x, &mut y);
        y
    }

    /// `y = x·A` into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != rows` or `y.len() != cols`.
    pub fn vec_mat_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.rows, "vec_mat: x has wrong length");
        assert_eq!(y.len(), self.cols, "vec_mat: y has wrong length");
        y.fill(0.0);
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            let span = self.row_ptr[r]..self.row_ptr[r + 1];
            for (c, v) in self.col_idx[span.clone()].iter().zip(&self.values[span]) {
                y[*c] += xr * v;
            }
        }
    }

    /// The transpose, again in CSR form (an `O(nnz)` counting sort).
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.cols];
        for &c in &self.col_idx {
            counts[c] += 1;
        }
        let mut row_ptr = Vec::with_capacity(self.cols + 1);
        row_ptr.push(0);
        for c in 0..self.cols {
            row_ptr.push(row_ptr[c] + counts[c]);
        }
        let mut next = row_ptr[..self.cols].to_vec();
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                let k = next[c];
                col_idx[k] = r;
                values[k] = v;
                next[c] += 1;
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Scales every entry by `s`.
    pub fn scale(&self, s: f64) -> CsrMatrix {
        let mut out = self.clone();
        for v in &mut out.values {
            *v *= s;
        }
        out
    }

    /// Row-scaling `diag(d)·A`: multiplies row `r` by `d[r]`. This is the
    /// kernel behind uniformization (`Q/Λ`) and Jacobi preconditioning
    /// (`D⁻¹·Q`).
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `d.len() != rows`.
    pub fn scale_rows(&self, d: &[f64]) -> Result<CsrMatrix> {
        if d.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "scale_rows",
                lhs: self.shape(),
                rhs: (d.len(), 1),
            });
        }
        let mut out = self.clone();
        for (r, &dr) in d.iter().enumerate() {
            let span = self.row_ptr[r]..self.row_ptr[r + 1];
            for v in &mut out.values[span] {
                *v *= dr;
            }
        }
        Ok(out)
    }

    /// `A + s·I`, merging the shift into existing diagonal entries and
    /// materializing missing ones. Used to form uniformized operators
    /// `P = I + Q/Λ` without going dense.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] for rectangular matrices.
    pub fn plus_scaled_identity(&self, s: f64) -> Result<CsrMatrix> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                shape: self.shape(),
            });
        }
        let mut b = CooBuilder::new(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                b.add(r, c, v)?;
            }
            b.add(r, r, s)?;
        }
        Ok(b.build())
    }

    /// Maximum absolute row sum (the operator ∞-norm).
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|r| self.row(r).map(|(_, v)| v.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Maximum absolute column sum (the operator 1-norm).
    pub fn norm_one(&self) -> f64 {
        let mut col_sums = vec![0.0f64; self.cols];
        for (c, v) in self.col_idx.iter().zip(&self.values) {
            col_sums[*c] += v.abs();
        }
        col_sums.into_iter().fold(0.0, f64::max)
    }

    /// Largest entry magnitude (zero for an all-zero matrix).
    pub fn max_abs(&self) -> f64 {
        self.values.iter().fold(0.0, |m, v| m.max(v.abs()))
    }

    /// Per-row sums `A·e` — outflow rates when `A` holds transition rates.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|r| self.row(r).map(|(_, v)| v).sum())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [ 1  0  2 ]
        // [ 0  3  0 ]
        CsrMatrix::from_triplets(2, 3, [(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]).unwrap()
    }

    #[test]
    fn shape_and_entries() {
        let a = sample();
        assert_eq!(a.shape(), (2, 3));
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.get(0, 2), 2.0);
        assert_eq!(a.get(0, 1), 0.0);
        assert!(!a.is_square());
    }

    #[test]
    fn duplicates_sum_and_zeros_drop() {
        let a = CsrMatrix::from_triplets(2, 2, [(0, 1, 1.0), (0, 1, 2.5), (1, 0, 0.0)]).unwrap();
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.get(0, 1), 3.5);
    }

    #[test]
    fn invalid_triplets_rejected() {
        assert!(CsrMatrix::from_triplets(2, 2, [(2, 0, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(2, 2, [(0, 0, f64::NAN)]).is_err());
        assert!(CsrMatrix::from_triplets(0, 2, []).is_err());
    }

    #[test]
    fn matvec_and_transpose_matvec() {
        let a = sample();
        assert_eq!(a.mat_vec(&[1.0, 1.0, 1.0]), vec![3.0, 3.0]);
        assert_eq!(a.vec_mat(&[1.0, 1.0]), vec![1.0, 3.0, 2.0]);
        // vec_mat(A) == mat_vec(Aᵀ).
        let at = a.transpose();
        assert_eq!(at.mat_vec(&[1.0, 1.0]), a.vec_mat(&[1.0, 1.0]));
    }

    #[test]
    fn transpose_round_trip() {
        let a = sample();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose().get(2, 0), 2.0);
    }

    #[test]
    fn dense_round_trip() {
        let d = Matrix::from_rows(&[&[0.0, 1.5], &[-2.0, 0.0]]).unwrap();
        let s = CsrMatrix::from_dense(&d, 0.0);
        assert_eq!(s.nnz(), 2);
        assert!(s.to_dense().approx_eq(&d, 0.0));
        // Drop tolerance removes small entries.
        let s = CsrMatrix::from_dense(&d, 1.6);
        assert_eq!(s.nnz(), 1);
        assert_eq!(s.get(1, 0), -2.0);
    }

    #[test]
    fn scaling_kernels() {
        let a = sample();
        assert_eq!(a.scale(2.0).get(0, 2), 4.0);
        let rs = a.scale_rows(&[2.0, -1.0]).unwrap();
        assert_eq!(rs.get(0, 0), 2.0);
        assert_eq!(rs.get(1, 1), -3.0);
        assert!(a.scale_rows(&[1.0]).is_err());
    }

    #[test]
    fn scaled_identity_uniformization() {
        // Q of a 2-state chain, Λ = 2: P = I + Q/Λ is stochastic.
        let q =
            CsrMatrix::from_triplets(2, 2, [(0, 0, -2.0), (0, 1, 2.0), (1, 0, 1.0), (1, 1, -1.0)])
                .unwrap();
        let p = q.scale(1.0 / 2.0).plus_scaled_identity(1.0).unwrap();
        for s in p.row_sums() {
            assert!((s - 1.0).abs() < 1e-15);
        }
        assert!(sample().plus_scaled_identity(1.0).is_err());
    }

    #[test]
    fn two_state_power() {
        // The stationary law of Q = [[-2, 2], [1, -1]] is the Perron
        // vector of the transposed uniformized chain (I + Q/Λ)ᵀ.
        let q =
            CsrMatrix::from_triplets(2, 2, [(0, 0, -2.0), (0, 1, 2.0), (1, 0, 1.0), (1, 1, -1.0)])
                .unwrap();
        let pt = q
            .scale(1.0 / 2.5)
            .plus_scaled_identity(1.0)
            .unwrap()
            .transpose();
        let p = crate::power_iteration(&pt, 1e-14, 10_000).unwrap();
        assert!((p.eigenvalue - 1.0).abs() < 1e-12);
        assert!((p.eigenvector[0] - 1.0 / 3.0).abs() < 1e-9, "{p:?}");
    }

    #[test]
    fn generator_csr_rows_sum_to_zero() {
        // A generator assembled transposed, as the sparse stationary
        // solves take it: add(to, from, rate) plus the -outflow diagonal.
        let mut qt = CooBuilder::new(3, 3);
        for (from, to, rate) in [(0, 1, 1.5), (1, 2, 0.5), (2, 0, 2.0), (2, 1, 0.25)] {
            qt.add(to, from, rate).unwrap();
            qt.add(from, from, -rate).unwrap();
        }
        let qt = qt.build();
        assert_eq!(qt.get(2, 2), -2.25);
        assert_eq!(qt.get(1, 2), 0.25);
        for s in qt.transpose().row_sums() {
            assert!(s.abs() < 1e-15);
        }
    }

    #[test]
    fn invalid_insertions_rejected() {
        let mut b = CooBuilder::new(2, 2);
        assert!(b.add(2, 0, 1.0).is_err());
        assert!(b.add(0, 2, 1.0).is_err());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                b.add(0, 1, bad),
                Err(LinalgError::InvalidInput { .. })
            ));
        }
        assert_eq!(b.raw_len(), 0);
    }

    #[test]
    fn norms() {
        let a = sample();
        assert_eq!(a.norm_inf(), 3.0); // max row sum
        assert_eq!(a.norm_one(), 3.0); // max col sum
        assert_eq!(a.max_abs(), 3.0);
        assert_eq!(a.row_sums(), vec![3.0, 3.0]);
    }

    #[test]
    fn dense_block_overlap_merges_at_build() {
        let mut b = CooBuilder::new(2, 2);
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 3.0]]).unwrap();
        b.add_dense_block(0, 0, &m).unwrap();
        b.add_dense_block(0, 0, &m).unwrap();
        b.add(0, 0, 0.5).unwrap();
        let a = b.build();
        assert_eq!(a.nnz(), 3);
        assert_eq!(a.get(0, 0), 2.5);
        assert_eq!(a.get(0, 1), 4.0);
        assert_eq!(a.get(1, 1), 6.0);
        // Overhanging block rejected up front.
        assert!(b.add_dense_block(1, 1, &m).is_err());
    }

    #[test]
    fn builder_row_entries() {
        let mut b = CooBuilder::new(2, 2);
        b.add(0, 1, 1.0).unwrap();
        b.add(0, 1, 1.0).unwrap();
        assert_eq!(b.raw_len(), 1);
        assert_eq!(b.build().get(0, 1), 2.0);
    }
}
