//! Sparse (lumped-state) QBD solver path.
//!
//! The dense [`QbdBlocks`](crate::QbdBlocks) container stores each block as
//! a full `m × m` matrix and funnels every solve through LU — perfect up to
//! a few thousand states, hopeless at the `C(N+T−1, T)` block sizes the
//! occupancy-lumped SQ(d) models reach for `N` in the hundreds (`m` is
//! 32 896 at `N = 256, T = 2` and 131 328 at `N = 512`). This module is
//! the large-`N` path:
//!
//! * [`SparseQbdBlocks`] — the same six validated blocks, held as
//!   [`CsrMatrix`] and never densified;
//! * [`SparseQbdBlocks::solve_scalar_tail`] (in `stationary`) — the
//!   Theorem 2/3 scalar-tail boundary solve, via sparse Gauss–Seidel
//!   instead of LU;
//! * [`SparseQbdBlocks::solve_decay_tail`] — a closed truncated solve for
//!   models without a scalar tail: levels `0..L` explicit, the tail above
//!   them closed through one censored hub state and summed as geometric,
//!   `L` doubling from 4 until the closure is exact to a tolerance, all on
//!   CSR blocks;
//! * [`decay_rate_sparse`](crate::decay_rate_sparse) (in `logred`) — the
//!   decay-rate-only fast path: `sp(R)` as the root of the Perron
//!   eigenvalue of `A(z) = A0 + z·A1 + z²·A2` without ever forming `R`.
//!
//! Every Gauss–Seidel solve here aggregates over state classes (see
//! [`null_vector_gs`]): the blocks carry a class label per boundary state
//! and per level state ([`SparseQbdBlocks::with_classes`]), and each
//! solve lays those labels out over its own system, level by level.
//! Blocks without labels get one class per level.
//!
//! Every entry point mirrors a dense counterpart and is pinned to it by
//! equivalence tests at sizes where both run.

use slb_linalg::{null_vector_gs, Budget, CooBuilder, CsrMatrix, GsOptions, NullVector};

use crate::{QbdBlocks, QbdError, Result};

/// Row sums of a generator must vanish to this absolute tolerance.
const ROW_SUM_TOL: f64 = 1e-9;

/// The six blocks of a level-independent QBD generator in compressed
/// sparse row form — the lumped-state twin of [`QbdBlocks`].
///
/// Invariants validated at construction match the dense container:
/// shape consistency, nonnegative off-diagonal entries (`R00`/`A1`
/// diagonals may be negative), and vanishing row sums of each full
/// generator row (`R00·e + R01·e = 0`, `R10·e + A1·e + A0·e = 0`,
/// `A2·e + A1·e + A0·e = 0`). Validation is `O(nnz)`.
///
/// The container also holds the aggregation classes of its solves: a
/// label per boundary state and per state of a repeating level, all 0
/// unless set by [`SparseQbdBlocks::with_classes`].
#[derive(Debug, Clone, PartialEq)]
pub struct SparseQbdBlocks {
    r00: CsrMatrix,
    r01: CsrMatrix,
    r10: CsrMatrix,
    a0: CsrMatrix,
    a1: CsrMatrix,
    a2: CsrMatrix,
    boundary_classes: Vec<u32>,
    level_classes: Vec<u32>,
}

/// Options for the sparse Gauss–Seidel solves on [`SparseQbdBlocks`].
#[derive(Debug, Clone, PartialEq)]
pub struct SparseSolveOptions {
    /// Scaled residual target `‖π M‖∞ / (‖M‖∞ ‖π‖∞)` for Gauss–Seidel.
    pub gs_tol: f64,
    /// Iteration cap for one Gauss–Seidel solve ([`GsOptions::max_sweeps`]:
    /// each iteration is a forward and a backward pass).
    pub gs_max_sweeps: usize,
    /// Truncation target for [`SparseQbdBlocks::solve_decay_tail`]: the
    /// hub's return shape `w` is iterated until its flux-weighted change
    /// is at most this, and `L` levels are accepted once the closed tail
    /// holds, or the closure may misroute, at most this much probability
    /// mass.
    pub tail_tol: f64,
    /// Explicit levels of the first truncation round (at least 2).
    pub initial_levels: usize,
    /// Hard cap on explicit levels (the doubling stops here).
    pub max_levels: usize,
    /// Cooperative cancellation budget for the solve: deadline, cancel
    /// token and fail-point triggers, polled once per Gauss–Seidel
    /// iteration and once per truncation round. Defaults to
    /// [`Budget::unlimited`].
    pub budget: Budget,
}

impl Default for SparseSolveOptions {
    /// `gs_tol` is 1e-13: the mean delay of an upper model near its
    /// stability boundary amplifies the residual by ~1e4 (N = 3, d = 1,
    /// T = 3, ρ = 0.567 reads 2.6e-8 off the dense value at 1e-12 and
    /// 3.1e-9 at 1e-13), and the lumped path must match the dense one to
    /// 1e-8.
    fn default() -> Self {
        SparseSolveOptions {
            gs_tol: 1e-13,
            gs_max_sweeps: 50_000,
            tail_tol: 1e-12,
            initial_levels: 4,
            max_levels: 4_096,
            budget: Budget::unlimited(),
        }
    }
}

impl SparseSolveOptions {
    /// The Gauss–Seidel options of one solve over a system with these
    /// class labels, started from `start` (uniform when `None`).
    pub(crate) fn gs<'a>(&self, classes: &'a [u32], start: Option<&'a [f64]>) -> GsOptions<'a> {
        GsOptions {
            tol: self.gs_tol,
            max_sweeps: self.gs_max_sweeps,
            budget: self.budget.clone(),
            classes: Some(classes),
            start,
        }
    }
}

impl SparseQbdBlocks {
    /// Builds and validates the sparse block container.
    ///
    /// # Errors
    ///
    /// [`QbdError::InvalidBlocks`] describing the first violated
    /// invariant.
    ///
    /// # Examples
    ///
    /// M/M/1 as the trivial one-phase QBD:
    ///
    /// ```
    /// use slb_linalg::CsrMatrix;
    /// use slb_qbd::SparseQbdBlocks;
    ///
    /// # fn main() -> Result<(), slb_qbd::QbdError> {
    /// let (lam, mu) = (0.6, 1.0);
    /// let one = |v: f64| CsrMatrix::from_triplets(1, 1, [(0, 0, v)]).unwrap();
    /// let blocks = SparseQbdBlocks::new(
    ///     one(-lam),       // R00
    ///     one(lam),        // R01
    ///     one(mu),         // R10
    ///     one(lam),        // A0
    ///     one(-(lam + mu)),// A1
    ///     one(mu),         // A2
    /// )?;
    /// assert_eq!(blocks.level_len(), 1);
    /// assert!(blocks.is_stable()?);
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(
        r00: CsrMatrix,
        r01: CsrMatrix,
        r10: CsrMatrix,
        a0: CsrMatrix,
        a1: CsrMatrix,
        a2: CsrMatrix,
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

        let off_diag_nonneg = |mat: &CsrMatrix, name: &str, diag_ok: bool| -> Result<()> {
            for r in 0..mat.rows() {
                for (c, v) in mat.row(r) {
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

        let sums = |m: &CsrMatrix| m.row_sums();
        let (s00, s01) = (sums(&r00), sums(&r01));
        for r in 0..nb {
            let s = s00[r] + s01[r];
            if s.abs() > ROW_SUM_TOL {
                return Err(QbdError::InvalidBlocks {
                    reason: format!("boundary row {r} sums to {s}, expected 0"),
                });
            }
        }
        let (s10, s1, s0, s2) = (sums(&r10), sums(&a1), sums(&a0), sums(&a2));
        for r in 0..m {
            let lvl0 = s10[r] + s1[r] + s0[r];
            if lvl0.abs() > ROW_SUM_TOL {
                return Err(QbdError::InvalidBlocks {
                    reason: format!("level-0 row {r} sums to {lvl0}, expected 0"),
                });
            }
            let rep = s2[r] + s1[r] + s0[r];
            if rep.abs() > ROW_SUM_TOL {
                return Err(QbdError::InvalidBlocks {
                    reason: format!("repeating row {r} sums to {rep}, expected 0"),
                });
            }
        }

        Ok(SparseQbdBlocks {
            boundary_classes: vec![0; nb],
            level_classes: vec![0; m],
            r00,
            r01,
            r10,
            a0,
            a1,
            a2,
        })
    }

    /// Converts a validated dense container to sparse form (exact — no
    /// drop tolerance is applied).
    pub fn from_dense(dense: &QbdBlocks) -> Self {
        let csr = |m: &slb_linalg::Matrix| CsrMatrix::from_dense(m, 0.0);
        SparseQbdBlocks {
            boundary_classes: vec![0; dense.boundary_len()],
            level_classes: vec![0; dense.level_len()],
            r00: csr(dense.r00()),
            r01: csr(dense.r01()),
            r10: csr(dense.r10()),
            a0: csr(dense.a0()),
            a1: csr(dense.a1()),
            a2: csr(dense.a2()),
        }
    }

    /// Sets the aggregation classes of the Gauss–Seidel solves: a label
    /// for every boundary state and for every state of a repeating
    /// level. A solve over the boundary and levels `0, 1, …` gives
    /// boundary state `i` class `boundary[i]` and state `j` of level `q`
    /// class `B + q·L + level[j]`, where `B` and `L` are one more than
    /// the largest boundary and level label. The phase chain `A0 + A1 +
    /// A2` uses the level labels alone. Labels should grow with the
    /// "distance" the chain must travel between states — the bound
    /// models use the job total — because the solver merges adjacent
    /// labels when there are too many classes.
    ///
    /// # Errors
    ///
    /// [`QbdError::InvalidBlocks`] if a label vector's length differs
    /// from its block's dimension.
    pub fn with_classes(mut self, boundary: Vec<u32>, level: Vec<u32>) -> Result<Self> {
        if boundary.len() != self.boundary_len() || level.len() != self.level_len() {
            return Err(QbdError::InvalidBlocks {
                reason: format!(
                    "{} boundary and {} level class labels for blocks of {} and {} states",
                    boundary.len(),
                    level.len(),
                    self.boundary_len(),
                    self.level_len()
                ),
            });
        }
        self.boundary_classes = boundary;
        self.level_classes = level;
        Ok(self)
    }

    /// The aggregation class labels: `(boundary, level)`.
    pub fn classes(&self) -> (&[u32], &[u32]) {
        (&self.boundary_classes, &self.level_classes)
    }

    /// Class labels of a system made of the boundary followed by
    /// `levels` repeating levels (see [`SparseQbdBlocks::with_classes`]).
    pub(crate) fn system_classes(&self, levels: usize) -> Vec<u32> {
        let span = |labels: &[u32]| labels.iter().max().map_or(0, |&l| l + 1);
        let (b, l) = (span(&self.boundary_classes), span(&self.level_classes));
        let mut classes = self.boundary_classes.clone();
        for q in 0..levels as u32 {
            classes.extend(self.level_classes.iter().map(|&c| b + q * l + c));
        }
        classes
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
    pub fn r00(&self) -> &CsrMatrix {
        &self.r00
    }

    /// Boundary → level-0 block `R01`.
    pub fn r01(&self) -> &CsrMatrix {
        &self.r01
    }

    /// Level-0 → boundary block `R10`.
    pub fn r10(&self) -> &CsrMatrix {
        &self.r10
    }

    /// Upward (level `q` → `q+1`) block `A0`.
    pub fn a0(&self) -> &CsrMatrix {
        &self.a0
    }

    /// Local (level `q` → `q`) block `A1`.
    pub fn a1(&self) -> &CsrMatrix {
        &self.a1
    }

    /// Downward (level `q` → `q−1`) block `A2`.
    pub fn a2(&self) -> &CsrMatrix {
        &self.a2
    }

    /// Stationary vector of the phase process `A = A0 + A1 + A2`, via
    /// sparse Gauss–Seidel (the dense container uses GTH here).
    ///
    /// # Errors
    ///
    /// [`QbdError::NoConvergence`] if the Gauss–Seidel iteration fails
    /// to converge (e.g. `A` is reducible).
    pub fn phase_stationary(&self) -> Result<Vec<f64>> {
        Ok(self.phase_solve(&Budget::unlimited())?.x)
    }

    /// The Gauss–Seidel solve behind
    /// [`SparseQbdBlocks::phase_stationary`], with its iteration count and
    /// residual, under a cooperative [`Budget`] — the phase chain is
    /// block-sized (`m` reaches six figures at production `N`), so its
    /// solve must be interruptible too. It aggregates over the level
    /// class labels.
    ///
    /// # Errors
    ///
    /// As [`SparseQbdBlocks::phase_stationary`], plus
    /// [`QbdError::Interrupted`].
    pub fn phase_solve(&self, budget: &Budget) -> Result<NullVector> {
        let m = self.level_len();
        if m == 1 {
            // A single phase has the trivial stationary vector (its
            // 1×1 phase generator is identically zero).
            return Ok(NullVector {
                x: vec![1.0],
                residual: 0.0,
                sweeps: 0,
            });
        }
        let mut coo = CooBuilder::new(m, m);
        for blk in [&self.a0, &self.a1, &self.a2] {
            add_csr_block_transposed(&mut coo, 0, 0, blk, 1.0)?;
        }
        let opts = GsOptions {
            tol: 1e-13,
            max_sweeps: 100_000,
            budget: budget.clone(),
            classes: Some(&self.level_classes),
            start: None,
        };
        Ok(null_vector_gs(&coo.build(), &vec![1.0; m], &opts)?)
    }

    /// Mean drifts `(π A0 e, π A2 e)` of the level process under the phase
    /// stationary vector `π`.
    ///
    /// # Errors
    ///
    /// Propagates [`SparseQbdBlocks::phase_stationary`] failures.
    pub fn drifts(&self) -> Result<(f64, f64)> {
        self.drifts_budgeted(&Budget::unlimited())
    }

    /// [`SparseQbdBlocks::drifts`] under a cooperative [`Budget`].
    ///
    /// # Errors
    ///
    /// As [`SparseQbdBlocks::drifts`], plus [`QbdError::Interrupted`].
    pub fn drifts_budgeted(&self, budget: &Budget) -> Result<(f64, f64)> {
        let pi = self.phase_solve(budget)?.x;
        let dot_rows = |m: &CsrMatrix| -> f64 {
            m.row_sums()
                .iter()
                .zip(&pi)
                .map(|(s, p)| s * p)
                .sum::<f64>()
        };
        Ok((dot_rows(&self.a0), dot_rows(&self.a2)))
    }

    /// Neuts' stability criterion: positive recurrence iff
    /// `π A0 e < π A2 e`.
    ///
    /// # Errors
    ///
    /// Propagates [`SparseQbdBlocks::drifts`] failures.
    pub fn is_stable(&self) -> Result<bool> {
        let (up, down) = self.drifts()?;
        Ok(up < down)
    }

    /// Solves the QBD on levels `0..L` with the tail above level `L−1`
    /// closed through one censored hub state, doubling `L` until the
    /// closure is exact to [`SparseSolveOptions::tail_tol`] — never
    /// leaving CSR form and never forming `G`, `R` or a dense block.
    ///
    /// Censoring the levels above `L−1` out of the chain leaves the top
    /// block `A1 + A0·G`. The solve replaces `G` by the rank-one `e·wᵀ`,
    /// which is exact for the stationary law when `w` is the shape `π_L·A2
    /// / (π_L·A2·e)` of the flow down from level `L`. It does so without
    /// densifying `A0·e·wᵀ`: a hub state receives the upward rate
    /// `(A0·e)_i` of every top-level state `i` and returns it to state `j`
    /// at rate `κ·w_j`, `κ = ‖A1‖∞`; censoring the hub out gives exactly
    /// `A1 + A0·e·wᵀ` for any `κ > 0`. The system stays a generator with
    /// `2m + 1` more entries and is solved by Gauss–Seidel with
    /// aggregation over the block's classes, the hub in the top level's
    /// last class; its probability is dropped afterwards.
    ///
    /// `w` starts from the phase law `π` of `A0 + A1 + A2` and is set to
    /// the shape `x_top·A2 / (x_top·A2·e)` of the solved top level
    /// `x_top`, each update a warm-started re-solve, until the
    /// flux-weighted change `(x_top·A0·e)·‖Δw‖₁` is at most `tail_tol`.
    /// The tail above the top level is summed as geometric with the
    /// cut-balance ratio `η = x_top·A0·e / x_top·A2·e`: each level `L−1+k`
    /// is `ηᵏ·x_top`, so the top level weighs `1/(1−η)` in the
    /// normalization.
    ///
    /// `L` starts at [`SparseSolveOptions::initial_levels`]. A round
    /// with `w` settled is accepted when the closed tail holds at most
    /// `tail_tol` of the mass, or when the mass the closure may misplace
    /// is at most `tail_tol`: the closure and the tail sum both give every
    /// level from `L−1` up the top level's shape, so they misplace at
    /// most the mass there times the shape change `‖x̂_{L−1} −
    /// x̂_{L−2}‖₁` (`x̂ = x/(x·e)`) between the top two levels, which
    /// decays geometrically in `L`. Otherwise, or when the change of `w`
    /// stops falling, `L` doubles and the next round starts from this
    /// one, its new levels filled by `η`-scaled copies of the top level.
    ///
    /// This is the upper-bound path for models whose tail is genuinely
    /// matrix-geometric (no Theorem 2/3 scalar shortcut); use
    /// [`SparseQbdBlocks::solve_scalar_tail`] when a scalar decay is
    /// known.
    ///
    /// # Errors
    ///
    /// * [`QbdError::Unstable`] if Neuts' drift condition fails.
    /// * [`QbdError::NoConvergence`] if the cap on explicit levels is hit
    ///   before a round is accepted, or a Gauss–Seidel solve stalls.
    /// * [`QbdError::Interrupted`] when [`SparseSolveOptions::budget`]
    ///   trips mid-solve.
    ///
    /// # Examples
    ///
    /// M/M/1 (λ = 0.6): level masses decay geometrically with ratio ρ,
    /// and the closure is exact.
    ///
    /// ```
    /// use slb_linalg::CsrMatrix;
    /// use slb_qbd::{SparseQbdBlocks, SparseSolveOptions};
    ///
    /// # fn main() -> Result<(), slb_qbd::QbdError> {
    /// let (lam, mu) = (0.6, 1.0);
    /// let one = |v: f64| CsrMatrix::from_triplets(1, 1, [(0, 0, v)]).unwrap();
    /// let blocks = SparseQbdBlocks::new(
    ///     one(-lam), one(lam), one(mu),
    ///     one(lam), one(-(lam + mu)), one(mu),
    /// )?;
    /// let sol = blocks.solve_decay_tail(&SparseSolveOptions::default())?;
    /// let ratio = sol.levels()[3][0] / sol.levels()[2][0];
    /// assert!((ratio - 0.6).abs() < 1e-9);
    /// assert!((sol.decay() - 0.6).abs() < 1e-6);
    /// assert!((sol.total_mass() - 1.0).abs() < 1e-12);
    /// # Ok(())
    /// # }
    /// ```
    pub fn solve_decay_tail(&self, opts: &SparseSolveOptions) -> Result<TruncatedStationary> {
        let pi = self.phase_solve(&opts.budget)?.x;
        let closure = Closure::new(self);
        let (up, down) = (dot(&pi, &closure.a0e), dot(&pi, &closure.a2e));
        if up >= down {
            return Err(QbdError::Unstable {
                up_drift: up,
                down_drift: down,
            });
        }
        let tol = opts.tail_tol;
        let mut w = closure.entry_shape(&pi);
        let mut levels = opts.initial_levels.max(2);
        let mut start: Option<Vec<f64>> = None;
        let mut total_sweeps = 0;
        loop {
            opts.budget
                .check("decay_tail_truncation", levels, f64::NAN)?;
            let mut classes = self.system_classes(levels);
            classes.push(*classes.last().expect("at least one level"));
            let ones = vec![1.0; classes.len()];
            let mut mt = closure.truncated_balance_transposed(levels)?;
            let mut last_shift = f64::INFINITY;
            let (closed, settled) = loop {
                closure.set_hub_returns(&mut mt, &w)?;
                let gs = null_vector_gs(&mt, &ones, &opts.gs(&classes, start.as_deref()))?;
                total_sweeps += gs.sweeps;
                let closed = closure.close(gs, levels);
                let shift = closed.flux * l1_distance(&closed.w, &w);
                w.clone_from(&closed.w);
                // A shift that stops falling is left to the next round,
                // whose smaller top-level flux shrinks it.
                if shift <= tol || shift >= last_shift {
                    break (closed, shift <= tol);
                }
                last_shift = shift;
                start = Some(closed.raw);
            };
            if settled && closed.complete(tol) {
                return Ok(closed.finish(self, levels, total_sweeps));
            }
            if levels >= opts.max_levels {
                return Err(QbdError::NoConvergence {
                    method: "decay_tail_truncation",
                    iterations: levels,
                    residual: closed.tail_mass.min(closed.closure_error),
                });
            }
            let next = (levels * 2).min(opts.max_levels);
            start = Some(closed.extend(self, levels, next));
            levels = next;
        }
    }
}

/// What the closed rounds of [`SparseQbdBlocks::solve_decay_tail`]
/// share: the blocks, their cut rates `A0·e` and `A2·e`, the level
/// states that `A2` enters (the only ones the hub returns to) and the
/// hub's rate scale `κ = ‖A1‖∞`.
struct Closure<'a> {
    blocks: &'a SparseQbdBlocks,
    a0e: Vec<f64>,
    a2e: Vec<f64>,
    entered: Vec<usize>,
    kappa: f64,
}

impl<'a> Closure<'a> {
    fn new(blocks: &'a SparseQbdBlocks) -> Self {
        let m = blocks.level_len();
        let inflow = blocks.a2.vec_mat(&vec![1.0; m]);
        Closure {
            a0e: blocks.a0.row_sums(),
            a2e: blocks.a2.row_sums(),
            entered: (0..m).filter(|&j| inflow[j] > 0.0).collect(),
            kappa: blocks.a1.norm_inf(),
            blocks,
        }
    }

    /// The entry shape `x·A2 / (x·A2·e)` of the flow down from a level
    /// with vector `x` (uniform over the entered states when no flow
    /// leaves it).
    fn entry_shape(&self, x: &[f64]) -> Vec<f64> {
        let mut w = self.blocks.a2.vec_mat(x);
        let total: f64 = w.iter().sum();
        if total > 0.0 {
            w.iter_mut().for_each(|v| *v /= total);
        } else {
            let uniform = 1.0 / self.entered.len() as f64;
            for &j in &self.entered {
                w[j] = uniform;
            }
        }
        w
    }

    /// Assembles the transpose of the closed truncated balance system:
    /// the boundary, `levels` repeating levels and, last, the hub state
    /// that takes the top level's upward rates `A0·e`. The hub's return
    /// rates to the entered top-level states are stored but left for
    /// [`Closure::set_hub_returns`] to set; storing no others keeps the
    /// coarse band of the aggregation step as narrow as without the hub.
    fn truncated_balance_transposed(&self, levels: usize) -> Result<CsrMatrix> {
        let b = self.blocks;
        let nb = b.boundary_len();
        let m = b.level_len();
        let hub = nb + levels * m;
        let mut coo = CooBuilder::new(hub + 1, hub + 1);
        add_csr_block_transposed(&mut coo, 0, 0, &b.r00, 1.0)?;
        add_csr_block_transposed(&mut coo, 0, nb, &b.r01, 1.0)?;
        add_csr_block_transposed(&mut coo, nb, 0, &b.r10, 1.0)?;
        for l in 0..levels {
            let row = nb + l * m;
            add_csr_block_transposed(&mut coo, row, row, &b.a1, 1.0)?;
            if l + 1 < levels {
                add_csr_block_transposed(&mut coo, row, row + m, &b.a0, 1.0)?;
            }
            if l > 0 {
                add_csr_block_transposed(&mut coo, row, row - m, &b.a2, 1.0)?;
            }
        }
        let top = hub - m;
        let linalg = QbdError::Linalg;
        for (i, &up) in self.a0e.iter().enumerate() {
            coo.add(hub, top + i, up).map_err(linalg)?;
        }
        for &j in &self.entered {
            coo.add(top + j, hub, 1.0).map_err(linalg)?;
        }
        coo.add(hub, hub, -1.0).map_err(linalg)?;
        Ok(coo.build())
    }

    /// Sets the hub's rates in a system from
    /// [`Closure::truncated_balance_transposed`] (the hub is its last
    /// state): `κ·w_j` back to top-level state `j`, and `−κ` on its
    /// diagonal.
    fn set_hub_returns(&self, mt: &mut CsrMatrix, w: &[f64]) -> Result<()> {
        let hub = mt.rows() - 1;
        let top = hub - w.len();
        for &j in &self.entered {
            mt.set(top + j, hub, self.kappa * w[j])?;
        }
        Ok(mt.set(hub, hub, -self.kappa)?)
    }

    /// Reads one closed solve at `levels` levels: its top level's cut
    /// ratio and entry shape, and its tail.
    fn close(&self, gs: NullVector, levels: usize) -> Closed {
        let (nb, m) = (self.blocks.boundary_len(), self.blocks.level_len());
        let hub = nb + levels * m;
        let top = &gs.x[hub - m..hub];
        let (up, down) = (dot(top, &self.a0e), dot(top, &self.a2e));
        let eta = if down > 0.0 {
            (up / down).min(1.0 - f64::EPSILON)
        } else {
            0.0
        };
        let top_mass: f64 = top.iter().sum();
        let explicit: f64 = gs.x[..hub].iter().sum();
        let tail = top_mass * eta / (1.0 - eta);
        let scale = 1.0 / (explicit + tail);
        let below = &gs.x[hub - 2 * m..hub - m];
        let below_mass: f64 = below.iter().sum();
        let shape_change = if top_mass > 0.0 && below_mass > 0.0 {
            top.iter()
                .zip(below)
                .map(|(t, b)| (t / top_mass - b / below_mass).abs())
                .sum()
        } else {
            0.0
        };
        Closed {
            closure_error: (top_mass + tail) * scale * shape_change,
            w: self.entry_shape(top),
            flux: up * scale,
            eta,
            tail_mass: tail * scale,
            scale,
            residual: gs.residual,
            sweeps: gs.sweeps,
            raw: gs.x,
        }
    }
}

/// `x·y`.
fn dot(x: &[f64], y: &[f64]) -> f64 {
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// `‖x − y‖₁`.
fn l1_distance(x: &[f64], y: &[f64]) -> f64 {
    x.iter().zip(y).map(|(a, b)| (a - b).abs()).sum()
}

/// One closed solve of [`SparseQbdBlocks::solve_decay_tail`] at `L`
/// levels, with its tail summed.
struct Closed {
    /// The Gauss–Seidel solution as solved: boundary, levels, hub.
    raw: Vec<f64>,
    residual: f64,
    sweeps: usize,
    /// Scale that normalizes the explicit levels plus the tail.
    scale: f64,
    /// Upward flux `x_top·A0·e` out of the top level (normalized).
    flux: f64,
    /// Cut-balance ratio `x_top·A0·e / x_top·A2·e` of the top level.
    eta: f64,
    /// Entry shape of the top level: the next `w`.
    w: Vec<f64>,
    /// Mass above the top level.
    tail_mass: f64,
    /// The mass of the top level and the tail times the change `‖x̂_{L−1}
    /// − x̂_{L−2}‖₁` of the level shape `x̂ = x/(x·e)` below the top: the
    /// mass the closure may misplace by giving every level from the top
    /// one up the top level's shape.
    closure_error: f64,
}

impl Closed {
    /// Whether `L` levels suffice: the tail holds at most `tol` of the
    /// mass, or the closure misplaces at most `tol` of it.
    fn complete(&self, tol: f64) -> bool {
        self.tail_mass <= tol || self.closure_error <= tol
    }

    /// The start of the next round at `next` levels: this round's levels,
    /// then `η`-scaled copies of its top level, then the hub scaled
    /// alike.
    fn extend(self, blocks: &SparseQbdBlocks, levels: usize, next: usize) -> Vec<f64> {
        let m = blocks.level_len();
        let hub = blocks.boundary_len() + levels * m;
        let mut x = self.raw;
        let h = x.pop().expect("hub state");
        x.reserve((next - levels) * m + 1);
        let mut factor = 1.0;
        for _ in levels..next {
            factor *= self.eta;
            x.extend_from_within(hub - m..hub);
            let len = x.len();
            x[len - m..].iter_mut().for_each(|v| *v *= factor);
        }
        x.push(h * factor);
        x
    }

    /// The accepted solution: the hub dropped, the rest normalized with
    /// the tail.
    fn finish(
        self,
        blocks: &SparseQbdBlocks,
        levels: usize,
        total_sweeps: usize,
    ) -> TruncatedStationary {
        let (nb, m) = (blocks.boundary_len(), blocks.level_len());
        let part = |range: std::ops::Range<usize>| {
            let mut v: Vec<f64> = self.raw[range].iter().map(|p| p * self.scale).collect();
            slb_linalg::vector::clamp_nonnegative(&mut v, 1e-8);
            v
        };
        TruncatedStationary {
            boundary: part(0..nb),
            levels: (0..levels)
                .map(|l| part(nb + l * m..nb + (l + 1) * m))
                .collect(),
            decay: self.eta,
            residual: self.residual,
            sweeps: self.sweeps,
            total_sweeps,
        }
    }
}

/// `Σ_{k≥0} ηᵏ·(L−1+k)`: the level index summed over the top level
/// `L−1` and its geometric tail, per unit of top-level mass.
fn tail_growth(levels: usize, eta: f64) -> f64 {
    (levels - 1) as f64 / (1.0 - eta) + eta / ((1.0 - eta) * (1.0 - eta))
}

/// Adds `scale · B` at block position `(r0, c0)` of the **transposed**
/// system: entry `B(r, c)` lands at `(c0 + c, r0 + r)`.
pub(crate) fn add_csr_block_transposed(
    coo: &mut CooBuilder,
    r0: usize,
    c0: usize,
    block: &CsrMatrix,
    scale: f64,
) -> Result<()> {
    for r in 0..block.rows() {
        for (c, v) in block.row(r) {
            coo.add(c0 + c, r0 + r, scale * v)
                .map_err(QbdError::Linalg)?;
        }
    }
    Ok(())
}

/// Stationary distribution of a QBD solved by closed level truncation
/// ([`SparseQbdBlocks::solve_decay_tail`]): the boundary vector, an
/// explicit vector per retained level `0..L`, and the geometric tail
/// `π_{L−1+k} = ηᵏ·π_{L−1}` above the top level, which
/// [`TruncatedStationary::total_mass`] and
/// [`TruncatedStationary::mean_linear_cost`] include.
#[derive(Debug, Clone, PartialEq)]
pub struct TruncatedStationary {
    boundary: Vec<f64>,
    levels: Vec<Vec<f64>>,
    decay: f64,
    residual: f64,
    sweeps: usize,
    total_sweeps: usize,
}

impl TruncatedStationary {
    /// Stationary probabilities of the boundary states.
    pub fn boundary(&self) -> &[f64] {
        &self.boundary
    }

    /// Stationary probabilities per explicit level `0..L` (level 0
    /// first); the tail above them is [`TruncatedStationary::decay`].
    pub fn levels(&self) -> &[Vec<f64>] {
        &self.levels
    }

    /// The tail's decay `η = π_{L−1}·A0·e / π_{L−1}·A2·e`, the
    /// cut-balance ratio of the accepted top level: an estimate of
    /// `sp(R)` (compare [`decay_rate_sparse`](crate::decay_rate_sparse)),
    /// meaningful only where the tail carries mass above
    /// [`SparseSolveOptions::tail_tol`].
    pub fn decay(&self) -> f64 {
        self.decay
    }

    /// Residual `‖π M‖∞` of the accepted closed system.
    pub fn residual(&self) -> f64 {
        self.residual
    }

    /// Symmetric Gauss–Seidel iterations of the accepted (last) solve
    /// only, each one forward and one backward pass
    /// ([`NullVector::sweeps`]); see [`TruncatedStationary::total_sweeps`]
    /// for the cost of the whole solve.
    pub fn sweeps(&self) -> usize {
        self.sweeps
    }

    /// Symmetric Gauss–Seidel iterations (two passes each) of every
    /// solve together, the accepted one included.
    pub fn total_sweeps(&self) -> usize {
        self.total_sweeps
    }

    /// Total probability mass, the tail included (1 up to round-off).
    pub fn total_mass(&self) -> f64 {
        let per_level = |v: &Vec<f64>| v.iter().sum::<f64>();
        let (top, below) = self.levels.split_last().expect("at least two levels");
        self.boundary.iter().sum::<f64>()
            + below.iter().map(per_level).sum::<f64>()
            + per_level(top) / (1.0 - self.decay)
    }

    /// Expectation of a cost that is `c_b(i)` on boundary state `i` and
    /// `c0(j) + q·growth(j)` on state `j` of repeating level `q`, the
    /// tail summed in closed form — the truncated analogue of
    /// [`QbdStationary::mean_linear_cost`](crate::QbdStationary::mean_linear_cost).
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match the block sizes.
    pub fn mean_linear_cost(&self, c_b: &[f64], c0: &[f64], growth: &[f64]) -> f64 {
        assert_eq!(c_b.len(), self.boundary.len(), "boundary cost length");
        let m = self.levels.first().map_or(0, Vec::len);
        assert_eq!(c0.len(), m, "level cost length");
        assert_eq!(growth.len(), m, "growth length");
        let mut total: f64 = self.boundary.iter().zip(c_b).map(|(p, c)| p * c).sum();
        let (top, below) = self.levels.split_last().expect("at least two levels");
        for (q, v) in below.iter().enumerate() {
            for (j, &p) in v.iter().enumerate() {
                total += p * (c0[j] + q as f64 * growth[j]);
            }
        }
        let eta = self.decay;
        let level_sum = tail_growth(self.levels.len(), eta);
        for (j, &p) in top.iter().enumerate() {
            total += p * (c0[j] / (1.0 - eta) + growth[j] * level_sum);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SolveOptions, Tail};
    use slb_linalg::Matrix;

    fn mm1_dense(lam: f64, mu: f64) -> QbdBlocks {
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

    /// Two-phase QBD used across the dense tests.
    fn two_phase_dense() -> QbdBlocks {
        let (l0, l1, mu, r) = (0.3, 0.8, 1.0, 0.5);
        let a0 = Matrix::from_rows(&[&[l0, 0.0], &[0.0, l1]]).unwrap();
        let a2 = Matrix::from_rows(&[&[mu, 0.0], &[0.0, mu]]).unwrap();
        let a1 = Matrix::from_rows(&[&[-(l0 + mu + r), r], &[r, -(l1 + mu + r)]]).unwrap();
        let r00 = Matrix::from_rows(&[&[-(l0 + r), r], &[r, -(l1 + r)]]).unwrap();
        let r01 = a0.clone();
        let r10 = a2.clone();
        QbdBlocks::new(r00, r01, r10, a0, a1, a2).unwrap()
    }

    #[test]
    fn from_dense_round_trips_dimensions() {
        let sparse = SparseQbdBlocks::from_dense(&two_phase_dense());
        assert_eq!(sparse.boundary_len(), 2);
        assert_eq!(sparse.level_len(), 2);
    }

    #[test]
    fn drift_matches_dense() {
        let dense = two_phase_dense();
        let sparse = SparseQbdBlocks::from_dense(&dense);
        let (du, dd) = dense.drifts().unwrap();
        let (su, sd) = sparse.drifts().unwrap();
        assert!((du - su).abs() < 1e-10, "{du} vs {su}");
        assert!((dd - sd).abs() < 1e-10, "{dd} vs {sd}");
        assert!(sparse.is_stable().unwrap());
    }

    #[test]
    fn invalid_blocks_rejected() {
        let one = |v: f64| CsrMatrix::from_triplets(1, 1, [(0, 0, v)]).unwrap();
        // Boundary row sums to 1 instead of 0.
        let e = SparseQbdBlocks::new(one(-1.0), one(2.0), one(1.0), one(1.0), one(-2.0), one(1.0));
        assert!(matches!(e, Err(QbdError::InvalidBlocks { .. })));
        // Negative off-diagonal.
        let e = SparseQbdBlocks::new(
            one(-1.0),
            one(1.0),
            one(-1.0),
            one(1.0),
            one(-2.0),
            one(1.0),
        );
        assert!(matches!(e, Err(QbdError::InvalidBlocks { .. })));
    }

    #[test]
    fn decay_tail_matches_dense_mm1() {
        let rho = 0.7;
        let dense = mm1_dense(rho, 1.0);
        let full = dense.solve(&SolveOptions::default()).unwrap();
        let sparse = SparseQbdBlocks::from_dense(&dense);
        let trunc = sparse
            .solve_decay_tail(&SparseSolveOptions::default())
            .unwrap();
        assert!((trunc.boundary()[0] - full.boundary()[0]).abs() < 1e-10);
        // Explicit levels, then the geometric tail above the top one.
        let top = trunc.levels().len() - 1;
        for q in 0..6 {
            let want = full.level_prob(q)[0];
            let got = match trunc.levels().get(q) {
                Some(level) => level[0],
                None => trunc.levels()[top][0] * trunc.decay().powi((q - top) as i32),
            };
            assert!((got - want).abs() < 1e-10, "level {q}: {got} vs {want}");
        }
        assert!((trunc.total_mass() - 1.0).abs() < 1e-9);
        assert!((trunc.decay() - rho).abs() < 1e-6);
    }

    #[test]
    fn decay_tail_matches_dense_two_phase() {
        let dense = two_phase_dense();
        let full = dense.solve(&SolveOptions::default()).unwrap();
        let sparse = SparseQbdBlocks::from_dense(&dense);
        let trunc = sparse
            .solve_decay_tail(&SparseSolveOptions::default())
            .unwrap();
        for i in 0..2 {
            assert!((trunc.boundary()[i] - full.boundary()[i]).abs() < 1e-9);
        }
        for q in 0..5 {
            let want = full.level_prob(q);
            for (i, w) in want.iter().enumerate().take(2) {
                assert!(
                    (trunc.levels()[q][i] - w).abs() < 1e-9,
                    "level {q} phase {i}"
                );
            }
        }
        // Linear cost agrees with the closed-form dense evaluation.
        let c_b = [0.0, 0.0];
        let c0 = [1.0, 1.0];
        let growth = [1.0, 1.0];
        let want = full.mean_linear_cost(&c_b, &c0, &growth);
        let got = trunc.mean_linear_cost(&c_b, &c0, &growth);
        assert!((got - want).abs() < 1e-8, "{got} vs {want}");
    }

    #[test]
    fn decay_tail_detects_unstable() {
        let dense = mm1_dense(1.3, 1.0);
        let sparse = SparseQbdBlocks::from_dense(&dense);
        assert!(matches!(
            sparse.solve_decay_tail(&SparseSolveOptions::default()),
            Err(QbdError::Unstable { .. })
        ));
    }

    #[test]
    fn warm_round_takes_fewer_sweeps_than_cold() {
        // Closed round 32 → 64 levels of the doubling: the 32-level
        // solution with its hub shape settled, extended by η-scaled
        // copies of its top level, is already close to the 64-level one.
        let sparse = SparseQbdBlocks::from_dense(&two_phase_dense());
        let opts = SparseSolveOptions::default();
        let closure = Closure::new(&sparse);
        let solve = |levels: usize, w: &[f64], start: Option<&[f64]>| {
            let mut classes = sparse.system_classes(levels);
            classes.push(*classes.last().unwrap());
            let mut mt = closure.truncated_balance_transposed(levels).unwrap();
            closure.set_hub_returns(&mut mt, w).unwrap();
            let ones = vec![1.0; classes.len()];
            null_vector_gs(&mt, &ones, &opts.gs(&classes, start)).unwrap()
        };
        let mut w = vec![0.5, 0.5];
        let first = loop {
            let closed = closure.close(solve(32, &w, None), 32);
            let settled = l1_distance(&closed.w, &w) < 1e-14;
            w.clone_from(&closed.w);
            if settled {
                break closed;
            }
        };
        let start = first.extend(&sparse, 32, 64);
        let warm = solve(64, &w, Some(&start));
        let cold = solve(64, &w, None);
        assert!(
            2 * warm.sweeps < cold.sweeps,
            "warm {} vs cold {} sweeps",
            warm.sweeps,
            cold.sweeps
        );
        for (w, c) in warm.x.iter().zip(&cold.x) {
            assert!((w - c).abs() < 1e-10, "{w} vs {c}");
        }
    }

    #[test]
    fn closure_is_exact_on_a_geometric_tail() {
        // M/M/1 has a geometric tail from level 0 on, so the first round
        // (four explicit levels) is exact, its tail mass included.
        let rho = 0.9;
        let sparse = SparseQbdBlocks::from_dense(&mm1_dense(rho, 1.0));
        let sol = sparse
            .solve_decay_tail(&SparseSolveOptions::default())
            .unwrap();
        assert_eq!(sol.levels().len(), 4);
        assert!((sol.decay() - rho).abs() < 1e-12, "{}", sol.decay());
        assert!((sol.total_mass() - 1.0).abs() < 1e-12);
        // Mean jobs ρ/(1−ρ): the boundary state holds 0, level q holds q+1.
        let mean = sol.mean_linear_cost(&[0.0], &[1.0], &[1.0]);
        assert!((mean - rho / (1.0 - rho)).abs() < 1e-9, "{mean}");
    }

    #[test]
    fn class_labels_lay_out_level_by_level() {
        let sparse = SparseQbdBlocks::from_dense(&two_phase_dense());
        // Unlabelled blocks: one class per level.
        assert_eq!(sparse.system_classes(2), vec![0, 0, 1, 1, 2, 2]);
        let labelled = sparse.with_classes(vec![0, 1], vec![1, 0]).unwrap();
        assert_eq!(labelled.system_classes(2), vec![0, 1, 3, 2, 5, 4]);
        assert!(matches!(
            labelled.with_classes(vec![0], vec![0, 0]),
            Err(QbdError::InvalidBlocks { .. })
        ));
    }

    #[test]
    fn scalar_tail_matches_dense() {
        let rho = 0.6;
        let dense = mm1_dense(rho, 1.0);
        let want = dense
            .solve_with_scalar_tail(rho, &SolveOptions::default())
            .unwrap();
        let sparse = SparseQbdBlocks::from_dense(&dense);
        let got = sparse
            .solve_scalar_tail(rho, &SparseSolveOptions::default())
            .unwrap();
        assert!((got.boundary()[0] - want.boundary()[0]).abs() < 1e-10);
        assert!((got.level_prob(3)[0] - want.level_prob(3)[0]).abs() < 1e-10);
        assert_eq!(got.tail(), &Tail::Scalar(rho));
        assert!(got.residual() < 1e-9);
    }
}
