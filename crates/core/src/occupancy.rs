//! The state space and the transition generator of the bound models.
//!
//! Every transition rate of the SQ(d) bound models depends on a state
//! only through its *occupancy vector*: how many servers sit at each
//! level. A macro-state is stored as `[base, c_0, …, c_T]` where `base`
//! is the shortest-queue length and `c_j` counts servers at level
//! `base + j` (so `c_0 ≥ 1` and `Σ c_j = N`). The sorted server tuple
//! `m1 ≥ … ≥ mN` ([`State`]) and its occupancy vector are two spellings
//! of the same state — an exact lumping in the sense of Kemeny & Snell,
//! *Finite Markov Chains* (1960) — and [`OccupancySpace`] enumerates the
//! macro-states in the paper's canonical `(total, lexicographic)` tuple
//! order, block by block (Eq. 8).
//!
//! [`for_each_transition`] generates the transitions of one macro-state,
//! including the paper's threshold redirects, straight from the `T + 1`
//! counters in `O(T)` per state. Every bound model is assembled from
//! it: [`LumpedModel`] puts its rates into sparse
//! [`CooBuilder`]s, [`crate::BoundModel`] densifies those blocks for the
//! dense solvers, and `slb-mapph` builds the MAP product chain from it.
//! The tuple generator [`crate::transitions_with_mode`] remains the
//! oracle it is tested against, and serves the unlumped chains (brute
//! force, transient analysis, the delay kernels).
//!
//! Two solvers work over this one space. The dense one
//! ([`crate::BoundModel`]: logarithmic reduction, full `R`) serves the
//! paper's small `N`; the sparse one here serves production scale,
//! where the repeating block holds `C(N+T−1, T)` states (32,896 at
//! `N = 256, T = 2`; 131,328 at `N = 512`) and a dense block would need
//! gigabytes: the Theorem-3 scalar tail for the lower bound
//! ([`Sqd::lower_bound_lumped`]), a closed level-doubling truncation
//! for the upper bound ([`Sqd::upper_bound_lumped`]), and a
//! decay-rate-only fast path ([`Sqd::decay_rate_lumped`]).

use std::cmp::Ordering;
use std::sync::Arc;

use slb_linalg::{Budget, CooBuilder};
use slb_qbd::{decay_rate_sparse, decay_rate_sparse_budgeted, SparseQbdBlocks, SparseSolveOptions};

use crate::combinatorics::{group_arrival_probability, group_arrival_probability_with_replacement};
use crate::transitions::MU;
use crate::{BoundKind, BoundResult, CoreError, PollMode, Result, Sqd, State};

/// Location of a macro-state within the lumped block partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OccLocation {
    /// In the boundary block, at this index.
    Boundary(usize),
    /// In repeating block `q`, at this within-block index.
    Level {
        /// Repeating-block number (0-based).
        q: usize,
        /// Index within the block.
        index: usize,
    },
}

/// The block-partitioned threshold state space in occupancy coordinates.
///
/// Stores each macro-state as a `T + 2` record `[base, c_0, …, c_T]` in
/// one flat, canonically sorted array per block. Lookup ranks the
/// record's *shape* `(c_0, …, c_T)` in `O(T)` — a shape is a
/// composition `(c_0 − 1, c_1, …, c_T)` of `N − 1` into `T + 1` parts,
/// and its colexicographic rank is a sum of `T` binomial differences —
/// and reads one table entry: the block-0 index of that shape, or the
/// boundary index of the shape at that base. No per-state hashing,
/// comparison or tuple materialisation happens even at `N = 1024`
/// (where the repeating block holds 524,800 states for `T = 2`).
///
/// # Example
///
/// ```
/// use slb_core::occupancy::OccupancySpace;
///
/// # fn main() -> Result<(), slb_core::CoreError> {
/// let space = OccupancySpace::new(3, 2)?;
/// // Each repeating block holds C(N+T−1, T) = C(4, 2) = 6 states.
/// assert_eq!(space.block_len(), 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OccupancySpace {
    n: usize,
    t: u32,
    stride: usize,
    boundary: Vec<u32>,
    block0: Vec<u32>,
    /// `C(r + j, j)` at `[j·N + r]`, for `j ≤ T` and `r < N`.
    binomials: Vec<u64>,
    /// Block-0 index of the shape of each rank.
    block_of_rank: Vec<u32>,
    /// The boundary states of the shape of rank `r`, bases `0..=b_max`
    /// in order, are `boundary_of[boundary_start[r]..boundary_start[r + 1]]`.
    boundary_start: Vec<u32>,
    boundary_of: Vec<u32>,
}

impl OccupancySpace {
    /// Enumerates the boundary block and the template repeating block for
    /// `n` servers and threshold `t`, in canonical `(total, lex)` order.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameters`] if `n < 2` or `t < 1`.
    pub fn new(n: usize, t: u32) -> Result<Self> {
        Self::new_budgeted(n, t, &Budget::unlimited())
    }

    /// [`OccupancySpace::new`] under a cooperative [`Budget`], polled
    /// between enumeration batches — at production `N` the enumeration
    /// alone is seconds of work, and it runs before any solver gets a
    /// chance to poll.
    ///
    /// # Errors
    ///
    /// As [`OccupancySpace::new`], plus [`CoreError::Interrupted`] when
    /// the budget trips mid-enumeration.
    pub fn new_budgeted(n: usize, t: u32, budget: &Budget) -> Result<Self> {
        if n < 2 {
            return Err(CoreError::InvalidParameters {
                reason: format!("need at least 2 servers for the bound models, got {n}"),
            });
        }
        if t < 1 {
            return Err(CoreError::InvalidParameters {
                reason: "threshold T must be at least 1".into(),
            });
        }
        let t = t as usize;
        let stride = t + 2;
        let cap = (n as u64 - 1) * t as u64;

        let mut boundary = Vec::new();
        let mut block0 = Vec::new();
        let mut counts = vec![0u32; t + 1];
        // `enumerate_counts` drives a plain callback, so a budget trip
        // is latched here and the remaining visits become no-ops; the
        // error surfaces once the recursion unwinds.
        let mut tripped = None;
        let mut visited = 0usize;
        enumerate_counts(&mut counts, 0, n as u32, &mut |c| {
            if tripped.is_some() {
                return;
            }
            visited += 1;
            if visited % 4096 == 0 {
                if let Err(e) = budget.check("occupancy-enumeration", visited, f64::NAN) {
                    tripped = Some(e);
                    return;
                }
            }
            let sigma: u64 = c
                .iter()
                .enumerate()
                .map(|(j, &cj)| j as u64 * u64::from(cj))
                .sum();
            debug_assert!(sigma <= cap);
            // Boundary: bases 0..=⌊(cap − σ)/N⌋; block 0: the next base.
            let b_max = (cap - sigma) / n as u64;
            for b in 0..=b_max {
                boundary.push(b as u32);
                boundary.extend_from_slice(c);
            }
            block0.push(b_max as u32 + 1);
            block0.extend_from_slice(c);
        });
        if let Some(e) = tripped {
            return Err(CoreError::from(slb_qbd::QbdError::from(e)));
        }

        // The canonical sorts dominate construction at production `N`
        // (millions of flat records) and cannot poll internally, so
        // re-check between and after them: abort latency is bounded by
        // one sort, not the whole construction.
        let boundary = sort_canonical(boundary, stride, n);
        budget
            .check("occupancy-sort", visited, f64::NAN)
            .map_err(|e| CoreError::from(slb_qbd::QbdError::from(e)))?;
        let block0 = sort_canonical(block0, stride, n);
        budget
            .check("occupancy-sort", visited, f64::NAN)
            .map_err(|e| CoreError::from(slb_qbd::QbdError::from(e)))?;
        Ok(Self::with_rank_tables(n, t as u32, boundary, block0))
    }

    /// Completes a space from its canonically sorted records with the
    /// tables [`OccupancySpace::locate`] reads.
    fn with_rank_tables(n: usize, t: u32, boundary: Vec<u32>, block0: Vec<u32>) -> Self {
        let stride = t as usize + 2;
        let mut binomials = vec![0u64; (t as usize + 1) * n];
        binomials[..n].fill(1);
        for j in 1..=t as usize {
            for r in 0..n {
                // C(r + j, j) = C(r + j − 1, j − 1) + C(r − 1 + j, j).
                let left = binomials[(j - 1) * n + r];
                let up = if r == 0 { 0 } else { binomials[j * n + r - 1] };
                binomials[j * n + r] = left + up;
            }
        }
        let (nb, m) = (boundary.len() / stride, block0.len() / stride);
        assert!(
            u32::try_from(nb).is_ok() && u32::try_from(m).is_ok(),
            "N = {n}, T = {t}: {nb} boundary and {m} block states overflow u32 indices"
        );
        debug_assert_eq!(binomials[t as usize * n + n - 1], m as u64);
        let mut space = OccupancySpace {
            n,
            t,
            stride,
            boundary,
            block0,
            binomials,
            block_of_rank: vec![0; m],
            boundary_start: vec![0; m + 1],
            boundary_of: vec![0; nb],
        };
        // A block-0 record's base is `b_max + 1`: the number of boundary
        // bases of its shape.
        for i in 0..m {
            let occ = space.block0_state(i);
            let base = occ[0];
            let r = space.rank(occ).expect("enumerated shapes are valid");
            space.block_of_rank[r] = i as u32;
            space.boundary_start[r + 1] = base;
        }
        for r in 0..m {
            space.boundary_start[r + 1] += space.boundary_start[r];
        }
        for i in 0..nb {
            let occ = space.boundary_state(i);
            let base = occ[0];
            let r = space.rank(occ).expect("enumerated shapes are valid");
            space.boundary_of[(space.boundary_start[r] + base) as usize] = i as u32;
        }
        space
    }

    /// Number of servers `N`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Threshold `T`.
    pub fn threshold(&self) -> u32 {
        self.t
    }

    /// Record length of one macro-state, `T + 2`.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Highest total-job count of the boundary block, `(N−1)·T`.
    pub fn boundary_cap(&self) -> u64 {
        (self.n as u64 - 1) * u64::from(self.t)
    }

    /// Number of boundary macro-states.
    pub fn boundary_len(&self) -> usize {
        self.boundary.len() / self.stride
    }

    /// Number of macro-states per repeating block, `C(N+T−1, T)`.
    pub fn block_len(&self) -> usize {
        self.block0.len() / self.stride
    }

    /// The `i`-th boundary macro-state, `[base, c_0, …, c_T]`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn boundary_state(&self, i: usize) -> &[u32] {
        &self.boundary[i * self.stride..(i + 1) * self.stride]
    }

    /// The `i`-th template-block macro-state, `[base, c_0, …, c_T]`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn block0_state(&self, i: usize) -> &[u32] {
        &self.block0[i * self.stride..(i + 1) * self.stride]
    }

    /// Total jobs of a macro-state, `base·N + Σ j·c_j`.
    pub fn total(&self, occ: &[u32]) -> u64 {
        total_of(occ, self.n)
    }

    /// Waiting-job costs `Σ_i max(m_i − 1, 0)` of the boundary and of
    /// the template-block macro-states, in index order — the cost every
    /// bound model's mean delay is read from.
    pub fn waiting_costs(&self) -> (Vec<f64>, Vec<f64>) {
        let n = self.n;
        let boundary = (0..self.boundary_len())
            .map(|i| waiting_of(self.boundary_state(i), n))
            .collect();
        let block0 = (0..self.block_len())
            .map(|i| waiting_of(self.block0_state(i), n))
            .collect();
        (boundary, block0)
    }

    /// Locates a canonical macro-state within the partition; `None` if it
    /// lies outside the threshold set: a record of the wrong length, an
    /// empty bottom level (`c_0 = 0`) or counts that do not sum to `N`.
    /// Every base of a valid shape is a member: bases up to the shape's
    /// `b_max` lie in the boundary, base `b_max + 1 + q` in level `q`.
    pub fn locate(&self, occ: &[u32]) -> Option<OccLocation> {
        let r = self.rank(occ)?;
        let start = self.boundary_start[r] as usize;
        let bases = self.boundary_start[r + 1] as usize - start;
        let base = occ[0] as usize;
        Some(if base < bases {
            OccLocation::Boundary(self.boundary_of[start + base] as usize)
        } else {
            OccLocation::Level {
                q: base - bases,
                index: self.block_of_rank[r] as usize,
            }
        })
    }

    /// Colexicographic rank of the shape `(c_0, …, c_T)` of `occ` among
    /// the compositions `(c_0 − 1, c_1, …, c_T)` of `N − 1`:
    /// `Σ_{j=T..1} [C(r_j + j, j) − C(r_j − c_j + j, j)]` with
    /// `r_T = N − 1` and `r_{j−1} = r_j − c_j`. `None` if `occ` is not a
    /// shape of this space.
    fn rank(&self, occ: &[u32]) -> Option<usize> {
        if occ.len() != self.stride || occ[1] == 0 {
            return None;
        }
        let n = self.n;
        let mut rest = n - 1;
        let mut rank = 0u64;
        for j in (1..=self.t as usize).rev() {
            let c = occ[1 + j] as usize;
            if c > rest {
                return None;
            }
            rank += self.binomials[j * n + rest] - self.binomials[j * n + rest - c];
            rest -= c;
        }
        (occ[1] as usize - 1 == rest).then_some(rank as usize)
    }
}

/// Expands a macro-state `[base, c_0, …, c_T]` into the equivalent
/// sorted server tuple — the inverse of [`state_to_occupancy`], used
/// where a model needs the unlumped state (the delay kernels) and to
/// test the generator against the tuple oracle.
///
/// # Example
///
/// ```
/// use slb_core::occupancy::occupancy_to_state;
///
/// // base 1, two servers at level 1, one at level 2 → (2,1,1).
/// let s = occupancy_to_state(&[1, 2, 1]);
/// assert_eq!(s.as_slice(), &[2, 1, 1]);
/// ```
///
/// # Panics
///
/// Panics if the record is shorter than 2 entries or all counts are 0.
pub fn occupancy_to_state(occ: &[u32]) -> State {
    assert!(occ.len() >= 2, "macro-state needs [base, c_0, ..]");
    let base = occ[0];
    let mut v = Vec::new();
    for (j, &cj) in occ[1..].iter().enumerate().rev() {
        for _ in 0..cj {
            v.push(base + j as u32);
        }
    }
    State::new(v).expect("expansion is sorted non-increasing")
}

/// Compresses a sorted server tuple into the macro-state
/// `[base, c_0, …, c_T]`; `None` if its imbalance exceeds `t`.
///
/// # Example
///
/// ```
/// use slb_core::occupancy::state_to_occupancy;
/// use slb_core::State;
///
/// let s = State::new(vec![2, 1, 1]).unwrap();
/// assert_eq!(state_to_occupancy(&s, 2), Some(vec![1, 2, 1, 0]));
/// assert_eq!(state_to_occupancy(&s, 1), Some(vec![1, 2, 1]));
/// ```
pub fn state_to_occupancy(s: &State, t: u32) -> Option<Vec<u32>> {
    if s.diff() > t {
        return None;
    }
    let base = s.level(s.n() - 1);
    let mut occ = vec![0u32; t as usize + 2];
    occ[0] = base;
    for &m in s.as_slice() {
        occ[1 + (m - base) as usize] += 1;
    }
    Some(occ)
}

/// All count vectors `(c_0, …, c_T)` with `Σ c_j = n` and `c_0 ≥ 1`.
fn enumerate_counts(c: &mut [u32], j: usize, remaining: u32, f: &mut dyn FnMut(&[u32])) {
    let last = c.len() - 1;
    if j == last {
        c[j] = remaining;
        if c[0] >= 1 {
            f(c);
        }
        return;
    }
    let lo = u32::from(j == 0);
    for v in lo..=remaining {
        c[j] = v;
        enumerate_counts(c, j + 1, remaining - v, f);
    }
}

/// Total jobs of a macro-state, `base·N + Σ j·c_j`.
fn total_of(occ: &[u32], n: usize) -> u64 {
    let base = u64::from(occ[0]);
    let sigma: u64 = occ[1..]
        .iter()
        .enumerate()
        .map(|(j, &cj)| j as u64 * u64::from(cj))
        .sum();
    base * n as u64 + sigma
}

/// Servers at absolute level `lvl` of a macro-state.
fn count_at(occ: &[u32], lvl: u64) -> u32 {
    let base = u64::from(occ[0]);
    if lvl < base || lvl - base >= occ.len() as u64 - 1 {
        return 0;
    }
    occ[1 + (lvl - base) as usize]
}

/// Canonical order of macro-states: by total, then lexicographically on
/// the expanded non-increasing tuple — the paper's intra-block order,
/// under which the level shift `base ↦ base + 1` maps block `q` onto
/// block `q + 1` index for index. Comparing expansions
/// reduces to walking absolute levels top-down: at the first level where
/// the counts differ, the state with *more* servers there is the
/// lexicographically greater one.
fn cmp_occ(a: &[u32], b: &[u32], n: usize) -> Ordering {
    let (ta, tb) = (total_of(a, n), total_of(b, n));
    if ta != tb {
        return ta.cmp(&tb);
    }
    let top = |occ: &[u32]| {
        let diff = occ[1..].iter().rposition(|&c| c > 0).unwrap_or(0);
        u64::from(occ[0]) + diff as u64
    };
    let mut lvl = top(a).max(top(b));
    loop {
        match count_at(a, lvl).cmp(&count_at(b, lvl)) {
            Ordering::Equal => {}
            other => return other,
        }
        if lvl == 0 {
            return Ordering::Equal;
        }
        lvl -= 1;
    }
}

/// Sorts a flat record array canonically (by index permutation, to keep
/// the big blocks allocation-light).
fn sort_canonical(flat: Vec<u32>, stride: usize, n: usize) -> Vec<u32> {
    let count = flat.len() / stride;
    let mut idx: Vec<u32> = (0..count as u32).collect();
    idx.sort_unstable_by(|&a, &b| {
        let (a, b) = (a as usize * stride, b as usize * stride);
        cmp_occ(&flat[a..a + stride], &flat[b..b + stride], n)
    });
    let mut out = Vec::with_capacity(flat.len());
    for i in idx {
        let at = i as usize * stride;
        out.extend_from_slice(&flat[at..at + stride]);
    }
    out
}

/// Reusable buffers for [`for_each_transition`]: make one per assembly
/// loop and pass it to every call, so generating a row allocates nothing.
#[derive(Debug)]
pub struct TransitionScratch {
    /// Tie groups top-down: `(relative level, start, end)` with 1-based
    /// inclusive positions in the expanded sorted tuple.
    groups: Vec<(usize, usize, usize)>,
    /// Target macro-state being built.
    target: Vec<u32>,
}

impl TransitionScratch {
    /// Buffers for macro-states of record length `stride`, i.e. `T + 2`
    /// (see [`OccupancySpace::stride`]).
    pub fn new(stride: usize) -> Self {
        TransitionScratch {
            groups: Vec::with_capacity(stride),
            target: vec![0; stride],
        }
    }
}

/// Arrival into the tie group at relative level `j`: one server moves
/// from `base + j` to `base + j + 1`, re-based when the bottom level
/// empties.
fn arrival_into(occ: &[u32], j: usize, target: &mut [u32]) {
    let t = occ.len() - 2;
    target.copy_from_slice(occ);
    target[1 + j] -= 1;
    target[2 + j] += 1;
    if j == 0 && target[1] == 0 {
        target[0] += 1;
        for i in 0..t {
            target[1 + i] = target[2 + i];
        }
        target[1 + t] = 0;
    }
}

/// Departure from the tie group at relative level `j`: one server moves
/// from `base + j` down; `j = 0` opens a new bottom level (requires
/// `c_T = 0`, guaranteed because a bottom departure at full imbalance is
/// redirected or blocked).
fn departure_into(occ: &[u32], j: usize, target: &mut [u32]) {
    let t = occ.len() - 2;
    target.copy_from_slice(occ);
    if j >= 1 {
        target[1 + j] -= 1;
        target[j] += 1;
    } else {
        debug_assert!(occ[0] >= 1, "departure below level 0");
        debug_assert_eq!(occ[1 + t], 0, "bottom departure at full imbalance");
        target[0] -= 1;
        for i in (1..=t).rev() {
            target[1 + i] = target[i];
        }
        target[1] = 1;
        target[2] -= 1;
    }
}

/// The upper model's threshold arrival: the polled top-group server
/// takes the job (level `T → T+1`) *and* every bottom server gains a
/// phantom job, keeping the imbalance at `T` (Section IV's amplified
/// redirect). The whole state shifts one base level up.
fn upper_arrival_into(occ: &[u32], target: &mut [u32]) {
    let t = occ.len() - 2;
    debug_assert!(occ[1 + t] > 0, "upper redirect requires diff = T");
    target[0] = occ[0] + 1;
    // New counts live on old levels 1..=T+1.
    target[1..1 + t].copy_from_slice(&occ[2..2 + t]);
    target[1 + t] = 0;
    target[1] += occ[1]; // bottom servers join old level 1
    target[t] -= 1; // one server left old level T …
    target[1 + t] += 1; // … for old level T+1
}

/// The transition generator of the bound models: calls `emit(target,
/// rate)` for every outgoing transition of macro-state `occ` of an
/// `n`-server SQ(d) model with per-server arrival rate `lambda`.
///
/// It mirrors [`crate::transitions_with_mode`] on the expanded tuple
/// exactly (including the paper's four threshold redirects), but works
/// in `O(T)` per state. Transitions come in the tuple generator's order:
/// arrivals by tie group from the top, then departures from the top.
/// Parallel transitions to the same target are emitted separately, for
/// the caller to accumulate. `target` is a canonical macro-state in a
/// scratch buffer: it is valid only during the call, and `emit` may
/// modify it.
///
/// `occ` must be a canonical macro-state (`c_0 ≥ 1`, `Σ c_j = n`) of
/// the record length `scratch` was made for; the output is unspecified
/// otherwise.
///
/// # Example
///
/// ```
/// use slb_core::occupancy::{for_each_transition, TransitionScratch};
/// use slb_core::{BoundKind, PollMode};
///
/// // (2, 1, 1) at T = 2: base 1, two servers at level 1, one at level 2.
/// let occ = [1, 2, 1, 0];
/// let mut scratch = TransitionScratch::new(occ.len());
/// let mut total = 0.0;
/// for_each_transition(&occ, 3, 2, 0.5, BoundKind::Lower, PollMode::WithoutReplacement,
///     &mut scratch, |_, rate| total += rate);
/// // Arrival rate λN = 1.5 plus three busy servers.
/// assert!((total - 4.5).abs() < 1e-12);
/// ```
#[allow(clippy::too_many_arguments)] // hot path; a params struct would just rename the list
pub fn for_each_transition(
    occ: &[u32],
    n: usize,
    d: usize,
    lambda: f64,
    kind: BoundKind,
    mode: PollMode,
    scratch: &mut TransitionScratch,
    mut emit: impl FnMut(&mut [u32], f64),
) {
    let t = occ.len() - 2;
    let TransitionScratch { groups, target } = scratch;
    groups.clear();
    let mut above = 0usize;
    for j in (0..=t).rev() {
        let cj = occ[1 + j] as usize;
        if cj == 0 {
            continue;
        }
        groups.push((j, above + 1, above + cj));
        above += cj;
    }
    let ng = groups.len();
    let at_threshold = groups[0].0 == t;

    // Arrivals: polled group → one level up, except the top group at
    // full imbalance, which each model redirects its own way.
    for (gi, &(j, s1, e1)) in groups.iter().enumerate() {
        let p = match mode {
            PollMode::WithoutReplacement => group_arrival_probability(n, d, s1, e1),
            PollMode::WithReplacement => group_arrival_probability_with_replacement(n, d, s1, e1),
        };
        if p <= 0.0 {
            continue;
        }
        let rate = lambda * n as f64 * p;
        if !(at_threshold && gi == 0) {
            arrival_into(occ, j, target);
            emit(target, rate);
        } else {
            match kind {
                BoundKind::Lower => {
                    arrival_into(occ, groups[1].0, target);
                    emit(target, rate);
                }
                BoundKind::Upper => {
                    upper_arrival_into(occ, target);
                    emit(target, rate);
                }
            }
        }
    }

    // Departures: each busy group one level down, except the bottom
    // group at full imbalance (lower: redirected one group up; upper:
    // blocked).
    for (gi, &(j, _, _)) in groups.iter().enumerate() {
        if occ[0] == 0 && j == 0 {
            continue; // idle servers do not complete jobs
        }
        let rate = f64::from(occ[1 + j]) * MU;
        if !(at_threshold && gi == ng - 1) {
            departure_into(occ, j, target);
            emit(target, rate);
        } else if kind == BoundKind::Lower {
            departure_into(occ, groups[ng - 2].0, target);
            emit(target, rate);
        }
    }
}

/// Waiting jobs of a macro-state, `total − busy`.
fn waiting_of(occ: &[u32], n: usize) -> f64 {
    let idle = if occ[0] == 0 { u64::from(occ[1]) } else { 0 };
    (total_of(occ, n) - (n as u64 - idle)) as f64
}

/// A bound model assembled over the occupancy state space in sparse
/// form, with the sparse solvers for production `N`.
/// [`crate::BoundModel`] holds one and densifies its blocks for the
/// dense solvers.
///
/// # Example
///
/// ```
/// use slb_core::occupancy::LumpedModel;
/// use slb_core::{BoundKind, Sqd};
///
/// # fn main() -> Result<(), slb_core::CoreError> {
/// let sqd = Sqd::new(64, 2, 0.85)?;
/// let model = LumpedModel::new(sqd, BoundKind::Lower, 2)?;
/// // N = 64, T = 2 already needs 2,080 phases — the dense path would
/// // build three 2,080² blocks; the lumped blocks stay sparse.
/// assert_eq!(model.space().block_len(), 2_080);
/// let blocks = model.qbd_blocks()?;
/// assert!(blocks.is_stable()?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LumpedModel {
    sqd: Sqd,
    kind: BoundKind,
    t: u32,
    space: Arc<OccupancySpace>,
}

impl LumpedModel {
    /// Builds the model and enumerates its macro-state space.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameters`] for invalid `(N, T)`.
    pub fn new(sqd: Sqd, kind: BoundKind, t: u32) -> Result<Self> {
        Self::new_budgeted(sqd, kind, t, &Budget::unlimited())
    }

    /// [`LumpedModel::new`] under a cooperative [`Budget`]: the
    /// macro-state enumeration polls it, so a deadline can interrupt
    /// model construction, not just the solve.
    ///
    /// # Errors
    ///
    /// As [`LumpedModel::new`], plus [`CoreError::Interrupted`] when
    /// the budget trips mid-enumeration.
    pub fn new_budgeted(sqd: Sqd, kind: BoundKind, t: u32, budget: &Budget) -> Result<Self> {
        let space = OccupancySpace::new_budgeted(sqd.n(), t, budget)?;
        Ok(LumpedModel {
            sqd,
            kind,
            t,
            space: Arc::new(space),
        })
    }

    /// The `kind` model of the same system over this model's state
    /// space, shared rather than enumerated again — a sandwich builds
    /// one space for both bounds.
    ///
    /// # Example
    ///
    /// ```
    /// use slb_core::occupancy::LumpedModel;
    /// use slb_core::{BoundKind, Sqd};
    ///
    /// # fn main() -> Result<(), slb_core::CoreError> {
    /// let lower = LumpedModel::new(Sqd::new(6, 2, 0.7)?, BoundKind::Lower, 2)?;
    /// let upper = lower.with_kind(BoundKind::Upper);
    /// assert_eq!(upper.kind(), BoundKind::Upper);
    /// assert!(std::ptr::eq(lower.space(), upper.space()));
    /// # Ok(())
    /// # }
    /// ```
    pub fn with_kind(&self, kind: BoundKind) -> Self {
        LumpedModel {
            kind,
            ..self.clone()
        }
    }

    /// Which bound this model computes.
    pub fn kind(&self) -> BoundKind {
        self.kind
    }

    /// Threshold `T`.
    pub fn threshold(&self) -> u32 {
        self.t
    }

    /// The underlying macro-state space.
    pub fn space(&self) -> &OccupancySpace {
        &self.space
    }

    /// Assembles the six QBD generator blocks directly in sparse form.
    ///
    /// Boundary rows fill `R00/R01`, template-block rows fill
    /// `R10/A1/A0`, and `A2` is read off the first repeating block one
    /// level up. Level independence (Lemma 1) makes these blocks
    /// describe every deeper level, a fact pinned by the integration
    /// tests. Every macro-state is labelled by its job total
    /// ([`OccupancySpace::total`]) as the aggregation class of the
    /// Gauss–Seidel solves; in the canonical order each class is a
    /// contiguous run of states.
    ///
    /// # Errors
    ///
    /// Propagates block-validation failures (which would indicate a bug
    /// in the lumped transition rules rather than bad user input).
    pub fn qbd_blocks(&self) -> Result<SparseQbdBlocks> {
        self.qbd_blocks_budgeted(&Budget::unlimited())
    }

    /// [`LumpedModel::qbd_blocks`] under a cooperative [`Budget`],
    /// polled between row batches. At production `N` the assembly
    /// itself is minutes of work (hundreds of thousands of macro-state
    /// rows), so a deadline or cancellation must be able to interrupt
    /// it *before* any solver iteration runs.
    ///
    /// # Errors
    ///
    /// As [`LumpedModel::qbd_blocks`], plus [`CoreError::Interrupted`]
    /// when the budget trips mid-assembly.
    pub fn qbd_blocks_budgeted(&self, budget: &Budget) -> Result<SparseQbdBlocks> {
        self.assemble(budget, |occ| self.space.locate(occ))
    }

    /// The assembly behind [`LumpedModel::qbd_blocks_budgeted`], with the
    /// lookup of transition targets supplied by the caller.
    fn assemble(
        &self,
        budget: &Budget,
        locate: impl Fn(&[u32]) -> Option<OccLocation>,
    ) -> Result<SparseQbdBlocks> {
        // Rows per budget poll: coarse enough to keep the poll cost
        // invisible, fine enough that an abort lands within a few
        // thousand sparse-row assemblies.
        const ROW_BATCH: usize = 512;
        let poll = |row: usize| -> Result<()> {
            if row % ROW_BATCH == 0 {
                budget
                    .check("lumped-assembly", row, f64::NAN)
                    .map_err(|e| CoreError::from(slb_qbd::QbdError::from(e)))?;
            }
            Ok(())
        };
        let sp = &self.space;
        let (nb, m) = (sp.boundary_len(), sp.block_len());
        let (d, lambda, mode) = (self.sqd.d(), self.sqd.lambda(), self.sqd.poll_mode());
        let kind = self.kind;
        let n = sp.n();

        let mut r00 = CooBuilder::new(nb, nb);
        let mut r01 = CooBuilder::new(nb, m);
        let mut r10 = CooBuilder::new(m, nb);
        let mut a0 = CooBuilder::new(m, m);
        let mut a1 = CooBuilder::new(m, m);
        let mut a2 = CooBuilder::new(m, m);
        let add = |b: &mut CooBuilder, r: usize, c: usize, v: f64| {
            b.add(r, c, v).expect("indices in range by construction");
        };

        let mut scratch = TransitionScratch::new(sp.stride());

        // Boundary rows.
        for i in 0..nb {
            poll(i)?;
            let occ = sp.boundary_state(i);
            let mut outflow = 0.0;
            for_each_transition(occ, n, d, lambda, kind, mode, &mut scratch, |tgt, rate| {
                outflow += rate;
                match locate(tgt) {
                    Some(OccLocation::Boundary(j)) => add(&mut r00, i, j, rate),
                    Some(OccLocation::Level { q: 0, index: j }) => add(&mut r01, i, j, rate),
                    other => unreachable!("boundary transition {occ:?} -> {tgt:?} at {other:?}"),
                }
            });
            add(&mut r00, i, i, -outflow);
        }

        // Template-block rows.
        for i in 0..m {
            poll(i)?;
            let occ = sp.block0_state(i);
            let mut outflow = 0.0;
            for_each_transition(occ, n, d, lambda, kind, mode, &mut scratch, |tgt, rate| {
                outflow += rate;
                match locate(tgt) {
                    Some(OccLocation::Boundary(j)) => add(&mut r10, i, j, rate),
                    Some(OccLocation::Level { q: 0, index: j }) => add(&mut a1, i, j, rate),
                    Some(OccLocation::Level { q: 1, index: j }) => add(&mut a0, i, j, rate),
                    other => unreachable!("level-0 transition {occ:?} -> {tgt:?} at {other:?}"),
                }
            });
            add(&mut a1, i, i, -outflow);
        }

        // Downward block A2, extracted one level up (level independence
        // makes the A1/A0 rates there copies of the ones above).
        let mut up = vec![0u32; sp.stride()];
        for i in 0..m {
            poll(i)?;
            up.copy_from_slice(sp.block0_state(i));
            up[0] += 1;
            for_each_transition(&up, n, d, lambda, kind, mode, &mut scratch, |tgt, rate| {
                match locate(tgt) {
                    Some(OccLocation::Level { q: 0, index: j }) => add(&mut a2, i, j, rate),
                    Some(OccLocation::Level { q: 1 | 2, .. }) => {}
                    other => unreachable!("level-1 transition {up:?} -> {tgt:?} at {other:?}"),
                }
            });
        }

        // Aggregation classes: the job total, which arrivals and
        // departures change by one (the upper model's redirect by a few),
        // so the slow drift between totals is what the coarse solves
        // capture. A level's labels count from the first total above the
        // boundary.
        let cap = sp.boundary_cap();
        let boundary_classes = (0..nb).map(|i| sp.total(sp.boundary_state(i)) as u32);
        let level_classes = (0..m).map(|i| (sp.total(sp.block0_state(i)) - cap - 1) as u32);
        SparseQbdBlocks::new(
            r00.build(),
            r01.build(),
            r10.build(),
            a0.build(),
            a1.build(),
            a2.build(),
        )
        .and_then(|b| b.with_classes(boundary_classes.collect(), level_classes.collect()))
        .map_err(CoreError::from)
    }

    /// Solves the lower model with the Theorem-3 scalar tail `β = ρᴺ`
    /// on the sparse blocks.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameters`] on an upper model (the scalar
    /// tail is a lower-model theorem); solver failures otherwise.
    pub fn solve_scalar_tail(&self, opts: &SparseSolveOptions) -> Result<BoundResult> {
        if self.kind != BoundKind::Lower {
            return Err(CoreError::InvalidParameters {
                reason: "the ρᴺ scalar tail (Theorem 3) applies to the lower model only".into(),
            });
        }
        let blocks = self.qbd_blocks_budgeted(&opts.budget)?;
        let beta = self.sqd.lambda().powi(self.sqd.n() as i32);
        let sol = blocks.solve_scalar_tail(beta, opts)?;
        let (cb, c0, growth) = self.cost_vectors();
        Ok(self.result(sol.mean_linear_cost(&cb, &c0, &growth), sol.residual()))
    }

    /// Solves either model by the closed level-doubling truncation
    /// ([`SparseQbdBlocks::solve_decay_tail`]; no rate matrix `R` is ever
    /// formed or densified).
    ///
    /// # Errors
    ///
    /// [`CoreError::UpperBoundUnstable`] when the drift condition fails;
    /// solver failures otherwise.
    pub fn solve_truncated(&self, opts: &SparseSolveOptions) -> Result<BoundResult> {
        let blocks = self.qbd_blocks_budgeted(&opts.budget)?;
        let sol = blocks.solve_decay_tail(opts)?;
        let (cb, c0, growth) = self.cost_vectors();
        Ok(self.result(sol.mean_linear_cost(&cb, &c0, &growth), sol.residual()))
    }

    /// The tail decay rate `sp(R)` of this model, computed without ever
    /// forming `R` (Perron-root bisection of `A(z) = A0 + zA1 + z²A2`).
    ///
    /// # Errors
    ///
    /// [`CoreError::UpperBoundUnstable`] when the drift condition fails;
    /// solver failures otherwise.
    pub fn decay_rate(&self, tol: f64) -> Result<f64> {
        Ok(decay_rate_sparse(&self.qbd_blocks()?, tol)?)
    }

    /// [`LumpedModel::decay_rate`] under a cooperative [`Budget`].
    ///
    /// # Errors
    ///
    /// As [`LumpedModel::decay_rate`], plus [`CoreError::Interrupted`]
    /// when the budget trips mid-bisection.
    pub fn decay_rate_budgeted(&self, tol: f64, budget: &Budget) -> Result<f64> {
        Ok(decay_rate_sparse_budgeted(
            &self.qbd_blocks_budgeted(budget)?,
            tol,
            budget,
        )?)
    }

    /// Waiting-job cost vectors: boundary costs, template-block costs,
    /// and the per-level growth (`N` — every server is busy on repeating
    /// levels).
    pub(crate) fn cost_vectors(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let (cb, c0) = self.space.waiting_costs();
        let growth = vec![self.space.n() as f64; self.space.block_len()];
        (cb, c0, growth)
    }

    fn result(&self, waiting: f64, residual: f64) -> BoundResult {
        let mean_wait = waiting / (self.sqd.lambda() * self.sqd.n() as f64);
        BoundResult {
            delay: mean_wait + 1.0,
            waiting_jobs: waiting,
            residual,
            g_iterations: 0,
            boundary_states: self.space.boundary_len(),
            level_states: self.space.block_len(),
        }
    }
}

impl Sqd {
    /// Lower bound on the mean delay via the occupancy-lumped sparse
    /// path — same value as [`Sqd::lower_bound`] (pinned to `1e-8`
    /// relative agreement by tests), but scaling to production `N`
    /// where the dense path cannot allocate its blocks.
    ///
    /// # Errors
    ///
    /// Propagates state-space or solver failures; the lower-bound model
    /// is stable for every `λ < 1`.
    ///
    /// # Example
    ///
    /// ```
    /// use slb_core::Sqd;
    ///
    /// # fn main() -> Result<(), slb_core::CoreError> {
    /// let sqd = Sqd::new(8, 2, 0.8)?;
    /// let dense = sqd.lower_bound(2)?;
    /// let lumped = sqd.lower_bound_lumped(2)?;
    /// assert!((dense.delay - lumped.delay).abs() < 1e-8 * dense.delay);
    /// # Ok(())
    /// # }
    /// ```
    pub fn lower_bound_lumped(&self, t: u32) -> Result<BoundResult> {
        self.lower_bound_lumped_with(t, &SparseSolveOptions::default())
    }

    /// [`Sqd::lower_bound_lumped`] with caller-supplied solve options —
    /// in particular a [`SparseSolveOptions::budget`], which is how the
    /// serving stack makes the multi-minute production-`N` solve abort
    /// at its request deadline instead of holding a worker.
    ///
    /// # Errors
    ///
    /// As [`Sqd::lower_bound_lumped`], plus [`CoreError::Interrupted`]
    /// when the budget trips mid-solve.
    pub fn lower_bound_lumped_with(
        &self,
        t: u32,
        opts: &SparseSolveOptions,
    ) -> Result<BoundResult> {
        LumpedModel::new_budgeted(*self, BoundKind::Lower, t, &opts.budget)?.solve_scalar_tail(opts)
    }

    /// Upper bound on the mean delay via the occupancy-lumped sparse
    /// path — same value as [`Sqd::upper_bound`], computed by the
    /// closed level-doubling truncation instead of the dense rate
    /// matrix.
    ///
    /// # Errors
    ///
    /// [`CoreError::UpperBoundUnstable`] when blocking reduces capacity
    /// below the offered load at this `(λ, T)` — raise `T` in that case.
    ///
    /// # Example
    ///
    /// ```
    /// use slb_core::Sqd;
    ///
    /// # fn main() -> Result<(), slb_core::CoreError> {
    /// let sqd = Sqd::new(6, 2, 0.7)?;
    /// let dense = sqd.upper_bound(3)?;
    /// let lumped = sqd.upper_bound_lumped(3)?;
    /// assert!((dense.delay - lumped.delay).abs() < 1e-8 * dense.delay);
    /// # Ok(())
    /// # }
    /// ```
    pub fn upper_bound_lumped(&self, t: u32) -> Result<BoundResult> {
        self.upper_bound_lumped_with(t, &SparseSolveOptions::default())
    }

    /// [`Sqd::upper_bound_lumped`] with caller-supplied solve options
    /// (see [`Sqd::lower_bound_lumped_with`] for the budget rationale).
    ///
    /// # Errors
    ///
    /// As [`Sqd::upper_bound_lumped`], plus [`CoreError::Interrupted`]
    /// when the budget trips mid-solve.
    pub fn upper_bound_lumped_with(
        &self,
        t: u32,
        opts: &SparseSolveOptions,
    ) -> Result<BoundResult> {
        LumpedModel::new_budgeted(*self, BoundKind::Upper, t, &opts.budget)?.solve_truncated(opts)
    }

    /// The geometric tail decay rate `sp(R)` of a bound model, via the
    /// sparse Perron-root fast path — no stationary solve, no `R`.
    ///
    /// # Errors
    ///
    /// [`CoreError::UpperBoundUnstable`] when the drift condition fails.
    ///
    /// # Example
    ///
    /// ```
    /// use slb_core::{BoundKind, Sqd};
    ///
    /// # fn main() -> Result<(), slb_core::CoreError> {
    /// let sqd = Sqd::new(4, 2, 0.8)?;
    /// let eta = sqd.decay_rate_lumped(BoundKind::Lower, 2)?;
    /// // The lower model's tail decays at least as fast as ρᴺ … scaled
    /// // chains decay geometrically with rate strictly below 1.
    /// assert!(eta > 0.0 && eta < 1.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn decay_rate_lumped(&self, kind: BoundKind, t: u32) -> Result<f64> {
        LumpedModel::new(*self, kind, t)?.decay_rate(1e-10)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use slb_linalg::Matrix;

    use super::*;
    use crate::combinatorics::binomial;
    use crate::{transitions_with_mode, BoundModel, ModelVariant};

    fn tuple(v: &[u32]) -> State {
        State::new(v.to_vec()).unwrap()
    }

    /// The dense tuple space, enumerated from the definition of `S_T`
    /// with no occupancy vectors involved: every sorted tuple `base +
    /// shape` (shape non-increasing in `0..=T`, ending in 0) with total
    /// at most `(N−1)T + levels·N`, in canonical (total, lexicographic)
    /// order, cut into the boundary and `levels` blocks of `N` totals.
    fn dense_space(n: usize, t: u32, levels: usize) -> (Vec<State>, Vec<Vec<State>>) {
        fn shapes(len: usize, max: u32, prefix: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
            if prefix.len() == len {
                out.push(prefix.clone());
                return;
            }
            for x in 0..=max {
                prefix.push(x);
                shapes(len, x, prefix, out);
                prefix.pop();
            }
        }
        let mut all_shapes = Vec::new();
        shapes(n - 1, t, &mut Vec::new(), &mut all_shapes);
        let (n32, cap) = (n as u32, (n as u32 - 1) * t);
        let top = cap + levels as u32 * n32;
        let mut states = Vec::new();
        for base in 0..=top / n32 {
            for shape in &all_shapes {
                let mut v: Vec<u32> = shape.iter().map(|x| x + base).collect();
                v.push(base);
                let s = tuple(&v);
                if s.total() <= top {
                    states.push(s);
                }
            }
        }
        states.sort_by(|a, b| (a.total(), a).cmp(&(b.total(), b)));
        let within = |lo: u32, hi: u32| -> Vec<State> {
            states
                .iter()
                .filter(|s| s.total() > lo && s.total() <= hi)
                .cloned()
                .collect()
        };
        let boundary = states
            .iter()
            .filter(|s| s.total() <= cap)
            .cloned()
            .collect();
        let blocks = (0..levels as u32)
            .map(|q| within(cap + q * n32, cap + (q + 1) * n32))
            .collect();
        (boundary, blocks)
    }

    /// The six generator blocks `[R00, R01, R10, A0, A1, A2]` assembled
    /// on [`dense_space`] from the tuple generator
    /// [`transitions_with_mode`]: the reference the lumped blocks must
    /// reproduce entry for entry under the canonical order.
    fn dense_blocks(sqd: Sqd, kind: BoundKind, t: u32) -> [Matrix; 6] {
        let variant = match kind {
            BoundKind::Lower => ModelVariant::Lower { threshold: t },
            BoundKind::Upper => ModelVariant::Upper { threshold: t },
        };
        let (boundary, blocks) = dense_space(sqd.n(), t, 3);
        let mut at = HashMap::new();
        for (i, s) in boundary.iter().enumerate() {
            at.insert(s.clone(), (0usize, i));
        }
        for (q, block) in blocks.iter().enumerate() {
            for (i, s) in block.iter().enumerate() {
                at.insert(s.clone(), (q + 1, i));
            }
        }
        let (nb, m) = (boundary.len(), blocks[0].len());
        let [mut r00, mut r01, mut r10, mut a0, mut a1, mut a2] =
            [(nb, nb), (nb, m), (m, nb), (m, m), (m, m), (m, m)].map(|(r, c)| Matrix::zeros(r, c));
        for (row, states) in [&boundary, &blocks[0], &blocks[1]].into_iter().enumerate() {
            for (i, s) in states.iter().enumerate() {
                let mut outflow = 0.0;
                for tr in transitions_with_mode(s, sqd.d(), sqd.lambda(), variant, sqd.poll_mode())
                {
                    outflow += tr.rate;
                    let (col, j) = at[&tr.target];
                    let block = match (row, col) {
                        (0, 0) => &mut r00,
                        (0, 1) => &mut r01,
                        (1, 0) => &mut r10,
                        (1, 1) => &mut a1,
                        (1, 2) => &mut a0,
                        (2, 1) => &mut a2,
                        // Level 1's own and upward rates repeat level 0's.
                        (2, 2 | 3) => continue,
                        other => panic!("{s} -> {} crosses blocks {other:?}", tr.target),
                    };
                    block[(i, j)] += tr.rate;
                }
                match row {
                    0 => r00[(i, i)] -= outflow,
                    1 => a1[(i, i)] -= outflow,
                    _ => {}
                }
            }
        }
        [r00, r01, r10, a0, a1, a2]
    }

    /// Asserts that the lumped blocks equal [`dense_blocks`] entrywise.
    fn assert_lumped_equals_dense(sqd: Sqd, kind: BoundKind, t: u32) {
        let lumped = LumpedModel::new(sqd, kind, t)
            .unwrap()
            .qbd_blocks()
            .unwrap();
        let dense = dense_blocks(sqd, kind, t);
        let names = ["R00", "R01", "R10", "A0", "A1", "A2"];
        let sparse = [
            lumped.r00(),
            lumped.r01(),
            lumped.r10(),
            lumped.a0(),
            lumped.a1(),
            lumped.a2(),
        ];
        for ((name, sparse), dense) in names.iter().zip(sparse).zip(&dense) {
            assert!(
                sparse.to_dense().approx_eq(dense, 1e-12),
                "{sqd:?} T={t} {kind:?}: {name} differs"
            );
        }
    }

    /// Binary search for `occ` in a canonically sorted flat block.
    fn find_in(flat: &[u32], occ: &[u32], stride: usize, n: usize) -> Option<usize> {
        let (mut lo, mut hi) = (0usize, flat.len() / stride);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match cmp_occ(&flat[mid * stride..(mid + 1) * stride], occ, n) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    /// [`OccupancySpace::locate`] by binary search over the sorted
    /// records: the boundary when the total is at most the cap, else the
    /// template block after taking `q` levels off the base.
    fn oracle_locate(sp: &OccupancySpace, occ: &[u32]) -> Option<OccLocation> {
        if occ.len() != sp.stride
            || occ[1] == 0
            || occ[1..].iter().map(|&c| u64::from(c)).sum::<u64>() != sp.n as u64
        {
            return None;
        }
        let total = sp.total(occ);
        let cap = sp.boundary_cap();
        if total <= cap {
            return find_in(&sp.boundary, occ, sp.stride, sp.n).map(OccLocation::Boundary);
        }
        let q = ((total - cap - 1) / sp.n as u64) as usize;
        let mut template = occ.to_vec();
        template[0] = template[0].checked_sub(q as u32)?;
        find_in(&sp.block0, &template, sp.stride, sp.n).map(|index| OccLocation::Level { q, index })
    }

    /// Every `(row, column, value bits)` of the six blocks, in order.
    fn block_bits(b: &SparseQbdBlocks) -> Vec<Vec<(usize, usize, u64)>> {
        [b.r00(), b.r01(), b.r10(), b.a0(), b.a1(), b.a2()]
            .iter()
            .map(|m| {
                (0..m.rows())
                    .flat_map(|r| m.row(r).map(move |(c, v)| (r, c, v.to_bits())))
                    .collect()
            })
            .collect()
    }

    const RANKED_SPACES: [(usize, u32); 6] = [(2, 1), (3, 2), (10, 3), (16, 3), (8, 4), (64, 2)];

    #[test]
    fn ranked_locate_matches_binary_search() {
        for (n, t) in RANKED_SPACES {
            let sp = OccupancySpace::new(n, t).unwrap();
            for i in 0..sp.boundary_len() {
                let occ = sp.boundary_state(i);
                assert_eq!(oracle_locate(&sp, occ), Some(OccLocation::Boundary(i)));
                assert_eq!(
                    sp.locate(occ),
                    oracle_locate(&sp, occ),
                    "N={n} T={t} {occ:?}"
                );
            }
            for q in [0u32, 1, 7] {
                for i in 0..sp.block_len() {
                    let mut occ = sp.block0_state(i).to_vec();
                    occ[0] += q;
                    let want = Some(OccLocation::Level {
                        q: q as usize,
                        index: i,
                    });
                    assert_eq!(oracle_locate(&sp, &occ), want);
                    assert_eq!(sp.locate(&occ), want, "N={n} T={t} {occ:?}");
                }
            }
        }
    }

    #[test]
    fn locate_returns_none_off_the_space() {
        for (n, t) in RANKED_SPACES {
            let sp = OccupancySpace::new(n, t).unwrap();
            let stride = sp.stride();
            let n32 = n as u32;
            let mut bad: Vec<Vec<u32>> = Vec::new();
            // c_0 = 0: the bottom level is empty.
            let mut empty_bottom = vec![0; stride];
            empty_bottom[2] = n32;
            bad.push(empty_bottom.clone());
            empty_bottom[0] = 3;
            bad.push(empty_bottom);
            // Counts summing to N − 1 and N + 1.
            let mut short = vec![0; stride];
            short[1] = n32 - 1;
            bad.push(short);
            let mut long = vec![1; stride];
            long[1] = n32;
            bad.push(long);
            // A count alone above N.
            let mut huge = vec![0; stride];
            (huge[1], huge[stride - 1]) = (1, u32::MAX);
            bad.push(huge);
            // Records one entry too short and too long.
            bad.push(sp.block0_state(0)[..stride - 1].to_vec());
            let mut longer = sp.block0_state(0).to_vec();
            longer.push(0);
            bad.push(longer);
            for occ in &bad {
                assert_eq!(sp.locate(occ), None, "N={n} T={t} {occ:?}");
                assert_eq!(oracle_locate(&sp, occ), None, "N={n} T={t} {occ:?}");
            }
        }
    }

    #[test]
    fn ranked_assembly_is_bitwise_the_binary_search_assembly() {
        for (n, t) in [(10usize, 3u32), (16, 3)] {
            let sqd = Sqd::new(n, 2, 0.45).unwrap();
            for kind in [BoundKind::Lower, BoundKind::Upper] {
                let model = LumpedModel::new(sqd, kind, t).unwrap();
                let ranked = model.qbd_blocks().unwrap();
                let sp = model.space();
                let searched = model
                    .assemble(&Budget::unlimited(), |occ| oracle_locate(sp, occ))
                    .unwrap();
                assert_eq!(ranked.classes(), searched.classes());
                assert!(
                    block_bits(&ranked) == block_bits(&searched),
                    "N={n} T={t} {kind:?}: blocks differ"
                );
            }
        }
    }

    #[test]
    fn with_kind_shares_the_space() {
        let sqd = Sqd::new(6, 2, 0.6).unwrap();
        let lower = LumpedModel::new(sqd, BoundKind::Lower, 2).unwrap();
        let upper = lower.with_kind(BoundKind::Upper);
        assert!(std::ptr::eq(lower.space(), upper.space()));
        let fresh = LumpedModel::new(sqd, BoundKind::Upper, 2).unwrap();
        assert!(
            block_bits(&upper.qbd_blocks().unwrap()) == block_bits(&fresh.qbd_blocks().unwrap())
        );
    }

    #[test]
    fn space_matches_dense_blockspace_in_order() {
        for &(n, t) in &[(2usize, 1u32), (3, 2), (4, 3), (6, 2), (5, 1)] {
            let occ = OccupancySpace::new(n, t).unwrap();
            let (boundary, blocks) = dense_space(n, t, 1);
            assert_eq!(occ.boundary_len(), boundary.len(), "N={n} T={t}");
            assert_eq!(occ.block_len(), blocks[0].len(), "N={n} T={t}");
            for (i, s) in boundary.iter().enumerate() {
                assert_eq!(&occupancy_to_state(occ.boundary_state(i)), s);
            }
            for (i, s) in blocks[0].iter().enumerate() {
                assert_eq!(&occupancy_to_state(occ.block0_state(i)), s);
            }
        }
    }

    #[test]
    fn locate_agrees_with_dense() {
        let occ = OccupancySpace::new(4, 2).unwrap();
        let (boundary, blocks) = dense_space(4, 2, 3);
        for (i, s) in boundary.iter().enumerate() {
            let o = state_to_occupancy(s, 2).unwrap();
            assert_eq!(occ.locate(&o), Some(OccLocation::Boundary(i)), "{s}");
        }
        // The i-th dense state of block q locates to (q, i).
        for (q, block) in blocks.iter().enumerate() {
            for (index, s) in block.iter().enumerate() {
                let o = state_to_occupancy(s, 2).unwrap();
                assert_eq!(occ.locate(&o), Some(OccLocation::Level { q, index }), "{s}");
            }
        }
    }

    #[test]
    fn lumped_blocks_equal_dense_blocks() {
        for &(n, d, lam, t) in &[
            (3usize, 2usize, 0.7f64, 2u32),
            (3, 1, 0.6, 2),
            (4, 4, 0.8, 2), // JSQ
            (4, 2, 0.85, 3),
            (5, 3, 0.5, 1),
        ] {
            let sqd = Sqd::new(n, d, lam).unwrap();
            for kind in [BoundKind::Lower, BoundKind::Upper] {
                assert_lumped_equals_dense(sqd, kind, t);
            }
        }
    }

    #[test]
    fn with_replacement_blocks_equal_dense() {
        let sqd = Sqd::new_with_mode(4, 5, 0.7, PollMode::WithReplacement).unwrap();
        for kind in [BoundKind::Lower, BoundKind::Upper] {
            assert_lumped_equals_dense(sqd, kind, 2);
        }
    }

    #[test]
    fn block_size_matches_paper_formula() {
        // Paper: block size C(N+T−1, T).
        for &(n, t) in &[(3usize, 2u32), (3, 3), (6, 3), (4, 2), (5, 1), (12, 3)] {
            let space = OccupancySpace::new(n, t).unwrap();
            let expect = binomial(n - 1 + t as usize, t as usize) as usize;
            assert_eq!(space.block_len(), expect, "N={n}, T={t}");
        }
    }

    #[test]
    fn boundary_contains_every_idle_state() {
        let (n, t) = (3usize, 2u32);
        let space = OccupancySpace::new(n, t).unwrap();
        for i in 0..space.boundary_len() {
            let s = occupancy_to_state(space.boundary_state(i));
            assert!(u64::from(s.total()) <= space.boundary_cap());
            assert!(s.diff() <= t);
        }
        // Every state of S_T with an idle server lies in the boundary,
        // up to the extreme (T, …, T, 0) with total exactly (N−1)T.
        let mut idle = 0;
        for a in 0..=t {
            for b in 0..=a {
                let s = tuple(&[a, b, 0]);
                let occ = state_to_occupancy(&s, t).unwrap();
                assert!(
                    matches!(space.locate(&occ), Some(OccLocation::Boundary(_))),
                    "{s}"
                );
                idle += 1;
            }
        }
        assert_eq!(idle, 6);
        assert_eq!(u64::from(tuple(&[2, 2, 0]).total()), space.boundary_cap());
    }

    #[test]
    fn block0_states_have_all_servers_busy() {
        for &(n, t) in &[(3usize, 2u32), (4, 3), (6, 2)] {
            let space = OccupancySpace::new(n, t).unwrap();
            let cap = space.boundary_cap();
            for i in 0..space.block_len() {
                let s = occupancy_to_state(space.block0_state(i));
                assert!(s.level(n - 1) >= 1, "block-0 state {s} has idle server");
                let total = u64::from(s.total());
                assert!(total > cap && total <= cap + n as u64, "{s}");
            }
        }
    }

    #[test]
    fn shapes_are_unique_per_block() {
        let space = OccupancySpace::new(4, 2).unwrap();
        let mut shapes: Vec<&[u32]> = (0..space.block_len())
            .map(|i| &space.block0_state(i)[1..])
            .collect();
        shapes.sort();
        shapes.dedup();
        assert_eq!(shapes.len(), space.block_len());
    }

    #[test]
    fn locate_roundtrips() {
        let space = OccupancySpace::new(4, 2).unwrap();
        for i in 0..space.boundary_len() {
            let occ = space.boundary_state(i);
            assert_eq!(space.locate(occ), Some(OccLocation::Boundary(i)));
            let s = occupancy_to_state(occ);
            assert_eq!(state_to_occupancy(&s, 2).as_deref(), Some(occ));
        }
        // Every block-q state locates to (q, index of its template).
        for q in 0..4u32 {
            for i in 0..space.block_len() {
                let mut occ = space.block0_state(i).to_vec();
                occ[0] += q;
                assert_eq!(
                    space.locate(&occ),
                    Some(OccLocation::Level {
                        q: q as usize,
                        index: i
                    }),
                    "{occ:?} at level {q}"
                );
            }
        }
    }

    #[test]
    fn locate_rejects_outside_threshold() {
        let space = OccupancySpace::new(3, 2).unwrap();
        let bad = tuple(&[5, 1, 1]); // diff 4 > 2
        assert_eq!(state_to_occupancy(&bad, 2), None);
        let wide = state_to_occupancy(&bad, 4).unwrap();
        assert_eq!(space.locate(&wide), None);
        // Counts summing to 2 servers, not N = 3.
        assert_eq!(space.locate(&[1, 1, 1, 0]), None);
    }

    #[test]
    fn level_shift_preserves_index_order() {
        // The base ↦ base + 1 bijection must keep the canonical order, so
        // block q + 1 is block q re-based index for index.
        let space = OccupancySpace::new(4, 3).unwrap();
        let shifted: Vec<Vec<u32>> = (0..space.block_len())
            .map(|i| {
                let mut occ = space.block0_state(i).to_vec();
                occ[0] += 1;
                occ
            })
            .collect();
        for pair in shifted.windows(2) {
            assert_eq!(cmp_occ(&pair[0], &pair[1], 4), Ordering::Less);
        }
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(OccupancySpace::new(1, 2).is_err());
        assert!(OccupancySpace::new(3, 0).is_err());
    }

    #[test]
    fn n3_t2_explicit_block_contents() {
        // Hand-enumerated B0 for N=3, T=2 (totals in (4, 7]), in the
        // canonical (total, lexicographic) order.
        let space = OccupancySpace::new(3, 2).unwrap();
        let expect: [&[u32]; 6] = [
            &[2, 2, 1],
            &[3, 1, 1],
            &[2, 2, 2],
            &[3, 2, 1],
            &[3, 2, 2],
            &[3, 3, 1],
        ];
        assert_eq!(space.block_len(), expect.len());
        for (i, e) in expect.iter().enumerate() {
            assert_eq!(occupancy_to_state(space.block0_state(i)).as_slice(), *e);
        }
    }

    #[test]
    fn boundary_count_small_case() {
        // N=2, T=1: boundary = (0,0), (1,0); block 0 = (1,1), (2,1).
        let space = OccupancySpace::new(2, 1).unwrap();
        assert_eq!(space.boundary_len(), 2);
        assert_eq!(space.block_len(), 2);
        assert_eq!(occupancy_to_state(space.block0_state(0)), tuple(&[1, 1]));
        assert_eq!(occupancy_to_state(space.block0_state(1)), tuple(&[2, 1]));
    }

    #[test]
    fn roundtrip_state_occupancy() {
        let s = State::new(vec![4, 3, 3, 2]).unwrap();
        let occ = state_to_occupancy(&s, 2).unwrap();
        assert_eq!(occ, vec![2, 1, 2, 1]);
        assert_eq!(occupancy_to_state(&occ), s);
        assert_eq!(state_to_occupancy(&s, 1), None);
    }

    #[test]
    fn lumped_bounds_match_dense_to_1e8() {
        for &(n, d, lam, t) in &[
            (3usize, 2usize, 0.7f64, 2u32),
            (6, 2, 0.8, 2),
            (8, 2, 0.9, 2),
            (10, 3, 0.85, 2),
            (16, 2, 0.8, 1),
        ] {
            let sqd = Sqd::new(n, d, lam).unwrap();
            let ld = sqd.lower_bound(t).unwrap().delay;
            let ll = sqd.lower_bound_lumped(t).unwrap().delay;
            assert!(
                (ld - ll).abs() <= 1e-8 * ld,
                "lower N={n} d={d} λ={lam} T={t}: dense {ld} vs lumped {ll}"
            );
            match sqd.upper_bound(t) {
                Ok(ud) => {
                    let ul = sqd.upper_bound_lumped(t).unwrap().delay;
                    assert!(
                        (ud.delay - ul).abs() <= 1e-8 * ud.delay,
                        "upper N={n} d={d} λ={lam} T={t}: dense {} vs lumped {ul}",
                        ud.delay
                    );
                }
                Err(CoreError::UpperBoundUnstable { .. }) => {
                    // The lumped path must agree on infeasibility.
                    assert!(matches!(
                        sqd.upper_bound_lumped(t),
                        Err(CoreError::UpperBoundUnstable { .. })
                    ));
                }
                Err(e) => panic!("unexpected dense failure: {e}"),
            }
        }
    }

    #[test]
    fn decay_rate_matches_dense() {
        for &(n, d, lam, t) in &[
            (3usize, 2usize, 0.7f64, 2u32),
            (4, 2, 0.85, 2),
            (6, 2, 0.6, 1),
        ] {
            let sqd = Sqd::new(n, d, lam).unwrap();
            for kind in [BoundKind::Lower, BoundKind::Upper] {
                let blocks = BoundModel::new(sqd, kind, t).unwrap().qbd_blocks().unwrap();
                if !blocks.is_stable().unwrap() {
                    continue;
                }
                let dense = slb_qbd::decay_rate(&blocks, 1e-13, 10_000).unwrap();
                let sparse = sqd.decay_rate_lumped(kind, t).unwrap();
                assert!(
                    (dense - sparse).abs() <= 1e-6 * dense.max(1e-12),
                    "N={n} {kind:?}: dense sp(R) {dense} vs sparse {sparse}"
                );
            }
        }
    }

    #[test]
    fn decay_rate_brackets_near_the_stability_boundary() {
        // The upper model at N = 16, T = 3, ρ = 0.7 has a drift margin of
        // 0.029: at z = 1 − 1e-9 its Perron root (−3e-11) is below what
        // power iteration resolves, which used to fail the bracket.
        let sqd = Sqd::new(16, 2, 0.7).unwrap();
        let blocks = BoundModel::new(sqd, BoundKind::Upper, 3)
            .unwrap()
            .qbd_blocks()
            .unwrap();
        let dense = slb_qbd::decay_rate(&blocks, 1e-13, 10_000).unwrap();
        assert!(
            (dense - 0.575_351_440_6).abs() < 1e-9,
            "dense sp(R) {dense}"
        );
        let sparse = sqd.decay_rate_lumped(BoundKind::Upper, 3).unwrap();
        assert!(
            (sparse - dense).abs() <= 1e-6 * dense,
            "sparse sp(R) {sparse} vs dense {dense}"
        );
    }

    #[test]
    fn aggregated_solves_stay_within_their_sweep_counts() {
        // Plain forward Gauss–Seidel took 169 / 919 sweeps for the
        // truncated upper system and 2,392 / 285 for the phase chain at
        // these loads; aggregation over the job totals brings both down.
        // Symmetric iterations take 49 / 100 for the phase chain (340 /
        // 219 forward sweeps with aggregation) and 21 / 109 for the
        // upper system.
        let opts = SparseSolveOptions::default();
        for rho in [0.05, 0.45] {
            let sqd = Sqd::new(16, 2, rho).unwrap();
            let blocks = LumpedModel::new(sqd, BoundKind::Upper, 3)
                .unwrap()
                .qbd_blocks()
                .unwrap();
            let phase = blocks.phase_solve(&Budget::unlimited()).unwrap();
            assert!(
                phase.sweeps <= 150,
                "ρ={rho}: phase chain {} sweeps",
                phase.sweeps
            );
            let upper = blocks.solve_decay_tail(&opts).unwrap();
            assert!(
                upper.sweeps() <= 300,
                "ρ={rho}: upper {} sweeps",
                upper.sweeps()
            );
        }
    }

    #[test]
    fn truncation_rounds_near_the_boundary_stay_within_their_sweeps() {
        // N = 10, T = 3, ρ = 0.75 is the slowest stable point of the
        // Fig. 10 axis. The accepted round alone takes a dozen sweeps;
        // all rounds together took 1,463 when the coarse solve merged
        // job totals into runs of about one level, and 476 with one
        // class per total.
        let sqd = Sqd::new(10, 2, 0.75).unwrap();
        let blocks = LumpedModel::new(sqd, BoundKind::Upper, 3)
            .unwrap()
            .qbd_blocks()
            .unwrap();
        let upper = blocks
            .solve_decay_tail(&SparseSolveOptions::default())
            .unwrap();
        assert!(upper.sweeps() <= upper.total_sweeps());
        assert!(
            upper.total_sweeps() <= 700,
            "{} sweeps over all rounds",
            upper.total_sweeps()
        );
    }

    /// The upper model's sparse blocks at `(N, T, ρ)`, d = 2.
    fn upper_blocks(n: usize, t: u32, rho: f64) -> SparseQbdBlocks {
        LumpedModel::new(Sqd::new(n, 2, rho).unwrap(), BoundKind::Upper, t)
            .unwrap()
            .qbd_blocks()
            .unwrap()
    }

    #[test]
    fn closed_tail_decay_is_the_decay_rate() {
        // The cut-balance ratio of the accepted top level against the
        // Perron-root bisection, where the tails carry mass.
        for (n, t, rho) in [(8, 4, 0.9), (10, 3, 0.75), (16, 3, 0.7)] {
            let blocks = upper_blocks(n, t, rho);
            let sol = blocks
                .solve_decay_tail(&SparseSolveOptions::default())
                .unwrap();
            let eta = decay_rate_sparse(&blocks, 1e-12).unwrap();
            assert!(
                (sol.decay() - eta).abs() <= 1e-6 * eta,
                "N={n} T={t} ρ={rho}: closed decay {} vs sp(R) {eta}",
                sol.decay()
            );
        }
    }

    #[test]
    fn closed_truncation_stays_shallow_near_the_boundary() {
        // The doubling to a top-level mass of 1e-12 retained 1,024 levels
        // at both points.
        for (n, t, rho) in [(8, 4, 0.9), (3, 2, 0.8)] {
            let sol = upper_blocks(n, t, rho)
                .solve_decay_tail(&SparseSolveOptions::default())
                .unwrap();
            assert!(
                sol.levels().len() <= 32,
                "N={n} T={t} ρ={rho}: {} levels",
                sol.levels().len()
            );
        }
    }

    #[test]
    fn lumped_upper_matches_dense_to_1e9_near_the_boundary() {
        // The doubling read 5.7e-9, 1.3e-9, 2.9e-10 and 3.6e-9 here.
        for (n, t, rho) in [(3, 2, 0.8031), (8, 4, 0.9), (10, 3, 0.754), (10, 3, 0.77)] {
            let sqd = Sqd::new(n, 2, rho).unwrap();
            let dense = sqd.upper_bound(t).unwrap().delay;
            let lumped = sqd.upper_bound_lumped(t).unwrap().delay;
            assert!(
                (lumped - dense).abs() <= 1e-9 * dense,
                "N={n} T={t} ρ={rho}: lumped {lumped} vs dense {dense}"
            );
        }
    }

    #[test]
    fn qbd_blocks_label_states_by_total() {
        let model = LumpedModel::new(Sqd::new(4, 2, 0.5).unwrap(), BoundKind::Lower, 2).unwrap();
        let blocks = model.qbd_blocks().unwrap();
        let (boundary, level) = blocks.classes();
        let sp = model.space();
        for (i, &c) in boundary.iter().enumerate() {
            assert_eq!(u64::from(c), sp.total(sp.boundary_state(i)));
        }
        // Level labels count totals from the first one above the boundary.
        for (i, &c) in level.iter().enumerate() {
            assert_eq!(
                u64::from(c),
                sp.total(sp.block0_state(i)) - sp.boundary_cap() - 1
            );
        }
        // Canonical order keeps every class contiguous.
        assert!(boundary.windows(2).all(|w| w[0] <= w[1]));
        assert!(level.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(level.last(), Some(&(sp.n() as u32 - 1)));
    }

    #[test]
    fn scalar_tail_rejected_for_upper_model() {
        let sqd = Sqd::new(3, 2, 0.5).unwrap();
        let model = LumpedModel::new(sqd, BoundKind::Upper, 2).unwrap();
        assert!(matches!(
            model.solve_scalar_tail(&SparseSolveOptions::default()),
            Err(CoreError::InvalidParameters { .. })
        ));
    }

    #[test]
    fn production_n_space_enumerates() {
        // The N = 256 block from the issue: C(257, 2) = 32,896 phases.
        let space = OccupancySpace::new(256, 2).unwrap();
        assert_eq!(space.block_len(), 32_896);
        assert!(space.boundary_len() > space.block_len());
        // Spot-check canonical invariants on a few records.
        for i in (0..space.block_len()).step_by(1_001) {
            let occ = space.block0_state(i);
            assert!(occ[1] >= 1);
            assert_eq!(occ[1..].iter().sum::<u32>(), 256);
        }
    }

    // Tier-1 `cargo test` runs in debug, where a quarter-million-phase
    // sparse solve would dominate the suite; the production-scale
    // regression (N = 512 under a time budget) therefore only arms in
    // release test runs (`cargo test --release`, as the bench/CI lane
    // does).
    #[cfg(not(debug_assertions))]
    #[test]
    fn n512_bounds_within_time_budget() {
        let budget = std::time::Duration::from_secs(300);
        let start = std::time::Instant::now();
        let sqd = Sqd::new(512, 2, 0.9).unwrap();
        let lb = sqd.lower_bound_lumped(2).unwrap();
        assert!(lb.delay >= 1.0 && lb.residual < 1e-6);
        assert_eq!(lb.level_states, 131_328); // C(513, 2)
        let elapsed = start.elapsed();
        assert!(
            elapsed < budget,
            "N=512 lumped lower bound took {elapsed:?} (budget {budget:?})"
        );
    }
}
