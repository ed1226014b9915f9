//! Property-based tests for the SQ(d) model layer.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;
use slb_core::occupancy::{
    for_each_transition, occupancy_to_state, state_to_occupancy, TransitionScratch,
};
use slb_core::precedence::{precedes, verify_redirects};
use slb_core::{
    transitions, transitions_with_mode, BoundKind, BoundModel, CoreError, LumpedModel,
    ModelVariant, OccupancySpace, PollMode, Sqd, State,
};
use slb_linalg::{Budget, Matrix};

/// Random sorted state with bounded entries.
fn arb_state(n: usize, max: u32) -> impl Strategy<Value = State> {
    prop::collection::vec(0..=max, n).prop_map(State::from_unsorted)
}

/// Random state inside the threshold set `S_T`.
fn arb_state_in_st(n: usize, t: u32, max_base: u32) -> impl Strategy<Value = State> {
    (prop::collection::vec(0..=t, n - 1), 0..=max_base).prop_map(move |(shape, base)| {
        let mut v: Vec<u32> = shape.into_iter().map(|x| x + base).collect();
        v.push(base);
        State::from_unsorted(v)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn base_outflow_is_lambda_n_plus_busy(
        s in (2usize..7).prop_flat_map(|n| arb_state(n, 6)),
        d_seed in 0usize..100,
        lambda in 0.05f64..0.99,
    ) {
        let n = s.n();
        let d = d_seed % n + 1;
        let ts = transitions(&s, d, lambda, ModelVariant::Base);
        let total: f64 = ts.iter().map(|t| t.rate).sum();
        let expect = lambda * n as f64 + s.busy() as f64;
        prop_assert!((total - expect).abs() < 1e-10, "{s}: {total} vs {expect}");
    }

    #[test]
    fn base_transitions_change_total_by_one(
        s in (2usize..7).prop_flat_map(|n| arb_state(n, 6)),
        lambda in 0.05f64..0.99,
    ) {
        for tr in transitions(&s, 2.min(s.n()), lambda, ModelVariant::Base) {
            let dt = i64::from(tr.target.total()) - i64::from(s.total());
            prop_assert!(dt == 1 || dt == -1);
        }
    }

    #[test]
    fn bound_models_closed_on_threshold_set(
        s in (2usize..6).prop_flat_map(|n| arb_state_in_st(n, 3, 5)),
        d_seed in 0usize..100,
        lambda in 0.05f64..0.99,
    ) {
        let n = s.n();
        let d = d_seed % n + 1;
        for variant in [
            ModelVariant::Lower { threshold: 3 },
            ModelVariant::Upper { threshold: 3 },
        ] {
            for tr in transitions(&s, d, lambda, variant) {
                prop_assert!(tr.target.diff() <= 3, "{variant:?}: {s} -> {}", tr.target);
            }
        }
    }

    #[test]
    fn lower_model_preserves_capacity(
        s in (2usize..6).prop_flat_map(|n| arb_state_in_st(n, 2, 4)),
        lambda in 0.05f64..0.99,
    ) {
        // The lower model only redirects — total departure rate equals the
        // number of busy servers, as in the base model.
        let base = transitions(&s, 2.min(s.n()), lambda, ModelVariant::Base);
        let low = transitions(&s, 2.min(s.n()), lambda, ModelVariant::Lower { threshold: 2 });
        let dep = |ts: &[slb_core::Transition]| -> f64 {
            ts.iter()
                .filter(|t| t.target.total() < s.total())
                .map(|t| t.rate)
                .sum()
        };
        prop_assert!((dep(&base) - dep(&low)).abs() < 1e-10);
    }

    #[test]
    fn upper_model_never_gains_capacity(
        s in (2usize..6).prop_flat_map(|n| arb_state_in_st(n, 2, 4)),
        lambda in 0.05f64..0.99,
    ) {
        let base = transitions(&s, 2.min(s.n()), lambda, ModelVariant::Base);
        let up = transitions(&s, 2.min(s.n()), lambda, ModelVariant::Upper { threshold: 2 });
        let dep = |ts: &[slb_core::Transition]| -> f64 {
            ts.iter()
                .filter(|t| t.target.total() < s.total())
                .map(|t| t.rate)
                .sum()
        };
        prop_assert!(dep(&up) <= dep(&base) + 1e-10);
    }

    #[test]
    fn redirects_precedence_sound(
        s in (2usize..6).prop_flat_map(|n| arb_state_in_st(n, 2, 4)),
        d_seed in 0usize..100,
    ) {
        let n = s.n();
        let d = d_seed % n + 1;
        let states = [s];
        for variant in [
            ModelVariant::Lower { threshold: 2 },
            ModelVariant::Upper { threshold: 2 },
        ] {
            let v = verify_redirects(states.iter(), d, 0.8, variant);
            prop_assert!(v.is_empty(), "{variant:?}: {v:?}");
        }
    }

    #[test]
    fn precedence_is_a_partial_order(
        a in (3usize..6).prop_flat_map(|n| (arb_state(n, 5), arb_state(n, 5), arb_state(n, 5))),
    ) {
        let (x, y, z) = a;
        // Reflexivity.
        prop_assert!(precedes(&x, &x));
        // Antisymmetry on totals: x ⪯ y and y ⪯ x forces x == y.
        if precedes(&x, &y) && precedes(&y, &x) {
            prop_assert_eq!(x.clone(), y.clone());
        }
        // Transitivity.
        if precedes(&x, &y) && precedes(&y, &z) {
            prop_assert!(precedes(&x, &z));
        }
    }

    #[test]
    fn plus_one_preserves_precedence(
        a in (3usize..6).prop_flat_map(|n| (arb_state(n, 5), arb_state(n, 5))),
    ) {
        let (x, y) = a;
        prop_assert_eq!(precedes(&x, &y), precedes(&x.plus_one(), &y.plus_one()));
    }

    #[test]
    fn block_space_partition_is_exact(
        nt in (3usize..6).prop_flat_map(|n| (Just(n), 1u32..4)),
    ) {
        let (n, t) = nt;
        let space = OccupancySpace::new(n, t, &Budget::unlimited()).unwrap();
        let cap = space.boundary_cap();
        // Every boundary state has total ≤ cap; every block-q state
        // (template shifted up q levels) has its total in block q's range
        // and locates back to (q, its template index).
        for i in 0..space.boundary_len() {
            prop_assert!(space.total(space.boundary_state(i)) <= cap);
        }
        for q in 0..3u32 {
            for i in 0..space.block_len() {
                let mut occ = space.block0_state(i).to_vec();
                occ[0] += q;
                let total = space.total(&occ);
                let (lo, n64) = (cap + u64::from(q) * n as u64, n as u64);
                prop_assert!(
                    total > lo && total <= lo + n64,
                    "state {:?} mislocated in block {}", occ, q
                );
                prop_assert_eq!(
                    space.locate(&occ),
                    Some(slb_core::OccLocation::Level { q: q as usize, index: i })
                );
            }
        }
    }
}

/// `C(n + t − 1, t)` — the occupancy block size, small enough at test
/// scale to compute by direct multiplication.
fn binomial(n: usize, t: u32) -> usize {
    let mut acc = 1usize;
    for j in 1..=t as usize {
        acc = acc * (n - 1 + j) / j;
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn occupancy_generator_matches_tuple_oracle(
        cfg in (2usize..8, 1u32..5, 0u8..2, 0u8..2).prop_flat_map(|(n, t, m, k)| {
            let mode = if m == 0 { PollMode::WithoutReplacement } else { PollMode::WithReplacement };
            let kind = if k == 0 { BoundKind::Lower } else { BoundKind::Upper };
            let d_max = if m == 0 { n } else { n + 2 };
            (Just((n, t, mode, kind)), 1usize..=d_max, 0.05f64..0.95)
        }),
    ) {
        // The one generator of the bound models against the unlumped
        // tuple generator: on every macro-state of the boundary, the
        // template block and the block one level up, the merged
        // (target, rate) sets agree, and the expanded states run in
        // strictly increasing (total, lexicographic) order.
        let ((n, t, mode, kind), d, lambda) = cfg;
        let variant = match kind {
            BoundKind::Lower => ModelVariant::Lower { threshold: t },
            BoundKind::Upper => ModelVariant::Upper { threshold: t },
        };
        let space = OccupancySpace::new(n, t, &Budget::unlimited()).unwrap();
        let one_up = |i| {
            let mut occ = space.block0_state(i).to_vec();
            occ[0] += 1;
            occ
        };
        let blocks: [Vec<Vec<u32>>; 3] = [
            (0..space.boundary_len()).map(|i| space.boundary_state(i).to_vec()).collect(),
            (0..space.block_len()).map(|i| space.block0_state(i).to_vec()).collect(),
            (0..space.block_len()).map(one_up).collect(),
        ];
        let merge = |pairs: Vec<(Vec<u32>, f64)>| {
            let mut merged: BTreeMap<Vec<u32>, f64> = BTreeMap::new();
            for (target, rate) in pairs {
                *merged.entry(target).or_insert(0.0) += rate;
            }
            merged
        };
        let mut scratch = TransitionScratch::new(space.stride());
        for block in &blocks {
            let expanded: Vec<State> = block.iter().map(|occ| occupancy_to_state(occ)).collect();
            for pair in expanded.windows(2) {
                let key = |s: &State| (s.total(), s.clone());
                prop_assert!(key(&pair[0]) < key(&pair[1]), "{} !< {}", pair[0], pair[1]);
            }
            for (occ, s) in block.iter().zip(&expanded) {
                let mut emitted = Vec::new();
                for_each_transition(occ, n, d, lambda, kind, mode, &mut scratch, |tgt, rate| {
                    emitted.push((tgt.to_vec(), rate));
                });
                let oracle: Vec<(Vec<u32>, f64)> =
                    transitions_with_mode(s, d, lambda, variant, mode)
                        .into_iter()
                        .map(|tr| (state_to_occupancy(&tr.target, t).unwrap(), tr.rate))
                        .collect();
                let (ours, theirs) = (merge(emitted), merge(oracle));
                prop_assert_eq!(
                    ours.keys().collect::<Vec<_>>(),
                    theirs.keys().collect::<Vec<_>>(),
                    "targets of {}", s
                );
                for (target, rate) in &ours {
                    prop_assert!(
                        (rate - theirs[target]).abs() <= 1e-12,
                        "{} -> {:?}: {} vs {}", s, target, rate, theirs[target]
                    );
                }
            }
        }

        // The assembled blocks have the paper's dimensions and
        // conservative rows: boundary rows across R00|R01, level-0 rows
        // across R10|A1|A0, repeating rows across A2|A1|A0 all sum to 0.
        let sqd = Sqd::new_with_mode(n, d, lambda, mode).unwrap();
        let lumped = LumpedModel::new(sqd, kind, t).unwrap().qbd_blocks().unwrap();
        prop_assert_eq!(lumped.boundary_len(), space.boundary_len());
        prop_assert_eq!(lumped.level_len(), binomial(n, t));
        let zero_rows = |blocks: &[&slb_linalg::CsrMatrix]| {
            let mut sums = vec![0.0f64; blocks[0].rows()];
            for b in blocks {
                for (i, s) in b.row_sums().iter().enumerate() {
                    sums[i] += s;
                }
            }
            sums.into_iter().all(|s| s.abs() < 1e-10)
        };
        prop_assert!(zero_rows(&[lumped.r00(), lumped.r01()]), "boundary rows");
        prop_assert!(zero_rows(&[lumped.r10(), lumped.a1(), lumped.a0()]), "level-0 rows");
        prop_assert!(zero_rows(&[lumped.a2(), lumped.a1(), lumped.a0()]), "repeating rows");
    }
}

/// The six generator blocks `[R00, R01, R10, A0, A1, A2]` of the bound
/// model, assembled on the unlumped tuple space: every sorted tuple of
/// `S_T` in canonical (total, lexicographic) order, enumerated from the
/// definition, with rates from the tuple generator.
fn tuple_blocks(sqd: Sqd, kind: BoundKind, t: u32) -> [Matrix; 6] {
    let variant = match kind {
        BoundKind::Lower => ModelVariant::Lower { threshold: t },
        BoundKind::Upper => ModelVariant::Upper { threshold: t },
    };
    let n = sqd.n() as u32;
    let cap = (n - 1) * t;
    // Shapes: non-increasing, entries in 0..=T, ending in 0.
    let mut shapes: Vec<Vec<u32>> = vec![vec![]];
    for _ in 1..n {
        shapes = shapes
            .into_iter()
            .flat_map(|s| {
                let max = s.last().copied().unwrap_or(t);
                (0..=max).map(move |x| [s.clone(), vec![x]].concat())
            })
            .collect();
    }
    // Boundary (tag 0) and blocks 0, 1, 2 (tags 1, 2, 3) of N totals each.
    let top = cap + 3 * n;
    let mut states: Vec<State> = (0..=top / n)
        .flat_map(|base| {
            shapes.iter().map(move |shape| {
                State::from_unsorted(shape.iter().map(|x| x + base).chain([base]).collect())
            })
        })
        .filter(|s| s.total() <= top)
        .collect();
    states.sort_by(|a, b| (a.total(), a).cmp(&(b.total(), b)));
    let tag = |s: &State| {
        if s.total() <= cap {
            0
        } else {
            1 + (s.total() - cap - 1) / n
        }
    };
    let mut at = HashMap::new();
    let mut counts = [0usize; 4];
    for s in &states {
        let g = tag(s) as usize;
        at.insert(s.clone(), (g, counts[g]));
        counts[g] += 1;
    }
    let (nb, m) = (counts[0], counts[1]);
    let [mut r00, mut r01, mut r10, mut a0, mut a1, mut a2] =
        [(nb, nb), (nb, m), (m, nb), (m, m), (m, m), (m, m)].map(|(r, c)| Matrix::zeros(r, c));
    for s in states.iter().filter(|s| tag(s) < 3) {
        let (row, i) = at[s];
        let mut outflow = 0.0;
        for tr in transitions_with_mode(s, sqd.d(), sqd.lambda(), variant, sqd.poll_mode()) {
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
    [r00, r01, r10, a0, a1, a2]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lumped_blocks_are_a_true_lumping_of_dense(
        cfg in (2usize..6, 1u32..4).prop_flat_map(|(n, t)| {
            (Just(n), Just(t), 1usize..=n, 0.1f64..0.95)
        }),
    ) {
        // An exact lumping of the sorted-tuple chain: same block
        // dimensions and entrywise-equal generator blocks under the
        // canonical order, for the lumped blocks and for the dense
        // blocks the bound model hands to the dense solver alike.
        let (n, t, d, lambda) = cfg;
        let sqd = Sqd::new(n, d, lambda).unwrap();
        for kind in [BoundKind::Lower, BoundKind::Upper] {
            let tuple = tuple_blocks(sqd, kind, t);
            let lumped = LumpedModel::new(sqd, kind, t).unwrap().qbd_blocks().unwrap();
            let dense = BoundModel::new(sqd, kind, t).unwrap().qbd_blocks().unwrap();
            prop_assert_eq!(lumped.boundary_len(), tuple[0].rows());
            prop_assert_eq!(lumped.level_len(), tuple[4].rows());
            prop_assert_eq!(lumped.level_len(), binomial(n, t));
            let names = ["R00", "R01", "R10", "A0", "A1", "A2"];
            let sparse = [lumped.r00(), lumped.r01(), lumped.r10(), lumped.a0(), lumped.a1(), lumped.a2()];
            let full = [dense.r00(), dense.r01(), dense.r10(), dense.a0(), dense.a1(), dense.a2()];
            for (k, want) in tuple.iter().enumerate() {
                prop_assert!(
                    sparse[k].to_dense().approx_eq(want, 1e-12) && full[k].approx_eq(want, 1e-12),
                    "N={} d={} λ={} T={} {:?}: {} differs", n, d, lambda, t, kind, names[k]
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn lumped_lower_bound_and_decay_agree_with_dense(
        cfg in (2usize..5, 1u32..3).prop_flat_map(|(n, t)| {
            (Just(n), Just(t), 1usize..=n, 0.2f64..0.9)
        }),
    ) {
        let (n, t, d, lambda) = cfg;
        let sqd = Sqd::new(n, d, lambda).unwrap();
        let dense = sqd.lower_bound(t).unwrap();
        let lumped = sqd.lower_bound_lumped(t).unwrap();
        prop_assert!(
            (lumped.delay - dense.delay).abs() <= 1e-8 * dense.delay,
            "N={} d={} λ={} T={}: lumped {} vs dense {}",
            n, d, lambda, t, lumped.delay, dense.delay
        );
        // The stationary tail decays at sp(R) = ρᴺ (Theorem 3).
        let blocks = BoundModel::new(sqd, BoundKind::Lower, t).unwrap().qbd_blocks().unwrap();
        let eta = slb_qbd::decay_rate(&blocks, 1e-13, 10_000).unwrap();
        prop_assert!(
            (eta - lambda.powi(n as i32)).abs() < 1e-6,
            "N={} λ={}: decay {} vs ρᴺ {}", n, lambda, eta, lambda.powi(n as i32)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both bounds, lumped ≡ dense: wherever the dense solve answers, the
    /// lumped one answers the same to 1e-8, and the two agree on
    /// instability of the upper model.
    #[test]
    fn lumped_bounds_match_dense_at_random_points(
        cfg in (2usize..=8, 2u32..=4).prop_flat_map(|(n, t)| {
            (Just(n), Just(t), 1usize..=n, 0.05f64..0.95)
        }),
    ) {
        let (n, t, d, rho) = cfg;
        let sqd = Sqd::new(n, d, rho).unwrap();
        let point = format!("N={n} d={d} ρ={rho} T={t}");
        let dense = sqd.lower_bound(t).unwrap().delay;
        let lumped = sqd.lower_bound_lumped(t).unwrap().delay;
        prop_assert!(
            (lumped - dense).abs() <= 1e-8 * dense,
            "lower {}: lumped {} vs dense {}", point, lumped, dense
        );
        match sqd.upper_bound(t) {
            Ok(dense) => {
                let lumped = sqd.upper_bound_lumped(t).unwrap().delay;
                prop_assert!(
                    (lumped - dense.delay).abs() <= 1e-8 * dense.delay,
                    "upper {}: lumped {} vs dense {}", point, lumped, dense.delay
                );
            }
            Err(CoreError::UpperBoundUnstable { .. }) => {
                let lumped = sqd.upper_bound_lumped(t);
                prop_assert!(
                    matches!(lumped, Err(CoreError::UpperBoundUnstable { .. })),
                    "upper {}: dense unstable, lumped {:?}", point, lumped
                );
            }
            Err(e) => panic!("upper {point}: dense failed: {e}"),
        }
    }
}

/// Both bounds, lumped ≡ dense, on the Fig. 10 axis ρ = 0.05…0.95 at
/// every `N ∈ {3, 4, 5, 6, 8, 10}`, `T ∈ {2, 3}` (d = 2), plus the point
/// N = 3, T = 2, ρ = 0.8031 just inside the upper model's stability
/// boundary, where the mean delay (63.3) amplifies the solver residual
/// most: wherever the dense solve answers, the lumped one answers the
/// same to 1e-8 relative, and the two agree on instability.
#[test]
fn lumped_bounds_match_dense_on_the_fig10_grid() {
    let mut points = vec![(3usize, 2u32, 0.8031f64)];
    for n in [3, 4, 5, 6, 8, 10] {
        for t in [2, 3] {
            points.extend((1..=19).map(|i| (n, t, f64::from(i) * 0.05)));
        }
    }
    let rel = |a: f64, b: f64| (a - b).abs() / b;
    let mut failures = Vec::new();
    for (n, t, rho) in points {
        let sqd = Sqd::new(n, 2, rho).unwrap();
        let point = format!("N={n} T={t} ρ={rho:.4}");
        let dense = sqd.lower_bound(t).unwrap().delay;
        let lumped = sqd.lower_bound_lumped(t).unwrap().delay;
        if rel(lumped, dense) > 1e-8 {
            failures.push(format!("lower {point}: lumped {lumped} vs dense {dense}"));
        }
        match (sqd.upper_bound(t), sqd.upper_bound_lumped(t)) {
            (Ok(dense), Ok(lumped)) => {
                if rel(lumped.delay, dense.delay) > 1e-8 {
                    failures.push(format!(
                        "upper {point}: lumped {} vs dense {}",
                        lumped.delay, dense.delay
                    ));
                }
            }
            (
                Err(CoreError::UpperBoundUnstable { .. }),
                Err(CoreError::UpperBoundUnstable { .. }),
            ) => {}
            (dense, lumped) => failures.push(format!(
                "upper {point}: dense {:?} vs lumped {:?}",
                dense.map(|r| r.delay),
                lumped.map(|r| r.delay)
            )),
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn delay_distribution_is_a_distribution(
        raw in prop::collection::vec(0.0f64..1.0, 1..12),
    ) {
        use slb_core::DelayDistribution;
        let sum: f64 = raw.iter().sum();
        prop_assume!(sum > 1e-6);
        let weights: Vec<f64> = raw.iter().map(|w| w / sum).collect();
        let dist = DelayDistribution::from_weights(weights).unwrap();
        // CDF is monotone from 0 toward 1; survival complements it.
        let mut prev = 0.0;
        for i in 0..=40 {
            let t = i as f64 * 0.5;
            let c = dist.cdf(t);
            prop_assert!(c >= prev - 1e-12);
            prop_assert!((c + dist.survival(t) - 1.0).abs() < 1e-12);
            prev = c;
        }
        // Mean lies within the stage range and matches quantile mass.
        let k = dist.weights().len() as f64;
        prop_assert!(dist.mean() >= 1.0 - 1e-12 && dist.mean() <= k + 1e-12);
        for &p in &[0.25, 0.5, 0.9] {
            let q = dist.quantile(p).unwrap();
            prop_assert!((dist.cdf(q) - p).abs() < 1e-7);
        }
    }

    #[test]
    fn erlang_survival_is_valid(
        n in 1usize..40,
        t in 0.0f64..30.0,
    ) {
        use slb_core::delay_dist::erlang_survival;
        let s = erlang_survival(n, t);
        prop_assert!((0.0..=1.0).contains(&s));
        // More stages survive longer; later times survive less.
        prop_assert!(erlang_survival(n + 1, t) >= s - 1e-14);
        prop_assert!(erlang_survival(n, t + 0.5) <= s + 1e-14);
    }

    #[test]
    fn meanfield_flow_preserves_validity(
        lambda in 0.05f64..0.97,
        d in 1usize..5,
        steps in 1usize..60,
    ) {
        use slb_core::meanfield::MeanField;
        let mut mf = MeanField::new(lambda, d).unwrap();
        for _ in 0..steps {
            mf.step(0.1);
        }
        let s = mf.tail_fractions();
        let mut prev = 1.0f64;
        for &v in s {
            prop_assert!((0.0..=1.0).contains(&v));
            prop_assert!(v <= prev + 1e-9);
            prev = v;
        }
        // From an empty start the mass stays below equilibrium.
        let eq = slb_core::asymptotic::mean_delay(lambda, d) * lambda;
        prop_assert!(mf.mean_jobs_per_queue() <= eq + 1e-6);
    }

    #[test]
    fn brute_delay_distribution_mean_consistent(
        lambda in 0.2f64..0.75,
        d in 1usize..4,
    ) {
        use slb_core::brute::BruteForce;
        // Both estimators are exact on the untruncated chain; with a
        // finite cap they weight the dropped tail differently, so the
        // comparison runs at a cap where the residual mass (<= lambda^40)
        // is negligible relative to the tolerance.
        let bf = BruteForce::solve(3, d.min(3), lambda, 40).unwrap();
        let dist = bf.delay_distribution().unwrap();
        prop_assert!(
            (dist.mean() - bf.mean_delay()).abs() / bf.mean_delay() < 1e-3,
            "mixture {} vs Little {}", dist.mean(), bf.mean_delay()
        );
    }
}
