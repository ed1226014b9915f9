//! Cross-crate integration tests: the scientific claims of the paper,
//! checked end-to-end across `slb-core`, `slb-qbd`, `slb-markov` and
//! `slb-sim`.

use slb::core::brute::BruteForce;
use slb::core::occupancy::occupancy_to_state;
use slb::core::precedence::verify_redirects;
use slb::core::{ModelVariant, OccupancySpace, State};
use slb::qbd::Tail;
use slb::{BoundKind, BoundModel, Policy, SimConfig, Sqd};

/// The central sandwich property, against the brute-force oracle:
/// `lower ≤ exact ≤ upper` across (N, d, λ, T).
#[test]
fn bounds_bracket_exact_solution() {
    let grid = [
        (2usize, 2usize, 0.30f64, 2u32),
        (2, 2, 0.70, 2),
        (3, 2, 0.50, 2),
        (3, 2, 0.80, 3),
        (3, 3, 0.60, 2),
        (4, 2, 0.60, 2),
        (4, 4, 0.70, 3),
        (4, 3, 0.40, 2),
    ];
    for (n, d, lam, t) in grid {
        let exact = BruteForce::solve(n, d, lam, 34).unwrap();
        assert!(exact.truncation_mass() < 1e-8, "raise the cap for λ={lam}");
        let exact = exact.mean_delay();
        let sqd = Sqd::new(n, d, lam).unwrap();
        let lb = sqd.lower_bound(t).unwrap().delay;
        let ub = sqd.upper_bound(t).unwrap().delay;
        assert!(
            lb <= exact + 1e-6,
            "N={n} d={d} λ={lam} T={t}: LB {lb} > exact {exact}"
        );
        assert!(
            exact <= ub + 1e-6,
            "N={n} d={d} λ={lam} T={t}: exact {exact} > UB {ub}"
        );
    }
}

/// The bounds must also sandwich an *independent* estimate of the truth:
/// the discrete-event simulator (which shares no code path with the QBD
/// solver beyond arithmetic).
#[test]
fn bounds_bracket_simulation() {
    for (n, d, lam, t) in [
        (3usize, 2usize, 0.7f64, 3u32),
        (6, 2, 0.8, 3),
        (5, 3, 0.75, 3),
    ] {
        let sqd = Sqd::new(n, d, lam).unwrap();
        let lb = sqd.lower_bound(t).unwrap().delay;
        let ub = sqd.upper_bound(t).unwrap().delay;
        // The 1.5M-job budget runs as four parallel replications with
        // merged statistics — same estimand, wall-clock divided by the
        // available cores, deterministic in the thread count.
        let sim = SimConfig::new(n, lam)
            .unwrap()
            .policy(Policy::SqD { d })
            .jobs(375_000)
            .warmup(37_500)
            .seed(0xACC)
            .run_parallel(4, 4)
            .unwrap();
        let slack = 4.0 * sim.ci_halfwidth + 1e-3;
        assert!(
            lb <= sim.mean_delay + slack,
            "N={n} d={d} λ={lam}: LB {lb} > sim {} ± {}",
            sim.mean_delay,
            sim.ci_halfwidth
        );
        assert!(
            sim.mean_delay <= ub + slack,
            "N={n} d={d} λ={lam}: sim {} > UB {ub}",
            sim.mean_delay
        );
    }
}

/// Paper §V: the lower bound is "remarkably tight" — within a few percent
/// of the simulated truth across the Fig. 10 configurations.
#[test]
fn lower_bound_tightness() {
    for (n, t) in [(3usize, 2u32), (3, 3), (6, 3), (12, 3)] {
        for lam in [0.5, 0.7, 0.9] {
            let sqd = Sqd::new(n, 2, lam).unwrap();
            let lb = sqd.lower_bound(t).unwrap().delay;
            let sim = SimConfig::new(n, lam)
                .unwrap()
                .policy(Policy::SqD { d: 2 })
                .jobs(1_000_000)
                .warmup(100_000)
                .seed(0x717)
                .run()
                .unwrap();
            let gap = (sim.mean_delay - lb) / sim.mean_delay;
            // Measured gaps (see EXPERIMENTS.md): ≤ 8% up to λ = 0.7,
            // ≤ 13% at λ = 0.9 for N ≤ 6, and ~18–20% at (N = 12,
            // λ = 0.9) where imbalance regularly exceeds T = 3 (the exact
            // figure moves with the simulator's PRNG stream; the vendored
            // offline `rand` measures 20.0%). The guards below are
            // regression bounds just above those measurements.
            let guard = if lam > 0.8 && n >= 12 { 0.22 } else { 0.15 };
            assert!(
                gap < guard,
                "N={n} T={t} λ={lam}: LB gap {:.1}% too large ({lb} vs {})",
                gap * 100.0,
                sim.mean_delay
            );
            assert!(gap > -0.02, "LB must not exceed the simulation");
        }
    }
}

/// Theorem 3, checked at the QBD level. Three graded facts (see
/// DESIGN.md §4 and EXPERIMENTS.md):
///
/// 1. the *mass* of consecutive repeating levels decays by exactly `ρᴺ`
///    for every configuration (the birth–death cut argument on the total
///    job count is exact);
/// 2. for `d = N` (JSQ, the case proved by Adan et al.) the full *vector*
///    relation `π_{q+1} = ρᴺ π_q` holds to machine precision;
/// 3. for `d < N` our reconstructed lower-bound model satisfies the
///    vector relation approximately (≤ 1e-3 relative), and the resulting
///    scalar-tail delay agrees with the full matrix-geometric delay to
///    better than 1e-6 relative.
#[test]
fn theorem3_scalar_tail_is_rho_to_the_n() {
    for (n, d, lam, t) in [
        (3usize, 2usize, 0.6f64, 2u32),
        (4, 2, 0.8, 3),
        (3, 3, 0.7, 2),
        (4, 4, 0.8, 3),
        (3, 2, 0.9, 3),
    ] {
        let sqd = Sqd::new(n, d, lam).unwrap();
        let model = BoundModel::new(sqd, BoundKind::Lower, t).unwrap();
        let blocks = model.qbd_blocks().unwrap();
        let sol = blocks.solve().unwrap();
        let rho_n = lam.powi(n as i32);
        assert!(matches!(sol.tail(), Tail::Matrix(_)));

        // (1) exact mass decay.
        let mass_ratio = sol.level_mass(2) / sol.level_mass(1);
        assert!(
            (mass_ratio - rho_n).abs() < 1e-10,
            "N={n} d={d} λ={lam}: mass ratio {mass_ratio} vs ρᴺ {rho_n}"
        );

        // (2)/(3) vector relation: exact at d = N, tight otherwise.
        let p1 = sol.level_prob(1);
        let p2 = sol.level_prob(2);
        let tol = if d == n { 1e-12 } else { 2e-3 };
        for i in 0..p1.len() {
            if p1[i] > 1e-12 {
                let ratio = p2[i] / p1[i];
                assert!(
                    (ratio / rho_n - 1.0).abs() < tol,
                    "N={n} d={d} λ={lam}: entry ratio {ratio} vs ρᴺ {rho_n}"
                );
            }
        }

        // (3) delay agreement between the two solve paths.
        let fast = sqd.lower_bound(t).unwrap().delay;
        let full = sqd.lower_bound_full_r(t).unwrap().delay;
        assert!(
            ((fast - full) / full).abs() < 1e-6,
            "N={n} d={d} λ={lam}: scalar {fast} vs full {full}"
        );
    }
}

/// The d = 1 special case: SQ(1) is N independent M/M/1 queues, so the
/// exact delay is 1/(1−λ) and the bounds must bracket it.
#[test]
fn d1_brackets_mm1() {
    // Random routing leaves queues maximally unbalanced, so the upper
    // (blocking) model saturates early: at T = 4 it is stable only up to
    // moderate loads. The lower bound holds at any λ < 1.
    for lam in [0.4, 0.6] {
        let exact = 1.0 / (1.0 - lam);
        let sqd = Sqd::new(3, 1, lam).unwrap();
        let lb = sqd.lower_bound(4).unwrap().delay;
        let ub = sqd.upper_bound(4).unwrap().delay;
        assert!(
            lb <= exact + 1e-9 && exact <= ub + 1e-9,
            "λ={lam}: {lb} ≤ {exact} ≤ {ub} violated"
        );
    }
    let sqd = Sqd::new(3, 1, 0.8).unwrap();
    let lb = sqd.lower_bound(4).unwrap().delay;
    assert!(lb <= 5.0 + 1e-9, "LB {lb} above M/M/1 delay 5");
    // And the d = 1 upper model indeed loses stability at T = 4, λ = 0.8.
    assert!(matches!(
        sqd.upper_bound(4),
        Err(slb::CoreError::UpperBoundUnstable { .. })
    ));
}

/// The d = N special case (JSQ): cross-check the bound models against
/// brute force and the simulator simultaneously.
#[test]
fn jsq_case_consistent() {
    let (n, lam, t) = (3usize, 0.75f64, 3u32);
    let sqd = Sqd::new(n, n, lam).unwrap();
    let lb = sqd.lower_bound(t).unwrap().delay;
    let ub = sqd.upper_bound(t).unwrap().delay;
    let exact = BruteForce::solve(n, n, lam, 32).unwrap().mean_delay();
    let sim = SimConfig::new(n, lam)
        .unwrap()
        .policy(Policy::Jsq)
        .jobs(1_000_000)
        .warmup(100_000)
        .seed(0x15)
        .run()
        .unwrap();
    assert!(lb <= exact + 1e-6 && exact <= ub + 1e-6);
    assert!((sim.mean_delay - exact).abs() < 5.0 * sim.ci_halfwidth + 1e-3);
    // For JSQ the threshold truncation is extremely tight: arrivals never
    // increase imbalance, so both bounds almost coincide with the truth.
    assert!(
        (ub - lb) / exact < 0.05,
        "JSQ bounds should nearly touch: {lb} vs {ub}"
    );
}

/// Monotonicity in d of the true system (power of d choices), reproduced
/// by brute force, and reflected in the lower bounds.
#[test]
fn more_choices_less_delay() {
    let (n, lam) = (4usize, 0.7f64);
    let mut prev_exact = f64::INFINITY;
    for d in 1..=n {
        let exact = BruteForce::solve(n, d, lam, 30).unwrap().mean_delay();
        assert!(exact < prev_exact, "d={d}: {exact} !< {prev_exact}");
        prev_exact = exact;
    }
    let lb2 = Sqd::new(n, 2, lam).unwrap().lower_bound(3).unwrap().delay;
    let lb4 = Sqd::new(n, 4, lam).unwrap().lower_bound(3).unwrap().delay;
    assert!(lb4 < lb2);
}

/// Redirect soundness on every Fig. 10 configuration, at scale (full
/// boundary + first two repeating blocks).
#[test]
fn redirects_sound_across_evaluation_grid() {
    for (n, t) in [(3usize, 2u32), (3, 3), (6, 3)] {
        let space = OccupancySpace::new(n, t, &slb::linalg::Budget::unlimited()).unwrap();
        let template = |i| space.block0_state(i).to_vec();
        let one_up = |i| {
            let mut occ = template(i);
            occ[0] += 1;
            occ
        };
        let states: Vec<State> = (0..space.boundary_len())
            .map(|i| space.boundary_state(i).to_vec())
            .chain((0..space.block_len()).map(template))
            .chain((0..space.block_len()).map(one_up))
            .map(|occ| occupancy_to_state(&occ))
            .collect();
        for d in [1usize, 2, n] {
            for variant in [
                ModelVariant::Lower { threshold: t },
                ModelVariant::Upper { threshold: t },
            ] {
                let violations = verify_redirects(states.iter(), d, 0.9, variant);
                assert!(
                    violations.is_empty(),
                    "N={n} T={t} d={d} {variant:?}: {violations:?}"
                );
            }
        }
    }
}

/// Cross-layer MAP validation: an MMPP/M/1 queue simulated with the
/// event-driven engine must match the exact matrix-geometric solution of
/// the same queue — the two paths share no code beyond `slb-linalg`.
#[test]
fn mmpp_m1_simulation_matches_qbd() {
    use slb::markov::Map;
    use slb::qbd::models;

    let map = Map::mmpp2(0.4, 0.6, 0.3, 1.2).unwrap();
    let mu = 1.0;
    let lam = map.rate().unwrap();
    assert!(lam < mu, "test premise: stable queue");

    let exact = models::map_m1_mean_sojourn(&map, mu).unwrap();

    // Simulate: N = 1, arrival MAP rescaled to λ·1 = λ (same rate).
    let sim = SimConfig::new(1, lam)
        .unwrap()
        .policy(Policy::Random)
        .arrival_map(map)
        .jobs(2_000_000)
        .warmup(200_000)
        .seed(0x3A9)
        .run()
        .unwrap();
    assert!(
        (sim.mean_delay - exact).abs() < 5.0 * sim.ci_halfwidth.max(0.01),
        "simulated {} ± {} vs exact {exact}",
        sim.mean_delay,
        sim.ci_halfwidth
    );
    // And the MMPP queue really is worse than M/M/1 at the same rate.
    assert!(exact > 1.0 / (1.0 - lam));
}

/// Level-independence (Lemma 1): the `(A2, A1, A0)` blocks read off the
/// occupancy generator at repeating levels 0–3 coincide with each other
/// and with the assembled QBD blocks, so the QBD representation is exact.
#[test]
fn qbd_regularity_between_deeper_levels() {
    use slb::core::occupancy::{for_each_transition, TransitionScratch};
    use slb::core::{OccLocation, PollMode};
    use slb::linalg::Matrix;

    for (n, d, lam, t, mode) in [
        (3usize, 2usize, 0.8f64, 2u32, PollMode::WithoutReplacement),
        (4, 2, 0.7, 3, PollMode::WithoutReplacement),
        (5, 5, 0.6, 2, PollMode::WithoutReplacement),
        (4, 5, 0.7, 2, PollMode::WithReplacement),
    ] {
        let sqd = Sqd::new_with_mode(n, d, lam, mode).unwrap();
        for kind in [BoundKind::Lower, BoundKind::Upper] {
            let model = BoundModel::new(sqd, kind, t).unwrap();
            let blocks = model.qbd_blocks().unwrap();
            let space = model.space();
            let m = space.block_len();
            let mut scratch = TransitionScratch::new(space.stride());
            // For source level q, classify each transition target by its
            // level relative to the source and record the rate at the
            // target's within-block index; the diagonal carries −outflow.
            let mut block_matrices = |q_from: usize| -> (Matrix, Matrix, Matrix) {
                let mut down = Matrix::zeros(m, m);
                let mut stay = Matrix::zeros(m, m);
                let mut up = Matrix::zeros(m, m);
                for i in 0..m {
                    let mut occ = space.block0_state(i).to_vec();
                    occ[0] += q_from as u32;
                    let mut outflow = 0.0;
                    for_each_transition(&occ, n, d, lam, kind, mode, &mut scratch, |tgt, rate| {
                        outflow += rate;
                        let (q_to, j) = match space.locate(tgt) {
                            Some(OccLocation::Level { q, index }) => (q as i64, index),
                            // Level 0 drains into the boundary (R10).
                            Some(OccLocation::Boundary(_)) if q_from == 0 => return,
                            other => panic!("target {tgt:?} located at {other:?}"),
                        };
                        match q_to - q_from as i64 {
                            -1 => down[(i, j)] += rate,
                            0 => stay[(i, j)] += rate,
                            1 => up[(i, j)] += rate,
                            other => panic!("level jump {other}"),
                        }
                    });
                    stay[(i, i)] -= outflow;
                }
                (down, stay, up)
            };
            let label = format!("N={n} d={d} T={t} {mode:?} {kind:?}");
            for q in 0..4 {
                let (down, stay, up) = block_matrices(q);
                assert!(
                    stay.approx_eq(blocks.a1(), 1e-12),
                    "{label}: A1 at level {q}"
                );
                assert!(up.approx_eq(blocks.a0(), 1e-12), "{label}: A0 at level {q}");
                if q >= 1 {
                    assert!(
                        down.approx_eq(blocks.a2(), 1e-12),
                        "{label}: A2 at level {q}"
                    );
                }
            }
        }
    }
}
