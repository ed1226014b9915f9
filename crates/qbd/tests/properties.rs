//! Property-based tests for the QBD solver on randomly generated
//! two-phase QBD processes.

use proptest::prelude::*;
use slb_linalg::{Budget, Matrix};
use slb_qbd::{functional_iteration, logarithmic_reduction, rate_matrix, QbdBlocks, Tail};

/// Random stable two-phase QBD (MMPP/M/1-flavoured): per-phase arrival
/// rates below the service rate, positive phase switching.
fn stable_two_phase() -> impl Strategy<Value = QbdBlocks> {
    (0.05f64..0.85, 0.05f64..0.85, 0.05f64..2.0).prop_map(|(l0, l1, r)| {
        let mu = 1.0;
        let a0 = Matrix::from_rows(&[&[l0, 0.0], &[0.0, l1]]).unwrap();
        let a2 = Matrix::from_rows(&[&[mu, 0.0], &[0.0, mu]]).unwrap();
        let a1 = Matrix::from_rows(&[&[-(l0 + mu + r), r], &[r, -(l1 + mu + r)]]).unwrap();
        let r00 = Matrix::from_rows(&[&[-(l0 + r), r], &[r, -(l1 + r)]]).unwrap();
        let r01 = a0.clone();
        let r10 = a2.clone();
        QbdBlocks::new(r00, r01, r10, a0, a1, a2).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn g_satisfies_quadratic_and_is_stochastic(b in stable_two_phase()) {
        let g = logarithmic_reduction(&b, 1e-14, 64).unwrap();
        prop_assert!(g.residual < 1e-10, "residual {}", g.residual);
        // Stable QBD ⇒ G stochastic.
        for r in 0..2 {
            let s: f64 = g.g.row(r).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-8, "row sum {s}");
        }
    }

    #[test]
    fn logred_agrees_with_functional_iteration(b in stable_two_phase()) {
        let g1 = logarithmic_reduction(&b, 1e-14, 64).unwrap();
        let g2 = functional_iteration(&b, 1e-12, 500_000, &Budget::unlimited()).unwrap();
        prop_assert!(g1.g.approx_eq(&g2.g, 1e-8));
    }

    #[test]
    fn r_is_nonnegative_with_subunit_radius(b in stable_two_phase()) {
        let g = logarithmic_reduction(&b, 1e-14, 64).unwrap();
        let r = rate_matrix(&b, &g.g).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                prop_assert!(r[(i, j)] >= -1e-12, "negative R entry {}", r[(i, j)]);
            }
        }
        let p = slb_linalg::power_iteration(&r, 1e-12, 100_000).unwrap();
        prop_assert!(p.eigenvalue < 1.0 - 1e-9, "sp(R) = {}", p.eigenvalue);
    }

    #[test]
    fn solution_is_a_distribution_matching_truncation(b in stable_two_phase()) {
        let sol = b.solve().unwrap();
        prop_assert!((sol.total_mass() - 1.0).abs() < 1e-8);
        prop_assert!(sol.residual() < 1e-8);

        // Compare against brute-force truncation at 80 levels.
        let q = b.truncated_generator(80);
        let pi = slb_markov::gth_stationary(&q).unwrap();
        for (b, p) in sol.boundary().iter().zip(&pi) {
            prop_assert!((b - p).abs() < 1e-6);
        }
        for lvl in 0..4 {
            let lp = sol.level_prob(lvl);
            for i in 0..2 {
                let truth = pi[2 + lvl * 2 + i];
                prop_assert!((lp[i] - truth).abs() < 1e-6,
                    "level {lvl} phase {i}: {} vs {}", lp[i], truth);
            }
        }
    }

    #[test]
    fn mean_cost_matches_truncated_sum(b in stable_two_phase()) {
        let sol = b.solve().unwrap();
        // Cost = level index (number of "jobs"): boundary 0, level q -> q+1.
        let mean = sol.mean_linear_cost(&[0.0, 0.0], &[1.0, 1.0], &[1.0, 1.0]);

        // Direct summation over many levels.
        let mut direct = 0.0;
        for q in 0..400 {
            let lp = sol.level_prob(q);
            direct += (q as f64 + 1.0) * (lp[0] + lp[1]);
        }
        prop_assert!((mean - direct).abs() < 1e-6, "{mean} vs {direct}");
    }

    #[test]
    fn matrix_tail_consistency(b in stable_two_phase()) {
        let sol = b.solve().unwrap();
        // π_{q+1} = π_q · R must hold for generated levels.
        if let Tail::Matrix(r) = sol.tail() {
            let p3 = sol.level_prob(3);
            let p4 = sol.level_prob(4);
            let expect = r.vec_mat(&p3);
            for (a, e) in p4.iter().zip(&expect) {
                prop_assert!((a - e).abs() < 1e-12);
            }
        } else {
            prop_assert!(false, "full solve must produce a matrix tail");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_g_algorithms_agree_on_random_qbds(b in stable_two_phase()) {
        use slb_qbd::{cyclic_reduction, logarithmic_reduction, u_based_iteration};
        let lr = logarithmic_reduction(&b, 1e-14, 64).unwrap();
        let cr = cyclic_reduction(&b, 1e-13, 64).unwrap();
        let ub = u_based_iteration(&b, 1e-13, 200_000).unwrap();
        prop_assert!(lr.g.approx_eq(&cr.g, 1e-8), "CR disagrees");
        prop_assert!(lr.g.approx_eq(&ub.g, 1e-7), "U-based disagrees");
        // All stable chains give stochastic G.
        for r in 0..lr.g.rows() {
            let s: f64 = lr.g.row(r).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-8, "row {r} sums to {s}");
        }
    }

    #[test]
    fn decay_rate_matches_observed_level_ratio(b in stable_two_phase()) {
        use slb_qbd::decay_rate;
        let eta = decay_rate(&b, 1e-14, 64).unwrap();
        prop_assert!(eta > 0.0 && eta < 1.0, "eta = {eta}");
        let sol = b.solve().unwrap();
        // Deep in the tail, successive level masses contract by sp(R).
        let m20 = sol.level_mass(20);
        let m21 = sol.level_mass(21);
        prop_assume!(m20 > 1e-250);
        prop_assert!(
            (m21 / m20 - eta).abs() < 1e-3 * eta.max(1e-6),
            "ratio {} vs eta {eta}", m21 / m20
        );
    }
}
