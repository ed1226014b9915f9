//! Property-based tests for the Markov-chain toolkit.

use proptest::prelude::*;
use slb_linalg::Matrix;
use slb_linalg::{null_vector_gs, CsrMatrix, GsOptions};
use slb_markov::{birth_death, gth_stationary, Ctmc};

/// Random irreducible generator: every off-diagonal rate positive.
fn irreducible_generator(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(0.05f64..3.0, n * n).prop_map(move |vals| {
        let mut q = Matrix::from_vec(n, n, vals).unwrap();
        for i in 0..n {
            q[(i, i)] = 0.0;
            let s: f64 = (0..n).map(|j| q[(i, j)]).sum();
            q[(i, i)] = -s;
        }
        q
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gth_produces_stationary_distribution(
        q in (2usize..10).prop_flat_map(irreducible_generator)
    ) {
        let pi = gth_stationary(&q).unwrap();
        // Distribution.
        prop_assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        prop_assert!(pi.iter().all(|&p| p > 0.0));
        // Balance: ‖π·Q‖∞ ≈ 0 relative to rate scale.
        let r = q.vec_mat(&pi);
        let scale = q.max_abs();
        for v in r {
            prop_assert!(v.abs() < 1e-12 * scale.max(1.0), "residual {v}");
        }
    }

    #[test]
    fn ctmc_stationary_invariant_under_time_rescaling(
        q in (2usize..8).prop_flat_map(irreducible_generator),
        s in 0.1f64..10.0,
    ) {
        let c1 = Ctmc::from_generator(q.clone()).unwrap();
        let c2 = Ctmc::from_generator(q.scale(s)).unwrap();
        let p1 = c1.stationary().unwrap();
        let p2 = c2.stationary().unwrap();
        for (a, b) in p1.iter().zip(&p2) {
            prop_assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn uniformization_preserves_stationary(
        q in (2usize..8).prop_flat_map(irreducible_generator)
    ) {
        let c = Ctmc::from_generator(q).unwrap();
        let d = c.uniformized_dtmc().unwrap();
        let pc = c.stationary().unwrap();
        let pd = d.stationary().unwrap();
        for (a, b) in pc.iter().zip(&pd) {
            prop_assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn transient_rows_remain_distributions(
        q in (2usize..6).prop_flat_map(irreducible_generator),
        t in 0.0f64..5.0,
    ) {
        let c = Ctmc::from_generator(q).unwrap();
        let n = c.n();
        for start in 0..n {
            let mut init = vec![0.0; n];
            init[start] = 1.0;
            let p = c.transient(&init, t).unwrap();
            prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(p.iter().all(|&x| x >= -1e-12));
        }
    }

    #[test]
    fn sparse_and_dense_agree(
        q in (2usize..8).prop_flat_map(irreducible_generator)
    ) {
        // The one sparse stationary solver against the direct GTH oracle.
        let n = q.rows();
        let qt = CsrMatrix::from_dense(&q.transpose(), 0.0);
        let opts = GsOptions { tol: 1e-13, ..GsOptions::default() };
        let sol = null_vector_gs(&qt, &vec![1.0; n], &opts).unwrap();
        let dense = gth_stationary(&q).unwrap();
        for (a, b) in dense.iter().zip(&sol.x) {
            prop_assert!((a - b).abs() < 1e-7, "{dense:?} vs {:?}", sol.x);
        }
        let residual: f64 = q.vec_mat(&sol.x).iter().map(|x| x.abs()).sum();
        prop_assert!(residual < 1e-7);
    }

    #[test]
    fn birth_death_matches_gth(
        rates in prop::collection::vec((0.1f64..2.0, 0.1f64..2.0), 1..12)
    ) {
        let lambda: Vec<f64> = rates.iter().map(|r| r.0).collect();
        let mu: Vec<f64> = rates.iter().map(|r| r.1).collect();
        let pi_bd = birth_death::stationary(&lambda, &mu).unwrap();

        let n = lambda.len() + 1;
        let mut q = Matrix::zeros(n, n);
        for i in 0..n - 1 {
            q[(i, i + 1)] = lambda[i];
            q[(i + 1, i)] = mu[i];
        }
        for i in 0..n {
            let s: f64 = (0..n).filter(|&j| j != i).map(|j| q[(i, j)]).sum();
            q[(i, i)] = -s;
        }
        let pi_gth = gth_stationary(&q).unwrap();
        for (a, b) in pi_bd.iter().zip(&pi_gth) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn dtmc_stationary_fixed_point(
        q in (2usize..8).prop_flat_map(irreducible_generator)
    ) {
        let d = Ctmc::from_generator(q).unwrap().uniformized_dtmc().unwrap();
        let pi = d.stationary().unwrap();
        let next = d.matrix().vec_mat(&pi);
        for (a, b) in pi.iter().zip(&next) {
            prop_assert!((a - b).abs() < 1e-11);
        }
        // step_n from the stationary vector stays put.
        let far = d.step_n(&pi, 17).unwrap();
        for (a, b) in pi.iter().zip(&far) {
            prop_assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn erlang_c_monotone_in_load(c in 1usize..20, split in 0.05f64..0.95) {
        let a1 = split * c as f64 * 0.5;
        let a2 = split * c as f64;
        let p1 = birth_death::erlang_c(c, a1);
        let p2 = birth_death::erlang_c(c, a2);
        prop_assert!(p1 <= p2 + 1e-12, "Erlang C must increase with load");
        prop_assert!((0.0..=1.0).contains(&p1));
        prop_assert!((0.0..=1.0).contains(&p2));
    }
}

#[test]
fn dtmc_from_ctmc_example_sizes() {
    // Deterministic smoke check used as an anchor for the proptests above.
    let c = Ctmc::from_rates(&[
        vec![0.0, 1.0, 0.0],
        vec![0.5, 0.0, 0.5],
        vec![0.0, 2.0, 0.0],
    ])
    .unwrap();
    let pi = c.stationary().unwrap();
    assert_eq!(pi.len(), 3);
    let d = c.uniformized_dtmc().unwrap();
    assert_eq!(d.n(), 3);
}

mod phase_type_and_map {
    use proptest::prelude::*;
    use slb_markov::{Map, PhaseType};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn erlang_moments_closed_form(k in 1usize..8, rate in 0.2f64..5.0) {
            let ph = PhaseType::erlang(k, rate).unwrap();
            let mean = k as f64 / rate;
            prop_assert!((ph.mean().unwrap() - mean).abs() < 1e-10 * mean.max(1.0));
            prop_assert!((ph.scv().unwrap() - 1.0 / k as f64).abs() < 1e-9);
            // E[X²] = k(k+1)/rate².
            let m2 = k as f64 * (k as f64 + 1.0) / (rate * rate);
            prop_assert!((ph.moment(2).unwrap() - m2).abs() < 1e-8 * m2.max(1.0));
        }

        #[test]
        fn ph_lst_is_completely_monotone_at_grid(
            k in 1usize..5,
            rate in 0.5f64..3.0,
        ) {
            // A*(0) = 1; decreasing in s; bounded in (0, 1].
            let ph = PhaseType::erlang(k, rate).unwrap();
            prop_assert!((ph.lst(0.0).unwrap() - 1.0).abs() < 1e-12);
            let mut prev = 1.0;
            for i in 1..20 {
                let s = i as f64 * 0.3;
                let v = ph.lst(s).unwrap();
                prop_assert!(v > 0.0 && v < prev + 1e-12);
                prev = v;
            }
        }

        #[test]
        fn ph_cdf_mean_consistency(k in 1usize..4, rate in 0.5f64..3.0) {
            // E[X] = ∫ (1 − F(t)) dt, checked by trapezoid quadrature.
            let ph = PhaseType::erlang(k, rate).unwrap();
            let mean = ph.mean().unwrap();
            let horizon = mean * 20.0;
            let steps = 4000;
            let h = horizon / steps as f64;
            let mut integral = 0.0;
            let mut prev_s = 1.0 - ph.cdf(0.0).unwrap();
            for i in 1..=steps {
                let s = 1.0 - ph.cdf(i as f64 * h).unwrap();
                integral += 0.5 * (prev_s + s) * h;
                prev_s = s;
            }
            prop_assert!((integral - mean).abs() < 0.01 * mean, "{integral} vs {mean}");
        }

        #[test]
        fn mmpp_identities(
            r01 in 0.05f64..3.0,
            r10 in 0.05f64..3.0,
            lam0 in 0.0f64..1.0,
            extra in 0.05f64..3.0,
        ) {
            let lam1 = lam0 + extra;
            let map = Map::mmpp2(r01, r10, lam0, lam1).unwrap();
            // Fundamental rate is the phase-weighted mean of the rates.
            let pi = map.phase_stationary().unwrap();
            let expect = pi[0] * lam0 + pi[1] * lam1;
            prop_assert!((map.rate().unwrap() - expect).abs() < 1e-10);
            // E[A] = 1/λ for every MAP.
            let m1 = map.interarrival_moment(1).unwrap();
            prop_assert!((m1 - 1.0 / expect).abs() < 1e-9 / expect);
            // MMPPs are at least as variable as Poisson.
            prop_assert!(map.interarrival_scv().unwrap() > 1.0 - 1e-9);
        }

        #[test]
        fn ph_interarrival_as_degenerate_map(rate in 0.2f64..4.0) {
            // MAP with D1 = rate·(e·α) and PH-exponential interarrivals:
            // for one phase this is Poisson, and moments must agree with
            // the PH representation of the exponential.
            let map = Map::poisson(rate).unwrap();
            let ph = PhaseType::exponential(rate).unwrap();
            for k in 1..4u32 {
                let a = map.interarrival_moment(k).unwrap();
                let b = ph.moment(k).unwrap();
                prop_assert!((a - b).abs() < 1e-10 * b.max(1.0));
            }
        }
    }
}
