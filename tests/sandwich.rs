//! The paper's sandwich invariant, end to end and through both linear-
//! algebra paths.
//!
//! For every configuration the finite-regime bounds must bracket the
//! exact (truncated-chain) mean delay:
//!
//! ```text
//! lower_bound(T)  ≤  brute force  ≤  upper_bound(T)
//! ```
//!
//! The brute-force stationary vector is computed twice — once through the
//! dense GTH elimination and once through the one sparse stationary
//! solver (`slb_linalg::null_vector_gs` on the transposed CSR generator)
//! — and the two must agree to solver tolerance. This pins the sparse
//! solver to the dense ground truth.

use slb::core::{transitions, ModelVariant, State};
use slb::linalg::{null_vector_gs, CooBuilder, CsrMatrix, GsOptions, Matrix};
use slb::markov::gth_stationary;
use slb::Sqd;

/// All sorted states on `n` servers with longest queue ≤ `cap`.
fn enumerate_capped(n: usize, cap: u32) -> Vec<State> {
    fn rec(cur: &mut Vec<u32>, pos: usize, max: u32, out: &mut Vec<State>) {
        if pos == cur.len() {
            out.push(State::new(cur.clone()).expect("sorted by construction"));
            return;
        }
        for v in (0..=max).rev() {
            cur[pos] = v;
            rec(cur, pos + 1, v, out);
        }
    }
    let mut out = Vec::new();
    rec(&mut vec![0u32; n], 0, cap, &mut out);
    out
}

/// The truncated SQ(d) generator as `(dense, csr)`, built from one pass
/// over the transition function.
fn truncated_generator(
    n: usize,
    d: usize,
    lambda: f64,
    cap: u32,
) -> (Matrix, CsrMatrix, Vec<State>) {
    let states = enumerate_capped(n, cap);
    let index: std::collections::HashMap<&State, usize> =
        states.iter().enumerate().map(|(i, s)| (s, i)).collect();
    let mut dense = Matrix::zeros(states.len(), states.len());
    let mut coo = CooBuilder::new(states.len(), states.len());
    for (i, s) in states.iter().enumerate() {
        for tr in transitions(s, d, lambda, ModelVariant::Base) {
            if tr.target.level(0) > cap {
                continue; // truncation: drop arrivals past the cap
            }
            let j = index[&tr.target];
            if j == i {
                continue;
            }
            dense[(i, j)] += tr.rate;
            dense[(i, i)] -= tr.rate;
            coo.add(i, j, tr.rate).unwrap();
            coo.add(i, i, -tr.rate).unwrap();
        }
    }
    (dense, coo.build(), states)
}

fn mean_delay(states: &[State], pi: &[f64], n: usize, lambda: f64) -> f64 {
    let jobs: f64 = states
        .iter()
        .zip(pi)
        .map(|(s, &p)| p * f64::from(s.total()))
        .sum();
    jobs / (lambda * n as f64)
}

#[test]
fn sandwich_holds_via_dense_and_csr_paths() {
    let (n, d, t, cap) = (3usize, 2usize, 3u32, 25u32);
    for lambda in [0.5, 0.8] {
        let sqd = Sqd::new(n, d, lambda).unwrap();
        let lower = sqd.lower_bound(t).unwrap().delay;
        let upper = sqd.upper_bound(t).unwrap().delay;

        let (dense, csr, states) = truncated_generator(n, d, lambda, cap);
        assert!(
            csr.to_dense().approx_eq(&dense, 1e-14),
            "assembly paths differ"
        );

        // Dense path: GTH elimination on the explicit generator.
        let pi_dense = gth_stationary(&dense).unwrap();
        // Sparse path: the shared CSR kernel and the one sparse solver.
        let opts = GsOptions {
            tol: 1e-13,
            ..GsOptions::default()
        };
        let pi_csr = null_vector_gs(&csr.transpose(), &vec![1.0; states.len()], &opts)
            .unwrap()
            .x;
        for i in 0..pi_dense.len() {
            assert!(
                (pi_dense[i] - pi_csr[i]).abs() < 1e-8,
                "λ={lambda}: dense vs csr at {i}"
            );
        }

        for (path, pi) in [("dense", &pi_dense), ("csr", &pi_csr)] {
            let brute = mean_delay(&states, pi, n, lambda);
            assert!(
                lower <= brute + 1e-6,
                "λ={lambda} [{path}]: lower {lower} > brute {brute}"
            );
            assert!(
                brute <= upper + 1e-6,
                "λ={lambda} [{path}]: brute {brute} > upper {upper}"
            );
        }
    }
}

#[test]
fn sandwich_matches_library_brute_force() {
    // The library's brute-force solver against GTH on the hand-assembled
    // chain above, so the oracle stays independent of the solver under
    // test.
    let (n, d, cap) = (3usize, 2usize, 25u32);
    for lambda in [0.5, 0.8] {
        let bf = slb::core::brute::BruteForce::solve(n, d, lambda, cap).unwrap();
        let (dense, _, states) = truncated_generator(n, d, lambda, cap);
        let pi = gth_stationary(&dense).unwrap();
        let here = mean_delay(&states, &pi, n, lambda);
        assert!(
            (bf.mean_delay() - here).abs() < 1e-9,
            "λ={lambda}: {} vs {here}",
            bf.mean_delay()
        );
    }
}
