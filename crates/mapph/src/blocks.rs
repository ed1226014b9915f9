//! QBD block assembly for the MAP-modulated SQ(d) bound models.
//!
//! The chain lives on pairs `(m, h)` of a macro-state `m` of the
//! threshold-truncated space ([`OccupancySpace`], the same state space
//! as the Poisson bound models) and an arrival phase `h ∈ {0, …, p−1}`:
//!
//! * **phase-only** transitions at rate `D0[h→h']` leave `m` unchanged;
//! * **arrival** transitions at rate `D1[h→h']·p_g(m)` add a job to tie
//!   group `g` (with the paper's redirect rules at the threshold) and move
//!   the phase to `h'`, where `p_g(m)` is the SQ(d) join probability of
//!   group `g`;
//! * **departure** transitions keep the phase and remove a job exactly as
//!   in the Poisson model (blocked in the upper model at the threshold).
//!
//! The queue moves come from the bound models' one transition generator,
//! [`for_each_transition`]. Because `p_g` and the service rates depend
//! only on the *shape* of `m`, Lemma 1 of the paper (level regularity
//! above the boundary) survives the phase modulation verbatim and the
//! product chain is again a QBD whose repeating blocks have
//! `C(N+T−1, T)·p` states. Product states are indexed phase-minor:
//! `(macro-state i, phase h) ↦ i·p + h`.

use slb_core::occupancy::{for_each_transition, TransitionScratch};
use slb_core::{BoundKind, OccLocation, OccupancySpace, PollMode};
use slb_linalg::Matrix;
use slb_markov::Map;
use slb_qbd::QbdBlocks;

use crate::Result;

/// One outgoing transition of the product chain.
#[derive(Debug, Clone)]
struct ProductTransition {
    target: Vec<u32>,
    phase: usize,
    rate: f64,
}

/// Enumerates the outgoing transitions of product state `(occ, h)`.
///
/// Calls the core transition generator with per-server rate `1/N` so the
/// *total* arrival weight is 1 and each arrival entry carries exactly the
/// join probability `p_g`; arrivals are recognized by a growing job count.
fn product_transitions(
    space: &OccupancySpace,
    occ: &[u32],
    h: usize,
    map: &Map,
    d: usize,
    kind: BoundKind,
    mode: PollMode,
) -> Vec<ProductTransition> {
    let p = map.phases();
    let d0 = map.d0();
    let d1 = map.d1();
    let mut out = Vec::new();

    // Phase changes without an arrival.
    for h2 in 0..p {
        if h2 != h && d0[(h, h2)] > 0.0 {
            out.push(ProductTransition {
                target: occ.to_vec(),
                phase: h2,
                rate: d0[(h, h2)],
            });
        }
    }

    let n = space.n();
    let total = space.total(occ);
    let probe = 1.0 / n as f64; // λN = 1 ⇒ arrival rates are p_g
    let mut scratch = TransitionScratch::new(occ.len());
    for_each_transition(
        occ,
        n,
        d,
        probe,
        kind,
        mode,
        &mut scratch,
        |target, rate| {
            if space.total(target) > total {
                // Arrival: join probability p_g, modulated by D1.
                for h2 in 0..p {
                    let r = d1[(h, h2)] * rate;
                    if r > 0.0 {
                        out.push(ProductTransition {
                            target: target.to_vec(),
                            phase: h2,
                            rate: r,
                        });
                    }
                }
            } else {
                // Departure: service is exponential and phase-blind.
                out.push(ProductTransition {
                    target: target.to_vec(),
                    phase: h,
                    rate,
                });
            }
        },
    );
    out
}

/// Assembles the six product-space QBD blocks of a MAP-modulated bound
/// model.
///
/// # Errors
///
/// Propagates block validation failures (which would indicate a bug in
/// the transition rules, not bad input).
pub(crate) fn assemble(
    space: &OccupancySpace,
    map: &Map,
    d: usize,
    kind: BoundKind,
    mode: PollMode,
) -> Result<QbdBlocks> {
    let p = map.phases();
    let nb = space.boundary_len() * p;
    let m = space.block_len() * p;

    let mut r00 = Matrix::zeros(nb, nb);
    let mut r01 = Matrix::zeros(nb, m);
    let mut r10 = Matrix::zeros(m, nb);
    let mut a0 = Matrix::zeros(m, m);
    let mut a1 = Matrix::zeros(m, m);
    let mut a2 = Matrix::zeros(m, m);

    // Product-space location of `(occ, h)`.
    let locate = |occ: &[u32], h: usize| -> OccLocation {
        match space.locate(occ) {
            Some(OccLocation::Boundary(j)) => OccLocation::Boundary(j * p + h),
            Some(OccLocation::Level { q, index }) => OccLocation::Level {
                q,
                index: index * p + h,
            },
            None => unreachable!("bound-model transition leaves S_T: {occ:?}"),
        }
    };
    let transitions = |occ: &[u32], h| product_transitions(space, occ, h, map, d, kind, mode);

    // Boundary rows.
    for i in 0..space.boundary_len() {
        for h in 0..p {
            let row = i * p + h;
            let mut outflow = 0.0;
            for tr in transitions(space.boundary_state(i), h) {
                outflow += tr.rate;
                match locate(&tr.target, tr.phase) {
                    OccLocation::Boundary(j) => r00[(row, j)] += tr.rate,
                    OccLocation::Level { q: 0, index: j } => r01[(row, j)] += tr.rate,
                    other => unreachable!("boundary row lands at {other:?}"),
                }
            }
            r00[(row, row)] -= outflow;
        }
    }

    // Level-0 rows give R10, A1 (diagonal included) and A0.
    for i in 0..space.block_len() {
        for h in 0..p {
            let row = i * p + h;
            let mut outflow = 0.0;
            for tr in transitions(space.block0_state(i), h) {
                outflow += tr.rate;
                match locate(&tr.target, tr.phase) {
                    OccLocation::Boundary(j) => r10[(row, j)] += tr.rate,
                    OccLocation::Level { q: 0, index: j } => a1[(row, j)] += tr.rate,
                    OccLocation::Level { q: 1, index: j } => a0[(row, j)] += tr.rate,
                    other => unreachable!("level-0 row lands at {other:?}"),
                }
            }
            a1[(row, row)] -= outflow;
        }
    }

    // Level-1 rows give A2; regularity (Lemma 1 under modulation) makes
    // the A1/A0 they induce identical to the level-0 extraction, which the
    // QbdBlocks row-sum validation cross-checks.
    let mut up = vec![0u32; space.stride()];
    for i in 0..space.block_len() {
        up.copy_from_slice(space.block0_state(i));
        up[0] += 1;
        for h in 0..p {
            let row = i * p + h;
            for tr in transitions(&up, h) {
                if let OccLocation::Level { q: 0, index: j } = locate(&tr.target, tr.phase) {
                    a2[(row, j)] += tr.rate;
                }
            }
        }
    }

    Ok(QbdBlocks::new(r00, r01, r10, a0, a1, a2)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space(n: usize, t: u32) -> OccupancySpace {
        OccupancySpace::new(n, t, &slb_linalg::Budget::unlimited()).unwrap()
    }

    #[test]
    fn poisson_map_blocks_match_scalar_model() {
        // A one-phase MAP is a Poisson stream: the product blocks must be
        // numerically identical to the slb-core blocks.
        let (n, d, lam, t) = (3usize, 2usize, 0.7f64, 2u32);
        let map = Map::poisson(lam * n as f64).unwrap();
        let sp = space(n, t);
        for kind in [BoundKind::Lower, BoundKind::Upper] {
            let ours = assemble(&sp, &map, d, kind, PollMode::WithoutReplacement).unwrap();
            let core = slb_core::BoundModel::new(slb_core::Sqd::new(n, d, lam).unwrap(), kind, t)
                .unwrap()
                .qbd_blocks()
                .unwrap();
            assert!(ours.a0().approx_eq(core.a0(), 1e-12));
            assert!(ours.a1().approx_eq(core.a1(), 1e-12));
            assert!(ours.a2().approx_eq(core.a2(), 1e-12));
            assert!(ours.r00().approx_eq(core.r00(), 1e-12));
        }
    }

    #[test]
    fn mmpp_blocks_validate_and_scale() {
        let map = Map::mmpp2(0.3, 0.5, 1.0, 3.0).unwrap();
        let sp = space(3, 2);
        let b = assemble(&sp, &map, 2, BoundKind::Lower, PollMode::WithoutReplacement).unwrap();
        assert_eq!(b.level_len(), sp.block_len() * 2);
        assert_eq!(b.boundary_len(), sp.boundary_len() * 2);
    }

    #[test]
    fn product_transitions_conserve_map_rates() {
        // Total outflow from (m, h): D0 off-diagonal + D1 row + busy
        // servers (lower model keeps capacity).
        let map = Map::mmpp2(0.4, 0.6, 0.8, 2.0).unwrap();
        let sp = space(3, 3);
        let occ = [1, 2, 1, 0, 0]; // (2, 1, 1): three busy servers
        for h in 0..2 {
            let ts = product_transitions(
                &sp,
                &occ,
                h,
                &map,
                2,
                BoundKind::Lower,
                PollMode::WithoutReplacement,
            );
            let total: f64 = ts.iter().map(|t| t.rate).sum();
            let d0_off: f64 = (0..2)
                .filter(|&h2| h2 != h)
                .map(|h2| map.d0()[(h, h2)])
                .sum();
            let d1_row: f64 = (0..2).map(|h2| map.d1()[(h, h2)]).sum();
            let expect = d0_off + d1_row + 3.0;
            assert!(
                (total - expect).abs() < 1e-12,
                "phase {h}: {total} vs {expect}"
            );
        }
    }

    #[test]
    fn upper_model_sheds_capacity_in_product_space() {
        // At the threshold, the upper model blocks bottom departures;
        // outflow must be lower than the lower model's.
        let map = Map::mmpp2(0.4, 0.6, 0.8, 2.0).unwrap();
        let sp = space(3, 2);
        let occ = [1, 2, 0, 1]; // (3, 1, 1): diff = 2 = T
        let outflow = |kind| -> f64 {
            product_transitions(&sp, &occ, 0, &map, 2, kind, PollMode::WithoutReplacement)
                .iter()
                .map(|t| t.rate)
                .sum()
        };
        let (low, up) = (outflow(BoundKind::Lower), outflow(BoundKind::Upper));
        assert!(up < low, "upper outflow {up} should be below lower {low}");
        assert!(
            (low - up - 2.0).abs() < 1e-12,
            "blocked rate is the bottom pair"
        );
    }
}
