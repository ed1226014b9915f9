//! The precedence (partial) order of Eq. 5 and machine-checked soundness
//! of the bound-model redirects.
//!
//! `(m, m′)` is a precedence pair — written `m ⪯ m′` — when
//! `Σ_{i≤j} m_i ≤ Σ_{i≤j} m′_i` for every prefix `j`. Smaller states are
//! "more preferable": fewer jobs in the longest queues means lower cost,
//! and the paper's value-iteration argument (Eq. 6–7) shows that
//! redirecting a transition to a ⪯-smaller (resp. ⪰-larger) state yields a
//! stochastic lower (resp. upper) bound model.
//!
//! [`verify_redirects`] replays that argument mechanically over an
//! enumerated state space: for every state and every transition, the bound
//! model's target must be comparable with — and on the correct side of —
//! the base model's target. Tests in `slb-core` run it for every
//! configuration used in the paper's evaluation.

use crate::{transitions, ModelVariant, State, Transition};

/// Whether `a ⪯ b` in the precedence order (Eq. 5): every prefix sum of
/// `a` is at most the corresponding prefix sum of `b`.
///
/// This is a *partial* order: states can be incomparable.
///
/// # Panics
///
/// Panics if the states have different dimensions.
///
/// # Example
///
/// ```
/// use slb_core::precedence::precedes;
/// use slb_core::State;
///
/// let balanced = State::new(vec![1, 1, 1]).unwrap();
/// let skewed = State::new(vec![3, 0, 0]).unwrap();
/// assert!(precedes(&balanced, &skewed));
/// assert!(!precedes(&skewed, &balanced));
/// ```
pub fn precedes(a: &State, b: &State) -> bool {
    assert_eq!(a.n(), b.n(), "precedence requires equal dimensions");
    let mut sa = 0u64;
    let mut sb = 0u64;
    for i in 0..a.n() {
        sa += u64::from(a.level(i));
        sb += u64::from(b.level(i));
        if sa > sb {
            return false;
        }
    }
    true
}

/// A violation found by [`verify_redirects`].
#[derive(Debug, Clone, PartialEq)]
pub struct RedirectViolation {
    /// Source state.
    pub from: State,
    /// Target in the base model.
    pub base_target: State,
    /// Target (or `None` if blocked) in the bound model.
    pub bound_target: Option<State>,
    /// Human-readable description.
    pub description: String,
}

/// Checks, for every supplied state, that the bound model's transition
/// structure is a sound redirection of the base model's:
///
/// * every base transition's rate is preserved or (for the upper model)
///   possibly dropped by blocking — never invented;
/// * for the **lower** model every redirected target `t̃` satisfies
///   `t̃ ⪯ t` against the base target `t`;
/// * for the **upper** model every redirected target satisfies `t̃ ⪰ t`,
///   and blocked departures leave the state at `m ⪰ t`.
///
/// Returns all violations (empty = sound).
///
/// # Panics
///
/// Panics if `variant` is [`ModelVariant::Base`], which has nothing to
/// verify.
pub fn verify_redirects<'a, I>(
    states: I,
    d: usize,
    lambda: f64,
    variant: ModelVariant,
) -> Vec<RedirectViolation>
where
    I: IntoIterator<Item = &'a State>,
{
    let is_lower = match variant {
        ModelVariant::Lower { .. } => true,
        ModelVariant::Upper { .. } => false,
        ModelVariant::Base => panic!("verify_redirects needs a bound variant"),
    };
    let mut violations = Vec::new();

    for m in states {
        let base = transitions(m, d, lambda, ModelVariant::Base);
        let bound = transitions(m, d, lambda, variant);

        // Pair transitions by rate bookkeeping: group both lists by rate
        // contribution. Because both lists are generated group-by-group in
        // the same order, we can walk them in parallel by matching rates.
        let mut bound_iter = bound.iter();
        let mut bound_next = bound_iter.next();
        for bt in &base {
            // Find the bound transition corresponding to this base one.
            // Departures blocked by the upper model are simply absent.
            let matched: Option<&Transition> = match bound_next {
                Some(cand) if (cand.rate - bt.rate).abs() < 1e-12 => {
                    let c = cand;
                    bound_next = bound_iter.next();
                    Some(c)
                }
                _ => None,
            };
            match matched {
                Some(tr) => {
                    let ok = if is_lower {
                        precedes(&tr.target, &bt.target)
                    } else {
                        precedes(&bt.target, &tr.target)
                    };
                    if !ok {
                        violations.push(RedirectViolation {
                            from: m.clone(),
                            base_target: bt.target.clone(),
                            bound_target: Some(tr.target.clone()),
                            description: format!(
                                "redirect on the wrong side of the precedence order \
                                 ({} model)",
                                if is_lower { "lower" } else { "upper" }
                            ),
                        });
                    }
                }
                None => {
                    // Missing transition: only the upper model may block,
                    // and blocking means staying at m, which must dominate
                    // the base target.
                    if is_lower {
                        violations.push(RedirectViolation {
                            from: m.clone(),
                            base_target: bt.target.clone(),
                            bound_target: None,
                            description: "lower model dropped a transition".into(),
                        });
                    } else if !precedes(&bt.target, m) {
                        violations.push(RedirectViolation {
                            from: m.clone(),
                            base_target: bt.target.clone(),
                            bound_target: None,
                            description: "blocking does not dominate the base target".into(),
                        });
                    }
                }
            }
        }
        if bound_next.is_some() {
            violations.push(RedirectViolation {
                from: m.clone(),
                base_target: m.clone(),
                bound_target: bound_next.cloned().map(|t| t.target),
                description: "bound model has an extra transition".into(),
            });
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::occupancy::occupancy_to_state;
    use crate::OccupancySpace;

    /// The boundary and the first `levels` repeating blocks of `(N, T)`,
    /// expanded to sorted tuples.
    fn states(n: usize, t: u32, levels: u32) -> Vec<State> {
        let space = OccupancySpace::new(n, t, &slb_linalg::Budget::unlimited()).unwrap();
        let mut out: Vec<State> = (0..space.boundary_len())
            .map(|i| occupancy_to_state(space.boundary_state(i)))
            .collect();
        for q in 0..levels {
            for i in 0..space.block_len() {
                let mut occ = space.block0_state(i).to_vec();
                occ[0] += q;
                out.push(occupancy_to_state(&occ));
            }
        }
        out
    }

    fn s(v: &[u32]) -> State {
        State::new(v.to_vec()).unwrap()
    }

    #[test]
    fn precedence_basic_cases() {
        assert!(precedes(&s(&[1, 1, 1]), &s(&[3, 0, 0])));
        assert!(precedes(&s(&[2, 1, 0]), &s(&[2, 1, 0])));
        assert!(precedes(&s(&[2, 1, 0]), &s(&[2, 2, 0])));
        assert!(!precedes(&s(&[2, 2, 0]), &s(&[2, 1, 0])));
        // Incomparable pair: prefix sums cross.
        assert!(!precedes(&s(&[3, 0, 0]), &s(&[2, 2, 2])));
        assert!(!precedes(&s(&[2, 2, 2]), &s(&[3, 0, 0])));
    }

    #[test]
    fn precedence_reflexive_transitive_spot() {
        let a = s(&[1, 1, 0]);
        let b = s(&[2, 1, 0]);
        let c = s(&[2, 2, 0]);
        assert!(precedes(&a, &a));
        assert!(precedes(&a, &b) && precedes(&b, &c) && precedes(&a, &c));
    }

    #[test]
    fn paper_basis_pairs_are_in_order() {
        // Pm pairs from the paper: m ⪯ m + eN and m ⪯ m + e_i − e_{i+1}.
        let m = s(&[3, 2, 1]);
        assert!(precedes(&m, &s(&[3, 2, 2]))); // m + eN
        assert!(precedes(&m, &s(&[4, 1, 1]))); // m + e1 − e2
        assert!(precedes(&m, &s(&[3, 3, 0]))); // m + e2 − e3
    }

    #[test]
    fn redirects_sound_on_paper_configurations() {
        // Every (N, T) pair used in Fig. 10 of the paper, d = 2.
        for &(n, t) in &[(3usize, 2u32), (3, 3), (6, 3)] {
            let states = states(n, t, 2);
            for variant in [
                ModelVariant::Lower { threshold: t },
                ModelVariant::Upper { threshold: t },
            ] {
                let v = verify_redirects(states.iter(), 2, 0.9, variant);
                assert!(v.is_empty(), "N={n}, T={t}, {variant:?}: {v:?}");
            }
        }
    }

    #[test]
    fn redirects_sound_for_other_d() {
        let states = states(5, 2, 1);
        for d in 1..=5 {
            for variant in [
                ModelVariant::Lower { threshold: 2 },
                ModelVariant::Upper { threshold: 2 },
            ] {
                let v = verify_redirects(states.iter(), d, 0.8, variant);
                assert!(v.is_empty(), "d={d}, {variant:?}: {v:?}");
            }
        }
    }
}
