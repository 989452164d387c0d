//! Bounded exploration of automata: breadth-first reachability, trace
//! collection, and seeded random walks.

use crate::automaton::Automaton;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashSet, VecDeque};

/// All states reachable within `max_depth` transitions, capped at
/// `max_states` (exploration stops, without error, at the cap).
pub fn reachable_states<A: Automaton>(
    automaton: &A,
    max_depth: usize,
    max_states: usize,
) -> Vec<A::State> {
    let mut seen: HashSet<A::State> = HashSet::new();
    let mut frontier: VecDeque<(A::State, usize)> = VecDeque::new();
    let mut out = Vec::new();
    for s in automaton.initial_states() {
        if seen.insert(s.clone()) {
            out.push(s.clone());
            frontier.push_back((s, 0));
        }
    }
    while let Some((s, d)) = frontier.pop_front() {
        if d >= max_depth || out.len() >= max_states {
            continue;
        }
        for (_, s2) in automaton.transitions(&s) {
            if seen.insert(s2.clone()) {
                out.push(s2.clone());
                if out.len() >= max_states {
                    return out;
                }
                frontier.push_back((s2, d + 1));
            }
        }
    }
    out
}

/// All *external traces* of executions with at most `max_depth` transitions
/// (deduplicated). Exponential in general: use tight bounds.
pub fn bounded_traces<A: Automaton>(automaton: &A, max_depth: usize) -> Vec<Vec<A::Action>> {
    let mut out: HashSet<Vec<A::Action>> = HashSet::new();
    let mut stack: Vec<(A::State, Vec<A::Action>, usize)> = automaton
        .initial_states()
        .into_iter()
        .map(|s| (s, Vec::new(), 0))
        .collect();
    while let Some((s, trace, d)) = stack.pop() {
        out.insert(trace.clone());
        if d >= max_depth {
            continue;
        }
        for (a, s2) in automaton.transitions(&s) {
            let mut t2 = trace.clone();
            if automaton.is_external(&a) {
                t2.push(a);
            }
            stack.push((s2, t2, d + 1));
        }
    }
    out.into_iter().collect()
}

/// A seeded random execution of up to `steps` transitions; returns the
/// external trace. Deterministic in the seed.
///
/// # Example
///
/// ```
/// use slin_ioa::alm::{AlmAutomaton, AlmParams};
/// use slin_ioa::explore::random_walk;
/// let alm = AlmAutomaton::new(AlmParams { first: 1, last: 2, clients: 2, inputs: vec![1u8] });
/// assert_eq!(random_walk(&alm, 10, 3), random_walk(&alm, 10, 3));
/// ```
pub fn random_walk<A: Automaton>(automaton: &A, steps: usize, seed: u64) -> Vec<A::Action> {
    random_walk_with_bias(automaton, steps, seed, |_| 1)
}

/// Like [`random_walk`] but with a weight function biasing the choice of the
/// next action (weight 0 disables an action).
pub(crate) fn random_walk_with_bias<A, W>(
    automaton: &A,
    steps: usize,
    seed: u64,
    weight: W,
) -> Vec<A::Action>
where
    A: Automaton,
    W: Fn(&A::Action) -> u32,
{
    let mut rng = StdRng::seed_from_u64(seed);
    let inits = automaton.initial_states();
    if inits.is_empty() {
        return Vec::new();
    }
    let mut state = inits[rng.gen_range(0..inits.len())].clone();
    let mut trace = Vec::new();
    for _ in 0..steps {
        let ts = automaton.transitions(&state);
        let weights: Vec<u32> = ts.iter().map(|(a, _)| weight(a)).collect();
        let total: u32 = weights.iter().sum();
        if total == 0 {
            break;
        }
        let mut pick = rng.gen_range(0..total);
        let mut chosen = 0;
        for (i, w) in weights.iter().enumerate() {
            if pick < *w {
                chosen = i;
                break;
            }
            pick -= w;
        }
        let (a, s2) = ts[chosen].clone();
        if automaton.is_external(&a) {
            trace.push(a);
        }
        state = s2;
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::testutil::{TickAction, TickTock};

    #[test]
    fn reachable_states_bounded_by_depth() {
        let a = TickTock { max: 5 };
        assert_eq!(reachable_states(&a, 2, 100).len(), 3); // 0, 1, 2
        assert_eq!(reachable_states(&a, 10, 100).len(), 6);
    }

    #[test]
    fn reachable_states_bounded_by_cap() {
        let a = TickTock { max: 200 };
        assert_eq!(reachable_states(&a, 1000, 10).len(), 10);
    }

    #[test]
    fn bounded_traces_contain_empty_trace() {
        let a = TickTock { max: 2 };
        let ts = bounded_traces(&a, 3);
        assert!(ts.contains(&vec![]));
        assert!(ts.contains(&vec![TickAction::Emit(0)]));
        assert!(ts.contains(&vec![TickAction::Emit(0), TickAction::Emit(1)]));
    }

    #[test]
    fn random_walk_deterministic() {
        let a = TickTock { max: 3 };
        assert_eq!(random_walk(&a, 8, 7), random_walk(&a, 8, 7));
    }

    #[test]
    fn bias_disables_actions() {
        let a = TickTock { max: 3 };
        // Forbid emissions: the walk is all internal, trace empty.
        let t = random_walk_with_bias(&a, 8, 1, |act| {
            if matches!(act, TickAction::Emit(_)) {
                0
            } else {
                1
            }
        });
        assert!(t.is_empty());
    }
}
