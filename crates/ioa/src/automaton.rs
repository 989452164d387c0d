//! The I/O-automaton abstraction (Lynch & Tuttle, cited as \[21\] in the
//! paper), restricted to automata with enumerable transition relations so
//! that exploration and refinement checking are executable.

use std::fmt::Debug;
use std::hash::Hash;

/// An I/O automaton with enumerable transitions.
///
/// Compared to the full I/O-automata model this trait drops task partitions
/// (we only check safety properties, like the paper, which restricts itself
/// to finite traces) and represents the signature by two predicates:
/// [`Automaton::in_signature`] (does the action belong to this automaton at
/// all — used by composition to decide synchronization) and
/// [`Automaton::is_external`] (is it visible in traces).
pub trait Automaton {
    /// The state type.
    type State: Clone + Eq + Hash + Debug;
    /// The action type.
    type Action: Clone + Eq + Hash + Debug;

    /// The initial states (I/O automata may have several).
    fn initial_states(&self) -> Vec<Self::State>;

    /// All enabled transitions from `state`, as `(action, successor)` pairs.
    fn transitions(&self, state: &Self::State) -> Vec<(Self::Action, Self::State)>;

    /// Whether `action` belongs to this automaton's signature (input,
    /// output, or internal).
    fn in_signature(&self, action: &Self::Action) -> bool;

    /// Whether `action` is external (input or output) — internal actions are
    /// invisible in traces.
    fn is_external(&self, action: &Self::Action) -> bool;

    /// The external projection of an execution's action sequence: its trace.
    fn trace_of(&self, actions: &[Self::Action]) -> Vec<Self::Action> {
        actions
            .iter()
            .filter(|a| self.is_external(a))
            .cloned()
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// A tiny counter automaton used by the framework tests: internal ticks,
    /// external emissions of the current count.
    #[derive(Debug, Clone)]
    pub(crate) struct TickTock {
        pub(crate) max: u8,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    pub(crate) enum TickAction {
        Tick,
        Emit(u8),
    }

    impl Automaton for TickTock {
        type State = u8;
        type Action = TickAction;

        fn initial_states(&self) -> Vec<u8> {
            vec![0]
        }

        fn transitions(&self, s: &u8) -> Vec<(TickAction, u8)> {
            let mut out = Vec::new();
            if *s < self.max {
                out.push((TickAction::Tick, s + 1));
            }
            out.push((TickAction::Emit(*s), *s));
            out
        }

        fn in_signature(&self, _a: &TickAction) -> bool {
            true
        }

        fn is_external(&self, a: &TickAction) -> bool {
            matches!(a, TickAction::Emit(_))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{TickAction, TickTock};
    use super::*;

    #[test]
    fn transitions_enumerate_enabled_actions() {
        let a = TickTock { max: 2 };
        let ts = a.transitions(&0);
        assert_eq!(ts.len(), 2);
        assert!(ts.contains(&(TickAction::Tick, 1)));
        assert!(ts.contains(&(TickAction::Emit(0), 0)));
        // At the bound, ticking is disabled.
        assert_eq!(a.transitions(&2).len(), 1);
    }

    #[test]
    fn trace_of_filters_internal_actions() {
        let a = TickTock { max: 2 };
        let actions = vec![TickAction::Tick, TickAction::Emit(1), TickAction::Tick];
        assert_eq!(a.trace_of(&actions), vec![TickAction::Emit(1)]);
    }
}
