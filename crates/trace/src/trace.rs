//! Traces: finite sequences of actions (paper Section 3, "Trace Properties").

use std::fmt;
use std::ops::Index;

/// A finite sequence of actions observed at the interface between a system
/// and its environment.
///
/// Indexing follows Rust conventions (0-based) while the paper is 1-based;
/// all documentation in this workspace uses 0-based indices.
///
/// # Example
///
/// ```
/// use slin_trace::{Action, ClientId, PhaseId, Trace};
///
/// let c = ClientId::new(1);
/// let mut t: Trace<Action<u8, u8, ()>> = Trace::new();
/// t.push(Action::invoke(c, PhaseId::FIRST, 7));
/// t.push(Action::respond(c, PhaseId::FIRST, 7, 7));
/// let invs = t.project(|a| a.is_invoke());
/// assert_eq!(invs.len(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Trace<A> {
    actions: Vec<A>,
}

impl<A> Trace<A> {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace {
            actions: Vec::new(),
        }
    }

    /// Creates a trace from a vector of actions.
    pub fn from_actions(actions: Vec<A>) -> Self {
        Trace { actions }
    }

    /// Number of events in the trace (`|t|`).
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// Whether the trace contains no events.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Appends an event (`t :: a`).
    pub fn push(&mut self, action: A) {
        self.actions.push(action);
    }

    /// The actions as a slice.
    pub fn as_slice(&self) -> &[A] {
        &self.actions
    }

    /// Consumes the trace and returns the underlying vector.
    pub fn into_inner(self) -> Vec<A> {
        self.actions
    }

    /// Iterates over the events in order.
    pub fn iter(&self) -> std::slice::Iter<'_, A> {
        self.actions.iter()
    }

    /// The truncation `t|m`: the first `m` events.
    ///
    /// # Panics
    ///
    /// Panics if `m > self.len()`.
    pub fn truncate_to(&self, m: usize) -> Trace<A>
    where
        A: Clone,
    {
        Trace {
            actions: self.actions[..m].to_vec(),
        }
    }

    /// The projection `proj(t, A)` of the trace onto the actions satisfying
    /// `keep`: removes every event not selected, preserving order.
    pub fn project<F>(&self, mut keep: F) -> Trace<A>
    where
        A: Clone,
        F: FnMut(&A) -> bool,
    {
        Trace {
            actions: self.actions.iter().filter(|a| keep(a)).cloned().collect(),
        }
    }
}

impl<A> Default for Trace<A> {
    fn default() -> Self {
        Trace::new()
    }
}

impl<A> Index<usize> for Trace<A> {
    type Output = A;

    fn index(&self, i: usize) -> &A {
        &self.actions[i]
    }
}

impl<A> FromIterator<A> for Trace<A> {
    fn from_iter<I: IntoIterator<Item = A>>(iter: I) -> Self {
        Trace {
            actions: iter.into_iter().collect(),
        }
    }
}

impl<A> Extend<A> for Trace<A> {
    fn extend<I: IntoIterator<Item = A>>(&mut self, iter: I) {
        self.actions.extend(iter);
    }
}

impl<A> IntoIterator for Trace<A> {
    type Item = A;
    type IntoIter = std::vec::IntoIter<A>;

    fn into_iter(self) -> Self::IntoIter {
        self.actions.into_iter()
    }
}

impl<'a, A> IntoIterator for &'a Trace<A> {
    type Item = &'a A;
    type IntoIter = std::slice::Iter<'a, A>;

    fn into_iter(self) -> Self::IntoIter {
        self.actions.iter()
    }
}

impl<A: fmt::Debug> fmt::Debug for Trace<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.actions.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Action, ClientId, PhaseId};

    type A = Action<u32, u32, ()>;

    fn sample() -> Trace<A> {
        let c1 = ClientId::new(1);
        let c2 = ClientId::new(2);
        Trace::from_actions(vec![
            Action::invoke(c1, PhaseId::FIRST, 1),
            Action::invoke(c2, PhaseId::FIRST, 2),
            Action::respond(c2, PhaseId::FIRST, 2, 2),
            Action::respond(c1, PhaseId::FIRST, 1, 2),
        ])
    }

    #[test]
    fn projection_preserves_order() {
        let t = sample();
        let c1 = ClientId::new(1);
        let p = t.project(|a| a.client() == c1);
        assert_eq!(p.len(), 2);
        assert!(p[0].is_invoke() && p[1].is_respond());
    }

    #[test]
    fn truncate_to_is_paper_truncation() {
        let t = sample();
        let t2 = t.truncate_to(2);
        assert_eq!(t2.len(), 2);
        assert!(t2[1].is_invoke());
    }

    #[test]
    fn collects_from_iterator() {
        let t: Trace<A> = sample().into_iter().filter(|a| a.is_invoke()).collect();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn empty_projection_of_empty_trace() {
        let t: Trace<A> = Trace::new();
        assert!(t.project(|_| true).is_empty());
        assert!(t.is_empty());
    }
}
