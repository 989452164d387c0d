//! The universal ADT (paper Section 6).
//!
//! The output function of the universal ADT is the identity: it "responds to
//! an invocation with its full trace, in the form of a history". It abstracts
//! generic state-machine replication: applying any other ADT's output
//! function to the returned history yields an implementation of that ADT.

use crate::Adt;
use std::fmt::Debug;
use std::hash::Hash;
use std::marker::PhantomData;

/// The output of the universal ADT: the complete history of inputs received
/// so far (including the one being answered).
pub type UniversalOutput<I> = Vec<I>;

/// The universal ADT over an arbitrary input alphabet `I`.
///
/// # Example
///
/// ```
/// use slin_adt::{Adt, Universal};
/// let u: Universal<u8> = Universal::new();
/// assert_eq!(u.output(&[1, 2, 3]), Some(vec![1, 2, 3]));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Universal<I> {
    _marker: PhantomData<fn() -> I>,
}

impl<I> Universal<I> {
    /// Creates the universal ADT.
    pub fn new() -> Self {
        Universal {
            _marker: PhantomData,
        }
    }
}

impl<I> Default for Universal<I> {
    fn default() -> Self {
        Universal::new()
    }
}

impl<I: Clone + Eq + Hash + Debug + 'static> Adt for Universal<I> {
    type Input = I;
    type Output = UniversalOutput<I>;
    type State = Vec<I>;

    fn initial(&self) -> Self::State {
        Vec::new()
    }

    fn apply(&self, state: &Self::State, input: &Self::Input) -> (Self::State, Self::Output) {
        let mut next = state.clone();
        next.push(input.clone());
        (next.clone(), next)
    }
}

/// Derives an implementation of any ADT `T` from the universal ADT: apply
/// `T`'s output function to the history returned by the universal object
/// (the construction sketched in Section 6).
///
/// Returns `None` when the universal output is the empty history.
///
/// # Example
///
/// ```
/// use slin_adt::{derive_output, Consensus, ConsInput, ConsOutput};
/// let hist = vec![ConsInput::propose(4), ConsInput::propose(6)];
/// assert_eq!(derive_output(&Consensus::new(), &hist), Some(ConsOutput::decide(4)));
/// ```
pub fn derive_output<T: Adt>(adt: &T, universal_output: &[T::Input]) -> Option<T::Output> {
    adt.output(universal_output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus::{ConsInput, ConsOutput, Consensus};

    #[test]
    fn output_is_identity_on_history() {
        let u: Universal<char> = Universal::new();
        assert_eq!(u.output(&['a', 'b']), Some(vec!['a', 'b']));
    }

    #[test]
    fn state_equals_output() {
        let u: Universal<u32> = Universal::new();
        let (s, o) = u.apply(&vec![1, 2], &3);
        assert_eq!(s, o);
        assert_eq!(s, vec![1, 2, 3]);
    }

    #[test]
    fn derives_consensus_from_universal() {
        let hist = vec![ConsInput::propose(9), ConsInput::propose(2)];
        assert_eq!(
            derive_output(&Consensus::new(), &hist),
            Some(ConsOutput::decide(9))
        );
        assert_eq!(derive_output(&Consensus::new(), &[]), None);
    }
}
