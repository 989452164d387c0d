//! Abstract data types (ADTs) for speculative linearizability.
//!
//! Section 4.1 of *Speculative Linearizability* (PLDI 2012) defines an ADT as
//! a tuple `T = (I_T, O_T, f_T)` where `f_T : I_T* → O_T` is an *output
//! function*: the response to an invocation is determined by the history of
//! inputs received so far. As the paper notes, computing the output function
//! amounts to replaying a state-machine description, so this crate exposes
//! the state-machine form ([`Adt`]) and derives the output-function form
//! ([`Adt::output`]) from it.
//!
//! The crate ships the ADTs used throughout the workspace:
//!
//! * [`Consensus`] — the paper's running example (Figure 1);
//! * [`Register`] — a read/write register;
//! * [`Counter`] — an increment/read counter;
//! * [`Queue`] — a FIFO queue;
//! * [`KvStore`] — a small key–value store;
//! * [`Universal`] — the universal ADT of Section 6, whose output is the full
//!   input history (the basis for generic state-machine replication);
//! * [`RegisterArray`] / [`CounterVector`] — composite (product) ADTs whose
//!   cells never interact, built for partition-aware and streaming checking.
//!
//! The [`partition`] module classifies inputs into independence classes
//! ([`Partitioner`]) so the checkers can split multi-key histories into
//! independent sub-histories and check them in parallel. The [`domain`]
//! module describes each ADT's enumerable input alphabet ([`DomainSpec`],
//! [`KeyedDomain`]), which the `slin-analysis` crate explores exhaustively
//! to *certify* that a partitioner upholds the soundness contract.
//!
//! # Example
//!
//! ```
//! use slin_adt::{Adt, Consensus, ConsInput, ConsOutput};
//!
//! let cons = Consensus::new();
//! let h = [ConsInput::propose(2), ConsInput::propose(7)];
//! // The first proposal wins, no matter how many follow (Figure 1).
//! assert_eq!(cons.output(&h), Some(ConsOutput::decide(2)));
//! ```

#![warn(missing_docs)]

pub mod array;
pub mod consensus;
pub mod counter;
pub mod domain;
pub mod equiv;
pub mod kv;
pub mod partition;
pub mod queue;
pub mod register;
pub mod set;
pub mod stack;
pub mod stamped;
pub mod universal;

pub use array::{CounterVecInput, CounterVector, RegArrayInput, RegisterArray};
pub use consensus::{ConsInput, ConsOutput, Consensus, Value};
pub use counter::{Counter, CounterInput, CounterOutput};
pub use domain::{DomainSpec, KeyedDomain, KeyedOp, DOMAIN_KEYS, DOMAIN_VALS};
pub use equiv::histories_equivalent;
pub use kv::{KvInput, KvOutput, KvStore};
pub use partition::{
    CounterVecPartitioner, IdentityPartitioner, KvKeyPartitioner, Partitioner, RegArrayPartitioner,
    SetElemPartitioner,
};
pub use queue::{Queue, QueueInput, QueueOutput};
pub use register::{RegInput, RegOutput, Register};
pub use set::{Set, SetInput, SetOutput};
pub use stack::{Stack, StackInput, StackOutput};
pub use stamped::Stamped;
pub use universal::{derive_output, Universal, UniversalOutput};

use std::fmt::Debug;
use std::hash::Hash;

/// A deterministic abstract data type, in state-machine form.
///
/// The paper's output function `f_T : I_T* → O_T` is recovered by
/// [`Adt::output`], which replays a history from [`Adt::initial`] through
/// [`Adt::apply`]. Output functions are defined on *non-empty* histories
/// (a response always has at least its own invocation in its commit history),
/// so `output` returns `None` for the empty history.
///
/// Implementations must be deterministic: `apply` is a pure function of the
/// state and input.
pub trait Adt {
    /// The input (invocation) alphabet `I_T`.
    type Input: Clone + Eq + Hash + Debug;
    /// The output (response) alphabet `O_T`.
    type Output: Clone + Eq + Hash + Debug;
    /// The sequential state replayed by the output function.
    type State: Clone + Eq + Hash + Debug;

    /// The initial sequential state.
    fn initial(&self) -> Self::State;

    /// Applies one input to a state, returning the successor state and the
    /// output that a sequential execution would return for this input.
    fn apply(&self, state: &Self::State, input: &Self::Input) -> (Self::State, Self::Output);

    /// The paper's output function `f_T`: the output of the *last* input of
    /// `history`, or `None` when `history` is empty.
    ///
    /// # Example
    ///
    /// ```
    /// use slin_adt::{Adt, Counter, CounterInput, CounterOutput};
    /// let c = Counter::new();
    /// let h = [CounterInput::Increment, CounterInput::Read];
    /// assert_eq!(c.output(&h), Some(CounterOutput::Count(1)));
    /// assert_eq!(c.output(&[]), None);
    /// ```
    fn output(&self, history: &[Self::Input]) -> Option<Self::Output> {
        let mut state = self.initial();
        let mut last = None;
        for input in history {
            let (next, out) = self.apply(&state, input);
            state = next;
            last = Some(out);
        }
        last
    }

    /// Replays `history` and returns the reached state.
    fn run(&self, history: &[Self::Input]) -> Self::State {
        let mut state = self.initial();
        for input in history {
            state = self.apply(&state, input).0;
        }
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_of_empty_history_is_none() {
        assert_eq!(Consensus::new().output(&[]), None);
        assert_eq!(Counter::new().output(&[]), None);
    }

    #[test]
    fn run_matches_incremental_apply() {
        let q = Queue::new();
        let h = [
            QueueInput::Enqueue(1),
            QueueInput::Enqueue(2),
            QueueInput::Dequeue,
        ];
        let mut s = q.initial();
        for i in &h {
            s = q.apply(&s, i).0;
        }
        assert_eq!(q.run(&h), s);
    }
}
