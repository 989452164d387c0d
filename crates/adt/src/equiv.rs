//! History equivalence with respect to an ADT (paper Section 2.3).
//!
//! Two histories are *equivalent* when they bring the object into the same
//! logical state: the response to any new invocation is independent of which
//! of the two was executed. For deterministic state-machine ADTs this is
//! exactly equality of reached states, which is how we decide it.
//!
//! Switch values are required to denote sets of *equivalent* histories, so
//! this module is what justifies representing an `rinit` image by a single
//! canonical representative in the checkers.

use crate::Adt;

/// Whether two histories are equivalent with respect to `adt`: they lead to
/// the same sequential state, hence the same outputs for every continuation.
///
/// # Example
///
/// ```
/// use slin_adt::{histories_equivalent, Consensus, ConsInput};
/// let p = ConsInput::propose;
/// // Any two histories starting with the same proposal are equivalent.
/// assert!(histories_equivalent(&Consensus::new(), &[p(1), p(2)], &[p(1), p(3), p(4)]));
/// assert!(!histories_equivalent(&Consensus::new(), &[p(1)], &[p(2)]));
/// ```
pub fn histories_equivalent<T: Adt>(adt: &T, h1: &[T::Input], h2: &[T::Input]) -> bool {
    adt.run(h1) == adt.run(h2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus::{ConsInput, Consensus};
    use crate::counter::{Counter, CounterInput};
    use crate::queue::{Queue, QueueInput};

    #[test]
    fn consensus_collapses_after_first_proposal() {
        let p = ConsInput::propose;
        let cons = Consensus::new();
        assert!(histories_equivalent(&cons, &[p(5)], &[p(5), p(9), p(1)]));
    }

    #[test]
    fn empty_history_only_equivalent_to_no_ops() {
        let cons = Consensus::new();
        let reads: [ConsInput; 0] = [];
        assert!(histories_equivalent(&cons, &reads, &[]));
        assert!(!histories_equivalent(&cons, &[], &[ConsInput::propose(1)]));
    }

    #[test]
    fn counter_equivalence_counts_increments() {
        let c = Counter::new();
        let h1 = [CounterInput::Increment, CounterInput::Read];
        let h2 = [CounterInput::Read, CounterInput::Increment];
        assert!(histories_equivalent(&c, &h1, &h2));
        let h3 = [CounterInput::Increment, CounterInput::Increment];
        assert!(!histories_equivalent(&c, &h1, &h3));
    }

    #[test]
    fn queue_equivalence_is_content_sensitive() {
        let q = Queue::new();
        let h1 = [QueueInput::Enqueue(1), QueueInput::Dequeue];
        let h2 = [QueueInput::Enqueue(2), QueueInput::Dequeue];
        assert!(histories_equivalent(&q, &h1, &h2)); // both leave it empty
        let h3 = [QueueInput::Enqueue(1)];
        assert!(!histories_equivalent(&q, &h1, &h3));
    }
}
