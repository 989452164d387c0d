//! Classical linearizability — `linearizable*` (paper Appendix A).
//!
//! Definitions 37–46 formalize the original Herlihy–Wing condition: a
//! well-formed trace is `linearizable*` iff some *completion* (the trace with
//! responses appended for the pending invocations) admits a *reordering*
//! into a sequential trace that agrees with the ADT and preserves the order
//! of non-overlapping operations.
//!
//! [`ClassicalChecker`] decides this with the Wing–Gong search: repeatedly
//! pick a *minimal* operation (one invoked before every response of the
//! other unlinearized operations), apply its input to the sequential state,
//! and check the returned output for completed operations. Pending
//! operations may be linearized anywhere with a free output; since a
//! completion answers *every* pending invocation, any operation still
//! unlinearized when the completed ones are exhausted can be appended at the
//! end, so the search succeeds as soon as only pending operations remain.
//!
//! Theorem 1 of the paper states that this definition coincides with the new
//! one implemented in [`crate::lin`]; the workspace tests check the two
//! checkers agree on randomly generated traces.

use crate::ops::{self, Operation};
use crate::ObjAction;
use slin_adt::Adt;
use slin_trace::wf;
use slin_trace::Trace;
use std::collections::HashSet;

use crate::lin::LinError;

/// Default node budget for the backtracking search.
pub const DEFAULT_BUDGET: usize = 2_000_000;

/// Decision procedure for `linearizable*` (the classical definition).
///
/// # Example
///
/// ```
/// use slin_adt::{Consensus, ConsInput, ConsOutput};
/// use slin_core::classical::ClassicalChecker;
/// use slin_trace::{Action, ClientId, PhaseId, Trace};
///
/// let c1 = ClientId::new(1);
/// let ph = PhaseId::FIRST;
/// let t: Trace<Action<ConsInput, ConsOutput, ()>> = Trace::from_actions(vec![
///     Action::invoke(c1, ph, ConsInput::propose(4)),
///     Action::respond(c1, ph, ConsInput::propose(4), ConsOutput::decide(4)),
/// ]);
/// assert!(ClassicalChecker::new(&Consensus::new()).check(&t).is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct ClassicalChecker<'a, T> {
    adt: &'a T,
    budget: usize,
}

impl<'a, T: Adt> ClassicalChecker<'a, T> {
    /// Creates a checker for the given ADT with the default search budget.
    pub fn new(adt: &'a T) -> Self {
        ClassicalChecker {
            adt,
            budget: DEFAULT_BUDGET,
        }
    }

    /// Overrides the search node budget.
    pub fn with_budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// Checks the trace against `linearizable*`.
    ///
    /// # Errors
    ///
    /// Same error surface as [`crate::lin::LinChecker::check`]; a witness is
    /// not produced (use the new-definition checker for witnesses — the two
    /// are equivalent by Theorem 1).
    pub fn check<V>(&self, t: &Trace<ObjAction<T, V>>) -> Result<(), LinError>
    where
        V: Clone + PartialEq,
    {
        wf::validate(t, None)?;
        let operations = ops::operations::<T, V>(t);
        if operations.len() > 64 {
            return Err(LinError::BudgetExhausted { nodes: 0 });
        }
        let remaining: u64 = (0..operations.len()).fold(0u64, |m, i| m | (1 << i));
        let mut search = WgSearch {
            adt: self.adt,
            ops: &operations,
            budget: self.budget,
            nodes: 0,
            memo: HashSet::new(),
        };
        if search.dfs(self.adt.initial(), remaining)? {
            Ok(())
        } else {
            Err(LinError::NotLinearizable)
        }
    }

    /// Boolean form of [`ClassicalChecker::check`].
    pub fn is_linearizable<V>(&self, t: &Trace<ObjAction<T, V>>) -> bool
    where
        V: Clone + PartialEq,
    {
        self.check(t).is_ok()
    }
}

struct WgSearch<'s, T: Adt> {
    adt: &'s T,
    ops: &'s [Operation<T>],
    budget: usize,
    nodes: usize,
    memo: HashSet<(u64, T::State)>,
}

impl<'s, T: Adt> WgSearch<'s, T> {
    /// An operation is *minimal* among the remaining ones when no other
    /// remaining operation responded before it was invoked: linearizing it
    /// first preserves the order of non-overlapping operations.
    fn is_minimal(&self, k: usize, remaining: u64) -> bool {
        let inv_k = self.ops[k].invoke_index;
        for (j, op) in self.ops.iter().enumerate() {
            if j == k || remaining & (1 << j) == 0 {
                continue;
            }
            if let Some(res_j) = op.respond_index {
                if res_j < inv_k {
                    return false;
                }
            }
        }
        true
    }

    fn dfs(&mut self, state: T::State, remaining: u64) -> Result<bool, LinError> {
        // If only pending operations remain they can always be appended to
        // the linearization in any order, with outputs chosen to agree with
        // the ADT: success.
        let mut has_completed = false;
        for (j, op) in self.ops.iter().enumerate() {
            if remaining & (1 << j) != 0 && !op.is_pending() {
                has_completed = true;
                break;
            }
        }
        if !has_completed {
            return Ok(true);
        }
        self.nodes += 1;
        if self.nodes > self.budget {
            return Err(LinError::BudgetExhausted { nodes: self.nodes });
        }
        if self.memo.contains(&(remaining, state.clone())) {
            return Ok(false);
        }
        for k in 0..self.ops.len() {
            if remaining & (1 << k) == 0 || !self.is_minimal(k, remaining) {
                continue;
            }
            let op = &self.ops[k];
            let (state2, out) = self.adt.apply(&state, &op.input);
            if let Some(expected) = &op.output {
                if out != *expected {
                    continue;
                }
            }
            if self.dfs(state2, remaining & !(1 << k))? {
                return Ok(true);
            }
        }
        self.memo.insert((remaining, state));
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slin_adt::{ConsInput, ConsOutput, Consensus, Queue, QueueInput, QueueOutput};
    use slin_trace::{Action, ClientId, PhaseId};

    type CA = ObjAction<Consensus, ()>;
    type QA = ObjAction<Queue, ()>;

    fn c(n: u32) -> ClientId {
        ClientId::new(n)
    }
    fn ph() -> PhaseId {
        PhaseId::FIRST
    }
    fn p(v: u64) -> ConsInput {
        ConsInput::propose(v)
    }
    fn d(v: u64) -> ConsOutput {
        ConsOutput::decide(v)
    }

    #[test]
    fn sequential_trace_accepted() {
        let t: Trace<CA> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(), p(3)),
            Action::respond(c(1), ph(), p(3), d(3)),
            Action::invoke(c(2), ph(), p(4)),
            Action::respond(c(2), ph(), p(4), d(3)),
        ]);
        assert!(ClassicalChecker::new(&Consensus).check(&t).is_ok());
    }

    #[test]
    fn non_overlapping_order_preserved() {
        // c1's decision completes before c2 even proposes, so c2 cannot be
        // linearized first: d(4) is impossible.
        let t: Trace<CA> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(), p(3)),
            Action::respond(c(1), ph(), p(3), d(3)),
            Action::invoke(c(2), ph(), p(4)),
            Action::respond(c(2), ph(), p(4), d(4)),
        ]);
        assert_eq!(
            ClassicalChecker::new(&Consensus).check(&t),
            Err(LinError::NotLinearizable)
        );
    }

    #[test]
    fn overlapping_operations_may_reorder() {
        let t: Trace<CA> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(), p(3)),
            Action::invoke(c(2), ph(), p(4)),
            Action::respond(c(1), ph(), p(3), d(4)),
            Action::respond(c(2), ph(), p(4), d(4)),
        ]);
        assert!(ClassicalChecker::new(&Consensus).check(&t).is_ok());
    }

    #[test]
    fn pending_operation_may_take_effect() {
        let t: Trace<CA> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(), p(1)),
            Action::invoke(c(2), ph(), p(2)),
            Action::respond(c(2), ph(), p(2), d(1)),
        ]);
        assert!(ClassicalChecker::new(&Consensus).check(&t).is_ok());
    }

    #[test]
    fn pending_operation_may_be_postponed() {
        let t: Trace<CA> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(), p(1)),
            Action::invoke(c(2), ph(), p(2)),
            Action::respond(c(2), ph(), p(2), d(2)),
        ]);
        assert!(ClassicalChecker::new(&Consensus).check(&t).is_ok());
    }

    #[test]
    fn queue_herlihy_wing_example() {
        // enq(1) || enq(2); deq must not return an element never enqueued,
        // and two sequential deqs must drain in FIFO order.
        let t: Trace<QA> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(), QueueInput::Enqueue(1)),
            Action::invoke(c(2), ph(), QueueInput::Enqueue(2)),
            Action::respond(c(1), ph(), QueueInput::Enqueue(1), QueueOutput::Ack),
            Action::respond(c(2), ph(), QueueInput::Enqueue(2), QueueOutput::Ack),
            Action::invoke(c(1), ph(), QueueInput::Dequeue),
            Action::respond(
                c(1),
                ph(),
                QueueInput::Dequeue,
                QueueOutput::Dequeued(Some(2)),
            ),
            Action::invoke(c(1), ph(), QueueInput::Dequeue),
            Action::respond(
                c(1),
                ph(),
                QueueInput::Dequeue,
                QueueOutput::Dequeued(Some(1)),
            ),
        ]);
        assert!(ClassicalChecker::new(&Queue).check(&t).is_ok());
    }

    #[test]
    fn queue_wrong_fifo_rejected() {
        // Sequential enq(1); enq(2); deq=2 is not FIFO.
        let t: Trace<QA> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(), QueueInput::Enqueue(1)),
            Action::respond(c(1), ph(), QueueInput::Enqueue(1), QueueOutput::Ack),
            Action::invoke(c(1), ph(), QueueInput::Enqueue(2)),
            Action::respond(c(1), ph(), QueueInput::Enqueue(2), QueueOutput::Ack),
            Action::invoke(c(1), ph(), QueueInput::Dequeue),
            Action::respond(
                c(1),
                ph(),
                QueueInput::Dequeue,
                QueueOutput::Dequeued(Some(2)),
            ),
        ]);
        assert_eq!(
            ClassicalChecker::new(&Queue).check(&t),
            Err(LinError::NotLinearizable)
        );
    }

    #[test]
    fn empty_trace_accepted() {
        let t: Trace<CA> = Trace::new();
        assert!(ClassicalChecker::new(&Consensus).check(&t).is_ok());
    }
}
