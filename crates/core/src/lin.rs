//! The paper's new definition of linearizability (Section 4).
//!
//! A trace `t` is linearizable iff it is well-formed and admits a
//! *linearization function* `g` mapping every commit (response) index to a
//! history such that (Definitions 6–12):
//!
//! * **Explains** — `f_T(g(i))` equals the output returned at `i`;
//! * **Validity** — `elems(g(i)) ⊆ elems(inputs(t, i))` and `g(i)` ends
//!   with the input answered at `i`;
//! * **Commit-Order** — commit histories form a chain under the strict
//!   prefix order.
//!
//! [`LinChecker`] decides the existential as a thin frontend over the
//! shared [`crate::engine`]: the chain of
//! commit histories grows one element at a time, memoised on the reached
//! ADT state and the multiset of consumed inputs. Because the chain can
//! interleave *extra* inputs (inputs whose responses never commit, or
//! duplicated inputs — the definition allows repeated events), the search
//! alternates "append an extra input" and "commit a response" moves; see
//! [`crate::engine`] for the search itself.

use crate::engine::{Chain, EngineError, Refuted, DEFAULT_MAX_NODES};
use crate::model::{self, ConsistencyModel, Problem, Projection};
use crate::partition;
use crate::stream::MonitorStatus;
use crate::{ops, ObjAction};
use slin_adt::{Adt, IdentityPartitioner, Partitioner};
use slin_trace::wf::{self, Invalid, WellFormednessError};
use slin_trace::{PersistentMultiset, PhaseId, Trace};
use std::error::Error;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// Why a trace failed the linearizability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinError {
    /// The trace is not well-formed (Definition 15).
    IllFormed(WellFormednessError),
    /// The trace contains a switch action; plain linearizability is defined
    /// on the object signature `sigT`, which has none. Use
    /// [`crate::slin::SlinChecker`] for phase traces.
    SwitchAction {
        /// Index of the offending switch action.
        index: usize,
    },
    /// No linearization function exists: the trace is not linearizable.
    NotLinearizable,
    /// The search exceeded its node budget before reaching a verdict.
    BudgetExhausted {
        /// Search nodes expanded when the budget tripped.
        nodes: usize,
    },
}

impl fmt::Display for LinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinError::IllFormed(e) => write!(f, "trace is ill-formed: {e}"),
            LinError::SwitchAction { index } => {
                write!(f, "switch action at index {index} in an object trace")
            }
            LinError::NotLinearizable => write!(f, "no linearization function exists"),
            LinError::BudgetExhausted { nodes } => {
                write!(f, "search budget exhausted after {nodes} nodes")
            }
        }
    }
}

impl Error for LinError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LinError::IllFormed(e) => Some(e),
            _ => None,
        }
    }
}

impl From<Invalid> for LinError {
    /// The object signature `sigT` has no switch actions: outside it means
    /// a switch.
    fn from(invalid: Invalid) -> Self {
        match invalid {
            Invalid::OutsideSignature { index } => LinError::SwitchAction { index },
            Invalid::IllFormed(e) => LinError::IllFormed(e),
        }
    }
}

impl From<EngineError> for LinError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::BudgetExhausted { nodes } => LinError::BudgetExhausted { nodes },
        }
    }
}

impl From<Refuted> for LinError {
    fn from(_: Refuted) -> Self {
        LinError::NotLinearizable
    }
}

/// A witness linearization function `g`: the commit history assigned to each
/// commit index, in chain order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinWitness<I> {
    assignments: Chain<I>,
}

impl<I> LinWitness<I> {
    /// The `(commit index, commit history)` chain.
    #[cfg(test)]
    pub(crate) fn assignments(&self) -> &Chain<I> {
        &self.assignments
    }

    /// The full linearization: the longest commit history.
    pub fn full_history(&self) -> &[I] {
        self.assignments.history()
    }
}

/// Checks the witness against the definition (used by tests to validate the
/// search itself): the chain places every commit of `t` exactly once, each
/// commit history explains its output, ends with its input and draws from
/// the inputs invoked before it (Validity), and — Commit-Order, as every
/// history is a prefix of the chain's longest — the cut lengths strictly
/// increase.
pub fn witness_is_valid<T: Adt, V>(
    adt: &T,
    t: &Trace<ObjAction<T, V>>,
    w: &LinWitness<T::Input>,
) -> bool {
    let input_ms = ops::input_multisets::<T, V>(t);
    let commits = ops::commits::<T, V>(t);
    let cuts = w.assignments.cuts();
    let mut placed: Vec<usize> = cuts.iter().map(|&(idx, _)| idx).collect();
    placed.sort_unstable();
    if !placed.iter().eq(commits.iter().map(|c| &c.index)) {
        return false;
    }
    if !cuts.windows(2).all(|w| w[0].1 < w[1].1) {
        return false;
    }
    w.assignments.iter().all(|(idx, h)| {
        let c = &commits[commits.partition_point(|c| c.index < idx)];
        adt.output(h) == Some(c.output.clone())
            && h.last() == Some(&c.input)
            && PersistentMultiset::elems(h).is_subset_of(&input_ms[idx])
    })
}

/// Decision procedure for the paper's new definition of linearizability.
///
/// # Example
///
/// ```
/// use slin_adt::{Consensus, ConsInput, ConsOutput};
/// use slin_core::lin::LinChecker;
/// use slin_trace::{Action, ClientId, PhaseId, Trace};
///
/// let c1 = ClientId::new(1);
/// let ph = PhaseId::FIRST;
/// let t: Trace<Action<ConsInput, ConsOutput, ()>> = Trace::from_actions(vec![
///     Action::invoke(c1, ph, ConsInput::propose(4)),
///     Action::respond(c1, ph, ConsInput::propose(4), ConsOutput::decide(4)),
/// ]);
/// let checker = LinChecker::owned(Consensus::new());
/// let witness = checker.check(&t)?;
/// assert_eq!(witness.full_history(), &[ConsInput::propose(4)]);
/// # Ok::<(), slin_core::lin::LinError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LinChecker<T> {
    adt: Arc<T>,
}

impl<T: Adt> LinChecker<T>
where
    T::Input: Ord,
{
    /// Creates a checker owning the given ADT. The checker (and every
    /// `Session` built from it) is `'static`, so it can live in long-lived
    /// tables — the daemon tenant-table setting.
    pub fn owned(adt: T) -> Self {
        LinChecker { adt: Arc::new(adt) }
    }

    /// Checks the trace under the default search budget and returns a
    /// witness linearization function.
    ///
    /// This is the simple direct entry point; the full-featured surface
    /// (partitioning, streaming, the search budget) is the
    /// [`crate::session`] builder.
    ///
    /// # Errors
    ///
    /// [`LinError::IllFormed`] or [`LinError::SwitchAction`] when the trace
    /// is outside the object signature; [`LinError::NotLinearizable`] when
    /// no linearization function exists; [`LinError::BudgetExhausted`] when
    /// the search gave up.
    pub fn check<V>(&self, t: &Trace<ObjAction<T, V>>) -> Result<LinWitness<T::Input>, LinError>
    where
        T: Sync,
        T::Input: Send + Sync,
        T::Output: Sync,
        V: Clone + PartialEq + Sync,
    {
        let none = None::<&IdentityPartitioner>;
        partition::check(self, none, t, DEFAULT_MAX_NODES, 0).outcome
    }
}

/// Definition 10 on a validated (sub-)trace, as a search problem: every
/// response commits, a history reaching index `i` draws from
/// `elems(inputs(t, i))`, nothing seeds the chain, and a completed chain
/// *is* a linearization function — the leaf oracle is trivial (speculative
/// checking grafts abort feasibility there).
fn definition_10<'m, T: Adt<Input: Ord>, V>(t: &Trace<ObjAction<T, V>>) -> Problem<'m, T, ()> {
    let bounds = Rc::new(ops::input_bounds::<T, V>(t));
    Problem {
        commits: ops::commits::<T, V>(t),
        pool: model::pool_of(&bounds),
        bounds,
        seed: Vec::new(),
        leaf: Box::new(|_| Some(())),
    }
}

impl<T, V> ConsistencyModel<V> for LinChecker<T>
where
    T: Adt + Sync,
    T::Input: Ord + Send + Sync,
    T::Output: Sync,
    V: Clone + PartialEq + Sync,
{
    type Adt = T;
    type Witness = LinWitness<T::Input>;
    type Error = LinError;
    type Leaf = ();

    fn adt(&self) -> &Arc<T> {
        &self.adt
    }

    fn phase_bounds(&self) -> Option<(PhaseId, PhaseId)> {
        None
    }

    fn status_of_error(e: &LinError) -> MonitorStatus {
        match e {
            LinError::NotLinearizable => MonitorStatus::Violation,
            LinError::IllFormed(_) => MonitorStatus::IllFormed,
            LinError::SwitchAction { .. } => MonitorStatus::SwitchSeen,
            LinError::BudgetExhausted { .. } => MonitorStatus::Unknown,
        }
    }

    /// The signature gate and well-formedness, then Definition 10 whole —
    /// one interpretation — or, along a partitioner, per key: a class
    /// sub-trace's Definition 10 is the class projection of the whole
    /// trace's. No certificate names a relation of this model, so a trace
    /// with a switch action never decomposes and is never given one.
    fn project<'a, P: Partitioner<T>>(
        &'a self,
        partitioner: Option<&P>,
        t: &'a Trace<ObjAction<T, V>>,
    ) -> Projection<'a, T, (), LinError> {
        let keys = partitioner.map(|p| (p, partition::class_keys(p, false, t)));
        let fallback = keys.as_ref().and_then(|(_, k)| k.as_ref().err().copied());
        // Rejection indices are the whole trace's: validate it whole.
        if let Err(invalid) = wf::validate(t, None) {
            return Projection::Rejected {
                error: invalid.into(),
                fallback,
            };
        }
        let (partitioner, keys) = match keys {
            Some((p, Ok(keys))) if keys.len() > 1 => (p, keys),
            keys => {
                return Projection::Whole {
                    partitions: keys.and_then(|(_, k)| k.ok()).map_or(1, |k| k.len()),
                    fallback,
                    interpretations: 1,
                    interpretation: Box::new(|_| (definition_10(t), Box::new(|| Refuted.into()))),
                }
            }
        };
        let whole = definition_10(t);
        let classes = whole.classes(
            keys.len(),
            |i| partition::class_of(partitioner, &keys, i),
            |_| (Vec::new(), Box::new(|_| Some(()))),
        );
        Projection::Classes {
            whole,
            classes,
            refuted: Box::new(|| Refuted.into()),
        }
    }

    fn witness(chain: Chain<T::Input>, (): ()) -> LinWitness<T::Input> {
        LinWitness { assignments: chain }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slin_adt::{ConsInput, ConsOutput, Consensus, RegInput, RegOutput, Register};
    use slin_trace::{Action, ClientId, PhaseId};

    type CA = ObjAction<Consensus, ()>;

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

    fn checker() -> LinChecker<Consensus> {
        LinChecker::owned(Consensus)
    }

    #[test]
    fn empty_trace_linearizable() {
        let t: Trace<CA> = Trace::new();
        assert!(checker().check(&t).is_ok());
    }

    #[test]
    fn paper_section_2_2_linearizable_example() {
        // c1 proposes v1; c2 proposes v2; c2 decides v2; c1 decides v2.
        let t: Trace<CA> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(), p(1)),
            Action::invoke(c(2), ph(), p(2)),
            Action::respond(c(2), ph(), p(2), d(2)),
            Action::respond(c(1), ph(), p(1), d(2)),
        ]);
        let w = checker().check(&t).unwrap();
        assert!(witness_is_valid(&Consensus, &t, &w));
        assert_eq!(w.full_history(), &[p(2), p(1)]);
    }

    #[test]
    fn paper_section_2_2_non_linearizable_split_decision() {
        // c1 proposes v1, c2 proposes v2, c1 decides v1, c2 decides v2.
        let t: Trace<CA> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(), p(1)),
            Action::invoke(c(2), ph(), p(2)),
            Action::respond(c(1), ph(), p(1), d(1)),
            Action::respond(c(2), ph(), p(2), d(2)),
        ]);
        assert_eq!(checker().check(&t), Err(LinError::NotLinearizable));
    }

    #[test]
    fn paper_section_2_2_non_linearizable_future_value() {
        // c1 proposes v1, c1 decides v2 (before v2 was ever proposed).
        let t: Trace<CA> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(), p(1)),
            Action::respond(c(1), ph(), p(1), d(2)),
            Action::invoke(c(2), ph(), p(2)),
            Action::respond(c(2), ph(), p(2), d(2)),
        ]);
        assert_eq!(checker().check(&t), Err(LinError::NotLinearizable));
    }

    #[test]
    fn pending_invocations_are_fine() {
        let t: Trace<CA> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(), p(1)),
            Action::invoke(c(2), ph(), p(2)),
            Action::respond(c(2), ph(), p(2), d(2)),
        ]);
        // c2 decided 2 although c1 proposed first: only linearizable thanks
        // to c1's proposal being pending — v2 is linearized first.
        assert!(checker().check(&t).is_ok());
    }

    #[test]
    fn decision_can_depend_on_pending_proposal() {
        // c2 decides c1's pending value: the chain must interleave the
        // pending proposal p(1) as an extra input.
        let t: Trace<CA> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(), p(1)),
            Action::invoke(c(2), ph(), p(2)),
            Action::respond(c(2), ph(), p(2), d(1)),
        ]);
        let w = checker().check(&t).unwrap();
        assert!(witness_is_valid(&Consensus, &t, &w));
        assert_eq!(w.full_history(), &[p(1), p(2)]);
    }

    #[test]
    fn ill_formed_rejected() {
        let t: Trace<CA> = Trace::from_actions(vec![Action::respond(c(1), ph(), p(1), d(1))]);
        assert!(matches!(checker().check(&t), Err(LinError::IllFormed(_))));
    }

    #[test]
    fn switch_action_rejected() {
        let t: Trace<ObjAction<Consensus, u8>> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(), p(1)),
            Action::switch(c(1), PhaseId::new(2), p(1), 0),
        ]);
        assert_eq!(
            LinChecker::owned(Consensus).check(&t),
            Err(LinError::SwitchAction { index: 1 })
        );
    }

    #[test]
    fn repeated_inputs_are_supported() {
        // Both clients propose the same value; both decide it.
        let t: Trace<CA> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(), p(7)),
            Action::invoke(c(2), ph(), p(7)),
            Action::respond(c(1), ph(), p(7), d(7)),
            Action::respond(c(2), ph(), p(7), d(7)),
        ]);
        let w = checker().check(&t).unwrap();
        assert!(witness_is_valid(&Consensus, &t, &w));
    }

    #[test]
    fn register_read_must_see_latest_non_overlapping_write() {
        let chk = LinChecker::owned(Register::new());
        // wr(1) completes, then a read returns ⊥: not linearizable.
        let t: Trace<ObjAction<Register, ()>> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(), RegInput::Write(1)),
            Action::respond(c(1), ph(), RegInput::Write(1), RegOutput::Ack),
            Action::invoke(c(2), ph(), RegInput::Read),
            Action::respond(c(2), ph(), RegInput::Read, RegOutput::Value(None)),
        ]);
        assert_eq!(chk.check(&t), Err(LinError::NotLinearizable));
    }

    #[test]
    fn register_overlapping_write_read_both_orders_ok() {
        let chk = LinChecker::owned(Register::new());
        for seen in [None, Some(3)] {
            let t: Trace<ObjAction<Register, ()>> = Trace::from_actions(vec![
                Action::invoke(c(1), ph(), RegInput::Write(3)),
                Action::invoke(c(2), ph(), RegInput::Read),
                Action::respond(c(2), ph(), RegInput::Read, RegOutput::Value(seen)),
                Action::respond(c(1), ph(), RegInput::Write(3), RegOutput::Ack),
            ]);
            assert!(chk.check(&t).is_ok(), "seen={seen:?}");
        }
    }

    #[test]
    fn commit_order_rules_out_equal_histories() {
        // Two responses cannot share one commit history: the second decision
        // must extend the chain, which forces a second occurrence of p(5).
        let t: Trace<CA> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(), p(5)),
            Action::respond(c(1), ph(), p(5), d(5)),
            Action::invoke(c(1), ph(), p(5)),
            Action::respond(c(1), ph(), p(5), d(5)),
        ]);
        let w = checker().check(&t).unwrap();
        let hs: Vec<usize> = w.assignments().cuts().iter().map(|&(_, len)| len).collect();
        assert_eq!(hs, vec![1, 2]);
    }

    #[test]
    fn a_witness_placing_one_commit_twice_is_invalid() {
        // Both clients propose 1 and decide 1. The mutant places c1's
        // response twice and c2's never: as many commits as the trace has,
        // each at an index that exists.
        let t: Trace<CA> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(), p(1)),
            Action::invoke(c(2), ph(), p(1)),
            Action::respond(c(1), ph(), p(1), d(1)),
            Action::respond(c(2), ph(), p(1), d(1)),
        ]);
        let witness = |cuts| LinWitness {
            assignments: Chain::new(vec![p(1), p(1)], cuts),
        };
        assert_eq!(checker().check(&t), Ok(witness(vec![(2, 1), (3, 2)])));
        assert!(witness_is_valid(
            &Consensus,
            &t,
            &witness(vec![(2, 1), (3, 2)])
        ));
        assert!(!witness_is_valid(
            &Consensus,
            &t,
            &witness(vec![(2, 1), (2, 2)])
        ));
    }
}
