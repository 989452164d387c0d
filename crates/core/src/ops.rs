//! Parsing traces into operations and per-index input summaries.
//!
//! Shared plumbing for the checkers: the sequence of previous inputs
//! `inputs(t, i)` (Definition 9), the identification of commit / init /
//! abort indices (Definitions 8, 22–24), and the pairing of invocations
//! with their responses used by the classical checker.

use crate::ObjAction;
use slin_adt::Adt;
use slin_trace::{Action, ClientId, PersistentMultiset, PhaseId, Trace};

/// The sequence of previous inputs `inputs(t, i)`: all inputs *invoked*
/// strictly before index `i` (0-based), in trace order.
///
/// Only [`Action::Invoke`] events contribute: inputs carried by switch
/// actions enter the valid-input set through `ivi` (Definition 25) instead.
pub fn inputs_before<T: Adt, V>(t: &Trace<ObjAction<T, V>>, i: usize) -> Vec<T::Input> {
    t.as_slice()[..i]
        .iter()
        .filter_map(|a| match a {
            Action::Invoke { input, .. } => Some(input.clone()),
            _ => None,
        })
        .collect()
}

/// For every index `i`, the multiset of inputs invoked strictly before `i`
/// (the `elems(inputs(t, i))` of Definition 10), computed incrementally.
///
/// The snapshots are [`PersistentMultiset`]s sharing structure with their
/// neighbours, so materialising all `n + 1` of them costs O(n) — pushing
/// one more snapshot is an O(1) clone plus an O(log alphabet) insert, not
/// an O(alphabet) deep copy.
pub fn input_multisets<T: Adt, V>(t: &Trace<ObjAction<T, V>>) -> Vec<PersistentMultiset<T::Input>> {
    let mut out = Vec::with_capacity(t.len() + 1);
    let mut cur: PersistentMultiset<T::Input> = PersistentMultiset::new();
    out.push(cur.clone());
    for a in t.iter() {
        if let Action::Invoke { input, .. } = a {
            cur.insert(input.clone());
        }
        out.push(cur.clone());
    }
    out
}

/// A commit index of a trace: a response event (Definition 8 / 22).
#[derive(Debug, PartialEq, Eq)]
pub struct Commit<T: Adt> {
    /// Position of the response in the trace (0-based).
    pub index: usize,
    /// The input being answered (the required last element of the commit
    /// history).
    pub input: T::Input,
    /// The output returned (what the commit history must *explain*).
    pub output: T::Output,
}

// Manual impl: the derive would demand `T: Clone`, but only the input and
// output types are cloned.
impl<T: Adt> Clone for Commit<T> {
    fn clone(&self) -> Self {
        Commit {
            index: self.index,
            input: self.input.clone(),
            output: self.output.clone(),
        }
    }
}

/// Collects the commit indices of a trace in order.
pub fn commits<T: Adt, V>(t: &Trace<ObjAction<T, V>>) -> Vec<Commit<T>> {
    t.iter()
        .enumerate()
        .filter_map(|(index, a)| match a {
            Action::Respond { input, output, .. } => Some(Commit {
                index,
                input: input.clone(),
                output: output.clone(),
            }),
            _ => None,
        })
        .collect()
}

/// A switch event (an init index when labelled `m`, an abort index when
/// labelled `n` — Definitions 23–24).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SwitchEvent<I, V> {
    /// Position of the switch in the trace (0-based).
    pub index: usize,
    /// The pending input carried by the switch.
    pub input: I,
    /// The switch value.
    pub value: V,
}

/// Collects the switch events labelled with phase `label`.
pub fn switches<T: Adt, V: Clone>(
    t: &Trace<ObjAction<T, V>>,
    label: PhaseId,
) -> Vec<SwitchEvent<T::Input, V>> {
    t.iter()
        .enumerate()
        .filter_map(|(index, a)| match a {
            Action::Switch {
                phase,
                input,
                value,
                ..
            } if *phase == label => Some(SwitchEvent {
                index,
                input: input.clone(),
                value: value.clone(),
            }),
            _ => None,
        })
        .collect()
}

/// A complete or pending operation, as used by the classical checker:
/// an invocation paired with its response (if any).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Operation<T: Adt> {
    /// The performing client.
    pub client: ClientId,
    /// Index of the invocation event.
    pub invoke_index: usize,
    /// Index of the response event, or `None` if the operation is pending.
    pub respond_index: Option<usize>,
    /// The invoked input.
    pub input: T::Input,
    /// The returned output, if the operation completed.
    pub output: Option<T::Output>,
}

impl<T: Adt> Operation<T> {
    /// Whether the operation has no response in the trace.
    pub(crate) fn is_pending(&self) -> bool {
        self.respond_index.is_none()
    }
}

/// Pairs invocations with responses per client (assumes a well-formed trace
/// with no switch actions; see [`crate::lin::LinError::SwitchAction`]).
pub fn operations<T: Adt, V>(t: &Trace<ObjAction<T, V>>) -> Vec<Operation<T>> {
    let mut open: std::collections::HashMap<ClientId, usize> = std::collections::HashMap::new();
    let mut ops: Vec<Operation<T>> = Vec::new();
    for (i, a) in t.iter().enumerate() {
        match a {
            Action::Invoke { client, input, .. } => {
                let op = Operation {
                    client: *client,
                    invoke_index: i,
                    respond_index: None,
                    input: input.clone(),
                    output: None,
                };
                open.insert(*client, ops.len());
                ops.push(op);
            }
            Action::Respond { client, output, .. } => {
                if let Some(&k) = open.get(client) {
                    ops[k].respond_index = Some(i);
                    ops[k].output = Some(output.clone());
                    open.remove(client);
                }
            }
            Action::Switch { .. } => {}
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use slin_adt::{ConsInput, ConsOutput, Consensus};

    type V = u8;
    type A = ObjAction<Consensus, V>;

    fn c(n: u32) -> ClientId {
        ClientId::new(n)
    }
    fn p(v: u64) -> ConsInput {
        ConsInput::propose(v)
    }
    fn d(v: u64) -> ConsOutput {
        ConsOutput::decide(v)
    }

    fn sample() -> Trace<A> {
        Trace::from_actions(vec![
            Action::invoke(c(1), PhaseId::FIRST, p(1)),
            Action::invoke(c(2), PhaseId::FIRST, p(2)),
            Action::respond(c(2), PhaseId::FIRST, p(2), d(2)),
            Action::switch(c(1), PhaseId::new(2), p(1), 9),
        ])
    }

    #[test]
    fn inputs_before_counts_only_invocations() {
        let t = sample();
        assert_eq!(inputs_before::<Consensus, V>(&t, 0).len(), 0);
        assert_eq!(inputs_before::<Consensus, V>(&t, 2), vec![p(1), p(2)]);
        // The switch at index 3 does not add an input.
        assert_eq!(inputs_before::<Consensus, V>(&t, 4), vec![p(1), p(2)]);
    }

    #[test]
    fn input_multisets_are_cumulative() {
        let t = sample();
        let ms = input_multisets::<Consensus, V>(&t);
        assert_eq!(ms.len(), t.len() + 1);
        assert_eq!(ms[0].len(), 0);
        assert_eq!(ms[2].len(), 2);
        assert_eq!(ms[4].len(), 2);
    }

    #[test]
    fn commits_found() {
        let t = sample();
        let cs = commits::<Consensus, V>(&t);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].index, 2);
        assert_eq!(cs[0].output, d(2));
    }

    #[test]
    fn switches_filtered_by_label() {
        let t = sample();
        assert_eq!(switches::<Consensus, V>(&t, PhaseId::new(2)).len(), 1);
        assert_eq!(switches::<Consensus, V>(&t, PhaseId::new(3)).len(), 0);
    }

    #[test]
    fn operations_pair_inv_with_res() {
        let t = sample();
        let ops = operations::<Consensus, V>(&t);
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].client, c(1));
        assert!(ops[0].is_pending() || ops[0].respond_index.is_some());
        assert_eq!(ops[1].output, Some(d(2)));
        // c1 never got a response (it switched) — pending as an operation.
        assert!(ops[0].is_pending());
    }
}
