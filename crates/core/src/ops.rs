//! Parsing traces into operations and per-index input summaries.
//!
//! Shared plumbing for the checkers: the sequence of previous inputs
//! `inputs(t, i)` (Definition 9), the identification of commit / init /
//! abort indices (Definitions 8, 22–24), and the pairing of invocations
//! with their responses used by the classical checker.

use crate::ObjAction;
use slin_adt::Adt;
use slin_trace::{Action, ClientId, PersistentMultiset, PhaseId, Trace};
use std::collections::BTreeMap;

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
/// (the `elems(inputs(t, i))` of Definition 10), one snapshot per index:
/// the definition as written, kept as the reference the checkers' count
/// table ([`Bounds`]) is tested against. Each invocation copies the
/// snapshot before it, so a trace costs O(α) per invoke, α its distinct
/// inputs: a test oracle's price, not a checker's.
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

/// Definition 10's validity bounds of `t` as one count table: an
/// invocation at index `j` is an occurrence of its input in every bound
/// from `j + 1` on.
pub(crate) fn input_bounds<T: Adt<Input: Ord>, V>(t: &Trace<ObjAction<T, V>>) -> Bounds<T::Input> {
    let mut bounds = Bounds::new();
    for (j, a) in t.iter().enumerate() {
        if let Action::Invoke { input, .. } = a {
            bounds.add(j + 1, input);
        }
    }
    bounds
}

/// The validity bounds of a trace (Definitions 10 and 26), one cumulative
/// count table: the bound at trace index `i` holds `count(i, e)`
/// occurrences of each input `e`.
///
/// Both definitions' bounds are prefix-cumulative — an occurrence, once
/// valid, stays valid at every later index — so the table keeps, per
/// input, a base count (the occurrences valid everywhere, such as those a
/// streaming window retired) and the ascending indices from which its
/// other occurrences are valid. One table answers every index; nothing is
/// copied per index, and the bounds are monotone by construction.
///
/// Its rows are in the order their inputs were met, and a row's position
/// is its input's **class**: a streaming shard's class table is these
/// rows, so its search engines, its consumed-input count tables and its
/// commits all index them (see [`crate::engine`]). A new input is a row at
/// the end, so no class moves. A shard drops the rows nothing it retains
/// can consume any more when it retires a window; nothing else removes
/// one.
#[derive(Debug, Clone)]
pub struct Bounds<I> {
    /// One row per input met, in the order met.
    rows: Vec<(I, Row)>,
    /// Every row's class by its input: a lookup or an insertion in
    /// O(log α), and the classes in input order.
    index: BTreeMap<I, usize>,
}

#[derive(Debug, Clone, Default)]
struct Row {
    /// Occurrences valid at every index.
    base: usize,
    /// Per further occurrence, the first index whose bound holds it,
    /// ascending.
    from: Vec<usize>,
}

impl Row {
    /// Occurrences the bound at index `i` holds.
    fn count(&self, i: usize) -> usize {
        self.base + self.from.partition_point(|&f| f <= i)
    }

    /// Occurrences the last bound holds.
    fn total(&self) -> usize {
        self.base + self.from.len()
    }
}

impl<I> Bounds<I> {
    /// The table of empty bounds.
    pub(crate) fn new() -> Self {
        Bounds {
            rows: Vec::new(),
            index: BTreeMap::new(),
        }
    }

    /// Every input of the last bound — every input a history may consume —
    /// with its multiplicity, ascending by input.
    pub(crate) fn pool(&self) -> impl Iterator<Item = (&I, usize)> + '_ {
        (self.index.iter()).map(|(e, &class)| (e, self.rows[class].1.total()))
    }

    /// Every class, ascending by its input.
    pub(crate) fn by_input(&self) -> impl Iterator<Item = usize> + '_ {
        self.index.values().copied()
    }

    /// How many classes (rows) the table has.
    pub(crate) fn classes(&self) -> usize {
        self.rows.len()
    }

    /// The input of class `class`.
    pub(crate) fn input(&self, class: usize) -> &I {
        &self.rows[class].0
    }

    /// How many occurrences of class `class`'s input the last bound holds.
    pub(crate) fn pool_of(&self, class: usize) -> usize {
        self.rows[class].1.total()
    }

    /// How many occurrences of class `class`'s input the bound at index `i`
    /// holds.
    pub(crate) fn class_count(&self, i: usize, class: usize) -> usize {
        self.rows[class].1.count(i)
    }

    /// Whether consumed inputs counted per class of this table — none of a
    /// class past the end of `used` — lie inside the bound at index `i`.
    pub(crate) fn covers(&self, i: usize, used: &[usize]) -> bool {
        used.len() <= self.rows.len()
            && (used.iter().enumerate()).all(|(class, &n)| n <= self.class_count(i, class))
    }

    /// One more occurrence of class `class`'s input in the bound at every
    /// index from `from` on.
    pub(crate) fn add_at(&mut self, class: usize, from: usize) {
        let from_list = &mut self.rows[class].1.from;
        // The checkers add occurrences in index order: this is a push.
        let slot = from_list.partition_point(|&f| f <= from);
        from_list.insert(slot, from);
    }

    /// Whether class `class` gained an occurrence since the last
    /// [`Bounds::collapse`] (or since the table was made).
    pub(crate) fn added_since_collapse(&self, class: usize) -> bool {
        !self.rows[class].1.from.is_empty()
    }

    /// Folds every occurrence into the base: the bound at every index is
    /// now the last one. A streaming window's retirement, after which its
    /// indices start again at 0. Keeps every row and its capacity.
    pub(crate) fn collapse(&mut self) {
        for (_, row) in &mut self.rows {
            row.base += row.from.len();
            row.from.clear();
        }
    }
}

impl<I: Ord> Bounds<I> {
    /// The class of `e`, if the table has met it.
    pub(crate) fn class(&self, e: &I) -> Option<usize> {
        self.index.get(e).copied()
    }

    /// The class of `e`: a new row with no occurrence, at the end, when the
    /// table has not met it.
    pub(crate) fn insert_class(&mut self, e: &I) -> usize
    where
        I: Clone,
    {
        if let Some(&class) = self.index.get(e) {
            return class;
        }
        let class = self.rows.len();
        self.rows.push((e.clone(), Row::default()));
        self.index.insert(e.clone(), class);
        class
    }

    /// One more occurrence of `e` in the bound at every index from `from`
    /// on.
    pub(crate) fn add(&mut self, from: usize, e: &I)
    where
        I: Clone,
    {
        let class = self.insert_class(e);
        self.add_at(class, from);
    }

    /// How many occurrences of `e` the bound at index `i` holds.
    pub(crate) fn count(&self, i: usize, e: &I) -> usize {
        self.class(e).map_or(0, |class| self.class_count(i, class))
    }

    /// Drops the rows `spent` marks, one flag per class: the classes after
    /// each move down, in the order they were.
    pub(crate) fn drop_classes(&mut self, spent: &[bool]) {
        let mut kept = 0;
        let moved: Vec<Option<usize>> = (spent.iter())
            .map(|&spent| {
                kept += usize::from(!spent);
                (!spent).then(|| kept - 1)
            })
            .collect();
        let mut spent = spent.iter();
        self.rows
            .retain(|_| !spent.next().expect("one flag per class"));
        self.index.retain(|_, class| match moved[*class] {
            Some(to) => {
                *class = to;
                true
            }
            None => false,
        });
    }
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

    /// The count table against the snapshots it replaced, count by count:
    /// at every index of random traces — single- and multi-key, with and
    /// without switch actions — for every input a snapshot or the table
    /// holds; and collapsed, every index reads the last snapshot.
    #[test]
    fn the_count_table_counts_what_the_snapshots_hold() {
        use crate::gen::{random_multikey_kv_trace, random_phase_kv_trace};
        use crate::gen::{MultiKeyConfig, PhaseConfig};
        use proptest::prelude::*;
        use slin_adt::KvStore;
        fn agree<Vs>(t: &Trace<ObjAction<KvStore, Vs>>) -> Result<usize, TestCaseError> {
            let snapshots = input_multisets::<KvStore, Vs>(t);
            let mut table = input_bounds::<KvStore, Vs>(t);
            for (i, snapshot) in snapshots.iter().enumerate() {
                let inputs = snapshot
                    .iter()
                    .map(|(e, _)| e)
                    .chain(table.pool().map(|(e, _)| e));
                for e in inputs {
                    prop_assert_eq!(table.count(i, e), snapshot.count(e), "{:?} at {}", e, i);
                }
                let used: Vec<usize> = (0..table.classes())
                    .map(|class| snapshot.count(table.input(class)))
                    .collect();
                prop_assert!(table.covers(i, &used));
            }
            let last = snapshots
                .last()
                .expect("one snapshot per index and one more");
            let pool: Vec<_> = table.pool().map(|(e, n)| (*e, n)).collect();
            prop_assert!(pool.windows(2).all(|w| w[0].0 < w[1].0));
            prop_assert!(pool.iter().all(|(e, n)| last.count(e) == *n));
            prop_assert_eq!(pool.iter().map(|(_, n)| n).sum::<usize>(), last.len());
            table.collapse();
            for (e, n) in last.iter() {
                prop_assert_eq!((table.count(0, e), table.count(t.len(), e)), (n, n));
            }
            Ok(last.len())
        }
        let mut invocations = 0;
        let config = (1..5u32, 0..80usize, 1..4u32, any::<u64>(), prop::bool::ANY);
        TestRunner::new(ProptestConfig::with_cases(400)).run_cases(
            "the_count_table_counts_what_the_snapshots_hold",
            |rng| {
                let (clients, steps, keys, seed, phased) = config.new_value(rng);
                invocations += if phased {
                    agree(&random_phase_kv_trace(&PhaseConfig {
                        clients,
                        steps,
                        keys,
                        seed,
                        ..PhaseConfig::default()
                    }))
                } else {
                    agree(&random_multikey_kv_trace(&MultiKeyConfig {
                        clients,
                        steps,
                        keys,
                        seed,
                        ..MultiKeyConfig::default()
                    }))
                }?;
                Ok(())
            },
        );
        assert!(
            invocations > 5_000,
            "a vacuous corpus: {invocations} invocations"
        );
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
