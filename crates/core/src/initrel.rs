//! The common initialization relation `rinit` (paper Section 5.2).
//!
//! Speculation phases agree on a relation `rinit ⊆ Init × I_T*` mapping each
//! switch value to its set of *possible interpretations*: input histories,
//! all equivalent with respect to the ADT, one of which is a possible
//! linearization of the aborting phase's execution. The paper requires
//! `rinit⁻¹` to be a total onto function — every history is the
//! interpretation of some value.
//!
//! Checking speculative linearizability quantifies **universally** over
//! interpretations of init actions and **existentially** over
//! interpretations of abort actions (Definition 19), so a checker needs a
//! finite set of candidate histories per value:
//!
//! * for [`ExactInit`] (the Section 6 formalization, `rinit(h) = {h}`) the
//!   candidate set is exact, so the checker decides the definition;
//! * for [`ConsensusInit`] (the Section 2.4 mapping, `rinit(v)` = all
//!   histories starting with `propose(v)`) the image is infinite and
//!   [`InitRelation::candidates`] enumerates a *bounded adversarial* set:
//!   the singleton `[p(v)]` plus every two-element extension `[p(v), i]` by
//!   an input occurring in the trace. Because consensus histories collapse
//!   to the same ADT state after their first proposal (they are equivalent —
//!   see [`slin_adt::histories_equivalent`]), longer interpretations only
//!   add valid inputs and longer forced prefixes already witnessed by the
//!   two-element candidates; the workspace tests cross-check this
//!   enumeration against the paper's exact case analysis (invariants I1–I5).

use slin_adt::consensus::{ConsInput, Value};
use std::fmt::Debug;
use std::hash::Hash;

/// Context available when enumerating candidate interpretations: the inputs
/// occurring in the trace under scrutiny.
#[derive(Debug, Clone, Default)]
pub struct CandidateContext<I> {
    inputs: Vec<I>,
}

impl<I: Clone + Eq> CandidateContext<I> {
    /// Builds a context from the distinct inputs of a trace (first
    /// occurrence order, duplicates removed — the order the default
    /// [`InitRelation::extensions`] enumerates in), in O(n log n).
    pub fn new(inputs: Vec<I>) -> Self
    where
        I: Ord,
    {
        // The positions sorted by input, then by position: each run of
        // equal inputs starts at the input's first occurrence.
        let mut first: Vec<usize> = (0..inputs.len()).collect();
        first.sort_unstable_by(|&a, &b| inputs[a].cmp(&inputs[b]).then(a.cmp(&b)));
        first.dedup_by(|later, run| inputs[*later] == inputs[*run]);
        first.sort_unstable();
        CandidateContext {
            inputs: first.into_iter().map(|at| inputs[at].clone()).collect(),
        }
    }

    /// The distinct inputs observed in the trace.
    pub fn inputs(&self) -> &[I] {
        &self.inputs
    }
}

/// The common relation `rinit` between switch values and input histories.
pub trait InitRelation<I> {
    /// The switch value type `Init`.
    type Value: Clone + Eq + Hash + Debug;

    /// Whether `(value, history) ∈ rinit`.
    fn contains(&self, value: &Self::Value, history: &[I]) -> bool;

    /// A finite set of candidate interpretations of `value`, used to
    /// instantiate the **universal** quantifier of Definition 19 over init
    /// actions. Must be a subset of `rinit(value)`; when `rinit(value)` is
    /// finite the set should be exhaustive (making the check exact), and
    /// otherwise it should cover the adversarial corners (shortest
    /// interpretation, and agreeing/diverging extensions).
    fn candidates(&self, value: &Self::Value, ctx: &CandidateContext<I>) -> Vec<Vec<I>>;

    /// Histories in `rinit(value)` that extend `prefix`, used to instantiate
    /// the **existential** quantifier over abort actions: the abort history
    /// must extend every commit history (Abort-Order), so the checker asks
    /// the relation for members extending the longest one. Extra elements
    /// are drawn from `ctx`. The default filters [`InitRelation::candidates`]
    /// and appends one-input extensions of `prefix`.
    fn extensions(
        &self,
        value: &Self::Value,
        prefix: &[I],
        ctx: &CandidateContext<I>,
    ) -> Vec<Vec<I>>
    where
        I: Clone + Eq,
    {
        let mut out: Vec<Vec<I>> = self
            .candidates(value, ctx)
            .into_iter()
            .filter(|h| slin_trace::seq::is_prefix(prefix, h))
            .collect();
        if self.contains(value, prefix) {
            out.push(prefix.to_vec());
        }
        for i in ctx.inputs() {
            let mut h = prefix.to_vec();
            h.push(i.clone());
            if self.contains(value, &h) {
                out.push(h);
            }
        }
        out.dedup();
        out
    }

    /// Whether `value` projects per independence class as its one
    /// candidate interpretation `history` does — the switch-independence
    /// certificate's obligation (a) on this value: for every class
    /// (`same_class` says whether two inputs share one), the relation's
    /// projection of `value` onto it has exactly one candidate, the class
    /// projection of `history`. `None` (the default) declares the relation
    /// un-keyed, which disables the keyed phase-trace fast path — only
    /// relations whose candidate sets factor per class should override
    /// this. [`ExactInit`] is the repo's keyed init relation: values are
    /// histories, so a value projects as its history does.
    fn projects_like(
        &self,
        value: &Self::Value,
        history: &[I],
        same_class: &dyn Fn(&I, &I) -> bool,
    ) -> Option<bool> {
        let _ = (value, history, same_class);
        None
    }
}

/// Whether `a` and `b` have equal projections onto every class
/// (`same_class` says whether two inputs share one): the `j`-th input of
/// each class in `a` is the `j`-th of that class in `b`, and the lengths
/// agree. Quadratic, and allocation-free: histories are short.
pub(crate) fn projections_agree<I: PartialEq>(
    a: &[I],
    b: &[I],
    same_class: &dyn Fn(&I, &I) -> bool,
) -> bool {
    a.len() == b.len()
        && a.iter().enumerate().all(|(i, x)| {
            let rank = a[..i].iter().filter(|y| same_class(x, y)).count();
            b.iter().filter(|y| same_class(x, y)).nth(rank) == Some(x)
        })
}

/// The exact relation of the Section 6 formalization: switch values *are*
/// histories and `rinit(h) = {h}`.
///
/// # Example
///
/// ```
/// use slin_core::initrel::{CandidateContext, ExactInit, InitRelation};
/// let r = ExactInit::new();
/// let h = vec![1u8, 2];
/// assert!(r.contains(&h, &h));
/// assert!(!r.contains(&h, &[1u8]));
/// assert_eq!(r.candidates(&h, &CandidateContext::default()), vec![h.clone()]);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactInit;

impl ExactInit {
    /// Creates the exact (singleton) relation.
    pub fn new() -> Self {
        ExactInit
    }
}

impl<I: Clone + Eq + Hash + Debug> InitRelation<I> for ExactInit {
    type Value = Vec<I>;

    fn contains(&self, value: &Self::Value, history: &[I]) -> bool {
        value.as_slice() == history
    }

    fn candidates(&self, value: &Self::Value, _ctx: &CandidateContext<I>) -> Vec<Vec<I>> {
        vec![value.clone()]
    }

    /// `rinit(h) = {h}`: the one member extends `prefix` or nothing does —
    /// what the default enumeration finds, without trying every
    /// one-input extension of `prefix` against it.
    fn extensions(
        &self,
        value: &Self::Value,
        prefix: &[I],
        _ctx: &CandidateContext<I>,
    ) -> Vec<Vec<I>> {
        if slin_trace::seq::is_prefix(prefix, value) {
            vec![value.clone()]
        } else {
            Vec::new()
        }
    }

    /// `rinit(h|k) = {h|k}`: the value's class projections are `history`'s
    /// exactly when the two agree per class — at once when they are equal.
    fn projects_like(
        &self,
        value: &Self::Value,
        history: &[I],
        same_class: &dyn Fn(&I, &I) -> bool,
    ) -> Option<bool> {
        Some(value.as_slice() == history || projections_agree(value, history, same_class))
    }
}

/// The consensus mapping of Section 2.4: a switch value `v` of a client `c`
/// denotes the set of histories whose first invocation is `propose(v)` from
/// a client other than `c`, containing only invocations from clients other
/// than `c` — all equivalent, since the first proposal determines the
/// decided value.
///
/// Because histories are client-less input sequences, "invocations from
/// clients other than `c`" is modelled by extending interpretations with
/// *fresh* proposal values (values occurring nowhere in the trace): these
/// stand for proposals of clients that do not execute in the phase. The
/// adversarial corners of the universal quantifier are then the shortest
/// interpretation `[p(v)]`, two interpretations agreeing on a fresh
/// extension (longest forced common prefix), and interpretations diverging
/// on distinct fresh extensions (empty extra common prefix).
#[derive(Debug, Clone, Copy, Default)]
pub struct ConsensusInit;

impl ConsensusInit {
    /// Creates the consensus `rinit` mapping.
    pub fn new() -> Self {
        ConsensusInit
    }

    /// Two proposal values occurring nowhere in the observed inputs.
    fn fresh_values(ctx: &CandidateContext<ConsInput>) -> [Value; 2] {
        let max = ctx
            .inputs()
            .iter()
            .map(|i| i.value().get())
            .max()
            .unwrap_or(0);
        [Value::new(max + 1), Value::new(max + 2)]
    }
}

impl InitRelation<ConsInput> for ConsensusInit {
    type Value = Value;

    fn contains(&self, value: &Self::Value, history: &[ConsInput]) -> bool {
        history.first().is_some_and(|i| i.value() == *value)
    }

    fn candidates(
        &self,
        value: &Self::Value,
        ctx: &CandidateContext<ConsInput>,
    ) -> Vec<Vec<ConsInput>> {
        let head = ConsInput::propose(*value);
        let [f1, f2] = Self::fresh_values(ctx);
        vec![
            vec![head],
            vec![head, ConsInput::propose(f1)],
            vec![head, ConsInput::propose(f2)],
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_relation_is_singleton() {
        let r = ExactInit::new();
        let h = vec!['a', 'b'];
        assert!(r.contains(&h, &['a', 'b']));
        assert!(!r.contains(&h, &['a']));
        assert_eq!(r.candidates(&h, &CandidateContext::default()).len(), 1);
    }

    #[test]
    fn consensus_relation_requires_matching_head() {
        let r = ConsensusInit::new();
        let v = Value::new(4);
        assert!(r.contains(&v, &[ConsInput::propose(4), ConsInput::propose(9)]));
        assert!(!r.contains(&v, &[ConsInput::propose(9), ConsInput::propose(4)]));
        assert!(!r.contains(&v, &[]));
    }

    #[test]
    fn consensus_candidates_use_fresh_extensions() {
        let r = ConsensusInit::new();
        let ctx = CandidateContext::new(vec![ConsInput::propose(1), ConsInput::propose(2)]);
        let cands = r.candidates(&Value::new(7), &ctx);
        assert_eq!(cands.len(), 3);
        assert!(cands.iter().all(|h| r.contains(&Value::new(7), h)));
        // Extensions are fresh: they collide with no observed input.
        for h in &cands {
            for i in &h[1..] {
                assert!(!ctx.inputs().contains(i), "{i:?} not fresh");
            }
        }
        // All candidates are pairwise equivalent w.r.t. the consensus ADT.
        use slin_adt::{histories_equivalent, Consensus};
        for a in &cands {
            for b in &cands {
                assert!(histories_equivalent(&Consensus::new(), a, b));
            }
        }
    }

    #[test]
    fn consensus_extensions_extend_the_prefix() {
        let r = ConsensusInit::new();
        let ctx = CandidateContext::new(vec![ConsInput::propose(4), ConsInput::propose(9)]);
        let prefix = vec![ConsInput::propose(4), ConsInput::propose(9)];
        let exts = r.extensions(&Value::new(4), &prefix, &ctx);
        assert!(exts.iter().all(|h| r.contains(&Value::new(4), h)));
        assert!(exts.iter().all(|h| slin_trace::seq::is_prefix(&prefix, h)));
        // The prefix itself is a valid abort history here.
        assert!(exts.contains(&prefix));
        // No extension exists when the prefix head disagrees with the value.
        let none = r.extensions(&Value::new(9), &prefix, &ctx);
        assert!(none.is_empty());
    }

    #[test]
    fn exact_extensions_are_the_value_itself() {
        let r = ExactInit::new();
        let v = vec![1u8, 2, 3];
        let ctx = CandidateContext::new(vec![1u8, 2, 3]);
        assert_eq!(r.extensions(&v, &[1u8, 2], &ctx), vec![v.clone()]);
        assert!(r.extensions(&v, &[2u8], &ctx).is_empty());
    }

    #[test]
    fn exact_projection_filters_the_history() {
        let r = ExactInit::new();
        let parity = |a: &u8, b: &u8| a % 2 == b % 2;
        let v = vec![1u8, 2, 3, 2];
        // Its own candidate, and any history with the same projections
        // ([1, 3] odd, [2, 2] even), whatever the interleaving.
        assert_eq!(r.projects_like(&v, &v, &parity), Some(true));
        assert_eq!(r.projects_like(&v, &[2, 1, 2, 3], &parity), Some(true));
        // A class projection in another order, or another length.
        assert_eq!(r.projects_like(&v, &[3, 2, 1, 2], &parity), Some(false));
        assert_eq!(r.projects_like(&v, &[1, 2, 3], &parity), Some(false));
        assert!(projections_agree::<u8>(&[], &[], &parity));
    }

    #[test]
    fn consensus_relation_is_not_keyed() {
        let r = ConsensusInit::new();
        let h = [ConsInput::propose(1)];
        assert!(r.projects_like(&Value::new(1), &h, &|_, _| true).is_none());
    }

    #[test]
    fn candidate_context_dedups() {
        let ctx = CandidateContext::new(vec![1u8, 1, 2]);
        assert_eq!(ctx.inputs(), &[1, 2]);
    }

    proptest::proptest! {
        /// The sort-based dedup against the quadratic reading it replaced,
        /// on inputs with repeats: the distinct inputs, first occurrences
        /// in trace order.
        #[test]
        fn candidate_context_keeps_first_occurrences(
            inputs in proptest::collection::vec(0..6u8, 0..40),
        ) {
            let mut quadratic: Vec<u8> = Vec::new();
            for &i in &inputs {
                if !quadratic.contains(&i) {
                    quadratic.push(i);
                }
            }
            let ctx = CandidateContext::new(inputs);
            proptest::prop_assert_eq!(ctx.inputs(), quadratic.as_slice());
        }
    }
}
