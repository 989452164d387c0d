//! The [`ConsistencyModel`] abstraction: a model *states* a search
//! problem, the crate *searches* it.
//!
//! Every criterion this crate decides has the same shape: place the
//! commits of a trace on one growing chain of histories, each history
//! drawing its inputs from a per-index validity bound, the whole chain
//! extending a seed history, and a completed chain accepted or vetoed by a
//! leaf oracle. A model's business is to say what those four things are
//! for a validated trace — a [`Problem`] — and, along a
//! [`slin_adt::Partitioner`], what they are for each independence class —
//! a [`Projection`]. Plain linearizability states Definition 10 (bounds
//! `elems(inputs(t, i))`, empty seed, trivial leaf); speculative
//! linearizability states Definitions 26–31 for one interpretation of the
//! init actions (bounds `vi`, the init LCP as seed, abort feasibility at
//! the leaf). A class problem projects the whole one (`Problem::classes`):
//! its commits on the class's inputs, trace indices kept, the class
//! projection of its pool, and its bounds, shared — exact because the
//! engine reads a bound only at the class's own inputs. The models state
//! the class seeds and leaves.
//!
//! Searching is not a model's business because it does not depend on the
//! model: `Problem::search` is the one way a problem meets the
//! [`crate::engine`] (its [`LeafFn`] is the engine's leaf oracle, handed
//! through as it is), and `partition::check` in [`crate::partition`] is
//! the one routine that searches what a model states — for both models,
//! for a session's closed traces and for the streaming monitor's
//! re-checks of its record alike (a single checking judgment over many
//! consistency models, as refinement-based frameworks present it). It
//! searches a projection's classes in key order up to the first that
//! fails, merges the class chains into the monolithic first witness and
//! re-derives it whole when the merge cannot predict it; or it searches a
//! trace checked whole once per interpretation — speculative
//! linearizability quantifies over *every* init interpretation, a finite
//! list of problems [`ConsistencyModel::project`] states one at a time.
//! What is left model-specific is the statement, the witness, and how the
//! model's errors read as a rolling status
//! ([`ConsistencyModel::status_of_error`]). A verdict the streaming
//! monitor derives from its shard windows is the engine's own outcome; it
//! becomes the model's error through the three conversions the
//! [`ConsistencyModel::Error`] bound names — from the validator's
//! [`Invalid`], from an [`EngineError`], and from a [`Refuted`] search,
//! the one refutation each model states. Limits are not a model's business
//! either: the [`crate::session`] owns the search budget and the thread
//! bound and hands them to the routine, so no model method receives
//! either.
//!
//! # Model ownership
//!
//! A model **owns** its ADT behind an [`Arc`] (every repo ADT is a
//! zero-sized unit struct, so the sharing is free): checkers, sessions
//! and monitors are `'static` and can live in long-lived tenant tables.
//! [`ConsistencyModel::adt`] hands the handle back: borrow through it for
//! transient use, clone it for consumers that outlive the borrow (the
//! monitor's shard table).

use crate::engine::{
    Chain, CheckerEngine, CommitMask, EngineError, Found, Refuted, SearchBudget, SearchSeed,
};
use crate::ops::{Bounds, Commit};
use crate::partition::FallbackReason;
use crate::stream::MonitorStatus;
use crate::ObjAction;
use slin_adt::{Adt, Partitioner};
use slin_trace::wf::Invalid;
use slin_trace::{PhaseId, Trace};
use std::fmt::Debug;
use std::rc::Rc;
use std::sync::Arc;

/// One chain-search problem: what `Problem::search` hands the engine.
///
/// A model states one for a whole trace and, inside a [`Projection`], one
/// per independence class. Commit indices are trace indices in both.
pub struct Problem<'m, T: Adt, L> {
    /// The commits to place, ascending in trace index.
    pub commits: Vec<Commit<T>>,
    /// The validity bound at every trace index, one cumulative count
    /// table. A projection's class problems share the whole problem's.
    pub bounds: Rc<Bounds<T::Input>>,
    /// Every input a history may consume, with its multiplicity, ascending
    /// by input: the last bound's entries (`pool_of`), or their class's.
    pub pool: Vec<(T::Input, usize)>,
    /// The history every chain element extends.
    pub seed: Vec<T::Input>,
    /// The leaf oracle, asked with the chain's longest history (the seed
    /// when nothing commits): the leaf witness, or `None` to veto.
    pub leaf: LeafFn<'m, T::Input, L>,
}

/// A [`Problem`]'s leaf oracle, consulted once every commit is placed with
/// the chain's longest history: the leaf witness, or `None` to veto the
/// leaf and force further backtracking. The engine's stop-at-first search
/// takes it as it is.
///
/// # Soundness contract
///
/// The engine memoises dead-ends on `(remaining commits, ADT state,
/// consumed-input multiset)` — **not** on the ordered history. A vetoed
/// subtree therefore prunes every other path reaching the same key, so the
/// oracle's verdict must not distinguish two histories that agree on that
/// key: it may depend on the history only through data the key determines.
/// Both models satisfy this — `lin`'s oracle is constant, and `slin`'s
/// abort-feasibility is key-invariant for the shipped relations: every
/// history is seeded with the init LCP (making the Init-Order prefix check
/// stable), validity is checked on element *multisets*, and the
/// exact/consensus relations' extension sets distinguish histories only
/// through their first element (determined by the consensus ADT state) or
/// their full sequence (determined by the universal ADT state). An
/// order-sensitive oracle over an ADT whose states merge commuting input
/// orders would need the memo disabled (or keyed on the history) to stay
/// exact.
pub type LeafFn<'m, I, L> = Box<dyn Fn(&[I]) -> Option<L> + 'm>;

impl<T: Adt, L> Problem<'_, T, L>
where
    T::Input: Ord,
{
    /// Searches the problem for its first chain under a node `budget`.
    pub(crate) fn search(&self, adt: &T, budget: usize) -> Found<T::Input, L> {
        let engine = CheckerEngine::new(
            adt,
            &self.commits,
            &self.bounds,
            self.pool.iter().map(|(i, n)| (i, *n)),
            SearchBudget::new(budget),
        );
        engine.first_solution(
            SearchSeed::from_history(adt, self.seed.clone()),
            CommitMask::full(self.commits.len()),
            &*self.leaf,
        )
    }

    /// This (whole) problem's projection onto `count` independence classes,
    /// in class order: each class takes the commits on its inputs and the
    /// class projection of the pool (`class_of` classifies an input), and
    /// reads these bounds. `state` states class `k`'s seed and leaf.
    ///
    /// One pass classifies the commits and the pool entries; each class's
    /// commits and pool are then one exact-size vector each (a class pool
    /// stays ascending: it is a subsequence of the whole one).
    pub(crate) fn classes<'c, C>(
        &self,
        count: usize,
        class_of: impl Fn(&T::Input) -> usize,
        mut state: impl FnMut(usize) -> (Vec<T::Input>, LeafFn<'c, T::Input, C>),
    ) -> Vec<Problem<'c, T, C>> {
        /// The `items` classified `k`, cloned into an exact-size vector.
        fn bucket<X: Clone>(items: &[X], classes: &[usize], k: usize) -> Vec<X> {
            let mut out = Vec::with_capacity(classes.iter().filter(|&&c| c == k).count());
            let mine = items.iter().zip(classes).filter(|&(_, &c)| c == k);
            out.extend(mine.map(|(x, _)| x.clone()));
            out
        }
        let commit_class: Vec<usize> = self.commits.iter().map(|c| class_of(&c.input)).collect();
        let pool_class: Vec<usize> = self.pool.iter().map(|(i, _)| class_of(i)).collect();
        (0..count)
            .map(|k| {
                let (seed, leaf) = state(k);
                Problem {
                    commits: bucket(&self.commits, &commit_class, k),
                    bounds: Rc::clone(&self.bounds),
                    pool: bucket(&self.pool, &pool_class, k),
                    seed,
                    leaf,
                }
            })
            .collect()
    }
}

/// A whole problem's pool: the entries of the last validity bound,
/// ascending by input.
pub(crate) fn pool_of<I: Clone>(bounds: &Bounds<I>) -> Vec<(I, usize)> {
    bounds.pool().map(|(i, n)| (i.clone(), n)).collect()
}

/// A model's statement of what there is to search in a trace.
pub enum Projection<'m, T: Adt, L, E> {
    /// The trace is outside the model's signature or well-formedness
    /// discipline, or past the interpretation cap: the rejection.
    Rejected {
        /// The model's error.
        error: E,
        /// Why the trace does not decompose, when its classes said so
        /// before it was validated.
        fallback: Option<FallbackReason>,
    },
    /// The validated trace, checked whole: it must hold under each of its
    /// `interpretations` (1 for plain linearizability; one per combination
    /// of init-action candidates for the speculative one), stated one at a
    /// time, on demand and on any thread, by `interpretation`.
    Whole {
        /// Classes found (0 for an empty trace, 1 otherwise).
        partitions: usize,
        /// Why the trace does not decompose, if it should have.
        fallback: Option<FallbackReason>,
        /// How many interpretations there are: at least 1.
        interpretations: usize,
        /// The `k`-th interpretation's problem and refutation.
        interpretation: Interpretation<'m, T, L, E>,
    },
    /// The validated trace's one interpretation, whole and per class.
    Classes {
        /// The whole problem: the merge replays the class chains against
        /// its bounds from its seed, re-discharges its leaf on the merged
        /// chain, and a bail searches it.
        whole: Problem<'m, T, L>,
        /// The class problems, in ascending key order: projections of the
        /// whole one (`Problem::classes`), over its bounds.
        classes: Vec<Problem<'m, T, ()>>,
        /// What an exhausted search space means — a class without a chain
        /// refutes the whole problem too. Built on demand: rendering an
        /// interpretation is not free, and most checks pass.
        refuted: Box<dyn Fn() -> E + 'm>,
    },
}

/// [`Projection::Whole`]'s statement of the `k`-th interpretation: its
/// problem, and what an exhausted search space means under it.
pub(crate) type Interpretation<'m, T, L, E> =
    Box<dyn Fn(usize) -> (Problem<'m, T, L>, Box<dyn Fn() -> E + 'm>) + Sync + 'm>;

/// A consistency criterion decided by the shared chain-search engine.
///
/// `V` is the switch-value type of the traces the model checks (plain
/// linearizability is indifferent to it — switch actions are errors —
/// while speculative linearizability fixes it to its init relation's
/// value type). Implementations: [`crate::lin::LinChecker`] and
/// [`crate::slin::SlinChecker`].
///
/// The contract every implementation upholds: a trace is validated once,
/// by [`ConsistencyModel::project`], and stated whole or per class; the
/// whole problem beside a projection's classes is the problem its one
/// interpretation states whole, so that its first chain, wrapped by
/// [`ConsistencyModel::witness`], is the verdict of checking the trace
/// whole; and every class problem is a projection of the whole one, so
/// that a class without a chain refutes it and the engine-order replay of
/// the class chains reconstructs its first chain (see [`crate::partition`]
/// for why the merge is exact). No method takes a node budget or a thread
/// bound: `partition::check` searches what a model states, under the
/// session's.
///
/// The `Send` and `Sync` bounds let the interpretations of a trace checked
/// whole be stated and searched on several threads.
pub trait ConsistencyModel<V>: Sized {
    /// The abstract data type whose outputs the criterion must explain.
    type Adt: Adt<Input: Send> + Sync;
    /// The witness of a successful check ([`crate::lin::LinWitness`] /
    /// [`crate::slin::SlinWitness`]): the proof alone, the work it took
    /// being the verdict's [`SearchStats`](crate::engine::SearchStats).
    type Witness: Clone + PartialEq + Debug;
    /// Why a check failed (`LinError` / `SlinError`): a trace outside the
    /// model's signature or well-formedness discipline, a tripped budget,
    /// or a refuted search — the last one without an init interpretation
    /// to name, as a shard window holds no switch action.
    type Error: Clone + PartialEq + Debug + Send + From<Invalid> + From<EngineError> + From<Refuted>;
    /// What the leaf oracle of the model's problems yields beside the
    /// chain (nothing for plain linearizability; the init and abort
    /// interpretations for the speculative one). The default is the leaf
    /// of a problem without switch actions.
    type Leaf: Default + Send;

    /// The checked ADT, behind the handle long-lived consumers clone.
    fn adt(&self) -> &Arc<Self::Adt>;

    /// The speculation phase `(m, n)` for phase-signature criteria, `None`
    /// for plain object criteria. Drives the well-formedness validator, and
    /// tells the streaming monitor whether a switch action decides the
    /// verdict (`None`) or defers it to re-checks of the record (`Some`).
    fn phase_bounds(&self) -> Option<(PhaseId, PhaseId)>;

    /// Short type name of the init relation the model interprets switch
    /// values with, or `None` for criteria without switches. A
    /// switch-independence certificate (`slin-cert/v2`) must name this
    /// relation to let traces with switch actions decompose.
    fn init_relation_name(&self) -> Option<&'static str> {
        None
    }

    /// Maps a batch-check failure onto the rolling [`MonitorStatus`] (the
    /// streaming monitor resolves [`MonitorStatus::Deferred`] with it).
    fn status_of_error(e: &Self::Error) -> MonitorStatus;

    /// States what there is to search in `t`, validating it against the
    /// model's signature and well-formedness discipline (once: every answer
    /// but a rejection is of a validated trace). Without a `partitioner`
    /// the answer is [`Projection::Rejected`] or [`Projection::Whole`];
    /// along one, [`Projection::Classes`] where the trace decomposes into
    /// two or more classes, and [`Projection::Whole`] — with the
    /// [`FallbackReason`], if it should have — where it does not.
    ///
    /// Given a partitioner only where a check decomposes
    /// (`partition::decomposes`), so any switch action in `t` is covered by
    /// a verified switch-independence certificate and may be classified per
    /// class (by pending input and by the class projection of its value's
    /// interpretation).
    fn project<'a, P: Partitioner<Self::Adt>>(
        &'a self,
        partitioner: Option<&P>,
        t: &'a Trace<ObjAction<Self::Adt, V>>,
    ) -> Projection<'a, Self::Adt, Self::Leaf, Self::Error>;

    /// Wraps a found chain and its leaf witness into the model's witness.
    fn witness(chain: Chain<<Self::Adt as Adt>::Input>, leaf: Self::Leaf) -> Self::Witness;
}
