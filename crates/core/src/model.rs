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
//! `elems(inputs(t, i))`, empty seed, trivial leaf) and projects by
//! splitting the trace per key; speculative linearizability states
//! Definitions 26–31 for one interpretation of the init actions (bounds
//! `vi`, the init LCP as seed, abort feasibility at the leaf) and projects
//! each of them per class.
//!
//! Searching is not a model's business because it does not depend on the
//! model: `Problem::search` is the one way a problem meets the
//! [`crate::engine`], and `partition::check` is the one routine
//! that searches a projection's classes, resolves the first failure in key
//! order, merges the class chains into the monolithic first witness and
//! re-derives it whole when the merge cannot predict it — for both models,
//! for closed traces and for the streaming monitor's reports alike (a
//! single checking judgment over many consistency models, as
//! refinement-based frameworks present it). What is left model-specific is
//! [`ConsistencyModel::check_monolithic`] — speculative linearizability
//! quantifies over *every* init interpretation there — and how the model's
//! errors read on a stream ([`ConsistencyModel::status_of_error`],
//! [`ConsistencyModel::stream_error`]). Limits are not a model's business
//! either: the [`crate::session`] owns the search budget and the thread
//! bound and passes them to each check.
//!
//! # Model ownership
//!
//! A model **owns** its ADT behind an [`Arc`] (every repo ADT is a
//! zero-sized unit struct, so the sharing is free): checkers, sessions
//! and monitors are `'static` and can live in long-lived tenant tables.
//! [`ConsistencyModel::adt`] hands the handle back: borrow through it for
//! transient use, clone it for consumers that outlive the borrow (the
//! monitor's shard table).

use crate::engine::{Chain, CheckerEngine, EngineError, SearchBudget, SearchSeed, SearchStats};
use crate::ops::Commit;
use crate::partition::{FallbackReason, PartitionReport};
use crate::stream::{MonitorStatus, StreamFailure};
use crate::ObjAction;
use slin_adt::{Adt, Partitioner};
use slin_trace::{PersistentMultiset, PhaseId, Trace};
use std::borrow::Cow;
use std::fmt::Debug;
use std::sync::Arc;

/// One chain-search problem: what `Problem::search` hands the engine.
///
/// A model states one for a whole trace (commit indices are trace
/// indices) and, inside a [`Projection`], one per independence class
/// (commit indices are class-local, see [`ClassProblem::index_map`]).
pub struct Problem<'m, T: Adt, L> {
    /// The commits to place, ascending in index.
    pub commits: Cow<'m, [Commit<T>]>,
    /// The validity bound at every index a commit can carry, monotone
    /// along the commits; the last entry bounds the extra inputs (the
    /// pool).
    pub bounds: Vec<PersistentMultiset<T::Input>>,
    /// The history every chain element extends.
    pub seed: Vec<T::Input>,
    /// The leaf oracle, asked with the chain's longest history (the seed
    /// when nothing commits): the leaf witness, or `None` to veto. Subject
    /// to the soundness contract of [`crate::engine::LeafOracle`].
    pub leaf: LeafFn<'m, T::Input, L>,
}

/// A [`Problem`]'s leaf oracle.
pub type LeafFn<'m, I, L> = Box<dyn Fn(&[I]) -> Option<L> + 'm>;

/// What a search found: the chain and its leaf witness, `None` when the
/// space is exhausted, or the budget trip — with the work done on every
/// side of the verdict.
pub(crate) type Found<I, L> = (Result<Option<(Chain<I>, L)>, EngineError>, SearchStats);

impl<T: Adt, L> Problem<'_, T, L>
where
    T::Input: Ord,
{
    /// Every input a history of this problem may consume.
    pub(crate) fn pool(&self) -> PersistentMultiset<T::Input> {
        self.bounds.last().cloned().unwrap_or_default()
    }

    /// Searches the problem for its first chain under a node `budget`.
    pub(crate) fn search(&self, adt: &T, budget: usize) -> Found<T::Input, L> {
        let engine = CheckerEngine::new(
            adt,
            &self.commits,
            &self.bounds,
            self.pool(),
            SearchBudget::new(budget),
        );
        engine.first_solution(
            SearchSeed::from_history(adt, self.seed.clone()),
            &mut |_, longest| (self.leaf)(longest),
        )
    }
}

/// One independence class's share of a [`Problem`]: the class's commits
/// under the class projection of the bounds, seed and leaf conditions.
pub struct ClassProblem<'m, T: Adt> {
    /// The class problem, over class-local indices.
    pub problem: Problem<'m, T, ()>,
    /// The trace index of every class-local index.
    pub index_map: Vec<usize>,
}

/// A model's answer to "what is there to search along this partitioner".
pub enum Projection<'m, T: Adt, L, E> {
    /// Nothing to decompose — the trace holds fewer than two classes, or
    /// `fallback` says why it does not decompose: check it whole
    /// ([`ConsistencyModel::check_monolithic`], which also validates it).
    Whole {
        /// Classes found (0 for an empty trace, 1 otherwise).
        partitions: usize,
        /// Why the trace does not decompose, if it should have.
        fallback: Option<FallbackReason>,
    },
    /// The trace is outside the model's signature or well-formedness
    /// discipline: the rejection, byte-identical to
    /// [`ConsistencyModel::check_monolithic`]'s.
    Rejected(E),
    /// The validated trace's one interpretation, whole and per class.
    Classes {
        /// The whole problem: the merge replays the class chains against
        /// its bounds from its seed, re-discharges its leaf on the merged
        /// chain, and a bail searches it.
        whole: Problem<'m, T, L>,
        /// The class problems, in ascending key order.
        classes: Vec<ClassProblem<'m, T>>,
        /// What an exhausted search space means under this interpretation
        /// — a class without a chain refutes the whole problem too. Built
        /// on demand: rendering an interpretation is not free, and most
        /// checks pass.
        refuted: Box<dyn Fn() -> E + 'm>,
    },
}

/// A consistency criterion decided by the shared chain-search engine.
///
/// `V` is the switch-value type of the traces the model checks (plain
/// linearizability is indifferent to it — switch actions are errors —
/// while speculative linearizability fixes it to its init relation's
/// value type). Implementations: [`crate::lin::LinChecker`] and
/// [`crate::slin::SlinChecker`].
///
/// The contract every implementation upholds: the first chain of a
/// projection's whole problem, wrapped by
/// [`ConsistencyModel::witness`], **is** the verdict of
/// [`ConsistencyModel::check_monolithic`]; and every class problem is a
/// projection of the whole one, so that a class without a chain refutes it
/// and the engine-order replay of the class chains reconstructs its first
/// chain (see [`crate::partition`] for why the merge is exact).
pub trait ConsistencyModel<V>: Sized {
    /// The abstract data type whose outputs the criterion must explain.
    type Adt: Adt;
    /// The witness payload of a successful check (`LinWitness` /
    /// `SlinReport`).
    type Witness: Clone + PartialEq + Debug;
    /// Why a check failed (`LinError` / `SlinError`).
    type Error: Clone + PartialEq + Debug + From<EngineError>;
    /// What the leaf oracle of the model's problems yields beside the
    /// chain (nothing for plain linearizability; the init and abort
    /// interpretations for the speculative one). The default is the leaf
    /// of a problem without switch actions.
    type Leaf: Default;

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

    /// The canonical monolithic check (validation included), with the
    /// engine counters of the search: each search under a node `budget`,
    /// independent searches spread over at most `threads` threads
    /// (0 = one per core).
    fn check_monolithic(
        &self,
        t: &Trace<ObjAction<Self::Adt, V>>,
        budget: usize,
        threads: usize,
    ) -> (Result<Self::Witness, Self::Error>, SearchStats);

    /// Maps a batch-check failure onto the rolling [`MonitorStatus`] (the
    /// streaming monitor resolves [`MonitorStatus::Deferred`] with it).
    fn status_of_error(e: &Self::Error) -> MonitorStatus;

    /// Maps a window-mode stream failure onto the model's error type.
    fn stream_error(&self, failure: StreamFailure) -> Self::Error;

    /// States what there is to search in `t` along `partitioner`,
    /// validating `t` against the model's signature and well-formedness
    /// discipline whenever the answer is [`Projection::Classes`].
    ///
    /// Asked only of a trace that decomposes (`partition::decomposes`), so
    /// any switch action in `t` is covered by a verified
    /// switch-independence certificate and may be classified per class (by
    /// pending input and by the class projection of its value's
    /// interpretation).
    fn project<P: Partitioner<Self::Adt>>(
        &self,
        partitioner: &P,
        t: &Trace<ObjAction<Self::Adt, V>>,
    ) -> Projection<'_, Self::Adt, Self::Leaf, Self::Error>;

    /// Wraps a found chain and its leaf witness into the model's witness.
    /// `interpretations` and `stats` are the accounting of the searches
    /// that found it.
    fn witness(
        chain: Chain<<Self::Adt as Adt>::Input>,
        leaf: Self::Leaf,
        interpretations: usize,
        stats: SearchStats,
    ) -> Self::Witness;
}

/// The outcome of a partitioned check: the model verdict plus the
/// partition accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SplitVerdict<W, E> {
    /// The model's verdict — byte-identical (witness included) to the
    /// monolithic path.
    pub verdict: Result<W, E>,
    /// Partition count, fallback/remerge engagement, merged engine
    /// counters.
    pub report: PartitionReport,
}
