//! The [`ConsistencyModel`] abstraction: one chain-search judgment, many
//! consistency criteria.
//!
//! Three PRs of growth left the checker surface fragmented: `lin` and
//! `slin` each carried their own copy of the partition fan-out, witness
//! merge and report assembly, and the streaming monitor duplicated the
//! pair again. This module captures **what the shared engine actually
//! needs from a criterion** — how to validate a trace against its
//! signature, how to run the monolithic search, what the per-partition
//! unit of work is, and how to assemble a witness from a merged commit
//! chain — so that [`crate::lin::LinChecker`], [`crate::slin::SlinChecker`]
//! and the streaming monitor of [`crate::stream`] are all thin
//! instantiations of the same generic machinery (mirroring how
//! refinement-based frameworks present a single checking judgment over
//! many memory/consistency models).
//!
//! The generic entry point is the [`crate::session`] facade, built on
//! `check_split` (the partition orchestration both checkers used to
//! duplicate). The streaming-specific
//! hooks live in the [`crate::stream::StreamModel`] sub-trait.
//!
//! # Model ownership
//!
//! A model **owns** its ADT behind an [`Arc`] (every repo ADT is a
//! zero-sized unit struct, so the sharing is free): checkers, sessions
//! and monitors are `'static` and can live in long-lived tenant tables —
//! the daemon setting ROADMAP item 2 asks for. [`ConsistencyModel::adt`]
//! hands a plain borrow back for transient use, and
//! [`ConsistencyModel::adt_shared`] clones the `Arc` so long-lived
//! consumers (the monitor's shard table) hold their own handle without
//! borrowing the model itself.

use crate::engine::{Chain, SearchStats};
use crate::ops;
use crate::partition::{self, PartitionReport, SplitOutcome};
use crate::ObjAction;
use slin_adt::Adt;
use slin_trace::{PhaseId, Trace};
use std::fmt::Debug;
use std::sync::Arc;

/// A consistency criterion decided by the shared chain-search engine.
///
/// `V` is the switch-value type of the traces the model checks (plain
/// linearizability is indifferent to it — switch actions are errors —
/// while speculative linearizability fixes it to its init relation's
/// value type). Implementations: [`crate::lin::LinChecker`] and
/// [`crate::slin::SlinChecker`].
///
/// The contract every implementation upholds: [`check_monolithic`] and
/// [`check_partition`] agree with the model's canonical monolithic
/// verdict, and the witness-assembly hooks
/// reconstruct **byte-identical** witnesses when fed the merged chain the
/// engine-order replay produces (see [`crate::partition`] for why the
/// merge is exact).
///
/// [`check_monolithic`]: ConsistencyModel::check_monolithic
/// [`check_partition`]: ConsistencyModel::check_partition
pub trait ConsistencyModel<V>: Sized {
    /// The abstract data type whose outputs the criterion must explain.
    type Adt: Adt;
    /// The witness payload of a successful check (`LinWitness` /
    /// `SlinReport`).
    type Witness: Clone + PartialEq + Debug;
    /// Why a check failed (`LinError` / `SlinError`).
    type Error: Clone + PartialEq + Debug;

    /// The checked ADT.
    fn adt(&self) -> &Self::Adt;

    /// A shared handle on the checked ADT — what long-lived consumers
    /// (the monitor's shard table, a daemon tenant entry) hold so they
    /// never borrow the model itself.
    fn adt_shared(&self) -> Arc<Self::Adt>;

    /// The configured search node budget (per partition / interpretation).
    fn budget(&self) -> usize;

    /// Configured worker threads (0 = one per core).
    fn threads(&self) -> usize;

    /// Overrides the search node budget (the [`crate::session`] builder's
    /// hook).
    fn set_budget(&mut self, budget: usize);

    /// Overrides the worker-thread count (the [`crate::session`] builder's
    /// hook).
    fn set_threads(&mut self, threads: usize);

    /// The speculation phase `(m, n)` for phase-signature criteria, `None`
    /// for plain object criteria. Drives the incremental well-formedness
    /// tracker of the streaming monitor.
    fn phase_bounds(&self) -> Option<(PhaseId, PhaseId)>;

    /// The resolved worker-thread count (0 becomes one per available
    /// core).
    fn effective_threads(&self) -> usize {
        let configured = self.threads();
        if configured > 0 {
            configured
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// Validates the whole trace against the model's signature and
    /// well-formedness discipline (lin: switch-free + well-formed; slin:
    /// phase signature + phase-well-formed + interpretation cap).
    fn validate(&self, t: &Trace<ObjAction<Self::Adt, V>>) -> Result<(), Self::Error>;

    /// The canonical monolithic check (validation included), with the
    /// engine counters of the search.
    fn check_monolithic(
        &self,
        t: &Trace<ObjAction<Self::Adt, V>>,
    ) -> (Result<Self::Witness, Self::Error>, SearchStats);

    /// The per-partition unit of work on one sub-trace of an
    /// already-validated trace. Run on the whole trace, it is also the
    /// monolithic re-derivation when the witness merge bails
    /// (cross-partition bound coupling; the verdict is already decided by
    /// the partition verdicts).
    fn check_partition(
        &self,
        sub: &Trace<ObjAction<Self::Adt, V>>,
    ) -> (Result<Self::Witness, Self::Error>, SearchStats);

    /// Projects a witness onto its commit chain (sub-trace indices) — the
    /// partition merge's input.
    fn commit_chain(w: &Self::Witness) -> &[(usize, Vec<<Self::Adt as Adt>::Input>)];

    /// Assembles the model's witness from a merged commit chain (original
    /// trace indices) and the partition report accumulated so far.
    fn witness_from_chain(
        &self,
        chain: Chain<<Self::Adt as Adt>::Input>,
        report: &PartitionReport,
    ) -> Self::Witness;

    /// Re-wraps the witness of the merge-bail re-derivation
    /// ([`ConsistencyModel::check_partition`] on the whole trace) with the
    /// partitioned path's accounting (`interpretations_pre` is the
    /// interpretation counter before the re-run's counters were absorbed).
    fn witness_from_remerge(
        &self,
        mono: Self::Witness,
        interpretations_pre: usize,
        report: &PartitionReport,
    ) -> Self::Witness;

    /// Short type name of the init relation the model interprets switch
    /// values with, or `None` for criteria without switches. A
    /// switch-independence certificate (`slin-cert/v2`) must name this
    /// relation to unlock the keyed path.
    fn init_relation_name(&self) -> Option<&'static str> {
        None
    }

    /// The **keyed** check of a trace that may contain switch actions:
    /// classifies switches per independence class (candidate values and
    /// pending inputs both) and checks each class with its projected switch
    /// seed, byte-identical to [`ConsistencyModel::check_monolithic`].
    ///
    /// Returns `None` when the model has no keyed path (plain
    /// linearizability rejects switches outright) — the caller then uses
    /// the identity fallback. Only sound when a verified switch certificate
    /// covers `(adt, partitioner, init relation)`; the *session* enforces
    /// that gate, this hook just does the work.
    fn check_keyed<P>(
        &self,
        partitioner: &P,
        t: &Trace<ObjAction<Self::Adt, V>>,
    ) -> Option<SplitVerdict<Self::Witness, Self::Error>>
    where
        Self: Sync,
        Self::Adt: Sync,
        <Self::Adt as Adt>::Input: Ord + Send + Sync,
        <Self::Adt as Adt>::Output: Sync,
        Self::Witness: Send,
        Self::Error: Send,
        V: Clone + Sync,
        P: slin_adt::Partitioner<Self::Adt>,
    {
        let _ = (partitioner, t);
        None
    }
}

/// The outcome of a partitioned check: the model verdict plus the
/// partition accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitVerdict<W, E> {
    /// The model's verdict — byte-identical (witness included) to the
    /// monolithic path.
    pub verdict: Result<W, E>,
    /// Partition count, fallback/remerge engagement, merged engine
    /// counters.
    pub report: PartitionReport,
    /// The interpretation counter before any merge-bail re-run was
    /// absorbed (what the speculative checker reports as
    /// `interpretations_checked`).
    pub(crate) interpretations_pre: usize,
}

/// P-compositional checking over an already-computed [`SplitOutcome`] —
/// the one generic code path behind every partitioned [`crate::session`]
/// and the streaming monitor's report derivation.
///
/// `split.parts` must partition `t`'s actions in trace order with correct
/// `index_map`s, exactly as [`partition::split_trace`] produces; verdicts
/// and witnesses are then byte-identical to
/// [`ConsistencyModel::check_monolithic`] (see [`crate::partition`] for
/// the argument). The search node budget applies per partition, so a
/// trace the monolithic search gives up on may well be decided here.
pub(crate) fn check_split<V, K, M>(
    model: &M,
    split: &SplitOutcome<M::Adt, V, K>,
    t: &Trace<ObjAction<M::Adt, V>>,
) -> SplitVerdict<M::Witness, M::Error>
where
    M: ConsistencyModel<V> + Sync,
    M::Adt: Sync,
    <M::Adt as Adt>::Input: Ord + Send + Sync,
    <M::Adt as Adt>::Output: Sync,
    M::Witness: Send,
    M::Error: Send,
    V: Sync,
    K: Sync,
{
    // The single-partition path delegates whole: `check_monolithic`
    // validates internally, so validating here first would run the
    // (potentially expensive — slin enumerates init candidates) gate
    // twice per check.
    if split.parts.len() <= 1 {
        let (verdict, stats) = model.check_monolithic(t);
        return SplitVerdict {
            verdict,
            report: PartitionReport {
                partitions: split.parts.len(),
                fallback: split.fallback,
                remerged: false,
                stats,
            },
            interpretations_pre: stats.interpretations,
        };
    }
    // Multi-partition: validate the whole trace once up front (sub-traces
    // of a valid trace are valid, but rejection indices must be the
    // monolithic ones).
    if let Err(e) = model.validate(t) {
        return SplitVerdict {
            verdict: Err(e),
            report: PartitionReport {
                partitions: split.parts.len(),
                fallback: split.fallback,
                remerged: false,
                stats: SearchStats::default(),
            },
            interpretations_pre: 0,
        };
    }

    let threads = model.effective_threads().min(split.parts.len());
    let bounds = ops::input_multisets::<M::Adt, V>(t);
    let (merged, mut report) = partition::search_partitions(
        &split.parts,
        threads,
        &bounds,
        |sub| model.check_partition(sub),
        |(verdict, stats)| match verdict {
            Ok(w) => (*stats, Ok(M::commit_chain(w))),
            Err(e) => (*stats, Err(e)),
        },
    );
    let interpretations_pre = report.stats.interpretations;
    match merged {
        Err(e) => SplitVerdict {
            verdict: Err(e),
            report,
            interpretations_pre,
        },
        Ok(Some(chain)) => SplitVerdict {
            verdict: Ok(model.witness_from_chain(chain, &report)),
            report,
            interpretations_pre,
        },
        Ok(None) => {
            // A cross-partition bound blocked a partition's next step: the
            // monolithic first witness is not predictable from the
            // partition witnesses, so re-derive it (the verdict — all
            // partitions passing — is already decided).
            let (rerun, rerun_stats) = model.check_partition(t);
            report.remerged = true;
            report.stats.absorb(&rerun_stats);
            SplitVerdict {
                verdict: rerun
                    .map(|mono| model.witness_from_remerge(mono, interpretations_pre, &report)),
                report,
                interpretations_pre,
            }
        }
    }
}
