//! P-compositional (partition-aware) checking, and the one routine that
//! checks a closed trace.
//!
//! Every closed-trace check — a batch [`crate::session::Session::check`]
//! and the streaming monitor's re-check of its record alike — is one call
//! of `ClosedCheck::check`: it asks whether the check decomposes, runs
//! `check` — the one search routine, which searches whatever a
//! [`ConsistencyModel`] states, per class or whole — and reports one
//! engine search to the observer under its caller's site name
//! (`"session.check"`, `"monitor.report"`). The checkers' own `check` and
//! the composition checks run the same routine with no partitioner.
//! `ClosedCheck` is what a session configures once and its monitor takes
//! over: the model, the partitioner, the switch certificate's verdict, the
//! node budget, the thread bound and the observer. No model sees the last
//! two: `check` spends the budget per search and the thread bound on the
//! init interpretations of a trace checked whole ([`fan_out`]).
//!
//! A [`Partitioner`] classifies every input of a trace into an independence
//! class. Whether a check decomposes along it is one rule,
//! `partition::decomposes`: a partitioner is supplied and the trace is
//! switch-free (Theorem 2 plus the partitioner contract) or a verified
//! switch-independence certificate covers its switch actions. Where it
//! holds, a [`ConsistencyModel`] states one search problem per class
//! ([`ConsistencyModel::project`]): a projection of the whole problem —
//! the commits on the class's inputs, the class projection of the pool,
//! and the whole problem's bounds, read in place. A pool is a sorted
//! `(input, multiplicity)` vector, so one classifying pass over the whole
//! problem's commits and pool buckets every class (`Problem::classes`)
//! and no class pool is hashed. Plain linearizability
//! classifies every action by its input; the speculative checker also
//! classifies switch actions, by pending input. ([`split_trace`] and
//! [`split_trace_keyed`] cut the trace itself into the same classes.)
//! Where the check decomposes, `partition::check` runs the class searches
//! one after another on the calling thread, in key order and no further
//! than the first class that fails (it decides the verdict), and **merges
//! the class chains back into the exact witness the monolithic search
//! would have produced** (`merge_partition_chains`). The classes are
//! searched only to be merged back in engine order, and a second thread
//! never paid for them: at ≈990 commits over 8 keys the class searches are
//! about a fifth of the check, and forcing them onto two threads read
//! 1.07x the one-thread time.
//!
//! On a clean trace the decomposition is pure overhead — the class
//! searches together expand the monolithic search's nodes — so what the
//! partitioned path adds is kept to passes that count rather than hash or
//! allocate per class: the model's discharge and class leaves read each
//! history's class projections off one counting sort, and the merge
//! tallies consumed inputs in one row per input, found by binary search
//! (a queue head's row is kept until the head advances), reading a floor's
//! bound for an input only when the count read at an earlier floor no
//! longer clears it.
//!
//! # Why the merge is exact
//!
//! The shared engine's search order is a pure function of its inputs:
//! commit moves are tried in ascending trace-index order before extra-input
//! moves in ascending input order, and a node is pruned as soon as the
//! consumed inputs escape any remaining commit's validity bound. For a
//! partitionable trace (the [`Partitioner`] soundness contract makes the
//! ADT a product over keys), a step is viable in the monolithic search iff
//!
//! 1. it is the *next step of its partition's own first witness* (any other
//!    same-partition step fails for purely local reasons, which the product
//!    structure preserves globally), and
//! 2. consuming its input keeps the merged consumed-input multiset inside
//!    the validity bound of **every** remaining commit of every partition
//!    (otherwise the engine's prune kills the child node immediately).
//!    Validity bounds are cumulative, hence monotone along the commit
//!    indices, so this is one comparison: against the earliest remaining
//!    commit's bound, the tightest.
//!
//! A class problem is stated over the trace's own indices and bounds, so
//! its chain names every commit by trace index. A class chain (one
//! history, one cut per commit: [`Chain`]) is read in place as its steps:
//! each input past the class seed is a commit where it ends a cut and an
//! extra otherwise. Replaying that rule over the class chains (commits
//! first by ascending trace index, then extras by ascending input, each
//! guarded by the cross-partition bound check) therefore reconstructs the
//! monolithic first witness — verdicts *and* witnesses are byte-identical
//! to the monolithic path, while the nodes expanded drop from the product
//! to the sum of the per-partition search spaces. The
//! `partition_differential` suite in `tests/` pins this equivalence over
//! the multi-key generators.
//!
//! There is one situation the replay cannot predict without searching:
//! when a partition's *own* next step is cross-blocked (its input escapes
//! another partition's remaining bound), the monolithic engine may
//! interleave pool extras that appear in **no** per-partition witness
//! before the block clears. `merge_partition_chains` detects any blocked
//! head and bails out (`None`); `check` then re-derives the witness by
//! searching the whole problem once — the verdict is already decided by
//! the class verdicts, so byte-identity still holds unconditionally, at
//! the price of the reconstruction speedup on such traces
//! ([`PartitionReport::remerged`] reports the event).
//!
//! Only a batch check needs the monolithic witness. A bounded-window
//! stream report past a retirement, whose witness is window-relative
//! anyway, joins its shard chains without replaying the engine: it
//! interleaves them in floor order, which keeps every commit inside its
//! bound and never bails (`stream::monitor`).
//!
//! Traces with **uncertified switch actions** do not decompose, so they
//! are stated without a partitioner. Traces with any input the partitioner
//! declines to classify, and certified ones whose switch values do not
//! project per class, are stated whole all the same — validated once, by
//! the one projection that says why ([`PartitionReport::fallback`]) — and
//! checked whole by the same routine.

use crate::engine::{Chain, SearchStats};
use crate::model::{ConsistencyModel, Interpretation, Projection};
use crate::session::Verdict;
use crate::stream::MonitorStatus;
use crate::ObjAction;
use slin_adt::{Adt, Partitioner};
use slin_obs::{EngineSearchEvent, Obs};
use slin_trace::{Action, PersistentMultiset, Trace};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Why a trace went monolithic: the reason a model's projection answered
/// [`Projection::Whole`] for a trace it was asked to decompose, surfaced through
/// [`PartitionReport::fallback`] so operators can tell a policy gap
/// (uncertified switches) from a data problem (unclassifiable inputs) from
/// a genuinely coupled trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// The trace contains switch actions and no valid switch-independence
    /// certificate (`slin-cert/v2`) is installed for the partitioner and
    /// init relation, so switches cannot be classified per class.
    SwitchUncertified,
    /// The partitioner declined to classify an input (or an element of a
    /// switch candidate history).
    UnclassifiableInput,
    /// The per-class interpretation of the trace's switch values does not
    /// decompose on this trace (cross-class coupling in the forced common
    /// prefix), so the trace is checked whole.
    CrossBoundCoupled,
}

impl std::fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FallbackReason::SwitchUncertified => "switch_uncertified",
            FallbackReason::UnclassifiableInput => "unclassifiable_input",
            FallbackReason::CrossBoundCoupled => "cross_bound_coupled",
        })
    }
}

/// One independent sub-history of a trace: the actions of a single
/// independence class, in trace order.
#[derive(Debug, Clone)]
pub struct TracePartition<T: Adt, V, K> {
    /// The class key, or `None` for the identity (fallback) partition.
    pub key: Option<K>,
    /// The class's actions, in original trace order.
    pub trace: Trace<ObjAction<T, V>>,
    /// For every sub-trace index, the index of the action in the original
    /// trace.
    pub index_map: Vec<usize>,
}

/// The result of splitting a trace along a [`Partitioner`].
#[derive(Debug, Clone)]
pub struct SplitOutcome<T: Adt, V, K> {
    /// The partitions, ordered by ascending key (deterministic, so merged
    /// statistics are a pure function of the trace).
    pub parts: Vec<TracePartition<T, V, K>>,
    /// Why the identity fallback engaged (a switch action without a switch
    /// certificate, or an unclassifiable input, forced the whole trace into
    /// one partition), or `None` for a clean split.
    pub fallback: Option<FallbackReason>,
}

/// Aggregate outcome of a partitioned check, alongside the verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionReport {
    /// Number of partitions checked (1 when the fallback engaged).
    pub partitions: usize,
    /// Why the trace went monolithic (see [`SplitOutcome::fallback`] and
    /// [`FallbackReason`]), or `None` when the partitioned path ran.
    pub fallback: Option<FallbackReason>,
    /// Whether witness reconstruction had to re-run one monolithic search
    /// because a cross-partition bound blocked a partition's next step (see
    /// the [module docs](self)); the re-run's counters are absorbed into
    /// the verdict's [`Verdict::stats`].
    pub remerged: bool,
}

/// Splits `t` into one sub-trace per independence class of `p`, in
/// ascending key order.
///
/// The identity fallback (one partition holding the whole trace,
/// [`SplitOutcome::fallback`] saying why) engages when any action is a
/// switch action ([`FallbackReason::SwitchUncertified`]) — switch values
/// are interpreted through the common relation `rinit`, whose candidate
/// histories may mix classes — or when `p` returns `None` for any input
/// ([`FallbackReason::UnclassifiableInput`]), whichever comes first.
pub fn split_trace<T, V, P>(p: &P, t: &Trace<ObjAction<T, V>>) -> SplitOutcome<T, V, P::Key>
where
    T: Adt,
    V: Clone,
    P: Partitioner<T>,
{
    split(p, false, t)
}

/// Splits `t` like [`split_trace`], but classifies **switch actions** by
/// the key of their pending input instead of bailing to identity — the
/// split the keyed init relation unlocks once a switch-independence
/// certificate (`slin-cert/v2`) vouches that candidate histories decompose
/// per class.
///
/// The caller is responsible for verifying that every element of every
/// switch's candidate value classifies (the value type is opaque here);
/// the speculative checker's projection answers
/// [`FallbackReason::UnclassifiableInput`] when one does not.
pub fn split_trace_keyed<T, V, P>(p: &P, t: &Trace<ObjAction<T, V>>) -> SplitOutcome<T, V, P::Key>
where
    T: Adt,
    V: Clone,
    P: Partitioner<T>,
{
    split(p, true, t)
}

/// The one split body: `keyed` says whether a switch action is classified
/// (by its pending input) or collapses the split.
fn split<T, V, P>(p: &P, keyed: bool, t: &Trace<ObjAction<T, V>>) -> SplitOutcome<T, V, P::Key>
where
    T: Adt,
    V: Clone,
    P: Partitioner<T>,
{
    let keys = match class_keys(p, keyed, t) {
        Ok(keys) => keys,
        Err(reason) => {
            let whole = TracePartition {
                key: None,
                trace: t.clone(),
                index_map: (0..t.len()).collect(),
            };
            return SplitOutcome {
                parts: vec![whole],
                fallback: Some(reason),
            };
        }
    };
    // Per class: its actions plus their original indices.
    let mut groups = vec![(Vec::new(), Vec::new()); keys.len()];
    for (i, a) in t.iter().enumerate() {
        let (actions, index_map) = &mut groups[class_of(p, &keys, a.input())];
        actions.push(a.clone());
        index_map.push(i);
    }
    let parts = keys
        .into_iter()
        .zip(groups)
        .map(|(k, (actions, index_map))| TracePartition {
            key: Some(k),
            trace: Trace::from_actions(actions),
            index_map,
        })
        .collect();
    SplitOutcome {
        parts,
        fallback: None,
    }
}

/// The independence classes of `t` along `p`: its actions' keys, ascending
/// and distinct — or why `t` does not split: a switch action when not
/// `keyed`, or an input `p` declines, whichever comes first.
pub(crate) fn class_keys<T, V, P>(
    p: &P,
    keyed: bool,
    t: &Trace<ObjAction<T, V>>,
) -> Result<Vec<P::Key>, FallbackReason>
where
    T: Adt,
    P: Partitioner<T>,
{
    let mut keys = Vec::with_capacity(t.len());
    for a in t.iter() {
        match p.key_of(a.input()) {
            _ if a.is_switch() && !keyed => return Err(FallbackReason::SwitchUncertified),
            Some(k) => keys.push(k),
            None => return Err(FallbackReason::UnclassifiableInput),
        }
    }
    keys.sort_unstable();
    keys.dedup();
    Ok(keys)
}

/// The class of `input`: the position of its key among `keys`, ascending.
/// Panics on an input whose key is not among them.
pub(crate) fn class_of<T: Adt, P: Partitioner<T>>(
    p: &P,
    keys: &[P::Key],
    input: &T::Input,
) -> usize {
    p.key_of(input)
        .and_then(|k| keys.binary_search(&k).ok())
        .expect("every input of a projected trace is classified")
}

/// The least work — in weight units: queued frames for the daemon's lanes,
/// commits to place for an interpretation search — that must leave the
/// calling thread before [`fan_out`] spawns at all.
///
/// Sized from a sweep on the 2-vCPU reference box, whose second core comes
/// and goes with the host (the README's "Work-sized dispatch" table has
/// the rows). A scoped spawn + join costs 16–70 µs per thread against
/// ≈2–3 µs per streamed event. With both cores there, draining two lanes
/// on two threads breaks even near 64 offloaded frames and wins from there
/// up (0.77–0.87x the inline time at 256, 0.62x at 1024); with one core
/// there it can only lose — 1.25–1.32x up to 256 frames, 1.03x at 512.
/// 512 is where the loss on a taken-away core has shrunk to a few percent
/// while the gain on a present one is already a third.
const FAN_OUT_MIN_OFFLOAD: usize = 512;

/// Runs `run` over every unit of `units` — `(weight, item)` pairs — and
/// returns the results in unit order, plus whether any work left the
/// calling thread. The one thread fan-out point of the checking pipeline,
/// for the work in it that is independent: the init-interpretation
/// searches of a trace `check` searches whole, and the daemon's lanes.
///
/// `threads` is an **upper bound**: a scoped spawn + join costs 16–70 µs
/// per thread on the reference box, so the common case — a few dozen
/// commits or frames — is cheaper to run than to hand over. Units are
/// dealt into `threads` shares (share `w` takes units `w, w + threads,
/// …`); the caller always runs share 0 itself, so at most `threads − 1`
/// threads are spawned, and none at all unless the weight that would be
/// offloaded (every other share's) exceeds `FAN_OUT_MIN_OFFLOAD`. Below it every unit runs on the calling
/// thread, in unit order. The decision is a pure function of the weights,
/// so a run is reproducible; `run`'s results must not depend on which
/// thread computes them (the callers resolve verdicts by minimum index).
///
/// The caller's share is fixed, not the heaviest, so that a unit keeps its
/// thread from one call to the next: the daemon's lane 0 is always drained
/// by the pumping thread, and what a lane allocates is freed by the thread
/// that allocated it. Handing the caller whichever share was heaviest
/// moved lanes between threads pump by pump and made the fanned branch
/// 1.5–2x slower than this one at every depth measured (cross-thread
/// frees contending in the allocator).
///
/// A panic in `run` on a worker is re-raised on the caller with its
/// original payload once every worker has been joined.
pub fn fan_out<T, R, F>(units: Vec<(usize, T)>, threads: usize, run: &F) -> (Vec<R>, bool)
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let count = units.len();
    let threads = threads.clamp(1, count.max(1));
    let offloaded: usize = units
        .iter()
        .enumerate()
        .filter(|(i, _)| i % threads != 0)
        .map(|(_, (weight, _))| weight)
        .sum();
    if offloaded <= FAN_OUT_MIN_OFFLOAD {
        return (
            units.into_iter().map(|(_, item)| run(item)).collect(),
            false,
        );
    }
    let mut shares: Vec<Vec<(usize, T)>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, (_, item)) in units.into_iter().enumerate() {
        shares[i % threads].push((i, item));
    }
    let mut shares = shares.into_iter();
    let own_share = shares.next().expect("threads >= 1");
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(count).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .map(|share| {
                scope.spawn(move || {
                    share
                        .into_iter()
                        .map(|(i, item)| (i, run(item)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for (i, item) in own_share {
            slots[i] = Some(run(item));
        }
        for h in handles {
            match h.join() {
                Ok(out) => {
                    for (i, r) in out {
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    let results = slots
        .into_iter()
        .map(|o| o.expect("every unit ran on exactly one share"))
        .collect();
    (results, true)
}

/// What every closed-trace check reads, configured once: by a batch
/// [`crate::session::Session`], and by the streaming monitor, which takes
/// the session's over on the upgrade to streaming.
pub(crate) struct ClosedCheck<M, P> {
    pub(crate) model: M,
    pub(crate) partitioner: Option<P>,
    /// A verified switch-independence certificate (`slin-cert/v2`) covers
    /// the `(ADT, partitioner, init relation)`: traces with switch actions
    /// decompose too ([`decomposes`]).
    pub(crate) keyed: bool,
    /// The node budget of every search.
    pub(crate) budget: usize,
    /// The thread bound of every interpretation enumeration (0 = one per
    /// core).
    pub(crate) threads: usize,
    pub(crate) obs: Obs,
}

impl<M, P> ClosedCheck<M, P> {
    /// Checks the closed trace `t` ([`check`]): per class along
    /// `partitioner` where the check [`decomposes`], whole otherwise — and
    /// reports the check to the observer as one engine search under
    /// `site`. `None` for the partitioner checks `t` whole.
    pub(crate) fn check<V>(
        &self,
        partitioner: Option<&P>,
        t: &Trace<ObjAction<M::Adt, V>>,
        site: &'static str,
    ) -> Verdict<M::Witness, M::Error>
    where
        M: ConsistencyModel<V>,
        <M::Adt as Adt>::Input: Ord,
        P: Partitioner<M::Adt>,
    {
        let t0 = self.obs.t0();
        let partitioner = decomposes(partitioner, self.keyed, t);
        let verdict = check(&self.model, partitioner, t, self.budget, self.threads);
        self.obs.engine_search(EngineSearchEvent {
            site,
            nodes: verdict.stats.nodes as u64,
            memo_hits: verdict.stats.memo_hits as u64,
            budget_exhausted: budget_tripped::<M, V>(&verdict.outcome, &verdict.stats),
            t0,
        });
        verdict
    }
}

/// Whether a check outcome is a tripped node budget: the model maps the
/// error to [`MonitorStatus::Unknown`] and — unlike the interpretation-cap
/// rejection, which shares that status but is decided before any search —
/// the engine expanded nodes.
fn budget_tripped<M: ConsistencyModel<V>, V>(
    outcome: &Result<M::Witness, M::Error>,
    stats: &SearchStats,
) -> bool {
    stats.nodes > 0 && matches!(outcome, Err(e) if M::status_of_error(e) == MonitorStatus::Unknown)
}

/// Whether a check of `t` decomposes per independence class: the one rule
/// every partitioned verdict depends on, read by `ClosedCheck::check` alone.
/// It holds when a partitioner is supplied and `t` is switch-free
/// (Theorem 2 plus the partitioner contract) or `switch_certified` — a
/// verified switch-independence certificate (`slin-cert/v2`) covers the
/// session's `(adt, partitioner, rinit)`. Returns the partitioner to
/// decompose along, or `None` to check `t` whole: [`check`] takes either.
pub(crate) fn decomposes<'p, I, O, V, P>(
    partitioner: Option<&'p P>,
    switch_certified: bool,
    t: &Trace<Action<I, O, V>>,
) -> Option<&'p P> {
    partitioner.filter(|_| switch_certified || !t.iter().any(|a| a.is_switch()))
}

/// The one search routine: checks a closed trace `t` for every
/// [`ConsistencyModel`] — for `ClosedCheck::check`, along the partitioner
/// where the check [`decomposes`] (a verdict with its partition report),
/// and for the checkers' own `check` and the composition checks, without
/// one. Asks the model what there is to search
/// ([`ConsistencyModel::project`], which validates `t`), then:
///
/// * a rejection is the verdict, with zero stats: no search ran;
/// * classes are searched in key order, their counters absorbed, up to
///   the first failing one, which decides (a refutation or a budget trip
///   alike, so a tripped class under-claims rather than searching again);
///   else their chains are merged in engine order against the whole
///   problem's bounds from its seed, its leaf is re-discharged on the
///   merged chain, and the whole problem is searched once when either
///   cannot predict the monolithic first witness
///   ([`PartitionReport::remerged`]);
/// * a trace stated whole is searched once per interpretation
///   (`every_interpretation`).
///
/// Verdicts and witnesses are byte-identical whichever way a trace is
/// stated (see the [module docs](self) for the argument). The node
/// `budget` applies per search, so a trace the whole search gives up on
/// may well be decided per class.
pub(crate) fn check<V, M, P>(
    model: &M,
    partitioner: Option<&P>,
    t: &Trace<ObjAction<M::Adt, V>>,
    budget: usize,
    threads: usize,
) -> Verdict<M::Witness, M::Error>
where
    M: ConsistencyModel<V>,
    <M::Adt as Adt>::Input: Ord,
    P: Partitioner<M::Adt>,
{
    let verdict = |outcome, stats, partitions, fallback, remerged| Verdict {
        outcome,
        stats,
        partition: partitioner.map(|_| PartitionReport {
            partitions,
            fallback,
            remerged,
        }),
    };
    let adt = &**model.adt();
    let (whole, mut classes, refuted) = match model.project(partitioner, t) {
        Projection::Rejected { error, fallback } => {
            return verdict(Err(error), SearchStats::default(), 1, fallback, false)
        }
        Projection::Whole {
            partitions,
            fallback,
            interpretations,
            interpretation,
        } => {
            let (outcome, stats) = every_interpretation::<V, M>(
                adt,
                t,
                interpretations,
                &interpretation,
                budget,
                threads,
            );
            return verdict(outcome, stats, partitions, fallback, false);
        }
        Projection::Classes {
            whole,
            classes,
            refuted,
        } => (whole, classes, refuted),
    };

    let mut stats = SearchStats::default();
    let mut parts = Vec::with_capacity(classes.len());
    for class in &mut classes {
        let (found, class_stats) = class.search(adt, budget);
        stats.absorb(&class_stats);
        let e = match found {
            Ok(Some((chain, ()))) => {
                // Nothing reads a searched class's pool but the merge.
                parts.push((chain, class.seed.len(), std::mem::take(&mut class.pool)));
                continue;
            }
            Ok(None) => refuted(),
            Err(e) => e.into(),
        };
        // The first failing class decides: no class after it is searched.
        return verdict(Err(e), stats, classes.len(), None, false);
    }
    let merged =
        merge_partition_chains(&whole.bounds, parts, whole.seed.clone()).and_then(|chain| {
            let longest = chain
                .cuts()
                .last()
                .map_or(&whole.seed[..], |_| chain.history());
            let leaf = (whole.leaf)(longest)?;
            Some((chain, leaf))
        });
    let remerged = merged.is_none();
    let found = match merged {
        Some(found) => Ok(Some(found)),
        None => {
            // A cross-class bound blocked a class's next step, or the
            // merged chain fails a leaf condition no class leaf can see:
            // the monolithic first witness is not predictable from the
            // class chains, so search for it (the verdict — every class
            // passing — is already decided).
            let (found, rerun_stats) = whole.search(adt, budget);
            stats.absorb(&rerun_stats);
            found
        }
    };
    let outcome = match found {
        Ok(Some((chain, leaf))) => Ok(M::witness(chain, leaf)),
        Ok(None) => Err(refuted()),
        Err(e) => Err(e.into()),
    };
    verdict(outcome, stats, classes.len(), None, remerged)
}

/// Searches the `count` interpretations of a trace stated whole, each
/// stated where it is searched, through [`fan_out`] on at most `threads`
/// threads (0 = one per core; on the calling thread alone while the
/// searches are small). A shared watermark of the earliest abnormal
/// interpretation lets later ones be skipped — they cannot influence the
/// verdict — and the verdict is resolved by minimum index, so it is
/// byte-identical at every thread count. On `Ok` the stats absorb every
/// interpretation's search; on a refutation or a budget trip they are the
/// **earliest abnormal interpretation's own** — the deterministic
/// refutation cost (absorbing the partial successes of racing workers
/// would not reproduce).
fn every_interpretation<V, M>(
    adt: &M::Adt,
    t: &Trace<ObjAction<M::Adt, V>>,
    count: usize,
    interpretation: &Interpretation<'_, M::Adt, M::Leaf, M::Error>,
    budget: usize,
    threads: usize,
) -> (Result<M::Witness, M::Error>, SearchStats)
where
    M: ConsistencyModel<V>,
    <M::Adt as Adt>::Input: Ord,
{
    let threads = match (count, threads) {
        (1, _) => 1,
        (_, 0) => std::thread::available_parallelism().map_or(1, |n| n.get()),
        _ => threads,
    };
    // Each interpretation weighs the commits it searches, the trace's
    // responses; on one thread nothing is weighed.
    let commits = match threads {
        1 => 0,
        _ => t.iter().filter(|a| a.is_respond()).count(),
    };
    let best_abnormal = AtomicUsize::new(usize::MAX);
    let units = (0..count).map(|idx| (commits, idx)).collect();
    let (outcomes, _) = fan_out(units, threads, &|idx: usize| {
        if idx > best_abnormal.load(Ordering::Relaxed) {
            return None;
        }
        let (problem, refuted) = interpretation(idx);
        let (found, stats) = problem.search(adt, budget);
        let found = match found {
            // Only interpretation 0's witness is ever reported.
            Ok(Some(w)) => Ok((idx == 0).then_some(w)),
            Ok(None) => Err(refuted()),
            Err(e) => Err(e.into()),
        };
        if found.is_err() {
            best_abnormal.fetch_min(idx, Ordering::Relaxed);
        }
        Some((found, stats))
    });
    let mut stats = SearchStats::default();
    let mut witness = None;
    // Index order: the first error met is the earliest abnormal one
    // (every skipped index lies beyond it).
    for (found, s) in outcomes.into_iter().flatten() {
        match found {
            Ok(w) => {
                stats.absorb(&s);
                witness = witness.or(w);
            }
            Err(e) => return (Err(e), s),
        }
    }
    let (chain, leaf) = witness.expect("interpretation 0 was checked");
    (Ok(M::witness(chain, leaf)), stats)
}

/// One partition of a merge: its class chain, the length of the seed
/// history the chain's histories extend (no step of the partition's), and
/// its pool, every input it may consume with its multiplicity.
pub(crate) type Part<I> = (Chain<I>, usize, Vec<(I, usize)>);

/// A partition's remaining steps: its chain's history from `pos` on. The
/// head `history[pos]` commits exactly when it ends the next cut,
/// `cuts[next]`, whose trace index it then carries.
struct Queue<'c, I> {
    chain: &'c Chain<I>,
    pos: usize,
    next: usize,
    /// The head's tally row, found again only when the head advances.
    row: Option<usize>,
}

impl<'c, I: Clone + Ord + std::hash::Hash> Queue<'c, I> {
    /// The steps of `chain` past its first `pos` inputs, the seed's.
    fn new(chain: &'c Chain<I>, pos: usize, tallies: &mut Tallies<'_, I>) -> Self {
        let mut q = Queue {
            chain,
            pos,
            next: 0,
            row: None,
        };
        q.row = q.head().map(|(e, _)| tallies.row_of(e));
        q
    }

    /// The head's input, and its trace index if it commits.
    fn head(&self) -> Option<(&'c I, Option<usize>)> {
        let &(index, len) = self.chain.cuts().get(self.next)?;
        let commits = self.pos + 1 == len;
        Some((&self.chain.history()[self.pos], commits.then_some(index)))
    }

    /// Moves past the head and finds the new head's row.
    fn pop(&mut self, tallies: &mut Tallies<'_, I>) {
        if self.pos + 1 == self.chain.cuts()[self.next].1 {
            self.next += 1;
        }
        self.pos += 1;
        self.row = self.head().map(|(e, _)| tallies.row_of(e));
    }
}

/// Merges per-partition class chains into the chain the monolithic engine
/// finds first, replaying its deterministic search order over each
/// chain's steps (see the [module docs](self) for the argument):
///
/// * commits before extras, commits by ascending original trace index,
///   extras by ascending input;
/// * a step is viable only if consuming its input keeps the merged
///   consumed inputs inside the bound of every remaining commit (`bounds`
///   are the full trace's) — read off the earliest remaining commit, the
///   *floor*, so `bounds` must be monotone along the commit indices the
///   chains carry (`bounds[i] ⊆ bounds[j]` for `i < j`; debug builds
///   assert it);
/// * at every extras node, the **leftover pool inputs of partitions whose
///   chain is placed** compete with the heads: the engine greedily
///   consumes them (no-ops for every remaining commit) whenever they sort
///   below the needed extra and the bounds admit them, which is why each
///   part carries its partition's pool. Unfinished partitions cannot leak
///   extras this way: their smaller pool inputs already failed their own
///   search, and a commit head at an extras node is a blocked one (which
///   bails).
///
/// Returns `None` when any partition's head step is cross-blocked — the
/// one state in which the monolithic first witness may deviate from every
/// per-partition witness, so the caller must re-derive it monolithically.
///
/// The merged history extends `seed` (the whole problem's), whose
/// elements count against the bounds. Each placed commit is a cut of the
/// one merged history: no history is copied.
pub(crate) fn merge_partition_chains<I: Clone + Ord + std::hash::Hash>(
    bounds: &[PersistentMultiset<I>],
    parts: Vec<Part<I>>,
    seed: Vec<I>,
) -> Option<Chain<I>> {
    // The original indices of all remaining commits, across every chain,
    // descending: the last is the floor, and placing it pops.
    let mut remaining: Vec<usize> = parts
        .iter()
        .flat_map(|(chain, _, _)| chain.cuts().iter().map(|&(i, _)| i))
        .collect();
    remaining.sort_unstable_by(|a, b| b.cmp(a));
    debug_assert!(
        remaining
            .windows(2)
            .all(|w| bounds[w[1]].is_subset_of(&bounds[w[0]])),
        "bounds must be monotone along the merged commit indices"
    );

    // Sized for every step and seed input: the rows and the history grow
    // without reallocating.
    let steps: usize = parts
        .iter()
        .map(|(chain, seed_len, _)| chain.history().len().saturating_sub(*seed_len))
        .sum();
    let inputs = steps + seed.len();
    let mut tallies = Tallies {
        bounds,
        rows: Vec::with_capacity(inputs),
        by_input: Vec::with_capacity(inputs),
    };
    for input in &seed {
        let row = tallies.row_of(input);
        tallies.rows[row].used += 1;
    }
    let mut queues: Vec<Queue<'_, I>> = parts
        .iter()
        .map(|(chain, seed_len, _)| Queue::new(chain, *seed_len, &mut tallies))
        .collect();
    let mut hist: Vec<I> = seed;
    hist.reserve(steps);
    let mut cuts: Vec<(usize, usize)> = Vec::with_capacity(remaining.len());

    loop {
        let floor = remaining.last().copied();
        let mut commit_choice: Option<(usize, usize)> = None; // (orig idx, queue)
        let mut extra_choice: Option<(&I, Option<usize>)> = None;
        let mut any_head = false;
        let mut any_blocked = false;
        let mut blocked_commits: Vec<usize> = Vec::new(); // queue indices
        for (qi, q) in queues.iter().enumerate() {
            let (Some((input, commit)), Some(row)) = (q.head(), q.row) else {
                continue;
            };
            any_head = true;
            let viable = tallies.viable(row, floor);
            match commit {
                Some(idx) => {
                    if !viable {
                        any_blocked = true;
                        blocked_commits.push(qi);
                    } else if commit_choice.is_none_or(|(best, _)| idx < best) {
                        commit_choice = Some((idx, qi));
                    }
                }
                None => {
                    if !viable {
                        any_blocked = true;
                    } else if extra_choice.is_none_or(|(best, _)| input < best) {
                        extra_choice = Some((input, Some(qi)));
                    }
                }
            }
        }
        if !any_head {
            break;
        }
        // Any blocked head with no viable commit to hide behind: the
        // engine falls through to moves (later same-partition commits,
        // pool extras) the partition's local search never explored — bail
        // and let the caller re-derive monolithically.
        if commit_choice.is_none() && any_blocked {
            return None;
        }
        // With a viable commit at index `best`, blocked heads are skipped
        // by the engine — harmless — *unless* a blocked-head partition has
        // a later commit below `best`: the engine (trying commits in
        // ascending index order) would attempt that commit next, an order
        // the partition's local witness never explored.
        if let Some((best, _)) = commit_choice {
            for &qi in &blocked_commits {
                let cuts = &queues[qi].chain.cuts()[queues[qi].next..];
                if cuts[1..].iter().any(|&(i, _)| i > cuts[0].0 && i < best) {
                    return None;
                }
            }
        }
        // Move 1 (commits, ascending trace index) before move 2 (extras,
        // ascending input) — the engine's child order.
        let (input, row, qi) = match commit_choice {
            Some((idx, qi)) => {
                let at = remaining
                    .binary_search_by(|r| idx.cmp(r))
                    .expect("a placed commit was remaining");
                remaining.remove(at);
                cuts.push((idx, hist.len() + 1));
                let (input, _) = queues[qi].head().expect("head re-read");
                (
                    input,
                    queues[qi].row.expect("a commit head has a row"),
                    Some(qi),
                )
            }
            None => {
                // Finished partitions' leftover pool inputs compete with
                // the head extras: the engine consumes them greedily in
                // sorted order (their partition has no remaining commit to
                // break) whenever the bounds admit them.
                for (q, (_, _, pool)) in queues.iter().zip(&parts) {
                    if q.head().is_some() {
                        continue;
                    }
                    for (input, cap) in pool {
                        if extra_choice.is_none_or(|(best, _)| input < best) {
                            let row = tallies.row_of(input);
                            if tallies.rows[row].used < *cap && tallies.viable(row, floor) {
                                extra_choice = Some((input, None));
                            }
                        }
                    }
                }
                let (input, qi) = extra_choice.expect("some head exists and none is a commit");
                let row = match qi {
                    Some(qi) => queues[qi].row.expect("an extra head has a row"),
                    None => tallies.row_of(input),
                };
                (input, row, qi)
            }
        };
        tallies.consume(row);
        hist.push(input.clone());
        if let Some(qi) = qi {
            queues[qi].pop(&mut tallies);
        }
    }
    Some(Chain::new(hist, cuts))
}

/// The merge's consumed-input counts: one row per input met, each with
/// the floor's bound count for it, read once per floor. A row keeps its
/// index, so the merge holds each queue head's; a binary search over the
/// rows in input order finds an input's (no input is hashed).
struct Tallies<'b, I> {
    bounds: &'b [PersistentMultiset<I>],
    rows: Vec<Tally<I>>,
    /// The rows' indices, ascending by input.
    by_input: Vec<usize>,
}

struct Tally<I> {
    input: I,
    used: usize,
    /// The floor `bound` was read at (`usize::MAX`: not read yet).
    floor: usize,
    /// `bounds[floor].count(input)`: 0 until read.
    bound: usize,
}

impl<I: Clone + Ord + std::hash::Hash> Tallies<'_, I> {
    /// The row of `input`, added with nothing consumed if it has none.
    fn row_of(&mut self, input: &I) -> usize {
        let rows = &self.rows;
        match self
            .by_input
            .binary_search_by(|&row| rows[row].input.cmp(input))
        {
            Ok(at) => self.by_input[at],
            Err(at) => {
                self.by_input.insert(at, self.rows.len());
                self.rows.push(Tally {
                    input: input.clone(),
                    used: 0,
                    floor: usize::MAX,
                    bound: 0,
                });
                self.rows.len() - 1
            }
        }
    }

    /// One more occurrence of `row`'s input consumed.
    fn consume(&mut self, row: usize) {
        self.rows[row].used += 1;
    }

    /// `row`'s input stays within every remaining commit's bound after one
    /// more occurrence is consumed (the monolithic prune admits the child
    /// node). The bounds are monotone, so the floor — the earliest
    /// remaining commit — carries the tightest one; for a commit head,
    /// which is itself remaining, the same comparison is its own validity
    /// bound. No floor: no commit remains to break.
    ///
    /// The floor only rises, so a count read at an earlier floor is a
    /// lower bound of the floor's own: while the consumed count stays
    /// below it, nothing is read again.
    fn viable(&mut self, row: usize, floor: Option<usize>) -> bool {
        let Some(floor) = floor else {
            return true;
        };
        let tally = &mut self.rows[row];
        if tally.used >= tally.bound && tally.floor != floor {
            tally.bound = self.bounds[floor].count(&tally.input);
            tally.floor = floor;
        }
        tally.used < tally.bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slin_adt::{IdentityPartitioner, KvInput, KvKeyPartitioner, KvOutput, KvStore};
    use slin_trace::{Action, ClientId, PhaseId};
    use std::collections::VecDeque;
    use std::thread::ThreadId;

    type KA = ObjAction<KvStore, ()>;

    const BUDGET: usize = crate::engine::SearchBudget::DEFAULT_MAX_NODES;

    /// A merge pool: `items` counted, ascending.
    fn pool<I: Clone + Ord + std::hash::Hash>(items: &[I]) -> Vec<(I, usize)> {
        crate::model::pool_of(Some(&PersistentMultiset::elems(items)))
    }

    /// A merge part: the class chain cutting `history` at `cuts`, grown
    /// from no seed, and `pool` counted.
    fn part<I: Clone + Ord + std::hash::Hash>(
        history: Vec<I>,
        cuts: Vec<(usize, usize)>,
        pool_items: &[I],
    ) -> Part<I> {
        (Chain::new(history, cuts), 0, pool(pool_items))
    }

    fn c(n: u32) -> ClientId {
        ClientId::new(n)
    }
    fn ph() -> PhaseId {
        PhaseId::FIRST
    }

    fn two_key_trace() -> Trace<KA> {
        Trace::from_actions(vec![
            Action::invoke(c(1), ph(), KvInput::Put(1, 5)),
            Action::invoke(c(2), ph(), KvInput::Put(2, 6)),
            Action::respond(c(2), ph(), KvInput::Put(2, 6), KvOutput::Ack),
            Action::respond(c(1), ph(), KvInput::Put(1, 5), KvOutput::Ack),
        ])
    }

    #[test]
    fn split_groups_by_key_in_key_order() {
        let s = split_trace(&KvKeyPartitioner, &two_key_trace());
        assert!(s.fallback.is_none());
        assert_eq!(s.parts.len(), 2);
        assert_eq!(s.parts[0].key, Some(1));
        assert_eq!(s.parts[0].index_map, vec![0, 3]);
        assert_eq!(s.parts[1].key, Some(2));
        assert_eq!(s.parts[1].index_map, vec![1, 2]);
        assert_eq!(s.parts[0].trace.len() + s.parts[1].trace.len(), 4);
    }

    #[test]
    fn identity_partitioner_forces_fallback() {
        let s: SplitOutcome<KvStore, (), u8> = split_trace(&IdentityPartitioner, &two_key_trace());
        assert_eq!(s.fallback, Some(FallbackReason::UnclassifiableInput));
        assert_eq!(s.parts.len(), 1);
        assert_eq!(s.parts[0].key, None);
        assert_eq!(s.parts[0].trace.len(), 4);
        assert_eq!(s.parts[0].index_map, vec![0, 1, 2, 3]);
    }

    #[test]
    fn switch_actions_force_fallback() {
        let t: Trace<ObjAction<KvStore, u8>> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(), KvInput::Put(1, 5)),
            Action::switch(c(1), PhaseId::new(2), KvInput::Put(1, 5), 0),
        ]);
        let s = split_trace(&KvKeyPartitioner, &t);
        assert_eq!(s.fallback, Some(FallbackReason::SwitchUncertified));
        assert_eq!(s.parts.len(), 1);
    }

    #[test]
    fn keyed_split_classifies_switches_by_pending_input() {
        let t: Trace<ObjAction<KvStore, u8>> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(), KvInput::Put(1, 5)),
            Action::switch(c(2), PhaseId::new(2), KvInput::Put(2, 6), 0),
            Action::respond(c(2), PhaseId::new(2), KvInput::Put(2, 6), KvOutput::Ack),
            Action::respond(c(1), ph(), KvInput::Put(1, 5), KvOutput::Ack),
        ]);
        let s = split_trace_keyed(&KvKeyPartitioner, &t);
        assert!(s.fallback.is_none());
        assert_eq!(s.parts.len(), 2);
        assert_eq!(s.parts[0].key, Some(1));
        assert_eq!(s.parts[0].index_map, vec![0, 3]);
        assert_eq!(s.parts[1].key, Some(2));
        assert_eq!(s.parts[1].index_map, vec![1, 2]);
        // An unclassifiable input still collapses the keyed split.
        let s: SplitOutcome<KvStore, (), u8> =
            split_trace_keyed(&IdentityPartitioner, &two_key_trace());
        assert_eq!(s.fallback, Some(FallbackReason::UnclassifiableInput));
    }

    #[test]
    fn merge_grows_its_histories_from_the_seed() {
        // The seed's inputs are consumed before the first step and lead
        // every merged history.
        let bounds = vec![PersistentMultiset::elems(&["s", "a", "b"]); 3];
        let pa = part(vec!["a"], vec![(2, 1)], &["a"]);
        let pb = part(vec!["b"], vec![(1, 1)], &["b"]);
        let chain =
            merge_partition_chains(&bounds, vec![pa, pb], vec!["s"]).expect("no head blocked");
        // [(1, [s, b]), (2, [s, b, a])]
        assert_eq!(chain, Chain::new(vec!["s", "b", "a"], vec![(1, 2), (2, 3)]));
    }

    /// Both classes open with an extra input — a put that never responds,
    /// read by a get — and key 1's is invoked only after key 2's commit:
    /// its head is cross-blocked with no commit to hide behind, the merge
    /// bails, and the whole problem is searched.
    fn cross_blocked_trace() -> Trace<KA> {
        Trace::from_actions(vec![
            Action::invoke(c(2), ph(), KvInput::Put(2, 9)),
            Action::invoke(c(4), ph(), KvInput::Get(2)),
            Action::respond(c(4), ph(), KvInput::Get(2), KvOutput::Found(Some(9))),
            Action::invoke(c(1), ph(), KvInput::Put(1, 7)),
            Action::invoke(c(3), ph(), KvInput::Get(1)),
            Action::respond(c(3), ph(), KvInput::Get(1), KvOutput::Found(Some(7))),
        ])
    }

    /// Multi-key traces, clean and faulty, at two to eight keys, plus the
    /// cross-blocked one.
    fn switch_free_corpus() -> Vec<Trace<KA>> {
        use crate::gen::{random_multikey_kv_trace, MultiKeyConfig};
        let mut corpus = vec![cross_blocked_trace()];
        for (keys, contention) in [(2, 0.0), (4, 0.0), (4, 0.5), (8, 0.2)] {
            for error_prob in [0.0, 0.3] {
                corpus.extend((0..6).map(|seed| {
                    random_multikey_kv_trace(&MultiKeyConfig {
                        clients: 3,
                        steps: 48,
                        keys,
                        skew: 0.4,
                        contention,
                        error_prob,
                        seed,
                    })
                }));
            }
        }
        corpus
    }

    /// Theorem 2 at the level of work: on switch-free traces the
    /// speculative checker's projection states, class by class, the
    /// problems the plain one states, so [`check`] does the same work on
    /// both — equal partition reports and equal `SearchStats` — and finds
    /// the same commit chains, merged or re-derived: the monolithic ones.
    #[test]
    fn both_models_state_the_same_problems_on_switch_free_traces() {
        use crate::initrel::ExactInit;
        use crate::lin::{LinChecker, LinError};
        use crate::slin::{SlinChecker, SlinError};
        let lin = LinChecker::owned(KvStore);
        let slin = SlinChecker::owned(KvStore, ExactInit::new(), ph(), PhaseId::new(2));
        let (mut accepted, mut refuted, mut remerged) = (0, 0, 0);
        for t in &switch_free_corpus() {
            let phase_t: Trace<ObjAction<KvStore, Vec<KvInput>>> = Trace::from_actions(
                t.iter()
                    .map(|a| match a {
                        Action::Invoke { client, input, .. } => {
                            Action::invoke(*client, ph(), *input)
                        }
                        Action::Respond {
                            client,
                            input,
                            output,
                            ..
                        } => Action::respond(*client, ph(), *input, *output),
                        Action::Switch { .. } => unreachable!("switch-free corpus"),
                    })
                    .collect(),
            );
            let by_lin = check(&lin, Some(&KvKeyPartitioner), t, BUDGET, 0);
            let by_slin = check(&slin, Some(&KvKeyPartitioner), &phase_t, BUDGET, 0);
            assert_eq!(by_lin.partition, by_slin.partition, "{t:?}");
            assert_eq!(by_lin.stats, by_slin.stats, "{t:?}");
            let report = by_lin.partition.expect("a partitioned check");
            assert_eq!(report.fallback, None);
            assert!(report.partitions > 1);
            remerged += report.remerged as usize;
            assert_eq!(by_lin.outcome, lin.check(t), "{t:?}");
            match (by_lin.outcome, by_slin.outcome) {
                (Ok(w), Ok(r)) => {
                    accepted += 1;
                    assert_eq!(w.assignments(), &r.commit_histories);
                }
                (
                    Err(LinError::NotLinearizable),
                    Err(SlinError::NotSpeculativelyLinearizable { interpretation }),
                ) => {
                    refuted += 1;
                    assert!(interpretation.is_empty());
                }
                other => panic!("the models disagree: {other:?}"),
            }
        }
        assert!(accepted > 0 && refuted > 0 && remerged > 0);
    }

    /// A keyed refutation whose first class in key order fails and whose
    /// second would search: [`check`] searches the first alone, and the
    /// verdict is the monolithic one.
    #[test]
    fn the_first_failing_class_ends_the_class_searches() {
        use crate::lin::{LinChecker, LinError};
        // Key 1 reads a value nobody wrote; key 2 is linearizable.
        let t: Trace<KA> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(), KvInput::Get(1)),
            Action::invoke(c(2), ph(), KvInput::Put(2, 6)),
            Action::respond(c(1), ph(), KvInput::Get(1), KvOutput::Found(Some(7))),
            Action::respond(c(2), ph(), KvInput::Put(2, 6), KvOutput::Ack),
        ]);
        let lin = LinChecker::owned(KvStore);
        let Projection::Classes { classes, .. } = lin.project(Some(&KvKeyPartitioner), &t) else {
            panic!("two keys decompose");
        };
        let (first, first_stats) = classes[0].search(&KvStore, BUDGET);
        assert!(matches!(first, Ok(None)), "the first class refutes");
        let (second, second_stats) = classes[1].search(&KvStore, BUDGET);
        assert!(matches!(second, Ok(Some(_))) && second_stats.nodes > 0);
        let got = check(&lin, Some(&KvKeyPartitioner), &t, BUDGET, 0);
        assert_eq!(got.outcome, Err(LinError::NotLinearizable));
        assert_eq!(got.outcome, lin.check(&t));
        assert_eq!(got.partition.map(|r| r.partitions), Some(2));
        assert_eq!(got.stats, first_stats);
        assert_eq!(got.stats.interpretations, 1);
    }

    /// Whether `model` projects `t` along the key partitioner, asserting
    /// that every class problem reads the whole problem's bounds — the same
    /// allocation — and takes the whole problem's commits on its key (trace
    /// indices kept) and the class projection of its pool, keys ascending.
    fn classes_project_the_whole<V, M>(model: &M, t: &Trace<ObjAction<KvStore, V>>) -> bool
    where
        M: ConsistencyModel<V, Adt = KvStore>,
    {
        let Projection::Classes { whole, classes, .. } = model.project(Some(&KvKeyPartitioner), t)
        else {
            return false;
        };
        let key = |i: &KvInput| KvKeyPartitioner.key_of(i).expect("kv inputs are keyed");
        let mut keys = Vec::new();
        let mut pooled = 0;
        for class in &classes {
            assert!(std::rc::Rc::ptr_eq(&class.bounds, &whole.bounds));
            let k = class
                .pool
                .iter()
                .map(|(i, _)| key(i))
                .next()
                .expect("every class of the corpus pools an input");
            let pool: Vec<_> = whole
                .pool
                .iter()
                .filter(|(i, _)| key(i) == k)
                .cloned()
                .collect();
            assert_eq!(class.pool, pool, "class {k}");
            let commits = |cs: &[crate::ops::Commit<KvStore>], only: bool| -> Vec<usize> {
                cs.iter()
                    .filter(|c| !only || key(&c.input) == k)
                    .map(|c| c.index)
                    .collect()
            };
            assert_eq!(
                commits(&class.commits, false),
                commits(&whole.commits, true)
            );
            pooled += class.pool.len();
            keys.push(k);
        }
        assert_eq!(pooled, whole.pool.len());
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
        true
    }

    #[test]
    fn class_problems_read_the_whole_bounds_and_project_the_pool() {
        use crate::gen::{phase_trace_bounds, random_phase_kv_trace, PhaseConfig};
        use crate::initrel::ExactInit;
        use crate::lin::LinChecker;
        use crate::slin::SlinChecker;
        let lin = LinChecker::owned(KvStore);
        let switch_free = switch_free_corpus()
            .iter()
            .filter(|t| classes_project_the_whole(&lin, t))
            .count();
        let (m, n) = phase_trace_bounds();
        let slin = SlinChecker::owned(KvStore, ExactInit::new(), m, n);
        let mut phase = 0;
        for error_prob in [0.0, 0.4] {
            for seed in 0..40 {
                let t = random_phase_kv_trace(&PhaseConfig {
                    clients: 4,
                    steps: 36,
                    keys: 4,
                    aborts: 2,
                    error_prob,
                    seed,
                    ..PhaseConfig::default()
                });
                phase += classes_project_the_whole(&slin, &t) as usize;
            }
        }
        assert!(switch_free > 20 && phase >= 40, "{switch_free} + {phase}");
    }

    /// Dispatches one unit per weight, each reporting its index and the
    /// thread it ran on.
    fn dispatch(weights: &[usize], threads: usize) -> (Vec<(usize, ThreadId)>, bool) {
        let units = weights.iter().copied().zip(0..).collect();
        fan_out(units, threads, &|i: usize| (i, std::thread::current().id()))
    }

    #[test]
    fn fan_out_below_the_constant_runs_on_the_calling_thread_in_order() {
        let me = std::thread::current().id();
        for threads in [0, 1, 2, 5] {
            // Seven light units; then two heavy ones whose offloaded share
            // sits exactly on the constant.
            for weights in [vec![1; 7], vec![50, FAN_OUT_MIN_OFFLOAD]] {
                let (out, fanned) = dispatch(&weights, threads);
                assert!(!fanned, "{weights:?} at {threads} threads");
                let expect: Vec<_> = (0..weights.len()).map(|i| (i, me)).collect();
                assert_eq!(out, expect, "{weights:?} at {threads} threads");
            }
        }
        assert_eq!(dispatch(&[], 4), (vec![], false));
        // One thread never fans out, however heavy the work.
        assert!(!dispatch(&[usize::MAX / 4; 3], 1).1);
    }

    #[test]
    fn fan_out_above_the_constant_keeps_share_zero_on_the_caller() {
        let me = std::thread::current().id();
        const HEAVY: usize = FAN_OUT_MIN_OFFLOAD;
        // Shares at two threads: {0, 2} is the caller's, light as it is;
        // {1, 3} outweighs the constant and leaves for one spawned thread.
        let (out, fanned) = dispatch(&[1, HEAVY, 1, 1], 2);
        assert!(fanned);
        assert_eq!(
            out.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
        assert_eq!((out[0].1, out[2].1), (me, me));
        assert_ne!(out[1].1, me);
        assert_eq!(out[1].1, out[3].1, "one share, one thread");
        // What the caller keeps does not count as offloaded.
        assert!(!dispatch(&[10 * HEAVY, HEAVY / 2, 10 * HEAVY, HEAVY / 2], 2).1);
        // One unit past the constant is enough, and `threads` beyond the
        // unit count spawns nothing extra.
        for threads in [2, 5] {
            let (out, fanned) = dispatch(&[50, FAN_OUT_MIN_OFFLOAD + 1], threads);
            assert!(fanned);
            assert_eq!((out[0], out[1].0), ((0, me), 1));
            assert_ne!(out[1].1, me);
        }
        // Five threads, seven units: five distinct threads, the caller
        // among them.
        let (out, fanned) = dispatch(&[HEAVY; 7], 5);
        assert!(fanned);
        let ids: std::collections::HashSet<ThreadId> = out.iter().map(|(_, id)| *id).collect();
        assert_eq!(ids.len(), 5);
        assert!(ids.contains(&me));
    }

    #[test]
    fn fan_out_preserves_index_order() {
        for threads in [1, 2, 5] {
            // Light units stay on the caller, heavy ones fan out.
            for weight in [1, FAN_OUT_MIN_OFFLOAD] {
                let units = (0..7).map(|i| (weight, i)).collect();
                let (out, _) = fan_out(units, threads, &|i: usize| i * i);
                assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36]);
            }
        }
    }

    #[test]
    fn fan_out_re_raises_a_worker_panic_with_its_payload() {
        #[derive(Debug, PartialEq)]
        struct Boom(usize);
        let me = std::thread::current().id();
        let caught = std::panic::catch_unwind(|| {
            let units = vec![(1, 0usize), (FAN_OUT_MIN_OFFLOAD + 1, 1)];
            fan_out(units, 2, &|i: usize| {
                // Unit 1 is the offloaded share.
                if std::thread::current().id() != me {
                    std::panic::panic_any(Boom(i));
                }
            })
        });
        let payload = caught.expect_err("the worker's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<Boom>(), Some(&Boom(1)));
    }

    #[test]
    fn merge_prefers_commits_by_index_then_extras_by_input() {
        // Bounds admit two occurrences of everything everywhere.
        let mut everything = PersistentMultiset::new();
        for x in ["a", "b", "x", "y"] {
            everything.insert(x);
            everything.insert(x);
        }
        let bounds = vec![everything; 8];
        // Commit 3 (a), extra y, commit 7 (a); commit 1 (b), extra x,
        // commit 5 (b).
        let pa = part(vec!["a", "y", "a"], vec![(3, 1), (7, 3)], &["a", "y", "a"]);
        let pb = part(vec!["b", "x", "b"], vec![(1, 1), (5, 3)], &["b", "x", "b"]);
        let chain = merge_partition_chains(&bounds, vec![pa, pb], vec![]).expect("no head blocked");
        let picks: Vec<usize> = chain.iter().map(|(i, _)| i).collect();
        // Commits by ascending index (1 then 3); at the all-extras node the
        // smaller extra x goes first, which unblocks commit 5 before y.
        assert_eq!(picks, vec![1, 3, 5, 7]);
        assert_eq!(chain.history(), ["b", "a", "x", "b", "y", "a"]);
    }

    #[test]
    fn merge_bails_when_an_extra_move_races_a_blocked_head() {
        // Partition A's head Extra("a0") escapes commit 1's bound while no
        // commit head is viable behind it: the monolithic engine could
        // interleave extras outside every partition witness, so the merge
        // must refuse to guess.
        let mut b1 = PersistentMultiset::new();
        b1.insert("b");
        let mut all = PersistentMultiset::new();
        for x in ["a0", "a", "b", "b0"] {
            all.insert(x);
        }
        let bounds = vec![b1.clone(), b1, all.clone(), all.clone(), all];
        // Extra a0, commit 3 (a); extra b0, commit 1 (b).
        let pa = part(vec!["a0", "a"], vec![(3, 2)], &["a0", "a"]);
        let pb = part(vec!["b0", "b"], vec![(1, 2)], &["b0", "b"]);
        assert_eq!(merge_partition_chains(&bounds, vec![pa, pb], vec![]), None);
    }

    #[test]
    fn merge_ignores_blocked_heads_while_a_commit_is_viable() {
        // Partition A's head extra escapes commit 1's bound, but B's
        // commit 1 itself is viable: move 1 fires first, clearing the
        // block — no bail, and the commit order matches the engine's.
        let mut b1 = PersistentMultiset::new();
        b1.insert("b");
        let mut all = PersistentMultiset::new();
        for x in ["a0", "a", "b"] {
            all.insert(x);
        }
        let bounds = vec![b1.clone(), b1, all.clone(), all];
        // Extra a0, commit 3 (a); commit 1 (b).
        let pa = part(vec!["a0", "a"], vec![(3, 2)], &["a0", "a"]);
        let pb = part(vec!["b"], vec![(1, 1)], &["b"]);
        let chain =
            merge_partition_chains(&bounds, vec![pa, pb], vec![]).expect("commit clears block");
        let picks: Vec<usize> = chain.iter().map(|(i, _)| i).collect();
        assert_eq!(picks, vec![1, 3]);
        assert_eq!(chain.history(), ["b", "a0", "a"]);
    }

    #[test]
    fn merge_interleaves_finished_partitions_leftover_extras() {
        // Partition B finishes at commit 1 with a leftover pool input "b0"
        // that sorts below partition A's needed extra "x": the engine
        // consumes the harmless leftover first, so the merge must too.
        let mut all = PersistentMultiset::new();
        for x in ["a", "a", "b", "b0", "x"] {
            all.insert(x);
        }
        let bounds = vec![all.clone(); 5];
        // Commit 0 (a), extra x, commit 4 (a); commit 1 (b).
        let pa = part(vec!["a", "x", "a"], vec![(0, 1), (4, 3)], &["a", "x", "a"]);
        let pb = part(vec!["b"], vec![(1, 1)], &["b", "b0"]);
        let chain = merge_partition_chains(&bounds, vec![pa, pb], vec![]).expect("no head blocked");
        let picks: Vec<usize> = chain.iter().map(|(i, _)| i).collect();
        assert_eq!(picks, vec![0, 1, 4]);
        // After both early commits, the extras node consumes b0 < x, then
        // x, then the final commit.
        assert_eq!(chain.history(), ["a", "b", "b0", "x", "a"]);
    }

    /// The merge as it read before the floor rule — every viability test
    /// scans every remaining commit's bound, the consumed inputs are a
    /// persistent multiset pre-populated by the caller, every partition is
    /// a queue of steps (`Some(trace index)` for a commit, `None` for an
    /// extra) read off its chain's commit histories up front — kept as the
    /// reference `merge_partition_chains` is tested against.
    fn merge_by_scan<I: Clone + Ord + std::hash::Hash>(
        bounds: &[PersistentMultiset<I>],
        parts: Vec<Part<I>>,
        seed: Vec<I>,
        seed_used: PersistentMultiset<I>,
    ) -> Option<Chain<I>> {
        let mut queues: Vec<VecDeque<(Option<usize>, I)>> = Vec::new();
        let mut pools: Vec<Vec<(I, usize)>> = Vec::new();
        for (chain, seed_len, pool) in parts {
            let mut steps = VecDeque::new();
            let mut prev = seed_len;
            for (idx, h) in chain.iter() {
                steps.extend(h[prev..h.len() - 1].iter().map(|e| (None, e.clone())));
                steps.push_back((Some(idx), h[h.len() - 1].clone()));
                prev = h.len();
            }
            queues.push(steps);
            pools.push(pool);
        }
        // All remaining commits, across every queue: `(original index, input)`.
        let mut remaining: Vec<(usize, I)> = queues
            .iter()
            .flat_map(|q| q.iter())
            .filter_map(|(idx, input)| Some(((*idx)?, input.clone())))
            .collect();
        remaining.sort_by_key(|(idx, _)| *idx);

        let mut used: PersistentMultiset<I> = seed_used;
        let mut hist: Vec<I> = seed;
        let mut cuts: Vec<(usize, usize)> = Vec::new();

        // `input` stays within every remaining commit's bound after one more
        // occurrence is consumed (the monolithic prune admits the child node).
        // `except` skips the commit being placed itself.
        let viable = |used: &PersistentMultiset<I>,
                      input: &I,
                      except: Option<usize>,
                      remaining: &[(usize, I)]| {
            remaining
                .iter()
                .filter(|(idx, _)| Some(*idx) != except)
                .all(|(idx, _)| used.count(input) < bounds[*idx].count(input))
        };

        loop {
            let mut commit_choice: Option<(usize, usize)> = None; // (orig idx, queue)
            let mut extra_choice: Option<(I, Option<usize>)> = None;
            let mut any_head = false;
            let mut any_blocked = false;
            let mut blocked_commits: Vec<usize> = Vec::new(); // queue indices
            for (qi, q) in queues.iter().enumerate() {
                match q.front() {
                    Some(&(Some(idx), ref input)) => {
                        any_head = true;
                        if used.count(input) >= bounds[idx].count(input)
                            || !viable(&used, input, Some(idx), &remaining)
                        {
                            any_blocked = true;
                            blocked_commits.push(qi);
                        } else if commit_choice.is_none_or(|(best, _)| idx < best) {
                            commit_choice = Some((idx, qi));
                        }
                    }
                    Some((None, input)) => {
                        any_head = true;
                        if !viable(&used, input, None, &remaining) {
                            any_blocked = true;
                        } else if extra_choice.as_ref().is_none_or(|(best, _)| input < best) {
                            extra_choice = Some((input.clone(), Some(qi)));
                        }
                    }
                    None => {}
                }
            }
            if !any_head {
                break;
            }
            // Any blocked head with no viable commit to hide behind: the
            // engine falls through to moves (later same-partition commits,
            // pool extras) the partition's local search never explored — bail
            // and let the caller re-derive monolithically.
            if commit_choice.is_none() && any_blocked {
                return None;
            }
            // With a viable commit at index `best`, blocked heads are skipped
            // by the engine — harmless — *unless* a blocked-head partition has
            // a later queued commit below `best`: the engine (trying commits
            // in ascending index order) would attempt that commit next, an
            // order the partition's local witness never explored.
            if let Some((best, _)) = commit_choice {
                for &qi in &blocked_commits {
                    let Some(&(Some(head_idx), _)) = queues[qi].front() else {
                        unreachable!("blocked_commits holds commit-headed queues");
                    };
                    let deviates = queues[qi]
                        .iter()
                        .skip(1)
                        .any(|&(idx, _)| idx.is_some_and(|idx| idx > head_idx && idx < best));
                    if deviates {
                        return None;
                    }
                }
            }
            // Move 1 (commits, ascending trace index) before move 2 (extras,
            // ascending input) — the engine's child order.
            if let Some((idx, qi)) = commit_choice {
                let (_, input) = queues[qi].pop_front().expect("head re-read");
                used.insert(input.clone());
                hist.push(input);
                cuts.push((idx, hist.len()));
                remaining.retain(|(i, _)| *i != idx);
                continue;
            }
            // Finished partitions' leftover pool inputs compete with the head
            // extras: the engine consumes them greedily in sorted order (their
            // partition has no remaining commit to break) whenever the bounds
            // admit them.
            for (qi, q) in queues.iter().enumerate() {
                if !q.is_empty() {
                    continue;
                }
                for &(ref input, cap) in &pools[qi] {
                    if used.count(input) < cap
                        && viable(&used, input, None, &remaining)
                        && extra_choice.as_ref().is_none_or(|(best, _)| input < best)
                    {
                        extra_choice = Some((input.clone(), None));
                    }
                }
            }
            let (input, qi) = extra_choice.expect("some head exists and none is a commit");
            if let Some(qi) = qi {
                queues[qi].pop_front();
            }
            used.insert(input.clone());
            hist.push(input);
        }
        Some(Chain::new(hist, cuts))
    }

    /// The merge's bounds, class chains with their seed lengths and pools,
    /// and seed.
    type MergeInputs<I> = (Vec<PersistentMultiset<I>>, Vec<Part<I>>, Vec<I>);

    /// `merge_partition_chains` and [`merge_by_scan`] on the same inputs,
    /// the reference seeded with what the merge counts itself: the seed's
    /// elements.
    fn both_merges<I: Clone + Ord + std::hash::Hash>(
        (bounds, parts, seed): MergeInputs<I>,
    ) -> (Option<Chain<I>>, Option<Chain<I>>) {
        let seed_used = seed.iter().cloned().collect();
        let by_scan = merge_by_scan(&bounds, parts.clone(), seed.clone(), seed_used);
        (merge_partition_chains(&bounds, parts, seed), by_scan)
    }

    /// What [`check`] hands the merge for `t`: the whole problem's bounds
    /// and seed, and per class its chain, seed length and pool — `None`
    /// when the model states no classes or a class has no chain (no merge
    /// runs).
    fn merge_inputs<V, M>(
        model: &M,
        t: &Trace<ObjAction<KvStore, V>>,
    ) -> Option<MergeInputs<KvInput>>
    where
        M: ConsistencyModel<V, Adt = KvStore>,
    {
        let Projection::Classes { whole, classes, .. } = model.project(Some(&KvKeyPartitioner), t)
        else {
            return None;
        };
        let parts = classes
            .iter()
            .map(|class| {
                let (chain, ()) = class.search(&KvStore, BUDGET).0.ok()??;
                Some((chain, class.seed.len(), class.pool.clone()))
            })
            .collect::<Option<_>>()?;
        Some((whole.bounds.to_vec(), parts, whole.seed))
    }

    /// The floor rule against the scan on every class-queue set [`check`]
    /// builds: over the switch-free corpus, and over batch-shaped keyed
    /// phase traces (init LCP seeds, abort leaves), clean and faulty.
    #[test]
    fn merge_equals_the_scan_on_every_class_queue_set_check_builds() {
        use crate::gen::{phase_trace_bounds, random_phase_kv_trace, PhaseConfig};
        use crate::initrel::ExactInit;
        use crate::lin::LinChecker;
        use crate::slin::SlinChecker;
        let lin = LinChecker::owned(KvStore);
        let (m, n) = phase_trace_bounds();
        let slin = SlinChecker::owned(KvStore, ExactInit::new(), m, n);
        let mut sets: Vec<_> = switch_free_corpus()
            .iter()
            .filter_map(|t| merge_inputs(&lin, t))
            .collect();
        let switch_free = sets.len();
        for error_prob in [0.0, 0.4] {
            for seed in 0..100 {
                let t = random_phase_kv_trace(&PhaseConfig {
                    clients: 4,
                    steps: 36,
                    keys: 4,
                    aborts: 2,
                    error_prob,
                    seed,
                    ..PhaseConfig::default()
                });
                sets.extend(merge_inputs(&slin, &t));
            }
        }
        let (total, phase) = (sets.len(), sets.len() - switch_free);
        let mut bailed = 0;
        for set in sets {
            let (got, want) = both_merges(set);
            assert_eq!(got, want);
            bailed += got.is_none() as usize;
        }
        assert!(switch_free > 20 && phase >= 100, "{switch_free} + {phase}");
        assert!(bailed > 0 && bailed < total, "{bailed} of {total} bail");
    }

    /// The floor rule against the scan on random monotone bounds: class
    /// chains whose commits come in any index order, heads the bounds
    /// block, pools with leftovers beyond their chain's steps, and a seed.
    #[test]
    fn merge_equals_the_scan_on_random_monotone_bounds() {
        use proptest::prelude::*;
        // Per step: (chain, input, commit?, sort key of its commit index).
        // A chain ends at its last commit: steps after it are only pooled.
        let steps = prop::collection::vec((0..3usize, 0..4u8, 0..3u8, 0..64u8), 1..12);
        // Per commit index: the inputs its bound adds to the one before
        // (the first to the seed).
        let growth = prop::collection::vec(prop::collection::vec(0..4u8, 1..6), 13usize);
        let extras = prop::collection::vec(prop::collection::vec(0..4u8, 0..4), 3usize);
        let seeds = prop::collection::vec(0..4u8, 0..3);
        let mut merged = 0;
        TestRunner::new(ProptestConfig::with_cases(4000)).run_cases(
            "merge_equals_the_scan_on_random_monotone_bounds",
            |rng| {
                let steps = steps.new_value(rng);
                let (growth, extras) = (growth.new_value(rng), extras.new_value(rng));
                let seed = seeds.new_value(rng);
                let mut keys: Vec<(u8, usize)> = steps
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.2 > 0)
                    .map(|(at, s)| (s.3, at))
                    .collect();
                keys.sort_unstable();
                let mut histories = vec![Vec::new(); 3];
                let mut cuts = vec![Vec::new(); 3];
                let mut pools = vec![PersistentMultiset::new(); 3];
                for (at, &(q, input, _, _)) in steps.iter().enumerate() {
                    histories[q].push(input);
                    if let Some(idx) = keys.iter().position(|&(_, a)| a == at) {
                        cuts[q].push((idx, histories[q].len()));
                    }
                    pools[q].insert(input);
                }
                for (pool, more) in pools.iter_mut().zip(extras) {
                    pool.extend(more);
                }
                let mut bound: PersistentMultiset<u8> = seed.iter().copied().collect();
                let bounds = growth[..=keys.len()]
                    .iter()
                    .map(|more| {
                        bound.extend(more.iter().copied());
                        bound.clone()
                    })
                    .collect();
                let chains = histories.into_iter().zip(cuts);
                let parts = chains
                    .zip(&pools)
                    .map(|((h, c), p)| (Chain::new(h, c), 0, crate::model::pool_of(Some(p))))
                    .collect();
                let (got, want) = both_merges((bounds, parts, seed));
                merged += got.is_some() as usize;
                prop_assert_eq!(got, want);
                Ok(())
            },
        );
        assert!((400..3600).contains(&merged), "{merged} of 4000 merge");
    }

    /// Switch values are histories and `rinit(h) = {h}`, as [`ExactInit`];
    /// its projection onto a class is `keyed`'s answer.
    ///
    /// [`ExactInit`]: crate::initrel::ExactInit
    struct HistoryRelation<K>(K);

    impl<K: Fn(&[KvInput], &[KvInput], &dyn Fn(&KvInput, &KvInput) -> bool) -> Option<bool>>
        crate::initrel::InitRelation<KvInput> for HistoryRelation<K>
    {
        type Value = Vec<KvInput>;

        fn contains(&self, value: &Vec<KvInput>, history: &[KvInput]) -> bool {
            value.as_slice() == history
        }

        fn candidates(
            &self,
            value: &Vec<KvInput>,
            _: &crate::initrel::CandidateContext<KvInput>,
        ) -> Vec<Vec<KvInput>> {
            vec![value.clone()]
        }

        fn projects_like(
            &self,
            value: &Vec<KvInput>,
            history: &[KvInput],
            same_class: &dyn Fn(&KvInput, &KvInput) -> bool,
        ) -> Option<bool> {
            (self.0)(value, history, same_class)
        }
    }

    type PA = ObjAction<KvStore, Vec<KvInput>>;

    /// A phase-(2, 3) trace: `c1` and `c2` enter with the init values
    /// `v1`, `v2` and pending puts on keys 1 and 2, and both respond.
    fn two_inits(v1: Vec<KvInput>, v2: Vec<KvInput>) -> Trace<PA> {
        let ph2 = PhaseId::new(2);
        let (p1, p2) = (KvInput::Put(1, 10), KvInput::Put(2, 20));
        Trace::from_actions(vec![
            Action::switch(c(1), ph2, p1, v1),
            Action::switch(c(2), ph2, p2, v2),
            Action::respond(c(1), ph2, p1, KvOutput::Ack),
            Action::respond(c(2), ph2, p2, KvOutput::Ack),
        ])
    }

    /// `rinit`, counting the values it is asked for the candidates of.
    struct Counted<R> {
        rinit: R,
        asked: std::sync::Arc<AtomicUsize>,
    }

    impl<R: crate::initrel::InitRelation<KvInput>> crate::initrel::InitRelation<KvInput>
        for Counted<R>
    {
        type Value = R::Value;

        fn contains(&self, value: &R::Value, history: &[KvInput]) -> bool {
            self.rinit.contains(value, history)
        }

        fn candidates(
            &self,
            value: &R::Value,
            ctx: &crate::initrel::CandidateContext<KvInput>,
        ) -> Vec<Vec<KvInput>> {
            self.asked.fetch_add(1, Ordering::Relaxed);
            self.rinit.candidates(value, ctx)
        }

        fn extensions(
            &self,
            value: &R::Value,
            prefix: &[KvInput],
            ctx: &crate::initrel::CandidateContext<KvInput>,
        ) -> Vec<Vec<KvInput>> {
            self.rinit.extensions(value, prefix, ctx)
        }

        fn projects_like(
            &self,
            value: &R::Value,
            history: &[KvInput],
            same_class: &dyn Fn(&KvInput, &KvInput) -> bool,
        ) -> Option<bool> {
            self.rinit.projects_like(value, history, same_class)
        }
    }

    /// The keyed check of `t` under `rinit` answers whole for `reason`,
    /// states the trace once — each init action's value is asked for its
    /// candidates once — and its verdict is the whole check's byte for
    /// byte.
    fn checked_whole<R>(rinit: R, t: &Trace<PA>, reason: FallbackReason)
    where
        R: crate::initrel::InitRelation<KvInput, Value = Vec<KvInput>> + Sync,
    {
        let asked = std::sync::Arc::new(AtomicUsize::new(0));
        let rinit = Counted {
            rinit,
            asked: std::sync::Arc::clone(&asked),
        };
        let model =
            crate::slin::SlinChecker::owned(KvStore, rinit, PhaseId::new(2), PhaseId::new(3));
        let verdict = check(&model, Some(&KvKeyPartitioner), t, BUDGET, 1);
        let inits = t.iter().filter(|a| a.is_switch()).count();
        assert_eq!(asked.load(Ordering::Relaxed), inits, "values asked");
        let report = verdict.partition.as_ref().expect("a keyed check reports");
        assert_eq!((report.partitions, report.fallback), (1, Some(reason)));
        let whole = check(&model, None::<&KvKeyPartitioner>, t, BUDGET, 1);
        assert_eq!(whole.partition, None);
        assert_eq!(
            format!("{:?}", verdict.outcome),
            format!("{:?}", whole.outcome)
        );
        assert_eq!(
            (verdict.outcome, verdict.stats),
            (whole.outcome, whole.stats)
        );
    }

    #[test]
    fn an_init_lcp_unlike_the_class_lcps_is_checked_whole() {
        // The two values order the keys differently: their LCP is empty,
        // while both project onto key 1 as [put(1, 1)].
        let (k1, k2) = (KvInput::Put(1, 1), KvInput::Put(2, 2));
        let t = two_inits(vec![k1, k2], vec![k2, k1]);
        checked_whole(
            crate::initrel::ExactInit,
            &t,
            FallbackReason::CrossBoundCoupled,
        );
    }

    #[test]
    fn a_relation_projecting_unlike_its_histories_is_checked_whole() {
        // Projecting reverses the value: key 1's two puts swap, so the
        // projected value's candidate is not the history's projection.
        let v = vec![KvInput::Put(1, 1), KvInput::Put(1, 2), KvInput::Put(2, 3)];
        let t = two_inits(v.clone(), v.clone());
        let reversing =
            |value: &[KvInput], history: &[KvInput], same: &dyn Fn(&KvInput, &KvInput) -> bool| {
                let reversed: Vec<KvInput> = value.iter().rev().copied().collect();
                Some(crate::initrel::projections_agree(&reversed, history, same))
            };
        checked_whole(
            HistoryRelation(reversing),
            &t,
            FallbackReason::CrossBoundCoupled,
        );
        // The same trace under a relation projecting as histories do
        // decomposes, over both keys.
        let model = crate::slin::SlinChecker::owned(
            KvStore,
            crate::initrel::ExactInit,
            PhaseId::new(2),
            PhaseId::new(3),
        );
        let report = check(&model, Some(&KvKeyPartitioner), &t, BUDGET, 1)
            .partition
            .expect("keyed");
        assert_eq!((report.partitions, report.fallback), (2, None));
    }

    #[test]
    fn an_unkeyed_relation_is_checked_whole() {
        let v = vec![KvInput::Put(1, 1), KvInput::Put(2, 2)];
        let t = two_inits(v.clone(), v);
        let unkeyed = |_: &[KvInput], _: &[KvInput], _: &dyn Fn(&KvInput, &KvInput) -> bool| None;
        checked_whole(
            HistoryRelation(unkeyed),
            &t,
            FallbackReason::SwitchUncertified,
        );
    }
}
