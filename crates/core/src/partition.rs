//! P-compositional (partition-aware) checking.
//!
//! A [`Partitioner`] classifies every input of a trace into an independence
//! class. Whether a check decomposes along it is one rule,
//! `partition::decomposes`: a partitioner is supplied and the trace is
//! switch-free (Theorem 2 plus the partitioner contract) or a verified
//! switch-independence certificate covers its switch actions. Where it
//! holds, a [`ConsistencyModel`] states one search problem per class
//! ([`ConsistencyModel::project`] — plain linearizability splits the trace
//! per key with [`split_trace`], the speculative checker also classifies
//! switch actions, as [`split_trace_keyed`] does); `partition::check` — the
//! one routine behind every partitioned verdict on a closed trace — runs the
//! class searches one after another on the calling thread, and **merges the
//! class chains back into the exact witness the monolithic search would have
//! produced** (`merge_partition_chains`). The classes are searched only to
//! be merged back in engine order, and a second thread never paid for them:
//! at ≈990 commits over 8 keys the class searches are about a fifth of the
//! check, and forcing them onto two threads read 1.07x the one-thread time.
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
//! Replaying exactly that rule over the per-partition witness step queues
//! (commits first by ascending original index, then extras by ascending
//! input, each guarded by the cross-partition bound check) therefore
//! reconstructs the monolithic first witness — verdicts *and* witnesses are
//! byte-identical to the monolithic path, while the nodes expanded drop
//! from the product to the sum of the per-partition search spaces. The
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
//! Traces with **uncertified switch actions** do not decompose, so they
//! never reach the projection. Traces with any input the partitioner
//! declines to classify, and certified ones whose switch values do not
//! project per class, are checked whole (monolithic checking);
//! [`PartitionReport::fallback`] says which.

use crate::engine::{Chain, SearchStats};
use crate::model::{ConsistencyModel, Projection, SplitVerdict};
use crate::ObjAction;
use slin_adt::{Adt, Partitioner};
use slin_trace::{Action, PersistentMultiset, Trace};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

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
    /// trace (used to remap witness commit indices).
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
    /// [`PartitionReport::stats`].
    pub remerged: bool,
    /// Engine counters absorbed over all partitions in key order. Each
    /// partition contributes `interpretations >= 1`, so this counts
    /// partition-searches, not init interpretations, on the partitioned
    /// path.
    pub stats: SearchStats,
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
    let identity = |reason| SplitOutcome {
        parts: vec![TracePartition {
            key: None,
            trace: t.clone(),
            index_map: (0..t.len()).collect(),
        }],
        fallback: Some(reason),
    };
    // Per key: the actions of the class plus their original indices.
    type Group<A> = (Vec<A>, Vec<usize>);
    let mut groups: BTreeMap<P::Key, Group<ObjAction<T, V>>> = BTreeMap::new();
    for (i, a) in t.iter().enumerate() {
        if a.is_switch() && !keyed {
            return identity(FallbackReason::SwitchUncertified);
        }
        let Some(k) = p.key_of(a.input()) else {
            return identity(FallbackReason::UnclassifiableInput);
        };
        let (actions, index_map) = groups.entry(k).or_default();
        actions.push(a.clone());
        index_map.push(i);
    }
    SplitOutcome {
        parts: groups
            .into_iter()
            .map(|(k, (actions, index_map))| TracePartition {
                key: Some(k),
                trace: Trace::from_actions(actions),
                index_map,
            })
            .collect(),
        fallback: None,
    }
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
/// for the work in it that is independent: the speculative checker's
/// init-interpretation searches and the daemon's lanes.
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

/// The thread count a configured `threads` stands for (0 = one per
/// available core).
pub(crate) fn resolve_threads(configured: usize) -> usize {
    if configured > 0 {
        configured
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Whether a check of `t` decomposes per independence class: the one rule
/// every partitioned verdict depends on, read by [`crate::session`]'s
/// `Strategy::Auto` and by the streaming monitor's re-check of its record.
/// It holds when a partitioner is supplied and `t` is switch-free
/// (Theorem 2 plus the partitioner contract) or `switch_certified` — a
/// verified switch-independence certificate (`slin-cert/v2`) covers the
/// session's `(adt, partitioner, rinit)`. Returns the partitioner to
/// decompose along ([`check`]); where it says no, the caller checks `t`
/// whole ([`ConsistencyModel::check_monolithic`]).
pub(crate) fn decomposes<'p, I, O, V, P>(
    partitioner: Option<&'p P>,
    switch_certified: bool,
    t: &Trace<Action<I, O, V>>,
) -> Option<&'p P> {
    partitioner.filter(|_| switch_certified || !t.iter().any(|a| a.is_switch()))
}

/// P-compositional checking of a closed trace that [`decomposes`] — the
/// one routine behind every partitioned [`crate::session`] verdict and the
/// streaming monitor's report derivation, for every [`ConsistencyModel`].
///
/// Asks the model what there is to search along `partitioner`
/// ([`ConsistencyModel::project`]), then: searches every class in key
/// order, absorbing its counters, lets the first failing class decide (a
/// refutation or a budget trip alike, so a tripped class under-claims
/// rather than searching again), merges the class chains in
/// engine order against the whole problem's bounds from its seed,
/// re-discharges the whole problem's leaf on the merged chain, and searches
/// the whole problem once when either cannot predict the monolithic first
/// witness ([`PartitionReport::remerged`]). A trace the model checks whole
/// goes to [`ConsistencyModel::check_monolithic`] with `budget` and
/// `threads`.
///
/// Verdicts and witnesses are byte-identical to
/// [`ConsistencyModel::check_monolithic`] (see the [module docs](self) for
/// the argument). The search node `budget` applies per class, so a trace
/// the monolithic search gives up on may well be decided here.
pub(crate) fn check<V, M, P>(
    model: &M,
    partitioner: &P,
    t: &Trace<ObjAction<M::Adt, V>>,
    budget: usize,
    threads: usize,
) -> SplitVerdict<M::Witness, M::Error>
where
    M: ConsistencyModel<V>,
    <M::Adt as Adt>::Input: Ord,
    P: Partitioner<M::Adt>,
{
    let unmerged = |partitions, fallback, stats| PartitionReport {
        partitions,
        fallback,
        remerged: false,
        stats,
    };
    let (whole, classes, refuted) = match model.project(partitioner, t) {
        Projection::Rejected(e) => {
            return SplitVerdict {
                verdict: Err(e),
                report: unmerged(1, None, SearchStats::default()),
            }
        }
        // The whole check validates internally, so no projection
        // validates a trace it does not decompose.
        Projection::Whole {
            partitions,
            fallback,
        } => {
            let (verdict, stats) = model.check_monolithic(t, budget, threads);
            return SplitVerdict {
                verdict,
                report: unmerged(partitions, fallback, stats),
            };
        }
        Projection::Classes {
            whole,
            classes,
            refuted,
        } => (whole, classes, refuted),
    };

    let adt = &**model.adt();
    let mut stats = SearchStats::default();
    let mut queues = Vec::with_capacity(classes.len());
    let mut first_error: Option<M::Error> = None;
    for class in &classes {
        let (found, class_stats) = class.problem.search(adt, budget);
        stats.absorb(&class_stats);
        if first_error.is_some() {
            continue;
        }
        match found {
            Ok(Some((chain, ()))) => queues.push((
                witness_steps(&chain, class.problem.seed.len(), &class.index_map),
                class.problem.pool(),
            )),
            Ok(None) => first_error = Some(refuted()),
            Err(e) => first_error = Some(e.into()),
        }
    }
    let mut report = unmerged(classes.len(), None, stats);
    if let Some(e) = first_error {
        return SplitVerdict {
            verdict: Err(e),
            report,
        };
    }
    // What the model's witness reports as checked: the class searches, not
    // a re-derivation's.
    let interpretations = stats.interpretations;
    let merged = merge_partition_chains(
        &whole.bounds,
        queues,
        whole.seed.clone(),
        PersistentMultiset::new(),
    )
    .and_then(|chain| {
        let longest = chain.last().map_or(&whole.seed[..], |(_, h)| h);
        let leaf = (whole.leaf)(longest)?;
        Some((chain, leaf))
    });
    let found = match merged {
        Some(found) => Ok(Some(found)),
        None => {
            // A cross-class bound blocked a class's next step, or the
            // merged chain fails a leaf condition no class leaf can see:
            // the monolithic first witness is not predictable from the
            // class chains, so search for it (the verdict — every class
            // passing — is already decided).
            let (found, rerun_stats) = whole.search(adt, budget);
            report.remerged = true;
            report.stats.absorb(&rerun_stats);
            found
        }
    };
    let verdict = match found {
        Ok(Some((chain, leaf))) => Ok(M::witness(chain, leaf, interpretations, report.stats)),
        Ok(None) => Err(refuted()),
        Err(e) => Err(e.into()),
    };
    SplitVerdict { verdict, report }
}

/// One step of a witness chain, recovered from the accumulated commit
/// histories: either an interleaved extra input or a commit (with its
/// original trace index and the committed input).
///
/// The online monitor ([`crate::stream`]) replays the same merge over its
/// shard witnesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Step<I> {
    /// An extra input interleaved before the next commit.
    Extra(I),
    /// A commit: `(original trace index, committed input)`.
    Commit(usize, I),
}

/// Decomposes a partition witness chain (whose histories accumulate from a
/// seed of `seed_len` inputs, which is no step) into its step sequence,
/// remapping commit indices through `index_map`.
pub(crate) fn witness_steps<I: Clone>(
    chain: &[(usize, Vec<I>)],
    seed_len: usize,
    index_map: &[usize],
) -> VecDeque<Step<I>> {
    let mut steps = VecDeque::new();
    let mut prev_len = seed_len;
    for (sub_idx, h) in chain {
        debug_assert!(h.len() > prev_len, "chain histories strictly extend");
        for e in &h[prev_len..h.len() - 1] {
            steps.push_back(Step::Extra(e.clone()));
        }
        steps.push_back(Step::Commit(
            index_map[*sub_idx],
            h.last().expect("commit histories are non-empty").clone(),
        ));
        prev_len = h.len();
    }
    steps
}

/// Merges per-partition witness step queues into the chain the monolithic
/// engine finds first, replaying the engine's deterministic search order
/// (see the [module docs](self) for the argument):
///
/// * commits before extras, commits by ascending original trace index,
///   extras by ascending input;
/// * a step is viable only if consuming its input keeps the merged
///   consumed-input multiset inside the validity bound of every remaining
///   commit (`bounds` are the full trace's per-index bounds) — read off
///   the earliest remaining commit, the *floor*, which is why `bounds` must
///   be monotone along the commit indices the queues hand in
///   (`bounds[i] ⊆ bounds[j]` for `i < j`; debug builds assert it);
/// * at every extras node, the **leftover pool inputs of partitions whose
///   queue is exhausted** compete with the queue heads: the engine
///   greedily consumes such inputs (they are no-ops for every remaining
///   commit — their partition has none) whenever they sort below the
///   needed extra and the bounds admit them, and they end up in the
///   witness histories. Each element of `parts` therefore carries the
///   partition's total input pool next to its step queue. Unfinished
///   partitions cannot leak extras this way: their smaller pool inputs
///   already failed their own local search, and a commit-headed partition
///   at an extras node means a blocked head (which bails).
///
/// Returns `None` when any partition's head step is cross-blocked — the
/// one state in which the monolithic first witness may deviate from every
/// per-partition witness, so the caller must re-derive it monolithically.
///
/// The merged histories extend `seed`, and the consumed-input counts start
/// at the seed's elements plus `retained`: [`check`] passes the whole
/// problem's seed history and nothing retained; the monitor passes no
/// history and its garbage-collected prefix summary, whose retained inputs
/// count against the bounds but whose history is dropped. `bounds` must
/// account for both.
pub(crate) fn merge_partition_chains<I: Clone + Ord + std::hash::Hash>(
    bounds: &[PersistentMultiset<I>],
    parts: Vec<(VecDeque<Step<I>>, PersistentMultiset<I>)>,
    seed: Vec<I>,
    retained: PersistentMultiset<I>,
) -> Option<Chain<I>> {
    let (mut queues, pools): (Vec<VecDeque<Step<I>>>, Vec<PersistentMultiset<I>>) =
        parts.into_iter().unzip();
    // The original indices of all remaining commits, across every queue.
    let mut remaining: BTreeSet<usize> = queues
        .iter()
        .flat_map(|q| q.iter())
        .filter_map(|s| match s {
            Step::Commit(idx, _) => Some(*idx),
            Step::Extra(_) => None,
        })
        .collect();
    debug_assert!(
        remaining
            .iter()
            .zip(remaining.iter().skip(1))
            .all(|(&i, &j)| bounds[i].is_subset_of(&bounds[j])),
        "bounds must be monotone along the merged commit indices"
    );

    // The consumed inputs, counted: nothing reads a snapshot of them.
    let mut used: HashMap<I, usize> = retained.iter().map(|(e, n)| (e.clone(), n)).collect();
    for input in &seed {
        *used.entry(input.clone()).or_default() += 1;
    }
    let mut hist: Vec<I> = seed;
    let mut chain: Chain<I> = Vec::new();

    // `input` stays within every remaining commit's bound after one more
    // occurrence is consumed (the monolithic prune admits the child node).
    // The bounds are monotone, so the floor — the earliest remaining
    // commit — carries the tightest one; for a commit head, which is
    // itself remaining, the same comparison is its own validity bound.
    let count = |used: &HashMap<I, usize>, input: &I| used.get(input).copied().unwrap_or(0);
    let viable = |used: &HashMap<I, usize>, input: &I, remaining: &BTreeSet<usize>| {
        remaining
            .first()
            .is_none_or(|&floor| count(used, input) < bounds[floor].count(input))
    };

    loop {
        let mut commit_choice: Option<(usize, usize)> = None; // (orig idx, queue)
        let mut extra_choice: Option<(I, Option<usize>)> = None;
        let mut any_head = false;
        let mut any_blocked = false;
        let mut blocked_commits: Vec<usize> = Vec::new(); // queue indices
        for (qi, q) in queues.iter().enumerate() {
            match q.front() {
                Some(Step::Commit(idx, input)) => {
                    any_head = true;
                    if !viable(&used, input, &remaining) {
                        any_blocked = true;
                        blocked_commits.push(qi);
                    } else if commit_choice.is_none_or(|(best, _)| *idx < best) {
                        commit_choice = Some((*idx, qi));
                    }
                }
                Some(Step::Extra(input)) => {
                    any_head = true;
                    if !viable(&used, input, &remaining) {
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
                let head_idx = match queues[qi].front() {
                    Some(Step::Commit(idx, _)) => *idx,
                    _ => unreachable!("blocked_commits holds commit-headed queues"),
                };
                let deviates = queues[qi].iter().skip(1).any(|s| match s {
                    Step::Commit(idx, _) => *idx > head_idx && *idx < best,
                    Step::Extra(_) => false,
                });
                if deviates {
                    return None;
                }
            }
        }
        // Move 1 (commits, ascending trace index) before move 2 (extras,
        // ascending input) — the engine's child order.
        if let Some((idx, qi)) = commit_choice {
            let Some(Step::Commit(_, input)) = queues[qi].pop_front() else {
                unreachable!("head re-read");
            };
            *used.entry(input.clone()).or_default() += 1;
            hist.push(input);
            chain.push((idx, hist.clone()));
            remaining.remove(&idx);
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
            for (input, cap) in pools[qi].iter() {
                if count(&used, input) < cap
                    && viable(&used, input, &remaining)
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
        *used.entry(input.clone()).or_default() += 1;
        hist.push(input);
    }
    Some(chain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slin_adt::{IdentityPartitioner, KvInput, KvKeyPartitioner, KvOutput, KvStore};
    use slin_trace::{Action, ClientId, PhaseId};
    use std::thread::ThreadId;

    type KA = ObjAction<KvStore, ()>;

    const BUDGET: usize = crate::engine::SearchBudget::DEFAULT_MAX_NODES;

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
    fn witness_steps_recover_extras_and_commits() {
        // Chain histories [a], [a, x, b]: steps are Commit(a), Extra(x),
        // Commit(b), with indices remapped.
        let chain = vec![(0usize, vec!["a"]), (1usize, vec!["a", "x", "b"])];
        let steps = witness_steps(&chain, 0, &[4, 9]);
        assert_eq!(
            steps.into_iter().collect::<Vec<_>>(),
            vec![Step::Commit(4, "a"), Step::Extra("x"), Step::Commit(9, "b"),]
        );
        // A seed is no step: the same chain grown from the seed [a] starts
        // at its second commit's extras.
        let steps = witness_steps(&chain[1..], 1, &[4, 9]);
        assert_eq!(
            steps.into_iter().collect::<Vec<_>>(),
            vec![Step::Extra("x"), Step::Commit(9, "b")]
        );
    }

    #[test]
    fn merge_grows_its_histories_from_the_seed() {
        // The seed's inputs are consumed before the first step and lead
        // every merged history.
        let bounds = vec![PersistentMultiset::elems(&["s", "a", "b"]); 3];
        let qa = VecDeque::from(vec![Step::Commit(2, "a")]);
        let qb = VecDeque::from(vec![Step::Commit(1, "b")]);
        let chain = merge_partition_chains(
            &bounds,
            vec![
                (qa, PersistentMultiset::elems(&["a"])),
                (qb, PersistentMultiset::elems(&["b"])),
            ],
            vec!["s"],
            PersistentMultiset::new(),
        )
        .expect("no head blocked");
        assert_eq!(chain, vec![(1, vec!["s", "b"]), (2, vec!["s", "b", "a"])]);
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
    /// both — equal partition reports, `SearchStats` included — and finds
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
            let by_lin = check(&lin, &KvKeyPartitioner, t, BUDGET, 0);
            let by_slin = check(&slin, &KvKeyPartitioner, &phase_t, BUDGET, 0);
            assert_eq!(by_lin.report, by_slin.report, "{t:?}");
            assert_eq!(by_lin.report.fallback, None);
            assert!(by_lin.report.partitions > 1);
            remerged += by_lin.report.remerged as usize;
            assert_eq!(
                by_lin.verdict,
                lin.check_with_stats_impl(t, BUDGET).0,
                "{t:?}"
            );
            match (by_lin.verdict, by_slin.verdict) {
                (Ok(w), Ok(r)) => {
                    accepted += 1;
                    assert_eq!(w.assignments(), r.witness.commit_histories);
                    assert_eq!(r.stats, by_slin.report.stats);
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
        let qa = VecDeque::from(vec![
            Step::Commit(3, "a"),
            Step::Extra("y"),
            Step::Commit(7, "a"),
        ]);
        let qb = VecDeque::from(vec![
            Step::Commit(1, "b"),
            Step::Extra("x"),
            Step::Commit(5, "b"),
        ]);
        let pa = PersistentMultiset::elems(&["a", "y", "a"]);
        let pb = PersistentMultiset::elems(&["b", "x", "b"]);
        let chain = merge_partition_chains(
            &bounds,
            vec![(qa, pa), (qb, pb)],
            vec![],
            PersistentMultiset::new(),
        )
        .expect("no head blocked");
        let picks: Vec<usize> = chain.iter().map(|(i, _)| *i).collect();
        // Commits by ascending index (1 then 3); at the all-extras node the
        // smaller extra x goes first, which unblocks commit 5 before y.
        assert_eq!(picks, vec![1, 3, 5, 7]);
        assert_eq!(chain[3].1, vec!["b", "a", "x", "b", "y", "a"]);
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
        let qa = VecDeque::from(vec![Step::Extra("a0"), Step::Commit(3, "a")]);
        let qb = VecDeque::from(vec![Step::Extra("b0"), Step::Commit(1, "b")]);
        let pa = PersistentMultiset::elems(&["a0", "a"]);
        let pb = PersistentMultiset::elems(&["b0", "b"]);
        assert_eq!(
            merge_partition_chains(
                &bounds,
                vec![(qa, pa), (qb, pb)],
                vec![],
                PersistentMultiset::new()
            ),
            None
        );
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
        let qa = VecDeque::from(vec![Step::Extra("a0"), Step::Commit(3, "a")]);
        let qb = VecDeque::from(vec![Step::Commit(1, "b")]);
        let pa = PersistentMultiset::elems(&["a0", "a"]);
        let pb = PersistentMultiset::elems(&["b"]);
        let chain = merge_partition_chains(
            &bounds,
            vec![(qa, pa), (qb, pb)],
            vec![],
            PersistentMultiset::new(),
        )
        .expect("commit clears block");
        let picks: Vec<usize> = chain.iter().map(|(i, _)| *i).collect();
        assert_eq!(picks, vec![1, 3]);
        assert_eq!(chain[1].1, vec!["b", "a0", "a"]);
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
        let qa = VecDeque::from(vec![
            Step::Commit(0, "a"),
            Step::Extra("x"),
            Step::Commit(4, "a"),
        ]);
        let qb = VecDeque::from(vec![Step::Commit(1, "b")]);
        let pa = PersistentMultiset::elems(&["a", "x", "a"]);
        let pb = PersistentMultiset::elems(&["b", "b0"]);
        let chain = merge_partition_chains(
            &bounds,
            vec![(qa, pa), (qb, pb)],
            vec![],
            PersistentMultiset::new(),
        )
        .expect("no head blocked");
        let picks: Vec<usize> = chain.iter().map(|(i, _)| *i).collect();
        assert_eq!(picks, vec![0, 1, 4]);
        // After both early commits, the extras node consumes b0 < x, then
        // x, then the final commit.
        assert_eq!(chain[2].1, vec!["a", "b", "b0", "x", "a"]);
    }

    /// The merge as it read before the floor rule — every viability test
    /// scans every remaining commit's bound, the consumed inputs are a
    /// persistent multiset pre-populated by the caller — kept as the
    /// reference `merge_partition_chains` is tested against.
    fn merge_by_scan<I: Clone + Ord + std::hash::Hash>(
        bounds: &[PersistentMultiset<I>],
        parts: Vec<(VecDeque<Step<I>>, PersistentMultiset<I>)>,
        seed: Vec<I>,
        seed_used: PersistentMultiset<I>,
    ) -> Option<Chain<I>> {
        let (mut queues, pools): (Vec<VecDeque<Step<I>>>, Vec<PersistentMultiset<I>>) =
            parts.into_iter().unzip();
        // All remaining commits, across every queue: `(original index, input)`.
        let mut remaining: Vec<(usize, I)> = queues
            .iter()
            .flat_map(|q| q.iter())
            .filter_map(|s| match s {
                Step::Commit(idx, input) => Some((*idx, input.clone())),
                Step::Extra(_) => None,
            })
            .collect();
        remaining.sort_by_key(|(idx, _)| *idx);

        let mut used: PersistentMultiset<I> = seed_used;
        let mut hist: Vec<I> = seed;
        let mut chain: Chain<I> = Vec::new();

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
                    Some(Step::Commit(idx, input)) => {
                        any_head = true;
                        if used.count(input) >= bounds[*idx].count(input)
                            || !viable(&used, input, Some(*idx), &remaining)
                        {
                            any_blocked = true;
                            blocked_commits.push(qi);
                        } else if commit_choice.is_none_or(|(best, _)| *idx < best) {
                            commit_choice = Some((*idx, qi));
                        }
                    }
                    Some(Step::Extra(input)) => {
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
                    let head_idx = match queues[qi].front() {
                        Some(Step::Commit(idx, _)) => *idx,
                        _ => unreachable!("blocked_commits holds commit-headed queues"),
                    };
                    let deviates = queues[qi].iter().skip(1).any(|s| match s {
                        Step::Commit(idx, _) => *idx > head_idx && *idx < best,
                        Step::Extra(_) => false,
                    });
                    if deviates {
                        return None;
                    }
                }
            }
            // Move 1 (commits, ascending trace index) before move 2 (extras,
            // ascending input) — the engine's child order.
            if let Some((idx, qi)) = commit_choice {
                let Some(Step::Commit(_, input)) = queues[qi].pop_front() else {
                    unreachable!("head re-read");
                };
                used.insert(input.clone());
                hist.push(input);
                chain.push((idx, hist.clone()));
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
                for (input, cap) in pools[qi].iter() {
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
        Some(chain)
    }

    /// The merge's bounds, class step queues with their pools, and seed.
    type MergeInputs<I> = (
        Vec<PersistentMultiset<I>>,
        Vec<(VecDeque<Step<I>>, PersistentMultiset<I>)>,
        Vec<I>,
    );

    /// `merge_partition_chains` and [`merge_by_scan`] on the same inputs,
    /// the reference seeded with what the merge counts itself: the seed's
    /// elements plus `retained`.
    fn both_merges<I: Clone + Ord + std::hash::Hash>(
        (bounds, parts, seed): MergeInputs<I>,
        retained: PersistentMultiset<I>,
    ) -> (Option<Chain<I>>, Option<Chain<I>>) {
        let mut seed_used = retained.clone();
        seed_used.extend(seed.iter().cloned());
        let by_scan = merge_by_scan(&bounds, parts.clone(), seed.clone(), seed_used);
        (
            merge_partition_chains(&bounds, parts, seed, retained),
            by_scan,
        )
    }

    /// What [`check`] hands the merge for `t`: the whole problem's bounds
    /// and seed, and per class its witness steps and pool — `None` when the
    /// model states no classes or a class has no chain (no merge runs).
    fn merge_inputs<V, M>(
        model: &M,
        t: &Trace<ObjAction<KvStore, V>>,
    ) -> Option<MergeInputs<KvInput>>
    where
        M: ConsistencyModel<V, Adt = KvStore>,
    {
        let Projection::Classes { whole, classes, .. } = model.project(&KvKeyPartitioner, t) else {
            return None;
        };
        let parts = classes
            .iter()
            .map(|class| {
                let (chain, ()) = class.problem.search(&KvStore, BUDGET).0.ok()??;
                let steps = witness_steps(&chain, class.problem.seed.len(), &class.index_map);
                Some((steps, class.problem.pool()))
            })
            .collect::<Option<_>>()?;
        Some((whole.bounds, parts, whole.seed))
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
            let (got, want) = both_merges(set, PersistentMultiset::new());
            assert_eq!(got, want);
            bailed += got.is_none() as usize;
        }
        assert!(switch_free > 20 && phase >= 100, "{switch_free} + {phase}");
        assert!(bailed > 0 && bailed < total, "{bailed} of {total} bail");
    }

    /// The floor rule against the scan on random monotone bounds: step
    /// queues whose commits come in any index order, heads the bounds
    /// block, pools with leftovers beyond their queue's steps, a seed and a
    /// retained prefix summary.
    #[test]
    fn merge_equals_the_scan_on_random_monotone_bounds() {
        use proptest::prelude::*;
        // Per step: (queue, input, commit?, sort key of its commit index).
        let steps = prop::collection::vec((0..3usize, 0..4u8, 0..3u8, 0..64u8), 1..12);
        // Per commit index: the inputs its bound adds to the one before
        // (the first to the seed and the retained summary).
        let growth = prop::collection::vec(prop::collection::vec(0..4u8, 1..6), 13usize);
        let extras = prop::collection::vec(prop::collection::vec(0..4u8, 0..4), 3usize);
        let seeds = (
            prop::collection::vec(0..4u8, 0..3),
            prop::collection::vec(0..4u8, 0..3),
        );
        let mut merged = 0;
        TestRunner::new(ProptestConfig::with_cases(4000)).run_cases(
            "merge_equals_the_scan_on_random_monotone_bounds",
            |rng| {
                let steps = steps.new_value(rng);
                let (growth, extras) = (growth.new_value(rng), extras.new_value(rng));
                let (seed, retained) = seeds.new_value(rng);
                let mut keys: Vec<(u8, usize)> = steps
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.2 > 0)
                    .map(|(at, s)| (s.3, at))
                    .collect();
                keys.sort_unstable();
                let mut queues = vec![VecDeque::new(); 3];
                let mut pools = vec![PersistentMultiset::new(); 3];
                for (at, &(q, input, _, _)) in steps.iter().enumerate() {
                    queues[q].push_back(match keys.iter().position(|&(_, a)| a == at) {
                        Some(idx) => Step::Commit(idx, input),
                        None => Step::Extra(input),
                    });
                    pools[q].insert(input);
                }
                for (pool, more) in pools.iter_mut().zip(extras) {
                    pool.extend(more);
                }
                let mut bound: PersistentMultiset<u8> =
                    seed.iter().chain(&retained).copied().collect();
                let bounds = growth[..=keys.len()]
                    .iter()
                    .map(|more| {
                        bound.extend(more.iter().copied());
                        bound.clone()
                    })
                    .collect();
                let parts = queues.into_iter().zip(pools).collect();
                let retained = retained.into_iter().collect();
                let (got, want) = both_merges((bounds, parts, seed), retained);
                merged += got.is_some() as usize;
                prop_assert_eq!(got, want);
                Ok(())
            },
        );
        assert!((400..3600).contains(&merged), "{merged} of 4000 merge");
    }
}
