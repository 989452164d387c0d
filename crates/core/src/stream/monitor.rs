//! The generic sharded monitor: one [`Monitor`] over any [`ConsistencyModel`],
//! private to the crate — [`crate::session::Session`] is its only owner.
//!
//! [`Core`] is the model-independent machinery — a router that classifies
//! every ingested action through a [`Partitioner`] and feeds it to the
//! per-key [`ShardState`] incremental engines, while tracking the
//! stream-global facts the batch checkers derive from the closed trace
//! (the live [`Validator`] for signature membership, switch actions and
//! well-formedness; the input multisets) and the one record of the stream
//! every rebuild reads. What a switch action *means* comes from
//! [`ConsistencyModel::phase_bounds`], how a window failure maps onto the
//! model's error type from [`ConsistencyModel::stream_error`]; a window's
//! merged chain is wrapped by [`ConsistencyModel::witness`] like any other.

use super::shard::{ShardConfig, ShardState, ShardStatus};
use super::{
    budget_tripped, GcPolicy, IngestOutcome, MonitorReport, MonitorStatus, ShardSummary,
    StreamFailure,
};
use crate::engine::{Chain, EngineError, SearchSeed, SearchStats};
use crate::model::ConsistencyModel;
use crate::partition::{
    self, merge_partition_chains, witness_steps, FallbackReason, PartitionReport, Step,
};
use crate::ObjAction;
use slin_adt::{Adt, Partitioner};
use slin_obs::{EngineSearchEvent, Obs};
use slin_trace::wf::Validator;
use slin_trace::{Action, PersistentMultiset, PhaseId, Trace};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::Arc;

/// A report cached per stream version (`events` at computation time).
type CachedReport<W, E> = Option<(usize, MonitorReport<W, E>)>;

/// The shared router + shard table behind the monitor.
pub(crate) struct Core<T: Adt, V, K: Ord> {
    adt: Arc<T>,
    shard_cfg: ShardConfig,
    window: Option<usize>,
    /// Whether the model is speculative (its `phase_bounds()` is `Some`): a
    /// switch action defers the verdict to re-checks of the record instead
    /// of deciding it.
    speculative: bool,
    /// Shards by class key; the identity shard (engaged by unclassifiable
    /// inputs) lives under `None` and is always alone.
    pub shards: BTreeMap<Option<K>, ShardState<T, V>>,
    /// Stream length so far (the next action's global index).
    pub events: usize,
    /// The one record of the stream — every event so far, complete or
    /// absent (module docs, "The record"). Kept from birth when the window
    /// is unbounded or `archive_windows > 0`; under a bounded window
    /// dropped at the retirement that takes a shard past `archive_windows`
    /// retired windows (no shard retires past a switch).
    record: Option<Trace<ObjAction<T, V>>>,
    /// A rebuild needed the record after it was gone: from here on the
    /// monitor under-claims, as a lossy shard does.
    lost: bool,
    /// The batch checkers' validator, held live: signature membership,
    /// the first switch action and well-formedness of the stream so far.
    pub wf: Validator<T::Input>,
    /// How many shards' rolling status is [`ShardStatus::Violated`] and
    /// [`ShardStatus::BudgetExhausted`]: a status moves only inside
    /// [`Core::route`] and [`Core::collapse_to_identity`], which keep the
    /// tally, so the rolling verdict is O(1) however many keys there are.
    violated: usize,
    exhausted: usize,
    /// All inputs invoked so far (any shard) — the global extra pool.
    invoked: PersistentMultiset<T::Input>,
    /// Global validity-bound snapshot per commit index (window mode only;
    /// trimmed as prefixes retire). Persistent: one snapshot is an O(1)
    /// structure-sharing clone of `invoked`, not an O(alphabet) deep copy.
    commit_bounds: BTreeMap<usize, PersistentMultiset<T::Input>>,
    /// Whether any shard has retired a prefix (reports become
    /// window-relative unless they read the record).
    pub prefix_committed: bool,
    /// Why identity routing engaged, if it did (mirrors
    /// `SplitOutcome::fallback`).
    pub fallback: Option<FallbackReason>,
}

impl<T, V, K> Core<T, V, K>
where
    T: Adt,
    T::Input: Ord,
    V: Clone + PartialEq,
    K: Ord + Clone,
{
    fn new(
        adt: Arc<T>,
        shard_cfg: ShardConfig,
        window: Option<usize>,
        phase_bounds: Option<(PhaseId, PhaseId)>,
    ) -> Self {
        let keep = window.is_none() || shard_cfg.gc.archive_windows > 0;
        Core {
            adt,
            shard_cfg,
            window,
            speculative: phase_bounds.is_some(),
            shards: BTreeMap::new(),
            events: 0,
            record: keep.then(Trace::new),
            lost: false,
            wf: Validator::new(phase_bounds),
            violated: 0,
            exhausted: 0,
            invoked: PersistentMultiset::new(),
            commit_bounds: BTreeMap::new(),
            prefix_committed: false,
            fallback: None,
        }
    }

    /// Stream-global bookkeeping every event goes through, regardless of
    /// routing. Returns the event's global index.
    fn observe(&mut self, action: &ObjAction<T, V>) -> usize {
        let index = self.events;
        self.events += 1;
        self.wf.observe(action);
        match action {
            Action::Invoke { input, .. } => self.invoked.insert(input.clone()),
            Action::Respond { .. } => {
                if self.window.is_some() {
                    self.commit_bounds.insert(index, self.invoked.clone());
                }
            }
            Action::Switch { .. } => {}
        }
        if let Some(record) = &mut self.record {
            record.push(action.clone());
        }
        index
    }

    /// The stream so far: a copy of the record, or — while nothing has been
    /// retired, so the shard windows together are the whole stream — those
    /// windows merged back into stream order. `None` once the record is
    /// gone.
    fn stream_so_far(&self) -> Option<Trace<ObjAction<T, V>>> {
        match &self.record {
            Some(record) => Some(record.clone()),
            None => (!self.prefix_committed)
                .then(|| self.window_events().into_iter().map(|(_, a)| a).collect()),
        }
    }

    /// A speculative stream's first switch: its deferred verdict re-checks
    /// the record from here on, so the record is kept for good —
    /// materialised now if it was not held, lost if it was dropped.
    fn keep_record(&mut self) {
        if self.record.is_none() {
            self.record = self.stream_so_far();
            self.lost = self.record.is_none();
        }
    }

    /// Routes a (non-switch) action into its shard, creating the shard on
    /// first contact, and applies bounded-window GC afterwards.
    fn route(&mut self, key: Option<K>, action: ObjAction<T, V>, index: usize) -> (usize, bool) {
        if self.lost {
            // Nothing a shard could conclude would be a claim about the
            // whole stream any more.
            return (0, false);
        }
        let key = if self.fallback.is_some() { None } else { key };
        let window = self.window;
        let shard = self
            .shards
            .entry(key)
            .or_insert_with(|| ShardState::new(Arc::clone(&self.adt), self.shard_cfg.clone()));
        let before = shard.status();
        let out = shard.ingest(action, index);
        if let Some(window) = window {
            if let Some(retired) = shard.maybe_retire(window) {
                self.prefix_committed = true;
                if self.record.is_some() {
                    if shard.counters.retired_windows <= self.shard_cfg.gc.archive_windows {
                        self.shard_cfg.obs.archive_window(retired.len() as u64);
                    } else {
                        self.record = None;
                        self.shard_cfg.obs.archive_eviction();
                    }
                }
                for idx in retired {
                    self.commit_bounds.remove(&idx);
                }
            }
        }
        let after = shard.status();
        if before != after {
            self.tally(before, -1);
            self.tally(after, 1);
        }
        out
    }

    /// Moves the tally `status` counts towards (`Ok` shards are not
    /// counted).
    fn tally(&mut self, status: ShardStatus, delta: isize) {
        let count = match status {
            ShardStatus::Violated => &mut self.violated,
            ShardStatus::BudgetExhausted => &mut self.exhausted,
            ShardStatus::Ok => return,
        };
        *count = count.saturating_add_signed(delta);
    }

    /// Engages identity routing, before the triggering event is observed:
    /// one fallback shard replays the stream so far — every event before
    /// the trigger, once — and replaces the per-key shards. Mirrors
    /// `split_trace`'s identity fallback. Without the record the monitor
    /// is lost.
    fn collapse_to_identity(&mut self, reason: FallbackReason) {
        self.fallback = Some(reason);
        let Some(stream) = self.stream_so_far() else {
            self.lost = true;
            return;
        };
        let mut identity = ShardState::new(Arc::clone(&self.adt), self.shard_cfg.clone());
        for (i, a) in stream.into_iter().enumerate() {
            identity.ingest(a, i);
        }
        // The retired windows stay the identity shard's: the archive depth
        // counts them as the per-key shards did.
        for shard in self.shards.values() {
            identity.counters.retired_events += shard.counters.retired_events;
            identity.counters.retired_windows += shard.counters.retired_windows;
        }
        (self.violated, self.exhausted) = (0, 0);
        self.tally(identity.status(), 1);
        self.shards.clear();
        self.shards.insert(None, identity);
    }

    /// The retained window events of every shard, merged back into global
    /// stream order.
    fn window_events(&self) -> Vec<(usize, ObjAction<T, V>)> {
        let mut all: Vec<(usize, ObjAction<T, V>)> = self
            .shards
            .values()
            .flat_map(|s| s.index_map.iter().copied().zip(s.sub.iter().cloned()))
            .collect();
        all.sort_by_key(|(i, _)| *i);
        all
    }

    /// Aggregated rolling shard verdict (worst wins), off the tally.
    fn shard_status(&self) -> MonitorStatus {
        debug_assert_eq!(
            (self.violated, self.exhausted),
            self.shards
                .values()
                .fold((0, 0), |(v, x), s| match s.status() {
                    ShardStatus::Violated => (v + 1, x),
                    ShardStatus::BudgetExhausted => (v, x + 1),
                    ShardStatus::Ok => (v, x),
                })
        );
        if self.lost {
            MonitorStatus::Unknown
        } else if self.violated > 0 {
            MonitorStatus::Violation
        } else if self.exhausted > 0 {
            MonitorStatus::Unknown
        } else {
            MonitorStatus::Ok
        }
    }

    fn summary(&self) -> ShardSummary {
        let mut out = ShardSummary::default();
        let mut nodes: HashSet<usize> = HashSet::new();
        for shard in self.shards.values() {
            out.extension_searches += shard.counters.extension_searches;
            out.fallback_searches += shard.counters.fallback_searches;
            out.frontier_peak = out.frontier_peak.max(shard.counters.frontier_peak);
            out.retired_events += shard.counters.retired_events;
            out.epoch_cuts += shard.counters.epoch_cuts;
            out.lossy_cuts += shard.counters.lossy_cuts;
            out.search_nodes += shard.counters.search_nodes;
            out.enumerated_commits += shard.counters.enumerated_commits;
            out.live_configs += shard.live_configs();
            out.window_events += shard.sub.len();
            shard.mark_multiset_nodes(&mut nodes);
        }
        if self.record.is_some() {
            out.archived_events = out.retired_events;
        }
        self.invoked.mark_nodes(&mut nodes);
        for bound in self.commit_bounds.values() {
            bound.mark_nodes(&mut nodes);
        }
        out.multiset_nodes = nodes.len();
        out
    }

    /// The window-relative search + merge of a bounded-window report that
    /// does not read the record. Returns the merged commit chain in
    /// *global* indices, or the first failing shard's engine outcome, plus
    /// the absorbed stats and whether a monolithic re-derivation ran.
    ///
    /// `key_of` classifies inputs (the monitor's partitioner) — needed only
    /// on the rare merge-bail path, where the per-shard seed states are
    /// assembled into one product state for a monolithic window search.
    #[allow(clippy::type_complexity)]
    fn window_verdict(
        &self,
        key_of: &dyn Fn(&T::Input) -> Option<K>,
    ) -> (Result<Chain<T::Input>, StreamFailure>, SearchStats, bool)
    where
        K: std::hash::Hash + std::fmt::Debug,
    {
        let mut stats = SearchStats::default();
        #[allow(clippy::type_complexity)]
        let mut chains: Vec<(
            &Option<K>,
            &ShardState<T, V>,
            usize,
            Vec<(usize, Vec<T::Input>)>,
            Vec<usize>,
        )> = Vec::new();
        let mut first_error: Option<StreamFailure> = None;
        for (key, shard) in self.shards.iter() {
            let (result, shard_stats) = shard.window_search();
            stats.absorb(&shard_stats);
            match result {
                Ok(Some((seed_index, chain, absorbed))) => {
                    chains.push((key, shard, seed_index, chain, absorbed))
                }
                Ok(None) => {
                    if first_error.is_none() {
                        // After a lossy epoch cut, an exhausted search
                        // space proves nothing: the dropped summary
                        // configurations may have completed.
                        first_error = Some(if shard.lossy() {
                            StreamFailure::BudgetExhausted { nodes: 0 }
                        } else {
                            StreamFailure::NotSatisfied
                        });
                    }
                }
                Err(EngineError::BudgetExhausted { nodes }) => {
                    if first_error.is_none() {
                        first_error = Some(StreamFailure::BudgetExhausted { nodes });
                    }
                }
            }
        }
        if let Some(e) = first_error {
            return (Err(e), stats, false);
        }
        if chains.len() <= 1 {
            let merged = chains
                .pop()
                .map(|(_, shard, _, chain, _)| remap_chain(chain, &shard.index_map))
                .unwrap_or_default();
            return (Ok(merged), stats, false);
        }

        // Rank-compact the global commit indices so the merge machinery can
        // index bounds densely (memory stays O(window)).
        let mut commit_indices: Vec<usize> = self.commit_bounds.keys().copied().collect();
        commit_indices.sort_unstable();
        let bounds_by_rank: Vec<PersistentMultiset<T::Input>> = commit_indices
            .iter()
            .map(|i| self.commit_bounds[i].clone())
            .collect();
        let mut parts: Vec<(VecDeque<Step<T::Input>>, PersistentMultiset<T::Input>)> = Vec::new();
        let mut seed_used: PersistentMultiset<T::Input> = PersistentMultiset::new();
        for (_, shard, seed_index, chain, _) in &chains {
            let ranks: Vec<usize> = shard
                .index_map
                .iter()
                .map(|&global| commit_indices.binary_search(&global).unwrap_or(usize::MAX))
                .collect();
            parts.push((witness_steps(chain, 0, &ranks), shard.pool().clone()));
            seed_used = seed_used.sum(&shard.seed(*seed_index).used);
        }
        if let Some(chain) =
            merge_partition_chains(&bounds_by_rank, parts, Vec::new(), seed_used.clone())
        {
            let merged = chain
                .into_iter()
                .map(|(rank, h)| (commit_indices[rank], h))
                .collect();
            return (Ok(merged), stats, false);
        }

        // Merge bailed (cross-bound coupling): re-derive monolithically
        // over the combined window. The retired prefixes have no histories
        // left, so the monolithic state is assembled as a *product* over
        // the shard keys (sound exactly because multi-shard mode implies
        // every input classifies — the Partitioner product contract).
        // Fixing each shard to the seed its own window_search picked is
        // complete, not a guess: inputs of distinct shards are disjoint,
        // so interleaving the per-shard chains in global commit order
        // satisfies every (monotone, per-input) bound the shards already
        // satisfied locally — a completion from exactly these seeds is
        // guaranteed to exist, and the engine's exhaustive search finds
        // one (only a budget trip, reported as such, can stop it).
        let product = ProductAdt {
            adt: &*self.adt,
            key_of,
        };
        let mut state: std::collections::BTreeMap<K, T::State> = std::collections::BTreeMap::new();
        let mut absorbed_globals: HashSet<usize> = HashSet::new();
        for (key, shard, seed_index, _, absorbed) in &chains {
            let key = key
                .as_ref()
                .expect("multi-shard mode classifies every input");
            state.insert(key.clone(), shard.seed(*seed_index).state.clone());
            // A commit absorbed by the chosen seed's symbolic completions
            // is already explained (and its input already consumed) by
            // that seed's state — the product search must not place it
            // again.
            for &w in absorbed {
                absorbed_globals.insert(shard.index_map[w]);
            }
        }
        let events = self.window_events();
        let trace: Vec<ObjAction<T, V>> = events.iter().map(|(_, a)| a.clone()).collect();
        let globals: Vec<usize> = events.iter().map(|(i, _)| *i).collect();
        let commits: Vec<crate::ops::Commit<ProductAdt<'_, '_, T, K>>> = trace
            .iter()
            .enumerate()
            .filter(|(p, _)| !absorbed_globals.contains(&globals[*p]))
            .filter_map(|(p, a)| match a {
                Action::Respond {
                    client,
                    input,
                    output,
                    ..
                } => Some(crate::ops::Commit {
                    index: p,
                    client: *client,
                    input: input.clone(),
                    output: output.clone(),
                }),
                _ => None,
            })
            .collect();
        let empty = PersistentMultiset::new();
        let bounds: Vec<PersistentMultiset<T::Input>> = (0..=trace.len())
            .map(|p| {
                if p < trace.len() && trace[p].is_respond() {
                    self.commit_bounds[&globals[p]].clone()
                } else {
                    empty.clone()
                }
            })
            .collect();
        let engine = crate::engine::CheckerEngine::new(
            &product,
            &commits,
            &bounds,
            self.invoked.clone(),
            crate::engine::SearchBudget::new(self.shard_cfg.budget),
        );
        let seed = SearchSeed::<ProductAdt<'_, '_, T, K>> {
            history: Vec::new(),
            state,
            used: seed_used,
        };
        let (found, product_stats) = engine.first_solution(seed, &mut |_, _| Some(()));
        stats.absorb(&product_stats);
        let merged = match found {
            Ok(Some((chain, ()))) => Ok(remap_chain(chain, &globals)),
            Ok(None) => Err(StreamFailure::NotSatisfied),
            Err(EngineError::BudgetExhausted { nodes }) => {
                Err(StreamFailure::BudgetExhausted { nodes })
            }
        };
        (merged, stats, true)
    }
}

/// The product ADT over shard keys: routes every input to its class's
/// component state. Sound exactly where it is used — multi-shard merges,
/// where the [`Partitioner`] contract makes the monitored ADT a product
/// over the keys it emits.
struct ProductAdt<'x, 'a, T: Adt, K> {
    adt: &'a T,
    key_of: &'x dyn Fn(&T::Input) -> Option<K>,
}

impl<T, K> Adt for ProductAdt<'_, '_, T, K>
where
    T: Adt,
    K: Ord + Clone + std::hash::Hash + std::fmt::Debug,
{
    type Input = T::Input;
    type Output = T::Output;
    type State = std::collections::BTreeMap<K, T::State>;

    fn initial(&self) -> Self::State {
        std::collections::BTreeMap::new()
    }

    fn apply(&self, state: &Self::State, input: &Self::Input) -> (Self::State, Self::Output) {
        let key = (self.key_of)(input).expect("multi-shard mode classifies every input");
        let component = state
            .get(&key)
            .cloned()
            .unwrap_or_else(|| self.adt.initial());
        let (next, out) = self.adt.apply(&component, input);
        let mut map = state.clone();
        map.insert(key, next);
        (map, out)
    }
}

fn remap_chain<I>(chain: Vec<(usize, Vec<I>)>, index_map: &[usize]) -> Vec<(usize, Vec<I>)> {
    chain
        .into_iter()
        .map(|(sub, h)| (index_map[sub], h))
        .collect()
}

/// Online monitor for any [`ConsistencyModel`] over a live stream of actions.
/// See the [module docs](crate::stream) for the architecture and the
/// exactness guarantees.
pub(crate) struct Monitor<M, V, P>
where
    M: ConsistencyModel<V>,
    P: Partitioner<M::Adt>,
{
    model: M,
    partitioner: Option<P>,
    /// The stream's switch actions are covered by a verified
    /// switch-independence certificate (`slin-cert/v2`): past the first
    /// switch the record still decomposes (`partition::decomposes`), so
    /// deferred verdicts re-check it per class instead of whole. The only
    /// streaming effect of the certificate.
    keyed: bool,
    /// The thread bound of the report's batch checks (the node budget is
    /// the shards', `core.shard_cfg.budget`).
    threads: usize,
    core: Core<M::Adt, V, P::Key>,
    /// The report of the current stream version; deferred statuses resolve
    /// from it, so one derivation serves both.
    cached: CachedReport<M::Witness, M::Error>,
}

impl<M, V, P> Monitor<M, V, P>
where
    M: ConsistencyModel<V>,
    <M::Adt as Adt>::Input: Ord,
    V: Clone + PartialEq,
    P: Partitioner<M::Adt>,
{
    /// Creates a monitor around a model. `None` for the partitioner routes
    /// every event to the identity shard (non-partitionable ADTs still
    /// stream); `keyed` must come from a verified switch certificate (see
    /// `SessionBuilder::try_build`); `budget` and `threads` are the
    /// session's, for every search the monitor runs.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        model: M,
        partitioner: Option<P>,
        window: Option<usize>,
        gc: GcPolicy,
        keyed: bool,
        obs: Obs,
        budget: usize,
        threads: usize,
    ) -> Self {
        let shard_cfg = ShardConfig {
            budget,
            // A frontier holds at least one configuration: at cap 0 every
            // commit would empty it, and an empty frontier reads as a
            // violation.
            gc: GcPolicy {
                frontier_cap: gc.frontier_cap.max(1),
                ..gc
            },
            obs,
        };
        let core = Core::new(
            Arc::clone(model.adt()),
            shard_cfg,
            window,
            model.phase_bounds(),
        );
        Monitor {
            model,
            partitioner,
            keyed,
            threads,
            core,
            cached: None,
        }
    }

    /// Flips the forced-lossy-epoch-cut knob on the live monitor — the
    /// daemon's backpressure shed. Turning it on lets every shard retire
    /// truncated windows (memory over exactness: later would-be violation
    /// verdicts downgrade to [`MonitorStatus::Unknown`]); all current and
    /// future shards pick the change up immediately.
    pub(crate) fn set_epoch_force(&mut self, on: bool) {
        self.core.shard_cfg.gc.epoch_force = on;
        for shard in self.core.shards.values_mut() {
            shard.set_epoch_force(on);
        }
    }

    /// Why this stream left the per-key fast path, or `None` while it is
    /// on it. Cheap (field reads — nothing is computed), so it can be
    /// polled per metrics tick; [`MonitorReport::fallback`] is the
    /// report-time view of the same state, plus whatever the re-check of
    /// the record finds. An uncertified stream counts as fallen back from
    /// its first switch action on (the verdict defers to monolithic
    /// re-checks).
    pub(crate) fn fallback(&self) -> Option<FallbackReason> {
        self.core.fallback.or_else(|| {
            (self.core.wf.first_switch().is_some() && !self.keyed)
                .then_some(FallbackReason::SwitchUncertified)
        })
    }

    fn key_of(&self, input: &<M::Adt as Adt>::Input) -> Option<P::Key> {
        self.partitioner.as_ref().and_then(|p| p.key_of(input))
    }

    /// Ingests the next event of the live stream; O(shard work) — no
    /// re-check of the growing prefix.
    pub(crate) fn ingest(&mut self, action: ObjAction<M::Adt, V>) -> IngestOutcome {
        self.cached = None;
        let was_quiet = self.core.wf.first_switch().is_some();
        if action.is_switch() && !was_quiet && self.core.speculative {
            self.core.keep_record();
        }
        // From the first switch on the verdict is decided (lin) or deferred
        // to re-checks of the record (slin), so no shard result is read
        // again: the shards stay quiet.
        let routed = !(was_quiet || action.is_switch());
        let key = routed.then(|| self.key_of(action.input())).flatten();
        if routed && key.is_none() && self.core.fallback.is_none() {
            self.core
                .collapse_to_identity(FallbackReason::UnclassifiableInput);
        }
        let index = self.core.observe(&action);
        let (frontier_len, fell_back) = if routed {
            self.core.route(key, action, index)
        } else {
            (0, false)
        };
        IngestOutcome {
            index,
            frontier_len,
            fell_back,
            status: self.quick_status(),
        }
    }

    /// O(1) rolling status: the validator's verdict and the shard tally
    /// are both kept per event. Past a switch a speculative model reports
    /// [`MonitorStatus::Deferred`] instead of forcing a batch re-check
    /// ([`Monitor::status`] resolves it); a plain one is decided.
    fn quick_status(&self) -> MonitorStatus {
        if self.core.wf.first_switch().is_some() {
            return if self.core.speculative {
                MonitorStatus::Deferred
            } else {
                MonitorStatus::SwitchSeen
            };
        }
        if self.core.wf.check().is_err() {
            return MonitorStatus::IllFormed;
        }
        self.core.shard_status()
    }

    /// Number of events ingested so far.
    pub(crate) fn events(&self) -> usize {
        self.core.events
    }

    /// Aggregated shard-machinery counters at the current stream position
    /// (the same [`ShardSummary`] the final report carries) — lets load
    /// drivers sample the retained-memory proxy mid-stream without paying
    /// for a report derivation.
    pub(crate) fn shard_summary(&self) -> ShardSummary {
        self.core.summary()
    }

    /// The exact rolling verdict. Cheap on switch-free streams; in
    /// speculative mode it reads the verdict of the (cached per stream
    /// version) report — the same keyed or monolithic derivation
    /// [`Monitor::report`] returns, run at most once per version.
    pub(crate) fn status(&mut self) -> MonitorStatus {
        let quick = self.quick_status();
        if quick != MonitorStatus::Deferred {
            return quick;
        }
        match &self.current_report().verdict {
            Ok(_) => MonitorStatus::Ok,
            Err(e) => M::status_of_error(e),
        }
    }

    /// The full forensic report. With an unbounded window this is
    /// **byte-identical** to the model's batch check on the closed trace
    /// (witness included); with a bounded window it is window-relative
    /// (see the [module docs](crate::stream)) and flagged by
    /// [`MonitorReport::prefix_committed`] — unless it re-checked the
    /// record ([`MonitorReport::reconstructed`]).
    pub(crate) fn report(&mut self) -> MonitorReport<M::Witness, M::Error> {
        self.current_report().clone()
    }

    /// The report of the current stream version, derived on first use.
    fn current_report(&mut self) -> &MonitorReport<M::Witness, M::Error> {
        let events = self.core.events;
        if !matches!(&self.cached, Some((at, _)) if *at == events) {
            self.cached = Some((events, self.compute_report()));
        }
        &self.cached.as_ref().expect("filled above").1
    }

    fn compute_report(&self) -> MonitorReport<M::Witness, M::Error> {
        let core = &self.core;
        let quiet = core.wf.first_switch().is_some();
        let base = MonitorReport {
            verdict: Err(self.model.stream_error(StreamFailure::NotSatisfied)),
            events: core.events,
            shards: core.shards.len(),
            fallback: self.fallback(),
            remerged: false,
            prefix_committed: core.prefix_committed,
            reconstructed: false,
            stats: SearchStats::default(),
            shard: core.summary(),
        };
        // A bounded window reads the record once a prefix has retired (the
        // windows are then not the whole stream), and a speculative stream
        // once it has switched (its deferred verdict is the batch check of
        // the record); otherwise it searches its windows.
        let windowed = core.window.is_some() && !(quiet && core.speculative);
        if windowed || core.lost {
            // Batch precedence (signature, well-formedness, search): the
            // first two read off the validator the batch checkers fold,
            // which has seen the whole stream, not the window.
            if let Err(invalid) = core.wf.check() {
                return MonitorReport {
                    verdict: Err(self.model.stream_error(StreamFailure::Invalid(invalid))),
                    ..base
                };
            }
        }
        if core.lost {
            // The rebuild needed the record and it was gone: under-claim,
            // as a lossy shard does.
            let failure = StreamFailure::BudgetExhausted { nodes: 0 };
            return MonitorReport {
                verdict: Err(self.model.stream_error(failure)),
                ..base
            };
        }
        match &core.record {
            Some(record) if !windowed || core.prefix_committed => {
                // The batch path's own routine over the record. After a
                // retirement the verdict (witness included) is the
                // unbounded session's all the same: it is reconstructed.
                if core.prefix_committed {
                    core.shard_cfg.obs.archive_reconstruction();
                }
                let (verdict, stats, partition) = self.batch_check(record);
                MonitorReport {
                    verdict,
                    fallback: base.fallback.or(partition.and_then(|r| r.fallback)),
                    remerged: partition.is_some_and(|r| r.remerged),
                    reconstructed: core.prefix_committed,
                    stats,
                    ..base
                }
            }
            _ => {
                let (merged, stats, remerged) = core.window_verdict(&|i| self.key_of(i));
                let verdict = match merged {
                    // A window holds no switch action: the default leaf.
                    Ok(chain) => Ok(M::witness(
                        chain,
                        Default::default(),
                        stats.interpretations,
                        stats,
                    )),
                    Err(failure) => Err(self.model.stream_error(failure)),
                };
                MonitorReport {
                    verdict,
                    remerged,
                    stats,
                    ..base
                }
            }
        }
    }

    /// A report-time batch check of the record — per class where it
    /// decomposes (the partition report beside the verdict), whole
    /// otherwise — reported to the observer; window-mode reports are
    /// observed per shard by [`ShardState::window_search`].
    fn batch_check(
        &self,
        closed: &Trace<ObjAction<M::Adt, V>>,
    ) -> (
        Result<M::Witness, M::Error>,
        SearchStats,
        Option<PartitionReport>,
    ) {
        let obs = &self.core.shard_cfg.obs;
        let (budget, threads) = (self.core.shard_cfg.budget, self.threads);
        let t0 = obs.t0();
        let (verdict, stats, partition) =
            match partition::decomposes(self.partitioner.as_ref(), self.keyed, closed) {
                Some(p) => {
                    let sv = partition::check(&self.model, p, closed, budget, threads);
                    (sv.verdict, sv.report.stats, Some(sv.report))
                }
                None => {
                    let (verdict, stats) = self.model.check_monolithic(closed, budget, threads);
                    (verdict, stats, None)
                }
            };
        obs.engine_search(EngineSearchEvent {
            site: "monitor.report",
            nodes: stats.nodes as u64,
            memo_hits: stats.memo_hits as u64,
            budget_exhausted: budget_tripped::<M, V>(&verdict, &stats),
            t0,
        });
        (verdict, stats, partition)
    }
}
