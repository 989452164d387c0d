//! The generic sharded monitor: one [`Monitor`] over any [`ConsistencyModel`],
//! private to the crate — [`crate::session::Session`] is its only owner.
//!
//! The monitor is a router that classifies every ingested action through
//! the session's [`Partitioner`] and feeds it to the per-key [`ShardState`]
//! incremental engines, while tracking the stream-global facts the batch
//! checkers derive from the closed trace (the live [`Validator`] for
//! signature membership, switch actions and well-formedness; the input
//! multisets) and the one record of the stream every rebuild reads. It
//! holds the session's [`ClosedCheck`] — model, partitioner, certificate,
//! budget, threads and observer — and re-checks its record through
//! [`ClosedCheck::check`], the routine a batch session runs. What a switch
//! action *means* comes from [`ConsistencyModel::phase_bounds`].
//!
//! A report re-checks the stream wherever it is at hand — the record, or
//! the shard windows before anything retires — so it is the batch check's
//! by construction. Past a retirement with no record each shard searches
//! its own window, and the report joins the shard chains without a search:
//! inputs of distinct classes commute (the [`Partitioner`] contract), so
//! per-class chains compose (Herlihy and Wing's locality, read on
//! Definition 10), and placing them least floor first keeps every commit
//! inside its validity bound (`interleave`). The outcome — the interleaved
//! chain, a refutation or a budget trip — becomes the model's verdict as a
//! batch search's does: the chain wrapped by
//! [`ConsistencyModel::witness`], the failure converted into the model's
//! error.

use super::shard::{ShardConfig, ShardState, ShardStatus};
use super::{GcPolicy, IngestOutcome, MonitorReport, MonitorStatus, ShardSummary};
use crate::engine::{Chain, EngineError, Refuted, SearchStats};
use crate::model::ConsistencyModel;
use crate::partition::{ClosedCheck, FallbackReason};
use crate::ObjAction;
use slin_adt::{Adt, Partitioner};
use slin_trace::wf::Validator;
use slin_trace::Trace;
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashSet};
use std::sync::Arc;

/// A stream of actions on `T`: the record, or the shard windows merged.
type Stream<T, V> = Trace<ObjAction<T, V>>;

/// A report cached per stream version (`events` at computation time).
type CachedReport<W, E> = Option<(usize, MonitorReport<W, E>)>;

/// What a claim nothing can back reads as: a budget trip at zero nodes —
/// after a lossy cut, or where a rebuild needed the record after it was
/// dropped (module docs, "The record").
const UNPROVABLE: EngineError = EngineError::BudgetExhausted { nodes: 0 };

/// Online monitor for any [`ConsistencyModel`] over a live stream of actions.
/// See the [module docs](crate::stream) for the architecture and the
/// exactness guarantees.
pub(crate) struct Monitor<M, V, P>
where
    M: ConsistencyModel<V>,
    P: Partitioner<M::Adt>,
{
    /// The session's closed-trace configuration. Its partitioner routes
    /// events (`None` routes every event to the identity shard, so
    /// non-partitionable ADTs still stream); its `keyed` says a verified
    /// switch-independence certificate (`slin-cert/v2`) covers the stream's
    /// switch actions, so past the first switch the record still decomposes
    /// and deferred verdicts re-check it per class instead of whole — the
    /// only streaming effect of the certificate; its budget bounds every
    /// search the monitor runs.
    closed: ClosedCheck<M, P>,
    /// The frontier and retirement knobs every shard is built with.
    gc: GcPolicy,
    window: Option<usize>,
    /// Shards by class key; the identity shard (engaged by unclassifiable
    /// inputs) lives under `None` and is always alone.
    shards: BTreeMap<Option<P::Key>, ShardState<M::Adt, V>>,
    /// Stream length so far (the next action's global index).
    events: usize,
    /// The one record of the stream — every event so far, complete or
    /// absent (module docs, "The record"). Kept from birth only for
    /// archival (a bounded window with `archive_windows > 0`), and dropped
    /// at the retirement that takes a shard past `archive_windows` retired
    /// windows; kept from a speculative stream's first switch on (no shard
    /// retires past a switch). Otherwise the shard windows are the stream.
    record: Option<Stream<M::Adt, V>>,
    /// A rebuild needed the record after it was gone: from here on the
    /// monitor under-claims, as a lossy shard does.
    lost: bool,
    /// The batch checkers' validator, held live: signature membership,
    /// the first switch action and well-formedness of the stream so far.
    wf: Validator<<M::Adt as Adt>::Input>,
    /// How many shards' rolling status is [`ShardStatus::Violated`] and
    /// [`ShardStatus::BudgetExhausted`]: a status moves only inside
    /// [`Monitor::route`] and [`Monitor::collapse_to_identity`], which keep
    /// the tally, so the rolling verdict is O(1) however many keys there are.
    violated: usize,
    exhausted: usize,
    /// Whether any shard has retired a prefix (reports become
    /// window-relative unless they read the record).
    prefix_committed: bool,
    /// Why identity routing engaged, if it did.
    fallback: Option<FallbackReason>,
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
    /// Creates a monitor around a session's closed-trace configuration
    /// (see `SessionBuilder::try_build` for where `keyed` comes from),
    /// bounded-window GC past `window` events per shard, and the shards'
    /// GC policy.
    pub(crate) fn new(closed: ClosedCheck<M, P>, window: Option<usize>, gc: GcPolicy) -> Self {
        // An unbounded window retires nothing, so there is nothing to
        // archive: its windows are the whole stream.
        let keep = window.is_some() && gc.archive_windows > 0;
        let phase_bounds = closed.model.phase_bounds();
        Monitor {
            closed,
            // A frontier holds at least one configuration: at cap 0 every
            // commit would empty it, and an empty frontier reads as a
            // violation.
            gc: GcPolicy {
                frontier_cap: gc.frontier_cap.max(1),
                ..gc
            },
            // A window of 0 is one event: a shard retires only at a window
            // multiple or when quiescent, and no length but 0 is a multiple
            // of 0, so a never-quiescent shard would keep every event.
            window: window.map(|w| w.max(1)),
            shards: BTreeMap::new(),
            events: 0,
            record: keep.then(Trace::new),
            lost: false,
            wf: Validator::new(phase_bounds),
            violated: 0,
            exhausted: 0,
            prefix_committed: false,
            fallback: None,
            cached: None,
        }
    }

    /// A fresh shard under the session's budget and observer and the
    /// monitor's GC policy.
    fn new_shard(closed: &ClosedCheck<M, P>, gc: GcPolicy) -> ShardState<M::Adt, V> {
        let cfg = ShardConfig {
            budget: closed.budget,
            gc,
            obs: closed.obs.clone(),
        };
        ShardState::new(Arc::clone(closed.model.adt()), cfg)
    }

    /// Whether the model is speculative (its `phase_bounds()` is `Some`): a
    /// switch action defers the verdict to re-checks of the record instead
    /// of deciding it.
    fn speculative(&self) -> bool {
        self.closed.model.phase_bounds().is_some()
    }

    /// Flips the forced-lossy-epoch-cut knob on the live monitor — the
    /// daemon's backpressure shed. Turning it on lets every shard retire
    /// truncated windows (memory over exactness: later would-be violation
    /// verdicts downgrade to [`MonitorStatus::Unknown`]); all current and
    /// future shards pick the change up immediately.
    pub(crate) fn set_epoch_force(&mut self, on: bool) {
        self.gc.epoch_force = on;
        for shard in self.shards.values_mut() {
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
        self.fallback.or_else(|| {
            (self.wf.first_switch().is_some() && !self.closed.keyed)
                .then_some(FallbackReason::SwitchUncertified)
        })
    }

    /// Ingests the next event of the live stream; O(shard work) — no
    /// re-check of the growing prefix.
    pub(crate) fn ingest(&mut self, action: ObjAction<M::Adt, V>) -> IngestOutcome {
        self.cached = None;
        let was_quiet = self.wf.first_switch().is_some();
        if action.is_switch() && !was_quiet && self.speculative() {
            self.keep_record();
        }
        // From the first switch on the verdict is decided (lin) or deferred
        // to re-checks of the record (slin), so no shard result is read
        // again: the shards stay quiet. Without a partitioner every event
        // goes to the identity shard: there is no per-key path to leave.
        let routed = !(was_quiet || action.is_switch());
        let key = match &self.closed.partitioner {
            Some(p) if routed => {
                let key = p.key_of(action.input());
                if key.is_none() && self.fallback.is_none() {
                    self.collapse_to_identity(FallbackReason::UnclassifiableInput);
                }
                key
            }
            _ => None,
        };
        let index = self.observe(&action);
        let (frontier_len, fell_back) = if routed {
            self.route(key, action, index)
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

    /// Stream-global bookkeeping every event goes through, regardless of
    /// routing. Returns the event's global index.
    fn observe(&mut self, action: &ObjAction<M::Adt, V>) -> usize {
        let index = self.events;
        self.events += 1;
        self.wf.observe(action);
        if let Some(record) = &mut self.record {
            record.push(action.clone());
        }
        index
    }

    /// The stream so far: the record, or — while nothing has been retired,
    /// so the shard windows together are the whole stream — those windows
    /// merged back into stream order. `None` once the record is gone.
    fn stream_so_far(&self) -> Option<Cow<'_, Stream<M::Adt, V>>> {
        match &self.record {
            Some(record) => Some(Cow::Borrowed(record)),
            None => (!self.prefix_committed).then(|| Cow::Owned(self.window_events())),
        }
    }

    /// A speculative stream's first switch: its deferred verdict re-checks
    /// the record from here on, so the record is kept for good —
    /// materialised now if it was not held, lost if it was dropped.
    fn keep_record(&mut self) {
        if self.record.is_none() {
            self.record = self.stream_so_far().map(Cow::into_owned);
            self.lost = self.record.is_none();
        }
    }

    /// Routes a (non-switch) action into its shard, creating the shard on
    /// first contact, and applies bounded-window GC afterwards.
    fn route(
        &mut self,
        key: Option<P::Key>,
        action: ObjAction<M::Adt, V>,
        index: usize,
    ) -> (usize, bool) {
        if self.lost {
            // Nothing a shard could conclude would be a claim about the
            // whole stream any more.
            return (0, false);
        }
        let key = if self.fallback.is_some() { None } else { key };
        let shard = self
            .shards
            .entry(key)
            .or_insert_with(|| Self::new_shard(&self.closed, self.gc));
        let before = shard.status();
        let out = shard.ingest(action, index);
        if let Some(window) = self.window {
            if let Some(retired) = shard.maybe_retire(window) {
                self.prefix_committed = true;
                if self.record.is_some() {
                    if shard.counters.retired_windows <= self.gc.archive_windows {
                        self.closed.obs.archive_window(retired as u64);
                    } else {
                        self.record = None;
                        self.closed.obs.archive_eviction();
                    }
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
    /// the trigger, once — and replaces the per-key shards. Without the
    /// record the monitor is lost.
    fn collapse_to_identity(&mut self, reason: FallbackReason) {
        self.fallback = Some(reason);
        let Some(stream) = self.stream_so_far().map(Cow::into_owned) else {
            self.lost = true;
            return;
        };
        let mut identity = Self::new_shard(&self.closed, self.gc);
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
    fn window_events(&self) -> Stream<M::Adt, V> {
        let mut all: Vec<(usize, ObjAction<M::Adt, V>)> = self
            .shards
            .values()
            .flat_map(|s| s.index_map.iter().copied().zip(s.sub.iter().cloned()))
            .collect();
        all.sort_by_key(|(i, _)| *i);
        all.into_iter().map(|(_, a)| a).collect()
    }

    /// O(1) rolling status: the validator's verdict and the shard tally
    /// are both kept per event. Past a switch a speculative model reports
    /// [`MonitorStatus::Deferred`] instead of forcing a batch re-check
    /// ([`Monitor::status`] resolves it); a plain one is decided.
    fn quick_status(&self) -> MonitorStatus {
        if self.wf.first_switch().is_some() {
            return if self.speculative() {
                MonitorStatus::Deferred
            } else {
                MonitorStatus::SwitchSeen
            };
        }
        if self.wf.check().is_err() {
            return MonitorStatus::IllFormed;
        }
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
        // The aggregated rolling shard verdict (worst wins), off the tally.
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

    /// Number of events ingested so far.
    pub(crate) fn events(&self) -> usize {
        self.events
    }

    /// Aggregated shard-machinery counters at the current stream position
    /// (the same [`ShardSummary`] the final report carries) — lets load
    /// drivers sample the retained-memory proxy mid-stream without paying
    /// for a report derivation.
    pub(crate) fn shard_summary(&self) -> ShardSummary {
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
        out.multiset_nodes = nodes.len();
        out
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

    /// The full forensic report. Wherever the stream is at hand — an
    /// unbounded window, a bounded one before anything retires, or the
    /// record — this is **byte-identical** to the model's batch check on the
    /// closed trace (witness included); past a retirement with no record it
    /// is window-relative (see the [module docs](crate::stream)), flagged
    /// by [`MonitorReport::prefix_committed`] without
    /// [`MonitorReport::reconstructed`].
    pub(crate) fn report(&mut self) -> MonitorReport<M::Witness, M::Error> {
        self.current_report().clone()
    }

    /// The report of the current stream version, derived on first use.
    fn current_report(&mut self) -> &MonitorReport<M::Witness, M::Error> {
        let events = self.events;
        if !matches!(&self.cached, Some((at, _)) if *at == events) {
            self.cached = Some((events, self.compute_report()));
        }
        &self.cached.as_ref().expect("filled above").1
    }

    fn compute_report(&self) -> MonitorReport<M::Witness, M::Error> {
        let deferred = self.wf.first_switch().is_some() && self.speculative();
        let report = |verdict| MonitorReport {
            verdict,
            events: self.events,
            shards: self.shards.len(),
            fallback: self.fallback(),
            remerged: false,
            prefix_committed: self.prefix_committed,
            reconstructed: false,
            stats: SearchStats::default(),
            shard: self.shard_summary(),
        };
        // Batch precedence (signature, well-formedness, search): the first
        // two read off the validator the batch checkers fold, which has
        // seen the whole stream — past a plain-linearizability switch the
        // windows have not. A deferred verdict re-checks the record, which
        // validates it the same way.
        if !deferred || self.lost {
            if let Err(invalid) = self.wf.check() {
                return report(Err(invalid.into()));
            }
        }
        if self.lost {
            // The rebuild needed the record and it was gone: under-claim,
            // as a lossy shard does.
            return report(Err(UNPROVABLE.into()));
        }
        // The stream is re-checked wherever it is at hand: the record, or
        // the shard windows before anything retires — always with an
        // unbounded window, and for a deferred verdict, which keeps the
        // record. Past a retirement with no record, the shard windows are
        // searched instead.
        if let Some(stream) = self.stream_so_far() {
            // The batch path's own routine (observed there; window reports
            // are observed per shard by `ShardState::window_search`). After
            // a retirement the verdict (witness included) is the unbounded
            // session's all the same: it is reconstructed.
            if self.prefix_committed {
                self.closed.obs.archive_reconstruction();
            }
            let partitioner = self.closed.partitioner.as_ref();
            let checked = self.closed.check(partitioner, &stream, "monitor.report");
            let base = report(checked.outcome);
            return MonitorReport {
                fallback: base.fallback.or(checked.partition.and_then(|r| r.fallback)),
                remerged: checked.partition.is_some_and(|r| r.remerged),
                reconstructed: self.prefix_committed,
                stats: checked.stats,
                ..base
            };
        }
        let (verdict, stats) = self.window_verdict();
        MonitorReport {
            stats,
            ..report(verdict)
        }
    }

    /// The window-relative verdict of a report past a retirement with no
    /// record: every shard's window searched from its seeds, the first
    /// failing shard deciding, the stats absorbed over every shard, and the
    /// shard chains interleaved in global indices.
    fn window_verdict(&self) -> (Result<M::Witness, M::Error>, SearchStats) {
        let mut stats = SearchStats::default();
        let mut chains = Vec::with_capacity(self.shards.len());
        let mut failure: Option<M::Error> = None;
        for shard in self.shards.values() {
            let (found, shard_stats) = shard.window_search();
            stats.absorb(&shard_stats);
            let error = match found {
                Ok(Some((chain, ()))) => {
                    chains.push(chain.map_indices(|w| shard.index_map[w]));
                    continue;
                }
                // After a lossy epoch cut, an exhausted search space
                // proves nothing: the dropped summary configurations may
                // have completed.
                Ok(None) if shard.lossy() => UNPROVABLE.into(),
                Ok(None) => Refuted.into(),
                Err(e) => e.into(),
            };
            failure.get_or_insert(error);
        }
        let verdict = match failure {
            Some(error) => Err(error),
            // A window holds no switch action: the default leaf.
            None => Ok(M::witness(interleave(&chains), Default::default())),
        };
        (verdict, stats)
    }
}

/// Joins chains over pairwise disjoint inputs (one per shard, in global
/// trace indices) into one chain of the whole stream. A chain's *floor* is
/// the least trace index among its unplaced commits; the chain with the
/// least floor places its inputs up to its next commit. Every input so
/// placed is in the history of the commit at its chain's floor, hence in
/// that commit's validity bound, and that floor is at most the index of
/// every commit still unplaced in any chain: bounds grow along the trace,
/// so every commit's history stays inside its own bound. Each commit's
/// output is its chain's, since inputs of distinct classes commute.
fn interleave<I: Clone>(chains: &[Chain<I>]) -> Chain<I> {
    // Per chain, the floor from each of its cuts on: a suffix minimum.
    let floors: Vec<Vec<usize>> = chains
        .iter()
        .map(|chain| {
            let mut floors: Vec<usize> = chain.cuts().iter().map(|&(i, _)| i).collect();
            for j in (1..floors.len()).rev() {
                floors[j - 1] = floors[j - 1].min(floors[j]);
            }
            floors
        })
        .collect();
    // `(floor, chain, its next cut)`, least floor first; floors of distinct
    // chains are distinct trace indices.
    let mut next: BinaryHeap<Reverse<(usize, usize, usize)>> = (floors.iter().enumerate())
        .filter_map(|(k, f)| Some(Reverse((*f.first()?, k, 0))))
        .collect();
    let mut history = Vec::with_capacity(chains.iter().map(|c| c.history().len()).sum());
    let mut cuts = Vec::with_capacity(floors.iter().map(Vec::len).sum());
    while let Some(Reverse((_, k, j))) = next.pop() {
        let chain = &chains[k];
        let from = j.checked_sub(1).map_or(0, |p| chain.cuts()[p].1);
        let (index, len) = chain.cuts()[j];
        history.extend_from_slice(&chain.history()[from..len]);
        cuts.push((index, history.len()));
        if let Some(&floor) = floors[k].get(j + 1) {
            next.push(Reverse((floor, k, j + 1)));
        }
    }
    Chain::new(history, cuts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SearchBudget;
    use crate::initrel::ExactInit;
    use crate::lin::LinChecker;
    use crate::slin::SlinChecker;
    use slin_adt::{KvInput, KvKeyPartitioner, KvOutput, KvStore};
    use slin_obs::Obs;
    use slin_trace::{Action, ClientId, PhaseId};

    /// A monitor over `model`, sharded per key, with the given window and
    /// archival depth.
    fn monitor<M, V>(
        model: M,
        window: Option<usize>,
        archive_windows: usize,
    ) -> Monitor<M, V, KvKeyPartitioner>
    where
        M: ConsistencyModel<V, Adt = KvStore>,
        V: Clone + PartialEq,
    {
        let closed = ClosedCheck {
            model,
            partitioner: Some(KvKeyPartitioner),
            keyed: false,
            budget: SearchBudget::DEFAULT_MAX_NODES,
            threads: 1,
            obs: Obs::noop(),
        };
        let gc = GcPolicy {
            archive_windows,
            ..GcPolicy::default()
        };
        Monitor::new(closed, window, gc)
    }

    /// A put on each of two keys, then a pending get.
    fn events<V>() -> Vec<ObjAction<KvStore, V>> {
        let (c1, c2, ph) = (ClientId::new(1), ClientId::new(2), PhaseId::FIRST);
        vec![
            Action::invoke(c1, ph, KvInput::Put(1, 1)),
            Action::invoke(c2, ph, KvInput::Put(2, 2)),
            Action::respond(c1, ph, KvInput::Put(1, 1), KvOutput::Ack),
            Action::respond(c2, ph, KvInput::Put(2, 2), KvOutput::Ack),
            Action::invoke(c1, ph, KvInput::Get(1)),
        ]
    }

    /// The record policy (module docs, "The record"): an unbounded stream
    /// holds its events once, in the shard windows, until a speculative
    /// switch keeps a record; only archival keeps one from birth.
    #[test]
    fn the_record_is_kept_from_birth_only_for_archival() {
        let mut plain = monitor::<_, ()>(LinChecker::owned(KvStore), None, 0);
        for a in events() {
            plain.ingest(a);
            assert!(plain.record.is_none());
        }
        assert_eq!(plain.shard_summary().window_events, plain.events());

        let model = SlinChecker::owned(KvStore, ExactInit::new(), PhaseId::FIRST, PhaseId::new(2));
        let mut speculative = monitor(model, None, 0);
        let mut so_far = Trace::new();
        for a in events() {
            so_far.push(a.clone());
            speculative.ingest(a);
            assert!(speculative.record.is_none());
        }
        let value = vec![KvInput::Put(1, 1), KvInput::Put(2, 2)];
        let switch = Action::switch(ClientId::new(1), PhaseId::new(2), KvInput::Get(1), value);
        so_far.push(switch.clone());
        speculative.ingest(switch);
        assert_eq!(speculative.record.as_ref(), Some(&so_far));

        for (window, archive_windows) in [(Some(64), 0), (None, 1)] {
            let mut unarchived =
                monitor::<_, ()>(LinChecker::owned(KvStore), window, archive_windows);
            for a in events() {
                unarchived.ingest(a);
            }
            assert!(unarchived.record.is_none(), "window {window:?}");
        }

        let mut archived = monitor::<_, ()>(LinChecker::owned(KvStore), Some(64), 1);
        assert_eq!(archived.record, Some(Trace::new()));
        let mut so_far = Trace::new();
        for a in events() {
            so_far.push(a.clone());
            archived.ingest(a);
            assert_eq!(archived.record.as_ref(), Some(&so_far));
        }
    }

    /// The floor-order interleave of per-class chains is a witness of the
    /// whole trace: the classes the plain checker states for switch-free
    /// multi-key and hostile traces, each searched alone, then
    /// interleaved. Validity, not equality — the interleave need not be
    /// the chain the monolithic search finds first, and often is not.
    #[test]
    fn interleaved_class_chains_are_a_witness_of_the_whole_trace() {
        use crate::gen::{random_hostile_kv_trace, random_multikey_kv_trace};
        use crate::gen::{HostileConfig, MultiKeyConfig};
        use crate::lin::witness_is_valid;
        use crate::model::Projection;
        let lin = LinChecker::owned(KvStore);
        let mut traces = Vec::new();
        for keys in 2..=5 {
            for seed in 0..40 {
                traces.push(random_multikey_kv_trace(&MultiKeyConfig {
                    clients: 3,
                    steps: 48,
                    keys,
                    skew: 0.4,
                    contention: 0.3,
                    error_prob: 0.0,
                    seed,
                }));
                traces.push(random_hostile_kv_trace(&HostileConfig {
                    clients: 3,
                    steps: 60,
                    keys,
                    never_frac: 0.1,
                    seed,
                    ..HostileConfig::default()
                }));
            }
        }
        let (mut interleaved, mut differ) = (0, 0);
        for t in &traces {
            let Projection::Classes { classes, .. } = lin.project(Some(&KvKeyPartitioner), t)
            else {
                continue;
            };
            let chains: Option<Vec<_>> = classes
                .iter()
                .map(|class| {
                    let (found, _) = class.search(&KvStore, SearchBudget::DEFAULT_MAX_NODES);
                    found.ok()?.map(|(chain, ())| chain)
                })
                .collect();
            let Some(chains) = chains else {
                continue;
            };
            let witness =
                <LinChecker<KvStore> as ConsistencyModel<()>>::witness(interleave(&chains), ());
            assert!(witness_is_valid(&KvStore, t, &witness), "{t:?}");
            interleaved += 1;
            differ += usize::from(lin.check(t).as_ref() != Ok(&witness));
        }
        assert!(interleaved >= 300, "only {interleaved} traces interleaved");
        assert!(differ > 0, "every interleave was the first witness");
    }
}
