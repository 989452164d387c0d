//! Per-shard incremental engine state.
//!
//! A [`ShardState`] owns one independence class of the stream (or the whole
//! stream, for the identity shard) and keeps the check *incremental*: the
//! key data structure is the **frontier** — a bounded, deterministic set of
//! complete chain-search configurations, each one a genuine witness that
//! the shard's sub-trace ingested so far is linearizable. Events update the
//! frontier instead of re-running [`CheckerEngine::first_solution`] on the
//! growing prefix:
//!
//! * an **invocation** only widens future validity bounds, so every
//!   frontier configuration stays complete. It records one occurrence in
//!   the shard's count table ([`crate::ops::Bounds`]: per input, a base
//!   count and the window indices its occurrences arrive at, which answers
//!   the bound at every window index): a lookup and a push into a buffer
//!   that keeps its capacity — no bound is copied per index, and the window
//!   buffers (events, global indices, commits) are cleared, not dropped, at
//!   a retirement, so they grow to a window's events once;
//! * a **response** (a new commit) either is **absorbed** by a matching
//!   symbolic straggler completion recorded by an earlier epoch cut or
//!   fallback (see below) or extends each configuration *at the tail* of
//!   its chain: a direct-commit pass first (the common case), then a
//!   bounded search interleaving extra inputs from the pool before the
//!   commit.
//!
//! Every search here — tail extension, the fallback re-search, the
//! epoch-cut summary — is the chain-search kernel of [`crate::engine`]
//! driven by one enumeration visitor (`Collect`): it gathers the distinct
//! terminal configurations, deduplicated on the kernel's own memo key
//! (reached ADT state, consumed-input multiset, remaining symbolic
//! completions) so interchangeable configurations never crowd the
//! frontier. Tail extension is that enumeration over the one-commit
//! problem, seeded from each frontier configuration.
//!
//! **What a search costs.** A shard is one independence class — on the
//! hostile streams a single key, where every client's `get(k)` is an
//! interchangeable occurrence of one input. That is exactly where a
//! bound-only search thrashes (it spends an occurrence early and learns
//! levels later that an earlier commit is starved), and exactly what the
//! kernel's feasibility prune cuts before descending (see
//! [`crate::engine`]): an enumeration here visits the configurations it
//! returns and little else. On the B6h sweep pinned in `work_pins.rs`, per
//! ingested event: 5–6 search nodes on zipf-delay streams and 13–30 on
//! stragglers across `w = 8..24` (44–313 and 108–824 with the bound-only
//! prune); a cut whose complete summary is 1–10 configurations costs tens
//! of nodes, not thousands.
//!
//! A node, in turn, costs integers, and seldom an allocation: inside a
//! search the consumed inputs are per-class counters and the memo is probed
//! by reference (see [`crate::engine`], "The memo"); an enumeration builds
//! **one engine** — one class table — and one `Search` for all its seeds,
//! each run starting from the mask of the commits its seed still places
//! (a seed's completions absorb some; no commit list is copied), and the
//! kernel's type-independent buffers outlive the enumeration on its
//! thread's free list, so the next one starts with their capacity; the
//! collector's hash index is the shard's one result set, cleared, not
//! dropped, between enumerations; a `KvStore` state holds one binding —
//! all a per-key shard ever has — inline, so a step, a clone or a drop of
//! it allocates nothing and touches no reference count
//! ([`slin_adt::KvState`]); and the frontier's direct-commit pass tests one
//! count, building `used` only for a configuration whose output matched
//! and *moving* that configuration into its successor — history and
//! completions taken, not copied — into that result set. A calm event
//! neither searches nor falls back, so it allocates little beyond what its
//! successor configurations' consumed inputs need: 1.25 allocations per
//! event in release on the calm stream of `tests/tests/alloc_gate.rs`,
//! window retirements included (1.68 with a slice per one-binding state;
//! 5.9 with a per-index bound snapshot, a copied history and fresh window
//! buffers). A hot-key event there makes 3.42 — 5.75 with a slice per
//! one-binding state and an engine per group of seeds placing the same
//! commits. On the
//! `stream-hotkey` benchmark workload an event's whole wall divided by its
//! search nodes is ≈360 ns (≈810 when every node path-copied a multiset and cloned its
//! memo key), on `stream-stragglers` ≈580 (≈1 090) — at the 10.1 and 6.4
//! nodes per event of that measurement; the checkpoint below removed nodes,
//! not the per-event costs around them, so the same quotient read ≈560
//! and ≈660 over 5.2 and 5.5. Making a small multiset one bucket (one
//! allocation per insert, `==` and `⊆` without hashing; see
//! [`slin_trace::pmultiset`]) took it to ≈465 and ≈520 (parent ≈580 and
//! ≈675 in the same alternating pairs, 5 and 10 of them). Sharing the
//! state's slice and recycling the kernel's buffers took an event's
//! allocations from 16.6 to 9.8 and from 19.8 to 12.5 (traced, seed 21),
//! and the quotient from ≈550 to ≈465 and from ≈615 to ≈520 (medians of
//! three alternating untraced pairs at seed 21; the box read slower than
//! at the figures before, so compare within a pair). Section timers on a
//! scratch copy (timer cost subtracted; indicative) put three quarters of a
//! hot-key event inside the kernel — queueing the admitted moves 37 %, the
//! ADT step and the child's state 25 %, leaves (`used` as a multiset, the
//! dedup probe, a survivor's history) 15 %, hashing and probing the memo
//! 12 %, filling it 11 % — and the rest around it: the class table, built
//! once per enumeration, 8 %; per-search set-up 8 %; the direct-commit pass
//! 10 %. What is left is the number of nodes: GC-cut enumeration and
//! fallback re-search are still the two largest terms of a hostile
//! stream's wall time (`stream.gc_time_frac` ≈0.3 and
//! `fallback_time_frac` ≈0.35 on `stream-hotkey`, ≈0.53 and ≈0.12 on
//! `stream-stragglers`), although neither starts over any more: each
//! searches only the commits since the last complete enumeration (see "The
//! checkpoint" below), so a commit is enumerated once — it was 1.8 times on
//! the hot-key workload and 1.3 on the stragglers — at a steady ≈10 nodes
//! per enumerated commit whatever the depth.
//!
//! Tail extension is *sound* (a surviving configuration is a witness) but
//! deliberately not complete: the first monolithic witness of the longer
//! prefix may place the new commit *earlier* in the chain than every
//! configuration the frontier kept, and the frontier is capped
//! ([`GcPolicy::frontier_cap`]). Whenever the frontier prunes empty, the
//! shard falls back to one **bounded re-search** over the retained window
//! from the retained seeds (in effect: it resumes at the checkpoint) —
//! which either refills the frontier (the exact rolling verdict stays
//! "ok") or proves the violation. The re-search *enumerates* terminal
//! configurations, so the refilled frontier is diverse and the next
//! commits extend cheaply again. This
//! frontier-plus-fallback loop is what makes every rolling verdict exact
//! while keeping the common case (append-only growth) cheap.
//!
//! # Epoch GC: retiring windows that never quiesce
//!
//! [`ShardState::maybe_retire`] retires a window once it exceeds the
//! configured size. The engine's memoisation argument says a
//! configuration's entire future depends only on its `(state,
//! consumed-input multiset)` key — so the **complete set** of reachable
//! terminal keys is a lossless summary of the retired prefix. Retirement
//! runs one complete enumeration and keeps **all** enumerated
//! configurations as search seeds.
//!
//! At a **quiescent** cut (every invocation responded) the summary is
//! exactly that pair: every pool occurrence is consumed by its own commit,
//! so terminal configurations interleave no extras and the set is small.
//!
//! A never-quiescent stream — one invocation that never responds is enough
//! — used to pin the window forever. **Epoch cuts** (always on once a
//! window is set) retire anyway, at window multiples, by
//! completing stragglers *symbolically*: the enumeration records every
//! interleaved extra input together with the output the ADT produced for
//! it as a **symbolic completion** `(input, output)` in the terminal
//! configuration's `sym` multiset. A straggler's response arriving *after*
//! the cut is then explained in O(1) — any configuration holding a
//! matching completion absorbs the commit by designating the pre-cut extra
//! as its commit entry (valid because the pre-cut consumed inputs are
//! inside every post-cut validity bound, which is monotone). A straggler
//! whose input was *not* interleaved pre-cut needs no completion at all:
//! its pool occurrence survives into the base, and the post-cut search
//! places the commit directly. Stragglers that never respond leave their
//! completions unconsumed — harmless. Quiescent cuts are the degenerate
//! case: their terminal configurations record no completions, so the
//! pre-epoch behavior (and every existing verdict) is reproduced exactly.
//!
//! Re-searches from a seed carrying symbolic completions first absorb
//! greedily: the earliest window commit matching each completion is
//! dropped from the seed's start mask (complete — a witness committing such
//! a commit in-window converts into one absorbing it, with the identical
//! terminal key, and absorbing the *earliest* match is optimal because
//! later matches have larger bounds). The batch engine then runs unchanged
//! on the masked commits: a run from a mask is the run over the masked
//! commits alone (see `Search::run`).
//!
//! ## The checkpoint: every complete enumeration is a cut that retires nothing
//!
//! Nothing in the argument above needs the summarised events to be
//! *dropped*. The complete terminal-key set of the window's first `mark`
//! commits, enumerated in record mode, summarises those commits for every
//! longer window exactly as a cut's summary does for every later one — the
//! same sentence, with "pre-cut" read as "before the mark". So a fallback
//! re-search enumerates the way a cut does (record mode, to one past twice
//! the frontier cap, full budget per configuration), and when it completes
//! the shard keeps what it proved: the **checkpoint** `(mark, configs)`.
//! The next fallback or cut starts there instead of at the seeds — each
//! checkpoint configuration greedily absorbs the commits past the mark that
//! match its completions (the post-cut rule of the previous paragraph,
//! verbatim) and the kernel places the rest after its history — and a cut
//! retires into what that enumeration returns. After a retirement the
//! checkpoint is the new seeds themselves (`mark = 0`, not a copy), which
//! is the old start-over behaviour; an enumeration that trips its budget or
//! outgrows the cap proves nothing and leaves the checkpoint where it was.
//! The frontier a fallback refills is the first `frontier_cap` checkpoint
//! configurations, completions included, so a straggler's later response is
//! absorbed in O(1) instead of falling back again. A report past a
//! retirement still searches the whole window from the seeds: witnesses do
//! not move.
//!
//! Unlike a seed, a checkpoint configuration keeps its window-relative
//! history, so histories mean what they mean from the seeds. Extras are
//! bounded by the pool alone — a history may outgrow the window by the
//! stragglers invoked before it — so a complete enumeration is complete
//! for every longer window too. A checkpoint is at most twice the
//! frontier cap configurations with histories no longer than the window
//! plus its pending stragglers: retained memory stays O(window +
//! alphabet).
//!
//! **One corner, inherited from greedy absorption.** Enumerating a window
//! from a checkpoint and from the seeds gives the same key set almost
//! always (7 119 of 7 124 windows in this file's test sweep; the other five
//! on faulty four-client streams). Where they differ, the from-checkpoint
//! set is a strict subset, missing only configurations in which a response
//! that a recorded extra absorbs was instead committed at the chain's
//! tail, after that extra: converted to the absorbing witness, the chain
//! ends in *trailing* extras, which no enumeration emits (an extra is
//! interleaved before a commit) and which the next commit's extras
//! re-create — same state, same consumed inputs, same completions, one
//! move later. Never a superset, never a different emptiness, and the same
//! trade every post-cut search already makes; the tests at the bottom of
//! this file check exactly this at every event of their corpus.
//!
//! Retirement is **skipped** rather than allowed to lose information when
//! the enumeration is truncated (more than twice [`GcPolicy::frontier_cap`]
//! configurations, or a budget trip) — so verdicts after GC remain exact,
//! and only the *witness histories* become window-relative. The price on
//! hostile streams is that a window whose summary outgrows the cap pins
//! its memory. [`GcPolicy::epoch_force`] trades exactness for the
//! memory bound instead: a truncated cut retires from the (incomplete)
//! frontier, the shard is marked *lossy*, and every later would-be
//! `Violated` verdict is downgraded to [`ShardStatus::BudgetExhausted`] —
//! a missing completion can no longer prove a violation, only a found
//! completion still proves "ok".
//!
//! A shard keeps no event it has retired: a cut leaves the summary and a
//! count of retired windows. The stream's one record, when there is one,
//! is the monitor's (see `stream/mod.rs`, "The record").

use super::GcPolicy;
use crate::engine::{
    CheckerEngine, CommitMask, EngineError, Found, HashIndex, KeyHasher, LeafUsed, Search,
    SearchBudget, SearchSeed, SearchStats, Visitor,
};
use crate::ops::{Bounds, Commit};
use crate::ObjAction;
use slin_adt::Adt;
use slin_obs::{CutOutcome, GcCutEvent, Obs, ShardIngestEvent};
use slin_trace::{Action, PersistentMultiset, Trace};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::ops::ControlFlow;
use std::sync::Arc;

/// Symbolic straggler completions: the multiset of `(input, output)` pairs
/// a configuration interleaved as extras before an epoch cut, available to
/// absorb matching post-cut responses.
type SymSet<T> = PersistentMultiset<(<T as Adt>::Input, <T as Adt>::Output)>;

/// Node budget of one frontier tail-extension pass, and the unit the
/// opportunistic retirement slice is a multiple of (see
/// `ShardState::retire_budget`). Exhausting it forces a fallback re-search,
/// so exactness never depends on it. A constant, not a [`GcPolicy`] field:
/// no caller ever set another value.
const EXTENSION_BUDGET: usize = 4096;

/// What every shard of one monitor is built with: the fallback search
/// budget, the session's [`GcPolicy`], and the observer handle.
#[derive(Debug, Clone)]
pub(crate) struct ShardConfig {
    /// Node budget of a fallback re-search (the engine's budget unit).
    pub budget: usize,
    /// The frontier and retirement knobs, verbatim from the session.
    pub gc: GcPolicy,
    /// Observer handle; the default noop handle makes every report a
    /// single pointer test.
    pub obs: Obs,
}

/// Rolling verdict of one shard, exact at every event (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShardStatus {
    /// Every ingested prefix of this shard is linearizable.
    Ok,
    /// The shard's sub-trace is not linearizable (permanent: violations
    /// survive arbitrary extensions of the trace).
    Violated,
    /// A fallback re-search exhausted its node budget (or a lossy epoch
    /// cut made "no completion" inconclusive); the rolling verdict is
    /// unknown until a later search succeeds.
    BudgetExhausted,
}

/// Counters aggregated into [`super::ShardSummary`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ShardCounters {
    pub extension_searches: usize,
    pub fallback_searches: usize,
    pub frontier_peak: usize,
    pub retired_events: usize,
    /// Windows retired — what the monitor holds against
    /// [`GcPolicy::archive_windows`] to decide when the record goes.
    pub retired_windows: usize,
    /// Non-quiescent (epoch) retirement cuts.
    pub epoch_cuts: usize,
    /// Forced lossy cuts (truncated summary retired anyway).
    pub lossy_cuts: usize,
    /// Nodes expanded by enumeration/extension searches (a deterministic
    /// work proxy, unlike wall-clock time).
    pub search_nodes: usize,
    /// Window commits handed to a fallback or cut enumeration — those past
    /// the checkpoint — summed per enumeration, not per seed. Where every
    /// enumeration completes this is at most the commits ingested: each
    /// commit is enumerated once.
    pub enumerated_commits: usize,
}

/// One complete chain-search configuration: where a search may resume —
/// the terminal history of a witness chain for everything committed so far
/// (window-relative) with its replayed ADT state and consumed-input
/// multiset — plus the remaining symbolic completions. Frontier entries
/// and the retained seeds (the summary of the retired prefix, histories
/// dropped) are both configurations.
#[derive(Debug)]
struct FrontierCfg<T: Adt> {
    seed: SearchSeed<T>,
    sym: SymSet<T>,
}

// Manual impl: the derive would demand `T: Clone`.
impl<T: Adt> Clone for FrontierCfg<T> {
    fn clone(&self) -> Self {
        FrontierCfg {
            seed: self.seed.clone(),
            sym: self.sym.clone(),
        }
    }
}

impl<T: Adt> FrontierCfg<T> {
    /// Deterministic order rank for configurations sharing a history
    /// (possible since absorption leaves histories untouched): a
    /// commutative fingerprint of the symbolic-completion multiset's
    /// contents. It is the frontier's own, read off the elements, not the
    /// multiset's `Hash`: that follows the multiset's element hash, and a
    /// tie broken the other way keeps another configuration under the cap
    /// and moves the search's work.
    fn sym_rank(&self) -> (usize, u64) {
        /// `splitmix64`'s finalizer.
        fn mix(mut z: u64) -> u64 {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let fingerprint = self.sym.iter().fold(0u64, |sum, (pair, n)| {
            let mut h = DefaultHasher::new();
            pair.hash(&mut h);
            sum.wrapping_add(mix(h.finish() ^ mix(n as u64)))
        });
        let mut h = DefaultHasher::new();
        (fingerprint, self.sym.len(), self.sym.distinct_len()).hash(&mut h);
        (self.sym.len(), h.finish())
    }
}

/// The distinct configurations gathered so far, in arrival order,
/// deduplicated on the frontier's memo key — reached ADT state,
/// consumed-input multiset, remaining symbolic completions: two
/// configurations agreeing on it are interchangeable for every future
/// event. Probed with the parts by reference (persistent multisets hash
/// through their cached commutative fingerprint); nothing is cloned for a
/// duplicate.
struct Distinct<T: Adt> {
    configs: Vec<FrontierCfg<T>>,
    index: HashIndex,
}

// Manual impl: the derive would demand `T: Default`.
impl<T: Adt> Default for Distinct<T> {
    fn default() -> Self {
        Distinct {
            configs: Vec::new(),
            index: HashIndex::default(),
        }
    }
}

impl<T: Adt> Distinct<T> {
    /// The key's hash, and whether a configuration with that key is held.
    fn probe(
        &self,
        state: &T::State,
        used: &PersistentMultiset<T::Input>,
        sym: &SymSet<T>,
    ) -> (u64, bool) {
        let hash = KeyHasher::hash_of((state, used, sym));
        let is_it = |i: usize| {
            let held = &self.configs[i];
            held.seed.state == *state && held.seed.used == *used && held.sym == *sym
        };
        (hash, self.index.contains(hash, is_it))
    }

    /// Adds `cfg`, whose key [`Distinct::probe`] hashed to `hash` and did
    /// not find.
    fn push(&mut self, hash: u64, cfg: FrontierCfg<T>) {
        self.index.push(hash);
        self.configs.push(cfg);
    }

    /// Empties the set, keeping its capacity.
    fn clear(&mut self) {
        self.configs.clear();
        self.index.clear();
    }
}

/// Greedy absorption of window commits into a seed's symbolic
/// completions: the earliest commit matching each completion is absorbed
/// (its commit entry is the pre-cut extra). Returns the commits left to
/// place, as a mask over `commits` (all of them when there is nothing to
/// absorb into), and the unconsumed completions.
fn absorb_commits<T: Adt>(commits: &[Commit<T>], sym: &SymSet<T>) -> (CommitMask, SymSet<T>) {
    let mut start = CommitMask::full(commits.len());
    let mut sym = sym.clone();
    for (k, c) in commits.iter().enumerate() {
        if sym.is_empty() {
            break;
        }
        if sym.remove(&(c.input.clone(), c.output.clone())) {
            start.remove(k);
        }
    }
    (start, sym)
}

/// One search of an enumeration: the configuration to start from, and the
/// commits it places — a mask over the enumeration's one commit list.
struct Problem<'a, T: Adt> {
    start: CommitMask,
    seed: &'a SearchSeed<T>,
    sym: SymSet<T>,
}

/// Deterministic frontier order: lexicographic by history, then by the
/// symbolic-completion rank (absorption preserves histories, so histories
/// alone do not discriminate).
fn sort_frontier<T: Adt>(configs: &mut [FrontierCfg<T>])
where
    T::Input: Ord,
{
    configs.sort_by(|a, b| {
        (a.seed.history.cmp(&b.seed.history)).then_with(|| a.sym_rank().cmp(&b.sym_rank()))
    });
}

/// What one [`ShardState::enumerate`] call found.
struct Enumeration<T: Adt> {
    /// The distinct terminal configurations, in frontier order. Each is a
    /// genuine witness even when a budget tripped mid-enumeration.
    configs: Vec<FrontierCfg<T>>,
    /// Whether any problem's search ran out of budget.
    budget_tripped: bool,
    /// The kernel's counters, absorbed over every problem.
    stats: SearchStats,
}

/// What the last complete in-window enumeration proved (module docs, "The
/// checkpoint"): the complete terminal-configuration set, in record mode,
/// of the window's first `mark` commits. Histories are window-relative,
/// like the frontier's.
struct Checkpoint<T: Adt> {
    /// How many of the window's commits the configurations account for
    /// (placed or absorbed); never 0 — that checkpoint is the seeds.
    mark: usize,
    /// At most `2 × frontier_cap`, in frontier order.
    configs: Vec<FrontierCfg<T>>,
}

/// The incremental per-shard checker state. See the module docs.
pub(crate) struct ShardState<T: Adt, V> {
    adt: Arc<T>,
    cfg: ShardConfig,
    /// The retained window of the shard's sub-trace (everything since the
    /// last GC retirement).
    pub sub: Trace<ObjAction<T, V>>,
    /// Global stream index of each window action.
    pub index_map: Vec<usize>,
    /// The validity bounds at every window index, one count table: an
    /// invocation at window index `j` is an occurrence from `j + 1` on, and
    /// the retired windows' occurrences are its base. O(window + alphabet)
    /// integers; a retirement collapses it in place.
    bounds: Bounds<T::Input>,
    /// Window commits; `Commit::index` is the *window* sub-trace index.
    commits: Vec<Commit<T>>,
    /// The retained summary of the retired prefix: the complete set of
    /// terminal configurations at the last retirement cut (one empty seed
    /// before any retirement). Seed histories are always empty — the
    /// retired events are dropped; only `(state, used, sym)` survives.
    seeds: Vec<FrontierCfg<T>>,
    /// Where the next fallback or cut enumeration starts. `None`: at the
    /// seeds, before the window's first commit — the state after every
    /// retirement; the seeds are not copied.
    checkpoint: Option<Checkpoint<T>>,
    frontier: Vec<FrontierCfg<T>>,
    /// The shard's one result set, reused from commit to commit and from
    /// enumeration to enumeration. The direct-commit pass fills it, the
    /// frontier and its configurations swap, and the old frontier is
    /// dropped in it; an enumeration collects into it and moves the
    /// configurations out. Either way its hash index keeps its capacity.
    next: Distinct<T>,
    status: ShardStatus,
    /// Invocations (ever) still awaiting a response. Unlike the window
    /// machinery this is *not* reset at a cut: quiescence means every
    /// invocation of the whole stream has responded.
    pending: usize,
    /// Whether a forced lossy epoch cut happened: "no completion found"
    /// can no longer prove a violation (see module docs).
    lossy: bool,
    /// An epoch boundary passed without a successful cut: keep trying
    /// later (the damping policy below) instead of letting the window
    /// grow untouched to the next multiple.
    cut_due: bool,
    /// The last cut attempt was truncated; retrying every event would
    /// sink an enumeration per ingest, so attempts stay blocked until the
    /// completion landscape plausibly changed: pending drops below its
    /// value at the failed attempt (a straggler drained), the window
    /// grows another quarter-window, or the next epoch boundary arrives.
    cut_blocked: bool,
    /// `pending` at the last truncated cut attempt.
    blocked_pending: usize,
    /// `sub.len()` at the last truncated cut attempt.
    blocked_len: usize,
    pub counters: ShardCounters,
}

impl<T, V> ShardState<T, V>
where
    T: Adt,
    T::Input: Ord,
    V: Clone + PartialEq,
{
    /// A fresh shard: one seed, the ADT's initial configuration.
    pub(crate) fn new(adt: Arc<T>, cfg: ShardConfig) -> Self {
        let seeds = vec![FrontierCfg {
            seed: SearchSeed::initial(&*adt),
            sym: PersistentMultiset::new(),
        }];
        ShardState {
            adt,
            cfg,
            sub: Trace::new(),
            index_map: Vec::new(),
            bounds: Bounds::new(),
            commits: Vec::new(),
            frontier: seeds.clone(),
            next: Distinct::default(),
            seeds,
            checkpoint: None,
            status: ShardStatus::Ok,
            pending: 0,
            lossy: false,
            cut_due: false,
            cut_blocked: false,
            blocked_pending: 0,
            blocked_len: 0,
            counters: ShardCounters::default(),
        }
    }

    pub(crate) fn status(&self) -> ShardStatus {
        self.status
    }

    /// Flips the forced-lossy-cut knob on a live shard (the daemon's
    /// backpressure shed).
    pub(crate) fn set_epoch_force(&mut self, on: bool) {
        self.cfg.gc.epoch_force = on;
    }

    /// Whether a forced lossy epoch cut happened (verdict downgrades).
    pub(crate) fn lossy(&self) -> bool {
        self.lossy
    }

    /// The checkpoint: how many window commits it accounts for, and its
    /// configurations — the seeds themselves at 0.
    fn checkpoint(&self) -> (usize, &[FrontierCfg<T>]) {
        match &self.checkpoint {
            Some(at) => (at.mark, &at.configs),
            None => (0, &self.seeds),
        }
    }

    /// The checkpoint's own configurations (none while it is the seeds).
    fn checkpoint_configs(&self) -> &[FrontierCfg<T>] {
        self.checkpoint.as_ref().map_or(&[], |at| &at.configs)
    }

    /// Retained configurations (frontier, seeds, and the checkpoint when it
    /// is not the seeds) — the live-state component of the monitor's memory
    /// proxy.
    pub(crate) fn live_configs(&self) -> usize {
        self.frontier.len() + self.seeds.len() + self.checkpoint_configs().len()
    }

    /// Marks every persistent-multiset node reachable from this shard in
    /// `seen` (pointer-deduplicated): the structure-sharing-aware memory
    /// proxy behind [`super::ShardSummary::multiset_nodes`].
    pub(crate) fn mark_multiset_nodes(&self, seen: &mut HashSet<usize>) {
        let retained = (self.frontier.iter())
            .chain(&self.seeds)
            .chain(self.checkpoint_configs());
        for cfg in retained {
            cfg.seed.used.mark_nodes(seen);
            cfg.sym.mark_nodes(seen);
        }
    }

    /// Ingests the next action of this shard's class. Returns
    /// `(frontier length after the event, whether a fallback re-search ran)`.
    pub(crate) fn ingest(&mut self, action: ObjAction<T, V>, global_index: usize) -> (usize, bool) {
        let t0 = self.cfg.obs.t0();
        let window_index = self.sub.len();
        let mut fell_back = false;
        match &action {
            Action::Invoke { input, .. } => {
                self.bounds.add(window_index + 1, input);
                self.pending += 1;
            }
            Action::Respond { input, output, .. } => {
                self.pending = self.pending.saturating_sub(1);
                self.commits.push(Commit {
                    index: window_index,
                    input: input.clone(),
                    output: output.clone(),
                });
            }
            // The monitor routes nothing from a stream's first switch on.
            Action::Switch { .. } => {}
        }
        self.sub.push(action);
        self.index_map.push(global_index);

        if self.sub[window_index].is_respond() && self.status != ShardStatus::Violated {
            fell_back = self.commit_arrived(window_index);
        }
        self.counters.frontier_peak = self.counters.frontier_peak.max(self.frontier.len());
        self.cfg.obs.shard_ingest(ShardIngestEvent {
            index: global_index as u64,
            frontier_len: self.frontier.len() as u64,
            fell_back,
            t0,
        });
        (self.frontier.len(), fell_back)
    }

    /// Extends the frontier past the commit at `window_index`; falls back
    /// to a bounded re-search when tail extension prunes the frontier
    /// empty. Returns whether the fallback ran.
    fn commit_arrived(&mut self, window_index: usize) -> bool {
        if self.status == ShardStatus::BudgetExhausted {
            // A previous re-search ran out of budget: retrying on every
            // commit would sink unbounded time into an intractable window.
            // Re-attempt only at quiescent points.
            if self.pending == 0 {
                self.fallback_research();
                return true;
            }
            return false;
        }
        self.counters.extension_searches += 1;
        let commit = self.commits.last().expect("just pushed").clone();
        debug_assert_eq!(commit.index, window_index);
        let bound_count = self.bounds.count(window_index, &commit.input);
        let pair = (commit.input.clone(), commit.output.clone());
        let cap = self.cfg.gc.frontier_cap;

        // Pass 1 — the cheap cases, O(frontier): a configuration holding a
        // matching symbolic completion *absorbs* the response (the extra a
        // cut or a fallback recorded is its commit entry; history, state
        // and consumed inputs are untouched), and independently the
        // response may commit directly at the configuration's tail. A
        // configuration *moves* into its direct-commit successor — its
        // history and completions are taken, not copied: a pass that keeps
        // anything replaces the frontier and never reads it again, and one
        // that keeps nothing took nothing.
        let next = &mut self.next;
        next.clear();
        let mut absorbed_any = false;
        for cfg in &mut self.frontier {
            if cfg.sym.count(&pair) > 0 {
                absorbed_any = true;
                let mut sym2 = cfg.sym.clone();
                sym2.remove(&pair);
                let (hash, held) = next.probe(&cfg.seed.state, &cfg.seed.used, &sym2);
                if !held {
                    let seed = cfg.seed.clone();
                    next.push(hash, FrontierCfg { seed, sym: sym2 });
                }
                if next.configs.len() >= cap {
                    break;
                }
            }
            // A frontier configuration's consumed inputs are inside every
            // later bound (bounds only grow along the stream), so one more
            // occurrence of the commit's input fits iff that input does.
            let fits = cfg.seed.used.count(&commit.input) < bound_count;
            debug_assert_eq!(
                fits,
                {
                    let mut with_commit = cfg.seed.used.clone();
                    with_commit.insert(commit.input.clone());
                    self.bounds.covers(window_index, &with_commit)
                },
                "a frontier configuration's consumed inputs left the bounds"
            );
            if fits {
                let (state, output) = self.adt.apply(&cfg.seed.state, &commit.input);
                if output == commit.output {
                    let mut used = cfg.seed.used.clone();
                    used.insert(commit.input.clone());
                    let (hash, held) = next.probe(&state, &used, &cfg.sym);
                    if !held {
                        let mut history = std::mem::take(&mut cfg.seed.history);
                        history.push(commit.input.clone());
                        let seed = SearchSeed {
                            history,
                            state,
                            used,
                        };
                        let sym = std::mem::take(&mut cfg.sym);
                        next.push(hash, FrontierCfg { seed, sym });
                    }
                }
            }
            if next.configs.len() >= cap {
                break;
            }
        }
        if absorbed_any {
            self.cfg.obs.gc_absorption();
        }
        if !next.configs.is_empty() {
            sort_frontier(&mut next.configs);
            next.configs.truncate(cap);
            std::mem::swap(&mut self.frontier, &mut next.configs);
            // The old frontier, some of it moved out: dropped now, its
            // buffer kept for the next commit.
            next.clear();
            self.status = ShardStatus::Ok;
            return false;
        }
        // Pass 2 — only when neither cheap case survives: interleave
        // extras from the pool before the commit. This is the enumeration
        // over the one-commit problem, seeded from each configuration, all
        // of them sharing the bounded extension budget.
        let mut found = std::mem::take(&mut self.next);
        let problems = self.frontier.iter().map(|cfg| Problem {
            start: CommitMask::full(1),
            seed: &cfg.seed,
            sym: cfg.sym.clone(),
        });
        let commits = std::slice::from_ref(&commit);
        let pass = self.enumerate(
            commits,
            problems,
            cap,
            false,
            Some(EXTENSION_BUDGET),
            &mut found,
        );
        self.next = found;
        self.counters.search_nodes += pass.stats.nodes;
        if pass.configs.is_empty() || pass.budget_tripped {
            self.fallback_research();
            return true;
        }
        self.frontier = pass.configs;
        self.status = ShardStatus::Ok;
        false
    }

    /// The node budget of one opportunistic retirement attempt. Cuts are
    /// a memory optimisation, not a verdict requirement, so an attempt is
    /// never allowed to burn the full fallback budget: it gets a slice
    /// proportional to the retained window (enumeration work grows with
    /// the events being summarised). An attempt that trips it skips the
    /// cut (exactness is unaffected) and retries under the damping policy.
    fn retire_budget(&self) -> usize {
        EXTENSION_BUDGET
            .saturating_mul(8 + self.sub.len())
            .min(self.cfg.budget / 2)
    }

    /// The cap under which an enumeration still counts as complete: a
    /// retirement seed set — and so a checkpoint — may hold up to twice the
    /// frontier cap (a complete summary must not be dropped, while the
    /// frontier re-truncates to the cap at the next commit). Enumerating to
    /// one more detects truncation: collecting `summary_cap() + 1` means
    /// the true set may be larger than what would be retained.
    fn summary_cap(&self) -> usize {
        self.cfg.gc.frontier_cap * 2
    }

    /// Enumerates, in record mode, the terminal configurations of the
    /// retained window, starting from the checkpoint: only the commits past
    /// it are searched. Counts the work; see [`ShardState::enumerate`] for
    /// the budget.
    fn enumerate_window(&mut self, shared_budget: Option<usize>) -> Enumeration<T> {
        let mut collected = std::mem::take(&mut self.next);
        let (mark, configs) = self.checkpoint();
        let cap = self.summary_cap() + 1;
        let found = self.enumerate_from(mark, configs, cap, shared_budget, &mut collected);
        self.next = collected;
        self.counters.enumerated_commits += self.commits.len() - mark;
        self.counters.search_nodes += found.stats.nodes;
        found
    }

    /// Whether `found`, enumerated under `summary_cap() + 1`, is the whole
    /// terminal-configuration set.
    fn is_complete(&self, found: &Enumeration<T>) -> bool {
        !found.budget_tripped && found.configs.len() <= self.summary_cap()
    }

    /// Enumerates (record mode, up to `cap`) what `configs` — terminal
    /// configurations of the window's first `mark` commits — reach over the
    /// rest of the window, each one's symbolic completions greedily
    /// absorbing first. A problem whose commits are all accounted for is
    /// its own leaf, so with nothing past `mark` the configurations come
    /// back as they are and no engine is built. `found` collects (see
    /// [`ShardState::enumerate`]).
    fn enumerate_from(
        &self,
        mark: usize,
        configs: &[FrontierCfg<T>],
        cap: usize,
        shared_budget: Option<usize>,
        found: &mut Distinct<T>,
    ) -> Enumeration<T> {
        let commits = &self.commits[mark..];
        let Some(next) = commits.first() else {
            return Enumeration {
                configs: configs.iter().take(cap).cloned().collect(),
                budget_tripped: false,
                stats: SearchStats::default(),
            };
        };
        debug_assert!(
            (configs.iter()).all(|cfg| self.bounds.covers(next.index, &cfg.seed.used)),
            "a checkpoint configuration's consumed inputs left the bounds"
        );
        let problems = configs.iter().map(|cfg| {
            let (start, sym) = absorb_commits(commits, &cfg.sym);
            let seed = &cfg.seed;
            Problem { start, seed, sym }
        });
        self.enumerate(commits, problems, cap, true, shared_budget, found)
    }

    /// The engine over `commits` — the window's, or a slice of them — with
    /// the window's bounds and pool: what every search of one enumeration,
    /// or of one window search, runs on.
    fn engine<'e>(&'e self, commits: &'e [Commit<T>]) -> CheckerEngine<'e, T> {
        let budget = SearchBudget::new(self.cfg.budget);
        CheckerEngine::new(
            &*self.adt,
            commits,
            &self.bounds,
            self.bounds.pool(),
            budget,
        )
    }

    /// Drives the kernel's enumeration over `problems`, collecting the
    /// distinct terminal configurations, deduplicated on the memo key
    /// across problems, up to `cap` of them, in frontier order. Every
    /// problem places a sub-list of `commits` — all of them, unless a
    /// seed's completions absorbed some — so one engine (one class table)
    /// and one [`Search`] (the floor table, every buffer) serve them all,
    /// each run starting from its problem's mask. `found` is the shard's
    /// one collector: its index is cleared, not dropped, from enumeration
    /// to enumeration, and the configurations move out into the result.
    /// With `record_extras`, every interleaved extra is recorded as a
    /// symbolic completion in its configuration (epoch-cut mode).
    /// `shared_budget` `Some(n)` caps the *total* nodes across all problems
    /// (retirement, tail extension); `None` gives each problem the full
    /// fallback budget (the verdict path, the engine's per-run unit).
    fn enumerate<'p>(
        &self,
        commits: &[Commit<T>],
        problems: impl IntoIterator<Item = Problem<'p, T>>,
        cap: usize,
        record_extras: bool,
        shared_budget: Option<usize>,
        found: &mut Distinct<T>,
    ) -> Enumeration<T>
    where
        T: 'p,
    {
        found.clear();
        let mut collect = Collect {
            record_extras,
            cap,
            found,
        };
        let mut budget_tripped = false;
        let mut stats = SearchStats::default();
        let engine = self.engine(commits);
        let mut search = Search::new(&engine);
        for problem in problems {
            let max_nodes = match shared_budget {
                Some(total) => total.saturating_sub(stats.nodes),
                None => self.cfg.budget,
            };
            let (flow, run_stats) = search.run(
                problem.seed,
                problem.start,
                problem.sym,
                &mut collect,
                max_nodes,
            );
            budget_tripped |= flow.is_err();
            stats.absorb(&run_stats);
            if collect.found.configs.len() >= cap {
                break;
            }
        }
        let mut configs = std::mem::take(&mut collect.found.configs);
        collect.found.clear();
        sort_frontier(&mut configs);
        Enumeration {
            configs,
            budget_tripped,
            stats,
        }
    }

    /// The documented fallback: bounded re-searches of the retained window
    /// from the checkpoint, deciding the rolling verdict exactly and
    /// refilling a **diverse** frontier (a single-configuration frontier
    /// would re-fall-back on almost every next commit). It enumerates as a
    /// cut does, so when it completes it is the next checkpoint; recorded
    /// extras let the refilled frontier absorb a straggler's later response
    /// instead of falling back again.
    fn fallback_research(&mut self) {
        self.counters.fallback_searches += 1;
        let t0 = self.cfg.obs.t0();
        // Verdict-deciding: every configuration gets the full budget.
        let found = self.enumerate_window(None);
        let complete = self.is_complete(&found);
        let Enumeration {
            configs,
            budget_tripped,
            stats,
        } = found;
        self.cfg.obs.engine_search(slin_obs::EngineSearchEvent {
            site: "shard.fallback",
            nodes: stats.nodes as u64,
            memo_hits: stats.memo_hits as u64,
            budget_exhausted: budget_tripped,
            t0,
        });
        let frontier: Vec<FrontierCfg<T>> = (configs.iter())
            .take(self.cfg.gc.frontier_cap)
            .cloned()
            .collect();
        if complete {
            let mark = self.commits.len();
            self.checkpoint = Some(Checkpoint { mark, configs });
        }
        if !frontier.is_empty() {
            // Every collected configuration is a genuine witness (a budget
            // trip mid-enumeration does not taint the earlier ones).
            self.frontier = frontier;
            self.status = ShardStatus::Ok;
        } else if budget_tripped || self.lossy {
            // After a lossy cut an exhausted search space proves nothing:
            // the dropped summary configurations may have completed.
            self.frontier.clear();
            self.status = ShardStatus::BudgetExhausted;
        } else {
            self.frontier.clear();
            self.status = ShardStatus::Violated;
        }
    }

    /// One full engine run over the retained window for a monitor report
    /// past a retirement with no record: seeds are tried in order and the
    /// first one admitting a completion wins (deterministic). Its chain is
    /// window-relative twice over: in window indices, and its history
    /// starts at the seed's, which retirement emptied; the commits the
    /// seed's symbolic completions absorb are absent from it.
    pub(crate) fn window_search(&self) -> Found<T::Input, ()> {
        let mut stats = SearchStats::default();
        let t0 = self.cfg.obs.t0();
        let mut budget_error: Option<EngineError> = None;
        // One engine serves every seed: a seed places the commits its
        // completions leave. A tripped search's counters are absorbed like
        // any other's: the report's `stats.nodes` is never below the
        // error's `nodes`.
        let engine = self.engine(&self.commits);
        for shard_seed in &self.seeds {
            let (start, _) = absorb_commits(&self.commits, &shard_seed.sym);
            let seed = shard_seed.seed.clone();
            let (found, seed_stats) = engine.first_solution(seed, start, &|_| Some(()));
            stats.absorb(&seed_stats);
            match found {
                Ok(Some(found)) => {
                    self.report_window_search(&stats, false, t0);
                    return (Ok(Some(found)), stats);
                }
                Ok(None) => {}
                Err(e) => {
                    budget_error.get_or_insert(e);
                }
            }
        }
        self.report_window_search(&stats, budget_error.is_some(), t0);
        match budget_error {
            Some(e) => (Err(e), stats),
            None => (Ok(None), stats),
        }
    }

    /// Reports one [`ShardState::window_search`] run to the observer.
    fn report_window_search(
        &self,
        stats: &SearchStats,
        budget_exhausted: bool,
        t0: Option<std::time::Instant>,
    ) {
        self.cfg.obs.engine_search(slin_obs::EngineSearchEvent {
            site: "shard.window_search",
            nodes: stats.nodes as u64,
            memo_hits: stats.memo_hits as u64,
            budget_exhausted,
            t0,
        });
    }

    /// Bounded-window GC (see the module docs): when the retained window
    /// has grown past `window` events, enumerate the window's **complete**
    /// terminal-configuration set — from the checkpoint, so only over the
    /// commits since the last complete enumeration — and retire the window
    /// into those seeds.
    /// Quiescent shards cut at any size past the window; never-quiescent
    /// shards cut at epoch boundaries (window multiples), completing
    /// stragglers symbolically — a quiescent cut is the degenerate epoch
    /// cut, so there is no switch between the two.
    ///
    /// Retirement is opportunistic, so it runs under its own small node
    /// budget (a fraction of the fallback budget) and never compromises
    /// exactness: a truncated enumeration skips the cut (never lossy
    /// unless `epoch_force` is set). A boundary that fails to cut leaves
    /// the cut *due*: it is retried on every later commit — a drained
    /// response shrinks the completion space — rather than stalling GC
    /// until the next window multiple while per-event cost balloons.
    /// Returns how many events retired.
    pub(crate) fn maybe_retire(&mut self, window: usize) -> Option<usize> {
        if self.sub.len() < window || self.status != ShardStatus::Ok {
            return None;
        }
        if self.sub.len().is_multiple_of(window) {
            self.cut_due = true;
            self.cut_blocked = false;
        }
        let quiescent = self.pending == 0;
        if !quiescent && !self.cut_due {
            return None;
        }
        if self.cut_blocked {
            // Damping: retry only once the landscape plausibly changed
            // since the truncated attempt (see the field docs).
            let drained = self.pending < self.blocked_pending;
            let grown = self.sub.len() >= self.blocked_len + (window / 4).max(1);
            if !drained && !grown {
                return None;
            }
        }
        if self.commits.is_empty() {
            // An invocation-only window: the frontier never moved, so the
            // seeds already summarise it — only the bounds collapse into
            // their base.
            let t0 = self.cfg.obs.t0();
            let window_events = self.sub.len() as u64;
            let retired = self.retire_window(None);
            self.cfg.obs.gc_cut(GcCutEvent {
                outcome: CutOutcome::RetiredInvokeOnly,
                window_events,
                t0,
            });
            return Some(retired);
        }
        let t0 = self.cfg.obs.t0();
        // Quiescent cuts keep the historical full per-seed budget (they
        // are the verdict-bearing GC of drained streams); epoch attempts
        // are opportunistic and run under the bounded retirement slice.
        let shared = if quiescent {
            None
        } else {
            Some(self.retire_budget())
        };
        let found = self.enumerate_window(shared);
        let window_events = self.sub.len() as u64;
        if self.is_complete(&found) && !found.configs.is_empty() {
            let retired = self.retire_window(Some(found.configs));
            self.cfg.obs.gc_cut(GcCutEvent {
                outcome: CutOutcome::Retired,
                window_events,
                t0,
            });
            return Some(retired);
        }
        self.cut_blocked = true;
        self.blocked_pending = self.pending;
        self.blocked_len = self.sub.len();
        if self.cfg.gc.epoch_force {
            // Lossy cut: the frontier's configurations are genuine
            // witnesses, but possibly not all of them — record the loss
            // and retire from the frontier anyway (memory over exactness).
            self.lossy = true;
            self.counters.lossy_cuts += 1;
            let summary = self.frontier.clone();
            let retired = self.retire_window(Some(summary));
            self.cfg.obs.gc_cut(GcCutEvent {
                outcome: CutOutcome::RetiredLossy,
                window_events,
                t0,
            });
            return Some(retired);
        }
        self.cfg.obs.gc_cut(GcCutEvent {
            outcome: CutOutcome::Blocked,
            window_events,
            t0,
        });
        None
    }

    /// Retires the current window: drops its events (the window buffers
    /// keep their capacity), collapses the bounds into their base, and
    /// installs `summary` (when given) as the new seed set. Returns how
    /// many events retired.
    fn retire_window(&mut self, summary: Option<Vec<FrontierCfg<T>>>) -> usize {
        let retired = self.sub.len();
        self.counters.retired_events += retired;
        self.counters.retired_windows += 1;
        if self.pending > 0 {
            self.counters.epoch_cuts += 1;
        }
        self.index_map.clear();
        self.cut_due = false;
        self.cut_blocked = false;
        let mut sub = std::mem::take(&mut self.sub).into_inner();
        sub.clear();
        self.sub = Trace::from_actions(sub);
        self.commits.clear();
        // The next enumeration starts at the (new) seeds.
        self.checkpoint = None;
        self.bounds.collapse();
        if let Some(mut configs) = summary {
            // Retired histories are emptied (memory stays
            // O(window + alphabet)); the seeds keep only the state, the
            // consumed-input multiset and the symbolic completions, which
            // is all the engine's moves and bounds consult. The frontier's
            // histories keep their capacity for the next window's commits.
            for cfg in &mut configs {
                cfg.seed.history.clear();
            }
            self.seeds = configs.clone();
            self.frontier = configs;
        }
        retired
    }
}

/// The kernel visitor behind every shard enumeration (fallback re-search,
/// epoch-cut summary, tail extension): collects each distinct terminal
/// configuration, in search order, until `cap` of them are held. Its tag is
/// the configuration's symbolic completions — see
/// [`Visitor::Tag`] for why they must ride in the memo key.
struct Collect<'f, T: Adt> {
    /// Epoch-cut mode: record every interleaved extra, with the output the
    /// ADT produced for it, as a symbolic completion. In-window searches
    /// carry `sym` through unchanged.
    record_extras: bool,
    cap: usize,
    found: &'f mut Distinct<T>,
}

impl<T: Adt> Visitor<T> for Collect<'_, T> {
    type Tag = SymSet<T>;

    fn extra(&mut self, sym: &SymSet<T>, input: &T::Input, output: T::Output) -> SymSet<T> {
        let mut sym = sym.clone();
        if self.record_extras {
            sym.insert((input.clone(), output));
        }
        sym
    }

    fn leaf(
        &mut self,
        hist: &[T::Input],
        state: T::State,
        used: LeafUsed<'_, T>,
        sym: SymSet<T>,
    ) -> ControlFlow<()> {
        // Deduplicated *before* counting toward the cap — commuting chains
        // revisit the same terminal key, and counting raw visits would let
        // a caller mistake a truncated enumeration for a complete one. The
        // history is materialised only for configurations that survive.
        let used = used.get();
        let (hash, held) = self.found.probe(&state, &used, &sym);
        if !held {
            let seed = SearchSeed {
                history: hist.to_vec(),
                state,
                used,
            };
            self.found.push(hash, FrontierCfg { seed, sym });
        }
        if self.found.configs.len() < self.cap {
            ControlFlow::Continue(())
        } else {
            ControlFlow::Break(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{
        random_hostile_kv_trace, random_multikey_kv_trace, HostileConfig, MultiKeyConfig,
    };
    use slin_adt::{KvInput, KvOutput, KvStore};
    use slin_trace::{ClientId, PhaseId};

    type Shard = ShardState<KvStore, ()>;
    type Cfg = FrontierCfg<KvStore>;

    fn shard(gc: GcPolicy) -> Shard {
        let cfg = ShardConfig {
            budget: SearchBudget::DEFAULT_MAX_NODES,
            gc,
            obs: Obs::noop(),
        };
        ShardState::new(Arc::new(KvStore), cfg)
    }

    fn same_key(a: &Cfg, b: &Cfg) -> bool {
        a.seed.state == b.seed.state && a.seed.used == b.seed.used && a.sym == b.sym
    }

    /// Whether `longer` is `shorter` followed by recorded extras and nothing
    /// else (none, if the keys are equal) — *trailing* extras, which no
    /// enumeration emits (an extra goes before a commit) and the next
    /// commit's extras re-create. Histories are not compared.
    fn trails(shorter: &Cfg, longer: &Cfg) -> bool {
        if shorter.seed.used.len() == longer.seed.used.len() {
            return same_key(shorter, longer);
        }
        longer.seed.used.iter().any(|(e, n)| {
            shorter.seed.used.count(e) < n && {
                let (state, out) = KvStore.apply(&shorter.seed.state, e);
                let mut next = FrontierCfg {
                    seed: SearchSeed {
                        history: Vec::new(),
                        state,
                        used: shorter.seed.used.clone(),
                    },
                    sym: shorter.sym.clone(),
                };
                next.seed.used.insert(*e);
                next.sym.insert((*e, out));
                trails(&next, longer)
            }
        })
    }

    /// Checks what the module docs promise of a checkpoint, on the shard's
    /// current window: enumerating from it and from the seeds (both to the
    /// end, uncapped) are both empty or both not; every from-checkpoint key
    /// is a from-seeds key; and a from-seeds key the checkpoint misses is a
    /// from-checkpoint key followed by trailing extras. `None` while the
    /// checkpoint is the seeds, else whether the subset is strict.
    fn check_checkpoint(shard: &Shard) -> Option<bool> {
        let at = shard.checkpoint.as_ref()?;
        let found = &mut Distinct::default();
        let from_mark = shard.enumerate_from(at.mark, &at.configs, usize::MAX, None, found);
        let from_seeds = shard.enumerate_from(0, &shard.seeds, usize::MAX, None, found);
        assert!(!from_mark.budget_tripped && !from_seeds.budget_tripped);
        let (from_mark, from_seeds) = (from_mark.configs, from_seeds.configs);
        assert_eq!(from_mark.is_empty(), from_seeds.is_empty());
        for cfg in &from_mark {
            assert!(
                from_seeds.iter().any(|s| same_key(s, cfg)),
                "the checkpoint reaches a configuration the seeds do not: {cfg:?}"
            );
        }
        for cfg in &from_seeds {
            assert!(
                from_mark.iter().any(|m| trails(m, cfg)),
                "the checkpoint loses more than trailing extras: {cfg:?}"
            );
        }
        Some(from_mark.len() < from_seeds.len())
    }

    /// Over hot-key and straggler streams, clean and faulty: wherever a
    /// checkpoint is in play — after the fallback that took it, at every
    /// event until the cut that starts from it — [`check_checkpoint`] holds.
    /// Returns `(checks with a checkpoint in play, strict subsets)`.
    fn sweep(clients: u32, error_prob: f64) -> (usize, usize) {
        let (mut checked, mut strict) = (0, 0);
        for seed in 0..8 {
            let hotkey = random_multikey_kv_trace(&MultiKeyConfig {
                clients,
                steps: 160,
                keys: 1,
                skew: 0.0,
                contention: 0.0,
                error_prob,
                seed,
            });
            let stragglers = random_hostile_kv_trace(&HostileConfig {
                clients,
                steps: 160,
                keys: 1,
                skew: 0.7,
                never_frac: 0.01,
                stuck_applies: true,
                delay_zipf: 1.3,
                max_delay: 12,
                error_prob,
                seed,
            });
            for t in [hotkey, stragglers] {
                for window in [8, 16, 32] {
                    let mut shard = shard(GcPolicy::default());
                    for (i, a) in t.iter().enumerate() {
                        shard.ingest(a.clone(), i);
                        if let Some(is_strict) = check_checkpoint(&shard) {
                            checked += 1;
                            strict += usize::from(is_strict);
                        }
                        shard.maybe_retire(window);
                    }
                }
            }
        }
        (checked, strict)
    }

    #[test]
    fn a_checkpoint_enumerates_what_the_seeds_do() {
        let mut total = (0, 0);
        for clients in [3, 4] {
            for error_prob in [0.0, 0.15] {
                let (checked, strict) = sweep(clients, error_prob);
                println!(
                    "clients {clients} error_prob {error_prob}: {checked} windows checked \
                     with a checkpoint in play, {strict} strict subsets"
                );
                assert!(checked > 100, "the corpus takes too few checkpoints");
                total = (total.0 + checked, total.1 + strict);
            }
        }
        let (checked, strict) = total;
        println!("total: {strict} strict subsets of {checked}");
        assert!(strict * 50 <= checked, "strict subsets are the rare corner");
    }

    /// The one shape in which a checkpoint loses a key. A fallback leaves a
    /// checkpoint whose only configuration holds the recorded extra
    /// `(del(1), ok)` — client 3's pending delete, which the `get = ∅`
    /// needs; then client 1's `del(1)` is invoked and answered `ok` as the
    /// window's last commit. From the seeds that response is absorbed by
    /// the recorded extra in one chain and committed at the tail, after the
    /// extra, in another; from the checkpoint it is only absorbed (greedy
    /// absorption, as after a cut). The tail-committing chain converts to
    /// the absorbing one followed by a *trailing* extra `del(1)` — which
    /// the next commit's extras re-create.
    #[test]
    fn a_checkpoint_loses_only_a_trailing_extra() {
        let c = ClientId::new;
        let ph = PhaseId::FIRST;
        let (put, get, del) = (KvInput::Put(1, 1), KvInput::Get(1), KvInput::Delete(1));
        let (absent, found) = (KvOutput::Found(None), KvOutput::Found(Some(1)));
        let mut shard = shard(GcPolicy::default());
        let feed = |shard: &mut Shard, a: ObjAction<KvStore, ()>| {
            let at = shard.sub.len();
            shard.ingest(a, at).1
        };
        feed(&mut shard, Action::invoke(c(1), ph, put));
        feed(&mut shard, Action::respond(c(1), ph, put, KvOutput::Ack));
        feed(&mut shard, Action::invoke(c(4), ph, get));
        feed(&mut shard, Action::invoke(c(3), ph, del));
        feed(&mut shard, Action::invoke(c(2), ph, get));
        // Pass 2 interleaves the delete before this get; it records nothing.
        assert!(!feed(&mut shard, Action::respond(c(2), ph, get, absent)));
        // Client 4's get read the put: it commits before the delete, which
        // no tail extension of `[put, del, get]` explains.
        assert!(feed(&mut shard, Action::respond(c(4), ph, get, found)));
        let at = shard.checkpoint.as_ref().expect("the fallback completed");
        let recorded: SymSet<KvStore> = [(del, KvOutput::Ack)].into_iter().collect();
        assert_eq!((at.mark, at.configs.len()), (3, 1));
        assert_eq!(at.configs[0].sym, recorded);
        assert_eq!(check_checkpoint(&shard), Some(false));

        feed(&mut shard, Action::invoke(c(1), ph, del));
        assert!(!feed(
            &mut shard,
            Action::respond(c(1), ph, del, KvOutput::Ack)
        ));
        assert_eq!(check_checkpoint(&shard), Some(true), "the trailing extra");
        // The frontier's direct-commit pass does commit at the tail: the
        // lost configuration is a live witness, only not a future seed.
        let lost = |cfg: &Cfg| cfg.seed.used.count(&del) == 2 && cfg.sym == recorded;
        assert!(shard.frontier.iter().any(lost));

        // One commit later the extra is interleaved before it: same keys.
        feed(&mut shard, Action::invoke(c(1), ph, get));
        assert!(!feed(&mut shard, Action::respond(c(1), ph, get, absent)));
        assert_eq!(shard.status(), ShardStatus::Ok);
        assert_eq!(check_checkpoint(&shard), Some(false));
    }
}
