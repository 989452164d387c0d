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
//! (reached ADT state, consumed-input count table, remaining symbolic
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
//! ingested event: 3.1–3.5 search nodes on zipf-delay streams and 8.4–11.4
//! on stragglers across `w = 8..24` (4.4–5.6 and 13–30 while each seed of
//! an enumeration had a memo of its own; 44–313 and 108–824 with the
//! bound-only prune); a cut whose complete summary is 1–10 configurations
//! costs tens of nodes, not thousands.
//!
//! A node, in turn, costs integers, and seldom an allocation: inside a
//! search the consumed inputs are per-class counters and the memo is probed
//! by reference (see [`crate::engine`], "The memo"); an enumeration builds
//! **one engine** and one `Search` — one dead-end memo — for all its seeds,
//! so no seed searches again below a node an earlier seed buried, each run
//! starting from the mask of the commits its seed still places (a seed's
//! completions absorb some; no commit list is copied); the engine builds
//! nothing: its class table is the shard's own — the rows of the shard's
//! count table, the inputs the shard may still consume (below) — and each
//! commit's class
//! and own bound were recorded when it arrived; the kernel's
//! type-independent buffers outlive the enumeration on its thread's free
//! list, and the typed ones (the history, the memo's entries) go from each
//! enumeration's `Search` to the next — one set per monitor, whose shards
//! run one at a time — so the next one starts with their capacity; the
//! collector's hash index is the shard's
//! one result set, cleared, not dropped, between enumerations; a `KvStore`
//! state holds one binding — all a per-key shard ever has — inline, so a
//! step, a clone or a drop of it allocates nothing and touches no
//! reference count ([`slin_adt::KvState`]); a configuration's consumed
//! inputs are a count table over the shard's classes, from the frontier
//! through the kernel and back — a run copies a seed's counts in, and a
//! leaf hands out the table it handed out last while the counts have not
//! moved; and the frontier's direct-commit pass reads one count by index,
//! bumps it for a configuration whose output matched — in place, unless
//! another configuration holds the table — and *moves* that configuration
//! into its successor — history and completions taken, not copied — into
//! that result set. A calm event neither searches nor falls back, so it
//! allocates little: 0.31 allocations per event in release on the calm
//! stream of `tests/tests/alloc_gate.rs`, window retirements included, and
//! the spent classes they drop (below) and meet again (0.28 while a shard
//! kept every input it met; 0.56 with a history and memo entries grown
//! from empty per enumeration;
//! 1.25 with consumed inputs as persistent multisets, path-copied by every
//! direct commit; 1.68 with a slice per one-binding state; 5.9 with a
//! per-index bound snapshot, a copied history and fresh window buffers). A
//! hot-key event there makes 1.40 (1.36 keeping every input) — 1.88 with
//! a history and memo entries
//! grown from empty, 2.74 with multisets built at every leaf, 3.42 with a
//! memo per seed, 5.75 with a slice per one-binding state and an engine
//! per group of seeds placing the same commits. On the
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
//! scratch copy (timer cost subtracted; indicative), while consumed inputs
//! were multisets, put three quarters of a hot-key event inside the
//! kernel — queueing the admitted moves 37 %, the
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
//! per enumerated commit whatever the depth. What each seed of one
//! enumeration spent again on nodes an earlier seed had searched went once
//! the seeds shared one memo: traced seed 21, 5.18 → 3.08 nodes per event
//! on `stream-hotkey` and 5.51 → 3.32 on `stream-stragglers`, at the same
//! cuts and fallbacks, and ≈698 k → ≈867 k and ≈605 k → ≈780 k events/s
//! (medians of 5 and 10 alternating 15 s pairs, seeds 11–15 and 11–20,
//! on a 2-vCPU box). Keeping consumed inputs as count tables over the
//! shard's class table, and the searches' typed buffers, moved no node and
//! took ≈858 k → ≈1 031 k and ≈680 k → ≈837 k events/s (medians of 22 and
//! 6 alternating 15 s pairs, seeds 31–50 with 37 and 38 twice, and 31–36;
//! same box).
//!
//! **The class table's width.** A new input is a row at the end of the
//! shard's class table, and no retained count table changes (a table counts
//! none of a class past its end); a direct commit reads a count by index,
//! hashes a table in O(1) and bumps it in place, room kept for new classes.
//! What grows with the width α of the class table is every search — its
//! set-up and the memo key of every node — and a table made or copied. A
//! shard keeps α to about what it may still consume
//! ([`ShardState::drop_spent_classes`]): at a retirement, a class the
//! retiring window did not invoke and whose every occurrence every retained
//! configuration has consumed is *spent*, and when spent classes are at
//! least half the table they leave it — its rows and every retained table,
//! shared tables staying shared. Taking a spent class's pool off its bound
//! and off every count moves no comparison the kernel or the direct-commit
//! pass makes, so verdicts, configurations, search nodes and the memory
//! proxy are what a shard keeping every class finds (tested against one).
//! The table then holds the inputs of the retained window and about twice
//! those of the last retired one, and the pending ones: on the benchmark's
//! streams, whose puts draw from four values, a per-key shard's handful;
//! on a stream whose every put writes a new value, a few dozen where a
//! shard keeping every class would hold one per put. On such a stream (a
//! scratch measurement, not in the suite: 20 000 events, 3 clients, one
//! key, release) an event costs 0.8 µs under a window of 32 from the first
//! tenth to the last, where it cost 6.3 µs and then 124 µs while every
//! enumeration built a class table of every input met, and 0.3 µs under an
//! unbounded window, where a persistent multiset per configuration cost
//! 0.4–0.7.
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
//! always (7 871 of 7 877 windows in this file's test sweep; the other six
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
    SearchBudget, SearchBuffers, SearchSeed, SearchStats, Used, Visitor,
};
use crate::ops::{Bounds, Commit};
use crate::ObjAction;
use slin_adt::Adt;
use slin_obs::{CutOutcome, GcCutEvent, Obs, ShardIngestEvent};
use slin_trace::{Action, PersistentMultiset, Trace};
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::ops::ControlFlow;
use std::sync::Arc;

/// Symbolic straggler completions: the multiset of `(input, output)` pairs
/// a configuration interleaved as extras before an epoch cut, available to
/// absorb matching post-cut responses.
type SymSet<T> = PersistentMultiset<(<T as Adt>::Input, <T as Adt>::Output)>;

/// The typed buffers of a shard's searches (the history, the memo's
/// entries), handed to each enumeration's `Search` and taken back, so the
/// next one starts with their capacity. A monitor keeps one for all its
/// shards — they run one at a time — so what it retains grows with the
/// monitors, not with the shards.
pub(crate) type ShardBuffers<T> = SearchBuffers<T, SymSet<T>>;

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
/// (window-relative) with its replayed ADT state and consumed-input count
/// table over the shard's classes — plus the remaining symbolic
/// completions. Frontier entries
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
/// consumed-input count table, remaining symbolic completions: two
/// configurations agreeing on it are interchangeable for every future
/// event. Probed with the parts by reference (the completions' persistent
/// multiset hashes through its cached commutative fingerprint); nothing is
/// cloned for a duplicate.
struct Distinct<T: Adt> {
    configs: Vec<FrontierCfg<T>>,
    index: HashIndex,
    /// [`Distinct::sort`]'s buffer: the configurations beside their
    /// ranks, empty between sorts.
    ranked: Vec<((usize, u64), FrontierCfg<T>)>,
}

// Manual impl: the derive would demand `T: Default`.
impl<T: Adt> Default for Distinct<T> {
    fn default() -> Self {
        Distinct {
            configs: Vec::new(),
            index: HashIndex::default(),
            ranked: Vec::new(),
        }
    }
}

impl<T: Adt> Distinct<T> {
    /// The key's hash, and whether a configuration with that key is held.
    fn probe(&self, state: &T::State, used: &Used, sym: &SymSet<T>) -> (u64, bool) {
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

    /// Puts the configurations in frontier order: lexicographic by
    /// history, then by [`FrontierCfg::sym_rank`] (absorption preserves
    /// histories, so histories alone do not discriminate); a stable sort.
    /// A rank hashes every completion, so a sort computes it at most once
    /// per configuration, and not at all unless two histories tie. Input
    /// already in history order — what the direct-commit pass almost
    /// always hands over — costs one pass, which finds the ties too.
    fn sort(&mut self)
    where
        T::Input: Ord,
    {
        let configs = &mut self.configs;
        let (mut ordered, mut tied) = (true, false);
        for w in configs.windows(2) {
            match w[0].seed.history.cmp(&w[1].seed.history) {
                Ordering::Less => {}
                Ordering::Equal => tied = true,
                Ordering::Greater => {
                    ordered = false;
                    break;
                }
            }
        }
        if !ordered {
            configs.sort_by(|a, b| a.seed.history.cmp(&b.seed.history));
            tied = (configs.windows(2)).any(|w| w[0].seed.history == w[1].seed.history);
        }
        if !tied {
            return;
        }
        let ranked = configs.drain(..).map(|cfg| (cfg.sym_rank(), cfg));
        self.ranked.extend(ranked);
        self.ranked.sort_by(|(rank_a, a), (rank_b, b)| {
            (a.seed.history.cmp(&b.seed.history)).then_with(|| rank_a.cmp(rank_b))
        });
        configs.extend(self.ranked.drain(..).map(|(_, cfg)| cfg));
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

/// What a shard's enumerations reuse from one to the next: the result set
/// they collect into and the typed buffers of their searches.
type Reuse<'r, T> = (&'r mut Distinct<T>, &'r mut ShardBuffers<T>);

/// One search of an enumeration: the configuration to start from, and the
/// commits it places — a mask over the enumeration's one commit list.
struct Problem<'a, T: Adt> {
    start: CommitMask,
    seed: &'a SearchSeed<T>,
    sym: SymSet<T>,
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
    /// integers; a retirement collapses it in place. Its rows are the
    /// shard's one class table: every input the shard has met, sorted, the
    /// classes of every configuration's count table and of every engine.
    bounds: Bounds<T::Input>,
    /// Window commits; `Commit::index` is the *window* sub-trace index.
    commits: Vec<Commit<T>>,
    /// Per window commit, as it arrived: its input's class in `bounds` and
    /// its own bound, `bounds.count(index, input)` — what the engines read
    /// (see [`CheckerEngine::on_rows`]).
    commit_classes: Vec<(usize, usize)>,
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
    /// Whether a retirement dropped a class with occurrences (see
    /// [`ShardState::drop_spent_classes`]): every retained configuration
    /// had consumed them all, so every table since has consumed something
    /// even where it now counts nothing — and the memory proxy counts it,
    /// as it counted a multiset holding those occurrences.
    consumed_dropped: bool,
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
        // The initial configuration, over a class table that has met no
        // input yet.
        let seed = SearchSeed {
            history: Vec::new(),
            state: adt.initial(),
            used: Used::default(),
        };
        let seeds = vec![FrontierCfg {
            seed,
            sym: PersistentMultiset::new(),
        }];
        ShardState {
            adt,
            cfg,
            sub: Trace::new(),
            index_map: Vec::new(),
            bounds: Bounds::new(),
            commits: Vec::new(),
            commit_classes: Vec::new(),
            frontier: seeds.clone(),
            next: Distinct::default(),
            seeds,
            checkpoint: None,
            status: ShardStatus::Ok,
            pending: 0,
            lossy: false,
            consumed_dropped: false,
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

    /// The retained configurations: frontier, seeds, checkpoint.
    fn retained(&self) -> impl Iterator<Item = &FrontierCfg<T>> {
        (self.frontier.iter())
            .chain(&self.seeds)
            .chain(self.checkpoint_configs())
    }

    /// Marks the allocation of every count table and completion set the
    /// retained configurations hold in `seen` (pointer-deduplicated; each
    /// is one allocation, whatever its width): the memory proxy behind
    /// [`super::ShardSummary::multiset_nodes`].
    pub(crate) fn mark_multiset_nodes(&self, seen: &mut HashSet<usize>) {
        for cfg in self.retained() {
            cfg.seed.used.mark_node(seen, self.consumed_dropped);
            cfg.sym.mark_nodes(seen);
        }
    }

    /// `input`'s class in the shard's class table: a new row at the end
    /// when the shard has not met `input`. No retained table changes: a
    /// class past a table's end counts none.
    fn class_of(&mut self, input: &T::Input) -> usize {
        self.bounds.insert_class(input)
    }

    /// Replaces every retained configuration's count table with `remap` of
    /// it, once per table: configurations that shared a table share its
    /// replacement, so the memory proxy does not move. The result set holds
    /// no configuration between events, and a search's tables are its own.
    fn remap_tables(&mut self, remap: impl Fn(&Used) -> Used) {
        // By address; each old table stays alive in the map until the end,
        // so no replacement can take the address of one not yet replaced.
        let mut done: HashMap<usize, (Used, Used)> = HashMap::new();
        let retained = (self.frontier.iter_mut())
            .chain(&mut self.seeds)
            .chain(self.checkpoint.iter_mut().flat_map(|c| &mut c.configs));
        for cfg in retained {
            let used = &mut cfg.seed.used;
            let (_, new) = (done.entry(used.addr())).or_insert_with(|| (used.clone(), remap(used)));
            *used = new.clone();
        }
    }

    /// Whether class `class` is spent: the window being retired invoked
    /// nothing of it, and every retained configuration has consumed all its
    /// occurrences.
    fn spent(&self, class: usize) -> bool {
        let pool = self.bounds.pool_of(class);
        !self.bounds.added_since_collapse(class)
            && self
                .retained()
                .all(|cfg| cfg.seed.used.count(class) == pool)
    }

    /// Drops the spent classes from the class table and from every retained
    /// table, at a retirement, before the bounds collapse, when they are at
    /// least half of it: what keeps the table about as wide as the inputs a
    /// shard may still consume, not as every input it ever met (module
    /// docs, "What a search costs").
    ///
    /// Exact: a spent class's bound at every later index is its pool plus
    /// what is invoked later, and every configuration holds `pool` of it,
    /// so each comparison the kernel and the direct-commit pass make on it —
    /// `used + j ≤ bound`, `used < pool` — reads the same with `pool`
    /// taken off both sides: the class starts again at none, as a new row
    /// when its input is next met. Dedup keys stay one-to-one and nothing
    /// orders by them, so every verdict, configuration and node count is
    /// the same.
    ///
    /// Cheap where the alphabet is small and recurs, as on every benchmark
    /// stream: a class the retiring window invoked is kept, and nothing is
    /// dropped unless the spent classes are at least half the table — a
    /// drop then at least halves it, so its O(retained tables · α) is paid
    /// for by the first arrivals it undoes, and an input that skips a window
    /// is seldom dropped only to be met again.
    fn drop_spent_classes(&mut self) {
        let classes = self.bounds.classes();
        let spent = (0..classes).filter(|&class| self.spent(class)).count();
        if spent == 0 || 2 * spent < classes {
            return;
        }
        #[cfg(test)]
        if tests::KEEP_SPENT.with(std::cell::Cell::get) {
            return;
        }
        let spent: Vec<bool> = (0..classes).map(|class| self.spent(class)).collect();
        self.consumed_dropped |=
            (0..classes).any(|class| spent[class] && self.bounds.pool_of(class) > 0);
        self.bounds.drop_classes(&spent);
        self.remap_tables(|used| used.without(&spent));
    }

    /// Ingests the next action of this shard's class; a search it runs
    /// grows `buffers`. Returns `(frontier length after the event, whether
    /// a fallback re-search ran)`.
    pub(crate) fn ingest(
        &mut self,
        action: ObjAction<T, V>,
        global_index: usize,
        buffers: &mut ShardBuffers<T>,
    ) -> (usize, bool) {
        let t0 = self.cfg.obs.t0();
        let window_index = self.sub.len();
        let mut fell_back = false;
        match &action {
            Action::Invoke { input, .. } => {
                let class = self.class_of(input);
                self.bounds.add_at(class, window_index + 1);
                self.pending += 1;
            }
            Action::Respond { input, output, .. } => {
                self.pending = self.pending.saturating_sub(1);
                // A response to an input the shard never saw invoked (an
                // ill-formed stream) gets a class with no occurrence.
                let class = self.class_of(input);
                let own_bound = self.bounds.class_count(window_index, class);
                self.commit_classes.push((class, own_bound));
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
            fell_back = self.commit_arrived(window_index, buffers);
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
    fn commit_arrived(&mut self, window_index: usize, buffers: &mut ShardBuffers<T>) -> bool {
        if self.status == ShardStatus::BudgetExhausted {
            // A previous re-search ran out of budget: retrying on every
            // commit would sink unbounded time into an intractable window.
            // Re-attempt only at quiescent points.
            if self.pending == 0 {
                self.fallback_research(buffers);
                return true;
            }
            return false;
        }
        self.counters.extension_searches += 1;
        let commit = self.commits.last().expect("just pushed").clone();
        debug_assert_eq!(commit.index, window_index);
        let (class, own_bound) = *self.commit_classes.last().expect("pushed with the commit");
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
        // that keeps nothing took nothing. So its count table takes the
        // commit in place, unless another configuration holds it too.
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
            let fits = cfg.seed.used.count(class) < own_bound;
            debug_assert_eq!(
                fits,
                {
                    let mut with_commit = cfg.seed.used.to_vec();
                    with_commit.resize(with_commit.len().max(class + 1), 0);
                    with_commit[class] += 1;
                    self.bounds.covers(window_index, &with_commit)
                },
                "a frontier configuration's consumed inputs left the bounds"
            );
            if fits {
                let (state, output) = self.adt.apply(&cfg.seed.state, &commit.input);
                if output == commit.output {
                    cfg.seed.used.bump(class);
                    let (hash, held) = next.probe(&state, &cfg.seed.used, &cfg.sym);
                    if !held {
                        let mut history = std::mem::take(&mut cfg.seed.history);
                        history.push(commit.input.clone());
                        let seed = SearchSeed {
                            history,
                            state,
                            used: cfg.seed.used.clone(),
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
            next.sort();
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
        let pass = self.enumerate(
            self.commits.len() - 1,
            problems,
            cap,
            false,
            Some(EXTENSION_BUDGET),
            (&mut found, buffers),
        );
        self.next = found;
        self.counters.search_nodes += pass.stats.nodes;
        if pass.configs.is_empty() || pass.budget_tripped {
            self.fallback_research(buffers);
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
    fn enumerate_window(
        &mut self,
        shared_budget: Option<usize>,
        buffers: &mut ShardBuffers<T>,
    ) -> Enumeration<T> {
        let mut collected = std::mem::take(&mut self.next);
        let (mark, configs) = self.checkpoint();
        let cap = self.summary_cap() + 1;
        let reuse = (&mut collected, &mut *buffers);
        let found = self.enumerate_from(mark, configs, cap, shared_budget, reuse);
        #[cfg(test)]
        tests::against_fresh_searches(self, mark, configs, cap, shared_budget, &found);
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
    /// back as they are and no engine is built. `reuse` is what the
    /// enumeration collects into and grows (see [`ShardState::enumerate`]).
    fn enumerate_from(
        &self,
        mark: usize,
        configs: &[FrontierCfg<T>],
        cap: usize,
        shared_budget: Option<usize>,
        reuse: Reuse<'_, T>,
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
        self.enumerate(mark, problems, cap, true, shared_budget, reuse)
    }

    /// The engine over the window's commits from the `from`-th on, on the
    /// shard's class table and bounds: what every search of one
    /// enumeration, or of one window search, runs on. Nothing is built.
    fn engine(&self, from: usize) -> CheckerEngine<'_, T> {
        CheckerEngine::on_rows(
            &*self.adt,
            &self.commits[from..],
            &self.commit_classes[from..],
            &self.bounds,
            SearchBudget::new(self.cfg.budget),
        )
    }

    /// Drives the kernel's enumeration over `problems`, collecting the
    /// distinct terminal configurations, deduplicated on the memo key
    /// across problems, up to `cap` of them, in frontier order. Every
    /// problem places a sub-list of the window's commits from the `from`-th
    /// on — all of them, unless a seed's completions absorbed some — so one
    /// engine (on the shard's class table) and one [`Search`] (the floor
    /// table, every buffer) serve them all, each run starting from its
    /// problem's mask. `reuse` is the shard's one collector, whose index is
    /// cleared, not dropped, from enumeration to enumeration while the
    /// configurations move out into the result, and the search's typed
    /// buffers, handed to the `Search` and taken back.
    /// With `record_extras`, every interleaved extra is recorded as a
    /// symbolic completion in its configuration (epoch-cut mode).
    /// `shared_budget` `Some(n)` caps the *total* nodes across all problems
    /// (retirement, tail extension); `None` gives each problem the full
    /// fallback budget (the verdict path, the engine's per-run unit).
    fn enumerate<'p>(
        &self,
        from: usize,
        problems: impl IntoIterator<Item = Problem<'p, T>>,
        cap: usize,
        record_extras: bool,
        shared_budget: Option<usize>,
        (found, buffers): Reuse<'_, T>,
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
        let engine = self.engine(from);
        let mut search = Search::with_buffers(&engine, std::mem::take(buffers));
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
        *buffers = search.into_buffers();
        collect.found.sort();
        let configs = std::mem::take(&mut collect.found.configs);
        collect.found.clear();
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
    fn fallback_research(&mut self, buffers: &mut ShardBuffers<T>) {
        self.counters.fallback_searches += 1;
        let t0 = self.cfg.obs.t0();
        // Verdict-deciding: every configuration gets the full budget.
        let found = self.enumerate_window(None, buffers);
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
        let engine = self.engine(0);
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
    pub(crate) fn maybe_retire(
        &mut self,
        window: usize,
        buffers: &mut ShardBuffers<T>,
    ) -> Option<usize> {
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
        let found = self.enumerate_window(shared, buffers);
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
        self.commit_classes.clear();
        // The next enumeration starts at the (new) seeds.
        self.checkpoint = None;
        if let Some(mut configs) = summary {
            // Retired histories are emptied (memory stays
            // O(window + alphabet)); the seeds keep only the state, the
            // consumed-input count table and the symbolic completions, which
            // is all the engine's moves and bounds consult. The frontier's
            // histories keep their capacity for the next window's commits.
            for cfg in &mut configs {
                cfg.seed.history.clear();
            }
            self.seeds = configs.clone();
            self.frontier = configs;
        }
        self.drop_spent_classes();
        self.bounds.collapse();
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
        used: LeafUsed<'_>,
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
    use std::cell::Cell;

    type Shard = ShardState<KvStore, ()>;
    type Cfg = FrontierCfg<KvStore>;
    type KvEvent = ObjAction<KvStore, ()>;

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
    /// commit's extras re-create. Histories are not compared; `classes`
    /// is the shard's class table.
    fn trails(classes: &Bounds<KvInput>, shorter: &Cfg, longer: &Cfg) -> bool {
        let consumed = |cfg: &Cfg| cfg.seed.used.iter().sum::<usize>();
        if consumed(shorter) == consumed(longer) {
            return same_key(shorter, longer);
        }
        (0..classes.classes()).any(|class| {
            shorter.seed.used.count(class) < longer.seed.used.count(class) && {
                let e = classes.input(class);
                let (state, out) = KvStore.apply(&shorter.seed.state, e);
                let mut next = FrontierCfg {
                    seed: SearchSeed {
                        history: Vec::new(),
                        state,
                        used: shorter.seed.used.clone(),
                    },
                    sym: shorter.sym.clone(),
                };
                next.seed.used.bump(class);
                next.sym.insert((*e, out));
                trails(classes, &next, longer)
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
        let (found, buffers) = (&mut Distinct::default(), &mut ShardBuffers::default());
        let from_mark =
            shard.enumerate_from(at.mark, &at.configs, usize::MAX, None, (found, buffers));
        let from_seeds = shard.enumerate_from(0, &shard.seeds, usize::MAX, None, (found, buffers));
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
                from_mark.iter().any(|m| trails(&shard.bounds, m, cfg)),
                "the checkpoint loses more than trailing extras: {cfg:?}"
            );
        }
        Some(from_mark.len() < from_seeds.len())
    }

    /// Streams the corpus of hot-key and straggler streams, clean or faulty,
    /// through a shard per window size, handing `after_event` the shard
    /// after every event.
    fn sweep(clients: u32, error_prob: f64, mut after_event: impl FnMut(&Shard)) {
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
                    let buffers = &mut ShardBuffers::default();
                    for (i, a) in t.iter().enumerate() {
                        shard.ingest(a.clone(), i, buffers);
                        after_event(&shard);
                        shard.maybe_retire(window, buffers);
                    }
                }
            }
        }
    }

    /// Over the corpus: wherever a checkpoint is in play — after the
    /// fallback that took it, at every event until the cut that starts from
    /// it — [`check_checkpoint`] holds.
    #[test]
    fn a_checkpoint_enumerates_what_the_seeds_do() {
        let mut total = (0, 0);
        for clients in [3, 4] {
            for error_prob in [0.0, 0.15] {
                let (mut checked, mut strict) = (0, 0);
                sweep(clients, error_prob, |shard| {
                    if let Some(is_strict) = check_checkpoint(shard) {
                        checked += 1;
                        strict += usize::from(is_strict);
                    }
                });
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

    thread_local! {
        /// While on, [`against_fresh_searches`] checks every fallback and
        /// cut enumeration on this thread, counting the enumerations it
        /// checked and the nodes the shared memo saved them.
        static FRESH_ORACLE: Cell<Option<(usize, usize)>> = const { Cell::new(None) };

        /// While on, [`ShardState::drop_spent_classes`] drops nothing on
        /// this thread: the shard a dropping one is compared against.
        pub(super) static KEEP_SPENT: Cell<bool> = const { Cell::new(false) };
    }

    /// With [`FRESH_ORACLE`] on: enumerates the window again as
    /// [`ShardState::enumerate_window`] just did (`shared` is what it
    /// found), but with one fresh [`Search`] per problem, so no run sees
    /// another's memo, and asserts that sharing one memo changed nothing
    /// but the work — the same configurations (history, state, consumed
    /// inputs, completions) in the same order, the same budget trip, and
    /// at most the fresh searches' nodes.
    pub(super) fn against_fresh_searches<T, V>(
        shard: &ShardState<T, V>,
        mark: usize,
        configs: &[FrontierCfg<T>],
        cap: usize,
        shared_budget: Option<usize>,
        shared: &Enumeration<T>,
    ) where
        T: Adt,
        T::Input: Ord,
        V: Clone + PartialEq,
    {
        let Some((checked, saved)) = FRESH_ORACLE.with(Cell::get) else {
            return;
        };
        let commits = &shard.commits[mark..];
        if commits.is_empty() {
            return;
        }
        let engine = shard.engine(mark);
        let found = &mut Distinct::default();
        let mut collect = Collect {
            record_extras: true,
            cap,
            found,
        };
        let (mut budget_tripped, mut nodes) = (false, 0);
        for cfg in configs {
            let (start, sym) = absorb_commits(commits, &cfg.sym);
            let max_nodes =
                shared_budget.map_or(shard.cfg.budget, |total| total.saturating_sub(nodes));
            let (flow, stats) =
                Search::new(&engine).run(&cfg.seed, start, sym, &mut collect, max_nodes);
            budget_tripped |= flow.is_err();
            nodes += stats.nodes;
            if collect.found.configs.len() >= cap {
                break;
            }
        }
        collect.found.sort();
        let fresh = &collect.found.configs;
        assert_eq!(
            shared.budget_tripped, budget_tripped,
            "the budget trip moved"
        );
        assert_eq!(
            shared.configs.len(),
            fresh.len(),
            "the configurations moved"
        );
        for (at, (a, b)) in shared.configs.iter().zip(fresh).enumerate() {
            assert!(
                a.seed.history == b.seed.history
                    && a.seed.state == b.seed.state
                    && a.seed.used == b.seed.used
                    && a.sym == b.sym,
                "configuration {at} of {} moved",
                fresh.len()
            );
        }
        assert!(shared.stats.nodes <= nodes, "the shared memo added work");
        let saved = saved + (nodes - shared.stats.nodes);
        FRESH_ORACLE.with(|on| on.set(Some((checked + 1, saved))));
    }

    /// Over the corpus, every fallback and cut enumeration — its problems'
    /// runs sharing one `Search`, and so one memo — finds exactly what one
    /// fresh `Search` per problem finds ([`against_fresh_searches`]).
    #[test]
    fn an_enumeration_sharing_one_memo_finds_what_fresh_searches_do() {
        FRESH_ORACLE.with(|on| on.set(Some((0, 0))));
        for clients in [3, 4] {
            for error_prob in [0.0, 0.15] {
                sweep(clients, error_prob, |_| {});
            }
        }
        let (checked, saved) = FRESH_ORACLE.with(|on| on.take()).expect("still on");
        println!("{checked} window enumerations checked; the shared memo saved {saved} nodes");
        assert!(checked > 1000, "the corpus enumerates too few windows");
        assert!(saved > 0, "the shared memo saved nothing");
    }

    /// The shard's class table grows as inputs arrive: an input first
    /// invoked mid-window, or only after a retirement, gets a row at the
    /// end, and every retained table (frontier, seeds, checkpoint) reads
    /// none of it until it is consumed. Over hot-key and straggler streams,
    /// clean and faulty, each event is fed to that shard and to one that met
    /// every input of the stream before the first event: after every event
    /// each retained table, read over the classes met so far, equals — and
    /// hashes like — the table the other shard built from the start (and
    /// counts nothing else), the rest of every configuration is equal, in
    /// order; and the statuses, the memory proxy and the search nodes are
    /// the same. Both shards keep every class: whether a retirement drops
    /// the spent ones depends on the table's width, which is what differs
    /// here (dropping is checked against keeping in
    /// `dropping_spent_classes_changes_nothing_but_the_tables`).
    #[test]
    fn a_class_met_late_counts_as_if_met_first() {
        KEEP_SPENT.with(|keep| keep.set(true));
        let (mut mid_window, mut after_retirement) = (0, 0);
        for seed in 0..6 {
            for error_prob in [0.0, 0.15] {
                let hotkey = random_multikey_kv_trace(&MultiKeyConfig {
                    clients: 3,
                    steps: 120,
                    keys: 1,
                    skew: 0.0,
                    contention: 0.0,
                    error_prob,
                    seed,
                });
                let stragglers = random_hostile_kv_trace(&HostileConfig {
                    clients: 3,
                    steps: 120,
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
                    for window in [8, 16] {
                        let mut growing = shard(GcPolicy::default());
                        let mut known = shard(GcPolicy::default());
                        for a in t.iter() {
                            known.class_of(a.input());
                        }
                        // One monitor's shards share one set of buffers.
                        let buffers = &mut ShardBuffers::default();
                        for (i, a) in t.iter().enumerate() {
                            let met = growing.bounds.classes();
                            let outcome = growing.ingest(a.clone(), i, buffers);
                            assert_eq!(outcome, known.ingest(a.clone(), i, buffers));
                            if growing.bounds.classes() > met {
                                mid_window += usize::from(growing.sub.len() > 1);
                                after_retirement +=
                                    usize::from(growing.counters.retired_windows > 0);
                            }
                            assert_eq!(growing.status(), known.status());
                            assert_read_as_if_met_first(&growing, &known);
                            assert_eq!(
                                growing.maybe_retire(window, buffers),
                                known.maybe_retire(window, buffers)
                            );
                            assert_read_as_if_met_first(&growing, &known);
                        }
                        assert_eq!(growing.counters, known.counters);
                    }
                }
            }
        }
        KEEP_SPENT.with(|keep| keep.set(false));
        println!("{mid_window} first arrivals mid-window, {after_retirement} after a retirement");
        assert!(
            mid_window > 10 && after_retirement > 10,
            "{mid_window} first arrivals mid-window, {after_retirement} after a retirement"
        );
    }

    /// How many nodes the shard's memory proxy counts.
    fn nodes(s: &Shard) -> usize {
        let mut seen = HashSet::new();
        s.mark_multiset_nodes(&mut seen);
        seen.len()
    }

    /// `growing`'s retained configurations are `known`'s, in order, each
    /// count table read over the classes `growing` has met; and the two
    /// mark as many nodes.
    fn assert_read_as_if_met_first(growing: &Shard, known: &Shard) {
        let (grown, full): (Vec<_>, Vec<_>) =
            (growing.retained().collect(), known.retained().collect());
        assert_eq!(grown.len(), full.len());
        for (g, k) in grown.iter().zip(&full) {
            assert!(g.seed.history == k.seed.history && g.seed.state == k.seed.state);
            assert_eq!(g.sym, k.sym);
            assert!(g.seed.used.len() <= growing.bounds.classes());
            let classes = 0..growing.bounds.classes();
            let read: Vec<usize> = classes
                .clone()
                .map(|class| g.seed.used.count(class))
                .collect();
            let fresh: Vec<usize> = classes
                .map(|class| {
                    let input = growing.bounds.input(class);
                    k.seed
                        .used
                        .count(known.bounds.class(input).expect("met from the start"))
                })
                .collect();
            assert_eq!(read, fresh);
            assert_eq!(
                g.seed.used,
                Used::of(fresh.into_iter()),
                "equal, and hashed alike"
            );
            assert_eq!(
                g.seed.used.iter().sum::<usize>(),
                k.seed.used.iter().sum::<usize>(),
                "the table met from the start counts an input not yet met"
            );
        }
        assert_eq!(nodes(growing), nodes(known));
    }

    /// A single-key stream of `clients` clients in which every put writes a
    /// value no put wrote before — an input the shard has never met — and
    /// the rest are gets; with `straggle`, client 1's first operation is
    /// never answered, so the shard never quiesces. Linearizable: an
    /// operation takes effect at its response.
    fn fresh_values(clients: u32, steps: usize, straggle: bool, seed: u64) -> Vec<KvEvent> {
        let ph = PhaseId::FIRST;
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut draw = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let (mut state, mut fresh) = (KvStore.initial(), 0);
        let mut pending: Vec<Option<KvInput>> = vec![None; clients as usize];
        let mut events = Vec::new();
        for _ in 0..steps {
            let c = draw(u64::from(clients)) as usize;
            let client = ClientId::new(c as u32 + 1);
            match pending[c] {
                None => {
                    let input = if draw(2) == 0 {
                        fresh += 1;
                        KvInput::Put(1, fresh)
                    } else {
                        KvInput::Get(1)
                    };
                    pending[c] = Some(input);
                    events.push(Action::invoke(client, ph, input));
                }
                Some(_) if straggle && c == 0 => {}
                Some(input) => {
                    let (next, output) = KvStore.apply(&state, &input);
                    state = next;
                    pending[c] = None;
                    events.push(Action::respond(client, ph, input, output));
                }
            }
        }
        events
    }

    /// Dropping spent classes at a retirement changes nothing but the count
    /// tables, and keeps the class table as wide as the inputs the shard
    /// may still consume. Over streams whose every put is a fresh input
    /// (3 and 4 clients, with and without a straggler) and the hot-key and
    /// straggler streams, clean and faulty, each event is fed to a shard
    /// that drops them and to one that keeps every class: the outcomes,
    /// statuses, counters (search nodes included) and memory proxy are the
    /// same; the retained configurations are the same, in order, but for
    /// their tables, which leave the same spare occurrences (pool minus
    /// consumed) of every input the keeping shard has met. The dropping
    /// shard's class table never holds more than the inputs of its retained
    /// window and twice those of the last one it retired, its pending inputs
    /// and `get(1)` — a few dozen on the fresh-value streams, where the
    /// keeping shard's grows with the stream.
    #[test]
    fn dropping_spent_classes_changes_nothing_but_the_tables() {
        let mut streams = Vec::new();
        for seed in 0..2 {
            for (clients, straggle) in [(3, false), (3, true), (4, false), (4, true)] {
                streams.push((true, fresh_values(clients, 400, straggle, seed)));
            }
            for error_prob in [0.0, 0.15] {
                let hotkey = random_multikey_kv_trace(&MultiKeyConfig {
                    clients: 3,
                    steps: 120,
                    keys: 1,
                    skew: 0.0,
                    contention: 0.0,
                    error_prob,
                    seed,
                });
                let stragglers = random_hostile_kv_trace(&HostileConfig {
                    clients: 3,
                    steps: 120,
                    keys: 1,
                    skew: 0.7,
                    never_frac: 0.01,
                    stuck_applies: true,
                    delay_zipf: 1.3,
                    max_delay: 12,
                    error_prob,
                    seed,
                });
                streams.push((false, hotkey.iter().cloned().collect()));
                streams.push((false, stragglers.iter().cloned().collect()));
            }
        }
        let (mut dropped, mut widest, mut kept) = (0, 0, 0);
        for (fresh, t) in &streams {
            for window in [8, 16] {
                let (mut dropping, mut keeping) =
                    (shard(GcPolicy::default()), shard(GcPolicy::default()));
                let buffers = &mut ShardBuffers::default();
                let mut last_retired = 0;
                for (i, a) in t.iter().enumerate() {
                    let outcome = dropping.ingest(a.clone(), i, buffers);
                    let met = dropping.bounds.classes();
                    let retired = dropping.maybe_retire(window, buffers);
                    dropped += met - dropping.bounds.classes();
                    KEEP_SPENT.with(|keep| keep.set(true));
                    assert_eq!(outcome, keeping.ingest(a.clone(), i, buffers));
                    assert_eq!(retired, keeping.maybe_retire(window, buffers));
                    KEEP_SPENT.with(|keep| keep.set(false));
                    assert_eq!(dropping.status(), keeping.status());
                    assert_same_but_tables(&dropping, &keeping);
                    if let Some(retired) = retired {
                        last_retired = retired;
                    }
                    // The inputs of the retained window, and twice those of
                    // the last retired one, the pending ones (at most one
                    // per client, and no stream here has more than four)
                    // and `get(1)`: a retirement that drops nothing leaves
                    // fewer spent classes than kept ones.
                    let bound = dropping.sub.len() + 2 * (last_retired + 4 + 1);
                    assert!(
                        dropping.bounds.classes() <= bound,
                        "wider than the inputs it may consume"
                    );
                    if *fresh {
                        widest = widest.max(dropping.bounds.classes());
                    }
                }
                assert_eq!(dropping.counters, keeping.counters);
                if *fresh {
                    kept = kept.max(keeping.bounds.classes());
                }
            }
        }
        println!(
            "{dropped} classes dropped; on the fresh-value streams the widest table held \
             {widest} classes, where a keeping shard met up to {kept} inputs"
        );
        assert!(dropped > 1000, "too few classes dropped: {dropped}");
        assert!(widest * 4 < kept, "{widest} classes, {kept} inputs met");
    }

    /// `dropping`'s retained configurations are `keeping`'s, in order, but
    /// for their count tables, which leave the same spare occurrences of
    /// every input `keeping` has met (none of a class `dropping` dropped);
    /// and the two mark as many nodes.
    fn assert_same_but_tables(dropping: &Shard, keeping: &Shard) {
        let (ds, ks): (Vec<_>, Vec<_>) =
            (dropping.retained().collect(), keeping.retained().collect());
        assert_eq!(ds.len(), ks.len());
        let (d_rows, k_rows) = (&dropping.bounds, &keeping.bounds);
        for (d, k) in ds.iter().zip(&ks) {
            assert!(d.seed.history == k.seed.history && d.seed.state == k.seed.state);
            assert_eq!(d.sym, k.sym);
            assert!(d.seed.used.len() <= d_rows.classes());
            for class in 0..k_rows.classes() {
                let spare = k_rows.pool_of(class) - k.seed.used.count(class);
                let kept = d_rows.class(k_rows.input(class));
                let d_spare = kept.map_or(0, |c| d_rows.pool_of(c) - d.seed.used.count(c));
                assert_eq!(d_spare, spare, "the spare {:?} moved", k_rows.input(class));
            }
        }
        assert_eq!(nodes(dropping), nodes(keeping));
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
        let buffers = &mut ShardBuffers::default();
        let mut feed = |shard: &mut Shard, a: KvEvent| {
            let at = shard.sub.len();
            shard.ingest(a, at, buffers).1
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
        let del_class = shard.bounds.class(&del).expect("invoked");
        let lost = |cfg: &Cfg| cfg.seed.used.count(del_class) == 2 && cfg.sym == recorded;
        assert!(shard.frontier.iter().any(lost));

        // One commit later the extra is interleaved before it: same keys.
        feed(&mut shard, Action::invoke(c(1), ph, get));
        assert!(!feed(&mut shard, Action::respond(c(1), ph, get, absent)));
        assert_eq!(shard.status(), ShardStatus::Ok);
        assert_eq!(check_checkpoint(&shard), Some(false));
    }
}
