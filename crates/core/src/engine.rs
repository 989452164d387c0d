//! The **chain-search kernel**: the one search behind every checker.
//!
//! The paper's two decision procedures — plain linearizability
//! ([`crate::lin::LinChecker`], Section 4) and speculative linearizability
//! ([`crate::slin::SlinChecker`], Section 5) — both reduce to the same
//! existential search: grow a **chain of commit histories** one element at a
//! time, where every step either
//!
//! 1. *commits* one of the remaining responses (appending its input to the
//!    current history, provided the ADT explains the recorded output and the
//!    per-index validity bound admits the consumed inputs), or
//! 2. *interleaves an extra input* drawn from a bounded pool (an input whose
//!    response never commits, or a duplicated occurrence — the definitions
//!    permit repeated events).
//!
//! # One kernel, three visitors
//!
//! There is exactly one recursion implementing that search (`Search::dfs`).
//! It owns, once, everything a chain search needs: node counting and the
//! budget trip, the dead-end memo on `(remaining commits, ADT
//! state, consumed inputs, visitor tag)` (below), the feasibility prune
//! (below), the commit move, the sorted extra-input move, and the
//! [`SearchStats`] it returns on **both** sides of the verdict. What
//! differs between its uses is a small `Visitor`:
//!
//! | use                      | visitor            | tag      | at a leaf                         |
//! |--------------------------|--------------------|----------|-----------------------------------|
//! | stop at first            | `FirstSolution`    | `()`     | ask the leaf oracle; a witness stops the search, a veto backtracks |
//! | enumerate, capped        | the shard's collector | symbolic completions | record the terminal configuration; stop at the cap |
//! | extend past one commit   | the same collector | the same | the same, over the one-commit problem `commits = [new]` seeded from a frontier configuration |
//!
//! The first is `CheckerEngine::first_solution`, the batch checkers' entry
//! point, which takes a problem's leaf oracle ([`crate::model::LeafFn`])
//! as `Problem::search` hands it over and returns a [`Chain`]: the path's
//! commit cuts over the one history it copies, at the leaf it accepts.
//! The other two live with the streaming frontier in `stream/shard.rs`
//! (fallback re-search and epoch-cut summaries; tail extension).
//!
//! # Feasibility prune
//!
//! Validity (Definition 10; Definition 26 for `vi`) is stated on
//! **multisets**: three clients' `get(k)` are three interchangeable
//! occurrences of one input. A search that only asks "do the inputs
//! consumed so far fit the bound?" happily spends an occurrence early —
//! commits the `get` that responds last first, or interleaves a `get` as an
//! extra — and finds out many levels later that an earlier `get` commit is
//! starved. The kernel instead keeps, at every node `(used, remaining)`, a
//! **necessary condition** for a leaf below it, and checks it on a child
//! *before* descending:
//!
//! * **Floor.** `used ⊆ bounds[c.index]` for every remaining commit `c`: a
//!   history only grows, and committing `c` needs it inside `c`'s bound.
//!   Bounds only grow along the trace: they are one cumulative count
//!   table, [`crate::ops::Bounds`], which states no other kind. So the
//!   earliest remaining commit — the *floor* — carries the tightest one.
//! * **Hall count.** For every input `e`, with `c₁ < … < c_m` the remaining
//!   commits on `e` in trace order: `used(e) + j ≤ bounds[c_j.index](e)`
//!   for every `j`. Whichever of `c₁..c_j` is committed last is committed
//!   with all `j` of them — `used(e) + j` occurrences of `e` at least — in
//!   its history, and its bound is at most `c_j`'s. (Hall's condition for
//!   matching the commits on `e` to the occurrences their bounds admit.)
//!
//! A node failing either has no leaf below it. Both are inductive: given
//! them at a node, a child adding one occurrence of `e` satisfies them iff
//! `e` still fits the floor and every remaining commit on `e` *before* the
//! one being committed (every one, for an extra) keeps `used(e) + 1 + j ≤
//! bounds[c_j.index](e)` — and then the commit's own validity bound holds
//! too. So the seed is checked once, each child costs a few integer
//! comparisons on per-class counters, and a dead child costs no node, no
//! memo key, no ADT step: an extra that would starve a later commit is
//! never offered. The counters live in a per-engine class table (inputs
//! grouped into dense class ids, each with its pool multiplicity; each
//! commit's class and own `bounds.count(c.index, c.input)`): a batch
//! problem's engine builds it once, sorted by input, and a streaming
//! shard's engines borrow the shard's — the rows of its
//! [`crate::ops::Bounds`], in the order the shard met their inputs, which
//! the shard keeps from window to window, with each commit's class and own
//! bound recorded when the commit arrives. Either way extras are offered
//! in input order.
//!
//! **The counters are the search's `used`.** Validity never asks which
//! occurrence was consumed, only how many of each input, so the
//! consumed-input multiset *is* one integer per class — `+= 1` going down,
//! `-= 1` coming back — and that is how it lives everywhere: a seed carries
//! it as a count table over the engine's classes (`Used`), a run copies
//! those counts in, a leaf hands them out as a table (`LeafUsed::get`;
//! stop-at-first never asks), the same table as the last leaf's while the
//! counts have not moved, and a shard's configurations keep those tables
//! from the frontier through the next search and back. A shard's direct
//! commit reads its class's count and bumps it, in place when no other
//! configuration holds the table. When a shard meets a new input, its class
//! table gains a row at the end, and no table it retains changes: a table
//! counts the classes up to the last one it was made or bumped with, and
//! none of a class past its end.
//!
//! **Wide alphabets.** A count table is O(α) per configuration at most, α
//! the width of the class table, where a multiset was O(distinct inputs
//! consumed). Inside a search that adds nothing: the memo key already
//! counts every class of the engine at every node (below), so a node is
//! O(α) either way. Outside one a table costs O(α) only where it is made
//! or copied — a leaf's new table, a direct commit on a table another
//! configuration holds — and otherwise O(1): a first arrival changes no
//! table, a table keeps its hash up to date as it is bumped, equality
//! compares counts only where the hashes agree, and a bump past a table's
//! end takes room the table keeps for that. What does grow with α is every
//! search (its set-up and its memo keys), so a shard keeps α to about what
//! it may still consume: a retirement drops the classes nothing it retains
//! can consume any more and the retiring window did not invoke, when they
//! are at least half the table (see `stream/shard.rs`, "The class table's
//! width"). Under an unbounded window nothing retires and α grows with the
//! stream's distinct inputs — as the retained window does, which a
//! fallback searches whole.
//!
//! # The memo
//!
//! A node whose subtree was explored to the end without the visitor
//! stopping is a dead end, and so is every later node with the same
//! `(remaining commits, ADT state, consumed inputs, visitor tag)` — the
//! ordered history is not part of the key (see [`crate::model::LeafFn`] and
//! `Visitor::Tag` for what that asks of a visitor). A node owns its state,
//! tag and remaining set (children get fresh ones), so the key is never
//! assembled: it is **hashed once, by reference** — the mask, `State:
//! Hash`, every class's counter, `Tag: Hash` — the table is probed
//! with that `u64`, a candidate is compared **in full** (exactness is a
//! soundness property: a false hit is a false violation), and a node that
//! turns out dead **moves** its parts in under the same hash, with a
//! snapshot of the counters in a shared arena. No clone, one hash per node.
//!
//! **The memo spans a `Search`'s runs.** An enumeration runs all its seeds
//! through one `Search`, and `Search::run` does not clear the memo: a run
//! does not search again below a node an earlier seed's run buried. That
//! is exact because the key counts every class of the engine, not only
//! those one run can move. A node's children depend only on `(remaining,
//! state, every class's count, tag)`: a class outside one seed's spare pool
//! has `used ≥ pool` at every node below that seed, so it never offers an
//! extra, whichever run reaches the node; and a seed consumes pool inputs
//! only, so the counters are its whole `used`. For the shard's collector,
//! which deduplicates its results on `(state, used, tag)`, a buried node's
//! leaves are already collected, so sharing skips only duplicates: the same
//! configurations, in the same order, the cap reached at the same point.
//! A stop-at-first search builds one `Search` per call
//! (`CheckerEngine::first_solution`), so a leaf oracle never sees another
//! run's memo. Seeds whose completions differ converge on the same nodes
//! after a commit or two: on the traced seed-21 hostile benchmark streams,
//! sharing the memo took the search nodes per event from 5.18 to 3.08
//! (`stream-hotkey`) and from 5.51 to 3.32 (`stream-stragglers`).
//!
//! The hash is a folded-multiply function (`KeyHasher`), not SipHash —
//! SipHash was a sixth of a node — started from a seed drawn once per
//! process from [`std::collections::hash_map::RandomState`]. Search order
//! never consults the memo, so every output is the same under any hash
//! function (a unit test substitutes a constant). What a hostile tenant
//! could buy by defeating it is time, and only so much: a probe compares at
//! most the entries of its own `Search`'s memo, which are fewer than the
//! nodes its runs expanded, each run bounded by its budget.
//!
//! **Leaf-order invariance.** Within a run, only leafless subtrees are
//! removed and no move is reordered, so the sequence of leaves the visitor
//! sees is exactly that of the unpruned tree (across the runs of one
//! `Search`, what the memo removes is leaves whose keys an earlier run
//! already saw): first witnesses, enumeration order, the point
//! a capped enumeration stops at, and every verdict are unchanged for all
//! callers; only `nodes`, `memo_*` and, on a shared `Search`,
//! `leaf_checks` fall ([`SearchStats::pruned`] counts the rejected moves),
//! and budgets trip
//! less often. `crates/core/tests/kernel_pins.rs` pins both halves;
//! `crates/core/tests/prune_soundness.rs` checks the prune exhaustively at
//! small scope against a brute-force reading of Definition 10.
//!
//! # Parameters
//!
//! The two checkers differ only in the engine's **parameters**:
//!
//! | parameter            | `lin`                          | `slin`                                   |
//! |----------------------|--------------------------------|------------------------------------------|
//! | validity bounds      | `elems(inputs(t, i))` (Def. 10)| valid inputs `vi(m, t, finit, i)` (Def. 26) |
//! | seed history         | empty                          | LCP of the init interpretations (Def. 31) |
//! | leaf oracle          | trivially succeeds             | abort feasibility (Abort-Order, Def. 28) |
//!
//! The *leaf oracle* decides what "success" means once every commit is
//! placed: it receives the longest history — the chain's last, or the seed
//! when nothing commits — and may veto the leaf (forcing further
//! backtracking), which is how `slin` grafts
//! the existential over abort interpretations onto the shared search.
//!
//! Keeping the search in one place is what makes the two checkers provably
//! comparable (Theorem 2 equates them on switch-free traces — see the
//! `theorem_2_slin_equals_lin_on_switch_free_traces` test), gives every
//! frontend and every streaming site the same budget/statistics surface,
//! and means constant-factor work on the search is done — and proven —
//! once.

use crate::ops::{Bounds, Commit};
use slin_adt::Adt;
use std::any::Any;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::ops::{ControlFlow, Deref, DerefMut};
use std::sync::{Arc, OnceLock};

/// A set of commit indices, one bit per commit.
///
/// Traces of at most 64 commits — the overwhelmingly common case — stay on
/// a single machine word (`CommitMask::Small`); wider traces spill into a
/// little-endian word vector (`CommitMask::Large`). There is no ceiling:
/// any commit count is representable, so the engine never refuses a trace
/// up front (the former `MAX_TRACKED_COMMITS = 64` bound is gone).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum CommitMask {
    /// At most 64 commits: one machine word.
    Small(u64),
    /// More than 64 commits: bit `k` lives in word `k / 64`.
    Large(Vec<u64>),
}

impl CommitMask {
    /// The mask with bits `0..n` set — "all `n` commits remaining".
    pub(crate) fn full(n: usize) -> Self {
        if n <= 64 {
            CommitMask::Small(full_word(n))
        } else {
            let mut words = vec![u64::MAX; n / 64];
            let rem = n % 64;
            if rem > 0 {
                words.push(full_word(rem));
            }
            CommitMask::Large(words)
        }
    }

    /// Whether no bit is set (every commit placed).
    pub(crate) fn is_empty(&self) -> bool {
        match self {
            CommitMask::Small(w) => *w == 0,
            CommitMask::Large(ws) => ws.iter().all(|w| *w == 0),
        }
    }

    /// Whether bit `k` is set.
    #[cfg(test)]
    pub(crate) fn contains(&self, k: usize) -> bool {
        match self {
            CommitMask::Small(w) => k < 64 && w & (1 << k) != 0,
            CommitMask::Large(ws) => ws.get(k / 64).is_some_and(|w| w & (1 << (k % 64)) != 0),
        }
    }

    /// The mask with bit `k` cleared (the child node's remaining set).
    pub(crate) fn without(&self, k: usize) -> Self {
        let mut out = self.clone();
        out.remove(k);
        out
    }

    /// Clears bit `k` in place.
    pub(crate) fn remove(&mut self, k: usize) {
        match self {
            CommitMask::Small(w) => {
                debug_assert!(k < 64, "bit outside a small mask");
                *w &= !(1 << k);
            }
            CommitMask::Large(ws) => {
                if let Some(w) = ws.get_mut(k / 64) {
                    *w &= !(1 << (k % 64));
                }
            }
        }
    }

    /// Number of set bits.
    #[cfg(test)]
    pub(crate) fn count(&self) -> usize {
        match self {
            CommitMask::Small(w) => w.count_ones() as usize,
            CommitMask::Large(ws) => ws.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// The set bits in ascending order — one step per set bit, not per
    /// commit of the trace.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let words = match self {
            CommitMask::Small(w) => std::slice::from_ref(w),
            CommitMask::Large(ws) => ws.as_slice(),
        };
        words.iter().enumerate().flat_map(|(i, &word)| {
            // Clearing the lowest set bit walks the word's bits upward.
            std::iter::successors((word != 0).then_some(word), |w| {
                let rest = w & (w - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |w| i * 64 + w.trailing_zeros() as usize)
        })
    }
}

/// The word with its lowest `n <= 64` bits set.
fn full_word(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// The node budget of a search whose caller sets none: a session's
/// default ([`crate::session::SessionBuilder::budget`]), and the budget of
/// the checkers' own `check` and of [`crate::compose`]'s phase checks.
pub const DEFAULT_MAX_NODES: usize = 2_000_000;

/// Counters reported by every search, successful or not.
///
/// Frontends aggregate these over every search a check runs, beside the
/// verdict ([`crate::session::Verdict::stats`], which a stream report
/// carries too), never inside a witness; the benchmark harness prints them
/// as the checker-practicality rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Search nodes expanded (budget unit).
    pub nodes: usize,
    /// Distinct dead states memoised — by this search: runs sharing one
    /// memo each count the entries they added.
    pub memo_entries: usize,
    /// Searches cut short by a memo hit.
    pub memo_hits: usize,
    /// Completed chains handed to the leaf oracle.
    pub leaf_checks: usize,
    /// Moves the feasibility prune rejected before expansion: each would
    /// have been a leafless subtree, and cost no node, no memo key and no
    /// ADT step.
    pub pruned: usize,
    /// Searches aggregated into these counters (1 per engine search): one
    /// per init interpretation searched by a monolithic check (1 for plain
    /// linearizability); one per class search, plus one for a remerge,
    /// by a partitioned check; one per shard seed tried by a window
    /// report.
    pub interpretations: usize,
}

impl SearchStats {
    /// Accumulates another search's counters into this one.
    pub fn absorb(&mut self, other: &SearchStats) {
        self.nodes += other.nodes;
        self.memo_entries += other.memo_entries;
        self.memo_hits += other.memo_hits;
        self.leaf_checks += other.leaf_checks;
        self.pruned += other.pruned;
        self.interpretations += other.interpretations;
    }
}

/// Why the engine abandoned a search without a verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The search expanded more nodes than its budget (`max_nodes`, per
    /// search: [`DEFAULT_MAX_NODES`] unless the session sets another);
    /// carries the node count at the point of giving up.
    BudgetExhausted {
        /// Nodes expanded when the budget tripped.
        nodes: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::BudgetExhausted { nodes } => {
                write!(f, "search budget exhausted after {nodes} nodes")
            }
        }
    }
}

impl Error for EngineError {}

/// A search space exhausted without a chain: the problem has no witness.
/// Each model states once what that means as its error (a refutation
/// without an init interpretation to name); the streaming monitor's
/// window reports read it through that conversion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Refuted;

/// A chain of commit histories — the witness shape shared by both checkers.
///
/// Commit-Order makes every commit history a prefix of the longest, so a
/// chain is that one history and one `(trace index, length)` cut per
/// commit, in chain order. It stands for the `(trace index, commit
/// history)` list, which its `Debug` renders and its `==` compares: the
/// history ends at the last cut, and is empty when nothing commits.
#[derive(Clone, PartialEq, Eq)]
pub struct Chain<I> {
    history: Vec<I>,
    cuts: Vec<(usize, usize)>,
}

impl<I> Chain<I> {
    /// The chain cutting `history` at `cuts` (lengths strictly ascending);
    /// the history past the last cut is dropped.
    pub(crate) fn new(mut history: Vec<I>, cuts: Vec<(usize, usize)>) -> Self {
        debug_assert!(
            cuts.windows(2).all(|w| w[0].1 < w[1].1) && cuts.first().is_none_or(|c| c.1 > 0),
            "commit histories strictly extend one another"
        );
        history.truncate(cuts.last().map_or(0, |c| c.1));
        Chain { history, cuts }
    }

    /// The longest commit history.
    pub fn history(&self) -> &[I] {
        &self.history
    }

    /// The `(trace index, history length)` of every commit, in chain order.
    pub fn cuts(&self) -> &[(usize, usize)] {
        &self.cuts
    }

    /// The `(trace index, commit history)` of every commit, in chain order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[I])> {
        self.cuts.iter().map(|&(i, len)| (i, &self.history[..len]))
    }

    /// The same chain with every commit's trace index `i` renamed `f(i)`.
    pub(crate) fn map_indices(mut self, f: impl Fn(usize) -> usize) -> Self {
        self.cuts.iter_mut().for_each(|(i, _)| *i = f(*i));
        self
    }
}

impl<I> Default for Chain<I> {
    fn default() -> Self {
        Chain::new(Vec::new(), Vec::new())
    }
}

impl<I: fmt::Debug> fmt::Debug for Chain<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// What a stop-at-first search found: the chain and its leaf witness,
/// `None` when the space is exhausted, or the budget trip — with the work
/// done on every side of the verdict.
pub(crate) type Found<I, W> = (Result<Option<(Chain<I>, W)>, EngineError>, SearchStats);

/// Consumed inputs as a **count table**: one count per class of an
/// engine's class table, in class order, up to the last class it was made
/// or bumped with — a class past its end counts none (module docs, "The
/// counters are the search's `used`"). Validity never asks which
/// occurrence was consumed, only how many of each input, so this is the
/// whole multiset.
///
/// A table is shared: a clone is a reference count, and a leaf hands out
/// the table it handed out last while its counts have not moved. A table
/// with no class allocates nothing. A table keeps the hash of its counts up
/// to date as it is bumped, so hashing one is O(1) however many classes it
/// counts, and equality compares counts only where the hashes agree; a
/// bump past its end takes room the table keeps for that — as much again
/// as it counts — so a table that keeps meeting new inputs grows in
/// amortised O(1) while nothing else holds it.
#[derive(Clone, Default)]
pub(crate) struct Used(Option<Arc<[usize]>>);

/// A table's slots: its hash and its length, then its counts, then its
/// room, all zero.
const HASH: usize = 0;
const LEN: usize = 1;
const HEAD: usize = 2;

/// What class `class` holding `n` adds to a table's hash (wrapping): none
/// when `n` is 0, so a zero count and a class past the end hash alike.
fn term(class: usize, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        KeyHasher::hash_of((class, n)) as usize
    }
}

/// The hash of a table holding `counts`.
fn hash_of_counts(counts: impl Iterator<Item = usize>) -> usize {
    (counts.enumerate()).fold(0, |hash, (class, n)| hash.wrapping_add(term(class, n)))
}

impl Used {
    /// The table holding `counts`, one per class; a table of no class
    /// allocates nothing.
    pub(crate) fn of(counts: impl ExactSizeIterator<Item = usize> + Clone) -> Self {
        if counts.len() == 0 {
            return Used(None);
        }
        Used::with_room(counts, 0)
    }

    /// A table of its own holding `counts`, with room for `room` classes
    /// more.
    fn with_room(counts: impl ExactSizeIterator<Item = usize> + Clone, room: usize) -> Self {
        let head = [hash_of_counts(counts.clone()), counts.len()];
        let slots = head
            .into_iter()
            .chain(counts)
            .chain(std::iter::repeat_n(0, room));
        Used(Some(slots.collect()))
    }

    /// How many occurrences of class `class` the table counts.
    pub(crate) fn count(&self, class: usize) -> usize {
        (**self).get(class).copied().unwrap_or(0)
    }

    /// One more occurrence of class `class`: in place when nothing else
    /// holds the table and it has the room, else in a copy — with room for
    /// as many classes again when `class` is past its end.
    pub(crate) fn bump(&mut self, class: usize) {
        if let Some(slots) = self.0.as_mut().and_then(Arc::get_mut) {
            if HEAD + class < slots.len() {
                let n = slots[HEAD + class];
                let hash = slots[HASH].wrapping_sub(term(class, n));
                slots[HASH] = hash.wrapping_add(term(class, n + 1));
                slots[HEAD + class] = n + 1;
                slots[LEN] = slots[LEN].max(class + 1);
                return;
            }
        }
        let len = self.len().max(class + 1);
        let room = if class < self.len() { 0 } else { len };
        let counts = (0..len).map(|c| self.count(c) + usize::from(c == class));
        let bumped = Used::with_room(counts, room);
        *self = bumped;
    }

    /// This table without the classes `spent` marks — a class table that
    /// dropped them: the classes after each move down. A table of its own
    /// even when no class is left, so that tables shared before stay
    /// shared and tables apart stay apart.
    pub(crate) fn without(&self, spent: &[bool]) -> Self {
        let kept: Vec<usize> = (self.iter().zip(spent))
            .filter(|(_, &spent)| !spent)
            .map(|(&n, _)| n)
            .collect();
        Used::with_room(kept.into_iter(), 0)
    }

    /// The table's hash, kept up to date by [`Used::bump`].
    fn hash_value(&self) -> usize {
        self.0.as_ref().map_or(0, |slots| slots[HASH])
    }

    /// The table's address: equal for two `Used` exactly when they are
    /// this very table (0 for every table of no class that allocated
    /// nothing).
    pub(crate) fn addr(&self) -> usize {
        self.0
            .as_ref()
            .map_or(0, |slots| Arc::as_ptr(slots).cast::<usize>() as usize)
    }

    /// Records the table's one node into `seen` (pointer-deduplicated) —
    /// the memory proxy a shard reports, in which a table is one node and
    /// one that consumed nothing, like an empty multiset, is none. With
    /// `consumed_dropped`, every table has consumed occurrences of classes
    /// its class table dropped since, and counts as one.
    pub(crate) fn mark_node(&self, seen: &mut HashSet<usize>, consumed_dropped: bool) {
        if self.0.is_some() && (consumed_dropped || self.iter().any(|&n| n > 0)) {
            seen.insert(self.addr());
        }
    }
}

/// `counts` without its trailing zeros: what two tables must agree on.
fn trimmed(counts: &[usize]) -> &[usize] {
    let end = counts
        .iter()
        .rposition(|&n| n > 0)
        .map_or(0, |last| last + 1);
    &counts[..end]
}

impl Deref for Used {
    type Target = [usize];

    /// The counts, up to the table's end.
    fn deref(&self) -> &[usize] {
        match &self.0 {
            Some(slots) => &slots[HEAD..HEAD + slots[LEN]],
            None => &[],
        }
    }
}

impl PartialEq for Used {
    fn eq(&self, other: &Used) -> bool {
        self.addr() == other.addr()
            || (self.hash_value() == other.hash_value() && trimmed(self) == trimmed(other))
    }
}

impl Eq for Used {}

impl Hash for Used {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.hash_value());
    }
}

impl fmt::Debug for Used {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Where the search starts: a (possibly non-empty) history prefix with its
/// replayed ADT state and consumed-input count table.
#[derive(Debug)]
pub(crate) struct SearchSeed<T: Adt> {
    /// The history every chain element must extend.
    pub(crate) history: Vec<T::Input>,
    /// The ADT state reached by `history`.
    pub(crate) state: T::State,
    /// The inputs consumed by `history`, counted over the engine's classes
    /// (shared: cloning a seed copies no count).
    pub(crate) used: Used,
}

// Manual impl: the derive would demand `T: Clone`, but only the input and
// state types are cloned.
impl<T: Adt> Clone for SearchSeed<T> {
    fn clone(&self) -> Self {
        SearchSeed {
            history: self.history.clone(),
            state: self.state.clone(),
            used: self.used.clone(),
        }
    }
}

/// An engine's class table (module docs, "Feasibility prune"): every input
/// a move can consume, each with its pool multiplicity — a batch engine's
/// sorted by input, a shard's in the order the shard met them.
///
/// Two representations, because a batch problem's table is not a
/// [`Bounds`]' rows: [`CheckerEngine::new`] takes its pool from the caller —
/// a projection's class bucket, a merge's pool, a test's — with the
/// caller's multiplicities, and gives a commit's input the pool lacks a
/// class with none, whether or not the bounds hold a row for it. A shard's
/// table is exactly its bounds' rows, so its engines build nothing.
enum Classes<I> {
    /// A batch problem's, built with its engine: the pool's inputs, and the
    /// commits' inputs the pool lacks with none.
    Built(Vec<(I, usize)>),
    /// A shard's: the rows of its count table, which has met every input of
    /// its window and of the windows it retired.
    Rows,
}

/// The shared chain-search engine. See the module docs for the search it
/// performs and the parameters distinguishing the two frontends.
pub(crate) struct CheckerEngine<'s, T: Adt> {
    adt: &'s T,
    commits: &'s [Commit<T>],
    /// The bound, at every trace index, on the inputs a history reaching
    /// that index may consume (`elems(inputs(t, i))` for `lin`, `vi` for
    /// `slin`).
    bounds: &'s Bounds<T::Input>,
    /// Every input a move can consume — the commits' inputs and the pool
    /// bounding the extras — with its pool multiplicity: positions are the
    /// dense **class ids** of the feasibility prune and of every count
    /// table the engine reads or hands out. Extras are offered in input
    /// order (`CheckerEngine::spare`).
    classes: Classes<T::Input>,
    /// Per commit `c`: the class of its input, and
    /// `bounds.count(c.index, c.input)` — how many occurrences of its own
    /// input a history committing it may hold. A shard records both when
    /// the commit arrives, and its engines borrow them.
    commit_classes: Cow<'s, [(usize, usize)]>,
}

/// What distinguishes one use of the kernel from another (see the module
/// docs): what rides along in the memo key, what an interleaved extra
/// records, whether the chain is kept, and what a leaf means.
pub(crate) trait Visitor<T: Adt> {
    /// Extra memo-key component, threaded down the search beside `(state,
    /// used)`.
    ///
    /// # Soundness
    ///
    /// The kernel memoises dead ends — subtrees explored to the end without
    /// the visitor stopping — on `(remaining, state, used, tag)`, not on
    /// the ordered history. Anything [`Visitor::leaf`] distinguishes that
    /// `(state, used)` does not determine must therefore be in the tag, or
    /// the memo conflates configurations with different futures. The
    /// enumeration visitor's symbolic completions are the case in point:
    /// two paths placing extras the ADT answered differently reach the same
    /// `(state, used)` yet absorb different future responses, so its tag is
    /// the completion multiset. A visitor whose leaves depend on the key
    /// alone (see [`crate::model::LeafFn`]) uses `()`.
    type Tag: Clone + Eq + Hash;

    /// The tag below an interleaved extra `input`, to which the ADT
    /// answered `output`.
    fn extra(&mut self, tag: &Self::Tag, input: &T::Input, output: T::Output) -> Self::Tag;

    /// The response at trace index `index` was committed; the chain's new
    /// longest history is the path's first `len` inputs.
    fn commit(&mut self, _index: usize, _len: usize) {}

    /// The latest commit was backtracked over. Not called once the search
    /// has stopped: the commits on the stopping path stay.
    fn uncommit(&mut self) {}

    /// Every commit is placed. `Break` stops the whole search; `Continue`
    /// backtracks for the next leaf. `used` hands out the consumed-input
    /// count table only if asked ([`LeafUsed::get`]).
    fn leaf(
        &mut self,
        hist: &[T::Input],
        state: T::State,
        used: LeafUsed<'_>,
        tag: Self::Tag,
    ) -> ControlFlow<()>;
}

/// The consumed-input count table at a leaf, not yet handed out. Inside a
/// search `used` is one integer per class ([`ClassCount::used`]); a table
/// is made only where one leaves the kernel.
pub(crate) struct LeafUsed<'a> {
    last: &'a mut Used,
    counts: &'a [ClassCount],
}

impl LeafUsed<'_> {
    /// `seed.used ⊎ elems(hist[seed.history.len()..])` as a table: the one
    /// handed out last (the seed's, before the first leaf) when the
    /// counters have not moved — the leaves of one enumeration differ
    /// mostly in order, not in what they consumed, and the configurations a
    /// shard retains share these tables (its memory proxy counts them) —
    /// else that table overwritten in place if nothing else holds it, else
    /// a new one.
    pub(crate) fn get(self) -> Used {
        let counts = self.counts.iter().map(|c| c.used);
        // A table never counts a class its engine lacks: it reads these
        // counts iff it agrees on every class of the engine.
        debug_assert!(self.last.len() <= counts.len());
        if !(counts.clone().enumerate()).all(|(class, n)| self.last.count(class) == n) {
            match self.last.0.as_mut().and_then(Arc::get_mut) {
                Some(slots) if slots.len() >= HEAD + counts.len() => {
                    slots[HEAD..].fill(0);
                    (slots[HEAD..].iter_mut().zip(counts.clone())).for_each(|(n, used)| *n = used);
                    slots[LEN] = counts.len();
                    slots[HASH] = hash_of_counts(counts);
                }
                _ => *self.last = Used::of(counts),
            }
        }
        self.last.clone()
    }
}

/// The stop-at-first visitor behind [`CheckerEngine::first_solution`]: keeps
/// the path's cuts, lets the leaf oracle accept or veto each leaf, and
/// copies the longest history once, at the leaf it accepts.
struct FirstSolution<'l, I, W> {
    leaf: &'l dyn Fn(&[I]) -> Option<W>,
    /// Length of the seed history — the longest history of an empty chain.
    seed_len: usize,
    cuts: Vec<(usize, usize)>,
    found: Option<(Chain<I>, W)>,
}

impl<T: Adt, W> Visitor<T> for FirstSolution<'_, T::Input, W> {
    type Tag = ();

    fn extra(&mut self, _: &(), _: &T::Input, _: T::Output) {}

    fn commit(&mut self, index: usize, len: usize) {
        self.cuts.push((index, len));
    }

    fn uncommit(&mut self) {
        self.cuts.pop();
    }

    fn leaf(&mut self, hist: &[T::Input], _: T::State, _: LeafUsed<'_>, (): ()) -> ControlFlow<()> {
        // A commit's history extends the seed: `len` is past it, or 0.
        let len = self.cuts.last().map_or(0, |c| c.1);
        match (self.leaf)(&hist[..len.max(self.seed_len)]) {
            Some(w) => {
                let chain = Chain::new(hist[..len].to_vec(), std::mem::take(&mut self.cuts));
                self.found = Some((chain, w));
                ControlFlow::Break(())
            }
            None => ControlFlow::Continue(()),
        }
    }
}

impl<'s, T: Adt> CheckerEngine<'s, T>
where
    T::Input: Ord,
{
    /// Creates an engine over the given commits and validity bounds, with a
    /// class table of its own. Any commit count is accepted
    /// ([`CommitMask`] has no ceiling). `pool` lists every input a history
    /// may consume with its multiplicity, each input once, in any order: a
    /// multiset's walk or a sorted slice.
    ///
    /// `commits` must ascend in trace index (debug builds assert it). The
    /// feasibility prune reads "the tightest bound among the remaining
    /// commits" off the earliest one, which is right because a count table
    /// is cumulative: its bounds only grow along the trace.
    pub(crate) fn new<'p>(
        adt: &'s T,
        commits: &'s [Commit<T>],
        bounds: &'s Bounds<T::Input>,
        pool: impl IntoIterator<Item = (&'p T::Input, usize)>,
    ) -> Self
    where
        T::Input: 'p,
    {
        debug_assert!(
            commits.windows(2).all(|w| w[0].index < w[1].index),
            "commits must ascend in trace index"
        );
        // Classes: pool inputs with their multiplicity, commit inputs the
        // pool lacks with none. Sorting puts the pool's entry first.
        let mut classes: Vec<(T::Input, usize)> = pool
            .into_iter()
            .map(|(e, n)| (e.clone(), n))
            .chain(commits.iter().map(|c| (c.input.clone(), 0)))
            .collect();
        classes.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        classes.dedup_by(|later, first| later.0 == first.0);
        let commit_classes = commits
            .iter()
            .map(|c| {
                let class = classes
                    .binary_search_by(|(e, _)| e.cmp(&c.input))
                    .expect("every commit input is a class");
                (class, bounds.count(c.index, &c.input))
            })
            .collect();
        CheckerEngine {
            adt,
            commits,
            bounds,
            classes: Classes::Built(classes),
            commit_classes: Cow::Owned(commit_classes),
        }
    }

    /// Creates an engine whose class table is the rows of `bounds` — a
    /// shard's, which has met every input its commits and seeds hold — so
    /// that nothing is built: `commit_classes` gives each commit's class
    /// and own bound (see [`CheckerEngine::new`] for the rest).
    pub(crate) fn on_rows(
        adt: &'s T,
        commits: &'s [Commit<T>],
        commit_classes: &'s [(usize, usize)],
        bounds: &'s Bounds<T::Input>,
    ) -> Self {
        debug_assert!(
            commits.len() == commit_classes.len()
                && commits.windows(2).all(|w| w[0].index < w[1].index)
                && (commits.iter().zip(commit_classes)).all(|(c, &(class, own))| {
                    bounds.class(&c.input) == Some(class) && bounds.count(c.index, &c.input) == own
                }),
            "commits ascend in trace index, each with its own class and bound"
        );
        CheckerEngine {
            adt,
            commits,
            bounds,
            classes: Classes::Rows,
            commit_classes: Cow::Borrowed(commit_classes),
        }
    }

    /// How many classes the engine's table has.
    fn classes(&self) -> usize {
        match &self.classes {
            Classes::Built(classes) => classes.len(),
            Classes::Rows => self.bounds.classes(),
        }
    }

    /// The input of class `e`.
    fn input(&self, e: usize) -> &T::Input {
        match &self.classes {
            Classes::Built(classes) => &classes[e].0,
            Classes::Rows => self.bounds.input(e),
        }
    }

    /// How many occurrences of class `e`'s input the pool holds.
    fn pool(&self, e: usize) -> usize {
        match &self.classes {
            Classes::Built(classes) => classes[e].1,
            Classes::Rows => self.bounds.pool_of(e),
        }
    }

    /// How many occurrences of class `e`'s input the bound at trace index
    /// `i` holds.
    fn bound(&self, i: usize, e: usize) -> usize {
        match &self.classes {
            Classes::Built(classes) => self.bounds.count(i, &classes[e].0),
            Classes::Rows => self.bounds.class_count(i, e),
        }
    }

    /// Fills `spare` with the classes whose pool has an occurrence `counts`
    /// has not consumed, ascending by input: the extras a run offers, in
    /// the order it offers them.
    fn spare(&self, counts: &[ClassCount], spare: &mut Vec<usize>) {
        spare.clear();
        let has_spare = |e: &usize| counts[*e].used < self.pool(*e);
        match &self.classes {
            Classes::Built(classes) => spare.extend((0..classes.len()).filter(has_spare)),
            Classes::Rows => spare.extend(self.bounds.by_input().filter(has_spare)),
        }
    }

    /// The seed `history` replayed from the initial state, its consumed
    /// inputs counted over this engine's classes — how the speculative
    /// checker plants the init-interpretation LCP. A seed consumes pool
    /// inputs only (debug builds assert it).
    pub(crate) fn seed(&self, history: Vec<T::Input>) -> SearchSeed<T> {
        let mut used = Used::of(std::iter::repeat_n(0, self.classes()));
        for e in &history {
            let class = match &self.classes {
                Classes::Built(classes) => classes.binary_search_by(|(c, _)| c.cmp(e)).ok(),
                Classes::Rows => self.bounds.class(e),
            };
            debug_assert!(class.is_some(), "a seed consumes pool inputs only");
            if let Some(class) = class {
                used.bump(class);
            }
        }
        SearchSeed {
            state: self.adt.run(&history),
            history,
            used,
        }
    }

    /// Runs the search from `seed`, placing the commits of `start` and
    /// expanding at most `max_nodes` nodes (see [`Search::run`]), and stops
    /// at the first solution. The `leaf`
    /// oracle is consulted with the chain's longest history (the seed's
    /// when nothing commits) whenever every commit has been placed;
    /// returning `None` vetoes the leaf and the search backtracks. It is
    /// subject to the soundness contract of [`crate::model::LeafFn`]. The
    /// outcome is `Some((chain, leaf_witness))`, or `None` when the search
    /// space is exhausted, or [`EngineError::BudgetExhausted`] when more
    /// than `max_nodes` nodes are expanded — with the
    /// counters beside it on every side of the verdict: a budget-exhausted
    /// search reports the work it did.
    pub(crate) fn first_solution<W>(
        &self,
        seed: SearchSeed<T>,
        start: CommitMask,
        leaf: &dyn Fn(&[T::Input]) -> Option<W>,
        max_nodes: usize,
    ) -> Found<T::Input, W> {
        let mut first = FirstSolution {
            leaf,
            seed_len: seed.history.len(),
            cuts: Vec::new(),
            found: None,
        };
        let (flow, stats) = Search::new(self).run(&seed, start, (), &mut first, max_nodes);
        (flow.map(|_| first.found), stats)
    }
}

/// The memo's hash function (module docs, "The memo"): a folded
/// 64×64→128-bit multiply per machine word, started from a seed drawn once
/// per process, lazily, from [`RandomState`]. Unit tests make
/// [`Hasher::finish`] constant.
pub(crate) struct KeyHasher(u64);

impl KeyHasher {
    const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

    pub(crate) fn new() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        KeyHasher(*SEED.get_or_init(|| RandomState::new().hash_one(0u8)))
    }

    fn word(&mut self, w: u64) {
        let wide = u128::from(self.0 ^ w) * u128::from(Self::MULTIPLIER);
        self.0 = (wide as u64) ^ ((wide >> 64) as u64);
    }

    /// The hash of `parts`, hashed in order.
    pub(crate) fn hash_of(parts: impl Hash) -> u64 {
        let mut h = KeyHasher::new();
        parts.hash(&mut h);
        h.finish()
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("chunks of eight")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            // The length keeps `[0]` and `[0, 0]` apart.
            self.word(u64::from_le_bytes(last) ^ ((rest.len() as u64) << 56));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.word(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.word(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.word(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.word(n as u64);
    }

    fn finish(&self) -> u64 {
        #[cfg(test)]
        if tests::CONSTANT_HASH.with(std::cell::Cell::get) {
            return 0;
        }
        self.0
    }
}

/// Hasher of a table keyed on a [`KeyHasher`] hash: the key is the hash.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write(&mut self, _: &[u8]) {
        unreachable!("keyed on u64 only");
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A hash index over entries its caller stores: ids are dense, in insertion
/// order, and chained per hash; the caller compares candidates **in full**
/// (a hash is a filter, never a proof — a false memo hit is a false
/// violation). The kernel's memo and the shard's configuration dedup are
/// both one of these beside a `Vec` of entries, probed by reference.
#[derive(Default)]
pub(crate) struct HashIndex {
    /// The latest id filed under each hash.
    heads: HashMap<u64, usize, BuildHasherDefault<PassThrough>>,
    /// Per id, the previous id under the same hash.
    older: Vec<Option<usize>>,
}

impl HashIndex {
    /// Whether `is_it` accepts an id filed under `hash`.
    pub(crate) fn contains(&self, hash: u64, mut is_it: impl FnMut(usize) -> bool) -> bool {
        let mut at = self.heads.get(&hash).copied();
        while let Some(id) = at {
            if is_it(id) {
                return true;
            }
            at = self.older[id];
        }
        false
    }

    /// Files the next id under `hash`.
    pub(crate) fn push(&mut self, hash: u64) {
        let id = self.older.len();
        self.older.push(self.heads.insert(hash, id));
    }

    pub(crate) fn len(&self) -> usize {
        self.older.len()
    }

    /// Empties the index, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        self.heads.clear();
        self.older.clear();
    }

    /// Cleared for the next search on this thread, or given back to the
    /// allocator if it outgrew [`SCRATCH_KEEP`].
    fn recycle(&mut self) {
        if self.heads.capacity() > SCRATCH_KEEP || self.older.capacity() > SCRATCH_KEEP {
            *self = HashIndex::default();
        }
        self.clear();
    }
}

/// The dead-end memo of one [`Search`], over all its runs: `(remaining
/// commits, ADT state, consumed inputs, visitor tag)` of every subtree
/// explored to the end without the visitor stopping (see [`Visitor::Tag`]
/// for the tag). A node hashes its key once, by reference, probes with it,
/// and — when it turns out dead — *moves* the parts it owns in under the
/// same hash; consumed inputs are the counters of every class of the
/// engine, snapshotted into one shared arena.
struct Memo<T: Adt, G> {
    index: HashIndex,
    entries: Vec<(CommitMask, T::State, G)>,
    /// Entry `i`'s counters at `[i * classes.len()..][..classes.len()]`.
    counts: Vec<usize>,
}

/// A child the feasibility prune admits, queued on [`SearchBuffers::moves`].
#[derive(Clone, Copy)]
enum Move {
    /// Commit the response at this position of the commit list.
    Commit(usize),
    /// Interleave one more occurrence of this class's input.
    Extra(usize),
}

/// One class's counters during a search.
#[derive(Clone)]
struct ClassCount {
    /// Occurrences consumed on the current path. Over the classes a move
    /// can add to this **is** the search's `used` (the seed's other inputs
    /// never change): what the prune tests, what the memo keys on, and what
    /// [`LeafUsed`] hands out as a count table.
    used: usize,
    /// Scratch of one node's walk over `remaining`, reset before the node
    /// recurses: remaining commits on the class seen so far, and the least
    /// `own bound − rank − used` among them — how many more occurrences the
    /// class can lose before one of those commits starves.
    rank: usize,
    slack: usize,
}

impl Default for ClassCount {
    fn default() -> Self {
        ClassCount {
            used: 0,
            rank: 0,
            slack: usize::MAX,
        }
    }
}

/// The kernel over one engine: [`Search::run`] is one search, and the
/// searches of one enumeration run through one `Search` so that they share
/// what does not depend on the seed — the floor table and the dead-end
/// memo (module docs, "The memo"): a run does not search again below a
/// node an earlier run buried. Every buffer it grows ([`SearchBuffers`])
/// is reused from run to run and outlives the `Search` on its thread's
/// free list, so the next search on the thread with the same ADT and
/// visitor tag — a shard's next enumeration, a batch check's next class
/// search, a window report's next seed — starts with their capacity,
/// whatever its engine. What it inherits is capacity, never contents: a
/// stop-at-first search ([`CheckerEngine::first_solution`]) builds one
/// `Search` per call, so a leaf oracle sees no other search's memo.
pub(crate) struct Search<'e, 's, T: Adt, G: 'static> {
    engine: &'e CheckerEngine<'s, T>,
    max_nodes: usize,
    stats: SearchStats,
    /// The count table the last leaf handed out ([`LeafUsed`]); the seed's
    /// at the start of a run.
    leaf_used: Used,
    buffers: Lease<T, G>,
}

/// Every buffer a [`Search`] grows. A set holds the ADT's and the visitor
/// tag's types, so its thread's free list files it by type: a `Search`
/// takes the set of its `(T, G)`, and gives it back, cleared but with its
/// capacity, when dropped ([`Lease`]).
struct SearchBuffers<T: Adt, G> {
    /// `bounds.count(commits[p].index, class e's input)` at
    /// `[p * classes.len() + e]`, looked up on first use (`usize::MAX`: not
    /// yet); grown to cover commit `p` when it first becomes the earliest
    /// remaining one.
    floor_counts: Vec<usize>,
    /// Per class (see [`CheckerEngine::classes`]).
    counts: Vec<ClassCount>,
    /// The classes that had a spare pool occurrence at the seed, ascending
    /// by input.
    spare: Vec<usize>,
    /// The admitted children of every node on the current path, innermost
    /// last (a stack: a node truncates back to its own start).
    moves: Vec<Move>,
    /// The current path's history, seed included.
    hist: Vec<T::Input>,
    memo: Memo<T, G>,
}

// Manual impl: the derive would demand `T: Default` and `G: Default`.
impl<T: Adt, G> Default for SearchBuffers<T, G> {
    fn default() -> Self {
        SearchBuffers {
            floor_counts: Vec::new(),
            counts: Vec::new(),
            spare: Vec::new(),
            moves: Vec::new(),
            hist: Vec::new(),
            memo: Memo {
                index: HashIndex::default(),
                entries: Vec::new(),
                counts: Vec::new(),
            },
        }
    }
}

impl<'e, 's, T: Adt, G: Clone + Eq + Hash + 'static> Search<'e, 's, T, G>
where
    T::Input: Ord,
{
    /// A search over `engine`, on the buffers of its type from this
    /// thread's free list.
    pub(crate) fn new(engine: &'e CheckerEngine<'s, T>) -> Self {
        Search {
            engine,
            max_nodes: 0,
            stats: SearchStats::default(),
            leaf_used: Used::default(),
            buffers: Lease::take(),
        }
    }

    /// The kernel's entry point: searches from `seed` (carrying `tag`)
    /// under `visitor`, expanding at most `max_nodes` nodes, for chains
    /// placing the commits of `start` — positions in the engine's commit
    /// list, ascending like it; a caller that places every commit passes
    /// [`CommitMask::full`]. The commits outside `start` play no part: no
    /// move, no bound, no memo counter reads them, so a run over a mask is
    /// the run over an engine built on the masked commits alone, and the
    /// runs of one enumeration whose seeds place different sub-lists (a
    /// seed's symbolic completions absorb some commits) share one engine.
    /// A run skips every node an earlier run of this `Search` buried, so
    /// its `nodes` are at most those of the same run on a fresh `Search`,
    /// and its `memo_entries` count the entries it added. Returns whether
    /// the visitor stopped the search (`Break`) or the space below the
    /// seed was exhausted (`Continue`) — or the budget error — and the
    /// counters either way.
    pub(crate) fn run<V: Visitor<T, Tag = G>>(
        &mut self,
        seed: &SearchSeed<T>,
        start: CommitMask,
        tag: G,
        visitor: &mut V,
        max_nodes: usize,
    ) -> (Result<ControlFlow<()>, EngineError>, SearchStats) {
        let eng = self.engine;
        self.max_nodes = max_nodes;
        self.stats = SearchStats {
            interpretations: 1,
            ..SearchStats::default()
        };
        debug_assert!(
            seed.used.len() <= eng.classes(),
            "a seed's table counts the engine's classes"
        );
        let buffers = &mut *self.buffers;
        buffers.counts.clear();
        let seed_counts = seed.used.iter().map(|&used| ClassCount {
            used,
            ..ClassCount::default()
        });
        buffers.counts.extend(seed_counts);
        buffers.counts.resize(eng.classes(), ClassCount::default());
        // Consumption only grows: a class with no spare pool occurrence at
        // the seed never offers an extra.
        eng.spare(&buffers.counts, &mut buffers.spare);
        buffers.moves.clear();
        let buried = buffers.memo.index.len();
        if !self.seed_feasible(&start) {
            self.stats.pruned = 1;
            return (Ok(ControlFlow::Continue(())), self.stats);
        }
        self.buffers.hist.clear();
        self.buffers.hist.extend_from_slice(&seed.history);
        self.leaf_used = seed.used.clone();
        let flow = self.dfs(visitor, seed.state.clone(), tag, start);
        self.stats.memo_entries = self.buffers.memo.index.len() - buried;
        (flow, self.stats)
    }

    /// The feasibility conditions at the seed, which every admitted child
    /// then preserves (module docs, "Feasibility prune"): the consumed
    /// inputs fit the tightest bound among the commits of `start` — read
    /// through the floor table — and no class is already too consumed for
    /// those commits' own bounds.
    fn seed_feasible(&mut self, start: &CommitMask) -> bool {
        let eng = self.engine;
        let Some(first) = start.iter().next() else {
            return true;
        };
        let mut feasible = true;
        for e in 0..self.buffers.counts.len() {
            let used = self.buffers.counts[e].used;
            feasible &= used == 0 || used <= self.floor_count(first, e);
        }
        for k in start.iter() {
            let (e, own_bound) = eng.commit_classes[k];
            let class = &mut self.buffers.counts[e];
            class.rank += 1;
            feasible &= class.used + class.rank <= own_bound;
        }
        for k in start.iter() {
            self.buffers.counts[eng.commit_classes[k].0].rank = 0;
        }
        feasible
    }

    /// How many occurrences of class `e` the bound of commit `floor` holds,
    /// looked up once per search.
    fn floor_count(&mut self, floor: usize, e: usize) -> usize {
        let eng = self.engine;
        let stride = self.buffers.counts.len();
        let at = floor * stride + e;
        if self.buffers.floor_counts.len() <= at {
            self.buffers
                .floor_counts
                .resize((floor + 1) * stride, usize::MAX);
        }
        if self.buffers.floor_counts[at] == usize::MAX {
            self.buffers.floor_counts[at] = eng.bound(eng.commits[floor].index, e);
        }
        self.buffers.floor_counts[at]
    }

    /// Whether one more occurrence of class `e` still fits the bound of
    /// commit `floor`, the earliest remaining one (the tightest, by
    /// monotonicity).
    fn fits_floor(&mut self, floor: usize, e: usize) -> bool {
        self.buffers.counts[e].used < self.floor_count(floor, e)
    }

    /// Queues the children of the current node that pass the feasibility
    /// prune: commit moves in trace order, then extras in input order. One
    /// walk over the set bits of `remaining`.
    fn admit_moves(&mut self, remaining: &CommitMask) {
        let eng = self.engine;
        let floor = remaining
            .iter()
            .next()
            .expect("a node has a remaining commit");
        for k in remaining.iter() {
            let (e, own_bound) = eng.commit_classes[k];
            // Committing `k` takes an occurrence from under the earlier
            // remaining commits on its input, and from under the floor.
            if self.buffers.counts[e].slack > 0 && (k == floor || self.fits_floor(floor, e)) {
                self.buffers.moves.push(Move::Commit(k));
            } else {
                self.stats.pruned += 1;
            }
            let class = &mut self.buffers.counts[e];
            class.rank += 1;
            class.slack = class
                .slack
                .min(own_bound.saturating_sub(class.rank + class.used));
        }
        for at in 0..self.buffers.spare.len() {
            let e = self.buffers.spare[at];
            if self.buffers.counts[e].used >= eng.pool(e) {
                continue;
            }
            // An extra takes an occurrence from under every remaining
            // commit on its input, and from under the floor.
            if self.buffers.counts[e].slack > 0 && self.fits_floor(floor, e) {
                self.buffers.moves.push(Move::Extra(e));
            } else {
                self.stats.pruned += 1;
            }
        }
        for k in remaining.iter() {
            let class = &mut self.buffers.counts[eng.commit_classes[k].0];
            class.rank = 0;
            class.slack = usize::MAX;
        }
    }

    /// The current path's consumed inputs, as the memo keys them: one
    /// count per class.
    fn used_counts(&self) -> impl Iterator<Item = usize> + '_ {
        self.buffers.counts.iter().map(|c| c.used)
    }

    /// Counts a node against the budget and probes the memo with its key,
    /// by reference: `None` on a known dead end, else the key's hash for
    /// [`Search::bury`]. A probe compares at most the memo's entries (≤ the
    /// nodes expanded, ≤ the budget), however the hashes fall.
    fn enter(
        &mut self,
        remaining: &CommitMask,
        state: &T::State,
        tag: &G,
    ) -> Result<Option<u64>, EngineError> {
        self.stats.nodes += 1;
        if self.stats.nodes > self.max_nodes {
            return Err(EngineError::BudgetExhausted {
                nodes: self.stats.nodes,
            });
        }
        let mut hasher = KeyHasher::new();
        (remaining, state, tag).hash(&mut hasher);
        self.used_counts().for_each(|n| hasher.write_usize(n));
        let hash = hasher.finish();
        let memo = &self.buffers.memo;
        let stride = self.buffers.counts.len();
        let is_it = |i: usize| {
            let (remaining_i, state_i, tag_i) = &memo.entries[i];
            remaining_i == remaining
                && state_i == state
                && tag_i == tag
                && self
                    .used_counts()
                    .eq(memo.counts[i * stride..][..stride].iter().copied())
        };
        if memo.index.contains(hash, is_it) {
            self.stats.memo_hits += 1;
            return Ok(None);
        }
        Ok(Some(hash))
    }

    /// Records a node explored to the end without the visitor stopping.
    /// The node owns its key: the parts move in, under the hash
    /// [`Search::enter`] probed with.
    fn bury(&mut self, hash: u64, remaining: CommitMask, state: T::State, tag: G) {
        let SearchBuffers { counts, memo, .. } = &mut *self.buffers;
        memo.index.push(hash);
        memo.counts.extend(counts.iter().map(|c| c.used));
        memo.entries.push((remaining, state, tag));
    }

    /// Takes the move queued at `at` from the node `(state, tag,
    /// remaining)`: the child's own three, or `None` when the ADT does not
    /// explain the committed output.
    fn descend<V: Visitor<T, Tag = G>>(
        &mut self,
        visitor: &mut V,
        at: usize,
        state: &T::State,
        tag: &G,
        remaining: &CommitMask,
    ) -> Option<(T::State, G, CommitMask)> {
        let eng = self.engine;
        match self.buffers.moves[at] {
            // Move 1: commit one of the remaining responses next on the
            // chain. The prune already vouches for its validity bound.
            Move::Commit(k) => {
                let c = &eng.commits[k];
                let (state2, out) = eng.adt.apply(state, &c.input);
                if out != c.output {
                    return None;
                }
                self.buffers.counts[eng.commit_classes[k].0].used += 1;
                self.buffers.hist.push(c.input.clone());
                visitor.commit(c.index, self.buffers.hist.len());
                Some((state2, tag.clone(), remaining.without(k)))
            }
            // Move 2: interleave an extra input from the pool.
            Move::Extra(e) => {
                let input = eng.input(e);
                let (state2, out) = eng.adt.apply(state, input);
                let tag2 = visitor.extra(tag, input, out);
                self.buffers.counts[e].used += 1;
                self.buffers.hist.push(input.clone());
                Some((state2, tag2, remaining.clone()))
            }
        }
    }

    /// Backtracks over the move queued at `at`, undoing
    /// [`Search::descend`].
    fn ascend<V: Visitor<T, Tag = G>>(&mut self, visitor: &mut V, at: usize) {
        let e = match self.buffers.moves[at] {
            Move::Commit(k) => {
                visitor.uncommit();
                self.engine.commit_classes[k].0
            }
            Move::Extra(e) => e,
        };
        self.buffers.hist.pop();
        self.buffers.counts[e].used -= 1;
    }

    /// Every commit is placed: hands the visitor the leaf.
    fn leaf<V: Visitor<T, Tag = G>>(
        &mut self,
        visitor: &mut V,
        state: T::State,
        tag: G,
    ) -> ControlFlow<()> {
        self.stats.leaf_checks += 1;
        let used = LeafUsed {
            last: &mut self.leaf_used,
            counts: &self.buffers.counts,
        };
        visitor.leaf(&self.buffers.hist, state, used, tag)
    }

    /// The one recursion. Everything that does not recurse lives in the
    /// helpers above, so a level of depth costs a small frame.
    fn dfs<V: Visitor<T, Tag = G>>(
        &mut self,
        visitor: &mut V,
        state: T::State,
        tag: G,
        remaining: CommitMask,
    ) -> Result<ControlFlow<()>, EngineError> {
        if remaining.is_empty() {
            return Ok(self.leaf(visitor, state, tag));
        }
        let Some(hash) = self.enter(&remaining, &state, &tag)? else {
            return Ok(ControlFlow::Continue(()));
        };
        // The moves are queued up front — commits, then extras in sorted
        // input order — so the search order, and with it every witness and
        // statistic, is a pure function of the inputs, not of hash-map
        // iteration order (the parallel/sequential parity of the
        // speculative checker depends on this).
        let start = self.buffers.moves.len();
        self.admit_moves(&remaining);
        for at in start..self.buffers.moves.len() {
            let Some((state2, tag2, remaining2)) =
                self.descend(visitor, at, &state, &tag, &remaining)
            else {
                continue;
            };
            let below = self.dfs(visitor, state2, tag2, remaining2)?;
            if below.is_break() {
                return Ok(below);
            }
            self.ascend(visitor, at);
        }
        self.buffers.moves.truncate(start);
        self.bury(hash, remaining, state, tag);
        Ok(ControlFlow::Continue(()))
    }
}

/// The most elements a buffer may keep for the next search on its thread:
/// a memo holding one entry per node of a tail extension's whole budget
/// (`EXTENSION_BUDGET` in `stream/shard.rs`). Every buffer a shard's
/// searches grow stays below it; a search that outgrows it — a batch check
/// of hundreds of commits — gives that buffer back to the allocator, where
/// its cost is small beside its nodes.
const SCRATCH_KEEP: usize = 4096;

thread_local! {
    /// This thread's free [`SearchBuffers`] sets, boxed, of any types. A
    /// set is made only when the list has none of its type, so the list
    /// never holds more sets of one type than the thread had searches of
    /// that type alive at once (one, unless a leaf or visitor searches
    /// too); and a buffer is freed on the thread that allocated it.
    static FREE_BUFFERS: RefCell<Vec<Box<dyn Any>>> = const { RefCell::new(Vec::new()) };
}

/// A [`Search`]'s buffers, taken from its thread's free list — the box
/// and all, so a take allocates nothing — and given back when dropped.
/// `None` only while it is dropped.
struct Lease<T: Adt, G: 'static>(Option<Box<SearchBuffers<T, G>>>);

impl<T: Adt, G: 'static> Lease<T, G> {
    /// The set of type `SearchBuffers<T, G>` from this thread's free list,
    /// or a new one.
    fn take() -> Self {
        let free = FREE_BUFFERS.with(|free| {
            let mut free = free.borrow_mut();
            let at = free
                .iter()
                .position(|set| set.is::<SearchBuffers<T, G>>())?;
            free.swap_remove(at).downcast().ok()
        });
        Lease(Some(free.unwrap_or_default()))
    }
}

impl<T: Adt, G: 'static> Deref for Lease<T, G> {
    type Target = SearchBuffers<T, G>;

    fn deref(&self) -> &Self::Target {
        self.0.as_deref().expect("leased until dropped")
    }
}

impl<T: Adt, G: 'static> DerefMut for Lease<T, G> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.0.as_deref_mut().expect("leased until dropped")
    }
}

impl<T: Adt, G: 'static> Drop for Lease<T, G> {
    /// Clears every buffer, drops those above [`SCRATCH_KEEP`], and puts
    /// the set on this thread's free list (unless the thread is exiting).
    /// The memo's contents are one `Search`'s alone.
    fn drop(&mut self) {
        let Some(mut set) = self.0.take() else {
            return;
        };
        recycle(&mut set.floor_counts);
        recycle(&mut set.counts);
        recycle(&mut set.spare);
        recycle(&mut set.moves);
        recycle(&mut set.hist);
        recycle(&mut set.memo.entries);
        recycle(&mut set.memo.counts);
        set.memo.index.recycle();
        let _ = FREE_BUFFERS.try_with(|free| free.borrow_mut().push(set));
    }
}

/// `buffer`, cleared for the next search on this thread, or given back to
/// the allocator if it outgrew [`SCRATCH_KEEP`].
fn recycle<E>(buffer: &mut Vec<E>) {
    if buffer.capacity() > SCRATCH_KEEP {
        *buffer = Vec::new();
    }
    buffer.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{
        phase_trace_bounds, random_hostile_kv_trace, random_multikey_kv_trace,
        random_phase_kv_trace, HostileConfig, MultiKeyConfig, PhaseConfig,
    };
    use crate::initrel::ExactInit;
    use crate::lin::LinChecker;
    use crate::ops;
    use crate::session::{Checker, Strategy};
    use crate::slin::SlinChecker;
    use crate::ObjAction;
    use slin_adt::{ConsInput, ConsOutput, Consensus, KvInput, KvOutput, KvStore};
    use slin_trace::{Action, ClientId, PersistentMultiset, PhaseId, Trace};
    use std::cell::Cell;

    thread_local! {
        /// Makes [`KeyHasher::finish`] return 0 on this thread: every key
        /// of every table lands on one chain.
        pub(super) static CONSTANT_HASH: Cell<bool> = const { Cell::new(false) };
    }

    /// `run`, once under the seeded hash and once under the constant one.
    fn under_both_hashes<R>(run: impl Fn() -> R) -> (R, R) {
        let seeded = run();
        CONSTANT_HASH.with(|c| c.set(true));
        let constant = run();
        CONSTANT_HASH.with(|c| c.set(false));
        (seeded, constant)
    }

    type CA = ObjAction<Consensus, ()>;

    fn sample() -> Trace<CA> {
        Trace::from_actions(vec![
            Action::invoke(ClientId::new(1), PhaseId::FIRST, ConsInput::propose(1)),
            Action::invoke(ClientId::new(2), PhaseId::FIRST, ConsInput::propose(2)),
            Action::respond(
                ClientId::new(2),
                PhaseId::FIRST,
                ConsInput::propose(2),
                ConsOutput::decide(2),
            ),
            Action::respond(
                ClientId::new(1),
                PhaseId::FIRST,
                ConsInput::propose(1),
                ConsOutput::decide(2),
            ),
        ])
    }

    #[test]
    fn engine_finds_the_chain_and_reports_stats() {
        let t = sample();
        let commits = ops::commits::<Consensus, ()>(&t);
        let bounds = ops::input_bounds::<Consensus, ()>(&t);
        let engine = CheckerEngine::new(&Consensus, &commits, &bounds, bounds.pool());
        let (found, stats) = engine.first_solution(
            engine.seed(Vec::new()),
            CommitMask::full(commits.len()),
            &|_| Some(()),
            DEFAULT_MAX_NODES,
        );
        let (chain, ()) = found.unwrap().expect("linearizable");
        assert_eq!(chain.cuts().len(), 2);
        assert!(stats.nodes > 0);
        assert_eq!(stats.interpretations, 1);
        assert!(stats.leaf_checks >= 1);
    }

    #[test]
    fn leaf_veto_forces_exhaustion() {
        let t = sample();
        let commits = ops::commits::<Consensus, ()>(&t);
        let bounds = ops::input_bounds::<Consensus, ()>(&t);
        let engine = CheckerEngine::new(&Consensus, &commits, &bounds, bounds.pool());
        let (found, stats) = engine.first_solution(
            engine.seed(Vec::new()),
            CommitMask::full(commits.len()),
            &|_| None::<()>,
            DEFAULT_MAX_NODES,
        );
        assert!(found.unwrap().is_none());
        assert!(stats.leaf_checks >= 1, "leaves were reached and vetoed");
    }

    #[test]
    fn budget_exhaustion_carries_the_node_count() {
        let t = sample();
        let commits = ops::commits::<Consensus, ()>(&t);
        let bounds = ops::input_bounds::<Consensus, ()>(&t);
        let engine = CheckerEngine::new(&Consensus, &commits, &bounds, bounds.pool());
        let (found, stats) = engine.first_solution(
            engine.seed(Vec::new()),
            CommitMask::full(commits.len()),
            &|_| Some(()),
            1,
        );
        assert_eq!(found, Err(EngineError::BudgetExhausted { nodes: 2 }));
        assert_eq!(stats.nodes, 2, "the tripped search reports its work");
    }

    #[test]
    fn commit_mask_small_and_large_agree() {
        for n in [0usize, 1, 7, 63, 64, 65, 130, 200] {
            let full = CommitMask::full(n);
            assert_eq!(full.count(), n, "n={n}");
            assert_eq!(full.is_empty(), n == 0, "n={n}");
            for k in 0..n {
                assert!(full.contains(k), "n={n} k={k}");
                let cleared = full.without(k);
                assert!(!cleared.contains(k), "n={n} k={k}");
                assert_eq!(cleared.count(), n - 1, "n={n} k={k}");
                assert!((0..n).filter(|&j| j != k).all(|j| cleared.contains(j)));
            }
            assert!(!full.contains(n), "one past the end is clear");
        }
        assert!(matches!(CommitMask::full(64), CommitMask::Small(u64::MAX)));
        assert!(matches!(CommitMask::full(65), CommitMask::Large(_)));
    }

    #[test]
    fn commit_mask_iterates_its_set_bits_in_order() {
        for n in [0usize, 1, 64, 65, 130] {
            let all: Vec<usize> = CommitMask::full(n).iter().collect();
            assert_eq!(all, (0..n).collect::<Vec<_>>(), "n={n}");
        }
        let sparse = CommitMask::full(130).without(0).without(64).without(129);
        let expect: Vec<usize> = (0..130).filter(|k| ![0, 64, 129].contains(k)).collect();
        assert_eq!(sparse.iter().collect::<Vec<_>>(), expect);
    }

    type KA = ObjAction<KvStore, ()>;

    /// A plain-linearizability search over `actions`; `veto` rejects every
    /// leaf, forcing the search to visit its whole tree.
    fn kv_lin_search(actions: Vec<KA>, veto: bool) -> (Option<(Chain<KvInput>, ())>, SearchStats) {
        let t: Trace<KA> = Trace::from_actions(actions);
        let commits = ops::commits::<KvStore, ()>(&t);
        let bounds = ops::input_bounds::<KvStore, ()>(&t);
        let engine = CheckerEngine::new(&KvStore, &commits, &bounds, bounds.pool());
        let (found, stats) = engine.first_solution(
            engine.seed(Vec::new()),
            CommitMask::full(commits.len()),
            &|_| (!veto).then_some(()),
            DEFAULT_MAX_NODES,
        );
        (found.unwrap(), stats)
    }

    fn client(n: u32) -> ClientId {
        ClientId::new(n)
    }

    #[test]
    fn a_late_get_that_would_starve_an_early_one_is_cut_at_depth_one() {
        // Two `get`s answered `∅`: the first responds when one `get` has
        // been invoked, the second after a never-answered `put` that feeds
        // the extras. Committing the late `get` first consumes the only
        // occurrence the early one may use. The bound-only search took
        // that move at the root — `{get}` fits both bounds — and learnt it
        // was dead one extra at a time: 14 nodes to exhaust this tree.
        let (get, none) = (KvInput::Get(0), KvOutput::Found(None));
        let (found, stats) = kv_lin_search(
            vec![
                Action::invoke(client(1), PhaseId::FIRST, get),
                Action::respond(client(1), PhaseId::FIRST, get, none),
                Action::invoke(client(2), PhaseId::FIRST, get),
                Action::invoke(client(3), PhaseId::FIRST, KvInput::Put(0, 1)),
                Action::respond(client(2), PhaseId::FIRST, get, none),
            ],
            true,
        );
        assert!(found.is_none());
        // The one leaf (early, then late) is still reached. Besides it:
        // the root, where the late commit and both extras are cut (`put`
        // is not yet invoked at the floor); the node under the early
        // commit, where the `get` extra would starve the late one; and the
        // node under its `put` extra, where `get` reads 1.
        assert_eq!(stats.leaf_checks, 1);
        assert_eq!((stats.nodes, stats.pruned), (3, 5));
    }

    #[test]
    fn a_never_answered_put_is_still_interleaved_for_the_get_that_reads_it() {
        // The prune must not remove extras a later commit needs: the `put`
        // never responds, so only an extra can explain `get = 7`.
        let (put, get) = (KvInput::Put(0, 7), KvInput::Get(0));
        let (found, _) = kv_lin_search(
            vec![
                Action::invoke(client(1), PhaseId::FIRST, put),
                Action::invoke(client(2), PhaseId::FIRST, get),
                Action::respond(client(2), PhaseId::FIRST, get, KvOutput::Found(Some(7))),
            ],
            false,
        );
        let (chain, ()) = found.expect("the pending put explains the read");
        assert_eq!(chain, Chain::new(vec![put, get], vec![(2, 2)]));
    }

    /// A chain renders and compares as the `(trace index, commit history)`
    /// list it stands for — what the `kernel_pins` witness digests hash —
    /// on random chains: empty ones over a non-empty history, ones that
    /// extend a non-empty seed, and ones of more than 64 commits.
    #[test]
    fn a_chain_renders_and_compares_as_its_list() {
        use proptest::prelude::*;
        // A history, a seed length, and per commit its trace index and how
        // far past the previous cut (the seed, at first) it ends. Small
        // alphabets make equal lists common.
        let params = (
            prop::collection::vec(0..2u8, 0..160),
            0..3usize,
            prop::collection::vec((0..2usize, 1..3usize), 0..90),
        );
        let (mut empty, mut seeded, mut long, mut equal) = (0, 0, 0, 0);
        TestRunner::new(ProptestConfig::with_cases(1000)).run_cases(
            "a_chain_renders_and_compares_as_its_list",
            |rng| {
                let pair = [params.new_value(rng), params.new_value(rng)].map(
                    |(history, seed, steps): (Vec<u8>, usize, Vec<(usize, usize)>)| {
                        let (mut cuts, mut list) = (Vec::new(), Vec::new());
                        let (mut len, stored) = (seed, history.len());
                        for (index, step) in steps {
                            len += step;
                            if len > history.len() {
                                break;
                            }
                            cuts.push((index, len));
                            list.push((index, history[..len].to_vec()));
                        }
                        (Chain::new(history, cuts), list, seed, stored)
                    },
                );
                for (chain, list, seed, stored) in &pair {
                    prop_assert_eq!(format!("{chain:?}"), format!("{list:?}"));
                    prop_assert_eq!(format!("{chain:#?}"), format!("{list:#?}"));
                    prop_assert_eq!(chain.cuts().len(), list.len());
                    empty += (list.is_empty() && *stored > 0) as usize;
                    seeded += (*seed > 0 && !list.is_empty()) as usize;
                    long += (list.len() > 64) as usize;
                }
                let ((a, list_a, ..), (b, list_b, ..)) = (&pair[0], &pair[1]);
                prop_assert_eq!(a == b, list_a == list_b);
                equal += (list_a == list_b) as usize;
                Ok(())
            },
        );
        assert!(
            empty > 0 && seeded > 0 && long > 0 && equal > 0,
            "{empty} empty, {seeded} seeded, {long} long, {equal} equal"
        );
    }

    #[test]
    fn more_than_64_commits_are_searched_not_refused() {
        // 70 sequential propose(1)/decide(1) pairs: the former 64-commit
        // ceiling would have refused this trace up front.
        let mut actions = Vec::new();
        for k in 0..70u32 {
            let c = ClientId::new(k + 1);
            actions.push(Action::invoke(c, PhaseId::FIRST, ConsInput::propose(1)));
            actions.push(Action::respond(
                c,
                PhaseId::FIRST,
                ConsInput::propose(1),
                ConsOutput::decide(1),
            ));
        }
        let t: Trace<CA> = Trace::from_actions(actions);
        let commits = ops::commits::<Consensus, ()>(&t);
        let bounds = ops::input_bounds::<Consensus, ()>(&t);
        let engine = CheckerEngine::new(&Consensus, &commits, &bounds, bounds.pool());
        let (found, _) = engine.first_solution(
            engine.seed(Vec::new()),
            CommitMask::full(commits.len()),
            &|_| Some(()),
            DEFAULT_MAX_NODES,
        );
        let (chain, ()) = found.unwrap().expect("70 chained decisions linearize");
        assert_eq!(chain.cuts().len(), 70);
        assert_eq!(chain.history().len(), 70);
    }

    #[test]
    fn two_thousand_commits_deep_fits_a_2_mb_debug_stack() {
        // One level of recursion per placed commit and no explicit stack:
        // what bounds the depth is the size of `dfs`' frame, which is why
        // everything that does not recurse lives in helpers. A single-key
        // clean trace goes straight down. (Measured in a debug build: 3 179
        // commits fit 2 MB — the default of a spawned thread, and of the
        // test harness'.)
        let t = hotkey_trace(6_600, 5);
        let commits = ops::commits::<KvStore, ()>(&t).len();
        assert!(commits > 2_000, "{commits} commits");
        let deep = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || LinChecker::owned(KvStore).check(&t))
            .expect("spawns");
        let witness = deep.join().expect("no overflow").expect("linearizable");
        assert_eq!(witness.assignments().cuts().len(), commits);
    }

    #[test]
    fn seeded_search_extends_the_seed_history() {
        // Seed with [p(2)]; the only commit must extend it.
        let t: Trace<CA> = Trace::from_actions(vec![
            Action::invoke(ClientId::new(1), PhaseId::FIRST, ConsInput::propose(1)),
            Action::respond(
                ClientId::new(1),
                PhaseId::FIRST,
                ConsInput::propose(1),
                ConsOutput::decide(2),
            ),
        ]);
        let commits = ops::commits::<Consensus, ()>(&t);
        // Allow the seeded occurrence of p(2) plus the trace's own inputs.
        let mut bounds = ops::input_bounds::<Consensus, ()>(&t);
        bounds.add(0, &ConsInput::propose(2));
        let engine = CheckerEngine::new(&Consensus, &commits, &bounds, bounds.pool());
        let seed = engine.seed(vec![ConsInput::propose(2)]);
        let (found, _) = engine.first_solution(
            seed,
            CommitMask::full(commits.len()),
            &|_| Some(()),
            DEFAULT_MAX_NODES,
        );
        let (chain, ()) = found.unwrap().expect("explained by the seeded history");
        assert_eq!(
            chain.iter().next().expect("one commit").1,
            [ConsInput::propose(2), ConsInput::propose(1)]
        );
    }

    fn hotkey_trace(steps: usize, seed: u64) -> Trace<KA> {
        random_multikey_kv_trace(&MultiKeyConfig {
            clients: 3,
            steps,
            keys: 1,
            skew: 0.0,
            contention: 0.0,
            error_prob: 0.0,
            seed,
        })
    }

    fn straggler_trace(steps: usize, seed: u64) -> Trace<KA> {
        random_hostile_kv_trace(&HostileConfig {
            clients: 3,
            steps,
            keys: 1,
            skew: 0.7,
            never_frac: 0.05,
            stuck_applies: true,
            delay_zipf: 1.3,
            max_delay: 12,
            error_prob: 0.0,
            seed,
        })
    }

    /// A phase trace's in-phase events as a plain single-phase trace: the
    /// multi-key concurrent schedule, without the switch actions.
    fn phase_events(seed: u64, error_prob: f64) -> Trace<KA> {
        let t = random_phase_kv_trace(&PhaseConfig {
            clients: 3,
            steps: 20,
            keys: 2,
            error_prob,
            seed,
            ..Default::default()
        });
        Trace::from_actions(
            t.iter()
                .filter_map(|a| match a {
                    Action::Invoke { client, input, .. } => {
                        Some(Action::invoke(*client, PhaseId::FIRST, *input))
                    }
                    Action::Respond {
                        client,
                        input,
                        output,
                        ..
                    } => Some(Action::respond(*client, PhaseId::FIRST, *input, *output)),
                    Action::Switch { .. } => None,
                })
                .collect(),
        )
    }

    type Pairs = PersistentMultiset<(KvInput, KvOutput)>;
    type Leaf = (Vec<KvInput>, <KvStore as Adt>::State, Used, Pairs);

    /// Enumerates every leaf; like the shard's collector in epoch-cut mode,
    /// its tag is the multiset of interleaved extras with their outputs.
    #[derive(Default)]
    struct AllLeaves(Vec<Leaf>);

    impl Visitor<KvStore> for AllLeaves {
        type Tag = Pairs;

        fn extra(&mut self, tag: &Pairs, input: &KvInput, output: KvOutput) -> Pairs {
            let mut tag = tag.clone();
            tag.insert((*input, output));
            tag
        }

        fn leaf(
            &mut self,
            hist: &[KvInput],
            state: <KvStore as Adt>::State,
            used: LeafUsed<'_>,
            tag: Pairs,
        ) -> ControlFlow<()> {
            self.0.push((hist.to_vec(), state, used.get(), tag));
            ControlFlow::Continue(())
        }
    }

    /// The plain-linearizability problem of `t`, searched three ways:
    /// first solution, every leaf vetoed, every leaf enumerated. Returns
    /// everything the searches reported, rendered, and — to show a corpus
    /// is not vacuous — the memo entries, memo hits and leaves among it.
    fn three_searches(t: &Trace<KA>) -> (String, [usize; 3]) {
        let commits = ops::commits::<KvStore, ()>(t);
        let bounds = ops::input_bounds::<KvStore, ()>(t);
        let engine = CheckerEngine::new(&KvStore, &commits, &bounds, bounds.pool());
        let seed = || engine.seed(Vec::new());
        let first = engine.first_solution(
            seed(),
            CommitMask::full(commits.len()),
            &|_| Some(()),
            DEFAULT_MAX_NODES,
        );
        let (vetoed, veto_stats) = engine.first_solution(
            seed(),
            CommitMask::full(commits.len()),
            &|_| None::<()>,
            DEFAULT_MAX_NODES,
        );
        assert_eq!(vetoed, Ok(None));
        let mut all = AllLeaves::default();
        let (flow, stats) = Search::new(&engine).run(
            &seed(),
            CommitMask::full(commits.len()),
            Pairs::new(),
            &mut all,
            20_000,
        );
        let traffic = [
            veto_stats.memo_entries + stats.memo_entries,
            veto_stats.memo_hits + stats.memo_hits,
            all.0.len(),
        ];
        let reported = format!("{:?}", (first, veto_stats, flow, stats, all.0));
        (reported, traffic)
    }

    #[test]
    fn the_hash_does_not_matter() {
        // A probe that trusted the `u64` would, under the constant hash,
        // take the first dead end for every later node and the first
        // configuration for every later one.
        let mut corpus: Vec<Trace<KA>> = Vec::new();
        for seed in 0..6 {
            corpus.push(hotkey_trace(28, seed));
            corpus.push(straggler_trace(36, seed));
            corpus.push(phase_events(seed, [0.0, 0.4][seed as usize % 2]));
        }
        let mut traffic = [0; 3];
        for (k, t) in corpus.iter().enumerate() {
            let (seeded, constant) = under_both_hashes(|| three_searches(t));
            assert_eq!(seeded, constant, "trace {k}");
            for (sum, n) in traffic.iter_mut().zip(seeded.1) {
                *sum += n;
            }
        }
        let [entries, hits, leaves] = traffic;
        assert!(
            entries > 100 && hits > 100 && leaves > 40,
            "a vacuous corpus: {entries} entries, {hits} hits, {leaves} leaves"
        );

        // The same through the two frontends: the streaming shard (its
        // collector and its configuration dedup) and the speculative
        // checker.
        for seed in 0..4 {
            for t in [hotkey_trace(120, seed), straggler_trace(160, seed)] {
                let stream = || {
                    let mut session = Checker::builder(LinChecker::owned(KvStore))
                        .strategy(Strategy::Streaming { window: Some(16) })
                        .build();
                    let outcomes: Vec<_> = t.iter().map(|a| session.ingest(a.clone())).collect();
                    (outcomes, session.report().expect("born streaming"))
                };
                let (seeded, constant) = under_both_hashes(stream);
                assert_eq!(seeded, constant, "stream seed {seed}");
                assert!(seeded.1.shard.search_nodes > 0);
            }
            let (m, n) = phase_trace_bounds();
            let t = random_phase_kv_trace(&PhaseConfig {
                clients: 4,
                steps: 30,
                keys: [1, 2, 4][seed as usize % 3],
                error_prob: 0.4,
                seed,
                ..Default::default()
            });
            let check = || {
                Checker::builder(SlinChecker::owned(KvStore, ExactInit::new(), m, n))
                    .strategy(Strategy::Monolithic)
                    .threads(1)
                    .build()
                    .check(&t)
            };
            let (seeded, constant) = under_both_hashes(check);
            assert_eq!(seeded, constant, "phase seed {seed}");
        }
    }

    /// The leaves of `runs` in order, each key `(state, used, tag)` at its
    /// first arrival: what a collector deduplicating on the memo's leaf key
    /// keeps.
    fn first_arrivals(runs: &[Vec<Leaf>]) -> Vec<&Leaf> {
        let mut seen = HashSet::new();
        (runs.iter().flatten())
            .filter(|(_, state, used, tag)| seen.insert((state, used, tag)))
            .collect()
    }

    /// A run from a start mask, on a fresh `Search`, is the run over an
    /// engine built on the masked commits alone — the same leaves in the
    /// same order, the same counters, the same outcome — for masks dropping
    /// one commit, every other one, or a pseudo-random subset. Run mask
    /// after mask on one shared `Search` over the whole list, as the
    /// shard's enumerations run their seeds, each run skips what an earlier
    /// one buried: the same outcome with at most the fresh run's nodes, and
    /// the same leaves at their first arrival, histories and order
    /// included.
    #[test]
    fn a_masked_run_is_the_run_over_the_masked_commits() {
        let (mut leaves, mut skipped) = (0, 0);
        for seed in 0..6 {
            for t in [hotkey_trace(28, seed), straggler_trace(36, seed)] {
                let commits = ops::commits::<KvStore, ()>(&t);
                let bounds = ops::input_bounds::<KvStore, ()>(&t);
                let n = commits.len();
                let engine = CheckerEngine::new(&KvStore, &commits, &bounds, bounds.pool());
                let mut shared = Search::new(&engine);
                let (mut fresh_leaves, mut shared_leaves) = (Vec::new(), Vec::new());
                let masks = [
                    CommitMask::full(n),
                    CommitMask::full(n).without(0),
                    CommitMask::full(n).without(n / 2),
                    (0..n / 2).fold(CommitMask::full(n), |m, k| m.without(k)),
                    (0..n)
                        .step_by(2)
                        .fold(CommitMask::full(n), |m, k| m.without(k)),
                    (0..n)
                        .filter(|k| (k * 7 + seed as usize).is_multiple_of(3))
                        .fold(CommitMask::full(n), |m, k| m.without(k)),
                ];
                // The empty seed, and seeds that consumed the first commits'
                // inputs, as a checkpoint configuration has.
                let seeds = [
                    engine.seed(Vec::new()),
                    engine.seed(vec![commits[0].input]),
                    engine.seed(vec![commits[0].input, commits[1].input]),
                ];
                for (mask, seed) in masks
                    .into_iter()
                    .flat_map(|m| seeds.iter().map(move |s| (m.clone(), s)))
                {
                    let kept: Vec<_> = mask.iter().map(|k| commits[k].clone()).collect();
                    let alone = CheckerEngine::new(&KvStore, &kept, &bounds, bounds.pool());
                    let (mut masked, mut whole) = (AllLeaves::default(), AllLeaves::default());
                    let masked_run = Search::new(&engine).run(
                        seed,
                        mask.clone(),
                        Pairs::new(),
                        &mut masked,
                        20_000,
                    );
                    let whole_run = Search::new(&alone).run(
                        seed,
                        CommitMask::full(kept.len()),
                        Pairs::new(),
                        &mut whole,
                        20_000,
                    );
                    assert_eq!(
                        format!("{:?}", (&masked_run, &masked.0)),
                        format!("{:?}", (whole_run, &whole.0))
                    );
                    let mut on_shared = AllLeaves::default();
                    let shared_run = shared.run(seed, mask, Pairs::new(), &mut on_shared, 20_000);
                    assert_eq!(shared_run.0, masked_run.0);
                    assert!(shared_run.1.nodes <= masked_run.1.nodes);
                    skipped += masked_run.1.nodes - shared_run.1.nodes;
                    leaves += masked.0.len();
                    fresh_leaves.push(masked.0);
                    shared_leaves.push(on_shared.0);
                }
                assert_eq!(
                    first_arrivals(&fresh_leaves),
                    first_arrivals(&shared_leaves)
                );
            }
        }
        assert!(leaves > 100, "a vacuous corpus: {leaves} leaves");
        assert!(skipped > 100, "the shared memo skipped {skipped} nodes");
    }

    /// Asserts at every leaf that the table [`LeafUsed::get`] hands out is
    /// the seed's plus what the history consumed since, counted over the
    /// engine's classes.
    struct UsedIsElems<'a> {
        engine: &'a CheckerEngine<'a, KvStore>,
        seed: &'a SearchSeed<KvStore>,
        last: Option<Used>,
        leaves: usize,
        /// Leaves whose table was the previous leaf's, the very table.
        handed_out_again: usize,
    }

    impl Visitor<KvStore> for UsedIsElems<'_> {
        type Tag = ();

        fn extra(&mut self, (): &(), _: &KvInput, _: KvOutput) {}

        fn leaf(
            &mut self,
            hist: &[KvInput],
            _: <KvStore as Adt>::State,
            used: LeafUsed<'_>,
            (): (),
        ) -> ControlFlow<()> {
            let used = used.get();
            let suffix = hist[self.seed.history.len()..].to_vec();
            let since_seed = self.engine.seed(suffix).used;
            let seed_and_since: Vec<usize> = (self.seed.used.iter().zip(since_seed.iter()))
                .map(|(a, b)| a + b)
                .collect();
            assert_eq!(*used, seed_and_since[..], "at {hist:?}");
            if let Some(last) = self.last.replace(used.clone()) {
                if last == used {
                    assert_eq!(last.addr(), used.addr(), "equal counters: the same table");
                    self.handed_out_again += 1;
                }
            }
            self.leaves += 1;
            ControlFlow::Continue(())
        }
    }

    #[test]
    fn used_at_a_leaf_is_elems_of_the_history() {
        // Leaves per kind of seed, and leaves served from the cache.
        let (mut leaves, mut handed_out_again) = ([0; 3], 0);
        for t in (0..8).flat_map(|s| [hotkey_trace(40, s), straggler_trace(48, s)]) {
            // Cut at the last quiescent point of the first half: a
            // linearization of the prefix seeds searches of the suffix.
            let mut pending = 0i32;
            let mut cut = 0;
            for (i, a) in t.iter().enumerate().take(t.len() / 2) {
                pending += if a.is_respond() { -1 } else { 1 };
                if pending == 0 {
                    cut = i + 1;
                }
            }
            let actions: Vec<KA> = t.iter().cloned().collect();
            let prefix: Trace<KA> = Trace::from_actions(actions[..cut].to_vec());
            let suffix: Trace<KA> = Trace::from_actions(actions[cut..].to_vec());
            let prefix_history = LinChecker::owned(KvStore)
                .check(&prefix)
                .expect("linearizable by construction")
                .full_history()
                .to_vec();
            // What a shard would hold after cutting at `cut` with a
            // straggler still pending: the prefix consumed, its history
            // dropped, and a base with one occurrence nobody consumed yet.
            let straggler = KvInput::Put(1, 9);
            let consumed = PersistentMultiset::elems(&prefix_history);
            let mut base = consumed.clone();
            base.insert(straggler);
            for (kind, (trace, base)) in [
                (&t, PersistentMultiset::new()),
                (&suffix, consumed),
                (&suffix, base),
            ]
            .into_iter()
            .enumerate()
            {
                let commits = ops::commits::<KvStore, ()>(trace);
                let mut bounds = ops::input_bounds::<KvStore, ()>(trace);
                for (e, n) in base.iter() {
                    (0..n).for_each(|_| bounds.add(0, e));
                }
                let engine = CheckerEngine::new(&KvStore, &commits, &bounds, bounds.pool());
                let seed = match kind {
                    0 => engine.seed(Vec::new()),
                    1 => engine.seed(prefix_history.clone()),
                    _ => SearchSeed {
                        history: Vec::new(),
                        ..engine.seed(prefix_history.clone())
                    },
                };
                let mut visitor = UsedIsElems {
                    engine: &engine,
                    seed: &seed,
                    last: None,
                    leaves: 0,
                    handed_out_again: 0,
                };
                let (flow, _) = Search::new(&engine).run(
                    &seed,
                    CommitMask::full(commits.len()),
                    (),
                    &mut visitor,
                    50_000,
                );
                assert_eq!(flow, Ok(ControlFlow::Continue(())));
                // (The checker's linearization of the prefix need not be
                // the generator's: some suffixes have no leaf.)
                leaves[kind] += visitor.leaves;
                handed_out_again += visitor.handed_out_again;
            }
        }
        assert!(
            leaves.iter().all(|&n| n > 20) && handed_out_again > 10,
            "a vacuous corpus: {leaves:?} leaves, {handed_out_again} from the cache"
        );
    }

    /// The most elements any buffer of `set` holds room for.
    fn largest<G>(set: &SearchBuffers<KvStore, G>) -> usize {
        let memo = &set.memo;
        [
            set.floor_counts.capacity(),
            set.counts.capacity(),
            set.spare.capacity(),
            set.moves.capacity(),
            set.hist.capacity(),
            memo.index.heads.capacity(),
            memo.index.older.capacity(),
            memo.entries.capacity(),
            memo.counts.capacity(),
        ]
        .into_iter()
        .max()
        .unwrap_or(0)
    }

    /// `look` at this thread's free list.
    fn free_list<R>(look: impl FnOnce(&[Box<dyn Any>]) -> R) -> R {
        FREE_BUFFERS.with(|free| look(&free.borrow()))
    }

    /// `t`'s plain-linearizability problem under `max_nodes`, searched to
    /// the first solution, or with every leaf vetoed, on the calling
    /// thread's free list.
    fn lin_search(t: &Trace<KA>, max_nodes: usize, accept: bool) -> Found<KvInput, ()> {
        let commits = ops::commits::<KvStore, ()>(t);
        let bounds = ops::input_bounds::<KvStore, ()>(t);
        let engine = CheckerEngine::new(&KvStore, &commits, &bounds, bounds.pool());
        let seed = engine.seed(Vec::new());
        let full = CommitMask::full(commits.len());
        engine.first_solution(seed, full, &|_| accept.then_some(()), max_nodes)
    }

    /// [`lin_search`] accepting, then vetoing.
    fn accepted_and_vetoed(t: &Trace<KA>, max_nodes: usize) -> [Found<KvInput, ()>; 2] {
        [true, false].map(|accept| lin_search(t, max_nodes, accept))
    }

    /// `t`'s plain-linearizability problem enumerated leaf by leaf, under a
    /// visitor whose tag is not stop-at-first's `()`.
    fn every_leaf(t: &Trace<KA>) -> SearchStats {
        let commits = ops::commits::<KvStore, ()>(t);
        let bounds = ops::input_bounds::<KvStore, ()>(t);
        let engine = CheckerEngine::new(&KvStore, &commits, &bounds, bounds.pool());
        let seed = engine.seed(Vec::new());
        let full = CommitMask::full(commits.len());
        let mut all = AllLeaves::default();
        Search::new(&engine)
            .run(&seed, full, Pairs::new(), &mut all, 50_000)
            .1
    }

    /// `run` on a thread of its own: a free list of its own, empty.
    fn on_a_new_thread<R: Send>(run: impl FnOnce() -> R + Send) -> R {
        std::thread::scope(|s| s.spawn(run).join().expect("no panic"))
    }

    #[test]
    fn recycled_scratch_is_invisible_and_bounded() {
        // Five clients, some answers wrong: a vetoed search of it buries
        // 5 582 dead ends.
        let large = random_hostile_kv_trace(&HostileConfig {
            clients: 5,
            steps: 120,
            keys: 1,
            skew: 0.7,
            never_frac: 0.05,
            stuck_applies: true,
            delay_zipf: 1.3,
            max_delay: 12,
            error_prob: 0.1,
            seed: 4,
        });
        let small = straggler_trace(60, 3);
        let fresh = on_a_new_thread(|| (every_leaf(&small), accepted_and_vetoed(&small, 50_000)));
        let recycled = on_a_new_thread(|| {
            // Another engine's larger search, tripped mid-tree, leaves its
            // buffers — the floor table of another commit list included —
            // on this thread's free list; a search under another tag type
            // leaves a set of its own beside them.
            let [_, (tripped, stats)] = accepted_and_vetoed(&large, 3_000);
            assert!(tripped.is_err() && stats.memo_entries > 1_000, "{stats:?}");
            let recycled = (every_leaf(&small), accepted_and_vetoed(&small, 50_000));
            free_list(|free| {
                assert_eq!(free.len(), 2, "one set per type");
                assert!(free
                    .iter()
                    .any(|set| set.is::<SearchBuffers<KvStore, ()>>()));
                assert!(free
                    .iter()
                    .any(|set| set.is::<SearchBuffers<KvStore, Pairs>>()));
            });
            recycled
        });
        assert!(fresh.0.leaf_checks > 1, "a vacuous enumeration: {fresh:?}");
        let [accepted, vetoed] = &fresh.1;
        assert!(accepted.0.as_ref().is_ok_and(Option::is_some), "{fresh:?}");
        assert!(vetoed.1.nodes > 100, "a vacuous tree: {fresh:?}");
        assert_eq!(fresh, recycled);

        // A fresh thread's first search grows its memo no further than the
        // dead ends it buries: nothing is sized up front.
        on_a_new_thread(|| {
            let (_, stats) = lin_search(&small, 50_000, false);
            let room = stats.memo_entries.next_power_of_two().max(4);
            free_list(|free| {
                let set = free[0].downcast_ref::<SearchBuffers<KvStore, ()>>();
                let memo = &set.expect("the search's set").memo;
                assert!(
                    memo.entries.capacity() <= room && memo.index.older.capacity() <= room,
                    "{} dead ends, room for {} and {}",
                    stats.memo_entries,
                    memo.entries.capacity(),
                    memo.index.older.capacity()
                );
            });
        });

        // A memo past the bound goes back to the allocator, not the list.
        on_a_new_thread(|| {
            let [_, (_, stats)] = accepted_and_vetoed(&large, 30_000);
            assert!(stats.memo_entries > SCRATCH_KEEP, "{stats:?}");
            free_list(|free| {
                assert_eq!(free.len(), 1, "one search alive at a time, one set");
                let set = free[0].downcast_ref::<SearchBuffers<KvStore, ()>>();
                assert!(largest(set.expect("the searches' set")) <= SCRATCH_KEEP);
            });
        });
    }
}
