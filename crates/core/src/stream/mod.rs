//! Online streaming checking: the sharded incremental monitor, generic
//! over any [`ConsistencyModel`](crate::model::ConsistencyModel).
//!
//! The batch checkers need the whole trace before `check()` runs. This
//! module adds the layer between the trace model and those checkers that
//! the ROADMAP's live-traffic north star needs: a monitor that **ingests
//! one action at a time** and maintains a rolling verdict without
//! re-checking the growing prefix.
//!
//! ```text
//!                        ┌───────────────────────────────┐
//!   live event stream ──▶│ router (Partitioner::key_of)  │
//!                        └──┬──────────┬──────────┬──────┘
//!                key 1 ─────▼──  key 2 ▼   …  key k ▼        unclassifiable /
//!                   ┌─────────┐ ┌─────────┐ ┌─────────┐      switch action
//!                   │ shard 1 │ │ shard 2 │ │ shard k │   ──▶ identity shard /
//!                   │frontier │ │frontier │ │frontier │       speculative mode
//!                   └────┬────┘ └────┬────┘ └────┬────┘
//!                        └─────── merged verdict ┴──▶ status() / report()
//! ```
//!
//! There is **one** monitor and **one** way to reach it: a
//! [`crate::session::Session`] built with `Strategy::Streaming { window }`
//! (or a batch session upgraded by its first `ingest`). The monitor itself
//! is private to the crate; it is parameterized by a
//! [`ConsistencyModel`](crate::model::ConsistencyModel)
//! (which says how a batch error reads as a status and — through
//! `phase_bounds` — what a switch action means; a window verdict becomes
//! the model's error through the conversions its error type has anyway),
//! so any model streams. What
//! this module exports is what a session hands back: [`MonitorStatus`],
//! [`IngestOutcome`], [`ShardSummary`], [`MonitorReport`], and the
//! [`GcPolicy`] a session is built with.
//!
//! # Quickstart
//!
//! ```
//! use slin_adt::{KvKeyPartitioner, KvStore};
//! use slin_core::gen::{random_multikey_kv_trace, MultiKeyConfig};
//! use slin_core::lin::LinChecker;
//! use slin_core::session::{Checker, Strategy};
//! use slin_core::stream::MonitorStatus;
//!
//! let trace = random_multikey_kv_trace(&MultiKeyConfig::default());
//! let mut session = Checker::builder(LinChecker::owned(KvStore))
//!     .partitioner(KvKeyPartitioner)
//!     .strategy(Strategy::Streaming { window: None })
//!     .build();
//! for action in trace.iter() {
//!     let outcome = session.ingest(action.clone());
//!     assert_eq!(outcome.status, MonitorStatus::Ok); // rolling, exact
//! }
//! let report = session.report().expect("born streaming");
//! let batch = Checker::builder(LinChecker::owned(KvStore)).partitioner(KvKeyPartitioner);
//! assert_eq!(report.verdict, batch.build().check(&trace)); // stats included
//! ```
//!
//! # Architecture
//!
//! * **Routing** — every action is classified by the
//!   [`slin_adt::Partitioner`]; each independence class gets its own shard
//!   with its own incremental engine state. The identity fallback
//!   (unclassifiable inputs) collapses everything into one shard, so
//!   non-partitionable ADTs still stream.
//! * **Validation** — signature membership, the first switch action and
//!   well-formedness are decided by the object the batch checkers fold
//!   over a closed trace, [`slin_trace::wf::Validator`], held live and fed
//!   one action per ingested event: there is no stream-side replica, so a
//!   [`MonitorStatus::IllFormed`] and the error a report carries are the
//!   batch checkers' by construction.
//! * **Incremental engine state** — each shard persists a **frontier** of
//!   complete chain-search configurations between events (each one a
//!   genuine witness for the shard's prefix); see `stream/shard.rs`.
//! * **Bounded-window GC** — with a window set
//!   ([`crate::session::SessionBuilder::window`]), quiescent
//!   fully-committed prefixes retire into their complete terminal-
//!   configuration summary: verdicts stay exact, witnesses become
//!   window-relative, memory stays O(window · alphabet).
//! * **Batch-identical reports** — with the default unbounded window,
//!   [`crate::session::Session::report`] carries the batch session's
//!   [`Verdict`] on the closed trace unchanged (outcome, witness, stats
//!   and partition report), because it re-checks the stream through the
//!   same routine; the `streaming_differential` suite in `tests/` pins
//!   this over the multi-key generators.
//!
//! # The record
//!
//! Well-formedness and the speculative judgment read the *whole* trace
//! (valid inputs count every invocation before an index; the abort clause
//! reads the whole committed history), so whatever must be rebuilt from
//! "the stream so far" is rebuilt from one place: the monitor's **record**,
//! every event in order — complete or absent, never a part. While nothing
//! has been retired the shard windows together are the whole stream, so
//! an absent record is materialised from them on demand. An unbounded
//! stream retires nothing: its record is its windows, each event held
//! once, until a speculative switch keeps one. A record is kept from
//! birth only for archival — a bounded window with
//! [`GcPolicy::archive_windows`] positive — and is dropped (memory freed,
//! `slin_archive_evictions_total` counts it once) at the retirement that
//! first takes a shard past `archive_windows` retired windows. Three
//! rebuilds read it and nothing else:
//!
//! * a speculative model's **first switch** — from then on the report, and
//!   so the deferred status, is the batch check of the record: per class
//!   where a switch-independence certificate lets it decompose, whole
//!   otherwise. No shard result is read again, so from that switch on no
//!   event reaches a shard, nothing retires, and the record is kept for
//!   good;
//! * an **identity collapse** (an input the partitioner declines) — one
//!   identity shard replays every event *before* the triggering one, once;
//! * a **report** — the batch check of the stream wherever it is at hand:
//!   the record, or the shard windows before anything retires (always,
//!   with an unbounded window); the report carries that check's
//!   [`Verdict`] as it is. After a retirement the batch check of the
//!   record is byte-identical to the unbounded session's and flagged
//!   [`MonitorReport::reconstructed`].
//!
//! A report first asks the validator, which has seen every event: past a
//! plain-linearizability switch the shards are quiet and the windows are
//! not the stream, and the batch check validates first too. Past a
//! retirement with no record a bounded-window report searches each
//! shard's window from its seeds instead (window-relative, flagged
//! [`MonitorReport::prefix_committed`]): the first failing shard decides,
//! as the engine's own outcome converted into the model's error like a
//! batch search's, and otherwise the shard chains are interleaved, least
//! floor first — inputs of distinct classes commute, so the interleave
//! keeps every commit inside its validity bound without a search. A switch or collapse that needs the record after
//! it was dropped under-claims exactly as a lossy shard does —
//! [`MonitorStatus::Unknown`] for good, and a report that the budget ran
//! out at zero nodes — while the validator still decides
//! [`MonitorStatus::IllFormed`] and [`MonitorStatus::SwitchSeen`].

#![allow(clippy::module_inception)]
// An ingest hot path: every event of every tenant runs this code, so no
// bare `.unwrap()`.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod monitor;
mod shard;

pub(crate) use monitor::Monitor;

use crate::partition::FallbackReason;
use crate::session::Verdict;

/// The garbage-collection/retirement policy of a streaming session: set on
/// [`crate::session::SessionBuilder::gc_policy`] and reused verbatim as the
/// daemon's per-tenant policy type. The GC *window* is not part of it — see
/// [`crate::session::SessionBuilder::window`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcPolicy {
    /// Force truncated epoch cuts through anyway (default `false`): memory
    /// stays bounded on hostile windows whose summary outgrows the
    /// frontier cap, at the price of exactness — later would-be violation
    /// verdicts downgrade to [`MonitorStatus::Unknown`]. The daemon's
    /// backpressure shed flips this live.
    pub epoch_force: bool,
    /// Maximum frontier configurations retained per shard (default 32; a
    /// session reads 0 as 1). Larger values survive more reorderings
    /// without falling back; smaller values bound per-event work tighter.
    pub frontier_cap: usize,
    /// Witness archival, in retired windows per shard: under a bounded
    /// window, keep the stream's record (module docs, "The record") from
    /// birth until a shard retires more than this many windows, so a report
    /// re-checks the whole stream — **full** forensic witnesses,
    /// byte-identical to an unGC'd session's — instead of window-relative
    /// stubs, and a switch or a collapse rebuilds exactly. `0` (default)
    /// keeps no record and memory O(window); `K` bounds the extra retention
    /// at O(K · window) events per shard. An unbounded window retires
    /// nothing, so it has nothing to archive.
    pub archive_windows: usize,
}

impl Default for GcPolicy {
    fn default() -> Self {
        GcPolicy {
            epoch_force: false,
            frontier_cap: 32,
            archive_windows: 0,
        }
    }
}

impl GcPolicy {
    /// A lossy, memory-first policy: epoch cuts forced through even when
    /// truncated. What the daemon sheds overloaded tenants to.
    pub fn lossy() -> Self {
        GcPolicy {
            epoch_force: true,
            ..GcPolicy::default()
        }
    }
}

/// The rolling verdict of a monitor (exact at every event — see the
/// module docs for the one bounded-window caveat).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorStatus {
    /// Every ingested prefix satisfies the monitored criterion.
    Ok,
    /// The stream violates the criterion (permanent).
    Violation,
    /// The stream is not well-formed (or, for the speculative monitor, an
    /// action lies outside the phase signature).
    IllFormed,
    /// A switch action appeared in a plain-linearizability stream: the
    /// verdict is decided (`LinError::SwitchAction`).
    SwitchSeen,
    /// A search exhausted its node budget; the verdict is unknown until a
    /// later search succeeds (for good where a rebuild found no record).
    Unknown,
    /// Speculative mode defers the verdict past a switch action:
    /// [`crate::session::Session::status`] and
    /// [`crate::session::Session::poll_verdict`] resolve it from the
    /// session's report (derived once per stream version).
    Deferred,
}

/// Per-event feedback from [`crate::session::Session::ingest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestOutcome {
    /// The event's global stream index.
    pub index: usize,
    /// The target shard's frontier size after the event (0 for events that
    /// bypass the shard machinery).
    pub frontier_len: usize,
    /// Whether the event forced a bounded re-search (frontier pruned
    /// empty or the extension budget tripped).
    pub fell_back: bool,
    /// The rolling verdict after the event.
    pub status: MonitorStatus,
}

/// Aggregated shard-machinery counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardSummary {
    /// Frontier tail-extension passes run (one per commit event).
    pub extension_searches: usize,
    /// Bounded re-searches run (the documented fallback).
    pub fallback_searches: usize,
    /// Largest frontier any shard ever held.
    pub frontier_peak: usize,
    /// Events retired by bounded-window GC across all shards.
    pub retired_events: usize,
    /// Non-quiescent (epoch) retirement cuts across all shards.
    pub epoch_cuts: usize,
    /// Forced lossy cuts (truncated summaries retired anyway).
    pub lossy_cuts: usize,
    /// Enumeration/extension search nodes expanded — a deterministic
    /// per-stream work proxy, unlike wall-clock time.
    pub search_nodes: usize,
    /// Window commits handed to fallback and cut enumerations, summed per
    /// enumeration. An enumeration starts at the shard's last checkpoint,
    /// so where every one completes this is at most `extension_searches` —
    /// each commit is enumerated once; the excess is re-enumeration.
    pub enumerated_commits: usize,
    /// Currently retained configurations (frontiers, seeds, checkpoints) —
    /// the live-state component of the memory proxy.
    pub live_configs: usize,
    /// Distinct allocations the retained configurations hold for their
    /// consumed inputs (count tables) and symbolic completions (persistent
    /// multisets), deduplicated by pointer across structure sharing. Each
    /// table and each non-empty completion set is one allocation and counts
    /// as one whatever its width, so this counts what is retained, not how
    /// large it is: a table that counts 10 000 classes is still one.
    /// Bounds are not counted: a shard's are one count table of integers,
    /// and the monitor keeps none of its own.
    pub multiset_nodes: usize,
    /// Events currently retained in shard windows (not yet retired).
    pub window_events: usize,
    /// GC-retired events the record holds: all of them while it is kept,
    /// none once it is dropped — the archival component of the memory
    /// proxy.
    pub archived_events: usize,
}

/// The monitor's full forensic report: the model's [`Verdict`] on the
/// stream (`W`/`E` are the model's witness and error types), plus where
/// the stream stands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorReport<W, E> {
    /// With an unbounded window, before any retirement, or re-checked on
    /// the record: the session routine's batch check of the closed trace,
    /// unchanged. Its `partition` is the routine's, so it need not count
    /// the live shards: an uncertified switch is re-checked whole (`None`)
    /// while the shards it froze stay, a certified one also counts classes
    /// only events past the switch touch, and an identity collapse is one
    /// shard and one partition. A window report past a retirement states
    /// the live shards, the routing reason, never remerged.
    pub verdict: Verdict<W, E>,
    /// Events ingested.
    pub events: usize,
    /// Where the stream stands: why identity routing engaged
    /// (unclassifiable input), or a switch action without a
    /// switch-independence certificate — the state
    /// [`crate::session::Session::fallback`] reads. Why a re-check went
    /// whole is the verdict's own `partition.fallback`.
    pub fallback: Option<FallbackReason>,
    /// Whether bounded-window GC retired a prefix: the verdict is
    /// window-relative — unless `reconstructed` is also set.
    pub prefix_committed: bool,
    /// Whether the verdict was re-checked on the record: despite
    /// `prefix_committed` this verdict (witness included) is byte-identical
    /// to an unGC'd monitor's batch report on the closed trace.
    pub reconstructed: bool,
    /// Aggregated shard-machinery counters.
    pub shard: ShardSummary,
}
