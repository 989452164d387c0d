//! Allocation gate: what a streamed event costs the allocator.
//!
//! On a calm stream — four keys, no faults, a bounded window — an event
//! neither searches nor falls back: an invocation records one occurrence in
//! its shard's count table, and a response commits at the tail of each
//! frontier configuration, moving the configuration into its successor.
//! None of that copies a multiset or grows a window buffer, so what a
//! steady-state event allocates is what the consumed inputs of a
//! successor configuration need (its key's one binding is inline), and the
//! occasional window retirement. On a hot-key stream — three clients on one key — every event
//! lands in one shard, which searches: what an event allocates there is
//! what its enumerations keep, since the key's one binding is an inline
//! `KvState` and an enumeration builds one engine. This binary counts both
//! with a counting global allocator and pins a ceiling on each stream's
//! allocations per ingested event, after a warm-up that creates the shards
//! and grows their buffers to the window.
//!
//! It is its own test binary with one test, so no other test allocates
//! while it counts. CI runs it in both build profiles.

use slin_adt::{KvKeyPartitioner, KvStore};
use slin_core::gen::{random_multikey_kv_trace, MultiKeyConfig};
use slin_core::lin::LinChecker;
use slin_core::session::{Checker, Strategy};
use slin_core::stream::MonitorStatus;
use slin_core::ObjAction;
use slin_obs::{Obs, StackObserver};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The system allocator, counting the allocations it serves (a `realloc`
/// counts as one).
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// The one exemption from the workspace's `unsafe_code` lint (CI fails
// when any other attribute lifts that lint): a global allocator is an
// unsafe trait, and counting needs one.
//
// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the
        // caller's to get right, as for `System.realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// An event of the gated streams.
type KvEvent = ObjAction<KvStore, ()>;

/// Events ingested before counting starts.
const WARM_UP: usize = 1_000;

/// The most allocations a steady-state calm event may make, on average:
/// 1.25 measured in release and 1.76 in debug, whose `debug_assert!`s
/// build multisets of their own, plus the 0.12 margin the ceiling has
/// always had. While a one-binding `KvState` was a shared slice of its own
/// an event made 1.68 and 2.18 (ceilings 1.8 and 2.3); with a bound
/// snapshot per event, a copied history per direct commit and window
/// buffers rebuilt at every retirement it made 5.90 and 6.41.
const CEILING: f64 = if cfg!(debug_assertions) { 1.88 } else { 1.37 };

/// The most allocations a hot-key event may make, on average: 3.42
/// measured in release and 4.20 in debug, plus a 0.13 margin. A hot-key
/// event searches — tail extensions, fallback re-searches, epoch cuts — so
/// it allocates for what an enumeration keeps: its configurations'
/// histories, consumed inputs and completions. While a one-binding
/// `KvState` was a fresh shared slice per changing step, and an
/// enumeration built an engine per group of seeds placing the same commits
/// (copying the list of every seed whose completions absorbed one), an
/// event made 5.75 and 6.53.
const HOT_CEILING: f64 = if cfg!(debug_assertions) { 4.33 } else { 3.55 };

/// Streams `actions` through a streaming session with a window of 32
/// events and returns the allocations per event after the first
/// [`WARM_UP`]. The stream must stay linearizable and retire more than half
/// the counted events.
fn allocations_per_event(actions: &[KvEvent], name: &str) -> f64 {
    assert!(
        actions.len() > 2 * WARM_UP,
        "{name}: {} events",
        actions.len()
    );
    let mut session = Checker::builder(LinChecker::owned(KvStore))
        .partitioner(KvKeyPartitioner)
        .strategy(Strategy::Streaming { window: Some(32) })
        .observer(Obs::new(Arc::new(StackObserver::new())))
        .build();
    let (warm, counted) = actions.split_at(WARM_UP);
    for a in warm {
        session.ingest(a.clone());
    }
    // The events are cloned before counting starts: what is counted is
    // the session's own work.
    let counted: Vec<_> = counted.to_vec();
    let before = ALLOCS.load(Ordering::Relaxed);
    let events = counted.len();
    for a in counted {
        session.ingest(a);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(session.status(), Some(MonitorStatus::Ok), "{name}");
    let summary = session.shard_summary().expect("streaming");
    assert!(summary.retired_events > events / 2, "{name}: {summary:?}");
    let per_event = allocs as f64 / events as f64;
    println!(
        "{name}: {allocs} allocations over {events} events: {per_event:.3} per event; {summary:?}"
    );
    per_event
}

/// One test, so that nothing else allocates while it counts: the calm
/// stream (two clients, four keys), then the hot-key one (three clients,
/// one key — every event in one shard, which searches).
#[test]
fn a_calm_streamed_event_allocates_below_the_ceiling() {
    let calm = random_multikey_kv_trace(&MultiKeyConfig {
        clients: 2,
        steps: 6_000,
        keys: 4,
        skew: 0.6,
        contention: 0.0,
        error_prob: 0.0,
        seed: 41,
    });
    let calm: Vec<_> = calm.iter().cloned().collect();
    let per_event = allocations_per_event(&calm, "calm");
    assert!(
        per_event <= CEILING,
        "{per_event:.3} allocations per calm event, above the ceiling {CEILING}"
    );

    let hot = random_multikey_kv_trace(&MultiKeyConfig {
        clients: 3,
        steps: 6_000,
        keys: 1,
        skew: 0.0,
        contention: 0.0,
        error_prob: 0.0,
        seed: 41,
    });
    let hot: Vec<_> = hot.iter().cloned().collect();
    let per_event = allocations_per_event(&hot, "hot-key");
    assert!(
        per_event <= HOT_CEILING,
        "{per_event:.3} allocations per hot-key event, above the ceiling {HOT_CEILING}"
    );
}
