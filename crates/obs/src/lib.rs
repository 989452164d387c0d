//! `slin-obs`: the observability spine of the speculative-linearizability
//! stack — a metrics [`Registry`], ring-buffered span tracing with a
//! Chrome trace-event / Perfetto exporter ([`TraceBuffer`]), and the
//! [`Observer`] seam the engine, streaming monitor, and ingestion daemon
//! report through.
//!
//! # Design
//!
//! Instrumentation sites hold an [`Obs`] handle — a cheap clone of
//! `Option<Arc<dyn Observer>>`. The default ([`Obs::noop`], equivalent to
//! installing [`NoopObserver`]) holds `None`, so every report method inlines
//! to a single pointer test and the instrumented code is zero-cost when no
//! observer is installed (`work_pins.rs` gates a fully instrumented
//! session at ≤5% or ≤1 µs/event over this default). Installing a
//! [`StackObserver`] turns the same sites into atomic counter increments
//! plus (optionally) span records.
//!
//! ```
//! use slin_obs::{Obs, StackObserver, EngineSearchEvent};
//! use std::sync::Arc;
//!
//! let stack = Arc::new(StackObserver::with_tracing(4096));
//! let obs = Obs::new(stack.clone());
//!
//! // ... thread `obs` into a Session / Daemon, run a workload ...
//! let t0 = obs.t0(); // Some(Instant) only because tracing is enabled
//! obs.engine_search(EngineSearchEvent {
//!     site: "doc.example",
//!     nodes: 42,
//!     memo_hits: 7,
//!     budget_exhausted: false,
//!     t0,
//! });
//!
//! let page = stack.registry().render_prometheus();
//! assert!(page.contains("slin_engine_searches_total 1"));
//! let trace = stack.chrome_trace_json().unwrap();
//! assert!(trace.contains("\"engine.search\""));
//! ```

#![warn(missing_docs)]

pub mod hist;
pub mod registry;
pub mod span;

pub use hist::{bucket_bounds, bucket_index, LogHistogram, BUCKETS};
pub use registry::{Counter, Gauge, Histogram, Registry};
pub use span::{current_tid, SpanEvent, TraceBuffer};

use std::sync::Arc;
use std::time::Instant;

/// One engine chain-search, reported by whoever drove it (batch check,
/// shard window search, fallback re-search).
#[derive(Clone, Debug)]
pub struct EngineSearchEvent {
    /// Call site, e.g. `"session.check"`, `"shard.window_search"`,
    /// `"shard.fallback"`, `"monitor.report"`.
    pub site: &'static str,
    /// Search nodes expanded.
    pub nodes: u64,
    /// Memo-table hits.
    pub memo_hits: u64,
    /// Whether the search tripped its node budget.
    pub budget_exhausted: bool,
    /// Start instant from [`Obs::t0`] (present only when tracing).
    pub t0: Option<Instant>,
}

/// One event ingested by a monitor shard.
#[derive(Clone, Debug)]
pub struct ShardIngestEvent {
    /// Global event index in the stream.
    pub index: u64,
    /// Frontier size after the ingest.
    pub frontier_len: u64,
    /// Whether the incremental step fell back to a full re-search.
    pub fell_back: bool,
    /// Start instant from [`Obs::t0`] (present only when tracing).
    pub t0: Option<Instant>,
}

/// Outcome of an epoch-GC cut attempt on a shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CutOutcome {
    /// Window retired with terminal-configuration summaries intact.
    Retired,
    /// Invocation-only window retired without a search.
    RetiredInvokeOnly,
    /// Window force-retired lossily (summaries dropped).
    RetiredLossy,
    /// Cut attempt blocked (completion enumeration overflowed or ran out of
    /// budget); the shard will retry after damping.
    Blocked,
}

/// One epoch-GC cut attempt, reported by the shard that tried it.
#[derive(Clone, Debug)]
pub struct GcCutEvent {
    /// What the attempt did.
    pub outcome: CutOutcome,
    /// Events in the window the attempt covered.
    pub window_events: u64,
    /// Start instant from [`Obs::t0`] (present only when tracing).
    pub t0: Option<Instant>,
}

/// One daemon lane pump (draining queued frames into tenant sessions).
#[derive(Clone, Debug)]
pub struct LanePumpEvent {
    /// Lane index.
    pub lane: u64,
    /// Events drained in this pump.
    pub drained: u64,
    /// Deepest tenant queue observed on the lane before draining.
    pub queue_depth: u64,
    /// Start instant from [`Obs::t0`] (present only when tracing).
    pub t0: Option<Instant>,
}

/// Receiver for structured events from the engine, monitor shards, and
/// daemon lanes.
///
/// Every method has a no-op default, so implementors override only the seams
/// they care about. [`NoopObserver`] overrides nothing; [`StackObserver`]
/// translates every event into registry metrics and (optionally) spans.
pub trait Observer: Send + Sync {
    /// Whether instrumentation sites should capture start instants for span
    /// timing. Return `false` (the default) to skip the clock reads entirely.
    fn wants_timing(&self) -> bool {
        false
    }

    /// An engine chain-search completed.
    fn engine_search(&self, _ev: &EngineSearchEvent) {}

    /// A monitor shard ingested one event.
    fn shard_ingest(&self, _ev: &ShardIngestEvent) {}

    /// A shard attempted an epoch-GC cut.
    fn gc_cut(&self, _ev: &GcCutEvent) {}

    /// A commit was absorbed into a symbolic completion during GC
    /// bookkeeping (no re-search needed).
    fn gc_absorption(&self) {}

    /// A GC-retired window stays in the monitor's record of the stream,
    /// for forensic witness reconstruction (`events` = its length).
    fn archive_window(&self, _events: u64) {}

    /// The monitor dropped its record of the stream (a shard retired past
    /// the archive depth) — at most once per stream; reports after it are
    /// window-relative again.
    fn archive_eviction(&self) {}

    /// `Session::report()` re-checked the record after a retirement: a
    /// full forensic verdict.
    fn archive_reconstruction(&self) {}

    /// A daemon lane finished one pump.
    fn lane_pump(&self, _ev: &LanePumpEvent) {}

    /// The daemon shed an event for `tenant` (queue at capacity).
    fn shed(&self, _tenant: u64) {}
}

/// The do-nothing observer: the compile-time default every instrumented
/// component starts with. Prefer [`Obs::noop`], which skips even the virtual
/// dispatch.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopObserver;

impl Observer for NoopObserver {}

/// Cheap, clonable handle to an optional [`Observer`].
///
/// This is the type threaded through configs and builders. All methods are
/// `#[inline]` and begin with an `Option` test, so with the default noop
/// handle the instrumentation compiles down to a branch on a null pointer.
#[derive(Clone, Default)]
pub struct Obs(Option<Arc<dyn Observer>>);

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Obs")
            .field(&if self.0.is_some() {
                "installed"
            } else {
                "noop"
            })
            .finish()
    }
}

impl Obs {
    /// The default handle: no observer installed, all reports free.
    pub fn noop() -> Self {
        Self(None)
    }

    /// Wraps an installed observer.
    pub fn new(observer: Arc<dyn Observer>) -> Self {
        Self(Some(observer))
    }

    /// Whether an observer is installed.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Captures a span start instant — `Some` only when an observer is
    /// installed *and* it wants timing, so the clock read itself is skipped
    /// on untraced runs.
    #[inline]
    pub fn t0(&self) -> Option<Instant> {
        match &self.0 {
            Some(o) if o.wants_timing() => Some(Instant::now()),
            _ => None,
        }
    }

    /// Reports an engine search (see [`Observer::engine_search`]).
    #[inline]
    pub fn engine_search(&self, ev: EngineSearchEvent) {
        if let Some(o) = &self.0 {
            o.engine_search(&ev);
        }
    }

    /// Reports a shard ingest (see [`Observer::shard_ingest`]).
    #[inline]
    pub fn shard_ingest(&self, ev: ShardIngestEvent) {
        if let Some(o) = &self.0 {
            o.shard_ingest(&ev);
        }
    }

    /// Reports a GC cut attempt (see [`Observer::gc_cut`]).
    #[inline]
    pub fn gc_cut(&self, ev: GcCutEvent) {
        if let Some(o) = &self.0 {
            o.gc_cut(&ev);
        }
    }

    /// Reports a commit absorption (see [`Observer::gc_absorption`]).
    #[inline]
    pub fn gc_absorption(&self) {
        if let Some(o) = &self.0 {
            o.gc_absorption();
        }
    }

    /// Reports a window archival (see [`Observer::archive_window`]).
    #[inline]
    pub fn archive_window(&self, events: u64) {
        if let Some(o) = &self.0 {
            o.archive_window(events);
        }
    }

    /// Reports an archive eviction (see [`Observer::archive_eviction`]).
    #[inline]
    pub fn archive_eviction(&self) {
        if let Some(o) = &self.0 {
            o.archive_eviction();
        }
    }

    /// Reports an archive reconstruction (see
    /// [`Observer::archive_reconstruction`]).
    #[inline]
    pub fn archive_reconstruction(&self) {
        if let Some(o) = &self.0 {
            o.archive_reconstruction();
        }
    }

    /// Reports a lane pump (see [`Observer::lane_pump`]).
    #[inline]
    pub fn lane_pump(&self, ev: LanePumpEvent) {
        if let Some(o) = &self.0 {
            o.lane_pump(&ev);
        }
    }

    /// Reports a shed event (see [`Observer::shed`]).
    #[inline]
    pub fn shed(&self, tenant: u64) {
        if let Some(o) = &self.0 {
            o.shed(tenant);
        }
    }
}

/// Metric handles the [`StackObserver`] resolves once at construction, so
/// event handling is pure atomic arithmetic.
struct StackMetrics {
    engine_searches: Counter,
    engine_nodes: Counter,
    engine_memo_hits: Counter,
    engine_budget_trips: Counter,
    ingest_events: Counter,
    ingest_fallbacks: Counter,
    frontier_len: Histogram,
    gc_cut_attempts: Counter,
    gc_cuts: Counter,
    gc_lossy_cuts: Counter,
    gc_blocked_cuts: Counter,
    gc_absorptions: Counter,
    archive_windows: Counter,
    archive_events: Counter,
    archive_evictions: Counter,
    archive_reconstructions: Counter,
    lane_pumps: Counter,
    lane_drained: Counter,
    lane_queue_depth: Histogram,
    sheds: Counter,
}

impl StackMetrics {
    fn resolve(r: &Registry) -> Self {
        Self {
            engine_searches: r.counter("slin_engine_searches_total", &[]),
            engine_nodes: r.counter("slin_engine_nodes_total", &[]),
            engine_memo_hits: r.counter("slin_engine_memo_hits_total", &[]),
            engine_budget_trips: r.counter("slin_engine_budget_trips_total", &[]),
            ingest_events: r.counter("slin_monitor_ingest_events_total", &[]),
            ingest_fallbacks: r.counter("slin_monitor_fallback_searches_total", &[]),
            frontier_len: r.histogram("slin_monitor_frontier_len", &[]),
            gc_cut_attempts: r.counter("slin_gc_cut_attempts_total", &[]),
            gc_cuts: r.counter("slin_gc_cuts_total", &[]),
            gc_lossy_cuts: r.counter("slin_gc_lossy_cuts_total", &[]),
            gc_blocked_cuts: r.counter("slin_gc_blocked_cuts_total", &[]),
            gc_absorptions: r.counter("slin_gc_absorptions_total", &[]),
            archive_windows: r.counter("slin_archive_windows_total", &[]),
            archive_events: r.counter("slin_archive_events_total", &[]),
            archive_evictions: r.counter("slin_archive_evictions_total", &[]),
            archive_reconstructions: r.counter("slin_archive_reconstructions_total", &[]),
            lane_pumps: r.counter("slin_daemon_lane_pumps_total", &[]),
            lane_drained: r.counter("slin_daemon_lane_drained_total", &[]),
            lane_queue_depth: r.histogram("slin_daemon_lane_queue_depth", &[]),
            sheds: r.counter("slin_daemon_sheds_total", &[]),
        }
    }
}

/// The shipped observer: feeds every event into a [`Registry`] and,
/// when constructed [`with_tracing`](StackObserver::with_tracing), into a
/// bounded [`TraceBuffer`] exportable as a Perfetto-loadable Chrome trace.
pub struct StackObserver {
    registry: Registry,
    metrics: StackMetrics,
    tracer: Option<TraceBuffer>,
}

impl Default for StackObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl StackObserver {
    /// Metrics only — no span collection, no clock reads on the hot path.
    pub fn new() -> Self {
        let registry = Registry::new();
        let metrics = StackMetrics::resolve(&registry);
        Self {
            registry,
            metrics,
            tracer: None,
        }
    }

    /// Metrics plus span tracing with a ring of `capacity` spans.
    pub fn with_tracing(capacity: usize) -> Self {
        let registry = Registry::new();
        let metrics = StackMetrics::resolve(&registry);
        Self {
            registry,
            metrics,
            tracer: Some(TraceBuffer::new(capacity)),
        }
    }

    /// The metrics registry, for exposition
    /// ([`Registry::render_prometheus`], [`Registry::snapshot_json`]) and for
    /// components that register their own series (the daemon's per-tenant
    /// labels live here).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The span collector, if tracing is enabled.
    pub fn tracer(&self) -> Option<&TraceBuffer> {
        self.tracer.as_ref()
    }

    /// Renders the collected spans as Chrome trace-event JSON, or `None`
    /// when tracing is disabled.
    pub fn chrome_trace_json(&self) -> Option<String> {
        self.tracer.as_ref().map(|t| t.chrome_trace_json())
    }

    /// Records a span when a tracer is installed and the event was timed.
    /// The arguments come as an array and become the span's `Vec` only
    /// here: a metrics-only observer allocates nothing per event.
    fn span<const N: usize>(
        &self,
        name: &'static str,
        cat: &'static str,
        t0: Option<Instant>,
        args: [(&'static str, u64); N],
    ) {
        if let (Some(tracer), Some(t0)) = (&self.tracer, t0) {
            tracer.record(name, cat, t0, args.to_vec());
        }
    }
}

impl Observer for StackObserver {
    fn wants_timing(&self) -> bool {
        self.tracer.is_some()
    }

    fn engine_search(&self, ev: &EngineSearchEvent) {
        self.metrics.engine_searches.inc();
        self.metrics.engine_nodes.add(ev.nodes);
        self.metrics.engine_memo_hits.add(ev.memo_hits);
        if ev.budget_exhausted {
            self.metrics.engine_budget_trips.inc();
        }
        self.span(
            "engine.search",
            "engine",
            ev.t0,
            [
                ("site", site_code(ev.site)),
                ("nodes", ev.nodes),
                ("memo_hits", ev.memo_hits),
                ("budget_exhausted", ev.budget_exhausted as u64),
            ],
        );
    }

    fn shard_ingest(&self, ev: &ShardIngestEvent) {
        self.metrics.ingest_events.inc();
        if ev.fell_back {
            self.metrics.ingest_fallbacks.inc();
        }
        self.metrics.frontier_len.record(ev.frontier_len);
        self.span(
            "monitor.ingest",
            "monitor",
            ev.t0,
            [
                ("index", ev.index),
                ("frontier_len", ev.frontier_len),
                ("fell_back", ev.fell_back as u64),
            ],
        );
    }

    fn gc_cut(&self, ev: &GcCutEvent) {
        self.metrics.gc_cut_attempts.inc();
        match ev.outcome {
            CutOutcome::Retired | CutOutcome::RetiredInvokeOnly => self.metrics.gc_cuts.inc(),
            CutOutcome::RetiredLossy => {
                self.metrics.gc_cuts.inc();
                self.metrics.gc_lossy_cuts.inc();
            }
            CutOutcome::Blocked => self.metrics.gc_blocked_cuts.inc(),
        }
        self.span(
            "gc.cut",
            "monitor",
            ev.t0,
            [
                ("outcome", ev.outcome as u64),
                ("window_events", ev.window_events),
            ],
        );
    }

    fn gc_absorption(&self) {
        self.metrics.gc_absorptions.inc();
    }

    fn archive_window(&self, events: u64) {
        self.metrics.archive_windows.inc();
        self.metrics.archive_events.add(events);
    }

    fn archive_eviction(&self) {
        self.metrics.archive_evictions.inc();
    }

    fn archive_reconstruction(&self) {
        self.metrics.archive_reconstructions.inc();
    }

    fn lane_pump(&self, ev: &LanePumpEvent) {
        self.metrics.lane_pumps.inc();
        self.metrics.lane_drained.add(ev.drained);
        self.metrics.lane_queue_depth.record(ev.queue_depth);
        self.span(
            "daemon.lane_pump",
            "daemon",
            ev.t0,
            [
                ("lane", ev.lane),
                ("drained", ev.drained),
                ("queue_depth", ev.queue_depth),
            ],
        );
    }

    fn shed(&self, _tenant: u64) {
        self.metrics.sheds.inc();
    }
}

/// Stable numeric code for a site label, so spans can carry it as a numeric
/// arg (trace-event args in this exporter are numeric-only).
fn site_code(site: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in site.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_reports_nothing_and_skips_clock() {
        let obs = Obs::noop();
        assert!(!obs.enabled());
        assert!(obs.t0().is_none());
        obs.engine_search(EngineSearchEvent {
            site: "t",
            nodes: 1,
            memo_hits: 0,
            budget_exhausted: false,
            t0: None,
        });
    }

    #[test]
    fn stack_observer_counts_and_traces() {
        let stack = Arc::new(StackObserver::with_tracing(16));
        let obs = Obs::new(stack.clone());
        assert!(obs.t0().is_some());
        obs.shard_ingest(ShardIngestEvent {
            index: 0,
            frontier_len: 3,
            fell_back: true,
            t0: obs.t0(),
        });
        obs.gc_cut(GcCutEvent {
            outcome: CutOutcome::Blocked,
            window_events: 8,
            t0: None,
        });
        let page = stack.registry().render_prometheus();
        assert!(page.contains("slin_monitor_ingest_events_total 1"));
        assert!(page.contains("slin_monitor_fallback_searches_total 1"));
        assert!(page.contains("slin_gc_blocked_cuts_total 1"));
        let trace = stack.chrome_trace_json().expect("tracing enabled");
        assert!(trace.contains("monitor.ingest"));
    }

    #[test]
    fn metrics_only_observer_skips_timing() {
        let stack = Arc::new(StackObserver::new());
        let obs = Obs::new(stack);
        assert!(obs.enabled());
        assert!(obs.t0().is_none());
    }
}
