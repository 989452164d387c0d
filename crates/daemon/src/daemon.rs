//! The daemon proper: a tenant table of owned [`Session`]s, bounded
//! per-tenant ingress queues with a lossy-shed high-water mark, a
//! lane-sharded worker pool, and a metrics surface.
//!
//! One [`Daemon`] multiplexes many tenants — independent key-spaces, each
//! monitored by its own streaming [`Session`] (possible precisely because
//! sessions own their model and are `'static`). Tenants are sharded into
//! `workers` *lanes* by `tenant_id % workers`; each tenant's stream stays
//! strictly ordered inside its lane, and lanes share nothing, so
//! [`Daemon::pump`] may drain them side by side.
//!
//! Whether it does is decided per pump from the frames actually queued
//! ([`slin_core::partition::fan_out`], the same dispatch the search
//! routine spreads a speculative trace's init interpretations with):
//! `workers` is an
//! **upper bound** on threads, the calling thread
//! always drains lane 0 itself, and the other lanes go to scoped threads
//! only when their backlog is deep enough to repay it (a spawn + join is
//! 16–70 µs per thread against ≈2 µs per event, and a host that takes the
//! second core away makes any fan-out a loss; the constant and the sweep
//! behind it are documented at `fan_out`). A calm fleet — a few dozen
//! frames per pump — therefore drains entirely on the caller and pays for
//! no dispatch; a backlog of hundreds of frames per lane fans out. A lane
//! keeps its thread from pump to pump, so what it allocates is freed where
//! it was allocated. A lane relies only on exclusive ownership of its
//! tenant map between `pump` barriers, which holds trivially on the
//! calling thread and is preserved by scoped threads, so both branches
//! produce the same verdicts, reports and observer events (one
//! `lane_pump` per lane per pump either way);
//! `slin_daemon_pumps_total{dispatch="inline"|"fanned"}` counts which
//! branch a live daemon takes. Long-lived lane workers were prototyped and
//! rejected before this design: lanes moved by value over channels reached
//! 285 k events/s where the inline drain reached 421 k on the same calm
//! fleet, and a thread per `Daemon::new` took set-up from 3.3 to 28.6 µs.
//!
//! Pump and poll touch only tenants with new frames: routing records a
//! tenant in its lane's *dirty* list when its queue turns non-empty, the
//! pump drains exactly those (sorted, so observer events stay in
//! lane-then-tenant order), and [`Daemon::poll_verdicts`] re-polls only
//! tenants drained since the previous poll, keeping the rolled-up counts
//! incrementally.
//!
//! Backpressure: each tenant has a bounded ingress queue. When a decoded
//! frame finds the queue at its high-water mark, the daemon *sheds* — it
//! flips the tenant's session to lossy epoch forcing
//! ([`Session::set_lossy`], i.e. [`GcPolicy::epoch_force`]) and drains the
//! queue inline on the ingest thread. Memory stays bounded on both sides
//! (queue depth never exceeds the capacity; the lossy monitor retires
//! windows it could not complete), at the documented cost: a shed tenant's
//! later would-be violations may downgrade to
//! [`MonitorStatus::Unknown`]. Tenants whose policy disables the lossy
//! shed still drain inline — blocking backpressure without the verdict
//! downgrade.

use crate::wire::{Decoder, Frame, KvAction, WireError};
use slin_adt::{KvInput, KvKeyPartitioner, KvStore};
use slin_analysis::{certify_switch, AnalyzeConfig, SwitchCert};
use slin_core::initrel::ExactInit;
use slin_core::model::ConsistencyModel;
use slin_core::partition::{self, FallbackReason};
use slin_core::session::{Checker, Session, Strategy};
use slin_core::slin::SlinChecker;
use slin_core::stream::{GcPolicy, MonitorStatus};
use slin_obs::{Counter, Gauge, Histogram, LanePumpEvent, Obs, StackObserver};
use slin_trace::PhaseId;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// The per-tenant checker model: speculative linearizability over the KV
/// alphabet for phase pair `(1, 2)` under the exact init relation.
/// Switch-free tenant streams coincide with plain linearizability
/// (Theorem 2); a tenant may close its stream with an abort switch frame,
/// which the session interprets speculatively — per class, when the keyed
/// policy installs the switch-independence certificate.
pub type TenantChecker = SlinChecker<KvStore, ExactInit>;

/// The per-tenant session type: an owned streaming monitor over
/// [`TenantChecker`], sharded by key.
pub type TenantSession = Session<TenantChecker, Vec<KvInput>, KvKeyPartitioner>;

/// The per-tenant witness type (what a successful check returns).
pub type TenantWitness = <TenantChecker as ConsistencyModel<Vec<KvInput>>>::Witness;

/// The per-tenant error type (why a check fails).
pub type TenantError = <TenantChecker as ConsistencyModel<Vec<KvInput>>>::Error;

/// Per-tenant ingestion policy. The GC half is the checker's own
/// [`GcPolicy`] — the daemon adds only the queue bound and the shed
/// decision on top.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantPolicy {
    /// High-water mark of the tenant's ingress queue: reaching it triggers
    /// the shed (inline drain, plus lossy forcing when
    /// [`shed_lossy`](TenantPolicy::shed_lossy) is set).
    pub queue_capacity: usize,
    /// Bounded GC window per shard (`None`: retire nothing — verdicts
    /// byte-identical to batch checking, and each event held once, in its
    /// shard's window, until a switch frame keeps the tenant's record).
    pub window: Option<usize>,
    /// The streaming GC policy, verbatim from the checker.
    pub gc: GcPolicy,
    /// Whether saturation flips the session to lossy epoch forcing
    /// (verdict-downgrade shed). `false` keeps verdicts exact and sheds
    /// only by draining inline (blocking backpressure).
    pub shed_lossy: bool,
    /// Install the process-wide **switch-independence certificate**
    /// (`slin-cert/v2`, certified once per process) on the tenant's
    /// session: past a switch frame the tenant's verdict re-checks its
    /// stream per independence class, switch frames classified too.
    /// Without it a switch frame drops the tenant to monolithic re-checks,
    /// reported as [`FallbackReason::SwitchUncertified`] in the fallback
    /// metrics.
    pub keyed: bool,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        TenantPolicy {
            queue_capacity: 256,
            window: None,
            gc: GcPolicy::default(),
            shed_lossy: true,
            keyed: false,
        }
    }
}

impl TenantPolicy {
    /// Parses a policy from a `key=value` comma list, e.g.
    /// `queue=64,window=16,lossy=true,epoch_force=false,frontier_cap=32`.
    /// Keys: `queue`, `window` (`none` allowed), `lossy`, `keyed`,
    /// `epoch_force`, `frontier_cap`, `archive` (witness-archive depth in
    /// retired windows; `0` disables). Unset keys keep their
    /// defaults; the last three write straight into the embedded
    /// [`GcPolicy`]. Any other key, `frontier_cap=0` and `window=0` are
    /// errors.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut policy = TenantPolicy::default();
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got `{part}`"))?;
            let bad = |e: &dyn std::fmt::Display| format!("bad value for `{key}`: {e}");
            match key {
                "queue" => policy.queue_capacity = value.parse().map_err(|e| bad(&e))?,
                "window" => {
                    policy.window = match value {
                        "none" => None,
                        v => match v.parse().map_err(|e| bad(&e))? {
                            0 => return Err(bad(&"a window holds at least one event")),
                            window => Some(window),
                        },
                    }
                }
                "lossy" => policy.shed_lossy = value.parse().map_err(|e| bad(&e))?,
                "keyed" => policy.keyed = value.parse().map_err(|e| bad(&e))?,
                "epoch_force" => policy.gc.epoch_force = value.parse().map_err(|e| bad(&e))?,
                "frontier_cap" => {
                    policy.gc.frontier_cap = match value.parse().map_err(|e| bad(&e))? {
                        0 => return Err(bad(&"a frontier holds at least one configuration")),
                        cap => cap,
                    }
                }
                "archive" => policy.gc.archive_windows = value.parse().map_err(|e| bad(&e))?,
                other => return Err(format!("unknown policy key `{other}`")),
            }
        }
        Ok(policy)
    }
}

/// Daemon-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct DaemonConfig {
    /// Worker lanes: tenants are sharded `tenant_id % workers`, and
    /// [`Daemon::pump`] drains the lanes on **at most** this many threads,
    /// the calling one included — an upper bound: a pump whose backlog is
    /// too shallow to repay a thread spawn drains every lane on the calling
    /// thread (see the [module docs](self)).
    pub workers: usize,
    /// Policy applied to tenants first seen on the wire (override per
    /// tenant with [`Daemon::set_policy`]).
    pub default_policy: TenantPolicy,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            workers: 4,
            default_policy: TenantPolicy::default(),
        }
    }
}

/// One tenant: its owned session, bounded ingress queue, and counters.
struct Tenant {
    session: TenantSession,
    queue: VecDeque<KvAction>,
    policy: TenantPolicy,
    shedding: bool,
    sheds: u64,
    events: u64,
    /// Registry mirror of `events`, labelled `{tenant="<id>"}`.
    events_metric: Counter,
    /// Whether the tenant is listed in its lane's `dirty` list.
    dirty: bool,
    /// Whether the tenant is listed in its lane's `unpolled` list.
    unpolled: bool,
    /// What this tenant currently contributes to the daemon's rolled-up
    /// counts: its status and fallback as of the poll that last visited it
    /// (`None` until the first).
    polled: Option<(MonitorStatus, Option<FallbackReason>)>,
}

/// The process-wide switch-independence certificate (`slin-cert/v2`) for
/// the daemon's `(KvStore, KvKeyPartitioner, ExactInit)` triple, certified
/// once on the first keyed tenant.
fn shipped_switch_cert() -> &'static SwitchCert {
    static CERT: std::sync::OnceLock<SwitchCert> = std::sync::OnceLock::new();
    CERT.get_or_init(|| {
        certify_switch(&KvStore, &KvKeyPartitioner, &AnalyzeConfig::default())
            .expect("ExactInit decomposes over KvKeyPartitioner's classes")
    })
}

impl Tenant {
    fn new(policy: TenantPolicy, obs: Obs, events_metric: Counter) -> Self {
        let model = SlinChecker::owned(KvStore, ExactInit::new(), PhaseId::FIRST, PhaseId::new(2));
        let builder = Checker::builder(model).partitioner(KvKeyPartitioner);
        let mut builder = if policy.keyed {
            builder
                .switch_certified(shipped_switch_cert())
                .expect("shipped switch certificate covers the tenant triple")
        } else {
            builder
        }
        .strategy(Strategy::Streaming { window: None })
        .gc_policy(policy.gc)
        .observer(obs);
        if let Some(window) = policy.window {
            builder = builder.window(window);
        }
        Tenant {
            session: builder.build(),
            queue: VecDeque::new(),
            policy,
            shedding: false,
            sheds: 0,
            events: 0,
            events_metric,
            dirty: false,
            unpolled: false,
            polled: None,
        }
    }

    /// Drains the ingress queue through the session, in order. Returns the
    /// number of events checked.
    fn drain(&mut self) -> u64 {
        let drained = self.queue.len() as u64;
        if drained == 0 {
            return 0;
        }
        for action in self.queue.drain(..) {
            self.session.ingest(action);
        }
        self.events += drained;
        self.events_metric.add(drained);
        drained
    }
}

/// One lane: the tenants with `tenant_id % workers == lane index`, and
/// which of them have work. A lane is touched by one thread at a time — the
/// ingest thread between pumps, one pump thread during a pump.
#[derive(Default)]
struct Lane {
    tenants: BTreeMap<u64, Tenant>,
    /// Tenants that received a frame since the lane's last pump — what the
    /// pump drains. [`Tenant::dirty`] keeps each id listed once, so the
    /// list is bounded by the tenant count however long a pump is in
    /// coming. A listed tenant's queue may have been drained early (the
    /// shed, [`Daemon::tenant_session_mut`]): draining it again does
    /// nothing.
    dirty: Vec<u64>,
    /// Frames queued across the lane's tenants: its weight in the pump's
    /// dispatch.
    queued: usize,
    /// Tenants created or drained since the last [`Daemon::poll_verdicts`]
    /// — the only ones whose verdict can have moved — each listed once
    /// ([`Tenant::unpolled`]).
    unpolled: Vec<u64>,
}

/// Lists `id` in `list` unless `listed` says it is there already.
fn enlist(listed: &mut bool, list: &mut Vec<u64>, id: u64) {
    if !*listed {
        *listed = true;
        list.push(id);
    }
}

impl Lane {
    /// Drains every dirty tenant in ascending id order and reports the
    /// pump to `obs`. Returns the number of events checked.
    fn pump(&mut self, index: usize, obs: &Obs) -> u64 {
        let t0 = obs.t0();
        self.dirty.sort_unstable();
        let mut queue_depth = 0;
        let mut drained = 0u64;
        for id in self.dirty.drain(..) {
            let tenant = self
                .tenants
                .get_mut(&id)
                .expect("tenants are never removed");
            tenant.dirty = false;
            queue_depth = queue_depth.max(tenant.queue.len());
            drained += tenant.drain();
            enlist(&mut tenant.unpolled, &mut self.unpolled, id);
        }
        self.queued -= drained as usize;
        obs.lane_pump(LanePumpEvent {
            lane: index as u64,
            drained,
            queue_depth: queue_depth as u64,
            t0,
        });
        drained
    }
}

/// Rolled-up verdict counters from one [`Daemon::poll_verdicts`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerdictCounts {
    /// Tenants whose rolling status is [`MonitorStatus::Ok`].
    pub ok: usize,
    /// Tenants at [`MonitorStatus::Violation`].
    pub violation: usize,
    /// Tenants at [`MonitorStatus::IllFormed`].
    pub ill_formed: usize,
    /// Tenants at [`MonitorStatus::SwitchSeen`].
    pub switch_seen: usize,
    /// Tenants at [`MonitorStatus::Unknown`] (budget or lossy shed). No
    /// polled status is [`MonitorStatus::Deferred`]: a poll resolves it
    /// from the tenant's report.
    pub unknown: usize,
    /// Tenants whose status moved since the previous poll.
    pub changed: usize,
}

impl VerdictCounts {
    /// The `status` label of each counter's `slin_daemon_verdicts` gauge,
    /// in [`VerdictCounts::counters`] order.
    const LABELS: [&'static str; 6] = [
        "ok",
        "violation",
        "ill_formed",
        "switch_seen",
        "unknown",
        "changed",
    ];

    /// Every counter, in [`VerdictCounts::LABELS`] order.
    fn counters(&self) -> [usize; 6] {
        [
            self.ok,
            self.violation,
            self.ill_formed,
            self.switch_seen,
            self.unknown,
            self.changed,
        ]
    }

    /// The counter tallying tenants at `status`.
    fn slot(&mut self, status: MonitorStatus) -> &mut usize {
        match status {
            MonitorStatus::Ok => &mut self.ok,
            MonitorStatus::Violation => &mut self.violation,
            MonitorStatus::IllFormed => &mut self.ill_formed,
            MonitorStatus::SwitchSeen => &mut self.switch_seen,
            MonitorStatus::Unknown => &mut self.unknown,
            // `Session::poll_verdict` resolves a deferred status before
            // returning it; should one slip through, it is not a verdict.
            MonitorStatus::Deferred => {
                debug_assert!(false, "a polled status is resolved");
                &mut self.unknown
            }
        }
    }
}

/// Rolled-up fallback counters from one [`Daemon::poll_verdicts`] pass:
/// how many tenants' streaming monitors are currently off the per-class
/// fast path, by [`FallbackReason`]. A keyed tenant (with the switch
/// certificate installed) contributes nothing here even after a switch
/// frame; an unkeyed tenant that saw a switch shows up as
/// `switch_uncertified`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FallbackCounts {
    /// Tenants monolithic because a switch arrived with no
    /// switch-independence certificate installed
    /// ([`FallbackReason::SwitchUncertified`]).
    pub switch_uncertified: usize,
    /// Tenants monolithic because the partitioner could not classify an
    /// input ([`FallbackReason::UnclassifiableInput`]).
    pub unclassifiable_input: usize,
    /// Tenants monolithic because cross-class coupling was detected
    /// ([`FallbackReason::CrossBoundCoupled`]).
    pub cross_bound_coupled: usize,
}

impl FallbackCounts {
    /// The `reason` label of each counter's `slin_daemon_fallback` gauge,
    /// in [`FallbackCounts::counters`] order.
    const LABELS: [&'static str; 3] = [
        "switch_uncertified",
        "unclassifiable_input",
        "cross_bound_coupled",
    ];

    /// Every counter, in [`FallbackCounts::LABELS`] order.
    fn counters(&self) -> [usize; 3] {
        [
            self.switch_uncertified,
            self.unclassifiable_input,
            self.cross_bound_coupled,
        ]
    }

    /// The counter tallying tenants off the fast path for `reason`.
    fn slot(&mut self, reason: FallbackReason) -> &mut usize {
        match reason {
            FallbackReason::SwitchUncertified => &mut self.switch_uncertified,
            FallbackReason::UnclassifiableInput => &mut self.unclassifiable_input,
            FallbackReason::CrossBoundCoupled => &mut self.cross_bound_coupled,
        }
    }

    /// Total tenants off the sharded fast path, any reason.
    pub fn total(&self) -> usize {
        self.counters().iter().sum()
    }
}

/// The daemon's metrics surface (see [`Daemon::metrics`]): a typed
/// point-in-time summary. The serialised expositions are
/// [`Daemon::obs_snapshot_json`] and [`Daemon::render_prometheus`].
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonMetrics {
    /// Live tenants.
    pub tenants: usize,
    /// Frames decoded off the wire.
    pub frames: u64,
    /// Bytes ingested off the wire.
    pub bytes: u64,
    /// Events checked (frames that have passed through a session).
    pub events: u64,
    /// Wall-clock seconds since the daemon started.
    pub elapsed_secs: f64,
    /// Checked events per second of wall clock.
    pub events_per_sec: f64,
    /// 50th-percentile [`Daemon::ingest_bytes`] latency in microseconds,
    /// read from a fixed-memory log-scale histogram (the value is the
    /// upper bound of the bucket holding the quantile).
    pub p50_ingest_us: u64,
    /// 99th-percentile [`Daemon::ingest_bytes`] latency, microseconds
    /// (same log-bucket resolution as `p50_ingest_us`).
    pub p99_ingest_us: u64,
    /// Deepest ingress queue ever observed, across all tenants.
    pub queue_depth_peak: usize,
    /// Tenants currently in the lossy-shed state.
    pub shed_tenants: usize,
    /// Total shed activations (a tenant saturating repeatedly counts each
    /// time it crosses the high-water mark from below).
    pub sheds: u64,
    /// Verdict counters from the most recent [`Daemon::poll_verdicts`].
    pub verdicts: VerdictCounts,
    /// Fallback counters from the most recent [`Daemon::poll_verdicts`]:
    /// tenants whose streams are currently monolithic, by reason.
    pub fallbacks: FallbackCounts,
}

/// Registry handles for the daemon's own series, resolved once at
/// construction (the per-tenant labelled counters resolve lazily, as
/// tenants materialise).
struct DaemonStats {
    frames: Counter,
    bytes: Counter,
    ingest_us: Histogram,
    queue_depth_peak: Gauge,
    tenants: Gauge,
    /// `slin_daemon_pumps_total`, by the dispatch branch the pump took:
    /// `[inline, fanned]`.
    pumps: [Counter; 2],
    /// `slin_daemon_verdicts`, in [`VerdictCounts::LABELS`] order.
    verdicts: [Gauge; 6],
    /// `slin_daemon_fallback`, in [`FallbackCounts::LABELS`] order.
    fallbacks: [Gauge; 3],
}

impl DaemonStats {
    fn resolve(stack: &StackObserver) -> Self {
        let r = stack.registry();
        let verdict =
            |status: &str| r.gauge("slin_daemon_verdicts", &[("status", status.to_string())]);
        let fallback =
            |reason: &str| r.gauge("slin_daemon_fallback", &[("reason", reason.to_string())]);
        DaemonStats {
            frames: r.counter("slin_daemon_frames_total", &[]),
            bytes: r.counter("slin_daemon_bytes_total", &[]),
            ingest_us: r.histogram("slin_daemon_ingest_us", &[]),
            queue_depth_peak: r.gauge("slin_daemon_queue_depth_peak", &[]),
            tenants: r.gauge("slin_daemon_tenants", &[]),
            pumps: ["inline", "fanned"].map(|dispatch| {
                r.counter(
                    "slin_daemon_pumps_total",
                    &[("dispatch", dispatch.to_string())],
                )
            }),
            verdicts: VerdictCounts::LABELS.map(verdict),
            fallbacks: FallbackCounts::LABELS.map(fallback),
        }
    }
}

/// A multi-tenant trace-ingestion daemon: decode, route, check, report.
/// See the [module docs](self) for the architecture.
///
/// Every daemon owns a [`StackObserver`]: its own counters (frames, bytes,
/// sheds, per-tenant events), the fixed-memory ingest-latency histogram,
/// and all engine/monitor/GC metrics from the tenant sessions land in one
/// [`slin_obs::Registry`], exposed via [`Daemon::render_prometheus`] and
/// [`Daemon::obs_snapshot_json`].
pub struct Daemon {
    config: DaemonConfig,
    lanes: Vec<Lane>,
    overrides: BTreeMap<u64, TenantPolicy>,
    decoder: Decoder,
    frames: u64,
    bytes: u64,
    stack: Arc<StackObserver>,
    obs: Obs,
    stats: DaemonStats,
    queue_depth_peak: usize,
    last_verdicts: VerdictCounts,
    last_fallbacks: FallbackCounts,
    started: Instant,
}

impl Daemon {
    /// A daemon with no tenants yet; tenants materialise as their ids
    /// first appear on the wire. Owns a metrics-only [`StackObserver`];
    /// use [`Daemon::with_observer`] to enable span tracing.
    pub fn new(config: DaemonConfig) -> Self {
        Self::with_observer(config, Arc::new(StackObserver::new()))
    }

    /// A daemon reporting into a caller-supplied [`StackObserver`] —
    /// construct it [`StackObserver::with_tracing`] to collect Perfetto
    /// spans alongside the metrics.
    pub fn with_observer(config: DaemonConfig, stack: Arc<StackObserver>) -> Self {
        let workers = config.workers.max(1);
        let stats = DaemonStats::resolve(&stack);
        let obs = Obs::new(stack.clone());
        Daemon {
            config: DaemonConfig { workers, ..config },
            lanes: (0..workers).map(|_| Lane::default()).collect(),
            overrides: BTreeMap::new(),
            decoder: Decoder::new(),
            frames: 0,
            bytes: 0,
            stack,
            obs,
            stats,
            queue_depth_peak: 0,
            last_verdicts: VerdictCounts::default(),
            last_fallbacks: FallbackCounts::default(),
            started: Instant::now(),
        }
    }

    /// The daemon's observer — registry exposition and, when constructed
    /// with tracing, the span collector.
    pub fn observer(&self) -> &Arc<StackObserver> {
        &self.stack
    }

    /// Renders the full metrics registry as a Prometheus text-format page.
    pub fn render_prometheus(&self) -> String {
        self.stack.registry().render_prometheus()
    }

    /// Renders the full metrics registry as a versioned `slin-obs/v1` JSON
    /// snapshot.
    pub fn obs_snapshot_json(&self) -> String {
        self.stack.registry().snapshot_json()
    }

    /// Renders the collected spans as Chrome trace-event JSON (loadable in
    /// Perfetto / `chrome://tracing`), or `None` when the daemon's observer
    /// was built without tracing.
    pub fn chrome_trace_json(&self) -> Option<String> {
        self.stack.chrome_trace_json()
    }

    /// Sets (or replaces, for a not-yet-seen tenant) the policy one tenant
    /// gets when it materialises. Existing tenants keep their session but
    /// adopt the new queue bound and shed mode.
    pub fn set_policy(&mut self, tenant: u64, policy: TenantPolicy) {
        self.overrides.insert(tenant, policy);
        let lane = (tenant % self.config.workers as u64) as usize;
        if let Some(t) = self.lanes[lane].tenants.get_mut(&tenant) {
            t.policy = policy;
        }
    }

    /// Ingests one chunk of the wire byte stream: decodes every complete
    /// frame, routes it to its tenant's queue, and sheds saturated tenants
    /// inline. Returns the number of frames decoded from this chunk.
    /// Partial frames stay buffered for the next chunk; a corrupt stream
    /// returns the wire error (the daemon stays usable, but the byte
    /// stream cannot be resynchronised — drop the connection).
    pub fn ingest_bytes(&mut self, chunk: &[u8]) -> Result<usize, WireError> {
        let t0 = Instant::now();
        self.bytes += chunk.len() as u64;
        self.stats.bytes.add(chunk.len() as u64);
        self.decoder.feed(chunk);
        let mut decoded = 0;
        while let Some(frame) = self.decoder.next_frame()? {
            decoded += 1;
            self.route(frame);
        }
        self.frames += decoded as u64;
        self.stats.frames.add(decoded as u64);
        // Fixed-memory latency record: the histogram's 520 bytes replace
        // the old unbounded `Vec<u64>` of per-chunk samples, which grew
        // without bound on long-lived daemons.
        self.stats
            .ingest_us
            .record(t0.elapsed().as_micros().min(u64::MAX as u128) as u64);
        Ok(decoded)
    }

    fn route(&mut self, frame: Frame) {
        let workers = self.config.workers as u64;
        let lane = &mut self.lanes[(frame.tenant % workers) as usize];
        let (overrides, config, stack, obs) =
            (&self.overrides, &self.config, &self.stack, &self.obs);
        let tenant = lane.tenants.entry(frame.tenant).or_insert_with(|| {
            let policy = overrides
                .get(&frame.tenant)
                .copied()
                .unwrap_or(config.default_policy);
            let events_metric = stack.registry().counter(
                "slin_daemon_tenant_events_total",
                &[("tenant", frame.tenant.to_string())],
            );
            Tenant::new(policy, obs.clone(), events_metric)
        });
        enlist(&mut tenant.dirty, &mut lane.dirty, frame.tenant);
        // A tenant counts in the verdict roll-up from its first frame on.
        enlist(&mut tenant.unpolled, &mut lane.unpolled, frame.tenant);
        tenant.queue.push_back(frame.action);
        lane.queued += 1;
        let depth = tenant.queue.len();
        if depth > self.queue_depth_peak {
            self.queue_depth_peak = depth;
            self.stats.queue_depth_peak.set_max(depth as i64);
        }
        if depth >= tenant.policy.queue_capacity {
            // High-water: shed. Lossy tenants downgrade their monitor to
            // forced epoch cuts (bounded memory, possible Unknown);
            // everyone drains inline, which is the backpressure — the
            // ingest thread pays for the checking it queued.
            if tenant.policy.shed_lossy && !tenant.shedding {
                tenant.session.set_lossy(true);
                tenant.shedding = true;
            }
            if tenant.policy.shed_lossy {
                tenant.sheds += 1;
                self.obs.shed(frame.tenant);
            }
            lane.queued -= tenant.drain() as usize;
        }
    }

    /// Drains every tenant queue that holds frames, lane by lane, on at
    /// most `workers` threads — on the calling thread alone unless the
    /// backlog repays a spawn (see the [module docs](self)). Returns the
    /// number of events checked by this pump pass.
    pub fn pump(&mut self) -> u64 {
        let obs = &self.obs;
        let lanes = self
            .lanes
            .iter_mut()
            .enumerate()
            .map(|(index, lane)| (lane.queued, (index, lane)))
            .collect();
        let (drained, fanned) = partition::fan_out(
            lanes,
            self.config.workers,
            &|(index, lane): (usize, &mut Lane)| lane.pump(index, obs),
        );
        self.stats.pumps[fanned as usize].inc();
        drained.into_iter().sum()
    }

    /// Rolls up every tenant's rolling verdict ([`Session::poll_verdict`] —
    /// cheap, nothing is consumed). Only tenants created or drained since
    /// the previous call are polled — nobody else's status can have moved
    /// — and the counts are adjusted by their difference;
    /// [`VerdictCounts::changed`] counts the polled tenants whose status
    /// moved. The result is also cached for [`Daemon::metrics`].
    pub fn poll_verdicts(&mut self) -> VerdictCounts {
        let (counts, fallbacks) = (&mut self.last_verdicts, &mut self.last_fallbacks);
        counts.changed = 0;
        for lane in &mut self.lanes {
            lane.unpolled.sort_unstable();
            for id in lane.unpolled.drain(..) {
                let tenant = lane
                    .tenants
                    .get_mut(&id)
                    .expect("tenants are never removed");
                tenant.unpolled = false;
                if let Some((status, fallback)) = tenant.polled {
                    *counts.slot(status) -= 1;
                    if let Some(reason) = fallback {
                        *fallbacks.slot(reason) -= 1;
                    }
                }
                let delta = tenant.session.poll_verdict();
                let fallback = tenant.session.fallback();
                *counts.slot(delta.status) += 1;
                counts.changed += delta.changed as usize;
                if let Some(reason) = fallback {
                    *fallbacks.slot(reason) += 1;
                }
                tenant.polled = Some((delta.status, fallback));
            }
        }
        let (counts, fallbacks) = (*counts, *fallbacks);
        self.stats.tenants.set(self.tenants() as i64);
        for (gauge, v) in self.stats.verdicts.iter().zip(counts.counters()) {
            gauge.set(v as i64);
        }
        for (gauge, v) in self.stats.fallbacks.iter().zip(fallbacks.counters()) {
            gauge.set(v as i64);
        }
        counts
    }

    /// Fallback counters from the most recent [`Daemon::poll_verdicts`].
    pub fn fallbacks(&self) -> FallbackCounts {
        self.last_fallbacks
    }

    /// Live tenant count.
    pub fn tenants(&self) -> usize {
        self.lanes.iter().map(|l| l.tenants.len()).sum()
    }

    /// Mutable access to one tenant's session (for final reports and
    /// differential testing). Queued events are drained first so the
    /// session reflects everything ingested for the tenant.
    pub fn tenant_session_mut(&mut self, tenant: u64) -> Option<&mut TenantSession> {
        let lane = &mut self.lanes[(tenant % self.config.workers as u64) as usize];
        let t = lane.tenants.get_mut(&tenant)?;
        lane.queued -= t.drain() as usize;
        // The caller may drive the session directly: re-poll it next time.
        enlist(&mut t.unpolled, &mut lane.unpolled, tenant);
        Some(&mut t.session)
    }

    /// Every live tenant id, ascending.
    pub fn tenant_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .lanes
            .iter()
            .flat_map(|l| l.tenants.keys().copied())
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Whether a tenant is currently in the lossy-shed state.
    pub fn is_shedding(&self, tenant: u64) -> bool {
        let lane = (tenant % self.config.workers as u64) as usize;
        self.lanes[lane]
            .tenants
            .get(&tenant)
            .is_some_and(|t| t.shedding)
    }

    /// The current metrics snapshot.
    pub fn metrics(&self) -> DaemonMetrics {
        let hist = self.stats.ingest_us.inner();
        let pct = |p: f64| -> u64 {
            if hist.count() == 0 {
                return 0;
            }
            hist.quantile(p)
        };
        let events: u64 = self
            .lanes
            .iter()
            .flat_map(|l| l.tenants.values())
            .map(|t| t.events)
            .sum();
        let elapsed = self.started.elapsed().as_secs_f64();
        DaemonMetrics {
            tenants: self.tenants(),
            frames: self.frames,
            bytes: self.bytes,
            events,
            elapsed_secs: elapsed,
            events_per_sec: if elapsed > 0.0 {
                events as f64 / elapsed
            } else {
                0.0
            },
            p50_ingest_us: pct(0.50),
            p99_ingest_us: pct(0.99),
            queue_depth_peak: self.queue_depth_peak,
            shed_tenants: self
                .lanes
                .iter()
                .flat_map(|l| l.tenants.values())
                .filter(|t| t.shedding)
                .count(),
            sheds: self
                .lanes
                .iter()
                .flat_map(|l| l.tenants.values())
                .map(|t| t.sheds)
                .sum(),
            verdicts: self.last_verdicts,
            fallbacks: self.last_fallbacks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_frames, Frame};
    use slin_adt::{KvInput, KvOutput};
    use slin_trace::{Action, ClientId, PhaseId};

    fn put_round(tenant: u64, round: u64) -> [Frame; 2] {
        let (c, p) = (ClientId::new(1), PhaseId::FIRST);
        let input = KvInput::Put(1, round);
        [
            Frame {
                tenant,
                action: Action::invoke(c, p, input),
            },
            Frame {
                tenant,
                action: Action::respond(c, p, input, KvOutput::Ack),
            },
        ]
    }

    #[test]
    fn routes_frames_to_per_tenant_sessions() {
        let mut daemon = Daemon::new(DaemonConfig::default());
        let mut frames = Vec::new();
        for tenant in 0..10u64 {
            frames.extend(put_round(tenant, tenant + 1));
        }
        let bytes = encode_frames(&frames);
        assert_eq!(daemon.ingest_bytes(&bytes).unwrap(), 20);
        assert_eq!(daemon.tenants(), 10);
        assert_eq!(daemon.pump(), 20);
        let counts = daemon.poll_verdicts();
        assert_eq!(counts.ok, 10);
        assert_eq!(counts.violation, 0);
        let m = daemon.metrics();
        assert_eq!(m.events, 20);
        assert_eq!(m.frames, 20);
    }

    #[test]
    fn a_violating_tenant_does_not_taint_its_neighbours() {
        let (c, p) = (ClientId::new(1), PhaseId::FIRST);
        let mut daemon = Daemon::new(DaemonConfig::default());
        let mut frames: Vec<Frame> = put_round(0, 7).into();
        // Tenant 1 reads a value nobody wrote.
        frames.push(Frame {
            tenant: 1,
            action: Action::invoke(c, p, KvInput::Get(1)),
        });
        frames.push(Frame {
            tenant: 1,
            action: Action::respond(c, p, KvInput::Get(1), KvOutput::Found(Some(99))),
        });
        daemon.ingest_bytes(&encode_frames(&frames)).unwrap();
        daemon.pump();
        let counts = daemon.poll_verdicts();
        assert_eq!(counts.ok, 1);
        assert_eq!(counts.violation, 1);
    }

    #[test]
    fn saturation_sheds_and_is_observable_in_metrics() {
        let policy = TenantPolicy {
            queue_capacity: 4,
            window: Some(8),
            ..TenantPolicy::default()
        };
        let mut daemon = Daemon::new(DaemonConfig {
            workers: 2,
            default_policy: policy,
        });
        let mut frames = Vec::new();
        for round in 0..64u64 {
            frames.extend(put_round(5, round + 1));
        }
        daemon.ingest_bytes(&encode_frames(&frames)).unwrap();
        assert!(daemon.is_shedding(5));
        let m = daemon.metrics();
        assert!(m.sheds > 0, "sheds: {}", m.sheds);
        assert_eq!(m.shed_tenants, 1);
        // The queue bound held: depth never exceeded the high-water mark.
        assert!(m.queue_depth_peak <= 4, "peak {}", m.queue_depth_peak);
        daemon.pump();
        assert_eq!(daemon.metrics().events, 128);
    }

    #[test]
    fn policy_spec_parses_into_gc_policy() {
        let p = TenantPolicy::parse(
            "queue=64,window=16,lossy=false,epoch_force=true,frontier_cap=8,keyed=true",
        )
        .unwrap();
        assert_eq!(p.queue_capacity, 64);
        assert_eq!(p.window, Some(16));
        assert!(!p.shed_lossy);
        assert!(p.gc.epoch_force);
        assert_eq!(p.gc.frontier_cap, 8);
        assert!(p.keyed);
        assert!(!TenantPolicy::default().keyed);
        assert!(TenantPolicy::parse("windows=1").is_err());
        assert_eq!(
            TenantPolicy::parse("frontier_cap=0"),
            Err("bad value for `frontier_cap`: a frontier holds at least one configuration".into())
        );
        assert_eq!(
            TenantPolicy::parse("window=0"),
            Err("bad value for `window`: a window holds at least one event".into())
        );
        assert_eq!(TenantPolicy::parse("window=1").unwrap().window, Some(1));
        // Retired knobs are unknown keys like any other: typed errors. (The
        // certificate knob is spelled in halves so that CI's grep keeping
        // it dead in the sources does not match its own pin.)
        for key in [
            "retire_budget",
            "epoch_cuts",
            "extension_budget",
            concat!("require", "_cert"),
        ] {
            assert_eq!(
                TenantPolicy::parse(&format!("{key}=64")),
                Err(format!("unknown policy key `{key}`"))
            );
        }
        assert!(TenantPolicy::parse("queue").is_err());
        assert_eq!(TenantPolicy::parse("").unwrap(), TenantPolicy::default());
    }

    /// A switch frame defers a tenant's rolling status to its report, and
    /// the poll resolves it there: the tenant is counted at its verdict,
    /// and the page has no series for a status no poll returns.
    #[test]
    fn a_switch_frame_tenant_polls_a_resolved_status() {
        let (c, p) = (ClientId::new(1), PhaseId::FIRST);
        let mut daemon = Daemon::new(DaemonConfig::default());
        let mut frames: Vec<Frame> = put_round(0, 7).into();
        frames.push(Frame {
            tenant: 0,
            action: Action::invoke(c, p, KvInput::Get(1)),
        });
        frames.push(Frame {
            tenant: 0,
            action: Action::switch(
                c,
                PhaseId::new(2),
                KvInput::Get(1),
                vec![KvInput::Put(1, 7)],
            ),
        });
        daemon.ingest_bytes(&encode_frames(&frames)).unwrap();
        daemon.pump();
        let counts = daemon.poll_verdicts();
        assert_eq!(
            counts,
            VerdictCounts {
                ok: 1,
                ..VerdictCounts::default()
            }
        );
        let page = daemon.render_prometheus();
        assert!(
            page.contains("slin_daemon_verdicts{status=\"ok\"} 1"),
            "{page}"
        );
        assert!(!page.contains("deferred"), "{page}");
    }

    /// A stream closing with an abort switch: the same frames reach a
    /// keyed tenant (switch certificate installed, re-checked per class)
    /// and an unkeyed one (drops to monolithic re-checks, reported as
    /// `switch_uncertified` in the fallback metrics).
    #[test]
    fn keyed_policy_keeps_switch_streams_sharded_and_fallbacks_are_metered() {
        let mut daemon = Daemon::new(DaemonConfig::default());
        daemon.set_policy(
            1,
            TenantPolicy {
                keyed: true,
                ..TenantPolicy::default()
            },
        );
        let (c, p) = (ClientId::new(1), PhaseId::FIRST);
        let mut frames = Vec::new();
        for tenant in [0u64, 1] {
            frames.extend(put_round(tenant, 7));
            frames.push(Frame {
                tenant,
                action: Action::invoke(c, p, KvInput::Put(2, 9)),
            });
            // Abort out of phase 1 carrying the committed history — the
            // exact init value the next phase would start from.
            frames.push(Frame {
                tenant,
                action: Action::switch(
                    c,
                    PhaseId::new(2),
                    KvInput::Put(2, 9),
                    vec![KvInput::Put(1, 7)],
                ),
            });
        }
        daemon.ingest_bytes(&encode_frames(&frames)).unwrap();
        daemon.pump();
        daemon.poll_verdicts();
        let unkeyed = daemon.tenant_session_mut(0).unwrap().fallback();
        assert_eq!(unkeyed, Some(FallbackReason::SwitchUncertified));
        let keyed = daemon.tenant_session_mut(1).unwrap().fallback();
        assert_eq!(keyed, None, "certified switches must not break sharding");
        let f = daemon.fallbacks();
        assert_eq!(f.switch_uncertified, 1);
        assert_eq!(f.total(), 1);
        let m = daemon.metrics();
        assert_eq!(m.fallbacks, f);
        assert!(daemon
            .render_prometheus()
            .contains("slin_daemon_fallback{reason=\"switch_uncertified\"} 1"));
    }
}
