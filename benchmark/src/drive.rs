//! Driving the program: set-up (what `setup_s` times) and one closed-loop
//! pass of a workload's inputs through public API only —
//! `Daemon::{ingest_bytes, pump, poll_verdicts}`,
//! `Session::{ingest, check, report, poll_verdict}`.
//!
//! Load model: closed loop, one caller, replay of pre-generated inputs.
//! The real transport is a bounded channel with back-pressure, so the
//! producer waits for the consumer; one caller replaying is that loop
//! with the channel removed.

use crate::observer::{from_stack, BenchObserver, Observed};
use crate::spans::Recorder;
use crate::workloads::{Inputs, FLEET_QUEUE, FLEET_WINDOW, THREADS};
use slin_adt::{KvInput, KvKeyPartitioner, KvStore};
use slin_analysis::{certify_switch, AnalyzeConfig, SwitchCert};
use slin_core::gen::phase_trace_bounds;
use slin_core::initrel::ExactInit;
use slin_core::lin::LinChecker;
use slin_core::session::{Checker, Session, Strategy};
use slin_core::slin::{SlinChecker, SlinError};
use slin_core::stream::{MonitorStatus, ShardSummary};
use slin_daemon::{Daemon, DaemonConfig, TenantPolicy};
use slin_obs::{Obs, StackObserver};
use slin_trace::PhaseId;
use std::sync::Arc;
use std::time::Instant;

/// The streaming session of `stream-*`: plain linearizability, per-key
/// shards.
pub type LinSession = Session<LinChecker<KvStore>, (), KvKeyPartitioner>;
/// The batch session of `batch-*`: speculative linearizability over phase
/// traces.
pub type PhaseSession = Session<SlinChecker<KvStore, ExactInit>, Vec<KvInput>, KvKeyPartitioner>;

/// Verdict codes compared against the oracle.
pub const OK: u8 = 0;
pub const VIOLATION: u8 = 1;
/// Budget exhausted, too many interpretations, or a lossy downgrade: the
/// program gave no verdict.
pub const UNKNOWN: u8 = 2;
pub const OTHER: u8 = 3;

pub fn status_code(status: MonitorStatus) -> u8 {
    match status {
        MonitorStatus::Ok => OK,
        MonitorStatus::Violation => VIOLATION,
        MonitorStatus::Unknown => UNKNOWN,
        _ => OTHER,
    }
}

pub fn slin_code<W>(outcome: &Result<W, SlinError>) -> u8 {
    match outcome {
        Ok(_) => OK,
        Err(SlinError::NotSpeculativelyLinearizable { .. }) => VIOLATION,
        Err(SlinError::BudgetExhausted { .. } | SlinError::TooManyInterpretations { .. }) => {
            UNKNOWN
        }
        Err(_) => OTHER,
    }
}

/// The daemon configuration of `fleet-calm`.
pub fn fleet_config() -> DaemonConfig {
    DaemonConfig {
        workers: THREADS,
        default_policy: TenantPolicy {
            queue_capacity: FLEET_QUEUE,
            window: Some(FLEET_WINDOW),
            ..TenantPolicy::default()
        },
    }
}

/// The per-tenant model the daemon checks with (`slin_daemon::TenantChecker`
/// as `Tenant::new` builds it): speculative linearizability over phases
/// `(1, 2)` under the exact init relation.
pub fn tenant_checker() -> slin_daemon::TenantChecker {
    SlinChecker::owned(KvStore, ExactInit::new(), PhaseId::FIRST, PhaseId::new(2))
}

/// One `stream-*` session.
pub fn lin_session(window: usize, obs: Obs) -> LinSession {
    Checker::builder(LinChecker::owned(KvStore))
        .partitioner(KvKeyPartitioner)
        .strategy(Strategy::Streaming {
            window: Some(window),
        })
        .threads(THREADS)
        .observer(obs)
        .build()
}

/// The switch-independence certificate `batch-*` sessions install.
pub fn switch_cert() -> SwitchCert {
    certify_switch(&KvStore, &KvKeyPartitioner, &AnalyzeConfig::default())
        .expect("the shipped kv partitioner is switch-independent under ExactInit")
}

/// The `batch-*` session: `Strategy::Auto` with the switch certificate.
pub fn phase_session(cert: &SwitchCert, obs: Obs) -> PhaseSession {
    let (m, n) = phase_trace_bounds();
    Checker::builder(SlinChecker::owned(KvStore, ExactInit::new(), m, n))
        .partitioner(KvKeyPartitioner)
        .switch_certified(cert)
        .expect("the certificate names KvKeyPartitioner")
        .threads(THREADS)
        .observer(obs)
        .build()
}

/// The reference session of the oracle: one monolithic search, one thread.
pub fn mono_phase_session() -> PhaseSession {
    let (m, n) = phase_trace_bounds();
    Checker::builder(SlinChecker::owned(KvStore, ExactInit::new(), m, n))
        .partitioner(KvKeyPartitioner)
        .strategy(Strategy::Monolithic)
        .threads(1)
        .build()
}

/// The program, set up and ready for its first input.
pub enum Program {
    Fleet {
        daemon: Box<Daemon>,
        stack: Option<Arc<StackObserver>>,
    },
    Streams {
        sessions: Vec<LinSession>,
        observer: Option<Arc<BenchObserver>>,
    },
    Batch {
        session: PhaseSession,
        observer: Option<Arc<BenchObserver>>,
    },
}

/// Program set-up — certification, `Daemon::new`, session builds — and
/// nothing of the generator. `traced` installs the observers on the clock
/// that started at the given instant.
pub fn set_up(inputs: &Inputs, traced: Option<Instant>) -> Program {
    let observer = traced.map(|origin| Arc::new(BenchObserver::new(origin)));
    let obs = || match &observer {
        Some(o) => Obs::new(o.clone()),
        None => Obs::noop(),
    };
    match inputs {
        Inputs::Fleet { .. } => match traced {
            // Every event leaves a `monitor.ingest` span: the ring must
            // hold them all for `trace.dropped_spans` to stay 0.
            Some(_) => {
                let stack = Arc::new(StackObserver::with_tracing(1 << 21));
                Program::Fleet {
                    daemon: Box::new(Daemon::with_observer(fleet_config(), stack.clone())),
                    stack: Some(stack),
                }
            }
            None => Program::Fleet {
                daemon: Box::new(Daemon::new(fleet_config())),
                stack: None,
            },
        },
        Inputs::Streams { streams, window } => Program::Streams {
            sessions: streams
                .iter()
                .map(|_| lin_session(*window, obs()))
                .collect(),
            observer: observer.clone(),
        },
        Inputs::Traces { .. } => Program::Batch {
            session: phase_session(&switch_cert(), obs()),
            observer: observer.clone(),
        },
    }
}

/// Deterministic counts read off the program after the clock stopped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub shard: ShardTotals,
    /// `Verdict.stats` summed over `Session::check` calls.
    pub check_memo_entries: u64,
    pub interpretations: u64,
    pub partitions: u64,
    pub remerged: u64,
    pub partition_fallbacks: u64,
    pub sheds: u64,
    pub queue_depth_peak: u64,
}

/// `ShardSummary` summed over sessions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardTotals {
    pub extension_searches: u64,
    pub fallback_searches: u64,
    pub frontier_peak: u64,
    pub retired_events: u64,
    pub search_nodes: u64,
    pub live_configs: u64,
    pub multiset_nodes: u64,
    pub window_events: u64,
}

impl ShardTotals {
    pub fn absorb(&mut self, s: &ShardSummary) {
        self.extension_searches += s.extension_searches as u64;
        self.fallback_searches += s.fallback_searches as u64;
        self.frontier_peak = self.frontier_peak.max(s.frontier_peak as u64);
        self.retired_events += s.retired_events as u64;
        self.search_nodes += s.search_nodes as u64;
        self.live_configs += s.live_configs as u64;
        self.multiset_nodes += s.multiset_nodes as u64;
        self.window_events += s.window_events as u64;
    }
}

/// What one pass produced.
pub struct PassOutput {
    /// First input to last verdict.
    pub wall_ns: u64,
    /// Latency of every timed call (chunk, `ingest`, `check`), in input
    /// order; their sum is the pass wall minus the harness loop.
    pub call_ns: Vec<u64>,
    /// Which of `call_ns` are latency units (verdict-bearing), by index.
    pub unit_calls: Vec<u32>,
    /// Verdict codes, compared element-wise with the oracle's.
    pub outputs: Vec<u8>,
    /// Units that went wrong in a way no verdict code shows: decode or
    /// pump miscounts, sheds, lossy cuts, abandoned decompositions on
    /// clean input.
    pub anomalies: u64,
    pub counts: Counts,
    /// Time in `Session::ingest` calls whose `IngestOutcome::fell_back`
    /// was set (`stream-*`): the fallback re-search plus whatever cut it
    /// made due in the same call.
    pub fell_back_ns: u64,
    /// Program-side events of a traced pass.
    pub observed: Vec<Observed>,
    /// Spans the program's own ring dropped (traced daemon passes).
    pub dropped_spans: u64,
}

/// Times `$call` as a span when a recorder is present, else runs it bare.
macro_rules! spanned {
    ($rec:expr, $name:expr, $unit:expr, $call:expr) => {{
        match $rec.as_deref_mut() {
            Some(r) => {
                let id = r.enter($name, $unit as u64);
                let out = $call;
                r.exit(id);
                out
            }
            None => $call,
        }
    }};
}

/// Replays `inputs` through a freshly set-up `program` once. `clean` inputs must not make
/// the program abandon a decomposition. With a recorder the pass is
/// traced: a span around every public call.
pub fn run_pass(
    inputs: &Inputs,
    program: &mut Program,
    clean: bool,
    mut rec: Option<&mut Recorder>,
) -> PassOutput {
    let mut out = PassOutput {
        wall_ns: 0,
        call_ns: Vec::with_capacity(inputs.events().min(1 << 20)),
        unit_calls: Vec::with_capacity(inputs.units()),
        outputs: Vec::new(),
        anomalies: 0,
        fell_back_ns: 0,
        counts: Counts::default(),
        observed: Vec::new(),
        dropped_spans: 0,
    };
    match (inputs, program) {
        (
            Inputs::Fleet {
                chunks, reference, ..
            },
            Program::Fleet { daemon, stack },
        ) => {
            let started = Instant::now();
            for (unit, chunk) in chunks.iter().enumerate() {
                let t0 = Instant::now();
                let scope = rec
                    .as_deref_mut()
                    .map(|r| r.enter("unit.chunk", unit as u64));
                let decoded =
                    spanned!(rec, "daemon.ingest_bytes", unit, daemon.ingest_bytes(chunk));
                let pumped = spanned!(rec, "daemon.pump", unit, daemon.pump());
                let verdicts = spanned!(rec, "daemon.poll_verdicts", unit, daemon.poll_verdicts());
                if let (Some(r), Some(id)) = (rec.as_deref_mut(), scope) {
                    r.exit(id);
                }
                out.unit_calls.push(out.call_ns.len() as u32);
                out.call_ns.push(t0.elapsed().as_nanos() as u64);
                let frames = decoded.unwrap_or(0);
                let wrong = frames == 0
                    || pumped != frames as u64
                    || (clean && verdicts.ok != daemon.tenants());
                out.anomalies += wrong as u64;
            }
            out.wall_ns = started.elapsed().as_nanos() as u64;
            let metrics = daemon.metrics();
            out.counts.sheds = metrics.sheds;
            out.counts.queue_depth_peak = metrics.queue_depth_peak as u64;
            out.anomalies += metrics.sheds + metrics.shed_tenants as u64;
            if clean {
                out.anomalies += daemon.fallbacks().total() as u64;
            }
            for tenant in 0..reference.len() as u64 {
                match daemon.tenant_session_mut(tenant) {
                    Some(session) => {
                        out.outputs.push(status_code(session.poll_verdict().status));
                        // The forensic report is only read on traced
                        // passes: it re-searches every retained window.
                        if rec.is_some() {
                            let report = spanned!(rec, "session.report", tenant, session.report());
                            if let Some(report) = report {
                                out.counts.shard.absorb(&report.shard);
                            }
                        }
                    }
                    None => out.outputs.push(OTHER),
                }
            }
            if let (Some(stack), Some(r)) = (stack, rec.as_deref()) {
                (out.observed, out.dropped_spans) = from_stack(stack, r.origin());
            }
        }
        (Inputs::Streams { streams, .. }, Program::Streams { sessions, observer }) => {
            let started = Instant::now();
            let mut unit = 0u64;
            for (stream, session) in streams.iter().zip(sessions.iter_mut()) {
                for action in stream.iter() {
                    let verdict_bearing = !action.is_invoke();
                    let name = if verdict_bearing {
                        "session.ingest.respond"
                    } else {
                        "session.ingest.invoke"
                    };
                    let action = action.clone();
                    let t0 = Instant::now();
                    let outcome = spanned!(rec, name, unit, session.ingest(action));
                    let ns = t0.elapsed().as_nanos() as u64;
                    if outcome.fell_back {
                        out.fell_back_ns += ns;
                    }
                    if verdict_bearing {
                        out.unit_calls.push(out.call_ns.len() as u32);
                        out.outputs.push(status_code(outcome.status));
                        unit += 1;
                    }
                    out.call_ns.push(ns);
                }
            }
            out.wall_ns = started.elapsed().as_nanos() as u64;
            for (k, session) in sessions.iter_mut().enumerate() {
                let report = spanned!(rec, "session.report", k, session.report())
                    .expect("a streaming session always reports");
                out.outputs.push(if report.verdict.is_ok() {
                    OK
                } else {
                    VIOLATION
                });
                out.counts.shard.absorb(&report.shard);
                out.anomalies += report.shard.lossy_cuts as u64;
                out.anomalies += (clean && report.fallback.is_some()) as u64;
            }
            if let Some(o) = observer {
                out.observed = o.take();
            }
        }
        (Inputs::Traces { traces }, Program::Batch { session, observer }) => {
            let started = Instant::now();
            for (unit, trace) in traces.iter().enumerate() {
                let t0 = Instant::now();
                let verdict = spanned!(rec, "session.check", unit, session.check(trace));
                out.unit_calls.push(out.call_ns.len() as u32);
                out.call_ns.push(t0.elapsed().as_nanos() as u64);
                out.outputs.push(slin_code(&verdict.outcome));
                out.counts.check_memo_entries += verdict.stats.memo_entries as u64;
                out.counts.interpretations += verdict.stats.interpretations as u64;
                match &verdict.partition {
                    Some(p) => {
                        out.counts.partitions += p.partitions as u64;
                        out.counts.remerged += p.remerged as u64;
                        out.counts.partition_fallbacks += p.fallback.is_some() as u64;
                        out.anomalies += (clean && p.fallback.is_some()) as u64;
                    }
                    // A certified session that did not partition at all
                    // has abandoned the decomposition.
                    None => out.anomalies += 1,
                }
            }
            out.wall_ns = started.elapsed().as_nanos() as u64;
            if let Some(o) = observer {
                out.observed = o.take();
            }
        }
        _ => unreachable!("the program was set up from these inputs"),
    }
    out
}
