//! Isolated replays: the same inputs through one public function at a
//! time, for the per-layer numbers a span around a call cannot give
//! (decode inside `ingest_bytes`, the split inside `check`, the
//! single-thread baseline behind the daemon's lanes, the kernel's cost
//! per node).
//!
//! Every replay is time-boxed: it walks a prefix of the inputs until its
//! share of the traced run is spent and reports per-item costs of what it
//! covered.

use crate::drive::{lin_session, mono_phase_session, phase_session, switch_cert, tenant_checker};
use crate::stats::median;
use crate::workloads::{Inputs, LinAction, FLEET_WINDOW};
use slin_adt::{Adt, KvInput, KvKeyPartitioner, KvStore};
use slin_core::lin::LinChecker;
use slin_core::partition::{split_trace, split_trace_keyed};
use slin_core::session::{Checker, Session, Strategy};
use slin_daemon::wire::{encode_frame, Decoder, Frame, KvAction};
use slin_obs::Obs;
use slin_trace::{PersistentMultiset, Trace};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// `wire.*`: encode and decode the workload's own frames.
#[derive(Debug, Default, Clone, Copy)]
pub struct Wire {
    pub encode_ns_per_frame: f64,
    pub decode_ns_per_frame: f64,
    pub bytes_per_frame: f64,
    /// Decode-only time for all chunks: what `ingest_bytes` would cost if
    /// it did no routing.
    pub decode_total_ns: f64,
}

pub fn wire(chunks: &[Vec<u8>]) -> (Wire, Vec<Frame>) {
    let bytes: usize = chunks.iter().map(Vec::len).sum();
    let mut frames: Vec<Frame> = Vec::new();
    let mut decode_total = f64::MAX;
    // Best of three: decode is tens of nanoseconds per frame, and the
    // first walk pays for cold caches.
    for _ in 0..3 {
        frames.clear();
        let mut decoder = Decoder::new();
        let t0 = Instant::now();
        for chunk in chunks {
            decoder.feed(chunk);
            while let Some(frame) = decoder.next_frame().expect("generated chunks decode") {
                frames.push(frame);
            }
        }
        decode_total = decode_total.min(ns(t0.elapsed()));
    }
    let mut encode_total = f64::MAX;
    let mut buf = Vec::with_capacity(bytes);
    for _ in 0..3 {
        buf.clear();
        let t0 = Instant::now();
        for frame in &frames {
            encode_frame(&mut buf, frame);
        }
        encode_total = encode_total.min(ns(t0.elapsed()));
        black_box(&buf);
    }
    let n = frames.len().max(1) as f64;
    (
        Wire {
            encode_ns_per_frame: encode_total / n,
            decode_ns_per_frame: decode_total / n,
            bytes_per_frame: bytes as f64 / n,
            decode_total_ns: decode_total,
        },
        frames,
    )
}

/// A tenant session built the way the daemon builds one under the
/// `fleet-calm` policy.
fn tenant_session() -> slin_daemon::TenantSession {
    Checker::builder(tenant_checker())
        .partitioner(KvKeyPartitioner)
        .strategy(Strategy::Streaming { window: None })
        .window(FLEET_WINDOW)
        .build()
}

/// The single-thread baseline behind the daemon's lanes: the first
/// `frames` frames through per-tenant sessions on one thread, no wire, no
/// queues, no lanes. Returns the wall time.
pub fn sessions_only(frames: &[Frame], tenants: usize) -> Duration {
    let mut sessions: Vec<_> = (0..tenants).map(|_| tenant_session()).collect();
    let t0 = Instant::now();
    for frame in frames {
        black_box(sessions[frame.tenant as usize].ingest(frame.action.clone()));
    }
    t0.elapsed()
}

/// Median build time of one session of the workload's kind, microseconds.
pub fn session_build_us(inputs: &Inputs) -> f64 {
    let cert = matches!(inputs, Inputs::Traces { .. }).then(switch_cert);
    let samples: Vec<f64> = (0..201)
        .map(|_| {
            let t0 = Instant::now();
            match inputs {
                Inputs::Fleet { .. } => drop(black_box(tenant_session())),
                Inputs::Streams { window, .. } => {
                    drop(black_box(lin_session(*window, Obs::noop())))
                }
                Inputs::Traces { .. } => drop(black_box(phase_session(
                    cert.as_ref().expect("batch workloads certify"),
                    Obs::noop(),
                ))),
            }
            ns(t0.elapsed()) / 1e3
        })
        .collect();
    median(&samples)
}

/// Median `certify_switch` time, milliseconds.
pub fn certify_switch_ms() -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            black_box(switch_cert());
            ns(t0.elapsed()) / 1e6
        })
        .collect();
    median(&samples)
}

/// The kernel measured directly: monolithic single-thread checks over a
/// prefix of the workload's traces.
#[derive(Debug, Default, Clone, Copy)]
pub struct Kernel {
    /// Monolithic check wall ÷ `Verdict.stats.nodes`.
    pub ns_per_node: f64,
    /// Monolithic check wall per trace, microseconds.
    pub us_per_trace: f64,
    pub nodes: u64,
    pub traces: u64,
}

/// Node budget of one kernel-probe search on stream workloads: a capped
/// search still measures wall ÷ nodes, and an uncapped monolithic search
/// of a hostile stream has no useful bound.
const PROBE_BUDGET: usize = 200_000;

pub fn kernel(inputs: &Inputs, box_: Duration) -> Kernel {
    let deadline = Instant::now() + box_;
    let mut wall = Duration::ZERO;
    let mut k = Kernel::default();
    let mut probe = |check: &mut dyn FnMut() -> usize| {
        let t0 = Instant::now();
        let nodes = check();
        wall += t0.elapsed();
        k.nodes += nodes as u64;
        k.traces += 1;
        Instant::now() < deadline
    };
    match inputs {
        Inputs::Fleet { reference, .. } => {
            let mut session: Session<_, Vec<KvInput>, KvKeyPartitioner> =
                Checker::builder(tenant_checker())
                    .partitioner(KvKeyPartitioner)
                    .strategy(Strategy::Monolithic)
                    .threads(1)
                    .budget(PROBE_BUDGET)
                    .build();
            for t in reference {
                if !probe(&mut || session.check(t).stats.nodes) {
                    break;
                }
            }
        }
        Inputs::Streams { streams, .. } => {
            let mut session: Session<_, (), KvKeyPartitioner> =
                Checker::builder(LinChecker::owned(KvStore))
                    .partitioner(KvKeyPartitioner)
                    .strategy(Strategy::Monolithic)
                    .threads(1)
                    .budget(PROBE_BUDGET)
                    .build();
            for t in streams {
                if !probe(&mut || session.check(t).stats.nodes) {
                    break;
                }
            }
        }
        Inputs::Traces { traces } => {
            let mut session = mono_phase_session();
            for t in traces {
                if !probe(&mut || session.check(t).stats.nodes) {
                    break;
                }
            }
        }
    }
    k.ns_per_node = ns(wall) / k.nodes.max(1) as f64;
    k.us_per_trace = ns(wall) / 1e3 / k.traces.max(1) as f64;
    k
}

/// `partition.split_ns_per_event`: the classifier and splitter alone.
pub fn split_ns_per_event(inputs: &Inputs) -> f64 {
    fn time<A>(traces: &[Trace<A>], mut split: impl FnMut(&Trace<A>)) -> f64 {
        let events: usize = traces.iter().map(Trace::len).sum();
        let t0 = Instant::now();
        for t in traces {
            split(t);
        }
        ns(t0.elapsed()) / events.max(1) as f64
    }
    match inputs {
        Inputs::Fleet { reference, .. } => time(reference, |t: &Trace<KvAction>| {
            black_box(split_trace(&KvKeyPartitioner, t));
        }),
        Inputs::Streams { streams, .. } => time(streams, |t: &Trace<LinAction>| {
            black_box(split_trace(&KvKeyPartitioner, t));
        }),
        Inputs::Traces { traces } => time(traces, |t: &Trace<KvAction>| {
            black_box(split_trace_keyed(&KvKeyPartitioner, t));
        }),
    }
}

/// Peaks of the retained-state proxies, sampled from `Session::report`
/// every [`SAMPLE_EVERY`] events of a replay (streams) — sampling is a
/// replay of its own because `report` re-searches the retained window.
#[derive(Debug, Default, Clone, Copy)]
pub struct Peaks {
    pub live_configs: u64,
    pub multiset_nodes: u64,
    pub window_events: u64,
}

const SAMPLE_EVERY: usize = 64;

pub fn stream_peaks(streams: &[Trace<LinAction>], window: usize, box_: Duration) -> Peaks {
    let deadline = Instant::now() + box_;
    let mut peaks = Peaks::default();
    for stream in streams {
        let mut session = lin_session(window, Obs::noop());
        for (i, action) in stream.iter().enumerate() {
            session.ingest(action.clone());
            if (i + 1) % SAMPLE_EVERY == 0 || i + 1 == stream.len() {
                let shard = session.report().expect("streaming").shard;
                peaks.live_configs = peaks.live_configs.max(shard.live_configs as u64);
                peaks.multiset_nodes = peaks.multiset_nodes.max(shard.multiset_nodes as u64);
                peaks.window_events = peaks.window_events.max(shard.window_events as u64);
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    peaks
}

/// The inputs the workload's invocations carry, for the data-structure
/// micro-replays below.
pub fn invoked_inputs(inputs: &Inputs, frames: &[Frame]) -> Vec<KvInput> {
    let mut out: Vec<KvInput> = match inputs {
        Inputs::Fleet { .. } => frames
            .iter()
            .filter(|f| f.action.is_invoke())
            .map(|f| *f.action.input())
            .collect(),
        Inputs::Streams { streams, .. } => streams
            .iter()
            .flat_map(|s| s.iter())
            .filter(|a| a.is_invoke())
            .map(|a| *a.input())
            .collect(),
        Inputs::Traces { traces } => traces
            .iter()
            .flat_map(|t| t.iter())
            .filter(|a| a.is_invoke())
            .map(|a| *a.input())
            .collect(),
    };
    out.truncate(8192);
    out
}

/// `trace.pmultiset_*` and `adt.kv_apply_ns`: the structures under every
/// search node, fed the workload's own inputs in windows of 32.
#[derive(Debug, Default, Clone, Copy)]
pub struct Micro {
    pub pmultiset_insert_ns: f64,
    pub pmultiset_hash_ns: f64,
    pub pmultiset_subset_ns: f64,
    pub kv_apply_ns: f64,
}

pub fn micro(inputs: &[KvInput]) -> Micro {
    if inputs.is_empty() {
        return Micro::default();
    }
    const ROUNDS: usize = 8;
    let mut m = Micro {
        pmultiset_insert_ns: f64::MAX,
        pmultiset_hash_ns: f64::MAX,
        pmultiset_subset_ns: f64::MAX,
        kv_apply_ns: f64::MAX,
    };
    let n = inputs.len() as f64;
    for _ in 0..ROUNDS {
        // Cumulative snapshots, as a shard keeps one per window position.
        let mut snapshots: Vec<PersistentMultiset<KvInput>> = Vec::with_capacity(inputs.len());
        let t0 = Instant::now();
        for window in inputs.chunks(32) {
            let mut ms = PersistentMultiset::new();
            for input in window {
                ms.insert(*input);
                snapshots.push(ms.clone());
            }
        }
        m.pmultiset_insert_ns = m.pmultiset_insert_ns.min(ns(t0.elapsed()) / n);

        let t0 = Instant::now();
        let mut acc = 0u64;
        for s in &snapshots {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            acc ^= h.finish();
        }
        black_box(acc);
        m.pmultiset_hash_ns = m.pmultiset_hash_ns.min(ns(t0.elapsed()) / n);

        let t0 = Instant::now();
        let mut subsets = 0usize;
        for pair in snapshots.windows(2) {
            subsets += pair[0].is_subset_of(&pair[1]) as usize;
        }
        black_box(subsets);
        m.pmultiset_subset_ns = m
            .pmultiset_subset_ns
            .min(ns(t0.elapsed()) / (n - 1.0).max(1.0));

        let adt = KvStore;
        let mut state = adt.initial();
        let t0 = Instant::now();
        for input in inputs {
            let (next, output) = adt.apply(&state, input);
            black_box(output);
            state = next;
        }
        m.kv_apply_ns = m.kv_apply_ns.min(ns(t0.elapsed()) / n);
    }
    m
}
