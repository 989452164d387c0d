//! One run of one workload: generate, set up, measure for `--seconds`,
//! check every output against the oracle, and name every metric.
//!
//! The untraced run gives the end-to-end metrics. Interference noise is
//! one-sided, so timings are best-of-passes: throughput from the fastest
//! pass, latency percentiles over each unit's minimum across passes (the
//! input is identical every pass). The traced run gives the per-layer
//! metrics and the ledger and is excluded from end-to-end numbers.

use crate::alloc;
use crate::drive::{run_pass, set_up, PassOutput, Program, OK, VIOLATION};
use crate::json::Json;
use crate::layers;
use crate::ledger::{self, Ledger};
use crate::metrics::{unit_of, END_TO_END, PER_LAYER};
use crate::observer::{Kind, Observed, Site};
use crate::oracle::{expected, mismatches};
use crate::spans::Recorder;
use crate::stats::{median, quantile_sorted, samples_beyond, tail_quantile};
use crate::workloads::{generate, Inputs, Scale, Workload, THREADS};
use slin_obs::CutOutcome;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    /// Negative control: corrupt one output before it is checked.
    pub perturb: bool,
}

/// What a run reports.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` for every metric of the run's kind, in
    /// `metrics.rs` order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable side notes (sample counts, medians, sources).
    pub notes: Vec<String>,
    /// The traced pass's ledger (traced runs only).
    pub ledger: Option<Ledger>,
    /// The traced pass's spans as Chrome trace-event JSON.
    pub trace: Option<Json>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    #[cfg(test)]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value)| {
                (
                    *name,
                    Json::obj(vec![
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(unit_of(name))),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .compact()
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Failed units of one pass: outputs that disagree with the oracle plus
/// anomalies, never more than the units attempted.
fn failed_units(pass: &PassOutput, expected: &[u8], units: usize) -> u64 {
    (mismatches(&pass.outputs, expected) + pass.anomalies).min(units as u64)
}

/// Four batches of program set-ups; a batch is the median set-up time,
/// seconds, over as many set-ups as fit in a four-hundredth of the run (at
/// least five, at most 501). A run takes these before every pass and after
/// the last, and reports its best batch: the median within a batch
/// discards spikes, the best batch discards the slow states of the machine
/// — the same one-sided-noise rule as the timings.
fn setup_batches(inputs: &Inputs, run_seconds: f64, batches: &mut Vec<f64>) {
    let slice = Duration::from_secs_f64(run_seconds / 400.0);
    for _ in 0..4 {
        let started = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < 5 || (samples.len() < 501 && started.elapsed() < slice) {
            let t0 = Instant::now();
            let program = set_up(inputs, None);
            samples.push(t0.elapsed().as_secs_f64());
            drop(black_box(program));
        }
        batches.push(median(&samples));
    }
}

/// Best-of-passes timing over identical passes: every timed call's
/// minimum across passes. Interference is one-sided, so the minimum is
/// the measurement and everything above it is the machine.
struct Best {
    /// Per-call minima, in input order.
    call_ns: Vec<u64>,
    /// The latency units' minima, ascending.
    unit_ns_sorted: Vec<u64>,
}

impl Best {
    fn of(passes: &[&PassOutput]) -> Best {
        let first = passes[0];
        let call_ns: Vec<u64> = (0..first.call_ns.len())
            .map(|c| passes.iter().map(|p| p.call_ns[c]).min().expect("one pass"))
            .collect();
        let mut unit_ns_sorted: Vec<u64> = first
            .unit_calls
            .iter()
            .map(|c| call_ns[*c as usize])
            .collect();
        unit_ns_sorted.sort_unstable();
        Best {
            call_ns,
            unit_ns_sorted,
        }
    }

    /// Events per second over the pass assembled from every call's best
    /// instance.
    fn events_per_s(&self, events: usize) -> f64 {
        events as f64 / (self.call_ns.iter().sum::<u64>() as f64 / 1e9)
    }

    fn latency_us(&self, q: f64) -> f64 {
        quantile_sorted(&self.unit_ns_sorted, q) as f64 / 1e3
    }
}

/// The end-to-end run (`--trace 0`).
pub fn untraced(args: &RunArgs) -> RunResult {
    let inputs = generate(args.workload, args.seed, args.scale);
    let (events, units) = (inputs.events(), inputs.units());
    let clean = args.workload.clean();

    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut passes: Vec<PassOutput> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    // Whole passes only; a further pass starts while at least half of it
    // is expected to fit in what is left of `--seconds`.
    loop {
        setup_batches(&inputs, args.seconds, &mut setups);
        let mut program = set_up(&inputs, None);
        passes.push(run_pass(&inputs, &mut program, clean, None));
        let spent = started.elapsed();
        let per_pass = spent / passes.len() as u32;
        if spent + per_pass / 2 > budget {
            break;
        }
    }
    setup_batches(&inputs, args.seconds, &mut setups);
    let measured_s = started.elapsed().as_secs_f64();
    // Before the oracle runs: its reference searches are not the program.
    let peak_rss = peak_rss_mb();
    let setup_s = setups.iter().copied().fold(f64::MAX, f64::min);

    let oracle = expected(args.workload, args.seed, args.scale, &inputs);
    if args.perturb {
        let first = &mut passes[0].outputs[0];
        *first = if *first == OK { VIOLATION } else { OK };
    }
    let failed: u64 = passes
        .iter()
        .map(|p| failed_units(p, &oracle.codes, units))
        .sum();
    let attempted = (units * passes.len()) as u64;

    let best = Best::of(&passes.iter().collect::<Vec<_>>());
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_ns as f64).collect();
    let value = |name: &str| match name {
        "events_per_s" => best.events_per_s(events),
        "setup_s" => setup_s,
        other => unreachable!("end-to-end metric `{other}` has no measurement"),
    };
    let tail = tail_quantile(units);
    let notes = vec![
        format!(
            "{} passes of {events} events / {units} units in {measured_s:.1}s; oracle: {}",
            passes.len(),
            oracle.source
        ),
        format!(
            "events_per_s: best-of-passes {:.0}, fastest pass {:.0}, median pass {:.0}, rep_spread_frac {:.3}",
            best.events_per_s(events),
            events as f64 / (walls.iter().copied().fold(f64::MAX, f64::min) / 1e9),
            events as f64 / (median(&walls) / 1e9),
            rep_spread(&walls)
        ),
        format!(
            "setup_s: best batch {setup_s:.9}, median batch {:.9}, {} batches",
            median(&setups),
            setups.len()
        ),
        format!(
            "ungated here (see per-layer): p50 {:.1} us, p{:.0} {:.1} us over {units} units ({} samples beyond); peak_rss_mb {peak_rss:.1}",
            best.latency_us(0.50),
            tail * 100.0,
            best.latency_us(tail),
            samples_beyond(units, tail)
        ),
    ];
    RunResult {
        attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .map(|(name, _, _)| (*name, value(name)))
            .collect(),
        notes,
        ledger: None,
        trace: None,
    }
}

/// `(slowest − fastest) ÷ fastest` over pass walls.
fn rep_spread(walls: &[f64]) -> f64 {
    let lo = walls.iter().copied().fold(f64::MAX, f64::min);
    let hi = walls.iter().copied().fold(0.0, f64::max);
    if lo > 0.0 {
        (hi - lo) / lo
    } else {
        0.0
    }
}

/// Sums over the program-side events of one pass.
#[derive(Debug, Default, Clone, Copy)]
struct Seen {
    searches: u64,
    nodes: u64,
    memo_hits: u64,
    by_site_ns: [f64; 4],
    fallbacks: u64,
    /// Time in shard ingests flagged `fell_back` (the daemon's view of
    /// `IngestOutcome::fell_back`).
    fell_back_ingest_ns: f64,
    cuts: u64,
    lossy_cuts: u64,
    blocked_cuts: u64,
    cut_ns: f64,
}

fn site_slot(site: Site) -> usize {
    match site {
        Site::SessionCheck => 0,
        Site::ShardFallback => 1,
        Site::ShardWindowSearch => 2,
        Site::Other => 3,
    }
}

fn summarize(observed: &[Observed]) -> Seen {
    let mut seen = Seen::default();
    for ev in observed {
        match ev.kind {
            Kind::Search {
                site,
                nodes,
                memo_hits,
                ..
            } => {
                seen.searches += 1;
                seen.nodes += nodes;
                seen.memo_hits += memo_hits;
                seen.by_site_ns[site_slot(site)] += ev.dur_ns() as f64;
                seen.fallbacks += (site == Site::ShardFallback) as u64;
            }
            Kind::Cut { outcome } => {
                seen.cut_ns += ev.dur_ns() as f64;
                match outcome {
                    CutOutcome::Blocked => seen.blocked_cuts += 1,
                    CutOutcome::RetiredLossy => {
                        seen.cuts += 1;
                        seen.lossy_cuts += 1;
                    }
                    CutOutcome::Retired | CutOutcome::RetiredInvokeOnly => seen.cuts += 1,
                }
            }
            Kind::Ingest { fell_back: true } => seen.fell_back_ingest_ns += ev.dur_ns() as f64,
            Kind::Ingest { .. } | Kind::LanePump => {}
        }
    }
    seen
}

/// Lane balance over the pumps of a traced daemon pass:
/// `(busy share of lanes × pump time, Σ(max − mean) ÷ Σ max)`.
fn lane_balance(rec: &Recorder) -> (f64, f64) {
    let mut per_pump: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    let mut pump_ns = 0.0;
    for s in &rec.spans {
        match (s.name, s.parent) {
            ("daemon.lane_pump", Some(p)) => per_pump.entry(p).or_default().push(s.dur_ns() as f64),
            ("daemon.pump", _) => pump_ns += s.dur_ns() as f64,
            _ => {}
        }
    }
    let (mut busy, mut max_sum, mut gap_sum) = (0.0, 0.0, 0.0);
    for lanes in per_pump.values() {
        let sum: f64 = lanes.iter().sum();
        let max = lanes.iter().copied().fold(0.0, f64::max);
        busy += sum;
        max_sum += max;
        gap_sum += max - sum / THREADS as f64;
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    (
        ratio(busy, THREADS as f64 * pump_ns),
        ratio(gap_sum, max_sum),
    )
}

/// Mean duration, in milliseconds, of the recorder's spans named `name`.
fn mean_span_ms(rec: &Recorder, name: &str) -> f64 {
    let (mut n, mut total) = (0u64, 0u64);
    for s in rec.spans.iter().filter(|s| s.name == name) {
        n += 1;
        total += s.dur_ns();
    }
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64 / 1e6
    }
}

/// Probes that need the program as the pass left it: a pump on empty
/// queues, a poll over every tenant, one session's `poll_verdict`.
struct Idle {
    pump_spawn_us: f64,
    poll_ns_per_tenant: f64,
    poll_verdict_ns: f64,
}

fn idle_probes(program: &mut Program) -> Idle {
    const CALLS: usize = 20_000;
    let time_polls = |poll: &mut dyn FnMut()| {
        let t0 = Instant::now();
        for _ in 0..CALLS {
            poll();
        }
        t0.elapsed().as_nanos() as f64 / CALLS as f64
    };
    match program {
        Program::Fleet { daemon, .. } => {
            let pumps: Vec<f64> = (0..201)
                .map(|_| {
                    let t0 = Instant::now();
                    black_box(daemon.pump());
                    t0.elapsed().as_nanos() as f64 / 1e3
                })
                .collect();
            let tenants = daemon.tenants().max(1) as f64;
            let polls: Vec<f64> = (0..51)
                .map(|_| {
                    let t0 = Instant::now();
                    black_box(daemon.poll_verdicts());
                    t0.elapsed().as_nanos() as f64 / tenants
                })
                .collect();
            let session = daemon.tenant_session_mut(0).expect("tenant 0 exists");
            Idle {
                pump_spawn_us: median(&pumps),
                poll_ns_per_tenant: median(&polls),
                poll_verdict_ns: time_polls(&mut || {
                    black_box(session.poll_verdict());
                }),
            }
        }
        Program::Streams { sessions, .. } => Idle {
            pump_spawn_us: 0.0,
            poll_ns_per_tenant: 0.0,
            poll_verdict_ns: time_polls(&mut || {
                black_box(sessions[0].poll_verdict());
            }),
        },
        Program::Batch { session, .. } => Idle {
            pump_spawn_us: 0.0,
            poll_ns_per_tenant: 0.0,
            poll_verdict_ns: time_polls(&mut || {
                black_box(session.poll_verdict());
            }),
        },
    }
}

/// The per-layer run (`--trace 1`): plain pass, traced pass, plain pass,
/// then the isolated replays in what is left of `--seconds`.
pub fn traced(args: &RunArgs) -> RunResult {
    let inputs = generate(args.workload, args.seed, args.scale);
    let (events, units) = (inputs.events(), inputs.units());
    let clean = args.workload.clean();
    let started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);

    let plain_pass = || {
        let mut program = set_up(&inputs, None);
        run_pass(&inputs, &mut program, clean, None)
    };
    let plain_a = plain_pass();
    // The program alone: before the traced pass, the replays, the oracle.
    let peak_rss = peak_rss_mb();

    let mut rec = Recorder::new();
    alloc::start();
    let mut program = set_up(&inputs, Some(rec.origin()));
    let traced = run_pass(&inputs, &mut program, clean, Some(&mut rec));
    let counted = alloc::stop();
    rec.adopt(
        traced
            .observed
            .iter()
            .map(|o| (o.name(), o.start_ns, o.end_ns, o.tid)),
    );
    let idle = idle_probes(&mut program);
    drop(program);

    let plain_b = plain_pass();
    let plain_walls = [plain_a.wall_ns as f64, plain_b.wall_ns as f64];
    let plain_best = plain_walls[0].min(plain_walls[1]);
    let best = Best::of(&[&plain_a, &plain_b]);

    // The isolated replays share what is left of `--seconds`, and no
    // less than a sixth of it.
    let left = budget.saturating_sub(started.elapsed()).max(budget / 6);
    let slice = left / 4;
    let (wire, frames) = match &inputs {
        Inputs::Fleet { chunks, .. } => layers::wire(chunks),
        _ => (layers::Wire::default(), Vec::new()),
    };
    let (single_ns_per_event, speedup) = match &inputs {
        Inputs::Fleet {
            chunks, reference, ..
        } => {
            // A prefix of whole chunks, sized to the slice from the plain
            // pass's own pace; the daemon's time for the same chunks is the
            // sum of their unit latencies.
            let share = (slice.as_secs_f64() / (2.0 * plain_best / 1e9)).min(1.0);
            let n_chunks = ((chunks.len() as f64 * share) as usize).clamp(1, chunks.len());
            let n_frames = (n_chunks * crate::workloads::FLEET_CHUNK_FRAMES).min(frames.len());
            let single = layers::sessions_only(&frames[..n_frames], reference.len());
            let daemon_ns: u64 = best.call_ns[..n_chunks].iter().sum();
            (
                single.as_nanos() as f64 / n_frames as f64,
                single.as_nanos() as f64 / daemon_ns.max(1) as f64,
            )
        }
        Inputs::Streams { .. } => (plain_best / events as f64, 0.0),
        Inputs::Traces { .. } => (0.0, 0.0),
    };
    let kernel = layers::kernel(&inputs, slice);
    let peaks = match &inputs {
        Inputs::Streams { streams, window } => layers::stream_peaks(streams, *window, slice),
        // The fleet's tenants are read where the pass left them.
        _ => layers::Peaks {
            live_configs: traced.counts.shard.live_configs,
            multiset_nodes: traced.counts.shard.multiset_nodes,
            window_events: traced.counts.shard.window_events,
        },
    };
    let split_ns_per_event = layers::split_ns_per_event(&inputs);
    let micro = layers::micro(&layers::invoked_inputs(&inputs, &frames));
    let build_us = layers::session_build_us(&inputs);
    let certify_ms = layers::certify_switch_ms();

    let ledger: Ledger = match &inputs {
        Inputs::Fleet { .. } => {
            ledger::fleet(&rec.spans, traced.wall_ns, events, wire.decode_total_ns)
        }
        Inputs::Streams { .. } => ledger::streams(&rec.spans, traced.wall_ns, events),
        Inputs::Traces { .. } => ledger::batch(
            &rec.spans,
            traced.wall_ns,
            events,
            split_ns_per_event * events as f64,
        ),
    };
    let totals = ledger::totals(&rec.spans);
    let span_ns = |name: &str| totals.get(name).map_or(0.0, |t| t.dur_ns as f64);
    // The base of every `*_time_frac`: the time spent checking — summed
    // lane-busy time behind the daemon, the pass wall on one thread.
    let checking_ns = match &inputs {
        Inputs::Fleet { .. } => span_ns("daemon.lane_pump"),
        _ => traced.wall_ns as f64,
    };
    let span_count = |name: &str| totals.get(name).map_or(0.0, |t| t.count as f64);
    let seen = summarize(&traced.observed);
    let counts = traced.counts;
    let (lane_busy_frac, lane_imbalance) = lane_balance(&rec);

    let oracle = expected(args.workload, args.seed, args.scale, &inputs);
    let passes = [&plain_a, &traced, &plain_b];
    let failed: u64 = passes
        .iter()
        .map(|p| failed_units(p, &oracle.codes, units))
        .sum();
    let attempted = (units * passes.len()) as u64;

    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let is_batch = matches!(inputs, Inputs::Traces { .. });
    let traces = if is_batch { units as f64 } else { 0.0 };
    let frames_n = frames.len() as f64;
    let value = |name: &str| -> f64 {
        if let Some(row) = name
            .strip_prefix("ledger.")
            .and_then(|n| n.strip_suffix("_ns_per_event"))
        {
            return if row == "e2e" {
                ledger.e2e_ns_per_event
            } else {
                ledger.row(row)
            };
        }
        match name {
            "latency_p50_us" => best.latency_us(0.50),
            "latency_p99_us" => best.latency_us(tail_quantile(units)),
            "peak_rss_mb" => peak_rss,
            "wire.encode_ns_per_frame" => wire.encode_ns_per_frame,
            "wire.decode_ns_per_frame" => wire.decode_ns_per_frame,
            "wire.bytes_per_frame" => wire.bytes_per_frame,
            "daemon.route_ns_per_frame" => ratio(
                (span_ns("daemon.ingest_bytes") - wire.decode_total_ns).max(0.0),
                frames_n,
            ),
            "daemon.pump_ns_per_event" => ratio(span_ns("daemon.pump"), frames_n),
            "daemon.pump_spawn_us" => idle.pump_spawn_us,
            "daemon.poll_ns_per_tenant" => idle.poll_ns_per_tenant,
            "daemon.queue_depth_peak" => counts.queue_depth_peak as f64,
            "daemon.sheds" => counts.sheds as f64,
            "daemon.lane_busy_frac" => lane_busy_frac,
            "daemon.lane_imbalance" => lane_imbalance,
            "daemon.parallel_speedup" => speedup,
            "session.build_us" => build_us,
            "session.ingest_ns_per_event" => single_ns_per_event,
            "session.poll_verdict_ns" => idle.poll_verdict_ns,
            "session.report_ms" => mean_span_ms(&rec, "session.report"),
            "session.check_mono_us_per_trace" => {
                if is_batch {
                    kernel.us_per_trace
                } else {
                    0.0
                }
            }
            "session.check_auto_us_per_trace" => ratio(plain_best / 1e3, traces),
            "partition.split_ns_per_event" => split_ns_per_event,
            "partition.partitions_mean" => ratio(counts.partitions as f64, traces),
            "partition.remerged" => counts.remerged as f64,
            "partition.fallbacks" => counts.partition_fallbacks as f64,
            "stream.ns_per_node" => ratio(checking_ns, counts.shard.search_nodes as f64),
            "stream.nodes_per_event" => ratio(counts.shard.search_nodes as f64, events as f64),
            "stream.invoke_ns" => ratio(
                ledger.row("stream_invoke") * events as f64,
                span_count("session.ingest.invoke"),
            ),
            "stream.frontier_ns_per_commit" => ratio(
                ledger.row("stream_extend") * events as f64,
                counts.shard.extension_searches as f64,
            ),
            "stream.extension_searches" => counts.shard.extension_searches as f64,
            "stream.frontier_peak" => counts.shard.frontier_peak as f64,
            "stream.retired_events" => counts.shard.retired_events as f64,
            "stream.fallback_searches" => counts.shard.fallback_searches as f64,
            "stream.fallback_ms_mean" => ratio(seen.by_site_ns[1] / 1e6, seen.fallbacks as f64),
            "stream.fallback_time_frac" => match &inputs {
                Inputs::Fleet { .. } => ratio(seen.fell_back_ingest_ns, checking_ns),
                _ => ratio(traced.fell_back_ns as f64, checking_ns),
            },
            "stream.gc_cuts" => seen.cuts as f64,
            "stream.gc_lossy_cuts" => seen.lossy_cuts as f64,
            "stream.gc_blocked_cuts" => seen.blocked_cuts as f64,
            "stream.gc_cut_ms_mean" => {
                ratio(seen.cut_ns / 1e6, (seen.cuts + seen.blocked_cuts) as f64)
            }
            "stream.gc_time_frac" => ratio(seen.cut_ns, checking_ns),
            "stream.peak_live_configs" => peaks.live_configs as f64,
            "stream.peak_multiset_nodes" => peaks.multiset_nodes as f64,
            "stream.peak_window_events" => peaks.window_events as f64,
            "alloc.peak_live_mb" => counted.peak_live as f64 / (1024.0 * 1024.0),
            "engine.searches" => seen.searches as f64,
            "engine.nodes" => seen.nodes as f64,
            "engine.ns_per_node" => kernel.ns_per_node,
            "engine.memo_hit_frac" => ratio(seen.memo_hits as f64, seen.nodes as f64),
            "engine.memo_entries_per_search" => ratio(counts.check_memo_entries as f64, traces),
            "engine.time_frac.session_check" => ratio(seen.by_site_ns[0], checking_ns),
            "engine.time_frac.shard_fallback" => ratio(seen.by_site_ns[1], checking_ns),
            "engine.time_frac.shard_window_search" => ratio(seen.by_site_ns[2], checking_ns),
            "slin.interpretations_per_check" => ratio(counts.interpretations as f64, traces),
            "trace.pmultiset_insert_ns" => micro.pmultiset_insert_ns,
            "trace.pmultiset_hash_ns" => micro.pmultiset_hash_ns,
            "trace.pmultiset_subset_ns" => micro.pmultiset_subset_ns,
            "adt.kv_apply_ns" => micro.kv_apply_ns,
            "analysis.certify_switch_ms" => certify_ms,
            "alloc.allocs_per_event" => ratio(counted.allocs as f64, events as f64),
            "alloc.bytes_per_event" => ratio(counted.bytes as f64, events as f64),
            "ledger.residue_frac" => ledger.residue_frac,
            "obs.trace_overhead_frac" => traced.wall_ns as f64 / plain_best - 1.0,
            "trace.dropped_spans" => traced.dropped_spans as f64,
            "rep_spread_frac" => rep_spread(&plain_walls),
            "failed_frac" => ratio(failed as f64, attempted as f64),
            other => unreachable!("per-layer metric `{other}` has no measurement"),
        }
    };
    let metrics: Vec<(&'static str, f64)> = PER_LAYER
        .iter()
        .map(|(name, _, _)| (*name, value(name)))
        .collect();
    let notes = vec![
        format!(
            "plain/traced/plain passes of {events} events; {} spans; kernel probe {} traces, {} nodes; oracle: {}; {:.1}s",
            rec.spans.len(),
            kernel.traces,
            kernel.nodes,
            oracle.source,
            started.elapsed().as_secs_f64()
        ),
    ];
    RunResult {
        attempted,
        failed,
        metrics,
        notes,
        trace: Some(rec.chrome_trace()),
        ledger: Some(ledger),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One traced pass over quick inputs: the deterministic side of it.
    fn traced_counts(w: Workload) -> (crate::drive::Counts, u64, u64, Vec<u8>) {
        let inputs = generate(w, 5, Scale::Quick);
        let rec = Recorder::new();
        let mut program = set_up(&inputs, Some(rec.origin()));
        let mut rec = rec;
        let pass = run_pass(&inputs, &mut program, w.clean(), Some(&mut rec));
        let seen = summarize(&pass.observed);
        assert_eq!(pass.dropped_spans, 0);
        assert_eq!(pass.anomalies, 0, "{}", w.name());
        (pass.counts, seen.nodes, seen.searches, pass.outputs)
    }

    #[test]
    fn counts_repeat_exactly_across_reps() {
        // `engine.nodes`, `stream.fallback_searches` and the rest are
        // counts, not timings: two reps of one input must agree exactly.
        for w in Workload::ALL {
            let (a, b) = (traced_counts(w), traced_counts(w));
            assert_eq!(a, b, "{}", w.name());
        }
        let (counts, nodes, searches, _) = traced_counts(Workload::StreamHotkey);
        assert!(counts.shard.fallback_searches > 0 && counts.shard.search_nodes > 0);
        assert!(searches >= counts.shard.fallback_searches && nodes > 0);
    }

    #[test]
    fn an_untraced_run_reports_every_end_to_end_metric_and_no_failure() {
        let args = RunArgs {
            workload: Workload::BatchRefute,
            seed: 2,
            seconds: 0.05,
            scale: Scale::Quick,
            perturb: false,
        };
        let clean = untraced(&args);
        assert_eq!(clean.failed, 0);
        assert!(clean.attempted >= 60);
        assert_eq!(clean.metrics.len(), END_TO_END.len());
        assert!(
            clean.metrics.iter().all(|(_, v)| *v > 0.0),
            "{:?}",
            clean.metrics
        );
        let line = Json::parse(&clean.result_line()).expect("the result line is JSON");
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        // The negative control: one perturbed output must fail the run.
        let perturbed = untraced(&RunArgs {
            perturb: true,
            ..args
        });
        assert!(perturbed.failed > 0 && !perturbed.correct());
    }

    #[test]
    fn a_traced_run_reports_every_per_layer_metric_and_a_closing_ledger() {
        for workload in [
            Workload::FleetCalm,
            Workload::StreamStragglers,
            Workload::BatchClean,
        ] {
            let result = traced(&RunArgs {
                workload,
                seed: 2,
                seconds: 0.5,
                scale: Scale::Quick,
                perturb: false,
            });
            assert_eq!(result.failed, 0, "{}", workload.name());
            assert_eq!(result.metrics.len(), PER_LAYER.len());
            assert!(result.metrics.iter().all(|(_, v)| v.is_finite()));
            assert_eq!(result.metric("trace.dropped_spans"), Some(0.0));
            let ledger = result.ledger.expect("traced runs carry a ledger");
            let rows: f64 = ledger.rows.iter().map(|(_, v)| v).sum();
            let closing = rows + ledger.residue_frac * ledger.e2e_ns_per_event;
            assert!((closing - ledger.e2e_ns_per_event).abs() < 1e-6 * ledger.e2e_ns_per_event);
            assert!(
                ledger.residue_frac.abs() <= 0.10,
                "{}: {}",
                workload.name(),
                ledger.residue_frac
            );
        }
    }
}
