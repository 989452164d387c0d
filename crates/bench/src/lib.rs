//! Benchmark harness reproducing the paper's performance claims.
//!
//! The paper has no empirical tables — its performance statements are
//! analytic (Quorum decides in 2 message delays versus Paxos's 3+;
//! registers beat CAS when there is no contention; modular phases avoid the
//! O(n²) ad-hoc switching cases). This crate turns each claim into a
//! measurable experiment:
//!
//! * [`latency_rows`] — **B1**: fast-path vs backup decision latency in
//!   message delays, across server counts;
//! * [`crossover_rows`] — **B2**: composed protocol vs pure Paxos as the
//!   message-loss rate grows (where speculation stops paying off);
//! * [`contention_rows`] — **B2b**: the same crossover under client
//!   contention;
//! * [`phase_chain_rows`] — **B4b**: latency and message cost of chaining
//!   extra fast phases;
//! * [`checker_stats_rows`] — **B4c**: the shared checker engine's
//!   [`SearchStats`] (nodes, memoisation, interpretation counts) over
//!   simulated runs — the practicality counterpart of the timing data;
//! * [`partition_speedup_rows`] — **B5**: node-count reduction of
//!   P-compositional (partitioned) checking over multi-key workloads,
//!   from partition-hostile (1 key, or full contention) to
//!   partition-friendly (8 spread keys);
//! * [`streaming_rows`] — **B6**: the online monitor's sustained ingest
//!   throughput (events/sec) and p99 per-event ingest latency across
//!   keys × skew grids — the live-traffic load driver;
//! * [`multitenant_rows`] — **B8**: the `slin-daemon` multi-tenant
//!   pipeline (wire decode → bounded queues → lane pool) under Zipf
//!   tenant skew — end-to-end events/sec, per-chunk p99, and the
//!   bounded-queue/shed health columns;
//! * [`obs_rows`] — **B9**: the observability tax (no-op vs fully
//!   instrumented monitors over identical pinned streams, min-of-reps)
//!   and the witness-archive memory/reconstruction columns;
//! * [`phase_partition_rows`] — **B10**: the certified keyed checking
//!   path on *phase traces* (init and abort switches included) —
//!   node-count reduction of switch-certified partitioned checking and
//!   keyed sharded streaming over the monolithic chain search, with the
//!   zero-fallback invariant the `slin-cert/v2` certificate buys;
//! * checker scaling data for **B4** lives in the `checkers` bench.
//!
//! Every function returns plain rows so the experiment tables can be
//! regenerated (`cargo bench -p slin-bench`) and asserted on in tests.
//! [`bench_report_json`] assembles every B-series table into one
//! machine-readable artifact (`cargo bench -p slin-bench --bench report --
//! --json` writes it to `BENCH.json` at the repo root) so CI can track
//! the numbers across commits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use json::Json;
use slin_adt::{KvInput, KvKeyPartitioner, KvStore, Set, SetElemPartitioner};
use slin_analysis::{certify_switch, AnalyzeConfig, SwitchCert};
use slin_consensus::harness::{run_scenario, verify_run, Scenario};
use slin_core::engine::SearchStats;
use slin_core::gen::{
    phase_trace_bounds, random_hostile_kv_trace, random_multikey_kv_trace,
    random_multikey_set_trace, random_phase_kv_trace, HostileConfig, MultiKeyConfig, PhaseConfig,
};
use slin_core::initrel::ExactInit;
use slin_core::lin::LinChecker;
use slin_core::session::{Checker, Session, Strategy};
use slin_core::slin::SlinChecker;
use slin_core::stream::{GcPolicy, MonitorStatus};
use slin_daemon::{Daemon, DaemonConfig, LoadConfig, TenantPolicy};
use slin_obs::{Obs, StackObserver};
use slin_sim::Time;

/// One row of the fast-path latency table (B1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyRow {
    /// Number of servers.
    pub servers: usize,
    /// Fast-path (Quorum + Backup) decision latency, message delays.
    pub composed: Option<Time>,
    /// Pure-Paxos decision latency, message delays.
    pub paxos: Option<Time>,
    /// Messages sent by the composed protocol.
    pub composed_msgs: usize,
    /// Messages sent by pure Paxos.
    pub paxos_msgs: usize,
}

/// B1: single fault-free client, unit delays — the paper's headline
/// "2 message delays instead of 3+".
pub fn latency_rows(server_counts: &[usize]) -> Vec<LatencyRow> {
    server_counts
        .iter()
        .map(|&servers| {
            let fast = run_scenario(&Scenario::fault_free(servers, &[(5, 0)]));
            let slow = run_scenario(&Scenario::pure_paxos(servers, &[(5, 0)]));
            LatencyRow {
                servers,
                composed: fast.latencies[0].1,
                paxos: slow.latencies[0].1,
                composed_msgs: fast.messages,
                paxos_msgs: slow.messages,
            }
        })
        .collect()
}

/// One row of a crossover sweep (B2).
#[derive(Debug, Clone, PartialEq)]
pub struct CrossoverRow {
    /// The swept parameter (drop probability ×100, or client count).
    pub x: u64,
    /// Mean decision latency of the composed protocol over the seeds
    /// (undecided runs excluded).
    pub composed_mean: f64,
    /// Mean decision latency of pure Paxos.
    pub paxos_mean: f64,
    /// Fraction of composed-protocol clients that needed the backup.
    pub fallback_rate: f64,
}

fn mean_latency(outs: &[slin_consensus::harness::RunOutcome]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for o in outs {
        for (_, l) in &o.latencies {
            if let Some(l) = l {
                sum += *l as f64;
                n += 1;
            }
        }
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

fn fallback_rate(outs: &[slin_consensus::harness::RunOutcome]) -> f64 {
    let mut switched = 0usize;
    let mut total = 0usize;
    for o in outs {
        total += o.latencies.len();
        switched += o
            .trace
            .iter()
            .filter(|a| a.is_switch() && a.phase().value() == 2)
            .count();
    }
    if total == 0 {
        0.0
    } else {
        switched as f64 / total as f64
    }
}

/// B2: decision latency as the message-drop probability grows, composed
/// protocol vs pure Paxos (3 servers, 1 client, `seeds` runs per point).
pub fn crossover_rows(drop_percents: &[u64], seeds: u64) -> Vec<CrossoverRow> {
    drop_percents
        .iter()
        .map(|&pct| {
            let drop = pct as f64 / 100.0;
            let composed: Vec<_> = (0..seeds)
                .map(|s| run_scenario(&Scenario::fault_free(3, &[(7, 0)]).with_loss(drop, s)))
                .collect();
            let paxos: Vec<_> = (0..seeds)
                .map(|s| run_scenario(&Scenario::pure_paxos(3, &[(7, 0)]).with_loss(drop, s)))
                .collect();
            CrossoverRow {
                x: pct,
                composed_mean: mean_latency(&composed),
                paxos_mean: mean_latency(&paxos),
                fallback_rate: fallback_rate(&composed),
            }
        })
        .collect()
}

/// B2b: decision latency as the number of contending clients grows
/// (3 servers, random delays 1–4).
pub fn contention_rows(client_counts: &[u64], seeds: u64) -> Vec<CrossoverRow> {
    client_counts
        .iter()
        .map(|&k| {
            let values: Vec<u64> = (1..=k).collect();
            let composed: Vec<_> = (0..seeds)
                .map(|s| run_scenario(&Scenario::contended(3, &values, s)))
                .collect();
            let paxos: Vec<_> = (0..seeds)
                .map(|s| run_scenario(&Scenario::contended(3, &values, s).with_fast_phases(0)))
                .collect();
            CrossoverRow {
                x: k,
                composed_mean: mean_latency(&composed),
                paxos_mean: mean_latency(&paxos),
                fallback_rate: fallback_rate(&composed),
            }
        })
        .collect()
}

/// One row of the phase-chain table (B4b).
#[derive(Debug, Clone, PartialEq)]
pub struct ChainRow {
    /// Number of Quorum fast phases before the Paxos backup.
    pub fast_phases: u32,
    /// Mean decision latency under contention.
    pub latency_mean: f64,
    /// Mean messages per run.
    pub messages_mean: f64,
    /// Fault-free (sequential) latency — chaining must not slow the
    /// common case.
    pub fault_free_latency: Option<Time>,
}

/// B4b: the cost of chaining additional speculation phases.
pub fn phase_chain_rows(chain_lengths: &[u32], seeds: u64) -> Vec<ChainRow> {
    chain_lengths
        .iter()
        .map(|&fast| {
            let outs: Vec<_> = (0..seeds)
                .map(|s| run_scenario(&Scenario::contended(3, &[1, 2], s).with_fast_phases(fast)))
                .collect();
            let msgs = outs.iter().map(|o| o.messages as f64).sum::<f64>() / seeds as f64;
            let fault_free =
                run_scenario(&Scenario::fault_free(3, &[(5, 0)]).with_fast_phases(fast));
            ChainRow {
                fast_phases: fast,
                latency_mean: mean_latency(&outs),
                messages_mean: msgs,
                fault_free_latency: fault_free.latencies[0].1,
            }
        })
        .collect()
}

/// One row of the checker-practicality table (B4c): the engine counters
/// behind one verified scenario run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckerStatsRow {
    /// Human-readable scenario label.
    pub scenario: String,
    /// Whether every phase and the object projection verified.
    pub ok: bool,
    /// Whether a failure was a resource limit (budget / interpretation
    /// cap) rather than a genuine violation.
    pub resource_limited: bool,
    /// Aggregated engine counters for the whole verification.
    pub stats: SearchStats,
}

impl CheckerStatsRow {
    /// The table cells printed by the `checkers` bench.
    pub fn cells(&self) -> Vec<String> {
        let verdict = if self.ok {
            "ok"
        } else if self.resource_limited {
            "limit"
        } else {
            "FAIL"
        };
        vec![
            self.scenario.clone(),
            verdict.to_string(),
            self.stats.interpretations.to_string(),
            self.stats.nodes.to_string(),
            self.stats.memo_entries.to_string(),
            self.stats.memo_hits.to_string(),
            self.stats.pruned.to_string(),
            self.stats.leaf_checks.to_string(),
        ]
    }
}

/// The header matching [`CheckerStatsRow::cells`].
pub const CHECKER_STATS_HEADER: [&str; 8] = [
    "scenario", "verdict", "interps", "nodes", "memo", "hits", "pruned", "leaves",
];

/// B4c: engine statistics for verifying contended runs (3 servers, the
/// given seeds) and one 3-phase chain — what the speculative checker
/// actually costs on protocol-generated traces.
pub fn checker_stats_rows(seeds: &[u64]) -> Vec<CheckerStatsRow> {
    let mut rows: Vec<CheckerStatsRow> = seeds
        .iter()
        .map(|&seed| {
            let scenario = Scenario::contended(3, &[1, 2], seed);
            let v = verify_run(&scenario, &run_scenario(&scenario));
            CheckerStatsRow {
                scenario: format!("contended(3, [1,2], seed {seed})"),
                ok: v.all_ok(),
                resource_limited: v.resource_limited(),
                stats: v.stats,
            }
        })
        .collect();
    let chained = Scenario::contended(3, &[1, 2], 1).with_fast_phases(3);
    let v = verify_run(&chained, &run_scenario(&chained));
    rows.push(CheckerStatsRow {
        scenario: "contended, 3 fast phases".to_string(),
        ok: v.all_ok(),
        resource_limited: v.resource_limited(),
        stats: v.stats,
    });
    rows
}

/// One row of the partition-speedup table (B5): monolithic vs partitioned
/// engine cost on one multi-key workload family, aggregated over seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionRow {
    /// Human-readable workload label (stable: the JSON baseline matcher
    /// keys on it).
    pub scenario: String,
    /// Number of distinct keys in the workload.
    pub keys: u32,
    /// Largest partition count any seed produced.
    pub partitions: usize,
    /// Monolithic engine counters summed over the seeds.
    pub mono: SearchStats,
    /// Partitioned engine counters summed over the seeds (including any
    /// monolithic witness re-derivations).
    pub part: SearchStats,
    /// Seeds whose witness merge had to re-run a monolithic search.
    pub remerged: usize,
    /// Whether every seed's partitioned verdict and witness equalled the
    /// monolithic ones byte for byte.
    pub verdicts_agree: bool,
    /// `mono.nodes / part.nodes` — the headline node-count reduction.
    pub node_ratio: f64,
}

impl PartitionRow {
    /// The table cells printed by the `checkers` and `report` benches.
    pub fn cells(&self) -> Vec<String> {
        vec![
            self.scenario.clone(),
            self.keys.to_string(),
            self.partitions.to_string(),
            if self.verdicts_agree {
                "ok"
            } else {
                "MISMATCH"
            }
            .to_string(),
            self.mono.nodes.to_string(),
            self.part.nodes.to_string(),
            self.remerged.to_string(),
            format!("{:.2}", self.node_ratio),
        ]
    }
}

/// The header matching [`PartitionRow::cells`].
pub const PARTITION_HEADER: [&str; 8] = [
    "scenario",
    "keys",
    "parts",
    "verdicts",
    "mono_nodes",
    "part_nodes",
    "remerged",
    "ratio",
];

/// The seeds every B5 row aggregates over (pinned so the JSON artifact is
/// reproducible bit for bit).
pub const PARTITION_SEEDS: [u64; 6] = [0, 1, 2, 7, 9, 13];

/// One B5 row: monolithic vs partitioned checking of `generate`d traces
/// over the given ADT and partitioner, aggregated over `seeds`.
fn partition_row<T, P, G>(
    scenario: &str,
    adt: &T,
    partitioner: &P,
    generate: G,
    base: MultiKeyConfig,
    seeds: &[u64],
) -> PartitionRow
where
    T: slin_adt::Adt + Clone + Send + Sync,
    T::Input: Ord + Send + Sync,
    T::Output: Sync,
    P: slin_adt::Partitioner<T>,
    G: Fn(&MultiKeyConfig) -> slin_trace::Trace<slin_core::ObjAction<T, ()>>,
{
    let mut mono_session = Checker::builder(LinChecker::owned(adt.clone()))
        .strategy(Strategy::Monolithic)
        .build();
    let mut part_session = Checker::builder(LinChecker::owned(adt.clone()))
        .partitioner(partitioner)
        .strategy(Strategy::Partitioned)
        .build();
    let mut row = PartitionRow {
        scenario: scenario.to_string(),
        keys: base.keys,
        partitions: 0,
        mono: SearchStats::default(),
        part: SearchStats::default(),
        remerged: 0,
        verdicts_agree: true,
        node_ratio: 0.0,
    };
    for &seed in seeds {
        let t = generate(&MultiKeyConfig { seed, ..base });
        let mono = mono_session.check(&t);
        let part = part_session.check(&t);
        let report = part.partition.expect("partitioned strategy reports");
        row.mono.absorb(&mono.stats);
        row.part.absorb(&report.stats);
        row.partitions = row.partitions.max(report.partitions);
        row.remerged += report.remerged as usize;
        row.verdicts_agree &= part.outcome == mono.outcome;
    }
    row.node_ratio = row.mono.nodes as f64 / row.part.nodes.max(1) as f64;
    row
}

/// B5: node-count reduction of partitioned checking as the key space
/// widens, aggregated over `seeds` (use [`PARTITION_SEEDS`] for the
/// pinned artifact). The `kv keys=1` and `kv hot-key` rows are
/// partition-hostile controls (ratio ~1); the multi-key rows are where
/// P-compositionality pays.
pub fn partition_speedup_rows(seeds: &[u64]) -> Vec<PartitionRow> {
    let base = MultiKeyConfig {
        clients: 5,
        steps: 48,
        skew: 0.3,
        contention: 0.0,
        error_prob: 0.0,
        seed: 0,
        keys: 1,
    };
    let kv = |scenario: &str, cfg: MultiKeyConfig| {
        partition_row(
            scenario,
            &KvStore,
            &KvKeyPartitioner,
            random_multikey_kv_trace,
            cfg,
            seeds,
        )
    };
    vec![
        kv("kv keys=1 (hostile)", MultiKeyConfig { keys: 1, ..base }),
        kv("kv keys=2", MultiKeyConfig { keys: 2, ..base }),
        kv("kv keys=4", MultiKeyConfig { keys: 4, ..base }),
        kv("kv keys=8", MultiKeyConfig { keys: 8, ..base }),
        kv(
            "kv hot-key (hostile)",
            MultiKeyConfig {
                keys: 8,
                contention: 1.0,
                ..base
            },
        ),
        partition_row(
            "set elems=6",
            &Set,
            &SetElemPartitioner,
            random_multikey_set_trace,
            MultiKeyConfig { keys: 6, ..base },
            seeds,
        ),
    ]
}

/// One row of the B10 phase-trace table: the switch-certified keyed
/// checking path (batch partitioning *and* sharded streaming) against the
/// monolithic chain search over traces that cross phase boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasePartitionRow {
    /// Human-readable workload label (stable: the JSON baseline matcher
    /// keys on it).
    pub scenario: String,
    /// Number of distinct keys (independence classes) in the workload.
    pub keys: u32,
    /// Largest partition count any seed produced.
    pub partitions: usize,
    /// Monolithic engine counters summed over the seeds.
    pub mono: SearchStats,
    /// Certified-partitioned engine counters summed over the seeds.
    pub part: SearchStats,
    /// Batch or streaming runs that abandoned the keyed path (identity
    /// fallback engaged). The certificate's whole point: must stay 0.
    pub fallbacks: usize,
    /// Whether every seed's partitioned witness/error equalled the
    /// monolithic one byte for byte.
    pub verdicts_agree: bool,
    /// Whether every seed's keyed *streaming* report also equalled the
    /// monolithic batch verdict.
    pub stream_agrees: bool,
    /// `mono.nodes / part.nodes` — the headline node-count reduction.
    pub node_ratio: f64,
}

impl PhasePartitionRow {
    /// The table cells printed by the `report` bench.
    pub fn cells(&self) -> Vec<String> {
        vec![
            self.scenario.clone(),
            self.keys.to_string(),
            self.partitions.to_string(),
            if self.verdicts_agree {
                "ok"
            } else {
                "MISMATCH"
            }
            .to_string(),
            if self.stream_agrees { "ok" } else { "MISMATCH" }.to_string(),
            self.mono.nodes.to_string(),
            self.part.nodes.to_string(),
            self.fallbacks.to_string(),
            format!("{:.2}", self.node_ratio),
        ]
    }
}

/// The header matching [`PhasePartitionRow::cells`].
pub const PHASE_PARTITION_HEADER: [&str; 9] = [
    "scenario",
    "keys",
    "parts",
    "verdicts",
    "stream",
    "mono_nodes",
    "part_nodes",
    "fallbacks",
    "ratio",
];

/// The seeds every B10 row aggregates over (pinned for the artifact).
pub const PHASE_SEEDS: [u64; 4] = [0, 1, 2, 3];

/// One B10 row: the monolithic speculative checker vs the
/// switch-certified keyed paths (batch session + sharded monitor) over
/// generated phase traces, aggregated over `seeds`.
fn phase_partition_row(
    scenario: &str,
    cert: &SwitchCert,
    base: PhaseConfig,
    seeds: &[u64],
) -> PhasePartitionRow {
    let (m, n) = phase_trace_bounds();
    let chk = SlinChecker::owned(KvStore, ExactInit::new(), m, n);
    let mut mono_session = Checker::builder(chk.clone())
        .strategy(Strategy::Monolithic)
        .build::<Vec<KvInput>>();
    let mut part_session = Checker::builder(chk.clone())
        .partitioner(KvKeyPartitioner)
        .switch_certified(cert)
        .expect("the shipped kv partitioner is certified switch-independent")
        .build::<Vec<KvInput>>();
    let mut row = PhasePartitionRow {
        scenario: scenario.to_string(),
        keys: base.keys,
        partitions: 0,
        mono: SearchStats::default(),
        part: SearchStats::default(),
        fallbacks: 0,
        verdicts_agree: true,
        stream_agrees: true,
        node_ratio: 0.0,
    };
    for &seed in seeds {
        let t = random_phase_kv_trace(&PhaseConfig { seed, ..base });
        let mono = mono_session.check(&t);
        let part = part_session.check(&t);
        let report = part.partition.expect("certified sessions partition");
        row.mono.absorb(&mono.stats);
        row.part.absorb(&report.stats);
        row.partitions = row.partitions.max(report.partitions);
        row.fallbacks += report.fallback.is_some() as usize;
        // Witnesses and error variants must be byte-identical; the work
        // counters inside the Ok report differ by design.
        row.verdicts_agree &= part.outcome.as_ref().map(|r| &r.witness)
            == mono.outcome.as_ref().map(|r| &r.witness)
            && part.outcome.as_ref().err() == mono.outcome.as_ref().err();
        // The same trace through the keyed sharded monitor, switch
        // frames and all.
        let mut mon = Checker::builder(chk.clone())
            .partitioner(KvKeyPartitioner)
            .switch_certified(cert)
            .expect("the shipped kv partitioner is certified switch-independent")
            .strategy(Strategy::Streaming { window: None })
            .build::<Vec<KvInput>>();
        for a in t.iter() {
            mon.ingest(a.clone());
        }
        let streamed = mon.report().expect("born streaming");
        row.fallbacks += streamed.fallback.is_some() as usize;
        row.stream_agrees &= streamed.verdict.as_ref().map(|r| &r.witness)
            == mono.outcome.as_ref().map(|r| &r.witness)
            && streamed.verdict.as_ref().err() == mono.outcome.as_ref().err();
    }
    row.node_ratio = row.mono.nodes as f64 / row.part.nodes.max(1) as f64;
    row
}

/// B10: the switch-certified keyed paths over phase traces, aggregated
/// over `seeds` (use [`PHASE_SEEDS`] for the pinned artifact).
///
/// The `clean` rows are speculatively linearizable by construction: the
/// generator's exact abort values force responses into apply order, so
/// the monolithic chain search linearizes greedily and the keyed win
/// there is agreement at zero fallbacks, not node counts. The `faulty`
/// rows inject perturbed outputs — now every path must *refute*, and
/// refutation is where partitioning pays: the monolithic search exhausts
/// interleavings across all classes while the keyed decomposition
/// localizes the exhaustive search to the violating class. Those rows
/// carry the >2x node-reduction gate (`ci/bench_threshold.py`); the
/// `keys=1` control is partition-hostile (one class, ratio ~1). Every
/// row, clean or faulty, must show **zero fallbacks** — the static
/// analyzer proved the decomposition, so the runtime never abandons it.
pub fn phase_partition_rows(seeds: &[u64]) -> Vec<PhasePartitionRow> {
    let cert = certify_switch(&KvStore, &KvKeyPartitioner, &AnalyzeConfig::default())
        .expect("the shipped kv partitioner is switch-independent under ExactInit");
    let base = PhaseConfig {
        clients: 4,
        steps: 36,
        keys: 1,
        skew: 0.3,
        prefix_ops: 4,
        aborts: 2,
        error_prob: 0.0,
        seed: 0,
    };
    let row = |scenario: &str, keys: u32, error_prob: f64| {
        phase_partition_row(
            scenario,
            &cert,
            PhaseConfig {
                keys,
                error_prob,
                ..base
            },
            seeds,
        )
    };
    vec![
        row("phase keys=4 clean", 4, 0.0),
        row("phase keys=8 clean", 8, 0.0),
        row("phase keys=1 faulty (hostile)", 1, 0.4),
        row("phase keys=2 faulty", 2, 0.4),
        row("phase keys=4 faulty", 4, 0.4),
        row("phase keys=8 faulty", 8, 0.4),
    ]
}

/// One row of the streaming-monitor load table (B6): sustained ingest
/// throughput and tail latency of the online monitor on one keys × skew
/// workload family, aggregated over seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingRow {
    /// Human-readable workload label (stable: the JSON baseline matcher
    /// keys on it).
    pub scenario: String,
    /// Number of distinct keys in the workload.
    pub keys: u32,
    /// Zipf skew exponent of the workload.
    pub skew: f64,
    /// Events ingested across all seeds.
    pub events: usize,
    /// Shards the monitor ended with (max over seeds).
    pub shards: usize,
    /// Sustained ingest throughput, events per second (wall clock).
    pub events_per_sec: f64,
    /// 99th-percentile single-event ingest latency, microseconds.
    pub p99_ingest_us: f64,
    /// Bounded re-searches the shard frontiers forced (deterministic).
    pub fallback_searches: usize,
    /// Events retired by bounded-window GC (deterministic).
    pub retired_events: usize,
    /// Whether every seed's stream stayed linearizable (they are
    /// linearizable by construction).
    pub ok: bool,
}

impl StreamingRow {
    /// The table cells printed by the `streaming` bench.
    pub fn cells(&self) -> Vec<String> {
        vec![
            self.scenario.clone(),
            self.keys.to_string(),
            format!("{:.1}", self.skew),
            self.events.to_string(),
            self.shards.to_string(),
            format!("{:.0}", self.events_per_sec),
            format!("{:.1}", self.p99_ingest_us),
            self.fallback_searches.to_string(),
            self.retired_events.to_string(),
            if self.ok { "ok" } else { "FAIL" }.to_string(),
        ]
    }
}

/// The header matching [`StreamingRow::cells`].
pub const STREAMING_HEADER: [&str; 10] = [
    "scenario",
    "keys",
    "skew",
    "events",
    "shards",
    "ev/s",
    "p99_us",
    "fallbacks",
    "retired",
    "ok",
];

/// The seeds every B6 row aggregates over.
pub const STREAMING_SEEDS: [u64; 3] = [0, 1, 2];

/// Events per seed in the B6 load driver.
const STREAMING_STEPS: usize = 1600;

/// A bounded-window streaming session over the multi-key KV store — the
/// monitor every B6/B6h/B9 row drives.
fn kv_stream_session(
    window: usize,
    gc: GcPolicy,
    obs: Obs,
) -> Session<LinChecker<KvStore>, (), KvKeyPartitioner> {
    Checker::builder(LinChecker::owned(KvStore))
        .partitioner(KvKeyPartitioner)
        .strategy(Strategy::Streaming {
            window: Some(window),
        })
        .gc_policy(gc)
        .observer(obs)
        .build()
}

fn streaming_row(
    scenario: &str,
    keys: u32,
    skew: f64,
    contention: f64,
    seeds: &[u64],
    steps: usize,
) -> StreamingRow {
    let mut row = StreamingRow {
        scenario: scenario.to_string(),
        keys,
        skew,
        events: 0,
        shards: 0,
        events_per_sec: 0.0,
        p99_ingest_us: 0.0,
        fallback_searches: 0,
        retired_events: 0,
        ok: true,
    };
    let mut latencies_us: Vec<f64> = Vec::new();
    let mut total_secs = 0.0f64;
    for &seed in seeds {
        let cfg = MultiKeyConfig {
            // Few enough clients that shard-quiescent points (the GC's
            // safe retirement cuts) recur regularly even on one key.
            clients: 3,
            steps,
            keys,
            skew,
            contention,
            error_prob: 0.0,
            seed,
        };
        let t = random_multikey_kv_trace(&cfg);
        let mut mon = kv_stream_session(48, GcPolicy::default(), Obs::noop());
        let run_start = std::time::Instant::now();
        for a in t.iter() {
            let start = std::time::Instant::now();
            let outcome = mon.ingest(a.clone());
            latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
            row.ok &= outcome.status == MonitorStatus::Ok;
        }
        total_secs += run_start.elapsed().as_secs_f64();
        row.events += t.len();
        let report = mon.report().expect("born streaming");
        row.shards = row.shards.max(report.shards);
        row.fallback_searches += report.shard.fallback_searches;
        row.retired_events += report.shard.retired_events;
    }
    row.events_per_sec = row.events as f64 / total_secs.max(1e-9);
    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let p99 = ((latencies_us.len() as f64 * 0.99) as usize).min(latencies_us.len() - 1);
    row.p99_ingest_us = latencies_us[p99];
    row
}

/// B6: the online monitor's sustained events/sec and p99 ingest latency
/// across keys × skew (plus one hot-key contention control), on
/// bounded-window (O(window)-memory) monitors over linearizable-by-
/// construction multi-key KV streams. The verdict/fallback/GC columns are
/// deterministic in the seeds; the throughput and latency columns measure
/// wall clock.
pub fn streaming_rows(seeds: &[u64]) -> Vec<StreamingRow> {
    streaming_rows_with(seeds, STREAMING_STEPS)
}

/// [`streaming_rows`] with an explicit per-seed stream length (the crate
/// tests use short streams so debug-mode `cargo test` stays fast).
pub fn streaming_rows_with(seeds: &[u64], steps: usize) -> Vec<StreamingRow> {
    vec![
        streaming_row("stream kv keys=1 skew=0", 1, 0.0, 0.0, seeds, steps),
        streaming_row("stream kv keys=4 skew=0.6", 4, 0.6, 0.0, seeds, steps),
        streaming_row("stream kv keys=16 skew=0.6", 16, 0.6, 0.0, seeds, steps),
        streaming_row("stream kv keys=16 skew=1.4", 16, 1.4, 0.0, seeds, steps),
        streaming_row("stream kv keys=16 hot-key", 16, 0.6, 0.9, seeds, steps),
    ]
}

/// One row of the hostile never-quiescent streaming table (B6h): the
/// epoch-GC monitor's ingest tail latency and retained-memory proxy as
/// the window size grows, on streams that never quiesce (permanently
/// pending invocations and/or Zipf-tailed response delays straddling many
/// windows). Every column except the two wall-clock ones is a pure
/// function of the pinned seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct HostileRow {
    /// Human-readable workload label (stable: the JSON baseline matcher
    /// keys on it, and it encodes the window size).
    pub scenario: String,
    /// The monitor's GC window size.
    pub window: usize,
    /// Events ingested across all seeds.
    pub events: usize,
    /// Sustained ingest throughput, events per second (wall clock).
    pub events_per_sec: f64,
    /// 99th-percentile single-event ingest latency, microseconds (wall
    /// clock).
    pub p99_ingest_us: f64,
    /// Whether every seed's stream stayed linearizable (they are
    /// linearizable by construction).
    pub ok: bool,
    /// Events retired by window GC (deterministic).
    pub retired_events: usize,
    /// Non-quiescent epoch cuts taken (deterministic).
    pub epoch_cuts: usize,
    /// Forced lossy cuts (deterministic; expected 0 — `epoch_force` off).
    pub lossy_cuts: usize,
    /// Enumeration/extension nodes expanded — the deterministic work
    /// proxy behind the wall-clock latency columns.
    pub search_nodes: usize,
    /// Peak retained configurations (frontiers + seeds) over the sampled
    /// stream positions (deterministic memory proxy, state component).
    pub peak_live_configs: usize,
    /// Peak pointer-distinct persistent-multiset trie nodes reachable from
    /// the monitor (deterministic memory proxy, bound-snapshot component).
    pub peak_multiset_nodes: usize,
    /// Peak events retained in shard windows (deterministic; bounded-GC
    /// health — grows without bound if cuts stop firing).
    pub peak_window_events: usize,
}

impl HostileRow {
    /// The table cells printed by the `streaming` bench.
    pub fn cells(&self) -> Vec<String> {
        vec![
            self.scenario.clone(),
            self.window.to_string(),
            self.events.to_string(),
            format!("{:.0}", self.events_per_sec),
            format!("{:.1}", self.p99_ingest_us),
            self.retired_events.to_string(),
            self.epoch_cuts.to_string(),
            self.lossy_cuts.to_string(),
            self.search_nodes.to_string(),
            self.peak_live_configs.to_string(),
            self.peak_multiset_nodes.to_string(),
            self.peak_window_events.to_string(),
            if self.ok { "ok" } else { "FAIL" }.to_string(),
        ]
    }
}

/// The header matching [`HostileRow::cells`].
pub const HOSTILE_HEADER: [&str; 13] = [
    "scenario",
    "window",
    "events",
    "ev/s",
    "p99_us",
    "retired",
    "epoch_cuts",
    "lossy",
    "search_nodes",
    "peak_cfgs",
    "peak_ms_nodes",
    "peak_win_ev",
    "ok",
];

/// The window-size sweep of the B6h table. Exact epoch cuts re-enumerate
/// the retained window at each cut, so their cost grows with the window:
/// the sweep covers the bounded-window regime the exact mode targets
/// (larger windows on hostile streams are `epoch_force` territory).
pub const HOSTILE_WINDOWS: [usize; 4] = [8, 12, 16, 24];

/// Events per seed in the B6h load driver.
const HOSTILE_STEPS: usize = 1200;

/// Stream positions between memory-proxy samples (deterministic, so the
/// peak columns are too).
const HOSTILE_SAMPLE_EVERY: usize = 64;

fn hostile_row(
    scenario: &str,
    base: HostileConfig,
    window: usize,
    seeds: &[u64],
    steps: usize,
) -> HostileRow {
    let mut row = HostileRow {
        scenario: format!("{scenario} w={window}"),
        window,
        events: 0,
        events_per_sec: 0.0,
        p99_ingest_us: 0.0,
        ok: true,
        retired_events: 0,
        epoch_cuts: 0,
        lossy_cuts: 0,
        search_nodes: 0,
        peak_live_configs: 0,
        peak_multiset_nodes: 0,
        peak_window_events: 0,
    };
    let mut latencies_us: Vec<f64> = Vec::new();
    let mut total_secs = 0.0f64;
    for &seed in seeds {
        let cfg = HostileConfig {
            steps,
            seed,
            ..base
        };
        let t = random_hostile_kv_trace(&cfg);
        let mut mon = kv_stream_session(window, GcPolicy::default(), Obs::noop());
        let run_start = std::time::Instant::now();
        for (i, a) in t.iter().enumerate() {
            let start = std::time::Instant::now();
            let outcome = mon.ingest(a.clone());
            latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
            row.ok &= outcome.status == MonitorStatus::Ok;
            if (i + 1) % HOSTILE_SAMPLE_EVERY == 0 {
                let s = mon.shard_summary().expect("born streaming");
                row.peak_live_configs = row.peak_live_configs.max(s.live_configs);
                row.peak_multiset_nodes = row.peak_multiset_nodes.max(s.multiset_nodes);
                row.peak_window_events = row.peak_window_events.max(s.window_events);
            }
        }
        total_secs += run_start.elapsed().as_secs_f64();
        row.events += t.len();
        let s = mon.shard_summary().expect("born streaming");
        row.retired_events += s.retired_events;
        row.epoch_cuts += s.epoch_cuts;
        row.lossy_cuts += s.lossy_cuts;
        row.search_nodes += s.search_nodes;
        row.peak_live_configs = row.peak_live_configs.max(s.live_configs);
        row.peak_multiset_nodes = row.peak_multiset_nodes.max(s.multiset_nodes);
        row.peak_window_events = row.peak_window_events.max(s.window_events);
    }
    row.events_per_sec = row.events as f64 / total_secs.max(1e-9);
    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let p99 = ((latencies_us.len() as f64 * 0.99) as usize).min(latencies_us.len() - 1);
    row.p99_ingest_us = latencies_us[p99];
    row
}

/// The never-quiescent workload families swept by B6h.
fn hostile_bases() -> Vec<(&'static str, HostileConfig)> {
    vec![
        (
            // Every invocation eventually responds, but the Zipf delay
            // tail keeps operations pending across many windows: the
            // stream is never quiescent at cut points, and late responses
            // exercise symbolic-completion absorption. Concurrency stays
            // bounded (few clients, short tail) — the regime exact epoch
            // cuts target; wider pending sets need `epoch_force`.
            "hostile zipf-delay",
            HostileConfig {
                clients: 5,
                keys: 2,
                skew: 0.7,
                never_frac: 0.0,
                stuck_applies: true,
                delay_zipf: 1.1,
                max_delay: 24,
                error_prob: 0.0,
                steps: 0, // per-row
                seed: 0,  // per-seed
            },
        ),
        (
            // A straggler fraction never responds at all: those clients
            // wedge permanently, so quiescence never returns and every cut
            // from then on is an epoch cut.
            "hostile stragglers",
            HostileConfig {
                clients: 4,
                keys: 1,
                skew: 0.7,
                never_frac: 0.0025,
                stuck_applies: true,
                delay_zipf: 1.3,
                max_delay: 12,
                error_prob: 0.0,
                steps: 0,
                seed: 0,
            },
        ),
    ]
}

/// B6h: p99 ingest latency and the retained-memory proxy versus window
/// size on hostile never-quiescent streams — the O(1)-amortized-ingest /
/// O(window + alphabet)-memory acceptance table. The work and memory
/// columns are deterministic in the seeds; CI gates them (flatness in
/// window size, regression vs baseline) in `ci/bench_threshold.py`.
pub fn hostile_rows(seeds: &[u64]) -> Vec<HostileRow> {
    hostile_rows_with(seeds, HOSTILE_STEPS)
}

/// [`hostile_rows`] with an explicit per-seed stream length (the crate
/// tests use short streams so debug-mode `cargo test` stays fast).
pub fn hostile_rows_with(seeds: &[u64], steps: usize) -> Vec<HostileRow> {
    let mut rows = Vec::new();
    for (scenario, base) in hostile_bases() {
        for &window in &HOSTILE_WINDOWS {
            rows.push(hostile_row(scenario, base, window, seeds, steps));
        }
    }
    rows
}

/// One row of the multi-tenant daemon table (B8): the `slin-daemon`
/// pipeline's sustained throughput and ingest tail latency under Zipf
/// tenant skew — wire decode + per-tenant routing + bounded queues +
/// lane-pool checking, end to end over the in-process transport.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiTenantRow {
    /// Human-readable workload label (stable: the JSON baseline matcher
    /// keys on it).
    pub scenario: String,
    /// Tenant count of the workload.
    pub tenants: u64,
    /// Zipf exponent of the tenant interleave.
    pub skew: f64,
    /// Per-tenant queue high-water mark in force.
    pub queue_capacity: usize,
    /// Events checked across all seeds.
    pub events: usize,
    /// Sustained end-to-end throughput, checked events per second (wall
    /// clock).
    pub events_per_sec: f64,
    /// 99th-percentile per-chunk ingest latency, microseconds (wall
    /// clock), worst seed.
    pub p99_ingest_us: f64,
    /// Deepest per-tenant queue observed, worst seed (bounded-queue
    /// health: must never exceed `queue_capacity`).
    pub queue_depth_peak: usize,
    /// Shed activations across all seeds (the saturating scenario must
    /// shed; the provisioned ones must not).
    pub sheds: u64,
    /// Tenants left in the lossy-shed state, worst seed.
    pub shed_tenants: usize,
    /// Whether no tenant reported a violation or ill-formed stream (the
    /// workloads are linearizable by construction; shedding may downgrade
    /// to Unknown, never to a false verdict).
    pub ok: bool,
}

impl MultiTenantRow {
    /// The table cells printed by the `streaming` bench.
    pub fn cells(&self) -> Vec<String> {
        vec![
            self.scenario.clone(),
            self.tenants.to_string(),
            format!("{:.1}", self.skew),
            self.queue_capacity.to_string(),
            self.events.to_string(),
            format!("{:.0}", self.events_per_sec),
            format!("{:.1}", self.p99_ingest_us),
            self.queue_depth_peak.to_string(),
            self.sheds.to_string(),
            self.shed_tenants.to_string(),
            if self.ok { "ok" } else { "FAIL" }.to_string(),
        ]
    }
}

/// The header matching [`MultiTenantRow::cells`].
pub const MULTITENANT_HEADER: [&str; 11] = [
    "scenario", "tenants", "skew", "queue", "events", "ev/s", "p99_us", "peak_q", "sheds",
    "shed_ten", "ok",
];

/// Generation steps per tenant in the B8 load driver.
const MULTITENANT_STEPS: usize = 120;

/// The B8 workload families: provisioned daemons (uniform and skewed
/// tenant traffic, queues never saturate, worker lanes pump between
/// chunks) and a deliberately under-provisioned one (tiny queues, hot
/// tenants, no pumping — the backpressure shed must engage). The last
/// tuple slot is the pump-between-chunks flag.
fn multitenant_bases() -> Vec<(&'static str, LoadConfig, TenantPolicy, bool)> {
    vec![
        (
            "daemon uniform",
            LoadConfig {
                tenants: 64,
                clients: 3,
                keys: 3,
                tenant_skew: 0.0,
                chunk_frames: 256,
                ..LoadConfig::default()
            },
            TenantPolicy {
                queue_capacity: 4096,
                window: Some(32),
                shed_lossy: true,
                ..TenantPolicy::default()
            },
            true,
        ),
        (
            "daemon zipf",
            LoadConfig {
                tenants: 128,
                clients: 3,
                keys: 3,
                tenant_skew: 1.2,
                chunk_frames: 256,
                ..LoadConfig::default()
            },
            TenantPolicy {
                queue_capacity: 4096,
                window: Some(32),
                shed_lossy: true,
                ..TenantPolicy::default()
            },
            true,
        ),
        (
            // Tiny queues and hot tenants: the ingest path saturates the
            // high-water mark and the lossy shed engages (no pump between
            // chunks — ingest must drain inline).
            "daemon shed",
            LoadConfig {
                tenants: 16,
                clients: 4,
                keys: 2,
                tenant_skew: 1.5,
                chunk_frames: 512,
                ..LoadConfig::default()
            },
            TenantPolicy {
                queue_capacity: 8,
                window: Some(16),
                shed_lossy: true,
                ..TenantPolicy::default()
            },
            false,
        ),
    ]
}

fn multitenant_row(
    scenario: &str,
    base: LoadConfig,
    policy: TenantPolicy,
    pump_between_chunks: bool,
    seeds: &[u64],
    steps: usize,
) -> MultiTenantRow {
    let mut row = MultiTenantRow {
        scenario: scenario.to_string(),
        tenants: base.tenants,
        skew: base.tenant_skew,
        queue_capacity: policy.queue_capacity,
        events: 0,
        events_per_sec: 0.0,
        p99_ingest_us: 0.0,
        queue_depth_peak: 0,
        sheds: 0,
        shed_tenants: 0,
        ok: true,
    };
    let mut total_secs = 0.0f64;
    for &seed in seeds {
        let cfg = LoadConfig {
            steps_per_tenant: steps,
            seed,
            ..base
        };
        let workload = slin_daemon::generate(&cfg);
        let mut daemon = Daemon::new(DaemonConfig {
            workers: 4,
            default_policy: policy,
        });
        let (rx, producer) = slin_daemon::transport(workload.chunks, 8);
        let run_start = std::time::Instant::now();
        for chunk in rx.iter() {
            daemon.ingest_bytes(&chunk).expect("well-formed workload");
            if pump_between_chunks {
                daemon.pump();
            }
        }
        daemon.pump();
        total_secs += run_start.elapsed().as_secs_f64();
        producer.join().expect("producer thread");
        let counts = daemon.poll_verdicts();
        let m = daemon.metrics();
        row.events += m.events as usize;
        row.p99_ingest_us = row.p99_ingest_us.max(m.p99_ingest_us as f64);
        row.queue_depth_peak = row.queue_depth_peak.max(m.queue_depth_peak);
        row.sheds += m.sheds;
        row.shed_tenants = row.shed_tenants.max(m.shed_tenants);
        row.ok &= counts.violation == 0 && counts.ill_formed == 0;
        row.ok &= m.queue_depth_peak <= policy.queue_capacity;
        row.ok &= m.events == workload.frames as u64;
    }
    row.events_per_sec = row.events as f64 / total_secs.max(1e-9);
    row
}

/// B8: end-to-end multi-tenant daemon throughput and tail latency under
/// tenant skew, plus bounded-queue and shed-observability health columns.
/// CI gates the (normalised) throughput and the queue bound in
/// `ci/bench_threshold.py`.
pub fn multitenant_rows(seeds: &[u64]) -> Vec<MultiTenantRow> {
    multitenant_rows_with(seeds, MULTITENANT_STEPS)
}

/// [`multitenant_rows`] with an explicit per-tenant stream length (the
/// crate tests use short streams so debug-mode `cargo test` stays fast).
pub fn multitenant_rows_with(seeds: &[u64], steps: usize) -> Vec<MultiTenantRow> {
    multitenant_bases()
        .into_iter()
        .map(|(scenario, base, policy, pump)| {
            multitenant_row(scenario, base, policy, pump, seeds, steps)
        })
        .collect()
}

/// One row of the observability-overhead table (B9): the same pinned
/// B6-style streams ingested through two monitors per rep — one with the
/// default no-op observer, one with a full [`StackObserver`] (metrics
/// registry + span ring) installed — run back to back so each rep yields
/// one paired instrumented/noop wall-time ratio. `overhead_frac` is the
/// **median** of those paired ratios minus one: pairing cancels slow
/// clock-frequency drift, the median kills scheduler outliers, and the
/// ratio itself is machine-independent to first order (both loops run
/// identical code on identical data in the same process). The archival
/// scenario additionally reports the witness-archive accounting columns
/// against its O(shards · depth · window) memory bound.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsRow {
    /// Human-readable scenario label (stable: the JSON baseline matcher
    /// keys on it).
    pub scenario: String,
    /// Events ingested per rep (all seeds).
    pub events: usize,
    /// Best-of-reps ingest throughput with the no-op observer, events/sec.
    pub noop_events_per_sec: f64,
    /// Best-of-reps ingest throughput with the full observer, events/sec.
    pub instrumented_events_per_sec: f64,
    /// Observer slowdown: the median over reps of the paired
    /// `instrumented_secs / noop_secs` wall-time ratio, minus one (small
    /// negative values are measurement noise).
    pub overhead_frac: f64,
    /// Configured witness-archive depth, retired windows per shard
    /// (`0` — archival off, the pure-overhead rows).
    pub archive_windows: usize,
    /// Peak GC-retired events held in the witness archives at report time
    /// (deterministic in the seeds).
    pub archived_events: usize,
    /// The archive memory bound: shards × archive_windows × window events
    /// (deterministic).
    pub archive_event_bound: usize,
    /// Whether the final report reconstructed the closed trace from the
    /// archive (expected: exactly the archival scenario).
    pub reconstructed: bool,
    /// Whether every stream stayed linearizable under both observers.
    pub ok: bool,
}

impl ObsRow {
    /// The table cells printed by the `streaming` bench.
    pub fn cells(&self) -> Vec<String> {
        vec![
            self.scenario.clone(),
            self.events.to_string(),
            format!("{:.0}", self.noop_events_per_sec),
            format!("{:.0}", self.instrumented_events_per_sec),
            format!("{:+.1}%", self.overhead_frac * 100.0),
            self.archive_windows.to_string(),
            self.archived_events.to_string(),
            if self.reconstructed { "yes" } else { "no" }.to_string(),
            if self.ok { "ok" } else { "FAIL" }.to_string(),
        ]
    }
}

/// The header matching [`ObsRow::cells`].
pub const OBS_HEADER: [&str; 9] = [
    "scenario",
    "events",
    "noop_ev/s",
    "inst_ev/s",
    "overhead",
    "archive",
    "archived",
    "reconstructed",
    "ok",
];

/// Paired noop/instrumented reps per row: the throughput columns keep the
/// per-mode minimum, the overhead column the median paired ratio.
const OBS_REPS: usize = 5;

fn obs_row(
    scenario: &str,
    keys: u32,
    skew: f64,
    window: usize,
    archive_windows: usize,
    seeds: &[u64],
    steps: usize,
) -> ObsRow {
    let traces: Vec<_> = seeds
        .iter()
        .map(|&seed| {
            random_multikey_kv_trace(&MultiKeyConfig {
                clients: 3,
                steps,
                keys,
                skew,
                contention: 0.0,
                error_prob: 0.0,
                seed,
            })
        })
        .collect();
    let gc = GcPolicy {
        archive_windows,
        ..Default::default()
    };
    // One rep of one mode: ingest every seed's stream (timed), then
    // report (untimed — reporting is not the hot path being measured).
    let run = |obs: Obs| -> (f64, bool, usize, usize, bool) {
        let (mut ok, mut archived, mut shards, mut reconstructed) = (true, 0usize, 0usize, true);
        let mut ingest_secs = 0.0f64;
        for t in &traces {
            let mut mon = kv_stream_session(window, gc, obs.clone());
            let start = std::time::Instant::now();
            for a in t.iter() {
                ok &= mon.ingest(a.clone()).status == MonitorStatus::Ok;
            }
            ingest_secs += start.elapsed().as_secs_f64();
            let report = mon.report().expect("born streaming");
            shards = shards.max(report.shards);
            ok &= report.verdict.is_ok();
            archived = archived.max(report.shard.archived_events);
            reconstructed &= report.reconstructed;
        }
        (ingest_secs, ok, archived, shards, reconstructed)
    };
    let instrumented = Obs::new(std::sync::Arc::new(StackObserver::with_tracing(1 << 12)));
    // Warm-up pass (untimed): populate allocator arenas, caches, and
    // branch predictors so the first timed pair is not systematically
    // slower on whichever mode happens to run it first.
    run(Obs::noop());
    let (mut noop_best, mut inst_best) = (f64::INFINITY, f64::INFINITY);
    let mut ratios = Vec::with_capacity(OBS_REPS);
    let (mut ok, mut archived, mut shards, mut reconstructed) = (true, 0usize, 0usize, true);
    for _ in 0..OBS_REPS {
        let (noop_secs, run_ok, _, _, _) = run(Obs::noop());
        noop_best = noop_best.min(noop_secs);
        ok &= run_ok;
        let (inst_secs, run_ok, a, s, r) = run(instrumented.clone());
        inst_best = inst_best.min(inst_secs);
        ok &= run_ok;
        archived = archived.max(a);
        shards = shards.max(s);
        reconstructed &= r;
        ratios.push(inst_secs / noop_secs.max(1e-12));
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite wall times"));
    let events: usize = traces.iter().map(|t| t.len()).sum();
    ObsRow {
        scenario: scenario.to_string(),
        events,
        noop_events_per_sec: events as f64 / noop_best.max(1e-9),
        instrumented_events_per_sec: events as f64 / inst_best.max(1e-9),
        overhead_frac: ratios[ratios.len() / 2] - 1.0,
        archive_windows,
        archived_events: archived,
        archive_event_bound: shards * archive_windows * window,
        reconstructed,
        ok,
    }
}

/// B9: the observability tax and the witness-archive bound. Two rows
/// re-run B6-shaped workloads with and without a full [`StackObserver`]
/// (the ≤5% overhead gate in `ci/bench_threshold.py` keys on their
/// `overhead_frac`); the third drives a small window with a deep witness
/// archive, checking that reconstruction fires and the archive stays
/// inside its O(shards · depth · window) event bound.
pub fn obs_rows(seeds: &[u64]) -> Vec<ObsRow> {
    obs_rows_with(seeds, STREAMING_STEPS)
}

/// [`obs_rows`] with an explicit per-seed stream length (the crate tests
/// use short streams so debug-mode `cargo test` stays fast).
pub fn obs_rows_with(seeds: &[u64], steps: usize) -> Vec<ObsRow> {
    vec![
        obs_row("obs kv keys=4 skew=0.6", 4, 0.6, 48, 0, seeds, steps),
        obs_row("obs kv keys=16 skew=1.4", 16, 1.4, 48, 0, seeds, steps),
        // Reconstruction re-runs the monolithic batch check on the
        // *closed* trace, whose single-key search cost grows with stream
        // length: capped so the re-check stays inside the default node
        // budget and the row's verdict exercises the `Ok` path.
        obs_row(
            "obs archive kv keys=1 w=8",
            1,
            0.0,
            8,
            4096,
            seeds,
            steps.min(300),
        ),
    ]
}

fn stats_json(s: &SearchStats) -> Json {
    Json::Obj(vec![
        ("nodes", Json::count(s.nodes)),
        ("memo_entries", Json::count(s.memo_entries)),
        ("memo_hits", Json::count(s.memo_hits)),
        ("pruned", Json::count(s.pruned)),
        ("leaf_checks", Json::count(s.leaf_checks)),
        ("max_history_len", Json::count(s.max_history_len)),
        ("interpretations", Json::count(s.interpretations)),
    ])
}

fn time_json(t: Option<Time>) -> Json {
    t.map(|t| Json::Int(t as i64)).unwrap_or(Json::Null)
}

/// Assembles every B-series table into one machine-readable JSON artifact
/// (schema `slin-bench/v2`), measuring the B6 streaming rows afresh.
///
/// Every section except B6's throughput/latency columns is a pure
/// function of the code under measurement (pinned seeds, node counts): CI
/// diffs the artifact against the committed baseline to catch regressions
/// in the partition speedup, the engine counters, and the (normalised)
/// streaming throughput — see `ci/bench_threshold.py`.
pub fn bench_report_json() -> String {
    bench_report_json_with(
        &streaming_rows(&STREAMING_SEEDS),
        &hostile_rows(&STREAMING_SEEDS),
        &multitenant_rows(&STREAMING_SEEDS),
        &obs_rows(&STREAMING_SEEDS),
    )
}

/// [`bench_report_json`] over pre-measured B6/B6h/B8/B9 rows (lets tests
/// check the deterministic sections for bit-reproducibility).
pub fn bench_report_json_with(
    b6_rows: &[StreamingRow],
    b6h_rows: &[HostileRow],
    b8_rows: &[MultiTenantRow],
    b9_rows: &[ObsRow],
) -> String {
    let b1 = latency_rows(&[3, 5, 7])
        .into_iter()
        .map(|r| {
            Json::Obj(vec![
                ("servers", Json::count(r.servers)),
                ("composed", time_json(r.composed)),
                ("paxos", time_json(r.paxos)),
                ("composed_msgs", Json::count(r.composed_msgs)),
                ("paxos_msgs", Json::count(r.paxos_msgs)),
            ])
        })
        .collect();
    let crossover = |rows: Vec<CrossoverRow>| -> Json {
        Json::Arr(
            rows.into_iter()
                .map(|r| {
                    Json::Obj(vec![
                        ("x", Json::Int(r.x as i64)),
                        ("composed_mean", Json::Float(r.composed_mean)),
                        ("paxos_mean", Json::Float(r.paxos_mean)),
                        ("fallback_rate", Json::Float(r.fallback_rate)),
                    ])
                })
                .collect(),
        )
    };
    let b4b = phase_chain_rows(&[1, 2, 3], 6)
        .into_iter()
        .map(|r| {
            Json::Obj(vec![
                ("fast_phases", Json::Int(r.fast_phases as i64)),
                ("latency_mean", Json::Float(r.latency_mean)),
                ("messages_mean", Json::Float(r.messages_mean)),
                ("fault_free_latency", time_json(r.fault_free_latency)),
            ])
        })
        .collect();
    let b4c = checker_stats_rows(&[0, 1, 7])
        .into_iter()
        .map(|r| {
            Json::Obj(vec![
                ("scenario", Json::Str(r.scenario.clone())),
                ("ok", Json::Bool(r.ok)),
                ("resource_limited", Json::Bool(r.resource_limited)),
                ("stats", stats_json(&r.stats)),
            ])
        })
        .collect();
    let b5 = partition_speedup_rows(&PARTITION_SEEDS)
        .into_iter()
        .map(|r| {
            Json::Obj(vec![
                ("scenario", Json::Str(r.scenario.clone())),
                ("keys", Json::Int(r.keys as i64)),
                ("partitions", Json::count(r.partitions)),
                ("mono", stats_json(&r.mono)),
                ("part", stats_json(&r.part)),
                ("remerged", Json::count(r.remerged)),
                ("verdicts_agree", Json::Bool(r.verdicts_agree)),
                ("node_ratio", Json::Float(r.node_ratio)),
            ])
        })
        .collect();
    let b10 = phase_partition_rows(&PHASE_SEEDS)
        .into_iter()
        .map(|r| {
            Json::Obj(vec![
                ("scenario", Json::Str(r.scenario.clone())),
                ("keys", Json::Int(r.keys as i64)),
                ("partitions", Json::count(r.partitions)),
                ("mono", stats_json(&r.mono)),
                ("part", stats_json(&r.part)),
                ("fallbacks", Json::count(r.fallbacks)),
                ("verdicts_agree", Json::Bool(r.verdicts_agree)),
                ("stream_agrees", Json::Bool(r.stream_agrees)),
                ("node_ratio", Json::Float(r.node_ratio)),
            ])
        })
        .collect();
    let b6 = b6_rows
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("scenario", Json::Str(r.scenario.clone())),
                ("keys", Json::Int(r.keys as i64)),
                ("skew", Json::Float(r.skew)),
                ("events", Json::count(r.events)),
                ("shards", Json::count(r.shards)),
                ("events_per_sec", Json::Float(r.events_per_sec)),
                ("p99_ingest_us", Json::Float(r.p99_ingest_us)),
                ("fallback_searches", Json::count(r.fallback_searches)),
                ("retired_events", Json::count(r.retired_events)),
                ("ok", Json::Bool(r.ok)),
            ])
        })
        .collect();
    let b6h = b6h_rows
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("scenario", Json::Str(r.scenario.clone())),
                ("window", Json::count(r.window)),
                ("events", Json::count(r.events)),
                ("events_per_sec", Json::Float(r.events_per_sec)),
                ("p99_ingest_us", Json::Float(r.p99_ingest_us)),
                ("ok", Json::Bool(r.ok)),
                ("retired_events", Json::count(r.retired_events)),
                ("epoch_cuts", Json::count(r.epoch_cuts)),
                ("lossy_cuts", Json::count(r.lossy_cuts)),
                ("search_nodes", Json::count(r.search_nodes)),
                ("peak_live_configs", Json::count(r.peak_live_configs)),
                ("peak_multiset_nodes", Json::count(r.peak_multiset_nodes)),
                ("peak_window_events", Json::count(r.peak_window_events)),
            ])
        })
        .collect();
    let b8 = b8_rows
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("scenario", Json::Str(r.scenario.clone())),
                ("tenants", Json::Int(r.tenants as i64)),
                ("skew", Json::Float(r.skew)),
                ("queue_capacity", Json::count(r.queue_capacity)),
                ("events", Json::count(r.events)),
                ("events_per_sec", Json::Float(r.events_per_sec)),
                ("p99_ingest_us", Json::Float(r.p99_ingest_us)),
                ("queue_depth_peak", Json::count(r.queue_depth_peak)),
                ("sheds", Json::Int(r.sheds as i64)),
                ("shed_tenants", Json::count(r.shed_tenants)),
                ("ok", Json::Bool(r.ok)),
            ])
        })
        .collect();
    let b9 = b9_rows
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("scenario", Json::Str(r.scenario.clone())),
                ("events", Json::count(r.events)),
                ("noop_events_per_sec", Json::Float(r.noop_events_per_sec)),
                (
                    "instrumented_events_per_sec",
                    Json::Float(r.instrumented_events_per_sec),
                ),
                ("overhead_frac", Json::Float(r.overhead_frac)),
                ("archive_windows", Json::count(r.archive_windows)),
                ("archived_events", Json::count(r.archived_events)),
                ("archive_event_bound", Json::count(r.archive_event_bound)),
                ("reconstructed", Json::Bool(r.reconstructed)),
                ("ok", Json::Bool(r.ok)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema", Json::Str("slin-bench/v2".into())),
        ("b1_latency", Json::Arr(b1)),
        (
            "b2_crossover",
            crossover(crossover_rows(&[0, 10, 20, 30], 8)),
        ),
        ("b2b_contention", crossover(contention_rows(&[1, 2, 3], 6))),
        ("b4b_phase_chain", Json::Arr(b4b)),
        ("b4c_checker_stats", Json::Arr(b4c)),
        ("b5_partition", Json::Arr(b5)),
        ("b6_streaming", Json::Arr(b6)),
        ("b6h_hostile", Json::Arr(b6h)),
        ("b8_multitenant", Json::Arr(b8)),
        ("b9_observability", Json::Arr(b9)),
        ("b10_phase_partition", Json::Arr(b10)),
    ])
    .render()
}

/// Renders rows as an aligned text table (used by the benches to print the
/// regenerated experiment tables).
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (k, cell) in row.iter().enumerate() {
            widths[k] = widths[k].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(
        &header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn b1_shape_fast_path_beats_paxos_everywhere() {
        for row in latency_rows(&[3, 5, 7]) {
            let (Some(fast), Some(slow)) = (row.composed, row.paxos) else {
                panic!("undecided run in fault-free scenario: {row:?}");
            };
            assert_eq!(fast, 2, "n={}", row.servers);
            assert!(slow >= 3, "n={}", row.servers);
            assert!(fast < slow, "n={}", row.servers);
        }
    }

    #[test]
    fn b2_shape_loss_erodes_the_fast_path() {
        let rows = crossover_rows(&[0, 30], 12);
        // Without loss the composed protocol is strictly faster…
        assert!(rows[0].composed_mean < rows[0].paxos_mean, "{rows:?}");
        assert_eq!(rows[0].fallback_rate, 0.0);
        // …and heavy loss triggers fallbacks, degrading it toward (or past)
        // pure Paxos.
        assert!(rows[1].fallback_rate > 0.0, "{rows:?}");
        assert!(
            rows[1].composed_mean > rows[0].composed_mean,
            "loss should increase composed latency: {rows:?}"
        );
    }

    #[test]
    fn b4b_shape_chains_keep_the_common_case_fast() {
        let rows = phase_chain_rows(&[1, 2, 3], 8);
        for row in &rows {
            // The fault-free fast path stays at 2 message delays no matter
            // how long the chain — added phases are pay-per-use.
            assert_eq!(row.fault_free_latency, Some(2), "{row:?}");
        }
        // Chaining stays linear, never quadratic: a retried fast phase can
        // even *save* messages versus falling straight into Paxos (transient
        // contention resolves), so we only bound the growth.
        assert!(
            rows[2].messages_mean <= rows[0].messages_mean * 2.0,
            "{rows:?}"
        );
    }

    #[test]
    fn b4c_engine_stats_rows_verify_and_count() {
        let rows = checker_stats_rows(&[0, 7]);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.ok, "{row:?}");
            assert!(row.stats.nodes > 0, "{row:?}");
            assert!(row.stats.interpretations > 0, "{row:?}");
            assert_eq!(row.cells().len(), CHECKER_STATS_HEADER.len());
        }
    }

    #[test]
    fn b5_shape_partitioning_reduces_nodes_at_least_2x() {
        let rows = partition_speedup_rows(&PARTITION_SEEDS);
        for row in &rows {
            assert!(row.verdicts_agree, "{row:?}");
            assert!(row.part.nodes > 0, "{row:?}");
            assert_eq!(row.cells().len(), PARTITION_HEADER.len());
        }
        // The acceptance bar: every multi-key KvStore workload shows at
        // least a 2x node-count reduction…
        for row in rows
            .iter()
            .filter(|r| r.scenario.starts_with("kv keys=") && r.keys > 1)
        {
            assert!(
                row.node_ratio >= 2.0,
                "expected >= 2x node reduction: {row:?}"
            );
            assert!(row.partitions > 1, "{row:?}");
        }
        // …while the hostile controls collapse to a single partition and
        // pay (essentially) nothing.
        let hostile: Vec<_> = rows
            .iter()
            .filter(|r| r.scenario.contains("hostile"))
            .collect();
        assert_eq!(hostile.len(), 2);
        for row in hostile {
            assert_eq!(row.partitions, 1, "{row:?}");
            assert!((row.node_ratio - 1.0).abs() < 1e-9, "{row:?}");
        }
    }

    #[test]
    fn b10_shape_certified_keyed_paths_beat_monolithic_on_phase_traces() {
        let rows = phase_partition_rows(&PHASE_SEEDS);
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert!(row.verdicts_agree, "{row:?}");
            assert!(row.stream_agrees, "{row:?}");
            // The certificate's contract: the keyed runtime never
            // abandons the decomposition the analyzer proved.
            assert_eq!(row.fallbacks, 0, "{row:?}");
            assert!(row.part.nodes > 0, "{row:?}");
            assert_eq!(row.cells().len(), PHASE_PARTITION_HEADER.len());
        }
        // Multi-key faulty phase traces must show at least a 2x
        // node-count reduction (refutation localizes to the violating
        // class) — the B10 acceptance bar, also gated in release mode by
        // ci/bench_threshold.py.
        for row in rows
            .iter()
            .filter(|r| r.scenario.contains("faulty") && r.keys > 1)
        {
            assert!(
                row.node_ratio > 2.0,
                "expected > 2x node reduction: {row:?}"
            );
            assert!(row.partitions > 1, "{row:?}");
        }
        // The single-class faulty control collapses to one partition and
        // pays (essentially) nothing.
        let hostile = rows
            .iter()
            .find(|r| r.scenario.contains("hostile"))
            .expect("hostile control row");
        assert_eq!(hostile.partitions, 1, "{hostile:?}");
        assert!((hostile.node_ratio - 1.0).abs() < 0.5, "{hostile:?}");
        // Clean phase traces linearize greedily on both paths (responses
        // are in apply order by construction): agreement is the claim
        // there, not node counts.
        for row in rows.iter().filter(|r| r.scenario.contains("clean")) {
            assert!(row.mono.nodes > 0, "{row:?}");
        }
    }

    #[test]
    fn json_report_is_deterministic_and_covers_all_b_series() {
        // B6/B6h's wall-clock columns vary run to run; with the rows
        // fixed, everything else must be bit-reproducible.
        let b6 = streaming_rows_with(&[0], 200);
        let b6h = hostile_rows_with(&[0], 200);
        let b8 = multitenant_rows_with(&[0], 20);
        let b9 = obs_rows_with(&[0], 120);
        let a = bench_report_json_with(&b6, &b6h, &b8, &b9);
        assert_eq!(
            a,
            bench_report_json_with(&b6, &b6h, &b8, &b9),
            "artifact must be reproducible"
        );
        for key in [
            "\"schema\": \"slin-bench/v2\"",
            "\"b1_latency\"",
            "\"b2_crossover\"",
            "\"b2b_contention\"",
            "\"b4b_phase_chain\"",
            "\"b4c_checker_stats\"",
            "\"b5_partition\"",
            "\"b6_streaming\"",
            "\"b6h_hostile\"",
            "\"b8_multitenant\"",
            "\"b9_observability\"",
            "\"b10_phase_partition\"",
            "\"stream_agrees\"",
            "\"fallbacks\"",
            "\"overhead_frac\"",
            "\"archive_event_bound\"",
            "\"queue_depth_peak\"",
            "\"sheds\"",
            "\"memo_hits\"",
            "\"memo_entries\"",
            "\"node_ratio\"",
            "\"events_per_sec\"",
            "\"p99_ingest_us\"",
            "\"epoch_cuts\"",
            "\"peak_multiset_nodes\"",
        ] {
            assert!(a.contains(key), "missing {key} in artifact");
        }
    }

    #[test]
    fn b6h_hostile_rows_stay_exact_and_bounded() {
        let steps = 420;
        let rows = hostile_rows_with(&[0], steps);
        assert_eq!(rows.len(), 2 * HOSTILE_WINDOWS.len());
        for row in &rows {
            assert!(row.ok, "{row:?}");
            assert!(row.events > 0, "{row:?}");
            assert_eq!(row.lossy_cuts, 0, "exact mode must never go lossy: {row:?}");
            assert_eq!(row.cells().len(), HOSTILE_HEADER.len());
        }
        // The streams are genuinely never-quiescent: non-quiescent epoch
        // cuts fire, and events retire, in every row of the sweep.
        for row in &rows {
            assert!(row.epoch_cuts > 0, "no epoch cut: {row:?}");
            assert!(row.retired_events > 0, "nothing retired: {row:?}");
        }
        // Deterministic in the seeds: the work/memory columns reproduce.
        let again = hostile_rows_with(&[0], steps);
        for (a, b) in rows.iter().zip(&again) {
            assert_eq!(a.search_nodes, b.search_nodes, "{:?}", a.scenario);
            assert_eq!(a.peak_multiset_nodes, b.peak_multiset_nodes);
            assert_eq!(a.peak_live_configs, b.peak_live_configs);
            assert_eq!(a.retired_events, b.retired_events);
            assert_eq!(a.epoch_cuts, b.epoch_cuts);
        }
        // The memory proxy is O(window + alphabet): growing the window
        // across the sweep must not grow the retained state more than
        // linearly.
        for (scenario, _) in super::hostile_bases() {
            let of = |w: usize| {
                rows.iter()
                    .find(|r| r.window == w && r.scenario.starts_with(scenario))
                    .expect("swept window")
            };
            let (small, large) = (of(HOSTILE_WINDOWS[0]), of(*HOSTILE_WINDOWS.last().unwrap()));
            let growth = large.peak_multiset_nodes as f64 / small.peak_multiset_nodes.max(1) as f64;
            // The KV alphabet of these streams is ~12 distinct inputs; 16
            // is the additive slack of the linear reference.
            let linear = (large.window as f64 + 16.0) / (small.window as f64 + 16.0);
            assert!(
                growth <= linear * 1.5,
                "{scenario}: memory grew superlinearly in the window \
                 ({} -> {} nodes, {growth:.2}x vs linear {linear:.2}x)",
                small.peak_multiset_nodes,
                large.peak_multiset_nodes,
            );
        }
    }

    #[test]
    fn b6_streams_stay_linearizable_and_report_load_shape() {
        let rows = streaming_rows_with(&[0], 300);
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert!(row.ok, "{row:?}");
            assert!(row.events > 0 && row.events_per_sec > 0.0, "{row:?}");
            assert!(row.p99_ingest_us >= 0.0, "{row:?}");
            assert_eq!(row.cells().len(), STREAMING_HEADER.len());
        }
        // Shard counts follow the key space; bounded-window GC engages on
        // the single-key (window-saturating) workload.
        assert_eq!(rows[0].shards, 1);
        assert!(rows[2].shards > rows[1].shards, "{rows:?}");
        assert!(rows[0].retired_events > 0, "{rows:?}");
    }

    #[test]
    fn b8_daemon_rows_shed_only_when_under_provisioned() {
        let rows = multitenant_rows_with(&[0], 25);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.ok, "{row:?}");
            assert!(row.events > 0 && row.events_per_sec > 0.0, "{row:?}");
            assert!(
                row.queue_depth_peak <= row.queue_capacity,
                "queue bound violated: {row:?}"
            );
            assert_eq!(row.cells().len(), MULTITENANT_HEADER.len());
        }
        // Provisioned daemons never shed; the under-provisioned one must.
        assert_eq!(rows[0].sheds, 0, "{:?}", rows[0]);
        assert_eq!(rows[1].sheds, 0, "{:?}", rows[1]);
        assert!(rows[2].sheds > 0, "saturation must shed: {:?}", rows[2]);
        assert!(rows[2].shed_tenants > 0);
    }

    #[test]
    fn b9_obs_rows_report_overhead_and_bound_the_archive() {
        let rows = obs_rows_with(&[0], 300);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.ok, "{row:?}");
            assert!(row.events > 0, "{row:?}");
            assert!(row.noop_events_per_sec > 0.0, "{row:?}");
            assert!(row.instrumented_events_per_sec > 0.0, "{row:?}");
            // The 5% gate lives in ci/bench_threshold.py against the
            // release-mode artifact; debug mode only sanity-bounds the
            // ratio (finite, not a multiple of the noop time).
            assert!(row.overhead_frac.is_finite(), "{row:?}");
            assert!(row.overhead_frac < 3.0, "{row:?}");
            assert_eq!(row.cells().len(), OBS_HEADER.len());
        }
        // The pure-overhead rows keep archival fully off…
        for row in rows.iter().filter(|r| r.archive_windows == 0) {
            assert!(!row.reconstructed, "{row:?}");
            assert_eq!(row.archived_events, 0, "{row:?}");
            assert_eq!(row.archive_event_bound, 0, "{row:?}");
        }
        // …and the archival row reconstructs within its memory bound.
        let archive = rows
            .iter()
            .find(|r| r.archive_windows > 0)
            .expect("archival row");
        assert!(archive.reconstructed, "{archive:?}");
        assert!(archive.archived_events > 0, "{archive:?}");
        assert!(
            archive.archived_events <= archive.archive_event_bound,
            "archive bound violated: {archive:?}"
        );
    }

    #[test]
    fn table_rendering_aligns_columns() {
        let s = render_table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["10".into(), "20".into()]],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }
}
