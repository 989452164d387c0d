//! Work pins: what the checker spends, and what it answers, on its load
//! tables at full size.
//!
//! Every column here is a pure function of the code and the pinned seeds,
//! so it is a test, not a benchmark (wall-clock lives in `benchmark/`).
//! The discipline is `kernel_pins.rs`'s, one level up: each family drives
//! the public `Session` surface over a fixed corpus and compares the row
//! it gets with a `const` table, exactly. The columns are of two kinds.
//!
//! **Answers** must not move, whatever changes below them:
//!
//! * B4c `ok`; B5 `partitions`, `remerged`, `agrees`; B10 `partitions`,
//!   `fallbacks` (zero: the decomposition is statically certified),
//!   `batch_agrees`, `stream_agrees`; B14 `commits`, `partitions`,
//!   `remerged`, `agrees`;
//! * B6 `events`, `shards`, `ok`, `retired_events`; B6h `events`, `ok`,
//!   `retired_events`, `epoch_cuts`, `lossy_cuts` (zero: exact mode).
//!
//! **Work and memory** may only fall, and are re-pinned when they do:
//!
//! * B4c `interpretations`, `nodes`; B5, B10 and B14 `mono_nodes`,
//!   `part_nodes`; B14 `witness_entries`;
//! * B6 `fallback_searches`; B6h `search_nodes`, `peak_live_configs`,
//!   `peak_multiset_nodes`, `peak_window_events`.
//!
//! A failing pin prints the fresh table as Rust source. A change that
//! lowers work re-pins by pasting it over the `const`, and says so; one
//! that moves an answer, or raises work, has a bug to find first. Beside
//! the pins sit the structural gates a re-pin must still clear (the 2x
//! partition floors, the B6h per-event cap and its flatness and memory
//! slopes, B14's witness linear in its commits), so a table cannot be
//! pasted into a shape the design forbids.
//!
//! CI also runs this file in release: the memo's hasher is wrapping
//! arithmetic and the shard's subset walks survive only as
//! `debug_assert!`s, so the counts must agree across build profiles.

use slin_adt::{KvInput, KvKeyPartitioner, KvStore, Set, SetElemPartitioner};
use slin_analysis::{certify_switch, AnalyzeConfig, SwitchCert};
use slin_consensus::harness::{run_scenario, verify_run, Scenario};
use slin_core::gen::{
    phase_trace_bounds, random_hostile_kv_trace, random_multikey_kv_trace,
    random_multikey_set_trace, random_phase_kv_trace, HostileConfig, MultiKeyConfig, PhaseConfig,
};
use slin_core::initrel::ExactInit;
use slin_core::lin::LinChecker;
use slin_core::session::{Checker, Session, Strategy};
use slin_core::slin::SlinChecker;
use slin_core::stream::MonitorStatus;
use slin_core::ObjAction;
use slin_obs::{Obs, StackObserver};
use slin_trace::Trace;
use std::fmt::Debug;

/// `Debug` of a pin row is its own literal, so the fresh table pastes
/// over the `const` it failed against.
fn assert_pinned<T: Debug + PartialEq>(family: &str, got: &[T], pinned: &[T]) {
    if got != pinned {
        let fresh: String = got.iter().map(|row| format!("    {row:?},\n")).collect();
        panic!("{family} moved. Answers must not; if only work fell, re-pin by pasting:\n{fresh}");
    }
}

// B4c: the engine on protocol-generated traces.

#[derive(Debug, PartialEq)]
struct EnginePin {
    scenario: &'static str,
    ok: bool,
    interpretations: usize,
    nodes: usize,
}

#[rustfmt::skip]
const B4C: [EnginePin; 4] = [
    EnginePin { scenario: "contended(3, [1,2], seed 0)", ok: true, interpretations: 11, nodes: 20 },
    EnginePin { scenario: "contended(3, [1,2], seed 1)", ok: true, interpretations: 11, nodes: 20 },
    EnginePin { scenario: "contended(3, [1,2], seed 7)", ok: true, interpretations: 11, nodes: 20 },
    EnginePin { scenario: "contended, 3 fast phases", ok: true, interpretations: 13, nodes: 20 },
];

/// Verifying whole contended runs (3 servers, clients racing on values 1
/// and 2), every phase and the object projection: what the speculative
/// checker costs on traces a protocol produced.
#[test]
fn b4c_engine_stats_rows_verify_and_count() {
    let contended = |seed| Scenario::contended(3, &[1, 2], seed);
    let rows: Vec<EnginePin> = [
        ("contended(3, [1,2], seed 0)", contended(0)),
        ("contended(3, [1,2], seed 1)", contended(1)),
        ("contended(3, [1,2], seed 7)", contended(7)),
        ("contended, 3 fast phases", contended(1).with_fast_phases(3)),
    ]
    .into_iter()
    .map(|(scenario, s)| {
        let v = verify_run(&s, &run_scenario(&s));
        EnginePin {
            scenario,
            ok: v.all_ok(),
            interpretations: v.stats.interpretations,
            nodes: v.stats.nodes,
        }
    })
    .collect();
    assert_pinned("B4c", &rows, &B4C);
}

// B5: partitioned against monolithic checking as the key space widens.

#[derive(Debug, PartialEq)]
struct PartitionPin {
    scenario: &'static str,
    partitions: usize,
    remerged: usize,
    agrees: bool,
    mono_nodes: usize,
    part_nodes: usize,
}

#[rustfmt::skip]
const B5: [PartitionPin; 6] = [
    PartitionPin { scenario: "kv keys=1 (hostile)", partitions: 1, remerged: 0, agrees: true, mono_nodes: 354, part_nodes: 354 },
    PartitionPin { scenario: "kv keys=2", partitions: 2, remerged: 0, agrees: true, mono_nodes: 338, part_nodes: 130 },
    PartitionPin { scenario: "kv keys=4", partitions: 4, remerged: 0, agrees: true, mono_nodes: 268, part_nodes: 89 },
    PartitionPin { scenario: "kv keys=8", partitions: 8, remerged: 0, agrees: true, mono_nodes: 244, part_nodes: 89 },
    PartitionPin { scenario: "kv hot-key (hostile)", partitions: 1, remerged: 0, agrees: true, mono_nodes: 356, part_nodes: 356 },
    PartitionPin { scenario: "set elems=6", partitions: 6, remerged: 0, agrees: true, mono_nodes: 103, part_nodes: 90 },
];

const PARTITION_SEEDS: [u64; 6] = [0, 1, 2, 7, 9, 13];

/// Monolithic against partitioned checking of `generate`d traces, summed
/// over [`PARTITION_SEEDS`]; `agrees` is verdict and witness, byte for
/// byte.
fn partition_row<T, P, G>(
    scenario: &'static str,
    adt: &T,
    partitioner: &P,
    generate: G,
    base: MultiKeyConfig,
) -> PartitionPin
where
    T: slin_adt::Adt + Clone + Send + Sync,
    T::Input: Ord + Send + Sync,
    T::Output: Sync,
    P: slin_adt::Partitioner<T>,
    G: Fn(&MultiKeyConfig) -> Trace<ObjAction<T, ()>>,
{
    let mut mono_session = Checker::builder(LinChecker::owned(adt.clone()))
        .strategy(Strategy::Monolithic)
        .build();
    let mut part_session = Checker::builder(LinChecker::owned(adt.clone()))
        .partitioner(partitioner)
        .build();
    let mut row = PartitionPin {
        scenario,
        partitions: 0,
        remerged: 0,
        agrees: true,
        mono_nodes: 0,
        part_nodes: 0,
    };
    for seed in PARTITION_SEEDS {
        let t = generate(&MultiKeyConfig { seed, ..base });
        let mono = mono_session.check(&t);
        let part = part_session.check(&t);
        let report = part.partition.expect("partitioned strategy reports");
        row.mono_nodes += mono.stats.nodes;
        row.part_nodes += part.stats.nodes;
        row.partitions = row.partitions.max(report.partitions);
        row.remerged += report.remerged as usize;
        row.agrees &= part.outcome == mono.outcome;
    }
    row
}

/// `kv keys=1` and `kv hot-key` are the partition-hostile controls; the
/// multi-key rows are where P-compositionality pays.
#[test]
fn b5_shape_partitioning_reduces_nodes_at_least_2x() {
    let base = MultiKeyConfig {
        clients: 5,
        steps: 48,
        skew: 0.3,
        contention: 0.0,
        error_prob: 0.0,
        seed: 0,
        keys: 1,
    };
    let kv = |scenario, keys, contention| {
        let cfg = MultiKeyConfig {
            keys,
            contention,
            ..base
        };
        partition_row(
            scenario,
            &KvStore,
            &KvKeyPartitioner,
            random_multikey_kv_trace,
            cfg,
        )
    };
    let rows = [
        kv("kv keys=1 (hostile)", 1, 0.0),
        kv("kv keys=2", 2, 0.0),
        kv("kv keys=4", 4, 0.0),
        kv("kv keys=8", 8, 0.0),
        kv("kv hot-key (hostile)", 8, 1.0),
        partition_row(
            "set elems=6",
            &Set,
            &SetElemPartitioner,
            random_multikey_set_trace,
            MultiKeyConfig { keys: 6, ..base },
        ),
    ];
    for row in &rows {
        if row.scenario.contains("hostile") {
            // One partition, and the decomposition costs nothing.
            assert_eq!(row.partitions, 1, "{row:?}");
            assert_eq!(row.mono_nodes, row.part_nodes, "{row:?}");
        } else if row.scenario.starts_with("kv") {
            assert!(row.partitions > 1, "{row:?}");
            assert!(
                row.mono_nodes >= 2 * row.part_nodes,
                "expected >= 2x node reduction: {row:?}"
            );
        }
    }
    assert_pinned("B5", &rows, &B5);
}

// B10: the switch-certified keyed paths on phase traces.

#[derive(Debug, PartialEq)]
struct PhasePin {
    scenario: &'static str,
    partitions: usize,
    fallbacks: usize,
    batch_agrees: bool,
    stream_agrees: bool,
    mono_nodes: usize,
    part_nodes: usize,
}

#[rustfmt::skip]
const B10: [PhasePin; 6] = [
    PhasePin { scenario: "phase keys=4 clean", partitions: 4, fallbacks: 0, batch_agrees: true, stream_agrees: true, mono_nodes: 47, part_nodes: 47 },
    PhasePin { scenario: "phase keys=8 clean", partitions: 8, fallbacks: 0, batch_agrees: true, stream_agrees: true, mono_nodes: 47, part_nodes: 47 },
    PhasePin { scenario: "phase keys=1 faulty (hostile)", partitions: 1, fallbacks: 0, batch_agrees: true, stream_agrees: true, mono_nodes: 739, part_nodes: 739 },
    PhasePin { scenario: "phase keys=2 faulty", partitions: 2, fallbacks: 0, batch_agrees: true, stream_agrees: true, mono_nodes: 542, part_nodes: 122 },
    PhasePin { scenario: "phase keys=4 faulty", partitions: 4, fallbacks: 0, batch_agrees: true, stream_agrees: true, mono_nodes: 492, part_nodes: 16 },
    PhasePin { scenario: "phase keys=8 faulty", partitions: 8, fallbacks: 0, batch_agrees: true, stream_agrees: true, mono_nodes: 474, part_nodes: 12 },
];

const PHASE_SEEDS: [u64; 4] = [0, 1, 2, 3];

/// The monolithic speculative checker against the certified keyed batch
/// session and the certified keyed sharded stream, over generated phase
/// traces (init and abort switches included), summed over [`PHASE_SEEDS`].
fn phase_row(scenario: &'static str, cert: &SwitchCert, base: PhaseConfig) -> PhasePin {
    let (m, n) = phase_trace_bounds();
    let chk = SlinChecker::owned(KvStore, ExactInit::new(), m, n);
    let keyed = || {
        Checker::builder(chk.clone())
            .partitioner(KvKeyPartitioner)
            .switch_certified(cert)
            .expect("the shipped kv partitioner is certified switch-independent")
    };
    let mut mono_session = Checker::builder(chk.clone())
        .strategy(Strategy::Monolithic)
        .build::<Vec<KvInput>>();
    let mut part_session = keyed().build::<Vec<KvInput>>();
    let mut row = PhasePin {
        scenario,
        partitions: 0,
        fallbacks: 0,
        batch_agrees: true,
        stream_agrees: true,
        mono_nodes: 0,
        part_nodes: 0,
    };
    for seed in PHASE_SEEDS {
        let t = random_phase_kv_trace(&PhaseConfig { seed, ..base });
        let mono = mono_session.check(&t);
        let part = part_session.check(&t);
        let report = part.partition.expect("certified sessions partition");
        row.mono_nodes += mono.stats.nodes;
        row.part_nodes += part.stats.nodes;
        row.partitions = row.partitions.max(report.partitions);
        row.fallbacks += report.fallback.is_some() as usize;
        row.batch_agrees &= part.outcome == mono.outcome;
        let mut mon = keyed()
            .strategy(Strategy::Streaming { window: None })
            .build::<Vec<KvInput>>();
        for a in t.iter() {
            mon.ingest(a.clone());
        }
        let streamed = mon.report().expect("born streaming");
        row.fallbacks += streamed.fallback.is_some() as usize;
        row.stream_agrees &= streamed.verdict == mono.outcome;
    }
    row
}

/// The `clean` rows linearize greedily on both paths (the generator's
/// exact abort values force responses into apply order): agreement at
/// zero fallbacks is the claim there, not node counts. The `faulty` rows
/// must *refute*, and refutation is where the keyed decomposition pays:
/// the exhaustive search is confined to the violating class.
#[test]
fn b10_shape_certified_keyed_paths_beat_monolithic_on_phase_traces() {
    let cert = certify_switch(&KvStore, &KvKeyPartitioner, &AnalyzeConfig::default())
        .expect("the shipped kv partitioner is switch-independent under ExactInit");
    let row = |scenario, keys, error_prob| {
        let cfg = PhaseConfig {
            clients: 4,
            steps: 36,
            keys,
            skew: 0.3,
            prefix_ops: 4,
            aborts: 2,
            error_prob,
            seed: 0,
        };
        phase_row(scenario, &cert, cfg)
    };
    let rows = [
        row("phase keys=4 clean", 4, 0.0),
        row("phase keys=8 clean", 8, 0.0),
        row("phase keys=1 faulty (hostile)", 1, 0.4),
        row("phase keys=2 faulty", 2, 0.4),
        row("phase keys=4 faulty", 4, 0.4),
        row("phase keys=8 faulty", 8, 0.4),
    ];
    for row in &rows {
        assert_eq!(row.fallbacks, 0, "a certified session fell back: {row:?}");
        assert!(row.batch_agrees && row.stream_agrees, "{row:?}");
        if row.scenario.contains("hostile") {
            assert_eq!(row.partitions, 1, "{row:?}");
            assert!(
                row.mono_nodes.abs_diff(row.part_nodes) * 2 < row.part_nodes,
                "one class pays (essentially) nothing: {row:?}"
            );
        } else if row.scenario.contains("faulty") {
            assert!(row.partitions > 1, "{row:?}");
            assert!(
                row.mono_nodes > 2 * row.part_nodes,
                "expected > 2x node reduction: {row:?}"
            );
        }
    }
    assert_pinned("B10", &rows, &B10);
}

// B14: the keyed merge at about a thousand commits.

#[derive(Debug, PartialEq)]
struct MergePin {
    scenario: &'static str,
    commits: usize,
    partitions: usize,
    remerged: bool,
    agrees: bool,
    mono_nodes: usize,
    part_nodes: usize,
    witness_entries: usize,
}

#[rustfmt::skip]
const B14: [MergePin; 1] = [
    MergePin { scenario: "phase keys=8 clean, 4400 steps, seed 77", commits: 996, partitions: 8, remerged: false, agrees: true, mono_nodes: 996, part_nodes: 996, witness_entries: 4012 },
];

/// One trace of about a thousand commits over eight keys, checked by a
/// switch-certified `Auto` session — class searches and the merge — and
/// by a `Monolithic` one. The verdicts must agree in `Debug` text.
/// `witness_entries` is what the witness stores: the inputs of its one
/// commit history and of its init and abort histories, plus one per
/// commit cut. It is linear in the commits; a copy of every commit's
/// history would be quadratic (about 500 000 inputs here).
#[test]
fn b14_the_keyed_merge_at_a_thousand_commits_agrees_and_stays_linear() {
    let cert = certify_switch(&KvStore, &KvKeyPartitioner, &AnalyzeConfig::default())
        .expect("the shipped kv partitioner is switch-independent under ExactInit");
    let (m, n) = phase_trace_bounds();
    let chk = SlinChecker::owned(KvStore, ExactInit::new(), m, n);
    let t = random_phase_kv_trace(&PhaseConfig {
        clients: 4,
        steps: 4400,
        keys: 8,
        aborts: 2,
        seed: 77,
        ..PhaseConfig::default()
    });
    let mono = Checker::builder(chk.clone())
        .strategy(Strategy::Monolithic)
        .build::<Vec<KvInput>>()
        .check(&t);
    let part = Checker::builder(chk)
        .partitioner(KvKeyPartitioner)
        .switch_certified(&cert)
        .expect("certified")
        .build::<Vec<KvInput>>()
        .check(&t);
    let report = part.partition.expect("certified sessions partition");
    let witness = part
        .outcome
        .as_ref()
        .expect("the generator's clean traces check");
    let chain = &witness.commit_histories;
    let histories = |hs: &[(usize, Vec<KvInput>)]| hs.iter().map(|(_, h)| h.len()).sum::<usize>();
    let row = MergePin {
        scenario: "phase keys=8 clean, 4400 steps, seed 77",
        commits: chain.cuts().len(),
        partitions: report.partitions,
        remerged: report.remerged,
        agrees: part.outcome == mono.outcome,
        mono_nodes: mono.stats.nodes,
        part_nodes: part.stats.nodes,
        witness_entries: chain.history().len()
            + chain.cuts().len()
            + histories(&witness.init_histories)
            + histories(&witness.abort_histories),
    };
    assert!(row.agrees && row.commits > 900, "{row:?}");
    assert!(row.witness_entries < 8 * row.commits, "{row:?}");
    assert_pinned("B14", &[row], &B14);
}

// B6 and B6h: bounded-window streaming sessions over multi-key KV streams.

const STREAMING_SEEDS: [u64; 3] = [0, 1, 2];

type KvStream = Session<LinChecker<KvStore>, (), KvKeyPartitioner>;

fn kv_stream(window: usize, obs: Obs) -> KvStream {
    Checker::builder(LinChecker::owned(KvStore))
        .partitioner(KvKeyPartitioner)
        .strategy(Strategy::Streaming {
            window: Some(window),
        })
        .observer(obs)
        .build()
}

/// A 1600-step stream, linearizable by construction; few enough clients
/// that shard-quiescent points (the GC's safe retirement cuts) recur
/// regularly even on one key.
fn kv_stream_trace(
    keys: u32,
    skew: f64,
    contention: f64,
    seed: u64,
) -> Trace<ObjAction<KvStore, ()>> {
    random_multikey_kv_trace(&MultiKeyConfig {
        clients: 3,
        steps: 1600,
        keys,
        skew,
        contention,
        error_prob: 0.0,
        seed,
    })
}

#[derive(Debug, PartialEq)]
struct StreamPin {
    scenario: &'static str,
    events: usize,
    shards: usize,
    ok: bool,
    retired_events: usize,
    fallback_searches: usize,
}

#[rustfmt::skip]
const B6: [StreamPin; 5] = [
    StreamPin { scenario: "stream kv keys=1 skew=0", events: 3200, shards: 1, ok: true, retired_events: 3168, fallback_searches: 129 },
    StreamPin { scenario: "stream kv keys=4 skew=0.6", events: 3201, shards: 4, ok: true, retired_events: 2928, fallback_searches: 42 },
    StreamPin { scenario: "stream kv keys=16 skew=0.6", events: 3201, shards: 16, ok: true, retired_events: 2112, fallback_searches: 17 },
    StreamPin { scenario: "stream kv keys=16 skew=1.4", events: 3201, shards: 16, ok: true, retired_events: 2256, fallback_searches: 35 },
    StreamPin { scenario: "stream kv keys=16 hot-key", events: 3198, shards: 16, ok: true, retired_events: 2880, fallback_searches: 99 },
];

/// Keys × skew, plus one hot-key contention control, through `w = 48`
/// sessions; `ok` is every per-event status of every seed.
#[test]
fn b6_streams_stay_linearizable_and_report_load_shape() {
    let row = |scenario, keys, skew, contention| {
        let mut row = StreamPin {
            scenario,
            events: 0,
            shards: 0,
            ok: true,
            retired_events: 0,
            fallback_searches: 0,
        };
        for seed in STREAMING_SEEDS {
            let t = kv_stream_trace(keys, skew, contention, seed);
            let mut mon = kv_stream(48, Obs::noop());
            for a in t.iter() {
                row.ok &= mon.ingest(a.clone()).status == MonitorStatus::Ok;
            }
            let report = mon.report().expect("born streaming");
            row.events += t.len();
            row.shards = row.shards.max(report.shards);
            row.retired_events += report.shard.retired_events;
            row.fallback_searches += report.shard.fallback_searches;
        }
        row
    };
    let rows = [
        row("stream kv keys=1 skew=0", 1, 0.0, 0.0),
        row("stream kv keys=4 skew=0.6", 4, 0.6, 0.0),
        row("stream kv keys=16 skew=0.6", 16, 0.6, 0.0),
        row("stream kv keys=16 skew=1.4", 16, 1.4, 0.0),
        row("stream kv keys=16 hot-key", 16, 0.6, 0.9),
    ];
    assert_pinned("B6", &rows, &B6);
}

#[derive(Debug, PartialEq)]
struct HostilePin {
    family: &'static str,
    window: usize,
    events: usize,
    ok: bool,
    retired_events: usize,
    epoch_cuts: usize,
    lossy_cuts: usize,
    search_nodes: usize,
    peak_live_configs: usize,
    peak_multiset_nodes: usize,
    peak_window_events: usize,
}

#[rustfmt::skip]
const B6H: [HostilePin; 8] = [
    HostilePin { family: "zipf-delay", window: 8, events: 3360, ok: true, retired_events: 3336, epoch_cuts: 278, lossy_cuts: 0, search_nodes: 14881, peak_live_configs: 35, peak_multiset_nodes: 69, peak_window_events: 11 },
    HostilePin { family: "zipf-delay", window: 12, events: 3360, ok: true, retired_events: 3336, epoch_cuts: 186, lossy_cuts: 0, search_nodes: 17319, peak_live_configs: 34, peak_multiset_nodes: 53, peak_window_events: 20 },
    HostilePin { family: "zipf-delay", window: 16, events: 3360, ok: true, retired_events: 3296, epoch_cuts: 145, lossy_cuts: 0, search_nodes: 17867, peak_live_configs: 41, peak_multiset_nodes: 59, peak_window_events: 27 },
    HostilePin { family: "zipf-delay", window: 24, events: 3360, ok: true, retired_events: 3288, epoch_cuts: 86, lossy_cuts: 0, search_nodes: 18748, peak_live_configs: 32, peak_multiset_nodes: 55, peak_window_events: 40 },
    HostilePin { family: "stragglers", window: 8, events: 3389, ok: true, retired_events: 3376, epoch_cuts: 368, lossy_cuts: 0, search_nodes: 44854, peak_live_configs: 63, peak_multiset_nodes: 101, peak_window_events: 6 },
    HostilePin { family: "stragglers", window: 12, events: 3389, ok: true, retired_events: 3372, epoch_cuts: 238, lossy_cuts: 0, search_nodes: 58835, peak_live_configs: 54, peak_multiset_nodes: 97, peak_window_events: 11 },
    HostilePin { family: "stragglers", window: 16, events: 3389, ok: true, retired_events: 3360, epoch_cuts: 180, lossy_cuts: 0, search_nodes: 70215, peak_live_configs: 52, peak_multiset_nodes: 68, peak_window_events: 14 },
    HostilePin { family: "stragglers", window: 24, events: 3389, ok: true, retired_events: 3360, epoch_cuts: 122, lossy_cuts: 0, search_nodes: 101127, peak_live_configs: 47, peak_multiset_nodes: 97, peak_window_events: 16 },
];

/// Exact epoch cuts re-enumerate the retained window at each cut, so
/// their cost grows with the window: the sweep covers the bounded-window
/// regime the exact mode targets (larger windows on hostile streams are
/// `epoch_force` territory).
const HOSTILE_WINDOWS: [usize; 4] = [8, 12, 16, 24];

/// Stream positions between memory-proxy samples.
const HOSTILE_SAMPLE_EVERY: usize = 64;

/// The never-quiescent workload families, 1200 steps per seed.
fn hostile_families() -> [(&'static str, HostileConfig); 2] {
    [
        (
            // Every invocation eventually responds, but the Zipf delay
            // tail keeps operations pending across many windows: the
            // stream is never quiescent at cut points, and late responses
            // exercise symbolic-completion absorption. Concurrency stays
            // bounded (few clients, short tail) — the regime exact epoch
            // cuts target.
            "zipf-delay",
            HostileConfig {
                clients: 5,
                keys: 2,
                skew: 0.7,
                never_frac: 0.0,
                stuck_applies: true,
                delay_zipf: 1.1,
                max_delay: 24,
                error_prob: 0.0,
                steps: 1200,
                seed: 0,
            },
        ),
        (
            // A straggler fraction never responds at all: those clients
            // wedge permanently, so quiescence never returns and every cut
            // from then on is an epoch cut.
            "stragglers",
            HostileConfig {
                clients: 4,
                keys: 1,
                skew: 0.7,
                never_frac: 0.0025,
                stuck_applies: true,
                delay_zipf: 1.3,
                max_delay: 12,
                error_prob: 0.0,
                steps: 1200,
                seed: 0,
            },
        ),
    ]
}

fn hostile_row(family: &'static str, base: HostileConfig, window: usize) -> HostilePin {
    let mut row = HostilePin {
        family,
        window,
        events: 0,
        ok: true,
        retired_events: 0,
        epoch_cuts: 0,
        lossy_cuts: 0,
        search_nodes: 0,
        peak_live_configs: 0,
        peak_multiset_nodes: 0,
        peak_window_events: 0,
    };
    for seed in STREAMING_SEEDS {
        let t = random_hostile_kv_trace(&HostileConfig { seed, ..base });
        let mut mon = kv_stream(window, Obs::noop());
        for (i, a) in t.iter().enumerate() {
            row.ok &= mon.ingest(a.clone()).status == MonitorStatus::Ok;
            if (i + 1) % HOSTILE_SAMPLE_EVERY == 0 || i + 1 == t.len() {
                let s = mon.shard_summary().expect("born streaming");
                row.peak_live_configs = row.peak_live_configs.max(s.live_configs);
                row.peak_multiset_nodes = row.peak_multiset_nodes.max(s.multiset_nodes);
                row.peak_window_events = row.peak_window_events.max(s.window_events);
            }
        }
        let s = mon.shard_summary().expect("born streaming");
        row.events += t.len();
        row.retired_events += s.retired_events;
        row.epoch_cuts += s.epoch_cuts;
        row.lossy_cuts += s.lossy_cuts;
        row.search_nodes += s.search_nodes;
    }
    row
}

fn hostile_rows() -> Vec<HostilePin> {
    hostile_families()
        .into_iter()
        .flat_map(|(family, base)| HOSTILE_WINDOWS.map(|w| hostile_row(family, base, w)))
        .collect()
}

/// The O(1)-amortized-ingest / O(window + alphabet)-memory table: work and
/// retained memory against window size on streams that never quiesce.
#[test]
fn b6h_hostile_rows_stay_exact_and_bounded() {
    let rows = hostile_rows();
    // The memory proxies are sampled mid-stream: they, too, must be a
    // function of the seeds alone.
    assert_eq!(rows, hostile_rows(), "B6h is not deterministic");
    let per_event = |r: &HostilePin| r.search_nodes as f64 / r.events as f64;
    for row in &rows {
        assert!(row.ok, "{row:?}");
        assert_eq!(row.lossy_cuts, 0, "exact mode must never go lossy: {row:?}");
        // Genuinely never-quiescent: epoch cuts fire, and events retire.
        assert!(row.epoch_cuts > 0 && row.retired_events > 0, "{row:?}");
        // Worst row today: stragglers w=24 at 29.8. A lost feasibility
        // prune reads 44-830 here, a stalled epoch GC ~19k.
        assert!(per_event(row) <= 120.0, "amortised-ingest cap: {row:?}");
    }
    for family in rows.chunks(HOSTILE_WINDOWS.len()) {
        let (small, large) = (&family[0], &family[family.len() - 1]);
        // Flat in the window: a stalled GC shows as runaway work at the
        // large windows (2.25x today).
        assert!(
            per_event(large) <= 12.0 * per_event(small),
            "per-event work grew past 12x from {small:?} to {large:?}"
        );
        // The KV alphabet of these streams is ~12 distinct inputs; 16 is
        // the additive slack of the linear reference.
        let linear = (large.window as f64 + 16.0) / (small.window as f64 + 16.0);
        let growth = large.peak_multiset_nodes as f64 / small.peak_multiset_nodes as f64;
        assert!(
            growth <= 1.5 * linear,
            "retained memory grew {growth:.2}x against a linear {linear:.2}x \
             from {small:?} to {large:?}"
        );
    }
    assert_pinned("B6h", &rows, &B6H);
}

// B9: what an installed observer costs — the one wall-clock gate here.

/// The no-op observer against a full [`StackObserver`] (metrics registry
/// and span ring) over two pinned B6 streams: a warm-up, then five
/// adjacent noop/instrumented pairs. The overhead is the **median** paired
/// wall-time ratio minus one — pairing cancels clock drift, the median
/// kills scheduler outliers — and the hooks' absolute cost is read off
/// the best rep of each mode. A row fails only past both the 5 % budget
/// and 1 µs per event: the fraction alone also rises whenever ingest
/// itself gets cheaper under an unchanged observer.
#[test]
#[ignore = "wall-clock: CI runs it in release"]
fn b9_observer_hooks_stay_off_the_hot_path() {
    use std::time::Instant;
    for (scenario, keys, skew) in [
        ("obs kv keys=4 skew=0.6", 4, 0.6),
        ("obs kv keys=16 skew=1.4", 16, 1.4),
    ] {
        let traces = STREAMING_SEEDS.map(|seed| kv_stream_trace(keys, skew, 0.0, seed));
        let events: usize = traces.iter().map(|t| t.len()).sum();
        // One rep of one mode: ingest is timed, the report is not.
        let run = |obs: &Obs| -> f64 {
            let mut secs = 0.0;
            for t in &traces {
                let mut mon = kv_stream(48, obs.clone());
                let start = Instant::now();
                let ok = t
                    .iter()
                    .all(|a| mon.ingest(a.clone()).status == MonitorStatus::Ok);
                secs += start.elapsed().as_secs_f64();
                let report = mon.report().expect("born streaming");
                assert!(ok && report.verdict.is_ok(), "{scenario}");
            }
            secs
        };
        let noop = Obs::noop();
        let instrumented = Obs::new(std::sync::Arc::new(StackObserver::with_tracing(1 << 12)));
        run(&noop);
        let (mut noop_best, mut inst_best) = (f64::INFINITY, f64::INFINITY);
        let mut ratios = Vec::new();
        for _ in 0..5 {
            let (noop_secs, inst_secs) = (run(&noop), run(&instrumented));
            noop_best = noop_best.min(noop_secs);
            inst_best = inst_best.min(inst_secs);
            ratios.push(inst_secs / noop_secs);
        }
        ratios.sort_by(f64::total_cmp);
        let overhead = ratios[ratios.len() / 2] - 1.0;
        let hooks_ns = (inst_best - noop_best) * 1e9 / events as f64;
        println!(
            "{scenario}: overhead {:+.1}%, hooks {hooks_ns:.0} ns/event",
            overhead * 100.0
        );
        assert!(
            overhead <= 0.05 || hooks_ns <= 1000.0,
            "{scenario}: observer overhead {:.1}% and {hooks_ns:.0} ns/event \
             exceed both the 5% budget and the 1000 ns/event cap",
            overhead * 100.0
        );
    }
}
