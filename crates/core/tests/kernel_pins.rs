//! Refinement pins for the chain-search kernel.
//!
//! Every search pin has two halves.
//!
//! The **tree-invariant** half — leaves handed to the visitor, verdict and
//! witness digests — was captured at the commit *before* the three search
//! loops (`Dfs`, `EnumDfs`, `extend_dfs`) collapsed into the one kernel in
//! `slin_core::engine`, and has not moved since. The old loops are the
//! abstract spec; the kernel, and every prune added to it, refines them:
//! same leaves, same order. A value of this half that moves means the
//! kernel visits different leaves — work on the kernel must keep all of
//! them byte-identical. A witness holds no counters — the work is the
//! verdict's `SearchStats` — so that stays true when only work changes; a
//! speculative witness is digested beside its verdict's interpretation
//! count (see [`with_interpretations`]).
//!
//! The **work** half — nodes expanded, memo traffic, moves pruned, longest
//! history tried — is what such work is *for*. It is pinned to its current
//! value (so a lost prune shows) and asserted `≤` the value of the kernel
//! before the feasibility prune, kept beside it: work may only fall.
//!
//! A stream pin has three parts, because the shard above the kernel chooses
//! which searches to run:
//!
//! * **answers** (`StreamPin`: the per-event `statuses` digest, the final
//!   `verdict` digest, `extension_searches`, `epoch_cuts`,
//!   `retired_events`) must not move, whatever changes below them;
//! * **traffic** (`StreamTraffic`: `fallback_searches`, `frontier_peak`,
//!   the per-event `outcomes` digest, which folds in frontier length and
//!   the fallback flag) depends on *which* witnesses the frontier happens
//!   to hold: a change to what a fallback refills it with re-pins these,
//!   in either direction, and must say so;
//! * **work** (`StreamWork`: `search_nodes`, re-pinned when it falls and
//!   never allowed to rise; `enumerated_commits`, at most one per commit
//!   where every enumeration completes) as above.

use slin_adt::{ConsInput, ConsOutput, Consensus, KvKeyPartitioner, KvStore, Value};
use slin_core::engine::SearchStats;
use slin_core::gen::{
    phase_trace_bounds, random_hostile_kv_trace, random_multikey_kv_trace, random_phase_kv_trace,
    HostileConfig, MultiKeyConfig, PhaseConfig,
};
use slin_core::initrel::{ConsensusInit, ExactInit};
use slin_core::lin::{LinChecker, LinError};
use slin_core::session::{Checker, Strategy, Verdict};
use slin_core::slin::{SlinChecker, SlinError, SlinWitness};
use slin_core::stream::GcPolicy;
use slin_core::ObjAction;
use slin_obs::{EngineSearchEvent, Obs, Observer};
use slin_trace::{Action, ClientId, PhaseId, Trace};
use std::sync::{Arc, Mutex};

/// 64-bit FNV-1a over a `Debug` rendering: the "byte-identical" check.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// The tree-invariant half of a first-solution corpus: the leaves reached
/// and a digest of every verdict (witness or error) in corpus order.
#[derive(Debug, PartialEq, Eq)]
struct SearchPin {
    leaf_checks: usize,
    verdicts: u64,
}

/// The work half: the summed engine counters. `pruned` is zero before the
/// feasibility prune.
#[derive(Debug, PartialEq, Eq)]
struct SearchWork {
    nodes: usize,
    memo_entries: usize,
    memo_hits: usize,
    pruned: usize,
}

struct SearchAcc {
    stats: SearchStats,
    digest: u64,
}

impl SearchAcc {
    fn new() -> Self {
        SearchAcc {
            stats: SearchStats::default(),
            digest: FNV_SEED,
        }
    }

    /// `outcome` must not embed work counters beyond the interpretation
    /// count [`with_interpretations`] pins.
    fn add(&mut self, stats: &SearchStats, outcome: &dyn std::fmt::Debug) {
        self.stats.absorb(stats);
        fnv(&mut self.digest, format!("{outcome:?}\n").as_bytes());
    }

    /// Checks both halves; `pre_prune` is what the kernel spent on the
    /// same corpus before the feasibility prune.
    fn assert(self, pin: SearchPin, work: SearchWork, pre_prune: SearchWork) {
        let got = SearchPin {
            leaf_checks: self.stats.leaf_checks,
            verdicts: self.digest,
        };
        assert_eq!(got, pin, "the tree moved");
        let spent = SearchWork {
            nodes: self.stats.nodes,
            memo_entries: self.stats.memo_entries,
            memo_hits: self.stats.memo_hits,
            pruned: self.stats.pruned,
        };
        assert_eq!(spent, work);
        assert!(
            work.nodes <= pre_prune.nodes
                && work.memo_entries <= pre_prune.memo_entries
                && work.memo_hits <= pre_prune.memo_hits,
            "work may only fall: {work:?} vs {pre_prune:?}"
        );
    }
}

/// A speculative verdict as its digests render it: the witness beside the
/// number of init interpretations the monolithic check enumerated, or the
/// error.
fn with_interpretations<I, E>(
    v: &Verdict<SlinWitness<I>, E>,
) -> Result<(usize, &SlinWitness<I>), &E> {
    v.outcome.as_ref().map(|w| (v.stats.interpretations, w))
}

#[test]
fn first_solution_kv_multikey() {
    let mut acc = SearchAcc::new();
    for (seed, error_prob) in (0..12u64).map(|s| (s, [0.0, 0.35][(s % 2) as usize])) {
        let t = random_multikey_kv_trace(&MultiKeyConfig {
            clients: 3,
            steps: 26,
            keys: 3,
            skew: 0.7,
            contention: 0.3,
            error_prob,
            seed,
        });
        let v = Checker::builder(LinChecker::owned(KvStore))
            .strategy(Strategy::Monolithic)
            .build()
            .check(&t);
        acc.add(&v.stats, &v.outcome);
    }
    acc.assert(
        SearchPin {
            leaf_checks: 11,
            verdicts: 16_733_320_725_229_023_926,
        },
        SearchWork {
            nodes: 119,
            memo_entries: 25,
            memo_hits: 10,
            pruned: 644,
        },
        SearchWork {
            nodes: 539,
            memo_entries: 403,
            memo_hits: 52,
            pruned: 0,
        },
    );
}

type CA = ObjAction<Consensus, Value>;

/// A deterministic `(1, 2)` consensus phase trace: every client proposes,
/// then decides, switches out, or stays pending, as drawn from `seed`.
fn consensus_phase_trace(seed: u64) -> Trace<CA> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut draw = |n: u64| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) % n
    };
    let clients = 3 + draw(2) as u32;
    let mut invokes = Vec::new();
    let mut closes = Vec::new();
    for k in 0..clients {
        let c = ClientId::new(k + 1);
        let input = ConsInput::propose(1 + draw(3));
        invokes.push(Action::invoke(c, PhaseId::new(1), input));
        let v = 1 + draw(3);
        match draw(4) {
            0 => {}
            1 | 2 => closes.push(Action::respond(
                c,
                PhaseId::new(1),
                input,
                ConsOutput::decide(v),
            )),
            _ => closes.push(Action::switch(c, PhaseId::new(2), input, Value::new(v))),
        }
    }
    // Two invocations, then closes and the remaining invocations alternate.
    let mut out: Vec<CA> = invokes.drain(..2).collect();
    let mut closes = closes.into_iter();
    let mut invokes = invokes.into_iter();
    loop {
        match (invokes.next(), closes.next()) {
            (None, None) => break,
            (i, c) => {
                out.extend(i);
                out.extend(c);
            }
        }
    }
    Trace::from_actions(out)
}

#[test]
fn first_solution_consensus_slin() {
    let mut acc = SearchAcc::new();
    for seed in 0..200u64 {
        let t = consensus_phase_trace(seed);
        let model = SlinChecker::owned(
            Consensus,
            ConsensusInit::new(),
            PhaseId::new(1),
            PhaseId::new(2),
        );
        let v = Checker::builder(model)
            .strategy(Strategy::Monolithic)
            .threads(1)
            .build()
            .check(&t);
        acc.add(&v.stats, &with_interpretations(&v));
    }
    acc.assert(
        SearchPin {
            leaf_checks: 135,
            verdicts: 10_126_815_132_921_989_961,
        },
        SearchWork {
            nodes: 888,
            memo_entries: 761,
            memo_hits: 74,
            pruned: 985,
        },
        SearchWork {
            nodes: 3469,
            memo_entries: 2641,
            memo_hits: 775,
            pruned: 0,
        },
    );
}

#[test]
fn first_solution_faulty_phase_corpus() {
    let (m, n) = phase_trace_bounds();
    let mut acc = SearchAcc::new();
    for seed in 0..10u64 {
        let t = random_phase_kv_trace(&PhaseConfig {
            clients: 4,
            steps: 30,
            keys: [1, 2, 4][(seed % 3) as usize],
            skew: 0.3,
            prefix_ops: 4,
            aborts: 2,
            error_prob: 0.4,
            seed,
        });
        let v = Checker::builder(SlinChecker::owned(KvStore, ExactInit::new(), m, n))
            .strategy(Strategy::Monolithic)
            .threads(1)
            .build()
            .check(&t);
        acc.add(&v.stats, &with_interpretations(&v));
    }
    acc.assert(
        SearchPin {
            leaf_checks: 28,
            verdicts: 15_655_020_362_760_195_675,
        },
        SearchWork {
            nodes: 1189,
            memo_entries: 572,
            memo_hits: 617,
            pruned: 4318,
        },
        SearchWork {
            nodes: 44276,
            memo_entries: 26829,
            memo_hits: 17447,
            pruned: 0,
        },
    );
}

/// What a stream's *answers* are, plus the traffic the answers alone
/// decide — the rolling status after every event, the final report's
/// verdict, one tail extension per commit, and which windows retire when.
/// Must not move: the `statuses` digests were captured at the commit before
/// fallbacks and cuts began to enumerate from a checkpoint, the rest before
/// the kernel collapse.
#[derive(Debug, PartialEq, Eq)]
struct StreamPin {
    statuses: u64,
    verdict: u64,
    extension_searches: usize,
    epoch_cuts: usize,
    retired_events: usize,
}

/// How the shard got there: which configurations the frontier happened to
/// hold. A change to what a fallback refills the frontier with moves these
/// without moving an answer; they are re-pinned, in either direction.
/// `outcomes` digests every per-event `(frontier length, fallback flag,
/// rolling status)`.
#[derive(Debug, PartialEq, Eq)]
struct StreamTraffic {
    fallback_searches: usize,
    frontier_peak: usize,
    outcomes: u64,
}

/// The work half. `search_nodes` is what the kernel spends on the stream
/// now — re-pinned when it falls, never allowed to rise — and
/// `pre_prune_nodes` what it spent before the feasibility prune (itself
/// within a few nodes below the three pre-collapse loops, whose memo-less
/// tail extension kept paying past the frontier cap). `enumerated_commits`
/// is the commits handed to fallback and cut enumerations: under the
/// default policy every enumeration of these streams completes and each
/// starts at the last one's checkpoint, so the sum is at most one per
/// commit; under `frontier_cap = 2` a truncated enumeration takes no
/// checkpoint, and the value is only recorded.
struct StreamWork {
    search_nodes: usize,
    pre_prune_nodes: usize,
    enumerated_commits: usize,
}

/// Drains `t` through a fresh monitor and checks it against the three
/// parts.
fn assert_stream(
    t: &Trace<ObjAction<KvStore, ()>>,
    window: usize,
    gc: GcPolicy,
    pin: StreamPin,
    traffic: StreamTraffic,
    work: StreamWork,
) {
    let mut mon = Checker::builder(LinChecker::owned(KvStore))
        .partitioner(KvKeyPartitioner)
        .strategy(Strategy::Streaming {
            window: Some(window),
        })
        .gc_policy(gc)
        .build();
    let mut outcomes = FNV_SEED;
    let mut statuses = FNV_SEED;
    for a in t.iter() {
        let o = mon.ingest(a.clone());
        fnv(
            &mut outcomes,
            format!("{} {} {:?}\n", o.frontier_len, o.fell_back, o.status).as_bytes(),
        );
        fnv(&mut statuses, format!("{:?}\n", o.status).as_bytes());
    }
    let report = mon.report().expect("born streaming");
    let mut verdict = FNV_SEED;
    fnv(&mut verdict, format!("{:?}", report.verdict).as_bytes());
    let shard = report.shard;
    let got = StreamPin {
        statuses,
        verdict,
        extension_searches: shard.extension_searches,
        epoch_cuts: shard.epoch_cuts,
        retired_events: shard.retired_events,
    };
    assert_eq!(got, pin, "an answer moved");
    let got = StreamTraffic {
        fallback_searches: shard.fallback_searches,
        frontier_peak: shard.frontier_peak,
        outcomes,
    };
    assert_eq!(got, traffic, "the frontier's traffic moved: re-pin it");
    assert_eq!(shard.search_nodes, work.search_nodes);
    assert!(
        work.search_nodes <= work.pre_prune_nodes,
        "work may only fall"
    );
    assert_eq!(shard.enumerated_commits, work.enumerated_commits);
    if gc == GcPolicy::default() {
        assert!(
            shard.enumerated_commits <= shard.extension_searches,
            "a commit was enumerated twice"
        );
    }
}

fn hotkey_stream(clients: u32, steps: usize, seed: u64) -> Trace<ObjAction<KvStore, ()>> {
    random_multikey_kv_trace(&MultiKeyConfig {
        clients,
        steps,
        keys: 1,
        skew: 0.0,
        contention: 0.0,
        error_prob: 0.0,
        seed,
    })
}

fn straggler_stream(
    clients: u32,
    steps: usize,
    never_frac: f64,
    seed: u64,
) -> Trace<ObjAction<KvStore, ()>> {
    random_hostile_kv_trace(&HostileConfig {
        clients,
        steps,
        keys: 1,
        skew: 0.7,
        never_frac,
        stuck_applies: true,
        delay_zipf: 1.3,
        max_delay: 12,
        error_prob: 0.0,
        seed,
    })
}

#[test]
fn stream_hotkey_w32() {
    assert_stream(
        &hotkey_stream(3, 200, 7),
        32,
        GcPolicy::default(),
        StreamPin {
            statuses: 18_083_243_867_423_310_569,
            verdict: 4_126_513_742_314_756_226,
            extension_searches: 66,
            epoch_cuts: 4,
            retired_events: 128,
        },
        StreamTraffic {
            fallback_searches: 4,
            frontier_peak: 3,
            outcomes: 9_137_139_651_640_129_359,
        },
        StreamWork {
            search_nodes: 693,
            pre_prune_nodes: 67_293,
            enumerated_commits: 63,
        },
    );
}

#[test]
fn stream_hostile_stragglers_w16() {
    assert_stream(
        &straggler_stream(3, 300, 0.005, 3),
        16,
        GcPolicy::default(),
        StreamPin {
            statuses: 2_706_697_226_604_718_511,
            verdict: 12_274_530_455_667_272_225,
            extension_searches: 139,
            epoch_cuts: 10,
            retired_events: 272,
        },
        StreamTraffic {
            fallback_searches: 10,
            frontier_peak: 4,
            outcomes: 2_112_269_631_722_492_934,
        },
        StreamWork {
            search_nodes: 757,
            pre_prune_nodes: 21_677,
            enumerated_commits: 135,
        },
    );
}

/// `frontier_cap = 2` drives pass-2 tail extension (interleave extras,
/// then place the new commit) *to the cap* — no other test or benchmark
/// workload reaches that path. Where `extend_dfs` kept paying one node per
/// remaining sibling once the cap was reached, the kernel stops.
#[test]
fn tail_extension_reaches_a_tiny_frontier_cap() {
    let gc = GcPolicy {
        frontier_cap: 2,
        ..Default::default()
    };
    assert_stream(
        &hotkey_stream(4, 60, 20),
        16,
        gc,
        StreamPin {
            statuses: 18_030_174_973_173_757_475,
            verdict: 15_994_890_632_968_525_845,
            extension_searches: 18,
            epoch_cuts: 1,
            retired_events: 35,
        },
        StreamTraffic {
            fallback_searches: 0,
            frontier_peak: 2,
            outcomes: 8_625_585_686_834_570_319,
        },
        StreamWork {
            search_nodes: 787,
            pre_prune_nodes: 88_636,
            enumerated_commits: 130,
        },
    );
    assert_stream(
        &straggler_stream(4, 60, 0.01, 26),
        16,
        gc,
        StreamPin {
            statuses: 18_048_766_989_914_758_837,
            verdict: 13_257_915_500_970_795_381,
            extension_searches: 28,
            epoch_cuts: 2,
            retired_events: 48,
        },
        StreamTraffic {
            fallback_searches: 5,
            frontier_peak: 3,
            outcomes: 2_051_157_658_121_734_384,
        },
        StreamWork {
            search_nodes: 164,
            pre_prune_nodes: 6_508,
            enumerated_commits: 28,
        },
    );
}

/// Records every engine search a session reports.
#[derive(Default)]
struct Searches(Mutex<Vec<EngineSearchEvent>>);

impl Observer for Searches {
    fn engine_search(&self, ev: &EngineSearchEvent) {
        self.0.lock().expect("no panic holds it").push(ev.clone());
    }
}

/// One stats surface: a search that trips its budget reports the work it
/// did, beside the error and to the observer.
#[test]
fn budget_tripped_checks_report_their_work() {
    let expect_event = |seen: &Searches, nodes: u64| {
        let evs = seen.0.lock().unwrap();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].site, "session.check");
        assert_eq!(evs[0].nodes, nodes);
        assert!(evs[0].budget_exhausted);
    };

    let lin_trace = hotkey_stream(3, 60, 1);
    for strategy in [Strategy::Monolithic, Strategy::Auto] {
        let seen = Arc::new(Searches::default());
        let v = Checker::builder(LinChecker::owned(KvStore))
            .partitioner(KvKeyPartitioner)
            .strategy(strategy)
            .budget(3)
            .observer(Obs::new(seen.clone()))
            .build()
            .check(&lin_trace);
        let Err(LinError::BudgetExhausted { nodes }) = v.outcome else {
            panic!("a 3-node budget cannot decide this trace: {:?}", v.outcome);
        };
        assert_eq!((nodes, v.stats.nodes), (4, 4));
        assert_eq!(
            v.stats.memo_entries + v.stats.memo_hits + v.stats.leaf_checks,
            0
        );
        expect_event(&seen, 4);
    }

    let (m, n) = phase_trace_bounds();
    let phase_trace = random_phase_kv_trace(&PhaseConfig {
        keys: 1,
        ..Default::default()
    });
    for threads in [1, 4] {
        let seen = Arc::new(Searches::default());
        let v = Checker::builder(SlinChecker::owned(KvStore, ExactInit::new(), m, n))
            .strategy(Strategy::Monolithic)
            .threads(threads)
            .budget(3)
            .observer(Obs::new(seen.clone()))
            .build()
            .check(&phase_trace);
        let Err(SlinError::BudgetExhausted { nodes }) = v.outcome else {
            panic!("a 3-node budget cannot decide this trace: {:?}", v.outcome);
        };
        assert_eq!((nodes, v.stats.nodes), (4, 4));
        expect_event(&seen, 4);
    }
}

/// The same, across classes: under [`Strategy::Auto`] a class that
/// trips its budget decides the check — the first one in key order, with
/// its own node count in the error, the work of *every* class in the
/// stats, no whole-trace search after it (a degraded check under-claims;
/// it does not try again under the budget that just tripped), and one
/// observer event for the lot. Plain and keyed speculative alike.
#[test]
fn a_tripped_class_decides_a_partitioned_check() {
    let expect_event = |seen: &Searches, nodes: usize| {
        let evs = seen.0.lock().unwrap();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].site, "session.check");
        assert_eq!(evs[0].nodes, nodes as u64);
        assert!(evs[0].budget_exhausted);
    };

    let lin_trace = random_multikey_kv_trace(&MultiKeyConfig {
        clients: 3,
        steps: 120,
        keys: 2,
        skew: 0.0,
        contention: 0.0,
        error_prob: 0.0,
        seed: 1,
    });
    let seen = Arc::new(Searches::default());
    let v = Checker::builder(LinChecker::owned(KvStore))
        .partitioner(KvKeyPartitioner)
        .budget(3)
        .observer(Obs::new(seen.clone()))
        .build()
        .check(&lin_trace);
    let report = v.partition.expect("partitioned verdicts carry a report");
    assert_eq!(v.outcome, Err(LinError::BudgetExhausted { nodes: 4 }));
    assert_eq!((report.partitions, report.remerged), (2, false));
    // The first class trips and decides: the second is not searched.
    assert_eq!((v.stats.nodes, v.stats.interpretations), (4, 1));
    expect_event(&seen, 4);

    let (m, n) = phase_trace_bounds();
    let phase_trace = random_phase_kv_trace(&PhaseConfig {
        keys: 2,
        ..Default::default()
    });
    let cert = slin_analysis::certify_switch(
        &KvStore,
        &KvKeyPartitioner,
        &slin_analysis::AnalyzeConfig::default(),
    )
    .expect("the shipped kv partitioner is switch-independent");
    let seen = Arc::new(Searches::default());
    let v = Checker::builder(SlinChecker::owned(KvStore, ExactInit::new(), m, n))
        .partitioner(KvKeyPartitioner)
        .switch_certified(&cert)
        .expect("certificate covers (KvStore, KvKeyPartitioner, ExactInit)")
        .budget(3)
        .observer(Obs::new(seen.clone()))
        .build()
        .check(&phase_trace);
    let report = v.partition.expect("partitioned verdicts carry a report");
    assert_eq!(v.outcome, Err(SlinError::BudgetExhausted { nodes: 4 }));
    assert_eq!((report.partitions, report.remerged), (2, false));
    // One class trips, the other is decided inside the budget.
    assert_eq!((v.stats.nodes, v.stats.interpretations), (7, 2));
    expect_event(&seen, 7);
}
