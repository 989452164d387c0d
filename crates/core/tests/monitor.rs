//! Streaming-session behaviour tests: rolling exactness, fallback/collapse
//! paths, and bounded-window GC. The heavyweight
//! streaming-vs-batch differential proptests live in the workspace `tests`
//! crate (`streaming_differential.rs`).

use slin_adt::{
    Adt, ConsInput, ConsOutput, Consensus, IdentityPartitioner, KvInput, KvKeyPartitioner,
    KvOutput, KvStore, Partitioner, Value,
};
use slin_core::gen::{random_multikey_kv_trace, MultiKeyConfig};
use slin_core::initrel::ConsensusInit;
use slin_core::lin::{witness_is_valid, LinChecker, LinError};
use slin_core::model::ConsistencyModel;
use slin_core::session::{Checker, Session, Strategy};
use slin_core::slin::SlinChecker;
use slin_core::stream::MonitorStatus;
use slin_core::ObjAction;
use slin_trace::{Action, ClientId, PhaseId, Trace};

fn c(n: u32) -> ClientId {
    ClientId::new(n)
}
fn ph() -> PhaseId {
    PhaseId::FIRST
}

/// A session born streaming over `model`, sharded by `partitioner`.
fn stream<M, V, P>(model: M, partitioner: P, window: Option<usize>) -> Session<M, V, P>
where
    M: ConsistencyModel<V>,
    <M::Adt as Adt>::Input: Ord,
    V: Clone + PartialEq,
    P: Partitioner<M::Adt>,
{
    Checker::builder(model)
        .partitioner(partitioner)
        .strategy(Strategy::Streaming { window })
        .build()
}

type KvStream<V = ()> = Session<LinChecker<KvStore>, V, KvKeyPartitioner>;

fn kv_monitor() -> KvStream {
    stream(LinChecker::owned(KvStore), KvKeyPartitioner, None)
}

fn kv_window_monitor(window: usize) -> KvStream {
    stream(LinChecker::owned(KvStore), KvKeyPartitioner, Some(window))
}

#[test]
fn rolling_status_is_exact_on_every_prefix() {
    let chk = LinChecker::owned(KvStore);
    for seed in [0u64, 3, 11, 19] {
        for error_prob in [0.0, 0.5] {
            let cfg = MultiKeyConfig {
                keys: 3,
                clients: 3,
                steps: 20,
                error_prob,
                seed,
                ..Default::default()
            };
            let t = random_multikey_kv_trace(&cfg);
            let mut mon = kv_monitor();
            for (i, a) in t.iter().enumerate() {
                let outcome = mon.ingest(a.clone());
                let batch_ok = chk.check(&t.truncate_to(i + 1)).is_ok();
                let rolling_ok = outcome.status == MonitorStatus::Ok;
                assert_eq!(
                    rolling_ok,
                    batch_ok,
                    "seed {seed} error {error_prob} prefix {}",
                    i + 1
                );
            }
        }
    }
}

#[test]
fn report_is_byte_identical_to_batch_check() {
    let chk = LinChecker::owned(KvStore);
    for seed in [1u64, 5, 8, 21] {
        for error_prob in [0.0, 0.4] {
            let cfg = MultiKeyConfig {
                keys: 4,
                clients: 4,
                steps: 26,
                error_prob,
                seed,
                ..Default::default()
            };
            let t = random_multikey_kv_trace(&cfg);
            let mut mon = kv_monitor();
            for a in t.iter() {
                mon.ingest(a.clone());
            }
            let report = mon.report().unwrap();
            let batch = chk.check(&t);
            assert_eq!(
                report.verdict.outcome, batch,
                "seed {seed} error {error_prob}"
            );
            assert_eq!(report.events, t.len());
            if let Ok(w) = &report.verdict.outcome {
                assert!(witness_is_valid(&KvStore, &t, w));
            }
        }
    }
}

#[test]
fn identity_partitioner_collapses_to_one_shard_and_stays_exact() {
    let cfg = MultiKeyConfig {
        keys: 4,
        seed: 9,
        ..Default::default()
    };
    let t = random_multikey_kv_trace(&cfg);
    let mut mon = stream::<_, (), _>(LinChecker::owned(KvStore), IdentityPartitioner, None);
    for a in t.iter() {
        mon.ingest(a.clone());
    }
    let report = mon.report().unwrap();
    assert_eq!(report.verdict.partition.map(|p| p.partitions), Some(1));
    assert!(report.fallback.is_some());
    assert_eq!(report.verdict.outcome, LinChecker::owned(KvStore).check(&t));
}

#[test]
fn switch_action_decides_the_lin_verdict() {
    let mut mon: KvStream<u8> = stream(LinChecker::owned(KvStore), KvKeyPartitioner, None);
    mon.ingest(Action::invoke(c(1), ph(), KvInput::Put(1, 5)));
    let out = mon.ingest(Action::switch(c(1), PhaseId::new(2), KvInput::Put(1, 5), 0));
    assert_eq!(out.status, MonitorStatus::SwitchSeen);
    assert_eq!(
        mon.report().unwrap().verdict.outcome,
        Err(LinError::SwitchAction { index: 1 })
    );
}

#[test]
fn ill_formed_stream_matches_batch_error() {
    // Response with no pending invocation.
    let t: Trace<ObjAction<KvStore, ()>> = Trace::from_actions(vec![
        Action::invoke(c(2), ph(), KvInput::Put(1, 5)),
        Action::respond(c(1), ph(), KvInput::Get(1), KvOutput::Found(None)),
    ]);
    let mut mon = kv_monitor();
    for a in t.iter() {
        mon.ingest(a.clone());
    }
    assert_eq!(mon.status(), Some(MonitorStatus::IllFormed));
    assert_eq!(
        mon.report().unwrap().verdict.outcome,
        LinChecker::owned(KvStore).check(&t)
    );
}

#[test]
fn bounded_window_gc_retires_prefixes_and_keeps_the_verdict() {
    let cfg = MultiKeyConfig {
        keys: 3,
        clients: 3,
        steps: 120,
        seed: 4,
        ..Default::default()
    };
    let t = random_multikey_kv_trace(&cfg);
    let mut mon = kv_window_monitor(8);
    for a in t.iter() {
        let out = mon.ingest(a.clone());
        assert_eq!(
            out.status,
            MonitorStatus::Ok,
            "linearizable by construction"
        );
    }
    let report = mon.report().unwrap();
    assert!(report.prefix_committed, "GC must have engaged");
    assert!(report.shard.retired_events > 0);
    assert!(report.verdict.is_ok(), "window-relative verdict stays ok");
}

#[test]
fn violations_are_still_caught_after_gc() {
    let mut mon = kv_window_monitor(4);
    // A long correct single-key prefix, then a stale read.
    for round in 0..20u32 {
        let v = round as u64 + 1;
        mon.ingest(Action::invoke(c(1), ph(), KvInput::Put(1, v)));
        mon.ingest(Action::respond(
            c(1),
            ph(),
            KvInput::Put(1, v),
            KvOutput::Ack,
        ));
    }
    mon.ingest(Action::invoke(c(1), ph(), KvInput::Get(1)));
    let out = mon.ingest(Action::respond(
        c(1),
        ph(),
        KvInput::Get(1),
        KvOutput::Found(None), // must see 20 (or at least *some* write)
    ));
    assert_eq!(out.status, MonitorStatus::Violation);
    assert!(mon.report().unwrap().verdict.outcome.is_err());
}

/// Both keys open with a put that never responds, read by a get, and key
/// 1's put is invoked only after key 2's get commits, so key 1's first
/// step is cross-blocked with no commit to hide behind (`partition.rs`'s
/// cross-blocked trace).
fn cross_blocked_tail() -> Vec<ObjAction<KvStore, ()>> {
    vec![
        Action::invoke(c(2), ph(), KvInput::Put(2, 9)),
        Action::invoke(c(4), ph(), KvInput::Get(2)),
        Action::respond(c(4), ph(), KvInput::Get(2), KvOutput::Found(Some(9))),
        Action::invoke(c(1), ph(), KvInput::Put(1, 7)),
        Action::invoke(c(3), ph(), KvInput::Get(1)),
        Action::respond(c(3), ph(), KvInput::Get(1), KvOutput::Found(Some(7))),
    ]
}

/// A stream whose class chains cannot be merged (`cross_blocked_tail`).
/// Before anything retires the report re-checks the stream through the
/// batch routine at either window — the shard windows are the stream — so
/// it re-derives the witness whole and reads the monolithic batch verdict.
#[test]
fn a_cross_blocked_stream_remerges_at_either_window() {
    let t = Trace::from_actions(cross_blocked_tail());
    let batch = LinChecker::owned(KvStore).check(&t);
    assert!(batch.is_ok());
    for window in [Some(64), None] {
        let mut mon = stream(LinChecker::owned(KvStore), KvKeyPartitioner, window);
        for a in t.iter() {
            mon.ingest(a.clone());
        }
        let report = mon.report().unwrap();
        let partition = report.verdict.partition.expect("partitioned");
        assert!(partition.remerged, "window {window:?}");
        assert!(!report.prefix_committed, "window {window:?}");
        assert_eq!(partition.partitions, 2, "window {window:?}");
        assert_eq!(report.verdict.outcome, batch, "window {window:?}");
    }
}

#[test]
fn slin_monitor_matches_partitioned_checker_on_switch_free_streams() {
    let chk = SlinChecker::owned(
        KvStore,
        slin_core::initrel::ExactInit::new(),
        PhaseId::new(1),
        PhaseId::new(2),
    );
    for seed in [0u64, 6, 17] {
        let cfg = MultiKeyConfig {
            keys: 3,
            steps: 22,
            seed,
            ..Default::default()
        };
        let t = random_multikey_kv_trace(&cfg);
        let t: Trace<ObjAction<KvStore, Vec<KvInput>>> = Trace::from_actions(
            t.iter()
                .map(|a| match a {
                    Action::Invoke {
                        client,
                        phase,
                        input,
                    } => Action::invoke(*client, *phase, *input),
                    Action::Respond {
                        client,
                        phase,
                        input,
                        output,
                    } => Action::respond(*client, *phase, *input, *output),
                    Action::Switch { .. } => unreachable!(),
                })
                .collect(),
        );
        let mut mon = stream(chk.clone(), KvKeyPartitioner, None);
        for a in t.iter() {
            mon.ingest(a.clone());
        }
        let report = mon.report().unwrap();
        let batch = Checker::builder(chk.clone())
            .partitioner(KvKeyPartitioner)
            .build()
            .check(&t);
        assert_eq!(report.verdict, batch, "seed {seed}");
    }
}

#[test]
fn slin_monitor_goes_speculative_on_switches_and_stays_exact() {
    let chk = SlinChecker::owned(
        Consensus,
        ConsensusInit::new(),
        PhaseId::new(1),
        PhaseId::new(2),
    );
    let traces: Vec<Trace<ObjAction<Consensus, Value>>> = vec![
        // Decide 1, switch with 1: speculatively linearizable.
        Trace::from_actions(vec![
            Action::invoke(c(1), ph(), ConsInput::propose(1)),
            Action::invoke(c(2), ph(), ConsInput::propose(2)),
            Action::respond(c(1), ph(), ConsInput::propose(1), ConsOutput::decide(1)),
            Action::switch(c(2), PhaseId::new(2), ConsInput::propose(2), Value::new(1)),
        ]),
        // Decide 1, switch with 2: violation.
        Trace::from_actions(vec![
            Action::invoke(c(1), ph(), ConsInput::propose(1)),
            Action::invoke(c(2), ph(), ConsInput::propose(2)),
            Action::respond(c(1), ph(), ConsInput::propose(1), ConsOutput::decide(1)),
            Action::switch(c(2), PhaseId::new(2), ConsInput::propose(2), Value::new(2)),
        ]),
    ];
    for t in &traces {
        let mut mon = stream(chk.clone(), IdentityPartitioner, None);
        for a in t.iter() {
            mon.ingest(a.clone());
        }
        let batch = chk.check(t);
        assert_eq!(
            mon.status() == Some(MonitorStatus::Ok),
            batch.is_ok(),
            "{t:?}"
        );
        assert_eq!(mon.report().unwrap().verdict.outcome, batch, "{t:?}");
    }
}

#[test]
fn more_than_64_commits_stream_and_check() {
    // 70 put/ack rounds over 7 keys: both the monitor and the batch path
    // must accept what the old 64-commit ceiling refused.
    let mut actions: Vec<ObjAction<KvStore, ()>> = Vec::new();
    for round in 0..70u32 {
        let key = round % 7 + 1;
        actions.push(Action::invoke(c(1), ph(), KvInput::Put(key, round as u64)));
        actions.push(Action::respond(
            c(1),
            ph(),
            KvInput::Put(key, round as u64),
            KvOutput::Ack,
        ));
    }
    let t = Trace::from_actions(actions);
    let mut mon = kv_monitor();
    for a in t.iter() {
        mon.ingest(a.clone());
    }
    assert_eq!(mon.status(), Some(MonitorStatus::Ok));
    let report = mon.report().unwrap();
    let batch = LinChecker::owned(KvStore).check(&t);
    assert!(batch.is_ok(), "batch path must accept > 64 commits now");
    assert_eq!(report.verdict.outcome, batch);
}

/// A frontier cap of 0 reads as 1: a linearizable stream is `Ok` at every
/// event, as its report is. (Taken literally, the cap emptied the frontier
/// at the first commit and the rolling status said `Violation`.)
#[test]
fn a_zero_frontier_cap_keeps_a_linearizable_stream_ok() {
    use slin_core::stream::GcPolicy;
    let put = KvInput::Put(1, 5);
    let probe = Trace::from_actions(vec![
        Action::invoke(c(1), ph(), put),
        Action::respond(c(1), ph(), put, KvOutput::Ack),
    ]);
    let clean = (0..4).map(|seed| {
        random_multikey_kv_trace(&MultiKeyConfig {
            keys: 2,
            clients: 3,
            steps: 40,
            error_prob: 0.0,
            seed,
            ..Default::default()
        })
    });
    for t in std::iter::once(probe).chain(clean) {
        for frontier_cap in [0, 1] {
            let mut mon: KvStream = Checker::builder(LinChecker::owned(KvStore))
                .partitioner(KvKeyPartitioner)
                .strategy(Strategy::Streaming { window: None })
                .gc_policy(GcPolicy {
                    frontier_cap,
                    ..GcPolicy::default()
                })
                .build();
            for a in t.iter() {
                let out = mon.ingest(a.clone());
                assert_eq!(out.status, MonitorStatus::Ok, "cap {frontier_cap} {t:?}");
            }
            assert!(mon.report().unwrap().verdict.is_ok(), "{t:?}");
        }
    }
}

/// A GC window of 0 reads as 1, on the builder and in the strategy alike: a
/// never-quiescent straggler stream still cuts epochs. (Taken literally, a
/// window of 0 made every length but 0 a non-multiple of it, so a shard
/// with a pending invocation never cut and kept every event.)
#[test]
fn a_zero_window_retires_as_a_window_of_one() {
    use slin_core::gen::{random_hostile_kv_trace, HostileConfig};
    use slin_core::stream::ShardSummary;
    let summary = |t: &Trace<ObjAction<KvStore, ()>>, builder_window: Option<usize>, window| {
        let mut builder = Checker::builder(LinChecker::owned(KvStore))
            .partitioner(KvKeyPartitioner)
            .strategy(Strategy::Streaming { window });
        if let Some(w) = builder_window {
            builder = builder.window(w);
        }
        let mut mon: KvStream = builder.build();
        for a in t.iter() {
            mon.ingest(a.clone());
        }
        let report = mon.report().unwrap();
        assert!(report.verdict.is_ok(), "linearizable by construction");
        report.shard
    };
    for seed in 0..3 {
        let t = random_hostile_kv_trace(&HostileConfig {
            clients: 3,
            steps: 120,
            keys: 2,
            never_frac: 0.05,
            seed,
            ..HostileConfig::default()
        });
        let one: ShardSummary = summary(&t, Some(1), None);
        assert!(one.retired_events > 0, "seed {seed}: {one:?}");
        assert_eq!(summary(&t, Some(0), None), one, "seed {seed}");
        assert_eq!(summary(&t, None, Some(0)), one, "seed {seed}");
    }
}

/// A window no stream reaches (`usize::MAX`, "effectively unbounded")
/// streams exactly as no window: nothing retires, every prefix's status
/// and the report match, and no shard reserves room for a window's events
/// up front (a reservation of `usize::MAX` events overflows at the first
/// event).
#[test]
fn a_window_no_stream_reaches_streams_as_no_window() {
    let t = random_multikey_kv_trace(&MultiKeyConfig {
        keys: 3,
        clients: 3,
        steps: 60,
        error_prob: 0.2,
        seed: 7,
        ..Default::default()
    });
    let mut huge: KvStream = Checker::builder(LinChecker::owned(KvStore))
        .partitioner(KvKeyPartitioner)
        .strategy(Strategy::Streaming { window: None })
        .window(usize::MAX)
        .build();
    let mut none = kv_monitor();
    for a in t.iter() {
        assert_eq!(huge.ingest(a.clone()).status, none.ingest(a.clone()).status);
    }
    let (huge, none) = (huge.report().unwrap(), none.report().unwrap());
    assert_eq!(huge.shard.retired_events, 0);
    assert_eq!(huge.shard, none.shard);
    assert_eq!(huge.verdict, none.verdict);
    assert_eq!(huge.verdict.outcome, LinChecker::owned(KvStore).check(&t));
}

/// Two keys written in turn by one client, `rounds` puts each: quiescent
/// after every response.
fn quiescent_two_key_prefix(rounds: u64) -> Vec<ObjAction<KvStore, ()>> {
    let mut actions = Vec::new();
    for round in 0..rounds {
        for key in [1, 2] {
            let put = KvInput::Put(key, round + 100);
            actions.push(Action::invoke(c(1), ph(), put));
            actions.push(Action::respond(c(1), ph(), put, KvOutput::Ack));
        }
    }
    actions
}

/// The cross-blocked stream after a quiescent prefix both shards retire:
/// with no record kept, the window report searches each shard's window
/// from the seeds its retirement left and interleaves the shard chains —
/// no merge to bail, so nothing remerges.
#[test]
fn a_cross_blocked_stream_interleaves_after_both_shards_retire() {
    let mut actions = quiescent_two_key_prefix(4);
    actions.extend(cross_blocked_tail());
    let t = Trace::from_actions(actions);
    assert!(LinChecker::owned(KvStore).check(&t).is_ok());
    let mut mon = kv_window_monitor(4);
    for a in t.iter() {
        mon.ingest(a.clone());
    }
    let report = mon.report().unwrap();
    let partition = report.verdict.partition.expect("partitioned");
    assert!(report.prefix_committed && !partition.remerged, "{report:?}");
    assert!(!report.reconstructed);
    assert_eq!(report.shard.archived_events, 0, "archive_windows = 0");
    assert!(report.verdict.is_ok(), "{report:?}");
    assert_eq!(partition.partitions, 2);
}

/// One shard retires past a commit another still holds: key 1's put
/// commits first, then four quiescent puts on key 2 fill a window of 8 and
/// retire, while key 1's two events stay in its window; the cross-blocked
/// tail follows. The stream is linearizable and every status says so; so
/// must the window report. Key 2's retired puts were invoked after key
/// 1's held commit responded, so no witness may count them against that
/// commit's bound: its chain has the least floor, and the interleave
/// places it first.
#[test]
fn a_report_past_one_shards_retirement_keeps_the_held_commit_first() {
    let put = KvInput::Put(1, 1);
    let mut actions = vec![
        Action::invoke(c(1), ph(), put),
        Action::respond(c(1), ph(), put, KvOutput::Ack),
    ];
    for round in 0..4 {
        let put = KvInput::Put(2, 100 + round);
        actions.push(Action::invoke(c(1), ph(), put));
        actions.push(Action::respond(c(1), ph(), put, KvOutput::Ack));
    }
    actions.extend(cross_blocked_tail());
    let t = Trace::from_actions(actions);
    assert!(LinChecker::owned(KvStore).check(&t).is_ok());
    let mut mon = kv_window_monitor(8);
    for a in t.iter() {
        let out = mon.ingest(a.clone());
        assert_eq!(out.status, MonitorStatus::Ok);
    }
    assert_eq!(mon.status(), Some(MonitorStatus::Ok));
    let report = mon.report().unwrap();
    assert!(
        report.prefix_committed && !report.reconstructed,
        "{report:?}"
    );
    assert!(report.verdict.is_ok(), "{report:?}");
}

/// Records every engine search a session reports.
#[derive(Default)]
struct Searches(std::sync::Mutex<Vec<slin_obs::EngineSearchEvent>>);

impl slin_obs::Observer for Searches {
    fn engine_search(&self, ev: &slin_obs::EngineSearchEvent) {
        self.0.lock().unwrap().push(ev.clone());
    }
}

/// A bounded-window report that re-checks the record runs the batch
/// routine under the session's budget, and the observer sees it once, as
/// the monitor's: one `"monitor.report"` search, budget tripped, carrying
/// the report's node count.
#[test]
fn a_reconstructed_report_under_a_tripped_budget_is_one_observed_search() {
    use slin_core::stream::GcPolicy;
    use std::sync::Arc;
    let t = Trace::from_actions(quiescent_two_key_prefix(6));
    let seen = Arc::new(Searches::default());
    let mut mon: KvStream = Checker::builder(LinChecker::owned(KvStore))
        .partitioner(KvKeyPartitioner)
        .strategy(Strategy::Streaming { window: Some(4) })
        .gc_policy(GcPolicy {
            archive_windows: usize::MAX,
            ..GcPolicy::default()
        })
        .budget(4)
        .observer(slin_obs::Obs::new(seen.clone()))
        .build();
    for a in t.iter() {
        mon.ingest(a.clone());
    }
    let before = seen.0.lock().unwrap().len();
    let report = mon.report().unwrap();
    assert!(
        report.prefix_committed && report.reconstructed,
        "{report:?}"
    );
    assert!(
        matches!(
            report.verdict.outcome,
            Err(LinError::BudgetExhausted { .. })
        ),
        "{report:?}"
    );
    let evs = seen.0.lock().unwrap()[before..].to_vec();
    assert_eq!(evs.len(), 1, "{evs:?}");
    assert_eq!(evs[0].site, "monitor.report");
    assert!(evs[0].budget_exhausted);
    assert_eq!(evs[0].nodes, report.verdict.stats.nodes as u64);
}
