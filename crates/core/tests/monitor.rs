//! Monitor behaviour tests: rolling exactness, fallback/collapse paths,
//! parallel drive parity, and bounded-window GC. The heavyweight
//! streaming-vs-batch differential proptests live in the workspace `tests`
//! crate (`streaming_differential.rs`).

use slin_adt::{
    ConsInput, ConsOutput, Consensus, IdentityPartitioner, KvInput, KvKeyPartitioner, KvOutput,
    KvStore, Value,
};
use slin_core::gen::{random_multikey_kv_trace, MultiKeyConfig};
use slin_core::initrel::ConsensusInit;
use slin_core::lin::{witness_is_valid, LinChecker, LinError};
use slin_core::session::{Checker, Strategy};
use slin_core::slin::SlinChecker;
use slin_core::stream::{LinMonitor, MonitorConfig, MonitorStatus, SlinMonitor};
use slin_core::ObjAction;
use slin_trace::{Action, ClientId, PhaseId, Trace};

fn c(n: u32) -> ClientId {
    ClientId::new(n)
}
fn ph() -> PhaseId {
    PhaseId::FIRST
}

fn kv_monitor() -> LinMonitor<KvStore, KvKeyPartitioner> {
    LinMonitor::owned(KvStore, KvKeyPartitioner)
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
            let report = mon.report();
            let batch = chk.check(&t);
            assert_eq!(report.verdict, batch, "seed {seed} error {error_prob}");
            assert_eq!(report.events, t.len());
            if let Ok(w) = &report.verdict {
                assert!(witness_is_valid(&KvStore, &t, w));
            }
        }
    }
}

#[test]
fn parallel_drive_matches_sequential_drive() {
    for seed in [2u64, 7, 13] {
        let cfg = MultiKeyConfig {
            keys: 6,
            clients: 4,
            steps: 40,
            seed,
            ..Default::default()
        };
        let t = random_multikey_kv_trace(&cfg);
        let mut seq = kv_monitor();
        let seq_status = seq.drive(t.iter().cloned());
        let mut par: LinMonitor<KvStore, KvKeyPartitioner> = LinMonitor::owned_with_config(
            KvStore,
            KvKeyPartitioner,
            MonitorConfig {
                threads: 4,
                ..Default::default()
            },
        );
        let par_status = par.drive_parallel(t.iter().cloned());
        assert_eq!(seq_status, par_status, "seed {seed}");
        assert_eq!(seq.report(), par.report(), "seed {seed}");
        assert_eq!(seq.shards(), par.shards());
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
    let mut mon: LinMonitor<KvStore, IdentityPartitioner> =
        LinMonitor::owned(KvStore, IdentityPartitioner);
    mon.drive(t.iter().cloned());
    assert_eq!(mon.shards(), 1);
    let report = mon.report();
    assert!(report.fallback.is_some());
    assert_eq!(report.verdict, LinChecker::owned(KvStore).check(&t));
}

#[test]
fn switch_action_decides_the_lin_verdict() {
    let mut mon: LinMonitor<KvStore, KvKeyPartitioner, u8> =
        LinMonitor::owned(KvStore, KvKeyPartitioner);
    mon.ingest(Action::invoke(c(1), ph(), KvInput::Put(1, 5)));
    let out = mon.ingest(Action::switch(c(1), PhaseId::new(2), KvInput::Put(1, 5), 0));
    assert_eq!(out.status, MonitorStatus::SwitchSeen);
    assert_eq!(
        mon.report().verdict,
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
    let status = mon.drive(t.iter().cloned());
    assert_eq!(status, MonitorStatus::IllFormed);
    assert_eq!(mon.report().verdict, LinChecker::owned(KvStore).check(&t));
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
    let mut mon: LinMonitor<KvStore, KvKeyPartitioner> = LinMonitor::owned_with_config(
        KvStore,
        KvKeyPartitioner,
        MonitorConfig {
            window: Some(8),
            ..Default::default()
        },
    );
    for a in t.iter() {
        let out = mon.ingest(a.clone());
        assert_eq!(
            out.status,
            MonitorStatus::Ok,
            "linearizable by construction"
        );
    }
    let report = mon.report();
    assert!(report.prefix_committed, "GC must have engaged");
    assert!(report.shard.retired_events > 0);
    assert!(report.verdict.is_ok(), "window-relative verdict stays ok");
}

#[test]
fn violations_are_still_caught_after_gc() {
    let mut mon: LinMonitor<KvStore, KvKeyPartitioner> = LinMonitor::owned_with_config(
        KvStore,
        KvKeyPartitioner,
        MonitorConfig {
            window: Some(4),
            ..Default::default()
        },
    );
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
    assert!(mon.report().verdict.is_err());
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
        let mut mon =
            SlinMonitor::from_checker(chk.clone(), KvKeyPartitioner, MonitorConfig::default());
        for a in t.iter() {
            mon.ingest(a.clone());
        }
        let report = mon.report();
        let batch = Checker::builder(chk.clone())
            .partitioner(KvKeyPartitioner)
            .strategy(Strategy::Partitioned)
            .build()
            .check(&t);
        assert_eq!(report.verdict, batch.outcome, "seed {seed}");
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
        let mut mon =
            SlinMonitor::from_checker(chk.clone(), IdentityPartitioner, MonitorConfig::default());
        let status = mon.drive(t.iter().cloned());
        let batch = chk.check(t);
        assert_eq!(status == MonitorStatus::Ok, batch.is_ok(), "{t:?}");
        assert_eq!(mon.report().verdict, batch, "{t:?}");
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
    let status = mon.drive(t.iter().cloned());
    assert_eq!(status, MonitorStatus::Ok);
    let report = mon.report();
    let batch = LinChecker::owned(KvStore).check(&t);
    assert!(batch.is_ok(), "batch path must accept > 64 commits now");
    assert_eq!(report.verdict, batch);
}
