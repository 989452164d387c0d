//! Streaming-vs-batch differential proptests (pinned seeds).
//!
//! The acceptance contract of the online monitor: feeding a trace's events
//! **one at a time** into the monitor (`slin_core::stream`) and then asking for the report
//! yields the *same verdict and witness* as the batch checker on the
//! closed trace — for both checkers, across the multi-key workload
//! generators from friendly to hostile, linearizable and perturbed, and
//! including traces with **more than 64 commits** (which the batch path
//! must now also accept, the former `MAX_TRACKED_COMMITS` ceiling being
//! gone). Together the suites below drain well over 1000 generated
//! streams per `cargo test` run, all derived from the pinned proptest
//! seed.

use proptest::prelude::*;
use slin_adt::{
    Adt, CounterVecPartitioner, CounterVector, KvInput, KvKeyPartitioner, KvOutput, KvStore,
    Partitioner, RegArrayPartitioner, RegisterArray, Set, SetElemPartitioner,
};
use slin_adt::{ConsInput, ConsOutput, Consensus, Value};
use slin_core::gen::{
    random_hostile_kv_trace, random_multikey_counter_vec_trace, random_multikey_kv_trace,
    random_multikey_reg_array_trace, random_multikey_set_trace, HostileConfig, MultiKeyConfig,
};
use slin_core::initrel::{ConsensusInit, ExactInit};
use slin_core::lin::{witness_is_valid, LinChecker};
use slin_core::session::{Checker, Session, Strategy as SessionStrategy};
use slin_core::slin::SlinChecker;
use slin_core::stream::{MonitorStatus, StreamModel};
use slin_core::ObjAction;
use slin_trace::{Action, ClientId, PhaseId, Trace};

/// The monitor under test: a session born streaming over `model`, sharded
/// by `partitioner`, with the given GC window.
fn stream<M, V, P>(model: M, partitioner: P, window: Option<usize>) -> Session<M, V, P>
where
    M: StreamModel<V>,
    <M::Adt as Adt>::Input: Ord,
    V: Clone + PartialEq,
    P: Partitioner<M::Adt>,
{
    Checker::builder(model)
        .partitioner(partitioner)
        .strategy(SessionStrategy::Streaming { window })
        .build()
}

/// Generator parameters swept by the differential suites (mirrors the
/// partition_differential sweep: friendly through hostile, linearizable
/// and perturbed).
fn configs() -> impl Strategy<Value = MultiKeyConfig> {
    (
        1..=6u32,      // keys
        2..=4u32,      // clients
        8..=26usize,   // steps
        0..=2u8,       // contention tier
        0..=1u8,       // perturbation tier
        0..=10_000u64, // seed
    )
        .prop_map(
            |(keys, clients, steps, contention, error, seed)| MultiKeyConfig {
                clients,
                steps,
                keys,
                skew: 0.7,
                contention: [0.0, 0.3, 1.0][contention as usize],
                error_prob: [0.0, 0.35][error as usize],
                seed,
            },
        )
}

/// Wide multi-key configurations whose traces carry more than 64 commits.
fn big_configs() -> impl Strategy<Value = MultiKeyConfig> {
    (6..=10u32, 3..=5u32, 230..=280usize, 0..=4_000u64).prop_map(|(keys, clients, steps, seed)| {
        MultiKeyConfig {
            clients,
            steps,
            keys,
            skew: 0.2,
            contention: 0.0,
            error_prob: 0.0,
            seed,
        }
    })
}

fn retag<V: Clone + PartialEq>(t: &Trace<ObjAction<KvStore, ()>>) -> Trace<ObjAction<KvStore, V>> {
    Trace::from_actions(
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
                Action::Switch { .. } => unreachable!("generated traces are switch-free"),
            })
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(250))]

    /// Plain checker, `KvStore`: the drained monitor's verdict and witness
    /// are byte-identical to `check()` on the closed trace.
    #[test]
    fn kv_stream_matches_batch(cfg in configs()) {
        let t = random_multikey_kv_trace(&cfg);
        let mut mon = stream::<_, (), _>(LinChecker::owned(KvStore), KvKeyPartitioner, None);
        for a in t.iter() {
            mon.ingest(a.clone());
        }
        let report = mon.report().unwrap();
        let batch = LinChecker::owned(KvStore).check(&t);
        prop_assert_eq!(&report.verdict, &batch, "cfg {:?}", cfg);
        prop_assert_eq!(format!("{:?}", report.verdict), format!("{batch:?}"));
        if let Ok(w) = &report.verdict {
            prop_assert!(witness_is_valid(&KvStore, &t, w), "cfg {:?}", cfg);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Plain checker, `Set`: same contract on the commuting-element ADT.
    #[test]
    fn set_stream_matches_batch(cfg in configs()) {
        let t = random_multikey_set_trace(&cfg);
        let mut mon = stream::<_, (), _>(LinChecker::owned(Set), SetElemPartitioner, None);
        for a in t.iter() {
            mon.ingest(a.clone());
        }
        prop_assert_eq!(
            mon.report().unwrap().verdict,
            LinChecker::owned(Set).check(&t),
            "cfg {:?}", cfg
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(130))]

    /// Composite ADTs stream through their per-cell partitioners.
    #[test]
    fn reg_array_stream_matches_batch(cfg in configs()) {
        let t = random_multikey_reg_array_trace(&cfg);
        let mut mon = stream::<_, (), _>(LinChecker::owned(RegisterArray), RegArrayPartitioner, None);
        for a in t.iter() {
            mon.ingest(a.clone());
        }
        prop_assert_eq!(
            mon.report().unwrap().verdict,
            LinChecker::owned(RegisterArray).check(&t),
            "cfg {:?}", cfg
        );
    }

    #[test]
    fn counter_vector_stream_matches_batch(cfg in configs()) {
        let t = random_multikey_counter_vec_trace(&cfg);
        let mut mon = stream::<_, (), _>(LinChecker::owned(CounterVector), CounterVecPartitioner, None);
        for a in t.iter() {
            mon.ingest(a.clone());
        }
        prop_assert_eq!(
            mon.report().unwrap().verdict,
            LinChecker::owned(CounterVector).check(&t),
            "cfg {:?}", cfg
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(250))]

    /// Speculative checker on switch-free phase streams: witness and error
    /// byte-identical to the partitioned batch path, and (per Theorem 2 /
    /// the PR 2 differential contract) to `check()` on witness and error.
    #[test]
    fn slin_stream_matches_batch_on_switch_free_traces(cfg in configs()) {
        let t: Trace<ObjAction<KvStore, Vec<KvInput>>> =
            retag(&random_multikey_kv_trace(&cfg));
        let chk = SlinChecker::owned(KvStore, ExactInit::new(), PhaseId::new(1), PhaseId::new(2));
        let mut mon = stream(chk.clone(), KvKeyPartitioner, None);
        for a in t.iter() {
            mon.ingest(a.clone());
        }
        let report = mon.report().unwrap();
        let partitioned = Checker::builder(chk.clone())
            .partitioner(KvKeyPartitioner)
            .strategy(SessionStrategy::Partitioned)
            .build()
            .check(&t);
        prop_assert_eq!(&report.verdict, &partitioned.outcome, "cfg {:?}", cfg);
        let mono = chk.check(&t);
        prop_assert_eq!(
            report.verdict.as_ref().map(|r| &r.witness),
            mono.as_ref().map(|r| &r.witness),
            "cfg {:?}", cfg
        );
        prop_assert_eq!(report.verdict.as_ref().err(), mono.as_ref().err(), "cfg {:?}", cfg);
    }
}

/// Random consensus speculation-phase streams (switch actions included):
/// the monitor's speculative mode must reproduce `check()` byte for byte.
fn phase_trace_strategy() -> impl Strategy<Value = Trace<ObjAction<Consensus, Value>>> {
    (
        1..=3u32, // clients
        0..=2u8,  // decider tier: which client (if any) decides
        1..=3u64, // decided/switched value
        0..=1u8,  // switch value matches decision?
        0..=1u8,  // trailing pending proposal?
    )
        .prop_map(|(clients, decider, value, matches, pending)| {
            let ph1 = PhaseId::new(1);
            let mut actions: Vec<ObjAction<Consensus, Value>> = Vec::new();
            for k in 1..=clients {
                actions.push(Action::invoke(
                    ClientId::new(k),
                    ph1,
                    ConsInput::propose(k as u64),
                ));
            }
            if decider > 0 && decider <= clients as u8 {
                let d = ClientId::new(decider as u32);
                actions.push(Action::respond(
                    d,
                    ph1,
                    ConsInput::propose(decider as u64),
                    ConsOutput::decide(value),
                ));
            }
            // Every other client switches; one may stay pending.
            for k in 1..=clients {
                if decider as u32 == k {
                    continue;
                }
                if pending == 1 && k == clients {
                    continue;
                }
                let v = if matches == 1 { value } else { (value % 3) + 1 };
                actions.push(Action::switch(
                    ClientId::new(k),
                    PhaseId::new(2),
                    ConsInput::propose(k as u64),
                    Value::new(v),
                ));
            }
            Trace::from_actions(actions)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    #[test]
    fn speculative_stream_matches_batch_on_phase_traces(t in phase_trace_strategy()) {
        let chk = SlinChecker::owned(Consensus, ConsensusInit::new(), PhaseId::new(1), PhaseId::new(2));
        let mut mon = stream(chk.clone(), slin_adt::IdentityPartitioner, None);
        for a in t.iter() {
            mon.ingest(a.clone());
        }
        prop_assert_eq!(mon.report().unwrap().verdict, chk.check(&t), "{:?}", t);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The >64-commit acceptance case: wide linearizable streams whose
    /// commit count exceeds the old engine ceiling, checked by both the
    /// monitor and the (now unbounded) batch path.
    #[test]
    fn streams_with_more_than_64_commits_match_batch(cfg in big_configs()) {
        let t = random_multikey_kv_trace(&cfg);
        let commits = t.iter().filter(|a| a.is_respond()).count();
        let mut mon = stream::<_, (), _>(LinChecker::owned(KvStore), KvKeyPartitioner, None);
        for a in t.iter() {
            mon.ingest(a.clone());
        }
        let report = mon.report().unwrap();
        let batch = LinChecker::owned(KvStore).check(&t);
        prop_assert_eq!(&report.verdict, &batch, "cfg {:?} ({commits} commits)", cfg);
        if let Ok(w) = &report.verdict {
            prop_assert!(witness_is_valid(&KvStore, &t, w));
        }
    }
}

/// At least one generated big stream really does exceed 64 commits (the
/// proptest above would be vacuous otherwise), and the batch path accepts
/// it.
#[test]
fn big_streams_do_exceed_64_commits() {
    let cfg = MultiKeyConfig {
        clients: 4,
        steps: 260,
        keys: 8,
        skew: 0.2,
        contention: 0.0,
        error_prob: 0.0,
        seed: 12,
    };
    let t = random_multikey_kv_trace(&cfg);
    let commits = t.iter().filter(|a| a.is_respond()).count();
    assert!(commits > 64, "only {commits} commits — widen the config");
    let batch = LinChecker::owned(KvStore).check(&t);
    assert!(batch.is_ok(), "{batch:?}");
    let mut mon = stream::<_, (), _>(LinChecker::owned(KvStore), KvKeyPartitioner, None);
    for a in t.iter() {
        mon.ingest(a.clone());
    }
    assert_eq!(mon.report().unwrap().verdict, batch);
}

// ---- hostile never-quiescent streams (epoch GC differential) ----

/// A windowed monitor with epoch cuts enabled (the default) over the
/// hostile generator's single-shard-heavy key space.
fn epoch_monitor(window: usize) -> Session<LinChecker<KvStore>, (), KvKeyPartitioner> {
    stream(LinChecker::owned(KvStore), KvKeyPartitioner, Some(window))
}

/// Hostile sweep parameters kept small enough that the *batch* oracle
/// stays tractable (the whole trace is one dense concurrency window).
fn hostile_configs() -> impl Strategy<Value = HostileConfig> {
    (
        1..=2u32,     // keys
        0..=1u8,      // never-responding tier
        0..=1u8,      // perturbation tier
        0..=4_000u64, // seed
    )
        .prop_map(|(keys, never, error, seed)| HostileConfig {
            clients: 3,
            steps: 60,
            keys,
            skew: 0.7,
            never_frac: [0.08, 0.2][never as usize],
            stuck_applies: true,
            delay_zipf: 1.1,
            max_delay: 8,
            error_prob: [0.0, 0.25][error as usize],
            seed,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// Epoch-GC'd monitors keep exact (window-relative) verdicts on
    /// never-quiescent streams: the rolling status agrees with the batch
    /// checker on the same closed trace, violation for violation.
    #[test]
    fn hostile_stream_status_matches_batch(cfg in hostile_configs()) {
        let t = random_hostile_kv_trace(&cfg);
        let mut mon = epoch_monitor(6);
        for a in t.iter() {
            mon.ingest(a.clone());
        }
        let status = mon.status().unwrap();
        let batch = LinChecker::owned(KvStore).check(&t);
        match &batch {
            Ok(_) => prop_assert_eq!(status, MonitorStatus::Ok, "cfg {:?}", cfg),
            Err(_) => prop_assert_eq!(status, MonitorStatus::Violation, "cfg {:?}", cfg),
        }
    }
}

/// The hostile differential above is not vacuous: across a pinned seed
/// sweep the epoch-GC machinery really does cut non-quiescent windows,
/// retire events, and record symbolic completions — while every verdict
/// still matches the batch oracle exactly.
#[test]
fn hostile_streams_exercise_epoch_cuts_non_vacuously() {
    let mut total_retired = 0;
    let mut total_epoch_cuts = 0;
    for seed in 0..24 {
        let cfg = HostileConfig {
            clients: 3,
            steps: 70,
            keys: 1,
            never_frac: 0.12,
            max_delay: 8,
            seed,
            ..Default::default()
        };
        let t = random_hostile_kv_trace(&cfg);
        let mut mon = epoch_monitor(6);
        for a in t.iter() {
            let out = mon.ingest(a.clone());
            assert_eq!(
                out.status,
                MonitorStatus::Ok,
                "seed {seed}: linearizable by construction"
            );
        }
        let report = mon.report().unwrap();
        assert!(report.verdict.is_ok(), "seed {seed}: {:?}", report.verdict);
        total_retired += report.shard.retired_events;
        total_epoch_cuts += report.shard.epoch_cuts;
        assert!(
            LinChecker::owned(KvStore).check(&t).is_ok(),
            "seed {seed}: batch oracle disagrees"
        );
    }
    assert!(total_retired > 0, "no events were ever retired");
    assert!(
        total_epoch_cuts > 0,
        "every cut was quiescent — the streams are not hostile enough"
    );
}

/// Straggler absorption, positive case: an invocation left pending across
/// several epoch cuts is later completed with an output the symbolic
/// completion recorded — the late response is absorbed and the stream
/// stays `Ok`.
#[test]
fn late_straggler_response_is_absorbed_after_epoch_cuts() {
    let c = |k: u32| ClientId::new(k);
    let ph = PhaseId::FIRST;
    let mut mon = epoch_monitor(4);
    // A committed write, so later reads are pinned to real values.
    mon.ingest(Action::invoke(c(2), ph, KvInput::Put(1, 1)));
    mon.ingest(Action::respond(c(2), ph, KvInput::Put(1, 1), KvOutput::Ack));
    // The straggler: a Get that stays pending across many windows.
    mon.ingest(Action::invoke(c(1), ph, KvInput::Get(1)));
    // Enough committed writes to force several non-quiescent epoch cuts.
    for v in 2..=20u64 {
        mon.ingest(Action::invoke(c(2), ph, KvInput::Put(1, v)));
        let out = mon.ingest(Action::respond(c(2), ph, KvInput::Put(1, v), KvOutput::Ack));
        assert_eq!(out.status, MonitorStatus::Ok, "round {v}");
    }
    // The straggler finally responds with a value it could have read at
    // some linearization point inside its (huge) pending interval.
    let out = mon.ingest(Action::respond(
        c(1),
        ph,
        KvInput::Get(1),
        KvOutput::Found(Some(7)),
    ));
    assert_eq!(out.status, MonitorStatus::Ok, "absorbable straggler");
    let report = mon.report().unwrap();
    assert!(report.verdict.is_ok());
    assert!(report.shard.epoch_cuts > 0, "no epoch cut ever happened");
    assert!(report.shard.retired_events > 0);
}

/// Straggler absorption, negative case: the same shape, but the late
/// response carries an output no linearization of its pending interval
/// allows — the epoch-GC'd monitor must still flag the violation.
#[test]
fn impossible_late_straggler_response_is_still_a_violation() {
    let c = |k: u32| ClientId::new(k);
    let ph = PhaseId::FIRST;
    let mut mon = epoch_monitor(4);
    mon.ingest(Action::invoke(c(2), ph, KvInput::Put(1, 1)));
    mon.ingest(Action::respond(c(2), ph, KvInput::Put(1, 1), KvOutput::Ack));
    // Invoked strictly after the first write committed: every possible
    // linearization point sees *some* written value (there are no deletes).
    mon.ingest(Action::invoke(c(1), ph, KvInput::Get(1)));
    for v in 2..=20u64 {
        let out = mon.ingest(Action::invoke(c(2), ph, KvInput::Put(1, v)));
        assert_eq!(out.status, MonitorStatus::Ok);
        mon.ingest(Action::respond(c(2), ph, KvInput::Put(1, v), KvOutput::Ack));
    }
    let out = mon.ingest(Action::respond(
        c(1),
        ph,
        KvInput::Get(1),
        KvOutput::Found(None), // impossible: the key was never absent
    ));
    assert_eq!(out.status, MonitorStatus::Violation);
    assert!(mon.report().unwrap().verdict.is_err());
}

/// Two stragglers on **one** input pending across the same epoch cuts: the
/// summary's configurations have consumed zero, one or both occurrences of
/// `get(1)` as extras, so when the gets respond after the cut the direct
/// tail commit fits some post-cut seeds and not others — both answers of
/// the frontier's count test, which debug builds check against the full
/// multiset inclusion on every configuration. The rolling status is the
/// batch checker's at every prefix, for an explainable and an impossible
/// late response.
#[test]
fn two_stragglers_on_one_input_cross_an_epoch_cut() {
    let c = |k: u32| ClientId::new(k);
    let ph = PhaseId::FIRST;
    let get = KvInput::Get(1);
    for (late, explainable) in [(Some(9), true), (None, false)] {
        let mut actions = vec![
            Action::invoke(c(3), ph, KvInput::Put(1, 1)),
            Action::respond(c(3), ph, KvInput::Put(1, 1), KvOutput::Ack),
            Action::invoke(c(1), ph, get),
            Action::invoke(c(2), ph, get),
        ];
        for v in 2..=12u64 {
            actions.push(Action::invoke(c(3), ph, KvInput::Put(1, v)));
            actions.push(Action::respond(c(3), ph, KvInput::Put(1, v), KvOutput::Ack));
        }
        actions.push(Action::respond(c(2), ph, get, KvOutput::Found(Some(4))));
        actions.push(Action::invoke(c(2), ph, get));
        actions.push(Action::respond(c(2), ph, get, KvOutput::Found(Some(12))));
        actions.push(Action::respond(c(1), ph, get, KvOutput::Found(late)));

        let mut mon = epoch_monitor(4);
        let mut prefix: Trace<ObjAction<KvStore, ()>> = Trace::new();
        for a in actions {
            prefix.push(a.clone());
            let status = mon.ingest(a).status;
            let batch = LinChecker::owned(KvStore).check(&prefix);
            let expect = if batch.is_ok() {
                MonitorStatus::Ok
            } else {
                MonitorStatus::Violation
            };
            assert_eq!(status, expect, "at event {}", prefix.len() - 1);
        }
        let report = mon.report().unwrap();
        assert_eq!(report.verdict.is_ok(), explainable);
        assert!(report.shard.epoch_cuts > 2, "the stragglers crossed no cut");
    }
}

/// Perturbed wide streams: violations past the old ceiling are detected
/// identically by both paths.
#[test]
fn perturbed_big_streams_match_batch() {
    for seed in [3u64, 31] {
        let cfg = MultiKeyConfig {
            clients: 4,
            steps: 240,
            keys: 8,
            skew: 0.2,
            contention: 0.0,
            error_prob: 0.2,
            seed,
        };
        let t = random_multikey_kv_trace(&cfg);
        let mut mon = stream::<_, (), _>(LinChecker::owned(KvStore), KvKeyPartitioner, None);
        for a in t.iter() {
            mon.ingest(a.clone());
        }
        assert_eq!(
            mon.report().unwrap().verdict,
            LinChecker::owned(KvStore).check(&t),
            "seed {seed}"
        );
    }
}
