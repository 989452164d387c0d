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
use slin_core::model::ConsistencyModel;
use slin_core::session::{Checker, Session, Strategy as SessionStrategy};
use slin_core::slin::SlinChecker;
use slin_core::stream::{GcPolicy, IngestOutcome, MonitorStatus, ShardSummary};
use slin_core::ObjAction;
use slin_trace::{Action, ClientId, PhaseId, Trace};

/// The monitor under test: a session born streaming over `model`, sharded
/// by `partitioner`, with the given GC window.
fn stream<M, V, P>(model: M, partitioner: P, window: Option<usize>) -> Session<M, V, P>
where
    M: ConsistencyModel<V>,
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

    /// Speculative checker on switch-free phase streams: the verdict,
    /// witness or error, byte-identical to the partitioned batch path and
    /// (per Theorem 2) to `check()`.
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
            .build()
            .check(&t);
        prop_assert_eq!(&report.verdict, &partitioned.outcome, "cfg {:?}", cfg);
        prop_assert_eq!(&report.verdict, &chk.check(&t), "cfg {:?}", cfg);
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
    /// checker on the same closed trace, violation for violation, and so
    /// does the report's verdict — past a retirement too, where it
    /// interleaves the shard chains.
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
        let report = mon.report().unwrap();
        prop_assert_eq!(report.verdict.is_ok(), batch.is_ok(), "cfg {:?}: {:?}", cfg, report);
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

/// A window that holds only invocations retires, and its four stragglers
/// then count against histories measured from the *next* window's start:
/// a history-length cap equal to that window's length (the engine had
/// one) refused the second put as an extra and called the last response a
/// violation. `[put7, get, put9, get]` linearizes it, so the rolling
/// status is the batch checker's at every prefix.
#[test]
fn stragglers_from_a_retired_invocation_only_window_are_not_capped() {
    let c = |k: u32| ClientId::new(k);
    let ph = PhaseId::FIRST;
    let get = KvInput::Get(1);
    let actions = [
        Action::invoke(c(1), ph, KvInput::Put(1, 7)),
        Action::invoke(c(2), ph, KvInput::Put(1, 9)),
        Action::invoke(c(3), ph, get),
        Action::invoke(c(4), ph, get),
        Action::respond(c(3), ph, get, KvOutput::Found(Some(7))),
        Action::respond(c(4), ph, get, KvOutput::Found(Some(9))),
    ];
    let mut mon = epoch_monitor(4);
    let mut prefix: Trace<ObjAction<KvStore, ()>> = Trace::new();
    for a in actions {
        prefix.push(a.clone());
        assert!(LinChecker::owned(KvStore).check(&prefix).is_ok());
        let status = mon.ingest(a).status;
        assert_eq!(status, MonitorStatus::Ok, "at event {}", prefix.len() - 1);
    }
    let report = mon.report().unwrap();
    assert!(report.verdict.is_ok());
    assert_eq!(report.shard.retired_events, 4, "the prefix did not retire");
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

// ---- checkpointed enumerations: fallbacks and cuts that resume ----

/// What one event did to a single-key session, read off the public
/// counters (one key, so one shard: the sums are that shard's).
struct Step {
    out: IngestOutcome,
    /// Responses in the retained window, this event included.
    window_commits: usize,
    /// Commits this event's fallback and cut enumerations were handed:
    /// fewer than `window_commits` means they started at a checkpoint.
    enumerated: usize,
    /// Fallbacks earlier in the same window.
    prior_fallbacks: usize,
    retired: bool,
    epoch_cut: bool,
    lossy_cut: bool,
}

/// Streams `t` through a windowed session and checks the rolling status
/// against the single-threaded `Strategy::Monolithic` reference **at every
/// prefix**: equal in exact mode; with a tripped budget or after a lossy
/// cut the session may answer `Unknown`, but what it does claim is true.
fn drive_against_reference(
    t: &Trace<ObjAction<KvStore, ()>>,
    window: usize,
    gc: GcPolicy,
    budget: Option<usize>,
) -> Vec<Step> {
    let mut builder = Checker::builder(LinChecker::owned(KvStore))
        .partitioner(KvKeyPartitioner)
        .strategy(SessionStrategy::Streaming {
            window: Some(window),
        })
        .gc_policy(gc);
    if let Some(nodes) = budget {
        builder = builder.budget(nodes);
    }
    let mut mon: Session<_, (), _> = builder.build();
    let mut reference = Checker::builder(LinChecker::owned(KvStore))
        .strategy(SessionStrategy::Monolithic)
        .threads(1)
        .build();
    let exact = budget.is_none() && !gc.epoch_force;
    let mut prefix = Trace::new();
    let mut steps = Vec::new();
    let (mut window_commits, mut prior_fallbacks) = (0, 0);
    let mut before = ShardSummary::default();
    for a in t.iter() {
        prefix.push(a.clone());
        window_commits += usize::from(a.is_respond());
        let out = mon.ingest(a.clone());
        let holds = reference.check(&prefix).outcome.is_ok();
        match out.status {
            MonitorStatus::Ok => assert!(holds, "over-claim at event {}", out.index),
            MonitorStatus::Violation => assert!(!holds, "false alarm at event {}", out.index),
            MonitorStatus::Unknown => assert!(!exact, "exact mode gave up at {}", out.index),
            other => panic!("{other:?} on a well-formed switch-free stream"),
        }
        let after = mon.shard_summary().expect("streaming");
        let retired = after.retired_events > before.retired_events;
        steps.push(Step {
            out,
            window_commits,
            enumerated: after.enumerated_commits - before.enumerated_commits,
            prior_fallbacks,
            retired,
            epoch_cut: after.epoch_cuts > before.epoch_cuts,
            lossy_cut: after.lossy_cuts > before.lossy_cuts,
        });
        prior_fallbacks += usize::from(out.fell_back);
        if retired {
            (window_commits, prior_fallbacks) = (0, 0);
        }
        before = after;
    }
    steps
}

fn single_key_stragglers(
    clients: u32,
    error_prob: f64,
    seed: u64,
) -> Trace<ObjAction<KvStore, ()>> {
    random_hostile_kv_trace(&HostileConfig {
        clients,
        steps: 70,
        keys: 1,
        skew: 0.7,
        never_frac: 0.02,
        stuck_applies: true,
        delay_zipf: 1.3,
        max_delay: 12,
        error_prob,
        seed,
    })
}

fn single_key_hot(clients: u32, error_prob: f64, seed: u64) -> Trace<ObjAction<KvStore, ()>> {
    random_multikey_kv_trace(&MultiKeyConfig {
        clients,
        steps: 70,
        keys: 1,
        skew: 0.0,
        contention: 0.0,
        error_prob,
        seed,
    })
}

/// A window falls back twice and is then cut at an epoch boundary: the
/// second fallback resumes at the first one's checkpoint, and the cut at
/// the second's — it enumerates fewer commits than the window holds.
#[test]
fn epoch_cuts_resume_at_the_last_fallback() {
    let mut resumed = 0;
    for seed in 9..=13 {
        for clients in [3, 4] {
            let t = single_key_stragglers(clients, 0.0, seed);
            let steps = drive_against_reference(&t, 16, GcPolicy::default(), None);
            resumed += steps
                .iter()
                .filter(|s| s.epoch_cut && s.prior_fallbacks >= 2)
                .inspect(|s| assert!(s.enumerated < s.window_commits))
                .count();
        }
    }
    assert!(
        resumed >= 3,
        "only {resumed} epoch cuts followed two fallbacks"
    );
}

/// A violation first proved by an enumeration that did not start at the
/// seeds: the window had already fallen back (and kept the checkpoint), and
/// the re-search that finds no completion was handed only the commits since.
#[test]
fn violations_are_proved_from_a_checkpoint() {
    let mut proved = 0;
    for seed in 6..=15 {
        for clients in [3, 4] {
            let streams = [
                single_key_stragglers(clients, 0.1, seed),
                single_key_hot(clients, 0.1, seed),
            ];
            for t in streams {
                let steps = drive_against_reference(&t, 32, GcPolicy::default(), None);
                let first = steps
                    .iter()
                    .find(|s| s.out.status == MonitorStatus::Violation);
                proved += usize::from(first.is_some_and(|s| {
                    s.out.fell_back && s.prior_fallbacks >= 1 && s.enumerated < s.window_commits
                }));
            }
        }
    }
    assert!(
        proved >= 4,
        "only {proved} violations proved from a checkpoint"
    );
}

/// `frontier_cap = 2` truncates the fallback (more than four terminal
/// configurations), so no checkpoint is taken and the window's cut starts
/// over from the seeds — where the default cap, on the same stream, same
/// window, resumes.
#[test]
fn a_truncated_fallback_takes_no_checkpoint() {
    let tiny = GcPolicy {
        frontier_cap: 2,
        ..Default::default()
    };
    let cut_after_fallback = |s: &&Step| s.retired && !s.out.fell_back && s.prior_fallbacks >= 1;
    let mut started_over = 0;
    for seed in 0..=6 {
        for clients in [3, 4] {
            for t in [
                single_key_stragglers(clients, 0.0, seed),
                single_key_hot(clients, 0.0, seed),
            ] {
                let truncated = drive_against_reference(&t, 16, tiny, None);
                let complete = drive_against_reference(&t, 16, GcPolicy::default(), None);
                for (a, b) in truncated.iter().zip(&complete) {
                    started_over += usize::from(
                        cut_after_fallback(&a)
                            && cut_after_fallback(&b)
                            && a.window_commits == b.window_commits
                            && a.enumerated == a.window_commits
                            && b.enumerated < b.window_commits,
                    );
                }
            }
        }
    }
    assert!(started_over >= 3, "only {started_over} cuts started over");
}

/// A tiny node budget trips a fallback — `Unknown`, no checkpoint — and the
/// shard recovers at the next quiescent commit; whatever it claims in
/// between and after is the reference's answer.
#[test]
fn a_tripped_fallback_recovers_at_quiescence() {
    let mut recovered = 0;
    for (clients, seed, budget) in [(3, 83, 48), (3, 90, 24), (4, 279, 28)] {
        let t = single_key_hot(clients, 0.0, seed);
        let steps = drive_against_reference(&t, 16, GcPolicy::default(), Some(budget));
        let tripped = steps
            .iter()
            .position(|s| s.out.fell_back && s.out.status == MonitorStatus::Unknown);
        recovered += usize::from(tripped.is_some_and(|at| {
            steps[at..]
                .iter()
                .any(|s| s.out.fell_back && s.out.status == MonitorStatus::Ok)
        }));
    }
    assert_eq!(recovered, 3, "a budget trip was not recovered from");
}

/// Records every engine search a session reports.
#[derive(Default)]
struct Searches(std::sync::Mutex<Vec<slin_obs::EngineSearchEvent>>);

impl slin_obs::Observer for Searches {
    fn engine_search(&self, ev: &slin_obs::EngineSearchEvent) {
        self.0.lock().expect("no panic holds it").push(ev.clone());
    }
}

/// A window-mode report whose search trips its budget still says what the
/// search cost: `stats.nodes` covers the nodes the error names, and so
/// does the `shard.window_search` event the observer is handed. Window
/// reports run past a retirement with no record, so each stream opens
/// with a quiescent put that a window of 2 retires.
#[test]
fn a_tripped_window_search_keeps_its_counters() {
    let mut tripped = 0;
    let put = KvInput::Put(1, 0);
    let c = ClientId::new(9);
    let opening = [
        Action::invoke(c, PhaseId::FIRST, put),
        Action::respond(c, PhaseId::FIRST, put, KvOutput::Ack),
    ];
    for seed in 0..80u64 {
        let t = single_key_stragglers(3, 0.0, seed);
        for budget in [2, 4, 8, 16] {
            let seen = std::sync::Arc::new(Searches::default());
            let mut mon: Session<_, (), _> = Checker::builder(LinChecker::owned(KvStore))
                .partitioner(KvKeyPartitioner)
                .strategy(SessionStrategy::Streaming { window: Some(2) })
                .budget(budget)
                .observer(slin_obs::Obs::new(seen.clone()))
                .build();
            for a in opening.iter().chain(t.iter()) {
                mon.ingest(a.clone());
            }
            let report = mon.report().expect("born streaming");
            let Err(slin_core::lin::LinError::BudgetExhausted { nodes }) = report.verdict else {
                continue;
            };
            tripped += 1;
            assert!(
                report.prefix_committed && !report.reconstructed,
                "seed {seed}, budget {budget}: {report:?}"
            );
            assert!(nodes > 0, "seed {seed}, budget {budget}");
            assert!(
                report.stats.nodes >= nodes,
                "seed {seed}, budget {budget}: the error names {nodes} nodes, the report's \
                 stats {}",
                report.stats.nodes
            );
            let searches = seen.0.lock().expect("no panic holds it");
            let last = searches
                .iter()
                .rfind(|ev| ev.site == "shard.window_search")
                .expect("a window-mode report searches the window");
            assert!(
                last.budget_exhausted && last.nodes >= nodes as u64,
                "{last:?}"
            );
        }
    }
    assert!(tripped >= 100, "only {tripped} of 320 reports tripped");
}

/// `epoch_force` with `frontier_cap = 3`: cuts retire truncated summaries.
/// After a lossy cut the session never says `Violation` (a missing
/// completion proves nothing any more) and `Ok` is still the reference's
/// `Ok` (checked at every prefix by the driver) — through fallbacks that
/// resume at checkpoints taken over the lossy seeds.
#[test]
fn lossy_cuts_never_over_claim() {
    let lossy = GcPolicy {
        frontier_cap: 3,
        epoch_force: true,
        ..Default::default()
    };
    let (mut sessions, mut resumed) = (0, 0);
    for seed in 0..=6 {
        for error_prob in [0.0, 0.1] {
            let t = single_key_stragglers(4, error_prob, seed);
            let steps = drive_against_reference(&t, 8, lossy, None);
            let Some(cut) = steps.iter().position(|s| s.lossy_cut) else {
                continue;
            };
            sessions += 1;
            for s in &steps[cut..] {
                assert_ne!(s.out.status, MonitorStatus::Violation, "seed {seed}");
                resumed += usize::from(s.out.fell_back && s.enumerated < s.window_commits);
            }
        }
    }
    assert!(sessions >= 6, "only {sessions} sessions cut lossily");
    assert!(
        resumed >= 3,
        "only {resumed} fallbacks resumed after a lossy cut"
    );
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

// ---- one record of the stream: identity collapses and switches ----

/// The KV key partitioner, except that `delete` is declared to touch every
/// key: its first occurrence collapses a stream to one identity shard.
struct DeleteTouchesAll;

impl Partitioner<KvStore> for DeleteTouchesAll {
    type Key = u32;

    fn key_of(&self, input: &KvInput) -> Option<u32> {
        match input {
            KvInput::Delete(_) => None,
            other => KvKeyPartitioner.key_of(other),
        }
    }
}

/// An unbounded identity collapse replays the events *before* the one that
/// triggers it, each once, and the trigger is then routed like any other
/// event. The parent replayed a record that already held the triggering
/// `delete(2)` and routed it a second time — nine window events for eight
/// — and the phantom second delete explained `get(2) = None` after
/// `put(2,5)`: every rolling status `Ok`, while the session's own report
/// and the batch checker said `NotLinearizable`.
#[test]
fn an_identity_collapse_replays_each_event_once() {
    let (c, ph) = (ClientId::new(1), PhaseId::FIRST);
    let ops = [
        (KvInput::Put(2, 1), KvOutput::Ack),
        (KvInput::Delete(2), KvOutput::Ack),
        (KvInput::Put(2, 5), KvOutput::Ack),
        (KvInput::Get(2), KvOutput::Found(None)),
    ];
    let mut mon = stream::<_, (), _>(LinChecker::owned(KvStore), DeleteTouchesAll, None);
    let mut prefix: Trace<ObjAction<KvStore, ()>> = Trace::new();
    for (input, output) in ops {
        for a in [
            Action::invoke(c, ph, input),
            Action::respond(c, ph, input, output),
        ] {
            prefix.push(a.clone());
            let status = mon.ingest(a).status;
            let expect = match LinChecker::owned(KvStore).check(&prefix) {
                Ok(_) => MonitorStatus::Ok,
                Err(_) => MonitorStatus::Violation,
            };
            assert_eq!(status, expect, "at event {}", prefix.len() - 1);
        }
    }
    let report = mon.report().unwrap();
    assert_eq!(
        report.verdict,
        Err(slin_core::lin::LinError::NotLinearizable)
    );
    assert!(report.fallback.is_some());
    assert_eq!(report.shard.window_events, report.events);
}

type KvPhaseStream = Session<SlinChecker<KvStore, ExactInit>, Vec<KvInput>, KvKeyPartitioner>;

/// The daemon's tenant model (phases 1 → 2) as a streaming session.
fn kv_phase_stream(window: Option<usize>, archive_windows: usize) -> KvPhaseStream {
    let model = SlinChecker::owned(KvStore, ExactInit::new(), PhaseId::FIRST, PhaseId::new(2));
    Checker::builder(model)
        .partitioner(KvKeyPartitioner)
        .strategy(SessionStrategy::Streaming { window })
        .gc_policy(GcPolicy {
            archive_windows,
            ..Default::default()
        })
        .build()
}

/// Closes a switch-free stream with an abort out of phase 1: client 1 —
/// invoking `get(1)` first if it is idle — switches to phase 2 carrying the
/// unbounded session's longest commit history at that point (empty when
/// the stream so far has no witness).
fn close_with_abort(t: &Trace<ObjAction<KvStore, ()>>) -> Vec<ObjAction<KvStore, Vec<KvInput>>> {
    let (c, ph) = (ClientId::new(1), PhaseId::FIRST);
    let mut actions: Vec<_> = retag::<Vec<KvInput>>(t).into_iter().collect();
    let pending = (actions.iter().rev())
        .find(|a| a.client() == c)
        .filter(|a| a.is_invoke())
        .map(|a| *a.input());
    let input = pending.unwrap_or_else(|| {
        actions.push(Action::invoke(c, ph, KvInput::Get(1)));
        KvInput::Get(1)
    });
    let mut oracle = kv_phase_stream(None, 0);
    for a in &actions {
        oracle.ingest(a.clone());
    }
    let value = match oracle.report().expect("born streaming").verdict {
        Ok(witness) => witness.commit_histories.history().to_vec(),
        Err(_) => Vec::new(),
    };
    actions.push(Action::switch(c, PhaseId::new(2), input, value));
    actions
}

/// The bounded-window speculative session against the unbounded one — the
/// definition's reading of the whole stream — at every prefix of hostile
/// streams closed by an abort: the bounded status is the unbounded one or
/// `Unknown`, and exactly the unbounded one when the archive is deep enough
/// to keep the record. Most streams retire before their switch, the case
/// the parent answered by rebuilding the stream from the shard windows.
#[test]
fn a_bounded_speculative_stream_never_over_claims() {
    let (mut cases, mut retired_first, mut unknown) = (0, 0, 0);
    for seed in 0..10 {
        for keys in [1, 2] {
            for error_prob in [0.0, 0.25] {
                let t = random_hostile_kv_trace(&HostileConfig {
                    clients: 3,
                    steps: 60,
                    keys,
                    skew: 0.7,
                    never_frac: 0.08,
                    stuck_applies: true,
                    delay_zipf: 1.1,
                    max_delay: 8,
                    error_prob,
                    seed,
                });
                let actions = close_with_abort(&t);
                let mut oracle = kv_phase_stream(None, 0);
                let want: Vec<MonitorStatus> = (actions.iter())
                    .map(|a| {
                        oracle.ingest(a.clone());
                        oracle.status().expect("streaming")
                    })
                    .collect();
                for window in [4, 8] {
                    for archive in [0, 1024] {
                        let mut mon = kv_phase_stream(Some(window), archive);
                        let case = format!("seed {seed}, keys {keys}, error {error_prob}, window {window}, archive {archive}");
                        for (i, a) in actions.iter().enumerate() {
                            if a.is_switch() {
                                let retired =
                                    mon.shard_summary().expect("streaming").retired_events;
                                retired_first += usize::from(retired > 0);
                            }
                            mon.ingest(a.clone());
                            let got = mon.status().expect("streaming");
                            if archive > 0 {
                                assert_eq!(got, want[i], "{case}: event {i}");
                            } else if got != want[i] {
                                assert_eq!(got, MonitorStatus::Unknown, "{case}: event {i}");
                                unknown += 1;
                            }
                        }
                        cases += 1;
                    }
                }
            }
        }
    }
    println!(
        "{cases} bounded sessions, {retired_first} retired before their switch, \
         {unknown} statuses under-claimed"
    );
    assert!(
        retired_first * 2 >= cases,
        "only {retired_first} of {cases} retired first"
    );
}

/// An unbounded plain stream keeps no record: its report rebuilds the
/// stream from the shard windows — except past a switch, where the shards
/// go quiet and the validator answers, as the batch check validates
/// first. At every prefix of a stream that meets a switch and of one that
/// turns ill-formed, the report is the batch check's: verdict, witness
/// and stats.
#[test]
fn an_unbounded_lin_stream_reports_the_batch_check_past_a_switch_or_ill_formedness() {
    use slin_core::lin::LinError;
    let (c1, c2, ph) = (ClientId::new(1), ClientId::new(2), PhaseId::FIRST);
    let puts: Vec<ObjAction<KvStore, ()>> = vec![
        Action::invoke(c1, ph, KvInput::Put(1, 1)),
        Action::invoke(c2, ph, KvInput::Put(2, 2)),
        Action::respond(c1, ph, KvInput::Put(1, 1), KvOutput::Ack),
        Action::respond(c2, ph, KvInput::Put(2, 2), KvOutput::Ack),
    ];
    let get2 = [
        Action::invoke(c2, ph, KvInput::Get(2)),
        Action::respond(c2, ph, KvInput::Get(2), KvOutput::Found(Some(2))),
    ];
    let switched = [
        Action::invoke(c1, ph, KvInput::Get(1)),
        Action::switch(c1, PhaseId::new(2), KvInput::Get(1), ()),
    ];
    // A response without its invocation.
    let unmatched = [Action::respond(
        c1,
        ph,
        KvInput::Get(1),
        KvOutput::Found(Some(1)),
    )];
    for (tail, switches) in [(&switched[..], true), (&unmatched[..], false)] {
        let trace: Vec<_> = puts.iter().chain(tail).chain(&get2).cloned().collect();
        let mut mon = stream::<_, (), _>(LinChecker::owned(KvStore), KvKeyPartitioner, None);
        let mut batch = Checker::builder(LinChecker::owned(KvStore))
            .partitioner(KvKeyPartitioner)
            .build();
        let mut prefix = Trace::new();
        for a in trace {
            prefix.push(a.clone());
            mon.ingest(a);
            let report = mon.report().expect("born streaming");
            let expect = batch.check(&prefix);
            assert_eq!(report.verdict, expect.outcome, "prefix {}", prefix.len());
            assert_eq!(report.stats, expect.stats, "prefix {}", prefix.len());
        }
        let verdict = mon.report().expect("born streaming").verdict;
        if switches {
            assert_eq!(verdict, Err(LinError::SwitchAction { index: 5 }));
        } else {
            assert!(
                matches!(verdict, Err(LinError::IllFormed(_))),
                "{verdict:?}"
            );
        }
    }
}
