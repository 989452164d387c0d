//! Session-facade differential tests (pinned seeds).
//!
//! The one-surface contract: a [`slin_core::session::Session`] built with
//! **every** [`SessionStrategy`], at any thread count, returns
//! byte-identical verdicts AND witnesses to the single-threaded
//! `Strategy::Monolithic` reference — across the kv / set / composite
//! (register-array, counter-vector) / slin / phase corpora — plus a unit
//! check that [`SessionStrategy::Auto`] selects the partitioned path
//! exactly when a partitioner is present and the trace is switch-free.
//! (The partitioned path against the reference, with its node-count and
//! fallback guarantees, is `partition_differential`'s half.)

use proptest::prelude::*;
use slin_adt::{
    Adt, ConsInput, ConsOutput, Consensus, CounterVecPartitioner, CounterVector, KvInput,
    KvKeyPartitioner, KvOutput, KvStore, Partitioner, RegArrayPartitioner, RegisterArray, Set,
    SetElemPartitioner, Value,
};
use slin_core::gen::{
    random_multikey_counter_vec_trace, random_multikey_kv_trace, random_multikey_reg_array_trace,
    random_multikey_set_trace, MultiKeyConfig,
};
use slin_core::initrel::{ConsensusInit, ExactInit};
use slin_core::lin::LinChecker;
use slin_core::session::{Checker, Strategy as SessionStrategy};
use slin_core::slin::{SlinChecker, SlinError};
use slin_core::ObjAction;
use slin_trace::{Action, ClientId, PhaseId, Trace};

fn c(n: u32) -> ClientId {
    ClientId::new(n)
}

/// Generator parameters swept by the differential suites: friendly
/// (many keys, spread) through hostile (one key, or full contention),
/// linearizable and perturbed.
fn configs() -> impl Strategy<Value = MultiKeyConfig> {
    (
        1..=6u32,      // keys
        2..=4u32,      // clients
        8..=24usize,   // steps
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

/// Runs the full strategy sweep for one plain-linearizability workload:
/// the multi-threaded monolithic session, Auto (explicit and by default,
/// which must be exactly each other) and the unbounded-window streaming
/// session all reproduce the single-threaded monolithic reference byte
/// for byte.
fn assert_lin_session_parity<T, P>(
    adt: T,
    partitioner: P,
    t: &Trace<ObjAction<T, ()>>,
    ctx: &MultiKeyConfig,
) -> Result<(), TestCaseError>
where
    T: Adt + Clone + Sync,
    T::Input: Ord + Send + Sync,
    T::Output: Sync,
    P: Partitioner<T> + Copy,
{
    let builder = || Checker::builder(LinChecker::owned(adt.clone())).threads(4);
    let reference = builder()
        .strategy(SessionStrategy::Monolithic)
        .threads(1)
        .build()
        .check(t);

    let mut mono = builder().strategy(SessionStrategy::Monolithic).build();
    let vm = mono.check(t);
    prop_assert_eq!(&vm.outcome, &reference.outcome, "monolithic, cfg {:?}", ctx);
    prop_assert_eq!(vm.stats, reference.stats, "monolithic stats, cfg {:?}", ctx);
    prop_assert_eq!(vm.partition, None);

    let mut part = builder()
        .partitioner(partitioner)
        .strategy(SessionStrategy::Auto)
        .build();
    let vp = part.check(t);
    prop_assert!(vp.partition.is_some());

    // Auto resolves to partitioned here (partitioner + switch-free traces).
    let mut auto = builder().partitioner(partitioner).build();
    let va = auto.check(t);
    prop_assert_eq!(&va.outcome, &reference.outcome, "auto, cfg {:?}", ctx);
    prop_assert_eq!(&va, &vp, "auto is partitioned, cfg {:?}", ctx);

    // Streaming, unbounded window: ingest event by event, report at the
    // end — the monitor contract makes this byte-identical too.
    let mut live = builder()
        .partitioner(partitioner)
        .strategy(SessionStrategy::Streaming { window: None })
        .build();
    for a in t.iter() {
        live.ingest(a.clone());
    }
    let vs = live.check(&Trace::new());
    prop_assert_eq!(vs.partition, None);
    prop_assert_eq!(&vs.outcome, &reference.outcome, "streaming, cfg {:?}", ctx);
    Ok(())
}

/// Relabels a switch-free object trace's value type (the speculative
/// checker's trace type carries the `rinit` value even when no switch
/// occurs).
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
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// KV corpus: every strategy against the reference.
    #[test]
    fn kv_session_strategies_match_legacy(cfg in configs()) {
        let t = random_multikey_kv_trace(&cfg);
        assert_lin_session_parity(KvStore, KvKeyPartitioner, &t, &cfg)?;
    }

    /// Set corpus: the commuting-element ADT.
    #[test]
    fn set_session_strategies_match_legacy(cfg in configs()) {
        let t = random_multikey_set_trace(&cfg);
        assert_lin_session_parity(Set, SetElemPartitioner, &t, &cfg)?;
    }

    /// Composite corpora: per-cell register arrays and per-slot counter
    /// vectors.
    #[test]
    fn composite_session_strategies_match_legacy(cfg in configs()) {
        let ra = random_multikey_reg_array_trace(&cfg);
        assert_lin_session_parity(RegisterArray, RegArrayPartitioner, &ra, &cfg)?;
        let cv = random_multikey_counter_vec_trace(&cfg);
        assert_lin_session_parity(CounterVector, CounterVecPartitioner, &cv, &cfg)?;
    }

    /// Slin corpus (switch-free phase traces, where SLin coincides with
    /// Lin): the multi-threaded monolithic session is the reference byte
    /// for byte; the explicit partitioned session (whose `stats` measure
    /// the smaller partitioned work), Auto and Streaming reproduce the
    /// reference outcome, witness and error alike.
    #[test]
    fn slin_session_strategies_match_legacy(cfg in configs()) {
        let t: Trace<ObjAction<KvStore, Vec<KvInput>>> =
            retag(&random_multikey_kv_trace(&cfg));
        let builder = || Checker::builder(SlinChecker::owned(
            KvStore, ExactInit::new(), PhaseId::new(1), PhaseId::new(2),
        )).threads(4);
        let reference = builder()
            .strategy(SessionStrategy::Monolithic)
            .threads(1)
            .build()
            .check(&t);

        let mut mono = builder().strategy(SessionStrategy::Monolithic).build();
        let vm = mono.check(&t);
        prop_assert_eq!(&vm.outcome, &reference.outcome, "monolithic, cfg {:?}", cfg);
        prop_assert_eq!(vm.stats, reference.stats, "monolithic stats, cfg {:?}", cfg);

        let mut part = builder()
            .partitioner(KvKeyPartitioner)
            .strategy(SessionStrategy::Auto)
            .build();
        let vp = part.check(&t);
        prop_assert!(vp.partition.is_some());
        prop_assert_eq!(&vp.outcome, &reference.outcome, "partitioned, cfg {:?}", cfg);

        let mut auto = builder().partitioner(KvKeyPartitioner).build();
        let va = auto.check(&t);
        prop_assert_eq!(&va, &vp, "auto is partitioned, cfg {:?}", cfg);

        let mut live = builder()
            .partitioner(KvKeyPartitioner)
            .strategy(SessionStrategy::Streaming { window: None })
            .build();
        for a in t.iter() {
            live.ingest(a.clone());
        }
        let vs = live.check(&Trace::new());
        prop_assert_eq!(&vs.outcome, &reference.outcome, "streaming, cfg {:?}", cfg);
    }
}

/// Thread-count invariance of the partitioned session: the whole `Verdict`
/// — outcome, witness, `SearchStats`, partition report — is identical at
/// 1, 2 and 4 threads for both checkers, on traces that also run the full
/// strategy sweep against the monolithic reference.
#[test]
fn partitioned_sessions_are_thread_count_invariant() {
    let (mut accepted, mut refuted) = (0, 0);
    for error_prob in [0.0, 0.35] {
        for seed in 0..4 {
            let cfg = MultiKeyConfig {
                clients: 4,
                steps: 24,
                keys: 4,
                skew: 0.7,
                contention: 0.3,
                error_prob,
                seed,
            };
            let t = random_multikey_kv_trace(&cfg);
            assert_lin_session_parity(KvStore, KvKeyPartitioner, &t, &cfg)
                .unwrap_or_else(|e| panic!("{e:?}"));
            let lin = |threads| {
                Checker::builder(LinChecker::owned(KvStore))
                    .partitioner(KvKeyPartitioner)
                    .strategy(SessionStrategy::Auto)
                    .threads(threads)
                    .build()
                    .check(&t)
            };
            let st: Trace<ObjAction<KvStore, Vec<KvInput>>> = retag(&t);
            let slin = |threads| {
                let model =
                    SlinChecker::owned(KvStore, ExactInit::new(), PhaseId::new(1), PhaseId::new(2));
                Checker::builder(model)
                    .partitioner(KvKeyPartitioner)
                    .strategy(SessionStrategy::Auto)
                    .threads(threads)
                    .build()
                    .check(&st)
            };
            let (lin_ref, slin_ref) = (lin(1), slin(1));
            match &lin_ref.outcome {
                Ok(_) => accepted += 1,
                Err(_) => refuted += 1,
            }
            for threads in [2, 4] {
                assert_eq!(lin(threads), lin_ref, "{cfg:?} threads {threads}");
                assert_eq!(slin(threads), slin_ref, "{cfg:?} threads {threads}");
            }
        }
    }
    assert!(accepted > 0 && refuted > 0);
}

/// The hand-built consensus phase corpus: init/abort switch actions,
/// satisfied and violated, quorum and backup phases.
fn phase_corpus() -> Vec<Trace<ObjAction<Consensus, Value>>> {
    let p = ConsInput::propose;
    let d = ConsOutput::decide;
    vec![
        // Quorum phase: decide 1, switch with 1 (satisfied).
        Trace::from_actions(vec![
            Action::invoke(c(1), PhaseId::new(1), p(1)),
            Action::invoke(c(2), PhaseId::new(1), p(2)),
            Action::respond(c(1), PhaseId::new(1), p(1), d(1)),
            Action::switch(c(2), PhaseId::new(2), p(2), Value::new(1)),
        ]),
        // Quorum phase: decide 1, switch with 2 (violated).
        Trace::from_actions(vec![
            Action::invoke(c(1), PhaseId::new(1), p(1)),
            Action::invoke(c(2), PhaseId::new(1), p(2)),
            Action::respond(c(1), PhaseId::new(1), p(1), d(1)),
            Action::switch(c(2), PhaseId::new(2), p(2), Value::new(2)),
        ]),
        // No decisions: diverging switches are allowed.
        Trace::from_actions(vec![
            Action::invoke(c(1), PhaseId::new(1), p(1)),
            Action::invoke(c(2), PhaseId::new(1), p(2)),
            Action::switch(c(1), PhaseId::new(2), p(1), Value::new(2)),
            Action::switch(c(2), PhaseId::new(2), p(2), Value::new(1)),
        ]),
    ]
}

/// Phase corpus (switch actions present): every strategy agrees with the
/// single-threaded monolithic reference — Auto must resolve to monolithic,
/// and the streaming session must go speculative and still report
/// identically.
#[test]
fn phase_corpus_session_strategies_match_legacy() {
    let builder = || {
        Checker::builder(SlinChecker::owned(
            Consensus,
            ConsensusInit::new(),
            PhaseId::new(1),
            PhaseId::new(2),
        ))
        .threads(4)
    };
    for t in &phase_corpus() {
        let reference = builder()
            .strategy(SessionStrategy::Monolithic)
            .threads(1)
            .build()
            .check(t)
            .outcome;

        let mut auto = builder().build();
        let va = auto.check(t);
        assert_eq!(va.partition, None, "{t:?}");
        assert_eq!(va.outcome, reference, "{t:?}");

        let mut live = builder()
            .strategy(SessionStrategy::Streaming { window: None })
            .build();
        for a in t.iter() {
            live.ingest(a.clone());
        }
        let vs = live.check(&Trace::new());
        assert_eq!(vs.outcome, reference, "{t:?}");
    }
}

/// The [`SessionStrategy::Auto`] selection rule, pinned: partitioned exactly when
/// a partitioner is present AND the trace is switch-free.
#[test]
fn auto_selects_partitioned_exactly_when_partitioner_and_switch_free() {
    let ph1 = PhaseId::FIRST;
    let switch_free: Trace<ObjAction<KvStore, ()>> = Trace::from_actions(vec![
        Action::invoke(c(1), ph1, KvInput::Put(1, 5)),
        Action::respond(c(1), ph1, KvInput::Put(1, 5), KvOutput::Ack),
    ]);
    let with_switch: Trace<ObjAction<KvStore, ()>> = Trace::from_actions(vec![
        Action::invoke(c(1), ph1, KvInput::Put(1, 5)),
        Action::switch(c(1), PhaseId::new(2), KvInput::Put(1, 5), ()),
    ]);

    // Partitioner + switch-free => partitioned.
    let mut s = Checker::builder(LinChecker::owned(KvStore))
        .partitioner(KvKeyPartitioner)
        .build();
    assert!(s.check(&switch_free).partition.is_some());

    // Partitioner + switch action => monolithic.
    assert_eq!(s.check(&with_switch).partition, None);

    // No partitioner => monolithic, even on switch-free traces.
    let mut bare = Checker::builder(LinChecker::owned(KvStore)).build();
    assert_eq!(bare.check(&switch_free).partition, None);

    // An explicit Monolithic is never overridden by Auto's rule.
    let mut forced = Checker::builder(LinChecker::owned(KvStore))
        .partitioner(KvKeyPartitioner)
        .strategy(SessionStrategy::Monolithic)
        .build();
    assert_eq!(forced.check(&switch_free).partition, None);
}

/// Builder knobs reach the check: a one-node budget trips the session's
/// search at every thread bound alike, and `threads(1)` reads what the
/// default bound reads, byte for byte.
#[test]
fn builder_budget_and_threads_reach_the_model() {
    let t: Trace<ObjAction<Consensus, Value>> = Trace::from_actions(vec![
        Action::invoke(c(1), PhaseId::new(1), ConsInput::propose(1)),
        Action::invoke(c(2), PhaseId::new(1), ConsInput::propose(2)),
        Action::respond(
            c(1),
            PhaseId::new(1),
            ConsInput::propose(1),
            ConsOutput::decide(1),
        ),
        Action::respond(
            c(2),
            PhaseId::new(1),
            ConsInput::propose(2),
            ConsOutput::decide(1),
        ),
    ]);
    let model = || {
        SlinChecker::owned(
            Consensus,
            ConsensusInit::new(),
            PhaseId::new(1),
            PhaseId::new(2),
        )
    };

    for threads in [1, 2] {
        let mut tight = Checker::builder(model()).budget(1).threads(threads).build();
        let verdict = tight.check(&t);
        assert_eq!(
            verdict.outcome,
            Err(SlinError::BudgetExhausted { nodes: 2 })
        );
        assert_eq!(verdict.stats.nodes, 2, "{threads} threads");
    }

    let seq = Checker::builder(model()).threads(1).build().check(&t);
    assert!(seq.outcome.is_ok());
    assert_eq!(seq, Checker::builder(model()).build().check(&t));
}

/// Ownership parity: two checkers built apart, each owning its ADT (a
/// unit struct, so the `Arc` they hold it behind shares for free), produce
/// byte-identical verdicts, witnesses, and stats across all strategies —
/// how a model holds its ADT never changes behaviour.
#[test]
fn owned_and_shared_constructors_are_byte_identical() {
    for seed in [0u64, 11, 23, 47] {
        for error_prob in [0.0, 0.35] {
            let cfg = MultiKeyConfig {
                keys: 4,
                clients: 3,
                steps: 22,
                error_prob,
                seed,
                ..Default::default()
            };
            let t = random_multikey_kv_trace(&cfg);
            for strategy in [
                SessionStrategy::Auto,
                SessionStrategy::Monolithic,
                SessionStrategy::Streaming { window: None },
            ] {
                let run = |chk: LinChecker<KvStore>| {
                    let mut s = Checker::builder(chk)
                        .partitioner(KvKeyPartitioner)
                        .strategy(strategy)
                        .build();
                    s.check(&t)
                };
                let owned = run(LinChecker::owned(KvStore));
                let shared = run(LinChecker::owned(KvStore));
                assert_eq!(
                    owned.outcome, shared.outcome,
                    "seed {seed} error {error_prob} {strategy:?}"
                );
                assert_eq!(owned.stats, shared.stats);
                assert_eq!(owned.partition, shared.partition);
            }
            // The speculative checker, same contract.
            let t2: Trace<ObjAction<KvStore, Vec<KvInput>>> = retag(&t);
            let owned =
                SlinChecker::owned(KvStore, ExactInit::new(), PhaseId::new(1), PhaseId::new(2))
                    .check(&t2);
            let shared =
                SlinChecker::owned(KvStore, ExactInit::new(), PhaseId::new(1), PhaseId::new(2))
                    .check(&t2);
            assert_eq!(owned, shared, "slin seed {seed} error {error_prob}");
        }
    }
}

/// The poll/lossy session surface: `poll_verdict` tracks the rolling
/// status without consuming state (and baselines at `Ok`), and the
/// builder's `window`/`gc_policy` knobs reach the monitor.
#[test]
fn poll_verdict_tracks_status_without_consuming() {
    use slin_core::stream::{GcPolicy, MonitorStatus};
    let ph1 = PhaseId::FIRST;
    let mut s = Checker::builder(LinChecker::owned(KvStore))
        .partitioner(KvKeyPartitioner)
        .strategy(SessionStrategy::Streaming { window: None })
        .build::<()>();

    // Fresh session: Ok, unchanged, zero events.
    let d0 = s.poll_verdict();
    assert_eq!(d0.status, MonitorStatus::Ok);
    assert!(!d0.changed);
    assert_eq!(d0.events, 0);

    s.ingest(Action::invoke(c(1), ph1, KvInput::Put(1, 5)));
    s.ingest(Action::respond(
        c(1),
        ph1,
        KvInput::Put(1, 5),
        KvOutput::Ack,
    ));
    let d1 = s.poll_verdict();
    assert_eq!(d1.status, MonitorStatus::Ok);
    assert!(!d1.changed, "healthy streams never report a change");
    assert_eq!(d1.events, 2);

    // A stale read flips the status exactly once.
    s.ingest(Action::invoke(c(1), ph1, KvInput::Get(1)));
    s.ingest(Action::respond(
        c(1),
        ph1,
        KvInput::Get(1),
        KvOutput::Found(None),
    ));
    let d2 = s.poll_verdict();
    assert_eq!(d2.status, MonitorStatus::Violation);
    assert!(d2.changed);
    let d3 = s.poll_verdict();
    assert_eq!(d3.status, MonitorStatus::Violation);
    assert!(!d3.changed, "no edge on a steady status");

    // Polling consumed nothing: the full report is still available and
    // matches the batch verdict.
    let report = s.report().expect("streaming session");
    assert_eq!(report.events, 4);
    assert!(report.verdict.is_err());

    // Builder knobs: a windowed session with a lossy GC policy still
    // accepts a clean stream, and `window` engages the GC.
    let mut windowed = Checker::builder(LinChecker::owned(KvStore))
        .partitioner(KvKeyPartitioner)
        .window(4)
        .gc_policy(GcPolicy::lossy())
        .build::<()>();
    for round in 0..40u64 {
        windowed.ingest(Action::invoke(c(1), ph1, KvInput::Put(1, round)));
        windowed.ingest(Action::respond(
            c(1),
            ph1,
            KvInput::Put(1, round),
            KvOutput::Ack,
        ));
    }
    let delta = windowed.poll_verdict();
    assert_eq!(delta.status, MonitorStatus::Ok);
    assert_eq!(delta.events, 80);
    let report = windowed.report().unwrap();
    assert!(report.prefix_committed, "window knob reached the monitor");
}

/// Documented precedence: `SessionBuilder::window` wins over the window
/// embedded in `Strategy::Streaming`, in both directions.
#[test]
fn builder_window_wins_over_the_strategy_window() {
    let ph1 = PhaseId::FIRST;
    for (builder_window, strategy_window, gc_engages) in [(4, 10_000, true), (10_000, 4, false)] {
        let mut s = Checker::builder(LinChecker::owned(KvStore))
            .partitioner(KvKeyPartitioner)
            .strategy(SessionStrategy::Streaming {
                window: Some(strategy_window),
            })
            .window(builder_window)
            .build::<()>();
        for round in 0..40u64 {
            s.ingest(Action::invoke(c(1), ph1, KvInput::Put(1, round)));
            s.ingest(Action::respond(
                c(1),
                ph1,
                KvInput::Put(1, round),
                KvOutput::Ack,
            ));
        }
        let report = s.report().unwrap();
        assert!(report.verdict.is_ok());
        assert_eq!(
            report.prefix_committed, gc_engages,
            "builder window {builder_window} vs strategy window {strategy_window}"
        );
    }
}

/// Without a partitioner there is no per-key path to leave: a streaming
/// session routes every event to its one shard and names no fallback,
/// exactly as the batch check of the same trace reports none.
#[test]
fn a_partitionerless_stream_reports_no_fallback_like_its_batch_check() {
    let ph1 = PhaseId::FIRST;
    let t: Trace<ObjAction<KvStore, ()>> = Trace::from_actions(vec![
        Action::invoke(c(1), ph1, KvInput::Put(1, 1)),
        Action::respond(c(1), ph1, KvInput::Put(1, 1), KvOutput::Ack),
    ]);
    let batch = Checker::builder(LinChecker::owned(KvStore))
        .build()
        .check(&t);
    assert_eq!(batch.partition, None);

    let mut s = Checker::builder(LinChecker::owned(KvStore))
        .strategy(SessionStrategy::Streaming { window: None })
        .build::<()>();
    for a in t.iter() {
        s.ingest(a.clone());
        assert_eq!(s.fallback(), None);
    }
    let report = s.report().unwrap();
    assert_eq!(report.fallback, None);
    assert_eq!(report.shards, 1);
    assert_eq!(report.verdict, batch.outcome);
    assert_eq!(report.stats, batch.stats);
}
