//! Partitioned-vs-monolithic differential tests.
//!
//! The P-compositional path (`Strategy::Auto` with a partitioner) promises
//! **byte-identical verdicts and witnesses** to the monolithic chain
//! search, while expanding fewer nodes. These suites pin that promise
//! against the single-threaded `Strategy::Monolithic` reference over the
//! multi-key workload generators (pinned proptest seeds — see
//! `PINNED_SEED`), for both the plain and the speculative checker, and
//! prove partition-hostile traces are checked whole: unclassifiable inputs
//! engage the identity fallback, uncertified switch actions do not
//! decompose at all. The other strategies (Streaming, multi-threaded
//! Monolithic) are swept by `session_differential`.

use proptest::prelude::*;
use slin_adt::{
    Adt, ConsInput, ConsOutput, Consensus, IdentityPartitioner, KvInput, KvKeyPartitioner,
    KvOutput, KvStore, Partitioner, SetElemPartitioner, Value,
};
use slin_core::gen::{random_multikey_kv_trace, random_multikey_set_trace, MultiKeyConfig};
use slin_core::initrel::{ConsensusInit, ExactInit};
use slin_core::lin::{witness_is_valid, LinChecker};
use slin_core::model::ConsistencyModel;
use slin_core::partition::FallbackReason;
use slin_core::session::Strategy::{Auto, Monolithic};
use slin_core::session::{Checker, Strategy as SessionStrategy, StrategyUsed, Verdict};
use slin_core::slin::SlinChecker;
use slin_core::ObjAction;
use slin_trace::{Action, ClientId, PhaseId, Trace};

fn c(n: u32) -> ClientId {
    ClientId::new(n)
}

/// One batch check through the session facade. The reference every suite
/// compares against is `(IdentityPartitioner, Monolithic, 1 thread)`: one
/// single-threaded monolithic chain search.
fn check<M, V, P>(
    model: M,
    partitioner: P,
    strategy: SessionStrategy,
    threads: usize,
    t: &Trace<ObjAction<M::Adt, V>>,
) -> Verdict<M::Witness, M::Error>
where
    M: ConsistencyModel<V>,
    <M::Adt as Adt>::Input: Ord,
    V: Clone + PartialEq,
    P: Partitioner<M::Adt>,
{
    Checker::builder(model)
        .partitioner(partitioner)
        .strategy(strategy)
        .threads(threads)
        .build()
        .check(t)
}

/// Generator parameters swept by the differential suites: friendly
/// (many keys, spread) through hostile (one key, or full contention),
/// linearizable and perturbed.
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
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// Plain checker, `KvStore`: the partitioned verdict and witness are
    /// byte-identical to the monolithic ones on every generated workload.
    #[test]
    fn kv_partitioned_matches_monolithic(cfg in configs()) {
        let t = random_multikey_kv_trace(&cfg);
        let mono = check(LinChecker::owned(KvStore), IdentityPartitioner, Monolithic, 1, &t);
        let part = check(LinChecker::owned(KvStore), KvKeyPartitioner, Auto, 4, &t);
        let report = part.partition.expect("partitioned verdicts carry a report");
        prop_assert_eq!(&part.outcome, &mono.outcome, "cfg {:?}", cfg);
        prop_assert_eq!(format!("{:?}", part.outcome), format!("{:?}", mono.outcome));
        if let Ok(w) = &part.outcome {
            prop_assert!(witness_is_valid(&KvStore, &t, w), "cfg {:?}", cfg);
        }
        // Multi-partition traces must never expand more nodes than the
        // monolithic search unless the merge had to re-run it.
        if report.partitions > 1 && !report.remerged {
            prop_assert!(report.stats.nodes <= mono.stats.nodes, "cfg {:?}", cfg);
        }
    }

    /// Plain checker, `Set`: same contract on the commuting-element ADT.
    #[test]
    fn set_partitioned_matches_monolithic(cfg in configs()) {
        let t = random_multikey_set_trace(&cfg);
        let mono = check(LinChecker::owned(slin_adt::Set), IdentityPartitioner, Monolithic, 1, &t);
        let part = check(LinChecker::owned(slin_adt::Set), SetElemPartitioner, Auto, 3, &t);
        prop_assert_eq!(&part.outcome, &mono.outcome, "cfg {:?}", cfg);
        if let Ok(w) = &part.outcome {
            prop_assert!(witness_is_valid(&slin_adt::Set, &t, w), "cfg {:?}", cfg);
        }
    }

    /// Speculative checker on switch-free phase traces (where SLin
    /// coincides with Lin, Theorem 2): partitioned witnesses and verdict
    /// variants match the monolithic ones.
    #[test]
    fn slin_partitioned_matches_monolithic_on_switch_free_traces(cfg in configs()) {
        let t: Trace<ObjAction<KvStore, Vec<KvInput>>> =
            retag(&random_multikey_kv_trace(&cfg));
        let chk = SlinChecker::owned(KvStore, ExactInit::new(), PhaseId::new(1), PhaseId::new(2));
        let mono = check(chk.clone(), IdentityPartitioner, Monolithic, 1, &t).outcome;
        let part = check(chk, KvKeyPartitioner, Auto, 4, &t).outcome;
        // Witnesses byte-identical; `interpretations_checked`/`stats`
        // measure work, which partitioning reduces by design.
        prop_assert_eq!(
            part.as_ref().map(|r| &r.witness),
            mono.as_ref().map(|r| &r.witness),
            "cfg {:?}", cfg
        );
        prop_assert_eq!(
            part.as_ref().err(),
            mono.as_ref().err(),
            "cfg {:?}", cfg
        );
    }
}

/// The identity partitioner engages the fallback: one partition, and the
/// whole result — including the engine statistics — is byte-identical to
/// the monolithic path.
#[test]
fn identity_partitioner_falls_back_to_the_monolithic_path() {
    let cfg = MultiKeyConfig {
        keys: 5,
        seed: 42,
        ..Default::default()
    };
    let t = random_multikey_kv_trace(&cfg);
    let mono = check(
        LinChecker::owned(KvStore),
        IdentityPartitioner,
        Monolithic,
        1,
        &t,
    );
    let part = check(LinChecker::owned(KvStore), IdentityPartitioner, Auto, 4, &t);
    let report = part.partition.expect("partitioned verdicts carry a report");
    assert_eq!(
        report.fallback,
        Some(FallbackReason::UnclassifiableInput),
        "identity fallback must engage"
    );
    assert_eq!(report.partitions, 1);
    assert!(!report.remerged);
    assert_eq!(part.outcome, mono.outcome);
    assert_eq!(
        report.stats, mono.stats,
        "fallback is the monolithic search"
    );
}

/// A partition-hostile speculative trace — switch actions couple the
/// classes through `rinit` — does not decompose without a switch
/// certificate, even under a keyed partitioner: `Auto` checks it whole,
/// and the verdict is byte-identical to the monolithic check.
#[test]
fn switch_actions_engage_the_identity_fallback() {
    let ph1 = PhaseId::new(1);
    let t: Trace<ObjAction<KvStore, Vec<KvInput>>> = Trace::from_actions(vec![
        Action::invoke(c(1), ph1, KvInput::Put(1, 5)),
        Action::respond(c(1), ph1, KvInput::Put(1, 5), KvOutput::Ack),
        Action::invoke(c(2), ph1, KvInput::Get(2)),
        Action::switch(
            c(2),
            PhaseId::new(2),
            KvInput::Get(2),
            vec![KvInput::Put(1, 5)],
        ),
    ]);
    let chk = SlinChecker::owned(KvStore, ExactInit::new(), ph1, PhaseId::new(2));
    let auto = check(chk.clone(), KvKeyPartitioner, Auto, 4, &t);
    assert_eq!(
        auto.partition, None,
        "an uncertified switch action must not decompose"
    );
    assert_eq!(auto.strategy, StrategyUsed::Monolithic);
    let mono = check(chk, IdentityPartitioner, Monolithic, 1, &t);
    assert_eq!(auto.outcome, mono.outcome);
}

/// The consensus protocol traces are inherently non-partitionable (every
/// proposal contends on one decision) and carry uncertified switch
/// actions: `Auto` checks them whole under the identity partitioner,
/// violations included.
#[test]
fn consensus_phase_traces_fall_back_and_agree() {
    let ph1 = PhaseId::new(1);
    let traces: Vec<Trace<ObjAction<Consensus, Value>>> = vec![
        // Speculatively linearizable: decide 1, switch with 1.
        Trace::from_actions(vec![
            Action::invoke(c(1), ph1, ConsInput::propose(1)),
            Action::invoke(c(2), ph1, ConsInput::propose(2)),
            Action::respond(c(1), ph1, ConsInput::propose(1), ConsOutput::decide(1)),
            Action::switch(c(2), PhaseId::new(2), ConsInput::propose(2), Value::new(1)),
        ]),
        // Violation: decide 1 but switch with 2.
        Trace::from_actions(vec![
            Action::invoke(c(1), ph1, ConsInput::propose(1)),
            Action::invoke(c(2), ph1, ConsInput::propose(2)),
            Action::respond(c(1), ph1, ConsInput::propose(1), ConsOutput::decide(1)),
            Action::switch(c(2), PhaseId::new(2), ConsInput::propose(2), Value::new(2)),
        ]),
    ];
    let chk = SlinChecker::owned(Consensus, ConsensusInit::new(), ph1, PhaseId::new(2));
    for t in &traces {
        let auto = check(chk.clone(), IdentityPartitioner, Auto, 4, t);
        assert_eq!(auto.partition, None, "{t:?}");
        assert_eq!(auto.strategy, StrategyUsed::Monolithic, "{t:?}");
        let mono = check(chk.clone(), IdentityPartitioner, Monolithic, 1, t);
        assert_eq!(auto.outcome, mono.outcome, "{t:?}");
    }
}

/// The acceptance-criterion speedup, end to end: on a partition-friendly
/// multi-key workload the partitioned search expands at most half the
/// nodes of the monolithic one, with an identical witness.
#[test]
fn partitioning_halves_the_node_count_on_multikey_workloads() {
    let cfg = MultiKeyConfig {
        clients: 5,
        steps: 48,
        keys: 8,
        skew: 0.3,
        contention: 0.0,
        error_prob: 0.0,
        seed: 7,
    };
    let t = random_multikey_kv_trace(&cfg);
    let mono = check(
        LinChecker::owned(KvStore),
        IdentityPartitioner,
        Monolithic,
        1,
        &t,
    );
    let part = check(LinChecker::owned(KvStore), KvKeyPartitioner, Auto, 4, &t);
    let report = part.partition.expect("partitioned verdicts carry a report");
    assert_eq!(part.outcome, mono.outcome);
    assert!(report.partitions > 1);
    assert!(
        mono.stats.nodes >= 2 * report.stats.nodes,
        "expected >= 2x node reduction: mono {} vs partitioned {}",
        mono.stats.nodes,
        report.stats.nodes
    );
}
