//! End-to-end checks of the `slin-analyze` certification pipeline: the
//! analyzer's verdicts, the replayability of its counterexamples as real
//! checker divergences, and the session door switch certificates come
//! through (`SessionBuilder::switch_certified`).
//!
//! Positive half: every shipped per-key partitioner certifies at the
//! default depth (≥ 4), partitioner contract and switch independence, and
//! the eight certificates are byte for byte the files committed under
//! `analysis/certs/` — integrity, coverage, the depth floor and freshness
//! in one comparison. Negative half: every fixture in
//! `slin_analysis::fixtures` is rejected by both analyses with a
//! counterexample of length ≤ 4, and the [`BogusCounterPartitioner`] one
//! replays as an actual partitioned-vs-monolithic verdict divergence —
//! the analyzer's rejections are about real unsoundness, not artifacts of
//! its encoding.

use slin_adt::{
    Consensus, Counter, CounterInput, CounterVecPartitioner, CounterVector, KvInput,
    KvKeyPartitioner, KvStore, Partitioner, Queue, RegArrayPartitioner, RegisterArray, Set,
    SetElemPartitioner, Stack,
};
use slin_analysis::fixtures::{
    BogusCounterPartitioner, ConsProposalPartitioner, QueueValuePartitioner, StackValuePartitioner,
};
use slin_analysis::{
    certify, certify_switch, AnalyzeConfig, AnalyzeFailure, CertError, Counterexample,
    SwitchCounterexample, SwitchFailure,
};
use slin_core::initrel::{CandidateContext, ExactInit, InitRelation};
use slin_core::lin::LinChecker;
use slin_core::session::{Checker, Strategy};
use slin_core::slin::SlinChecker;
use slin_trace::PhaseId;

fn rejection<T, P>(adt: &T, p: &P) -> Counterexample<T>
where
    T: slin_adt::DomainSpec + std::fmt::Debug,
    P: Partitioner<T>,
{
    match certify(adt, p, &AnalyzeConfig::default()) {
        Err(AnalyzeFailure::Unsound(cex)) => cex,
        other => panic!("expected a counterexample, got {other:?}"),
    }
}

fn switch_rejection<T, P>(adt: &T, p: &P) -> SwitchCounterexample<T>
where
    T: slin_adt::DomainSpec + std::fmt::Debug,
    P: Partitioner<T>,
{
    match certify_switch(adt, p, &AnalyzeConfig::default()) {
        Err(SwitchFailure::Unsound(cex)) => cex,
        other => panic!("expected a switch counterexample, got {other:?}"),
    }
}

/// All four shipped per-key partitioners certify at depth ≥ 4, both
/// contracts, and regenerating the eight certificates reproduces the
/// committed files byte for byte — JSON rendering included — with no
/// ninth file beside them. A hand-edited hash, a missing or stray file, a
/// shallower depth and a stale certificate all fail here.
#[test]
fn shipped_partitioners_certify_deterministically() {
    let cfg = AnalyzeConfig::default();
    assert!(cfg.depth >= 4, "default depth regressed below 4");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../analysis/certs");
    let mut fresh = std::collections::BTreeSet::new();

    macro_rules! pin {
        ($adt:expr, $p:expr) => {{
            let v1 = certify(&$adt, &$p, &cfg).expect("shipped partitioner must certify");
            let v2 = certify_switch(&$adt, &$p, &cfg).expect("shipped partitioner must certify");
            assert_eq!((v1.depth, v2.depth), (cfg.depth, cfg.depth));
            assert!(
                v1.verify() && v2.verify(),
                "certificate hash does not verify"
            );
            for (name, json) in [
                (v1.file_name(), v1.to_json()),
                (v2.file_name(), v2.to_json()),
            ] {
                let committed = std::fs::read_to_string(dir.join(&name)).unwrap_or_default();
                assert!(
                    committed == json,
                    "analysis/certs/{name} is not what the analyzer writes:\n{json}\n\
                     rewrite it with `cargo run -p slin-analysis --bin slin-analyze`"
                );
                fresh.insert(name);
            }
        }};
    }
    pin!(KvStore, KvKeyPartitioner);
    pin!(Set, SetElemPartitioner);
    pin!(RegisterArray, RegArrayPartitioner);
    pin!(CounterVector, CounterVecPartitioner);

    let committed: std::collections::BTreeSet<String> = std::fs::read_dir(&dir)
        .expect("analysis/certs is committed")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(committed, fresh, "analysis/certs holds exactly the eight");
}

/// The unsound-partitioner discriminator shared with
/// `tests/tests/partitioner_contract.rs` is rejected with a
/// counterexample of ≤ 4 inputs whose replay *actually diverges*: the
/// sequential trace it builds passes the monolithic checker and fails the
/// partitioned one under the bogus partitioner.
#[test]
fn bogus_counter_rejection_replays_as_a_checker_divergence() {
    let cex = rejection(&Counter, &BogusCounterPartitioner);
    assert!(cex.len() <= 4, "counterexample too long: {}", cex.len());
    // The counterexample must actually exercise the cross-key interaction.
    let inputs = cex.inputs();
    assert!(inputs.contains(&CounterInput::Increment));
    assert!(inputs.contains(&CounterInput::Read));

    let trace = cex.to_trace(&Counter);
    assert_eq!(trace.len(), cex.len() * 2);

    let mono = Checker::builder(LinChecker::owned(Counter))
        .strategy(Strategy::Monolithic)
        .build::<()>()
        .check(&trace);
    assert!(mono.is_ok(), "replay must be monolithically linearizable");
    assert_eq!(mono.partition, None);

    let split = Checker::builder(LinChecker::owned(Counter))
        .partitioner(BogusCounterPartitioner)
        .build::<()>()
        .check(&trace);
    assert!(
        !split.is_ok(),
        "partitioned checking under the unsound partitioner must diverge"
    );
    assert!(split.partition.is_some());
}

/// Every negative fixture — one per coupled ADT family — is rejected
/// with a short, shrunk counterexample, by the partitioner contract and
/// by switch independence.
#[test]
fn every_unsound_fixture_is_rejected() {
    macro_rules! rejected {
        ($adt:expr, $p:expr) => {{
            assert!(rejection(&$adt, &$p).len() <= 4);
            assert!(switch_rejection(&$adt, &$p).len() <= 4);
        }};
    }
    rejected!(Counter, BogusCounterPartitioner);
    rejected!(Queue, QueueValuePartitioner);
    rejected!(Stack, StackValuePartitioner);
    rejected!(Consensus, ConsProposalPartitioner);
}

/// Switch-certificate misuse is caught: a tampered certificate fails the
/// hash check, a certificate for the wrong partitioner fails at install,
/// and a certificate for the wrong ADT or the wrong init relation fails at
/// build.
#[test]
fn mismatched_certificates_are_rejected() {
    let v2 = certify_switch(&KvStore, &KvKeyPartitioner, &AnalyzeConfig::default()).unwrap();
    fn phase<R: InitRelation<KvInput>>(rinit: R) -> SlinChecker<KvStore, R> {
        SlinChecker::owned(KvStore, rinit, PhaseId::FIRST, PhaseId::new(2))
    }
    let mut forged = v2.clone();
    forged.switch_values += 1;
    assert!(matches!(
        Checker::builder(phase(ExactInit::new()))
            .partitioner(KvKeyPartitioner)
            .switch_certified(&forged),
        Err(CertError::BadHash)
    ));
    assert!(matches!(
        Checker::builder(SlinChecker::owned(
            Set,
            ExactInit::new(),
            PhaseId::FIRST,
            PhaseId::new(2)
        ))
        .partitioner(SetElemPartitioner)
        .switch_certified(&v2),
        Err(CertError::PartitionerMismatch { .. })
    ));
    // Right partitioner *name*, wrong ADT → AdtMismatch at build. The
    // impostor shares the shipped partitioner's short type name (the last
    // path segment), so the install-time name check passes and only the
    // ADT check can save us.
    mod impostor {
        use slin_adt::{Counter, CounterInput, Partitioner};
        #[derive(Debug, Clone, Copy)]
        pub(super) struct KvKeyPartitioner;
        impl Partitioner<Counter> for KvKeyPartitioner {
            type Key = u8;
            fn key_of(&self, _input: &CounterInput) -> Option<u8> {
                Some(0)
            }
        }
    }
    let built = Checker::builder(SlinChecker::owned(
        Counter,
        ExactInit::new(),
        PhaseId::FIRST,
        PhaseId::new(2),
    ))
    .partitioner(impostor::KvKeyPartitioner)
    .switch_certified(&v2)
    .expect("name matches, so install succeeds")
    .try_build::<Vec<CounterInput>>();
    assert!(matches!(
        built,
        Err(CertError::AdtMismatch { ref expected, ref found })
            if expected == "Counter" && found == "KvStore"
    ));
    // A certificate is keyed by the relation it was proved for: the same
    // histories under another relation's name do not let switch actions
    // decompose.
    #[derive(Debug, Clone, Copy)]
    struct OtherInit;
    impl InitRelation<KvInput> for OtherInit {
        type Value = Vec<KvInput>;
        fn contains(&self, value: &Vec<KvInput>, history: &[KvInput]) -> bool {
            ExactInit::new().contains(value, history)
        }
        fn candidates(
            &self,
            value: &Vec<KvInput>,
            ctx: &CandidateContext<KvInput>,
        ) -> Vec<Vec<KvInput>> {
            ExactInit::new().candidates(value, ctx)
        }
    }
    let built = Checker::builder(phase(OtherInit))
        .partitioner(KvKeyPartitioner)
        .switch_certified(&v2)
        .expect("hash and partitioner name match, so install succeeds")
        .try_build::<Vec<KvInput>>();
    assert!(matches!(
        built,
        Err(CertError::RelationMismatch { ref expected, ref found })
            if expected == "OtherInit" && found == "ExactInit"
    ));
}
