//! Phase-trace differential corpora: the **keyed** speculative paths
//! (certified batch partitioning, and the streaming monitor's per-class
//! re-checks across switch actions) against the monolithic chain search.
//!
//! With a valid switch-independence certificate (`slin-cert/v2`) a phase
//! trace decomposes: the checker classifies switch actions per
//! independence class instead of checking the trace whole; verdicts **and
//! witnesses** must stay byte-identical to the monolithic path with zero
//! fallbacks. The negative
//! fixture pins the other side of the contract: a partitioner the analyzer
//! rejects yields a ≤4-input counterexample whose replay *diverges*
//! keyed-vs-monolithic — exactly the unsoundness the certificate refusal
//! predicts.

use slin_adt::{Counter, KvInput, KvKeyPartitioner, KvStore};
use slin_analysis::fixtures::BogusCounterPartitioner;
use slin_analysis::{certify_switch, AnalyzeConfig, SwitchCert, SwitchFailure};
use slin_core::gen::{phase_trace_bounds, random_phase_kv_trace, PhaseConfig};
use slin_core::initrel::ExactInit;
use slin_core::model::ConsistencyModel;
use slin_core::session::{Checker, Session, Strategy, Verdict};
use slin_core::slin::{SlinChecker, SlinError, SlinWitness};
use slin_core::stream::MonitorStatus;
use slin_obs::{EngineSearchEvent, Obs, Observer};
use slin_trace::PhaseId;
use std::sync::{Arc, Mutex};

fn phase_checker() -> PhaseChecker {
    let (m, n) = phase_trace_bounds();
    SlinChecker::owned(KvStore, ExactInit::new(), m, n)
}

type PhaseChecker = SlinChecker<KvStore, ExactInit>;

fn switch_cert() -> SwitchCert {
    certify_switch(&KvStore, &KvKeyPartitioner, &AnalyzeConfig::default())
        .expect("the shipped kv partitioner is switch-independent")
}

/// A session born streaming, keyed the only way a session can be: by
/// installing the analyzer's switch certificate.
fn keyed_stream(
    cert: &SwitchCert,
    obs: Obs,
) -> Session<PhaseChecker, Vec<KvInput>, KvKeyPartitioner> {
    Checker::builder(phase_checker())
        .partitioner(KvKeyPartitioner)
        .switch_certified(cert)
        .expect("certificate covers (KvStore, KvKeyPartitioner, ExactInit)")
        .strategy(Strategy::Streaming { window: None })
        .observer(obs)
        .build()
}

/// The keyed batch check of `t`: the phase checker in a session holding
/// `cert` and bounded to `threads` threads, under [`Strategy::Auto`] — a
/// certificate is what lets a phase trace decompose.
fn keyed_check(
    threads: usize,
    cert: &SwitchCert,
    t: &slin_trace::Trace<PhaseAction>,
) -> Verdict<SlinWitness<KvInput>, SlinError> {
    Checker::builder(phase_checker())
        .partitioner(KvKeyPartitioner)
        .switch_certified(cert)
        .expect("certificate covers (KvStore, KvKeyPartitioner, ExactInit)")
        .threads(threads)
        .build()
        .check(t)
}

/// The certified-partitioned corpus: linearizable and perturbed phase
/// traces over several seeds. Keyed batch verdicts and witnesses are
/// byte-identical to the monolithic ones; on the well-formed corpus the
/// keyed path never falls back to the monolithic search.
#[test]
fn keyed_batch_is_byte_identical_to_monolithic_on_phase_traces() {
    let chk = phase_checker();
    let cert = switch_cert();
    for error_prob in [0.0, 0.5] {
        for seed in 0..8u64 {
            let cfg = PhaseConfig {
                error_prob,
                seed,
                ..Default::default()
            };
            let t = random_phase_kv_trace(&cfg);
            assert!(t.iter().any(|a| a.is_switch()), "corpus must cross phases");
            let mono = chk.check(&t);
            let sv = keyed_check(0, &cert, &t);
            // Witnesses and errors byte-identical: the work the keyed
            // path reshapes by design is the verdict's `stats` alone.
            assert_eq!(sv.outcome, mono, "seed {seed} error {error_prob}");
            assert_eq!(
                format!("{:?}", sv.outcome),
                format!("{mono:?}"),
                "witness bytes must match: seed {seed} error {error_prob}"
            );
            if error_prob == 0.0 {
                assert_eq!(
                    sv.partition.expect("partitioned runs report").fallback,
                    None,
                    "certified corpus must never fall back: seed {seed}"
                );
                assert!(mono.is_ok(), "corpus is slin by construction: seed {seed}");
            }
        }
    }
}

/// Streaming across switches: a keyed monitor re-checks its record per
/// class past the first switch and reports byte-identically to the batch
/// check, with no fallback engaged.
#[test]
fn keyed_streaming_across_switches_matches_batch() {
    let chk = phase_checker();
    let cert = switch_cert();
    for error_prob in [0.0, 0.5] {
        for seed in 0..6u64 {
            let cfg = PhaseConfig {
                error_prob,
                seed,
                ..Default::default()
            };
            let t = random_phase_kv_trace(&cfg);
            let mut mon = keyed_stream(&cert, Obs::noop());
            for a in t.iter() {
                mon.ingest(a.clone());
            }
            let report = mon.report().unwrap();
            let batch = chk.check(&t);
            assert_eq!(report.verdict, batch, "seed {seed} error {error_prob}");
            assert_eq!(
                format!("{:?}", report.verdict),
                format!("{batch:?}"),
                "streamed witness bytes must match: seed {seed} error {error_prob}"
            );
            if error_prob == 0.0 {
                assert_eq!(
                    report.fallback, None,
                    "keyed stream must stay sharded across switches: seed {seed}"
                );
            }
        }
    }
}

/// From its first switch on a keyed stream's verdict is the per-class
/// re-check of its record, so no event reaches a shard: every later ingest
/// reports an empty frontier and no tail extension runs, while the report
/// still equals the batch check.
#[test]
fn a_keyed_stream_feeds_no_shard_after_its_first_switch() {
    let chk = phase_checker();
    let cert = switch_cert();
    let mut responds_after_switch = 0;
    for seed in 0..6u64 {
        let t = random_phase_kv_trace(&PhaseConfig {
            seed,
            ..Default::default()
        });
        let mut mon = keyed_stream(&cert, Obs::noop());
        let mut at_switch = None;
        for a in t.iter() {
            let out = mon.ingest(a.clone());
            if a.is_switch() && at_switch.is_none() {
                at_switch = mon.shard_summary().map(|s| s.extension_searches);
            }
            if at_switch.is_some() {
                assert_eq!(out.frontier_len, 0, "seed {seed} event {}", out.index);
                responds_after_switch += a.is_respond() as usize;
            }
        }
        let at_switch = at_switch.expect("corpus must cross phases");
        let summary = mon.shard_summary().expect("born streaming");
        assert_eq!(summary.extension_searches, at_switch, "seed {seed}");
        let report = mon.report().unwrap();
        let batch = chk.check(&t);
        assert_eq!(report.verdict, batch, "seed {seed}");
    }
    assert!(
        responds_after_switch > 0,
        "no seed responds past its switch"
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

/// Past a switch the polled status *is* the report's verdict: one keyed
/// derivation per stream version serves `poll_verdict` and `report`
/// alike, and the observer sees it.
#[test]
fn polled_status_and_report_share_one_keyed_search() {
    let cert = switch_cert();
    for error_prob in [0.0, 0.5] {
        for seed in 0..6u64 {
            let t = random_phase_kv_trace(&PhaseConfig {
                error_prob,
                seed,
                ..Default::default()
            });
            let seen = Arc::new(Searches::default());
            let mut mon = keyed_stream(&cert, Obs::new(seen.clone()));
            for a in t.iter() {
                mon.ingest(a.clone());
            }
            // Ingest-time shard searches are observed too; count from here.
            let before = seen.0.lock().unwrap().len();
            let polled = mon.poll_verdict().status;
            let report = mon.report().unwrap();
            assert_eq!(mon.poll_verdict().status, polled);
            let evs = seen.0.lock().unwrap()[before..].to_vec();
            assert_eq!(evs.len(), 1, "seed {seed} error {error_prob}: {evs:?}");
            assert_eq!(evs[0].site, "monitor.report");
            assert_eq!(evs[0].nodes, report.stats.nodes as u64);
            let keyed = keyed_check(0, &cert, &t);
            assert_eq!(report.stats.nodes, keyed.stats.nodes);
            let want = match &report.verdict {
                Ok(_) => MonitorStatus::Ok,
                Err(e) => <PhaseChecker as ConsistencyModel<Vec<KvInput>>>::status_of_error(e),
            };
            assert_eq!(polled, want, "seed {seed} error {error_prob}");
        }
    }
}

/// Without the certificate the same stream is re-checked whole from its
/// first switch on — the fallback reason the keyed mode removes.
#[test]
fn unkeyed_streaming_falls_back_on_the_first_switch() {
    let chk = phase_checker();
    let t = random_phase_kv_trace(&PhaseConfig::default());
    let mut mon = Checker::builder(chk.clone())
        .partitioner(KvKeyPartitioner)
        .strategy(Strategy::Streaming { window: None })
        .build();
    for a in t.iter() {
        mon.ingest(a.clone());
    }
    let report = mon.report().unwrap();
    assert!(
        report.fallback.is_some(),
        "uncertified switches must fall back"
    );
    assert_eq!(report.verdict, chk.check(&t), "fallback is still exact");
}

/// The session facade end to end: installing the analyzer's switch
/// certificate unlocks the partitioned strategy on phase traces, with the
/// monolithic verdict reproduced byte for byte and zero fallbacks.
#[test]
fn session_with_switch_cert_partitions_phase_traces() {
    let cert = switch_cert();
    let chk = phase_checker();
    for seed in [0u64, 3, 5] {
        let cfg = PhaseConfig {
            seed,
            ..Default::default()
        };
        let t = random_phase_kv_trace(&cfg);
        let mut session = Checker::builder(phase_checker())
            .partitioner(KvKeyPartitioner)
            .switch_certified(&cert)
            .expect("certificate covers (KvStore, KvKeyPartitioner, ExactInit)")
            .build::<Vec<KvInput>>();
        let verdict = session.check(&t);
        assert!(
            verdict.partition.is_some(),
            "a certified session must keep the fast path across switches"
        );
        assert_eq!(verdict.outcome, chk.check(&t), "seed {seed}");
        let report = verdict.partition.expect("partitioned runs report");
        assert_eq!(report.fallback, None, "seed {seed}");
    }
}

/// What it takes to reach the keyed projection with a partitioner the
/// analyzer refuses: a forged certificate. The content hash is an
/// integrity check (FNV-1a over the fields, as `SwitchCert::verify`
/// recomputes it), not a signature — forging one is these lines, and the
/// test below shows what the forgery buys.
fn forged_switch_cert(adt: &str, partitioner: &str, rinit: &str) -> SwitchCert {
    let canon = format!(
        "{}|{adt}|{partitioner}|{rinit}|0|0|0|0|0|0|0|0",
        slin_analysis::SWITCH_CERT_SCHEMA
    );
    let hash = canon.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let cert = SwitchCert {
        adt: adt.into(),
        partitioner: partitioner.into(),
        rinit: rinit.into(),
        depth: 0,
        alphabet: 0,
        switch_values: 0,
        classified: 0,
        keys: 0,
        states: 0,
        projection_checks: 0,
        commutation_checks: 0,
        content_hash: format!("fnv1a64:{hash:016x}"),
    };
    assert!(cert.verify(), "the forgery passes the integrity check");
    cert
}

/// The negative fixture: the analyzer rejects the bogus Counter
/// partitioner with a ≤4-input counterexample, and replaying that
/// counterexample as a phase trace exhibits the predicted divergence —
/// the monolithic check accepts it, the keyed decomposition refutes it.
#[test]
fn bogus_init_partitioner_is_rejected_and_the_replay_diverges() {
    let failure = certify_switch(
        &Counter,
        &BogusCounterPartitioner,
        &AnalyzeConfig::default(),
    )
    .expect_err("reads depend on increments across the claimed classes");
    let SwitchFailure::Unsound(cex) = failure else {
        panic!("expected a counterexample, not a resource bailout");
    };
    assert!(cex.len() <= 4, "counterexample too long: {}", cex.len());
    let t = cex.to_trace(&Counter);
    assert!(t.iter().any(|a| a.is_switch()), "replay is a phase trace");
    let chk = SlinChecker::owned(Counter, ExactInit::new(), PhaseId::new(2), PhaseId::new(3));
    let mono = chk.check(&t);
    assert!(
        mono.is_ok(),
        "the monolithic interpretation explains the replay: {mono:?}"
    );
    let forged = forged_switch_cert("Counter", "BogusCounterPartitioner", "ExactInit");
    let sv = Checker::builder(chk)
        .partitioner(BogusCounterPartitioner)
        .switch_certified(&forged)
        .expect("the forgery names the session's partitioner")
        .build()
        .check(&t);
    assert!(
        sv.outcome.is_err(),
        "the keyed decomposition must refute what the monolithic path \
         accepts — the divergence the certificate refusal predicts"
    );
}

type PhaseAction = slin_core::ObjAction<KvStore, Vec<KvInput>>;

/// Thread-count invariance of the keyed batch check: the whole keyed
/// outcome — verdict, witness, `SearchStats`, partition report — is
/// identical at 1, 2 and 4 threads, and the witness is the monolithic one.
#[test]
fn keyed_batch_is_thread_count_invariant() {
    let cert = switch_cert();
    let (mut accepted, mut refuted) = (0, 0);
    for error_prob in [0.0, 0.5] {
        for seed in 0..4u64 {
            let t = random_phase_kv_trace(&PhaseConfig {
                error_prob,
                seed,
                ..PhaseConfig::default()
            });
            let reference = keyed_check(1, &cert, &t);
            match &reference.outcome {
                Ok(_) => accepted += 1,
                Err(_) => refuted += 1,
            }
            let mono = phase_checker().check(&t);
            assert_eq!(reference.outcome, mono, "seed {seed} error {error_prob}");
            for threads in [2, 4] {
                assert_eq!(
                    keyed_check(threads, &cert, &t),
                    reference,
                    "seed {seed} error {error_prob} threads {threads}"
                );
            }
        }
    }
    assert!(accepted > 0 && refuted > 0);
}
