//! Witness-archival differential suite.
//!
//! The archival contract: a bounded-window (GC'd) monitor whose witness
//! archive is **deep enough** (no ring eviction) produces reports —
//! verdict *and* witness/error, byte for byte — identical to an
//! **unbounded** monitor on the same stream, because `report()`
//! reconstructs the closed trace from the archived `(index, action)`
//! pairs and re-runs the very same deterministic split check. When the
//! archive is **too shallow** (ring evicted) or **disabled**, the report
//! degrades to the plain window-relative GC verdict — also checked
//! differentially, against a no-archive monitor with the same GC policy.
//!
//! Corpora: the pinned-seed friendly/perturbed multi-key sweep (violations
//! included via `error_prob`) and the hostile never-quiescent generator.

use proptest::prelude::*;
use slin_adt::{KvInput, KvOutput};
use slin_adt::{KvKeyPartitioner, KvStore, Partitioner};
use slin_core::gen::{
    random_hostile_kv_trace, random_multikey_kv_trace, HostileConfig, MultiKeyConfig,
};
use slin_core::initrel::ExactInit;
use slin_core::lin::{LinChecker, LinError};
use slin_core::session::{Checker, Session, Strategy as SessionStrategy};
use slin_core::slin::{SlinChecker, SlinError};
use slin_core::stream::{GcPolicy, MonitorStatus};
use slin_trace::{Action, ClientId, PhaseId};

/// A bounded-window monitor with an archive of `depth` retired windows
/// (`0` disables archival — the plain GC monitor).
fn gc_monitor(window: usize, depth: usize) -> KvStream {
    monitor(
        Some(window),
        GcPolicy {
            archive_windows: depth,
            ..Default::default()
        },
    )
}

/// An unbounded monitor — the byte-identity oracle.
fn unbounded_monitor() -> KvStream {
    monitor(None, GcPolicy::default())
}

type KvStream = Session<LinChecker<KvStore>, (), KvKeyPartitioner>;

fn monitor(window: Option<usize>, gc: GcPolicy) -> KvStream {
    Checker::builder(LinChecker::owned(KvStore))
        .partitioner(KvKeyPartitioner)
        .strategy(SessionStrategy::Streaming { window })
        .gc_policy(gc)
        .build()
}

fn configs() -> impl Strategy<Value = MultiKeyConfig> {
    (
        1..=4u32,     // keys
        2..=4u32,     // clients
        30..=90usize, // steps — long enough that small windows really retire
        0..=1u8,      // perturbation tier (violations included)
        0..=6_000u64, // seed
    )
        .prop_map(|(keys, clients, steps, error, seed)| MultiKeyConfig {
            clients,
            steps,
            keys,
            skew: 0.7,
            contention: 0.3,
            error_prob: [0.0, 0.3][error as usize],
            seed,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// Deep archive ⇒ the GC'd monitor's report is byte-identical to the
    /// unbounded monitor's (and hence to the batch checker's), violations
    /// and witnesses included; the report says so via `reconstructed`.
    #[test]
    fn deep_archive_reconstructs_unbounded_report(cfg in configs()) {
        let t = random_multikey_kv_trace(&cfg);
        let mut archived = gc_monitor(8, 1024); // never evicts at this size
        let mut oracle = unbounded_monitor();
        for a in t.iter() {
            archived.ingest(a.clone());
            oracle.ingest(a.clone());
        }
        let got = archived.report().unwrap();
        let want = oracle.report().unwrap();
        prop_assert_eq!(
            format!("{:?}", got.verdict),
            format!("{:?}", want.verdict),
            "cfg {:?}", cfg
        );
        prop_assert_eq!(
            format!("{:?}", got.verdict.outcome),
            format!("{:?}", LinChecker::owned(KvStore).check(&t)),
            "cfg {:?}", cfg
        );
        // Reconstruction fires exactly when GC retired something.
        prop_assert_eq!(got.reconstructed, got.prefix_committed, "cfg {:?}", cfg);
        // Memory bound: everything retired is archived, nothing more.
        prop_assert_eq!(
            got.shard.archived_events,
            got.shard.retired_events,
            "cfg {:?}", cfg
        );
    }

    /// Shallow archive (ring evicts) ⇒ reconstruction refuses and the
    /// report degrades to exactly the plain GC'd (no-archive) monitor's
    /// window-relative verdict.
    #[test]
    fn shallow_archive_degrades_to_window_relative(cfg in configs()) {
        let t = random_multikey_kv_trace(&cfg);
        let mut shallow = gc_monitor(4, 1);
        let mut plain = gc_monitor(4, 0);
        for a in t.iter() {
            shallow.ingest(a.clone());
            plain.ingest(a.clone());
        }
        let got = shallow.report().unwrap();
        let want = plain.report().unwrap();
        // Degradation happens only when a second window actually retired;
        // either way the two reports must agree whenever `shallow` did not
        // manage a reconstruction.
        if !got.reconstructed {
            prop_assert_eq!(
                format!("{:?}", got.verdict),
                format!("{:?}", want.verdict),
                "cfg {:?}", cfg
            );
        }
        // The ring bound holds: at most one retired window per shard stays
        // archived.
        prop_assert!(
            got.shard.archived_events <= got.shard.retired_events,
            "cfg {:?}", cfg
        );
    }
}

/// Hostile never-quiescent streams: whichever path `report()` takes, it
/// must match the matching oracle — the unbounded monitor when it
/// reconstructed, the plain GC monitor when it did not.
fn hostile_configs() -> impl Strategy<Value = HostileConfig> {
    (
        1..=2u32,     // keys
        0..=1u8,      // never-responding tier
        0..=1u8,      // perturbation tier
        0..=3_000u64, // seed
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
    #![proptest_config(ProptestConfig::with_cases(100))]

    #[test]
    fn hostile_streams_match_their_oracle(cfg in hostile_configs()) {
        let t = random_hostile_kv_trace(&cfg);
        let mut archived = gc_monitor(6, 1024);
        let mut plain = gc_monitor(6, 0);
        let mut oracle = unbounded_monitor();
        for a in t.iter() {
            archived.ingest(a.clone());
            plain.ingest(a.clone());
            oracle.ingest(a.clone());
        }
        let got = archived.report().unwrap();
        let want = if got.reconstructed {
            oracle.report().unwrap()
        } else {
            plain.report().unwrap()
        };
        prop_assert_eq!(
            format!("{:?}", got.verdict),
            format!("{:?}", want.verdict),
            "cfg {:?} (reconstructed: {})", cfg, got.reconstructed
        );
    }
}

/// A long linearizable run on one key, so a small window retires many
/// times before the trailing violation arrives.
fn violating_single_key_actions(rounds: u64) -> Vec<slin_core::ObjAction<KvStore, ()>> {
    let (c, p) = (ClientId::new(1), PhaseId::FIRST);
    let mut actions = Vec::new();
    for round in 0..rounds {
        let input = KvInput::Put(1, round);
        actions.push(Action::invoke(c, p, input));
        actions.push(Action::respond(c, p, input, KvOutput::Ack));
    }
    // The forensic event: a read of a value nobody ever wrote.
    actions.push(Action::invoke(c, p, KvInput::Get(1)));
    actions.push(Action::respond(
        c,
        p,
        KvInput::Get(1),
        KvOutput::Found(Some(9999)),
    ));
    actions
}

/// The acceptance case spelled out: a violation arriving long after GC
/// retired the history is reported with the **full** forensic error of an
/// unGC'd monitor — byte-identical — because the archive still holds every
/// retired window.
#[test]
fn violation_after_gc_reconstructs_full_forensics() {
    let actions = violating_single_key_actions(40);
    let mut archived = gc_monitor(8, 64);
    let mut plain = gc_monitor(8, 0);
    let mut oracle = unbounded_monitor();
    for a in &actions {
        archived.ingest(a.clone());
        plain.ingest(a.clone());
        oracle.ingest(a.clone());
    }
    let got = archived.report().unwrap();
    let want = oracle.report().unwrap();
    assert!(got.prefix_committed, "GC never retired — widen the run");
    assert!(got.reconstructed);
    assert!(got.verdict.outcome.is_err());
    assert_eq!(
        format!("{:?}", got.verdict),
        format!("{:?}", want.verdict),
        "archived forensics must equal the unGC'd monitor's"
    );
    // And the plain GC monitor genuinely lost the early history: its
    // window-relative report has no access to the retired events.
    let degraded = plain.report().unwrap();
    assert!(degraded.verdict.outcome.is_err());
    assert_eq!(degraded.shard.archived_events, 0);
}

/// A linearizable-by-construction three-client load stream.
fn load_stream(
    keys: u32,
    skew: f64,
    steps: usize,
    seed: u64,
) -> slin_trace::Trace<slin_core::ObjAction<KvStore, ()>> {
    random_multikey_kv_trace(&MultiKeyConfig {
        clients: 3,
        steps,
        keys,
        skew,
        contention: 0.0,
        error_prob: 0.0,
        seed,
    })
}

/// With archival off (the default), nothing is retained beyond the live
/// window and reports never claim reconstruction.
#[test]
fn archival_off_is_the_default_and_archives_nothing() {
    assert_eq!(GcPolicy::default().archive_windows, 0);
    let actions = violating_single_key_actions(40);
    let mut mon = gc_monitor(8, 0);
    for a in &actions {
        mon.ingest(a.clone());
    }
    let report = mon.report().unwrap();
    assert!(!report.reconstructed);
    assert_eq!(report.shard.archived_events, 0);
    // Nor on long multi-key load (the streams `work_pins.rs` times the
    // observer on, three seeds each): archival really is opt-in.
    for (keys, skew) in [(4, 0.6), (16, 1.4)] {
        for seed in 0..3 {
            let mut mon = gc_monitor(48, 0);
            for a in load_stream(keys, skew, 1600, seed).iter() {
                mon.ingest(a.clone());
            }
            let report = mon.report().unwrap();
            assert!(report.verdict.is_ok(), "keys {keys}, seed {seed}");
            assert!(!report.reconstructed, "keys {keys}, seed {seed}");
            assert_eq!(report.shard.archived_events, 0, "keys {keys}, seed {seed}");
        }
    }
}

/// The archive's memory bound, at the deepest configuration in use: 4096
/// windows of `w = 8` over single-key streams hold every retired event,
/// so the report reconstructs — and still fits O(shards · depth · window)
/// events. (300 steps: reconstruction re-runs the monolithic check on the
/// closed trace, and must stay inside the default node budget.)
#[test]
fn deep_archive_reconstructs_inside_its_event_bound() {
    for seed in 0..3 {
        let mut mon = gc_monitor(8, 4096);
        for a in load_stream(1, 0.0, 300, seed).iter() {
            mon.ingest(a.clone());
        }
        let report = mon.report().unwrap();
        assert!(report.verdict.is_ok(), "seed {seed}");
        assert!(report.reconstructed, "seed {seed}");
        let archived = report.shard.archived_events;
        let shards = report.verdict.partition.map_or(0, |p| p.partitions);
        assert!(
            0 < archived && archived <= shards * 4096 * 8,
            "seed {seed}: {archived} events archived over {shards} shards"
        );
    }
}

/// Determinism: two identically-configured archived monitors over the same
/// stream render byte-identical reports (pinned end-to-end).
#[test]
fn archived_reports_are_deterministic() {
    let cfg = MultiKeyConfig {
        clients: 3,
        steps: 80,
        keys: 3,
        skew: 0.7,
        contention: 0.3,
        error_prob: 0.25,
        seed: 1729,
    };
    let t = random_multikey_kv_trace(&cfg);
    let render = || {
        let mut mon = gc_monitor(8, 256);
        for a in t.iter() {
            mon.ingest(a.clone());
        }
        let r = mon.report().unwrap();
        format!(
            "{:?} {} {}",
            r.verdict, r.reconstructed, r.shard.archived_events
        )
    };
    assert_eq!(render(), render());
}

// ---- one record of the stream: rebuilds read it, or under-claim ----

/// The daemon's tenant model over phases 1 → 2.
type Tenant = Session<SlinChecker<KvStore, ExactInit>, Vec<KvInput>, KvKeyPartitioner>;

fn tenant(window: Option<usize>, depth: usize) -> Tenant {
    let model = SlinChecker::owned(KvStore, ExactInit::new(), PhaseId::FIRST, PhaseId::new(2));
    Checker::builder(model)
        .partitioner(KvKeyPartitioner)
        .strategy(SessionStrategy::Streaming { window })
        .gc_policy(GcPolicy {
            archive_windows: depth,
            ..Default::default()
        })
        .build()
}

/// Client 1's `put(1,7)` straggles across twelve of client 2's rounds on
/// the same key (so epoch cuts retire it pending), then client 2 aborts to
/// phase 2 carrying the whole committed history.
fn straggler_then_abort() -> Vec<slin_core::ObjAction<KvStore, Vec<KvInput>>> {
    let (c1, c2, p) = (ClientId::new(1), ClientId::new(2), PhaseId::FIRST);
    let straggler = KvInput::Put(1, 7);
    let mut actions = vec![Action::invoke(c1, p, straggler)];
    for r in 0..12 {
        actions.push(Action::invoke(c2, p, KvInput::Put(1, r)));
        actions.push(Action::respond(c2, p, KvInput::Put(1, r), KvOutput::Ack));
    }
    actions.push(Action::respond(c1, p, straggler, KvOutput::Ack));
    let last = KvInput::Put(1, 99);
    actions.push(Action::invoke(c2, p, last));
    let mut value: Vec<KvInput> = (0..12).map(|r| KvInput::Put(1, r)).collect();
    value.push(straggler);
    actions.push(Action::switch(c2, PhaseId::new(2), last, value));
    actions
}

/// A bounded-window speculative session whose first switch comes after a
/// retirement re-checks the one record of the stream: with an archive deep
/// enough to have kept it, the unbounded session's verdict (and says it
/// reconstructed); without one, `Unknown` — never the parent's rebuild of
/// the stream from the shard windows, which at windows 2 / 3 / 4 / 6 said
/// `Violation`, `IllFormed` and `IllFormed` twice of an `Ok` stream.
#[test]
fn a_switch_after_retirement_reads_the_record_or_under_claims() {
    let actions = straggler_then_abort();
    let mut oracle = tenant(None, 0);
    for a in &actions {
        oracle.ingest(a.clone());
    }
    assert_eq!(oracle.status(), Some(MonitorStatus::Ok));
    let want = oracle.report().unwrap();
    for window in [2, 3, 4, 6] {
        for depth in [0, 64] {
            let mut mon = tenant(Some(window), depth);
            for a in &actions {
                mon.ingest(a.clone());
            }
            let status = mon.status().unwrap();
            let got = mon.report().unwrap();
            assert!(got.prefix_committed, "window {window}: nothing retired");
            if depth == 0 {
                assert_eq!(status, MonitorStatus::Unknown, "window {window}");
                assert_eq!(
                    got.verdict.outcome,
                    Err(SlinError::BudgetExhausted { nodes: 0 }),
                    "window {window}"
                );
                assert!(!got.reconstructed);
            } else {
                assert_eq!(
                    status,
                    MonitorStatus::Ok,
                    "window {window}, archive {depth}"
                );
                assert_eq!(
                    format!("{:?}", got.verdict),
                    format!("{:?}", want.verdict),
                    "window {window}, archive {depth}"
                );
                assert!(got.reconstructed, "window {window}, archive {depth}");
            }
        }
    }
}

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

/// `put(1,5)`, ten rounds of `put(2,r)` / `get(1) = 5`, then `delete(2)`
/// (the collapse) and one more `get(1) = 5`: linearizable, and key 1's
/// `put` is retired long before the collapse at every window below.
fn collapse_after_retirement() -> Vec<slin_core::ObjAction<KvStore, ()>> {
    let (c, p) = (ClientId::new(1), PhaseId::FIRST);
    let five = KvOutput::Found(Some(5));
    let mut ops = vec![(KvInput::Put(1, 5), KvOutput::Ack)];
    for r in 0..10 {
        ops.push((KvInput::Put(2, r), KvOutput::Ack));
        ops.push((KvInput::Get(1), five));
    }
    ops.push((KvInput::Delete(2), KvOutput::Ack));
    ops.push((KvInput::Get(1), five));
    ops.into_iter()
        .flat_map(|(i, o)| [Action::invoke(c, p, i), Action::respond(c, p, i, o)])
        .collect()
}

/// An identity collapse after retirement replays the record when it is
/// kept (the linearizable stream stays `Ok`) and under-claims when it is
/// not; the parent restarted the identity shard from the shard windows as
/// a fresh stream, where `get(1) = 5` has no `put`, and said `Violation` at
/// windows 2, 4 and 8.
#[test]
fn a_collapse_after_retirement_reads_the_record_or_under_claims() {
    let actions = collapse_after_retirement();
    assert!(LinChecker::owned(KvStore)
        .check(&actions.iter().cloned().collect())
        .is_ok());
    for window in [2, 4, 8] {
        for depth in [0, 64] {
            let mut mon: Session<_, (), _> = Checker::builder(LinChecker::owned(KvStore))
                .partitioner(DeleteTouchesAll)
                .strategy(SessionStrategy::Streaming {
                    window: Some(window),
                })
                .gc_policy(GcPolicy {
                    archive_windows: depth,
                    ..Default::default()
                })
                .build();
            let mut last = MonitorStatus::Ok;
            for a in &actions {
                last = mon.ingest(a.clone()).status;
                assert_ne!(
                    last,
                    MonitorStatus::Violation,
                    "window {window}, archive {depth}"
                );
            }
            let report = mon.report().unwrap();
            assert!(report.prefix_committed && report.fallback.is_some());
            if depth == 0 {
                assert_eq!(last, MonitorStatus::Unknown, "window {window}");
                assert_eq!(
                    report.verdict.outcome,
                    Err(LinError::BudgetExhausted { nodes: 0 })
                );
            } else {
                assert_eq!(last, MonitorStatus::Ok, "window {window}, archive {depth}");
                assert!(report.verdict.is_ok(), "window {window}, archive {depth}");
            }
        }
    }
}

/// Once a shard retires past the archive depth the record is dropped, and
/// with it every retired event: nothing is kept that no rebuild can use.
/// (The parent's per-shard rings kept 12 and 48 events here — three shards
/// × depth × four — after refusing reconstruction for good.)
#[test]
fn a_dropped_record_keeps_no_retired_events() {
    let (c, p) = (ClientId::new(1), PhaseId::FIRST);
    let actions: Vec<_> = (0..36u64)
        .flat_map(|r| {
            let put = KvInput::Put(r as u32 % 3 + 1, r);
            [
                Action::invoke(c, p, put),
                Action::respond(c, p, put, KvOutput::Ack),
            ]
        })
        .collect();
    for depth in [1, 4] {
        let mut mon = gc_monitor(4, depth);
        for a in &actions {
            mon.ingest(a.clone());
        }
        let report = mon.report().unwrap();
        assert!(report.verdict.is_ok());
        assert!(
            report.prefix_committed && !report.reconstructed,
            "depth {depth}"
        );
        assert!(report.shard.retired_events > 3 * depth * 4, "depth {depth}");
        assert_eq!(report.shard.archived_events, 0, "depth {depth}");
    }
}
