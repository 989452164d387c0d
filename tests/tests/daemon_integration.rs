//! End-to-end daemon checks: many tenants' hostile streams over the wire
//! transport, verdicts differential against per-tenant batch checking,
//! and observable backpressure shedding under saturating load.

use slin_adt::{KvInput, KvKeyPartitioner, KvOutput, KvStore};
use slin_core::initrel::ExactInit;
use slin_core::partition::FallbackReason;
use slin_core::session::Checker;
use slin_core::slin::SlinChecker;
use slin_core::stream::MonitorStatus;
use slin_daemon::{
    encode_frames, generate, transport, Daemon, DaemonConfig, FallbackCounts, Frame, LoadConfig,
    TenantPolicy, VerdictCounts,
};
use slin_trace::{Action, ClientId, PhaseId};

/// The daemon's own tenant model, rebuilt for the batch oracle: the
/// speculative checker over the `(1, 2)` phase pair under the exact init
/// relation (switch-free tenant streams coincide with linearizability).
fn tenant_model() -> slin_daemon::TenantChecker {
    SlinChecker::owned(KvStore, ExactInit::new(), PhaseId::FIRST, PhaseId::new(2))
}

/// 1000 tenants of hostile, Zipf-interleaved streams through the full
/// pipeline — wire encode, bounded transport, decode, route, lane pump —
/// must yield, for every tenant, a final verdict byte-identical to a
/// batch [`Checker`] session over that tenant's reference trace. The
/// exactness-preserving configuration is explicit: no GC window, shed
/// disabled (large queues, lossless policy).
#[test]
fn thousand_tenant_verdicts_match_per_tenant_batch_checking() {
    let cfg = LoadConfig {
        tenants: 1000,
        steps_per_tenant: 30,
        clients: 3,
        keys: 3,
        tenant_skew: 1.0,
        error_prob: 0.08, // some tenants violate, most stay clean
        chunk_frames: 256,
        seed: 42,
    };
    let workload = generate(&cfg);
    assert!(
        workload.frames > 10_000,
        "workload too small to be interesting"
    );

    let lossless = TenantPolicy {
        queue_capacity: usize::MAX,
        window: None,
        shed_lossy: false,
        ..TenantPolicy::default()
    };
    let mut daemon = Daemon::new(DaemonConfig {
        workers: 4,
        default_policy: lossless,
    });
    let (rx, producer) = transport(workload.chunks, 4);
    for chunk in rx.iter() {
        daemon.ingest_bytes(&chunk).unwrap();
        daemon.pump();
    }
    producer.join().unwrap();
    daemon.pump();

    assert_eq!(daemon.tenants(), 1000);
    let counts = daemon.poll_verdicts();
    assert_eq!(counts.unknown, 0, "lossless run must never report Unknown");
    assert!(counts.violation > 0, "error_prob should trip some tenants");
    assert!(counts.ok > counts.violation, "most tenants stay clean");

    let mut mismatches = 0;
    for tenant in daemon.tenant_ids() {
        let reference = &workload.reference[&tenant];
        let mut batch = Checker::builder(tenant_model())
            .partitioner(KvKeyPartitioner)
            .build::<Vec<KvInput>>();
        let expected = batch.check(reference);
        let session = daemon.tenant_session_mut(tenant).unwrap();
        let report = session.report().expect("streamed tenants report");
        assert_eq!(
            report.events,
            reference.len(),
            "tenant {tenant} event count"
        );
        if report.verdict != expected.outcome {
            eprintln!(
                "tenant {tenant}: streaming {:?} != batch {:?}",
                report.verdict, expected.outcome
            );
            mismatches += 1;
        }
    }
    assert_eq!(mismatches, 0, "streaming and batch verdicts must agree");
}

/// Saturating load against tiny queues: the daemon must shed (lossy
/// epoch forcing), the shed must be visible in the metrics surface, and
/// the per-tenant queue bound must hold throughout. Shedding is for
/// saturation only: a provisioned daemon under the same policy must not.
#[test]
fn saturating_load_sheds_observably_and_keeps_queues_bounded() {
    let cfg = LoadConfig {
        tenants: 16,
        steps_per_tenant: 400,
        clients: 4,
        keys: 2,
        tenant_skew: 1.5, // hot tenants saturate first
        error_prob: 0.0,
        chunk_frames: 512,
        seed: 9,
    };
    let workload = generate(&cfg);
    let tight = TenantPolicy {
        queue_capacity: 8,
        window: Some(16),
        shed_lossy: true,
        ..TenantPolicy::default()
    };
    let mut daemon = Daemon::new(DaemonConfig {
        workers: 2,
        default_policy: tight,
    });
    // No pump between chunks: the ingest path alone must keep up, which
    // forces the high-water shed on every busy tenant.
    let (rx, producer) = transport(workload.chunks, 2);
    for chunk in rx.iter() {
        daemon.ingest_bytes(&chunk).unwrap();
    }
    producer.join().unwrap();
    daemon.pump();
    daemon.poll_verdicts();

    let metrics = daemon.metrics();
    assert!(metrics.sheds > 0, "saturation must shed: {metrics:?}");
    assert!(metrics.shed_tenants > 0);
    assert!(
        metrics.queue_depth_peak <= 8,
        "queue bound violated: peak {}",
        metrics.queue_depth_peak
    );
    assert_eq!(
        metrics.events, workload.frames as u64,
        "nothing lost, only degraded"
    );
    // Shedding degrades verdicts at most to Unknown — never to a false
    // violation on these linearizable-by-construction streams.
    let counts = metrics.verdicts;
    assert_eq!(counts.violation, 0);
    assert_eq!(counts.ill_formed, 0);
    assert_eq!(counts.ok + counts.unknown, 16);

    // The control: the same lossy policy on a *provisioned* daemon (deep
    // queues, a pump after every chunk) never sheds, whether tenant
    // traffic is uniform or Zipf-skewed.
    let provisioned = TenantPolicy {
        queue_capacity: 4096,
        window: Some(32),
        shed_lossy: true,
        ..TenantPolicy::default()
    };
    for (tenants, tenant_skew) in [(64, 0.0), (128, 1.2)] {
        for seed in 0..3 {
            let workload = generate(&LoadConfig {
                tenants,
                steps_per_tenant: 120,
                clients: 3,
                keys: 3,
                tenant_skew,
                error_prob: 0.0,
                chunk_frames: 256,
                seed,
            });
            let mut daemon = Daemon::new(DaemonConfig {
                workers: 4,
                default_policy: provisioned,
            });
            let (rx, producer) = transport(workload.chunks, 8);
            for chunk in rx.iter() {
                daemon.ingest_bytes(&chunk).unwrap();
                daemon.pump();
            }
            producer.join().unwrap();
            daemon.pump();
            let counts = daemon.poll_verdicts();
            let metrics = daemon.metrics();
            let shape = format!("{tenants} tenants, skew {tenant_skew}, seed {seed}: {metrics:?}");
            assert_eq!(metrics.sheds, 0, "spurious backpressure: {shape}");
            assert!(metrics.queue_depth_peak <= 4096, "{shape}");
            assert_eq!(metrics.events, workload.frames as u64, "{shape}");
            assert_eq!((counts.violation, counts.ill_formed), (0, 0), "{shape}");
        }
    }
}

/// Per-tenant policy overrides: a lossless tenant next to lossy ones
/// keeps its exact verdict under the same saturating load.
#[test]
fn policy_overrides_isolate_lossless_tenants_from_the_shed() {
    let cfg = LoadConfig {
        tenants: 4,
        steps_per_tenant: 300,
        clients: 4,
        keys: 2,
        tenant_skew: 0.0,
        error_prob: 0.0,
        chunk_frames: 256,
        seed: 17,
    };
    let workload = generate(&cfg);
    let mut daemon = Daemon::new(DaemonConfig {
        workers: 2,
        default_policy: TenantPolicy {
            queue_capacity: 4,
            window: Some(8),
            shed_lossy: true,
            ..TenantPolicy::default()
        },
    });
    // Tenant 2 opts out of the lossy shed via the parsed policy surface.
    daemon.set_policy(
        2,
        TenantPolicy::parse("queue=4,window=none,lossy=false").unwrap(),
    );
    for chunk in &workload.chunks {
        daemon.ingest_bytes(chunk).unwrap();
    }
    daemon.pump();
    daemon.poll_verdicts();
    assert!(!daemon.is_shedding(2), "lossless tenant must not shed");
    assert!(daemon.metrics().sheds > 0, "the lossy neighbours do shed");
    let session = daemon.tenant_session_mut(2).unwrap();
    assert_eq!(session.status(), Some(MonitorStatus::Ok));
    let report = session.report().unwrap();
    assert_eq!(report.events, workload.reference[&2].len());
    assert!(report.verdict.is_ok());
}

/// How a run pumps: after every chunk, or once after the last.
#[derive(Clone, Copy, PartialEq)]
enum Pumping {
    PerChunk,
    Once,
}

/// What one run of the equivalence stream leaves behind, per dispatch
/// shape — everything that must not depend on the shape.
#[derive(Debug, PartialEq)]
struct RunOutcome {
    /// Final `(status, report)` per tenant, ascending id.
    tenants: Vec<(u64, MonitorStatus, String)>,
    /// Events `pump` reported, plus those the mid-stream session read
    /// drained in a pump's stead.
    pumped: u64,
    events: u64,
    sheds: u64,
    verdicts: VerdictCounts,
    fallbacks: FallbackCounts,
}

/// Reads one registry counter off the Prometheus page.
fn counter(daemon: &Daemon, series: &str) -> u64 {
    daemon
        .render_prometheus()
        .lines()
        .find_map(|l| l.strip_prefix(series)?.trim().parse().ok())
        .unwrap_or(0)
}

/// The recount oracle: a twin daemon fed the same bytes and pumps, whose
/// every tenant is re-polled from scratch through `tenant_session_mut`.
fn recount(twin: &mut Daemon) -> (VerdictCounts, FallbackCounts) {
    let (mut counts, mut fallbacks) = (VerdictCounts::default(), FallbackCounts::default());
    for id in twin.tenant_ids() {
        let session = twin.tenant_session_mut(id).expect("listed tenants exist");
        let delta = session.poll_verdict();
        match delta.status {
            MonitorStatus::Ok => counts.ok += 1,
            MonitorStatus::Violation => counts.violation += 1,
            MonitorStatus::IllFormed => counts.ill_formed += 1,
            MonitorStatus::SwitchSeen => counts.switch_seen += 1,
            MonitorStatus::Unknown => counts.unknown += 1,
            MonitorStatus::Deferred => panic!("a polled status is resolved"),
        }
        counts.changed += delta.changed as usize;
        match session.fallback() {
            Some(FallbackReason::SwitchUncertified) => fallbacks.switch_uncertified += 1,
            Some(FallbackReason::UnclassifiableInput) => fallbacks.unclassifiable_input += 1,
            Some(FallbackReason::CrossBoundCoupled) => fallbacks.cross_bound_coupled += 1,
            None => {}
        }
    }
    (counts, fallbacks)
}

/// Tenants the equivalence stream adds by hand, next to the generated
/// fleet `0..24`.
const SHED_TENANT: u64 = 100;
const EARLY_VIOLATOR: u64 = 101;
const SWITCHED_TENANT: u64 = 102;
const PEEKED_TENANT: u64 = 3;

/// The wire stream of the equivalence test: a generated 24-tenant fleet
/// in 32-frame chunks (≈2400 frames: one pump per chunk never repays a
/// spawn, one pump for all of them does), plus
/// * a tenant with a 4-deep lossy queue whose frames arrive in bursts of
///   8, so it sheds inside `ingest_bytes` in every shape and no pump ever
///   sees its frames;
/// * a tenant that violates in the first chunk and is never heard from
///   again (its status moves at the first poll and must stay counted);
/// * an unkeyed tenant that ends on a switch frame (a metered fallback, a
///   status resolved from its report).
fn equivalence_chunks() -> (Vec<Vec<u8>>, usize) {
    let workload = generate(&LoadConfig {
        tenants: 24,
        steps_per_tenant: 200,
        clients: 3,
        keys: 3,
        tenant_skew: 0.8,
        error_prob: 0.05,
        chunk_frames: 32,
        seed: 16,
    });
    let (c, p) = (ClientId::new(1), PhaseId::FIRST);
    let op = |tenant, input, output| {
        [
            Frame {
                tenant,
                action: Action::invoke(c, p, input),
            },
            Frame {
                tenant,
                action: Action::respond(c, p, input, output),
            },
        ]
    };
    let burst = |from: u64| -> Vec<Frame> {
        (from..from + 4)
            .flat_map(|v| op(SHED_TENANT, KvInput::Put(1, v), KvOutput::Ack))
            .collect()
    };
    let mut first = burst(1);
    first.extend(op(
        EARLY_VIOLATOR,
        KvInput::Get(1),
        KvOutput::Found(Some(99)),
    ));
    first.extend(op(SWITCHED_TENANT, KvInput::Put(1, 7), KvOutput::Ack));
    let mut last = burst(5);
    last.push(Frame {
        tenant: SWITCHED_TENANT,
        action: Action::invoke(c, p, KvInput::Put(2, 9)),
    });
    last.push(Frame {
        tenant: SWITCHED_TENANT,
        action: Action::switch(
            c,
            PhaseId::new(2),
            KvInput::Put(2, 9),
            vec![KvInput::Put(1, 7)],
        ),
    });
    let extra = first.len() + last.len();
    let mut chunks = workload.chunks;
    let n = chunks.len();
    chunks[0].splice(0..0, encode_frames(&first));
    chunks[n / 2].extend(encode_frames(&last));
    (chunks, workload.frames + extra)
}

fn equivalence_daemon(workers: usize) -> Daemon {
    let mut daemon = Daemon::new(DaemonConfig {
        workers,
        default_policy: TenantPolicy {
            queue_capacity: usize::MAX,
            ..TenantPolicy::default()
        },
    });
    daemon.set_policy(
        SHED_TENANT,
        TenantPolicy {
            queue_capacity: 4,
            window: Some(8),
            ..TenantPolicy::default()
        },
    );
    daemon
}

/// Drives the equivalence stream through one dispatch shape, checking the
/// incremental `poll_verdicts` against the twin's from-scratch recount
/// after every pump.
fn run_shape(workers: usize, pumping: Pumping) -> RunOutcome {
    let (chunks, frames) = equivalence_chunks();
    let (mut daemon, mut twin) = (equivalence_daemon(workers), equivalence_daemon(workers));
    let (mut pumped, mut pumps) = (0, 0);
    for (i, chunk) in chunks.iter().enumerate() {
        daemon.ingest_bytes(chunk).unwrap();
        twin.ingest_bytes(chunk).unwrap();
        if i == chunks.len() / 3 {
            // A session read mid-stream, frames still queued: the caller
            // polls it directly, behind the daemon's back. The read drains
            // what the tenant had queued — how much depends on when the
            // last pump was — so it counts towards the pump total.
            let before = daemon.metrics().events;
            for d in [&mut daemon, &mut twin] {
                d.tenant_session_mut(PEEKED_TENANT).unwrap().poll_verdict();
            }
            pumped += daemon.metrics().events - before;
        }
        if pumping == Pumping::PerChunk || i + 1 == chunks.len() {
            pumped += daemon.pump();
            twin.pump();
            pumps += 1;
            let counts = daemon.poll_verdicts();
            assert_eq!(
                (counts, daemon.fallbacks()),
                recount(&mut twin),
                "poll {pumps} at {workers} workers"
            );
            assert_eq!(daemon.metrics().verdicts, counts);
            if pumps == 1 {
                assert!(counts.violation >= 1 && counts.changed >= 1);
            } else if pumping == Pumping::PerChunk {
                // The early violator moved at the first poll, is never
                // touched again, and stays counted.
                assert!(counts.violation >= 1, "poll {pumps}");
            }
        }
    }
    // A pump with nothing queued drains nothing and re-polls nobody.
    assert_eq!(daemon.pump(), 0);
    pumps += 1;
    assert_eq!(daemon.poll_verdicts().changed, 0);
    assert_eq!(
        counter(&daemon, "slin_daemon_lane_pumps_total "),
        (pumps * workers) as u64,
        "one lane_pump event per lane per pump"
    );
    let inline = counter(&daemon, "slin_daemon_pumps_total{dispatch=\"inline\"} ");
    let fanned = counter(&daemon, "slin_daemon_pumps_total{dispatch=\"fanned\"} ");
    assert_eq!(inline + fanned, pumps as u64);
    match (workers, pumping) {
        // 32-frame chunks never repay a spawn; the whole backlog does.
        (1, _) | (_, Pumping::PerChunk) => assert_eq!(fanned, 0),
        (_, Pumping::Once) => assert_eq!(fanned, 1),
    }
    let metrics = daemon.metrics();
    assert_eq!(metrics.events, frames as u64);
    assert!(daemon.is_shedding(SHED_TENANT));
    let verdicts = daemon.poll_verdicts();
    let tenants = daemon
        .tenant_ids()
        .into_iter()
        .map(|id| {
            let session = daemon.tenant_session_mut(id).unwrap();
            let status = session.poll_verdict().status;
            (id, status, format!("{:?}", session.report()))
        })
        .collect();
    RunOutcome {
        tenants,
        pumped,
        events: metrics.events,
        sheds: metrics.sheds,
        verdicts: VerdictCounts {
            changed: 0,
            ..verdicts
        },
        fallbacks: daemon.fallbacks(),
    }
}

/// The same wire bytes through a pump per chunk (shallow, drained on the
/// calling thread), one pump after the last chunk (a deep backlog, fanned
/// out across the lanes) and a single lane: identical per-tenant statuses
/// and reports, identical pump totals, event counts and roll-ups.
#[test]
fn dispatch_shape_does_not_change_what_the_daemon_computes() {
    let reference = run_shape(2, Pumping::PerChunk);
    assert_eq!(reference.sheds, 4, "two bursts of 8 into a 4-deep queue");
    assert_eq!(reference.fallbacks.switch_uncertified, 1);
    assert!(reference.verdicts.violation >= 1);
    for (workers, pumping) in [
        (2, Pumping::Once),
        (1, Pumping::PerChunk),
        (4, Pumping::Once),
    ] {
        let run = run_shape(workers, pumping);
        // Field by field first: a whole-outcome mismatch prints every report.
        assert_eq!(run.pumped, reference.pumped, "{workers} workers");
        assert_eq!(run.events, reference.events, "{workers} workers");
        assert_eq!(run.sheds, reference.sheds, "{workers} workers");
        assert_eq!(run.verdicts, reference.verdicts, "{workers} workers");
        assert_eq!(run.fallbacks, reference.fallbacks, "{workers} workers");
        for (got, want) in run.tenants.iter().zip(&reference.tenants) {
            assert_eq!(got, want, "{workers} workers");
        }
        assert_eq!(run.tenants.len(), reference.tenants.len());
    }
}
