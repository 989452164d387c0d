//! Daemon observability end-to-end: the `slin-obs/v1` registry snapshot
//! subsumes the typed `Daemon::metrics()` summary, and an instrumented
//! 1000-tenant run exports a Prometheus page and a Perfetto-loadable
//! Chrome trace while GC-retired violation witnesses round-trip
//! byte-identical to batch checking through the archive.

use slin_adt::{KvInput, KvKeyPartitioner, KvStore};
use slin_core::initrel::ExactInit;
use slin_core::session::Checker;
use slin_core::slin::SlinChecker;
use slin_core::stream::GcPolicy;
use slin_daemon::{generate, transport, Daemon, DaemonConfig, LoadConfig, TenantPolicy};
use slin_obs::StackObserver;
use slin_trace::PhaseId;
use std::sync::Arc;

/// The daemon's own tenant model, rebuilt for batch oracles.
fn tenant_model() -> slin_daemon::TenantChecker {
    SlinChecker::owned(KvStore, ExactInit::new(), PhaseId::FIRST, PhaseId::new(2))
}

fn run_workload(daemon: &mut Daemon, cfg: &LoadConfig) -> slin_daemon::Workload {
    let workload = generate(cfg);
    let (rx, producer) = transport(workload.chunks.clone(), 4);
    for chunk in rx.iter() {
        daemon.ingest_bytes(&chunk).unwrap();
        daemon.pump();
    }
    producer.join().unwrap();
    daemon.pump();
    daemon.poll_verdicts();
    workload
}

/// The registry snapshot subsumes the typed [`Daemon::metrics`] summary:
/// every deterministic `DaemonMetrics` quantity is present in
/// `slin-obs/v1` with the same value.
#[test]
fn obs_snapshot_subsumes_v1_metrics() {
    let cfg = LoadConfig {
        tenants: 32,
        steps_per_tenant: 20,
        seed: 11,
        ..LoadConfig::default()
    };
    let mut daemon = Daemon::new(DaemonConfig::default());
    run_workload(&mut daemon, &cfg);

    let m = daemon.metrics();
    let snap = daemon.obs_snapshot_json();
    assert!(snap.contains("\"schema\": \"slin-obs/v1\""));
    let entry_for = |name: &str| -> &str {
        snap.lines()
            .find(|l| l.contains(&format!("\"name\": \"{name}\"")))
            .unwrap_or_else(|| panic!("snapshot lost {name}:\n{snap}"))
    };
    for (name, value) in [
        ("slin_daemon_frames_total", m.frames),
        ("slin_daemon_bytes_total", m.bytes),
        ("slin_daemon_sheds_total", m.sheds),
        ("slin_daemon_tenants", m.tenants as u64),
        ("slin_daemon_queue_depth_peak", m.queue_depth_peak as u64),
    ] {
        let entry = entry_for(name);
        assert!(
            entry.contains(&format!("\"value\": {value}")),
            "{name}: want {value} in `{entry}`"
        );
    }
    // The latency histogram replaced the unbounded Vec: same quantile
    // surface, fixed memory.
    let entry = entry_for("slin_daemon_ingest_us");
    assert!(
        entry.contains(&format!("\"p50\": {}", m.p50_ingest_us)),
        "{entry}"
    );
    assert!(
        entry.contains(&format!("\"p99\": {}", m.p99_ingest_us)),
        "{entry}"
    );
    // Per-tenant labelled counters cover every checked event.
    let per_tenant: u64 = snap
        .lines()
        .filter(|l| l.contains("slin_daemon_tenant_events_total"))
        .map(|l| {
            let at = l.find("\"value\": ").unwrap() + "\"value\": ".len();
            l[at..]
                .trim_end_matches([' ', '}', ','])
                .parse::<u64>()
                .unwrap()
        })
        .sum();
    assert_eq!(per_tenant, m.events);
}

/// The acceptance run: 1000 instrumented tenants under GC with deep
/// witness archives. The daemon must export a Prometheus page and a
/// Chrome trace, and every tenant whose report reconstructed from the
/// archive — violations included — must match its batch verdict byte for
/// byte despite the GC having retired the history.
#[test]
fn instrumented_thousand_tenant_run_exports_and_round_trips_witnesses() {
    let cfg = LoadConfig {
        tenants: 1000,
        steps_per_tenant: 30,
        clients: 3,
        keys: 3,
        tenant_skew: 1.0,
        error_prob: 0.08,
        chunk_frames: 256,
        seed: 42,
    };
    let policy = TenantPolicy {
        queue_capacity: usize::MAX,
        window: Some(8),
        gc: GcPolicy {
            archive_windows: 1024,
            ..GcPolicy::default()
        },
        shed_lossy: false,
        keyed: false,
    };
    let stack = Arc::new(StackObserver::with_tracing(1 << 14));
    let mut daemon = Daemon::with_observer(
        DaemonConfig {
            workers: 4,
            default_policy: policy,
        },
        stack,
    );
    let workload = run_workload(&mut daemon, &cfg);
    assert_eq!(daemon.tenants(), 1000);

    // Prometheus exposition: engine, monitor, GC, archive, and daemon
    // series all present on one page.
    let page = daemon.render_prometheus();
    for series in [
        "# TYPE slin_monitor_ingest_events_total counter",
        "# TYPE slin_gc_cuts_total counter",
        "# TYPE slin_archive_windows_total counter",
        "# TYPE slin_daemon_ingest_us histogram",
        "slin_daemon_tenant_events_total{tenant=\"1\"}",
        "slin_daemon_lane_pumps_total",
    ] {
        assert!(page.contains(series), "missing `{series}` in:\n{page}");
    }

    // Perfetto export: a Chrome trace-event document with monitor spans.
    let trace = daemon.chrome_trace_json().expect("tracing enabled");
    assert!(
        trace.starts_with("{\n  \"traceEvents\": ["),
        "{}",
        &trace[..60]
    );
    assert!(trace.contains("\"monitor.ingest\""));
    assert!(trace.contains("\"ph\": \"X\""));
    assert!(trace.trim_end().ends_with('}'));

    // Witness round-trip: every reconstructed tenant matches batch.
    let mut reconstructed = 0usize;
    let mut reconstructed_violations = 0usize;
    for tenant in daemon.tenant_ids() {
        let reference = workload.reference[&tenant].clone();
        let session = daemon.tenant_session_mut(tenant).unwrap();
        let report = session.report().expect("streamed tenants report");
        if !report.reconstructed {
            continue;
        }
        reconstructed += 1;
        let mut batch = Checker::builder(tenant_model())
            .partitioner(KvKeyPartitioner)
            .build::<Vec<KvInput>>();
        let expected = batch.check(&reference);
        assert_eq!(
            format!("{:?}", report.verdict),
            format!("{:?}", expected.outcome),
            "tenant {tenant}: reconstructed report must equal batch"
        );
        if report.verdict.is_err() {
            reconstructed_violations += 1;
        }
    }
    assert!(
        reconstructed > 100,
        "GC retired windows on only {reconstructed} tenants"
    );
    assert!(
        reconstructed_violations > 0,
        "no violation survived GC via the archive"
    );

    // Archive accounting made it to the registry.
    assert!(page.contains("slin_archive_windows_total"));
    let m = daemon.metrics();
    assert!(m.events > 0 && m.frames > 0);
}
