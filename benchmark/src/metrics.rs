//! Every metric the benchmark reports, by name, with its unit and which
//! way is better. `BENCHMARK.json` lists the same names (a unit test
//! compares the two).

/// `(name, unit, better)`.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// The share of the parent's median by which each end-to-end metric may
/// get worse before a change counts as a regression, in `END_TO_END`
/// order (mirrors `BENCHMARK.json`).
pub const BOUNDS: [f64; 2] = [0.25, 0.25];

/// What a user of the system sees, and what later changes are gated on.
/// Measured with tracing off; the same two on every workload. Failures
/// are not a metric here — the result line carries `failed` of
/// `attempted`, and any failure fails the run.
///
/// A user also sees latency percentiles and peak memory. They are
/// reported, by the same names, in the per-layer list: across seeds their
/// spread reaches or exceeds the widest bound the contract allows (the
/// median response on `stream-*` sits on the cliff between a 2 µs tail
/// extension and a millisecond re-search; p99 has ten samples beyond it;
/// `batch-refute`'s peak is the memo of its single largest search), and a
/// metric that cannot hold a bound is demoted, not given a wider one.
pub const END_TO_END: [MetricDef; 2] =
    [("events_per_s", "1/s", "higher"), ("setup_s", "s", "lower")];

/// Single layers (layer = module). Measured on the traced run and on
/// isolated replays of the same inputs. A layer a workload does not
/// exercise reports 0.
pub const PER_LAYER: [MetricDef; 77] = [
    ("latency_p50_us", "us", "lower"),
    ("latency_p99_us", "us", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("wire.encode_ns_per_frame", "ns", "lower"),
    ("wire.decode_ns_per_frame", "ns", "lower"),
    ("wire.bytes_per_frame", "bytes", "lower"),
    ("daemon.route_ns_per_frame", "ns", "lower"),
    ("daemon.pump_ns_per_event", "ns", "lower"),
    ("daemon.pump_spawn_us", "us", "lower"),
    ("daemon.poll_ns_per_tenant", "ns", "lower"),
    ("daemon.queue_depth_peak", "count", "lower"),
    ("daemon.sheds", "count", "lower"),
    ("daemon.lane_busy_frac", "frac", "higher"),
    ("daemon.lane_imbalance", "frac", "lower"),
    ("daemon.parallel_speedup", "x", "higher"),
    ("session.build_us", "us", "lower"),
    ("session.ingest_ns_per_event", "ns", "lower"),
    ("session.poll_verdict_ns", "ns", "lower"),
    ("session.report_ms", "ms", "lower"),
    ("session.check_mono_us_per_trace", "us", "lower"),
    ("session.check_auto_us_per_trace", "us", "lower"),
    ("partition.split_ns_per_event", "ns", "lower"),
    ("partition.partitions_mean", "count", "higher"),
    ("partition.remerged", "count", "lower"),
    ("partition.fallbacks", "count", "lower"),
    ("stream.ns_per_node", "ns", "lower"),
    ("stream.nodes_per_event", "count", "lower"),
    ("stream.invoke_ns", "ns", "lower"),
    ("stream.frontier_ns_per_commit", "ns", "lower"),
    ("stream.extension_searches", "count", "lower"),
    ("stream.frontier_peak", "count", "lower"),
    ("stream.retired_events", "count", "higher"),
    ("stream.fallback_searches", "count", "lower"),
    ("stream.fallback_ms_mean", "ms", "lower"),
    ("stream.fallback_time_frac", "frac", "lower"),
    ("stream.gc_cuts", "count", "higher"),
    ("stream.gc_lossy_cuts", "count", "lower"),
    ("stream.gc_blocked_cuts", "count", "lower"),
    ("stream.gc_cut_ms_mean", "ms", "lower"),
    ("stream.gc_time_frac", "frac", "lower"),
    ("stream.peak_live_configs", "count", "lower"),
    ("stream.peak_multiset_nodes", "count", "lower"),
    ("stream.peak_window_events", "count", "lower"),
    ("alloc.peak_live_mb", "MB", "lower"),
    ("engine.searches", "count", "lower"),
    ("engine.nodes", "count", "lower"),
    ("engine.ns_per_node", "ns", "lower"),
    ("engine.memo_hit_frac", "frac", "higher"),
    ("engine.memo_entries_per_search", "count", "lower"),
    ("engine.time_frac.session_check", "frac", "lower"),
    ("engine.time_frac.shard_fallback", "frac", "lower"),
    ("engine.time_frac.shard_window_search", "frac", "lower"),
    ("slin.interpretations_per_check", "count", "lower"),
    ("trace.pmultiset_insert_ns", "ns", "lower"),
    ("trace.pmultiset_hash_ns", "ns", "lower"),
    ("trace.pmultiset_subset_ns", "ns", "lower"),
    ("adt.kv_apply_ns", "ns", "lower"),
    ("analysis.certify_switch_ms", "ms", "lower"),
    ("alloc.allocs_per_event", "count", "lower"),
    ("alloc.bytes_per_event", "bytes", "lower"),
    ("ledger.wire_decode_ns_per_event", "ns", "lower"),
    ("ledger.daemon_route_ns_per_event", "ns", "lower"),
    ("ledger.daemon_pump_spawn_ns_per_event", "ns", "lower"),
    ("ledger.daemon_drain_ns_per_event", "ns", "lower"),
    ("ledger.daemon_poll_ns_per_event", "ns", "lower"),
    ("ledger.stream_invoke_ns_per_event", "ns", "lower"),
    ("ledger.stream_extend_ns_per_event", "ns", "lower"),
    ("ledger.stream_fallback_ns_per_event", "ns", "lower"),
    ("ledger.stream_gc_ns_per_event", "ns", "lower"),
    ("ledger.partition_split_ns_per_event", "ns", "lower"),
    ("ledger.session_check_ns_per_event", "ns", "lower"),
    ("ledger.e2e_ns_per_event", "ns", "lower"),
    ("ledger.residue_frac", "frac", "lower"),
    ("obs.trace_overhead_frac", "frac", "lower"),
    ("trace.dropped_spans", "count", "lower"),
    ("rep_spread_frac", "frac", "lower"),
    ("failed_frac", "frac", "lower"),
];

/// The unit of a metric, by name.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, _)| *unit)
        .unwrap_or_else(|| panic!("metric `{name}` is not defined in metrics.rs"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::Workload;

    /// `BENCHMARK.json` at the repo root must name exactly the metrics and
    /// workloads this binary reports.
    #[test]
    fn benchmark_json_lists_what_the_binary_reports() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("BENCHMARK.json has no `{key}` list");
            };
            items
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let own = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let Some(Json::Arr(e2e)) = doc.get("end_to_end") else {
            unreachable!()
        };
        let bounds: Vec<f64> = e2e
            .iter()
            .map(|m| m.get("bound").and_then(Json::as_f64).unwrap())
            .collect();
        assert_eq!(bounds, BOUNDS);
        let Some(Json::Arr(workloads)) = doc.get("workloads") else {
            panic!("BENCHMARK.json has no `workloads` list");
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::RUN_SECONDS)
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(["higher", "lower"].contains(better));
        }
        assert_eq!(unit_of("events_per_s"), "1/s");
    }
}
