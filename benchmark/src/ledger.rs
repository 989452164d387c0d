//! The per-layer ledger: one row per layer, in nanoseconds per event,
//! summing (with the printed residue) to the traced pass's end-to-end
//! nanoseconds per event.
//!
//! Rows are wall-clock shares. Where two lanes run in parallel, the time
//! at least one lane was busy is split between the layers in proportion
//! to the lanes' summed self times, so the rows still add up to the wall.

use crate::spans::{self_times, Span};
use std::collections::BTreeMap;

/// Per-name totals over a span list.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Total {
    pub count: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
}

/// Sums durations and self times by span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Total> {
    let own = self_times(spans);
    let mut by_name: BTreeMap<&'static str, Total> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        let t = by_name.entry(s.name).or_default();
        t.count += 1;
        t.dur_ns += s.dur_ns();
        t.self_ns += own;
    }
    by_name
}

/// Sums, by name, the durations of observed spans under each top-level
/// harness span name (`root name → span name → ns`).
pub fn under_roots(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), u64> {
    let mut out = BTreeMap::new();
    for s in spans.iter().filter(|s| s.observed) {
        let mut root = s;
        while let Some(p) = root.parent {
            root = &spans[p as usize];
        }
        if !root.observed {
            *out.entry((root.name, s.name)).or_insert(0) += s.dur_ns();
        }
    }
    out
}

/// The ledger of one traced pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// `(layer, ns per event)`, in pipeline order.
    pub rows: Vec<(&'static str, f64)>,
    /// End-to-end nanoseconds per event of the traced pass.
    pub e2e_ns_per_event: f64,
    /// `(e2e − Σ rows) ÷ e2e`: harness loop overhead and clock reads.
    pub residue_frac: f64,
}

/// Every ledger row name, in pipeline order; a workload that does not
/// exercise a layer reports 0 for it.
pub const ROWS: [&str; 11] = [
    "wire_decode",
    "daemon_route",
    "daemon_pump_spawn",
    "daemon_drain",
    "daemon_poll",
    "stream_invoke",
    "stream_extend",
    "stream_fallback",
    "stream_gc",
    "partition_split",
    "session_check",
];

impl Ledger {
    /// Builds the ledger from absolute nanoseconds per row.
    pub fn new(wall_ns: u64, events: usize, ns: &[(&'static str, f64)]) -> Ledger {
        let events = events.max(1) as f64;
        let rows: Vec<(&'static str, f64)> = ROWS
            .iter()
            .map(|name| {
                let total: f64 = ns.iter().filter(|(n, _)| n == name).map(|(_, v)| *v).sum();
                (*name, total / events)
            })
            .collect();
        debug_assert!(
            ns.iter().all(|(n, _)| ROWS.contains(n)),
            "unknown ledger row"
        );
        let e2e = wall_ns as f64 / events;
        let accounted: f64 = rows.iter().map(|(_, v)| v).sum();
        Ledger {
            rows,
            e2e_ns_per_event: e2e,
            residue_frac: if e2e > 0.0 {
                (e2e - accounted) / e2e
            } else {
                0.0
            },
        }
    }

    pub fn row(&self, name: &str) -> f64 {
        self.rows
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// `fleet-calm`: decode and route inside `ingest_bytes`, the pump's own
/// spawn/join cost, the lanes' time split by layer, and the poll.
pub fn fleet(spans: &[Span], wall_ns: u64, events: usize, decode_total_ns: f64) -> Ledger {
    let t = totals(spans);
    let get = |name: &str| t.get(name).copied().unwrap_or_default();
    let ingest = get("daemon.ingest_bytes").dur_ns as f64;
    let decode = decode_total_ns.min(ingest);
    let pump = get("daemon.pump");
    // The part of the pumps during which at least one lane was busy.
    let covered = (pump.dur_ns - pump.self_ns) as f64;
    let lane = get("daemon.lane_pump");
    let shard_ingest = get("monitor.ingest");
    let fallback = get("engine.search.fallback").dur_ns as f64;
    let gc = get("gc.cut").dur_ns as f64;
    let busy = lane.dur_ns as f64;
    let share = |ns: f64| if busy > 0.0 { covered * ns / busy } else { 0.0 };
    Ledger::new(
        wall_ns,
        events,
        &[
            ("wire_decode", decode),
            ("daemon_route", ingest - decode),
            ("daemon_pump_spawn", pump.self_ns as f64),
            ("daemon_drain", share(lane.self_ns as f64)),
            ("stream_extend", share(shard_ingest.self_ns as f64)),
            ("stream_fallback", share(fallback)),
            ("stream_gc", share(gc)),
            ("daemon_poll", get("daemon.poll_verdicts").dur_ns as f64),
        ],
    )
}

/// `stream-*`: every `Session::ingest`, split into the invocation path,
/// the frontier tail-extension, the fallback re-searches and the GC cuts.
pub fn streams(spans: &[Span], wall_ns: u64, events: usize) -> Ledger {
    let t = totals(spans);
    let under = under_roots(spans);
    let get = |name: &str| t.get(name).copied().unwrap_or_default().dur_ns as f64;
    let below = |root: &'static str, name: &'static str| {
        under.get(&(root, name)).copied().unwrap_or(0) as f64
    };
    const INVOKE: &str = "session.ingest.invoke";
    const RESPOND: &str = "session.ingest.respond";
    let fallback = |root| below(root, "engine.search.fallback");
    let gc = |root| below(root, "gc.cut");
    Ledger::new(
        wall_ns,
        events,
        &[
            ("stream_invoke", get(INVOKE) - fallback(INVOKE) - gc(INVOKE)),
            (
                "stream_extend",
                get(RESPOND) - fallback(RESPOND) - gc(RESPOND),
            ),
            ("stream_fallback", fallback(INVOKE) + fallback(RESPOND)),
            ("stream_gc", gc(INVOKE) + gc(RESPOND)),
        ],
    )
}

/// `batch-*`: every `Session::check`, of which the classify-and-split
/// share is taken from its isolated replay.
pub fn batch(spans: &[Span], wall_ns: u64, events: usize, split_ns: f64) -> Ledger {
    let check = totals(spans)
        .get("session.check")
        .copied()
        .unwrap_or_default()
        .dur_ns as f64;
    let split = split_ns.min(check);
    Ledger::new(
        wall_ns,
        events,
        &[("partition_split", split), ("session_check", check - split)],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::assign_parents;

    fn span(id: u32, name: &'static str, start: u64, end: u64, tid: u64, observed: bool) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            id,
            parent: None,
            unit: 0,
            tid,
            observed,
        }
    }

    #[test]
    fn fleet_rows_sum_to_the_wall_minus_the_residue() {
        // One chunk: ingest 100µs (30 of them decode), pump 800µs with two
        // overlapping lanes, poll 50µs, 50µs of harness overhead.
        let mut spans = vec![
            span(0, "unit.chunk", 0, 1_000_000, 1, false),
            span(1, "daemon.ingest_bytes", 10_000, 110_000, 1, false),
            span(2, "daemon.pump", 120_000, 920_000, 1, false),
            span(3, "daemon.poll_verdicts", 930_000, 980_000, 1, false),
            span(4, "daemon.lane_pump", 200_000, 600_000, 2, true),
            span(5, "daemon.lane_pump", 300_000, 900_000, 3, true),
            span(6, "monitor.ingest", 320_000, 820_000, 3, true),
            span(7, "engine.search.fallback", 400_000, 700_000, 3, true),
        ];
        assign_parents(&mut spans, 1);
        let ledger = fleet(&spans, 1_000_000, 10, 30_000.0);
        let sum: f64 = ledger.rows.iter().map(|(_, v)| v).sum();
        assert!((ledger.e2e_ns_per_event - 100_000.0).abs() < 1e-6);
        assert!((sum - 95_000.0).abs() < 1e-6, "sum {sum}");
        assert!((ledger.residue_frac - 0.05).abs() < 1e-9);
        assert_eq!(ledger.row("wire_decode"), 3_000.0);
        assert_eq!(ledger.row("daemon_route"), 7_000.0);
        assert_eq!(ledger.row("daemon_pump_spawn"), 10_000.0, "800 − union 700");
        // Busy 400 + 600 = 1000µs, covered 700µs; the fallback's 300µs of
        // lane time is 30 % of busy, so 210µs of wall.
        assert_eq!(ledger.row("stream_fallback"), 21_000.0);
    }

    #[test]
    fn stream_rows_split_ingest_by_what_ran_under_it() {
        let mut spans = vec![
            span(0, "session.ingest.invoke", 0, 1_000, 1, false),
            span(1, "session.ingest.respond", 2_000_000, 2_900_000, 1, false),
            span(2, "monitor.ingest", 2_100_000, 2_800_000, 1, true),
            span(3, "engine.search.fallback", 2_200_000, 2_700_000, 1, true),
            span(4, "gc.cut", 2_810_000, 2_890_000, 1, true),
            // The report after the clock stopped is no ledger row.
            span(5, "session.report", 3_000_000, 4_000_000, 1, false),
            span(6, "engine.search.window", 3_100_000, 3_900_000, 1, true),
        ];
        assign_parents(&mut spans, 1);
        let ledger = streams(&spans, 1_000_000, 2);
        assert_eq!(ledger.row("stream_invoke"), 500.0);
        assert_eq!(ledger.row("stream_fallback"), 250_000.0);
        assert_eq!(ledger.row("stream_gc"), 40_000.0);
        assert_eq!(ledger.row("stream_extend"), 160_000.0);
        let sum: f64 = ledger.rows.iter().map(|(_, v)| v).sum();
        assert!((sum - 450_500.0).abs() < 1e-6);
    }
}
