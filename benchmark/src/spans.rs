//! Bench-side spans: recorded around every public call the harness makes,
//! kept in memory, and written as Chrome trace-event JSON at exit.
//!
//! A span is `{name, start_ns, end_ns, id, parent, unit}`. The harness
//! records its own spans on the main thread with [`Recorder::enter`] /
//! [`Recorder::exit`]; the events the program already emits through the
//! `slin_obs::Observer` seam are added afterwards with
//! [`Recorder::adopt`], which also gives every span its parent. A layer's
//! self time ([`self_times`]) is its span minus the part of that interval
//! its children cover.

use crate::json::Json;
use std::time::Instant;

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index into the recorder's span list.
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// The latency unit (chunk, event or trace index) the span belongs to;
    /// spans of one unit share it.
    pub unit: u64,
    /// Logical thread the span ran on.
    pub tid: u64,
    /// Whether the span came from the program's observer seam rather than
    /// from the harness.
    pub observed: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans in memory.
pub struct Recorder {
    origin: Instant,
    main_tid: u64,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// A recorder whose clock starts now, on the calling (main) thread.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            main_tid: slin_obs::current_tid(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a harness span around the call that follows.
    pub fn enter(&mut self, name: &'static str, unit: u64) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.open.push(id);
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            id,
            parent,
            unit,
            tid: self.main_tid,
            observed: false,
        });
        // Read the clock last, so the bookkeeping above is outside the span.
        self.spans[id as usize].start_ns = self.now_ns();
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id as usize].end_ns = end;
    }

    /// Adds spans observed through the program's `Observer` seam (any
    /// thread) and assigns parents to every span: innermost enclosing span
    /// of the same thread, else the enclosing harness span.
    pub fn adopt(&mut self, observed: impl IntoIterator<Item = (&'static str, u64, u64, u64)>) {
        assert!(self.open.is_empty(), "adopt after the pass has finished");
        for (name, start_ns, end_ns, tid) in observed {
            let id = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: end_ns.max(start_ns),
                id,
                parent: None,
                unit: 0,
                tid,
                observed: true,
            });
        }
        assign_parents(&mut self.spans, self.main_tid);
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto).
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::str(s.name)),
                    (
                        "cat",
                        Json::str(if s.observed { "program" } else { "bench" }),
                    ),
                    ("ph", Json::str("X")),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(s.tid as f64)),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                    (
                        "args",
                        Json::obj(vec![
                            ("id", Json::Num(s.id as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("unit", Json::Num(s.unit as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }
}

/// Observed spans carry microsecond timestamps when they come from the
/// program's own `TraceBuffer`; containment is judged with this slack.
const SLACK_NS: u64 = 2_000;

/// Recomputes every span's parent: per thread, the innermost span whose
/// interval contains it; a span with no enclosing span on its own thread
/// is adopted by the innermost main-thread harness span containing it in
/// time. Children inherit their parent's unit.
pub fn assign_parents(spans: &mut [Span], main_tid: u64) {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // Outer spans first: earlier start, then later end, then harness
    // before observed (a harness span encloses what it calls).
    order.sort_by_key(|&i| {
        let s = &spans[i];
        (s.tid, s.start_ns, u64::MAX - s.end_ns, s.observed, s.id)
    });
    let contains = |outer: &Span, inner: &Span| {
        outer.start_ns <= inner.start_ns + SLACK_NS && inner.end_ns <= outer.end_ns + SLACK_NS
    };
    let mut roots: Vec<usize> = Vec::new();
    let mut stack: Vec<usize> = Vec::new();
    let mut tid = None;
    for &i in &order {
        if tid != Some(spans[i].tid) {
            tid = Some(spans[i].tid);
            stack.clear();
        }
        while let Some(&top) = stack.last() {
            if contains(&spans[top], &spans[i]) {
                break;
            }
            stack.pop();
        }
        match stack.last() {
            Some(&top) => {
                spans[i].parent = Some(spans[top].id);
                spans[i].unit = spans[top].unit;
            }
            None => {
                spans[i].parent = None;
                if spans[i].tid != main_tid {
                    roots.push(i);
                }
            }
        }
        stack.push(i);
    }
    // Cross-thread adoption: worker-thread roots hang off the harness span
    // that was open on the main thread while they ran.
    let mut harness: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].tid == main_tid && !spans[i].observed)
        .collect();
    harness.sort_by_key(|&i| spans[i].start_ns);
    for i in roots {
        let at = harness.partition_point(|&h| spans[h].start_ns <= spans[i].start_ns + SLACK_NS);
        let mut candidate = at.checked_sub(1).map(|k| harness[k]);
        while let Some(c) = candidate {
            if contains(&spans[c], &spans[i]) {
                spans[i].parent = Some(spans[c].id);
                spans[i].unit = spans[c].unit;
                break;
            }
            candidate = spans[c].parent.map(|p| p as usize);
        }
    }
    // Units flow down from adopted roots to their descendants.
    for &i in &order {
        if let Some(p) = spans[i].parent {
            if spans[i].observed {
                spans[i].unit = spans[p as usize].unit;
            }
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children may overlap one another when they
/// ran on parallel threads, so their union is taken, clipped to the
/// parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.clamp(parent.start_ns, parent.end_ns);
            let end = s.end_ns.clamp(parent.start_ns, parent.end_ns);
            children[p as usize].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.dur_ns() - union_len(kids))
        .collect()
}

/// Total length covered by a set of intervals.
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, name: &'static str, start: u64, end: u64, tid: u64, observed: bool) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            id,
            parent: None,
            unit: if observed { 0 } else { id as u64 + 100 },
            tid,
            observed,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_nested_children() {
        // unit[0,100k] ⊃ pump[10k,90k]; two lanes on other threads overlap
        // inside pump: [20k,50k] and [30k,80k]; a fallback search nests in
        // the second lane.
        let mut spans = vec![
            span(0, "unit", 0, 100_000, 1, false),
            span(1, "pump", 10_000, 90_000, 1, false),
            span(2, "lane", 20_000, 50_000, 2, true),
            span(3, "lane", 30_000, 80_000, 3, true),
            span(4, "search", 40_000, 70_000, 3, true),
        ];
        assign_parents(&mut spans, 1);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1), "worker root adopted by pump");
        assert_eq!(spans[3].parent, Some(1));
        assert_eq!(spans[4].parent, Some(3), "same-thread nesting wins");
        assert_eq!(spans[4].unit, 100, "units flow down from the harness span");
        let own = self_times(&spans);
        assert_eq!(own[0], 20_000, "unit minus pump");
        assert_eq!(
            own[1], 20_000,
            "pump minus the union [20k,80k] of its lanes"
        );
        assert_eq!(own[2], 30_000);
        assert_eq!(own[3], 20_000, "lane minus its search");
        assert_eq!(own[4], 30_000);
        // Self times of a tree whose children never overlap sum to the root.
        let mut chain = vec![
            span(0, "a", 0, 1_000_000, 1, false),
            span(1, "b", 100_000, 400_000, 1, false),
            span(2, "c", 500_000, 900_000, 1, true),
        ];
        assign_parents(&mut chain, 1);
        assert_eq!(self_times(&chain).iter().sum::<u64>(), 1_000_000);
    }

    #[test]
    fn recorder_nests_and_exports() {
        let mut r = Recorder::new();
        let outer = r.enter("outer", 7);
        let inner = r.enter("inner", 7);
        r.exit(inner);
        r.exit(outer);
        assert_eq!(r.spans[1].parent, Some(0));
        let (start, end) = (r.spans[1].start_ns, r.spans[1].end_ns);
        r.adopt([("observed", start, end, slin_obs::current_tid())]);
        assert_eq!(
            r.spans[2].parent,
            Some(1),
            "harness spans enclose observed ones"
        );
        let text = r.chrome_trace().compact();
        assert!(text.contains("\"traceEvents\"") && text.contains("\"unit\": 7"));
    }

    #[test]
    fn union_of_intervals() {
        assert_eq!(union_len(&mut [(0, 10), (5, 20), (30, 40), (32, 35)]), 30);
        assert_eq!(union_len(&mut []), 0);
    }
}
