//! Ring-buffered span collector with a Chrome trace-event exporter.
//!
//! Spans are complete events (`ph: "X"` in the trace-event format): the
//! instrumentation site grabs a start instant, does its work, and records the
//! span with its duration and a handful of numeric arguments. The collector
//! keeps the most recent `capacity` spans in a ring; older spans are dropped
//! (and counted) so tracing a long-lived monitor has a hard memory bound.
//!
//! [`TraceBuffer::chrome_trace_json`] renders the ring as a JSON object
//! loadable by `chrome://tracing` and by Perfetto's trace viewer
//! (<https://ui.perfetto.dev> accepts the legacy Chrome JSON format
//! directly).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::registry::json_str;

/// One completed span.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// Span name, e.g. `"engine.search"`.
    pub name: &'static str,
    /// Trace-event category, e.g. `"engine"`, `"monitor"`, `"daemon"`.
    pub cat: &'static str,
    /// Start timestamp in microseconds since the buffer's origin.
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Logical thread id (assigned per OS thread, stable within a process).
    pub tid: u64,
    /// Numeric span arguments (e.g. `("nodes", 1234)`).
    pub args: Vec<(&'static str, u64)>,
}

/// Bounded in-memory span collector.
#[derive(Debug)]
pub struct TraceBuffer {
    origin: Instant,
    capacity: usize,
    ring: Mutex<VecDeque<SpanEvent>>,
    dropped: AtomicU64,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Logical id of the calling thread, stable for the thread's lifetime.
pub fn current_tid() -> u64 {
    TID.with(|t| *t)
}

impl TraceBuffer {
    /// Creates a collector retaining at most `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// The buffer's origin instant (spans record offsets from it).
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Records a completed span that started at `t0` on the calling thread.
    pub fn record(
        &self,
        name: &'static str,
        cat: &'static str,
        t0: Instant,
        args: Vec<(&'static str, u64)>,
    ) {
        let ts_us = t0.saturating_duration_since(self.origin).as_micros() as u64;
        let dur_us = t0.elapsed().as_micros() as u64;
        self.push(SpanEvent {
            name,
            cat,
            ts_us,
            dur_us,
            tid: current_tid(),
            args,
        });
    }

    /// Records a pre-built span event.
    pub fn push(&self, ev: SpanEvent) {
        let mut ring = self.ring.lock().expect("trace ring");
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(ev);
    }

    /// Number of spans evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Snapshot of the retained spans, oldest first.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.ring
            .lock()
            .expect("trace ring")
            .iter()
            .cloned()
            .collect()
    }

    /// Renders the retained spans as Chrome trace-event JSON.
    ///
    /// Events are sorted by start timestamp (stable, so equal timestamps keep
    /// insertion order) and emitted as complete (`"ph": "X"`) events — the
    /// format both `chrome://tracing` and Perfetto load directly.
    pub fn chrome_trace_json(&self) -> String {
        let mut events = self.events();
        events.sort_by_key(|e| e.ts_us);
        let mut out = String::from("{\n  \"traceEvents\": [");
        for (i, ev) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let args = if ev.args.is_empty() {
                "{}".to_string()
            } else {
                let parts: Vec<String> = ev
                    .args
                    .iter()
                    .map(|(k, v)| format!("{}: {v}", json_str(k)))
                    .collect();
                format!("{{ {} }}", parts.join(", "))
            };
            out.push_str(&format!(
                "\n    {{ \"name\": {}, \"cat\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}, \"args\": {} }}",
                json_str(ev.name),
                json_str(ev.cat),
                ev.tid,
                ev.ts_us,
                ev.dur_us,
                args
            ));
        }
        out.push_str("\n  ],\n  \"displayTimeUnit\": \"ms\"\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let buf = TraceBuffer::new(2);
        for i in 0..5 {
            buf.push(SpanEvent {
                name: "t",
                cat: "test",
                ts_us: i,
                dur_us: 1,
                tid: 1,
                args: vec![],
            });
        }
        assert_eq!(buf.events().len(), 2);
        assert_eq!(buf.dropped(), 3);
        assert_eq!(buf.events()[0].ts_us, 3);
    }

    #[test]
    fn export_sorts_by_timestamp() {
        let buf = TraceBuffer::new(8);
        for ts in [5u64, 1, 3] {
            buf.push(SpanEvent {
                name: "t",
                cat: "test",
                ts_us: ts,
                dur_us: 2,
                tid: 1,
                args: vec![("n", ts)],
            });
        }
        let json = buf.chrome_trace_json();
        let p1 = json.find("\"ts\": 1").expect("ts 1");
        let p3 = json.find("\"ts\": 3").expect("ts 3");
        let p5 = json.find("\"ts\": 5").expect("ts 5");
        assert!(p1 < p3 && p3 < p5);
        assert!(json.contains("\"traceEvents\""));
    }
}
