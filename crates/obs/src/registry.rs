//! Metrics registry with Prometheus-style exposition and a versioned JSON
//! snapshot.
//!
//! Registration (name + label resolution) takes the registry lock once; the
//! returned [`Counter`] / [`Gauge`] / [`Histogram`] handles are plain `Arc`s
//! over atomics, so the hot path is a relaxed atomic RMW with no locking.
//! Handles for a given `(name, labels)` pair are shared: registering the same
//! series twice returns the same underlying cells.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::hist::{bucket_bounds, LogHistogram, BUCKETS};

/// Monotonically increasing counter handle.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<std::sync::atomic::AtomicU64>);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `v`.
    #[inline]
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, std::sync::atomic::Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Instantaneous signed gauge handle.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<std::sync::atomic::AtomicI64>);

impl Gauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, std::sync::atomic::Ordering::Relaxed);
    }

    /// Adds `v` (may be negative).
    #[inline]
    pub fn add(&self, v: i64) {
        self.0.fetch_add(v, std::sync::atomic::Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if it is below it (running maximum).
    #[inline]
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, std::sync::atomic::Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Shared log-scale histogram handle (see [`LogHistogram`]).
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<LogHistogram>);

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.record(v);
    }

    /// The underlying histogram, for quantile reads.
    pub fn inner(&self) -> &LogHistogram {
        &self.0
    }
}

#[derive(Clone)]
enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A fully-qualified series key: metric name plus sorted label pairs.
type Key = (&'static str, Vec<(&'static str, String)>);

/// Registry of named metric series.
///
/// Series names are `&'static str` by design: instrumentation sites resolve
/// their handles once (at observer installation, or when a daemon creates a
/// tenant) and pay only atomic increments afterwards, so the one lock is
/// taken only to register and to render.
#[derive(Default)]
pub struct Registry {
    series: Mutex<BTreeMap<Key, Series>>,
}

fn sorted_labels(labels: &[(&'static str, String)]) -> Vec<(&'static str, String)> {
    let mut l = labels.to_vec();
    l.sort();
    l
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The series `name{labels}`, created by `new` if absent.
    fn resolve(
        &self,
        name: &'static str,
        labels: &[(&'static str, String)],
        new: fn() -> Series,
    ) -> Series {
        let key = (name, sorted_labels(labels));
        let mut series = self.series.lock().expect("registry");
        series.entry(key).or_insert_with(new).clone()
    }

    /// Resolves (or creates) the counter `name{labels}`.
    ///
    /// # Panics
    /// If the series was previously registered with a different kind.
    pub fn counter(&self, name: &'static str, labels: &[(&'static str, String)]) -> Counter {
        match self.resolve(name, labels, || Series::Counter(Counter::default())) {
            Series::Counter(c) => c,
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Resolves (or creates) the gauge `name{labels}`.
    ///
    /// # Panics
    /// If the series was previously registered with a different kind.
    pub fn gauge(&self, name: &'static str, labels: &[(&'static str, String)]) -> Gauge {
        match self.resolve(name, labels, || Series::Gauge(Gauge::default())) {
            Series::Gauge(g) => g,
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Resolves (or creates) the histogram `name{labels}`.
    ///
    /// # Panics
    /// If the series was previously registered with a different kind.
    pub fn histogram(&self, name: &'static str, labels: &[(&'static str, String)]) -> Histogram {
        match self.resolve(name, labels, || Series::Histogram(Histogram::default())) {
            Series::Histogram(h) => h,
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// A copy of every series handle, sorted by name then labels: rendering
    /// reads the atomics without holding the lock.
    fn collect(&self) -> BTreeMap<Key, Series> {
        self.series.lock().expect("registry").clone()
    }

    /// Renders the registry as a Prometheus text-format exposition page.
    ///
    /// Counters get a `# TYPE name counter` header, gauges `gauge`, and
    /// histograms are expanded into cumulative `_bucket{le="..."}` series plus
    /// `_sum` and `_count`, using the log-scale bucket upper bounds.
    pub fn render_prometheus(&self) -> String {
        let all = self.collect();
        let mut out = String::new();
        let mut last_name = "";
        for ((name, labels), series) in &all {
            if *name != last_name {
                let kind = match series {
                    Series::Counter(_) => "counter",
                    Series::Gauge(_) => "gauge",
                    Series::Histogram(_) => "histogram",
                };
                out.push_str(&format!("# TYPE {name} {kind}\n"));
                last_name = name;
            }
            match series {
                Series::Counter(c) => {
                    out.push_str(&format!("{name}{} {}\n", label_set(labels, None), c.get()));
                }
                Series::Gauge(g) => {
                    out.push_str(&format!("{name}{} {}\n", label_set(labels, None), g.get()));
                }
                Series::Histogram(h) => {
                    let counts = h.inner().bucket_counts();
                    let mut cum = 0u64;
                    for (i, c) in counts.iter().enumerate() {
                        cum += c;
                        if *c == 0 && i != BUCKETS - 1 {
                            continue; // keep the page compact: only occupied buckets + +Inf
                        }
                        let le = if i == BUCKETS - 1 {
                            "+Inf".to_string()
                        } else {
                            bucket_bounds(i).1.to_string()
                        };
                        out.push_str(&format!(
                            "{name}_bucket{} {cum}\n",
                            label_set(labels, Some(&le))
                        ));
                    }
                    out.push_str(&format!(
                        "{name}_sum{} {}\n",
                        label_set(labels, None),
                        h.inner().sum()
                    ));
                    out.push_str(&format!(
                        "{name}_count{} {}\n",
                        label_set(labels, None),
                        h.inner().count()
                    ));
                }
            }
        }
        out
    }

    /// Renders the registry as a versioned JSON snapshot (schema
    /// `"slin-obs/v1"`), deterministic up to the recorded values.
    ///
    /// Histograms are summarized as `count`/`sum`/`p50`/`p99` — the same
    /// quantile surface the daemon's typed `DaemonMetrics` summary reads.
    pub fn snapshot_json(&self) -> String {
        let all = self.collect();
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut hists = Vec::new();
        for ((name, labels), series) in &all {
            let head = format!(
                "{{ \"name\": {}, \"labels\": {}",
                json_str(name),
                labels_json(labels)
            );
            match series {
                Series::Counter(c) => {
                    counters.push(format!("{head}, \"value\": {} }}", c.get()));
                }
                Series::Gauge(g) => {
                    gauges.push(format!("{head}, \"value\": {} }}", g.get()));
                }
                Series::Histogram(h) => {
                    let inner = h.inner();
                    hists.push(format!(
                        "{head}, \"count\": {}, \"sum\": {}, \"p50\": {}, \"p99\": {} }}",
                        inner.count(),
                        inner.sum(),
                        inner.quantile(0.5),
                        inner.quantile(0.99)
                    ));
                }
            }
        }
        let section = |items: Vec<String>| {
            if items.is_empty() {
                "[]".to_string()
            } else {
                format!("[\n    {}\n  ]", items.join(",\n    "))
            }
        };
        format!(
            "{{\n  \"schema\": \"slin-obs/v1\",\n  \"counters\": {},\n  \"gauges\": {},\n  \"histograms\": {}\n}}\n",
            section(counters),
            section(gauges),
            section(hists)
        )
    }
}

fn label_set(labels: &[(&'static str, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}={}", json_str(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le={}", json_str(le)));
    }
    format!("{{{}}}", parts.join(","))
}

fn labels_json(labels: &[(&'static str, String)]) -> String {
    if labels.is_empty() {
        return "{}".to_string();
    }
    let parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!("{{ {} }}", parts.join(", "))
}

/// Escapes `s` as a JSON string literal (also valid as a Prometheus label
/// value, which uses the same backslash escapes).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_per_series() {
        let r = Registry::new();
        let a = r.counter("slin_test_total", &[("tenant", "3".to_string())]);
        let b = r.counter("slin_test_total", &[("tenant", "3".to_string())]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let other = r.counter("slin_test_total", &[("tenant", "4".to_string())]);
        assert_eq!(other.get(), 0);
    }

    #[test]
    fn prometheus_page_renders_all_kinds() {
        let r = Registry::new();
        r.counter("slin_events_total", &[]).add(7);
        r.gauge("slin_queue_depth", &[("lane", "0".to_string())])
            .set(5);
        r.histogram("slin_ingest_us", &[]).record(100);
        let page = r.render_prometheus();
        assert!(page.contains("# TYPE slin_events_total counter"));
        assert!(page.contains("slin_events_total 7"));
        assert!(page.contains("slin_queue_depth{lane=\"0\"} 5"));
        assert!(page.contains("# TYPE slin_ingest_us histogram"));
        assert!(page.contains("slin_ingest_us_count 1"));
        assert!(page.contains("le=\"+Inf\""));
    }

    #[test]
    fn snapshot_declares_v1_schema() {
        let r = Registry::new();
        r.counter("slin_frames_total", &[]).add(3);
        let snap = r.snapshot_json();
        assert!(snap.contains("\"schema\": \"slin-obs/v1\""));
        assert!(snap.contains("\"slin_frames_total\""));
        assert!(snap.contains("\"value\": 3"));
    }
}
