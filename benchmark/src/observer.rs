//! The bench-side `slin_obs::Observer`: collects, with timing, the
//! `engine.search` / `monitor.ingest` / `gc.cut` / `daemon.lane_pump`
//! events the program already emits. Sessions take it directly; the
//! daemon's constructor only takes a `StackObserver`, so for the daemon
//! the same events are read back from that observer's span ring
//! ([`from_stack`]).

use slin_obs::{
    CutOutcome, EngineSearchEvent, GcCutEvent, LanePumpEvent, Observer, ShardIngestEvent,
    StackObserver,
};
use std::sync::Mutex;
use std::time::Instant;

/// What an observed event was.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// An engine chain search reported from `site`.
    Search {
        site: Site,
        nodes: u64,
        memo_hits: u64,
    },
    /// One event through a monitor shard.
    Ingest { fell_back: bool },
    /// One epoch-GC cut attempt.
    Cut { outcome: CutOutcome },
    /// One daemon lane drain.
    LanePump,
}

/// Where an engine search was driven from (`EngineSearchEvent::site`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    SessionCheck,
    ShardFallback,
    ShardWindowSearch,
    Other,
}

impl Site {
    const KNOWN: [(&'static str, Site); 3] = [
        ("session.check", Site::SessionCheck),
        ("shard.fallback", Site::ShardFallback),
        ("shard.window_search", Site::ShardWindowSearch),
    ];

    fn of(site: &str) -> Site {
        Site::KNOWN
            .iter()
            .find(|(name, _)| *name == site)
            .map_or(Site::Other, |(_, s)| *s)
    }

    /// `StackObserver` spans carry the site as a numeric code (trace-event
    /// args there are numeric): `slin_obs`'s private `site_code`, an
    /// FNV-1a-shaped hash with its own multiplier, mirrored here. A site
    /// whose code does not match is reported as `Other`, and the unit test
    /// below fails if the two ever drift apart.
    fn of_code(code: u64) -> Site {
        let site_code = |site: &str| {
            site.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
            })
        };
        Site::KNOWN
            .iter()
            .find(|(name, _)| site_code(name) == code)
            .map_or(Site::Other, |(_, s)| *s)
    }
}

/// One observed event with its interval on the recorder's clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observed {
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
    pub tid: u64,
}

impl Observed {
    pub fn name(&self) -> &'static str {
        match self.kind {
            Kind::Search { site, .. } => match site {
                Site::SessionCheck => "engine.search.check",
                Site::ShardFallback => "engine.search.fallback",
                Site::ShardWindowSearch => "engine.search.window",
                Site::Other => "engine.search.other",
            },
            Kind::Ingest { .. } => "monitor.ingest",
            Kind::Cut { .. } => "gc.cut",
            Kind::LanePump => "daemon.lane_pump",
        }
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The observer installed on traced sessions.
pub struct BenchObserver {
    origin: Instant,
    events: Mutex<Vec<Observed>>,
}

impl BenchObserver {
    /// An observer stamping events on the clock that started at `origin`
    /// (the span recorder's).
    pub fn new(origin: Instant) -> Self {
        BenchObserver {
            origin,
            events: Mutex::new(Vec::new()),
        }
    }

    fn push(&self, kind: Kind, t0: Option<Instant>) {
        let end = Instant::now();
        let start = t0.unwrap_or(end);
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.events
            .lock()
            .expect("an observer callback panicked")
            .push(Observed {
                kind,
                start_ns: ns(start),
                end_ns: ns(end),
                tid: slin_obs::current_tid(),
            });
    }

    /// Everything observed so far, leaving the observer empty.
    pub fn take(&self) -> Vec<Observed> {
        std::mem::take(&mut *self.events.lock().expect("an observer callback panicked"))
    }
}

impl Observer for BenchObserver {
    fn wants_timing(&self) -> bool {
        true
    }

    fn engine_search(&self, ev: &EngineSearchEvent) {
        self.push(
            Kind::Search {
                site: Site::of(ev.site),
                nodes: ev.nodes,
                memo_hits: ev.memo_hits,
            },
            ev.t0,
        );
    }

    fn shard_ingest(&self, ev: &ShardIngestEvent) {
        self.push(
            Kind::Ingest {
                fell_back: ev.fell_back,
            },
            ev.t0,
        );
    }

    fn gc_cut(&self, ev: &GcCutEvent) {
        self.push(
            Kind::Cut {
                outcome: ev.outcome,
            },
            ev.t0,
        );
    }

    fn lane_pump(&self, ev: &LanePumpEvent) {
        self.push(Kind::LanePump, ev.t0);
    }
}

/// Reads the same events back from a tracing `StackObserver` (the only
/// observer type `Daemon::with_observer` takes), shifted onto the clock
/// that started at `origin`. Returns the events and the spans the ring
/// dropped.
pub fn from_stack(stack: &StackObserver, origin: Instant) -> (Vec<Observed>, u64) {
    let Some(tracer) = stack.tracer() else {
        return (Vec::new(), 0);
    };
    let shift = tracer.origin().saturating_duration_since(origin).as_nanos() as u64;
    let events = tracer
        .events()
        .into_iter()
        .filter_map(|ev| {
            let arg = |key: &str| {
                ev.args
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map_or(0, |(_, v)| *v)
            };
            let kind = match ev.name {
                "engine.search" => Kind::Search {
                    site: Site::of_code(arg("site")),
                    nodes: arg("nodes"),
                    memo_hits: arg("memo_hits"),
                },
                "monitor.ingest" => Kind::Ingest {
                    fell_back: arg("fell_back") != 0,
                },
                "gc.cut" => Kind::Cut {
                    outcome: match arg("outcome") {
                        0 => CutOutcome::Retired,
                        1 => CutOutcome::RetiredInvokeOnly,
                        2 => CutOutcome::RetiredLossy,
                        _ => CutOutcome::Blocked,
                    },
                },
                "daemon.lane_pump" => Kind::LanePump,
                _ => return None,
            };
            let start_ns = shift + ev.ts_us * 1_000;
            Some(Observed {
                kind,
                start_ns,
                end_ns: start_ns + ev.dur_us * 1_000,
                tid: ev.tid,
            })
        })
        .collect();
    (events, tracer.dropped())
}

#[cfg(test)]
mod tests {
    use super::*;
    use slin_obs::Obs;
    use std::sync::Arc;

    #[test]
    fn both_sources_report_the_same_events() {
        let origin = Instant::now();
        let bench = Arc::new(BenchObserver::new(origin));
        let stack = Arc::new(StackObserver::with_tracing(64));
        for obs in [Obs::new(bench.clone()), Obs::new(stack.clone())] {
            obs.engine_search(EngineSearchEvent {
                site: "shard.fallback",
                nodes: 42,
                memo_hits: 3,
                budget_exhausted: false,
                t0: obs.t0(),
            });
            obs.gc_cut(GcCutEvent {
                outcome: CutOutcome::Blocked,
                window_events: 8,
                t0: obs.t0(),
            });
        }
        let direct = bench.take();
        let (ring, dropped) = from_stack(&stack, origin);
        assert_eq!(dropped, 0);
        let kinds = |v: &[Observed]| v.iter().map(|e| e.kind).collect::<Vec<_>>();
        assert_eq!(kinds(&direct), kinds(&ring));
        assert_eq!(
            direct[0].kind,
            Kind::Search {
                site: Site::ShardFallback,
                nodes: 42,
                memo_hits: 3,
            }
        );
        assert!(bench.take().is_empty(), "take drains");
    }
}
