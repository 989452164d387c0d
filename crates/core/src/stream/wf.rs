//! Rolling (per-event) well-formedness tracking.
//!
//! The batch checkers validate well-formedness on the closed trace
//! (`slin_trace::wf`); the monitor cannot afford an O(n) scan per event, so
//! this module replays the same per-client alternation automaton
//! incrementally. To report the *identical* [`WellFormednessError`] the
//! batch path would produce — its constructor is private, and its reason
//! strings are an API we must not fork — every violation records a minimal
//! **reproduction**: a bounded (≤ 4 action) synthetic client sub-trace that
//! drives `slin_trace::wf` into the same first error. Materialising the
//! error is then just running the real checker on the reproduction, which
//! keeps the monitor's error payloads byte-identical to the batch
//! checkers' forever, even after the stream's prefix has been garbage
//! collected.
//!
//! Client selection also mirrors the batch scan: `check_well_formed`
//! iterates clients in ascending id order and reports the first violating
//! client's first violation, which is exactly the first entry of the
//! tracker's ordered violation map.

use slin_trace::prop::Signature as _;
use slin_trace::wf::{check_phase_well_formed, check_well_formed, WellFormednessError};
use slin_trace::{Action, ClientId, PhaseId, PhaseSignature, Trace};
use std::collections::BTreeMap;

/// One client's alternation-automaton state plus the minimal prefix that
/// reproduces it (see module docs).
struct ClientWf<I, O, V> {
    pending: Option<I>,
    aborted: bool,
    started: bool,
    /// Minimal prefix reaching the *idle* (no pending, started) state.
    idle_prefix: Option<Vec<Action<I, O, V>>>,
    /// Minimal prefix reaching the current state.
    cur_prefix: Vec<Action<I, O, V>>,
    /// The first violation's reproduction (prefix + offending event).
    violation: Option<Vec<Action<I, O, V>>>,
}

impl<I, O, V> Default for ClientWf<I, O, V> {
    fn default() -> Self {
        ClientWf {
            pending: None,
            aborted: false,
            started: false,
            idle_prefix: None,
            cur_prefix: Vec::new(),
            violation: None,
        }
    }
}

/// Incremental replica of the batch well-formedness scan.
pub(crate) struct WfTracker<I, O, V> {
    /// `None` for plain object traces, `Some((m, n))` for phase traces.
    phase_bounds: Option<(PhaseId, PhaseId)>,
    clients: BTreeMap<ClientId, ClientWf<I, O, V>>,
    /// First action outside the phase signature (speculative traces only).
    pub first_foreign: Option<usize>,
}

impl<I, O, V> WfTracker<I, O, V>
where
    I: Clone + PartialEq,
    O: Clone,
    V: Clone,
{
    pub(crate) fn new(phase_bounds: Option<(PhaseId, PhaseId)>) -> Self {
        WfTracker {
            phase_bounds,
            clients: BTreeMap::new(),
            first_foreign: None,
        }
    }

    /// Whether any client's sub-trace has violated the automaton so far.
    pub(crate) fn has_violation(&self) -> bool {
        self.clients.values().any(|c| c.violation.is_some())
    }

    /// Materialises the batch-identical first error: ascending client id,
    /// that client's first violation (see module docs).
    pub(crate) fn first_error(&self) -> Option<WellFormednessError> {
        let (_, st) = self.clients.iter().find(|(_, st)| st.violation.is_some())?;
        let repro = Trace::from_actions(st.violation.clone().expect("checked"));
        let err = match self.phase_bounds {
            None => check_well_formed(&repro),
            Some((m, n)) => check_phase_well_formed(&repro, m, n),
        };
        match err {
            Err(e) => Some(e),
            Ok(()) => {
                debug_assert!(false, "violation reproduction failed to reproduce");
                None
            }
        }
    }

    /// Feeds the next stream event through the automaton.
    pub(crate) fn observe(&mut self, action: &Action<I, O, V>, index: usize) {
        if let Some((m, n)) = self.phase_bounds {
            // Signature membership (the speculative checker's first gate).
            let sig = PhaseSignature::new(m, n);
            if !sig.contains(action) && self.first_foreign.is_none() {
                self.first_foreign = Some(index);
            }
            // The (m, n)-client-sub-trace projects interior switches and
            // out-of-range invocations/responses away.
            let kept = match action {
                Action::Switch { phase, .. } => *phase == m || *phase == n,
                _ => action.phase().in_range(m, n.prev()),
            };
            if !kept {
                return;
            }
        }
        let st = self.clients.entry(action.client()).or_default();
        if st.violation.is_some() {
            return;
        }
        let violate = |st: &mut ClientWf<I, O, V>, a: &Action<I, O, V>| {
            let mut repro = st.cur_prefix.clone();
            repro.push(a.clone());
            st.violation = Some(repro);
        };
        if st.aborted {
            violate(st, action);
            return;
        }
        match action {
            Action::Invoke { input, .. } => {
                if !st.started {
                    if let Some((m, _)) = self.phase_bounds {
                        if m != PhaseId::FIRST {
                            violate(st, action);
                            return;
                        }
                    }
                    st.idle_prefix = Some(Vec::new());
                }
                if st.pending.is_some() {
                    violate(st, action);
                    return;
                }
                st.pending = Some(input.clone());
                let mut prefix = st.idle_prefix.clone().unwrap_or_default();
                prefix.push(action.clone());
                st.cur_prefix = prefix;
                st.started = true;
            }
            Action::Respond { input, .. } => match st.pending.take() {
                Some(p) if p == *input => {
                    st.cur_prefix.push(action.clone());
                    if st.idle_prefix.is_none() {
                        st.idle_prefix = Some(st.cur_prefix.clone());
                    } else {
                        st.cur_prefix = st.idle_prefix.clone().expect("set");
                    }
                    st.started = true;
                }
                _ => violate(st, action),
            },
            Action::Switch { phase, input, .. } => {
                let Some((m, n)) = self.phase_bounds else {
                    violate(st, action);
                    return;
                };
                if *phase == m {
                    // Init action: unique, first, impossible when m = 1.
                    if m == PhaseId::FIRST || st.started {
                        violate(st, action);
                        return;
                    }
                    st.pending = Some(input.clone());
                    st.cur_prefix = vec![action.clone()];
                    st.started = true;
                } else if *phase == n {
                    match st.pending.take() {
                        Some(p) if p == *input => {
                            st.aborted = true;
                            st.cur_prefix.push(action.clone());
                            st.started = true;
                        }
                        _ => violate(st, action),
                    }
                } else {
                    // Interior switches were filtered by the projection
                    // above; a plain-trace switch was handled by the `else`.
                    unreachable!("interior switch past the projection filter");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slin_trace::wf;

    type A = Action<u32, u32, u32>;

    fn c(n: u32) -> ClientId {
        ClientId::new(n)
    }
    fn ph(n: u32) -> PhaseId {
        PhaseId::new(n)
    }

    /// The tracker's materialised error equals the batch scan's on every
    /// prefix of a pile of adversarial traces.
    #[test]
    fn tracker_matches_batch_scan_on_plain_traces() {
        let traces: Vec<Vec<A>> = vec![
            vec![
                Action::invoke(c(1), ph(1), 5),
                Action::respond(c(1), ph(1), 5, 5),
            ],
            vec![Action::respond(c(1), ph(1), 5, 5)],
            vec![
                Action::invoke(c(1), ph(1), 5),
                Action::invoke(c(1), ph(1), 6),
            ],
            vec![
                Action::invoke(c(2), ph(1), 5),
                Action::respond(c(2), ph(1), 6, 6),
            ],
            vec![
                Action::invoke(c(2), ph(1), 5),
                Action::invoke(c(1), ph(1), 7),
                Action::respond(c(2), ph(1), 5, 5),
                Action::respond(c(1), ph(1), 9, 9),
            ],
            vec![
                Action::invoke(c(3), ph(1), 5),
                Action::switch(c(3), ph(2), 5, 9),
            ],
        ];
        for actions in traces {
            for cut in 0..=actions.len() {
                let prefix = &actions[..cut];
                let mut tracker: WfTracker<u32, u32, u32> = WfTracker::new(None);
                for (i, a) in prefix.iter().enumerate() {
                    tracker.observe(a, i);
                }
                let batch = wf::check_well_formed(&Trace::from_actions(prefix.to_vec()));
                assert_eq!(tracker.has_violation(), batch.is_err(), "{prefix:?}");
                assert_eq!(tracker.first_error(), batch.err(), "{prefix:?}");
            }
        }
    }

    /// Same differential for phase traces: init/abort switch discipline.
    #[test]
    fn tracker_matches_batch_scan_on_phase_traces() {
        let m = ph(2);
        let n = ph(3);
        let traces: Vec<Vec<A>> = vec![
            vec![
                Action::switch(c(1), m, 5, 9),
                Action::respond(c(1), m, 5, 5),
            ],
            vec![Action::invoke(c(1), m, 5)],
            vec![
                Action::switch(c(1), m, 5, 9),
                Action::switch(c(1), n, 5, 11),
                Action::invoke(c(1), m, 6),
            ],
            vec![
                Action::switch(c(1), m, 5, 9),
                Action::respond(c(1), m, 5, 5),
                Action::switch(c(1), m, 6, 9),
            ],
            vec![
                Action::switch(c(1), m, 5, 9),
                Action::switch(c(1), n, 6, 11),
            ],
            vec![Action::switch(c(2), m, 5, 9), Action::invoke(c(2), m, 6)],
        ];
        for actions in traces {
            for cut in 0..=actions.len() {
                let prefix = &actions[..cut];
                let mut tracker: WfTracker<u32, u32, u32> = WfTracker::new(Some((m, n)));
                for (i, a) in prefix.iter().enumerate() {
                    tracker.observe(a, i);
                }
                let batch =
                    wf::check_phase_well_formed(&Trace::from_actions(prefix.to_vec()), m, n);
                assert_eq!(tracker.has_violation(), batch.is_err(), "{prefix:?}");
                assert_eq!(tracker.first_error(), batch.err(), "{prefix:?}");
            }
        }
    }

    #[test]
    fn foreign_phase_actions_are_recorded() {
        let mut tracker: WfTracker<u32, u32, u32> = WfTracker::new(Some((ph(1), ph(2))));
        tracker.observe(&Action::invoke(c(1), ph(1), 5), 0);
        assert_eq!(tracker.first_foreign, None);
        tracker.observe(&Action::invoke(c(2), ph(3), 6), 1);
        assert_eq!(tracker.first_foreign, Some(1));
    }
}
