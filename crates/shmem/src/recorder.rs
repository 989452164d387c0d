//! A concurrent trace recorder for the shared-memory algorithms.
//!
//! Threads append object-interface events as they cross them: an invocation
//! is recorded *before* the operation's first shared access and a response
//! *after* its last, so the recorded real-time order is a sub-order of the
//! actual one — if the recorded trace is linearizable, so was the actual
//! execution.

use crate::ConsAction;
use slin_adt::consensus::{ConsInput, ConsOutput, Value};
use slin_trace::{Action, ClientId, PhaseId, Trace};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A lock-protected global event log.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    events: Mutex<Vec<ConsAction>>,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// The log, poisoned or not: a recorder thread that panicked must not
    /// hide the trace the test wants to print, and every update is one
    /// `push`, so the log is valid at every step.
    fn events(&self) -> MutexGuard<'_, Vec<ConsAction>> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records `inv(c, phase, p(v))`.
    pub fn invoke(&self, c: ClientId, phase: PhaseId, v: Value) {
        self.events()
            .push(Action::invoke(c, phase, ConsInput::propose(v)));
    }

    /// Records `res(c, phase, p(input), d(decided))`.
    pub fn respond(&self, c: ClientId, phase: PhaseId, input: Value, decided: Value) {
        self.events().push(Action::respond(
            c,
            phase,
            ConsInput::propose(input),
            ConsOutput::decide(decided),
        ));
    }

    /// Records `swi(c, phase, p(input), v)`.
    pub fn switch(&self, c: ClientId, phase: PhaseId, input: Value, value: Value) {
        self.events()
            .push(Action::switch(c, phase, ConsInput::propose(input), value));
    }

    /// Extracts the recorded trace.
    pub(crate) fn into_trace(self) -> Trace<ConsAction> {
        Trace::from_actions(
            self.events
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_emission_order() {
        let r = TraceRecorder::new();
        let c = ClientId::new(1);
        r.invoke(c, PhaseId::new(1), Value::new(5));
        r.respond(c, PhaseId::new(1), Value::new(5), Value::new(5));
        let t = r.into_trace();
        assert_eq!(t.len(), 2);
        assert!(t[0].is_invoke() && t[1].is_respond());
    }
}
