//! The Quorum speculation phase (client side).
//!
//! Section 2.1: a client broadcasts its proposal to all servers and waits.
//! A server accepts the first proposal it receives for the phase and echoes
//! it to everyone. The client:
//!
//! * **decides `v`** on unanimous `accept(v)` from *all* servers
//!   (two message delays end to end);
//! * **switches with its own proposal** upon seeing two different accept
//!   values (contention detected);
//! * **switches with a received accept value** when its timer expires while
//!   at least one accept has arrived (faults or loss suspected);
//! * **retries the broadcast** when the timer expires with no accepts.
//!
//! The state machine is synchronous-code-free: it consumes events and
//! returns a [`QuorumStep`] telling the embedding client what to do.

use crate::msg::Msg;
use slin_adt::consensus::Value;
use slin_sim::{Context, ProcessId};
use std::collections::HashMap;

/// What the embedding client must do after feeding an event to the phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuorumStep {
    /// Keep waiting.
    Continue,
    /// Decide the value (respond to the application).
    Decide(Value),
    /// Switch to the next phase with the given switch value.
    Switch(Value),
    /// Re-broadcast the proposal and re-arm the timer (timeout, nothing
    /// received yet).
    Rebroadcast,
}

/// Client-side state of one Quorum fast phase.
#[derive(Debug, Clone)]
pub struct QuorumPhase {
    slot: u32,
    proposal: Value,
    servers: Vec<ProcessId>,
    accepts: HashMap<ProcessId, Value>,
}

impl QuorumPhase {
    /// Creates the phase for fast-phase `slot`, proposing `proposal` to
    /// `servers`.
    pub fn new(slot: u32, proposal: Value, servers: Vec<ProcessId>) -> Self {
        assert!(!servers.is_empty(), "at least one server");
        QuorumPhase {
            slot,
            proposal,
            servers,
            accepts: HashMap::new(),
        }
    }

    /// The phase's slot.
    pub fn slot(&self) -> u32 {
        self.slot
    }

    /// The value this client proposes in the phase.
    pub fn proposal(&self) -> Value {
        self.proposal
    }

    /// Broadcasts the proposal to all servers.
    pub fn begin<E>(&self, ctx: &mut Context<'_, Msg, E>) {
        ctx.broadcast(
            self.servers.iter().copied(),
            Msg::Proposal {
                slot: self.slot,
                value: self.proposal,
            },
        );
    }

    /// Feeds an accept message for this slot.
    pub(crate) fn on_accept(&mut self, from: ProcessId, value: Value) -> QuorumStep {
        self.accepts.insert(from, value);
        let mut values = self.accepts.values();
        let first = *values.next().expect("just inserted");
        if values.any(|v| *v != first) {
            // Two different accepts: contention — switch with own proposal.
            return QuorumStep::Switch(self.proposal);
        }
        if self.accepts.len() == self.servers.len() {
            // Unanimous accepts from all servers: decide.
            return QuorumStep::Decide(first);
        }
        QuorumStep::Continue
    }

    /// Feeds a timer expiry.
    pub(crate) fn on_timeout(&mut self) -> QuorumStep {
        match self.accepts.values().next() {
            // Some accept received: switch with that value.
            Some(v) => QuorumStep::Switch(*v),
            // Nothing yet: retry (the paper's client waits; retrying is
            // equivalent since servers answer idempotently).
            None => QuorumStep::Rebroadcast,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn servers(n: u32) -> Vec<ProcessId> {
        // ProcessId construction is private; obtain ids from a simulation.
        let mut sim: slin_sim::Simulation<Msg, ()> =
            slin_sim::Simulation::new(slin_sim::SimConfig::default());
        (0..n).map(|_| sim.add_process(Box::new(Sink))).collect()
    }

    struct Sink;
    impl slin_sim::Process<Msg, ()> for Sink {
        fn on_message(&mut self, _: &mut Context<'_, Msg, ()>, _: ProcessId, _: Msg) {}
    }

    #[test]
    fn unanimous_accepts_decide() {
        let ss = servers(3);
        let mut q = QuorumPhase::new(1, Value::new(7), ss.clone());
        assert_eq!(q.on_accept(ss[0], Value::new(7)), QuorumStep::Continue);
        assert_eq!(q.on_accept(ss[1], Value::new(7)), QuorumStep::Continue);
        assert_eq!(
            q.on_accept(ss[2], Value::new(7)),
            QuorumStep::Decide(Value::new(7))
        );
    }

    #[test]
    fn client_may_decide_anothers_value() {
        let ss = servers(2);
        let mut q = QuorumPhase::new(1, Value::new(7), ss.clone());
        assert_eq!(q.on_accept(ss[0], Value::new(3)), QuorumStep::Continue);
        assert_eq!(
            q.on_accept(ss[1], Value::new(3)),
            QuorumStep::Decide(Value::new(3))
        );
    }

    #[test]
    fn conflicting_accepts_switch_with_own_proposal() {
        let ss = servers(3);
        let mut q = QuorumPhase::new(1, Value::new(7), ss.clone());
        q.on_accept(ss[0], Value::new(1));
        assert_eq!(
            q.on_accept(ss[1], Value::new(2)),
            QuorumStep::Switch(Value::new(7))
        );
    }

    #[test]
    fn timeout_with_accepts_switches_with_accept_value() {
        let ss = servers(3);
        let mut q = QuorumPhase::new(1, Value::new(7), ss.clone());
        q.on_accept(ss[0], Value::new(3));
        assert_eq!(q.on_timeout(), QuorumStep::Switch(Value::new(3)));
    }

    #[test]
    fn timeout_without_accepts_rebroadcasts() {
        let ss = servers(3);
        let mut q = QuorumPhase::new(1, Value::new(7), ss);
        assert_eq!(q.on_timeout(), QuorumStep::Rebroadcast);
    }

    #[test]
    fn duplicate_accepts_do_not_decide_early() {
        let ss = servers(3);
        let mut q = QuorumPhase::new(1, Value::new(7), ss.clone());
        q.on_accept(ss[0], Value::new(7));
        assert_eq!(q.on_accept(ss[0], Value::new(7)), QuorumStep::Continue);
    }
}
