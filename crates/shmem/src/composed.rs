//! The composed shared-memory object: `RCons` + `CASCons`
//! (paper Section 2.5).
//!
//! A proposal first runs the register phase; on abort the client records a
//! switch action and calls into the CAS phase with the switch value —
//! exactly the composition pattern of the framework, with the switch value
//! as the only information crossing the phase boundary.
//!
//! The composition uses **only registers** in contention-free executions
//! (zero CAS operations) while remaining a correct wait-free consensus under
//! arbitrary concurrency — the motivating question of Section 2.5.

use crate::cascons::CasCons;
use crate::rcons::{RCons, RconsOutcome};
use crate::recorder::TraceRecorder;
use slin_adt::consensus::Value;
use slin_trace::{ClientId, PhaseId};

/// The speculative shared-memory consensus object.
///
/// # Example
///
/// ```
/// use slin_shmem::SpeculativeConsensus;
/// use slin_adt::Value;
/// let obj = SpeculativeConsensus::new();
/// assert_eq!(obj.propose(1, Value::new(6)), Value::new(6));
/// assert_eq!(obj.propose(2, Value::new(9)), Value::new(6));
/// // Contention-free: the CAS phase was never exercised.
/// assert_eq!(obj.cas_count(), 0);
/// ```
#[derive(Debug, Default)]
pub struct SpeculativeConsensus {
    rcons: RCons,
    cascons: CasCons,
    recorder: TraceRecorder,
}

impl SpeculativeConsensus {
    /// Creates a fresh object.
    pub fn new() -> Self {
        SpeculativeConsensus::default()
    }

    /// Creates an object whose register phase yields the scheduler between
    /// shared accesses (for interleaving exploration on few cores).
    pub fn chaotic() -> Self {
        SpeculativeConsensus {
            rcons: RCons::chaotic(),
            ..SpeculativeConsensus::default()
        }
    }

    /// Proposes `val` on behalf of client `c`; returns the decided value.
    ///
    /// Records the invocation, any switch, and the response in the object's
    /// trace.
    ///
    /// # Panics
    ///
    /// Panics if `c == 0` or `val` is the reserved `⊥` encoding (0).
    pub fn propose(&self, c: u32, val: Value) -> Value {
        let client = ClientId::new(c);
        self.recorder.invoke(client, PhaseId::new(1), val);
        match self.rcons.propose(c, val) {
            RconsOutcome::Decide(v) => {
                self.recorder.respond(client, PhaseId::new(1), val, v);
                v
            }
            RconsOutcome::Switch(sv) => {
                self.recorder.switch(client, PhaseId::new(2), val, sv);
                let v = self.cascons.switch_to(sv);
                self.recorder.respond(client, PhaseId::new(2), val, v);
                v
            }
        }
    }

    /// Number of CAS operations executed by the backup phase.
    pub fn cas_count(&self) -> usize {
        self.cascons.cas_count()
    }

    /// Extracts the recorded object-interface trace.
    pub(crate) fn into_trace(self) -> slin_trace::Trace<crate::ConsAction> {
        self.recorder.into_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slin_core::invariants;
    use std::sync::Arc;

    #[test]
    fn sequential_proposals_use_registers_only() {
        let obj = SpeculativeConsensus::new();
        assert_eq!(obj.propose(1, Value::new(3)), Value::new(3));
        assert_eq!(obj.propose(2, Value::new(7)), Value::new(3));
        assert_eq!(obj.propose(3, Value::new(9)), Value::new(3));
        assert_eq!(obj.cas_count(), 0);
        let t = obj.into_trace();
        assert!(invariants::consensus_linearizable(&t));
        assert!(t.iter().all(|a| !a.is_switch()));
    }

    #[test]
    fn concurrent_proposals_agree_and_record_linearizable_traces() {
        for _ in 0..200 {
            let obj = Arc::new(SpeculativeConsensus::chaotic());
            let decided: Vec<Value> = std::thread::scope(|s| {
                let hs: Vec<_> = (1..=4u32)
                    .map(|c| {
                        let obj = Arc::clone(&obj);
                        s.spawn(move || obj.propose(c, Value::new(c as u64)))
                    })
                    .collect();
                hs.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert!(decided.windows(2).all(|w| w[0] == w[1]), "{decided:?}");
            let obj = Arc::try_unwrap(obj).expect("all threads joined");
            let t = obj.into_trace();
            assert!(invariants::consensus_linearizable(&t), "{t:?}");
            assert!(invariants::i2(&t), "{t:?}");
            assert!(invariants::i3(&t), "{t:?}");
        }
    }

    #[test]
    fn decided_value_was_proposed() {
        for _ in 0..100 {
            let obj = Arc::new(SpeculativeConsensus::chaotic());
            let decided: Vec<Value> = std::thread::scope(|s| {
                let hs: Vec<_> = (1..=3u32)
                    .map(|c| {
                        let obj = Arc::clone(&obj);
                        s.spawn(move || obj.propose(c, Value::new(10 + c as u64)))
                    })
                    .collect();
                hs.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert!((11..=13).contains(&decided[0].get()));
        }
    }
}
