//! Deliberately unsound partitioners — negative fixtures for the analyzer.
//!
//! Each fixture claims independence classes for an ADT that does **not**
//! factor as a product over them, so [`crate::certify`] must reject every
//! one with a concrete counterexample. They double as the discriminators
//! the sampled proptest in `tests/tests/partitioner_contract.rs` uses to
//! prove the contract checker has teeth.

use slin_adt::{
    ConsInput, Consensus, Counter, CounterInput, Partitioner, Queue, QueueInput, Stack, StackInput,
};

/// Splits the (monolithic) [`Counter`] by operation kind: increments to
/// key 0, reads to key 1. Unsound — a read's output depends on every
/// increment, so the classes interact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BogusCounterPartitioner;

impl Partitioner<Counter> for BogusCounterPartitioner {
    type Key = u8;

    fn key_of(&self, input: &CounterInput) -> Option<u8> {
        Some(match input {
            CounterInput::Increment => 0,
            CounterInput::Read => 1,
        })
    }
}

/// Keys [`Queue`] inputs by enqueued value (dequeues to key 0). Unsound —
/// FIFO order couples every element.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueValuePartitioner;

impl Partitioner<Queue> for QueueValuePartitioner {
    type Key = u64;

    fn key_of(&self, input: &QueueInput) -> Option<u64> {
        Some(match input {
            QueueInput::Enqueue(v) => *v,
            QueueInput::Dequeue => 0,
        })
    }
}

/// Keys [`Stack`] inputs by pushed value (pops to key 0). Unsound — LIFO
/// order couples every element.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StackValuePartitioner;

impl Partitioner<Stack> for StackValuePartitioner {
    type Key = u64;

    fn key_of(&self, input: &StackInput) -> Option<u64> {
        Some(match input {
            StackInput::Push(v) => *v,
            StackInput::Pop => 0,
        })
    }
}

/// Keys [`Consensus`] proposals by proposed value. Unsound — the first
/// proposal decides for everyone, the canonical non-local ADT (paper
/// Figure 1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConsProposalPartitioner;

impl Partitioner<Consensus> for ConsProposalPartitioner {
    type Key = u64;

    fn key_of(&self, input: &ConsInput) -> Option<u64> {
        Some(input.value().get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{certify, AnalyzeConfig, AnalyzeFailure};
    use slin_adt::{Queue, Stack};

    fn rejected<T, P>(adt: &T, p: &P) -> usize
    where
        T: slin_adt::DomainSpec + std::fmt::Debug,
        P: Partitioner<T>,
    {
        match certify(adt, p, &AnalyzeConfig::default()) {
            Err(AnalyzeFailure::Unsound(cex)) => cex.len(),
            other => panic!("expected rejection, got {other:?}"),
        }
    }

    /// What a rejected partitioner is shown, for both contracts, byte for
    /// byte: which node the walk refutes first and the order the shrinker
    /// drops inputs in are part of the contract.
    #[test]
    fn rejections_render_the_same_minimal_replays() {
        use crate::{certify_switch, Failure};
        macro_rules! renders {
            ($adt:expr, $p:expr) => {{
                let cfg = AnalyzeConfig::default();
                let Err(Failure::Unsound(v1)) = certify(&$adt, &$p, &cfg) else {
                    panic!("expected a counterexample");
                };
                let Err(Failure::Unsound(v2)) = certify_switch(&$adt, &$p, &cfg) else {
                    panic!("expected a switch counterexample");
                };
                [v1.render(), v2.render()]
            }};
        }
        assert_eq!(
            renders!(Counter, BogusCounterPartitioner),
            [
                "contract violation: cross-key transition commutation\n  history: []\n  \
                 probe:   inc\n  partner: get\n  output of get changes across reorder: =0 vs =1",
                "switch-independence violation: init-candidate projection\n  value:   [inc]\n  \
                 history: []\n  probe:   get\n  monolithic interpretation answers =1, \
                 per-class interpretation [] answers =0",
            ]
        );
        assert_eq!(
            renders!(Queue, QueueValuePartitioner),
            [
                "contract violation: cross-key transition commutation\n  history: []\n  \
                 probe:   enq(1)\n  partner: enq(2)\n  states diverge: enq(1);enq(2) reaches \
                 [1, 2] but enq(2);enq(1) reaches [2, 1]",
                "switch-independence violation: switch-interpretation commutation\n  \
                 value:   [enq(1), enq(2)]\n  history: []\n  probe:   deq\n  class components \
                 do not commute: [enq(1), enq(2)] reaches [1, 2] but [enq(2), enq(1)] reaches \
                 [2, 1]",
            ]
        );
        assert_eq!(
            renders!(Stack, StackValuePartitioner),
            [
                "contract violation: cross-key transition commutation\n  history: []\n  \
                 probe:   push(1)\n  partner: push(2)\n  states diverge: push(1);push(2) \
                 reaches [1, 2] but push(2);push(1) reaches [2, 1]",
                "switch-independence violation: switch-interpretation commutation\n  \
                 value:   [push(1), push(2)]\n  history: []\n  probe:   pop\n  class components \
                 do not commute: [push(1), push(2)] reaches [1, 2] but [push(2), push(1)] \
                 reaches [2, 1]",
            ]
        );
        assert_eq!(
            renders!(Consensus, ConsProposalPartitioner),
            [
                "contract violation: cross-key transition commutation\n  history: []\n  \
                 probe:   p(1)\n  partner: p(2)\n  states diverge: p(1);p(2) reaches Some(v1) \
                 but p(2);p(1) reaches Some(v2)",
                "switch-independence violation: switch-interpretation commutation\n  \
                 value:   [p(1), p(2)]\n  history: []\n  probe:   p(2)\n  class components do \
                 not commute: [p(1), p(2)] reaches Some(v1) but [p(2), p(1)] reaches Some(v2)",
            ]
        );
    }

    #[test]
    fn every_fixture_is_rejected_with_a_short_counterexample() {
        assert!(rejected(&Counter, &BogusCounterPartitioner) <= 4);
        assert!(rejected(&Queue, &QueueValuePartitioner) <= 4);
        assert!(rejected(&Stack, &StackValuePartitioner) <= 4);
        assert!(rejected(&Consensus, &ConsProposalPartitioner) <= 4);
    }
}
