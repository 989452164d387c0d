//! Workload harness for the shared-memory experiments.

use crate::composed::SpeculativeConsensus;
use crate::ConsAction;
use slin_adt::consensus::Value;
use slin_adt::Consensus;
use slin_core::compose::{verify_phase_chain, PhaseChainVerification};
use slin_core::initrel::ConsensusInit;
use slin_trace::{ClientId, Trace};
use std::sync::Arc;

/// A shared-memory consensus workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Number of proposing threads (each proposes its index × 10).
    pub threads: u32,
    /// Run proposals one after another (contention-free) instead of
    /// concurrently.
    pub sequential: bool,
}

impl Workload {
    /// A concurrent workload of `threads` proposers.
    pub fn concurrent(threads: u32) -> Self {
        Workload {
            threads,
            sequential: false,
        }
    }

    /// A sequential (contention-free) workload of `threads` proposers.
    pub fn sequential(threads: u32) -> Self {
        Workload {
            threads,
            sequential: true,
        }
    }
}

/// The result of a shared-memory run.
#[derive(Debug, Clone)]
pub struct ShmemOutcome {
    /// The recorded object-interface trace.
    pub trace: Trace<ConsAction>,
    /// Each thread's decision.
    pub decisions: Vec<(ClientId, Value)>,
    /// CAS operations performed by the backup phase.
    pub cas_count: usize,
}

impl ShmemOutcome {
    /// Whether all decided values agree.
    pub fn agreement(&self) -> bool {
        self.decisions.windows(2).all(|w| w[0].1 == w[1].1)
    }

    /// Verifies the recorded trace through the shared checker engine: the
    /// RCons fast phase `(1, 2)`, the CASCons backup phase `(2, 3)`, and
    /// plain linearizability of the object projection, with aggregated
    /// [search statistics](slin_core::engine::SearchStats).
    pub fn verify(&self) -> PhaseChainVerification {
        verify_phase_chain(&Consensus, ConsensusInit::new(), &self.trace, 1, 2)
    }
}

/// Runs the composed `RCons + CASCons` object under the given workload.
///
/// # Example
///
/// ```
/// use slin_shmem::harness::{run_concurrent, Workload};
/// let out = run_concurrent(&Workload { threads: 3, sequential: true });
/// assert!(out.agreement());
/// assert_eq!(out.cas_count, 0); // registers only, without contention
/// ```
pub fn run_concurrent(workload: &Workload) -> ShmemOutcome {
    let obj = Arc::new(if workload.sequential {
        SpeculativeConsensus::new()
    } else {
        SpeculativeConsensus::chaotic()
    });
    let mut decisions: Vec<(ClientId, Value)> = Vec::new();
    if workload.sequential {
        for c in 1..=workload.threads {
            let v = obj.propose(c, Value::new(c as u64 * 10));
            decisions.push((ClientId::new(c), v));
        }
    } else {
        let results: Vec<(u32, Value)> = std::thread::scope(|s| {
            let hs: Vec<_> = (1..=workload.threads)
                .map(|c| {
                    let obj = Arc::clone(&obj);
                    s.spawn(move || (c, obj.propose(c, Value::new(c as u64 * 10))))
                })
                .collect();
            hs.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (c, v) in results {
            decisions.push((ClientId::new(c), v));
        }
    }
    let cas_count = obj.cas_count();
    let obj = Arc::try_unwrap(obj).expect("all threads joined");
    ShmemOutcome {
        trace: obj.into_trace(),
        decisions,
        cas_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slin_adt::consensus::{ConsInput, ConsOutput};
    use slin_core::compose::project_phase;
    use slin_core::invariants;
    use slin_core::slin::SlinError;
    use slin_trace::{Action, PhaseId};

    #[test]
    fn sequential_runs_never_cas() {
        for threads in 1..=6 {
            let out = run_concurrent(&Workload {
                threads,
                sequential: true,
            });
            assert!(out.agreement());
            assert_eq!(out.cas_count, 0, "threads={threads}");
            assert_eq!(out.decisions[0].1, Value::new(10));
        }
    }

    #[test]
    fn concurrent_runs_agree_and_are_linearizable() {
        for round in 0..100 {
            let out = run_concurrent(&Workload {
                threads: 4,
                sequential: false,
            });
            assert!(out.agreement(), "round {round}");
            assert!(
                invariants::consensus_linearizable(&out.trace),
                "round {round}: {:?}",
                out.trace
            );
        }
    }

    /// Sequential runs pass every check. A concurrent run may fail phase
    /// `(1, 2)` only as a late-decide run (`invariants::has_late_decide`:
    /// a proposer decides in phase 1 after another client switched out of
    /// it, which Definition 28 judges at the switch index); its backup
    /// phase and its object projection pass all the same.
    #[test]
    fn engine_verification_accepts_shmem_runs() {
        for threads in [1u32, 3] {
            let seq = run_concurrent(&Workload::sequential(threads)).verify();
            assert!(seq.all_ok(), "sequential threads={threads}: {seq:?}");
        }
        for round in 0..200 {
            let threads = [1u32, 3][round % 2];
            let out = run_concurrent(&Workload::concurrent(threads));
            let conc = out.verify();
            assert_eq!(conc.phases.len(), 2);
            assert!(conc.object.is_ok(), "round {round}: {conc:?}");
            assert_eq!(conc.phases[1], (2, 3, Ok(())), "round {round}: {conc:?}");
            if conc.phases[0].2.is_err() {
                let t12 =
                    project_phase::<Consensus, Value>(&out.trace, PhaseId::new(1), PhaseId::new(2));
                assert!(invariants::has_late_decide(&t12), "round {round}: {t12:?}");
            }
        }
    }

    /// The late-decide shape concurrent runs produce: c3 switches out of
    /// phase 1 with c1's decided value, then c2 proposes and decides in
    /// phase 1. The object projection is linearizable and the backup phase
    /// holds, but c3's abort history must extend c2's commit history
    /// (Abort-Order), which holds c2's proposal, and that proposal is not
    /// among the valid inputs at the switch (Definition 28), so `(1, 2)` is
    /// refuted.
    #[test]
    fn a_late_decide_run_fails_only_its_first_phase() {
        let (c1, c2, c3) = (ClientId::new(1), ClientId::new(2), ClientId::new(3));
        let (ph1, ph2) = (PhaseId::new(1), PhaseId::new(2));
        let p = ConsInput::propose;
        let d = ConsOutput::decide;
        let t: Trace<ConsAction> = Trace::from_actions(vec![
            Action::invoke(c1, ph1, p(10)),
            Action::invoke(c3, ph1, p(30)),
            Action::respond(c1, ph1, p(10), d(10)),
            Action::switch(c3, ph2, p(30), Value::new(10)),
            Action::respond(c3, ph2, p(30), d(10)),
            Action::invoke(c2, ph1, p(20)),
            Action::respond(c2, ph1, p(20), d(10)),
        ]);
        let t12 = project_phase::<Consensus, Value>(&t, ph1, ph2);
        assert!(invariants::has_late_decide(&t12));
        let v = verify_phase_chain(&Consensus, ConsensusInit::new(), &t, 1, 2);
        let refuted = SlinError::NotSpeculativelyLinearizable {
            interpretation: Vec::new(),
        };
        assert_eq!(v.phases, [(1, 2, Err(refuted)), (2, 3, Ok(()))]);
        assert!(v.object.is_ok());
    }
}
