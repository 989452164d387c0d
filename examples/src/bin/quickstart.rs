//! Quickstart: the paper in five minutes.
//!
//! 1. Check the Section 2.2 example traces with the linearizability
//!    checkers (new definition and classical — Theorem 1 says they agree).
//! 2. Run the simulated Quorum + Backup consensus: fault-free it decides in
//!    two message delays; under a server crash it falls back to Paxos and
//!    still decides.
//! 3. Verify the intra-object composition theorem on the produced trace.
//!
//! Run with: `cargo run -p slin-examples --bin quickstart`

use slin_adt::{ConsInput, ConsOutput, Consensus};
use slin_consensus::harness::{run_scenario, Scenario};
use slin_core::classical::ClassicalChecker;
use slin_core::compose::{check_composition, CompositionOutcome};
use slin_core::initrel::ConsensusInit;
use slin_core::lin::LinChecker;
use slin_core::session::{Checker, Strategy};
use slin_trace::{Action, ClientId, PhaseId, Trace};

fn main() {
    let cons = Consensus::new();
    // The unified surface: one builder, strategy as configuration.
    let mut lin = Checker::builder(LinChecker::owned(cons)).build();
    let classical = ClassicalChecker::new(&cons);
    let (c1, c2) = (ClientId::new(1), ClientId::new(2));
    let ph = PhaseId::FIRST;
    let p = ConsInput::propose;
    let d = ConsOutput::decide;

    println!("== 1. The paper's Section 2.2 traces ==");
    let good: Trace<Action<ConsInput, ConsOutput, ()>> = Trace::from_actions(vec![
        Action::invoke(c1, ph, p(1)),
        Action::invoke(c2, ph, p(2)),
        Action::respond(c2, ph, p(2), d(2)),
        Action::respond(c1, ph, p(1), d(2)),
    ]);
    let w = lin.check(&good).outcome.expect("linearizable");
    println!("linearizable: {good:?}");
    println!("  witness linearization: {:?}", w.full_history());
    assert!(classical.check(&good).is_ok());

    let bad: Trace<Action<ConsInput, ConsOutput, ()>> = Trace::from_actions(vec![
        Action::invoke(c1, ph, p(1)),
        Action::invoke(c2, ph, p(2)),
        Action::respond(c1, ph, p(1), d(1)),
        Action::respond(c2, ph, p(2), d(2)),
    ]);
    println!(
        "split decision rejected: {:?}",
        lin.check(&bad).outcome.unwrap_err()
    );
    assert!(classical.check(&bad).is_err());

    // The same judgment, streamed one event at a time: a session built
    // with Strategy::Streaming ingests live and reports identically.
    let mut live = Checker::builder(LinChecker::owned(cons))
        .strategy(Strategy::Streaming { window: None })
        .build();
    for a in good.iter() {
        live.ingest(a.clone());
    }
    let streamed = live.check(&Trace::new());
    assert_eq!(
        streamed.outcome,
        Ok(w),
        "streaming report is byte-identical to the batch witness"
    );
    println!("  streaming session agrees, event by event ✓");

    println!("\n== 2. Quorum + Backup over the simulated network ==");
    let fast = run_scenario(&Scenario::fault_free(3, &[(7, 0)]));
    println!(
        "fault-free: decided {:?} in {:?} message delays ({} messages)",
        fast.decided_value().unwrap(),
        fast.latencies[0].1.unwrap(),
        fast.messages
    );
    assert_eq!(fast.latencies[0].1, Some(2));

    let crash = run_scenario(&Scenario::fault_free(3, &[(7, 0)]).with_crashes(&[(0, 0)]));
    println!(
        "one server crashed: decided {:?} after fallback, in {:?} delays",
        crash.decided_value().unwrap(),
        crash.latencies[0].1.unwrap()
    );
    assert!(crash.trace.iter().any(|a| a.is_switch()));
    println!("trace: {:?}", crash.trace);

    println!("\n== 3. The composition theorem on that trace ==");
    let out = check_composition(
        &cons,
        ConsensusInit::new(),
        &crash.trace,
        PhaseId::new(1),
        PhaseId::new(2),
        PhaseId::new(3),
    );
    println!("check_composition: {out:?}");
    assert_eq!(out, CompositionOutcome::Holds);

    println!("\n== 4. Engine verification of the whole run ==");
    // The harness drives the shared CheckerEngine over every phase (in
    // parallel across init interpretations) and reports search statistics.
    let v = crash.verify(1);
    println!(
        "phases: {:?}  object linearizable: {}",
        v.phases, v.object_linearizable
    );
    println!(
        "engine: {} interpretations, {} nodes, {} memo entries",
        v.stats.interpretations, v.stats.nodes, v.stats.memo_entries
    );
    assert!(v.all_ok());
    println!("\nOK: both phases are speculatively linearizable and their\ncomposition is a linearizable consensus.");
}
