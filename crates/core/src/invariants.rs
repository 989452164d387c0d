//! The paper's consensus invariants I1–I5 (Sections 2.4 and 2.5) as
//! executable trace predicates, plus the fast consensus-specialized
//! linearizability test used to validate the generic checkers at scale.
//!
//! First-phase invariants (Quorum, RCons):
//!
//! * **I1** — if some client decides `v` then all clients that switch do so
//!   with value `v` (before or after the decision);
//! * **I2** — if some client decides `v` then all deciding clients decide
//!   `v`;
//! * **I3** — all clients that switch or decide do so with a value proposed
//!   before they switch or decide.
//!
//! Second-phase invariants (Backup = Paxos, CASCons):
//!
//! * **I4** — all clients decide the same value;
//! * **I5** — all clients decide a switch value previously submitted by some
//!   client.

use slin_adt::consensus::{ConsInput, ConsOutput, Value};
use slin_trace::{Action, Trace};

/// A consensus phase action whose switch values expose a proposal value.
pub type ConsAction = Action<ConsInput, ConsOutput, Value>;

fn decisions<V>(
    t: &Trace<Action<ConsInput, ConsOutput, V>>,
) -> impl Iterator<Item = (usize, Value)> + '_ {
    t.iter().enumerate().filter_map(|(i, a)| match a {
        Action::Respond { output, .. } => Some((i, output.value())),
        _ => None,
    })
}

fn switch_values(t: &Trace<ConsAction>) -> impl Iterator<Item = (usize, Value)> + '_ {
    t.iter().enumerate().filter_map(|(i, a)| match a {
        Action::Switch { value, .. } => Some((i, *value)),
        _ => None,
    })
}

fn proposed_before<V>(t: &Trace<Action<ConsInput, ConsOutput, V>>, v: Value, i: usize) -> bool {
    t.as_slice()[..i]
        .iter()
        .any(|a| matches!(a, Action::Invoke { input, .. } if input.value() == v))
}

/// **I1**: a decision of `v` forces every switch (anywhere in the trace) to
/// carry `v`.
pub fn i1(t: &Trace<ConsAction>) -> bool {
    match decisions(t).next() {
        None => true,
        Some((_, v)) => switch_values(t).all(|(_, sv)| sv == v),
    }
}

/// **I2**: all decisions carry the same value.
pub fn i2(t: &Trace<ConsAction>) -> bool {
    let mut ds = decisions(t);
    match ds.next() {
        None => true,
        Some((_, v)) => ds.all(|(_, d)| d == v),
    }
}

/// **I3**: every decided or switched value was proposed before the deciding
/// or switching event.
pub fn i3(t: &Trace<ConsAction>) -> bool {
    decisions(t).all(|(i, v)| proposed_before(t, v, i))
        && switch_values(t).all(|(i, v)| proposed_before(t, v, i))
}

/// **I4**: all decisions carry the same value (the second-phase restatement
/// of I2).
pub fn i4(t: &Trace<ConsAction>) -> bool {
    i2(t)
}

/// **I5**: every decided value is a switch value submitted (as an init
/// action of this phase) before the decision.
pub fn i5(t: &Trace<ConsAction>) -> bool {
    decisions(t).all(|(i, v)| {
        t.as_slice()[..i]
            .iter()
            .any(|a| matches!(a, Action::Switch { value, .. } if *value == v))
    })
}

/// All first-phase invariants (I1 ∧ I2 ∧ I3).
pub fn first_phase_invariants(t: &Trace<ConsAction>) -> bool {
    i1(t) && i2(t) && i3(t)
}

/// Fast linearizability test specialized to consensus (Section 2.4's
/// construction made into a decision procedure): a well-formed consensus
/// trace is linearizable iff either no client decides, or all decisions
/// carry one value `v` and `p(v)` is invoked before the first decision.
///
/// Runs in `O(|t|)` and agrees with the generic checkers (property-tested in
/// the workspace suite), which makes it usable on simulator traces with
/// hundreds of operations.
///
/// The trace may contain switch actions; they are ignored, matching
/// `proj(t, sigT)` — the projection onto the object signature used by
/// Theorem 2.
pub fn consensus_linearizable<V>(t: &Trace<Action<ConsInput, ConsOutput, V>>) -> bool {
    let mut ds = decisions(t);
    match ds.next() {
        None => true,
        Some((first_idx, v)) => ds.all(|(_, d)| d == v) && proposed_before(t, v, first_idx),
    }
}

/// Diagnoses the *late decide* pattern: some response's input was invoked
/// after an earlier switch action.
///
/// This is a rough edge of the paper's Quorum proof that the reproduction
/// surfaced: Definition 28 evaluates abort-history validity at the *switch
/// index*, so a first-phase trace in which a client proposes and decides
/// *after* another client already switched cannot associate a valid abort
/// history (Abort-Order forces the late proposal into it, but the proposal
/// was not yet invoked at the switch). Quorum can produce such traces under
/// selective message loss, and they are correct end to end (the composed
/// object stays linearizable); they simply fall outside the literal
/// `SLin(1, 2)` trace property. The experiment suites use this predicate to
/// separate the two classes.
pub fn has_late_decide(t: &Trace<ConsAction>) -> bool {
    let Some(first_switch) = t.iter().position(|a| a.is_switch()) else {
        return false;
    };
    t.iter().enumerate().any(|(i, a)| {
        if let Action::Respond { input, .. } = a {
            t.iter()
                .enumerate()
                .any(|(j, b)| j > first_switch && j < i && b.is_invoke() && b.input() == input)
        } else {
            false
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use slin_trace::{ClientId, PhaseId};

    fn c(n: u32) -> ClientId {
        ClientId::new(n)
    }
    fn ph(n: u32) -> PhaseId {
        PhaseId::new(n)
    }
    fn p(v: u64) -> ConsInput {
        ConsInput::propose(v)
    }
    fn d(v: u64) -> ConsOutput {
        ConsOutput::decide(v)
    }

    fn decide_then_switch(switch_val: u64) -> Trace<ConsAction> {
        Trace::from_actions(vec![
            Action::invoke(c(1), ph(1), p(1)),
            Action::invoke(c(2), ph(1), p(2)),
            Action::respond(c(1), ph(1), p(1), d(1)),
            Action::switch(c(2), ph(2), p(2), Value::new(switch_val)),
        ])
    }

    #[test]
    fn i1_holds_when_switch_matches_decision() {
        assert!(i1(&decide_then_switch(1)));
        assert!(!i1(&decide_then_switch(2)));
    }

    #[test]
    fn i1_vacuous_without_decisions() {
        let t: Trace<ConsAction> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(1), p(1)),
            Action::switch(c(1), ph(2), p(1), Value::new(1)),
        ]);
        assert!(i1(&t));
    }

    #[test]
    fn i2_detects_split_decisions() {
        let t: Trace<ConsAction> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(1), p(1)),
            Action::invoke(c(2), ph(1), p(2)),
            Action::respond(c(1), ph(1), p(1), d(1)),
            Action::respond(c(2), ph(1), p(2), d(2)),
        ]);
        assert!(!i2(&t));
        assert!(i2(&decide_then_switch(1)));
    }

    #[test]
    fn i3_requires_prior_proposal() {
        // Decision of 9, never proposed.
        let t: Trace<ConsAction> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(1), p(1)),
            Action::respond(c(1), ph(1), p(1), d(9)),
        ]);
        assert!(!i3(&t));
        // Switch with a value proposed only later.
        let t2: Trace<ConsAction> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(1), p(1)),
            Action::switch(c(1), ph(2), p(1), Value::new(2)),
            Action::invoke(c(2), ph(1), p(2)),
        ]);
        assert!(!i3(&t2));
        assert!(i3(&decide_then_switch(1)));
    }

    #[test]
    fn i5_requires_prior_switch_value() {
        let ok: Trace<ConsAction> = Trace::from_actions(vec![
            Action::switch(c(1), ph(2), p(1), Value::new(5)),
            Action::respond(c(1), ph(2), p(1), d(5)),
        ]);
        assert!(i5(&ok));
        let bad: Trace<ConsAction> = Trace::from_actions(vec![
            Action::switch(c(1), ph(2), p(1), Value::new(5)),
            Action::respond(c(1), ph(2), p(1), d(1)),
        ]);
        assert!(!i5(&bad));
    }

    #[test]
    fn specialized_lin_matches_paper_examples() {
        // The linearizable trace of Section 2.2.
        let ok: Trace<ConsAction> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(1), p(1)),
            Action::invoke(c(2), ph(1), p(2)),
            Action::respond(c(2), ph(1), p(2), d(2)),
            Action::respond(c(1), ph(1), p(1), d(2)),
        ]);
        assert!(consensus_linearizable(&ok));
        // Split decision.
        let bad: Trace<ConsAction> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(1), p(1)),
            Action::invoke(c(2), ph(1), p(2)),
            Action::respond(c(1), ph(1), p(1), d(1)),
            Action::respond(c(2), ph(1), p(2), d(2)),
        ]);
        assert!(!consensus_linearizable(&bad));
        // Deciding a value proposed only later.
        let bad2: Trace<ConsAction> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(1), p(1)),
            Action::respond(c(1), ph(1), p(1), d(2)),
            Action::invoke(c(2), ph(1), p(2)),
            Action::respond(c(2), ph(1), p(2), d(2)),
        ]);
        assert!(!consensus_linearizable(&bad2));
    }

    #[test]
    fn late_decide_detected() {
        let t: Trace<ConsAction> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(1), p(1)),
            Action::switch(c(1), ph(2), p(1), Value::new(1)),
            Action::invoke(c(2), ph(1), p(2)),
            Action::respond(c(2), ph(1), p(2), d(1)),
        ]);
        assert!(has_late_decide(&t));
        assert!(!has_late_decide(&decide_then_switch(1)));
        let no_switch: Trace<ConsAction> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(1), p(1)),
            Action::respond(c(1), ph(1), p(1), d(1)),
        ]);
        assert!(!has_late_decide(&no_switch));
    }

    #[test]
    fn first_phase_invariants_conjunction() {
        assert!(first_phase_invariants(&decide_then_switch(1)));
        assert!(!first_phase_invariants(&decide_then_switch(2)));
    }
}
