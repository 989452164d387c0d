//! Well-formedness of traces (paper Definitions 13–15 and 33–35).
//!
//! A client is sequential: it never invokes the object before its preceding
//! invocation returned. Well-formedness captures this per-client alternation,
//! and — for speculation phases `(m, n)` — the switching discipline: a client
//! enters the phase either by an invocation (when `m = 1`) or by exactly one
//! *init* switch action labelled `m`, and an *abort* switch action labelled
//! `n` is the last event of the client's sub-trace.
//!
//! Following the paper, the `(m, n)`-client-sub-trace keeps only switch
//! actions labelled `m` or `n`; interior switches are projected away
//! (Definition 33).

use crate::action::{Action, ClientId, PhaseId};
use crate::trace::Trace;
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

/// A well-formedness violation, reporting the offending client and a reason.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WellFormednessError {
    client: ClientId,
    reason: String,
}

impl WellFormednessError {
    fn new(client: ClientId, reason: impl Into<String>) -> Self {
        WellFormednessError {
            client,
            reason: reason.into(),
        }
    }

    /// The client whose sub-trace violates well-formedness.
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// A human-readable description of the violation.
    pub fn reason(&self) -> &str {
        &self.reason
    }
}

impl fmt::Display for WellFormednessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "client {} sub-trace ill-formed: {}",
            self.client, self.reason
        )
    }
}

impl Error for WellFormednessError {}

/// The set of clients appearing in a trace.
pub fn clients<I, O, V>(t: &Trace<Action<I, O, V>>) -> BTreeSet<ClientId> {
    t.iter().map(|a| a.client()).collect()
}

/// The client sub-trace `sub(t, c)` (Definition 13): the projection of `t`
/// onto client `c`'s actions. For phase traces, keeps only switch actions
/// labelled `m` or `n` (Definition 33); pass `None` to keep all actions.
pub fn client_subtrace<I: Clone, O: Clone, V: Clone>(
    t: &Trace<Action<I, O, V>>,
    c: ClientId,
    phase_bounds: Option<(PhaseId, PhaseId)>,
) -> Trace<Action<I, O, V>> {
    t.project(|a| {
        a.client() == c
            && match (a, phase_bounds) {
                (Action::Switch { phase, .. }, Some((m, n))) => *phase == m || *phase == n,
                // Invocations and responses of phase (m, n) carry labels in
                // [m..n-1]; labels equal to n belong to the next phase.
                (_, Some((m, n))) => a.phase().in_range(m, n.prev()),
                (_, None) => true,
            }
    })
}

/// Checks classical well-formedness (Definitions 13–15): every client
/// sub-trace starts with an invocation and strictly alternates invocations
/// with matching responses. Switch actions are not part of the object
/// signature and render the trace ill-formed.
///
/// # Errors
///
/// Returns a [`WellFormednessError`] naming the first offending client.
///
/// # Example
///
/// ```
/// use slin_trace::{Action, ClientId, PhaseId, Trace};
/// use slin_trace::wf::check_well_formed;
///
/// let c = ClientId::new(1);
/// let t: Trace<Action<u8, u8, ()>> = Trace::from_actions(vec![
///     Action::invoke(c, PhaseId::FIRST, 3),
///     Action::respond(c, PhaseId::FIRST, 3, 3),
/// ]);
/// check_well_formed(&t)?;
/// # Ok::<(), slin_trace::wf::WellFormednessError>(())
/// ```
pub fn check_well_formed<I, O, V>(t: &Trace<Action<I, O, V>>) -> Result<(), WellFormednessError>
where
    I: Clone + PartialEq,
    O: Clone,
    V: Clone,
{
    for c in clients(t) {
        let sub = client_subtrace(t, c, None);
        check_client_alternation(&sub, c, None)?;
    }
    Ok(())
}

/// Boolean form of [`check_well_formed`].
pub fn is_well_formed<I, O, V>(t: &Trace<Action<I, O, V>>) -> bool
where
    I: Clone + PartialEq,
    O: Clone,
    V: Clone,
{
    check_well_formed(t).is_ok()
}

/// Checks `(m, n)`-well-formedness (Definitions 33–35).
///
/// For every client `c`, the `(m, n)`-client-sub-trace must be empty or:
///
/// * if `m = 1`, start with an invocation and contain no init actions;
///   if `m ≠ 1`, start with the client's unique init action `swi(c, m, …)`;
/// * strictly alternate pending inputs (from invocations or the init action)
///   with responses or the abort action, with matching inputs;
/// * contain the abort action `swi(c, n, …)` only as its last element.
///
/// # Errors
///
/// Returns a [`WellFormednessError`] naming the first offending client.
pub fn check_phase_well_formed<I, O, V>(
    t: &Trace<Action<I, O, V>>,
    m: PhaseId,
    n: PhaseId,
) -> Result<(), WellFormednessError>
where
    I: Clone + PartialEq,
    O: Clone,
    V: Clone,
{
    assert!(m < n, "a speculation phase (m, n) requires m < n");
    for c in clients(t) {
        let sub = client_subtrace(t, c, Some((m, n)));
        check_client_alternation(&sub, c, Some((m, n)))?;
    }
    Ok(())
}

/// Boolean form of [`check_phase_well_formed`].
pub fn is_phase_well_formed<I, O, V>(t: &Trace<Action<I, O, V>>, m: PhaseId, n: PhaseId) -> bool
where
    I: Clone + PartialEq,
    O: Clone,
    V: Clone,
{
    check_phase_well_formed(t, m, n).is_ok()
}

/// Shared alternation automaton over one client's sub-trace.
fn check_client_alternation<I, O, V>(
    sub: &Trace<Action<I, O, V>>,
    c: ClientId,
    phase_bounds: Option<(PhaseId, PhaseId)>,
) -> Result<(), WellFormednessError>
where
    I: Clone + PartialEq,
    O: Clone,
    V: Clone,
{
    if sub.is_empty() {
        return Ok(());
    }
    let err = |reason: &str| Err(WellFormednessError::new(c, reason));
    // pending = Some(input) while an input awaits a response or abort.
    let mut pending: Option<I> = None;
    let mut aborted = false;
    let mut seen_init = false;
    for (i, a) in sub.iter().enumerate() {
        if aborted {
            return err("events after the abort switch action");
        }
        match a {
            Action::Invoke { input, .. } => {
                if i == 0 {
                    if let Some((m, _)) = phase_bounds {
                        if m != PhaseId::FIRST {
                            return err("first event must be the init switch action when m ≠ 1");
                        }
                    }
                }
                if pending.is_some() {
                    return err("invocation while a previous input is pending");
                }
                pending = Some(input.clone());
            }
            Action::Respond { input, .. } => match pending.take() {
                None => return err("response with no pending input"),
                Some(p) if p != *input => return err("response input differs from pending input"),
                Some(_) => {}
            },
            Action::Switch { phase, input, .. } => {
                let (m, n) = match phase_bounds {
                    None => return err("switch action in a plain object trace"),
                    Some(b) => b,
                };
                if *phase == m {
                    // Init action: enters the phase with a pending input.
                    if m == PhaseId::FIRST {
                        return err("init actions are impossible when m = 1");
                    }
                    if i != 0 || seen_init {
                        return err("init action must be the unique first event");
                    }
                    seen_init = true;
                    pending = Some(input.clone());
                } else if *phase == n {
                    // Abort action: carries the pending input out of the phase.
                    match pending.take() {
                        None => return err("abort switch with no pending input"),
                        Some(p) if p != *input => {
                            return err("abort switch input differs from pending input")
                        }
                        Some(_) => {}
                    }
                    aborted = true;
                } else {
                    // Interior switches were projected away by the caller.
                    return err("interior switch action in client sub-trace");
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    type A = Action<u32, u32, u32>;

    fn c1() -> ClientId {
        ClientId::new(1)
    }
    fn c2() -> ClientId {
        ClientId::new(2)
    }
    fn p(n: u32) -> PhaseId {
        PhaseId::new(n)
    }

    #[test]
    fn empty_trace_is_well_formed() {
        let t: Trace<A> = Trace::new();
        assert!(is_well_formed(&t));
        assert!(is_phase_well_formed(&t, p(1), p(2)));
    }

    #[test]
    fn matched_pair_is_well_formed() {
        let t: Trace<A> = Trace::from_actions(vec![
            Action::invoke(c1(), p(1), 5),
            Action::respond(c1(), p(1), 5, 5),
        ]);
        assert!(is_well_formed(&t));
    }

    #[test]
    fn pending_invocation_allowed() {
        let t: Trace<A> = Trace::from_actions(vec![Action::invoke(c1(), p(1), 5)]);
        assert!(is_well_formed(&t));
    }

    #[test]
    fn response_without_invocation_rejected() {
        let t: Trace<A> = Trace::from_actions(vec![Action::respond(c1(), p(1), 5, 5)]);
        let e = check_well_formed(&t).unwrap_err();
        assert_eq!(e.client(), c1());
        assert!(e.reason().contains("no pending"));
    }

    #[test]
    fn double_invocation_rejected() {
        let t: Trace<A> = Trace::from_actions(vec![
            Action::invoke(c1(), p(1), 5),
            Action::invoke(c1(), p(1), 6),
        ]);
        assert!(!is_well_formed(&t));
    }

    #[test]
    fn mismatched_response_input_rejected() {
        let t: Trace<A> = Trace::from_actions(vec![
            Action::invoke(c1(), p(1), 5),
            Action::respond(c1(), p(1), 6, 6),
        ]);
        assert!(!is_well_formed(&t));
    }

    #[test]
    fn interleaved_clients_are_independent() {
        let t: Trace<A> = Trace::from_actions(vec![
            Action::invoke(c1(), p(1), 5),
            Action::invoke(c2(), p(1), 6),
            Action::respond(c2(), p(1), 6, 6),
            Action::respond(c1(), p(1), 5, 6),
        ]);
        assert!(is_well_formed(&t));
    }

    #[test]
    fn switch_in_plain_trace_rejected() {
        let t: Trace<A> = Trace::from_actions(vec![
            Action::invoke(c1(), p(1), 5),
            Action::switch(c1(), p(2), 5, 9),
        ]);
        assert!(!is_well_formed(&t));
        assert!(is_phase_well_formed(&t, p(1), p(2)));
    }

    #[test]
    fn abort_must_be_last() {
        let t: Trace<A> = Trace::from_actions(vec![
            Action::invoke(c1(), p(1), 5),
            Action::switch(c1(), p(2), 5, 9),
            Action::invoke(c1(), p(1), 6),
        ]);
        assert!(!is_phase_well_formed(&t, p(1), p(2)));
    }

    #[test]
    fn abort_carries_pending_input() {
        let t: Trace<A> = Trace::from_actions(vec![
            Action::invoke(c1(), p(1), 5),
            Action::switch(c1(), p(2), 6, 9),
        ]);
        assert!(!is_phase_well_formed(&t, p(1), p(2)));
    }

    #[test]
    fn second_phase_starts_with_init() {
        let good: Trace<A> = Trace::from_actions(vec![
            Action::switch(c1(), p(2), 5, 9),
            Action::respond(c1(), p(2), 5, 5),
        ]);
        assert!(is_phase_well_formed(&good, p(2), p(3)));
        let bad: Trace<A> = Trace::from_actions(vec![
            Action::invoke(c1(), p(2), 5),
            Action::respond(c1(), p(2), 5, 5),
        ]);
        assert!(!is_phase_well_formed(&bad, p(2), p(3)));
    }

    #[test]
    fn duplicate_init_rejected() {
        let t: Trace<A> = Trace::from_actions(vec![
            Action::switch(c1(), p(2), 5, 9),
            Action::respond(c1(), p(2), 5, 5),
            Action::switch(c1(), p(2), 6, 9),
        ]);
        assert!(!is_phase_well_formed(&t, p(2), p(3)));
    }

    #[test]
    fn interior_switches_projected_away_in_composed_phase() {
        // Composed phase (1, 3): the interior switch at phase 2 disappears
        // from client sub-traces; the client continues in phase 2.
        let t: Trace<A> = Trace::from_actions(vec![
            Action::invoke(c1(), p(1), 5),
            Action::switch(c1(), p(2), 5, 9),
            Action::respond(c1(), p(2), 5, 5),
            Action::invoke(c1(), p(2), 6),
            Action::respond(c1(), p(2), 6, 5),
        ]);
        assert!(is_phase_well_formed(&t, p(1), p(3)));
    }

    #[test]
    fn init_then_abort_composes() {
        // Phase (2, 3) trace: init in, abort out.
        let t: Trace<A> = Trace::from_actions(vec![
            Action::switch(c1(), p(2), 5, 9),
            Action::switch(c1(), p(3), 5, 11),
        ]);
        assert!(is_phase_well_formed(&t, p(2), p(3)));
    }
}
