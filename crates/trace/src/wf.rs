//! Well-formedness of traces (paper Definitions 13–15 and 33–35).
//!
//! A client is sequential: it never invokes the object before its preceding
//! invocation returned. Well-formedness captures this per-client alternation,
//! and — for speculation phases `(m, n)` — the switching discipline: a client
//! enters the phase either by an invocation (when `m = 1`) or by exactly one
//! *init* switch action labelled `m`, and an *abort* switch action labelled
//! `n` is the last event of the client's sub-trace.
//!
//! # The automaton, once
//!
//! The definitions project a trace onto each client (`sub(t, c)`,
//! Definition 13; for a phase `(m, n)` the projection keeps only switch
//! actions labelled `m` or `n` and invocations/responses labelled in
//! `[m..n-1]`, Definition 33) and constrain each projection separately. Per
//! client that is a three-field automaton — the pending input, whether the
//! client has *started*, whether it has *aborted* — whose one transition
//! function accepts the client's next event or names the [`Reason`] it
//! cannot; a client's first violation is final.
//!
//! [`Validator`] runs one automaton per client in one pass, materialising
//! no sub-trace, and remembers what the checkers ask of a trace before they
//! search it: the first action outside the signature, the first switch
//! action, and the lowest client id's first violation — the error a
//! client-by-client reading of the definitions reports. Everybody folds the
//! same object: [`check_well_formed`] / [`check_phase_well_formed`] and
//! [`validate`] (the batch checkers' gate) over a closed trace, the
//! streaming monitor one event at a time. The projection-based reading
//! lives on as the reference `tests/proptests.rs` compares the validator
//! with, at every prefix of random action sequences.

use crate::action::{Action, ClientId, PhaseId};
use crate::prop::Signature as _;
use crate::sig::PhaseSignature;
use crate::trace::Trace;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Declares [`Reason`]: each refused transition with the sentence it
/// prints, which is also its documentation.
macro_rules! reasons {
    ($($variant:ident => $text:literal,)*) => {
        /// Why a client's sub-trace is not well-formed: the transition the
        /// alternation automaton refused. `Display` is the sentence the
        /// checkers' errors print; `Debug` is that sentence quoted, which is
        /// what a [`WellFormednessError`] has always debug-printed.
        #[derive(Clone, Copy, PartialEq, Eq)]
        pub enum Reason {
            $( #[doc = $text] $variant, )*
        }

        impl fmt::Display for Reason {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(match self {
                    $( Reason::$variant => $text, )*
                })
            }
        }
    };
}

reasons! {
    AfterAbort => "events after the abort switch action",
    InvokeBeforeInit => "first event must be the init switch action when m ≠ 1",
    InvokeWhilePending => "invocation while a previous input is pending",
    ResponseWithoutPending => "response with no pending input",
    ResponseInputMismatch => "response input differs from pending input",
    SwitchInPlainTrace => "switch action in a plain object trace",
    InitInFirstPhase => "init actions are impossible when m = 1",
    InitNotFirst => "init action must be the unique first event",
    AbortWithoutPending => "abort switch with no pending input",
    AbortInputMismatch => "abort switch input differs from pending input",
    // Unreachable through `Validator`, which projects interior switches
    // away (Definition 33); it keeps the automaton total.
    InteriorSwitch => "interior switch action in client sub-trace",
}

impl fmt::Debug for Reason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.to_string())
    }
}

/// A well-formedness violation, reporting the offending client and a reason.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WellFormednessError {
    client: ClientId,
    reason: Reason,
}

impl WellFormednessError {
    /// The client whose sub-trace violates well-formedness.
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// The transition the client's automaton refused.
    pub fn reason(&self) -> Reason {
        self.reason
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

/// Why a trace is refused before any search, in the checkers' order of
/// precedence: signature membership first, well-formedness second.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Invalid {
    /// An action lies outside the signature: a switch action in a plain
    /// object trace (`sigT` has none), or a phase label outside
    /// `sigT(m, n)` in a phase trace.
    OutsideSignature {
        /// Index of the first such action.
        index: usize,
    },
    /// Every action is in the signature, but the trace is not well-formed.
    IllFormed(WellFormednessError),
}

/// One client's alternation automaton (module docs).
struct Client<I> {
    /// The input awaiting a response or an abort.
    pending: Option<I>,
    started: bool,
    aborted: bool,
}

impl<I: Clone + PartialEq> Client<I> {
    /// Takes the client's next (projected) event, or refuses it.
    fn step<O, V>(
        &mut self,
        action: &Action<I, O, V>,
        bounds: Option<(PhaseId, PhaseId)>,
    ) -> Result<(), Reason> {
        if self.aborted {
            return Err(Reason::AfterAbort);
        }
        let first = !std::mem::replace(&mut self.started, true);
        match action {
            Action::Invoke { input, .. } => {
                if first && bounds.is_some_and(|(m, _)| m != PhaseId::FIRST) {
                    return Err(Reason::InvokeBeforeInit);
                }
                if self.pending.is_some() {
                    return Err(Reason::InvokeWhilePending);
                }
                self.pending = Some(input.clone());
            }
            Action::Respond { input, .. } => self.settle(
                input,
                Reason::ResponseWithoutPending,
                Reason::ResponseInputMismatch,
            )?,
            Action::Switch { phase, input, .. } => {
                let Some((m, n)) = bounds else {
                    return Err(Reason::SwitchInPlainTrace);
                };
                if *phase == m {
                    // Init action: enters the phase with a pending input.
                    if m == PhaseId::FIRST {
                        return Err(Reason::InitInFirstPhase);
                    }
                    if !first {
                        return Err(Reason::InitNotFirst);
                    }
                    self.pending = Some(input.clone());
                } else if *phase == n {
                    // Abort action: carries the pending input out of the phase.
                    self.settle(
                        input,
                        Reason::AbortWithoutPending,
                        Reason::AbortInputMismatch,
                    )?;
                    self.aborted = true;
                } else {
                    return Err(Reason::InteriorSwitch);
                }
            }
        }
        Ok(())
    }

    /// Consumes the pending input, which must be `input`.
    fn settle(&mut self, input: &I, none: Reason, differs: Reason) -> Result<(), Reason> {
        match self.pending.take() {
            None => Err(none),
            Some(p) if p != *input => Err(differs),
            Some(_) => Ok(()),
        }
    }
}

/// The one-pass well-formedness validator (module docs): feed it a trace's
/// actions in order with [`Validator::observe`]; [`Validator::check`] is
/// the verdict on the prefix seen so far, in O(1).
///
/// # Example
///
/// ```
/// use slin_trace::wf::{Invalid, Validator};
/// use slin_trace::{Action, ClientId, PhaseId};
///
/// let c = ClientId::new(1);
/// let mut v: Validator<u8> = Validator::new(None);
/// v.observe(&Action::<u8, u8, ()>::invoke(c, PhaseId::FIRST, 3));
/// assert!(v.check().is_ok());
/// v.observe(&Action::<u8, u8, ()>::invoke(c, PhaseId::FIRST, 4));
/// assert!(matches!(v.check(), Err(Invalid::IllFormed(e)) if e.client() == c));
/// ```
pub struct Validator<I> {
    /// `None` for plain object traces, the phase's signature otherwise.
    sig: Option<PhaseSignature>,
    /// Live automata; `None` once the client has violated.
    clients: BTreeMap<ClientId, Option<Client<I>>>,
    /// Actions observed so far (the next action's index).
    len: usize,
    first_switch: Option<usize>,
    first_foreign: Option<usize>,
    /// The lowest client id's first violation.
    first_error: Option<WellFormednessError>,
}

impl<I: Clone + PartialEq> Validator<I> {
    /// A validator for plain object traces (`None`, Definitions 13–15) or
    /// for traces of the speculation phase `(m, n)` (Definitions 33–35).
    ///
    /// # Panics
    ///
    /// Panics unless `m < n`.
    pub fn new(phase_bounds: Option<(PhaseId, PhaseId)>) -> Self {
        Validator {
            sig: phase_bounds.map(|(m, n)| PhaseSignature::new(m, n)),
            clients: BTreeMap::new(),
            len: 0,
            first_switch: None,
            first_foreign: None,
            first_error: None,
        }
    }

    /// Feeds the trace's next action through its client's automaton.
    pub fn observe<O, V>(&mut self, action: &Action<I, O, V>) {
        let index = self.len;
        self.len += 1;
        if action.is_switch() {
            self.first_switch.get_or_insert(index);
        }
        let bounds = self.sig.map(|sig| (sig.lower(), sig.upper()));
        let in_signature = match self.sig {
            None => !action.is_switch(),
            Some(sig) => sig.contains(action),
        };
        if !in_signature {
            self.first_foreign.get_or_insert(index);
        }
        if let Some((m, n)) = bounds {
            // The (m, n)-client-sub-trace drops out-of-range invocations
            // and responses, and every switch not labelled m or n.
            let interior =
                matches!(action, Action::Switch { phase, .. } if *phase != m && *phase != n);
            if !in_signature || interior {
                return;
            }
        }
        let client = action.client();
        let slot = self.clients.entry(client).or_insert_with(|| {
            Some(Client {
                pending: None,
                started: false,
                aborted: false,
            })
        });
        let Some(automaton) = slot else { return };
        if let Err(reason) = automaton.step(action, bounds) {
            *slot = None;
            if self.first_error.is_none_or(|e| client < e.client) {
                self.first_error = Some(WellFormednessError { client, reason });
            }
        }
    }

    /// Index of the first switch action observed, if any.
    pub fn first_switch(&self) -> Option<usize> {
        self.first_switch
    }

    /// The verdict on the actions observed so far: the first action
    /// outside the signature, else the lowest client id's first violation.
    ///
    /// # Errors
    ///
    /// The [`Invalid`] a batch checker reports for the same prefix.
    pub fn check(&self) -> Result<(), Invalid> {
        if let Some(index) = self.first_foreign {
            return Err(Invalid::OutsideSignature { index });
        }
        self.ill_formed().map_err(Invalid::IllFormed)
    }

    /// Well-formedness alone, whatever the signature says.
    fn ill_formed(&self) -> Result<(), WellFormednessError> {
        self.first_error.map_or(Ok(()), Err)
    }
}

/// Folds a closed trace through a fresh [`Validator`].
fn fold<I: Clone + PartialEq, O, V>(
    t: &Trace<Action<I, O, V>>,
    phase_bounds: Option<(PhaseId, PhaseId)>,
) -> Validator<I> {
    let mut validator = Validator::new(phase_bounds);
    t.iter().for_each(|a| validator.observe(a));
    validator
}

/// The batch checkers' gate: signature membership, then well-formedness,
/// of a closed trace — plain (`None`) or of the phase `(m, n)`.
///
/// # Errors
///
/// The first action outside the signature, else the trace's
/// [`WellFormednessError`].
pub fn validate<I: Clone + PartialEq, O, V>(
    t: &Trace<Action<I, O, V>>,
    phase_bounds: Option<(PhaseId, PhaseId)>,
) -> Result<(), Invalid> {
    fold(t, phase_bounds).check()
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
pub fn check_well_formed<I: Clone + PartialEq, O, V>(
    t: &Trace<Action<I, O, V>>,
) -> Result<(), WellFormednessError> {
    fold(t, None).ill_formed()
}

/// Boolean form of [`check_well_formed`].
pub fn is_well_formed<I: Clone + PartialEq, O, V>(t: &Trace<Action<I, O, V>>) -> bool {
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
///
/// # Panics
///
/// Panics unless `m < n`.
pub fn check_phase_well_formed<I: Clone + PartialEq, O, V>(
    t: &Trace<Action<I, O, V>>,
    m: PhaseId,
    n: PhaseId,
) -> Result<(), WellFormednessError> {
    fold(t, Some((m, n))).ill_formed()
}

/// Boolean form of [`check_phase_well_formed`].
pub fn is_phase_well_formed<I: Clone + PartialEq, O, V>(
    t: &Trace<Action<I, O, V>>,
    m: PhaseId,
    n: PhaseId,
) -> bool {
    check_phase_well_formed(t, m, n).is_ok()
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
        assert_eq!(e.reason(), Reason::ResponseWithoutPending);
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
