//! The action alphabet of concurrent objects and speculation phases.
//!
//! Section 4.2 of the paper models the interface of a concurrent object of an
//! ADT `T` by invocation actions `inv(c, n, in)` and response actions
//! `res(c, n, in, out)`; Section 5.1 adds switch actions `swi(c, n, in, v)`
//! carrying a *switch value* `v` from one speculation phase to the next.
//!
//! The second parameter `n` is the *phase number* ([`PhaseId`]): a switch
//! action labelled with phase `n` transfers the pending input of a client
//! *into* phase `n` (it is an output of phase `n − 1` and an input of phase
//! `n`).

use std::fmt;

/// Identifier of a sequential client process.
///
/// Clients are asynchronous and sequential: a client never invokes the object
/// before its preceding invocation returned (paper Section 2.2).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClientId(u32);

impl ClientId {
    /// Creates a client identifier from its numeric value.
    pub fn new(id: u32) -> Self {
        ClientId(id)
    }

    /// The numeric value of this identifier.
    pub fn value(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl From<u32> for ClientId {
    fn from(id: u32) -> Self {
        ClientId(id)
    }
}

/// Identifier of a speculation phase (a natural number, 1-based).
///
/// Speculation phase `n` may only switch to speculation phase `n + 1`
/// (paper Section 5.1); clients start in phase [`PhaseId::FIRST`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhaseId(u32);

impl PhaseId {
    /// The first speculation phase (phase 1). Clients start here.
    pub const FIRST: PhaseId = PhaseId(1);

    /// Creates a phase identifier.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`; phases are numbered starting at 1.
    pub fn new(n: u32) -> Self {
        assert!(n > 0, "phase identifiers are 1-based");
        PhaseId(n)
    }

    /// The numeric value of this phase.
    pub fn value(self) -> u32 {
        self.0
    }

    /// The next phase, `n + 1` — the only phase this one may switch to.
    pub fn next(self) -> PhaseId {
        PhaseId(self.0 + 1)
    }

    /// The previous phase, `n - 1`.
    ///
    /// # Panics
    ///
    /// Panics when called on phase 1.
    pub fn prev(self) -> PhaseId {
        assert!(self.0 > 1, "phase 1 has no predecessor");
        PhaseId(self.0 - 1)
    }

    /// Whether this phase lies in the closed interval `[m..n]`.
    pub fn in_range(self, m: PhaseId, n: PhaseId) -> bool {
        m.0 <= self.0 && self.0 <= n.0
    }
}

impl fmt::Debug for PhaseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ph{}", self.0)
    }
}

impl fmt::Display for PhaseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for PhaseId {
    fn from(n: u32) -> Self {
        PhaseId::new(n)
    }
}

/// An event at the interface between clients and a (speculative)
/// implementation of a concurrent object.
///
/// `I` is the ADT input type, `O` the ADT output type and `V` the switch
/// value type (use `()` when the object has a single phase and no switches).
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Action<I, O, V> {
    /// `inv(c, n, in)` — client `c` invokes input `in` in phase `n`.
    Invoke {
        /// The invoking client.
        client: ClientId,
        /// The phase receiving the invocation.
        phase: PhaseId,
        /// The ADT input submitted.
        input: I,
    },
    /// `res(c, n, in, out)` — phase `n` responds `out` to client `c`'s
    /// pending input `in`.
    Respond {
        /// The client receiving the response.
        client: ClientId,
        /// The phase producing the response.
        phase: PhaseId,
        /// The pending input being answered.
        input: I,
        /// The ADT output returned.
        output: O,
    },
    /// `swi(c, n, in, v)` — client `c` switches *into* phase `n`, carrying
    /// its pending input `in` and switch value `v`.
    Switch {
        /// The switching client.
        client: ClientId,
        /// The destination phase (source phase is `n − 1`).
        phase: PhaseId,
        /// The pending input transferred to the next phase.
        input: I,
        /// The switch value interpreted through the common relation `rinit`.
        value: V,
    },
}

impl<I, O, V> Action<I, O, V> {
    /// Builds an invocation action.
    pub fn invoke(client: ClientId, phase: PhaseId, input: I) -> Self {
        Action::Invoke {
            client,
            phase,
            input,
        }
    }

    /// Builds a response action.
    pub fn respond(client: ClientId, phase: PhaseId, input: I, output: O) -> Self {
        Action::Respond {
            client,
            phase,
            input,
            output,
        }
    }

    /// Builds a switch action into `phase`.
    pub fn switch(client: ClientId, phase: PhaseId, input: I, value: V) -> Self {
        Action::Switch {
            client,
            phase,
            input,
            value,
        }
    }

    /// The client performing this action.
    pub fn client(&self) -> ClientId {
        match self {
            Action::Invoke { client, .. }
            | Action::Respond { client, .. }
            | Action::Switch { client, .. } => *client,
        }
    }

    /// The phase label of this action.
    pub fn phase(&self) -> PhaseId {
        match self {
            Action::Invoke { phase, .. }
            | Action::Respond { phase, .. }
            | Action::Switch { phase, .. } => *phase,
        }
    }

    /// The ADT input carried by this action.
    pub fn input(&self) -> &I {
        match self {
            Action::Invoke { input, .. }
            | Action::Respond { input, .. }
            | Action::Switch { input, .. } => input,
        }
    }

    /// Whether this is an invocation action.
    pub fn is_invoke(&self) -> bool {
        matches!(self, Action::Invoke { .. })
    }

    /// Whether this is a response action.
    pub fn is_respond(&self) -> bool {
        matches!(self, Action::Respond { .. })
    }

    /// Whether this is a switch action.
    pub fn is_switch(&self) -> bool {
        matches!(self, Action::Switch { .. })
    }

    /// The output carried by a response action, if any.
    pub fn output(&self) -> Option<&O> {
        match self {
            Action::Respond { output, .. } => Some(output),
            _ => None,
        }
    }
}

impl<I: fmt::Debug, O: fmt::Debug, V: fmt::Debug> fmt::Debug for Action<I, O, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Invoke {
                client,
                phase,
                input,
            } => write!(f, "inv({client:?}, {phase:?}, {input:?})"),
            Action::Respond {
                client,
                phase,
                input,
                output,
            } => write!(f, "res({client:?}, {phase:?}, {input:?}, {output:?})"),
            Action::Switch {
                client,
                phase,
                input,
                value,
            } => write!(f, "swi({client:?}, {phase:?}, {input:?}, {value:?})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type A = Action<u32, u32, &'static str>;

    #[test]
    fn accessors_return_constituents() {
        let c = ClientId::new(3);
        let inv: A = Action::invoke(c, PhaseId::FIRST, 10);
        let res: A = Action::respond(c, PhaseId::FIRST, 10, 42);
        let swi: A = Action::switch(c, PhaseId::new(2), 10, "v");
        assert_eq!(inv.client(), c);
        assert_eq!(res.phase(), PhaseId::FIRST);
        assert_eq!(*swi.input(), 10);
        assert_eq!(res.output(), Some(&42));
        assert_eq!(inv.output(), None);
        assert!(inv.is_invoke() && res.is_respond() && swi.is_switch());
    }

    #[test]
    fn phase_arithmetic() {
        let p = PhaseId::FIRST;
        assert_eq!(p.next(), PhaseId::new(2));
        assert!(PhaseId::new(2).in_range(PhaseId::new(1), PhaseId::new(3)));
        assert!(!PhaseId::new(4).in_range(PhaseId::new(1), PhaseId::new(3)));
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn phase_zero_rejected() {
        let _ = PhaseId::new(0);
    }

    #[test]
    fn debug_rendering_is_compact() {
        let a: A = Action::invoke(ClientId::new(1), PhaseId::FIRST, 5);
        assert_eq!(format!("{a:?}"), "inv(c1, ph1, 5)");
    }
}
