//! Concrete signatures for concurrent objects and speculation phases
//! (paper Section 4.2 and Definition 16).

use crate::action::{Action, PhaseId};
use crate::prop::{Polarity, Signature};

/// The signature `sigT(m, n, Init)` of a speculation phase `(m, n)`.
///
/// A phase `(m, n)` comprises the sub-phases numbered `m` to `n − 1`:
/// its invocation and response actions are labelled in `[m..n-1]`, while its
/// switch actions are labelled in `[m..n]` (the switch labelled `m` enters
/// the phase, the one labelled `n` leaves it). This labelling is what makes
/// the Appendix C projections tile: `acts(sig(m, n)) ∪ acts(sig(n, o)) =
/// acts(sig(m, o))` with responses of consecutive phases disjoint, and the
/// shared switch actions labelled `n` appearing in both.
///
/// Polarity: invocations are inputs; responses are outputs; a switch action
/// labelled `m` is an input (it is produced by the preceding phase), while
/// switch actions labelled in `(m..n]` are outputs. The plain object
/// signature `sigT` of Section 4.2 is recovered by
/// [`PhaseSignature::object`], which excludes switch actions altogether.
///
/// # Example
///
/// ```
/// use slin_trace::{Action, ClientId, PhaseId, PhaseSignature};
/// use slin_trace::prop::Signature;
///
/// let sig = PhaseSignature::new(PhaseId::new(1), PhaseId::new(2));
/// let c = ClientId::new(1);
/// let swi: Action<u8, u8, u8> = Action::switch(c, PhaseId::new(2), 0, 9);
/// assert!(sig.is_output(&swi));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PhaseSignature {
    m: PhaseId,
    n: PhaseId,
    include_switches: bool,
}

impl PhaseSignature {
    /// The signature of speculation phase `(m, n)`.
    ///
    /// # Panics
    ///
    /// Panics unless `m < n`.
    pub fn new(m: PhaseId, n: PhaseId) -> Self {
        assert!(m < n, "a speculation phase (m, n) requires m < n");
        PhaseSignature {
            m,
            n,
            include_switches: true,
        }
    }

    /// The plain object signature `sigT` restricted to phases `[m..n]`,
    /// with switch actions *excluded* — used to state Theorem 2
    /// (`proj(SLinT(1, m), acts(sigT)) = LinT`).
    pub fn object(m: PhaseId, n: PhaseId) -> Self {
        PhaseSignature {
            m,
            n,
            include_switches: false,
        }
    }

    /// The lower phase bound `m`.
    pub fn lower(&self) -> PhaseId {
        self.m
    }

    /// The upper phase bound `n`.
    pub fn upper(&self) -> PhaseId {
        self.n
    }
}

impl<I, O, V> Signature<Action<I, O, V>> for PhaseSignature {
    fn polarity(&self, action: &Action<I, O, V>) -> Option<Polarity> {
        let o = action.phase();
        // A phase (m, n) owns invocations/responses labelled [m..n-1]; the
        // switch-free object signature keeps the full inclusive range.
        let hi = if self.include_switches {
            self.n.prev()
        } else {
            self.n
        };
        match action {
            Action::Invoke { .. } => o.in_range(self.m, hi).then_some(Polarity::Input),
            Action::Respond { .. } => o.in_range(self.m, hi).then_some(Polarity::Output),
            Action::Switch { .. } => {
                if !self.include_switches || !o.in_range(self.m, self.n) {
                    None
                } else if o == self.m {
                    Some(Polarity::Input)
                } else {
                    Some(Polarity::Output)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ClientId;

    type A = Action<u8, u8, u8>;

    fn c() -> ClientId {
        ClientId::new(1)
    }

    #[test]
    fn invocations_are_inputs_responses_outputs() {
        let sig = PhaseSignature::new(PhaseId::new(1), PhaseId::new(3));
        let inv: A = Action::invoke(c(), PhaseId::new(2), 0);
        let res: A = Action::respond(c(), PhaseId::new(2), 0, 1);
        assert!(sig.is_input(&inv));
        assert!(sig.is_output(&res));
        // Responses labelled n belong to the next phase.
        let res_n: A = Action::respond(c(), PhaseId::new(3), 0, 1);
        assert!(!sig.contains(&res_n));
    }

    #[test]
    fn switch_polarity_depends_on_phase_label() {
        let sig = PhaseSignature::new(PhaseId::new(2), PhaseId::new(4));
        let incoming: A = Action::switch(c(), PhaseId::new(2), 0, 9);
        let interior: A = Action::switch(c(), PhaseId::new(3), 0, 9);
        let outgoing: A = Action::switch(c(), PhaseId::new(4), 0, 9);
        assert!(sig.is_input(&incoming));
        assert!(sig.is_output(&interior));
        assert!(sig.is_output(&outgoing));
    }

    #[test]
    fn out_of_range_actions_excluded() {
        let sig = PhaseSignature::new(PhaseId::new(2), PhaseId::new(3));
        let inv: A = Action::invoke(c(), PhaseId::new(1), 0);
        let inv3: A = Action::invoke(c(), PhaseId::new(3), 0);
        let swi: A = Action::switch(c(), PhaseId::new(4), 0, 9);
        assert!(!sig.contains(&inv));
        assert!(!sig.contains(&inv3));
        assert!(!sig.contains(&swi));
    }

    #[test]
    fn object_signature_excludes_switches() {
        let sig = PhaseSignature::object(PhaseId::new(1), PhaseId::new(3));
        let swi: A = Action::switch(c(), PhaseId::new(2), 0, 9);
        let inv: A = Action::invoke(c(), PhaseId::new(2), 0);
        assert!(!sig.contains(&swi));
        assert!(sig.contains(&inv));
    }

    #[test]
    fn consecutive_signatures_union_covers_composed_range() {
        // acts(sig(m,n)) ∪ acts(sig(n,o)) = acts(sig(m,o)) — checked on a
        // handful of witness actions.
        let s12 = PhaseSignature::new(PhaseId::new(1), PhaseId::new(2));
        let s23 = PhaseSignature::new(PhaseId::new(2), PhaseId::new(3));
        let s13 = PhaseSignature::new(PhaseId::new(1), PhaseId::new(3));
        for ph in 1..=3u32 {
            let acts: Vec<A> = vec![
                Action::invoke(c(), PhaseId::new(ph), 0),
                Action::respond(c(), PhaseId::new(ph), 0, 1),
                Action::switch(c(), PhaseId::new(ph), 0, 9),
            ];
            for a in &acts {
                assert_eq!(s13.contains(a), s12.contains(a) || s23.contains(a));
            }
        }
    }

    #[test]
    #[should_panic(expected = "m < n")]
    fn degenerate_phase_rejected() {
        let _ = PhaseSignature::new(PhaseId::new(2), PhaseId::new(2));
    }
}
