//! Phase projection and the intra-object composition theorem
//! (paper Section 5.6, Theorems 2, 3 and 5).
//!
//! Theorem 3 states: if `S1 ⊨ SLinT(m, n)` and `S2 ⊨ SLinT(n, o)` then
//! `proj(S1 ‖ S2, sigT(m, o, Init)) ⊨ SLinT(m, o)`. At the level of a single
//! observed trace `t` over `sigT(m, o, Init)` this instantiates to:
//!
//! > if `proj(t, sigT(m, n))` is `(m, n)`-speculatively linearizable and
//! > `proj(t, sigT(n, o))` is `(n, o)`-speculatively linearizable, then `t`
//! > is `(m, o)`-speculatively linearizable.
//!
//! [`check_composition`] evaluates all three checks and classifies the
//! outcome; the workspace property tests assert that
//! [`CompositionOutcome::TheoremViolated`] never occurs on generated traces.
//! A key hinge of the paper's proof (Lemma 6) is that the abort actions of
//! phase `(m, n)` *are* the init actions of phase `(n, o)`: both phases see
//! the same switch events labelled `n`.

use crate::engine::{SearchBudget, SearchStats};
use crate::initrel::InitRelation;
use crate::lin::LinChecker;
use crate::partition;
use crate::slin::{SlinChecker, SlinError};
use crate::ObjAction;
use slin_adt::{Adt, IdentityPartitioner};
use slin_trace::prop::Signature;
use slin_trace::{PhaseId, PhaseSignature, Trace};

/// Projects a trace onto the signature of speculation phase `(m, n)`
/// (keeping invocations, responses and switch actions labelled in `[m..n]`).
pub fn project_phase<T: Adt, V: Clone>(
    t: &Trace<ObjAction<T, V>>,
    m: PhaseId,
    n: PhaseId,
) -> Trace<ObjAction<T, V>>
where
    T::Input: Clone,
    T::Output: Clone,
{
    let sig = PhaseSignature::new(m, n);
    t.project(|a| sig.contains(a))
}

/// Projects a trace onto the plain object signature `sigT` (dropping all
/// switch actions) — the `proj(…, acts(sigT))` of Theorem 2.
pub fn project_object<T: Adt, V: Clone>(t: &Trace<ObjAction<T, V>>) -> Trace<ObjAction<T, V>>
where
    T::Input: Clone,
    T::Output: Clone,
{
    t.project(|a| !a.is_switch())
}

/// The classification of a composition-theorem check on one trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompositionOutcome {
    /// A phase projection failed its speculative-linearizability check, so
    /// the theorem's premise does not apply to this trace.
    PremiseFailed {
        /// Which phase projection failed: `1` for `(m, n)`, `2` for `(n, o)`.
        phase: u8,
        /// The failure reported by the phase checker.
        error: SlinError,
    },
    /// Premises and conclusion both hold — the theorem is corroborated.
    Holds,
    /// Premises hold but the conclusion fails. The paper proves this cannot
    /// happen; observing it would falsify the implementation (or the
    /// theorem).
    TheoremViolated(SlinError),
}

impl CompositionOutcome {
    /// Whether the outcome is consistent with Theorem 3.
    pub fn is_consistent(&self) -> bool {
        !matches!(self, CompositionOutcome::TheoremViolated(_))
    }
}

/// Checks the composition theorem on a single trace over `sigT(m, o, Init)`.
///
/// # Example
///
/// ```
/// use slin_adt::{Consensus, ConsInput, ConsOutput, Value};
/// use slin_core::compose::{check_composition, CompositionOutcome};
/// use slin_core::initrel::ConsensusInit;
/// use slin_trace::{Action, ClientId, PhaseId, Trace};
///
/// let c1 = ClientId::new(1);
/// let (p1, p2, p3) = (PhaseId::new(1), PhaseId::new(2), PhaseId::new(3));
/// // c1 proposes in phase 1, aborts to phase 2, and decides there.
/// let t: Trace<Action<ConsInput, ConsOutput, Value>> = Trace::from_actions(vec![
///     Action::invoke(c1, p1, ConsInput::propose(4)),
///     Action::switch(c1, p2, ConsInput::propose(4), Value::new(4)),
///     Action::respond(c1, p2, ConsInput::propose(4), ConsOutput::decide(4)),
/// ]);
/// let out = check_composition(&Consensus::new(), ConsensusInit::new(), &t, p1, p2, p3);
/// assert_eq!(out, CompositionOutcome::Holds);
/// ```
pub fn check_composition<T, R>(
    adt: &T,
    rinit: R,
    t: &Trace<ObjAction<T, R::Value>>,
    m: PhaseId,
    n: PhaseId,
    o: PhaseId,
) -> CompositionOutcome
where
    T: Adt + Clone + Send + Sync,
    T::Input: Ord + Send + Sync,
    T::Output: Sync,
    R: InitRelation<T::Input> + Clone + Sync,
    R::Value: Sync,
{
    assert!(m < n && n < o, "phases must be ordered m < n < o");
    let t_mn = project_phase::<T, R::Value>(t, m, n);
    let t_no = project_phase::<T, R::Value>(t, n, o);
    if let Err(error) = SlinChecker::owned(adt.clone(), rinit.clone(), m, n).check(&t_mn) {
        return CompositionOutcome::PremiseFailed { phase: 1, error };
    }
    if let Err(error) = SlinChecker::owned(adt.clone(), rinit.clone(), n, o).check(&t_no) {
        return CompositionOutcome::PremiseFailed { phase: 2, error };
    }
    match SlinChecker::owned(adt.clone(), rinit, m, o).check(t) {
        Ok(_) => CompositionOutcome::Holds,
        Err(error) => CompositionOutcome::TheoremViolated(error),
    }
}

/// The outcome of verifying a whole chained run: every speculation phase
/// `(k, k+1)` of the chain plus the object projection, all through the
/// shared chain-search engine ([`crate::engine`]), with aggregated
/// [`SearchStats`]. This is the harness-facing engine API: the consensus
/// and shared-memory scenario harnesses expose it over their recorded
/// traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseChainVerification {
    /// Per phase `(m, n, verdict)`: whether the `(m, n)` projection is
    /// `(m, n)`-speculatively linearizable.
    pub phases: Vec<(u32, u32, bool)>,
    /// The checker error behind every failed phase, `(m, n, error)` —
    /// distinguishing genuine violations
    /// ([`SlinError::NotSpeculativelyLinearizable`]) from resource limits
    /// ([`SlinError::BudgetExhausted`],
    /// [`SlinError::TooManyInterpretations`]).
    pub failures: Vec<(u32, u32, SlinError)>,
    /// Whether the object projection satisfies the paper's definition of
    /// linearizability.
    pub object_linearizable: bool,
    /// The object-projection checker error when it failed.
    pub object_error: Option<crate::lin::LinError>,
    /// Engine counters aggregated over every check performed.
    pub stats: SearchStats,
}

impl PhaseChainVerification {
    /// Whether every phase and the object projection passed.
    pub fn all_ok(&self) -> bool {
        self.object_linearizable && self.phases.iter().all(|&(_, _, ok)| ok)
    }
}

/// Verifies a chained run over phases `first ..= last`: each speculation
/// phase `(k, k+1)` on its projection, and plain linearizability on the
/// object projection.
///
/// # Example
///
/// ```
/// use slin_adt::{Consensus, ConsInput, ConsOutput, Value};
/// use slin_core::compose::verify_phase_chain;
/// use slin_core::initrel::ConsensusInit;
/// use slin_trace::{Action, ClientId, PhaseId, Trace};
///
/// let c1 = ClientId::new(1);
/// let t: Trace<Action<ConsInput, ConsOutput, Value>> = Trace::from_actions(vec![
///     Action::invoke(c1, PhaseId::new(1), ConsInput::propose(4)),
///     Action::switch(c1, PhaseId::new(2), ConsInput::propose(4), Value::new(4)),
///     Action::respond(c1, PhaseId::new(2), ConsInput::propose(4), ConsOutput::decide(4)),
/// ]);
/// let v = verify_phase_chain(&Consensus::new(), ConsensusInit::new(), &t, 1, 2);
/// assert!(v.all_ok());
/// assert!(v.stats.nodes > 0);
/// ```
pub fn verify_phase_chain<T, R>(
    adt: &T,
    rinit: R,
    t: &Trace<ObjAction<T, R::Value>>,
    first: u32,
    last: u32,
) -> PhaseChainVerification
where
    T: Adt + Clone + Send + Sync,
    T::Input: Ord + Send + Sync,
    T::Output: Sync,
    R: InitRelation<T::Input> + Clone + Sync,
    R::Value: Sync,
{
    assert!(first <= last, "phase chain requires first <= last");
    let mut stats = SearchStats::default();
    let mut phases = Vec::new();
    let mut failures = Vec::new();
    let (none, budget) = (
        None::<&IdentityPartitioner>,
        SearchBudget::DEFAULT_MAX_NODES,
    );
    for k in first..=last {
        let (m, n) = (PhaseId::new(k), PhaseId::new(k + 1));
        let proj = project_phase::<T, R::Value>(t, m, n);
        let model = SlinChecker::owned(adt.clone(), rinit.clone(), m, n);
        let verdict = partition::check(&model, none, &proj, budget, 0);
        stats.absorb(&verdict.stats);
        phases.push((k, k + 1, verdict.is_ok()));
        if let Err(error) = verdict.outcome {
            failures.push((k, k + 1, error));
        }
    }
    let obj = project_object::<T, R::Value>(t);
    let lin = partition::check(&LinChecker::owned(adt.clone()), none, &obj, budget, 0);
    stats.absorb(&lin.stats);
    PhaseChainVerification {
        phases,
        failures,
        object_linearizable: lin.is_ok(),
        object_error: lin.outcome.err(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::initrel::ConsensusInit;
    use crate::session::Verdict;
    use slin_adt::{ConsInput, ConsOutput, Consensus, Value};
    use slin_trace::{Action, ClientId};

    type CA = ObjAction<Consensus, Value>;

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

    /// The canonical two-phase run: c1 decides in phase 1; c2 aborts to
    /// phase 2 with the decided value and decides there.
    fn two_phase_run() -> Trace<CA> {
        Trace::from_actions(vec![
            Action::invoke(c(1), ph(1), p(1)),
            Action::invoke(c(2), ph(1), p(2)),
            Action::respond(c(1), ph(1), p(1), d(1)),
            Action::switch(c(2), ph(2), p(2), Value::new(1)),
            Action::respond(c(2), ph(2), p(2), d(1)),
        ])
    }

    #[test]
    fn projections_partition_switch_labels() {
        let t = two_phase_run();
        let t12 = project_phase::<Consensus, Value>(&t, ph(1), ph(2));
        let t23 = project_phase::<Consensus, Value>(&t, ph(2), ph(3));
        // The switch labelled 2 appears in both projections (Lemma 6).
        assert_eq!(t12.iter().filter(|a| a.is_switch()).count(), 1);
        assert_eq!(t23.iter().filter(|a| a.is_switch()).count(), 1);
        assert_eq!(t12.len(), 4);
        assert_eq!(t23.len(), 2);
    }

    #[test]
    fn object_projection_drops_switches() {
        let t = two_phase_run();
        let obj = project_object::<Consensus, Value>(&t);
        assert!(obj.iter().all(|a| !a.is_switch()));
        assert_eq!(obj.len(), 4);
    }

    #[test]
    fn theorem_holds_on_canonical_run() {
        let out = check_composition(
            &Consensus,
            ConsensusInit::new(),
            &two_phase_run(),
            ph(1),
            ph(2),
            ph(3),
        );
        assert_eq!(out, CompositionOutcome::Holds);
    }

    #[test]
    fn premise_failure_classified() {
        // Phase 1 misbehaves: decides 1 but c2 switches with 2.
        let t: Trace<CA> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(1), p(1)),
            Action::invoke(c(2), ph(1), p(2)),
            Action::respond(c(1), ph(1), p(1), d(1)),
            Action::switch(c(2), ph(2), p(2), Value::new(2)),
            Action::respond(c(2), ph(2), p(2), d(2)),
        ]);
        let out = check_composition(&Consensus, ConsensusInit::new(), &t, ph(1), ph(2), ph(3));
        assert!(matches!(
            out,
            CompositionOutcome::PremiseFailed { phase: 1, .. }
        ));
        assert!(out.is_consistent());
    }

    #[test]
    fn second_phase_premise_failure_classified() {
        // Phase 2 decides a value that was never a switch value.
        let t: Trace<CA> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(1), p(1)),
            Action::switch(c(1), ph(2), p(1), Value::new(1)),
            Action::respond(c(1), ph(2), p(1), d(7)),
            Action::invoke(c(2), ph(1), p(7)),
        ]);
        let out = check_composition(&Consensus, ConsensusInit::new(), &t, ph(1), ph(2), ph(3));
        assert!(matches!(
            out,
            CompositionOutcome::PremiseFailed { phase: 2, .. }
        ));
    }

    #[test]
    fn verify_phase_chain_reports_per_phase_verdicts_and_stats() {
        let v = verify_phase_chain(&Consensus, ConsensusInit::new(), &two_phase_run(), 1, 2);
        assert_eq!(v.phases, vec![(1, 2, true), (2, 3, true)]);
        assert!(v.object_linearizable);
        assert!(v.all_ok());
        assert!(v.stats.nodes > 0);
        assert!(v.stats.interpretations >= 2, "{:?}", v.stats);
    }

    /// Phase 1 decides 1 but c2 switches with 2: (1, 2) must fail while
    /// the object projection stays linearizable.
    fn misbehaving_run() -> Trace<CA> {
        Trace::from_actions(vec![
            Action::invoke(c(1), ph(1), p(1)),
            Action::invoke(c(2), ph(1), p(2)),
            Action::respond(c(1), ph(1), p(1), d(1)),
            Action::switch(c(2), ph(2), p(2), Value::new(2)),
        ])
    }

    #[test]
    fn verify_phase_chain_flags_the_misbehaving_phase() {
        let v = verify_phase_chain(&Consensus, ConsensusInit::new(), &misbehaving_run(), 1, 2);
        assert_eq!(v.phases[0], (1, 2, false));
        assert!(v.object_linearizable);
        assert!(!v.all_ok());
        // A genuine violation is recorded as such, not as a resource limit.
        assert!(matches!(
            v.failures.as_slice(),
            [(1, 2, SlinError::NotSpeculativelyLinearizable { .. })]
        ));
    }

    /// The chain's counters are those of every check it ran, the refuted
    /// phase's search included.
    #[test]
    fn verify_phase_chain_stats_absorb_every_check() {
        let t = misbehaving_run();
        let v = verify_phase_chain(&Consensus, ConsensusInit::new(), &t, 1, 2);
        let mut expected = SearchStats::default();
        let none = None::<&IdentityPartitioner>;
        for k in 1..=2 {
            let (m, n) = (ph(k), ph(k + 1));
            let Verdict { outcome, stats, .. } = partition::check(
                &SlinChecker::owned(Consensus, ConsensusInit::new(), m, n),
                none,
                &project_phase::<Consensus, Value>(&t, m, n),
                SearchBudget::DEFAULT_MAX_NODES,
                0,
            );
            assert_eq!(outcome.is_ok(), k != 1);
            assert!(k != 1 || stats.nodes > 0, "the refuted phase searched");
            expected.absorb(&stats);
        }
        let Verdict { stats, .. } = partition::check(
            &LinChecker::owned(Consensus),
            none,
            &project_object::<Consensus, Value>(&t),
            SearchBudget::DEFAULT_MAX_NODES,
            0,
        );
        expected.absorb(&stats);
        assert_eq!(v.stats, expected);
    }

    #[test]
    fn verify_phase_chain_distinguishes_budget_exhaustion() {
        // An exhausted search budget must be distinguishable from a
        // genuine violation at the harness API. Client 2 aborts with a
        // value other than the one client 1 decided while many proposals
        // stay pending: every subset of pending proposals a chain may
        // interleave is a distinct dead end, more than the default budget
        // can expand. The object projection drops the abort and passes.
        let pending = 24;
        let mut actions: Vec<CA> = (1..=pending + 2)
            .map(|v| Action::invoke(c(v as u32), ph(1), p(v)))
            .collect();
        actions.push(Action::respond(c(1), ph(1), p(1), d(1)));
        actions.push(Action::switch(c(2), ph(2), p(2), Value::new(2)));
        let t = Trace::from_actions(actions);
        let v = verify_phase_chain(&Consensus, ConsensusInit::new(), &t, 1, 1);
        assert!(!v.all_ok() && v.object_linearizable);
        assert!(
            matches!(
                v.failures.as_slice(),
                [(1, 2, SlinError::BudgetExhausted { .. })]
            ),
            "{:?}",
            v.failures
        );
    }

    #[test]
    fn no_switch_single_phase_run_holds() {
        let t: Trace<CA> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(1), p(1)),
            Action::respond(c(1), ph(1), p(1), d(1)),
        ]);
        let out = check_composition(&Consensus, ConsensusInit::new(), &t, ph(1), ph(2), ph(3));
        assert_eq!(out, CompositionOutcome::Holds);
    }
}
