//! Bounded symbolic certification of **switch independence**: does the
//! exact init relation decompose per independence class?
//!
//! Phase traces (speculative linearizability, Defs. 19/25–31) interpret
//! every switch action through the init relation `rinit`: the candidate
//! history a switch carries seeds the chain search, and its longest common
//! prefix constrains every commit. Partitioned and streaming checking of
//! phase traces is sound only when that interpretation *factors through
//! the partitioner's independence classes* — otherwise a candidate history
//! can couple two classes through cross-key order, and per-class checking
//! diverges from the monolithic verdict.
//!
//! [`certify_switch`] is [`crate::analyze`]'s one walk started from every
//! classifiable value of the ADT's enumerable [`DomainSpec::switch_domain`]
//! instead of the one empty candidate. The walk's own obligation reads, for
//! a switch:
//!
//! 1. **Candidate projection** — for every switch value `v`, history `h`
//!    and classified probe `i` with key `k`, the probe answers identically
//!    after the monolithic interpretation (`run(v ::: h)`) and after the
//!    per-class one (`run(v|k ::: h|k)`). This is "per-key `rinit`
//!    projection equals projection of `rinit`" made operational for the
//!    exact relation, whose candidate set is the value itself.
//!
//! and the second obligation is
//!
//! 2. **Interpretation commutation** — replaying `v` from any reachable
//!    state equals replaying its per-class components grouped by ascending
//!    key, and any two class components commute. A value that only reaches
//!    a state through a specific cross-class interleaving does not factor,
//!    and per-class seeding would replay it wrong.
//!
//! Success is summarized as a content-hashed [`SwitchCert`]
//! (`slin-cert/v2`); failure is greedily shrunk to a
//! [`SwitchCounterexample`] whose [`SwitchCounterexample::to_trace`]
//! replays as a real phase trace on which keyed-partitioned and monolithic
//! speculative checking diverge.

use crate::analyze::{
    projection_divergence, shrink, walk, AnalyzeConfig, Broken, Candidate, Failure, Parts, Refuted,
};
use crate::cert::{short_type_name, SwitchCert};
use slin_adt::{Adt, DomainSpec, Partitioner};
use slin_trace::{Action, ClientId, PhaseId, Trace};
use std::fmt::Write as _;

/// Short name of the init relation whose decomposition [`certify_switch`]
/// proves: the exact relation, whose candidate set is the carried history
/// itself. Consumers match this against their relation's type name.
pub const EXACT_RELATION: &str = "ExactInit";

/// A replayable phase trace over an ADT's inputs/outputs, with switch
/// actions carrying candidate init histories.
pub type PhaseTrace<T> =
    Trace<Action<<T as Adt>::Input, <T as Adt>::Output, Vec<<T as Adt>::Input>>>;

/// Which switch-independence obligation a counterexample violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchObligation {
    /// Per-class interpretation of a candidate history answers a probe
    /// differently than the monolithic interpretation.
    CandidateProjection,
    /// Replaying a candidate history does not commute with grouping it
    /// into per-class components.
    InterpretationCommutation,
}

/// A concrete, minimal-by-greedy-shrinking switch-independence violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchCounterexample<T: Adt> {
    /// Which obligation failed.
    pub obligation: SwitchObligation,
    /// Committed operations after the switch (classified inputs).
    pub history: Vec<T::Input>,
    /// The candidate init history the switch carries.
    pub value: Vec<T::Input>,
    /// The classified probe whose answer the decomposition corrupts
    /// (`None` when only states diverge and no single probe observes it).
    pub probe: Option<T::Input>,
    /// Human-readable rendering of the disagreeing observations.
    pub detail: String,
}

impl<T: Adt> SwitchCounterexample<T> {
    /// Total number of inputs in the replayable scenario (candidate value
    /// + committed history + probe).
    pub fn len(&self) -> usize {
        self.value.len() + self.history.len() + usize::from(self.probe.is_some())
    }

    /// Counterexamples always contain at least one input.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Replays the counterexample as a **phase trace**: one client enters
    /// phase 2 through an init switch carrying the candidate value, then
    /// the history and probe commit sequentially with outputs from the
    /// monolithic interpretation (`run(value ::: …)`).
    ///
    /// Under a speculative checker with the exact init relation and phase
    /// pair `(2, 3)`, the monolithic path accepts this trace — every
    /// output is explained by the chain `value ::: history ::: probe`. A
    /// keyed (per-class) check under the rejected partitioner seeds each
    /// class with the *projected* value and, for candidate-projection
    /// violations, cannot explain the probe's output: the verdict
    /// divergence the certificate refusal predicts.
    pub fn to_trace(&self, adt: &T) -> PhaseTrace<T> {
        let m = PhaseId::new(2);
        let mut trace = Trace::new();
        let mut state = adt.run(&self.value);
        let mut commits: Vec<T::Input> = self.history.clone();
        commits.extend(self.probe.clone());
        // The switch's pending input is the first commit; any further
        // commits are invoked (and answered) by fresh clients.
        let mut pending = commits.into_iter();
        let Some(first) = pending.next() else {
            return trace;
        };
        trace.push(Action::switch(
            ClientId::new(1),
            m,
            first.clone(),
            self.value.clone(),
        ));
        let (next, out) = adt.apply(&state, &first);
        state = next;
        trace.push(Action::respond(ClientId::new(1), m, first, out));
        for (n, input) in pending.enumerate() {
            let c = ClientId::new(n as u32 + 2);
            trace.push(Action::invoke(c, m, input.clone()));
            let (next, out) = adt.apply(&state, &input);
            state = next;
            trace.push(Action::respond(c, m, input, out));
        }
        trace
    }

    /// Multi-line human-readable rendering.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let what = match self.obligation {
            SwitchObligation::CandidateProjection => "init-candidate projection",
            SwitchObligation::InterpretationCommutation => "switch-interpretation commutation",
        };
        let _ = writeln!(s, "switch-independence violation: {what}");
        let _ = writeln!(s, "  value:   {:?}", self.value);
        let _ = writeln!(s, "  history: {:?}", self.history);
        if let Some(p) = &self.probe {
            let _ = writeln!(s, "  probe:   {p:?}");
        }
        let _ = write!(s, "  {}", self.detail);
        s
    }
}

/// Why [`certify_switch`] did not produce a certificate.
pub type SwitchFailure<T> = Failure<SwitchCounterexample<T>>;

/// Exhaustively checks both switch-independence obligations for
/// `partitioner` over `adt`'s enumerable input and switch domains, up to
/// `cfg.depth`-length post-switch histories.
///
/// Switch values containing an unclassified input are skipped: the keyed
/// checker falls back to monolithic checking whenever it cannot classify a
/// candidate element, so the certificate only speaks for classifiable
/// values.
///
/// # Example
///
/// ```
/// use slin_adt::{KvKeyPartitioner, KvStore};
/// use slin_analysis::{certify_switch, AnalyzeConfig};
/// let cert = certify_switch(&KvStore, &KvKeyPartitioner, &AnalyzeConfig::default()).unwrap();
/// assert_eq!(cert.rinit, "ExactInit");
/// assert!(cert.verify());
/// ```
pub fn certify_switch<T, P>(
    adt: &T,
    partitioner: &P,
    cfg: &AnalyzeConfig,
) -> Result<SwitchCert, SwitchFailure<T>>
where
    T: DomainSpec,
    P: Partitioner<T>,
{
    let switch_domain = adt.switch_domain();
    let candidates: Vec<Candidate<T, P::Key>> = switch_domain
        .iter()
        .filter_map(|v| Some((v.clone(), parts_of::<T, P>(partitioner, v)?)))
        .collect();
    // At every reachable state, every multi-class candidate's
    // interpretation factors per class.
    let multi_class: Vec<_> = (candidates.iter())
        .filter(|(_, parts)| parts.len() >= 2)
        .collect();
    let factors = |_: &[(T::Input, P::Key)], state: &T::State| {
        for (value, parts) in &multi_class {
            if commutation_violation(adt, state, value, parts).is_some() {
                return Err(value.clone());
            }
        }
        Ok(multi_class.len() as u64)
    };
    let walked = walk(adt, partitioner, cfg, &candidates, factors)
        .map_err(|failure| failure.map(|refuted| shrunk(adt, partitioner, refuted)))?;
    Ok(SwitchCert {
        adt: short_type_name::<T>().to_string(),
        partitioner: short_type_name::<P>().to_string(),
        rinit: EXACT_RELATION.to_string(),
        depth: cfg.depth,
        alphabet: walked.alphabet,
        switch_values: switch_domain.len(),
        classified: walked.classified,
        keys: walked.keys,
        states: walked.states,
        projection_checks: walked.projection_checks,
        commutation_checks: walked.commutation_checks,
        content_hash: String::new(),
    }
    .sealed())
}

/// Checks the interpretation-commutation obligation for `value` at
/// `state`; returns the disagreement rendering on violation.
fn commutation_violation<T: Adt, K>(
    adt: &T,
    state: &T::State,
    value: &[T::Input],
    parts: &Parts<T, K>,
) -> Option<String> {
    let run_from = |start: &T::State, inputs: &[T::Input]| {
        inputs.iter().fold(start.clone(), |s, i| adt.apply(&s, i).0)
    };
    let direct = run_from(state, value);
    let grouped: Vec<T::Input> = parts.values().flatten().cloned().collect();
    let factored = run_from(state, &grouped);
    if direct != factored {
        return Some(format!(
            "replaying {value:?} reaches {direct:?}, its per-class grouping \
             {grouped:?} reaches {factored:?}"
        ));
    }
    let components: Vec<&Vec<T::Input>> = parts.values().collect();
    for a in 0..components.len() {
        for b in (a + 1)..components.len() {
            let ab = [components[a].as_slice(), components[b]].concat();
            let ba = [components[b].as_slice(), components[a]].concat();
            let s_ab = run_from(state, &ab);
            let s_ba = run_from(state, &ba);
            if s_ab != s_ba {
                return Some(format!(
                    "class components do not commute: {ab:?} reaches {s_ab:?} \
                     but {ba:?} reaches {s_ba:?}"
                ));
            }
        }
    }
    None
}

/// The per-class component map of `value`, or `None` when the partitioner
/// cannot classify one of its inputs.
fn parts_of<T, P>(partitioner: &P, value: &[T::Input]) -> Option<Parts<T, P::Key>>
where
    T: Adt,
    P: Partitioner<T>,
{
    let mut parts = Parts::<T, P::Key>::new();
    for i in value {
        parts
            .entry(partitioner.key_of(i)?)
            .or_default()
            .push(i.clone());
    }
    Some(parts)
}

/// Shrinks the walk's refutation into a replayable counterexample.
fn shrunk<T, P>(
    adt: &T,
    partitioner: &P,
    refuted: Refuted<T::Input, Vec<T::Input>>,
) -> SwitchCounterexample<T>
where
    T: DomainSpec,
    P: Partitioner<T>,
{
    let (mut value, mut history) = (refuted.value, refuted.history);
    let diverges = |h: &[T::Input], v: &[T::Input], probe: &T::Input| {
        projection_divergence(adt, partitioner, v, h, probe)
    };
    match refuted.broken {
        Broken::Projection(probe) => {
            let (full_out, projected, proj_out) =
                shrink(&mut history, &mut value, |h, v| diverges(h, v, &probe));
            SwitchCounterexample {
                obligation: SwitchObligation::CandidateProjection,
                detail: format!(
                    "monolithic interpretation answers {full_out:?}, per-class \
                     interpretation {projected:?} answers {proj_out:?}"
                ),
                history,
                value,
                probe: Some(probe),
            }
        }
        // The unfactored candidate is the switch value; what the node had
        // replayed (its own value, then its history) is the history the
        // candidate is interpreted after.
        Broken::Second(candidate) => {
            value.append(&mut history);
            let (mut history, mut value) = (value, candidate);
            let detail = shrink(&mut history, &mut value, |h, v| {
                parts_of::<T, P>(partitioner, v)
                    .filter(|parts| parts.len() >= 2)
                    .and_then(|parts| commutation_violation(adt, &adt.run(h), v, &parts))
            });
            // A probe whose output observes the divergence makes the replay
            // a one-trace verdict divergence; without one the states alone
            // differ.
            let probe = adt
                .input_domain()
                .into_iter()
                .find(|p| diverges(&history, &value, p).is_some());
            SwitchCounterexample {
                obligation: SwitchObligation::InterpretationCommutation,
                history,
                value,
                probe,
                detail,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{BogusCounterPartitioner, QueueValuePartitioner};
    use slin_adt::{
        Counter, CounterVecPartitioner, CounterVector, KvKeyPartitioner, KvStore, Queue,
        RegArrayPartitioner, RegisterArray, Set, SetElemPartitioner,
    };

    #[test]
    fn shipped_pairs_certify_switch_independence_at_default_depth() {
        let cfg = AnalyzeConfig::default();
        assert!(certify_switch(&KvStore, &KvKeyPartitioner, &cfg).is_ok());
        assert!(certify_switch(&Set, &SetElemPartitioner, &cfg).is_ok());
        assert!(certify_switch(&RegisterArray, &RegArrayPartitioner, &cfg).is_ok());
        assert!(certify_switch(&CounterVector, &CounterVecPartitioner, &cfg).is_ok());
    }

    #[test]
    fn switch_certs_carry_run_statistics() {
        let cert = certify_switch(&KvStore, &KvKeyPartitioner, &AnalyzeConfig::default()).unwrap();
        assert_eq!(cert.adt, "KvStore");
        assert_eq!(cert.partitioner, "KvKeyPartitioner");
        assert_eq!(cert.rinit, "ExactInit");
        assert_eq!(cert.alphabet, 8);
        assert_eq!(cert.switch_values, 1 + 8 + 64);
        assert_eq!(cert.keys, 2);
        assert!(cert.states > 1);
        assert!(cert.projection_checks > 0);
        assert!(cert.commutation_checks > 0);
        assert!(cert.verify());
    }

    #[test]
    fn bogus_init_relation_is_rejected_with_a_short_replay() {
        let failure = certify_switch(
            &Counter,
            &BogusCounterPartitioner,
            &AnalyzeConfig::default(),
        )
        .unwrap_err();
        let SwitchFailure::Unsound(cex) = failure else {
            panic!("expected a counterexample");
        };
        assert!(cex.len() <= 4, "counterexample too long: {}", cex.len());
        assert!(!cex.value.is_empty(), "the violation needs a switch value");
        let trace = cex.to_trace(&Counter);
        assert!(
            trace.iter().any(|a| a.is_switch()),
            "replay is a phase trace"
        );
    }

    #[test]
    fn order_coupled_values_violate_interpretation_commutation() {
        let failure =
            certify_switch(&Queue, &QueueValuePartitioner, &AnalyzeConfig::default()).unwrap_err();
        let SwitchFailure::Unsound(cex) = failure else {
            panic!("expected a counterexample");
        };
        assert!(cex.len() <= 4, "counterexample too long: {}", cex.len());
    }

    #[test]
    fn state_space_ceiling_aborts_without_a_verdict() {
        let cfg = AnalyzeConfig {
            depth: 4,
            max_states: 4,
        };
        assert!(matches!(
            certify_switch(&KvStore, &KvKeyPartitioner, &cfg),
            Err(SwitchFailure::StateSpaceExceeded { .. })
        ));
    }

    #[test]
    fn certification_is_deterministic() {
        let cfg = AnalyzeConfig::default();
        let a = certify_switch(&KvStore, &KvKeyPartitioner, &cfg).unwrap();
        let b = certify_switch(&KvStore, &KvKeyPartitioner, &cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }
}
