//! Bounded symbolic certification: **one walk, two obligations**.
//!
//! The partitioner soundness contract (`slin_adt::partition`) and the
//! switch-independence contract ([`crate::switch`]) are the same bounded
//! exhaustive exploration with a different second obligation. `walk` is
//! that exploration, once: breadth-first over *candidate value, then
//! history of classified inputs up to a depth*, each node carrying the
//! monolithic state (`run(value ::: history)`) and the per-key projected
//! states (`run(value|k ::: history|k)`), memoized on the **signature**
//! `(full state, per-key projected states)`. Every obligation at a node is
//! a function of that signature alone, so visiting each signature once is
//! exhaustive up to the depth bound, and polynomial in the reachable
//! quotient graph rather than exponential in the alphabet. At every node
//! the walk discharges **same-key output projection** itself — every
//! classified probe answers identically after the full history and after
//! its same-key projection, `f_T(h ::: i) = f_T(h|k ::: i)` — and then the
//! caller's second obligation, a function of the node's state.
//!
//! [`certify`] is the walk from the one **empty candidate** — no switch
//! value was replayed, so a node is just a history from the initial state —
//! with *cross-key transition commutation* second: two classified inputs
//! with distinct keys commute as state transitions, and neither changes the
//! other's output when reordered. [`crate::switch::certify_switch`] is the
//! walk from every classifiable switch value, with *interpretation
//! commutation* second.
//!
//! On success the run is summarized as a [`Certificate`]; on failure the
//! offending node is greedily shrunk (`shrink`) and returned as a
//! replayable [`Counterexample`] whose [`Counterexample::to_trace`]
//! diverges under partitioned vs monolithic checking.

use crate::cert::{short_type_name, Certificate};
use slin_adt::{Adt, DomainSpec, Partitioner};
use slin_trace::{Action, ClientId, PhaseId, Trace};
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::fmt::Write as _;

/// Bounds for one [`certify`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalyzeConfig {
    /// Maximum history length explored (every obligation is additionally
    /// probed with 1–2 extra inputs beyond the history).
    pub depth: usize,
    /// Abort ceiling on distinct `(state, projections)` signatures.
    pub max_states: usize,
}

impl Default for AnalyzeConfig {
    fn default() -> Self {
        AnalyzeConfig {
            depth: 4,
            max_states: 1 << 18,
        }
    }
}

/// Which contract obligation a counterexample violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Obligation {
    /// Same-key output projection (`f_T(h ::: i) ≠ f_T(h|k ::: i)`).
    Projection,
    /// Cross-key transition commutation.
    Commutation,
}

/// A concrete, minimal-by-greedy-shrinking violation of the contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample<T: Adt> {
    /// Which obligation failed.
    pub obligation: Obligation,
    /// The history after which the obligation fails (classified inputs).
    pub history: Vec<T::Input>,
    /// The classified probe input whose behaviour the history corrupts.
    pub probe: T::Input,
    /// For [`Obligation::Commutation`]: the other-key input that fails to
    /// commute with `probe` after `history`.
    pub partner: Option<T::Input>,
    /// Human-readable rendering of the disagreeing observations.
    pub detail: String,
}

impl<T: Adt> Counterexample<T> {
    /// Total number of inputs in the replayable history (history + probe
    /// + partner).
    pub fn len(&self) -> usize {
        self.history.len() + 1 + usize::from(self.partner.is_some())
    }

    /// Counterexamples always contain at least the probe.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The full input sequence the counterexample replays.
    pub fn inputs(&self) -> Vec<T::Input> {
        let mut seq = self.history.clone();
        seq.push(self.probe.clone());
        seq.extend(self.partner.clone());
        seq
    }

    /// Replays the counterexample as a *sequential* trace (each input
    /// invoked and answered in order, outputs from a monolithic replay).
    ///
    /// The trace is linearizable by construction, so a monolithic check
    /// accepts it; a partitioned check under the rejected partitioner
    /// projects per key and — for projection violations — sees outputs no
    /// same-key sequential replay can explain, yielding the verdict
    /// divergence the certificate refusal predicts.
    pub fn to_trace(&self, adt: &T) -> Trace<Action<T::Input, T::Output, ()>> {
        let client = ClientId::new(1);
        let mut state = adt.initial();
        let mut trace = Trace::new();
        for input in self.inputs() {
            let (next, out) = adt.apply(&state, &input);
            state = next;
            trace.push(Action::invoke(client, PhaseId::FIRST, input.clone()));
            trace.push(Action::respond(client, PhaseId::FIRST, input, out));
        }
        trace
    }

    /// Multi-line human-readable rendering.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let what = match self.obligation {
            Obligation::Projection => "same-key output projection",
            Obligation::Commutation => "cross-key transition commutation",
        };
        let _ = writeln!(s, "contract violation: {what}");
        let _ = writeln!(s, "  history: {:?}", self.history);
        let _ = writeln!(s, "  probe:   {:?}", self.probe);
        if let Some(p) = &self.partner {
            let _ = writeln!(s, "  partner: {p:?}");
        }
        let _ = write!(s, "  {}", self.detail);
        s
    }
}

/// Why a certification run did not produce a certificate; `C` is the
/// contract's counterexample type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure<C> {
    /// The contract is violated; here is a minimal replay.
    Unsound(C),
    /// The quotient state space outgrew [`AnalyzeConfig::max_states`]
    /// before the depth bound — no verdict either way.
    StateSpaceExceeded {
        /// Signatures explored before aborting.
        explored: usize,
    },
}

impl<C> Failure<C> {
    /// Turns the walk's raw refutation into the contract's counterexample.
    pub(crate) fn map<D>(self, f: impl FnOnce(C) -> D) -> Failure<D> {
        match self {
            Failure::Unsound(c) => Failure::Unsound(f(c)),
            Failure::StateSpaceExceeded { explored } => Failure::StateSpaceExceeded { explored },
        }
    }
}

/// Why [`certify`] did not produce a certificate.
pub type AnalyzeFailure<T> = Failure<Counterexample<T>>;

/// A candidate value's per-class components, by ascending key.
pub(crate) type Parts<T, K> = BTreeMap<K, Vec<<T as Adt>::Input>>;

/// A candidate value the walk starts from, with its components.
pub(crate) type Candidate<T, K> = (Vec<<T as Adt>::Input>, Parts<T, K>);

/// One node of the walk: a candidate value followed by a concrete history,
/// with the monolithic replayed state and the per-key projected states
/// (projected value, then projected history). The value and history are
/// carried only so a refutation shrinks into a concrete replay.
struct Node<T: Adt, K> {
    value: Vec<T::Input>,
    history: Vec<T::Input>,
    state: T::State,
    proj: BTreeMap<K, T::State>,
}

/// The memo key of a node: full state plus every per-key projected state.
type Signature<T, K> = (<T as Adt>::State, Vec<(K, <T as Adt>::State)>);

fn signature<T: Adt, K: Clone + Ord>(node: &Node<T, K>) -> Signature<T, K> {
    let proj = node.proj.iter().map(|(k, s)| (k.clone(), s.clone()));
    (node.state.clone(), proj.collect())
}

/// The statistics of a completed walk — what both certificates record.
#[derive(Default)]
pub(crate) struct Walked {
    pub alphabet: usize,
    pub classified: usize,
    pub keys: usize,
    pub states: usize,
    pub projection_checks: u64,
    pub commutation_checks: u64,
}

/// The node at which an obligation failed, unshrunk.
pub(crate) struct Refuted<I, W> {
    pub value: Vec<I>,
    pub history: Vec<I>,
    pub broken: Broken<I, W>,
}

/// Which obligation failed at a node.
pub(crate) enum Broken<I, W> {
    /// Obligation 1, for this probe.
    Projection(I),
    /// The caller's obligation, with its own witness.
    Second(W),
}

/// The one bounded exploration (module docs). `roots` are the candidate
/// values to start from, with their per-class components; `second` checks
/// the caller's obligation at a node's state, given the classified domain,
/// and returns how many checks it made or the witness of a violation.
///
/// Unclassified domain inputs (key `None`) are excluded from exploration:
/// the checkers fall back to monolithic checking whenever a trace contains
/// one, so the contracts only constrain classified inputs.
pub(crate) fn walk<T, P, W>(
    adt: &T,
    partitioner: &P,
    cfg: &AnalyzeConfig,
    roots: &[Candidate<T, P::Key>],
    second: impl Fn(&[(T::Input, P::Key)], &T::State) -> Result<u64, W>,
) -> Result<Walked, Failure<Refuted<T::Input, W>>>
where
    T: DomainSpec,
    P: Partitioner<T>,
{
    let domain = adt.input_domain();
    let classified: Vec<(T::Input, P::Key)> = domain
        .iter()
        .filter_map(|i| partitioner.key_of(i).map(|k| (i.clone(), k)))
        .collect();
    let keys: BTreeSet<&P::Key> = classified.iter().map(|(_, k)| k).collect();
    let mut walked = Walked {
        alphabet: domain.len(),
        classified: classified.len(),
        keys: keys.len(),
        ..Walked::default()
    };
    let mut visited: HashSet<Signature<T, P::Key>> = HashSet::new();
    let mut queue: VecDeque<Node<T, P::Key>> = VecDeque::new();
    // The one door into the walk: a node enters once per signature, and
    // the ceiling is checked where the quotient grows.
    let mut admit = |node: Node<T, P::Key>, queue: &mut VecDeque<_>| {
        if visited.insert(signature(&node)) {
            if visited.len() > cfg.max_states {
                return Err(Failure::StateSpaceExceeded {
                    explored: visited.len(),
                });
            }
            queue.push_back(node);
        }
        Ok(())
    };

    for (value, parts) in roots {
        let root = Node {
            value: value.clone(),
            history: Vec::new(),
            state: adt.run(value),
            proj: (parts.iter())
                .map(|(k, component)| (k.clone(), adt.run(component)))
                .collect(),
        };
        admit(root, &mut queue)?;
    }
    while let Some(node) = queue.pop_front() {
        let refuted = |broken| {
            Failure::Unsound(Refuted {
                value: node.value.clone(),
                history: node.history.clone(),
                broken,
            })
        };
        // Obligation 1: every classified probe answers identically after
        // the monolithic replay and after the per-class one.
        for (probe, key) in &classified {
            walked.projection_checks += 1;
            let full_out = adt.apply(&node.state, probe).1;
            let class_state = node.proj.get(key).cloned().unwrap_or_else(|| adt.initial());
            if full_out != adt.apply(&class_state, probe).1 {
                return Err(refuted(Broken::Projection(probe.clone())));
            }
        }
        // Obligation 2: the caller's, at this state.
        walked.commutation_checks +=
            second(&classified, &node.state).map_err(|w| refuted(Broken::Second(w)))?;
        // Expand by one more classified input, up to the depth bound.
        if node.history.len() >= cfg.depth {
            continue;
        }
        for (input, key) in &classified {
            let mut proj = node.proj.clone();
            let entry = proj.entry(key.clone()).or_insert_with(|| adt.initial());
            *entry = adt.apply(entry, input).0;
            let mut history = node.history.clone();
            history.push(input.clone());
            let next = Node {
                value: node.value.clone(),
                history,
                state: adt.apply(&node.state, input).0,
                proj,
            };
            admit(next, &mut queue)?;
        }
    }
    walked.states = visited.len();
    Ok(walked)
}

/// Exhaustively checks both partitioner-contract obligations for
/// `partitioner` over `adt`'s enumerable domain, up to `cfg.depth`-length
/// histories: the walk from the empty candidate (module docs).
///
/// # Example
///
/// ```
/// use slin_adt::{KvKeyPartitioner, KvStore};
/// use slin_analysis::{certify, AnalyzeConfig};
/// let cert = certify(&KvStore, &KvKeyPartitioner, &AnalyzeConfig::default()).unwrap();
/// assert_eq!(cert.adt, "KvStore");
/// assert!(cert.verify());
/// ```
pub fn certify<T, P>(
    adt: &T,
    partitioner: &P,
    cfg: &AnalyzeConfig,
) -> Result<Certificate, AnalyzeFailure<T>>
where
    T: DomainSpec,
    P: Partitioner<T>,
{
    // Distinct-key classified pairs commute as transitions and preserve
    // each other's outputs.
    let pairwise = |classified: &[(T::Input, P::Key)], state: &T::State| {
        let mut checks = 0;
        for (a, (i, ki)) in classified.iter().enumerate() {
            for (j, _) in classified[a + 1..].iter().filter(|(_, kj)| ki != kj) {
                checks += 1;
                if commutation_violation(adt, state, i, j).is_some() {
                    return Err((i.clone(), j.clone()));
                }
            }
        }
        Ok(checks)
    };
    let empty_candidate: [Candidate<T, P::Key>; 1] = Default::default();
    let walked = walk(adt, partitioner, cfg, &empty_candidate, pairwise)
        .map_err(|failure| failure.map(|refuted| shrunk(adt, partitioner, refuted)))?;
    Ok(Certificate {
        adt: short_type_name::<T>().to_string(),
        partitioner: short_type_name::<P>().to_string(),
        depth: cfg.depth,
        alphabet: walked.alphabet,
        classified: walked.classified,
        keys: walked.keys,
        states: walked.states,
        projection_checks: walked.projection_checks,
        commutation_checks: walked.commutation_checks,
        content_hash: String::new(),
    }
    .sealed())
}

/// Shrinks the walk's refutation into a replayable counterexample.
fn shrunk<T: Adt, P: Partitioner<T>>(
    adt: &T,
    partitioner: &P,
    refuted: Refuted<T::Input, (T::Input, T::Input)>,
) -> Counterexample<T> {
    let (mut history, mut no_value) = (refuted.history, Vec::new());
    match refuted.broken {
        Broken::Projection(probe) => {
            let (full_out, projected, proj_out) = shrink(&mut history, &mut no_value, |h, _| {
                projection_divergence(adt, partitioner, &[], h, &probe)
            });
            Counterexample {
                obligation: Obligation::Projection,
                detail: format!(
                    "full history answers {full_out:?}, same-key projection \
                     {projected:?} answers {proj_out:?}"
                ),
                history,
                probe,
                partner: None,
            }
        }
        Broken::Second((i, j)) => Counterexample {
            obligation: Obligation::Commutation,
            detail: shrink(&mut history, &mut no_value, |h, _| {
                commutation_violation(adt, &adt.run(h), &i, &j)
            }),
            history,
            probe: i,
            partner: Some(j),
        },
    }
}

/// Checks the commutation obligation for `(i, j)` at `state`; returns the
/// disagreement rendering on violation.
fn commutation_violation<T: Adt>(
    adt: &T,
    state: &T::State,
    i: &T::Input,
    j: &T::Input,
) -> Option<String> {
    let (s_i, out_i) = adt.apply(state, i);
    let (s_ij, out_j_after_i) = adt.apply(&s_i, j);
    let (s_j, out_j) = adt.apply(state, j);
    let (s_ji, out_i_after_j) = adt.apply(&s_j, i);
    if s_ij != s_ji {
        Some(format!(
            "states diverge: {i:?};{j:?} reaches {s_ij:?} but {j:?};{i:?} reaches {s_ji:?}"
        ))
    } else if out_i != out_i_after_j {
        Some(format!(
            "output of {i:?} changes across reorder: {out_i:?} vs {out_i_after_j:?}"
        ))
    } else if out_j != out_j_after_i {
        Some(format!(
            "output of {j:?} changes across reorder: {out_j:?} vs {out_j_after_i:?}"
        ))
    } else {
        None
    }
}

/// Does obligation 1 fail for `probe` after `value ::: history`? Returns
/// the monolithic answer, the same-key projection and its answer if so.
#[allow(clippy::type_complexity)]
pub(crate) fn projection_divergence<T, P>(
    adt: &T,
    partitioner: &P,
    value: &[T::Input],
    history: &[T::Input],
    probe: &T::Input,
) -> Option<(T::Output, Vec<T::Input>, T::Output)>
where
    T: Adt,
    P: Partitioner<T>,
{
    let key = partitioner.key_of(probe)?;
    let replayed = || value.iter().chain(history);
    let full = replayed().fold(adt.initial(), |s, i| adt.apply(&s, i).0);
    let full_out = adt.apply(&full, probe).1;
    let projected: Vec<T::Input> = replayed()
        .filter(|i| partitioner.key_of(i).as_ref() == Some(&key))
        .cloned()
        .collect();
    let proj_out = adt.apply(&adt.run(&projected), probe).1;
    (full_out != proj_out).then_some((full_out, projected, proj_out))
}

/// Greedily drops one input at a time — from `history` first, then from
/// `value` — while `violation(history, value)` persists, restarting after
/// every drop; returns the violation of what is left. The order is part of
/// the contract: it decides which minimal replay a rejected partitioner is
/// shown.
pub(crate) fn shrink<I: Clone, D>(
    history: &mut Vec<I>,
    value: &mut Vec<I>,
    violation: impl Fn(&[I], &[I]) -> Option<D>,
) -> D {
    let without = |seq: &[I], idx: usize| {
        let mut shorter = seq.to_vec();
        shorter.remove(idx);
        shorter
    };
    loop {
        let mut shorter = (0..history.len()).map(|idx| without(history, idx));
        if let Some(h) = shorter.find(|h| violation(h, value).is_some()) {
            *history = h;
            continue;
        }
        let mut shorter = (0..value.len()).map(|idx| without(value, idx));
        if let Some(v) = shorter.find(|v| violation(history, v).is_some()) {
            *value = v;
            continue;
        }
        return violation(history, value).expect("the walk refuted this node");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::BogusCounterPartitioner;
    use slin_adt::{
        Counter, CounterVecPartitioner, CounterVector, KvKeyPartitioner, KvStore,
        RegArrayPartitioner, RegisterArray, Set, SetElemPartitioner,
    };

    #[test]
    fn shipped_partitioners_certify_at_default_depth() {
        let cfg = AnalyzeConfig::default();
        assert!(certify(&KvStore, &KvKeyPartitioner, &cfg).is_ok());
        assert!(certify(&Set, &SetElemPartitioner, &cfg).is_ok());
        assert!(certify(&RegisterArray, &RegArrayPartitioner, &cfg).is_ok());
        assert!(certify(&CounterVector, &CounterVecPartitioner, &cfg).is_ok());
    }

    #[test]
    fn certificates_carry_run_statistics() {
        let cert = certify(&KvStore, &KvKeyPartitioner, &AnalyzeConfig::default()).unwrap();
        assert_eq!(cert.adt, "KvStore");
        assert_eq!(cert.partitioner, "KvKeyPartitioner");
        assert_eq!(cert.depth, 4);
        assert_eq!(cert.alphabet, 8);
        assert_eq!(cert.classified, 8);
        assert_eq!(cert.keys, 2);
        assert!(cert.states > 1);
        assert!(cert.projection_checks >= cert.states as u64);
        assert!(cert.verify());
    }

    #[test]
    fn bogus_counter_partitioner_is_rejected_with_a_short_replay() {
        let failure = certify(
            &Counter,
            &BogusCounterPartitioner,
            &AnalyzeConfig::default(),
        )
        .unwrap_err();
        let AnalyzeFailure::Unsound(cex) = failure else {
            panic!("expected a counterexample");
        };
        assert!(cex.len() <= 4, "counterexample too long: {}", cex.len());
        let trace = cex.to_trace(&Counter);
        assert_eq!(trace.len(), cex.len() * 2);
    }

    #[test]
    fn state_space_ceiling_aborts_without_a_verdict() {
        let cfg = AnalyzeConfig {
            depth: 4,
            max_states: 4,
        };
        assert!(matches!(
            certify(&KvStore, &KvKeyPartitioner, &cfg),
            Err(AnalyzeFailure::StateSpaceExceeded { .. })
        ));
    }

    #[test]
    fn depth_zero_still_checks_commutation_at_the_initial_state() {
        let cfg = AnalyzeConfig {
            depth: 0,
            max_states: 1 << 10,
        };
        // The bogus partitioner already fails at the initial state: the
        // increment/read pair it splits across keys does not commute.
        assert!(matches!(
            certify(&Counter, &BogusCounterPartitioner, &cfg),
            Err(AnalyzeFailure::Unsound(_))
        ));
    }
}
