//! Speculative linearizability (paper Section 5).
//!
//! A trace `t` of a speculation phase `(m, n)` is *(m, n)-speculatively
//! linearizable* (Definition 19) iff it is `(m, n)`-well-formed and **for
//! every** interpretation `finit` of its init actions (switch actions
//! labelled `m`, interpreted through the common relation `rinit`) **there
//! exist** an interpretation `fabort` of its abort actions (switch actions
//! labelled `n`) and a *speculative linearization function* `g` such that
//! (Definitions 20–32):
//!
//! * **Explains** — `f_T(g(i))` is the output returned at every commit
//!   index `i`;
//! * **Validity** — commit and abort histories draw their inputs from the
//!   *valid inputs* `vi(m, t, finit, i)`: inputs invoked before `i` plus the
//!   inputs vouched for by init actions before `i` (`ivi`, Definition 25);
//! * **Commit-Order** — commit histories form a chain under strict prefix;
//! * **Init-Order** — the longest common prefix of all init histories is a
//!   strict prefix of every commit and abort history;
//! * **Abort-Order** — every commit history is a prefix of every abort
//!   history.
//!
//! [`SlinChecker`] decides the quantifier alternation by stating, for each
//! of the finite candidate interpretations provided by the
//! [`InitRelation`] (exact for the Section 6 singleton relation,
//! bounded-adversarial for the consensus mapping), the same
//! [`crate::engine`] chain-search problem as the plain linearizability
//! checker — seeded with the longest common prefix of the init histories
//! and extended with abort feasibility at the leaves.
//!
//! The model states those problems and searches none of them: the init
//! interpretations are **independent** (the universal quantifier of
//! Definition 19 factors over them), so `partition::check` — the one
//! search routine — enumerates them, in parallel when there is enough
//! search to repay spawning threads ([`partition::fan_out`], within the
//! thread bound a [`crate::session`] passes it). Verdicts are
//! deterministic and identical at every thread count: on failure, the
//! *earliest* interpretation in enumeration order wins — the same one a
//! single-threaded enumeration (a session built with `.threads(1)`)
//! reports.

use crate::engine::{Chain, EngineError, Refuted, SearchBudget};
use crate::initrel::{CandidateContext, InitRelation};
use crate::model::{self, ConsistencyModel, Problem, Projection};
use crate::ops::{self, Commit, SwitchEvent};
use crate::partition::{self, FallbackReason};
use crate::stream::MonitorStatus;
use crate::ObjAction;
use slin_adt::{Adt, IdentityPartitioner, Partitioner};
use slin_trace::seq;
use slin_trace::wf::{self, Invalid, WellFormednessError};
use slin_trace::{PersistentMultiset, PhaseId, Trace};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// Cap on the number of init interpretations enumerated.
pub const MAX_INTERPRETATIONS: usize = 16_384;

/// Why a trace failed the speculative linearizability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlinError {
    /// The trace is not `(m, n)`-well-formed (Definition 35).
    IllFormed(WellFormednessError),
    /// An action's phase label lies outside `[m..n]`.
    ForeignAction {
        /// Index of the offending action.
        index: usize,
    },
    /// No speculative linearization function exists for the reported init
    /// interpretation: the trace is not speculatively linearizable.
    NotSpeculativelyLinearizable {
        /// Indices of the init actions, paired with the interpretation
        /// under which the existential fails (empty when `m = 1`).
        interpretation: Vec<(usize, Vec<String>)>,
    },
    /// The search exceeded its node budget before reaching a verdict.
    BudgetExhausted {
        /// Search nodes expanded (in the exhausting interpretation's
        /// search) when the budget tripped.
        nodes: usize,
    },
    /// More candidate interpretations than [`MAX_INTERPRETATIONS`].
    TooManyInterpretations {
        /// The number of interpretations that enumeration would require.
        required: usize,
    },
}

impl fmt::Display for SlinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SlinError::IllFormed(e) => write!(f, "trace is not (m, n)-well-formed: {e}"),
            SlinError::ForeignAction { index } => {
                write!(f, "action at index {index} outside the phase signature")
            }
            SlinError::NotSpeculativelyLinearizable { interpretation } => write!(
                f,
                "no speculative linearization function exists (init interpretation at indices {:?})",
                interpretation.iter().map(|(i, _)| *i).collect::<Vec<_>>()
            ),
            SlinError::BudgetExhausted { nodes } => {
                write!(f, "search budget exhausted after {nodes} nodes")
            }
            SlinError::TooManyInterpretations { required } => {
                write!(f, "{required} init interpretations exceed the cap")
            }
        }
    }
}

impl Error for SlinError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SlinError::IllFormed(e) => Some(e),
            _ => None,
        }
    }
}

impl From<Invalid> for SlinError {
    fn from(invalid: Invalid) -> Self {
        match invalid {
            Invalid::OutsideSignature { index } => SlinError::ForeignAction { index },
            Invalid::IllFormed(e) => SlinError::IllFormed(e),
        }
    }
}

impl From<EngineError> for SlinError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::BudgetExhausted { nodes } => SlinError::BudgetExhausted { nodes },
        }
    }
}

impl From<Refuted> for SlinError {
    /// A refutation with no init action to interpret.
    fn from(_: Refuted) -> Self {
        SlinError::NotSpeculativelyLinearizable {
            interpretation: Vec::new(),
        }
    }
}

/// The outcome of a successful check: the witness of Definition 19 for the
/// first init interpretation `finit` enumerated — that interpretation, and
/// the commit chain `g` and abort histories `fabort` the search found for
/// it. The work the check took is the verdict's
/// ([`SearchStats`](crate::engine::SearchStats) beside the outcome), not
/// the witness's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlinWitness<I> {
    /// The interpretation of each init action: `(trace index, history)`.
    pub init_histories: Histories<I>,
    /// The commit histories in chain order.
    pub commit_histories: Chain<I>,
    /// The abort histories: `(trace index, history)`.
    pub abort_histories: Histories<I>,
}

/// Decision procedure for `(m, n)`-speculative linearizability.
///
/// # Example
///
/// ```
/// use slin_adt::{Consensus, ConsInput, ConsOutput, Value};
/// use slin_core::initrel::ConsensusInit;
/// use slin_core::slin::SlinChecker;
/// use slin_trace::{Action, ClientId, PhaseId, Trace};
///
/// // A Quorum-style phase (1, 2) trace: c1 decides 1, c2 aborts with 1.
/// let (c1, c2) = (ClientId::new(1), ClientId::new(2));
/// let ph1 = PhaseId::new(1);
/// let t: Trace<Action<ConsInput, ConsOutput, Value>> = Trace::from_actions(vec![
///     Action::invoke(c1, ph1, ConsInput::propose(1)),
///     Action::invoke(c2, ph1, ConsInput::propose(2)),
///     Action::respond(c1, ph1, ConsInput::propose(1), ConsOutput::decide(1)),
///     Action::switch(c2, PhaseId::new(2), ConsInput::propose(2), Value::new(1)),
/// ]);
/// let checker = SlinChecker::owned(Consensus::new(), ConsensusInit::new(),
///                                  PhaseId::new(1), PhaseId::new(2));
/// assert!(checker.check(&t).is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct SlinChecker<T, R> {
    adt: Arc<T>,
    rinit: R,
    m: PhaseId,
    n: PhaseId,
}

impl<T, R> SlinChecker<T, R>
where
    T: Adt,
    T::Input: Ord,
    R: InitRelation<T::Input>,
{
    /// Creates a checker owning `adt` for speculation phase `(m, n)` with
    /// the common relation `rinit`. The checker (and every
    /// `Session` built from it) is `'static`.
    ///
    /// # Panics
    ///
    /// Panics unless `m < n`.
    pub fn owned(adt: T, rinit: R, m: PhaseId, n: PhaseId) -> Self {
        assert!(m < n, "a speculation phase (m, n) requires m < n");
        SlinChecker {
            adt: Arc::new(adt),
            rinit,
            m,
            n,
        }
    }

    /// Checks `(m, n)`-speculative linearizability of the trace under the
    /// default search budget, searching its interpretations on up to one
    /// thread per core. The search budget and the thread bound are
    /// [`crate::session`] configuration.
    ///
    /// # Errors
    ///
    /// See [`SlinError`]. The check is exact when the [`InitRelation`]
    /// candidate sets are exhaustive (e.g. [`crate::initrel::ExactInit`]);
    /// otherwise it validates the definition over the bounded adversarial
    /// candidate enumeration documented by the relation.
    pub fn check(
        &self,
        t: &Trace<ObjAction<T, R::Value>>,
    ) -> Result<SlinWitness<T::Input>, SlinError>
    where
        T: Send + Sync,
        T::Input: Send + Sync,
        T::Output: Sync,
        R: Sync,
        R::Value: Sync,
    {
        let none = None::<&IdentityPartitioner>;
        partition::check(self, none, t, SearchBudget::DEFAULT_MAX_NODES, 0).outcome
    }

    /// Validates the trace against the phase signature and well-formedness,
    /// and enumerates the candidate interpretation space.
    fn prepare(
        &self,
        t: &Trace<ObjAction<T, R::Value>>,
    ) -> Result<Prepared<T, R::Value>, SlinError> {
        // Signature membership (invocations and responses labelled in
        // [m..n-1], switch actions in [m..n]), then well-formedness.
        wf::validate(t, Some((self.m, self.n)))?;

        let commits = ops::commits::<T, R::Value>(t);
        let inits = ops::switches::<T, R::Value>(t, self.m);
        let aborts = ops::switches::<T, R::Value>(t, self.n);
        let invoked = t
            .iter()
            .enumerate()
            .filter(|(_, a)| a.is_invoke())
            .map(|(i, a)| (i, a.input().clone()))
            .collect();
        let ctx = Arc::new(CandidateContext::new(
            t.iter().map(|a| a.input().clone()).collect(),
        ));

        // Enumerate candidate interpretations of the init actions.
        let per_init: Vec<Vec<Vec<T::Input>>> = inits
            .iter()
            .map(|s| self.rinit.candidates(&s.value, &ctx))
            .collect();
        // A product past `usize::MAX` saturates: it exceeds the cap anyway.
        let combos = per_init
            .iter()
            .try_fold(1usize, |n, c| n.checked_mul(c.len().max(1)))
            .unwrap_or(usize::MAX);
        if combos > MAX_INTERPRETATIONS {
            return Err(SlinError::TooManyInterpretations { required: combos });
        }
        Ok(Prepared {
            t_len: t.len(),
            commits,
            inits,
            aborts,
            invoked,
            ctx,
            per_init,
            combos,
        })
    }

    /// The `idx`-th interpretation in enumeration order: `idx` is read as a
    /// mixed-radix numeral over the per-init candidate counts, least
    /// significant digit first (the order the historical sequential counter
    /// produced).
    fn finit_at<'p>(
        &self,
        prep: &'p Prepared<T, R::Value>,
        idx: usize,
    ) -> Vec<(usize, &'p Vec<T::Input>)> {
        let mut rem = idx;
        prep.inits
            .iter()
            .zip(prep.per_init.iter())
            .filter_map(|(s, cands)| {
                let radix = cands.len().max(1);
                let digit = rem % radix;
                rem /= radix;
                cands.get(digit).map(|h| (s.index, h))
            })
            .collect()
    }

    fn fail_error(finit: &[(usize, impl AsRef<[T::Input]>)]) -> SlinError {
        SlinError::NotSpeculativelyLinearizable {
            interpretation: finit
                .iter()
                .map(|(i, h)| (*i, h.as_ref().iter().map(|x| format!("{x:?}")).collect()))
                .collect(),
        }
    }

    /// The *valid inputs* `vi(m, t, finit, i)` (Definition 26) at every
    /// trace index `0..=t_len`, built in one pass — the bounds of the whole
    /// problem and, read in place, of every class problem.
    ///
    /// By the definitions, `vi(i) = ivi(i) ⊎ elems(inputs(t, i))` with
    /// `ivi(i)` (Definition 25) the inputs vouched for by init actions
    /// strictly before `i`: the elements of their interpretation histories,
    /// ∪-combined (they describe prefixes of one linearization of the
    /// previous phase), plus each init action's *pending input*, ⊎-summed —
    /// a distinct invocation transferred into this phase. The ⊎ is what
    /// makes the paper's own Backup construction (h ::: pending inputs,
    /// Section 2.4) valid when a pending value collides with an
    /// init-history element.
    ///
    /// Every term is prefix-monotone, so `vi(i + 1)` is `vi(i)` plus what
    /// action `i` contributes: its input if it is an invocation; if it is
    /// an interpreted init action, its pending input and whatever its
    /// history raises the running ∪ by. A snapshot is an O(1) clone.
    ///
    /// Each contribution is of one input, so under the partitioner contract
    /// it lands in exactly one independence class, and `vi(i)` holds every
    /// class's projected bound count for count: a class problem reads these
    /// bounds at its own inputs and needs no projection of its own.
    /// `valid_inputs_by_definition` (the two whole-multiset sums per index,
    /// read off the definitions) is the test oracle.
    fn valid_inputs(
        &self,
        prep: &Prepared<T, R::Value>,
        finit: &[(usize, &Vec<T::Input>)],
    ) -> Rc<[PersistentMultiset<T::Input>]> {
        let mut vi = PersistentMultiset::new();
        // The running ∪ of the interpretation histories' elements: counts
        // only, nothing reads a snapshot of it.
        let mut hist_elems: BTreeMap<&T::Input, usize> = BTreeMap::new();
        let mut invoked = prep.invoked.iter().peekable();
        let mut inits = prep.inits.iter().peekable();
        let mut interpreted = finit.iter().peekable();
        (0..=prep.t_len)
            .map(|i| {
                let before = vi.clone();
                if let Some((_, input)) = invoked.next_if(|(j, _)| *j == i) {
                    vi.insert(input.clone());
                }
                // An init action whose value has no candidate
                // interpretation is absent from `finit` and vouches for
                // nothing.
                let init = inits.next_if(|s| s.index == i);
                let hist = interpreted.next_if(|(j, _)| *j == i);
                if let (Some(init), Some((_, hist))) = (init, hist) {
                    vi.insert(init.input.clone());
                    for (input, n) in elem_counts(hist) {
                        let had = hist_elems.entry(input).or_insert(0);
                        if n > *had {
                            vi.add(input.clone(), n - *had);
                            *had = n;
                        }
                    }
                }
                before
            })
            .collect()
    }

    /// Definitions 25–26 as written — the reference `valid_inputs` is
    /// tested against: `ivi` by one ∪ and one ⊎ per init action, `vi` by a
    /// whole-multiset ⊎ per trace index.
    #[cfg(test)]
    fn valid_inputs_by_definition(
        &self,
        t: &Trace<ObjAction<T, R::Value>>,
        prep: &Prepared<T, R::Value>,
        finit: &[(usize, &Vec<T::Input>)],
    ) -> Vec<PersistentMultiset<T::Input>> {
        let mut ivi: Vec<PersistentMultiset<T::Input>> = Vec::with_capacity(prep.t_len + 1);
        let mut hist_elems: PersistentMultiset<T::Input> = PersistentMultiset::new();
        let mut pending_sum: PersistentMultiset<T::Input> = PersistentMultiset::new();
        ivi.push(PersistentMultiset::new());
        for i in 0..prep.t_len {
            if let Some((_, h)) = finit.iter().find(|(j, _)| *j == i) {
                let init_input = prep
                    .inits
                    .iter()
                    .find(|s| s.index == i)
                    .map(|s| s.input.clone())
                    .expect("finit indices come from inits");
                hist_elems = hist_elems.union_max(&PersistentMultiset::elems(h));
                pending_sum.insert(init_input);
            }
            ivi.push(hist_elems.sum(&pending_sum));
        }
        ivi.iter()
            .zip(ops::input_multisets::<T, R::Value>(t).iter())
            .map(|(a, b)| a.sum(b))
            .collect()
    }
}

impl<T, R> SlinChecker<T, R>
where
    T: Adt + Send + Sync,
    T::Input: Ord + Send + Sync,
    T::Output: Sync,
    R: InitRelation<T::Input> + Sync,
    R::Value: Clone + PartialEq + Sync,
{
    /// Definitions 26–31 for one fixed `finit`, as a search problem over
    /// `commits`: histories draw from the valid inputs `vi`, `lcp` — the
    /// longest common prefix of the init histories — seeds the chain
    /// (Init-Order), and the leaf grafts the ∃ `fabort` side onto the chain
    /// search — abort interpretations are found once the longest commit
    /// history is known, among the members of `rinit(v)` extending it (or
    /// the LCP when nothing commits). The leaf witness is `finit` and that
    /// `fabort`.
    fn interpretation<'p>(
        &'p self,
        prep: &Prepared<T, R::Value>,
        finit: Arc<Histories<T::Input>>,
        lcp: Vec<T::Input>,
        vi: Rc<[PersistentMultiset<T::Input>]>,
        commits: Vec<Commit<T>>,
    ) -> Problem<'p, T, Interpretations<T::Input>> {
        let constrain_init_order = !finit.is_empty();
        let aborts: Vec<AbortEvent<T::Input, R::Value>> = prep
            .aborts
            .iter()
            .map(|s| {
                (
                    s.index,
                    s.input.clone(),
                    s.value.clone(),
                    vi[s.index].clone(),
                )
            })
            .collect();
        let ctx = Arc::clone(&prep.ctx);
        let seed = lcp.clone();
        Problem {
            commits,
            pool: model::pool_of(vi.last()),
            bounds: vi,
            seed,
            leaf: Box::new(move |longest| {
                let extend = |value: &R::Value, prefix: &[T::Input]| {
                    self.rinit.extensions(value, prefix, &ctx)
                };
                aborts_feasible::<T, R::Value>(
                    &aborts,
                    longest,
                    &lcp,
                    constrain_init_order,
                    &extend,
                )
                .map(|abort_histories| (Histories::clone(&finit), abort_histories))
            }),
        }
    }

    /// The validated trace stated whole: Definition 19's "for every
    /// `finit`" as its `combos` problems, the `k`-th stated (and its
    /// refutation naming that `finit`) only when the search asks for it.
    fn whole(
        &self,
        prep: Prepared<T, R::Value>,
        partitions: usize,
        fallback: Option<FallbackReason>,
    ) -> Projection<'_, T, Interpretations<T::Input>, SlinError> {
        Projection::Whole {
            partitions,
            fallback,
            interpretations: prep.combos,
            interpretation: Box::new(move |idx| {
                let finit = self.finit_at(&prep, idx);
                let vi = self.valid_inputs(&prep, &finit);
                let lcp = seq::longest_common_prefix(finit.iter().map(|(_, h)| h.as_slice()));
                let finit: Arc<Histories<T::Input>> =
                    Arc::new(finit.iter().map(|(i, h)| (*i, (*h).clone())).collect());
                let named = Arc::clone(&finit);
                let commits = prep.commits.clone();
                (
                    self.interpretation(&prep, finit, lcp, vi, commits),
                    Box::new(move || Self::fail_error(&named)),
                )
            }),
        }
    }
}

impl<T, R> ConsistencyModel<R::Value> for SlinChecker<T, R>
where
    T: Adt + Send + Sync,
    T::Input: Ord + Send + Sync,
    T::Output: Sync,
    R: InitRelation<T::Input> + Sync,
    R::Value: Clone + PartialEq + Sync,
{
    type Adt = T;
    type Witness = SlinWitness<T::Input>;
    type Error = SlinError;
    type Leaf = Interpretations<T::Input>;

    fn adt(&self) -> &Arc<T> {
        &self.adt
    }

    fn phase_bounds(&self) -> Option<(PhaseId, PhaseId)> {
        Some((self.m, self.n))
    }

    fn init_relation_name(&self) -> Option<&'static str> {
        Some(slin_analysis::short_type_name::<R>())
    }

    fn status_of_error(e: &SlinError) -> MonitorStatus {
        match e {
            SlinError::NotSpeculativelyLinearizable { .. } => MonitorStatus::Violation,
            SlinError::IllFormed(_) | SlinError::ForeignAction { .. } => MonitorStatus::IllFormed,
            SlinError::BudgetExhausted { .. } | SlinError::TooManyInterpretations { .. } => {
                MonitorStatus::Unknown
            }
        }
    }

    /// The phase signature and well-formedness, and the interpretation
    /// space (validated once): the trace whole — one problem per init
    /// interpretation — or, along a partitioner, the keyed projection:
    /// commits, pending inputs **and switch-value interpretations**
    /// classified per independence class. Each class problem is a
    /// projection of the whole one — the commits on its inputs and the
    /// class projection of the pool, over the whole bounds `vi` — seeded
    /// with the class projection of the init LCP and judged at its leaves
    /// by the class projections of the global abort conditions (so they
    /// hold whenever the global leaf does, and a class without a chain
    /// refutes the trace). The LCP and the abort histories are projected
    /// onto every class in one counting sort, which the seeds and the
    /// leaves read; the per-trace discharge projects nothing: the relation
    /// answers obligation (a) per value ([`InitRelation::projects_like`]),
    /// obligation (b) reads the init histories past their LCP, and every
    /// class's abort draw is decided in one pass over each abort history. A
    /// switch-free trace is the same projection with nothing to interpret —
    /// Theorem 2 at the level of the problem: it states what
    /// [`crate::lin::LinChecker`] states.
    ///
    /// Classifying a switch action is sound when a switch-independence
    /// certificate (`slin-cert/v2`) covers `(adt, partitioner, rinit)`;
    /// `partition::decomposes` asks for one before any trace with a switch
    /// action gets a partitioner here. The residual per-trace conditions
    /// the certificate cannot see answer [`Projection::Whole`] with the
    /// matching [`FallbackReason`]:
    ///
    /// * an un-keyed relation (no [`InitRelation::projects_like`]), or more
    ///   than one candidate interpretation per switch (a relation with
    ///   adversarial candidate sets has no per-class decomposition
    ///   certificate to lean on) — [`FallbackReason::SwitchUncertified`];
    /// * an input (or interpretation element) the partitioner declines —
    ///   [`FallbackReason::UnclassifiableInput`];
    /// * a switch value the relation projects unlike its history, or a
    ///   forced common prefix that does not decompose per class —
    ///   [`FallbackReason::CrossBoundCoupled`].
    fn project<'a, P: Partitioner<T>>(
        &'a self,
        partitioner: Option<&P>,
        t: &'a Trace<ObjAction<T, R::Value>>,
    ) -> Projection<'a, T, Self::Leaf, SlinError> {
        let keys = partitioner.map(|p| (p, partition::class_keys(p, true, t)));
        let fallback = keys.as_ref().and_then(|(_, k)| k.as_ref().err().copied());
        // Rejection errors and indices are the whole trace's: validate it
        // whole.
        let mut prep = match self.prepare(t) {
            Ok(prep) => prep,
            Err(error) => return Projection::Rejected { error, fallback },
        };
        // A switch-free trace has nothing to interpret, so its actions'
        // keys are its classes; with switch actions the count waits for the
        // classes only an interpretation element belongs to.
        let (partitioner, mut keys) = match keys {
            Some((p, Ok(keys))) if keys.len() > 1 || t.iter().any(|a| a.is_switch()) => (p, keys),
            keys => {
                let partitions = keys.and_then(|(_, k)| k.ok()).map_or(1, |k| k.len());
                return self.whole(prep, partitions, fallback);
            }
        };
        // Every exit of this block is a reason to check the trace whole;
        // the projection returns from inside it.
        let reason = 'classes: {
            if prep.combos != 1 {
                break 'classes FallbackReason::SwitchUncertified;
            }
            // The single interpretation: each init action's only candidate
            // (an init action without one vouches for nothing).
            let finit = self.finit_at(&prep, 0);
            // Every abort value must interpret uniquely too, and every
            // switch value must project per class as its history does (the
            // keyed init relation, obligation (a)): an un-keyed relation
            // answers now, a disagreement once the inputs are classified.
            let mut abort_hists: Vec<Vec<T::Input>> = Vec::with_capacity(prep.aborts.len());
            for s in &prep.aborts {
                let mut cands = self.rinit.candidates(&s.value, &prep.ctx);
                if cands.len() != 1 {
                    break 'classes FallbackReason::SwitchUncertified;
                }
                abort_hists.push(cands.pop().expect("length checked"));
            }
            let same_class =
                |a: &T::Input, b: &T::Input| partitioner.key_of(a) == partitioner.key_of(b);
            let init_values = prep.inits.iter().zip(&prep.per_init);
            let switch_hists = init_values
                .filter_map(|(s, cands)| Some((&s.value, cands.first()?.as_slice())))
                .chain(
                    prep.aborts
                        .iter()
                        .map(|s| &s.value)
                        .zip(abort_hists.iter().map(Vec::as_slice)),
                );
            let mut projects = true;
            for (value, hist) in switch_hists {
                match self.rinit.projects_like(value, hist, &same_class) {
                    Some(agrees) => projects &= agrees,
                    None => break 'classes FallbackReason::SwitchUncertified,
                }
            }
            // The classes: the actions', plus those only an interpretation
            // element belongs to (no action, hence nothing to commit — but a
            // leaf to judge). An element the partitioner declines collapses
            // the projection.
            let interpreted = finit
                .iter()
                .flat_map(|(_, h)| h.iter())
                .chain(abort_hists.iter().flatten());
            for i in interpreted {
                let Some(k) = partitioner.key_of(i) else {
                    break 'classes FallbackReason::UnclassifiableInput;
                };
                if let Err(at) = keys.binary_search(&k) {
                    keys.insert(at, k);
                }
            }
            let count = keys.len();
            let class_of = |i: &T::Input| partition::class_of(partitioner, &keys, i);
            // Per-trace discharge of the decomposition the certificate
            // vouches for in general: the relation's own projection must
            // agree with history projection (obligation (a), asked above),
            // and the forced common prefix must project per class
            // (obligation (b) on this trace's values).
            let inits = finit.iter().map(|(_, h)| h.as_slice());
            let lcp = seq::longest_common_prefix(inits.clone());
            if !(projects && lcp_projects(lcp.len(), inits, count, class_of)) {
                break 'classes FallbackReason::CrossBoundCoupled;
            }
            let vi = self.valid_inputs(&prep, &finit);
            // The interpretation, moved out of the candidates.
            let interpretation: Arc<Histories<T::Input>> = Arc::new(
                prep.inits
                    .iter()
                    .zip(std::mem::take(&mut prep.per_init))
                    .filter_map(|(s, cands)| Some((s.index, cands.into_iter().next()?)))
                    .collect(),
            );
            let commits = std::mem::take(&mut prep.commits);
            let whole_problem =
                self.interpretation(&prep, Arc::clone(&interpretation), lcp, vi, commits);
            // Row 0 the LCP, then the abort histories.
            let rows = std::iter::once(whole_problem.seed.as_slice())
                .chain(abort_hists.iter().map(Vec::as_slice));
            let proj = Rc::new(ClassProjections::new(rows, count, class_of));
            let aborts = 1..1 + abort_hists.len();

            // The class leaf asks each global abort's class projection to
            // extend the class's longest commit history and LCP and to draw
            // from the valid inputs at the abort — whose class-`k` counts
            // are the class's.
            let constrain_init_order = !interpretation.is_empty();
            // The draw reads no chain — only each abort's class projection,
            // its pending input when the class owns it and the valid inputs
            // at the abort — so it is decided here, for every class at
            // once: an input belongs to one class, which its count in the
            // whole history (or the pending input's) alone can fail.
            let mut draws = vec![true; count];
            for (s, h) in prep.aborts.iter().zip(&abort_hists) {
                for e in overdrawn(h, &s.input, &whole_problem.bounds[s.index]) {
                    draws[class_of(e)] = false;
                }
            }
            let classes = whole_problem.classes(count, class_of, |k| {
                let draws = draws[k];
                let seed = proj.get(0, k).to_vec();
                let (proj, aborts) = (Rc::clone(&proj), aborts.clone());
                let leaf = move |longest: &[T::Input]| {
                    let class_lcp = proj.get(0, k);
                    let extends = |cand: &[T::Input]| {
                        seq::is_prefix(longest, cand)
                            && (!constrain_init_order || seq::is_prefix(class_lcp, cand))
                    };
                    (draws && aborts.clone().all(|r| extends(proj.get(r, k)))).then_some(())
                };
                (seed, Box::new(leaf))
            });
            return Projection::Classes {
                refuted: Box::new(move || Self::fail_error(&interpretation)),
                whole: whole_problem,
                classes,
            };
        };
        self.whole(prep, 1, Some(reason))
    }

    fn witness(
        commit_histories: Chain<T::Input>,
        (init_histories, abort_histories): Self::Leaf,
    ) -> SlinWitness<T::Input> {
        SlinWitness {
            init_histories,
            commit_histories,
            abort_histories,
        }
    }
}

/// The validated trace summary and interpretation space every problem of
/// a projection is stated from.
struct Prepared<T: Adt, V> {
    t_len: usize,
    commits: Vec<Commit<T>>,
    inits: Vec<SwitchEvent<T::Input, V>>,
    aborts: Vec<SwitchEvent<T::Input, V>>,
    /// `(trace index, input)` of every invocation, in trace order.
    invoked: Vec<(usize, T::Input)>,
    /// Shared with every leaf oracle stated over this trace.
    ctx: Arc<CandidateContext<T::Input>>,
    per_init: Vec<Vec<Vec<T::Input>>>,
    combos: usize,
}

/// Init or abort histories: `(trace index, history)` pairs. Unlike a
/// [`Chain`]'s commit histories they need not prefix one another.
type Histories<I> = Vec<(usize, Vec<I>)>;

/// What a leaf settles beside the commit chain: the init interpretation
/// searched under and the abort interpretations found.
type Interpretations<I> = (Histories<I>, Histories<I>);

/// An abort action for the leaf: `(trace index, pending input, switch
/// value, valid inputs at the index)`.
type AbortEvent<I, V> = (usize, I, V, PersistentMultiset<I>);

/// Enumerator of `rinit` members extending a prefix (the ∃ `fabort` side).
type ExtendFn<'a, I, V> = dyn Fn(&V, &[I]) -> Vec<Vec<I>> + 'a;

/// Leaf check: every abort event needs an interpretation that extends
/// the longest commit history (Abort-Order), extends the init LCP
/// (Init-Order), and draws from the valid inputs at its index
/// (Definition 28).
///
/// Definition 31 demands a *strict* prefix; we require strictness only
/// for commit histories (where the chain construction enforces it) and
/// relax it to a plain prefix for abort histories: the paper's own ALM
/// specification automaton (Section 6, step A4) emits abort values equal
/// to the initialization prefix when nothing committed and no loose
/// pending inputs exist, and the composition proof only uses non-strict
/// prefix reasoning on abort histories.
fn aborts_feasible<T: Adt<Input: Ord>, V>(
    abort_events: &[AbortEvent<T::Input, V>],
    longest_commit: &[T::Input],
    lcp: &[T::Input],
    constrain_init_order: bool,
    extend: &ExtendFn<'_, T::Input, V>,
) -> Option<Histories<T::Input>> {
    let mut chosen = Vec::with_capacity(abort_events.len());
    for (index, input, value, valid) in abort_events {
        let cands = extend(value, longest_commit);
        let ok = cands.into_iter().find(|a| {
            (!constrain_init_order || seq::is_prefix(lcp, a)) && draws_within(a, input, valid)
        });
        match ok {
            Some(a) => chosen.push((*index, a)),
            None => return None,
        }
    }
    Some(chosen)
}

/// `elems(h) ∪ {pending} ⊆ bound` — an abort history, with its action's
/// pending input, draws from the valid inputs (Definition 28).
fn draws_within<I: Ord + std::hash::Hash>(
    h: &[I],
    pending: &I,
    bound: &PersistentMultiset<I>,
) -> bool {
    overdrawn(h, pending, bound).next().is_none()
}

/// The inputs that break [`draws_within`], by counting: the ∪ asks the
/// bound for each element's multiplicity in `h`, ascending, and last for
/// the pending input's, at least once.
fn overdrawn<'a, I: Ord + std::hash::Hash>(
    h: &'a [I],
    pending: &'a I,
    bound: &'a PersistentMultiset<I>,
) -> impl Iterator<Item = &'a I> {
    let own = h.iter().filter(|&e| e == pending).count().max(1);
    let counts = elem_counts(h).into_iter().chain([(pending, own)]);
    counts.filter(|&(e, n)| n > bound.count(e)).map(|(e, _)| e)
}

/// Histories projected onto every class, in one pass: row `r`'s class-`k`
/// projection is `items[at[r * count + k]..at[r * count + k + 1]]`, in
/// history order.
struct ClassProjections<I> {
    items: Vec<I>,
    at: Vec<usize>,
    count: usize,
}

impl<I: Clone> ClassProjections<I> {
    /// A counting sort of the rows' inputs by `(row, class)`: no
    /// comparison, and three allocations whatever the class count.
    fn new<'h>(
        rows: impl Iterator<Item = &'h [I]> + Clone,
        count: usize,
        class_of: impl Fn(&I) -> usize,
    ) -> Self
    where
        I: 'h,
    {
        let total = rows.clone().map(<[I]>::len).sum();
        let mut slot_of: Vec<usize> = Vec::with_capacity(total);
        for (r, h) in rows.clone().enumerate() {
            slot_of.extend(h.iter().map(|i| r * count + class_of(i)));
        }
        let mut at = vec![0; rows.clone().count() * count + 1];
        for &slot in &slot_of {
            at[slot + 1] += 1;
        }
        for slot in 1..at.len() {
            at[slot] += at[slot - 1];
        }
        // Every input to its slot's next place, in history order; the
        // places start out as the inputs in row order.
        let mut items: Vec<I> = Vec::with_capacity(total);
        for h in rows.clone() {
            items.extend_from_slice(h);
        }
        for (i, &slot) in rows.flatten().zip(&slot_of) {
            items[at[slot]] = i.clone();
            at[slot] += 1;
        }
        // Each slot's cursor stopped at its end, the next slot's start.
        at.rotate_right(1);
        at[0] = 0;
        ClassProjections { items, at, count }
    }

    fn get(&self, row: usize, k: usize) -> &[I] {
        let slot = row * self.count + k;
        &self.items[self.at[slot]..self.at[slot + 1]]
    }
}

/// Obligation (b) on one trace: the longest common prefix of the init
/// histories `inits`, of length `lcp`, projects onto each of the `count`
/// classes (`class_of` classifies an input) as the longest common prefix
/// of their class projections. Each projection starts with the prefix's;
/// the two differ exactly when, in some class, every history's first input
/// past the prefix is one and the same — read off the histories' suffixes,
/// without projecting them.
fn lcp_projects<'h, I: PartialEq + 'h>(
    lcp: usize,
    inits: impl Iterator<Item = &'h [I]>,
    count: usize,
    class_of: impl Fn(&I) -> usize,
) -> bool {
    // Per class: the input every history so far has next, if they agree.
    let mut agreed: Vec<Option<&I>> = vec![None; count];
    let mut next: Vec<Option<&I>> = vec![None; count];
    for (n, h) in inits.enumerate() {
        next.fill(None);
        for i in &h[lcp..] {
            next[class_of(i)].get_or_insert(i);
        }
        if n == 0 {
            agreed.copy_from_slice(&next);
        } else {
            for (a, b) in agreed.iter_mut().zip(&next) {
                if *a != *b {
                    *a = None;
                }
            }
        }
    }
    agreed.iter().all(Option::is_none)
}

/// `elems(h)` as `(element, multiplicity)` pairs, in ascending order.
fn elem_counts<I: Ord>(h: &[I]) -> Vec<(&I, usize)> {
    let mut sorted: Vec<&I> = h.iter().collect();
    sorted.sort_unstable();
    sorted
        .chunk_by(|a, b| a == b)
        .map(|run| (run[0], run.len()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SearchStats;
    use crate::initrel::{ConsensusInit, ExactInit};
    use slin_adt::{ConsInput, ConsOutput, Consensus, Universal, Value};
    use slin_trace::{Action, ClientId};

    type CV = Value;
    type CA = ObjAction<Consensus, CV>;

    const BUDGET: usize = SearchBudget::DEFAULT_MAX_NODES;

    /// `t` checked whole — no partitioner — under `budget`, on at most
    /// `threads` threads: the outcome and its work.
    fn monolithic(
        chk: &SlinChecker<Consensus, ConsensusInit>,
        t: &Trace<CA>,
        budget: usize,
        threads: usize,
    ) -> (Result<SlinWitness<ConsInput>, SlinError>, SearchStats) {
        let verdict = partition::check(chk, None::<&IdentityPartitioner>, t, budget, threads);
        (verdict.outcome, verdict.stats)
    }

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

    fn quorum_checker() -> SlinChecker<Consensus, ConsensusInit> {
        SlinChecker::owned(Consensus, ConsensusInit::new(), ph(1), ph(2))
    }

    fn backup_checker() -> SlinChecker<Consensus, ConsensusInit> {
        SlinChecker::owned(Consensus, ConsensusInit::new(), ph(2), ph(3))
    }

    #[test]
    fn empty_trace_is_slin() {
        let t: Trace<CA> = Trace::new();
        assert!(quorum_checker().check(&t).is_ok());
        assert!(backup_checker().check(&t).is_ok());
    }

    #[test]
    fn decide_then_switch_with_same_value_is_slin() {
        // Invariant I1 satisfied: c1 decides 1, c2 switches with 1.
        let t: Trace<CA> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(1), p(1)),
            Action::invoke(c(2), ph(1), p(2)),
            Action::respond(c(1), ph(1), p(1), d(1)),
            Action::switch(c(2), ph(2), p(2), Value::new(1)),
        ]);
        let (witness, stats) = monolithic(&quorum_checker(), &t, BUDGET, 0);
        assert!(stats.interpretations >= 1);
        // The abort history starts with the decided value and extends the
        // commit history [p(1)].
        let (_, a) = &witness.unwrap().abort_histories[0];
        assert_eq!(a.first(), Some(&p(1)));
    }

    #[test]
    fn decide_then_switch_with_other_value_violates() {
        // Invariant I1 violated: c1 decides 1 but c2 switches with 2.
        let t: Trace<CA> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(1), p(1)),
            Action::invoke(c(2), ph(1), p(2)),
            Action::respond(c(1), ph(1), p(1), d(1)),
            Action::switch(c(2), ph(2), p(2), Value::new(2)),
        ]);
        assert!(matches!(
            quorum_checker().check(&t),
            Err(SlinError::NotSpeculativelyLinearizable { .. })
        ));
    }

    #[test]
    fn split_decisions_violate() {
        // Invariant I2 violated.
        let t: Trace<CA> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(1), p(1)),
            Action::invoke(c(2), ph(1), p(2)),
            Action::respond(c(1), ph(1), p(1), d(1)),
            Action::respond(c(2), ph(1), p(2), d(2)),
        ]);
        assert!(quorum_checker().check(&t).is_err());
    }

    #[test]
    fn switch_with_unproposed_value_violates() {
        // Invariant I3 violated: 9 was never proposed, so no valid abort
        // history starting with p(9) exists.
        let t: Trace<CA> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(1), p(1)),
            Action::switch(c(1), ph(2), p(1), Value::new(9)),
        ]);
        assert!(quorum_checker().check(&t).is_err());
    }

    #[test]
    fn diverging_switches_without_decision_are_slin() {
        // No decisions: clients may switch with different values (the
        // paper's "no client decides" case — LCP of abort histories empty).
        let t: Trace<CA> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(1), p(1)),
            Action::invoke(c(2), ph(1), p(2)),
            Action::switch(c(1), ph(2), p(1), Value::new(2)),
            Action::switch(c(2), ph(2), p(2), Value::new(1)),
        ]);
        assert!(quorum_checker().check(&t).is_ok());
    }

    #[test]
    fn backup_decides_unique_switch_value() {
        // Phase (2, 3): both clients arrive with switch value 5 and decide 5
        // (invariants I4, I5).
        let t: Trace<CA> = Trace::from_actions(vec![
            Action::switch(c(1), ph(2), p(1), Value::new(5)),
            Action::switch(c(2), ph(2), p(2), Value::new(5)),
            Action::respond(c(1), ph(2), p(1), d(5)),
            Action::respond(c(2), ph(2), p(2), d(5)),
        ]);
        let (witness, stats) = monolithic(&backup_checker(), &t, BUDGET, 0);
        assert!(witness.is_ok());
        // The adversary can pick [p(5), x] for both init actions, so more
        // than one interpretation is enumerated.
        assert!(stats.interpretations > 1);
    }

    #[test]
    fn backup_must_not_decide_own_pending_over_init() {
        // Both init actions carry value 5; deciding 1 (a pending input value,
        // never a switch value) violates Init-Order: every commit history
        // must strictly extend [p(5)] and thus decide 5.
        let t: Trace<CA> = Trace::from_actions(vec![
            Action::switch(c(1), ph(2), p(1), Value::new(5)),
            Action::respond(c(1), ph(2), p(1), d(1)),
        ]);
        assert!(backup_checker().check(&t).is_err());
    }

    #[test]
    fn backup_with_divergent_switch_values_may_decide_either() {
        // Two different switch values: LCP of init histories is empty, so
        // the phase may decide either (as Paxos might).
        for decided in [1u64, 2] {
            let t: Trace<CA> = Trace::from_actions(vec![
                Action::switch(c(1), ph(2), p(1), Value::new(1)),
                Action::switch(c(2), ph(2), p(2), Value::new(2)),
                Action::respond(c(1), ph(2), p(1), d(decided)),
                Action::respond(c(2), ph(2), p(2), d(decided)),
            ]);
            assert!(backup_checker().check(&t).is_ok(), "decided={decided}");
        }
    }

    #[test]
    fn backup_split_decision_violates() {
        let t: Trace<CA> = Trace::from_actions(vec![
            Action::switch(c(1), ph(2), p(1), Value::new(1)),
            Action::switch(c(2), ph(2), p(2), Value::new(2)),
            Action::respond(c(1), ph(2), p(1), d(1)),
            Action::respond(c(2), ph(2), p(2), d(2)),
        ]);
        assert!(backup_checker().check(&t).is_err());
    }

    #[test]
    fn foreign_phase_label_rejected() {
        let t: Trace<CA> = Trace::from_actions(vec![Action::invoke(c(1), ph(3), p(1))]);
        assert_eq!(
            quorum_checker().check(&t),
            Err(SlinError::ForeignAction { index: 0 })
        );
    }

    #[test]
    fn exact_relation_universal_adt_roundtrip() {
        // Section 6 setting: universal ADT, switch values are histories.
        let u: Universal<u8> = Universal::new();
        let checker = SlinChecker::owned(u, ExactInit::new(), ph(1), ph(2));
        let t: Trace<ObjAction<Universal<u8>, Vec<u8>>> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(1), 7u8),
            Action::respond(c(1), ph(1), 7u8, vec![7u8]),
            Action::invoke(c(2), ph(1), 9u8),
            Action::switch(c(2), ph(2), 9u8, vec![7u8, 9u8]),
        ]);
        let witness = checker.check(&t).unwrap();
        assert_eq!(witness.abort_histories[0].1, vec![7, 9]);
    }

    #[test]
    fn exact_relation_rejects_abort_history_dropping_a_commit() {
        // c1's committed [7] must prefix every abort history; switching with
        // the history [9] alone contradicts Abort-Order.
        let u: Universal<u8> = Universal::new();
        let checker = SlinChecker::owned(u, ExactInit::new(), ph(1), ph(2));
        let t: Trace<ObjAction<Universal<u8>, Vec<u8>>> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(1), 7u8),
            Action::respond(c(1), ph(1), 7u8, vec![7u8]),
            Action::invoke(c(2), ph(1), 9u8),
            Action::switch(c(2), ph(2), 9u8, vec![9u8]),
        ]);
        assert!(checker.check(&t).is_err());
    }

    /// The one-pass `valid_inputs` against Definitions 25–26 as written:
    /// equal at every trace index under every interpretation.
    fn assert_valid_inputs_match_the_definition<T, R>(
        chk: &SlinChecker<T, R>,
        t: &Trace<ObjAction<T, R::Value>>,
    ) where
        T: Adt,
        T::Input: Ord,
        R: InitRelation<T::Input>,
    {
        let prep = chk.prepare(t).expect("the corpus is well-formed");
        for idx in 0..prep.combos {
            let finit = chk.finit_at(&prep, idx);
            let want = chk.valid_inputs_by_definition(t, &prep, &finit);
            let got = chk.valid_inputs(&prep, &finit);
            assert_eq!(*got, want, "interpretation {idx} of {t:?}");
        }
    }

    #[test]
    fn incremental_valid_inputs_equal_the_definition_on_the_phase_generators() {
        use crate::gen::{phase_trace_bounds, random_phase_kv_trace, PhaseConfig};
        use slin_adt::KvStore;
        let (m, n) = phase_trace_bounds();
        let chk = SlinChecker::owned(KvStore, ExactInit::new(), m, n);
        // Several init actions sharing one history (the ∪ must not count it
        // once per init), skewed keys so pending inputs collide with
        // history elements, clean and perturbed, light and heavy.
        for (clients, steps, keys, prefix_ops) in [(3, 18, 4, 4), (4, 60, 2, 6), (2, 160, 4, 0)] {
            for error_prob in [0.0, 0.5] {
                for seed in 0..6 {
                    let t = random_phase_kv_trace(&PhaseConfig {
                        clients,
                        steps,
                        keys,
                        prefix_ops,
                        error_prob,
                        seed,
                        ..PhaseConfig::default()
                    });
                    assert_valid_inputs_match_the_definition(&chk, &t);
                }
            }
        }
    }

    #[test]
    fn incremental_valid_inputs_keep_the_backup_collision_and_multi_init_traces() {
        // The Backup collision: both pending inputs equal the init
        // history's element p(5). The histories ∪-combine (p(5) vouched
        // once) while each pending p(5) is ⊎-summed on top — three
        // occurrences after both inits, under every adversarial
        // interpretation ([p(5)] and [p(5), x]).
        let collision: Trace<CA> = Trace::from_actions(vec![
            Action::switch(c(1), ph(2), p(5), Value::new(5)),
            Action::respond(c(1), ph(2), p(5), d(5)),
            Action::invoke(c(1), ph(2), p(5)),
            Action::switch(c(2), ph(2), p(5), Value::new(5)),
            Action::respond(c(2), ph(2), p(5), d(5)),
        ]);
        let chk = backup_checker();
        let prep = chk.prepare(&collision).unwrap();
        assert!(prep.combos > 1, "adversarial interpretations enumerated");
        let vi = chk.valid_inputs(&prep, &chk.finit_at(&prep, 0));
        let counts: Vec<usize> = vi.iter().map(|ms| ms.count(&p(5))).collect();
        // Init at 0: history p(5) + pending p(5); invoke at 2; init at 3:
        // the ∪ is already covered, only the pending input is added.
        assert_eq!(counts, [0, 2, 2, 3, 4, 4]);
        // Divergent init values, and inits interleaved with invocations.
        let divergent: Trace<CA> = Trace::from_actions(vec![
            Action::switch(c(1), ph(2), p(1), Value::new(1)),
            Action::respond(c(1), ph(2), p(1), d(1)),
            Action::invoke(c(1), ph(2), p(2)),
            Action::switch(c(2), ph(2), p(2), Value::new(2)),
            Action::respond(c(2), ph(2), p(2), d(1)),
        ]);
        for t in [&collision, &divergent] {
            assert_valid_inputs_match_the_definition(&chk, t);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4000))]
        /// The counted draw against Definition 28's multiset algebra, on
        /// histories with repeats, a pending input in the history or
        /// outside it, and bounds around the history's size.
        #[test]
        fn counting_draw_equals_the_multiset_algebra(
            h in proptest::collection::vec(0..4u8, 0..9),
            pending in 0..5u8,
            bound in proptest::collection::vec(0..4u8, 0..9),
        ) {
            let bound: PersistentMultiset<u8> = bound.into_iter().collect();
            let by_algebra = PersistentMultiset::elems(&h)
                .union_max(&PersistentMultiset::elems(&[pending]))
                .is_subset_of(&bound);
            proptest::prop_assert_eq!(draws_within(&h, &pending, &bound), by_algebra);
        }
    }

    #[test]
    fn parallel_and_sequential_verdicts_are_identical() {
        // Every test trace in this module, under forced multi-threading:
        // the parallel enumeration must reproduce the sequential verdict
        // byte for byte (witness, counts, stats, and error payloads).
        let traces: Vec<Trace<CA>> = vec![
            Trace::new(),
            Trace::from_actions(vec![
                Action::invoke(c(1), ph(1), p(1)),
                Action::invoke(c(2), ph(1), p(2)),
                Action::respond(c(1), ph(1), p(1), d(1)),
                Action::switch(c(2), ph(2), p(2), Value::new(1)),
            ]),
            Trace::from_actions(vec![
                Action::invoke(c(1), ph(1), p(1)),
                Action::invoke(c(2), ph(1), p(2)),
                Action::respond(c(1), ph(1), p(1), d(1)),
                Action::switch(c(2), ph(2), p(2), Value::new(2)),
            ]),
            Trace::from_actions(vec![
                Action::switch(c(1), ph(2), p(1), Value::new(5)),
                Action::switch(c(2), ph(2), p(2), Value::new(5)),
                Action::respond(c(1), ph(2), p(1), d(5)),
                Action::respond(c(2), ph(2), p(2), d(5)),
            ]),
            Trace::from_actions(vec![
                Action::switch(c(1), ph(2), p(1), Value::new(1)),
                Action::switch(c(2), ph(2), p(2), Value::new(2)),
                Action::respond(c(1), ph(2), p(1), d(1)),
                Action::respond(c(2), ph(2), p(2), d(2)),
            ]),
        ];
        for t in &traces {
            for (m, n) in [(1, 2), (2, 3)] {
                let chk = SlinChecker::owned(Consensus, ConsensusInit::new(), ph(m), ph(n));
                let par = monolithic(&chk, t, BUDGET, 4);
                let seq = monolithic(&chk, t, BUDGET, 1);
                assert_eq!(par, seq, "phase ({m}, {n}) on {t:?}");
                assert_eq!(format!("{par:?}"), format!("{seq:?}"));
            }
        }
    }

    /// The traces above are a handful of commits, so their enumeration
    /// runs on the calling thread at any thread count. This backup phase
    /// is heavy enough that the interpretations really fan out — asked of
    /// the dispatch itself — and the whole outcome (witness, counts, stats,
    /// the earliest failing interpretation) must still not depend on it.
    #[test]
    fn enumeration_is_thread_count_invariant_when_it_really_fans_out() {
        let heavy = |last: u64| -> Trace<CA> {
            let mut actions = vec![
                Action::switch(c(1), ph(2), p(1), Value::new(5)),
                Action::switch(c(2), ph(2), p(2), Value::new(5)),
            ];
            for round in 0..300 {
                for k in [1, 2] {
                    if round > 0 {
                        actions.push(Action::invoke(c(k), ph(2), p(k as u64)));
                    }
                    let decided = if round == 299 && k == 2 { last } else { 5 };
                    actions.push(Action::respond(c(k), ph(2), p(k as u64), d(decided)));
                }
            }
            Trace::from_actions(actions)
        };
        for (t, ok) in [(heavy(5), true), (heavy(6), false)] {
            let prep = backup_checker().prepare(&t).unwrap();
            assert!(prep.combos > 1);
            let units = vec![(prep.commits.len(), ()); prep.combos];
            assert!(partition::fan_out(units, 2, &|()| ()).1);
            let seq = monolithic(&backup_checker(), &t, BUDGET, 1);
            assert_eq!(seq.0.is_ok(), ok);
            for threads in [2, 4] {
                let par = monolithic(&backup_checker(), &t, BUDGET, threads);
                assert_eq!(par, seq, "{threads} threads");
            }
        }
    }

    #[test]
    fn backup_parallel_enumeration_matches_interpretation_count() {
        // The backup phase enumerates > 1 interpretation (adversarial
        // candidate sets); parallel and sequential must count identically.
        let t: Trace<CA> = Trace::from_actions(vec![
            Action::switch(c(1), ph(2), p(1), Value::new(5)),
            Action::switch(c(2), ph(2), p(2), Value::new(5)),
            Action::respond(c(1), ph(2), p(1), d(5)),
            Action::respond(c(2), ph(2), p(2), d(5)),
        ]);
        let at = |threads| monolithic(&backup_checker(), &t, BUDGET, threads);
        let ((par, par_stats), seq) = (at(3), at(1));
        assert!(par.is_ok());
        assert_eq!((par, par_stats), seq);
        assert!(par_stats.interpretations > 1);
        assert!(par_stats.nodes > 0);
    }

    #[test]
    fn budget_exhaustion_reports_node_count() {
        let t: Trace<CA> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(1), p(1)),
            Action::invoke(c(2), ph(1), p(2)),
            Action::respond(c(1), ph(1), p(1), d(1)),
            Action::respond(c(2), ph(1), p(2), d(1)),
        ]);
        let at = |threads| monolithic(&quorum_checker(), &t, 1, threads).0;
        match at(1) {
            Err(SlinError::BudgetExhausted { nodes }) => assert!(nodes > 0),
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
        // The parallel path reports the identical error.
        assert_eq!(at(2), Err(SlinError::BudgetExhausted { nodes: 2 }));
    }

    #[test]
    fn an_interpretation_count_past_usize_saturates_to_too_many() {
        // 41 init actions with three consensus candidates each: 3^41
        // interpretations, more than `usize` holds.
        let t: Trace<CA> = Trace::from_actions(
            (1..=41)
                .map(|k| Action::switch(c(k), ph(2), p(k.into()), Value::new(5)))
                .collect(),
        );
        assert_eq!(
            backup_checker().check(&t),
            Err(SlinError::TooManyInterpretations {
                required: usize::MAX
            })
        );
    }

    #[test]
    fn theorem_2_slin_equals_lin_on_switch_free_traces() {
        // SLin(1, m) restricted to the object signature is Lin (Theorem 2):
        // on a switch-free trace the two checkers agree.
        use crate::lin::LinChecker;
        let lin = LinChecker::owned(Consensus);
        let traces: Vec<Trace<CA>> = vec![
            Trace::from_actions(vec![
                Action::invoke(c(1), ph(1), p(1)),
                Action::invoke(c(2), ph(1), p(2)),
                Action::respond(c(2), ph(1), p(2), d(2)),
                Action::respond(c(1), ph(1), p(1), d(2)),
            ]),
            Trace::from_actions(vec![
                Action::invoke(c(1), ph(1), p(1)),
                Action::invoke(c(2), ph(1), p(2)),
                Action::respond(c(1), ph(1), p(1), d(1)),
                Action::respond(c(2), ph(1), p(2), d(2)),
            ]),
        ];
        for t in &traces {
            assert_eq!(
                quorum_checker().check(t).is_ok(),
                lin.check(t).is_ok(),
                "{t:?}"
            );
        }
    }
}
