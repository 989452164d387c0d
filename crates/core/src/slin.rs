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
//! [`SlinChecker`] decides the quantifier alternation by enumerating the
//! finite candidate interpretations provided by the [`InitRelation`]
//! (exact for the Section 6 singleton relation, bounded-adversarial for the
//! consensus mapping) and running, for each, the same
//! [`crate::engine::CheckerEngine`] chain search as the plain
//! linearizability checker — seeded with the longest common prefix of the
//! init histories and extended with abort feasibility at the leaves.
//!
//! Because the init interpretations are **independent** (the universal
//! quantifier of Definition 19 factors over them), the monolithic check
//! may enumerate them **in parallel**: across at most the thread bound a
//! [`crate::session`] passes in, and only when there is enough search to
//! repay spawning threads ([`partition::fan_out`]). Verdicts are
//! deterministic and identical at every thread count: on failure, the
//! *earliest* interpretation in enumeration order wins — the same one a
//! single-threaded enumeration (a session built with `.threads(1)`)
//! reports.

use crate::engine::{Chain, EngineError, SearchBudget, SearchStats};
use crate::initrel::{CandidateContext, InitRelation};
use crate::model::{ClassProblem, ConsistencyModel, Problem, Projection};
use crate::ops::{self, Commit, SwitchEvent};
use crate::partition::{self, FallbackReason};
use crate::stream::{MonitorStatus, StreamFailure};
use crate::ObjAction;
use slin_adt::{Adt, Partitioner};
use slin_trace::seq;
use slin_trace::wf::{self, Invalid, WellFormednessError};
use slin_trace::{PersistentMultiset, PhaseId, Trace};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// A witness for one init interpretation: the commit chain `g` and the abort
/// histories `fabort` found by the search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlinWitness<I> {
    /// The interpretation of each init action: `(trace index, history)`.
    pub init_histories: Vec<(usize, Vec<I>)>,
    /// The commit histories in chain order: `(trace index, history)`.
    pub commit_histories: Vec<(usize, Vec<I>)>,
    /// The abort histories: `(trace index, history)`.
    pub abort_histories: Vec<(usize, Vec<I>)>,
}

/// The outcome of a successful check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlinReport<I> {
    /// How many init interpretations were enumerated (1 when `m = 1`).
    pub interpretations_checked: usize,
    /// The witness found under the first interpretation.
    pub witness: SlinWitness<I>,
    /// Aggregated engine counters over every enumerated interpretation
    /// (identical between the parallel and sequential paths).
    pub stats: SearchStats,
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
        Self::shared(Arc::new(adt), rinit, m, n)
    }

    /// Creates a checker over an already-shared ADT handle.
    ///
    /// # Panics
    ///
    /// Panics unless `m < n`.
    pub fn shared(adt: Arc<T>, rinit: R, m: PhaseId, n: PhaseId) -> Self {
        assert!(m < n, "a speculation phase (m, n) requires m < n");
        SlinChecker { adt, rinit, m, n }
    }

    /// Checks `(m, n)`-speculative linearizability of the trace under the
    /// default search budget, enumerating interpretations on up to one
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
    ) -> Result<SlinReport<T::Input>, SlinError>
    where
        T: Send + Sync,
        T::Input: Send + Sync,
        T::Output: Sync,
        R: Sync,
        R::Value: Sync,
    {
        self.check_with_stats_impl(t, SearchBudget::DEFAULT_MAX_NODES, 0)
            .0
    }

    /// [`SlinChecker::check`] under a node `budget` per interpretation and
    /// at most `threads` enumeration threads (0 = one per core), also
    /// reporting [`SearchStats`] on **both** sides of the verdict (the
    /// `Session` facade's monolithic body). On
    /// `Ok` the stats equal [`SlinReport::stats`]; on a refutation they
    /// are the counters of the earliest failing interpretation's
    /// (exhaustive) search — the cost of proving no chain exists,
    /// deterministic and byte-identical between the sequential and
    /// parallel paths — and on a budget trip those of the search that
    /// tripped. Structural rejections (ill-formed traces,
    /// interpretation-space blowups) report zero stats: no search ran.
    pub(crate) fn check_with_stats_impl(
        &self,
        t: &Trace<ObjAction<T, R::Value>>,
        budget: usize,
        threads: usize,
    ) -> (Result<SlinReport<T::Input>, SlinError>, SearchStats)
    where
        T: Send + Sync,
        T::Input: Send + Sync,
        T::Output: Sync,
        R: Sync,
        R::Value: Sync,
    {
        let prep = match self.prepare(t) {
            Ok(prep) => prep,
            Err(e) => return (Err(e), SearchStats::default()),
        };
        self.run_interpretations(&prep, budget, partition::resolve_threads(threads))
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
        let combos: usize = per_init.iter().map(|c| c.len().max(1)).product();
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

    /// The enumeration loop: interpretation indices `0..combos` through
    /// [`partition::fan_out`] (at most `threads` threads; on the calling
    /// thread alone while the searches are small). A shared
    /// watermark of the earliest abnormal index lets later indices be
    /// skipped — they cannot influence the verdict — and the verdict is
    /// resolved by minimum index, so it is byte-identical at every thread
    /// count.
    ///
    /// The second tuple element is the stats surface of
    /// `check_with_stats_impl`: on `Ok` it equals the report's
    /// absorbed counters; on a refutation or budget trip it is the
    /// **earliest abnormal interpretation's own** search counters — the
    /// deterministic refutation cost (absorbing the partial successes of
    /// racing workers would not reproduce).
    fn run_interpretations(
        &self,
        prep: &Prepared<T, R::Value>,
        budget: usize,
        threads: usize,
    ) -> (Result<SlinReport<T::Input>, SlinError>, SearchStats)
    where
        T: Send + Sync,
        T::Input: Send + Sync,
        T::Output: Sync,
        R: Sync,
        R::Value: Sync,
    {
        let best_abnormal = AtomicUsize::new(usize::MAX);
        // Every interpretation searches the same commits.
        let units = (0..prep.combos)
            .map(|idx| (prep.commits.len(), idx))
            .collect();
        let (outcomes, _) = partition::fan_out(units, threads, &|idx: usize| {
            if idx > best_abnormal.load(Ordering::Relaxed) {
                return None;
            }
            let finit = self.finit_at(prep, idx);
            let (found, stats) = self.check_one_interpretation(prep, &finit, budget);
            let found = match found {
                // Only interpretation 0's witness is ever reported.
                Ok(Some(w)) => Ok((idx == 0).then_some(w)),
                Ok(None) => Err(Self::fail_error(&finit)),
                Err(e) => Err(e),
            };
            if found.is_err() {
                best_abnormal.fetch_min(idx, Ordering::Relaxed);
            }
            Some((found, stats))
        });
        let mut stats = SearchStats::default();
        let mut witness = None;
        // Index order: the first error met is the earliest abnormal one
        // (every skipped index lies beyond it).
        for (found, s) in outcomes.into_iter().flatten() {
            match found {
                Ok(w) => {
                    stats.absorb(&s);
                    witness = witness.or(w);
                }
                Err(e) => return (Err(e), s),
            }
        }
        let report = SlinReport {
            interpretations_checked: prep.combos,
            witness: witness.expect("combos >= 1: interpretation 0 was checked"),
            stats,
        };
        (Ok(report), stats)
    }

    /// The *valid inputs* `vi(m, t, finit, i)` (Definition 26) at every
    /// trace index `0..=t_len`, and their projection onto each of
    /// `classes.count` independence classes, built in one pass.
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
    /// history raises the running ∪ by. Each contribution lands in the
    /// global multiset and in exactly one class; a snapshot is an O(1)
    /// clone. A class is snapshotted where a problem over its sub-trace
    /// reads it — at its own actions and once at the end (`Σ sub_len`
    /// snapshots, not `classes × t_len`) — and every class at every abort
    /// action, whose class projection each class leaf judges.
    /// `valid_inputs_by_definition` (the two whole-multiset sums per index,
    /// read off the definitions) is the test oracle.
    fn valid_inputs(
        &self,
        prep: &Prepared<T, R::Value>,
        finit: &[(usize, &Vec<T::Input>)],
        classes: &Classes<'_, T::Input>,
    ) -> ValidInputs<T::Input> {
        let mut vi = PersistentMultiset::new();
        let mut class_vi = vec![PersistentMultiset::new(); classes.count];
        let mut out = ValidInputs {
            global: Vec::with_capacity(prep.t_len + 1),
            per_class: vec![Vec::new(); classes.count],
            at_aborts: Vec::with_capacity(prep.aborts.len()),
        };
        // The running ∪ of the interpretation histories' elements: counts
        // only, nothing reads a snapshot of it.
        let mut hist_elems: BTreeMap<&T::Input, usize> = BTreeMap::new();
        let mut invoked = prep.invoked.iter().peekable();
        let mut inits = prep.inits.iter().peekable();
        let mut aborts = prep.aborts.iter().peekable();
        let mut interpreted = finit.iter().peekable();
        for i in 0..=prep.t_len {
            out.global.push(vi.clone());
            match classes.of_action.get(i) {
                Some(&k) => out.per_class[k].push(class_vi[k].clone()),
                // Past the last action: every class's pool.
                None => {
                    for (snapshots, ms) in out.per_class.iter_mut().zip(&class_vi) {
                        snapshots.push(ms.clone());
                    }
                }
            }
            if aborts.next_if(|s| s.index == i).is_some() {
                out.at_aborts.push(class_vi.clone());
            }
            let mut grow = |input: &T::Input, n: usize| {
                vi.add(input.clone(), n);
                if classes.count > 0 {
                    class_vi[(classes.of_input)(input)].add(input.clone(), n);
                }
            };
            if let Some((_, input)) = invoked.next_if(|(j, _)| *j == i) {
                grow(input, 1);
            }
            // An init action whose value has no candidate interpretation
            // is absent from `finit` and vouches for nothing.
            let init = inits.next_if(|s| s.index == i);
            let hist = interpreted.next_if(|(j, _)| *j == i);
            if let (Some(init), Some((_, hist))) = (init, hist) {
                grow(&init.input, 1);
                for (input, n) in elem_counts(hist) {
                    let had = hist_elems.entry(input).or_insert(0);
                    if n > *had {
                        grow(input, n - *had);
                        *had = n;
                    }
                }
            }
        }
        out
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
    /// `commits`: histories draw from the valid inputs `vi`, the longest
    /// common prefix of the init histories seeds the chain (Init-Order),
    /// and the leaf grafts the ∃ `fabort` side onto the chain search —
    /// abort interpretations are found once the longest commit history is
    /// known, among the members of `rinit(v)` extending it (or the LCP when
    /// nothing commits). The leaf witness is `finit` and that `fabort`.
    fn interpretation<'p>(
        &'p self,
        prep: &Prepared<T, R::Value>,
        finit: Arc<Chain<T::Input>>,
        vi: Vec<PersistentMultiset<T::Input>>,
        commits: Cow<'p, [Commit<T>]>,
    ) -> Problem<'p, T, Interpretations<T::Input>> {
        let lcp: Vec<T::Input> =
            seq::longest_common_prefix(finit.iter().map(|(_, h)| h.as_slice()));
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
                .map(|abort_histories| (Chain::clone(&finit), abort_histories))
            }),
        }
    }

    /// Decides the existential part of Definition 19 for one fixed `finit`.
    fn check_one_interpretation(
        &self,
        prep: &Prepared<T, R::Value>,
        finit: &[(usize, &Vec<T::Input>)],
        budget: usize,
    ) -> InterpretationOutcome<T> {
        let vi = self.valid_inputs(prep, finit, &Classes::none()).global;
        let owned = Arc::new(finit.iter().map(|(i, h)| (*i, (*h).clone())).collect());
        let (found, stats) = self
            .interpretation(prep, owned, vi, Cow::Borrowed(&prep.commits))
            .search(&self.adt, budget);
        let witness = found
            .map(|found| {
                found.map(
                    |(commit_histories, (init_histories, abort_histories))| SlinWitness {
                        init_histories,
                        commit_histories,
                        abort_histories,
                    },
                )
            })
            .map_err(SlinError::from);
        (witness, stats)
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
    type Witness = SlinReport<T::Input>;
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

    fn check_monolithic(
        &self,
        t: &Trace<ObjAction<T, R::Value>>,
        budget: usize,
        threads: usize,
    ) -> (Result<SlinReport<T::Input>, SlinError>, SearchStats) {
        // [`SlinError`] carries no counters, but the refutation cost is
        // reported alongside: see `check_with_stats_impl`.
        self.check_with_stats_impl(t, budget, threads)
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

    fn stream_error(&self, failure: StreamFailure) -> SlinError {
        match failure {
            StreamFailure::Invalid(invalid) => invalid.into(),
            StreamFailure::NotSatisfied => SlinError::NotSpeculativelyLinearizable {
                interpretation: Vec::new(),
            },
            StreamFailure::BudgetExhausted { nodes } => SlinError::BudgetExhausted { nodes },
        }
    }

    /// The keyed projection: commits, pending inputs **and switch-value
    /// interpretations** classified per independence class, each class
    /// seeded with the class projection of the init LCP and judged at its
    /// leaves by the class projections of the global abort conditions (so
    /// they hold whenever the global leaf does, and a class without a
    /// chain refutes the trace). A switch-free trace is the same
    /// projection with nothing to interpret — Theorem 2 at the level of
    /// the problem: it states what [`crate::lin::LinChecker`] states.
    ///
    /// Classifying a switch action is sound when a switch-independence
    /// certificate (`slin-cert/v2`) covers `(adt, partitioner, rinit)`;
    /// `partition::decomposes` asks for one before any trace with a switch
    /// action gets here. The residual per-trace conditions the certificate
    /// cannot see answer [`Projection::Whole`] with the matching
    /// [`FallbackReason`]:
    ///
    /// * a relation without [`InitRelation::project_keyed`], or more than
    ///   one candidate interpretation per switch (a relation with
    ///   adversarial candidate sets has no per-class decomposition
    ///   certificate to lean on) — [`FallbackReason::SwitchUncertified`];
    /// * an input (or interpretation element) the partitioner declines —
    ///   [`FallbackReason::UnclassifiableInput`];
    /// * a forced common prefix that does not decompose per class —
    ///   [`FallbackReason::CrossBoundCoupled`].
    fn project<P: Partitioner<T>>(
        &self,
        partitioner: &P,
        t: &Trace<ObjAction<T, R::Value>>,
    ) -> Projection<'_, T, Self::Leaf, SlinError> {
        let whole = |reason| Projection::Whole {
            partitions: 1,
            fallback: Some(reason),
        };
        let split = partition::split_trace_keyed(partitioner, t);
        // A switch-free trace has nothing to interpret, so its split is its
        // class list; with switch actions the count waits for the classes
        // only an interpretation element belongs to.
        let decided = split.parts.len() <= 1 && !t.iter().any(|a| a.is_switch());
        if split.fallback.is_some() || decided {
            return Projection::Whole {
                partitions: split.parts.len(),
                fallback: split.fallback,
            };
        }
        // Rejection errors and indices must be the monolithic ones:
        // validate whole.
        let mut prep = match self.prepare(t) {
            Ok(prep) => prep,
            Err(e) => return Projection::Rejected(e),
        };
        if prep.combos != 1 {
            return whole(FallbackReason::SwitchUncertified);
        }
        // The single interpretation: each init action's only candidate
        // (an init action without one vouches for nothing), with the
        // value it interprets.
        let (init_values, interpretation): (Vec<&R::Value>, Chain<T::Input>) = prep
            .inits
            .iter()
            .zip(std::mem::take(&mut prep.per_init))
            .filter_map(|(s, cands)| Some((&s.value, (s.index, cands.into_iter().next()?))))
            .unzip();
        let interpretation = Arc::new(interpretation);
        let commits = std::mem::take(&mut prep.commits);
        let finit: Vec<(usize, &Vec<T::Input>)> =
            interpretation.iter().map(|(i, h)| (*i, h)).collect();
        // Every abort value must interpret uniquely too, and every switch
        // value must project per class (the keyed init relation).
        let mut abort_hists: Vec<Vec<T::Input>> = Vec::with_capacity(prep.aborts.len());
        for s in &prep.aborts {
            let mut cands = self.rinit.candidates(&s.value, &prep.ctx);
            if cands.len() != 1 {
                return whole(FallbackReason::SwitchUncertified);
            }
            abort_hists.push(cands.pop().expect("length checked"));
        }
        if prep
            .inits
            .iter()
            .chain(prep.aborts.iter())
            .any(|s| self.rinit.project_keyed(&s.value, &|_| true).is_none())
        {
            return whole(FallbackReason::SwitchUncertified);
        }
        // The classes: the split's, plus those only an interpretation
        // element belongs to (no action, hence nothing to commit — but a
        // leaf to judge). An element the partitioner declines collapses
        // the projection.
        let mut parts: BTreeMap<P::Key, Part<T, R::Value>> = split
            .parts
            .into_iter()
            .map(|part| {
                let key = part.key.expect("a clean split keys every part");
                (key, (part.trace, part.index_map))
            })
            .collect();
        let interpreted = finit
            .iter()
            .flat_map(|(_, h)| h.iter())
            .chain(abort_hists.iter().flatten());
        for i in interpreted {
            match partitioner.key_of(i) {
                Some(k) => parts.entry(k).or_insert_with(|| (Trace::new(), Vec::new())),
                None => return whole(FallbackReason::UnclassifiableInput),
            };
        }
        let keys: Vec<P::Key> = parts.keys().cloned().collect();
        let key_of = |i: &T::Input| {
            partitioner
                .key_of(i)
                .expect("every occurring input classified above")
        };
        let class_of = |i: &T::Input| {
            keys.binary_search(&key_of(i))
                .expect("every occurring input's class collected above")
        };
        let in_class = |k: usize, i: &T::Input| key_of(i) == keys[k];
        let proj = |k: usize, h: &[T::Input]| -> Vec<T::Input> {
            h.iter().filter(|i| in_class(k, i)).cloned().collect()
        };
        let mut of_action = vec![0; prep.t_len];
        for (k, (_, index_map)) in parts.values().enumerate() {
            for &i in index_map {
                of_action[i] = k;
            }
        }

        // The interpretation's global bounds and their per-class
        // projections.
        let ValidInputs {
            global: vi,
            per_class: class_vi,
            at_aborts,
        } = self.valid_inputs(
            &prep,
            &finit,
            &Classes {
                count: keys.len(),
                of_action: &of_action,
                of_input: &class_of,
            },
        );
        let whole_problem =
            self.interpretation(&prep, Arc::clone(&interpretation), vi, Cow::Owned(commits));
        let lcp = &whole_problem.seed;
        let constrain_init_order = !finit.is_empty();

        // Per-trace discharge of the decomposition the certificate vouches
        // for in general: the forced common prefix must project per class
        // (obligation (b) on this trace's values), and the relation's own
        // projection must agree with history projection (obligation (a)).
        for k in 0..keys.len() {
            let per_hist: Vec<Vec<T::Input>> = finit.iter().map(|(_, h)| proj(k, h)).collect();
            let lcp_of_proj = seq::longest_common_prefix(per_hist.iter().map(|h| h.as_slice()));
            if proj(k, lcp) != lcp_of_proj {
                return whole(FallbackReason::CrossBoundCoupled);
            }
            let switch_hists = init_values
                .iter()
                .copied()
                .zip(finit.iter().map(|(_, h)| *h))
                .chain(
                    prep.aborts
                        .iter()
                        .zip(abort_hists.iter())
                        .map(|(s, h)| (&s.value, h)),
                );
            for (value, hist) in switch_hists {
                let keep = |i: &T::Input| in_class(k, i);
                let Some(projected_value) = self.rinit.project_keyed(value, &keep) else {
                    return whole(FallbackReason::SwitchUncertified);
                };
                if self.rinit.candidates(&projected_value, &prep.ctx) != [proj(k, hist)] {
                    return whole(FallbackReason::CrossBoundCoupled);
                }
            }
        }

        // The class leaf asks each global abort's class projection to
        // extend the class's longest commit history and LCP and to draw
        // from the class's valid inputs at the abort.
        let classes = parts
            .into_values()
            .zip(class_vi)
            .enumerate()
            .map(|(k, ((sub, index_map), bounds))| {
                let class_lcp = proj(k, lcp);
                let cands: Vec<_> = abort_hists.iter().map(|h| proj(k, h)).collect();
                // The draw reads no chain — only the projection, the
                // pending input when this class owns it and the class's
                // valid inputs at the abort — so it is decided here, once.
                let mut per_abort = prep.aborts.iter().zip(&cands).zip(&at_aborts);
                let draws = per_abort.all(|((s, cand), at_abort)| {
                    let own = in_class(k, &s.input).then_some(&s.input);
                    draws_within(cand, own, &at_abort[k])
                });
                let seed = class_lcp.clone();
                let leaf = move |longest: &[T::Input]| {
                    let extends = |cand: &Vec<T::Input>| {
                        seq::is_prefix(longest, cand)
                            && (!constrain_init_order || seq::is_prefix(&class_lcp, cand))
                    };
                    (draws && cands.iter().all(extends)).then_some(())
                };
                ClassProblem {
                    problem: Problem {
                        commits: ops::commits::<T, R::Value>(&sub).into(),
                        bounds,
                        seed,
                        leaf: Box::new(leaf),
                    },
                    index_map,
                }
            })
            .collect();
        Projection::Classes {
            refuted: Box::new(move || Self::fail_error(&interpretation)),
            whole: whole_problem,
            classes,
        }
    }

    /// Every enumerated interpretation — on the partitioned path, every
    /// class search — contributes 1 to the absorbed `interpretations`
    /// counter the caller passes on.
    fn witness(
        commit_histories: Chain<T::Input>,
        (init_histories, abort_histories): Self::Leaf,
        interpretations_checked: usize,
        stats: SearchStats,
    ) -> SlinReport<T::Input> {
        SlinReport {
            interpretations_checked,
            witness: SlinWitness {
                init_histories,
                commit_histories,
                abort_histories,
            },
            stats,
        }
    }
}

/// The validated trace summary and interpretation space shared by the
/// sequential and parallel enumeration paths.
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

/// One class of a split: its sub-trace and the trace index of each of its
/// actions.
type Part<T, V> = (Trace<ObjAction<T, V>>, Vec<usize>);

/// The independence classes [`SlinChecker::valid_inputs`] projects onto.
struct Classes<'a, I> {
    count: usize,
    /// The class of the action at every trace index (empty without
    /// classes).
    of_action: &'a [usize],
    /// The class of an input.
    of_input: &'a dyn Fn(&I) -> usize,
}

impl<'a, I: 'a> Classes<'a, I> {
    /// No projection: the global bounds alone.
    fn none() -> Self {
        Classes {
            count: 0,
            of_action: &[],
            of_input: &|_| 0,
        }
    }
}

/// What [`SlinChecker::valid_inputs`] builds: Definition 26's bound
/// globally at every trace index `0..=t_len`, and projected per
/// independence class at the class's own actions (class-local indices,
/// then the final pool) and at every abort action.
struct ValidInputs<I> {
    global: Vec<PersistentMultiset<I>>,
    per_class: Vec<Vec<PersistentMultiset<I>>>,
    /// Per abort action, in trace order: every class's bound there.
    at_aborts: Vec<Vec<PersistentMultiset<I>>>,
}

/// What a leaf settles beside the commit chain: the init interpretation
/// searched under and the abort interpretations found, each as
/// `(trace index, history)` pairs.
type Interpretations<I> = (Chain<I>, Chain<I>);

/// An abort action for the leaf: `(trace index, pending input, switch
/// value, valid inputs at the index)`.
type AbortEvent<I, V> = (usize, I, V, PersistentMultiset<I>);

/// One interpretation's verdict (a witness, `None` for "no speculative
/// linearization exists under this `finit`", or the budget error) plus its
/// engine stats — the work done, on every side of the verdict.
type InterpretationOutcome<T> = (
    Result<Option<SlinWitness<<T as Adt>::Input>>, SlinError>,
    SearchStats,
);

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
) -> Option<Chain<T::Input>> {
    let mut chosen = Vec::with_capacity(abort_events.len());
    for (index, input, value, valid) in abort_events {
        let cands = extend(value, longest_commit);
        let ok = cands.into_iter().find(|a| {
            (!constrain_init_order || seq::is_prefix(lcp, a)) && draws_within(a, Some(input), valid)
        });
        match ok {
            Some(a) => chosen.push((*index, a)),
            None => return None,
        }
    }
    Some(chosen)
}

/// `elems(h) ∪ elems(pending) ⊆ bound` — an abort history, with its
/// action's pending input, draws from the valid inputs (Definition 28) —
/// by counting: the ∪ asks the bound for each element's multiplicity in
/// `h`, and for the pending input's at least once.
fn draws_within<I: Ord + std::hash::Hash>(
    h: &[I],
    pending: Option<&I>,
    bound: &PersistentMultiset<I>,
) -> bool {
    pending.is_none_or(|p| h.iter().filter(|e| *e == p).count().max(1) <= bound.count(p))
        && elem_counts(h).iter().all(|&(e, n)| n <= bound.count(e))
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
    use crate::initrel::{ConsensusInit, ExactInit};
    use slin_adt::{ConsInput, ConsOutput, Consensus, Universal, Value};
    use slin_trace::{Action, ClientId};

    type CV = Value;
    type CA = ObjAction<Consensus, CV>;

    const BUDGET: usize = SearchBudget::DEFAULT_MAX_NODES;

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
        let report = quorum_checker().check(&t).unwrap();
        assert!(report.interpretations_checked >= 1);
        // The abort history starts with the decided value and extends the
        // commit history [p(1)].
        let (_, a) = &report.witness.abort_histories[0];
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
        let report = backup_checker().check(&t).unwrap();
        // The adversary can pick [p(5), x] for both init actions, so more
        // than one interpretation is enumerated.
        assert!(report.interpretations_checked > 1);
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
        let report = checker.check(&t).unwrap();
        assert_eq!(report.witness.abort_histories[0].1, vec![7, 9]);
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
    /// equal at every trace index under every interpretation, and every
    /// per-class snapshot — at the class's own actions, at the end, at
    /// every abort — equal to the projection of the definitional bound
    /// there.
    fn assert_valid_inputs_match_the_definition<T, R>(
        chk: &SlinChecker<T, R>,
        t: &Trace<ObjAction<T, R::Value>>,
        classes: usize,
        class_of: &dyn Fn(&T::Input) -> usize,
    ) where
        T: Adt,
        T::Input: Ord,
        R: InitRelation<T::Input>,
    {
        let prep = chk.prepare(t).expect("the corpus is well-formed");
        let of_action: Vec<usize> = match classes {
            0 => Vec::new(),
            _ => t.iter().map(|a| class_of(a.input())).collect(),
        };
        for idx in 0..prep.combos {
            let finit = chk.finit_at(&prep, idx);
            let want = chk.valid_inputs_by_definition(t, &prep, &finit);
            let got = chk.valid_inputs(
                &prep,
                &finit,
                &Classes {
                    count: classes,
                    of_action: &of_action,
                    of_input: class_of,
                },
            );
            assert_eq!(got.global, want, "interpretation {idx} of {t:?}");
            assert_eq!(got.per_class.len(), classes);
            let projected = |k: usize, i: usize| {
                let mut out = PersistentMultiset::new();
                for (input, n) in want[i].iter().filter(|(input, _)| class_of(input) == k) {
                    out.add(input.clone(), n);
                }
                out
            };
            for (k, snapshots) in got.per_class.iter().enumerate() {
                let at: Vec<usize> = (0..t.len())
                    .filter(|i| of_action[*i] == k)
                    .chain([t.len()])
                    .collect();
                let want_k: Vec<_> = at.iter().map(|i| projected(k, *i)).collect();
                assert_eq!(*snapshots, want_k, "class {k}, interpretation {idx}");
            }
            assert_eq!(got.at_aborts.len(), prep.aborts.len());
            for (abort, snapshots) in prep.aborts.iter().zip(&got.at_aborts) {
                let want_a: Vec<_> = (0..classes).map(|k| projected(k, abort.index)).collect();
                assert_eq!(*snapshots, want_a, "abort at {}", abort.index);
            }
        }
    }

    #[test]
    fn incremental_valid_inputs_equal_the_definition_on_the_phase_generators() {
        use crate::gen::{phase_trace_bounds, random_phase_kv_trace, PhaseConfig};
        use slin_adt::{KvKeyPartitioner, KvStore};
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
                    let class_of = |i: &slin_adt::KvInput| {
                        KvKeyPartitioner.key_of(i).expect("kv inputs are keyed") as usize - 1
                    };
                    assert_valid_inputs_match_the_definition(&chk, &t, keys as usize, &class_of);
                    assert_valid_inputs_match_the_definition(&chk, &t, 0, &|_| 0);
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
        let vi = chk
            .valid_inputs(&prep, &chk.finit_at(&prep, 0), &Classes::none())
            .global;
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
        let by_value = |i: &ConsInput| (*i == p(5)) as usize;
        for t in [&collision, &divergent] {
            assert_valid_inputs_match_the_definition(&chk, t, 2, &by_value);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4000))]
        /// The counted draw against Definition 28's multiset algebra, on
        /// histories with repeats, a pending input in the history, outside
        /// it or absent, and bounds around the history's size.
        #[test]
        fn counting_draw_equals_the_multiset_algebra(
            h in proptest::collection::vec(0..4u8, 0..9),
            pending in 0..5u8,
            bound in proptest::collection::vec(0..4u8, 0..9),
        ) {
            let own = (pending < 4).then_some(pending);
            let bound: PersistentMultiset<u8> = bound.into_iter().collect();
            let by_algebra = PersistentMultiset::elems(&h)
                .union_max(&PersistentMultiset::elems(own.as_slice()))
                .is_subset_of(&bound);
            proptest::prop_assert_eq!(draws_within(&h, own.as_ref(), &bound), by_algebra);
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
                let par = chk.check_with_stats_impl(t, BUDGET, 4);
                let seq = chk.check_with_stats_impl(t, BUDGET, 1);
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
            let seq = backup_checker().check_with_stats_impl(&t, BUDGET, 1);
            assert_eq!(seq.0.is_ok(), ok);
            for threads in [2, 4] {
                let par = backup_checker().check_with_stats_impl(&t, BUDGET, threads);
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
        let at = |threads| backup_checker().check_with_stats_impl(&t, BUDGET, threads);
        let (par, seq) = (at(3).0.unwrap(), at(1).0.unwrap());
        assert!(par.interpretations_checked > 1);
        assert_eq!(par.interpretations_checked, seq.interpretations_checked);
        assert_eq!(par.stats, seq.stats);
        assert_eq!(par.stats.interpretations, par.interpretations_checked);
        assert!(par.stats.nodes > 0);
    }

    #[test]
    fn budget_exhaustion_reports_node_count() {
        let t: Trace<CA> = Trace::from_actions(vec![
            Action::invoke(c(1), ph(1), p(1)),
            Action::invoke(c(2), ph(1), p(2)),
            Action::respond(c(1), ph(1), p(1), d(1)),
            Action::respond(c(2), ph(1), p(2), d(1)),
        ]);
        let at = |threads| quorum_checker().check_with_stats_impl(&t, 1, threads).0;
        match at(1) {
            Err(SlinError::BudgetExhausted { nodes }) => assert!(nodes > 0),
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
        // The parallel path reports the identical error.
        assert_eq!(at(2), Err(SlinError::BudgetExhausted { nodes: 2 }));
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
