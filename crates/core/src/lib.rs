//! Speculative linearizability: definitions, checkers, and composition.
//!
//! This crate is the primary contribution of the reproduction of
//! *Speculative Linearizability* (Guerraoui, Kuncak, Losa — PLDI 2012):
//!
//! * [`engine`] — the **shared chain-search engine** both checkers are
//!   thin frontends over: one backtracking search with explicit
//!   [`engine::SearchBudget`]s and [`engine::SearchStats`];
//! * [`lin`] — the paper's **new definition of linearizability**
//!   (Section 4, Definitions 5–15), decided by a backtracking search for a
//!   *linearization function* `g` mapping commit indices to histories;
//! * [`classical`] — the **classical definition** `linearizable*`
//!   (Appendix A, Definitions 37–46), decided by a Wing–Gong-style search
//!   over completions and reorderings. Theorem 1 states the two coincide,
//!   and the workspace property-tests exactly that;
//! * [`slin`] — **speculative linearizability** (Section 5,
//!   Definitions 16–36): speculation phases `(m, n)`, switch actions,
//!   interpretations of init/abort values through the common relation
//!   `rinit`, and the `Validity`, `Commit-Order`, `Init-Order` and
//!   `Abort-Order` predicates;
//! * [`initrel`] — concrete `rinit` relations (exact/singleton, and the
//!   consensus mapping of Section 2.4);
//! * [`invariants`] — the paper's invariants **I1–I5** for consensus
//!   speculation phases, as executable trace predicates;
//! * [`model`] — the **[`ConsistencyModel`] abstraction**: what a
//!   criterion *states* — one search problem per interpretation of a
//!   validated trace and, along a [`slin_adt::Partitioner`], its per-class
//!   projections — and nothing about how it is searched;
//! * [`partition`] — **P-compositional checking** and the one routine
//!   that checks a closed trace, for a session and for the streaming
//!   monitor's re-check of its record alike: whether the check decomposes,
//!   then class searches in key order, the first failure deciding, the
//!   class chains merged so the result is byte-identical to the monolithic
//!   path, one re-derivation when the merge cannot predict it — or the
//!   whole check — for both checkers;
//! * [`session`] — the **unified checker surface**: a builder
//!   ([`session::Checker::builder`]) where strategy (monolithic /
//!   partitioned / streaming) is configuration, yielding a
//!   [`session::Session`] with `check(&trace)` and `ingest(action)` and
//!   one [`session::Verdict`] report type;
//! * [`stream`] — the **online streaming monitor**: per-key sharded
//!   incremental checking of live event streams, generic over any
//!   [`ConsistencyModel`];
//! * [`compose`] — phase projection and the apparatus of the
//!   **intra-object composition theorem** (Theorems 2, 3 and 5);
//! * [`gen`] — seeded random generators of well-formed (and adversarial)
//!   traces used by the test suites and benchmarks.
//!
//! # Quick start
//!
//! ```
//! use slin_adt::{Consensus, ConsInput, ConsOutput};
//! use slin_core::lin::LinChecker;
//! use slin_core::session::Checker;
//! use slin_trace::{Action, ClientId, PhaseId, Trace};
//!
//! // The linearizable trace from Section 2.2 of the paper:
//! // c1 proposes 1, c2 proposes 2, c2 decides 2, c1 decides 2.
//! let (c1, c2) = (ClientId::new(1), ClientId::new(2));
//! let ph = PhaseId::FIRST;
//! let t: Trace<Action<ConsInput, ConsOutput, ()>> = Trace::from_actions(vec![
//!     Action::invoke(c1, ph, ConsInput::propose(1)),
//!     Action::invoke(c2, ph, ConsInput::propose(2)),
//!     Action::respond(c2, ph, ConsInput::propose(2), ConsOutput::decide(2)),
//!     Action::respond(c1, ph, ConsInput::propose(1), ConsOutput::decide(2)),
//! ]);
//! let mut session = Checker::builder(LinChecker::owned(Consensus::new())).build();
//! assert!(session.check(&t).is_ok());
//! ```

#![warn(missing_docs)]

pub mod classical;
pub mod compose;
pub mod engine;
pub mod gen;
pub mod initrel;
pub mod invariants;
pub mod lin;
pub mod model;
pub mod ops;
pub mod partition;
pub mod session;
pub mod slin;
pub mod stream;

pub use classical::ClassicalChecker;
pub use engine::{EngineError, SearchBudget, SearchStats};
pub use initrel::{ConsensusInit, ExactInit, InitRelation};
pub use lin::{LinChecker, LinError, LinWitness};
pub use model::ConsistencyModel;
pub use partition::PartitionReport;
pub use session::{Checker, Session, SessionBuilder, Strategy, Verdict};
pub use slin::{SlinChecker, SlinError, SlinWitness};

use slin_adt::Adt;
use slin_trace::Action;

/// The action type of a concurrent object of ADT `T` with switch values `V`.
pub type ObjAction<T, V> = Action<<T as Adt>::Input, <T as Adt>::Output, V>;
