//! Shared-memory speculative consensus (paper Section 2.5, Figures 2–3).
//!
//! Wait-free consensus cannot be built from registers alone (Herlihy), but
//! in *contention-free* executions a splitter-based algorithm using only
//! registers solves it. The paper composes:
//!
//! * [`rcons::RCons`] (Figure 2) — register-based consensus built on
//!   Lamport's splitter: decides when alone, switches to the next phase on
//!   contention;
//! * [`cascons::CasCons`] (Figure 3) — a straightforward CAS-based
//!   consensus that treats switch values as proposals;
//! * [`composed::SpeculativeConsensus`] — the composition, which uses only
//!   registers in contention-free executions yet is always correct.
//!
//! All algorithms run on real threads over `std::sync::atomic` with
//! sequentially-consistent ordering, and record their object-interface
//! events into a global trace checked by the `slin-core` checkers.
//!
//! Values are non-zero `u64`s (`0` encodes the paper's `⊥`).
//!
//! # Example
//!
//! ```
//! use slin_shmem::harness::{run_concurrent, Workload};
//!
//! let outcome = run_concurrent(&Workload { threads: 4, sequential: false });
//! assert!(outcome.agreement());
//! ```

#![warn(missing_docs)]

pub mod cascons;
pub mod composed;
pub mod harness;
pub mod rcons;
pub mod recorder;
pub mod splitter;

pub use cascons::CasCons;
pub use composed::SpeculativeConsensus;
pub use rcons::{RCons, RconsOutcome};
pub use splitter::Splitter;

use slin_adt::consensus::{ConsInput, ConsOutput, Value};
use slin_trace::Action;

/// The object-interface action type recorded by the shared-memory
/// algorithms.
pub type ConsAction = Action<ConsInput, ConsOutput, Value>;
