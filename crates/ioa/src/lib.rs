//! I/O automata and the ALM specification automaton (paper Section 6).
//!
//! The paper complements its trace-based development with an automaton
//! formalization in the style of Lynch & Tuttle's I/O automata, mechanised
//! in Isabelle/HOL: a specification automaton for speculative
//! linearizability instantiated to the *universal ADT* (outputs are full
//! input histories), and a machine-checked proof that the composition of two
//! specification automata refines a single one.
//!
//! This crate rebuilds that development executably:
//!
//! * [`automaton`] — an I/O-automaton trait with enumerable transitions,
//!   executions and external traces;
//! * [`compose`] — binary composition synchronizing on shared actions, and
//!   action hiding;
//! * [`explore`] — bounded breadth-first exploration and seeded random
//!   walks (used both for model checking and as a generator of
//!   speculatively-linearizable traces);
//! * [`refine`] — trace-inclusion checking by subset construction
//!   (the executable counterpart of the paper's refinement mapping);
//! * [`alm`] — the ALM ("abortable linearizable module") specification
//!   automaton with the steps A1–A4 of Section 6.
//!
//! # Example
//!
//! ```
//! use slin_ioa::alm::{AlmAutomaton, AlmParams};
//! use slin_ioa::explore::random_walk;
//!
//! let alm = AlmAutomaton::new(AlmParams {
//!     first: 1,
//!     last: 2,
//!     clients: 2,
//!     inputs: vec![1u8, 2],
//! });
//! // A random execution of the specification automaton…
//! let trace = random_walk(&alm, 20, 42);
//! assert!(trace.len() <= 20);
//! ```

#![warn(missing_docs)]

pub mod alm;
pub mod automaton;
pub mod compose;
pub mod explore;
pub mod refine;

pub use alm::{AlmAction, AlmAutomaton, AlmParams};
pub use automaton::Automaton;
pub use compose::{Composition, Hidden};
pub use refine::{check_trace_inclusion, RefinementError};
