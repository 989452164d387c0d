//! Trace-theoretic substrate for speculative linearizability.
//!
//! This crate implements Section 3 of *Speculative Linearizability*
//! (Guerraoui, Kuncak, Losa — PLDI 2012): finite sequences and their prefix
//! order, multisets with the union (`∪`, pointwise max) and sum (`⊎`,
//! pointwise addition) operations, the action alphabet of concurrent objects
//! and speculation phases (`inv`/`res`/`swi`), signatures classifying actions
//! into inputs and outputs, traces, projections, and the well-formedness
//! conditions of Sections 4.5 and 5.4 of the paper.
//!
//! Everything here is deliberately independent of any particular abstract
//! data type: actions are generic over the input type `I`, the output type
//! `O`, and the switch-value type `V`.
//!
//! # Example
//!
//! ```
//! use slin_trace::{Action, ClientId, PhaseId, Trace};
//!
//! let c1 = ClientId::new(1);
//! let t: Trace<Action<&str, &str, ()>> = Trace::from_actions(vec![
//!     Action::invoke(c1, PhaseId::FIRST, "propose(1)"),
//!     Action::respond(c1, PhaseId::FIRST, "propose(1)", "decide(1)"),
//! ]);
//! assert!(slin_trace::wf::is_well_formed(&t));
//! ```

#![warn(missing_docs)]

pub mod action;
pub mod multiset;
pub mod pmultiset;
pub mod prop;
pub mod seq;
pub mod sig;
pub mod trace;
pub mod wf;

pub use action::{Action, ClientId, PhaseId};
pub use multiset::Multiset;
pub use pmultiset::PersistentMultiset;
pub use prop::{Polarity, Signature, TraceProperty};
pub use sig::PhaseSignature;
pub use trace::Trace;
