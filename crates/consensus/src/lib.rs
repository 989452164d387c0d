//! Message-passing speculative consensus (paper Section 2.1).
//!
//! This crate implements, over the [`slin_sim`] substrate:
//!
//! * the **Quorum** speculation phase — decides in two message delays when
//!   the execution is fault-free and contention-free, and otherwise switches
//!   to the next phase;
//! * the **Backup** phase — full single-decree **Paxos** (clients act as
//!   proposers and learners, servers as acceptors), which treats incoming
//!   switch values as proposals;
//! * the **composed protocol** — an N-phase chain of Quorum phases ending
//!   in Paxos, exercising the paper's claim that phases compose without
//!   modifying one another (clients switch independently, no agreement on
//!   the switch point);
//! * a **scenario harness** that runs configurations (crashes, message
//!   loss, contention, delays) and extracts the object-interface trace for
//!   the `slin-core` checkers, plus latency and message-count metrics.
//!
//! # Example
//!
//! ```
//! use slin_consensus::harness::{run_scenario, Scenario};
//!
//! // Three servers, one client, fault-free: Quorum decides in 2 delays.
//! let outcome = run_scenario(&Scenario::fault_free(3, &[(1, 0)]));
//! assert_eq!(outcome.decisions.len(), 1);
//! assert_eq!(outcome.latencies[0].1, Some(2));
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod harness;
pub mod msg;
pub mod paxos;
pub mod quorum;
pub mod server;

pub use client::{Client, ClientConfig};
pub use harness::{run_scenario, RunOutcome, Scenario};
pub use msg::{Ballot, Msg};
pub use server::Server;

use slin_adt::consensus::{ConsInput, ConsOutput, Value};
use slin_trace::Action;

/// The object-interface action type recorded by the protocol: consensus
/// inputs/outputs with proposal values as switch values.
pub type ConsAction = Action<ConsInput, ConsOutput, Value>;
