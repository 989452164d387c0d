//! `slin-daemon` — a long-running, multi-tenant trace-ingestion daemon
//! over the streaming (speculative-)linearizability checker.
//!
//! The paper's monitor checks one object's stream; a deployment has
//! thousands of them. This crate multiplexes many tenants — independent
//! key-spaces, each with its own verdict — over one process:
//!
//! ```text
//!   wire bytes ──▶ Decoder ──▶ per-tenant bounded queues ──▶ worker lanes
//!   (frames)       (wire.rs)      │ high-water: shed          │ one owned
//!                                 ▼ (lossy epoch_force)       ▼ Session each
//!                              metrics  ◀─────────────  verdict snapshots
//! ```
//!
//! * [`wire`] — the compact length-prefixed frame format and its
//!   incremental, chunking-agnostic [`wire::Decoder`];
//! * [`daemon`] — the tenant table ([`daemon::Daemon`]), per-tenant
//!   [`daemon::TenantPolicy`] (queue bound + the checker's own
//!   [`slin_core::stream::GcPolicy`]), backpressure shedding, the
//!   lane-sharded worker pool, and the [`daemon::DaemonMetrics`] surface;
//! * [`loadgen`] — deterministic Zipf-skewed multi-tenant workloads and a
//!   bounded in-process transport, for the binary and the integration
//!   tests.
//!
//! The binary (`slin-daemon`) wires the three together: generate or
//! accept a workload, ingest, pump, snapshot verdicts, print metrics.

#![warn(missing_docs)]
// An ingest hot path: hostile bytes reach this code, so no bare `.unwrap()`.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod daemon;
pub mod loadgen;
pub mod wire;

pub use daemon::{
    Daemon, DaemonConfig, DaemonMetrics, FallbackCounts, TenantChecker, TenantPolicy,
    TenantSession, VerdictCounts,
};
pub use loadgen::{generate, transport, LoadConfig, Workload};
pub use wire::{
    decode_frames, encode_frame, encode_frames, Decoder, Frame, KvAction, WireError,
    MAX_SWITCH_VALUE,
};
