//! Static certification of partitioner soundness — the `slin-analyze`
//! toolchain.
//!
//! The partitioned and streaming fast paths in `slin-core` are sound only
//! if the user's [`Partitioner`](slin_adt::Partitioner) upholds the
//! product-factoring contract documented in `slin_adt::partition`. This
//! crate turns that prose contract into a decision procedure:
//!
//! * [`certify`] exhaustively explores every history over an ADT's
//!   enumerable input domain ([`slin_adt::DomainSpec`]) up to a depth
//!   bound, discharging both contract obligations, and returns either a
//!   machine-readable [`Certificate`] or a shrunk, replayable
//!   [`Counterexample`] (the exploration is one walk, [`analyze`]'s, that
//!   both certifications share; either fails with a [`Failure`]);
//! * [`certify_switch`] does the same for the **switch/init contract**:
//!   it proves the exact init relation decomposes per independence class
//!   over the ADT's enumerable switch domain, emitting a
//!   [`SwitchCert`] (`slin-cert/v2`) that lets phase traces decompose per
//!   class, or a replayable [`SwitchCounterexample`];
//! * a switch certificate reaches a session one way: installed by value
//!   (`SessionBuilder::switch_certified` in `slin-core`; the daemon's
//!   `keyed` policy installs one). A partitioner certificate
//!   (`slin-cert/v1`) is a build-time artefact: `slin-analyze` commits it
//!   and tier-1 compares its bytes;
//! * [`fixtures`] holds deliberately unsound partitioners the analyzer
//!   must reject — the negative half of the test suite.
//!
//! The `slin-analyze` binary writes the eight shipped certificates to
//! `analysis/certs/*.json`; tier-1 regenerates them and compares bytes
//! with the committed files
//! (`tests/tests/static_certification.rs::shipped_partitioners_certify_deterministically`).

#![warn(missing_docs)]

pub mod analyze;
pub mod cert;
pub mod fixtures;
pub mod switch;

pub use analyze::{certify, AnalyzeConfig, AnalyzeFailure, Counterexample, Failure, Obligation};
pub use cert::{
    short_type_name, CertError, Certificate, SwitchCert, CERT_SCHEMA, SWITCH_CERT_SCHEMA,
};
pub use switch::{
    certify_switch, SwitchCounterexample, SwitchFailure, SwitchObligation, EXACT_RELATION,
};
