//! Partitioning ADT histories into independent sub-histories.
//!
//! Multi-key workloads pay the checkers' exponential interleaving cost for
//! operations that can never interact: a `put(1, _)` and a `get(2)` commute
//! in every history, yet a monolithic chain search still explores their
//! relative orders. A [`Partitioner`] captures the compositional structure
//! that makes *P-compositional* checking sound (cf. Herlihy–Wing locality
//! and the replication-aware / library-compositionality lines of work): it
//! classifies each input into an independence class ("key"), and the
//! checkers in `slin-core` split a trace into one sub-trace per class,
//! check the sub-traces in parallel, and recombine the verdicts.
//!
//! # Soundness contract
//!
//! An implementation may return `Some(k)` for an input `i` **only if** the
//! ADT factors as a product over the keys it emits: for every history `h`,
//!
//! * `f_T(h ::: i)` equals `f_T(h|k ::: i)`, where `h|k` is the
//!   subsequence of `h` with key `k` (outputs depend only on same-key
//!   inputs), and
//! * same-key outputs are unaffected by removing other-key inputs anywhere
//!   in the history (transitions on distinct keys commute).
//!
//! Inputs that read or write state shared across classes must map to
//! `None`; the checkers then fall back to monolithic checking of the whole
//! trace. [`IdentityPartitioner`] returns `None` for everything and is the
//! correct (trivial) partitioner for non-partitionable ADTs such as
//! [`Consensus`](crate::Consensus) or [`Queue`](crate::Queue).
//!
//! ## Machine-checking the contract
//!
//! The contract is not just prose: for any ADT that also implements
//! [`DomainSpec`](crate::DomainSpec), the `slin-analysis` crate discharges
//! both obligations by bounded exhaustive exploration — `certify(&adt,
//! &partitioner, &config)` returns either a deterministic, content-hashed
//! `Certificate` (JSON, committed under `analysis/certs/` and compared
//! byte for byte by tier-1) or a shrunk counterexample that replays as a
//! real partitioned-vs-monolithic checker divergence. Rewrite the
//! committed files with
//!
//! ```text
//! cargo run -p slin-analysis --bin slin-analyze
//! ```
//!
//! New partitioners should ship with a `DomainSpec` and a committed
//! certificate.
//!
//! # Example
//!
//! ```
//! use slin_adt::{KvInput, KvKeyPartitioner, KvStore, Partitioner};
//! let p = KvKeyPartitioner;
//! assert_eq!(p.key_of(&KvInput::Put(3, 7)), Some(3));
//! assert_eq!(p.key_of(&KvInput::Get(4)), Some(4));
//! ```

use crate::array::{CounterVecInput, RegArrayInput};
use crate::kv::KvInput;
use crate::set::SetInput;
use crate::{Adt, CounterVector, KvStore, RegisterArray, Set};
use std::fmt::Debug;
use std::hash::Hash;

/// Classifies ADT inputs into independence classes ("keys").
///
/// See the [module docs](self) for the soundness contract an implementation
/// must uphold; the checkers in `slin-core` rely on it when they split a
/// trace per key and check the sub-traces independently.
pub trait Partitioner<T: Adt> {
    /// The independence-class label. Keys order the partitions, so merged
    /// statistics are deterministic.
    type Key: Clone + Ord + Eq + Hash + Debug + Send + Sync;

    /// The class of `input`, or `None` when the input may touch state of
    /// every class (forcing the identity fallback: one partition holding
    /// the whole trace).
    fn key_of(&self, input: &T::Input) -> Option<Self::Key>;
}

/// Borrowed partitioners classify exactly like their referent, so APIs
/// taking a partitioner by value (the `slin-core` session builder) also
/// accept `&P`.
impl<T: Adt, P: Partitioner<T>> Partitioner<T> for &P {
    type Key = P::Key;

    fn key_of(&self, input: &T::Input) -> Option<Self::Key> {
        (*self).key_of(input)
    }
}

/// The trivial partitioner: classifies nothing, so every trace stays in
/// one partition and partitioned checking degenerates to the monolithic
/// path. Sound for **every** ADT.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdentityPartitioner;

impl<T: Adt> Partitioner<T> for IdentityPartitioner {
    type Key = u8;

    fn key_of(&self, _input: &T::Input) -> Option<u8> {
        None
    }
}

/// Per-key partitioner for the [`KvStore`] ADT: `put`/`get`/`del` touch
/// exactly the dictionary entry they name, so distinct keys never interact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvKeyPartitioner;

impl Partitioner<KvStore> for KvKeyPartitioner {
    type Key = u32;

    fn key_of(&self, input: &KvInput) -> Option<u32> {
        Some(match input {
            KvInput::Put(k, _) => *k,
            KvInput::Get(k) => *k,
            KvInput::Delete(k) => *k,
        })
    }
}

/// Per-element partitioner for the [`Set`] ADT: `add`/`rem`/`has` touch
/// exactly the membership bit of the element they name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetElemPartitioner;

impl Partitioner<Set> for SetElemPartitioner {
    type Key = u64;

    fn key_of(&self, input: &SetInput) -> Option<u64> {
        Some(match input {
            SetInput::Add(v) => *v,
            SetInput::Remove(v) => *v,
            SetInput::Contains(v) => *v,
        })
    }
}

/// Per-cell partitioner for the composite [`RegisterArray`] ADT: every
/// input names the one register cell it reads or overwrites, so the ADT is
/// a product over cell indices by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegArrayPartitioner;

impl Partitioner<RegisterArray> for RegArrayPartitioner {
    type Key = u32;

    fn key_of(&self, input: &RegArrayInput) -> Option<u32> {
        Some(input.cell())
    }
}

/// Per-slot partitioner for the composite [`CounterVector`] ADT: increments
/// and reads touch exactly the slot they name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterVecPartitioner;

impl Partitioner<CounterVector> for CounterVecPartitioner {
    type Key = u32;

    fn key_of(&self, input: &CounterVecInput) -> Option<u32> {
        Some(input.slot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConsInput, Consensus};

    #[test]
    fn kv_inputs_key_on_their_dictionary_entry() {
        let p = KvKeyPartitioner;
        assert_eq!(p.key_of(&KvInput::Put(1, 9)), Some(1));
        assert_eq!(p.key_of(&KvInput::Get(2)), Some(2));
        assert_eq!(p.key_of(&KvInput::Delete(3)), Some(3));
    }

    #[test]
    fn set_inputs_key_on_their_element() {
        let p = SetElemPartitioner;
        assert_eq!(p.key_of(&SetInput::Add(8)), Some(8));
        assert_eq!(p.key_of(&SetInput::Remove(8)), Some(8));
        assert_eq!(p.key_of(&SetInput::Contains(9)), Some(9));
    }

    #[test]
    fn identity_partitioner_classifies_nothing() {
        let p = IdentityPartitioner;
        assert_eq!(
            Partitioner::<Consensus>::key_of(&p, &ConsInput::propose(1)),
            None
        );
        assert_eq!(Partitioner::<KvStore>::key_of(&p, &KvInput::Get(1)), None);
    }

    #[test]
    fn composite_inputs_key_on_their_cell() {
        assert_eq!(
            RegArrayPartitioner.key_of(&RegArrayInput::Write(3, 9)),
            Some(3)
        );
        assert_eq!(RegArrayPartitioner.key_of(&RegArrayInput::Read(4)), Some(4));
        assert_eq!(
            CounterVecPartitioner.key_of(&CounterVecInput::Increment(5)),
            Some(5)
        );
        assert_eq!(
            CounterVecPartitioner.key_of(&CounterVecInput::Read(6)),
            Some(6)
        );
    }

    /// The product-ADT contract behind `KvKeyPartitioner`: removing
    /// other-key inputs never changes a same-key output.
    #[test]
    fn kv_outputs_are_invariant_under_other_key_projection() {
        let kv = KvStore::new();
        let h = [
            KvInput::Put(1, 5),
            KvInput::Put(2, 6),
            KvInput::Delete(2),
            KvInput::Put(1, 7),
            KvInput::Get(1),
        ];
        let projected: Vec<KvInput> = h
            .iter()
            .copied()
            .filter(|i| KvKeyPartitioner.key_of(i) == Some(1))
            .collect();
        assert_eq!(kv.output(&h), kv.output(&projected));
    }
}
