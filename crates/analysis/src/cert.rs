//! Machine-readable certificates of partitioner soundness.
//!
//! A [`Certificate`] records that the bounded symbolic exploration in
//! [`crate::analyze`] discharged both contract obligations of a
//! `(Adt, Partitioner)` pair up to a depth, together with the state-space
//! statistics of the run and a content hash over all of it; a
//! [`SwitchCert`] records the same for switch independence. They are two
//! types on purpose — "a v2 certificate is not a v1 certificate" is a
//! compile error at `SessionBuilder::switch_certified` — declared by one
//! macro from one field list each, so the struct, the hash canon and the
//! JSON cannot disagree about which fields there are or in which order.
//! Certificates are serialized as stable, hand-built JSON (no timestamps,
//! no map iteration order) so regenerating one from the same source tree
//! yields the same bytes — they are committed under `analysis/certs/` and
//! tier-1 rejects drift.

use std::fmt::{self, Write as _};

/// Certificate schema identifier, bumped on any field change.
pub const CERT_SCHEMA: &str = "slin-cert/v1";

/// Switch-independence certificate schema identifier (the `v2` section
/// committed alongside the v1 partitioner certificates).
pub const SWITCH_CERT_SCHEMA: &str = "slin-cert/v2";

/// The last path segment of `std::any::type_name::<T>()` — the canonical
/// short name certificates use for ADTs and partitioners.
pub fn short_type_name<T: ?Sized>() -> &'static str {
    let full = std::any::type_name::<T>();
    full.rsplit("::").next().unwrap_or(full)
}

/// A certificate field: `Display` is its place in the hash canon, and in
/// the JSON rendering too — quoted and escaped when it is text.
trait Field: fmt::Display {
    const TEXT: bool = false;

    fn json(&self) -> String {
        let raw = self.to_string();
        if Self::TEXT {
            format!("\"{}\"", raw.replace('\\', "\\\\").replace('"', "\\\""))
        } else {
            raw
        }
    }
}

impl Field for String {
    const TEXT: bool = true;
}
impl Field for usize {}
impl Field for u64 {}

/// FNV-1a 64-bit — tiny, dependency-free, and stable across platforms.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Declares a certificate type: the struct (its listed fields, then
/// `content_hash`), and — from the same list, in the same order — its hash
/// canon `schema|field|…`, its JSON rendering and its file name.
macro_rules! certificate {
    (
        $(#[$meta:meta])*
        pub struct $name:ident [$schema:ident, $file_suffix:literal] {
            $( $(#[$field_meta:meta])* pub $field:ident: $ty:ty, )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct $name {
            $( $(#[$field_meta])* pub $field: $ty, )*
            /// FNV-1a 64-bit hash (hex) over the schema and every field
            /// above, in order.
            pub content_hash: String,
        }

        impl $name {
            /// Computes the content hash for the non-hash fields.
            fn compute_hash(&self) -> String {
                let mut canon = $schema.to_string();
                $( let _ = write!(canon, "|{}", self.$field); )*
                format!("fnv1a64:{:016x}", fnv1a64(canon.as_bytes()))
            }

            /// Fills in `content_hash` from the other fields.
            pub(crate) fn sealed(mut self) -> Self {
                self.content_hash = self.compute_hash();
                self
            }

            /// Whether `content_hash` matches the other fields.
            pub fn verify(&self) -> bool {
                self.content_hash == self.compute_hash()
            }

            /// Stable JSON rendering (2-space indent, fixed field order,
            /// trailing newline) — the exact bytes committed under
            /// `analysis/certs/`.
            pub fn to_json(&self) -> String {
                let mut json = format!("{{\n  \"schema\": {}", $schema.to_string().json());
                $( let _ = write!(json, ",\n  \"{}\": {}", stringify!($field), self.$field.json()); )*
                let _ = write!(json, ",\n  \"content_hash\": {}\n}}\n", self.content_hash.json());
                json
            }

            /// The committed filename for this certificate.
            pub fn file_name(&self) -> String {
                format!(concat!("{}__{}", $file_suffix, ".json"), self.adt, self.partitioner)
            }
        }
    };
}

certificate! {
    /// A successful bounded-exploration run: the named partitioner upholds
    /// the soundness contract for the named ADT over every history of
    /// classified domain inputs up to `depth`.
    pub struct Certificate [CERT_SCHEMA, ""] {
        /// Short type name of the certified ADT (e.g. `KvStore`).
        pub adt: String,
        /// Short type name of the certified partitioner.
        pub partitioner: String,
        /// Exploration depth (maximum history length).
        pub depth: usize,
        /// Size of the ADT's enumerable input alphabet.
        pub alphabet: usize,
        /// How many alphabet inputs the partitioner classified (`Some` key).
        pub classified: usize,
        /// Distinct independence classes among the classified inputs.
        pub keys: usize,
        /// Distinct `(state, projections)` signatures explored.
        pub states: usize,
        /// Same-key output-projection obligations checked.
        pub projection_checks: u64,
        /// Cross-key transition-commutation obligations checked.
        pub commutation_checks: u64,
    }
}

certificate! {
    /// A successful switch-independence run: under the named init
    /// relation, every switch value in the ADT's enumerable switch domain
    /// decomposes per independence class of the named partitioner —
    /// candidate-set projection commutes with per-key projection, and
    /// switch interpretation commutes with cross-class transitions — over
    /// every history of classified domain inputs up to `depth`.
    ///
    /// This is the `slin-cert/v2` schema committed alongside the v1
    /// partitioner certificates (the `__switch` file-name suffix keeps the
    /// pair's two files apart); installing one through the `slin-core`
    /// session builder lets phase traces decompose per class.
    pub struct SwitchCert [SWITCH_CERT_SCHEMA, "__switch"] {
        /// Short type name of the certified ADT (e.g. `KvStore`).
        pub adt: String,
        /// Short type name of the certified partitioner.
        pub partitioner: String,
        /// Short type name of the init relation the decomposition is
        /// proved for (e.g. `ExactInit`).
        pub rinit: String,
        /// Exploration depth (maximum history length).
        pub depth: usize,
        /// Size of the ADT's enumerable input alphabet.
        pub alphabet: usize,
        /// Size of the ADT's enumerable switch/phase domain.
        pub switch_values: usize,
        /// How many alphabet inputs the partitioner classified (`Some` key).
        pub classified: usize,
        /// Distinct independence classes among the classified inputs.
        pub keys: usize,
        /// Distinct `(state, projections)` signatures explored.
        pub states: usize,
        /// Init-candidate projection obligations checked.
        pub projection_checks: u64,
        /// Switch-interpretation/cross-class commutation obligations checked.
        pub commutation_checks: u64,
    }
}

/// Why a switch-independence certificate was rejected when threading it
/// through a session builder (see `SessionBuilder::switch_certified` in
/// `slin-core`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertError {
    /// The certificate's content hash does not match its fields.
    BadHash,
    /// The certificate names a different ADT than the session model's.
    AdtMismatch {
        /// ADT name the session model replays.
        expected: String,
        /// ADT name the certificate was issued for.
        found: String,
    },
    /// The certificate names a different partitioner type.
    PartitionerMismatch {
        /// Partitioner type handed to the builder.
        expected: String,
        /// Partitioner name the certificate was issued for.
        found: String,
    },
    /// The switch certificate names a different init relation than the
    /// session model interprets switches with.
    RelationMismatch {
        /// Init relation name of the session model.
        expected: String,
        /// Init relation name the certificate was issued for.
        found: String,
    },
}

impl fmt::Display for CertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertError::BadHash => write!(f, "certificate content hash does not match its fields"),
            CertError::AdtMismatch { expected, found } => write!(
                f,
                "certificate is for ADT `{found}`, session model replays `{expected}`"
            ),
            CertError::PartitionerMismatch { expected, found } => write!(
                f,
                "certificate is for partitioner `{found}`, builder was given `{expected}`"
            ),
            CertError::RelationMismatch { expected, found } => write!(
                f,
                "switch certificate is for init relation `{found}`, session model \
                 interprets switches with `{expected}`"
            ),
        }
    }
}

impl std::error::Error for CertError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Certificate {
        Certificate {
            adt: "KvStore".into(),
            partitioner: "KvKeyPartitioner".into(),
            depth: 4,
            alphabet: 8,
            classified: 8,
            keys: 2,
            states: 100,
            projection_checks: 800,
            commutation_checks: 1600,
            content_hash: String::new(),
        }
        .sealed()
    }

    #[test]
    fn sealed_certificates_verify_and_tampering_breaks_them() {
        let cert = sample();
        assert!(cert.verify());
        let mut bad = cert.clone();
        bad.depth = 5;
        assert!(!bad.verify());
    }

    #[test]
    fn json_is_stable_and_roundtrips_the_hash() {
        let cert = sample();
        assert_eq!(cert.to_json(), cert.to_json());
        assert!(cert.to_json().contains(&cert.content_hash));
        assert!(cert.to_json().ends_with("}\n"));
    }

    #[test]
    fn short_type_name_takes_last_segment() {
        assert_eq!(short_type_name::<Certificate>(), "Certificate");
        assert_eq!(short_type_name::<u32>(), "u32");
    }

    fn sample_switch() -> SwitchCert {
        SwitchCert {
            adt: "KvStore".into(),
            partitioner: "KvKeyPartitioner".into(),
            rinit: "ExactInit".into(),
            depth: 3,
            alphabet: 8,
            switch_values: 73,
            classified: 8,
            keys: 2,
            states: 50,
            projection_checks: 400,
            commutation_checks: 900,
            content_hash: String::new(),
        }
        .sealed()
    }

    #[test]
    fn switch_certs_seal_verify_and_serialize_stably() {
        let cert = sample_switch();
        assert!(cert.verify());
        assert!(cert.to_json().contains("\"schema\": \"slin-cert/v2\""));
        assert!(cert.to_json().contains("\"rinit\": \"ExactInit\""));
        assert!(cert.to_json().ends_with("}\n"));
        assert_eq!(cert.file_name(), "KvStore__KvKeyPartitioner__switch.json");
        let mut bad = cert;
        bad.switch_values = 1;
        assert!(!bad.verify());
    }
}
