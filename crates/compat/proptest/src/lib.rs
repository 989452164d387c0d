//! Offline drop-in subset of the `proptest` crate.
//!
//! The workspace builds in environments with no access to crates.io, so this
//! stub reimplements the slice of proptest the workspace test suites use:
//!
//! * the [`strategy::Strategy`] trait with [`strategy::Strategy::prop_map`],
//!   implemented for integer ranges, tuples (up to 4), [`collection::vec()`],
//!   [`arbitrary::any`], and [`bool::ANY`];
//! * the [`proptest!`] macro with the `arg in strategy` binder syntax and
//!   the optional `#![proptest_config(...)]` header;
//! * [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assert_ne!`];
//! * a deterministic [`test_runner::TestRunner`] driven by the **pinned
//!   seed** [`test_runner::PINNED_SEED`], so every `cargo test` run explores
//!   the identical corpus (the upstream crate persists regression seeds in
//!   `proptest-regressions/`; here the whole corpus *is* the regression
//!   file). Set `PROPTEST_RNG_SEED=<u64>` to explore a different corpus
//!   locally.
//!
//! No shrinking is performed: on failure the runner reports the case index
//! and base seed, which — determinism — is enough to replay.

pub mod arbitrary;
pub mod bool;
pub mod collection;
pub mod strategy;
pub mod test_runner;

/// The conventional glob import, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRunner};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};

    /// Namespaced strategies, mirroring `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::bool;
        pub use crate::collection;
    }
}

/// Returns early from a proptest case with a failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Returns early from a proptest case when two values differ.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`\n{}",
            left,
            right,
            format!($($fmt)*)
        );
    }};
}

/// Returns early from a proptest case when two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `(left != right)`\n  both: `{:?}`",
            left
        );
    }};
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a deterministic multi-case test.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($config) $($rest)*);
    };
    (@with_config ($config:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident ( $( $arg:ident in $strategy:expr ),* $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $config;
                let mut runner = $crate::test_runner::TestRunner::new(config);
                runner.run_cases(stringify!($name), |rng| {
                    $(
                        let $arg =
                            $crate::strategy::Strategy::new_value(&($strategy), rng);
                    )*
                    $body
                    ::core::result::Result::Ok(())
                });
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(
            @with_config ($crate::test_runner::ProptestConfig::default()) $($rest)*
        );
    };
}
