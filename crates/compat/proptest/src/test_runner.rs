//! The deterministic test runner: pinned seed, per-case RNG, no shrinking.

/// The pinned base seed all `cargo test` runs use by default, making the
/// generated corpus a reproducible regression suite (override with the
/// `PROPTEST_RNG_SEED` environment variable to explore a fresh corpus).
pub const PINNED_SEED: u64 = 0x5EED_1205_2012_0001;

/// Why a single generated case failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestCaseError {
    /// An assertion failed with the given message.
    Fail(String),
}

impl TestCaseError {
    /// Builds a failure from a message.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError::Fail(message.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "{m}"),
        }
    }
}

/// Configuration of a property test (the subset the workspace uses).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` generated cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// The pseudo-random source handed to strategies (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Creates a generator from a 64-bit seed.
    pub fn from_seed(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// The next pseudo-random 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        self.next_u64() % bound
    }
}

/// Drives the cases of one property test.
pub struct TestRunner {
    config: ProptestConfig,
    base_seed: u64,
}

impl TestRunner {
    /// Creates a runner with the given configuration; the base seed comes
    /// from `PROPTEST_RNG_SEED` or [`PINNED_SEED`].
    pub fn new(config: ProptestConfig) -> Self {
        let base_seed = std::env::var("PROPTEST_RNG_SEED")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(PINNED_SEED);
        TestRunner { config, base_seed }
    }

    /// Runs every case; panics (failing the enclosing `#[test]`) on the
    /// first case whose closure returns an error.
    pub fn run_cases<F>(&mut self, test_name: &str, mut case: F)
    where
        F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    {
        for index in 0..self.config.cases {
            let mut rng = TestRng::from_seed(case_seed(self.base_seed, test_name, index));
            if let Err(TestCaseError::Fail(message)) = case(&mut rng) {
                panic!(
                    "proptest `{test_name}` failed at case {index}/{} \
                     (base seed {:#x}; set PROPTEST_RNG_SEED to replay): {message}",
                    self.config.cases, self.base_seed,
                );
            }
        }
    }
}

/// Derives the per-case seed: a hash of base seed, test name and case index,
/// so distinct tests explore distinct corpora under the one pinned seed.
pub fn case_seed(base: u64, test_name: &str, index: u32) -> u64 {
    let mut h = base ^ 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
    }
    h = (h ^ index as u64).wrapping_mul(0x1000_0000_01b3);
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seeds_differ_across_tests_and_cases() {
        assert_ne!(case_seed(1, "a", 0), case_seed(1, "b", 0));
        assert_ne!(case_seed(1, "a", 0), case_seed(1, "a", 1));
        assert_eq!(case_seed(1, "a", 7), case_seed(1, "a", 7));
    }

    #[test]
    #[should_panic(expected = "failed at case 3")]
    fn runner_reports_failing_case_index() {
        let mut runner = TestRunner::new(ProptestConfig::with_cases(10));
        let mut n = 0u32;
        runner.run_cases("runner_reports_failing_case_index", |_| {
            n += 1;
            if n == 4 {
                Err(TestCaseError::fail("boom"))
            } else {
                Ok(())
            }
        });
    }
}
