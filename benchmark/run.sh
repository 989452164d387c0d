#!/usr/bin/env bash
# Builds the benchmark harness (release, offline) and runs it, passing every
# argument through:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of stdout is the result
#       (this is the `command` of BENCHMARK.json)
#   benchmark/run.sh [--quick] [--seed N] [--reps R] [--seconds S]
#       every workload, every metric by name with its unit, the ledger;
#       writes benchmark/out/result.json
#   benchmark/run.sh --compare A.json B.json | --selftest | --write-expected
#
# The build goes to $CARGO_TARGET_DIR when set, else to the repo's already
# ignored target/. In a directory without the crates the harness measures
# the build fails and this script exits non-zero without printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/slin-benchmark" "$@"
