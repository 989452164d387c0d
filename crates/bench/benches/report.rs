//! The machine-readable bench pipeline.
//!
//! `cargo bench -p slin-bench --bench report -- --json` (or setting
//! `BENCH_OUT=<path>`) writes the full B-series report as JSON —
//! `BENCH.json` at the repository root by default — for CI to upload
//! as an artifact and diff against the committed baseline
//! (`ci/bench_threshold.py`). Without `--json`/`BENCH_OUT` it prints the
//! B5 partition-speedup and B10 phase-trace tables for humans.

use slin_bench::{bench_report_json, partition_speedup_rows, phase_partition_rows, render_table};
use slin_bench::{PARTITION_HEADER, PARTITION_SEEDS, PHASE_PARTITION_HEADER, PHASE_SEEDS};

/// `BENCH.json` at the repository root, resolved relative to this
/// crate so the artifact lands in the same place no matter where cargo
/// runs the bench from.
fn default_out_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH.json")
}

fn main() {
    let json_flag = std::env::args().any(|a| a == "--json");
    let out_env = std::env::var_os("BENCH_OUT");
    if json_flag || out_env.is_some() {
        let path = out_env
            .map(std::path::PathBuf::from)
            .unwrap_or_else(default_out_path);
        let report = bench_report_json();
        std::fs::write(&path, report)
            .unwrap_or_else(|e| panic!("failed to write bench report to {}: {e}", path.display()));
        println!("wrote {}", path.display());
        return;
    }
    let rows: Vec<Vec<String>> = partition_speedup_rows(&PARTITION_SEEDS)
        .iter()
        .map(|r| r.cells())
        .collect();
    println!("\nB5 — partitioned vs monolithic checking (node counts)");
    println!("{}", render_table(&PARTITION_HEADER, &rows));
    let rows: Vec<Vec<String>> = phase_partition_rows(&PHASE_SEEDS)
        .iter()
        .map(|r| r.cells())
        .collect();
    println!("\nB10 — switch-certified keyed checking on phase traces (node counts)");
    println!("{}", render_table(&PHASE_PARTITION_HEADER, &rows));
    println!("(--json or BENCH_OUT=<path> writes the machine-readable report)");
}
