//! `slin-analyze` — certify the shipped partitioners and write their
//! certificates.
//!
//! ```text
//! slin-analyze                       # certify the four shipped pairs, write
//!                                    # their eight files to analysis/certs/
//! ```
//!
//! Options: `--depth N` (exploration depth, default 4), `--out DIR`
//! (certificate directory, default `analysis/certs` under the workspace
//! root, inferred from the crate location).
//!
//! Exit status is non-zero if a shipped partitioner fails to certify.
//! Tier-1 (`tests/tests/static_certification.rs`) compares what this
//! writes with the committed files, and owns the negative fixtures.

use slin_adt::{
    CounterVecPartitioner, CounterVector, DomainSpec, KvKeyPartitioner, KvStore, Partitioner,
    RegArrayPartitioner, RegisterArray, Set, SetElemPartitioner,
};
use slin_analysis::{
    certify, certify_switch, AnalyzeConfig, Counterexample, Failure, SwitchCounterexample,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Options {
    depth: usize,
    out: PathBuf,
}

fn default_out() -> PathBuf {
    // <root>/crates/analysis -> <root>/analysis/certs
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate lives two levels under the workspace root")
        .join("analysis")
        .join("certs")
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        depth: AnalyzeConfig::default().depth,
        out: default_out(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--depth" => {
                let v = args.next().ok_or("--depth needs a value")?;
                opts.depth = v.parse().map_err(|_| format!("bad depth `{v}`"))?;
            }
            "--out" => opts.out = PathBuf::from(args.next().ok_or("--out needs a value")?),
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(opts)
}

fn print_help() {
    println!("slin-analyze: certify the shipped partitioners and write their certificates");
    println!();
    println!("  --depth N    exploration depth (default 4)");
    println!("  --out DIR    certificate directory (default: the workspace's analysis/certs)");
}

/// Why a pair did not certify, for either contract.
fn explain<C>(failure: Failure<C>, render: impl FnOnce(&C) -> String) -> String {
    match failure {
        Failure::Unsound(cex) => render(&cex),
        Failure::StateSpaceExceeded { explored } => {
            format!("state space exceeded ({explored} signatures)")
        }
    }
}

/// Certifies one shipped pair: its partitioner certificate (`slin-cert/v1`)
/// and its switch-independence one (`slin-cert/v2`), as `(file, JSON)`.
fn certify_pair<T, P>(adt: &T, p: &P, cfg: &AnalyzeConfig) -> Result<[(String, String); 2], String>
where
    T: DomainSpec + std::fmt::Debug,
    P: Partitioner<T>,
{
    let v1 = certify(adt, p, cfg).map_err(|e| explain(e, Counterexample::render))?;
    println!(
        "  certified {} / {} (depth {}, {} states, {} checks) {}",
        v1.adt,
        v1.partitioner,
        v1.depth,
        v1.states,
        v1.projection_checks + v1.commutation_checks,
        v1.content_hash,
    );
    let v2 = certify_switch(adt, p, cfg).map_err(|e| explain(e, SwitchCounterexample::render))?;
    println!(
        "  certified {} / {} / {} (depth {}, {} switch values, {} states) {}",
        v2.adt, v2.partitioner, v2.rinit, v2.depth, v2.switch_values, v2.states, v2.content_hash,
    );
    Ok([
        (v1.file_name(), v1.to_json()),
        (v2.file_name(), v2.to_json()),
    ])
}

fn run(opts: &Options) -> Result<(), String> {
    let cfg = AnalyzeConfig {
        depth: opts.depth,
        ..AnalyzeConfig::default()
    };
    println!("certifying shipped partitioners (depth {}):", cfg.depth);
    let files = [
        certify_pair(&KvStore, &KvKeyPartitioner, &cfg)?,
        certify_pair(&Set, &SetElemPartitioner, &cfg)?,
        certify_pair(&RegisterArray, &RegArrayPartitioner, &cfg)?,
        certify_pair(&CounterVector, &CounterVecPartitioner, &cfg)?,
    ]
    .concat();

    let out_dir = &opts.out;
    let io = |e: std::io::Error| format!("i/o error: {e}");
    std::fs::create_dir_all(out_dir).map_err(io)?;
    for (name, json) in &files {
        std::fs::write(out_dir.join(name), json).map_err(io)?;
    }
    println!(
        "wrote {} certificates to {}",
        files.len(),
        out_dir.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|opts| run(&opts)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("slin-analyze: {msg}");
            ExitCode::FAILURE
        }
    }
}
