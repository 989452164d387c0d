//! `slin-benchmark` — the repo benchmark: bytes / events / traces in,
//! verdict out, over five workloads, with a per-layer ledger.
//!
//! ```text
//! slin-benchmark --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result
//! slin-benchmark [--seed N] [--reps R] [--seconds S] [--quick]   every workload, every metric, the ledger
//! slin-benchmark --compare A.json B.json                          per (metric, workload) verdicts
//! slin-benchmark --selftest                                       the oracle's negative control
//! slin-benchmark --write-expected                                 regenerate expected/seed0.json
//! ```
//!
//! See `benchmark/README.md` for every metric and workload.

mod alloc;
mod drive;
mod json;
mod layers;
mod ledger;
mod measure;
mod metrics;
mod observer;
mod oracle;
mod report;
mod spans;
mod stats;
mod workloads;

use measure::{traced, untraced, RunArgs};
use std::process::ExitCode;
use workloads::{generate, Scale, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// `run_seconds` of `BENCHMARK.json`: what one run measures for when
/// `--seconds` is not given.
const RUN_SECONDS: f64 = 15.0;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    reps: Option<usize>,
    quick: bool,
    compare: Option<(String, String)>,
    selftest: bool,
    write_expected: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 0,
        seconds: None,
        trace: false,
        reps: None,
        quick: false,
        compare: None,
        selftest: false,
        write_expected: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--reps" => {
                let r: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                if r == 0 {
                    return Err("--reps must be at least 1".into());
                }
                cli.reps = Some(r);
            }
            "--quick" => cli.quick = true,
            "--compare" => cli.compare = Some((value("two files")?, value("two files")?)),
            "--selftest" => cli.selftest = true,
            "--write-expected" => cli.write_expected = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn write_out(name: &str, contents: &str) -> Result<std::path::PathBuf, String> {
    let dir = report::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// One run of one workload, as the driver asks for it.
fn contract_run(cli: &Cli, name: &str) -> Result<ExitCode, String> {
    let workload = Workload::parse(name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    let args = RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(RUN_SECONDS),
        scale: if cli.quick { Scale::Quick } else { Scale::Full },
        perturb: false,
    };
    let result = if cli.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    for note in &result.notes {
        eprintln!("[{}] {note}", workload.name());
    }
    if let Some(ledger) = &result.ledger {
        let rows: Vec<String> = ledger
            .rows
            .iter()
            .filter(|(_, v)| *v > 0.0)
            .map(|(name, v)| format!("{name} {v:.0}"))
            .collect();
        eprintln!(
            "[{}] ledger ns/event: {} | e2e {:.0}, residue_frac {:.4}",
            workload.name(),
            rows.join(" + "),
            ledger.e2e_ns_per_event,
            ledger.residue_frac
        );
    }
    if let Some(trace) = &result.trace {
        let path = write_out(&format!("{}.trace.json", workload.name()), &trace.compact())?;
        eprintln!("[{}] spans written to {}", workload.name(), path.display());
    }
    if !result.correct() {
        eprintln!(
            "[{}] {} of {} units FAILED the oracle",
            workload.name(),
            result.failed,
            result.attempted
        );
    }
    println!("{}", result.result_line());
    Ok(ExitCode::SUCCESS)
}

/// The negative control: on every workload, a clean quick run must report
/// no failure and the same run with one perturbed output must report one.
fn selftest() -> ExitCode {
    let mut ok = true;
    for workload in Workload::ALL {
        let mut args = RunArgs {
            workload,
            seed: 1,
            seconds: 0.2,
            scale: Scale::Quick,
            perturb: false,
        };
        let clean = untraced(&args);
        args.perturb = true;
        let perturbed = untraced(&args);
        let frac = |r: &measure::RunResult| r.failed as f64 / r.attempted as f64;
        let pass = clean.failed == 0 && perturbed.failed > 0;
        ok &= pass;
        println!(
            "{:<18} failed_frac clean = {}, perturbed = {:.6} ({} of {})  {}",
            workload.name(),
            frac(&clean),
            frac(&perturbed),
            perturbed.failed,
            perturbed.attempted,
            if pass { "ok" } else { "SELFTEST FAILED" }
        );
    }
    if ok {
        println!("selftest ok: a perturbed output drives failed_frac above 0 on every workload");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run() -> Result<ExitCode, String> {
    let cli = parse_cli()?;
    if let Some((a, b)) = &cli.compare {
        let regressed = report::compare(a, b)?;
        return Ok(if regressed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }
    if cli.selftest {
        return Ok(selftest());
    }
    if cli.write_expected {
        let all: Vec<_> = Workload::ALL
            .into_iter()
            .map(|w| (w, generate(w, 0, Scale::Full)))
            .collect();
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("expected/seed0.json");
        std::fs::write(&path, oracle::seed0_document(&all).pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {} (rebuild to embed it)", path.display());
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(name) = &cli.workload {
        return contract_run(&cli, name);
    }
    let args = report::AllArgs {
        seed: cli.seed,
        reps: cli.reps.unwrap_or(if cli.quick { 1 } else { 3 }),
        seconds: cli
            .seconds
            .unwrap_or(if cli.quick { 0.5 } else { RUN_SECONDS }),
        quick: cli.quick,
    };
    let (doc, correct) = report::run_all(&args)?;
    let path = write_out("result.json", &doc.pretty())?;
    println!("\nwrote {}", path.display());
    if !correct {
        eprintln!("some outputs FAILED the oracle (failed_frac > 0 above)");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("slin-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
