//! The one-command front end: run every workload, print every metric by
//! name with its unit, print the ledger, write `out/result.json` — and
//! `--compare` two such files.
//!
//! Each (workload, rep) is one child process of this same binary, so a
//! workload's peak RSS is its own, and reps are interleaved across
//! workloads so that slow machine noise does not line up with one of
//! them.

use crate::json::Json;
use crate::ledger::ROWS;
use crate::metrics::{BOUNDS, END_TO_END, PER_LAYER};
use crate::stats::{median, spread_frac};
use crate::workloads::Workload;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Schema tag of `out/result.json`.
pub const SCHEMA: &str = "slin-benchmark-result/v1";

/// Where run artefacts go: `benchmark/out/` of the checkout the binary is
/// run from, else of the checkout it was built in.
pub fn out_dir() -> PathBuf {
    let here = Path::new("benchmark");
    if here.join("Cargo.toml").is_file() {
        here.join("out")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// Options of the all-workloads run.
pub struct AllArgs {
    pub seed: u64,
    pub reps: usize,
    pub seconds: f64,
    pub quick: bool,
}

/// Six significant digits, never an exponent: set-up is microseconds,
/// throughput tens of thousands.
fn sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let decimals = (5 - v.abs().log10().floor() as i32).clamp(0, 12) as usize;
    format!("{v:.decimals$}")
}

/// One child run: this binary in contract mode; returns its result line.
fn child(w: Workload, seed: u64, seconds: f64, trace: bool, quick: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child, so no process outlives this call.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {}: {e}", w.name()))?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!("{} exited with {}", w.name(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{} printed no result", w.name()))?;
    Json::parse(line).map_err(|e| format!("{}: bad result line: {e}", w.name()))
}

fn metric_of(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Runs every workload (`reps` untraced runs each, interleaved, then one
/// traced run each), prints every metric and the ledger, and returns the
/// `result.json` document and whether every output was correct.
pub fn run_all(args: &AllArgs) -> Result<(Json, bool), String> {
    let mut untraced: Vec<Vec<Json>> = vec![Vec::new(); Workload::ALL.len()];
    for rep in 0..args.reps {
        for (k, w) in Workload::ALL.into_iter().enumerate() {
            eprintln!("== {} rep {}/{}", w.name(), rep + 1, args.reps);
            untraced[k].push(child(w, args.seed, args.seconds, false, args.quick)?);
        }
    }
    let mut traced = Vec::new();
    for w in Workload::ALL {
        eprintln!("== {} traced", w.name());
        traced.push(child(w, args.seed, args.seconds, true, args.quick)?);
    }

    let mut all_correct = true;
    let mut doc = Vec::new();
    println!(
        "END-TO-END (tracing off; median of {} runs, each best-of-passes)",
        args.reps
    );
    for (k, w) in Workload::ALL.into_iter().enumerate() {
        let (mut attempted, mut failed) = (0.0, 0.0);
        for run in untraced[k].iter().chain([&traced[k]]) {
            attempted += run.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
            failed += run.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            all_correct &= run.get("correct") == Some(&Json::Bool(true));
        }
        println!(
            "  {:<18} failed_frac = {} ({failed} of {attempted} units)",
            w.name(),
            if attempted > 0.0 {
                failed / attempted
            } else {
                1.0
            }
        );
        let mut e2e = Vec::new();
        for (name, unit, better) in END_TO_END {
            let runs: Vec<f64> = untraced[k]
                .iter()
                .filter_map(|r| metric_of(r, name))
                .collect();
            if runs.len() != untraced[k].len() {
                return Err(format!("{}: a run did not report {name}", w.name()));
            }
            println!(
                "    {name:<16} {:>14} {unit:<4} ({better} is better; spread {:.3})",
                sig(median(&runs)),
                spread_frac(&runs)
            );
            e2e.push((
                name,
                Json::obj(vec![
                    ("value", Json::Num(median(&runs))),
                    ("unit", Json::str(unit)),
                    ("runs", Json::Arr(runs.into_iter().map(Json::Num).collect())),
                ]),
            ));
        }
        let mut layers = Vec::new();
        for (name, unit, _) in PER_LAYER {
            let value = metric_of(&traced[k], name)
                .ok_or_else(|| format!("{}: traced run did not report {name}", w.name()))?;
            layers.push((
                name,
                Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]),
            ));
        }
        doc.push((
            w.name(),
            Json::obj(vec![
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("end_to_end", Json::obj(e2e)),
                ("per_layer", Json::obj(layers)),
            ]),
        ));
    }

    println!("\nPER-LAYER (traced run and isolated replays; 0 = layer not exercised)");
    print!("  {:<40} {:<6}", "metric", "unit");
    for w in Workload::ALL {
        print!(" {:>17}", w.name());
    }
    println!();
    for (name, unit, _) in PER_LAYER {
        print!("  {name:<40} {unit:<6}");
        for run in &traced {
            print!(" {:>17}", sig(metric_of(run, name).unwrap_or(f64::NAN)));
        }
        println!();
    }

    println!("\nLEDGER (traced pass, ns per event by layer; rows + residue = end to end)");
    for (k, w) in Workload::ALL.into_iter().enumerate() {
        let get = |name: String| metric_of(&traced[k], &name).unwrap_or(0.0);
        let rows: Vec<String> = ROWS
            .iter()
            .map(|row| (row, get(format!("ledger.{row}_ns_per_event"))))
            .filter(|(_, v)| *v > 0.0)
            .map(|(row, v)| format!("{row} {v:.0}"))
            .collect();
        println!(
            "  {:<18} {} | e2e {:.0} ns/event, residue_frac {:.4}",
            w.name(),
            rows.join(" + "),
            get("ledger.e2e_ns_per_event".into()),
            get("ledger.residue_frac".into()),
        );
    }

    let doc = Json::obj(vec![
        ("schema", Json::str(SCHEMA)),
        ("seed", Json::Num(args.seed as f64)),
        ("quick", Json::Bool(args.quick)),
        ("reps", Json::Num(args.reps as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("workloads", Json::obj(doc)),
    ]);
    Ok((doc, all_correct))
}

/// The verdict of one (metric, workload) comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    Regressed,
    Unresolved,
}

/// Compares end-to-end runs `a` (base) and `b` of one metric: `b`'s
/// median may be worse than `a`'s by at most `bound` of `a`'s. Where
/// either side's run-to-run spread is wider than the bound the row is
/// unresolved, unless every run of `b` reads better than every run of `a`.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> (f64, Status) {
    let (ma, mb) = (median(a), median(b));
    let ratio = if ma != 0.0 { mb / ma } else { f64::NAN };
    let worsening = if higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let all_better = b.iter().all(|x| a.iter().all(|y| better(*x, *y)));
    let status = if worsening > bound {
        Status::Regressed
    } else if (spread_frac(a) > bound || spread_frac(b) > bound) && !all_better {
        Status::Unresolved
    } else {
        Status::Ok
    };
    (ratio, status)
}

fn runs_of(doc: &Json, workload: &str, kind: &str, name: &str) -> Option<Vec<f64>> {
    let metric = doc.get("workloads")?.get(workload)?.get(kind)?.get(name)?;
    match metric.get("runs") {
        Some(Json::Arr(runs)) => runs.iter().map(Json::as_f64).collect(),
        _ => Some(vec![metric.get("value")?.as_f64()?]),
    }
}

/// `--compare A.json B.json`: one row per (metric, workload) with both
/// values, the ratio with its base, the bound, and the verdict. Returns
/// whether any row regressed.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("{path}: not a {SCHEMA} document"));
        }
        Ok(doc)
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut regressed = false;
    println!("END-TO-END: B = {b_path} against base A = {a_path}");
    println!(
        "  {:<18} {:<16} {:>14} {:>14} {:>16} {:>6}  verdict",
        "workload", "metric", "A", "B", "B/A (base A)", "bound"
    );
    for w in Workload::ALL {
        for ((name, unit, better), bound) in END_TO_END.iter().zip(BOUNDS) {
            let (Some(ra), Some(rb)) = (
                runs_of(&a, w.name(), "end_to_end", name),
                runs_of(&b, w.name(), "end_to_end", name),
            ) else {
                println!("  {:<18} {name:<16} missing on one side", w.name());
                continue;
            };
            let (ratio, status) = judge(&ra, &rb, *better == "higher", bound);
            regressed |= status == Status::Regressed;
            println!(
                "  {:<18} {name:<16} {:>14} {:>14} {:>9.4} of {:<4} {bound:>6}  {}",
                w.name(),
                sig(median(&ra)),
                sig(median(&rb)),
                ratio,
                unit,
                match status {
                    Status::Ok => "ok",
                    Status::Regressed => "regressed",
                    Status::Unresolved => "unresolved",
                }
            );
        }
    }
    println!("\nPER-LAYER (no bound; ratio B/A with A as base)");
    for (name, unit, _) in PER_LAYER {
        for w in Workload::ALL {
            let (Some(ra), Some(rb)) = (
                runs_of(&a, w.name(), "per_layer", name),
                runs_of(&b, w.name(), "per_layer", name),
            ) else {
                continue;
            };
            if ra[0] == 0.0 && rb[0] == 0.0 {
                continue;
            }
            println!(
                "  {:<18} {name:<40} {:>14} {:>14} {unit:<6} {:>9.4}",
                w.name(),
                sig(ra[0]),
                sig(rb[0]),
                rb[0] / ra[0]
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_the_bound_and_the_spread_rule() {
        let steady = [100.0, 101.0, 99.0, 100.0];
        // 5 % slower throughput inside a 10 % bound.
        let (ratio, status) = judge(&steady, &[95.0, 96.0, 94.0, 95.0], true, 0.10);
        assert!((ratio - 0.95).abs() < 1e-9);
        assert_eq!(status, Status::Ok);
        // 20 % slower: regressed.
        assert_eq!(
            judge(&steady, &[80.0, 81.0, 79.0, 80.0], true, 0.10).1,
            Status::Regressed
        );
        // Latency 20 % higher is a regression too (lower is better).
        assert_eq!(
            judge(&steady, &[120.0, 121.0, 119.0, 120.0], false, 0.10).1,
            Status::Regressed
        );
        // Noisy base, overlapping runs: unresolved, not unchanged.
        let noisy = [80.0, 100.0, 120.0, 140.0];
        assert_eq!(
            judge(&noisy, &[90.0, 100.0, 110.0, 120.0], true, 0.10).1,
            Status::Unresolved
        );
        // Noisy base but every B run beats every A run: resolved.
        assert_eq!(
            judge(&noisy, &[150.0, 160.0, 170.0, 180.0], true, 0.10).1,
            Status::Ok
        );
    }
}
