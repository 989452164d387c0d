//! The paper's performance claims as one table.
//!
//! The paper has no empirical tables — its performance statements are
//! analytic: Quorum decides in 2 message delays where Paxos needs 3+
//! (Section 2.1), speculation stops paying off as faults or contention
//! grow (Section 1), no CAS without contention (Section 2.5), phases
//! chain without touching each other (Section 1). Each claim is
//! reproduced here in *simulated* time (unit message delay), so every
//! figure is a pure function of the pinned seeds:
//!
//! * [`latency_rows`] — **B1**: fast-path vs backup decision latency in
//!   message delays, across server counts;
//! * [`crossover_rows`] — **B2**: composed protocol vs pure Paxos as the
//!   message-loss rate grows;
//! * [`contention_rows`] — **B2b**: the same crossover under client
//!   contention;
//! * [`sequential_cas_rows`] — **B3**: CAS operations of the composed
//!   shared-memory object on contention-free runs;
//! * [`phase_chain_rows`] — **B4b**: latency and message cost of chaining
//!   extra fast phases.
//!
//! [`report`] renders them; `cargo run -p slin-examples --bin
//! paper_figures` prints it, and `examples/expected/paper_figures.txt` is
//! the committed copy a test compares byte for byte.

use slin_consensus::harness::{run_scenario, RunOutcome, Scenario};
use slin_shmem::harness::{run_concurrent, Workload};
use slin_sim::Time;

/// One row of the fast-path latency table (B1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyRow {
    /// Number of servers.
    pub servers: usize,
    /// Fast-path (Quorum + Backup) decision latency, message delays.
    pub composed: Option<Time>,
    /// Pure-Paxos decision latency, message delays.
    pub paxos: Option<Time>,
    /// Messages sent by the composed protocol.
    pub composed_msgs: usize,
    /// Messages sent by pure Paxos.
    pub paxos_msgs: usize,
}

/// B1: single fault-free client, unit delays, 3 to 9 servers — the
/// paper's headline "2 message delays instead of 3+" (our client-driven
/// Paxos takes 4: two round trips).
pub fn latency_rows() -> Vec<LatencyRow> {
    [3usize, 5, 7, 9]
        .iter()
        .map(|&servers| {
            let fast = run_scenario(&Scenario::fault_free(servers, &[(5, 0)]));
            let slow = run_scenario(&Scenario::pure_paxos(servers, &[(5, 0)]));
            LatencyRow {
                servers,
                composed: fast.latencies[0].1,
                paxos: slow.latencies[0].1,
                composed_msgs: fast.messages,
                paxos_msgs: slow.messages,
            }
        })
        .collect()
}

/// One row of a crossover sweep (B2, B2b).
#[derive(Debug, Clone, PartialEq)]
pub struct CrossoverRow {
    /// The swept parameter (drop probability ×100, or client count).
    pub x: u64,
    /// Mean decision latency of the composed protocol over the seeds
    /// (undecided runs excluded).
    pub composed_mean: f64,
    /// Mean decision latency of pure Paxos.
    pub paxos_mean: f64,
    /// Fraction of composed-protocol clients that needed the backup.
    pub fallback_rate: f64,
}

fn mean_latency(outs: &[RunOutcome]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for o in outs {
        for (_, l) in &o.latencies {
            if let Some(l) = l {
                sum += *l as f64;
                n += 1;
            }
        }
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

fn fallback_rate(outs: &[RunOutcome]) -> f64 {
    let mut switched = 0usize;
    let mut total = 0usize;
    for o in outs {
        total += o.latencies.len();
        switched += o
            .trace
            .iter()
            .filter(|a| a.is_switch() && a.phase().value() == 2)
            .count();
    }
    if total == 0 {
        0.0
    } else {
        switched as f64 / total as f64
    }
}

/// B2: decision latency as the message-drop probability grows from 0 to
/// 40 %, composed protocol vs pure Paxos (3 servers, 1 client, 20 seeds
/// per point).
pub fn crossover_rows() -> Vec<CrossoverRow> {
    [0u64, 5, 10, 20, 30, 40]
        .iter()
        .map(|&pct| {
            let drop = pct as f64 / 100.0;
            let composed: Vec<_> = (0..20)
                .map(|s| run_scenario(&Scenario::fault_free(3, &[(7, 0)]).with_loss(drop, s)))
                .collect();
            let paxos: Vec<_> = (0..20)
                .map(|s| run_scenario(&Scenario::pure_paxos(3, &[(7, 0)]).with_loss(drop, s)))
                .collect();
            CrossoverRow {
                x: pct,
                composed_mean: mean_latency(&composed),
                paxos_mean: mean_latency(&paxos),
                fallback_rate: fallback_rate(&composed),
            }
        })
        .collect()
}

/// B2b: decision latency as 1 to 4 clients contend (3 servers, random
/// delays 1–4, 15 seeds per point).
pub fn contention_rows() -> Vec<CrossoverRow> {
    [1u64, 2, 3, 4]
        .iter()
        .map(|&k| {
            let values: Vec<u64> = (1..=k).collect();
            let composed: Vec<_> = (0..15)
                .map(|s| run_scenario(&Scenario::contended(3, &values, s)))
                .collect();
            let paxos: Vec<_> = (0..15)
                .map(|s| run_scenario(&Scenario::contended(3, &values, s).with_fast_phases(0)))
                .collect();
            CrossoverRow {
                x: k,
                composed_mean: mean_latency(&composed),
                paxos_mean: mean_latency(&paxos),
                fallback_rate: fallback_rate(&composed),
            }
        })
        .collect()
}

/// B3: `(threads, CAS operations)` of the composed RCons + CASCons object
/// when 1 to 8 threads propose one after another. The concurrent count
/// depends on the schedule and is not a figure; `shmem_e2e.rs` covers it.
pub fn sequential_cas_rows() -> Vec<(u32, usize)> {
    [1u32, 2, 4, 8]
        .iter()
        .map(|&threads| {
            let out = run_concurrent(&Workload::sequential(threads));
            (threads, out.cas_count)
        })
        .collect()
}

/// One row of the phase-chain table (B4b).
#[derive(Debug, Clone, PartialEq)]
pub struct ChainRow {
    /// Number of Quorum fast phases before the Paxos backup.
    pub fast_phases: u32,
    /// Mean decision latency under contention.
    pub latency_mean: f64,
    /// Mean messages per run.
    pub messages_mean: f64,
    /// Fault-free (sequential) latency — chaining must not slow the
    /// common case.
    pub fault_free_latency: Option<Time>,
}

/// B4b: the cost of chaining 1 to 4 speculation phases (3 servers; the
/// contended columns are 2 racing clients over 12 seeds).
pub fn phase_chain_rows() -> Vec<ChainRow> {
    const SEEDS: u64 = 12;
    [1u32, 2, 3, 4]
        .iter()
        .map(|&fast| {
            let outs: Vec<_> = (0..SEEDS)
                .map(|s| run_scenario(&Scenario::contended(3, &[1, 2], s).with_fast_phases(fast)))
                .collect();
            let msgs = outs.iter().map(|o| o.messages as f64).sum::<f64>() / SEEDS as f64;
            let fault_free =
                run_scenario(&Scenario::fault_free(3, &[(5, 0)]).with_fast_phases(fast));
            ChainRow {
                fast_phases: fast,
                latency_mean: mean_latency(&outs),
                messages_mean: msgs,
                fault_free_latency: fault_free.latencies[0].1,
            }
        })
        .collect()
}

/// Renders rows as an aligned text table.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (k, cell) in row.iter().enumerate() {
            widths[k] = widths[k].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(
        &header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

fn crossover_cells(r: &CrossoverRow, x: String) -> Vec<String> {
    vec![
        x,
        format!("{:.2}", r.composed_mean),
        format!("{:.2}", r.paxos_mean),
        format!("{:.0}%", r.fallback_rate * 100.0),
    ]
}

/// Every figure, titled, as the binary prints it.
pub fn report() -> String {
    let section = |title: &str, header: &[&str], rows: Vec<Vec<String>>| {
        format!("{title}\n{}", render_table(header, &rows))
    };
    let b1 = section(
        "B1 — decision latency (message delays), fault-free single client",
        &[
            "servers",
            "quorum+backup",
            "pure paxos",
            "msgs(fast)",
            "msgs(paxos)",
        ],
        latency_rows()
            .iter()
            .map(|r| {
                vec![
                    r.servers.to_string(),
                    r.composed.expect("fault-free runs decide").to_string(),
                    r.paxos.expect("fault-free runs decide").to_string(),
                    r.composed_msgs.to_string(),
                    r.paxos_msgs.to_string(),
                ]
            })
            .collect(),
    );
    let b2 = section(
        "B2 — mean decision latency vs message loss (3 servers, 20 seeds)",
        &["loss", "quorum+backup", "pure paxos", "fallback"],
        crossover_rows()
            .iter()
            .map(|r| crossover_cells(r, format!("{}%", r.x)))
            .collect(),
    );
    let b2b = section(
        "B2b — mean decision latency vs contending clients (3 servers, 15 seeds)",
        &["clients", "quorum+backup", "pure paxos", "fallback"],
        contention_rows()
            .iter()
            .map(|r| crossover_cells(r, r.x.to_string()))
            .collect(),
    );
    let b3 = section(
        "B3 — CAS operations per sequential run (composed RCons+CASCons)",
        &["threads", "cas"],
        sequential_cas_rows()
            .iter()
            .map(|(threads, cas)| vec![threads.to_string(), cas.to_string()])
            .collect(),
    );
    let b4b = section(
        "B4b — chained fast phases (3 servers; contended = 2 clients, 12 seeds)",
        &[
            "fast phases",
            "fault-free latency",
            "contended latency",
            "msgs",
        ],
        phase_chain_rows()
            .iter()
            .map(|r| {
                vec![
                    r.fast_phases.to_string(),
                    r.fault_free_latency
                        .expect("fault-free runs decide")
                        .to_string(),
                    format!("{:.2}", r.latency_mean),
                    format!("{:.1}", r.messages_mean),
                ]
            })
            .collect(),
    );
    [b1, b2, b2b, b3, b4b].join("\n")
}
