//! B6 — the online monitor's streaming load table.
//!
//! `cargo bench -p slin-bench --bench streaming` drives bounded-window
//! `Strategy::Streaming` sessions over multi-key KV event streams (keys × skew, plus a
//! hot-key control) and prints sustained events/sec, p99 ingest latency,
//! and the deterministic fallback/GC columns.

use slin_bench::{
    hostile_rows, multitenant_rows, obs_rows, render_table, streaming_rows, HOSTILE_HEADER,
    MULTITENANT_HEADER, OBS_HEADER, STREAMING_HEADER, STREAMING_SEEDS,
};

fn main() {
    let rows: Vec<Vec<String>> = streaming_rows(&STREAMING_SEEDS)
        .iter()
        .map(|r| r.cells())
        .collect();
    println!("\nB6 — online monitor streaming load (events/sec, p99 ingest latency)");
    println!("{}", render_table(&STREAMING_HEADER, &rows));
    let rows: Vec<Vec<String>> = hostile_rows(&STREAMING_SEEDS)
        .iter()
        .map(|r| r.cells())
        .collect();
    println!("B6h — epoch-GC monitor on hostile never-quiescent streams (vs window size)");
    println!("{}", render_table(&HOSTILE_HEADER, &rows));
    let rows: Vec<Vec<String>> = multitenant_rows(&STREAMING_SEEDS)
        .iter()
        .map(|r| r.cells())
        .collect();
    println!("B8 — multi-tenant daemon pipeline under Zipf tenant skew");
    println!("{}", render_table(&MULTITENANT_HEADER, &rows));
    let rows: Vec<Vec<String>> = obs_rows(&STREAMING_SEEDS)
        .iter()
        .map(|r| r.cells())
        .collect();
    println!("B9 — observer overhead (noop vs instrumented) and witness-archive bound");
    println!("{}", render_table(&OBS_HEADER, &rows));
}
