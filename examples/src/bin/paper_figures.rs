//! The paper's performance claims (Sections 1, 2.1, 2.5) as one table, in
//! simulated time: B1 fast-path latency, B2/B2b where speculation stops
//! paying off, B3 no CAS without contention, B4b chained phases.
//!
//! Run with: `cargo run -p slin-examples --bin paper_figures`
//!
//! The output is deterministic; `examples/expected/paper_figures.txt` is
//! its committed copy.

fn main() {
    print!("{}", slin_examples::paper_figures::report());
}
