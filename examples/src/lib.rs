//! Example binaries live in examples/src/bin/; [`paper_figures`] holds the
//! rows behind the one that reproduces the paper's performance claims.

pub mod paper_figures;

/// The claims themselves, stated over the rows the committed table shows.
#[cfg(test)]
mod tests {
    use crate::paper_figures::*;

    #[test]
    fn b1_shape_fast_path_beats_paxos_everywhere() {
        for row in latency_rows() {
            let (Some(fast), Some(slow)) = (row.composed, row.paxos) else {
                panic!("undecided run in fault-free scenario: {row:?}");
            };
            assert_eq!(fast, 2, "n={}", row.servers);
            assert!(slow >= 3, "n={}", row.servers);
            assert!(fast < slow, "n={}", row.servers);
        }
    }

    #[test]
    fn b2_shape_loss_erodes_the_fast_path() {
        let rows = crossover_rows();
        let (lossless, lossy) = (&rows[0], &rows[4]);
        assert_eq!((lossless.x, lossy.x), (0, 30));
        // Without loss the composed protocol is strictly faster…
        assert!(lossless.composed_mean < lossless.paxos_mean, "{rows:?}");
        assert_eq!(lossless.fallback_rate, 0.0);
        // …and heavy loss triggers fallbacks, degrading it toward (or past)
        // pure Paxos.
        assert!(lossy.fallback_rate > 0.0, "{rows:?}");
        assert!(
            lossy.composed_mean > lossless.composed_mean,
            "loss should increase composed latency: {rows:?}"
        );
    }

    #[test]
    fn b4b_shape_chains_keep_the_common_case_fast() {
        let rows = phase_chain_rows();
        for row in &rows {
            // The fault-free fast path stays at 2 message delays no matter
            // how long the chain — added phases are pay-per-use.
            assert_eq!(row.fault_free_latency, Some(2), "{row:?}");
            // Chaining stays linear, never quadratic: a retried fast phase
            // can even *save* messages versus falling straight into Paxos
            // (transient contention resolves), so we only bound the growth.
            assert!(row.messages_mean <= rows[0].messages_mean * 2.0, "{rows:?}");
        }
    }

    #[test]
    fn table_rendering_aligns_columns() {
        let s = render_table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["10".into(), "20".into()]],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    fn report_equals_the_committed_table() {
        assert_eq!(report(), include_str!("../expected/paper_figures.txt"));
    }
}
