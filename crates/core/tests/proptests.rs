//! Property-based tests for the checkers and the definitional plumbing.

use proptest::prelude::*;
use slin_adt::{Adt, ConsInput, ConsOutput, Consensus, Counter, CounterInput, Value};
use slin_core::classical::ClassicalChecker;
use slin_core::compose::{project_object, project_phase};
use slin_core::gen::{random_linearizable_trace, random_perturbed_trace, GenConfig};
use slin_core::initrel::{CandidateContext, ConsensusInit, ExactInit, InitRelation};
use slin_core::invariants;
use slin_core::lin::{witness_is_valid, LinChecker};
use slin_core::ops;
use slin_core::session::{Checker, Strategy as SessionStrategy, Verdict};
use slin_core::slin::{SlinChecker, SlinError, SlinReport};
use slin_core::ObjAction;
use slin_trace::{Action, ClientId, PhaseId, Trace};

type CA = ObjAction<Consensus, Value>;

/// The `(m, n)` consensus phase check of `t` as one monolithic session
/// search, its init interpretations enumerated on at most `threads`
/// threads.
fn monolithic_at(
    (m, n): (u32, u32),
    threads: usize,
    t: &Trace<CA>,
) -> Verdict<SlinReport<ConsInput>, SlinError> {
    let chk = SlinChecker::owned(
        Consensus,
        ConsensusInit::new(),
        PhaseId::new(m),
        PhaseId::new(n),
    );
    Checker::builder(chk)
        .strategy(SessionStrategy::Monolithic)
        .threads(threads)
        .build()
        .check(t)
}

/// A strategy for well-formed single-shot consensus phase traces: every
/// client proposes once and then decides, switches, or stays pending.
fn phase_trace() -> impl Strategy<Value = Trace<CA>> {
    // Per client: (proposal, outcome) where outcome 0 = pending, 1 = decide
    // value v, 2 = switch value v; plus a shuffle seed.
    let client = (1..4u64, 0..3u8, 1..4u64);
    (prop::collection::vec(client, 1..4), any::<u64>()).prop_map(|(clients, seed)| {
        let mut events: Vec<(usize, CA)> = Vec::new();
        for (k, &(prop_v, outcome, out_v)) in clients.iter().enumerate() {
            let c = ClientId::new(k as u32 + 1);
            let input = ConsInput::propose(prop_v);
            events.push((2 * k, Action::invoke(c, PhaseId::new(1), input)));
            match outcome {
                1 => events.push((
                    2 * k + 1,
                    Action::respond(c, PhaseId::new(1), input, ConsOutput::decide(out_v)),
                )),
                2 => events.push((
                    2 * k + 1,
                    Action::switch(c, PhaseId::new(2), input, Value::new(out_v)),
                )),
                _ => {}
            }
        }
        // Deterministic shuffle preserving per-client order (stable sort by
        // a keyed hash of the position).
        let mut keyed: Vec<(u64, usize, CA)> = events
            .into_iter()
            .enumerate()
            .map(|(pos, (cpos, a))| {
                let key = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(pos as u64)
                    .rotate_left((pos % 13) as u32);
                (key, cpos, a)
            })
            .collect();
        keyed.sort_by_key(|(key, _, _)| *key);
        // Restore per-client causality: stable-sort by client-position of
        // each client's events only.
        let mut out: Vec<CA> = Vec::new();
        let mut placed: Vec<(usize, CA)> = keyed.into_iter().map(|(_, p, a)| (p, a)).collect();
        // Simple fix-up: repeatedly emit the earliest-unblocked event.
        while !placed.is_empty() {
            let mut best: Option<usize> = None;
            for (i, (p, a)) in placed.iter().enumerate() {
                let c = a.client();
                // An event is unblocked if no earlier event of the same
                // client remains.
                let blocked = placed.iter().any(|(p2, a2)| a2.client() == c && p2 < p);
                if !blocked {
                    best = Some(i);
                    break;
                }
            }
            let (_, a) = placed.remove(best.expect("some event is unblocked"));
            out.push(a);
        }
        Trace::from_actions(out)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The specialized O(n) consensus linearizability test agrees with the
    /// generic new-definition checker on the object projection.
    #[test]
    fn specialized_consensus_checker_agrees_with_generic(t in phase_trace()) {
        let obj = project_object::<Consensus, Value>(&t);
        if slin_trace::wf::is_well_formed(&obj) {
            let generic = LinChecker::owned(Consensus).check(&obj).is_ok();
            let fast = invariants::consensus_linearizable(&obj);
            prop_assert_eq!(generic, fast, "{:?}", obj);
        }
    }

    /// The SLin checker accepts exactly what the invariant abstraction
    /// promises on single-shot first-phase traces without late decides:
    /// I1 ∧ I2 ∧ I3 ⇒ SLin(1, 2) (the paper's Section 2.4 lemma).
    #[test]
    fn invariants_imply_first_phase_slin(t in phase_trace()) {
        if slin_trace::wf::is_phase_well_formed(&t, PhaseId::new(1), PhaseId::new(2))
            && invariants::first_phase_invariants(&t)
            && !invariants::has_late_decide(&t)
        {
            let chk = SlinChecker::owned(Consensus, ConsensusInit::new(), PhaseId::new(1), PhaseId::new(2));
            prop_assert!(chk.check(&t).is_ok(), "{:?}", t);
        }
    }

    /// Conversely: SLin(1, 2) implies the object projection is
    /// linearizable and the decisions satisfy I2 and I3.
    #[test]
    fn first_phase_slin_implies_invariants(t in phase_trace()) {
        let chk = SlinChecker::owned(Consensus, ConsensusInit::new(), PhaseId::new(1), PhaseId::new(2));
        if chk.check(&t).is_ok() {
            prop_assert!(invariants::i2(&t), "{:?}", t);
            prop_assert!(invariants::i3(&t), "{:?}", t);
            prop_assert!(invariants::consensus_linearizable(&t), "{:?}", t);
        }
    }

    /// Phase projection tiles the composed signature: every event of a
    /// (1, 3) trace lands in the (1, 2) or (2, 3) projection, and switch
    /// actions labelled 2 land in both (Lemma 6's correspondence).
    #[test]
    fn projections_tile_the_signature(t in phase_trace()) {
        let t12 = project_phase::<Consensus, Value>(&t, PhaseId::new(1), PhaseId::new(2));
        let t23 = project_phase::<Consensus, Value>(&t, PhaseId::new(2), PhaseId::new(3));
        prop_assert_eq!(
            t12.len() + t23.len(),
            t.len() + t.iter().filter(|a| a.is_switch() && a.phase().value() == 2).count()
        );
    }

    /// Witnesses returned by the checker always validate against the
    /// definition (`witness_is_valid` re-checks Explains, Validity and
    /// Commit-Order independently of the search).
    #[test]
    fn lin_witnesses_validate(seed in 0..500u64) {
        let cfg = GenConfig { clients: 3, steps: 12, seed };
        let t = random_linearizable_trace(&Consensus, cfg, |rng| {
            use rand::Rng;
            ConsInput::propose(rng.gen_range(1..4u64))
        });
        let w = LinChecker::owned(Consensus).check(&t).unwrap();
        prop_assert!(witness_is_valid(&Consensus, &t, &w));
    }

    /// Linearizability is prefix-closed (a safety property): every prefix
    /// of an accepted trace is accepted.
    #[test]
    fn linearizability_is_prefix_closed(seed in 0..200u64, cut in 0..20usize) {
        let cfg = GenConfig { clients: 3, steps: 12, seed };
        let t = random_perturbed_trace(&Counter, cfg, 0.3, |rng| {
            use rand::Rng;
            if rng.gen_bool(0.5) { CounterInput::Increment } else { CounterInput::Read }
        });
        let cut = cut.min(t.len());
        let prefix = t.truncate_to(cut);
        // Prefixes of well-formed traces can end mid-operation, which
        // stays well-formed; each definition preserves its own verdict.
        // (The two verdicts may differ on duplicate-value traces — the
        // Theorem 1 divergence — so each is guarded independently.)
        if LinChecker::owned(Counter).check(&t).is_ok() {
            prop_assert!(LinChecker::owned(Counter).check(&prefix).is_ok(), "{:?}", prefix);
        }
        if ClassicalChecker::new(&Counter).check(&t).is_ok() {
            prop_assert!(ClassicalChecker::new(&Counter).check(&prefix).is_ok(), "{:?}", prefix);
        }
    }

    /// Differential test for the engine refactor: the parallel
    /// `SlinChecker` returns byte-identical verdicts (witness, counts,
    /// stats, and error payloads) to a single-threaded run, on both the
    /// first-phase and backup-phase checkers.
    #[test]
    fn parallel_slin_matches_sequential(t in phase_trace()) {
        for (m, n) in [(1u32, 2u32), (2, 3)] {
            let par = monolithic_at((m, n), 4, &t);
            let seq = monolithic_at((m, n), 1, &t);
            prop_assert_eq!(&par, &seq, "phase ({}, {}) on {:?}", m, n, t);
            prop_assert_eq!(format!("{:?}", par), format!("{:?}", seq));
        }
    }

    /// Successful checks aggregate engine stats over exactly the enumerated
    /// interpretations, identically on both execution paths.
    #[test]
    fn slin_stats_cover_all_interpretations(t in phase_trace()) {
        if let Ok(report) = monolithic_at((1, 2), 1, &t).outcome {
            prop_assert_eq!(report.stats.interpretations, report.interpretations_checked);
            let par = monolithic_at((1, 2), 4, &t).outcome.expect("parity with sequential");
            prop_assert_eq!(par.stats, report.stats);
        }
    }

    /// `inputs_before` is monotone and consistent with the multiset form.
    #[test]
    fn input_bookkeeping_is_consistent(t in phase_trace()) {
        let ms = ops::input_multisets::<Consensus, Value>(&t);
        for i in 0..t.len() {
            prop_assert!(ms[i].is_subset_of(&ms[i + 1]));
            let seq = ops::inputs_before::<Consensus, Value>(&t, i);
            prop_assert_eq!(slin_trace::PersistentMultiset::elems(&seq), ms[i].clone());
        }
    }

    /// Every candidate interpretation offered by the consensus relation is
    /// a member of the relation, starts with the switch value, and is
    /// ADT-equivalent to the canonical singleton.
    #[test]
    fn consensus_candidates_are_sound(v in 1..5u64, inputs in prop::collection::vec(1..5u64, 0..4)) {
        let r = ConsensusInit::new();
        let ctx = CandidateContext::new(
            inputs.iter().map(|&x| ConsInput::propose(x)).collect());
        let value = Value::new(v);
        for h in r.candidates(&value, &ctx) {
            prop_assert!(r.contains(&value, &h));
            prop_assert_eq!(h[0].value(), value);
            prop_assert_eq!(
                Consensus::new().run(&h),
                Consensus::new().run(&[ConsInput::propose(v)])
            );
        }
    }

    /// Exact-relation extensions always extend the prefix and stay in the
    /// relation.
    #[test]
    fn exact_extensions_sound(value in prop::collection::vec(0..4u8, 0..4), cut in 0..4usize) {
        let r = ExactInit::new();
        let ctx = CandidateContext::new(value.clone());
        let cut = cut.min(value.len());
        for h in r.extensions(&value, &value[..cut], &ctx) {
            prop_assert!(r.contains(&value, &h));
            prop_assert!(slin_trace::seq::is_prefix(&value[..cut], &h));
        }
    }
}
