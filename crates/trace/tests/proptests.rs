//! Property-based tests for the trace substrate: algebraic laws of
//! multisets, the prefix order, projections, and well-formedness.

use proptest::prelude::*;
use slin_trace::seq::{comparable, concat, is_prefix, is_strict_prefix, longest_common_prefix};
use slin_trace::wf::{self, Invalid, Reason, Validator};
use slin_trace::{Action, ClientId, Multiset, PersistentMultiset, PhaseId, Trace};
use std::collections::BTreeSet;

type A = Action<u8, u8, u8>;

// ---- Definitions 13–15 / 33–35 as written: the validator's reference ----

/// The set of clients appearing in a trace.
fn clients(t: &Trace<A>) -> BTreeSet<ClientId> {
    t.iter().map(|a| a.client()).collect()
}

/// The client sub-trace `sub(t, c)` (Definition 13): the projection of `t`
/// onto client `c`'s actions. For phase traces, keeps only switch actions
/// labelled `m` or `n` and the invocations and responses labelled in
/// `[m..n-1]` (Definition 33); `None` keeps all of the client's actions.
fn client_subtrace(t: &Trace<A>, c: ClientId, bounds: Option<(PhaseId, PhaseId)>) -> Trace<A> {
    t.project(|a| {
        a.client() == c
            && match (a, bounds) {
                (Action::Switch { phase, .. }, Some((m, n))) => *phase == m || *phase == n,
                (_, Some((m, n))) => a.phase().in_range(m, n.prev()),
                (_, None) => true,
            }
    })
}

/// The alternation conditions on one client sub-trace, read off the
/// definitions position by position (no automaton state beyond the scan).
fn alternates(sub: &Trace<A>, bounds: Option<(PhaseId, PhaseId)>) -> Result<(), Reason> {
    let mut pending: Option<u8> = None;
    let mut aborted = false;
    for (i, a) in sub.iter().enumerate() {
        if aborted {
            return Err(Reason::AfterAbort);
        }
        match a {
            Action::Invoke { input, .. } => {
                if i == 0 && matches!(bounds, Some((m, _)) if m != PhaseId::FIRST) {
                    return Err(Reason::InvokeBeforeInit);
                }
                if pending.is_some() {
                    return Err(Reason::InvokeWhilePending);
                }
                pending = Some(*input);
            }
            Action::Respond { input, .. } => match pending.take() {
                None => return Err(Reason::ResponseWithoutPending),
                Some(p) if p != *input => return Err(Reason::ResponseInputMismatch),
                Some(_) => {}
            },
            Action::Switch { phase, input, .. } => {
                let Some((m, n)) = bounds else {
                    return Err(Reason::SwitchInPlainTrace);
                };
                if *phase == m {
                    if m == PhaseId::FIRST {
                        return Err(Reason::InitInFirstPhase);
                    }
                    if i != 0 {
                        return Err(Reason::InitNotFirst);
                    }
                    pending = Some(*input);
                } else {
                    assert_eq!(*phase, n, "interior switches are projected away");
                    match pending.take() {
                        None => return Err(Reason::AbortWithoutPending),
                        Some(p) if p != *input => return Err(Reason::AbortInputMismatch),
                        Some(_) => {}
                    }
                    aborted = true;
                }
            }
        }
    }
    Ok(())
}

/// What the checkers ask of a closed trace, by the book: the first action
/// outside the signature, and — client by client in ascending id — the
/// first sub-trace that does not alternate.
#[allow(clippy::type_complexity)]
fn by_the_book(
    t: &Trace<A>,
    bounds: Option<(PhaseId, PhaseId)>,
) -> (Option<usize>, Option<(ClientId, Reason)>) {
    let foreign = t.iter().position(|a| match bounds {
        None => a.is_switch(),
        Some((m, n)) if a.is_switch() => !a.phase().in_range(m, n),
        Some((m, n)) => !a.phase().in_range(m, n.prev()),
    });
    let ill_formed = clients(t).into_iter().find_map(|c| {
        let sub = client_subtrace(t, c, bounds);
        alternates(&sub, bounds).err().map(|reason| (c, reason))
    });
    (foreign, ill_formed)
}

/// At every prefix of `actions`: the live validator, the batch folds and
/// the by-the-book reading agree — verdict, precedence, error payload and
/// rendering.
fn validator_matches_the_definitions(actions: &[A], bounds: Option<(PhaseId, PhaseId)>) {
    let mut live: Validator<u8> = Validator::new(bounds);
    for cut in 0..=actions.len() {
        if cut > 0 {
            live.observe(&actions[cut - 1]);
        }
        let prefix: Trace<A> = actions[..cut].iter().cloned().collect();
        let (foreign, ill_formed) = by_the_book(&prefix, bounds);

        let batch = match bounds {
            None => wf::check_well_formed(&prefix),
            Some((m, n)) => wf::check_phase_well_formed(&prefix, m, n),
        };
        assert_eq!(
            batch.map_err(|e| (e.client(), e.reason())),
            ill_formed.map_or(Ok(()), Err),
            "{prefix:?}"
        );
        if let (Err(e), Some((c, reason))) = (batch, ill_formed) {
            assert_eq!(
                e.to_string(),
                format!("client {c} sub-trace ill-formed: {reason}")
            );
        }

        let expected = match (foreign, batch) {
            (Some(index), _) => Err(Invalid::OutsideSignature { index }),
            (None, Err(e)) => Err(Invalid::IllFormed(e)),
            (None, Ok(())) => Ok(()),
        };
        assert_eq!(wf::validate(&prefix, bounds), expected, "{prefix:?}");
        assert_eq!(live.check(), expected, "{prefix:?}");
        assert_eq!(
            live.first_switch(),
            prefix.iter().position(|a| a.is_switch()),
            "{prefix:?}"
        );
    }
}

/// A random action over three clients, phases 1–4 and two inputs: small
/// enough that every one of the automaton's refusals is hit many times.
fn action_of((kind, client, phase, input): (u8, u32, u32, u8)) -> A {
    let (c, ph) = (ClientId::new(client + 1), PhaseId::new(phase));
    match kind {
        0 | 1 => Action::invoke(c, ph, input),
        2 | 3 => Action::respond(c, ph, input, input),
        _ => Action::switch(c, ph, input, 0),
    }
}

/// The eleven reasons render as these strings, byte for byte: they are what
/// `LinError` / `SlinError` print, so they are API.
#[test]
fn the_reason_strings_are_pinned() {
    let table = [
        (Reason::AfterAbort, "events after the abort switch action"),
        (
            Reason::InvokeBeforeInit,
            "first event must be the init switch action when m ≠ 1",
        ),
        (
            Reason::InvokeWhilePending,
            "invocation while a previous input is pending",
        ),
        (
            Reason::ResponseWithoutPending,
            "response with no pending input",
        ),
        (
            Reason::ResponseInputMismatch,
            "response input differs from pending input",
        ),
        (
            Reason::SwitchInPlainTrace,
            "switch action in a plain object trace",
        ),
        (
            Reason::InitInFirstPhase,
            "init actions are impossible when m = 1",
        ),
        (
            Reason::InitNotFirst,
            "init action must be the unique first event",
        ),
        (
            Reason::AbortWithoutPending,
            "abort switch with no pending input",
        ),
        (
            Reason::AbortInputMismatch,
            "abort switch input differs from pending input",
        ),
        (
            Reason::InteriorSwitch,
            "interior switch action in client sub-trace",
        ),
    ];
    for (reason, text) in table {
        assert_eq!(reason.to_string(), text);
    }
    let c = ClientId::new(7);
    let t: Trace<A> = [Action::respond(c, PhaseId::FIRST, 1, 1)]
        .into_iter()
        .collect();
    let e = wf::check_well_formed(&t).unwrap_err();
    assert_eq!(
        e.to_string(),
        "client c7 sub-trace ill-formed: response with no pending input"
    );
    // The verdict digests of `kernel_pins` hash this rendering.
    assert_eq!(
        format!("{e:?}"),
        "WellFormednessError { client: c7, reason: \"response with no pending input\" }"
    );
}

fn small_vec() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0..5u8, 0..8)
}

/// The proptest corpora are pinned: the same base seed regenerates the same
/// inputs, so tier-1 runs explore an identical regression corpus in CI
/// (`PROPTEST_RNG_SEED` overrides the pin for local exploration).
#[test]
fn pinned_seed_corpus_is_reproducible() {
    use proptest::test_runner::{case_seed, TestRng, PINNED_SEED};
    let strat = (small_vec(), any::<u64>(), 0..7u32);
    for case in 0..32 {
        let seed = case_seed(PINNED_SEED, "pinned_corpus", case);
        let a = strat.new_value(&mut TestRng::from_seed(seed));
        let b = strat.new_value(&mut TestRng::from_seed(seed));
        assert_eq!(a, b, "case {case}");
    }
}

proptest! {
    // ---- multiset laws ----

    #[test]
    fn multiset_union_is_commutative(a in small_vec(), b in small_vec()) {
        let (ma, mb) = (Multiset::elems(&a), Multiset::elems(&b));
        prop_assert_eq!(ma.union_max(&mb), mb.union_max(&ma));
    }

    #[test]
    fn multiset_union_is_idempotent(a in small_vec()) {
        let m = Multiset::elems(&a);
        prop_assert_eq!(m.union_max(&m), m);
    }

    #[test]
    fn multiset_sum_is_commutative_and_counts(a in small_vec(), b in small_vec()) {
        let (ma, mb) = (Multiset::elems(&a), Multiset::elems(&b));
        prop_assert_eq!(ma.sum(&mb), mb.sum(&ma));
        prop_assert_eq!(ma.sum(&mb).len(), a.len() + b.len());
    }

    #[test]
    fn multiset_subset_is_a_partial_order(a in small_vec(), b in small_vec(), c in small_vec()) {
        let (ma, mb, mc) = (Multiset::elems(&a), Multiset::elems(&b), Multiset::elems(&c));
        // Reflexive.
        prop_assert!(ma.is_subset_of(&ma));
        // Antisymmetric.
        if ma.is_subset_of(&mb) && mb.is_subset_of(&ma) {
            prop_assert_eq!(&ma, &mb);
        }
        // Transitive.
        if ma.is_subset_of(&mb) && mb.is_subset_of(&mc) {
            prop_assert!(ma.is_subset_of(&mc));
        }
    }

    #[test]
    fn union_is_least_upper_bound(a in small_vec(), b in small_vec()) {
        let (ma, mb) = (Multiset::elems(&a), Multiset::elems(&b));
        let u = ma.union_max(&mb);
        prop_assert!(ma.is_subset_of(&u));
        prop_assert!(mb.is_subset_of(&u));
        // The union embeds in the sum.
        prop_assert!(u.is_subset_of(&ma.sum(&mb)));
    }

    #[test]
    fn remove_inverts_insert(a in small_vec(), x in 0..5u8) {
        let mut m = Multiset::elems(&a);
        let before = m.clone();
        m.insert(x);
        prop_assert!(m.remove(&x));
        prop_assert_eq!(m, before);
    }

    // ---- prefix-order laws ----

    #[test]
    fn prefix_is_reflexive_and_concat_extends(a in small_vec(), b in small_vec()) {
        prop_assert!(is_prefix(&a, &a));
        let ab = concat(&a, &b);
        prop_assert!(is_prefix(&a, &ab));
        prop_assert_eq!(is_strict_prefix(&a, &ab), !b.is_empty());
    }

    #[test]
    fn lcp_is_a_common_prefix_and_maximal(xs in prop::collection::vec(small_vec(), 1..5)) {
        let lcp = longest_common_prefix(xs.iter().map(|v| v.as_slice()));
        for x in &xs {
            prop_assert!(is_prefix(&lcp, x));
        }
        // Maximality: extending by the next element of the first sequence
        // breaks common-prefix-ness (unless lcp is the first sequence).
        if lcp.len() < xs[0].len() {
            let mut longer = lcp.clone();
            longer.push(xs[0][lcp.len()]);
            prop_assert!(!xs.iter().all(|x| is_prefix(&longer, x)));
        }
    }

    #[test]
    fn comparability_matches_definition(a in small_vec(), b in small_vec()) {
        prop_assert_eq!(comparable(&a, &b), is_prefix(&a, &b) || is_prefix(&b, &a));
    }

    // ---- trace and projection laws ----

    #[test]
    fn projection_is_idempotent_and_shrinking(events in prop::collection::vec((0..4u32, 0..3u8), 0..12)) {
        let t: Trace<Action<u8, u8, u8>> = events
            .iter()
            .map(|&(c, i)| Action::invoke(ClientId::new(c + 1), PhaseId::FIRST, i))
            .collect();
        let keep = |a: &Action<u8, u8, u8>| a.client().value().is_multiple_of(2);
        let p1 = t.project(keep);
        let p2 = p1.project(keep);
        prop_assert_eq!(&p1, &p2);
        prop_assert!(p1.len() <= t.len());
    }

    #[test]
    fn client_subtraces_partition_events(events in prop::collection::vec((0..4u32, 0..3u8), 0..12)) {
        let t: Trace<Action<u8, u8, u8>> = events
            .iter()
            .map(|&(c, i)| Action::invoke(ClientId::new(c + 1), PhaseId::FIRST, i))
            .collect();
        let total: usize = clients(&t)
            .into_iter()
            .map(|c| client_subtrace(&t, c, None).len())
            .sum();
        prop_assert_eq!(total, t.len());
    }

    // ---- the one validator ≡ the definitions, at every prefix ----

    #[test]
    fn validator_matches_the_definitions_on_plain_traces(
        raw in prop::collection::vec((0..5u8, 0..3u32, 1..3u32, 0..2u8), 0..10)
    ) {
        let actions: Vec<A> = raw.into_iter().map(action_of).collect();
        validator_matches_the_definitions(&actions, None);
    }

    #[test]
    fn validator_matches_the_definitions_on_first_phase_traces(
        raw in prop::collection::vec((0..6u8, 0..3u32, 1..5u32, 0..2u8), 0..10)
    ) {
        let actions: Vec<A> = raw.into_iter().map(action_of).collect();
        // m = 1: a phase pair and a composed phase with an interior label.
        validator_matches_the_definitions(&actions, Some((PhaseId::new(1), PhaseId::new(2))));
        validator_matches_the_definitions(&actions, Some((PhaseId::new(1), PhaseId::new(3))));
    }

    #[test]
    fn validator_matches_the_definitions_on_later_phase_traces(
        raw in prop::collection::vec((0..6u8, 0..3u32, 1..5u32, 0..2u8), 0..10)
    ) {
        let actions: Vec<A> = raw.into_iter().map(action_of).collect();
        // m ≠ 1: clients enter by their unique init action.
        validator_matches_the_definitions(&actions, Some((PhaseId::new(2), PhaseId::new(3))));
        validator_matches_the_definitions(&actions, Some((PhaseId::new(2), PhaseId::new(4))));
    }

    // ---- well-formedness closure properties ----

    #[test]
    fn alternating_client_traces_are_well_formed(inputs in prop::collection::vec(0..4u8, 0..6)) {
        // Build a single-client strictly alternating trace: always WF,
        // with or without a trailing pending invocation.
        let c = ClientId::new(1);
        let mut actions: Vec<Action<u8, u8, u8>> = Vec::new();
        for &i in &inputs {
            actions.push(Action::invoke(c, PhaseId::FIRST, i));
            actions.push(Action::respond(c, PhaseId::FIRST, i, i));
        }
        let complete: Trace<_> = actions.iter().cloned().collect();
        prop_assert!(wf::is_well_formed(&complete));
        actions.push(Action::invoke(c, PhaseId::FIRST, 9));
        let pending: Trace<_> = actions.into_iter().collect();
        prop_assert!(wf::is_well_formed(&pending));
    }

    #[test]
    fn well_formedness_is_preserved_by_truncation(inputs in prop::collection::vec(0..4u8, 0..6), cut in 0..12usize) {
        let c = ClientId::new(1);
        let mut actions: Vec<Action<u8, u8, u8>> = Vec::new();
        for &i in &inputs {
            actions.push(Action::invoke(c, PhaseId::FIRST, i));
            actions.push(Action::respond(c, PhaseId::FIRST, i, i));
        }
        let t: Trace<_> = actions.into_iter().collect();
        let cut = cut.min(t.len());
        // A prefix of a well-formed trace is well-formed (safety property).
        prop_assert!(wf::is_well_formed(&t.truncate_to(cut)));
    }
}

// ---- persistent multiset ≡ multiset (differential laws) ----
//
// `PersistentMultiset` must be observationally equal to the reference
// `Multiset` under arbitrary operation interleavings: a streaming shard
// keeps each configuration's symbolic completions in the persistent form,
// and the test oracles build validity snapshots with it, purely for its
// O(1) clone — never for different semantics.

/// One step of a random multiset program.
#[derive(Debug, Clone)]
enum MsOp {
    Insert(u8),
    Remove(u8),
    /// Replace the accumulator with `acc.union_max(elems(operand))`.
    UnionMax(Vec<u8>),
    /// Replace the accumulator with `acc.sum(elems(operand))`.
    Sum(Vec<u8>),
}

fn ms_op() -> impl Strategy<Value = MsOp> {
    // Insert- and remove-heavy mix, with occasional bulk operations.
    (0..8u8, 0..6u8, prop::collection::vec(0..6u8, 0..5)).prop_map(|(sel, e, other)| match sel {
        0..=2 => MsOp::Insert(e),
        3..=5 => MsOp::Remove(e),
        6 => MsOp::UnionMax(other),
        _ => MsOp::Sum(other),
    })
}

/// Checks every observation the checkers rely on.
fn assert_agree(m: &Multiset<u8>, p: &PersistentMultiset<u8>) -> Result<(), TestCaseError> {
    prop_assert_eq!(m.len(), p.len());
    prop_assert_eq!(m.distinct_len(), p.distinct_len());
    prop_assert_eq!(m.is_empty(), p.is_empty());
    for e in 0..8u8 {
        prop_assert_eq!(m.count(&e), p.count(&e), "count({})", e);
        prop_assert_eq!(m.contains(&e), p.contains(&e), "contains({})", e);
    }
    // The iterators agree as maps (orders differ: BTreeMap vs trie).
    let mi: std::collections::BTreeMap<u8, usize> = m.iter().map(|(e, c)| (*e, c)).collect();
    let pi: std::collections::BTreeMap<u8, usize> = p.iter().map(|(e, c)| (*e, c)).collect();
    prop_assert_eq!(mi, pi);
    Ok(())
}

/// Runs one random program against both implementations, re-checking
/// observational agreement after every step (kept outside the `proptest!`
/// macro — its body is token-expanded and chokes on long functions).
fn run_differential_program(init: &[u8], ops: &[MsOp]) -> Result<(), TestCaseError> {
    let mut m = Multiset::elems(init);
    let mut p = PersistentMultiset::elems(init);
    assert_agree(&m, &p)?;
    for op in ops {
        match op {
            MsOp::Insert(e) => {
                m.insert(*e);
                p.insert(*e);
            }
            MsOp::Remove(e) => {
                prop_assert_eq!(m.remove(e), p.remove(e));
            }
            MsOp::UnionMax(other) => {
                m = m.union_max(&Multiset::elems(other));
                p = p.union_max(&PersistentMultiset::elems(other));
            }
            MsOp::Sum(other) => {
                m = m.sum(&Multiset::elems(other));
                p = p.sum(&PersistentMultiset::elems(other));
            }
        }
        assert_agree(&m, &p)?;
    }
    Ok(())
}

/// Semantic equality/hash agreement for pointer-disjoint construction
/// paths (sorted insertion order + a push/pop round-trip on one side).
fn check_semantic_equality(a: &[u8], b: &mut [u8]) -> Result<(), TestCaseError> {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let pa = PersistentMultiset::elems(a);
    b.sort_unstable();
    let mut pb = PersistentMultiset::elems(&*b);
    pb.insert(0);
    pb.remove(&0);
    let equal_contents = Multiset::elems(a) == Multiset::elems(b);
    prop_assert_eq!(pa == pb, equal_contents);
    if equal_contents {
        let hash = |p: &PersistentMultiset<u8>| {
            let mut h = DefaultHasher::new();
            p.hash(&mut h);
            h.finish()
        };
        prop_assert_eq!(hash(&pa), hash(&pb));
    }
    Ok(())
}

proptest! {
    #[test]
    fn persistent_multiset_matches_reference_under_random_programs(
        init in small_vec(),
        ops in prop::collection::vec(ms_op(), 0..24),
    ) {
        run_differential_program(&init, &ops)?;
    }
}

proptest! {
    #[test]
    fn persistent_subset_matches_reference(a in small_vec(), b in small_vec()) {
        let (ma, mb) = (Multiset::elems(&a), Multiset::elems(&b));
        let (pa, pb) = (PersistentMultiset::elems(&a), PersistentMultiset::elems(&b));
        prop_assert_eq!(ma.is_subset_of(&mb), pa.is_subset_of(&pb));
        prop_assert_eq!(mb.is_subset_of(&ma), pb.is_subset_of(&pa));
    }
}

proptest! {
    #[test]
    fn persistent_equality_is_semantic(a in small_vec(), b in small_vec()) {
        let mut b = b;
        check_semantic_equality(&a, &mut b)?;
    }
}

proptest! {
    #[test]
    fn persistent_clones_share_structure_without_aliasing(init in small_vec(), e in 0..6u8) {
        let base = PersistentMultiset::elems(&init);
        let mut fork = base.clone();
        fork.insert(e);
        // The clone diverged; the original is untouched (path copying).
        prop_assert_eq!(fork.count(&e), base.count(&e) + 1);
        prop_assert_eq!(fork.len(), base.len() + 1);
        prop_assert_eq!(&PersistentMultiset::elems(&init), &base);
    }
}

// ---- one-pass construction ≡ insert construction ----

/// An element whose hash is its `class` alone: members of one class have
/// equal 64-bit hashes, so they share a key and sit in one equal-key run.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Clash {
    class: u8,
    id: u16,
}

impl std::hash::Hash for Clash {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.class.hash(state);
    }
}

/// `(element, count)` lists over up to 160 distinct elements, in
/// equal-hash classes of `per_class` (equal-key runs), with zero counts.
fn clash_pairs() -> impl Strategy<Value = Vec<(Clash, usize)>> {
    let raw = prop::collection::vec((0..u16::MAX, 0..3usize), 0..240);
    (1..5u16, 1..160u16, raw).prop_map(|(per_class, alphabet, raw)| {
        raw.into_iter()
            .map(|(id, n)| {
                let id = id % alphabet;
                let class = (id / per_class) as u8;
                (Clash { class, id }, n)
            })
            .collect()
    })
}

fn hash_of(m: &PersistentMultiset<Clash>) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let mut h = DefaultHasher::new();
    m.hash(&mut h);
    h.finish()
}

/// The one-pass build (`collect`) against `add` in turn, under every
/// observation: each element collected its count of times.
fn check_one_pass_build(pairs: &[(Clash, usize)]) -> Result<(), TestCaseError> {
    let mut inserted = PersistentMultiset::new();
    for (e, n) in pairs {
        inserted.add(e.clone(), *n);
    }
    let collected: PersistentMultiset<Clash> = pairs
        .iter()
        .flat_map(|(e, n)| std::iter::repeat_n(e.clone(), *n))
        .collect();
    let walk: Vec<(&Clash, usize)> = inserted.iter().collect();
    prop_assert_eq!(&collected, &inserted);
    prop_assert_eq!(hash_of(&collected), hash_of(&inserted));
    prop_assert_eq!(collected.iter().collect::<Vec<_>>(), walk.clone());
    prop_assert_eq!(collected.iter().len(), walk.len());
    prop_assert_eq!(
        (collected.len(), collected.distinct_len()),
        (inserted.len(), inserted.distinct_len())
    );
    for (e, _) in pairs {
        prop_assert_eq!(collected.count(e), inserted.count(e));
    }
    Ok(())
}

proptest! {
    #[test]
    fn one_pass_build_equals_the_insert_build(pairs in clash_pairs()) {
        check_one_pass_build(&pairs)?;
    }
}

/// The iteration order of one fixed set, pinned: it follows the element
/// hash, so a change to the hash re-pins this deliberately.
#[test]
fn the_iteration_order_of_a_small_set_is_pinned() {
    let m: PersistentMultiset<u32> = (0..10).chain([3, 3, 7]).collect();
    let walk: Vec<(u32, usize)> = m.iter().map(|(e, n)| (*e, n)).collect();
    let pinned = [
        (3, 3),
        (6, 1),
        (7, 2),
        (9, 1),
        (0, 1),
        (5, 1),
        (4, 1),
        (2, 1),
        (8, 1),
        (1, 1),
    ];
    assert_eq!(walk, pinned);
}
