//! `KvState` against the `BTreeMap<u32, u64>` it replaced: random
//! `put`/`get`/`delete` sequences over a few keys and values, run through
//! `KvStore::apply` and through the map side by side.

use proptest::prelude::*;
use slin_adt::{Adt, KvInput, KvOutput, KvState, KvStore};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

fn op() -> impl Strategy<Value = KvInput> {
    (0u8..3, 0u32..3, 0u64..3).prop_map(|(kind, k, v)| match kind {
        0 => KvInput::Put(k, v),
        1 => KvInput::Get(k),
        _ => KvInput::Delete(k),
    })
}

/// The map semantics `KvStore` had when its state was a `BTreeMap`.
fn reference(map: &mut BTreeMap<u32, u64>, input: KvInput) -> KvOutput {
    match input {
        KvInput::Put(k, v) => {
            map.insert(k, v);
            KvOutput::Ack
        }
        KvInput::Get(k) => KvOutput::Found(map.get(&k).copied()),
        KvInput::Delete(k) => {
            map.remove(&k);
            KvOutput::Ack
        }
    }
}

fn hash_of(x: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

/// Whether `input` leaves every map it is applied to as it was.
fn leaves_alone(map: &BTreeMap<u32, u64>, input: KvInput) -> bool {
    match input {
        KvInput::Put(k, v) => map.get(&k) == Some(&v),
        KvInput::Get(_) => true,
        KvInput::Delete(k) => !map.contains_key(&k),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn kv_state_is_the_map_it_replaced(ops in prop::collection::vec(op(), 0..16)) {
        let kv = KvStore::new();
        let mut states: Vec<(KvState, BTreeMap<u32, u64>)> = vec![(kv.initial(), BTreeMap::new())];
        for &input in &ops {
            let (state, map) = states.last().cloned().unwrap();
            let (next, out) = kv.apply(&state, &input);
            let mut next_map = map.clone();
            prop_assert_eq!(out, reference(&mut next_map, input), "{:?} at {:?}", input, map);
            prop_assert_eq!(format!("{next:?}"), format!("{next_map:?}"));
            prop_assert_eq!(format!("{next:#?}"), format!("{next_map:#?}"));
            prop_assert_eq!(hash_of(&next), hash_of(&next_map), "hashes as the map did");
            if leaves_alone(&map, input) {
                prop_assert!(KvState::ptr_eq(&next, &state), "{:?} copied {:?}", input, map);
            }
            states.push((next, next_map));
        }
        for (a, map_a) in &states {
            for (b, map_b) in &states {
                prop_assert_eq!(a == b, map_a == map_b, "{:?} vs {:?}", map_a, map_b);
                if a == b {
                    prop_assert_eq!(hash_of(a), hash_of(b));
                }
            }
        }
    }
}

/// The states (with their reference maps) every prefix of `ops` reaches
/// from the initial state, the initial state included.
fn run(ops: &[KvInput]) -> Vec<(KvState, BTreeMap<u32, u64>)> {
    let kv = KvStore::new();
    let mut states = vec![(kv.initial(), BTreeMap::new())];
    for &input in ops {
        let (state, map) = states.last().cloned().unwrap();
        let mut next_map = map;
        reference(&mut next_map, input);
        states.push((kv.apply(&state, &input).0, next_map));
    }
    states
}

/// Equal bindings are one state: `==`, the same hash, and the hash and
/// rendering of the reference map, however each was built.
fn assert_one_state_per_map(states: &[(KvState, BTreeMap<u32, u64>)]) {
    for (a, map_a) in states {
        assert_eq!(hash_of(a), hash_of(map_a), "{map_a:?}");
        assert_eq!(format!("{a:?}"), format!("{map_a:?}"));
        for (b, map_b) in states {
            assert_eq!(a == b, map_a == map_b, "{map_a:?} vs {map_b:?}");
            if a == b {
                assert_eq!(hash_of(a), hash_of(b), "{map_a:?}");
            }
        }
    }
}

/// Every sequence of up to three operations over two keys and two values
/// reaches each map it can reach as one state. Between them the sequences
/// cross every shape change: a `put` growing one binding to two, a `delete`
/// shrinking two to one and one to none, a `put` over a bound value with
/// one binding and with two.
#[test]
fn every_path_to_a_map_builds_one_state() {
    let mut alphabet = Vec::new();
    for k in 0..2 {
        alphabet.extend([KvInput::Get(k), KvInput::Delete(k)]);
        alphabet.extend((0..2).map(|v| KvInput::Put(k, v)));
    }
    let mut sequences: Vec<Vec<KvInput>> = vec![Vec::new()];
    for len in 1..=3 {
        let longer: Vec<Vec<KvInput>> = (sequences.iter())
            .filter(|s| s.len() == len - 1)
            .flat_map(|s| {
                alphabet.iter().map(|&op| {
                    let mut s = s.clone();
                    s.push(op);
                    s
                })
            })
            .collect();
        sequences.extend(longer);
    }
    let mut states = Vec::new();
    let (mut grew, mut shrank, mut emptied, mut overwrote) = (false, false, false, [false; 2]);
    for ops in &sequences {
        let reached = run(ops);
        if let [.., (_, before), (_, after)] = &reached[..] {
            let input = ops[ops.len() - 1];
            grew |= (before.len(), after.len()) == (1, 2);
            shrank |= (before.len(), after.len()) == (2, 1);
            emptied |= (before.len(), after.len()) == (1, 0);
            if let KvInput::Put(k, v) = input {
                let over = before.get(&k).is_some_and(|&bound| bound != v);
                if over && (1..=2).contains(&before.len()) {
                    overwrote[before.len() - 1] = true;
                }
            }
        }
        states.push(reached.last().cloned().unwrap());
    }
    assert!(grew && shrank && emptied && overwrote == [true; 2]);
    assert_one_state_per_map(&states);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Two independent random sequences: every state either reaches is
    /// `==` to, and hashes as, every other state with its bindings, and
    /// hashes as its reference map.
    #[test]
    fn equal_bindings_are_equal_states_across_paths(
        a in prop::collection::vec(op(), 0..24),
        b in prop::collection::vec(op(), 0..24),
    ) {
        let mut states = run(&a);
        states.extend(run(&b));
        assert_one_state_per_map(&states);
    }
}
