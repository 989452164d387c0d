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
