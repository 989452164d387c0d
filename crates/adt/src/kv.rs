//! A key–value store ADT.
//!
//! Models the replicated data services the paper motivates (Chubby, Gaios):
//! a dictionary whose operations are replicated through consensus in the
//! `replicated_kv` example.

use crate::Adt;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A key–value store input.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KvInput {
    /// Bind `key` to `value`.
    Put(u32, u64),
    /// Look up `key`.
    Get(u32),
    /// Remove `key`.
    Delete(u32),
}

impl fmt::Debug for KvInput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvInput::Put(k, v) => write!(f, "put({k},{v})"),
            KvInput::Get(k) => write!(f, "get({k})"),
            KvInput::Delete(k) => write!(f, "del({k})"),
        }
    }
}

/// A key–value store output.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KvOutput {
    /// Acknowledgement of a put or delete.
    Ack,
    /// The value bound to the requested key, if any.
    Found(Option<u64>),
}

impl fmt::Debug for KvOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvOutput::Ack => write!(f, "ok"),
            KvOutput::Found(Some(v)) => write!(f, "={v}"),
            KvOutput::Found(None) => write!(f, "=∅"),
        }
    }
}

/// A key–value store, initially empty.
///
/// # Example
///
/// ```
/// use slin_adt::{Adt, KvStore, KvInput, KvOutput};
/// let kv = KvStore::new();
/// let h = [KvInput::Put(1, 10), KvInput::Get(1)];
/// assert_eq!(kv.output(&h), Some(KvOutput::Found(Some(10))));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct KvStore;

impl KvStore {
    /// Creates the key–value store ADT.
    pub fn new() -> Self {
        KvStore
    }
}

/// A [`KvStore`] state: the bindings, sorted by key — none for the empty
/// map, one stored inline, and two or more in one shared slice.
///
/// A search replays the store at every node, and most steps do not change
/// the map: a `get`, a `put` of the value already bound, a `delete` of an
/// absent key. Those return their input state, as does every clone (a
/// seed, a frontier configuration, a memo entry). A per-key shard, or a
/// class search of a keyed check, never holds more than one binding, so
/// there a step, a clone and a drop copy a few words and touch no
/// allocator and no reference count; only a map of two or more bindings
/// lives in a slice, which a clone shares and a changing step rebuilds.
/// Equality and hashing are by content — there is one representation per
/// map — and `Hash` and `Debug` read exactly as a `BTreeMap<u32, u64>` of
/// the same bindings (`{k: v, …}`), which certificates and witness
/// messages print.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct KvState(Bindings);

/// The three shapes of a map; a map has exactly one of them.
#[derive(Clone, Default, PartialEq, Eq)]
enum Bindings {
    /// No binding: the initial state.
    #[default]
    Empty,
    /// Exactly one binding, inline.
    One([(u32, u64); 1]),
    /// Two or more bindings, ascending by key.
    Many(Arc<[(u32, u64)]>),
}

impl KvState {
    /// The bindings in ascending key order.
    fn bindings(&self) -> &[(u32, u64)] {
        match &self.0 {
            Bindings::Empty => &[],
            Bindings::One(one) => one,
            Bindings::Many(many) => many,
        }
    }

    /// Where `key` is bound, or where it would be.
    fn find(&self, key: u32) -> Result<usize, usize> {
        self.bindings().binary_search_by_key(&key, |&(k, _)| k)
    }

    /// The value bound to `key`, if any.
    fn get(&self, key: u32) -> Option<u64> {
        Some(self.bindings()[self.find(key).ok()?].1)
    }

    /// Whether no copy was made between `a` and `b` — what a step that
    /// leaves the map alone returns: the same slice, or both inline (empty
    /// or one binding) and equal, since an inline map is its own copy.
    pub fn ptr_eq(a: &KvState, b: &KvState) -> bool {
        match (&a.0, &b.0) {
            (Bindings::Many(a), Bindings::Many(b)) => Arc::ptr_eq(a, b),
            (Bindings::Many(_), _) | (_, Bindings::Many(_)) => false,
            (a, b) => a == b,
        }
    }

    /// `key` bound to `value`; `self` again when it already is.
    fn put(&self, key: u32, value: u64) -> KvState {
        let bindings = self.bindings();
        match self.find(key) {
            Ok(at) if bindings[at].1 == value => self.clone(),
            Ok(at) => KvState::spliced(&bindings[..at], Some((key, value)), &bindings[at + 1..]),
            Err(at) => KvState::spliced(&bindings[..at], Some((key, value)), &bindings[at..]),
        }
    }

    /// `key` unbound; `self` again when it already is.
    fn delete(&self, key: u32) -> KvState {
        let bindings = self.bindings();
        match self.find(key) {
            Ok(at) => KvState::spliced(&bindings[..at], None, &bindings[at + 1..]),
            Err(_) => self.clone(),
        }
    }

    /// `before`, then `mid`, then `after`, in the one shape their count
    /// takes: empty and one binding allocate nothing, more is one slice.
    fn spliced(before: &[(u32, u64)], mid: Option<(u32, u64)>, after: &[(u32, u64)]) -> KvState {
        let mut joined = (before.iter().copied())
            .chain(mid)
            .chain(after.iter().copied());
        let shape = match before.len() + usize::from(mid.is_some()) + after.len() {
            0 => Bindings::Empty,
            1 => Bindings::One([joined.next().expect("one binding")]),
            _ => Bindings::Many(joined.collect()),
        };
        KvState(shape)
    }
}

impl Hash for KvState {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.bindings().hash(state);
    }
}

impl fmt::Debug for KvState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.bindings().iter().map(|(k, v)| (k, v)))
            .finish()
    }
}

impl Adt for KvStore {
    type Input = KvInput;
    type Output = KvOutput;
    type State = KvState;

    fn initial(&self) -> Self::State {
        KvState::default()
    }

    fn apply(&self, state: &Self::State, input: &Self::Input) -> (Self::State, Self::Output) {
        match *input {
            KvInput::Put(k, v) => (state.put(k, v), KvOutput::Ack),
            KvInput::Get(k) => (state.clone(), KvOutput::Found(state.get(k))),
            KvInput::Delete(k) => (state.delete(k), KvOutput::Ack),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_missing_key() {
        let kv = KvStore::new();
        assert_eq!(kv.output(&[KvInput::Get(7)]), Some(KvOutput::Found(None)));
    }

    #[test]
    fn put_then_delete_then_get() {
        let kv = KvStore::new();
        let h = [KvInput::Put(1, 5), KvInput::Delete(1), KvInput::Get(1)];
        assert_eq!(kv.output(&h), Some(KvOutput::Found(None)));
    }

    #[test]
    fn puts_overwrite() {
        let kv = KvStore::new();
        let h = [KvInput::Put(1, 5), KvInput::Put(1, 6), KvInput::Get(1)];
        assert_eq!(kv.output(&h), Some(KvOutput::Found(Some(6))));
    }

    #[test]
    fn independent_keys() {
        let kv = KvStore::new();
        let h = [KvInput::Put(1, 5), KvInput::Put(2, 6), KvInput::Get(1)];
        assert_eq!(kv.output(&h), Some(KvOutput::Found(Some(5))));
    }
}
