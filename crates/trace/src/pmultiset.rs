//! Structure-sharing persistent multisets.
//!
//! [`PersistentMultiset`] exposes the same multiset algebra as
//! [`crate::Multiset`] — `union_max` (`∪`, pointwise max), `sum` (`⊎`,
//! pointwise addition), `is_subset_of` (`⊆`), `count`, `elems` — but its
//! versions share structure through [`Arc`]: cloning is O(1), and a clone
//! never sees another version's inserts or removals.
//!
//! **Layout.** Every element has a *key*: its 64-bit hash with the nibbles
//! reversed, so that the hash's least significant nibble leads. A non-empty
//! multiset is one `Arc<[Entry]>` allocation of entries `(key, element,
//! multiplicity)`, one per distinct element, sorted by key, equal keys in
//! insertion order. The empty multiset allocates nothing.
//!
//! **What the operations cost**, for `d` distinct elements:
//!
//! * `count`: one hash and a binary search;
//! * `insert` / `remove`: one hash, a binary search and one allocation of
//!   the `d` (or `d ± 1`) entries — O(d), which the checkers' completion
//!   sets (a handful of distinct pairs) never notice;
//! * `collect` (and [`PersistentMultiset::elems`]) over `n` elements: one
//!   hash each, one stable sort by key, one scratch vector and the one
//!   node. A single element is one allocation;
//! * `is_subset_of`: one merge of the two key-ordered entry lists, no
//!   hashing;
//! * `==`: the length, distinct count and fingerprint first, then a
//!   lockstep walk of both entry lists; it decides pointwise (one lookup
//!   per element) only when the walks differ, which for equal multisets
//!   means equal keys stored in a different insertion order;
//! * clone and `Hash`: O(1).
//!
//! Two properties matter to the checker engines, and neither depends on
//! the layout:
//!
//! * **Semantic equality and hashing.** Two multisets with equal
//!   multiplicity functions are `==` and hash identically regardless of
//!   construction order: the hash is an incrementally-maintained
//!   commutative fingerprint over `(element, multiplicity)` pairs, so a
//!   `PersistentMultiset` can sit directly inside a `HashSet` memo key —
//!   no sorting into a canonical `Vec` per lookup.
//! * **Deterministic iteration.** [`PersistentMultiset::iter`] walks in key
//!   order, which is a pure function of the elements (the hasher is
//!   fixed-key), never of insertion order, except among elements whose
//!   64-bit hashes are equal.
//!
//! **The element hash** is the multiset's own: a folded 64×64→128-bit
//! multiply per machine word the element's `Hash` writes, from a fixed
//! seed, finished by the `splitmix64` finalizer the fingerprint uses. It is
//! fixed-key, so keys, fingerprints and iteration order are the same in
//! every run and process; a change to it re-pins the one order a test pins
//! (`the_iteration_order_of_a_small_set_is_pinned` in `tests/proptests.rs`);
//! when it last changed, no other pinned count moved (the streaming
//! frontier breaks its ties on a fingerprint of its own for that reason).
//! Being fixed-key, it is no defence against an input built to collide,
//! and needs none: elements with equal 64-bit hashes share a key and sit in
//! one run of equal keys, in insertion order. All such an input buys is a
//! linear scan of that run where a lookup, an insert or an equality test
//! meets it — never a wrong count or an aliased multiset.
//!
//! The key order is the order of a 16-way hash trie addressed by the
//! hash's nibbles least significant first, with a collision bucket of
//! equal hashes in insertion order at each leaf. That trie is kept as the
//! test oracle `trie_oracle`, and the element hash, the fingerprint, the
//! `Hash` output (fingerprint, length, distinct count) and the iteration
//! order are all its own. Whatever sorts, hashes or walks multisets — the
//! frontier's tie-break reads the `Hash` output — sees the same values on
//! either layout; only [`PersistentMultiset::mark_nodes`], which counts
//! allocations, tells them apart.

use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

/// The stable per-element hash the multiset is ordered by.
fn elem_hash<E: Hash>(e: &E) -> u64 {
    let mut h = ElemHasher(ElemHasher::SEED);
    e.hash(&mut h);
    h.finish()
}

/// The element hash (module docs, "The element hash"): a folded
/// 64×64→128-bit multiply per machine word from a fixed seed, finished by
/// [`mix`].
struct ElemHasher(u64);

impl ElemHasher {
    const SEED: u64 = 0x243F_6A88_85A3_08D3;
    const MULTIPLIER: u64 = 0xA076_1D64_78BD_642F;

    fn word(&mut self, w: u64) {
        let wide = u128::from(self.0 ^ w) * u128::from(Self::MULTIPLIER);
        self.0 = (wide as u64) ^ ((wide >> 64) as u64);
    }
}

impl Hasher for ElemHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("chunks of eight")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            // The length keeps `[0]` and `[0, 0]` apart.
            self.word(u64::from_le_bytes(last) ^ ((rest.len() as u64) << 56));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.word(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.word(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.word(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.word(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.word(n as u64);
    }

    fn finish(&self) -> u64 {
        mix(self.0)
    }
}

/// A hash's key: its nibbles reversed, so ascending keys visit the hash's
/// least significant nibble first.
fn order_key(hash: u64) -> u64 {
    let b = hash.swap_bytes();
    ((b & 0x0F0F_0F0F_0F0F_0F0F) << 4) | ((b >> 4) & 0x0F0F_0F0F_0F0F_0F0F)
}

/// `splitmix64` finalizer: decorrelates the commutative fingerprint terms.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One entry's fingerprint term; summed (wrapping) over all entries, it is
/// order-independent and updates in O(1) when one multiplicity changes.
fn term(hash: u64, count: usize) -> u64 {
    if count == 0 {
        0
    } else {
        mix(hash ^ mix(count as u64))
    }
}

/// One distinct element and its multiplicity.
#[derive(Clone)]
struct Entry<E> {
    key: u64,
    elem: E,
    count: usize,
}

/// The entries whose key is `key`.
fn run<E>(entries: &[Entry<E>], key: u64) -> Range<usize> {
    let lo = entries.partition_point(|x| x.key < key);
    let len = entries[lo..].iter().take_while(|x| x.key == key).count();
    lo..lo + len
}

/// The multiplicity in `entries` of `e`, whose key is `key`.
fn find<E: Eq>(entries: &[Entry<E>], key: u64, e: &E) -> usize {
    entries[run(entries, key)]
        .iter()
        .find(|x| x.elem == *e)
        .map_or(0, |x| x.count)
}

/// A copy of `entries` with `entries[range]` replaced by `with`, in one
/// allocation. Indexed rather than chained: `Arc` collects a map over a
/// range into its one allocation in a tight loop.
fn splice<E: Clone>(
    entries: &[Entry<E>],
    range: Range<usize>,
    mut with: Option<Entry<E>>,
) -> Arc<[Entry<E>]> {
    let added = usize::from(with.is_some());
    (0..entries.len() - range.len() + added)
        .map(|i| {
            if i < range.start {
                entries[i].clone()
            } else if let Some(x) = with.take() {
                x
            } else {
                entries[i - added + range.len()].clone()
            }
        })
        .collect()
}

/// A finite multiset with O(1) clone and structure sharing between
/// versions. See the [module docs](self) for how it differs from
/// [`crate::Multiset`].
///
/// # Example
///
/// ```
/// use slin_trace::PersistentMultiset;
///
/// let a: PersistentMultiset<&str> = ["x", "x", "y"].into_iter().collect();
/// let snapshot = a.clone(); // O(1): shares the one node
/// let mut b = a.clone();
/// b.insert("y");
/// assert_eq!(a.count(&"x"), 2);
/// assert_eq!(a, snapshot);
/// assert_eq!(b.count(&"y"), 2);
/// assert!(a.is_subset_of(&b));
/// ```
pub struct PersistentMultiset<E> {
    /// The entries; `None` when empty, never an empty slice.
    root: Option<Arc<[Entry<E>]>>,
    len: usize,
    fingerprint: u64,
}

impl<E> Clone for PersistentMultiset<E> {
    fn clone(&self) -> Self {
        PersistentMultiset {
            root: self.root.clone(),
            len: self.len,
            fingerprint: self.fingerprint,
        }
    }
}

impl<E> Default for PersistentMultiset<E> {
    fn default() -> Self {
        PersistentMultiset::new()
    }
}

impl<E> PersistentMultiset<E> {
    /// Creates an empty multiset.
    pub fn new() -> Self {
        PersistentMultiset {
            root: None,
            len: 0,
            fingerprint: 0,
        }
    }

    /// The entries in key order.
    fn entries(&self) -> &[Entry<E>] {
        self.root.as_deref().unwrap_or_default()
    }

    /// Total number of element occurrences.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the multiset is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of *distinct* elements.
    pub fn distinct_len(&self) -> usize {
        self.entries().len()
    }

    /// Iterates over `(element, multiplicity)` pairs in key (hash) order —
    /// deterministic for a given element set, independent of insertion
    /// order.
    pub fn iter(&self) -> Iter<'_, E> {
        Iter(self.entries().iter())
    }

    /// Records the address of this multiset's one allocation, if any, into
    /// `seen`. The resulting set size is the structure-sharing-aware memory
    /// proxy the streaming monitor reports: an allocation shared between
    /// retained versions is counted once.
    pub fn mark_nodes(&self, seen: &mut HashSet<usize>) {
        if let Some(root) = &self.root {
            seen.insert(Arc::as_ptr(root).cast::<Entry<E>>() as usize);
        }
    }
}

impl<E: Eq + Hash> PersistentMultiset<E> {
    /// The multiset of elements of a sequence (the paper's `elems`).
    pub fn elems(seq: &[E]) -> Self
    where
        E: Clone,
    {
        seq.iter().cloned().collect()
    }

    /// The multiplicity of `e` (zero if absent).
    pub fn count(&self, e: &E) -> usize {
        match &self.root {
            Some(root) => find(root, order_key(elem_hash(e)), e),
            // Nothing to look up: spare the hash.
            None => 0,
        }
    }

    /// Whether `e` occurs at least once.
    pub fn contains(&self, e: &E) -> bool {
        self.count(e) > 0
    }

    /// Multiset inclusion `self ⊆ other` (pointwise `≤`).
    pub fn is_subset_of(&self, other: &Self) -> bool {
        if self.len > other.len {
            return false;
        }
        let (mine, theirs) = (self.entries(), other.entries());
        if std::ptr::eq(mine, theirs) {
            return true;
        }
        // Both lists ascend by key: advance past every smaller key of
        // `theirs`, and read a multiplicity where the keys meet.
        let mut at = 0;
        mine.iter().all(|x| {
            while theirs.get(at).is_some_and(|y| y.key < x.key) {
                at += 1;
            }
            let have = match theirs.get(at) {
                Some(y) if y.key == x.key && y.elem == x.elem => y.count,
                // Another element of an equal hash: look it up.
                Some(y) if y.key == x.key => find(theirs, x.key, &x.elem),
                _ => 0,
            };
            x.count <= have
        })
    }
}

impl<E: Eq + Hash + Clone> PersistentMultiset<E> {
    /// Inserts one occurrence of `e`. One allocation.
    pub fn insert(&mut self, e: E) {
        self.add(e, 1);
    }

    /// Inserts `n` occurrences of `e`.
    pub fn add(&mut self, e: E, n: usize) {
        if n == 0 {
            return;
        }
        let hash = elem_hash(&e);
        let key = order_key(hash);
        let entries = self.entries();
        let run = run(entries, key);
        let (root, old_count) = match run.clone().find(|&i| entries[i].elem == e) {
            Some(i) => {
                let old = &entries[i];
                let bumped = Entry {
                    count: old.count + n,
                    ..old.clone()
                };
                (splice(entries, i..i + 1, Some(bumped)), old.count)
            }
            None => {
                let fresh = Entry {
                    key,
                    elem: e,
                    count: n,
                };
                (splice(entries, run.end..run.end, Some(fresh)), 0)
            }
        };
        self.root = Some(root);
        self.len += n;
        self.fingerprint = self
            .fingerprint
            .wrapping_sub(term(hash, old_count))
            .wrapping_add(term(hash, old_count + n));
    }

    /// Removes one occurrence of `e`; returns `false` if `e` was absent.
    pub fn remove(&mut self, e: &E) -> bool {
        let hash = elem_hash(e);
        let entries = self.entries();
        let Some(i) = run(entries, order_key(hash)).find(|&i| entries[i].elem == *e) else {
            return false;
        };
        let old = &entries[i];
        let old_count = old.count;
        let left = (old_count > 1).then(|| Entry {
            count: old_count - 1,
            ..old.clone()
        });
        self.root = (entries.len() > 1 || left.is_some()).then(|| splice(entries, i..i + 1, left));
        self.len -= 1;
        self.fingerprint = self
            .fingerprint
            .wrapping_sub(term(hash, old_count))
            .wrapping_add(term(hash, old_count - 1));
        true
    }

    /// Pointwise maximum `m1 ∪ m2` (the paper's multiset union).
    pub fn union_max(&self, other: &Self) -> Self {
        let mut out = self.clone();
        for (e, c) in other.iter() {
            let cur = out.count(e);
            if c > cur {
                out.add(e.clone(), c - cur);
            }
        }
        out
    }

    /// Pointwise sum `m1 ⊎ m2`.
    pub fn sum(&self, other: &Self) -> Self {
        let mut out = self.clone();
        for (e, c) in other.iter() {
            out.add(e.clone(), c);
        }
        out
    }
}

/// Iterator over `(&element, multiplicity)` pairs in key order.
pub struct Iter<'a, E>(std::slice::Iter<'a, Entry<E>>);

impl<'a, E> Iterator for Iter<'a, E> {
    type Item = (&'a E, usize);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|x| (&x.elem, x.count))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl<E> ExactSizeIterator for Iter<'_, E> {}

impl<E: Eq + Hash> PartialEq for PersistentMultiset<E> {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len
            || self.fingerprint != other.fingerprint
            || self.distinct_len() != other.distinct_len()
        {
            return false;
        }
        let (mine, theirs) = (self.entries(), other.entries());
        std::ptr::eq(mine, theirs)
            || mine
                .iter()
                .zip(theirs)
                .all(|(x, y)| x.key == y.key && x.count == y.count && x.elem == y.elem)
            // The walks differ: equal hashes stored in another order, or a
            // fingerprint collision. The fingerprint is a fast filter, not
            // a proof: verify pointwise so a collision can never alias two
            // multisets.
            || mine.iter().all(|x| find(theirs, x.key, &x.elem) == x.count)
    }
}

impl<E: Eq + Hash> Eq for PersistentMultiset<E> {}

impl<E> Hash for PersistentMultiset<E> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fingerprint);
        state.write_usize(self.len);
        state.write_usize(self.distinct_len());
    }
}

/// The multiset `insert`ing the elements in turn builds, in one pass: one
/// hash per element, one stable sort by key, and the node allocated once.
/// A single element is one allocation; more are one scratch vector besides.
impl<E: Eq + Hash + Clone> FromIterator<E> for PersistentMultiset<E> {
    fn from_iter<I: IntoIterator<Item = E>>(iter: I) -> Self {
        let mut elems = iter.into_iter();
        let mut m = PersistentMultiset::new();
        let Some(first) = elems.next() else {
            return m;
        };
        let Some(second) = elems.next() else {
            m.insert(first);
            return m;
        };
        let entry = |elem| {
            let key = order_key(elem_hash(&elem));
            Entry {
                key,
                elem,
                count: 1,
            }
        };
        let mut entries = Vec::with_capacity(2 + elems.size_hint().0);
        entries.extend([first, second].into_iter().chain(elems).map(entry));
        // Stable: equal keys stay in arrival order, as `add` keeps them.
        entries.sort_by_key(|x| x.key);
        // Count equal elements into their first occurrence, which a search
        // of its equal-key run finds: `entries[..kept]` are the merged
        // entries.
        m.len = entries.len();
        let mut kept = 0;
        let mut run = 0;
        for i in 0..entries.len() {
            let (merged, rest) = entries.split_at_mut(i);
            let x = &rest[0];
            if kept == 0 || merged[kept - 1].key != x.key {
                run = kept;
            }
            match merged[run..kept].iter_mut().find(|y| y.elem == x.elem) {
                Some(first) => first.count += 1,
                None => {
                    entries.swap(kept, i);
                    kept += 1;
                }
            }
        }
        entries.truncate(kept);
        m.fingerprint = entries.iter().fold(0, |sum, x| {
            // `order_key` reverses nibbles: applied twice, it is the hash.
            sum.wrapping_add(term(order_key(x.key), x.count))
        });
        m.root = Some(entries.into());
        m
    }
}

impl<E: Eq + Hash + Clone> Extend<E> for PersistentMultiset<E> {
    fn extend<I: IntoIterator<Item = E>>(&mut self, iter: I) {
        for e in iter {
            self.insert(e);
        }
    }
}

impl<E: Eq + Hash + fmt::Debug> fmt::Debug for PersistentMultiset<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// The hash trie the sorted node replaced, kept verbatim (less the algebra
/// built on its primitives) as the oracle for order, `Hash` and every
/// query: a 16-way branch per nibble of the hash, least significant first,
/// and a leaf per full hash.
#[cfg(test)]
mod trie_oracle {
    use super::{elem_hash, term};
    use std::hash::{Hash, Hasher};
    use std::sync::Arc;

    /// Bits consumed per trie level; 16-way branching.
    const BITS: u32 = 4;
    const FANOUT: usize = 1 << BITS;
    /// Levels before the full 64-bit hash is exhausted (equal hashes share a
    /// collision-bucket leaf).
    const MAX_LEVEL: u32 = 64 / BITS;

    enum Node<E> {
        Branch {
            children: [Option<Arc<Node<E>>>; FANOUT],
        },
        /// All entries share the same full 64-bit `hash` (collision bucket; a
        /// single entry in the overwhelmingly common case).
        Leaf { hash: u64, entries: Vec<(E, usize)> },
    }

    impl<E> Node<E> {
        fn empty_branch() -> Self {
            Node::Branch {
                children: Default::default(),
            }
        }
    }

    pub(super) struct PersistentMultiset<E> {
        root: Option<Arc<Node<E>>>,
        len: usize,
        distinct: usize,
        fingerprint: u64,
    }

    impl<E> Clone for PersistentMultiset<E> {
        fn clone(&self) -> Self {
            PersistentMultiset {
                root: self.root.clone(),
                len: self.len,
                distinct: self.distinct,
                fingerprint: self.fingerprint,
            }
        }
    }

    impl<E> PersistentMultiset<E> {
        /// Creates an empty multiset.
        pub(super) fn new() -> Self {
            PersistentMultiset {
                root: None,
                len: 0,
                distinct: 0,
                fingerprint: 0,
            }
        }

        /// Total number of element occurrences.
        pub(super) fn len(&self) -> usize {
            self.len
        }

        /// Number of *distinct* elements.
        pub(super) fn distinct_len(&self) -> usize {
            self.distinct
        }

        /// Iterates over `(element, multiplicity)` pairs in trie (hash) order —
        /// deterministic for a given element set, independent of insertion
        /// order.
        pub(super) fn iter(&self) -> Iter<'_, E> {
            Iter {
                stack: self.root.iter().map(|n| (&**n, 0)).collect(),
            }
        }
    }

    impl<E: Eq + Hash> PersistentMultiset<E> {
        /// The multiplicity of `e` (zero if absent).
        pub(super) fn count(&self, e: &E) -> usize {
            if self.root.is_none() {
                // Nothing to look up: spare the hash.
                return 0;
            }
            let hash = elem_hash(e);
            let mut node = self.root.as_deref();
            let mut level = 0;
            while let Some(n) = node {
                match n {
                    Node::Branch { children } => {
                        node = children[nibble(hash, level)].as_deref();
                        level += 1;
                    }
                    Node::Leaf { hash: lh, entries } => {
                        if *lh != hash {
                            return 0;
                        }
                        return entries
                            .iter()
                            .find(|(x, _)| x == e)
                            .map(|(_, c)| *c)
                            .unwrap_or(0);
                    }
                }
            }
            0
        }

        /// Multiset inclusion `self ⊆ other` (pointwise `≤`).
        pub(super) fn is_subset_of(&self, other: &Self) -> bool {
            if self.len > other.len {
                return false;
            }
            if let (Some(a), Some(b)) = (&self.root, &other.root) {
                if Arc::ptr_eq(a, b) {
                    return true;
                }
            }
            self.iter().all(|(e, c)| c <= other.count(e))
        }
    }

    impl<E: Eq + Hash + Clone> PersistentMultiset<E> {
        /// Inserts `n` occurrences of `e`.
        pub(super) fn add(&mut self, e: E, n: usize) {
            if n == 0 {
                return;
            }
            let hash = elem_hash(&e);
            let (root, old_count) = insert_node(self.root.as_ref(), 0, hash, e, n);
            self.root = Some(root);
            if old_count == 0 {
                self.distinct += 1;
            }
            self.len += n;
            self.fingerprint = self
                .fingerprint
                .wrapping_sub(term(hash, old_count))
                .wrapping_add(term(hash, old_count + n));
        }

        /// Removes one occurrence of `e`; returns `false` if `e` was absent.
        pub(super) fn remove(&mut self, e: &E) -> bool {
            let hash = elem_hash(e);
            let Some(root) = self.root.as_ref() else {
                return false;
            };
            let Some((new_root, old_count)) = remove_node(root, 0, hash, e) else {
                return false;
            };
            self.root = new_root;
            self.len -= 1;
            if old_count == 1 {
                self.distinct -= 1;
            }
            self.fingerprint = self
                .fingerprint
                .wrapping_sub(term(hash, old_count))
                .wrapping_add(term(hash, old_count - 1));
            true
        }
    }

    /// Path-copying insert: returns the new subtree root and the element's
    /// previous multiplicity.
    fn insert_node<E: Eq + Hash + Clone>(
        node: Option<&Arc<Node<E>>>,
        level: u32,
        hash: u64,
        e: E,
        n: usize,
    ) -> (Arc<Node<E>>, usize) {
        match node.map(|n| &**n) {
            None => (
                Arc::new(Node::Leaf {
                    hash,
                    entries: vec![(e, n)],
                }),
                0,
            ),
            Some(Node::Leaf {
                hash: lh,
                entries: old,
            }) => {
                if *lh == hash {
                    let mut entries = old.clone();
                    match entries.iter_mut().find(|(x, _)| *x == e) {
                        Some((_, c)) => {
                            let prev = *c;
                            *c += n;
                            (Arc::new(Node::Leaf { hash, entries }), prev)
                        }
                        None => {
                            entries.push((e, n));
                            (Arc::new(Node::Leaf { hash, entries }), 0)
                        }
                    }
                } else {
                    debug_assert!(level < MAX_LEVEL, "distinct hashes diverge in 16 levels");
                    // Split: push the existing leaf one level down, then insert.
                    let mut branch = Node::empty_branch();
                    if let Node::Branch { children } = &mut branch {
                        children[nibble(*lh, level)] = node.cloned();
                    }
                    let branch = Arc::new(branch);
                    insert_node(Some(&branch), level, hash, e, n)
                }
            }
            Some(Node::Branch { children }) => {
                let slot = nibble(hash, level);
                let (child, prev) = insert_node(children[slot].as_ref(), level + 1, hash, e, n);
                let mut children = children.clone();
                children[slot] = Some(child);
                (Arc::new(Node::Branch { children }), prev)
            }
        }
    }

    /// Path-copying removal of one occurrence: `None` when the element is
    /// absent, otherwise the new subtree (or `None` when it emptied) plus the
    /// previous multiplicity.
    #[allow(clippy::type_complexity)]
    fn remove_node<E: Eq + Hash + Clone>(
        node: &Arc<Node<E>>,
        level: u32,
        hash: u64,
        e: &E,
    ) -> Option<(Option<Arc<Node<E>>>, usize)> {
        match &**node {
            Node::Leaf { hash: lh, entries } => {
                if *lh != hash {
                    return None;
                }
                let pos = entries.iter().position(|(x, _)| x == e)?;
                let prev = entries[pos].1;
                let mut entries = entries.clone();
                if prev == 1 {
                    entries.remove(pos);
                } else {
                    entries[pos].1 -= 1;
                }
                let next = if entries.is_empty() {
                    None
                } else {
                    Some(Arc::new(Node::Leaf { hash, entries }))
                };
                Some((next, prev))
            }
            Node::Branch { children } => {
                let slot = nibble(hash, level);
                let child = children[slot].as_ref()?;
                let (new_child, prev) = remove_node(child, level + 1, hash, e)?;
                let mut children = children.clone();
                children[slot] = new_child;
                let next = if children.iter().all(|c| c.is_none()) {
                    None
                } else {
                    Some(Arc::new(Node::Branch { children }))
                };
                Some((next, prev))
            }
        }
    }

    fn nibble(hash: u64, level: u32) -> usize {
        if level >= MAX_LEVEL {
            // Hash bits exhausted: everything still colliding shares a bucket.
            0
        } else {
            ((hash >> (level * BITS)) & (FANOUT as u64 - 1)) as usize
        }
    }

    /// Iterator over `(&element, multiplicity)` pairs in trie order.
    pub(super) struct Iter<'a, E> {
        /// `(node, next child / entry index)` stack.
        stack: Vec<(&'a Node<E>, usize)>,
    }

    impl<'a, E> Iterator for Iter<'a, E> {
        type Item = (&'a E, usize);

        fn next(&mut self) -> Option<Self::Item> {
            while let Some((node, pos)) = self.stack.last_mut() {
                match node {
                    Node::Leaf { entries, .. } => {
                        if *pos < entries.len() {
                            let (e, c) = &entries[*pos];
                            *pos += 1;
                            return Some((e, *c));
                        }
                        self.stack.pop();
                    }
                    Node::Branch { children } => {
                        let mut advanced = false;
                        while *pos < FANOUT {
                            let slot = *pos;
                            *pos += 1;
                            if let Some(child) = &children[slot] {
                                self.stack.push((&**child, 0));
                                advanced = true;
                                break;
                            }
                        }
                        if !advanced {
                            // Re-borrow check: the push above invalidated
                            // `node`/`pos`; only pop when nothing was pushed.
                            if let Some((Node::Branch { .. }, p)) = self.stack.last() {
                                if *p >= FANOUT {
                                    self.stack.pop();
                                }
                            }
                        }
                    }
                }
            }
            None
        }
    }

    impl<E: Eq + Hash> PartialEq for PersistentMultiset<E> {
        fn eq(&self, other: &Self) -> bool {
            if self.len != other.len
                || self.distinct != other.distinct
                || self.fingerprint != other.fingerprint
            {
                return false;
            }
            match (&self.root, &other.root) {
                (None, None) => true,
                (Some(a), Some(b)) if Arc::ptr_eq(a, b) => true,
                // The fingerprint is a fast filter, not a proof: verify
                // pointwise so a hash collision can never alias two multisets.
                _ => self.iter().all(|(e, c)| other.count(e) == c),
            }
        }
    }

    impl<E> Hash for PersistentMultiset<E> {
        fn hash<H: Hasher>(&self, state: &mut H) {
            state.write_u64(self.fingerprint);
            state.write_usize(self.len);
            state.write_usize(self.distinct);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn ms(items: &[u32]) -> PersistentMultiset<u32> {
        items.iter().copied().collect()
    }

    #[test]
    fn empty_has_no_elements() {
        let m: PersistentMultiset<u32> = PersistentMultiset::new();
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.count(&7), 0);
        assert!(!m.contains(&7));
        assert_eq!(m.iter().count(), 0);
    }

    #[test]
    fn elems_counts_occurrences() {
        let m = PersistentMultiset::elems(&[1, 1, 2]);
        assert_eq!(m.count(&1), 2);
        assert_eq!(m.count(&2), 1);
        assert_eq!(m.len(), 3);
        assert_eq!(m.distinct_len(), 2);
    }

    #[test]
    fn union_is_pointwise_max() {
        let a = ms(&[1, 1, 2]);
        let b = ms(&[1, 2, 2, 3]);
        let u = a.union_max(&b);
        assert_eq!(u.count(&1), 2);
        assert_eq!(u.count(&2), 2);
        assert_eq!(u.count(&3), 1);
    }

    #[test]
    fn sum_is_pointwise_addition() {
        let a = ms(&[1, 1]);
        let b = ms(&[1, 2]);
        let s = a.sum(&b);
        assert_eq!(s.count(&1), 3);
        assert_eq!(s.count(&2), 1);
    }

    #[test]
    fn subset_respects_multiplicity() {
        assert!(ms(&[1]).is_subset_of(&ms(&[1, 1])));
        assert!(!ms(&[1, 1]).is_subset_of(&ms(&[1])));
        assert!(ms(&[]).is_subset_of(&ms(&[])));
        assert!(!ms(&[9]).is_subset_of(&ms(&[1])));
    }

    #[test]
    fn remove_decrements_and_cleans_up() {
        let mut m = ms(&[4, 4]);
        assert!(m.remove(&4));
        assert_eq!(m.count(&4), 1);
        assert!(m.remove(&4));
        assert!(!m.contains(&4));
        assert!(!m.remove(&4));
        assert!(m.is_empty());
        assert!(m.root.is_none(), "an empty multiset holds no node");
    }

    #[test]
    fn equality_and_hash_ignore_insertion_order() {
        let a = ms(&[1, 2, 1]);
        let b = ms(&[1, 1, 2]);
        assert_eq!(a, b);
        let hash = |m: &PersistentMultiset<u32>| {
            let mut h = DefaultHasher::new();
            m.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
        assert_ne!(ms(&[1, 2]), ms(&[1, 1, 2]));
    }

    #[test]
    fn clone_shares_structure_and_stays_immutable() {
        let a: PersistentMultiset<u32> = (0..100).collect();
        let snapshot = a.clone();
        let mut b = a.clone();
        b.insert(7);
        b.remove(&13);
        assert_eq!(a, snapshot);
        assert_eq!(a.count(&7), 1);
        assert_eq!(b.count(&7), 2);
        assert_eq!(b.count(&13), 0);

        // Shared nodes are counted once across versions.
        let mut seen = HashSet::new();
        a.mark_nodes(&mut seen);
        let alone = seen.len();
        snapshot.mark_nodes(&mut seen);
        assert_eq!(seen.len(), alone, "a full clone adds zero nodes");
    }

    #[test]
    fn every_size_is_one_allocation_and_a_clone_stays_put() {
        for distinct in [1u64, 32, 33, 2000] {
            let built: PersistentMultiset<u64> = (0..distinct).chain([0, 0]).collect();
            let mut inserted = PersistentMultiset::new();
            for i in (0..distinct).chain([0, 0]) {
                inserted.insert(i);
            }
            for m in [&built, &inserted] {
                let mut seen = HashSet::from([usize::MAX]);
                m.mark_nodes(&mut seen);
                assert_eq!(seen.len(), 2, "{distinct} distinct: one address");
            }
            let counts = |m: &PersistentMultiset<u64>| -> Vec<usize> {
                (0..distinct + 8).map(|i| m.count(&i)).collect()
            };
            let walk = |m: &PersistentMultiset<u64>| -> Vec<(u64, usize)> {
                m.iter().map(|(e, n)| (*e, n)).collect()
            };
            let before = (counts(&built), hash_of(&built), walk(&built));
            let mut fork = built.clone();
            fork.insert(distinct / 2);
            fork.insert(distinct + 7);
            assert!(fork.remove(&0));
            assert_eq!((counts(&built), hash_of(&built), walk(&built)), before);
            assert_eq!(built, inserted);
        }
    }

    #[test]
    fn snapshots_share_sublinearly() {
        // n cumulative snapshots of an n-element build hold one node each,
        // not one per element.
        let mut cur: PersistentMultiset<u32> = PersistentMultiset::new();
        let mut snaps = Vec::new();
        for i in 0..256u32 {
            cur.insert(i % 16);
            snaps.push(cur.clone());
        }
        let mut seen = HashSet::new();
        for s in &snaps {
            s.mark_nodes(&mut seen);
        }
        assert!(
            seen.len() < 256 * 16,
            "unique nodes {} must stay far below copies × alphabet",
            seen.len()
        );
    }

    #[test]
    fn iteration_is_deterministic_and_complete() {
        let a = ms(&[5, 3, 3, 9, 1]);
        let b = ms(&[1, 3, 9, 3, 5]);
        let va: Vec<(u32, usize)> = a.iter().map(|(e, c)| (*e, c)).collect();
        let vb: Vec<(u32, usize)> = b.iter().map(|(e, c)| (*e, c)).collect();
        assert_eq!(va, vb, "iteration order is insertion-order independent");
        assert_eq!(va.iter().map(|(_, c)| c).sum::<usize>(), 5);
    }

    #[test]
    fn deep_collisions_fall_into_buckets() {
        // Two thousand distinct elements in one node, each with its own
        // multiplicity.
        let mut m: PersistentMultiset<u64> = PersistentMultiset::new();
        for i in 0..2000u64 {
            m.add(i, (i as usize % 3) + 1);
        }
        for i in 0..2000u64 {
            assert_eq!(m.count(&i), (i as usize % 3) + 1, "i={i}");
        }
        assert_eq!(m.distinct_len(), 2000);
    }

    #[test]
    fn a_multiset_is_four_words() {
        // A root pointer to a slice, the length and the fingerprint: the
        // distinct count is read off the root. A fifth word showed as
        // session set-up time on the streaming benchmarks.
        assert_eq!(std::mem::size_of::<PersistentMultiset<u64>>(), 32);
    }

    /// An element whose hash is its `class` alone: members of one class
    /// have equal 64-bit hashes.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Clash {
        class: u64,
        id: usize,
    }

    impl Hash for Clash {
        fn hash<H: Hasher>(&self, state: &mut H) {
            self.class.hash(state);
        }
    }

    fn hash_of(m: &impl Hash) -> u64 {
        let mut h = DefaultHasher::new();
        m.hash(&mut h);
        h.finish()
    }

    type Oracle = trie_oracle::PersistentMultiset<Clash>;

    /// Every observable of `m` equals the oracle's `o`, and of each pair
    /// against an earlier state (`m0`, `o0`).
    fn agree(
        m: &PersistentMultiset<Clash>,
        o: &Oracle,
        m0: &PersistentMultiset<Clash>,
        o0: &Oracle,
        alphabet: &[Clash],
    ) {
        let walk: Vec<(&Clash, usize)> = m.iter().collect();
        assert_eq!(walk, o.iter().collect::<Vec<_>>());
        assert_eq!(hash_of(m), hash_of(o));
        assert_eq!((m.len(), m.distinct_len()), (o.len(), o.distinct_len()));
        for e in alphabet {
            assert_eq!(m.count(e), o.count(e), "{e:?}");
        }
        // The same multiset built in reverse order: equal hashes now sit
        // in the opposite order, so equality must decide pointwise.
        let mut rebuilt = PersistentMultiset::new();
        for (e, c) in walk.iter().rev() {
            rebuilt.add((*e).clone(), *c);
        }
        assert_eq!(*m, rebuilt);
        assert_eq!(rebuilt, *m);
        assert_eq!(hash_of(&rebuilt), hash_of(m));
        assert!(m.is_subset_of(&rebuilt) && rebuilt.is_subset_of(m));
        assert_eq!(*m == *m0, *o == *o0);
        assert_eq!(*m0 == *m, *o0 == *o);
        assert_eq!(m.is_subset_of(m0), o.is_subset_of(o0));
        assert_eq!(m0.is_subset_of(m), o0.is_subset_of(o));
        assert_eq!(rebuilt.is_subset_of(m0), o.is_subset_of(o0));
    }

    /// Random `add` / `remove` sequences over alphabets of 1–300 elements,
    /// some sharing a hash with others and some sharing hash prefixes,
    /// against the trie.
    #[test]
    fn buckets_agree_with_the_trie_oracle() {
        let mut state = 0u64;
        let mut draw = |bound: usize| {
            state += 1;
            (mix(state) % bound as u64) as usize
        };
        // Classes whose hashes share their three low nibbles: they take one
        // path through the first three levels before they diverge.
        let prefixed: Vec<u64> = (0u64..)
            .filter(|v| elem_hash(v) & 0xFFF == 0)
            .take(150)
            .collect();
        for case in 0..24u64 {
            let per_class = [1, 1, 2, 3, 8][draw(5)];
            let alphabet: Vec<Clash> = (0..1 + draw(300))
                .map(|id| {
                    let k = id / per_class;
                    let class = if k % 2 == 0 {
                        prefixed[k / 2]
                    } else {
                        mix(k as u64 ^ case << 32)
                    };
                    Clash { class, id }
                })
                .collect();
            let (mut m, mut o) = (PersistentMultiset::new(), Oracle::new());
            let mut history = vec![(m.clone(), o.clone())];
            for _ in 0..360 {
                let e = alphabet[draw(alphabet.len())].clone();
                if draw(4) == 0 {
                    assert_eq!(m.remove(&e), o.remove(&e));
                } else {
                    let n = 1 + draw(3);
                    m.add(e.clone(), n);
                    o.add(e, n);
                }
                let (m0, o0) = &history[draw(history.len())];
                agree(&m, &o, m0, o0, &alphabet);
                history.push((m.clone(), o.clone()));
            }
        }
    }

    /// `collect` against `add` in turn and the trie: random `(element,
    /// count)` lists over alphabets of 1–300 elements, past 32 distinct,
    /// with equal-hash classes (equal-key runs) and zero counts, collected
    /// as each element repeated its count. The one-pass build is the same
    /// multiset.
    #[test]
    fn one_pass_builds_agree_with_the_insert_build_and_the_trie_oracle() {
        let mut state = 1 << 40;
        let mut draw = |bound: usize| {
            state += 1;
            (mix(state) % bound as u64) as usize
        };
        let (mut wide, mut runs, mut zeros) = (0, 0, 0);
        for case in 0..48u64 {
            let per_class = [1, 1, 2, 3, 8][draw(5)];
            let alphabet: Vec<Clash> = (0..1 + draw(300))
                .map(|id| Clash {
                    class: mix((id / per_class) as u64 ^ case << 32),
                    id,
                })
                .collect();
            let pairs: Vec<(Clash, usize)> = (0..draw(400))
                .map(|_| (alphabet[draw(alphabet.len())].clone(), draw(4)))
                .collect();
            let (mut inserted, mut o) = (PersistentMultiset::new(), Oracle::new());
            for (e, n) in &pairs {
                inserted.add(e.clone(), *n);
                o.add(e.clone(), *n);
            }
            let one_pass: PersistentMultiset<Clash> = pairs
                .iter()
                .flat_map(|(e, n)| std::iter::repeat_n(e.clone(), *n))
                .collect();
            agree(&one_pass, &o, &inserted, &o, &alphabet);
            assert_eq!(hash_of(&one_pass), hash_of(&inserted));
            assert_eq!(
                one_pass.iter().collect::<Vec<_>>(),
                inserted.iter().collect::<Vec<_>>()
            );
            wide += usize::from(one_pass.distinct_len() > 32);
            runs += usize::from(per_class > 1 && one_pass.distinct_len() > 1);
            zeros += pairs.iter().filter(|(_, n)| *n == 0).count();
        }
        assert!(wide > 0 && runs > 0 && zeros > 0, "{wide} {runs} {zeros}");
    }

    #[test]
    fn a_one_element_build_is_one_node_of_one_cell() {
        for n in 1..4 {
            let m = ms(&vec![9; n]);
            let root = m.root.as_deref().expect("non-empty");
            assert_eq!((root.len(), m.len(), m.count(&9)), (1, n, n));
        }
        assert!(ms(&[]).root.is_none());
    }
}
