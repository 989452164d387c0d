//! Structure-sharing persistent multisets.
//!
//! [`PersistentMultiset`] exposes the same multiset algebra as
//! [`crate::Multiset`] — `union_max` (`∪`, pointwise max), `sum` (`⊎`,
//! pointwise addition), `is_subset_of` (`⊆`), `count`, `elems` — but is
//! backed by a hash-array-mapped trie whose nodes are shared between
//! versions through [`Arc`]. Cloning is O(1) and inserting or removing one
//! occurrence copies only the O(log distinct) path to the touched leaf, so
//! a *sequence* of cumulative snapshots (one per trace index, the
//! checkers' validity bounds) costs O(n) total instead of
//! O(n · alphabet).
//!
//! Two extra properties matter to the checker engines:
//!
//! * **Semantic equality and hashing.** Two multisets with equal
//!   multiplicity functions are `==` and hash identically regardless of
//!   construction order: the hash is an incrementally-maintained
//!   commutative fingerprint over `(element, multiplicity)` pairs, so a
//!   `PersistentMultiset` can sit directly inside a `HashSet` memo key —
//!   no sorting into a canonical `Vec` per lookup.
//! * **Deterministic iteration.** [`PersistentMultiset::iter`] walks the
//!   trie in hash order, which is a pure function of the elements (the
//!   hasher is fixed-key), never of insertion order.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Bits consumed per trie level; 16-way branching.
const BITS: u32 = 4;
const FANOUT: usize = 1 << BITS;
/// Levels before the full 64-bit hash is exhausted (equal hashes share a
/// collision-bucket leaf).
const MAX_LEVEL: u32 = 64 / BITS;

/// The stable per-element hash the trie is addressed by.
fn elem_hash<E: Hash>(e: &E) -> u64 {
    let mut h = DefaultHasher::new();
    e.hash(&mut h);
    h.finish()
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
/// let snapshot = a.clone(); // O(1): shares every node
/// let mut b = a.clone();
/// b.insert("y");
/// assert_eq!(a.count(&"x"), 2);
/// assert_eq!(a, snapshot);
/// assert_eq!(b.count(&"y"), 2);
/// assert!(a.is_subset_of(&b));
/// ```
pub struct PersistentMultiset<E> {
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
            distinct: 0,
            fingerprint: 0,
        }
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
        self.distinct
    }

    /// Iterates over `(element, multiplicity)` pairs in trie (hash) order —
    /// deterministic for a given element set, independent of insertion
    /// order.
    pub fn iter(&self) -> Iter<'_, E> {
        Iter {
            stack: self.root.iter().map(|n| (&**n, 0)).collect(),
        }
    }

    /// Records the address of every trie node reachable from this multiset
    /// into `seen`, skipping already-visited (shared) subtrees. The
    /// resulting set size is the structure-sharing-aware memory proxy the
    /// streaming monitor reports: nodes shared between retained snapshots
    /// are counted once.
    pub fn mark_nodes(&self, seen: &mut HashSet<usize>) {
        fn walk<E>(node: &Arc<Node<E>>, seen: &mut HashSet<usize>) {
            if !seen.insert(Arc::as_ptr(node) as usize) {
                return;
            }
            if let Node::Branch { children } = &**node {
                for child in children.iter().flatten() {
                    walk(child, seen);
                }
            }
        }
        if let Some(root) = &self.root {
            walk(root, seen);
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

    /// Whether `e` occurs at least once.
    pub fn contains(&self, e: &E) -> bool {
        self.count(e) > 0
    }

    /// Multiset inclusion `self ⊆ other` (pointwise `≤`).
    pub fn is_subset_of(&self, other: &Self) -> bool {
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
    /// Inserts one occurrence of `e`. O(log distinct) path copy.
    pub fn insert(&mut self, e: E) {
        self.add(e, 1);
    }

    /// Inserts `n` occurrences of `e`.
    pub fn add(&mut self, e: E, n: usize) {
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
    pub fn remove(&mut self, e: &E) -> bool {
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
pub struct Iter<'a, E> {
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

impl<E: Eq + Hash> Eq for PersistentMultiset<E> {}

impl<E> Hash for PersistentMultiset<E> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fingerprint);
        state.write_usize(self.len);
        state.write_usize(self.distinct);
    }
}

impl<E: Eq + Hash + Clone> FromIterator<E> for PersistentMultiset<E> {
    fn from_iter<I: IntoIterator<Item = E>>(iter: I) -> Self {
        let mut m = PersistentMultiset::new();
        for e in iter {
            m.insert(e);
        }
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

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(m.root.is_none(), "empty trie drops every node");
    }

    #[test]
    fn equality_and_hash_ignore_insertion_order() {
        use std::collections::hash_map::DefaultHasher;
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
        b.mark_nodes(&mut seen);
        assert!(
            seen.len() < alone * 2,
            "a one-element delta shares most of the trie"
        );
    }

    #[test]
    fn snapshots_share_sublinearly() {
        // The tentpole memory shape: n cumulative snapshots of an n-element
        // build hold O(n log n) unique nodes, not O(n²).
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
        // Force many elements through the trie; with only 16 slots per
        // level the test exercises splits at several depths.
        let mut m: PersistentMultiset<u64> = PersistentMultiset::new();
        for i in 0..2000u64 {
            m.add(i, (i as usize % 3) + 1);
        }
        for i in 0..2000u64 {
            assert_eq!(m.count(&i), (i as usize % 3) + 1, "i={i}");
        }
        assert_eq!(m.distinct_len(), 2000);
    }
}
