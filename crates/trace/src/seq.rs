//! Finite sequences and the prefix order (paper Section 3, "Sequences").
//!
//! The paper writes `s|m` for truncation, `s:::s'` for concatenation, and
//! defines the *longest common prefix* of a set of sequences. Histories
//! (sequences of ADT inputs) use exactly these operations, so they are kept
//! generic over the element type.

/// Returns `true` iff `p` is a (non-strict) prefix of `s`.
///
/// Every sequence is a prefix of itself, and the empty sequence is a prefix
/// of every sequence.
///
/// # Example
///
/// ```
/// use slin_trace::seq::is_prefix;
/// assert!(is_prefix(&[1, 2], &[1, 2, 3]));
/// assert!(is_prefix::<i32>(&[], &[]));
/// assert!(!is_prefix(&[2], &[1, 2]));
/// ```
pub fn is_prefix<T: PartialEq>(p: &[T], s: &[T]) -> bool {
    p.len() <= s.len() && p.iter().zip(s.iter()).all(|(a, b)| a == b)
}

/// Returns `true` iff `p` is a *strict* prefix of `s`, i.e. a prefix with
/// `p.len() < s.len()`.
///
/// # Example
///
/// ```
/// use slin_trace::seq::is_strict_prefix;
/// assert!(is_strict_prefix(&[1], &[1, 2]));
/// assert!(!is_strict_prefix(&[1, 2], &[1, 2]));
/// ```
pub fn is_strict_prefix<T: PartialEq>(p: &[T], s: &[T]) -> bool {
    p.len() < s.len() && is_prefix(p, s)
}

/// Returns `true` iff one of `a`, `b` is a prefix of the other
/// (the comparability requirement of the paper's Commit-Order predicate).
pub fn comparable<T: PartialEq>(a: &[T], b: &[T]) -> bool {
    is_prefix(a, b) || is_prefix(b, a)
}

/// Length of the longest common prefix of two sequences.
pub(crate) fn common_prefix_len<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

/// The longest common prefix of a collection of sequences.
///
/// Following the paper's convention (Definition 31), the longest common
/// prefix of an *empty* collection is the empty sequence.
///
/// # Example
///
/// ```
/// use slin_trace::seq::longest_common_prefix;
/// let hs: Vec<Vec<u32>> = vec![vec![1, 2, 3], vec![1, 2], vec![1, 2, 9]];
/// assert_eq!(longest_common_prefix(hs.iter().map(|h| h.as_slice())), vec![1, 2]);
/// let none: Vec<&[u32]> = Vec::new();
/// assert_eq!(longest_common_prefix(none.into_iter()), Vec::<u32>::new());
/// ```
pub fn longest_common_prefix<'a, T, I>(mut seqs: I) -> Vec<T>
where
    T: Clone + PartialEq + 'a,
    I: Iterator<Item = &'a [T]>,
{
    let first = match seqs.next() {
        None => return Vec::new(),
        Some(f) => f,
    };
    let mut len = first.len();
    for s in seqs {
        len = len.min(common_prefix_len(&first[..len], s));
        if len == 0 {
            return Vec::new();
        }
    }
    first[..len].to_vec()
}

/// Concatenation `s ::: s'` returning an owned sequence.
pub fn concat<T: Clone>(s: &[T], s2: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(s.len() + s2.len());
    out.extend_from_slice(s);
    out.extend_from_slice(s2);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_prefix_of_everything() {
        assert!(is_prefix::<u8>(&[], &[]));
        assert!(is_prefix(&[], &[1, 2, 3]));
    }

    #[test]
    fn prefix_reflexive_not_strict() {
        let s = [1, 2, 3];
        assert!(is_prefix(&s, &s));
        assert!(!is_strict_prefix(&s, &s));
    }

    #[test]
    fn strict_prefix_implies_prefix() {
        assert!(is_strict_prefix(&[1], &[1, 2]));
        assert!(is_prefix(&[1], &[1, 2]));
    }

    #[test]
    fn non_prefix_detected() {
        assert!(!is_prefix(&[1, 3], &[1, 2, 3]));
        assert!(!is_prefix(&[1, 2, 3, 4], &[1, 2, 3]));
    }

    #[test]
    fn comparable_in_both_directions() {
        assert!(comparable(&[1], &[1, 2]));
        assert!(comparable(&[1, 2], &[1]));
        assert!(!comparable(&[1, 2], &[1, 3]));
    }

    #[test]
    fn lcp_of_singleton_is_itself() {
        let hs = [vec![5, 6, 7]];
        assert_eq!(
            longest_common_prefix(hs.iter().map(|h| h.as_slice())),
            vec![5, 6, 7]
        );
    }

    #[test]
    fn lcp_of_disjoint_is_empty() {
        let hs = [vec![1], vec![2]];
        assert_eq!(
            longest_common_prefix(hs.iter().map(|h| h.as_slice())),
            Vec::<i32>::new()
        );
    }

    #[test]
    fn lcp_handles_contained_sequences() {
        let hs = [vec![1, 2, 3, 4], vec![1, 2]];
        assert_eq!(
            longest_common_prefix(hs.iter().map(|h| h.as_slice())),
            vec![1, 2]
        );
    }

    #[test]
    fn concat_orders_operands() {
        assert_eq!(concat(&[1, 2], &[3]), vec![1, 2, 3]);
        assert_eq!(concat::<u8>(&[], &[]), Vec::<u8>::new());
    }

    #[test]
    fn common_prefix_len_basic() {
        assert_eq!(common_prefix_len(&[1, 2, 3], &[1, 2, 9]), 2);
        assert_eq!(common_prefix_len::<u8>(&[], &[1]), 0);
    }
}
