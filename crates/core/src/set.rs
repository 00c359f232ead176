//! The abstract sstable: a set of keys.

use std::collections::BTreeSet;

/// An sstable modelled as a set of 64-bit keys, as in the paper's
/// problem formulation (Section 2): all key-value pairs are assumed to be
/// the same size and values comprehensive, so an sstable *is* its key set
/// and a merge is a set union.
///
/// Internally a sorted, de-duplicated `Vec<u64>`, which makes unions and
/// intersection counting linear two-pointer scans.
///
/// # Examples
///
/// ```
/// use compaction_core::KeySet;
///
/// let a = KeySet::from_iter([1u64, 2, 3, 5]);
/// let b = KeySet::from_iter([3u64, 4, 5]);
/// assert_eq!(a.len(), 4);
/// assert_eq!(a.union(&b).len(), 5);
/// assert_eq!(a.intersection_size(&b), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct KeySet {
    keys: Vec<u64>,
}

impl KeySet {
    /// Creates an empty key set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a key set from an arbitrary (possibly unsorted, possibly
    /// duplicated) vector of keys.
    #[must_use]
    pub fn from_vec(mut keys: Vec<u64>) -> Self {
        keys.sort_unstable();
        keys.dedup();
        Self { keys }
    }

    /// Creates a key set holding the contiguous range `start..end`.
    #[must_use]
    pub fn from_range(range: std::ops::Range<u64>) -> Self {
        Self {
            keys: range.collect(),
        }
    }

    /// Number of distinct keys (the paper's `|A_i|`, i.e. the sstable
    /// size).
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` if the set holds no keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Returns `true` if `key` is in the set.
    #[must_use]
    pub fn contains(&self, key: u64) -> bool {
        self.keys.binary_search(&key).is_ok()
    }

    /// The keys in ascending order.
    #[must_use]
    pub fn as_slice(&self) -> &[u64] {
        &self.keys
    }

    /// Iterates the keys in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.keys.iter().copied()
    }

    /// Inserts a key, keeping the set sorted. Returns `true` if the key
    /// was not already present.
    pub fn insert(&mut self, key: u64) -> bool {
        match self.keys.binary_search(&key) {
            Ok(_) => false,
            Err(pos) => {
                self.keys.insert(pos, key);
                true
            }
        }
    }

    /// The union of two sets (a single merge operation's output).
    #[must_use]
    pub fn union(&self, other: &Self) -> Self {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.keys.len() && j < other.keys.len() {
            match self.keys[i].cmp(&other.keys[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.keys[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.keys[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.keys[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.keys[i..]);
        out.extend_from_slice(&other.keys[j..]);
        Self { keys: out }
    }

    /// Unions an arbitrary number of sets (a k-way merge output).
    #[must_use]
    pub fn union_many<'a, I>(sets: I) -> Self
    where
        I: IntoIterator<Item = &'a KeySet>,
    {
        let mut acc = KeySet::new();
        for s in sets {
            acc = acc.union(s);
        }
        acc
    }

    /// `|self ∪ other|` without materializing the union.
    #[must_use]
    pub fn union_size(&self, other: &Self) -> usize {
        self.len() + other.len() - self.intersection_size(other)
    }

    /// `|self ∩ other|` without materializing the intersection.
    #[must_use]
    pub fn intersection_size(&self, other: &Self) -> usize {
        let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
        while i < self.keys.len() && j < other.keys.len() {
            match self.keys[i].cmp(&other.keys[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }

    /// Returns `true` if the two sets share no key.
    #[must_use]
    pub fn is_disjoint(&self, other: &Self) -> bool {
        self.intersection_size(other) == 0
    }

    /// Relabels every key to `(key, set_index)` flattened into a single
    /// integer, producing the *dummy sets* of the paper's Algorithm 2
    /// (`FREQBINARYMERGING`): dummy sets built this way are pairwise
    /// disjoint while preserving every set's cardinality.
    ///
    /// The encoding packs the set index into the upper 16 bits, so it
    /// supports up to 65 536 initial sets and keys below `2^48`; both are
    /// far beyond any compaction instance in the evaluation.
    #[must_use]
    pub fn relabel_disjoint(&self, set_index: usize) -> Self {
        let tag = (set_index as u64) << 48;
        Self {
            keys: self
                .keys
                .iter()
                .map(|k| (k & 0x0000_FFFF_FFFF_FFFF) | tag)
                .collect(),
        }
    }
}

impl FromIterator<u64> for KeySet {
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        Self::from_vec(iter.into_iter().collect())
    }
}

impl Extend<u64> for KeySet {
    fn extend<T: IntoIterator<Item = u64>>(&mut self, iter: T) {
        let mut set: BTreeSet<u64> = self.keys.iter().copied().collect();
        set.extend(iter);
        self.keys = set.into_iter().collect();
    }
}

impl From<Vec<u64>> for KeySet {
    fn from(keys: Vec<u64>) -> Self {
        Self::from_vec(keys)
    }
}

impl<'a> IntoIterator for &'a KeySet {
    type Item = u64;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, u64>>;

    fn into_iter(self) -> Self::IntoIter {
        self.keys.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_sorts_and_dedups() {
        let s = KeySet::from_vec(vec![5, 1, 3, 3, 1]);
        assert_eq!(s.as_slice(), &[1, 3, 5]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(s.contains(3));
        assert!(!s.contains(4));
    }

    #[test]
    fn union_and_sizes() {
        let a = KeySet::from_iter([1u64, 2, 3, 5]);
        let b = KeySet::from_iter([3u64, 4, 5]);
        let u = a.union(&b);
        assert_eq!(u.as_slice(), &[1, 2, 3, 4, 5]);
        assert_eq!(a.union_size(&b), 5);
        assert_eq!(a.intersection_size(&b), 2);
        assert!(!a.is_disjoint(&b));
        let c = KeySet::from_iter([10u64, 11]);
        assert!(a.is_disjoint(&c));
        assert_eq!(a.union_size(&c), 6);
    }

    #[test]
    fn union_many_folds_left() {
        let sets = vec![
            KeySet::from_iter([1u64, 2]),
            KeySet::from_iter([2u64, 3]),
            KeySet::from_iter([4u64]),
        ];
        let u = KeySet::union_many(&sets);
        assert_eq!(u.as_slice(), &[1, 2, 3, 4]);
        assert_eq!(KeySet::union_many([]).len(), 0);
    }

    #[test]
    fn insert_keeps_sorted_and_reports_novelty() {
        let mut s = KeySet::from_iter([2u64, 4]);
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert_eq!(s.as_slice(), &[2, 3, 4]);
    }

    #[test]
    fn empty_and_range_constructors() {
        assert!(KeySet::new().is_empty());
        let r = KeySet::from_range(5..9);
        assert_eq!(r.as_slice(), &[5, 6, 7, 8]);
    }

    #[test]
    fn relabel_disjoint_preserves_size_and_disjointness() {
        let a = KeySet::from_iter([1u64, 2, 3]);
        let b = KeySet::from_iter([1u64, 2, 3]);
        let a1 = a.relabel_disjoint(0);
        let b1 = b.relabel_disjoint(1);
        assert_eq!(a1.len(), 3);
        assert_eq!(b1.len(), 3);
        assert!(a1.is_disjoint(&b1));
        // Same set index keeps identical keys identical.
        assert_eq!(a.relabel_disjoint(2), b.relabel_disjoint(2));
    }

    #[test]
    fn extend_and_iterators() {
        let mut s = KeySet::from_iter([1u64, 5]);
        s.extend([2u64, 5, 7]);
        assert_eq!(s.as_slice(), &[1, 2, 5, 7]);
        let collected: Vec<u64> = (&s).into_iter().collect();
        assert_eq!(collected, vec![1, 2, 5, 7]);
        assert_eq!(s.iter().sum::<u64>(), 15);
    }
}
