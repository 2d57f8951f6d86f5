//! Index identifiers and small index sets.
//!
//! Every distinct index letter of an SpTTN kernel (e.g. `i, j, k, r, s`
//! in the order-3 TTMc `S(i,r,s) = T(i,j,k)·U(j,r)·V(k,s)`) gets a small
//! integer [`IndexId`]. Sets of indices are bitsets ([`IdxSet`]), which
//! keeps the Algorithm-1 dynamic program's memo keys compact: the paper's
//! subproblems are (term subsequence, set of already-iterated indices).

/// Identifier of a kernel index (position in [`crate::Kernel::indices`]).
pub type IndexId = usize;

/// Maximum number of distinct indices per kernel (bitset width).
pub const MAX_INDICES: usize = 64;

/// A set of [`IndexId`]s as a 64-bit bitset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct IdxSet(pub u64);

impl IdxSet {
    /// The empty set.
    pub const EMPTY: IdxSet = IdxSet(0);

    /// Singleton set.
    #[inline]
    pub fn single(i: IndexId) -> IdxSet {
        debug_assert!(i < MAX_INDICES);
        IdxSet(1u64 << i)
    }

    /// True when `i` is in the set.
    #[inline]
    pub fn contains(self, i: IndexId) -> bool {
        debug_assert!(i < MAX_INDICES);
        self.0 & (1u64 << i) != 0
    }

    /// Set with `i` added.
    #[inline]
    #[must_use]
    pub fn insert(self, i: IndexId) -> IdxSet {
        debug_assert!(i < MAX_INDICES);
        IdxSet(self.0 | (1u64 << i))
    }

    /// Set with `i` removed.
    #[inline]
    #[must_use]
    pub fn remove(self, i: IndexId) -> IdxSet {
        debug_assert!(i < MAX_INDICES);
        IdxSet(self.0 & !(1u64 << i))
    }

    /// Union.
    #[inline]
    #[must_use]
    pub fn union(self, other: IdxSet) -> IdxSet {
        IdxSet(self.0 | other.0)
    }

    /// Intersection.
    #[inline]
    #[must_use]
    pub fn intersect(self, other: IdxSet) -> IdxSet {
        IdxSet(self.0 & other.0)
    }

    /// Set difference `self \ other`.
    #[inline]
    #[must_use]
    pub fn minus(self, other: IdxSet) -> IdxSet {
        IdxSet(self.0 & !other.0)
    }

    /// True when the intersection is non-empty.
    #[inline]
    pub fn intersects(self, other: IdxSet) -> bool {
        self.0 & other.0 != 0
    }

    /// True when `self ⊆ other`.
    #[inline]
    pub fn is_subset(self, other: IdxSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of elements.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterate members in ascending id order.
    pub fn iter(self) -> impl Iterator<Item = IndexId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(i)
            }
        })
    }

    /// Members as a vector in ascending id order.
    pub fn to_vec(self) -> Vec<IndexId> {
        self.iter().collect()
    }
}

impl FromIterator<IndexId> for IdxSet {
    /// Build from an iterator of ids.
    fn from_iter<T: IntoIterator<Item = IndexId>>(ids: T) -> IdxSet {
        let mut s = IdxSet::EMPTY;
        for i in ids {
            s = s.insert(i);
        }
        s
    }
}

impl std::fmt::Display for IdxSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (n, i) in self.iter().enumerate() {
            if n > 0 {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
        }
        write!(f, "}}")
    }
}

/// Metadata for one kernel index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexInfo {
    /// Human-readable name (the einsum letter).
    pub name: String,
    /// Dimension size.
    pub dim: usize,
    /// `Some(level)` when this index is a mode of the sparse tensor,
    /// giving its CSF tree level (position in the sparse tensor's stored
    /// mode order). `None` for dense-only indices.
    pub sparse_level: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_basic_ops() {
        let s = IdxSet::from_iter([1, 3, 5]);
        assert!(s.contains(3));
        assert!(!s.contains(2));
        assert_eq!(s.len(), 3);
        assert_eq!(s.to_vec(), vec![1, 3, 5]);
        assert_eq!(s.insert(2).len(), 4);
        assert_eq!(s.remove(3).to_vec(), vec![1, 5]);
    }

    #[test]
    fn set_algebra() {
        let a = IdxSet::from_iter([0, 1, 2]);
        let b = IdxSet::from_iter([2, 3]);
        assert_eq!(a.union(b).to_vec(), vec![0, 1, 2, 3]);
        assert_eq!(a.intersect(b).to_vec(), vec![2]);
        assert_eq!(a.minus(b).to_vec(), vec![0, 1]);
        assert!(a.intersects(b));
        assert!(!a.intersects(IdxSet::from_iter([4])));
        assert!(IdxSet::from_iter([1]).is_subset(a));
        assert!(!a.is_subset(b));
    }

    #[test]
    fn empty_set() {
        assert!(IdxSet::EMPTY.is_empty());
        assert_eq!(IdxSet::EMPTY.len(), 0);
        assert_eq!(IdxSet::EMPTY.iter().count(), 0);
    }

    #[test]
    fn display_format() {
        assert_eq!(IdxSet::from_iter([0, 2]).to_string(), "{0,2}");
        assert_eq!(IdxSet::EMPTY.to_string(), "{}");
    }
}
