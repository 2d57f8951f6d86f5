//! Coordinate-format (COO) sparse tensors.
//!
//! COO is the interchange format: the readers in [`crate::io`] and the
//! generators produce COO, and [`crate::Csf`] is built from it.
//! Coordinates are stored entry-major (array-of-structs): one flat `Vec`
//! holding each nonzero's `order` coordinates together, so a comparison
//! of two entries, as sorting and counting do, reads two short runs.

use crate::{DenseTensor, TensorError};
use std::sync::Arc;

/// A sparse tensor in coordinate format.
///
/// Invariant maintained by all constructors: coordinates are in-bounds.
/// Sorting/deduplication is explicit via [`CooTensor::sort_dedup`].
#[derive(Debug, Clone, PartialEq)]
pub struct CooTensor {
    dims: Vec<usize>,
    /// Flat coordinates: entry `e` occupies `coords[e*order .. (e+1)*order]`.
    /// Shared by the tensors [`CooTensor::with_vals`] and `clone` make,
    /// and copied on write.
    coords: Arc<Vec<usize>>,
    vals: Vec<f64>,
}

impl CooTensor {
    /// Create an empty COO tensor with the given dimensions.
    pub fn new(dims: &[usize]) -> Result<Self, TensorError> {
        if dims.contains(&0) {
            return Err(TensorError::ZeroDim);
        }
        Ok(CooTensor {
            dims: dims.to_vec(),
            coords: Arc::default(),
            vals: Vec::new(),
        })
    }

    /// Build from parallel coordinate/value lists.
    pub fn from_entries(
        dims: &[usize],
        entries: impl IntoIterator<Item = (Vec<usize>, f64)>,
    ) -> Result<Self, TensorError> {
        let mut t = CooTensor::new(dims)?;
        for (coord, v) in entries {
            t.push(&coord, v)?;
        }
        Ok(t)
    }

    /// Assemble entries a reader has already validated against `dims`:
    /// `order` coordinates per value, every one in bounds, no dimension 0.
    pub(crate) fn from_validated(dims: Vec<usize>, coords: Vec<usize>, vals: Vec<f64>) -> Self {
        debug_assert!(!dims.contains(&0));
        debug_assert_eq!(coords.len(), dims.len() * vals.len());
        CooTensor {
            dims,
            coords: Arc::new(coords),
            vals,
        }
    }

    /// Append one nonzero entry.
    pub fn push(&mut self, coord: &[usize], v: f64) -> Result<(), TensorError> {
        if coord.len() != self.dims.len() {
            return Err(TensorError::OrderMismatch {
                expected: self.dims.len(),
                actual: coord.len(),
            });
        }
        for (mode, (&c, &d)) in coord.iter().zip(self.dims.iter()).enumerate() {
            if c >= d {
                return Err(TensorError::CoordOutOfBounds {
                    mode,
                    coord: c,
                    dim: d,
                });
            }
        }
        Arc::make_mut(&mut self.coords).extend_from_slice(coord);
        self.vals.push(v);
        Ok(())
    }

    /// Dimensions of the tensor.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of modes.
    #[inline]
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// Number of stored entries (after `sort_dedup`, the nonzero count).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Coordinate of entry `e`.
    #[inline]
    pub fn coord(&self, e: usize) -> &[usize] {
        let d = self.dims.len();
        &self.coords[e * d..(e + 1) * d]
    }

    /// Value of entry `e`.
    #[inline]
    pub fn val(&self, e: usize) -> f64 {
        self.vals[e]
    }

    /// Flat coordinate storage (`order` entries per nonzero, entry
    /// order). Two tensors share a sparsity pattern exactly when their
    /// dims and flat coordinates are equal. Tensors made from one
    /// another by [`CooTensor::with_vals`] or `clone` share this very
    /// slice until one of them changes its pattern.
    #[inline]
    pub fn coords(&self) -> &[usize] {
        &self.coords
    }

    /// Values slice, parallel with entry order.
    #[inline]
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Mutable values slice (e.g. for filling an output that shares this
    /// tensor's sparsity pattern).
    #[inline]
    pub fn vals_mut(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    /// Iterate `(coordinate, value)` pairs in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (&[usize], f64)> + '_ {
        (0..self.nnz()).map(move |e| (self.coord(e), self.vals[e]))
    }

    /// Sort entries lexicographically by coordinate under the given mode
    /// order and merge duplicates by summation.
    ///
    /// `mode_order[k]` is the original mode compared at position `k`; it
    /// must be a permutation of `0..order`. Entries whose merged value is
    /// exactly zero are retained (the sparsity pattern is fixed, as the
    /// paper assumes: positions, not values, define the structure).
    ///
    /// Entries that are already strictly increasing under `mode_order`
    /// (sorted, no duplicates) are left as they are after one O(nnz)
    /// check, without the sort's permutation or copy.
    pub fn sort_dedup(&mut self, mode_order: &[usize]) -> Result<(), TensorError> {
        if !is_permutation(mode_order, self.order()) {
            return Err(TensorError::InvalidPermutation);
        }
        if self.canonical_counts(mode_order).is_none() {
            self.sort_dedup_ranks(mode_order)?;
        }
        Ok(())
    }

    /// The first-difference rule every count of distinct prefixes rests
    /// on. Walks `entries` in turn and calls `f(ell, coord)` for each
    /// one that differs from the entry before it under `order`, where
    /// `ell` is the first position `k` at which `coord[order[k]]`
    /// differs (0 for the first entry): the entry opens a new prefix of
    /// every length past `ell`. Entries equal to the one before are
    /// skipped. Returns false at the first entry smaller than the one
    /// before it, true when `entries` are nondecreasing under `order`.
    pub(crate) fn first_differences(
        &self,
        order: &[usize],
        entries: impl IntoIterator<Item = usize>,
        mut f: impl FnMut(usize, &[usize]),
    ) -> bool {
        let mut prev: Option<&[usize]> = None;
        for e in entries {
            let next = self.coord(e);
            let ell = match prev {
                None => 0,
                Some(prev) => match order.iter().position(|&m| prev[m] != next[m]) {
                    None => continue,
                    Some(ell) if next[order[ell]] < prev[order[ell]] => return false,
                    Some(ell) => ell,
                },
            };
            f(ell, next);
            prev = Some(next);
        }
        true
    }

    /// `counts[k]` = distinct projections of `entries` onto the modes
    /// `order[..=k]`, counted in one pass by
    /// [`CooTensor::first_differences`] — or `None` unless `entries`
    /// are nondecreasing under `order`.
    pub(crate) fn prefix_counts(
        &self,
        order: &[usize],
        entries: impl IntoIterator<Item = usize>,
    ) -> Option<Vec<usize>> {
        let mut counts = vec![0; order.len()];
        let sorted = self.first_differences(order, entries, |ell, _| {
            for c in &mut counts[ell..] {
                *c += 1;
            }
        });
        sorted.then_some(counts)
    }

    /// The prefix counts under `mode_order` (a valid permutation) when
    /// the entries are canonical under it — strictly increasing, what
    /// `sort_dedup` leaves unchanged: the counts exist and the last one
    /// equals nnz (with no modes, when nnz is at most 1). `None`
    /// otherwise.
    pub(crate) fn canonical_counts(&self, mode_order: &[usize]) -> Option<Vec<usize>> {
        let n = self.nnz();
        self.prefix_counts(mode_order, 0..n)
            .filter(|counts| counts.last().map_or(n <= 1, |&last| last == n))
    }

    /// [`CooTensor::sort_dedup`], returning the sort itself: incoming
    /// entry `ranks[k]` sorted to rank `k` (before duplicates merged —
    /// with distinct entries, rank `k` is entry `k` of the result).
    /// Duplicates are summed in input order.
    pub(crate) fn sort_dedup_ranks(
        &mut self,
        mode_order: &[usize],
    ) -> Result<Vec<usize>, TensorError> {
        let d = self.dims.len();
        if !is_permutation(mode_order, d) {
            return Err(TensorError::InvalidPermutation);
        }
        let n = self.nnz();
        let perm = self.sorted_perm(mode_order);

        let mut new_coords = Vec::with_capacity(self.coords.len());
        let mut new_vals: Vec<f64> = Vec::with_capacity(n);
        for &e in &perm {
            let c = &self.coords[e * d..(e + 1) * d];
            let dup = !new_vals.is_empty() && {
                let last = &new_coords[new_coords.len() - d..];
                last == c
            };
            if dup {
                let lv = new_vals.last_mut().expect("nonempty");
                *lv += self.vals[e];
            } else {
                new_coords.extend_from_slice(c);
                new_vals.push(self.vals[e]);
            }
        }
        self.coords = Arc::new(new_coords);
        self.vals = new_vals;
        Ok(perm)
    }

    /// Entry indices in lexicographic order under `mode_order` (a full
    /// order, or some of the modes: [`crate::SubsetCounts`] sorts by a
    /// subset), equal keys in input order: a stable LSD counting sort,
    /// one pass per digit of each listed mode's coordinates, last mode
    /// first, with no comparisons. A mode takes one pass when its extent
    /// fits one digit (65 536 cells at 32 768 or more entries) and none
    /// at extent 1. Holds two indices per entry while it runs.
    pub(crate) fn sorted_perm(&self, mode_order: &[usize]) -> Vec<usize> {
        let (d, n) = (self.order(), self.nnz());
        let mut perm: Vec<usize> = (0..n).collect();
        let mut next = vec![0usize; n];
        let mut starts: Vec<usize> = Vec::new();
        // Digits of 8 to 16 bits: no more buckets than about 2·nnz.
        let bits = (usize::BITS - n.leading_zeros()).clamp(8, 16);
        let mask = (1usize << bits) - 1;
        for &m in mode_order.iter().rev() {
            let top = self.dims[m] - 1;
            let digits = (usize::BITS - top.leading_zeros()).div_ceil(bits);
            for shift in (0..digits).map(|k| k * bits) {
                let digit = |e: usize| (self.coords[e * d + m] >> shift) & mask;
                let buckets = (top >> shift).min(mask) + 1;
                starts.clear();
                starts.resize(buckets + 1, 0);
                for e in 0..n {
                    starts[digit(e) + 1] += 1;
                }
                for b in 1..buckets {
                    starts[b] += starts[b - 1];
                }
                for &e in &perm {
                    let slot = &mut starts[digit(e)];
                    next[*slot] = e;
                    *slot += 1;
                }
                std::mem::swap(&mut perm, &mut next);
            }
        }
        perm
    }

    /// Densify into a [`DenseTensor`] (testing / small-problem oracle).
    pub fn to_dense(&self) -> DenseTensor {
        let mut t = DenseTensor::zeros(&self.dims);
        for (c, v) in self.iter() {
            t.add(c, v);
        }
        t
    }

    /// Squared Frobenius norm of the stored values.
    pub fn norm_sq(&self) -> f64 {
        self.vals.iter().map(|v| v * v).sum()
    }

    /// Retain only the entries for which `keep` returns true. Preserves
    /// relative order.
    pub fn filter(&self, mut keep: impl FnMut(&[usize]) -> bool) -> CooTensor {
        let d = self.dims.len();
        let (mut coords, mut vals) = (Vec::new(), Vec::new());
        for e in 0..self.nnz() {
            let c = &self.coords[e * d..(e + 1) * d];
            if keep(c) {
                coords.extend_from_slice(c);
                vals.push(self.vals[e]);
            }
        }
        CooTensor {
            dims: self.dims.clone(),
            coords: Arc::new(coords),
            vals,
        }
    }

    /// The same entries, in the same order, with the modes permuted:
    /// mode `p` of the result is mode `perm[p]` of `self` — how a
    /// pattern-sharing output written `S(k,j,i)` is shaped from the
    /// coordinates of `T(i,j,k)`. The identity costs nothing.
    pub fn permuted_modes(mut self, perm: &[usize]) -> Result<CooTensor, TensorError> {
        if !is_permutation(perm, self.order()) {
            return Err(TensorError::InvalidPermutation);
        }
        if perm.iter().enumerate().any(|(p, &m)| p != m) {
            let old = &self;
            let coords = (0..old.nnz())
                .flat_map(|e| perm.iter().map(move |&m| old.coord(e)[m]))
                .collect();
            self.dims = perm.iter().map(|&m| self.dims[m]).collect();
            self.coords = Arc::new(coords);
        }
        Ok(self)
    }

    /// Replace all values, keeping the pattern — shared, not copied.
    /// Length must match `nnz`.
    pub fn with_vals(&self, vals: Vec<f64>) -> CooTensor {
        assert_eq!(vals.len(), self.nnz(), "value count must match pattern");
        CooTensor {
            dims: self.dims.clone(),
            coords: Arc::clone(&self.coords),
            vals,
        }
    }
}

pub(crate) fn is_permutation(p: &[usize], d: usize) -> bool {
    if p.len() != d {
        return false;
    }
    let mut seen = vec![false; d];
    for &m in p {
        if m >= d || seen[m] {
            return false;
        }
        seen[m] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CooTensor {
        CooTensor::from_entries(
            &[3, 4, 5],
            vec![
                (vec![2, 1, 0], 1.0),
                (vec![0, 0, 0], 2.0),
                (vec![2, 1, 0], 3.0),
                (vec![0, 3, 4], 4.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn push_validates_bounds() {
        let mut t = CooTensor::new(&[2, 2]).unwrap();
        assert!(t.push(&[1, 1], 1.0).is_ok());
        assert!(matches!(
            t.push(&[2, 0], 1.0),
            Err(TensorError::CoordOutOfBounds { mode: 0, .. })
        ));
        assert!(matches!(
            t.push(&[0], 1.0),
            Err(TensorError::OrderMismatch { .. })
        ));
    }

    #[test]
    fn permuted_modes_keeps_entry_order() {
        let t = sample();
        let p = t.clone().permuted_modes(&[2, 0, 1]).unwrap();
        assert_eq!(p.dims(), &[5, 3, 4]);
        assert_eq!(p.coord(3), &[4, 0, 3]);
        assert_eq!(p.vals(), t.vals());
        assert_eq!(p.permuted_modes(&[1, 2, 0]).unwrap(), t);
        assert_eq!(t.clone().permuted_modes(&[0, 1, 2]).unwrap(), t);
        assert!(matches!(
            t.permuted_modes(&[0, 0, 1]),
            Err(TensorError::InvalidPermutation)
        ));
    }

    #[test]
    fn zero_dim_rejected() {
        assert!(matches!(CooTensor::new(&[2, 0]), Err(TensorError::ZeroDim)));
    }

    #[test]
    fn sort_dedup_merges_duplicates() {
        let mut t = sample();
        t.sort_dedup(&[0, 1, 2]).unwrap();
        assert_eq!(t.nnz(), 3);
        assert_eq!(t.coord(0), &[0, 0, 0]);
        assert_eq!(t.coord(1), &[0, 3, 4]);
        assert_eq!(t.coord(2), &[2, 1, 0]);
        assert_eq!(t.val(2), 4.0); // 1.0 + 3.0 merged
    }

    #[test]
    fn sort_dedup_respects_mode_order() {
        let mut t = sample();
        // Sort by mode 2 first: (0,0,0) and (2,1,0) tie on mode 2, then
        // mode 0 breaks the tie.
        t.sort_dedup(&[2, 0, 1]).unwrap();
        assert_eq!(t.coord(0), &[0, 0, 0]);
        assert_eq!(t.coord(1), &[2, 1, 0]);
        assert_eq!(t.coord(2), &[0, 3, 4]);
    }

    #[test]
    fn sort_dedup_rejects_bad_perm() {
        let mut t = sample();
        assert!(t.sort_dedup(&[0, 0, 1]).is_err());
        assert!(t.sort_dedup(&[0, 1]).is_err());
    }

    #[test]
    fn to_dense_accumulates() {
        let t = sample();
        let d = t.to_dense();
        assert_eq!(d.get(&[2, 1, 0]), 4.0);
        assert_eq!(d.get(&[0, 0, 0]), 2.0);
        assert_eq!(d.get(&[1, 1, 1]), 0.0);
    }

    #[test]
    fn filter_partitions() {
        let mut t = sample();
        t.sort_dedup(&[0, 1, 2]).unwrap();
        let even = t.filter(|c| c[0] % 2 == 0);
        assert_eq!(even.nnz(), 3);
        let odd = t.filter(|c| c[0] % 2 == 1);
        assert_eq!(odd.nnz(), 0);
    }

    #[test]
    fn with_vals_keeps_pattern() {
        let mut t = sample();
        t.sort_dedup(&[0, 1, 2]).unwrap();
        let s = t.with_vals(vec![9.0; 3]);
        assert_eq!(s.coord(1), t.coord(1));
        assert_eq!(s.val(0), 9.0);
    }
}
