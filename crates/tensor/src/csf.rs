//! Compressed Sparse Fiber (CSF) storage.
//!
//! CSF stores a sparse tensor as a tree with one level per mode (paper
//! Sec. 2.2, following Smith & Karypis). Level `k` holds one node per
//! distinct coordinate prefix of length `k+1`; the node count at level
//! `k` is exactly `nnz_{I1..I(k+1)}(T)`, the quantity the paper's cost
//! model is built on. The executor iterates the tree with *sparse loops*:
//! a loop at level `k` enumerates the children of the current level-`k-1`
//! node.
//!
//! The mode order of the tree is configurable (`mode_order[level]` is the
//! original tensor mode stored at that level); the paper restricts loop
//! orders to iterate sparse indices in this storage order.

use crate::coo::is_permutation;
use crate::{CooTensor, TensorError};
use std::ops::Range;

/// A contiguous slice of a CSF tree: a subrange of root fibers together
/// with the per-level node ranges (and leaf/value range) those roots
/// span.
///
/// Because CSF stores the children of consecutive nodes consecutively,
/// the subtrees hanging off a root subrange `[r0, r1)` occupy one
/// contiguous node range at *every* level — a tile is pure metadata
/// (one `Range` per level) over the unmodified tree. Tiles partition
/// the tensor by complete root subtrees, which is exactly the unit of
/// independent work the tile engine fans out: the contraction is
/// linear in the sparse tensor, so executing each tile separately and
/// summing the partial outputs reproduces the full result.
///
/// Build tiles with [`Csf::partition`] (leaf-nnz-balanced),
/// [`Csf::tile_of_roots`] (explicit root range), or [`Csf::full_tile`]
/// (the whole tree).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsfTile {
    /// `ranges[k]` is the node range this tile spans at tree level `k`;
    /// `ranges[0]` is the root subrange and the last entry is the
    /// leaf/value range.
    ranges: Vec<Range<usize>>,
}

impl CsfTile {
    /// Root-node subrange (level 0) of the tile.
    #[inline]
    pub fn root_range(&self) -> Range<usize> {
        self.ranges[0].clone()
    }

    /// Node range the tile spans at tree level `k`.
    #[inline]
    pub fn level_range(&self, k: usize) -> Range<usize> {
        self.ranges[k].clone()
    }

    /// Leaf/value range the tile spans (last level). Pattern-sharing
    /// sparse outputs reduce across tiles by these disjoint ranges.
    #[inline]
    pub fn leaf_range(&self) -> Range<usize> {
        self.ranges.last().expect("tiles span >= 1 level").clone()
    }

    /// Number of nonzeros (leaves) in the tile.
    #[inline]
    pub fn leaf_nnz(&self) -> usize {
        self.leaf_range().len()
    }

    /// True when the tile covers no root fibers.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.root_range().is_empty()
    }

    /// Number of tree levels the tile describes.
    #[inline]
    pub fn depth(&self) -> usize {
        self.ranges.len()
    }
}

/// One level of the CSF tree.
#[derive(Debug, Clone, PartialEq)]
pub struct CsfLevel {
    /// Coordinate value (in the level's mode) of each node.
    pub idx: Vec<usize>,
    /// Child ranges into the next level: node `n` owns
    /// `idx[ptr[n]..ptr[n+1]]` of level `k+1`. Empty for the last level.
    pub ptr: Vec<usize>,
}

/// A sparse tensor in CSF format.
#[derive(Debug, Clone, PartialEq)]
pub struct Csf {
    /// Dimensions in *original* mode numbering.
    dims: Vec<usize>,
    /// `mode_order[level]` = original mode stored at tree level `level`.
    mode_order: Vec<usize>,
    levels: Vec<CsfLevel>,
    /// Nonzero values, parallel with the last level's `idx`.
    vals: Vec<f64>,
}

impl Csf {
    /// Build a CSF tree from a COO tensor under the given mode order.
    ///
    /// Two walks over entries sorted under `mode_order`. The first finds
    /// where each entry first differs from the one before it, which
    /// gives every level's node count; the same walk refuses entries
    /// that are not strictly increasing, so it is also the order check.
    /// The second allocates every `idx` and `ptr` at its exact size and
    /// fills them all: a level-`k` node opens where an entry first
    /// differs at `k` or above, and `ptr` records the next level's
    /// length as it does. Input that is already sorted without
    /// duplicates (what the readers in [`crate::io`] produce for the
    /// natural order) is read in place and holds no per-entry scratch.
    /// Anything else is copied, sorted, and deduplicated first
    /// (duplicate coordinates are summed), then counted and filled;
    /// the tree is the same either way. An order-0 tensor is refused: a
    /// tree needs at least one level.
    pub fn from_coo(coo: &CooTensor, mode_order: &[usize]) -> Result<Self, TensorError> {
        if coo.order() == 0 {
            return Err(TensorError::ZeroOrder);
        }
        if !is_permutation(mode_order, coo.order()) {
            return Err(TensorError::InvalidPermutation);
        }
        if let Some(counts) = coo.canonical_counts(mode_order) {
            return Ok(Self::fill(coo, mode_order, &counts));
        }
        let mut sorted = coo.clone();
        sorted.sort_dedup_ranks(mode_order)?;
        Ok(Self::from_sorted(&sorted, mode_order))
    }

    /// Build the tree over entries already sorted under `mode_order`
    /// and free of duplicates.
    fn from_sorted(sorted: &CooTensor, mode_order: &[usize]) -> Self {
        let counts = sorted
            .canonical_counts(mode_order)
            .expect("entries are sorted and free of duplicates");
        Self::fill(sorted, mode_order, &counts)
    }

    /// The tree over canonical entries whose level `k` holds `counts[k]`
    /// nodes, filled in one walk into arrays of exactly that size.
    fn fill(sorted: &CooTensor, mode_order: &[usize], counts: &[usize]) -> Self {
        let d = mode_order.len();
        let mut levels: Vec<CsfLevel> = (0..d)
            .map(|k| CsfLevel {
                idx: Vec::with_capacity(counts[k]),
                ptr: Vec::with_capacity(if k + 1 < d { counts[k] + 1 } else { 0 }),
            })
            .collect();
        let sorted_ok = sorted.first_differences(mode_order, 0..sorted.nnz(), |ell, c| {
            for k in ell..d {
                if k + 1 < d {
                    let first_child = levels[k + 1].idx.len();
                    levels[k].ptr.push(first_child);
                }
                levels[k].idx.push(c[mode_order[k]]);
            }
        });
        debug_assert!(sorted_ok);
        for k in 1..d {
            let end = levels[k].idx.len();
            levels[k - 1].ptr.push(end);
        }
        debug_assert!((0..d).all(|k| levels[k].idx.len() == counts[k]));

        Csf {
            dims: sorted.dims().to_vec(),
            mode_order: mode_order.to_vec(),
            levels,
            vals: sorted.vals().to_vec(),
        }
    }

    /// Dimensions in original mode numbering.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of modes.
    #[inline]
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// Tree mode order (`mode_order[level]` = original mode of that level).
    #[inline]
    pub fn mode_order(&self) -> &[usize] {
        &self.mode_order
    }

    /// Total nonzero count.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Number of CSF nodes at tree level `k`; equals
    /// `nnz_{I1..I(k+1)}(T)` in the paper's notation (Sec. 2.2).
    #[inline]
    pub fn level_nnz(&self, k: usize) -> usize {
        self.levels[k].idx.len()
    }

    /// Range of root nodes (level 0).
    #[inline]
    pub fn root_range(&self) -> std::ops::Range<usize> {
        0..self.levels.first().map_or(0, |l| l.idx.len())
    }

    /// Children of node `node` at level `level` (range into level+1).
    #[inline]
    pub fn children(&self, level: usize, node: usize) -> std::ops::Range<usize> {
        let ptr = &self.levels[level].ptr;
        ptr[node]..ptr[node + 1]
    }

    /// Coordinate (in the level's mode) of a node.
    #[inline]
    pub fn node_coord(&self, level: usize, node: usize) -> usize {
        self.levels[level].idx[node]
    }

    /// Value of leaf `node` (a node of the last level).
    #[inline]
    pub fn leaf_val(&self, node: usize) -> f64 {
        self.vals[node]
    }

    /// All values in leaf order (for pattern-sharing outputs).
    #[inline]
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Mutable values (for writing outputs that share this pattern).
    #[inline]
    pub fn vals_mut(&mut self) -> &mut [f64] {
        &mut self.vals
    }

    /// Direct level access (read-only).
    #[inline]
    pub fn level(&self, k: usize) -> &CsfLevel {
        &self.levels[k]
    }

    /// The tile covering the entire tree.
    pub fn full_tile(&self) -> CsfTile {
        CsfTile {
            ranges: self.levels.iter().map(|l| 0..l.idx.len()).collect(),
        }
    }

    /// The tile spanned by a contiguous root-fiber range, with every
    /// lower level's node range derived by following the child pointers
    /// down from the range boundaries.
    ///
    /// An empty in-bounds range (`r..r`) is valid and yields an empty
    /// tile — the degenerate-input contract shared with
    /// [`Csf::partition`], which clamps instead of erroring because its
    /// argument is a tile *count*, while a root range identifies
    /// specific nodes and so must actually exist.
    ///
    /// # Panics
    /// Panics if `roots` is out of bounds or reversed.
    pub fn tile_of_roots(&self, roots: Range<usize>) -> CsfTile {
        let n_roots = self.root_range().end;
        assert!(
            roots.start <= roots.end && roots.end <= n_roots,
            "root range {roots:?} out of bounds for {n_roots} roots"
        );
        let mut ranges = Vec::with_capacity(self.order());
        let (mut lo, mut hi) = (roots.start, roots.end);
        ranges.push(lo..hi);
        for k in 0..self.order() - 1 {
            lo = self.levels[k].ptr[lo];
            hi = self.levels[k].ptr[hi];
            ranges.push(lo..hi);
        }
        CsfTile { ranges }
    }

    /// Partition the tree into at most `n_tiles` tiles of complete root
    /// subtrees, balanced by leaf nonzero count.
    ///
    /// Each tile boundary is the first root at or past the ideal
    /// `t·nnz/n_tiles` leaf prefix, so a handful of heavy root fibers
    /// cannot starve the other workers. Empty tiles are dropped, so the
    /// result holds between 1 and `min(n_tiles, #roots)` tiles — except
    /// for an empty tensor, where a single empty tile is returned. The
    /// partition is deterministic: same tree + same `n_tiles` → same
    /// tiles, which the parallel executor's reproducibility guarantee
    /// builds on.
    ///
    /// **Degenerate counts clamp, never error:** `n_tiles = 0` is
    /// treated as 1 (the whole tree in a single tile), mirroring how
    /// counts above the root count saturate at one root per tile. The
    /// result therefore always covers every nonzero exactly once,
    /// whatever the count — callers sizing tiles from a thread count
    /// need no pre-validation. (Contrast [`Csf::tile_of_roots`], whose
    /// argument names concrete nodes and panics when they don't exist.)
    pub fn partition(&self, n_tiles: usize) -> Vec<CsfTile> {
        let n_tiles = n_tiles.max(1);
        let n_roots = self.root_range().end;
        if n_roots == 0 {
            return vec![self.full_tile()];
        }
        // leaf_start[r] = number of leaves in subtrees of roots [0, r):
        // push the boundary array down through each level's pointers.
        let mut leaf_start: Vec<usize> = (0..=n_roots).collect();
        for k in 0..self.order().saturating_sub(1) {
            for b in leaf_start.iter_mut() {
                *b = self.levels[k].ptr[*b];
            }
        }
        let total = self.nnz();
        let mut tiles = Vec::with_capacity(n_tiles.min(n_roots));
        let mut prev = 0usize;
        for t in 1..=n_tiles {
            let end = if t == n_tiles {
                n_roots
            } else {
                // First root boundary at or past the ideal leaf prefix.
                let target = (total as u128 * t as u128 / n_tiles as u128) as usize;
                leaf_start.partition_point(|&s| s < target).min(n_roots)
            };
            if end > prev {
                tiles.push(self.tile_of_roots(prev..end));
                prev = end;
            }
        }
        debug_assert_eq!(tiles.iter().map(CsfTile::leaf_nnz).sum::<usize>(), total);
        tiles
    }

    /// Reconstruct the COO representation (entries in tree order, with
    /// coordinates in *original* mode numbering).
    pub fn to_coo(&self) -> CooTensor {
        let mut out = CooTensor::new(&self.dims).expect("dims validated at construction");
        self.for_each_entry(|coord, v| {
            out.push(coord, v).expect("in-bounds by construction");
        });
        out
    }

    /// Visit every entry in leaf order as `(original-mode coordinates,
    /// value)`, without materializing anything per entry.
    pub fn for_each_entry(&self, mut f: impl FnMut(&[usize], f64)) {
        let d = self.order();
        if d == 0 || self.nnz() == 0 {
            return;
        }
        let mut coord = vec![0usize; d];
        let mut ranges: Vec<Range<usize>> = vec![0..0; d];
        ranges[0] = self.root_range();
        let mut k = 0usize;
        loop {
            if let Some(node) = next_in(&mut ranges[k]) {
                coord[self.mode_order[k]] = self.node_coord(k, node);
                if k + 1 == d {
                    f(&coord, self.leaf_val(node));
                } else {
                    ranges[k + 1] = self.children(k, node);
                    k += 1;
                }
            } else if k == 0 {
                return;
            } else {
                k -= 1;
            }
        }
    }

    /// Rebuild this tree under a different mode order (the transpose
    /// path the planner's mode-order search relies on).
    ///
    /// `new_mode_order[level]` is the original mode stored at tree level
    /// `level` of the result; it must be a permutation of `0..order`.
    /// Returns `self.clone()` when the order already matches. The values
    /// are preserved exactly (entries are already deduplicated, so the
    /// rebuild is a pure resort): `O(nnz · order)` to extract entries
    /// and a stable counting sort of them, one pass per mode (per digit
    /// of a mode past 65 536 cells) — no comparisons, no densification.
    /// The tree half of [`Csf::reordered_with_perm`].
    pub fn reordered(&self, new_mode_order: &[usize]) -> Result<Self, TensorError> {
        if new_mode_order == self.mode_order {
            return Ok(self.clone());
        }
        Ok(self.reordered_with_perm(new_mode_order)?.0)
    }

    /// [`Csf::reordered`] plus the leaf permutation of the rebuild, both
    /// from one sort of the entries: leaf `e` of this tree is leaf
    /// `perm[e]` of the returned one. What `Plan::bind` runs when a plan
    /// chose another storage order, so values supplied later in this
    /// tree's leaf order can be scattered into the rebuilt tree.
    pub fn reordered_with_perm(
        &self,
        new_mode_order: &[usize],
    ) -> Result<(Self, Vec<usize>), TensorError> {
        let mut entries = self.to_coo();
        // A tree's entries are distinct, so nothing merges: rank `k` of
        // the sort is leaf `k` of the rebuilt tree.
        let ranks = entries.sort_dedup_ranks(new_mode_order)?;
        let mut perm = vec![0usize; ranks.len()];
        for (new, &old) in ranks.iter().enumerate() {
            perm[old] = new;
        }
        Ok((Self::from_sorted(&entries, new_mode_order), perm))
    }
}

/// Pop the front of a range, advancing it.
#[inline]
fn next_in(r: &mut Range<usize>) -> Option<usize> {
    if r.start < r.end {
        let n = r.start;
        r.start += 1;
        Some(n)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SubsetCounts;

    fn sample() -> CooTensor {
        // 3x3x3 tensor with 5 nonzeros.
        CooTensor::from_entries(
            &[3, 3, 3],
            vec![
                (vec![0, 0, 0], 1.0),
                (vec![0, 0, 2], 2.0),
                (vec![0, 1, 0], 3.0),
                (vec![2, 0, 1], 4.0),
                (vec![2, 2, 2], 5.0),
            ],
        )
        .unwrap()
    }

    /// A scalar has no level to hang a tree on (it used to build a
    /// level-less `Csf` that hung `Plan::bind`).
    #[test]
    fn order0_tensor_is_refused() {
        let mut scalar = CooTensor::new(&[]).unwrap();
        scalar.push(&[], 2.5).unwrap();
        assert_eq!(Csf::from_coo(&scalar, &[]), Err(TensorError::ZeroOrder));
    }

    #[test]
    fn build_identity_order() {
        let csf = Csf::from_coo(&sample(), &[0, 1, 2]).unwrap();
        assert_eq!(csf.nnz(), 5);
        // Level 0: distinct i in {0, 2}.
        assert_eq!(csf.level(0).idx, vec![0, 2]);
        // Level 1: (0,0), (0,1), (2,0), (2,2).
        assert_eq!(csf.level(1).idx, vec![0, 1, 0, 2]);
        assert_eq!(csf.level(0).ptr, vec![0, 2, 4]);
        // Level 2 leaves in sorted order.
        assert_eq!(csf.level(2).idx, vec![0, 2, 0, 1, 2]);
        assert_eq!(csf.level(1).ptr, vec![0, 2, 3, 4, 5]);
        assert_eq!(csf.vals(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn prefix_nnz_counts() {
        let csf = Csf::from_coo(&sample(), &[0, 1, 2]).unwrap();
        assert_eq!(csf.level_nnz(0), 2); // distinct i
        assert_eq!(csf.level_nnz(1), 4); // distinct (i,j)
        assert_eq!(csf.level_nnz(2), 5); // nnz
    }

    #[test]
    fn permuted_mode_order() {
        // Order modes as (k, i, j).
        let csf = Csf::from_coo(&sample(), &[2, 0, 1]).unwrap();
        // Distinct k values: 0, 1, 2.
        assert_eq!(csf.level(0).idx, vec![0, 1, 2]);
        assert_eq!(csf.nnz(), 5);
        // Round-trip back to dense must match.
        let back = csf.to_coo().to_dense();
        assert!(back.approx_eq(&sample().to_dense(), 1e-12));
    }

    #[test]
    fn roundtrip_coo_csf_coo() {
        let coo = sample();
        for order in [[0usize, 1, 2], [1, 2, 0], [2, 1, 0]] {
            let csf = Csf::from_coo(&coo, &order).unwrap();
            let dense = csf.to_coo().to_dense();
            assert!(dense.approx_eq(&coo.to_dense(), 1e-12), "order {order:?}");
        }
    }

    #[test]
    fn duplicates_are_merged() {
        let coo = CooTensor::from_entries(
            &[2, 2],
            vec![(vec![1, 1], 1.0), (vec![1, 1], 2.5), (vec![0, 0], 1.0)],
        )
        .unwrap();
        let csf = Csf::from_coo(&coo, &[0, 1]).unwrap();
        assert_eq!(csf.nnz(), 2);
        assert_eq!(csf.to_coo().to_dense().get(&[1, 1]), 3.5);
    }

    #[test]
    fn children_ranges_consistent() {
        let csf = Csf::from_coo(&sample(), &[0, 1, 2]).unwrap();
        let mut total = 0;
        for root in csf.root_range() {
            for mid in csf.children(0, root) {
                total += csf.children(1, mid).len();
            }
        }
        assert_eq!(total, csf.nnz());
    }

    #[test]
    fn bad_mode_order_rejected() {
        assert!(Csf::from_coo(&sample(), &[0, 1]).is_err());
        assert!(Csf::from_coo(&sample(), &[0, 0, 1]).is_err());
    }

    #[test]
    fn entries_match_coo_lazily() {
        let csf = Csf::from_coo(&sample(), &[0, 1, 2]).unwrap();
        // Leaf order under the identity order is lexicographic.
        let mut want: Vec<(Vec<usize>, f64)> =
            sample().iter().map(|(c, v)| (c.to_vec(), v)).collect();
        want.sort_by(|a, b| a.0.cmp(&b.0));
        let mut got: Vec<(Vec<usize>, f64)> = Vec::new();
        csf.for_each_entry(|c, v| got.push((c.to_vec(), v)));
        assert_eq!(got, want);
        assert_eq!(csf.to_coo().iter().count(), 5);
        // Permuted storage reports original-mode coordinates.
        let csf = Csf::from_coo(&sample(), &[2, 0, 1]).unwrap();
        let mut seen = 0usize;
        csf.for_each_entry(|c, v| {
            assert_eq!(sample().to_dense().get(c), v);
            seen += 1;
        });
        assert_eq!(seen, 5);
    }

    #[test]
    fn full_tile_covers_everything() {
        let csf = Csf::from_coo(&sample(), &[0, 1, 2]).unwrap();
        let t = csf.full_tile();
        assert_eq!(t.root_range(), 0..2);
        assert_eq!(t.level_range(1), 0..4);
        assert_eq!(t.leaf_range(), 0..5);
        assert_eq!(t.leaf_nnz(), 5);
        assert_eq!(t.depth(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn tile_of_roots_follows_pointers() {
        let csf = Csf::from_coo(&sample(), &[0, 1, 2]).unwrap();
        // Root 0 (i = 0) owns mids {(0,0),(0,1)} and leaves {0,1,2}.
        let t0 = csf.tile_of_roots(0..1);
        assert_eq!(t0.level_range(1), 0..2);
        assert_eq!(t0.leaf_range(), 0..3);
        // Root 1 (i = 2) owns the rest.
        let t1 = csf.tile_of_roots(1..2);
        assert_eq!(t1.level_range(1), 2..4);
        assert_eq!(t1.leaf_range(), 3..5);
        // Empty range is a valid empty tile.
        assert!(csf.tile_of_roots(1..1).is_empty());
    }

    #[test]
    fn partition_is_disjoint_and_exhaustive() {
        let mut coo = CooTensor::new(&[40, 6, 6]).unwrap();
        for e in 0..200usize {
            coo.push(&[(e * 7) % 40, (e * 3) % 6, e % 6], e as f64)
                .unwrap();
        }
        let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
        for n in [1, 2, 3, 4, 7, 64] {
            let tiles = csf.partition(n);
            assert!(!tiles.is_empty() && tiles.len() <= n.max(1));
            // Consecutive, disjoint, exhaustive at every level.
            for k in 0..csf.order() {
                let mut pos = 0usize;
                for t in &tiles {
                    assert_eq!(t.level_range(k).start, pos, "gap at level {k}");
                    pos = t.level_range(k).end;
                }
                assert_eq!(pos, csf.level_nnz(k));
            }
            assert_eq!(
                tiles.iter().map(CsfTile::leaf_nnz).sum::<usize>(),
                csf.nnz()
            );
            assert!(tiles.iter().all(|t| !t.is_empty()));
            // Deterministic.
            assert_eq!(tiles, csf.partition(n));
        }
    }

    #[test]
    fn partition_balances_leaf_nnz() {
        // 16 roots with equal leaf counts split evenly.
        let mut coo = CooTensor::new(&[16, 8, 8]).unwrap();
        for i in 0..16usize {
            for j in 0..8usize {
                coo.push(&[i, j, (i + j) % 8], 1.0).unwrap();
            }
        }
        let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
        let tiles = csf.partition(4);
        assert_eq!(tiles.len(), 4);
        for t in &tiles {
            assert_eq!(t.leaf_nnz(), 32);
            assert_eq!(t.root_range().len(), 4);
        }
    }

    #[test]
    fn partition_degenerate_cases() {
        // More tiles than roots: one tile per root, none empty.
        let csf = Csf::from_coo(&sample(), &[0, 1, 2]).unwrap();
        let tiles = csf.partition(7);
        assert_eq!(tiles.len(), 2);
        assert!(tiles.iter().all(|t| t.root_range().len() == 1));
        // Empty tensor: a single empty tile.
        let empty = Csf::from_coo(&CooTensor::new(&[4, 4]).unwrap(), &[0, 1]).unwrap();
        let tiles = empty.partition(4);
        assert_eq!(tiles.len(), 1);
        assert!(tiles[0].is_empty());
        assert_eq!(tiles[0].leaf_nnz(), 0);
    }

    #[test]
    fn partition_zero_clamps_to_one_tile() {
        let csf = Csf::from_coo(&sample(), &[0, 1, 2]).unwrap();
        let tiles = csf.partition(0);
        assert_eq!(tiles, vec![csf.full_tile()]);
        assert_eq!(tiles[0].leaf_nnz(), csf.nnz());
        // Empty tensor + zero count: still one (empty) tile.
        let empty = Csf::from_coo(&CooTensor::new(&[4, 4]).unwrap(), &[0, 1]).unwrap();
        let tiles = empty.partition(0);
        assert_eq!(tiles.len(), 1);
        assert!(tiles[0].is_empty());
    }

    #[test]
    fn tile_of_roots_empty_ranges_anywhere() {
        let csf = Csf::from_coo(&sample(), &[0, 1, 2]).unwrap();
        for r in 0..=csf.root_range().end {
            let t = csf.tile_of_roots(r..r);
            assert!(t.is_empty());
            assert_eq!(t.leaf_nnz(), 0);
            assert_eq!(t.depth(), csf.order());
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn tile_of_roots_rejects_out_of_range() {
        let csf = Csf::from_coo(&sample(), &[0, 1, 2]).unwrap();
        let _ = csf.tile_of_roots(1..3); // only 2 roots
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn tile_of_roots_rejects_reversed_range() {
        let csf = Csf::from_coo(&sample(), &[0, 1, 2]).unwrap();
        #[allow(clippy::reversed_empty_ranges)]
        let _ = csf.tile_of_roots(2..1);
    }

    #[test]
    fn reordered_matches_rebuild_from_coo() {
        let coo = sample();
        let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
        for order in [[0usize, 1, 2], [2, 0, 1], [1, 2, 0], [2, 1, 0]] {
            let direct = Csf::from_coo(&coo, &order).unwrap();
            let re = csf.reordered(&order).unwrap();
            assert_eq!(re, direct, "order {order:?}");
            // The permutation half: leaf `e` of the old tree is leaf
            // `perm[e]` of the new one, identity included.
            let (tree, perm) = csf.reordered_with_perm(&order).unwrap();
            assert_eq!(tree, direct, "order {order:?}");
            let (old, new) = (csf.to_coo(), tree.to_coo());
            for (e, &to) in perm.iter().enumerate() {
                assert_eq!(
                    (old.coord(e), old.val(e)),
                    (new.coord(to), new.val(to)),
                    "order {order:?}, leaf {e}"
                );
            }
        }
        // Same order: exact clone.
        assert_eq!(csf.reordered(&[0, 1, 2]).unwrap(), csf);
        // Bad permutations rejected.
        assert!(csf.reordered(&[0, 1]).is_err());
        assert!(csf.reordered(&[0, 0, 1]).is_err());
    }

    #[test]
    fn single_mode_tensor() {
        let coo = CooTensor::from_entries(&[5], vec![(vec![4], 2.0), (vec![1], 1.0)]).unwrap();
        let csf = Csf::from_coo(&coo, &[0]).unwrap();
        assert_eq!(csf.level(0).idx, vec![1, 4]);
        assert_eq!(csf.vals(), &[1.0, 2.0]);
        assert_eq!(csf.level_nnz(0), 2);
    }

    /// The reference the count-then-fill trees are checked against, an
    /// independent build over the same sorted entries: a per-entry
    /// `prefix_change` array, `idx` grown from empty, then one pass over
    /// that array per `ptr` level.
    fn prefix_change_build(sorted: &CooTensor, mode_order: &[usize]) -> Csf {
        let d = sorted.order();
        let n = sorted.nnz();

        // Permuted coordinate accessor: coordinate at tree level k of entry e.
        let pc = |e: usize, k: usize| sorted.coord(e)[mode_order[k]];

        // prefix_change[e]: smallest level at which entry e differs from
        // entry e-1 (0 for the first entry).
        let mut prefix_change = vec![0usize; n];
        for (e, slot) in prefix_change.iter_mut().enumerate().skip(1) {
            let mut ell = d; // identical prefixes cannot happen after dedup
            for k in 0..d {
                if pc(e, k) != pc(e - 1, k) {
                    ell = k;
                    break;
                }
            }
            debug_assert!(ell < d, "duplicate coordinates after dedup");
            *slot = ell;
        }

        let mut levels: Vec<CsfLevel> = (0..d)
            .map(|_| CsfLevel {
                idx: Vec::new(),
                ptr: Vec::new(),
            })
            .collect();

        for (e, &ell) in prefix_change.iter().enumerate() {
            for (k, level) in levels.iter_mut().enumerate().skip(ell) {
                level.idx.push(pc(e, k));
            }
        }

        // Child pointers for levels 0..d-1.
        for k in 0..d.saturating_sub(1) {
            let mut ptr = Vec::with_capacity(levels[k].idx.len() + 1);
            ptr.push(0usize);
            let mut children = 0usize;
            let mut started = false;
            for &ell in &prefix_change {
                if ell <= k {
                    if started {
                        ptr.push(children);
                    }
                    started = true;
                }
                if ell <= k + 1 {
                    children += 1;
                }
            }
            if started {
                ptr.push(children);
            }
            debug_assert_eq!(ptr.len(), levels[k].idx.len() + 1);
            debug_assert_eq!(*ptr.last().unwrap_or(&0), levels[k + 1].idx.len());
            levels[k].ptr = ptr;
        }

        let vals = sorted.vals().to_vec();
        debug_assert_eq!(vals.len(), levels.last().map_or(0, |l| l.idx.len()));

        Csf {
            dims: sorted.dims().to_vec(),
            mode_order: mode_order.to_vec(),
            levels,
            vals,
        }
    }

    /// Every ordering of `0..d`.
    fn permutations(d: usize) -> Vec<Vec<usize>> {
        if d == 0 {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for shorter in permutations(d - 1) {
            for at in 0..d {
                let mut p = shorter.clone();
                p.insert(at, d - 1);
                out.push(p);
            }
        }
        out
    }

    /// Orders 1–6, nnz 0, 1, 40 and 2 500, with and without extent-1
    /// modes; each pattern comes sorted and deduplicated, in random
    /// order (duplicates included where the cells run out), and sorted
    /// with every entry twice.
    fn generated_inputs(rng: &mut impl rand::Rng) -> Vec<CooTensor> {
        const EXTENTS: [usize; 6] = [40, 3, 60, 5, 9, 4];
        let mut out = Vec::new();
        for d in 1..=6 {
            let natural: Vec<usize> = (0..d).collect();
            for unit in [false, true] {
                let dims: Vec<usize> = (0..d)
                    .map(|m| if unit && m % 2 == 1 { 1 } else { EXTENTS[m] })
                    .collect();
                for nnz in [0, 1, 40, 2500] {
                    let mut random = CooTensor::new(&dims).unwrap();
                    for _ in 0..nnz {
                        let c: Vec<usize> = dims.iter().map(|&x| rng.gen_range(0..x)).collect();
                        random.push(&c, rng.gen_range(-1.0..1.0)).unwrap();
                    }
                    let mut sorted = random.clone();
                    sorted.sort_dedup(&natural).unwrap();
                    let mut twice = CooTensor::new(&dims).unwrap();
                    for (c, v) in sorted.iter() {
                        twice.push(c, v).unwrap();
                        twice.push(c, v / 3.0).unwrap();
                    }
                    out.extend([sorted, random, twice]);
                }
            }
        }
        out
    }

    fn assert_same_tree(got: &Csf, want: &Csf, what: &str) {
        assert_eq!(got.dims, want.dims, "{what}");
        assert_eq!(got.mode_order, want.mode_order, "{what}");
        assert_eq!(got.levels, want.levels, "{what}");
        let bits = |c: &Csf| c.vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{what}");
    }

    /// Exact allocations: no `idx` or `ptr` holds spare capacity.
    fn assert_exact(csf: &Csf, what: &str) {
        for (k, level) in csf.levels.iter().enumerate() {
            assert_eq!(level.idx.capacity(), level.idx.len(), "{what}: idx {k}");
            assert_eq!(level.ptr.capacity(), level.ptr.len(), "{what}: ptr {k}");
        }
    }

    #[test]
    fn count_then_fill_matches_prefix_change_builder() {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(48);
        for coo in generated_inputs(&mut rng) {
            let d = coo.order();
            let natural: Vec<usize> = (0..d).collect();
            let orders = if d <= 4 {
                permutations(d)
            } else {
                (0..8)
                    .map(|_| {
                        let mut p = natural.clone();
                        for i in (1..d).rev() {
                            p.swap(i, rng.gen_range(0..i + 1));
                        }
                        p
                    })
                    .collect()
            };
            let counts = SubsetCounts::of(&coo).unwrap();
            let from_natural = Csf::from_coo(&coo, &natural).unwrap();
            for order in &orders {
                let what = format!("dims {:?}, nnz {}, order {order:?}", coo.dims(), coo.nnz());
                let mut sorted = coo.clone();
                sorted.sort_dedup(order).unwrap();
                let want = prefix_change_build(&sorted, order);
                // Any input, input canonical under `order`, and a re-sort.
                let built = [
                    Csf::from_coo(&coo, order).unwrap(),
                    Csf::from_coo(&sorted, order).unwrap(),
                    from_natural.reordered_with_perm(order).unwrap().0,
                ];
                for csf in &built {
                    assert_same_tree(csf, &want, &what);
                    assert_exact(csf, &what);
                    for k in 0..d {
                        assert_eq!(
                            csf.level_nnz(k) as u64,
                            counts.count(&order[..=k]),
                            "{what}: level {k}"
                        );
                    }
                }
            }
        }
    }
}
