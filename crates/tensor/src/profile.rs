//! Data-independent sparsity profiles.
//!
//! An SpTTN kernel has a *fixed* sparsity pattern (the paper's key
//! observation in Sec. 1): the cost of any loop nest depends on the
//! pattern only through the per-level CSF fiber counts
//! `nnz_{I1..Ik}(T)`. A [`SparsityProfile`] captures exactly those
//! counts plus the dimensions, so the planner can rank contraction paths
//! and loop nests without touching the tensor values — and even without
//! the tensor, using the [`SparsityProfile::uniform`] model.
//!
//! `nnz_{I1..Ik}` is the number of distinct projections of the pattern
//! onto the *set* {I1..Ik}: the order of the indices inside the prefix
//! does not change it. So one count per mode subset ([`SubsetCounts`])
//! gives the exact profile of every storage order, and a pattern is
//! counted once however many orders are scored against it.

use crate::coo::is_permutation;
use crate::{CooTensor, TensorError};

/// Dimension sizes plus CSF-prefix nonzero counts for one mode order.
#[derive(Debug, Clone, PartialEq)]
pub struct SparsityProfile {
    /// Dimensions in original mode numbering.
    dims: Vec<usize>,
    /// CSF mode order: `mode_order[level]` = original mode at that level.
    mode_order: Vec<usize>,
    /// `prefix_nnz[k]` = number of distinct coordinate prefixes of length
    /// `k` under `mode_order`; `prefix_nnz[0] == 1`,
    /// `prefix_nnz[order] == nnz`.
    prefix_nnz: Vec<u64>,
}

impl SparsityProfile {
    /// Modeled profile for a uniformly-random pattern with `nnz` nonzeros:
    /// the expected number of distinct length-`k` prefixes is
    /// `D_k * (1 - (1 - 1/D_k)^nnz)` where `D_k` is the product of the
    /// first `k` (permuted) dimensions.
    pub fn uniform(dims: &[usize], mode_order: &[usize], nnz: u64) -> Result<Self, TensorError> {
        let d = dims.len();
        if !is_permutation(mode_order, d) {
            return Err(TensorError::InvalidPermutation);
        }
        if dims.contains(&0) {
            return Err(TensorError::ZeroDim);
        }
        let mut prefix_nnz = vec![1u64; d + 1];
        let mut cells = 1f64;
        for k in 0..d {
            cells *= dims[mode_order[k]] as f64;
            // Expected occupied cells among `cells` after nnz uniform draws
            // (with replacement; accurate for sparse regimes).
            let expect = if cells <= 1.0 {
                1.0
            } else {
                // ln(1-1/cells) is numerically fragile for huge `cells`;
                // use expm1/ln_1p formulation.
                let per_cell_miss = (nnz as f64) * (-1.0 / cells).ln_1p();
                cells * (-per_cell_miss.exp_m1())
            };
            prefix_nnz[k + 1] = expect.round().max(1.0).min(nnz as f64) as u64;
        }
        prefix_nnz[d] = nnz.max(1);
        Ok(SparsityProfile {
            dims: dims.to_vec(),
            mode_order: mode_order.to_vec(),
            prefix_nnz,
        })
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

    /// CSF mode order.
    #[inline]
    pub fn mode_order(&self) -> &[usize] {
        &self.mode_order
    }

    /// Total nonzero count.
    #[inline]
    pub fn nnz(&self) -> u64 {
        *self.prefix_nnz.last().expect("non-empty")
    }

    /// Number of distinct coordinate prefixes of length `k`.
    #[inline]
    pub fn prefix_nnz(&self, k: usize) -> u64 {
        self.prefix_nnz[k]
    }
}

/// Highest tensor order [`SubsetCounts::of`] counts. It counts all
/// `2^order` mode subsets, and the subsets too wide for a bitmap take a
/// sort each (fewer where one sort's chain of prefixes covers several).
/// At 1M sorted nonzeros (2-vCPU x86-64 box, extents 300–20 000)
/// counting took 0.25 s at order 4, 0.6–0.7 s at order 5, 1.7–2.1 s at
/// order 6 and 11 s at order 8 — against 1.5–6 s at orders 4–6 and 13 s
/// at order 8 for an `Auto` search that sorts a copy of the pattern per
/// candidate order. Order 6 is the highest at which counting every
/// subset costs about what such a search does.
pub const MAX_COUNTED_ORDER: usize = 6;

/// Bitmap bits a subset may use per nonzero before it is counted by a
/// sort instead (a sort holds two 64-bit indices per nonzero).
const BITMAP_BITS_PER_NNZ: u64 = 64;

/// The distinct-projection count of a coordinate pattern onto every
/// subset of its modes: all the planner needs of a pattern, at
/// `2^order` integers instead of `order · nnz` coordinates. Equal
/// counts mean equal profiles under every mode order, so the counts
/// (with the dims) are also the pattern's cache identity.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SubsetCounts {
    /// Dimensions in original mode numbering.
    dims: Vec<usize>,
    /// `counts[s]` = number of distinct projections onto the modes whose
    /// bits are set in `s`; `counts[0] == 1` (the empty prefix).
    counts: Vec<u64>,
}

impl SubsetCounts {
    /// Count the distinct projections of `coo`'s coordinates (values are
    /// ignored; duplicate coordinates count once) onto every mode
    /// subset. Each subset takes the cheapest exact method:
    ///
    /// - input in natural order (what the readers produce) gives every
    ///   natural prefix {0..k} in one run-length pass;
    /// - a subset whose cells fit a bitmap of about 64 bits per nonzero
    ///   sets one bit per cell, in one pass shared with the other such
    ///   subsets while their bitmaps fit that budget together;
    /// - any other subset orders the entries by a stable counting sort
    ///   over its modes, and the same run-length pass then counts it and
    ///   every uncounted prefix of the order it was sorted in.
    ///
    /// The run-length pass holds nothing per nonzero; it is the same
    /// first-difference walk that counts a CSF's levels before
    /// [`crate::Csf::from_coo`] fills them. Bitmaps take at most 8 bytes
    /// per nonzero, and a sort 16 bytes per nonzero (two indices) while
    /// it runs — which natural-order input whose pair subsets fit a
    /// bitmap, as at order 3 with extents up to a few thousand, never
    /// needs.
    ///
    /// Errors above [`MAX_COUNTED_ORDER`] modes.
    pub fn of(coo: &CooTensor) -> Result<Self, TensorError> {
        let (dims, d, n) = (coo.dims(), coo.order(), coo.nnz());
        if d > MAX_COUNTED_ORDER {
            return Err(TensorError::TooManyModes {
                order: d,
                max: MAX_COUNTED_ORDER,
            });
        }
        let mut counts = vec![0u64; 1 << d];
        counts[0] = 1;
        if n > 0 {
            count_subsets(coo, &mut counts);
        }
        Ok(SubsetCounts {
            dims: dims.to_vec(),
            counts,
        })
    }

    /// Dimensions in original mode numbering.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of distinct projections onto `modes` (an empty set counts
    /// the one empty projection). Panics on a mode `>= order`.
    pub fn count(&self, modes: &[usize]) -> u64 {
        let d = self.dims.len();
        self.counts[modes.iter().fold(0, |s, &m| {
            assert!(m < d, "mode {m} of an order-{d} pattern");
            s | 1 << m
        })]
    }

    /// The exact profile under `mode_order`: prefix `k` counts the set of
    /// its first `k` modes. No pass over the pattern.
    pub fn profile(&self, mode_order: &[usize]) -> Result<SparsityProfile, TensorError> {
        if !is_permutation(mode_order, self.dims.len()) {
            return Err(TensorError::InvalidPermutation);
        }
        let mut subset = 0;
        let mut prefix_nnz = vec![1u64];
        for &m in mode_order {
            subset |= 1 << m;
            prefix_nnz.push(self.counts[subset]);
        }
        Ok(SparsityProfile {
            dims: self.dims.clone(),
            mode_order: mode_order.to_vec(),
            prefix_nnz,
        })
    }
}

/// Fill `counts[s]` for every nonempty subset `s` of a pattern with at
/// least one entry, each by the cheapest method [`SubsetCounts::of`]
/// lists. `counted[s]` marks the subsets done so far.
fn count_subsets(coo: &CooTensor, counts: &mut [u64]) {
    let (dims, d) = (coo.dims(), coo.order());
    let mut counted = vec![false; counts.len()];
    counted[0] = true;
    let natural: Vec<usize> = (0..d).collect();
    if let Some(prefix) = coo.prefix_counts(&natural, 0..coo.nnz()) {
        record_chain(&natural, &prefix, counts, &mut counted);
    }
    let budget = (coo.nnz() as u64).saturating_mul(BITMAP_BITS_PER_NNZ);
    let (mut batch, mut batched) = (Vec::new(), 0u64);
    for (s, done) in counted.iter_mut().enumerate() {
        let fits = strides(dims, s).filter(|&(_, cells)| cells <= budget);
        let (false, Some((strides, cells))) = (*done, fits) else {
            continue;
        };
        if batched + cells > budget {
            count_bitmaps(coo, &mut batch, counts);
            batched = 0;
        }
        batched += cells;
        *done = true;
        batch.push(Bitmap {
            subset: s,
            strides,
            bits: vec![0u64; cells.div_ceil(64) as usize],
            distinct: 0,
        });
    }
    count_bitmaps(coo, &mut batch, counts);
    // Largest first, so each sort's chain of prefixes reaches down
    // through as many uncounted subsets as it can.
    for s in (1..counts.len()).rev() {
        if !counted[s] {
            let order = chain_order(s, &counted);
            let prefix = coo
                .prefix_counts(&order, coo.sorted_perm(&order))
                .expect("sorted_perm orders the entries");
            record_chain(&order, &prefix, counts, &mut counted);
        }
    }
}

/// Record `prefix[k]` as the count of the subset `order[..=k]`.
fn record_chain(order: &[usize], prefix: &[usize], counts: &mut [u64], counted: &mut [bool]) {
    let mut subset = 0;
    for (&m, &c) in order.iter().zip(prefix) {
        subset |= 1 << m;
        counts[subset] = c as u64;
        counted[subset] = true;
    }
}

/// An order of the modes of `subset` whose prefixes are, as far back as
/// a greedy walk finds, subsets not yet counted: one sort then counts
/// the whole chain.
fn chain_order(subset: usize, counted: &[bool]) -> Vec<usize> {
    let mut order = Vec::new();
    let mut rest = subset;
    while rest != 0 {
        let modes = (0..usize::BITS as usize).filter(|m| rest >> m & 1 == 1);
        let m = modes
            .clone()
            .find(|m| !counted[rest & !(1 << m)])
            .unwrap_or_else(|| modes.max().unwrap());
        order.push(m);
        rest &= !(1 << m);
    }
    order.reverse();
    order
}

/// Mixed-radix strides that number the cells of `subset` (zero for the
/// modes outside it), and the number of cells — `None` when that
/// overflows `u64`.
fn strides(dims: &[usize], subset: usize) -> Option<(Vec<u64>, u64)> {
    let mut strides = vec![0u64; dims.len()];
    let mut cells = 1u64;
    for m in (0..dims.len()).rev().filter(|m| subset >> m & 1 == 1) {
        strides[m] = cells;
        cells = cells.checked_mul(dims[m] as u64)?;
    }
    Some((strides, cells))
}

/// The cell a coordinate projects to under `strides`.
#[inline]
fn cell(c: &[usize], strides: &[u64]) -> u64 {
    c.iter().zip(strides).map(|(&x, &s)| x as u64 * s).sum()
}

/// One subset's occupied-cell bitmap, filled by [`count_bitmaps`].
struct Bitmap {
    subset: usize,
    strides: Vec<u64>,
    bits: Vec<u64>,
    distinct: u64,
}

/// Fill every bitmap of `batch` in one pass over the entries, then
/// record and drop them.
fn count_bitmaps(coo: &CooTensor, batch: &mut Vec<Bitmap>, counts: &mut [u64]) {
    if batch.is_empty() {
        return;
    }
    for c in coo.coords().chunks_exact(coo.order()) {
        for b in batch.iter_mut() {
            let cell = cell(c, &b.strides);
            let (word, bit) = ((cell / 64) as usize, 1u64 << (cell % 64));
            b.distinct += u64::from(b.bits[word] & bit == 0);
            b.bits[word] |= bit;
        }
    }
    for b in batch.drain(..) {
        counts[b.subset] = b.distinct;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Csf;

    fn sample() -> CooTensor {
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

    #[test]
    fn profile_matches_csf() {
        let coo = sample();
        for order in [[0usize, 1, 2], [2, 0, 1], [1, 2, 0]] {
            let csf = Csf::from_coo(&coo, &order).unwrap();
            let p = SubsetCounts::of(&coo).unwrap().profile(&order).unwrap();
            assert_eq!(p.mode_order(), csf.mode_order());
            for k in 0..3 {
                assert_eq!(
                    p.prefix_nnz(k + 1),
                    csf.level_nnz(k) as u64,
                    "order {order:?}"
                );
            }
        }
    }

    #[test]
    fn prefix_counts_identity_order() {
        let p = SubsetCounts::of(&sample())
            .unwrap()
            .profile(&[0, 1, 2])
            .unwrap();
        assert_eq!(p.prefix_nnz(0), 1);
        assert_eq!(p.prefix_nnz(1), 2);
        assert_eq!(p.prefix_nnz(2), 4);
        assert_eq!(p.prefix_nnz(3), 5);
        assert_eq!(p.nnz(), 5);
    }

    #[test]
    fn uniform_model_monotone_and_bounded() {
        let p = SparsityProfile::uniform(&[100, 100, 100], &[0, 1, 2], 5_000).unwrap();
        for k in 0..3 {
            assert!(p.prefix_nnz(k) <= p.prefix_nnz(k + 1));
        }
        assert_eq!(p.nnz(), 5_000);
        // Level 1 should be near-saturated: 100 cells, 5000 draws.
        assert!(p.prefix_nnz(1) >= 99);
        // Level 2: 10^4 cells, 5000 draws -> ~3935 expected distinct.
        let lvl2 = p.prefix_nnz(2);
        assert!((3700..=4100).contains(&lvl2), "lvl2 = {lvl2}");
    }

    #[test]
    fn uniform_model_tracks_exact_counts() {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let dims = [64usize, 64, 64];
        let nnz = 4096usize;
        let coo = crate::gen::random_coo(&dims, nnz, &mut rng).unwrap();
        let exact = SubsetCounts::of(&coo).unwrap().profile(&[0, 1, 2]).unwrap();
        let model = SparsityProfile::uniform(&dims, &[0, 1, 2], nnz as u64).unwrap();
        for k in 1..=3 {
            let e = exact.prefix_nnz(k) as f64;
            let m = model.prefix_nnz(k) as f64;
            assert!((e - m).abs() / e < 0.1, "level {k}: exact {e} model {m}");
        }
    }
}
