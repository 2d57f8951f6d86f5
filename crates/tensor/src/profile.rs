//! Data-independent sparsity profiles.
//!
//! An SpTTN kernel has a *fixed* sparsity pattern (the paper's key
//! observation in Sec. 1): the cost of any loop nest depends on the
//! pattern only through the per-level CSF fiber counts
//! `nnz_{I1..Ik}(T)`. A [`SparsityProfile`] captures exactly those
//! counts plus the dimensions, so the planner can rank contraction paths
//! and loop nests without touching the tensor values — and even without
//! the tensor, using the [`SparsityProfile::uniform`] model.

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
    /// Exact profile of a COO tensor under an arbitrary mode order (use
    /// for CSF mode-order search). Input already sorted in `mode_order`
    /// without duplicates is counted in place in one pass; anything else
    /// is counted on a sorted, deduplicated copy.
    pub fn from_coo(coo: &CooTensor, mode_order: &[usize]) -> Result<Self, TensorError> {
        let d = coo.order();
        let sorted = coo.sorted_under(mode_order)?;
        let n = sorted.nnz();
        let mut prefix_nnz = vec![0u64; d + 1];
        prefix_nnz[0] = 1;
        for e in 0..n {
            let ell = if e == 0 {
                0
            } else {
                let (a, b) = (sorted.coord(e), sorted.coord(e - 1));
                (0..d)
                    .position(|k| a[mode_order[k]] != b[mode_order[k]])
                    .unwrap_or(d)
            };
            // Entry e creates a new node at every level >= ell.
            for k in ell..d {
                prefix_nnz[k + 1] += 1;
            }
        }
        Ok(SparsityProfile {
            dims: coo.dims().to_vec(),
            mode_order: mode_order.to_vec(),
            prefix_nnz,
        })
    }

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
            let p = SparsityProfile::from_coo(&coo, &order).unwrap();
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
        let p = SparsityProfile::from_coo(&sample(), &[0, 1, 2]).unwrap();
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
        let exact = SparsityProfile::from_coo(&coo, &[0, 1, 2]).unwrap();
        let model = SparsityProfile::uniform(&dims, &[0, 1, 2], nnz as u64).unwrap();
        for k in 1..=3 {
            let e = exact.prefix_nnz(k) as f64;
            let m = model.prefix_nnz(k) as f64;
            assert!((e - m).abs() / e < 0.1, "level {k}: exact {e} model {m}");
        }
    }
}
