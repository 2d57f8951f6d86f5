//! Intermediate-buffer inference (paper Eq. 5).
//!
//! Every non-final term writes a dense buffer consumed by exactly one
//! later term. Its stored indices are the producer's output indices
//! minus the *common ancestors* of producer and consumer leaves in the
//! fused forest — ancestor loops position the buffer, so only the inner
//! indices need storage. This is what shrinks the order-3 TTMc
//! intermediate from `I×J×S` (unfused, Listing 2) to `S` (Listing 3) to
//! a scalar (Listing 4).

use crate::fuse::LoopForest;
use crate::index::{IdxSet, IndexId};
use crate::kernel::Kernel;
use crate::path::ContractionPath;

/// A dense intermediate buffer of a fused loop nest.
///
/// Sized purely from the kernel's index dimensions — no operand data is
/// consulted — so buffer specs can be computed for a symbolic plan and
/// turned into allocations only when data is bound.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BufferSpec {
    /// Term producing the buffer.
    pub producer: usize,
    /// Term consuming the buffer.
    pub consumer: usize,
    /// Stored indices, ordered by producer loop-order position (so the
    /// producer's innermost loop writes contiguously).
    pub inds: Vec<IndexId>,
    /// Dimensions matching `inds`.
    pub dims: Vec<usize>,
}

impl BufferSpec {
    /// Number of stored dimensions (the paper's buffer-dimension metric).
    #[inline]
    pub fn ndim(&self) -> usize {
        self.inds.len()
    }

    /// Total element count, saturating: a buffer past `u128::MAX`
    /// elements is as unallocatable as one at it.
    #[inline]
    pub fn size(&self) -> u128 {
        (self.dims.iter()).fold(1, |n, &d| n.saturating_mul(d as u128))
    }

    /// Index set of the stored indices.
    pub fn index_set(&self) -> IdxSet {
        IdxSet::from_iter(self.inds.iter().copied())
    }

    /// Row-major strides matching [`BufferSpec::dims`] — the layout the
    /// executor's `DenseTensor` allocation of this buffer uses. Exposed
    /// so bind-time compilers can lower buffer addressing to
    /// base-offset + stride arithmetic without materializing tensors.
    pub fn strides(&self) -> Vec<usize> {
        row_major_strides(&self.dims)
    }
}

/// Row-major strides for a dimension list (last mode contiguous) —
/// shared by [`BufferSpec::strides`] and
/// [`crate::Kernel::ref_strides`] so the two layouts cannot drift.
pub(crate) fn row_major_strides(dims: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; dims.len()];
    for k in (0..dims.len().saturating_sub(1)).rev() {
        strides[k] = strides[k + 1] * dims[k + 1];
    }
    strides
}

/// Compute the buffer of every non-final term for a fused forest.
pub fn buffers_for_forest(
    kernel: &Kernel,
    path: &ContractionPath,
    forest: &LoopForest,
) -> Vec<BufferSpec> {
    let n = path.len();
    let common = forest.common_ancestor_sets(n);
    let ancestors = forest.ancestors(n);
    let mut out = Vec::with_capacity(n.saturating_sub(1));
    for (t, term) in path.terms.iter().enumerate() {
        let Some(c) = term.consumer else { continue };
        let shared = common[t][c];
        let kept = term.out_inds.minus(shared);
        // Order by position in the producer's loop order; indices of the
        // buffer not iterated by the producer cannot occur (buffer inds ⊆
        // producer inds), so every kept index has a position.
        let order = &ancestors[t];
        let mut inds: Vec<IndexId> = kept.to_vec();
        inds.sort_by_key(|i| order.iter().position(|x| x == i).unwrap_or(usize::MAX));
        let dims = inds.iter().map(|&i| kernel.dim(i)).collect();
        out.push(BufferSpec {
            producer: t,
            consumer: c,
            inds,
            dims,
        });
    }
    out
}

/// Maximum buffer dimensionality of a fused nest (Def. 4.5's metric).
pub fn max_buffer_dim(buffers: &[BufferSpec]) -> usize {
    buffers.iter().map(BufferSpec::ndim).max().unwrap_or(0)
}

/// Maximum single-buffer element count.
pub fn max_buffer_size(buffers: &[BufferSpec]) -> u128 {
    buffers.iter().map(BufferSpec::size).max().unwrap_or(0)
}

/// Total element count over all buffers.
pub fn total_buffer_size(buffers: &[BufferSpec]) -> u128 {
    buffers
        .iter()
        .map(BufferSpec::size)
        .fold(0, u128::saturating_add)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuse::build_forest;
    use crate::order::NestSpec;
    use crate::parse_kernel;
    use crate::path::path_from_picks;

    fn ttmc3() -> (Kernel, ContractionPath) {
        let k = parse_kernel(
            "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
            &[("i", 10), ("j", 11), ("k", 12), ("r", 4), ("s", 5)],
        )
        .unwrap();
        let p = path_from_picks(&k, &[(0, 2), (0, 1)]);
        (k, p)
    }

    #[test]
    fn listing2_full_buffer() {
        // Unfused: no shared vertices; buffer keeps (i,j,s).
        let (k, p) = ttmc3();
        let spec = NestSpec {
            orders: vec![vec![0, 1, 2, 4], vec![4, 0, 1, 3]],
        };
        let f = build_forest(&k, &p, &spec).unwrap();
        let bufs = buffers_for_forest(&k, &p, &f);
        assert_eq!(bufs.len(), 1);
        assert_eq!(bufs[0].ndim(), 3);
        assert_eq!(bufs[0].size(), 10 * 11 * 5);
        // Row-major layout: last stored mode contiguous.
        assert_eq!(bufs[0].strides(), vec![11 * 5, 5, 1]);
    }

    #[test]
    fn listing3_buffer_is_s() {
        let (k, p) = ttmc3();
        let spec = NestSpec {
            orders: vec![vec![0, 1, 2, 4], vec![0, 1, 4, 3]],
        };
        let f = build_forest(&k, &p, &spec).unwrap();
        let bufs = buffers_for_forest(&k, &p, &f);
        assert_eq!(bufs[0].inds, vec![4]); // s
        assert_eq!(bufs[0].dims, vec![5]);
        assert_eq!(max_buffer_dim(&bufs), 1);
    }

    #[test]
    fn listing4_buffer_is_scalar() {
        let (k, p) = ttmc3();
        let spec = NestSpec {
            orders: vec![vec![0, 1, 4, 2], vec![0, 1, 4, 3]],
        };
        let f = build_forest(&k, &p, &spec).unwrap();
        let bufs = buffers_for_forest(&k, &p, &f);
        assert_eq!(bufs[0].ndim(), 0);
        assert_eq!(bufs[0].size(), 1);
        assert_eq!(total_buffer_size(&bufs), 1);
    }

    #[test]
    fn order4_ttmc_paper_buffers() {
        // Fig. 6: X of size T(dim t), Y of size S×T under loops (i,j).
        let k = parse_kernel(
            "S(i,r,s,t) = T(i,j,k,l) * U(j,r) * V(k,s) * W(l,t)",
            &[
                ("i", 9),
                ("j", 9),
                ("k", 9),
                ("l", 9),
                ("r", 3),
                ("s", 4),
                ("t", 5),
            ],
        )
        .unwrap();
        // Items after T*W: [U, V, X0]; contract V*X0 then U*X1.
        let p = path_from_picks(&k, &[(0, 3), (1, 2), (0, 1)]);
        // Orders from Fig. 6: (i,j,k,l,t), (i,j,k,s,t), (i,j,r,s,t).
        let spec = NestSpec {
            orders: vec![
                vec![0, 1, 2, 3, 6],
                vec![0, 1, 2, 5, 6],
                vec![0, 1, 4, 5, 6],
            ],
        };
        let f = build_forest(&k, &p, &spec).unwrap();
        let bufs = buffers_for_forest(&k, &p, &f);
        assert_eq!(bufs.len(), 2);
        // X consumed by term 1 under shared (i,j,k): keeps {t}.
        assert_eq!(bufs[0].dims, vec![5]);
        // Y consumed by term 2 under shared (i,j): keeps {s,t}.
        assert_eq!(bufs[1].dims, vec![4, 5]);
        assert_eq!(max_buffer_dim(&bufs), 2);
        assert_eq!(max_buffer_size(&bufs), 20);
    }

    #[test]
    fn buffer_index_order_follows_producer() {
        let (k, p) = ttmc3();
        // Producer order (i, s, j, k) keeps (s) — trivially ordered; use
        // the unfused case with multi-index buffer instead.
        let spec = NestSpec {
            orders: vec![vec![0, 1, 2, 4], vec![4, 0, 1, 3]],
        };
        let f = build_forest(&k, &p, &spec).unwrap();
        let bufs = buffers_for_forest(&k, &p, &f);
        // Producer order (i,j,k,s): kept {i,j,s} ordered i,j,s.
        assert_eq!(bufs[0].inds, vec![0, 1, 4]);
    }
}
