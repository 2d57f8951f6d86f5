//! Tree-separable cost functions (paper Def. 4.4).
//!
//! A cost is *tree-separable* when it decomposes along the fused loop
//! nest: `f(T, L, A) = φ_{T,L,r}( f(B₁) ⊕ … ⊕ f(B_k) )` with `φ`
//! nondecreasing and `⊕` an associative, monotone semigroup operator.
//! Both the Algorithm-1 dynamic program and the explicit-forest
//! evaluator call the same [`TreeCost`] implementation, so search and
//! verification cannot drift apart.
//!
//! A vertex's `φ` sees a [`VertexCtx`]: which terms the loop covers,
//! which indices enclosing loops already iterate (`removed`), the loop
//! index, its sparse/dense classification, and the sibling horizon
//! (`call_hi`) — the exclusive end of the term range at the vertex's
//! nesting level. Buffers whose producer lies under the vertex but whose
//! consumer is a *sibling* (within `call_hi`) split exactly here — the
//! rule [`ContractionPath::splits`] states once for the tape and the
//! bind too — so their stored size `|out_inds \ removed|` (Eq. 5) is
//! exact at this vertex and charged nowhere else.

use crate::work::WorkCounts;
use spttn_ir::{ContractionPath, IdxSet, IndexId, Kernel, VertexKind};
use spttn_tensor::SparsityProfile;
use std::cmp::Ordering;

/// Everything `φ` may inspect at one loop vertex.
#[derive(Debug, Clone, Copy)]
pub struct VertexCtx<'a> {
    /// Kernel being planned.
    pub kernel: &'a Kernel,
    /// Contraction path being planned.
    pub path: &'a ContractionPath,
    /// Sparsity profile of the sparse input.
    pub profile: &'a SparsityProfile,
    /// First term covered by this loop.
    pub lo: usize,
    /// Exclusive end of the covered term range.
    pub hi: usize,
    /// Exclusive end of the sibling region at this nesting level; buffers
    /// consumed in `[hi, call_hi)` split at this vertex.
    pub call_hi: usize,
    /// Indices iterated by enclosing loops (the paper's set `S`).
    pub removed: IdxSet,
    /// The loop index of this vertex.
    pub index: IndexId,
    /// Sparse (CSF) or dense iteration.
    pub kind: VertexKind,
    /// Whether the tape runs the vertex as one instruction: a row of
    /// [`fused_loop`](spttn_ir::fused_loop) that
    /// [`fits`](spttn_ir::FusedLoop::fits) the subtree chosen below it.
    pub fused: bool,
}

impl<'a> VertexCtx<'a> {
    /// Number of iterations this loop performs, under the profile: the
    /// full dimension for dense loops, the mean CSF branching factor for
    /// sparse loops.
    pub fn iterations(&self) -> f64 {
        match self.kind {
            VertexKind::Dense => self.kernel.dim(self.index) as f64,
            VertexKind::Sparse { level } => {
                let up = self.profile.prefix_nnz(level + 1) as f64;
                let down = self.profile.prefix_nnz(level).max(1) as f64;
                up / down
            }
        }
    }

    /// Stored index sets of the buffers that split at this vertex, by
    /// [`ContractionPath::splits`]: producer under the vertex, consumer a
    /// sibling in `[hi, call_hi)`. The loops enclosing the vertex are
    /// then the producer–consumer common ancestors, so each buffer
    /// stores `out_inds \ removed` (Eq. 5) — what a bind allocates.
    pub fn splitting_buffers(&self) -> impl Iterator<Item = IdxSet> + '_ {
        (self.path.splits(self.lo, self.hi, self.call_hi))
            .map(|t| self.path.terms[t].out_inds.minus(self.removed))
    }

    /// Largest dimensionality among buffers splitting at this vertex.
    pub fn max_splitting_buffer_dim(&self) -> usize {
        self.splitting_buffers().map(|s| s.len()).max().unwrap_or(0)
    }

    /// Largest element count among buffers splitting at this vertex.
    pub fn max_splitting_buffer_size(&self) -> u128 {
        self.splitting_buffers()
            .map(|s| {
                s.iter()
                    .fold(1u128, |n, i| n.saturating_mul(self.kernel.dim(i) as u128))
            })
            .max()
            .unwrap_or(0)
    }
}

/// A tree-separable cost function `(φ, ⊕)` (Def. 4.4).
pub trait TreeCost {
    /// Cost values; compared with `PartialOrd` (smaller is better).
    type Value: Clone + PartialEq + PartialOrd + std::fmt::Debug;

    /// Identity element of `⊕` (cost of an empty forest / a leaf).
    fn empty(&self) -> Self::Value;

    /// The semigroup combine `⊕` across sibling subtrees.
    fn combine(&self, a: &Self::Value, b: &Self::Value) -> Self::Value;

    /// `φ_{T,L,r}` applied around a vertex's inner cost.
    fn apply(&self, ctx: &VertexCtx<'_>, inner: &Self::Value) -> Self::Value;

    /// Whether a final value satisfies the model's hard constraints
    /// (e.g. the buffer-dimension bound). Infeasible plans make the
    /// planner fall back to contraction paths of higher asymptotic cost
    /// (paper Sec. 5).
    fn is_feasible(&self, _v: &Self::Value) -> bool {
        true
    }

    /// True when `⊕` is `max`: the value is set by the single worst
    /// vertex, so it is not *strictly* increasing in its subtrees and
    /// breaking its ties by [`Work`](crate::Work) vertex by vertex would
    /// lose optimality. [`optimal_order`](crate::optimal_order) instead
    /// finds the optimal value first, then minimizes `Work` over the
    /// nests that attain it.
    const BOTTLENECK: bool = false;

    /// The one ordering by which a nest is chosen — inside the DP,
    /// across contraction paths and across CSF orders: the model's own
    /// value, ties broken by executed work (less is better).
    fn rank(&self, a: (&Self::Value, &WorkCounts), b: (&Self::Value, &WorkCounts)) -> Ordering {
        let by_value = a.0.partial_cmp(b.0).unwrap_or(Ordering::Equal);
        by_value.then(a.1.ns().total_cmp(&b.1.ns()))
    }
}

/// Def. 4.5: maximum intermediate-buffer dimensionality.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxBufferDim;

impl TreeCost for MaxBufferDim {
    type Value = usize;

    fn empty(&self) -> usize {
        0
    }

    fn combine(&self, a: &usize, b: &usize) -> usize {
        *a.max(b)
    }

    fn apply(&self, ctx: &VertexCtx<'_>, inner: &usize) -> usize {
        ctx.max_splitting_buffer_dim().max(*inner)
    }

    const BOTTLENECK: bool = true;
}

/// Def. 4.5 variant: maximum intermediate-buffer element count.
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxBufferSize;

impl TreeCost for MaxBufferSize {
    type Value = u128;

    fn empty(&self) -> u128 {
        0
    }

    fn combine(&self, a: &u128, b: &u128) -> u128 {
        *a.max(b)
    }

    fn apply(&self, ctx: &VertexCtx<'_>, inner: &u128) -> u128 {
        ctx.max_splitting_buffer_size().max(*inner)
    }

    const BOTTLENECK: bool = true;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_forest;
    use spttn_ir::{build_forest, parse_kernel, path_from_picks, NestSpec};

    fn setup() -> (Kernel, ContractionPath, SparsityProfile) {
        let k = parse_kernel(
            "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
            &[("i", 10), ("j", 11), ("k", 12), ("r", 4), ("s", 5)],
        )
        .unwrap();
        let p = path_from_picks(&k, &[(0, 2), (0, 1)]);
        let profile = SparsityProfile::uniform(&[10, 11, 12], &[0, 1, 2], 200).unwrap();
        (k, p, profile)
    }

    #[test]
    fn buffer_dim_cost_matches_listings() {
        let (k, p, prof) = setup();
        let eval = |orders: Vec<Vec<usize>>| {
            let spec = NestSpec { orders };
            let f = build_forest(&k, &p, &spec).unwrap();
            eval_forest(&k, &p, &prof, &f, &MaxBufferDim)
        };
        // Listing 2 (unfused): buffer (i,j,s) -> dim 3.
        assert_eq!(eval(vec![vec![0, 1, 2, 4], vec![4, 0, 1, 3]]), 3);
        // Listing 3: buffer (s) -> dim 1.
        assert_eq!(eval(vec![vec![0, 1, 2, 4], vec![0, 1, 4, 3]]), 1);
        // Listing 4: scalar buffer -> dim 0.
        assert_eq!(eval(vec![vec![0, 1, 4, 2], vec![0, 1, 4, 3]]), 0);
    }

    #[test]
    fn buffer_size_cost_matches_listings() {
        let (k, p, prof) = setup();
        let eval = |orders: Vec<Vec<usize>>| {
            let spec = NestSpec { orders };
            let f = build_forest(&k, &p, &spec).unwrap();
            eval_forest(&k, &p, &prof, &f, &MaxBufferSize)
        };
        assert_eq!(eval(vec![vec![0, 1, 2, 4], vec![4, 0, 1, 3]]), 10 * 11 * 5);
        assert_eq!(eval(vec![vec![0, 1, 2, 4], vec![0, 1, 4, 3]]), 5);
        assert_eq!(eval(vec![vec![0, 1, 4, 2], vec![0, 1, 4, 3]]), 1);
    }

    #[test]
    fn iterations_sparse_vs_dense() {
        let (k, p, prof) = setup();
        let ctx = VertexCtx {
            kernel: &k,
            path: &p,
            profile: &prof,
            lo: 0,
            hi: 2,
            call_hi: 2,
            removed: IdxSet::EMPTY,
            index: 0,
            kind: VertexKind::Sparse { level: 0 },
            fused: false,
        };
        // Root sparse loop: prefix_nnz(1)/prefix_nnz(0) iterations.
        assert!((ctx.iterations() - prof.prefix_nnz(1) as f64).abs() < 1e-9);
        let dense = VertexCtx {
            index: 3,
            kind: VertexKind::Dense,
            ..ctx
        };
        assert_eq!(dense.iterations(), 4.0);
    }
}
