//! Direct cost evaluation on an explicit fused forest.
//!
//! Mirrors the semantics the Algorithm-1 dynamic program assumes:
//! `f(forest) = ⊕ over siblings`, `f(vertex) = φ(ctx)(f(children))`,
//! with a vertex's `call_hi` equal to the end of its sibling region.
//! Used by the exhaustive search and by the DP cross-check tests.

use crate::tree_cost::{TreeCost, VertexCtx};
use spttn_ir::{ContractionPath, IdxSet, Kernel, LoopForest, LoopNode};
use spttn_tensor::SparsityProfile;

/// Evaluate a tree-separable cost on a fused forest.
pub fn eval_forest<C: TreeCost>(
    kernel: &Kernel,
    path: &ContractionPath,
    profile: &SparsityProfile,
    forest: &LoopForest,
    cost: &C,
) -> C::Value {
    eval_nodes(
        kernel,
        path,
        profile,
        &forest.roots,
        path.len(),
        IdxSet::EMPTY,
        cost,
    )
}

fn eval_nodes<C: TreeCost>(
    kernel: &Kernel,
    path: &ContractionPath,
    profile: &SparsityProfile,
    nodes: &[LoopNode],
    call_hi: usize,
    removed: IdxSet,
    cost: &C,
) -> C::Value {
    // Folded from the right and skipping leaves, which is the order the
    // DP combines in: floating-point costs then agree bit for bit.
    let mut acc = cost.empty();
    for n in nodes.iter().rev() {
        let v = match n {
            LoopNode::Leaf(_) => continue,
            LoopNode::Loop(v) => {
                let inner = eval_nodes(
                    kernel,
                    path,
                    profile,
                    &v.children,
                    v.term_hi,
                    removed.insert(v.index),
                    cost,
                );
                let ctx = VertexCtx {
                    kernel,
                    path,
                    profile,
                    lo: v.term_lo,
                    hi: v.term_hi,
                    call_hi,
                    removed,
                    index: v.index,
                    kind: v.kind,
                };
                cost.apply(&ctx, &inner)
            }
        };
        acc = cost.combine(&v, &acc);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree_cost::MaxBufferDim;
    use spttn_ir::{build_forest, parse_kernel, path_from_picks, NestSpec};

    /// call_hi semantics: a buffer consumed by a *sibling* splits at the
    /// producer's vertex; one consumed deeper inside does not.
    #[test]
    fn call_hi_scopes_buffer_splits() {
        let k = parse_kernel(
            "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
            &[("i", 10), ("j", 11), ("k", 12), ("r", 4), ("s", 5)],
        )
        .unwrap();
        let p = path_from_picks(&k, &[(0, 2), (0, 1)]);
        let profile = SparsityProfile::uniform(&[10, 11, 12], &[0, 1, 2], 100).unwrap();
        // Listing 3 forest: split happens under (i,j) at the k-vertex.
        let spec = NestSpec {
            orders: vec![vec![0, 1, 2, 4], vec![0, 1, 4, 3]],
        };
        let f = build_forest(&k, &p, &spec).unwrap();
        // Total = 1 (buffer {s}); the i and j vertices must not re-charge
        // the full {i,j,s} or {s} sizes.
        assert_eq!(eval_forest(&k, &p, &profile, &f, &MaxBufferDim), 1);
    }
}
