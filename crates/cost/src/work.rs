//! Executed work: what a nest makes the tape do.
//!
//! The paper's Sec.-5 pipeline ranks paths by op count and nests by a
//! buffer/BLAS metric on the premise that every nest of a path costs
//! that path's op count. Two things break the premise here: a dense
//! index hoisted above the sparse root re-walks the CSF once per trip,
//! and a CSF index of a pre-sparse term may be iterated densely, so a
//! nest can execute hundreds of times its path's ideal flops. [`Work`]
//! charges a nest for what it executes under the
//! [`SparsityProfile`](spttn_tensor::SparsityProfile): sparse node
//! visits, interpreted tape steps
//! (dense-loop trips, scalar leaves, microkernel dispatches) and vector
//! lanes (microkernel multiply-adds and Eq.-5 buffer zero-fills).
//!
//! It is tree-separable in the shape of Def. 4.6 — every count obeys
//! `φ(x) = I(v)·(c(v) + x)` with the same trip count `I(v)`, and
//! `⊕ = +` — so Algorithm 1 stays exact for it. The two kinds of vertex
//! that deviate each have exactly one possible subtree, so no choice is
//! made beneath them:
//!
//! - a loop (or loop pair) over dense indices that the tape lowers to a
//!   single microkernel dispatch, by the executor's own rule
//!   [`Term::leaf_op`](spttn_ir::Term::leaf_op) — the model asks it, it
//!   does not restate it; what the model adds is that a CSF index
//!   iterated densely gets no such discount (see [`Work::apply`]);
//! - a sparse loop the tape runs as one instruction, by
//!   [`fused_loop`](spttn_ir::fused_loop): one step per visit instead of
//!   one per child, with the unfused loop's visits, lanes and flops. A
//!   zero point the tape folds into a call is worth one buffer fill of
//!   lanes; the model does not price it.
//!
//! A fiber (the rule's third row: a fused loop one level down and one
//! call per child) is the exception to "one possible subtree": the
//! vertex may hold other subtrees, which keep their frame. So the price
//! reads [`VertexCtx::fused`] — whether the subtree chosen below *is*
//! the fiber body — and Algorithm 1 weighs the vertex twice, around its
//! best subtree as a plain loop and around the (unique but for the
//! call's loop order) fiber body as one step per visit. A fused price
//! never exceeds the plain price of the same subtree, so the better of
//! the two is the exact optimum (`crates/cost/src/dp.rs`).
//!
//! Sparse branching factors telescope to `prefix_nnz`, which makes
//! [`WorkCounts::flops`] the nest's executed flop count — exact for a
//! pattern-derived profile, whatever is or is not vectorized.

use crate::tree_cost::{TreeCost, VertexCtx};
use spttn_ir::{IndexId, VertexKind};
use std::cmp::Ordering;

/// One CSF node visit. `benchmark/results/initial.json`:
/// `tensor.walk_ms` 1.017 ms over 299 395 nodes (`mttkrp-cube`) and
/// 6.008 ms over 1 852 539 nodes (`mttkrp-hyper`) — 3.4 and 3.2 ns.
const SPARSE_VISIT_NS: f64 = 3.3;

/// One interpreted tape step: a dense-loop trip, a scalar leaf, or a
/// microkernel dispatch. Same file: `mttkrp-cube` runs 8.0 M scalar
/// leaves in `exec_ms` 109.1 − 32 walks × 1.017 ms → 9.6 ns each;
/// `mttkrp-hyper` runs 1 850 539 dispatches in 36.1 ms − 6.0 ms walk −
/// 11.8 ms of lanes → 9.8 ns each.
const TAPE_STEP_NS: f64 = 9.6;

/// One multiply-add inside a microkernel. Same file:
/// `exec.simd.axpy_gflops` ≈ 10 at rank 32, two flops per lane.
const VECTOR_LANE_NS: f64 = 0.2;

/// The executed-work cost (see the [module docs](self)).
#[derive(Debug, Clone, Copy, Default)]
pub struct Work;

/// What one execution of a nest does, as modeled trip counts. Ordered
/// and compared by [`WorkCounts::ns`].
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkCounts {
    /// Traversals of the CSF root level: the product of the dense
    /// extents above each `csf_level_0` loop, summed over those loops.
    pub walks: f64,
    /// CSF nodes visited by sparse loops.
    pub sparse_visits: f64,
    /// Interpreted tape steps: trips of dense loops that stay loops,
    /// scalar leaves, microkernel dispatches, and one per visit of a
    /// fused sparse loop.
    pub steps: f64,
    /// Elements streamed through vector code: multiply-adds inside
    /// microkernels, plus buffer elements zero-filled at Eq.-5 split
    /// points.
    pub lanes: f64,
    /// Floating-point operations executed, two per leaf evaluation.
    pub flops: f64,
}

impl WorkCounts {
    /// Modeled single-thread time of one execution, in nanoseconds —
    /// the quantity nests are ranked by.
    pub fn ns(&self) -> f64 {
        SPARSE_VISIT_NS * self.sparse_visits
            + TAPE_STEP_NS * self.steps
            + VECTOR_LANE_NS * self.lanes
    }

    /// Executed flops as an integer count (saturating).
    pub fn executed_flops(&self) -> u128 {
        self.flops.round() as u128
    }

    /// A lower bound on [`WorkCounts::ns`] for any nest that executes at
    /// least `flops` flops: every multiply-add costs at least a lane.
    pub fn floor_ns(flops: u128) -> f64 {
        VECTOR_LANE_NS * (flops / 2) as f64
    }
}

impl PartialEq for WorkCounts {
    fn eq(&self, other: &Self) -> bool {
        self.ns() == other.ns()
    }
}

impl PartialOrd for WorkCounts {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.ns().partial_cmp(&other.ns())
    }
}

impl std::fmt::Display for WorkCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (time, unit) = match self.ns() {
            ns if ns < 1e5 => (ns / 1e3, "us"),
            ns => (ns / 1e6, "ms"),
        };
        write!(
            f,
            "~{time:.2} {unit} modeled: {:.0} CSF walk(s), {:.0} sparse visits, \
             {:.0} scalar steps, {:.0} vector lanes, {:.0} flops executed",
            self.walks, self.sparse_visits, self.steps, self.lanes, self.flops
        )
    }
}

impl TreeCost for Work {
    type Value = WorkCounts;

    fn empty(&self) -> WorkCounts {
        WorkCounts::default()
    }

    fn combine(&self, a: &WorkCounts, b: &WorkCounts) -> WorkCounts {
        WorkCounts {
            walks: a.walks + b.walks,
            sparse_visits: a.sparse_visits + b.sparse_visits,
            steps: a.steps + b.steps,
            lanes: a.lanes + b.lanes,
            flops: a.flops + b.flops,
        }
    }

    fn apply(&self, ctx: &VertexCtx<'_>, inner: &WorkCounts) -> WorkCounts {
        let trips = ctx.iterations();
        let iterated = ctx.removed.insert(ctx.index);
        // Terms whose last un-iterated index is this one: their leaves
        // are direct children of this vertex.
        let leaves = (ctx.lo..ctx.hi)
            .filter(|&t| ctx.path.terms[t].iter_inds().is_subset(iterated))
            .count() as f64;

        // Elements of the Eq.-5 buffers that split here: the tape
        // zero-fills them on every visit of this vertex.
        let zeroed: f64 = ctx
            .splitting_buffers()
            .map(|inds| {
                inds.iter()
                    .map(|i| ctx.kernel.dim(i) as f64)
                    .product::<f64>()
            })
            .sum();

        // A loop (or loop pair) over dense indices around a single
        // term's leaf is one microkernel dispatch where the lowering
        // rule names a kernel for it. A CSF index iterated densely is
        // never priced as one, even where the tape would vectorize
        // it: it runs down the leading index of its factor (`U(i,r)`),
        // a stride of the rank away from the contiguous lanes
        // `VECTOR_LANE_NS` was measured on.
        let is_dense = |q: IndexId| ctx.kernel.sparse_level(q).is_none();
        if ctx.kind == VertexKind::Dense && ctx.hi - ctx.lo == 1 && is_dense(ctx.index) {
            let term = &ctx.path.terms[ctx.lo];
            let mut below = term.iter_inds().minus(iterated).iter();
            let lanes_per_trip = match (below.next(), below.next()) {
                (None, _) if term.leaf_op(ctx.index, None).is_some() => Some(1.0),
                (Some(q2), None) if is_dense(q2) && term.leaf_op(ctx.index, Some(q2)).is_some() => {
                    // `inner` is the row kernel the pair's second loop
                    // would have been on its own.
                    Some(inner.lanes)
                }
                _ => None,
            };
            if let Some(per_trip) = lanes_per_trip {
                return WorkCounts {
                    steps: 1.0,
                    lanes: trips * per_trip + zeroed,
                    flops: 2.0 * trips * per_trip,
                    ..WorkCounts::default()
                };
            }
        }

        let (own_visit, own_step) = match ctx.kind {
            VertexKind::Sparse { .. } => (1.0, 0.0),
            VertexKind::Dense => (0.0, 1.0),
        };
        WorkCounts {
            walks: match ctx.kind {
                VertexKind::Sparse { level: 0 } => 1.0,
                _ => trips * inner.walks,
            },
            sparse_visits: trips * (own_visit + inner.sparse_visits),
            // A sparse loop the tape runs as one instruction dispatches
            // once per visit, not once per child (never more often than
            // an unfused loop, which steps nothing when it has no
            // children).
            steps: if ctx.fused {
                trips.min(1.0)
            } else {
                trips * (own_step + leaves + inner.steps)
            },
            lanes: trips * inner.lanes + zeroed,
            flops: trips * (2.0 * leaves + inner.flops),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::optimal_order;
    use crate::eval::eval_forest;
    use crate::exhaustive::exhaustive_search;
    use spttn_ir::{build_forest, enumerate_paths, parse_kernel, path_from_picks, NestSpec};
    use spttn_tensor::SparsityProfile;

    fn mttkrp() -> (spttn_ir::Kernel, SparsityProfile) {
        let k = parse_kernel(
            "A(i,a) = T(i,j,k) * B(j,a) * C(k,a)",
            &[("i", 8), ("j", 9), ("k", 10), ("a", 4)],
        )
        .unwrap();
        let prof = SparsityProfile::uniform(&[8, 9, 10], &[0, 1, 2], 100).unwrap();
        (k, prof)
    }

    /// Hoisting `a` above the sparse root walks the CSF once per trip
    /// and turns every leaf into a scalar step; keeping it innermost is
    /// one walk with AXPY leaves.
    #[test]
    fn hoisted_dense_index_multiplies_the_walk() {
        let (k, prof) = mttkrp();
        let p = path_from_picks(&k, &[(0, 2), (0, 1)]);
        let eval = |orders: Vec<Vec<usize>>| {
            let f = build_forest(&k, &p, &NestSpec { orders }).unwrap();
            eval_forest(&k, &p, &prof, &f, &Work)
        };
        let inner = eval(vec![vec![0, 1, 2, 3], vec![0, 1, 3]]);
        let hoisted = eval(vec![vec![3, 0, 1, 2], vec![3, 0, 1]]);
        assert_eq!(inner.walks, 1.0);
        assert_eq!(hoisted.walks, 4.0);
        assert!(
            (hoisted.sparse_visits - 4.0 * inner.sparse_visits).abs() < 1e-6,
            "{hoisted:?} vs {inner:?}"
        );
        // Same arithmetic either way; only how it is executed differs.
        assert_eq!(inner.executed_flops(), hoisted.executed_flops());
        assert_eq!(inner.executed_flops(), p.flops(&k, &prof));
        // Hoisted, every leaf is a scalar step; inside, one AXPY each.
        assert!(
            hoisted.steps > 3.9 * inner.steps,
            "{hoisted:?} vs {inner:?}"
        );
        assert!(inner < hoisted);
    }

    /// A GER nest is one dispatch per visit, not one per row; with the
    /// sparse-AXPY `k` loop beside it, it is the body of a fiber, so the
    /// whole `j` loop is one step per visit: one per `i` node. Around
    /// Listing 4's subtree (the `s` loop fused over both terms) the same
    /// `j` vertex keeps its frame.
    #[test]
    fn blas2_pair_is_one_dispatch() {
        let k = parse_kernel(
            "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
            &[("i", 10), ("j", 11), ("k", 12), ("r", 4), ("s", 5)],
        )
        .unwrap();
        let p = path_from_picks(&k, &[(0, 2), (0, 1)]);
        let prof = SparsityProfile::uniform(&[10, 11, 12], &[0, 1, 2], 200).unwrap();
        let spec = NestSpec {
            orders: vec![vec![0, 1, 2, 4], vec![0, 1, 4, 3]],
        };
        let f = build_forest(&k, &p, &spec).unwrap();
        let w = eval_forest(&k, &p, &prof, &f, &Work);
        let nnz_i = prof.prefix_nnz(1) as f64;
        let (nnz_ij, nnz) = (prof.prefix_nnz(2) as f64, prof.prefix_nnz(3) as f64);
        assert!((w.steps - nnz_i).abs() < 1e-6, "{w:?}");
        // AXPY rows of 5, GER tiles of 4×5, and `X0[s]` zeroed per (i,j).
        let lanes = nnz * 5.0 + nnz_ij * 20.0 + nnz_ij * 5.0;
        assert!((w.lanes - lanes).abs() < 1e-6, "{w:?}");
        let spec = NestSpec {
            orders: vec![vec![0, 1, 4, 2], vec![0, 1, 4, 3]],
        };
        let f = build_forest(&k, &p, &spec).unwrap();
        let listing4 = eval_forest(&k, &p, &prof, &f, &Work);
        assert!(listing4.steps > nnz_ij, "{listing4:?}");
    }

    /// SDDMM's inner `j` loop — a rank-12 DOT into a scalar, then the
    /// leaf that reads it — is one step per `i` fiber. Per nonzero it
    /// keeps the DOT's lanes, the scalar's zero fill and both terms'
    /// flops.
    #[test]
    fn fused_dot_loop_is_one_step_per_visit() {
        let k = parse_kernel(
            "S(i,j) = T(i,j) * U(i,r) * V(j,r)",
            &[("i", 9), ("j", 7), ("r", 12)],
        )
        .unwrap();
        let p = path_from_picks(&k, &[(1, 2), (0, 1)]);
        let prof = SparsityProfile::uniform(&[9, 7], &[0, 1], 30).unwrap();
        let spec = NestSpec {
            orders: vec![vec![0, 1, 2], vec![0, 1]],
        };
        let f = build_forest(&k, &p, &spec).unwrap();
        let w = eval_forest(&k, &p, &prof, &f, &Work);
        let (fibers, nnz) = (prof.prefix_nnz(1) as f64, prof.prefix_nnz(2) as f64);
        assert!((w.sparse_visits - (fibers + nnz)).abs() < 1e-6, "{w:?}");
        assert!((w.steps - fibers).abs() < 1e-6, "{w:?}");
        assert!((w.lanes - nnz * 13.0).abs() < 1e-6, "{w:?}");
        assert!((w.flops - nnz * 26.0).abs() < 1e-6, "{w:?}");
    }

    /// Algorithm 1 is exact for `Work` on its own, on every path.
    #[test]
    fn dp_is_exact_for_work() {
        let (k, prof) = mttkrp();
        for p in enumerate_paths(&k) {
            let dp = optimal_order(&k, &p, &prof, &Work).unwrap();
            let ex = exhaustive_search(&k, &p, &prof, &Work).unwrap();
            assert_eq!(dp.value, ex.value, "{}", p.describe(&k));
        }
    }
}
