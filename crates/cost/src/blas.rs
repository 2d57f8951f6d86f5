//! The evaluation cost model of paper Sec. 5: "select the loop nest with
//! the maximum number of independent dense loops with bounded buffer
//! dimension".
//!
//! A *BLAS loop* is a loop over one of the paper's dense indices — not
//! a mode of the sparse tensor — covering a single term with no sparse
//! iteration remaining beneath it: exactly the loops the runtime can
//! hand to AXPY/GER-style microkernels (paper Fig. 6). A CSF index that
//! a pre-sparse term iterates over its full dimension is a *forfeited
//! sparse loop* and counts for nothing. Nests are ranked
//! lexicographically ([`TreeCost::rank`]): feasibility (every
//! intermediate buffer within the dimension bound) dominates; then more
//! BLAS loops win; then less executed [`Work`](crate::Work); buffer
//! size breaks the remaining ties. Infeasible values are absorbing,
//! which is what lets the planner fall back to the next contraction
//! path (Sec. 5).

use crate::tree_cost::{TreeCost, VertexCtx};
use crate::work::WorkCounts;
use spttn_ir::VertexKind;
use std::cmp::Ordering;

/// Cost value for [`BlasAware`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BlasValue {
    /// Some buffer exceeded the dimension bound.
    Infeasible,
    /// Feasible with `blas` offloadable dense loops and `buf_size`
    /// maximum buffer elements.
    Feasible {
        /// Count of BLAS-offloadable dense loops (more is better).
        blas: u64,
        /// Maximum buffer element count (tie-break, less is better).
        buf_size: u128,
    },
}

impl PartialOrd for BlasValue {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        use std::cmp::Ordering::*;
        use BlasValue::*;
        match (self, other) {
            (Infeasible, Infeasible) => Some(Equal),
            (Infeasible, Feasible { .. }) => Some(Greater),
            (Feasible { .. }, Infeasible) => Some(Less),
            (
                Feasible {
                    blas: b1,
                    buf_size: s1,
                },
                Feasible {
                    blas: b2,
                    buf_size: s2,
                },
            ) => Some(b2.cmp(b1).then(s1.cmp(s2))), // more blas = smaller cost
        }
    }
}

/// Sec. 5 metric: maximize BLAS-shaped dense loops subject to a bound on
/// intermediate-buffer dimensionality (the paper's experiments use 2).
#[derive(Debug, Clone, Copy)]
pub struct BlasAware {
    /// Maximum allowed buffer dimensionality.
    pub buffer_dim_bound: usize,
}

impl Default for BlasAware {
    fn default() -> Self {
        BlasAware {
            buffer_dim_bound: 2,
        }
    }
}

impl TreeCost for BlasAware {
    type Value = BlasValue;

    fn empty(&self) -> BlasValue {
        BlasValue::Feasible {
            blas: 0,
            buf_size: 0,
        }
    }

    fn combine(&self, a: &BlasValue, b: &BlasValue) -> BlasValue {
        match (a, b) {
            (
                BlasValue::Feasible {
                    blas: b1,
                    buf_size: s1,
                },
                BlasValue::Feasible {
                    blas: b2,
                    buf_size: s2,
                },
            ) => BlasValue::Feasible {
                blas: b1 + b2,
                buf_size: *s1.max(s2),
            },
            _ => BlasValue::Infeasible,
        }
    }

    fn apply(&self, ctx: &VertexCtx<'_>, inner: &BlasValue) -> BlasValue {
        let BlasValue::Feasible { blas, buf_size } = *inner else {
            return BlasValue::Infeasible;
        };
        if ctx.max_splitting_buffer_dim() > self.buffer_dim_bound {
            return BlasValue::Infeasible;
        }
        // BLAS-offloadable: a loop over a dense index (a CSF index
        // iterated densely is a forfeited sparse loop, not one of the
        // paper's dense loops), single covered term, and no
        // sparse-lineage index of that term left to iterate beneath.
        let dense_index =
            ctx.kind == VertexKind::Dense && ctx.kernel.sparse_level(ctx.index).is_none();
        let offloadable = dense_index && ctx.hi - ctx.lo == 1 && {
            let term = &ctx.path.terms[ctx.lo];
            let below = term.iter_inds().minus(ctx.removed).remove(ctx.index);
            !term.lineage().intersects(below)
        };
        BlasValue::Feasible {
            blas: blas + u64::from(offloadable),
            buf_size: buf_size.max(ctx.max_splitting_buffer_size()),
        }
    }

    fn is_feasible(&self, v: &BlasValue) -> bool {
        !matches!(v, BlasValue::Infeasible)
    }

    /// Feasible → more BLAS loops → less executed work → smaller
    /// buffer. `Work` sits above `buf_size` because the buffer size is
    /// a maximum, which may only come last in an exact lexicographic
    /// order (see [`TreeCost::BOTTLENECK`]).
    fn rank(&self, a: (&BlasValue, &WorkCounts), b: (&BlasValue, &WorkCounts)) -> Ordering {
        use BlasValue::Feasible;
        match (a.0, b.0) {
            (
                Feasible {
                    blas: b1,
                    buf_size: s1,
                },
                Feasible {
                    blas: b2,
                    buf_size: s2,
                },
            ) => b2
                .cmp(b1)
                .then(a.1.ns().total_cmp(&b.1.ns()))
                .then(s1.cmp(s2)),
            _ => a.0.partial_cmp(b.0).expect("BlasValue is totally ordered"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_forest;
    use spttn_ir::{build_forest, parse_kernel, path_from_picks, NestSpec};
    use spttn_tensor::SparsityProfile;

    fn blas_of(v: BlasValue) -> u64 {
        match v {
            BlasValue::Feasible { blas, .. } => blas,
            BlasValue::Infeasible => panic!("unexpected infeasible"),
        }
    }

    /// Fig. 6 (order-4 TTMc): the chosen nest offers 1 + 2 + 3 BLAS loops.
    #[test]
    fn fig6_counts_six_blas_loops() {
        let k = parse_kernel(
            "S(i,r,s,t) = T(i,j,k,l) * U(j,r) * V(k,s) * W(l,t)",
            &[
                ("i", 16),
                ("j", 16),
                ("k", 16),
                ("l", 16),
                ("r", 4),
                ("s", 4),
                ("t", 4),
            ],
        )
        .unwrap();
        let p = path_from_picks(&k, &[(0, 3), (1, 2), (0, 1)]);
        let prof = SparsityProfile::uniform(&[16; 4], &[0, 1, 2, 3], 500).unwrap();
        let spec = NestSpec {
            orders: vec![
                vec![0, 1, 2, 3, 6], // i,j,k,l,t -> t is BLAS (AXPY)
                vec![0, 1, 2, 5, 6], // i,j,k,s,t -> s,t are BLAS (GER)
                vec![0, 1, 4, 5, 6], // i,j,r,s,t -> r,s,t are BLAS
            ],
        };
        let f = build_forest(&k, &p, &spec).unwrap();
        let v = eval_forest(&k, &p, &prof, &f, &BlasAware::default());
        assert_eq!(blas_of(v), 6);
    }

    /// Fig. 9's two nests: bound 1 admits the scalar-buffer nest only.
    #[test]
    fn buffer_bound_infeasibility() {
        let k = parse_kernel(
            "S(r,s,t) = T(i,j,k) * U(i,r) * V(j,s) * W(k,t)",
            &[
                ("i", 32),
                ("j", 32),
                ("k", 32),
                ("r", 8),
                ("s", 8),
                ("t", 8),
            ],
        )
        .unwrap();
        // Path (T*W) -> X(i,j,t,...); then *V; then *U.
        let p = path_from_picks(&k, &[(0, 3), (1, 2), (0, 1)]);
        let prof = SparsityProfile::uniform(&[32; 3], &[0, 1, 2], 2000).unwrap();
        // Loop nest #2 (bound 2): orders (i,j,k,t),(i,j,s,t),(i,r,s,t):
        // buffers X{t} (1-d) and Y{s,t} (2-d).
        let nest2 = NestSpec {
            orders: vec![vec![0, 1, 2, 5], vec![0, 1, 4, 5], vec![0, 3, 4, 5]],
        };
        let f2 = build_forest(&k, &p, &nest2).unwrap();
        let v2_bound2 = eval_forest(
            &k,
            &p,
            &prof,
            &f2,
            &BlasAware {
                buffer_dim_bound: 2,
            },
        );
        assert!(matches!(v2_bound2, BlasValue::Feasible { .. }));
        let v2_bound1 = eval_forest(
            &k,
            &p,
            &prof,
            &f2,
            &BlasAware {
                buffer_dim_bound: 1,
            },
        );
        assert_eq!(v2_bound1, BlasValue::Infeasible);

        // Loop nest #1 (bound 1): orders (i,t,j,k),(i,t,j,s),(i,t,r,s):
        // buffers X{} (scalar) and Y{s} (1-d).
        let nest1 = NestSpec {
            orders: vec![vec![0, 5, 1, 2], vec![0, 5, 1, 4], vec![0, 5, 3, 4]],
        };
        let f1 = build_forest(&k, &p, &nest1).unwrap();
        let v1 = eval_forest(
            &k,
            &p,
            &prof,
            &f1,
            &BlasAware {
                buffer_dim_bound: 1,
            },
        );
        assert!(matches!(v1, BlasValue::Feasible { .. }));
        // Nest #2 offers strictly more BLAS loops than nest #1 at bound 2.
        let v1_b2 = eval_forest(
            &k,
            &p,
            &prof,
            &f1,
            &BlasAware {
                buffer_dim_bound: 2,
            },
        );
        assert!(v2_bound2 < v1_b2, "{v2_bound2:?} vs {v1_b2:?}");
    }

    /// Dense loop above a sparse loop is not BLAS-offloadable.
    #[test]
    fn sparse_below_disqualifies() {
        let k = parse_kernel(
            "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
            &[("i", 10), ("j", 10), ("k", 10), ("r", 4), ("s", 4)],
        )
        .unwrap();
        let p = path_from_picks(&k, &[(0, 2), (0, 1)]);
        let prof = SparsityProfile::uniform(&[10; 3], &[0, 1, 2], 100).unwrap();
        // Listing 4: term 0 order (i,j,s,k) — s has sparse k below.
        let f = build_forest(
            &k,
            &p,
            &NestSpec {
                orders: vec![vec![0, 1, 4, 2], vec![0, 1, 4, 3]],
            },
        )
        .unwrap();
        let v = eval_forest(&k, &p, &prof, &f, &BlasAware::default());
        // Only term 1's trailing r counts (s is fused over both terms).
        assert_eq!(blas_of(v), 1);

        // Listing 3: term 0 (i,j,k,s), term 1 (i,j,s,r): s-loop of term 0
        // and (s,r) of term 1 -> 3 BLAS loops.
        let f3 = build_forest(
            &k,
            &p,
            &NestSpec {
                orders: vec![vec![0, 1, 2, 4], vec![0, 1, 4, 3]],
            },
        )
        .unwrap();
        let v3 = eval_forest(&k, &p, &prof, &f3, &BlasAware::default());
        assert_eq!(blas_of(v3), 3);
        assert!(v3 < v, "listing 3 should win the BLAS metric");
    }

    /// A CSF index iterated densely is a forfeited sparse loop, not a
    /// BLAS loop: the TTTP nest that runs `k` and `j` over their full
    /// dimensions under every `i` scores its two `r` loops and nothing
    /// else — the same as the nest that keeps `j` and `k` sparse.
    #[test]
    fn forfeited_sparse_loops_count_zero() {
        let k = parse_kernel(
            "S(i,j,k) = T(i,j,k) * U(i,r) * V(j,r) * W(k,r)",
            &[("i", 8), ("j", 8), ("k", 8), ("r", 3)],
        )
        .unwrap();
        // (U*V)->X0(i,j,r); (W*X0)->X1(i,j,k); (T*X1)->S. r has id 3.
        let p = path_from_picks(&k, &[(1, 2), (1, 2), (0, 1)]);
        let prof = SparsityProfile::uniform(&[8; 3], &[0, 1, 2], 60).unwrap();
        let blas = |orders: Vec<Vec<usize>>| {
            let f = build_forest(&k, &p, &NestSpec { orders }).unwrap();
            blas_of(eval_forest(&k, &p, &prof, &f, &BlasAware::default()))
        };
        assert_eq!(
            blas(vec![vec![0, 1, 3], vec![0, 2, 1, 3], vec![0, 1, 2]]),
            2
        );
        assert_eq!(
            blas(vec![vec![0, 1, 3], vec![0, 1, 2, 3], vec![0, 1, 2]]),
            2
        );
    }

    #[test]
    fn ordering_semantics() {
        let a = BlasValue::Feasible {
            blas: 5,
            buf_size: 10,
        };
        let b = BlasValue::Feasible {
            blas: 3,
            buf_size: 1,
        };
        assert!(a < b); // more blas wins despite bigger buffer
        let c = BlasValue::Feasible {
            blas: 5,
            buf_size: 4,
        };
        assert!(c < a); // equal blas: smaller buffer wins
        assert!(a < BlasValue::Infeasible);
        assert!(BlasAware::default().is_feasible(&a));
        assert!(!BlasAware::default().is_feasible(&BlasValue::Infeasible));
    }
}
