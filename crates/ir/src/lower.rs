//! The lowering rule: which dense loops become one microkernel call.
//!
//! The paper's runtime (Sec. 5, Fig. 6) hands a term's innermost
//! independent dense loops to a BLAS kernel. That decision — *is* the
//! dense loop `q1`, or the nested pair `(q1, q2)`, around the leaf of
//! `out += left · right` one kernel call, and which operand plays which
//! role — is stated here once, as a function of which of the term's
//! three index sets carry the loop indices. The tape compiler emits the
//! instruction it names, the reference interpreter runs the call it
//! names, and the cost model prices a dispatch exactly where it names
//! one; none of them looks at index membership again.
//!
//! One loop `q` ([`Term::leaf_op`] with no second index):
//!
//! | `left` | `right` | `out` | kernel |
//! |:-:|:-:|:-:|---|
//! | q | q | – | [`Dot`](LeafOp::Dot): `out += Σ_q left[q]·right[q]` |
//! | q | q | q | [`Xmul`](LeafOp::Xmul): `out[q] += left[q]·right[q]` |
//! | q | – | q | [`Axpy`](LeafOp::Axpy)` { vec: Left }`: `out[q] += right·left[q]` |
//! | – | q | q | `Axpy { vec: Right }`: `out[q] += left·right[q]` |
//! | q | – | – | none: a plain sum over one operand stays a loop |
//! | – | q | – | none |
//!
//! A pair `(q1, q2)`, `q1` outermost, is a BLAS-2 call exactly when each
//! loop on its own is a BLAS-1 call and the two fit together:
//!
//! | `q1` alone | `q2` alone | kernel |
//! |---|---|---|
//! | `Axpy { vec: s }` | `Axpy { vec: s̄ }` | [`Ger`](LeafOp::Ger)` { x: s }`: `out[q1,q2] += s[q1]·s̄[q2]` |
//! | `Axpy { vec: s }` | `Dot` | [`Gemv`](LeafOp::Gemv)` { mat: s, row: q1, col: q2 }` |
//! | `Dot` | `Axpy { vec: s }` | `Gemv { mat: s, row: q2, col: q1 }` |
//! | anything else | | none: `q1` stays a loop, `q2` gets its own chance |
//!
//! (`Gemv` is `out[row] += Σ_col mat[row,col]·vec[col]`: the side that
//! carries the kept index also carries the summed one, the other side
//! only the summed one.) The rule reads index sets only — no strides, no
//! extents, no data — so it holds for a symbolic plan.
//!
//! [`LoopVertex::leaf_loops`] is the shape test that goes with it: which
//! vertices of a fused forest are such a loop or loop pair at all.

use crate::fuse::{LoopNode, LoopVertex, VertexKind};
use crate::index::IndexId;
use crate::path::{Operand, Term};

/// One of a term's two operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// [`Term::left`].
    Left,
    /// [`Term::right`].
    Right,
}

impl Side {
    /// The opposite operand.
    pub fn other(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

/// The microkernel call a dense loop (or loop pair) around one term's
/// leaf lowers to, with the role each operand plays in it. See the
/// [module docs](self) for the rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LeafOp {
    /// `out += Σ_q left[q] · right[q]`.
    Dot,
    /// `out[q] += α · vec[q]`, `α` the other operand's scalar.
    Axpy {
        /// The operand that runs along `q`.
        vec: Side,
    },
    /// `out[q] += left[q] · right[q]`.
    Xmul,
    /// Rank-1 update `out[q1,q2] += x[q1] · y[q2]`.
    Ger {
        /// The operand that runs along `q1`; the other runs along `q2`.
        x: Side,
    },
    /// `out[row] += Σ_col mat[row,col] · vec[col]`.
    Gemv {
        /// The operand carrying both loop indices; the other is `vec`.
        mat: Side,
        /// The loop index the output keeps.
        row: IndexId,
        /// The loop index summed away.
        col: IndexId,
    },
}

impl Term {
    /// The operand on `side`.
    pub fn operand(&self, side: Side) -> Operand {
        match side {
            Side::Left => self.left,
            Side::Right => self.right,
        }
    }

    /// The microkernel that the dense loop over `q1` — or, with `q2`,
    /// the loop pair `q1` around `q2` — around this term's leaf lowers
    /// to; `None` when it stays a loop. See the [module docs](self).
    pub fn leaf_op(&self, q1: IndexId, q2: Option<IndexId>) -> Option<LeafOp> {
        let Some(q2) = q2 else {
            return match (
                self.left_inds.contains(q1),
                self.right_inds.contains(q1),
                self.out_inds.contains(q1),
            ) {
                (true, true, false) => Some(LeafOp::Dot),
                (true, true, true) => Some(LeafOp::Xmul),
                (true, false, true) => Some(LeafOp::Axpy { vec: Side::Left }),
                (false, true, true) => Some(LeafOp::Axpy { vec: Side::Right }),
                _ => None,
            };
        };
        match (self.leaf_op(q1, None)?, self.leaf_op(q2, None)?) {
            (LeafOp::Axpy { vec: x }, LeafOp::Axpy { vec: y }) if x != y => Some(LeafOp::Ger { x }),
            (LeafOp::Axpy { vec: mat }, LeafOp::Dot) => Some(LeafOp::Gemv {
                mat,
                row: q1,
                col: q2,
            }),
            (LeafOp::Dot, LeafOp::Axpy { vec: mat }) => Some(LeafOp::Gemv {
                mat,
                row: q2,
                col: q1,
            }),
            _ => None,
        }
    }
}

impl LoopVertex {
    /// The lowering candidates this vertex heads: `(q1, None, term)`
    /// when it is a dense loop covering one term whose only child is
    /// that term's leaf, `(q1, Some(q2), term)` when its only child is
    /// one more such loop. `None` for every other shape — a sparse
    /// loop, a fused loop over several terms, a loop with more than one
    /// child. Whether the candidate *is* a microkernel is
    /// [`Term::leaf_op`]'s call.
    pub fn leaf_loops(&self) -> Option<(IndexId, Option<IndexId>, usize)> {
        let single_dense =
            |v: &LoopVertex| v.kind == VertexKind::Dense && v.term_hi - v.term_lo == 1;
        if !single_dense(self) {
            return None;
        }
        match self.children.as_slice() {
            [LoopNode::Leaf(t)] => Some((self.index, None, *t)),
            [LoopNode::Loop(inner)] if single_dense(inner) => match inner.children.as_slice() {
                [LoopNode::Leaf(t)] => Some((self.index, Some(inner.index), *t)),
                _ => None,
            },
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuse::{build_forest, LoopForest};
    use crate::index::IdxSet;
    use crate::order::NestSpec;
    use crate::parse_kernel;
    use crate::path::path_from_picks;
    use rand::prelude::*;

    /// The two loop indices of the patterns below, and their extents.
    const Q1: IndexId = 3;
    const Q2: IndexId = 5;
    fn dim(q: IndexId) -> usize {
        match q {
            Q1 => 3,
            Q2 => 4,
            _ => panic!("not a loop index"),
        }
    }

    /// A term whose operands and output carry the given subsets of
    /// `{Q1, Q2}` next to indices the loops do not touch.
    fn term(left: IdxSet, right: IdxSet, out: IdxSet) -> Term {
        let (a, b) = (IdxSet::single(0), IdxSet::single(1));
        Term {
            left: Operand::Input(0),
            right: Operand::Input(1),
            left_inds: left.union(a),
            right_inds: right.union(b),
            out_inds: out.union(a).union(b),
            left_lineage: IdxSet::EMPTY,
            right_lineage: IdxSet::EMPTY,
            consumer: None,
        }
    }

    /// A row-major tensor over a subset of `{Q1, Q2}`.
    struct Toy {
        carries: IdxSet,
        data: Vec<f64>,
    }

    impl Toy {
        fn random(carries: IdxSet, rng: &mut StdRng) -> Toy {
            let len = carries.iter().map(dim).product();
            let data = (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect();
            Toy { carries, data }
        }

        /// Offset of loop coordinates `x`; coordinates of indices the
        /// tensor does not carry are ignored, as in a plain loop nest.
        fn at(&self, x: &[(IndexId, usize)]) -> usize {
            x.iter()
                .filter(|(q, _)| self.carries.contains(*q))
                .fold(0, |off, &(q, c)| off * dim(q) + c)
        }

        /// Offset when a kernel formula addresses the tensor by exactly
        /// the indices `x`: a role that does not fit the operand —
        /// a vector that also carries the other loop, a matrix that
        /// lacks one — is a wrong rule, caught here.
        fn by(&self, x: &[(IndexId, usize)]) -> usize {
            let named: IdxSet = x.iter().map(|&(q, _)| q).collect();
            assert_eq!(named, self.carries, "operand role does not fit");
            let mut x = x.to_vec();
            x.sort();
            self.at(&x)
        }
    }

    /// Evaluate `op` by its defining formula.
    fn run(op: LeafOp, l: &Toy, r: &Toy, out: &mut Toy) {
        let side = |s: Side| match s {
            Side::Left => l,
            Side::Right => r,
        };
        match op {
            LeafOp::Dot => {
                for q in 0..dim(Q1) {
                    let o = out.by(&[]);
                    out.data[o] += l.data[l.by(&[(Q1, q)])] * r.data[r.by(&[(Q1, q)])];
                }
            }
            LeafOp::Axpy { vec } => {
                let (x, alpha) = (side(vec), side(vec.other()));
                for q in 0..dim(Q1) {
                    let o = out.by(&[(Q1, q)]);
                    out.data[o] += alpha.data[alpha.by(&[])] * x.data[x.by(&[(Q1, q)])];
                }
            }
            LeafOp::Xmul => {
                for q in 0..dim(Q1) {
                    let o = out.by(&[(Q1, q)]);
                    out.data[o] += l.data[l.by(&[(Q1, q)])] * r.data[r.by(&[(Q1, q)])];
                }
            }
            LeafOp::Ger { x } => {
                let (x, y) = (side(x), side(x.other()));
                for a in 0..dim(Q1) {
                    for b in 0..dim(Q2) {
                        let o = out.by(&[(Q1, a), (Q2, b)]);
                        out.data[o] += x.data[x.by(&[(Q1, a)])] * y.data[y.by(&[(Q2, b)])];
                    }
                }
            }
            LeafOp::Gemv { mat, row, col } => {
                let (m, x) = (side(mat), side(mat.other()));
                for a in 0..dim(row) {
                    for b in 0..dim(col) {
                        let o = out.by(&[(row, a)]);
                        out.data[o] +=
                            m.data[m.by(&[(row, a), (col, b)])] * x.data[x.by(&[(col, b)])];
                    }
                }
            }
        }
    }

    /// Check `term.leaf_op(Q1, q2)` against `want`, and a named kernel
    /// against the plain loop nest on random data.
    fn check(t: &Term, q2: Option<IndexId>, want: Option<LeafOp>, rng: &mut StdRng) {
        assert_eq!(t.leaf_op(Q1, q2), want, "{t:?} {q2:?}");
        let Some(op) = want else { return };
        let loops: IdxSet = [Some(Q1), q2].into_iter().flatten().collect();
        let l = Toy::random(t.left_inds.intersect(loops), rng);
        let r = Toy::random(t.right_inds.intersect(loops), rng);
        let mut got = Toy::random(t.out_inds.intersect(loops), rng);
        let mut plain = got.data.clone();
        for a in 0..dim(Q1) {
            for b in 0..q2.map_or(1, dim) {
                let x = [(Q1, a), (Q2, b)];
                plain[got.at(&x)] += l.data[l.at(&x)] * r.data[r.at(&x)];
            }
        }
        run(op, &l, &r, &mut got);
        for (g, p) in got.data.iter().zip(&plain) {
            assert!((g - p).abs() < 1e-12, "{op:?}: {g} vs {p}");
        }
    }

    /// The ways one loop index can sit on `(left, right, out)` with
    /// `out ⊆ left ∪ right`, and the BLAS-1 kernel of each.
    fn single_patterns() -> [((bool, bool, bool), Option<LeafOp>); 6] {
        [
            ((true, true, false), Some(LeafOp::Dot)),
            ((true, true, true), Some(LeafOp::Xmul)),
            ((true, false, true), Some(LeafOp::Axpy { vec: Side::Left })),
            ((false, true, true), Some(LeafOp::Axpy { vec: Side::Right })),
            ((true, false, false), None),
            ((false, true, false), None),
        ]
    }

    fn sets(q: IndexId, (l, r, o): (bool, bool, bool)) -> [IdxSet; 3] {
        [l, r, o].map(|b| if b { IdxSet::single(q) } else { IdxSet::EMPTY })
    }

    #[test]
    fn every_single_loop_pattern() {
        let mut rng = StdRng::seed_from_u64(24);
        for (p, want) in single_patterns() {
            let [l, r, o] = sets(Q1, p);
            check(&term(l, r, o), None, want, &mut rng);
        }
    }

    #[test]
    fn every_loop_pair_pattern() {
        let (dot, l, r) = (
            (true, true, false),
            (true, false, true),
            (false, true, true),
        );
        let gemv = |mat, row, col| Some(LeafOp::Gemv { mat, row, col });
        // (pattern of q1, pattern of q2) → kernel; the other 30 are none.
        let lowered = [
            ((l, r), Some(LeafOp::Ger { x: Side::Left })),
            ((r, l), Some(LeafOp::Ger { x: Side::Right })),
            ((l, dot), gemv(Side::Left, Q1, Q2)),
            ((r, dot), gemv(Side::Right, Q1, Q2)),
            ((dot, l), gemv(Side::Left, Q2, Q1)),
            ((dot, r), gemv(Side::Right, Q2, Q1)),
        ];
        let mut rng = StdRng::seed_from_u64(25);
        let mut seen = 0;
        for (p1, _) in single_patterns() {
            for (p2, _) in single_patterns() {
                let want = lowered
                    .iter()
                    .find(|(p, _)| *p == (p1, p2))
                    .and_then(|(_, op)| *op);
                let ([l1, r1, o1], [l2, r2, o2]) = (sets(Q1, p1), sets(Q2, p2));
                let t = term(l1.union(l2), r1.union(r2), o1.union(o2));
                check(&t, Some(Q2), want, &mut rng);
                seen += 1;
            }
        }
        assert_eq!(seen, 36);
    }

    /// The vertices a tree walk would hand to `leaf_op`: the outermost
    /// candidate on each branch.
    fn candidates(f: &LoopForest) -> Vec<(IndexId, Option<IndexId>, usize)> {
        fn walk(nodes: &[LoopNode], out: &mut Vec<(IndexId, Option<IndexId>, usize)>) {
            for n in nodes {
                if let LoopNode::Loop(v) = n {
                    match v.leaf_loops() {
                        Some(c) => out.push(c),
                        None => walk(&v.children, out),
                    }
                }
            }
        }
        let mut out = Vec::new();
        walk(&f.roots, &mut out);
        out
    }

    /// The paper's order-3 TTMc listings (`i j k r s` = `0 1 2 3 4`).
    #[test]
    fn leaf_loops_of_the_paper_listings() {
        let k = parse_kernel(
            "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
            &[("i", 8), ("j", 9), ("k", 10), ("r", 4), ("s", 5)],
        )
        .unwrap();
        let p = path_from_picks(&k, &[(0, 2), (0, 1)]);
        let forest = |orders| build_forest(&k, &p, &NestSpec { orders }).unwrap();
        // Listing 3: term 0's `s` loop, term 1's `(s, r)` pair.
        let l3 = forest(vec![vec![0, 1, 2, 4], vec![0, 1, 4, 3]]);
        assert_eq!(candidates(&l3), [(4, None, 0), (4, Some(3), 1)]);
        assert_eq!(
            p.terms[0].leaf_op(4, None),
            Some(LeafOp::Axpy { vec: Side::Right })
        );
        assert_eq!(
            p.terms[1].leaf_op(4, Some(3)),
            Some(LeafOp::Ger { x: Side::Right })
        );
        // Listing 4: the fused `s` covers both terms and `k` is sparse,
        // so only term 1's `r` loop is left.
        let l4 = forest(vec![vec![0, 1, 4, 2], vec![0, 1, 4, 3]]);
        assert_eq!(candidates(&l4), [(3, None, 1)]);
    }
}
