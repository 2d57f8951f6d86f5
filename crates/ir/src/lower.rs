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
//!
//! # Fused sparse loops
//!
//! One level up, [`fused_loop`] states which sparse loops the tape runs
//! as one instruction that walks the CSF node's children with no
//! per-child dispatch. A sparse vertex at CSF level `l` fuses by the
//! terms it covers and the indices each has left for loops below it:
//!
//! | covers | left below | per child, one instruction runs |
//! |---|---|---|
//! | `t` | one index `q`, a dense loop at depth `l + 1`, `leaf_op(q)` an AXPY | sparse-AXPY: `t`'s AXPY |
//! | `t`, `t + 1`, `t`'s consumer `t + 1` | `t`: one dense `q`, `leaf_op(q)` a DOT; `t + 1`: none | sparse-DOT: `t`'s DOT into a scalar, then `t + 1`'s leaf |
//! | a run `R` and a tail `u` (below) | `R`: the CSF index of level `l + 1`, then a sparse-AXPY or sparse-DOT row at `l + 1`; `u`: one or two dense indices that lower to one call in either order | fiber: the fused loop over `R`'s children, and `u`'s call |
//! | anything else | | none: the loop keeps its frame |
//!
//! A fiber's two parts are the run `R`, which the vertex's child at
//! level `l + 1` runs as one of the first two rows, and the tail `u`. Either
//! the tail consumes the buffer of `R`'s sparse-AXPY term (`R = {u − 1}`:
//! MTTKRP, TTMc, the collapsed network kernel), or it produces, as an
//! AXPY or XMUL, a buffer the run reads (`u` first: TTTP). In both cases
//! the buffer between the parts is a vector over the call's own index,
//! so its zero point folds into an assigning call and the body has none
//! of its own. The tail's indices are not CSF indices, so it never
//! shares a loop with the run.
//!
//! The first two rows leave the vertex exactly one possible subtree, so
//! the cost model may price it as one step per visit without losing
//! Algorithm 1's exactness. A fiber's vertex has others: the tail's index
//! may also run the run's term and fuse the two above the sparse loop
//! (MTTKRP's `a` over `k`). The row says only which subtree is the
//! fiber body; [`FusedLoop::fits`] tells it from the vertex's children,
//! and Algorithm 1 prices that one subtree as fused and every other as
//! a plain loop, so it stays exact. The body itself is unique but for
//! the order of a two-index tail, and a tail pair that lowered in one
//! order only would not fuse (by [`Term::leaf_op`]'s table a pair that
//! lowers in one order lowers in both). Whether a zero point folds
//! into the fused call depends on buffer strides, so that stays the tape
//! compiler's call; the rows above are written so that it always does.

use crate::fuse::{vertex_kind, LoopNode, LoopVertex, VertexKind};
use crate::index::{IdxSet, IndexId};
use crate::kernel::Kernel;
use crate::path::{ContractionPath, Operand, Term};
use std::ops::Range;

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

/// How the tape runs a sparse loop as one instruction — the rows of the
/// [module docs](self)' fused-loop table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FusedLoop {
    /// Per child, the covered term's AXPY.
    SparseAxpy,
    /// Per child, a DOT into a scalar, then its consumer's leaf.
    SparseDot,
    /// Per child, the run at the next level over the terms `run` (a
    /// sparse-AXPY or sparse-DOT loop) and the call of term `tail`, in
    /// term order.
    Fiber {
        /// The terms of the fused loop one level down.
        run: Range<usize>,
        /// The term lowered to one call.
        tail: usize,
    },
}

impl FusedLoop {
    /// Whether a sparse vertex at `level` with these children is the
    /// loop this row fuses. The first two rows have one possible
    /// subtree; a fiber's children are its run — the sparse loop at
    /// `level + 1` — and its tail, in term order.
    pub fn fits(&self, level: usize, children: &[LoopNode]) -> bool {
        let FusedLoop::Fiber { run, tail } = self else {
            return true;
        };
        let covers = |n: &LoopNode, terms: Range<usize>, kind: Option<VertexKind>| {
            matches!(n, LoopNode::Loop(v) if (v.term_lo..v.term_hi) == terms
                && kind.is_none_or(|k| v.kind == k))
        };
        let sparse = Some(VertexKind::Sparse { level: level + 1 });
        let (run, tail) = (run.clone(), *tail..*tail + 1);
        match children {
            [a, b] if tail.start < run.start => covers(a, tail, None) && covers(b, run, sparse),
            [a, b] => covers(a, run, sparse) && covers(b, tail, None),
            _ => false,
        }
    }
}

/// Whether, and as which row, the tape runs the sparse loop at CSF
/// `level` over `terms` as one instruction. `iterated` holds its index
/// and its enclosing loops'; a covered term's other indices are the
/// ones it has left below. See the [module docs](self).
pub fn fused_loop(
    kernel: &Kernel,
    path: &ContractionPath,
    level: usize,
    terms: Range<usize>,
    iterated: IdxSet,
) -> Option<FusedLoop> {
    let below = |t: usize| path.terms[t].iter_inds().minus(iterated);
    // The kernel of a term's one loop left below, if that loop is dense.
    let lone_dense_op = |t: usize| {
        let q = below(t).iter().next().filter(|_| below(t).len() == 1)?;
        let kind = vertex_kind(kernel, path, t, t + 1, level + 1, q);
        (kind == Ok(VertexKind::Dense)).then(|| path.terms[t].leaf_op(q, None))?
    };
    let t = terms.start;
    match terms.len() {
        1 if matches!(lone_dense_op(t), Some(LeafOp::Axpy { .. })) => Some(FusedLoop::SparseAxpy),
        2 if path.terms[t].consumer == Some(t + 1)
            && below(t + 1).is_empty()
            && lone_dense_op(t) == Some(LeafOp::Dot) =>
        {
            Some(FusedLoop::SparseDot)
        }
        _ => fiber(kernel, path, level, terms, iterated),
    }
}

/// The fiber row of [`fused_loop`].
fn fiber(
    kernel: &Kernel,
    path: &ContractionPath,
    level: usize,
    terms: Range<usize>,
    iterated: IdxSet,
) -> Option<FusedLoop> {
    let next = level + 1;
    if terms.len() < 2 || next >= kernel.csf_index_order().len() {
        return None;
    }
    let k = kernel.index_at_level(next);
    // The run's terms carry the next level's index; the tail's do not.
    let tail_first = !path.terms[terms.start].iter_inds().contains(k);
    let (run, tail) = if tail_first {
        (terms.start + 1..terms.end, terms.start)
    } else {
        (terms.start..terms.end - 1, terms.end - 1)
    };
    let inner = iterated.insert(k);
    let row = (run.clone().all(|t| path.terms[t].iter_inds().contains(k))
        && vertex_kind(kernel, path, run.start, run.end, next, k)
            == Ok(VertexKind::Sparse { level: next }))
    .then(|| fused_loop(kernel, path, next, run.clone(), inner))??;
    // The tail's call, in every order of its indices.
    let term = &path.terms[tail];
    let left = term.iter_inds().minus(iterated);
    let mut qs = left.iter();
    let dense = left.iter().all(|q| kernel.sparse_level(q).is_none());
    let op = match (qs.next(), qs.next(), qs.next()) {
        (Some(q), None, _) => term.leaf_op(q, None),
        (Some(a), Some(b), None) => term.leaf_op(b, Some(a)).and(term.leaf_op(a, Some(b))),
        _ => None,
    };
    let consumes =
        |u: usize, by: &Range<usize>| path.terms[u].consumer.is_some_and(|c| by.contains(&c));
    let fits = if tail_first {
        // The tail's buffer is one vector the call assigns.
        consumes(tail, &run) && matches!(op, Some(LeafOp::Axpy { .. } | LeafOp::Xmul))
    } else {
        // The run is one sparse-AXPY term whose buffer the tail reads.
        row == FusedLoop::SparseAxpy && op.is_some() && consumes(run.start, &(tail..tail + 1))
    };
    // A fiber's run is never a fiber itself.
    let run_row = matches!(row, FusedLoop::SparseAxpy | FusedLoop::SparseDot);
    (dense && fits && run_row).then_some(FusedLoop::Fiber { run, tail })
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

    /// The fiber row on the paper's kernels (`i j k` = `0 1 2`).
    #[test]
    fn fiber_row_on_the_paper_kernels() {
        let set = |ids: &[IndexId]| ids.iter().copied().collect::<IdxSet>();
        let fiber = |run, tail| Some(FusedLoop::Fiber { run, tail });
        // MTTKRP and TTMc: the sparse-AXPY `k` loop, then the call that
        // reads its buffer; TTTP: the XMUL that fills `X0`, then the
        // sparse-DOT `k` loop that reads it.
        let mttkrp = parse_kernel(
            "A(i,a) = T(i,j,k) * B(j,a) * C(k,a)",
            &[("i", 4), ("j", 5), ("k", 6), ("a", 8)],
        )
        .unwrap();
        let p = path_from_picks(&mttkrp, &[(0, 2), (0, 1)]);
        assert_eq!(
            fused_loop(&mttkrp, &p, 1, 0..2, set(&[0, 1])),
            fiber(0..1, 1)
        );
        assert_eq!(fused_loop(&mttkrp, &p, 0, 0..2, set(&[0])), None);
        // `Fi·Fj`, then each further factor times the last buffer, then `T`.
        let tttp = |order: usize, picks: &[(usize, usize)]| {
            let names = ["i", "j", "k", "l"];
            let sparse = names[..order].join(",");
            let factors: Vec<String> = (names[..order].iter())
                .map(|n| format!(" * F{n}({n},r)"))
                .collect();
            let expr = format!("S({sparse}) = T({sparse}){}", factors.concat());
            let dims: Vec<_> = (names[..order].iter().map(|&n| (n, 5)))
                .chain([("r", 8)])
                .collect();
            let k = parse_kernel(&expr, &dims).unwrap();
            let p = path_from_picks(&k, picks);
            (k, p)
        };
        let (k, p) = tttp(3, &[(1, 2), (1, 2), (0, 1)]);
        assert_eq!(fused_loop(&k, &p, 1, 0..3, set(&[0, 1])), fiber(1..3, 0));
        // Order 4: the `k` loop is a fiber; the `j` loop around it is
        // not, since its run would be that fiber.
        let (k, p) = tttp(4, &[(1, 2), (1, 3), (1, 2), (0, 1)]);
        assert_eq!(fused_loop(&k, &p, 2, 1..4, set(&[0, 1, 2])), fiber(2..4, 1));
        assert_eq!(fused_loop(&k, &p, 1, 0..4, set(&[0, 1])), None);
        // TTMc: Listing 3's `j` vertex has the run and the GER as its
        // children; Listing 4's has the fused `s` loop, so the row that
        // holds at both fits only the first.
        let ttmc = parse_kernel(
            "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
            &[("i", 8), ("j", 9), ("k", 10), ("r", 4), ("s", 5)],
        )
        .unwrap();
        let p = path_from_picks(&ttmc, &[(0, 2), (0, 1)]);
        let row = fused_loop(&ttmc, &p, 1, 0..2, set(&[0, 1]));
        assert_eq!(row, fiber(0..1, 1));
        let j_children = |orders| {
            let f = build_forest(&ttmc, &p, &NestSpec { orders }).unwrap();
            let LoopNode::Loop(i) = &f.roots[0] else {
                panic!("a root loop")
            };
            let [LoopNode::Loop(j)] = i.children.as_slice() else {
                panic!("one j loop")
            };
            j.children.clone()
        };
        let row = row.unwrap();
        assert!(row.fits(1, &j_children(vec![vec![0, 1, 2, 4], vec![0, 1, 4, 3]])));
        assert!(row.fits(1, &j_children(vec![vec![0, 1, 2, 4], vec![0, 1, 3, 4]])));
        assert!(!row.fits(1, &j_children(vec![vec![0, 1, 4, 2], vec![0, 1, 4, 3]])));
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
