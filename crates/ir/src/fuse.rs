//! Fully-fused loop-nest forests via peeling (paper Defs. 4.1–4.3).
//!
//! Given a contraction path and a loop order per term, the fused forest
//! is built by iterated *peeling*: the maximal run of leading terms whose
//! orders share the same first index becomes one loop vertex containing
//! the (recursively fused) remainders; terms whose order is exhausted
//! become leaves (the innermost scalar contraction).
//!
//! Each vertex is classified ([`VertexKind`]): a loop over a sparse mode
//! iterates CSF fibers when it steps down from the node the enclosing
//! sparse loops stand on *and* every covered term is prunable at that
//! index (its contributions outside the sparse pattern vanish);
//! otherwise the loop runs densely. So the sparse vertices on any
//! root-to-leaf path form a chain `Sparse{0}, Sparse{1}, …` from the
//! root level — a sparse loop is always "the children of the node its
//! enclosing sparse loop stands on", never a lookup — and a CSF index
//! below a densely iterated shallower CSF index iterates densely too.
//! A dense loop over a sparse mode is invalid for the term holding the
//! sparse tensor itself — its CSF descent would break — and such
//! combinations are rejected, mirroring the paper's restriction to
//! CSF-consistent iteration.

use crate::index::IndexId;
use crate::kernel::Kernel;
use crate::order::{order_is_valid, NestSpec};
use crate::path::ContractionPath;

/// How a loop vertex iterates its index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VertexKind {
    /// Iterate the children of the current CSF node at this level.
    Sparse {
        /// CSF tree level of the index.
        level: usize,
    },
    /// Iterate the full dimension `0..dim`.
    Dense,
}

impl VertexKind {
    /// Tracked CSF depth inside a vertex of this kind that itself sits
    /// at tracked depth `tracked`: a sparse loop stands on one more
    /// level, a dense loop on none.
    pub fn tracked_below(self, tracked: usize) -> usize {
        match self {
            VertexKind::Sparse { level } => level + 1,
            VertexKind::Dense => tracked,
        }
    }
}

/// Errors when building or validating a fused forest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FuseError {
    /// Term `term`'s order is not a valid permutation respecting the
    /// CSF-order restriction.
    BadOrder {
        /// Offending term position.
        term: usize,
    },
    /// The CSF descent breaks at sparse index `index`: a loop over it
    /// would cover the sparse tensor's own term while iterating densely
    /// — or, in a hand-built forest ([`LoopForest::check_descent`]), a
    /// sparse loop or sparse access sits where the enclosing sparse
    /// loops do not reach it.
    BrokenDescent {
        /// Offending index.
        index: IndexId,
    },
    /// Spec has the wrong number of orders for the path.
    WrongArity,
}

impl std::fmt::Display for FuseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FuseError::BadOrder { term } => write!(f, "invalid loop order for term {term}"),
            FuseError::BrokenDescent { index } => write!(
                f,
                "CSF descent broken at sparse index {index}: a sparse loop, the sparse \
                 tensor's term or a sparse output is not under sparse loops over \
                 every shallower level"
            ),
            FuseError::WrongArity => write!(f, "spec arity does not match path"),
        }
    }
}

impl std::error::Error for FuseError {}

/// A node of the fused forest.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LoopNode {
    /// A loop vertex.
    Loop(LoopVertex),
    /// A term's innermost contraction.
    Leaf(usize),
}

impl LoopNode {
    /// Path positions `[lo, hi)` of the terms the node covers.
    pub fn term_range(&self) -> (usize, usize) {
        match self {
            LoopNode::Leaf(t) => (*t, *t + 1),
            LoopNode::Loop(v) => (v.term_lo, v.term_hi),
        }
    }
}

/// A loop vertex of the fused forest.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LoopVertex {
    /// Index iterated by this loop.
    pub index: IndexId,
    /// Sparse (CSF) or dense iteration.
    pub kind: VertexKind,
    /// Covered terms: path positions `[term_lo, term_hi)`.
    pub term_lo: usize,
    /// Exclusive end of the covered term range.
    pub term_hi: usize,
    /// Ordered children (loops and leaves).
    pub children: Vec<LoopNode>,
}

/// A fully-fused loop-nest forest for one (path, spec) pair.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LoopForest {
    /// Top-level nodes in execution order.
    pub roots: Vec<LoopNode>,
}

/// Classify the loop vertex for index `q` covering path terms
/// `[lo, hi)`, where the enclosing **sparse** loops cover the leading
/// `tracked` CSF levels.
///
/// The rule: `q` at CSF level `l` iterates sparsely only when
/// `l == tracked` — its parent node is the one the enclosing sparse
/// loop stands on — and every covered term is prunable at `q`. A CSF
/// index whose parent level was iterated densely (`tracked < l`)
/// therefore runs densely itself; the executor never looks a node up.
/// A `Sparse { level }` vertex raises the tracked depth of its subtree
/// to `level + 1`; a `Dense` vertex leaves it unchanged.
///
/// Returns an error when the vertex must be dense but covers the sparse
/// tensor's own term. This predicate is shared verbatim by the
/// Algorithm-1 dynamic program so that search and execution agree.
pub fn vertex_kind(
    kernel: &Kernel,
    path: &ContractionPath,
    lo: usize,
    hi: usize,
    tracked: usize,
    q: IndexId,
) -> Result<VertexKind, FuseError> {
    let level = match kernel.sparse_level(q) {
        None => return Ok(VertexKind::Dense),
        Some(l) => l,
    };
    // Descent continuity: the enclosing sparse loops stand on this
    // level's parent node.
    let continuous = level == tracked;
    // Prunability: every covered term's contributions at coordinates
    // outside the sparse pattern must vanish. A term qualifies if its
    // operands carry lineage at q, or its consumer chain (within the
    // covered range) reaches a term that does.
    let prunable_all = {
        let mut prunable = vec![false; hi - lo];
        for t in (lo..hi).rev() {
            let term = &path.terms[t];
            let own = term.lineage().contains(q);
            let via_chain = match term.consumer {
                Some(c) if c >= lo && c < hi => prunable[c - lo],
                _ => false,
            };
            prunable[t - lo] = own || via_chain;
        }
        prunable.iter().all(|&p| p)
    };
    if continuous && prunable_all {
        Ok(VertexKind::Sparse { level })
    } else if (lo..hi).contains(&path.sparse_term) {
        Err(FuseError::BrokenDescent { index: q })
    } else {
        Ok(VertexKind::Dense)
    }
}

/// Build the fused forest for `(path, spec)`, validating orders and
/// vertex kinds.
pub fn build_forest(
    kernel: &Kernel,
    path: &ContractionPath,
    spec: &NestSpec,
) -> Result<LoopForest, FuseError> {
    if spec.orders.len() != path.len() {
        return Err(FuseError::WrongArity);
    }
    for t in 0..path.len() {
        if !order_is_valid(kernel, path, t, &spec.orders[t]) {
            return Err(FuseError::BadOrder { term: t });
        }
    }
    let items: Vec<(usize, usize)> = (0..path.len()).map(|t| (t, 0usize)).collect();
    let roots = peel(kernel, path, spec, &items, 0)?;
    Ok(LoopForest { roots })
}

/// Recursive peeling: `items` is a list of (term, depth-into-order);
/// `tracked` is the number of leading CSF levels the enclosing sparse
/// loops cover.
fn peel(
    kernel: &Kernel,
    path: &ContractionPath,
    spec: &NestSpec,
    items: &[(usize, usize)],
    tracked: usize,
) -> Result<Vec<LoopNode>, FuseError> {
    let mut nodes = Vec::new();
    let mut pos = 0usize;
    while pos < items.len() {
        let (term, depth) = items[pos];
        let order = &spec.orders[term];
        if depth == order.len() {
            nodes.push(LoopNode::Leaf(term));
            pos += 1;
            continue;
        }
        let q = order[depth];
        // Maximal run of consecutive items whose next index is q.
        let mut end = pos;
        while end < items.len() {
            let (t2, d2) = items[end];
            let o2 = &spec.orders[t2];
            if d2 < o2.len() && o2[d2] == q {
                end += 1;
            } else {
                break;
            }
        }
        let lo = items[pos].0;
        let hi = items[end - 1].0 + 1;
        let kind = vertex_kind(kernel, path, lo, hi, tracked, q)?;
        let inner: Vec<(usize, usize)> = items[pos..end].iter().map(|&(t, d)| (t, d + 1)).collect();
        let children = peel(kernel, path, spec, &inner, kind.tracked_below(tracked))?;
        nodes.push(LoopNode::Loop(LoopVertex {
            index: q,
            kind,
            term_lo: lo,
            term_hi: hi,
            children,
        }));
        pos = end;
    }
    Ok(nodes)
}

impl LoopForest {
    /// Check the CSF descent rule [`build_forest`] establishes, for
    /// forests assembled by hand (the type is public data): every
    /// `Sparse { level }` vertex sits under sparse loops over exactly
    /// the levels `0..level`, and every leaf that reads the sparse
    /// tensor or writes a pattern-sharing output sits under sparse
    /// loops over all of them — so an executor steps down the tree and
    /// never looks a node up. The error names the CSF index at which
    /// the descent breaks.
    pub fn check_descent(&self, kernel: &Kernel, path: &ContractionPath) -> Result<(), FuseError> {
        fn walk(
            nodes: &[LoopNode],
            tracked: usize,
            kernel: &Kernel,
            path: &ContractionPath,
        ) -> Result<(), FuseError> {
            let depth = kernel.csf_index_order().len();
            for n in nodes {
                match n {
                    LoopNode::Loop(v) => {
                        if let VertexKind::Sparse { level } = v.kind {
                            if level != tracked || level >= depth {
                                return Err(FuseError::BrokenDescent { index: v.index });
                            }
                        }
                        walk(&v.children, v.kind.tracked_below(tracked), kernel, path)?;
                    }
                    LoopNode::Leaf(t) => {
                        let on_pattern = *t == path.sparse_term
                            || (kernel.output_sparse && *t + 1 == path.len());
                        if on_pattern && tracked != depth {
                            return Err(FuseError::BrokenDescent {
                                index: kernel.index_at_level(tracked),
                            });
                        }
                    }
                }
            }
            Ok(())
        }
        walk(&self.roots, 0, kernel, path)
    }

    /// Maximum loop depth (longest root-to-leaf vertex chain).
    pub fn max_depth(&self) -> usize {
        fn depth(n: &LoopNode) -> usize {
            match n {
                LoopNode::Leaf(_) => 0,
                LoopNode::Loop(v) => 1 + v.children.iter().map(depth).max().unwrap_or(0),
            }
        }
        self.roots.iter().map(depth).max().unwrap_or(0)
    }

    /// Pretty-print the forest as pseudocode resembling the paper's
    /// listings.
    pub fn render(&self, kernel: &Kernel, path: &ContractionPath) -> String {
        let mut s = String::new();
        fn emit(
            n: &LoopNode,
            depth: usize,
            kernel: &Kernel,
            path: &ContractionPath,
            s: &mut String,
        ) {
            let pad = "  ".repeat(depth);
            match n {
                LoopNode::Leaf(t) => {
                    let term = &path.terms[*t];
                    let fmt = |op: crate::path::Operand| match op {
                        crate::path::Operand::Input(i) => kernel.inputs[i].name.clone(),
                        crate::path::Operand::Inter(x) => format!("X{x}"),
                    };
                    let out = if *t + 1 == path.terms.len() {
                        kernel.output.name.clone()
                    } else {
                        format!("X{t}")
                    };
                    s.push_str(&format!(
                        "{pad}{out} += {} * {}\n",
                        fmt(term.left),
                        fmt(term.right)
                    ));
                }
                LoopNode::Loop(v) => {
                    let name = kernel.index_name(v.index);
                    match v.kind {
                        VertexKind::Sparse { level } => {
                            s.push_str(&format!("{pad}for ({name}, node) in csf_level_{level}:\n"))
                        }
                        VertexKind::Dense => {
                            s.push_str(&format!("{pad}for {name} in 0..{}:\n", kernel.dim(v.index)))
                        }
                    }
                    for c in &v.children {
                        emit(c, depth + 1, kernel, path, s);
                    }
                }
            }
        }
        for r in &self.roots {
            emit(r, 0, kernel, path, &mut s);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_kernel;
    use crate::path::path_from_picks;

    fn ttmc3() -> (Kernel, ContractionPath) {
        let k = parse_kernel(
            "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
            &[("i", 10), ("j", 10), ("k", 10), ("r", 4), ("s", 4)],
        )
        .unwrap();
        let p = path_from_picks(&k, &[(0, 2), (0, 1)]);
        (k, p)
    }

    /// Listing 3: orders (i,j,k,s) and (i,j,s,r) fuse on (i,j).
    #[test]
    fn listing3_structure() {
        let (k, p) = ttmc3();
        let spec = NestSpec {
            orders: vec![vec![0, 1, 2, 4], vec![0, 1, 4, 3]],
        };
        let f = build_forest(&k, &p, &spec).unwrap();
        assert_eq!(f.roots.len(), 1);
        let LoopNode::Loop(i) = &f.roots[0] else {
            panic!()
        };
        assert_eq!(i.index, 0);
        assert_eq!(i.kind, VertexKind::Sparse { level: 0 });
        assert_eq!((i.term_lo, i.term_hi), (0, 2));
        let LoopNode::Loop(j) = &i.children[0] else {
            panic!()
        };
        assert_eq!(j.index, 1);
        assert_eq!(j.children.len(), 2); // k-subtree and s-subtree
        let LoopNode::Loop(kv) = &j.children[0] else {
            panic!()
        };
        assert_eq!(kv.index, 2);
        assert_eq!(kv.kind, VertexKind::Sparse { level: 2 });
        assert_eq!((kv.term_lo, kv.term_hi), (0, 1));
        let LoopNode::Loop(sv) = &j.children[1] else {
            panic!()
        };
        assert_eq!(sv.index, 4);
        assert_eq!(sv.kind, VertexKind::Dense);
        assert_eq!(f.max_depth(), 4);
    }

    /// Listing 4: orders (i,j,s,k) and (i,j,s,r) fuse on (i,j,s).
    #[test]
    fn listing4_structure() {
        let (k, p) = ttmc3();
        let spec = NestSpec {
            orders: vec![vec![0, 1, 4, 2], vec![0, 1, 4, 3]],
        };
        let f = build_forest(&k, &p, &spec).unwrap();
        let LoopNode::Loop(i) = &f.roots[0] else {
            panic!()
        };
        let LoopNode::Loop(j) = &i.children[0] else {
            panic!()
        };
        let LoopNode::Loop(s) = &j.children[0] else {
            panic!()
        };
        assert_eq!(s.index, 4);
        assert_eq!(s.children.len(), 2);
        // Sparse loop k nested inside the dense s loop is valid.
        let LoopNode::Loop(kv) = &s.children[0] else {
            panic!()
        };
        assert_eq!(kv.kind, VertexKind::Sparse { level: 2 });
    }

    /// Fig 1a (unfused): different first indices give sibling subtrees,
    /// and the consumer re-descends the CSF on its own.
    #[test]
    fn unfused_pairwise_structure() {
        let (k, p) = ttmc3();
        // Make term 2 start at s so no fusion happens.
        let spec = NestSpec {
            orders: vec![vec![0, 1, 2, 4], vec![4, 0, 1, 3]],
        };
        let f = build_forest(&k, &p, &spec).unwrap();
        assert_eq!(f.roots.len(), 2);
        let LoopNode::Loop(s) = &f.roots[1] else {
            panic!()
        };
        assert_eq!(s.index, 4);
        assert_eq!(s.kind, VertexKind::Dense);
        // Inside s, term 2 descends i sparsely (lineage pruning).
        let LoopNode::Loop(iv) = &s.children[0] else {
            panic!()
        };
        assert_eq!(iv.kind, VertexKind::Sparse { level: 0 });
    }

    /// Fig 1d: dense-first path; U*V cannot fuse with the sparse term.
    #[test]
    fn dense_first_path_forest() {
        let (k, _) = ttmc3();
        let p = path_from_picks(&k, &[(1, 2), (0, 1)]);
        // Term 0 = U(j,r)*V(k,s) over {j,k,r,s}; term 1 over all 5.
        let spec = NestSpec {
            orders: vec![vec![1, 3, 2, 4], vec![0, 1, 2, 3, 4]],
        };
        let f = build_forest(&k, &p, &spec).unwrap();
        assert_eq!(f.roots.len(), 2);
        let LoopNode::Loop(j0) = &f.roots[0] else {
            panic!()
        };
        assert_eq!(j0.kind, VertexKind::Dense); // pre-sparse j: dense
        let LoopNode::Loop(i1) = &f.roots[1] else {
            panic!()
        };
        assert_eq!(i1.kind, VertexKind::Sparse { level: 0 });
        assert_eq!(f.max_depth(), 5);
    }

    /// Fusing the sparse term under a dense j (broken descent) errors.
    #[test]
    fn broken_descent_rejected() {
        let (k, _) = ttmc3();
        let p = path_from_picks(&k, &[(1, 2), (0, 1)]);
        // Both terms start with j: j would cover the sparse term densely.
        let spec = NestSpec {
            orders: vec![vec![1, 3, 2, 4], vec![1, 0, 2, 3, 4]],
        };
        // Term 1's order violates CSF order (j before i) — rejected as
        // BadOrder before vertex analysis.
        assert!(matches!(
            build_forest(&k, &p, &spec),
            Err(FuseError::BadOrder { term: 1 })
        ));
    }

    /// TTTP: pre-sparse dense-dense term fuses under the sparse descent.
    #[test]
    fn tttp_pre_sparse_fusion() {
        let k = parse_kernel(
            "S(i,j,k) = T(i,j,k) * U(i,r) * V(j,r) * W(k,r)",
            &[("i", 8), ("j", 8), ("k", 8), ("r", 3)],
        )
        .unwrap();
        // Path: (U*V)->X0(i,j,r); (W*X0)->X1(i,j,k); (T*X1)->S.
        // Index ids: i=0, j=1, k=2, r=3 (r appears first in U).
        let p = path_from_picks(&k, &[(1, 2), (1, 2), (0, 1)]);
        let spec = NestSpec {
            orders: vec![
                vec![0, 1, 3],    // i,j,r
                vec![0, 1, 2, 3], // i,j,k,r
                vec![0, 1, 2],    // i,j,k
            ],
        };
        let f = build_forest(&k, &p, &spec).unwrap();
        let LoopNode::Loop(iv) = &f.roots[0] else {
            panic!()
        };
        // The U*V term is prunable through its consumer chain: sparse.
        assert_eq!(iv.kind, VertexKind::Sparse { level: 0 });
        assert_eq!((iv.term_lo, iv.term_hi), (0, 3));
    }

    /// A pre-sparse term whose chain exits the fused range stays dense.
    #[test]
    fn non_prunable_stays_dense() {
        let (k, p) = ttmc3();
        // vertex_kind directly: range covering only the dense-first term
        // of the U*V path, probing sparse index j.
        let p2 = path_from_picks(&k, &[(1, 2), (0, 1)]);
        let kind = vertex_kind(&k, &p2, 0, 1, 0, 1).unwrap();
        assert_eq!(kind, VertexKind::Dense);
        // And for the fused TTMc path term 0 alone, i is prunable.
        let kind = vertex_kind(&k, &p, 0, 1, 0, 0).unwrap();
        assert_eq!(kind, VertexKind::Sparse { level: 0 });
        // k with no level tracked: discontinuous descent, but term 0
        // covers the sparse term, so it cannot run densely either.
        assert!(vertex_kind(&k, &p, 0, 1, 0, 2).is_err());
    }

    /// The two halves of the continuity rule, on the same call: level
    /// `l` is `Sparse { l }` exactly when the enclosing sparse loops
    /// cover `l` levels; with fewer tracked it is `Dense`, or
    /// `BrokenDescent` when the range holds the sparse term.
    #[test]
    fn sparse_only_at_the_tracked_depth() {
        let (k, p) = ttmc3();
        // Term 1 (U * X0, lineage {i,j,k}) alone, probing j and i.
        for (q, level) in [(0, 0), (1, 1)] {
            assert_eq!(
                vertex_kind(&k, &p, 1, 2, level, q),
                Ok(VertexKind::Sparse { level })
            );
        }
        assert_eq!(vertex_kind(&k, &p, 1, 2, 0, 1), Ok(VertexKind::Dense));
        // The same probes over the sparse term itself.
        assert_eq!(
            vertex_kind(&k, &p, 0, 1, 1, 1),
            Ok(VertexKind::Sparse { level: 1 })
        );
        assert_eq!(
            vertex_kind(&k, &p, 0, 2, 0, 1),
            Err(FuseError::BrokenDescent { index: 1 })
        );
        assert_eq!(VertexKind::Sparse { level: 1 }.tracked_below(1), 2);
        assert_eq!(VertexKind::Dense.tracked_below(1), 1);
    }

    /// `S(i,j,k) = T(i,j,k)*A(i,r)*B(j,r)*C(k,r)*D(k,r)` on the path
    /// `T*B→X0; A*C→X1; D*X0→X2; X1*X2→S` — the one nest shape that
    /// used to need a searched CSF node.
    fn witness() -> (Kernel, ContractionPath) {
        let k = parse_kernel(
            "S(i,j,k) = T(i,j,k) * A(i,r) * B(j,r) * C(k,r) * D(k,r)",
            &[("i", 5), ("j", 6), ("k", 7), ("r", 3)],
        )
        .unwrap();
        let p = path_from_picks(&k, &[(0, 2), (0, 1), (0, 1), (0, 1)]);
        (k, p)
    }

    /// Terms 1–2 fuse on `(r, i)`; `A*C` is not prunable at `i`, so `i`
    /// runs densely there, and the `j` and `k` loops under it — CSF
    /// indices below a dense ancestor of their parent level — are dense
    /// too instead of looking their parent node up.
    #[test]
    fn csf_index_under_dense_ancestor_is_dense() {
        let (k, p) = witness();
        let spec = NestSpec {
            orders: vec![
                vec![0, 1, 2, 3],
                vec![3, 0, 2],
                vec![3, 0, 1, 2],
                vec![0, 1, 2, 3],
            ],
        };
        let f = build_forest(&k, &p, &spec).unwrap();
        let LoopNode::Loop(r) = &f.roots[1] else {
            panic!()
        };
        assert_eq!((r.index, r.term_lo, r.term_hi), (3, 1, 3));
        let LoopNode::Loop(i) = &r.children[0] else {
            panic!()
        };
        assert_eq!((i.index, i.kind), (0, VertexKind::Dense));
        // Under i: term 1's k loop, then term 2's j loop holding k.
        let LoopNode::Loop(k1) = &i.children[0] else {
            panic!()
        };
        assert_eq!((k1.index, k1.kind), (2, VertexKind::Dense));
        let LoopNode::Loop(j) = &i.children[1] else {
            panic!()
        };
        assert_eq!((j.index, j.kind), (1, VertexKind::Dense));
        let LoopNode::Loop(k2) = &j.children[0] else {
            panic!()
        };
        assert_eq!((k2.index, k2.kind), (2, VertexKind::Dense));
    }

    /// `check_descent` refuses what `build_forest` never returns: a
    /// sparse loop whose parent level runs densely, and a sparse-tensor
    /// leaf under a densely iterated CSF level.
    #[test]
    fn check_descent_rejects_hand_broken_forests() {
        let (k, p) = ttmc3();
        let spec = NestSpec {
            orders: vec![vec![0, 1, 2, 4], vec![0, 1, 4, 3]],
        };
        let good = build_forest(&k, &p, &spec).unwrap();
        assert_eq!(good.check_descent(&k, &p), Ok(()));

        let mut flipped_root = good.clone();
        let LoopNode::Loop(i) = &mut flipped_root.roots[0] else {
            panic!()
        };
        i.kind = VertexKind::Dense;
        // The j loop is still Sparse { level: 1 }, with nothing tracked.
        assert_eq!(
            flipped_root.check_descent(&k, &p),
            Err(FuseError::BrokenDescent { index: 1 })
        );

        let mut dense_leaf_level = good;
        let LoopNode::Loop(i) = &mut dense_leaf_level.roots[0] else {
            panic!()
        };
        let LoopNode::Loop(j) = &mut i.children[0] else {
            panic!()
        };
        let LoopNode::Loop(kv) = &mut j.children[0] else {
            panic!()
        };
        kv.kind = VertexKind::Dense;
        // T's leaf now sits under two tracked levels of three.
        assert_eq!(
            dense_leaf_level.check_descent(&k, &p),
            Err(FuseError::BrokenDescent { index: 2 })
        );
    }

    /// The rule holds on everything `build_forest` returns: on every
    /// valid nest of every path of the standard kernels and of the
    /// witness kernel (≈ 127 k forests), each `Sparse { level }` vertex sits directly on the chain
    /// `Sparse{0} … Sparse{level−1}` and every leaf that reads `T` or
    /// writes a pattern-sharing output sits under all CSF levels.
    #[test]
    fn every_built_forest_tracks_its_descent() {
        use crate::order::NestSpecIter;
        use crate::path::enumerate_paths;
        use crate::stdkernels::{mttkrp, ttmc, tttc, tttp};
        let mut nests = 0usize;
        for k in [
            mttkrp(&[4, 5, 6], 3),
            ttmc(&[4, 5, 6], &[2, 3]),
            tttp(&[4, 5, 6], 3),
            tttc(&[4, 5, 6], 2),
            witness().0,
        ] {
            for p in enumerate_paths(&k) {
                for spec in NestSpecIter::new(&k, &p) {
                    if let Ok(f) = build_forest(&k, &p, &spec) {
                        assert_eq!(f.check_descent(&k, &p), Ok(()), "{}", spec.describe(&k));
                        nests += 1;
                    }
                }
            }
        }
        assert!(nests > 100_000, "walked only {nests} nests");
    }

    #[test]
    fn render_mentions_loops() {
        let (k, p) = ttmc3();
        let spec = NestSpec {
            orders: vec![vec![0, 1, 2, 4], vec![0, 1, 4, 3]],
        };
        let f = build_forest(&k, &p, &spec).unwrap();
        let txt = f.render(&k, &p);
        assert!(txt.contains("for (i, node) in csf_level_0"), "{txt}");
        assert!(txt.contains("for s in 0..4"), "{txt}");
        assert!(txt.contains("S += U * X0"), "{txt}");
    }

    #[test]
    fn ancestors_equal_loop_orders() {
        let (k, p) = ttmc3();
        let spec = NestSpec {
            orders: vec![vec![0, 1, 2, 4], vec![0, 1, 4, 3]],
        };
        let f = build_forest(&k, &p, &spec).unwrap();
        fn walk(n: &LoopNode, trail: &mut Vec<IndexId>, out: &mut [Vec<IndexId>]) {
            match n {
                LoopNode::Leaf(t) => out[*t] = trail.clone(),
                LoopNode::Loop(v) => {
                    trail.push(v.index);
                    v.children.iter().for_each(|c| walk(c, trail, out));
                    trail.pop();
                }
            }
        }
        let mut ancestors = vec![Vec::new(); 2];
        f.roots
            .iter()
            .for_each(|r| walk(r, &mut Vec::new(), &mut ancestors));
        assert_eq!(ancestors, spec.orders);
    }
}
