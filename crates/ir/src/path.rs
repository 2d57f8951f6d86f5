//! Contraction paths (paper Def. 3.1).
//!
//! A contraction path for `N+1` tensors is a depth-first postordering of
//! a binary contraction tree: an ordered list of *terms*, each
//! contracting two inputs/intermediates. The loop-nest search operates on
//! one path at a time; [`enumerate_paths`] produces every ordered path
//! (the paper's Sec. 4.1.1 recursion, `T(n) = C(n,2)·T(n-1)`).
//!
//! Each term tracks its *sparse lineage*: the sparse-mode indices along
//! which an operand inherits the sparse tensor's pattern. Lineage
//! determines which loops may iterate CSF fibers instead of full
//! dimensions, which is what gives SpTTN kernels their data-independent
//! cost model ([`ContractionPath::flops`]).

use crate::index::IdxSet;
use crate::kernel::Kernel;
use spttn_tensor::SparsityProfile;

/// Operand of a contraction term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// One of the kernel's input tensors.
    Input(usize),
    /// The intermediate produced by an earlier term of this path.
    Inter(usize),
}

/// One pairwise contraction (`L_i` in the paper: a 3-tuple of index sets
/// plus operand identities).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Term {
    /// Left operand.
    pub left: Operand,
    /// Right operand.
    pub right: Operand,
    /// Index set of the left operand.
    pub left_inds: IdxSet,
    /// Index set of the right operand.
    pub right_inds: IdxSet,
    /// Index set of the produced intermediate (or the kernel output for
    /// the final term).
    pub out_inds: IdxSet,
    /// Sparse-mode indices along which the left operand carries the
    /// sparse tensor's pattern.
    pub left_lineage: IdxSet,
    /// Sparse lineage of the right operand.
    pub right_lineage: IdxSet,
    /// The later term that consumes this term's output (`None` for the
    /// final term).
    pub consumer: Option<usize>,
}

impl Term {
    /// All indices iterated by this term (union of operand indices).
    #[inline]
    pub fn iter_inds(&self) -> IdxSet {
        self.left_inds.union(self.right_inds)
    }

    /// Combined sparse lineage of both operands.
    #[inline]
    pub fn lineage(&self) -> IdxSet {
        self.left_lineage.union(self.right_lineage)
    }

    /// Sparse lineage surviving into the output.
    #[inline]
    pub fn out_lineage(&self) -> IdxSet {
        self.lineage().intersect(self.out_inds)
    }

    /// Indices summed away by this term.
    #[inline]
    pub fn contracted(&self) -> IdxSet {
        self.iter_inds().minus(self.out_inds)
    }
}

/// An ordered contraction path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContractionPath {
    /// Terms in execution (postorder) order.
    pub terms: Vec<Term>,
    /// Position of the term that takes the sparse input directly.
    pub sparse_term: usize,
}

impl ContractionPath {
    /// Number of terms (`N` for an `N+1`-tensor contraction).
    #[inline]
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when the path has no terms.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Leading-order scalar-operation count of this path on a tensor with
    /// the given sparsity profile, assuming maximal fusion (paper
    /// Sec. 2.4 / Sec. 7 examples): the sum of each term's
    /// [`prefix_flops`] over the indices it may iterate sparsely — its
    /// sparse lineage, or, for a pre-sparse term (which can be fused
    /// under the sparse descent), every index it iterates.
    pub fn flops(&self, kernel: &Kernel, profile: &SparsityProfile) -> u128 {
        (0..self.terms.len())
            .map(|t| {
                prefix_flops(
                    kernel,
                    profile,
                    self.terms[t].iter_inds(),
                    self.sparse_inds(t),
                )
            })
            .fold(0, u128::saturating_add)
    }

    /// Indices term `t` may iterate sparsely (see
    /// [`ContractionPath::flops`]).
    fn sparse_inds(&self, t: usize) -> IdxSet {
        let term = &self.terms[t];
        if term.lineage().is_empty() && t < self.sparse_term {
            term.iter_inds()
        } else {
            term.lineage()
        }
    }

    /// Longest CSF prefix term `t` can iterate sparsely (see
    /// [`ContractionPath::flops`] for the validity rule).
    pub fn sparse_prefix_len(&self, t: usize, kernel: &Kernel) -> usize {
        csf_prefix_len(
            kernel,
            self.terms[t].iter_inds().intersect(self.sparse_inds(t)),
        )
    }

    /// Render the path as `T(i,j,k)*V(k,s) -> X(i,j,s) ; ...`.
    pub fn describe(&self, kernel: &Kernel) -> String {
        let name_of = |op: Operand| match op {
            Operand::Input(i) => kernel.inputs[i].name.clone(),
            Operand::Inter(t) => format!("X{t}"),
        };
        let inds_of = |s: IdxSet| {
            let v: Vec<&str> = s.iter().map(|i| kernel.index_name(i)).collect();
            v.join(",")
        };
        self.terms
            .iter()
            .enumerate()
            .map(|(t, term)| {
                let out_name = if t + 1 == self.terms.len() {
                    kernel.output.name.clone()
                } else {
                    format!("X{t}")
                };
                format!(
                    "{}({})*{}({}) -> {}({})",
                    name_of(term.left),
                    inds_of(term.left_inds),
                    name_of(term.right),
                    inds_of(term.right_inds),
                    out_name,
                    inds_of(term.out_inds),
                )
            })
            .collect::<Vec<_>>()
            .join(" ; ")
    }
}

/// Number of leading CSF levels whose indices all lie in `set`.
fn csf_prefix_len(kernel: &Kernel, set: IdxSet) -> usize {
    (kernel.csf_index_order().iter())
        .take_while(|&&i| set.contains(i))
        .count()
}

/// Leading-order op count of one pairwise term iterating `inds`, of
/// which the indices in `sparse` may walk the CSF:
/// `2 · nnz_ℓ · ∏ dims(inds ∖ prefix_ℓ)`, where `prefix_ℓ` is the
/// longest prefix of the CSF order inside `inds ∩ sparse`. The one
/// term-cost formula: [`ContractionPath::flops`] and `spttn-net`'s
/// sequence model differ only in the `sparse` set they pass.
pub fn prefix_flops(
    kernel: &Kernel,
    profile: &SparsityProfile,
    inds: IdxSet,
    sparse: IdxSet,
) -> u128 {
    let ell = csf_prefix_len(kernel, inds.intersect(sparse));
    let prefix = IdxSet::from_iter(kernel.csf_index_order()[..ell].iter().copied());
    (inds.minus(prefix).iter()).fold(2 * profile.prefix_nnz(ell) as u128, |cost, i| {
        cost.saturating_mul(kernel.dim(i) as u128)
    })
}

/// A tensor on the working list of a pairwise contraction order: a
/// kernel input or an intermediate, with its index set and the sparse
/// lineage it carries. The list starts as the kernel's inputs
/// ([`leaf_items`]); every step ([`pair_term`], [`contract_pair`]) drops
/// two items and appends their product — the coordinates
/// [`path_from_picks`] picks are given in.
#[derive(Debug, Clone, Copy)]
pub struct PathItem {
    /// The operand a term reads this item as.
    pub op: Operand,
    /// Index set of the tensor.
    pub inds: IdxSet,
    /// Sparse-mode indices along which it carries the sparse pattern.
    pub lineage: IdxSet,
}

/// The initial working list: one item per kernel input, in input order.
pub fn leaf_items(kernel: &Kernel) -> Vec<PathItem> {
    kernel
        .inputs
        .iter()
        .enumerate()
        .map(|(i, t)| PathItem {
            op: Operand::Input(i),
            inds: t.index_set(),
            lineage: if i == kernel.sparse_input {
                t.index_set()
            } else {
                IdxSet::EMPTY
            },
        })
        .collect()
}

/// The term contracting working-list items `a` and `b`: its output
/// keeps the indices the kernel output or any other item still needs.
/// (`consumer` is linked once the whole path is known.)
pub fn pair_term(kernel: &Kernel, items: &[PathItem], a: usize, b: usize) -> Term {
    let (ia, ib) = (items[a], items[b]);
    let needed = items
        .iter()
        .enumerate()
        .filter(|&(k, _)| k != a && k != b)
        .fold(kernel.output_indices(), |s, (_, it)| s.union(it.inds));
    Term {
        left: ia.op,
        right: ib.op,
        left_inds: ia.inds,
        right_inds: ib.inds,
        out_inds: ia.inds.union(ib.inds).intersect(needed),
        left_lineage: ia.lineage,
        right_lineage: ib.lineage,
        consumer: None,
    }
}

/// The working list after `term` — term number `id` of its path, from
/// [`pair_term`] on the same `a`, `b` — ran: both operands dropped, the
/// intermediate appended at the end.
pub fn contract_pair(
    items: &[PathItem],
    a: usize,
    b: usize,
    id: usize,
    term: &Term,
) -> Vec<PathItem> {
    let mut rest: Vec<PathItem> = items
        .iter()
        .enumerate()
        .filter(|&(k, _)| k != a && k != b)
        .map(|(_, it)| *it)
        .collect();
    rest.push(PathItem {
        op: Operand::Inter(id),
        inds: term.out_inds,
        lineage: term.out_lineage(),
    });
    rest
}

/// Enumerate every ordered contraction path for the kernel
/// (Sec. 4.1.1): recursively contract all unordered pairs of remaining
/// tensors, appending the intermediate to the working list. Each ordered
/// term sequence is produced exactly once.
pub fn enumerate_paths(kernel: &Kernel) -> Vec<ContractionPath> {
    let mut out = Vec::new();
    let mut terms: Vec<Term> = Vec::with_capacity(kernel.inputs.len() - 1);
    recurse(kernel, &leaf_items(kernel), &mut terms, &mut out);
    for p in &mut out {
        finalize(p);
    }
    out
}

/// Position of the term that takes the sparse input directly.
fn sparse_term_of(kernel: &Kernel, terms: &[Term]) -> usize {
    let sparse = Operand::Input(kernel.sparse_input);
    terms
        .iter()
        .position(|t| t.left == sparse || t.right == sparse)
        .expect("every path contracts the sparse input")
}

fn recurse(
    kernel: &Kernel,
    items: &[PathItem],
    terms: &mut Vec<Term>,
    out: &mut Vec<ContractionPath>,
) {
    if items.len() == 1 {
        out.push(ContractionPath {
            terms: terms.clone(),
            sparse_term: sparse_term_of(kernel, terms),
        });
        return;
    }
    for a in 0..items.len() {
        for b in a + 1..items.len() {
            let term = pair_term(kernel, items, a, b);
            let rest = contract_pair(items, a, b, terms.len(), &term);
            terms.push(term);
            recurse(kernel, &rest, terms, out);
            terms.pop();
        }
    }
}

/// Fill consumer links after the term list is complete.
fn finalize(path: &mut ContractionPath) {
    let n = path.terms.len();
    for t in 0..n {
        for u in t + 1..n {
            if path.terms[u].left == Operand::Inter(t) || path.terms[u].right == Operand::Inter(t) {
                path.terms[t].consumer = Some(u);
                break;
            }
        }
    }
    for (t, term) in path.terms.iter().enumerate() {
        debug_assert!(
            term.consumer.is_some() || t + 1 == n,
            "non-final term without consumer"
        );
    }
}

/// Build a specific path from an explicit pick sequence (testing and
/// baseline schedules): each pick names two positions in the working
/// item list (inputs first, intermediates appended in creation order).
pub fn path_from_picks(kernel: &Kernel, picks: &[(usize, usize)]) -> ContractionPath {
    assert_eq!(
        picks.len(),
        kernel.inputs.len() - 1,
        "need exactly n-1 picks"
    );
    let mut items = leaf_items(kernel);
    let mut terms = Vec::new();
    for &(a, b) in picks {
        assert!(a < items.len() && b < items.len() && a != b, "bad pick");
        let term = pair_term(kernel, &items, a, b);
        items = contract_pair(&items, a, b, terms.len(), &term);
        terms.push(term);
    }
    let sparse_term = sparse_term_of(kernel, &terms);
    let mut p = ContractionPath { terms, sparse_term };
    finalize(&mut p);
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelBuilder;
    use crate::parse_kernel;
    use spttn_tensor::SubsetCounts;

    fn ttmc3() -> Kernel {
        parse_kernel(
            "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
            &[("i", 100), ("j", 80), ("k", 90), ("r", 8), ("s", 9)],
        )
        .unwrap()
    }

    #[test]
    fn enumeration_count_matches_recurrence() {
        // T(n) = C(n,2) * T(n-1), T(2) = 1.
        assert_eq!(enumerate_paths(&ttmc3()).len(), 3); // n=3: C(3,2)*1 = 3
        let k4 = parse_kernel(
            "S(i,j,k) = T(i,j,k) * U(i,r) * V(j,r) * W(k,r)",
            &[("i", 10), ("j", 10), ("k", 10), ("r", 4)],
        )
        .unwrap();
        assert_eq!(enumerate_paths(&k4).len(), 18); // 6*3*1
    }

    #[test]
    fn consumer_links_are_set() {
        for p in enumerate_paths(&ttmc3()) {
            let n = p.terms.len();
            for (t, term) in p.terms.iter().enumerate() {
                if t + 1 == n {
                    assert!(term.consumer.is_none());
                } else {
                    let c = term.consumer.unwrap();
                    assert!(c > t);
                    assert!(
                        p.terms[c].left == Operand::Inter(t)
                            || p.terms[c].right == Operand::Inter(t)
                    );
                }
            }
        }
    }

    #[test]
    fn lineage_propagates_through_intermediates() {
        // Path (T*V) then (*U): intermediate X(i,j,s) has lineage {i,j}.
        let k = ttmc3();
        let p = path_from_picks(&k, &[(0, 2), (0, 1)]);
        assert_eq!(p.sparse_term, 0);
        let x = &p.terms[0];
        // T(i,j,k)*V(k,s) -> X(i,j,s): k contracted.
        assert_eq!(x.out_inds.to_vec(), vec![0, 1, 4]); // i, j, s
        assert_eq!(x.out_lineage().to_vec(), vec![0, 1]); // i, j
                                                          // The intermediate is appended at the end of the item list, so it
                                                          // is the *right* operand of the final term.
        let last = &p.terms[1];
        assert_eq!(last.right, Operand::Inter(0));
        assert_eq!(last.right_lineage.to_vec(), vec![0, 1]);
    }

    #[test]
    fn ttmc_flops_match_paper_formulas() {
        // Paper Sec. 2.4.2: T*V then *U costs 2 nnz(T) S + 2 nnz_IJ S R.
        let k = ttmc3();
        let profile = SubsetCounts::of(&toy_tensor())
            .unwrap()
            .profile(&[0, 1, 2])
            .unwrap();
        let p = path_from_picks(&k, &[(0, 2), (0, 1)]);
        let nnz = profile.prefix_nnz(3) as u128;
        let nnz_ij = profile.prefix_nnz(2) as u128;
        let expect = 2 * nnz * 9 + 2 * nnz_ij * 9 * 8;
        assert_eq!(p.flops(&k, &profile), expect);

        // Dense-first path (U*V then *T): J*R*K*S + 2 nnz R S.
        let p2 = path_from_picks(&k, &[(1, 2), (0, 1)]);
        let expect2 = 2u128 * 80 * 8 * 90 * 9 + 2 * nnz * 8 * 9;
        assert_eq!(p2.flops(&k, &profile), expect2);
    }

    fn toy_tensor() -> spttn_tensor::CooTensor {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        spttn_tensor::random_coo(&[100, 80, 90], 500, &mut rng).unwrap()
    }

    #[test]
    fn mttkrp_pairwise_cheaper_than_unfactorized() {
        // Paper Sec. 2.4.2: pairwise MTTKRP saves up to a third of ops —
        // when fibers are dense enough that nnz_IJ << nnz.
        use rand::prelude::*;
        let k = parse_kernel(
            "A(i,a) = T(i,j,k) * B(j,a) * C(k,a)",
            &[("i", 40), ("j", 40), ("k", 40), ("a", 16)],
        )
        .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let fibrous = spttn_tensor::random_coo(&[40, 40, 40], 4000, &mut rng).unwrap();
        let profile = SubsetCounts::of(&fibrous)
            .unwrap()
            .profile(&[0, 1, 2])
            .unwrap();
        let best = enumerate_paths(&k)
            .iter()
            .map(|p| p.flops(&k, &profile))
            .min()
            .unwrap();
        let nnz = profile.prefix_nnz(3) as u128;
        let nnz_ij = profile.prefix_nnz(2) as u128;
        assert_eq!(best, 2 * nnz * 16 + 2 * nnz_ij * 16);
        assert!(best < 3 * nnz * 16);
    }

    #[test]
    fn pre_sparse_term_gets_prefix_pruning() {
        // TTTP: U(i,r)*V(j,r) fused under the sparse descent iterates
        // nnz_IJ, not I*J.
        let k = parse_kernel(
            "S(i,j,k) = T(i,j,k) * U(i,r) * V(j,r) * W(k,r)",
            &[("i", 50), ("j", 50), ("k", 50), ("r", 4)],
        )
        .unwrap();
        // Path: (U*V) -> X(i,j,r); (X*W) -> Y(i,j,k,r); (Y*T) -> S.
        let p = path_from_picks(&k, &[(1, 2), (1, 2), (0, 1)]);
        assert_eq!(p.sparse_term, 2);
        assert_eq!(p.sparse_prefix_len(0, &k), 2); // pre-sparse, {i,j}
        assert_eq!(p.sparse_prefix_len(1, &k), 3); // pre-sparse, {i,j,k}
        assert_eq!(p.sparse_prefix_len(2, &k), 3);
    }

    #[test]
    fn dense_only_term_without_prefix_is_dense() {
        // Fig 1d: U(j,r)*V(k,s) has no i, so no sparse prefix.
        let k = ttmc3();
        let p = path_from_picks(&k, &[(1, 2), (0, 1)]);
        assert_eq!(p.sparse_prefix_len(0, &k), 0);
    }

    #[test]
    fn describe_is_readable() {
        let k = ttmc3();
        let p = path_from_picks(&k, &[(0, 2), (0, 1)]);
        let s = p.describe(&k);
        assert!(s.contains("T(i,j,k)*V(k,s) -> X0(i,j,s)"), "{s}");
        assert!(s.contains("-> S(i,r,s)"), "{s}");
    }

    #[test]
    fn builder_kernel_paths() {
        // Order-4 TTMc from the paper's Fig. 5/6.
        let k = KernelBuilder::new()
            .index("i", 20)
            .index("j", 20)
            .index("k", 20)
            .index("l", 20)
            .index("r", 4)
            .index("s", 4)
            .index("t", 4)
            .output("S", &["i", "r", "s", "t"])
            .input("T", &["i", "j", "k", "l"])
            .input("U", &["j", "r"])
            .input("V", &["k", "s"])
            .input("W", &["l", "t"])
            .build()
            .unwrap();
        let paths = enumerate_paths(&k);
        assert_eq!(paths.len(), 18);
        // The paper's Fig. 5 path: T*W, then *V, then *U.
        let p = path_from_picks(&k, &[(0, 3), (0, 1), (0, 1)]);
        assert_eq!(p.terms[0].out_inds.len(), 4); // i,j,k,t
        assert_eq!(p.terms[1].out_inds.len(), 4); // i,j,s,t
        assert_eq!(p.terms[2].out_inds.len(), 4); // i,r,s,t
    }
}
