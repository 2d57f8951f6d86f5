//! Algorithm 1: dynamic program for cost-optimal loop orders.
//!
//! Finds, for a fixed contraction path and any tree-separable cost, the
//! loop order minimizing the cost — in `O(N³·2^m·m)` instead of the
//! `O((m!)^N)` of exhaustive enumeration. Subproblems — the memo key —
//! are (contiguous term range, set of already-iterated indices, tracked
//! CSF depth): the depth is how many leading CSF levels the enclosing
//! *sparse* loops cover, which [`spttn_ir::vertex_kind`] classifies by
//! and the iterated set alone does not determine (a CSF index may have
//! been iterated densely). Each subproblem returns both the best loop
//! order and the best one whose first loop has a *different* root index,
//! which the parent needs when its own root would otherwise fuse with
//! the suffix forest (the paper's lines 16–20).
//!
//! Every candidate carries its executed [`Work`] beside the model's own
//! value and candidates are compared by [`TreeCost::rank`] — the model's
//! value, ties broken by `Work`. That composite is still optimized
//! exactly: an additive model is strictly increasing in its subtrees, so
//! a lexicographic tie-break keeps `φ` and `⊕` monotone; a bottleneck
//! model ([`TreeCost::BOTTLENECK`]) is not, and gets a second pass that
//! minimizes `Work` over the subtrees whose value stays within the
//! optimum the first pass found.
//!
//! The search honors the same restrictions as enumeration: per-term
//! sparse-lineage indices stay in CSF order, and a root choice whose
//! vertex classification is invalid (dense loop covering the sparse
//! tensor's own term) is skipped — [`spttn_ir::vertex_kind`] is shared
//! with forest construction so the DP and the executor agree exactly.

use crate::tree_cost::{TreeCost, VertexCtx};
use crate::work::{Work, WorkCounts};
use spttn_ir::{vertex_kind, ContractionPath, IdxSet, IndexId, Kernel, NestSpec};
use spttn_tensor::SparsityProfile;
use std::collections::HashMap;

/// Result of the DP: optimal value and the loop orders achieving it.
#[derive(Debug, Clone)]
pub struct SearchResult<V> {
    /// Optimal cost value.
    pub value: V,
    /// Executed work of the chosen nest: minimal among the nests that
    /// attain `value` (see [`TreeCost::rank`]).
    pub work: WorkCounts,
    /// Loop orders per term (a full [`NestSpec`]).
    pub spec: NestSpec,
    /// Number of memoized subproblems solved.
    pub subproblems: usize,
}

#[derive(Debug, Clone)]
struct Cand<V> {
    value: V,
    work: WorkCounts,
    orders: Vec<Vec<IndexId>>,
}

#[derive(Debug, Clone)]
struct Entry<V> {
    best: Option<Cand<V>>,
    /// Best candidate whose forest's first loop has a different root.
    second: Option<Cand<V>>,
}

fn root_of(orders: &[Vec<IndexId>]) -> Option<IndexId> {
    orders.first().and_then(|o| o.first().copied())
}

struct Dp<'a, C: TreeCost> {
    kernel: &'a Kernel,
    path: &'a ContractionPath,
    profile: &'a SparsityProfile,
    cost: &'a C,
    /// Second pass of a bottleneck model: the optimal value. Subtrees
    /// above it cannot be part of an optimal nest; all others can, so
    /// among them only `Work` matters.
    cap: Option<C::Value>,
    memo: HashMap<(usize, usize, IdxSet, usize), Entry<C::Value>>,
}

/// Run Algorithm 1 on a contraction path. Returns `None` only for empty
/// paths.
pub fn optimal_order<C: TreeCost>(
    kernel: &Kernel,
    path: &ContractionPath,
    profile: &SparsityProfile,
    cost: &C,
) -> Option<SearchResult<C::Value>> {
    if path.is_empty() {
        return None;
    }
    let mut dp = Dp {
        kernel,
        path,
        profile,
        cost,
        cap: None,
        memo: HashMap::new(),
    };
    let mut best = dp.solve(0, path.len(), IdxSet::EMPTY, 0).best?;
    if C::BOTTLENECK {
        dp.cap = Some(best.value);
        dp.memo.clear();
        best = dp.solve(0, path.len(), IdxSet::EMPTY, 0).best?;
    }
    Some(SearchResult {
        value: best.value,
        work: best.work,
        spec: NestSpec {
            orders: best.orders,
        },
        subproblems: dp.memo.len(),
    })
}

impl<'a, C: TreeCost> Dp<'a, C> {
    /// Whether candidate `a` replaces the incumbent `b`.
    fn better(&self, a: &Cand<C::Value>, b: &Option<Cand<C::Value>>) -> bool {
        let Some(b) = b else { return true };
        let order = if self.cap.is_some() {
            a.work.ns().total_cmp(&b.work.ns())
        } else {
            self.cost.rank((&a.value, &a.work), (&b.value, &b.work))
        };
        order.is_lt()
    }

    fn solve(&mut self, lo: usize, hi: usize, removed: IdxSet, tracked: usize) -> Entry<C::Value> {
        if lo == hi {
            return Entry {
                best: Some(Cand {
                    value: self.cost.empty(),
                    work: Work.empty(),
                    orders: Vec::new(),
                }),
                second: None,
            };
        }
        let key = (lo, hi, removed, tracked);
        if let Some(e) = self.memo.get(&key) {
            return e.clone();
        }

        let remaining_first = self.path.terms[lo].iter_inds().minus(removed);
        let entry = if remaining_first.is_empty() {
            // Line 5: the first term is fully iterated — it becomes a
            // leaf here; recurse on the rest.
            let sub = self.solve(lo + 1, hi, removed, tracked);
            let map = |mut c: Cand<C::Value>| {
                let mut orders = Vec::with_capacity(c.orders.len() + 1);
                orders.push(Vec::new());
                orders.append(&mut c.orders);
                Cand { orders, ..c }
            };
            // A leading leaf means the forest starts with a non-loop
            // node: no root-fusion conflict is possible, so no second
            // candidate is needed.
            Entry {
                best: sub.best.map(map),
                second: None,
            }
        } else {
            let mut best: Option<Cand<C::Value>> = None;
            let mut second: Option<Cand<C::Value>> = None;
            for q in remaining_first.iter() {
                // Line 10: maximal run of leading terms containing q.
                let mut k = 0usize;
                while lo + k < hi && self.path.terms[lo + k].iter_inds().contains(q) {
                    k += 1;
                }
                let q_level = self.kernel.sparse_level(q);
                let mut cbest: Option<Cand<C::Value>> = None;
                let mut order_ok = true;
                for s in 1..=k {
                    // CSF-order restriction: within term lo+s-1, q must
                    // not precede a shallower un-iterated lineage index.
                    let t = lo + s - 1;
                    let term = &self.path.terms[t];
                    if let Some(level) = q_level {
                        if term.lineage().contains(q) {
                            let shallower_remaining = (0..level).any(|l| {
                                let m = self.kernel.index_at_level(l);
                                term.iter_inds().contains(m)
                                    && term.lineage().contains(m)
                                    && !removed.contains(m)
                            });
                            if shallower_remaining {
                                order_ok = false;
                            }
                        }
                    }
                    if !order_ok {
                        break;
                    }
                    let Ok(kind) = vertex_kind(self.kernel, self.path, lo, lo + s, tracked, q)
                    else {
                        continue;
                    };
                    let x = self.solve(lo, lo + s, removed.insert(q), kind.tracked_below(tracked));
                    let Some(xc) = x.best else { continue };
                    let y = self.solve(lo + s, hi, removed, tracked);
                    // Lines 16–20: if the suffix forest would start with
                    // a loop over q, the combined tree would not be
                    // fully fused — take its second-best instead.
                    let yc = match y.best {
                        Some(ref b) if root_of(&b.orders) == Some(q) => y.second,
                        other => other,
                    };
                    let Some(yc) = yc else { continue };
                    let ctx = VertexCtx {
                        kernel: self.kernel,
                        path: self.path,
                        profile: self.profile,
                        lo,
                        hi: lo + s,
                        call_hi: hi,
                        removed,
                        index: q,
                        kind,
                    };
                    let value = self
                        .cost
                        .combine(&self.cost.apply(&ctx, &xc.value), &yc.value);
                    if self.cap.as_ref().is_some_and(|cap| value > *cap) {
                        continue;
                    }
                    let mut cand = Cand {
                        value,
                        work: Work.combine(&Work.apply(&ctx, &xc.work), &yc.work),
                        orders: Vec::new(),
                    };
                    if self.better(&cand, &cbest) {
                        cand.orders.reserve(hi - lo);
                        for sub in &xc.orders {
                            let mut o = Vec::with_capacity(sub.len() + 1);
                            o.push(q);
                            o.extend_from_slice(sub);
                            cand.orders.push(o);
                        }
                        cand.orders.extend(yc.orders.iter().cloned());
                        cbest = Some(cand);
                    }
                }
                // Lines 27–30: fold this root's champion into (A, B);
                // roots across iterations of q are distinct, so A and B
                // always differ in root.
                if let Some(c) = cbest {
                    if self.better(&c, &best) {
                        second = best.take();
                        best = Some(c);
                    } else if self.better(&c, &second) {
                        second = Some(c);
                    }
                }
            }
            Entry { best, second }
        };
        self.memo.insert(key, entry.clone());
        entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{BlasAware, BlasValue};
    use crate::cache::CacheMiss;
    use crate::eval::eval_forest;
    use crate::exhaustive::exhaustive_search;
    use crate::tree_cost::{MaxBufferDim, MaxBufferSize};
    use spttn_ir::{build_forest, parse_kernel, path_from_picks};

    fn ttmc3() -> (Kernel, ContractionPath, SparsityProfile) {
        let k = parse_kernel(
            "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
            &[("i", 10), ("j", 11), ("k", 12), ("r", 4), ("s", 5)],
        )
        .unwrap();
        let p = path_from_picks(&k, &[(0, 2), (0, 1)]);
        let prof = SparsityProfile::uniform(&[10, 11, 12], &[0, 1, 2], 200).unwrap();
        (k, p, prof)
    }

    #[test]
    fn dp_finds_scalar_buffer_for_ttmc() {
        let (k, p, prof) = ttmc3();
        let r = optimal_order(&k, &p, &prof, &MaxBufferDim).unwrap();
        // Listing 4 achieves a scalar buffer: optimal dimension is 0.
        assert_eq!(r.value, 0);
        // The found spec must evaluate to the same value.
        let f = build_forest(&k, &p, &r.spec).unwrap();
        assert_eq!(eval_forest(&k, &p, &prof, &f, &MaxBufferDim), 0);
    }

    #[test]
    fn dp_matches_exhaustive_buffer_dim() {
        let (k, p, prof) = ttmc3();
        let dp = optimal_order(&k, &p, &prof, &MaxBufferDim).unwrap();
        let ex = exhaustive_search(&k, &p, &prof, &MaxBufferDim).unwrap();
        assert_eq!(dp.value, ex.value);
    }

    #[test]
    fn dp_matches_exhaustive_buffer_size() {
        let (k, p, prof) = ttmc3();
        let dp = optimal_order(&k, &p, &prof, &MaxBufferSize).unwrap();
        let ex = exhaustive_search(&k, &p, &prof, &MaxBufferSize).unwrap();
        assert_eq!(dp.value, ex.value);
    }

    #[test]
    fn dp_matches_exhaustive_cache_misses() {
        let (k, p, prof) = ttmc3();
        let cost = CacheMiss { d: 1 };
        let dp = optimal_order(&k, &p, &prof, &cost).unwrap();
        let ex = exhaustive_search(&k, &p, &prof, &cost).unwrap();
        assert!((dp.value - ex.value).abs() < 1e-6 * ex.value.max(1.0));
    }

    #[test]
    fn dp_matches_exhaustive_blas() {
        let (k, p, prof) = ttmc3();
        let cost = BlasAware::default();
        let dp = optimal_order(&k, &p, &prof, &cost).unwrap();
        let ex = exhaustive_search(&k, &p, &prof, &cost).unwrap();
        assert_eq!(dp.value, ex.value);
        assert!(matches!(dp.value, BlasValue::Feasible { .. }));
    }

    #[test]
    fn dp_matches_exhaustive_on_mttkrp() {
        let k = parse_kernel(
            "A(i,a) = T(i,j,k) * B(j,a) * C(k,a)",
            &[("i", 8), ("j", 9), ("k", 10), ("a", 4)],
        )
        .unwrap();
        let prof = SparsityProfile::uniform(&[8, 9, 10], &[0, 1, 2], 100).unwrap();
        for picks in [
            [(0usize, 2usize), (0, 1)],
            [(0, 1), (0, 1)],
            [(1, 2), (0, 1)],
        ] {
            let p = path_from_picks(&k, &picks);
            let dp = optimal_order(&k, &p, &prof, &MaxBufferSize).unwrap();
            let ex = exhaustive_search(&k, &p, &prof, &MaxBufferSize).unwrap();
            assert_eq!(dp.value, ex.value, "picks {picks:?}");
            let f = build_forest(&k, &p, &dp.spec).unwrap();
            assert_eq!(eval_forest(&k, &p, &prof, &f, &MaxBufferSize), dp.value);
        }
    }

    /// DP == exhaustive on each path, in value and in work; returns on
    /// how many paths `Work` had a tie in `cost` to break.
    fn check_exact<C: TreeCost>(
        kernel: &Kernel,
        prof: &SparsityProfile,
        paths: &[ContractionPath],
        cost: &C,
    ) -> usize {
        use crate::exhaustive::all_nest_costs;
        use crate::work::Work;
        let mut decided = 0;
        for p in paths {
            let dp = optimal_order(kernel, p, prof, cost).unwrap();
            let ex = exhaustive_search(kernel, p, prof, cost).unwrap();
            let what = p.describe(kernel);
            assert_eq!(dp.value, ex.value, "{what}");
            if !cost.is_feasible(&ex.value) {
                // Absorbing, and the planner discards it: no nest of
                // this path is any better than another.
                continue;
            }
            assert_eq!(dp.work, ex.work, "{what}: {:?} vs {:?}", dp.work, ex.work);
            // The DP's spec really is a nest of that value and work.
            let f = build_forest(kernel, p, &dp.spec).unwrap();
            assert_eq!(eval_forest(kernel, p, prof, &f, cost), dp.value, "{what}");
            assert_eq!(eval_forest(kernel, p, prof, &f, &Work), dp.work, "{what}");
            // Did the tie-break have anything to decide on this path?
            let values = all_nest_costs(kernel, p, prof, cost);
            let works = all_nest_costs(kernel, p, prof, &Work);
            let tied = values
                .iter()
                .zip(&works)
                .filter(|((_, v), _)| *v == ex.value)
                .any(|(_, (_, w))| *w != ex.work);
            decided += usize::from(tied);
        }
        decided
    }

    /// Algorithm 1 stays exact with the `Work` tie-break, for every
    /// model: same value *and* same work as exhaustive enumeration on
    /// TTMc, all three MTTKRP paths and every TTTP path — and on some
    /// of them the tie-break is what picks the nest.
    #[test]
    fn dp_matches_exhaustive_with_work_tiebreak() {
        use spttn_ir::enumerate_paths;
        let mttkrp = parse_kernel(
            "A(i,a) = T(i,j,k) * B(j,a) * C(k,a)",
            &[("i", 8), ("j", 9), ("k", 10), ("a", 4)],
        )
        .unwrap();
        let tttp = parse_kernel(
            "S(i,j,k) = T(i,j,k) * U(i,r) * V(j,r) * W(k,r)",
            &[("i", 7), ("j", 8), ("k", 9), ("r", 3)],
        )
        .unwrap();
        let (ttmc, _, ttmc_prof) = ttmc3();
        let cases = [
            (ttmc, ttmc_prof),
            (
                mttkrp,
                SparsityProfile::uniform(&[8, 9, 10], &[0, 1, 2], 100).unwrap(),
            ),
            (
                tttp,
                SparsityProfile::uniform(&[7, 8, 9], &[0, 1, 2], 90).unwrap(),
            ),
        ];
        for (kernel, prof) in &cases {
            let paths = enumerate_paths(kernel);
            let mut decided = 0;
            decided += check_exact(kernel, prof, &paths, &MaxBufferDim);
            decided += check_exact(kernel, prof, &paths, &MaxBufferSize);
            decided += check_exact(kernel, prof, &paths, &CacheMiss { d: 1 });
            decided += check_exact(kernel, prof, &paths, &BlasAware::default());
            assert!(
                decided > 0,
                "{}: Work never broke a tie",
                kernel.to_einsum()
            );
        }

        // Where the second pass earns its keep: on this order-4 TTTc
        // path a single pass with a vertex-by-vertex tie-break returns a
        // nest of the optimal buffer size but twice the optimal work.
        let tttc = spttn_ir::stdkernels::tttc(&[4, 5, 6, 7], 2);
        let prof = SparsityProfile::uniform(&[4, 5, 6, 7], &[0, 1, 2, 3], 150).unwrap();
        let path = path_from_picks(&tttc, &[(1, 2), (1, 2), (0, 1)]);
        assert!(check_exact(&tttc, &prof, std::slice::from_ref(&path), &MaxBufferDim) > 0);
        assert!(check_exact(&tttc, &prof, &[path], &MaxBufferSize) > 0);

        // The path whose nests used to reach a CSF node by search: under
        // the fused dense `i` of terms 1–2 the `j` and `k` loops are
        // dense, in the DP exactly as in `build_forest`.
        let witness = parse_kernel(
            "S(i,j,k) = T(i,j,k) * A(i,r) * B(j,r) * C(k,r) * D(k,r)",
            &[("i", 5), ("j", 6), ("k", 7), ("r", 3)],
        )
        .unwrap();
        let prof = SparsityProfile::uniform(&[5, 6, 7], &[0, 1, 2], 60).unwrap();
        let path = [path_from_picks(&witness, &[(0, 2), (0, 1), (0, 1), (0, 1)])];
        check_exact(&witness, &prof, &path, &MaxBufferDim);
        check_exact(&witness, &prof, &path, &MaxBufferSize);
        check_exact(&witness, &prof, &path, &CacheMiss { d: 1 });
        check_exact(&witness, &prof, &path, &BlasAware::default());
    }

    #[test]
    fn dp_specs_always_build() {
        // Every DP result must be constructible and evaluate to its value.
        let (k, p, prof) = ttmc3();
        let r = optimal_order(&k, &p, &prof, &BlasAware::default()).unwrap();
        let f = build_forest(&k, &p, &r.spec).unwrap();
        assert_eq!(
            eval_forest(&k, &p, &prof, &f, &BlasAware::default()),
            r.value
        );
    }

    #[test]
    fn subproblem_count_is_polynomial() {
        let (k, p, prof) = ttmc3();
        let r = optimal_order(&k, &p, &prof, &MaxBufferDim).unwrap();
        // N=2 terms, m=5 indices: far fewer than 48 full enumerations
        // would suggest; bound N^2 * 2^m generously.
        assert!(r.subproblems <= 4 * 32 + 8, "{}", r.subproblems);
    }
}
