//! Contraction-sequence search: greedy ordering and a budgeted,
//! cost-capped exact subset sweep (netcon-style), both scored by one
//! materialization-aware cost model.
//!
//! ## The sequence cost model
//!
//! [`modeled_path_flops`] charges each pairwise term as if its result
//! were materialized (which is exactly how the lowered
//! [`crate::NetworkPlan`] executes dense steps): a term iterating index
//! union `U` with sparse lineage `L` costs
//! `2 · prefix_nnz(ℓ) · ∏_{i ∈ U \ prefix} dim(i)`, where `ℓ` is the
//! longest prefix of the sparse tensor's storage order contained in
//! both `U` and `L`. Dense-dense terms have empty lineage, so `ℓ = 0`
//! and the cost degenerates to the full dense `2·∏ dim` — this is the
//! single-kernel path model of
//! [`ContractionPath::flops`] *minus* its pre-sparse fusion credit,
//! because a sequence planner cannot assume a later kernel will fuse an
//! already-materialized intermediate. (The Sec. 5 planner re-introduces
//! fusion inside the collapsed sparse kernel after lowering.)
//!
//! Crucially the model is *position-independent*: a term's cost depends
//! only on which leaves its two operands cover, never on where the term
//! sits in the sequence. That is what makes the exact search a clean
//! dynamic program over leaf subsets rather than a sweep over ordered
//! paths.

use spttn::ir::{
    contract_pair, leaf_items, pair_term, path_from_picks, ContractionPath, IdxSet, Kernel,
};
use spttn::tensor::SparsityProfile;
use spttn::PlanOptions;

/// How [`crate::Network::plan`] picks the pairwise contraction order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderStrategy {
    /// Each round contracts the cheapest remaining pair (ties broken by
    /// smaller intermediate). `O(n³)` evaluations; no optimality
    /// guarantee.
    Greedy,
    /// Exact minimum over all contraction trees via a subset dynamic
    /// program, pruned by the greedy total (μ-cap) and capped by
    /// [`NetOptions::budget`]; falls back to greedy (reported via
    /// [`SearchReport::truncated`]) when the budget runs out.
    Optimal,
}

impl std::fmt::Display for OrderStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrderStrategy::Greedy => write!(f, "greedy"),
            OrderStrategy::Optimal => write!(f, "optimal"),
        }
    }
}

/// Options for network planning (order search + lowering + the
/// [`PlanOptions`] handed to the per-step Sec. 5 planner).
#[derive(Debug, Clone)]
pub struct NetOptions {
    /// Order-search strategy.
    pub order: OrderStrategy,
    /// Maximum number of pair-cost evaluations the exact sweep may
    /// spend before falling back to greedy.
    pub budget: u64,
    /// Planner options for the collapsed sparse kernel (cost model,
    /// engine, threads, …).
    pub plan: PlanOptions,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            order: OrderStrategy::Greedy,
            budget: 1_000_000,
            plan: PlanOptions::default(),
        }
    }
}

impl NetOptions {
    /// Set the order-search strategy.
    pub fn with_order(mut self, order: OrderStrategy) -> Self {
        self.order = order;
        self
    }

    /// Set the exact-search evaluation budget.
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Set the [`PlanOptions`] for the collapsed sparse kernel.
    pub fn with_plan_options(mut self, plan: PlanOptions) -> Self {
        self.plan = plan;
        self
    }
}

/// What the order search did and found.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// Strategy that was requested.
    pub strategy: OrderStrategy,
    /// Pair-cost evaluations spent (greedy rounds + exact-sweep splits).
    pub evaluated_pairs: u64,
    /// True when the exact sweep exhausted its budget (or the network
    /// was too large for the subset table) and the greedy order was
    /// used instead.
    pub truncated: bool,
    /// Modeled flops of the greedy order.
    pub greedy_flops: u128,
    /// Modeled flops of the chosen order (`== greedy_flops` for
    /// [`OrderStrategy::Greedy`], `<=` for a completed exact sweep).
    pub chosen_flops: u128,
}

/// Cost of one pairwise term under the sequence model (see module
/// docs): `union` is the term's iterated index set, `lineage` the
/// sparse-mode indices its operands inherit from the sparse tensor.
fn term_model_flops(
    kernel: &Kernel,
    profile: &SparsityProfile,
    union: IdxSet,
    lineage: IdxSet,
) -> u128 {
    let order = kernel.csf_index_order();
    let mut ell = 0;
    let mut prefix = IdxSet::EMPTY;
    for &idx in order {
        if union.contains(idx) && lineage.contains(idx) {
            ell += 1;
            prefix = prefix.insert(idx);
        } else {
            break;
        }
    }
    let mut cost: u128 = 2u128.saturating_mul(profile.prefix_nnz(ell) as u128);
    for i in union.minus(prefix).iter() {
        cost = cost.saturating_mul(kernel.dim(i) as u128);
    }
    cost
}

/// Modeled flops of a whole contraction path under the sequence cost
/// model — the objective both [`OrderStrategy`] variants minimize.
/// Exposed so external checks (tests, benches) can score brute-force
/// path enumerations with the *identical* model the planner uses.
pub fn modeled_path_flops(
    kernel: &Kernel,
    path: &ContractionPath,
    profile: &SparsityProfile,
) -> u128 {
    path.terms
        .iter()
        .map(|t| term_model_flops(kernel, profile, t.iter_inds(), t.lineage()))
        .fold(0u128, u128::saturating_add)
}

/// Greedy sweep: repeatedly contract the cheapest pair. Returns the
/// pick sequence (working-list coordinates for
/// [`path_from_picks`]) plus the number of pair evaluations spent.
fn greedy_picks(kernel: &Kernel, profile: &SparsityProfile) -> (Vec<(usize, usize)>, u64) {
    let mut items = leaf_items(kernel);
    let mut picks = Vec::with_capacity(items.len().saturating_sub(1));
    let mut evaluated = 0u64;
    while items.len() > 1 {
        let mut best: Option<(u128, u128, usize, usize)> = None;
        for a in 0..items.len() {
            for b in a + 1..items.len() {
                evaluated += 1;
                let term = pair_term(kernel, &items, a, b);
                let cost = term_model_flops(kernel, profile, term.iter_inds(), term.lineage());
                let size = term
                    .out_inds
                    .iter()
                    .map(|i| kernel.dim(i) as u128)
                    .fold(1u128, u128::saturating_mul);
                if best.is_none_or(|(bc, bs, _, _)| (cost, size) < (bc, bs)) {
                    best = Some((cost, size, a, b));
                }
            }
        }
        let (_, _, a, b) = best.expect("at least one pair");
        let term = pair_term(kernel, &items, a, b);
        items = contract_pair(&items, a, b, picks.len(), &term);
        picks.push((a, b));
    }
    (picks, evaluated)
}

/// Largest network the subset table covers (`2^n` entries).
const MAX_EXACT_TENSORS: usize = 16;

/// Exact minimum over contraction trees: a dynamic program over leaf
/// subsets. Sound because the model is position-independent — the
/// visible index set of a subtree covering leaf set `S` is
/// `raw(S) ∩ (output ∪ raw(!S))` no matter when the subtree is built,
/// and its sparse lineage is `sparse_inds ∩ inds(S)` iff the sparse
/// leaf is in `S`. Splits whose cost already exceeds `mu_cap` (the
/// greedy total) are pruned: the final answer is `min(dp, greedy)`, so
/// nothing better is lost. Returns `None` when the evaluation budget
/// runs out.
fn optimal_picks(
    kernel: &Kernel,
    profile: &SparsityProfile,
    mu_cap: u128,
    budget: u64,
    evaluated: &mut u64,
) -> Option<(u128, Vec<(usize, usize)>)> {
    let n = kernel.inputs.len();
    if n > MAX_EXACT_TENSORS {
        return None;
    }
    let full: u32 = (1u32 << n) - 1;
    let size = 1usize << n;

    // raw(S): union of leaf index sets over S, by lowest-bit recursion.
    let leaves = leaf_items(kernel);
    let mut raw = vec![IdxSet::EMPTY; size];
    for s in 1..size {
        let low = s.trailing_zeros() as usize;
        raw[s] = raw[s & (s - 1)].union(leaves[low].inds);
    }
    let out_set = kernel.output_indices();
    let sparse_bit = 1u32 << kernel.sparse_input;
    let sparse_inds = kernel.sparse_indices();
    let inds_of =
        |s: u32| -> IdxSet { raw[s as usize].intersect(out_set.union(raw[(full & !s) as usize])) };
    let lineage_of = |s: u32| -> IdxSet {
        if s & sparse_bit != 0 {
            sparse_inds.intersect(inds_of(s))
        } else {
            IdxSet::EMPTY
        }
    };

    let mut cost: Vec<Option<u128>> = vec![None; size];
    let mut choice: Vec<(u32, u32)> = vec![(0, 0); size];
    for i in 0..n {
        cost[1usize << i] = Some(0);
    }
    // Ascending numeric order visits every strict subset before its
    // superset, so children are always resolved first.
    for s in 1..size {
        let su = s as u32;
        if su.count_ones() < 2 {
            continue;
        }
        let low = su & su.wrapping_neg();
        let rest = su ^ low;
        let mut best: Option<(u128, u32, u32)> = None;
        // Every split {A, B} of S with the lowest leaf pinned to A.
        let mut m = rest;
        loop {
            m = m.wrapping_sub(1) & rest;
            let a = low | m;
            let b = su ^ a;
            let viable = match (cost[a as usize], cost[b as usize]) {
                (Some(ca), Some(cb)) => {
                    *evaluated += 1;
                    if *evaluated > budget {
                        return None;
                    }
                    let sub = ca.saturating_add(cb);
                    if sub <= mu_cap {
                        let t = term_model_flops(
                            kernel,
                            profile,
                            inds_of(a).union(inds_of(b)),
                            lineage_of(a).union(lineage_of(b)),
                        );
                        Some(sub.saturating_add(t))
                    } else {
                        None
                    }
                }
                _ => None,
            };
            if let Some(total) = viable {
                if total <= mu_cap && best.is_none_or(|(bc, _, _)| total < bc) {
                    best = Some((total, a, b));
                }
            }
            if m == 0 {
                break;
            }
        }
        if let Some((c, a, b)) = best {
            cost[s] = Some(c);
            choice[s] = (a, b);
        }
    }

    let total = cost[full as usize]?;
    // Postorder the chosen tree, then translate subtree pairs into
    // working-list pick coordinates (the `path_from_picks` contract:
    // remove both operands, append the intermediate).
    let mut order: Vec<(u32, u32)> = Vec::with_capacity(n - 1);
    fn post(s: u32, choice: &[(u32, u32)], order: &mut Vec<(u32, u32)>) {
        if s.count_ones() <= 1 {
            return;
        }
        let (a, b) = choice[s as usize];
        post(a, choice, order);
        post(b, choice, order);
        order.push((a, b));
    }
    post(full, &choice, &mut order);
    let mut list: Vec<u32> = (0..n as u32).map(|i| 1u32 << i).collect();
    let mut picks = Vec::with_capacity(n - 1);
    for (a, b) in order {
        let pa = list.iter().position(|&x| x == a).expect("child present");
        let pb = list.iter().position(|&x| x == b).expect("child present");
        picks.push((pa, pb));
        list = list
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != pa && k != pb)
            .map(|(_, &x)| x)
            .collect();
        list.push(a | b);
    }
    Some((total, picks))
}

/// Run the configured order search. The caller guarantees the network
/// has at least two tensors.
pub(crate) fn choose_path(
    kernel: &Kernel,
    profile: &SparsityProfile,
    opts: &NetOptions,
) -> (ContractionPath, SearchReport) {
    let (gpicks, mut evaluated) = greedy_picks(kernel, profile);
    let greedy_path = path_from_picks(kernel, &gpicks);
    let greedy_flops = modeled_path_flops(kernel, &greedy_path, profile);
    match opts.order {
        OrderStrategy::Greedy => {
            let report = SearchReport {
                strategy: OrderStrategy::Greedy,
                evaluated_pairs: evaluated,
                truncated: false,
                greedy_flops,
                chosen_flops: greedy_flops,
            };
            (greedy_path, report)
        }
        OrderStrategy::Optimal => {
            match optimal_picks(kernel, profile, greedy_flops, opts.budget, &mut evaluated) {
                Some((flops, picks)) if flops < greedy_flops => {
                    let path = path_from_picks(kernel, &picks);
                    debug_assert_eq!(modeled_path_flops(kernel, &path, profile), flops);
                    let report = SearchReport {
                        strategy: OrderStrategy::Optimal,
                        evaluated_pairs: evaluated,
                        truncated: false,
                        greedy_flops,
                        chosen_flops: flops,
                    };
                    (path, report)
                }
                Some(_) => {
                    // The sweep completed and greedy was already
                    // optimal (it is one of the trees the DP covers).
                    let report = SearchReport {
                        strategy: OrderStrategy::Optimal,
                        evaluated_pairs: evaluated,
                        truncated: false,
                        greedy_flops,
                        chosen_flops: greedy_flops,
                    };
                    (greedy_path, report)
                }
                None => {
                    let report = SearchReport {
                        strategy: OrderStrategy::Optimal,
                        evaluated_pairs: evaluated,
                        truncated: true,
                        greedy_flops,
                        chosen_flops: greedy_flops,
                    };
                    (greedy_path, report)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spttn::ir::{enumerate_paths, parse_kernel};

    fn profile_for(kernel: &Kernel, nnz: u64) -> SparsityProfile {
        let dims: Vec<usize> = kernel
            .csf_index_order()
            .iter()
            .map(|&i| kernel.dim(i))
            .collect();
        let natural: Vec<usize> = (0..dims.len()).collect();
        SparsityProfile::uniform(&dims, &natural, nnz).unwrap()
    }

    fn brute_force_min(kernel: &Kernel, profile: &SparsityProfile) -> u128 {
        enumerate_paths(kernel)
            .iter()
            .map(|p| modeled_path_flops(kernel, p, profile))
            .min()
            .unwrap()
    }

    #[test]
    fn exact_sweep_matches_brute_force() {
        for (expr, dims) in [
            (
                "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
                vec![("i", 40), ("j", 30), ("k", 20), ("r", 8), ("s", 9)],
            ),
            (
                "O(i,s) = T(i,j,k) * A(j,r) * B(k,r) * C(r,s)",
                vec![("i", 25), ("j", 18), ("k", 12), ("r", 6), ("s", 7)],
            ),
            (
                "O(c) = T(i,j,k) * G1(i,a) * G2(a,j,b) * G3(b,k,c)",
                vec![("i", 12), ("j", 10), ("k", 8), ("a", 4), ("b", 5), ("c", 6)],
            ),
        ] {
            let kernel = parse_kernel(expr, &dims).unwrap();
            let profile = profile_for(&kernel, 700);
            let opts = NetOptions::default().with_order(OrderStrategy::Optimal);
            let (path, report) = choose_path(&kernel, &profile, &opts);
            assert!(!report.truncated);
            let best = brute_force_min(&kernel, &profile);
            assert_eq!(report.chosen_flops, best, "{expr}");
            assert_eq!(modeled_path_flops(&kernel, &path, &profile), best);
            assert!(report.greedy_flops >= best);
        }
    }

    #[test]
    fn exhausted_budget_falls_back_to_greedy() {
        let kernel = parse_kernel(
            "O(i,s) = T(i,j,k) * A(j,r) * B(k,r) * C(r,s)",
            &[("i", 25), ("j", 18), ("k", 12), ("r", 6), ("s", 7)],
        )
        .unwrap();
        let profile = profile_for(&kernel, 300);
        let opts = NetOptions::default()
            .with_order(OrderStrategy::Optimal)
            .with_budget(1);
        let (path, report) = choose_path(&kernel, &profile, &opts);
        assert!(report.truncated);
        assert_eq!(report.chosen_flops, report.greedy_flops);
        assert_eq!(
            modeled_path_flops(&kernel, &path, &profile),
            report.greedy_flops
        );
    }

    #[test]
    fn dense_terms_cost_full_dense_work() {
        // U(j,r)*V(k,s) off the sparse tensor: 2·J·R·K·S, no pruning.
        let kernel = parse_kernel(
            "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
            &[("i", 40), ("j", 30), ("k", 20), ("r", 8), ("s", 9)],
        )
        .unwrap();
        let profile = profile_for(&kernel, 500);
        let p = path_from_picks(&kernel, &[(1, 2), (0, 1)]);
        let dense = term_model_flops(
            &kernel,
            &profile,
            p.terms[0].iter_inds(),
            p.terms[0].lineage(),
        );
        assert_eq!(dense, 2 * 30 * 8 * 20 * 9);
        // The sparse term keeps its full-prefix pruning.
        let sparse = term_model_flops(
            &kernel,
            &profile,
            p.terms[1].iter_inds(),
            p.terms[1].lineage(),
        );
        assert_eq!(sparse, 2 * profile.nnz() as u128 * 8 * 9);
    }
}
