//! CSF mode-order search.
//!
//! The paper's planner (Sec. 5) minimizes cost *for a fixed CSF storage
//! order*: every loop nest it considers iterates the sparse modes in
//! the order the tree stores them. But the storage order itself is a
//! free parameter — the per-level fiber counts `nnz_{I1..Ik}` that
//! drive both the asymptotic op count and the tree-separable costs can
//! differ dramatically between orders (a mode with few distinct values
//! compresses the tree when stored near the root). Auto-schedulers in
//! this space (CoNST's format + schedule co-selection, SparseAuto's
//! loop-restructuring search) treat the storage order as part of the
//! plan; [`plan_mode_orders`] does the same here by running the full
//! Sec. 5 pipeline once per candidate order and keeping the winner.
//!
//! Orders are compared on the same ruler as contraction paths inside
//! [`plan`]: the executed [`Work`](crate::Work) of each order's planned
//! nest first, and among orders that tie on the least, the cost
//! model's [`TreeCost::rank`]; remaining ties keep the earliest
//! candidate, and an order that wins on work alone must undercut the
//! first candidate by a margin (`REORDER_MARGIN`), so the natural order
//! — always listed first — wins when nothing clearly beats it.
//! Candidate sets come from [`candidate_orders`]: exhaustive for up to
//! [`EXHAUSTIVE_ORDER_LIMIT`] modes (4! = 24 planner runs), pruned to a
//! small structured family above that.

use crate::planner::{choose, plan, PlannedNest};
use crate::tree_cost::TreeCost;
use crate::work::WorkCounts;
use spttn_ir::Kernel;
use spttn_tensor::SparsityProfile;

/// How the planner chooses the CSF storage order of the sparse input.
///
/// Carried on the facade's `PlanOptions` and — because every variant is
/// structural data — directly usable in plan-cache keys.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum ModeOrderPolicy {
    /// Keep the expression's written order (the historical behavior).
    #[default]
    Natural,
    /// Store the sparse tensor under this specific order: level `l` of
    /// the CSF holds the index written at position `order[l]` of the
    /// expression. `Fixed` of the identity permutation equals
    /// [`ModeOrderPolicy::Natural`].
    Fixed(Vec<usize>),
    /// Search candidate orders with [`plan_mode_orders`] and keep the
    /// cheapest: exhaustive for ≤ [`EXHAUSTIVE_ORDER_LIMIT`] modes,
    /// heuristic-pruned above.
    Auto,
}

/// Mode counts up to which [`candidate_orders`] enumerates every
/// permutation (`4! = 24`); above this the pruned family is used.
pub const EXHAUSTIVE_ORDER_LIMIT: usize = 4;

/// Factor by which a later candidate's executed work must undercut the
/// first candidate's (the natural order under `Auto`) to displace it on
/// work alone. `Work` sees neither the CSF re-sort a non-natural order
/// costs at bind nor locality, and between near-equal orders those
/// decide: on `mttkrp-hyper` (`benchmark/`, 1M nnz, rank 32) order
/// `(k,j,i)` models 8 % less work than natural and runs 1.07–1.3x
/// slower after a 0.44-s re-sort, while on `mttkrp-cube` `(j,k,i)`
/// models 17 % less and runs 16 % faster.
const REORDER_MARGIN: f64 = 1.10;

/// Per-candidate-order record of what the search saw, for plan
/// introspection ("why this order?").
#[derive(Debug, Clone, PartialEq)]
pub struct OrderCost {
    /// The candidate order (level `l` holds written position `order[l]`).
    pub order: Vec<usize>,
    /// Executed work of the best nest under this order — what orders
    /// are compared by — or `None` when no feasible nest exists for it.
    pub work: Option<WorkCounts>,
    /// Executed op count of that nest (`work`'s flop component).
    pub flops: Option<u128>,
    /// Debug rendering of the best nest's cost value (empty when
    /// infeasible).
    pub cost: String,
}

/// The winning order of a search: permuted kernel, the profile it was
/// scored on, its planned nest, and the full exploration record.
#[derive(Debug, Clone)]
pub struct OrderSearch<V> {
    /// Chosen order (a permutation of written positions).
    pub order: Vec<usize>,
    /// Kernel with the sparse input's written order permuted to match.
    pub kernel: Kernel,
    /// Sparsity profile the winning nest was planned against.
    pub profile: SparsityProfile,
    /// The winning nest.
    pub planned: PlannedNest<V>,
    /// Every candidate explored, in candidate order (natural first).
    pub explored: Vec<OrderCost>,
}

/// Candidate CSF orders for a sparse input whose written-order level
/// dimensions are `dims`, natural order always first.
///
/// Up to [`EXHAUSTIVE_ORDER_LIMIT`] modes: every permutation. Above:
/// a pruned family of `O(d)` structurally-distinct candidates — the
/// natural order, each single mode rotated to the root (root choice
/// dominates both tree compression and the parallel tiling), and the
/// dimension-sorted orders (ascending ≈ fewest distinct values near
/// the root, maximizing prefix compression; descending as its foil).
pub fn candidate_orders(dims: &[usize]) -> Vec<Vec<usize>> {
    let d = dims.len();
    let natural: Vec<usize> = (0..d).collect();
    if d <= 1 {
        return vec![natural];
    }
    let mut out: Vec<Vec<usize>> = Vec::new();
    let push = |o: Vec<usize>, out: &mut Vec<Vec<usize>>| {
        if !out.contains(&o) {
            out.push(o);
        }
    };
    push(natural.clone(), &mut out);
    if d <= EXHAUSTIVE_ORDER_LIMIT {
        let mut perm = natural.clone();
        permutations(&mut perm, 0, &mut |p| {
            if !out.contains(&p.to_vec()) {
                out.push(p.to_vec());
            }
        });
        return out;
    }
    // Pruned family for high-order tensors.
    for front in 0..d {
        let mut o = vec![front];
        o.extend((0..d).filter(|&m| m != front));
        push(o, &mut out);
    }
    let mut asc = natural.clone();
    asc.sort_by_key(|&l| (dims[l], l));
    push(asc.clone(), &mut out);
    let mut desc = natural;
    desc.sort_by_key(|&l| (std::cmp::Reverse(dims[l]), l));
    push(desc, &mut out);
    out
}

/// Recursive permutation enumeration (d ≤ 4, at most 24 leaves).
fn permutations(perm: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
    if k == perm.len() {
        f(perm);
        return;
    }
    for i in k..perm.len() {
        perm.swap(k, i);
        permutations(perm, k + 1, f);
        perm.swap(k, i);
    }
}

/// Run the Sec. 5 planning pipeline once per candidate order and return
/// the cheapest feasible outcome.
///
/// `kernel` is the kernel in its natural written order; each candidate
/// `σ` plans `kernel.permute_sparse_modes(σ)` against the profile
/// `profile_for(σ)` supplies (exact per-order counts when the caller
/// has the pattern, a model otherwise — returning `None` skips the
/// candidate). The winner is the order whose nest executes the least
/// work, the cost model deciding among exact ties on it and remaining
/// ties keeping the earlier candidate; a winner the cost model does not
/// prefer to the first feasible candidate must also model
/// `REORDER_MARGIN` less work than it, so the natural order is kept
/// unless another is clearly better. Returns `None` when no candidate
/// admits a feasible nest.
pub fn plan_mode_orders<C: TreeCost>(
    kernel: &Kernel,
    cost: &C,
    orders: &[Vec<usize>],
    mut profile_for: impl FnMut(&[usize]) -> Option<SparsityProfile>,
) -> Option<OrderSearch<C::Value>> {
    let mut explored: Vec<OrderCost> = Vec::with_capacity(orders.len());
    let mut found: Vec<OrderSearch<C::Value>> = Vec::new();
    for order in orders {
        let Ok(permuted) = kernel.permute_sparse_modes(order) else {
            continue;
        };
        let Some(profile) = profile_for(order) else {
            continue;
        };
        let planned = plan(&permuted, &profile, cost);
        explored.push(OrderCost {
            order: order.clone(),
            work: planned.as_ref().map(|p| p.work),
            flops: planned.as_ref().map(|p| p.flops),
            cost: planned
                .as_ref()
                .map(|p| format!("{:?}", p.value))
                .unwrap_or_default(),
        });
        if let Some(planned) = planned {
            found.push(OrderSearch {
                order: order.clone(),
                kernel: permuted,
                profile,
                planned,
                explored: Vec::new(),
            });
        }
    }
    let scored = found.iter().map(|f| (&f.planned.value, &f.planned.work));
    let mut chosen = choose(cost, scored)?;
    let (first, winner) = (&found[0].planned, &found[chosen].planned);
    // Scored at equal work, `rank` compares the models' values alone.
    let on_work_alone = cost
        .rank((&winner.value, &winner.work), (&first.value, &winner.work))
        .is_ge();
    if on_work_alone && winner.work.ns() * REORDER_MARGIN > first.work.ns() {
        chosen = 0;
    }
    let mut best = found.swap_remove(chosen);
    best.explored = explored;
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree_cost::MaxBufferSize;
    use spttn_ir::parse_kernel;

    fn uniform_for(
        dims: &[usize],
        nnz: u64,
    ) -> impl FnMut(&[usize]) -> Option<SparsityProfile> + '_ {
        move |order: &[usize]| {
            let permuted: Vec<usize> = order.iter().map(|&l| dims[l]).collect();
            let identity: Vec<usize> = (0..dims.len()).collect();
            SparsityProfile::uniform(&permuted, &identity, nnz).ok()
        }
    }

    #[test]
    fn candidates_exhaustive_small_orders() {
        assert_eq!(candidate_orders(&[5]), vec![vec![0]]);
        let c3 = candidate_orders(&[5, 6, 7]);
        assert_eq!(c3.len(), 6);
        assert_eq!(c3[0], vec![0, 1, 2]); // natural first
        let c4 = candidate_orders(&[5, 6, 7, 8]);
        assert_eq!(c4.len(), 24);
        // All distinct.
        for (a, i) in c4.iter().zip(0..) {
            assert!(!c4[i + 1..].contains(a));
        }
    }

    #[test]
    fn candidates_pruned_above_limit() {
        let dims = [50, 3, 40, 2, 60];
        let cands = candidate_orders(&dims);
        assert!(cands.len() < 120, "pruned family, got {}", cands.len());
        assert_eq!(cands[0], vec![0, 1, 2, 3, 4]); // natural first
                                                   // Dimension-ascending order present: dims sorted -> 3, 1, 2, 0, 4.
        assert!(cands.contains(&vec![3, 1, 2, 0, 4]));
        // Every mode appears as a root somewhere.
        for m in 0..dims.len() {
            assert!(cands.iter().any(|c| c[0] == m), "mode {m} never a root");
        }
        for c in &cands {
            let mut s = c.clone();
            s.sort_unstable();
            assert_eq!(s, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn search_prefers_compressing_root() {
        // MTTKRP on a sparse tensor with one tiny mode: pulling that
        // mode toward the root compresses the two-level prefix the
        // factorized schedule's second contraction iterates
        // (`nnz_{ki} < nnz_i · |k|` when the root level is not
        // saturated), so the uniform model gives non-natural orders
        // strictly less executed work.
        let dims = [50usize, 50, 4];
        let k = parse_kernel(
            "A(i,a) = T(i,j,k) * B(j,a) * C(k,a)",
            &[("i", 50), ("j", 50), ("k", 4), ("a", 8)],
        )
        .unwrap();
        let orders = candidate_orders(&dims);
        let found = plan_mode_orders(&k, &MaxBufferSize, &orders, uniform_for(&dims, 30)).unwrap();
        assert_ne!(found.order, vec![0, 1, 2], "natural order should lose");
        assert_eq!(found.explored.len(), orders.len());
        let natural = &found.explored[0];
        assert_eq!(natural.order, vec![0, 1, 2]);
        assert!(
            found.planned.work < natural.work.unwrap(),
            "chosen {} !< natural {}",
            found.planned.work,
            natural.work.unwrap()
        );
        // The permuted kernel stores the winning order.
        assert_eq!(found.kernel.csf_index_order().len(), 3);
        let profile_root_dim = found.profile.dims()[found.profile.mode_order()[0]];
        assert_eq!(profile_root_dim, dims[found.order[0]]);
    }

    #[test]
    fn ties_keep_natural_order() {
        // A fully symmetric problem: every order models identically, so
        // the tie-break must keep the natural order.
        let dims = [20usize, 20, 20];
        let k = parse_kernel(
            "S(i,j,k) = T(i,j,k) * U(i,r) * V(j,r) * W(k,r)",
            &[("i", 20), ("j", 20), ("k", 20), ("r", 4)],
        )
        .unwrap();
        let orders = candidate_orders(&dims);
        let found = plan_mode_orders(&k, &MaxBufferSize, &orders, uniform_for(&dims, 500)).unwrap();
        assert_eq!(found.order, vec![0, 1, 2]);
    }
}
