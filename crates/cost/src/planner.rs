//! The SpTTN-Cyclops planning pipeline (paper Sec. 5), with every nest
//! charged for what it executes.
//!
//! The paper ranks contraction paths by leading-order op count and only
//! then looks at loop nests, on the premise that every nest of a path
//! costs that path's op count. Here a nest can execute many times its
//! path's count (see [`crate::work`]), so the quantity paths are tiered
//! on is the executed [`Work`](crate::Work) of each path's best nest:
//!
//! 1. Enumerate contraction paths in ascending ideal op count
//!    ([`ContractionPath::flops`]). Paths whose counts tie exactly form
//!    a *tier*, as in the paper.
//! 2. Per path (at most 64 per tier), run the Algorithm-1 DP under the
//!    configured tree-separable cost — the model's own value, ties
//!    broken by `Work` ([`TreeCost::rank`]) — and keep the feasible
//!    winners. Infeasible paths are skipped, which is the paper's
//!    fallback to costlier tiers. Stop as soon as the next path's ideal
//!    count — a lower bound on the `Work` of all of its nests — exceeds
//!    the best `Work` found, or after 16 tiers.
//! 3. Among the winners that tie exactly on the least `Work`, choose by
//!    [`TreeCost::rank`]; earlier (cheaper-path) winners keep ties.
//!
//! The two search limits are constants: no caller ever set them.

use crate::dp::optimal_order;
use crate::tree_cost::TreeCost;
use crate::work::WorkCounts;
use spttn_ir::{enumerate_paths, ContractionPath, Kernel, NestSpec};
use spttn_tensor::SparsityProfile;

/// Maximum number of paths the DP runs on per cost tier.
const MAX_PATHS_PER_TIER: usize = 64;
/// Maximum number of tiers explored before giving up.
const MAX_TIERS: usize = 16;

/// A planned loop nest: path, loop orders, and costs.
#[derive(Debug, Clone)]
pub struct PlannedNest<V> {
    /// Chosen contraction path.
    pub path: ContractionPath,
    /// Chosen loop orders.
    pub spec: NestSpec,
    /// Tree-separable cost value of the nest.
    pub value: V,
    /// Executed work of the nest under the profile.
    pub work: WorkCounts,
    /// Executed scalar op count of the nest ([`WorkCounts::flops`]).
    pub flops: u128,
    /// Leading-order scalar op count of the path
    /// ([`ContractionPath::flops`]) — what `flops` would be if every
    /// term ran under its longest sparse prefix.
    pub ideal_flops: u128,
    /// Which ideal-op-count tier (0 = asymptotically optimal) the path
    /// came from.
    pub tier: usize,
}

/// Index of the nest to run among `work`-scored candidates: among
/// exact ties on the least executed work, the [`TreeCost::rank`]
/// minimum; the earliest candidate keeps ties. Shared by the path
/// choice of [`plan`] and the CSF-order choice of
/// [`plan_mode_orders`](crate::plan_mode_orders).
pub(crate) fn choose<'a, C: TreeCost>(
    cost: &C,
    candidates: impl Iterator<Item = (&'a C::Value, &'a WorkCounts)> + Clone,
) -> Option<usize>
where
    C::Value: 'a,
{
    let least = candidates
        .clone()
        .map(|(_, w)| w.ns())
        .min_by(f64::total_cmp)?;
    candidates
        .enumerate()
        .filter(|(_, (_, w))| w.ns() <= least)
        .min_by(|(_, a), (_, b)| cost.rank(*a, *b))
        .map(|(i, _)| i)
}

/// Plan a kernel: choose contraction path and loop orders minimizing
/// executed work and then `cost` (see the [module docs](self)).
pub fn plan<C: TreeCost>(
    kernel: &Kernel,
    profile: &SparsityProfile,
    cost: &C,
) -> Option<PlannedNest<C::Value>> {
    let mut paths: Vec<(u128, ContractionPath)> = enumerate_paths(kernel)
        .into_iter()
        .map(|p| (p.flops(kernel, profile), p))
        .collect();
    paths.sort_by_key(|(f, _)| *f);

    let mut winners: Vec<PlannedNest<C::Value>> = Vec::new();
    let mut least_ns = f64::INFINITY;
    let (mut tier, mut leader, mut in_tier) = (0usize, paths.first()?.0, 0usize);
    for (ideal, path) in paths {
        if ideal > leader {
            (tier, leader, in_tier) = (tier + 1, ideal, 0);
        }
        if tier >= MAX_TIERS || WorkCounts::floor_ns(ideal) > least_ns {
            break;
        }
        in_tier += 1;
        if in_tier > MAX_PATHS_PER_TIER {
            continue;
        }
        let Some(r) = optimal_order(kernel, &path, profile, cost) else {
            continue;
        };
        if !cost.is_feasible(&r.value) {
            continue;
        }
        least_ns = least_ns.min(r.work.ns());
        winners.push(PlannedNest {
            path,
            spec: r.spec,
            value: r.value,
            work: r.work,
            flops: r.work.executed_flops(),
            ideal_flops: ideal,
            tier,
        });
    }
    let chosen = choose(cost, winners.iter().map(|w| (&w.value, &w.work)))?;
    Some(winners.swap_remove(chosen))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{BlasAware, BlasValue};
    use crate::tree_cost::{MaxBufferDim, MaxBufferSize};
    use spttn_ir::parse_kernel;

    fn profile(dims: &[usize], nnz: u64) -> SparsityProfile {
        let order: Vec<usize> = (0..dims.len()).collect();
        SparsityProfile::uniform(dims, &order, nnz).unwrap()
    }

    #[test]
    fn ttmc_planner_picks_sparse_first_path() {
        let k = parse_kernel(
            "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
            &[("i", 64), ("j", 64), ("k", 64), ("r", 16), ("s", 16)],
        )
        .unwrap();
        let prof = profile(&[64, 64, 64], 4000);
        let plan = plan(&k, &prof, &MaxBufferDim).unwrap();
        assert_eq!(plan.tier, 0);
        // The asymptotically optimal path contracts T first.
        assert_eq!(plan.path.sparse_term, 0);
        assert_eq!(plan.value, 0); // scalar buffer achievable
    }

    #[test]
    fn mttkrp_planner_factorizes() {
        // The planner must discover the factorize-and-fuse schedule that
        // beats the unfactorized op count (paper Sec. 2.4.2).
        let k = parse_kernel(
            "A(i,a) = T(i,j,k) * B(j,a) * C(k,a)",
            &[("i", 40), ("j", 40), ("k", 40), ("a", 16)],
        )
        .unwrap();
        let prof = profile(&[40, 40, 40], 4000);
        let plan = plan(&k, &prof, &MaxBufferSize).unwrap();
        let nnz = prof.prefix_nnz(3) as u128;
        let nnz_ij = prof.prefix_nnz(2) as u128;
        assert_eq!(plan.ideal_flops, 2 * nnz * 16 + 2 * nnz_ij * 16);
        // Every loop over a sparse mode runs on the CSF: the nest
        // executes exactly its path's ideal count.
        assert_eq!(plan.flops, plan.ideal_flops);
        // Buffer for the factorized fused nest is one factor row.
        assert!(plan.value <= 16);
    }

    /// On a dense-fiber cube the Khatri-Rao path has the fewest flops
    /// (tier 0) but, under the buffer bound, only nests that hoist `a`
    /// above the sparse root: one CSF walk per trip. Tiering on executed
    /// work instead of path flops takes the factorized path of the next
    /// tier — one walk, AXPY leaves.
    #[test]
    fn executed_work_outranks_path_flops() {
        let k = parse_kernel(
            "A(i,a) = T(i,j,k) * B(j,a) * C(k,a)",
            &[("i", 64), ("j", 12), ("k", 12), ("a", 16)],
        )
        .unwrap();
        let prof = profile(&[64, 12, 12], 6000);
        let mut by_flops = enumerate_paths(&k);
        by_flops.sort_by_key(|p| p.flops(&k, &prof));
        assert_ne!(by_flops[0].sparse_term, 0, "tier 0 is the KRP path");

        let cost = BlasAware::default();
        let krp = optimal_order(&k, &by_flops[0], &prof, &cost).unwrap();
        assert!(cost.is_feasible(&krp.value));
        assert_eq!(krp.work.walks, 16.0);

        let plan = plan(&k, &prof, &cost).unwrap();
        assert_eq!(plan.tier, 1);
        assert_eq!(plan.path.sparse_term, 0);
        assert_eq!(plan.work.walks, 1.0);
        assert!(plan.flops > by_flops[0].flops(&k, &prof));
        assert!(plan.work.ns() * 5.0 < krp.work.ns());
    }

    #[test]
    fn blas_metric_feasible_plan() {
        let k = parse_kernel(
            "S(i,r,s,t) = T(i,j,k,l) * U(j,r) * V(k,s) * W(l,t)",
            &[
                ("i", 16),
                ("j", 16),
                ("k", 16),
                ("l", 16),
                ("r", 8),
                ("s", 8),
                ("t", 8),
            ],
        )
        .unwrap();
        let prof = profile(&[16; 4], 1000);
        let cost = BlasAware {
            buffer_dim_bound: 2,
        };
        let plan = plan(&k, &prof, &cost).unwrap();
        let BlasValue::Feasible { blas, .. } = plan.value else {
            panic!("expected feasible plan");
        };
        // Fig. 6's nest offers 6 BLAS loops; the planner must find at
        // least that many.
        assert!(blas >= 6, "blas = {blas}");
    }

    #[test]
    fn infeasible_bound_falls_back_or_fails_cleanly() {
        let k = parse_kernel(
            "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
            &[("i", 16), ("j", 16), ("k", 16), ("r", 4), ("s", 4)],
        )
        .unwrap();
        let prof = profile(&[16; 3], 300);
        // Bound 0 forces scalar buffers; TTMc admits one (Listing 4), so
        // the plan stays in tier 0.
        let cost = BlasAware {
            buffer_dim_bound: 0,
        };
        let plan0 = plan(&k, &prof, &cost).unwrap();
        assert!(cost.is_feasible(&plan0.value));
    }

    #[test]
    fn tttp_plan_exists_and_prunes() {
        let k = parse_kernel(
            "S(i,j,k) = T(i,j,k) * U(i,r) * V(j,r) * W(k,r)",
            &[("i", 32), ("j", 32), ("k", 32), ("r", 8)],
        )
        .unwrap();
        let prof = profile(&[32; 3], 2000);
        let plan = plan(&k, &prof, &MaxBufferSize).unwrap();
        let nnz = prof.prefix_nnz(3) as u128;
        // All terms should run under the sparse descent: op count is
        // O(nnz * R), nowhere near the dense I*J*R.
        assert!(plan.flops <= 8 * nnz * 8, "flops = {}", plan.flops);
    }
}
