//! Exhaustive loop-order search (paper Sec. 4.1.2).
//!
//! Enumerates every CSF-consistent loop order combination for a path,
//! builds the fused forest, and evaluates the cost directly. Exponential
//! — `Π |I_i|!/k_i!` nests — but exact; it backs the paper's autotuning
//! story (Fig. 10's loop-order sweep) and cross-checks the DP.

use crate::eval::eval_forest;
use crate::tree_cost::TreeCost;
use crate::work::{Work, WorkCounts};
use spttn_ir::{build_forest, ContractionPath, Kernel, NestSpec, NestSpecIter};
use spttn_tensor::SparsityProfile;

/// Result of an exhaustive search.
#[derive(Debug, Clone)]
pub struct ExhaustiveResult<V> {
    /// Minimal cost value found.
    pub value: V,
    /// Executed work of the chosen nest (the [`TreeCost::rank`]
    /// tie-break among nests of equal `value`).
    pub work: WorkCounts,
    /// A spec achieving it.
    pub spec: NestSpec,
    /// Number of valid nests evaluated.
    pub evaluated: usize,
    /// Number of specs rejected as invalid (broken sparse descent).
    pub invalid: usize,
}

/// Search every valid nest of `path`, returning the [`TreeCost::rank`]
/// minimum.
pub fn exhaustive_search<C: TreeCost>(
    kernel: &Kernel,
    path: &ContractionPath,
    profile: &SparsityProfile,
    cost: &C,
) -> Option<ExhaustiveResult<C::Value>> {
    let mut best: Option<(C::Value, WorkCounts, NestSpec)> = None;
    let mut evaluated = 0usize;
    let mut invalid = 0usize;
    for spec in NestSpecIter::new(kernel, path) {
        let Ok(forest) = build_forest(kernel, path, &spec) else {
            invalid += 1;
            continue;
        };
        let v = eval_forest(kernel, path, profile, &forest, cost);
        let w = eval_forest(kernel, path, profile, &forest, &Work);
        evaluated += 1;
        let better = match &best {
            None => true,
            Some((bv, bw, _)) => cost.rank((&v, &w), (bv, bw)).is_lt(),
        };
        if better {
            best = Some((v, w, spec));
        }
    }
    best.map(|(value, work, spec)| ExhaustiveResult {
        value,
        work,
        spec,
        evaluated,
        invalid,
    })
}

/// Evaluate every valid nest, returning `(spec, value)` pairs — the raw
/// material of the paper's Fig. 10 loop-order sweep.
pub fn all_nest_costs<C: TreeCost>(
    kernel: &Kernel,
    path: &ContractionPath,
    profile: &SparsityProfile,
    cost: &C,
) -> Vec<(NestSpec, C::Value)> {
    let mut out = Vec::new();
    for spec in NestSpecIter::new(kernel, path) {
        if let Ok(forest) = build_forest(kernel, path, &spec) {
            let v = eval_forest(kernel, path, profile, &forest, cost);
            out.push((spec, v));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree_cost::{MaxBufferDim, MaxBufferSize};
    use spttn_ir::{parse_kernel, path_from_picks};

    #[test]
    fn counts_and_minimum_for_ttmc() {
        let k = parse_kernel(
            "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
            &[("i", 10), ("j", 11), ("k", 12), ("r", 4), ("s", 5)],
        )
        .unwrap();
        let p = path_from_picks(&k, &[(0, 2), (0, 1)]);
        let prof = SparsityProfile::uniform(&[10, 11, 12], &[0, 1, 2], 100).unwrap();
        let r = exhaustive_search(&k, &p, &prof, &MaxBufferDim).unwrap();
        // 4 * 12 = 48 specs total; all are valid for this path.
        assert_eq!(r.evaluated + r.invalid, 48);
        assert_eq!(r.value, 0); // Listing 4's scalar buffer
    }

    #[test]
    fn invalid_specs_are_skipped_when_descent_breaks() {
        // A pre-sparse term whose consumer lies *outside* a fused range
        // covering the sparse term is non-prunable: fusing it under the
        // sparse index i breaks the descent and must be rejected.
        let k = parse_kernel(
            "S(i,j) = T(i,j) * A(i,r) * B(i,r) * C(i,r)",
            &[("i", 10), ("j", 10), ("r", 4)],
        )
        .unwrap();
        // Path: (A*B)->X0(i,r) consumed by term 2; (T*C)->X1(i,j,r);
        // (X0*X1)->S. Fusing t0 and t1 at i is invalid because t0's
        // consumer (t2) escapes the covered range.
        let p = path_from_picks(&k, &[(1, 2), (0, 1), (0, 1)]);
        let prof = SparsityProfile::uniform(&[10, 10], &[0, 1], 30).unwrap();
        let r = exhaustive_search(&k, &p, &prof, &MaxBufferSize).unwrap();
        assert!(r.invalid > 0, "expected some invalid specs");
        assert!(r.evaluated > 0);
    }

    #[test]
    fn all_costs_has_spread() {
        let k = parse_kernel(
            "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
            &[("i", 10), ("j", 11), ("k", 12), ("r", 4), ("s", 5)],
        )
        .unwrap();
        let p = path_from_picks(&k, &[(0, 2), (0, 1)]);
        let prof = SparsityProfile::uniform(&[10, 11, 12], &[0, 1, 2], 100).unwrap();
        let all = all_nest_costs(&k, &p, &prof, &MaxBufferSize);
        let min = all.iter().map(|(_, v)| *v).min().unwrap();
        let max = all.iter().map(|(_, v)| *v).max().unwrap();
        assert!(min < max, "loop order should matter: {min} vs {max}");
    }
}
