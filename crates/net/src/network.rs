//! Network description: parsing and structural validation.

use spttn::ir::{parse_expr, Kernel, KernelError, ParsedExpr, ParsedRef};
use spttn::{PlanCache, Result, Shapes, SpttnError};

use crate::plan::NetworkPlan;
use crate::planner::NetOptions;

/// Name prefix reserved for materialized intermediates (`_net{t}` for
/// the intermediate produced by path term `t`).
pub(crate) const INTER_PREFIX: &str = "_net";

/// A parsed tensor-network contraction: one sparse tensor (the first
/// right-hand-side factor) times arbitrarily many dense tensors with
/// shared indices, reduced to a single output.
///
/// Structure only — dimensions and sparsity arrive at [`Network::plan`]
/// time through [`Shapes`], mirroring the two-stage
/// [`Contraction`](spttn::Contraction) API.
#[derive(Debug, Clone)]
pub struct Network {
    expr: String,
    /// The parsed structure; input 0 is the sparse tensor.
    parsed: ParsedExpr,
}

impl Network {
    /// Parse an einsum-style network expression, e.g.
    /// `"T[i,j,k]*A[j,r]*B[k,r]*C[r,s] -> O[i,s]"` (or the `O[..] = ..`
    /// form). The first factor is the sparse tensor; every other factor
    /// is dense. Unlike [`Contraction`](spttn::Contraction), the dense
    /// factors may share indices among themselves that never touch the
    /// sparse tensor (chains, trees, rings). The grammar is
    /// [`spttn::ir::parse_expr`]'s, the same one the facade reads.
    pub fn parse(expr: &str) -> Result<Self> {
        let parsed = parse_expr(expr)?;
        let inputs = &parsed.inputs;
        for ParsedRef { name, .. } in inputs.iter().chain(std::iter::once(&parsed.output)) {
            if name.starts_with(INTER_PREFIX) {
                return Err(SpttnError::Kernel(KernelError::Parse(format!(
                    "tensor name '{name}' uses the reserved intermediate prefix '{INTER_PREFIX}'"
                ))));
            }
        }
        // The same name written twice with the same indices is one
        // shared operand (legal); with different indices it would make
        // by-name binding ambiguous.
        for (i, a) in inputs.iter().enumerate() {
            for b in &inputs[i + 1..] {
                if a.name == b.name && a.indices != b.indices {
                    return Err(SpttnError::Kernel(KernelError::Parse(format!(
                        "tensor '{}' appears twice with different indices ({:?} vs {:?})",
                        a.name, a.indices, b.indices
                    ))));
                }
            }
        }
        Ok(Network {
            expr: expr.to_string(),
            parsed,
        })
    }

    /// The original expression string.
    pub fn expr(&self) -> &str {
        &self.expr
    }

    /// True when execution accumulates into the bound output (`+=`).
    pub fn is_accumulate(&self) -> bool {
        self.parsed.accumulate
    }

    /// Index names written on the sparse tensor, in written (CSF
    /// storage) order.
    pub fn sparse_index_names(&self) -> Vec<String> {
        self.parsed.inputs[0].indices.clone()
    }

    /// All distinct index names, inputs first in first-appearance
    /// order. Drivers use this to know which dimensions need declaring.
    pub fn all_index_names(&self) -> Vec<String> {
        self.parsed.index_names()
    }

    /// Resolve the whole network into a single validated [`Kernel`]
    /// (every index dimension comes from `shapes`) through the shared
    /// lowering, [`ParsedExpr::lower`]. Path enumeration, cost
    /// modeling, and the naive-einsum oracle all operate on this
    /// kernel; the lowered execution never materializes it as one loop
    /// nest unless the chosen path puts every factor on the sparse
    /// spine.
    pub fn kernel(&self, shapes: &Shapes) -> Result<Kernel> {
        self.parsed.lower(|idx| shapes.require_dim(idx))
    }

    /// **Stage 1 — symbolic planning.** Search contraction orders under
    /// `opts`, lower the winner, and plan the collapsed sparse kernel
    /// with the Sec. 5 pipeline. The returned [`NetworkPlan`] can be
    /// bound to many operand sets.
    pub fn plan(&self, shapes: &Shapes, opts: &NetOptions) -> Result<NetworkPlan> {
        NetworkPlan::new(self, shapes, None, opts)
    }

    /// Like [`Network::plan`], but the per-step sparse-kernel plan is
    /// looked up in `cache` first (single-flight on a miss) — repeated
    /// sweeps over the same network re-plan nothing.
    pub fn plan_cached(
        &self,
        cache: &PlanCache,
        shapes: &Shapes,
        opts: &NetOptions,
    ) -> Result<NetworkPlan> {
        NetworkPlan::new(self, shapes, Some(cache), opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_multi_tensor_networks() {
        let n = Network::parse("T[i,j,k]*A[j,r]*B[k,r]*C[r,s] -> O[i,s]").unwrap();
        assert_eq!(n.sparse_index_names(), vec!["i", "j", "k"]);
        assert_eq!(n.all_index_names(), vec!["i", "j", "k", "r", "s"]);
        assert!(!n.is_accumulate());
    }

    #[test]
    fn rejects_reserved_intermediate_prefix() {
        let e = Network::parse("T[i,j]*_net0[j,k] -> O[i,k]");
        assert!(e.is_err(), "reserved prefix must be rejected");
    }

    #[test]
    fn rejects_conflicting_duplicate_names() {
        let e = Network::parse("T[i,j]*A[j,k]*A[k] -> O[i]");
        assert!(e.is_err());
        // Identical duplicates are one shared operand.
        assert!(Network::parse("T[i,j]*A[j,r]*A[j,r] -> O[i]").is_ok());
    }

    #[test]
    fn rejects_output_only_index() {
        let e = Network::parse("T[i,j]*A[j,r] -> O[i,z]");
        assert!(e.is_err(), "output index bound by no input");
    }

    #[test]
    fn kernel_requires_all_dims() {
        let n = Network::parse("T[i,j]*A[j,r] -> O[i,r]").unwrap();
        let missing = Shapes::new().with_dims(&[("i", 4), ("j", 5)]);
        assert!(n.kernel(&missing).is_err());
        let full = missing.with_dim("r", 3);
        let k = n.kernel(&full).unwrap();
        assert_eq!(k.inputs.len(), 2);
        assert_eq!(k.sparse_input, 0);
    }
}
