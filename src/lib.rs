//! # spttn
//!
//! Minimum-cost loop nests for contraction of a sparse tensor with a
//! tensor network (SPAA 2024), as a two-stage pipeline: **plan once on
//! structure, execute many times on data**.
//!
//! - **Stage 1 (symbolic):** [`Contraction::parse`] reads an
//!   einsum-style expression; [`Contraction::plan`] runs the Sec. 5
//!   planner against a data-independent [`Shapes`] description under a
//!   selectable cost model ([`CostModel`]). The resulting [`Plan`]
//!   holds kernel, contraction path, loop orders, fused forest, and
//!   buffer specs — no tensors.
//! - **Stage 2 (bound):** [`Plan::bind`] attaches a CSF sparse input
//!   and named dense factors, yielding an [`Executor`] whose
//!   preallocated workspace makes [`Executor::execute_into`]
//!   allocation-free. [`Executor::set_factor`] and
//!   [`Executor::set_sparse_values`] rebind values in place for
//!   iterative algorithms (CP-ALS, HOOI). With
//!   [`ExecOptions`]`{ threads: `[`Threads::Auto`]` }` (or `N(k)`),
//!   binding tiles the CSF root level and executions fan out over a
//!   persistent thread pool with deterministic reduction — same ≤1e-9
//!   agreement with the reference, bit-reproducible at a fixed thread
//!   count, still zero allocations per call.
//! - **Mode-order search:** the CSF storage order is part of the plan.
//!   [`PlanOptions::mode_order`] takes a
//!   [`ModeOrderPolicy`] — `Natural` (written order), `Fixed` (a
//!   specific permutation), or `Auto`, which replans per candidate
//!   order and keeps the cheapest ([`Plan::mode_order`] /
//!   [`Plan::order_costs`] expose the outcome). Give
//!   [`Shapes::with_pattern`] the coordinate pattern for exact
//!   per-order fiber counts; [`Plan::bind`] re-sorts a written-order
//!   CSF into the chosen order automatically.
//! - [`PlanCache`] keys plans by [`PlanKey`] (kernel structure, mode
//!   dims, sparsity summary, cost model, mode-order policy) so
//!   repeated builds of the same contraction skip the planning DP
//!   entirely; concurrent misses on one key are single-flight.
//!
//! There is one way in — parse → plan → bind → execute — and one engine
//! behind it: [`Plan::bind`] compiles the nest to an instruction tape
//! ([`CompiledTape`]) that every execution replays. The test suites
//! hold it to committed digests of its output bits and dispatch counts
//! (`crates/exec/tests/tape_digests.txt`, see README's *Determinism
//! contract*) and to a naive dense oracle ([`exec::naive_einsum`]).
//!
//! ```
//! use rand::prelude::*;
//! use spttn::{Contraction, CostModel, PlanOptions, Shapes};
//! use spttn_tensor::{random_coo, random_dense, Csf};
//!
//! // Stage 1 — plan from structure only (no tensors needed).
//! let plan = Contraction::parse("T[i,j,k]*A[j,r]*B[k,r]->O[i,r]")
//!     .unwrap()
//!     .plan(
//!         &Shapes::new()
//!             .with_dims(&[("i", 30), ("j", 20), ("k", 25), ("r", 8)])
//!             .with_nnz(200),
//!         &PlanOptions::with_cost_model(CostModel::MaxBufferSize),
//!     )
//!     .unwrap();
//!
//! // Stage 2 — bind data, then execute many times (ALS-sweep shape).
//! let mut rng = StdRng::seed_from_u64(7);
//! let coo = random_coo(&[30, 20, 25], 200, &mut rng).unwrap();
//! let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
//! let (a, b) = (random_dense(&[20, 8], &mut rng), random_dense(&[25, 8], &mut rng));
//!
//! let mut exec = plan.bind(csf, &[("A", &a), ("B", &b)]).unwrap();
//! let mut out = exec.output_template();
//! for _sweep in 0..4 {
//!     exec.set_factor("A", &random_dense(&[20, 8], &mut rng)).unwrap();
//!     exec.execute_into(&mut out).unwrap(); // zero heap allocations
//! }
//! assert_eq!(out.to_dense().dims(), &[30, 8]);
//! ```

// The facade only re-exports and composes the crates below; all
// unsafe code in the workspace lives in `spttn_exec::parallel`
// (pool job-slot lifetime erasure) and `spttn_exec::simd` (vendor
// SIMD intrinsics behind bind-time feature detection).
#![forbid(unsafe_code)]

pub mod cache;
pub mod contraction;
pub mod executor;

pub use cache::{PlanCache, PlanKey};
pub use contraction::{
    Contraction, CostModel, ExecOptions, Plan, PlanOptions, RunBudget, Shapes, Threads,
};
pub use executor::{check_factor_names, Executor};
pub use spttn_core::{Result, Scalar, SpttnError};
pub use spttn_cost::{ModeOrderPolicy, OrderCost};
pub use spttn_exec::{
    CancelToken, CompiledTape, ContractionOutput, ExecStats, Microkernels, RunGuard,
    TapeInvariantError, TapeReport,
};

/// Cost models and loop-order search (re-export of `spttn-cost`).
pub use spttn_cost as cost;
/// Execution subsystem (re-export of `spttn-exec`).
pub use spttn_exec as exec;
/// Kernel IR, paths, orders, forests (re-export of `spttn-ir`).
pub use spttn_ir as ir;
/// Tensor formats and generators (re-export of `spttn-tensor`).
pub use spttn_tensor as tensor;
