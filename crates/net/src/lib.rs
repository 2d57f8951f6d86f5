//! Tensor-network contraction sequencing over the SpTTN planner.
//!
//! The core `spttn` crate plans and executes *one* SpTTN kernel: a
//! sparse tensor times a set of dense factors. Real workloads (CP-ALS
//! sweeps, Tucker/tensor-train contractions, quantum-circuit-shaped
//! networks) are *sequences* of pairwise contractions over many
//! tensors. This crate adds that layer:
//!
//! 1. [`Network::parse`] accepts an einsum expression with arbitrarily
//!    many tensors sharing indices (first input sparse, rest dense).
//! 2. [`Network::plan`] searches pairwise contraction orders — greedy,
//!    or a budgeted cost-capped exact subset sweep in the style of
//!    Pfeifer et al.'s netcon ([`OrderStrategy::Optimal`]) — under the
//!    materialization-aware cost model of [`modeled_path_flops`].
//! 3. The chosen order is lowered ([`NetworkPlan`]): pairwise steps
//!    that do not involve the sparse operand become materialized dense
//!    steps (loop nests whose innermost loop is one of the tape's
//!    microkernels), while every step along the sparse *spine*
//!    collapses into a single SpTTN kernel that the Sec. 5 planner
//!    re-optimizes (loop nest, mode order, buffers) — optionally
//!    through a shared [`spttn::PlanCache`].
//! 4. [`NetworkPlan::bind`] produces a [`NetworkExecutor`] whose
//!    steady-state `execute_into` is allocation-free; intermediate
//!    workspaces can be checked out of a [`WorkspacePool`] shared by
//!    many executors across threads.
//!
//! ```
//! use spttn::{Shapes, Threads};
//! use spttn_net::{NetOptions, Network, OrderStrategy};
//!
//! // One CP-ALS factor update: T contracted with two factor matrices
//! // and a dense mixing matrix.
//! let net = Network::parse("T[i,j,k]*B[j,r]*C[k,r]*M[r,s] -> A[i,s]").unwrap();
//! let shapes = Shapes::new()
//!     .with_dims(&[("i", 30), ("j", 20), ("k", 25), ("r", 8), ("s", 8)])
//!     .with_nnz(500);
//! let opts = NetOptions::default().with_order(OrderStrategy::Optimal);
//! let plan = net.plan(&shapes, &opts).unwrap();
//! assert!(plan.report().chosen_flops <= plan.report().greedy_flops);
//! # let _ = Threads::Auto;
//! ```

#![forbid(unsafe_code)]

mod exec;
mod network;
mod plan;
mod planner;

// The golden networks the root suites run, shared with this crate's
// unit tests (the file names this crate from outside).
#[cfg(test)]
extern crate self as spttn_net;
#[cfg(test)]
#[path = "../../../tests/common/networks.rs"]
mod networks;

pub use exec::NetworkExecutor;
pub use network::Network;
pub use plan::{NetworkPlan, WorkspacePool};
pub use planner::{modeled_path_flops, NetOptions, OrderStrategy, SearchReport};
