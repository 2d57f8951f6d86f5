//! # spttn-cost
//!
//! Cost models and search algorithms for SpTTN loop nests (paper
//! Sec. 4):
//!
//! - [`TreeCost`]: tree-separable cost functions `(φ, ⊕)` — Def. 4.4.
//! - [`MaxBufferDim`] / [`MaxBufferSize`]: Def. 4.5 buffer metrics.
//! - [`CacheMiss`]: Def. 4.6 cache-miss model.
//! - [`BlasAware`]: the Sec. 5 evaluation metric (max independent dense
//!   loops under a buffer-dimension bound).
//! - [`Work`]: what a nest makes the executor do — sparse node visits,
//!   tape steps, vector lanes, executed flops. Never configured: it is
//!   the tie-break under every model above ([`TreeCost::rank`]) and the
//!   quantity paths and CSF orders are compared on.
//! - [`optimal_order`]: Algorithm 1 — `O(N³·2^m·m)` dynamic program.
//! - [`exhaustive_search`] / [`all_nest_costs`]: the factorial-size
//!   enumeration, for autotuning and cross-checking.
//! - [`plan`]: the full Sec. 5 pipeline (DP per path in ascending op
//!   count, least executed work wins, infeasible paths fall through).
//! - [`plan_mode_orders`]: the CSF storage-order search layered on top
//!   of [`plan`] — one pipeline run per candidate order
//!   ([`candidate_orders`]), winners compared like paths are;
//!   [`ModeOrderPolicy`] is the knob the facade exposes.

// Cost modeling and search are pure computation: no unsafe code, ever.
#![forbid(unsafe_code)]

pub mod blas;
pub mod cache;
pub mod dp;
pub mod eval;
pub mod exhaustive;
pub mod orders;
pub mod planner;
pub mod tree_cost;
pub mod work;

pub use blas::{BlasAware, BlasValue};
pub use cache::CacheMiss;
pub use dp::{optimal_order, SearchResult};
pub use eval::eval_forest;
pub use exhaustive::{all_nest_costs, exhaustive_search, ExhaustiveResult};
pub use orders::{
    candidate_orders, plan_mode_orders, ModeOrderPolicy, OrderCost, OrderSearch,
    EXHAUSTIVE_ORDER_LIMIT,
};
pub use planner::{plan, PlannedNest};
pub use tree_cost::{MaxBufferDim, MaxBufferSize, TreeCost, VertexCtx};
pub use work::{Work, WorkCounts};
