//! # spttn-ir
//!
//! Intermediate representation for SpTTN kernels — the formal core of
//! *"Minimum Cost Loop Nests for Contraction of a Sparse Tensor with a
//! Tensor Network"* (SPAA 2024):
//!
//! - [`Kernel`]: an einsum-style SpTTN specification (one sparse input,
//!   dense factors, dense or pattern-sharing output) — Sec. 3.
//! - [`ContractionPath`] / [`enumerate_paths`]: ordered pairwise
//!   contraction sequences with sparse-lineage tracking — Def. 3.1,
//!   Sec. 4.1.1.
//! - [`NestSpec`] / [`NestSpecIter`]: per-term loop orders restricted to
//!   CSF storage order — Def. 3.2, Sec. 4.1.2.
//! - [`LoopForest`] / [`build_forest`]: fully-fused loop-nest forests
//!   via peeling, with sparse/dense vertex classification — Defs.
//!   4.1–4.3.
//! - [`BufferSpec`] / [`buffers_for_forest`] / [`ContractionPath::splits`]:
//!   the one statement of Eq. 5's split rule: the sibling list where an
//!   intermediate buffer splits, whose enclosing loops are its
//!   producer–consumer common ancestors. It sizes what a bind allocates,
//!   places the tape's zeroes and sets what the cost models price.
//! - [`LeafOp`] / [`Term::leaf_op`] / [`LoopVertex::leaf_loops`]: the one
//!   statement of which dense loops become a microkernel call and which
//!   operand plays which role — Sec. 5's BLAS hand-off ([`lower`]) —
//!   and, with [`fused_loop`], which sparse loops run as one instruction.

// The IR is pure symbolic manipulation: no unsafe code, ever.
#![forbid(unsafe_code)]

pub mod buffer;
pub mod fuse;
pub mod index;
pub mod kernel;
pub mod lower;
pub mod order;
pub mod parse;
pub mod path;
pub mod stdkernels;

pub use buffer::{buffers_for_forest, total_buffer_size, BufferSpec};
pub use fuse::{
    build_forest, vertex_kind, FuseError, LoopForest, LoopNode, LoopVertex, VertexKind,
};
pub use index::{IdxSet, IndexId, IndexInfo, MAX_INDICES};
pub use kernel::{Kernel, KernelBuilder, KernelError, TensorRef};
pub use lower::{fused_loop, LeafOp, Side};
pub use order::{
    count_orders, lineage_in_csf_order, order_is_valid, orders_for_term, LoopOrder, NestSpec,
    NestSpecIter,
};
pub use parse::{parse_expr, parse_kernel, ParsedExpr, ParsedRef};
pub use path::{
    contract_pair, enumerate_paths, leaf_items, pair_term, path_from_picks, prefix_flops,
    ContractionPath, Operand, PathItem, Term,
};
