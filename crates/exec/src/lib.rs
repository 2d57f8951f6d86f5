//! # spttn-exec
//!
//! Execution subsystem for SpTTN loop nests. One engine runs a plan:
//! the compiled **tape** ([`tape`]). [`CompiledTape`] lowers a planned
//! [`spttn_ir::LoopForest`] once, at bind time, into a flat instruction
//! program — loop dispatch, BLAS-style microkernel selection (paper
//! Sec. 5) and operand addressing all resolved at compile time, every
//! sparse loop stepping down from the CSF node its enclosing sparse
//! loop stands on (no node is ever searched for) — and
//! an iterative driver replays it over a CSF sparse tensor and dense
//! factors with zero allocations and zero atomics on the hot path.
//!
//! - [`ParallelExecutor`] ([`parallel`]) is the one way a bound plan
//!   runs: the CSF root level is partitioned into leaf-balanced tiles
//!   ([`spttn_tensor::Csf::partition`]), tile 0 runs on the calling
//!   thread straight into the caller-owned output ([`OutputMut`]), and
//!   tiles 1… run on a persistent worker pool into private partials
//!   combined through a deterministic tree reduction
//!   ([`tree_reduce_partials`]). One thread is one tile — no worker, no
//!   partial — with the same cancellation, panic isolation, stats and
//!   zero-allocation contract as any other count. All Eq.-5
//!   intermediate buffers live in one preallocated [`Workspace`] per
//!   tile.
//! - [`execute_tape_into`] and [`execute_tape_tile_into`] are the thin
//!   unguarded wrappers over the same driver — whole tree, or one
//!   [`spttn_tensor::CsfTile`] — for benches and tests that time or
//!   check the tape without an engine around it.
//!
//! The [`simd`] module supplies the microkernel tiers (AVX-512F and
//! AVX2+FMA on x86_64, scalar everywhere) selected **once at bind time**
//! and recorded in the tape as function pointers — one per kernel
//! family, which picks its unrolled fixed-rank body from its own trip
//! count at each call — plus the assigning kernels behind the
//! superinstructions the tape compiler emits at every tier (assigning
//! calls that replace a zero point, and fused sparse-AXPY and
//! sparse-DOT loops).
//!
//! Three things exist only to check the tape: [`tape::verify`]
//! statically proves every compiled tape well-formed (loop structure,
//! cursor bounds, Eq.-5 zero placement, node tracking) before it ever
//! runs; the reference interpreter ([`interp::execute_forest_into`])
//! walks the forest directly, serially and over the whole tree, and is
//! the bitwise twin of a scalar-kernel tape that the differential
//! suites compare against; and a brute-force dense einsum oracle
//! ([`naive_einsum`]) backs both.
//!
//! The [`guard`] module hardens all of this for long-lived services:
//! a [`CancelToken`]/[`RunGuard`] pair gives the tape cooperative
//! cancellation and deadlines with checkpoints at root-iteration
//! boundaries, the engine isolates a panicking tile — the caller's own
//! tile 0 included — behind `catch_unwind` and respawns dead workers,
//! and [`faults`] injects deterministic tile panics and thread deaths so
//! the recovery paths stay tested.

// Unsafe code in the workspace lives in [`parallel`] (pool job-slot
// lifetime erasure) and [`simd`] (calls into `#[target_feature]`
// kernels behind bind-time feature detection, and the DOT/GEMV
// intrinsics); every unsafe operation inside an unsafe fn must carry
// its own block.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod blas;
pub mod faults;
pub mod guard;
pub mod interp;
pub mod parallel;
pub mod reference;
pub mod simd;
pub mod tape;
pub mod workspace;

pub use guard::{CancelToken, RunGuard};
pub use parallel::{tree_reduce_partials, ParallelExecutor};
pub use reference::naive_einsum;
pub use simd::{detected_cpu_features, KernelSel, KernelSet, Microkernels, RankSpec};
pub use tape::verify::{TapeInvariantError, TapeReport};
pub use tape::{execute_tape_into, execute_tape_tile_into, CompiledTape, TapeState};
pub use workspace::{
    validate_output, validate_slotted_operands, ContractionOutput, ExecStats, OutputMut, Workspace,
};
