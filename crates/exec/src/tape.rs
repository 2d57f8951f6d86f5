//! Bind-time compilation of loop forests to a flat instruction tape.
//!
//! Walking a planned [`LoopForest`] directly would, on every vertex
//! visit, re-match node variants, ask the lowering rule again whether
//! the vertex is a microkernel call, and recompute strided offsets from
//! scratch. All of those decisions depend only on the *plan*, not on
//! the data — so [`CompiledTape::compile_with`] makes each of them
//! exactly once,
//! lowering `(Kernel, ContractionPath, LoopForest)` into a flat
//! `Vec<Instr>` program that the tile-parametric driver replays per
//! execution.
//!
//! # Instruction set
//!
//! - `Zero { term }` — reset a term's Eq.-5 buffer in front of the
//!   child where [`ContractionPath::splits`] places its split, so once
//!   per visit of the producer–consumer common ancestors: the rule that
//!   sizes and prices the buffer too.
//! - `Dense` / `Sparse` … `EndLoop` — loop headers paired with a
//!   trailing `EndLoop`; iteration state lives on an explicit frame
//!   stack (the driver never recurses). Each header carries a slice of
//!   the *advance table*: `(cursor, stride)` pairs whose running
//!   offsets are incremented by `Δcoordinate · stride` on every step
//!   and restored on exit, in place of recomputing each offset from
//!   the coordinates on every visit. A sparse header names only its CSF
//!   level: at level 0 it iterates the tile root range, below that the
//!   children of the node the enclosing level-`ℓ−1` loop stands on.
//! - `Leaf` — one scalar contraction `tgt += l · r`, with both operand
//!   addresses precompiled to cursors (or the sparse leaf value). A
//!   target names its term: the final term's is the output, any other
//!   term's its Eq.-5 buffer.
//! - `Dot` / `Axpy` / `Xmul` / `Ger` / `Gemv` — a whole innermost dense
//!   loop (or loop pair) lowered to a single microkernel call. *Which*
//!   loops, and which operand is the vector, the matrix or the scalar,
//!   is not decided here: it is [`spttn_ir::lower`]'s rule
//!   ([`Term::leaf_op`](spttn_ir::Term::leaf_op) on
//!   [`LoopVertex::leaf_loops`]), read off the term's index sets. The
//!   compiler only addresses — one cursor and the strides per operand,
//!   resolved at compile time. The kernel tier (scalar, AVX2+FMA or
//!   AVX-512F) is chosen once, at compile time, by a
//!   [`crate::simd::KernelSet`] the tape records; the driver enters
//!   that tier's compiled body per call or walk, never re-deciding it
//!   per visit. Which body the call runs — a fixed rank's unrolled one
//!   or the generic loop — follows from its trip count and strides; the
//!   program does not record it.
//!
//! # Superinstructions
//!
//! At every kernel tier the compiler fuses as it emits — nothing after
//! the fused site exists yet, so no jump is ever re-patched. The program
//! is a function of the plan alone; the [`KernelSet`] only names the
//! tier its calls and walks run in:
//!
//! - An `Axpy` / `Xmul` / `Ger` with `assign` set fuses a term's Eq.-5
//!   zero point with its first accumulation: when the call compiled
//!   right after `Zero { t }` accumulates into term `t`'s *entire*
//!   buffer, the pair collapses into one assigning pass (`y = αx`
//!   instead of `y = 0; y += αx`), halving the memory traffic of the
//!   split point. The assigning kernels never skip the write (even for
//!   `α == 0`), preserving the zero point.
//! - `SparseAxpy` / `SparseDot` replace an innermost sparse loop with a
//!   straight-line body where [`spttn_ir::fused_loop`] — the rule the
//!   cost model prices too — names one: one instruction walks the
//!   parent's children in place — coordinate, offsets, body —
//!   with no frame and no per-child dispatch. The two bodies:
//!   - `Sparse; Axpy; EndLoop` (the inner loop of MTTKRP and TTMc):
//!     alpha, call. A directly preceding `Zero` of the Axpy's own, fully
//!     covered buffer folds into the first child's call (its assigning
//!     twin) when the loop is below the root: a non-root CSF node always
//!     has a child, whereas a tile's root range can be empty.
//!   - `Sparse; Zero t; Dot → t; Leaf; EndLoop` with `t` a scalar
//!     buffer (the inner loop of TTTP and SDDMM): the DOT result stays in
//!     a register, and the `Leaf` operand that read `t` takes `0.0 + d`
//!     — exactly what the zeroed cell held — so `t` is never written.
//!     The `Zero` runs per child, so a loop at any level fuses.
//! - `Fiber` replaces the sparse loop one level up where the rule's
//!   fiber row names it and the vertex's children fit it: a header over
//!   a fixed two-instruction body, the fused loop one level down and one
//!   call, in either order — `Sparse j; SparseAxpy k; Xmul|Ger|…;
//!   EndLoop` (MTTKRP, TTMc, the collapsed network kernel: the run fills
//!   the buffer the call reads) or `Sparse j; Xmul|Axpy; SparseDot k;
//!   EndLoop` (TTTP: the call fills the buffer the run reads). Per child
//!   of the fiber's node the driver runs the inner walk and the call
//!   inline: no frame, no `EndLoop`, no dispatch per call. The body's
//!   zero point is always folded into an assigning call, so the body
//!   has none.
//!
//! A fused loop carries the record of the call it fused: `SparseAxpy`
//! the `Axpy`'s (its `assign` meaning the first child's call),
//! `SparseDot` the `Dot`'s and the `Leaf`'s. So the compiler, the
//! driver and the verifier read one record per call, and the driver
//! runs one part per call: resolved once per walk, fired per node it
//! stands on — a lone call once, a fiber's call per child of the
//! fiber's level, a fused loop's call per child of its parent. A fused
//! loop is that part fired by one generic per-child loop; the fused DOT
//! is the one part of its own (the DOT, then the leaf on `0.0 + d`).
//!
//! Every walk — a lone call, a lone fused loop, a fiber — resolves its
//! operands once per walk, not per child: each one's store (the
//! read/write split of the workspace at the walk's target terms), its
//! offset and its step per coordinate from the advance table. A child's
//! offset is then `base + coord·step` (plus the node index for the
//! sparse value and pattern-sharing cells), computed in place, so no
//! cursor is written per child; a walk leaves the cursors and tracked
//! nodes as the unfused loops leave them. And every walk runs in one
//! carrier, per node a head part then a tail part (a lone walk has only
//! the tail, which it runs as a fused loop over its nodes), entered once
//! per walk inside the tier's `#[target_feature]` region: the carrier
//! is monomorphized per kernel tier, per rank (8, 16, 32 or generic)
//! and per shape — the nine run/call shapes of a fiber, the two lone
//! fused loops and the five lone calls, the only pairs the dispatch
//! names — so its kernels inline per nonzero and per fiber child with
//! no call. Where a fiber's first part fills its buffer whole and the
//! second reads it whole, both contiguous, at a fixed rank, the buffer
//! is a local `[f64; N]` (the Eq.-5 `X0[a]` of MTTKRP, 32 doubles) that
//! never touches memory; otherwise — strided operands, other ranks —
//! the generic instance of the same body runs through the workspace.
//! Its bits are the per-call sequence's either way (see
//! [`crate::simd`]'s determinism contract).

//! # The tape never searches
//!
//! A sparse loop iterates the children of the node its enclosing sparse
//! loop stands on, and a sparse value or pattern-sharing output cell is
//! the leaf node the innermost sparse loop stands on: the forest rule
//! ([`spttn_ir::vertex_kind`] — sparse vertices form a chain from the
//! root level, a CSF index under a densely iterated shallower one is
//! dense itself) guarantees both for every planned nest, so no CSF node
//! is ever looked up by coordinate. Both facts are derived, never
//! stored: an instruction names a sparse loop's level, and the driver
//! takes the parent from `nodes[level − 1]` and the leaf from the last
//! level. [`LoopForest`] is public data; a hand-built forest that breaks
//! the rule is refused at compile time ([`LoopForest::check_descent`]),
//! and [`verify`] proves every level a compiled program uses tracked by
//! an enclosing loop.
//!
//! # Contracts
//!
//! The tape's loop structure and microkernel calls come from the forest
//! and the lowering rule; what it does on its own — addressing, and
//! under [`KernelSet::scalar`] the floating-point operation order — is
//! pinned by committed digests (`crates/exec/tests/tape_digests.txt`):
//! one line per (case, cost model, tier class, tile count) over the
//! output bits and [`ExecStats`], recorded while a separate unfused
//! loop-forest interpreter still existed and shown equal to its bits.
//! The scalar tape must reproduce its lines exactly, every other tier
//! stays within ≤1e-9 of it (`tests/tape_vs_interp.rs`), and the naive
//! oracle ([`crate::naive_einsum`]) judges both. None of this is a
//! second opinion on the lowering rule itself; that is tested where it
//! is stated (`spttn_ir::lower`), and against exact dispatch and flop
//! counts in `tests/plan_shape.rs`.
//! One compiled tape is shared by all
//! worker threads (it is immutable and tile-parametric); the mutable
//! driver state ([`TapeState`]) lives in each [`Workspace`], is
//! preallocated by [`Workspace::prepare_tape`], and the driver performs
//! **zero heap allocations and zero atomic operations** per execution —
//! stats are plain per-workspace `u64`s ([`Workspace::stats`]).

use crate::guard::RunGuard;
use crate::simd::{
    at_rank, axpy, dot, gemv, ger, rank, unrolled, xmul, Body, KernelSet, Lanes, Microkernels,
};
use crate::workspace::{
    forest_stamp, validate_output, validate_slotted_operands, ExecStats, OutputMut, Workspace,
};
use spttn_core::{Result, SpttnError};
use spttn_ir::{
    fused_loop, BufferSpec, ContractionPath, FusedLoop, IdxSet, IndexId, Kernel, LeafOp,
    LoopForest, LoopNode, LoopVertex, Operand, VertexKind,
};
use spttn_tensor::{Csf, CsfTile, DenseTensor};
use std::ops::Range;

#[path = "tape_verify.rs"]
pub mod verify;

/// Read-side backing store of a precompiled operand address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RBuf {
    /// Dense factor at a kernel input slot.
    Factor(usize),
    /// Intermediate buffer of an earlier term.
    Inter(usize),
}

/// A loop-invariant scalar source.
#[derive(Debug, Clone, Copy)]
enum Read {
    /// `store[cursors[cur]]`.
    Cursor { buf: RBuf, cur: usize },
    /// The sparse tensor's leaf value at the tracked leaf node.
    SparseVal,
}

/// An accumulation-cell target.
#[derive(Debug, Clone, Copy)]
enum Write {
    /// `store[cursors[cur]] += v` into the dense output when `term` is
    /// the final term, into the term's buffer otherwise.
    Cell { term: usize, cur: usize },
    /// Pattern-sharing sparse output: `vals[leaf - leaf_lo] += v` at the
    /// tracked leaf node.
    SparseCell,
}

/// Strided vector source of a microkernel.
#[derive(Debug, Clone, Copy)]
struct VecSrc {
    buf: RBuf,
    cur: usize,
    inc: usize,
}

/// Strided matrix source (GEMV's `A`).
#[derive(Debug, Clone, Copy)]
struct MatSrc {
    buf: RBuf,
    cur: usize,
    rs: usize,
    cs: usize,
}

/// Strided vector target of a microkernel, in the store of the
/// instruction's term (see [`Write::Cell`]).
#[derive(Debug, Clone, Copy)]
struct VecTgt {
    cur: usize,
    inc: usize,
}

/// Strided matrix target (GER's `A`), in the store of its term.
#[derive(Debug, Clone, Copy)]
struct MatTgt {
    cur: usize,
    rs: usize,
    cs: usize,
}

/// A scalar contraction `tgt += left · right` (a `Leaf`'s operands).
#[derive(Debug, Clone, Copy)]
struct ScalarMul {
    left: Read,
    right: Read,
    tgt: Write,
}

/// A DOT call `Σ_q x[q]·y[q]` over `n` elements.
#[derive(Debug, Clone, Copy)]
struct DotCall {
    n: usize,
    x: VecSrc,
    y: VecSrc,
}

/// An AXPY call `y[q] += alpha · x[q]` over `n` elements into term
/// `term`'s store. With `assign`, the call is the assigning twin
/// `y[q] = alpha · x[q]` standing in for the `Zero { term }` it was
/// fused with (likewise for `Xmul` and `Ger`) — in a `SparseAxpy`, on
/// the loop's first child only.
#[derive(Debug, Clone, Copy)]
struct AxpyArgs {
    n: usize,
    term: usize,
    alpha: Read,
    x: VecSrc,
    y: VecTgt,
    assign: bool,
}

/// Slice of the advance table owned by one loop header.
type AdvRange = (u32, u32);

/// One cursor delta applied when its loop's coordinate advances.
#[derive(Debug, Clone, Copy)]
struct AdvEntry {
    cur: usize,
    stride: usize,
}

/// One tape instruction. All variants are plain `Copy` data; jump
/// targets (`end`) are absolute instruction indices.
#[derive(Debug, Clone, Copy)]
enum Instr {
    /// Zero a term's Eq.-5 buffer (split point).
    Zero { term: usize },
    /// Dense loop header over `index` with extent `dim`.
    Dense {
        index: IndexId,
        dim: usize,
        adv: AdvRange,
        end: usize,
    },
    /// Sparse loop header over the CSF nodes at `level`: the tile roots
    /// at level 0, the children of the node tracked at `level − 1`
    /// below.
    Sparse {
        level: usize,
        adv: AdvRange,
        end: usize,
    },
    /// Advance or exit the innermost open loop.
    EndLoop,
    /// Scalar contraction of one term.
    Leaf(ScalarMul),
    /// `tgt += Σ_q x[q]·y[q]` (an innermost dense loop lowered to DOT).
    Dot { dot: DotCall, tgt: Write },
    /// `y[q] += alpha · x[q]` (see [`AxpyArgs`]).
    Axpy(AxpyArgs),
    /// `y[q] += x[q] · z[q]`.
    Xmul {
        n: usize,
        term: usize,
        x: VecSrc,
        z: VecSrc,
        y: VecTgt,
        assign: bool,
    },
    /// Rank-1 update `a[q1,q2] += x[q1] · y[q2]`.
    Ger {
        m: usize,
        n: usize,
        term: usize,
        x: VecSrc,
        y: VecSrc,
        a: MatTgt,
        assign: bool,
    },
    /// `y[i] += Σ_j a[i,j] · x[j]` (call-parameter order baked in).
    Gemv {
        m: usize,
        n: usize,
        term: usize,
        a: MatSrc,
        x: VecSrc,
        y: VecTgt,
    },
    /// Superinstruction: `Sparse` header + `Axpy` body + `EndLoop` —
    /// the body's `axpy` once per child of the parent node, with no
    /// frame. With `assign`, the first child's call is the assigning
    /// twin a folded `Zero { term }` leaves it (`level > 0` only).
    SparseAxpy {
        level: usize,
        adv: AdvRange,
        axpy: AxpyArgs,
    },
    /// Superinstruction: `Sparse` header + `Zero { term }` + `Dot` into
    /// `term`'s one-element buffer + `Leaf` + `EndLoop` — once per child
    /// of the parent node, `d = dot`, then `leaf` with every read of
    /// `term` taken as `0.0 + d`, with no frame and no write to `term`.
    SparseDot {
        level: usize,
        adv: AdvRange,
        term: usize,
        dot: DotCall,
        leaf: ScalarMul,
    },
    /// Superinstruction: a sparse loop over the CSF nodes at `level`
    /// whose body is the next two instructions — a `SparseAxpy` or
    /// `SparseDot` at `level + 1` and one microkernel call, in either
    /// order — run per child with no frame and no `EndLoop`.
    Fiber { level: usize, adv: AdvRange },
}

/// Static operand-store extents captured at compile time, making a
/// [`CompiledTape`] self-describing for [`CompiledTape::verify`]: the
/// verifier proves cursor offsets in range against these lengths
/// without needing the kernel or buffer specs back.
#[derive(Debug, Clone)]
struct TapeBounds {
    /// Flat length of each dense factor slot (0 for the sparse slot,
    /// which is never cursor-addressed).
    factor_lens: Vec<usize>,
    /// Flat length of each term's Eq.-5 buffer (0 when the term has
    /// none — the final term writes the output instead).
    buffer_lens: Vec<usize>,
    /// Flat length of the dense output (0 for pattern-sharing sparse
    /// outputs, which are node-addressed).
    out_len: usize,
    /// Declared extent of every kernel index.
    index_dims: Vec<usize>,
    /// Kernel index stored at each CSF level.
    level_index: Vec<IndexId>,
    /// Whether the output shares the sparse pattern (node-addressed
    /// `SparseCell` writes instead of dense cursor writes).
    output_sparse: bool,
}

/// A loop forest lowered to a flat instruction program.
///
/// Immutable once compiled and shared by every executing thread; the
/// per-thread mutable state is a [`TapeState`] held by each
/// [`Workspace`]. Compile once per plan (`Plan::bind` does this), run
/// per tile with [`execute_tape_tile_into`].
#[derive(Debug, Clone)]
pub struct CompiledTape {
    instrs: Vec<Instr>,
    adv: Vec<AdvEntry>,
    n_cursors: usize,
    n_indices: usize,
    n_levels: usize,
    n_terms: usize,
    max_depth: usize,
    forest_stamp: u64,
    bounds: TapeBounds,
    /// The kernel tier recorded at compile time: the one every walk of
    /// the program enters. The instructions hold no kernel.
    kernels: KernelSet,
}

/// Loop-iteration frame of the driver's explicit stack.
#[derive(Debug, Clone, Copy, Default)]
struct Frame {
    /// Instruction index of the loop header.
    instr: usize,
    /// Dense: current coordinate. Sparse: current node.
    pos: usize,
    /// Dense: unused (extent is in the header). Sparse: node range end.
    end: usize,
    /// Current coordinate (for delta advances and exit restores).
    prev: usize,
}

/// Preallocated mutable driver state for one thread's tape executions.
///
/// Sized purely from the compiled program; build with
/// [`CompiledTape::new_state`] or let [`Workspace::prepare_tape`] store
/// one in the workspace. After that, running the tape allocates
/// nothing.
#[derive(Debug, Clone)]
pub struct TapeState {
    /// Current CSF node per tracked tree level.
    nodes: Vec<usize>,
    /// Running offsets of every compiled operand address.
    cursors: Vec<usize>,
    /// Fixed-size frame stack (`fp` is the live depth).
    frames: Vec<Frame>,
    fp: usize,
    /// Forest fingerprint of the tape this state was sized for.
    stamp: u64,
}

impl TapeState {
    /// True when this state was sized for `tape`.
    pub(crate) fn matches(&self, tape: &CompiledTape) -> bool {
        self.stamp == tape.forest_stamp
            && self.nodes.len() == tape.n_levels
            && self.cursors.len() == tape.n_cursors
            && self.frames.len() == tape.max_depth
    }

    /// Reset to the start-of-run state (cheap: O(state size), which is
    /// O(program size), independent of the data).
    fn reset(&mut self) {
        self.nodes.fill(usize::MAX);
        self.cursors.fill(0);
        self.fp = 0;
    }
}

impl CompiledTape {
    /// Lower a planned nest to a tape under a [`Microkernels`] policy.
    /// `specs` must be the Eq.-5 buffer specs of `forest` (the same
    /// ones the executing [`Workspace`] was built from), so compiled
    /// buffer strides agree with the allocated buffers. The policy is
    /// resolved against the `SPTTN_MICROKERNELS` environment override
    /// and the host CPU once, here, and the outcome is recorded in the
    /// tape.
    ///
    /// Fails on a forest no [`spttn_ir::build_forest`] call returns:
    /// one that breaks the CSF descent rule (a sparse loop or sparse
    /// access the enclosing sparse loops do not reach), or an operand
    /// index no enclosing loop iterates.
    pub fn compile_with(
        kernel: &Kernel,
        path: &ContractionPath,
        forest: &LoopForest,
        specs: &[BufferSpec],
        microkernels: Microkernels,
    ) -> Result<CompiledTape> {
        Self::compile_with_kernels(
            kernel,
            path,
            forest,
            specs,
            KernelSet::resolve(microkernels),
        )
    }

    /// Compile against an explicit, already-resolved [`KernelSet`] —
    /// differential tests and benches use this to pin program shape
    /// independently of the environment override.
    pub fn compile_with_kernels(
        kernel: &Kernel,
        path: &ContractionPath,
        forest: &LoopForest,
        specs: &[BufferSpec],
        kernels: KernelSet,
    ) -> Result<CompiledTape> {
        forest.check_descent(kernel, path)?;
        // Every dense array the program addresses must fit one
        // allocation; its length (and so each stride) is checked before
        // any is computed.
        let factor_lens = (kernel.inputs.iter().enumerate())
            .map(|(i, r)| {
                if i == kernel.sparse_input {
                    Ok(0)
                } else {
                    DenseTensor::checked_len(&kernel.ref_dims(r))
                }
            })
            .collect::<std::result::Result<Vec<usize>, _>>()?;
        let out_len = if kernel.output_sparse {
            0
        } else {
            DenseTensor::checked_len(&kernel.ref_dims(&kernel.output))?
        };
        let n_terms = path.len();
        let mut buffer_inds: Vec<Vec<IndexId>> = vec![Vec::new(); n_terms];
        let mut buffer_strides: Vec<Vec<usize>> = vec![Vec::new(); n_terms];
        let mut buffer_lens = vec![0usize; n_terms];
        for s in specs {
            buffer_lens[s.producer] = DenseTensor::checked_len(&s.dims)?;
            buffer_inds[s.producer] = s.inds.clone();
            buffer_strides[s.producer] = s.strides();
        }
        let mut c = Compiler {
            kernel,
            path,
            buffer_inds,
            buffer_strides,
            buffer_lens,
            factor_strides: kernel
                .inputs
                .iter()
                .map(|r| kernel.ref_strides(r))
                .collect(),
            out_strides: kernel.ref_strides(&kernel.output),
            instrs: Vec::new(),
            adv: Vec::new(),
            n_cursors: 0,
            loops: Vec::new(),
        };
        c.compile_siblings(&forest.roots, n_terms)?;
        let bounds = TapeBounds {
            factor_lens,
            buffer_lens: c.buffer_lens,
            out_len,
            index_dims: (0..kernel.num_indices()).map(|i| kernel.dim(i)).collect(),
            level_index: kernel.csf_index_order().to_vec(),
            output_sparse: kernel.output_sparse,
        };
        Ok(CompiledTape {
            instrs: c.instrs,
            adv: c.adv,
            n_cursors: c.n_cursors,
            n_indices: kernel.num_indices(),
            n_levels: kernel.csf_index_order().len(),
            n_terms,
            max_depth: forest.max_depth(),
            forest_stamp: forest_stamp(forest),
            bounds,
            kernels,
        })
    }

    /// Build the preallocated mutable driver state for this program.
    pub fn new_state(&self) -> TapeState {
        TapeState {
            nodes: vec![usize::MAX; self.n_levels],
            cursors: vec![0; self.n_cursors],
            frames: vec![Frame::default(); self.max_depth],
            fp: 0,
            stamp: self.forest_stamp,
        }
    }

    /// Number of instructions in the program.
    pub fn num_instrs(&self) -> usize {
        self.instrs.len()
    }

    /// Number of precompiled operand addresses (incremental cursors).
    pub fn num_cursors(&self) -> usize {
        self.n_cursors
    }

    /// The kernel table the program's calls were drawn from — the one
    /// to use for microkernel calls made beside this tape (`spttn-net`'s
    /// dense steps), so both run one resolution of the policy.
    pub fn kernels(&self) -> &KernelSet {
        &self.kernels
    }

    /// Name of the recorded microkernel implementation family
    /// (`"scalar"`, `"avx2+fma"`, `"avx512f"`).
    pub fn microkernels(&self) -> &'static str {
        self.kernels.name()
    }

    /// f64 lanes per vector operation of the recorded kernels.
    pub fn kernel_width(&self) -> usize {
        self.kernels.width()
    }

    /// Number of superinstructions in the program: assigning calls
    /// (fused `ZeroAccum` pairs), fused sparse-AXPY and sparse-DOT
    /// loops, and fibers.
    pub fn superinstructions(&self) -> usize {
        self.instrs
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Instr::Axpy(AxpyArgs { assign: true, .. })
                        | Instr::Xmul { assign: true, .. }
                        | Instr::Ger { assign: true, .. }
                        | Instr::SparseAxpy { .. }
                        | Instr::SparseDot { .. }
                        | Instr::Fiber { .. }
                )
            })
            .count()
    }

    /// Number of microkernel sites whose recorded trip count and
    /// strides take a fixed rank's unrolled body: contiguous at 8, 16 or
    /// 32 (see [`crate::simd`]).
    pub fn specialized(&self) -> usize {
        (self.instrs.iter().filter_map(call_site))
            .filter(|&(n, contiguous)| unrolled(n, contiguous))
            .count()
    }

    /// Statically prove the compiled program well-formed — see the
    /// [`verify`] module for the invariants checked.
    ///
    /// Abstractly interprets every instruction without touching data:
    /// loop structure, frame-stack depth, cursor bounds under declared
    /// extents, Eq.-5 zero-before-accumulate domination, sparse-node
    /// tracking, and operand-index ranges. Cost is O(program size),
    /// independent of the tensors; every `Plan::bind` runs it.
    pub fn verify(&self) -> std::result::Result<verify::TapeReport, verify::TapeInvariantError> {
        verify::verify(self)
    }
}

// ---------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------

/// Where a dense operand or target lives: its backing store (`RBuf`
/// of a source; a target's is its term's), the indices it is stored
/// by, and their strides.
struct Site<S> {
    store: S,
    inds: Vec<IndexId>,
    strides: Vec<usize>,
}

/// One enclosing emitted loop during compilation.
struct LoopCtx {
    index: IndexId,
    /// Advance entries collected for this loop's body.
    adv: Vec<AdvEntry>,
}

struct Compiler<'a> {
    kernel: &'a Kernel,
    path: &'a ContractionPath,
    buffer_inds: Vec<Vec<IndexId>>,
    buffer_strides: Vec<Vec<usize>>,
    /// Flat length of each term's Eq.-5 buffer — what a fused call must
    /// cover to stand in for its `Zero`.
    buffer_lens: Vec<usize>,
    factor_strides: Vec<Vec<usize>>,
    out_strides: Vec<usize>,
    instrs: Vec<Instr>,
    adv: Vec<AdvEntry>,
    n_cursors: usize,
    loops: Vec<LoopCtx>,
}

impl<'a> Compiler<'a> {
    /// Allocate a cursor for `site`, registering one advance entry with
    /// each enclosing loop that iterates one of the site's indices. The
    /// indices in `along` are the lowered loops the site runs along
    /// inside a microkernel: they are carried as the call's strides, not
    /// advanced.
    fn cursor<S>(&mut self, site: &Site<S>, along: &[IndexId]) -> Result<usize> {
        let cur = self.n_cursors;
        self.n_cursors += 1;
        for (&ind, &stride) in site.inds.iter().zip(&site.strides) {
            if along.contains(&ind) {
                continue;
            }
            let ctx = self
                .loops
                .iter_mut()
                .find(|c| c.index == ind)
                .ok_or_else(|| {
                    SpttnError::Execution(format!(
                        "tape compile: operand index {ind} is not iterated by an enclosing loop"
                    ))
                })?;
            ctx.adv.push(AdvEntry { cur, stride });
        }
        Ok(cur)
    }

    /// Compile a sibling list whose parent covers terms ending at
    /// `parent_hi`, zeroing in front of each child the buffers
    /// [`ContractionPath::splits`] places there — produced inside the
    /// child, consumed by a later sibling — so each is reset on every
    /// visit of its producer–consumer common ancestors.
    fn compile_siblings(&mut self, nodes: &[LoopNode], parent_hi: usize) -> Result<()> {
        for n in nodes {
            let (lo, hi) = n.term_range();
            for term in self.path.splits(lo, hi, parent_hi) {
                self.instrs.push(Instr::Zero { term });
            }
            match n {
                LoopNode::Leaf(t) => self.compile_leaf(*t)?,
                LoopNode::Loop(v) => self.compile_loop(v)?,
            }
            self.fuse_zero_into_call();
        }
        Ok(())
    }

    /// Fuse the child just compiled with the `Zero { t }` in front of it
    /// when the child is one microkernel call accumulating over term
    /// `t`'s **entire** buffer: the call becomes assigning in place.
    ///
    /// Coverage: a `VecTgt` covers the buffer iff [`covers`] holds; a
    /// `MatTgt` additionally needs row-major packing (`rs == n`,
    /// `m·n == len`). Then the call writes every element, so "fill +
    /// accumulate" equals "assign", and it runs on exactly the paths the
    /// adjacent `Zero` did. Sources cannot alias the zeroed buffer: a
    /// call for term `t` only reads factors and buffers of earlier terms
    /// (the verifier's `ProducerOrderViolation` rule).
    fn fuse_zero_into_call(&mut self) {
        let [.., Instr::Zero { term }, call] = &mut self.instrs[..] else {
            return;
        };
        let (term, lens) = (*term, &self.buffer_lens);
        let assign = match call {
            Instr::Axpy(AxpyArgs {
                n,
                term: t,
                y,
                assign,
                ..
            })
            | Instr::Xmul {
                n,
                term: t,
                y,
                assign,
                ..
            } if *t == term && covers(term, y.inc, *n, lens) => assign,
            Instr::Ger {
                m,
                n,
                term: t,
                a,
                assign,
                ..
            } if *t == term && a.rs == *n && covers(term, a.cs, *m * *n, lens) => assign,
            _ => return,
        };
        *assign = true;
        // The call takes the `Zero`'s place.
        self.instrs.swap_remove(self.instrs.len() - 2);
    }

    fn compile_loop(&mut self, v: &LoopVertex) -> Result<()> {
        if self.try_blas(v)? {
            return Ok(());
        }
        let header = self.instrs.len();
        self.instrs.push(Instr::EndLoop); // placeholder, patched below
        self.loops.push(LoopCtx {
            index: v.index,
            adv: Vec::new(),
        });
        self.compile_siblings(&v.children, v.term_hi)?;
        let ctx = self.loops.pop().expect("loop ctx pushed above");
        let adv = self.flush_adv(ctx.adv);
        // Past the `EndLoop` pushed below.
        let end = self.instrs.len() + 1;
        self.instrs[header] = match v.kind {
            VertexKind::Dense => Instr::Dense {
                index: v.index,
                dim: self.kernel.dim(v.index),
                adv,
                end,
            },
            VertexKind::Sparse { level } => {
                let enclosing = self.loops.iter().map(|c| c.index);
                let iterated = enclosing.collect::<IdxSet>().insert(v.index);
                let terms = v.term_lo..v.term_hi;
                match fused_loop(self.kernel, self.path, level, terms, iterated)
                    .filter(|f| f.fits(level, &v.children))
                {
                    Some(FusedLoop::Fiber { .. }) => {
                        return self.fuse_fiber(header, v.index, level, adv)
                    }
                    Some(_) => return self.fuse_sparse_loop(header, v.index, level, adv),
                    None => Instr::Sparse { level, adv, end },
                }
            }
        };
        self.instrs.push(Instr::EndLoop);
        Ok(())
    }

    /// Replace the sparse loop whose header placeholder sits at `header`
    /// and whose body is everything after it by one superinstruction,
    /// where [`fused_loop`] says the tape fuses it: the body has one of
    /// the rule's two shapes, and this only moves its operands.
    ///
    /// - `Axpy` becomes a `SparseAxpy`. A directly preceding `Zero` of
    ///   the Axpy's own term folds into the first child's call when the
    ///   Axpy [`covers`] the buffer and the loop sits below the root:
    ///   every non-root CSF node has at least one child, so the
    ///   assigning call runs on every path the `Zero` did. A tile's root
    ///   range can be empty, so a level-0 loop keeps its `Zero`.
    /// - `Zero t; Dot → t; Leaf` becomes a `SparseDot`: `t` is a scalar
    ///   whose one consumer is that `Leaf`, so nothing after the loop
    ///   reads it.
    fn fuse_sparse_loop(
        &mut self,
        header: usize,
        index: IndexId,
        level: usize,
        adv: AdvRange,
    ) -> Result<()> {
        let (at, fused) = match self.instrs[header + 1..] {
            [Instr::Axpy(axpy)] => {
                let AxpyArgs { n, term, y, .. } = axpy;
                let fold = level > 0
                    && header > 0
                    && matches!(self.instrs[header - 1], Instr::Zero { term: z } if z == term)
                    && covers(term, y.inc, n, &self.buffer_lens);
                let axpy = AxpyArgs {
                    assign: fold,
                    ..axpy
                };
                let fused = Instr::SparseAxpy { level, adv, axpy };
                (if fold { header - 1 } else { header }, fused)
            }
            [Instr::Zero { term }, Instr::Dot { dot, .. }, Instr::Leaf(leaf)] => {
                let fused = Instr::SparseDot {
                    level,
                    adv,
                    term,
                    dot,
                    leaf,
                };
                (header, fused)
            }
            _ => {
                return Err(SpttnError::Execution(format!(
                    "tape compile: the sparse loop over index {index} does not have its fused shape"
                )))
            }
        };
        self.instrs.truncate(at);
        self.instrs.push(fused);
        Ok(())
    }

    /// Make the sparse loop whose header placeholder sits at `header` a
    /// fiber, where [`fused_loop`] names one that fits its children: the
    /// body already compiled is the fused loop one level down and the
    /// call, in the rule's order, and the header becomes `Fiber` over it.
    fn fuse_fiber(
        &mut self,
        header: usize,
        index: IndexId,
        level: usize,
        adv: AdvRange,
    ) -> Result<()> {
        let run = |i: &Instr| matches!(i, Instr::SparseAxpy { .. } | Instr::SparseDot { .. });
        let call = |i: &Instr| {
            matches!(
                i,
                Instr::Axpy(_)
                    | Instr::Xmul { .. }
                    | Instr::Ger { .. }
                    | Instr::Gemv { .. }
                    | Instr::Dot { .. }
            )
        };
        match &self.instrs[header + 1..] {
            [a, b] if (run(a) && call(b)) || (call(a) && run(b)) => {
                self.instrs[header] = Instr::Fiber { level, adv };
                Ok(())
            }
            _ => Err(SpttnError::Execution(format!(
                "tape compile: the fiber over index {index} does not have its fused shape"
            ))),
        }
    }

    fn flush_adv(&mut self, entries: Vec<AdvEntry>) -> AdvRange {
        let start = self.adv.len() as u32;
        self.adv.extend(entries);
        (start, self.adv.len() as u32)
    }

    /// Compile one scalar-leaf contraction.
    fn compile_leaf(&mut self, t: usize) -> Result<()> {
        let term = &self.path.terms[t];
        let left = self.scalar_src(term.left)?;
        let right = self.scalar_src(term.right)?;
        let tgt = self.cell_tgt(t)?;
        self.instrs
            .push(Instr::Leaf(ScalarMul { left, right, tgt }));
        Ok(())
    }

    // ----- Addressing ------------------------------------------------

    /// Where a source operand lives; `None` for the sparse input, whose
    /// value is the tracked leaf's.
    fn src_site(&self, op: Operand) -> Option<Site<RBuf>> {
        let (store, inds, strides) = match op {
            Operand::Input(i) if i == self.kernel.sparse_input => return None,
            Operand::Input(i) => (
                RBuf::Factor(i),
                &self.kernel.inputs[i].indices,
                &self.factor_strides[i],
            ),
            Operand::Inter(u) => (
                RBuf::Inter(u),
                &self.buffer_inds[u],
                &self.buffer_strides[u],
            ),
        };
        Some(Site {
            store,
            inds: inds.clone(),
            strides: strides.clone(),
        })
    }

    /// Where term `t` accumulates: the dense output for the final term,
    /// its Eq.-5 buffer otherwise; `None` for a pattern-sharing sparse
    /// output, whose cell is the tracked leaf's.
    fn tgt_site(&self, t: usize) -> Option<Site<()>> {
        let (inds, strides) = if t + 1 < self.path.len() {
            (&self.buffer_inds[t], &self.buffer_strides[t])
        } else if self.kernel.output_sparse {
            return None;
        } else {
            (&self.kernel.output.indices, &self.out_strides)
        };
        Some(Site {
            store: (),
            inds: inds.clone(),
            strides: strides.clone(),
        })
    }

    /// Address a dense site inside a microkernel that runs it along the
    /// lowered loops `along`: the cursor every enclosing loop advances,
    /// and the stride of each `along` index. Both failures mean the
    /// forest is not one the lowering rule was read off.
    fn strided<S, const N: usize>(
        &mut self,
        site: Option<Site<S>>,
        along: [IndexId; N],
    ) -> Result<(S, usize, [usize; N])> {
        let site = site.ok_or_else(|| {
            SpttnError::Execution(
                "tape compile: a lowered loop runs along the sparse tensor's pattern".into(),
            )
        })?;
        let mut incs = [0usize; N];
        for (inc, q) in incs.iter_mut().zip(along) {
            let pos = site.inds.iter().position(|&i| i == q).ok_or_else(|| {
                SpttnError::Execution(format!(
                    "tape compile: lowered loop index {q} is not stored by its operand"
                ))
            })?;
            *inc = site.strides[pos];
        }
        let cur = self.cursor(&site, &along)?;
        Ok((site.store, cur, incs))
    }

    /// A full-coordinate scalar read of an operand.
    fn scalar_src(&mut self, op: Operand) -> Result<Read> {
        Ok(match self.src_site(op) {
            None => Read::SparseVal,
            Some(site) => Read::Cursor {
                buf: site.store,
                cur: self.cursor(&site, &[])?,
            },
        })
    }

    /// Term `t`'s accumulation cell at the full coordinates.
    fn cell_tgt(&mut self, t: usize) -> Result<Write> {
        Ok(match self.tgt_site(t) {
            None => Write::SparseCell,
            Some(site) => Write::Cell {
                term: t,
                cur: self.cursor(&site, &[])?,
            },
        })
    }

    /// An operand as the vector running along `q`.
    fn vec_src(&mut self, op: Operand, q: IndexId) -> Result<VecSrc> {
        let (buf, cur, [inc]) = self.strided(self.src_site(op), [q])?;
        Ok(VecSrc { buf, cur, inc })
    }

    /// An operand as the matrix with rows along `row`, columns along `col`.
    fn mat_src(&mut self, op: Operand, row: IndexId, col: IndexId) -> Result<MatSrc> {
        let (buf, cur, [rs, cs]) = self.strided(self.src_site(op), [row, col])?;
        Ok(MatSrc { buf, cur, rs, cs })
    }

    /// Term `t`'s target as the vector running along `q`.
    fn vec_tgt(&mut self, t: usize, q: IndexId) -> Result<VecTgt> {
        let ((), cur, [inc]) = self.strided(self.tgt_site(t), [q])?;
        Ok(VecTgt { cur, inc })
    }

    /// Term `t`'s target as the matrix with rows along `row`, columns
    /// along `col`.
    fn mat_tgt(&mut self, t: usize, row: IndexId, col: IndexId) -> Result<MatTgt> {
        let ((), cur, [rs, cs]) = self.strided(self.tgt_site(t), [row, col])?;
        Ok(MatTgt { cur, rs, cs })
    }

    // ----- Microkernel lowering ---------------------------------------

    /// Lower a vertex to one microkernel instruction where the lowering
    /// rule ([`Term::leaf_op`] on [`LoopVertex::leaf_loops`]) names one.
    /// The arms only address: which operand is the vector, the matrix or
    /// the scalar is the rule's answer, not re-derived here.
    fn try_blas(&mut self, v: &LoopVertex) -> Result<bool> {
        let Some((q1, q2, t)) = v.leaf_loops() else {
            return Ok(false);
        };
        let term = &self.path.terms[t];
        let Some(op) = term.leaf_op(q1, q2) else {
            return Ok(false);
        };
        let dim = |q: IndexId| self.kernel.dim(q);
        let instr = match (op, q2) {
            (LeafOp::Dot, _) => {
                let n = dim(q1);
                let x = self.vec_src(term.left, q1)?;
                let y = self.vec_src(term.right, q1)?;
                let tgt = self.cell_tgt(t)?;
                Instr::Dot {
                    dot: DotCall { n, x, y },
                    tgt,
                }
            }
            (LeafOp::Axpy { vec }, _) => {
                let n = dim(q1);
                let y = self.vec_tgt(t, q1)?;
                let x = self.vec_src(term.operand(vec), q1)?;
                let alpha = self.scalar_src(term.operand(vec.other()))?;
                Instr::Axpy(AxpyArgs {
                    n,
                    term: t,
                    alpha,
                    x,
                    y,
                    assign: false,
                })
            }
            (LeafOp::Xmul, _) => {
                let y = self.vec_tgt(t, q1)?;
                let x = self.vec_src(term.left, q1)?;
                let z = self.vec_src(term.right, q1)?;
                Instr::Xmul {
                    n: dim(q1),
                    term: t,
                    x,
                    z,
                    y,
                    assign: false,
                }
            }
            (LeafOp::Ger { x }, Some(q2)) => {
                let (m, n) = (dim(q1), dim(q2));
                let (xs, ys) = (term.operand(x), term.operand(x.other()));
                let x = self.vec_src(xs, q1)?;
                let y = self.vec_src(ys, q2)?;
                let a = self.mat_tgt(t, q1, q2)?;
                Instr::Ger {
                    m,
                    n,
                    term: t,
                    x,
                    y,
                    a,
                    assign: false,
                }
            }
            (LeafOp::Gemv { mat, row, col }, _) => {
                let (m, n) = (dim(row), dim(col));
                let a = self.mat_src(term.operand(mat), row, col)?;
                let x = self.vec_src(term.operand(mat.other()), col)?;
                let y = self.vec_tgt(t, row)?;
                Instr::Gemv {
                    m,
                    n,
                    term: t,
                    a,
                    x,
                    y,
                }
            }
            (LeafOp::Ger { .. }, None) => unreachable!("leaf_op names GER for a loop pair only"),
        };
        self.instrs.push(instr);
        Ok(true)
    }
}

/// A microkernel site's trip count, and whether its strides take the
/// kernel's vector body: unit increments along what the kernel
/// vectorizes (every operand of an AXPY, XMUL or DOT, a GER's `y` and
/// rows, a GEMV's rows and `x`). A strided site runs the scalar body at
/// every tier (see [`crate::simd`]).
fn call_site(i: &Instr) -> Option<(usize, bool)> {
    Some(match *i {
        Instr::Axpy(c) | Instr::SparseAxpy { axpy: c, .. } => (c.n, c.x.inc == 1 && c.y.inc == 1),
        Instr::Xmul { n, x, z, y, .. } => (n, x.inc == 1 && z.inc == 1 && y.inc == 1),
        Instr::Ger { n, y, a, .. } => (n, a.cs == 1 && y.inc == 1),
        Instr::Gemv { n, a, x, .. } => (n, a.cs == 1 && x.inc == 1),
        Instr::Dot { dot, .. } | Instr::SparseDot { dot, .. } => {
            (dot.n, dot.x.inc == 1 && dot.y.inc == 1)
        }
        _ => return None,
    })
}

/// Whether a scalar read is of term `term`'s buffer.
fn reads_term(r: Read, term: usize) -> bool {
    matches!(r, Read::Cursor { buf: RBuf::Inter(u), .. } if u == term)
}

/// Whether an accumulating target of term `term`, `n` elements at
/// increment `inc`, covers the term's whole Eq.-5 buffer (`lens` holds
/// every term's buffer length): not the final term's output, unit
/// increment, and the trip count is the buffer's flat length. Its
/// cursor is then statically 0 — full coverage means no enclosing loop
/// iterates any buffer index, so no advance entry ever moves it.
fn covers(term: usize, inc: usize, n: usize, lens: &[usize]) -> bool {
    term + 1 < lens.len() && inc == 1 && n == lens[term]
}

// ---------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------

/// Run a compiled tape over the whole tree into a caller-owned output,
/// reusing the workspace, unguarded (see [`execute_tape_tile_into`] for
/// the tiled variant and the allocation contract).
pub fn execute_tape_into(
    tape: &CompiledTape,
    kernel: &Kernel,
    csf: &Csf,
    factors_by_slot: &[DenseTensor],
    ws: &mut Workspace,
    out: OutputMut<'_>,
) -> Result<()> {
    run_tape(
        tape,
        kernel,
        csf,
        csf.root_range(),
        0,
        csf.nnz(),
        factors_by_slot,
        ws,
        out,
        None,
    )
}

/// Run a compiled tape over one [`CsfTile`], computing exactly the
/// tile's additive contribution: only the tile's root fibers are
/// iterated. A dense `out` receives that partial sum;
/// a sparse `out` must be the slice of output values covering exactly
/// the tile's [`CsfTile::leaf_range`] (tiles write disjoint leaf
/// ranges, so pattern-sharing outputs need no cross-tile reduction).
/// Executing every tile of a [`Csf::partition`] and summing dense
/// partials in a fixed order reproduces the full result
/// deterministically — which is what [`crate::ParallelExecutor`] does,
/// with a cancellation guard, at every thread count.
///
/// After [`Workspace::prepare_tape`] ran, this performs zero heap
/// allocations and zero atomic operations on the success path; the
/// workspace's [`ExecStats`] describe this run.
pub fn execute_tape_tile_into(
    tape: &CompiledTape,
    kernel: &Kernel,
    csf: &Csf,
    tile: &CsfTile,
    factors_by_slot: &[DenseTensor],
    ws: &mut Workspace,
    out: OutputMut<'_>,
) -> Result<()> {
    if tile.depth() != csf.order() {
        return Err(SpttnError::Execution(format!(
            "tile spans {} levels but the CSF has {} (tile built for a different tensor?)",
            tile.depth(),
            csf.order()
        )));
    }
    run_tape_tile(tape, kernel, csf, tile, factors_by_slot, ws, out, None)
}

/// [`run_tape`] over one tile of `csf`'s own partition, optionally
/// guarded — what the tile engine runs on every thread (its structure
/// guard already ties its tiles to the tensor).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_tape_tile(
    tape: &CompiledTape,
    kernel: &Kernel,
    csf: &Csf,
    tile: &CsfTile,
    factors: &[DenseTensor],
    ws: &mut Workspace,
    out: OutputMut<'_>,
    guard: Option<&RunGuard>,
) -> Result<()> {
    run_tape(
        tape,
        kernel,
        csf,
        tile.root_range(),
        tile.leaf_range().start,
        tile.leaf_nnz(),
        factors,
        ws,
        out,
        guard,
    )
}

/// The driver behind every entry point: replay `tape` over the root
/// range `root` of `csf`, whose leaves start at `leaf_lo` and number
/// `leaf_len`. A `guard` is checked once before the run and then at
/// every root-frame advance — so cancellation latency is bounded by one
/// root subtree.
#[allow(clippy::too_many_arguments)]
fn run_tape(
    tape: &CompiledTape,
    kernel: &Kernel,
    csf: &Csf,
    root: Range<usize>,
    leaf_lo: usize,
    leaf_len: usize,
    factors: &[DenseTensor],
    ws: &mut Workspace,
    out: OutputMut<'_>,
    guard: Option<&RunGuard>,
) -> Result<()> {
    validate_slotted_operands(kernel, csf, factors)?;
    validate_output(kernel, &out, leaf_len)?;
    if ws.buffers.len() != tape.n_terms || ws.forest_stamp != tape.forest_stamp {
        return Err(SpttnError::Execution(
            "workspace does not match the tape (build both from the same plan)".into(),
        ));
    }
    if csf.order() != tape.n_levels {
        return Err(SpttnError::Execution(format!(
            "tape was compiled for a {}-level CSF, got {}",
            tape.n_levels,
            csf.order()
        )));
    }
    // A no-op after the executors' bind-time call; a caller-built
    // workspace pays the allocation on its first run.
    ws.prepare_tape(tape);
    ws.stats = ExecStats::default();
    let Workspace {
        buffers,
        scratch_dense,
        stats: run_stats,
        tape: tstate,
        ..
    } = ws;
    let st = tstate.as_mut().expect("prepared above");
    st.reset();
    let (out_dense, out_sparse): (&mut DenseTensor, &mut [f64]) = match out {
        OutputMut::Dense(d) => (d, &mut []),
        OutputMut::Sparse(v) => (scratch_dense, v),
    };
    let mut run = Run {
        tape,
        csf,
        root,
        leaf_lo,
        factors,
        buffers,
        out_dense,
        out_sparse,
        st,
        stats: run_stats,
        // A no-op guard costs a branch per root-frame advance; skip
        // even that for ungated runs.
        guard: guard.filter(|g| !g.is_noop()),
    };
    run.go()
}

struct Run<'a> {
    tape: &'a CompiledTape,
    csf: &'a Csf,
    root: Range<usize>,
    leaf_lo: usize,
    factors: &'a [DenseTensor],
    buffers: &'a mut [DenseTensor],
    out_dense: &'a mut DenseTensor,
    out_sparse: &'a mut [f64],
    st: &'a mut TapeState,
    stats: &'a mut ExecStats,
    guard: Option<&'a RunGuard>,
}

impl<'a> Run<'a> {
    fn go(&mut self) -> Result<()> {
        let instrs = &self.tape.instrs;
        let mut pc = 0usize;
        if let Some(g) = self.guard {
            g.check("tape")?;
        }
        while pc < instrs.len() {
            match instrs[pc] {
                Instr::Zero { term } => {
                    self.buffers[term].fill_zero();
                    pc += 1;
                }
                Instr::Dense { dim, end, .. } => {
                    if dim == 0 {
                        pc = end;
                        continue;
                    }
                    self.push_frame(Frame {
                        instr: pc,
                        pos: 0,
                        end: dim,
                        prev: 0,
                    });
                    pc += 1;
                }
                Instr::Sparse { level, adv, end } => {
                    let range = self.level_range(level);
                    if range.is_empty() {
                        pc = end;
                        continue;
                    }
                    let node = range.start;
                    let coord = self.csf.node_coord(level, node);
                    self.st.nodes[level] = node;
                    self.advance(adv, coord as isize);
                    self.push_frame(Frame {
                        instr: pc,
                        pos: node,
                        end: range.end,
                        prev: coord,
                    });
                    pc += 1;
                }
                Instr::EndLoop => {
                    let fi = self.st.fp - 1;
                    let f = self.st.frames[fi];
                    match instrs[f.instr] {
                        Instr::Dense { dim, adv, end, .. } => {
                            let x = f.pos + 1;
                            if x < dim {
                                // Root-frame advance = once per root
                                // subtree: the cancellation checkpoint.
                                if fi == 0 {
                                    if let Some(g) = self.guard {
                                        g.check("tape")?;
                                    }
                                }
                                self.st.frames[fi].pos = x;
                                self.advance(adv, 1);
                                pc = f.instr + 1;
                            } else {
                                // Restore the coordinate-0 cursor state.
                                self.advance(adv, -(f.pos as isize));
                                self.st.fp = fi;
                                pc = end;
                            }
                        }
                        Instr::Sparse { level, adv, end } => {
                            let node = f.pos + 1;
                            if node < f.end {
                                if fi == 0 {
                                    if let Some(g) = self.guard {
                                        g.check("tape")?;
                                    }
                                }
                                let coord = self.csf.node_coord(level, node);
                                self.st.nodes[level] = node;
                                self.advance(adv, coord as isize - f.prev as isize);
                                self.st.frames[fi].pos = node;
                                self.st.frames[fi].prev = coord;
                                pc = f.instr + 1;
                            } else {
                                self.advance(adv, -(f.prev as isize));
                                self.st.fp = fi;
                                pc = end;
                            }
                        }
                        _ => unreachable!("frame points at a loop header"),
                    }
                }
                Instr::Leaf(ScalarMul { left, right, tgt }) => {
                    let v = self.read(left) * self.read(right);
                    self.cell(tgt, v);
                    pc += 1;
                }
                // A call, a fused loop or a fiber: one walk.
                _ => pc += self.walk(pc)?,
            }
        }
        debug_assert_eq!(self.st.fp, 0, "all loops exited");
        Ok(())
    }

    /// Run the walk at `pc` — a lone call, a lone fused loop, or a fiber
    /// over its two parts — in the tape's kernel tier, entered once, with
    /// every operand resolved once for the whole walk (see [`Walker`]);
    /// returns the instructions it spans.
    fn walk(&mut self, pc: usize) -> Result<usize> {
        let (tape, last) = (self.tape, self.tape.n_terms - 1);
        let (level, adv, head, tail) = match tape.instrs[pc] {
            Instr::Fiber { level, adv } => {
                let (head, tail) = (tape.instrs[pc + 1], tape.instrs[pc + 2]);
                (Some(level), adv, Some(head), tail)
            }
            i @ (Instr::SparseAxpy { level, adv, .. } | Instr::SparseDot { level, adv, .. }) => {
                (Some(level), adv, None, i)
            }
            call => (None, NO_ADV, None, call),
        };
        let (tb, sparse) = target_term(&tail, last);
        let ta = head.map_or(tb, |h| target_term(&h, last).0);
        let nodes = level.map_or(0..1, |l| self.level_range(l));
        // A walk over the tile roots keeps the root frame's cancellation
        // checkpoint, once per root child.
        let guard = self.guard.filter(|_| level.is_some() && self.st.fp == 0);
        // A lone call's one node stands for the tracked leaf. A lone walk
        // runs at its call site's rank, a fiber at its buffer's.
        let node = level.map_or_else(|| self.leaf_node(), |_| 0);
        let rank = head.map_or_else(|| site_rank(&tail), |_| 0);
        let Run {
            csf,
            leaf_lo,
            factors,
            buffers,
            out_dense,
            out_sparse,
            st,
            stats,
            ..
        } = self;
        let (low, rest, a, b) = split_walk(buffers, out_dense, out_sparse, ta, tb, sparse);
        let below = match (level, head) {
            (Some(l), Some(_)) => (&csf.level(l + 1).idx[..], &csf.level(l).ptr[..]),
            _ => (&[][..], &[][..]),
        };
        let walker = Walker {
            rs: Resolve {
                adv: &tape.adv,
                cursors: &st.cursors,
                factors,
                vals: csf.vals(),
                low,
                first: ta,
                rest,
                leaf_lo: *leaf_lo,
                node,
            },
            adv,
            below,
            ks: tape.kernels,
            coords: level.map_or(&[0][..], |l| &csf.level(l).idx[..]),
            nodes: nodes.clone(),
            guard,
            a,
            b,
            stats,
            rank,
        };
        walker.go(head, tail)?;
        // Where the unfused loops leave their nodes.
        if let (Some(level), Some(x)) = (level, nodes.last()) {
            self.st.nodes[level] = x;
            if let Some(k) = head.and_then(|_| self.csf.children(level, x).last()) {
                self.st.nodes[level + 1] = k;
            }
        }
        Ok(if head.is_some() { 3 } else { 1 })
    }

    #[inline]
    fn push_frame(&mut self, f: Frame) {
        self.st.frames[self.st.fp] = f;
        self.st.fp += 1;
    }

    /// Apply one coordinate delta to every cursor a loop advances.
    #[inline]
    fn advance(&mut self, adv: AdvRange, delta: isize) {
        if delta == 0 {
            return;
        }
        for e in &self.tape.adv[adv.0 as usize..adv.1 as usize] {
            let c = &mut self.st.cursors[e.cur];
            *c = c.wrapping_add_signed(delta * e.stride as isize);
        }
    }

    /// Node range a sparse loop at `level` iterates: the tile roots at
    /// level 0, the children of the node tracked at `level − 1` below.
    #[inline]
    fn level_range(&self, level: usize) -> Range<usize> {
        match level {
            0 => self.root.clone(),
            l => self.csf.children(l - 1, self.st.nodes[l - 1]),
        }
    }

    /// The node tracked at the leaf level, where every sparse value and
    /// pattern-sharing output cell lives.
    #[inline]
    fn leaf_node(&self) -> usize {
        self.st.nodes[self.tape.n_levels - 1]
    }

    /// Read a loop-invariant scalar source.
    #[inline]
    fn read(&self, r: Read) -> f64 {
        match r {
            Read::Cursor { buf, cur } => {
                let off = self.st.cursors[cur];
                match buf {
                    RBuf::Factor(i) => self.factors[i].as_slice()[off],
                    RBuf::Inter(u) => self.buffers[u].as_slice()[off],
                }
            }
            Read::SparseVal => self.csf.leaf_val(self.leaf_node()),
        }
    }

    /// Accumulate into a cell target.
    #[inline]
    fn cell(&mut self, tgt: Write, v: f64) {
        match tgt {
            Write::Cell { term, cur } => {
                let off = self.st.cursors[cur];
                if term + 1 == self.buffers.len() {
                    self.out_dense.as_mut_slice()[off] += v;
                } else {
                    self.buffers[term].as_mut_slice()[off] += v;
                }
            }
            Write::SparseCell => {
                let leaf = self.leaf_node();
                self.out_sparse[leaf - self.leaf_lo] += v;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Walks
// ---------------------------------------------------------------------

/// An operand offset resolved once per walk. Inside a fiber the
/// run's operands first move to the fiber's child at coordinate `co`
/// ([`Addr::shift`]); a walk then reaches its child node `x` at
/// coordinate `c` at `base + c·step + x·nstep`. `nstep` is 1 for the
/// sparse value and pattern-sharing cells, which live at the leaf node,
/// and 0 for a cursor, so no cursor is written per child.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Addr {
    base: usize,
    ostep: usize,
    step: usize,
    nstep: usize,
}

impl Addr {
    /// The node-indexed store of the sparse values.
    const LEAF: Addr = Addr {
        base: 0,
        ostep: 0,
        step: 0,
        nstep: 1,
    };

    /// Offset 0 wherever the walk stands: a whole fiber buffer's.
    const ORIGIN: Addr = Addr {
        base: 0,
        ostep: 0,
        step: 0,
        nstep: 0,
    };

    #[inline(always)]
    fn shift(self, co: usize) -> Addr {
        Addr {
            base: self.base.wrapping_add(co.wrapping_mul(self.ostep)),
            ostep: 0,
            ..self
        }
    }

    #[inline(always)]
    fn at(self, c: usize, x: usize) -> usize {
        (self.base)
            .wrapping_add(c.wrapping_mul(self.step))
            .wrapping_add(x.wrapping_mul(self.nstep))
    }

    /// The target's elements from child `x` at coordinate `c` on; where
    /// the part fills a local fiber buffer ([`FILL`]), `tgt` is that
    /// buffer, whole.
    #[inline(always)]
    fn sink<const BUF: u8>(self, c: usize, x: usize, tgt: &mut [f64]) -> &mut [f64] {
        if BUF == FILL {
            tgt
        } else {
            &mut tgt[self.at(c, x)..]
        }
    }
}

/// Where a walk's source lives: a store resolved for the walk, or the
/// target of a fiber's first part, which its second part reads.
#[derive(Debug, Clone, Copy)]
enum Src<'b> {
    Slice(&'b [f64]),
    First,
}

/// A resolved source operand.
#[derive(Debug, Clone, Copy)]
struct Opnd<'b> {
    src: Src<'b>,
    at: Addr,
}

impl<'b> Opnd<'b> {
    #[inline(always)]
    fn shift(self, co: usize) -> Opnd<'b> {
        Opnd {
            at: self.at.shift(co),
            ..self
        }
    }

    /// The operand's store, `first` being the first part's target. A
    /// part holding its fiber's buffer locally (`BUF != MEM`) reads it
    /// through [`Opnd::drain`] only, so here `first` is not passed on:
    /// the local array's address never meets another operand's.
    #[inline(always)]
    fn store<'c, const BUF: u8>(self, first: &'c [f64]) -> &'c [f64]
    where
        'b: 'c,
    {
        match self.src {
            Src::Slice(s) => s,
            Src::First if BUF == MEM => first,
            Src::First => &[],
        }
    }

    /// The operand's elements from child `x` at coordinate `c` on.
    #[inline(always)]
    fn at<'c, const BUF: u8>(self, c: usize, x: usize, first: &'c [f64]) -> &'c [f64]
    where
        'b: 'c,
    {
        &self.store::<BUF>(first)[self.at.at(c, x)..]
    }

    /// The operand's element at child `x`, coordinate `c`.
    #[inline(always)]
    fn get<const BUF: u8>(self, c: usize, x: usize, first: &[f64]) -> f64 {
        self.store::<BUF>(first)[self.at.at(c, x)]
    }

    /// [`Opnd::at`] for the operand a part drains its fiber's buffer
    /// through; where the buffer is local ([`DRAIN`]), `first` is it,
    /// whole.
    #[inline(always)]
    fn drain<'c, const BUF: u8>(self, c: usize, x: usize, first: &'c [f64]) -> &'c [f64]
    where
        'b: 'c,
    {
        if BUF == DRAIN {
            first
        } else {
            self.at::<BUF>(c, x, first)
        }
    }

    fn is_first(&self) -> bool {
        matches!(self.src, Src::First)
    }

    /// Whether the operand reads its fiber's first target whole: from
    /// offset 0 wherever the walk stands, at unit stride.
    fn reads_buf(&self, inc: usize) -> bool {
        self.is_first() && self.at == Addr::ORIGIN && inc == 1
    }
}

/// Resolves a walk's operands once: each one's store, from the
/// workspace split around the walk's targets, and its offset and steps,
/// from the cursors and the advance table.
#[derive(Clone, Copy)]
struct Resolve<'b> {
    adv: &'b [AdvEntry],
    cursors: &'b [usize],
    factors: &'b [DenseTensor],
    vals: &'b [f64],
    /// Buffers before the first target's term.
    low: &'b [DenseTensor],
    /// The first target's term.
    first: usize,
    /// Buffers after it, up to the second target's term.
    rest: &'b [DenseTensor],
    leaf_lo: usize,
    /// The node a walk's node 0 stands for at the leaf level: the
    /// tracked leaf for a lone call, whose one node is 0; 0 for a walk
    /// over CSF nodes.
    node: usize,
}

impl<'b> Resolve<'b> {
    /// The step a loop's advance entries `adv` give cursor `cur`.
    fn step(&self, adv: AdvRange, cur: usize) -> usize {
        (self.adv[adv.0 as usize..adv.1 as usize].iter())
            .filter(|e| e.cur == cur)
            .fold(0, |s, e| s.wrapping_add(e.stride))
    }

    /// Cursor `cur` under a walk of the loop owning `inner`, itself
    /// inside a fiber's walk of the loop owning `outer`.
    fn addr(&self, cur: usize, outer: AdvRange, inner: AdvRange) -> Addr {
        Addr {
            base: self.cursors[cur],
            ostep: self.step(outer, cur),
            step: self.step(inner, cur),
            nstep: 0,
        }
    }

    fn src(&self, buf: RBuf) -> Src<'b> {
        match buf {
            RBuf::Factor(i) => Src::Slice(self.factors[i].as_slice()),
            RBuf::Inter(u) if u < self.first => Src::Slice(self.low[u].as_slice()),
            RBuf::Inter(u) if u == self.first => Src::First,
            RBuf::Inter(u) => Src::Slice(self.rest[u - self.first - 1].as_slice()),
        }
    }

    fn read(&self, r: Read, outer: AdvRange, inner: AdvRange) -> Opnd<'b> {
        match r {
            Read::Cursor { buf, cur } => Opnd {
                src: self.src(buf),
                at: self.addr(cur, outer, inner),
            },
            Read::SparseVal => Opnd {
                src: Src::Slice(self.vals),
                at: Addr {
                    base: self.node,
                    ..Addr::LEAF
                },
            },
        }
    }

    fn vec(&self, v: VecSrc, outer: AdvRange, inner: AdvRange) -> Opnd<'b> {
        Opnd {
            src: self.src(v.buf),
            at: self.addr(v.cur, outer, inner),
        }
    }

    fn cell(&self, w: Write, outer: AdvRange, inner: AdvRange) -> Addr {
        match w {
            Write::Cell { cur, .. } => self.addr(cur, outer, inner),
            // `out_sparse[leaf − leaf_lo]`.
            Write::SparseCell => Addr {
                base: self.node.wrapping_sub(self.leaf_lo),
                ..Addr::LEAF
            },
        }
    }
}

/// An empty advance range: a loop that moves nothing.
const NO_ADV: AdvRange = (0, 0);

/// How a part of a walk reaches the buffer a fiber's first part writes
/// and its second part reads — the `BUF` parameter of [`Part::fire`].
/// `MEM`: through the workspace, every operand at its resolved address
/// (a lone call or fused loop, or a fiber whose buffer stays in memory).
const MEM: u8 = 0;
/// The part writes the fiber's buffer, a local `[f64; N]` passed whole
/// as its target.
const FILL: u8 = 1;
/// The part reads the fiber's local buffer, passed whole as `first`,
/// through its one operand that reads it ([`Opnd::drain`]).
const DRAIN: u8 = 2;

/// The chunks a walk runs `nodes` in: all at once without a guard;
/// with one, node by node, `guard` checked before every node but the
/// first — a walk over the tile roots keeps the root frame's
/// cancellation checkpoint, once per root child. The walk's body is the
/// caller's loop over each chunk, not a closure, so it compiles inside
/// the caller's kernel-tier region.
#[inline(always)]
fn guarded<'g>(
    nodes: Range<usize>,
    guard: Option<&'g RunGuard>,
) -> impl Iterator<Item = Result<Range<usize>>> + 'g {
    let step = if guard.is_some() {
        1
    } else {
        nodes.len().max(1)
    };
    (nodes.clone()).step_by(step).map(move |x| {
        if let Some(g) = guard.filter(|_| x != nodes.start) {
            g.check("tape")?;
        }
        Ok(x..nodes.end.min(x + step))
    })
}

/// One call of a walk, resolved for the walk: fired per node the walk
/// stands on — a lone call once, a fiber's call per child of the fiber's
/// level, a fused loop's call per child of its parent ([`each`]). Its
/// kernel bodies are the tier's `L` at rank `N` (see [`crate::simd`]'s
/// kernel bodies).
trait Part {
    /// Whether the part is [`Nop`], the missing head of a lone walk.
    const ABSENT: bool = false;

    /// The call at node `x`, coordinate `c`, into the store `tgt`: its
    /// assigning twin when `assign`.
    fn fire<L: Lanes, const N: usize, const BUF: u8>(
        &self,
        l: L,
        c: usize,
        x: usize,
        first: &[f64],
        tgt: &mut [f64],
        assign: bool,
    );

    /// Whether the call is the assigning twin of a folded `Zero` — in a
    /// fused loop, on its first child only.
    fn assigns(&self) -> bool {
        false
    }

    /// Book the calls of a walk over `nodes`.
    fn count(&self, stats: &mut ExecStats, nodes: Range<usize>);

    /// As a fiber's first part: the length of the buffer it fills whole
    /// — at unit stride from offset 0, assigning, every operand
    /// contiguous — if it does.
    fn fills(&self) -> Option<usize> {
        None
    }

    /// As a fiber's second part: whether it reads the first part's
    /// `n`-long buffer whole through one operand and no other, every
    /// operand contiguous.
    fn drains(&self, n: usize) -> bool;
}

/// A part a fused loop fires per child: it moves with a fiber's node.
trait Fused: Part {
    /// The part with every operand moved to a fiber's child at
    /// coordinate `co` ([`Addr::shift`]).
    fn shift(&self, co: usize) -> Self;
}

/// A fused loop's walk: `p` fired per node of `nodes` (coordinates
/// `coords`), the first assigning where a `Zero` folded into the call
/// and `peel` says `nodes` starts the loop.
#[inline(always)]
fn each<P: Part, L: Lanes, const N: usize, const BUF: u8>(
    p: &P,
    l: L,
    coords: &[usize],
    mut nodes: Range<usize>,
    first: &[f64],
    tgt: &mut [f64],
    peel: bool,
) {
    if peel && p.assigns() {
        if let Some(x) = nodes.next() {
            p.fire::<L, N, BUF>(l, coords[x], x, first, tgt, true);
        }
    }
    for x in nodes {
        p.fire::<L, N, BUF>(l, coords[x], x, first, tgt, false);
    }
}

/// The head of a lone call or fused loop: none.
struct Nop;

impl Part for Nop {
    const ABSENT: bool = true;

    #[inline(always)]
    fn fire<L: Lanes, const N: usize, const BUF: u8>(
        &self,
        _: L,
        _: usize,
        _: usize,
        _: &[f64],
        _: &mut [f64],
        _: bool,
    ) {
    }

    fn count(&self, _: &mut ExecStats, _: Range<usize>) {}

    fn drains(&self, _: usize) -> bool {
        false
    }
}

/// A fiber's fused loop: its part fired per child of the fiber's node
/// `x` (children `ptr[x]..ptr[x + 1]`, coordinates `coords`), moved to
/// `x`'s coordinate first.
struct Each<'w, P> {
    part: P,
    coords: &'w [usize],
    ptr: &'w [usize],
}

impl<P: Fused> Part for Each<'_, P> {
    #[inline(always)]
    fn fire<L: Lanes, const N: usize, const BUF: u8>(
        &self,
        l: L,
        c: usize,
        x: usize,
        first: &[f64],
        tgt: &mut [f64],
        _: bool,
    ) {
        let (part, kids) = (self.part.shift(c), self.ptr[x]..self.ptr[x + 1]);
        each::<P, L, N, BUF>(&part, l, self.coords, kids, first, tgt, true);
    }

    fn count(&self, stats: &mut ExecStats, nodes: Range<usize>) {
        (self.part).count(stats, self.ptr[nodes.start]..self.ptr[nodes.end]);
    }

    fn fills(&self) -> Option<usize> {
        self.part.fills()
    }

    fn drains(&self, n: usize) -> bool {
        self.part.drains(n)
    }
}

/// An AXPY `y += alpha · x`: a call, or a sparse-AXPY loop's per child.
#[derive(Clone, Copy)]
struct AxpyCall<'b> {
    n: usize,
    alpha: Opnd<'b>,
    x: Opnd<'b>,
    xinc: usize,
    y: Addr,
    yinc: usize,
    assign: bool,
}

impl Part for AxpyCall<'_> {
    #[inline(always)]
    fn fire<L: Lanes, const N: usize, const BUF: u8>(
        &self,
        l: L,
        c: usize,
        x: usize,
        first: &[f64],
        tgt: &mut [f64],
        assign: bool,
    ) {
        let a = self.alpha.get::<BUF>(c, x, first);
        let xs = self.x.drain::<BUF>(c, x, first);
        let (ys, (n, xinc, yinc)) = (
            self.y.sink::<BUF>(c, x, tgt),
            (self.n, self.xinc, self.yinc),
        );
        if assign {
            axpy::<L, N, true>(l, n, a, xs, xinc, ys, yinc);
        } else {
            axpy::<L, N, false>(l, n, a, xs, xinc, ys, yinc);
        }
    }

    fn assigns(&self) -> bool {
        self.assign
    }

    fn count(&self, stats: &mut ExecStats, nodes: Range<usize>) {
        stats.axpy += nodes.len() as u64;
        stats.axpy_elems += (nodes.len() * self.n) as u64;
    }

    fn fills(&self) -> Option<usize> {
        let whole = self.assign && self.y == Addr::ORIGIN && self.yinc == 1;
        (whole && self.xinc == 1).then_some(self.n)
    }

    fn drains(&self, n: usize) -> bool {
        self.n == n && self.x.reads_buf(self.xinc) && !self.alpha.is_first() && self.yinc == 1
    }
}

impl Fused for AxpyCall<'_> {
    #[inline(always)]
    fn shift(&self, co: usize) -> Self {
        AxpyCall {
            alpha: self.alpha.shift(co),
            x: self.x.shift(co),
            y: self.y.shift(co),
            ..*self
        }
    }
}

/// A sparse-DOT loop's per child: `d = x·y`, then the leaf with the
/// folded term's reads (`None`) taken as `0.0 + d`. `y` is the operand
/// that reads a fiber's buffer, if either does.
#[derive(Clone, Copy)]
struct DotLeaf<'b> {
    n: usize,
    x: Opnd<'b>,
    xinc: usize,
    y: Opnd<'b>,
    yinc: usize,
    left: Option<Opnd<'b>>,
    right: Option<Opnd<'b>>,
    tgt: Addr,
}

impl Part for DotLeaf<'_> {
    #[inline(always)]
    fn fire<L: Lanes, const N: usize, const BUF: u8>(
        &self,
        l: L,
        c: usize,
        node: usize,
        first: &[f64],
        tgt: &mut [f64],
        _: bool,
    ) {
        let (xs, ys) = (
            self.x.at::<BUF>(c, node, first),
            self.y.drain::<BUF>(c, node, first),
        );
        // What `Zero; Dot` left in the cell: +0.0 for a -0.0 product, as
        // the unfused add gives.
        let d = 0.0 + dot::<L, N>(l, self.n, xs, self.xinc, ys, self.yinc);
        let lv = self.left.map_or(d, |o| o.get::<BUF>(c, node, first));
        let rv = self.right.map_or(d, |o| o.get::<BUF>(c, node, first));
        tgt[self.tgt.at(c, node)] += lv * rv;
    }

    fn count(&self, stats: &mut ExecStats, nodes: Range<usize>) {
        stats.dot += nodes.len() as u64;
        stats.dot_elems += (nodes.len() * self.n) as u64;
    }

    fn drains(&self, n: usize) -> bool {
        let first = |o: Option<Opnd>| o.is_some_and(|o| o.is_first());
        self.n == n
            && self.y.reads_buf(self.yinc)
            && !self.x.is_first()
            && self.xinc == 1
            && !first(self.left)
            && !first(self.right)
    }
}

impl Fused for DotLeaf<'_> {
    #[inline(always)]
    fn shift(&self, co: usize) -> Self {
        DotLeaf {
            x: self.x.shift(co),
            y: self.y.shift(co),
            left: self.left.map(|o| o.shift(co)),
            right: self.right.map(|o| o.shift(co)),
            tgt: self.tgt.shift(co),
            ..*self
        }
    }
}

/// An XMUL call; `z` is the operand that reads a fiber's buffer, if
/// either does.
struct XmulCall<'b> {
    n: usize,
    x: Opnd<'b>,
    xinc: usize,
    z: Opnd<'b>,
    zinc: usize,
    y: Addr,
    yinc: usize,
    assign: bool,
}

impl Part for XmulCall<'_> {
    #[inline(always)]
    fn fire<L: Lanes, const N: usize, const BUF: u8>(
        &self,
        l: L,
        c: usize,
        x: usize,
        first: &[f64],
        tgt: &mut [f64],
        assign: bool,
    ) {
        let (xs, zs) = (
            self.x.at::<BUF>(c, x, first),
            self.z.drain::<BUF>(c, x, first),
        );
        let ys = self.y.sink::<BUF>(c, x, tgt);
        let (n, xinc, zinc, yinc) = (self.n, self.xinc, self.zinc, self.yinc);
        if assign {
            xmul::<L, N, true>(l, n, 1.0, xs, xinc, zs, zinc, ys, yinc);
        } else {
            xmul::<L, N, false>(l, n, 1.0, xs, xinc, zs, zinc, ys, yinc);
        }
    }

    fn assigns(&self) -> bool {
        self.assign
    }

    fn count(&self, stats: &mut ExecStats, nodes: Range<usize>) {
        stats.xmul += nodes.len() as u64;
        stats.xmul_elems += (nodes.len() * self.n) as u64;
    }

    fn fills(&self) -> Option<usize> {
        let whole = self.assign && self.y == Addr::ORIGIN && self.yinc == 1;
        (whole && self.xinc == 1 && self.zinc == 1).then_some(self.n)
    }

    fn drains(&self, n: usize) -> bool {
        let rest = !self.x.is_first() && self.xinc == 1 && self.yinc == 1;
        self.n == n && self.z.reads_buf(self.zinc) && rest
    }
}

/// A GER call.
struct GerCall<'b> {
    m: usize,
    n: usize,
    x: Opnd<'b>,
    xinc: usize,
    y: Opnd<'b>,
    yinc: usize,
    a: Addr,
    rs: usize,
    cs: usize,
    assign: bool,
}

impl Part for GerCall<'_> {
    #[inline(always)]
    fn fire<L: Lanes, const N: usize, const BUF: u8>(
        &self,
        l: L,
        c: usize,
        x: usize,
        first: &[f64],
        tgt: &mut [f64],
        assign: bool,
    ) {
        let (xs, ys) = (
            self.x.at::<BUF>(c, x, first),
            self.y.drain::<BUF>(c, x, first),
        );
        let a = self.a.sink::<BUF>(c, x, tgt);
        let (m, n, xinc, yinc, rs, cs) = (self.m, self.n, self.xinc, self.yinc, self.rs, self.cs);
        if assign {
            ger::<L, N, true>(l, m, n, 1.0, xs, xinc, ys, yinc, a, rs, cs);
        } else {
            ger::<L, N, false>(l, m, n, 1.0, xs, xinc, ys, yinc, a, rs, cs);
        }
    }

    fn assigns(&self) -> bool {
        self.assign
    }

    fn count(&self, stats: &mut ExecStats, nodes: Range<usize>) {
        stats.ger += nodes.len() as u64;
        stats.ger_elems += (nodes.len() * self.m * self.n) as u64;
    }

    fn drains(&self, n: usize) -> bool {
        self.n == n && self.y.reads_buf(self.yinc) && !self.x.is_first() && self.cs == 1
    }
}

/// A GEMV call.
struct GemvCall<'b> {
    m: usize,
    n: usize,
    a: Opnd<'b>,
    rs: usize,
    cs: usize,
    x: Opnd<'b>,
    xinc: usize,
    y: Addr,
    yinc: usize,
}

impl Part for GemvCall<'_> {
    #[inline(always)]
    fn fire<L: Lanes, const N: usize, const BUF: u8>(
        &self,
        l: L,
        c: usize,
        x: usize,
        first: &[f64],
        tgt: &mut [f64],
        _: bool,
    ) {
        let (a, xs) = (
            self.a.at::<BUF>(c, x, first),
            self.x.drain::<BUF>(c, x, first),
        );
        let y = self.y.sink::<BUF>(c, x, tgt);
        let (m, n, rs, cs) = (self.m, self.n, self.rs, self.cs);
        gemv::<L, N>(l, m, n, 1.0, a, rs, cs, xs, self.xinc, y, self.yinc);
    }

    fn count(&self, stats: &mut ExecStats, nodes: Range<usize>) {
        stats.gemv += nodes.len() as u64;
        stats.gemv_elems += (nodes.len() * self.m * self.n) as u64;
    }

    fn drains(&self, n: usize) -> bool {
        self.n == n && self.x.reads_buf(self.xinc) && !self.a.is_first() && self.cs == 1
    }
}

/// A DOT call into one cell; `y` is the operand that reads a fiber's
/// buffer, if either does.
struct DotCell<'b> {
    n: usize,
    x: Opnd<'b>,
    xinc: usize,
    y: Opnd<'b>,
    yinc: usize,
    cell: Addr,
}

impl Part for DotCell<'_> {
    #[inline(always)]
    fn fire<L: Lanes, const N: usize, const BUF: u8>(
        &self,
        l: L,
        c: usize,
        x: usize,
        first: &[f64],
        tgt: &mut [f64],
        _: bool,
    ) {
        let (xs, ys) = (
            self.x.at::<BUF>(c, x, first),
            self.y.drain::<BUF>(c, x, first),
        );
        tgt[self.cell.at(c, x)] += dot::<L, N>(l, self.n, xs, self.xinc, ys, self.yinc);
    }

    fn count(&self, stats: &mut ExecStats, nodes: Range<usize>) {
        stats.dot += nodes.len() as u64;
        stats.dot_elems += (nodes.len() * self.n) as u64;
    }

    fn drains(&self, n: usize) -> bool {
        self.n == n && self.y.reads_buf(self.yinc) && !self.x.is_first() && self.xinc == 1
    }
}

/// The term an instruction's writes land in, and whether they are
/// pattern-sharing output cells.
fn target_term(i: &Instr, last: usize) -> (usize, bool) {
    let of_write = |w: Write| match w {
        Write::Cell { term, .. } => (term, false),
        Write::SparseCell => (last, true),
    };
    match *i {
        Instr::Axpy(AxpyArgs { term, .. })
        | Instr::SparseAxpy {
            axpy: AxpyArgs { term, .. },
            ..
        }
        | Instr::Xmul { term, .. }
        | Instr::Ger { term, .. }
        | Instr::Gemv { term, .. } => (term, false),
        Instr::Dot { tgt, .. } => of_write(tgt),
        Instr::SparseDot { leaf, .. } => of_write(leaf.tgt),
        _ => unreachable!("the verifier admits only calls and fused loops in a fiber"),
    }
}

/// A walk ready to run but for its parts, as [`Run::walk`] resolved it:
/// the operands' resolver, the advance range of the walked loop (none
/// for a lone call), a fiber's children — their coordinates and each
/// node's range — and what the carrier ([`Walk`]) walks, writes and
/// books. A lone walk's `rank` is its call site's.
struct Walker<'w> {
    rs: Resolve<'w>,
    adv: AdvRange,
    below: (&'w [usize], &'w [usize]),
    ks: KernelSet,
    coords: &'w [usize],
    nodes: Range<usize>,
    guard: Option<&'w RunGuard>,
    a: &'w mut [f64],
    b: &'w mut [f64],
    stats: &'w mut ExecStats,
    rank: usize,
}

impl<'w> Walker<'w> {
    /// Resolve the walk's parts from their instructions and run it: the
    /// one dispatch, naming only the shapes the compiler emits — five
    /// lone calls, two lone fused loops and nine fibers (a sparse-AXPY
    /// loop before any call, an AXPY or XMUL before either fused loop).
    fn go(self, head: Option<Instr>, tail: Instr) -> Result<()> {
        let (rs, adv) = (self.rs, self.adv);
        match (head, tail) {
            (None, Instr::SparseAxpy { axpy, .. }) => {
                self.run(&Nop, &axpy_call(&rs, axpy, NO_ADV, adv))
            }
            (None, Instr::SparseDot { .. }) => self.run(&Nop, &dot_leaf(&rs, &tail, NO_ADV, adv)),
            (None, call) => self.call(&Nop, call),
            (
                Some(Instr::SparseAxpy {
                    axpy, adv: inner, ..
                }),
                call,
            ) => {
                let run = self.each(axpy_call(&rs, axpy, adv, inner));
                self.call(&run, call)
            }
            (Some(Instr::Axpy(c)), run) => self.fused(&axpy_call(&rs, c, NO_ADV, adv), run),
            (Some(call), run) => self.fused(&xmul_call(&rs, &call, adv), run),
        }
    }

    /// The walk whose tail is the call `i`: a lone call, or a fiber's
    /// after its fused loop `head`.
    fn call<H: Part>(self, head: &H, i: Instr) -> Result<()> {
        let (rs, adv) = (self.rs, self.adv);
        match i {
            Instr::Axpy(c) => self.run(head, &axpy_call(&rs, c, NO_ADV, adv)),
            Instr::Xmul { .. } => self.run(head, &xmul_call(&rs, &i, adv)),
            Instr::Ger { .. } => self.run(head, &ger_call(&rs, &i, adv)),
            Instr::Gemv { .. } => self.run(head, &gemv_call(&rs, &i, adv)),
            _ => self.run(head, &dot_cell(&rs, &i, adv)),
        }
    }

    /// The fiber whose tail is the fused loop `i`, after the call `head`.
    fn fused<H: Part>(self, head: &H, i: Instr) -> Result<()> {
        let (rs, adv) = (self.rs, self.adv);
        match i {
            Instr::SparseAxpy {
                axpy, adv: inner, ..
            } => {
                let run = self.each(axpy_call(&rs, axpy, adv, inner));
                self.run(head, &run)
            }
            Instr::SparseDot { adv: inner, .. } => {
                let run = self.each(dot_leaf(&rs, &i, adv, inner));
                self.run(head, &run)
            }
            _ => unreachable!("the verifier proves a fiber's run a fused loop"),
        }
    }

    /// A fiber's fused loop over `part`.
    fn each<P: Fused>(&self, part: P) -> Each<'w, P> {
        let (coords, ptr) = self.below;
        Each { part, coords, ptr }
    }

    /// Enter the carrier with `head` and `tail` in the walk's tier, and
    /// book their calls. A fiber holds its buffer locally where its head
    /// fills it whole and its tail drains it whole, at a fixed rank;
    /// otherwise it runs the generic instance through the workspace.
    /// Out of line: one instance per walk shape, not a copy per arm.
    #[inline(never)]
    fn run<H: Part, T: Part>(self, head: &H, tail: &T) -> Result<()> {
        let Walker {
            ks,
            coords,
            nodes,
            guard,
            a,
            b,
            stats,
            rank,
            ..
        } = self;
        let local = head
            .fills()
            .filter(|&n| unrolled(n, true) && tail.drains(n));
        ks.enter(Walk {
            coords,
            nodes: nodes.clone(),
            guard,
            head,
            tail,
            a,
            b,
            rank: local.unwrap_or(rank),
        })?;
        head.count(stats, nodes.clone());
        tail.count(stats, nodes);
        Ok(())
    }
}

/// The one carrier of the tape's walks, compiled per kernel tier and per
/// rank: per node of `nodes` (coordinates `coords`), the `head` and then
/// the `tail` — a fiber's call and fused loop ([`Each`]), in program
/// order. The head writes `a`; the tail reads what it wrote and writes
/// `b`. Where the rank is a fiber's buffer length, the buffer is a local
/// `[f64; N]` instead of `a`. A lone call or fused loop has no head
/// ([`Nop`]): its tail is a fused loop over the nodes ([`each`]), a lone
/// call's one node standing for the tracked leaf.
struct Walk<'w, H, T> {
    coords: &'w [usize],
    nodes: Range<usize>,
    guard: Option<&'w RunGuard>,
    head: &'w H,
    tail: &'w T,
    a: &'w mut [f64],
    b: &'w mut [f64],
    rank: usize,
}

impl<H: Part, T: Part> Body for Walk<'_, H, T> {
    type Out = Result<()>;

    #[inline(always)]
    fn run<L: Lanes>(self, l: L) -> Result<()> {
        at_rank!(self.rank, N => self.walk::<L, N>(l))
    }
}

impl<H: Part, T: Part> Walk<'_, H, T> {
    #[inline(always)]
    fn walk<L: Lanes, const N: usize>(self, l: L) -> Result<()> {
        let Self {
            coords,
            nodes,
            guard,
            head,
            tail,
            a,
            b,
            ..
        } = self;
        let start = nodes.start;
        // A fiber's buffer, in registers when the rank is fixed.
        let mut buf = [0.0; N];
        for nodes in guarded(nodes, guard) {
            let nodes = nodes?;
            if H::ABSENT {
                let peel = nodes.start == start;
                each::<T, L, N, MEM>(tail, l, coords, nodes, &[], b, peel);
                continue;
            }
            for x in nodes {
                let c = coords[x];
                if N == 0 {
                    head.fire::<L, 0, MEM>(l, c, x, &[], a, head.assigns());
                    tail.fire::<L, 0, MEM>(l, c, x, a, b, tail.assigns());
                } else {
                    head.fire::<L, N, FILL>(l, c, x, &[], &mut buf, head.assigns());
                    tail.fire::<L, N, DRAIN>(l, c, x, &buf, b, tail.assigns());
                }
            }
        }
        Ok(())
    }
}

/// The rank a call site's body runs at: its trip count where the site
/// takes an unrolled body, else 0 (see [`crate::simd`]).
fn site_rank(i: &Instr) -> usize {
    call_site(i).map_or(0, |(n, contig)| rank(n, contig))
}

/// Split the workspace around a walk's targets: term `ta`, a fiber's
/// first part's (`ta == tb` for a lone call or fused loop, which has no
/// first part), and term `tb`, the last part's (`sparse`: pattern-
/// sharing output cells). Returns the buffers before `ta`, those
/// strictly between the two, and both targets' stores.
fn split_walk<'b>(
    buffers: &'b mut [DenseTensor],
    out_dense: &'b mut DenseTensor,
    out_sparse: &'b mut [f64],
    ta: usize,
    tb: usize,
    sparse: bool,
) -> (
    &'b [DenseTensor],
    &'b [DenseTensor],
    &'b mut [f64],
    &'b mut [f64],
) {
    let out = tb + 1 == buffers.len();
    let (low, high) = buffers.split_at_mut(tb);
    let b: &mut [f64] = match (out, sparse) {
        (true, true) => out_sparse,
        (true, false) => out_dense.as_mut_slice(),
        (false, _) => high[0].as_mut_slice(),
    };
    if ta == tb {
        return (low, &[], &mut [], b);
    }
    let (low, mid) = low.split_at_mut(ta);
    let (a, rest) = mid
        .split_first_mut()
        .expect("the first target precedes the second");
    (low, rest, a.as_mut_slice(), b)
}

// The parts of a walk, resolved from their instructions: a fiber's
// fused loop's operands move with the loop's advance table `inner`
// inside the fiber's `outer`; every other part's with the walk's `adv`
// (a lone fused loop's, a fiber's, none for a lone call). Where the
// product commutes (XMUL's `x·z`, DOT's `x·y`, bitwise alike either way
// round), the operand that reads a fiber's first target goes second.

// Out of line, like the other resolvers: five dispatch arms call it,
// once per walk.
#[inline(never)]
fn axpy_call<'b>(rs: &Resolve<'b>, c: AxpyArgs, outer: AdvRange, inner: AdvRange) -> AxpyCall<'b> {
    AxpyCall {
        n: c.n,
        alpha: rs.read(c.alpha, outer, inner),
        x: rs.vec(c.x, outer, inner),
        xinc: c.x.inc,
        y: rs.addr(c.y.cur, outer, inner),
        yinc: c.y.inc,
        assign: c.assign,
    }
}

/// DOT's operands, the one that reads a fiber's first target second.
fn dot_pair<'b>(
    rs: &Resolve<'b>,
    dot: DotCall,
    outer: AdvRange,
    inner: AdvRange,
) -> ((Opnd<'b>, usize), (Opnd<'b>, usize)) {
    let x = (rs.vec(dot.x, outer, inner), dot.x.inc);
    let y = (rs.vec(dot.y, outer, inner), dot.y.inc);
    if x.0.is_first() {
        (y, x)
    } else {
        (x, y)
    }
}

fn dot_leaf<'b>(rs: &Resolve<'b>, i: &Instr, outer: AdvRange, inner: AdvRange) -> DotLeaf<'b> {
    let Instr::SparseDot {
        term, dot, leaf, ..
    } = *i
    else {
        unreachable!("a sparse-DOT loop")
    };
    let read = |r: Read| (!reads_term(r, term)).then(|| rs.read(r, outer, inner));
    let ((x, xinc), (y, yinc)) = dot_pair(rs, dot, outer, inner);
    DotLeaf {
        n: dot.n,
        x,
        xinc,
        y,
        yinc,
        left: read(leaf.left),
        right: read(leaf.right),
        tgt: rs.cell(leaf.tgt, outer, inner),
    }
}

fn xmul_call<'b>(rs: &Resolve<'b>, i: &Instr, adv: AdvRange) -> XmulCall<'b> {
    let Instr::Xmul {
        n, x, z, y, assign, ..
    } = *i
    else {
        unreachable!("an XMUL")
    };
    let ((x, xinc), (z, zinc)) = dot_pair(rs, DotCall { n, x, y: z }, NO_ADV, adv);
    XmulCall {
        n,
        x,
        xinc,
        z,
        zinc,
        y: rs.addr(y.cur, NO_ADV, adv),
        yinc: y.inc,
        assign,
    }
}

fn ger_call<'b>(rs: &Resolve<'b>, i: &Instr, adv: AdvRange) -> GerCall<'b> {
    let Instr::Ger {
        m,
        n,
        x,
        y,
        a,
        assign,
        ..
    } = *i
    else {
        unreachable!("a GER")
    };
    GerCall {
        m,
        n,
        x: rs.vec(x, NO_ADV, adv),
        xinc: x.inc,
        y: rs.vec(y, NO_ADV, adv),
        yinc: y.inc,
        a: rs.addr(a.cur, NO_ADV, adv),
        rs: a.rs,
        cs: a.cs,
        assign,
    }
}

fn gemv_call<'b>(rs: &Resolve<'b>, i: &Instr, adv: AdvRange) -> GemvCall<'b> {
    let Instr::Gemv { m, n, a, x, y, .. } = *i else {
        unreachable!("a GEMV")
    };
    GemvCall {
        m,
        n,
        a: Opnd {
            src: rs.src(a.buf),
            at: rs.addr(a.cur, NO_ADV, adv),
        },
        rs: a.rs,
        cs: a.cs,
        x: rs.vec(x, NO_ADV, adv),
        xinc: x.inc,
        y: rs.addr(y.cur, NO_ADV, adv),
        yinc: y.inc,
    }
}

fn dot_cell<'b>(rs: &Resolve<'b>, i: &Instr, adv: AdvRange) -> DotCell<'b> {
    let Instr::Dot { dot, tgt } = *i else {
        unreachable!("a DOT")
    };
    let ((x, xinc), (y, yinc)) = dot_pair(rs, dot, NO_ADV, adv);
    DotCell {
        n: dot.n,
        x,
        xinc,
        y,
        yinc,
        cell: rs.cell(tgt, NO_ADV, adv),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::Digests;
    use crate::simd::KernelSel;
    use rand::prelude::*;
    use spttn_ir::{buffers_for_forest, build_forest, parse_kernel, path_from_picks, NestSpec};
    use spttn_tensor::{random_coo, random_dense};

    /// One nest: expression, extents, nonzeros, path picks, loop orders,
    /// and the superinstructions it compiles to with fusion on.
    type Nest = (
        &'static str,
        &'static [(&'static str, usize)],
        usize,
        &'static [(usize, usize)],
        &'static [&'static [usize]],
        &'static [&'static str],
    );

    /// The fused shape an instruction is, if any.
    fn fused_shape(i: &Instr) -> Option<&'static str> {
        Some(match i {
            Instr::Axpy(AxpyArgs { assign: true, .. }) => "assigning Axpy",
            Instr::Xmul { assign: true, .. } => "assigning Xmul",
            Instr::Ger { assign: true, .. } => "assigning Ger",
            Instr::SparseAxpy {
                axpy: AxpyArgs { assign: true, .. },
                ..
            } => "SparseAxpy + Zero",
            Instr::SparseAxpy { .. } => "SparseAxpy",
            Instr::SparseDot { .. } => "SparseDot",
            Instr::Fiber { .. } => "Fiber",
            _ => return None,
        })
    }

    /// Every fused shape — a `Zero` folded into an AXPY, XMUL or GER, a
    /// sparse-AXPY loop with and without a folded `Zero`, the
    /// `Zero; Dot; Leaf` sparse-DOT loop, and fibers in both orders with
    /// every call a run-first tail can be — compiled from one forest
    /// reproduces its committed digest lines (suite `fused`): the
    /// unfused program's output bits and dispatch counts on the scalar
    /// tier, recorded from the loop-forest interpreter that ran it, and
    /// the x86 FMA tiers' own bits, shared by AVX2 and AVX-512. Every
    /// tier the host has runs the scalar tier's dispatch counts to
    /// ≤ 1e-9 of its output, and all compile one program. (The fused DOT
    /// loop reads `0.0 + d` where the unfused one stored `d` into a
    /// zeroed cell and loaded it; an assigning call writes `αx` where
    /// the unfused pair added it to zero.)
    #[test]
    fn fused_tapes_are_bitwise_the_unfused_tape() {
        let nests: [Nest; 14] = [
            (
                "S(i,j) = T(i,j) * U(i,r) * V(j,r)",
                &[("i", 9), ("j", 7), ("r", 32)],
                30,
                &[(1, 2), (0, 1)],
                &[&[0, 1, 2], &[0, 1]],
                &["SparseDot"],
            ),
            (
                "S(i,j,k) = T(i,j,k) * U(i,r) * V(j,r) * W(k,r)",
                &[("i", 6), ("j", 5), ("k", 7), ("r", 32)],
                80,
                &[(1, 2), (1, 2), (0, 1)],
                &[&[0, 1, 3], &[0, 1, 2, 3], &[0, 1, 2]],
                &["Fiber", "assigning Xmul", "SparseDot"],
            ),
            (
                "y(i) = T(i,j) * U(i,r) * V(j,r)",
                &[("i", 9), ("j", 7), ("r", 12)],
                30,
                &[(1, 2), (0, 1)],
                &[&[0, 1, 2], &[0, 1]],
                &["SparseDot"],
            ),
            (
                "S(i) = T(i) * U(i,r) * V(r)",
                &[("i", 40), ("r", 12)],
                15,
                &[(1, 2), (0, 1)],
                &[&[0, 1], &[0]],
                &["SparseDot"],
            ),
            // `X0(r) = T(i,j)·U(i,r)` is zeroed and swept once per `j`.
            (
                "Y(i,s) = T(i,j) * U(i,r) * V(j,r,s)",
                &[("i", 9), ("j", 7), ("r", 12), ("s", 5)],
                30,
                &[(0, 1), (0, 1)],
                &[&[0, 1, 2], &[0, 1, 3, 2]],
                &["assigning Axpy"],
            ),
            // `X0(r,s) = U(r)·V(s)`, one GER over the whole buffer.
            (
                "S(i) = T(i,r,s) * U(r) * V(s)",
                &[("i", 6), ("r", 4), ("s", 8)],
                40,
                &[(1, 2), (0, 1)],
                &[&[1, 2], &[0, 1, 2]],
                &["assigning Ger"],
            ),
            // Listing 3: `X0(s)` is zeroed in front of the inner `k` loop.
            (
                "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
                &[("i", 8), ("j", 9), ("k", 10), ("r", 4), ("s", 5)],
                120,
                &[(0, 2), (0, 1)],
                &[&[0, 1, 2, 4], &[0, 1, 4, 3]],
                &["Fiber", "SparseAxpy + Zero"],
            ),
            // Fibers whose run comes first, one per call the tail can be:
            // MTTKRP's XMUL, a DOT, an AXPY and a GEMV.
            (
                "A(i,a) = T(i,j,k) * B(j,a) * C(k,a)",
                &[("i", 8), ("j", 9), ("k", 10), ("a", 8)],
                120,
                &[(0, 2), (0, 1)],
                &[&[0, 1, 2, 3], &[0, 1, 3]],
                &["Fiber", "SparseAxpy + Zero"],
            ),
            (
                "y(i) = T(i,j,k) * B(j,a) * C(k,a)",
                &[("i", 8), ("j", 9), ("k", 10), ("a", 6)],
                120,
                &[(0, 2), (0, 1)],
                &[&[0, 1, 2, 3], &[0, 1, 3]],
                &["Fiber", "SparseAxpy + Zero"],
            ),
            (
                "O(i,a) = T(i,j,k) * B(j) * C(k,a)",
                &[("i", 8), ("j", 9), ("k", 10), ("a", 6)],
                120,
                &[(0, 2), (0, 1)],
                &[&[0, 1, 2, 3], &[0, 1, 3]],
                &["Fiber", "SparseAxpy + Zero"],
            ),
            (
                "O(i,r) = T(i,j,k) * D(j,m,r) * C(k,m)",
                &[("i", 8), ("j", 9), ("k", 10), ("m", 5), ("r", 3)],
                120,
                &[(0, 2), (0, 1)],
                &[&[0, 1, 2, 3], &[0, 1, 4, 3]],
                &["Fiber", "SparseAxpy + Zero"],
            ),
            // Fibers whose call comes first: an AXPY before a sparse-DOT
            // loop, an XMUL before a sparse-AXPY loop.
            (
                "S(i,j,k) = T(i,j,k) * U(i) * V(j,r) * W(k,r)",
                &[("i", 6), ("j", 5), ("k", 7), ("r", 9)],
                80,
                &[(1, 2), (1, 2), (0, 1)],
                &[&[0, 1, 3], &[0, 1, 2, 3], &[0, 1, 2]],
                &["Fiber", "assigning Axpy", "SparseDot"],
            ),
            (
                "O(i,r) = T(i,j,k) * U(i,r) * V(j,r)",
                &[("i", 6), ("j", 5), ("k", 7), ("r", 9)],
                80,
                &[(1, 2), (0, 1)],
                &[&[0, 1, 3], &[0, 1, 2, 3]],
                &["Fiber", "assigning Xmul", "SparseAxpy"],
            ),
            // A loop over the CSF roots keeps its `Zero`.
            (
                "A(a,b) = T(k) * B(k,a) * C(a,b)",
                &[("k", 7), ("a", 5), ("b", 3)],
                5,
                &[(0, 1), (0, 1)],
                &[&[0, 1], &[1, 2]],
                &["SparseAxpy"],
            ),
        ];
        let mut rng = StdRng::seed_from_u64(41);
        let mut digests = Digests::new("fused");
        for (n, (expr, dims, nnz, picks, orders, shapes)) in nests.into_iter().enumerate() {
            let kernel = parse_kernel(expr, dims).unwrap();
            let path = path_from_picks(&kernel, picks);
            let orders = orders.iter().map(|o| o.to_vec()).collect();
            let forest = build_forest(&kernel, &path, &NestSpec { orders }).unwrap();
            let specs = buffers_for_forest(&kernel, &path, &forest);
            let sparse_dims = kernel.ref_dims(kernel.sparse_ref());
            let coo = random_coo(&sparse_dims, nnz, &mut rng).unwrap();
            let csf = Csf::from_coo(&coo, &(0..sparse_dims.len()).collect::<Vec<_>>()).unwrap();
            let factors: Vec<DenseTensor> = (kernel.inputs.iter().enumerate())
                .map(|(slot, r)| {
                    if slot == kernel.sparse_input {
                        DenseTensor::zeros(&[])
                    } else {
                        random_dense(&kernel.ref_dims(r), &mut rng)
                    }
                })
                .collect();
            let run = |ks: KernelSet| {
                let mut ws = Workspace::from_specs(&kernel, &path, &forest, &specs);
                let mut dense = DenseTensor::zeros(&kernel.ref_dims(&kernel.output));
                let mut vals = vec![0.0; csf.nnz()];
                let out = if kernel.output_sparse {
                    OutputMut::Sparse(&mut vals)
                } else {
                    OutputMut::Dense(&mut dense)
                };
                let tape = CompiledTape::compile_with_kernels(&kernel, &path, &forest, &specs, ks)
                    .unwrap();
                let fused: Vec<_> = tape.instrs.iter().filter_map(fused_shape).collect();
                assert_eq!(fused.len(), tape.superinstructions());
                let (n, sup, spec) = (tape.num_instrs(), fused.len(), tape.specialized());
                let program = (n, sup, spec, tape.verify().unwrap());
                execute_tape_into(&tape, &kernel, &csf, &factors, &mut ws, out).unwrap();
                let vals: Vec<f64> = dense.as_slice().iter().chain(&vals).copied().collect();
                (fused, vals, ws.stats(), program)
            };
            let mut programs = Vec::new();
            let mut scalar = None;
            for sel in crate::simd::tests::tiers() {
                let ks = KernelSet { sel };
                let got = run(ks);
                programs.push(got.3);
                assert_eq!(&got.0[..], shapes, "{expr}");
                digests.record(n, "-", sel == KernelSel::Scalar, 1, &got.1, &got.2);
                let (vals, stats) = scalar.get_or_insert_with(|| (got.1.clone(), got.2));
                assert_eq!(got.2, *stats, "{expr}: same dispatches and elements");
                for (g, r) in got.1.iter().zip(vals.iter()) {
                    assert!((g - r).abs() <= 1e-9, "{expr} on {}", ks.name());
                }
            }
            assert!(
                programs.windows(2).all(|w| w[0] == w[1]),
                "{expr}: one program at every tier"
            );
        }
        digests.check();
    }

    impl Run<'_> {
        /// The per-call reference of the fused walks: instructions
        /// `pc..end` run as their unfused loops would run them, one call
        /// of the tape's kernel table per call, addressed through the
        /// cursors — a fiber's run then its call (or the call first) per
        /// child, a fused loop's first call assigning where it folded a
        /// `Zero`, a fused DOT read as `0.0 + d`.
        fn per_call(&mut self, mut pc: usize, end: usize) {
            while pc < end {
                let instr = self.tape.instrs[pc];
                pc += 1;
                match instr {
                    Instr::Zero { term } => self.buffers[term].fill_zero(),
                    Instr::Dense { dim, adv, end, .. } => {
                        for x in 0..dim {
                            self.advance(adv, (x > 0) as isize);
                            self.per_call(pc, end - 1);
                        }
                        self.advance(adv, 1 - dim.max(1) as isize);
                        pc = end;
                    }
                    Instr::Sparse { level, adv, end } => {
                        let body = pc;
                        self.each_node(level, adv, |r| r.per_call(body, end - 1));
                        pc = end;
                    }
                    Instr::EndLoop => unreachable!("loops run their bodies"),
                    Instr::Leaf(ScalarMul { left, right, tgt }) => {
                        let v = self.read(left) * self.read(right);
                        self.cell(tgt, v);
                    }
                    Instr::Fiber { level, adv } => {
                        let body = pc;
                        self.each_node(level, adv, |r| r.per_call(body, body + 2));
                        pc += 2;
                    }
                    Instr::SparseAxpy { level, adv, axpy } => {
                        let mut assign = axpy.assign;
                        self.each_node(level, adv, |r| {
                            r.table_call(instr, assign);
                            assign = false;
                        });
                    }
                    Instr::SparseDot {
                        level,
                        adv,
                        term,
                        dot,
                        leaf,
                    } => self.each_node(level, adv, |r| {
                        let d = 0.0 + r.table_dot(dot);
                        let read =
                            |r: &Run, o: Read| if reads_term(o, term) { d } else { r.read(o) };
                        let v = read(r, leaf.left) * read(r, leaf.right);
                        r.cell(leaf.tgt, v);
                    }),
                    Instr::Axpy(AxpyArgs { assign, .. })
                    | Instr::Xmul { assign, .. }
                    | Instr::Ger { assign, .. } => self.table_call(instr, assign),
                    _ => self.table_call(instr, false),
                }
            }
        }

        /// Run `body` on every node of a sparse loop at `level`, its
        /// cursors and tracked node moved as the unfused loop moves them.
        fn each_node(&mut self, level: usize, adv: AdvRange, mut body: impl FnMut(&mut Self)) {
            let mut prev = 0;
            for node in self.level_range(level) {
                let c = self.csf.node_coord(level, node);
                self.st.nodes[level] = node;
                self.advance(adv, c as isize - prev as isize);
                prev = c;
                body(self);
            }
            self.advance(adv, -(prev as isize));
        }

        fn src(&self, buf: RBuf, cur: usize) -> &[f64] {
            let s = match buf {
                RBuf::Factor(i) => self.factors[i].as_slice(),
                RBuf::Inter(u) => self.buffers[u].as_slice(),
            };
            &s[self.st.cursors[cur]..]
        }

        fn table_dot(&self, d: DotCall) -> f64 {
            let kern = self.tape.kernels.dot(d.n, d.x.inc == 1 && d.y.inc == 1).0;
            kern(
                d.n,
                self.src(d.x.buf, d.x.cur),
                d.x.inc,
                self.src(d.y.buf, d.y.cur),
                d.y.inc,
            )
        }

        /// One call of the kernel table, the assigning twin when `assign`.
        fn table_call(&mut self, i: Instr, assign: bool) {
            let ks = self.tape.kernels;
            if let Instr::Dot { dot, tgt } = i {
                let d = self.table_dot(dot);
                return self.cell(tgt, d);
            }
            let (term, _) = target_term(&i, self.tape.n_terms - 1);
            let alpha = match i {
                Instr::Axpy(c) | Instr::SparseAxpy { axpy: c, .. } => self.read(c.alpha),
                _ => 1.0,
            };
            // Calls read factors and earlier terms only: copy them out so
            // the target can be borrowed mutably beside them.
            let vec = |r: &Self, v: VecSrc| r.src(v.buf, v.cur).to_vec();
            let (x, y) = match i {
                Instr::Axpy(c) | Instr::SparseAxpy { axpy: c, .. } => (vec(self, c.x), vec![]),
                Instr::Xmul { x, z, .. } => (vec(self, x), vec(self, z)),
                Instr::Ger { x, y, .. } => (vec(self, x), vec(self, y)),
                Instr::Gemv { a, x, .. } => (self.src(a.buf, a.cur).to_vec(), vec(self, x)),
                _ => unreachable!("a call"),
            };
            let cursors = &self.st.cursors;
            let cur = |c: usize| cursors[c];
            let out = if term + 1 == self.buffers.len() {
                self.out_dense.as_mut_slice()
            } else {
                self.buffers[term].as_mut_slice()
            };
            match i {
                Instr::Axpy(c) | Instr::SparseAxpy { axpy: c, .. } => {
                    let kern = if assign {
                        ks.zaxpy()
                    } else {
                        ks.axpy(c.n, true, None).0
                    };
                    kern(c.n, alpha, &x, c.x.inc, &mut out[cur(c.y.cur)..], c.y.inc)
                }
                Instr::Xmul {
                    n, x: xs, z, y: t, ..
                } => {
                    let kern = if assign { ks.zxmul() } else { ks.xmul() };
                    kern(n, 1.0, &x, xs.inc, &y, z.inc, &mut out[cur(t.cur)..], t.inc)
                }
                Instr::Ger {
                    m,
                    n,
                    x: xs,
                    y: ys,
                    a,
                    ..
                } => {
                    let kern = if assign {
                        ks.zger()
                    } else {
                        ks.ger(n, true, None).0
                    };
                    kern(
                        m,
                        n,
                        1.0,
                        &x,
                        xs.inc,
                        &y,
                        ys.inc,
                        &mut out[cur(a.cur)..],
                        a.rs,
                        a.cs,
                    )
                }
                Instr::Gemv {
                    m,
                    n,
                    a,
                    x: xs,
                    y: t,
                    ..
                } => {
                    let at = cur(t.cur);
                    ks.gemv()(m, n, 1.0, &x, a.rs, a.cs, &y, xs.inc, &mut out[at..], t.inc)
                }
                _ => unreachable!("a call"),
            }
        }
    }

    /// One fused walk under test: expression, extents (`R`: the rank
    /// under test), path picks, loop orders, a factor and its transpose
    /// for the strided variant, and the walk's fused shape.
    type Walk = (
        &'static str,
        &'static [(&'static str, usize)],
        &'static [(usize, usize)],
        &'static [&'static [usize]],
        (&'static str, &'static str),
        &'static str,
    );

    /// The shape of a compiled program's first walk: a fiber and its
    /// parts, a lone fused loop, or a lone call that assigns nothing.
    fn walk_shape(tape: &CompiledTape) -> String {
        let name = |i: &Instr| {
            format!("{i:?}")
                .split([' ', '('])
                .next()
                .unwrap()
                .to_string()
        };
        let walk = |i: &Instr| match fused_shape(i) {
            Some(s) => !s.starts_with("assigning"),
            None => call_site(i).is_some(),
        };
        let at = tape.instrs.iter().position(walk).expect("a walk");
        match tape.instrs[at] {
            Instr::Fiber { .. } => {
                let (a, b) = (&tape.instrs[at + 1], &tape.instrs[at + 2]);
                format!("Fiber {} {}", name(a), name(b))
            }
            ref i => name(i),
        }
    }

    /// Every tier's walks — the nine fiber shapes, both lone fused
    /// loops and the five lone calls, at ranks 1, 7, 8, 16, 32 and 33,
    /// with contiguous and with strided operands — are bitwise the
    /// per-call reference
    /// ([`Run::per_call`]): the same kernel calls of the tier's table in
    /// the same order. The data hold zero nonzeros (the AXPY skip) and
    /// products that underflow to −0.0 (the DOT's `0.0 + d` rule, seen
    /// through an output that starts at −0.0), and each program also
    /// runs over an empty root range.
    #[test]
    fn tier_walks_are_bitwise_the_per_call_kernels() {
        const R: usize = 0;
        let walks: [Walk; 17] = [
            (
                "A(a,b) = T(k) * B(k,a) * C(a,b)",
                &[("k", 9), ("a", R), ("b", 3)],
                &[(0, 1), (0, 1)],
                &[&[0, 1], &[1, 2]],
                ("B(k,a)", "B(a,k)"),
                "SparseAxpy",
            ),
            (
                "A(i,a) = T(i,k) * C(k,a)",
                &[("i", 5), ("k", 6), ("a", R)],
                &[(0, 1)],
                &[&[0, 1, 2]],
                ("C(k,a)", "C(a,k)"),
                "SparseAxpy",
            ),
            (
                "S(i,j) = T(i,j) * U(i,r) * V(j,r)",
                &[("i", 5), ("j", 6), ("r", R)],
                &[(1, 2), (0, 1)],
                &[&[0, 1, 2], &[0, 1]],
                ("V(j,r)", "V(r,j)"),
                "SparseDot",
            ),
            (
                "A(i,a) = T(i,j,k) * B(j,a) * C(k,a)",
                &[("i", 4), ("j", 4), ("k", 5), ("a", R)],
                &[(0, 2), (0, 1)],
                &[&[0, 1, 2, 3], &[0, 1, 3]],
                ("C(k,a)", "C(a,k)"),
                "Fiber SparseAxpy Xmul",
            ),
            (
                "y(i) = T(i,j,k) * B(j,a) * C(k,a)",
                &[("i", 4), ("j", 4), ("k", 5), ("a", R)],
                &[(0, 2), (0, 1)],
                &[&[0, 1, 2, 3], &[0, 1, 3]],
                ("B(j,a)", "B(a,j)"),
                "Fiber SparseAxpy Dot",
            ),
            (
                "O(i,a) = T(i,j,k) * B(j) * C(k,a)",
                &[("i", 4), ("j", 4), ("k", 5), ("a", R)],
                &[(0, 2), (0, 1)],
                &[&[0, 1, 2, 3], &[0, 1, 3]],
                ("C(k,a)", "C(a,k)"),
                "Fiber SparseAxpy Axpy",
            ),
            (
                "O(i,r) = T(i,j,k) * D(j,m,r) * C(k,m)",
                &[("i", 4), ("j", 4), ("k", 5), ("m", R), ("r", 3)],
                &[(0, 2), (0, 1)],
                &[&[0, 1, 2, 3], &[0, 1, 4, 3]],
                ("C(k,m)", "C(m,k)"),
                "Fiber SparseAxpy Gemv",
            ),
            (
                "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
                &[("i", 4), ("j", 4), ("k", 5), ("r", 3), ("s", R)],
                &[(0, 2), (0, 1)],
                &[&[0, 1, 2, 4], &[0, 1, 4, 3]],
                ("S(i,r,s)", "S(i,s,r)"),
                "Fiber SparseAxpy Ger",
            ),
            (
                "S(i,j,k) = T(i,j,k) * U(i,r) * V(j,r) * W(k,r)",
                &[("i", 4), ("j", 4), ("k", 5), ("r", R)],
                &[(1, 2), (1, 2), (0, 1)],
                &[&[0, 1, 3], &[0, 1, 2, 3], &[0, 1, 2]],
                ("W(k,r)", "W(r,k)"),
                "Fiber Xmul SparseDot",
            ),
            (
                "S(i,j,k) = T(i,j,k) * U(i) * V(j,r) * W(k,r)",
                &[("i", 4), ("j", 4), ("k", 5), ("r", R)],
                &[(1, 2), (1, 2), (0, 1)],
                &[&[0, 1, 3], &[0, 1, 2, 3], &[0, 1, 2]],
                ("W(k,r)", "W(r,k)"),
                "Fiber Axpy SparseDot",
            ),
            (
                "O(i,r) = T(i,j,k) * U(i,r) * V(j,r)",
                &[("i", 4), ("j", 4), ("k", 5), ("r", R)],
                &[(1, 2), (0, 1)],
                &[&[0, 1, 3], &[0, 1, 2, 3]],
                ("O(i,r)", "O(r,i)"),
                "Fiber Xmul SparseAxpy",
            ),
            (
                "O(i,r) = T(i,j,k) * U(i) * V(j,r)",
                &[("i", 4), ("j", 4), ("k", 5), ("r", R)],
                &[(1, 2), (0, 1)],
                &[&[0, 1, 3], &[0, 1, 2, 3]],
                ("V(j,r)", "V(r,j)"),
                "Fiber Axpy SparseAxpy",
            ),
            // Lone calls: the first term is a dense-only tree in front of
            // the sparse one, its innermost loops one call.
            (
                "O(i,r) = T(i,j) * B(j) * D(j,r)",
                &[("i", 4), ("j", 5), ("r", R)],
                &[(1, 2), (0, 1)],
                &[&[1, 2], &[0, 1, 2]],
                ("D(j,r)", "D(r,j)"),
                "Axpy",
            ),
            (
                "O(i,r) = T(i,j) * B(j,r) * D(j,r)",
                &[("i", 4), ("j", 5), ("r", R)],
                &[(1, 2), (0, 1)],
                &[&[1, 2], &[0, 1, 2]],
                ("D(j,r)", "D(r,j)"),
                "Xmul",
            ),
            (
                "O(i,r) = T(i,j) * B(j,m) * D(m,r)",
                &[("i", 4), ("j", 5), ("m", 3), ("r", R)],
                &[(1, 2), (0, 1)],
                &[&[2, 1, 3], &[0, 1, 3]],
                ("D(m,r)", "D(r,m)"),
                "Ger",
            ),
            (
                "O(i,r) = T(i,j) * B(j,m) * D(m,r)",
                &[("i", 4), ("j", 5), ("m", R), ("r", 3)],
                &[(1, 2), (0, 1)],
                &[&[1, 3, 2], &[0, 1, 3]],
                ("D(m,r)", "D(r,m)"),
                "Gemv",
            ),
            (
                "O(i,j) = T(i,j) * B(j,m) * D(j,m)",
                &[("i", 4), ("j", 5), ("m", R)],
                &[(1, 2), (0, 1)],
                &[&[1, 2], &[0, 1]],
                ("D(j,m)", "D(m,j)"),
                "Dot",
            ),
        ];
        let mut rng = StdRng::seed_from_u64(43);
        let mut runs = 0;
        for (expr, dims, picks, orders, (plain, transposed), shape) in walks {
            for strided in [false, true] {
                let expr = match strided {
                    true => expr.replacen(plain, transposed, 1),
                    false => expr.to_string(),
                };
                for rank in [1, 7, 8, 16, 32, 33] {
                    let dims: Vec<(&str, usize)> = (dims.iter())
                        .map(|&(i, d)| (i, if d == R { rank } else { d }))
                        .collect();
                    let kernel = parse_kernel(&expr, &dims).unwrap();
                    let path = path_from_picks(&kernel, picks);
                    let orders = orders.iter().map(|o| o.to_vec()).collect();
                    let forest = build_forest(&kernel, &path, &NestSpec { orders })
                        .unwrap_or_else(|e| panic!("{expr}: {e:?}"));
                    let specs = buffers_for_forest(&kernel, &path, &forest);
                    let sparse_dims = kernel.ref_dims(kernel.sparse_ref());
                    let nnz = sparse_dims.iter().product::<usize>() / 2;
                    let coo = random_coo(&sparse_dims, nnz, &mut rng).unwrap();
                    let modes: Vec<usize> = (0..sparse_dims.len()).collect();
                    let mut csf = Csf::from_coo(&coo, &modes).unwrap();
                    // Zero nonzeros, the first leaf's among them: the
                    // AXPY skip, and a folded zero's first call.
                    let n = csf.nnz();
                    csf.vals_mut()[0] = 0.0;
                    csf.vals_mut()[n / 2] = 0.0;
                    let last = kernel.inputs.len() - 1;
                    for tiny in [false, true] {
                        // Tiny: every factor 1e-100, the last −1e-250, so
                        // a DOT of products of both underflows to −0.0.
                        let factors: Vec<DenseTensor> = (kernel.inputs.iter().enumerate())
                            .map(|(slot, r)| match slot {
                                s if s == kernel.sparse_input => DenseTensor::zeros(&[]),
                                s if tiny => {
                                    let v = if s == last { -1e-250 } else { 1e-100 };
                                    DenseTensor::from_fn(&kernel.ref_dims(r), |_| v)
                                }
                                _ => random_dense(&kernel.ref_dims(r), &mut rng),
                            })
                            .collect();
                        let nest = (&kernel, &path, &forest, &specs[..], &csf, &factors[..]);
                        for sel in crate::simd::tests::tiers() {
                            let ks = KernelSet { sel };
                            let tape = CompiledTape::compile_with_kernels(
                                &kernel, &path, &forest, &specs, ks,
                            )
                            .unwrap();
                            assert_eq!(walk_shape(&tape), shape, "{expr}");
                            for root in [csf.root_range(), 0..0] {
                                let leaves = if root.is_empty() { 0..0 } else { 0..n };
                                let at = (root.clone(), leaves);
                                assert_eq!(
                                    run_once(&tape, nest, at.clone(), false),
                                    run_once(&tape, nest, at, true),
                                    "{expr} at rank {rank} on {}, tiny {tiny}, root {root:?}",
                                    ks.name()
                                );
                                runs += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(runs >= 17 * 2 * 6 * 2 * 2, "{runs} runs");
    }

    /// A nest to run: kernel, path, forest, buffer specs, tensor, factors.
    type RunNest<'n> = (
        &'n Kernel,
        &'n ContractionPath,
        &'n LoopForest,
        &'n [BufferSpec],
        &'n Csf,
        &'n [DenseTensor],
    );

    /// Output bits of one run of `tape` over the root range `root`
    /// (leaves `leaves`), the output starting at −0.0: the tape's own
    /// walks, or the per-call reference.
    fn run_once(
        tape: &CompiledTape,
        (kernel, path, forest, specs, csf, factors): RunNest<'_>,
        (root, leaves): (Range<usize>, Range<usize>),
        per_call: bool,
    ) -> Vec<u64> {
        let mut ws = Workspace::from_specs(kernel, path, forest, specs);
        let mut dense = DenseTensor::from_fn(&kernel.ref_dims(&kernel.output), |_| -0.0);
        let mut vals = vec![-0.0; leaves.len()];
        let out = if kernel.output_sparse {
            OutputMut::Sparse(&mut vals)
        } else {
            OutputMut::Dense(&mut dense)
        };
        if per_call {
            ws.prepare_tape(tape);
            let Workspace {
                buffers,
                scratch_dense,
                stats,
                tape: st,
                ..
            } = &mut ws;
            let st = st.as_mut().unwrap();
            st.reset();
            let (out_dense, out_sparse): (&mut DenseTensor, &mut [f64]) = match out {
                OutputMut::Dense(d) => (d, &mut []),
                OutputMut::Sparse(v) => (scratch_dense, v),
            };
            let mut run = Run {
                tape,
                csf,
                root,
                leaf_lo: leaves.start,
                factors,
                buffers,
                out_dense,
                out_sparse,
                st,
                stats,
                guard: None,
            };
            run.per_call(0, tape.instrs.len());
        } else {
            let (lo, len) = (leaves.start, leaves.len());
            run_tape(
                tape, kernel, csf, root, lo, len, factors, &mut ws, out, None,
            )
            .unwrap();
        }
        let all = dense.as_slice().iter().chain(&vals);
        all.map(|v| v.to_bits()).collect()
    }
}
