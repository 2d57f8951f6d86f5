//! Bind-time compilation of loop forests to a flat instruction tape.
//!
//! The reference interpreter ([`crate::interp`]) walks a planned
//! [`LoopForest`] directly: every vertex visit re-matches node variants,
//! asks the lowering rule again whether the vertex is a microkernel
//! call, and recomputes strided offsets from scratch.
//! All of those decisions depend only on the *plan*, not on the data —
//! so [`CompiledTape::compile_with`] makes each of them exactly once,
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
//!   and restored on exit, replacing the interpreter's per-visit
//!   `offset_in` recomputation. A sparse header names only its CSF
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
//!   resolved at compile time. Each microkernel instruction carries
//!   the **function pointer** of its implementation, chosen once at
//!   compile time by a [`crate::simd::KernelSet`] (scalar, AVX2+FMA
//!   or AVX-512F — never re-decided per visit). Which body the call
//!   runs — a fixed rank's unrolled one or the generic loop — the
//!   kernel picks from its own trip count; the program does not record
//!   it.
//!
//! # Superinstructions
//!
//! At every kernel tier the compiler fuses as it emits — nothing after
//! the fused site exists yet, so no jump is ever re-patched. The program
//! is a function of the plan alone; the [`KernelSet`] only supplies the
//! function pointers:
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
//! Every fused walk resolves its operands once per walk, not per child:
//! each one's store (the read/write split of the workspace at the
//! walk's target terms), its offset and its step per coordinate from the
//! advance table. A child's offset is then `base + coord·step` (plus the
//! node index for the sparse value and pattern-sharing cells), computed
//! in place, so no cursor is written per child; a walk leaves the cursors
//! and tracked nodes as the unfused loops leave them.

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
//! The tape and the interpreter read the same forest and the same
//! lowering rule, so they have the same loop structure and the same
//! microkernel calls by construction; what each does on its own —
//! addressing, and under [`KernelSet::scalar`] the floating-point
//! operation order — the differential suite (`tests/tape_vs_interp.rs`)
//! checks: the tape to ≤1e-9 of the interpreter, the scalar tape to
//! bitwise equality. Neither is a second opinion on the rule itself;
//! that is tested where it is stated (`spttn_ir::lower`), and against
//! exact dispatch and flop counts in `tests/plan_shape.rs`.
//! One compiled tape is shared by all
//! worker threads (it is immutable and tile-parametric); the mutable
//! driver state ([`TapeState`]) lives in each [`Workspace`], is
//! preallocated by [`Workspace::prepare_tape`], and the driver performs
//! **zero heap allocations and zero atomic operations** per execution —
//! stats are plain per-workspace `u64`s ([`Workspace::stats`]).

use crate::guard::RunGuard;
use crate::simd::{unrolled, AxpyFn, DotFn, GemvFn, GerFn, KernelSet, Microkernels, XmulFn};
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
    kern: DotFn,
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
    /// `y[q] += alpha · x[q]`. With `assign`, `kern` is the assigning
    /// twin `y[q] = alpha · x[q]` standing in for the `Zero { term }`
    /// it was fused with (likewise for `Xmul` and `Ger`).
    Axpy {
        n: usize,
        term: usize,
        alpha: Read,
        x: VecSrc,
        y: VecTgt,
        kern: AxpyFn,
        assign: bool,
    },
    /// `y[q] += x[q] · z[q]`.
    Xmul {
        n: usize,
        term: usize,
        x: VecSrc,
        z: VecSrc,
        y: VecTgt,
        kern: XmulFn,
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
        kern: GerFn,
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
        kern: GemvFn,
    },
    /// Superinstruction: `Sparse` header + `Axpy` body + `EndLoop` —
    /// `y[q] += alpha · x[q]` once per child of the parent node, with no
    /// frame. `first`, when set, is the assigning twin of `kern` that a
    /// folded `Zero { term }` leaves for the first child (`level > 0`
    /// only).
    SparseAxpy {
        level: usize,
        adv: AdvRange,
        n: usize,
        term: usize,
        alpha: Read,
        x: VecSrc,
        y: VecTgt,
        kern: AxpyFn,
        first: Option<AxpyFn>,
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
    /// Microkernel selection recorded at compile time (function
    /// pointers inside the instructions were drawn from this set).
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
            kernels,
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
                    Instr::Axpy { assign: true, .. }
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
    /// Microkernel selection the emitted instructions draw their
    /// function pointers from.
    kernels: KernelSet,
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
        let ks = self.kernels;
        let [.., Instr::Zero { term }, call] = &mut self.instrs[..] else {
            return;
        };
        let (term, lens) = (*term, &self.buffer_lens);
        let assign = match call {
            Instr::Axpy {
                n,
                term: t,
                y,
                kern,
                assign,
                ..
            } if *t == term && covers(term, y.inc, *n, lens) => {
                *kern = ks.zaxpy();
                assign
            }
            Instr::Xmul {
                n,
                term: t,
                y,
                kern,
                assign,
                ..
            } if *t == term && covers(term, y.inc, *n, lens) => {
                *kern = ks.zxmul();
                assign
            }
            Instr::Ger {
                m,
                n,
                term: t,
                a,
                kern,
                assign,
                ..
            } if *t == term && a.rs == *n && covers(term, a.cs, *m * *n, lens) => {
                *kern = ks.zger();
                assign
            }
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
            [Instr::Axpy {
                n,
                term,
                alpha,
                x,
                y,
                kern,
                ..
            }] => {
                let fold = level > 0
                    && header > 0
                    && matches!(self.instrs[header - 1], Instr::Zero { term: z } if z == term)
                    && covers(term, y.inc, n, &self.buffer_lens);
                let fused = Instr::SparseAxpy {
                    level,
                    adv,
                    n,
                    term,
                    alpha,
                    x,
                    y,
                    kern,
                    first: fold.then(|| self.kernels.zaxpy()),
                };
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
                Instr::Axpy { .. }
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
                let (kern, _) = self.kernels.dot(n, x.inc == 1 && y.inc == 1);
                let dot = DotCall { n, x, y, kern };
                Instr::Dot { dot, tgt }
            }
            (LeafOp::Axpy { vec }, _) => {
                let n = dim(q1);
                let y = self.vec_tgt(t, q1)?;
                let x = self.vec_src(term.operand(vec), q1)?;
                let alpha = self.scalar_src(term.operand(vec.other()))?;
                let (kern, _) = self.kernels.axpy(n, x.inc == 1 && y.inc == 1, None);
                Instr::Axpy {
                    n,
                    term: t,
                    alpha,
                    x,
                    y,
                    kern,
                    assign: false,
                }
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
                    kern: self.kernels.xmul(),
                    assign: false,
                }
            }
            (LeafOp::Ger { x }, Some(q2)) => {
                let (m, n) = (dim(q1), dim(q2));
                let (xs, ys) = (term.operand(x), term.operand(x.other()));
                let x = self.vec_src(xs, q1)?;
                let y = self.vec_src(ys, q2)?;
                let a = self.mat_tgt(t, q1, q2)?;
                let (kern, _) = self.kernels.ger(n, a.cs == 1 && y.inc == 1, None);
                Instr::Ger {
                    m,
                    n,
                    term: t,
                    x,
                    y,
                    a,
                    kern,
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
                    kern: self.kernels.gemv(),
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
        Instr::Axpy { n, x, y, .. } | Instr::SparseAxpy { n, x, y, .. } => {
            (n, x.inc == 1 && y.inc == 1)
        }
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
                call @ (Instr::Dot { .. }
                | Instr::Axpy { .. }
                | Instr::Xmul { .. }
                | Instr::Ger { .. }
                | Instr::Gemv { .. }) => {
                    self.call(call);
                    pc += 1;
                }
                instr @ (Instr::SparseAxpy { level, adv, .. }
                | Instr::SparseDot { level, adv, .. }) => {
                    self.fused(instr, level, adv)?;
                    pc += 1;
                }
                Instr::Fiber { level, adv } => {
                    self.fiber(pc, level, adv)?;
                    pc += 3;
                }
            }
        }
        debug_assert_eq!(self.st.fp, 0, "all loops exited");
        Ok(())
    }

    /// The view of the run a fused walk or a call works in: its
    /// operands' resolver over the stores split at its target terms `ta`
    /// and `tb` (see [`split_walk`]), both targets' stores, the tensor
    /// and the stats it books.
    fn view(&mut self, ta: usize, tb: usize, sparse: bool) -> View<'_> {
        let Run {
            tape,
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
        let rs = Resolve {
            adv: &tape.adv,
            cursors: &st.cursors,
            factors,
            vals: csf.vals(),
            low,
            first: ta,
            rest,
            leaf_lo: *leaf_lo,
        };
        View {
            rs,
            a,
            b,
            csf,
            stats,
        }
    }

    /// Run one microkernel call at the cursors' offsets (and the tracked
    /// leaf, for the sparse value and pattern-sharing cells).
    fn call(&mut self, i: Instr) {
        let (term, sparse) = target_term(&i, self.tape.n_terms - 1);
        let leaf = self.leaf_node();
        let View { rs, b, stats, .. } = self.view(term, term, sparse);
        match i {
            Instr::Axpy { .. } => fire(&axpy_call(&rs, &i, NO_ADV), leaf, b, stats),
            Instr::Xmul { .. } => fire(&xmul_call(&rs, &i, NO_ADV), leaf, b, stats),
            Instr::Ger { .. } => fire(&ger_call(&rs, &i, NO_ADV), leaf, b, stats),
            Instr::Gemv { .. } => fire(&gemv_call(&rs, &i, NO_ADV), leaf, b, stats),
            _ => fire(&dot_cell(&rs, &i, NO_ADV), leaf, b, stats),
        }
    }

    /// Run a lone fused loop (`SparseAxpy`, `SparseDot`) at `level`: its
    /// operands are resolved once, then each child costs its call.
    fn fused(&mut self, instr: Instr, level: usize, adv: AdvRange) -> Result<()> {
        let (tb, sparse) = target_term(&instr, self.tape.n_terms - 1);
        let range = self.level_range(level);
        let guard = self.guard.filter(|_| self.st.fp == 0);
        let View {
            rs, b, csf, stats, ..
        } = self.view(tb, tb, sparse);
        let coords = &csf.level(level).idx;
        let calls = range.len() as u64;
        match instr {
            Instr::SparseAxpy { .. } => {
                let run = axpy_run(&rs, &instr, NO_ADV, adv);
                guarded(range.clone(), guard, |nodes| {
                    run.walk(coords, nodes, 0, &[], b)
                })?;
                run.count(stats, calls);
            }
            _ => {
                let run = dot_run(&rs, &instr, NO_ADV, adv);
                guarded(range.clone(), guard, |nodes| {
                    run.walk(coords, nodes, 0, &[], b)
                })?;
                run.count(stats, calls);
            }
        }
        // Where the unfused loop leaves its node.
        if let Some(last) = range.last() {
            self.st.nodes[level] = last;
        }
        Ok(())
    }

    /// Run the fiber whose header is at `pc`: per child at `level`, the
    /// run over the child's children and the call, in program order,
    /// with every operand resolved once for the whole walk.
    fn fiber(&mut self, pc: usize, level: usize, adv: AdvRange) -> Result<()> {
        let (a, b) = (self.tape.instrs[pc + 1], self.tape.instrs[pc + 2]);
        let last = self.tape.n_terms - 1;
        let ((ta, _), (tb, sparse)) = (target_term(&a, last), target_term(&b, last));
        let range = self.level_range(level);
        let guard = self.guard.filter(|_| self.st.fp == 0);
        let View {
            rs,
            a: at,
            b: bt,
            csf,
            stats,
        } = self.view(ta, tb, sparse);
        let (l, g, nodes) = ((csf, level), guard, range.clone());
        match (a, b) {
            (Instr::SparseAxpy { adv: inner, .. }, call) => {
                let run = axpy_run(&rs, &a, adv, inner);
                match call {
                    Instr::Axpy { .. } => {
                        let call = axpy_call(&rs, &call, adv);
                        fiber_walk::<_, _, false>(l, nodes, g, &run, &call, at, bt, stats)
                    }
                    Instr::Xmul { .. } => {
                        let call = xmul_call(&rs, &call, adv);
                        fiber_walk::<_, _, false>(l, nodes, g, &run, &call, at, bt, stats)
                    }
                    Instr::Ger { .. } => {
                        let call = ger_call(&rs, &call, adv);
                        fiber_walk::<_, _, false>(l, nodes, g, &run, &call, at, bt, stats)
                    }
                    Instr::Gemv { .. } => {
                        let call = gemv_call(&rs, &call, adv);
                        fiber_walk::<_, _, false>(l, nodes, g, &run, &call, at, bt, stats)
                    }
                    _ => {
                        let call = dot_cell(&rs, &call, adv);
                        fiber_walk::<_, _, false>(l, nodes, g, &run, &call, at, bt, stats)
                    }
                }
            }
            (Instr::Axpy { .. }, run) => {
                let call = axpy_call(&rs, &a, adv);
                call_first(&rs, l, nodes, g, &run, adv, &call, at, bt, stats)
            }
            (_, run) => {
                let call = xmul_call(&rs, &a, adv);
                call_first(&rs, l, nodes, g, &run, adv, &call, at, bt, stats)
            }
        }?;
        // Where the unfused loops leave their nodes.
        if let Some(x) = range.last() {
            self.st.nodes[level] = x;
            if let Some(k) = self.csf.children(level, x).last() {
                self.st.nodes[level + 1] = k;
            }
        }
        Ok(())
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
// Fused walks
// ---------------------------------------------------------------------

/// An operand offset resolved once per fused walk. Inside a fiber the
/// run's operands first move to the fiber's child at coordinate `co`
/// ([`Addr::shift`]); a walk then reaches its child node `x` at
/// coordinate `c` at `base + c·step + x·nstep`. `nstep` is 1 for the
/// sparse value and pattern-sharing cells, which live at the leaf node,
/// and 0 for a cursor, so no cursor is written per child.
#[derive(Debug, Clone, Copy)]
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

    /// The operand's store, `first` being the first part's target.
    #[inline(always)]
    fn store<'c>(self, first: &'c [f64]) -> &'c [f64]
    where
        'b: 'c,
    {
        match self.src {
            Src::Slice(s) => s,
            Src::First => first,
        }
    }
}

/// Resolves a fused walk's operands once: each one's store, from the
/// workspace split around the walk's targets, and its offset and steps,
/// from the cursors and the advance table.
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
                at: Addr::LEAF,
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
                base: self.leaf_lo.wrapping_neg(),
                ..Addr::LEAF
            },
        }
    }
}

/// An empty advance range: a loop that moves nothing.
const NO_ADV: AdvRange = (0, 0);

/// Check `guard` before every node of `nodes` but the first: a walk
/// over the tile roots keeps the root frame's cancellation checkpoint,
/// once per root child. Runs `body` on each node.
#[inline(always)]
fn guarded(
    nodes: Range<usize>,
    guard: Option<&RunGuard>,
    mut body: impl FnMut(Range<usize>),
) -> Result<()> {
    match guard {
        None => body(nodes),
        Some(g) => {
            for x in nodes.clone() {
                if x != nodes.start {
                    g.check("tape")?;
                }
                body(x..x + 1);
            }
        }
    }
    Ok(())
}

/// The body of a fused sparse loop, resolved for one walk: what one
/// child runs, into the store `tgt`.
trait RunBody<'b> {
    /// Walk `nodes` (coordinates `coords`) inside a fiber child at
    /// coordinate `co`, or at `co = 0` on its own.
    fn walk(
        &self,
        coords: &[usize],
        nodes: Range<usize>,
        co: usize,
        first: &[f64],
        tgt: &mut [f64],
    );

    /// Book `calls` calls.
    fn count(&self, stats: &mut ExecStats, calls: u64);
}

/// A microkernel call resolved for a walk: a fiber's, once per child
/// of the fiber's level, or a lone call's, once.
trait TailCall<'b> {
    /// The call at the child node `x`, coordinate `c`.
    fn fire(&self, c: usize, x: usize, first: &[f64], tgt: &mut [f64]);

    /// Book `calls` calls.
    fn count(&self, stats: &mut ExecStats, calls: u64);
}

/// A sparse-AXPY body: `y += alpha · x` per child.
struct AxpyRun<'b> {
    n: usize,
    alpha: Opnd<'b>,
    x: Opnd<'b>,
    xinc: usize,
    y: Addr,
    yinc: usize,
    kern: AxpyFn,
    first: Option<AxpyFn>,
}

impl<'b> RunBody<'b> for AxpyRun<'b> {
    #[inline(always)]
    fn walk(
        &self,
        coords: &[usize],
        nodes: Range<usize>,
        co: usize,
        first: &[f64],
        tgt: &mut [f64],
    ) {
        let (alpha, x, y) = (self.alpha.shift(co), self.x.shift(co), self.y.shift(co));
        let (als, xs) = (alpha.store(first), x.store(first));
        let mut call = self.first.unwrap_or(self.kern);
        for node in nodes {
            let c = coords[node];
            let a = als[alpha.at.at(c, node)];
            call(
                self.n,
                a,
                &xs[x.at.at(c, node)..],
                self.xinc,
                &mut tgt[y.at(c, node)..],
                self.yinc,
            );
            call = self.kern;
        }
    }

    fn count(&self, stats: &mut ExecStats, calls: u64) {
        stats.axpy += calls;
        stats.axpy_elems += calls * self.n as u64;
    }
}

/// A sparse-DOT body: `d = x·y`, then the leaf with the folded term's
/// reads (`None`) taken as `0.0 + d`.
struct DotRun<'b> {
    n: usize,
    kern: DotFn,
    x: Opnd<'b>,
    xinc: usize,
    y: Opnd<'b>,
    yinc: usize,
    left: Option<Opnd<'b>>,
    right: Option<Opnd<'b>>,
    tgt: Addr,
}

impl<'b> RunBody<'b> for DotRun<'b> {
    #[inline(always)]
    fn walk(
        &self,
        coords: &[usize],
        nodes: Range<usize>,
        co: usize,
        first: &[f64],
        tgt: &mut [f64],
    ) {
        let (x, y, cell) = (self.x.shift(co), self.y.shift(co), self.tgt.shift(co));
        let (xs, ys) = (x.store(first), y.store(first));
        let left = self.left.map(|o| o.shift(co)).map(|o| (o, o.store(first)));
        let right = self.right.map(|o| o.shift(co)).map(|o| (o, o.store(first)));
        for node in nodes {
            let c = coords[node];
            // What `Zero; Dot` left in the cell: +0.0 for a -0.0
            // product, as the unfused add gives.
            let d = 0.0
                + (self.kern)(
                    self.n,
                    &xs[x.at.at(c, node)..],
                    self.xinc,
                    &ys[y.at.at(c, node)..],
                    self.yinc,
                );
            let l = left.map_or(d, |(o, s)| s[o.at.at(c, node)]);
            let r = right.map_or(d, |(o, s)| s[o.at.at(c, node)]);
            tgt[cell.at(c, node)] += l * r;
        }
    }

    fn count(&self, stats: &mut ExecStats, calls: u64) {
        stats.dot += calls;
        stats.dot_elems += calls * self.n as u64;
    }
}

/// An AXPY call.
struct AxpyCall<'b> {
    n: usize,
    alpha: Opnd<'b>,
    x: Opnd<'b>,
    xinc: usize,
    y: Addr,
    yinc: usize,
    kern: AxpyFn,
}

impl<'b> TailCall<'b> for AxpyCall<'b> {
    #[inline(always)]
    fn fire(&self, c: usize, x: usize, first: &[f64], tgt: &mut [f64]) {
        let a = self.alpha.store(first)[self.alpha.at.at(c, x)];
        let xs = &self.x.store(first)[self.x.at.at(c, x)..];
        (self.kern)(
            self.n,
            a,
            xs,
            self.xinc,
            &mut tgt[self.y.at(c, x)..],
            self.yinc,
        );
    }

    fn count(&self, stats: &mut ExecStats, calls: u64) {
        stats.axpy += calls;
        stats.axpy_elems += calls * self.n as u64;
    }
}

/// An XMUL call.
struct XmulCall<'b> {
    n: usize,
    x: Opnd<'b>,
    xinc: usize,
    z: Opnd<'b>,
    zinc: usize,
    y: Addr,
    yinc: usize,
    kern: XmulFn,
}

impl<'b> TailCall<'b> for XmulCall<'b> {
    #[inline(always)]
    fn fire(&self, c: usize, x: usize, first: &[f64], tgt: &mut [f64]) {
        let xs = &self.x.store(first)[self.x.at.at(c, x)..];
        let zs = &self.z.store(first)[self.z.at.at(c, x)..];
        let y = &mut tgt[self.y.at(c, x)..];
        (self.kern)(self.n, 1.0, xs, self.xinc, zs, self.zinc, y, self.yinc);
    }

    fn count(&self, stats: &mut ExecStats, calls: u64) {
        stats.xmul += calls;
        stats.xmul_elems += calls * self.n as u64;
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
    kern: GerFn,
}

impl<'b> TailCall<'b> for GerCall<'b> {
    #[inline(always)]
    fn fire(&self, c: usize, x: usize, first: &[f64], tgt: &mut [f64]) {
        let xs = &self.x.store(first)[self.x.at.at(c, x)..];
        let ys = &self.y.store(first)[self.y.at.at(c, x)..];
        let a = &mut tgt[self.a.at(c, x)..];
        (self.kern)(
            self.m, self.n, 1.0, xs, self.xinc, ys, self.yinc, a, self.rs, self.cs,
        );
    }

    fn count(&self, stats: &mut ExecStats, calls: u64) {
        stats.ger += calls;
        stats.ger_elems += calls * (self.m * self.n) as u64;
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
    kern: GemvFn,
}

impl<'b> TailCall<'b> for GemvCall<'b> {
    #[inline(always)]
    fn fire(&self, c: usize, x: usize, first: &[f64], tgt: &mut [f64]) {
        let a = &self.a.store(first)[self.a.at.at(c, x)..];
        let xs = &self.x.store(first)[self.x.at.at(c, x)..];
        let y = &mut tgt[self.y.at(c, x)..];
        let (m, n) = (self.m, self.n);
        (self.kern)(m, n, 1.0, a, self.rs, self.cs, xs, self.xinc, y, self.yinc);
    }

    fn count(&self, stats: &mut ExecStats, calls: u64) {
        stats.gemv += calls;
        stats.gemv_elems += calls * (self.m * self.n) as u64;
    }
}

/// A DOT call into one cell.
struct DotCell<'b> {
    n: usize,
    x: Opnd<'b>,
    xinc: usize,
    y: Opnd<'b>,
    yinc: usize,
    cell: Addr,
    kern: DotFn,
}

impl<'b> TailCall<'b> for DotCell<'b> {
    #[inline(always)]
    fn fire(&self, c: usize, x: usize, first: &[f64], tgt: &mut [f64]) {
        let xs = &self.x.store(first)[self.x.at.at(c, x)..];
        let ys = &self.y.store(first)[self.y.at.at(c, x)..];
        tgt[self.cell.at(c, x)] += (self.kern)(self.n, xs, self.xinc, ys, self.yinc);
    }

    fn count(&self, stats: &mut ExecStats, calls: u64) {
        stats.dot += calls;
        stats.dot_elems += calls * self.n as u64;
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
        Instr::Axpy { term, .. }
        | Instr::Xmul { term, .. }
        | Instr::Ger { term, .. }
        | Instr::Gemv { term, .. }
        | Instr::SparseAxpy { term, .. } => (term, false),
        Instr::Dot { tgt, .. } => of_write(tgt),
        Instr::SparseDot { leaf, .. } => of_write(leaf.tgt),
        _ => unreachable!("the verifier admits only calls and fused loops in a fiber"),
    }
}

/// Walk a fiber: per node of `nodes`, its run over the node's children
/// and its call, the call first when `CALL_FIRST`. The call's target
/// is `a` when it comes first, the run's otherwise; the second part
/// writes `b` and reads what the first wrote.
#[allow(clippy::too_many_arguments)]
fn fiber_walk<'b, R: RunBody<'b>, C: TailCall<'b>, const CALL_FIRST: bool>(
    (csf, level): (&Csf, usize),
    nodes: Range<usize>,
    guard: Option<&RunGuard>,
    run: &R,
    call: &C,
    a: &mut [f64],
    b: &mut [f64],
    stats: &mut ExecStats,
) -> Result<()> {
    let (coords, ptr) = (&csf.level(level).idx, &csf.level(level).ptr);
    let inner = &csf.level(level + 1).idx;
    let mut kids = 0u64;
    guarded(nodes.clone(), guard, |nodes| {
        for x in nodes {
            let (c, below) = (coords[x], ptr[x]..ptr[x + 1]);
            kids += below.len() as u64;
            if CALL_FIRST {
                call.fire(c, x, &[], a);
                run.walk(inner, below, c, a, b);
            } else {
                run.walk(inner, below, c, &[], a);
                call.fire(c, x, a, b);
            }
        }
    })?;
    run.count(stats, kids);
    call.count(stats, nodes.len() as u64);
    Ok(())
}

/// Split the workspace around a fused walk's targets: term `ta`, a
/// fiber's first part's (`ta == tb` for a lone fused loop, which has no
/// second part), and term `tb`, the last part's (`sparse`: pattern-
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

/// What [`Run::view`] hands a fused walk or a call.
struct View<'b> {
    rs: Resolve<'b>,
    a: &'b mut [f64],
    b: &'b mut [f64],
    csf: &'b Csf,
    stats: &'b mut ExecStats,
}

/// One call of `call` into `tgt` at the tracked leaf node `leaf`,
/// booked in `stats`.
fn fire<'b>(call: &impl TailCall<'b>, leaf: usize, tgt: &mut [f64], stats: &mut ExecStats) {
    call.fire(0, leaf, &[], tgt);
    call.count(stats, 1);
}

/// A fiber whose call comes first, over its run `run`.
#[allow(clippy::too_many_arguments)]
fn call_first<'b, C: TailCall<'b>>(
    rs: &Resolve<'b>,
    at: (&Csf, usize),
    nodes: Range<usize>,
    guard: Option<&RunGuard>,
    run: &Instr,
    adv: AdvRange,
    call: &C,
    a: &mut [f64],
    b: &mut [f64],
    stats: &mut ExecStats,
) -> Result<()> {
    match *run {
        Instr::SparseAxpy { adv: inner, .. } => {
            let run = axpy_run(rs, run, adv, inner);
            fiber_walk::<_, _, true>(at, nodes, guard, &run, call, a, b, stats)
        }
        Instr::SparseDot { adv: inner, .. } => {
            let run = dot_run(rs, run, adv, inner);
            fiber_walk::<_, _, true>(at, nodes, guard, &run, call, a, b, stats)
        }
        _ => unreachable!("the verifier proves a fiber's run a fused loop"),
    }
}

// The parts of a fused walk, resolved from their instructions: a run's
// operands move with the fused loop's advance table `inner`, inside a
// fiber's `outer`; a call's with the fiber's `adv`.

fn axpy_run<'b>(rs: &Resolve<'b>, i: &Instr, outer: AdvRange, inner: AdvRange) -> AxpyRun<'b> {
    let Instr::SparseAxpy {
        n,
        alpha,
        x,
        y,
        kern,
        first,
        ..
    } = *i
    else {
        unreachable!("a sparse-AXPY loop")
    };
    AxpyRun {
        n,
        alpha: rs.read(alpha, outer, inner),
        x: rs.vec(x, outer, inner),
        xinc: x.inc,
        y: rs.addr(y.cur, outer, inner),
        yinc: y.inc,
        kern,
        first,
    }
}

fn dot_run<'b>(rs: &Resolve<'b>, i: &Instr, outer: AdvRange, inner: AdvRange) -> DotRun<'b> {
    let Instr::SparseDot {
        term, dot, leaf, ..
    } = *i
    else {
        unreachable!("a sparse-DOT loop")
    };
    let read = |r: Read| (!reads_term(r, term)).then(|| rs.read(r, outer, inner));
    DotRun {
        n: dot.n,
        kern: dot.kern,
        x: rs.vec(dot.x, outer, inner),
        xinc: dot.x.inc,
        y: rs.vec(dot.y, outer, inner),
        yinc: dot.y.inc,
        left: read(leaf.left),
        right: read(leaf.right),
        tgt: rs.cell(leaf.tgt, outer, inner),
    }
}

fn axpy_call<'b>(rs: &Resolve<'b>, i: &Instr, adv: AdvRange) -> AxpyCall<'b> {
    let Instr::Axpy {
        n,
        alpha,
        x,
        y,
        kern,
        ..
    } = *i
    else {
        unreachable!("an AXPY")
    };
    AxpyCall {
        n,
        alpha: rs.read(alpha, NO_ADV, adv),
        x: rs.vec(x, NO_ADV, adv),
        xinc: x.inc,
        y: rs.addr(y.cur, NO_ADV, adv),
        yinc: y.inc,
        kern,
    }
}

fn xmul_call<'b>(rs: &Resolve<'b>, i: &Instr, adv: AdvRange) -> XmulCall<'b> {
    let Instr::Xmul {
        n, x, z, y, kern, ..
    } = *i
    else {
        unreachable!("an XMUL")
    };
    XmulCall {
        n,
        x: rs.vec(x, NO_ADV, adv),
        xinc: x.inc,
        z: rs.vec(z, NO_ADV, adv),
        zinc: z.inc,
        y: rs.addr(y.cur, NO_ADV, adv),
        yinc: y.inc,
        kern,
    }
}

fn ger_call<'b>(rs: &Resolve<'b>, i: &Instr, adv: AdvRange) -> GerCall<'b> {
    let Instr::Ger {
        m,
        n,
        x,
        y,
        a,
        kern,
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
        kern,
    }
}

fn gemv_call<'b>(rs: &Resolve<'b>, i: &Instr, adv: AdvRange) -> GemvCall<'b> {
    let Instr::Gemv {
        m,
        n,
        a,
        x,
        y,
        kern,
        ..
    } = *i
    else {
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
        kern,
    }
}

fn dot_cell<'b>(rs: &Resolve<'b>, i: &Instr, adv: AdvRange) -> DotCell<'b> {
    let Instr::Dot { dot, tgt } = *i else {
        unreachable!("a DOT")
    };
    DotCell {
        n: dot.n,
        x: rs.vec(dot.x, NO_ADV, adv),
        xinc: dot.x.inc,
        y: rs.vec(dot.y, NO_ADV, adv),
        yinc: dot.y.inc,
        cell: rs.cell(tgt, NO_ADV, adv),
        kern: dot.kern,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            Instr::Axpy { assign: true, .. } => "assigning Axpy",
            Instr::Xmul { assign: true, .. } => "assigning Xmul",
            Instr::Ger { assign: true, .. } => "assigning Ger",
            Instr::SparseAxpy { first: Some(_), .. } => "SparseAxpy + Zero",
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
    /// gives the dispatch counts of the unfused program, the reference
    /// interpreter: its output bits on the scalar tier, and its output
    /// to ≤ 1e-9 on the host's. Both tiers compile one program. (The
    /// fused DOT loop reads `0.0 + d` where the unfused one stored `d`
    /// into a zeroed cell and loaded it; an assigning call writes `αx`
    /// where the unfused pair added it to zero.)
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
        for (expr, dims, nnz, picks, orders, shapes) in nests {
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
            let run = |ks: Option<KernelSet>| {
                let mut ws = Workspace::from_specs(&kernel, &path, &forest, &specs);
                let mut dense = DenseTensor::zeros(&kernel.ref_dims(&kernel.output));
                let mut vals = vec![0.0; csf.nnz()];
                let out = if kernel.output_sparse {
                    OutputMut::Sparse(&mut vals)
                } else {
                    OutputMut::Dense(&mut dense)
                };
                let (mut fused, mut program) = (Vec::new(), None);
                if let Some(ks) = ks {
                    let tape =
                        CompiledTape::compile_with_kernels(&kernel, &path, &forest, &specs, ks)
                            .unwrap();
                    fused = tape.instrs.iter().filter_map(fused_shape).collect();
                    assert_eq!(fused.len(), tape.superinstructions());
                    let (n, sup, spec) = (tape.num_instrs(), fused.len(), tape.specialized());
                    program = Some((n, sup, spec, tape.verify().unwrap()));
                    execute_tape_into(&tape, &kernel, &csf, &factors, &mut ws, out).unwrap();
                } else {
                    crate::interp::execute_forest_into(
                        &kernel, &path, &forest, &csf, &factors, &mut ws, out,
                    )
                    .unwrap();
                }
                let vals: Vec<f64> = dense.as_slice().iter().chain(&vals).copied().collect();
                (fused, vals, ws.stats(), program)
            };
            let reference = run(None);
            let mut programs = Vec::new();
            for ks in [KernelSet::scalar(), KernelSet::auto_detected()] {
                let got = run(Some(ks));
                programs.push(got.3);
                assert_eq!(&got.0[..], shapes, "{expr}");
                assert_eq!(got.2, reference.2, "{expr}: same dispatches and elements");
                for (g, r) in got.1.iter().zip(&reference.1) {
                    match ks.selection() {
                        KernelSel::Scalar => assert_eq!(g.to_bits(), r.to_bits(), "{expr}"),
                        _ => assert!((g - r).abs() <= 1e-9, "{expr} on {}", ks.name()),
                    }
                }
            }
            assert_eq!(
                programs[0], programs[1],
                "{expr}: one program at every tier"
            );
        }
    }
}
