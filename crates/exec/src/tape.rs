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
//! - `Zero { term }` — reset a term's Eq.-5 buffer at its split vertex
//!   (the positions the interpreter derives per sibling list are baked
//!   into the program).
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
//!   parent's children in place — coordinate, cursor advance, body —
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
//!
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
    fused_loop, BufferSpec, ContractionPath, IdxSet, IndexId, Kernel, LeafOp, LoopForest, LoopNode,
    LoopVertex, Operand, VertexKind,
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
    /// (fused `ZeroAccum` pairs) and fused sparse-AXPY and sparse-DOT
    /// loops.
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
                )
            })
            .count()
    }

    /// Number of microkernel sites whose recorded trip count and
    /// strides take a fixed rank's unrolled body: contiguous at 8, 16 or
    /// 32 (see [`crate::simd`]).
    pub fn specialized(&self) -> usize {
        self.instrs
            .iter()
            .filter(|i| match **i {
                Instr::Axpy { n, x, y, .. } | Instr::SparseAxpy { n, x, y, .. } => {
                    unrolled(n, x.inc == 1 && y.inc == 1)
                }
                Instr::Xmul { n, x, z, y, .. } => {
                    unrolled(n, x.inc == 1 && z.inc == 1 && y.inc == 1)
                }
                Instr::Ger { n, y, a, .. } => unrolled(n, a.cs == 1 && y.inc == 1),
                Instr::Gemv { n, a, x, .. } => unrolled(n, a.cs == 1 && x.inc == 1),
                Instr::Dot { dot, .. } | Instr::SparseDot { dot, .. } => {
                    unrolled(dot.n, dot.x.inc == 1 && dot.y.inc == 1)
                }
                _ => false,
            })
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

    /// Term range covered by a node.
    fn node_range(n: &LoopNode) -> (usize, usize) {
        match n {
            LoopNode::Leaf(t) => (*t, *t + 1),
            LoopNode::Loop(v) => (v.term_lo, v.term_hi),
        }
    }

    /// Compile a sibling list, baking in the Eq.-5 split-point zeroing:
    /// a buffer splits here when its producer is inside a child and its
    /// consumer is a later sibling.
    fn compile_siblings(&mut self, nodes: &[LoopNode], parent_hi: usize) -> Result<()> {
        for n in nodes {
            let (lo, hi) = Self::node_range(n);
            for t in lo..hi {
                if let Some(c) = self.path.terms[t].consumer {
                    if c >= hi && c < parent_hi {
                        self.instrs.push(Instr::Zero { term: t });
                    }
                }
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
                if fused_loop(self.kernel, self.path, level, terms, iterated) {
                    return self.fuse_sparse_loop(header, v.index, level, adv);
                }
                Instr::Sparse { level, adv, end }
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
                Instr::Dot { dot, tgt } => {
                    let v = self.dot(dot);
                    self.stats.dot += 1;
                    self.stats.dot_elems += dot.n as u64;
                    self.cell(tgt, v);
                    pc += 1;
                }
                Instr::Axpy {
                    n,
                    term,
                    alpha,
                    x,
                    y,
                    kern,
                    ..
                } => {
                    let a = self.read(alpha);
                    let Run {
                        factors,
                        buffers,
                        out_dense,
                        st,
                        stats,
                        ..
                    } = self;
                    let (reads, tgt) = tgt_split(buffers, out_dense, &st.cursors, term, y.cur);
                    let (xs, xi) = vec_in(factors, reads, &st.cursors, x);
                    kern(n, a, xs, xi, tgt, y.inc);
                    stats.axpy += 1;
                    stats.axpy_elems += n as u64;
                    pc += 1;
                }
                Instr::Xmul {
                    n,
                    term,
                    x,
                    z,
                    y,
                    kern,
                    ..
                } => {
                    let Run {
                        factors,
                        buffers,
                        out_dense,
                        st,
                        stats,
                        ..
                    } = self;
                    let (reads, tgt) = tgt_split(buffers, out_dense, &st.cursors, term, y.cur);
                    let (xs, xi) = vec_in(factors, reads, &st.cursors, x);
                    let (zs, zi) = vec_in(factors, reads, &st.cursors, z);
                    kern(n, 1.0, xs, xi, zs, zi, tgt, y.inc);
                    stats.xmul += 1;
                    stats.xmul_elems += n as u64;
                    pc += 1;
                }
                Instr::Ger {
                    m,
                    n,
                    term,
                    x,
                    y,
                    a,
                    kern,
                    ..
                } => {
                    let Run {
                        factors,
                        buffers,
                        out_dense,
                        st,
                        stats,
                        ..
                    } = self;
                    let (reads, tgt) = tgt_split(buffers, out_dense, &st.cursors, term, a.cur);
                    let (xs, xi) = vec_in(factors, reads, &st.cursors, x);
                    let (ys, yi) = vec_in(factors, reads, &st.cursors, y);
                    kern(m, n, 1.0, xs, xi, ys, yi, tgt, a.rs, a.cs);
                    stats.ger += 1;
                    stats.ger_elems += (m * n) as u64;
                    pc += 1;
                }
                Instr::Gemv {
                    m,
                    n,
                    term,
                    a,
                    x,
                    y,
                    kern,
                    ..
                } => {
                    let Run {
                        factors,
                        buffers,
                        out_dense,
                        st,
                        stats,
                        ..
                    } = self;
                    let (reads, tgt) = tgt_split(buffers, out_dense, &st.cursors, term, y.cur);
                    let (as_, ai) = mat_in(factors, reads, &st.cursors, a);
                    let (xs, xi) = vec_in(factors, reads, &st.cursors, x);
                    kern(m, n, 1.0, as_, ai.0, ai.1, xs, xi, tgt, y.inc);
                    stats.gemv += 1;
                    stats.gemv_elems += (m * n) as u64;
                    pc += 1;
                }
                Instr::SparseAxpy {
                    level,
                    adv,
                    n,
                    term,
                    alpha,
                    x,
                    y,
                    kern,
                    first,
                } => {
                    let mut call = first.unwrap_or(kern);
                    let calls = self.walk_children(level, adv, |run| {
                        let a = run.read(alpha);
                        let Run {
                            factors,
                            buffers,
                            out_dense,
                            st,
                            ..
                        } = run;
                        let (reads, tgt) = tgt_split(buffers, out_dense, &st.cursors, term, y.cur);
                        let (xs, xi) = vec_in(factors, reads, &st.cursors, x);
                        call(n, a, xs, xi, tgt, y.inc);
                        call = kern;
                    })?;
                    self.stats.axpy += calls;
                    self.stats.axpy_elems += calls * n as u64;
                    pc += 1;
                }
                Instr::SparseDot {
                    level,
                    adv,
                    term,
                    dot,
                    leaf,
                } => {
                    let (dot_l, dot_r) =
                        (reads_term(leaf.left, term), reads_term(leaf.right, term));
                    let calls = self.walk_children(level, adv, |run| {
                        // What `Zero; Dot` left in the cell: +0.0 for a
                        // -0.0 product, as the unfused add gives.
                        let t = 0.0 + run.dot(dot);
                        let l = if dot_l { t } else { run.read(leaf.left) };
                        let r = if dot_r { t } else { run.read(leaf.right) };
                        run.cell(leaf.tgt, l * r);
                    })?;
                    self.stats.dot += calls;
                    self.stats.dot_elems += calls * dot.n as u64;
                    pc += 1;
                }
            }
        }
        debug_assert_eq!(self.st.fp, 0, "all loops exited");
        Ok(())
    }

    /// The per-child walk of a fused sparse loop: step the tracked node
    /// at `level` and the loop's cursors to each node of
    /// [`Run::level_range`], run `body`, then restore the cursors.
    /// Returns the number of nodes walked.
    #[inline(always)]
    fn walk_children(
        &mut self,
        level: usize,
        adv: AdvRange,
        mut body: impl FnMut(&mut Self),
    ) -> Result<u64> {
        let range = self.level_range(level);
        let at_root = self.st.fp == 0;
        let mut prev = 0usize;
        for node in range.clone() {
            // A root-level loop keeps the root frame's cancellation
            // checkpoint: once per root child.
            if at_root && node != range.start {
                if let Some(g) = self.guard {
                    g.check("tape")?;
                }
            }
            let coord = self.csf.node_coord(level, node);
            self.st.nodes[level] = node;
            self.advance(adv, coord as isize - prev as isize);
            prev = coord;
            body(self);
        }
        self.advance(adv, -(prev as isize));
        Ok(range.len() as u64)
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

    /// Run a DOT call (no mutable target in play).
    #[inline]
    fn dot(&self, d: DotCall) -> f64 {
        let (xs, xi) = self.rslice(d.x);
        let (ys, yi) = self.rslice(d.y);
        (d.kern)(d.n, xs, xi, ys, yi)
    }

    /// Borrow a vector source slice (no mutable target in play).
    #[inline]
    fn rslice(&self, v: VecSrc) -> (&[f64], usize) {
        let off = self.st.cursors[v.cur];
        match v.buf {
            RBuf::Factor(i) => (&self.factors[i].as_slice()[off..], v.inc),
            RBuf::Inter(u) => (&self.buffers[u].as_slice()[off..], v.inc),
        }
    }
}

/// Split the buffers at `term` and borrow the mutable target slice at
/// cursor `cur` (the dense output for the final term, `term`'s buffer
/// otherwise); sources always live in earlier buffers or factors, so
/// the split is safe by the path's producer-before-consumer order.
#[inline]
fn tgt_split<'b>(
    buffers: &'b mut [DenseTensor],
    out_dense: &'b mut DenseTensor,
    cursors: &[usize],
    term: usize,
    cur: usize,
) -> (&'b [DenseTensor], &'b mut [f64]) {
    let off = cursors[cur];
    let out = term + 1 == buffers.len();
    let (reads, tail) = buffers.split_at_mut(term);
    let tgt: &'b mut [f64] = if out {
        &mut out_dense.as_mut_slice()[off..]
    } else {
        &mut tail[0].as_mut_slice()[off..]
    };
    (reads, tgt)
}

/// Borrow a vector source from the factor slots or the read-side
/// buffer split.
#[inline]
fn vec_in<'b>(
    factors: &'b [DenseTensor],
    reads: &'b [DenseTensor],
    cursors: &[usize],
    v: VecSrc,
) -> (&'b [f64], usize) {
    let off = cursors[v.cur];
    match v.buf {
        RBuf::Factor(i) => (&factors[i].as_slice()[off..], v.inc),
        RBuf::Inter(u) => (&reads[u].as_slice()[off..], v.inc),
    }
}

/// Borrow a matrix source (returns the slice plus `(rs, cs)`).
#[inline]
fn mat_in<'b>(
    factors: &'b [DenseTensor],
    reads: &'b [DenseTensor],
    cursors: &[usize],
    m: MatSrc,
) -> (&'b [f64], (usize, usize)) {
    let off = cursors[m.cur];
    match m.buf {
        RBuf::Factor(i) => (&factors[i].as_slice()[off..], (m.rs, m.cs)),
        RBuf::Inter(u) => (&reads[u].as_slice()[off..], (m.rs, m.cs)),
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
            _ => return None,
        })
    }

    /// Every fused shape — a `Zero` folded into an AXPY, XMUL or GER, a
    /// sparse-AXPY loop with and without a folded `Zero`, and the
    /// `Zero; Dot; Leaf` sparse-DOT loop — compiled from one forest
    /// gives the dispatch counts of the unfused program, the reference
    /// interpreter: its output bits on the scalar tier, and its output
    /// to ≤ 1e-9 on the host's. Both tiers compile one program. (The
    /// fused DOT loop reads `0.0 + d` where the unfused one stored `d`
    /// into a zeroed cell and loaded it; an assigning call writes `αx`
    /// where the unfused pair added it to zero.)
    #[test]
    fn fused_tapes_are_bitwise_the_unfused_tape() {
        let nests: [Nest; 8] = [
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
                &["assigning Xmul", "SparseDot"],
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
                &["SparseAxpy + Zero"],
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
