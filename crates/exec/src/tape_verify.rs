//! Static verification of compiled tapes — an abstract interpreter
//! over [`CompiledTape`] that proves a program well-formed without
//! executing it.
//!
//! A tape is a structured program: `Dense`/`Sparse` headers paired
//! with a trailing `EndLoop`, straight-line `Zero`/`Leaf`/microkernel
//! instructions between them, and no other control flow. The verifier
//! walks that structure once, carrying the stack of open loops and the
//! set of buffers zeroed on every path to the current point, and
//! proves the invariants the paper's Sec.-4/5 lowering is supposed to
//! establish:
//!
//! 1. **Loop structure & frame depth** — every header's `end` jump
//!    lands just past its own `EndLoop`, loops are properly nested,
//!    and the static nesting depth never exceeds the preallocated
//!    frame-stack capacity ([`TapeState`](super::TapeState) indexes
//!    `frames[fp]` unchecked-by-construction, so an overflow here
//!    would be an out-of-bounds write at run time).
//! 2. **Cursor bounds** — every compiled operand address is an
//!    incremental cursor advanced by `Δcoordinate · stride` per
//!    enclosing loop. For each access the verifier sums the worst-case
//!    offset `Σ (extent−1)·stride` over the enclosing loops that
//!    advance the cursor, adds the microkernel's own strided extent
//!    (`(n−1)·inc`, `(m−1)·rs + (n−1)·cs`), and proves the result
//!    inside the backing store's flat length — factor shapes, Eq.-5
//!    buffer sizes, and the dense output extent captured at compile
//!    time. One cursor aliased to two different stores is rejected.
//! 3. **Eq.-5 zero domination** — an intermediate buffer accumulates
//!    with `+=` and is reset by a `Zero` at its split vertex (the
//!    paper's Eq. 5 places the zero where producer and consumer
//!    subtrees meet). Every buffer read *and* every accumulating
//!    write must be dominated by a `Zero` of that buffer: a `Zero`
//!    earlier in the same block or in an enclosing block. Zeros
//!    inside a loop body do not dominate code after the loop — the
//!    loop may run zero times — so the zeroed set is restored at every
//!    loop exit.
//! 4. **Node tracking** — the driver never looks a CSF node up, and no
//!    instruction says which node it uses: a `Sparse` header at level
//!    ℓ iterates the tile roots (ℓ = 0) or the children of the node
//!    tracked at ℓ−1, and a sparse-value read or pattern-sharing write
//!    uses the node tracked at the leaf level. The verifier proves each
//!    of those levels tracked — an enclosing sparse loop over exactly
//!    that level is open at the use site — and that sparse loops nest
//!    in CSF level order. A sparse loop iterates the kernel index its
//!    level stores. A write lands in its term's store: the dense output
//!    for the final term (never on a pattern-sharing output), the
//!    term's Eq.-5 buffer otherwise.
//! 5. **Operand ranges** — every slot, buffer, cursor, CSF level, and
//!    advance-table range referenced by any instruction is in range,
//!    and a `Dense` header's baked-in extent equals the kernel's
//!    declared dimension for that index.
//! 6. **Superinstruction contracts** — an `Axpy`/`Xmul`/`Ger` with
//!    `assign` set replaces an Eq.-5 `Zero`, so it must *assign* the
//!    term's whole buffer: unit target stride (row-major packing for a
//!    GER), a buffer target (never the final term's output), and
//!    extent equal to the buffer length. It then establishes zero domination exactly like
//!    the `Zero` it fused; without `assign` the same call is an
//!    accumulation that a `Zero` must dominate (rule 3).
//!    A fused sparse loop is checked as its parts: the `Sparse` header
//!    rules of 4 (one `check_sparse_header` for fused and unfused
//!    loops, keyed on the level alone), the loop open over its body,
//!    then the body.
//!    - `SparseAxpy`: the body is an `Axpy` — assigning for the first
//!      child when a zero is folded in, which is only sound below the
//!      root (a non-root node always has a child; a tile's root range
//!      can be empty), so a fold at level 0 is rejected.
//!    - `SparseDot`: the body is a `Dot` whose sources are earlier terms
//!      than its folded term `t`, then a `Leaf` checked with `t` zeroed
//!      (the per-child `Zero`). `t` must be a one-element buffer — the
//!      DOT result stands in for all of it — and it is never written,
//!      so after the loop no read of `t` is zero-dominated: `t` has no
//!      other reader. Any level is sound, since nothing folds across
//!      children.
//!    - `Fiber`: the header rules of a sparse loop, then its fixed
//!      two-instruction body with the loop open, each part checked as
//!      what it is. The body is a fused loop at the next level and one
//!      microkernel call, in a fiber's order (a sparse-AXPY loop before
//!      any call; an AXPY or XMUL before either fused loop). The driver
//!      splits the stores at the parts' target terms, so the first part
//!      writes an earlier term than the second and each part reads only
//!      terms before its own. Zeros set in the body are dropped after
//!      it, as after any loop.
//!
//! The cost is O(program size · nesting depth) — independent of the
//! tensor data — so every `Plan::bind` runs it; `Plan::verify_tape`
//! (`spttn plan --verify`) runs it without binding.

use super::{
    call_site, target_term, AxpyArgs, CompiledTape, DotCall, Instr, MatSrc, MatTgt, RBuf, Read,
    ScalarMul, VecSrc, VecTgt, Write,
};

use spttn_core::SpttnError;
use std::fmt;

/// A violated tape invariant: proof that a compiled program is
/// malformed, with enough context to locate the offending instruction.
///
/// Each variant is one corruption *class*; the mutation suite in this
/// module corrupts valid tapes one class at a time and asserts the
/// matching variant comes back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TapeInvariantError {
    /// Loop structure is broken: a header's `end` jump does not land
    /// just past its own `EndLoop`, or an `EndLoop` has no open loop.
    MalformedLoop { pc: usize, detail: String },
    /// Static loop nesting exceeds the preallocated frame-stack
    /// capacity — the driver would write `frames` out of bounds.
    FrameOverflow {
        pc: usize,
        depth: usize,
        capacity: usize,
    },
    /// An instruction operand (term, cursor, CSF level, index id,
    /// advance-table range) is out of range.
    OperandOutOfRange {
        pc: usize,
        what: &'static str,
        got: usize,
        limit: usize,
    },
    /// A `Dense` header's baked-in extent disagrees with the kernel's
    /// declared dimension for its index.
    ExtentMismatch {
        pc: usize,
        index: usize,
        got: usize,
        expected: usize,
    },
    /// A cursor-addressed access can exceed its backing store under
    /// the declared loop extents.
    CursorOutOfBounds {
        pc: usize,
        cursor: usize,
        store: String,
        max_offset: usize,
        len: usize,
    },
    /// One cursor is used against two different backing stores.
    CursorAliased {
        pc: usize,
        cursor: usize,
        first: String,
        second: String,
    },
    /// A buffer is read or accumulated into without a dominating
    /// `Zero` — the Eq.-5 split-point reset is missing on some path.
    MissingZero { pc: usize, term: usize },
    /// A microkernel or scalar leaf reads a buffer at or past its target
    /// term; the driver's read/write split (`buffers[..term]`) cannot
    /// serve it.
    ProducerOrderViolation {
        pc: usize,
        source: usize,
        term: usize,
    },
    /// Sparse-node tracking is inconsistent at a use site: a sparse
    /// loop's parent level or a sparse access's leaf level is not
    /// tracked by any enclosing loop, sparse loops are nested against
    /// CSF level order, or a write disagrees with the output's kind.
    TrackingInvariant { pc: usize, detail: String },
    /// A fused `ZeroAccum` superinstruction does not assign its term's
    /// whole buffer (wrong extent, strided target, or an output
    /// target): elements outside the covered range would keep stale
    /// values instead of the Eq.-5 reset the fusion replaced.
    ZeroAccumCoverage {
        pc: usize,
        term: usize,
        covered: usize,
        len: usize,
    },
}

impl fmt::Display for TapeInvariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TapeInvariantError::MalformedLoop { pc, detail } => {
                write!(f, "instr {pc}: malformed loop: {detail}")
            }
            TapeInvariantError::FrameOverflow {
                pc,
                depth,
                capacity,
            } => write!(
                f,
                "instr {pc}: loop nesting depth {depth} exceeds the frame-stack capacity {capacity}"
            ),
            TapeInvariantError::OperandOutOfRange {
                pc,
                what,
                got,
                limit,
            } => write!(
                f,
                "instr {pc}: {what} {got} out of range (limit {limit})"
            ),
            TapeInvariantError::ExtentMismatch {
                pc,
                index,
                got,
                expected,
            } => write!(
                f,
                "instr {pc}: dense loop extent {got} disagrees with the declared dimension {expected} of index {index}"
            ),
            TapeInvariantError::CursorOutOfBounds {
                pc,
                cursor,
                store,
                max_offset,
                len,
            } => write!(
                f,
                "instr {pc}: cursor {cursor} can reach offset {max_offset} in {store} of length {len}"
            ),
            TapeInvariantError::CursorAliased {
                pc,
                cursor,
                first,
                second,
            } => write!(
                f,
                "instr {pc}: cursor {cursor} addresses both {first} and {second}"
            ),
            TapeInvariantError::MissingZero { pc, term } => write!(
                f,
                "instr {pc}: buffer of term {term} accessed without a dominating Zero (Eq.-5 split-point reset missing)"
            ),
            TapeInvariantError::ProducerOrderViolation { pc, source, term } => write!(
                f,
                "instr {pc}: microkernel for term {term} sources buffer {source}, which the read/write split cannot serve"
            ),
            TapeInvariantError::TrackingInvariant { pc, detail } => {
                write!(f, "instr {pc}: node tracking: {detail}")
            }
            TapeInvariantError::ZeroAccumCoverage {
                pc,
                term,
                covered,
                len,
            } => write!(
                f,
                "instr {pc}: fused zero-accumulate covers {covered} of the {len} elements of term {term}'s buffer"
            ),
        }
    }
}

impl std::error::Error for TapeInvariantError {}

impl From<TapeInvariantError> for SpttnError {
    fn from(e: TapeInvariantError) -> SpttnError {
        SpttnError::Execution(format!("tape verification failed: {e}"))
    }
}

/// Proof summary returned by a successful [`CompiledTape::verify`]:
/// what was walked and how much was checked.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TapeReport {
    /// Instructions walked.
    pub instrs: usize,
    /// Dense loop headers.
    pub dense_loops: usize,
    /// Sparse loop headers.
    pub sparse_loops: usize,
    /// Deepest static loop nesting encountered.
    pub max_nesting: usize,
    /// Preallocated frame-stack capacity the nesting was checked
    /// against.
    pub frame_capacity: usize,
    /// Eq.-5 `Zero` split points (explicit `Zero` instructions; fused
    /// split points are counted in [`TapeReport::zero_accums`]).
    pub zeros: usize,
    /// Microkernel instructions, fused superinstructions included.
    pub microkernels: usize,
    /// Assigning calls (fused `ZeroAccum` pairs) proved to assign their
    /// term's whole buffer (a `SparseAxpy` with a folded zero included).
    pub zero_accums: usize,
    /// Innermost sparse loops fused with their AXPY body
    /// (`SparseAxpy`), each also counted as a sparse loop and a
    /// microkernel.
    pub sparse_axpys: usize,
    /// Innermost sparse loops fused with their `Zero; Dot; Leaf` body
    /// (`SparseDot`), each also counted as a sparse loop and a
    /// microkernel.
    pub sparse_dots: usize,
    /// Sparse loops run as one instruction over a fused loop one level
    /// down and one call (`Fiber`), each also counted as a sparse loop;
    /// their bodies are counted as what they are.
    pub fibers: usize,
    /// Microkernel sites whose strides take the kernel's scalar body on
    /// the vector tiers (see [`CompiledTape::specialized`] for the ones
    /// that take an unrolled vector body).
    pub scalar_fallbacks: usize,
    /// Cursor-addressed accesses proved in bounds.
    pub accesses_checked: usize,
    /// Distinct cursors bound to a backing store.
    pub cursors_bound: usize,
}

impl fmt::Display for TapeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "verified {} instrs ({} dense + {} sparse loops, nesting {}/{}), \
             {} zero points, {} microkernels ({} fused), \
             {} fused sparse-AXPY loops, {} fused sparse-DOT loops, {} fibers, \
             {} scalar fallbacks, {} accesses in bounds over {} cursors",
            self.instrs,
            self.dense_loops,
            self.sparse_loops,
            self.max_nesting,
            self.frame_capacity,
            self.zeros,
            self.microkernels,
            self.zero_accums,
            self.sparse_axpys,
            self.sparse_dots,
            self.fibers,
            self.scalar_fallbacks,
            self.accesses_checked,
            self.cursors_bound
        )
    }
}

/// Backing store a cursor resolves against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Store {
    Factor(usize),
    Buffer(usize),
    Out,
}

/// One open loop during the structured walk.
struct OpenLoop {
    /// The iterated index (a sparse loop's is its level's).
    index: usize,
    /// CSF level for sparse loops.
    level: Option<usize>,
    /// This loop's slice of the advance table.
    adv: (u32, u32),
}

struct Checker<'t> {
    tape: &'t CompiledTape,
    stack: Vec<OpenLoop>,
    /// Terms whose buffer a `Zero` dominates at the current point.
    zeroed: Vec<bool>,
    /// Store each cursor has been bound to (aliasing detector).
    stores: Vec<Option<Store>>,
    report: TapeReport,
}

/// Walk `tape` and prove every invariant; the module docs list them.
pub(crate) fn verify(tape: &CompiledTape) -> Result<TapeReport, TapeInvariantError> {
    // The advance table is shared by all headers; cursors must be in
    // range no matter how ranges are sliced.
    for e in &tape.adv {
        if e.cur >= tape.n_cursors {
            return Err(TapeInvariantError::OperandOutOfRange {
                pc: 0,
                what: "advance-table cursor",
                got: e.cur,
                limit: tape.n_cursors,
            });
        }
    }
    let mut ck = Checker {
        tape,
        stack: Vec::new(),
        zeroed: vec![false; tape.n_terms],
        stores: vec![None; tape.n_cursors],
        report: TapeReport {
            instrs: tape.instrs.len(),
            frame_capacity: tape.max_depth,
            ..TapeReport::default()
        },
    };
    ck.block(0, tape.instrs.len())?;
    ck.report.scalar_fallbacks = (tape.instrs.iter().filter_map(call_site))
        .filter(|&(_, contiguous)| !contiguous)
        .count();
    ck.report.cursors_bound = ck.stores.iter().filter(|s| s.is_some()).count();
    Ok(ck.report)
}

impl<'t> Checker<'t> {
    /// Check the straight-line block `instrs[lo..hi]`, recursing into
    /// loop bodies.
    fn block(&mut self, lo: usize, hi: usize) -> Result<(), TapeInvariantError> {
        let mut pc = lo;
        while pc < hi {
            let i = self.tape.instrs[pc];
            match i {
                Instr::Zero { term } => {
                    self.in_range(pc, "zeroed term", term, self.tape.n_terms)?;
                    self.zeroed[term] = true;
                    self.report.zeros += 1;
                    pc += 1;
                }
                Instr::Dense {
                    index,
                    dim,
                    adv,
                    end,
                } => {
                    self.in_range(pc, "loop index", index, self.tape.n_indices)?;
                    let expected = self.tape.bounds.index_dims[index];
                    if dim != expected {
                        return Err(TapeInvariantError::ExtentMismatch {
                            pc,
                            index,
                            got: dim,
                            expected,
                        });
                    }
                    self.report.dense_loops += 1;
                    self.loop_body(
                        pc,
                        end,
                        hi,
                        OpenLoop {
                            index,
                            level: None,
                            adv,
                        },
                    )?;
                    pc = end;
                }
                Instr::Sparse { level, adv, end } => {
                    let index = self.check_sparse_header(pc, level)?;
                    self.loop_body(
                        pc,
                        end,
                        hi,
                        OpenLoop {
                            index,
                            level: Some(level),
                            adv,
                        },
                    )?;
                    pc = end;
                }
                Instr::EndLoop => {
                    return Err(TapeInvariantError::MalformedLoop {
                        pc,
                        detail: "EndLoop without an open loop".into(),
                    });
                }
                Instr::Leaf(leaf) => {
                    self.check_leaf(pc, leaf)?;
                    pc += 1;
                }
                Instr::Dot { dot, tgt } => {
                    let term = target_term(&i, self.tape.n_terms.saturating_sub(1)).0;
                    self.check_dot(pc, dot, Some(term))?;
                    self.check_cell(pc, tgt)?;
                    pc += 1;
                }
                Instr::Axpy(axpy) => {
                    self.check_axpy(pc, axpy)?;
                    pc += 1;
                }
                Instr::Xmul {
                    n,
                    term,
                    x,
                    z,
                    y,
                    assign,
                    ..
                } => {
                    self.in_range(pc, "target term", term, self.tape.n_terms)?;
                    self.check_vec_src(pc, x, n, Some(term))?;
                    self.check_vec_src(pc, z, n, Some(term))?;
                    self.check_vec_tgt(pc, y, n, term, assign)?;
                    self.report.microkernels += 1;
                    pc += 1;
                }
                Instr::Ger {
                    m,
                    n,
                    term,
                    x,
                    y,
                    a,
                    assign,
                    ..
                } => {
                    self.in_range(pc, "target term", term, self.tape.n_terms)?;
                    self.check_vec_src(pc, x, m, Some(term))?;
                    self.check_vec_src(pc, y, n, Some(term))?;
                    self.check_mat_tgt(pc, a, m, n, term, assign)?;
                    self.report.microkernels += 1;
                    pc += 1;
                }
                Instr::Gemv {
                    m,
                    n,
                    term,
                    a,
                    x,
                    y,
                    ..
                } => {
                    self.in_range(pc, "target term", term, self.tape.n_terms)?;
                    self.check_mat_src(pc, a, m, n, term)?;
                    self.check_vec_src(pc, x, n, Some(term))?;
                    self.check_vec_tgt(pc, y, m, term, false)?;
                    self.report.microkernels += 1;
                    pc += 1;
                }
                Instr::SparseAxpy { level, adv, axpy } => {
                    // A folded body's zero domination outlives the loop
                    // (`level > 0`: at least one child runs).
                    self.fused_loop(pc, level, adv, |ck| ck.check_axpy(pc, axpy))?;
                    // A folded zero must run on every path its `Zero`
                    // did; a tile's root range can be empty, so at
                    // level 0 it covers nothing on that path.
                    if axpy.assign && level == 0 {
                        return Err(TapeInvariantError::ZeroAccumCoverage {
                            pc,
                            term: axpy.term,
                            covered: 0,
                            len: self.tape.bounds.buffer_lens[axpy.term],
                        });
                    }
                    self.report.sparse_axpys += 1;
                    pc += 1;
                }
                Instr::SparseDot {
                    level,
                    adv,
                    term,
                    dot,
                    leaf,
                } => {
                    self.in_range(pc, "folded term", term, self.tape.n_terms)?;
                    // The DOT result stands in for the whole buffer.
                    let len = self.tape.bounds.buffer_lens[term];
                    if len != 1 {
                        return Err(TapeInvariantError::ZeroAccumCoverage {
                            pc,
                            term,
                            covered: 1,
                            len,
                        });
                    }
                    self.fused_loop(pc, level, adv, |ck| {
                        // The DOT may not source `term`: the fused loop
                        // never zeroes it.
                        ck.check_dot(pc, dot, Some(term))?;
                        // The per-child `Zero`: a read of `term` is the
                        // DOT result.
                        ck.zeroed[term] = true;
                        ck.check_leaf(pc, leaf)
                    })?;
                    // `term` is never written, so no later read may
                    // count on what the unfused loop left in it.
                    self.zeroed[term] = false;
                    self.report.sparse_dots += 1;
                    pc += 1;
                }
                Instr::Fiber { level, adv } => {
                    self.fiber(pc, level, adv, hi)?;
                    self.report.fibers += 1;
                    pc += 3;
                }
            }
        }
        Ok(())
    }

    /// Check a fiber: its header by the rules of a `Sparse` one, then its
    /// two-instruction body with the loop open. The body is a fused loop
    /// one level down and a microkernel call: run first, a sparse-AXPY
    /// loop and any call; call first, an AXPY or XMUL and either fused
    /// loop. The driver splits the stores at the two parts' target terms,
    /// so the first part writes an earlier term than the second (each
    /// reads only earlier terms than its own, as every call does). Zeros
    /// established in the body prove nothing after it: a tile's root
    /// range can be empty.
    fn fiber(
        &mut self,
        pc: usize,
        level: usize,
        adv: (u32, u32),
        hi: usize,
    ) -> Result<(), TapeInvariantError> {
        let body = self
            .tape
            .instrs
            .get(pc + 1..pc + 3)
            .filter(|_| pc + 3 <= hi);
        let shape = |detail: &str| TapeInvariantError::MalformedLoop {
            pc,
            detail: format!("fiber body {detail}"),
        };
        let Some(&[a, b]) = body else {
            return Err(shape("runs past its block"));
        };
        let is_call = |i: &Instr| {
            matches!(
                i,
                Instr::Axpy(_)
                    | Instr::Xmul { .. }
                    | Instr::Ger { .. }
                    | Instr::Gemv { .. }
                    | Instr::Dot { .. }
            )
        };
        let run_level = match (a, b) {
            (Instr::SparseAxpy { level, .. }, call) if is_call(&call) => level,
            (
                Instr::Axpy(_) | Instr::Xmul { .. },
                Instr::SparseAxpy { level, .. } | Instr::SparseDot { level, .. },
            ) => level,
            _ => return Err(shape("is not a fused loop and a call in a fiber's order")),
        };
        if run_level != level + 1 {
            return Err(TapeInvariantError::TrackingInvariant {
                pc,
                detail: format!(
                    "fiber at level {level} runs a fused loop at level {run_level}, not its children's"
                ),
            });
        }
        let last = self.tape.n_terms.saturating_sub(1);
        let (ta, tb) = (target_term(&a, last).0, target_term(&b, last).0);
        if ta >= tb {
            return Err(TapeInvariantError::ProducerOrderViolation {
                pc: pc + 1,
                source: tb,
                term: ta,
            });
        }
        let saved = self.zeroed.clone();
        self.fused_loop(pc, level, adv, |ck| ck.block(pc + 1, pc + 3))?;
        self.zeroed = saved;
        Ok(())
    }

    /// Check a fused sparse loop (`SparseAxpy`, `SparseDot`): its header
    /// by the rules of a `Sparse` one, then `body` with the loop open.
    /// The loop drives no frame: it is open only for the body's cursor
    /// bounds and node tracking.
    fn fused_loop(
        &mut self,
        pc: usize,
        level: usize,
        adv: (u32, u32),
        body: impl FnOnce(&mut Self) -> Result<(), TapeInvariantError>,
    ) -> Result<(), TapeInvariantError> {
        let index = self.check_sparse_header(pc, level)?;
        self.check_adv_range(pc, adv)?;
        self.stack.push(OpenLoop {
            index,
            level: Some(level),
            adv,
        });
        self.report.max_nesting = self.report.max_nesting.max(self.stack.len());
        let checked = body(self);
        self.stack.pop();
        checked
    }

    /// Enter a loop at `header` with jump target `end` inside the
    /// enclosing block `..hi`, check its body, and restore the
    /// zero-domination state (a loop may run zero times, so zeros
    /// established inside it prove nothing afterwards).
    fn loop_body(
        &mut self,
        header: usize,
        end: usize,
        hi: usize,
        info: OpenLoop,
    ) -> Result<(), TapeInvariantError> {
        if end <= header + 1 || end > hi {
            return Err(TapeInvariantError::MalformedLoop {
                pc: header,
                detail: format!(
                    "loop end target {end} outside the enclosing block ({}..{hi}]",
                    header + 1
                ),
            });
        }
        if !matches!(self.tape.instrs[end - 1], Instr::EndLoop) {
            return Err(TapeInvariantError::MalformedLoop {
                pc: header,
                detail: format!(
                    "instruction {} before the end target is not EndLoop",
                    end - 1
                ),
            });
        }
        self.check_adv_range(header, info.adv)?;
        self.stack.push(info);
        if self.stack.len() > self.tape.max_depth {
            return Err(TapeInvariantError::FrameOverflow {
                pc: header,
                depth: self.stack.len(),
                capacity: self.tape.max_depth,
            });
        }
        self.report.max_nesting = self.report.max_nesting.max(self.stack.len());
        let saved = self.zeroed.clone();
        self.block(header + 1, end - 1)?;
        self.zeroed = saved;
        self.stack.pop();
        Ok(())
    }

    /// A loop header's slice of the advance table is in range.
    fn check_adv_range(&self, pc: usize, adv: (u32, u32)) -> Result<(), TapeInvariantError> {
        let (a, b) = (adv.0 as usize, adv.1 as usize);
        if a > b || b > self.tape.adv.len() {
            return Err(TapeInvariantError::OperandOutOfRange {
                pc,
                what: "advance-table range end",
                got: b,
                limit: self.tape.adv.len(),
            });
        }
        Ok(())
    }

    /// The header rules of a sparse loop, fused or not: it nests in
    /// storage order, and below level 0 an enclosing loop tracks the
    /// level above, whose node's children it iterates. Returns the index
    /// the loop iterates: the one its level stores.
    fn check_sparse_header(
        &mut self,
        pc: usize,
        level: usize,
    ) -> Result<usize, TapeInvariantError> {
        self.in_range(pc, "CSF level", level, self.tape.n_levels)?;
        // CSF descent order: an enclosing sparse loop must iterate a
        // strictly shallower level (Def. 3.2 restricts loop orders to
        // the storage order).
        for l in &self.stack {
            if let Some(el) = l.level {
                if el >= level {
                    return Err(TapeInvariantError::TrackingInvariant {
                        pc,
                        detail: format!(
                            "sparse loop at level {level} nested inside level {el} (against CSF storage order)"
                        ),
                    });
                }
            }
        }
        if level > 0 {
            self.require_tracked(pc, level - 1)?;
        }
        self.report.sparse_loops += 1;
        Ok(self.tape.bounds.level_index[level])
    }

    /// A scalar contraction — of a `Leaf` or a `SparseDot`.
    fn check_leaf(&mut self, pc: usize, leaf: ScalarMul) -> Result<(), TapeInvariantError> {
        let ScalarMul { left, right, tgt } = leaf;
        let term = match tgt {
            Write::Cell { term, .. } => term,
            Write::SparseCell => self.tape.n_terms.saturating_sub(1),
        };
        self.check_read(pc, left, term)?;
        self.check_read(pc, right, term)?;
        self.check_cell(pc, tgt)
    }

    /// A DOT call — of a `Dot`, or of a `SparseDot` (`split_term` its
    /// folded term).
    fn check_dot(
        &mut self,
        pc: usize,
        dot: DotCall,
        split_term: Option<usize>,
    ) -> Result<(), TapeInvariantError> {
        let DotCall { n, x, y, .. } = dot;
        self.check_vec_src(pc, x, n, split_term)?;
        self.check_vec_src(pc, y, n, split_term)?;
        self.report.microkernels += 1;
        Ok(())
    }

    /// An AXPY — of an `Axpy` (assigning when fused with its `Zero`), or
    /// of a `SparseAxpy` with or without a folded zero.
    fn check_axpy(&mut self, pc: usize, axpy: AxpyArgs) -> Result<(), TapeInvariantError> {
        let AxpyArgs {
            n,
            term,
            alpha,
            x,
            y,
            assign,
        } = axpy;
        self.in_range(pc, "target term", term, self.tape.n_terms)?;
        self.check_read(pc, alpha, term)?;
        self.check_vec_src(pc, x, n, Some(term))?;
        self.check_vec_tgt(pc, y, n, term, assign)?;
        self.report.microkernels += 1;
        Ok(())
    }

    fn in_range(
        &self,
        pc: usize,
        what: &'static str,
        got: usize,
        limit: usize,
    ) -> Result<(), TapeInvariantError> {
        if got >= limit {
            return Err(TapeInvariantError::OperandOutOfRange {
                pc,
                what,
                got,
                limit,
            });
        }
        Ok(())
    }

    /// True when an enclosing sparse loop tracks CSF `level`.
    fn tracked(&self, level: usize) -> bool {
        self.stack.iter().any(|l| l.level == Some(level))
    }

    fn require_tracked(&self, pc: usize, level: usize) -> Result<(), TapeInvariantError> {
        if !self.tracked(level) {
            return Err(TapeInvariantError::TrackingInvariant {
                pc,
                detail: format!("CSF level {level} is not tracked by any enclosing sparse loop"),
            });
        }
        Ok(())
    }

    /// A sparse value or pattern-sharing output cell is the node
    /// tracked at the leaf level: an enclosing sparse loop must track it.
    fn require_leaf(&self, pc: usize) -> Result<(), TapeInvariantError> {
        self.require_tracked(pc, self.tape.n_levels.saturating_sub(1))
    }

    /// Worst-case offset a cursor reaches at the current point: the
    /// sum of `(extent−1)·stride` over every enclosing loop that
    /// advances it (cursors are restored to 0 on loop exit, so loops
    /// not on the stack contribute nothing).
    fn max_cursor_offset(&self, cur: usize) -> usize {
        let mut off = 0usize;
        for l in &self.stack {
            for e in &self.tape.adv[l.adv.0 as usize..l.adv.1 as usize] {
                if e.cur == cur {
                    let extent = self.tape.bounds.index_dims[l.index];
                    off += extent.saturating_sub(1) * e.stride;
                }
            }
        }
        off
    }

    fn store_len(&self, s: Store) -> usize {
        match s {
            Store::Factor(i) => self.tape.bounds.factor_lens[i],
            Store::Buffer(t) => self.tape.bounds.buffer_lens[t],
            Store::Out => self.tape.bounds.out_len,
        }
    }

    fn store_name(&self, s: Store) -> String {
        match s {
            Store::Factor(i) => format!("factor slot {i}"),
            Store::Buffer(t) => format!("buffer of term {t}"),
            Store::Out => "dense output".into(),
        }
    }

    /// Bind a cursor to its backing store (rejecting aliasing) and
    /// prove its worst-case offset plus the access's own strided
    /// extent inside the store.
    fn check_access(
        &mut self,
        pc: usize,
        cur: usize,
        store: Store,
        extra: usize,
    ) -> Result<(), TapeInvariantError> {
        self.in_range(pc, "cursor", cur, self.tape.n_cursors)?;
        match self.stores[cur] {
            None => self.stores[cur] = Some(store),
            Some(prev) if prev == store => {}
            Some(prev) => {
                return Err(TapeInvariantError::CursorAliased {
                    pc,
                    cursor: cur,
                    first: self.store_name(prev),
                    second: self.store_name(store),
                });
            }
        }
        let len = self.store_len(store);
        let max_offset = self.max_cursor_offset(cur) + extra;
        if max_offset >= len {
            return Err(TapeInvariantError::CursorOutOfBounds {
                pc,
                cursor: cur,
                store: self.store_name(store),
                max_offset,
                len,
            });
        }
        self.report.accesses_checked += 1;
        Ok(())
    }

    fn rbuf_store(&self, pc: usize, buf: RBuf) -> Result<Store, TapeInvariantError> {
        Ok(match buf {
            RBuf::Factor(i) => {
                self.in_range(pc, "factor slot", i, self.tape.bounds.factor_lens.len())?;
                Store::Factor(i)
            }
            RBuf::Inter(u) => {
                self.in_range(pc, "source term", u, self.tape.n_terms)?;
                Store::Buffer(u)
            }
        })
    }

    fn require_zeroed(&self, pc: usize, term: usize) -> Result<(), TapeInvariantError> {
        if !self.zeroed[term] {
            return Err(TapeInvariantError::MissingZero { pc, term });
        }
        Ok(())
    }

    /// Scalar source of a call or leaf for term `term`: bounds, zero
    /// domination and an earlier term's buffer (what the driver's
    /// read/write split serves) for buffer reads, the tracked leaf for
    /// the sparse value.
    fn check_read(&mut self, pc: usize, r: Read, term: usize) -> Result<(), TapeInvariantError> {
        match r {
            Read::Cursor { buf, cur } => {
                let store = self.rbuf_store(pc, buf)?;
                if let RBuf::Inter(u) = buf {
                    if u >= term {
                        return Err(TapeInvariantError::ProducerOrderViolation {
                            pc,
                            source: u,
                            term,
                        });
                    }
                    self.require_zeroed(pc, u)?;
                }
                self.check_access(pc, cur, store, 0)
            }
            Read::SparseVal => self.require_leaf(pc),
        }
    }

    /// Scalar accumulation cell: its term's store ([`Checker::tgt_store`]),
    /// or a pattern-sharing cell at the tracked leaf.
    fn check_cell(&mut self, pc: usize, w: Write) -> Result<(), TapeInvariantError> {
        match w {
            Write::Cell { term, cur } => {
                self.in_range(pc, "target term", term, self.tape.n_terms)?;
                let store = self.tgt_store(pc, term)?;
                self.check_access(pc, cur, store, 0)
            }
            Write::SparseCell => {
                if !self.tape.bounds.output_sparse {
                    return Err(TapeInvariantError::TrackingInvariant {
                        pc,
                        detail: "sparse-cell write on a dense output".into(),
                    });
                }
                self.require_leaf(pc)
            }
        }
    }

    /// Whether `term` is the final term, whose target is the output.
    fn writes_output(&self, term: usize) -> bool {
        term + 1 == self.tape.n_terms
    }

    /// The store term `term`'s dense writes land in: the dense output
    /// for the final term — never on a pattern-sharing output — and
    /// its zero-dominated Eq.-5 buffer otherwise.
    fn tgt_store(&self, pc: usize, term: usize) -> Result<Store, TapeInvariantError> {
        if !self.writes_output(term) {
            self.require_zeroed(pc, term)?;
            return Ok(Store::Buffer(term));
        }
        if self.tape.bounds.output_sparse {
            return Err(TapeInvariantError::TrackingInvariant {
                pc,
                detail: "dense-output write on a pattern-sharing output".into(),
            });
        }
        Ok(Store::Out)
    }

    /// Strided vector source of a microkernel sweeping `n` elements.
    /// `split_term` is the instruction's target term when the driver
    /// serves sources through its read/write buffer split.
    fn check_vec_src(
        &mut self,
        pc: usize,
        v: VecSrc,
        n: usize,
        split_term: Option<usize>,
    ) -> Result<(), TapeInvariantError> {
        let store = self.rbuf_store(pc, v.buf)?;
        if let RBuf::Inter(u) = v.buf {
            if let Some(term) = split_term {
                if u >= term {
                    return Err(TapeInvariantError::ProducerOrderViolation {
                        pc,
                        source: u,
                        term,
                    });
                }
            }
            self.require_zeroed(pc, u)?;
        }
        self.check_access(pc, v.cur, store, n.saturating_sub(1) * v.inc)
    }

    /// Strided matrix source (GEMV's `A`, `m × n`).
    fn check_mat_src(
        &mut self,
        pc: usize,
        a: MatSrc,
        m: usize,
        n: usize,
        split_term: usize,
    ) -> Result<(), TapeInvariantError> {
        let store = self.rbuf_store(pc, a.buf)?;
        if let RBuf::Inter(u) = a.buf {
            if u >= split_term {
                return Err(TapeInvariantError::ProducerOrderViolation {
                    pc,
                    source: u,
                    term: split_term,
                });
            }
            self.require_zeroed(pc, u)?;
        }
        let extra = m.saturating_sub(1) * a.rs + n.saturating_sub(1) * a.cs;
        self.check_access(pc, a.cur, store, extra)
    }

    /// Strided vector target sweeping `n` elements into the output or
    /// `term`'s buffer; an `assign`ing one must cover the buffer with
    /// unit stride ([`Checker::zero_accum`]).
    fn check_vec_tgt(
        &mut self,
        pc: usize,
        y: VecTgt,
        n: usize,
        term: usize,
        assign: bool,
    ) -> Result<(), TapeInvariantError> {
        if assign {
            self.zero_accum(pc, term, n, y.inc == 1)?;
        }
        let store = self.tgt_store(pc, term)?;
        self.check_access(pc, y.cur, store, n.saturating_sub(1) * y.inc)
    }

    /// Strided matrix target (GER's `A`, `m × n`); an `assign`ing one
    /// must cover the buffer row-major dense ([`Checker::zero_accum`]).
    fn check_mat_tgt(
        &mut self,
        pc: usize,
        a: MatTgt,
        m: usize,
        n: usize,
        term: usize,
        assign: bool,
    ) -> Result<(), TapeInvariantError> {
        if assign {
            self.zero_accum(pc, term, m * n, a.cs == 1 && a.rs == n)?;
        }
        let store = self.tgt_store(pc, term)?;
        let extra = m.saturating_sub(1) * a.rs + n.saturating_sub(1) * a.cs;
        self.check_access(pc, a.cur, store, extra)
    }

    /// An assigning (fused `ZeroAccum`) target writing `covered`
    /// elements of `term`'s store, `packed` when at unit element stride:
    /// the call replaced the Eq.-5 `Zero`, so it must cover the buffer
    /// end to end, or stale elements would stay alive. The final term
    /// writes the output, which has no zero point: it covers nothing.
    /// The call then establishes zero domination for the rest of the
    /// block, exactly like the fused `Zero`.
    fn zero_accum(
        &mut self,
        pc: usize,
        term: usize,
        covered: usize,
        packed: bool,
    ) -> Result<(), TapeInvariantError> {
        let len = self.tape.bounds.buffer_lens[term];
        let out = self.writes_output(term);
        let covered = if out { 0 } else { covered };
        if out || !packed || covered != len {
            return Err(TapeInvariantError::ZeroAccumCoverage {
                pc,
                term,
                covered,
                len,
            });
        }
        self.zeroed[term] = true;
        self.report.zero_accums += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::{reads_term, AdvEntry, CompiledTape, Instr};
    use super::*;
    use crate::simd::KernelSet;
    use spttn_ir::{
        buffers_for_forest, build_forest, parse_kernel, path_from_picks, ContractionPath,
        FuseError, Kernel, LoopForest, LoopNode, NestSpec, VertexKind,
    };

    /// The order-3 TTMc kernel on its `T`-first path, fused by `orders`.
    fn ttmc_nest(orders: Vec<Vec<usize>>) -> (Kernel, ContractionPath, LoopForest) {
        let k = parse_kernel(
            "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
            &[("i", 8), ("j", 9), ("k", 10), ("r", 4), ("s", 5)],
        )
        .unwrap();
        let path = path_from_picks(&k, &[(0, 2), (0, 1)]);
        let forest = build_forest(&k, &path, &NestSpec { orders }).unwrap();
        (k, path, forest)
    }

    fn scalar_tape(k: &Kernel, path: &ContractionPath, forest: &LoopForest) -> CompiledTape {
        let bufs = buffers_for_forest(k, path, forest);
        CompiledTape::compile_with_kernels(k, path, forest, &bufs, KernelSet::scalar()).unwrap()
    }

    /// Listing-3 nest: every dense loop lowers to a microkernel.
    fn tracked_tape() -> CompiledTape {
        let (k, path, forest) = ttmc_nest(vec![vec![0, 1, 2, 4], vec![0, 1, 4, 3]]);
        scalar_tape(&k, &path, &forest)
    }

    /// Listing-4 nest: the fused dense `s` loop keeps a real `Dense`
    /// header, and `T`'s value is read by a scalar `Leaf` under the
    /// sparse `k` loop inside it.
    fn listing4_tape() -> CompiledTape {
        let (k, path, forest) = ttmc_nest(vec![vec![0, 1, 4, 2], vec![0, 1, 4, 3]]);
        scalar_tape(&k, &path, &forest)
    }

    /// Outer-product nest whose Eq.-5 buffer is written by exactly one
    /// GER: the `Zero` and the full-coverage `Ger` fuse into an
    /// assigning `Ger`.
    fn fused_ger_tape() -> CompiledTape {
        let k = parse_kernel(
            "S(i) = T(i,r,s) * U(r) * V(s)",
            &[("i", 6), ("r", 4), ("s", 8)],
        )
        .unwrap();
        let path = path_from_picks(&k, &[(1, 2), (0, 1)]);
        let spec = NestSpec {
            orders: vec![vec![1, 2], vec![0, 1, 2]],
        };
        let forest = build_forest(&k, &path, &spec).unwrap();
        let bufs = buffers_for_forest(&k, &path, &forest);
        CompiledTape::compile_with_kernels(&k, &path, &forest, &bufs, KernelSet::auto_detected())
            .unwrap()
    }

    /// Listing 3: the inner `k` loop and its AXPY into `X0[s]` (`s` = 5,
    /// generic rank) fuse into one `SparseAxpy` at level 2 with `X0`'s
    /// zero folded in.
    fn fused_loop_tape() -> CompiledTape {
        let (k, path, forest) = ttmc_nest(vec![vec![0, 1, 2, 4], vec![0, 1, 4, 3]]);
        let bufs = buffers_for_forest(&k, &path, &forest);
        CompiledTape::compile_with_kernels(&k, &path, &forest, &bufs, KernelSet::auto_detected())
            .unwrap()
    }

    /// The folded `SparseAxpy` of [`fused_loop_tape`].
    fn folded_loop(tape: &mut CompiledTape) -> &mut Instr {
        tape.instrs
            .iter_mut()
            .find(|i| matches!(i, Instr::SparseAxpy { axpy, .. } if axpy.assign))
            .expect("listing 3 folds X0's zero into its fused k loop")
    }

    /// `X0(a) = Σ_k T(k)·B(k,a)` zeroed in front of a fused loop over
    /// the CSF roots, then `A(a,b) = X0(a)·C(a,b)`: the pass keeps the
    /// `Zero` (a tile's root range can be empty).
    fn root_loop_tape() -> CompiledTape {
        let k = parse_kernel(
            "A(a,b) = T(k) * B(k,a) * C(a,b)",
            &[("k", 7), ("a", 5), ("b", 3)],
        )
        .unwrap();
        let path = path_from_picks(&k, &[(0, 1), (0, 1)]);
        let spec = NestSpec {
            orders: vec![vec![0, 1], vec![1, 2]],
        };
        let forest = build_forest(&k, &path, &spec).unwrap();
        let bufs = buffers_for_forest(&k, &path, &forest);
        CompiledTape::compile_with_kernels(&k, &path, &forest, &bufs, KernelSet::auto_detected())
            .unwrap()
    }

    /// Listing-3 nest with the buffer's innermost extent on a fixed
    /// rank (8): its AXPY site — fused into the `k` loop's `SparseAxpy`
    /// — runs the rank-8 unrolled body.
    fn specialized_tape() -> CompiledTape {
        let k = parse_kernel(
            "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
            &[("i", 8), ("j", 9), ("k", 10), ("r", 4), ("s", 8)],
        )
        .unwrap();
        let path = path_from_picks(&k, &[(0, 2), (0, 1)]);
        let spec = NestSpec {
            orders: vec![vec![0, 1, 2, 4], vec![0, 1, 4, 3]],
        };
        let forest = build_forest(&k, &path, &spec).unwrap();
        let bufs = buffers_for_forest(&k, &path, &forest);
        CompiledTape::compile_with_kernels(&k, &path, &forest, &bufs, KernelSet::auto_detected())
            .unwrap()
    }

    /// Order-3 TTTP on its gate path (`U*V → X0`, `W*X0 → X1`,
    /// `T*X1 → S`): the inner `k` loop — `Zero X1; Dot; Leaf` over a
    /// rank-32 DOT — fuses into one `SparseDot` at level 2 folding `X1`.
    fn fused_dot_tape() -> CompiledTape {
        let k = parse_kernel(
            "S(i,j,k) = T(i,j,k) * U(i,r) * V(j,r) * W(k,r)",
            &[("i", 6), ("j", 5), ("k", 7), ("r", 32)],
        )
        .unwrap();
        let path = path_from_picks(&k, &[(1, 2), (1, 2), (0, 1)]);
        let spec = NestSpec {
            orders: vec![vec![0, 1, 3], vec![0, 1, 2, 3], vec![0, 1, 2]],
        };
        let forest = build_forest(&k, &path, &spec).unwrap();
        let bufs = buffers_for_forest(&k, &path, &forest);
        CompiledTape::compile_with_kernels(&k, &path, &forest, &bufs, KernelSet::auto_detected())
            .unwrap()
    }

    /// The `SparseDot` of [`fused_dot_tape`] and its position.
    fn dot_loop(tape: &mut CompiledTape) -> (usize, &mut Instr) {
        tape.instrs
            .iter_mut()
            .enumerate()
            .find(|(_, i)| matches!(i, Instr::SparseDot { .. }))
            .expect("TTTP's k loop fuses into a SparseDot")
    }

    #[test]
    fn valid_tapes_verify_clean() {
        for tape in [tracked_tape(), listing4_tape(), fused_dot_tape()] {
            let report = tape.verify().expect("compiler output must verify");
            assert_eq!(report.instrs, tape.num_instrs());
            assert!(report.max_nesting <= report.frame_capacity);
            assert!(report.accesses_checked > 0);
            assert!(
                report.zeros + report.zero_accums + report.sparse_dots > 0,
                "Eq.-5 split points placed"
            );
        }
        let report = fused_dot_tape().verify().unwrap();
        assert_eq!(
            (report.sparse_dots, report.zeros, report.zero_accums),
            (1, 0, 1),
            "X1's zero folded into the fused k loop, X0's into an assigning Xmul"
        );
        assert!(format!("{report}").contains("1 fused sparse-DOT loops"));
    }

    /// A hand-built forest that would need a searched node — Listing 3
    /// with its root sparse mode flipped to dense, so the `j` loop's
    /// parent is tracked by nothing — is refused with a typed error,
    /// never compiled.
    #[test]
    fn compile_refuses_a_forest_that_needs_a_searched_node() {
        let (k, path, mut forest) = ttmc_nest(vec![vec![0, 1, 2, 4], vec![0, 1, 4, 3]]);
        let LoopNode::Loop(iv) = &mut forest.roots[0] else {
            panic!("listing 3 has a root loop");
        };
        assert_eq!(iv.kind, VertexKind::Sparse { level: 0 });
        iv.kind = VertexKind::Dense;
        let bufs = buffers_for_forest(&k, &path, &forest);
        let err =
            CompiledTape::compile_with_kernels(&k, &path, &forest, &bufs, KernelSet::scalar())
                .expect_err("broken descent must not compile");
        assert_eq!(err, SpttnError::Fuse(FuseError::BrokenDescent { index: 1 }));
    }

    #[test]
    fn report_displays_counts() {
        let report = tracked_tape().verify().unwrap();
        let text = format!("{report}");
        assert!(text.contains("verified"));
        assert!(text.contains("zero points"));
    }

    // ----- mutation suite: one corruption class per test ------------

    /// Class 1: drop a `Zero` — the Eq.-5 split-point reset vanishes
    /// and the buffer accumulation is no longer dominated.
    #[test]
    fn mutation_dropped_zero_rejected() {
        // Listing 4: the scalar buffer's `Zero` sits before a sparse
        // loop, so no call absorbs it.
        let mut tape = listing4_tape();
        let zero_at = tape
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::Zero { .. }))
            .expect("nest has a split point");
        tape.instrs.remove(zero_at);
        // Patch every loop end past the removal so the structure stays
        // intact and only the zero is missing.
        for ins in &mut tape.instrs {
            match ins {
                Instr::Dense { end, .. } | Instr::Sparse { end, .. } if *end > zero_at => {
                    *end -= 1;
                }
                _ => {}
            }
        }
        match tape.verify() {
            Err(TapeInvariantError::MissingZero { .. }) => {}
            other => panic!("expected MissingZero, got {other:?}"),
        }
    }

    /// Class 2: skew a stride — the cursor's worst-case offset leaves
    /// its backing store.
    #[test]
    fn mutation_skewed_stride_rejected() {
        let mut tape = tracked_tape();
        let e = tape
            .adv
            .iter_mut()
            .max_by_key(|e| e.stride)
            .expect("nest advances cursors");
        e.stride *= 1000;
        match tape.verify() {
            Err(TapeInvariantError::CursorOutOfBounds { .. }) => {}
            other => panic!("expected CursorOutOfBounds, got {other:?}"),
        }
    }

    /// Class 3: shrink the frame stack — nesting overflows the
    /// preallocated capacity.
    #[test]
    fn mutation_frame_overflow_rejected() {
        let mut tape = listing4_tape();
        assert!(tape.max_depth > 1);
        tape.max_depth = 1;
        match tape.verify() {
            Err(TapeInvariantError::FrameOverflow { capacity: 1, .. }) => {}
            other => panic!("expected FrameOverflow, got {other:?}"),
        }
    }

    /// Class 4: untrack a parent — the root sparse header becomes a
    /// dense one, so no enclosing loop tracks level 0, whose node's
    /// children the level-1 `j` loop iterates (the tape a searched-node
    /// forest would have been, had the compiler accepted it).
    #[test]
    fn mutation_untracked_parent_rejected() {
        let mut tape = tracked_tape();
        let Instr::Sparse { level: 0, adv, end } = tape.instrs[0] else {
            panic!("listing 3 opens with the root sparse loop");
        };
        let index = tape.bounds.level_index[0];
        tape.instrs[0] = Instr::Dense {
            index,
            dim: tape.bounds.index_dims[index],
            adv,
            end,
        };
        match tape.verify() {
            Err(TapeInvariantError::TrackingInvariant { .. }) => {}
            other => panic!("expected TrackingInvariant, got {other:?}"),
        }
    }

    /// Class 5: out-of-range operand — a cursor id past the allocated
    /// cursor count (the advance table is checked up front).
    #[test]
    fn mutation_cursor_out_of_range_rejected() {
        let mut tape = tracked_tape();
        let n = tape.n_cursors;
        tape.adv.push(AdvEntry { cur: n, stride: 1 });
        match tape.verify() {
            Err(TapeInvariantError::OperandOutOfRange { got, limit, .. }) => {
                assert_eq!((got, limit), (n, n));
            }
            other => panic!("expected OperandOutOfRange, got {other:?}"),
        }
    }

    /// Class 6: break the loop structure — a header's end target no
    /// longer lands past its own EndLoop.
    #[test]
    fn mutation_malformed_loop_rejected() {
        let mut tape = tracked_tape();
        let header = tape
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::Dense { .. } | Instr::Sparse { .. }))
            .expect("nest has loops");
        match &mut tape.instrs[header] {
            Instr::Dense { end, .. } | Instr::Sparse { end, .. } => *end = header + 1,
            _ => unreachable!(),
        }
        match tape.verify() {
            Err(TapeInvariantError::MalformedLoop { .. }) => {}
            other => panic!("expected MalformedLoop, got {other:?}"),
        }
    }

    /// Class 7: skew a dense extent — the baked-in trip count
    /// disagrees with the kernel's declared dimension.
    #[test]
    fn mutation_extent_mismatch_rejected() {
        let mut tape = listing4_tape();
        let d = tape
            .instrs
            .iter_mut()
            .find_map(|i| match i {
                Instr::Dense { dim, .. } => Some(dim),
                _ => None,
            })
            .expect("nest has dense loops");
        *d += 1;
        match tape.verify() {
            Err(TapeInvariantError::ExtentMismatch { .. }) => {}
            other => panic!("expected ExtentMismatch, got {other:?}"),
        }
    }

    /// Fused programs are first-class citizens of the verifier: each
    /// fused shape verifies clean, establishes zero domination through
    /// the superinstruction, and shows up in the report.
    #[test]
    fn fused_tapes_verify_clean() {
        let tape = fused_ger_tape();
        assert!(tape.superinstructions() > 0, "Zero+Ger fused");
        let report = tape.verify().expect("fused tape must verify");
        assert!(report.zero_accums > 0);
        assert_eq!(
            report.zeros, 0,
            "the only split point fused into the superinstruction"
        );

        let tape = specialized_tape();
        assert!(
            tape.specialized() > 0,
            "a rank-8 site takes the unrolled body"
        );
        assert!(
            tape.instrs.iter().any(|i| matches!(
                i,
                Instr::SparseAxpy { axpy, .. } if axpy.assign && axpy.n == 8
            )),
            "the k loop fuses with its rank-8 AXPY and folds X0's zero"
        );
        let report = tape.verify().expect("specialized tape must verify");
        assert_eq!(
            (report.sparse_axpys, report.zeros, report.zero_accums),
            (1, 0, 1),
            "X0's only split point folded into the fused loop"
        );

        let tape = root_loop_tape();
        let report = tape.verify().expect("root-level fused loop must verify");
        assert_eq!(
            (report.sparse_axpys, report.zeros, report.zero_accums),
            (1, 1, 0),
            "a level-0 loop keeps its Zero"
        );
    }

    /// Class 9: shrink a fused superinstruction's extent — it no
    /// longer assigns the whole buffer, so elements past the covered
    /// range would keep stale values.
    #[test]
    fn mutation_partial_zero_accum_rejected() {
        let mut tape = fused_ger_tape();
        let m = tape
            .instrs
            .iter_mut()
            .find_map(|i| match i {
                Instr::Ger {
                    m, assign: true, ..
                } => Some(m),
                _ => None,
            })
            .expect("nest fuses an assigning Ger");
        *m -= 1;
        match tape.verify() {
            Err(TapeInvariantError::ZeroAccumCoverage { covered, len, .. }) => {
                assert!(covered < len);
            }
            other => panic!("expected ZeroAccumCoverage, got {other:?}"),
        }
    }

    /// Class 10: retarget a fused superinstruction at the final term,
    /// whose target is the dense output — only Eq.-5 buffers have a
    /// zero point to fuse.
    #[test]
    fn mutation_output_zero_accum_rejected() {
        let mut tape = fused_ger_tape();
        let last = tape.n_terms - 1;
        let term = tape
            .instrs
            .iter_mut()
            .find_map(|i| match i {
                Instr::Ger {
                    term, assign: true, ..
                } => Some(term),
                _ => None,
            })
            .expect("nest fuses an assigning Ger");
        assert_ne!(*term, last);
        *term = last;
        match tape.verify() {
            Err(TapeInvariantError::ZeroAccumCoverage { covered: 0, .. }) => {}
            other => panic!("expected ZeroAccumCoverage with zero coverage, got {other:?}"),
        }
    }

    /// Class 11: grow the trip count of a site that takes the rank-8
    /// unrolled body — the call would read past its source rows. The
    /// cursor bounds are what prove every such site's `n` fits.
    #[test]
    fn mutation_specialized_trip_count_rejected() {
        let mut tape = specialized_tape();
        let n = tape
            .instrs
            .iter_mut()
            .find_map(|i| match i {
                Instr::SparseAxpy { axpy, .. } if axpy.n == 8 => Some(&mut axpy.n),
                _ => None,
            })
            .expect("nest fuses its rank-8 AXPY loop");
        *n += 1;
        match tape.verify() {
            Err(TapeInvariantError::CursorOutOfBounds { .. }) => {}
            other => panic!("expected CursorOutOfBounds, got {other:?}"),
        }
    }

    /// Class 18: set `assign` on an accumulating call — into the dense
    /// output (no zero point to stand in for), or into one row of a
    /// buffer (the rest would keep stale values).
    #[test]
    fn mutation_assign_on_accumulating_call_rejected() {
        // TTMc: term 0 sweeps `X0[j,:]` of a `(j,s)` buffer, term 1 a
        // strided column of the output `S[i,:,s]`. MTTKRP: term 1 is
        // an XMUL into the output row `A[i,:]`.
        let (k, path, forest) = ttmc_nest(vec![vec![0, 1, 2, 4], vec![0, 4, 1, 3]]);
        let ttmc = scalar_tape(&k, &path, &forest);
        let k = parse_kernel(
            "A(i,a) = T(i,j,k) * B(j,a) * C(k,a)",
            &[("i", 6), ("j", 5), ("k", 7), ("a", 4)],
        )
        .unwrap();
        let path = path_from_picks(&k, &[(0, 2), (0, 1)]);
        let orders = vec![vec![0, 1, 2, 3], vec![0, 1, 3]];
        let forest = build_forest(&k, &path, &NestSpec { orders }).unwrap();
        let mttkrp = scalar_tape(&k, &path, &forest);
        let mut seen = Vec::new();
        for tape in [ttmc, mttkrp] {
            tape.verify().expect("the unmutated nest verifies");
            for pc in 0..tape.instrs.len() {
                let mut bad = tape.clone();
                // An AXPY fused into its sparse loop assigns through the
                // first child's call.
                let (kind, n, term) = match &mut bad.instrs[pc] {
                    Instr::Axpy(axpy) | Instr::SparseAxpy { axpy, .. } if !axpy.assign => {
                        axpy.assign = true;
                        ("Axpy", axpy.n, axpy.term)
                    }
                    Instr::Xmul {
                        n, term, assign, ..
                    } if !*assign => {
                        *assign = true;
                        ("Xmul", *n, *term)
                    }
                    _ => continue,
                };
                let out = term + 1 == tape.n_terms;
                // MTTKRP's AXPY sweeps all of `X0(a)`: not this class.
                if !out && n == tape.bounds.buffer_lens[term] {
                    continue;
                }
                seen.push((kind, out));
                match bad.verify() {
                    Err(TapeInvariantError::ZeroAccumCoverage { covered, len, .. }) => {
                        // The output has no buffer; a buffer row is part
                        // of one.
                        assert!(if out { covered == 0 } else { covered < len });
                    }
                    other => panic!("{kind} at {pc}: expected ZeroAccumCoverage, got {other:?}"),
                }
            }
        }
        seen.sort();
        assert_eq!(seen, [("Axpy", false), ("Axpy", true), ("Xmul", true)]);
    }

    /// Class 19: clear `assign` on a fused call — it now accumulates
    /// into a buffer no `Zero` dominates.
    #[test]
    fn mutation_cleared_assign_rejected() {
        let mut tape = fused_ger_tape();
        let (pc, assign) = (tape.instrs.iter_mut().enumerate())
            .find_map(|(pc, i)| match i {
                Instr::Ger { assign, .. } if *assign => Some((pc, assign)),
                _ => None,
            })
            .expect("nest fuses an assigning Ger");
        *assign = false;
        match tape.verify() {
            Err(TapeInvariantError::MissingZero { pc: at, .. }) => assert_eq!(at, pc),
            other => panic!("expected MissingZero, got {other:?}"),
        }
    }

    /// Class 12: fold a `Zero` into a fused loop over the CSF roots —
    /// a tile's root range can be empty, so the assigning call would
    /// not run on that path and the buffer would keep stale values.
    #[test]
    fn mutation_root_level_fold_rejected() {
        let mut tape = root_loop_tape();
        let zero_at = tape
            .instrs
            .iter()
            .position(|i| matches!(i, Instr::Zero { .. }))
            .expect("the root loop keeps its Zero");
        let Instr::SparseAxpy { level: 0, axpy, .. } = &mut tape.instrs[zero_at + 1] else {
            panic!("the Zero sits right before the root-level fused loop");
        };
        axpy.assign = true;
        tape.instrs.remove(zero_at);
        for ins in &mut tape.instrs {
            match ins {
                Instr::Dense { end, .. } | Instr::Sparse { end, .. } if *end > zero_at => {
                    *end -= 1;
                }
                _ => {}
            }
        }
        match tape.verify() {
            Err(TapeInvariantError::ZeroAccumCoverage { covered: 0, .. }) => {}
            other => panic!("expected ZeroAccumCoverage, got {other:?}"),
        }
    }

    /// Class 13: shrink a folded fused loop's extent — its assigning
    /// first call no longer covers the buffer it stands in for zeroing.
    #[test]
    fn mutation_partial_folded_loop_rejected() {
        let mut tape = fused_loop_tape();
        let Instr::SparseAxpy { axpy, .. } = folded_loop(&mut tape) else {
            unreachable!()
        };
        axpy.n -= 1;
        match tape.verify() {
            Err(TapeInvariantError::ZeroAccumCoverage { covered, len, .. }) => {
                assert!(covered < len);
            }
            other => panic!("expected ZeroAccumCoverage, got {other:?}"),
        }
    }

    /// Class 14: move a fused loop to the wrong level — at level 1 it
    /// would iterate the children of the root node its enclosing `j`
    /// loop already walks, nested against CSF storage order.
    #[test]
    fn mutation_fused_loop_wrong_parent_rejected() {
        let mut tape = fused_loop_tape();
        let Instr::SparseAxpy { level, .. } = folded_loop(&mut tape) else {
            unreachable!()
        };
        assert_eq!(*level, 2);
        *level = 1;
        match tape.verify() {
            Err(TapeInvariantError::TrackingInvariant { .. }) => {}
            other => panic!("expected TrackingInvariant, got {other:?}"),
        }
    }

    /// Class 15: grow a fused DOT loop's rank-32 trip count — the call
    /// would read past the last row of its operands.
    #[test]
    fn mutation_fused_dot_trip_count_rejected() {
        let mut tape = fused_dot_tape();
        let (_, Instr::SparseDot { dot, .. }) = dot_loop(&mut tape) else {
            unreachable!()
        };
        assert_eq!(dot.n, 32);
        dot.n += 1;
        match tape.verify() {
            Err(TapeInvariantError::CursorOutOfBounds { .. }) => {}
            other => panic!("expected CursorOutOfBounds, got {other:?}"),
        }
    }

    /// Class 16: move a fused DOT loop to the wrong level (its parent
    /// becomes the root node, one level up).
    #[test]
    fn mutation_fused_dot_wrong_parent_rejected() {
        let mut tape = fused_dot_tape();
        let (_, Instr::SparseDot { level, .. }) = dot_loop(&mut tape) else {
            unreachable!()
        };
        assert_eq!(*level, 2);
        *level = 1;
        match tape.verify() {
            Err(TapeInvariantError::TrackingInvariant { .. }) => {}
            other => panic!("expected TrackingInvariant, got {other:?}"),
        }
    }

    /// Class 17: read the folded buffer after its fused DOT loop — the
    /// loop never writes it, so the read is not zero-dominated (which
    /// is what proves the fused `Leaf` was its only reader).
    #[test]
    fn mutation_read_of_folded_dot_buffer_rejected() {
        let mut tape = fused_dot_tape();
        let (at, &mut Instr::SparseDot { term, leaf, .. }) = dot_loop(&mut tape) else {
            unreachable!()
        };
        let folded = if reads_term(leaf.left, term) {
            leaf.left
        } else {
            leaf.right
        };
        let read = ScalarMul {
            left: folded,
            right: folded,
            ..leaf
        };
        tape.instrs.insert(at + 1, Instr::Leaf(read));
        for ins in &mut tape.instrs {
            match ins {
                Instr::Dense { end, .. } | Instr::Sparse { end, .. } if *end > at => *end += 1,
                _ => {}
            }
        }
        match tape.verify() {
            Err(TapeInvariantError::MissingZero { pc, term: t }) => {
                assert_eq!((pc, t), (at + 1, term));
            }
            other => panic!("expected MissingZero, got {other:?}"),
        }
    }

    /// The fiber of `tape` and its position.
    fn fiber_at(tape: &CompiledTape) -> usize {
        (tape.instrs.iter())
            .position(|i| matches!(i, Instr::Fiber { .. }))
            .expect("the nest runs its (i,j) fibers as one instruction")
    }

    /// Both fiber orders verify: Listing 3's run first (`SparseAxpy`,
    /// then the GER), TTTP's call first (the assigning XMUL, then the
    /// `SparseDot`).
    #[test]
    fn fibers_verify_clean() {
        for (tape, body) in [(fused_loop_tape(), (1, 0)), (fused_dot_tape(), (0, 1))] {
            let at = fiber_at(&tape);
            assert!(matches!(tape.instrs[at], Instr::Fiber { level: 1, .. }));
            let report = tape.verify().expect("a fiber verifies");
            assert_eq!(report.fibers, 1);
            assert_eq!((report.sparse_axpys, report.sparse_dots), body);
            assert_eq!(report.max_nesting, 3, "i's frame, the fiber, its run");
        }
    }

    /// Class 21: move a fiber to the wrong level — over its run's own
    /// level, whose children the run walks.
    #[test]
    fn mutation_fiber_wrong_level_rejected() {
        let mut tape = fused_loop_tape();
        let at = fiber_at(&tape);
        let Instr::Fiber { level, .. } = &mut tape.instrs[at] else {
            unreachable!()
        };
        *level += 1;
        match tape.verify() {
            Err(TapeInvariantError::TrackingInvariant { pc, .. }) => assert_eq!(pc, at),
            other => panic!("expected TrackingInvariant, got {other:?}"),
        }
    }

    /// Class 22: give a fiber a body of the wrong shape — its call
    /// before its run when the call is a GER (a run-first body swapped),
    /// or a scalar `Leaf` where the call should be.
    #[test]
    fn mutation_fiber_body_shape_rejected() {
        let base = fused_loop_tape();
        let at = fiber_at(&base);
        let mut swapped = base.clone();
        swapped.instrs.swap(at + 1, at + 2);
        let mut leaf = base.clone();
        leaf.instrs[at + 2] = Instr::Leaf(ScalarMul {
            left: Read::SparseVal,
            right: Read::SparseVal,
            tgt: Write::SparseCell,
        });
        for tape in [swapped, leaf] {
            match tape.verify() {
                Err(TapeInvariantError::MalformedLoop { pc, .. }) => assert_eq!(pc, at),
                other => panic!("expected MalformedLoop, got {other:?}"),
            }
        }
    }

    /// Class 23: make a fiber's call read a buffer it must not — the
    /// run-first tail reads its own term's store, the call-first head
    /// the buffer its run folds. The driver serves a part's sources from
    /// the stores split off before its own target.
    #[test]
    fn mutation_fiber_call_reads_a_later_buffer_rejected() {
        // (tape, the call's offset in the fiber, its source past its term)
        for (mut tape, call, past) in [(fused_loop_tape(), 2, 0), (fused_dot_tape(), 1, 1)] {
            let at = fiber_at(&tape) + call;
            let term = match &mut tape.instrs[at] {
                Instr::Ger { term, x, .. } | Instr::Xmul { term, x, .. } => {
                    x.buf = RBuf::Inter(*term + past);
                    *term
                }
                other => panic!("the fiber's call is a GER or an XMUL, got {other:?}"),
            };
            match tape.verify() {
                Err(TapeInvariantError::ProducerOrderViolation { pc, term: t, .. }) => {
                    assert_eq!((pc, t), (at, term));
                }
                other => panic!("expected ProducerOrderViolation, got {other:?}"),
            }
        }
    }

    /// Class 8: move a sparse-value `Leaf` out from under its deepest
    /// sparse loop — it would read the leaf node of a loop that is no
    /// longer open.
    #[test]
    fn mutation_sparse_leaf_outside_its_loop_rejected() {
        let mut tape = listing4_tape();
        let leaf = tape
            .instrs
            .iter()
            .position(|i| {
                matches!(
                    i,
                    Instr::Leaf(
                        ScalarMul {
                            left: Read::SparseVal,
                            ..
                        } | ScalarMul {
                            right: Read::SparseVal,
                            ..
                        }
                    )
                )
            })
            .expect("listing 4 reads T in a scalar leaf");
        // [Sparse k, Leaf, EndLoop] → [Sparse k, EndLoop, Leaf].
        assert!(matches!(
            tape.instrs[leaf - 1],
            Instr::Sparse { level: 2, .. }
        ));
        assert!(matches!(tape.instrs[leaf + 1], Instr::EndLoop));
        tape.instrs.swap(leaf, leaf + 1);
        let Instr::Sparse { end, .. } = &mut tape.instrs[leaf - 1] else {
            unreachable!()
        };
        *end -= 1;
        match tape.verify() {
            Err(TapeInvariantError::TrackingInvariant { .. }) => {}
            other => panic!("expected TrackingInvariant, got {other:?}"),
        }
    }

    /// Class 20: move a pattern-sharing output write out from under the
    /// leaf-level loop. SDDMM with `T·U → X0(j,r)` swept by a fused
    /// loop, then `S(i,j) += V(j,r)·X0(j,r)` as an unfused `r, j` nest:
    /// the moved `Leaf` reads only zero-dominated cursors, so its cell
    /// alone names the leaf node of a loop that is no longer open.
    #[test]
    fn mutation_sparse_cell_outside_its_loop_rejected() {
        let k = parse_kernel(
            "S(i,j) = T(i,j) * U(i,r) * V(j,r)",
            &[("i", 9), ("j", 7), ("r", 12)],
        )
        .unwrap();
        let path = path_from_picks(&k, &[(0, 1), (0, 1)]);
        let orders = vec![vec![0, 1, 2], vec![0, 2, 1]];
        let forest = build_forest(&k, &path, &NestSpec { orders }).unwrap();
        let mut tape = scalar_tape(&k, &path, &forest);
        tape.verify().expect("the unmutated nest verifies");
        let leaf = tape
            .instrs
            .iter()
            .position(|i| {
                matches!(
                    i,
                    Instr::Leaf(ScalarMul {
                        left: Read::Cursor { .. },
                        right: Read::Cursor { .. },
                        tgt: Write::SparseCell,
                    })
                )
            })
            .expect("the j loop writes S from cursors alone");
        // [Sparse j, Leaf, EndLoop] → [Sparse j, EndLoop, Leaf].
        assert!(matches!(
            tape.instrs[leaf - 1],
            Instr::Sparse { level: 1, .. }
        ));
        assert!(matches!(tape.instrs[leaf + 1], Instr::EndLoop));
        tape.instrs.swap(leaf, leaf + 1);
        let Instr::Sparse { end, .. } = &mut tape.instrs[leaf - 1] else {
            unreachable!()
        };
        *end -= 1;
        match tape.verify() {
            Err(TapeInvariantError::TrackingInvariant { pc, .. }) => assert_eq!(pc, leaf + 1),
            other => panic!("expected TrackingInvariant, got {other:?}"),
        }
    }
}
