//! Reference loop-forest interpreter.
//!
//! The executor is the compiled tape ([`crate::tape`]); this module is
//! what tests compare it against. It walks a planned fused loop nest
//! ([`LoopForest`]) over a CSF sparse tensor and dense factor operands
//! directly, re-deriving on every vertex visit the decisions the tape
//! compiler makes once:
//!
//! - **Sparse vertices** iterate the children of the CSF node the
//!   enclosing sparse loop stands on (the root range at level 0). The
//!   forest rule ([`spttn_ir::vertex_kind`]) makes that the only case;
//!   a hand-built forest that breaks it is refused up front
//!   ([`LoopForest::check_descent`]), as the tape compiler does.
//! - **Dense vertices** iterate the full index dimension. Innermost
//!   dense loops covering a single term are dispatched to the
//!   [`crate::blas`] microkernels (AXPY/DOT/elementwise for one loop,
//!   GER/GEMV for two), as in the paper's Sec. 5 runtime — where the
//!   lowering rule ([`spttn_ir::lower`]) names one.
//! - **Intermediate buffers** follow Eq. 5: each non-final term owns the
//!   dense buffer computed by [`spttn_ir::buffers_for_forest`]; the
//!   buffer is zeroed exactly at its split vertex — once per iteration
//!   of the deepest loop shared by producer and consumer — and indexed
//!   by the stored (non-ancestor) coordinates only.
//!
//! It runs the same microkernel calls in the same floating-point
//! operation order as a tape compiled with
//! [`KernelSet::scalar`](crate::simd::KernelSet::scalar), so the two
//! agree bitwise. What that agreement vouches for is the tape's
//! *addressing and operation order*: cursors against offsets recomputed
//! from coordinates, the frame stack against recursion. It does not
//! vouch for *which* kernel a loop becomes — both engines ask
//! [`Term::leaf_op`](spttn_ir::Term::leaf_op), so a wrong rule is wrong
//! in both. The rule has its own exhaustive test beside its statement;
//! the naive oracle and `tests/plan_shape.rs`'s exact dispatch and flop
//! counts judge its results. The interpreter is serial, covers the whole
//! tree, takes no guard, and no production code calls it.
//!
//! It is also the one program that never fuses. Every kernel tier runs
//! the tape's fused program — assigning calls in place of zero points,
//! sparse loops run as one instruction by [`spttn_ir::fused_loop`] — so
//! the interpreter is what fusion is checked against: the scalar tape
//! bitwise, the host tier to ≤ 1e-9 with equal dispatch counts.

use crate::blas;
use crate::workspace::{
    forest_stamp, validate_output, validate_slotted_operands, ExecStats, OutputMut, Workspace,
};
use spttn_core::{Result, SpttnError};
use spttn_ir::{
    buffers_for_forest, ContractionPath, IndexId, Kernel, LeafOp, LoopForest, LoopNode, LoopVertex,
    Operand, VertexKind,
};
use spttn_tensor::{Csf, DenseTensor};

/// Interpret a fused loop forest over the whole tree into a
/// caller-owned output.
///
/// `factors_by_slot` holds one tensor per kernel input slot; the entry
/// at `kernel.sparse_input` is never read (pass any placeholder).
/// Contributions are **accumulated** into `out` — the caller zeroes it
/// first for plain `=` semantics, or leaves existing values in place for
/// `+=` accumulation. `ws` supplies the Eq.-5 buffers and receives the
/// run's [`ExecStats`]; it must have been built for the same
/// `(kernel, path, forest)`.
pub fn execute_forest_into(
    kernel: &Kernel,
    path: &ContractionPath,
    forest: &LoopForest,
    csf: &Csf,
    factors_by_slot: &[DenseTensor],
    ws: &mut Workspace,
    out: OutputMut<'_>,
) -> Result<()> {
    validate_slotted_operands(kernel, csf, factors_by_slot)?;
    validate_output(kernel, &out, csf.nnz())?;
    forest.check_descent(kernel, path)?;
    let specs = buffers_for_forest(kernel, path, forest);
    if ws.buffers.len() != path.len()
        || ws.forest_stamp != forest_stamp(forest)
        || specs
            .iter()
            .any(|s| ws.buffers[s.producer].dims() != s.dims.as_slice())
    {
        return Err(SpttnError::Execution(
            "workspace does not match the plan (build it from the same kernel/path/forest)".into(),
        ));
    }
    let mut buffer_inds: Vec<Vec<IndexId>> = vec![Vec::new(); path.len()];
    for s in specs {
        buffer_inds[s.producer] = s.inds;
    }
    ws.stats = ExecStats::default();
    let Workspace {
        buffers,
        scratch_dense,
        stats,
        ..
    } = ws;
    let (out_dense, out_sparse): (&mut DenseTensor, &mut [f64]) = match out {
        OutputMut::Dense(d) => (d, &mut []),
        OutputMut::Sparse(v) => (scratch_dense, v),
    };
    let mut exec = Exec {
        kernel,
        path,
        csf,
        factors: factors_by_slot,
        buffers,
        buffer_inds: &buffer_inds,
        coords: vec![0; kernel.num_indices()],
        nodes: vec![usize::MAX; kernel.csf_index_order().len()],
        out_dense,
        out_sparse,
        stats,
    };
    exec.exec_siblings(&forest.roots, path.len());
    Ok(())
}

/// Offset of the current coordinates within a tensor addressed by
/// `inds` (one index id per tensor mode, matching `strides`).
fn offset_in(inds: &[IndexId], strides: &[usize], coords: &[usize]) -> usize {
    strided(inds, strides, coords, []).0
}

/// Which backing store a strided source lives in.
#[derive(Debug, Clone, Copy)]
enum BufSel {
    /// Dense factor input (kernel input slot).
    Factor(usize),
    /// Intermediate buffer of a term.
    Inter(usize),
}

struct Exec<'a> {
    kernel: &'a Kernel,
    path: &'a ContractionPath,
    csf: &'a Csf,
    /// Per kernel-input slot; the sparse slot holds an unread placeholder.
    factors: &'a [DenseTensor],
    /// Per term; placeholder scalar for the final term.
    buffers: &'a mut [DenseTensor],
    /// Stored index ids of each term's buffer (producer loop order).
    buffer_inds: &'a [Vec<IndexId>],
    /// Current coordinate per kernel index.
    coords: Vec<usize>,
    /// Current CSF node per tree level (set by enclosing sparse loops).
    nodes: Vec<usize>,
    /// Dense output target (workspace scratch when the output is sparse).
    out_dense: &'a mut DenseTensor,
    /// Sparse output values, parallel with the CSF's leaves (empty when
    /// the output is dense).
    out_sparse: &'a mut [f64],
    /// Per-execution microkernel dispatch counters (workspace-owned).
    stats: &'a mut ExecStats,
}

impl<'a> Exec<'a> {
    /// Term range covered by a node.
    fn node_range(n: &LoopNode) -> (usize, usize) {
        match n {
            LoopNode::Leaf(t) => (*t, *t + 1),
            LoopNode::Loop(v) => (v.term_lo, v.term_hi),
        }
    }

    /// Execute a sibling list whose parent covers terms ending at
    /// `parent_hi`, zeroing each buffer at its split point: a buffer
    /// splits here when its producer is inside a child and its consumer
    /// is a later sibling (Eq. 5's common-ancestor rule).
    fn exec_siblings(&mut self, nodes: &[LoopNode], parent_hi: usize) {
        for n in nodes {
            let (lo, hi) = Self::node_range(n);
            for t in lo..hi {
                if let Some(c) = self.path.terms[t].consumer {
                    if c >= hi && c < parent_hi {
                        self.buffers[t].fill_zero();
                    }
                }
            }
            match n {
                LoopNode::Leaf(t) => {
                    let term = &self.path.terms[*t];
                    let l = self.read_operand(term.left);
                    let r = self.read_operand(term.right);
                    self.accumulate_cell(*t, l * r);
                }
                LoopNode::Loop(v) => self.exec_loop(v),
            }
        }
    }

    fn exec_loop(&mut self, v: &LoopVertex) {
        if self.try_blas(v) {
            return;
        }
        match v.kind {
            VertexKind::Dense => {
                for x in 0..self.kernel.dim(v.index) {
                    self.coords[v.index] = x;
                    self.exec_siblings(&v.children, v.term_hi);
                }
            }
            VertexKind::Sparse { level } => {
                let range = match level {
                    0 => self.csf.root_range(),
                    l => self.csf.children(l - 1, self.nodes[l - 1]),
                };
                for node in range {
                    self.coords[v.index] = self.csf.node_coord(level, node);
                    self.nodes[level] = node;
                    self.exec_siblings(&v.children, v.term_hi);
                }
            }
        }
    }

    /// The leaf node the innermost sparse loop stands on.
    fn leaf_node(&self) -> usize {
        self.nodes[self.csf.order() - 1]
    }

    /// Read an operand's value at the current coordinates.
    fn read_operand(&self, op: Operand) -> f64 {
        match op {
            Operand::Input(i) if i == self.kernel.sparse_input => {
                self.csf.leaf_val(self.leaf_node())
            }
            Operand::Input(i) => {
                let f = &self.factors[i];
                let off = offset_in(&self.kernel.inputs[i].indices, f.strides(), &self.coords);
                f.as_slice()[off]
            }
            Operand::Inter(u) => {
                let b = &self.buffers[u];
                let off = offset_in(&self.buffer_inds[u], b.strides(), &self.coords);
                b.as_slice()[off]
            }
        }
    }

    /// Accumulate a term's contribution at the current coordinates.
    fn accumulate_cell(&mut self, t: usize, v: f64) {
        if t + 1 == self.path.len() {
            if self.kernel.output_sparse {
                let node = self.leaf_node();
                self.out_sparse[node] += v;
            } else {
                let off = offset_in(
                    &self.kernel.output.indices,
                    self.out_dense.strides(),
                    &self.coords,
                );
                self.out_dense.as_mut_slice()[off] += v;
            }
        } else {
            let off = offset_in(
                &self.buffer_inds[t],
                self.buffers[t].strides(),
                &self.coords,
            );
            self.buffers[t].as_mut_slice()[off] += v;
        }
    }

    // ----- BLAS microkernel dispatch ---------------------------------

    /// Dispatch a dense loop (or dense loop pair) to the microkernel the
    /// lowering rule names for it ([`Term::leaf_op`] on
    /// [`LoopVertex::leaf_loops`] — the same call the tape compiler
    /// makes). Returns `false` when it names none; the generic
    /// interpreter then handles the vertex (and an inner vertex gets its
    /// own dispatch chance). The arms only address, in the tape
    /// compiler's order.
    fn try_blas(&mut self, v: &LoopVertex) -> bool {
        let Some((q1, q2, t)) = v.leaf_loops() else {
            return false;
        };
        let term = &self.path.terms[t];
        let Some(op) = term.leaf_op(q1, q2) else {
            return false;
        };
        let dim = |q: IndexId| self.kernel.dim(q);
        let factors = self.factors;
        match (op, q2) {
            (LeafOp::Dot, _) => {
                let n = dim(q1);
                let (xb, x0, [xi]) = self.src(term.left, [q1]);
                let (yb, y0, [yi]) = self.src(term.right, [q1]);
                let v = {
                    let (reads, _) = self.buffers.split_at(t);
                    let x = slice_of(factors, reads, xb, x0);
                    let y = slice_of(factors, reads, yb, y0);
                    blas::dot(n, x, xi, y, yi)
                };
                self.stats.dot += 1;
                self.stats.dot_elems += n as u64;
                self.accumulate_cell(t, v);
            }
            (LeafOp::Axpy { vec }, _) => {
                let n = dim(q1);
                let (xb, x0, [xi]) = self.src(term.operand(vec), [q1]);
                let alpha = self.read_operand(term.operand(vec.other()));
                self.stats.axpy += 1;
                self.stats.axpy_elems += n as u64;
                let (reads, y, [yi]) = self.tgt(t, [q1]);
                blas::axpy(n, alpha, slice_of(factors, reads, xb, x0), xi, y, yi);
            }
            (LeafOp::Xmul, _) => {
                let n = dim(q1);
                let (xb, x0, [xi]) = self.src(term.left, [q1]);
                let (zb, z0, [zi]) = self.src(term.right, [q1]);
                self.stats.xmul += 1;
                self.stats.xmul_elems += n as u64;
                let (reads, y, [yi]) = self.tgt(t, [q1]);
                let x = slice_of(factors, reads, xb, x0);
                let z = slice_of(factors, reads, zb, z0);
                blas::xmul(n, 1.0, x, xi, z, zi, y, yi);
            }
            (LeafOp::Ger { x }, Some(q2)) => {
                let (m, n) = (dim(q1), dim(q2));
                let (xb, x0, [xi]) = self.src(term.operand(x), [q1]);
                let (yb, y0, [yi]) = self.src(term.operand(x.other()), [q2]);
                self.stats.ger += 1;
                self.stats.ger_elems += (m * n) as u64;
                let (reads, a, [rs, cs]) = self.tgt(t, [q1, q2]);
                let x = slice_of(factors, reads, xb, x0);
                let y = slice_of(factors, reads, yb, y0);
                blas::ger(m, n, 1.0, x, xi, y, yi, a, rs, cs);
            }
            (LeafOp::Gemv { mat, row, col }, _) => {
                let (m, n) = (dim(row), dim(col));
                let (ab, a0, [rs, cs]) = self.src(term.operand(mat), [row, col]);
                let (xb, x0, [xi]) = self.src(term.operand(mat.other()), [col]);
                self.stats.gemv += 1;
                self.stats.gemv_elems += (m * n) as u64;
                let (reads, y, [yi]) = self.tgt(t, [row]);
                let a = slice_of(factors, reads, ab, a0);
                let x = slice_of(factors, reads, xb, x0);
                blas::gemv(m, n, 1.0, a, rs, cs, x, xi, y, yi);
            }
            (LeafOp::Ger { .. }, None) => unreachable!("leaf_op names GER for a loop pair only"),
        }
        true
    }

    /// A dense source inside a microkernel that runs it along the
    /// lowered loops `along`: its store, its offset at the current
    /// coordinates of every other stored index, and its stride along
    /// each of `along`.
    fn src<const N: usize>(&self, op: Operand, along: [IndexId; N]) -> (BufSel, usize, [usize; N]) {
        let (buf, inds, strides): (BufSel, &[IndexId], &[usize]) = match op {
            Operand::Input(i) => {
                assert_ne!(
                    i, self.kernel.sparse_input,
                    "the sparse input is never strided"
                );
                let inds = &self.kernel.inputs[i].indices;
                (BufSel::Factor(i), inds, self.factors[i].strides())
            }
            Operand::Inter(u) => (
                BufSel::Inter(u),
                &self.buffer_inds[u],
                self.buffers[u].strides(),
            ),
        };
        let (base, incs) = strided(inds, strides, &self.coords, along);
        (buf, base, incs)
    }

    /// Term `t`'s target inside a microkernel that runs it along
    /// `along`, addressed like [`Exec::src`] and borrowed mutably beside
    /// the buffers of earlier terms, which the sources may live in.
    fn tgt<const N: usize>(
        &mut self,
        t: usize,
        along: [IndexId; N],
    ) -> (&[DenseTensor], &mut [f64], [usize; N]) {
        let (reads, tail) = self.buffers.split_at_mut(t);
        let (store, inds): (&mut DenseTensor, &[IndexId]) = if t + 1 < self.path.len() {
            (&mut tail[0], &self.buffer_inds[t])
        } else {
            assert!(
                !self.kernel.output_sparse,
                "a pattern-sharing output is never strided"
            );
            (&mut *self.out_dense, &self.kernel.output.indices)
        };
        let (base, incs) = strided(inds, store.strides(), &self.coords, along);
        (reads, &mut store.as_mut_slice()[base..], incs)
    }
}

/// Address a tensor stored by `inds` inside a microkernel that runs it
/// along the lowered loops `along`: the offset of the current
/// coordinates of every other stored index, and the stride of each
/// `along` index (which the lowering rule says the tensor carries).
fn strided<const N: usize>(
    inds: &[IndexId],
    strides: &[usize],
    coords: &[usize],
    along: [IndexId; N],
) -> (usize, [usize; N]) {
    let (mut base, mut incs) = (0usize, [None; N]);
    for (&ind, &stride) in inds.iter().zip(strides) {
        match along.iter().position(|&q| q == ind) {
            Some(k) => incs[k] = Some(stride),
            None => base += coords[ind] * stride,
        }
    }
    (
        base,
        incs.map(|s| s.expect("the operand stores the lowered loop index")),
    )
}

/// Borrow the backing slice of a source, offset by `base`.
fn slice_of<'b>(
    factors: &'b [DenseTensor],
    read_buffers: &'b [DenseTensor],
    sel: BufSel,
    base: usize,
) -> &'b [f64] {
    match sel {
        BufSel::Factor(i) => &factors[i].as_slice()[base..],
        BufSel::Inter(u) => &read_buffers[u].as_slice()[base..],
    }
}
