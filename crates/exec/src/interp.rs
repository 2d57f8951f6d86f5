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
//!   GER/GEMV for two), mirroring the paper's Sec. 5 runtime.
//! - **Intermediate buffers** follow Eq. 5: each non-final term owns the
//!   dense buffer computed by [`spttn_ir::buffers_for_forest`]; the
//!   buffer is zeroed exactly at its split vertex — once per iteration
//!   of the deepest loop shared by producer and consumer — and indexed
//!   by the stored (non-ancestor) coordinates only.
//!
//! It makes the same microkernel choices in the same floating-point
//! operation order as a tape compiled with
//! [`KernelSet::scalar`](crate::simd::KernelSet::scalar), so the two
//! agree bitwise. It is serial, covers the whole tree, takes no guard,
//! and no production code calls it.

use crate::blas;
use crate::workspace::{
    forest_stamp, validate_output, validate_slotted_operands, ExecStats, OutputMut, Workspace,
};
use spttn_core::{Result, SpttnError};
use spttn_ir::{
    buffers_for_forest, ContractionPath, IndexId, Kernel, LoopForest, LoopNode, LoopVertex,
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
    inds.iter().zip(strides).map(|(&i, &s)| coords[i] * s).sum()
}

/// Which backing store a strided source lives in.
#[derive(Debug, Clone, Copy)]
enum BufSel {
    /// Dense factor input (kernel input slot).
    Factor(usize),
    /// Intermediate buffer of a term.
    Inter(usize),
}

/// Source operand metadata for microkernel dispatch, relative to one or
/// two candidate loop indices.
#[derive(Debug, Clone, Copy)]
enum SrcMeta {
    /// Constant under both loops (includes the sparse leaf value).
    Const(f64),
    /// Strided access: `data[base + i*s1 + j*s2]`.
    Var {
        buf: BufSel,
        base: usize,
        s1: usize,
        has1: bool,
        s2: usize,
        has2: bool,
    },
}

/// Target metadata for microkernel dispatch.
#[derive(Debug, Clone, Copy)]
enum TgtMeta {
    /// Scalar accumulation cell (loop indices contracted away).
    Cell,
    /// Strided target in the dense output or a term buffer.
    Var {
        out: bool,
        base: usize,
        s1: usize,
        has1: bool,
        s2: usize,
        has2: bool,
    },
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

    /// Dispatch an innermost dense loop (or dense loop pair) covering a
    /// single term to a BLAS microkernel. Returns `false` when the shape
    /// does not match a kernel; the generic interpreter then handles it
    /// (and inner vertices get their own dispatch chance).
    fn try_blas(&mut self, v: &LoopVertex) -> bool {
        if v.kind != VertexKind::Dense || v.term_hi - v.term_lo != 1 {
            return false;
        }
        let t = v.term_lo;
        match v.children.as_slice() {
            [LoopNode::Leaf(_)] => self.blas1(v.index, t),
            [LoopNode::Loop(v2)]
                if v2.kind == VertexKind::Dense
                    && v2.term_hi - v2.term_lo == 1
                    && matches!(v2.children.as_slice(), [LoopNode::Leaf(_)]) =>
            {
                self.blas2(v.index, v2.index, t)
            }
            _ => false,
        }
    }

    /// Source metadata w.r.t. loop indices `q1` (and optionally `q2`).
    fn src_meta(&self, op: Operand, q1: IndexId, q2: Option<IndexId>) -> SrcMeta {
        let (buf, inds, strides): (BufSel, &[IndexId], &[usize]) = match op {
            Operand::Input(i) if i == self.kernel.sparse_input => {
                return SrcMeta::Const(self.read_operand(op));
            }
            Operand::Input(i) => {
                let f = &self.factors[i];
                (
                    BufSel::Factor(i),
                    &self.kernel.inputs[i].indices,
                    f.strides(),
                )
            }
            Operand::Inter(u) => (
                BufSel::Inter(u),
                &self.buffer_inds[u],
                self.buffers[u].strides(),
            ),
        };
        let mut base = 0usize;
        let (mut s1, mut has1, mut s2, mut has2) = (0usize, false, 0usize, false);
        for (pos, &ind) in inds.iter().enumerate() {
            if ind == q1 {
                s1 = strides[pos];
                has1 = true;
            } else if Some(ind) == q2 {
                s2 = strides[pos];
                has2 = true;
            } else {
                base += self.coords[ind] * strides[pos];
            }
        }
        if !has1 && !has2 {
            SrcMeta::Const(self.read_operand(op))
        } else {
            SrcMeta::Var {
                buf,
                base,
                s1,
                has1,
                s2,
                has2,
            }
        }
    }

    /// Target metadata; `None` means dispatch is unsupported (sparse
    /// pattern-sharing output indexed by a loop index).
    fn tgt_meta(&self, t: usize, q1: IndexId, q2: Option<IndexId>) -> Option<TgtMeta> {
        let (out, inds, strides): (bool, &[IndexId], &[usize]) = if t + 1 == self.path.len() {
            if self.kernel.output_sparse {
                let oi = self.path.terms[t].out_inds;
                if oi.contains(q1) || q2.is_some_and(|q| oi.contains(q)) {
                    return None;
                }
                return Some(TgtMeta::Cell);
            }
            (true, &self.kernel.output.indices, self.out_dense.strides())
        } else {
            (false, &self.buffer_inds[t], self.buffers[t].strides())
        };
        let mut base = 0usize;
        let (mut s1, mut has1, mut s2, mut has2) = (0usize, false, 0usize, false);
        for (pos, &ind) in inds.iter().enumerate() {
            if ind == q1 {
                s1 = strides[pos];
                has1 = true;
            } else if Some(ind) == q2 {
                s2 = strides[pos];
                has2 = true;
            } else {
                base += self.coords[ind] * strides[pos];
            }
        }
        if has1 || has2 {
            Some(TgtMeta::Var {
                out,
                base,
                s1,
                has1,
                s2,
                has2,
            })
        } else {
            Some(TgtMeta::Cell)
        }
    }

    /// One dense loop over `q`, single term `t`: AXPY / elementwise /
    /// DOT dispatch.
    fn blas1(&mut self, q: IndexId, t: usize) -> bool {
        let n = self.kernel.dim(q);
        let term = &self.path.terms[t];
        let lm = self.src_meta(term.left, q, None);
        let rm = self.src_meta(term.right, q, None);
        let Some(tm) = self.tgt_meta(t, q, None) else {
            return false;
        };
        match tm {
            TgtMeta::Cell => {
                // Σ_q l[q]·r[q] into a scalar cell: DOT.
                if let (
                    SrcMeta::Var {
                        buf: lb,
                        base: lbase,
                        s1: ls,
                        ..
                    },
                    SrcMeta::Var {
                        buf: rb,
                        base: rbase,
                        s1: rs,
                        ..
                    },
                ) = (lm, rm)
                {
                    let v = {
                        let (reads, _) = self.buffers.split_at(t);
                        let x = slice_of(self.factors, reads, lb, lbase);
                        let y = slice_of(self.factors, reads, rb, rbase);
                        blas::dot(n, x, ls, y, rs)
                    };
                    self.stats.dot += 1;
                    self.stats.dot_elems += n as u64;
                    self.accumulate_cell(t, v);
                    true
                } else {
                    false
                }
            }
            TgtMeta::Var {
                out,
                base: tbase,
                s1: ts,
                ..
            } => {
                let factors = self.factors;
                let Exec {
                    buffers,
                    out_dense,
                    stats: run_stats,
                    ..
                } = self;
                let (reads, tail) = buffers.split_at_mut(t);
                let tgt: &mut [f64] = if out {
                    &mut out_dense.as_mut_slice()[tbase..]
                } else {
                    &mut tail[0].as_mut_slice()[tbase..]
                };
                match (lm, rm) {
                    (SrcMeta::Var { buf, base, s1, .. }, SrcMeta::Const(c))
                    | (SrcMeta::Const(c), SrcMeta::Var { buf, base, s1, .. }) => {
                        let x = slice_of(factors, reads, buf, base);
                        blas::axpy(n, c, x, s1, tgt, ts);
                        run_stats.axpy += 1;
                        run_stats.axpy_elems += n as u64;
                        true
                    }
                    (
                        SrcMeta::Var {
                            buf: lb,
                            base: lbase,
                            s1: ls,
                            ..
                        },
                        SrcMeta::Var {
                            buf: rb,
                            base: rbase,
                            s1: rs,
                            ..
                        },
                    ) => {
                        let x = slice_of(factors, reads, lb, lbase);
                        let z = slice_of(factors, reads, rb, rbase);
                        blas::xmul(n, 1.0, x, ls, z, rs, tgt, ts);
                        run_stats.xmul += 1;
                        run_stats.xmul_elems += n as u64;
                        true
                    }
                    (SrcMeta::Const(_), SrcMeta::Const(_)) => false,
                }
            }
        }
    }

    /// Two nested dense loops `(q1, q2)` over a single term: GER / GEMV
    /// dispatch.
    fn blas2(&mut self, q1: IndexId, q2: IndexId, t: usize) -> bool {
        let (m, n) = (self.kernel.dim(q1), self.kernel.dim(q2));
        let term = &self.path.terms[t];
        let lm = self.src_meta(term.left, q1, Some(q2));
        let rm = self.src_meta(term.right, q1, Some(q2));
        let Some(TgtMeta::Var {
            out,
            base: tbase,
            s1: t1,
            has1: th1,
            s2: t2,
            has2: th2,
        }) = self.tgt_meta(t, q1, Some(q2))
        else {
            return false;
        };
        let (SrcMeta::Var { .. }, SrcMeta::Var { .. }) = (lm, rm) else {
            return false;
        };
        // Destructure both Vars.
        let (lb, lbase, l1, lh1, l2, lh2) = match lm {
            SrcMeta::Var {
                buf,
                base,
                s1,
                has1,
                s2,
                has2,
            } => (buf, base, s1, has1, s2, has2),
            SrcMeta::Const(_) => unreachable!(),
        };
        let (rb, rbase, r1, rh1, r2, rh2) = match rm {
            SrcMeta::Var {
                buf,
                base,
                s1,
                has1,
                s2,
                has2,
            } => (buf, base, s1, has1, s2, has2),
            SrcMeta::Const(_) => unreachable!(),
        };

        let factors = self.factors;
        let Exec {
            buffers,
            out_dense,
            stats: run_stats,
            ..
        } = self;
        let (reads, tail) = buffers.split_at_mut(t);
        let tgt: &mut [f64] = if out {
            &mut out_dense.as_mut_slice()[tbase..]
        } else {
            &mut tail[0].as_mut_slice()[tbase..]
        };

        if th1 && th2 {
            // Rank-1 update: x carries q1, y carries q2.
            if lh1 && !lh2 && !rh1 && rh2 {
                let x = slice_of(factors, reads, lb, lbase);
                let y = slice_of(factors, reads, rb, rbase);
                blas::ger(m, n, 1.0, x, l1, y, r2, tgt, t1, t2);
                run_stats.ger += 1;
                run_stats.ger_elems += (m * n) as u64;
                return true;
            }
            if !lh1 && lh2 && rh1 && !rh2 {
                let x = slice_of(factors, reads, rb, rbase);
                let y = slice_of(factors, reads, lb, lbase);
                blas::ger(m, n, 1.0, x, r1, y, l2, tgt, t1, t2);
                run_stats.ger += 1;
                run_stats.ger_elems += (m * n) as u64;
                return true;
            }
            return false;
        }
        if th1 && !th2 {
            // y[q1] += Σ_q2 A[q1,q2] · x[q2].
            if lh1 && lh2 && !rh1 && rh2 {
                let a = slice_of(factors, reads, lb, lbase);
                let x = slice_of(factors, reads, rb, rbase);
                blas::gemv(m, n, 1.0, a, l1, l2, x, r2, tgt, t1);
                run_stats.gemv += 1;
                run_stats.gemv_elems += (m * n) as u64;
                return true;
            }
            if rh1 && rh2 && !lh1 && lh2 {
                let a = slice_of(factors, reads, rb, rbase);
                let x = slice_of(factors, reads, lb, lbase);
                blas::gemv(m, n, 1.0, a, r1, r2, x, l2, tgt, t1);
                run_stats.gemv += 1;
                run_stats.gemv_elems += (m * n) as u64;
                return true;
            }
            return false;
        }
        if !th1 && th2 {
            // y[q2] += Σ_q1 A[q2,q1] · x[q1].
            if lh1 && lh2 && rh1 && !rh2 {
                let a = slice_of(factors, reads, lb, lbase);
                let x = slice_of(factors, reads, rb, rbase);
                blas::gemv(n, m, 1.0, a, l2, l1, x, r1, tgt, t2);
                run_stats.gemv += 1;
                run_stats.gemv_elems += (m * n) as u64;
                return true;
            }
            if rh1 && rh2 && lh1 && !lh2 {
                let a = slice_of(factors, reads, rb, rbase);
                let x = slice_of(factors, reads, lb, lbase);
                blas::gemv(n, m, 1.0, a, r2, r1, x, l1, tgt, t2);
                run_stats.gemv += 1;
                run_stats.gemv_elems += (m * n) as u64;
                return true;
            }
            return false;
        }
        false
    }
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
