//! Shared execution state and operand validation.
//!
//! Everything an execution touches besides the operands themselves: a
//! [`Workspace`] holds every Eq.-5 intermediate buffer plus the tape
//! driver's state, sized purely from the plan (no operand data), an
//! [`OutputMut`] names the caller-owned output a run accumulates into,
//! and [`ExecStats`] counts what the run dispatched. The tape
//! ([`crate::tape`]) runs against these types; the committed digests
//! the tests hold it to fold a run's output bits and its [`ExecStats`].

use spttn_core::{Result, SpttnError};
use spttn_ir::{buffers_for_forest, BufferSpec, ContractionPath, Kernel, LoopForest};
use spttn_tensor::{CooTensor, Csf, DenseTensor};

/// Per-execution counters of microkernel dispatches.
///
/// One instance lives in every [`Workspace`]; each run resets it at the
/// start, so after a call the workspace's stats describe exactly that
/// execution. Parallel runs aggregate one instance per worker with
/// [`ExecStats::merge`]. The counters are plain `u64`s bumped on the
/// executing thread — the hot loops touch **no atomics**.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// AXPY dispatches.
    pub axpy: u64,
    /// DOT dispatches.
    pub dot: u64,
    /// Elementwise ternary dispatches.
    pub xmul: u64,
    /// GER dispatches.
    pub ger: u64,
    /// GEMV dispatches.
    pub gemv: u64,
    /// Elements processed by AXPY dispatches (Σ n per call).
    pub axpy_elems: u64,
    /// Elements processed by DOT dispatches (Σ n per call).
    pub dot_elems: u64,
    /// Elements processed by elementwise ternary dispatches.
    pub xmul_elems: u64,
    /// Elements processed by GER dispatches (Σ m·n per call).
    pub ger_elems: u64,
    /// Elements processed by GEMV dispatches (Σ m·n per call).
    pub gemv_elems: u64,
}

impl ExecStats {
    /// Add another counter set into this one (aggregation across
    /// parallel workers).
    pub fn merge(&mut self, other: &ExecStats) {
        self.axpy += other.axpy;
        self.dot += other.dot;
        self.xmul += other.xmul;
        self.ger += other.ger;
        self.gemv += other.gemv;
        self.axpy_elems += other.axpy_elems;
        self.dot_elems += other.dot_elems;
        self.xmul_elems += other.xmul_elems;
        self.ger_elems += other.ger_elems;
        self.gemv_elems += other.gemv_elems;
    }

    /// Total microkernel dispatches.
    pub fn total(&self) -> u64 {
        self.axpy + self.dot + self.xmul + self.ger + self.gemv
    }

    /// Total elements processed across all microkernel dispatches —
    /// the per-call work the call counts in [`ExecStats::total`] hide.
    pub fn elems(&self) -> u64 {
        self.axpy_elems + self.dot_elems + self.xmul_elems + self.ger_elems + self.gemv_elems
    }

    /// Floating-point operations implied by the element counters: two
    /// — one multiply, one add — per element for every kernel, which is
    /// what the cost model charges a `tgt += l·r` whatever microkernel
    /// runs it. (XMUL's signature carries an `alpha`, but the tape and
    /// `spttn-net` always pass 1.0.)
    pub fn flops(&self) -> u64 {
        2 * self.elems()
    }
}

/// Output of a contraction: dense, or sharing the sparse input's pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum ContractionOutput {
    /// Dense output tensor (MTTKRP, TTMc, ...).
    Dense(DenseTensor),
    /// Pattern-sharing sparse output (TTTP / SDDMM-like), in COO form:
    /// the sparse input's entries in the bound CSF's leaf order, each
    /// coordinate with its modes in the **output's** written order
    /// (`S(k,j,i) = T(i,j,k)·…` comes back shaped `K×J×I`).
    Sparse(CooTensor),
}

impl ContractionOutput {
    /// Densify (cheap for dense, materializes for sparse outputs).
    pub fn to_dense(&self) -> DenseTensor {
        match self {
            ContractionOutput::Dense(t) => t.clone(),
            ContractionOutput::Sparse(c) => c.to_dense(),
        }
    }

    /// Borrow the dense output, if this is one.
    pub fn as_dense(&self) -> Option<&DenseTensor> {
        match self {
            ContractionOutput::Dense(t) => Some(t),
            ContractionOutput::Sparse(_) => None,
        }
    }
}

/// Validate *slot-ordered* operands against a kernel: one tensor per
/// kernel input slot (the sparse slot holds an ignored placeholder),
/// per-level CSF dimensions (the CSF must be stored in the kernel's
/// written index order for the sparse tensor), and dense factor shapes.
/// Allocation-free on the success path so it can run per execution.
pub fn validate_slotted_operands(
    kernel: &Kernel,
    csf: &Csf,
    factors_by_slot: &[DenseTensor],
) -> Result<()> {
    if factors_by_slot.len() != kernel.inputs.len() {
        return Err(SpttnError::Execution(format!(
            "expected {} slot-ordered factors, got {}",
            kernel.inputs.len(),
            factors_by_slot.len()
        )));
    }
    let sparse_ref = kernel.sparse_ref();
    if csf.order() != sparse_ref.indices.len() {
        return Err(SpttnError::Shape(format!(
            "sparse tensor '{}' has {} modes in the kernel but the CSF has {}",
            sparse_ref.name,
            sparse_ref.indices.len(),
            csf.order()
        )));
    }
    for level in 0..csf.order() {
        let want = kernel.dim(kernel.index_at_level(level));
        let got = csf.dims()[csf.mode_order()[level]];
        if want != got {
            return Err(SpttnError::Shape(format!(
                "sparse mode at CSF level {level} has dimension {got}, kernel expects {want}"
            )));
        }
    }
    for (slot, r) in kernel.inputs.iter().enumerate() {
        if slot == kernel.sparse_input {
            continue;
        }
        let t = &factors_by_slot[slot];
        if t.order() != r.indices.len()
            || r.indices
                .iter()
                .enumerate()
                .any(|(pos, &i)| t.dims()[pos] != kernel.dim(i))
        {
            return Err(SpttnError::Shape(format!(
                "factor '{}' has dims {:?}, kernel expects {:?}",
                r.name,
                t.dims(),
                kernel.ref_dims(r)
            )));
        }
    }
    Ok(())
}

/// Preallocated mutable state for repeated executions of one plan.
///
/// Holds every Eq.-5 intermediate buffer plus the tape driver's state,
/// sized purely from `(kernel, path, forest)` — no operand data is
/// needed, so a workspace can be built before any tensor is bound.
/// After [`Workspace::prepare_tape`], running the tape performs no heap
/// allocation.
#[derive(Debug, Clone)]
pub struct Workspace {
    /// Per term: the Eq.-5 buffer (scalar placeholder for the final term).
    pub(crate) buffers: Vec<DenseTensor>,
    /// Dummy dense target used when the kernel's output is sparse.
    pub(crate) scratch_dense: DenseTensor,
    /// Microkernel dispatch counters of the most recent execution.
    pub(crate) stats: ExecStats,
    /// Fingerprint of the forest the buffers were sized for, so a run
    /// can reject a workspace built for a different nest (whose buffer
    /// shapes would silently disagree).
    pub(crate) forest_stamp: u64,
    /// Preallocated mutable state of the tape driver, present once
    /// [`Workspace::prepare_tape`] ran (the executors do this at bind
    /// time so tape executions stay allocation-free).
    pub(crate) tape: Option<crate::tape::TapeState>,
}

/// Structural fingerprint of a loop forest (allocation-free).
pub(crate) fn forest_stamp(forest: &LoopForest) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    forest.hash(&mut h);
    h.finish()
}

impl Workspace {
    /// Build a workspace for a planned nest, inferring buffer specs via
    /// [`buffers_for_forest`].
    pub fn new(kernel: &Kernel, path: &ContractionPath, forest: &LoopForest) -> Self {
        Self::from_specs(
            kernel,
            path,
            forest,
            &buffers_for_forest(kernel, path, forest),
        )
    }

    /// Build a workspace from precomputed buffer specs (e.g. the specs a
    /// symbolic plan carries); `forest` must be the nest the specs were
    /// computed for. Everything is sized from `path` and `specs`; the
    /// kernel parameter is unread and stays because the benchmark gate
    /// compiles against this signature.
    pub fn from_specs(
        _kernel: &Kernel,
        path: &ContractionPath,
        forest: &LoopForest,
        specs: &[BufferSpec],
    ) -> Self {
        let mut buffers: Vec<DenseTensor> =
            (0..path.len()).map(|_| DenseTensor::zeros(&[])).collect();
        for spec in specs {
            buffers[spec.producer] = DenseTensor::zeros(&spec.dims);
        }
        Workspace {
            buffers,
            scratch_dense: DenseTensor::zeros(&[]),
            stats: ExecStats::default(),
            forest_stamp: forest_stamp(forest),
            tape: None,
        }
    }

    /// Preallocate the mutable runtime state of a compiled tape (see
    /// [`crate::tape::CompiledTape`]) inside this workspace, so tape
    /// executions after this call perform zero heap allocations. The
    /// workspace must have been built for the same plan the tape was
    /// compiled from. Idempotent for a matching tape; a state prepared
    /// for a different tape is replaced.
    pub fn prepare_tape(&mut self, tape: &crate::tape::CompiledTape) {
        if !self.tape.as_ref().is_some_and(|s| s.matches(tape)) {
            self.tape = Some(tape.new_state());
        }
    }

    /// Microkernel dispatch counters of the most recent execution run
    /// with this workspace.
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// The intermediate buffers, one per path term (final term holds a
    /// scalar placeholder). Exposed so callers can assert allocation
    /// stability across executions.
    pub fn buffers(&self) -> &[DenseTensor] {
        &self.buffers
    }
}

/// A caller-owned output target for an execution.
#[derive(Debug)]
pub enum OutputMut<'a> {
    /// Dense output tensor, shaped like the kernel output.
    Dense(&'a mut DenseTensor),
    /// Values of a pattern-sharing sparse output, parallel with the
    /// CSF's leaves.
    Sparse(&'a mut [f64]),
}

/// Validate an output target against a kernel: dense/sparse kind, the
/// dense dimensions, or the sparse value count (`leaf_len` nonzeros —
/// the whole tensor for a full execution, one tile's leaves for a tiled
/// one). Allocation-free on the success path; shared by the tape, the
/// parallel executor and the facade's executor (which checks before it
/// zeroes) so they cannot drift.
pub fn validate_output(kernel: &Kernel, out: &OutputMut<'_>, leaf_len: usize) -> Result<()> {
    match out {
        OutputMut::Dense(d) => {
            if kernel.output_sparse {
                return Err(SpttnError::Execution(
                    "kernel output shares the sparse pattern; pass OutputMut::Sparse".into(),
                ));
            }
            let oinds = &kernel.output.indices;
            if d.order() != oinds.len()
                || oinds
                    .iter()
                    .enumerate()
                    .any(|(pos, &i)| d.dims()[pos] != kernel.dim(i))
            {
                return Err(SpttnError::Shape(format!(
                    "output has dims {:?}, kernel expects {:?}",
                    d.dims(),
                    kernel.ref_dims(&kernel.output)
                )));
            }
        }
        OutputMut::Sparse(v) => {
            if !kernel.output_sparse {
                return Err(SpttnError::Execution(
                    "kernel output is dense; pass OutputMut::Dense".into(),
                ));
            }
            if v.len() != leaf_len {
                return Err(SpttnError::Shape(format!(
                    "sparse output has {} values, the executed range has {} nonzeros",
                    v.len(),
                    leaf_len
                )));
            }
        }
    }
    Ok(())
}
