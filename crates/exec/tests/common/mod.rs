//! Building blocks the exec-level suites share for driving the
//! `*_into` entry points from freshly allocated state.
#![allow(dead_code)] // each suite uses its own subset

pub mod digest;

use spttn_core::Result;
use spttn_exec::{CompiledTape, ContractionOutput, KernelSet, OutputMut};
use spttn_ir::{buffers_for_forest, ContractionPath, Kernel, LoopForest};
use spttn_tensor::{Csf, DenseTensor};

/// Slot-ordered copies of `dense` (one tensor per non-sparse input, in
/// input order) with a scalar placeholder in the sparse slot. Too few
/// tensors give a short list, which the executors reject.
pub fn by_slot(kernel: &Kernel, dense: &[&DenseTensor]) -> Vec<DenseTensor> {
    let mut next = dense.iter();
    let mut slots = Vec::new();
    for slot in 0..kernel.inputs.len() {
        if slot == kernel.sparse_input {
            slots.push(DenseTensor::zeros(&[]));
        } else if let Some(t) = next.next() {
            slots.push((*t).clone());
        }
    }
    slots
}

/// Hand `run` a zeroed output of the kernel's kind and wrap the result.
pub fn fresh_output(
    kernel: &Kernel,
    csf: &Csf,
    run: impl FnOnce(OutputMut<'_>) -> Result<()>,
) -> Result<ContractionOutput> {
    if kernel.output_sparse {
        let mut vals = vec![0.0; csf.nnz()];
        run(OutputMut::Sparse(&mut vals))?;
        Ok(ContractionOutput::Sparse(csf.to_coo().with_vals(vals)))
    } else {
        let mut out = DenseTensor::zeros(&kernel.ref_dims(&kernel.output));
        run(OutputMut::Dense(&mut out))?;
        Ok(ContractionOutput::Dense(out))
    }
}

/// The output's values, as a digest folds them: a dense output's cells
/// or a pattern-sharing output's entries.
pub fn vals(out: &ContractionOutput) -> &[f64] {
    match out {
        ContractionOutput::Dense(d) => d.as_slice(),
        ContractionOutput::Sparse(c) => c.vals(),
    }
}

/// The nest lowered with the scalar kernel set — the program whose
/// bits the committed digests pin.
pub fn scalar_tape(kernel: &Kernel, path: &ContractionPath, forest: &LoopForest) -> CompiledTape {
    let specs = buffers_for_forest(kernel, path, forest);
    CompiledTape::compile_with_kernels(kernel, path, forest, &specs, KernelSet::scalar())
        .expect("nest compiles")
}
