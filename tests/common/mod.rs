//! What the facade suites hold the tape to: the committed digests
//! (`crates/exec/tests/tape_digests.txt`, through [`digest`]) and the
//! 1-tile scalar tape they pin.
#![allow(dead_code)] // each suite uses its own subset

#[path = "../../crates/exec/tests/common/digest.rs"]
pub mod digest;

use digest::Digests;
use spttn::exec::KernelSel;
use spttn::tensor::{Csf, DenseTensor};
use spttn::{ContractionOutput, CostModel, Executor, Microkernels, Plan, Threads};

/// The name a digest line gives a cost model.
pub fn model_name(model: CostModel) -> &'static str {
    match model {
        CostModel::BlasAware { .. } => "blas-aware",
        CostModel::CacheMiss { .. } => "cache-miss",
        CostModel::MaxBufferSize => "max-buffer-size",
        CostModel::MaxBufferDim => "max-buffer-dim",
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

/// Record `exec`'s last run, whose output is `out`, under its bound
/// tier class and tile count.
pub fn record(
    digests: &mut Digests,
    case: impl std::fmt::Display,
    model: CostModel,
    exec: &Executor,
    out: &ContractionOutput,
) {
    let scalar = exec.tape().kernels().selection() == KernelSel::Scalar;
    let stats = exec.last_stats();
    digests.record(
        case,
        model_name(model),
        scalar,
        exec.threads(),
        vals(out),
        &stats,
    );
}

/// `plan` bound at one tile on the scalar tier and run from a zeroed
/// output (`=` semantics): the program whose bits the digests pin.
/// Returns the result and the executor, which holds the run's stats.
pub fn scalar_reference(
    plan: &Plan,
    csf: &Csf,
    factors: &[(&str, &DenseTensor)],
) -> (ContractionOutput, Executor) {
    let mut opts = plan.exec().clone();
    (opts.threads, opts.microkernels) = (Threads::N(1), Microkernels::Scalar);
    let mut exec = (plan.clone().with_exec(opts))
        .bind(csf.clone(), factors)
        .expect("the scalar reference binds");
    let out = exec.execute().expect("the scalar reference runs");
    (out, exec)
}
