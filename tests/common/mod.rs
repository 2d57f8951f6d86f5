//! The reference the differential suites hold the tape to: the serial
//! loop-forest interpreter (`spttn::exec::interp`), run on exactly the
//! nest and operands `Plan::bind` would hand the tape.

use spttn::exec::interp::execute_forest_into;
use spttn::exec::{OutputMut, Workspace};
use spttn::tensor::{Csf, DenseTensor};
use spttn::{ContractionOutput, ExecStats, Plan};

/// Interpret `plan`'s nest over `csf` and the named factors from a
/// zeroed output (`=` semantics). Returns the result with the
/// interpreter's dispatch counters. Natural-order plans only: the
/// interpreter walks the CSF as given, it does not re-sort it.
pub fn interp_reference(
    plan: &Plan,
    csf: &Csf,
    factors: &[(&str, &DenseTensor)],
) -> (ContractionOutput, ExecStats) {
    assert!(
        plan.is_natural_order(),
        "reference needs the CSF in plan order"
    );
    let kernel = plan.kernel();
    let by_slot: Vec<DenseTensor> = kernel
        .inputs
        .iter()
        .enumerate()
        .map(|(slot, r)| {
            if slot == kernel.sparse_input {
                return DenseTensor::zeros(&[]);
            }
            let (_, t) = factors
                .iter()
                .find(|(name, _)| *name == r.name)
                .unwrap_or_else(|| panic!("factor '{}' not supplied", r.name));
            (*t).clone()
        })
        .collect();
    let mut ws = Workspace::from_specs(kernel, plan.path(), plan.forest(), plan.buffers());
    let mut run = |out: OutputMut<'_>| {
        execute_forest_into(
            kernel,
            plan.path(),
            plan.forest(),
            csf,
            &by_slot,
            &mut ws,
            out,
        )
        .expect("reference interpreter runs")
    };
    let out = if kernel.output_sparse {
        let mut vals = vec![0.0; csf.nnz()];
        run(OutputMut::Sparse(&mut vals));
        ContractionOutput::Sparse(csf.to_coo().with_vals(vals))
    } else {
        let mut dense = DenseTensor::zeros(&kernel.ref_dims(&kernel.output));
        run(OutputMut::Dense(&mut dense));
        ContractionOutput::Dense(dense)
    };
    (out, ws.stats())
}
