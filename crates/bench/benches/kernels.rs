//! End-to-end kernel execution: plan once, execute repeatedly — the
//! hot path a serving deployment would run, now through the reusable
//! `Executor` (zero per-call allocation).
//!
//! Run with `cargo bench -p spttn-bench --bench kernels`.

use rand::prelude::*;
use spttn::ir::{stdkernels, Kernel};
use spttn::tensor::{random_coo, random_dense, Csf, DenseTensor, SparsityProfile};
use spttn::{Contraction, CostModel, Executor, PlanOptions, Shapes};
use spttn_bench::{black_box, Harness};

fn executor_for(kernel: &Kernel, nnz: usize, seed: u64) -> Executor {
    let mut rng = StdRng::seed_from_u64(seed);
    let sparse_dims = kernel.ref_dims(kernel.sparse_ref());
    let coo = random_coo(&sparse_dims, nnz, &mut rng).unwrap();
    let order: Vec<usize> = (0..coo.order()).collect();
    let csf = Csf::from_coo(&coo, &order).unwrap();
    let factors: Vec<(&str, DenseTensor)> = kernel
        .inputs
        .iter()
        .enumerate()
        .filter(|&(slot, _)| slot != kernel.sparse_input)
        .map(|(_, r)| (r.name.as_str(), random_dense(&kernel.ref_dims(r), &mut rng)))
        .collect();
    let named: Vec<(&str, &DenseTensor)> = factors.iter().map(|(n, t)| (*n, t)).collect();
    Contraction::from_kernel(kernel.clone())
        .plan(
            &Shapes::new().with_profile(SparsityProfile::from_csf(&csf)),
            &PlanOptions::with_cost_model(CostModel::BlasAware {
                buffer_dim_bound: 2,
            }),
        )
        .expect("plan succeeds")
        .bind(csf, &named)
        .expect("bind succeeds")
}

fn main() {
    let suite: Vec<(&str, Kernel, usize)> = vec![
        ("mttkrp-3d-64", stdkernels::mttkrp(&[64, 64, 64], 16), 8000),
        ("ttmc-3d-64", stdkernels::ttmc(&[64, 64, 64], &[8, 8]), 8000),
        ("tttp-3d-64", stdkernels::tttp(&[64, 64, 64], 8), 8000),
    ];
    let mut h = Harness::new("Executor::execute_into (fused nests)");
    for (name, kernel, nnz) in &suite {
        let mut exec = executor_for(kernel, *nnz, 7);
        let mut out = exec.output_template();
        h.bench_function(name, move || {
            exec.execute_into(&mut out).expect("execution succeeds");
            black_box(out.to_dense().sum());
        });
    }
    h.finish();
}
