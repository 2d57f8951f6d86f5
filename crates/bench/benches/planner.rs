//! Planner benchmark: symbolic `Contraction::plan` over the stdkernels
//! suite, per cost model — the perf baseline future planner PRs are
//! measured against. Planning is purely structural (Shapes + sparsity
//! pattern); no tensor values are bound.
//!
//! Run with `cargo bench -p spttn-bench --bench planner`.

use rand::prelude::*;
use spttn::ir::{stdkernels, Kernel};
use spttn::tensor::{random_coo, CooTensor};
use spttn::{Contraction, CostModel, PlanOptions, Shapes};
use spttn_bench::{black_box, Harness};

/// A random sparsity pattern for the kernel's sparse input.
fn pattern_for(kernel: &Kernel, nnz: usize, seed: u64) -> CooTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let sparse_dims = kernel.ref_dims(kernel.sparse_ref());
    random_coo(&sparse_dims, nnz, &mut rng).unwrap()
}

fn main() {
    let suite: Vec<(&str, Kernel)> = vec![
        ("mttkrp-3d", stdkernels::mttkrp(&[64, 64, 64], 16)),
        ("ttmc-3d", stdkernels::ttmc(&[64, 64, 64], &[8, 8])),
        ("ttmc-4d", stdkernels::ttmc(&[16, 16, 16, 16], &[4, 4, 4])),
        ("tttp-3d", stdkernels::tttp(&[64, 64, 64], 8)),
        (
            "all-mode-ttmc-3d",
            stdkernels::all_mode_ttmc(&[32, 32, 32], &[8, 8, 8]),
        ),
        ("tttc-4d", stdkernels::tttc(&[12, 12, 12, 12], 4)),
    ];
    let models = [
        ("bufdim", CostModel::MaxBufferDim),
        ("bufsize", CostModel::MaxBufferSize),
        ("cache", CostModel::CacheMiss { d: 1 }),
        (
            "blas",
            CostModel::BlasAware {
                buffer_dim_bound: 2,
            },
        ),
    ];

    let mut h = Harness::new("Contraction::plan (stdkernels suite, symbolic)");
    for (kname, kernel) in &suite {
        let nnz = 2000.min(
            kernel
                .ref_dims(kernel.sparse_ref())
                .iter()
                .product::<usize>()
                / 4,
        );
        let shapes = Shapes::new().with_pattern(pattern_for(kernel, nnz, 42));
        for (mname, model) in &models {
            let kernel = kernel.clone();
            let shapes = shapes.clone();
            let opts = PlanOptions::with_cost_model(*model);
            h.bench_function(&format!("{kname}/{mname}"), move || {
                let plan = Contraction::from_kernel(kernel.clone())
                    .plan(&shapes, &opts)
                    .expect("plan succeeds");
                black_box(plan.flops);
            });
        }
    }
    h.finish();
}
