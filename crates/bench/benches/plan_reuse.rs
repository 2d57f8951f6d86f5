//! Plan reuse vs. re-planning: the economic case for the two-stage API.
//!
//! For each stdkernels workload, one iteration performs N "sweeps"
//! (fresh factor values each sweep, like CP-ALS / HOOI) three ways:
//!
//! - `replan`:   N full pipelines — plan + bind + execute per sweep.
//! - `cached`:   N pipelines through a `PlanCache` — the DP runs once,
//!   later sweeps pay only key lookup + bind + execute.
//! - `plan-once`: one plan + one bind, then N × (`set_factor` +
//!   `execute_into`) — the intended hot path, allocation-free.
//!
//! Run with `cargo bench -p spttn-bench --bench plan_reuse`. The
//! plan-once rows must beat the replan rows; the gap is the planner
//! cost the cache and the executor amortize away.

use rand::prelude::*;
use spttn::ir::{stdkernels, Kernel};
use spttn::tensor::{random_coo, random_dense, CooTensor, Csf, DenseTensor};
use spttn::{Contraction, CostModel, PlanCache, PlanOptions, Shapes};
use spttn_bench::{black_box, Harness};

const SWEEPS: usize = 10;

struct Fixture {
    kernel: Kernel,
    coo: CooTensor,
    /// One factor set per sweep, `(name, tensor)` in input order.
    factor_sets: Vec<Vec<(String, DenseTensor)>>,
}

fn fixture(kernel: Kernel, nnz: usize, seed: u64) -> Fixture {
    let mut rng = StdRng::seed_from_u64(seed);
    let sparse_dims = kernel.ref_dims(kernel.sparse_ref());
    let coo = random_coo(&sparse_dims, nnz, &mut rng).unwrap();
    let factor_sets = (0..SWEEPS)
        .map(|_| {
            kernel
                .inputs
                .iter()
                .enumerate()
                .filter(|&(slot, _)| slot != kernel.sparse_input)
                .map(|(_, r)| (r.name.clone(), random_dense(&kernel.ref_dims(r), &mut rng)))
                .collect()
        })
        .collect();
    Fixture {
        kernel,
        coo,
        factor_sets,
    }
}

fn csf_of(f: &Fixture) -> Csf {
    let order: Vec<usize> = (0..f.coo.order()).collect();
    Csf::from_coo(&f.coo, &order).unwrap()
}

fn opts() -> PlanOptions {
    PlanOptions::with_cost_model(CostModel::BlasAware {
        buffer_dim_bound: 2,
    })
}

/// N full pipelines, optionally through a plan cache.
fn sweeps_replanning(f: &Fixture, cache: Option<&PlanCache>) -> f64 {
    let mut acc = 0.0;
    for factors in &f.factor_sets {
        let csf = csf_of(f);
        let shapes = Shapes::new().with_pattern(csf.to_coo());
        let c = Contraction::from_kernel(f.kernel.clone());
        let named: Vec<(&str, &DenseTensor)> =
            factors.iter().map(|(n, t)| (n.as_str(), t)).collect();
        let mut exec = match cache {
            Some(cache) => cache
                .plan(c, &shapes, &opts())
                .expect("plan succeeds")
                .bind(csf, &named),
            None => c
                .plan(&shapes, &opts())
                .expect("plan succeeds")
                .bind(csf, &named),
        }
        .expect("bind succeeds");
        acc += exec.execute().expect("execution succeeds").to_dense().sum();
    }
    acc
}

/// One plan + one bind, then N rebound executions.
fn sweeps_plan_once(f: &Fixture) -> f64 {
    let csf = csf_of(f);
    let shapes = Shapes::new().with_pattern(csf.to_coo());
    let plan = Contraction::from_kernel(f.kernel.clone())
        .plan(&shapes, &opts())
        .expect("plan succeeds");
    let first: Vec<(&str, &DenseTensor)> = f.factor_sets[0]
        .iter()
        .map(|(n, t)| (n.as_str(), t))
        .collect();
    let mut exec = plan.bind(csf, &first).expect("bind succeeds");
    let mut out = exec.output_template();
    let mut acc = 0.0;
    for factors in &f.factor_sets {
        for (name, t) in factors {
            exec.set_factor(name, t).expect("factor shape fixed");
        }
        exec.execute_into(&mut out).expect("execution succeeds");
        acc += out.to_dense().sum();
    }
    acc
}

fn main() {
    let suite: Vec<(&str, Kernel, usize)> = vec![
        ("mttkrp-3d-64", stdkernels::mttkrp(&[64, 64, 64], 16), 8000),
        ("ttmc-3d-64", stdkernels::ttmc(&[64, 64, 64], &[8, 8]), 8000),
        ("tttp-3d-64", stdkernels::tttp(&[64, 64, 64], 8), 8000),
    ];
    let mut h = Harness::new(format!("plan-once vs replan ({SWEEPS} sweeps)").as_str());
    for (name, kernel, nnz) in suite {
        let f = fixture(kernel, nnz, 7);
        h.bench_function(&format!("{name}/replan"), || {
            black_box(sweeps_replanning(&f, None));
        });
        let cache = PlanCache::new();
        h.bench_function(&format!("{name}/cached"), || {
            black_box(sweeps_replanning(&f, Some(&cache)));
        });
        h.bench_function(&format!("{name}/plan-once"), || {
            black_box(sweeps_plan_once(&f));
        });
    }
    h.finish();
}
