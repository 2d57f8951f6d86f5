//! Parallel scaling: the same large MTTKRP plan, bound at 1 / 2 / 4
//! threads, executed through the zero-allocation `execute_into` path.
//!
//! Run with `cargo bench -p spttn-bench --bench parallel_scaling`.
//! The acceptance bar for the parallel engine is ≥1.5× at 4 threads on
//! this workload; the bench prints the measured speedups explicitly.

use rand::prelude::*;
use spttn::ir::stdkernels;
use spttn::tensor::{random_coo, random_dense, Csf};
use spttn::{Contraction, CostModel, Executor, PlanOptions, Shapes, Threads};
use spttn_bench::{black_box, Harness};

const DIMS: [usize; 3] = [512, 96, 96];
const RANK: usize = 32;
const NNZ: usize = 250_000;

fn bind_at(
    threads: usize,
    csf: &Csf,
    factors: &[(String, spttn::tensor::DenseTensor)],
) -> Executor {
    let kernel = stdkernels::mttkrp(&DIMS, RANK);
    let plan = Contraction::from_kernel(kernel)
        .plan(
            &Shapes::new().with_pattern(csf.to_coo()),
            &PlanOptions::with_cost_model(CostModel::BlasAware {
                buffer_dim_bound: 2,
            })
            .with_threads(Threads::N(threads)),
        )
        .expect("planning succeeds");
    let refs: Vec<(&str, &spttn::tensor::DenseTensor)> =
        factors.iter().map(|(n, t)| (n.as_str(), t)).collect();
    plan.bind(csf.clone(), &refs).expect("bind succeeds")
}

fn main() {
    let kernel = stdkernels::mttkrp(&DIMS, RANK);
    let mut rng = StdRng::seed_from_u64(17);
    let coo = random_coo(&DIMS, NNZ, &mut rng).unwrap();
    let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
    let mut factors = Vec::new();
    for (slot, r) in kernel.inputs.iter().enumerate() {
        if slot == kernel.sparse_input {
            continue;
        }
        factors.push((r.name.clone(), random_dense(&kernel.ref_dims(r), &mut rng)));
    }

    let mut h = Harness::new(&format!(
        "parallel_scaling: MTTKRP {DIMS:?} rank {RANK}, nnz {NNZ}"
    ));
    for threads in [1usize, 2, 4] {
        let mut exec = bind_at(threads, &csf, &factors);
        let mut out = exec.output_template();
        let label = format!(
            "mttkrp-large @ {threads} thread(s) [{} tiles]",
            exec.threads()
        );
        h.bench_function(&label, move || {
            exec.execute_into(&mut out).expect("execution succeeds");
            black_box(out.to_dense().sum());
        });
    }
    let results = h.finish();

    // Speedups vs the serial row. Median is the headline number; min
    // (fastest run vs fastest run) is the least-noise estimator and the
    // one to trust on busy machines.
    let median = |samples: &Vec<f64>| {
        let mut s = samples.clone();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        s[s.len() / 2]
    };
    let minimum = |samples: &Vec<f64>| samples.iter().cloned().fold(f64::INFINITY, f64::min);
    let (serial_med, serial_min) = (median(&results[0].1), minimum(&results[0].1));
    println!("\nspeedup vs serial (median / min):");
    for (id, samples) in &results {
        println!(
            "{:<44} {:>6.2}x {:>6.2}x",
            id,
            serial_med / median(samples),
            serial_min / minimum(samples)
        );
    }
}
