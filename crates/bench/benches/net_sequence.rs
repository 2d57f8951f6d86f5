//! Network contraction-order search: greedy vs the budgeted exact
//! subset sweep on multi-tensor networks, reporting each strategy's
//! modeled flops, search effort, and end-to-end execution wall time
//! through the network executor.
//!
//! Each row also times its off-spine dense steps on their own
//! (`NetworkExecutor::execute_dense_steps`): their modeled flops, their
//! fastest run and the GFLOP/s that makes, beside what
//! `KernelSet::axpy` sustains in this process at the steps' vector
//! length. Steps that run under a quarter of that AXPY rate fail the
//! bench (exit 1): dense steps are lowered onto those very kernels, so
//! a miss that wide is the loop around them, not the arithmetic.
//!
//! Run with `cargo bench -p spttn-bench --bench net_sequence`; set
//! `SPTTN_BENCH_JSON=BENCH_results.json` to append the group to the
//! machine-readable artifact CI uploads.

use rand::prelude::*;
use spttn::exec::KernelSet;
use spttn::tensor::{random_coo, random_dense, Csf, DenseTensor};
use spttn::{Microkernels, PlanOptions, Shapes, Threads};
use spttn_bench::{black_box, Harness};
use spttn_net::{NetOptions, Network, NetworkExecutor, NetworkPlan, OrderStrategy};
use std::time::Instant;

/// Dense steps below this many flops run for microseconds, where the
/// per-step setup (zero-fill, guard) rather than the loop sets the rate.
const MIN_TIMED_FLOPS: u128 = 1_000_000;

fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

/// GFLOP/s of the bound contiguous AXPY at length `n`, operands in L1.
fn axpy_gflops(n: usize) -> f64 {
    let (axpy, _) = KernelSet::resolve(Microkernels::Auto).axpy(n, true, None);
    let x = vec![1.0f64; n];
    let mut y = vec![0.0f64; n];
    let calls = 200_000usize;
    let mut best = f64::INFINITY;
    for _ in 0..7 {
        let t0 = Instant::now();
        for _ in 0..calls {
            axpy(n, 1e-9, black_box(&x), 1, &mut y, 1);
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    black_box(&y);
    (2 * n * calls) as f64 / best / 1e9
}

/// Fastest of 20 runs of the executor's dense steps alone, in ms.
fn dense_steps_ms(exec: &mut NetworkExecutor) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..20 {
        let t0 = Instant::now();
        exec.execute_dense_steps().expect("dense steps execute");
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// The vector length of the plan's dense steps: the extent of each
/// step's unit-stride output index (the longest, over the steps).
fn vector_len(nplan: &NetworkPlan) -> usize {
    let (kernel, path) = (nplan.kernel(), nplan.path());
    path.terms
        .iter()
        .filter(|t| t.lineage().is_empty())
        .filter_map(|t| t.out_inds.to_vec().last().map(|&i| kernel.dim(i)))
        .max()
        .unwrap_or(0)
}

struct Workload {
    name: &'static str,
    expr: &'static str,
    dims: &'static [(&'static str, usize)],
    sparse_dims: &'static [usize],
    nnz: usize,
    strategies: &'static [OrderStrategy],
}

const BOTH: &[OrderStrategy] = &[OrderStrategy::Greedy, OrderStrategy::Optimal];

fn main() {
    let workloads = [
        Workload {
            // The CLI smoke network at scale: the tail C(r,s) can leave
            // the sparse spine, so the strategies genuinely disagree.
            name: "krp-chain",
            expr: "T[i,j,k]*A[j,r]*B[k,r]*C[r,s] -> O[i,s]",
            dims: &[("i", 256), ("j", 96), ("k", 96), ("r", 32), ("s", 32)],
            sparse_dims: &[256, 96, 96],
            nnz: 100_000,
            strategies: BOTH,
        },
        Workload {
            name: "tensor-train",
            expr: "T[i,j,k]*G1[i,a]*G2[a,j,b]*G3[b,k,c] -> O[c]",
            dims: &[
                ("i", 256),
                ("j", 96),
                ("k", 96),
                ("a", 16),
                ("b", 16),
                ("c", 16),
            ],
            sparse_dims: &[256, 96, 96],
            nnz: 100_000,
            strategies: BOTH,
        },
        Workload {
            // The benchmark gate's `net-factored`: one off-spine GEMM,
            // A(j,m)*D(m,r) at 1500x256x32, beside a collapsed MTTKRP.
            // Exact order only: greedy contracts D*B first and leaves a
            // 33-GFLOP kernel (seconds per execute).
            name: "factored",
            expr: "T[i,j,k]*A[j,m]*D[m,r]*B[k,r] -> O[i,r]",
            dims: &[("i", 2000), ("j", 1500), ("k", 1000), ("m", 256), ("r", 32)],
            sparse_dims: &[2000, 1500, 1000],
            nnz: 1_000_000,
            strategies: &[OrderStrategy::Optimal],
        },
    ];

    let mut h = Harness::new("net_sequence: greedy vs budgeted-exact network ordering");
    let mut slow_steps = 0;
    let mut dense_rows: Vec<String> = Vec::new();
    let mut order_ratios: Vec<String> = Vec::new();
    for w in &workloads {
        let mut rng = StdRng::seed_from_u64(29);
        let coo = random_coo(w.sparse_dims, w.nnz, &mut rng).unwrap();
        let order: Vec<usize> = (0..w.sparse_dims.len()).collect();
        let csf = Csf::from_coo(&coo, &order).unwrap();
        let net = Network::parse(w.expr).expect("workload parses");
        let shapes = Shapes::new().with_dims(w.dims).with_pattern(csf.to_coo());
        let kernel = net.kernel(&shapes).expect("workload kernel");
        let factors: Vec<(String, DenseTensor)> = kernel
            .inputs
            .iter()
            .enumerate()
            .filter(|(slot, _)| *slot != kernel.sparse_input)
            .map(|(_, r)| (r.name.clone(), random_dense(&kernel.ref_dims(r), &mut rng)))
            .collect();
        let named: Vec<(&str, &DenseTensor)> =
            factors.iter().map(|(n, t)| (n.as_str(), t)).collect();

        let mut net_medians: Vec<f64> = Vec::new();
        for &strategy in w.strategies {
            let nopts = NetOptions::default()
                .with_order(strategy)
                .with_plan_options(PlanOptions::default().with_threads(Threads::N(1)));
            let t_plan = Instant::now();
            let nplan = net.plan(&shapes, &nopts).expect("planning succeeds");
            let plan_ms = t_plan.elapsed().as_secs_f64() * 1e3;
            let mut exec = nplan.bind(csf.clone(), &named).expect("bind succeeds");
            let mut out = exec.output_template();
            let id = format!("{} {strategy:<7} @ 1t", w.name);
            let samples = h.bench_function(&id, || {
                exec.execute_into(&mut out).expect("execution succeeds");
                black_box(out.to_dense().sum());
            });
            net_medians.push(median(samples));
            let dense_flops: u128 = nplan.dense_step_flops().iter().sum();
            let n = vector_len(&nplan);
            let (mut dense_ms, mut dense_gflops, mut axpy) = (f64::NAN, f64::NAN, f64::NAN);
            if dense_flops >= MIN_TIMED_FLOPS {
                dense_ms = dense_steps_ms(&mut exec);
                dense_gflops = dense_flops as f64 / dense_ms / 1e6;
                axpy = axpy_gflops(n);
                dense_rows.push(format!(
                    "{id:<28} {dense_flops:>10} {dense_ms:>8.3}ms {dense_gflops:>8.2} {axpy:>8.2}  (n = {n})",
                ));
                if dense_gflops < axpy / 4.0 {
                    slow_steps += 1;
                }
            } else if dense_flops > 0 {
                dense_rows.push(format!("{id:<28} {dense_flops:>10}  (too small to time)"));
            }
            let r = nplan.report();
            h.note(
                &id,
                format!(
                    "{{\"strategy\": \"{}\", \"chosen_flops\": {}, \"greedy_flops\": {}, \
                     \"evaluated_pairs\": {}, \"truncated\": {}, \"dense_steps\": {}, \
                     \"plan_ms\": {plan_ms:.3}, \"dense_flops\": {dense_flops}, \
                     \"dense_ms\": {}, \"dense_gflops\": {}, \
                     \"axpy_gflops\": {}, \"vector_len\": {n}}}",
                    r.strategy,
                    r.chosen_flops,
                    r.greedy_flops,
                    r.evaluated_pairs,
                    r.truncated,
                    nplan.num_dense_steps(),
                    json_num(dense_ms),
                    json_num(dense_gflops),
                    json_num(axpy),
                ),
            );
        }
        if let [greedy, optimal] = net_medians[..] {
            order_ratios.push(format!("{:<40} {:>5.2}x", w.name, greedy / optimal));
        }
    }
    h.finish();

    println!("\nwall-time greedy/optimal (median):");
    for line in &order_ratios {
        println!("{line}");
    }

    println!("\ndense steps alone vs AXPY at the same length:");
    println!(
        "{:<28} {:>10} {:>10} {:>8} {:>8}",
        "bench", "flops", "time", "GFLOP/s", "axpy"
    );
    for row in &dense_rows {
        println!("{row}");
    }
    if slow_steps > 0 {
        eprintln!(
            "net_sequence: {slow_steps} row(s) ran their dense steps under 1/4 of the AXPY rate"
        );
        std::process::exit(1);
    }
}

/// A float as a JSON value (`null` when not measured).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}
