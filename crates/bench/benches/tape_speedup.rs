//! Scalar tape vs SIMD tape: the same plans, bound once per
//! (microkernel policy, thread-count), executed through the
//! zero-allocation `execute_into` path on large MTTKRP and TTMc
//! workloads whose dense ranks (32 / 16) hit the rank-specialized
//! microkernel variants. MTTKRP runs twice: under the planner's nest
//! (one CSF walk, AXPY leaves) and under an explicit nest that hoists
//! `a` above a Khatri-Rao prologue and the whole walk — what the
//! planner picked before it charged nests for executed work, kept so
//! the scalar-`Leaf`-heavy tape path stays measured.
//!
//! Run with `cargo bench -p spttn-bench --bench tape_speedup`; set
//! `SPTTN_BENCH_JSON=BENCH_results.json` to emit the machine-readable
//! artifact CI uploads. Acceptance bar: the SIMD tape shows ≥1.5× over
//! the scalar tape at 1 thread on at least one kernel; the measured
//! speedups print explicitly.

use rand::prelude::*;
use spttn::ir::{path_from_picks, stdkernels, Kernel, NestSpec};
use spttn::tensor::{random_coo, random_dense, Csf, DenseTensor, SparsityProfile};
use spttn::{
    Contraction, CostModel, ExecStats, Executor, Microkernels, Plan, PlanOptions, Shapes, Threads,
};
use spttn_bench::{black_box, Harness};

fn stats_json(s: &ExecStats) -> String {
    format!(
        "{{\"axpy\": {}, \"dot\": {}, \"xmul\": {}, \"ger\": {}, \"gemv\": {}, \
         \"axpy_elems\": {}, \"dot_elems\": {}, \"xmul_elems\": {}, \"ger_elems\": {}, \
         \"gemv_elems\": {}, \"elems\": {}, \"flops\": {}, \
         \"node_searches\": {}, \"search_probes\": {}}}",
        s.axpy,
        s.dot,
        s.xmul,
        s.ger,
        s.gemv,
        s.axpy_elems,
        s.dot_elems,
        s.xmul_elems,
        s.ger_elems,
        s.gemv_elems,
        s.elems(),
        s.flops(),
        s.node_searches,
        s.search_probes
    )
}

/// The two legs under comparison, in fixed row order.
const LEGS: [(&str, Microkernels); 2] = [
    ("tape-scalar", Microkernels::Scalar),
    ("tape-simd  ", Microkernels::Auto),
];

/// What to do with the planner's plan before binding it.
type Nest = fn(Plan) -> Plan;

/// MTTKRP with `a` outermost: `(a,j,k),(a,i,j,k)` on the path that
/// forms the Khatri-Rao product first.
fn hoisted_a(plan: Plan) -> Plan {
    let (i, j, k, a) = (0, 1, 2, 3);
    let path = path_from_picks(plan.kernel(), &[(1, 2), (0, 1)]);
    let spec = NestSpec {
        orders: vec![vec![a, j, k], vec![a, i, j, k]],
    };
    plan.with_nest(path, spec).expect("a valid MTTKRP nest")
}

fn bind_at(
    kernel: &Kernel,
    nest: Nest,
    csf: &Csf,
    factors: &[(String, DenseTensor)],
    micro: Microkernels,
    threads: usize,
) -> Executor {
    let plan = Contraction::from_kernel(kernel.clone())
        .plan(
            &Shapes::new().with_profile(SparsityProfile::from_csf(csf)),
            &PlanOptions::with_cost_model(CostModel::BlasAware {
                buffer_dim_bound: 2,
            })
            .with_threads(Threads::N(threads))
            .with_microkernels(micro),
        )
        .expect("planning succeeds");
    let refs: Vec<(&str, &DenseTensor)> = factors.iter().map(|(n, t)| (n.as_str(), t)).collect();
    nest(plan).bind(csf.clone(), &refs).expect("bind succeeds")
}

fn operands(
    kernel: &Kernel,
    dims: &[usize],
    nnz: usize,
    seed: u64,
) -> (Csf, Vec<(String, DenseTensor)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let coo = random_coo(dims, nnz, &mut rng).unwrap();
    let order: Vec<usize> = (0..dims.len()).collect();
    let csf = Csf::from_coo(&coo, &order).unwrap();
    let mut factors = Vec::new();
    for (slot, r) in kernel.inputs.iter().enumerate() {
        if slot == kernel.sparse_input {
            continue;
        }
        factors.push((r.name.clone(), random_dense(&kernel.ref_dims(r), &mut rng)));
    }
    (csf, factors)
}

fn main() {
    let planned: Nest = |plan| plan;
    let workloads: Vec<(&str, Kernel, Nest, Vec<usize>, usize)> = vec![
        (
            "mttkrp-large hoisted-a",
            stdkernels::mttkrp(&[512, 96, 96], 32),
            hoisted_a,
            vec![512, 96, 96],
            250_000,
        ),
        (
            "mttkrp-large",
            stdkernels::mttkrp(&[512, 96, 96], 32),
            planned,
            vec![512, 96, 96],
            250_000,
        ),
        (
            "ttmc-large",
            stdkernels::ttmc(&[384, 64, 64], &[32, 32]),
            planned,
            vec![384, 64, 64],
            120_000,
        ),
    ];
    let mut h = Harness::new("tape_speedup: scalar tape vs SIMD tape");
    let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
    for (name, kernel, nest, dims, nnz) in &workloads {
        let (csf, factors) = operands(kernel, dims, *nnz, 17);
        for threads in [1usize, 4] {
            for (label, micro) in LEGS {
                let mut exec = bind_at(kernel, *nest, &csf, &factors, micro, threads);
                let mut out = exec.output_template();
                let id = format!("{name} {label} @ {threads}t [{} tiles]", exec.threads());
                let mut last_stats = ExecStats::default();
                h.bench_function(&id, || {
                    exec.execute_into(&mut out).expect("execution succeeds");
                    last_stats = exec.last_stats();
                    black_box(out.to_dense().sum());
                });
                // Record which microkernel implementation the tape
                // bound, its vector width, and what the host CPU
                // advertises — so artifacts from different machines
                // stay comparable.
                let tape = exec.tape();
                let note = format!(
                    "{{\"stats\": {}, \"microkernels\": \"{}\", \"kernel_width\": {}, \
                     \"superinstructions\": {}, \"specialized\": {}, \"cpu\": \"{}\"}}",
                    stats_json(&last_stats),
                    tape.microkernels(),
                    tape.kernel_width(),
                    tape.superinstructions(),
                    tape.specialized(),
                    spttn::exec::detected_cpu_features(),
                );
                h.note(&id, note);
            }
        }
    }
    let results = h.finish();
    rows.extend(results);

    // SIMD-vs-scalar-tape speedup per workload+threads pair. Median is
    // the headline; min (fastest vs fastest) is the least-noise
    // estimator on busy machines.
    let median = |samples: &[f64]| {
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        s[s.len() / 2]
    };
    let minimum = |samples: &[f64]| samples.iter().cloned().fold(f64::INFINITY, f64::min);
    println!("\nspeedups (median / min):");
    for pair in rows.chunks(2) {
        let [(sid, ss), (vid, vs)] = pair else {
            continue;
        };
        assert!(
            sid.contains("tape-scalar") && vid.contains("tape-simd"),
            "row order"
        );
        println!(
            "{:<46} tape-simd/tape-scalar {:>5.2}x {:>5.2}x",
            sid.replace("tape-scalar ", ""),
            median(ss) / median(vs),
            minimum(ss) / minimum(vs)
        );
    }
}
