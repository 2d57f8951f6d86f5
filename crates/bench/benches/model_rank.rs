//! Model against measurement: does executed [`Work`] rank nests the way
//! the clock does, and is the plan each cost model picks close to the
//! best one that exists?
//!
//! For MTTKRP, TTMc and TTTP on a dense-fiber cube and on a hypersparse
//! tensor, the candidate nests are every contraction path's Algorithm-1
//! winner under each of the four cost models plus the eight nests of
//! least `Work` found by exhaustive enumeration. Each candidate is bound
//! through `Plan::with_nest` and timed (minimum of five `execute_into`
//! calls, capped by a deadline so a pathological nest costs seconds, not
//! minutes). Printed per workload: the candidates with modeled and
//! measured time, Spearman's ρ between the two, and for each cost model
//! its chosen plan's time over the best measured.
//!
//! `cargo bench -p spttn-bench --bench model_rank [-- --smoke]`. The
//! process exits non-zero when the default model's chosen plan is more
//! than three times slower than the best measured candidate on any
//! workload — the check that would have caught a default that walks
//! the CSF 32 times.

use rand::prelude::*;
use spttn::cost::{
    all_nest_costs, optimal_order, BlasAware, CacheMiss, MaxBufferDim, MaxBufferSize, TreeCost,
    Work,
};
use spttn::ir::{enumerate_paths, stdkernels, ContractionPath, Kernel, NestSpec};
use spttn::tensor::{random_coo, random_dense, CooTensor, Csf, DenseTensor};
use spttn::{
    Contraction, ContractionOutput, CostModel, Plan, PlanOptions, RunBudget, Shapes, SpttnError,
};
use spttn_bench::black_box;
use std::time::{Duration, Instant};

const MODELS: [(&str, CostModel); 4] = [
    (
        "blas-aware:2",
        CostModel::BlasAware {
            buffer_dim_bound: 2,
        },
    ),
    ("cache-miss:1", CostModel::CacheMiss { d: 1 }),
    ("max-buffer-size", CostModel::MaxBufferSize),
    ("max-buffer-dim", CostModel::MaxBufferDim),
];

/// A chosen plan slower than this multiple of the best measured
/// candidate fails the run (default model only).
const MAX_CHOSEN_OVER_BEST: f64 = 3.0;
const EXHAUSTIVE_TOP: usize = 8;
const REPEATS: usize = 5;
const CAP: Duration = Duration::from_millis(1500);
/// Candidates whose Eq.-5 buffers need more than this are not run (an
/// unfused order-4 intermediate of the hypersparse tensor is ~100 GB).
const MAX_WORKSPACE_BYTES: u64 = 512 << 20;

struct Candidate {
    path: ContractionPath,
    spec: NestSpec,
    modeled_ms: f64,
    measured_ms: f64,
    /// Cost models whose plan this is.
    chosen_by: Vec<&'static str>,
}

/// One path's Algorithm-1 winner per path, under `cost`.
fn dp_winners<C: TreeCost>(plan: &Plan, cost: &C, into: &mut Vec<(ContractionPath, NestSpec)>) {
    for path in enumerate_paths(plan.kernel()) {
        if let Some(r) = optimal_order(plan.kernel(), &path, plan.profile(), cost) {
            if cost.is_feasible(&r.value) {
                into.push((path, r.spec));
            }
        }
    }
}

/// Minimum of `REPEATS` executions in milliseconds and the output's
/// checksum; a run the deadline stops counts as the cap. `None` when
/// bind-time admission refuses the nest's workspace.
fn measure(plan: &Plan, csf: &Csf, factors: &[(String, DenseTensor)]) -> Option<(f64, f64)> {
    let refs: Vec<(&str, &DenseTensor)> = factors.iter().map(|(n, t)| (n.as_str(), t)).collect();
    let mut exec = match plan.bind(csf.clone(), &refs) {
        Ok(exec) => exec,
        Err(SpttnError::BudgetExceeded { .. }) => return None,
        Err(e) => panic!("bind failed: {e}"),
    };
    let mut out = exec.output_template();
    let mut best = f64::INFINITY;
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        match exec.execute_into(&mut out) {
            Ok(()) => best = best.min(t0.elapsed().as_secs_f64() * 1e3),
            Err(SpttnError::Cancelled { .. }) => return Some((CAP.as_secs_f64() * 1e3, f64::NAN)),
            Err(e) => panic!("execution failed: {e}"),
        }
    }
    let sum = match &out {
        ContractionOutput::Dense(d) => d.sum(),
        ContractionOutput::Sparse(c) => c.vals().iter().sum(),
    };
    Some((best, black_box(sum)))
}

/// Spearman rank correlation (ties broken by position; the inputs are
/// continuous measurements).
fn spearman(x: &[f64], y: &[f64]) -> f64 {
    let ranks = |v: &[f64]| {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&a, &b| v[a].total_cmp(&v[b]));
        let mut r = vec![0.0; v.len()];
        for (rank, &i) in idx.iter().enumerate() {
            r[i] = rank as f64;
        }
        r
    };
    let (rx, ry) = (ranks(x), ranks(y));
    let n = x.len() as f64;
    let d2: f64 = rx.iter().zip(&ry).map(|(a, b)| (a - b) * (a - b)).sum();
    1.0 - 6.0 * d2 / (n * (n * n - 1.0))
}

fn run(name: &str, kernel: &Kernel, coo: &CooTensor, seed: u64) -> bool {
    let mut rng = StdRng::seed_from_u64(seed);
    let order: Vec<usize> = (0..coo.order()).collect();
    let csf = Csf::from_coo(coo, &order).unwrap();
    let factors: Vec<(String, DenseTensor)> = kernel
        .inputs
        .iter()
        .enumerate()
        .filter(|(slot, _)| *slot != kernel.sparse_input)
        .map(|(_, r)| (r.name.clone(), random_dense(&kernel.ref_dims(r), &mut rng)))
        .collect();
    let shapes = Shapes::new().with_pattern(coo.clone());
    let plan_with = |model: CostModel| {
        Contraction::from_kernel(kernel.clone())
            .plan(
                &shapes,
                &PlanOptions::with_cost_model(model)
                    .with_deadline(CAP)
                    .with_budget(
                        RunBudget::default().with_max_workspace_bytes(MAX_WORKSPACE_BYTES),
                    ),
            )
            .expect("planning succeeds")
    };
    let base = plan_with(MODELS[0].1);

    // Candidates: every path's DP winner under every model, the
    // exhaustive top by Work, and whatever each model's planner picks.
    let mut nests: Vec<(ContractionPath, NestSpec)> = Vec::new();
    dp_winners(
        &base,
        &BlasAware {
            buffer_dim_bound: 2,
        },
        &mut nests,
    );
    dp_winners(&base, &CacheMiss { d: 1 }, &mut nests);
    dp_winners(&base, &MaxBufferSize, &mut nests);
    dp_winners(&base, &MaxBufferDim, &mut nests);
    let mut by_work: Vec<(f64, ContractionPath, NestSpec)> = Vec::new();
    for path in enumerate_paths(base.kernel()) {
        for (spec, w) in all_nest_costs(base.kernel(), &path, base.profile(), &Work) {
            by_work.push((w.ns(), path.clone(), spec));
        }
    }
    by_work.sort_by(|a, b| a.0.total_cmp(&b.0));
    nests.extend(
        by_work
            .into_iter()
            .take(EXHAUSTIVE_TOP)
            .map(|(_, p, s)| (p, s)),
    );
    let chosen: Vec<(&'static str, Plan)> =
        MODELS.iter().map(|&(n, m)| (n, plan_with(m))).collect();
    nests.extend(
        chosen
            .iter()
            .map(|(_, p)| (p.path().clone(), p.spec().clone())),
    );

    let mut cands: Vec<Candidate> = Vec::new();
    let mut skipped = 0usize;
    let mut reference = f64::NAN;
    for (path, spec) in nests {
        if cands.iter().any(|c| c.path == path && c.spec == spec) {
            continue;
        }
        let explicit = base
            .with_nest(path.clone(), spec.clone())
            .expect("candidate nests are valid");
        let Some((measured_ms, sum)) = measure(&explicit, &csf, &factors) else {
            skipped += 1;
            continue;
        };
        if sum.is_finite() {
            if reference.is_nan() {
                reference = sum;
            }
            let tol = 1e-9 * reference.abs().max(1.0);
            assert!(
                (sum - reference).abs() <= tol,
                "{name}: nest {} disagrees: {sum} vs {reference}",
                spec.describe(kernel)
            );
        }
        cands.push(Candidate {
            chosen_by: chosen
                .iter()
                .filter(|(_, p)| *p.path() == path && *p.spec() == spec)
                .map(|(n, _)| *n)
                .collect(),
            modeled_ms: explicit.work().ns() / 1e6,
            measured_ms,
            path,
            spec,
        });
    }

    cands.sort_by(|a, b| a.measured_ms.total_cmp(&b.measured_ms));
    let best = cands[0].measured_ms;
    println!(
        "\n== {name}: {} candidate nests ({skipped} over the workspace budget, not run) ==",
        cands.len()
    );
    println!("{:>11} {:>11}  nest", "modeled ms", "measured ms");
    for c in &cands {
        println!(
            "{:>11.3} {:>11.3}  {} | {}{}",
            c.modeled_ms,
            c.measured_ms,
            c.path.describe(kernel),
            c.spec.describe(kernel),
            if c.chosen_by.is_empty() {
                String::new()
            } else {
                format!("   <- {}", c.chosen_by.join(", "))
            }
        );
    }
    let modeled: Vec<f64> = cands.iter().map(|c| c.modeled_ms).collect();
    let measured: Vec<f64> = cands.iter().map(|c| c.measured_ms).collect();
    println!(
        "spearman(Work, time) = {:.3}",
        spearman(&modeled, &measured)
    );
    let mut ok = true;
    for (i, (model, _)) in MODELS.iter().enumerate() {
        let Some(c) = cands.iter().find(|c| c.chosen_by.contains(model)) else {
            println!("chosen/best {model:<16} not run (over the workspace budget)");
            ok &= i != 0;
            continue;
        };
        let ratio = c.measured_ms / best;
        println!("chosen/best {model:<16} {ratio:>6.2}x");
        if i == 0 && ratio > MAX_CHOSEN_OVER_BEST {
            println!("FAIL: the default model's plan is {ratio:.2}x the best measured");
            ok = false;
        }
    }
    ok
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Dense fibers vs. almost every fiber a single nonzero: the two
    // regimes the same kernel needs opposite nests in.
    let (cube, hyper, rank) = if smoke {
        (([64, 24, 24], 9_000), ([300, 200, 150], 12_000), 16)
    } else {
        (
            ([512, 96, 96], 250_000),
            ([2000, 1500, 1000], 1_000_000),
            32,
        )
    };
    let tensors = [("cube", cube), ("hyper", hyper)];
    let mut ok = true;
    for (tname, (dims, nnz)) in tensors {
        let coo = random_coo(&dims, nnz, &mut StdRng::seed_from_u64(17)).unwrap();
        let kernels = [
            ("mttkrp", stdkernels::mttkrp(&dims, rank)),
            ("ttmc", stdkernels::ttmc(&dims, &[rank / 2, rank / 2])),
            ("tttp", stdkernels::tttp(&dims, rank)),
        ];
        for (kname, kernel) in &kernels {
            ok &= run(&format!("{kname}-{tname}"), kernel, &coo, 18);
        }
    }
    if !ok {
        std::process::exit(1);
    }
}
