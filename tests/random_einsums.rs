//! Generated-input differential suite at the kernel level: a fixed-seed
//! generator of well-formed single-sparse-operand einsums — sparse
//! order 2–4, one to five dense factors each over zero to two sparse and
//! one or two dense indices in shuffled order, the output a random
//! index subset or exactly the sparse index set (pattern-sharing, in the
//! sparse input's written order or any other) —
//! each planned on the exact pattern of a small random tensor under all
//! four cost models, statically verified, executed at 1 and 3 threads
//! (and at `SPTTN_TEST_THREADS` when CI sets it) and held to the naive
//! dense oracle at ≤ 1e-9.
//!
//! This is the test that catches a wrong CSF-continuity rule
//! (`spttn_ir::vertex_kind`): a nest that iterates a CSF index sparsely
//! where the tape cannot reach its parent node, or densely over a term
//! that is not zero off the pattern, computes a different tensor. The
//! suite asserts its own coverage, so a generator drift that stops
//! producing the interesting shapes fails loudly.

use rand::prelude::*;
use spttn::ir::{Kernel, LoopNode, VertexKind};
use spttn::tensor::{random_coo, random_dense, CooTensor, Csf, DenseTensor};
use spttn::{Contraction, CostModel, Plan, PlanOptions, Shapes, SpttnError, Threads};
use spttn_exec::naive_einsum;

const TOL: f64 = 1e-9;
/// Generated einsums (the suite's floor is 120).
const CASES: usize = 128;
const SPARSE_NAMES: [&str; 4] = ["i", "j", "k", "l"];
const DENSE_NAMES: [&str; 3] = ["a", "b", "c"];
const MODELS: [CostModel; 4] = [
    CostModel::BlasAware {
        buffer_dim_bound: 2,
    },
    CostModel::CacheMiss { d: 1 },
    CostModel::MaxBufferSize,
    CostModel::MaxBufferDim,
];

/// One generated einsum with the extents of its indices.
struct Case {
    expr: String,
    dims: Vec<(&'static str, usize)>,
    sparse_dims: Vec<usize>,
    /// Written index lists of the dense factors `F0…`.
    factors: Vec<Vec<&'static str>>,
}

/// `k` distinct elements of `pool`, in random order.
fn pick<T: Copy>(pool: &[T], k: usize, rng: &mut StdRng) -> Vec<T> {
    let mut v = pool.to_vec();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
    v.truncate(k);
    v
}

fn generate(case_no: usize, rng: &mut StdRng) -> Case {
    let order = rng.gen_range(2..5usize);
    let sparse = &SPARSE_NAMES[..order];
    // Mostly one to three factors: with four and five the planner
    // searches hundreds of contraction paths (seconds per plan in a
    // debug build), so four is rare and five comes on a fixed schedule.
    let n_factors = match rng.gen_range(0..32usize) {
        _ if case_no % 64 == 63 => 5,
        0..=7 => 1,
        8..=18 => 2,
        19..=29 => 3,
        _ => 4,
    };
    let factors: Vec<Vec<&'static str>> = (0..n_factors)
        .map(|_| {
            let mut inds = pick(sparse, rng.gen_range(0..3usize), rng);
            inds.extend(pick(&DENSE_NAMES, rng.gen_range(1..3usize), rng));
            let n = inds.len();
            pick(&inds, n, rng)
        })
        .collect();
    let mut used: Vec<&'static str> = sparse.to_vec();
    for name in factors.iter().flatten() {
        if !used.contains(name) {
            used.push(name);
        }
    }
    // One output in four is written as the sparse input is; a random
    // subset that happens to be a permutation of the sparse indices
    // shares the pattern too, in its own written order.
    let output = if rng.gen_range(0..4usize) == 0 {
        sparse.to_vec()
    } else {
        let k = rng.gen_range(1..used.len() + 1);
        pick(&used, k, rng)
    };
    let refs: Vec<String> = std::iter::once(format!("T({})", sparse.join(",")))
        .chain(
            factors
                .iter()
                .enumerate()
                .map(|(f, inds)| format!("F{f}({})", inds.join(","))),
        )
        .collect();
    let dims: Vec<(&'static str, usize)> = used
        .iter()
        .map(|&name| (name, rng.gen_range(2..5usize)))
        .collect();
    let sparse_dims = dims[..order].iter().map(|&(_, d)| d).collect();
    Case {
        expr: format!("O({}) = {}", output.join(","), refs.join(" * ")),
        dims,
        sparse_dims,
        factors,
    }
}

/// Thread counts every case executes at.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 3];
    if let Ok(v) = std::env::var("SPTTN_TEST_THREADS") {
        let n = v.parse().expect("SPTTN_TEST_THREADS must be an integer");
        if !counts.contains(&n) {
            counts.push(n);
        }
    }
    counts
}

/// Whether the plan's nest iterates some CSF index densely.
fn has_dense_csf_loop(plan: &Plan) -> bool {
    fn go(nodes: &[LoopNode], kernel: &Kernel) -> bool {
        nodes.iter().any(|n| match n {
            LoopNode::Leaf(_) => false,
            LoopNode::Loop(v) => {
                (v.kind == VertexKind::Dense && kernel.sparse_level(v.index).is_some())
                    || go(&v.children, kernel)
            }
        })
    }
    go(&plan.forest().roots, plan.kernel())
}

fn oracle(kernel: &Kernel, coo: &CooTensor, factors: &[DenseTensor]) -> DenseTensor {
    let sparse = coo.to_dense();
    let inputs: Vec<&DenseTensor> = std::iter::once(&sparse).chain(factors).collect();
    naive_einsum(kernel, &inputs).unwrap()
}

#[test]
fn random_einsums_match_the_oracle_under_every_cost_model() {
    let mut rng = StdRng::seed_from_u64(0x5eed_e1f5);
    let threads = thread_counts();
    let (mut planned, mut refused) = (0usize, 0usize);
    let (mut pattern_out, mut five_factors, mut off_spine, mut dense_csf) = (0, 0, 0, 0);
    let mut permuted_pattern_out = 0;
    for case_no in 0..CASES {
        let case = generate(case_no, &mut rng);
        let cells: usize = case.sparse_dims.iter().product();
        let coo = random_coo(&case.sparse_dims, (cells / 3).max(2), &mut rng).unwrap();
        let factors: Vec<DenseTensor> = case
            .factors
            .iter()
            .map(|inds| {
                let dims: Vec<usize> = inds
                    .iter()
                    .map(|i| case.dims.iter().find(|(n, _)| n == i).unwrap().1)
                    .collect();
                random_dense(&dims, &mut rng)
            })
            .collect();
        let names: Vec<String> = (0..factors.len()).map(|f| format!("F{f}")).collect();
        let named: Vec<(&str, &DenseTensor)> =
            names.iter().map(String::as_str).zip(&factors).collect();
        let natural: Vec<usize> = (0..coo.order()).collect();
        let csf = Csf::from_coo(&coo, &natural).unwrap();
        let shapes = Shapes::new()
            .with_dims(&case.dims)
            .with_pattern(coo.clone());
        let what = format!("case {case_no}: {}", case.expr);

        five_factors += usize::from(case.factors.len() == 5);
        off_spine += usize::from(
            case.factors
                .iter()
                .any(|f| f.iter().all(|i| DENSE_NAMES.contains(i))),
        );
        let mut want: Option<DenseTensor> = None;
        for model in MODELS {
            let opts = PlanOptions::with_cost_model(model);
            let plan = match Contraction::parse(&case.expr)
                .unwrap_or_else(|e| panic!("{what}: generated einsum does not parse: {e}"))
                .plan(&shapes, &opts)
            {
                Ok(plan) => plan,
                // No feasible nest under this model's bound: a typed,
                // single-line refusal, counted below.
                Err(SpttnError::Planning(m)) => {
                    assert!(!m.contains('\n'), "{what}: {m}");
                    refused += 1;
                    continue;
                }
                Err(e) => panic!("{what} under {model:?}: untyped planning failure {e:?}"),
            };
            planned += 1;
            plan.verify_tape()
                .unwrap_or_else(|e| panic!("{what} under {model:?}: {e}\n{}", plan.describe()));
            let k = plan.kernel();
            pattern_out += usize::from(k.output_sparse);
            permuted_pattern_out +=
                usize::from(k.output_sparse && k.output.indices != k.sparse_ref().indices);
            dense_csf += usize::from(has_dense_csf_loop(&plan));
            let want = want.get_or_insert_with(|| oracle(plan.kernel(), &coo, &factors));
            for &t in &threads {
                let mut exec_opts = plan.exec();
                exec_opts.threads = Threads::N(t);
                let got = plan
                    .clone()
                    .with_exec(exec_opts)
                    .bind(csf.clone(), &named)
                    .and_then(|mut exec| exec.execute())
                    .unwrap_or_else(|e| panic!("{what} under {model:?} at {t} threads: {e}"));
                assert!(
                    got.to_dense().approx_eq(want, TOL),
                    "{what} under {model:?} at {t} threads diverged from the oracle\n{}",
                    plan.describe()
                );
            }
        }
    }
    assert!(
        refused * 10 < planned + refused,
        "{refused} of {} plans refused",
        planned + refused
    );
    // The generator still produces what the suite exists to check.
    assert!(pattern_out > 0, "no pattern-sharing output");
    assert!(
        permuted_pattern_out > 0,
        "no pattern-sharing output written in another order than the sparse input"
    );
    assert!(five_factors > 0, "no five-factor kernel");
    assert!(off_spine > 0, "no factor without a sparse index");
    assert!(dense_csf > 0, "no plan iterates a CSF index densely");
}
