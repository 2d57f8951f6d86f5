//! End-to-end golden tests: the full parse → plan → execute pipeline
//! must reproduce the naive dense einsum reference for the paper's
//! standard kernels, under every cost model.

use rand::prelude::*;
use spttn::ir::stdkernels;
use spttn::ir::Kernel;
use spttn::tensor::{random_coo, random_dense, CooTensor, Csf, DenseTensor};
use spttn::{
    Contraction, ContractionOutput, CostModel, Executor, PlanOptions, Shapes, SpttnError, Threads,
};
use spttn_exec::naive_einsum;

const TOL: f64 = 1e-9;

/// Thread count for end-to-end executions: CI runs this suite at
/// `SPTTN_TEST_THREADS=1` and `=4` so the engine stays green at one tile
/// and at several.
fn test_threads() -> Threads {
    match std::env::var("SPTTN_TEST_THREADS") {
        Ok(v) => Threads::N(v.parse().expect("SPTTN_TEST_THREADS must be an integer")),
        Err(_) => Threads::N(1),
    }
}

const ALL_MODELS: [CostModel; 4] = [
    CostModel::MaxBufferDim,
    CostModel::MaxBufferSize,
    CostModel::CacheMiss { d: 1 },
    CostModel::BlasAware {
        buffer_dim_bound: 2,
    },
];

/// Generate random operands for a kernel and compute the oracle output.
fn operands(
    kernel: &Kernel,
    nnz: usize,
    seed: u64,
) -> (CooTensor, Vec<(String, DenseTensor)>, DenseTensor) {
    let mut rng = StdRng::seed_from_u64(seed);
    let sparse_dims = kernel.ref_dims(kernel.sparse_ref());
    let coo = random_coo(&sparse_dims, nnz, &mut rng).unwrap();
    let mut factors = Vec::new();
    for (slot, r) in kernel.inputs.iter().enumerate() {
        if slot == kernel.sparse_input {
            continue;
        }
        factors.push((r.name.clone(), random_dense(&kernel.ref_dims(r), &mut rng)));
    }
    let sparse_dense = coo.to_dense();
    let mut all: Vec<&DenseTensor> = Vec::new();
    let mut next = 0usize;
    for slot in 0..kernel.inputs.len() {
        if slot == kernel.sparse_input {
            all.push(&sparse_dense);
        } else {
            all.push(&factors[next].1);
            next += 1;
        }
    }
    let want = naive_einsum(kernel, &all).unwrap();
    (coo, factors, want)
}

/// Plan a kernel against the tensor's exact profile (the kernel carries
/// its own dimensions) and bind the operands.
fn plan_and_bind(
    kernel: &Kernel,
    coo: &CooTensor,
    factors: &[(String, DenseTensor)],
    opts: PlanOptions,
) -> Executor {
    let order: Vec<usize> = (0..coo.order()).collect();
    let csf = Csf::from_coo(coo, &order).unwrap();
    let plan = Contraction::from_kernel(kernel.clone())
        .plan(
            &Shapes::new().with_pattern(csf.to_coo()),
            &opts.with_threads(test_threads()),
        )
        .unwrap_or_else(|e| panic!("planning failed for {}: {e}", kernel.to_einsum()));
    let named: Vec<(&str, &DenseTensor)> = factors.iter().map(|(n, t)| (n.as_str(), t)).collect();
    plan.bind(csf, &named).unwrap()
}

/// Plan and execute a kernel under one cost model, comparing to the
/// oracle.
fn check_kernel(kernel: &Kernel, nnz: usize, seed: u64, model: CostModel) {
    let (coo, factors, want) = operands(kernel, nnz, seed);
    let mut exec = plan_and_bind(kernel, &coo, &factors, PlanOptions::with_cost_model(model));
    let got = exec.execute().unwrap();
    assert!(
        got.to_dense().approx_eq(&want, TOL),
        "mismatch for {} under {model:?}\n{}",
        kernel.to_einsum(),
        exec.describe()
    );
}

#[test]
fn mttkrp_golden_all_cost_models() {
    let k = stdkernels::mttkrp(&[12, 10, 11], 5);
    for (i, model) in ALL_MODELS.into_iter().enumerate() {
        check_kernel(&k, 150, 100 + i as u64, model);
    }
}

#[test]
fn ttmc_golden_all_cost_models() {
    let k = stdkernels::ttmc(&[10, 9, 11], &[4, 5]);
    for (i, model) in ALL_MODELS.into_iter().enumerate() {
        check_kernel(&k, 120, 200 + i as u64, model);
    }
}

#[test]
fn order4_ttmc_golden() {
    let k = stdkernels::ttmc(&[6, 6, 6, 6], &[3, 3, 3]);
    check_kernel(
        &k,
        80,
        300,
        CostModel::BlasAware {
            buffer_dim_bound: 2,
        },
    );
    check_kernel(&k, 80, 301, CostModel::MaxBufferSize);
}

#[test]
fn tttp_golden_sparse_output() {
    let k = stdkernels::tttp(&[8, 9, 10], 4);
    let (coo, factors, want) = operands(&k, 100, 400);
    let mut exec = plan_and_bind(
        &k,
        &coo,
        &factors,
        PlanOptions::with_cost_model(CostModel::MaxBufferSize),
    );
    let got = exec.execute().unwrap();
    let ContractionOutput::Sparse(out) = &got else {
        panic!("TTTP output must share the sparse pattern");
    };
    assert_eq!(out.nnz(), coo.nnz());
    assert!(got.to_dense().approx_eq(&want, TOL));
}

#[test]
fn all_mode_ttmc_golden() {
    let k = stdkernels::all_mode_ttmc(&[8, 8, 8], &[3, 4, 5]);
    check_kernel(&k, 90, 500, CostModel::MaxBufferSize);
}

/// The acceptance-criterion form: arrow-syntax parse, plan, execute.
#[test]
fn parsed_mttkrp_matches_reference() {
    let mut rng = StdRng::seed_from_u64(600);
    let coo = random_coo(&[12, 10, 11], 150, &mut rng).unwrap();
    let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
    let a = random_dense(&[10, 5], &mut rng);
    let b = random_dense(&[11, 5], &mut rng);

    let mut exec = Contraction::parse("T[i,j,k]*A[j,r]*B[k,r]->O[i,r]")
        .unwrap()
        .plan(
            &Shapes::new()
                .with_dims(&[("i", 12), ("j", 10), ("k", 11), ("r", 5)])
                .with_pattern(csf.to_coo()),
            &PlanOptions::default().with_threads(test_threads()),
        )
        .unwrap()
        .bind(csf, &[("A", &a), ("B", &b)])
        .unwrap();
    let got = exec.execute().unwrap();

    let k = spttn::ir::parse_kernel(
        "O(i,r) = T(i,j,k) * A(j,r) * B(k,r)",
        &[("i", 12), ("j", 10), ("k", 11), ("r", 5)],
    )
    .unwrap();
    let t_dense = coo.to_dense();
    let want = naive_einsum(&k, &[&t_dense, &a, &b]).unwrap();
    assert!(got.to_dense().approx_eq(&want, TOL));
}

/// Paper-syntax parse of TTMc with per-mode ranks.
#[test]
fn parsed_ttmc_matches_reference() {
    let mut rng = StdRng::seed_from_u64(700);
    let coo = random_coo(&[10, 9, 11], 120, &mut rng).unwrap();
    let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
    let u = random_dense(&[9, 4], &mut rng);
    let v = random_dense(&[11, 5], &mut rng);

    let mut exec = Contraction::parse("S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)")
        .unwrap()
        .plan(
            &Shapes::new()
                .with_dims(&[("i", 10), ("j", 9), ("k", 11), ("r", 4), ("s", 5)])
                .with_pattern(csf.to_coo()),
            &PlanOptions::with_cost_model(CostModel::CacheMiss { d: 1 })
                .with_threads(test_threads()),
        )
        .unwrap()
        .bind(csf, &[("U", &u), ("V", &v)])
        .unwrap();
    let got = exec.execute().unwrap();

    let k = spttn::ir::parse_kernel(
        "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
        &[("i", 10), ("j", 9), ("k", 11), ("r", 4), ("s", 5)],
    )
    .unwrap();
    let t_dense = coo.to_dense();
    let want = naive_einsum(&k, &[&t_dense, &u, &v]).unwrap();
    assert!(got.to_dense().approx_eq(&want, TOL));
}

/// Facade error surface: missing dimensions or sparsity at plan time,
/// unbound factors, shape conflicts and unknown names at bind time.
#[test]
fn facade_reports_unified_errors() {
    let mut rng = StdRng::seed_from_u64(800);
    let coo = random_coo(&[6, 7, 8], 40, &mut rng).unwrap();
    let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
    let expr = "O(i,r) = T(i,j,k) * A(j,r) * B(k,r)";
    let dims = [("i", 6), ("j", 7), ("k", 8), ("r", 3)];
    let shapes = Shapes::new().with_dims(&dims).with_pattern(csf.to_coo());
    let parse = || Contraction::parse(expr).unwrap();

    // No sparsity information for the sparse input.
    let e = parse().plan(&Shapes::new().with_dims(&dims), &PlanOptions::default());
    assert!(matches!(e, Err(SpttnError::Planning(_))));

    // A dimension nobody declared.
    let e = parse().plan(
        &Shapes::new()
            .with_dims(&dims[..3])
            .with_pattern(csf.to_coo()),
        &PlanOptions::default(),
    );
    assert!(matches!(e, Err(SpttnError::Planning(_))));

    let plan = parse().plan(&shapes, &PlanOptions::default()).unwrap();
    let a = random_dense(&[7, 3], &mut rng);
    let b = random_dense(&[8, 3], &mut rng);

    // Missing factor.
    let e = plan.bind(csf.clone(), &[("A", &a)]);
    assert!(matches!(e, Err(SpttnError::Execution(_))));

    // Conflicting dimension for shared index r.
    let b4 = random_dense(&[8, 4], &mut rng);
    let e = plan.bind(csf.clone(), &[("A", &a), ("B", &b4)]);
    assert!(matches!(e, Err(SpttnError::Shape(_))));

    // Factor name not in the expression.
    let z = random_dense(&[2, 2], &mut rng);
    let e = plan.bind(csf, &[("A", &a), ("B", &b), ("Z", &z)]);
    assert!(matches!(e, Err(SpttnError::Execution(_))));

    // Unparseable expressions.
    assert!(Contraction::parse("garbage").is_err());
    assert!(Contraction::parse("O(i) = ").is_err());
}

/// Plan::describe is informative enough for debugging.
#[test]
fn plan_describe_mentions_structure() {
    let k = stdkernels::mttkrp(&[8, 8, 8], 4);
    let (coo, factors, _) = operands(&k, 60, 900);
    let exec = plan_and_bind(&k, &coo, &factors, PlanOptions::default());
    let d = exec.describe();
    assert!(d.contains("kernel: A(i,a)"), "{d}");
    assert!(d.contains("path:"), "{d}");
    assert!(d.contains("nest:"), "{d}");
    assert!(d.contains("for (i, node) in csf_level_0"), "{d}");
}
