//! Interpreter golden tests: every fused loop nest must reproduce the
//! naive dense einsum oracle, across the paper's listings and output
//! flavors (dense, pattern-sharing), fused and unfused forests, and the
//! BLAS dispatch paths (AXPY, DOT, elementwise, GER, GEMV).

mod common;

use rand::prelude::*;
use spttn_core::Result;
use spttn_exec::interp::execute_forest_into;
use spttn_exec::{naive_einsum, ContractionOutput, ExecStats, OutputMut, Workspace};
use spttn_ir::{
    build_forest, parse_kernel, path_from_picks, ContractionPath, Kernel, LoopForest, NestSpec,
};
use spttn_tensor::{random_coo, random_dense, CooTensor, Csf, DenseTensor};

const TOL: f64 = 1e-9;

/// Densify every input (sparse first-slot included) for the oracle.
fn oracle(kernel: &Kernel, coo: &CooTensor, factors: &[DenseTensor]) -> DenseTensor {
    let sparse_dense = coo.to_dense();
    let mut all: Vec<&DenseTensor> = Vec::new();
    let mut next = 0usize;
    for slot in 0..kernel.inputs.len() {
        if slot == kernel.sparse_input {
            all.push(&sparse_dense);
        } else {
            all.push(&factors[next]);
            next += 1;
        }
    }
    naive_einsum(kernel, &all).unwrap()
}

/// Interpret a nest from a fresh workspace into a fresh output.
fn interpret(
    kernel: &Kernel,
    path: &ContractionPath,
    forest: &LoopForest,
    csf: &Csf,
    dense: &[&DenseTensor],
) -> Result<(ContractionOutput, ExecStats)> {
    let slots = common::by_slot(kernel, dense);
    let mut ws = Workspace::new(kernel, path, forest);
    let out = common::fresh_output(kernel, csf, |out| {
        execute_forest_into(kernel, path, forest, csf, &slots, &mut ws, out)
    })?;
    Ok((out, ws.stats()))
}

/// [`run`] plus the run's dispatch counters.
fn run_counted(
    kernel: &Kernel,
    picks: &[(usize, usize)],
    orders: Vec<Vec<usize>>,
    coo: &CooTensor,
    factors: &[DenseTensor],
) -> (ContractionOutput, ExecStats) {
    let path = path_from_picks(kernel, picks);
    let spec = NestSpec { orders };
    let forest = build_forest(kernel, &path, &spec).unwrap();
    let order: Vec<usize> = (0..coo.order()).collect();
    let csf = Csf::from_coo(coo, &order).unwrap();
    let refs: Vec<&DenseTensor> = factors.iter().collect();
    interpret(kernel, &path, &forest, &csf, &refs).unwrap()
}

fn run(
    kernel: &Kernel,
    picks: &[(usize, usize)],
    orders: Vec<Vec<usize>>,
    coo: &CooTensor,
    factors: &[DenseTensor],
) -> ContractionOutput {
    run_counted(kernel, picks, orders, coo, factors).0
}

fn ttmc_setup(seed: u64) -> (Kernel, CooTensor, Vec<DenseTensor>) {
    let k = parse_kernel(
        "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
        &[("i", 8), ("j", 9), ("k", 10), ("r", 4), ("s", 5)],
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let coo = random_coo(&[8, 9, 10], 120, &mut rng).unwrap();
    let u = random_dense(&[9, 4], &mut rng);
    let v = random_dense(&[10, 5], &mut rng);
    (k, coo, vec![u, v])
}

/// Listing 3: 1-d buffer, sparse k loop, trailing dense s (AXPY path).
#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn ttmc_listing3_matches_oracle() {
    let (k, coo, f) = ttmc_setup(1);
    let (got, stats) = run_counted(
        &k,
        &[(0, 2), (0, 1)],
        vec![vec![0, 1, 2, 4], vec![0, 1, 4, 3]],
        &coo,
        &f,
    );
    assert!(stats.axpy > 0, "AXPY microkernel should dispatch");
    let want = oracle(&k, &coo, &f);
    assert!(got.to_dense().approx_eq(&want, TOL));
}

/// Listing 4: scalar buffer, dense s above sparse k (DOT-free generic).
#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn ttmc_listing4_matches_oracle() {
    let (k, coo, f) = ttmc_setup(2);
    let got = run(
        &k,
        &[(0, 2), (0, 1)],
        vec![vec![0, 1, 4, 2], vec![0, 1, 4, 3]],
        &coo,
        &f,
    );
    let want = oracle(&k, &coo, &f);
    assert!(got.to_dense().approx_eq(&want, TOL));
}

/// Listing 2 (unfused): 3-d materialized buffer; the consumer
/// re-descends the CSF below its own dense s loop.
#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn ttmc_unfused_matches_oracle() {
    let (k, coo, f) = ttmc_setup(3);
    let got = run(
        &k,
        &[(0, 2), (0, 1)],
        vec![vec![0, 1, 2, 4], vec![4, 0, 1, 3]],
        &coo,
        &f,
    );
    let want = oracle(&k, &coo, &f);
    assert!(got.to_dense().approx_eq(&want, TOL));
}

/// Fig. 1d: dense-first path (U·V materialized, then contracted with T).
#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn ttmc_dense_first_path_matches_oracle() {
    let (k, coo, f) = ttmc_setup(4);
    let got = run(
        &k,
        &[(1, 2), (0, 1)],
        vec![vec![1, 3, 2, 4], vec![0, 1, 2, 3, 4]],
        &coo,
        &f,
    );
    let want = oracle(&k, &coo, &f);
    assert!(got.to_dense().approx_eq(&want, TOL));
}

/// MTTKRP fused factorize schedule (paper Sec. 2.4.2).
#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn mttkrp_factorized_matches_oracle() {
    let k = parse_kernel(
        "A(i,a) = T(i,j,k) * B(j,a) * C(k,a)",
        &[("i", 7), ("j", 8), ("k", 9), ("a", 5)],
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let coo = random_coo(&[7, 8, 9], 100, &mut rng).unwrap();
    let b = random_dense(&[8, 5], &mut rng);
    let c = random_dense(&[9, 5], &mut rng);
    let f = vec![b, c];
    // Path (T*C) -> X(i,j,a); (X*B) -> A.
    let got = run(
        &k,
        &[(0, 2), (0, 1)],
        vec![vec![0, 1, 2, 3], vec![0, 1, 3]],
        &coo,
        &f,
    );
    let want = oracle(&k, &coo, &f);
    assert!(got.to_dense().approx_eq(&want, TOL));
}

/// TTTP: pattern-sharing output, pre-sparse dense term fused under the
/// sparse descent.
#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn tttp_sparse_output_matches_oracle() {
    let k = parse_kernel(
        "S(i,j,k) = T(i,j,k) * U(i,r) * V(j,r) * W(k,r)",
        &[("i", 6), ("j", 7), ("k", 8), ("r", 3)],
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(6);
    let coo = random_coo(&[6, 7, 8], 80, &mut rng).unwrap();
    let f = vec![
        random_dense(&[6, 3], &mut rng),
        random_dense(&[7, 3], &mut rng),
        random_dense(&[8, 3], &mut rng),
    ];
    // Path: (U*V)->X0(i,j,r); (W*X0)->X1(i,j,k,r); (T*X1)->S.
    let got = run(
        &k,
        &[(1, 2), (1, 2), (0, 1)],
        vec![vec![0, 1, 3], vec![0, 1, 2, 3], vec![0, 1, 2]],
        &coo,
        &f,
    );
    let ContractionOutput::Sparse(out) = &got else {
        panic!("TTTP output must share the sparse pattern");
    };
    assert_eq!(out.nnz(), coo.nnz());
    let want = oracle(&k, &coo, &f);
    assert!(got.to_dense().approx_eq(&want, TOL));
}

/// Rank-1 outer product intermediate: exercises the GER dispatch.
#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn ger_dispatch_matches_oracle() {
    let k = parse_kernel(
        "S(i,r,s) = T(i) * U(r) * V(s)",
        &[("i", 6), ("r", 5), ("s", 4)],
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let coo = random_coo(&[6], 4, &mut rng).unwrap();
    let f = vec![random_dense(&[5], &mut rng), random_dense(&[4], &mut rng)];
    // Path (U*V) -> X0(r,s) [GER]; (T*X0) -> S.
    let (got, stats) = run_counted(
        &k,
        &[(1, 2), (0, 1)],
        vec![vec![1, 2], vec![0, 1, 2]],
        &coo,
        &f,
    );
    assert!(stats.ger > 0, "GER microkernel should dispatch");
    let want = oracle(&k, &coo, &f);
    assert!(got.to_dense().approx_eq(&want, TOL));
}

/// Matrix-times-vector intermediate: exercises the GEMV dispatch.
#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn gemv_dispatch_matches_oracle() {
    let k = parse_kernel(
        "C(i) = T(k) * A(i,j) * B(j)",
        &[("i", 6), ("j", 7), ("k", 5)],
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(8);
    let coo = random_coo(&[5], 3, &mut rng).unwrap();
    let f = vec![
        random_dense(&[6, 7], &mut rng),
        random_dense(&[7], &mut rng),
    ];
    // Path (A*B) -> X0(i) [GEMV]; (T*X0) -> C. Index ids follow the
    // sparse tensor first: k=0, i=1, j=2.
    let (got, stats) = run_counted(
        &k,
        &[(1, 2), (0, 1)],
        vec![vec![1, 2], vec![0, 1]],
        &coo,
        &f,
    );
    assert!(stats.gemv > 0, "GEMV microkernel should dispatch");
    let want = oracle(&k, &coo, &f);
    assert!(got.to_dense().approx_eq(&want, TOL));
}

/// Shape validation: wrong factor dims and wrong CSF order are rejected.
#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn executor_validates_shapes() {
    let (k, coo, f) = ttmc_setup(9);
    let path = path_from_picks(&k, &[(0, 2), (0, 1)]);
    let spec = NestSpec {
        orders: vec![vec![0, 1, 2, 4], vec![0, 1, 4, 3]],
    };
    let forest = build_forest(&k, &path, &spec).unwrap();
    let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
    // Swap the factors: dims no longer match the kernel.
    let refs: Vec<&DenseTensor> = vec![&f[1], &f[0]];
    assert!(interpret(&k, &path, &forest, &csf, &refs).is_err());
    // Too few factors.
    let refs2: Vec<&DenseTensor> = vec![&f[0]];
    assert!(interpret(&k, &path, &forest, &csf, &refs2).is_err());
    // CSF built in a different mode order than the kernel declares.
    let bad_csf = Csf::from_coo(&coo, &[2, 1, 0]).unwrap();
    let refs3: Vec<&DenseTensor> = f.iter().collect();
    assert!(interpret(&k, &path, &forest, &bad_csf, &refs3).is_err());
}

/// Order-4 TTMc with the Fig. 6 nest: two buffers, deep fusion.
#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn order4_ttmc_fig6_matches_oracle() {
    let k = parse_kernel(
        "S(i,r,s,t) = T(i,j,k,l) * U(j,r) * V(k,s) * W(l,t)",
        &[
            ("i", 5),
            ("j", 5),
            ("k", 5),
            ("l", 5),
            ("r", 3),
            ("s", 3),
            ("t", 3),
        ],
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(10);
    let coo = random_coo(&[5, 5, 5, 5], 60, &mut rng).unwrap();
    let f = vec![
        random_dense(&[5, 3], &mut rng),
        random_dense(&[5, 3], &mut rng),
        random_dense(&[5, 3], &mut rng),
    ];
    let got = run(
        &k,
        &[(0, 3), (1, 2), (0, 1)],
        vec![
            vec![0, 1, 2, 3, 6],
            vec![0, 1, 2, 5, 6],
            vec![0, 1, 4, 5, 6],
        ],
        &coo,
        &f,
    );
    let want = oracle(&k, &coo, &f);
    assert!(got.to_dense().approx_eq(&want, TOL));
}

/// A reused workspace must produce identical results across executions
/// (stale intermediate/cursor state fully overwritten), and the
/// accumulate contract of `execute_forest_into` must hold: contributions
/// add on top of whatever the caller left in the output.
#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn workspace_reuse_is_deterministic_and_accumulating() {
    let (k, coo, factors) = ttmc_setup(77);
    let path = path_from_picks(&k, &[(0, 2), (0, 1)]);
    let spec = NestSpec {
        orders: vec![vec![0, 1, 2, 4], vec![0, 1, 4, 3]],
    };
    let forest = build_forest(&k, &path, &spec).unwrap();
    let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();

    let mut slots: Vec<DenseTensor> = vec![DenseTensor::zeros(&[])];
    slots.extend(factors.iter().cloned());
    let mut ws = Workspace::new(&k, &path, &forest);
    let want = oracle(&k, &coo, &factors);

    let mut out = DenseTensor::zeros(&k.ref_dims(&k.output));
    execute_forest_into(
        &k,
        &path,
        &forest,
        &csf,
        &slots,
        &mut ws,
        OutputMut::Dense(&mut out),
    )
    .unwrap();
    assert!(out.approx_eq(&want, TOL), "first execution diverged");

    // Second run into the same (non-zeroed) output accumulates: 2×.
    execute_forest_into(
        &k,
        &path,
        &forest,
        &csf,
        &slots,
        &mut ws,
        OutputMut::Dense(&mut out),
    )
    .unwrap();
    let mut twice = want.clone();
    for (d, s) in twice.as_mut_slice().iter_mut().zip(want.as_slice()) {
        *d += s;
    }
    assert!(out.approx_eq(&twice, TOL), "accumulation diverged");

    // Zeroed output, reused workspace: back to the oracle exactly.
    out.fill_zero();
    execute_forest_into(
        &k,
        &path,
        &forest,
        &csf,
        &slots,
        &mut ws,
        OutputMut::Dense(&mut out),
    )
    .unwrap();
    assert!(out.approx_eq(&want, TOL), "reused workspace diverged");

    // Mismatched output flavor is rejected.
    let mut vals = vec![0.0; csf.nnz()];
    let e = execute_forest_into(
        &k,
        &path,
        &forest,
        &csf,
        &slots,
        &mut ws,
        OutputMut::Sparse(&mut vals),
    );
    assert!(e.is_err(), "dense kernel accepted a sparse output");
}

/// A workspace built for one forest must be rejected when driven with a
/// different forest of the same kernel/path — its buffer shapes would
/// silently disagree.
#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn workspace_from_other_forest_is_rejected() {
    let (k, coo, factors) = ttmc_setup(78);
    let path = path_from_picks(&k, &[(0, 2), (0, 1)]);
    let fused = build_forest(
        &k,
        &path,
        &NestSpec {
            orders: vec![vec![0, 1, 2, 4], vec![0, 1, 4, 3]],
        },
    )
    .unwrap();
    let unfused = build_forest(
        &k,
        &path,
        &NestSpec {
            orders: vec![vec![0, 1, 2, 4], vec![4, 0, 1, 3]],
        },
    )
    .unwrap();
    let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
    let mut slots: Vec<DenseTensor> = vec![DenseTensor::zeros(&[])];
    slots.extend(factors.iter().cloned());
    let mut out = DenseTensor::zeros(&k.ref_dims(&k.output));

    let mut ws = Workspace::new(&k, &path, &unfused);
    let e = execute_forest_into(
        &k,
        &path,
        &fused,
        &csf,
        &slots,
        &mut ws,
        OutputMut::Dense(&mut out),
    );
    assert!(e.is_err(), "mismatched workspace was accepted");
}
