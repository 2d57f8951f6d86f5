//! Tape golden tests: every compiled tape must reproduce both the
//! naive dense einsum oracle and its committed digest lines (the
//! interpreter's bits on the scalar tier) — across fused and unfused
//! forests, dense and pattern-sharing outputs, all five microkernel
//! lowerings, sparse loops under dense ones, and a nest whose CSF
//! indices iterate densely under a dense ancestor of their parent
//! level — and the whole-tree runner must refuse what does not fit
//! and accumulate into what the caller left in the output.

mod common;

use common::digest::Digests;
use common::scalar_tape;
use rand::prelude::*;
use spttn_exec::{
    execute_tape_into, naive_einsum, CompiledTape, ContractionOutput, ExecStats, KernelSel,
    KernelSet, Microkernels, OutputMut, Workspace,
};
use spttn_ir::{
    buffers_for_forest, build_forest, parse_kernel, path_from_picks, ContractionPath, Kernel,
    LoopForest, NestSpec,
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

/// Run a forest's tape on the scalar tier and on the host's (each from
/// a fresh workspace and output), hold the host's to the scalar run at
/// ≤ 1e-9, and record both runs under `case`: the committed digests
/// are the interpreter's bits, so the scalar tape must reproduce them
/// exactly. Returns the scalar run's output and dispatch counters.
fn run_forest(
    digests: &mut Digests,
    case: &str,
    kernel: &Kernel,
    path: &ContractionPath,
    forest: &LoopForest,
    csf: &Csf,
    factors: &[DenseTensor],
) -> (ContractionOutput, ExecStats) {
    let refs: Vec<&DenseTensor> = factors.iter().collect();
    let slots = common::by_slot(kernel, &refs);
    let specs = buffers_for_forest(kernel, path, forest);
    let mut runs = Vec::new();
    for ks in [KernelSet::scalar(), KernelSet::resolve(Microkernels::Auto)] {
        let compiled = CompiledTape::compile_with_kernels(kernel, path, forest, &specs, ks)
            .expect("nest compiles");
        // Every golden nest's compiled program must also pass the
        // static verifier before we trust its output.
        compiled.verify().expect("golden tape verifies clean");
        let mut ws = Workspace::new(kernel, path, forest);
        let out = common::fresh_output(kernel, csf, |out| {
            execute_tape_into(&compiled, kernel, csf, &slots, &mut ws, out)
        })
        .unwrap();
        let scalar = ks.selection() == KernelSel::Scalar;
        digests.record(case, "-", scalar, 1, common::vals(&out), &ws.stats());
        runs.push((out, ws.stats()));
    }
    let host = runs.pop().unwrap().0;
    let scalar = runs.pop().unwrap();
    assert!(
        host.to_dense().approx_eq(&scalar.0.to_dense(), TOL),
        "{case}: the host tier diverged from the scalar tier"
    );
    scalar
}

/// [`run_forest`] on the nest `(picks, orders)` describe, held to the
/// digests of `case`.
fn run_both(
    case: &str,
    kernel: &Kernel,
    picks: &[(usize, usize)],
    orders: Vec<Vec<usize>>,
    coo: &CooTensor,
    factors: &[DenseTensor],
) -> (ContractionOutput, ExecStats) {
    let path = path_from_picks(kernel, picks);
    let forest = build_forest(kernel, &path, &NestSpec { orders }).unwrap();
    let order: Vec<usize> = (0..coo.order()).collect();
    let csf = Csf::from_coo(coo, &order).unwrap();
    let mut digests = Digests::new("tape_golden");
    let got = run_forest(&mut digests, case, kernel, &path, &forest, &csf, factors);
    digests.check();
    got
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
    let (got, stats) = run_both(
        "ttmc_listing3",
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

/// Listing 4: dense s *above* sparse k — the sparse loop re-enters the
/// children of the tracked `j` node on every s iteration (`s` is not a
/// CSF index, so nothing is looked up; the name predates that being
/// checked).
#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn ttmc_listing4_finger_search_matches_oracle() {
    let (k, coo, f) = ttmc_setup(2);
    let (got, _) = run_both(
        "ttmc_listing4_finger_search",
        &k,
        &[(0, 2), (0, 1)],
        vec![vec![0, 1, 4, 2], vec![0, 1, 4, 3]],
        &coo,
        &f,
    );
    let want = oracle(&k, &coo, &f);
    assert!(got.to_dense().approx_eq(&want, TOL));
}

/// Listing 2 (unfused): the consumer re-descends the CSF from the root
/// below its own dense s loop, every level tracked by its own sparse
/// loop.
#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn ttmc_unfused_redescent_matches_oracle() {
    let (k, coo, f) = ttmc_setup(3);
    let (got, _) = run_both(
        "ttmc_unfused_redescent",
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
    let (got, _) = run_both(
        "ttmc_dense_first_path",
        &k,
        &[(1, 2), (0, 1)],
        vec![vec![1, 3, 2, 4], vec![0, 1, 2, 3, 4]],
        &coo,
        &f,
    );
    let want = oracle(&k, &coo, &f);
    assert!(got.to_dense().approx_eq(&want, TOL));
}

/// MTTKRP fused factorize schedule (AXPY/XMUL lowerings).
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
    let (got, _) = run_both(
        "mttkrp_factorized",
        &k,
        &[(0, 2), (0, 1)],
        vec![vec![0, 1, 2, 3], vec![0, 1, 3]],
        &coo,
        &f,
    );
    let want = oracle(&k, &coo, &f);
    assert!(got.to_dense().approx_eq(&want, TOL));
}

/// TTTP: pattern-sharing output written through the tape's tracked
/// leaf nodes.
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
    let (got, _) = run_both(
        "tttp_sparse_output",
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

/// Rank-1 outer product intermediate: the GER lowering.
#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn ger_lowering_matches_oracle() {
    let k = parse_kernel(
        "S(i,r,s) = T(i) * U(r) * V(s)",
        &[("i", 6), ("r", 5), ("s", 4)],
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let coo = random_coo(&[6], 4, &mut rng).unwrap();
    let f = vec![random_dense(&[5], &mut rng), random_dense(&[4], &mut rng)];
    let (got, stats) = run_both(
        "ger_lowering",
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

/// Matrix-times-vector intermediate: the GEMV lowering.
#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn gemv_lowering_matches_oracle() {
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
    let (got, stats) = run_both(
        "gemv_lowering",
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
    let (got, _) = run_both(
        "order4_ttmc_fig6",
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

/// Randomized sweep: every (path, spec) the order-3 TTMc admits on a
/// few seeds, so loop shapes beyond the handcrafted listings hit both
/// engines (the tape must never diverge, whatever the nest).
#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn randomized_nests_agree_with_interpreter() {
    use spttn_ir::{enumerate_paths, NestSpecIter};
    let (k, coo, f) = ttmc_setup(42);
    let order: Vec<usize> = (0..coo.order()).collect();
    let csf = Csf::from_coo(&coo, &order).unwrap();
    let want = oracle(&k, &coo, &f);
    let mut digests = Digests::new("tape_golden");
    let mut checked = 0usize;
    for path in enumerate_paths(&k) {
        for spec in NestSpecIter::new(&k, &path).take(12) {
            let Ok(forest) = build_forest(&k, &path, &spec) else {
                continue;
            };
            let case = format!("sweep{checked}");
            let (tape, _) = run_forest(&mut digests, &case, &k, &path, &forest, &csf, &f);
            assert!(
                tape.to_dense().approx_eq(&want, TOL),
                "diverged from the oracle on {}",
                forest.render(&k, &path)
            );
            checked += 1;
        }
    }
    assert!(checked > 10, "sweep exercised only {checked} nests");
    digests.check();
}

/// The one nest shape that used to reach a CSF node by search: terms
/// 1–2 fuse on `(r, i)` with `i` dense (`A*C` is not prunable there),
/// so the `j` and `k` loops under it now iterate densely and `X0` —
/// zero off the pattern — supplies the sparsity.
#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn csf_indices_under_a_dense_ancestor_match_oracle() {
    let k = parse_kernel(
        "S(i,j,k) = T(i,j,k) * A(i,r) * B(j,r) * C(k,r) * D(k,r)",
        &[("i", 6), ("j", 7), ("k", 8), ("r", 3)],
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    let coo = random_coo(&[6, 7, 8], 90, &mut rng).unwrap();
    let f = vec![
        random_dense(&[6, 3], &mut rng),
        random_dense(&[7, 3], &mut rng),
        random_dense(&[8, 3], &mut rng),
        random_dense(&[8, 3], &mut rng),
    ];
    // T*B→X0; A*C→X1; D*X0→X2; X1*X2→S.
    let (got, _) = run_both(
        "csf_indices_under_a_dense_ancestor_match_oracle",
        &k,
        &[(0, 2), (0, 1), (0, 1), (0, 1)],
        vec![
            vec![0, 1, 2, 3],
            vec![3, 0, 2],
            vec![3, 0, 1, 2],
            vec![0, 1, 2, 3],
        ],
        &coo,
        &f,
    );
    let ContractionOutput::Sparse(out) = &got else {
        panic!("output shares the sparse pattern");
    };
    assert_eq!(out.nnz(), coo.nnz());
    let want = oracle(&k, &coo, &f);
    assert!(got.to_dense().approx_eq(&want, TOL));
}

/// Shape validation: wrong factor dims, too few factors and a CSF in
/// another mode order than the kernel declares are each refused.
#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn executor_validates_shapes() {
    let (k, coo, f) = ttmc_setup(9);
    let path = path_from_picks(&k, &[(0, 2), (0, 1)]);
    let spec = NestSpec {
        orders: vec![vec![0, 1, 2, 4], vec![0, 1, 4, 3]],
    };
    let forest = build_forest(&k, &path, &spec).unwrap();
    let tape = scalar_tape(&k, &path, &forest);
    let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
    let run = |csf: &Csf, dense: &[&DenseTensor]| {
        let slots = common::by_slot(&k, dense);
        let mut ws = Workspace::new(&k, &path, &forest);
        common::fresh_output(&k, csf, |out| {
            execute_tape_into(&tape, &k, csf, &slots, &mut ws, out)
        })
    };
    assert!(run(&csf, &[&f[0], &f[1]]).is_ok());
    // Swap the factors: dims no longer match the kernel.
    assert!(run(&csf, &[&f[1], &f[0]]).is_err());
    // Too few factors.
    assert!(run(&csf, &[&f[0]]).is_err());
    // CSF built in a different mode order than the kernel declares.
    let bad_csf = Csf::from_coo(&coo, &[2, 1, 0]).unwrap();
    assert!(run(&bad_csf, &[&f[0], &f[1]]).is_err());
}

/// A reused workspace must produce identical results across executions
/// (stale intermediate/cursor state fully overwritten), and the
/// accumulate contract of `execute_tape_into` must hold: contributions
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
    let tape = scalar_tape(&k, &path, &forest);
    let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
    let mut slots: Vec<DenseTensor> = vec![DenseTensor::zeros(&[])];
    slots.extend(factors.iter().cloned());
    let mut ws = Workspace::new(&k, &path, &forest);
    let want = oracle(&k, &coo, &factors);
    let mut run = |out: OutputMut<'_>| execute_tape_into(&tape, &k, &csf, &slots, &mut ws, out);

    let mut out = DenseTensor::zeros(&k.ref_dims(&k.output));
    run(OutputMut::Dense(&mut out)).unwrap();
    assert!(out.approx_eq(&want, TOL), "first execution diverged");
    let first = out.clone();

    // Second run into the same (non-zeroed) output accumulates: 2×.
    run(OutputMut::Dense(&mut out)).unwrap();
    let mut twice = want.clone();
    for (d, s) in twice.as_mut_slice().iter_mut().zip(want.as_slice()) {
        *d += s;
    }
    assert!(out.approx_eq(&twice, TOL), "accumulation diverged");

    // Zeroed output, reused workspace: the first run's bits again.
    out.fill_zero();
    run(OutputMut::Dense(&mut out)).unwrap();
    assert_eq!(
        out.as_slice(),
        first.as_slice(),
        "reused workspace diverged"
    );

    // Mismatched output flavor is rejected.
    let mut vals = vec![0.0; csf.nnz()];
    let e = run(OutputMut::Sparse(&mut vals));
    assert!(e.is_err(), "dense kernel accepted a sparse output");
}

/// A workspace built for a different forest is rejected by the tape
/// runner: its buffer shapes would silently disagree.
#[test]
#[cfg_attr(miri, ignore)] // too slow under the interpreter
fn tape_rejects_mismatched_workspace() {
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
    let tape = scalar_tape(&k, &path, &fused);
    let mut ws = Workspace::new(&k, &path, &unfused);
    let e = execute_tape_into(&tape, &k, &csf, &slots, &mut ws, OutputMut::Dense(&mut out));
    assert!(e.is_err(), "mismatched workspace was accepted");
}
