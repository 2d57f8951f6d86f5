//! Differential harness: the tape at every tile count and tier vs the
//! interpreter's bits, as the committed digests hold them.
//!
//! Every standard kernel (MTTKRP, TTMc, TTTP, all-mode TTMc, SpMV)
//! plus randomized 3-/4-mode expressions, under **all four cost
//! models × threads {1, 4}**: the tape must agree with the serial
//! reference — the 1-tile scalar tape (`common::scalar_reference`),
//! whose bits and dispatch counts the committed digests pin — to
//! ≤1e-9 everywhere, parallel reductions must be bitwise-reproducible
//! run to run, and the `+=` accumulate and rebinding (`set_factor` /
//! `set_sparse_values`) paths must land on the reference too.

mod common;

use common::digest::Digests;
use common::scalar_reference;

use rand::prelude::*;
use spttn::ir::{stdkernels, Kernel};
use spttn::tensor::{random_coo, random_dense, Csf, DenseTensor};
use spttn::{
    Contraction, ContractionOutput, CostModel, ExecStats, Executor, Plan, PlanOptions, Shapes,
    Threads,
};

const TOL: f64 = 1e-9;

const MODELS: [CostModel; 4] = [
    CostModel::MaxBufferDim,
    CostModel::MaxBufferSize,
    CostModel::CacheMiss { d: 1 },
    CostModel::BlasAware {
        buffer_dim_bound: 2,
    },
];

fn operands(kernel: &Kernel, nnz: usize, seed: u64) -> (Csf, Vec<(String, DenseTensor)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let dims = kernel.ref_dims(kernel.sparse_ref());
    let coo = random_coo(&dims, nnz, &mut rng).unwrap();
    let order: Vec<usize> = (0..dims.len()).collect();
    let csf = Csf::from_coo(&coo, &order).unwrap();
    let mut factors = Vec::new();
    for (slot, r) in kernel.inputs.iter().enumerate() {
        if slot == kernel.sparse_input {
            continue;
        }
        if factors.iter().any(|(n, _)| *n == r.name) {
            continue;
        }
        factors.push((r.name.clone(), random_dense(&kernel.ref_dims(r), &mut rng)));
    }
    (csf, factors)
}

fn named(factors: &[(String, DenseTensor)]) -> Vec<(&str, &DenseTensor)> {
    factors.iter().map(|(n, t)| (n.as_str(), t)).collect()
}

fn plan_at(kernel: &Kernel, csf: &Csf, model: CostModel, threads: usize) -> Plan {
    let plan = Contraction::from_kernel(kernel.clone())
        .plan(
            &Shapes::new().with_pattern(csf.to_coo()),
            &PlanOptions::with_cost_model(model).with_threads(Threads::N(threads)),
        )
        .expect("planning succeeds");
    // Every tape the differential suite runs must also prove out
    // statically (every bind re-checks this; asserting here keeps the
    // invariant visible in the suite).
    plan.verify_tape()
        .expect("differential tape verifies clean");
    plan
}

fn bind_at(
    kernel: &Kernel,
    csf: &Csf,
    factors: &[(String, DenseTensor)],
    model: CostModel,
    threads: usize,
) -> Executor {
    plan_at(kernel, csf, model, threads)
        .bind(csf.clone(), &named(factors))
        .expect("bind succeeds")
}

fn bits(out: &ContractionOutput) -> Vec<u64> {
    out.to_dense()
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// The serial reference of `plan`, recorded under `case` and held to
/// its committed digest line by `digests`.
fn reference(
    digests: &mut Digests,
    case: &str,
    model: CostModel,
    plan: &Plan,
    csf: &Csf,
    factors: &[(&str, &DenseTensor)],
) -> (ContractionOutput, ExecStats) {
    let (want, exec) = scalar_reference(plan, csf, factors);
    common::record(digests, case, model, &exec, &want);
    (want, exec.last_stats())
}

/// The full matrix: kernels × models × threads, tape vs the serial
/// reference ≤1e-9 and bitwise run-to-run reproducibility of the tape.
fn differential(case: &str, kernel: &Kernel, nnz: usize, seed: u64) {
    let (csf, factors) = operands(kernel, nnz, seed);
    let mut digests = Digests::new("differential");
    for model in MODELS {
        let plan = plan_at(kernel, &csf, model, 1);
        let (want, want_stats) =
            reference(&mut digests, case, model, &plan, &csf, &named(&factors));
        for threads in [1usize, 4] {
            let mut tape = bind_at(kernel, &csf, &factors, model, threads);
            let got = tape.execute().unwrap();
            assert!(
                want.to_dense().approx_eq(&got.to_dense(), TOL),
                "tape diverged from the reference: {} under {model:?} at {threads} threads",
                kernel.to_einsum()
            );
            // Same dispatch decisions as the reference. Serial only: a
            // tiled run repeats work that sits outside every sparse
            // loop once per tile.
            if threads == 1 {
                assert_eq!(
                    want_stats.total(),
                    tape.last_stats().total(),
                    "dispatch counts diverged: {} under {model:?}",
                    kernel.to_einsum()
                );
            }
            // Bitwise-identical parallel reductions, run to run.
            let again = tape.execute().unwrap();
            assert_eq!(
                bits(&got),
                bits(&again),
                "tape is not run-to-run bitwise stable"
            );
        }
    }
    digests.check();
}

#[test]
fn mttkrp_differential() {
    differential("mttkrp", &stdkernels::mttkrp(&[40, 30, 35], 8), 900, 1);
}

#[test]
fn ttmc_differential() {
    differential("ttmc", &stdkernels::ttmc(&[30, 25, 28], &[5, 6]), 700, 2);
}

#[test]
fn tttp_differential() {
    differential("tttp", &stdkernels::tttp(&[18, 20, 22], 5), 600, 3);
}

#[test]
fn all_mode_ttmc_differential() {
    differential(
        "all-mode-ttmc",
        &stdkernels::all_mode_ttmc(&[14, 15, 16], &[4, 5, 6]),
        500,
        4,
    );
}

#[test]
fn spmv_differential() {
    // SpMV through the expression front door (order-2 sparse input).
    let kernel = spttn::ir::parse_kernel("y(i) = M(i,j) * x(j)", &[("i", 50), ("j", 60)]).unwrap();
    differential("spmv", &kernel, 400, 5);
}

#[test]
fn randomized_3mode_expression_differential() {
    // A tensor-train-style 3-mode contraction (TTTc shape).
    let kernel = stdkernels::tttc(&[16, 17, 18], 4);
    differential("tttc", &kernel, 450, 6);
}

#[test]
fn randomized_4mode_expression_differential() {
    // Order-4 TTMc: deeper nests, two intermediate buffers.
    differential(
        "ttmc4",
        &stdkernels::ttmc(&[12, 10, 11, 9], &[3, 4, 5]),
        500,
        7,
    );
}

/// `+=` accumulate path: two executions stack on top of the bound
/// output, landing on twice the reference.
#[test]
fn accumulate_path_matches_across_engines() {
    let mut rng = StdRng::seed_from_u64(21);
    let coo = random_coo(&[24, 20, 22], 500, &mut rng).unwrap();
    let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
    let b = random_dense(&[20, 6], &mut rng);
    let c = random_dense(&[22, 6], &mut rng);
    let factors: [(&str, &DenseTensor); 2] = [("B", &b), ("C", &c)];
    let shapes = Shapes::new()
        .with_dims(&[("i", 24), ("j", 20), ("k", 22), ("a", 6)])
        .with_pattern(csf.to_coo());
    let plan_at = |threads: usize| {
        Contraction::parse("A(i,a) += T(i,j,k) * B(j,a) * C(k,a)")
            .unwrap()
            .plan(
                &shapes,
                &PlanOptions::with_cost_model(CostModel::BlasAware {
                    buffer_dim_bound: 2,
                })
                .with_threads(Threads::N(threads)),
            )
            .unwrap()
    };
    let mut digests = Digests::new("differential");
    let model = CostModel::BlasAware {
        buffer_dim_bound: 2,
    };
    let (once, _) = reference(
        &mut digests,
        "accumulate",
        model,
        &plan_at(1),
        &csf,
        &factors,
    );
    digests.check();
    let once = once.to_dense();
    let twice = DenseTensor::from_fn(once.dims(), |c| 2.0 * once.get(c));
    for threads in [1usize, 4] {
        let plan = plan_at(threads);
        assert!(plan.accumulate());
        let mut exec = plan.bind(csf.clone(), &factors).unwrap();
        let mut out = exec.output_template();
        exec.execute_into(&mut out).unwrap();
        exec.execute_into(&mut out).unwrap(); // accumulates: 2×
        assert!(
            twice.approx_eq(&out.to_dense(), TOL),
            "accumulate path diverged from the reference at {threads} threads"
        );
    }
}

/// Rebinding path: `set_factor` + `set_sparse_values` land on the
/// reference run over the new values (ALS-sweep shape).
#[test]
fn rebind_path_matches_across_engines() {
    let kernel = stdkernels::mttkrp(&[30, 24, 26], 7);
    let (csf, factors) = operands(&kernel, 700, 31);
    let mut rng = StdRng::seed_from_u64(32);
    let new_f1 = random_dense(&[24, 7], &mut rng);
    let new_vals: Vec<f64> = csf.vals().iter().map(|v| v * 0.25 + 1.0).collect();
    let mut new_csf = csf.clone();
    new_csf.vals_mut().copy_from_slice(&new_vals);
    let new_factors: Vec<(&str, &DenseTensor)> = named(&factors)
        .into_iter()
        .map(|(n, t)| (n, if n == "F1" { &new_f1 } else { t }))
        .collect();
    let mut digests = Digests::new("differential");
    let model = CostModel::MaxBufferSize;
    let plan = plan_at(&kernel, &csf, model, 1);
    let (want, _) = reference(&mut digests, "rebind", model, &plan, &new_csf, &new_factors);
    digests.check();
    for threads in [1usize, 4] {
        let mut exec = bind_at(&kernel, &csf, &factors, CostModel::MaxBufferSize, threads);
        exec.execute().unwrap(); // stale state to overwrite
        exec.set_factor("F1", &new_f1).unwrap();
        exec.set_sparse_values(&new_vals).unwrap();
        assert!(
            want.to_dense()
                .approx_eq(&exec.execute().unwrap().to_dense(), TOL),
            "rebind path diverged from the reference at {threads} threads"
        );
    }
}

/// Sparse (pattern-sharing) outputs through `execute_into` land on the
/// reference too.
#[test]
fn sparse_output_accumulate_across_engines() {
    let kernel = stdkernels::tttp(&[14, 15, 16], 4);
    let (csf, factors) = operands(&kernel, 350, 41);
    let mut digests = Digests::new("differential");
    let model = CostModel::MaxBufferDim;
    let plan = plan_at(&kernel, &csf, model, 1);
    let (want, _) = reference(
        &mut digests,
        "sparse-output",
        model,
        &plan,
        &csf,
        &named(&factors),
    );
    digests.check();
    for threads in [1usize, 4] {
        let mut exec = bind_at(&kernel, &csf, &factors, CostModel::MaxBufferDim, threads);
        let mut out = exec.output_template();
        exec.execute_into(&mut out).unwrap();
        assert!(
            want.to_dense().approx_eq(&out.to_dense(), TOL),
            "sparse outputs diverged at {threads} threads"
        );
    }
}
