//! Determinism contract of the SIMD microkernel layer, end to end
//! through the facade:
//!
//! - the default (`Microkernels::Auto`) tape agrees with the scalar
//!   reference interpreter to ≤1e-9 on rank-specialization-friendly
//!   kernels (rank ∈ {8, 16, 32} hits the fixed-trip microkernels);
//! - a parallel SIMD tape is bitwise run-to-run deterministic at a
//!   fixed thread count, both across repeat executions of one bind and
//!   across independent binds of the same plan;
//! - `Microkernels::Scalar` reproduces the interpreter bitwise — the
//!   opt-out knob really does restore the pre-SIMD operation order;
//! - the policy reaches `spttn-net`'s dense steps: on every golden
//!   network of `tests/network.rs`, `Auto` agrees with `Scalar` to
//!   ≤1e-9 and both are bitwise stable across executes and binds. (That
//!   a `Scalar` dense step is *bitwise the stride walk* is asserted
//!   where that reference lives, in `crates/net/src/exec.rs`'s tests.)
//!
//! Every assertion here also holds when `SPTTN_MICROKERNELS=scalar`
//! forces the whole suite scalar (the CI leg): Auto then resolves to
//! the scalar kernels, and scalar-vs-oracle / determinism claims are
//! only easier.

mod common;
#[path = "common/networks.rs"]
mod networks;

use common::interp_reference;
use rand::prelude::*;
use spttn::ir::{stdkernels, Kernel};
use spttn::tensor::{random_coo, random_dense, Csf, DenseTensor};
use spttn::{
    Contraction, ContractionOutput, CostModel, Microkernels, Plan, PlanOptions, Shapes, Threads,
};
use spttn_net::NetOptions;

const TOL: f64 = 1e-9;

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

fn plan(kernel: &Kernel, csf: &Csf, micro: Microkernels, threads: usize) -> Plan {
    let plan = Contraction::from_kernel(kernel.clone())
        .plan(
            &Shapes::new().with_pattern(csf.to_coo()),
            &PlanOptions::with_cost_model(CostModel::BlasAware {
                buffer_dim_bound: 2,
            })
            .with_threads(Threads::N(threads))
            .with_microkernels(micro),
        )
        .expect("planning succeeds");
    plan.verify_tape().expect("SIMD tape verifies clean");
    plan
}

fn run(
    kernel: &Kernel,
    csf: &Csf,
    factors: &[(String, DenseTensor)],
    micro: Microkernels,
    threads: usize,
) -> ContractionOutput {
    plan(kernel, csf, micro, threads)
        .bind(csf.clone(), &named(factors))
        .expect("bind succeeds")
        .execute()
        .unwrap()
}

/// The serial reference interpreter on the same nest (it always runs
/// the scalar kernels; the plan's microkernel option is inert there).
fn reference(kernel: &Kernel, csf: &Csf, factors: &[(String, DenseTensor)]) -> ContractionOutput {
    interp_reference(
        &plan(kernel, csf, Microkernels::Scalar, 1),
        csf,
        &named(factors),
    )
    .0
}

fn bits(out: &ContractionOutput) -> Vec<u64> {
    out.to_dense()
        .as_slice()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// Kernels whose dense ranks hit the R8/R16/R32 specializations.
fn specialization_kernels() -> Vec<(Kernel, usize, u64)> {
    vec![
        (stdkernels::mttkrp(&[48, 36, 40], 32), 1200, 71),
        (stdkernels::ttmc(&[36, 30, 28], &[16, 8]), 900, 72),
    ]
}

#[test]
fn simd_tape_matches_interp_oracle() {
    for (kernel, nnz, seed) in specialization_kernels() {
        let (csf, factors) = operands(&kernel, nnz, seed);
        let oracle = reference(&kernel, &csf, &factors);
        for threads in [1usize, 4] {
            let simd = run(&kernel, &csf, &factors, Microkernels::Auto, threads);
            assert!(
                oracle.to_dense().approx_eq(&simd.to_dense(), TOL),
                "SIMD tape diverged from interp oracle: {} at {threads} threads",
                kernel.to_einsum()
            );
        }
    }
}

#[test]
fn parallel_simd_tape_is_run_to_run_bitwise_deterministic() {
    for (kernel, nnz, seed) in specialization_kernels() {
        let (csf, factors) = operands(&kernel, nnz, seed);
        let refs: Vec<(&str, &DenseTensor)> =
            factors.iter().map(|(n, t)| (n.as_str(), t)).collect();
        let plan = Contraction::from_kernel(kernel.clone())
            .plan(
                &Shapes::new().with_pattern(csf.to_coo()),
                &PlanOptions::with_cost_model(CostModel::BlasAware {
                    buffer_dim_bound: 2,
                })
                .with_threads(Threads::N(4))
                .with_microkernels(Microkernels::Auto),
            )
            .unwrap();
        // Repeat executions of one bind: identical bits.
        let mut exec = plan.bind(csf.clone(), &refs).unwrap();
        let first = exec.execute().unwrap();
        for _ in 0..2 {
            let again = exec.execute().unwrap();
            assert_eq!(
                bits(&first),
                bits(&again),
                "parallel SIMD tape not bitwise stable across executes: {}",
                kernel.to_einsum()
            );
        }
        // A fresh bind of the same plan: still identical bits (the
        // kernel selection is recorded in the tape at bind time, not
        // re-drawn per run).
        let refreshed = plan.bind(csf.clone(), &refs).unwrap().execute().unwrap();
        assert_eq!(
            bits(&first),
            bits(&refreshed),
            "parallel SIMD tape not bitwise stable across binds: {}",
            kernel.to_einsum()
        );
    }
}

#[test]
fn scalar_forced_tape_reproduces_interp_bitwise() {
    for (kernel, nnz, seed) in specialization_kernels() {
        let (csf, factors) = operands(&kernel, nnz, seed);
        let interp = reference(&kernel, &csf, &factors);
        let scalar_tape = run(&kernel, &csf, &factors, Microkernels::Scalar, 1);
        // The scalar-forced tape runs the same generic loops in the
        // same order as the interpreter — bit-for-bit, not just ≤1e-9.
        assert_eq!(
            bits(&interp),
            bits(&scalar_tape),
            "Microkernels::Scalar must restore the pre-SIMD operation order: {}",
            kernel.to_einsum()
        );
    }
}

#[test]
fn network_dense_steps_honour_the_microkernel_policy() {
    for g in networks::goldens() {
        let fx = networks::Fixture::golden(g);
        for budget in [0, NetOptions::default().budget] {
            for threads in [1usize, 4] {
                // Two binds of one plan, two executes of the first.
                let run = |micro: Microkernels| -> [Vec<u64>; 3] {
                    let popts = PlanOptions::default()
                        .with_threads(Threads::N(threads))
                        .with_microkernels(micro);
                    let nopts = NetOptions::default()
                        .with_budget(budget)
                        .with_plan_options(popts);
                    let nplan = fx.net.plan(&fx.shapes, &nopts).unwrap();
                    let mut exec = nplan.bind(fx.csf.clone(), &fx.named()).unwrap();
                    let mut again = nplan.bind(fx.csf.clone(), &fx.named()).unwrap();
                    [
                        bits(&exec.execute().unwrap()),
                        bits(&exec.execute().unwrap()),
                        bits(&again.execute().unwrap()),
                    ]
                };
                let what = format!("{} (budget {budget}, {threads} thread(s))", g.expr);
                let scalar = run(Microkernels::Scalar);
                let auto = run(Microkernels::Auto);
                for tier in [&scalar, &auto] {
                    assert_eq!(
                        tier[0], tier[1],
                        "{what}: not bitwise stable across executes"
                    );
                    assert_eq!(tier[0], tier[2], "{what}: not bitwise stable across binds");
                }
                for (s, a) in scalar[0].iter().zip(&auto[0]) {
                    let (s, a) = (f64::from_bits(*s), f64::from_bits(*a));
                    assert!((s - a).abs() <= TOL, "{what}: Auto {a} vs Scalar {s}");
                }
            }
        }
    }
}
