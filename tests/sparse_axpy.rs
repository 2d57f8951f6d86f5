//! The fused sparse-AXPY loop — the tape superinstruction for an
//! innermost sparse loop whose body is one AXPY (`SparseAxpy`):
//!
//! - the default MTTKRP and TTMc tapes compile it, with the Eq.-5 zero
//!   folded into the first child's call, under the SIMD kernel set and
//!   not at all under the scalar one; both tapes run the same
//!   dispatches over the same elements and meet the oracle at ≤ 1e-9;
//! - a fused loop over the CSF roots (an order-1 sparse operand) never
//!   folds — a tile's root range can be empty — and matches the oracle
//!   at 1, 3 and 4 threads, more threads than root fibers included, and
//!   tile by tile, an empty tile after a full one included.
//!
//! Program shape is pinned with `KernelSet::auto_detected()` /
//! `KernelSet::scalar()`, so these assertions also hold when
//! `SPTTN_MICROKERNELS=scalar` forces the executors scalar.

use rand::prelude::*;
use spttn::exec::{
    execute_tape_into, execute_tape_tile_into, naive_einsum, CompiledTape, KernelSet, OutputMut,
    TapeReport, Workspace,
};
use spttn::ir::{path_from_picks, Kernel, NestSpec};
use spttn::tensor::{random_coo, random_dense, CooTensor, Csf, DenseTensor, SparsityProfile};
use spttn::{Contraction, ContractionOutput, ExecStats, Plan, PlanOptions, Shapes, Threads};

const TOL: f64 = 1e-9;

/// A default plan of `expr` on a seeded random tensor, with its factors.
struct Case {
    plan: Plan,
    coo: CooTensor,
    csf: Csf,
    factors: Vec<(String, DenseTensor)>,
}

fn case(expr: &str, dims: &[(&str, usize)], order: usize, nnz: usize, threads: usize) -> Case {
    let mut rng = StdRng::seed_from_u64(nnz as u64);
    let sparse_dims: Vec<usize> = dims[..order].iter().map(|&(_, d)| d).collect();
    let coo = random_coo(&sparse_dims, nnz, &mut rng).unwrap();
    let csf = Csf::from_coo(&coo, &(0..order).collect::<Vec<_>>()).unwrap();
    let shapes = Shapes::new()
        .with_dims(dims)
        .with_profile(SparsityProfile::from_csf(&csf));
    let plan = Contraction::parse(expr)
        .unwrap()
        .plan(
            &shapes,
            &PlanOptions::default().with_threads(Threads::N(threads)),
        )
        .unwrap();
    assert!(plan.is_natural_order());
    let kernel = plan.kernel();
    let factors = kernel
        .inputs
        .iter()
        .enumerate()
        .filter(|&(slot, _)| slot != kernel.sparse_input)
        .map(|(_, r)| (r.name.clone(), random_dense(&kernel.ref_dims(r), &mut rng)))
        .collect();
    Case {
        plan,
        coo,
        csf,
        factors,
    }
}

impl Case {
    /// Factors in kernel-slot order (an empty placeholder at the
    /// sparse slot), as the tape entry points take them.
    fn by_slot(&self) -> Vec<DenseTensor> {
        let kernel = self.plan.kernel();
        let mut named = self.factors.iter();
        (0..kernel.inputs.len())
            .map(|slot| {
                if slot == kernel.sparse_input {
                    DenseTensor::zeros(&[])
                } else {
                    named.next().unwrap().1.clone()
                }
            })
            .collect()
    }

    fn oracle(&self) -> DenseTensor {
        let kernel = self.plan.kernel();
        let sparse = self.coo.to_dense();
        let mut named = self.factors.iter();
        let all: Vec<&DenseTensor> = (0..kernel.inputs.len())
            .map(|slot| {
                if slot == kernel.sparse_input {
                    &sparse
                } else {
                    &named.next().unwrap().1
                }
            })
            .collect();
        naive_einsum(kernel, &all).unwrap()
    }

    fn tape(&self, plan: &Plan, kernels: KernelSet) -> CompiledTape {
        CompiledTape::compile_with_kernels(
            plan.kernel(),
            plan.path(),
            plan.forest(),
            plan.buffers(),
            kernels,
        )
        .unwrap()
    }

    /// Run the tape of the default plan under `kernels` over the whole
    /// tree: its output, dispatch counts and verifier report.
    fn run(&self, kernels: KernelSet) -> (DenseTensor, ExecStats, TapeReport) {
        let (plan, kernel) = (&self.plan, self.plan.kernel());
        let tape = self.tape(plan, kernels);
        let report = tape.verify().expect("compiled tape verifies");
        let mut ws = Workspace::from_specs(kernel, plan.path(), plan.forest(), plan.buffers());
        let mut out = DenseTensor::zeros(&kernel.ref_dims(&kernel.output));
        let slots = self.by_slot();
        execute_tape_into(
            &tape,
            kernel,
            &self.csf,
            &slots,
            &mut ws,
            OutputMut::Dense(&mut out),
        )
        .unwrap();
        (out, ws.stats(), report)
    }
}

fn assert_close(got: &DenseTensor, want: &DenseTensor, what: &str) {
    assert_eq!(got.dims(), want.dims(), "{what}");
    for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
        assert!((g - w).abs() <= TOL, "{what}: {g} vs {w}");
    }
}

#[test]
fn default_mttkrp_and_ttmc_fold_their_zero_into_a_fused_loop() {
    let mttkrp = [("i", 12), ("j", 10), ("k", 9), ("a", 16)];
    let ttmc = [("i", 12), ("j", 10), ("k", 9), ("r", 8), ("s", 5)];
    for (expr, dims) in [
        ("A(i,a) = T(i,j,k) * B(j,a) * C(k,a)", &mttkrp[..]),
        ("S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)", &ttmc[..]),
    ] {
        let c = case(expr, dims, 3, 300, 1);
        let what = format!("{expr}\n{}", c.plan.describe());
        let (simd, simd_stats, simd_rep) = c.run(KernelSet::auto_detected());
        let (scalar, scalar_stats, scalar_rep) = c.run(KernelSet::scalar());
        assert_eq!(simd_rep.sparse_axpys, 1, "the inner k loop fuses: {what}");
        // `Zero; Sparse; Axpy; EndLoop` became one instruction, and the
        // split point it held is now the fused loop's assigning call.
        assert_eq!(simd_rep.instrs + 3, scalar_rep.instrs, "{what}");
        assert_eq!((simd_rep.zeros, simd_rep.zero_accums), (0, 1), "{what}");
        assert_eq!(
            (
                scalar_rep.sparse_axpys,
                scalar_rep.zeros,
                scalar_rep.zero_accums
            ),
            (0, 1, 0),
            "the scalar tape keeps every instruction: {what}"
        );
        assert_eq!(simd_stats, scalar_stats, "same dispatches and elements");
        assert!(simd_stats.axpy > 0);
        let want = c.oracle();
        assert_close(&simd, &want, &what);
        assert_close(&scalar, &want, &what);
    }
}

#[test]
fn root_level_fused_loop_never_folds_and_matches_the_oracle() {
    let dims = [("i", 40), ("a", 8)];
    // Three root fibers: 4 threads is more threads than roots.
    for nnz in [3, 25] {
        for threads in [1, 3, 4] {
            let c = case("y(a) = T(i) * B(i,a)", &dims, 1, nnz, threads);
            let (_, _, report) = c.run(KernelSet::auto_detected());
            assert_eq!((report.sparse_axpys, report.zero_accums), (1, 0));
            let refs: Vec<(&str, &DenseTensor)> =
                c.factors.iter().map(|(n, t)| (n.as_str(), t)).collect();
            let mut exec = c.plan.bind(c.csf.clone(), &refs).unwrap();
            let ContractionOutput::Dense(got) = exec.execute().unwrap() else {
                panic!("dense output");
            };
            assert_close(&got, &c.oracle(), &format!("{nnz} nnz @ {threads}t"));
        }
    }
}

/// A buffer zeroed in front of a root-level fused loop — `X0(a) =
/// Σ_k T(k)·B(k,a)`, then `A(a,b) = X0(a)·C(a,b)` — keeps its `Zero`:
/// run tile by tile on one workspace, an empty tile after a full one
/// must contribute exactly nothing, which a level-0 fold would break
/// (the assigning call never runs, the previous tile's `X0` survives).
#[test]
fn a_zero_before_a_root_level_fused_loop_is_kept() {
    let dims = [("k", 30), ("a", 5), ("b", 3)];
    let c = case("A(a,b) = T(k) * B(k,a) * C(a,b)", &dims, 1, 12, 1);
    let (k, a, b) = (0, 1, 2);
    let plan = c
        .plan
        .with_nest(
            path_from_picks(c.plan.kernel(), &[(0, 1), (0, 1)]),
            NestSpec {
                orders: vec![vec![k, a], vec![a, b]],
            },
        )
        .unwrap();
    let kernel: &Kernel = plan.kernel();
    let tape = c.tape(&plan, KernelSet::auto_detected());
    let report = tape.verify().unwrap();
    assert_eq!(
        (report.sparse_axpys, report.zeros, report.zero_accums),
        (1, 1, 0),
        "{}",
        plan.describe()
    );

    let slots = c.by_slot();
    let mut ws = Workspace::from_specs(kernel, plan.path(), plan.forest(), plan.buffers());
    let dims = kernel.ref_dims(&kernel.output);
    let mut run = |roots: std::ops::Range<usize>| {
        let mut out = DenseTensor::zeros(&dims);
        let tile = c.csf.tile_of_roots(roots);
        execute_tape_tile_into(
            &tape,
            kernel,
            &c.csf,
            &tile,
            &slots,
            &mut ws,
            OutputMut::Dense(&mut out),
        )
        .unwrap();
        out
    };
    assert_close(&run(c.csf.root_range()), &c.oracle(), "whole tree");
    let empty = run(0..0);
    assert!(
        empty.as_slice().iter().all(|&v| v == 0.0),
        "an empty tile contributes nothing"
    );
}
