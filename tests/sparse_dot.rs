//! The fused sparse-DOT loop — the tape superinstruction for an
//! innermost sparse loop whose body is `Zero t; Dot → t; Leaf`
//! (`SparseDot`), the per-nonzero dot product of TTTP and SDDMM:
//!
//! - SDDMM, order-3 and order-4 TTTP, a dense output and a loop over
//!   the CSF roots compile it under the SIMD and the scalar kernel set
//!   alike; both tapes run the same dispatches over the same elements
//!   and meet the oracle at ≤ 1e-9;
//! - each matches the oracle through `Plan::bind` at 1, 3 and 4
//!   threads, more threads than root fibers included, and tile by tile
//!   on one workspace, an empty tile after a full one included.
//!
//! Program shape is pinned with `KernelSet::auto_detected()` /
//! `KernelSet::scalar()`, so these assertions also hold when
//! `SPTTN_MICROKERNELS=scalar` forces the executors scalar.

use rand::prelude::*;
use spttn::exec::{
    execute_tape_into, execute_tape_tile_into, naive_einsum, CompiledTape, KernelSet, OutputMut,
    TapeReport, Workspace,
};
use spttn::ir::{path_from_picks, NestSpec};
use spttn::tensor::{random_coo, random_dense, CooTensor, Csf, DenseTensor};
use spttn::{Contraction, ContractionOutput, ExecStats, Plan, PlanOptions, Shapes, Threads};
use std::ops::Range;

const TOL: f64 = 1e-9;

/// A plan of a kernel on a seeded random tensor, with its factors.
struct Case {
    plan: Plan,
    coo: CooTensor,
    csf: Csf,
    factors: Vec<(String, DenseTensor)>,
}

fn case(k: &Kernel, nnz: usize, threads: usize) -> Case {
    let &(expr, dims, order, _, nest) = k;
    let mut rng = StdRng::seed_from_u64(nnz as u64);
    let sparse_dims: Vec<usize> = dims[..order].iter().map(|&(_, d)| d).collect();
    let coo = random_coo(&sparse_dims, nnz, &mut rng).unwrap();
    let csf = Csf::from_coo(&coo, &(0..order).collect::<Vec<_>>()).unwrap();
    let shapes = Shapes::new().with_dims(dims).with_pattern(coo.clone());
    let plan = Contraction::parse(expr)
        .unwrap()
        .plan(
            &shapes,
            &PlanOptions::default().with_threads(Threads::N(threads)),
        )
        .unwrap();
    let plan = match nest {
        Some((picks, orders)) => {
            let path = path_from_picks(plan.kernel(), picks);
            let orders = orders.iter().map(|o| o.to_vec()).collect();
            plan.with_nest(path, NestSpec { orders }).unwrap()
        }
        None => plan,
    };
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

    fn tape(&self, kernels: KernelSet) -> CompiledTape {
        let plan = &self.plan;
        CompiledTape::compile_with_kernels(
            plan.kernel(),
            plan.path(),
            plan.forest(),
            plan.buffers(),
            kernels,
        )
        .unwrap()
    }

    fn workspace(&self) -> Workspace {
        let plan = &self.plan;
        Workspace::from_specs(plan.kernel(), plan.path(), plan.forest(), plan.buffers())
    }

    /// Run `run` on a zeroed output of the plan's kind and densify what
    /// it wrote (sparse values are in the CSF's leaf order).
    fn densified(&self, run: impl FnOnce(OutputMut<'_>)) -> DenseTensor {
        let kernel = self.plan.kernel();
        if kernel.output_sparse {
            let mut vals = vec![0.0; self.csf.nnz()];
            run(OutputMut::Sparse(&mut vals));
            self.csf.to_coo().with_vals(vals).to_dense()
        } else {
            let mut out = DenseTensor::zeros(&kernel.ref_dims(&kernel.output));
            run(OutputMut::Dense(&mut out));
            out
        }
    }

    /// Run the tape of the default plan under `kernels` over the whole
    /// tree: its output, dispatch counts and verifier report.
    fn run(&self, kernels: KernelSet) -> (DenseTensor, ExecStats, TapeReport) {
        let tape = self.tape(kernels);
        let report = tape.verify().expect("compiled tape verifies");
        let (slots, mut ws) = (self.by_slot(), self.workspace());
        let out = self.densified(|out| {
            execute_tape_into(&tape, self.plan.kernel(), &self.csf, &slots, &mut ws, out).unwrap()
        });
        (out, ws.stats(), report)
    }

    /// Run the SIMD tape over the root ranges `tiles` one after another
    /// on one workspace; each tile's output is densified on its own.
    fn run_tiles(&self, tiles: &[Range<usize>]) -> Vec<DenseTensor> {
        let (kernel, tape) = (self.plan.kernel(), self.tape(KernelSet::auto_detected()));
        let (slots, mut ws) = (self.by_slot(), self.workspace());
        tiles
            .iter()
            .map(|roots| {
                let tile = self.csf.tile_of_roots(roots.clone());
                self.densified(|out| {
                    let out = match out {
                        // A tile writes the values of its own leaves.
                        OutputMut::Sparse(vals) => OutputMut::Sparse(&mut vals[tile.leaf_range()]),
                        dense => dense,
                    };
                    execute_tape_tile_into(&tape, kernel, &self.csf, &tile, &slots, &mut ws, out)
                        .unwrap()
                })
            })
            .collect()
    }

    /// Bind the plan and execute it through the tile engine.
    fn execute(&self) -> DenseTensor {
        let refs: Vec<(&str, &DenseTensor)> =
            self.factors.iter().map(|(n, t)| (n.as_str(), t)).collect();
        let mut exec = self.plan.bind(self.csf.clone(), &refs).unwrap();
        match exec.execute().unwrap() {
            ContractionOutput::Dense(d) => d,
            sparse => sparse.to_dense(),
        }
    }
}

fn assert_close(got: &DenseTensor, want: &DenseTensor, what: &str) {
    assert_eq!(got.dims(), want.dims(), "{what}");
    for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
        assert!((g - w).abs() <= TOL, "{what}: {g} vs {w}");
    }
}

/// One kernel whose innermost sparse loop is `Zero t; Dot → t; Leaf`:
/// expression, extents (sparse ones first), sparse order, nonzeros, and
/// the nest (path picks, loop orders) when the default plan's is
/// another.
type Kernel = (
    &'static str,
    &'static [(&'static str, usize)],
    usize,
    usize,
    Option<(&'static [(usize, usize)], &'static [&'static [usize]])>,
);

const KERNELS: [Kernel; 5] = [
    (
        "S(i,j) = T(i,j) * U(i,r) * V(j,r)",
        &[("i", 14), ("j", 11), ("r", 32)],
        2,
        60,
        None,
    ),
    (
        "S(i,j,k) = T(i,j,k) * U(i,r) * V(j,r) * W(k,r)",
        &[("i", 12), ("j", 10), ("k", 9), ("r", 16)],
        3,
        300,
        None,
    ),
    (
        "S(i,j,k,l) = T(i,j,k,l) * U(i,r) * V(j,r) * W(k,r) * X(l,r)",
        &[("i", 6), ("j", 5), ("k", 7), ("l", 8), ("r", 8)],
        4,
        400,
        None,
    ),
    // The planner contracts `T*V` first here (an AXPY per nonzero, a
    // DOT per row); `U*V` first puts a DOT on every nonzero.
    (
        "y(i) = T(i,j) * U(i,r) * V(j,r)",
        &[("i", 14), ("j", 11), ("r", 12)],
        2,
        60,
        Some((&[(1, 2), (0, 1)], &[&[0, 1, 2], &[0, 1]])),
    ),
    // Order-1 sparse operand: the fused loop runs over the CSF roots.
    (
        "S(i) = T(i) * U(i,r) * V(r)",
        &[("i", 40), ("r", 12)],
        1,
        25,
        None,
    ),
];

#[test]
fn default_tttp_and_sddmm_fuse_their_inner_dot_loop() {
    for k in &KERNELS {
        let (expr, nnz) = (k.0, k.3);
        let c = case(k, nnz, 1);
        let what = format!("{expr}\n{}", c.plan.describe());
        let (simd, simd_stats, simd_rep) = c.run(KernelSet::auto_detected());
        let (scalar, scalar_stats, scalar_rep) = c.run(KernelSet::scalar());
        assert_eq!(simd_rep.sparse_dots, 1, "the inner loop fuses: {what}");
        assert_eq!(scalar_rep, simd_rep, "one program at every tier: {what}");
        assert_eq!(simd_stats, scalar_stats, "same dispatches and elements");
        assert!(simd_stats.dot > 0);
        let want = c.oracle();
        assert_close(&simd, &want, &what);
        assert_close(&scalar, &want, &what);
    }
}

#[test]
fn fused_dot_loops_match_the_oracle_at_every_thread_count() {
    for k in &KERNELS {
        let expr = k.0;
        // Fewer root fibers than threads: a handful of nonzeros.
        for nnz in [3, k.3] {
            for threads in [1, 3, 4] {
                let c = case(k, nnz, threads);
                assert_close(
                    &c.execute(),
                    &c.oracle(),
                    &format!("{expr}: {nnz} nnz @ {threads}t"),
                );
            }
        }
    }
}

/// Tile by tile on one workspace: split at a middle root, the two tiles'
/// outputs sum to the oracle, and an empty tile after a full one
/// contributes exactly nothing — the folded buffer is never written, so
/// nothing of the previous tile can survive into it.
#[test]
fn fused_dot_loops_run_tile_by_tile() {
    for k in &KERNELS {
        let (expr, nnz) = (k.0, k.3);
        let c = case(k, nnz, 1);
        let roots = c.csf.root_range();
        let mid = roots.start + roots.len() / 2;
        let outs = c.run_tiles(&[roots.start..mid, mid..roots.end, roots.clone(), 0..0]);
        let mut halves = outs[0].clone();
        for (h, v) in halves.as_mut_slice().iter_mut().zip(outs[1].as_slice()) {
            *h += v;
        }
        let want = c.oracle();
        assert_close(&halves, &want, &format!("{expr}: two tiles"));
        assert_close(&outs[2], &want, &format!("{expr}: whole tree"));
        assert!(
            outs[3].as_slice().iter().all(|&v| v == 0.0),
            "{expr}: an empty tile contributes nothing"
        );
    }
}
