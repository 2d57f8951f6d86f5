//! One fusion rule, one program per plan. `spttn_ir::fused_loop` states
//! which sparse loops the tape runs as one instruction; the tape
//! compiler emits exactly those and the cost model prices exactly
//! those. The kernel tier only picks function pointers:
//!
//! - the default nest of every stdkernel under every cost model
//!   compiles to the same program under `KernelSet::scalar()` and
//!   `KernelSet::auto_detected()`: instruction count, superinstructions,
//!   rank-specialized sites and verifier report (the hand-picked fused
//!   shapes get the same check in the tape's own unit tests);
//! - over every contraction path of every stdkernel, a bounded number
//!   of nests each, the vertices the rule fuses — a fiber only where its
//!   children fit it — are the tape's fused sparse loops and fibers, at
//!   both tiers.

use rand::prelude::*;
use spttn::exec::{CompiledTape, KernelSet, TapeReport};
use spttn::ir::{
    buffers_for_forest, build_forest, enumerate_paths, fused_loop, stdkernels, ContractionPath,
    FusedLoop, IdxSet, Kernel, LoopForest, LoopNode, NestSpecIter, VertexKind,
};
use spttn::tensor::random_coo;
use spttn::{Contraction, CostModel, PlanOptions, Shapes};

const MODELS: [CostModel; 4] = [
    CostModel::MaxBufferDim,
    CostModel::MaxBufferSize,
    CostModel::CacheMiss { d: 1 },
    CostModel::BlasAware {
        buffer_dim_bound: 2,
    },
];

/// The paper's kernels at small extents, with ranks that pin the
/// rank-specialized bodies (8, 16) next to ranks that do not.
fn kernels() -> Vec<Kernel> {
    vec![
        stdkernels::mttkrp(&[12, 10, 11], 8),
        stdkernels::mttkrp(&[6, 5, 6, 4], 16),
        stdkernels::ttmc(&[10, 9, 11], &[8, 5]),
        stdkernels::all_mode_ttmc(&[8, 7, 6], &[3, 8, 5]),
        stdkernels::tttp(&[8, 9], 16),
        stdkernels::tttp(&[8, 9, 10], 8),
        stdkernels::tttc(&[5, 6, 5, 4], 3),
    ]
}

/// What a compiled program's shape decides, and nothing the tier does.
fn program(
    kernel: &Kernel,
    path: &ContractionPath,
    forest: &LoopForest,
    kernels: KernelSet,
) -> (usize, usize, usize, TapeReport) {
    let specs = buffers_for_forest(kernel, path, forest);
    let tape = CompiledTape::compile_with_kernels(kernel, path, forest, &specs, kernels)
        .unwrap_or_else(|e| panic!("{}: {e}", forest.render(kernel, path)));
    let report = tape.verify().expect("compiled tape verifies");
    (
        tape.num_instrs(),
        tape.superinstructions(),
        tape.specialized(),
        report,
    )
}

/// The vertices of `forest` the fusion rule runs as one instruction:
/// `(fused loops, fibers)`.
fn rule_fused(kernel: &Kernel, path: &ContractionPath, forest: &LoopForest) -> (usize, usize) {
    fn walk(k: &Kernel, p: &ContractionPath, nodes: &[LoopNode], above: IdxSet) -> (usize, usize) {
        let mut fused = (0, 0);
        for n in nodes {
            let LoopNode::Loop(v) = n else { continue };
            let iterated = above.insert(v.index);
            if let VertexKind::Sparse { level } = v.kind {
                match fused_loop(k, p, level, v.term_lo..v.term_hi, iterated)
                    .filter(|f| f.fits(level, &v.children))
                {
                    Some(FusedLoop::Fiber { .. }) => fused.1 += 1,
                    Some(_) => fused.0 += 1,
                    None => {}
                }
            }
            let below = walk(k, p, &v.children, iterated);
            fused = (fused.0 + below.0, fused.1 + below.1);
        }
        fused
    }
    walk(kernel, path, &forest.roots, IdxSet::EMPTY)
}

/// What the tape fused: `(fused loops, fibers)`.
fn tape_fused(report: &TapeReport) -> (usize, usize) {
    (report.sparse_axpys + report.sparse_dots, report.fibers)
}

#[test]
fn default_nests_compile_to_one_program_at_every_tier() {
    let mut rng = StdRng::seed_from_u64(31);
    let mut fused = 0;
    for kernel in kernels() {
        let sparse_dims = kernel.ref_dims(kernel.sparse_ref());
        let cells: usize = sparse_dims.iter().product();
        let coo = random_coo(&sparse_dims, cells / 4, &mut rng).unwrap();
        for model in MODELS {
            let plan = Contraction::from_kernel(kernel.clone())
                .plan(
                    &Shapes::new().with_pattern(coo.clone()),
                    &PlanOptions::with_cost_model(model),
                )
                .unwrap();
            let (k, p, f) = (plan.kernel(), plan.path(), plan.forest());
            let what = format!("{} under {model:?}\n{}", k.to_einsum(), plan.describe());
            let scalar = program(k, p, f, KernelSet::scalar());
            assert_eq!(
                scalar,
                program(k, p, f, KernelSet::auto_detected()),
                "{what}"
            );
            let report = &scalar.3;
            assert_eq!(rule_fused(k, p, f), tape_fused(report), "{what}");
            fused += report.sparse_axpys + report.sparse_dots;
        }
    }
    assert!(fused > 0, "no default nest has a fused sparse loop");
}

#[test]
fn rule_and_tape_agree_on_every_path() {
    let (mut nests, mut fused, mut fibers) = (0, 0, 0);
    for kernel in kernels() {
        for path in enumerate_paths(&kernel) {
            for spec in NestSpecIter::new(&kernel, &path).take(24) {
                let Ok(forest) = build_forest(&kernel, &path, &spec) else {
                    continue;
                };
                let rule = rule_fused(&kernel, &path, &forest);
                for tier in [KernelSet::scalar(), KernelSet::auto_detected()] {
                    let report = program(&kernel, &path, &forest, tier).3;
                    assert_eq!(
                        rule,
                        tape_fused(&report),
                        "{} on {}",
                        kernel.to_einsum(),
                        forest.render(&kernel, &path)
                    );
                }
                nests += 1;
                fused += rule.0;
                fibers += rule.1;
            }
        }
    }
    println!("{nests} nests, {fused} fused loops, {fibers} fibers");
    assert!(nests > 500, "the sweep compiled only {nests} nests");
    assert!(fused > 100, "the sweep met only {fused} fused loops");
    assert!(fibers > 10, "the sweep met only {fibers} fibers");
}
