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
//!   of nests each, the vertices the rule fuses are the tape's fused
//!   sparse loops, at both tiers.

use rand::prelude::*;
use spttn::exec::{CompiledTape, KernelSet, TapeReport};
use spttn::ir::{
    buffers_for_forest, build_forest, enumerate_paths, fused_loop, stdkernels, ContractionPath,
    IdxSet, Kernel, LoopForest, LoopNode, NestSpecIter, VertexKind,
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

/// The vertices of `forest` the fusion rule names a fused loop.
fn rule_fused(kernel: &Kernel, path: &ContractionPath, forest: &LoopForest) -> usize {
    fn walk(k: &Kernel, p: &ContractionPath, nodes: &[LoopNode], above: IdxSet) -> usize {
        let mut fused = 0;
        for n in nodes {
            let LoopNode::Loop(v) = n else { continue };
            let iterated = above.insert(v.index);
            if let VertexKind::Sparse { level } = v.kind {
                fused += usize::from(fused_loop(k, p, level, v.term_lo..v.term_hi, iterated));
            }
            fused += walk(k, p, &v.children, iterated);
        }
        fused
    }
    walk(kernel, path, &forest.roots, IdxSet::EMPTY)
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
            assert_eq!(
                rule_fused(k, p, f),
                report.sparse_axpys + report.sparse_dots,
                "{what}"
            );
            fused += report.sparse_axpys + report.sparse_dots;
        }
    }
    assert!(fused > 0, "no default nest has a fused sparse loop");
}

#[test]
fn rule_and_tape_agree_on_every_path() {
    let (mut nests, mut fused) = (0, 0);
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
                        report.sparse_axpys + report.sparse_dots,
                        "{} on {}",
                        kernel.to_einsum(),
                        forest.render(&kernel, &path)
                    );
                }
                nests += 1;
                fused += rule;
            }
        }
    }
    println!("{nests} nests, {fused} fused loops");
    assert!(nests > 500, "the sweep compiled only {nests} nests");
    assert!(fused > 100, "the sweep met only {fused} fused loops");
}
