//! What the planner chooses, and whether it tells the truth about it.
//!
//! Three invariants of the executed-work term in the Sec.-5 pipeline:
//!
//! - **executed == modeled.** For an exact-pattern `Shapes`,
//!   `Plan::flops` equals the trip count of the plan's loop forest over
//!   the real CSF, counted here by a walker that shares no code with
//!   the cost model — for every `stdkernels` entry under every cost
//!   model, and for an explicit nest that iterates CSF indices densely.
//! - **counted == modeled.** Where every leaf of the default plan runs
//!   as a microkernel, the flops `ExecStats` counts during a real
//!   execution are `Plan::flops` to the flop, at 1 tile and at 4.
//! - **plan shapes.** On the five shapes of `BENCHMARK.json` (at the
//!   benchmark's smoke size), under an exact pattern and under the
//!   uniform model alike, the default plan never hoists a dense index
//!   above the sparse root, never iterates a CSF index densely, and on
//!   the hypersparse shapes is exactly the nest it has always been.

use rand::prelude::*;
use spttn::ir::{
    path_from_picks, stdkernels, Kernel, LoopForest, LoopNode, LoopVertex, NestSpec, VertexKind,
};
use spttn::tensor::{random_coo, random_dense, CooTensor, Csf, DenseTensor};
use spttn::{Contraction, CostModel, Plan, PlanOptions, Shapes, Threads};
use spttn_net::{NetOptions, Network};

const MODELS: [CostModel; 4] = [
    CostModel::BlasAware {
        buffer_dim_bound: 2,
    },
    CostModel::CacheMiss { d: 1 },
    CostModel::MaxBufferSize,
    CostModel::MaxBufferDim,
];

fn coo(dims: &[usize], nnz: usize, seed: u64) -> CooTensor {
    random_coo(dims, nnz, &mut StdRng::seed_from_u64(seed)).unwrap()
}

fn natural_csf(coo: &CooTensor) -> Csf {
    let order: Vec<usize> = (0..coo.order()).collect();
    Csf::from_coo(coo, &order).unwrap()
}

/// Flops one execution of `forest` performs on `csf`: two per leaf
/// evaluation, dense loops running their full dimension and sparse
/// loops the children of the current node.
fn count_flops(forest: &LoopForest, kernel: &Kernel, csf: &Csf) -> u128 {
    fn go(nodes: &[LoopNode], kernel: &Kernel, csf: &Csf, at: &mut Vec<usize>) -> u128 {
        let mut total = 0u128;
        for n in nodes {
            total += match n {
                LoopNode::Leaf(_) => 2,
                LoopNode::Loop(v) => match v.kind {
                    VertexKind::Dense => {
                        kernel.dim(v.index) as u128 * go(&v.children, kernel, csf, at)
                    }
                    VertexKind::Sparse { level } => {
                        let range = match level {
                            0 => csf.root_range(),
                            l => csf.children(l - 1, at[l - 1]),
                        };
                        let mut sum = 0u128;
                        for node in range {
                            at[level] = node;
                            sum += go(&v.children, kernel, csf, at);
                        }
                        sum
                    }
                },
            };
        }
        total
    }
    go(&forest.roots, kernel, csf, &mut vec![0; csf.order()])
}

#[test]
fn executed_flops_equal_modeled_flops_on_exact_patterns() {
    let cases: Vec<(Kernel, Vec<usize>, usize)> = vec![
        (stdkernels::mttkrp(&[9, 8, 7], 4), vec![9, 8, 7], 90),
        (stdkernels::ttmc(&[9, 8, 7], &[3, 4]), vec![9, 8, 7], 90),
        (
            stdkernels::all_mode_ttmc(&[9, 8, 7], &[2, 3, 4]),
            vec![9, 8, 7],
            90,
        ),
        (stdkernels::tttp(&[9, 8, 7], 4), vec![9, 8, 7], 90),
        (stdkernels::tttc(&[6, 5, 4], 3), vec![6, 5, 4], 40),
        (stdkernels::mttkrp(&[6, 5, 4, 5], 3), vec![6, 5, 4, 5], 120),
    ];
    for (kernel, dims, nnz) in cases {
        let pattern = coo(&dims, nnz, 5);
        let csf = natural_csf(&pattern);
        for model in MODELS {
            let plan = Contraction::from_kernel(kernel.clone())
                .plan(
                    &Shapes::new().with_pattern(pattern.clone()),
                    &PlanOptions::with_cost_model(model),
                )
                .unwrap();
            let what = format!("{} under {model:?}", kernel.to_einsum());
            assert_eq!(
                plan.flops,
                count_flops(plan.forest(), plan.kernel(), &csf),
                "{what}"
            );
            assert!(plan.flops >= plan.ideal_flops(), "{what}");
        }
    }
}

/// The nest PR 12's default ran on TTTP: `k` and `j` over their full
/// dimensions under every `i`. Its path's ideal count says nothing
/// about it; `Plan::flops` counts it to the flop.
#[test]
fn executed_flops_count_densely_iterated_csf_indices() {
    let kernel = stdkernels::tttp(&[12, 10, 8], 4);
    let pattern = coo(&[12, 10, 8], 150, 6);
    let csf = natural_csf(&pattern);
    let plan = Contraction::from_kernel(kernel)
        .plan(
            &Shapes::new().with_pattern(pattern),
            &PlanOptions::default(),
        )
        .unwrap();
    let k = plan.kernel().clone();
    let id = |name: &str| k.indices.iter().position(|i| i.name == name).unwrap();
    let (i, j, kk, r) = (id("i"), id("j"), id("k"), id("r"));
    let old = plan
        .with_nest(
            path_from_picks(&k, &[(1, 2), (1, 2), (0, 1)]),
            NestSpec {
                orders: vec![vec![i, j, r], vec![i, kk, j, r], vec![i, j, kk]],
            },
        )
        .unwrap();
    assert_eq!(old.flops, count_flops(old.forest(), &k, &csf));
    assert!(
        old.flops > 3 * old.ideal_flops(),
        "{} executed vs {} ideal",
        old.flops,
        old.ideal_flops()
    );
    assert!(old.work().ns() > 3.0 * plan.work().ns());
    assert!(old.describe().contains("work:"), "{}", old.describe());
}

/// What `ExecStats` counts while the default plan runs is what the plan
/// said it would execute: every `tgt += l·r` lane is two flops whichever
/// microkernel carries it (XMUL used to be booked at three), and tiles
/// partition the dispatches of a nest that sits wholly under the sparse
/// root. TTTP's last term `S += T·X1` is a scalar `Instr::Leaf` per
/// nonzero, which `ExecStats` does not see yet (ROADMAP item 4): exactly
/// `2·nnz` flops short.
#[test]
fn counted_flops_equal_modeled_flops_where_leaves_are_microkernels() {
    let cases: [(Kernel, [usize; 3], usize, u128); 3] = [
        (stdkernels::mttkrp(&[60, 50, 40], 8), [60, 50, 40], 3_000, 0),
        (
            stdkernels::ttmc(&[60, 50, 40], &[4, 4]),
            [60, 50, 40],
            3_000,
            0,
        ),
        (stdkernels::tttp(&[40, 30, 20], 8), [40, 30, 20], 1_500, 2),
    ];
    let mut rng = StdRng::seed_from_u64(9);
    for (kernel, dims, nnz, uncounted_per_nnz) in cases {
        let pattern = coo(&dims, nnz, 1);
        let csf = natural_csf(&pattern);
        let factors: Vec<(String, DenseTensor)> = kernel.inputs[1..]
            .iter()
            .map(|r| (r.name.clone(), random_dense(&kernel.ref_dims(r), &mut rng)))
            .collect();
        let refs: Vec<(&str, &DenseTensor)> =
            factors.iter().map(|(n, t)| (n.as_str(), t)).collect();
        for threads in [1usize, 4] {
            let plan = Contraction::from_kernel(kernel.clone())
                .plan(
                    &Shapes::new().with_pattern(pattern.clone()),
                    &PlanOptions::default().with_threads(Threads::N(threads)),
                )
                .unwrap();
            let mut exec = plan.bind(csf.clone(), &refs).unwrap();
            assert_eq!(exec.threads(), threads);
            exec.execute().unwrap();
            assert_eq!(
                u128::from(exec.last_stats().flops()) + uncounted_per_nnz * csf.nnz() as u128,
                plan.flops,
                "{} at {threads} thread(s):\n{}",
                kernel.to_einsum(),
                plan.describe()
            );
        }
    }
}

/// The two ways a `Shapes` can describe the smoke tensors.
fn sources(dims: &[(&str, usize)], pattern: &CooTensor) -> [Shapes; 2] {
    let base = Shapes::new().with_dims(dims);
    [
        base.clone().with_pattern(pattern.clone()),
        base.with_nnz(pattern.nnz() as u64),
    ]
}

fn for_each_vertex(forest: &LoopForest, f: &mut impl FnMut(&LoopVertex, usize)) {
    fn go(nodes: &[LoopNode], depth: usize, f: &mut impl FnMut(&LoopVertex, usize)) {
        for n in nodes {
            if let LoopNode::Loop(v) = n {
                f(v, depth);
                go(&v.children, depth + 1, f);
            }
        }
    }
    go(&forest.roots, 0, f);
}

fn default_plan(expr: &str, shapes: &Shapes) -> Plan {
    Contraction::parse(expr)
        .unwrap()
        .plan(shapes, &PlanOptions::default())
        .unwrap()
}

const MTTKRP: &str = "A(i,a) = T(i,j,k) * B(j,a) * C(k,a)";

#[test]
fn mttkrp_cube_walks_the_csf_once() {
    let pattern = coo(&[32, 12, 12], 900, 1);
    for shapes in sources(&[("i", 32), ("j", 12), ("k", 12), ("a", 8)], &pattern) {
        let plan = default_plan(MTTKRP, &shapes);
        for_each_vertex(plan.forest(), &mut |v, depth| {
            if v.kind == (VertexKind::Sparse { level: 0 }) {
                assert_eq!(depth, 0, "dense loop above the root:\n{}", plan.describe());
            }
        });
        assert_eq!(plan.work().walks, 1.0);
        // `T` is contracted first and `a` runs innermost, as AXPY rows.
        assert_eq!(plan.path().sparse_term, 0, "{}", plan.describe());
        let a = plan.kernel().num_indices() - 1;
        assert!(plan.spec().orders.iter().all(|o| o.last() == Some(&a)));
        assert!(plan.buffers().iter().all(|b| b.size() <= 12 * 8));
    }
}

#[test]
fn tttp_never_iterates_a_csf_index_densely() {
    let pattern = coo(&[40, 30, 20], 1_500, 1);
    let expr = "S(i,j,k) = T(i,j,k) * U(i,r) * V(j,r) * W(k,r)";
    for shapes in sources(&[("i", 40), ("j", 30), ("k", 20), ("r", 8)], &pattern) {
        let plan = default_plan(expr, &shapes);
        for_each_vertex(plan.forest(), &mut |v, _| {
            let forfeited =
                v.kind == VertexKind::Dense && plan.kernel().sparse_level(v.index).is_some();
            assert!(
                !forfeited,
                "CSF index iterated densely:\n{}",
                plan.describe()
            );
        });
        assert!(plan.buffers().iter().all(|b| b.size() <= 8));
        assert_eq!(plan.flops, plan.ideal_flops());
    }
}

#[test]
fn hypersparse_plans_are_the_nests_they_always_were() {
    let pattern = coo(&[60, 50, 40], 3_000, 1);
    for shapes in sources(&[("i", 60), ("j", 50), ("k", 40), ("a", 8)], &pattern) {
        let plan = default_plan(MTTKRP, &shapes);
        let text = plan.describe();
        assert!(
            text.contains(
                "path:   T(i,j,k)*C(k,a) -> X0(i,j,a) ; B(j,a)*X0(i,j,a) -> A(i,a)\n\
                 orders: (i,j,k,a),(i,j,a)\n"
            ),
            "{text}"
        );
        assert!(
            text.ends_with(
                "buffer: X0 [a] = 8 elems\n\
                 nest:\n\
                 for (i, node) in csf_level_0:\n\
                 \x20 for (j, node) in csf_level_1:\n\
                 \x20   for (k, node) in csf_level_2:\n\
                 \x20     for a in 0..8:\n\
                 \x20       X0 += T * C\n\
                 \x20   for a in 0..8:\n\
                 \x20     A += B * X0\n"
            ),
            "{text}"
        );
        assert_eq!(plan.tier, 0);
    }
    let dims = [("i", 60), ("j", 50), ("k", 40), ("r", 4), ("s", 4)];
    for shapes in sources(&dims, &pattern) {
        let plan = default_plan("S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)", &shapes);
        let text = plan.describe();
        assert!(
            text.contains(
                "path:   T(i,j,k)*V(k,s) -> X0(i,j,s) ; U(j,r)*X0(i,j,s) -> S(i,r,s)\n\
                 orders: (i,j,k,s),(i,j,r,s)\n"
            ),
            "{text}"
        );
        assert!(
            text.ends_with(
                "buffer: X0 [s] = 4 elems\n\
                 nest:\n\
                 for (i, node) in csf_level_0:\n\
                 \x20 for (j, node) in csf_level_1:\n\
                 \x20   for (k, node) in csf_level_2:\n\
                 \x20     for s in 0..4:\n\
                 \x20       X0 += T * V\n\
                 \x20   for r in 0..4:\n\
                 \x20     for s in 0..4:\n\
                 \x20       S += U * X0\n"
            ),
            "{text}"
        );
        assert_eq!(plan.tier, 0);
    }
}

#[test]
fn net_factored_collapses_onto_the_hypersparse_mttkrp_nest() {
    let pattern = coo(&[60, 50, 40], 3_000, 1);
    let dims = [("i", 60), ("j", 50), ("k", 40), ("m", 16), ("r", 8)];
    for shapes in sources(&dims, &pattern) {
        let nplan = Network::parse("T[i,j,k]*A[j,m]*D[m,r]*B[k,r] -> O[i,r]")
            .unwrap()
            .plan(&shapes, &NetOptions::default())
            .unwrap();
        let text = nplan.kernel_plan().describe();
        assert!(text.contains("orders: (i,j,k,r),(i,j,r)\n"), "{text}");
        assert!(
            text.contains("path:   T(i,j,k)*B(k,r) -> X0(i,j,r) ; "),
            "{text}"
        );
        assert_eq!(nplan.kernel_plan().work().walks, 1.0);
    }
}

/// No planned call on the gate's four kernel tapes takes a kernel's
/// scalar body, and each runs its `(i,j)` fiber as one instruction. The
/// factored network planned as one kernel does take one: its
/// `X0 += A·D` GEMV runs down `D`'s columns at stride `r` (ROADMAP
/// item 20).
#[test]
fn gate_tapes_take_no_scalar_fallback() {
    let pattern = coo(&[60, 50, 40], 3_000, 1);
    let sparse = [("i", 60), ("j", 50), ("k", 40)];
    let with = |dense: &[(&'static str, usize)]| {
        let dims: Vec<_> = sparse.iter().chain(dense).copied().collect();
        Shapes::new().with_dims(&dims).with_pattern(pattern.clone())
    };
    let kernels = [
        (MTTKRP, with(&[("a", 32)])),
        (
            "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
            with(&[("r", 16), ("s", 16)]),
        ),
        (
            "S(i,j,k) = T(i,j,k) * U(i,r) * V(j,r) * W(k,r)",
            with(&[("r", 32)]),
        ),
    ];
    let factored = with(&[("m", 256), ("r", 32)]);
    let network = Network::parse("T[i,j,k]*A[j,m]*D[m,r]*B[k,r] -> O[i,r]")
        .unwrap()
        .plan(&factored, &NetOptions::default())
        .unwrap();
    let mut reports: Vec<_> = (kernels.iter())
        .map(|(expr, shapes)| default_plan(expr, shapes).verify_tape().unwrap())
        .collect();
    reports.push(network.kernel_plan().verify_tape().unwrap());
    for r in &reports {
        assert_eq!((r.scalar_fallbacks, r.fibers), (0, 1), "{r}");
    }
    let single = default_plan("O(i,r) = T(i,j,k) * A(j,m) * D(m,r) * B(k,r)", &factored);
    let report = single.verify_tape().unwrap();
    assert_eq!(
        report.scalar_fallbacks,
        1,
        "{}\n{report}",
        single.describe()
    );
}
