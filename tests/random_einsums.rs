//! Generated-input differential suite at the kernel level: a fixed-seed
//! generator of well-formed single-sparse-operand einsums — sparse
//! order 2–4, one to five dense factors each over zero to two sparse and
//! one or two dense indices in shuffled order, the output a random
//! index subset or exactly the sparse index set (pattern-sharing, in the
//! sparse input's written order or any other) —
//! each planned on the exact pattern of a small random tensor under all
//! four cost models, statically verified, executed at 1 and 3 threads
//! (and at `SPTTN_TEST_THREADS` when CI sets it) and held to the naive
//! dense oracle at ≤ 1e-9. Each plan also runs on the scalar kernel
//! tier, whose output must equal the reference interpreter's bit for
//! bit, and each plan's buffers must be Eq. 5 restated from the loop
//! orders alone, and each case whose search is cheap in a debug build is
//! planned once more under `ModeOrderPolicy::Auto`, the search the cost
//! model steers, and executed from a written-order tensor.
//!
//! This is the test that catches a wrong CSF-continuity rule
//! (`spttn_ir::vertex_kind`): a nest that iterates a CSF index sparsely
//! where the tape cannot reach its parent node, or densely over a term
//! that is not zero off the pattern, computes a different tensor. The
//! suite asserts its own coverage, so a generator drift that stops
//! producing the interesting shapes fails loudly.
//!
//! Every plan the suite makes is also folded into a digest of what the
//! planner decided — one per cost model, and one for the `Auto`
//! searches — pinned in [`PLAN_DIGESTS`], so a change that moves any
//! plan fails here. The cases use patterns only (no modeled nnz), so no
//! libm call enters a profile and the digests do not depend on the
//! host. `parity_probe` (ignored by default) replays the same cases
//! and prints one digest per (cost model, kernel tier) of what the
//! bound programs computed: run it at two commits and diff the lines.

mod common;

use common::interp_reference;
use rand::prelude::*;
use spttn::cost::{
    exhaustive_search, optimal_order, BlasAware, CacheMiss, MaxBufferDim, MaxBufferSize, TreeCost,
    Work,
};
use spttn::ir::{
    build_forest, enumerate_paths, fused_loop, parse_kernel, ContractionPath, FusedLoop, IdxSet,
    IndexId, Kernel, LoopNode, NestSpecIter, VertexKind,
};
use spttn::tensor::{
    random_coo, random_dense, CooTensor, Csf, DenseTensor, SparsityProfile, SubsetCounts,
};
use spttn::{
    Contraction, ContractionOutput, CostModel, Microkernels, ModeOrderPolicy, Plan, PlanOptions,
    Shapes, SpttnError, Threads,
};
use spttn_exec::naive_einsum;

const TOL: f64 = 1e-9;
const SEED: u64 = 0x5eed_e1f5;
/// Generated einsums (the suite's floor is 120).
const CASES: usize = 128;
const SPARSE_NAMES: [&str; 4] = ["i", "j", "k", "l"];
const DENSE_NAMES: [&str; 3] = ["a", "b", "c"];
const MODELS: [CostModel; 4] = [
    CostModel::BlasAware {
        buffer_dim_bound: 2,
    },
    CostModel::CacheMiss { d: 1 },
    CostModel::MaxBufferSize,
    CostModel::MaxBufferDim,
];

/// FNV-1a digests of [`plan_line`] over every case: one per entry of
/// [`MODELS`] under the natural CSF order (a refusal folds its
/// message), then one for the `Auto` searches.
const PLAN_DIGESTS: [u64; MODELS.len() + 1] = [
    0x65cb_7677_3322_e7d5,
    0x1364_44bf_e4b6_98e4,
    0x3c49_cba2_16c3_0ac8,
    0xecee_844b_4b42_bd30,
    0xdaa8_2b78_4a67_0102,
];

/// One generated einsum with the extents of its indices.
struct Case {
    expr: String,
    dims: Vec<(&'static str, usize)>,
    sparse_dims: Vec<usize>,
    /// Written index lists of the dense factors `F0…`.
    factors: Vec<Vec<&'static str>>,
}

/// `k` distinct elements of `pool`, in random order.
fn pick<T: Copy>(pool: &[T], k: usize, rng: &mut StdRng) -> Vec<T> {
    let mut v = pool.to_vec();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
    v.truncate(k);
    v
}

fn generate(case_no: usize, rng: &mut StdRng) -> Case {
    let order = rng.gen_range(2..5usize);
    let sparse = &SPARSE_NAMES[..order];
    // Mostly one to three factors: with four and five the planner
    // searches hundreds of contraction paths (seconds per plan in a
    // debug build), so four is rare and five comes on a fixed schedule.
    let n_factors = match rng.gen_range(0..32usize) {
        _ if case_no % 64 == 63 => 5,
        0..=7 => 1,
        8..=18 => 2,
        19..=29 => 3,
        _ => 4,
    };
    let factors: Vec<Vec<&'static str>> = (0..n_factors)
        .map(|_| {
            let mut inds = pick(sparse, rng.gen_range(0..3usize), rng);
            inds.extend(pick(&DENSE_NAMES, rng.gen_range(1..3usize), rng));
            let n = inds.len();
            pick(&inds, n, rng)
        })
        .collect();
    let mut used: Vec<&'static str> = sparse.to_vec();
    for name in factors.iter().flatten() {
        if !used.contains(name) {
            used.push(name);
        }
    }
    // One output in four is written as the sparse input is; a random
    // subset that happens to be a permutation of the sparse indices
    // shares the pattern too, in its own written order.
    let output = if rng.gen_range(0..4usize) == 0 {
        sparse.to_vec()
    } else {
        let k = rng.gen_range(1..used.len() + 1);
        pick(&used, k, rng)
    };
    let refs: Vec<String> = std::iter::once(format!("T({})", sparse.join(",")))
        .chain(
            factors
                .iter()
                .enumerate()
                .map(|(f, inds)| format!("F{f}({})", inds.join(","))),
        )
        .collect();
    let dims: Vec<(&'static str, usize)> = used
        .iter()
        .map(|&name| (name, rng.gen_range(2..5usize)))
        .collect();
    let sparse_dims = dims[..order].iter().map(|&(_, d)| d).collect();
    Case {
        expr: format!("O({}) = {}", output.join(","), refs.join(" * ")),
        dims,
        sparse_dims,
        factors,
    }
}

/// Draw a case's sparse input (a third of its cells) and its dense
/// factors.
fn draw(case: &Case, rng: &mut StdRng) -> (CooTensor, Vec<DenseTensor>) {
    let cells: usize = case.sparse_dims.iter().product();
    let coo = random_coo(&case.sparse_dims, (cells / 3).max(2), rng).unwrap();
    let factors = case
        .factors
        .iter()
        .map(|inds| {
            let dims: Vec<usize> = inds
                .iter()
                .map(|i| case.dims.iter().find(|(n, _)| n == i).unwrap().1)
                .collect();
            random_dense(&dims, rng)
        })
        .collect();
    (coo, factors)
}

/// Thread counts every case executes at.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1, 3];
    if let Ok(v) = std::env::var("SPTTN_TEST_THREADS") {
        let n = v.parse().expect("SPTTN_TEST_THREADS must be an integer");
        if !counts.contains(&n) {
            counts.push(n);
        }
    }
    counts
}

/// Whether the plan's nest iterates some CSF index densely.
fn has_dense_csf_loop(plan: &Plan) -> bool {
    fn go(nodes: &[LoopNode], kernel: &Kernel) -> bool {
        nodes.iter().any(|n| match n {
            LoopNode::Leaf(_) => false,
            LoopNode::Loop(v) => {
                (v.kind == VertexKind::Dense && kernel.sparse_level(v.index).is_some())
                    || go(&v.children, kernel)
            }
        })
    }
    go(&plan.forest().roots, plan.kernel())
}

/// The output's values, bit for bit.
fn bits(out: &ContractionOutput) -> Vec<u64> {
    let vals = match out {
        ContractionOutput::Dense(d) => d.as_slice(),
        ContractionOutput::Sparse(c) => c.vals(),
    };
    vals.iter().map(|v| v.to_bits()).collect()
}

/// Everything the planner decided for a case, as text: the plan's
/// description, the order search's record, and the reported flops,
/// tier, cost and work.
fn plan_line(case_no: usize, plan: &Plan) -> String {
    let searched: Vec<String> = (plan.order_costs().iter())
        .map(|oc| format!("{:?} {:?} {}", oc.order, oc.work, oc.cost))
        .collect();
    format!(
        "{case_no} {}{searched:?} {} {} {} {:?}",
        plan.describe(),
        plan.flops,
        plan.tier,
        plan.cost,
        plan.work()
    )
}

/// Eq. 5 from its definition, on the loop orders alone: every term
/// with a consumer keeps its output indices outside the longest
/// loop-order prefix that every term from it to its consumer shares —
/// the loops peeling fuses them under — in its own loop order.
fn eq5_buffers(plan: &Plan) -> Vec<(usize, Vec<IndexId>)> {
    let orders = &plan.spec().orders;
    (plan.path().terms.iter().enumerate())
        .filter_map(|(t, term)| {
            let c = term.consumer?;
            let shared = (0..orders[t].len())
                .take_while(|&d| (t..=c).all(|u| orders[u].get(d) == Some(&orders[t][d])))
                .count();
            let below = orders[t][shared..].iter().copied();
            Some((t, below.filter(|&i| term.out_inds.contains(i)).collect()))
        })
        .collect()
}

fn oracle(kernel: &Kernel, coo: &CooTensor, factors: &[DenseTensor]) -> DenseTensor {
    let sparse = coo.to_dense();
    let inputs: Vec<&DenseTensor> = std::iter::once(&sparse).chain(factors).collect();
    naive_einsum(kernel, &inputs).unwrap()
}

#[test]
fn random_einsums_match_the_oracle_under_every_cost_model() {
    let mut rng = StdRng::seed_from_u64(SEED);
    let threads = thread_counts();
    let (mut planned, mut refused) = (0usize, 0usize);
    let (mut pattern_out, mut five_factors, mut off_spine, mut dense_csf) = (0, 0, 0, 0);
    let (mut permuted_pattern_out, mut searched, mut reordered) = (0, 0, 0);
    let mut digests = [FNV_OFFSET; MODELS.len() + 1];
    for case_no in 0..CASES {
        let case = generate(case_no, &mut rng);
        let (coo, factors) = draw(&case, &mut rng);
        let names: Vec<String> = (0..factors.len()).map(|f| format!("F{f}")).collect();
        let named: Vec<(&str, &DenseTensor)> =
            names.iter().map(String::as_str).zip(&factors).collect();
        let natural: Vec<usize> = (0..coo.order()).collect();
        let csf = Csf::from_coo(&coo, &natural).unwrap();
        let shapes = Shapes::new()
            .with_dims(&case.dims)
            .with_pattern(coo.clone());
        let what = format!("case {case_no}: {}", case.expr);

        five_factors += usize::from(case.factors.len() == 5);
        off_spine += usize::from(
            case.factors
                .iter()
                .any(|f| f.iter().all(|i| DENSE_NAMES.contains(i))),
        );
        let mut want: Option<DenseTensor> = None;
        for (m, model) in MODELS.into_iter().enumerate() {
            let opts = PlanOptions::with_cost_model(model);
            let plan = match Contraction::parse(&case.expr)
                .unwrap_or_else(|e| panic!("{what}: generated einsum does not parse: {e}"))
                .plan(&shapes, &opts)
            {
                Ok(plan) => plan,
                // No feasible nest under this model's bound: a typed,
                // single-line refusal, counted below.
                Err(SpttnError::Planning(msg)) => {
                    assert!(!msg.contains('\n'), "{what}: {msg}");
                    digests[m] = fnv(digests[m], format!("{case_no} {msg}").as_bytes());
                    refused += 1;
                    continue;
                }
                Err(e) => panic!("{what} under {model:?}: untyped planning failure {e:?}"),
            };
            digests[m] = fnv(digests[m], plan_line(case_no, &plan).as_bytes());
            planned += 1;
            let sized: Vec<_> = (plan.buffers().iter())
                .map(|b| (b.producer, b.inds.clone()))
                .collect();
            assert_eq!(sized, eq5_buffers(&plan), "{what} under {model:?}: Eq. 5");
            plan.verify_tape()
                .unwrap_or_else(|e| panic!("{what} under {model:?}: {e}\n{}", plan.describe()));
            let k = plan.kernel();
            pattern_out += usize::from(k.output_sparse);
            permuted_pattern_out +=
                usize::from(k.output_sparse && k.output.indices != k.sparse_ref().indices);
            dense_csf += usize::from(has_dense_csf_loop(&plan));
            let want = want.get_or_insert_with(|| oracle(plan.kernel(), &coo, &factors));
            for &t in &threads {
                let mut exec_opts = plan.exec().clone();
                exec_opts.threads = Threads::N(t);
                let got = plan
                    .clone()
                    .with_exec(exec_opts)
                    .bind(csf.clone(), &named)
                    .and_then(|mut exec| exec.execute())
                    .unwrap_or_else(|e| panic!("{what} under {model:?} at {t} threads: {e}"));
                assert!(
                    got.to_dense().approx_eq(want, TOL),
                    "{what} under {model:?} at {t} threads diverged from the oracle\n{}",
                    plan.describe()
                );
            }
            // The scalar tier runs the fused program in the unfused
            // interpreter's operation order.
            let mut exec_opts = plan.exec().clone();
            (exec_opts.threads, exec_opts.microkernels) = (Threads::N(1), Microkernels::Scalar);
            let scalar = plan
                .clone()
                .with_exec(exec_opts)
                .bind(csf.clone(), &named)
                .and_then(|mut exec| exec.execute())
                .unwrap_or_else(|e| panic!("{what} under {model:?} on the scalar tier: {e}"));
            assert!(
                scalar.to_dense().approx_eq(want, TOL),
                "{what} under {model:?}"
            );
            assert_eq!(
                bits(&scalar),
                bits(&interp_reference(&plan, &csf, &named).0),
                "{what} under {model:?}: the scalar tier is not the interpreter bitwise\n{}",
                plan.describe()
            );
        }
        // An order-4 search plans 24 orders; with three or more factors
        // each has hundreds of paths, seconds per case in a debug build.
        if case.sparse_dims.len() == 4 && case.factors.len() >= 3 {
            continue;
        }
        searched += 1;
        let auto = Contraction::parse(&case.expr)
            .unwrap()
            .plan(
                &shapes,
                &PlanOptions::default().with_mode_order(ModeOrderPolicy::Auto),
            )
            .unwrap_or_else(|e| panic!("{what} under Auto: {e}"));
        digests[MODELS.len()] = fnv(digests[MODELS.len()], plan_line(case_no, &auto).as_bytes());
        reordered += usize::from(!auto.is_natural_order());
        let got = auto
            .bind(csf.clone(), &named)
            .and_then(|mut exec| exec.execute())
            .unwrap_or_else(|e| panic!("{what} under Auto: {e}"));
        let want = want.get_or_insert_with(|| oracle(&auto.natural_kernel(), &coo, &factors));
        assert!(
            got.to_dense().approx_eq(want, TOL),
            "{what} under Auto diverged from the oracle\n{}",
            auto.describe()
        );
    }
    println!("{reordered} of {searched} searched cases: Auto picked a non-natural CSF order");
    assert!(reordered > 0, "Auto never left the natural order");
    assert!(
        refused * 10 < planned + refused,
        "{refused} of {} plans refused",
        planned + refused
    );
    // The generator still produces what the suite exists to check.
    assert!(pattern_out > 0, "no pattern-sharing output");
    assert!(
        permuted_pattern_out > 0,
        "no pattern-sharing output written in another order than the sparse input"
    );
    assert!(five_factors > 0, "no five-factor kernel");
    assert!(off_spine > 0, "no factor without a sparse index");
    assert!(dense_csf > 0, "no plan iterates a CSF index densely");
    assert_eq!(digests, PLAN_DIGESTS, "a plan moved: {digests:x?}");
}

/// Paths with at most this many nests are small enough to enumerate.
const ENUMERABLE_NESTS: usize = 600;

/// Algorithm 1 against enumeration on the generator's kernels: on every
/// path of at most [`ENUMERABLE_NESTS`] nests of the order-2 and
/// order-3 cases with at most three factors, under the exact pattern's
/// profile, the DP returns exhaustive search's value under each cost
/// model and under `Work` itself and, where that value is feasible, its
/// executed `Work` — the tie-break that prices fibers only where the
/// chosen subtree is one.
#[test]
fn dp_matches_exhaustive_on_generated_kernels() {
    let mut rng = StdRng::seed_from_u64(SEED);
    let (mut paths, mut fiber_paths) = (0, 0);
    for case_no in 0..CASES {
        let case = generate(case_no, &mut rng);
        let (coo, _) = draw(&case, &mut rng);
        if case.sparse_dims.len() > 3 || case.factors.len() > 3 {
            continue;
        }
        let kernel = parse_kernel(&case.expr, &case.dims).unwrap();
        let natural: Vec<usize> = (0..coo.order()).collect();
        let profile = SubsetCounts::of(&coo).unwrap().profile(&natural).unwrap();
        for path in enumerate_paths(&kernel) {
            let nests = NestSpecIter::new(&kernel, &path).take(ENUMERABLE_NESTS + 1);
            if nests.count() > ENUMERABLE_NESTS {
                continue;
            }
            let what = format!(
                "case {case_no}: {} on {}",
                case.expr,
                path.describe(&kernel)
            );
            check_exact(&kernel, &path, &profile, &BlasAware::default(), &what);
            check_exact(&kernel, &path, &profile, &CacheMiss { d: 1 }, &what);
            check_exact(&kernel, &path, &profile, &MaxBufferSize, &what);
            check_exact(&kernel, &path, &profile, &MaxBufferDim, &what);
            check_exact(&kernel, &path, &profile, &Work, &what);
            let best = optimal_order(&kernel, &path, &profile, &Work).unwrap();
            let forest = build_forest(&kernel, &path, &best.spec).unwrap();
            fiber_paths += usize::from(has_fiber(&kernel, &path, &forest.roots, IdxSet::EMPTY));
            paths += 1;
        }
    }
    println!("{paths} enumerable paths, {fiber_paths} whose least-work nest has a fiber");
    assert!(paths >= 100, "only {paths} enumerable paths");
    assert!(fiber_paths > 0, "no least-work nest has a fiber");
}

/// The DP and exhaustive search agree on `path` under `cost`.
fn check_exact<C: TreeCost>(
    kernel: &Kernel,
    path: &ContractionPath,
    profile: &SparsityProfile,
    cost: &C,
    what: &str,
) {
    let dp = optimal_order(kernel, path, profile, cost).unwrap();
    let ex = exhaustive_search(kernel, path, profile, cost).unwrap();
    assert_eq!(dp.value, ex.value, "{what}");
    if cost.is_feasible(&ex.value) {
        assert_eq!(dp.work, ex.work, "{what}: {:?} vs {:?}", dp.work, ex.work);
    }
}

/// Whether a vertex of `nodes` runs as a fiber.
fn has_fiber(k: &Kernel, p: &ContractionPath, nodes: &[LoopNode], above: IdxSet) -> bool {
    nodes.iter().any(|n| {
        let LoopNode::Loop(v) = n else { return false };
        let iterated = above.insert(v.index);
        let fiber = matches!(v.kind, VertexKind::Sparse { level }
            if matches!(fused_loop(k, p, level, v.term_lo..v.term_hi, iterated),
                Some(f @ FusedLoop::Fiber { .. }) if f.fits(level, &v.children)));
        fiber || has_fiber(k, p, &v.children, iterated)
    })
}

/// FNV-1a offset basis, the digest of nothing.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a of `bytes`, continuing from `h`.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Parity probe: every case of the suite, planned under each cost
/// model and bound at one thread on each kernel tier, folded into one
/// digest line per (cost model, tier). A digest covers the output
/// bits, the run's `ExecStats`, the tape's instruction,
/// superinstruction and specialized-site counts, and its full
/// `TapeReport`, so equal lines at two commits mean the same programs
/// computed the same bits:
///
/// `cargo test --release --test random_einsums -- --ignored --nocapture parity_probe`
#[test]
#[ignore = "prints digests to diff across commits; asserts nothing"]
fn parity_probe() {
    const TIERS: [Microkernels; 2] = [Microkernels::Scalar, Microkernels::Auto];
    let mut digests = [(0usize, FNV_OFFSET, ""); MODELS.len() * TIERS.len()];
    let mut rng = StdRng::seed_from_u64(SEED);
    for case_no in 0..CASES {
        let case = generate(case_no, &mut rng);
        let (coo, factors) = draw(&case, &mut rng);
        let names: Vec<String> = (0..factors.len()).map(|f| format!("F{f}")).collect();
        let named: Vec<(&str, &DenseTensor)> =
            names.iter().map(String::as_str).zip(&factors).collect();
        let natural: Vec<usize> = (0..coo.order()).collect();
        let csf = Csf::from_coo(&coo, &natural).unwrap();
        let shapes = Shapes::new().with_dims(&case.dims).with_pattern(coo);
        for (m, model) in MODELS.into_iter().enumerate() {
            let opts = PlanOptions::with_cost_model(model);
            let Ok(plan) = Contraction::parse(&case.expr).unwrap().plan(&shapes, &opts) else {
                continue;
            };
            for (t, tier) in TIERS.into_iter().enumerate() {
                let mut exec_opts = plan.exec().clone();
                (exec_opts.threads, exec_opts.microkernels) = (Threads::N(1), tier);
                let mut exec = plan
                    .clone()
                    .with_exec(exec_opts)
                    .bind(csf.clone(), &named)
                    .unwrap();
                let out = exec.execute().unwrap();
                let tape = exec.tape();
                let line = format!(
                    "{case_no} {:?} {:?} {} {} {} {:?}",
                    bits(&out),
                    exec.last_stats(),
                    tape.num_instrs(),
                    tape.superinstructions(),
                    tape.specialized(),
                    tape.verify().unwrap()
                );
                let (n, h, name) = &mut digests[m * TIERS.len() + t];
                (*n, *h, *name) = (*n + 1, fnv(*h, line.as_bytes()), tape.microkernels());
            }
        }
    }
    for (i, (n, h, name)) in digests.iter().enumerate() {
        let (model, tier) = (MODELS[i / TIERS.len()], TIERS[i % TIERS.len()]);
        println!("parity {model:?} {tier:?} ({name}): {n} plans, digest {h:016x}");
    }
}
