//! Tile-engine golden tests through the facade: every standard kernel,
//! executed at several thread counts, must match the one-tile run to
//! ≤ 1e-9; fixed thread counts must be bitwise deterministic; and the
//! degenerate shapes (empty tensor, single root fiber, more threads
//! than roots) must all work.

use rand::prelude::*;
use spttn::ir::{path_from_picks, stdkernels, Kernel, NestSpec};
use spttn::tensor::{random_coo, random_dense, CooTensor, Csf, DenseTensor};
use spttn::{
    Contraction, ContractionOutput, CostModel, Executor, PlanOptions, RunBudget, Shapes, Threads,
};

const TOL: f64 = 1e-9;

/// Random operands for a kernel: CSF in the written index order plus
/// named dense factors.
fn operands(kernel: &Kernel, nnz: usize, seed: u64) -> (Csf, Vec<(String, DenseTensor)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let sdims = kernel.ref_dims(kernel.sparse_ref());
    let coo = random_coo(&sdims, nnz, &mut rng).unwrap();
    let order: Vec<usize> = (0..coo.order()).collect();
    let csf = Csf::from_coo(&coo, &order).unwrap();
    let mut factors = Vec::new();
    for (slot, r) in kernel.inputs.iter().enumerate() {
        if slot == kernel.sparse_input {
            continue;
        }
        factors.push((r.name.clone(), random_dense(&kernel.ref_dims(r), &mut rng)));
    }
    (csf, factors)
}

/// Plan (symbolically, at a given thread count) and bind.
fn bind_at(
    kernel: &Kernel,
    csf: &Csf,
    factors: &[(String, DenseTensor)],
    model: CostModel,
    threads: usize,
) -> Executor {
    let plan = Contraction::from_kernel(kernel.clone())
        .plan(
            &Shapes::new().with_pattern(csf.to_coo()),
            &PlanOptions::with_cost_model(model).with_threads(Threads::N(threads)),
        )
        .unwrap();
    let refs: Vec<(&str, &DenseTensor)> = factors.iter().map(|(n, t)| (n.as_str(), t)).collect();
    plan.bind(csf.clone(), &refs).unwrap()
}

fn execute_at(
    kernel: &Kernel,
    csf: &Csf,
    factors: &[(String, DenseTensor)],
    model: CostModel,
    threads: usize,
) -> ContractionOutput {
    bind_at(kernel, csf, factors, model, threads)
        .execute()
        .unwrap()
}

/// Every stdkernel (dense and pattern-sharing outputs), at thread
/// counts 2/4/7, agrees with the one-tile run to ≤ 1e-9.
#[test]
fn stdkernels_parallel_match_serial() {
    let suite: Vec<(Kernel, usize)> = vec![
        (stdkernels::mttkrp(&[30, 24, 26], 8), 500),
        (stdkernels::ttmc(&[20, 18, 22], &[5, 6]), 400),
        (stdkernels::tttp(&[20, 18, 22], 4), 400),
        (stdkernels::all_mode_ttmc(&[14, 14, 14], &[4, 5, 6]), 300),
    ];
    for (i, (kernel, nnz)) in suite.iter().enumerate() {
        let (csf, factors) = operands(kernel, *nnz, 40 + i as u64);
        let want = execute_at(kernel, &csf, &factors, CostModel::MaxBufferSize, 1).to_dense();
        for threads in [2usize, 4, 7] {
            let got = execute_at(kernel, &csf, &factors, CostModel::MaxBufferSize, threads);
            assert!(
                got.to_dense().approx_eq(&want, TOL),
                "{} at {threads} threads diverged from one tile",
                kernel.to_einsum()
            );
        }
    }
}

/// Admission charges what a bind at `t` threads allocates: every Eq.-5
/// buffer once per thread plus a dense output partial per thread after
/// the first. A budget of exactly that admits `t` threads; the
/// buffers-only charge, which left the partials out, no longer does. A
/// pattern-sharing output has no partials.
#[test]
fn footprint_charges_buffers_per_thread_and_partials_after_the_first() {
    let kernel = stdkernels::mttkrp(&[40, 20, 24], 8);
    let (csf, factors) = operands(&kernel, 600, 12);
    let refs: Vec<(&str, &DenseTensor)> = factors.iter().map(|(n, t)| (n.as_str(), t)).collect();
    let plan = |budget: RunBudget| {
        Contraction::from_kernel(kernel.clone())
            .plan(
                &Shapes::new().with_pattern(csf.to_coo()),
                &PlanOptions::default()
                    .with_threads(Threads::N(4))
                    .with_budget(budget),
            )
            .unwrap()
    };
    let probe = plan(RunBudget::default());
    let buffers: u128 = probe.buffers().iter().map(|b| b.size()).sum();
    let partial = 40 * 8;
    assert!(buffers > 0, "{}", probe.describe());
    for t in 1..=4u128 {
        let want = t * buffers + (t - 1) * partial;
        assert_eq!(probe.parallel_footprint(t as usize), want);
    }
    let threads_at = |bytes: u128| {
        let budget = RunBudget::default().with_max_workspace_bytes(u64::try_from(bytes).unwrap());
        plan(budget).bind(csf.clone(), &refs).unwrap().threads()
    };
    assert_eq!(threads_at(8 * probe.parallel_footprint(4)), 4, "exact fit");
    assert!(threads_at(8 * 4 * buffers) < 4, "partials are charged");

    let tttp = Contraction::from_kernel(stdkernels::tttp(&[20, 18, 22], 4))
        .plan(&Shapes::new().with_nnz(300), &PlanOptions::default())
        .unwrap();
    let tttp_buffers: u128 = tttp.buffers().iter().map(|b| b.size()).sum();
    assert_eq!(tttp.parallel_footprint(4), 4 * tttp_buffers);
}

/// Two executions at the same fixed thread count — on the same executor
/// and on a freshly bound one — are bitwise identical.
#[test]
fn parallel_execution_is_bitwise_deterministic() {
    let kernel = stdkernels::mttkrp(&[40, 20, 24], 8);
    let (csf, factors) = operands(&kernel, 800, 50);
    let mut exec = bind_at(&kernel, &csf, &factors, CostModel::MaxBufferSize, 4);
    assert!(exec.threads() > 1, "tensor should split into several tiles");
    let a = exec.execute().unwrap().to_dense();
    let b = exec.execute().unwrap().to_dense();
    assert_eq!(a.as_slice(), b.as_slice(), "same executor, same bits");
    let mut fresh = bind_at(&kernel, &csf, &factors, CostModel::MaxBufferSize, 4);
    let c = fresh.execute().unwrap().to_dense();
    assert_eq!(a.as_slice(), c.as_slice(), "fresh executor, same bits");
}

/// An empty sparse tensor executes at any thread count and yields zero.
#[test]
fn empty_tensor_runs_at_any_thread_count() {
    let kernel = stdkernels::mttkrp(&[10, 8, 9], 4);
    let coo = CooTensor::new(&[10, 8, 9]).unwrap();
    let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
    let mut rng = StdRng::seed_from_u64(60);
    let factors = vec![
        ("F1".to_string(), random_dense(&[8, 4], &mut rng)),
        ("F2".to_string(), random_dense(&[9, 4], &mut rng)),
    ];
    for threads in [1usize, 4] {
        let mut exec = bind_at(&kernel, &csf, &factors, CostModel::MaxBufferSize, threads);
        // One (empty) tile whatever was asked for.
        assert_eq!(exec.threads(), 1);
        let out = exec.execute().unwrap().to_dense();
        assert_eq!(out.norm(), 0.0);
    }
}

/// A one-tile bind — one thread asked for, or a tensor whose nonzeros
/// share one root fiber and so cannot split — reports one thread and
/// holds one workspace; both run the same engine, so they agree to the
/// bit.
#[test]
fn single_root_fiber_and_threads_beyond_roots() {
    let kernel = stdkernels::mttkrp(&[12, 10, 11], 5);
    let mut rng = StdRng::seed_from_u64(61);
    // Single root: every entry has i = 3.
    let mut coo = CooTensor::new(&[12, 10, 11]).unwrap();
    for _ in 0..60 {
        coo.push(
            &[3, rng.gen_range(0..10usize), rng.gen_range(0..11usize)],
            rng.gen_range(0.0..1.0f64),
        )
        .unwrap();
    }
    let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
    let factors = vec![
        ("F1".to_string(), random_dense(&[10, 5], &mut rng)),
        ("F2".to_string(), random_dense(&[11, 5], &mut rng)),
    ];
    let mut one = bind_at(&kernel, &csf, &factors, CostModel::MaxBufferSize, 1);
    assert_eq!(one.threads(), 1, "Threads::N(1) → one tile");
    assert_eq!(one.workspaces().len(), 1);
    let want = one.execute().unwrap().to_dense();
    let mut exec = bind_at(&kernel, &csf, &factors, CostModel::MaxBufferSize, 4);
    assert_eq!(exec.threads(), 1, "one root fiber → one tile");
    assert_eq!(exec.workspaces().len(), 1);
    let got = exec.execute().unwrap().to_dense();
    assert_eq!(got.as_slice(), want.as_slice());

    // Three roots, seven threads: at most three tiles, same result.
    let mut coo = CooTensor::new(&[12, 10, 11]).unwrap();
    for e in 0..90usize {
        coo.push(&[e % 3, (e * 7) % 10, (e * 5) % 11], 1.0 + e as f64)
            .unwrap();
    }
    let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
    let want = execute_at(&kernel, &csf, &factors, CostModel::MaxBufferSize, 1).to_dense();
    let mut exec = bind_at(&kernel, &csf, &factors, CostModel::MaxBufferSize, 7);
    assert!(exec.threads() <= 3);
    let got = exec.execute().unwrap().to_dense();
    assert!(got.approx_eq(&want, TOL));
}

/// `+=` accumulation composes with several tiles exactly as with one:
/// two executions double the output.
#[test]
fn accumulate_semantics_survive_parallelism() {
    let kernel = stdkernels::ttmc(&[24, 14, 16], &[4, 5]);
    let (csf, factors) = operands(&kernel, 350, 70);
    let build = |threads: usize| {
        let plan = Contraction::from_kernel(kernel.clone())
            .with_accumulate(true)
            .plan(
                &Shapes::new().with_pattern(csf.to_coo()),
                &PlanOptions::with_cost_model(CostModel::MaxBufferSize)
                    .with_threads(Threads::N(threads)),
            )
            .unwrap();
        let refs: Vec<(&str, &DenseTensor)> =
            factors.iter().map(|(n, t)| (n.as_str(), t)).collect();
        plan.bind(csf.clone(), &refs).unwrap()
    };
    let run_twice = |mut exec: Executor| {
        let mut out = exec.output_template();
        exec.execute_into(&mut out).unwrap();
        exec.execute_into(&mut out).unwrap();
        out.to_dense()
    };
    let one = run_twice(build(1));
    let parallel = run_twice(build(4));
    assert!(parallel.approx_eq(&one, TOL));
    // And both really accumulated: one execution is half of two.
    let once = build(4).execute().unwrap().to_dense();
    let mut doubled = once.clone();
    doubled.as_mut_slice().iter_mut().for_each(|v| *v *= 2.0);
    assert!(parallel.approx_eq(&doubled, TOL));
}

/// Per-execution stats: zero before the first run, populated and
/// aggregated across threads afterwards. The default nest sits wholly
/// under the sparse root, so tiles partition its dispatches exactly;
/// a nest with a dense prologue outside every sparse loop (named here
/// explicitly — the planner no longer picks one) repeats the prologue
/// in every tile.
#[test]
fn last_stats_reports_per_execution_dispatches() {
    let kernel = stdkernels::mttkrp(&[30, 24, 26], 8);
    let (csf, factors) = operands(&kernel, 500, 80);
    let refs: Vec<(&str, &DenseTensor)> = factors.iter().map(|(n, t)| (n.as_str(), t)).collect();
    let plan_at = |threads: usize| {
        Contraction::from_kernel(kernel.clone())
            .plan(
                &Shapes::new().with_pattern(csf.to_coo()),
                &PlanOptions::default().with_threads(Threads::N(threads)),
            )
            .unwrap()
    };
    let mut serial = plan_at(1).bind(csf.clone(), &refs).unwrap();
    assert_eq!(serial.last_stats().total(), 0, "no execution yet");
    serial.execute().unwrap();
    let s1 = serial.last_stats();
    // One AXPY per nonzero, one row update per (i,j) fiber.
    assert_eq!(s1.axpy as usize, csf.nnz());
    assert_eq!(s1.total() as usize, csf.nnz() + csf.level_nnz(1));
    // Per-execution, not cumulative: a second run reports the same.
    serial.execute().unwrap();
    assert_eq!(serial.last_stats(), s1);

    let mut par = plan_at(4).bind(csf.clone(), &refs).unwrap();
    par.execute().unwrap();
    assert_eq!(par.last_stats().total(), s1.total());

    // `a` hoisted over a Khatri-Rao prologue and the whole CSF walk:
    // the prologue's dispatches belong to no tile, so each tile runs
    // them again.
    let (i, j, k, a) = (0, 1, 2, 3);
    let hoisted = |threads: usize| {
        let plan = plan_at(threads);
        let nest = NestSpec {
            orders: vec![vec![a, j, k], vec![a, i, j, k]],
        };
        let path = path_from_picks(plan.kernel(), &[(1, 2), (0, 1)]);
        plan.with_nest(path, nest)
            .unwrap()
            .bind(csf.clone(), &refs)
            .unwrap()
    };
    let (mut one, mut four) = (hoisted(1), hoisted(4));
    let want = one.execute().unwrap().to_dense();
    assert!(four.execute().unwrap().to_dense().approx_eq(&want, TOL));
    let prologue = one.last_stats().total();
    assert!(prologue > 0, "the prologue dispatches microkernels");
    assert_eq!(four.last_stats().total(), prologue * four.threads() as u64);
}

/// `Threads::Auto` resolves to the machine's parallelism and binds.
#[test]
fn threads_auto_binds_and_matches() {
    assert!(Threads::Auto.resolve() >= 1);
    let kernel = stdkernels::mttkrp(&[30, 24, 26], 8);
    let (csf, factors) = operands(&kernel, 500, 90);
    let want = execute_at(&kernel, &csf, &factors, CostModel::MaxBufferSize, 1).to_dense();
    let plan = Contraction::from_kernel(kernel.clone())
        .plan(
            &Shapes::new().with_pattern(csf.to_coo()),
            &PlanOptions::with_cost_model(CostModel::MaxBufferSize).with_threads(Threads::Auto),
        )
        .unwrap();
    let refs: Vec<(&str, &DenseTensor)> = factors.iter().map(|(n, t)| (n.as_str(), t)).collect();
    let mut exec = plan.bind(csf.clone(), &refs).unwrap();
    let got = exec.execute().unwrap().to_dense();
    assert!(got.approx_eq(&want, TOL));
}

/// Rebinding values (ALS-style) keeps working under parallel execution.
#[test]
fn rebind_factors_under_parallel_execution() {
    let kernel = stdkernels::mttkrp(&[30, 24, 26], 8);
    let (csf, factors) = operands(&kernel, 500, 95);
    let mut rng = StdRng::seed_from_u64(96);
    let b2 = random_dense(&[24, 8], &mut rng);
    let new_vals: Vec<f64> = csf.vals().iter().map(|v| v * 0.25).collect();

    let mut par = bind_at(&kernel, &csf, &factors, CostModel::MaxBufferSize, 4);
    par.set_factor("F1", &b2).unwrap();
    par.set_sparse_values(&new_vals).unwrap();
    let got = par.execute().unwrap().to_dense();

    let mut serial = bind_at(&kernel, &csf, &factors, CostModel::MaxBufferSize, 1);
    serial.set_factor("F1", &b2).unwrap();
    serial.set_sparse_values(&new_vals).unwrap();
    let want = serial.execute().unwrap().to_dense();
    assert!(got.approx_eq(&want, TOL));
}
