//! Fault-injection acceptance suite for the hardened runtime: injected
//! worker panics fail only the execution they hit (typed as
//! [`SpttnError::WorkerPanic`]) and the pool completes subsequent
//! executions; a dead worker is respawned transparently; deadlines and
//! budgets reject with typed errors; and the recovered pool still
//! honors the zero-allocation execute contract.
//!
//! The fault registry is process-global and the allocation counter
//! needs exclusive windows, so this binary holds exactly one test
//! function (the `no_alloc` suite's idiom).

use rand::prelude::*;
use spttn::exec::faults::{self, Fault};
use spttn::ir::{path_from_picks, NestSpec};
use spttn::tensor::{random_coo, random_dense, Csf, DenseTensor, SparsityProfile};
use spttn::{
    Contraction, ContractionOutput, Microkernels, Plan, PlanOptions, RunBudget, Shapes, SpttnError,
    Threads,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const EXPR: &str = "T[i,j,k]*A[j,r]*B[k,r]->O[i,r]";

fn mttkrp_plan(threads: usize, csf: &Csf, extra: impl FnOnce(PlanOptions) -> PlanOptions) -> Plan {
    let opts = extra(
        PlanOptions::default()
            .with_threads(Threads::N(threads))
            .with_microkernels(Microkernels::Scalar),
    );
    Contraction::parse(EXPR)
        .unwrap()
        .plan(
            &Shapes::new()
                .with_dims(&[("i", 24), ("j", 16), ("k", 18), ("r", 6)])
                .with_profile(SparsityProfile::from_csf(csf)),
            &opts,
        )
        .unwrap()
}

fn as_dense(out: &ContractionOutput) -> &DenseTensor {
    match out {
        ContractionOutput::Dense(d) => d,
        ContractionOutput::Sparse(_) => panic!("MTTKRP output is dense"),
    }
}

#[test]
fn injected_faults_are_isolated_and_the_pool_recovers() {
    faults::clear();
    let mut rng = StdRng::seed_from_u64(17);
    let coo = random_coo(&[24, 16, 18], 500, &mut rng).unwrap();
    let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
    let a = random_dense(&[16, 6], &mut rng);
    let b = random_dense(&[18, 6], &mut rng);
    let factors: Vec<(&str, &DenseTensor)> = vec![("A", &a), ("B", &b)];

    // Baseline: the 1-thread result every recovered execution must
    // reproduce exactly (scalar microkernels are bitwise-stable).
    let one = mttkrp_plan(1, &csf, |o| o);
    let want = one.bind(csf.clone(), &factors).unwrap().execute().unwrap();
    let want = as_dense(&want).clone();

    // ---- 4 threads: pool-worker faults ------------------------------
    let plan4 = mttkrp_plan(4, &csf, |o| o);
    let mut exec = plan4.bind(csf.clone(), &factors).unwrap();
    assert!(exec.threads() > 1, "fixture must engage the worker pool");

    // (a) A panicking worker job fails only that execution, typed.
    faults::inject(Fault::WorkerPanic { worker: 0 });
    match exec.execute() {
        Err(SpttnError::WorkerPanic { worker, payload }) => {
            // Pool slot 0 runs tile 1; tile 0 is the calling thread.
            assert_eq!(worker, 1, "slot 0 reports as tile 1");
            assert!(
                payload.contains("injected fault"),
                "payload should carry the panic message, got '{payload}'"
            );
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    // The same pool completes the next execution, bit-exactly.
    let got = exec.execute().unwrap();
    assert_eq!(
        as_dense(&got).as_slice(),
        want.as_slice(),
        "post-panic execution must match the 1-thread baseline"
    );

    // (b) A worker whose thread dies is respawned before the next run.
    faults::inject(Fault::WorkerDeath { worker: 1 });
    match exec.execute() {
        Err(SpttnError::WorkerPanic { worker, .. }) => assert_eq!(worker, 2),
        other => panic!("expected WorkerPanic from dying worker, got {other:?}"),
    }
    let got = exec.execute().unwrap();
    assert_eq!(
        as_dense(&got).as_slice(),
        want.as_slice(),
        "execution after worker respawn must match the 1-thread baseline"
    );

    // (c) A tile-0 (calling thread) panic is caught and typed too.
    faults::inject(Fault::Tile0Panic);
    match exec.execute() {
        Err(SpttnError::WorkerPanic { worker, .. }) => assert_eq!(worker, 0),
        other => panic!("expected tile-0 WorkerPanic, got {other:?}"),
    }
    let got = exec.execute().unwrap();
    assert_eq!(as_dense(&got).as_slice(), want.as_slice());

    // (d) Zero-allocation contract survives recovery: once the pool is
    // healthy and warm again, executions stay off the heap.
    let mut out = exec.output_template();
    exec.execute_into(&mut out).unwrap();
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..3 {
        exec.execute_into(&mut out).unwrap();
    }
    assert_eq!(
        ALLOCATIONS.load(Ordering::SeqCst) - before,
        0,
        "recovered pool must still execute allocation-free"
    );

    // (e) Repeated death/recovery cycles neither wedge the pool nor
    // corrupt results (leak/stability sweep).
    for cycle in 0..5 {
        faults::inject(Fault::WorkerDeath { worker: cycle % 3 });
        assert!(
            matches!(exec.execute(), Err(SpttnError::WorkerPanic { .. })),
            "cycle {cycle}: armed death must fail the execution"
        );
        let got = exec.execute().unwrap();
        assert_eq!(
            as_dense(&got).as_slice(),
            want.as_slice(),
            "cycle {cycle}: pool must recover"
        );
    }

    // ---- 1 thread: the same engine with one tile --------------------
    // Tile 0 is the calling thread at every tile count, so its panic is
    // caught and typed here too; a one-tile engine has no pool slot, so
    // a pool-worker fault finds nobody to claim it.
    let mut exec1 = mttkrp_plan(1, &csf, |o| o)
        .bind(csf.clone(), &factors)
        .unwrap();
    assert_eq!(exec1.threads(), 1);
    faults::inject(Fault::WorkerPanic { worker: 0 });
    faults::inject(Fault::Tile0Panic);
    match exec1.execute() {
        Err(SpttnError::WorkerPanic { worker, payload }) => {
            assert_eq!(worker, 0, "the caller's tile");
            assert!(payload.contains("injected fault"), "got '{payload}'");
        }
        other => panic!("expected tile-0 WorkerPanic at 1 thread, got {other:?}"),
    }
    // The tile-0 fault is spent, the slot-0 fault still armed and
    // unclaimed: the next run is bitwise the unfaulted result.
    let got = exec1.execute().unwrap();
    assert_eq!(
        as_dense(&got).as_slice(),
        want.as_slice(),
        "the run after a recovered 1-thread panic must match a fresh one"
    );
    let mut out = exec1.output_template();
    exec1.execute_into(&mut out).unwrap();
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..3 {
        exec1.execute_into(&mut out).unwrap();
    }
    assert_eq!(
        ALLOCATIONS.load(Ordering::SeqCst) - before,
        0,
        "a recovered one-tile engine must still execute allocation-free"
    );
    assert_eq!(as_dense(&out).as_slice(), want.as_slice());
    faults::clear();

    // ---- deadlines: a guard that fires before the first root subtree
    // leaves the freshly zeroed output all zeros --------------------
    for threads in [1usize, 4] {
        let plan = mttkrp_plan(threads, &csf, |o| o.with_deadline(Duration::ZERO));
        let mut exec = plan.bind(csf.clone(), &factors).unwrap();
        let mut out = exec.output_template();
        match exec.execute_into(&mut out) {
            Err(SpttnError::Cancelled { phase, .. }) => {
                assert_eq!(phase, "tape", "unexpected phase '{phase}'");
            }
            other => panic!("expected Cancelled at {threads} thread(s), got {other:?}"),
        }
        assert!(
            as_dense(&out).as_slice().iter().all(|&v| v == 0.0),
            "a guard that fired before any work must leave the zeroed output as it was"
        );
    }

    // ---- budget admission -------------------------------------------
    let probe = mttkrp_plan(4, &csf, |o| o);
    let serial_bytes = u64::try_from(probe.parallel_footprint(1).saturating_mul(8)).unwrap();
    let four_bytes = u64::try_from(probe.parallel_footprint(4).saturating_mul(8)).unwrap();
    assert!(serial_bytes > 0, "MTTKRP must have a nonzero workspace");
    assert!(four_bytes >= 4 * serial_bytes);

    // Exact fit admits all requested threads.
    let plan = mttkrp_plan(4, &csf, |o| {
        o.with_budget(RunBudget::default().with_max_workspace_bytes(four_bytes))
    });
    let mut exec = plan.bind(csf.clone(), &factors).unwrap();
    assert!(exec.threads() > 1, "exact-fit budget must not degrade");
    assert_eq!(
        as_dense(&exec.execute().unwrap()).as_slice(),
        want.as_slice()
    );

    // A budget between the serial and 4-thread footprints degrades the
    // thread count instead of rejecting.
    let plan = mttkrp_plan(4, &csf, |o| {
        o.with_budget(RunBudget::default().with_max_workspace_bytes(four_bytes - 1))
    });
    let mut exec = plan.bind(csf.clone(), &factors).unwrap();
    assert!(
        exec.threads() < 4,
        "budget below the 4-thread footprint must shed threads"
    );
    assert_eq!(
        as_dense(&exec.execute().unwrap()).as_slice(),
        want.as_slice()
    );

    // Below even the serial footprint, bind rejects with the predicted
    // requirement and the allowed limit.
    let plan = mttkrp_plan(4, &csf, |o| {
        o.with_budget(RunBudget::default().with_max_workspace_bytes(serial_bytes - 1))
    });
    match plan.bind(csf.clone(), &factors) {
        Err(SpttnError::BudgetExceeded {
            resource,
            predicted,
            allowed,
        }) => {
            assert_eq!(resource, "workspace bytes");
            assert_eq!(predicted, u128::from(serial_bytes));
            assert_eq!(allowed, u128::from(serial_bytes) - 1);
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }

    // Flops gate: one below the modeled count rejects, at it admits.
    let flops = probe.flops;
    let plan = mttkrp_plan(1, &csf, |o| {
        o.with_budget(RunBudget::default().with_max_modeled_flops(flops - 1))
    });
    match plan.bind(csf.clone(), &factors) {
        Err(SpttnError::BudgetExceeded {
            resource,
            predicted,
            allowed,
        }) => {
            assert_eq!(resource, "modeled flops");
            assert_eq!(predicted, flops);
            assert_eq!(allowed, flops - 1);
        }
        other => panic!("expected flops rejection, got {other:?}"),
    }
    let plan = mttkrp_plan(1, &csf, |o| {
        o.with_budget(RunBudget::default().with_max_modeled_flops(flops))
    });
    assert!(plan.bind(csf.clone(), &factors).is_ok());

    // The gate reads what the nest that will run executes, not its
    // path's ideal count. TTTP's cheapest path can run its two
    // pre-sparse terms under the sparse descent (the ideal count) or
    // with `k` and `j` over their full extents under every `i`; a
    // budget of the ideal count — which admitted the second nest when
    // admission read the path — rejects it, naming the executed number,
    // and admits the first.
    let tttp = |budget: RunBudget| {
        Contraction::parse("S(i,j,k) = T(i,j,k) * U(i,r) * V(j,r) * W(k,r)")
            .unwrap()
            .plan(
                &Shapes::new()
                    .with_dims(&[("i", 24), ("j", 16), ("k", 18), ("r", 6)])
                    .with_profile(SparsityProfile::from_csf(&csf)),
                &PlanOptions::default().with_budget(budget),
            )
            .unwrap()
    };
    let probe = tttp(RunBudget::default());
    let kernel = probe.kernel().clone();
    let id = |name: &str| kernel.indices.iter().position(|x| x.name == name).unwrap();
    let (i, j, k, r) = (id("i"), id("j"), id("k"), id("r"));
    let dense_jk = |plan: &Plan| {
        plan.with_nest(
            path_from_picks(&kernel, &[(1, 2), (1, 2), (0, 1)]),
            NestSpec {
                orders: vec![vec![i, j, r], vec![i, k, j, r], vec![i, j, k]],
            },
        )
        .unwrap()
    };
    let heavy = dense_jk(&probe);
    let (executed, ideal) = (heavy.flops, heavy.ideal_flops());
    assert!(executed > 2 * ideal, "{executed} executed vs {ideal} ideal");
    let (u, v, w) = (
        random_dense(&[24, 6], &mut rng),
        random_dense(&[16, 6], &mut rng),
        random_dense(&[18, 6], &mut rng),
    );
    let uvw = [("U", &u), ("V", &v), ("W", &w)];
    let budget = RunBudget::default().with_max_modeled_flops(ideal);
    match dense_jk(&tttp(budget)).bind(csf.clone(), &uvw) {
        Err(e @ SpttnError::BudgetExceeded { .. }) => {
            assert!(
                matches!(e, SpttnError::BudgetExceeded { predicted, allowed, .. }
                    if predicted == executed && allowed == ideal),
                "{e}"
            );
            assert!(e.to_string().contains(&executed.to_string()), "{e}");
        }
        other => panic!("expected the executed count to be rejected, got {other:?}"),
    }
    let plan = tttp(budget);
    assert_eq!((plan.flops, plan.path()), (ideal, heavy.path()));
    assert!(plan.bind(csf, &uvw).is_ok());
}
