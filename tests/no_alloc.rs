//! Acceptance criterion: `Executor::execute_into` performs **zero heap
//! allocations** after construction (the compiled program and driver
//! state are preallocated at bind), serially, across the worker pool,
//! and through the network executor.
//!
//! A counting global allocator wraps the system allocator; the test
//! binary holds exactly one test function so no concurrent test can
//! perturb the counters between the before/after reads.

use rand::prelude::*;
use spttn::tensor::{random_coo, random_dense, Csf, SparsityProfile};
use spttn::{Contraction, CostModel, PlanOptions, Shapes, Threads};
use spttn_net::{NetOptions, Network};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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

#[test]
fn execute_into_performs_zero_heap_allocations() {
    let mut rng = StdRng::seed_from_u64(9);

    // Dense-output kernel (MTTKRP).
    let coo = random_coo(&[20, 16, 18], 400, &mut rng).unwrap();
    let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
    let a = random_dense(&[16, 6], &mut rng);
    let b = random_dense(&[18, 6], &mut rng);
    let a2 = random_dense(&[16, 6], &mut rng);
    let plan = Contraction::parse("T[i,j,k]*A[j,r]*B[k,r]->O[i,r]")
        .unwrap()
        .plan(
            &Shapes::new()
                .with_dims(&[("i", 20), ("j", 16), ("k", 18), ("r", 6)])
                .with_profile(SparsityProfile::from_csf(&csf)),
            &PlanOptions::with_cost_model(CostModel::BlasAware {
                buffer_dim_bound: 2,
            }),
        )
        .unwrap();
    let mut exec = plan.bind(csf.clone(), &[("A", &a), ("B", &b)]).unwrap();
    let mut out = exec.output_template();
    let new_vals: Vec<f64> = csf.vals().iter().map(|v| v * 0.5).collect();

    // Warm-up outside the counted window.
    exec.execute_into(&mut out).unwrap();

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..3 {
        exec.execute_into(&mut out).unwrap();
    }
    exec.set_factor("A", &a2).unwrap();
    exec.set_sparse_values(&new_vals).unwrap();
    exec.execute_into(&mut out).unwrap();
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "dense-output execute_into / rebind allocated on the heap"
    );

    // Sparse-output kernel (TTTP / SDDMM-like).
    let u = random_dense(&[20, 4], &mut rng);
    let v = random_dense(&[16, 4], &mut rng);
    let w = random_dense(&[18, 4], &mut rng);
    let plan = Contraction::parse("S(i,j,k) = T(i,j,k) * U(i,r) * V(j,r) * W(k,r)")
        .unwrap()
        .plan(
            &Shapes::new()
                .with_dims(&[("i", 20), ("j", 16), ("k", 18), ("r", 4)])
                .with_profile(SparsityProfile::from_csf(&csf)),
            &PlanOptions::with_cost_model(CostModel::MaxBufferSize),
        )
        .unwrap();
    let mut exec = plan.bind(csf, &[("U", &u), ("V", &v), ("W", &w)]).unwrap();
    let mut out = exec.output_template();
    exec.execute_into(&mut out).unwrap();

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..3 {
        exec.execute_into(&mut out).unwrap();
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "sparse-output execute_into allocated on the heap"
    );

    // Parallel path: the persistent worker pool, per-thread workspaces,
    // and private partials are all preallocated at bind, so the tiled
    // fan-out + tree reduction must also run allocation-free. The
    // counter is process-global, so worker-thread allocations (if any)
    // are counted too.
    let a3 = random_dense(&[16, 6], &mut rng);
    let b3 = random_dense(&[18, 6], &mut rng);
    let coo = random_coo(&[20, 16, 18], 400, &mut rng).unwrap();
    let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
    let plan = Contraction::parse("T[i,j,k]*A[j,r]*B[k,r]->O[i,r]")
        .unwrap()
        .plan(
            &Shapes::new()
                .with_dims(&[("i", 20), ("j", 16), ("k", 18), ("r", 6)])
                .with_profile(SparsityProfile::from_csf(&csf)),
            &PlanOptions::with_cost_model(CostModel::BlasAware {
                buffer_dim_bound: 2,
            })
            .with_threads(Threads::N(4)),
        )
        .unwrap();
    let mut exec = plan.bind(csf, &[("A", &a3), ("B", &b3)]).unwrap();
    assert!(exec.threads() > 1, "parallel engine should engage");
    let mut out = exec.output_template();

    // Warm-up: first run lets lazy thread-local/park state initialize.
    exec.execute_into(&mut out).unwrap();
    exec.execute_into(&mut out).unwrap();

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..3 {
        exec.execute_into(&mut out).unwrap();
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "threaded execute_into allocated on the heap"
    );

    // Network executor: materialized dense steps feeding a collapsed
    // sparse kernel must also run allocation-free in steady state,
    // including a factor swap that fans out through the routing table.
    // `D1(j,m)*D2(m,r)` is far cheaper than touching the 350-nonzero
    // sparse tensor first, so the planner materializes it off-spine.
    let coo = random_coo(&[30, 20], 350, &mut rng).unwrap();
    let csf = Csf::from_coo(&coo, &[0, 1]).unwrap();
    let d1 = random_dense(&[20, 4], &mut rng);
    let d2 = random_dense(&[4, 5], &mut rng);
    let d1_new = random_dense(&[20, 4], &mut rng);
    let net = Network::parse("T[i,j]*D1[j,m]*D2[m,r]->O[i,r]").unwrap();
    let nplan = net
        .plan(
            &Shapes::new()
                .with_dims(&[("i", 30), ("j", 20), ("m", 4), ("r", 5)])
                .with_profile(SparsityProfile::from_csf(&csf)),
            &NetOptions::default(),
        )
        .unwrap();
    assert!(
        nplan.num_dense_steps() >= 1,
        "D1*D2 should materialize off the sparse spine"
    );
    let mut exec = nplan.bind(csf, &[("D1", &d1), ("D2", &d2)]).unwrap();
    let mut out = exec.output_template();
    exec.execute_into(&mut out).unwrap();

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..3 {
        exec.execute_into(&mut out).unwrap();
    }
    exec.set_factor("D1", &d1_new).unwrap();
    exec.execute_into(&mut out).unwrap();
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "network execute_into / set_factor allocated on the heap"
    );
}
