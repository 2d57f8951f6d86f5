//! Golden suite for the multi-kernel tensor-network scheduler
//! (`spttn-net`): every network — CP-ALS sweep, tensor-train, a
//! five-tensor chain, and a network forcing off-spine dense steps —
//! must reproduce the naive whole-network einsum oracle under both
//! order strategies and serial + parallel execution (and so must the
//! reference interpreter, run on the network flattened to one kernel);
//! the budgeted exact search must match brute-force order enumeration;
//! and pooled executors must move and reuse workspaces across threads.

mod common;
#[path = "common/networks.rs"]
mod networks;

use networks::{Fixture, CP_ALS, DENSE_CHAIN, FIVE_TENSOR, TENSOR_TRAIN};
use spttn::ir::enumerate_paths;
use spttn::{Contraction, PlanCache, PlanOptions, Threads};
use spttn_net::{modeled_path_flops, NetOptions, Network, OrderStrategy};
use std::sync::Arc;

const TOL: f64 = 1e-9;

/// Plan + bind + execute under every (strategy × threads)
/// combination, sharing one `PlanCache`, and compare to the oracle.
fn check_all(fx: &Fixture) {
    let expr = fx.net.expr();
    // The network flattened to one kernel, through the reference
    // interpreter: a second answer independent of every scheduler
    // decision below.
    let flat = Contraction::from_kernel(fx.net.kernel(&fx.shapes).unwrap())
        .plan(&fx.shapes, &PlanOptions::default())
        .unwrap();
    let (reference, _) = common::interp_reference(&flat, &fx.csf, &fx.named());
    assert!(
        reference.to_dense().approx_eq(&fx.want, TOL),
        "{expr}: reference interpreter disagrees with the naive oracle"
    );
    let cache = PlanCache::new();
    for strategy in [OrderStrategy::Greedy, OrderStrategy::Optimal] {
        for threads in [1usize, 4] {
            let popts = PlanOptions::default()
                .with_threads(Threads::N(threads))
                .with_microkernels(spttn::Microkernels::Scalar);
            let nopts = NetOptions::default()
                .with_order(strategy)
                .with_plan_options(popts);
            let nplan = fx
                .net
                .plan_cached(&cache, &fx.shapes, &nopts)
                .unwrap_or_else(|e| panic!("plan {expr} ({strategy}): {e}"));
            let mut exec = nplan.bind(fx.csf.clone(), &fx.named()).unwrap();
            let got = exec.execute().unwrap();
            assert!(
                got.to_dense().approx_eq(&fx.want, TOL),
                "{expr}: mismatch at {strategy}, {threads} thread(s)\n{}",
                nplan.describe()
            );
        }
    }
}

#[test]
fn cp_als_sweep_matches_oracle() {
    for g in &CP_ALS {
        check_all(&Fixture::golden(g));
    }
}

#[test]
fn tensor_train_matches_oracle() {
    check_all(&Fixture::golden(&TENSOR_TRAIN));
}

#[test]
fn five_tensor_network_matches_oracle() {
    check_all(&Fixture::golden(&FIVE_TENSOR));
}

#[test]
fn dense_chain_network_matches_oracle() {
    let fx = Fixture::golden(&DENSE_CHAIN);
    let nplan = fx.net.plan(&fx.shapes, &NetOptions::default()).unwrap();
    assert!(
        nplan.num_dense_steps() >= 1,
        "expected an off-spine dense step:\n{}",
        nplan.describe()
    );
    check_all(&fx);
}

/// A pattern-sharing network output written in another order than the
/// sparse input comes back shaped as written, template included.
#[test]
fn permuted_pattern_output_matches_oracle() {
    let fx = Fixture::new(
        "T[i,j,k]*U[i,r]*V[j,r]*W[k,r] -> S[k,i,j]",
        &[("i", 7), ("j", 6), ("k", 5), ("r", 3)],
        &[7, 6, 5],
        60,
        41,
    );
    let nplan = fx.net.plan(&fx.shapes, &NetOptions::default()).unwrap();
    let mut exec = nplan.bind(fx.csf.clone(), &fx.named()).unwrap();
    let mut out = exec.output_template();
    exec.execute_into(&mut out).unwrap();
    assert_eq!(out.to_dense().dims(), [5, 7, 6]);
    assert!(out.to_dense().approx_eq(&fx.want, TOL));
}

#[test]
fn exact_search_matches_brute_force_enumeration() {
    // The budgeted subset sweep must land on the true minimum over all
    // pairwise contraction orders for every <=5-tensor network here —
    // the same minimum brute-force enumeration finds.
    type Case = (
        &'static str,
        &'static [(&'static str, usize)],
        &'static [usize],
    );
    let cases: [Case; 3] = [
        (
            "T[i,j,k]*B[j,r]*C[k,r] -> A[i,r]",
            &[("i", 14), ("j", 12), ("k", 10), ("r", 5)],
            &[14, 12, 10],
        ),
        (
            "T[i,j,k]*G1[i,a]*G2[a,j,b]*G3[b,k,c] -> O[c]",
            &[("i", 13), ("j", 11), ("k", 9), ("a", 4), ("b", 3), ("c", 5)],
            &[13, 11, 9],
        ),
        (
            "T[i,j,k]*A[j,r]*B[k,r]*C[r,s]*D[s,u] -> O[i,u]",
            &[("i", 12), ("j", 10), ("k", 8), ("r", 4), ("s", 5), ("u", 3)],
            &[12, 10, 8],
        ),
    ];
    for (expr, dims, sparse_dims) in cases {
        let fx = Fixture::new(expr, dims, sparse_dims, 160, 41);
        let nopts = NetOptions::default().with_order(OrderStrategy::Optimal);
        let nplan = fx.net.plan(&fx.shapes, &nopts).unwrap();
        let report = nplan.report();
        assert!(!report.truncated, "{expr}: default budget must suffice");

        let kernel = fx.net.kernel(&fx.shapes).unwrap();
        let profile = fx
            .shapes
            .natural_profile(&fx.net.sparse_index_names())
            .unwrap();
        let brute = enumerate_paths(&kernel)
            .iter()
            .map(|p| modeled_path_flops(&kernel, p, &profile))
            .min()
            .unwrap();
        assert_eq!(
            report.chosen_flops, brute,
            "{expr}: exact sweep disagrees with brute force"
        );
        // The path the plan actually lowered scores the same flops.
        assert_eq!(
            modeled_path_flops(&kernel, nplan.path(), &profile),
            brute,
            "{expr}: lowered path does not achieve the reported cost"
        );
    }
}

#[test]
fn pooled_executors_move_and_reuse_across_threads() {
    let expr = "T[i,j]*D1[j,m]*D2[m,r] -> O[i,r]";
    let dims: &[(&str, usize)] = &[("i", 20), ("j", 15), ("m", 4), ("r", 6)];
    let fx = Fixture::new(expr, dims, &[20, 15], 120, 53);
    let nplan = fx.net.plan(&fx.shapes, &NetOptions::default()).unwrap();
    assert!(
        nplan.num_dense_steps() >= 1,
        "pool must have workspaces to own"
    );
    let pool = Arc::new(nplan.pool());

    // First checkout allocates; dropping the executor checks back in.
    {
        let mut exec = nplan
            .bind_pooled(&pool, fx.csf.clone(), &fx.named())
            .unwrap();
        let got = exec.execute().unwrap();
        assert!(got.to_dense().approx_eq(&fx.want, TOL));
    }
    assert_eq!((pool.created(), pool.reused()), (1, 0));
    assert_eq!(pool.available(), 1);

    // Bind on the main thread, execute on another (the Send contract),
    // with workspaces served from the warm pool.
    let mut exec = nplan
        .bind_pooled(&pool, fx.csf.clone(), &fx.named())
        .unwrap();
    assert_eq!((pool.created(), pool.reused()), (1, 1));
    let got = std::thread::spawn(move || exec.execute().unwrap())
        .join()
        .unwrap();
    assert!(got.to_dense().approx_eq(&fx.want, TOL));
    // The executor dropped on the worker thread; its workspaces are
    // back in the shared pool.
    assert_eq!(pool.available(), 1);

    // A pool from a different plan is rejected at bind.
    let other = Network::parse("T[i,j]*D1[j,m] -> O[i,m]")
        .unwrap()
        .plan(&fx.shapes, &NetOptions::default())
        .unwrap();
    let err = other.bind_pooled(&pool, fx.csf.clone(), &fx.named()[..1]);
    assert!(err.is_err(), "foreign pool must be rejected");
}

#[test]
fn cancelled_execution_never_recycles_dirty_workspaces() {
    // Regression: a pooled executor that errored or was cancelled
    // mid-execution must not check its intermediates back in as clean —
    // the next checkout would receive a partially-written workspace.
    // The drop path scrubs dirty sets to zero.
    let expr = "T[i,j]*D1[j,m]*D2[m,r] -> O[i,r]";
    let dims: &[(&str, usize)] = &[("i", 20), ("j", 15), ("m", 4), ("r", 6)];
    let fx = Fixture::new(expr, dims, &[20, 15], 120, 61);
    let tok = spttn::CancelToken::new();
    let nplan = fx
        .net
        .plan(
            &fx.shapes,
            &NetOptions::default()
                .with_plan_options(PlanOptions::default().with_cancel(tok.clone())),
        )
        .unwrap();
    assert!(
        nplan.num_dense_steps() >= 1,
        "fixture must have intermediates"
    );
    let pool = Arc::new(nplan.pool());

    {
        let mut exec = nplan
            .bind_pooled(&pool, fx.csf.clone(), &fx.named())
            .unwrap();
        // A successful run fills the intermediates with nonzero values…
        let got = exec.execute().unwrap();
        assert!(got.to_dense().approx_eq(&fx.want, TOL));
        // …then a cancelled attempt leaves them (from the cancelled
        // run's perspective) partially written.
        tok.cancel();
        assert!(exec.execute().is_err(), "cancelled run must error");
        // Drop checks the set back into the pool.
    }
    tok.reset();
    assert_eq!(pool.available(), 1, "the set must still be pooled");
    let set = pool.checkout();
    assert!(
        set.iter().all(|t| t.as_slice().iter().all(|&v| v == 0.0)),
        "a workspace recycled after a cancelled execution must be scrubbed to zero"
    );
    pool.checkin(set);

    // Sanity: a fresh pooled bind on the scrubbed set still computes
    // the right answer.
    let mut exec = nplan
        .bind_pooled(&pool, fx.csf.clone(), &fx.named())
        .unwrap();
    assert!(exec.execute().unwrap().to_dense().approx_eq(&fx.want, TOL));
}
