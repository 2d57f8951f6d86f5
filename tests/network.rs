//! Golden suite for the multi-kernel tensor-network scheduler
//! (`spttn-net`): every network — CP-ALS sweep, tensor-train, a
//! five-tensor chain, and a network forcing off-spine dense steps —
//! must reproduce the naive whole-network einsum oracle under the
//! greedy order (budget 0) and the default search, serial and parallel
//! (and so must the reference interpreter, run on the network
//! flattened to one kernel);
//! the budgeted exact search must match brute-force order enumeration;
//! and pooled executors must move and reuse workspaces across threads.

mod common;
#[path = "common/networks.rs"]
mod networks;

use networks::{Fixture, CP_ALS, DENSE_CHAIN, FIVE_TENSOR, PRIVATE_INDEX, TENSOR_TRAIN};
use spttn::ir::enumerate_paths;
use spttn::tensor::DenseTensor;
use spttn::{Contraction, PlanCache, PlanOptions, RunBudget, SpttnError, Threads};
use spttn_net::{modeled_path_flops, NetOptions, Network};
use std::sync::Arc;

const TOL: f64 = 1e-9;

/// Plan + bind + execute under every (order-search budget × threads)
/// combination, sharing one `PlanCache`, and compare to the oracle.
/// Budget 0 plans the greedy order.
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
    for budget in [0, NetOptions::default().budget] {
        for threads in [1usize, 4] {
            let popts = PlanOptions::default()
                .with_threads(Threads::N(threads))
                .with_microkernels(spttn::Microkernels::Scalar);
            let nopts = NetOptions::default()
                .with_budget(budget)
                .with_plan_options(popts);
            let nplan = fx
                .net
                .plan_cached(&cache, &fx.shapes, &nopts)
                .unwrap_or_else(|e| panic!("plan {expr} (budget {budget}): {e}"));
            let mut exec = nplan.bind(fx.csf.clone(), &fx.named()).unwrap();
            let got = exec.execute().unwrap();
            assert!(
                got.to_dense().approx_eq(&fx.want, TOL),
                "{expr}: mismatch at budget {budget}, {threads} thread(s)\n{}",
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
fn private_index_network_matches_oracle() {
    check_all(&Fixture::golden(&PRIVATE_INDEX));
}

#[test]
fn dense_chain_network_matches_oracle() {
    let fx = Fixture::golden(&DENSE_CHAIN);
    let greedy = NetOptions::default().with_budget(0);
    let nplan = fx.net.plan(&fx.shapes, &greedy).unwrap();
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

/// A network bind passes the collapsed kernel's admission rule with its
/// dense steps and intermediates on top. The factored shape under its
/// greedy order (budget 0, which has a dense step) at 4 threads with
/// exactly the one-thread charge binds at one thread — the 4-thread
/// bind would hold 3 output partials more — and one byte, or one flop,
/// under the network totals is refused naming them.
#[test]
fn network_budget_is_the_kernel_rule_plus_the_dense_steps() {
    let fx = Fixture::new(
        "T[i,j,k]*A[j,m]*D[m,r]*B[k,r] -> O[i,r]",
        &[("i", 40), ("j", 30), ("k", 8), ("m", 16), ("r", 32)],
        &[40, 30, 8],
        600,
        41,
    );
    let plan = |budget: RunBudget| {
        let popts = PlanOptions::default()
            .with_threads(Threads::N(4))
            .with_budget(budget);
        let nopts = NetOptions::default()
            .with_budget(0)
            .with_plan_options(popts);
        fx.net.plan(&fx.shapes, &nopts).unwrap()
    };
    let bind = |budget| plan(budget).bind(fx.csf.clone(), &fx.named());
    let probe = plan(RunBudget::default());
    assert!(probe.num_dense_steps() > 0, "{}", probe.describe());
    let kernel = probe.kernel_plan();
    let one_thread = 8 * kernel.parallel_footprint(1) + probe.intermediate_bytes();
    assert_eq!(one_thread, 33_792, "{}", probe.describe());
    let bytes = |b: u128| RunBudget::default().with_max_workspace_bytes(u64::try_from(b).unwrap());

    let mut exec = bind(bytes(one_thread)).unwrap();
    assert_eq!(exec.threads(), 1, "the one-thread charge admits one thread");
    assert!(exec.execute().unwrap().to_dense().approx_eq(&fx.want, TOL));
    assert_eq!(
        bind(bytes(one_thread - 1)).map(|_| ()),
        Err(SpttnError::BudgetExceeded {
            resource: "workspace bytes",
            predicted: one_thread,
            allowed: one_thread - 1,
        })
    );

    let flops = probe.dense_step_flops().iter().sum::<u128>() + kernel.flops;
    let flops_cap = |f| RunBudget::default().with_max_modeled_flops(f);
    assert!(bind(flops_cap(flops)).is_ok());
    assert_eq!(
        bind(flops_cap(flops - 1)).map(|_| ()),
        Err(SpttnError::BudgetExceeded {
            resource: "modeled flops",
            predicted: flops,
            allowed: flops - 1,
        })
    );
}

/// A network bind refuses what a kernel bind refuses
/// (`tests/reuse.rs::bind_rejects_shape_mismatches`): a name bound
/// twice, an unknown name and a missing factor with the same error the
/// network's kernel, flattened, gives; wrong dims with a shape error,
/// on a factor only a dense step reads and on one the collapsed kernel
/// reads.
#[test]
fn network_bind_rejects_what_a_kernel_bind_rejects() {
    let fx = Fixture::new(
        "T[i,j,k]*A[j,m]*D[m,r]*B[k,r] -> O[i,r]",
        &[("i", 40), ("j", 30), ("k", 8), ("m", 16), ("r", 32)],
        &[40, 30, 8],
        600,
        41,
    );
    let greedy = NetOptions::default().with_budget(0);
    let nplan = fx.net.plan(&fx.shapes, &greedy).unwrap();
    let collapsed = &nplan.kernel_plan().kernel().inputs;
    let named = fx.named();
    let feeds_kernel = |name: &str| collapsed.iter().any(|r| r.name == name);
    let step_only = named.iter().find(|(n, _)| !feeds_kernel(n));
    let kernel_fed = named.iter().find(|(n, _)| feeds_kernel(n));
    let (Some(&(step_only, _)), Some(&(kernel_fed, _))) = (step_only, kernel_fed) else {
        panic!(
            "expected a factor only a dense step reads and one the kernel reads:\n{}",
            nplan.describe()
        );
    };
    let flat = Contraction::from_kernel(fx.net.kernel(&fx.shapes).unwrap())
        .plan(&fx.shapes, &PlanOptions::default())
        .unwrap();
    let net_bind = |factors: &[(&str, &DenseTensor)]| {
        nplan.bind(fx.csf.clone(), factors).map(|_| ()).unwrap_err()
    };
    let flat_bind = |factors: &[(&str, &DenseTensor)]| {
        flat.bind(fx.csf.clone(), factors).map(|_| ()).unwrap_err()
    };

    let first = named[0];
    let with = |extra| named.iter().copied().chain([extra]).collect::<Vec<_>>();
    for (case, factors) in [
        ("bound twice", with(first)),
        ("does not appear", with(("Z", first.1))),
        ("not bound", named[..named.len() - 1].to_vec()),
    ] {
        let e = net_bind(&factors);
        assert!(
            matches!(&e, SpttnError::Execution(m) if m.contains(case)),
            "{case}: {e:?}"
        );
        assert_eq!(e, flat_bind(&factors), "{case}");
    }
    for name in [step_only, kernel_fed] {
        let (_, t) = named.iter().find(|(n, _)| *n == name).unwrap();
        let mut dims = t.dims().to_vec();
        *dims.last_mut().unwrap() += 1;
        let wrong = DenseTensor::zeros(&dims);
        let factors: Vec<(&str, &DenseTensor)> = named
            .iter()
            .map(|&(n, t)| (n, if n == name { &wrong } else { t }))
            .collect();
        let e = net_bind(&factors);
        assert!(matches!(e, SpttnError::Shape(_)), "{name}: {e:?}");
        assert!(
            matches!(flat_bind(&factors), SpttnError::Shape(_)),
            "{name}"
        );
    }
    assert!(nplan.bind(fx.csf.clone(), &named).is_ok());
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
    let fixtures = cases
        .into_iter()
        .map(|(expr, dims, sparse_dims)| Fixture::new(expr, dims, sparse_dims, 160, 41))
        .chain([Fixture::golden(&PRIVATE_INDEX)]);
    for fx in fixtures {
        let expr = fx.net.expr();
        let nplan = fx.net.plan(&fx.shapes, &NetOptions::default()).unwrap();
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
    // The greedy order (budget 0) materializes D1*D2.
    let greedy = NetOptions::default().with_budget(0);
    let nplan = fx.net.plan(&fx.shapes, &greedy).unwrap();
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
                .with_budget(0)
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
