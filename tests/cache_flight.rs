//! PlanCache concurrency: misses are single-flight per key — N threads
//! racing a cold key run the planner once, not N times.

mod common;

use spttn::{Contraction, ModeOrderPolicy, PlanCache, PlanOptions, Shapes};
use spttn_net::{NetOptions, Network, NetworkPlan};
use std::sync::{Arc, Barrier};

const EXPR: &str = "T[i,j,k]*B[j,r]*C[k,r]->A[i,r]";

fn shapes() -> Shapes {
    Shapes::new()
        .with_dims(&[("i", 40), ("j", 30), ("k", 20), ("r", 8)])
        .with_nnz(1500)
}

#[test]
fn racing_threads_plan_once() {
    let cache = PlanCache::new();
    let opts = PlanOptions::default();
    const THREADS: usize = 8;
    let barrier = Arc::new(Barrier::new(THREADS));

    let plans: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let cache = &cache;
                let opts = &opts;
                scope.spawn(move || {
                    let c = Contraction::parse(EXPR).unwrap();
                    let shapes = shapes();
                    // Line everyone up so all lookups hit the cold key
                    // together — the thundering-herd scenario.
                    barrier.wait();
                    cache.plan(c, &shapes, opts).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // One planner run; everyone else waited on the flight and shares
    // the same Arc.
    assert_eq!(cache.misses(), 1, "planner must run exactly once");
    assert_eq!(cache.hits(), (THREADS - 1) as u64);
    assert_eq!(cache.len(), 1);
    for p in &plans[1..] {
        assert!(Arc::ptr_eq(&plans[0], p));
    }
}

#[test]
fn racing_threads_on_distinct_keys_plan_each() {
    // Sanity check the other direction: different keys never share a
    // flight.
    let cache = PlanCache::new();
    let opts_a = PlanOptions::default();
    let opts_b = PlanOptions::default().with_mode_order(ModeOrderPolicy::Auto);
    std::thread::scope(|scope| {
        let cache = &cache;
        let a = scope.spawn({
            let opts = opts_a.clone();
            move || cache.plan(Contraction::parse(EXPR).unwrap(), &shapes(), &opts)
        });
        let b = scope.spawn({
            let opts = opts_b.clone();
            move || cache.plan(Contraction::parse(EXPR).unwrap(), &shapes(), &opts)
        });
        a.join().unwrap().unwrap();
        b.join().unwrap().unwrap();
    });
    assert_eq!(cache.misses(), 2);
    assert_eq!(cache.len(), 2);
}

#[test]
fn failed_flights_are_not_cached() {
    // A `Fixed` order that is not a permutation fails planning every
    // time; the error must propagate to the caller but never be pinned
    // in the cache, so every retry runs the planner again.
    let cache = PlanCache::new();
    let broken = PlanOptions::default().with_mode_order(ModeOrderPolicy::Fixed(vec![0, 0, 1]));

    for _ in 0..2 {
        let e = cache.plan(Contraction::parse(EXPR).unwrap(), &shapes(), &broken);
        assert!(e.is_err());
    }
    // Each attempt re-ran the planner (no error caching)...
    assert_eq!(cache.misses(), 2);
    // ...and nothing was retained.
    assert_eq!(cache.len(), 0);
    assert!(cache.is_empty());

    // With the permutation repaired the lookup plans and caches normally.
    let fixed = broken.with_mode_order(ModeOrderPolicy::Fixed(vec![0, 2, 1]));
    cache
        .plan(Contraction::parse(EXPR).unwrap(), &shapes(), &fixed)
        .unwrap();
    assert_eq!(cache.len(), 1);
}

/// A cache hit must honor the *caller's* execution options, not the
/// flight leader's: the symbolic nest is shared, but the thread count
/// is re-applied on mismatch. Matching options keep sharing one `Arc`
/// (no clone). The cached nest also serves the serial reference — the
/// cross-check workflow: a hit re-bound at 4 threads must land on what
/// the leader's plan computes at one tile on the scalar tier.
#[test]
fn cache_hit_reapplies_callers_exec_options() {
    use rand::prelude::*;
    use spttn::tensor::{random_coo, random_dense, Csf};
    use spttn::Threads;
    let cache = PlanCache::new();
    let serial_opts = PlanOptions::default();
    let p1 = cache
        .plan(Contraction::parse(EXPR).unwrap(), &shapes(), &serial_opts)
        .unwrap();
    assert_eq!(p1.exec().threads, Threads::N(1));

    // Same key, different thread count: hit, but the returned plan
    // must bind the caller's four threads.
    let par_opts = PlanOptions::default().with_threads(Threads::N(4));
    let p2 = cache
        .plan(Contraction::parse(EXPR).unwrap(), &shapes(), &par_opts)
        .unwrap();
    assert_eq!((cache.hits(), cache.misses()), (1, 1));
    assert_eq!(p2.exec().threads, Threads::N(4));
    assert!(!Arc::ptr_eq(&p1, &p2), "mismatched exec needs a new Arc");

    let mut rng = StdRng::seed_from_u64(5);
    let coo = random_coo(&[40, 30, 20], 1500, &mut rng).unwrap();
    let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
    let (b, c) = (
        random_dense(&[30, 8], &mut rng),
        random_dense(&[20, 8], &mut rng),
    );
    let (want, _) = common::scalar_reference(&p1, &csf, &[("B", &b), ("C", &c)]);
    let mut exec = p2.bind(csf, &[("B", &b), ("C", &c)]).unwrap();
    assert_eq!(exec.threads(), 4);
    assert!(want
        .to_dense()
        .approx_eq(&exec.execute().unwrap().to_dense(), 1e-9));

    // Matching options keep sharing the cached Arc untouched.
    let p3 = cache
        .plan(Contraction::parse(EXPR).unwrap(), &shapes(), &serial_opts)
        .unwrap();
    assert!(Arc::ptr_eq(&p1, &p3));
}

/// Regression: the microkernel policy must survive a cache hit exactly
/// like threads. A bitwise-reproducibility caller forcing
/// `Microkernels::Scalar` on a kernel some earlier caller planned with
/// the default `Auto` must get a plan that binds scalar kernels — not
/// silently inherit the flight leader's SIMD selection.
#[test]
fn cache_hit_reapplies_microkernel_option() {
    use spttn::Microkernels;
    let cache = PlanCache::new();
    let p1 = cache
        .plan(
            Contraction::parse(EXPR).unwrap(),
            &shapes(),
            &PlanOptions::default(),
        )
        .unwrap();
    assert_eq!(p1.exec().microkernels, Microkernels::Auto);

    let scalar_opts = PlanOptions::default().with_microkernels(Microkernels::Scalar);
    let p2 = cache
        .plan(Contraction::parse(EXPR).unwrap(), &shapes(), &scalar_opts)
        .unwrap();
    assert_eq!((cache.hits(), cache.misses()), (1, 1), "same key: a hit");
    assert_eq!(
        p2.exec().microkernels,
        Microkernels::Scalar,
        "hit must re-apply the caller's microkernel policy"
    );
    assert!(!Arc::ptr_eq(&p1, &p2), "mismatched exec needs a new Arc");

    // The cached entry itself is untouched: a third default caller
    // still shares the original Auto Arc.
    let p3 = cache
        .plan(
            Contraction::parse(EXPR).unwrap(),
            &shapes(),
            &PlanOptions::default(),
        )
        .unwrap();
    assert!(Arc::ptr_eq(&p1, &p3));
}

/// One network per CP-ALS mode, planned twice against a shared cache:
/// the cold pass misses once per distinct collapsed kernel, the second
/// pass re-plans nothing — every step is a hit.
#[test]
fn network_sweep_hits_cache_on_second_pass() {
    let cache = PlanCache::new();
    let nopts = NetOptions::default();
    let sweep = [
        "T[i,j,k]*B[j,r]*C[k,r] -> A_new[i,r]",
        "T[i,j,k]*A[i,r]*C[k,r] -> B_new[j,r]",
        "T[i,j,k]*A[i,r]*B[j,r] -> C_new[k,r]",
    ];
    for pass in 0..2 {
        for expr in &sweep {
            Network::parse(expr)
                .unwrap()
                .plan_cached(&cache, &shapes(), &nopts)
                .unwrap();
        }
        if pass == 0 {
            assert_eq!(
                (cache.hits(), cache.misses()),
                (0, 3),
                "cold pass plans each mode exactly once"
            );
        }
    }
    assert_eq!(cache.misses(), 3, "second pass must not re-plan any step");
    assert_eq!(cache.hits(), 3);
    assert_eq!(cache.len(), 3);
}

/// Two distinct networks, two racing planner threads each, one shared
/// cache: single-flight holds per collapsed-kernel key, so each network
/// plans exactly once and the racer on the same key waits and shares
/// the same `Arc<Plan>`.
#[test]
fn racing_networks_share_flights() {
    let cache = PlanCache::new();
    let nopts = NetOptions::default();
    let exprs = [
        "T[i,j,k]*B[j,r]*C[k,r] -> A_new[i,r]",
        "T[i,j,k]*A[i,r]*C[k,r] -> B_new[j,r]",
    ];
    const RACERS: usize = 2;
    let barrier = Arc::new(Barrier::new(exprs.len() * RACERS));
    let plans: Vec<Vec<NetworkPlan>> = std::thread::scope(|scope| {
        let handles: Vec<Vec<_>> = exprs
            .iter()
            .map(|expr| {
                (0..RACERS)
                    .map(|_| {
                        let barrier = Arc::clone(&barrier);
                        let cache = &cache;
                        let nopts = &nopts;
                        scope.spawn(move || {
                            let net = Network::parse(expr).unwrap();
                            let shapes = shapes();
                            barrier.wait();
                            net.plan_cached(cache, &shapes, nopts).unwrap()
                        })
                    })
                    .collect()
            })
            .collect();
        handles
            .into_iter()
            .map(|hs| hs.into_iter().map(|h| h.join().unwrap()).collect())
            .collect()
    });
    assert_eq!(cache.misses(), 2, "one planner run per distinct network");
    assert_eq!(cache.hits(), 2);
    assert_eq!(cache.len(), 2);
    for group in &plans {
        assert!(
            Arc::ptr_eq(group[0].kernel_plan(), group[1].kernel_plan()),
            "racers on one key must share the flight leader's plan"
        );
    }
}

/// Pattern-backed keys carry the pattern's subset counts, computed once
/// by `Shapes::with_pattern`: equal patterns hit whether they come from
/// one `Shapes` (a clone shares the counts) or two built apart, and a
/// different pattern with the same dims and nnz misses.
#[test]
fn pattern_keys_hit_on_equal_patterns_and_miss_on_different_ones() {
    use rand::prelude::*;
    use spttn::tensor::random_coo;
    let dims = [40usize, 30, 20];
    let mut rng = StdRng::seed_from_u64(29);
    let coo = random_coo(&dims, 300, &mut rng).unwrap();
    let other = random_coo(&dims, 300, &mut rng).unwrap();
    assert_ne!(coo.coords(), other.coords());
    let with = |pattern| {
        Shapes::new()
            .with_dims(&[("i", 40), ("j", 30), ("k", 20), ("r", 8)])
            .with_pattern(pattern)
    };
    let cache = PlanCache::new();
    let opts = PlanOptions::default().with_mode_order(ModeOrderPolicy::Auto);
    let plan = |shapes: &Shapes| {
        cache
            .plan(Contraction::parse(EXPR).unwrap(), shapes, &opts)
            .unwrap()
    };
    let shapes = with(coo.clone());
    let first = plan(&shapes);
    assert!(Arc::ptr_eq(&first, &plan(&shapes.clone())));
    assert!(Arc::ptr_eq(&first, &plan(&with(coo))));
    assert_eq!((cache.hits(), cache.misses()), (2, 1));
    let _ = plan(&with(other));
    assert_eq!(
        (cache.hits(), cache.misses()),
        (2, 2),
        "a different pattern re-plans"
    );
}

/// The plan is a function of the pattern's subset counts, and so is the
/// key: a pattern relabeled within one mode (a bijection on that mode's
/// coordinates keeps every distinct-projection count) hits the plan
/// cached for the original, and planning it without a cache gives the
/// same plan.
#[test]
fn a_pattern_relabeled_within_a_mode_hits_and_plans_the_same() {
    use rand::prelude::*;
    use spttn::tensor::{random_coo, CooTensor};
    let dims = [40usize, 30, 20];
    let mut rng = StdRng::seed_from_u64(36);
    let coo = random_coo(&dims, 300, &mut rng).unwrap();
    let mut label: Vec<usize> = (0..dims[1]).collect();
    for i in (1..label.len()).rev() {
        label.swap(i, rng.gen_range(0..i + 1));
    }
    let relabeled = CooTensor::from_entries(
        &dims,
        coo.iter().map(|(c, v)| (vec![c[0], label[c[1]], c[2]], v)),
    )
    .unwrap();
    assert_ne!(relabeled.coords(), coo.coords());
    let with = |pattern| {
        Shapes::new()
            .with_dims(&[("i", 40), ("j", 30), ("k", 20), ("r", 8)])
            .with_pattern(pattern)
    };
    let cache = PlanCache::new();
    let opts = PlanOptions::default().with_mode_order(ModeOrderPolicy::Auto);
    let plan = |shapes: &Shapes| {
        cache
            .plan(Contraction::parse(EXPR).unwrap(), shapes, &opts)
            .unwrap()
    };
    let first = plan(&with(coo));
    assert!(Arc::ptr_eq(&first, &plan(&with(relabeled.clone()))));
    assert_eq!((cache.hits(), cache.misses()), (1, 1));
    let uncached = Contraction::parse(EXPR)
        .unwrap()
        .plan(&with(relabeled), &opts)
        .unwrap();
    assert_eq!(uncached.describe(), first.describe());
}
