//! Cancellation determinism: a cancelled-then-retried executor must
//! produce output **bitwise identical** to a fresh, never-cancelled
//! run — cancellation may leave no sticky state in workspaces, pool
//! workers, or outputs. Asserted for the kernel executor at 1 and 4
//! threads (token and deadline variants), for root-level fused
//! sparse-AXPY and sparse-DOT loops, and for the network executor,
//! between dense steps and inside one.

use rand::prelude::*;
use spttn::tensor::{random_coo, random_dense, Csf, DenseTensor};
use spttn::{
    CancelToken, Contraction, ContractionOutput, Microkernels, PlanOptions, Shapes, SpttnError,
    TapeReport, Threads,
};
use spttn_net::{NetOptions, Network};
use std::time::Duration;

const EXPR: &str = "T[i,j,k]*A[j,r]*B[k,r]->O[i,r]";

fn bits(out: &ContractionOutput) -> Vec<u64> {
    match out {
        ContractionOutput::Dense(d) => d.as_slice().iter().map(|v| v.to_bits()).collect(),
        ContractionOutput::Sparse(c) => c.vals().iter().map(|v| v.to_bits()).collect(),
    }
}

#[test]
fn cancelled_then_retried_is_bitwise_identical_to_fresh() {
    let mut rng = StdRng::seed_from_u64(23);
    let coo = random_coo(&[24, 16, 18], 500, &mut rng).unwrap();
    let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
    let a = random_dense(&[16, 6], &mut rng);
    let b = random_dense(&[18, 6], &mut rng);
    let factors: Vec<(&str, &DenseTensor)> = vec![("A", &a), ("B", &b)];
    let shapes = Shapes::new()
        .with_dims(&[("i", 24), ("j", 16), ("k", 18), ("r", 6)])
        .with_pattern(csf.to_coo());

    for threads in [1usize, 4] {
        let base = PlanOptions::default()
            .with_threads(Threads::N(threads))
            .with_microkernels(Microkernels::Scalar);

        // Fresh, never-cancelled reference at this thread count.
        let plan = Contraction::parse(EXPR)
            .unwrap()
            .plan(&shapes, &base)
            .unwrap();
        let mut fresh = plan.bind(csf.clone(), &factors).unwrap();
        let want = bits(&fresh.execute().unwrap());

        // Token variant: cancel before execute, then reset and retry on
        // the SAME executor.
        let tok = CancelToken::new();
        let plan = Contraction::parse(EXPR)
            .unwrap()
            .plan(&shapes, &base.clone().with_cancel(tok.clone()))
            .unwrap();
        let mut exec = plan.bind(csf.clone(), &factors).unwrap();
        tok.cancel();
        match exec.execute() {
            Err(SpttnError::Cancelled { .. }) => {}
            other => panic!("{threads} thread(s): expected Cancelled, got {other:?}"),
        }
        tok.reset();
        let got = bits(&exec.execute().unwrap());
        assert_eq!(
            got, want,
            "{threads} thread(s): retry after token cancel must be bitwise identical"
        );

        // Deadline variant: an expired deadline cancels; a fresh
        // executor without one reproduces the reference bitwise.
        let plan = Contraction::parse(EXPR)
            .unwrap()
            .plan(&shapes, &base.clone().with_deadline(Duration::ZERO))
            .unwrap();
        let mut exec = plan.bind(csf.clone(), &factors).unwrap();
        assert!(
            matches!(exec.execute(), Err(SpttnError::Cancelled { .. })),
            "{threads} thread(s): zero deadline must cancel"
        );
        let plan = Contraction::parse(EXPR)
            .unwrap()
            .plan(&shapes, &base)
            .unwrap();
        let mut exec = plan.bind(csf.clone(), &factors).unwrap();
        assert_eq!(
            bits(&exec.execute().unwrap()),
            want,
            "{threads} thread(s): run after deadline rejection must be bitwise identical"
        );
    }
}

/// An order-1 sparse operand: the whole tape is one fused sparse loop
/// over the CSF roots — an AXPY body, or a DOT one — which keeps the
/// root frame's cancellation checkpoint and leaves nothing behind when
/// cancelled.
#[test]
fn root_level_fused_loop_cancel_then_retry_is_bitwise_identical() {
    let mut rng = StdRng::seed_from_u64(31);
    let coo = random_coo(&[400], 120, &mut rng).unwrap();
    let csf = Csf::from_coo(&coo, &[0]).unwrap();
    let b = random_dense(&[400, 8], &mut rng);
    let v = random_dense(&[8], &mut rng);
    let shapes = Shapes::new()
        .with_dims(&[("i", 400), ("a", 8)])
        .with_pattern(csf.to_coo());
    // Expression, factors, and the report count of its fused loop.
    type Case<'a> = (
        &'a str,
        &'a [(&'a str, &'a DenseTensor)],
        fn(&TapeReport) -> usize,
    );
    let cases: [Case; 2] = [
        ("T[i]*B[i,a]->y[a]", &[("B", &b)], |r| r.sparse_axpys),
        ("T[i]*B[i,a]*v[a]->S[i]", &[("B", &b), ("v", &v)], |r| {
            r.sparse_dots
        }),
    ];

    for (expr, factors, fused_loops) in cases {
        let plan_with = |opts: &PlanOptions| {
            Contraction::parse(expr)
                .unwrap()
                .plan(&shapes, opts)
                .unwrap()
        };
        for threads in [1usize, 4] {
            let base = PlanOptions::default().with_threads(Threads::N(threads));
            let want = bits(
                &plan_with(&base)
                    .bind(csf.clone(), factors)
                    .unwrap()
                    .execute()
                    .unwrap(),
            );

            let tok = CancelToken::new();
            let mut exec = plan_with(&base.clone().with_cancel(tok.clone()))
                .bind(csf.clone(), factors)
                .unwrap();
            // One fused loop at every kernel tier.
            assert_eq!(fused_loops(&exec.tape().verify().unwrap()), 1, "{expr}");
            tok.cancel();
            match exec.execute() {
                Err(SpttnError::Cancelled { .. }) => {}
                other => panic!("{expr} @ {threads}t: expected Cancelled, got {other:?}"),
            }
            tok.reset();
            assert_eq!(
                bits(&exec.execute().unwrap()),
                want,
                "{expr} @ {threads}t: retry after cancel must be bitwise identical"
            );
        }
    }
}

#[test]
fn network_cancel_then_retry_is_bitwise_identical() {
    let mut rng = StdRng::seed_from_u64(29);
    let coo = random_coo(&[30, 20], 350, &mut rng).unwrap();
    let csf = Csf::from_coo(&coo, &[0, 1]).unwrap();
    let d1 = random_dense(&[20, 4], &mut rng);
    let d2 = random_dense(&[4, 5], &mut rng);
    let net = Network::parse("T[i,j]*D1[j,m]*D2[m,r]->O[i,r]").unwrap();
    let shapes = Shapes::new()
        .with_dims(&[("i", 30), ("j", 20), ("m", 4), ("r", 5)])
        .with_pattern(csf.to_coo());

    let tok = CancelToken::new();
    let popts = PlanOptions::default()
        .with_microkernels(Microkernels::Scalar)
        .with_cancel(tok.clone());
    // The greedy order (budget 0) materializes D1*D2.
    let nopts = NetOptions::default()
        .with_budget(0)
        .with_plan_options(popts);
    let nplan = net.plan(&shapes, &nopts).unwrap();
    assert!(nplan.num_dense_steps() >= 1, "fixture must exercise steps");
    let mut exec = nplan.bind(csf, &[("D1", &d1), ("D2", &d2)]).unwrap();

    let want = bits(&exec.execute().unwrap());
    tok.cancel();
    match exec.execute() {
        Err(SpttnError::Cancelled { phase, .. }) => assert_eq!(phase, "network"),
        other => panic!("expected network Cancelled, got {other:?}"),
    }
    tok.reset();
    assert_eq!(
        bits(&exec.execute().unwrap()),
        want,
        "network retry after cancel must be bitwise identical"
    );
}

#[test]
fn deadline_interrupts_a_dense_step() {
    // One off-spine step, `D1(j,m)*D2(m,r)` at 128×M×128, that is all K
    // sweep, against a cancel 2 ms in. The step has to outlast that
    // delay some fifty times over for the time bounds below to hold on
    // a busy runner, and an unoptimized build runs it ≈ 25× slower, so
    // M follows the profile: ≈ 0.7 s of step in a debug build, ≈ 140 ms
    // in release. The sparse tensor is a full 512×128 block so that
    // contracting it first models more flops than `D1*D2` does.
    const M: usize = if cfg!(debug_assertions) {
        4_000
    } else {
        20_000
    };
    let mut rng = StdRng::seed_from_u64(37);
    let coo = random_coo(&[512, 128], 512 * 128, &mut rng).unwrap();
    let csf = Csf::from_coo(&coo, &[0, 1]).unwrap();
    let d1 = random_dense(&[128, M], &mut rng);
    let d2 = random_dense(&[M, 128], &mut rng);
    let factors: [(&str, &DenseTensor); 2] = [("D1", &d1), ("D2", &d2)];
    let net = Network::parse("T[i,j]*D1[j,m]*D2[m,r]->O[i,r]").unwrap();
    let shapes = Shapes::new()
        .with_dims(&[("i", 512), ("j", 128), ("m", M), ("r", 128)])
        .with_pattern(csf.to_coo());
    let plan_with = |popts: PlanOptions| {
        let nplan = net
            .plan(&shapes, &NetOptions::default().with_plan_options(popts))
            .unwrap();
        assert_eq!(nplan.num_dense_steps(), 1, "{}", nplan.describe());
        nplan
    };

    // A fresh, unguarded run: the reference bits and the step's time.
    let mut fresh = plan_with(PlanOptions::default())
        .bind(csf.clone(), &factors)
        .unwrap();
    let t0 = std::time::Instant::now();
    let want = bits(&fresh.execute().unwrap());
    let full = t0.elapsed();

    // The deadline fires inside the step, not after it, and the pooled
    // workspace it was writing comes back scrubbed.
    let nplan = plan_with(PlanOptions::default().with_deadline(Duration::from_millis(2)));
    let pool = std::sync::Arc::new(nplan.pool());
    let mut exec = nplan.bind_pooled(&pool, csf.clone(), &factors).unwrap();
    match exec.execute() {
        Err(SpttnError::Cancelled { phase, elapsed }) => {
            assert_eq!(phase, "network");
            assert!(
                elapsed < full / 2,
                "cancelled after {elapsed:?}; the whole run takes {full:?}"
            );
        }
        other => panic!("expected network Cancelled, got {other:?}"),
    }
    drop(exec);
    let set = pool.checkout();
    assert!(
        set.iter().all(|t| t.as_slice().iter().all(|&v| v == 0.0)),
        "a workspace interrupted mid-step must come back scrubbed"
    );

    // The same interruption by token, so that the executor can be
    // retried: nothing of the abandoned walk may stick.
    let tok = CancelToken::new();
    let nplan = plan_with(PlanOptions::default().with_cancel(tok.clone()));
    let mut exec = nplan.bind(csf, &factors).unwrap();
    let cancelled = std::thread::scope(|s| {
        s.spawn(|| {
            std::thread::sleep(Duration::from_millis(2));
            tok.cancel();
        });
        exec.execute()
    });
    match cancelled {
        Err(SpttnError::Cancelled { phase, elapsed }) => {
            assert_eq!(phase, "network");
            assert!(
                elapsed < full / 2,
                "cancelled after {elapsed:?} of {full:?}"
            );
        }
        other => panic!("expected network Cancelled, got {other:?}"),
    }
    tok.reset();
    assert_eq!(
        bits(&exec.execute().unwrap()),
        want,
        "retry after an in-step cancel must be bitwise identical to a fresh run"
    );
}
