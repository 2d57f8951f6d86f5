//! Mode-order search benchmark: `ModeOrderPolicy::Natural` vs `Auto`
//! planning time (the search replans once per candidate order — up to
//! `d!` for `d ≤ 4` sparse modes), plus the modeled win — in executed
//! work, the score the search compares orders on — that it buys on a
//! lopsided tensor.
//!
//! Run with `cargo bench -p spttn-bench --bench mode_order`.

use rand::prelude::*;
use spttn::tensor::{random_coo, CooTensor};
use spttn::{Contraction, CostModel, ModeOrderPolicy, PlanOptions, Shapes};
use spttn_bench::{black_box, Harness};

const MTTKRP: &str = "A(i,a) = T(i,j,k) * B(j,a) * C(k,a)";
const TTMC4: &str = "S(i,r,s,t) = T(i,j,k,l) * U(j,r) * V(k,s) * W(l,t)";

fn pattern(dims: &[usize], nnz: usize, seed: u64) -> CooTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    random_coo(dims, nnz, &mut rng).unwrap()
}

fn main() {
    let mut h = Harness::new("ModeOrderPolicy planning cost (pattern-guided)");

    // Lopsided 3-mode MTTKRP: the search's showcase — a tiny trailing
    // mode, sparse enough that the (i,k) prefix compresses while (i,j)
    // stays near-distinct.
    let coo3 = pattern(&[200, 200, 4], 600, 42);
    let shapes3 = Shapes::new()
        .with_dims(&[("i", 200), ("j", 200), ("k", 4), ("a", 16)])
        .with_pattern(coo3);
    // Symmetric 4-mode TTMc: worst-case candidate count (4! = 24 runs).
    let coo4 = pattern(&[24, 24, 24, 24], 4000, 43);
    let shapes4 = Shapes::new()
        .with_dims(&[
            ("i", 24),
            ("j", 24),
            ("k", 24),
            ("l", 24),
            ("r", 6),
            ("s", 6),
            ("t", 6),
        ])
        .with_pattern(coo4);

    let cases: [(&str, &str, &Shapes); 2] = [
        ("mttkrp-3d-lopsided", MTTKRP, &shapes3),
        ("ttmc-4d", TTMC4, &shapes4),
    ];
    let policies = [
        ("natural", ModeOrderPolicy::Natural),
        ("auto", ModeOrderPolicy::Auto),
    ];

    for (cname, expr, shapes) in &cases {
        for (pname, policy) in &policies {
            let shapes = (*shapes).clone();
            let opts = PlanOptions::with_cost_model(CostModel::BlasAware {
                buffer_dim_bound: 2,
            })
            .with_mode_order(policy.clone());
            let expr = expr.to_string();
            h.bench_function(&format!("{cname}/{pname}"), move || {
                let plan = Contraction::parse(&expr)
                    .unwrap()
                    .plan(&shapes, &opts)
                    .expect("plan succeeds");
                black_box(plan.flops);
            });
        }
    }
    h.finish();

    // Report the modeled win the search buys on the lopsided case.
    let base = PlanOptions::with_cost_model(CostModel::BlasAware {
        buffer_dim_bound: 2,
    });
    let natural = Contraction::parse(MTTKRP)
        .unwrap()
        .plan(&shapes3, &base)
        .unwrap();
    let auto = Contraction::parse(MTTKRP)
        .unwrap()
        .plan(
            &shapes3,
            &base.clone().with_mode_order(ModeOrderPolicy::Auto),
        )
        .unwrap();
    println!(
        "mttkrp-3d-lopsided modeled work: natural {:.1} us -> auto {:.1} us ({:.1}% cheaper, order {:?})",
        natural.work().ns() / 1e3,
        auto.work().ns() / 1e3,
        100.0 * (1.0 - auto.work().ns() / natural.work().ns()),
        auto.mode_order(),
    );
}
