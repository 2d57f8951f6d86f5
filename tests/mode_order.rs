//! End-to-end tests for the CSF mode-order search: `ModeOrderPolicy`
//! on `PlanOptions`, per-order cost reporting on `Plan`, and the
//! bind-time re-sort of written-order CSF tensors into the plan's
//! chosen storage order.

use rand::prelude::*;
use spttn::exec::naive_einsum;
use spttn::tensor::{random_coo, random_dense, skewed_coo, CooTensor, Csf, DenseTensor};
use spttn::{
    Contraction, ContractionOutput, CostModel, ModeOrderPolicy, Plan, PlanCache, PlanOptions,
    Shapes, Threads,
};

const TOL: f64 = 1e-9;

const MTTKRP: &str = "A(i,a) = T(i,j,k) * B(j,a) * C(k,a)";

/// A sparse tensor whose natural order is deliberately bad for MTTKRP:
/// a tiny trailing mode (`|k| = 4`) at 120 nonzeros, so the `(i,k)`
/// prefix partially saturates (~90 distinct pairs over 200 cells)
/// while `(i,j)` stays near-distinct (~117 over 2500). Pulling `k`
/// forward therefore strictly compresses the two-level prefix the
/// factorized MTTKRP schedule's second contraction iterates.
fn lopsided_coo(rng: &mut StdRng) -> CooTensor {
    random_coo(&[50, 50, 4], 120, rng).unwrap()
}

fn mttkrp_shapes(coo: &CooTensor) -> Shapes {
    Shapes::new()
        .with_dims(&[("i", 50), ("j", 50), ("k", 4), ("a", 8)])
        .with_pattern(coo.clone())
}

/// Oracle for a plan bound to `coo` + named factors: densify and run
/// the naive einsum over the natural (written-order) kernel.
fn oracle(plan: &Plan, coo: &CooTensor, factors: &[(&str, &DenseTensor)]) -> DenseTensor {
    let kernel = plan.natural_kernel();
    let sparse_dense = coo.to_dense();
    let mut slots: Vec<&DenseTensor> = Vec::new();
    for (slot, r) in kernel.inputs.iter().enumerate() {
        if slot == kernel.sparse_input {
            slots.push(&sparse_dense);
        } else {
            let (_, t) = factors
                .iter()
                .find(|(n, _)| *n == r.name)
                .expect("factor bound");
            slots.push(t);
        }
    }
    naive_einsum(&kernel, &slots).unwrap()
}

fn max_diff(got: &ContractionOutput, want: &DenseTensor) -> f64 {
    let got = match got {
        ContractionOutput::Dense(d) => d.clone(),
        ContractionOutput::Sparse(c) => c.to_dense(),
    };
    got.as_slice()
        .iter()
        .zip(want.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
}

#[test]
fn auto_beats_natural_on_lopsided_mttkrp() {
    let mut rng = StdRng::seed_from_u64(11);
    let coo = lopsided_coo(&mut rng);
    let shapes = mttkrp_shapes(&coo);
    let opts = PlanOptions::with_cost_model(CostModel::MaxBufferSize);

    let natural = Contraction::parse(MTTKRP)
        .unwrap()
        .plan(&shapes, &opts)
        .unwrap();
    assert!(natural.is_natural_order());
    assert_eq!(natural.mode_order(), &[0, 1, 2]);
    assert_eq!(natural.order_costs().len(), 1);

    let auto = Contraction::parse(MTTKRP)
        .unwrap()
        .plan(
            &shapes,
            &opts.clone().with_mode_order(ModeOrderPolicy::Auto),
        )
        .unwrap();
    // The acceptance bar: strictly less modeled work than the natural
    // order, visible both on the plan and in its search record.
    assert!(
        auto.work() < natural.work(),
        "auto {} !< natural {}",
        auto.work(),
        natural.work()
    );
    assert!(!auto.is_natural_order());
    assert_eq!(auto.order_costs().len(), 6, "3! candidate orders");
    let natural_entry = &auto.order_costs()[0];
    assert_eq!(natural_entry.order, vec![0, 1, 2]);
    assert_eq!(natural_entry.work.as_ref(), Some(natural.work()));
    assert_eq!(natural_entry.flops, Some(natural.flops));
    let chosen = auto
        .order_costs()
        .iter()
        .find(|oc| oc.order == auto.mode_order())
        .expect("chosen order is in the record");
    assert_eq!(chosen.work.as_ref(), Some(auto.work()));
    assert_eq!(chosen.flops, Some(auto.flops));
    // The chosen order is the minimum of the record.
    let least = auto
        .order_costs()
        .iter()
        .filter_map(|oc| oc.work)
        .map(|w| w.ns())
        .fold(f64::INFINITY, f64::min);
    assert_eq!(least, auto.work().ns());
    // describe() surfaces the non-natural storage order.
    assert!(auto.describe().contains("storage: CSF order"));
}

/// On a hypersparse tensor (almost every fiber a single nonzero) no
/// order compresses the tree much: every order models within a few
/// percent of the others, which is inside what the model cannot see
/// (locality, the re-sort at bind). Auto then keeps the natural order
/// (the path-flop comparison this replaced sent `mttkrp-hyper` to an
/// order 2.8x slower on the clock), and by the planner's own score it is
/// still never worse than natural.
#[test]
fn auto_keeps_natural_order_on_hypersparse_mttkrp() {
    let mut rng = StdRng::seed_from_u64(23);
    let coo = random_coo(&[60, 50, 40], 3_000, &mut rng).unwrap();
    let shapes = Shapes::new()
        .with_dims(&[("i", 60), ("j", 50), ("k", 40), ("a", 8)])
        .with_pattern(coo);
    let plan = |policy| {
        Contraction::parse(MTTKRP)
            .unwrap()
            .plan(&shapes, &PlanOptions::default().with_mode_order(policy))
            .unwrap()
    };
    let (natural, auto) = (plan(ModeOrderPolicy::Natural), plan(ModeOrderPolicy::Auto));
    assert!(auto.is_natural_order(), "{}", auto.describe());
    assert_eq!(auto.work(), natural.work());
    assert_eq!(auto.spec(), natural.spec());
    // Some order does model less work — but none by the margin an order
    // needs to displace the first candidate.
    let least = auto
        .order_costs()
        .iter()
        .map(|oc| oc.work.expect("every order is feasible").ns())
        .fold(f64::INFINITY, f64::min);
    assert!(least < natural.work().ns());
    assert!(natural.work().ns() < 1.10 * least);
    assert_eq!(auto.work().walks, 1.0, "{}", auto.describe());
    assert_eq!(auto.flops, auto.ideal_flops(), "{}", auto.describe());
}

#[test]
fn auto_plan_executes_correctly_from_written_order_csf() {
    let mut rng = StdRng::seed_from_u64(12);
    let coo = lopsided_coo(&mut rng);
    let shapes = mttkrp_shapes(&coo);
    let b = random_dense(&[50, 8], &mut rng);
    let c = random_dense(&[4, 8], &mut rng);
    let factors: Vec<(&str, &DenseTensor)> = vec![("B", &b), ("C", &c)];

    for threads in [1usize, 4] {
        let plan = Contraction::parse(MTTKRP)
            .unwrap()
            .plan(
                &shapes,
                &PlanOptions::with_cost_model(CostModel::MaxBufferSize)
                    .with_mode_order(ModeOrderPolicy::Auto)
                    .with_threads(Threads::N(threads)),
            )
            .unwrap();
        assert!(!plan.is_natural_order());
        // Bind hands over a *written-order* CSF; the plan re-sorts it.
        let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
        let mut exec = plan.bind(csf, &factors).unwrap();
        // The bound tree really is in the plan's order now.
        assert_eq!(
            exec.csf().mode_order(),
            plan.mode_order(),
            "threads {threads}"
        );
        let got = exec.execute().unwrap();
        let want = oracle(&plan, &coo, &factors);
        let diff = max_diff(&got, &want);
        assert!(diff <= TOL, "threads {threads}: diff {diff}");
    }
}

#[test]
fn fixed_policy_plans_and_executes_the_requested_order() {
    let mut rng = StdRng::seed_from_u64(13);
    let coo = random_coo(&[10, 8, 6], 60, &mut rng).unwrap();
    let shapes = Shapes::new()
        .with_dims(&[("i", 10), ("j", 8), ("k", 6), ("a", 5)])
        .with_pattern(coo.clone());
    let b = random_dense(&[8, 5], &mut rng);
    let c = random_dense(&[6, 5], &mut rng);
    let factors: Vec<(&str, &DenseTensor)> = vec![("B", &b), ("C", &c)];

    for order in [vec![2, 0, 1], vec![1, 2, 0], vec![0, 1, 2]] {
        let plan = Contraction::parse(MTTKRP)
            .unwrap()
            .plan(
                &shapes,
                &PlanOptions::default().with_mode_order(ModeOrderPolicy::Fixed(order.clone())),
            )
            .unwrap();
        assert_eq!(plan.mode_order(), &order[..]);
        assert_eq!(plan.order_costs().len(), 1);
        let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
        let mut exec = plan.bind(csf, &factors).unwrap();
        let got = exec.execute().unwrap();
        let diff = max_diff(&got, &oracle(&plan, &coo, &factors));
        assert!(diff <= TOL, "order {order:?}: diff {diff}");
    }
    // Fixed identity behaves exactly like Natural.
    let plan = Contraction::parse(MTTKRP)
        .unwrap()
        .plan(
            &shapes,
            &PlanOptions::default().with_mode_order(ModeOrderPolicy::Fixed(vec![0, 1, 2])),
        )
        .unwrap();
    assert!(plan.is_natural_order());

    // A bad permutation is an error, not a silent fallback.
    for bad in [vec![0usize, 1], vec![0, 0, 1], vec![0, 1, 3]] {
        let e = Contraction::parse(MTTKRP).unwrap().plan(
            &shapes,
            &PlanOptions::default().with_mode_order(ModeOrderPolicy::Fixed(bad)),
        );
        assert!(e.is_err());
    }
}

#[test]
fn sparse_output_kernel_reorders_correctly() {
    // TTTP: the output shares the sparse pattern; under a non-natural
    // order the entries are enumerated in the plan's leaf order but the
    // dense view must be unchanged — and shaped as the output is
    // written, whichever order that is.
    let mut rng = StdRng::seed_from_u64(14);
    let coo = skewed_coo(&[12, 9, 5], 70, 1.5, &mut rng).unwrap();
    let shapes = Shapes::new()
        .with_dims(&[("i", 12), ("j", 9), ("k", 5), ("r", 3)])
        .with_pattern(coo.clone());
    let u = random_dense(&[12, 3], &mut rng);
    let v = random_dense(&[9, 3], &mut rng);
    let w = random_dense(&[5, 3], &mut rng);
    let factors: Vec<(&str, &DenseTensor)> = vec![("U", &u), ("V", &v), ("W", &w)];

    for (written, dims) in [("i,j,k", [12, 9, 5]), ("k,i,j", [5, 12, 9])] {
        for order in [vec![0, 1, 2], vec![2, 1, 0]] {
            let expr = format!("S({written}) = T(i,j,k) * U(i,r) * V(j,r) * W(k,r)");
            let plan = Contraction::parse(&expr)
                .unwrap()
                .plan(
                    &shapes,
                    &PlanOptions::default().with_mode_order(ModeOrderPolicy::Fixed(order)),
                )
                .unwrap();
            let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
            let mut exec = plan.bind(csf, &factors).unwrap();
            let got = exec.execute().unwrap();
            let ContractionOutput::Sparse(s) = &got else {
                panic!("{expr}: dense output");
            };
            assert_eq!(s.dims(), dims, "{expr}");
            let diff = max_diff(&got, &oracle(&plan, &coo, &factors));
            assert!(diff <= TOL, "{expr}: diff {diff}");
        }
    }
}

#[test]
fn plan_cache_distinguishes_mode_order_policies() {
    let mut rng = StdRng::seed_from_u64(16);
    let coo = lopsided_coo(&mut rng);
    let shapes = mttkrp_shapes(&coo);
    let cache = PlanCache::new();
    let opts = PlanOptions::with_cost_model(CostModel::MaxBufferSize);
    let auto_opts = opts.clone().with_mode_order(ModeOrderPolicy::Auto);

    let p1 = cache
        .plan(Contraction::parse(MTTKRP).unwrap(), &shapes, &opts)
        .unwrap();
    let p2 = cache
        .plan(Contraction::parse(MTTKRP).unwrap(), &shapes, &auto_opts)
        .unwrap();
    // Different policies -> different keys -> both planned.
    assert_eq!((cache.hits(), cache.misses()), (0, 2));
    assert!(p1.is_natural_order());
    assert!(!p2.is_natural_order());
    // Same policy again -> hit, shared Arc.
    let p3 = cache
        .plan(Contraction::parse(MTTKRP).unwrap(), &shapes, &auto_opts)
        .unwrap();
    assert!(std::sync::Arc::ptr_eq(&p2, &p3));
    assert_eq!((cache.hits(), cache.misses()), (1, 2));

    // Two *different patterns* with identical dims/nnz must not share
    // an Auto key (exact per-order counts differ).
    let other = lopsided_coo(&mut rng);
    assert_ne!(coo.coords(), other.coords());
    let other_shapes = mttkrp_shapes(&other);
    let _ = cache
        .plan(
            Contraction::parse(MTTKRP).unwrap(),
            &other_shapes,
            &auto_opts,
        )
        .unwrap();
    assert_eq!(cache.misses(), 3, "distinct pattern must re-plan");
}

#[test]
fn set_sparse_values_respects_callers_leaf_order_under_reorder() {
    // Regression: bind re-sorts the CSF when the plan chose a
    // non-natural order, but set_sparse_values must keep accepting
    // values in the leaf order of the CSF the *caller* bound —
    // scattered through the recorded permutation, not copied blindly.
    let mut rng = StdRng::seed_from_u64(18);
    let coo = lopsided_coo(&mut rng);
    let shapes = mttkrp_shapes(&coo);
    let b = random_dense(&[50, 8], &mut rng);
    let c = random_dense(&[4, 8], &mut rng);
    let factors: Vec<(&str, &DenseTensor)> = vec![("B", &b), ("C", &c)];

    let plan = Contraction::parse(MTTKRP)
        .unwrap()
        .plan(
            &shapes,
            &PlanOptions::with_cost_model(CostModel::MaxBufferSize)
                .with_mode_order(ModeOrderPolicy::Auto),
        )
        .unwrap();
    assert!(!plan.is_natural_order());
    let written_csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
    let written_leaf_vals: Vec<f64> = written_csf.vals().to_vec();
    let mut exec = plan.bind(written_csf, &factors).unwrap();

    // New values, addressed by the written-order leaf positions: leaf e
    // gets e as its value.
    let new_vals: Vec<f64> = (0..coo.nnz()).map(|e| e as f64 + 1.0).collect();
    exec.set_sparse_values(&new_vals).unwrap();
    let got = exec.execute().unwrap();

    // Oracle: the same value update applied to the written-order COO.
    let mut updated = coo.clone();
    // `coo` is sort_dedup'ed by random_coo, so its entry order == the
    // written-order CSF's leaf order (sanity-checked via vals).
    assert_eq!(updated.vals(), &written_leaf_vals[..]);
    updated.vals_mut().copy_from_slice(&new_vals);
    let want = oracle(&plan, &updated, &factors);
    let diff = max_diff(&got, &want);
    assert!(diff <= TOL, "diff {diff}");
}

#[test]
fn profile_only_auto_degenerates_to_natural() {
    // An exact profile describes one order; Auto must not crown a
    // different order off incomparable uniform-model scores.
    let mut rng = StdRng::seed_from_u64(19);
    let coo = lopsided_coo(&mut rng);
    let profile = spttn::tensor::SparsityProfile::from_coo(&coo, &[0, 1, 2]).unwrap();
    let shapes = Shapes::new()
        .with_dims(&[("i", 50), ("j", 50), ("k", 4), ("a", 8)])
        .with_profile(profile);
    let plan = Contraction::parse(MTTKRP)
        .unwrap()
        .plan(
            &shapes,
            &PlanOptions::with_cost_model(CostModel::MaxBufferSize)
                .with_mode_order(ModeOrderPolicy::Auto),
        )
        .unwrap();
    assert!(plan.is_natural_order());
    assert_eq!(plan.order_costs().len(), 1);
}

#[test]
fn uniform_model_auto_search_still_correct() {
    // Auto with only `with_nnz` (no pattern): orders are scored by the
    // uniform model; whatever wins, execution must stay exact.
    let mut rng = StdRng::seed_from_u64(17);
    let coo = random_coo(&[30, 6, 20], 90, &mut rng).unwrap();
    let shapes = Shapes::new()
        .with_dims(&[("i", 30), ("j", 6), ("k", 20), ("a", 7)])
        .with_nnz(90);
    let b = random_dense(&[6, 7], &mut rng);
    let c = random_dense(&[20, 7], &mut rng);
    let factors: Vec<(&str, &DenseTensor)> = vec![("B", &b), ("C", &c)];
    let plan = Contraction::parse(MTTKRP)
        .unwrap()
        .plan(
            &shapes,
            &PlanOptions::default().with_mode_order(ModeOrderPolicy::Auto),
        )
        .unwrap();
    let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
    let mut exec = plan.bind(csf, &factors).unwrap();
    let got = exec.execute().unwrap();
    let diff = max_diff(&got, &oracle(&plan, &coo, &factors));
    assert!(diff <= TOL, "diff {diff}");
}
