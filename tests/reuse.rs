//! Plan-reuse golden tests: an `Executor` rebound with new factor
//! values / new sparse values must match a freshly planned-and-executed
//! contraction to ≤ 1e-9, across MTTKRP, TTMc, and TTTP — plus
//! error-path tests for bind-time shape mismatches, `+=` accumulation
//! semantics, parser rejection of empty factors, and `PlanCache`
//! behavior.

use rand::prelude::*;
use spttn::ir::{stdkernels, Kernel};
use spttn::tensor::{random_coo, random_dense, Csf, DenseTensor};
use spttn::{
    Contraction, ContractionOutput, CostModel, Executor, PlanCache, PlanOptions, Shapes, Threads,
};

const TOL: f64 = 1e-9;

/// Thread count for end-to-end executions: CI runs this suite at
/// `SPTTN_TEST_THREADS=1` and `=4` so the engine stays green at one
/// tile and at several.
fn test_threads() -> Threads {
    match std::env::var("SPTTN_TEST_THREADS") {
        Ok(v) => Threads::N(v.parse().expect("SPTTN_TEST_THREADS must be an integer")),
        Err(_) => Threads::N(1),
    }
}

/// Random dense factors for every non-sparse input slot, as
/// `(name, tensor)` pairs in input order.
fn random_factors(kernel: &Kernel, rng: &mut StdRng) -> Vec<(String, DenseTensor)> {
    let mut out = Vec::new();
    for (slot, r) in kernel.inputs.iter().enumerate() {
        if slot == kernel.sparse_input {
            continue;
        }
        out.push((r.name.clone(), random_dense(&kernel.ref_dims(r), rng)));
    }
    out
}

/// The fill of an output a test expects refused: it must come back
/// bitwise unchanged.
const SENTINEL: f64 = -1.75;

/// Execute into `out`, expecting a refusal, and assert it was left
/// bitwise untouched. Returns the error.
fn refused_untouched(exec: &mut Executor, mut out: ContractionOutput) -> spttn::SpttnError {
    let bits = |o: &ContractionOutput| -> Vec<u64> {
        let vals = match o {
            ContractionOutput::Dense(d) => d.as_slice(),
            ContractionOutput::Sparse(c) => c.vals(),
        };
        vals.iter().map(|v| v.to_bits()).collect()
    };
    let before = bits(&out);
    assert!(before.iter().all(|&b| b == SENTINEL.to_bits()));
    let e = exec.execute_into(&mut out).unwrap_err();
    assert_eq!(bits(&out), before, "a refused output was written ({e})");
    e
}

/// Freshly plan, bind and execute the kernel on the given operands
/// (the from-scratch pipeline the reused executor must agree with).
fn fresh_pipeline(kernel: &Kernel, csf: Csf, factors: &[(String, DenseTensor)]) -> DenseTensor {
    let plan = Contraction::from_kernel(kernel.clone())
        .plan(
            &Shapes::new().with_pattern(csf.to_coo()),
            &PlanOptions::with_cost_model(CostModel::MaxBufferSize).with_threads(test_threads()),
        )
        .unwrap();
    let refs: Vec<(&str, &DenseTensor)> = factors.iter().map(|(n, t)| (n.as_str(), t)).collect();
    let mut exec = plan.bind(csf, &refs).unwrap();
    exec.execute().unwrap().to_dense()
}

/// Plan once symbolically, bind, execute; then rebind new factor values
/// and new same-pattern sparse values and execute again. Both results
/// must match fresh pipelines on the same operands.
fn check_reuse(kernel: &Kernel, nnz: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let sdims = kernel.ref_dims(kernel.sparse_ref());
    let order: Vec<usize> = (0..sdims.len()).collect();
    let coo = random_coo(&sdims, nnz, &mut rng).unwrap();
    let csf = Csf::from_coo(&coo, &order).unwrap();
    let factors1 = random_factors(kernel, &mut rng);
    let factors2 = random_factors(kernel, &mut rng);

    // Stage 1: symbolic plan from the exact profile — no tensor data.
    let plan = Contraction::from_kernel(kernel.clone())
        .plan(
            &Shapes::new().with_pattern(csf.to_coo()),
            &PlanOptions::with_cost_model(CostModel::MaxBufferSize).with_threads(test_threads()),
        )
        .unwrap();

    // Stage 2: bind and execute.
    let refs: Vec<(&str, &DenseTensor)> = factors1.iter().map(|(n, t)| (n.as_str(), t)).collect();
    let mut exec = plan.bind(csf.clone(), &refs).unwrap();
    let got1 = exec.execute().unwrap().to_dense();
    let want1 = fresh_pipeline(kernel, csf.clone(), &factors1);
    assert!(
        got1.approx_eq(&want1, TOL),
        "first execution diverged for {}",
        kernel.to_einsum()
    );

    // Record buffer addresses: rebinding and re-executing must not move
    // any allocation of any tile's workspace.
    let buffer_ptrs = |exec: &Executor| -> Vec<*const f64> {
        let all = exec.workspaces().iter().flat_map(|ws| ws.buffers());
        all.map(|b| b.as_slice().as_ptr()).collect()
    };
    assert_eq!(exec.workspaces().len(), exec.threads());
    let ptrs = buffer_ptrs(&exec);

    // Rebind: fresh factor values, fresh same-pattern sparse values.
    for (name, t) in &factors2 {
        exec.set_factor(name, t).unwrap();
    }
    let new_vals: Vec<f64> = csf.vals().iter().map(|v| v * 1.75 - 0.3).collect();
    exec.set_sparse_values(&new_vals).unwrap();
    let got2 = exec.execute().unwrap().to_dense();

    let mut csf2 = csf.clone();
    csf2.vals_mut().copy_from_slice(&new_vals);
    let want2 = fresh_pipeline(kernel, csf2, &factors2);
    assert!(
        got2.approx_eq(&want2, TOL),
        "rebound execution diverged for {}",
        kernel.to_einsum()
    );

    assert_eq!(
        ptrs,
        buffer_ptrs(&exec),
        "workspace buffers were reallocated"
    );
}

#[test]
fn mttkrp_reuse_matches_fresh_pipeline() {
    let k = stdkernels::mttkrp(&[12, 10, 11], 5);
    check_reuse(&k, 150, 41);
}

#[test]
fn ttmc_reuse_matches_fresh_pipeline() {
    let k = stdkernels::ttmc(&[10, 9, 11], &[4, 5]);
    check_reuse(&k, 120, 42);
}

#[test]
fn tttp_reuse_matches_fresh_pipeline() {
    let k = stdkernels::tttp(&[8, 9, 10], 4);
    check_reuse(&k, 100, 43);
}

#[test]
fn executor_execute_into_matches_execute() {
    let mut rng = StdRng::seed_from_u64(50);
    let coo = random_coo(&[12, 10, 11], 150, &mut rng).unwrap();
    let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
    let a = random_dense(&[10, 5], &mut rng);
    let b = random_dense(&[11, 5], &mut rng);

    let plan = Contraction::parse("T[i,j,k]*A[j,r]*B[k,r]->O[i,r]")
        .unwrap()
        .plan(
            &Shapes::new()
                .with_dims(&[("i", 12), ("j", 10), ("k", 11), ("r", 5)])
                .with_pattern(csf.to_coo()),
            &PlanOptions::default(),
        )
        .unwrap();
    let mut exec = plan.bind(csf, &[("A", &a), ("B", &b)]).unwrap();
    let mut out = exec.output_template();
    exec.execute_into(&mut out).unwrap();
    let direct = exec.execute().unwrap();
    assert!(out.to_dense().approx_eq(&direct.to_dense(), TOL));

    // execute_into with `=` semantics overwrites: running twice into the
    // same output must not double the values.
    exec.execute_into(&mut out).unwrap();
    assert!(out.to_dense().approx_eq(&direct.to_dense(), TOL));
}

#[test]
fn accumulate_expression_adds_into_output() {
    let mut rng = StdRng::seed_from_u64(51);
    let coo = random_coo(&[12, 10, 11], 150, &mut rng).unwrap();
    let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
    let a = random_dense(&[10, 5], &mut rng);
    let b = random_dense(&[11, 5], &mut rng);
    let shapes = Shapes::new()
        .with_dims(&[("i", 12), ("j", 10), ("k", 11), ("r", 5)])
        .with_pattern(csf.to_coo());

    let plan = Contraction::parse("O(i,r) += T(i,j,k) * A(j,r) * B(k,r)")
        .unwrap()
        .plan(&shapes, &PlanOptions::default())
        .unwrap();
    assert!(plan.accumulate());

    let mut exec = plan.bind(csf, &[("A", &a), ("B", &b)]).unwrap();
    // execute() always materializes from zero — the single-shot result.
    let single = exec.execute().unwrap().to_dense();
    // execute_into accumulates on top of the output's current values.
    let mut out = exec.output_template();
    exec.execute_into(&mut out).unwrap();
    exec.execute_into(&mut out).unwrap();
    let mut doubled = single.clone();
    for (d, s) in doubled
        .as_mut_slice()
        .iter_mut()
        .zip(single.as_slice().iter())
    {
        *d += s;
    }
    assert!(out.to_dense().approx_eq(&doubled, TOL));
}

#[test]
fn bind_rejects_shape_mismatches() {
    let mut rng = StdRng::seed_from_u64(52);
    let coo = random_coo(&[12, 10, 11], 100, &mut rng).unwrap();
    let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
    let a = random_dense(&[10, 5], &mut rng);
    let b = random_dense(&[11, 5], &mut rng);
    let shapes = Shapes::new()
        .with_dims(&[("i", 12), ("j", 10), ("k", 11), ("r", 5)])
        .with_nnz(100);
    let plan = Contraction::parse("T[i,j,k]*A[j,r]*B[k,r]->O[i,r]")
        .unwrap()
        .plan(&shapes, &PlanOptions::default())
        .unwrap();

    // Factor with the wrong dims.
    let bad = random_dense(&[10, 6], &mut rng);
    let e = plan.bind(csf.clone(), &[("A", &bad), ("B", &b)]);
    assert!(matches!(e, Err(spttn::SpttnError::Shape(_))), "{e:?}");

    // Missing factor.
    let e = plan.bind(csf.clone(), &[("A", &a)]);
    assert!(matches!(e, Err(spttn::SpttnError::Execution(_))), "{e:?}");

    // Factor name the kernel does not mention.
    let e = plan.bind(csf.clone(), &[("A", &a), ("B", &b), ("Z", &a)]);
    assert!(matches!(e, Err(spttn::SpttnError::Execution(_))), "{e:?}");

    // CSF with the wrong dimensions.
    let wrong = random_coo(&[12, 10, 9], 80, &mut rng).unwrap();
    let wrong_csf = Csf::from_coo(&wrong, &[0, 1, 2]).unwrap();
    let e = plan.bind(wrong_csf, &[("A", &a), ("B", &b)]);
    assert!(matches!(e, Err(spttn::SpttnError::Shape(_))), "{e:?}");

    // Rebinding mismatches surface too.
    let mut exec = plan.bind(csf, &[("A", &a), ("B", &b)]).unwrap();
    // A refused output is left as it was: wrong dims, or sparse for a
    // dense plan.
    let wrong_dims = ContractionOutput::Dense(DenseTensor::from_fn(&[12, 6], |_| SENTINEL));
    let e = refused_untouched(&mut exec, wrong_dims);
    assert!(matches!(e, spttn::SpttnError::Shape(_)), "{e:?}");
    let sparse = ContractionOutput::Sparse(coo.with_vals(vec![SENTINEL; coo.nnz()]));
    let e = refused_untouched(&mut exec, sparse);
    assert!(matches!(e, spttn::SpttnError::Execution(_)), "{e:?}");
    let e = exec.set_factor("A", &bad);
    assert!(matches!(e, Err(spttn::SpttnError::Shape(_))), "{e:?}");
    let e = exec.set_factor("nope", &a);
    assert!(matches!(e, Err(spttn::SpttnError::Execution(_))), "{e:?}");
    let e = exec.set_sparse_values(&[1.0, 2.0]);
    assert!(matches!(e, Err(spttn::SpttnError::Shape(_))), "{e:?}");
}

#[test]
fn parser_rejects_empty_factors() {
    for expr in [
        "T(i,j)**A(j) -> O(i)",
        "O(i) = T(i,j)**A(j)",
        "O(i) = T(i,j)*A(j)*",
        "O(i) = *T(i,j)*A(j)",
        "O(i) = T(i,j)* *A(j)",
        "T[i,j]*A[j]*->O[i]",
    ] {
        let e = Contraction::parse(expr);
        let Err(err) = e else {
            panic!("'{expr}' should not parse");
        };
        assert!(
            err.to_string().contains("empty factor"),
            "'{expr}' gave: {err}"
        );
    }
    // Well-formed expressions still parse.
    assert!(Contraction::parse("O(i) = T(i,j) * A(j)").is_ok());
    assert!(Contraction::parse("O(i,r) += T(i,j) * A(j,r)").is_ok());
}

#[test]
fn plan_cache_hits_on_repeat_and_distinguishes_keys() {
    let cache = PlanCache::new();
    let shapes = Shapes::new()
        .with_dims(&[("i", 12), ("j", 10), ("k", 11), ("r", 5)])
        .with_nnz(150);
    let opts = PlanOptions::default();
    let expr = "T[i,j,k]*A[j,r]*B[k,r]->O[i,r]";

    let p1 = cache
        .plan(Contraction::parse(expr).unwrap(), &shapes, &opts)
        .unwrap();
    let p2 = cache
        .plan(Contraction::parse(expr).unwrap(), &shapes, &opts)
        .unwrap();
    assert!(std::sync::Arc::ptr_eq(&p1, &p2));
    assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));

    // A different rank is a different key.
    let shapes_r8 = Shapes::new()
        .with_dims(&[("i", 12), ("j", 10), ("k", 11), ("r", 8)])
        .with_nnz(150);
    let p3 = cache
        .plan(Contraction::parse(expr).unwrap(), &shapes_r8, &opts)
        .unwrap();
    assert!(!std::sync::Arc::ptr_eq(&p1, &p3));
    assert_eq!(cache.len(), 2);

    // A different cost model is a different key.
    let opts_dim = PlanOptions::with_cost_model(CostModel::MaxBufferDim);
    cache
        .plan(Contraction::parse(expr).unwrap(), &shapes, &opts_dim)
        .unwrap();
    assert_eq!(cache.len(), 3);

    // Cached plans execute correctly.
    let mut rng = StdRng::seed_from_u64(53);
    let coo = random_coo(&[12, 10, 11], 150, &mut rng).unwrap();
    let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
    let a = random_dense(&[10, 5], &mut rng);
    let b = random_dense(&[11, 5], &mut rng);
    let mut exec = p1.bind(csf.clone(), &[("A", &a), ("B", &b)]).unwrap();
    let got = exec.execute().unwrap().to_dense();
    let want = fresh_pipeline(
        &spttn::ir::parse_kernel(
            "O(i,r) = T(i,j,k) * A(j,r) * B(k,r)",
            &[("i", 12), ("j", 10), ("k", 11), ("r", 5)],
        )
        .unwrap(),
        csf,
        &[("A".into(), a.clone()), ("B".into(), b.clone())],
    );
    assert!(got.approx_eq(&want, TOL));

    cache.clear();
    assert!(cache.is_empty());
}

#[test]
fn tttp_reused_executor_keeps_sparse_output_pattern() {
    let k = stdkernels::tttp(&[8, 9, 10], 4);
    let mut rng = StdRng::seed_from_u64(55);
    let coo = random_coo(&[8, 9, 10], 100, &mut rng).unwrap();
    let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
    let factors = random_factors(&k, &mut rng);
    let refs: Vec<(&str, &DenseTensor)> = factors.iter().map(|(n, t)| (n.as_str(), t)).collect();

    let plan = Contraction::from_kernel(k.clone())
        .plan(
            &Shapes::new().with_pattern(csf.to_coo()),
            &PlanOptions::with_cost_model(CostModel::MaxBufferSize).with_threads(test_threads()),
        )
        .unwrap();
    let mut exec = plan.bind(csf.clone(), &refs).unwrap();
    let mut out = exec.output_template();
    exec.execute_into(&mut out).unwrap();
    let ContractionOutput::Sparse(s) = &out else {
        panic!("TTTP output must share the sparse pattern");
    };
    assert_eq!(s.nnz(), csf.nnz());
    let want = fresh_pipeline(&k, csf, &factors);
    assert!(out.to_dense().approx_eq(&want, TOL));
}

#[test]
fn bind_rejects_duplicate_factor_names() {
    let mut rng = StdRng::seed_from_u64(56);
    let coo = random_coo(&[12, 10, 11], 100, &mut rng).unwrap();
    let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
    let a = random_dense(&[10, 5], &mut rng);
    let a2 = random_dense(&[10, 5], &mut rng);
    let b = random_dense(&[11, 5], &mut rng);
    let plan = Contraction::parse("T[i,j,k]*A[j,r]*B[k,r]->O[i,r]")
        .unwrap()
        .plan(
            &Shapes::new()
                .with_dims(&[("i", 12), ("j", 10), ("k", 11), ("r", 5)])
                .with_nnz(100),
            &PlanOptions::default(),
        )
        .unwrap();
    let e = plan.bind(csf, &[("A", &a), ("A", &a2), ("B", &b)]);
    assert!(matches!(e, Err(spttn::SpttnError::Execution(_))), "{e:?}");
    let msg = e.unwrap_err().to_string();
    assert!(msg.contains("bound twice"), "{msg}");
}

#[test]
fn execute_into_rejects_foreign_sparse_pattern() {
    let k = stdkernels::tttp(&[8, 9, 10], 4);
    let mut rng = StdRng::seed_from_u64(57);
    let coo = random_coo(&[8, 9, 10], 100, &mut rng).unwrap();
    let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
    let factors = random_factors(&k, &mut rng);
    let refs: Vec<(&str, &DenseTensor)> = factors.iter().map(|(n, t)| (n.as_str(), t)).collect();
    let mut exec = Contraction::from_kernel(k)
        .plan(
            &Shapes::new().with_pattern(csf.to_coo()),
            &PlanOptions::with_cost_model(CostModel::MaxBufferSize).with_threads(test_threads()),
        )
        .unwrap()
        .bind(csf.clone(), &refs)
        .unwrap();

    // Same dims and nnz, different coordinates: must be rejected, not
    // silently filled with values for the wrong positions.
    let other = random_coo(&[8, 9, 10], csf.nnz(), &mut rng).unwrap();
    let other_csf = Csf::from_coo(&other, &[0, 1, 2]).unwrap();
    if other_csf.nnz() == csf.nnz() && other_csf.to_coo().coords() != csf.to_coo().coords() {
        let foreign = other_csf.to_coo().with_vals(vec![SENTINEL; csf.nnz()]);
        let e = refused_untouched(&mut exec, ContractionOutput::Sparse(foreign));
        assert!(matches!(e, spttn::SpttnError::Shape(_)), "{e:?}");
    }
    // A dense output for this pattern-sharing plan is refused untouched.
    let dense = ContractionOutput::Dense(DenseTensor::from_fn(&[8, 9, 10], |_| SENTINEL));
    let e = refused_untouched(&mut exec, dense);
    assert!(matches!(e, spttn::SpttnError::Execution(_)), "{e:?}");

    // The template pattern still works.
    let mut out = exec.output_template();
    exec.execute_into(&mut out).unwrap();
}

/// A sparse output is recognised by its coordinates, whoever made
/// them: the template's own (shared with `output_template`, so checked
/// in O(1)) and a separately built copy of equal coordinates both run
/// and agree bit for bit; a foreign pattern, and a template output whose
/// pattern `push` changed (which copies the coordinates first), are
/// refused and left untouched.
#[test]
fn sparse_output_is_recognised_by_its_coordinates() {
    let k = stdkernels::tttp(&[8, 9, 10], 4);
    let mut rng = StdRng::seed_from_u64(58);
    let coo = random_coo(&[8, 9, 10], 100, &mut rng).unwrap();
    let csf = Csf::from_coo(&coo, &[0, 1, 2]).unwrap();
    let factors = random_factors(&k, &mut rng);
    let refs: Vec<(&str, &DenseTensor)> = factors.iter().map(|(n, t)| (n.as_str(), t)).collect();
    let mut exec = Contraction::from_kernel(k)
        .plan(
            &Shapes::new().with_pattern(csf.to_coo()),
            &PlanOptions::default().with_threads(test_threads()),
        )
        .unwrap()
        .bind(csf.clone(), &refs)
        .unwrap();
    let sparse = |o: ContractionOutput| match o {
        ContractionOutput::Sparse(c) => c,
        ContractionOutput::Dense(_) => panic!("TTTP's output shares the pattern"),
    };
    let bits =
        |c: &spttn::tensor::CooTensor| c.vals().iter().map(|v| v.to_bits()).collect::<Vec<_>>();

    let mut out = exec.output_template();
    exec.execute_into(&mut out).unwrap();
    let want = sparse(out);
    assert!(want.vals().iter().any(|&v| v != 0.0));

    // Equal coordinates in an allocation of their own.
    let copy = spttn::tensor::CooTensor::from_entries(
        want.dims(),
        want.iter().map(|(c, _)| (c.to_vec(), SENTINEL)),
    )
    .unwrap();
    assert_eq!(copy.coords(), want.coords());
    let mut out = ContractionOutput::Sparse(copy);
    exec.execute_into(&mut out).unwrap();
    assert_eq!(bits(&sparse(out)), bits(&want));

    // Other coordinates: the last entry moved to a cell not in the pattern.
    let mut entries: Vec<(Vec<usize>, f64)> =
        want.iter().map(|(c, _)| (c.to_vec(), SENTINEL)).collect();
    let free = (0..8 * 9 * 10)
        .map(|f| vec![f / 90, f / 10 % 9, f % 10])
        .find(|c| entries.iter().all(|(e, _)| e != c))
        .unwrap();
    entries.last_mut().unwrap().0 = free.clone();
    let foreign = spttn::tensor::CooTensor::from_entries(want.dims(), entries).unwrap();
    let e = refused_untouched(&mut exec, ContractionOutput::Sparse(foreign));
    assert!(matches!(e, spttn::SpttnError::Shape(_)), "{e:?}");

    // A template output whose pattern grew.
    let mut grown = sparse(exec.output_template());
    grown.vals_mut().fill(SENTINEL);
    grown.push(&free, SENTINEL).unwrap();
    let e = refused_untouched(&mut exec, ContractionOutput::Sparse(grown));
    assert!(matches!(e, spttn::SpttnError::Shape(_)), "{e:?}");

    // The template is unchanged by the copy `push` made.
    let mut out = exec.output_template();
    exec.execute_into(&mut out).unwrap();
    assert_eq!(bits(&sparse(out)), bits(&want));
}
