//! Both entry points read one grammar (`spttn_ir::parse_expr`), so they
//! must reject malformed expressions identically: a trailing, doubled,
//! leading, or lone `*` is an "empty factor" parse error through
//! `spttn_ir::parse_kernel` and through the facade's
//! `Contraction::parse`, in the `=`, `+=` and `->` syntaxes alike —
//! never silently swallowed. What only the lowering can see — a sparse
//! operand with no indices, a sparse operand with nothing to contract
//! with, an index of extent 0 — is one `KernelError` from every front
//! end that lowers.

use spttn::ir::{parse_kernel, KernelError};
use spttn::{Contraction, PlanOptions, Shapes, SpttnError};
use spttn_net::{NetOptions, Network};

const DIMS: &[(&str, usize)] = &[("i", 3), ("j", 4), ("r", 2), ("z", 5)];

/// `expr` is a parse error whose message contains `needle`, through
/// the IR entry point and through the facade.
fn assert_parse_error(expr: &str, needle: &str) {
    let ir = parse_kernel(expr, DIMS).unwrap_err();
    let facade = match Contraction::parse(expr).unwrap_err() {
        SpttnError::Kernel(e) => e,
        other => panic!("'{expr}': facade returned {other:?}, not a kernel error"),
    };
    for (via, e) in [("parse_kernel", ir), ("Contraction::parse", facade)] {
        match e {
            KernelError::Parse(m) => {
                assert!(
                    m.contains(needle),
                    "'{expr}' via {via}: wrong message '{m}'"
                )
            }
            other => panic!("'{expr}' via {via}: expected Parse({needle}), got {other:?}"),
        }
    }
}

fn assert_empty_factor(expr: &str) {
    assert_parse_error(expr, "empty factor");
}

#[test]
fn paper_syntax_rejects_stray_stars() {
    // Trailing '*' — the regression: this parsed as if the star were
    // absent before the fix.
    assert_empty_factor("A(i) = T(i,j) * B(j) *");
    assert_empty_factor("A(i) = T(i,j) ** B(j)");
    assert_empty_factor("A(i) = *");
    assert_empty_factor("A(i) = * T(i,j) * B(j)");
    assert_empty_factor("A(i) += T(i,j) * B(j) *");
}

/// `()` and `[]` are interchangeable in either syntax.
#[test]
fn facade_paper_syntax_rejects_stray_stars() {
    assert_empty_factor("A[i] = T[i,j] * B[j] *");
    assert_empty_factor("A[i] = T[i,j] ** B[j]");
    assert_empty_factor("A[i] = *");
    assert_empty_factor("A[i] += T[i,j] * B[j] *");
}

#[test]
fn facade_arrow_syntax_rejects_stray_stars() {
    assert_empty_factor("T[i,j]*B[j]*->A[i]");
    assert_empty_factor("T[i,j]**B[j]->A[i]");
    assert_empty_factor("*->A[i]");
    assert_empty_factor("*T[i,j]*B[j]->A[i]");
    assert_empty_factor("T(i,j) * B(j) * -> A(i)");
}

#[test]
fn facade_rejects_output_only_indices() {
    // An output index no input binds has no loop to produce it; the
    // parser must name the offending index, in both syntaxes.
    for expr in ["A(i,z) = T(i,j) * B(j)", "T[i,j]*B[j,r]->A[i,z]"] {
        assert_parse_error(expr, "output index 'z'");
    }
}

/// Extents for the kernel-error expressions.
const KERNEL_DIMS: &[(&str, usize)] = &[("i", 3), ("j", 4), ("a", 2), ("b", 3)];

/// `expr` under the extents `dims` parses, but no `Kernel` is built
/// from it: `parse_kernel`, `Contraction::plan` and `Network::plan` all
/// return `want`, a typed single-line error whose text contains
/// `needle`.
fn assert_kernel_error_everywhere(
    expr: &str,
    dims: &[(&str, usize)],
    want: KernelError,
    needle: &str,
) {
    let shapes = Shapes::new().with_dims(dims).with_nnz(1);
    let planned = Contraction::parse(expr)
        .expect("the grammar accepts the expression")
        .plan(&shapes, &PlanOptions::default())
        .map(|_| ());
    let net = Network::parse(expr)
        .and_then(|n| n.plan(&shapes, &NetOptions::default()))
        .map(|_| ());
    let ir = parse_kernel(expr, dims).map(|_| ());
    for (via, got) in [
        ("parse_kernel", ir.map_err(SpttnError::from)),
        ("Contraction::plan", planned),
        ("Network::plan", net),
    ] {
        let e = got.expect_err(via);
        assert_eq!(e, SpttnError::Kernel(want.clone()), "'{expr}' via {via}");
        let text = e.to_string();
        assert!(text.contains(needle), "{text}");
        assert!(!text.contains('\n'), "{text}");
    }
}

/// An order-0 sparse operand parses (the grammar allows `T()`) — it
/// used to plan and then hang `Plan::bind`.
#[test]
fn order0_sparse_operand_is_a_typed_error_everywhere() {
    for expr in ["A(a) = T() * B(a)", "T[]*B[a,b]*C[b]->A[a]"] {
        assert_kernel_error_everywhere(
            expr,
            KERNEL_DIMS,
            KernelError::ScalarSparseInput("T".into()),
            "sparse input 'T' has no indices",
        );
    }
}

/// A contraction of the sparse tensor alone has no pairwise step to
/// plan — it used to be reported as "no feasible loop nest found".
#[test]
fn contraction_without_a_dense_factor_is_a_typed_error_everywhere() {
    for expr in ["A(i) = T(i,j)", "T[i,j]->A[j]"] {
        assert_kernel_error_everywhere(
            expr,
            KERNEL_DIMS,
            KernelError::NoDenseFactor("T".into()),
            "contraction of 'T' has no dense factor",
        );
    }
}

/// An extent-0 index — dense, sparse, or carried only by dense network
/// factors — used to plan: the naive oracle then read a phantom element
/// `DenseTensor::zeros` allocated for an empty tensor, and the tape
/// verifier rejected the tape's accesses into a factor of length 0.
#[test]
fn zero_extent_is_a_typed_error_everywhere() {
    let zero = |name: &str| -> Vec<(&str, usize)> {
        let mut dims = vec![("i", 3), ("j", 4), ("m", 2), ("r", 2)];
        dims.iter_mut().find(|(n, _)| *n == name).unwrap().1 = 0;
        dims
    };
    for (expr, index) in [
        ("A(i,r) = T(i,j) * B(j,r)", "r"),
        ("T[i,j]*B[j,r]->A[i,r]", "r"),
        ("A(i) = T(i,j) * B(j)", "j"),
        ("T[i,j]*D1[j,m]*D2[m,r]->O[i,r]", "m"),
    ] {
        assert_kernel_error_everywhere(
            expr,
            &zero(index),
            KernelError::ZeroExtent(index.into()),
            &format!("index '{index}' has extent 0"),
        );
    }
}

#[test]
fn well_formed_expressions_still_parse() {
    for expr in ["A(i) = T(i,j) * B(j)", "T[i,j]*B[j]->A[i]"] {
        assert!(parse_kernel(expr, DIMS).is_ok(), "{expr}");
        assert!(Contraction::parse(expr).is_ok(), "{expr}");
    }
}
