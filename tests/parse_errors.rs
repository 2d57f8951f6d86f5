//! Both entry points read one grammar (`spttn_ir::parse_expr`), so they
//! must reject malformed expressions identically: a trailing, doubled,
//! leading, or lone `*` is an "empty factor" parse error through
//! `spttn_ir::parse_kernel` and through the facade's
//! `Contraction::parse`, in the `=`, `+=` and `->` syntaxes alike —
//! never silently swallowed.

use spttn::ir::{parse_kernel, KernelError};
use spttn::{Contraction, SpttnError};

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

#[test]
fn well_formed_expressions_still_parse() {
    for expr in ["A(i) = T(i,j) * B(j)", "T[i,j]*B[j]->A[i]"] {
        assert!(parse_kernel(expr, DIMS).is_ok(), "{expr}");
        assert!(Contraction::parse(expr).is_ok(), "{expr}");
    }
}
