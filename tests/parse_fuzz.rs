//! Robustness of the expression front end. Seeded mutations of valid
//! expressions in both syntaxes — byte flips, truncation at every char
//! boundary, inserted `*`, `=`, `->`, `+=`, `(`, `]`, U+00A0 and
//! non-ASCII letters — go through `parse_kernel`, `Contraction::parse`
//! (then `plan`) and `Network::parse` (then its lowering), and so does
//! an expression with one index more than `MAX_INDICES`. No input may
//! panic, a parse error must be a `KernelError`, and every error must
//! display on one line.

use rand::prelude::*;
use spttn::ir::{parse_kernel, KernelError, MAX_INDICES};
use spttn::{Contraction, PlanOptions, Shapes, SpttnError};
use spttn_net::Network;
use std::panic::{catch_unwind, AssertUnwindSafe};

const SEEDS: &[&str] = &[
    "A(i,a) = T(i,j,k) * B(j,a) * C(k,a)",
    "T[i,j,k]*B[j,a]*C[k,a]->A[i,a]",
    "S(i,j) += T(i,j) * U(i,r) * V(j,r)",
    "O[i,s] = T[i,j,k]*A[j,r]*B[k,r]*C[r,s]",
    "T(i,j,k) * U(i,r) * V(j,r) * W(k,r) -> S(k,j,i)",
];

/// What the insertion mutation drops in at a char boundary.
const INSERTS: &[&str] = &[
    "*", "=", "->", "+=", "(", "]", "\u{a0}", "é", "ß", "Ж", "λ", "中",
];

/// One line: nothing a terminal or an editor breaks a line on, and no
/// other control character either.
fn one_line(text: &str) -> bool {
    !text
        .chars()
        .any(|c| c.is_control() || matches!(c, '\u{2028}' | '\u{2029}'))
}

/// Extent 2 for every run of name characters in `expr`, so an
/// expression that parses also lowers.
fn dims_for(expr: &str) -> Vec<(&str, usize)> {
    let mut dims: Vec<(&str, usize)> = Vec::new();
    for name in expr.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
        if !name.is_empty() && !dims.iter().any(|&(n, _)| n == name) {
            dims.push((name, 2));
        }
    }
    dims
}

/// Run `expr` through every front end and check the contract.
fn check(expr: &str) {
    let dims = dims_for(expr);
    let shapes = Shapes::new().with_dims(&dims).with_nnz(3);
    let results = catch_unwind(AssertUnwindSafe(|| {
        let parsed = Contraction::parse(expr);
        let net = Network::parse(expr);
        let parse_errors = [parsed.as_ref().err(), net.as_ref().err()];
        for e in parse_errors.into_iter().flatten() {
            assert!(
                matches!(e, SpttnError::Kernel(_)),
                "{expr:?}: parse error {e:?} is not a KernelError"
            );
        }
        [
            parse_kernel(expr, &dims)
                .map(drop)
                .map_err(SpttnError::from),
            parsed.and_then(|c| c.plan(&shapes, &PlanOptions::default()).map(drop)),
            net.and_then(|n| n.kernel(&shapes).map(drop)),
        ]
    }))
    .unwrap_or_else(|_| panic!("front end panicked on {expr:?}"));
    for e in results.iter().filter_map(|r| r.as_ref().err()) {
        let text = e.to_string();
        assert!(one_line(&text), "{expr:?}: error spans lines: {text:?}");
    }
}

/// Every prefix of `expr` that ends on a char boundary.
fn check_truncations(expr: &str) {
    for (at, _) in expr.char_indices() {
        check(&expr[..at]);
    }
}

#[test]
fn seeds_are_well_formed() {
    for expr in SEEDS {
        assert!(Contraction::parse(expr).is_ok(), "{expr}");
        assert!(Network::parse(expr).is_ok(), "{expr}");
        assert!(parse_kernel(expr, &dims_for(expr)).is_ok(), "{expr}");
    }
}

#[test]
fn byte_flips_never_panic() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    for expr in SEEDS {
        for _ in 0..400 {
            let mut bytes = expr.as_bytes().to_vec();
            for _ in 0..rng.gen_range(1..4usize) {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= 1u8 << rng.gen_range(0..8usize);
            }
            check(&String::from_utf8_lossy(&bytes));
        }
    }
}

#[test]
fn truncation_at_every_char_boundary_never_panics() {
    for expr in SEEDS {
        check_truncations(expr);
        check_truncations(&expr.replace('j', "é"));
    }
}

#[test]
fn insertions_never_panic() {
    // Every token at every char boundary of every seed...
    for expr in SEEDS {
        for (at, _) in expr.char_indices().chain([(expr.len(), ' ')]) {
            for token in INSERTS {
                check(&format!("{}{token}{}", &expr[..at], &expr[at..]));
            }
        }
    }
    // ...then a few at once, truncated too.
    let mut rng = StdRng::seed_from_u64(0x1a5e);
    for _ in 0..300 {
        let mut expr = SEEDS[rng.gen_range(0..SEEDS.len())].to_string();
        for _ in 0..rng.gen_range(2..5usize) {
            let bounds: Vec<usize> = expr
                .char_indices()
                .map(|(at, _)| at)
                .chain([expr.len()])
                .collect();
            let at = bounds[rng.gen_range(0..bounds.len())];
            expr.insert_str(at, INSERTS[rng.gen_range(0..INSERTS.len())]);
        }
        check(&expr);
        check_truncations(&expr);
    }
}

/// `n` distinct indices: a matrix times one factor carrying the rest.
fn wide(n: usize) -> String {
    let rest: Vec<String> = (1..n).map(|x| format!("x{x}")).collect();
    format!("A(x0) = T(x0,x1) * B({})", rest.join(","))
}

#[test]
fn one_index_over_the_limit_is_a_typed_error_everywhere() {
    let at_limit = wide(MAX_INDICES);
    assert!(Contraction::parse(&at_limit).is_ok());
    assert!(Network::parse(&at_limit).is_ok());
    assert!(parse_kernel(&at_limit, &dims_for(&at_limit)).is_ok());

    let over = wide(MAX_INDICES + 1);
    let want = KernelError::TooManyIndices(MAX_INDICES + 1);
    let ir = parse_kernel(&over, &dims_for(&over)).map(drop);
    assert_eq!(ir, Err(want.clone()));
    for (via, got) in [
        ("Contraction::parse", Contraction::parse(&over).map(drop)),
        ("Network::parse", Network::parse(&over).map(drop)),
    ] {
        let e = got.expect_err(via);
        assert_eq!(e, SpttnError::Kernel(want.clone()), "{via}");
        assert!(one_line(&e.to_string()), "{e}");
    }
    check(&over);
}
