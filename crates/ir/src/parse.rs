//! The einsum-style expression front end: one grammar, one lowering.
//!
//! [`parse_expr`] reads an SpTTN expression — structure only, no
//! dimensions — in either accepted syntax:
//!
//! - paper style: `"S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)"` (`+=`
//!   instead of `=` marks accumulation into the bound output)
//! - arrow style: `"T[i,j,k]*U[j,r]*V[k,s] -> S[i,r,s]"`
//!
//! with `()` and `[]` interchangeable. [`ParsedExpr::lower`] turns the
//! parsed names into a validated [`Kernel`] given a dimension per index
//! name; [`parse_kernel`] is the two composed. The facade's
//! `Contraction` and `spttn-net`'s `Network` store a [`ParsedExpr`] and
//! lower it once dimensions arrive, so every entry point shares one
//! grammar, one index numbering and one set of error messages.
//!
//! By convention the **first input on the right-hand side is the sparse
//! tensor** (the paper writes every SpTTN with the sparse tensor first).
//! When the output's index set equals the sparse input's index set
//! exactly, the output is marked as pattern-sharing (TTTP-like): with a
//! multiplicative sparse factor, such an output is identically zero
//! outside the sparse pattern, which is the paper's definition of a
//! valid SpTTN output.

use crate::kernel::{Kernel, KernelBuilder, KernelError};
use std::collections::BTreeSet;

/// One parsed tensor reference: name plus written index names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedRef {
    /// Tensor name.
    pub name: String,
    /// Index names in written order.
    pub indices: Vec<String>,
}

/// A parsed expression: structure only, no dimensions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedExpr {
    /// The output reference.
    pub output: ParsedRef,
    /// The input references in written order; the first is the sparse
    /// tensor. Never empty after [`parse_expr`].
    pub inputs: Vec<ParsedRef>,
    /// `+=` expression: execution accumulates into the bound output.
    pub accumulate: bool,
}

fn perr<T>(msg: String) -> Result<T, KernelError> {
    Err(KernelError::Parse(msg))
}

fn parse_ref(s: &str) -> Result<ParsedRef, KernelError> {
    let s = s.trim();
    let Some(open) = s.find('(') else {
        return perr(format!("expected '(' or '[' in tensor reference '{s}'"));
    };
    if !s.ends_with(')') {
        return perr(format!("unterminated tensor reference '{s}'"));
    }
    let name = s[..open].trim();
    if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return perr(format!("bad tensor name in '{s}'"));
    }
    let inner = &s[open + 1..s.len() - 1];
    let indices: Vec<String> = if inner.trim().is_empty() {
        Vec::new()
    } else {
        inner.split(',').map(|x| x.trim().to_string()).collect()
    };
    for i in &indices {
        if i.is_empty() || !i.chars().all(|c| c.is_alphanumeric() || c == '_') {
            return perr(format!("bad index name '{i}' in '{s}'"));
        }
    }
    Ok(ParsedRef {
        name: name.to_string(),
        indices,
    })
}

/// Parse an SpTTN expression in either syntax (see the
/// [module docs](self)) into its structure.
///
/// Rejected here, with a pointed [`KernelError::Parse`] message: a
/// missing `=`/`->`, malformed references, empty factors (a trailing,
/// doubled, leading or lone `*` — never silently dropped), and an
/// output index that appears in no input factor, which has no loop to
/// produce it.
pub fn parse_expr(expr: &str) -> Result<ParsedExpr, KernelError> {
    let e = expr.replace('[', "(").replace(']', ")");
    let (lhs, rhs, accumulate) = if let Some((ins, out)) = e.split_once("->") {
        (out, ins, false)
    } else if let Some((out, ins)) = e.split_once("+=") {
        (out, ins, true)
    } else if let Some((out, ins)) = e.split_once('=') {
        (out, ins, false)
    } else {
        return perr("expected '=' or '->' in contraction expression".into());
    };
    let output = parse_ref(lhs)?;
    let mut inputs = Vec::new();
    for part in split_top_level(rhs, '*') {
        if part.trim().is_empty() {
            return perr(format!(
                "empty factor in '{}' (stray or doubled '*'?)",
                rhs.trim()
            ));
        }
        inputs.push(parse_ref(&part)?);
    }
    for idx in &output.indices {
        if !inputs.iter().any(|r| r.indices.contains(idx)) {
            return perr(format!(
                "output index '{idx}' appears in no input factor of '{expr}'"
            ));
        }
    }
    Ok(ParsedExpr {
        output,
        inputs,
        accumulate,
    })
}

impl ParsedExpr {
    /// All distinct index names, in first-appearance order over the
    /// inputs (so the sparse tensor's come first) and then the output.
    /// This is the order [`ParsedExpr::lower`] numbers indices in.
    pub fn index_names(&self) -> Vec<String> {
        let mut seen: Vec<String> = Vec::new();
        let refs = self.inputs.iter().chain(std::iter::once(&self.output));
        for n in refs.flat_map(|r| &r.indices) {
            if !seen.contains(n) {
                seen.push(n.clone());
            }
        }
        seen
    }

    /// Lower to a validated [`Kernel`], asking `dim_of` for the
    /// dimension of every index name. `dim_of` owns the error for a
    /// name it cannot size, so each caller reports a missing dimension
    /// in its own terms (a `dims` slice here, `Shapes` in the facade).
    ///
    /// Index ids follow [`ParsedExpr::index_names`]; the first input is
    /// the sparse tensor; the output shares its pattern exactly when
    /// their index sets are equal.
    pub fn lower<E: From<KernelError>>(
        &self,
        mut dim_of: impl FnMut(&str) -> Result<usize, E>,
    ) -> Result<Kernel, E> {
        let mut b = KernelBuilder::new();
        for name in self.index_names() {
            b = b.index(&name, dim_of(&name)?);
        }
        fn strs(r: &ParsedRef) -> Vec<&str> {
            r.indices.iter().map(String::as_str).collect()
        }
        fn set(r: &ParsedRef) -> BTreeSet<&str> {
            strs(r).into_iter().collect()
        }
        b = b.output(&self.output.name, &strs(&self.output));
        for r in &self.inputs {
            b = b.input(&r.name, &strs(r));
        }
        if self.inputs.first().map(set) == Some(set(&self.output)) {
            b = b.sparse_output();
        }
        Ok(b.build()?)
    }
}

/// Parse an einsum-style SpTTN kernel: [`parse_expr`] lowered with the
/// dimensions in `dims`.
///
/// `dims` maps index names to dimension sizes; every index appearing in
/// the expression must be present. Both syntaxes are accepted.
///
/// ```
/// use spttn_ir::parse_kernel;
/// let k = parse_kernel(
///     "A(i,a) = T(i,j,k) * B(j,a) * C(k,a)",
///     &[("i", 100), ("j", 80), ("k", 90), ("a", 16)],
/// )
/// .unwrap();
/// assert_eq!(k.sparse_indices().len(), 3);
/// assert_eq!(k.inputs.len(), 3);
/// ```
pub fn parse_kernel(expr: &str, dims: &[(&str, usize)]) -> Result<Kernel, KernelError> {
    parse_expr(expr)?.lower(|name| {
        let found = dims.iter().find(|(n, _)| *n == name);
        found
            .map(|&(_, dim)| dim)
            .ok_or_else(|| KernelError::Parse(format!("no dimension given for index '{name}'")))
    })
}

/// Split on `sep` outside parentheses. Every segment is kept — including
/// empty ones from doubled or trailing separators — so the caller can
/// reject them with a pointed message instead of silently dropping them.
fn split_top_level(s: &str, sep: char) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut cur = String::new();
    for c in s.chars() {
        match c {
            '(' => {
                depth += 1;
                cur.push(c);
            }
            ')' => {
                depth = depth.saturating_sub(1);
                cur.push(c);
            }
            c if c == sep && depth == 0 => {
                out.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    out.push(cur);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_mttkrp() {
        let k = parse_kernel(
            "A(i,a) = T(i,j,k) * B(j,a) * C(k,a)",
            &[("i", 10), ("j", 11), ("k", 12), ("a", 4)],
        )
        .unwrap();
        assert_eq!(k.to_einsum(), "A(i,a) = T(i,j,k) * B(j,a) * C(k,a)");
        assert_eq!(k.dim(0), 10);
        assert!(!k.output_sparse);
        assert_eq!(k.sparse_input, 0);
    }

    #[test]
    fn parses_plus_equals() {
        let k = parse_kernel("A(i) += T(i,j) * B(j)", &[("i", 3), ("j", 4)]).unwrap();
        assert_eq!(k.inputs.len(), 2);
        assert!(parse_expr("A(i) += T(i,j) * B(j)").unwrap().accumulate);
        assert!(!parse_expr("A(i) = T(i,j) * B(j)").unwrap().accumulate);
    }

    #[test]
    fn arrow_and_bracket_syntax_lower_to_the_same_kernel() {
        let dims: &[(&str, usize)] = &[("i", 10), ("j", 11), ("k", 12), ("a", 4)];
        let paper = parse_kernel("A(i,a) = T(i,j,k) * B(j,a) * C(k,a)", dims).unwrap();
        for expr in [
            "T[i,j,k]*B[j,a]*C[k,a]->A[i,a]",
            "T(i,j,k) * B(j,a) * C(k,a) -> A(i,a)",
            "A[i,a] = T[i,j,k] * B[j,a] * C[k,a]",
        ] {
            assert_eq!(parse_kernel(expr, dims).unwrap(), paper, "{expr}");
        }
    }

    #[test]
    fn detects_tttp_sparse_output() {
        let k = parse_kernel(
            "S(i,j,k) = T(i,j,k) * U(i,r) * V(j,r) * W(k,r)",
            &[("i", 5), ("j", 6), ("k", 7), ("r", 3)],
        )
        .unwrap();
        assert!(k.output_sparse);
    }

    #[test]
    fn output_index_order_differs_from_pattern_still_sparse() {
        let k = parse_kernel(
            "S(k,j,i) = T(i,j,k) * U(i,r) * V(j,r) * W(k,r)",
            &[("i", 5), ("j", 6), ("k", 7), ("r", 3)],
        )
        .unwrap();
        assert!(k.output_sparse);
    }

    #[test]
    fn missing_dim_is_error() {
        let e = parse_kernel("A(i) = T(i,j) * B(j)", &[("i", 3)]);
        assert!(matches!(e, Err(KernelError::Parse(_))));
    }

    #[test]
    fn malformed_expressions_rejected() {
        assert!(parse_kernel("A(i) T(i)", &[("i", 2)]).is_err());
        assert!(parse_kernel("A(i = T(i)", &[("i", 2)]).is_err());
        assert!(parse_kernel("A(i) = ", &[("i", 2)]).is_err());
        assert!(parse_kernel("A(i!) = T(i!)", &[("i!", 2)]).is_err());
    }

    #[test]
    fn stray_stars_rejected_as_empty_factor() {
        let dims: &[(&str, usize)] = &[("i", 3), ("j", 4)];
        // Trailing '*' (previously swallowed silently).
        let e = parse_kernel("A(i) = T(i,j) * B(j) *", dims).unwrap_err();
        assert!(
            matches!(&e, KernelError::Parse(m) if m.contains("empty factor")),
            "{e:?}"
        );
        // Doubled '*'.
        let e = parse_kernel("A(i) = T(i,j) ** B(j)", dims).unwrap_err();
        assert!(
            matches!(&e, KernelError::Parse(m) if m.contains("empty factor")),
            "{e:?}"
        );
        // Lone '*'.
        let e = parse_kernel("A(i) = *", dims).unwrap_err();
        assert!(
            matches!(&e, KernelError::Parse(m) if m.contains("empty factor")),
            "{e:?}"
        );
        // Leading '*'.
        let e = parse_kernel("A(i) = * T(i,j) * B(j)", dims).unwrap_err();
        assert!(
            matches!(&e, KernelError::Parse(m) if m.contains("empty factor")),
            "{e:?}"
        );
        // A '*' inside parentheses is not a separator and still errors
        // as a bad index, not an empty factor.
        assert!(parse_kernel("A(i) = T(i,j*) * B(j)", dims).is_err());
    }

    #[test]
    fn whitespace_tolerant() {
        let k = parse_kernel(
            "  S( i , r )   =  T( i , j )*U( j , r ) ",
            &[("i", 4), ("j", 5), ("r", 2)],
        )
        .unwrap();
        assert_eq!(k.to_einsum(), "S(i,r) = T(i,j) * U(j,r)");
    }

    #[test]
    fn index_ids_list_sparse_modes_first() {
        let k = parse_kernel(
            "A(i,a) = T(i,j,k) * B(j,a) * C(k,a)",
            &[("i", 10), ("j", 11), ("k", 12), ("a", 4)],
        )
        .unwrap();
        // T's modes get ids 0,1,2 in CSF order; 'a' gets 3.
        assert_eq!(k.csf_index_order(), &[0, 1, 2]);
        assert_eq!(k.index_name(3), "a");
    }
}
