//! Loop orders (paper Def. 3.2) and their enumeration.
//!
//! A loop order assigns each contraction term a permutation of its
//! indices. The paper restricts enumeration to orders where a term's
//! sparse-lineage indices appear in CSF storage order, which cuts the
//! per-term count from `|I|!` to `|I|!/k!` (Sec. 4.1.2) and guarantees
//! the sparse descent can follow the CSF tree.

use crate::index::{IdxSet, IndexId};
use crate::kernel::Kernel;
use crate::path::ContractionPath;

/// Loop order for a single term: a permutation of its index set.
pub type LoopOrder = Vec<IndexId>;

/// A complete loop-order assignment for a contraction path (the paper's
/// `A = (A_1, ..., A_N)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NestSpec {
    /// One loop order per path term, in path order.
    pub orders: Vec<LoopOrder>,
}

impl NestSpec {
    /// Render as `(i,j,k,s),(i,j,s,r)` using kernel index names.
    pub fn describe(&self, kernel: &Kernel) -> String {
        self.orders
            .iter()
            .map(|o| {
                let names: Vec<&str> = o.iter().map(|&i| kernel.index_name(i)).collect();
                format!("({})", names.join(","))
            })
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// Sparse-lineage indices of term `t`, in CSF level order — the
/// subsequence that must stay fixed in any enumerated loop order.
pub fn lineage_in_csf_order(kernel: &Kernel, path: &ContractionPath, t: usize) -> Vec<IndexId> {
    let lineage = path.terms[t].lineage();
    kernel
        .csf_index_order()
        .iter()
        .copied()
        .filter(|&i| lineage.contains(i))
        .collect()
}

/// Check a single term's order: must be a permutation of the term's
/// index set with lineage indices in CSF relative order.
pub fn order_is_valid(
    kernel: &Kernel,
    path: &ContractionPath,
    t: usize,
    order: &[IndexId],
) -> bool {
    let inds = path.terms[t].iter_inds();
    if order.len() != inds.len() {
        return false;
    }
    let mut seen = IdxSet::EMPTY;
    for &i in order {
        if !inds.contains(i) || seen.contains(i) {
            return false;
        }
        seen = seen.insert(i);
    }
    let want = lineage_in_csf_order(kernel, path, t);
    let got: Vec<IndexId> = order.iter().copied().filter(|i| want.contains(i)).collect();
    got == want
}

/// All valid loop orders for term `t` (`|I|!/k!` of them).
pub fn orders_for_term(kernel: &Kernel, path: &ContractionPath, t: usize) -> Vec<LoopOrder> {
    let inds = path.terms[t].iter_inds().to_vec();
    let fixed = lineage_in_csf_order(kernel, path, t);
    let free: Vec<IndexId> = inds
        .iter()
        .copied()
        .filter(|i| !fixed.contains(i))
        .collect();
    let mut out = Vec::new();
    let mut perm = free.clone();
    permute(&mut perm, 0, &mut |p: &[IndexId]| {
        // Interleave the fixed subsequence into every gap arrangement.
        interleave(&fixed, p, &mut |order: &[IndexId]| {
            out.push(order.to_vec());
        });
    });
    out.sort();
    out.dedup();
    out
}

/// Heap-like recursive permutation generator.
fn permute(v: &mut [IndexId], k: usize, f: &mut impl FnMut(&[IndexId])) {
    if k == v.len() {
        f(v);
        return;
    }
    for i in k..v.len() {
        v.swap(k, i);
        permute(v, k + 1, f);
        v.swap(k, i);
    }
}

/// Emit every interleaving of `fixed` (order preserved) with `free`
/// (order preserved).
fn interleave(fixed: &[IndexId], free: &[IndexId], f: &mut impl FnMut(&[IndexId])) {
    let mut buf = Vec::with_capacity(fixed.len() + free.len());
    fn rec(
        fixed: &[IndexId],
        free: &[IndexId],
        buf: &mut Vec<IndexId>,
        f: &mut impl FnMut(&[IndexId]),
    ) {
        if fixed.is_empty() && free.is_empty() {
            f(buf);
            return;
        }
        if let Some((&h, rest)) = fixed.split_first() {
            buf.push(h);
            rec(rest, free, buf, f);
            buf.pop();
        }
        if let Some((&h, rest)) = free.split_first() {
            buf.push(h);
            rec(fixed, rest, buf, f);
            buf.pop();
        }
    }
    rec(fixed, free, &mut buf, f);
}

/// Number of loop orders per term and in total (product), without
/// materializing them: the paper's `Π |I_i|!/k_i!` bound from Sec. 4.1.2.
pub fn count_orders(kernel: &Kernel, path: &ContractionPath) -> (Vec<u128>, u128) {
    let per: Vec<u128> = (0..path.len())
        .map(|t| {
            let n = path.terms[t].iter_inds().len() as u128;
            let k = lineage_in_csf_order(kernel, path, t).len() as u128;
            factorial(n) / factorial(k)
        })
        .collect();
    let total = per.iter().product();
    (per, total)
}

fn factorial(n: u128) -> u128 {
    (1..=n).product::<u128>().max(1)
}

/// Iterator over the cartesian product of per-term loop orders: every
/// [`NestSpec`] for the path (the paper's exhaustive search space).
pub struct NestSpecIter {
    per_term: Vec<Vec<LoopOrder>>,
    cursor: Vec<usize>,
    done: bool,
}

impl NestSpecIter {
    /// Build the iterator for a path.
    pub fn new(kernel: &Kernel, path: &ContractionPath) -> Self {
        let per_term: Vec<Vec<LoopOrder>> = (0..path.len())
            .map(|t| orders_for_term(kernel, path, t))
            .collect();
        let done = per_term.iter().any(|v| v.is_empty());
        NestSpecIter {
            cursor: vec![0; per_term.len()],
            per_term,
            done,
        }
    }
}

impl Iterator for NestSpecIter {
    type Item = NestSpec;

    fn next(&mut self) -> Option<NestSpec> {
        if self.done {
            return None;
        }
        let spec = NestSpec {
            orders: self
                .cursor
                .iter()
                .zip(&self.per_term)
                .map(|(&c, v)| v[c].clone())
                .collect(),
        };
        // Advance odometer.
        let mut k = self.cursor.len();
        loop {
            if k == 0 {
                self.done = true;
                break;
            }
            k -= 1;
            self.cursor[k] += 1;
            if self.cursor[k] < self.per_term[k].len() {
                break;
            }
            self.cursor[k] = 0;
        }
        Some(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_kernel;
    use crate::path::path_from_picks;

    fn ttmc3() -> (Kernel, ContractionPath) {
        let k = parse_kernel(
            "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
            &[("i", 10), ("j", 10), ("k", 10), ("r", 4), ("s", 4)],
        )
        .unwrap();
        let p = path_from_picks(&k, &[(0, 2), (0, 1)]);
        (k, p)
    }

    #[test]
    fn order_counts_match_formula() {
        let (k, p) = ttmc3();
        // Term 0: T*V over {i,j,k,s}, lineage {i,j,k}: 4!/3! = 4 orders.
        let o0 = orders_for_term(&k, &p, 0);
        assert_eq!(o0.len(), 4);
        // Term 1: X*U over {i,j,s,r}, lineage {i,j}: 4!/2! = 12 orders.
        let o1 = orders_for_term(&k, &p, 1);
        assert_eq!(o1.len(), 12);
        let (per, total) = count_orders(&k, &p);
        assert_eq!(per, vec![4, 12]);
        assert_eq!(total, 48);
        assert_eq!(NestSpecIter::new(&k, &p).count(), 48);
    }

    #[test]
    fn lineage_subsequence_preserved() {
        let (k, p) = ttmc3();
        for o in orders_for_term(&k, &p, 0) {
            assert!(order_is_valid(&k, &p, 0, &o), "{o:?}");
            let spots: Vec<usize> = [0usize, 1, 2]
                .iter()
                .map(|&idx| o.iter().position(|&x| x == idx).unwrap())
                .collect();
            assert!(spots[0] < spots[1] && spots[1] < spots[2], "{o:?}");
        }
    }

    #[test]
    fn invalid_orders_rejected() {
        let (k, p) = ttmc3();
        assert!(!order_is_valid(&k, &p, 0, &[1, 0, 2, 4])); // j before i
        assert!(!order_is_valid(&k, &p, 0, &[0, 1, 2])); // missing s
        assert!(!order_is_valid(&k, &p, 0, &[0, 1, 2, 3])); // r not in term
        assert!(!order_is_valid(&k, &p, 0, &[0, 0, 1, 2])); // repeat
        assert!(order_is_valid(&k, &p, 0, &[0, 1, 4, 2])); // Listing 4 order
    }

    #[test]
    fn dense_only_term_unrestricted() {
        let k = parse_kernel(
            "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)",
            &[("i", 10), ("j", 10), ("k", 10), ("r", 4), ("s", 4)],
        )
        .unwrap();
        // Path contracting U*V first: term 0 has no lineage.
        let p = path_from_picks(&k, &[(1, 2), (0, 1)]);
        let o0 = orders_for_term(&k, &p, 0);
        assert_eq!(o0.len(), 24); // 4! over {j,k,r,s}
    }

    #[test]
    fn nestspec_iter_unique_and_complete() {
        let (k, p) = ttmc3();
        let all: Vec<NestSpec> = NestSpecIter::new(&k, &p).collect();
        let mut dedup = all.clone();
        dedup.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
    }

    #[test]
    fn describe_shows_names() {
        let (k, _p) = ttmc3();
        let spec = NestSpec {
            orders: vec![vec![0, 1, 2, 4], vec![0, 1, 4, 3]],
        };
        assert_eq!(spec.describe(&k), "(i,j,k,s),(i,j,s,r)");
    }
}
