//! `SubsetCounts::of` against brute force: on generated patterns of
//! order 1–5 every subset count equals the size of a `BTreeSet` of the
//! projections, and every mode order's profile equals the node counts
//! of the CSF built in that order. The generator covers each counting
//! method: input in natural order, with and without repeated
//! coordinates (natural prefixes by run length), shuffled input with
//! repeated coordinates (the full set by a sort), nnz = 0, extent-1
//! modes, and extents whose subset cell products overflow the bitmap
//! budget and `u64` itself (both counted by sorts).

use rand::prelude::*;
use spttn_tensor::{CooTensor, Csf, SubsetCounts};
use std::collections::BTreeSet;

/// All permutations of `0..d`.
fn permutations(d: usize) -> Vec<Vec<usize>> {
    fn go(perm: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
        if k == perm.len() {
            out.push(perm.clone());
            return;
        }
        for i in k..perm.len() {
            perm.swap(k, i);
            go(perm, k + 1, out);
            perm.swap(k, i);
        }
    }
    let mut out = Vec::new();
    go(&mut (0..d).collect(), 0, &mut out);
    out
}

/// An extent of one of four kinds: 1, small, past any bitmap budget, or
/// so large that two such modes overflow `u64`.
fn extent(rng: &mut StdRng) -> usize {
    match rng.gen_range(0..4usize) {
        0 => 1,
        1 => rng.gen_range(2..7usize),
        2 => 1 << 40,
        _ => usize::MAX / 3,
    }
}

/// `nnz` entries whose coordinates come from a few values per mode, so
/// projections (and, at small extents, whole coordinates) repeat.
fn pattern(dims: &[usize], nnz: usize, rng: &mut StdRng) -> CooTensor {
    let mut coo = CooTensor::new(dims).unwrap();
    for e in 0..nnz {
        let coord: Vec<usize> = dims
            .iter()
            .map(|&d| [0, 1, d / 2, d - 1][rng.gen_range(0..4usize)].min(d - 1))
            .collect();
        coo.push(&coord, e as f64).unwrap();
    }
    coo
}

fn check(coo: &CooTensor, label: &str) {
    let d = coo.order();
    let counts = SubsetCounts::of(coo).unwrap();
    assert_eq!(counts.dims(), coo.dims(), "{label}");
    assert_eq!(counts.count(&[]), 1, "{label}: the empty projection");
    for subset in 1..1usize << d {
        let modes: Vec<usize> = (0..d).filter(|m| subset >> m & 1 == 1).collect();
        let projections: BTreeSet<Vec<usize>> = coo
            .iter()
            .map(|(c, _)| modes.iter().map(|&m| c[m]).collect())
            .collect();
        assert_eq!(
            counts.count(&modes),
            projections.len() as u64,
            "{label}: modes {modes:?}"
        );
    }
    for order in permutations(d) {
        let profile = counts.profile(&order).unwrap();
        let csf = Csf::from_coo(coo, &order).unwrap();
        assert_eq!(profile.mode_order(), &order[..], "{label}");
        assert_eq!(profile.prefix_nnz(0), 1, "{label}");
        for k in 0..d {
            assert_eq!(
                profile.prefix_nnz(k + 1),
                csf.level_nnz(k) as u64,
                "{label}: level {k} under {order:?}"
            );
        }
    }
}

#[test]
fn subset_counts_match_brute_force_and_the_csf() {
    let mut rng = StdRng::seed_from_u64(36);
    for case in 0..300 {
        let d = 1 + case % 5;
        let dims: Vec<usize> = (0..d).map(|_| extent(&mut rng)).collect();
        let nnz = if case % 7 == 0 {
            0
        } else {
            rng.gen_range(1..40usize)
        };
        let messy = pattern(&dims, nnz, &mut rng);
        check(&messy, &format!("case {case} {dims:?} unsorted"));
        let mut sorted = messy.clone();
        sorted.sort_dedup(&(0..d).collect::<Vec<_>>()).unwrap();
        check(&sorted, &format!("case {case} {dims:?} sorted"));
        let mut doubled = CooTensor::new(&dims).unwrap();
        for (c, v) in sorted.iter().flat_map(|e| [e, e]) {
            doubled.push(c, v).unwrap();
        }
        check(&doubled, &format!("case {case} {dims:?} sorted, doubled"));
    }
}

#[test]
fn too_many_modes_is_an_error_not_a_blowup() {
    let coo = CooTensor::new(&[2; spttn_tensor::MAX_COUNTED_ORDER + 1]).unwrap();
    assert!(matches!(
        SubsetCounts::of(&coo),
        Err(spttn_tensor::TensorError::TooManyModes { .. })
    ));
}
