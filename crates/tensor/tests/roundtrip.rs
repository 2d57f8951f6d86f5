//! COO → CSF → COO round-trips under **every** permutation of the mode
//! order, on randomized 3- and 4-mode tensors — the invariant the
//! planner's mode-order search and `Plan::bind`'s re-sort path depend
//! on: whatever storage order a tree uses, the set of (coordinate,
//! value) entries it represents is unchanged. Input that is already
//! sorted skips the sort; the last test checks that skipping it changes
//! nothing.

use rand::prelude::*;
use spttn_tensor::{random_coo, skewed_coo, CooTensor, Csf, SubsetCounts};

/// All permutations of `0..d` (d ≤ 4 here, so at most 24).
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
    let mut base: Vec<usize> = (0..d).collect();
    go(&mut base, 0, &mut out);
    out
}

/// Canonical form of a COO tensor: entries sorted in natural order.
fn canonical(coo: &CooTensor) -> CooTensor {
    let mut c = coo.clone();
    let natural: Vec<usize> = (0..c.order()).collect();
    c.sort_dedup(&natural).unwrap();
    c
}

fn assert_roundtrips(coo: &CooTensor, label: &str) {
    let want = canonical(coo);
    let counts = SubsetCounts::of(coo).unwrap();
    for order in permutations(coo.order()) {
        let csf = Csf::from_coo(coo, &order).unwrap();
        assert_eq!(csf.nnz(), want.nnz(), "{label}: nnz under {order:?}");
        // Exact entry-set equality, not just dense closeness: the
        // rebuilt COO re-sorted to natural order must be identical.
        let back = canonical(&csf.to_coo());
        assert_eq!(back, want, "{label}: round-trip under {order:?}");
        // The CSF's per-level node counts must agree with the profile
        // computed directly from the COO under the same order (the
        // quantity the order search scores with).
        let profile = counts.profile(&order).unwrap();
        for k in 0..coo.order() {
            assert_eq!(
                profile.prefix_nnz(k + 1),
                csf.level_nnz(k) as u64,
                "{label}: level {k} under {order:?}"
            );
        }
        // reordered() from this tree to every other order must equal a
        // direct build in that order.
        for other in permutations(coo.order()) {
            let re = csf.reordered(&other).unwrap();
            assert_eq!(
                re,
                Csf::from_coo(coo, &other).unwrap(),
                "{label}: reorder {order:?} -> {other:?}"
            );
        }
    }
}

#[test]
fn random_3mode_all_permutations() {
    let mut rng = StdRng::seed_from_u64(101);
    for (dims, nnz) in [([7usize, 5, 9], 60), ([12, 3, 12], 100), ([2, 2, 2], 7)] {
        let coo = random_coo(&dims, nnz, &mut rng).unwrap();
        assert_roundtrips(&coo, &format!("random {dims:?}"));
    }
}

#[test]
fn random_4mode_all_permutations() {
    let mut rng = StdRng::seed_from_u64(202);
    for (dims, nnz) in [([5usize, 4, 6, 3], 80), ([9, 2, 3, 7], 50)] {
        let coo = random_coo(&dims, nnz, &mut rng).unwrap();
        assert_roundtrips(&coo, &format!("random {dims:?}"));
    }
}

#[test]
fn skewed_3mode_all_permutations() {
    // Power-law skew concentrates entries in low coordinates, stressing
    // unbalanced fibers and repeated prefixes.
    let mut rng = StdRng::seed_from_u64(303);
    let coo = skewed_coo(&[30, 20, 10], 120, 2.5, &mut rng).unwrap();
    assert!(coo.nnz() > 0);
    assert_roundtrips(&coo, "skewed [30,20,10]");
}

#[test]
fn duplicates_merge_identically_under_every_order() {
    // Duplicate coordinates must collapse to the same sums whichever
    // level order the tree is built in.
    let coo = CooTensor::from_entries(
        &[4, 3, 5],
        vec![
            (vec![1, 2, 0], 1.0),
            (vec![1, 2, 0], 2.0),
            (vec![0, 0, 4], -1.0),
            (vec![1, 2, 0], 0.5),
            (vec![3, 1, 1], 4.0),
            (vec![0, 0, 4], 1.0),
        ],
    )
    .unwrap();
    for order in permutations(3) {
        let csf = Csf::from_coo(&coo, &order).unwrap();
        assert_eq!(csf.nnz(), 3, "order {order:?}");
        let dense = csf.to_coo().to_dense();
        assert_eq!(dense.get(&[1, 2, 0]), 3.5, "order {order:?}");
        assert_eq!(dense.get(&[0, 0, 4]), 0.0, "order {order:?}");
        assert_eq!(dense.get(&[3, 1, 1]), 4.0, "order {order:?}");
    }
}

/// `entries` in random order with a few entries repeated (new values),
/// so every mode order takes the copying sort.
fn shuffled_with_duplicates(coo: &CooTensor, rng: &mut StdRng) -> CooTensor {
    let mut entries: Vec<(Vec<usize>, f64)> = coo.iter().map(|(c, v)| (c.to_vec(), v)).collect();
    for k in 0..coo.nnz() / 8 {
        let e = rng.gen_range(0..coo.nnz());
        entries.push((coo.coord(e).to_vec(), k as f64 + 0.5));
    }
    for i in (1..entries.len()).rev() {
        entries.swap(i, rng.gen_range(0..i + 1));
    }
    CooTensor::from_entries(coo.dims(), entries).unwrap()
}

fn same_bits(a: &CooTensor, b: &CooTensor) -> bool {
    a.dims() == b.dims()
        && a.coords() == b.coords()
        && a.vals()
            .iter()
            .map(|v| v.to_bits())
            .eq(b.vals().iter().map(|v| v.to_bits()))
}

/// Input that is already sorted without duplicates skips the sort in
/// `sort_dedup` and `Csf::from_coo`, and `SubsetCounts::of` counts its
/// natural prefixes by run length; the result must be what the sort
/// produces from a shuffled copy with duplicates, under every mode
/// order.
#[test]
fn sorted_input_fast_path_matches_the_sort() {
    let mut rng = StdRng::seed_from_u64(404);
    for (dims, nnz) in [
        (vec![7usize, 5, 9], 90),
        (vec![5, 4, 6, 3], 120),
        (vec![11, 13], 40),
        (vec![30], 12),
    ] {
        let coo = random_coo(&dims, nnz, &mut rng).unwrap();
        let messy = shuffled_with_duplicates(&coo, &mut rng);
        for order in permutations(coo.order()) {
            let label = format!("{dims:?} under {order:?}");
            // The slow path: shuffled, duplicated input is sorted.
            let mut sorted = messy.clone();
            sorted.sort_dedup(&order).unwrap();
            assert_eq!(sorted.nnz(), coo.nnz(), "{label}");
            // The fast path: sorted input is left exactly as it is.
            let mut again = sorted.clone();
            again.sort_dedup(&order).unwrap();
            assert!(same_bits(&again, &sorted), "{label}: sort_dedup");
            assert_eq!(
                Csf::from_coo(&sorted, &order).unwrap(),
                Csf::from_coo(&messy, &order).unwrap(),
                "{label}: Csf::from_coo"
            );
            assert_eq!(
                SubsetCounts::of(&sorted).unwrap(),
                SubsetCounts::of(&messy).unwrap(),
                "{label}: SubsetCounts::of"
            );
            // Sorted but for one repeated last entry: not canonical, so
            // the duplicate still merges.
            let last = sorted.nnz() - 1;
            let mut dup = sorted.clone();
            dup.push(sorted.coord(last), 1.0).unwrap();
            dup.sort_dedup(&order).unwrap();
            assert_eq!(dup.nnz(), sorted.nnz(), "{label}: trailing duplicate");
            assert_eq!(dup.val(last), sorted.val(last) + 1.0, "{label}");
        }
    }
}
