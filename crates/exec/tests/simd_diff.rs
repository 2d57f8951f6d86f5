//! Differential sweep: every SIMD microkernel against its
//! scalar twin, on randomized lengths crossing every tail-handling
//! boundary (lane multiples, non-multiples, below one lane, the
//! 16-wide unroll edge), both contiguous and strided, within ≤1e-9 —
//! plus bitwise run-to-run determinism of each SIMD kernel on fixed
//! inputs (the fixed lane-tree reduction order must make repeat calls
//! reproduce every bit).
//!
//! Kernels come from `KernelSet::auto_detected()` (the host's best
//! implementation, ignoring the `SPTTN_MICROKERNELS` environment
//! override) and `KernelSet::scalar()`. On a host with no SIMD support
//! the two sets coincide and the sweep degenerates to self-comparison
//! — still valid, just vacuous.

use rand::prelude::*;
use spttn_exec::{blas, KernelSet, RankSpec};
use spttn_tensor::random_vec;

const TOL: f64 = 1e-9;

/// Trip counts crossing the 4-lane, 8-step, and 16-wide boundaries of
/// the widest kernels, plus empty and sub-lane lengths.
const LENS: &[usize] = &[
    0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 100, 257,
];

/// Strides exercised for the strided (non-contiguous) call shapes.
const STRIDES: &[usize] = &[2, 3];

/// The fixed ranks every kernel runs an unrolled body at.
const RANKS: &[usize] = &[8, 16, 32];

fn buf(n: usize, inc: usize, rng: &mut StdRng) -> Vec<f64> {
    random_vec(n.saturating_sub(1) * inc + 1, rng)
}

fn assert_close(got: &[f64], want: &[f64], what: &str) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() <= TOL,
            "{what}: element {i} differs: {g} vs {w}"
        );
    }
}

fn assert_bitwise(a: &[f64], b: &[f64], what: &str) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} not bitwise stable: {x} vs {y}"
        );
    }
}

#[test]
fn axpy_matches_scalar_twin() {
    let auto = KernelSet::auto_detected();
    let scalar = KernelSet::scalar();
    let mut rng = StdRng::seed_from_u64(11);
    for &n in LENS {
        for &(ix, iy) in &[(1usize, 1usize), (STRIDES[0], 1), (1, STRIDES[1])] {
            let contig = ix == 1 && iy == 1;
            let (kern, _) = auto.axpy(n, contig, None);
            let (skern, _) = scalar.axpy(n, contig, None);
            for alpha in [1.37, 0.0, -2.5] {
                let x = buf(n, ix, &mut rng);
                let y0 = buf(n, iy, &mut rng);
                let (mut ya, mut yb, mut yc) = (y0.clone(), y0.clone(), y0);
                kern(n, alpha, &x, ix, &mut ya, iy);
                skern(n, alpha, &x, ix, &mut yb, iy);
                assert_close(&ya, &yb, &format!("axpy n={n} ix={ix} iy={iy} a={alpha}"));
                kern(n, alpha, &x, ix, &mut yc, iy);
                assert_bitwise(&ya, &yc, &format!("axpy n={n} ix={ix} iy={iy}"));
            }
        }
    }
}

#[test]
fn rank_specialized_axpy_matches_scalar_twin() {
    let auto = KernelSet::auto_detected();
    let scalar = KernelSet::scalar();
    let mut rng = StdRng::seed_from_u64(12);
    for &r in RANKS {
        // A contiguous call at a fixed rank takes the unrolled body at
        // both tiers. The scalar tier's must equal `blas::axpy` bit for
        // bit, which doubles as fixed-vs-generic differential coverage.
        let (kern, spec) = auto.axpy(r, true, None);
        let (skern, sspec) = scalar.axpy(r, true, None);
        assert_ne!(spec, RankSpec::Gen, "a fixed rank takes the unrolled body");
        assert_eq!(sspec, spec, "the report is the same at every tier");
        let x = buf(r, 1, &mut rng);
        let y0 = buf(r, 1, &mut rng);
        let (mut ya, mut yb, mut yc) = (y0.clone(), y0.clone(), y0);
        kern(r, 0.77, &x, 1, &mut ya, 1);
        skern(r, 0.77, &x, 1, &mut yb, 1);
        blas::axpy(r, 0.77, &x, 1, &mut yc, 1);
        assert_close(&ya, &yb, &format!("axpy_fixed r={r}"));
        assert_bitwise(&yb, &yc, &format!("scalar axpy_fixed r={r}"));
    }
}

#[test]
fn zaxpy_assigns_and_matches_scalar_twin() {
    let auto = KernelSet::auto_detected();
    let scalar = KernelSet::scalar();
    let mut rng = StdRng::seed_from_u64(13);
    for &n in LENS {
        for alpha in [1.1, 0.0] {
            let (kern, skern) = (auto.zaxpy(), scalar.zaxpy());
            let x = buf(n, 1, &mut rng);
            // NaN targets: the assigning twin owns the zero point, so
            // every covered element must be overwritten — even at
            // alpha == 0, where an accumulating AXPY may early-return.
            let mut ya = vec![f64::NAN; n.max(1)];
            let mut yb = vec![f64::NAN; n.max(1)];
            kern(n, alpha, &x, 1, &mut ya, 1);
            skern(n, alpha, &x, 1, &mut yb, 1);
            assert!(
                ya[..n].iter().all(|v| !v.is_nan()),
                "zaxpy n={n} a={alpha}: NaN survived the assigning pass"
            );
            assert_close(&ya[..n], &yb[..n], &format!("zaxpy n={n} a={alpha}"));
        }
    }
}

#[test]
fn dot_matches_scalar_twin() {
    let auto = KernelSet::auto_detected();
    let scalar = KernelSet::scalar();
    let mut rng = StdRng::seed_from_u64(17);
    for &n in LENS {
        for &(ix, iy) in &[(1usize, 1usize), (STRIDES[0], STRIDES[1])] {
            let contig = ix == 1 && iy == 1;
            let (kern, _) = auto.dot(n, contig);
            let (skern, _) = scalar.dot(n, contig);
            let x = buf(n, ix, &mut rng);
            let y = buf(n, iy, &mut rng);
            let a = kern(n, &x, ix, &y, iy);
            let b = skern(n, &x, ix, &y, iy);
            assert!(
                (a - b).abs() <= TOL,
                "dot n={n} ix={ix} iy={iy}: {a} vs {b}"
            );
            // Fixed lane-tree reduction: repeat calls are bitwise equal.
            let a2 = kern(n, &x, ix, &y, iy);
            assert_eq!(a.to_bits(), a2.to_bits(), "dot n={n} not bitwise stable");
        }
    }
    // Rank-pinned dots (no tail loop at all).
    for &r in RANKS {
        let (kern, _) = auto.dot(r, true);
        let (skern, _) = scalar.dot(r, true);
        let x = buf(r, 1, &mut rng);
        let y = buf(r, 1, &mut rng);
        let (a, b) = (kern(r, &x, 1, &y, 1), skern(r, &x, 1, &y, 1));
        assert!((a - b).abs() <= TOL, "rank dot r={r}: {a} vs {b}");
    }
}

#[test]
fn xmul_matches_scalar_twin() {
    let auto = KernelSet::auto_detected();
    let scalar = KernelSet::scalar();
    let mut rng = StdRng::seed_from_u64(19);
    for &n in LENS {
        for &(ix, iz, iy) in &[(1usize, 1usize, 1usize), (STRIDES[0], 1, STRIDES[1])] {
            let x = buf(n, ix, &mut rng);
            let z = buf(n, iz, &mut rng);
            let y0 = buf(n, iy, &mut rng);
            let (mut ya, mut yb, mut yc) = (y0.clone(), y0.clone(), y0);
            auto.xmul()(n, 1.0, &x, ix, &z, iz, &mut ya, iy);
            scalar.xmul()(n, 1.0, &x, ix, &z, iz, &mut yb, iy);
            assert_close(&ya, &yb, &format!("xmul n={n} ix={ix} iz={iz} iy={iy}"));
            auto.xmul()(n, 1.0, &x, ix, &z, iz, &mut yc, iy);
            assert_bitwise(&ya, &yc, &format!("xmul n={n}"));
        }
        // Assigning twin over NaN targets.
        let x = buf(n, 1, &mut rng);
        let z = buf(n, 1, &mut rng);
        let mut ya = vec![f64::NAN; n.max(1)];
        let mut yb = vec![f64::NAN; n.max(1)];
        auto.zxmul()(n, 1.0, &x, 1, &z, 1, &mut ya, 1);
        scalar.zxmul()(n, 1.0, &x, 1, &z, 1, &mut yb, 1);
        assert!(
            ya[..n].iter().all(|v| !v.is_nan()),
            "zxmul n={n}: NaN survived the assigning pass"
        );
        assert_close(&ya[..n], &yb[..n], &format!("zxmul n={n}"));
    }
}

#[test]
fn ger_matches_scalar_twin() {
    let auto = KernelSet::auto_detected();
    let scalar = KernelSet::scalar();
    let mut rng = StdRng::seed_from_u64(23);
    for &m in &[1usize, 2, 5, 16] {
        for &n in &[1usize, 3, 8, 33] {
            // Contiguous row-major target.
            let x = buf(m, 1, &mut rng);
            let y = buf(n, 1, &mut rng);
            let a0 = random_vec(m * n, &mut rng);
            let (kern, _) = auto.ger(n, true, None);
            let (skern, _) = scalar.ger(n, true, None);
            let (mut aa, mut ab, mut ac) = (a0.clone(), a0.clone(), a0);
            kern(m, n, 1.0, &x, 1, &y, 1, &mut aa, n, 1);
            skern(m, n, 1.0, &x, 1, &y, 1, &mut ab, n, 1);
            assert_close(&aa, &ab, &format!("ger {m}x{n}"));
            kern(m, n, 1.0, &x, 1, &y, 1, &mut ac, n, 1);
            assert_bitwise(&aa, &ac, &format!("ger {m}x{n}"));

            // Strided target (column stride 2).
            let a0 = random_vec(m * n * 2, &mut rng);
            let (kern, _) = auto.ger(n, false, None);
            let (skern, _) = scalar.ger(n, false, None);
            let (mut aa, mut ab) = (a0.clone(), a0);
            kern(m, n, 1.0, &x, 1, &y, 1, &mut aa, 2 * n, 2);
            skern(m, n, 1.0, &x, 1, &y, 1, &mut ab, 2 * n, 2);
            assert_close(&aa, &ab, &format!("strided ger {m}x{n}"));

            // Assigning twin over NaN targets.
            let mut aa = vec![f64::NAN; m * n];
            let mut ab = vec![f64::NAN; m * n];
            auto.zger()(m, n, 1.0, &x, 1, &y, 1, &mut aa, n, 1);
            scalar.zger()(m, n, 1.0, &x, 1, &y, 1, &mut ab, n, 1);
            assert!(
                aa.iter().all(|v| !v.is_nan()),
                "zger {m}x{n}: NaN survived the assigning pass"
            );
            assert_close(&aa, &ab, &format!("zger {m}x{n}"));
        }
    }
    // Rank-pinned GER rows.
    for &r in RANKS {
        let m = 5;
        let x = buf(m, 1, &mut rng);
        let y = buf(r, 1, &mut rng);
        let a0 = random_vec(m * r, &mut rng);
        let (kern, _) = auto.ger(r, true, None);
        let (skern, _) = scalar.ger(r, true, None);
        let (mut aa, mut ab) = (a0.clone(), a0);
        kern(m, r, 1.0, &x, 1, &y, 1, &mut aa, r, 1);
        skern(m, r, 1.0, &x, 1, &y, 1, &mut ab, r, 1);
        assert_close(&aa, &ab, &format!("ger_fixed {m}x{r}"));
    }
}

#[test]
fn gemv_matches_scalar_twin() {
    let auto = KernelSet::auto_detected();
    let scalar = KernelSet::scalar();
    let mut rng = StdRng::seed_from_u64(29);
    for &m in &[1usize, 4, 9] {
        for &n in &[1usize, 3, 8, 16, 33] {
            let a = random_vec(m * n, &mut rng);
            let x = buf(n, 1, &mut rng);
            let y0 = buf(m, 1, &mut rng);
            let (kern, skern) = (auto.gemv(), scalar.gemv());
            let (mut ya, mut yb, mut yc) = (y0.clone(), y0.clone(), y0);
            kern(m, n, 1.0, &a, n, 1, &x, 1, &mut ya, 1);
            skern(m, n, 1.0, &a, n, 1, &x, 1, &mut yb, 1);
            assert_close(&ya, &yb, &format!("gemv {m}x{n}"));
            kern(m, n, 1.0, &a, n, 1, &x, 1, &mut yc, 1);
            assert_bitwise(&ya, &yc, &format!("gemv {m}x{n}"));

            // Transposed-walk shape: column-major A (rs = 1, cs = m),
            // the layout the swapped tape call sites emit.
            let a = random_vec(n * m, &mut rng);
            let y0 = buf(m, 1, &mut rng);
            let (mut ya, mut yb) = (y0.clone(), y0);
            kern(m, n, 1.0, &a, 1, m, &x, 1, &mut ya, 1);
            skern(m, n, 1.0, &a, 1, m, &x, 1, &mut yb, 1);
            assert_close(&ya, &yb, &format!("gemv^T {m}x{n}"));
        }
    }
}
