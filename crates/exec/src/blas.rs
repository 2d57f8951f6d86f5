//! BLAS-style microkernels.
//!
//! The paper offloads innermost dense loops to BLAS (Sec. 5, Fig. 6:
//! xAXPY for rank-1 updates along one mode, xGER for two). These are
//! pure-Rust equivalents: strided in general, with contiguous fast paths
//! written so the compiler auto-vectorizes them. They are the reference
//! the kernel tiers are held to (`tests/simd_diff.rs`,
//! `tests/blas_ref.rs`): the scalar kernel tier ([`crate::simd`]) runs
//! their arithmetic in their order — its DOT is `Scalar::dot`'s
//! left-to-right fold, its GEMV the shared `simd::gemv` body over that
//! DOT, its element-parallel kernels the lane-generic bodies on one
//! unfused `f64` lane — and the committed digests
//! (`tests/tape_digests.txt`) pin the bits a scalar-tier tape computes
//! with them.

/// `y[i*incy] += alpha * x[i*incx]` for `i in 0..n` (xAXPY).
#[inline]
pub fn axpy(n: usize, alpha: f64, x: &[f64], incx: usize, y: &mut [f64], incy: usize) {
    if alpha == 0.0 {
        return;
    }
    if incx == 1 && incy == 1 {
        let (x, y) = (&x[..n], &mut y[..n]);
        for i in 0..n {
            y[i] += alpha * x[i];
        }
    } else {
        for i in 0..n {
            y[i * incy] += alpha * x[i * incx];
        }
    }
}

/// `Σ x[i*incx] * y[i*incy]` (xDOT).
#[inline]
pub fn dot(n: usize, x: &[f64], incx: usize, y: &[f64], incy: usize) -> f64 {
    if incx == 1 && incy == 1 {
        let (x, y) = (&x[..n], &y[..n]);
        let mut acc = 0.0;
        for i in 0..n {
            acc += x[i] * y[i];
        }
        acc
    } else {
        let mut acc = 0.0;
        for i in 0..n {
            acc += x[i * incx] * y[i * incy];
        }
        acc
    }
}

/// `y[i*incy] += alpha * x[i*incx] * z[i*incz]` — the pointwise ternary
/// loop SpTTN leaves need when an index lives in all three tensors.
#[inline]
#[allow(clippy::too_many_arguments)] // BLAS-conventional signature
pub fn xmul(
    n: usize,
    alpha: f64,
    x: &[f64],
    incx: usize,
    z: &[f64],
    incz: usize,
    y: &mut [f64],
    incy: usize,
) {
    if incx == 1 && incz == 1 && incy == 1 {
        let (x, z, y) = (&x[..n], &z[..n], &mut y[..n]);
        for i in 0..n {
            y[i] += alpha * x[i] * z[i];
        }
    } else {
        for i in 0..n {
            y[i * incy] += alpha * x[i * incx] * z[i * incz];
        }
    }
}

/// Rank-1 update `a[i*rs + j*cs] += alpha * x[i*incx] * y[j*incy]`
/// for `i in 0..m, j in 0..n` (xGER).
#[inline]
#[allow(clippy::too_many_arguments)] // BLAS-conventional signature
pub fn ger(
    m: usize,
    n: usize,
    alpha: f64,
    x: &[f64],
    incx: usize,
    y: &[f64],
    incy: usize,
    a: &mut [f64],
    rs: usize,
    cs: usize,
) {
    if alpha == 0.0 {
        return;
    }
    if cs == 1 && incy == 1 {
        for i in 0..m {
            let xi = alpha * x[i * incx];
            let row = &mut a[i * rs..i * rs + n];
            let yv = &y[..n];
            for j in 0..n {
                row[j] += xi * yv[j];
            }
        }
    } else {
        for i in 0..m {
            let xi = alpha * x[i * incx];
            for j in 0..n {
                a[i * rs + j * cs] += xi * y[j * incy];
            }
        }
    }
}

/// `y[i] += alpha * Σ_j a[i*rs + j*cs] * x[j*incx]` (xGEMV, row-major
/// when `cs == 1`).
#[inline]
#[allow(clippy::too_many_arguments)] // BLAS-conventional signature
pub fn gemv(
    m: usize,
    n: usize,
    alpha: f64,
    a: &[f64],
    rs: usize,
    cs: usize,
    x: &[f64],
    incx: usize,
    y: &mut [f64],
    incy: usize,
) {
    for i in 0..m {
        let mut acc = 0.0;
        if cs == 1 && incx == 1 {
            let row = &a[i * rs..i * rs + n];
            let xv = &x[..n];
            for j in 0..n {
                acc += row[j] * xv[j];
            }
        } else {
            for j in 0..n {
                acc += a[i * rs + j * cs] * x[j * incx];
            }
        }
        y[i * incy] += alpha * acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_contiguous_and_strided() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let mut y = [0.0; 4];
        axpy(4, 2.0, &x, 1, &mut y, 1);
        assert_eq!(y, [2.0, 4.0, 6.0, 8.0]);
        let mut y2 = [0.0; 8];
        axpy(4, 1.0, &x, 1, &mut y2, 2);
        assert_eq!(y2, [1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0, 0.0]);
        axpy(2, 1.0, &x, 2, &mut y2, 1);
        assert_eq!(y2[0], 2.0);
        assert_eq!(y2[1], 3.0);
    }

    #[test]
    fn axpy_zero_alpha_noop() {
        let x = [f64::NAN; 3];
        let mut y = [1.0; 3];
        axpy(3, 0.0, &x, 1, &mut y, 1);
        assert_eq!(y, [1.0; 3]);
    }

    #[test]
    fn dot_matches_manual() {
        let x = [1.0, 2.0, 3.0];
        let y = [4.0, 5.0, 6.0];
        assert_eq!(dot(3, &x, 1, &y, 1), 32.0);
        assert_eq!(dot(2, &x, 2, &y, 2), 1.0 * 4.0 + 3.0 * 6.0);
    }

    #[test]
    fn xmul_pointwise() {
        let x = [1.0, 2.0];
        let z = [3.0, 4.0];
        let mut y = [10.0, 10.0];
        xmul(2, 2.0, &x, 1, &z, 1, &mut y, 1);
        assert_eq!(y, [16.0, 26.0]);
    }

    #[test]
    fn ger_rank1() {
        let x = [1.0, 2.0];
        let y = [3.0, 4.0, 5.0];
        let mut a = [0.0; 6];
        ger(2, 3, 1.0, &x, 1, &y, 1, &mut a, 3, 1);
        assert_eq!(a, [3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
        // Strided (column-major-ish) path.
        let mut a2 = [0.0; 6];
        ger(2, 3, 1.0, &x, 1, &y, 1, &mut a2, 1, 2);
        assert_eq!(a2[0], 3.0); // (0,0)
        assert_eq!(a2[2], 4.0); // (0,1)
        assert_eq!(a2[1], 6.0); // (1,0)
    }

    #[test]
    fn gemv_matches_manual() {
        // a = [[1,2],[3,4],[5,6]] row-major; x = [1,1].
        let a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let x = [1.0, 1.0];
        let mut y = [0.0; 3];
        gemv(3, 2, 1.0, &a, 2, 1, &x, 1, &mut y, 1);
        assert_eq!(y, [3.0, 7.0, 11.0]);
    }
}
