//! Microkernel checks against naive triple-loop references.

use rand::prelude::*;
use spttn_exec::blas;
use spttn_tensor::random_vec as rand_vec;

#[test]
fn gemv_matches_triple_loop() {
    let mut rng = StdRng::seed_from_u64(102);
    // Row-major (cs=1) and strided (column-major-ish) layouts.
    for (m, n, rs, cs) in [(4, 3, 3, 1), (4, 3, 1, 4), (6, 6, 6, 1)] {
        let a = rand_vec(m * n, &mut rng);
        let x = rand_vec(n, &mut rng);
        let alpha = -0.75;
        let mut y = rand_vec(m, &mut rng);
        let mut want = y.clone();
        for i in 0..m {
            let mut acc = 0.0;
            for j in 0..n {
                acc += a[i * rs + j * cs] * x[j];
            }
            want[i] += alpha * acc;
        }
        blas::gemv(m, n, alpha, &a, rs, cs, &x, 1, &mut y, 1);
        for (u, v) in y.iter().zip(&want) {
            assert!((u - v).abs() < 1e-12, "gemv rs={rs} cs={cs}: {u} vs {v}");
        }
    }
}

#[test]
fn ger_matches_triple_loop() {
    let mut rng = StdRng::seed_from_u64(103);
    for (m, n, rs, cs) in [(3, 4, 4, 1), (3, 4, 1, 3), (5, 2, 2, 1)] {
        let x = rand_vec(m, &mut rng);
        let y = rand_vec(n, &mut rng);
        let alpha = 2.25;
        let mut a = rand_vec(m * n, &mut rng);
        let mut want = a.clone();
        for i in 0..m {
            for j in 0..n {
                want[i * rs + j * cs] += alpha * x[i] * y[j];
            }
        }
        blas::ger(m, n, alpha, &x, 1, &y, 1, &mut a, rs, cs);
        for (u, v) in a.iter().zip(&want) {
            assert!((u - v).abs() < 1e-12, "ger rs={rs} cs={cs}: {u} vs {v}");
        }
    }
}

#[test]
fn gemv_strided_vectors() {
    // incx = 2, incy = 3 exercise the generic path.
    let a = [1.0, 2.0, 3.0, 4.0]; // 2x2 row-major
    let x = [1.0, 9.0, 2.0]; // logical [1, 2] at stride 2
    let mut y = [0.0; 6];
    blas::gemv(2, 2, 1.0, &a, 2, 1, &x, 2, &mut y, 3);
    assert_eq!(y[0], 1.0 * 1.0 + 2.0 * 2.0);
    assert_eq!(y[3], 3.0 * 1.0 + 4.0 * 2.0);
}
