//! Microkernel throughput: the kernels the tape calls, fetched from a
//! `KernelSet` exactly as the tape compiler fetches them, at the shapes
//! the benchmark gate's workloads dispatch (rank 16 and 32, where each
//! kernel runs its unrolled fixed-rank body, and generic 4096-long
//! vectors). Every kernel is timed on the host's best tier
//! (`KernelSet::auto_detected()`) and on the scalar tier
//! (`KernelSet::scalar()`); a row's id names the body the accessor
//! reports for its shape (`RankSpec`).
//!
//! Each row is about 2^20 kernel elements of back-to-back calls on the
//! same operands; its JSON `stats` carry `calls`, `ns_per_call` (median
//! sample over calls) and `gflops` at two flops per element, the
//! convention `ExecStats::flops` uses.
//!
//! Run with `cargo bench -p spttn-bench --bench microkernels`.

use rand::prelude::*;
use spttn::exec::{KernelSet, RankSpec};
use spttn::tensor::random_vec as rand_vec;
use spttn_bench::{black_box, Harness};

/// Kernel elements per timed iteration.
const ELEMS_PER_ITER: usize = 1 << 20;

/// Time `call` (one kernel call over `elems` elements) as one row.
fn row(h: &mut Harness, id: &str, elems: usize, mut call: impl FnMut()) {
    let calls = (ELEMS_PER_ITER / elems).max(1);
    let mut samples = h
        .bench_function(id, || {
            for _ in 0..calls {
                call();
            }
        })
        .to_vec();
    samples.sort_by(f64::total_cmp);
    let ns = samples[samples.len() / 2] * 1e6 / calls as f64;
    let gflops = 2.0 * elems as f64 / ns;
    h.note(
        id,
        format!("{{\"calls\": {calls}, \"ns_per_call\": {ns:.2}, \"gflops\": {gflops:.2}}}"),
    );
}

fn main() {
    let mut rng = StdRng::seed_from_u64(11);
    let big = 4096usize;
    let x = rand_vec(big, &mut rng);
    let z = rand_vec(big, &mut rng);
    let mut y = vec![0.0; big];
    let mut a = vec![0.0; 32 * 32];

    let mut h = Harness::new("microkernels: KernelSet tiers at the gate's shapes").with_runs(5, 20);
    for ks in [KernelSet::auto_detected(), KernelSet::scalar()] {
        let tier = ks.name();
        for n in [32, big] {
            let (axpy, spec) = ks.axpy(n, true, None);
            row(&mut h, &format!("axpy {n} {spec:?} [{tier}]"), n, || {
                axpy(n, 1e-9, black_box(&x), 1, &mut y, 1)
            });
            let zaxpy = ks.zaxpy();
            row(&mut h, &format!("zaxpy {n} {spec:?} [{tier}]"), n, || {
                zaxpy(n, 1.0001, black_box(&x), 1, &mut y, 1)
            });
            let xmul = ks.xmul();
            row(&mut h, &format!("xmul {n} Gen [{tier}]"), n, || {
                xmul(n, 1e-9, black_box(&x), 1, &z, 1, &mut y, 1)
            });
        }
        for r in [16, 32] {
            let (ger, spec) = ks.ger(r, true, None);
            row(
                &mut h,
                &format!("ger {r}x{r} {spec:?} [{tier}]"),
                r * r,
                || ger(r, r, 1e-9, black_box(&x), 1, &z, 1, &mut a, r, 1),
            );
        }
        let (dot, spec) = ks.dot(32, true);
        let mut acc = 0.0;
        row(&mut h, &format!("dot 32 {spec:?} [{tier}]"), 32, || {
            acc += dot(32, black_box(&x), 1, &z, 1)
        });
        black_box(acc);
        let gemv = ks.gemv();
        row(
            &mut h,
            &format!("gemv 32x32 {:?} [{tier}]", RankSpec::of(32, true)),
            32 * 32,
            || gemv(32, 32, 1e-9, black_box(&a), 32, 1, &x, 1, &mut y, 1),
        );
    }
    black_box((&y, &a));
    h.finish();
}
