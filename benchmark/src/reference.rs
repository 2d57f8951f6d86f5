//! Harness-owned reference results.
//!
//! Each function walks the COO nonzeros and the dense-only index space
//! directly. Nothing here calls the planner, an executor, or the
//! library's `naive_einsum` oracle (which densifies the sparse operand —
//! 24 GB on the hypersparse tensor), so a bug shared by every engine
//! in the repo still shows as a mismatch.

use crate::workloads::{Inputs, Kernel, Workload};
use spttn::tensor::{CooTensor, DenseTensor};
use spttn::ContractionOutput;

/// Outputs must agree with the reference to this share of ‖ref‖∞.
pub const TOLERANCE: f64 = 1e-9;

/// The expected output values: row-major dense data, or one value per
/// nonzero in the COO's (sorted) entry order for a sparse output.
pub fn compute(w: &Workload, inputs: &Inputs) -> Vec<f64> {
    let f = |n: usize| &inputs.factors[n].1;
    match w.kernel {
        Kernel::Mttkrp => mttkrp(&inputs.coo, &inputs.dims, f(0), f(1)),
        Kernel::Ttmc => ttmc(&inputs.coo, &inputs.dims, f(0), f(1)),
        Kernel::Tttp => tttp(&inputs.coo, f(0), f(1), f(2)),
        Kernel::NetFactored => mttkrp(&inputs.coo, &inputs.dims, &matmul(f(0), f(1)), f(2)),
    }
}

fn row(t: &DenseTensor, r: usize) -> &[f64] {
    let n = t.dims()[1];
    &t.as_slice()[r * n..(r + 1) * n]
}

/// `A[i,a] = Σ_{j,k} T[i,j,k] · B[j,a] · C[k,a]`
fn mttkrp(coo: &CooTensor, dims: &[usize], b: &DenseTensor, c: &DenseTensor) -> Vec<f64> {
    let rank = b.dims()[1];
    let mut out = vec![0.0; dims[0] * rank];
    for (coord, t) in coo.iter() {
        let (bj, ck) = (row(b, coord[1]), row(c, coord[2]));
        let dst = &mut out[coord[0] * rank..(coord[0] + 1) * rank];
        for a in 0..rank {
            dst[a] += t * bj[a] * ck[a];
        }
    }
    out
}

/// `S[i,r,s] = Σ_{j,k} T[i,j,k] · U[j,r] · V[k,s]`
fn ttmc(coo: &CooTensor, dims: &[usize], u: &DenseTensor, v: &DenseTensor) -> Vec<f64> {
    let (nr, ns) = (u.dims()[1], v.dims()[1]);
    let mut out = vec![0.0; dims[0] * nr * ns];
    for (coord, t) in coo.iter() {
        let (uj, vk) = (row(u, coord[1]), row(v, coord[2]));
        let slab = &mut out[coord[0] * nr * ns..(coord[0] + 1) * nr * ns];
        for r in 0..nr {
            let tu = t * uj[r];
            for s in 0..ns {
                slab[r * ns + s] += tu * vk[s];
            }
        }
    }
    out
}

/// `S[i,j,k] = T[i,j,k] · Σ_r U[i,r] · V[j,r] · W[k,r]` on T's pattern.
fn tttp(coo: &CooTensor, u: &DenseTensor, v: &DenseTensor, w: &DenseTensor) -> Vec<f64> {
    coo.iter()
        .map(|(coord, t)| {
            let (ui, vj, wk) = (row(u, coord[0]), row(v, coord[1]), row(w, coord[2]));
            let dot: f64 = (0..ui.len()).map(|r| ui[r] * vj[r] * wk[r]).sum();
            t * dot
        })
        .collect()
}

/// Plain triple-loop `A·D`.
pub fn matmul(a: &DenseTensor, d: &DenseTensor) -> DenseTensor {
    let (rows, inner, cols) = (a.dims()[0], a.dims()[1], d.dims()[1]);
    assert_eq!(inner, d.dims()[0], "inner extents of A·D");
    let mut out = vec![0.0; rows * cols];
    for j in 0..rows {
        for m in 0..inner {
            let ajm = a.as_slice()[j * inner + m];
            for r in 0..cols {
                out[j * cols + r] += ajm * d.as_slice()[m * cols + r];
            }
        }
    }
    DenseTensor::from_data(&[rows, cols], out).expect("rows·cols values")
}

/// Flops the reference loop spends (multiplies and adds it executes),
/// the numerator of `exec.ref_gflops`: what the contraction costs when
/// written the obvious way, independent of the plan the library chose.
pub fn flops(w: &Workload, inputs: &Inputs) -> f64 {
    let nnz = inputs.coo.nnz() as f64;
    let d = |name: &str| w.dim(name, &inputs.dims) as f64;
    match w.kernel {
        Kernel::Mttkrp => 3.0 * nnz * d("a"),
        Kernel::Ttmc => nnz * d("r") * (1.0 + 2.0 * d("s")),
        Kernel::Tttp => nnz * (3.0 * d("r") + 1.0),
        Kernel::NetFactored => 2.0 * d("j") * d("m") * d("r") + 3.0 * nnz * d("r"),
    }
}

/// Whether `got` is the reference result, and the largest deviation as
/// a share of ‖ref‖∞. A sparse output must also carry exactly the
/// input's coordinates, in the input's order.
pub fn check(got: &ContractionOutput, want: &[f64], coo: &CooTensor) -> (bool, f64) {
    let vals = match got {
        ContractionOutput::Dense(d) => d.as_slice(),
        ContractionOutput::Sparse(c) => {
            if c.coords() != coo.coords() {
                return (false, f64::INFINITY);
            }
            c.vals()
        }
    };
    if vals.len() != want.len() {
        return (false, f64::INFINITY);
    }
    let scale = want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let worst = vals
        .iter()
        .zip(want)
        .map(|(g, w)| (g - w).abs())
        // A NaN must fail the check, and `f64::max` would drop it.
        .fold(
            0.0f64,
            |m, d| if d.is_nan() { f64::INFINITY } else { m.max(d) },
        );
    let rel = if scale > 0.0 { worst / scale } else { worst };
    (rel <= TOLERANCE, rel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{prepare, smoke};

    fn dense(dims: &[usize], data: &[f64]) -> DenseTensor {
        DenseTensor::from_data(dims, data.to_vec()).unwrap()
    }

    /// Hand-computed: T has two nonzeros, T[0,1,0] = 2 and T[1,0,1] = 3.
    #[test]
    fn kernels_match_hand_computed_values() {
        let coo = CooTensor::from_entries(&[2, 2, 2], [(vec![0, 1, 0], 2.0), (vec![1, 0, 1], 3.0)])
            .unwrap();
        let b = dense(&[2, 2], &[1.0, 2.0, 3.0, 4.0]);
        let c = dense(&[2, 2], &[5.0, 6.0, 7.0, 8.0]);
        // A[0,:] = 2·B[1,:]∘C[0,:] = 2·(15, 24); A[1,:] = 3·B[0,:]∘C[1,:] = 3·(7, 16)
        assert_eq!(mttkrp(&coo, &[2, 2, 2], &b, &c), [30.0, 48.0, 21.0, 48.0]);
        // S[0,r,s] = 2·B[1,r]·C[0,s]; S[1,r,s] = 3·B[0,r]·C[1,s]
        assert_eq!(
            ttmc(&coo, &[2, 2, 2], &b, &c),
            [30.0, 36.0, 40.0, 48.0, 21.0, 24.0, 42.0, 48.0]
        );
        let w = dense(&[2, 2], &[1.0, 1.0, 2.0, 0.5]);
        // S_0 = 2·Σ_r B[0,r]·C[1,r]·W[0,r] = 2·(7 + 16); S_1 = 3·Σ_r B[1,r]·C[0,r]·W[1,r] = 3·(30 + 12)
        assert_eq!(tttp(&coo, &b, &c, &w), [46.0, 126.0]);
        assert_eq!(matmul(&b, &c).as_slice(), [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn check_rejects_wrong_values_nan_and_foreign_patterns() {
        let root = std::env::temp_dir().join(format!("spttn-bench-ref-{}", std::process::id()));
        let w = &smoke()[3];
        let inputs = prepare(w, &root, 5).unwrap();
        let want = compute(w, &inputs);
        let good = ContractionOutput::Sparse(inputs.coo.with_vals(want.clone()));
        assert!(check(&good, &want, &inputs.coo).0);

        let mut off = want.clone();
        off[0] += 1e-6;
        let bad = ContractionOutput::Sparse(inputs.coo.with_vals(off));
        assert!(!check(&bad, &want, &inputs.coo).0);

        let mut nan = want.clone();
        nan[1] = f64::NAN;
        let bad = ContractionOutput::Sparse(inputs.coo.with_vals(nan));
        assert!(!check(&bad, &want, &inputs.coo).0);

        let other = w.generate(6).unwrap();
        let foreign = ContractionOutput::Sparse(other.with_vals(want.clone()));
        assert!(!check(&foreign, &want, &inputs.coo).0);

        let short = ContractionOutput::Dense(DenseTensor::zeros(&[3]));
        assert!(!check(&short, &want, &inputs.coo).0);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
