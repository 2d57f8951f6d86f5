//! Synthetic workload generators.
//!
//! The paper evaluates on FROSTT tensors plus randomly generated sparse
//! tensors of various dimensions and sparsities. SpTTN costs are
//! data-independent given the pattern, so [`random_coo`] (uniform
//! coordinates at an exact nonzero count) stands in for a dataset of
//! the same shape and density; [`skewed_coo`] additionally provides
//! power-law fiber-density skew for sensitivity studies.

use crate::{CooTensor, DenseTensor, TensorError};
use rand::distributions::{Distribution, Uniform};
use rand::Rng;
use std::collections::HashSet;

/// Generate a dense tensor with i.i.d. uniform values in `[-1, 1)`.
pub fn random_dense<R: Rng + ?Sized>(dims: &[usize], rng: &mut R) -> DenseTensor {
    let dist = Uniform::new(-1.0f64, 1.0);
    let mut t = DenseTensor::zeros(dims);
    for v in t.as_mut_slice() {
        *v = dist.sample(rng);
    }
    t
}

/// Generate a flat vector of i.i.d. uniform values in `[-1, 1)` (raw
/// buffer fixture for microkernel tests and benches).
pub fn random_vec<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<f64> {
    let dist = Uniform::new(-1.0f64, 1.0);
    (0..n).map(|_| dist.sample(rng)).collect()
}

fn pack(coord: &[usize], dims: &[usize]) -> u128 {
    let mut key = 0u128;
    for (c, d) in coord.iter().zip(dims) {
        key = key * (*d as u128) + *c as u128;
    }
    key
}

/// Generate a sparse COO tensor with exactly `nnz` distinct uniformly
/// random coordinates and uniform values in `[-1, 1)`.
///
/// Errors if `nnz` exceeds the number of cells or the coordinate space
/// does not fit in 128 bits.
pub fn random_coo<R: Rng + ?Sized>(
    dims: &[usize],
    nnz: usize,
    rng: &mut R,
) -> Result<CooTensor, TensorError> {
    let mut cells = 1u128;
    for &d in dims {
        if d == 0 {
            return Err(TensorError::ZeroDim);
        }
        cells = cells.saturating_mul(d as u128);
    }
    if (nnz as u128) > cells {
        return Err(TensorError::CoordOutOfBounds {
            mode: 0,
            coord: nnz,
            dim: cells.min(usize::MAX as u128) as usize,
        });
    }
    let vdist = Uniform::new(-1.0f64, 1.0);
    let mut seen: HashSet<u128> = HashSet::with_capacity(nnz * 2);
    let mut coo = CooTensor::new(dims)?;
    let mut coord = vec![0usize; dims.len()];
    while seen.len() < nnz {
        for (k, &d) in dims.iter().enumerate() {
            coord[k] = rng.gen_range(0..d);
        }
        if seen.insert(pack(&coord, dims)) {
            coo.push(&coord, vdist.sample(rng))?;
        }
    }
    coo.sort_dedup(&identity_order(dims.len()))?;
    Ok(coo)
}

/// Generate a sparse COO tensor whose coordinates follow a power-law
/// distribution per mode: coordinate `c = floor(dim * u^alpha)` for
/// uniform `u`, so larger `alpha` concentrates nonzeros in low indices
/// (dense fibers near the origin, long sparse tail — typical of
/// real-world FROSTT tensors).
///
/// At most `nnz` entries are returned; heavy skew may produce fewer
/// distinct coordinates, in which case generation stops after a bounded
/// number of attempts.
pub fn skewed_coo<R: Rng + ?Sized>(
    dims: &[usize],
    nnz: usize,
    alpha: f64,
    rng: &mut R,
) -> Result<CooTensor, TensorError> {
    if dims.contains(&0) {
        return Err(TensorError::ZeroDim);
    }
    let vdist = Uniform::new(-1.0f64, 1.0);
    let mut seen: HashSet<u128> = HashSet::with_capacity(nnz * 2);
    let mut coo = CooTensor::new(dims)?;
    let mut coord = vec![0usize; dims.len()];
    let max_attempts = nnz.saturating_mul(64).max(1024);
    let mut attempts = 0usize;
    while seen.len() < nnz && attempts < max_attempts {
        attempts += 1;
        for (k, &d) in dims.iter().enumerate() {
            let u: f64 = rng.gen_range(0.0..1.0);
            coord[k] = ((d as f64) * u.powf(alpha)).floor().min((d - 1) as f64) as usize;
        }
        if seen.insert(pack(&coord, dims)) {
            coo.push(&coord, vdist.sample(rng))?;
        }
    }
    coo.sort_dedup(&identity_order(dims.len()))?;
    Ok(coo)
}

fn identity_order(d: usize) -> Vec<usize> {
    (0..d).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    #[test]
    fn random_dense_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = random_dense(&[4, 5], &mut rng);
        assert!(t.as_slice().iter().all(|v| (-1.0..1.0).contains(v)));
        assert!(t.norm() > 0.0);
    }

    #[test]
    fn random_coo_exact_nnz_distinct() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = random_coo(&[10, 10, 10], 200, &mut rng).unwrap();
        assert_eq!(t.nnz(), 200);
        // Distinctness: dedup is a no-op.
        let mut t2 = t.clone();
        t2.sort_dedup(&[0, 1, 2]).unwrap();
        assert_eq!(t2.nnz(), 200);
    }

    #[test]
    fn random_coo_full_density() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = random_coo(&[3, 3], 9, &mut rng).unwrap();
        assert_eq!(t.nnz(), 9);
        assert!(random_coo(&[3, 3], 10, &mut rng).is_err());
    }

    #[test]
    fn skewed_concentrates_low_indices() {
        let mut rng = StdRng::seed_from_u64(4);
        let t = skewed_coo(&[1000, 1000], 2000, 3.0, &mut rng).unwrap();
        assert!(t.nnz() > 0);
        let low = t.iter().filter(|(c, _)| c[0] < 200).count();
        // u^3 < 0.2 for u < 0.585: well over half the mass below index 200.
        assert!(
            low * 2 > t.nnz(),
            "expected most coordinates below 200, got {low}/{}",
            t.nnz()
        );
    }

    #[test]
    fn generators_are_seed_deterministic() {
        let a = random_coo(&[20, 20, 20], 50, &mut StdRng::seed_from_u64(9)).unwrap();
        let b = random_coo(&[20, 20, 20], 50, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(a, b);
    }
}
