//! Naive dense einsum reference evaluator.
//!
//! Evaluates a [`Kernel`] by brute force over the full cartesian index
//! space — `O(Π dims)` time, no sparsity, no fusion. It is the oracle
//! the tape is validated against: for any kernel and any planned nest,
//! executing the nest must match this evaluator to floating-point
//! accumulation tolerance.

use spttn_core::{Result, SpttnError};
use spttn_ir::Kernel;
use spttn_tensor::DenseTensor;

/// Evaluate the kernel densely. `inputs` holds one dense tensor per
/// kernel input, in input order — densify the sparse operand with
/// [`spttn_tensor::CooTensor::to_dense`] first.
pub fn naive_einsum(kernel: &Kernel, inputs: &[&DenseTensor]) -> Result<DenseTensor> {
    if inputs.len() != kernel.inputs.len() {
        return Err(SpttnError::Execution(format!(
            "naive_einsum needs {} inputs, got {}",
            kernel.inputs.len(),
            inputs.len()
        )));
    }
    for (r, t) in kernel.inputs.iter().zip(inputs) {
        let want = kernel.ref_dims(r);
        if t.dims() != want.as_slice() {
            return Err(SpttnError::Shape(format!(
                "input '{}' has dims {:?}, expected {:?}",
                r.name,
                t.dims(),
                want
            )));
        }
    }
    let m = kernel.num_indices();
    let dims: Vec<usize> = (0..m).map(|i| kernel.dim(i)).collect();
    let mut out = DenseTensor::zeros(&kernel.ref_dims(&kernel.output));
    let mut coord = vec![0usize; m];
    let mut opc: Vec<usize> = Vec::new();
    loop {
        let mut prod = 1.0;
        for (r, t) in kernel.inputs.iter().zip(inputs) {
            opc.clear();
            opc.extend(r.indices.iter().map(|&i| coord[i]));
            prod *= t.get(&opc);
        }
        opc.clear();
        opc.extend(kernel.output.indices.iter().map(|&i| coord[i]));
        out.add(&opc, prod);
        // Advance the odometer over all kernel indices.
        let mut k = m;
        loop {
            if k == 0 {
                return Ok(out);
            }
            k -= 1;
            coord[k] += 1;
            if coord[k] < dims[k] {
                break;
            }
            coord[k] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spttn_ir::parse_kernel;

    #[test]
    fn matrix_multiply_matches_manual() {
        let k = parse_kernel("C(i,j) = A(i,l) * B(l,j)", &[("i", 2), ("j", 2), ("l", 2)]).unwrap();
        let a = DenseTensor::from_data(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = DenseTensor::from_data(&[2, 2], vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let c = naive_einsum(&k, &[&a, &b]).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let k = parse_kernel("C(i) = A(i,l) * B(l)", &[("i", 2), ("l", 3)]).unwrap();
        let a = DenseTensor::zeros(&[2, 3]);
        let b_bad = DenseTensor::zeros(&[2]);
        assert!(matches!(
            naive_einsum(&k, &[&a, &b_bad]),
            Err(SpttnError::Shape(_))
        ));
        assert!(matches!(
            naive_einsum(&k, &[&a]),
            Err(SpttnError::Execution(_))
        ));
    }
}
