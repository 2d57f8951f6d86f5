//! Row-major strided dense tensors.
//!
//! The dense operands of an SpTTN kernel (factor matrices, small core
//! tensors, intermediate buffers) are all instances of [`DenseTensor`].
//! The layout is row-major: the last mode is contiguous, matching the
//! paper's convention that the innermost dense loops stream over
//! contiguous factor rows so they can be offloaded to BLAS-style
//! microkernels.

use crate::TensorError;

/// A dense tensor of `f64` values in row-major layout.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseTensor {
    dims: Vec<usize>,
    strides: Vec<usize>,
    data: Vec<f64>,
}

fn row_major_strides(dims: &[usize]) -> Vec<usize> {
    let mut strides = vec![1usize; dims.len()];
    for k in (0..dims.len().saturating_sub(1)).rev() {
        strides[k] = strides[k + 1] * dims[k + 1];
    }
    strides
}

impl DenseTensor {
    /// Element count of a tensor with extents `dims`, or
    /// [`TensorError::TooLarge`] when its bytes would pass `isize::MAX`,
    /// the most one allocation can address. Callers that size an
    /// allocation from extents they did not allocate check them here.
    pub fn checked_len(dims: &[usize]) -> Result<usize, TensorError> {
        // From the last mode, so every row-major stride is checked too.
        (dims.iter().rev().try_fold(1usize, |n, &d| n.checked_mul(d)))
            .filter(|&n| n <= isize::MAX as usize / std::mem::size_of::<f64>())
            .ok_or_else(|| TensorError::TooLarge {
                dims: dims.to_vec(),
            })
    }

    /// Create a zero-filled tensor with the given dimensions.
    ///
    /// A zero-order tensor (`dims == []`) is a scalar holding one value;
    /// a tensor with an extent-0 mode holds none.
    ///
    /// # Panics
    ///
    /// When [`DenseTensor::checked_len`] refuses `dims`.
    pub fn zeros(dims: &[usize]) -> Self {
        let len = Self::checked_len(dims).unwrap_or_else(|e| panic!("{e}"));
        DenseTensor {
            dims: dims.to_vec(),
            strides: row_major_strides(dims),
            data: vec![0.0; len],
        }
    }

    /// Create a tensor from an explicit row-major data vector.
    pub fn from_data(dims: &[usize], data: Vec<f64>) -> Result<Self, TensorError> {
        let len = Self::checked_len(dims)?;
        if data.len() != len {
            return Err(TensorError::OrderMismatch {
                expected: len,
                actual: data.len(),
            });
        }
        Ok(DenseTensor {
            dims: dims.to_vec(),
            strides: row_major_strides(dims),
            data,
        })
    }

    /// Create a tensor by evaluating `f` at every coordinate.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(&[usize]) -> f64) -> Self {
        let mut t = DenseTensor::zeros(dims);
        let mut coord = vec![0usize; dims.len()];
        for pos in 0..t.data.len() {
            t.data[pos] = f(&coord);
            // Advance the row-major odometer.
            for k in (0..dims.len()).rev() {
                coord[k] += 1;
                if coord[k] < dims[k] {
                    break;
                }
                coord[k] = 0;
            }
        }
        t
    }

    /// Dimensions of the tensor.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Row-major strides of the tensor.
    #[inline]
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// Number of modes.
    #[inline]
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// Total number of stored elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor stores no elements (never: scalars store one).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major offset of a coordinate.
    #[inline]
    pub fn offset(&self, coord: &[usize]) -> usize {
        debug_assert_eq!(coord.len(), self.dims.len());
        let mut off = 0usize;
        for (k, (&c, &s)) in coord.iter().zip(&self.strides).enumerate() {
            debug_assert!(c < self.dims[k]);
            off += c * s;
        }
        off
    }

    /// Read the value at a coordinate.
    #[inline]
    pub fn get(&self, coord: &[usize]) -> f64 {
        self.data[self.offset(coord)]
    }

    /// Write the value at a coordinate.
    #[inline]
    pub fn set(&mut self, coord: &[usize], v: f64) {
        let off = self.offset(coord);
        self.data[off] = v;
    }

    /// Accumulate into the value at a coordinate.
    #[inline]
    pub fn add(&mut self, coord: &[usize], v: f64) {
        let off = self.offset(coord);
        self.data[off] += v;
    }

    /// Immutable view of the backing storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the backing storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Reset all elements to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Fill every element with `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Maximum absolute elementwise difference with another tensor of the
    /// same shape. Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &DenseTensor) -> f64 {
        assert_eq!(self.dims, other.dims, "shape mismatch in max_abs_diff");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// True when all elements differ from `other` by at most `tol`,
    /// relative to the magnitude of the larger operand.
    pub fn approx_eq(&self, other: &DenseTensor, tol: f64) -> bool {
        if self.dims != other.dims {
            return false;
        }
        self.data.iter().zip(other.data.iter()).all(|(a, b)| {
            let scale = a.abs().max(b.abs()).max(1.0);
            (a - b).abs() <= tol * scale
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_len() {
        let t = DenseTensor::zeros(&[2, 3, 4]);
        assert_eq!(t.order(), 3);
        assert_eq!(t.len(), 24);
        assert_eq!(t.strides(), &[12, 4, 1]);
        assert_eq!(t.sum(), 0.0);
    }

    #[test]
    fn checked_len_refuses_unaddressable_extents() {
        assert_eq!(DenseTensor::checked_len(&[2, 3, 4]), Ok(24));
        assert_eq!(DenseTensor::checked_len(&[]), Ok(1));
        let max = isize::MAX as usize / 8;
        assert_eq!(DenseTensor::checked_len(&[max]), Ok(max));
        for dims in [vec![max + 1], vec![1 << 60, 16], vec![0, 1 << 40, 1 << 40]] {
            let e = DenseTensor::checked_len(&dims).unwrap_err();
            assert_eq!(e, TensorError::TooLarge { dims });
        }
    }

    #[test]
    fn scalar_tensor() {
        let mut t = DenseTensor::zeros(&[]);
        assert_eq!(t.len(), 1);
        t.add(&[], 2.5);
        assert_eq!(t.get(&[]), 2.5);
    }

    #[test]
    fn from_fn_and_get_set() {
        let t = DenseTensor::from_fn(&[2, 3], |c| (c[0] * 10 + c[1]) as f64);
        assert_eq!(t.get(&[0, 0]), 0.0);
        assert_eq!(t.get(&[1, 2]), 12.0);
        assert_eq!(t.get(&[0, 2]), 2.0);
    }

    #[test]
    fn offset_row_major() {
        let t = DenseTensor::zeros(&[3, 4]);
        assert_eq!(t.offset(&[0, 0]), 0);
        assert_eq!(t.offset(&[0, 3]), 3);
        assert_eq!(t.offset(&[1, 0]), 4);
        assert_eq!(t.offset(&[2, 3]), 11);
    }

    #[test]
    fn from_data_checks_len() {
        assert!(DenseTensor::from_data(&[2, 2], vec![1.0; 4]).is_ok());
        assert!(DenseTensor::from_data(&[2, 2], vec![1.0; 3]).is_err());
    }

    #[test]
    fn approx_eq_tolerates_roundoff() {
        let a = DenseTensor::from_fn(&[4], |c| c[0] as f64);
        let mut b = a.clone();
        b.add(&[2], 1e-12);
        assert!(a.approx_eq(&b, 1e-9));
        b.add(&[2], 1.0);
        assert!(!a.approx_eq(&b, 1e-9));
    }

    #[test]
    fn max_abs_diff_finds_peak() {
        let a = DenseTensor::zeros(&[3]);
        let mut b = DenseTensor::zeros(&[3]);
        b.set(&[1], -4.0);
        assert_eq!(a.max_abs_diff(&b), 4.0);
    }

    #[test]
    fn fill_and_norm() {
        let mut t = DenseTensor::zeros(&[2, 2]);
        t.fill(2.0);
        assert_eq!(t.norm_sq(), 16.0);
        t.fill_zero();
        assert_eq!(t.norm(), 0.0);
    }
}
