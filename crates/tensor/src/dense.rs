//! Row-major strided dense tensors.
//!
//! The dense operands of an SpTTN kernel (factor matrices, small core
//! tensors, intermediate buffers) are all instances of [`DenseTensor`].
//! The layout is row-major: the last mode is contiguous, matching the
//! paper's convention that the innermost dense loops stream over
//! contiguous factor rows so they can be offloaded to BLAS-style
//! microkernels. Every tensor's values start on a 64-byte boundary,
//! whichever address the allocator returns, so a row of eight values
//! is one cache line and a vector load or store of a row never
//! straddles two: the speed of a bind's buffers and outputs does not
//! depend on where the heap happened to put them.

use crate::TensorError;

/// A dense tensor of `f64` values in row-major layout.
pub struct DenseTensor {
    dims: Vec<usize>,
    strides: Vec<usize>,
    /// The values are `buf[start..start + len]`, the first on a 64-byte
    /// boundary; `buf` holds [`ALIGN_PAD`] more values to make room.
    buf: Vec<f64>,
    start: usize,
    len: usize,
}

/// Values a buffer needs beyond its tensor's to start them on a
/// 64-byte boundary, the allocation itself being 8-byte aligned.
const ALIGN_PAD: usize = 64 / std::mem::size_of::<f64>() - 1;

/// Row-major strides for a dimension list (last mode contiguous): the
/// one layout of every dense tensor, buffer and factor, which bind-time
/// compilers address without materializing a tensor.
pub fn row_major_strides(dims: &[usize]) -> Vec<usize> {
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
        Self::aligned_zeros(dims, len)
    }

    /// A zero tensor of extents `dims` and `len` values, its values
    /// starting on a 64-byte boundary.
    fn aligned_zeros(dims: &[usize], len: usize) -> Self {
        let buf = vec![0.0; len + ALIGN_PAD];
        // Bytes to the next 64-byte boundary, in whole values.
        let start = (buf.as_ptr() as usize).wrapping_neg() % 64 / std::mem::size_of::<f64>();
        DenseTensor {
            dims: dims.to_vec(),
            strides: row_major_strides(dims),
            buf,
            start,
            len,
        }
    }

    /// Create a tensor from an explicit row-major data vector (copied
    /// into aligned storage).
    pub fn from_data(dims: &[usize], data: Vec<f64>) -> Result<Self, TensorError> {
        let len = Self::checked_len(dims)?;
        if data.len() != len {
            return Err(TensorError::OrderMismatch {
                expected: len,
                actual: data.len(),
            });
        }
        let mut t = Self::aligned_zeros(dims, len);
        t.as_mut_slice().copy_from_slice(&data);
        Ok(t)
    }

    /// Create a tensor by evaluating `f` at every coordinate.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(&[usize]) -> f64) -> Self {
        let mut t = DenseTensor::zeros(dims);
        let mut coord = vec![0usize; dims.len()];
        for v in t.as_mut_slice() {
            *v = f(&coord);
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
        self.len
    }

    /// True when the tensor stores no elements (never: scalars store one).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
        self.as_slice()[self.offset(coord)]
    }

    /// Write the value at a coordinate.
    #[inline]
    pub fn set(&mut self, coord: &[usize], v: f64) {
        let off = self.offset(coord);
        self.as_mut_slice()[off] = v;
    }

    /// Accumulate into the value at a coordinate.
    #[inline]
    pub fn add(&mut self, coord: &[usize], v: f64) {
        let off = self.offset(coord);
        self.as_mut_slice()[off] += v;
    }

    /// Immutable view of the values, the first on a 64-byte boundary.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.buf[self.start..self.start + self.len]
    }

    /// Mutable view of the values, the first on a 64-byte boundary.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.buf[self.start..self.start + self.len]
    }

    /// Reset all elements to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.as_mut_slice().fill(0.0);
    }

    /// Fill every element with `v`.
    pub fn fill(&mut self, v: f64) {
        self.as_mut_slice().fill(v);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.as_slice().iter().sum()
    }

    /// Squared Frobenius norm.
    pub fn norm_sq(&self) -> f64 {
        self.as_slice().iter().map(|x| x * x).sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Maximum absolute elementwise difference with another tensor of the
    /// same shape. Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &DenseTensor) -> f64 {
        assert_eq!(self.dims, other.dims, "shape mismatch in max_abs_diff");
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// True when all elements differ from `other` by at most `tol`,
    /// relative to the magnitude of the larger operand.
    pub fn approx_eq(&self, other: &DenseTensor, tol: f64) -> bool {
        if self.dims != other.dims {
            return false;
        }
        self.as_slice().iter().zip(other.as_slice()).all(|(a, b)| {
            let scale = a.abs().max(b.abs()).max(1.0);
            (a - b).abs() <= tol * scale
        })
    }
}

// By hand, not derived: a copy or a comparison is of the values, not of
// the padding before them, and a copy starts its own on a boundary.
impl Clone for DenseTensor {
    fn clone(&self) -> Self {
        let mut t = Self::aligned_zeros(&self.dims, self.len);
        t.as_mut_slice().copy_from_slice(self.as_slice());
        t
    }
}

impl PartialEq for DenseTensor {
    fn eq(&self, other: &Self) -> bool {
        self.dims == other.dims && self.as_slice() == other.as_slice()
    }
}

impl std::fmt::Debug for DenseTensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DenseTensor")
            .field("dims", &self.dims)
            .field("data", &self.as_slice())
            .finish()
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
    fn values_start_on_a_cache_line() {
        for n in 0..40 {
            let t = DenseTensor::from_fn(&[n + 1], |c| c[0] as f64);
            assert_eq!(t.as_slice().as_ptr() as usize % 64, 0);
            let c = t.clone();
            assert_eq!(c.as_slice().as_ptr() as usize % 64, 0);
            assert_eq!(c, t);
        }
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
