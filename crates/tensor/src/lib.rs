//! # spttn-tensor
//!
//! Tensor substrate for the SpTTN loop-nest framework: dense strided
//! tensors, sparse tensors in coordinate (COO) and Compressed Sparse Fiber
//! (CSF) formats, data-independent sparsity profiles, and synthetic
//! workload generators mirroring the datasets of the SPAA 2024 paper
//! *"Minimum Cost Loop Nests for Contraction of a Sparse Tensor with a
//! Tensor Network"*.
//!
//! The CSF format ([`Csf`]) is the storage the paper's runtime iterates
//! over: a tree with one level per tensor mode, where the number of nodes
//! at level `k` equals `nnz_{I1..Ik}(T)` — the nonzero count of the
//! reduced tensor obtained by summing away trailing modes (paper
//! Sec. 2.2). Those per-level counts drive the planner's asymptotic cost
//! model, so they are exposed both from concrete data ([`Csf::level_nnz`])
//! and from the data-independent [`SparsityProfile`], which
//! [`SubsetCounts`] supplies for every order from one count per mode
//! subset.
//!
//! For multicore execution the root level of a CSF tree can be split
//! into contiguous tiles of complete root subtrees: [`CsfTile`] is the
//! per-level range view of one such slice and [`Csf::partition`]
//! produces a leaf-nnz-balanced tiling. Each tile is an independent
//! unit of work (the contraction is linear in the sparse tensor), which
//! is what the parallel executor in `spttn-exec` fans out across
//! threads.
//!
//! Real datasets enter through the [`io`] module: streaming readers for
//! FROSTT `.tns` ([`read_tns`]) and MatrixMarket coordinate
//! ([`read_mtx`]) files, both finishing with the canonical
//! sort-and-dedup ingest step, plus [`load_coo`] which dispatches on
//! the file extension. A loaded tensor can be stored under any CSF mode
//! order — [`Csf::reordered`] rebuilds an existing tree under a new
//! order, which is how plans produced by the mode-order search attach
//! to data ingested in natural order.

// All tensor storage is safe Rust: no unsafe code, ever.
#![forbid(unsafe_code)]

pub mod coo;
pub mod csf;
pub mod dense;
pub mod gen;
pub mod io;
pub mod profile;

pub use coo::CooTensor;
pub use csf::{Csf, CsfLevel, CsfTile};
pub use dense::DenseTensor;
pub use gen::{random_coo, random_dense, random_vec, skewed_coo};
pub use io::{load_coo, read_mtx, read_tns, IoError};
pub use profile::{SparsityProfile, SubsetCounts, MAX_COUNTED_ORDER};

/// Errors produced by tensor construction and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// A coordinate lies outside the tensor dimensions.
    CoordOutOfBounds {
        /// Mode in which the violation occurred.
        mode: usize,
        /// Offending coordinate value.
        coord: usize,
        /// Dimension of that mode.
        dim: usize,
    },
    /// Number of coordinates in an entry does not match the tensor order.
    OrderMismatch {
        /// Expected order (number of modes).
        expected: usize,
        /// Actual number of coordinates supplied.
        actual: usize,
    },
    /// A supplied mode permutation is not a permutation of `0..order`.
    InvalidPermutation,
    /// Shape with a zero-sized mode (unsupported).
    ZeroDim,
    /// An order-0 (scalar) tensor where a sparse tree is built: CSF
    /// needs at least one mode to have levels.
    ZeroOrder,
    /// A pattern with more modes than [`SubsetCounts`] counts.
    TooManyModes {
        /// The pattern's order.
        order: usize,
        /// [`MAX_COUNTED_ORDER`].
        max: usize,
    },
    /// A dense array whose extents multiply past what one allocation
    /// can address (`isize::MAX` bytes).
    TooLarge {
        /// The array's extents.
        dims: Vec<usize>,
    },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::CoordOutOfBounds { mode, coord, dim } => write!(
                f,
                "coordinate {coord} out of bounds for mode {mode} of dimension {dim}"
            ),
            TensorError::OrderMismatch { expected, actual } => {
                write!(f, "expected {expected} coordinates per entry, got {actual}")
            }
            TensorError::InvalidPermutation => write!(f, "invalid mode permutation"),
            TensorError::ZeroDim => write!(f, "tensors with zero-sized modes are unsupported"),
            TensorError::ZeroOrder => {
                write!(f, "an order-0 tensor has no modes to build a CSF tree over")
            }
            TensorError::TooManyModes { order, max } => write!(
                f,
                "a pattern of order {order} has too many mode subsets to count (at most {max} modes)"
            ),
            TensorError::TooLarge { dims } => {
                write!(f, "a dense array of dims {dims:?} is larger than the address space")
            }
        }
    }
}

impl std::error::Error for TensorError {}
