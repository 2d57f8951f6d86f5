//! SpTTN kernel specification.
//!
//! An SpTTN kernel (paper Sec. 3) contracts one sparse tensor with a set
//! of dense tensors; the output is dense, or shares the sparse input's
//! sparsity pattern exactly (e.g. TTTP). The [`Kernel`] captures the
//! index structure: every distinct index has a dimension, and the sparse
//! input's indices additionally carry their CSF tree level — the storage
//! order that loop orders must respect.

use crate::index::{IdxSet, IndexId, IndexInfo, MAX_INDICES};

/// A tensor operand or output reference: a name plus its ordered indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorRef {
    /// Tensor name (as written in the einsum expression).
    pub name: String,
    /// Indices in written order (e.g. `T(i,j,k)` → `[i, j, k]`).
    pub indices: Vec<IndexId>,
}

impl TensorRef {
    /// Index set of this reference.
    pub fn index_set(&self) -> IdxSet {
        IdxSet::from_iter(self.indices.iter().copied())
    }
}

/// Validation errors for kernel construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// More indices than the bitset width supports.
    TooManyIndices(usize),
    /// An output index does not appear in any input.
    UnboundOutputIndex(String),
    /// The declared sparse input id is out of range.
    BadSparseInput(usize),
    /// An index appears twice in one tensor reference (unsupported).
    RepeatedIndex(String, String),
    /// The kernel has no inputs.
    NoInputs,
    /// The sparse input (named) has no indices: there is no CSF tree to
    /// iterate, and a scalar belongs in a dense factor.
    ScalarSparseInput(String),
    /// The sparse input (named) is the only input: with no dense
    /// factor there is no pairwise contraction to plan.
    NoDenseFactor(String),
    /// An index (named) has extent 0: a tensor with no coordinates in
    /// one mode holds no element.
    ZeroExtent(String),
    /// A sparse-pattern output must have exactly the sparse input's
    /// index set.
    BadSparseOutput,
    /// A sparse mode order that is not a permutation of `0..order`
    /// (the order given, and the sparse tensor's order).
    BadModeOrder(Vec<usize>, usize),
    /// Parse error with message.
    Parse(String),
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::TooManyIndices(n) => {
                write!(f, "kernel has {n} indices; at most {MAX_INDICES} supported")
            }
            KernelError::UnboundOutputIndex(s) => {
                write!(f, "output index '{s}' does not appear in any input")
            }
            KernelError::BadSparseInput(i) => write!(f, "sparse input id {i} out of range"),
            KernelError::RepeatedIndex(t, i) => {
                write!(f, "index '{i}' repeated within tensor '{t}'")
            }
            KernelError::NoInputs => write!(f, "kernel has no input tensors"),
            KernelError::ScalarSparseInput(t) => write!(
                f,
                "sparse input '{t}' has no indices; a scalar belongs in a dense factor"
            ),
            KernelError::NoDenseFactor(t) => write!(
                f,
                "contraction of '{t}' has no dense factor; a plain reduction is not \
                 an SpTTN kernel — multiply by a ones vector"
            ),
            KernelError::ZeroExtent(i) => write!(
                f,
                "index '{i}' has extent 0; every index needs at least one coordinate"
            ),
            KernelError::BadSparseOutput => write!(
                f,
                "a sparse-pattern output must use exactly the sparse input's indices"
            ),
            KernelError::BadModeOrder(perm, d) => {
                write!(f, "mode order {perm:?} is not a permutation of 0..{d}")
            }
            KernelError::Parse(m) => write!(f, "parse error: {m}"),
        }
    }
}

impl std::error::Error for KernelError {}

/// An SpTTN kernel: `output = Σ sparse_input · dense_1 · ... · dense_n`.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// All distinct indices; `IndexId` indexes this table.
    pub indices: Vec<IndexInfo>,
    /// Output tensor reference.
    pub output: TensorRef,
    /// Input tensors; `inputs[sparse_input]` is the sparse one.
    pub inputs: Vec<TensorRef>,
    /// Which input is the sparse tensor.
    pub sparse_input: usize,
    /// True when the output shares the sparse input's pattern (TTTP-like).
    pub output_sparse: bool,
}

impl Kernel {
    /// Construct and validate a kernel from raw parts.
    ///
    /// `indices[id].sparse_level` is filled in from the sparse input's
    /// written index order (CSF storage order) — any previous value is
    /// overwritten.
    pub fn new(
        mut indices: Vec<IndexInfo>,
        output: TensorRef,
        inputs: Vec<TensorRef>,
        sparse_input: usize,
        output_sparse: bool,
    ) -> Result<Self, KernelError> {
        if indices.len() > MAX_INDICES {
            return Err(KernelError::TooManyIndices(indices.len()));
        }
        if inputs.is_empty() {
            return Err(KernelError::NoInputs);
        }
        if let Some(i) = indices.iter().find(|i| i.dim == 0) {
            return Err(KernelError::ZeroExtent(i.name.clone()));
        }
        if sparse_input >= inputs.len() {
            return Err(KernelError::BadSparseInput(sparse_input));
        }
        if inputs[sparse_input].indices.is_empty() {
            return Err(KernelError::ScalarSparseInput(
                inputs[sparse_input].name.clone(),
            ));
        }
        // No repeated index within a single tensor reference.
        for t in inputs.iter().chain(std::iter::once(&output)) {
            let mut seen = IdxSet::EMPTY;
            for &i in &t.indices {
                if seen.contains(i) {
                    return Err(KernelError::RepeatedIndex(
                        t.name.clone(),
                        indices[i].name.clone(),
                    ));
                }
                seen = seen.insert(i);
            }
        }
        // Output indices must be bound by some input.
        let all_inputs: IdxSet = inputs
            .iter()
            .fold(IdxSet::EMPTY, |s, t| s.union(t.index_set()));
        for &i in &output.indices {
            if !all_inputs.contains(i) {
                return Err(KernelError::UnboundOutputIndex(indices[i].name.clone()));
            }
        }
        // Fill sparse levels from the sparse input's written order.
        for info in indices.iter_mut() {
            info.sparse_level = None;
        }
        for (level, &i) in inputs[sparse_input].indices.iter().enumerate() {
            indices[i].sparse_level = Some(level);
        }
        // Sparse-pattern outputs must match the sparse input exactly.
        if output_sparse && output.index_set() != inputs[sparse_input].index_set() {
            return Err(KernelError::BadSparseOutput);
        }
        // Last, so that a malformed reference is reported as what it is.
        if inputs.len() == 1 {
            return Err(KernelError::NoDenseFactor(
                inputs[sparse_input].name.clone(),
            ));
        }
        Ok(Kernel {
            indices,
            output,
            inputs,
            sparse_input,
            output_sparse,
        })
    }

    /// Number of distinct indices.
    #[inline]
    pub fn num_indices(&self) -> usize {
        self.indices.len()
    }

    /// Dimension of an index.
    #[inline]
    pub fn dim(&self, i: IndexId) -> usize {
        self.indices[i].dim
    }

    /// Name of an index.
    #[inline]
    pub fn index_name(&self, i: IndexId) -> &str {
        &self.indices[i].name
    }

    /// CSF level of an index, if it is a sparse mode.
    #[inline]
    pub fn sparse_level(&self, i: IndexId) -> Option<usize> {
        self.indices[i].sparse_level
    }

    /// Set of all indices.
    pub fn all_indices(&self) -> IdxSet {
        IdxSet::from_iter(0..self.indices.len())
    }

    /// Set of sparse-mode indices (the sparse input's indices).
    pub fn sparse_indices(&self) -> IdxSet {
        self.inputs[self.sparse_input].index_set()
    }

    /// Index set of the output.
    pub fn output_indices(&self) -> IdxSet {
        self.output.index_set()
    }

    /// Contracted (summed) indices: appear in inputs but not the output.
    pub fn contracted_indices(&self) -> IdxSet {
        self.all_indices().minus(self.output_indices())
    }

    /// The sparse input reference.
    pub fn sparse_ref(&self) -> &TensorRef {
        &self.inputs[self.sparse_input]
    }

    /// CSF mode order: `id` of the sparse index at each level.
    pub fn csf_index_order(&self) -> &[IndexId] {
        &self.inputs[self.sparse_input].indices
    }

    /// The sparse index at CSF level `l`.
    #[inline]
    pub fn index_at_level(&self, l: usize) -> IndexId {
        self.inputs[self.sparse_input].indices[l]
    }

    /// Dimensions of a tensor reference, in its written index order.
    pub fn ref_dims(&self, r: &TensorRef) -> Vec<usize> {
        r.indices.iter().map(|&i| self.dim(i)).collect()
    }

    /// Row-major strides of a tensor reference's dense layout (the
    /// layout bound `DenseTensor`s are validated against). Bind-time
    /// compilers use this to lower operand addressing to precomputed
    /// base-offset + stride pairs without consulting tensor data.
    pub fn ref_strides(&self, r: &TensorRef) -> Vec<usize> {
        crate::buffer::row_major_strides(&self.ref_dims(r))
    }

    /// The same kernel with the sparse input's modes stored in a
    /// different CSF order: level `l` of the result holds the index at
    /// level `perm[l]` of `self`. Every index's `sparse_level` is
    /// refilled from the permuted order; all other structure (output,
    /// dense inputs, dimensions) is untouched.
    ///
    /// This is the symbolic half of a CSF transpose — the planner's
    /// mode-order search plans each candidate order against the
    /// permuted kernel, and `spttn_tensor::Csf::reordered` is the data
    /// half applied at bind time. `perm` must be a permutation of
    /// `0..sparse order`.
    pub fn permute_sparse_modes(&self, perm: &[usize]) -> Result<Kernel, KernelError> {
        let d = self.csf_index_order().len();
        let valid = perm.len() == d && {
            let mut seen = vec![false; d];
            perm.iter()
                .all(|&l| l < d && !std::mem::replace(&mut seen[l], true))
        };
        if !valid {
            return Err(KernelError::BadModeOrder(perm.to_vec(), d));
        }
        let mut inputs = self.inputs.clone();
        let old = &self.inputs[self.sparse_input].indices;
        inputs[self.sparse_input].indices = perm.iter().map(|&l| old[l]).collect();
        Kernel::new(
            self.indices.clone(),
            self.output.clone(),
            inputs,
            self.sparse_input,
            self.output_sparse,
        )
    }

    /// Human-readable einsum form of the kernel.
    pub fn to_einsum(&self) -> String {
        let fmt_ref = |r: &TensorRef| {
            let idx: Vec<&str> = r.indices.iter().map(|&i| self.index_name(i)).collect();
            format!("{}({})", r.name, idx.join(","))
        };
        let rhs: Vec<String> = self.inputs.iter().map(fmt_ref).collect();
        format!("{} = {}", fmt_ref(&self.output), rhs.join(" * "))
    }
}

/// Builder for constructing kernels programmatically.
#[derive(Debug, Default)]
pub struct KernelBuilder {
    names: Vec<(String, usize)>,
    output: Option<(String, Vec<String>)>,
    inputs: Vec<(String, Vec<String>)>,
    sparse_input: usize,
    output_sparse: bool,
}

impl KernelBuilder {
    /// Start an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare an index with its dimension.
    pub fn index(mut self, name: &str, dim: usize) -> Self {
        self.names.push((name.to_string(), dim));
        self
    }

    /// Set the output tensor (dense unless [`Self::sparse_output`]).
    pub fn output(mut self, name: &str, indices: &[&str]) -> Self {
        self.output = Some((
            name.to_string(),
            indices.iter().map(|s| s.to_string()).collect(),
        ));
        self
    }

    /// Add an input tensor; the first added input is the sparse tensor
    /// unless [`Self::sparse`] selects another.
    pub fn input(mut self, name: &str, indices: &[&str]) -> Self {
        self.inputs.push((
            name.to_string(),
            indices.iter().map(|s| s.to_string()).collect(),
        ));
        self
    }

    /// Select which input (by insertion order) is the sparse tensor.
    pub fn sparse(mut self, input: usize) -> Self {
        self.sparse_input = input;
        self
    }

    /// Mark the output as sharing the sparse input's pattern.
    pub fn sparse_output(mut self) -> Self {
        self.output_sparse = true;
        self
    }

    /// Finish and validate.
    pub fn build(self) -> Result<Kernel, KernelError> {
        let mut indices: Vec<IndexInfo> = Vec::new();
        let mut lookup = std::collections::HashMap::new();
        for (name, dim) in &self.names {
            if !lookup.contains_key(name) {
                lookup.insert(name.clone(), indices.len());
                indices.push(IndexInfo {
                    name: name.clone(),
                    dim: *dim,
                    sparse_level: None,
                });
            }
        }
        let resolve = |names: &[String]| -> Result<Vec<IndexId>, KernelError> {
            names
                .iter()
                .map(|n| {
                    lookup
                        .get(n)
                        .copied()
                        .ok_or_else(|| KernelError::Parse(format!("undeclared index '{n}'")))
                })
                .collect()
        };
        let (oname, oinds) = self
            .output
            .ok_or_else(|| KernelError::Parse("no output set".into()))?;
        let output = TensorRef {
            name: oname,
            indices: resolve(&oinds)?,
        };
        let mut inputs = Vec::new();
        for (name, inds) in &self.inputs {
            inputs.push(TensorRef {
                name: name.clone(),
                indices: resolve(inds)?,
            });
        }
        Kernel::new(
            indices,
            output,
            inputs,
            self.sparse_input,
            self.output_sparse,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ttmc3() -> Kernel {
        // S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)
        KernelBuilder::new()
            .index("i", 30)
            .index("j", 20)
            .index("k", 25)
            .index("r", 8)
            .index("s", 9)
            .output("S", &["i", "r", "s"])
            .input("T", &["i", "j", "k"])
            .input("U", &["j", "r"])
            .input("V", &["k", "s"])
            .build()
            .unwrap()
    }

    #[test]
    fn builder_builds_ttmc() {
        let k = ttmc3();
        assert_eq!(k.num_indices(), 5);
        assert_eq!(k.sparse_indices().len(), 3);
        assert_eq!(k.contracted_indices().to_vec(), vec![1, 2]); // j, k
        assert_eq!(k.to_einsum(), "S(i,r,s) = T(i,j,k) * U(j,r) * V(k,s)");
    }

    #[test]
    fn sparse_levels_follow_written_order() {
        let k = ttmc3();
        assert_eq!(k.sparse_level(0), Some(0)); // i
        assert_eq!(k.sparse_level(1), Some(1)); // j
        assert_eq!(k.sparse_level(2), Some(2)); // k
        assert_eq!(k.sparse_level(3), None); // r
        assert_eq!(k.csf_index_order(), &[0, 1, 2]);
        assert_eq!(k.index_at_level(2), 2);
    }

    #[test]
    fn permute_sparse_modes_reorders_levels() {
        let k = ttmc3();
        let p = k.permute_sparse_modes(&[2, 0, 1]).unwrap();
        // Written order of T becomes (k, i, j).
        assert_eq!(p.to_einsum(), "S(i,r,s) = T(k,i,j) * U(j,r) * V(k,s)");
        assert_eq!(p.csf_index_order(), &[2, 0, 1]);
        assert_eq!(p.sparse_level(2), Some(0)); // k now at root
        assert_eq!(p.sparse_level(0), Some(1)); // i at level 1
        assert_eq!(p.sparse_level(1), Some(2)); // j at level 2
                                                // Dense structure untouched.
        assert_eq!(p.output, k.output);
        assert_eq!(p.inputs[1], k.inputs[1]);
        // Identity permutation round-trips.
        assert_eq!(k.permute_sparse_modes(&[0, 1, 2]).unwrap(), k);
        // Non-permutations rejected.
        assert!(k.permute_sparse_modes(&[0, 1]).is_err());
        assert!(k.permute_sparse_modes(&[0, 0, 1]).is_err());
        assert!(k.permute_sparse_modes(&[0, 1, 3]).is_err());
    }

    #[test]
    fn unbound_output_index_rejected() {
        let e = KernelBuilder::new()
            .index("i", 4)
            .index("z", 4)
            .output("A", &["z"])
            .input("T", &["i"])
            .build();
        assert!(matches!(e, Err(KernelError::UnboundOutputIndex(_))));
    }

    #[test]
    fn repeated_index_rejected() {
        let e = KernelBuilder::new()
            .index("i", 4)
            .output("A", &["i"])
            .input("T", &["i", "i"])
            .build();
        assert!(matches!(e, Err(KernelError::RepeatedIndex(..))));
    }

    #[test]
    fn sparse_output_must_match_pattern() {
        // TTTP-style: S(i,j,k) = T(i,j,k)*U(i,r)*V(j,r)*W(k,r)
        let ok = KernelBuilder::new()
            .index("i", 5)
            .index("j", 6)
            .index("k", 7)
            .index("r", 3)
            .output("S", &["i", "j", "k"])
            .input("T", &["i", "j", "k"])
            .input("U", &["i", "r"])
            .input("V", &["j", "r"])
            .input("W", &["k", "r"])
            .sparse_output()
            .build();
        assert!(ok.is_ok());
        let bad = KernelBuilder::new()
            .index("i", 5)
            .index("j", 6)
            .index("k", 7)
            .output("S", &["i", "j"])
            .input("T", &["i", "j", "k"])
            .sparse_output()
            .build();
        assert!(matches!(bad, Err(KernelError::BadSparseOutput)));
    }

    #[test]
    fn ref_dims_in_written_order() {
        let k = ttmc3();
        assert_eq!(k.ref_dims(&k.inputs[0]), vec![30, 20, 25]);
        assert_eq!(k.ref_dims(&k.output), vec![30, 8, 9]);
    }

    #[test]
    fn ref_strides_are_row_major() {
        let k = ttmc3();
        assert_eq!(k.ref_strides(&k.inputs[0]), vec![20 * 25, 25, 1]);
        assert_eq!(k.ref_strides(&k.output), vec![8 * 9, 9, 1]);
        // A matrix factor and a scalar-free edge: single index → [1].
        assert_eq!(k.ref_strides(&k.inputs[1]), vec![8, 1]);
    }

    #[test]
    fn no_inputs_rejected() {
        let e = KernelBuilder::new().index("i", 2).output("A", &[]).build();
        assert!(matches!(e, Err(KernelError::NoInputs)));
    }
}
