//! The `Contraction` facade: parse → plan → bind → execute.
//!
//! One front door for the whole SpTTN pipeline, split into two stages so
//! iterative algorithms can plan once and execute many times:
//!
//! 1. **Symbolic planning** — [`Contraction::parse`] reads an
//!    einsum-style expression (structure only), and [`Contraction::plan`]
//!    runs the Sec. 5 planner against a data-independent [`Shapes`]
//!    description (index dimensions plus a coordinate pattern or a
//!    modeled nnz). The resulting [`Plan`] holds only the kernel,
//!    contraction path, loop orders, fused forest, and buffer specs —
//!    **no tensors**.
//! 2. **Binding and execution** — [`Plan::bind`] attaches a CSF sparse
//!    input and named dense factors, producing an
//!    [`Executor`](crate::Executor) whose preallocated workspace makes
//!    repeated execution allocation-free.
//!
//! Two expression syntaxes are accepted (the grammar and the names →
//! [`Kernel`] lowering live in [`spttn_ir::parse`]):
//!
//! - paper style: `"A(i,a) = T(i,j,k) * B(j,a) * C(k,a)"` (use `+=`
//!   instead of `=` to accumulate into the bound output on
//!   `execute_into`)
//! - arrow style: `"T[i,j,k]*B[j,a]*C[k,a]->A[i,a]"`
//!
//! In both, the **first right-hand-side tensor is the sparse input**,
//! and its written index order must match the CSF storage order of the
//! bound tensor. When the output's index set equals the sparse input's,
//! the output shares the sparse pattern (TTTP-like) and execution
//! returns [`ContractionOutput::Sparse`](crate::ContractionOutput).

use crate::{Result, SpttnError};
use spttn_cost::{
    candidate_orders, eval_forest, plan_mode_orders, BlasAware, CacheMiss, MaxBufferDim,
    MaxBufferSize, ModeOrderPolicy, OrderCost, OrderSearch, PlannedNest, TreeCost, Work,
    WorkCounts,
};
use spttn_exec::{CancelToken, Microkernels, RunGuard};
use spttn_ir::{
    buffers_for_forest, build_forest, enumerate_paths, parse_expr, total_buffer_size, BufferSpec,
    ContractionPath, Kernel, LoopForest, NestSpec, ParsedExpr,
};
use spttn_tensor::{CooTensor, SparsityProfile, SubsetCounts, TensorError};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Duration;

/// Cost model driving the planner (paper Defs. 4.5, 4.6 and Sec. 5).
///
/// All variants carry only integral parameters, so the model derives
/// `Eq`/`Hash` and can appear verbatim in [`crate::PlanKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostModel {
    /// Minimize the maximum intermediate-buffer dimensionality (Def. 4.5).
    MaxBufferDim,
    /// Minimize the maximum intermediate-buffer element count (Def. 4.5).
    MaxBufferSize,
    /// Minimize modeled cache misses with footprint exponent `d` (Def. 4.6).
    CacheMiss {
        /// Cache-footprint exponent.
        d: usize,
    },
    /// Maximize BLAS-offloadable dense loops under a buffer-dimension
    /// bound (Sec. 5; the paper's experiments use bound 2).
    BlasAware {
        /// Maximum allowed buffer dimensionality.
        buffer_dim_bound: usize,
    },
}

/// Thread-count selection: the most tiles a bind may split the sparse
/// tensor into. Every count runs the same engine — tile 0 on the
/// calling thread, one pool worker per further tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Threads {
    /// One thread per available hardware core
    /// ([`std::thread::available_parallelism`], falling back to 1).
    Auto,
    /// At most `n` threads; `N(1)` (or `N(0)`) is one tile on the
    /// calling thread — no worker thread, no partial output.
    N(usize),
}

impl Threads {
    /// Resolve to a concrete thread count (≥ 1).
    pub fn resolve(self) -> usize {
        match self {
            Threads::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Threads::N(n) => n.max(1),
        }
    }
}

/// Resource budget checked as the first step of [`Plan::bind`] (and of
/// `NetworkPlan::bind` in `spttn-net`, through the same rule), so a
/// rejected bind allocates nothing — the admission-control half of the
/// hardened runtime.
///
/// Both limits are modeled quantities from the paper's Sec.-5 cost
/// pipeline, charged for what the bind will allocate and run:
/// `max_workspace_bytes` bounds the Eq.-5 buffers replicated per
/// thread plus one dense output partial per thread after the first
/// ([`Plan::parallel_footprint`] × 8 bytes; network binds add their
/// materialized intermediates), and `max_modeled_flops` bounds the
/// operation count the nest that will run executes ([`Plan::work`]'s
/// executed flops — not its path's ideal count, which a nest can exceed
/// many times over; network binds add their dense steps). Workspace pressure
/// degrades gracefully — the bind drops to the largest thread count
/// (and hence tile count) that fits, down to one — before a typed
/// [`crate::SpttnError::BudgetExceeded`] reports the one-thread charge
/// against the allowance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RunBudget {
    /// Maximum preallocated workspace, in bytes. `None` = unlimited.
    pub max_workspace_bytes: Option<u64>,
    /// Maximum modeled flops per execution. `None` = unlimited.
    pub max_modeled_flops: Option<u128>,
}

impl RunBudget {
    /// Cap the preallocated workspace footprint (builder style).
    pub fn with_max_workspace_bytes(mut self, bytes: u64) -> Self {
        self.max_workspace_bytes = Some(bytes);
        self
    }

    /// Cap the modeled flops per execution (builder style).
    pub fn with_max_modeled_flops(mut self, flops: u128) -> Self {
        self.max_modeled_flops = Some(flops);
        self
    }

    /// Whether any limit is set.
    pub fn is_limited(&self) -> bool {
        self.max_workspace_bytes.is_some() || self.max_modeled_flops.is_some()
    }
}

/// Execution-stage options, carried by a [`Plan`] into [`Plan::bind`].
///
/// Binding partitions the CSF root level into at most `threads`
/// leaf-balanced tiles, each with its own preallocated workspace. Tile
/// 0 runs on the calling thread straight into the caller's output;
/// tiles 1… run on a persistent worker pool into private partial
/// outputs that a deterministic tree reduction adds afterwards, so
/// results are bit-reproducible run to run and bind to bind at a fixed
/// thread count (and within ≤1e-9 across counts). One thread is the
/// same engine with one tile. One compiled tape is shared by every
/// executing thread.
///
/// The robustness fields ([`RunBudget`], `deadline`, `cancel`) gate
/// and bound executions: the budget is enforced at bind time, the
/// deadline and token are re-checked at every root-iteration
/// checkpoint of every execution the plan's executors run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOptions {
    /// Threads the bound executor runs on.
    pub threads: Threads,
    /// Microkernel policy for the compiled tape (default
    /// [`Microkernels::Auto`]): `Auto` selects SIMD kernels
    /// (AVX-512F / AVX2+FMA) by runtime CPU detection once at bind time;
    /// `Scalar` pins the plain scalar kernels, whose bits the committed
    /// digests pin per tile count. Either way the tape is the same fused
    /// program: the policy picks a kernel table, not a program shape. The `SPTTN_MICROKERNELS` environment variable
    /// (`auto` / `scalar`) overrides either.
    pub microkernels: Microkernels,
    /// Per-execution wall-clock limit, measured from each
    /// `execute_into` call; expiry surfaces as
    /// [`crate::SpttnError::Cancelled`] and leaves the caller's output
    /// partially written — see [`crate::Executor::execute_into`] for
    /// the retry contract. `None` = no deadline.
    pub deadline: Option<Duration>,
    /// Cooperative cancellation token checked alongside the deadline.
    /// Clone the token before planning and call
    /// [`CancelToken::cancel`] from any thread to stop in-flight
    /// executions; [`CancelToken::reset`] re-arms it for retries.
    pub cancel: Option<CancelToken>,
    /// Bind-time admission budget (default: unlimited).
    pub budget: RunBudget,
}

impl Default for ExecOptions {
    /// One thread (one tile) — more is opt-in — with no deadline,
    /// token, or budget.
    fn default() -> Self {
        ExecOptions {
            threads: Threads::N(1),
            microkernels: Microkernels::Auto,
            deadline: None,
            cancel: None,
            budget: RunBudget::default(),
        }
    }
}

impl ExecOptions {
    /// The cancel/deadline guard of one execution, its clock starting
    /// now — what every `execute_into` builds first. Allocation-free (an
    /// `Arc` clone of the token at most).
    pub fn guard(&self) -> RunGuard {
        RunGuard::new(self.cancel.clone(), self.deadline)
    }
}

/// Options for [`Contraction::plan`].
#[derive(Debug, Clone)]
pub struct PlanOptions {
    /// Cost model selecting among loop nests.
    pub cost_model: CostModel,
    /// How the CSF storage order of the sparse input is chosen:
    /// the expression's written order
    /// ([`ModeOrderPolicy::Natural`], the default), a caller-specified
    /// permutation of it ([`ModeOrderPolicy::Fixed`]), or a search over
    /// candidate orders keeping the cheapest
    /// ([`ModeOrderPolicy::Auto`]). Whatever is chosen, [`Plan::bind`]
    /// still takes a CSF stored in the *written* order and rebuilds it
    /// when the plan's order differs — see [`Plan::mode_order`].
    pub mode_order: ModeOrderPolicy,
    /// Execution-stage options the plan carries into [`Plan::bind`].
    /// Not part of [`crate::PlanKey`]: the symbolic plan is identical
    /// for every thread count.
    pub exec: ExecOptions,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions {
            cost_model: CostModel::BlasAware {
                buffer_dim_bound: 2,
            },
            mode_order: ModeOrderPolicy::Natural,
            exec: ExecOptions::default(),
        }
    }
}

impl PlanOptions {
    /// Options with a specific cost model and every other default.
    pub fn with_cost_model(cost_model: CostModel) -> Self {
        PlanOptions {
            cost_model,
            ..Default::default()
        }
    }

    /// Set the execution thread count (builder style).
    pub fn with_threads(mut self, threads: Threads) -> Self {
        self.exec.threads = threads;
        self
    }

    /// Set the tape microkernel policy (builder style).
    /// [`Microkernels::Scalar`] forces the plain scalar kernels —
    /// bitwise the committed digests' scalar rows — while
    /// [`Microkernels::Auto`] (the default) picks the best SIMD
    /// implementation the host supports at bind time; both run the same
    /// program. Honored on
    /// [`crate::PlanCache`] hits like every [`ExecOptions`] field.
    pub fn with_microkernels(mut self, microkernels: Microkernels) -> Self {
        self.exec.microkernels = microkernels;
        self
    }

    /// Set a per-execution wall-clock deadline (builder style). Every
    /// execution of an executor bound from this plan is cancelled —
    /// [`crate::SpttnError::Cancelled`], see
    /// [`crate::Executor::execute_into`] for the state of the output —
    /// once `deadline` elapses from its own `execute_into` call.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.exec.deadline = Some(deadline);
        self
    }

    /// Attach a cooperative [`CancelToken`] (builder style). Keep a
    /// clone and call [`CancelToken::cancel`] from any thread to stop
    /// in-flight executions at their next checkpoint.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.exec.cancel = Some(cancel);
        self
    }

    /// Set the bind-time admission [`RunBudget`] (builder style).
    pub fn with_budget(mut self, budget: RunBudget) -> Self {
        self.exec.budget = budget;
        self
    }

    /// Set the CSF mode-order policy (builder style).
    ///
    /// [`ModeOrderPolicy::Auto`] runs the Sec. 5 planner once per
    /// candidate order (every permutation up to 4 sparse modes, a
    /// pruned family above) and keeps the cheapest by
    /// `(executed work, cost value)` — exact per-order fiber counts when the
    /// pattern is known ([`Shapes::with_pattern`]), the uniform model
    /// with [`Shapes::with_nnz`].
    /// Plan time multiplies accordingly; execution is unaffected except
    /// for the one-time CSF rebuild at [`Plan::bind`] when a
    /// non-natural order wins. For pattern-sharing (TTTP-like) outputs
    /// a non-natural order also reorders the output's nonzero
    /// enumeration (the set of entries is unchanged).
    pub fn with_mode_order(mut self, mode_order: ModeOrderPolicy) -> Self {
        self.mode_order = mode_order;
        self
    }
}

/// Data-independent operand description for symbolic planning: one
/// dimension per index name, plus the sparse input's pattern summary
/// (exact fiber counts under every CSF order) or a modeled uniform
/// nonzero count.
///
/// ```
/// use spttn::Shapes;
/// let shapes = Shapes::new()
///     .with_dims(&[("i", 30), ("j", 20), ("k", 25), ("r", 8)])
///     .with_nnz(200);
/// assert_eq!(shapes.dim("j"), Some(20));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Shapes {
    dims: HashMap<String, usize>,
    nnz: Option<u64>,
    /// The pattern's subset counts, shared by every clone of these
    /// shapes (or why it could not be counted, reported at plan time).
    pattern: Option<std::result::Result<Arc<SubsetCounts>, TensorError>>,
}

impl Shapes {
    /// Empty description; add dimensions and sparsity with the builder
    /// methods.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind one index name to a dimension.
    pub fn with_dim(mut self, name: &str, dim: usize) -> Self {
        self.dims.insert(name.to_string(), dim);
        self
    }

    /// Bind several index dimensions at once.
    pub fn with_dims(mut self, dims: &[(&str, usize)]) -> Self {
        for &(name, dim) in dims {
            self.dims.insert(name.to_string(), dim);
        }
        self
    }

    /// Model the sparse input as a uniformly-random pattern with `nnz`
    /// nonzeros (see [`SparsityProfile::uniform`]), under every CSF
    /// order alike.
    pub fn with_nnz(mut self, nnz: u64) -> Self {
        self.nnz = Some(nnz);
        self
    }

    /// Use the exact sparsity *pattern* of the sparse input: a COO
    /// tensor whose mode `m` is the index written at position `m` of
    /// the expression (values are ignored — only coordinates matter).
    ///
    /// The pattern is summarized here and dropped: its dims and the
    /// distinct-projection count of every mode subset
    /// ([`SubsetCounts`]), which give the
    /// exact per-level fiber counts of **any** CSF order, so every
    /// order — including each candidate of a
    /// [`ModeOrderPolicy::Auto`](crate::cost::ModeOrderPolicy) search —
    /// is scored on the real tensor without touching the coordinates
    /// again. The summary is `2^order` integers, shared by every clone
    /// of these shapes, and is also the pattern's
    /// [`PlanCache`](crate::PlanCache) identity, so the caller's tensor
    /// may be a clone dropped right after.
    ///
    /// Counting happens here, and grows with the order: natural-order
    /// input (what the readers produce) counts its natural prefixes in
    /// one run-length pass, subsets whose cells fit a bitmap of 64 bits
    /// per nonzero share one pass per batch, and each remaining chain of
    /// subsets takes a counting sort. At 1M sorted nonzeros that is about
    /// 30 ms at order 3 and 0.25–2 s at orders 4–6, with up to 16 bytes
    /// per nonzero held while a sort runs. Patterns of more than
    /// [`MAX_COUNTED_ORDER`](crate::tensor::MAX_COUNTED_ORDER) modes are
    /// not counted: planning with them fails with
    /// [`TensorError::TooManyModes`](crate::tensor::TensorError), and
    /// [`Shapes::with_nnz`] plans them on the uniform model.
    ///
    /// Takes precedence over [`Shapes::with_nnz`].
    pub fn with_pattern(mut self, pattern: CooTensor) -> Self {
        self.pattern = Some(SubsetCounts::of(&pattern).map(Arc::new));
        self
    }

    /// The dimension bound to an index name, if any.
    pub fn dim(&self, name: &str) -> Option<usize> {
        self.dims.get(name).copied()
    }

    /// The dimension bound to an index name, or the planning error that
    /// says how to bind it — the `dim_of` every expression lowering
    /// ([`spttn_ir::ParsedExpr::lower`]) runs against.
    pub fn require_dim(&self, name: &str) -> Result<usize> {
        self.dim(name).ok_or_else(|| {
            SpttnError::Planning(format!(
                "no dimension bound for index '{name}'; call Shapes::with_dim(\"{name}\", ...)"
            ))
        })
    }

    /// Resolve the sparsity description into a natural-(written-)order
    /// [`SparsityProfile`] for a sparse input whose written index names
    /// are `names` — the profile multi-kernel schedulers (`spttn-net`)
    /// score candidate contraction sequences against before any
    /// per-step plan exists. Exact under [`Shapes::with_pattern`]; the
    /// uniform model under [`Shapes::with_nnz`].
    pub fn natural_profile(&self, names: &[String]) -> Result<SparsityProfile> {
        let dims = names
            .iter()
            .map(|n| self.require_dim(n))
            .collect::<Result<Vec<_>>>()?;
        let natural: Vec<usize> = (0..dims.len()).collect();
        Ok(self.sparsity(&dims)?.profile_for(&dims, &natural)?)
    }

    /// The sparsity source for a sparse input whose written modes have
    /// dimensions `dims`: the pattern, checked against them, else the
    /// uniform model.
    pub(crate) fn sparsity(&self, dims: &[usize]) -> Result<SparsitySource> {
        if let Some(p) = &self.pattern {
            let p = p.as_ref().map_err(|e| SpttnError::Tensor(e.clone()))?;
            let got = p.dims();
            if got.len() != dims.len() {
                return Err(SpttnError::Shape(format!(
                    "sparsity pattern has {} modes but the sparse input has {}",
                    got.len(),
                    dims.len()
                )));
            }
            if let Some(m) = (0..dims.len()).find(|&m| got[m] != dims[m]) {
                return Err(SpttnError::Shape(format!(
                    "sparsity pattern mode {m} has dimension {}, kernel expects {}",
                    got[m], dims[m]
                )));
            }
            return Ok(SparsitySource::Pattern(Arc::clone(p)));
        }
        match self.nnz {
            Some(nnz) => Ok(SparsitySource::Uniform { nnz }),
            None => Err(SpttnError::Planning(
                "no sparsity information for the sparse input; call Shapes::with_nnz \
                 (uniform model) or Shapes::with_pattern (exact coordinates)"
                    .into(),
            )),
        }
    }
}

/// How the planner obtains a [`SparsityProfile`] for a candidate CSF
/// mode order: exact counts from the pattern's subset counts, or the
/// uniform model — either way, every order is scored the same way, and
/// neither touches coordinates.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum SparsitySource {
    /// The pattern's subset counts (shared with the [`Shapes`]): its
    /// mode `p` is the index written at position `p` of the expression.
    /// Exact counts for every order.
    Pattern(Arc<SubsetCounts>),
    /// Uniform random model with `nnz` nonzeros, every order.
    Uniform { nnz: u64 },
}

impl SparsitySource {
    /// Profile of a sparse input whose written modes have dimensions
    /// `dims`, stored in `order` (a permutation of written positions).
    pub(crate) fn profile_for(
        &self,
        dims: &[usize],
        order: &[usize],
    ) -> std::result::Result<SparsityProfile, TensorError> {
        match self {
            SparsitySource::Pattern(p) => p.profile(order),
            SparsitySource::Uniform { nnz } => {
                let permuted: Vec<usize> = order.iter().map(|&p| dims[p]).collect();
                let natural: Vec<usize> = (0..order.len()).collect();
                SparsityProfile::uniform(&permuted, &natural, *nnz)
            }
        }
    }
}

/// What a [`Contraction`] was made from.
#[derive(Debug, Clone)]
enum Source {
    /// A parsed expression; dimensions arrive with the [`Shapes`].
    Expr(ParsedExpr),
    /// A pre-built kernel (bypasses parsing and dimension inference).
    Kernel(Kernel),
}

/// A parsed contraction: structure only, no operands.
#[derive(Debug, Clone)]
pub struct Contraction {
    source: Source,
    /// `+=` expression: execution accumulates into the bound output.
    accumulate: bool,
}

impl Contraction {
    /// Parse an einsum-style SpTTN expression (structure only;
    /// dimensions are supplied at [`Contraction::plan`] time). Grammar
    /// and rejections are [`spttn_ir::parse_expr`]'s.
    pub fn parse(expr: &str) -> Result<Self> {
        let parsed = parse_expr(expr)?;
        Ok(Contraction {
            accumulate: parsed.accumulate,
            source: Source::Expr(parsed),
        })
    }

    /// Start from an existing [`Kernel`] (e.g. one of
    /// [`spttn_ir::stdkernels`]); the kernel's declared dimensions are
    /// used directly, and bound tensors are validated against them.
    pub fn from_kernel(kernel: Kernel) -> Self {
        Contraction {
            source: Source::Kernel(kernel),
            accumulate: false,
        }
    }

    /// Index names written on the sparse input (the first
    /// right-hand-side tensor), in written order — the names whose
    /// dimensions an ingested tensor file supplies.
    pub fn sparse_index_names(&self) -> Option<Vec<String>> {
        match &self.source {
            Source::Kernel(k) => Some(
                k.csf_index_order()
                    .iter()
                    .map(|&i| k.index_name(i).to_string())
                    .collect(),
            ),
            Source::Expr(p) => p.inputs.first().map(|r| r.indices.clone()),
        }
    }

    /// True when execution accumulates into the bound output (a `+=`
    /// expression, or [`Contraction::with_accumulate`]).
    pub fn is_accumulate(&self) -> bool {
        self.accumulate
    }

    /// All distinct index names in the expression, in first-appearance
    /// order over the inputs. Drivers use this to know which dimensions
    /// still need declaring.
    pub fn all_index_names(&self) -> Vec<String> {
        match &self.source {
            Source::Kernel(k) => k.indices.iter().map(|i| i.name.clone()).collect(),
            Source::Expr(p) => p.index_names(),
        }
    }

    /// Mark the contraction as accumulating into the bound output
    /// (`+=` semantics for `execute_into`). Parsing a `+=` expression
    /// sets this automatically.
    pub fn with_accumulate(mut self, accumulate: bool) -> Self {
        self.accumulate = accumulate;
        self
    }

    /// **Stage 1 — symbolic planning.** Choose a contraction path and
    /// loop orders minimizing the configured cost model, with tier
    /// fallback (paper Sec. 5), using only the index dimensions and
    /// sparsity description in `shapes` — no tensor data. The returned
    /// [`Plan`] can be bound to many operand sets via [`Plan::bind`].
    pub fn plan(self, shapes: &Shapes, opts: &PlanOptions) -> Result<Plan> {
        let (kernel, source, accumulate) = self.resolve_symbolic(shapes)?;
        Plan::build(kernel, source, accumulate, opts)
    }

    /// Resolve the validated kernel for symbolic planning — a pre-built
    /// kernel is used as-is, otherwise every index dimension comes from
    /// `shapes` — and the sparsity source checked against it.
    pub(crate) fn resolve_symbolic(
        self,
        shapes: &Shapes,
    ) -> Result<(Kernel, SparsitySource, bool)> {
        let kernel = match self.source {
            Source::Kernel(kernel) => {
                // Dimensions live in the kernel; catch contradictions early.
                for info in &kernel.indices {
                    if let Some(d) = shapes.dim(&info.name) {
                        if d != info.dim {
                            return Err(SpttnError::Shape(format!(
                                "index '{}' is {} in the kernel but {d} in the shapes",
                                info.name, info.dim
                            )));
                        }
                    }
                }
                kernel
            }
            Source::Expr(parsed) => parsed.lower(|idx| shapes.require_dim(idx))?,
        };
        let source = shapes.sparsity(&kernel.ref_dims(kernel.sparse_ref()))?;
        Ok((kernel, source, self.accumulate))
    }
}

/// A planned contraction: the symbolic artifact of Stage 1.
///
/// Holds the kernel, chosen contraction path, loop orders, fused loop
/// forest, and Eq.-5 buffer specs — **no tensors**. A plan is reusable:
/// bind it to operands with [`Plan::bind`] as many times as needed, or
/// store it in a [`crate::PlanCache`] keyed by [`crate::PlanKey`].
#[derive(Debug, Clone)]
pub struct Plan {
    /// Kernel in the plan's chosen CSF order (the sparse input's
    /// written order is permuted when [`Plan::mode_order`] is not the
    /// identity).
    pub(crate) kernel: Kernel,
    pub(crate) path: ContractionPath,
    pub(crate) spec: NestSpec,
    pub(crate) forest: LoopForest,
    pub(crate) buffers: Vec<BufferSpec>,
    pub(crate) accumulate: bool,
    pub(crate) profile: SparsityProfile,
    pub(crate) exec: ExecOptions,
    /// Chosen CSF order: level `l` stores the index written at position
    /// `mode_order[l]` of the original expression.
    pub(crate) mode_order: Vec<usize>,
    /// Per-candidate-order planning record (one entry per explored
    /// order; a single entry under a natural/fixed policy).
    pub(crate) order_costs: Vec<OrderCost>,
    pub(crate) work: WorkCounts,
    pub(crate) ideal_flops: u128,
    /// Scalar-operation count one execution of the chosen nest performs
    /// under the plan's sparsity profile (exact for a pattern-derived
    /// profile): [`Plan::work`]'s executed flops, copied here as a
    /// report. Bind-time admission ([`RunBudget::max_modeled_flops`])
    /// charges [`Plan::work`], so writing this field changes no bind.
    pub flops: u128,
    /// Tier of the chosen path among all paths ranked by ideal op count
    /// (0 = asymptotically optimal).
    pub tier: usize,
    /// Debug rendering of the chosen nest's cost value.
    pub cost: String,
}

impl Plan {
    /// Run the planner on fully-resolved parts.
    pub(crate) fn build(
        kernel: Kernel,
        source: SparsitySource,
        accumulate: bool,
        opts: &PlanOptions,
    ) -> Result<Plan> {
        type Parts<'a> = (&'a Kernel, &'a SparsitySource, bool, &'a PlanOptions);
        fn go<C: TreeCost>(cost: &C, (kernel, source, accumulate, opts): Parts) -> Result<Plan>
        where
            C::Value: std::fmt::Debug,
        {
            let dims = kernel.ref_dims(kernel.sparse_ref());
            let orders: Vec<Vec<usize>> = match &opts.mode_order {
                ModeOrderPolicy::Natural => vec![(0..dims.len()).collect()],
                ModeOrderPolicy::Fixed(order) => {
                    // Surface a bad permutation as its own error instead
                    // of an opaque "no feasible nest".
                    kernel.permute_sparse_modes(order)?;
                    vec![order.clone()]
                }
                ModeOrderPolicy::Auto => candidate_orders(&dims),
            };
            let found =
                plan_mode_orders(kernel, cost, &orders, |o| source.profile_for(&dims, o).ok())
                    .ok_or_else(|| SpttnError::Planning("no feasible loop nest found".into()))?;
            let rendered = format!("{:?}", found.planned.value);
            Plan::assemble(found, rendered, accumulate, opts.exec.clone())
        }
        let parts = (&kernel, &source, accumulate, opts);
        match opts.cost_model {
            CostModel::MaxBufferDim => go(&MaxBufferDim, parts),
            CostModel::MaxBufferSize => go(&MaxBufferSize, parts),
            CostModel::CacheMiss { d } => go(&CacheMiss { d }, parts),
            CostModel::BlasAware { buffer_dim_bound } => go(&BlasAware { buffer_dim_bound }, parts),
        }
    }

    /// The plan that runs the nest `found` records, whose cost value
    /// renders as `cost`: the fused forest and its Eq.-5 buffers follow
    /// from the nest, and [`Plan::flops`] from its work.
    fn assemble<V>(
        found: OrderSearch<V>,
        cost: String,
        accumulate: bool,
        exec: ExecOptions,
    ) -> Result<Plan> {
        let nest = found.planned;
        let forest = build_forest(&found.kernel, &nest.path, &nest.spec)?;
        let buffers = buffers_for_forest(&found.kernel, &nest.path, &forest);
        Ok(Plan {
            kernel: found.kernel,
            path: nest.path,
            spec: nest.spec,
            forest,
            buffers,
            accumulate,
            profile: found.profile,
            exec,
            mode_order: found.order,
            order_costs: found.explored,
            flops: nest.work.executed_flops(),
            work: nest.work,
            ideal_flops: nest.ideal_flops,
            tier: nest.tier,
            cost,
        })
    }

    /// This plan with the planner's choice replaced by an explicit
    /// nest: `path` (e.g. from [`spttn_ir::path_from_picks`] on
    /// [`Plan::kernel`]) and one loop order per term. Forest, buffers,
    /// executed work, flops and tier are recomputed for it; kernel, CSF
    /// order, profile and execution options are kept, and [`Plan::cost`]
    /// reads `explicit nest` (no cost model chose it). Errors when the
    /// orders do not form a valid fused nest.
    ///
    /// For benchmarks and tests that mean one particular nest rather
    /// than whatever the planner currently prefers.
    pub fn with_nest(&self, path: ContractionPath, spec: NestSpec) -> Result<Plan> {
        let forest = build_forest(&self.kernel, &path, &spec)?;
        let work = eval_forest(&self.kernel, &path, &self.profile, &forest, &Work);
        let ideal_flops = path.flops(&self.kernel, &self.profile);
        // Tier = how many distinct op counts rank below this path's.
        let cheaper: BTreeSet<u128> = enumerate_paths(&self.kernel)
            .iter()
            .map(|p| p.flops(&self.kernel, &self.profile))
            .filter(|&f| f < ideal_flops)
            .collect();
        let found = OrderSearch {
            order: self.mode_order.clone(),
            kernel: self.kernel.clone(),
            profile: self.profile.clone(),
            planned: PlannedNest {
                path,
                spec,
                value: (),
                work,
                ideal_flops,
                tier: cheaper.len(),
            },
            explored: self.order_costs.clone(),
        };
        Plan::assemble(
            found,
            "explicit nest".into(),
            self.accumulate,
            self.exec.clone(),
        )
    }

    /// Replace the execution options this plan carries into
    /// [`Plan::bind`] (builder style). The symbolic nest is untouched —
    /// the same plan can be bound at any thread count.
    pub fn with_exec(mut self, exec: ExecOptions) -> Plan {
        self.exec = exec;
        self
    }

    /// The execution options [`Plan::bind`] will apply.
    pub fn exec(&self) -> &ExecOptions {
        &self.exec
    }

    /// Elements a bind at `threads` threads preallocates, what
    /// admission charges (× 8 bytes) against
    /// [`RunBudget::max_workspace_bytes`]: every Eq.-5 buffer once per
    /// thread, plus a dense output partial per thread after the first
    /// (a pattern-sharing output has none: tiles write disjoint leaf
    /// ranges).
    pub fn parallel_footprint(&self, threads: usize) -> u128 {
        let t = threads.max(1) as u128;
        let partial: u128 = if self.kernel.output_sparse {
            0
        } else {
            (self.kernel.output.indices.iter())
                .map(|&i| self.kernel.dim(i) as u128)
                .product()
        };
        total_buffer_size(&self.buffers)
            .saturating_mul(t)
            .saturating_add(partial.saturating_mul(t - 1))
    }

    /// The validated kernel.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The chosen contraction path.
    pub fn path(&self) -> &ContractionPath {
        &self.path
    }

    /// The chosen loop orders.
    pub fn spec(&self) -> &NestSpec {
        &self.spec
    }

    /// The fused loop forest the executor walks.
    pub fn forest(&self) -> &LoopForest {
        &self.forest
    }

    /// Intermediate buffers of the nest (Eq. 5).
    pub fn buffers(&self) -> &[BufferSpec] {
        &self.buffers
    }

    /// The sparsity profile the plan was made for (in the plan's chosen
    /// CSF order).
    pub fn profile(&self) -> &SparsityProfile {
        &self.profile
    }

    /// What one execution of the chosen nest does, as the planner
    /// models it: CSF walks, sparse node visits, tape steps, vector
    /// lanes and executed flops ([`Plan::flops`]). The planner picks
    /// the nest of least work; the cost model decides among equals.
    pub fn work(&self) -> &WorkCounts {
        &self.work
    }

    /// Leading-order op count of the chosen *path*
    /// ([`ContractionPath::flops`]): what [`Plan::flops`] would be if
    /// every term ran under its longest sparse prefix.
    pub fn ideal_flops(&self) -> u128 {
        self.ideal_flops
    }

    /// The chosen CSF storage order: level `l` of the tree holds the
    /// sparse index written at position `mode_order()[l]` of the
    /// original expression. The identity permutation under
    /// [`ModeOrderPolicy::Natural`](crate::cost::ModeOrderPolicy); a
    /// non-identity order makes [`Plan::bind`] rebuild the incoming
    /// CSF (which is always interpreted as written-order storage).
    pub fn mode_order(&self) -> &[usize] {
        &self.mode_order
    }

    /// True when the chosen order is the expression's written order —
    /// binding then reuses the incoming CSF without a rebuild.
    pub fn is_natural_order(&self) -> bool {
        self.mode_order.iter().enumerate().all(|(l, &p)| l == p)
    }

    /// The kernel with the sparse input back in the expression's
    /// written order (inverting [`Plan::mode_order`]). Reference
    /// checkers (e.g. a naive einsum over written-order dense operands)
    /// want this view rather than [`Plan::kernel`].
    pub fn natural_kernel(&self) -> Kernel {
        if self.is_natural_order() {
            return self.kernel.clone();
        }
        let mut inv = vec![0usize; self.mode_order.len()];
        for (l, &p) in self.mode_order.iter().enumerate() {
            inv[p] = l;
        }
        self.kernel
            .permute_sparse_modes(&inv)
            .expect("inverse of a valid permutation")
    }

    /// Per-candidate-order planning record: the orders the search
    /// explored (natural/fixed policies record exactly one), each with
    /// the best nest's executed work and op count (`None` when
    /// infeasible for that order) and cost rendering. The chosen order
    /// is the `(work, cost)` minimum.
    pub fn order_costs(&self) -> &[OrderCost] {
        &self.order_costs
    }

    /// True when execution accumulates into the bound output (`+=`).
    pub fn accumulate(&self) -> bool {
        self.accumulate
    }

    /// Human-readable summary: kernel, path, orders, loop nest, buffers.
    pub fn describe(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("kernel: {}\n", self.kernel.to_einsum()));
        if !self.is_natural_order() {
            let names: Vec<&str> = self
                .kernel
                .csf_index_order()
                .iter()
                .map(|&i| self.kernel.index_name(i))
                .collect();
            s.push_str(&format!(
                "storage: CSF order ({}) — chosen over {} candidate order(s); \
                 bind re-sorts written-order tensors\n",
                names.join(","),
                self.order_costs.len()
            ));
        }
        s.push_str(&format!("path:   {}\n", self.path.describe(&self.kernel)));
        s.push_str(&format!("orders: {}\n", self.spec.describe(&self.kernel)));
        s.push_str(&format!(
            "cost:   {} (tier {}, ~{} flops)\n",
            self.cost, self.tier, self.flops
        ));
        s.push_str(&format!(
            "work:   {} (path ideal {})\n",
            self.work, self.ideal_flops
        ));
        for b in &self.buffers {
            let names: Vec<&str> = b.inds.iter().map(|&i| self.kernel.index_name(i)).collect();
            s.push_str(&format!(
                "buffer: X{} [{}] = {} elems\n",
                b.producer,
                names.join(","),
                b.size()
            ));
        }
        s.push_str("nest:\n");
        s.push_str(&self.forest.render(&self.kernel, &self.path));
        s
    }
}
