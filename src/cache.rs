//! Keyed storage of symbolic plans.
//!
//! The Sec. 5 planner (path enumeration + Algorithm-1 DP, times the
//! number of candidate CSF orders under
//! [`ModeOrderPolicy::Auto`](crate::cost::ModeOrderPolicy)) is the
//! expensive stage of the pipeline, and its output depends only on the
//! kernel structure, the index dimensions, the sparsity information,
//! and the planning options — never on tensor values. [`PlanKey`]
//! captures exactly those inputs, so a [`PlanCache`] can hand back a
//! shared [`Plan`] for every repeated build (CP-ALS sweeps, request
//! traffic for a hot kernel) instead of re-running the DP.
//!
//! Keys are honest: two contractions get the same key **iff** the
//! planner would make identical decisions for both. That includes the
//! mode-order policy and — for pattern-backed sparsity — the pattern's
//! distinct-projection count on every mode subset
//! ([`SubsetCounts`]), since the planner
//! reads a pattern only through the profiles those counts give under
//! each order: two patterns with the same counts (one a relabeling of
//! the other within a mode, say) get the same plan, and the key holds
//! `2^order` integers, not a hash of `nnz` coordinates.
//!
//! Lookups are **single-flight**: when several threads miss on the same
//! key at once, exactly one runs the planner while the rest block on
//! the winner's slot and share its result — [`PlanCache::misses`]
//! counts one planner run, not one per racing thread.

use crate::contraction::{Contraction, CostModel, Plan, PlanOptions, Shapes, SparsitySource};
use crate::Result;
use spttn_cost::ModeOrderPolicy;
use spttn_ir::Kernel;
use spttn_tensor::SubsetCounts;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Hashable form of the sparsity information the planner ran on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum SparsityKey {
    /// Exact pattern: its dims and subset counts (shared with the
    /// `Shapes` that carry them, not copied per lookup) — everything
    /// the per-order exact profiles an order search compares are made
    /// of.
    Pattern(Arc<SubsetCounts>),
    /// Uniform model: modeled nonzero count (dimensions are already in
    /// the key's `dims`).
    Uniform(u64),
}

impl SparsityKey {
    fn of(source: &SparsitySource) -> SparsityKey {
        match source {
            SparsitySource::Pattern(p) => SparsityKey::Pattern(Arc::clone(p)),
            SparsitySource::Uniform { nnz } => SparsityKey::Uniform(*nnz),
        }
    }
}

/// Everything the planner's decisions depend on, in hashable form.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Canonical einsum rendering of the kernel (names + index order).
    kernel: String,
    /// Dimension of every kernel index, in index-id order.
    dims: Vec<usize>,
    /// Which input slot holds the sparse tensor.
    sparse_input: usize,
    /// Whether the output shares the sparse pattern.
    output_sparse: bool,
    /// Sparsity information summary (pattern or model).
    sparsity: SparsityKey,
    /// Cost model (integral parameters only — derives `Hash` directly).
    cost_model: CostModel,
    /// CSF mode-order policy (structural data — derives `Hash`).
    mode_order: ModeOrderPolicy,
    /// `=` vs `+=` execution semantics.
    accumulate: bool,
}

impl PlanKey {
    /// Build the key for a resolved sparsity source.
    fn from_source(
        kernel: &Kernel,
        source: &SparsitySource,
        accumulate: bool,
        opts: &PlanOptions,
    ) -> Self {
        PlanKey {
            kernel: kernel.to_einsum(),
            dims: (0..kernel.num_indices()).map(|i| kernel.dim(i)).collect(),
            sparse_input: kernel.sparse_input,
            output_sparse: kernel.output_sparse,
            sparsity: SparsityKey::of(source),
            cost_model: opts.cost_model,
            mode_order: opts.mode_order.clone(),
            accumulate,
        }
    }
}

/// One keyed slot: completed with a shared plan (or the planning error
/// for the threads that waited on a failed flight).
type PlanSlot = Arc<OnceLock<Result<Arc<Plan>>>>;

/// A thread-safe, keyed store of symbolic plans with single-flight
/// lookups.
///
/// ```
/// use spttn::{Contraction, PlanCache, PlanOptions, Shapes};
///
/// let cache = PlanCache::new();
/// let shapes = Shapes::new()
///     .with_dims(&[("i", 30), ("j", 20), ("k", 25), ("r", 8)])
///     .with_nnz(200);
/// let opts = PlanOptions::default();
/// let expr = "T[i,j,k]*A[j,r]*B[k,r]->O[i,r]";
///
/// let p1 = cache.plan(Contraction::parse(expr).unwrap(), &shapes, &opts).unwrap();
/// let p2 = cache.plan(Contraction::parse(expr).unwrap(), &shapes, &opts).unwrap();
/// assert!(std::sync::Arc::ptr_eq(&p1, &p2)); // second build hit the cache
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// ```
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: Mutex<HashMap<PlanKey, PlanSlot>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolve a contraction against `shapes` and return its plan,
    /// running the Sec. 5 DP only when no plan with the same [`PlanKey`]
    /// is stored yet. Single-flight per key: of any number of threads
    /// racing a cold key, exactly one runs the DP (counted as one miss)
    /// while the others block on its slot and share the resulting `Arc`
    /// (each counted as a hit). A failed flight hands its error to
    /// every waiter but is not retained, so later lookups retry
    /// planning.
    pub fn plan(
        &self,
        contraction: Contraction,
        shapes: &Shapes,
        opts: &PlanOptions,
    ) -> Result<Arc<Plan>> {
        let (kernel, source, accumulate) = contraction.resolve_symbolic(shapes)?;
        let key = PlanKey::from_source(&kernel, &source, accumulate, opts);
        let slot: PlanSlot = self
            .plans
            .lock()
            .expect("cache lock")
            .entry(key.clone())
            .or_default()
            .clone();
        let mut leader = false;
        let res = slot
            .get_or_init(|| {
                leader = true;
                Plan::build(kernel, source, accumulate, opts).map(Arc::new)
            })
            .clone();
        if res.is_err() {
            // Drop the failed slot (if it is still the one we raced
            // on) so the error is not cached. Every observer attempts
            // this, not just the leader — a thread that joins the map
            // entry after the flight failed but before the leader's
            // removal would otherwise leave the stale error pinned.
            let mut map = self.plans.lock().expect("cache lock");
            if map.get(&key).is_some_and(|cur| Arc::ptr_eq(cur, &slot)) {
                map.remove(&key);
            }
        }
        if leader {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else if res.is_ok() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        // The symbolic nest is identical for every thread count and
        // microkernel policy, so `ExecOptions` stay out of
        // the key — but the caller's options must win over whatever
        // the flight leader planned with: re-apply them on a mismatch
        // (hits with matching options keep sharing the cached `Arc`
        // untouched). `ExecOptions` derives `PartialEq` over every
        // field, so a new field is re-applied here automatically.
        res.map(|plan| {
            if *plan.exec() == opts.exec {
                plan
            } else {
                Arc::new((*plan).clone().with_exec(opts.exec.clone()))
            }
        })
    }

    /// Number of cached plans (completed successful flights).
    pub fn len(&self) -> usize {
        self.plans
            .lock()
            .expect("cache lock")
            .values()
            .filter(|slot| matches!(slot.get(), Some(Ok(_))))
            .count()
    }

    /// True when no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached plan (counters are kept). In-flight planner
    /// runs complete on their private slots and are dropped.
    pub fn clear(&self) {
        self.plans.lock().expect("cache lock").clear();
    }

    /// Lookups answered from the cache since construction — including
    /// threads that blocked on another thread's in-flight planner run.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Planner runs (one per cold key, however many threads raced it).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}
