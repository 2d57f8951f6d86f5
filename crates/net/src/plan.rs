//! Lowering: a chosen contraction path becomes materialized dense
//! steps plus one collapsed sparse-spine kernel, ready to bind.
//!
//! Every term whose subtree contains the sparse tensor sits on the
//! *sparse spine* — the chain from the sparse leaf to the root. Those
//! terms are not executed pairwise: they collapse back into a single
//! SpTTN kernel (the sparse tensor, the spine's original dense
//! operands, and the materialized off-spine intermediates `_net{t}`),
//! which the Sec. 5 planner then fuses and orders optimally. Off-spine
//! terms are dense-dense contractions with no sparsity to exploit; each
//! lowers, at plan time, to a loop order and a [`LeafOp`] — the
//! microkernel that runs its innermost loop — writing a preallocated
//! intermediate.
//!
//! ## Dense-step lowering
//!
//! Every loop index of a step falls into one class by where it lives:
//!
//! | class | left | right | output |
//! |-------|------|-------|--------|
//! | batch | ✓    | ✓     | ✓      |
//! | M     | ✓    |       | ✓      |
//! | N     |      | ✓     | ✓      |
//! | K     | ✓    | ✓     |        |
//!
//! [`lower`] orders the loops *output loops, then K loops, then one
//! vector loop* — the output index whose strides are smallest — so the
//! accumulator row stays put across the whole K sweep, and the vector
//! loop becomes one microkernel call: the one the tape's lowering rule,
//! [`Term::leaf_op`], names for the vector index. An output index on
//! one operand (M or N) is `Axpy { vec }`, `out_row += s · vec_row`;
//! one on both (batch) is `Xmul`, `out_row += l_row ∘ r_row`. The
//! operands stay in their written order.
//!
//! Every leaf is that single loop; folding a second one into GER or
//! GEMV waits for a measured workload that wants it. K loops keep their
//! relative order (first contracted index outermost), so every output
//! cell sums its contributions in ascending index order — the order the
//! scalar reference walk in `exec.rs`'s tests uses, which the scalar
//! microkernel tier reproduces bitwise. Extent-1 loops are dropped. The
//! lowering is host-independent; which function pointer a leaf calls is
//! decided at bind (`exec.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use spttn::ir::{ContractionPath, IndexId, Kernel, KernelBuilder, LeafOp, Operand, Term};
use spttn::tensor::{Csf, DenseTensor};
use spttn::{Contraction, Plan, PlanCache, Result, Shapes, SpttnError};

use crate::exec::NetworkExecutor;
use crate::network::{Network, INTER_PREFIX};
use crate::planner::{choose_path, NetOptions, SearchReport};

/// One loop of a dense step: `extent` trips advancing the
/// left/right/output offsets by the given strides (`0` when the operand
/// does not carry the loop's index).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LoopDim {
    pub extent: usize,
    pub l: usize,
    pub r: usize,
    pub o: usize,
}

/// Where a dense step reads an operand from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepSrc {
    /// `dense_inputs[k]` — an executor-owned copy of a user factor.
    User(usize),
    /// `inters[slot]` — an earlier step's output.
    Inter(usize),
}

/// A materialized dense-dense pairwise contraction, fully resolved to
/// loop extents, strides and a leaf at plan time.
#[derive(Debug, Clone)]
pub(crate) struct DenseStep {
    pub left: StepSrc,
    pub right: StepSrc,
    /// Output workspace slot (`inters[out_slot]`).
    pub out_slot: usize,
    /// Loops in execution order; the last is the leaf's.
    pub loops: Vec<LoopDim>,
    /// The vector loop's microkernel, by [`Term::leaf_op`].
    pub leaf: LeafOp,
    /// Modeled flops (`2·∏ extents`); zero iff some extent is zero and
    /// the step has nothing to run.
    pub flops: u128,
    /// Human-readable `A(i,j)*B(j,k) -> _net2(i,k)` form.
    pub desc: String,
}

/// The spine rule: operand `op` carries the sparse leaf iff it is the
/// sparse input or an intermediate of a spine term (`on_spine`, filled
/// for every earlier term).
fn sparse_side(kernel: &Kernel, on_spine: &[bool], op: Operand) -> bool {
    match op {
        Operand::Input(i) => i == kernel.sparse_input,
        Operand::Inter(u) => on_spine[u],
    }
}

/// Which terms of `path` sit on the sparse spine: a term is on it iff
/// its subtree contains the sparse leaf (exactly one operand side can).
pub(crate) fn spine_terms(kernel: &Kernel, path: &ContractionPath) -> Vec<bool> {
    let mut on_spine = vec![false; path.terms.len()];
    for (t, term) in path.terms.iter().enumerate() {
        on_spine[t] =
            sparse_side(kernel, &on_spine, term.left) || sparse_side(kernel, &on_spine, term.right);
    }
    on_spine
}

/// Index order of a term operand: a user factor's written order, an
/// intermediate's ascending-id order.
fn operand_order(kernel: &Kernel, path: &ContractionPath, op: Operand) -> Vec<IndexId> {
    match op {
        Operand::Input(i) => kernel.inputs[i].indices.clone(),
        Operand::Inter(u) => path.terms[u].out_inds.to_vec(),
    }
}

/// Term `t` as loops in canonical order — output loops row-major over
/// the intermediate (its `out_inds` order), then contracted loops by
/// ascending index. This is the nest the scalar reference walks.
pub(crate) fn term_loops(kernel: &Kernel, path: &ContractionPath, t: usize) -> Vec<LoopDim> {
    let term = &path.terms[t];
    let lorder = operand_order(kernel, path, term.left);
    let rorder = operand_order(kernel, path, term.right);
    let out_v = term.out_inds.to_vec();
    // Saturating: bind refuses an operand whose strides pass `usize`
    // (admission for an intermediate, the shape check for a factor).
    let stride_in = |order: &[IndexId], idx: IndexId| -> usize {
        match order.iter().position(|&i| i == idx) {
            None => 0,
            Some(p) => (order[p + 1..].iter()).fold(1, |n, &i| n.saturating_mul(kernel.dim(i))),
        }
    };
    out_v
        .iter()
        .chain(term.contracted().to_vec().iter())
        .map(|&idx| LoopDim {
            extent: kernel.dim(idx),
            l: stride_in(&lorder, idx),
            r: stride_in(&rorder, idx),
            o: stride_in(&out_v, idx),
        })
        .collect()
}

/// Order `term`'s canonical loops ([`term_loops`]) for execution and
/// name the leaf — see the module docs.
pub(crate) fn lower(term: &Term, loops: &[LoopDim]) -> (Vec<LoopDim>, LeafOp) {
    let n_out = term.out_inds.len();
    let (outs, cons) = loops.split_at(n_out);
    // The vector loop: smallest largest-stride first, then smallest
    // stride sum; a degenerate extent-1 loop only when nothing else
    // exists, and ties to the later index (unit stride in the output).
    let v = (0..n_out)
        .rev()
        .min_by_key(|&i| {
            let d = outs[i];
            (
                d.extent == 1,
                d.l.max(d.r).max(d.o),
                d.l.saturating_add(d.r).saturating_add(d.o),
            )
        })
        .expect("a dense step has an output index");
    let mut order: Vec<LoopDim> = outs
        .iter()
        .enumerate()
        .filter(|&(i, d)| i != v && d.extent != 1)
        .map(|(_, d)| *d)
        .collect();
    order.extend(cons.iter().filter(|d| d.extent != 1));
    order.push(outs[v]);
    let q = term
        .out_inds
        .iter()
        .nth(v)
        .expect("one loop per output index");
    let leaf = term
        .leaf_op(q, None)
        .expect("an output index is on an operand");
    (order, leaf)
}

/// How the collapsed kernel's dense factor slots are fed at bind time.
#[derive(Debug, Clone)]
pub(crate) enum CollapsedInput {
    /// A user-supplied factor, by name.
    User(String),
    /// A materialized intermediate (`inters[slot]`, named `_net{t}`).
    Inter { slot: usize, name: String },
}

/// A planned network: the chosen contraction order, its lowered dense
/// steps, and the Sec. 5 plan for the collapsed sparse-spine kernel.
/// Bind it to operands many times via [`NetworkPlan::bind`] /
/// [`NetworkPlan::bind_pooled`].
#[derive(Debug, Clone)]
pub struct NetworkPlan {
    expr: String,
    kernel: Kernel,
    path: ContractionPath,
    report: SearchReport,
    pub(crate) steps: Vec<DenseStep>,
    /// Dimensions of each intermediate workspace slot.
    pub(crate) inter_dims: Vec<Vec<usize>>,
    /// User factors dense steps read: `(name, dims, network input slot)`,
    /// indexed by [`StepSrc::User`].
    pub(crate) step_users: Vec<(String, Vec<usize>)>,
    /// Dense-factor feed order of the collapsed kernel.
    pub(crate) collapsed_inputs: Vec<CollapsedInput>,
    pub(crate) plan: Arc<Plan>,
}

impl NetworkPlan {
    pub(crate) fn new(
        network: &Network,
        shapes: &Shapes,
        cache: Option<&PlanCache>,
        opts: &NetOptions,
    ) -> Result<Self> {
        let kernel = network.kernel(shapes)?;
        let sparse_names: Vec<String> = network.sparse_index_names();
        let profile = shapes.natural_profile(&sparse_names)?;
        let (path, report) = choose_path(&kernel, &profile, opts);

        let nterms = path.terms.len();
        let on_spine = spine_terms(&kernel, &path);

        // Lower off-spine terms to dense steps, in term (postorder)
        // order — children always precede their consumer.
        let mut inter_slot: Vec<Option<usize>> = vec![None; nterms];
        let mut inter_dims: Vec<Vec<usize>> = Vec::new();
        let mut step_users: Vec<(String, Vec<usize>)> = Vec::new();
        let mut steps: Vec<DenseStep> = Vec::new();
        let op_desc = |op: Operand| -> String {
            let name = match op {
                Operand::Input(i) => kernel.inputs[i].name.clone(),
                Operand::Inter(u) => format!("{INTER_PREFIX}{u}"),
            };
            let inds = operand_order(&kernel, &path, op);
            let names: Vec<&str> = inds.iter().map(|&i| kernel.index_name(i)).collect();
            format!("{name}({})", names.join(","))
        };
        for t in 0..nterms {
            if on_spine[t] {
                continue;
            }
            let term = &path.terms[t];
            let out_v = term.out_inds.to_vec();
            if out_v.is_empty() {
                return Err(SpttnError::Planning(format!(
                    "dense step {} contracts to a scalar; scalar intermediates \
                     are not supported",
                    op_desc(term.left)
                )));
            }
            let mut resolve = |op: Operand| -> StepSrc {
                match op {
                    Operand::Inter(u) => {
                        StepSrc::Inter(inter_slot[u].expect("child lowered first"))
                    }
                    Operand::Input(i) => {
                        let name = &kernel.inputs[i].name;
                        let dims = kernel.ref_dims(&kernel.inputs[i]);
                        let k = step_users
                            .iter()
                            .position(|(n, d)| n == name && *d == dims)
                            .unwrap_or_else(|| {
                                step_users.push((name.clone(), dims));
                                step_users.len() - 1
                            });
                        StepSrc::User(k)
                    }
                }
            };
            let canonical = term_loops(&kernel, &path, t);
            let flops = canonical
                .iter()
                .fold(2u128, |f, d| f.saturating_mul(d.extent as u128));
            let (loops, leaf) = lower(term, &canonical);
            let (left, right) = (resolve(term.left), resolve(term.right));
            let slot = inter_dims.len();
            inter_slot[t] = Some(slot);
            inter_dims.push(out_v.iter().map(|&i| kernel.dim(i)).collect());
            let out_names: Vec<&str> = out_v.iter().map(|&i| kernel.index_name(i)).collect();
            let desc = format!(
                "{} * {} -> {INTER_PREFIX}{t}({})",
                op_desc(term.left),
                op_desc(term.right),
                out_names.join(",")
            );
            steps.push(DenseStep {
                left,
                right,
                out_slot: slot,
                loops,
                leaf,
                flops,
                desc,
            });
        }

        // Collapse the spine into one SpTTN kernel: the sparse tensor
        // plus each spine term's non-sparse operand, bottom-up.
        let mut collapsed_refs: Vec<(String, Vec<IndexId>)> = vec![(
            kernel.inputs[kernel.sparse_input].name.clone(),
            kernel.inputs[kernel.sparse_input].indices.clone(),
        )];
        let mut collapsed_inputs: Vec<CollapsedInput> = Vec::new();
        for t in 0..nterms {
            if !on_spine[t] {
                continue;
            }
            let term = &path.terms[t];
            let other = if sparse_side(&kernel, &on_spine, term.left) {
                term.right
            } else {
                term.left
            };
            match other {
                Operand::Input(i) => {
                    collapsed_refs.push((
                        kernel.inputs[i].name.clone(),
                        kernel.inputs[i].indices.clone(),
                    ));
                    collapsed_inputs.push(CollapsedInput::User(kernel.inputs[i].name.clone()));
                }
                Operand::Inter(u) => {
                    let name = format!("{INTER_PREFIX}{u}");
                    collapsed_refs.push((name.clone(), path.terms[u].out_inds.to_vec()));
                    collapsed_inputs.push(CollapsedInput::Inter {
                        slot: inter_slot[u].expect("off-spine root lowered"),
                        name,
                    });
                }
            }
        }
        // Guards the single-kernel planner's search space.
        const MAX_COLLAPSED_INPUTS: usize = 8;
        if collapsed_refs.len() > MAX_COLLAPSED_INPUTS {
            return Err(SpttnError::Planning(format!(
                "the chosen order keeps {} tensors on the sparse spine, above the \
                 collapsed-kernel limit of {MAX_COLLAPSED_INPUTS}; restructure the network",
                collapsed_refs.len()
            )));
        }

        // Build the collapsed kernel with a fresh, compact index table
        // (only the indices the spine still sees).
        let mut b = KernelBuilder::new();
        for (_, inds) in &collapsed_refs {
            for &idx in inds {
                b = b.index(kernel.index_name(idx), kernel.dim(idx));
            }
        }
        let out_names: Vec<&str> = kernel
            .output
            .indices
            .iter()
            .map(|&i| kernel.index_name(i))
            .collect();
        b = b.output(&kernel.output.name, &out_names);
        for (name, inds) in &collapsed_refs {
            let names: Vec<&str> = inds.iter().map(|&i| kernel.index_name(i)).collect();
            b = b.input(name, &names);
        }
        if kernel.output_sparse {
            b = b.sparse_output();
        }
        let collapsed = b.build()?;

        let contraction =
            Contraction::from_kernel(collapsed).with_accumulate(network.is_accumulate());
        let plan = match cache {
            Some(c) => c.plan(contraction, shapes, &opts.plan)?,
            None => Arc::new(contraction.plan(shapes, &opts.plan)?),
        };

        Ok(NetworkPlan {
            expr: network.expr().to_string(),
            kernel,
            path,
            report,
            steps,
            inter_dims,
            step_users,
            collapsed_inputs,
            plan,
        })
    }

    /// The whole-network kernel (index table, operands, output).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The chosen contraction path over the network kernel.
    pub fn path(&self) -> &ContractionPath {
        &self.path
    }

    /// What the order search did and found.
    pub fn report(&self) -> &SearchReport {
        &self.report
    }

    /// The Sec. 5 plan of the collapsed sparse-spine kernel.
    pub fn kernel_plan(&self) -> &Arc<Plan> {
        &self.plan
    }

    /// Number of materialized dense-dense steps (zero when every factor
    /// sits on the sparse spine, e.g. MTTKRP/TTMc-shaped networks).
    pub fn num_dense_steps(&self) -> usize {
        self.steps.len()
    }

    /// Modeled flops of each dense step, in execution order.
    pub fn dense_step_flops(&self) -> Vec<u128> {
        self.steps.iter().map(|s| s.flops).collect()
    }

    /// Bytes of the materialized intermediates a bind holds — what
    /// admission charges beside the collapsed kernel's own workspace.
    pub fn intermediate_bytes(&self) -> u128 {
        self.inter_dims
            .iter()
            .map(|d| d.iter().fold(8u128, |b, &x| b.saturating_mul(x as u128)))
            .fold(0, u128::saturating_add)
    }

    /// A [`WorkspacePool`] shaped for this plan's intermediates. Share
    /// one pool (behind an `Arc`) across executors and threads to reuse
    /// intermediate sets via [`NetworkPlan::bind_pooled`].
    pub fn pool(&self) -> WorkspacePool {
        WorkspacePool {
            dims: self.inter_dims.clone(),
            free: Mutex::new(Vec::new()),
            created: AtomicU64::new(0),
            reused: AtomicU64::new(0),
        }
    }

    /// **Stage 2 — bind.** Attach the sparse tensor and named dense
    /// factors, by the kernel bind's rules ([`spttn::Plan::bind`]):
    /// admission first, then every dense factor of the network bound
    /// exactly once under a name it has. The intermediates come from a
    /// private [`WorkspacePool`] made after admission. The returned
    /// executor's `execute_into` is allocation-free after the first
    /// call.
    pub fn bind(&self, csf: Csf, factors: &[(&str, &DenseTensor)]) -> Result<NetworkExecutor> {
        NetworkExecutor::bind(self, None, csf, factors)
    }

    /// Like [`NetworkPlan::bind`], but the intermediate set is checked
    /// out of `pool` (and checked back in when the executor drops). The
    /// pool recycles only that set: every bind still clones each dense
    /// factor, spine-feeding intermediates included, into the collapsed
    /// kernel's executor, and every execute copies those intermediates
    /// into it again.
    pub fn bind_pooled(
        &self,
        pool: &Arc<WorkspacePool>,
        csf: Csf,
        factors: &[(&str, &DenseTensor)],
    ) -> Result<NetworkExecutor> {
        if pool.dims != self.inter_dims {
            return Err(SpttnError::Execution(
                "workspace pool was created for a different network plan".into(),
            ));
        }
        NetworkExecutor::bind(self, Some(pool), csf, factors)
    }

    /// Human-readable summary: order search, per-step lowering, and the
    /// collapsed kernel's plan.
    pub fn describe(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("network: {}\n", self.expr));
        s.push_str(&format!(
            "order:   modeled flops {} (greedy {}){}\n",
            self.report.chosen_flops,
            self.report.greedy_flops,
            if self.report.truncated {
                " [budget exhausted; greedy order used]"
            } else {
                ""
            }
        ));
        if !self.path.is_empty() {
            s.push_str(&format!("path:    {}\n", self.path.describe(&self.kernel)));
        }
        for (i, st) in self.steps.iter().enumerate() {
            s.push_str(&format!(
                "step {i}:  dense {} [{} flops]\n",
                st.desc, st.flops
            ));
        }
        s.push_str(&format!(
            "kernel:  {} tensors collapsed onto the sparse spine\n",
            self.collapsed_inputs.len() + 1
        ));
        s.push_str(&self.plan.describe());
        s
    }
}

/// A checkout/checkin pool of intermediate workspace sets, shaped for
/// one [`NetworkPlan`]. Thread-safe: wrap it in an `Arc` and hand it to
/// [`NetworkPlan::bind_pooled`] from any thread.
#[derive(Debug)]
pub struct WorkspacePool {
    dims: Vec<Vec<usize>>,
    free: Mutex<Vec<Vec<DenseTensor>>>,
    created: AtomicU64,
    reused: AtomicU64,
}

impl WorkspacePool {
    /// Lock the free list, recovering from poisoning: the list holds
    /// only complete workspace sets (push/pop are atomic with respect
    /// to the lock), so a thread that panicked while holding it cannot
    /// have left a half-updated invariant behind.
    fn free_list(&self) -> MutexGuard<'_, Vec<Vec<DenseTensor>>> {
        self.free.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Check a full workspace set out of the pool, allocating fresh
    /// tensors only when the free list is empty.
    pub fn checkout(&self) -> Vec<DenseTensor> {
        if let Some(set) = self.free_list().pop() {
            self.reused.fetch_add(1, Ordering::Relaxed);
            return set;
        }
        self.created.fetch_add(1, Ordering::Relaxed);
        self.dims.iter().map(|d| DenseTensor::zeros(d)).collect()
    }

    /// Return a workspace set for reuse. Sets whose shapes do not match
    /// the pool (from a different plan) are dropped instead of pooled.
    pub fn checkin(&self, set: Vec<DenseTensor>) {
        let matches = set.len() == self.dims.len()
            && set.iter().zip(&self.dims).all(|(t, d)| t.dims() == &d[..]);
        if matches {
            self.free_list().push(set);
        }
    }

    /// Workspace sets allocated fresh (pool misses).
    pub fn created(&self) -> u64 {
        self.created.load(Ordering::Relaxed)
    }

    /// Workspace sets served from the free list (pool hits).
    pub fn reused(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }

    /// Sets currently available for checkout.
    pub fn available(&self) -> usize {
        self.free_list().len()
    }
}

// Pools are shared across binding threads by design.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<WorkspacePool>();
};
