//! Stage 2 of the pipeline: bind operands to a symbolic [`Plan`] and
//! execute it repeatedly.
//!
//! An [`Executor`] owns the bound CSF sparse input, the dense factors
//! (slot-ordered) and a tile engine
//! ([`ParallelExecutor`]) holding the tape
//! compiled from the plan's nest and one preallocated [`Workspace`] per
//! tile with every Eq.-5 intermediate buffer — everything execution
//! touches except the caller's output. After [`Plan::bind`] returns,
//! [`Executor::execute_into`] performs **zero heap allocations**, and
//! the rebinding methods ([`Executor::set_factor`],
//! [`Executor::set_sparse_values`]) copy new values into the existing
//! allocations, which is exactly the shape of an ALS / HOOI sweep: plan
//! once, rebind factors each iteration, execute.
//!
//! There is one way down, whatever the plan's [`crate::ExecOptions`]
//! say: binding partitions the CSF root level into at most
//! `threads` leaf-balanced tiles; tile 0 runs on the calling thread and
//! accumulates straight into the caller's output, tiles 1… run on a
//! persistent worker pool into private partials that a deterministic
//! tree reduction adds afterwards. One thread is one tile: no worker
//! thread, no partial, no reduction — and the same cancellation, panic
//! isolation, stats and allocation contract as any other count. A fixed
//! thread count is bit-reproducible run to run and bind to bind.

use crate::contraction::Plan;
use crate::{Result, SpttnError};
use spttn_exec::{
    validate_output, validate_slotted_operands, CompiledTape, ContractionOutput, ExecStats,
    OutputMut, ParallelExecutor, RunGuard, TapeReport, Workspace,
};
use spttn_ir::Kernel;
use spttn_tensor::{CooTensor, Csf, DenseTensor};
use std::collections::HashMap;
use std::sync::Arc;

/// A thread count [`Plan::admit`] granted under the plan's budget. Only
/// `admit` makes one, so no bind skips the rule.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct Admission {
    threads: usize,
}

/// The one factor-name rule of every bind, stated once for
/// [`Plan::bind`] (against the plan's kernel) and `spttn-net`'s network
/// bind (against the whole network's kernel, before it collapses): every
/// dense input of `kernel` is bound exactly once, and no other name is
/// bound — a duplicate would silently shadow one binding, and an unknown
/// name would be dropped.
#[doc(hidden)]
pub fn check_factor_names(kernel: &Kernel, factors: &[(&str, &DenseTensor)]) -> Result<()> {
    let dense = || {
        (kernel.inputs.iter().enumerate())
            .filter(|&(slot, _)| slot != kernel.sparse_input)
            .map(|(_, r)| r.name.as_str())
    };
    for (pos, (name, _)) in factors.iter().enumerate() {
        if factors[..pos].iter().any(|(n, _)| n == name) {
            return Err(SpttnError::Execution(format!(
                "factor '{name}' bound twice; bind each name once"
            )));
        }
    }
    if let Some(name) = dense().find(|d| !factors.iter().any(|(n, _)| n == d)) {
        return Err(SpttnError::Execution(format!(
            "dense factor '{name}' not bound; pass (\"{name}\", &tensor) to bind"
        )));
    }
    if let Some((name, _)) = factors.iter().find(|(n, _)| !dense().any(|d| d == *n)) {
        return Err(SpttnError::Execution(format!(
            "bound factor '{name}' does not appear in the kernel"
        )));
    }
    Ok(())
}

impl Plan {
    /// Bind operands to this plan: the CSF sparse input (stored in the
    /// **expression's written index order**) and one dense tensor per
    /// distinct factor name. Shapes are validated here, once — the
    /// executor's hot path revalidates cheaply but never reallocates.
    ///
    /// When the plan chose a non-natural CSF storage order
    /// ([`Plan::mode_order`], e.g. under
    /// [`ModeOrderPolicy::Auto`](crate::cost::ModeOrderPolicy)), the
    /// incoming tree is re-sorted into that order here — a one-time
    /// counting-sort rebuild ([`Csf::reordered_with_perm`]), after which
    /// execution is as
    /// allocation-free as ever.
    ///
    /// The first step is budget admission ([`Plan::admit`]): a bind the
    /// plan's [`RunBudget`](crate::RunBudget) rejects returns
    /// [`SpttnError::BudgetExceeded`] having allocated nothing.
    pub fn bind(&self, csf: Csf, factors: &[(&str, &DenseTensor)]) -> Result<Executor> {
        let admitted = self.admit(0, &[])?;
        self.bind_admitted(admitted, csf, factors)
    }

    /// Budget admission, the one rule every bind passes first: the
    /// executed flops of [`Plan::work`] plus `extra_flops` against
    /// [`RunBudget::max_modeled_flops`](crate::RunBudget), then the
    /// bytes `8 · Plan::parallel_footprint(t)` plus 8 per element of the
    /// `extra_arrays` against
    /// [`RunBudget::max_workspace_bytes`](crate::RunBudget) at the
    /// largest thread count `t` up to the requested one that fits.
    /// Flops are structural — no thread count lowers them — so they gate
    /// first; workspace pressure sheds threads (and so tiles) down to
    /// one before it rejects, reporting the one-thread charge. An extra
    /// array, Eq.-5 buffer or dense output whose extents one allocation
    /// cannot address is refused with
    /// [`TensorError::TooLarge`](crate::tensor::TensorError).
    ///
    /// The `extra_*` charges are a caller's own beside the kernel's:
    /// `spttn-net` adds its dense steps and the extents of its
    /// intermediates, then binds through [`Plan::bind_admitted`].
    #[doc(hidden)]
    pub fn admit(&self, extra_flops: u128, extra_arrays: &[Vec<usize>]) -> Result<Admission> {
        let mut extra_bytes = 0u128;
        for dims in extra_arrays {
            extra_bytes += 8 * DenseTensor::checked_len(dims)? as u128;
        }
        let budget = self.exec.budget;
        let flops = self.work.executed_flops().saturating_add(extra_flops);
        if let Some(allowed) = budget.max_modeled_flops.filter(|&max| flops > max) {
            return Err(SpttnError::BudgetExceeded {
                resource: "modeled flops",
                predicted: flops,
                allowed,
            });
        }
        let mut threads = self.exec.threads.resolve();
        if let Some(allowed) = budget.max_workspace_bytes.map(u128::from) {
            let bytes = |t| {
                self.parallel_footprint(t)
                    .saturating_mul(8)
                    .saturating_add(extra_bytes)
            };
            while threads > 1 && bytes(threads) > allowed {
                threads -= 1;
            }
            if bytes(threads) > allowed {
                return Err(SpttnError::BudgetExceeded {
                    resource: "workspace bytes",
                    predicted: bytes(1),
                    allowed,
                });
            }
        }
        // Last, as the one check that allocates (the output's dims), so
        // a budget rejection allocates nothing.
        for b in &self.buffers {
            DenseTensor::checked_len(&b.dims)?;
        }
        if !self.kernel.output_sparse {
            DenseTensor::checked_len(&self.kernel.ref_dims(&self.kernel.output))?;
        }
        Ok(Admission { threads })
    }

    /// [`Plan::bind`] after its admission step: bind at the thread
    /// count `admitted` grants.
    #[doc(hidden)]
    pub fn bind_admitted(
        &self,
        admitted: Admission,
        csf: Csf,
        factors: &[(&str, &DenseTensor)],
    ) -> Result<Executor> {
        let kernel = &self.kernel;
        check_factor_names(kernel, factors)?;
        // One walk of the input slots: slot-ordered factors (the sparse
        // slot holds an unread scalar placeholder; a name filling
        // several slots is cloned into each) and the slots of each name.
        let mut slotted: Vec<DenseTensor> = Vec::with_capacity(kernel.inputs.len());
        let mut slots_by_name: HashMap<String, Vec<usize>> = HashMap::new();
        for (slot, r) in kernel.inputs.iter().enumerate() {
            if slot == kernel.sparse_input {
                slotted.push(DenseTensor::zeros(&[]));
                continue;
            }
            let (_, t) = factors
                .iter()
                .find(|(name, _)| *name == r.name)
                .expect("check_factor_names binds every dense input");
            slotted.push((*t).clone());
            slots_by_name.entry(r.name.clone()).or_default().push(slot);
        }
        let (csf, leaf_perm) = self.reorder_csf(csf)?;
        validate_slotted_operands(kernel, &csf, &slotted)?;
        let (tape, _) = self.verified_tape()?;
        let engine = ParallelExecutor::new(
            kernel,
            &self.path,
            &self.forest,
            &self.buffers,
            Arc::new(tape),
            &csf,
            admitted.threads,
        );
        // A pattern-sharing output carries the CSF's entries in leaf
        // order, shaped as the output is written: its mode `p` is the
        // tensor mode stored at the level of the output's `p`-th index.
        let coo_template = if kernel.output_sparse {
            let modes: Vec<usize> = kernel
                .output
                .indices
                .iter()
                .map(|&i| csf.mode_order()[kernel.sparse_level(i).expect("pattern index")])
                .collect();
            Some(csf.to_coo().permuted_modes(&modes)?)
        } else {
            None
        };
        Ok(Executor {
            plan: self.clone(),
            csf,
            factors: slotted,
            slots_by_name,
            engine,
            leaf_perm,
            coo_template,
        })
    }

    /// Compile this plan's nest to an instruction tape and statically
    /// verify it without binding any data — the `spttn plan --verify`
    /// path. Returns the proof summary on success; a malformed program
    /// surfaces as an execution error naming the violated invariant.
    ///
    /// Every [`Plan::bind`] performs the same check, so calling this is
    /// only needed to verify a plan that will not be bound here — e.g.
    /// file-less planning.
    pub fn verify_tape(&self) -> Result<TapeReport> {
        self.verified_tape().map(|(_, report)| report)
    }

    /// Compile this plan's nest to its instruction tape and prove it
    /// well-formed (O(program size)) — the one compile-and-verify step
    /// of [`Plan::verify_tape`] and every bind, so no bound program runs
    /// unproven. Compiling resolves the plan's microkernel policy
    /// against the host CPU (and the `SPTTN_MICROKERNELS` override); the
    /// selected kernels ride in the tape as fn pointers, and every tile
    /// runs the one immutable tape.
    fn verified_tape(&self) -> Result<(CompiledTape, TapeReport)> {
        let tape = CompiledTape::compile_with(
            &self.kernel,
            &self.path,
            &self.forest,
            &self.buffers,
            self.exec.microkernels,
        )?;
        let report = tape.verify()?;
        Ok((tape, report))
    }

    /// Re-sort an incoming written-order CSF into the plan's chosen
    /// storage order (no-op for natural-order plans). Returns the
    /// rebuilt tree plus, when a rebuild happened, the leaf
    /// permutation: entry `e` of the *incoming* tree's leaf order lands
    /// at leaf `perm[e]` of the rebuilt tree —
    /// [`Executor::set_sparse_values`] scatters through it so callers
    /// keep addressing values in the order of the CSF they bound.
    ///
    /// The contract: the caller's CSF level `l` holds the sparse index
    /// written at position `l` of the expression, whatever original COO
    /// modes those levels carry. The plan's level `l` wants written
    /// position `mode_order[l]`, i.e. the caller's level
    /// `mode_order[l]` — so the rebuilt tree's original-mode order is
    /// the composition below.
    fn reorder_csf(&self, csf: Csf) -> Result<(Csf, Option<Vec<usize>>)> {
        if self.is_natural_order() {
            return Ok((csf, None));
        }
        if csf.order() != self.mode_order.len() {
            return Err(SpttnError::Shape(format!(
                "sparse tensor has {} modes but the plan's sparse input has {}",
                csf.order(),
                self.mode_order.len()
            )));
        }
        let new_order: Vec<usize> = self
            .mode_order
            .iter()
            .map(|&p| csf.mode_order()[p])
            .collect();
        let (rebuilt, leaf_perm) = csf.reordered_with_perm(&new_order)?;
        Ok((rebuilt, Some(leaf_perm)))
    }
}

/// A plan bound to operands, ready for repeated execution.
///
/// See the [module docs](self) for the allocation contract and the
/// rebinding workflow.
#[derive(Debug)]
pub struct Executor {
    plan: Plan,
    csf: Csf,
    /// Slot-ordered dense factors; the sparse slot holds an unread
    /// scalar placeholder.
    factors: Vec<DenseTensor>,
    /// Input slots each factor name fills (for [`Executor::set_factor`]).
    slots_by_name: HashMap<String, Vec<usize>>,
    /// The tile engine: the bind-time-compiled tape (one immutable
    /// program shared by every executing thread), one workspace per
    /// tile, the partials and worker pool of tiles 1…, and the stats of
    /// the most recent run. One tile when the admitted thread count is
    /// 1 or the tensor does not split.
    engine: ParallelExecutor,
    /// When the plan chose a non-natural storage order: maps leaf `e`
    /// of the CSF the caller bound to leaf `leaf_perm[e]` of the
    /// rebuilt tree, so [`Executor::set_sparse_values`] keeps accepting
    /// values in the caller's leaf order. `None` on natural-order plans
    /// (identity mapping).
    leaf_perm: Option<Vec<usize>>,
    /// Coordinate template for materializing pattern-sharing outputs.
    coo_template: Option<CooTensor>,
}

impl Executor {
    /// The symbolic plan this executor runs.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The bound sparse input.
    pub fn csf(&self) -> &Csf {
        &self.csf
    }

    /// The preallocated workspaces, one per tile (exposed so callers can
    /// assert buffer stability across executions).
    pub fn workspaces(&self) -> &[Workspace] {
        self.engine.workspaces()
    }

    /// Number of threads executions actually use: the engine's tile
    /// count, the caller's thread included.
    pub fn threads(&self) -> usize {
        self.engine.n_tiles()
    }

    /// The compiled instruction tape executions run (exposed for
    /// diagnostics: program size, cursor count, selected
    /// microkernels).
    pub fn tape(&self) -> &CompiledTape {
        self.engine.tape()
    }

    /// Microkernel dispatch counters of the most recent
    /// [`Executor::execute`] / [`Executor::execute_into`], aggregated
    /// across all executing threads. Zeros before the first execution.
    pub fn last_stats(&self) -> ExecStats {
        self.engine.stats()
    }

    /// The first bound tensor for a factor name, if any.
    pub fn factor(&self, name: &str) -> Option<&DenseTensor> {
        let slot = *self.slots_by_name.get(name)?.first()?;
        Some(&self.factors[slot])
    }

    /// A zeroed output with the correct shape for
    /// [`Executor::execute_into`]: a dense tensor, or a pattern-sharing
    /// sparse tensor with the CSF's entries in leaf order and its modes
    /// in the output's written order.
    pub fn output_template(&self) -> ContractionOutput {
        match &self.coo_template {
            Some(coo) => ContractionOutput::Sparse(coo.with_vals(vec![0.0; self.csf.nnz()])),
            None => ContractionOutput::Dense(DenseTensor::zeros(
                &self.plan.kernel.ref_dims(&self.plan.kernel.output),
            )),
        }
    }

    /// Execute into a caller-owned output with **zero heap allocation**.
    ///
    /// For a plain `=` plan the output is zeroed first; for a `+=` plan
    /// (see [`crate::Contraction::with_accumulate`]) the contraction is
    /// accumulated on top of the output's existing values.
    ///
    /// When the plan's [`crate::ExecOptions`] carry a cancel token or a
    /// deadline, every tile checks them at its root-subtree boundaries
    /// and the run stops with [`SpttnError::Cancelled`]; a panic inside
    /// any tile, the caller's included, stops it with
    /// [`SpttnError::WorkerPanic`] instead of unwinding. Tile 0 writes
    /// straight into `out` at every thread count, so a stopped run
    /// leaves it holding an unspecified part of the result. The
    /// executor itself keeps no state from the stopped run: calling
    /// `execute_into` again on a `=` plan (which re-zeroes `out`) gives
    /// exactly the result of a fresh executor; for a `+=` plan restore
    /// the values `out` held before the stopped call first.
    pub fn execute_into(&mut self, out: &mut ContractionOutput) -> Result<()> {
        // The deadline clock starts here, at the execution boundary —
        // not at bind.
        let guard = self.plan.exec.guard();
        self.execute_into_guarded(out, &guard)
    }

    /// [`Executor::execute_into`] under a caller-supplied [`RunGuard`]
    /// instead of one built from the plan's options — the hook
    /// `spttn-net` uses to share one network-wide deadline across every
    /// contraction step.
    ///
    /// `out` is checked before it is zeroed, so an output this plan
    /// refuses — the wrong kind or dims, or a sparse output whose
    /// coordinates are not the bound CSF's — is left untouched.
    pub fn execute_into_guarded(
        &mut self,
        out: &mut ContractionOutput,
        guard: &RunGuard,
    ) -> Result<()> {
        let Executor {
            plan,
            csf,
            factors,
            engine,
            coo_template,
            ..
        } = self;
        let kernel = &plan.kernel;
        let mut target = match out {
            ContractionOutput::Dense(d) => OutputMut::Dense(d),
            ContractionOutput::Sparse(c) => {
                // A pattern-sharing output must carry *exactly* the
                // bound CSF's coordinates in leaf order and the output's
                // written mode order — same nnz with different
                // coordinates would silently pair values with the wrong
                // positions. Cheap memcmp, no allocation.
                if let Some(template) = coo_template {
                    if c.dims() != template.dims() {
                        return Err(SpttnError::Shape(format!(
                            "sparse output has dims {:?}, the plan's output has {:?}",
                            c.dims(),
                            template.dims()
                        )));
                    }
                    if c.coords() != template.coords() {
                        return Err(SpttnError::Shape(
                            "sparse output's coordinate pattern differs from the bound CSF; \
                             start from Executor::output_template()"
                                .into(),
                        ));
                    }
                }
                OutputMut::Sparse(c.vals_mut())
            }
        };
        validate_output(kernel, &target, csf.nnz())?;
        if !plan.accumulate {
            match &mut target {
                OutputMut::Dense(d) => d.fill_zero(),
                OutputMut::Sparse(v) => v.fill(0.0),
            }
        }
        engine.execute_into(kernel, csf, factors, target, Some(guard))
    }

    /// Execute and return a freshly materialized output (always `=`
    /// semantics: the result starts from zero). Allocates only for the
    /// returned value; prefer [`Executor::execute_into`] in hot loops.
    pub fn execute(&mut self) -> Result<ContractionOutput> {
        let mut out = self.output_template();
        self.execute_into(&mut out)?;
        Ok(out)
    }

    /// Rebind a dense factor's values in place (every slot the name
    /// fills). The new tensor must match the bound shape exactly; no
    /// reallocation happens.
    pub fn set_factor(&mut self, name: &str, tensor: &DenseTensor) -> Result<()> {
        let Executor {
            factors,
            slots_by_name,
            ..
        } = self;
        let slots = slots_by_name.get(name).ok_or_else(|| {
            SpttnError::Execution(format!("no dense factor named '{name}' in this plan"))
        })?;
        for &slot in slots {
            if factors[slot].dims() != tensor.dims() {
                return Err(SpttnError::Shape(format!(
                    "factor '{name}' has dims {:?}, executor expects {:?}",
                    tensor.dims(),
                    factors[slot].dims()
                )));
            }
        }
        for &slot in slots {
            factors[slot]
                .as_mut_slice()
                .copy_from_slice(tensor.as_slice());
        }
        Ok(())
    }

    /// Rebind the sparse input's nonzero values in place, given in the
    /// leaf order of the CSF that was passed to [`Plan::bind`]. When
    /// the plan chose a different storage order and bind re-sorted the
    /// tree, the values are scattered through the recorded leaf
    /// permutation — callers never need to know the internal order.
    /// The sparsity *pattern* is fixed at bind time — only same-pattern
    /// value updates are cheap; a new pattern needs a fresh
    /// [`Plan::bind`].
    pub fn set_sparse_values(&mut self, vals: &[f64]) -> Result<()> {
        if vals.len() != self.csf.nnz() {
            return Err(SpttnError::Shape(format!(
                "got {} sparse values, the bound CSF has {} nonzeros",
                vals.len(),
                self.csf.nnz()
            )));
        }
        // The COO template's values are never read — it only donates its
        // coordinates (`with_vals` replaces values) — so only the CSF
        // needs updating.
        match &self.leaf_perm {
            None => self.csf.vals_mut().copy_from_slice(vals),
            Some(perm) => {
                let dst = self.csf.vals_mut();
                for (old, &v) in vals.iter().enumerate() {
                    dst[perm[old]] = v;
                }
            }
        }
        Ok(())
    }

    /// Human-readable summary of the underlying plan.
    pub fn describe(&self) -> String {
        self.plan.describe()
    }
}

// Pooling contract: executors are checked out of a pool on one thread
// and executed on another (`spttn-net` routes intermediates this way),
// so `Executor` must stay `Send`. The worker pool inside the engine
// owns its threads and shares state only through `Mutex`/`Condvar`;
// this assertion turns any future non-`Send` field into a compile
// error instead of a downstream breakage.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Executor>();
};
