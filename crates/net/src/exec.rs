//! Bound network execution: dense stride-walk steps feeding a single
//! collapsed SpTTN kernel, allocation-free in steady state.

use std::collections::HashMap;
use std::sync::Arc;

use spttn::tensor::{Csf, DenseTensor};
use spttn::{ContractionOutput, ExecStats, Executor, Result, RunGuard, SpttnError};

use crate::plan::{CollapsedInput, DenseStep, LoopDim, NetworkPlan, StepSrc, WorkspacePool};

/// Where a user factor's data flows on [`NetworkExecutor::set_factor`].
#[derive(Debug, Clone, Default)]
struct Route {
    /// The factor feeds the collapsed kernel directly.
    kernel: bool,
    /// Executor-owned copies consumed by dense steps.
    dense: Vec<usize>,
}

/// A [`NetworkPlan`] bound to operands, ready for repeated execution.
///
/// `execute_into` runs every dense step into its preallocated
/// intermediate, pushes the spine-feeding intermediates into the inner
/// kernel executor's factor slots (a copy, no allocation), and executes
/// the collapsed kernel — zero heap allocations after the first call.
/// Executors are `Send`: bind on one thread, execute on another, and
/// pool the intermediate workspaces across threads via
/// [`NetworkPlan::bind_pooled`].
#[derive(Debug)]
pub struct NetworkExecutor {
    exec: Executor,
    steps: Vec<DenseStep>,
    inters: Vec<DenseTensor>,
    dense_inputs: Vec<DenseTensor>,
    /// `(workspace slot, kernel factor name)` pairs pushed into the
    /// inner executor before every kernel run.
    feeds: Vec<(usize, String)>,
    routes: HashMap<String, Route>,
    pool: Option<Arc<WorkspacePool>>,
    dense_flops: u128,
    /// True while an execution is in flight (set on entry, cleared on
    /// success): an early exit — error or cancellation — leaves the
    /// intermediates partially written, and [`Drop`] must scrub them
    /// before any pool checkin so a later checkout never receives a
    /// half-computed workspace as clean.
    dirty: bool,
}

impl NetworkExecutor {
    pub(crate) fn bind(
        plan: &NetworkPlan,
        pool: Option<Arc<WorkspacePool>>,
        csf: Csf,
        factors: &[(&str, &DenseTensor)],
    ) -> Result<Self> {
        let mut fmap: HashMap<&str, &DenseTensor> = HashMap::new();
        for (name, t) in factors {
            fmap.insert(name, t);
        }
        // Validate every network factor up front, whether it feeds a
        // dense step, the collapsed kernel, or both.
        let kernel = plan.kernel();
        let mut routes: HashMap<String, Route> = HashMap::new();
        for (slot, r) in kernel.inputs.iter().enumerate() {
            if slot == kernel.sparse_input {
                continue;
            }
            let t = fmap.get(r.name.as_str()).ok_or_else(|| {
                SpttnError::Execution(format!(
                    "network factor '{}' was not supplied at bind",
                    r.name
                ))
            })?;
            let want = kernel.ref_dims(r);
            if t.dims() != want.as_slice() {
                return Err(SpttnError::Shape(format!(
                    "factor '{}' has dims {:?}, the network needs {:?}",
                    r.name,
                    t.dims(),
                    want
                )));
            }
            routes.entry(r.name.clone()).or_default();
        }

        // Bind-time admission of the network-wide budget (carried by
        // the collapsed kernel's `ExecOptions`). Flops are the dense
        // steps plus what the kernel's chosen nest executes
        // (`Plan::flops`); workspace bytes are
        // the intermediates plus the kernel's serial one-thread floor
        // (the inner `Plan::bind` degrades its own thread count below
        // that bound). Both gates run before any workspace is checked
        // out of the pool, so a rejected bind touches nothing.
        let opts = plan.plan.exec();
        let dense_flops = plan
            .steps
            .iter()
            .map(|s| s.flops)
            .fold(0u128, u128::saturating_add);
        if let Some(max) = opts.budget.max_modeled_flops {
            let predicted = dense_flops.saturating_add(plan.plan.flops);
            if predicted > max {
                return Err(SpttnError::BudgetExceeded {
                    resource: "modeled flops",
                    predicted,
                    allowed: max,
                });
            }
        }
        if let Some(max) = opts.budget.max_workspace_bytes {
            let inter_bytes: u128 = plan
                .inter_dims
                .iter()
                .map(|d| {
                    d.iter()
                        .map(|&x| x as u128)
                        .product::<u128>()
                        .saturating_mul(8)
                })
                .fold(0, u128::saturating_add);
            let predicted =
                inter_bytes.saturating_add(plan.plan.parallel_footprint(1).saturating_mul(8));
            if predicted > u128::from(max) {
                return Err(SpttnError::BudgetExceeded {
                    resource: "workspace bytes",
                    predicted,
                    allowed: u128::from(max),
                });
            }
        }

        // Dense-step-only factors never reach the collapsed kernel, so
        // the input-slot validation above does not cover them — resolve
        // with a typed error, not an assumption.
        let mut dense_inputs: Vec<DenseTensor> = Vec::with_capacity(plan.step_users.len());
        for (name, _) in &plan.step_users {
            let t = fmap.get(name.as_str()).ok_or_else(|| {
                SpttnError::Execution(format!("network factor '{name}' was not supplied at bind"))
            })?;
            dense_inputs.push((*t).clone());
        }
        for (k, (name, _)) in plan.step_users.iter().enumerate() {
            routes.entry(name.clone()).or_default().dense.push(k);
        }

        let inters: Vec<DenseTensor> = match &pool {
            Some(p) => p.checkout(),
            None => plan
                .inter_dims
                .iter()
                .map(|d| DenseTensor::zeros(d))
                .collect(),
        };

        let mut feeds: Vec<(usize, String)> = Vec::new();
        let mut refs: Vec<(&str, &DenseTensor)> = Vec::new();
        for ci in &plan.collapsed_inputs {
            match ci {
                CollapsedInput::User(name) => {
                    routes.entry(name.clone()).or_default().kernel = true;
                    if !refs.iter().any(|(n, _)| *n == name.as_str()) {
                        refs.push((name.as_str(), fmap[name.as_str()]));
                    }
                }
                CollapsedInput::Inter { slot, name } => {
                    feeds.push((*slot, name.clone()));
                    refs.push((name.as_str(), &inters[*slot]));
                }
            }
        }
        let exec = plan.plan.bind(csf, &refs)?;
        Ok(NetworkExecutor {
            exec,
            steps: plan.steps.clone(),
            inters,
            dense_inputs,
            feeds,
            routes,
            pool,
            dense_flops,
            dirty: false,
        })
    }

    /// Run the full network into a caller-owned output (start from
    /// [`NetworkExecutor::output_template`]). Allocation-free after the
    /// first call.
    ///
    /// A cancel token or deadline on the collapsed kernel's
    /// [`spttn::ExecOptions`] guards the whole network run: the shared
    /// deadline clock starts here, execution checks it before every
    /// dense step and at the kernel's root-subtree boundaries, and an
    /// expiry returns [`SpttnError::Cancelled`] with phase `"network"`
    /// (between steps) or the kernel's own phase. On any early exit the
    /// intermediates are marked dirty and scrubbed before pool checkin.
    pub fn execute_into(&mut self, out: &mut ContractionOutput) -> Result<()> {
        let opts = self.exec.plan().exec();
        // One guard for the whole network execution: the kernel run at
        // the end shares the same deadline instant as the dense steps.
        let guard = RunGuard::new(opts.cancel, opts.deadline);
        self.dirty = true;
        for step in &self.steps {
            guard.check("network")?;
            // Split the output workspace out of `inters` so the borrows
            // of an `Inter` operand and the output never alias: a
            // step's operands occupy strictly earlier slots (postorder
            // lowering), so they sit left of the split.
            let (before, rest) = self.inters.split_at_mut(step.out_slot);
            let dst = rest[0].as_mut_slice();
            dst.fill(0.0);
            let l = match step.left {
                StepSrc::User(k) => self.dense_inputs[k].as_slice(),
                StepSrc::Inter(s) => before[s].as_slice(),
            };
            let r = match step.right {
                StepSrc::User(k) => self.dense_inputs[k].as_slice(),
                StepSrc::Inter(s) => before[s].as_slice(),
            };
            run_loops(&step.loops, l, r, dst, 0, 0, 0);
        }
        guard.check("network")?;
        for (slot, name) in &self.feeds {
            self.exec.set_factor(name, &self.inters[*slot])?;
        }
        self.exec.execute_into_guarded(out, Some(&guard))?;
        self.dirty = false;
        Ok(())
    }

    /// Convenience wrapper: allocate a fresh output and execute.
    pub fn execute(&mut self) -> Result<ContractionOutput> {
        let mut out = self.output_template();
        self.execute_into(&mut out)?;
        Ok(out)
    }

    /// An output container shaped for this network (dense zeros, or the
    /// sparse pattern for pattern-sharing outputs).
    pub fn output_template(&self) -> ContractionOutput {
        self.exec.output_template()
    }

    /// Replace a dense factor's values by name, copying into every
    /// consumer (dense steps and/or the collapsed kernel) without
    /// allocating. Dimensions must match the bind.
    pub fn set_factor(&mut self, name: &str, tensor: &DenseTensor) -> Result<()> {
        let route = self.routes.get(name).ok_or_else(|| {
            SpttnError::Execution(format!("'{name}' is not a dense factor of this network"))
        })?;
        for &k in &route.dense {
            if self.dense_inputs[k].dims() != tensor.dims() {
                return Err(SpttnError::Shape(format!(
                    "factor '{}' has dims {:?}, the network needs {:?}",
                    name,
                    tensor.dims(),
                    self.dense_inputs[k].dims()
                )));
            }
            self.dense_inputs[k]
                .as_mut_slice()
                .copy_from_slice(tensor.as_slice());
        }
        if route.kernel {
            self.exec.set_factor(name, tensor)?;
        }
        Ok(())
    }

    /// Replace the sparse tensor's values in place (same pattern).
    pub fn set_sparse_values(&mut self, vals: &[f64]) -> Result<()> {
        self.exec.set_sparse_values(vals)
    }

    /// Execution statistics of the collapsed kernel's last run.
    pub fn kernel_stats(&self) -> ExecStats {
        self.exec.last_stats()
    }

    /// Modeled flops of the dense steps per execution (the kernel's
    /// measured ops come from [`NetworkExecutor::kernel_stats`]).
    pub fn dense_step_flops(&self) -> u128 {
        self.dense_flops
    }

    /// Number of materialized dense steps per execution.
    pub fn num_dense_steps(&self) -> usize {
        self.steps.len()
    }

    /// Worker threads the collapsed kernel executes on.
    pub fn threads(&self) -> usize {
        self.exec.threads()
    }

    /// Human-readable summary of the bound plan.
    pub fn describe(&self) -> String {
        self.exec.describe()
    }
}

impl Drop for NetworkExecutor {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            let mut set = std::mem::take(&mut self.inters);
            // An execution that erred or was cancelled left these
            // partially written; zero them so the pool never hands a
            // half-computed workspace to the next checkout as clean.
            if self.dirty {
                for t in &mut set {
                    t.fill_zero();
                }
            }
            pool.checkin(set);
        }
    }
}

/// Recursive stride walk: outer loops advance precomputed offsets, the
/// innermost level does `out[o] += l[lo] * r[ro]`. No temporaries, no
/// allocation, no data-dependent control flow.
fn run_loops(
    loops: &[LoopDim],
    l: &[f64],
    r: &[f64],
    out: &mut [f64],
    lo: usize,
    ro: usize,
    oo: usize,
) {
    match loops.split_first() {
        None => out[oo] += l[lo] * r[ro],
        Some((d, rest)) => {
            let (mut lo, mut ro, mut oo) = (lo, ro, oo);
            for _ in 0..d.extent {
                run_loops(rest, l, r, out, lo, ro, oo);
                lo += d.l;
                ro += d.r;
                oo += d.o;
            }
        }
    }
}

// The pooling contract: bind on one thread, execute on another.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<NetworkExecutor>();
};
