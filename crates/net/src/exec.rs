//! Bound network execution: dense steps on bind-time microkernels
//! feeding a single collapsed SpTTN kernel, allocation-free in steady
//! state.
//!
//! A [`crate::plan::DenseStep`] arrives with its loops ordered and its
//! [`LeafOp`] named by the tape's own lowering rule (`plan.rs`). Binding
//! draws that leaf's microkernel from the table the collapsed kernel's
//! tape was compiled with — one [`KernelSet`] resolution per bind, the
//! plan's `ExecOptions::microkernels`, environment override and host
//! detection included — and stores the function pointer in the step;
//! executing is an iterative odometer over the outer loops with one
//! microkernel call per trip. So dense steps honour
//! `--microkernels scalar` / `SPTTN_MICROKERNELS=scalar` (bitwise the
//! scalar stride walk kept in this file's tests) and the run's
//! [`RunGuard`], which the walk consults about every [`CHECK_LANES`]
//! lanes.
//!
//! A bind follows the kernel bind's rules. Admission is the collapsed
//! kernel's ([`spttn::Plan::admit`]): a bind hands it the dense steps'
//! flops and the intermediates' extents before it touches anything.
//! Factor names follow [`spttn::check_factor_names`], checked against the
//! whole network's kernel.

use std::collections::HashMap;
use std::sync::Arc;

use spttn::exec::simd::{AxpyFn, XmulFn};
use spttn::exec::KernelSet;
use spttn::ir::{LeafOp, Side};
use spttn::tensor::{Csf, DenseTensor};
use spttn::{ContractionOutput, ExecStats, Executor, Result, RunGuard, SpttnError};

use crate::plan::{CollapsedInput, DenseStep, LoopDim, NetworkPlan, StepSrc, WorkspacePool};

/// Vector lanes a dense step runs between two guard checks (a check is
/// an atomic load and, under a deadline, a clock read).
const CHECK_LANES: usize = 1 << 16;

/// A step's leaf with its microkernel resolved.
#[derive(Debug, Clone, Copy)]
enum LeafCall {
    /// AXPY along the operand on this side, scaled by the other's
    /// element.
    Axpy(AxpyFn, Side),
    Xmul(XmulFn),
}

/// A [`DenseStep`] bound to its microkernel.
#[derive(Debug)]
struct BoundStep {
    left: StepSrc,
    right: StepSrc,
    out_slot: usize,
    /// The loops around the vector loop, outermost first.
    outer: Vec<LoopDim>,
    /// The vector loop and the microkernel that runs it.
    vec: LoopDim,
    call: LeafCall,
    /// Odometer over `outer`, preallocated so the walk never allocates.
    trip: Vec<usize>,
    /// Leaf calls between guard checks ([`CHECK_LANES`] lanes).
    check_every: usize,
    /// Some extent is zero: the output stays zero-filled.
    empty: bool,
}

impl BoundStep {
    fn bind(step: &DenseStep, ks: &KernelSet) -> BoundStep {
        let (&vec, outer) = step.loops.split_last().expect("a step has a vector loop");
        let call = match step.leaf {
            LeafOp::Axpy { vec: side } => {
                let inc = match side {
                    Side::Left => vec.l,
                    Side::Right => vec.r,
                };
                let contiguous = inc == 1 && vec.o == 1;
                LeafCall::Axpy(ks.axpy(vec.extent, contiguous, None).0, side)
            }
            LeafOp::Xmul => LeafCall::Xmul(ks.xmul()),
            op => unreachable!("a vector loop runs an output index, never {op:?}"),
        };
        BoundStep {
            left: step.left,
            right: step.right,
            out_slot: step.out_slot,
            outer: outer.to_vec(),
            vec,
            call,
            trip: vec![0; outer.len()],
            check_every: (CHECK_LANES / vec.extent.max(1)).max(1),
            empty: step.flops == 0,
        }
    }

    /// Accumulate the step into `out`: an odometer over the outer
    /// loops, innermost digit fastest, one leaf call per trip.
    fn run(&mut self, l: &[f64], r: &[f64], out: &mut [f64], guard: &RunGuard) -> Result<()> {
        if self.empty {
            return Ok(());
        }
        let check_every = if guard.is_noop() {
            usize::MAX
        } else {
            self.check_every
        };
        let mut until_check = check_every;
        let v = self.vec;
        let (mut lo, mut ro, mut oo) = (0, 0, 0);
        self.trip.fill(0);
        loop {
            let (l, r, out) = (&l[lo..], &r[ro..], &mut out[oo..]);
            match self.call {
                LeafCall::Axpy(kern, Side::Left) => kern(v.extent, r[0], l, v.l, out, v.o),
                LeafCall::Axpy(kern, Side::Right) => kern(v.extent, l[0], r, v.r, out, v.o),
                LeafCall::Xmul(kern) => kern(v.extent, 1.0, l, v.l, r, v.r, out, v.o),
            }
            let mut d = self.outer.len();
            loop {
                if d == 0 {
                    return Ok(());
                }
                d -= 1;
                let dim = self.outer[d];
                self.trip[d] += 1;
                if self.trip[d] < dim.extent {
                    lo += dim.l;
                    ro += dim.r;
                    oo += dim.o;
                    break;
                }
                self.trip[d] = 0;
                lo -= dim.l * (dim.extent - 1);
                ro -= dim.r * (dim.extent - 1);
                oo -= dim.o * (dim.extent - 1);
            }
            until_check -= 1;
            if until_check == 0 {
                guard.check("network")?;
                until_check = check_every;
            }
        }
    }
}

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
    steps: Vec<BoundStep>,
    inters: Vec<DenseTensor>,
    dense_inputs: Vec<DenseTensor>,
    /// `(workspace slot, kernel factor name)` pairs pushed into the
    /// inner executor before every kernel run.
    feeds: Vec<(usize, String)>,
    routes: HashMap<String, Route>,
    /// Where `inters` came from and returns on drop: the pool of
    /// [`NetworkPlan::bind_pooled`], or a private one.
    pool: Arc<WorkspacePool>,
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
        pool: Option<&Arc<WorkspacePool>>,
        csf: Csf,
        factors: &[(&str, &DenseTensor)],
    ) -> Result<Self> {
        // Admission first, by the collapsed kernel's rule: the dense
        // steps and the intermediates ride on its own charge, so a bind
        // the budget rejects allocates nothing.
        let dense_flops = plan
            .steps
            .iter()
            .map(|s| s.flops)
            .fold(0u128, u128::saturating_add);
        let admitted = plan.plan.admit(dense_flops, &plan.inter_dims)?;

        // The kernel bind's name rule, against the whole network: every
        // lookup below finds its factor.
        let kernel = plan.kernel();
        spttn::check_factor_names(kernel, factors)?;
        let fmap: HashMap<&str, &DenseTensor> = factors.iter().copied().collect();
        // Validate every network factor up front, whether it feeds a
        // dense step, the collapsed kernel, or both.
        let mut routes: HashMap<String, Route> = HashMap::new();
        for (slot, r) in kernel.inputs.iter().enumerate() {
            if slot == kernel.sparse_input {
                continue;
            }
            let t = fmap[r.name.as_str()];
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
        let mut dense_inputs: Vec<DenseTensor> = Vec::with_capacity(plan.step_users.len());
        for (k, (name, _)) in plan.step_users.iter().enumerate() {
            dense_inputs.push(fmap[name.as_str()].clone());
            routes.entry(name.clone()).or_default().dense.push(k);
        }

        // An unpooled bind draws its set from a private pool, made only
        // now so a rejected bind allocates nothing.
        let pool = pool.map_or_else(|| Arc::new(plan.pool()), Arc::clone);
        let inters = pool.checkout();

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
        let exec = plan.plan.bind_admitted(admitted, csf, &refs)?;
        let kernels = exec.tape().kernels();
        let steps = plan
            .steps
            .iter()
            .map(|s| BoundStep::bind(s, kernels))
            .collect();
        Ok(NetworkExecutor {
            exec,
            steps,
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
    /// dense step, about every 64k lanes inside one (never
    /// inside a microkernel call) and at the kernel's root-subtree
    /// boundaries, and an expiry returns [`SpttnError::Cancelled`] with
    /// phase `"network"` (in or between steps) or the kernel's own
    /// phase. On any early exit the intermediates are marked dirty and
    /// scrubbed before pool checkin.
    pub fn execute_into(&mut self, out: &mut ContractionOutput) -> Result<()> {
        // One guard for the whole network execution: the kernel run at
        // the end shares the same deadline instant as the dense steps.
        let guard = self.exec.plan().exec().guard();
        self.dirty = true;
        self.run_dense_steps(&guard)?;
        guard.check("network")?;
        for (slot, name) in &self.feeds {
            self.exec.set_factor(name, &self.inters[*slot])?;
        }
        self.exec.execute_into_guarded(out, &guard)?;
        self.dirty = false;
        Ok(())
    }

    /// The dense steps alone, into the intermediates — the part of
    /// [`NetworkExecutor::execute_into`] before the collapsed kernel,
    /// under the same guard. For benches that time the steps directly.
    #[doc(hidden)]
    pub fn execute_dense_steps(&mut self) -> Result<()> {
        let guard = self.exec.plan().exec().guard();
        self.dirty = true;
        self.run_dense_steps(&guard)?;
        self.dirty = false;
        Ok(())
    }

    fn run_dense_steps(&mut self, guard: &RunGuard) -> Result<()> {
        for step in &mut self.steps {
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
            step.run(l, r, dst, guard)?;
        }
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
        let mut set = std::mem::take(&mut self.inters);
        // An execution that erred or was cancelled left these partially
        // written; zero them so the pool never hands a half-computed
        // workspace to the next checkout as clean.
        if self.dirty {
            for t in &mut set {
                t.fill_zero();
            }
        }
        self.pool.checkin(set);
    }
}

// The pooling contract: bind on one thread, execute on another.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<NetworkExecutor>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::networks::{goldens, Fixture, Golden};
    use crate::plan::{lower, spine_terms, term_loops};
    use crate::NetOptions;
    use spttn::ir::{IdxSet, IndexId, Operand, Term};
    use spttn::{Microkernels, PlanOptions};

    /// The recursive stride walk the lowering replaced, kept as the
    /// scalar tier's bitwise reference (the role the committed digests
    /// play for the tape): loops in canonical order, one scalar
    /// multiply-add at the leaf, contracted indices innermost and
    /// ascending.
    fn run_loops(
        loops: &[LoopDim],
        l: &[f64],
        r: &[f64],
        out: &mut [f64],
        (lo, ro, oo): (usize, usize, usize),
    ) {
        match loops.split_first() {
            None => out[oo] += l[lo] * r[ro],
            Some((d, rest)) => {
                for i in 0..d.extent {
                    run_loops(rest, l, r, out, (lo + i * d.l, ro + i * d.r, oo + i * d.o));
                }
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Deterministic values in (-1, 1) with full mantissas (splitmix64
    /// of the flat offset), so a reassociated sum shows in the bits.
    fn filled(dims: &[usize], salt: u64) -> DenseTensor {
        let mut t = DenseTensor::zeros(dims);
        for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
            let mut z = (salt << 32 | i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *v = ((z >> 11) as f64 / (1u64 << 52) as f64) - 1.0;
        }
        t
    }

    /// `left * right -> out` as a path term, one index id per letter.
    fn term(left: &str, right: &str, out: &str) -> Term {
        let set = |s: &str| {
            s.bytes()
                .map(|c| IndexId::from(c - b'a'))
                .collect::<IdxSet>()
        };
        Term {
            left: Operand::Input(0),
            right: Operand::Input(1),
            left_inds: set(left),
            right_inds: set(right),
            out_inds: set(out),
            left_lineage: IdxSet::EMPTY,
            right_lineage: IdxSet::EMPTY,
            consumer: None,
        }
    }

    /// Canonical loops of `left * right -> out`, one letter per index:
    /// output loops by ascending letter (the id order of [`term`]), then
    /// contracted ones.
    fn canonical(left: &str, right: &str, out: &str, dim: &dyn Fn(char) -> usize) -> Vec<LoopDim> {
        let stride = |order: &str, c: char| match order.find(c) {
            None => 0,
            Some(p) => order[p + 1..].chars().map(dim).product(),
        };
        let mut outs: Vec<char> = out.chars().collect();
        outs.sort_unstable();
        let mut con: Vec<char> = left.chars().filter(|c| !out.contains(*c)).collect();
        con.sort_unstable();
        outs.into_iter()
            .chain(con)
            .map(|c| LoopDim {
                extent: dim(c),
                l: stride(left, c),
                r: stride(right, c),
                o: stride(out, c),
            })
            .collect()
    }

    #[test]
    fn every_leaf_is_bitwise_the_stride_walk_under_scalar_kernels() {
        let dim = |c: char| match c {
            'a' => 3,
            'b' => 4,
            'j' => 5,
            'k' => 7,
            'm' => 33,
            'r' => 32,
            'v' => 6,
            'u' => 1,
            other => panic!("no extent for '{other}'"),
        };
        let (l, r) = (
            LeafOp::Axpy { vec: Side::Left },
            LeafOp::Axpy { vec: Side::Right },
        );
        let cases: &[(&str, &str, &str, LeafOp)] = &[
            // GEMM: the vector index `r` is contiguous on the right.
            ("jm", "mr", "jr", r),
            // A·Bᵀ and matrix-vector: the vector index is strided.
            ("jk", "vk", "jv", r),
            ("jk", "k", "j", l),
            // Outer product and Khatri–Rao.
            ("j", "r", "jr", r),
            ("jr", "kr", "jkr", LeafOp::Xmul),
            // Several K loops, a batch index, permuted operands.
            ("jab", "vab", "jv", r),
            ("jab", "bar", "jr", r),
            ("bjk", "kbr", "bjr", r),
            ("kjb", "rkb", "jrb", LeafOp::Xmul),
            // Vector index unit-stride in neither operand, or nowhere.
            ("mj", "rm", "jr", l),
            ("bkj", "rkb", "jrb", r),
            // Extent-1 loops drop out, down to a lone vector loop.
            ("ju", "ur", "jr", r),
            ("u", "ur", "r", r),
        ];
        for &(left, right, out, want_leaf) in cases {
            let dims = |order: &str| order.chars().map(dim).collect::<Vec<_>>();
            let canon = canonical(left, right, out, &dim);
            let (loops, leaf) = lower(&term(left, right, out), &canon);
            assert_eq!(leaf, want_leaf, "{left}*{right}->{out}");
            let (l, r) = (filled(&dims(left), 1), filled(&dims(right), 2));
            let mut want = DenseTensor::zeros(&dims(out));
            run_loops(
                &canon,
                l.as_slice(),
                r.as_slice(),
                want.as_mut_slice(),
                (0, 0, 0),
            );
            let step = DenseStep {
                left: StepSrc::User(0),
                right: StepSrc::User(1),
                out_slot: 0,
                loops,
                leaf,
                flops: 2,
                desc: String::new(),
            };
            let guard = RunGuard::new(None, None);
            for (ks, bitwise) in [
                (KernelSet::scalar(), true),
                (KernelSet::auto_detected(), false),
            ] {
                let mut got = DenseTensor::zeros(&dims(out));
                BoundStep::bind(&step, &ks)
                    .run(l.as_slice(), r.as_slice(), got.as_mut_slice(), &guard)
                    .unwrap();
                if bitwise {
                    assert_eq!(
                        bits(got.as_slice()),
                        bits(want.as_slice()),
                        "{left}*{right}->{out} ({leaf:?}) is not the stride walk bit for bit"
                    );
                } else {
                    assert!(
                        got.approx_eq(&want, 1e-9),
                        "{left}*{right}->{out} ({leaf:?}) diverges under {}",
                        ks.name()
                    );
                }
            }
        }
    }

    #[test]
    fn a_fired_guard_stops_every_step_shape_after_check_lanes() {
        // No clock involved: the token is cancelled before the walk
        // starts, so the first in-step check — `CHECK_LANES` lanes in —
        // must fire, whatever the shape. Matrix-vector and the outer
        // product have a single loop around the vector loop.
        let dim = |c: char| match c {
            'j' => 64,
            'k' => 3000,
            'r' => 48,
            other => panic!("no extent for '{other}'"),
        };
        for (left, right, out) in [("jk", "k", "j"), ("k", "r", "kr"), ("jk", "kr", "jr")] {
            let dims = |order: &str| order.chars().map(dim).collect::<Vec<_>>();
            let canon = canonical(left, right, out, &dim);
            let (loops, leaf) = lower(&term(left, right, out), &canon);
            let vector = loops.last().unwrap().extent;
            let trips: usize = loops.iter().map(|d| d.extent).product::<usize>() / vector;
            let (l, r) = (filled(&dims(left), 1), filled(&dims(right), 2));
            let step = DenseStep {
                left: StepSrc::User(0),
                right: StepSrc::User(1),
                out_slot: 0,
                loops,
                leaf,
                flops: 2,
                desc: String::new(),
            };
            let mut bound = BoundStep::bind(&step, &KernelSet::scalar());
            assert!(
                bound.check_every < trips,
                "{left}*{right}->{out}: {trips} trips never reach a check"
            );
            let mut full = DenseTensor::zeros(&dims(out));
            bound
                .run(
                    l.as_slice(),
                    r.as_slice(),
                    full.as_mut_slice(),
                    &RunGuard::new(None, None),
                )
                .unwrap();

            let tok = spttn::CancelToken::new();
            tok.cancel();
            let guard = RunGuard::new(Some(tok), None);
            let mut part = DenseTensor::zeros(&dims(out));
            match bound.run(l.as_slice(), r.as_slice(), part.as_mut_slice(), &guard) {
                Err(SpttnError::Cancelled { phase, .. }) => assert_eq!(phase, "network"),
                other => panic!("{left}*{right}->{out}: expected Cancelled, got {other:?}"),
            }
            // It stopped `check_every` leaf calls in: neither nothing
            // nor everything was written.
            assert!(part.as_slice().iter().any(|&v| v != 0.0));
            assert_ne!(bits(part.as_slice()), bits(full.as_slice()));
        }
    }

    /// Beyond the shared goldens: the benchmark's factored shape,
    /// scaled down, and a chain whose second step reads the first's
    /// output.
    static EXTRAS: [Golden; 2] = [
        Golden {
            expr: "T[i,j,k]*A[j,m]*D[m,r]*B[k,r] -> O[i,r]",
            dims: &[("i", 9), ("j", 30), ("k", 8), ("m", 16), ("r", 32)],
            sparse_dims: &[9, 30, 8],
            nnz: 300,
            seed: 41,
        },
        Golden {
            expr: "T[i,j]*D1[j,m]*D2[m,n]*D3[n,r] -> O[i,r]",
            dims: &[("i", 40), ("j", 30), ("m", 3), ("n", 4), ("r", 5)],
            sparse_dims: &[40, 30],
            nnz: 170,
            seed: 43,
        },
    ];

    #[test]
    fn scalar_tier_steps_are_bitwise_the_stride_walk_on_the_golden_networks() {
        let mut steps_checked = 0;
        for g in goldens().into_iter().chain(&EXTRAS) {
            let fx = Fixture::golden(g);
            let expr = g.expr;
            for budget in [0, NetOptions::default().budget] {
                let popts = PlanOptions::default().with_microkernels(Microkernels::Scalar);
                let nopts = NetOptions::default()
                    .with_budget(budget)
                    .with_plan_options(popts);
                let nplan = fx.net.plan(&fx.shapes, &nopts).unwrap();
                let mut exec = nplan.bind(fx.csf.clone(), &fx.named()).unwrap();
                exec.execute().unwrap();
                // The s-th step is the s-th off-spine term.
                let on_spine = spine_terms(nplan.kernel(), nplan.path());
                let terms = (0..on_spine.len()).filter(|&t| !on_spine[t]);
                for (step, t) in nplan.steps.iter().zip(terms) {
                    let canon = term_loops(nplan.kernel(), nplan.path(), t);
                    let src = |s: StepSrc| match s {
                        StepSrc::User(k) => exec.dense_inputs[k].as_slice(),
                        StepSrc::Inter(slot) => exec.inters[slot].as_slice(),
                    };
                    let got = &exec.inters[step.out_slot];
                    let mut want = vec![0.0; got.len()];
                    run_loops(
                        &canon,
                        src(step.left),
                        src(step.right),
                        &mut want,
                        (0, 0, 0),
                    );
                    assert_eq!(
                        bits(got.as_slice()),
                        bits(&want),
                        "{expr} (budget {budget}): step {} is not the stride walk bit for bit",
                        step.desc
                    );
                    steps_checked += 1;
                }
            }
        }
        assert!(steps_checked >= 6, "only {steps_checked} dense steps ran");
    }
}
