//! The path a user takes from a `.tns` file to an executor, in the
//! order `crates/cli/src/main.rs` takes it, calling only what that file
//! calls: parse → `load_coo` → `Shapes::with_pattern` → plan →
//! `Csf::from_coo` → bind. `e2e` times [`setup`] whole; `layers` runs
//! the same stages under a [`Tracer`](crate::trace::Tracer) and reads
//! the per-call spans.

use crate::trace::Probe;
use crate::workloads::Workload;
use crate::Error;
use spttn::tensor::{load_coo, CooTensor, Csf, DenseTensor};
use spttn::{Contraction, ContractionOutput, Executor, Plan, PlanOptions, Shapes};
use spttn_net::{NetOptions, Network, NetworkExecutor, NetworkPlan, OrderStrategy};
use std::path::Path;

/// The CLI's default `--budget` for `--order optimal`.
pub const NET_SEARCH_BUDGET: u64 = 1_000_000;

/// A parsed expression of either kind (`spttn run` or `spttn net`).
pub enum Parsed {
    Kernel(Box<Contraction>),
    Net(Box<Network>),
}

/// A symbolic plan of either kind.
pub enum Planned {
    Kernel(Box<Plan>),
    Net(Box<NetworkPlan>),
}

/// A bound executor of either kind.
pub enum Bound {
    Kernel(Box<Executor>),
    Net(Box<NetworkExecutor>),
}

pub fn parse(w: &Workload) -> spttn::Result<Parsed> {
    Ok(if w.net {
        Parsed::Net(Box::new(Network::parse(w.expr)?))
    } else {
        Parsed::Kernel(Box::new(Contraction::parse(w.expr)?))
    })
}

impl Parsed {
    /// The symbolic shapes as the CLI assembles them: sparse extents
    /// from the ingested tensor, the rest from the workload
    /// (`--dim name=N`), sparsity from a clone of the pattern.
    pub fn shapes(&self, w: &Workload, coo: &CooTensor) -> Result<Shapes, Error> {
        let (sparse, all) = match self {
            Parsed::Kernel(c) => (
                c.sparse_index_names()
                    .ok_or("expression has no sparse input")?,
                c.all_index_names(),
            ),
            Parsed::Net(n) => (n.sparse_index_names(), n.all_index_names()),
        };
        let mut shapes = Shapes::new();
        for (name, &dim) in sparse.iter().zip(coo.dims()) {
            shapes = shapes.with_dim(name, dim);
        }
        for name in all.iter().filter(|n| !sparse.contains(n)) {
            shapes = shapes.with_dim(name, w.dim(name, coo.dims()));
        }
        Ok(shapes.with_pattern(coo.clone()))
    }

    /// Plan without a cache; a network searches orders the way
    /// `spttn net --order optimal` does.
    pub fn plan(self, shapes: &Shapes, opts: &PlanOptions) -> spttn::Result<Planned> {
        Ok(match self {
            Parsed::Kernel(c) => Planned::Kernel(Box::new(c.plan(shapes, opts)?)),
            Parsed::Net(n) => Planned::Net(Box::new(n.plan(shapes, &net_options(opts))?)),
        })
    }
}

/// The network options `spttn net --order optimal` builds.
pub fn net_options(opts: &PlanOptions) -> NetOptions {
    NetOptions::default()
        .with_order(OrderStrategy::Optimal)
        .with_budget(NET_SEARCH_BUDGET)
        .with_plan_options(opts.clone())
}

impl Planned {
    /// The plan of the (collapsed) sparse kernel.
    pub fn kernel_plan(&self) -> &Plan {
        match self {
            Planned::Kernel(p) => p,
            Planned::Net(np) => np.kernel_plan(),
        }
    }

    pub fn bind(&self, csf: Csf, factors: &[(&str, &DenseTensor)]) -> spttn::Result<Bound> {
        Ok(match self {
            Planned::Kernel(p) => Bound::Kernel(Box::new(p.bind(csf, factors)?)),
            Planned::Net(np) => Bound::Net(Box::new(np.bind(csf, factors)?)),
        })
    }
}

impl Bound {
    pub fn output_template(&self) -> ContractionOutput {
        match self {
            Bound::Kernel(e) => e.output_template(),
            Bound::Net(e) => e.output_template(),
        }
    }

    pub fn execute_into(&mut self, out: &mut ContractionOutput) -> spttn::Result<()> {
        match self {
            Bound::Kernel(e) => e.execute_into(out),
            Bound::Net(e) => e.execute_into(out),
        }
    }
}

/// Shapes, then plan, from a tensor already in memory: the symbolic
/// stages of [`setup`] for the probes in `layers`.
pub fn plan<P: Probe>(
    w: &Workload,
    parsed: Parsed,
    coo: &CooTensor,
    opts: &PlanOptions,
    p: &mut P,
) -> Result<Planned, Error> {
    let shapes = p.span("spttn.shapes", |_| parsed.shapes(w, coo))?;
    Ok(p.span("cost.plan", |_| parsed.plan(&shapes, opts))?)
}

/// A bound executor together with what the CLI's `main` still holds
/// while it executes — the ingested tensor and the shapes with their
/// clone of its pattern — so that a process that sets up and executes
/// through here peaks in memory where `spttn run` does.
pub struct Ready {
    pub bound: Bound,
    _coo: CooTensor,
    _shapes: Shapes,
}

/// Cold set-up: fresh objects throughout, no plan cache.
pub fn setup<P: Probe>(
    w: &Workload,
    tns: &Path,
    factors: &[(&str, &DenseTensor)],
    opts: &PlanOptions,
    p: &mut P,
) -> Result<Ready, Error> {
    p.span("setup", |p| {
        let parsed = p.span("ir.parse", |_| parse(w))?;
        let coo = p.span("tensor.load_coo", |_| load_coo(tns))?;
        let shapes = p.span("spttn.shapes", |_| parsed.shapes(w, &coo))?;
        let planned = p.span("cost.plan", |_| parsed.plan(&shapes, opts))?;
        let csf = p.span("tensor.csf_from_coo", |_| natural_csf(&coo))?;
        let bound = p.span("spttn.bind", |_| planned.bind(csf, factors))?;
        Ok(Ready {
            bound,
            _coo: coo,
            _shapes: shapes,
        })
    })
}

/// The written-order CSF the CLI binds.
pub fn natural_csf(coo: &CooTensor) -> Result<Csf, Error> {
    let order: Vec<usize> = (0..coo.order()).collect();
    Ok(Csf::from_coo(coo, &order)?)
}
