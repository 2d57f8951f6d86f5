//! `layers` — the traced run. The same pipeline `e2e` times, under a
//! [`Tracer`], plus probes of single layers that reach deeper into the
//! public API than the CLI does. Every call into the program is wrapped
//! in a span taken on this side of the call; the spans are written to
//! `out/trace-<seed>.json` with their self times when the run ends.
//!
//! Timings are the fastest of a probe's samples unless the metric's
//! name says otherwise (the same statistic `e2e` gates `exec_ms` on,
//! for the same reason); counts are exact. A metric that does not apply to a
//! workload is reported as such, with the reason, never left out.

use spttn::cost::ModeOrderPolicy;
use spttn::exec::{
    detected_cpu_features, execute_tape_into, execute_tape_tile_into, tree_reduce_partials,
    CompiledTape, KernelSet, OutputMut, Workspace,
};
use spttn::ir::enumerate_paths;
use spttn::tensor::{load_coo, CooTensor, Csf, DenseTensor};
use spttn::{
    ContractionOutput, CostModel, ExecStats, Microkernels, PlanCache, PlanOptions, SpttnError,
    Threads,
};
use spttn_benchmark::json::{obj, Json};
use spttn_benchmark::machine::{self, Peaks};
use spttn_benchmark::metrics::{contract_line, LAYERS};
use spttn_benchmark::pipeline::{
    natural_csf, net_options, parse, plan, setup, Bound, Parsed, Planned,
};
use spttn_benchmark::reference;
use spttn_benchmark::stats::{median, percentile};
use spttn_benchmark::trace::{Probe, Tracer};
use spttn_benchmark::workloads::{prepare, Inputs, Kernel, Workload};
use spttn_benchmark::{write_json, Common, Error, COMMON_USAGE};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deadline under which the alternative cost models' plans execute; a
/// plan that does not finish once within it reports the cap.
const ALTERNATIVE_CAP: Duration = Duration::from_secs(2);
const WARMUPS: usize = 3;

const COST_MODELS: [(&str, CostModel); 4] = [
    (
        "blas-aware",
        CostModel::BlasAware {
            buffer_dim_bound: 2,
        },
    ),
    ("cache-miss", CostModel::CacheMiss { d: 1 }),
    ("max-buffer-size", CostModel::MaxBufferSize),
    ("max-buffer-dim", CostModel::MaxBufferDim),
];

/// The single MTTKRP `net-factored` collapses to once the harness has
/// multiplied `A·D` itself: what the network costs without its dense
/// step, and the kernel the `parallel` probes tile on that workload.
const PREMULTIPLIED: &str = "O(i,r) = T(i,j,k) * AD(j,r) * B(k,r)";

fn fastest(samples: &[f64]) -> f64 {
    percentile(samples, 0.0)
}

/// Names of one layer's metrics.
fn layer_names(prefix: &str) -> Vec<&'static str> {
    LAYERS
        .iter()
        .map(|l| l.name)
        .filter(|n| n.starts_with(prefix))
        .collect()
}

#[derive(Clone)]
enum Cell {
    Unset,
    Value(f64),
    Na(String),
}

/// One workload's per-layer metrics, in the order of [`LAYERS`].
struct Report {
    cells: Vec<Cell>,
    notes: Vec<(String, Json)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Report {
    fn new() -> Report {
        Report {
            cells: vec![Cell::Unset; LAYERS.len()],
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    fn slot(&mut self, name: &str) -> &mut Cell {
        let at = LAYERS
            .iter()
            .position(|l| l.name == name)
            .unwrap_or_else(|| panic!("'{name}' is not in the per-layer metric table"));
        &mut self.cells[at]
    }

    fn set(&mut self, name: &str, v: f64) {
        *self.slot(name) = Cell::Value(v);
    }

    fn na(&mut self, names: &[&str], why: &str) {
        for name in names {
            *self.slot(name) = Cell::Na(why.to_string());
        }
    }

    fn note(&mut self, key: &str, v: impl Into<Json>) {
        self.notes.push((key.to_string(), v.into()));
    }

    /// Run one group of probes; an error in it fails the run but lets
    /// the other groups report.
    fn group(&mut self, name: &str, f: impl FnOnce(&mut Report) -> Result<(), Error>) {
        self.attempted += 1;
        if let Err(e) = f(self) {
            self.failed += 1;
            eprintln!("FAILED {name}: {e}");
            self.errors.push(format!("{name}: {e}"));
        }
    }

    fn to_json(&self) -> Json {
        let metrics = LAYERS.iter().zip(&self.cells).map(|(l, c)| {
            let (value, na) = match c {
                Cell::Value(v) => (Json::from(*v), Json::Null),
                Cell::Na(why) => (Json::Null, Json::from(why.as_str())),
                Cell::Unset => (Json::Null, Json::from("probe did not report")),
            };
            (
                l.name,
                obj([
                    ("value", value),
                    ("unit", Json::from(l.unit)),
                    ("better", Json::from(l.better.name())),
                    ("na", na),
                ]),
            )
        });
        obj([
            ("metrics", obj(metrics)),
            ("notes", Json::Obj(self.notes.clone())),
            ("ops_attempted", Json::from(self.attempted)),
            ("ops_failed", Json::from(self.failed)),
            ("errors", Json::from(self.errors.clone())),
        ])
    }
}

fn plan_for(
    w: &Workload,
    coo: &CooTensor,
    opts: &PlanOptions,
    t: &mut Tracer,
) -> Result<Planned, Error> {
    plan(w, parse(w)?, coo, opts, t)
}

fn bind(
    planned: &Planned,
    csf: &Csf,
    named: &[(&str, &DenseTensor)],
    t: &mut Tracer,
) -> Result<Bound, Error> {
    let csf = csf.clone();
    Ok(t.span("spttn.bind", |_| planned.bind(csf, named))?)
}

fn stats_of(bound: &Bound) -> ExecStats {
    match bound {
        Bound::Kernel(e) => e.last_stats(),
        Bound::Net(e) => e.kernel_stats(),
    }
}

/// Fastest execute of each of two executors of the same output shape,
/// alternated execute by execute so that a slow spell of the box lands
/// on both alike. Ratios between layers are taken this way.
fn race(
    a: (&mut Bound, &str),
    b: (&mut Bound, &str),
    seconds: f64,
    t: &mut Tracer,
) -> Result<(f64, f64), Error> {
    let mut out = a.0.output_template();
    for _ in 0..WARMUPS {
        a.0.execute_into(&mut out)?;
        b.0.execute_into(&mut out)?;
    }
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while ta.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        let (res, ms) = t.timed(a.1, |_| a.0.execute_into(&mut out));
        res?;
        ta.push(ms);
        let (res, ms) = t.timed(b.1, |_| b.0.execute_into(&mut out));
        res?;
        tb.push(ms);
    }
    Ok((fastest(&ta), fastest(&tb)))
}

/// Execute under [`ALTERNATIVE_CAP`]: the fastest of up to `seconds` of
/// executes, or the cap (and `true`) when one did not finish in time.
fn capped_slice(
    bound: &mut Bound,
    seconds: f64,
    span: &str,
    t: &mut Tracer,
) -> Result<(f64, bool), Error> {
    let mut out = bound.output_template();
    let start = Instant::now();
    let mut samples = Vec::new();
    loop {
        let (res, ms) = t.timed(span, |_| bound.execute_into(&mut out));
        match res {
            Ok(()) => samples.push(ms),
            Err(SpttnError::Cancelled { .. }) => {
                return Ok((ALTERNATIVE_CAP.as_secs_f64() * 1e3, true))
            }
            Err(e) => return Err(e.into()),
        }
        let elapsed = start.elapsed();
        let enough =
            samples.len() >= 2 && (elapsed.as_secs_f64() >= seconds || samples.len() >= 40);
        // A plan this slow gets the one execute there was time for.
        if enough || elapsed > ALTERNATIVE_CAP {
            break;
        }
    }
    // The first execute is the warm-up, unless it is all there is.
    let steady = if samples.len() > 1 {
        &samples[1..]
    } else {
        &samples[..]
    };
    Ok((fastest(steady), false))
}

struct Ctx<'a> {
    peaks: &'a Peaks,
    /// Seconds one execute-slice probe may take.
    slice_s: f64,
    /// Repetitions of a probe that takes a large share of a second.
    reps: usize,
    cli: Option<PathBuf>,
}

/// The workload `net-factored` becomes with `A·D` multiplied by the
/// harness; every other workload is its own kernel.
fn collapsed(w: &Workload, inputs: &Inputs) -> (Workload, Vec<(&'static str, DenseTensor)>) {
    if w.kernel != Kernel::NetFactored {
        return (w.clone(), inputs.factors.clone());
    }
    let ad = reference::matmul(&inputs.factors[0].1, &inputs.factors[1].1);
    let kernel = Workload {
        expr: PREMULTIPLIED,
        net: false,
        kernel: Kernel::Mttkrp,
        factors: &[("AD", &["j", "r"]), ("B", &["k", "r"])],
        ..w.clone()
    };
    (kernel, vec![("AD", ad), ("B", inputs.factors[2].1.clone())])
}

fn probe_workload(
    w: &Workload,
    inputs: &Inputs,
    ctx: &Ctx,
    t: &mut Tracer,
    want: &[f64],
) -> Report {
    let mut r = Report::new();
    let named = inputs.named();
    let opts = PlanOptions::default();
    r.set("machine.fma_gflops", ctx.peaks.fma_gflops);
    r.set("machine.triad_gb_s", ctx.peaks.triad_gb_s);
    r.set("machine.nproc", ctx.peaks.nproc as f64);

    // ---- the traced pipeline: what e2e times, call by call -------------
    let mut bound = None;
    let mut first_execute_ms = Vec::new();
    let mut plan_ms = f64::NAN;
    r.group("pipeline", |r| {
        for _ in 0..ctx.reps {
            drop(bound.take());
            let mut b = setup(w, &inputs.tns, &named, &opts, t)?.bound;
            let mut out = b.output_template();
            let (res, ms) = t.timed("execute.first", |_| b.execute_into(&mut out));
            res?;
            first_execute_ms.push(ms);
            bound = Some(b);
        }
        let file_mb = std::fs::metadata(&inputs.tns)?.len() as f64 / 1e6;
        let ingest = fastest(&t.durations_ms("tensor.load_coo"));
        r.set("tensor.ingest_ms", ingest);
        r.set("tensor.ingest_mb_s", file_mb / (ingest / 1e3));
        r.set(
            "tensor.csf_build_ms",
            fastest(&t.durations_ms("tensor.csf_from_coo")),
        );
        r.set("spttn.shapes_ms", fastest(&t.durations_ms("spttn.shapes")));
        plan_ms = fastest(&t.durations_ms("cost.plan"));
        r.set("cost.plan_ms", plan_ms);
        r.set("spttn.bind_ms", fastest(&t.durations_ms("spttn.bind")));
        r.note("setup_ms.median", median(&t.durations_ms("setup")));
        r.note("tns_mb", file_mb);
        Ok(())
    });
    let Some(mut bound) = bound else {
        return r;
    };
    let execute_span = if w.net { "net.execute" } else { "execute" };

    // ---- exec: steady state, traced against untraced ---------------------
    let mut exec_ms = f64::NAN;
    r.group("exec", |r| {
        let mut out = bound.output_template();
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        for _ in 0..WARMUPS {
            bound.execute_into(&mut out)?;
        }
        // Untraced and traced executes alternate one by one, so a slow
        // spell of the box lands on both alike.
        let start = Instant::now();
        while plain.len() < 3 || start.elapsed().as_secs_f64() < ctx.slice_s {
            let clock = Instant::now();
            bound.execute_into(&mut out)?;
            plain.push(clock.elapsed().as_secs_f64() * 1e3);
            let (res, ms) = t.timed(execute_span, |_| bound.execute_into(&mut out));
            res?;
            traced.push(ms);
        }
        exec_ms = fastest(&plain);
        r.set("exec.p50_ms", percentile(&plain, 0.5));
        r.set("exec.p90_ms", percentile(&plain, 0.9));
        r.set(
            "trace.overhead_pct",
            (fastest(&traced) / exec_ms - 1.0) * 100.0,
        );
        r.note("exec_ms.min", exec_ms);
        r.note("exec_ms.n", plain.len());

        let (ok, rel) = reference::check(&out, want, &inputs.coo);
        r.note("max_rel_err", rel);
        if !ok {
            return Err(format!("output is {rel:.3e} of |ref|max away from the reference").into());
        }
        let stats = stats_of(&bound);
        r.set("exec.dispatches", stats.total() as f64);
        r.set("exec.elems", stats.elems() as f64);
        r.set(
            "exec.mnnz_s",
            inputs.coo.nnz() as f64 / (exec_ms * 1e-3) / 1e6,
        );
        let gflops = reference::flops(w, inputs) / (exec_ms * 1e-3) / 1e9;
        r.set("exec.ref_gflops", gflops);
        r.set("exec.frac_fma_peak", gflops / ctx.peaks.fma_gflops);
        r.note("ref_flops", reference::flops(w, inputs));
        Ok(())
    });

    // ---- tensor: ingest is in the pipeline; build, reorder, walk here -----
    let mut csf = None;
    let mut walk_ms = f64::NAN;
    r.group("tensor", |r| {
        let coo = t.span("tensor.load_coo", |_| load_coo(&inputs.tns))?;
        let tree = t.span("tensor.csf_from_coo", |_| natural_csf(&coo))?;
        let mut reorder = Vec::new();
        for _ in 0..ctx.reps.min(2) {
            let (res, ms) = t.timed("tensor.reorder", |_| tree.reordered(&[2, 1, 0]));
            black_box(res?.nnz());
            reorder.push(ms);
        }
        r.set("tensor.reorder_ms", fastest(&reorder));
        let mut walk = Vec::new();
        for _ in 0..5 {
            let mut acc = 0.0;
            let ((), ms) = t.timed("tensor.walk", |_| {
                tree.for_each_entry(|coord, v| acc += v + coord[0] as f64)
            });
            black_box(acc);
            walk.push(ms);
        }
        walk_ms = fastest(&walk);
        r.set("tensor.walk_ms", walk_ms);
        let words: usize = (0..tree.order())
            .map(|k| tree.level(k).idx.len() + tree.level(k).ptr.len())
            .sum::<usize>()
            + tree.vals().len();
        r.set("tensor.csf_mb", (words * 8) as f64 / 1e6);
        let tiles = tree.partition(2);
        let leaves: Vec<f64> = tiles.iter().map(|tile| tile.leaf_nnz() as f64).collect();
        let mean = leaves.iter().sum::<f64>() / leaves.len() as f64;
        r.set(
            "tensor.tile_imbalance",
            leaves.iter().fold(0.0f64, |m, v| m.max(*v)) / mean,
        );
        r.note(
            "csf_level_nodes",
            (0..tree.order())
                .map(|k| tree.level_nnz(k))
                .collect::<Vec<usize>>(),
        );
        csf = Some((coo, tree));
        Ok(())
    });
    let Some((coo, csf)) = csf else {
        return r;
    };
    if exec_ms.is_finite() && walk_ms.is_finite() {
        r.set("exec.time_over_walk", exec_ms / walk_ms);
    }

    // ---- ir + the default plan --------------------------------------------
    let mut planned = None;
    r.group("ir", |r| {
        let mut parse_ms = t.durations_ms("ir.parse");
        for _ in 0..20 {
            let (res, ms) = t.timed("ir.parse", |_| parse(w));
            res?;
            parse_ms.push(ms);
        }
        r.set("ir.parse_us", fastest(&parse_ms) * 1e3);
        let p = plan_for(w, &coo, &opts, t)?;
        // Paths of the expression as written: for a network, all of its
        // tensors, not the collapsed kernel's.
        let kernel = match &p {
            Planned::Kernel(plan) => plan.kernel(),
            Planned::Net(np) => np.kernel(),
        };
        r.set("ir.paths", enumerate_paths(kernel).len() as f64);
        let flops = p.kernel_plan().flops as f64;
        r.set("cost.modeled_flops", flops);
        let counted = stats_of(&bound).flops() as f64;
        r.set("cost.counted_over_modeled", counted / flops);
        r.note("counted_flops", counted);
        r.note("plan", p.kernel_plan().describe());
        planned = Some(p);
        Ok(())
    });
    let Some(planned) = planned else {
        return r;
    };

    // ---- cost: what each model's plan costs to run -------------------------
    r.group("cost", |r| {
        let mut times = Vec::new();
        for (name, model) in COST_MODELS {
            let metric = format!("cost.exec_ms.{name}");
            let mopts = PlanOptions::with_cost_model(model).with_deadline(ALTERNATIVE_CAP);
            let p = plan_for(w, &coo, &mopts, t)?;
            let mut b = bind(&p, &csf, &named, t)?;
            let (ms, capped) = capped_slice(&mut b, ctx.slice_s, &metric, t)?;
            r.set(&metric, ms);
            if capped {
                r.note(&format!("{metric}.capped"), true);
            }
            times.push(ms);
        }
        let best = fastest(&times);
        r.set("cost.regret", times[0] / best);

        if w.kernel == Kernel::Mttkrp {
            let aopts = PlanOptions::default()
                .with_mode_order(ModeOrderPolicy::Auto)
                .with_deadline(ALTERNATIVE_CAP);
            plan_for(w, &coo, &aopts, t)?;
            let auto = plan_for(w, &coo, &aopts, t)?;
            let plan_ms = t.durations_ms("cost.plan");
            r.set("cost.plan_auto_ms", fastest(&plan_ms[plan_ms.len() - 2..]));
            r.note("auto_mode_order", auto.kernel_plan().mode_order().to_vec());
            let mut b = bind(&auto, &csf, &named, t)?;
            let (ms, _) = capped_slice(&mut b, ctx.slice_s, "cost.exec_auto", t)?;
            r.set("cost.auto_over_natural", ms / times[0]);
        } else {
            r.na(
                &["cost.plan_auto_ms", "cost.auto_over_natural"],
                "measured on the mttkrp-* workloads only",
            );
        }
        Ok(())
    });

    // ---- exec: tape, microkernel tiers, guard ------------------------------
    r.group("exec.tape", |r| {
        let plan = planned.kernel_plan();
        let mut compile = Vec::new();
        let mut tape = None;
        for _ in 0..5 {
            let (res, ms) = t.timed("exec.tape_compile", |_| {
                CompiledTape::compile_with(
                    plan.kernel(),
                    plan.path(),
                    plan.forest(),
                    plan.buffers(),
                    Microkernels::Auto,
                )
            });
            tape = Some(res?);
            compile.push(ms);
        }
        let tape = tape.expect("five repetitions");
        r.set("exec.tape_compile_us", fastest(&compile) * 1e3);
        let mut verify = Vec::new();
        for _ in 0..5 {
            let (res, ms) = t.timed("exec.tape_verify", |_| plan.verify_tape());
            res?;
            verify.push(ms);
        }
        // `Plan::verify_tape` compiles, then verifies.
        r.set("exec.tape_verify_us", fastest(&verify) * 1e3);
        r.set("exec.tape_instrs", tape.num_instrs() as f64);
        r.set("exec.superinstructions", tape.superinstructions() as f64);
        r.set("exec.specialized", tape.specialized() as f64);
        r.note("microkernels", tape.microkernels());
        r.note("kernel_width", tape.kernel_width());

        let sopts = PlanOptions::default().with_microkernels(Microkernels::Scalar);
        let mut scalar = bind(&plan_for(w, &coo, &sopts, t)?, &csf, &named, t)?;
        let (scalar_ms, auto_ms) = race(
            (&mut scalar, "exec.scalar"),
            (&mut bound, execute_span),
            ctx.slice_s,
            t,
        )?;
        r.set("exec.scalar_ms", scalar_ms);
        r.set("exec.simd_speedup", scalar_ms / auto_ms);

        // A far deadline arms every checkpoint without ever firing.
        let gopts = PlanOptions::default().with_deadline(Duration::from_secs(3600));
        let mut guarded = bind(&plan_for(w, &coo, &gopts, t)?, &csf, &named, t)?;
        let (armed, plain) = race(
            (&mut guarded, "exec.guarded"),
            (&mut bound, execute_span),
            ctx.slice_s,
            t,
        )?;
        r.set("exec.guard_overhead_pct", (armed / plain - 1.0) * 100.0);
        Ok(())
    });

    r.group("exec.simd", |r| {
        // The workload's innermost dense extent, L1-resident operands.
        let n = w.dense.last().expect("every workload has a dense index").1;
        let m = if w.kernel == Kernel::Ttmc {
            w.dense[0].1
        } else {
            n
        };
        let kernels = KernelSet::resolve(Microkernels::Auto);
        let x: Vec<f64> = (0..n.max(m)).map(|i| 1.0 + i as f64 * 1e-3).collect();
        let z: Vec<f64> = (0..n).map(|i| 0.5 - i as f64 * 1e-3).collect();
        let mut y = vec![0.0f64; n];
        let mut a = vec![0.0f64; m * n];
        let calls = 20_000usize;
        let rate =
            |flops_per_call: usize, ms: f64| (flops_per_call * calls) as f64 / (ms * 1e-3) / 1e9;
        let (axpy, _) = kernels.axpy(n, true, Some(n));
        let (ger, _) = kernels.ger(n, true, Some(n));
        let (dot, _) = kernels.dot(n, true);
        let (mut t_axpy, mut t_ger, mut t_dot) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..7 {
            let ((), ms) = t.timed("exec.simd.axpy", |_| {
                for _ in 0..calls {
                    axpy(n, 1e-9, black_box(&x), 1, &mut y, 1);
                }
            });
            t_axpy.push(ms);
            let ((), ms) = t.timed("exec.simd.ger", |_| {
                for _ in 0..calls {
                    ger(m, n, 1e-9, black_box(&x), 1, &z, 1, &mut a, n, 1);
                }
            });
            t_ger.push(ms);
            let mut acc = 0.0;
            let ((), ms) = t.timed("exec.simd.dot", |_| {
                for _ in 0..calls {
                    acc += dot(n, black_box(&x), 1, &z, 1);
                }
            });
            black_box((acc, &y, &a));
            t_dot.push(ms);
        }
        r.set("exec.simd.axpy_gflops", rate(2 * n, fastest(&t_axpy)));
        r.set("exec.simd.ger_gflops", rate(2 * m * n, fastest(&t_ger)));
        r.set("exec.simd.dot_gflops", rate(2 * n, fastest(&t_dot)));
        r.note(
            "simd_shape",
            format!("n={n}, ger {m}x{n}, {}", kernels.name()),
        );
        Ok(())
    });

    // ---- the collapsed kernel: net's dense step, and the tiles -------------
    let (kw, kfactors) = collapsed(w, inputs);
    let knamed: Vec<(&str, &DenseTensor)> = kfactors.iter().map(|(n, f)| (*n, f)).collect();
    if let Planned::Net(np) = &planned {
        r.group("net", |r| {
            r.set("net.search_ms", plan_ms);
            r.set("net.evaluated_pairs", np.report().evaluated_pairs as f64);
            r.set("net.dense_steps", np.num_dense_steps() as f64);
            let dense_flops: u128 = np.dense_step_flops().iter().sum();
            r.set("net.dense_flops", dense_flops as f64);
            r.note("net_plan", np.describe());

            let kplan = plan_for(&kw, &coo, &opts, t)?;
            let mut kb = bind(&kplan, &csf, &knamed, t)?;
            let (net_ms, kernel_ms) = race(
                (&mut bound, "net.execute"),
                (&mut kb, "execute"),
                ctx.slice_s,
                t,
            )?;
            let mut out = kb.output_template();
            kb.execute_into(&mut out)?;
            let (ok, rel) = reference::check(&out, want, &inputs.coo);
            if !ok {
                return Err(format!("pre-multiplied kernel is {rel:.3e} off the reference").into());
            }
            let dense_ms = net_ms - kernel_ms;
            r.set("net.dense_ms", dense_ms);
            r.set(
                "net.dense_gflops",
                dense_flops as f64 / (dense_ms * 1e-3) / 1e9,
            );
            r.set("net.dense_share", dense_ms / net_ms);
            r.note("net.kernel_ms", kernel_ms);
            r.note("net.exec_ms", net_ms);

            let pool = Arc::new(np.pool());
            drop(t.span("spttn.bind", |_| np.bind_pooled(&pool, csf.clone(), &named))?);
            drop(t.span("spttn.bind", |_| np.bind_pooled(&pool, csf.clone(), &named))?);
            r.set("net.pool_created", pool.created() as f64);
            r.set("net.pool_reused", pool.reused() as f64);
            Ok(())
        });
    } else {
        r.na(&layer_names("net."), "not a spttn-net workload");
    }

    if w.dense_output {
        r.group("parallel", |r| {
            let p = plan_for(&kw, &coo, &opts, t)?;
            let plan = p.kernel_plan();
            let kernel = plan.kernel();
            let tape = CompiledTape::compile_with(
                kernel,
                plan.path(),
                plan.forest(),
                plan.buffers(),
                Microkernels::Auto,
            )?;
            let mut ws = Workspace::from_specs(kernel, plan.path(), plan.forest(), plan.buffers());
            ws.prepare_tape(&tape);
            let slots: Vec<DenseTensor> = kernel
                .inputs
                .iter()
                .enumerate()
                .map(|(slot, tref)| {
                    if slot == kernel.sparse_input {
                        return Ok(DenseTensor::zeros(&[]));
                    }
                    knamed
                        .iter()
                        .find(|(n, _)| *n == tref.name)
                        .map(|(_, f)| (*f).clone())
                        .ok_or_else(|| format!("no factor for slot '{}'", tref.name))
                })
                .collect::<Result<_, String>>()?;
            let tiles = csf.partition(2);
            let out_dims = kernel.ref_dims(&kernel.output);
            let mut partials: Vec<DenseTensor> = tiles
                .iter()
                .map(|_| DenseTensor::zeros(&out_dims))
                .collect();
            let mut whole = DenseTensor::zeros(&out_dims);
            let mut tile_ms: Vec<Vec<f64>> = vec![Vec::new(); tiles.len()];
            let (mut reduce_ms, mut serial_ms) = (Vec::new(), Vec::new());
            let start = Instant::now();
            let mut rounds = 0;
            // Tiles one after another on this thread: what each costs
            // with nobody else on the memory bus or the sibling core.
            while rounds < 3 + WARMUPS || start.elapsed().as_secs_f64() < ctx.slice_s {
                let keep = rounds >= WARMUPS;
                for (n, tile) in tiles.iter().enumerate() {
                    partials[n].fill_zero();
                    let (res, ms) = t.timed(&format!("parallel.tile[{n}]"), |_| {
                        execute_tape_tile_into(
                            &tape,
                            kernel,
                            &csf,
                            tile,
                            &slots,
                            &mut ws,
                            OutputMut::Dense(&mut partials[n]),
                        )
                    });
                    res?;
                    if keep {
                        tile_ms[n].push(ms);
                    }
                }
                let ((), ms) = t.timed("parallel.reduce", |_| tree_reduce_partials(&mut partials));
                if keep {
                    reduce_ms.push(ms);
                }
                whole.fill_zero();
                let (res, ms) = t.timed("parallel.serial", |_| {
                    execute_tape_into(
                        &tape,
                        kernel,
                        &csf,
                        &slots,
                        &mut ws,
                        OutputMut::Dense(&mut whole),
                    )
                });
                res?;
                if keep {
                    serial_ms.push(ms);
                }
                rounds += 1;
            }
            let reduced = ContractionOutput::Dense(partials.swap_remove(0));
            let (ok, rel) = reference::check(&reduced, want, &inputs.coo);
            if !ok {
                return Err(format!("reduced tiles are {rel:.3e} off the reference").into());
            }
            let per_tile: Vec<f64> = tile_ms.iter().map(|s| fastest(s)).collect();
            let (max, sum) = (
                per_tile.iter().fold(0.0f64, |m, v| m.max(*v)),
                per_tile.iter().sum::<f64>(),
            );
            let (serial, reduce) = (fastest(&serial_ms), fastest(&reduce_ms));
            r.set("parallel.tile_ms.max", max);
            r.set("parallel.tile_ms.sum", sum);
            r.set("parallel.sum_tiles_over_serial", sum / serial);
            r.set("parallel.reduce_us", reduce * 1e3);
            r.set("parallel.critical_path_ms", max + reduce);
            r.note("parallel.serial_ms", serial);
            r.note("parallel.tiles", tiles.len());

            // Two real threads against one, alternated: measured, and
            // still noisy on two shared vCPUs.
            let topts = PlanOptions::default().with_threads(Threads::N(2));
            let mut two = bind(&plan_for(&kw, &coo, &topts, t)?, &csf, &knamed, t)?;
            let mut one = bind(&p, &csf, &knamed, t)?;
            let (ms, one_ms) = race(
                (&mut two, "parallel.exec_2t"),
                (&mut one, "parallel.exec_1t"),
                ctx.slice_s,
                t,
            )?;
            let mut out = two.output_template();
            two.execute_into(&mut out)?;
            let (ok, rel) = reference::check(&out, want, &inputs.coo);
            if !ok {
                return Err(format!("2-thread output is {rel:.3e} off the reference").into());
            }
            r.set("parallel.exec_2t_ms", ms);
            r.set("parallel.speedup_2t", one_ms / ms);
            r.set("parallel.handoff_us", (ms - (max + reduce)) * 1e3);
            Ok(())
        });
    } else {
        let parallel: Vec<&str> = LAYERS
            .iter()
            .map(|l| l.name)
            .filter(|n| n.starts_with("parallel."))
            .collect();
        r.na(
            &parallel,
            "sparse output: no output-sized partials to reduce",
        );
    }

    // ---- the facade: caches and rebinding ----------------------------------
    r.group("spttn", |r| {
        let cache = PlanCache::new();
        let mut lookups = Vec::new();
        for _ in 0..8 {
            let parsed = parse(w)?;
            let sh = parsed.shapes(w, &coo)?;
            let (res, ms) = match parsed {
                Parsed::Kernel(c) => {
                    let (res, ms) = t.timed("spttn.plancache", |_| cache.plan(*c, &sh, &opts));
                    (res.map(drop), ms)
                }
                Parsed::Net(n) => {
                    let (res, ms) = t.timed("spttn.plancache", |_| {
                        n.plan_cached(&cache, &sh, &net_options(&opts))
                    });
                    (res.map(drop), ms)
                }
            };
            res?;
            lookups.push(ms);
        }
        r.set("spttn.plancache_miss_ms", lookups[0]);
        r.set("spttn.plancache_hit_us", fastest(&lookups[1..]) * 1e3);
        r.note("plancache.hits", cache.hits());
        r.note("plancache.misses", cache.misses());

        let (fname, ftensor) = named[0];
        let vals = csf.vals().to_vec();
        let (mut set_f, mut set_v, mut tmpl) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..10 {
            let (res, ms) = match &mut bound {
                Bound::Kernel(e) => t.timed("spttn.set_factor", |_| e.set_factor(fname, ftensor)),
                Bound::Net(e) => t.timed("spttn.set_factor", |_| e.set_factor(fname, ftensor)),
            };
            res?;
            set_f.push(ms);
            let (res, ms) = match &mut bound {
                Bound::Kernel(e) => {
                    t.timed("spttn.set_sparse_values", |_| e.set_sparse_values(&vals))
                }
                Bound::Net(e) => t.timed("spttn.set_sparse_values", |_| e.set_sparse_values(&vals)),
            };
            res?;
            set_v.push(ms);
            let (out, ms) = t.timed("spttn.output_template", |_| bound.output_template());
            black_box(out);
            tmpl.push(ms);
        }
        r.set("spttn.set_factor_us", fastest(&set_f) * 1e3);
        r.set("spttn.set_sparse_values_us", fastest(&set_v) * 1e3);
        r.set("spttn.output_template_us", fastest(&tmpl) * 1e3);
        // The same values went back in: the result must not have moved.
        let mut out = bound.output_template();
        bound.execute_into(&mut out)?;
        if !reference::check(&out, want, &inputs.coo).0 {
            return Err("output changed after rebinding the same values".into());
        }
        Ok(())
    });

    // ---- cli: the same path from a shell -----------------------------------
    match &ctx.cli {
        Some(cli) => r.group("cli", |r| {
            let mut walls = Vec::new();
            for _ in 0..3 {
                let mut cmd = Command::new(cli);
                cmd.args([if w.net { "net" } else { "run" }, w.expr, "--tns"])
                    .arg(&inputs.tns);
                if w.net {
                    cmd.args(["--order", "optimal"]);
                }
                for (name, dim) in w.dense {
                    cmd.args(["--dim", &format!("{name}={dim}")]);
                }
                let (res, ms) = t.timed("cli.run", |_| cmd.output());
                let res = res?;
                if !res.status.success() {
                    return Err(format!(
                        "{} exited with {}: {}",
                        cli.display(),
                        res.status,
                        String::from_utf8_lossy(&res.stderr).trim()
                    )
                    .into());
                }
                walls.push(ms / 1e3);
            }
            let run_s = median(&walls);
            let inproc_s = (median(&t.durations_ms("setup")) + median(&first_execute_ms)) / 1e3;
            r.set("cli.run_s", run_s);
            r.set("cli.over_inproc", run_s / inproc_s);
            Ok(())
        }),
        None => r.na(
            &["cli.run_s", "cli.over_inproc"],
            "no spttn binary (build crates/cli, or pass --cli PATH)",
        ),
    }
    r
}

fn print_table(names: &[&str], reports: &[Report]) {
    print!("\n{:<32} {:<8}", "metric", "unit");
    for n in names {
        print!(" {n:>14}");
    }
    println!();
    for (at, l) in LAYERS.iter().enumerate() {
        print!("{:<32} {:<8}", l.name, l.unit);
        for r in reports {
            match &r.cells[at] {
                Cell::Value(v) if v.abs() >= 1e6 => print!(" {v:>14.4e}"),
                Cell::Value(v) => print!(" {v:>14.4}"),
                Cell::Na(_) => print!(" {:>14}", "n/a"),
                Cell::Unset => print!(" {:>14}", "FAILED"),
            }
        }
        println!();
    }
}

fn find_cli(explicit: Option<PathBuf>, root: &Path) -> Option<PathBuf> {
    let target = std::env::var_os("CARGO_TARGET_DIR").map(PathBuf::from);
    explicit
        .into_iter()
        .chain(target.map(|t| t.join("release/spttn")))
        .chain([root.join("../target/release/spttn")])
        .find(|p| p.is_file())
}

fn real_main() -> Result<ExitCode, Error> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let c = Common::take(&mut args)?;
    let cli = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => None,
        ["--cli", path] => Some(PathBuf::from(path)),
        ["-h"] | ["--help"] => {
            println!(
                "layers — the traced run: per-layer metrics and the span file\n\nOPTIONS:\n{COMMON_USAGE}\n    --cli PATH        the spttn binary for the cli.* probes [target/release/spttn if built]"
            );
            return Ok(ExitCode::SUCCESS);
        }
        _ => return Err(format!("unexpected arguments {args:?}").into()),
    };
    let t_total = Instant::now();
    let peaks = machine::measure(if c.smoke { 0 } else { 2 });
    let ctx = Ctx {
        peaks: &peaks,
        slice_s: if c.smoke {
            0.02
        } else {
            (c.seconds / 8.0).clamp(0.25, 3.0)
        },
        reps: if c.smoke { 2 } else { 3 },
        cli: find_cli(cli, &c.root),
    };
    let mut tracer = Tracer::default();
    let selection = c.selection()?;
    let mut reports = Vec::new();
    for w in &selection {
        let t_w = Instant::now();
        let inputs = prepare(w, &c.root, c.seed)?;
        let want = reference::compute(w, &inputs);
        tracer.set_workload(w.name);
        let report = probe_workload(w, &inputs, &ctx, &mut tracer, &want);
        eprintln!(
            "layers: {} probed in {:.1} s ({} of {} groups failed)",
            w.name,
            t_w.elapsed().as_secs_f64(),
            report.failed,
            report.attempted
        );
        reports.push(report);
    }

    let attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let failed: u64 = reports.iter().map(|r| r.failed).sum();
    let unset = reports
        .iter()
        .flat_map(|r| &r.cells)
        .filter(|c| matches!(c, Cell::Unset))
        .count();
    let correct = failed == 0 && unset == 0;
    let trace_path = c.out_path("trace");
    write_json(&trace_path, &tracer.to_json())?;
    let doc = obj([
        ("schema", Json::from("spttn-benchmark/layers/1")),
        (
            "machine",
            machine::stamp(
                c.seed,
                c.rounds,
                c.seconds,
                &peaks,
                Some(detected_cpu_features()),
            ),
        ),
        ("smoke", Json::from(c.smoke)),
        (
            "moves",
            obj(LAYERS.iter().map(|l| (l.name, Json::from(l.moves)))),
        ),
        (
            "workloads",
            obj(selection
                .iter()
                .zip(&reports)
                .map(|(w, r)| (w.name, r.to_json()))),
        ),
        ("ops_attempted", Json::from(attempted)),
        ("ops_failed", Json::from(failed)),
        ("correct", Json::from(correct)),
        ("trace_file", Json::from(trace_path.display().to_string())),
        ("spans", Json::from(tracer.spans().len())),
        ("wall_s", Json::from(t_total.elapsed().as_secs_f64())),
    ]);
    let path = c.out.clone().unwrap_or_else(|| c.out_path("layers"));
    write_json(&path, &doc)?;

    let names: Vec<&str> = selection.iter().map(|w| w.name).collect();
    print_table(&names, &reports);
    println!(
        "machine: {:.1} GFLOP/s FMA ({}), {:.1} GB/s triad over 3 x {:.0} MB (LLC {:.0} MB), {} cpus",
        peaks.fma_gflops,
        peaks.fma_isa,
        peaks.triad_gb_s,
        peaks.triad_array_bytes as f64 / 1e6,
        peaks.llc_bytes as f64 / 1e6,
        peaks.nproc
    );
    println!(
        "wall {:.1} s; {} spans in {}; wrote {}",
        t_total.elapsed().as_secs_f64(),
        tracer.spans().len(),
        trace_path.display(),
        path.display()
    );
    // The contract's line carries numbers only, so a cell that does not
    // apply reads 0 there; the document above says n/a and why.
    let single = reports.len() == 1;
    let metrics = selection.iter().zip(&reports).flat_map(|(w, r)| {
        LAYERS.iter().zip(&r.cells).map(move |(l, cell)| {
            let name = if single {
                l.name.to_string()
            } else {
                format!("{}.{}", w.name, l.name)
            };
            let value = match cell {
                Cell::Value(v) if v.is_finite() => *v,
                _ => 0.0,
            };
            (name, value, l.unit)
        })
    });
    println!("{}", contract_line(correct, attempted, failed, metrics));
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}
