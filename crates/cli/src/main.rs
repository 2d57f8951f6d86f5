//! `spttn` — end-to-end command-line driver for the SpTTN pipeline.
//!
//! Runs the whole stack on real data: parse an einsum-style contraction,
//! ingest a FROSTT `.tns` or MatrixMarket `.mtx` sparse tensor, plan
//! under a selectable cost model and CSF mode-order policy, bind with
//! seeded random dense factors, execute on the tile engine (one tile
//! per thread), and report plan and execution statistics — with an
//! optional naive-oracle check.
//!
//! ```text
//! spttn run "A(i,a) = T(i,j,k) * B(j,a) * C(k,a)" --tns tensor.tns \
//!     --rank 16 --threads 4 --cost-model blas-aware --mode-order auto --check
//! spttn plan "A(i,a) = T(i,j,k) * B(j,a) * C(k,a)" --dims 1000x800x900 \
//!     --nnz 50000 --rank 16 --mode-order auto
//! ```
//!
//! Exit codes: 0 success, 1 usage or pipeline error, 2 oracle mismatch,
//! 3 cancelled (deadline expired), 4 budget rejected.

// The CLI only orchestrates the library: no unsafe code, ever.
#![forbid(unsafe_code)]

use rand::prelude::*;
use spttn::exec::naive_einsum;
use spttn::ir::Kernel;
use spttn::tensor::{load_coo, load_tns, random_dense, CooTensor, Csf, DenseTensor};
use spttn::{
    Contraction, ContractionOutput, CostModel, Microkernels, ModeOrderPolicy, Plan, PlanOptions,
    RunBudget, Shapes, SpttnError, Threads,
};
use spttn_net::{NetOptions, Network};
use std::time::{Duration, Instant};

const CHECK_TOL: f64 = 1e-9;

fn usage() -> ! {
    eprintln!(
        "spttn — minimum-cost loop nests for sparse tensor network contraction

USAGE:
    spttn run  <EXPR> (--tns FILE | --mtx FILE) [OPTIONS]
    spttn plan <EXPR> (--tns FILE | --mtx FILE | --dims DxDxD --nnz N) [OPTIONS]
    spttn net  <EXPR> (--tns FILE | --mtx FILE | --dims DxDxD --nnz N) [OPTIONS]

EXPR uses either syntax, first right-hand-side tensor sparse:
    \"A(i,a) = T(i,j,k) * B(j,a) * C(k,a)\"   or   \"T[i,j,k]*B[j,a]*C[k,a]->A[i,a]\"

'spttn net' plans (and, given a tensor file, executes) a multi-tensor
network: the pairwise contraction order is searched netcon-style
(greedy, then an exact subset sweep within --budget), dense-dense steps
are materialized outside the loop nest, and the sparse spine collapses
into one planned kernel.

INPUT:
    --tns FILE            FROSTT text tensor (1-based coords, '#' comments)
    --mtx FILE            MatrixMarket coordinate matrix
    --dims D1xD2x...      declare sparse dims (validates the file; enables file-less plan)
    --nnz N               model nonzero count (plan without a file)

OPTIONS:
    --rank N              dimension for every index not on the sparse tensor [16]
    --dim name=N          dimension for one index (overrides --rank)
    --threads N|auto      execution threads (at least 1, or 'auto' for one
                          per hardware core) [1]
    --budget N            pair-cost evaluations the network order search may
                          spend, greedy's rounds included; once spent, the
                          greedy order is used, so 0 plans greedy
                          ('spttn net' only) [1000000]
    --microkernels M      auto (SIMD kernels by CPU detection) | scalar (plain
                          scalar kernels, bitwise-stable baseline) — a kernel
                          table, not a program shape: both run the same fused
                          tape; covers the kernel's tape and 'spttn net' dense
                          steps alike  [auto]
    --cost-model M        blas-aware[:BOUND] | max-buffer-dim | max-buffer-size |
                          cache-miss[:D]    [blas-aware:2]
    --mode-order P        natural | auto | L0,L1,... (written positions) [natural]
    --seed S              seed for the random dense factors [42]
    --repeat K            execute K times, report best wall time [1]
    --timeout DUR         wall-clock deadline per execution; suffix ms, s, or m
                          (bare number = seconds). Expiry exits 3.
    --max-mem BYTES       budget on what bind preallocates: Eq.-5 buffers per
                          thread, an output partial per thread after the
                          first, and 'spttn net' intermediates; suffix K, M,
                          or G (powers of 1024). Threads are shed to fit;
                          rejection exits 4.
    --max-flops N         budget on the flops the planned nest executes (the
                          plan's `work:` line), checked at bind. Rejection exits 4.
    --check               compare against the naive dense oracle (exit 2 on mismatch)
    --verify              print the static proof summary of the compiled tape
                          (every bind verifies it)
    -h, --help            this text"
    );
    std::process::exit(1)
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}

/// Report a pipeline error on one line with the exit code its kind
/// maps to: 3 for cancellation/deadline expiry, 4 for budget
/// rejection, 1 otherwise.
fn fail_stage(stage: &str, e: SpttnError) -> ! {
    let code = match &e {
        SpttnError::Cancelled { .. } => 3,
        SpttnError::BudgetExceeded { .. } => 4,
        _ => 1,
    };
    eprintln!("error: {stage}: {e}");
    std::process::exit(code)
}

#[derive(Debug)]
struct Args {
    cmd: String,
    expr: String,
    tns: Option<String>,
    mtx: Option<String>,
    dims: Option<Vec<usize>>,
    nnz: Option<u64>,
    rank: usize,
    dim_overrides: Vec<(String, usize)>,
    threads: Threads,
    budget: u64,
    microkernels: Microkernels,
    cost_model: CostModel,
    mode_order: ModeOrderPolicy,
    seed: u64,
    repeat: usize,
    timeout: Option<Duration>,
    max_mem: Option<u64>,
    max_flops: Option<u128>,
    check: bool,
    verify: bool,
}

/// Parse a duration with an optional `ms`/`s`/`m` suffix; a bare
/// number means seconds.
fn parse_duration(s: &str) -> Duration {
    let (num, mul_ms) = if let Some(n) = s.strip_suffix("ms") {
        (n, 1u64)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1_000)
    } else if let Some(n) = s.strip_suffix('m') {
        (n, 60_000)
    } else {
        (s, 1_000)
    };
    let v: u64 = num
        .trim()
        .parse()
        .unwrap_or_else(|_| fail(format!("bad duration '{s}' (e.g. 500ms, 2s, 1m)")));
    Duration::from_millis(v.saturating_mul(mul_ms))
}

/// Parse a byte count with an optional `K`/`M`/`G` suffix (powers of
/// 1024); a bare number means bytes.
fn parse_bytes(s: &str) -> u64 {
    let t = s.trim();
    let (num, shift) = match t.chars().last() {
        Some('K' | 'k') => (&t[..t.len() - 1], 10u32),
        Some('M' | 'm') => (&t[..t.len() - 1], 20),
        Some('G' | 'g') => (&t[..t.len() - 1], 30),
        _ => (t, 0),
    };
    let v: u64 = num
        .trim()
        .parse()
        .unwrap_or_else(|_| fail(format!("bad byte count '{s}' (e.g. 4096, 64K, 16M, 2G)")));
    v.checked_mul(1u64 << shift)
        .unwrap_or_else(|| fail(format!("byte count '{s}' overflows")))
}

fn parse_cost_model(s: &str) -> CostModel {
    let (name, param) = match s.split_once(':') {
        Some((n, p)) => (n, Some(p)),
        None => (s, None),
    };
    let num = |p: Option<&str>, default: usize| -> usize {
        match p {
            None => default,
            Some(p) => p
                .parse()
                .unwrap_or_else(|_| fail(format!("bad cost-model parameter '{p}'"))),
        }
    };
    match name {
        "blas-aware" => CostModel::BlasAware {
            buffer_dim_bound: num(param, 2),
        },
        "max-buffer-dim" => CostModel::MaxBufferDim,
        "max-buffer-size" => CostModel::MaxBufferSize,
        "cache-miss" => CostModel::CacheMiss { d: num(param, 1) },
        other => fail(format!(
            "unknown cost model '{other}' (blas-aware, max-buffer-dim, max-buffer-size, cache-miss)"
        )),
    }
}

fn parse_microkernels(s: &str) -> Microkernels {
    match s {
        "auto" => Microkernels::Auto,
        "scalar" => Microkernels::Scalar,
        other => fail(format!(
            "unknown microkernel policy '{other}' (auto, scalar)"
        )),
    }
}

fn parse_mode_order(s: &str) -> ModeOrderPolicy {
    match s {
        "natural" => ModeOrderPolicy::Natural,
        "auto" => ModeOrderPolicy::Auto,
        list => {
            let order: Vec<usize> = list
                .split(',')
                .map(|f| {
                    f.trim()
                        .parse()
                        .unwrap_or_else(|_| fail(format!("bad mode-order position '{f}'")))
                })
                .collect();
            ModeOrderPolicy::Fixed(order)
        }
    }
}

fn parse_dims(s: &str) -> Vec<usize> {
    s.split(['x', 'X'])
        .map(|f| {
            f.trim()
                .parse()
                .unwrap_or_else(|_| fail(format!("bad dimension '{f}' in '{s}'")))
        })
        .collect()
}

fn parse_args() -> Args {
    let mut argv = std::env::args().skip(1);
    let Some(cmd) = argv.next() else { usage() };
    if cmd == "-h" || cmd == "--help" || cmd == "help" {
        usage();
    }
    if cmd != "run" && cmd != "plan" && cmd != "net" {
        fail(format!(
            "unknown command '{cmd}' (expected 'run', 'plan', or 'net')"
        ));
    }
    let Some(expr) = argv.next() else {
        fail("missing contraction expression")
    };
    let mut args = Args {
        cmd,
        expr,
        tns: None,
        mtx: None,
        dims: None,
        nnz: None,
        rank: 16,
        dim_overrides: Vec::new(),
        threads: Threads::N(1),
        budget: NetOptions::default().budget,
        microkernels: Microkernels::Auto,
        cost_model: CostModel::BlasAware {
            buffer_dim_bound: 2,
        },
        mode_order: ModeOrderPolicy::Natural,
        seed: 42,
        repeat: 1,
        timeout: None,
        max_mem: None,
        max_flops: None,
        check: false,
        verify: false,
    };
    let value = |argv: &mut dyn Iterator<Item = String>, flag: &str| -> String {
        argv.next()
            .unwrap_or_else(|| fail(format!("{flag} needs a value")))
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--tns" => args.tns = Some(value(&mut argv, "--tns")),
            "--mtx" => args.mtx = Some(value(&mut argv, "--mtx")),
            "--dims" => args.dims = Some(parse_dims(&value(&mut argv, "--dims"))),
            "--nnz" => {
                args.nnz = Some(
                    value(&mut argv, "--nnz")
                        .parse()
                        .unwrap_or_else(|_| fail("bad --nnz value")),
                )
            }
            "--rank" => {
                args.rank = value(&mut argv, "--rank")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --rank value"))
            }
            "--dim" => {
                let v = value(&mut argv, "--dim");
                let (name, d) = v
                    .split_once('=')
                    .unwrap_or_else(|| fail(format!("--dim expects name=N, got '{v}'")));
                let d = d
                    .parse()
                    .unwrap_or_else(|_| fail(format!("bad dimension in --dim {v}")));
                args.dim_overrides.push((name.trim().to_string(), d));
            }
            "--threads" => {
                let v = value(&mut argv, "--threads");
                args.threads = if v == "auto" {
                    Threads::Auto
                } else {
                    match v.parse::<usize>() {
                        Ok(0) => fail("--threads must be at least 1 (or 'auto')"),
                        Ok(n) => Threads::N(n),
                        Err(_) => fail(format!(
                            "bad --threads value '{v}' (expected a positive integer or 'auto')"
                        )),
                    }
                }
            }
            // A flag that would change nothing is refused, not ignored.
            flag @ ("--order" | "--budget") if args.cmd != "net" => fail(format!(
                "{flag} orders a network: it applies to 'spttn net' only"
            )),
            // There is one order search, so `--order optimal` changes
            // nothing; it is accepted only because the `benchmark/`
            // package still passes it.
            "--order" => {
                let v = value(&mut argv, "--order");
                if v != "optimal" {
                    fail(format!(
                        "--order {v}: there is one order search; --budget 0 plans greedy"
                    ));
                }
            }
            "--budget" => {
                args.budget = value(&mut argv, "--budget")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --budget value"))
            }
            "--microkernels" => {
                args.microkernels = parse_microkernels(&value(&mut argv, "--microkernels"))
            }
            "--cost-model" => args.cost_model = parse_cost_model(&value(&mut argv, "--cost-model")),
            "--mode-order" => args.mode_order = parse_mode_order(&value(&mut argv, "--mode-order")),
            "--seed" => {
                args.seed = value(&mut argv, "--seed")
                    .parse()
                    .unwrap_or_else(|_| fail("bad --seed value"))
            }
            "--repeat" => {
                args.repeat = match value(&mut argv, "--repeat").parse::<usize>() {
                    Ok(0) => fail("--repeat must be at least 1: every run executes once"),
                    Ok(n) => n,
                    Err(_) => fail("bad --repeat value"),
                }
            }
            "--timeout" => args.timeout = Some(parse_duration(&value(&mut argv, "--timeout"))),
            "--max-mem" => args.max_mem = Some(parse_bytes(&value(&mut argv, "--max-mem"))),
            "--max-flops" => {
                args.max_flops = Some(
                    value(&mut argv, "--max-flops")
                        .parse()
                        .unwrap_or_else(|_| fail("bad --max-flops value")),
                )
            }
            "--check" => args.check = true,
            "--verify" => args.verify = true,
            "-h" | "--help" => usage(),
            other => fail(format!("unknown flag '{other}'")),
        }
    }
    // A flag that would change nothing is refused, not ignored.
    if args.nnz.is_some() && (args.tns.is_some() || args.mtx.is_some()) {
        fail("--nnz models a tensor without a file; the file's own pattern is exact");
    }
    args
}

/// The planner options `run`, `plan` and `net` share, with
/// `--timeout` / `--max-mem` / `--max-flops` mapped onto the execution
/// options the plan carries into bind and execute.
fn plan_options(args: &Args) -> PlanOptions {
    let mut popts = PlanOptions::with_cost_model(args.cost_model)
        .with_mode_order(args.mode_order.clone())
        .with_threads(args.threads)
        .with_microkernels(args.microkernels);
    if let Some(t) = args.timeout {
        popts = popts.with_deadline(t);
    }
    let mut budget = RunBudget::default();
    if let Some(b) = args.max_mem {
        budget = budget.with_max_workspace_bytes(b);
    }
    if let Some(f) = args.max_flops {
        budget = budget.with_max_modeled_flops(f);
    }
    if budget.is_limited() {
        popts = popts.with_budget(budget);
    }
    popts
}

/// Load the sparse input as COO, or `None` for file-less planning.
fn load_input(args: &Args) -> Option<CooTensor> {
    let path = match (&args.tns, &args.mtx) {
        (Some(_), Some(_)) => fail("pass --tns or --mtx, not both"),
        (Some(path), None) | (None, Some(path)) => path,
        (None, None) => return None,
    };
    let coo = match (&args.tns, &args.dims) {
        // Declared dims validate the file's coordinates.
        (Some(_), Some(dims)) => load_tns(path, Some(dims)),
        _ => load_coo(path),
    }
    .unwrap_or_else(|e| fail(format!("reading '{path}': {e}")));
    // A .mtx declares its own size, so declared dims must agree with it.
    if let Some(dims) = args.dims.as_deref().filter(|&d| d != coo.dims()) {
        let x = |d: &[usize]| d.iter().map(usize::to_string).collect::<Vec<_>>().join("x");
        fail(format!(
            "--dims {} does not match the size line of '{path}' ({})",
            x(dims),
            x(coo.dims())
        ));
    }
    Some(coo)
}

/// Assemble the symbolic shapes: sparse dims from the ingested tensor
/// (or --dims), dense-only dims from --rank/--dim, sparsity from the
/// pattern (or --nnz).
fn build_shapes(
    args: &Args,
    sparse_names: &[String],
    all_names: &[String],
    coo: Option<&CooTensor>,
) -> Shapes {
    let sparse_dims: Vec<usize> = match coo {
        Some(c) => c.dims().to_vec(),
        None => args.dims.clone().unwrap_or_else(|| {
            fail("no sparse input: pass --tns/--mtx, or --dims with --nnz for file-less planning")
        }),
    };
    if sparse_dims.len() != sparse_names.len() {
        fail(format!(
            "sparse tensor has {} modes but '{}' is written with {} indices",
            sparse_dims.len(),
            args.expr,
            sparse_names.len()
        ));
    }
    let mut shapes = Shapes::new();
    for (name, &dim) in sparse_names.iter().zip(&sparse_dims) {
        shapes = shapes.with_dim(name, dim);
    }
    for name in all_names {
        if !sparse_names.contains(name) {
            shapes = shapes.with_dim(name, args.rank);
        }
    }
    for (name, dim) in &args.dim_overrides {
        if !all_names.contains(name) {
            fail(format!(
                "--dim {name}={dim}: '{}' has no index '{name}' (its indices: {})",
                args.expr,
                all_names.join(", ")
            ));
        }
        shapes = shapes.with_dim(name, *dim);
    }
    match (coo, args.nnz) {
        (Some(c), _) => shapes.with_pattern(c.clone()),
        (None, Some(nnz)) => shapes.with_nnz(nnz),
        (None, None) => fail("file-less planning needs --nnz"),
    }
}

fn print_plan(plan: &Plan) {
    print!("{}", plan.describe());
    if plan.order_costs().len() > 1 {
        println!(
            "mode-order search ({} candidates):",
            plan.order_costs().len()
        );
        let natural = plan.natural_kernel();
        let names: Vec<&str> = natural
            .csf_index_order()
            .iter()
            .map(|&i| natural.index_name(i))
            .collect();
        for oc in plan.order_costs() {
            let as_names: Vec<&str> = oc.order.iter().map(|&p| names[p]).collect();
            let marker = if oc.order == plan.mode_order() {
                " <- chosen"
            } else {
                ""
            };
            match &oc.work {
                Some(w) => println!("  ({}): {w}, cost {}{marker}", as_names.join(","), oc.cost),
                None => println!("  ({}): infeasible", as_names.join(",")),
            }
        }
    }
    println!(
        "modeled: ~{} flops (tier {}, cost {})",
        plan.flops, plan.tier, plan.cost
    );
}

/// The largest run `--check`'s dense oracle is allowed: index-space
/// iterations (every index's extent multiplied) and densified sparse
/// cells (8 bytes each).
const ORACLE_MAX_ITERS: u128 = 1 << 31;
const ORACLE_MAX_CELLS: u128 = 1 << 27;

fn check_against_oracle(
    kernel: &Kernel,
    coo: &CooTensor,
    factors: &[(String, DenseTensor)],
    got: &ContractionOutput,
) -> f64 {
    // The oracle densifies the sparse operand and loops over the whole
    // index space: refuse it on one line before it allocates.
    fn product(dims: impl IntoIterator<Item = usize>) -> Option<u128> {
        (dims.into_iter()).try_fold(1u128, |n, d| n.checked_mul(d as u128))
    }
    let iters = product((0..kernel.num_indices()).map(|i| kernel.dim(i)));
    let cells = product(coo.dims().iter().copied());
    let count =
        |n: Option<u128>| n.map_or_else(|| "more than 2^128".to_string(), |n| n.to_string());
    if iters.is_none_or(|n| n > ORACLE_MAX_ITERS) || cells.is_none_or(|n| n > ORACLE_MAX_CELLS) {
        fail(format!(
            "--check: the dense oracle would run {} iterations over {} densified cells \
             (limits {ORACLE_MAX_ITERS} and {ORACLE_MAX_CELLS}); run without --check",
            count(iters),
            count(cells)
        ));
    }
    let sparse_dense = coo.to_dense();
    let mut slots: Vec<&DenseTensor> = Vec::new();
    let mut next = 0usize;
    for slot in 0..kernel.inputs.len() {
        if slot == kernel.sparse_input {
            slots.push(&sparse_dense);
        } else {
            // Factors are generated per input slot below, in order.
            slots.push(&factors[next].1);
            next += 1;
        }
    }
    let want = naive_einsum(kernel, &slots).unwrap_or_else(|e| fail(format!("oracle: {e}")));
    let got_dense = match got {
        ContractionOutput::Dense(d) => d.clone(),
        ContractionOutput::Sparse(c) => c.to_dense(),
    };
    got_dense
        .as_slice()
        .iter()
        .zip(want.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max)
}

/// Print the ingest line and return the loaded COO tensor (if any).
fn ingest(args: &Args) -> Option<CooTensor> {
    let t_ingest = Instant::now();
    let coo = load_input(args);
    if let Some(c) = &coo {
        println!(
            "ingest: {} modes {:?}, {} nonzeros ({:.1} ms)",
            c.order(),
            c.dims(),
            c.nnz(),
            t_ingest.elapsed().as_secs_f64() * 1e3
        );
    }
    coo
}

/// Seeded random dense factors, one per dense input slot of `kernel`
/// (a name filling several slots reuses one tensor, matching the
/// executors' bind-by-name semantics). Returns slot-order `factors`
/// for the oracle and deduplicated `named` views for binding.
fn make_factors(kernel: &Kernel, seed: u64) -> Vec<(String, DenseTensor)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut factors: Vec<(String, DenseTensor)> = Vec::new();
    for (slot, r) in kernel.inputs.iter().enumerate() {
        if slot == kernel.sparse_input {
            continue;
        }
        let t = match factors.iter().find(|(n, _)| *n == r.name) {
            Some((_, t)) => t.clone(),
            None => {
                // Dimensions come from the command line; bound the byte
                // size here, before `random_dense` allocates for it
                // (bind-time admission runs only after this).
                let dims = kernel.ref_dims(r);
                if DenseTensor::checked_len(&dims).is_err() {
                    fail(format!(
                        "factors: '{}' with dims {dims:?} is larger than the address space",
                        r.name
                    ));
                }
                random_dense(&dims, &mut rng)
            }
        };
        factors.push((r.name.clone(), t));
    }
    factors
}

fn dedup_named(factors: &[(String, DenseTensor)]) -> Vec<(&str, &DenseTensor)> {
    let mut named: Vec<(&str, &DenseTensor)> = Vec::new();
    for (name, t) in factors {
        if !named.iter().any(|(n, _)| n == name) {
            named.push((name, t));
        }
    }
    named
}

/// Execute `--repeat` times, each on a fresh output so `+=` plans do
/// not pile several contractions into one (and trip `--check`); print
/// the best wall time and return the last output.
fn time_runs<E>(
    args: &Args,
    exec: &mut E,
    fresh: fn(&E) -> ContractionOutput,
    run: fn(&mut E, &mut ContractionOutput) -> Result<(), SpttnError>,
) -> ContractionOutput {
    let mut out = fresh(exec);
    let mut best = f64::INFINITY;
    for rep in 0..args.repeat {
        if rep > 0 {
            out = fresh(exec);
        }
        let t = Instant::now();
        run(exec, &mut out).unwrap_or_else(|e| fail_stage("execute", e));
        best = best.min(t.elapsed().as_secs_f64());
    }
    println!(
        "execute: best {:.3} ms over {} run(s)",
        best * 1e3,
        args.repeat
    );
    out
}

fn report_check(diff: f64) {
    println!("check: max |Δ| vs naive oracle = {diff:.3e}");
    if diff.is_nan() || diff > CHECK_TOL {
        eprintln!("error: oracle mismatch exceeds {CHECK_TOL:e}");
        std::process::exit(2);
    }
    println!("check: OK (tolerance {CHECK_TOL:e})");
}

/// `spttn net`: plan (and, given a tensor file, execute) a multi-tensor
/// network through the sequence planner and pooled executor.
fn run_net(args: &Args) {
    let net = Network::parse(&args.expr).unwrap_or_else(|e| fail(format!("parse: {e}")));
    let coo = ingest(args);
    let shapes = build_shapes(
        args,
        &net.sparse_index_names(),
        &net.all_index_names(),
        coo.as_ref(),
    );
    let nopts = NetOptions {
        budget: args.budget,
        plan: plan_options(args),
    };

    let t_plan = Instant::now();
    let nplan = net
        .plan(&shapes, &nopts)
        .unwrap_or_else(|e| fail(format!("plan: {e}")));
    let plan_ms = t_plan.elapsed().as_secs_f64() * 1e3;
    print!("{}", nplan.describe());
    let report = nplan.report();
    println!(
        "search:  {} pair evaluations (budget {})",
        report.evaluated_pairs, nopts.budget
    );
    println!("planned in {plan_ms:.1} ms");
    if args.verify {
        let vr = nplan
            .kernel_plan()
            .verify_tape()
            .unwrap_or_else(|e| fail(format!("verify: {e}")));
        println!("{vr}");
    }
    // Without a tensor file this is a planning run, like 'spttn plan'.
    let Some(coo) = coo else { return };

    let natural_order: Vec<usize> = (0..coo.order()).collect();
    let csf = Csf::from_coo(&coo, &natural_order).unwrap_or_else(|e| fail(format!("csf: {e}")));
    let kernel = nplan.kernel().clone();
    let factors = make_factors(&kernel, args.seed);
    let named = dedup_named(&factors);
    let t_bind = Instant::now();
    let mut exec = nplan
        .bind(csf, &named)
        .unwrap_or_else(|e| fail_stage("bind", e));
    println!(
        "bind: {} thread(s), {} dense step(s) feeding the collapsed kernel ({:.1} ms)",
        exec.threads(),
        exec.num_dense_steps(),
        t_bind.elapsed().as_secs_f64() * 1e3
    );

    let out = time_runs(
        args,
        &mut exec,
        |e| e.output_template(),
        |e, o| e.execute_into(o),
    );
    let stats = exec.kernel_stats();
    println!(
        "stats: dense steps ~{} flops; kernel axpy {} dot {} xmul {} ger {} gemv {} \
         ({} dispatches over {} elements)",
        exec.dense_step_flops(),
        stats.axpy,
        stats.dot,
        stats.xmul,
        stats.ger,
        stats.gemv,
        stats.total(),
        stats.elems()
    );

    if args.check {
        // The network kernel is written-order by construction, so it is
        // its own oracle kernel.
        report_check(check_against_oracle(&kernel, &coo, &factors, &out));
    }
}

fn main() {
    let args = parse_args();
    if args.cmd == "net" {
        run_net(&args);
        return;
    }
    let contraction =
        Contraction::parse(&args.expr).unwrap_or_else(|e| fail(format!("parse: {e}")));

    let coo = ingest(&args);
    let sparse_names = contraction
        .sparse_index_names()
        .unwrap_or_else(|| fail("expression has no sparse input"));
    let shapes = build_shapes(
        &args,
        &sparse_names,
        &contraction.all_index_names(),
        coo.as_ref(),
    );
    let opts = plan_options(&args);

    let t_plan = Instant::now();
    let plan = contraction
        .plan(&shapes, &opts)
        .unwrap_or_else(|e| fail(format!("plan: {e}")));
    let plan_ms = t_plan.elapsed().as_secs_f64() * 1e3;
    print_plan(&plan);
    println!("planned in {plan_ms:.1} ms");

    if args.verify {
        // Static proof of the compiled program, before (or without)
        // binding any data: loop structure, cursor bounds, Eq.-5 zero
        // placement, node tracking.
        let report = plan
            .verify_tape()
            .unwrap_or_else(|e| fail(format!("verify: {e}")));
        println!("{report}");
    }
    if args.cmd == "plan" {
        return;
    }
    let Some(coo) = coo else {
        fail("'spttn run' needs a tensor file (--tns or --mtx)")
    };

    // Bind: written-order CSF (the plan re-sorts it if it chose another
    // order) plus seeded random factors, one per dense input slot name.
    let natural_order: Vec<usize> = (0..coo.order()).collect();
    let csf = Csf::from_coo(&coo, &natural_order).unwrap_or_else(|e| fail(format!("csf: {e}")));
    let factors = make_factors(plan.kernel(), args.seed);
    let named = dedup_named(&factors);
    let t_bind = Instant::now();
    let mut exec = plan
        .bind(csf, &named)
        .unwrap_or_else(|e| fail_stage("bind", e));
    let tape = exec.tape();
    let report = tape.verify().unwrap_or_else(|e| fail(format!("bind: {e}")));
    println!(
        "bind: {} thread(s), tape of {} instrs, {} cursors; \
         {} kernels ×{}, {} fused ({} fibers), {} specialized, {} scalar fallbacks{} ({:.1} ms)",
        exec.threads(),
        tape.num_instrs(),
        tape.num_cursors(),
        tape.microkernels(),
        tape.kernel_width(),
        tape.superinstructions(),
        report.fibers,
        tape.specialized(),
        report.scalar_fallbacks,
        if plan.is_natural_order() {
            String::new()
        } else {
            ", CSF re-sorted to plan order".to_string()
        },
        t_bind.elapsed().as_secs_f64() * 1e3
    );

    let out = time_runs(
        &args,
        &mut exec,
        |e| e.output_template(),
        |e, o| e.execute_into(o),
    );
    let stats = exec.last_stats();
    println!(
        "stats: axpy {} dot {} xmul {} ger {} gemv {} ({} dispatches over {} elements)",
        stats.axpy,
        stats.dot,
        stats.xmul,
        stats.ger,
        stats.gemv,
        stats.total(),
        stats.elems()
    );

    if args.check {
        // The oracle contracts written-order dense operands, so check
        // against the kernel with the storage permutation undone.
        report_check(check_against_oracle(
            &plan.natural_kernel(),
            &coo,
            &factors,
            &out,
        ));
    }
}
