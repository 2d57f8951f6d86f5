//! Scalar tape vs SIMD tape: the same plans, bound once per
//! (microkernel policy, thread-count), executed through the
//! zero-allocation `execute_into` path on large MTTKRP and TTMc
//! workloads whose dense ranks (32 / 16) hit the rank-specialized
//! microkernel variants. MTTKRP runs twice: under the planner's nest
//! (one CSF walk, AXPY leaves) and under an explicit nest that hoists
//! `a` above a Khatri-Rao prologue and the whole walk — what the
//! planner picked before it charged nests for executed work, kept so
//! the scalar-`Leaf`-heavy tape path stays measured.
//!
//! The planned MTTKRP rows (the reference cube and the benchmark gate's
//! hypersparse tensor) also carry a `hand-nest` row at 1 thread: the
//! same nest written as plain Rust loops over the CSF, calling the very
//! microkernel pointers the SIMD tape binds, its output asserted
//! bitwise equal to the tape's. That is the ceiling a code generator
//! for the tape could reach; tape-simd over hand-nest is what
//! interpretation costs today.
//!
//! Tripwire (exit 1, which CI's `bench-smoke` propagates): the planned
//! cube MTTKRP's SIMD tape must compile its innermost `k` loop to a
//! fused `SparseAxpy`, and its fastest run must stay within
//! [`MAX_OVER_HAND`]× the hand nest's (3.2× before the fused loop,
//! ≈ 2.2× with it).
//!
//! Run with `cargo bench -p spttn-bench --bench tape_speedup`; set
//! `SPTTN_BENCH_JSON=BENCH_results.json` to emit the machine-readable
//! artifact CI uploads. Acceptance bar: the SIMD tape shows ≥1.5× over
//! the scalar tape at 1 thread on at least one kernel; the measured
//! speedups print explicitly.

use rand::prelude::*;
use spttn::exec::KernelSet;
use spttn::ir::{path_from_picks, stdkernels, Kernel, NestSpec};
use spttn::tensor::{random_coo, random_dense, Csf, DenseTensor, SparsityProfile};
use spttn::{
    Contraction, CostModel, ExecStats, Executor, Microkernels, Plan, PlanOptions, Shapes, Threads,
};
use spttn_bench::{black_box, Harness};

fn stats_json(s: &ExecStats) -> String {
    format!(
        "{{\"axpy\": {}, \"dot\": {}, \"xmul\": {}, \"ger\": {}, \"gemv\": {}, \
         \"axpy_elems\": {}, \"dot_elems\": {}, \"xmul_elems\": {}, \"ger_elems\": {}, \
         \"gemv_elems\": {}, \"elems\": {}, \"flops\": {}}}",
        s.axpy,
        s.dot,
        s.xmul,
        s.ger,
        s.gemv,
        s.axpy_elems,
        s.dot_elems,
        s.xmul_elems,
        s.ger_elems,
        s.gemv_elems,
        s.elems(),
        s.flops()
    )
}

/// The tripwire workload: the planned reference cube.
const CUBE: &str = "mttkrp-large";
/// Ceiling on the cube's tape-simd / hand-nest ratio of fastest runs.
const MAX_OVER_HAND: f64 = 3.0;

/// The two legs under comparison, in fixed row order.
const LEGS: [(&str, Microkernels); 2] = [
    ("tape-scalar", Microkernels::Scalar),
    ("tape-simd  ", Microkernels::Auto),
];

/// What to do with the planner's plan before binding it.
type Nest = fn(Plan) -> Plan;

/// MTTKRP with `a` outermost: `(a,j,k),(a,i,j,k)` on the path that
/// forms the Khatri-Rao product first.
fn hoisted_a(plan: Plan) -> Plan {
    let (i, j, k, a) = (0, 1, 2, 3);
    let path = path_from_picks(plan.kernel(), &[(1, 2), (0, 1)]);
    let spec = NestSpec {
        orders: vec![vec![a, j, k], vec![a, i, j, k]],
    };
    plan.with_nest(path, spec).expect("a valid MTTKRP nest")
}

/// MTTKRP's planned nest — `(i,j,k,a),(i,j,a)` with `X0[a]` on the
/// `T*C` path — as plain loops over the natural-order CSF: per `(i,j)`
/// fiber an assigning AXPY for the first `k`, an AXPY for each further
/// one, then one XMUL into `A`'s row.
fn hand_nest(csf: &Csf, b: &[f64], c: &[f64], x0: &mut [f64], out: &mut [f64], ks: &KernelSet) {
    let r = x0.len();
    let (zaxpy, _) = ks.zaxpy(r, true, Some(r));
    let (axpy, _) = ks.axpy(r, true, Some(r));
    let xmul = ks.xmul();
    let vals = csf.vals();
    out.fill(0.0);
    for ni in csf.root_range() {
        let row = &mut out[csf.node_coord(0, ni) * r..][..r];
        for nj in csf.children(0, ni) {
            let mut kern = zaxpy;
            for nk in csf.children(1, nj) {
                kern(r, vals[nk], &c[csf.node_coord(2, nk) * r..], 1, x0, 1);
                kern = axpy;
            }
            xmul(r, 1.0, &b[csf.node_coord(1, nj) * r..], 1, x0, 1, row, 1);
        }
    }
}

fn bind_at(
    kernel: &Kernel,
    nest: Nest,
    csf: &Csf,
    factors: &[(String, DenseTensor)],
    micro: Microkernels,
    threads: usize,
) -> Executor {
    let plan = Contraction::from_kernel(kernel.clone())
        .plan(
            &Shapes::new().with_profile(SparsityProfile::from_csf(csf)),
            &PlanOptions::with_cost_model(CostModel::BlasAware {
                buffer_dim_bound: 2,
            })
            .with_threads(Threads::N(threads))
            .with_microkernels(micro),
        )
        .expect("planning succeeds");
    let refs: Vec<(&str, &DenseTensor)> = factors.iter().map(|(n, t)| (n.as_str(), t)).collect();
    nest(plan).bind(csf.clone(), &refs).expect("bind succeeds")
}

fn operands(
    kernel: &Kernel,
    dims: &[usize],
    nnz: usize,
    seed: u64,
) -> (Csf, Vec<(String, DenseTensor)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let coo = random_coo(dims, nnz, &mut rng).unwrap();
    let order: Vec<usize> = (0..dims.len()).collect();
    let csf = Csf::from_coo(&coo, &order).unwrap();
    let mut factors = Vec::new();
    for (slot, r) in kernel.inputs.iter().enumerate() {
        if slot == kernel.sparse_input {
            continue;
        }
        factors.push((r.name.clone(), random_dense(&kernel.ref_dims(r), &mut rng)));
    }
    (csf, factors)
}

/// One bench workload: a kernel under a nest on a seeded tensor.
struct Workload {
    name: &'static str,
    kernel: Kernel,
    nest: Nest,
    dims: [usize; 3],
    nnz: usize,
    /// Also run [`hand_nest`] (the planned MTTKRP nest only).
    hand_nest: bool,
}

fn main() {
    let planned: Nest = |plan| plan;
    let workloads = [
        Workload {
            name: "mttkrp-large hoisted-a",
            kernel: stdkernels::mttkrp(&[512, 96, 96], 32),
            nest: hoisted_a,
            dims: [512, 96, 96],
            nnz: 250_000,
            hand_nest: false,
        },
        Workload {
            name: "mttkrp-large",
            kernel: stdkernels::mttkrp(&[512, 96, 96], 32),
            nest: planned,
            dims: [512, 96, 96],
            nnz: 250_000,
            hand_nest: true,
        },
        Workload {
            // The benchmark gate's `mttkrp-hyper` tensor.
            name: "mttkrp-hyper",
            kernel: stdkernels::mttkrp(&[2000, 1500, 1000], 32),
            nest: planned,
            dims: [2000, 1500, 1000],
            nnz: 1_000_000,
            hand_nest: true,
        },
        Workload {
            name: "ttmc-large",
            kernel: stdkernels::ttmc(&[384, 64, 64], &[32, 32]),
            nest: planned,
            dims: [384, 64, 64],
            nnz: 120_000,
            hand_nest: false,
        },
    ];
    let mut h = Harness::new("tape_speedup: scalar tape vs SIMD tape");
    // Fused sparse-AXPY loops in the cube's SIMD tape, when that tape
    // was compiled with superinstructions on.
    let mut cube_fused: Option<usize> = None;
    for w in &workloads {
        let (csf, factors) = operands(&w.kernel, &w.dims, w.nnz, 17);
        for threads in [1usize, 4] {
            for (label, micro) in LEGS {
                let mut exec = bind_at(&w.kernel, w.nest, &csf, &factors, micro, threads);
                let mut out = exec.output_template();
                let id = format!("{} {label} @ {threads}t [{} tiles]", w.name, exec.threads());
                let mut last_stats = ExecStats::default();
                h.bench_function(&id, || {
                    exec.execute_into(&mut out).expect("execution succeeds");
                    last_stats = exec.last_stats();
                    black_box(out.to_dense().sum());
                });
                // Record which microkernel implementation the tape
                // bound, its vector width, and what the host CPU
                // advertises — so artifacts from different machines
                // stay comparable.
                let tape = exec.tape();
                let note = format!(
                    "{{\"stats\": {}, \"microkernels\": \"{}\", \"kernel_width\": {}, \
                     \"superinstructions\": {}, \"specialized\": {}, \"cpu\": \"{}\"}}",
                    stats_json(&last_stats),
                    tape.microkernels(),
                    tape.kernel_width(),
                    tape.superinstructions(),
                    tape.specialized(),
                    spttn::exec::detected_cpu_features(),
                );
                h.note(&id, note);
                if w.name == CUBE && threads == 1 && tape.kernel_set().superinstructions() {
                    let report = tape.verify().expect("the cube's tape verifies");
                    cube_fused = Some(report.sparse_axpys);
                }

                if w.hand_nest && threads == 1 && micro == Microkernels::Auto {
                    let ks = KernelSet::resolve(micro);
                    let (b, c) = (factors[0].1.as_slice(), factors[1].1.as_slice());
                    let tape_out = out.to_dense();
                    let mut x0 = vec![0.0; factors[0].1.dims()[1]];
                    let mut hand = vec![0.0; tape_out.len()];
                    h.bench_function(&format!("{} hand-nest   @ 1t", w.name), || {
                        hand_nest(&csf, b, c, &mut x0, &mut hand, &ks);
                        black_box(hand.iter().sum::<f64>());
                    });
                    assert!(
                        hand.iter()
                            .zip(tape_out.as_slice())
                            .all(|(h, t)| h.to_bits() == t.to_bits()),
                        "{}: the hand nest is not bitwise the SIMD tape",
                        w.name
                    );
                }
            }
        }
    }
    let rows = h.finish();

    // Median is the headline; min (fastest vs fastest) is the
    // least-noise estimator on busy machines.
    let median = |samples: &[f64]| {
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        s[s.len() / 2]
    };
    let minimum = |samples: &[f64]| samples.iter().cloned().fold(f64::INFINITY, f64::min);
    let ratio = |what: &str, id: &str, num: &[f64], den: &[f64]| {
        println!(
            "{id:<46} {what} {:>5.2}x {:>5.2}x",
            median(num) / median(den),
            minimum(num) / minimum(den)
        );
    };

    // SIMD-vs-scalar-tape speedup per workload+threads pair.
    println!("\nspeedups (median / min):");
    let (hand, tapes): (Vec<_>, Vec<_>) = rows.iter().partition(|(id, _)| id.contains("hand-nest"));
    for pair in tapes.chunks(2) {
        let [(sid, ss), (vid, vs)] = pair else {
            continue;
        };
        assert!(
            sid.contains("tape-scalar") && vid.contains("tape-simd"),
            "row order"
        );
        ratio(
            "tape-simd/tape-scalar",
            &sid.replace("tape-scalar ", ""),
            ss,
            vs,
        );
    }

    // What interpreting the tape costs over the same nest compiled.
    println!("\nSIMD tape over the hand-written nest, 1 thread (median / min):");
    let mut cube_over_hand = None;
    for (hid, hs) in hand {
        let name = hid.split(" hand-nest").next().unwrap_or(hid);
        let tape = format!("{name} tape-simd   @ 1t");
        if let Some((_, ts)) = tapes.iter().find(|(id, _)| id.starts_with(&tape)) {
            ratio("tape-simd/hand-nest", name, ts, hs);
            if name == CUBE {
                cube_over_hand = Some(minimum(ts) / minimum(hs));
            }
        }
    }

    let Some(fused) = cube_fused else {
        println!("\ntripwire skipped: the cube's tape was compiled without superinstructions");
        return;
    };
    let over = cube_over_hand.expect("the cube has a hand-nest row");
    let mut failures = Vec::new();
    if fused == 0 {
        failures.push(format!(
            "the planned {CUBE} SIMD tape compiles no SparseAxpy"
        ));
    }
    if over > MAX_OVER_HAND {
        failures.push(format!(
            "{CUBE} tape-simd is {over:.2}x the hand nest (min), over {MAX_OVER_HAND}x"
        ));
    }
    for f in &failures {
        eprintln!("tape_speedup: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
