//! Scalar tape vs SIMD tape: the same plans — one fused program, two
//! kernel tables — bound once per
//! (microkernel policy, thread-count), executed through the
//! zero-allocation `execute_into` path on large MTTKRP, TTMc and TTTP
//! workloads whose dense ranks (32 / 16) run the kernels' unrolled
//! fixed-rank bodies. MTTKRP runs twice: under the planner's nest
//! (one CSF walk, AXPY leaves) and under an explicit nest that hoists
//! `a` above a Khatri-Rao prologue and the whole walk — what the
//! planner picked before it charged nests for executed work, kept so
//! the scalar-`Leaf`-heavy tape path stays measured.
//!
//! The planned MTTKRP rows (the reference cube and the benchmark gate's
//! hypersparse tensor), TTMc and TTTP (the gate's `tttp-mid` shape)
//! also carry a `hand-nest` row at 1 thread: the same nest written as
//! plain Rust loops over the CSF, calling the very microkernel pointers
//! the SIMD tape binds, its output asserted bitwise equal to the
//! tape's. That is the ceiling a code generator for the tape could
//! reach; tape-simd over hand-nest is what interpretation costs today.
//!
//! Tripwires (exit 1, which CI's `bench-smoke` propagates): the planned
//! cube MTTKRP's tape must compile its innermost `k` loop to a
//! fused `SparseAxpy`, and TTTP's to a fused `SparseDot`; the planned
//! MTTKRP (cube and hypersparse), TTMc and TTTP tapes must each run
//! their `(i,j)` fibers as one `Fiber` instruction; and the cube's and
//! TTTP's fastest runs must stay within their [`TRIPWIRES`] ceilings over
//! the hand nest's (the cube: 3.2× before the fused loop, ≈ 2.2× with
//! it, 1.3–1.5× with the fiber; TTTP: 3.4–4.7× before, 2.7–3.6× with
//! it, ≈ 2× with the fiber, on a noisy 2-core box).
//!
//! Run with `cargo bench -p spttn-bench --bench tape_speedup`; set
//! `SPTTN_BENCH_JSON=BENCH_results.json` to emit the machine-readable
//! artifact CI uploads. Acceptance bar: the SIMD tape shows ≥1.5× over
//! the scalar tape at 1 thread on at least one kernel; the measured
//! speedups print explicitly.

use rand::prelude::*;
use spttn::exec::{KernelSet, TapeReport};
use spttn::ir::{path_from_picks, stdkernels, Kernel, NestSpec};
use spttn::tensor::{random_coo, random_dense, Csf, DenseTensor};
use spttn::{
    Contraction, ContractionOutput, CostModel, ExecStats, Executor, Microkernels, Plan,
    PlanOptions, Shapes, Threads,
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

/// A planned workload whose SIMD tape must compile at least one fused
/// shape (`fused`, counted by `count`), and the ceiling, if any, on its
/// tape-simd / hand-nest ratio of fastest runs.
struct Tripwire {
    workload: &'static str,
    fused: &'static str,
    count: fn(&TapeReport) -> usize,
    max_over_hand: Option<f64>,
}

/// A workload whose `(i,j)` fibers must each run as one instruction.
const fn fibers(workload: &'static str) -> Tripwire {
    Tripwire {
        workload,
        fused: "Fiber",
        count: |r| r.fibers,
        max_over_hand: None,
    }
}

const TRIPWIRES: [Tripwire; 6] = [
    Tripwire {
        workload: "mttkrp-large",
        fused: "SparseAxpy",
        count: |r| r.sparse_axpys,
        max_over_hand: Some(3.0),
    },
    Tripwire {
        workload: "tttp-mid",
        fused: "SparseDot",
        count: |r| r.sparse_dots,
        max_over_hand: Some(3.5),
    },
    fibers("mttkrp-large"),
    fibers("mttkrp-hyper"),
    fibers("ttmc-large"),
    fibers("tttp-mid"),
];

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

/// A planned nest written as plain loops over the natural-order CSF:
/// the dense factors in written order, the scratch buffer `X0`, the
/// output (dense data, or sparse values in leaf order) and the kernel
/// set whose pointers the SIMD tape bound.
type HandNest = fn(&Csf, &[&[f64]], &mut [f64], &mut [f64], &KernelSet);

/// MTTKRP's planned nest — `(i,j,k,a),(i,j,a)` with `X0[a]` on the
/// `T*C` path — per `(i,j)` fiber an assigning AXPY for the first `k`,
/// an AXPY for each further one, then one XMUL into `A`'s row.
fn mttkrp_nest(csf: &Csf, f: &[&[f64]], x0: &mut [f64], out: &mut [f64], ks: &KernelSet) {
    let (b, c, r) = (f[0], f[1], x0.len());
    let zaxpy = ks.zaxpy();
    let (axpy, _) = ks.axpy(r, true, None);
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

/// TTMc's planned nest — `(i,j,k,s),(i,j,r,s)` with `X0[s]` on the
/// `T*V` path — per `(i,j)` fiber the same AXPY run over `k`, then one
/// GER of `U`'s row and `X0` into `S`'s `i` slab.
fn ttmc_nest(csf: &Csf, f: &[&[f64]], x0: &mut [f64], out: &mut [f64], ks: &KernelSet) {
    let (u, v, s) = (f[0], f[1], x0.len());
    let r = u.len() / csf.dims()[1];
    let zaxpy = ks.zaxpy();
    let (axpy, _) = ks.axpy(s, true, None);
    let (ger, _) = ks.ger(s, true, None);
    let vals = csf.vals();
    out.fill(0.0);
    for ni in csf.root_range() {
        let slab = &mut out[csf.node_coord(0, ni) * r * s..][..r * s];
        for nj in csf.children(0, ni) {
            let mut kern = zaxpy;
            for nk in csf.children(1, nj) {
                kern(s, vals[nk], &v[csf.node_coord(2, nk) * s..], 1, x0, 1);
                kern = axpy;
            }
            let urow = &u[csf.node_coord(1, nj) * r..];
            ger(r, s, 1.0, urow, 1, x0, 1, slab, s, 1);
        }
    }
}

/// TTTP's planned nest — `(i,j,r),(i,j,k,r),(i,j,k)` — per `(i,j)`
/// fiber an assigning XMUL of `U`'s and `V`'s rows into `X0[r]`, then
/// per nonzero one DOT of `W`'s row with `X0`, scaled by the value into
/// the output cell. `0.0 + d` is what the tape's zeroed `X1` holds.
fn tttp_nest(csf: &Csf, f: &[&[f64]], x0: &mut [f64], out: &mut [f64], ks: &KernelSet) {
    let (u, v, w, r) = (f[0], f[1], f[2], x0.len());
    let zxmul = ks.zxmul();
    let (dot, _) = ks.dot(r, true);
    let vals = csf.vals();
    out.fill(0.0);
    for ni in csf.root_range() {
        let urow = &u[csf.node_coord(0, ni) * r..];
        for nj in csf.children(0, ni) {
            zxmul(r, 1.0, urow, 1, &v[csf.node_coord(1, nj) * r..], 1, x0, 1);
            for nk in csf.children(1, nj) {
                let d = dot(r, &w[csf.node_coord(2, nk) * r..], 1, x0, 1);
                out[nk] += vals[nk] * (0.0 + d);
            }
        }
    }
}

/// The output's values: dense data, or sparse values in leaf order.
fn out_vals(out: &ContractionOutput) -> &[f64] {
    match out {
        ContractionOutput::Dense(d) => d.as_slice(),
        ContractionOutput::Sparse(c) => c.vals(),
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
            &Shapes::new().with_pattern(csf.to_coo()),
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
    /// The planned nest by hand, for planned workloads.
    hand: Option<HandNest>,
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
            hand: None,
        },
        Workload {
            name: "mttkrp-large",
            kernel: stdkernels::mttkrp(&[512, 96, 96], 32),
            nest: planned,
            dims: [512, 96, 96],
            nnz: 250_000,
            hand: Some(mttkrp_nest),
        },
        Workload {
            // The benchmark gate's `mttkrp-hyper` tensor.
            name: "mttkrp-hyper",
            kernel: stdkernels::mttkrp(&[2000, 1500, 1000], 32),
            nest: planned,
            dims: [2000, 1500, 1000],
            nnz: 1_000_000,
            hand: Some(mttkrp_nest),
        },
        Workload {
            name: "ttmc-large",
            kernel: stdkernels::ttmc(&[384, 64, 64], &[32, 32]),
            nest: planned,
            dims: [384, 64, 64],
            nnz: 120_000,
            hand: Some(ttmc_nest),
        },
        Workload {
            // The benchmark gate's `tttp-mid` shape.
            name: "tttp-mid",
            kernel: stdkernels::tttp(&[600, 400, 300], 32),
            nest: planned,
            dims: [600, 400, 300],
            nnz: 150_000,
            hand: Some(tttp_nest),
        },
    ];
    let mut h = Harness::new("tape_speedup: scalar tape vs SIMD tape");
    // Fused loops in each tripwire workload's SIMD tape, when that tape
    // was compiled with superinstructions on.
    let mut fused: Vec<Option<usize>> = vec![None; TRIPWIRES.len()];
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
                    black_box(out_vals(&out).iter().sum::<f64>());
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
                for (t, wire) in TRIPWIRES.iter().enumerate() {
                    if wire.workload == w.name && threads == 1 {
                        let report = tape.verify().expect("the tripwire tape verifies");
                        fused[t] = Some((wire.count)(&report));
                    }
                }

                if let (Some(hand_nest), 1, Microkernels::Auto) = (w.hand, threads, micro) {
                    let ks = KernelSet::resolve(micro);
                    let f: Vec<&[f64]> = factors.iter().map(|(_, t)| t.as_slice()).collect();
                    let tape_out = out_vals(&out);
                    // Each nest's `X0` runs along the last factor's rank.
                    let (_, last) = factors.last().expect("a dense factor");
                    let mut x0 = vec![0.0; *last.dims().last().expect("a rank mode")];
                    let mut hand = vec![0.0; tape_out.len()];
                    h.bench_function(&format!("{} hand-nest   @ 1t", w.name), || {
                        hand_nest(&csf, &f, &mut x0, &mut hand, &ks);
                        black_box(hand.iter().sum::<f64>());
                    });
                    assert!(
                        hand.iter()
                            .zip(tape_out)
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
    let mut over_hand: Vec<Option<f64>> = vec![None; TRIPWIRES.len()];
    for (hid, hs) in hand {
        let name = hid.split(" hand-nest").next().unwrap_or(hid);
        let tape = format!("{name} tape-simd   @ 1t");
        if let Some((_, ts)) = tapes.iter().find(|(id, _)| id.starts_with(&tape)) {
            ratio("tape-simd/hand-nest", name, ts, hs);
            for (t, wire) in TRIPWIRES.iter().enumerate() {
                if wire.workload == name {
                    over_hand[t] = Some(minimum(ts) / minimum(hs));
                }
            }
        }
    }

    let mut failures = Vec::new();
    for ((t, fused), over) in TRIPWIRES.iter().zip(fused).zip(over_hand) {
        let Some(fused) = fused else {
            println!(
                "\ntripwire skipped: the {} tape was compiled without superinstructions",
                t.workload
            );
            continue;
        };
        let over = over.expect("a tripwire workload has a hand-nest row");
        if fused == 0 {
            failures.push(format!(
                "the planned {} SIMD tape compiles no {}",
                t.workload, t.fused
            ));
        }
        if let Some(max) = t.max_over_hand.filter(|&max| over > max) {
            failures.push(format!(
                "{} tape-simd is {over:.2}x the hand nest (min), over {max}x",
                t.workload
            ));
        }
    }
    for f in &failures {
        eprintln!("tape_speedup: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
