//! `e2e` — the end-to-end gate. Tracing off; prints every end-to-end
//! metric by name with its unit for each selected workload, checks
//! every output against the harness's own reference, and exits
//! non-zero if any operation failed.
//!
//! This file and what it links from the library call the program under
//! test only through the functions `crates/cli/src/main.rs` calls.

use spttn::{ContractionOutput, PlanOptions};
use spttn_benchmark::compare;
use spttn_benchmark::json::{obj, Json};
use spttn_benchmark::machine;
use spttn_benchmark::metrics::{contract_line, END_TO_END};
use spttn_benchmark::pipeline::{setup, Ready};
use spttn_benchmark::reference;
use spttn_benchmark::stats::{median, Rounds};
use spttn_benchmark::trace::Untraced;
use spttn_benchmark::workloads::{prepare, Inputs, Workload};
use spttn_benchmark::{write_json, Common, Error, COMMON_USAGE};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// Share of a cycle that its cold set-up should take; the executes that
/// follow get the rest.
const SETUP_SHARE: f64 = 0.45;
/// A round runs at least this many cycles, however slow.
const MIN_CYCLES: usize = 2;
/// A cycle times at least this many executes, however slow.
const MIN_EXECS: usize = 3;
/// Executions before the first timed one after every bind (the first
/// faults the workspace's pages in).
const WARMUPS: usize = 1;
/// Child processes that measure `peak_rss_mb`.
const RSS_PROBES: usize = 3;

fn usage() -> String {
    format!(
        "e2e — end-to-end metrics (setup_s, exec_ms, peak_rss_mb) per workload, tracing off

USAGE:
    e2e [OPTIONS]                 measure, check against the reference, write the document
    e2e --prepare [OPTIONS]       only generate the .tns files under work/ (idempotent)
    e2e --compare A.json B.json   B against base A, one row per workload x metric
    e2e --rss-probe DIMS          (internal) child process of the peak_rss_mb measurement

OPTIONS:
{COMMON_USAGE}"
    )
}

/// Per-workload state across the run.
struct Run {
    w: Workload,
    inputs: Inputs,
    want: Vec<f64>,
    setup_s: Rounds,
    exec_ms: Rounds,
    rss_mb: Vec<f64>,
    attempted: u64,
    failed: u64,
    worst_rel_err: f64,
    errors: Vec<String>,
}

impl Run {
    fn fail(&mut self, what: &str, e: impl std::fmt::Display) {
        self.failed += 1;
        let msg = format!("{}: {what}: {e}", self.w.name);
        eprintln!("FAILED {msg}");
        self.errors.push(msg);
    }

    /// One round: cycles of (cold set-up, then steady-state executes on
    /// that executor, then the check of its output) until `slice` is
    /// used up. Every cycle binds afresh, because on a shared box where
    /// an executor's memory lands decides how fast it runs: the more
    /// executors a run draws, the surer it sees the program's own speed.
    fn round(&mut self, slice: Duration) {
        let start = Instant::now();
        let (mut setups, mut execs) = (Vec::new(), Vec::new());
        while setups.len() < MIN_CYCLES || start.elapsed() < slice {
            if !self.cycle(&mut setups, &mut execs) {
                break;
            }
        }
        self.setup_s.push_round(setups);
        self.exec_ms.push_round(execs);
    }

    /// Whether the cycle ran through; a failure is already counted.
    fn cycle(&mut self, setups: &mut Vec<f64>, execs: &mut Vec<f64>) -> bool {
        self.attempted += 1;
        let t = Instant::now();
        let ready = setup(
            &self.w,
            &self.inputs.tns,
            &self.inputs.named(),
            &PlanOptions::default(),
            &mut Untraced,
        );
        let setup_s = t.elapsed().as_secs_f64();
        let Ready { mut bound, .. } = match ready {
            Ok(ready) => ready,
            Err(e) => {
                self.fail("setup", e);
                return false;
            }
        };
        setups.push(setup_s);

        let mut out = bound.output_template();
        let exec_budget = setup_s * (1.0 - SETUP_SHARE) / SETUP_SHARE;
        let start = Instant::now();
        let mut runs = 0;
        while runs < WARMUPS + MIN_EXECS || start.elapsed().as_secs_f64() < exec_budget {
            self.attempted += 1;
            let t = Instant::now();
            if let Err(e) = bound.execute_into(&mut out) {
                self.fail("execute", e);
                return false;
            }
            runs += 1;
            if runs > WARMUPS {
                execs.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        self.check(&out);
        true
    }

    fn check(&mut self, out: &ContractionOutput) {
        self.attempted += 1;
        let (ok, rel) = reference::check(out, &self.want, &self.inputs.coo);
        self.worst_rel_err = self.worst_rel_err.max(rel);
        if !ok {
            self.fail(
                "reference",
                format!(
                    "output is {rel:.3e} of |ref|max away (tolerance {:e})",
                    reference::TOLERANCE
                ),
            );
        }
    }

    /// `peak_rss_mb`: a child that reads the file, sets up once and
    /// executes three times reports its own high-water mark.
    fn rss_probe(&mut self, c: &Common) {
        self.attempted += 1;
        let exe = match std::env::current_exe() {
            Ok(exe) => exe,
            Err(e) => return self.fail("rss probe", e),
        };
        // The extents go along so that the child can size the factors
        // without holding anything the program itself would not.
        let dims: Vec<String> = self.inputs.dims.iter().map(usize::to_string).collect();
        let mut cmd = Command::new(exe);
        cmd.args(["--rss-probe", &dims.join("x"), "--workload", self.w.name])
            .args(["--seed", &c.seed.to_string(), "--root"])
            .arg(&c.root);
        if c.smoke {
            cmd.arg("--smoke");
        }
        // `output` waits for the child to end.
        let parsed = cmd.output().map_err(|e| e.to_string()).and_then(|o| {
            let text = String::from_utf8_lossy(&o.stdout);
            text.trim()
                .strip_prefix("VmHWM_kB ")
                .filter(|_| o.status.success())
                .and_then(|kb| kb.parse::<f64>().ok())
                .ok_or_else(|| {
                    format!(
                        "child {}: {}",
                        o.status,
                        String::from_utf8_lossy(&o.stderr).trim()
                    )
                })
        });
        match parsed {
            Ok(kb) => self.rss_mb.push(kb / 1024.0),
            Err(e) => self.fail("rss probe", e),
        }
    }

    /// The three end-to-end metrics, each with its gated value and what
    /// is printed beside it.
    fn metrics(&self) -> Json {
        let [setup, exec, rss] = &END_TO_END;
        // Three probes have no quartiles to speak of: their spread is
        // the full range over the median.
        let (lo, hi) = self
            .rss_mb
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
        let rss_doc = obj([
            ("value", Json::from(median(&self.rss_mb))),
            ("unit", Json::from(rss.unit)),
            ("stat", Json::from(rss.gate.name())),
            ("n", Json::from(self.rss_mb.len())),
            ("probes", Json::from(self.rss_mb.clone())),
            (
                "spread",
                Json::from(if self.rss_mb.len() < 2 {
                    0.0
                } else {
                    (hi - lo) / median(&self.rss_mb)
                }),
            ),
        ]);
        obj([
            (setup.name, self.setup_s.summary(setup.gate, setup.unit)),
            (exec.name, self.exec_ms.summary(exec.gate, exec.unit)),
            (rss.name, rss_doc),
        ])
    }

    fn to_json(&self) -> Json {
        obj([
            ("expr", Json::from(self.w.expr)),
            ("why", Json::from(self.w.why)),
            (
                "tensor",
                obj([
                    ("dims", Json::from(self.inputs.dims.clone())),
                    ("nnz", Json::from(self.inputs.coo.nnz())),
                    (
                        "file",
                        Json::from(
                            self.inputs
                                .tns
                                .file_name()
                                .map_or(String::new(), |f| f.to_string_lossy().into_owned()),
                        ),
                    ),
                ]),
            ),
            ("metrics", self.metrics()),
            ("ops_attempted", Json::from(self.attempted)),
            ("ops_failed", Json::from(self.failed)),
            ("max_rel_err", Json::from(self.worst_rel_err)),
            ("errors", Json::from(self.errors.clone())),
        ])
    }
}

/// The child side of [`Run::rss_probe`]: nothing but what a user's
/// process would do, then the kernel's own account of the peak.
fn rss_probe_child(dims: &str, c: &Common) -> Result<(), Error> {
    let w = c.selection()?.remove(0);
    let tns = w.tns_path(&c.root, c.seed);
    let dims = dims
        .split('x')
        .map(str::parse)
        .collect::<Result<Vec<usize>, _>>()?;
    let factors = w.make_factors(c.seed, &dims);
    let named: Vec<_> = factors.iter().map(|(n, t)| (*n, t)).collect();
    let mut ready = setup(&w, &tns, &named, &PlanOptions::default(), &mut Untraced)?;
    let mut out = ready.bound.output_template();
    for _ in 0..3 {
        ready.bound.execute_into(&mut out)?;
    }
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .ok_or("no VmHWM in /proc/self/status")?;
    println!("VmHWM_kB {kb}");
    Ok(())
}

fn run_compare(a: &str, b: &str) -> Result<ExitCode, Error> {
    let read = |p: &str| -> Result<Json, Error> {
        Ok(
            Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
                .map_err(|e| format!("{p}: {e}"))?,
        )
    };
    let rows = compare::compare(&read(a)?, &read(b)?)?;
    print!("{}", compare::render(&rows));
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} worse, {} unresolved (A = {a}, B = {b}; ratios are B over base A)",
        count(compare::Verdict::Ok),
        count(compare::Verdict::Worse),
        count(compare::Verdict::Unresolved)
    );
    Ok(if count(compare::Verdict::Ok) == rows.len() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn print_table(runs: &[Run]) {
    println!(
        "\n{:<14} {:<12} {:>11} {:<3} {:>6} {:>5} {:>10} {:>10} {:>10} {:>7}",
        "workload", "metric", "value", "", "stat", "n", "p10", "p50", "p90", "spread"
    );
    for r in runs {
        let metrics = r.metrics();
        for m in &END_TO_END {
            let f = |key: &str, digits: usize| {
                metrics
                    .at(&[m.name, key])
                    .and_then(Json::as_f64)
                    .map_or("-".to_string(), |v| format!("{v:.digits$}"))
            };
            println!(
                "{:<14} {:<12} {:>11} {:<3} {:>6} {:>5} {:>10} {:>10} {:>10} {:>6}%",
                r.w.name,
                m.name,
                f("value", 4),
                m.unit,
                m.gate.name(),
                f("n", 0),
                f("p10", 4),
                f("p50", 4),
                f("p90", 4),
                metrics
                    .at(&[m.name, "spread"])
                    .and_then(Json::as_f64)
                    .map_or("-".to_string(), |v| format!("{:.1}", v * 100.0)),
            );
        }
        println!(
            "{:<14} ops_attempted {}  ops_failed {}  max_rel_err {:.2e}",
            r.w.name, r.attempted, r.failed, r.worst_rel_err
        );
    }
}

fn real_main() -> Result<ExitCode, Error> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let c = Common::take(&mut args)?;
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => {}
        ["--prepare"] => {
            for w in c.selection()? {
                let inputs = prepare(&w, &c.root, c.seed)?;
                println!("{}: {}", w.name, inputs.tns.display());
            }
            return Ok(ExitCode::SUCCESS);
        }
        ["--compare", a, b] => return run_compare(a, b),
        ["--rss-probe", dims] => {
            rss_probe_child(dims, &c)?;
            return Ok(ExitCode::SUCCESS);
        }
        ["-h"] | ["--help"] => {
            println!("{}", usage());
            return Ok(ExitCode::SUCCESS);
        }
        _ => return Err(format!("unexpected arguments {args:?}\n\n{}", usage()).into()),
    }

    let t_total = Instant::now();
    let peaks = machine::measure(if c.smoke { 0 } else { 1 });
    let mut runs = Vec::new();
    for w in c.selection()? {
        let inputs = prepare(&w, &c.root, c.seed)?;
        let want = reference::compute(&w, &inputs);
        runs.push(Run {
            w,
            inputs,
            want,
            setup_s: Rounds::default(),
            exec_ms: Rounds::default(),
            rss_mb: Vec::new(),
            attempted: 0,
            failed: 0,
            worst_rel_err: 0.0,
            errors: Vec::new(),
        });
    }
    eprintln!(
        "e2e: {} workload(s), seed {}, {} round(s) of {:.2} s each per workload (prepared in {:.1} s)",
        runs.len(),
        c.seed,
        c.rounds,
        c.seconds / c.rounds as f64,
        t_total.elapsed().as_secs_f64()
    );

    // Round-robin, so every workload samples the whole run and not one
    // slot of it that a noisy neighbour may own.
    let slice = Duration::from_secs_f64(c.seconds / c.rounds as f64);
    for _ in 0..c.rounds {
        for run in &mut runs {
            run.round(slice);
        }
    }
    for _ in 0..RSS_PROBES {
        for run in &mut runs {
            run.rss_probe(&c);
        }
    }

    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    // A run that measured nothing is not a correct run.
    let complete = runs
        .iter()
        .all(|r| r.setup_s.count() > 0 && r.exec_ms.count() > 0 && !r.rss_mb.is_empty());
    let correct = failed == 0 && complete;
    let doc = obj([
        ("schema", Json::from("spttn-benchmark/e2e/1")),
        (
            "machine",
            machine::stamp(c.seed, c.rounds, c.seconds, &peaks, None),
        ),
        ("smoke", Json::from(c.smoke)),
        (
            "workloads",
            obj(runs.iter().map(|r| (r.w.name, r.to_json()))),
        ),
        ("ops_attempted", Json::from(attempted)),
        ("ops_failed", Json::from(failed)),
        ("correct", Json::from(correct)),
        ("wall_s", Json::from(t_total.elapsed().as_secs_f64())),
    ]);
    let path = c.out.clone().unwrap_or_else(|| c.out_path("e2e"));
    write_json(&path, &doc)?;

    print_table(&runs);
    println!(
        "machine: {:.1} GFLOP/s FMA ({}), {:.1} GB/s triad, {} cpus; wall {:.1} s; wrote {}",
        peaks.fma_gflops,
        peaks.fma_isa,
        peaks.triad_gb_s,
        peaks.nproc,
        t_total.elapsed().as_secs_f64(),
        path.display()
    );
    // With one workload the names are the contract's; with several,
    // each is prefixed with its workload so none is used twice.
    let single = runs.len() == 1;
    let metrics = runs.iter().flat_map(|r| {
        let values = r.metrics();
        END_TO_END.iter().map(move |m| {
            let name = if single {
                m.name.to_string()
            } else {
                format!("{}.{}", r.w.name, m.name)
            };
            let value = values.at(&[m.name, "value"]).and_then(Json::as_f64);
            (name, value.unwrap_or(f64::NAN), m.unit)
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
