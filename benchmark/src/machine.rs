//! What box the numbers came from: a static description (CPU, caches,
//! toolchain, commit) and two peaks measured in the same run — the FMA
//! rate and a STREAM-style triad — so that every rate in a document has
//! a denominator from the same machine at the same moment.

use crate::json::{obj, Json};
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Peaks measured by [`measure`]. Single-threaded, like every workload.
#[derive(Debug, Clone)]
pub struct Peaks {
    pub fma_gflops: f64,
    /// Instruction set the FMA loop ran with.
    pub fma_isa: &'static str,
    pub triad_gb_s: f64,
    /// Bytes in each of the triad's three arrays.
    pub triad_array_bytes: usize,
    /// Last-level cache the OS reports (0 when it reports none).
    pub llc_bytes: usize,
    pub nproc: usize,
}

impl Peaks {
    pub fn to_json(&self) -> Json {
        obj([
            ("machine.fma_gflops", Json::from(self.fma_gflops)),
            ("machine.fma_isa", Json::from(self.fma_isa)),
            ("machine.triad_gb_s", Json::from(self.triad_gb_s)),
            (
                "machine.triad_array_mb",
                Json::from(self.triad_array_bytes as f64 / 1e6),
            ),
            ("machine.llc_mb", Json::from(self.llc_bytes as f64 / 1e6)),
            ("machine.nproc", Json::from(self.nproc)),
        ])
    }
}

/// Measure the box. `effort` scales how long it may take: 0 is the
/// smoke run (cache-sized triad, only there to exercise the code), 1 is
/// `e2e` (about a second in all), 2 is `layers`.
pub fn measure(effort: u8) -> Peaks {
    let llc_bytes = cache_sizes()
        .iter()
        .map(|(_, bytes)| *bytes)
        .max()
        .unwrap_or(0);
    // Each array at least four times the last-level cache, so no pass
    // can be served from it; with no reported cache, assume 32 MB. The
    // three arrays together stay under a quarter of available memory.
    let want = 4 * if llc_bytes > 0 { llc_bytes } else { 32 << 20 };
    let cap = mem_available_bytes().map_or(want, |avail| avail / 4 / 3);
    let (burst_s, want, touch_s, passes) = match effort {
        0 => (0.01, 1 << 20, 0.05, 2),
        1 => (0.08, want.min(cap), 0.4, 2),
        _ => (0.2, want.min(cap), 2.0, 3),
    };
    let (fma_gflops, fma_isa) = fma_peak(burst_s);
    let (triad_gb_s, triad_array_bytes) = triad(want / 8, touch_s, passes);
    Peaks {
        fma_gflops,
        fma_isa,
        triad_gb_s,
        triad_array_bytes,
        llc_bytes,
        nproc: nproc(),
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Independent accumulator vectors: enough chains to cover the FMA
/// latency on two ports (4–5 cycles × 2) without spilling registers.
const CHAINS: usize = 10;

/// One FMA burst written with the vendor intrinsics (the
/// auto-vectoriser turns the equivalent array loop into scalar code).
/// Returns a value that depends on every chain so nothing is removed.
#[cfg(target_arch = "x86_64")]
macro_rules! fma_burst {
    ($name:ident, $feature:literal, $lanes:literal, $set1:ident, $fmadd:ident, $store:ident) => {
        #[target_feature(enable = $feature)]
        fn $name(iters: u64) -> f64 {
            use std::arch::x86_64::*;
            let x = $set1(black_box(0.999_999_9));
            let y = $set1(black_box(1e-9));
            let mut acc = [$set1(0.5); CHAINS];
            for _ in 0..iters {
                for a in acc.iter_mut() {
                    *a = $fmadd(*a, x, y);
                }
            }
            let mut lanes = [0.0f64; $lanes];
            let mut sum = 0.0;
            for a in acc {
                // SAFETY: `lanes` holds exactly one vector's worth of
                // f64 and the store is the unaligned form.
                unsafe { $store(lanes.as_mut_ptr(), a) };
                sum += lanes.iter().sum::<f64>();
            }
            sum
        }
    };
}

#[cfg(target_arch = "x86_64")]
fma_burst!(
    fma_avx512,
    "avx512f",
    8,
    _mm512_set1_pd,
    _mm512_fmadd_pd,
    _mm512_storeu_pd
);
#[cfg(target_arch = "x86_64")]
fma_burst!(
    fma_avx2,
    "avx2,fma",
    4,
    _mm256_set1_pd,
    _mm256_fmadd_pd,
    _mm256_storeu_pd
);

/// Scalar chains for a CPU without either x86 vector FMA. `mul_add`
/// is one instruction where the baseline target has a fused
/// multiply-add (aarch64) and a libm call where it has not, so the
/// label says which loop ran, not how fast the box could go.
fn fma_scalar(iters: u64) -> f64 {
    let mut acc = [0.5f64; CHAINS];
    let x = black_box(0.999_999_9f64);
    let y = black_box(1e-9f64);
    for _ in 0..iters {
        for a in acc.iter_mut() {
            *a = a.mul_add(x, y);
        }
    }
    acc.iter().sum()
}

/// Best FMA rate over three bursts of about `seconds` each, with the
/// widest vector unit the CPU reports.
fn fma_peak(seconds: f64) -> (f64, &'static str) {
    type Loop = fn(u64) -> f64;
    #[allow(unused_mut)]
    let mut pick: (Loop, usize, &'static str) = (fma_scalar, 1, "scalar");
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the feature the function is compiled for was just detected.
            pick = (|n| unsafe { fma_avx512(n) }, 8, "avx512f");
        } else if std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: both features the function is compiled for were just detected.
            pick = (|n| unsafe { fma_avx2(n) }, 4, "avx2+fma");
        }
    }
    let (run, lanes, isa) = pick;
    let flops = |iters: u64| (iters * (CHAINS * lanes * 2) as u64) as f64;
    // Size one burst from a short calibration run.
    let calib = 100_000u64;
    let t = Instant::now();
    black_box(run(black_box(calib)));
    let per_iter = t.elapsed().as_secs_f64() / calib as f64;
    let iters = ((seconds / per_iter) as u64).max(calib);
    let mut best = 0.0f64;
    for _ in 0..3 {
        let t = Instant::now();
        black_box(run(black_box(iters)));
        best = best.max(flops(iters) / t.elapsed().as_secs_f64() / 1e9);
    }
    (best, isa)
}

/// STREAM triad `a[i] = b[i] + s·c[i]`: best of `passes`, counting 24
/// bytes per element (the convention; the write-allocate read of `a`
/// is not counted). Returns the rate and the bytes per array used.
///
/// The arrays are asked for at `want` doubles each, but first touch is
/// time-boxed: on a small VM faulting in fresh gigabytes can take tens
/// of seconds, so pages are touched chunk by chunk until `touch_budget`
/// runs out and the passes run over what was touched. The size reached
/// is reported next to the cache size it was meant to exceed.
fn triad(want: usize, touch_budget: f64, passes: usize) -> (f64, usize) {
    const CHUNK: usize = 1 << 19; // 4 MB of doubles per array per step
    let want = want.max(CHUNK);
    // Zeroed allocations are mapped lazily; nothing is resident yet.
    let mut a = vec![0.0f64; want];
    let mut b = vec![0.0f64; want];
    let mut c = vec![0.0f64; want];
    let start = Instant::now();
    let mut n = 0usize;
    while n < want && (n == 0 || start.elapsed().as_secs_f64() < touch_budget) {
        let end = (n + CHUNK).min(want);
        a[n..end].fill(0.5);
        b[n..end].fill(1.0);
        c[n..end].fill(2.0);
        n = end;
    }
    let (a, b, c) = (&mut a[..n], &b[..n], &c[..n]);
    let s = black_box(3.0f64);
    let mut best = 0.0f64;
    for _ in 0..passes {
        let t = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(b).zip(c) {
            *ai = bi + s * ci;
        }
        black_box(&mut *a);
        best = best.max((24 * n) as f64 / t.elapsed().as_secs_f64() / 1e9);
    }
    (best, n * 8)
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// `(label, bytes)` of each cache level the OS reports for CPU 0.
pub fn cache_sizes() -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let (Some(level), Some(kind), Some(size)) = (
            read_trimmed(&format!("{dir}/level")),
            read_trimmed(&format!("{dir}/type")),
            read_trimmed(&format!("{dir}/size")),
        ) else {
            continue;
        };
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<usize>().map(|k| k << 10),
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<usize>().map(|m| m << 20),
                None => size.parse::<usize>(),
            },
        };
        if let Ok(bytes) = bytes {
            let kind = match kind.as_str() {
                "Data" => "d",
                "Instruction" => "i",
                _ => "",
            };
            out.push((format!("L{level}{kind}"), bytes));
        }
    }
    out
}

fn proc_field(file: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(file)
        .ok()?
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

fn mem_available_bytes() -> Option<usize> {
    let kb = proc_field("/proc/meminfo", "MemAvailable")?;
    kb.split_whitespace()
        .next()?
        .parse::<usize>()
        .ok()
        .map(|k| k << 10)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The machine stamp every document carries. `lib_cpu_features` is what
/// the library itself detected (`layers` passes it; `e2e` stays on the
/// CLI's call surface and reports only what the OS lists).
pub fn stamp(
    seed: u64,
    rounds: usize,
    seconds: f64,
    peaks: &Peaks,
    lib_cpu_features: Option<String>,
) -> Json {
    let simd_flags: Vec<String> = proc_field("/proc/cpuinfo", "flags")
        .unwrap_or_default()
        .split_whitespace()
        .filter(|f| {
            matches!(
                *f,
                "sse4_2" | "avx" | "avx2" | "fma" | "avx512f" | "avx512dq" | "avx512vl"
            )
        })
        .map(str::to_string)
        .collect();
    let unknown = || "unknown".to_string();
    obj([
        (
            "cpu_model",
            Json::from(proc_field("/proc/cpuinfo", "model name").unwrap_or_else(unknown)),
        ),
        ("nproc", Json::from(nproc())),
        ("cpu_flags", Json::from(simd_flags)),
        ("spttn_cpu_features", Json::from(lib_cpu_features)),
        (
            "caches",
            obj(cache_sizes()
                .into_iter()
                .map(|(label, bytes)| (label, Json::from(bytes)))),
        ),
        (
            "rustc",
            Json::from(command_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        (
            // The gate runs in a checkout that is not a git repository.
            "git_sha",
            Json::from(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        ("seed", Json::from(seed)),
        ("rounds", Json::from(rounds)),
        ("seconds", Json::from(seconds)),
        ("peaks", peaks.to_json()),
    ])
}
