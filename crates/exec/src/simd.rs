//! SIMD microkernels with bind-time selection.
//!
//! The compiled tape ([`crate::tape`]) removed every per-visit
//! *decision* from the hot loops; what remains is per-element *work*
//! inside the scalar microkernels of [`crate::blas`]. This module
//! supplies vectorized twins of those kernels and a [`KernelSet`] that
//! picks an implementation **once, at bind time** — the chosen function
//! pointers are stored in the tape instructions themselves, so
//! execution never asks "which kernel?" again.
//!
//! ## Implementations
//!
//! | [`KernelSel`] | when                                                  |
//! |---------------|-------------------------------------------------------|
//! | `Scalar`      | always available — [`crate::blas`]'s arithmetic, unfused; the only tier on non-x86_64 targets |
//! | `Avx2Fma`     | x86_64 with AVX2+FMA detected at runtime              |
//! | `Avx512`      | x86_64 with AVX-512F (and AVX2+FMA) detected at runtime |
//!
//! The element-parallel kernels — AXPY, XMUL, GER and their assigning
//! twins — are written once, as plain loops, and instantiated once per
//! tier: under each x86 tier's `#[target_feature]` with `f64::mul_add`
//! (the compiler picks the vector width), and with no feature and
//! unfused products and sums as the scalar tier. DOT and GEMV are
//! hand-written AVX2 lane trees that both x86 tiers share; the scalar
//! tier's are [`crate::blas`]'s. Each tier is one table with one
//! function pointer per kernel family.
//!
//! Selection is *host state*, not *program shape*: program shape
//! depends only on the plan. Every bind of the same plan, at every
//! tier, compiles the same instruction stream (same fusion); binds
//! differ only in which function pointers the instructions carry.
//!
//! ## Rank specialization
//!
//! Tensor-network ranks are small and fixed (the benches use R ∈
//! {8, 16, 32}). Each kernel picks its body from its own trip count at
//! every call: a contiguous call at n = 8, 16 or 32 runs a body
//! monomorphized over that rank, which the compiler unrolls fully;
//! any other call runs the generic loop. That is one `match n` inside
//! the kernel (`at_rank!`) — the element-parallel kernels at every
//! tier, DOT and GEMV on the x86 tiers — so nothing upstream records
//! the choice. The [`KernelSet`] accessors report it ([`RankSpec`]) and
//! [`crate::CompiledTape::specialized`] counts the sites that take an
//! unrolled body.
//!
//! ## Determinism contract
//!
//! - Scalar kernels round every product and sum, in [`crate::blas`]'s
//!   order, and accumulate DOT and GEMV strictly left-to-right; forcing
//!   [`Microkernels::Scalar`] reproduces the reference interpreter
//!   [`crate::interp`] **bitwise**, fused program and all. (XMUL
//!   computes `α·(x·z)` where `blas` computes `(α·x)·z`; every caller
//!   passes `α = 1`.)
//! - Element-parallel SIMD kernels have no reduction order: a
//!   contiguous call computes each output element with one fused
//!   multiply-add (`y = fma(α, x, y)`, `y = fma(α, x·z, y)`,
//!   `a = fma(α·x_i, y_j, a)`; the assigning twins one product) at
//!   every length, tail included. Their results are therefore bitwise
//!   the same on `Avx2Fma` and `Avx512`. Strided calls run the scalar
//!   tier's unfused arithmetic on every tier.
//! - DOT and GEMV reduce through a *fixed lane tree*: lane-striped
//!   partial accumulators combined in a fixed order, then a strictly
//!   sequential scalar tail. The tree is 4 lanes wide on both x86
//!   tiers, so a sum is never reordered by which tier was detected.
//!   These stay hand-written intrinsics: a plain-Rust loop of the same
//!   tree was bitwise equal but 3–5× slower (n = 32 on an AVX-512 Xeon:
//!   18.7 vs 4.6 ns).
//! - Results are run-to-run bitwise stable at a fixed (thread count,
//!   kernel selection), and differ from strict scalar ordering only by
//!   FMA contraction and reassociation, bounded by the ≤1e-9
//!   differential tolerance the test suite enforces.
//!
//! The `SPTTN_MICROKERNELS` environment variable overrides the
//! programmatic option at bind time: `scalar` forces the scalar path,
//! anything else (or unset) behaves as `auto`.

use crate::blas;

/// Microkernel policy for bound executors (facade `ExecOptions` knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Microkernels {
    /// Vectorize when the host supports it: kernel implementations
    /// chosen by runtime CPU feature detection (scalar where nothing
    /// better exists).
    #[default]
    Auto,
    /// Force the scalar [`crate::blas`] kernel table. A kernel table,
    /// not a program shape: the tape is the one every tier runs, and
    /// its results equal the reference interpreter's bit for bit.
    Scalar,
}

/// Which kernel implementation family a bind selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelSel {
    /// Sequential scalar kernels ([`crate::blas`] semantics).
    Scalar,
    /// AVX2 + FMA (4 × f64 lanes).
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
    /// AVX-512F (8 × f64 lanes) for the element-parallel kernels
    /// (AXPY/GER/XMUL families, which have no reduction order); DOT and
    /// GEMV keep the AVX2 fixed lane tree so reduction shapes never
    /// depend on which x86 tier was detected. Requires AVX2+FMA as well
    /// (for those kernels).
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// Which body a microkernel call takes, as the [`KernelSet`] accessors
/// report it. `R8`/`R16`/`R32`: a contiguous call at that trip count,
/// which runs a fully-unrolled body (the element-parallel kernels at
/// every tier, DOT and GEMV on the x86 tiers); `Gen`: the generic loop.
/// Each kernel makes this choice from its own `n` at every call; nothing
/// records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankSpec {
    /// Generic trip count (runtime `n`, any stride).
    Gen,
    /// Contiguous, `n == 8`.
    R8,
    /// Contiguous, `n == 16`.
    R16,
    /// Contiguous, `n == 32`.
    R32,
}

impl RankSpec {
    /// The body a call at trip count `n` takes; `contig` means unit
    /// strides along the loop.
    pub fn of(n: usize, contig: bool) -> RankSpec {
        match n {
            8 if contig => RankSpec::R8,
            16 if contig => RankSpec::R16,
            32 if contig => RankSpec::R32,
            _ => RankSpec::Gen,
        }
    }
}

/// Whether a call at trip count `n` runs a fixed rank's unrolled body.
pub(crate) fn unrolled(n: usize, contig: bool) -> bool {
    RankSpec::of(n, contig) != RankSpec::Gen
}

/// `y[i*incy] += alpha * x[i*incx]` — signature of [`blas::axpy`].
pub type AxpyFn = fn(usize, f64, &[f64], usize, &mut [f64], usize);
/// `Σ x[i*incx] * y[i*incy]` — signature of [`blas::dot`].
pub type DotFn = fn(usize, &[f64], usize, &[f64], usize) -> f64;
/// `y[i*incy] += alpha * x[i*incx] * z[i*incz]` — signature of
/// [`blas::xmul`].
pub type XmulFn = fn(usize, f64, &[f64], usize, &[f64], usize, &mut [f64], usize);
/// `A[i,j] += alpha * x[i] * y[j]` — signature of [`blas::ger`].
pub type GerFn = fn(usize, usize, f64, &[f64], usize, &[f64], usize, &mut [f64], usize, usize);
/// `y[i] += alpha * Σ_j A[i,j] * x[j]` — signature of [`blas::gemv`].
pub type GemvFn = fn(usize, usize, f64, &[f64], usize, usize, &[f64], usize, &mut [f64], usize);

/// One tier's kernels: one function per family, each picking its body
/// from its own trip count at every call.
struct Table {
    name: &'static str,
    width: usize,
    axpy: AxpyFn,
    zaxpy: AxpyFn,
    dot: DotFn,
    xmul: XmulFn,
    zxmul: XmulFn,
    ger: GerFn,
    zger: GerFn,
    gemv: GemvFn,
}

/// A bind-time kernel selection: which implementation family to draw
/// function pointers from.
///
/// Program shape — fusion — depends only on the plan; the selection decides which table of kernels its calls point
/// into, by the [`Microkernels`] option and the host CPU. Copying the
/// set into the tape makes the selection permanent for that tape's
/// lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelSet {
    pub(crate) sel: KernelSel,
}

impl KernelSet {
    /// Resolve the policy against the environment override and the
    /// host CPU. Called once per tape compile (bind time).
    pub fn resolve(opt: Microkernels) -> KernelSet {
        let env = std::env::var("SPTTN_MICROKERNELS").ok();
        let env = env.as_deref().map(str::trim);
        if opt == Microkernels::Scalar || env.is_some_and(|v| v.eq_ignore_ascii_case("scalar")) {
            return KernelSet::scalar();
        }
        KernelSet::auto_detected()
    }

    /// The always-available scalar table: [`crate::blas`]'s arithmetic,
    /// unfused, and its assigning twins. A kernel table, not a program
    /// shape: the tape fuses as at every tier, and runs the reference
    /// interpreter's operation order bit for bit.
    pub fn scalar() -> KernelSet {
        KernelSet {
            sel: KernelSel::Scalar,
        }
    }

    /// The set [`Microkernels::Auto`] resolves to when no environment
    /// override is present: implementation by host detection.
    /// Differential tests and benches use this to exercise the
    /// vectorized kernels even while `SPTTN_MICROKERNELS=scalar` is
    /// forcing the rest of the suite scalar.
    pub fn auto_detected() -> KernelSet {
        KernelSet { sel: detect() }
    }

    /// Which implementation family this set draws from.
    pub fn selection(&self) -> KernelSel {
        self.sel
    }

    /// Human-readable name of the selection (bench/CLI reporting).
    pub fn name(&self) -> &'static str {
        self.table().name
    }

    /// f64 lanes per vector register for the selection (1 for scalar;
    /// the widest register the selection uses — AVX-512 reductions
    /// still run 4-wide, see [`KernelSel::Avx512`]).
    pub fn width(&self) -> usize {
        self.table().width
    }

    /// AXPY kernel, and the body a call at trip count `n` takes
    /// (`contig`: both increments 1). The kernel picks that body itself
    /// at every call; `_hint` is unread.
    pub fn axpy(&self, n: usize, contig: bool, _hint: Option<usize>) -> (AxpyFn, RankSpec) {
        (self.table().axpy, RankSpec::of(n, contig))
    }

    /// Assigning AXPY (`y = alpha * x`) for `ZeroAccum` fusion. Never
    /// skips the write — `alpha == 0` must still zero the target.
    pub fn zaxpy(&self) -> AxpyFn {
        self.table().zaxpy
    }

    /// DOT kernel, and the body a call at trip count `n` takes
    /// (`contig`: both increments 1).
    pub fn dot(&self, n: usize, contig: bool) -> (DotFn, RankSpec) {
        (self.table().dot, RankSpec::of(n, contig))
    }

    /// XMUL (elementwise ternary) kernel.
    pub fn xmul(&self) -> XmulFn {
        self.table().xmul
    }

    /// Assigning XMUL (`y = alpha * x ∘ z`) for `ZeroAccum` fusion.
    pub fn zxmul(&self) -> XmulFn {
        self.table().zxmul
    }

    /// GER (rank-1 update) kernel, and the body a call with row length
    /// `n` takes (`contig`: unit column stride and unit `y` increment).
    /// `_hint` is unread.
    pub fn ger(&self, n: usize, contig: bool, _hint: Option<usize>) -> (GerFn, RankSpec) {
        (self.table().ger, RankSpec::of(n, contig))
    }

    /// Assigning GER (`A = alpha * x ⊗ y`) for `ZeroAccum` fusion.
    pub fn zger(&self) -> GerFn {
        self.table().zger
    }

    /// GEMV kernel (`y += alpha * A x`).
    pub fn gemv(&self) -> GemvFn {
        self.table().gemv
    }

    fn table(&self) -> &'static Table {
        match self.sel {
            KernelSel::Scalar => &scalar::TABLE,
            #[cfg(target_arch = "x86_64")]
            KernelSel::Avx2Fma => &avx2::TABLE,
            #[cfg(target_arch = "x86_64")]
            KernelSel::Avx512 => &avx512::TABLE,
        }
    }
}

/// Whether this host can run `sel`'s kernels. Under Miri the vendor
/// intrinsics are unsupported, so only the scalar tier qualifies.
#[cfg(target_arch = "x86_64")]
fn host_supports(sel: KernelSel) -> bool {
    use std::arch::is_x86_feature_detected as has;
    let avx2 = !cfg!(miri) && has!("avx2") && has!("fma");
    match sel {
        KernelSel::Scalar => true,
        KernelSel::Avx2Fma => avx2,
        KernelSel::Avx512 => avx2 && has!("avx512f"),
    }
}

/// Pick the best implementation the host supports (program shape —
/// fusion — does not depend on it). Targets other than
/// x86_64 run the scalar tier.
fn detect() -> KernelSel {
    #[cfg(target_arch = "x86_64")]
    for sel in [KernelSel::Avx512, KernelSel::Avx2Fma] {
        if host_supports(sel) {
            return sel;
        }
    }
    KernelSel::Scalar
}

/// Comma-separated CPU features relevant to kernel selection that the
/// host actually has — recorded in bench artifacts so numbers carry
/// their provenance.
pub fn detected_cpu_features() -> String {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        let mut feats = Vec::new();
        for (name, have) in [
            ("sse2", std::arch::is_x86_feature_detected!("sse2")),
            ("avx", std::arch::is_x86_feature_detected!("avx")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ] {
            if have {
                feats.push(name);
            }
        }
        feats.join(",")
    }
    #[cfg(all(target_arch = "aarch64", not(miri)))]
    {
        "neon".to_string()
    }
    #[cfg(any(miri, not(any(target_arch = "x86_64", target_arch = "aarch64"))))]
    {
        String::new()
    }
}

/// `c + a·b`, rounded twice in [`blas`]'s order: the scalar tier's
/// accumulation, and every tier's strided one.
#[inline(always)]
fn unfused(a: f64, b: f64, c: f64) -> f64 {
    c + a * b
}

/// `$body::<R>(args)` (with `$assign` after `R` when given) where `R` is
/// the fixed rank `n` equals (8, 16 or 32), else 0: a call at a common
/// rank runs the unrolled body instead of the generic loop, whose
/// short-length remainder would run a 16-long call at a quarter of the
/// vector width.
macro_rules! at_rank {
    ($n:expr, $body:ident$(::<$assign:ident>)?($($arg:expr),*)) => {
        match $n {
            8 => $body::<8 $(, $assign)?>($($arg),*),
            16 => $body::<16 $(, $assign)?>($($arg),*),
            32 => $body::<32 $(, $assign)?>($($arg),*),
            _ => $body::<0 $(, $assign)?>($($arg),*),
        }
    };
}

/// DOT and GEMV for both x86 tiers (AVX2+FMA): one hand-written lane
/// tree, because the tree *is* the reduction order the determinism
/// contract fixes. The wrappers are the only call sites of the
/// `#[target_feature]` bodies and each carries the SAFETY argument for
/// why the required CPU features are present. Strided calls run the
/// scalar tier's [`blas`] loops.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::blas;
    use core::arch::x86_64::{
        _mm256_add_pd, _mm256_castpd256_pd128, _mm256_extractf128_pd, _mm256_fmadd_pd,
        _mm256_loadu_pd, _mm256_setzero_pd, _mm_add_pd, _mm_cvtsd_f64, _mm_unpackhi_pd,
    };

    /// Lane-striped dot product of the `n` elements at `xp` and `yp`
    /// (`n` is `N` when `N > 0`) with the fixed reduction tree `(acc0 +
    /// acc1) → (low128 + high128) → (lane0 + lane1)` followed by a
    /// strictly sequential scalar tail — the tree shape depends only on
    /// the 4-lane width, never on `n`, so results are run-to-run bitwise
    /// stable. At a fixed rank (a multiple of 8) the loop unrolls fully
    /// and there is no tail.
    ///
    /// # Safety
    ///
    /// `n` elements must be readable at both pointers.
    // SAFETY: an `unsafe fn` because it reads through raw pointers; see
    // `# Safety` above.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn lane_tree<const N: usize>(n: usize, xp: *const f64, yp: *const f64) -> f64 {
        let n = if N == 0 { n } else { N };
        // SAFETY: vector loads read `[i, i+4)` only while `i + 4 <= n`
        // (8-wide steps check `i + 8 <= n`); the scalar tail reads
        // `i < n`. The caller guarantees `n` readable elements.
        unsafe {
            let mut acc0 = _mm256_setzero_pd();
            let mut acc1 = _mm256_setzero_pd();
            let mut i = 0;
            while i + 8 <= n {
                acc0 =
                    _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)), acc0);
                acc1 = _mm256_fmadd_pd(
                    _mm256_loadu_pd(xp.add(i + 4)),
                    _mm256_loadu_pd(yp.add(i + 4)),
                    acc1,
                );
                i += 8;
            }
            if i + 4 <= n {
                acc0 =
                    _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)), acc0);
                i += 4;
            }
            let s = _mm256_add_pd(acc0, acc1);
            let lo = _mm256_castpd256_pd128(s);
            let hi = _mm256_extractf128_pd::<1>(s);
            let pair = _mm_add_pd(lo, hi);
            let mut acc = _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
            while i < n {
                acc += *xp.add(i) * *yp.add(i);
                i += 1;
            }
            acc
        }
    }

    /// Whole-matrix GEMV row loop inside one `#[target_feature]`
    /// region: each row's [`lane_tree`] inlines here, under one bound
    /// for every row. A fixed-rank `x` is copied into a local array so
    /// it stays in registers across rows instead of being reloaded per
    /// row.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    fn gemv_body<const N: usize>(
        m: usize,
        n: usize,
        alpha: f64,
        a: &[f64],
        rs: usize,
        x: &[f64],
        y: &mut [f64],
        incy: usize,
    ) {
        let n = if N == 0 { n } else { N };
        if m == 0 {
            return;
        }
        assert!(y.len() > (m - 1) * incy && a.len() >= (m - 1) * rs + n);
        let mut fixed = [0.0; N];
        fixed.copy_from_slice(&x[..N]);
        let x = if N == 0 { &x[..n] } else { &fixed[..] };
        let (ap, yp) = (a.as_ptr(), y.as_mut_ptr());
        // SAFETY: the assert bounds every access — row `i` reads
        // `[i*rs, i*rs + n) ⊆ [0, (m-1)*rs + n)` of `a` and `x` holds
        // `n` elements; `y` writes touch `i * incy ≤ (m-1) * incy` only.
        unsafe {
            for i in 0..m {
                *yp.add(i * incy) += alpha * lane_tree::<N>(n, ap.add(i * rs), x.as_ptr());
            }
        }
    }

    /// [`blas::dot`]-shaped wrapper.
    pub(super) fn dot(n: usize, x: &[f64], incx: usize, y: &[f64], incy: usize) -> f64 {
        if incx == 1 && incy == 1 {
            let (x, y) = (&x[..n], &y[..n]);
            // SAFETY: both slices hold `n` elements, and this is
            // reachable only via a `KernelSet` whose `detect()` observed
            // AVX2+FMA on this host at bind time.
            unsafe { at_rank!(n, lane_tree(n, x.as_ptr(), y.as_ptr())) }
        } else {
            blas::dot(n, x, incx, y, incy)
        }
    }

    /// [`blas::gemv`]-shaped wrapper: each row is one vector DOT.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn gemv(
        m: usize,
        n: usize,
        alpha: f64,
        a: &[f64],
        rs: usize,
        cs: usize,
        x: &[f64],
        incx: usize,
        y: &mut [f64],
        incy: usize,
    ) {
        if cs == 1 && incx == 1 {
            // SAFETY: reachable only via a `KernelSet` that detected
            // AVX2+FMA at bind time (see `dot` above).
            unsafe { at_rank!(n, gemv_body(m, n, alpha, a, rs, x, y, incy)) }
        } else {
            blas::gemv(m, n, alpha, a, rs, cs, x, incx, y, incy);
        }
    }
}

/// The element-parallel kernels of one tier — AXPY, XMUL and GER, each
/// with its assigning twin — written once as plain loops over
/// `$madd(a, b, c)`, `a·b + c`. An x86 tier compiles them under its
/// `#[target_feature]` with `f64::mul_add`, so the compiler vectorizes
/// them at its width with one rounding per element; the scalar tier
/// compiles them with no feature and [`unfused`], [`blas`]'s arithmetic.
///
/// Every body takes `const N` (0: runtime trip count, else the rank,
/// which lets the compiler unroll fully; every contiguous call at n = 8,
/// 16 or 32 runs that body, see `at_rank!`) and `const ASSIGN`
/// (overwrite instead of accumulate: the `ZeroAccum` twins). The entry
/// points keep the [`blas`] contract — accumulating kernels early-return
/// on `alpha == 0`, assigning ones never skip the write — and run
/// strided calls through [`unfused`], so a strided call is the scalar
/// tier's arithmetic at every tier.
macro_rules! element_parallel_tier {
    ($(#[$cfg:meta])? $tier:ident, [$($features:literal)?], $madd:path, $name:literal,
     $width:literal, $dot:path, $gemv:path) => {
        $(#[$cfg])?
        // The scalar tier's bodies need no CPU feature, so its calls
        // need no `unsafe`.
        #[allow(unused_unsafe)]
        mod $tier {
            use super::{unfused, Table};

            /// `y[..n] (+)= alpha * x[..n]`.
            ///
            /// The bodies stay out of line, as a `#[target_feature]`
            /// body is anyway: inlined into the scalar tier's entry,
            /// a fixed-rank body vectorizes only in part.
            $(#[target_feature(enable = $features)])?
            #[inline(never)]
            fn axpy_body<const N: usize, const ASSIGN: bool>(
                n: usize,
                alpha: f64,
                x: &[f64],
                y: &mut [f64],
            ) {
                let n = if N == 0 { n } else { N };
                for (yi, &xi) in y[..n].iter_mut().zip(&x[..n]) {
                    *yi = if ASSIGN { alpha * xi } else { $madd(alpha, xi, *yi) };
                }
            }

            /// `y[..n] (+)= alpha * (x[..n] ∘ z[..n])`.
            $(#[target_feature(enable = $features)])?
            #[inline(never)]
            fn xmul_body<const N: usize, const ASSIGN: bool>(
                n: usize,
                alpha: f64,
                x: &[f64],
                z: &[f64],
                y: &mut [f64],
            ) {
                let n = if N == 0 { n } else { N };
                for ((yi, &xi), &zi) in y[..n].iter_mut().zip(&x[..n]).zip(&z[..n]) {
                    let t = xi * zi;
                    *yi = if ASSIGN { alpha * t } else { $madd(alpha, t, *yi) };
                }
            }

            /// Rows `a[i*rs..][..n] (+)= (alpha * x[i*incx]) * y[..n]`.
            /// One up-front bound covers every row; a fixed-rank `y` is
            /// copied into a local array so it stays in registers
            /// across rows.
            $(#[target_feature(enable = $features)])?
            #[inline(never)]
            #[allow(clippy::too_many_arguments)]
            fn ger_body<const N: usize, const ASSIGN: bool>(
                m: usize,
                n: usize,
                alpha: f64,
                x: &[f64],
                incx: usize,
                y: &[f64],
                a: &mut [f64],
                rs: usize,
            ) {
                let n = if N == 0 { n } else { N };
                if m == 0 {
                    return;
                }
                assert!(x.len() > (m - 1) * incx && a.len() >= (m - 1) * rs + n);
                let mut fixed = [0.0; N];
                fixed.copy_from_slice(&y[..N]);
                let y = if N == 0 { &y[..n] } else { &fixed[..] };
                for i in 0..m {
                    let xi = alpha * x[i * incx];
                    for (aij, &yj) in a[i * rs..i * rs + n].iter_mut().zip(y) {
                        *aij = if ASSIGN { xi * yj } else { $madd(xi, yj, *aij) };
                    }
                }
            }

            fn axpy<const ASSIGN: bool>(
                n: usize,
                alpha: f64,
                x: &[f64],
                incx: usize,
                y: &mut [f64],
                incy: usize,
            ) {
                if !ASSIGN && alpha == 0.0 {
                    return; // match blas::axpy: even NaN inputs leave y alone
                }
                if incx != 1 || incy != 1 {
                    for i in 0..n {
                        let (xi, yi) = (x[i * incx], &mut y[i * incy]);
                        *yi = if ASSIGN { alpha * xi } else { unfused(alpha, xi, *yi) };
                    }
                    return;
                }
                // SAFETY: this tier's table is only reachable through a
                // `KernelSet` whose `detect()` observed the tier's CPU
                // features on this host at bind time.
                unsafe { at_rank!(n, axpy_body::<ASSIGN>(n, alpha, x, y)) }
            }

            #[allow(clippy::too_many_arguments)]
            fn xmul<const ASSIGN: bool>(
                n: usize,
                alpha: f64,
                x: &[f64],
                incx: usize,
                z: &[f64],
                incz: usize,
                y: &mut [f64],
                incy: usize,
            ) {
                if incx != 1 || incz != 1 || incy != 1 {
                    for i in 0..n {
                        let (t, yi) = (x[i * incx] * z[i * incz], &mut y[i * incy]);
                        *yi = if ASSIGN { alpha * t } else { unfused(alpha, t, *yi) };
                    }
                    return;
                }
                // SAFETY: as in `axpy` — detected at bind time.
                unsafe { at_rank!(n, xmul_body::<ASSIGN>(n, alpha, x, z, y)) }
            }

            #[allow(clippy::too_many_arguments)]
            fn ger<const ASSIGN: bool>(
                m: usize,
                n: usize,
                alpha: f64,
                x: &[f64],
                incx: usize,
                y: &[f64],
                incy: usize,
                a: &mut [f64],
                rs: usize,
                cs: usize,
            ) {
                if !ASSIGN && alpha == 0.0 {
                    return; // match blas::ger
                }
                if cs != 1 || incy != 1 {
                    for i in 0..m {
                        let xi = alpha * x[i * incx];
                        for j in 0..n {
                            let (yj, aij) = (y[j * incy], &mut a[i * rs + j * cs]);
                            *aij = if ASSIGN { xi * yj } else { unfused(xi, yj, *aij) };
                        }
                    }
                    return;
                }
                // SAFETY: as in `axpy` — detected at bind time.
                unsafe { at_rank!(n, ger_body::<ASSIGN>(m, n, alpha, x, incx, y, a, rs)) }
            }

            pub(super) static TABLE: Table = Table {
                name: $name,
                width: $width,
                axpy: axpy::<false>,
                zaxpy: axpy::<true>,
                dot: $dot,
                xmul: xmul::<false>,
                zxmul: xmul::<true>,
                ger: ger::<false>,
                zger: ger::<true>,
                gemv: $gemv,
            };
        }
    };
}

element_parallel_tier!(
    scalar,
    [],
    unfused,
    "scalar",
    1,
    super::blas::dot,
    super::blas::gemv
);
element_parallel_tier!(
    #[cfg(target_arch = "x86_64")]
    avx2,
    ["avx2,fma"],
    f64::mul_add,
    "avx2+fma",
    4,
    super::x86::dot,
    super::x86::gemv
);
element_parallel_tier!(
    #[cfg(target_arch = "x86_64")]
    avx512,
    ["avx512f"],
    f64::mul_add,
    "avx512f",
    8,
    super::x86::dot,
    super::x86::gemv
);

#[cfg(test)]
mod tests {
    use super::*;

    /// Resolving `Scalar` picks the scalar table and nothing else: the
    /// body each call takes is the kernel's choice at every tier.
    #[test]
    fn resolve_scalar_disables_fusion() {
        let ks = KernelSet::resolve(Microkernels::Scalar);
        assert_eq!(ks.selection(), KernelSel::Scalar);
        assert_eq!(ks.width(), 1);
        assert_eq!(ks.name(), "scalar");
        assert_eq!(ks.axpy(8, true, Some(8)).1, RankSpec::R8);
        assert_eq!(ks.axpy(8, false, Some(8)).1, RankSpec::Gen);
    }

    /// The accessors report the unrolled body exactly for contiguous
    /// calls at 8, 16 and 32; the hint is unread.
    #[test]
    fn auto_specializes_only_on_pinned_contiguous_ranks() {
        // `auto_detected`, not `resolve(Auto)`: the scalar-forced CI
        // leg exports SPTTN_MICROKERNELS=scalar, which would turn
        // resolve's answer scalar.
        let ks = KernelSet::auto_detected();
        assert_eq!(ks.axpy(8, true, Some(8)).1, RankSpec::R8);
        assert_eq!(ks.ger(16, true, None).1, RankSpec::R16);
        assert_eq!(ks.dot(32, true).1, RankSpec::R32);
        assert_eq!(ks.axpy(16, true, Some(8)).1, RankSpec::R16);
        // Not a fixed rank / not contiguous → Gen.
        assert_eq!(ks.axpy(12, true, Some(12)).1, RankSpec::Gen);
        assert_eq!(ks.axpy(16, false, Some(16)).1, RankSpec::Gen);
        assert_eq!(ks.dot(24, true).1, RankSpec::Gen);
    }

    #[test]
    fn zero_twins_overwrite_even_with_zero_alpha() {
        // The fused kernels own the Eq.-5 zero point: alpha == 0 must
        // still clear stale target data (blas::axpy would early-return).
        for ks in [KernelSet::scalar(), KernelSet::auto_detected()] {
            let x = [1.0_f64; 8];
            let mut y = [f64::NAN; 8];
            ks.zaxpy()(8, 0.0, &x, 1, &mut y, 1);
            assert_eq!(y, [0.0; 8], "{} zaxpy must assign", ks.name());

            let mut a = [f64::NAN; 6];
            ks.zger()(2, 3, 0.0, &[1.0, 2.0], 1, &[3.0, 4.0, 5.0], 1, &mut a, 3, 1);
            assert_eq!(a, [0.0; 6], "{} zger must assign", ks.name());
        }
    }

    /// The trip counts `tests/simd_diff.rs` sweeps.
    const LENS: &[usize] = &[
        0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 100, 257,
    ];

    fn vals(n: usize, seed: f64) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.754_877 + seed).sin())
            .collect()
    }

    /// Every tier this host can run, the scalar one first.
    fn tiers() -> Vec<KernelSel> {
        #[cfg(target_arch = "x86_64")]
        let tiers = [KernelSel::Scalar, KernelSel::Avx2Fma, KernelSel::Avx512]
            .into_iter()
            .filter(|&sel| host_supports(sel))
            .collect();
        #[cfg(not(target_arch = "x86_64"))]
        let tiers = vec![KernelSel::Scalar];
        tiers
    }

    /// The loop every element-parallel call must equal bitwise:
    /// `y[i·iy] (+)= alpha · t` with `t = x[i·ix] (· z[i·iz])`, one
    /// fused multiply-add per element when `fused`, else the unfused
    /// `alpha * t + y`; the product alone when assigning. Accumulating
    /// calls skip `alpha == 0` as `blas` does.
    #[allow(clippy::too_many_arguments)]
    fn reference(
        fused: bool,
        alpha: f64,
        assign: bool,
        n: usize,
        (x, ix): (&[f64], usize),
        z: Option<(&[f64], usize)>,
        y: &mut [f64],
        iy: usize,
    ) {
        if !assign && alpha == 0.0 {
            return;
        }
        for i in 0..n {
            let t = z.map_or(x[i * ix], |(z, iz)| x[i * ix] * z[i * iz]);
            let yi = &mut y[i * iy];
            *yi = if assign {
                alpha * t
            } else if fused {
                alpha.mul_add(t, *yi)
            } else {
                alpha * t + *yi
            };
        }
    }

    fn assert_bits(got: &[f64], want: &[f64], what: &str) {
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{what}");
    }

    /// Every tier the host has equals [`reference`] bit for bit on
    /// AXPY, ZAXPY, XMUL, ZXMUL, GER and ZGER at every length, tails and
    /// fixed ranks included, contiguous and strided: a contiguous x86
    /// call fuses each element's multiply-add, the scalar tier and every
    /// strided call do not.
    #[test]
    fn element_parallel_kernels_are_one_fma_per_element_on_every_tier() {
        for sel in tiers() {
            let ks = KernelSet { sel };
            for &n in LENS {
                // (x, z, y) strides: contiguous, then strided sources and
                // a strided target.
                for (ix, iz, iy) in [(1, 1, 1), (2, 3, 1), (1, 1, 3)] {
                    let contig = (ix, iz, iy) == (1, 1, 1);
                    let fused = contig && sel != KernelSel::Scalar;
                    let x = vals(n * ix, 0.1);
                    let z = vals(n * iz, 0.7);
                    let y0 = vals(n * iy, 1.3);
                    for alpha in [1.37, 0.0, -2.5] {
                        for assign in [false, true] {
                            let what = format!(
                                "{} n={n} strides=({ix},{iz},{iy}) a={alpha} assign={assign}",
                                ks.name()
                            );
                            let kern = if assign {
                                ks.zaxpy()
                            } else {
                                ks.axpy(n, true, None).0
                            };
                            let (mut got, mut want) = (y0.clone(), y0.clone());
                            kern(n, alpha, &x, ix, &mut got, iy);
                            reference(fused, alpha, assign, n, (&x, ix), None, &mut want, iy);
                            assert_bits(&got, &want, &format!("axpy {what}"));

                            let kern = if assign { ks.zxmul() } else { ks.xmul() };
                            let (mut got, mut want) = (y0.clone(), y0.clone());
                            kern(n, alpha, &x, ix, &z, iz, &mut got, iy);
                            let zs = Some((&z[..], iz));
                            reference(fused, alpha, assign, n, (&x, ix), zs, &mut want, iy);
                            assert_bits(&got, &want, &format!("xmul {what}"));

                            // GER: 5 rows of length n along `y` (stride
                            // `ix`), column stride `iy`, padded rows.
                            let (m, cs) = (5, iy);
                            let rs = n * cs + 3;
                            let kern = if assign {
                                ks.zger()
                            } else {
                                ks.ger(n, true, None).0
                            };
                            let xs = vals(m, 2.1);
                            let a0 = vals(m * rs, 2.9);
                            let (mut got, mut want) = (a0.clone(), a0);
                            kern(m, n, alpha, &xs, 1, &x, ix, &mut got, rs, cs);
                            // Row i is an AXPY of `y` by `alpha * x[i]`.
                            if assign || alpha != 0.0 {
                                for (i, &xi) in xs.iter().enumerate() {
                                    let row = &mut want[i * rs..];
                                    reference(
                                        fused,
                                        alpha * xi,
                                        assign,
                                        n,
                                        (&x, ix),
                                        None,
                                        row,
                                        cs,
                                    );
                                }
                            }
                            assert_bits(&got, &want, &format!("ger {what}"));
                        }
                    }
                }
            }
        }
    }

    /// The documented DOT lane tree in plain Rust: fused products into
    /// 4-lane accumulators `acc0` (offsets 0, 8, …) and `acc1` (4, 12,
    /// …), one 4-wide step into `acc0`, then `(acc0 + acc1) → (lo + hi)
    /// → (lane0 + lane1)` and the tail added in order.
    fn lane_tree(x: &[f64], y: &[f64]) -> f64 {
        let n = x.len();
        let step = |acc: &mut [f64; 4], i: usize| {
            for (l, a) in acc.iter_mut().enumerate() {
                *a = x[i + l].mul_add(y[i + l], *a);
            }
        };
        let (mut acc0, mut acc1) = ([0.0; 4], [0.0; 4]);
        let mut i = 0;
        while i + 8 <= n {
            step(&mut acc0, i);
            step(&mut acc1, i + 4);
            i += 8;
        }
        if i + 4 <= n {
            step(&mut acc0, i);
            i += 4;
        }
        let s: Vec<f64> = acc0.iter().zip(&acc1).map(|(a, b)| a + b).collect();
        let mut acc = (s[0] + s[2]) + (s[1] + s[3]);
        for k in i..n {
            acc += x[k] * y[k];
        }
        acc
    }

    /// DOT and every GEMV row on each x86 tier the host has reduce
    /// through [`lane_tree`] bit for bit at every length 0..=40 (the
    /// fixed ranks included), with padded GEMV rows; strided calls sum
    /// in order.
    #[test]
    fn dot_and_gemv_reduce_through_the_documented_lane_tree() {
        for sel in tiers().into_iter().filter(|&s| s != KernelSel::Scalar) {
            let ks = KernelSet { sel };
            for n in 0..=40 {
                let what = format!("{} n={n}", ks.name());
                let (x, y) = (vals(n, 0.3), vals(n, 1.9));
                let got = ks.dot(n, true).0(n, &x, 1, &y, 1);
                assert_bits(&[got], &[lane_tree(&x, &y)], &format!("dot {what}"));

                let (m, rs, alpha) = (3, n + 5, 0.7);
                let a = vals(m * rs, 2.3);
                let y0 = vals(m, 0.9);
                let mut got = y0.clone();
                ks.gemv()(m, n, alpha, &a, rs, 1, &x, 1, &mut got, 1);
                let want: Vec<f64> = (0..m)
                    .map(|i| y0[i] + alpha * lane_tree(&a[i * rs..i * rs + n], &x))
                    .collect();
                assert_bits(&got, &want, &format!("gemv {what}"));

                // Strided: `x` at stride 2.
                let xs = vals(2 * n, 0.3);
                let in_order = |a: &[f64]| (0..n).fold(0.0, |acc, j| acc + a[j] * xs[2 * j]);
                let got = ks.dot(n, false).0(n, &y, 1, &xs, 2);
                assert_bits(&[got], &[in_order(&y)], &format!("strided dot {what}"));
                let mut got = y0.clone();
                ks.gemv()(m, n, alpha, &a, rs, 1, &xs, 2, &mut got, 1);
                let want: Vec<f64> = (0..m)
                    .map(|i| y0[i] + alpha * in_order(&a[i * rs..]))
                    .collect();
                assert_bits(&got, &want, &format!("strided gemv {what}"));
            }
        }
    }
}
