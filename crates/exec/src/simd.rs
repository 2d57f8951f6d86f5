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
//! | `Scalar`      | always available — exactly [`crate::blas`]; the only tier on non-x86_64 targets |
//! | `Avx2Fma`     | x86_64 with AVX2+FMA detected at runtime              |
//! | `Avx512`      | x86_64 with AVX-512F (and AVX2+FMA) detected at runtime |
//!
//! The element-parallel kernels — AXPY, XMUL, GER, their assigning
//! twins and their rank-specialized bodies — are written once, as plain
//! `f64::mul_add` loops, and compiled once per x86 tier under that
//! tier's `#[target_feature]`; the compiler picks the vector width.
//! DOT and GEMV are hand-written AVX2 lane trees that both x86 tiers
//! share. Each tier is one table of function pointers.
//!
//! Selection is *host state*, not *program shape*: program shape
//! depends only on the plan. Every bind of the same plan, at every
//! tier, compiles the same instruction stream (same fusion, same rank
//! specialization); binds differ only in which function pointers the
//! instructions carry.
//!
//! ## Rank specialization
//!
//! Tensor-network ranks are small and fixed (the benches use R ∈
//! {8, 16, 32}); when a kernel's trip count is statically one of those
//! — known at bind time from the `BufferSpec` dims — the tape records a
//! monomorphized, fully-unrolled body ([`RankSpec::R8`]/`R16`/`R32`)
//! instead of the generic loop. On the x86 tiers a generic
//! element-parallel call whose runtime `n` is 8, 16 or 32 runs the same
//! unrolled body.
//!
//! ## Determinism contract
//!
//! - Scalar kernels accumulate strictly left-to-right, exactly like
//!   [`crate::blas`]; forcing [`Microkernels::Scalar`] reproduces the
//!   reference interpreter [`crate::interp`] **bitwise**, fused
//!   program and all.
//! - Element-parallel SIMD kernels have no reduction order: a
//!   contiguous call computes each output element with one fused
//!   multiply-add (`y = fma(α, x, y)`, `y = fma(α, x·z, y)`,
//!   `a = fma(α·x_i, y_j, a)`; the assigning twins one product) at
//!   every length, tail included. Their results are therefore bitwise
//!   the same on `Avx2Fma` and `Avx512`. Strided calls run the scalar
//!   kernels on both tiers.
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

/// Bind-time rank specialization recorded on a tape instruction.
///
/// `R8`/`R16`/`R32` promise a contiguous trip count statically equal to
/// 8/16/32 and dispatch to a fully-unrolled monomorphized body; `Gen`
/// is the generic strided kernel. The tape verifier checks the promise
/// against the recorded extents.
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
    /// The promised trip count, or `None` for the generic kernel.
    pub fn rank(self) -> Option<usize> {
        match self {
            RankSpec::Gen => None,
            RankSpec::R8 => Some(8),
            RankSpec::R16 => Some(16),
            RankSpec::R32 => Some(32),
        }
    }

    /// Specialization decision: `n` must be one of the supported fixed
    /// ranks, the access contiguous, and the trip count statically
    /// pinned (`hint == Some(n)` — the output row length or the
    /// `BufferSpec`'s innermost dim).
    fn of(n: usize, contig: bool, hint: Option<usize>) -> RankSpec {
        if !contig || hint != Some(n) {
            return RankSpec::Gen;
        }
        match n {
            8 => RankSpec::R8,
            16 => RankSpec::R16,
            32 => RankSpec::R32,
            _ => RankSpec::Gen,
        }
    }
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

/// One tier's kernels. Families with rank twins are indexed by
/// [`RankSpec`] in declaration order (`Gen`, `R8`, `R16`, `R32`).
struct Table {
    name: &'static str,
    width: usize,
    axpy: [AxpyFn; 4],
    zaxpy: [AxpyFn; 4],
    dot: [DotFn; 4],
    xmul: XmulFn,
    zxmul: XmulFn,
    ger: [GerFn; 4],
    zger: GerFn,
    gemv: [GemvFn; 4],
}

/// The scalar tier: [`blas`] for the generic bodies (and for DOT/GEMV
/// at every rank), unrolled scalar twins for the fixed ranks.
static SCALAR: Table = Table {
    name: "scalar",
    width: 1,
    axpy: [
        blas::axpy,
        scalar_fixed::axpy::<8>,
        scalar_fixed::axpy::<16>,
        scalar_fixed::axpy::<32>,
    ],
    zaxpy: [
        scalar_zero::zaxpy,
        scalar_fixed::zaxpy::<8>,
        scalar_fixed::zaxpy::<16>,
        scalar_fixed::zaxpy::<32>,
    ],
    dot: [blas::dot; 4],
    xmul: blas::xmul,
    zxmul: scalar_zero::zxmul,
    ger: [
        blas::ger,
        scalar_fixed::ger::<8>,
        scalar_fixed::ger::<16>,
        scalar_fixed::ger::<32>,
    ],
    zger: scalar_zero::zger,
    gemv: [blas::gemv; 4],
};

/// A bind-time kernel selection: which implementation family to draw
/// function pointers from.
///
/// Program shape — fusion, rank specialization — depends only on the
/// plan; the selection decides which table of kernels its calls point
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

    /// The always-available scalar table: [`crate::blas`] and its
    /// strictly sequential assigning and fixed-rank twins. A kernel
    /// table, not a program shape: the tape fuses and rank-specializes
    /// as at every tier, and runs the reference interpreter's operation
    /// order bit for bit.
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

    /// AXPY kernel for trip count `n`; `contig` means both increments
    /// are 1, `hint` pins the trip count for rank specialization.
    pub fn axpy(&self, n: usize, contig: bool, hint: Option<usize>) -> (AxpyFn, RankSpec) {
        let spec = RankSpec::of(n, contig, hint);
        (self.table().axpy[spec as usize], spec)
    }

    /// Assigning AXPY (`y = alpha * x`) for `ZeroAccum` fusion. Never
    /// skips the write — `alpha == 0` must still zero the target.
    pub fn zaxpy(&self, n: usize, contig: bool, hint: Option<usize>) -> (AxpyFn, RankSpec) {
        let spec = RankSpec::of(n, contig, hint);
        (self.table().zaxpy[spec as usize], spec)
    }

    /// DOT kernel for trip count `n` (`contig`: both increments 1).
    pub fn dot(&self, n: usize, contig: bool) -> (DotFn, RankSpec) {
        let spec = RankSpec::of(n, contig, Some(n));
        (self.table().dot[spec as usize], spec)
    }

    /// XMUL (elementwise ternary) kernel. No rank-specialized variants:
    /// the generic body is already a single fused multiply pass.
    pub fn xmul(&self) -> XmulFn {
        self.table().xmul
    }

    /// Assigning XMUL (`y = alpha * x ∘ z`) for `ZeroAccum` fusion.
    pub fn zxmul(&self) -> XmulFn {
        self.table().zxmul
    }

    /// GER (rank-1 update) kernel; `n` is the row length, `contig`
    /// means unit column stride and unit `y` increment.
    pub fn ger(&self, n: usize, contig: bool, hint: Option<usize>) -> (GerFn, RankSpec) {
        let spec = RankSpec::of(n, contig, hint);
        (self.table().ger[spec as usize], spec)
    }

    /// Assigning GER (`A = alpha * x ⊗ y`) for `ZeroAccum` fusion.
    pub fn zger(&self) -> GerFn {
        self.table().zger
    }

    /// GEMV kernel; `n` is the row length, `contig` means unit column
    /// stride and unit `x` increment.
    pub fn gemv(&self, n: usize, contig: bool) -> (GemvFn, RankSpec) {
        let spec = RankSpec::of(n, contig, Some(n));
        (self.table().gemv[spec as usize], spec)
    }

    fn table(&self) -> &'static Table {
        match self.sel {
            KernelSel::Scalar => &SCALAR,
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
/// fusion, specialization — does not depend on it). Targets other than
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

/// Scalar assigning twins used by `ZeroAccum` superinstructions when
/// the scalar implementation family is selected ([`Microkernels::Scalar`],
/// old hosts, non-x86_64 targets, Miri) and by the x86 tiers for strided
/// calls.
/// Unlike [`blas::axpy`]/[`blas::ger`] these must **not** early-return
/// on `alpha == 0`: the fused instruction owns the Eq.-5 zero point,
/// so the target must be overwritten unconditionally.
mod scalar_zero {
    /// `y[i*incy] = alpha * x[i*incx]`.
    pub fn zaxpy(n: usize, alpha: f64, x: &[f64], incx: usize, y: &mut [f64], incy: usize) {
        if incx == 1 && incy == 1 {
            let (x, y) = (&x[..n], &mut y[..n]);
            for i in 0..n {
                y[i] = alpha * x[i];
            }
        } else {
            for i in 0..n {
                y[i * incy] = alpha * x[i * incx];
            }
        }
    }

    /// `y[i*incy] = alpha * x[i*incx] * z[i*incz]`.
    #[allow(clippy::too_many_arguments)]
    pub fn zxmul(
        n: usize,
        alpha: f64,
        x: &[f64],
        incx: usize,
        z: &[f64],
        incz: usize,
        y: &mut [f64],
        incy: usize,
    ) {
        if incx == 1 && incz == 1 && incy == 1 {
            let (x, z, y) = (&x[..n], &z[..n], &mut y[..n]);
            for i in 0..n {
                y[i] = alpha * x[i] * z[i];
            }
        } else {
            for i in 0..n {
                y[i * incy] = alpha * x[i * incx] * z[i * incz];
            }
        }
    }

    /// `A[i*rs + j*cs] = alpha * x[i*incx] * y[j*incy]`.
    #[allow(clippy::too_many_arguments)]
    pub fn zger(
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
        if cs == 1 && incy == 1 {
            let yv = &y[..n];
            for i in 0..m {
                let xi = alpha * x[i * incx];
                let row = &mut a[i * rs..i * rs + n];
                for j in 0..n {
                    row[j] = xi * yv[j];
                }
            }
        } else {
            for i in 0..m {
                let xi = alpha * x[i * incx];
                for j in 0..n {
                    a[i * rs + j * cs] = xi * y[j * incy];
                }
            }
        }
    }
}

/// Scalar rank-specialized bodies: monomorphized over the trip count so
/// the compiler fully unrolls. Semantics match [`blas`] element for
/// element (strictly sequential), so a rank-specialized scalar tape
/// stays bitwise-equal to the generic one.
mod scalar_fixed {
    /// Unrolled `y[..N] += alpha * x[..N]` (contiguous, `n == N`).
    pub fn axpy<const N: usize>(
        n: usize,
        alpha: f64,
        x: &[f64],
        incx: usize,
        y: &mut [f64],
        incy: usize,
    ) {
        assert!(
            n == N && incx == 1 && incy == 1,
            "rank-specialized axpy misuse"
        );
        if alpha == 0.0 {
            return;
        }
        let (x, y) = (&x[..N], &mut y[..N]);
        for i in 0..N {
            y[i] += alpha * x[i];
        }
    }

    /// Unrolled `y[..N] = alpha * x[..N]` (assigning twin).
    pub fn zaxpy<const N: usize>(
        n: usize,
        alpha: f64,
        x: &[f64],
        incx: usize,
        y: &mut [f64],
        incy: usize,
    ) {
        assert!(
            n == N && incx == 1 && incy == 1,
            "rank-specialized zaxpy misuse"
        );
        let (x, y) = (&x[..N], &mut y[..N]);
        for i in 0..N {
            y[i] = alpha * x[i];
        }
    }

    /// Unrolled rank-1 update with row length `N` (`cs == 1`,
    /// `incy == 1`).
    #[allow(clippy::too_many_arguments)]
    pub fn ger<const N: usize>(
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
        assert!(
            n == N && cs == 1 && incy == 1,
            "rank-specialized ger misuse"
        );
        if alpha == 0.0 {
            return;
        }
        let yv = &y[..N];
        for i in 0..m {
            let xi = alpha * x[i * incx];
            let row = &mut a[i * rs..i * rs + N];
            for j in 0..N {
                row[j] += xi * yv[j];
            }
        }
    }
}

/// DOT and GEMV for both x86 tiers (AVX2+FMA): hand-written lane trees,
/// because the tree *is* the reduction order the determinism contract
/// fixes. Every body is a safe `#[target_feature]` function over
/// length-checked slices with a single internal `unsafe` block for the
/// vendor intrinsics; the wrappers are the only call sites and each
/// carries the SAFETY argument for why the required CPU features are
/// present.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{blas, DotFn, GemvFn};
    use core::arch::x86_64::{
        _mm256_add_pd, _mm256_castpd256_pd128, _mm256_extractf128_pd, _mm256_fmadd_pd,
        _mm256_loadu_pd, _mm256_setzero_pd, _mm_add_pd, _mm_cvtsd_f64, _mm_unpackhi_pd,
    };

    /// DOT by [`super::RankSpec`]: generic, then the fixed ranks.
    pub(super) const DOT: [DotFn; 4] = [dot, dot_fixed::<8>, dot_fixed::<16>, dot_fixed::<32>];
    /// GEMV by [`super::RankSpec`]: generic, then the fixed ranks.
    pub(super) const GEMV: [GemvFn; 4] =
        [gemv, gemv_fixed::<8>, gemv_fixed::<16>, gemv_fixed::<32>];

    /// Lane-striped dot product with the fixed reduction tree
    /// `(acc0 + acc1) → (low128 + high128) → (lane0 + lane1)` followed
    /// by a strictly sequential scalar tail — the tree shape depends
    /// only on the 4-lane width, never on `n`, so results are
    /// run-to-run bitwise stable.
    #[target_feature(enable = "avx2", enable = "fma")]
    fn dot_body(x: &[f64], y: &[f64]) -> f64 {
        let n = x.len();
        debug_assert_eq!(n, y.len());
        let (xp, yp) = (x.as_ptr(), y.as_ptr());
        // SAFETY: vector loads read `x[i..i+4]` / `y[i..i+4]` only
        // while `i + 4 <= n` (8-wide steps check `i + 8 <= n`); the
        // scalar tail indexes `< n`. All within the checked slices.
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
    /// region: the per-row DOT bodies inline here, so the shared `x`
    /// vector stays resident across rows instead of being reloaded past
    /// an opaque call boundary per row.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    fn gemv_rows_body(
        m: usize,
        n: usize,
        alpha: f64,
        a: &[f64],
        rs: usize,
        x: &[f64],
        y: &mut [f64],
        incy: usize,
    ) {
        let xv = &x[..n];
        for i in 0..m {
            y[i * incy] += alpha * dot_body(&a[i * rs..i * rs + n], xv);
        }
    }

    /// [`blas::dot`]-shaped wrapper.
    pub(super) fn dot(n: usize, x: &[f64], incx: usize, y: &[f64], incy: usize) -> f64 {
        if incx == 1 && incy == 1 {
            // SAFETY: reachable only via a `KernelSet` whose `detect()`
            // observed AVX2+FMA on this host at bind time.
            unsafe { dot_body(&x[..n], &y[..n]) }
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
            unsafe { gemv_rows_body(m, n, alpha, a, rs, x, y, incy) }
        } else {
            blas::gemv(m, n, alpha, a, rs, cs, x, incx, y, incy);
        }
    }

    /// Rank-specialized DOT body: `N/4` unrolled FMAs into lane-striped
    /// accumulators, reduced by the same fixed tree as [`dot_body`].
    #[target_feature(enable = "avx2", enable = "fma")]
    fn dot_fixed_body<const N: usize>(x: &[f64], y: &[f64]) -> f64 {
        debug_assert!(N.is_multiple_of(8) && x.len() == N && y.len() == N);
        let (xp, yp) = (x.as_ptr(), y.as_ptr());
        // SAFETY: `N % 8 == 0` and both slices hold exactly `N`
        // elements, so loads at `i` and `i + 4` with `i + 8 <= N` stay
        // in bounds.
        unsafe {
            let mut acc0 = _mm256_setzero_pd();
            let mut acc1 = _mm256_setzero_pd();
            let mut i = 0;
            while i < N {
                acc0 =
                    _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)), acc0);
                acc1 = _mm256_fmadd_pd(
                    _mm256_loadu_pd(xp.add(i + 4)),
                    _mm256_loadu_pd(yp.add(i + 4)),
                    acc1,
                );
                i += 8;
            }
            let s = _mm256_add_pd(acc0, acc1);
            let lo = _mm256_castpd256_pd128(s);
            let hi = _mm256_extractf128_pd::<1>(s);
            let pair = _mm_add_pd(lo, hi);
            _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair))
        }
    }

    /// Rank-specialized whole-matrix GEMV: `x` hoisted into registers
    /// once; each row reduces through the same fixed lane tree as
    /// [`dot_fixed_body`] (acc0 takes offsets `0, 8, …`, acc1 takes
    /// `4, 12, …`), so results stay bitwise identical to the per-row
    /// formulation.
    #[target_feature(enable = "avx2", enable = "fma")]
    fn gemv_rows_fixed_body<const N: usize>(
        m: usize,
        alpha: f64,
        a: &[f64],
        rs: usize,
        x: &[f64],
        y: &mut [f64],
        incy: usize,
    ) {
        debug_assert!(N.is_multiple_of(8) && N <= 32);
        if m == 0 {
            return;
        }
        assert!(x.len() >= N && y.len() > (m - 1) * incy && a.len() >= (m - 1) * rs + N);
        let (xp, ap, yp) = (x.as_ptr(), a.as_ptr(), y.as_mut_ptr());
        // SAFETY: the asserts above bound every access — `x` loads read
        // `[4k, 4k+4) ⊆ [0, N)`, row loads touch
        // `[i*rs, i*rs + N) ⊆ [0, (m-1)*rs + N)`, and `y` writes touch
        // `i * incy ≤ (m-1) * incy` only.
        unsafe {
            let mut xv = [_mm256_setzero_pd(); 8];
            for (k, lane) in xv.iter_mut().enumerate().take(N / 4) {
                *lane = _mm256_loadu_pd(xp.add(4 * k));
            }
            for i in 0..m {
                let row = ap.add(i * rs);
                let mut acc0 = _mm256_setzero_pd();
                let mut acc1 = _mm256_setzero_pd();
                let mut k = 0;
                while k < N / 4 {
                    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(row.add(4 * k)), xv[k], acc0);
                    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(row.add(4 * k + 4)), xv[k + 1], acc1);
                    k += 2;
                }
                let s = _mm256_add_pd(acc0, acc1);
                let lo = _mm256_castpd256_pd128(s);
                let hi = _mm256_extractf128_pd::<1>(s);
                let pair = _mm_add_pd(lo, hi);
                let acc = _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
                *yp.add(i * incy) += alpha * acc;
            }
        }
    }

    /// Rank-specialized DOT wrapper.
    pub(super) fn dot_fixed<const N: usize>(
        n: usize,
        x: &[f64],
        incx: usize,
        y: &[f64],
        incy: usize,
    ) -> f64 {
        assert!(
            n == N && incx == 1 && incy == 1,
            "rank-specialized dot misuse"
        );
        // SAFETY: reachable only via a `KernelSet` that detected
        // AVX2+FMA at bind time (see `dot` above).
        unsafe { dot_fixed_body::<N>(&x[..N], &y[..N]) }
    }

    /// Rank-specialized GEMV wrapper: row length statically `N`.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn gemv_fixed<const N: usize>(
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
        assert!(
            n == N && cs == 1 && incx == 1,
            "rank-specialized gemv misuse"
        );
        // SAFETY: reachable only via a `KernelSet` that detected
        // AVX2+FMA at bind time (see `dot` above).
        unsafe { gemv_rows_fixed_body::<N>(m, alpha, a, rs, x, y, incy) }
    }
}

/// Panic unless a rank-specialized body (`N > 0`) is called at its
/// pinned trip count with unit strides; `N == 0` is the generic body.
#[cfg(target_arch = "x86_64")]
#[inline]
fn check_rank<const N: usize>(n: usize, contig: bool, kernel: &str) {
    assert!(
        N == 0 || (n == N && contig),
        "rank-specialized {kernel} misuse"
    );
}

/// `$body::<R, $assign>(args)` with `R` the fixed rank `n` equals (8,
/// 16 or 32), else 0: a generic call at a common rank runs the unrolled
/// body instead of the vectorizer's wide loop, whose short-length
/// remainder would run a 16-long call at a quarter of the width.
#[cfg(target_arch = "x86_64")]
macro_rules! at_rank {
    ($n:expr, $body:ident::<$assign:ident>($($arg:expr),*)) => {
        match $n {
            8 => $body::<8, $assign>($($arg),*),
            16 => $body::<16, $assign>($($arg),*),
            32 => $body::<32, $assign>($($arg),*),
            _ => $body::<0, $assign>($($arg),*),
        }
    };
}

/// The element-parallel kernels of one x86 tier, written once as plain
/// `f64::mul_add` loops and compiled under the tier's
/// `#[target_feature]` so the compiler vectorizes them at its width.
///
/// Every body takes `const N` (0: runtime trip count, else the rank,
/// which lets the compiler unroll fully; every call at n = 8, 16 or 32
/// runs that body, see `at_rank!`) and `const ASSIGN` (overwrite
/// instead of accumulate: the `ZeroAccum` twins). The
/// entry points keep the [`blas`] contract — accumulating kernels
/// early-return on `alpha == 0`, assigning ones never skip the write —
/// and hand strided calls to the scalar kernels.
macro_rules! element_parallel_tier {
    ($tier:ident, $features:literal, $name:literal, $width:literal) => {
        #[cfg(target_arch = "x86_64")]
        mod $tier {
            use super::{blas, check_rank, scalar_zero, x86, Table};

            /// `y[..n] (+)= alpha * x[..n]`.
            #[target_feature(enable = $features)]
            fn axpy_body<const N: usize, const ASSIGN: bool>(
                n: usize,
                alpha: f64,
                x: &[f64],
                y: &mut [f64],
            ) {
                let n = if N == 0 { n } else { N };
                for (yi, &xi) in y[..n].iter_mut().zip(&x[..n]) {
                    *yi = if ASSIGN {
                        alpha * xi
                    } else {
                        alpha.mul_add(xi, *yi)
                    };
                }
            }

            /// `y[..n] (+)= alpha * (x[..n] ∘ z[..n])`.
            #[target_feature(enable = $features)]
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
                    *yi = if ASSIGN {
                        alpha * t
                    } else {
                        alpha.mul_add(t, *yi)
                    };
                }
            }

            /// Rows `a[i*rs..][..n] (+)= (alpha * x[i*incx]) * y[..n]`.
            /// One up-front bound covers every row; a fixed-rank `y` is
            /// copied into a local array so it stays in registers
            /// across rows.
            #[target_feature(enable = $features)]
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
                        *aij = if ASSIGN {
                            xi * yj
                        } else {
                            xi.mul_add(yj, *aij)
                        };
                    }
                }
            }

            fn axpy<const N: usize, const ASSIGN: bool>(
                n: usize,
                alpha: f64,
                x: &[f64],
                incx: usize,
                y: &mut [f64],
                incy: usize,
            ) {
                let contig = incx == 1 && incy == 1;
                check_rank::<N>(n, contig, "axpy");
                if !ASSIGN && alpha == 0.0 {
                    return; // match blas::axpy: even NaN inputs leave y alone
                }
                if !contig {
                    return if ASSIGN {
                        scalar_zero::zaxpy(n, alpha, x, incx, y, incy)
                    } else {
                        blas::axpy(n, alpha, x, incx, y, incy)
                    };
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
                    return if ASSIGN {
                        scalar_zero::zxmul(n, alpha, x, incx, z, incz, y, incy)
                    } else {
                        blas::xmul(n, alpha, x, incx, z, incz, y, incy)
                    };
                }
                // SAFETY: as in `axpy` — detected at bind time.
                unsafe { at_rank!(n, xmul_body::<ASSIGN>(n, alpha, x, z, y)) }
            }

            #[allow(clippy::too_many_arguments)]
            fn ger<const N: usize, const ASSIGN: bool>(
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
                let contig = cs == 1 && incy == 1;
                check_rank::<N>(n, contig, "ger");
                if !ASSIGN && alpha == 0.0 {
                    return; // match blas::ger
                }
                if !contig {
                    return if ASSIGN {
                        scalar_zero::zger(m, n, alpha, x, incx, y, incy, a, rs, cs)
                    } else {
                        blas::ger(m, n, alpha, x, incx, y, incy, a, rs, cs)
                    };
                }
                // SAFETY: as in `axpy` — detected at bind time.
                unsafe { at_rank!(n, ger_body::<ASSIGN>(m, n, alpha, x, incx, y, a, rs)) }
            }

            pub(super) static TABLE: Table = Table {
                name: $name,
                width: $width,
                axpy: [
                    axpy::<0, false>,
                    axpy::<8, false>,
                    axpy::<16, false>,
                    axpy::<32, false>,
                ],
                zaxpy: [
                    axpy::<0, true>,
                    axpy::<8, true>,
                    axpy::<16, true>,
                    axpy::<32, true>,
                ],
                dot: x86::DOT,
                xmul: xmul::<false>,
                zxmul: xmul::<true>,
                ger: [
                    ger::<0, false>,
                    ger::<8, false>,
                    ger::<16, false>,
                    ger::<32, false>,
                ],
                zger: ger::<0, true>,
                gemv: x86::GEMV,
            };
        }
    };
}

element_parallel_tier!(avx2, "avx2,fma", "avx2+fma", 4);
element_parallel_tier!(avx512, "avx512f", "avx512f", 8);

#[cfg(test)]
mod tests {
    use super::*;

    /// Resolving `Scalar` picks the scalar table and nothing else: the
    /// program shape, rank specialization included, is the plan's.
    #[test]
    fn resolve_scalar_disables_fusion() {
        let ks = KernelSet::resolve(Microkernels::Scalar);
        assert_eq!(ks.selection(), KernelSel::Scalar);
        assert_eq!(ks.width(), 1);
        assert_eq!(ks.name(), "scalar");
        assert_eq!(ks.axpy(8, true, Some(8)).1, RankSpec::R8);
        assert_eq!(ks.axpy(8, true, None).1, RankSpec::Gen);
    }

    #[test]
    fn auto_specializes_only_on_pinned_contiguous_ranks() {
        // `auto_detected`, not `resolve(Auto)`: the scalar-forced CI
        // leg exports SPTTN_MICROKERNELS=scalar, which would turn
        // resolve's answer scalar and void the assertions below.
        let ks = KernelSet::auto_detected();
        assert_eq!(ks.axpy(8, true, Some(8)).1, RankSpec::R8);
        assert_eq!(ks.axpy(16, true, Some(16)).1, RankSpec::R16);
        assert_eq!(ks.axpy(32, true, Some(32)).1, RankSpec::R32);
        // Not a supported rank / not contiguous / hint mismatch → Gen.
        assert_eq!(ks.axpy(12, true, Some(12)).1, RankSpec::Gen);
        assert_eq!(ks.axpy(16, false, Some(16)).1, RankSpec::Gen);
        assert_eq!(ks.axpy(16, true, None).1, RankSpec::Gen);
        assert_eq!(ks.axpy(16, true, Some(8)).1, RankSpec::Gen);
    }

    #[test]
    fn zero_twins_overwrite_even_with_zero_alpha() {
        // The fused kernels own the Eq.-5 zero point: alpha == 0 must
        // still clear stale target data (blas::axpy would early-return).
        for ks in [KernelSet::scalar(), KernelSet::auto_detected()] {
            let x = [1.0_f64; 8];
            let mut y = [f64::NAN; 8];
            let (zk, _) = ks.zaxpy(8, true, Some(8));
            zk(8, 0.0, &x, 1, &mut y, 1);
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

    /// The plain loop every contiguous element-parallel call must equal
    /// bitwise: `y = fma(alpha, x ∘ z, y)` (`z` all ones for AXPY), or
    /// the product alone when assigning; accumulating calls skip
    /// `alpha == 0` as `blas` does.
    fn reference(alpha: f64, assign: bool, x: &[f64], z: Option<&[f64]>, y: &mut [f64]) {
        if !assign && alpha == 0.0 {
            return;
        }
        for (i, yi) in y.iter_mut().enumerate() {
            let t = z.map_or(x[i], |z| x[i] * z[i]);
            *yi = if assign {
                alpha * t
            } else {
                alpha.mul_add(t, *yi)
            };
        }
    }

    fn assert_bits(got: &[f64], want: &[f64], what: &str) {
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{what}");
    }

    /// Every x86 tier the host has equals [`reference`] bit for bit —
    /// and hence every other tier — on AXPY, ZAXPY, XMUL, ZXMUL, GER
    /// and ZGER, generic and rank-pinned, tails included.
    #[test]
    fn element_parallel_kernels_are_one_fma_per_element_on_every_tier() {
        #[cfg(target_arch = "x86_64")]
        let tiers: Vec<KernelSel> = [KernelSel::Avx2Fma, KernelSel::Avx512]
            .into_iter()
            .filter(|&sel| host_supports(sel))
            .collect();
        #[cfg(not(target_arch = "x86_64"))]
        let tiers: Vec<KernelSel> = Vec::new();
        for sel in tiers {
            let ks = KernelSet { sel };
            for &n in LENS {
                let (x, z, y0) = (vals(n, 0.1), vals(n, 0.7), vals(n, 1.3));
                for alpha in [1.37, 0.0, -2.5] {
                    // `Some(n)` pins R8/R16/R32 at those lengths; `None`
                    // keeps the generic body at every length.
                    for hint in [None, Some(n)] {
                        for assign in [false, true] {
                            let what =
                                format!("{} n={n} a={alpha} {hint:?} assign={assign}", ks.name());
                            let (kern, spec) = if assign {
                                ks.zaxpy(n, true, hint)
                            } else {
                                ks.axpy(n, true, hint)
                            };
                            let pinned = hint.is_some() && matches!(n, 8 | 16 | 32);
                            assert_eq!(spec.rank().is_some(), pinned, "{what}");
                            let (mut got, mut want) = (y0.clone(), y0.clone());
                            kern(n, alpha, &x, 1, &mut got, 1);
                            reference(alpha, assign, &x, None, &mut want);
                            assert_bits(&got, &want, &format!("axpy {what}"));

                            // GER: 5 rows of length n with a padded row stride.
                            let (m, rs) = (5, n + 3);
                            let (kern, _) = if assign {
                                (ks.zger(), RankSpec::Gen)
                            } else {
                                ks.ger(n, true, hint)
                            };
                            let xs = vals(m, 2.1);
                            let a0 = vals(m * rs, 2.9);
                            let (mut got, mut want) = (a0.clone(), a0);
                            kern(m, n, alpha, &xs, 1, &y0, 1, &mut got, rs, 1);
                            // Row i is an AXPY of `y` by `alpha * x[i]`.
                            if assign || alpha != 0.0 {
                                for (i, &xi) in xs.iter().enumerate() {
                                    let row = &mut want[i * rs..i * rs + n];
                                    reference(alpha * xi, assign, &y0, None, row);
                                }
                            }
                            assert_bits(&got, &want, &format!("ger {what}"));
                        }
                    }
                    for assign in [false, true] {
                        let kern = if assign { ks.zxmul() } else { ks.xmul() };
                        let (mut got, mut want) = (y0.clone(), y0.clone());
                        kern(n, alpha, &x, 1, &z, 1, &mut got, 1);
                        reference(alpha, assign, &x, Some(&z), &mut want);
                        assert_bits(
                            &got,
                            &want,
                            &format!("xmul {} n={n} a={alpha} assign={assign}", ks.name()),
                        );
                    }
                }
            }
        }
    }
}
