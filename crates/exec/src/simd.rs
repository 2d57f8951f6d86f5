//! Explicit-SIMD microkernels with bind-time selection.
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
//! | [`KernelSel`] | when                                              |
//! |---------------|---------------------------------------------------|
//! | `Scalar`      | always available — exactly [`crate::blas`]        |
//! | `Avx2Fma`     | x86_64 with AVX2+FMA detected at runtime          |
//! | `Neon`        | aarch64 (NEON is baseline for the target)         |
//!
//! Selection is *host state*, not *program shape*: two hosts binding
//! the same plan with the same [`Microkernels`] option compile tapes
//! with identical instruction streams (same fusion, same rank
//! specialization) and differ only in which function pointers the
//! instructions carry.
//!
//! ## Rank specialization
//!
//! Tensor-network ranks are small and fixed (the benches use R ∈
//! {8, 16, 32}); when a kernel's trip count is statically one of those
//! — known at bind time from the `BufferSpec` dims — the tape records a
//! monomorphized, fully-unrolled body ([`RankSpec::R8`]/`R16`/`R32`)
//! instead of the generic loop.
//!
//! ## Determinism contract
//!
//! - Scalar kernels accumulate strictly left-to-right, exactly like
//!   [`crate::blas`]; forcing [`Microkernels::Scalar`] reproduces the
//!   pre-SIMD tape **bitwise**.
//! - SIMD reductions use a *fixed lane tree*: lane-striped partial
//!   accumulators combined in a fixed order, then a strictly sequential
//!   scalar tail. The shape depends only on the kernel width, so
//!   results are run-to-run bitwise stable at a fixed (thread count,
//!   kernel selection) — but differ from strict scalar ordering by
//!   floating-point reassociation (and FMA contraction), bounded by the
//!   ≤1e-9 differential tolerance the test suite enforces.
//!
//! The `SPTTN_MICROKERNELS` environment variable overrides the
//! programmatic option at bind time: `scalar` forces the scalar path,
//! anything else (or unset) behaves as `auto`.

use crate::blas;

/// Microkernel policy for bound executors (facade `ExecOptions` knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Microkernels {
    /// Vectorize when the host supports it: superinstruction fusion and
    /// rank specialization on, kernel implementations chosen by runtime
    /// CPU feature detection (scalar where nothing better exists).
    #[default]
    Auto,
    /// Force the scalar [`crate::blas`] kernels with no fusion — the
    /// tape is bitwise-identical to the pre-SIMD engine.
    Scalar,
}

/// Which kernel implementation family a bind selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelSel {
    /// Sequential scalar kernels ([`crate::blas`] semantics).
    Scalar,
    /// AVX2 + FMA `std::arch` intrinsics (4 × f64 lanes).
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
    /// AVX-512F `std::arch` intrinsics (8 × f64 lanes) for the
    /// element-parallel kernels (AXPY/GER/XMUL families, which have no
    /// reduction order); DOT and GEMV keep the AVX2 fixed lane tree so
    /// reduction shapes never depend on which x86 tier was detected.
    /// Requires AVX2+FMA as well (for those fallback kernels).
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// NEON `std::arch` intrinsics (2 × f64 lanes).
    #[cfg(target_arch = "aarch64")]
    Neon,
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

/// A bind-time kernel selection: which implementation family to draw
/// function pointers from, and whether the tape compiler may emit
/// superinstructions (`ZeroAccum` fusion, fused sparse-AXPY loops, rank
/// specialization).
///
/// Program shape (`fuse`) depends only on the [`Microkernels`] option;
/// implementation (`sel`) additionally on the host CPU. Copying the set
/// into the tape makes the selection permanent for that tape's
/// lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelSet {
    sel: KernelSel,
    fuse: bool,
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

    /// The always-available scalar set: [`crate::blas`] pointers, no
    /// fusion, no specialization — the pre-SIMD tape, bit for bit.
    pub fn scalar() -> KernelSet {
        KernelSet {
            sel: KernelSel::Scalar,
            fuse: false,
        }
    }

    /// The set [`Microkernels::Auto`] resolves to when no environment
    /// override is present: fusion on, implementation by host
    /// detection. Differential tests and benches use this to exercise
    /// the vectorized path even while `SPTTN_MICROKERNELS=scalar` is
    /// forcing the rest of the suite scalar.
    pub fn auto_detected() -> KernelSet {
        KernelSet {
            sel: detect(),
            fuse: true,
        }
    }

    /// Which implementation family this set draws from.
    pub fn selection(&self) -> KernelSel {
        self.sel
    }

    /// Whether the tape compiler may fuse `Zero` + first accumulation
    /// into `ZeroAccum` superinstructions, fuse innermost sparse AXPY
    /// loops, and rank-specialize.
    pub fn superinstructions(&self) -> bool {
        self.fuse
    }

    /// Human-readable name of the selection (bench/CLI reporting).
    pub fn name(&self) -> &'static str {
        match self.sel {
            KernelSel::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            KernelSel::Avx2Fma => "avx2+fma",
            #[cfg(target_arch = "x86_64")]
            KernelSel::Avx512 => "avx512f",
            #[cfg(target_arch = "aarch64")]
            KernelSel::Neon => "neon",
        }
    }

    /// f64 lanes per vector register for the selection (1 for scalar;
    /// the widest register the selection uses — AVX-512 reductions
    /// still run 4-wide, see [`KernelSel::Avx512`]).
    pub fn width(&self) -> usize {
        match self.sel {
            KernelSel::Scalar => 1,
            #[cfg(target_arch = "x86_64")]
            KernelSel::Avx2Fma => 4,
            #[cfg(target_arch = "x86_64")]
            KernelSel::Avx512 => 8,
            #[cfg(target_arch = "aarch64")]
            KernelSel::Neon => 2,
        }
    }

    /// AXPY kernel for trip count `n`; `contig` means both increments
    /// are 1, `hint` pins the trip count for rank specialization.
    pub fn axpy(&self, n: usize, contig: bool, hint: Option<usize>) -> (AxpyFn, RankSpec) {
        let spec = self.spec(n, contig, hint);
        let kern: AxpyFn = match (self.sel, spec) {
            (KernelSel::Scalar, RankSpec::Gen) => blas::axpy,
            (KernelSel::Scalar, RankSpec::R8) => scalar_fixed::axpy::<8>,
            (KernelSel::Scalar, RankSpec::R16) => scalar_fixed::axpy::<16>,
            (KernelSel::Scalar, RankSpec::R32) => scalar_fixed::axpy::<32>,
            #[cfg(target_arch = "x86_64")]
            (KernelSel::Avx2Fma, RankSpec::Gen) => x86::axpy,
            #[cfg(target_arch = "x86_64")]
            (KernelSel::Avx2Fma, RankSpec::R8) => x86::axpy_fixed::<8>,
            #[cfg(target_arch = "x86_64")]
            (KernelSel::Avx2Fma, RankSpec::R16) => x86::axpy_fixed::<16>,
            #[cfg(target_arch = "x86_64")]
            (KernelSel::Avx2Fma, RankSpec::R32) => x86::axpy_fixed::<32>,
            #[cfg(target_arch = "x86_64")]
            (KernelSel::Avx512, RankSpec::Gen) => x86_512::axpy,
            #[cfg(target_arch = "x86_64")]
            (KernelSel::Avx512, RankSpec::R8) => x86_512::axpy_fixed::<8>,
            #[cfg(target_arch = "x86_64")]
            (KernelSel::Avx512, RankSpec::R16) => x86_512::axpy_fixed::<16>,
            #[cfg(target_arch = "x86_64")]
            (KernelSel::Avx512, RankSpec::R32) => x86_512::axpy_fixed::<32>,
            #[cfg(target_arch = "aarch64")]
            (KernelSel::Neon, _) => neon::axpy,
        };
        (kern, spec)
    }

    /// Assigning AXPY (`y = alpha * x`) for `ZeroAccum` fusion. Never
    /// skips the write — `alpha == 0` must still zero the target.
    pub fn zaxpy(&self, n: usize, contig: bool, hint: Option<usize>) -> (AxpyFn, RankSpec) {
        let spec = self.spec(n, contig, hint);
        let kern: AxpyFn = match (self.sel, spec) {
            (KernelSel::Scalar, RankSpec::Gen) => scalar_zero::zaxpy,
            (KernelSel::Scalar, RankSpec::R8) => scalar_fixed::zaxpy::<8>,
            (KernelSel::Scalar, RankSpec::R16) => scalar_fixed::zaxpy::<16>,
            (KernelSel::Scalar, RankSpec::R32) => scalar_fixed::zaxpy::<32>,
            #[cfg(target_arch = "x86_64")]
            (KernelSel::Avx2Fma, RankSpec::Gen) => x86::zaxpy,
            #[cfg(target_arch = "x86_64")]
            (KernelSel::Avx2Fma, RankSpec::R8) => x86::zaxpy_fixed::<8>,
            #[cfg(target_arch = "x86_64")]
            (KernelSel::Avx2Fma, RankSpec::R16) => x86::zaxpy_fixed::<16>,
            #[cfg(target_arch = "x86_64")]
            (KernelSel::Avx2Fma, RankSpec::R32) => x86::zaxpy_fixed::<32>,
            #[cfg(target_arch = "x86_64")]
            (KernelSel::Avx512, RankSpec::Gen) => x86_512::zaxpy,
            #[cfg(target_arch = "x86_64")]
            (KernelSel::Avx512, RankSpec::R8) => x86_512::zaxpy_fixed::<8>,
            #[cfg(target_arch = "x86_64")]
            (KernelSel::Avx512, RankSpec::R16) => x86_512::zaxpy_fixed::<16>,
            #[cfg(target_arch = "x86_64")]
            (KernelSel::Avx512, RankSpec::R32) => x86_512::zaxpy_fixed::<32>,
            #[cfg(target_arch = "aarch64")]
            (KernelSel::Neon, _) => neon::zaxpy,
        };
        (kern, spec)
    }

    /// DOT kernel for trip count `n` (`contig`: both increments 1).
    pub fn dot(&self, n: usize, contig: bool) -> (DotFn, RankSpec) {
        let spec = self.spec(n, contig, Some(n));
        let kern: DotFn = match (self.sel, spec) {
            (KernelSel::Scalar, _) => blas::dot,
            // AVX-512 keeps the 4-wide fixed lane tree for reductions.
            #[cfg(target_arch = "x86_64")]
            (KernelSel::Avx2Fma | KernelSel::Avx512, RankSpec::Gen) => x86::dot,
            #[cfg(target_arch = "x86_64")]
            (KernelSel::Avx2Fma | KernelSel::Avx512, RankSpec::R8) => x86::dot_fixed::<8>,
            #[cfg(target_arch = "x86_64")]
            (KernelSel::Avx2Fma | KernelSel::Avx512, RankSpec::R16) => x86::dot_fixed::<16>,
            #[cfg(target_arch = "x86_64")]
            (KernelSel::Avx2Fma | KernelSel::Avx512, RankSpec::R32) => x86::dot_fixed::<32>,
            #[cfg(target_arch = "aarch64")]
            (KernelSel::Neon, _) => neon::dot,
        };
        (kern, spec)
    }

    /// XMUL (elementwise ternary) kernel. No rank-specialized variants:
    /// the generic body is already a single fused multiply pass.
    pub fn xmul(&self) -> XmulFn {
        match self.sel {
            KernelSel::Scalar => blas::xmul,
            #[cfg(target_arch = "x86_64")]
            KernelSel::Avx2Fma => x86::xmul,
            #[cfg(target_arch = "x86_64")]
            KernelSel::Avx512 => x86_512::xmul,
            #[cfg(target_arch = "aarch64")]
            KernelSel::Neon => neon::xmul,
        }
    }

    /// Assigning XMUL (`y = alpha * x ∘ z`) for `ZeroAccum` fusion.
    pub fn zxmul(&self) -> XmulFn {
        match self.sel {
            KernelSel::Scalar => scalar_zero::zxmul,
            #[cfg(target_arch = "x86_64")]
            KernelSel::Avx2Fma => x86::zxmul,
            #[cfg(target_arch = "x86_64")]
            KernelSel::Avx512 => x86_512::zxmul,
            #[cfg(target_arch = "aarch64")]
            KernelSel::Neon => neon::zxmul,
        }
    }

    /// GER (rank-1 update) kernel; `n` is the row length, `contig`
    /// means unit column stride and unit `y` increment.
    pub fn ger(&self, n: usize, contig: bool, hint: Option<usize>) -> (GerFn, RankSpec) {
        let spec = self.spec(n, contig, hint);
        let kern: GerFn = match (self.sel, spec) {
            (KernelSel::Scalar, RankSpec::Gen) => blas::ger,
            (KernelSel::Scalar, RankSpec::R8) => scalar_fixed::ger::<8>,
            (KernelSel::Scalar, RankSpec::R16) => scalar_fixed::ger::<16>,
            (KernelSel::Scalar, RankSpec::R32) => scalar_fixed::ger::<32>,
            #[cfg(target_arch = "x86_64")]
            (KernelSel::Avx2Fma, RankSpec::Gen) => x86::ger,
            #[cfg(target_arch = "x86_64")]
            (KernelSel::Avx2Fma, RankSpec::R8) => x86::ger_fixed::<8>,
            #[cfg(target_arch = "x86_64")]
            (KernelSel::Avx2Fma, RankSpec::R16) => x86::ger_fixed::<16>,
            #[cfg(target_arch = "x86_64")]
            (KernelSel::Avx2Fma, RankSpec::R32) => x86::ger_fixed::<32>,
            #[cfg(target_arch = "x86_64")]
            (KernelSel::Avx512, RankSpec::Gen) => x86_512::ger,
            #[cfg(target_arch = "x86_64")]
            (KernelSel::Avx512, RankSpec::R8) => x86_512::ger_fixed::<8>,
            #[cfg(target_arch = "x86_64")]
            (KernelSel::Avx512, RankSpec::R16) => x86_512::ger_fixed::<16>,
            #[cfg(target_arch = "x86_64")]
            (KernelSel::Avx512, RankSpec::R32) => x86_512::ger_fixed::<32>,
            #[cfg(target_arch = "aarch64")]
            (KernelSel::Neon, _) => neon::ger,
        };
        (kern, spec)
    }

    /// Assigning GER (`A = alpha * x ⊗ y`) for `ZeroAccum` fusion.
    pub fn zger(&self) -> GerFn {
        match self.sel {
            KernelSel::Scalar => scalar_zero::zger,
            #[cfg(target_arch = "x86_64")]
            KernelSel::Avx2Fma => x86::zger,
            #[cfg(target_arch = "x86_64")]
            KernelSel::Avx512 => x86_512::zger,
            #[cfg(target_arch = "aarch64")]
            KernelSel::Neon => neon::zger,
        }
    }

    /// GEMV kernel; `n` is the row length, `contig` means unit column
    /// stride and unit `x` increment.
    pub fn gemv(&self, n: usize, contig: bool) -> (GemvFn, RankSpec) {
        let spec = self.spec(n, contig, Some(n));
        let kern: GemvFn = match (self.sel, spec) {
            (KernelSel::Scalar, _) => blas::gemv,
            // AVX-512 keeps the 4-wide fixed lane tree for reductions.
            #[cfg(target_arch = "x86_64")]
            (KernelSel::Avx2Fma | KernelSel::Avx512, RankSpec::Gen) => x86::gemv,
            #[cfg(target_arch = "x86_64")]
            (KernelSel::Avx2Fma | KernelSel::Avx512, RankSpec::R8) => x86::gemv_fixed::<8>,
            #[cfg(target_arch = "x86_64")]
            (KernelSel::Avx2Fma | KernelSel::Avx512, RankSpec::R16) => x86::gemv_fixed::<16>,
            #[cfg(target_arch = "x86_64")]
            (KernelSel::Avx2Fma | KernelSel::Avx512, RankSpec::R32) => x86::gemv_fixed::<32>,
            #[cfg(target_arch = "aarch64")]
            (KernelSel::Neon, _) => neon::gemv,
        };
        (kern, spec)
    }

    fn spec(&self, n: usize, contig: bool, hint: Option<usize>) -> RankSpec {
        if self.fuse {
            RankSpec::of(n, contig, hint)
        } else {
            RankSpec::Gen
        }
    }
}

/// Pick the best implementation the host supports. Under Miri the
/// vendor intrinsics are unsupported, so everything falls back to
/// scalar (program shape — fusion, specialization — is unaffected).
fn detect() -> KernelSel {
    #[cfg(miri)]
    {
        return KernelSel::Scalar;
    }
    #[cfg(not(miri))]
    {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return KernelSel::Avx512;
            }
            return KernelSel::Avx2Fma;
        }
        #[cfg(target_arch = "aarch64")]
        {
            return KernelSel::Neon;
        }
        #[allow(unreachable_code)]
        KernelSel::Scalar
    }
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
/// the scalar implementation family is selected (old hosts, Miri).
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
/// element (strictly sequential), so a fuse-enabled tape on a host
/// without SIMD stays bitwise-equal to the generic scalar tape.
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

/// AVX2+FMA kernels (x86_64). Every body is a safe
/// `#[target_feature]` function over length-checked slices with a
/// single internal `unsafe` block for the vendor intrinsics; the
/// wrappers are the only call sites and each carries the SAFETY
/// argument for why the required CPU features are present.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::blas;
    use core::arch::x86_64::{
        _mm256_add_pd, _mm256_castpd256_pd128, _mm256_extractf128_pd, _mm256_fmadd_pd,
        _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_setzero_pd, _mm256_storeu_pd,
        _mm_add_pd, _mm_cvtsd_f64, _mm_unpackhi_pd,
    };

    /// `y[..len] += alpha * x[..len]`, 4 lanes, 4× unrolled.
    #[target_feature(enable = "avx2", enable = "fma")]
    fn axpy_body(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len();
        debug_assert_eq!(n, y.len());
        let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
        // SAFETY: every load/store below addresses `x[i..i+4]` or
        // `y[i..i+4]` with `i + 4 <= n` (the scalar tail stays `< n`),
        // inside the slices whose lengths were checked above.
        unsafe {
            let a = _mm256_set1_pd(alpha);
            let mut i = 0;
            while i + 16 <= n {
                let y0 = _mm256_fmadd_pd(a, _mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)));
                let y1 = _mm256_fmadd_pd(
                    a,
                    _mm256_loadu_pd(xp.add(i + 4)),
                    _mm256_loadu_pd(yp.add(i + 4)),
                );
                let y2 = _mm256_fmadd_pd(
                    a,
                    _mm256_loadu_pd(xp.add(i + 8)),
                    _mm256_loadu_pd(yp.add(i + 8)),
                );
                let y3 = _mm256_fmadd_pd(
                    a,
                    _mm256_loadu_pd(xp.add(i + 12)),
                    _mm256_loadu_pd(yp.add(i + 12)),
                );
                _mm256_storeu_pd(yp.add(i), y0);
                _mm256_storeu_pd(yp.add(i + 4), y1);
                _mm256_storeu_pd(yp.add(i + 8), y2);
                _mm256_storeu_pd(yp.add(i + 12), y3);
                i += 16;
            }
            while i + 4 <= n {
                let yv = _mm256_fmadd_pd(a, _mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)));
                _mm256_storeu_pd(yp.add(i), yv);
                i += 4;
            }
            while i < n {
                *yp.add(i) += alpha * *xp.add(i);
                i += 1;
            }
        }
    }

    /// `y[..len] = alpha * x[..len]` (assigning twin of [`axpy_body`]).
    #[target_feature(enable = "avx2", enable = "fma")]
    fn zaxpy_body(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len();
        debug_assert_eq!(n, y.len());
        let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
        // SAFETY: all accesses stay in `x[..n]` / `y[..n]` as in
        // `axpy_body` (vector steps gated by `i + 4 <= n`, tail `< n`).
        unsafe {
            let a = _mm256_set1_pd(alpha);
            let mut i = 0;
            while i + 4 <= n {
                _mm256_storeu_pd(yp.add(i), _mm256_mul_pd(a, _mm256_loadu_pd(xp.add(i))));
                i += 4;
            }
            while i < n {
                *yp.add(i) = alpha * *xp.add(i);
                i += 1;
            }
        }
    }

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

    /// `y[..len] += alpha * x[..len] ∘ z[..len]`.
    #[target_feature(enable = "avx2", enable = "fma")]
    fn xmul_body(alpha: f64, x: &[f64], z: &[f64], y: &mut [f64]) {
        let n = x.len();
        debug_assert!(n == z.len() && n == y.len());
        let (xp, zp, yp) = (x.as_ptr(), z.as_ptr(), y.as_mut_ptr());
        // SAFETY: vector accesses gated by `i + 4 <= n`, scalar tail by
        // `i < n`; all inside the three length-checked slices.
        unsafe {
            let a = _mm256_set1_pd(alpha);
            let mut i = 0;
            while i + 4 <= n {
                let t = _mm256_mul_pd(_mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(zp.add(i)));
                _mm256_storeu_pd(yp.add(i), _mm256_fmadd_pd(a, t, _mm256_loadu_pd(yp.add(i))));
                i += 4;
            }
            while i < n {
                *yp.add(i) += alpha * *xp.add(i) * *zp.add(i);
                i += 1;
            }
        }
    }

    /// `y[..len] = alpha * x[..len] ∘ z[..len]` (assigning twin).
    #[target_feature(enable = "avx2", enable = "fma")]
    fn zxmul_body(alpha: f64, x: &[f64], z: &[f64], y: &mut [f64]) {
        let n = x.len();
        debug_assert!(n == z.len() && n == y.len());
        let (xp, zp, yp) = (x.as_ptr(), z.as_ptr(), y.as_mut_ptr());
        // SAFETY: same bounds discipline as `xmul_body`.
        unsafe {
            let a = _mm256_set1_pd(alpha);
            let mut i = 0;
            while i + 4 <= n {
                let t = _mm256_mul_pd(_mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(zp.add(i)));
                _mm256_storeu_pd(yp.add(i), _mm256_mul_pd(a, t));
                i += 4;
            }
            while i < n {
                *yp.add(i) = alpha * *xp.add(i) * *zp.add(i);
                i += 1;
            }
        }
    }

    /// Whole-matrix GER row loop inside one `#[target_feature]`
    /// region: the per-row AXPY bodies inline here (same feature set,
    /// so the calls are safe and inlinable), which lets LLVM keep the
    /// invariant `y` vector in registers across rows instead of
    /// reloading it past an opaque call boundary per row.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    fn ger_rows_body(
        m: usize,
        n: usize,
        alpha: f64,
        x: &[f64],
        incx: usize,
        a: &mut [f64],
        rs: usize,
        y: &[f64],
    ) {
        let yv = &y[..n];
        for i in 0..m {
            axpy_body(alpha * x[i * incx], yv, &mut a[i * rs..i * rs + n]);
        }
    }

    /// Assigning twin of [`ger_rows_body`].
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    fn zger_rows_body(
        m: usize,
        n: usize,
        alpha: f64,
        x: &[f64],
        incx: usize,
        a: &mut [f64],
        rs: usize,
        y: &[f64],
    ) {
        let yv = &y[..n];
        for i in 0..m {
            zaxpy_body(alpha * x[i * incx], yv, &mut a[i * rs..i * rs + n]);
        }
    }

    /// Whole-matrix GEMV row loop inside one `#[target_feature]`
    /// region (same rationale as [`ger_rows_body`]: the shared `x`
    /// vector stays resident across the inlined per-row DOTs).
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

    /// [`blas::axpy`]-shaped wrapper: vectorize the contiguous case,
    /// delegate strided calls to the scalar kernel.
    pub(super) fn axpy(n: usize, alpha: f64, x: &[f64], incx: usize, y: &mut [f64], incy: usize) {
        if alpha == 0.0 {
            return; // match blas::axpy: even NaN inputs leave y alone
        }
        if incx == 1 && incy == 1 {
            // SAFETY: this function is only installed in a tape by a
            // `KernelSet` whose `detect()` observed AVX2 and FMA via
            // `is_x86_feature_detected!` on this host at bind time.
            unsafe { axpy_body(alpha, &x[..n], &mut y[..n]) }
        } else {
            blas::axpy(n, alpha, x, incx, y, incy);
        }
    }

    /// Assigning AXPY wrapper (never skips the write).
    pub(super) fn zaxpy(n: usize, alpha: f64, x: &[f64], incx: usize, y: &mut [f64], incy: usize) {
        if incx == 1 && incy == 1 {
            // SAFETY: reachable only via a `KernelSet` that detected
            // AVX2+FMA at bind time (see `axpy` above).
            unsafe { zaxpy_body(alpha, &x[..n], &mut y[..n]) }
        } else {
            super::scalar_zero::zaxpy(n, alpha, x, incx, y, incy);
        }
    }

    /// [`blas::dot`]-shaped wrapper.
    pub(super) fn dot(n: usize, x: &[f64], incx: usize, y: &[f64], incy: usize) -> f64 {
        if incx == 1 && incy == 1 {
            // SAFETY: reachable only via a `KernelSet` that detected
            // AVX2+FMA at bind time (see `axpy` above).
            unsafe { dot_body(&x[..n], &y[..n]) }
        } else {
            blas::dot(n, x, incx, y, incy)
        }
    }

    /// [`blas::xmul`]-shaped wrapper.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn xmul(
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
            // SAFETY: reachable only via a `KernelSet` that detected
            // AVX2+FMA at bind time (see `axpy` above).
            unsafe { xmul_body(alpha, &x[..n], &z[..n], &mut y[..n]) }
        } else {
            blas::xmul(n, alpha, x, incx, z, incz, y, incy);
        }
    }

    /// Assigning XMUL wrapper.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn zxmul(
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
            // SAFETY: reachable only via a `KernelSet` that detected
            // AVX2+FMA at bind time (see `axpy` above).
            unsafe { zxmul_body(alpha, &x[..n], &z[..n], &mut y[..n]) }
        } else {
            super::scalar_zero::zxmul(n, alpha, x, incx, z, incz, y, incy);
        }
    }

    /// [`blas::ger`]-shaped wrapper: each row is one vector AXPY.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn ger(
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
        if alpha == 0.0 {
            return; // match blas::ger
        }
        if cs == 1 && incy == 1 {
            // SAFETY: reachable only via a `KernelSet` that detected
            // AVX2+FMA at bind time (see `axpy` above).
            unsafe { ger_rows_body(m, n, alpha, x, incx, a, rs, y) }
        } else {
            blas::ger(m, n, alpha, x, incx, y, incy, a, rs, cs);
        }
    }

    /// Assigning GER wrapper: each row is one assigning vector AXPY.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn zger(
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
            // SAFETY: reachable only via a `KernelSet` that detected
            // AVX2+FMA at bind time (see `axpy` above).
            unsafe { zger_rows_body(m, n, alpha, x, incx, a, rs, y) }
        } else {
            super::scalar_zero::zger(m, n, alpha, x, incx, y, incy, a, rs, cs);
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
            // AVX2+FMA at bind time (see `axpy` above).
            unsafe { gemv_rows_body(m, n, alpha, a, rs, x, y, incy) }
        } else {
            blas::gemv(m, n, alpha, a, rs, cs, x, incx, y, incy);
        }
    }

    /// Rank-specialized AXPY: contiguous, trip count statically `N`.
    /// The monomorphized body lets LLVM fully unroll `N/4` vector ops.
    #[target_feature(enable = "avx2", enable = "fma")]
    fn axpy_fixed_body<const N: usize>(alpha: f64, x: &[f64], y: &mut [f64]) {
        debug_assert!(N.is_multiple_of(4) && x.len() == N && y.len() == N);
        let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
        // SAFETY: `N` is a multiple of 4 and both slices have exactly
        // `N` elements (wrapper slices to `..N`); every access is
        // `[i, i+4)` with `i + 4 <= N`.
        unsafe {
            let a = _mm256_set1_pd(alpha);
            let mut i = 0;
            while i < N {
                let yv = _mm256_fmadd_pd(a, _mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)));
                _mm256_storeu_pd(yp.add(i), yv);
                i += 4;
            }
        }
    }

    /// Rank-specialized assigning AXPY body.
    #[target_feature(enable = "avx2", enable = "fma")]
    fn zaxpy_fixed_body<const N: usize>(alpha: f64, x: &[f64], y: &mut [f64]) {
        debug_assert!(N.is_multiple_of(4) && x.len() == N && y.len() == N);
        let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
        // SAFETY: as in `axpy_fixed_body` — `N % 4 == 0`, slices of
        // exactly `N`, accesses `[i, i+4)` with `i + 4 <= N`.
        unsafe {
            let a = _mm256_set1_pd(alpha);
            let mut i = 0;
            while i < N {
                _mm256_storeu_pd(yp.add(i), _mm256_mul_pd(a, _mm256_loadu_pd(xp.add(i))));
                i += 4;
            }
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

    /// Rank-specialized whole-matrix GER: `y` is hoisted into at most
    /// eight ymm registers once, then every row is `N/4` fully
    /// unrolled FMAs against the resident vector. This is the hot
    /// kernel of rank-specialized TTMc.
    #[target_feature(enable = "avx2", enable = "fma")]
    fn ger_rows_fixed_body<const N: usize>(
        m: usize,
        alpha: f64,
        x: &[f64],
        incx: usize,
        a: &mut [f64],
        rs: usize,
        y: &[f64],
    ) {
        debug_assert!(N.is_multiple_of(4) && N <= 32);
        if m == 0 {
            return;
        }
        assert!(y.len() >= N && x.len() > (m - 1) * incx && a.len() >= (m - 1) * rs + N);
        let (xp, yp, ap) = (x.as_ptr(), y.as_ptr(), a.as_mut_ptr());
        // SAFETY: the asserts above bound every access — `y` loads read
        // `[4k, 4k+4) ⊆ [0, N)`, `x` reads `i * incx ≤ (m-1) * incx`,
        // and row accesses touch `[i*rs, i*rs + N) ⊆ [0, (m-1)*rs + N)`.
        unsafe {
            let mut yv = [_mm256_setzero_pd(); 8];
            for (k, lane) in yv.iter_mut().enumerate().take(N / 4) {
                *lane = _mm256_loadu_pd(yp.add(4 * k));
            }
            for i in 0..m {
                let xi = _mm256_set1_pd(alpha * *xp.add(i * incx));
                let row = ap.add(i * rs);
                for (k, lane) in yv.iter().enumerate().take(N / 4) {
                    let acc = _mm256_fmadd_pd(xi, *lane, _mm256_loadu_pd(row.add(4 * k)));
                    _mm256_storeu_pd(row.add(4 * k), acc);
                }
            }
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
        // SAFETY: bounded by the asserts above exactly as in
        // `ger_rows_fixed_body`; `y` writes touch `i * incy` only.
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

    /// Rank-specialized AXPY wrapper (`n == N`, unit strides enforced).
    pub(super) fn axpy_fixed<const N: usize>(
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
            return; // match blas::axpy
        }
        // SAFETY: reachable only via a `KernelSet` that detected
        // AVX2+FMA at bind time (see `axpy` above).
        unsafe { axpy_fixed_body::<N>(alpha, &x[..N], &mut y[..N]) }
    }

    /// Rank-specialized assigning AXPY wrapper.
    pub(super) fn zaxpy_fixed<const N: usize>(
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
        // SAFETY: reachable only via a `KernelSet` that detected
        // AVX2+FMA at bind time (see `axpy` above).
        unsafe { zaxpy_fixed_body::<N>(alpha, &x[..N], &mut y[..N]) }
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
        // AVX2+FMA at bind time (see `axpy` above).
        unsafe { dot_fixed_body::<N>(&x[..N], &y[..N]) }
    }

    /// Rank-specialized GER wrapper: row length statically `N`.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn ger_fixed<const N: usize>(
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
            return; // match blas::ger
        }
        // SAFETY: reachable only via a `KernelSet` that detected
        // AVX2+FMA at bind time (see `axpy` above).
        unsafe { ger_rows_fixed_body::<N>(m, alpha, x, incx, a, rs, y) }
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
        // AVX2+FMA at bind time (see `axpy` above).
        unsafe { gemv_rows_fixed_body::<N>(m, alpha, a, rs, x, y, incy) }
    }
}

/// AVX-512F kernels (x86_64, 8 × f64 lanes) for the element-parallel
/// families only: AXPY, GER, and XMUL assign each output element from
/// exactly one FMA, so widening the vector changes no reduction order
/// and the results stay bitwise independent of the detected x86 tier.
/// DOT and GEMV are *not* duplicated here — [`KernelSet`] routes them
/// to the AVX2 bodies so the fixed 4-lane reduction tree is the same
/// on every x86 host.
#[cfg(target_arch = "x86_64")]
mod x86_512 {
    use super::blas;
    use core::arch::x86_64::{
        _mm512_fmadd_pd, _mm512_loadu_pd, _mm512_mul_pd, _mm512_set1_pd, _mm512_setzero_pd,
        _mm512_storeu_pd,
    };

    /// `y[..len] += alpha * x[..len]`, 8 lanes per step, 16-wide
    /// unrolled main loop, strictly sequential scalar tail.
    #[target_feature(enable = "avx512f")]
    fn axpy_body(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len();
        debug_assert_eq!(n, y.len());
        let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
        // SAFETY: vector accesses read/write `[i, i+8)` only while
        // `i + 8 <= n` (16-wide steps check `i + 16 <= n`); the scalar
        // tail indexes `< n`. All within the length-checked slices.
        unsafe {
            let a = _mm512_set1_pd(alpha);
            let mut i = 0;
            while i + 16 <= n {
                let y0 = _mm512_fmadd_pd(a, _mm512_loadu_pd(xp.add(i)), _mm512_loadu_pd(yp.add(i)));
                let y1 = _mm512_fmadd_pd(
                    a,
                    _mm512_loadu_pd(xp.add(i + 8)),
                    _mm512_loadu_pd(yp.add(i + 8)),
                );
                _mm512_storeu_pd(yp.add(i), y0);
                _mm512_storeu_pd(yp.add(i + 8), y1);
                i += 16;
            }
            if i + 8 <= n {
                let yv = _mm512_fmadd_pd(a, _mm512_loadu_pd(xp.add(i)), _mm512_loadu_pd(yp.add(i)));
                _mm512_storeu_pd(yp.add(i), yv);
                i += 8;
            }
            while i < n {
                *yp.add(i) += alpha * *xp.add(i);
                i += 1;
            }
        }
    }

    /// `y[..len] = alpha * x[..len]` (assigning twin of [`axpy_body`]).
    #[target_feature(enable = "avx512f")]
    fn zaxpy_body(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len();
        debug_assert_eq!(n, y.len());
        let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
        // SAFETY: accesses bounded exactly as in `axpy_body`.
        unsafe {
            let a = _mm512_set1_pd(alpha);
            let mut i = 0;
            while i + 8 <= n {
                _mm512_storeu_pd(yp.add(i), _mm512_mul_pd(a, _mm512_loadu_pd(xp.add(i))));
                i += 8;
            }
            while i < n {
                *yp.add(i) = alpha * *xp.add(i);
                i += 1;
            }
        }
    }

    /// Whole-matrix GER row loop (see `x86::ger_rows_body` for the
    /// rationale: one `#[target_feature]` region keeps `y` resident).
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    fn ger_rows_body(
        m: usize,
        n: usize,
        alpha: f64,
        x: &[f64],
        incx: usize,
        a: &mut [f64],
        rs: usize,
        y: &[f64],
    ) {
        let yv = &y[..n];
        for i in 0..m {
            axpy_body(alpha * x[i * incx], yv, &mut a[i * rs..i * rs + n]);
        }
    }

    /// Assigning twin of [`ger_rows_body`].
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    fn zger_rows_body(
        m: usize,
        n: usize,
        alpha: f64,
        x: &[f64],
        incx: usize,
        a: &mut [f64],
        rs: usize,
        y: &[f64],
    ) {
        let yv = &y[..n];
        for i in 0..m {
            zaxpy_body(alpha * x[i * incx], yv, &mut a[i * rs..i * rs + n]);
        }
    }

    /// `y[..len] += alpha * x[..len] ∘ z[..len]`.
    #[target_feature(enable = "avx512f")]
    fn xmul_body(alpha: f64, x: &[f64], z: &[f64], y: &mut [f64]) {
        let n = x.len();
        debug_assert!(n == z.len() && n == y.len());
        let (xp, zp, yp) = (x.as_ptr(), z.as_ptr(), y.as_mut_ptr());
        // SAFETY: vector accesses gated by `i + 8 <= n`, scalar tail by
        // `i < n`; all inside the three length-checked slices.
        unsafe {
            let a = _mm512_set1_pd(alpha);
            let mut i = 0;
            while i + 8 <= n {
                let t = _mm512_mul_pd(_mm512_loadu_pd(xp.add(i)), _mm512_loadu_pd(zp.add(i)));
                _mm512_storeu_pd(yp.add(i), _mm512_fmadd_pd(a, t, _mm512_loadu_pd(yp.add(i))));
                i += 8;
            }
            while i < n {
                *yp.add(i) += alpha * *xp.add(i) * *zp.add(i);
                i += 1;
            }
        }
    }

    /// `y[..len] = alpha * x[..len] ∘ z[..len]` (assigning twin).
    #[target_feature(enable = "avx512f")]
    fn zxmul_body(alpha: f64, x: &[f64], z: &[f64], y: &mut [f64]) {
        let n = x.len();
        debug_assert!(n == z.len() && n == y.len());
        let (xp, zp, yp) = (x.as_ptr(), z.as_ptr(), y.as_mut_ptr());
        // SAFETY: same bounds discipline as `xmul_body`.
        unsafe {
            let a = _mm512_set1_pd(alpha);
            let mut i = 0;
            while i + 8 <= n {
                let t = _mm512_mul_pd(_mm512_loadu_pd(xp.add(i)), _mm512_loadu_pd(zp.add(i)));
                _mm512_storeu_pd(yp.add(i), _mm512_mul_pd(a, t));
                i += 8;
            }
            while i < n {
                *yp.add(i) = alpha * *xp.add(i) * *zp.add(i);
                i += 1;
            }
        }
    }

    /// Rank-specialized whole-matrix GER: `y` hoisted into at most
    /// four zmm registers once, each row is `N/8` fully unrolled FMAs.
    #[target_feature(enable = "avx512f")]
    fn ger_rows_fixed_body<const N: usize>(
        m: usize,
        alpha: f64,
        x: &[f64],
        incx: usize,
        a: &mut [f64],
        rs: usize,
        y: &[f64],
    ) {
        debug_assert!(N.is_multiple_of(8) && N <= 32);
        if m == 0 {
            return;
        }
        assert!(y.len() >= N && x.len() > (m - 1) * incx && a.len() >= (m - 1) * rs + N);
        let (xp, yp, ap) = (x.as_ptr(), y.as_ptr(), a.as_mut_ptr());
        // SAFETY: the asserts above bound every access — `y` loads read
        // `[8k, 8k+8) ⊆ [0, N)`, `x` reads `i * incx ≤ (m-1) * incx`,
        // and row accesses touch `[i*rs, i*rs + N) ⊆ [0, (m-1)*rs + N)`.
        unsafe {
            let mut yv = [_mm512_setzero_pd(); 4];
            for (k, lane) in yv.iter_mut().enumerate().take(N / 8) {
                *lane = _mm512_loadu_pd(yp.add(8 * k));
            }
            for i in 0..m {
                let xi = _mm512_set1_pd(alpha * *xp.add(i * incx));
                let row = ap.add(i * rs);
                for (k, lane) in yv.iter().enumerate().take(N / 8) {
                    let acc = _mm512_fmadd_pd(xi, *lane, _mm512_loadu_pd(row.add(8 * k)));
                    _mm512_storeu_pd(row.add(8 * k), acc);
                }
            }
        }
    }

    /// [`blas::axpy`]-shaped wrapper: vectorize the contiguous case,
    /// delegate strided calls to the scalar kernel.
    pub(super) fn axpy(n: usize, alpha: f64, x: &[f64], incx: usize, y: &mut [f64], incy: usize) {
        if alpha == 0.0 {
            return; // match blas::axpy: even NaN inputs leave y alone
        }
        if incx == 1 && incy == 1 {
            // SAFETY: this function is only installed in a tape by a
            // `KernelSet` whose `detect()` observed AVX-512F via
            // `is_x86_feature_detected!` on this host at bind time.
            unsafe { axpy_body(alpha, &x[..n], &mut y[..n]) }
        } else {
            blas::axpy(n, alpha, x, incx, y, incy);
        }
    }

    /// Assigning AXPY wrapper (never skips the write).
    pub(super) fn zaxpy(n: usize, alpha: f64, x: &[f64], incx: usize, y: &mut [f64], incy: usize) {
        if incx == 1 && incy == 1 {
            // SAFETY: reachable only via a `KernelSet` that detected
            // AVX-512F at bind time (see `axpy` above).
            unsafe { zaxpy_body(alpha, &x[..n], &mut y[..n]) }
        } else {
            super::scalar_zero::zaxpy(n, alpha, x, incx, y, incy);
        }
    }

    /// [`blas::xmul`]-shaped wrapper.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn xmul(
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
            // SAFETY: reachable only via a `KernelSet` that detected
            // AVX-512F at bind time (see `axpy` above).
            unsafe { xmul_body(alpha, &x[..n], &z[..n], &mut y[..n]) }
        } else {
            blas::xmul(n, alpha, x, incx, z, incz, y, incy);
        }
    }

    /// Assigning XMUL wrapper.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn zxmul(
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
            // SAFETY: reachable only via a `KernelSet` that detected
            // AVX-512F at bind time (see `axpy` above).
            unsafe { zxmul_body(alpha, &x[..n], &z[..n], &mut y[..n]) }
        } else {
            super::scalar_zero::zxmul(n, alpha, x, incx, z, incz, y, incy);
        }
    }

    /// [`blas::ger`]-shaped wrapper.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn ger(
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
        if alpha == 0.0 {
            return; // match blas::ger
        }
        if cs == 1 && incy == 1 {
            // SAFETY: reachable only via a `KernelSet` that detected
            // AVX-512F at bind time (see `axpy` above).
            unsafe { ger_rows_body(m, n, alpha, x, incx, a, rs, y) }
        } else {
            blas::ger(m, n, alpha, x, incx, y, incy, a, rs, cs);
        }
    }

    /// Assigning GER wrapper.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn zger(
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
            // SAFETY: reachable only via a `KernelSet` that detected
            // AVX-512F at bind time (see `axpy` above).
            unsafe { zger_rows_body(m, n, alpha, x, incx, a, rs, y) }
        } else {
            super::scalar_zero::zger(m, n, alpha, x, incx, y, incy, a, rs, cs);
        }
    }

    /// Rank-specialized AXPY wrapper (`n == N`, unit strides enforced).
    pub(super) fn axpy_fixed<const N: usize>(
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
            return; // match blas::axpy
        }
        // SAFETY: reachable only via a `KernelSet` that detected
        // AVX-512F at bind time (see `axpy` above).
        unsafe { axpy_body(alpha, &x[..N], &mut y[..N]) }
    }

    /// Rank-specialized assigning AXPY wrapper.
    pub(super) fn zaxpy_fixed<const N: usize>(
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
        // SAFETY: reachable only via a `KernelSet` that detected
        // AVX-512F at bind time (see `axpy` above).
        unsafe { zaxpy_body(alpha, &x[..N], &mut y[..N]) }
    }

    /// Rank-specialized GER wrapper: row length statically `N`.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn ger_fixed<const N: usize>(
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
            return; // match blas::ger
        }
        // SAFETY: reachable only via a `KernelSet` that detected
        // AVX-512F at bind time (see `axpy` above).
        unsafe { ger_rows_fixed_body::<N>(m, alpha, x, incx, a, rs, y) }
    }
}

/// NEON kernels (aarch64, 2 × f64 lanes). NEON is baseline for the
/// aarch64 targets we build, so no runtime detection is needed; the
/// bodies still follow the same slice-checked + single-unsafe-block
/// discipline as the x86 module.
#[cfg(target_arch = "aarch64")]
mod neon {
    use super::blas;
    use core::arch::aarch64::{
        vaddq_f64, vdupq_n_f64, vfmaq_f64, vgetq_lane_f64, vld1q_f64, vmulq_f64, vst1q_f64,
    };

    /// `y[..len] += alpha * x[..len]`, 2 lanes.
    #[target_feature(enable = "neon")]
    fn axpy_body(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len();
        debug_assert_eq!(n, y.len());
        let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
        // SAFETY: vector steps gated by `i + 2 <= n`, tail by `i < n`;
        // all inside the length-checked slices.
        unsafe {
            let a = vdupq_n_f64(alpha);
            let mut i = 0;
            while i + 2 <= n {
                let yv = vfmaq_f64(vld1q_f64(yp.add(i)), a, vld1q_f64(xp.add(i)));
                vst1q_f64(yp.add(i), yv);
                i += 2;
            }
            while i < n {
                *yp.add(i) += alpha * *xp.add(i);
                i += 1;
            }
        }
    }

    /// `y[..len] = alpha * x[..len]` (assigning twin).
    #[target_feature(enable = "neon")]
    fn zaxpy_body(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len();
        debug_assert_eq!(n, y.len());
        let (xp, yp) = (x.as_ptr(), y.as_mut_ptr());
        // SAFETY: same bounds discipline as `axpy_body`.
        unsafe {
            let a = vdupq_n_f64(alpha);
            let mut i = 0;
            while i + 2 <= n {
                vst1q_f64(yp.add(i), vmulq_f64(a, vld1q_f64(xp.add(i))));
                i += 2;
            }
            while i < n {
                *yp.add(i) = alpha * *xp.add(i);
                i += 1;
            }
        }
    }

    /// Lane-striped dot with fixed tree `(acc0 + acc1) → lane0 + lane1`
    /// and a sequential scalar tail (run-to-run bitwise stable).
    #[target_feature(enable = "neon")]
    fn dot_body(x: &[f64], y: &[f64]) -> f64 {
        let n = x.len();
        debug_assert_eq!(n, y.len());
        let (xp, yp) = (x.as_ptr(), y.as_ptr());
        // SAFETY: vector loads gated by `i + 4 <= n` / `i + 2 <= n`,
        // tail by `i < n`; all inside the length-checked slices.
        unsafe {
            let mut acc0 = vdupq_n_f64(0.0);
            let mut acc1 = vdupq_n_f64(0.0);
            let mut i = 0;
            while i + 4 <= n {
                acc0 = vfmaq_f64(acc0, vld1q_f64(xp.add(i)), vld1q_f64(yp.add(i)));
                acc1 = vfmaq_f64(acc1, vld1q_f64(xp.add(i + 2)), vld1q_f64(yp.add(i + 2)));
                i += 4;
            }
            if i + 2 <= n {
                acc0 = vfmaq_f64(acc0, vld1q_f64(xp.add(i)), vld1q_f64(yp.add(i)));
                i += 2;
            }
            let s = vaddq_f64(acc0, acc1);
            let mut acc = vgetq_lane_f64::<0>(s) + vgetq_lane_f64::<1>(s);
            while i < n {
                acc += *xp.add(i) * *yp.add(i);
                i += 1;
            }
            acc
        }
    }

    /// `y[..len] += alpha * x[..len] ∘ z[..len]`.
    #[target_feature(enable = "neon")]
    fn xmul_body(alpha: f64, x: &[f64], z: &[f64], y: &mut [f64]) {
        let n = x.len();
        debug_assert!(n == z.len() && n == y.len());
        let (xp, zp, yp) = (x.as_ptr(), z.as_ptr(), y.as_mut_ptr());
        // SAFETY: same bounds discipline as `axpy_body`, three slices.
        unsafe {
            let a = vdupq_n_f64(alpha);
            let mut i = 0;
            while i + 2 <= n {
                let t = vmulq_f64(vld1q_f64(xp.add(i)), vld1q_f64(zp.add(i)));
                vst1q_f64(yp.add(i), vfmaq_f64(vld1q_f64(yp.add(i)), a, t));
                i += 2;
            }
            while i < n {
                *yp.add(i) += alpha * *xp.add(i) * *zp.add(i);
                i += 1;
            }
        }
    }

    /// `y[..len] = alpha * x[..len] ∘ z[..len]` (assigning twin).
    #[target_feature(enable = "neon")]
    fn zxmul_body(alpha: f64, x: &[f64], z: &[f64], y: &mut [f64]) {
        let n = x.len();
        debug_assert!(n == z.len() && n == y.len());
        let (xp, zp, yp) = (x.as_ptr(), z.as_ptr(), y.as_mut_ptr());
        // SAFETY: same bounds discipline as `xmul_body`.
        unsafe {
            let a = vdupq_n_f64(alpha);
            let mut i = 0;
            while i + 2 <= n {
                let t = vmulq_f64(vld1q_f64(xp.add(i)), vld1q_f64(zp.add(i)));
                vst1q_f64(yp.add(i), vmulq_f64(a, t));
                i += 2;
            }
            while i < n {
                *yp.add(i) = alpha * *xp.add(i) * *zp.add(i);
                i += 1;
            }
        }
    }

    /// [`blas::axpy`]-shaped wrapper.
    pub(super) fn axpy(n: usize, alpha: f64, x: &[f64], incx: usize, y: &mut [f64], incy: usize) {
        if alpha == 0.0 {
            return; // match blas::axpy
        }
        if incx == 1 && incy == 1 {
            // SAFETY: NEON is baseline on every aarch64 target this
            // crate builds for (`target_feature = "neon"` is always
            // enabled by the ABI).
            unsafe { axpy_body(alpha, &x[..n], &mut y[..n]) }
        } else {
            blas::axpy(n, alpha, x, incx, y, incy);
        }
    }

    /// Assigning AXPY wrapper.
    pub(super) fn zaxpy(n: usize, alpha: f64, x: &[f64], incx: usize, y: &mut [f64], incy: usize) {
        if incx == 1 && incy == 1 {
            // SAFETY: NEON is baseline on aarch64 (see `axpy` above).
            unsafe { zaxpy_body(alpha, &x[..n], &mut y[..n]) }
        } else {
            super::scalar_zero::zaxpy(n, alpha, x, incx, y, incy);
        }
    }

    /// [`blas::dot`]-shaped wrapper.
    pub(super) fn dot(n: usize, x: &[f64], incx: usize, y: &[f64], incy: usize) -> f64 {
        if incx == 1 && incy == 1 {
            // SAFETY: NEON is baseline on aarch64 (see `axpy` above).
            unsafe { dot_body(&x[..n], &y[..n]) }
        } else {
            blas::dot(n, x, incx, y, incy)
        }
    }

    /// [`blas::xmul`]-shaped wrapper.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn xmul(
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
            // SAFETY: NEON is baseline on aarch64 (see `axpy` above).
            unsafe { xmul_body(alpha, &x[..n], &z[..n], &mut y[..n]) }
        } else {
            blas::xmul(n, alpha, x, incx, z, incz, y, incy);
        }
    }

    /// Assigning XMUL wrapper.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn zxmul(
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
            // SAFETY: NEON is baseline on aarch64 (see `axpy` above).
            unsafe { zxmul_body(alpha, &x[..n], &z[..n], &mut y[..n]) }
        } else {
            super::scalar_zero::zxmul(n, alpha, x, incx, z, incz, y, incy);
        }
    }

    /// [`blas::ger`]-shaped wrapper (row-wise vector AXPY).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn ger(
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
        if alpha == 0.0 {
            return; // match blas::ger
        }
        if cs == 1 && incy == 1 {
            let yv = &y[..n];
            for i in 0..m {
                let xi = alpha * x[i * incx];
                // SAFETY: NEON is baseline on aarch64 (see `axpy`).
                unsafe { axpy_body(xi, yv, &mut a[i * rs..i * rs + n]) }
            }
        } else {
            blas::ger(m, n, alpha, x, incx, y, incy, a, rs, cs);
        }
    }

    /// Assigning GER wrapper.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn zger(
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
                // SAFETY: NEON is baseline on aarch64 (see `axpy`).
                unsafe { zaxpy_body(xi, yv, &mut a[i * rs..i * rs + n]) }
            }
        } else {
            super::scalar_zero::zger(m, n, alpha, x, incx, y, incy, a, rs, cs);
        }
    }

    /// [`blas::gemv`]-shaped wrapper (row-wise vector DOT).
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
            let xv = &x[..n];
            for i in 0..m {
                // SAFETY: NEON is baseline on aarch64 (see `axpy`).
                let acc = unsafe { dot_body(&a[i * rs..i * rs + n], xv) };
                y[i * incy] += alpha * acc;
            }
        } else {
            blas::gemv(m, n, alpha, a, rs, cs, x, incx, y, incy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_scalar_disables_fusion() {
        let ks = KernelSet::resolve(Microkernels::Scalar);
        assert_eq!(ks.selection(), KernelSel::Scalar);
        assert!(!ks.superinstructions());
        assert_eq!(ks.width(), 1);
        assert_eq!(ks.name(), "scalar");
        // No specialization without fusion: even a perfect hint stays
        // on the generic blas kernel.
        let (_, spec) = ks.axpy(8, true, Some(8));
        assert_eq!(spec, RankSpec::Gen);
    }

    #[test]
    fn auto_specializes_only_on_pinned_contiguous_ranks() {
        // `auto_detected`, not `resolve(Auto)`: the scalar-forced CI
        // leg exports SPTTN_MICROKERNELS=scalar, which would turn
        // resolve's answer scalar and void the assertions below.
        let ks = KernelSet::auto_detected();
        assert!(ks.superinstructions());
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
}
