//! SIMD microkernels with bind-time selection.
//!
//! The compiled tape ([`crate::tape`]) removed every per-visit
//! *decision* from the hot loops; what remains is per-element *work*
//! inside the scalar microkernels of [`crate::blas`]. This module
//! supplies vectorized twins of those kernels and a [`KernelSet`] that
//! picks an implementation **once, at bind time**: the tape records it
//! and enters the selected tier once per walk or call, so execution
//! never asks "which kernel?" per element.
//!
//! ## Implementations
//!
//! | [`KernelSel`] | when                                                  |
//! |---------------|-------------------------------------------------------|
//! | `Scalar`      | always available — [`crate::blas`]'s arithmetic, unfused; the only tier on non-x86_64 targets |
//! | `Avx2Fma`     | x86_64 with AVX2+FMA detected at runtime              |
//! | `Avx512`      | x86_64 with AVX-512F (and AVX2+FMA) detected at runtime |
//!
//! Each kernel family's arithmetic is written once, generic over a
//! tier's *lane type* (`Lanes`: `__m512d`, `__m256d`, or one `f64`
//! with `unfused` arithmetic on the scalar tier): the element-parallel
//! kernels — AXPY, XMUL, GER and their assigning twins — as lane-vector
//! loops with an element-wise tail, DOT and GEMV through the tier's
//! reduction (a hand-written AVX2 lane tree both x86 tiers share,
//! [`crate::blas`]'s order on the scalar tier). A `Body` is
//! instantiated with the lane type inside the tier's
//! `#[target_feature]` region, so every kernel body it reaches inlines
//! there. Each tier's table (one function pointer per kernel family,
//! what `spttn-net`'s dense steps and the benches call) enters one
//! region per family that takes the call's own arguments
//! (`tier_table!`, which stamps entries and holds no arithmetic); every
//! walk of the tape enters through `KernelSet::enter` — a fused loop or
//! fiber runs its kernels inline, per nonzero and per fiber, with no
//! call.
//!
//! Selection is *host state*, not *program shape*: program shape
//! depends only on the plan. Every bind of the same plan, at every
//! tier, compiles the same instruction stream (same fusion); binds
//! differ only in which tier the tape enters.
//!
//! ## Rank specialization
//!
//! Tensor-network ranks are small and fixed (the benches use R ∈
//! {8, 16, 32}). A contiguous call at n = 8, 16 or 32 runs a body
//! monomorphized over that rank, which the compiler unrolls fully; any
//! other call runs the generic loop. The rank is picked once per call
//! of a table kernel, from its own trip count and strides, and once per
//! walk of the tape. Every walk runs in one carrier over one kind of
//! part (one resolved call, fired per node), so one rule picks it: a
//! lone call or fused loop by its call site, a fiber by its buffer's
//! length, whose fixed-rank instance holds that buffer in a local
//! `[f64; N]` the compiler keeps in registers (`at_rank!`). A strided
//! walk, a fiber whose parts cannot share a local buffer, and any other
//! rank run the generic instance of the same carrier. Nothing
//! upstream records the choice: the [`KernelSet`] accessors report it
//! ([`RankSpec`]) and [`crate::CompiledTape::specialized`] counts the
//! sites that take an unrolled body.
//!
//! ## Determinism contract
//!
//! - Scalar kernels round every product and sum, in [`crate::blas`]'s
//!   order, and accumulate DOT and GEMV strictly left-to-right; forcing
//!   [`Microkernels::Scalar`] reproduces the committed digests' scalar
//!   rows (`tests/tape_digests.txt`: the unfused loop-forest
//!   interpreter's bits, recorded) **bitwise**, fused program and all.
//!   (XMUL computes `α·(x·z)` where `blas` computes `(α·x)·z`; every
//!   caller passes `α = 1`.) The x86 FMA tiers share one set of rows.
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
//! - A walk of the tape is bitwise the sequence of table calls it
//!   replaces, by construction: the same body per call, the same
//!   multiply-add per element in the same order, the AXPY and GER skip
//!   of `α == 0`, a fused DOT's `0.0 + d`, the scalar tier's unfused
//!   arithmetic. A fiber's buffer held in registers differs from the
//!   workspace buffer only in where it lives; no one reads it after the
//!   fiber. `tier_walks_are_bitwise_the_per_call_kernels` in
//!   [`crate::tape`] checks this on every tier the host has.
//! - Results are run-to-run bitwise stable at a fixed (thread count,
//!   kernel selection), and differ from strict scalar ordering only by
//!   FMA contraction and reassociation, bounded by the ≤1e-9
//!   differential tolerance the test suite enforces.
//!
//! The `SPTTN_MICROKERNELS` environment variable overrides the
//! programmatic option at bind time: `scalar` forces the scalar path,
//! anything else (or unset) behaves as `auto`.

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
    /// its results equal the committed digests' scalar rows bit for bit.
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

/// `y[i*incy] += alpha * x[i*incx]` — signature of [`crate::blas::axpy`].
pub type AxpyFn = fn(usize, f64, &[f64], usize, &mut [f64], usize);
/// `Σ x[i*incx] * y[i*incy]` — signature of [`crate::blas::dot`].
pub type DotFn = fn(usize, &[f64], usize, &[f64], usize) -> f64;
/// `y[i*incy] += alpha * x[i*incx] * z[i*incz]` — signature of
/// [`crate::blas::xmul`].
pub type XmulFn = fn(usize, f64, &[f64], usize, &[f64], usize, &mut [f64], usize);
/// `A[i,j] += alpha * x[i] * y[j]` — signature of [`crate::blas::ger`].
pub type GerFn = fn(usize, usize, f64, &[f64], usize, &[f64], usize, &mut [f64], usize, usize);
/// `y[i] += alpha * Σ_j A[i,j] * x[j]` — signature of [`crate::blas::gemv`].
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

/// A bind-time kernel selection: which implementation family — kernel
/// tier — runs the kernels.
///
/// Program shape — fusion — depends only on the plan; the selection
/// decides, by the [`Microkernels`] option and the host CPU, which
/// tier's `#[target_feature]` region the tape's walks are entered in
/// and which table the accessors below hand out. Copying the set into
/// the tape makes the selection permanent for that tape's lifetime.
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
    /// shape: the tape fuses as at every tier, and reproduces the
    /// committed digests' scalar rows bit for bit.
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
            KernelSel::Scalar => &SCALAR,
            #[cfg(target_arch = "x86_64")]
            KernelSel::Avx2Fma => &x86::AVX2,
            #[cfg(target_arch = "x86_64")]
            KernelSel::Avx512 => &x86::AVX512,
        }
    }

    /// Run `body` compiled for this selection's tier: instantiated with
    /// the tier's lanes, inside its `#[target_feature]` region.
    pub(crate) fn enter<B: Body>(&self, body: B) -> B::Out {
        match self.sel {
            KernelSel::Scalar => Scalar::enter(body),
            #[cfg(target_arch = "x86_64")]
            KernelSel::Avx2Fma => x86::Avx2::enter(body),
            #[cfg(target_arch = "x86_64")]
            KernelSel::Avx512 => x86::Avx512::enter(body),
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

/// `c + a·b`, rounded twice in [`crate::blas`]'s order: the scalar tier's
/// accumulation, and every tier's strided one.
#[inline(always)]
fn unfused(a: f64, b: f64, c: f64) -> f64 {
    c + a * b
}

/// The fixed rank a call at trip count `n` runs (8, 16 or 32, when
/// `contig`), else 0: the generic loop.
pub(crate) fn rank(n: usize, contig: bool) -> usize {
    if unrolled(n, contig) {
        n
    } else {
        0
    }
}

/// `$body` with the const `$n` bound to `$rank` when that is 8, 16 or 32,
/// else to 0 (see [`rank`]): a call or walk at a common rank runs a body
/// monomorphized over it, which the compiler unrolls fully, instead of
/// the generic loop, whose short-length remainder would run a 16-long
/// call at a quarter of the vector width.
macro_rules! at_rank {
    ($rank:expr, $n:ident => $body:expr) => {
        match $rank {
            8 => {
                const $n: usize = 8;
                $body
            }
            16 => {
                const $n: usize = 16;
                $body
            }
            32 => {
                const $n: usize = 32;
                $body
            }
            _ => {
                const $n: usize = 0;
                $body
            }
        }
    };
}
pub(crate) use at_rank;

/// Work compiled once per kernel tier: [`Lanes::enter`] instantiates
/// `run` with the tier's lane type inside the tier's `#[target_feature]`
/// region, so every kernel body `run` reaches inlines there and compiles
/// under the tier's features. Implementations mark `run`
/// `#[inline(always)]`.
pub(crate) trait Body {
    type Out;
    fn run<L: Lanes>(self, l: L) -> Self::Out;
}

/// Tier `$lanes`'s table. Each kernel is a safe entry into a region of
/// its own: one function per family, under the tier's
/// `#[target_feature]` (`$features`), that takes the call's own
/// arguments — so a call copies nothing on its way in — and runs the
/// family's table body (`AxpyK`, …) with the tier's lane value `$lanes`.
/// The arithmetic is the bodies'; this only stamps the entries.
macro_rules! tier_table {
    ($lanes:expr, $tier:ty, [$($features:literal)?]) => {{
        use $crate::simd::{AxpyK, Body, DotK, GemvK, GerK, Lanes, Table, XmulK};
        type Y<'a> = &'a mut [f64];
        $(#[target_feature(enable = $features)])?
        fn axpy<const A: bool>(n: usize, alpha: f64, x: &[f64], ix: usize, y: Y, iy: usize) {
            AxpyK::<A>(n, alpha, x, ix, y, iy).run($lanes)
        }
        $(#[target_feature(enable = $features)])?
        #[allow(clippy::too_many_arguments)]
        fn xmul<const A: bool>(
            n: usize, alpha: f64, x: &[f64], ix: usize, z: &[f64], iz: usize, y: Y, iy: usize,
        ) {
            XmulK::<A>(n, alpha, (x, ix), (z, iz), (y, iy)).run($lanes)
        }
        $(#[target_feature(enable = $features)])?
        #[allow(clippy::too_many_arguments)]
        fn ger<const A: bool>(
            m: usize, n: usize, alpha: f64, x: &[f64], ix: usize, y: &[f64], iy: usize, a: Y,
            rs: usize, cs: usize,
        ) {
            GerK::<A>((m, n, alpha), (x, ix), (y, iy), (a, rs, cs)).run($lanes)
        }
        $(#[target_feature(enable = $features)])?
        fn dot(n: usize, x: &[f64], ix: usize, y: &[f64], iy: usize) -> f64 {
            DotK(n, (x, ix), (y, iy)).run($lanes)
        }
        $(#[target_feature(enable = $features)])?
        #[allow(clippy::too_many_arguments)]
        fn gemv(
            m: usize, n: usize, alpha: f64, a: &[f64], rs: usize, cs: usize, x: &[f64],
            ix: usize, y: Y, iy: usize,
        ) {
            GemvK((m, n, alpha), (a, rs, cs), (x, ix), (y, iy)).run($lanes)
        }
        // The entries. SAFETY (every `unsafe` below): a tier's table is
        // reached only through a `KernelSet` selecting the tier, which
        // selects an x86 tier only where `host_supports` observed its
        // features; the scalar tier's regions need none.
        #[allow(unused_unsafe)]
        fn axpy_e<const A: bool>(n: usize, al: f64, x: &[f64], ix: usize, y: Y, iy: usize) {
            unsafe { axpy::<A>(n, al, x, ix, y, iy) } // SAFETY: see above.
        }
        #[allow(unused_unsafe, clippy::too_many_arguments)]
        fn xmul_e<const A: bool>(
            n: usize, al: f64, x: &[f64], ix: usize, z: &[f64], iz: usize, y: Y, iy: usize,
        ) {
            unsafe { xmul::<A>(n, al, x, ix, z, iz, y, iy) } // SAFETY: see above.
        }
        #[allow(unused_unsafe, clippy::too_many_arguments)]
        fn ger_e<const A: bool>(
            m: usize, n: usize, al: f64, x: &[f64], ix: usize, y: &[f64], iy: usize, a: Y,
            rs: usize, cs: usize,
        ) {
            unsafe { ger::<A>(m, n, al, x, ix, y, iy, a, rs, cs) } // SAFETY: see above.
        }
        #[allow(unused_unsafe)]
        fn dot_e(n: usize, x: &[f64], ix: usize, y: &[f64], iy: usize) -> f64 {
            unsafe { dot(n, x, ix, y, iy) } // SAFETY: see above.
        }
        #[allow(unused_unsafe, clippy::too_many_arguments)]
        fn gemv_e(
            m: usize, n: usize, al: f64, a: &[f64], rs: usize, cs: usize, x: &[f64], ix: usize,
            y: Y, iy: usize,
        ) {
            unsafe { gemv(m, n, al, a, rs, cs, x, ix, y, iy) } // SAFETY: see above.
        }
        Table {
            name: <$tier>::NAME,
            width: <$tier>::W,
            axpy: axpy_e::<false>,
            zaxpy: axpy_e::<true>,
            dot: dot_e,
            xmul: xmul_e::<false>,
            zxmul: xmul_e::<true>,
            ger: ger_e::<false>,
            zger: ger_e::<true>,
            gemv: gemv_e,
        }
    }};
}

/// A kernel tier's lane type: the vector the element-parallel bodies
/// run on and the one multiply-add rule every element follows — one
/// rounding (`fma`) on the x86 tiers, two ([`unfused`]) on the scalar
/// tier, in vector lanes and in the element-wise tail alike. A value of
/// an x86 lane type exists only inside its tier's region, entered only
/// on a host with the tier's features.
pub(crate) trait Lanes: Copy {
    type V: Copy;
    /// f64 lanes per vector.
    const W: usize;
    /// The tier's name in reports.
    const NAME: &'static str;
    /// Run `body` in this tier's region.
    fn enter<B: Body>(body: B) -> B::Out;
    fn splat(self, x: f64) -> Self::V;
    /// The first `W` elements of `x`.
    fn load(self, x: &[f64]) -> Self::V;
    /// Store `v` into the first `W` elements of `y`.
    fn store(self, y: &mut [f64], v: Self::V);
    fn mul(self, a: Self::V, b: Self::V) -> Self::V;
    /// `a·b + c` in every lane.
    fn madd(self, a: Self::V, b: Self::V, c: Self::V) -> Self::V;
    /// `a·b + c` on one element, rounded as [`Lanes::madd`] rounds.
    fn madd1(self, a: f64, b: f64, c: f64) -> f64;
    /// `Σ x[i]·y[i]` over the first `n` elements (`N` when `N > 0`) in
    /// the tier's reduction order: strictly left to right on the scalar
    /// tier, the fixed 4-lane tree on the x86 tiers.
    fn dot<const N: usize>(self, n: usize, x: &[f64], y: &[f64]) -> f64;
}

/// The scalar tier's lanes: one `f64`, [`crate::blas`]'s arithmetic.
#[derive(Clone, Copy)]
pub(crate) struct Scalar;

impl Lanes for Scalar {
    type V = f64;
    const W: usize = 1;
    const NAME: &'static str = "scalar";

    #[inline(always)]
    fn enter<B: Body>(body: B) -> B::Out {
        body.run(Scalar)
    }
    #[inline(always)]
    fn splat(self, x: f64) -> f64 {
        x
    }
    #[inline(always)]
    fn load(self, x: &[f64]) -> f64 {
        x[0]
    }
    #[inline(always)]
    fn store(self, y: &mut [f64], v: f64) {
        y[0] = v;
    }
    #[inline(always)]
    fn mul(self, a: f64, b: f64) -> f64 {
        a * b
    }
    #[inline(always)]
    fn madd(self, a: f64, b: f64, c: f64) -> f64 {
        unfused(a, b, c)
    }
    #[inline(always)]
    fn madd1(self, a: f64, b: f64, c: f64) -> f64 {
        unfused(a, b, c)
    }
    #[inline(always)]
    fn dot<const N: usize>(self, n: usize, x: &[f64], y: &[f64]) -> f64 {
        let n = if N == 0 { n } else { N };
        (x[..n].iter().zip(&y[..n])).fold(0.0, |acc, (a, b)| acc + a * b)
    }
}

/// The x86 tiers' lanes and regions, and the DOT lane tree both share:
/// one hand-written tree, because the tree *is* the reduction order the
/// determinism contract fixes.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Body, Lanes};
    use core::arch::x86_64::{
        __m256d, __m512d, _mm256_add_pd, _mm256_castpd256_pd128, _mm256_extractf128_pd,
        _mm256_fmadd_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_setzero_pd,
        _mm256_storeu_pd, _mm512_fmadd_pd, _mm512_loadu_pd, _mm512_mul_pd, _mm512_set1_pd,
        _mm512_storeu_pd, _mm_add_pd, _mm_cvtsd_f64, _mm_unpackhi_pd,
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

    /// [`lane_tree`] over the first `n` elements of two slices.
    #[inline(always)]
    fn dot<const N: usize>(n: usize, x: &[f64], y: &[f64]) -> f64 {
        let n = if N == 0 { n } else { N };
        let (x, y) = (&x[..n], &y[..n]);
        // SAFETY: both slices hold `n` elements, and a lane type — the
        // only caller — exists only inside a region entered on a host
        // with AVX2+FMA (both tiers require them).
        unsafe { lane_tree::<N>(n, x.as_ptr(), y.as_ptr()) }
    }

    /// AVX2+FMA lanes: 4 × f64.
    #[derive(Clone, Copy)]
    pub(crate) struct Avx2(());

    impl Lanes for Avx2 {
        type V = __m256d;
        const W: usize = 4;
        const NAME: &'static str = "avx2+fma";

        #[inline(always)]
        fn enter<B: Body>(body: B) -> B::Out {
            #[target_feature(enable = "avx2,fma")]
            fn region<B: Body>(body: B) -> B::Out {
                body.run(Avx2(()))
            }
            // SAFETY: this tier is entered only through its table or a
            // `KernelSet` selecting it, and a `KernelSet` selects it only
            // where `host_supports` observed AVX2+FMA on this host.
            unsafe { region(body) }
        }
        // The methods below run only where an `Avx2` exists, inside the
        // region above; each SAFETY names what else its intrinsic needs.
        #[inline(always)]
        fn splat(self, x: f64) -> __m256d {
            // SAFETY: AVX2 is present (see above).
            unsafe { _mm256_set1_pd(x) }
        }
        #[inline(always)]
        fn load(self, x: &[f64]) -> __m256d {
            assert!(x.len() >= 4);
            // SAFETY: AVX2 is present, and the assert bounds the read.
            unsafe { _mm256_loadu_pd(x.as_ptr()) }
        }
        #[inline(always)]
        fn store(self, y: &mut [f64], v: __m256d) {
            assert!(y.len() >= 4);
            // SAFETY: AVX2 is present, and the assert bounds the write.
            unsafe { _mm256_storeu_pd(y.as_mut_ptr(), v) }
        }
        #[inline(always)]
        fn mul(self, a: __m256d, b: __m256d) -> __m256d {
            // SAFETY: AVX2 is present.
            unsafe { _mm256_mul_pd(a, b) }
        }
        #[inline(always)]
        fn madd(self, a: __m256d, b: __m256d, c: __m256d) -> __m256d {
            // SAFETY: FMA is present.
            unsafe { _mm256_fmadd_pd(a, b, c) }
        }
        #[inline(always)]
        fn madd1(self, a: f64, b: f64, c: f64) -> f64 {
            a.mul_add(b, c)
        }
        #[inline(always)]
        fn dot<const N: usize>(self, n: usize, x: &[f64], y: &[f64]) -> f64 {
            dot::<N>(n, x, y)
        }
    }

    /// AVX-512F lanes: 8 × f64. Reductions keep the AVX2 lane tree.
    #[derive(Clone, Copy)]
    pub(crate) struct Avx512(());

    impl Lanes for Avx512 {
        type V = __m512d;
        const W: usize = 8;
        const NAME: &'static str = "avx512f";

        #[inline(always)]
        fn enter<B: Body>(body: B) -> B::Out {
            #[target_feature(enable = "avx512f,avx2,fma")]
            fn region<B: Body>(body: B) -> B::Out {
                body.run(Avx512(()))
            }
            // SAFETY: this tier is entered only through its table or a
            // `KernelSet` selecting it, and a `KernelSet` selects it only
            // where `host_supports` observed AVX-512F, AVX2 and FMA.
            unsafe { region(body) }
        }
        // The methods below run only where an `Avx512` exists, inside
        // the region above; each SAFETY names what else it needs.
        #[inline(always)]
        fn splat(self, x: f64) -> __m512d {
            // SAFETY: AVX-512F is present (see above).
            unsafe { _mm512_set1_pd(x) }
        }
        #[inline(always)]
        fn load(self, x: &[f64]) -> __m512d {
            assert!(x.len() >= 8);
            // SAFETY: AVX-512F is present, and the assert bounds the read.
            unsafe { _mm512_loadu_pd(x.as_ptr()) }
        }
        #[inline(always)]
        fn store(self, y: &mut [f64], v: __m512d) {
            assert!(y.len() >= 8);
            // SAFETY: AVX-512F is present, and the assert bounds the write.
            unsafe { _mm512_storeu_pd(y.as_mut_ptr(), v) }
        }
        #[inline(always)]
        fn mul(self, a: __m512d, b: __m512d) -> __m512d {
            // SAFETY: AVX-512F is present.
            unsafe { _mm512_mul_pd(a, b) }
        }
        #[inline(always)]
        fn madd(self, a: __m512d, b: __m512d, c: __m512d) -> __m512d {
            // SAFETY: AVX-512F is present.
            unsafe { _mm512_fmadd_pd(a, b, c) }
        }
        #[inline(always)]
        fn madd1(self, a: f64, b: f64, c: f64) -> f64 {
            a.mul_add(b, c)
        }
        #[inline(always)]
        fn dot<const N: usize>(self, n: usize, x: &[f64], y: &[f64]) -> f64 {
            dot::<N>(n, x, y)
        }
    }

    pub(super) static AVX2: super::Table = tier_table!(Avx2(()), Avx2, ["avx2,fma"]);
    pub(super) static AVX512: super::Table = tier_table!(Avx512(()), Avx512, ["avx512f,avx2,fma"]);
}

// ---------------------------------------------------------------------
// Kernel bodies: each family's arithmetic, stated once over a tier's
// lanes. `N > 0` fixes the trip count at that rank and promises unit
// strides along it (the caller picked it with [`rank`]); `N = 0` takes
// the runtime trip count and strides, and a strided call runs the
// scalar tier's unfused arithmetic at every tier. `ASSIGN` overwrites
// instead of accumulating (the `ZeroAccum` twins).
// ---------------------------------------------------------------------

/// `y[..n] (+)= alpha · x[..n]`, both contiguous: `W`-lane vectors, then
/// the tail one element at a time, one multiply-add per element.
#[inline(always)]
fn axpy_unit<L: Lanes, const N: usize, const ASSIGN: bool>(
    l: L,
    n: usize,
    alpha: f64,
    x: &[f64],
    y: &mut [f64],
) {
    let n = if N == 0 { n } else { N };
    let (x, y) = (&x[..n], &mut y[..n]);
    let a = l.splat(alpha);
    let mut i = 0;
    while i + L::W <= n {
        let xv = l.load(&x[i..]);
        let v = if ASSIGN {
            l.mul(a, xv)
        } else {
            l.madd(a, xv, l.load(&y[i..]))
        };
        l.store(&mut y[i..], v);
        i += L::W;
    }
    for (yi, &xi) in y[i..].iter_mut().zip(&x[i..]) {
        *yi = if ASSIGN {
            alpha * xi
        } else {
            l.madd1(alpha, xi, *yi)
        };
    }
}

/// AXPY: `y[i·incy] (+)= alpha · x[i·incx]`. An accumulating call skips
/// `alpha == 0` as [`crate::blas::axpy`] does (even NaN inputs leave `y`
/// alone); an assigning one never skips the write.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn axpy<L: Lanes, const N: usize, const ASSIGN: bool>(
    l: L,
    n: usize,
    alpha: f64,
    x: &[f64],
    incx: usize,
    y: &mut [f64],
    incy: usize,
) {
    if !ASSIGN && alpha == 0.0 {
        return;
    }
    if N == 0 && (incx != 1 || incy != 1) {
        strided::axpy::<ASSIGN>(n, alpha, x, incx, y, incy);
    } else {
        axpy_unit::<L, N, ASSIGN>(l, n, alpha, x, y);
    }
}

/// XMUL: `y[i·incy] (+)= alpha · (x[i·incx] · z[i·incz])`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn xmul<L: Lanes, const N: usize, const ASSIGN: bool>(
    l: L,
    n: usize,
    alpha: f64,
    x: &[f64],
    incx: usize,
    z: &[f64],
    incz: usize,
    y: &mut [f64],
    incy: usize,
) {
    if N == 0 && (incx != 1 || incz != 1 || incy != 1) {
        return strided::xmul::<ASSIGN>(n, alpha, (x, incx), (z, incz), (y, incy));
    }
    let n = if N == 0 { n } else { N };
    let (x, z, y) = (&x[..n], &z[..n], &mut y[..n]);
    let a = l.splat(alpha);
    let mut i = 0;
    while i + L::W <= n {
        let t = l.mul(l.load(&x[i..]), l.load(&z[i..]));
        let v = if ASSIGN {
            l.mul(a, t)
        } else {
            l.madd(a, t, l.load(&y[i..]))
        };
        l.store(&mut y[i..], v);
        i += L::W;
    }
    while i < n {
        let t = x[i] * z[i];
        y[i] = if ASSIGN {
            alpha * t
        } else {
            l.madd1(alpha, t, y[i])
        };
        i += 1;
    }
}

/// GER: rows `a[i·rs + j·cs] (+)= (alpha · x[i·incx]) · y[j·incy]`;
/// a contiguous row is an AXPY of `y`. Skips `alpha == 0` as
/// [`crate::blas::ger`] does unless assigning.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn ger<L: Lanes, const N: usize, const ASSIGN: bool>(
    l: L,
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
        return;
    }
    if N == 0 && (cs != 1 || incy != 1) {
        return strided::ger::<ASSIGN>((m, n, alpha), (x, incx), (y, incy), (a, rs, cs));
    }
    let n = if N == 0 { n } else { N };
    // A fixed-rank `y` copied into a local array stays in registers
    // across rows.
    let mut fixed = [0.0; N];
    fixed.copy_from_slice(&y[..N]);
    let y = if N == 0 { &y[..n] } else { &fixed[..] };
    for i in 0..m {
        axpy_unit::<L, N, ASSIGN>(l, n, alpha * x[i * incx], y, &mut a[i * rs..]);
    }
}

/// DOT: `Σ x[i·incx] · y[i·incy]`, in the tier's reduction order when
/// contiguous ([`Lanes::dot`]), strictly left to right otherwise.
#[inline(always)]
pub(crate) fn dot<L: Lanes, const N: usize>(
    l: L,
    n: usize,
    x: &[f64],
    incx: usize,
    y: &[f64],
    incy: usize,
) -> f64 {
    if N == 0 && (incx != 1 || incy != 1) {
        return strided::dot(n, x, incx, y, incy);
    }
    l.dot::<N>(n, x, y)
}

/// GEMV: `y[i·incy] += alpha · Σ_j a[i·rs + j·cs] · x[j·incx]`, each row
/// one [`dot`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemv<L: Lanes, const N: usize>(
    l: L,
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
    if N == 0 && (cs != 1 || incx != 1) {
        return strided::gemv((m, n, alpha), (a, rs, cs), (x, incx), (y, incy));
    }
    let n = if N == 0 { n } else { N };
    // A fixed-rank `x` copied into a local array stays in registers
    // across rows.
    let mut fixed = [0.0; N];
    fixed.copy_from_slice(&x[..N]);
    let x = if N == 0 { &x[..n] } else { &fixed[..] };
    for i in 0..m {
        y[i * incy] += alpha * l.dot::<N>(n, &a[i * rs..], x);
    }
}

/// Strided calls: the scalar tier's unfused arithmetic in [`blas`]'s
/// order, at every tier. One copy each, out of line: no tier or walk
/// instance carries its own.
///
/// [`blas`]: crate::blas
mod strided {
    use super::unfused;

    #[inline(never)]
    pub(super) fn axpy<const ASSIGN: bool>(
        n: usize,
        alpha: f64,
        x: &[f64],
        incx: usize,
        y: &mut [f64],
        incy: usize,
    ) {
        for i in 0..n {
            let (xi, yi) = (x[i * incx], &mut y[i * incy]);
            *yi = if ASSIGN {
                alpha * xi
            } else {
                unfused(alpha, xi, *yi)
            };
        }
    }

    #[inline(never)]
    pub(super) fn xmul<const ASSIGN: bool>(
        n: usize,
        alpha: f64,
        (x, incx): (&[f64], usize),
        (z, incz): (&[f64], usize),
        (y, incy): (&mut [f64], usize),
    ) {
        for i in 0..n {
            let (t, yi) = (x[i * incx] * z[i * incz], &mut y[i * incy]);
            *yi = if ASSIGN {
                alpha * t
            } else {
                unfused(alpha, t, *yi)
            };
        }
    }

    #[inline(never)]
    pub(super) fn ger<const ASSIGN: bool>(
        (m, n, alpha): (usize, usize, f64),
        (x, incx): (&[f64], usize),
        (y, incy): (&[f64], usize),
        (a, rs, cs): (&mut [f64], usize, usize),
    ) {
        for i in 0..m {
            let xi = alpha * x[i * incx];
            for j in 0..n {
                let (yj, aij) = (y[j * incy], &mut a[i * rs + j * cs]);
                *aij = if ASSIGN {
                    xi * yj
                } else {
                    unfused(xi, yj, *aij)
                };
            }
        }
    }

    #[inline(never)]
    pub(super) fn dot(n: usize, x: &[f64], incx: usize, y: &[f64], incy: usize) -> f64 {
        (0..n).fold(0.0, |acc, i| acc + x[i * incx] * y[i * incy])
    }

    #[inline(never)]
    pub(super) fn gemv(
        (m, n, alpha): (usize, usize, f64),
        (a, rs, cs): (&[f64], usize, usize),
        (x, incx): (&[f64], usize),
        (y, incy): (&mut [f64], usize),
    ) {
        for i in 0..m {
            y[i * incy] += alpha * dot(n, &a[i * rs..], cs, x, incx);
        }
    }
}

// The table's kernel bodies: one call each, which picks its body from
// its own trip count and strides (see `tier_table!`).

struct AxpyK<'a, const ASSIGN: bool>(usize, f64, &'a [f64], usize, &'a mut [f64], usize);

impl<const ASSIGN: bool> Body for AxpyK<'_, ASSIGN> {
    type Out = ();
    #[inline(always)]
    fn run<L: Lanes>(self, l: L) {
        let Self(n, alpha, x, incx, y, incy) = self;
        at_rank!(rank(n, incx == 1 && incy == 1), R => {
            axpy::<L, R, ASSIGN>(l, n, alpha, x, incx, y, incy)
        })
    }
}

struct XmulK<'a, const ASSIGN: bool>(
    usize,
    f64,
    (&'a [f64], usize),
    (&'a [f64], usize),
    (&'a mut [f64], usize),
);

impl<const ASSIGN: bool> Body for XmulK<'_, ASSIGN> {
    type Out = ();
    #[inline(always)]
    fn run<L: Lanes>(self, l: L) {
        let Self(n, alpha, (x, incx), (z, incz), (y, incy)) = self;
        at_rank!(rank(n, incx == 1 && incz == 1 && incy == 1), R => {
            xmul::<L, R, ASSIGN>(l, n, alpha, x, incx, z, incz, y, incy)
        })
    }
}

struct GerK<'a, const ASSIGN: bool>(
    (usize, usize, f64),
    (&'a [f64], usize),
    (&'a [f64], usize),
    (&'a mut [f64], usize, usize),
);

impl<const ASSIGN: bool> Body for GerK<'_, ASSIGN> {
    type Out = ();
    #[inline(always)]
    fn run<L: Lanes>(self, l: L) {
        let Self((m, n, alpha), (x, incx), (y, incy), (a, rs, cs)) = self;
        at_rank!(rank(n, cs == 1 && incy == 1), R => {
            ger::<L, R, ASSIGN>(l, m, n, alpha, x, incx, y, incy, a, rs, cs)
        })
    }
}

struct DotK<'a>(usize, (&'a [f64], usize), (&'a [f64], usize));

impl Body for DotK<'_> {
    type Out = f64;
    #[inline(always)]
    fn run<L: Lanes>(self, l: L) -> f64 {
        let Self(n, (x, incx), (y, incy)) = self;
        at_rank!(rank(n, incx == 1 && incy == 1), R => dot::<L, R>(l, n, x, incx, y, incy))
    }
}

struct GemvK<'a>(
    (usize, usize, f64),
    (&'a [f64], usize, usize),
    (&'a [f64], usize),
    (&'a mut [f64], usize),
);

impl Body for GemvK<'_> {
    type Out = ();
    #[inline(always)]
    fn run<L: Lanes>(self, l: L) {
        let Self((m, n, alpha), (a, rs, cs), (x, incx), (y, incy)) = self;
        at_rank!(rank(n, cs == 1 && incx == 1), R => {
            gemv::<L, R>(l, m, n, alpha, a, rs, cs, x, incx, y, incy)
        })
    }
}

static SCALAR: Table = tier_table!(Scalar, Scalar, []);

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Resolving `Scalar` picks the scalar table and nothing else: the
    /// body each call takes is the kernel's choice at every tier.
    #[test]
    fn resolve_scalar_picks_only_the_scalar_table() {
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
    pub(crate) fn tiers() -> Vec<KernelSel> {
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
