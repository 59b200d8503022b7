//! Runtime-dispatched `f64` lane vectors for the batched hot kernels.
//!
//! The batched Monte-Carlo engine's inner loops (MOSFET model
//! evaluation, matrix assembly, the `BatchedLu` numeric sweep) iterate
//! over `k` interleaved lanes. The tree used to pin
//! `-C target-cpu=native` so those loops autovectorized, at the cost of
//! non-portable binaries; a portable build compiled them to baseline
//! SSE2 and lost 2–3× of throughput. This module replaces the pin with
//! explicit wide code paths: an ISA is detected **once** per process via
//! [`std::arch::is_x86_feature_detected!`], cached in an atomic, and
//! [`dispatch`] runs every lane kernel on an arm compiled for that ISA.
//!
//! # Architecture
//!
//! [`Simd`] is a token trait: each implementor ([`Avx512Lanes`],
//! [`Avx2Lanes`], [`ScalarLanes`]) names a register type `V` holding
//! [`Simd::W`] lanes of `f64` and provides the primitive operations the
//! kernels need. A kernel is written once, as a [`LaneKernel`] whose
//! `#[inline(always)]` body is generic over the lane count
//! ([`LaneCount`]) and the token. This module owns the whole
//! width-and-ISA decision, in two steps:
//!
//! 1. [`dispatch`] picks the count: [`Fixed`] for the widths 1–8, 16,
//!    32 and 64, so the body compiles with `k` a constant, [`Runtime`]
//!    for any other. It runs the kernel through [`LaneKernel::at`], one
//!    function per count;
//! 2. [`arm`] picks the widest arm whose width divides `k` and that the
//!    level allows: AVX-512 when 8 | k, AVX2 when 4 | k, else scalar.
//!
//! The two wide arms run inside this module's only `#[target_feature]`
//! wrappers, so the whole kernel body — trait ops and any remaining
//! scalar glue — is compiled with the wide ISA enabled and fully
//! inlined. Dispatch costs one jump on `k`, one call and one relaxed
//! atomic load per kernel call.
//!
//! # Bit-identity contract
//!
//! Every operation exposed here is **IEEE-754 exact** — add, sub, mul,
//! div, sqrt, sign manipulation, compare and blend all round identically
//! in every ISA — so a kernel instantiated at `Avx512Lanes`,
//! `Avx2Lanes` and `ScalarLanes` produces bit-identical results as long
//! as it performs the same operations in the same association order.
//! Two deliberate consequences:
//!
//! * **No FMA.** A fused multiply-add rounds once where `mul` + `add`
//!   round twice, so using it in any arm would break identity with the
//!   scalar fallback (and a software-emulated `fma` on machines without
//!   the instruction is catastrophically slow). The [`Avx2Lanes`] level
//!   *detects* FMA (every AVX2+FMA part has it, and the check keeps the
//!   level meaningful on exotic cores) but no kernel emits it; rustc
//!   never contracts `a * b + c` on its own.
//! * **Select-form min/max.** `max` is `gt` + [`Simd::sel`] — the
//!   compare-and-blend idiom — rather than the `maxpd` instruction,
//!   whose NaN and `±0` semantics differ from `f64::max`. The scalar
//!   kernels in [`crate::lanes`] use the same select form, so all arms
//!   agree even on non-finite inputs.
//!
//! The exponent-assembly helper [`Simd::exp2_from_shifted`] is the one
//! non-obvious op: see its docs for why it is exact and why it avoids
//! the AVX-512DQ-only `f64 → i64` conversion.
//!
//! # Level selection
//!
//! [`level`] detects the best ISA on first use. The `ROTSV_SIMD`
//! environment variable (`scalar` | `avx2` | `avx512`) caps the level
//! for A/B measurements and for CI's portable job; [`set_level`] does
//! the same programmatically for tests. Both are clamped to what the
//! CPU actually supports — forcing `avx512` on a machine without it
//! silently degrades to the best available level, never to undefined
//! behavior.

use std::sync::atomic::{AtomicU8, Ordering};

/// SIMD capability tier, ordered from narrowest to widest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// One lane per "vector": portable fallback, no ISA assumptions.
    Scalar = 0,
    /// 4 × f64 in `__m256d` (requires AVX2 and FMA; FMA is detected but
    /// never emitted — see the module docs).
    Avx2 = 1,
    /// 8 × f64 in `__m512d` (requires AVX-512F only).
    Avx512 = 2,
}

impl Level {
    /// Lanes per vector register at this level.
    pub fn width(self) -> usize {
        match self {
            Level::Scalar => 1,
            Level::Avx2 => 4,
            Level::Avx512 => 8,
        }
    }

    /// Stable lowercase name (`scalar` / `avx2` / `avx512`), matching
    /// the `ROTSV_SIMD` values.
    pub fn name(self) -> &'static str {
        match self {
            Level::Scalar => "scalar",
            Level::Avx2 => "avx2",
            Level::Avx512 => "avx512",
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            2 => Level::Avx512,
            1 => Level::Avx2,
            _ => Level::Scalar,
        }
    }
}

/// Sentinel for "not yet detected".
const UNSET: u8 = u8::MAX;

/// Cached dispatch level; written once by [`init_level`] (or by
/// [`set_level`]) and read with a relaxed load per kernel call.
static LEVEL: AtomicU8 = AtomicU8::new(UNSET);

/// What the hardware supports, independent of any override.
pub fn detected() -> Level {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Level::Avx512;
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return Level::Avx2;
        }
    }
    Level::Scalar
}

/// Cold path of [`level`]: detect, apply the `ROTSV_SIMD` cap, publish.
#[cold]
fn init_level() -> Level {
    let det = detected();
    let lvl = match std::env::var("ROTSV_SIMD") {
        Ok(s) => match s.as_str() {
            "scalar" => Level::Scalar,
            "avx2" => Level::Avx2.min(det),
            "avx512" => Level::Avx512.min(det),
            other => {
                eprintln!(
                    "ROTSV_SIMD={other:?} not recognized (scalar|avx2|avx512); using {}",
                    det.name()
                );
                det
            }
        },
        Err(_) => det,
    };
    // A racing first call stores the same value: detection is
    // deterministic and the env var is read identically.
    LEVEL.store(lvl as u8, Ordering::Relaxed);
    lvl
}

/// The active dispatch level (detected once, then cached).
#[inline]
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        UNSET => init_level(),
        v => Level::from_u8(v),
    }
}

/// Forces the dispatch level, clamped to what the CPU supports, and
/// returns the level actually installed. Intended for tests and
/// benchmarks that compare arms; production code should rely on
/// detection (or `ROTSV_SIMD`).
pub fn set_level(want: Level) -> Level {
    let got = want.min(detected());
    LEVEL.store(got as u8, Ordering::Relaxed);
    got
}

/// An ISA token: `W` lanes of `f64` in one register `V`, with the exact
/// (correctly-rounded, reassociation-free) primitive set the batched
/// kernels are built from.
///
/// # Safety
///
/// Every method is `unsafe` because the wide implementations execute
/// ISA-specific instructions: callers must guarantee the corresponding
/// CPU features are present (dispatch via [`level`] after [`detected`]
/// establishes this), and should call them from inside a matching
/// `#[target_feature]` region so the `#[inline(always)]` bodies
/// actually inline.
pub unsafe trait Simd: Copy {
    /// Lanes per register.
    const W: usize;
    /// The register type (`f64`, `__m256d` or `__m512d`).
    type V: Copy;
    /// The compare-result type consumed by [`Simd::sel`].
    type M: Copy;

    /// Broadcasts `x` into all lanes.
    ///
    /// # Safety
    ///
    /// See the trait-level contract.
    unsafe fn splat(x: f64) -> Self::V;
    /// Loads `W` consecutive lanes from `p` (unaligned).
    ///
    /// # Safety
    ///
    /// `p` must be valid for reading `W` `f64`s; trait-level contract.
    unsafe fn ld(p: *const f64) -> Self::V;
    /// Stores `W` consecutive lanes to `p` (unaligned).
    ///
    /// # Safety
    ///
    /// `p` must be valid for writing `W` `f64`s; trait-level contract.
    unsafe fn st(p: *mut f64, v: Self::V);
    /// Lane-wise `a + b` (exact IEEE rounding).
    ///
    /// # Safety
    ///
    /// See the trait-level contract.
    unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise `a - b`.
    ///
    /// # Safety
    ///
    /// See the trait-level contract.
    unsafe fn sub(a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise `a * b`.
    ///
    /// # Safety
    ///
    /// See the trait-level contract.
    unsafe fn mul(a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise `a / b`.
    ///
    /// # Safety
    ///
    /// See the trait-level contract.
    unsafe fn div(a: Self::V, b: Self::V) -> Self::V;
    /// Lane-wise square root (correctly rounded, like `f64::sqrt`).
    ///
    /// # Safety
    ///
    /// See the trait-level contract.
    unsafe fn sqrt(a: Self::V) -> Self::V;
    /// Clears the sign bit (bit-identical to `f64::abs`).
    ///
    /// # Safety
    ///
    /// See the trait-level contract.
    unsafe fn abs(a: Self::V) -> Self::V;
    /// Flips the sign bit (bit-identical to unary `-`).
    ///
    /// # Safety
    ///
    /// See the trait-level contract.
    unsafe fn neg(a: Self::V) -> Self::V;
    /// Lane-wise ordered `a > b` (false on NaN, like the scalar `>`).
    ///
    /// # Safety
    ///
    /// See the trait-level contract.
    unsafe fn gt(a: Self::V, b: Self::V) -> Self::M;
    /// Lane-wise ordered `a >= b` (false on NaN).
    ///
    /// # Safety
    ///
    /// See the trait-level contract.
    unsafe fn ge(a: Self::V, b: Self::V) -> Self::M;
    /// Lane-wise select `if m { a } else { b }`.
    ///
    /// # Safety
    ///
    /// See the trait-level contract.
    unsafe fn sel(m: Self::M, a: Self::V, b: Self::V) -> Self::V;

    /// Select-form maximum `if a > b { a } else { b }` — matches the
    /// scalar kernels' idiom, *not* `maxpd` (whose NaN/±0 semantics
    /// differ).
    ///
    /// # Safety
    ///
    /// See the trait-level contract.
    #[inline(always)]
    unsafe fn max_sel(a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: forwarded; same contract as the caller's.
        unsafe { Self::sel(Self::gt(a, b), a, b) }
    }

    /// `2ⁿ` assembled from the shift-trick rounding register.
    ///
    /// `t = x·log2e + SHIFT` (with `SHIFT = 1.5·2⁵²`) holds the
    /// round-to-nearest integer `n = round(x·log2e)` in its low mantissa
    /// bits, two's-complement wrapped. For the `exp` kernel's range
    /// (`|n| ≤ 87`), `((t.to_bits() + 1023) << 52)` therefore equals
    /// `((n + 1023) << 52)` — the scalar kernel's exponent-field
    /// construction — exactly: the mantissa of `t` is `2⁵¹ + n`, adding
    /// 1023 cannot carry past bit 51, and the shift discards everything
    /// above bit 11. This needs only integer add + shift (AVX2 /
    /// AVX-512F), avoiding the `f64 → i64` conversion that AVX-512
    /// reserves for the DQ extension.
    ///
    /// # Safety
    ///
    /// See the trait-level contract.
    unsafe fn exp2_from_shifted(t: Self::V) -> Self::V;
}

/// One lane per register: the portable arm, defined on every
/// architecture. All ops are plain scalar arithmetic, so a kernel
/// instantiated here compiles to exactly the code the pre-dispatch
/// engine ran.
#[derive(Debug, Clone, Copy)]
pub struct ScalarLanes;

// SAFETY: every op is plain safe scalar arithmetic; the unsafe markers
// exist only for signature uniformity with the wide arms.
unsafe impl Simd for ScalarLanes {
    const W: usize = 1;
    type V = f64;
    type M = bool;

    #[inline(always)]
    unsafe fn splat(x: f64) -> f64 {
        x
    }
    #[inline(always)]
    unsafe fn ld(p: *const f64) -> f64 {
        // SAFETY: caller guarantees `p` is readable.
        unsafe { *p }
    }
    #[inline(always)]
    unsafe fn st(p: *mut f64, v: f64) {
        // SAFETY: caller guarantees `p` is writable.
        unsafe { *p = v }
    }
    #[inline(always)]
    unsafe fn add(a: f64, b: f64) -> f64 {
        a + b
    }
    #[inline(always)]
    unsafe fn sub(a: f64, b: f64) -> f64 {
        a - b
    }
    #[inline(always)]
    unsafe fn mul(a: f64, b: f64) -> f64 {
        a * b
    }
    #[inline(always)]
    unsafe fn div(a: f64, b: f64) -> f64 {
        a / b
    }
    #[inline(always)]
    unsafe fn sqrt(a: f64) -> f64 {
        a.sqrt()
    }
    #[inline(always)]
    unsafe fn abs(a: f64) -> f64 {
        a.abs()
    }
    #[inline(always)]
    unsafe fn neg(a: f64) -> f64 {
        -a
    }
    #[inline(always)]
    unsafe fn gt(a: f64, b: f64) -> bool {
        a > b
    }
    #[inline(always)]
    unsafe fn ge(a: f64, b: f64) -> bool {
        a >= b
    }
    #[inline(always)]
    unsafe fn sel(m: bool, a: f64, b: f64) -> f64 {
        if m {
            a
        } else {
            b
        }
    }
    #[inline(always)]
    unsafe fn exp2_from_shifted(t: f64) -> f64 {
        // Equivalent to the scalar kernel's `((n as i64 + 1023) << 52)`
        // for the reduced range — see the trait method's docs.
        f64::from_bits(((t.to_bits() as i64).wrapping_add(1023) << 52) as u64)
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Simd;
    use std::arch::x86_64::*;

    /// 4 × f64 in `__m256d`. Requires AVX2 (+ FMA detected, never
    /// emitted — see the module docs).
    #[derive(Debug, Clone, Copy)]
    pub struct Avx2Lanes;

    // SAFETY: ops are AVX/AVX2 instructions with exact IEEE semantics;
    // callers uphold the feature-availability contract.
    unsafe impl Simd for Avx2Lanes {
        const W: usize = 4;
        type V = __m256d;
        type M = __m256d;

        #[inline(always)]
        unsafe fn splat(x: f64) -> __m256d {
            unsafe { _mm256_set1_pd(x) }
        }
        #[inline(always)]
        unsafe fn ld(p: *const f64) -> __m256d {
            unsafe { _mm256_loadu_pd(p) }
        }
        #[inline(always)]
        unsafe fn st(p: *mut f64, v: __m256d) {
            unsafe { _mm256_storeu_pd(p, v) }
        }
        #[inline(always)]
        unsafe fn add(a: __m256d, b: __m256d) -> __m256d {
            unsafe { _mm256_add_pd(a, b) }
        }
        #[inline(always)]
        unsafe fn sub(a: __m256d, b: __m256d) -> __m256d {
            unsafe { _mm256_sub_pd(a, b) }
        }
        #[inline(always)]
        unsafe fn mul(a: __m256d, b: __m256d) -> __m256d {
            unsafe { _mm256_mul_pd(a, b) }
        }
        #[inline(always)]
        unsafe fn div(a: __m256d, b: __m256d) -> __m256d {
            unsafe { _mm256_div_pd(a, b) }
        }
        #[inline(always)]
        unsafe fn sqrt(a: __m256d) -> __m256d {
            unsafe { _mm256_sqrt_pd(a) }
        }
        #[inline(always)]
        unsafe fn abs(a: __m256d) -> __m256d {
            unsafe { _mm256_andnot_pd(_mm256_set1_pd(-0.0), a) }
        }
        #[inline(always)]
        unsafe fn neg(a: __m256d) -> __m256d {
            unsafe { _mm256_xor_pd(a, _mm256_set1_pd(-0.0)) }
        }
        #[inline(always)]
        unsafe fn gt(a: __m256d, b: __m256d) -> __m256d {
            unsafe { _mm256_cmp_pd::<_CMP_GT_OQ>(a, b) }
        }
        #[inline(always)]
        unsafe fn ge(a: __m256d, b: __m256d) -> __m256d {
            unsafe { _mm256_cmp_pd::<_CMP_GE_OQ>(a, b) }
        }
        #[inline(always)]
        unsafe fn sel(m: __m256d, a: __m256d, b: __m256d) -> __m256d {
            // blendv picks the second operand where the mask sign bit is
            // set: `m ? a : b`.
            unsafe { _mm256_blendv_pd(b, a, m) }
        }
        #[inline(always)]
        unsafe fn exp2_from_shifted(t: __m256d) -> __m256d {
            unsafe {
                let bits = _mm256_castpd_si256(t);
                let bits = _mm256_add_epi64(bits, _mm256_set1_epi64x(1023));
                _mm256_castsi256_pd(_mm256_slli_epi64::<52>(bits))
            }
        }
    }

    /// 8 × f64 in `__m512d`. Requires AVX-512F only: compares use mask
    /// registers, sign manipulation goes through the integer domain
    /// (`xor_pd` would need DQ), and the `exp` exponent assembly avoids
    /// DQ's `f64 → i64` conversion by construction.
    #[derive(Debug, Clone, Copy)]
    pub struct Avx512Lanes;

    // SAFETY: ops are AVX-512F instructions with exact IEEE semantics;
    // callers uphold the feature-availability contract.
    unsafe impl Simd for Avx512Lanes {
        const W: usize = 8;
        type V = __m512d;
        type M = __mmask8;

        #[inline(always)]
        unsafe fn splat(x: f64) -> __m512d {
            unsafe { _mm512_set1_pd(x) }
        }
        #[inline(always)]
        unsafe fn ld(p: *const f64) -> __m512d {
            unsafe { _mm512_loadu_pd(p) }
        }
        #[inline(always)]
        unsafe fn st(p: *mut f64, v: __m512d) {
            unsafe { _mm512_storeu_pd(p, v) }
        }
        #[inline(always)]
        unsafe fn add(a: __m512d, b: __m512d) -> __m512d {
            unsafe { _mm512_add_pd(a, b) }
        }
        #[inline(always)]
        unsafe fn sub(a: __m512d, b: __m512d) -> __m512d {
            unsafe { _mm512_sub_pd(a, b) }
        }
        #[inline(always)]
        unsafe fn mul(a: __m512d, b: __m512d) -> __m512d {
            unsafe { _mm512_mul_pd(a, b) }
        }
        #[inline(always)]
        unsafe fn div(a: __m512d, b: __m512d) -> __m512d {
            unsafe { _mm512_div_pd(a, b) }
        }
        #[inline(always)]
        unsafe fn sqrt(a: __m512d) -> __m512d {
            unsafe { _mm512_sqrt_pd(a) }
        }
        #[inline(always)]
        unsafe fn abs(a: __m512d) -> __m512d {
            unsafe { _mm512_abs_pd(a) }
        }
        #[inline(always)]
        unsafe fn neg(a: __m512d) -> __m512d {
            unsafe {
                _mm512_castsi512_pd(_mm512_xor_epi64(
                    _mm512_castpd_si512(a),
                    _mm512_set1_epi64(i64::MIN),
                ))
            }
        }
        #[inline(always)]
        unsafe fn gt(a: __m512d, b: __m512d) -> __mmask8 {
            unsafe { _mm512_cmp_pd_mask::<_CMP_GT_OQ>(a, b) }
        }
        #[inline(always)]
        unsafe fn ge(a: __m512d, b: __m512d) -> __mmask8 {
            unsafe { _mm512_cmp_pd_mask::<_CMP_GE_OQ>(a, b) }
        }
        #[inline(always)]
        unsafe fn sel(m: __mmask8, a: __m512d, b: __m512d) -> __m512d {
            // blend picks the second operand where the mask bit is set:
            // `m ? a : b`.
            unsafe { _mm512_mask_blend_pd(m, b, a) }
        }
        #[inline(always)]
        unsafe fn exp2_from_shifted(t: __m512d) -> __m512d {
            unsafe {
                let bits = _mm512_castpd_si512(t);
                let bits = _mm512_add_epi64(bits, _mm512_set1_epi64(1023));
                _mm512_castsi512_pd(_mm512_slli_epi64::<52>(bits))
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub use x86::{Avx2Lanes, Avx512Lanes};

/// The number of interleaved lanes a [`LaneKernel`] runs over: a
/// [`Fixed`] width carried in the type, or a [`Runtime`] one.
pub trait LaneCount: Copy + 'static {
    /// The number of lanes.
    fn get(self) -> usize;
}

/// A lane count known at compile time, so a kernel body instantiated
/// with it sees `k` as a constant. [`dispatch`] uses it for the widths
/// 1–8, 16, 32 and 64.
#[derive(Debug, Clone, Copy)]
pub struct Fixed<const K: usize>;

impl<const K: usize> LaneCount for Fixed<K> {
    #[inline(always)]
    fn get(self) -> usize {
        K
    }
}

/// A lane count known only at run time: every width outside the
/// [`Fixed`] set runs the same kernel body with `k` a variable.
#[derive(Debug, Clone, Copy)]
pub struct Runtime(pub usize);

impl LaneCount for Runtime {
    #[inline(always)]
    fn get(self) -> usize {
        self.0
    }
}

/// A kernel over `k` lane-interleaved values, written once and run by
/// [`dispatch`] at the lane count and ISA arm it picks.
pub trait LaneKernel: Sized {
    /// What the kernel returns.
    type Output;

    /// Runs the kernel at the lane count `n` on the widest arm ([`arm`]),
    /// as one function per count.
    ///
    /// A kernel that writes into caller slices overrides this with such a
    /// function that takes those slices as parameters and calls [`arm`].
    /// Parameters are where the compiler learns that the outputs alias
    /// nothing the kernel reads; without that, the scalar arm at a small
    /// fixed count runs its lanes one after another instead of side by
    /// side in vector registers.
    #[inline(never)]
    fn at<N: LaneCount>(self, n: N) -> Self::Output {
        arm(n, self)
    }

    /// Runs the kernel over `n.get()` lanes in `S::W`-wide chunks.
    /// Implementations are `#[inline(always)]` so the body compiles
    /// inside the arm's `#[target_feature]` region.
    ///
    /// # Safety
    ///
    /// `S`'s ISA must be available and enabled in the enclosing region,
    /// and `S::W` must divide `n.get()`; [`arm`] guarantees both.
    unsafe fn run<N: LaneCount, S: Simd>(self, n: N) -> Self::Output;
}

/// Runs `kernel` over `k` lanes. This is the only place the lane width
/// is chosen: a [`Fixed`] count for the widths 1–8, 16, 32 and 64 and a
/// [`Runtime`] count otherwise, handed to [`LaneKernel::at`].
pub fn dispatch<L: LaneKernel>(k: usize, kernel: L) -> L::Output {
    match k {
        1 => kernel.at(Fixed::<1>),
        2 => kernel.at(Fixed::<2>),
        3 => kernel.at(Fixed::<3>),
        4 => kernel.at(Fixed::<4>),
        5 => kernel.at(Fixed::<5>),
        6 => kernel.at(Fixed::<6>),
        7 => kernel.at(Fixed::<7>),
        8 => kernel.at(Fixed::<8>),
        16 => kernel.at(Fixed::<16>),
        32 => kernel.at(Fixed::<32>),
        64 => kernel.at(Fixed::<64>),
        _ => kernel.at(Runtime(k)),
    }
}

/// Runs `kernel` at the lane count `n` on the widest arm that divides it
/// within the active [`level`]: AVX-512 when 8 | k, AVX2 when 4 | k,
/// else scalar. This is the only place the ISA arm is chosen. Every arm
/// performs the same IEEE-exact per-lane operations, so the choice never
/// changes a result bit.
#[inline(always)]
pub fn arm<N: LaneCount, L: LaneKernel>(n: N, kernel: L) -> L::Output {
    #[cfg(target_arch = "x86_64")]
    {
        let k = n.get();
        let level = level();
        if k.is_multiple_of(8) && level == Level::Avx512 {
            // SAFETY: `level()` is clamped to detected features.
            return unsafe { run_avx512(n, kernel) };
        }
        if k.is_multiple_of(4) && level >= Level::Avx2 {
            // SAFETY: `level()` is clamped to detected features.
            return unsafe { run_avx2(n, kernel) };
        }
    }
    // SAFETY: the scalar arm has no ISA requirements, and W = 1.
    unsafe { kernel.run::<N, ScalarLanes>(n) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn run_avx512<N: LaneCount, L: LaneKernel>(n: N, kernel: L) -> L::Output {
    // SAFETY: the caller verified avx512f and 8 | k; we are in a
    // matching region.
    unsafe { kernel.run::<N, Avx512Lanes>(n) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2<N: LaneCount, L: LaneKernel>(n: N, kernel: L) -> L::Output {
    // SAFETY: the caller verified avx2 and 4 | k; we are in a matching
    // region.
    unsafe { kernel.run::<N, Avx2Lanes>(n) }
}

/// Serializes the tests that mutate the process-global level.
#[cfg(test)]
pub(crate) static LEVEL_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_level_clamps_to_detected_hardware() {
        let _guard = LEVEL_LOCK.lock().unwrap();
        let prior = level();
        let det = detected();
        assert_eq!(set_level(Level::Avx512), Level::Avx512.min(det));
        assert_eq!(set_level(Level::Avx2), Level::Avx2.min(det));
        assert_eq!(set_level(Level::Scalar), Level::Scalar);
        assert_eq!(level(), Level::Scalar);
        set_level(prior);
    }

    /// `dispatch` owns the whole width-and-ISA decision: for every
    /// width up to 65 and every level `set_level` can force, it picks a
    /// fixed count exactly for the listed widths and the widest arm that
    /// divides the width, never one above the level.
    #[test]
    fn dispatch_picks_the_count_and_the_widest_dividing_arm() {
        /// Reports whether the count is fixed, the count and `S::W`.
        struct Probe;
        impl LaneKernel for Probe {
            type Output = (bool, usize, usize);
            unsafe fn run<N: LaneCount, S: Simd>(self, n: N) -> Self::Output {
                let fixed = std::any::TypeId::of::<N>() != std::any::TypeId::of::<Runtime>();
                (fixed, n.get(), S::W)
            }
        }
        let _guard = LEVEL_LOCK.lock().unwrap();
        let prior = level();
        for want in [Level::Scalar, Level::Avx2, Level::Avx512] {
            let lvl = set_level(want);
            for k in 1..=65 {
                let (fixed, n, w) = dispatch(k, Probe);
                let listed = matches!(k, 1..=8 | 16 | 32 | 64);
                assert_eq!(fixed, listed, "k = {k}: fixed count");
                assert_eq!(n, k, "k = {k}: count");
                let widest = [8, 4, 1]
                    .into_iter()
                    .find(|&aw| aw <= lvl.width() && k % aw == 0)
                    .unwrap();
                assert_eq!(w, widest, "k = {k} at {}: arm width", lvl.name());
                assert!(w <= lvl.width(), "k = {k}: arm above {}", lvl.name());
            }
        }
        set_level(prior);
    }

    #[test]
    fn width_matches_tokens() {
        assert_eq!(Level::Scalar.width(), ScalarLanes::W);
        #[cfg(target_arch = "x86_64")]
        {
            assert_eq!(Level::Avx2.width(), Avx2Lanes::W);
            assert_eq!(Level::Avx512.width(), Avx512Lanes::W);
        }
    }

    /// The scalar token's exponent assembly must agree bit for bit with
    /// the direct `(n + 1023) << 52` construction used by
    /// `lanes::exp` for every exponent the kernel can produce.
    #[test]
    fn exp2_from_shifted_matches_direct_construction() {
        const SHIFT: f64 = 6_755_399_441_055_744.0;
        for n in -90i64..=90 {
            let t = n as f64 + SHIFT;
            // SAFETY: scalar arm, no ISA requirements.
            let got = unsafe { ScalarLanes::exp2_from_shifted(t) };
            let want = f64::from_bits(((n + 1023) << 52) as u64);
            assert_eq!(got.to_bits(), want.to_bits(), "n = {n}");
        }
    }

    /// Every arm the hardware supports computes the same ops bit for
    /// bit on a mixed bag of values (including negatives, zeros and a
    /// huge magnitude).
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn wide_arms_are_bit_identical_to_scalar_ops() {
        #[derive(Clone, Copy)]
        struct Case {
            a: f64,
            b: f64,
        }
        let cases: Vec<Case> = (0..64)
            .map(|i| Case {
                a: (i as f64 - 31.5) * 0.817 + if i % 7 == 0 { -0.0 } else { 0.013 },
                b: (i as f64 - 12.0) * 1.33e3 + 0.25,
            })
            .collect();

        fn scalar_ref(c: Case) -> [f64; 8] {
            // SAFETY: scalar arm.
            unsafe {
                [
                    ScalarLanes::add(c.a, c.b),
                    ScalarLanes::sub(c.a, c.b),
                    ScalarLanes::mul(c.a, c.b),
                    ScalarLanes::div(c.a, c.b),
                    ScalarLanes::sqrt(ScalarLanes::abs(c.a)),
                    ScalarLanes::neg(c.a),
                    ScalarLanes::max_sel(c.a, c.b),
                    ScalarLanes::sel(ScalarLanes::ge(c.a, c.b), c.a, c.b),
                ]
            }
        }

        #[target_feature(enable = "avx2")]
        fn run_avx2(cases: &[Case], out: &mut Vec<[f64; 8]>) {
            for chunk in cases.chunks_exact(Avx2Lanes::W) {
                let a_arr: Vec<f64> = chunk.iter().map(|c| c.a).collect();
                let b_arr: Vec<f64> = chunk.iter().map(|c| c.b).collect();
                // SAFETY: inside an avx2 region; pointers cover W lanes.
                unsafe {
                    let a = Avx2Lanes::ld(a_arr.as_ptr());
                    let b = Avx2Lanes::ld(b_arr.as_ptr());
                    let res = [
                        Avx2Lanes::add(a, b),
                        Avx2Lanes::sub(a, b),
                        Avx2Lanes::mul(a, b),
                        Avx2Lanes::div(a, b),
                        Avx2Lanes::sqrt(Avx2Lanes::abs(a)),
                        Avx2Lanes::neg(a),
                        Avx2Lanes::max_sel(a, b),
                        Avx2Lanes::sel(Avx2Lanes::ge(a, b), a, b),
                    ];
                    for lane in 0..Avx2Lanes::W {
                        let mut row = [0.0; 8];
                        for (o, r) in row.iter_mut().zip(res.iter()) {
                            let mut buf = [0.0; 4];
                            Avx2Lanes::st(buf.as_mut_ptr(), *r);
                            *o = buf[lane];
                        }
                        out.push(row);
                    }
                }
            }
        }

        #[target_feature(enable = "avx512f")]
        fn run_avx512(cases: &[Case], out: &mut Vec<[f64; 8]>) {
            for chunk in cases.chunks_exact(Avx512Lanes::W) {
                let a_arr: Vec<f64> = chunk.iter().map(|c| c.a).collect();
                let b_arr: Vec<f64> = chunk.iter().map(|c| c.b).collect();
                // SAFETY: inside an avx512f region; pointers cover W lanes.
                unsafe {
                    let a = Avx512Lanes::ld(a_arr.as_ptr());
                    let b = Avx512Lanes::ld(b_arr.as_ptr());
                    let res = [
                        Avx512Lanes::add(a, b),
                        Avx512Lanes::sub(a, b),
                        Avx512Lanes::mul(a, b),
                        Avx512Lanes::div(a, b),
                        Avx512Lanes::sqrt(Avx512Lanes::abs(a)),
                        Avx512Lanes::neg(a),
                        Avx512Lanes::max_sel(a, b),
                        Avx512Lanes::sel(Avx512Lanes::ge(a, b), a, b),
                    ];
                    for lane in 0..Avx512Lanes::W {
                        let mut row = [0.0; 8];
                        for (o, r) in row.iter_mut().zip(res.iter()) {
                            let mut buf = [0.0; 8];
                            Avx512Lanes::st(buf.as_mut_ptr(), *r);
                            *o = buf[lane];
                        }
                        out.push(row);
                    }
                }
            }
        }

        let want: Vec<[f64; 8]> = cases.iter().map(|&c| scalar_ref(c)).collect();
        if detected() >= Level::Avx2 {
            let mut got = Vec::new();
            // SAFETY: detection confirmed avx2.
            unsafe { run_avx2(&cases, &mut got) };
            for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
                for op in 0..8 {
                    assert_eq!(g[op].to_bits(), w[op].to_bits(), "avx2 case {i} op {op}");
                }
            }
        }
        if detected() >= Level::Avx512 {
            let mut got = Vec::new();
            // SAFETY: detection confirmed avx512f.
            unsafe { run_avx512(&cases, &mut got) };
            for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
                for op in 0..8 {
                    assert_eq!(g[op].to_bits(), w[op].to_bits(), "avx512 case {i} op {op}");
                }
            }
        }
    }
}
