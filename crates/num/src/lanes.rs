//! Branch-free elementary functions for lane-batched kernels.
//!
//! The batched Monte-Carlo engine evaluates the MOSFET model for K dies
//! in lockstep, with the lane index as the innermost loop. That loop
//! only autovectorizes if every operation inside it is branch-free and
//! call-free: `libm`'s `exp`/`ln` are opaque calls with internal
//! branches, so this module provides polynomial replacements written as
//! straight-line arithmetic (plus `select`-style conditionals that LLVM
//! lowers to vector blends).
//!
//! Accuracy is a few ulp worse than `libm` (relative error ≲ 1e-14 over
//! the simulator's operating range), orders of magnitude below the
//! Newton tolerances. The scalar device evaluation (the DC operating
//! point's) keeps using `libm` and is the lane kernels' test reference.
//!
//! Three forms of each function coexist, all bit-identical per lane:
//! the scalar reference (`exp`), the const-K array form (`exp_k`, the
//! autovectorizing fallback), and the explicit vector form (`exp_v`,
//! generic over a [`crate::simd::Simd`] ISA token, used by the
//! runtime-dispatched kernels). Identity holds because every form
//! performs the same IEEE-exact operations in the same association
//! order, uses select-form conditionals (never `maxpd`-style min/max),
//! and never fuses a multiply-add.

/// log2(e).
const LOG2_E: f64 = std::f64::consts::LOG2_E;
/// ln(2) split for Cody–Waite range reduction: the hi part's low
/// mantissa bits are zero so `n · LN2_HI` is exact for the n in range.
const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000); // ≈ 6.93147180369123816e-1
const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76); // ≈ 1.90821492927058770e-10
/// 1.5 · 2⁵², the round-to-nearest-integer shifter.
const SHIFT: f64 = 6_755_399_441_055_744.0;

/// Select-form clamp to `[-60, 60]`, shared by every `exp` form.
/// Identical to `f64::clamp(-60.0, 60.0)` for all inputs (including
/// NaN, which passes through both) but expressed as two compares +
/// selects so the scalar and vector arms lower to the same semantics.
#[inline(always)]
fn clamp_pm60(x: f64) -> f64 {
    let x = if -60.0 > x { -60.0 } else { x };
    if x > 60.0 {
        60.0
    } else {
        x
    }
}

/// Select-form `max(t, 0.0)`, shared by every softplus form. Identical
/// in value to `f64::max(t, 0.0)` everywhere the result is consumed
/// (NaN → 0.0 both ways; a `-0.0` vs `+0.0` pick is erased by the
/// following add), but expressed as compare + select so scalar and
/// vector arms match.
#[inline(always)]
fn max0(t: f64) -> f64 {
    if t > 0.0 {
        t
    } else {
        0.0
    }
}

/// Branch-free `exp(x)` with the same `[-60, 60]` argument clamp as the
/// scalar model's `safe_exp`.
///
/// Range reduction `x = n·ln2 + r` with `|r| ≤ ln2/2` via the
/// shift-add rounding trick (no `round` libcall), a degree-13 Taylor
/// polynomial on `r`, and exponent reassembly through the IEEE-754 bit
/// pattern. Every step is straight-line arithmetic, so a loop of these
/// across lanes vectorizes. The polynomial is evaluated in Estrin form
/// rather than Horner: the four sub-polynomials are independent, so the
/// serial dependency chain is ~4 FMAs instead of 13 and a single lane
/// (the batched engine at K = 1, or a refill remainder) is not
/// latency-bound.
///
/// # Examples
///
/// ```
/// let y = rotsv_num::lanes::exp(1.0);
/// assert!((y - std::f64::consts::E).abs() < 1e-14);
/// ```
#[inline(always)]
pub fn exp(x: f64) -> f64 {
    let x = clamp_pm60(x);
    // n = round(x / ln2) without a round() call: adding 1.5·2⁵² forces
    // the low mantissa bits to hold the rounded integer.
    let t = x * LOG2_E + SHIFT;
    let n = t - SHIFT;
    // r = x - n·ln2 in two pieces to keep the reduction exact.
    let r = (x - n * LN2_HI) - n * LN2_LO;
    // exp(r) on |r| ≤ 0.3466 in Estrin form; remainder < 1e-16 relative.
    let p = poly_exp(r);
    // 2ⁿ via the exponent field; |n| ≤ 87 so no overflow handling.
    let ni = n as i64;
    let scale = f64::from_bits(((ni + 1023) << 52) as u64);
    p * scale
}

/// Taylor coefficients of `exp` (degree 13), enough for < 1e-16
/// relative remainder on `|r| ≤ ln2/2`.
const EXP_C: [f64; 14] = [
    1.0,
    1.0,
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5_040.0,
    1.0 / 40_320.0,
    1.0 / 362_880.0,
    1.0 / 3_628_800.0,
    1.0 / 39_916_800.0,
    1.0 / 479_001_600.0,
    1.0 / 6_227_020_800.0,
];

/// Degree-13 Taylor polynomial of `exp` on `|r| ≤ ln2/2`, Estrin form.
/// The scalar and array evaluations share this exact association so
/// they stay bit-identical to each other.
#[inline(always)]
fn poly_exp(r: f64) -> f64 {
    let c = &EXP_C;
    let r2 = r * r;
    let r4 = r2 * r2;
    let a0 = (c[0] + c[1] * r) + r2 * (c[2] + c[3] * r);
    let a1 = (c[4] + c[5] * r) + r2 * (c[6] + c[7] * r);
    let a2 = (c[8] + c[9] * r) + r2 * (c[10] + c[11] * r);
    let a3 = c[12] + c[13] * r;
    a0 + r4 * (a1 + r4 * (a2 + r4 * a3))
}

/// atanh-series coefficients `1/(2k+1)` for `ln z = 2·w·Σ w²ᵏ/(2k+1)`.
const LN_D: [f64; 17] = [
    1.0,
    1.0 / 3.0,
    1.0 / 5.0,
    1.0 / 7.0,
    1.0 / 9.0,
    1.0 / 11.0,
    1.0 / 13.0,
    1.0 / 15.0,
    1.0 / 17.0,
    1.0 / 19.0,
    1.0 / 21.0,
    1.0 / 23.0,
    1.0 / 25.0,
    1.0 / 27.0,
    1.0 / 29.0,
    1.0 / 31.0,
    1.0 / 33.0,
];

/// Branch-free `ln(1 + u)` for `u ∈ [0, 1]`.
///
/// Uses the atanh form `ln z = 2·atanh((z−1)/(z+1))` with `z = 1 + u`,
/// so the series argument `w ≤ 1/3` and a degree-16 evaluation in `w²`
/// reaches full double precision. Like the `exp` polynomial, the
/// series is evaluated in Estrin form (independent sub-polynomials
/// combined by powers of `w⁸`) so the latency chain stays short even
/// for one lane; the scalar and array evaluations share the exact
/// association.
///
/// # Examples
///
/// ```
/// let y = rotsv_num::lanes::ln1p01(0.5);
/// assert!((y - 1.5f64.ln()).abs() < 1e-15);
/// ```
#[inline(always)]
pub fn ln1p01(u: f64) -> f64 {
    let d = &LN_D;
    let w = u / (2.0 + u);
    let w2 = w * w;
    let w4 = w2 * w2;
    let w8 = w4 * w4;
    let b0 = (d[0] + d[1] * w2) + w4 * (d[2] + d[3] * w2);
    let b1 = (d[4] + d[5] * w2) + w4 * (d[6] + d[7] * w2);
    let b2 = (d[8] + d[9] * w2) + w4 * (d[10] + d[11] * w2);
    let b3 = (d[12] + d[13] * w2) + w4 * (d[14] + d[15] * w2);
    let s = b0 + w8 * (b1 + w8 * (b2 + w8 * (b3 + w8 * d[16])));
    2.0 * w * s
}

/// Branch-free unit-scale softplus `ln(1 + eᵗ)` and logistic
/// `σ(t) = 1/(1 + e⁻ᵗ)`, the pair the MOSFET model's smooth clamps are
/// built from.
///
/// Matches the scalar model's `softplus_grad(x, s)` after scaling
/// (`t = x/s`, softplus scaled by `s`), including its large-argument
/// short-circuit: for `t > 30` the pair is exactly `(t, 1)`.
#[inline(always)]
pub fn softplus_sig(t: f64) -> (f64, f64) {
    // exp(-|t|) ∈ (0, 1]: always in ln1p01's domain. The [-60, 60]
    // clamp inside `exp` mirrors the scalar model's safe_exp.
    let e = exp(-t.abs());
    let q = e / (1.0 + e); // σ(-|t|) ∈ (0, 1/2]
    let sp = max0(t) + ln1p01(e);
    let big = t > 30.0;
    let sp = if big { t } else { sp };
    let sig_pos = if big { 1.0 } else { 1.0 - q };
    let sig = if t >= 0.0 { sig_pos } else { q };
    (sp, sig)
}

/// Array form of [`exp`]: all `K` lanes advance through the range
/// reduction and the Estrin polynomial together, so each step is one
/// vector instruction and the polynomial's latency chain is hidden
/// across lanes.
///
/// The per-lane arithmetic repeats the scalar [`exp`] operation for
/// operation — same reduction, same polynomial association, same
/// exponent reassembly — so `exp_k([x; K])[l]` is **bit-identical** to
/// `exp(x)` for every lane. The batched Monte-Carlo engine relies on
/// this: a die simulated in a K-wide batch must produce the same bits
/// as the same die simulated alone.
///
/// # Examples
///
/// ```
/// let y = rotsv_num::lanes::exp_k([0.0, 1.0]);
/// assert!((y[1] - std::f64::consts::E).abs() < 1e-14);
/// ```
#[inline(always)]
pub fn exp_k<const K: usize>(x: [f64; K]) -> [f64; K] {
    let mut n = [0.0; K];
    let mut r = [0.0; K];
    for l in 0..K {
        let xl = clamp_pm60(x[l]);
        let t = xl * LOG2_E + SHIFT;
        n[l] = t - SHIFT;
        r[l] = (xl - n[l] * LN2_HI) - n[l] * LN2_LO;
    }
    let c = &EXP_C;
    let mut y = [0.0; K];
    for l in 0..K {
        let rl = r[l];
        let r2 = rl * rl;
        let r4 = r2 * r2;
        let a0 = (c[0] + c[1] * rl) + r2 * (c[2] + c[3] * rl);
        let a1 = (c[4] + c[5] * rl) + r2 * (c[6] + c[7] * rl);
        let a2 = (c[8] + c[9] * rl) + r2 * (c[10] + c[11] * rl);
        let a3 = c[12] + c[13] * rl;
        let p = a0 + r4 * (a1 + r4 * (a2 + r4 * a3));
        let ni = n[l] as i64;
        let scale = f64::from_bits(((ni + 1023) << 52) as u64);
        y[l] = p * scale;
    }
    y
}

/// Array form of [`ln1p01`]; same domain (`u ∈ [0, 1]`), lanes in
/// lockstep, each lane bit-identical to the scalar function (same
/// Estrin association per lane).
#[inline(always)]
pub fn ln1p01_k<const K: usize>(u: [f64; K]) -> [f64; K] {
    let d = &LN_D;
    let mut y = [0.0; K];
    for l in 0..K {
        let w = u[l] / (2.0 + u[l]);
        let w2 = w * w;
        let w4 = w2 * w2;
        let w8 = w4 * w4;
        let b0 = (d[0] + d[1] * w2) + w4 * (d[2] + d[3] * w2);
        let b1 = (d[4] + d[5] * w2) + w4 * (d[6] + d[7] * w2);
        let b2 = (d[8] + d[9] * w2) + w4 * (d[10] + d[11] * w2);
        let b3 = (d[12] + d[13] * w2) + w4 * (d[14] + d[15] * w2);
        let s = b0 + w8 * (b1 + w8 * (b2 + w8 * (b3 + w8 * d[16])));
        y[l] = 2.0 * w * s;
    }
    y
}

/// Array form of [`softplus_sig`]: `(softplus, sigma)` for all `K`
/// lanes in lockstep. Bit-identical per lane to the scalar function.
#[inline(always)]
pub fn softplus_sig_k<const K: usize>(t: [f64; K]) -> ([f64; K], [f64; K]) {
    let mut ta = [0.0; K];
    for l in 0..K {
        ta[l] = -t[l].abs();
    }
    let e = exp_k(ta);
    let ln = ln1p01_k(e);
    let mut sp = [0.0; K];
    let mut sig = [0.0; K];
    for l in 0..K {
        let q = e[l] / (1.0 + e[l]);
        let sp0 = max0(t[l]) + ln[l];
        let big = t[l] > 30.0;
        sp[l] = if big { t[l] } else { sp0 };
        let sig_pos = if big { 1.0 } else { 1.0 - q };
        sig[l] = if t[l] >= 0.0 { sig_pos } else { q };
    }
    (sp, sig)
}

use crate::simd::Simd;

/// Explicit vector form of [`exp`], generic over an ISA token.
///
/// Performs the scalar function's operations — select-form clamp,
/// shift-trick range reduction, the same Estrin association, exponent
/// reassembly via [`Simd::exp2_from_shifted`] — one vector at a time,
/// so every lane is **bit-identical** to [`exp`] of that lane.
///
/// # Safety
///
/// Instantiating at a wide token executes that ISA's instructions: the
/// caller must guarantee the features are available (see
/// [`crate::simd::level`]) and should call from a matching
/// `#[target_feature]` region.
#[inline(always)]
pub unsafe fn exp_v<S: Simd>(x: S::V) -> S::V {
    // SAFETY: caller upholds the ISA contract; ops are lane-wise exact.
    unsafe {
        let lo = S::splat(-60.0);
        let hi = S::splat(60.0);
        let x = S::sel(S::gt(lo, x), lo, x);
        let x = S::sel(S::gt(x, hi), hi, x);
        let t = S::add(S::mul(x, S::splat(LOG2_E)), S::splat(SHIFT));
        let n = S::sub(t, S::splat(SHIFT));
        let r = S::sub(
            S::sub(x, S::mul(n, S::splat(LN2_HI))),
            S::mul(n, S::splat(LN2_LO)),
        );
        let c = &EXP_C;
        let r2 = S::mul(r, r);
        let r4 = S::mul(r2, r2);
        let a0 = S::add(
            S::add(S::splat(c[0]), S::mul(S::splat(c[1]), r)),
            S::mul(r2, S::add(S::splat(c[2]), S::mul(S::splat(c[3]), r))),
        );
        let a1 = S::add(
            S::add(S::splat(c[4]), S::mul(S::splat(c[5]), r)),
            S::mul(r2, S::add(S::splat(c[6]), S::mul(S::splat(c[7]), r))),
        );
        let a2 = S::add(
            S::add(S::splat(c[8]), S::mul(S::splat(c[9]), r)),
            S::mul(r2, S::add(S::splat(c[10]), S::mul(S::splat(c[11]), r))),
        );
        let a3 = S::add(S::splat(c[12]), S::mul(S::splat(c[13]), r));
        let p = S::add(
            a0,
            S::mul(r4, S::add(a1, S::mul(r4, S::add(a2, S::mul(r4, a3))))),
        );
        S::mul(p, S::exp2_from_shifted(t))
    }
}

/// Explicit vector form of [`ln1p01`] (domain `u ∈ [0, 1]` per lane);
/// bit-identical per lane to the scalar function.
///
/// # Safety
///
/// Same ISA contract as [`exp_v`].
#[inline(always)]
pub unsafe fn ln1p01_v<S: Simd>(u: S::V) -> S::V {
    // SAFETY: caller upholds the ISA contract; ops are lane-wise exact.
    unsafe {
        let d = &LN_D;
        let w = S::div(u, S::add(S::splat(2.0), u));
        let w2 = S::mul(w, w);
        let w4 = S::mul(w2, w2);
        let w8 = S::mul(w4, w4);
        let b0 = S::add(
            S::add(S::splat(d[0]), S::mul(S::splat(d[1]), w2)),
            S::mul(w4, S::add(S::splat(d[2]), S::mul(S::splat(d[3]), w2))),
        );
        let b1 = S::add(
            S::add(S::splat(d[4]), S::mul(S::splat(d[5]), w2)),
            S::mul(w4, S::add(S::splat(d[6]), S::mul(S::splat(d[7]), w2))),
        );
        let b2 = S::add(
            S::add(S::splat(d[8]), S::mul(S::splat(d[9]), w2)),
            S::mul(w4, S::add(S::splat(d[10]), S::mul(S::splat(d[11]), w2))),
        );
        let b3 = S::add(
            S::add(S::splat(d[12]), S::mul(S::splat(d[13]), w2)),
            S::mul(w4, S::add(S::splat(d[14]), S::mul(S::splat(d[15]), w2))),
        );
        let s = S::add(
            b0,
            S::mul(
                w8,
                S::add(
                    b1,
                    S::mul(
                        w8,
                        S::add(b2, S::mul(w8, S::add(b3, S::mul(w8, S::splat(d[16]))))),
                    ),
                ),
            ),
        );
        S::mul(S::mul(S::splat(2.0), w), s)
    }
}

/// Explicit vector form of [`softplus_sig`]: `(softplus, sigma)` per
/// lane, bit-identical to the scalar pair (same select structure — the
/// big-argument short-circuit and the sign split are blends).
///
/// # Safety
///
/// Same ISA contract as [`exp_v`].
#[inline(always)]
pub unsafe fn softplus_sig_v<S: Simd>(t: S::V) -> (S::V, S::V) {
    // SAFETY: caller upholds the ISA contract; ops are lane-wise exact.
    unsafe {
        let e = exp_v::<S>(S::neg(S::abs(t)));
        let one = S::splat(1.0);
        let zero = S::splat(0.0);
        let q = S::div(e, S::add(one, e));
        let sp0 = S::add(S::sel(S::gt(t, zero), t, zero), ln1p01_v::<S>(e));
        let big = S::gt(t, S::splat(30.0));
        let sp = S::sel(big, t, sp0);
        let sig_pos = S::sel(big, one, S::sub(one, q));
        let sig = S::sel(S::ge(t, zero), sig_pos, q);
        (sp, sig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_matches_libm_over_operating_range() {
        let mut worst = 0.0f64;
        let mut x = -59.9;
        while x < 59.9 {
            let got = exp(x);
            let want = x.exp();
            let rel = ((got - want) / want).abs();
            worst = worst.max(rel);
            x += 0.037;
        }
        assert!(worst < 5e-14, "worst relative error {worst:e}");
    }

    #[test]
    fn exp_clamps_like_safe_exp() {
        // Out-of-range arguments saturate to exactly the in-range
        // endpoint value (the clamp itself is exact); the endpoint
        // matches libm to the usual polynomial tolerance.
        assert_eq!(exp(-1e9), exp(-60.0));
        assert_eq!(exp(1e9), exp(60.0));
        assert_eq!(exp(f64::NEG_INFINITY), exp(-60.0));
        let rel = (exp(-60.0) - (-60.0f64).exp()).abs() / (-60.0f64).exp();
        assert!(rel < 5e-14, "clamp endpoint off by {rel:e}");
    }

    #[test]
    fn ln1p01_matches_libm() {
        let mut worst = 0.0f64;
        let mut u = 0.0;
        while u <= 1.0 {
            let got = ln1p01(u);
            let want = u.ln_1p();
            let denom = want.abs().max(1e-300);
            let rel = if u == 0.0 {
                got.abs()
            } else {
                ((got - want) / denom).abs()
            };
            worst = worst.max(rel);
            u += 1.0 / 512.0;
        }
        assert!(worst < 5e-15, "worst relative error {worst:e}");
    }

    #[test]
    fn softplus_sig_matches_scalar_reference() {
        // The scalar model's formulation, with libm.
        let reference = |t: f64| -> (f64, f64) {
            if t > 30.0 {
                (t, 1.0)
            } else {
                let e = t.clamp(-60.0, 60.0).exp();
                ((1.0 + e).ln(), e / (1.0 + e))
            }
        };
        let mut t = -80.0;
        while t < 80.0 {
            let (sp, sig) = softplus_sig(t);
            let (sp0, sig0) = reference(t);
            // At very negative t the reference's `(1 + e).ln()` rounds
            // to exactly 0 while ln1p01 keeps the ≈e tail, so allow a
            // tiny absolute slack alongside the relative bound.
            let sp_err = (sp - sp0).abs() / sp0.abs().max(1e-30);
            let sig_err = (sig - sig0).abs() / sig0.abs().max(1e-30);
            assert!(
                sp_err < 1e-12 || (sp - sp0).abs() < 1e-15,
                "softplus at t={t}: {sp} vs {sp0}"
            );
            assert!(sig_err < 1e-12, "sigma at t={t}: {sig} vs {sig0}");
            t += 0.173;
        }
    }

    #[test]
    fn array_forms_are_bit_identical_to_scalar() {
        let mut t = -70.0;
        while t < 70.0 {
            let ts = [t, t + 0.011, t + 7.3, t - 3.1];
            let (sp, sig) = softplus_sig_k(ts);
            let e = exp_k(ts);
            for l in 0..4 {
                let (sp0, sig0) = softplus_sig(ts[l]);
                assert_eq!(sp[l].to_bits(), sp0.to_bits(), "softplus at {}", ts[l]);
                assert_eq!(sig[l].to_bits(), sig0.to_bits(), "sigma at {}", ts[l]);
                assert_eq!(e[l].to_bits(), exp(ts[l]).to_bits(), "exp at {}", ts[l]);
            }
            t += 0.391;
        }
    }

    /// The explicit vector forms must be bit-identical to the scalar
    /// reference at every ISA level the hardware supports — this is the
    /// foundation the dispatched kernels' bit-identity contract rests
    /// on.
    #[test]
    fn vector_forms_are_bit_identical_to_scalar() {
        use crate::simd::{detected, Level, ScalarLanes, Simd};

        #[inline(always)]
        unsafe fn sweep<S: Simd>(xs: &[f64], sp: &mut [f64], sig: &mut [f64], ex: &mut [f64]) {
            let mut i = 0;
            while i + S::W <= xs.len() {
                // SAFETY: chunk bounds checked; caller provides the ISA.
                unsafe {
                    let t = S::ld(xs.as_ptr().add(i));
                    let (a, b) = softplus_sig_v::<S>(t);
                    S::st(sp.as_mut_ptr().add(i), a);
                    S::st(sig.as_mut_ptr().add(i), b);
                    S::st(ex.as_mut_ptr().add(i), exp_v::<S>(t));
                }
                i += S::W;
            }
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        fn sweep_avx2(xs: &[f64], sp: &mut [f64], sig: &mut [f64], ex: &mut [f64]) {
            // SAFETY: inside an avx2 region.
            unsafe { sweep::<crate::simd::Avx2Lanes>(xs, sp, sig, ex) }
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f")]
        fn sweep_avx512(xs: &[f64], sp: &mut [f64], sig: &mut [f64], ex: &mut [f64]) {
            // SAFETY: inside an avx512f region.
            unsafe { sweep::<crate::simd::Avx512Lanes>(xs, sp, sig, ex) }
        }

        let mut xs: Vec<f64> = Vec::new();
        let mut t = -70.0;
        while t < 70.0 {
            xs.push(t);
            t += 0.173;
        }
        xs.extend_from_slice(&[
            0.0,
            -0.0,
            29.999,
            30.0,
            30.001,
            60.0,
            -60.0,
            1e9,
            -1e9,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ]);
        while !xs.len().is_multiple_of(8) {
            xs.push(0.5);
        }
        let n = xs.len();

        let mut want_sp = vec![0.0; n];
        let mut want_sig = vec![0.0; n];
        let mut want_ex = vec![0.0; n];
        for (i, &x) in xs.iter().enumerate() {
            let (a, b) = softplus_sig(x);
            want_sp[i] = a;
            want_sig[i] = b;
            want_ex[i] = exp(x);
        }

        let check = |name: &str, sp: &[f64], sig: &[f64], ex: &[f64]| {
            for i in 0..n {
                assert_eq!(
                    sp[i].to_bits(),
                    want_sp[i].to_bits(),
                    "{name} sp at {}",
                    xs[i]
                );
                assert_eq!(
                    sig[i].to_bits(),
                    want_sig[i].to_bits(),
                    "{name} sig at {}",
                    xs[i]
                );
                assert_eq!(
                    ex[i].to_bits(),
                    want_ex[i].to_bits(),
                    "{name} exp at {}",
                    xs[i]
                );
            }
        };

        let (mut sp, mut sig, mut ex) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        // SAFETY: the scalar arm has no ISA requirements.
        unsafe { sweep::<ScalarLanes>(&xs, &mut sp, &mut sig, &mut ex) };
        check("scalar", &sp, &sig, &ex);

        #[cfg(target_arch = "x86_64")]
        {
            if detected() >= Level::Avx2 {
                let (mut sp, mut sig, mut ex) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
                // SAFETY: detection confirmed avx2.
                unsafe { sweep_avx2(&xs, &mut sp, &mut sig, &mut ex) };
                check("avx2", &sp, &sig, &ex);
            }
            if detected() >= Level::Avx512 {
                let (mut sp, mut sig, mut ex) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
                // SAFETY: detection confirmed avx512f.
                unsafe { sweep_avx512(&xs, &mut sp, &mut sig, &mut ex) };
                check("avx512", &sp, &sig, &ex);
            }
        }
        let _ = detected();
    }

    #[test]
    fn softplus_is_positive_and_monotone() {
        let mut prev = 0.0;
        let mut t = -40.0;
        while t < 40.0 {
            let (sp, sig) = softplus_sig(t);
            assert!(sp > 0.0, "softplus({t}) = {sp}");
            assert!((0.0..=1.0).contains(&sig));
            assert!(sp >= prev, "not monotone at {t}");
            prev = sp;
            t += 0.05;
        }
    }
}
