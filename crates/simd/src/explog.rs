//! Lane-wise `exp` and `ln`: the host's `expf`/`logf` re-expressed, not
//! approximated.
//!
//! The PPO goldens were recorded with glibc 2.36's `expf` and `logf` — on a
//! CPU with FMA, so with the `__expf_fma`/`__logf_fma` ifunc variants, the
//! same `e_expf.c`/`e_logf.c` compiled with contraction: a table lookup and
//! a short polynomial in `f64`, rounded to `f32` once. [`exp_lane`] and
//! [`ln_lane`] are that code with the contracted operations spelled as
//! `f64::mul_add` (exact on any host) and every branch a select; the AVX2
//! and AVX-512 forms are the same operations on 4 resp. 8 `f64` lanes per
//! half register. Bit-equal to the libm functions on all 2³² inputs, NaN
//! payloads included (`exhaustive_sweep_of_*` below are the proof, and
//! what to rerun on a new host).
//!
//! This is the one place the crate uses FMA: no accumulation chain is
//! involved, the fused operations are what the function being reproduced
//! executes. (A non-FMA build of the same glibc source differs from it on
//! exactly two `expf` inputs, `0x4202422f` and `0xc27c65d9`, and on no
//! `logf` input.)
//!
//! `expf(x)`: `k + r = x·32/ln2` with `k` the nearest integer (read from
//! the low mantissa bits of `x·32/ln2 + 1.5·2⁵²`); `2^(k/32)` is
//! `T[k mod 32]` with `k div 32` added to its exponent field; `2^(r/32)` a
//! cubic in `r`.
//!
//! | `e_expf.c` | condition | result |
//! |---|---|---|
//! | NaN | `x ≠ x` | `x + x` (quieted, payload kept) |
//! | overflow | `x > 0x42b17217` (ln 2¹²⁸) | `+inf` |
//! | underflow | `x < 0xc2cff1b4` (ln 2⁻¹⁵⁰), `-inf` included | `+0` |
//! | otherwise | | `(f32)(poly(r) · s)` |
//!
//! `logf(x)`: `x = 2ᵏ·z` with `z` in `[OFF, 2·OFF)`, `OFF = 0x3f330000`;
//! `i` = the top four mantissa bits of `x − OFF` picks `invc ≈ 1/c` and
//! `logc = ln c` for the centre `c` of `z`'s sixteenth; `ln(z/c)` is a
//! cubic in `r = z·invc − 1`.
//!
//! | `e_logf.c` | condition | result |
//! |---|---|---|
//! | zero | `x = ±0` | `-inf` |
//! | infinity | `x = +inf` | `x` |
//! | invalid | `x < 0` or NaN | `(x − x)/(x − x)` |
//! | subnormal | `bits(x) < 0x00800000` | as normal, from `bits(x·2²³) − (23 << 23)` |
//! | otherwise | | `(f32)(k·ln2 + logc + poly(r))` |

use crate::{active_backend, count_cells, Backend, EXP_CALLS, LN_CALLS};
use std::sync::atomic::Ordering;

/// `32/ln2`, `0x1.71547652b82fep+5`.
const INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `1.5·2⁵²`: adding it leaves the nearest integer in the low mantissa bits.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// The cubic of `2^(r/32)`: `0x1.c6af84b912394p-20`, `0x1.ebfce50fac4f3p-13`,
/// `0x1.62e42ff0c52d6p-6`.
const EXP_C: [f64; 3] = [
    f64::from_bits(0x3ebc_6af8_4b91_2394),
    f64::from_bits(0x3f2e_bfce_50fa_c4f3),
    f64::from_bits(0x3f96_2e42_ff0c_52d6),
];
/// `x` above this (`ln 2¹²⁸`) overflows.
const EXP_HI: f32 = f32::from_bits(0x42b1_7217);
/// `x` below this (`ln 2⁻¹⁵⁰`) rounds to zero.
const EXP_LO: f32 = f32::from_bits(0xc2cf_f1b4);
/// `T[i] = bits(2^(i/32)) − (i << 47)`, `2^(i/32)` correctly rounded: the
/// subtraction makes adding `k << 47` put `k div 32` into the exponent.
#[rustfmt::skip]
static EXP_T: [u64; 32] = [
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
];

/// `bits(x) − OFF` splits into exponent `k`, table index and the rest.
const LN_OFF: u32 = 0x3f33_0000;
/// `ln 2`, `0x1.62e42fefa39efp-1`.
const LN2: f64 = f64::from_bits(0x3fe6_2e42_fefa_39ef);
/// The cubic of `ln(1 + r)`: `-0x1.00ea348b88334p-2`,
/// `0x1.5575b0be00b6ap-2`, `-0x1.ffffef20a4123p-2`.
const LN_A: [f64; 3] = [
    f64::from_bits(0xbfd0_0ea3_48b8_8334),
    f64::from_bits(0x3fd5_575b_0be0_0b6a),
    f64::from_bits(0xbfdf_fffe_f20a_4123),
];
/// `bits(1/c)` for the centre `c` of each sixteenth of `[OFF, 2·OFF)`.
#[rustfmt::skip]
static LN_INVC: [u64; 16] = [
    0x3ff661ec79f8f3be, 0x3ff571ed4aaf883d, 0x3ff49539f0f010b0, 0x3ff3c995b0b80385,
    0x3ff30d190c8864a5, 0x3ff25e227b0b8ea0, 0x3ff1bb4a4a1a343f, 0x3ff12358f08ae5ba,
    0x3ff0953f419900a7, 0x3ff0000000000000, 0x3fee608cfd9a47ac, 0x3feca4b31f026aa0,
    0x3feb2036576afce6, 0x3fe9c2d163a1aa2d, 0x3fe886e6037841ed, 0x3fe767dcf5534862,
];
/// `bits(ln c)` for the same centres.
#[rustfmt::skip]
static LN_LOGC: [u64; 16] = [
    0xbfd57bf7808caade, 0xbfd2bef0a7c06ddb, 0xbfd01eae7f513a67, 0xbfcb31d8a68224e9,
    0xbfc6574f0ac07758, 0xbfc1aa2bc79c8100, 0xbfba4e76ce8c0e5e, 0xbfb1973c5a611ccc,
    0xbfa252f438e10c1e, 0x0000000000000000, 0x3faaa5aa5df25984, 0x3fbc5e53aa362eb4,
    0x3fc526e57720db08, 0x3fcbc2860d224770, 0x3fd1058bc8a07ee1, 0x3fd4043057b6ee09,
];

/// `exp(x)` with the bits of glibc's FMA `expf`, every branch a select.
/// The scalar reference every backend of [`exp_inplace`] must bit-match.
///
/// The polynomial path runs for every input; where a select overrides it
/// (NaN, out of range) its integer steps wrap instead of overflowing.
pub fn exp_lane(x: f32) -> f32 {
    let xd = f64::from(x);
    let kd = INV_LN2_N.mul_add(xd, SHIFT);
    let ki = kd.to_bits();
    let kd = kd - SHIFT;
    let r = INV_LN2_N.mul_add(xd, -kd);
    let s = f64::from_bits(EXP_T[(ki & 31) as usize].wrapping_add(ki << 47));
    let z = EXP_C[0].mul_add(r, EXP_C[1]);
    let r2 = r * r;
    let y = EXP_C[2].mul_add(r, 1.0);
    let y = z.mul_add(r2, y);
    let y = (y * s) as f32;
    if x.is_nan() {
        x + x
    } else if x > EXP_HI {
        f32::INFINITY
    } else if x < EXP_LO {
        0.0
    } else {
        y
    }
}

/// `ln(x)` with the bits of glibc's FMA `logf`, every branch a select.
/// The scalar reference every backend of [`ln_inplace`] must bit-match.
#[allow(clippy::eq_op)] // `(x - x) / (x - x)` is glibc's `__math_invalidf`
pub fn ln_lane(x: f32) -> f32 {
    let bits = x.to_bits();
    let ix = if bits < 0x0080_0000 {
        (x * 8_388_608.0).to_bits().wrapping_sub(23 << 23)
    } else {
        bits
    };
    let tmp = ix.wrapping_sub(LN_OFF);
    let i = ((tmp >> 19) & 15) as usize;
    let k = (tmp as i32) >> 23;
    let z = f64::from(f32::from_bits(ix.wrapping_sub(tmp & 0xff80_0000)));
    let y0 = f64::from(k).mul_add(LN2, f64::from_bits(LN_LOGC[i]));
    let r = z.mul_add(f64::from_bits(LN_INVC[i]), -1.0);
    let y = LN_A[1].mul_add(r, LN_A[2]);
    let r2 = r * r;
    let t = r + y0;
    let y = r2.mul_add(LN_A[0], y);
    let y = r2.mul_add(y, t) as f32;
    if bits << 1 == 0 {
        f32::NEG_INFINITY
    } else if bits == 0x7f80_0000 {
        x
    } else if bits > 0x7f80_0000 {
        // negative or NaN: the invalid operation itself, so a NaN keeps
        // its payload and everything else gets the default NaN
        (x - x) / (x - x)
    } else {
        y
    }
}

/// Replaces every element of `x` with its `exp`, bit-equal to [`exp_lane`]
/// on every backend and for every slice length. On the AVX tiers (AVX2
/// needs `fma` beside it) every element, tail included, rides a vector
/// lane; elsewhere each is a scalar cell in [`crate::stats`].
pub fn exp_inplace(x: &mut [f32]) {
    let vector = dispatch_exp(active_backend(), x);
    EXP_CALLS.fetch_add(1, Ordering::Relaxed);
    count_cells(vector, x.len());
}

/// Replaces every element of `x` with its natural logarithm, bit-equal to
/// [`ln_lane`] on every backend; lanes and counters as for [`exp_inplace`].
pub fn ln_inplace(x: &mut [f32]) {
    let vector = dispatch_ln(active_backend(), x);
    LN_CALLS.fetch_add(1, Ordering::Relaxed);
    count_cells(vector, x.len());
}

macro_rules! dispatch {
    ($name:ident, $lane:ident, $kernel:ident) => {
        /// Runs `backend`'s kernel over `x`; returns how many cells went
        /// through vector lanes. `backend` must be supported, as
        /// `active_backend()` is.
        fn $name(backend: Backend, x: &mut [f32]) -> usize {
            match backend {
                #[cfg(target_arch = "x86_64")]
                Backend::Avx512 => {
                    // SAFETY: a supported `Avx512` means `avx512f` was
                    // detected (see `tanh::dispatch` for who guarantees
                    // "supported").
                    unsafe { avx512::$kernel(x) };
                    x.len()
                }
                #[cfg(target_arch = "x86_64")]
                Backend::Avx2 if std::arch::is_x86_feature_detected!("fma") => {
                    // SAFETY: `avx2` by the same argument, `fma` checked
                    // just now.
                    unsafe { avx2::$kernel(x) };
                    x.len()
                }
                _ => {
                    for v in x.iter_mut() {
                        *v = $lane(*v);
                    }
                    0
                }
            }
        }
    };
}

dispatch!(dispatch_exp, exp_lane, exp_inplace);
dispatch!(dispatch_ln, ln_lane, ln_inplace);

/// [`exp_lane`] and [`ln_lane`] over eight lanes: the integer steps on the
/// eight `f32` patterns, the `f64` arithmetic on two halves of four.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use core::arch::x86_64::*;

    inplace_kernel!(
        exp_inplace,
        "avx2,fma",
        8,
        exp8,
        _mm256_loadu_ps,
        _mm256_storeu_ps
    );
    inplace_kernel!(
        ln_inplace,
        "avx2,fma",
        8,
        ln8,
        _mm256_loadu_ps,
        _mm256_storeu_ps
    );

    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp8(x: __m256) -> __m256 {
        let d = |v: f64| _mm256_set1_pd(v);
        let half = |x: __m128| {
            let xd = _mm256_cvtps_pd(x);
            let kd = _mm256_fmadd_pd(d(INV_LN2_N), xd, d(SHIFT));
            let ki = _mm256_castpd_si256(kd);
            let kd = _mm256_sub_pd(kd, d(SHIFT));
            let r = _mm256_fmsub_pd(d(INV_LN2_N), xd, kd);
            let t = _mm256_i64gather_epi64::<8>(
                EXP_T.as_ptr().cast(),
                _mm256_and_si256(ki, _mm256_set1_epi64x(31)),
            );
            let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
            let z = _mm256_fmadd_pd(d(EXP_C[0]), r, d(EXP_C[1]));
            let r2 = _mm256_mul_pd(r, r);
            let y = _mm256_fmadd_pd(d(EXP_C[2]), r, d(1.0));
            let y = _mm256_fmadd_pd(z, r2, y);
            _mm256_cvtpd_ps(_mm256_mul_pd(y, s))
        };
        let y = _mm256_set_m128(
            half(_mm256_extractf128_ps::<1>(x)),
            half(_mm256_castps256_ps128(x)),
        );
        let f = |v: f32| _mm256_set1_ps(v);
        let y = _mm256_blendv_ps(y, f(0.0), _mm256_cmp_ps::<_CMP_LT_OQ>(x, f(EXP_LO)));
        let y = _mm256_blendv_ps(
            y,
            f(f32::INFINITY),
            _mm256_cmp_ps::<_CMP_GT_OQ>(x, f(EXP_HI)),
        );
        _mm256_blendv_ps(y, _mm256_add_ps(x, x), _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x))
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn ln8(x: __m256) -> __m256 {
        let i = |v: u32| _mm256_set1_epi32(v as i32);
        let bits = _mm256_castps_si256(x);
        // signed compare: a negative input also takes the rescaled
        // pattern, and is overridden below either way
        let subnormal = _mm256_cmpgt_epi32(i(0x0080_0000), bits);
        let rescaled = _mm256_sub_epi32(
            _mm256_castps_si256(_mm256_mul_ps(x, _mm256_set1_ps(8_388_608.0))),
            i(23 << 23),
        );
        let ix = _mm256_blendv_epi8(bits, rescaled, subnormal);
        let tmp = _mm256_sub_epi32(ix, i(LN_OFF));
        let idx = _mm256_and_si256(_mm256_srli_epi32::<19>(tmp), i(15));
        let k = _mm256_srai_epi32::<23>(tmp);
        let z = _mm256_castsi256_ps(_mm256_sub_epi32(ix, _mm256_and_si256(tmp, i(0xff80_0000))));

        let d = |v: f64| _mm256_set1_pd(v);
        let half = |z: __m128, k: __m128i, idx: __m128i| {
            let z = _mm256_cvtps_pd(z);
            let invc = _mm256_i32gather_pd::<8>(LN_INVC.as_ptr().cast(), idx);
            let logc = _mm256_i32gather_pd::<8>(LN_LOGC.as_ptr().cast(), idx);
            let y0 = _mm256_fmadd_pd(_mm256_cvtepi32_pd(k), d(LN2), logc);
            let r = _mm256_fmsub_pd(z, invc, d(1.0));
            let y = _mm256_fmadd_pd(d(LN_A[1]), r, d(LN_A[2]));
            let r2 = _mm256_mul_pd(r, r);
            let t = _mm256_add_pd(r, y0);
            let y = _mm256_fmadd_pd(r2, d(LN_A[0]), y);
            _mm256_cvtpd_ps(_mm256_fmadd_pd(r2, y, t))
        };
        let y = _mm256_set_m128(
            half(
                _mm256_extractf128_ps::<1>(z),
                _mm256_extracti128_si256::<1>(k),
                _mm256_extracti128_si256::<1>(idx),
            ),
            half(
                _mm256_castps256_ps128(z),
                _mm256_castsi256_si128(k),
                _mm256_castsi256_si128(idx),
            ),
        );

        let sel = |c: __m256i, a: __m256, b: __m256| _mm256_blendv_ps(b, a, _mm256_castsi256_ps(c));
        // sign bit set, or above +inf: `bits > 0x7f800000` unsigned
        let invalid = _mm256_or_si256(bits, _mm256_cmpgt_epi32(bits, i(0x7f80_0000)));
        let x_minus_x = _mm256_sub_ps(x, x);
        let y = sel(invalid, _mm256_div_ps(x_minus_x, x_minus_x), y);
        let y = sel(_mm256_cmpeq_epi32(bits, i(0x7f80_0000)), x, y);
        let zero = _mm256_cmpeq_epi32(_mm256_slli_epi32::<1>(bits), i(0));
        sel(zero, _mm256_set1_ps(f32::NEG_INFINITY), y)
    }
}

/// [`exp_lane`] and [`ln_lane`] over sixteen lanes: two halves of eight
/// `f64`, compares into mask registers. AVX-512F only.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::*;
    use core::arch::x86_64::*;

    inplace_kernel!(
        exp_inplace,
        "avx512f",
        16,
        exp16,
        _mm512_loadu_ps,
        _mm512_storeu_ps
    );
    inplace_kernel!(
        ln_inplace,
        "avx512f",
        16,
        ln16,
        _mm512_loadu_ps,
        _mm512_storeu_ps
    );

    /// The upper eight `f32` lanes.
    #[target_feature(enable = "avx512f")]
    unsafe fn upper(v: __m512) -> __m256 {
        _mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(_mm512_castps_pd(v)))
    }

    /// `lo` and `hi` side by side.
    #[target_feature(enable = "avx512f")]
    unsafe fn join(lo: __m256, hi: __m256) -> __m512 {
        let lo = _mm512_castpd256_pd512(_mm256_castps_pd(lo));
        _mm512_castpd_ps(_mm512_insertf64x4::<1>(lo, _mm256_castps_pd(hi)))
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn exp16(x: __m512) -> __m512 {
        let d = |v: f64| _mm512_set1_pd(v);
        let half = |x: __m256| {
            let xd = _mm512_cvtps_pd(x);
            let kd = _mm512_fmadd_pd(d(INV_LN2_N), xd, d(SHIFT));
            let ki = _mm512_castpd_si512(kd);
            let kd = _mm512_sub_pd(kd, d(SHIFT));
            let r = _mm512_fmsub_pd(d(INV_LN2_N), xd, kd);
            let t = _mm512_i64gather_epi64::<8>(
                _mm512_and_si512(ki, _mm512_set1_epi64(31)),
                EXP_T.as_ptr().cast(),
            );
            let s = _mm512_castsi512_pd(_mm512_add_epi64(t, _mm512_slli_epi64::<47>(ki)));
            let z = _mm512_fmadd_pd(d(EXP_C[0]), r, d(EXP_C[1]));
            let r2 = _mm512_mul_pd(r, r);
            let y = _mm512_fmadd_pd(d(EXP_C[2]), r, d(1.0));
            let y = _mm512_fmadd_pd(z, r2, y);
            _mm512_cvtpd_ps(_mm512_mul_pd(y, s))
        };
        let y = join(half(_mm512_castps512_ps256(x)), half(upper(x)));
        let f = |v: f32| _mm512_set1_ps(v);
        let y = _mm512_mask_mov_ps(y, _mm512_cmp_ps_mask::<_CMP_LT_OQ>(x, f(EXP_LO)), f(0.0));
        let y = _mm512_mask_mov_ps(
            y,
            _mm512_cmp_ps_mask::<_CMP_GT_OQ>(x, f(EXP_HI)),
            f(f32::INFINITY),
        );
        _mm512_mask_add_ps(y, _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(x, x), x, x)
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn ln16(x: __m512) -> __m512 {
        let i = |v: u32| _mm512_set1_epi32(v as i32);
        let bits = _mm512_castps_si512(x);
        let subnormal = _mm512_cmplt_epu32_mask(bits, i(0x0080_0000));
        let rescaled = _mm512_sub_epi32(
            _mm512_castps_si512(_mm512_mul_ps(x, _mm512_set1_ps(8_388_608.0))),
            i(23 << 23),
        );
        let ix = _mm512_mask_mov_epi32(bits, subnormal, rescaled);
        let tmp = _mm512_sub_epi32(ix, i(LN_OFF));
        let idx = _mm512_and_si512(_mm512_srli_epi32::<19>(tmp), i(15));
        let k = _mm512_srai_epi32::<23>(tmp);
        let z = _mm512_castsi512_ps(_mm512_sub_epi32(ix, _mm512_and_si512(tmp, i(0xff80_0000))));

        let d = |v: f64| _mm512_set1_pd(v);
        let half = |z: __m256, k: __m256i, idx: __m256i| {
            let z = _mm512_cvtps_pd(z);
            let invc = _mm512_i32gather_pd::<8>(idx, LN_INVC.as_ptr().cast());
            let logc = _mm512_i32gather_pd::<8>(idx, LN_LOGC.as_ptr().cast());
            let y0 = _mm512_fmadd_pd(_mm512_cvtepi32_pd(k), d(LN2), logc);
            let r = _mm512_fmsub_pd(z, invc, d(1.0));
            let y = _mm512_fmadd_pd(d(LN_A[1]), r, d(LN_A[2]));
            let r2 = _mm512_mul_pd(r, r);
            let t = _mm512_add_pd(r, y0);
            let y = _mm512_fmadd_pd(r2, d(LN_A[0]), y);
            _mm512_cvtpd_ps(_mm512_fmadd_pd(r2, y, t))
        };
        let y = join(
            half(
                _mm512_castps512_ps256(z),
                _mm512_castsi512_si256(k),
                _mm512_castsi512_si256(idx),
            ),
            half(
                upper(z),
                _mm512_extracti64x4_epi64::<1>(k),
                _mm512_extracti64x4_epi64::<1>(idx),
            ),
        );

        let invalid = _mm512_cmpgt_epu32_mask(bits, i(0x7f80_0000));
        let x_minus_x = _mm512_sub_ps(x, x);
        let y = _mm512_mask_div_ps(y, invalid, x_minus_x, x_minus_x);
        let y = _mm512_mask_mov_ps(y, _mm512_cmpeq_epi32_mask(bits, i(0x7f80_0000)), x);
        let zero = _mm512_cmpeq_epi32_mask(_mm512_slli_epi32::<1>(bits), i(0));
        _mm512_mask_mov_ps(y, zero, _mm512_set1_ps(f32::NEG_INFINITY))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::force_backend;
    use crate::tests::{force_lock, supported, Sweep};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const EXP: Sweep = Sweep {
        name: "exp",
        lane: exp_lane,
        host: f32::exp,
        dispatch: dispatch_exp,
    };
    const LN: Sweep = Sweep {
        name: "ln",
        lane: ln_lane,
        host: f32::ln,
        dispatch: dispatch_ln,
    };

    /// Whether the libm behind `f32::exp` is glibc's `expf` with FMA
    /// contraction, the one [`exp_lane`] re-expresses: 64 inputs spread
    /// over −104…89, plus the two on which the non-FMA build of the same
    /// source rounds the other way.
    fn host_expf_is_glibc_fma() -> bool {
        let spread =
            (0..64u32).map(|i| f32::from_bits((0x3c00_0000 + i * 0x001b_0000) | ((i & 1) << 31)));
        let fma_only = [0x4202_422f, 0xc27c_65d9].map(f32::from_bits);
        spread
            .chain(fma_only)
            .all(|x| x.exp().to_bits() == exp_lane(x).to_bits())
    }

    /// Whether the libm behind `f32::ln` is glibc's `logf`: 64 inputs from
    /// the subnormals up, four to a table index.
    fn host_logf_is_glibc() -> bool {
        (0..64u32).all(|i| {
            let x = f32::from_bits(0x0040_0000 + i * 0x01f4_0000);
            x.ln().to_bits() == ln_lane(x).to_bits()
        })
    }

    #[test]
    fn strided_sweeps_match_lane_forms_and_host() {
        EXP.strided(host_expf_is_glibc_fma());
        LN.strided(host_logf_is_glibc());
    }

    /// The proofs behind the module docs; `ci/test.sh` runs them in a
    /// release build (`-- --ignored`). Rerun them on a host with another
    /// libm: the backend comparisons must still pass there.
    #[test]
    #[ignore = "all 2^32 inputs: minutes in a release build, hours in a debug one"]
    fn exhaustive_sweep_of_exp() {
        EXP.exhaustive(host_expf_is_glibc_fma());
    }

    #[test]
    #[ignore = "all 2^32 inputs: minutes in a release build, hours in a debug one"]
    fn exhaustive_sweep_of_ln() {
        LN.exhaustive(host_logf_is_glibc());
    }

    #[test]
    fn exp_saturates_at_the_documented_thresholds() {
        let (hi, lo) = (EXP_HI.to_bits(), EXP_LO.to_bits());
        assert!(exp_lane(f32::from_bits(hi)).is_finite());
        assert_eq!(exp_lane(f32::from_bits(hi + 1)), f32::INFINITY);
        assert_eq!(exp_lane(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp_lane(f32::from_bits(lo)).to_bits(), 1, "2^-149");
        assert_eq!(exp_lane(f32::from_bits(lo + 1)).to_bits(), 0);
        assert_eq!(exp_lane(f32::NEG_INFINITY).to_bits(), 0);
        assert_eq!(exp_lane(0.0).to_bits(), 1.0f32.to_bits());
        assert_eq!(exp_lane(-0.0).to_bits(), 1.0f32.to_bits());
    }

    #[test]
    fn ln_special_values() {
        assert_eq!(ln_lane(1.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(ln_lane(0.0), f32::NEG_INFINITY);
        assert_eq!(ln_lane(-0.0), f32::NEG_INFINITY);
        assert_eq!(ln_lane(f32::INFINITY), f32::INFINITY);
        let negative = std::hint::black_box(-1.0f32);
        assert!(ln_lane(negative).is_nan());
        assert!(ln_lane(std::hint::black_box(f32::NEG_INFINITY)).is_nan());
        // the smallest subnormal: -149 ln 2
        assert_eq!(ln_lane(f32::from_bits(1)).to_bits(), 0xc2ce_8ed0);
    }

    #[test]
    fn nans_come_back_quieted_with_their_payload() {
        for snan in [0x7f80_0001u32, 0x7fa1_2345, 0xff80_0001, 0xffbf_ffff] {
            let x = std::hint::black_box(f32::from_bits(snan));
            assert_eq!(exp_lane(x).to_bits(), snan | 0x0040_0000);
            assert_eq!(ln_lane(x).to_bits(), snan | 0x0040_0000);
            let (mut e, mut l) = ([x], [x]);
            exp_inplace(&mut e);
            ln_inplace(&mut l);
            assert_eq!(e[0].to_bits(), snan | 0x0040_0000);
            assert_eq!(l[0].to_bits(), snan | 0x0040_0000);
        }
    }

    #[test]
    fn every_backend_gives_identical_bits_on_mixed_slices() {
        let _g = force_lock();
        let prev = force_backend(None);
        let mut rng = StdRng::seed_from_u64(2101);
        // softmax-sized and probability-sized values, then raw patterns
        // (NaNs, infinities, subnormals, negatives); 1 001 leaves a tail of
        // one on 8 lanes and of nine on 16
        let xs: Vec<f32> = (0..1001)
            .map(|i| match i % 3 {
                0 => rng.gen_range(-30.0f32..0.5),
                1 => rng.gen_range(0.0f32..1.0),
                _ => f32::from_bits(rng.gen()),
            })
            .collect();
        let bits = |f: fn(f32) -> f32| xs.iter().map(|&x| f(x).to_bits()).collect::<Vec<u32>>();
        let (want_exp, want_ln) = (bits(exp_lane), bits(ln_lane));
        for b in supported() {
            force_backend(Some(b));
            let (mut e, mut l) = (xs.clone(), xs.clone());
            exp_inplace(&mut e);
            ln_inplace(&mut l);
            let got = |ys: &[f32]| ys.iter().map(|y| y.to_bits()).collect::<Vec<u32>>();
            assert_eq!(got(&e), want_exp, "exp, {}", b.name());
            assert_eq!(got(&l), want_ln, "ln, {}", b.name());
        }
        force_backend(prev);
    }
}
