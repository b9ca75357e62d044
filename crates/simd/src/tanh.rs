//! Lane-wise `tanh`: the host's `tanhf` re-expressed, not approximated.
//!
//! The PPO goldens were recorded with glibc 2.36's `tanhf`, which is fdlibm's
//! `s_tanhf.c` over `s_expm1f.c`: plain IEEE `f32` add/mul/div, no FMA, no
//! table. [`tanh_lane`] is that code with every branch turned into a select,
//! so eight inputs can take eight different paths in one register, and it is
//! bit-equal to the libm function on all 2³² inputs (NaN payloads included;
//! `exhaustive_sweep_of_all_bit_patterns` below is the proof, and what to
//! rerun on a new host). The AVX2 and AVX-512 forms are the same recipe
//! line by line.
//!
//! With `ix = bits(|x|)`, `a = ±2|x|` and `ha = bits(|a|)`:
//!
//! | fdlibm source | condition | result |
//! |---|---|---|
//! | `s_tanhf.c` NaN | `ix > 0x7f800000` | `x + x` (quieted, payload kept) |
//! | `s_tanhf.c` huge, inf | `ix ≥ 0x41b00000` (\|x\| ≥ 22) | `±1` |
//! | `s_tanhf.c` tiny | `ix < 0x24000000` (\|x\| < 2⁻⁵⁵) | `x·(1 + x)` |
//! | `s_tanhf.c` \|x\| ≥ 1 | `ix ≥ 0x3f800000` | `1 − 2/(expm1f(2\|x\|) + 2)` |
//! | `s_tanhf.c` \|x\| < 1 | otherwise | `−t/(t + 2)`, `t = expm1f(−2\|x\|)` |
//! | `s_expm1f.c` tiny | `ha < 0x33000000` (\|a\| < 2⁻²⁵) | `a` |
//! | `s_expm1f.c` no reduction | `ha ≤ 0x3eb17218` (\|a\| ≤ ½ln2) | `k = 0` |
//! | `s_expm1f.c` near | `ha < 0x3f851592` (\|a\| < 1½ln2) | `k = −1` |
//! | `s_expm1f.c` far | otherwise | `k = trunc(a/ln2 ± ½)` |
//! | `s_expm1f.c` scaling | `k = 0`, `−1`, `≤ −2 or > 56`, `< 23`, `23…56` | five reconstructions of `2ᵏ·(1 + r) − 1` |
//!
//! `k = 1` (and fdlibm's branch for it) cannot occur: a positive argument
//! is `2|x|` with `|x| ≥ 1`, which is past `1½ln2`. Finite inputs below 22
//! give `k` in −3…63.

use crate::{active_backend, count_cells, Backend, TANH_CALLS};
use std::sync::atomic::Ordering;

const ABS: u32 = 0x7fff_ffff;
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);

/// `tanh(x)` with the bits of fdlibm's `tanhf`, every branch a select.
/// The scalar reference every backend of [`tanh_inplace`] must bit-match.
///
/// All candidate results are computed for every input, so a lane that will
/// be overridden (a NaN, an infinity) still runs the integer steps: `k` is
/// clamped to its finite range and the exponent adds wrap, which keeps
/// debug-build overflow checks quiet without touching any selected value.
pub fn tanh_lane(x: f32) -> f32 {
    let ix = x.to_bits() & ABS;
    let ax = f32::from_bits(ix);
    let big = ix >= 0x3f80_0000;

    // expm1f(a), a = ±2|x|
    let (two, half) = if big { (2.0, 0.5) } else { (-2.0, -0.5) };
    let a = two * ax;
    let ha = a.to_bits() & ABS;
    let k = if ha <= 0x3eb1_7218 {
        0
    } else if ha < 0x3f85_1592 {
        -1
    } else {
        (INVLN2 * a + half) as i32
    };
    let k = k.clamp(-3, 63);
    // at k = 0 these give xr = a and c = 0, as fdlibm's unreduced path has
    let t = k as f32;
    let hi = a - t * LN2_HI;
    let lo = t * LN2_LO;
    let xr = hi - lo;
    let c = (hi - xr) - lo;

    let hfx = 0.5 * xr;
    let hxs = xr * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let tt = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - tt) / (6.0 - xr * tt));

    let k_exp = (k << 23) as u32;
    let scale = |y: f32| f32::from_bits(y.to_bits().wrapping_add(k_exp));
    let unreduced = xr - (xr * e - hxs);
    let e = (xr * (e - c) - c) - hxs;
    let minus_one = 0.5 * (xr - e) - 0.5;
    let far = scale(1.0 - (e - xr)) - 1.0;
    // 1 − 2⁻ᵏ; a shift count outside 0…31 yields 0, as AVX2's `srlv` does
    let below_one = 0x3f80_0000 - 0x0100_0000u32.checked_shr(k as u32).unwrap_or(0);
    let low = scale(f32::from_bits(below_one) - (e - xr));
    let two_pow_minus_k = f32::from_bits(((0x7f - k) as u32) << 23);
    let high = scale((xr - (e + two_pow_minus_k)) + 1.0);
    let em1 = if ha < 0x3300_0000 {
        a
    } else if k == 0 {
        unreduced
    } else if k == -1 {
        minus_one
    } else if !(-1..=56).contains(&k) {
        far
    } else if k < 23 {
        low
    } else {
        high
    };

    let num = if big { 2.0 } else { -em1 };
    let q = num / (em1 + 2.0);
    let z = if big { 1.0 - q } else { q };
    let z = if ix >= 0x41b0_0000 { 1.0 } else { z };
    // z ≥ +0 on every path, so OR-ing the sign in is fdlibm's `jx>=0 ? z : -z`
    let z = f32::from_bits(z.to_bits() | (x.to_bits() & !ABS));
    if ix > 0x7f80_0000 {
        x + x
    } else if ix < 0x2400_0000 {
        x * (1.0 + x)
    } else {
        z
    }
}

/// Replaces every element of `x` with its `tanh`, bit-equal to
/// [`tanh_lane`] on every backend and for every slice length. Full groups
/// of 16 (AVX-512) or 8 (AVX2) elements are counted as vector cells in
/// [`crate::stats`], the tail (and every element on the other backends) as
/// scalar cells.
pub fn tanh_inplace(x: &mut [f32]) {
    let vector = dispatch(active_backend(), x);
    TANH_CALLS.fetch_add(1, Ordering::Relaxed);
    count_cells(vector, x.len());
}

/// Runs `backend`'s kernel over `x`; returns how many cells went through
/// full vectors. `backend` must be supported, as `active_backend()` is.
fn dispatch(backend: Backend, x: &mut [f32]) -> usize {
    match backend {
        #[cfg(target_arch = "x86_64")]
        Backend::Avx512 => {
            // SAFETY: as for `Avx2` below.
            unsafe { avx512::tanh_inplace(x) };
            x.len() - x.len() % 16
        }
        #[cfg(target_arch = "x86_64")]
        Backend::Avx2 => {
            // SAFETY: callers pass `active_backend()` (detection,
            // `HARL_SIMD` and `force_backend` all clamp to a tier whose
            // `is_supported` check passed) or a backend they checked
            // themselves — the guard `panel_dispatch` relies on.
            unsafe { avx2::tanh_inplace(x) };
            x.len() - x.len() % 8
        }
        _ => {
            for v in x.iter_mut() {
                *v = tanh_lane(*v);
            }
            0
        }
    }
}

/// [`tanh_lane`] over eight lanes: the same operations in the same order,
/// `if` spelled as a blend. Separate `mul`/`add`/`div`, never FMA.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use core::arch::x86_64::*;

    inplace_kernel!(
        tanh_inplace,
        "avx2",
        8,
        tanh8,
        _mm256_loadu_ps,
        _mm256_storeu_ps
    );

    #[target_feature(enable = "avx2")]
    unsafe fn tanh8(x: __m256) -> __m256 {
        let f = |v: f32| _mm256_set1_ps(v);
        let i = |v: i32| _mm256_set1_epi32(v);
        let bits = |v: __m256| _mm256_castps_si256(v);
        let float = |v: __m256i| _mm256_castsi256_ps(v);
        // `c ? a : b` per lane; `c` is an integer compare result (all ones
        // or all zeros), of which `blendv` reads the top bit
        let sel = |c: __m256i, a: __m256, b: __m256| _mm256_blendv_ps(b, a, float(c));
        // `a < b` on lanes that are non-negative as signed integers
        let lt = |a: __m256i, b: __m256i| _mm256_cmpgt_epi32(b, a);

        let abs = i(ABS as i32);
        let ix = _mm256_and_si256(bits(x), abs);
        let ax = float(ix);
        let big = lt(i(0x3f7f_ffff), ix);

        let a = _mm256_mul_ps(sel(big, f(2.0), f(-2.0)), ax);
        let ha = _mm256_and_si256(bits(a), abs);
        let far_k = _mm256_cvttps_epi32(_mm256_add_ps(
            _mm256_mul_ps(f(INVLN2), a),
            sel(big, f(0.5), f(-0.5)),
        ));
        let k = _mm256_blendv_epi8(far_k, i(-1), lt(ha, i(0x3f85_1592)));
        let k = _mm256_and_si256(k, lt(i(0x3eb1_7218), ha));
        let k = _mm256_max_epi32(_mm256_min_epi32(k, i(63)), i(-3));
        let t = _mm256_cvtepi32_ps(k);
        let hi = _mm256_sub_ps(a, _mm256_mul_ps(t, f(LN2_HI)));
        let lo = _mm256_mul_ps(t, f(LN2_LO));
        let xr = _mm256_sub_ps(hi, lo);
        let c = _mm256_sub_ps(_mm256_sub_ps(hi, xr), lo);

        let hfx = _mm256_mul_ps(f(0.5), xr);
        let hxs = _mm256_mul_ps(xr, hfx);
        let mut r1 = f(Q5);
        for q in [Q4, Q3, Q2, Q1, 1.0] {
            r1 = _mm256_add_ps(f(q), _mm256_mul_ps(hxs, r1));
        }
        let tt = _mm256_sub_ps(f(3.0), _mm256_mul_ps(r1, hfx));
        let e = _mm256_mul_ps(
            hxs,
            _mm256_div_ps(
                _mm256_sub_ps(r1, tt),
                _mm256_sub_ps(f(6.0), _mm256_mul_ps(xr, tt)),
            ),
        );

        let k_exp = _mm256_slli_epi32::<23>(k);
        let scale = |y: __m256| float(_mm256_add_epi32(bits(y), k_exp));
        let unreduced = _mm256_sub_ps(xr, _mm256_sub_ps(_mm256_mul_ps(xr, e), hxs));
        let e = _mm256_sub_ps(
            _mm256_sub_ps(_mm256_mul_ps(xr, _mm256_sub_ps(e, c)), c),
            hxs,
        );
        let minus_one = _mm256_sub_ps(_mm256_mul_ps(f(0.5), _mm256_sub_ps(xr, e)), f(0.5));
        let e_minus_xr = _mm256_sub_ps(e, xr);
        let far = _mm256_sub_ps(scale(_mm256_sub_ps(f(1.0), e_minus_xr)), f(1.0));
        let below_one = _mm256_sub_epi32(i(0x3f80_0000), _mm256_srlv_epi32(i(0x0100_0000), k));
        let low = scale(_mm256_sub_ps(float(below_one), e_minus_xr));
        let two_pow_minus_k = float(_mm256_slli_epi32::<23>(_mm256_sub_epi32(i(0x7f), k)));
        let high = scale(_mm256_add_ps(
            _mm256_sub_ps(xr, _mm256_add_ps(e, two_pow_minus_k)),
            f(1.0),
        ));
        let em1 = sel(lt(k, i(23)), low, high);
        let outside = _mm256_or_si256(lt(k, i(-1)), lt(i(56), k));
        let em1 = sel(outside, far, em1);
        let em1 = sel(_mm256_cmpeq_epi32(k, i(-1)), minus_one, em1);
        let em1 = sel(_mm256_cmpeq_epi32(k, i(0)), unreduced, em1);
        let em1 = sel(lt(ha, i(0x3300_0000)), a, em1);

        let minus_em1 = _mm256_xor_ps(em1, f(-0.0));
        let q = _mm256_div_ps(sel(big, f(2.0), minus_em1), _mm256_add_ps(em1, f(2.0)));
        let z = sel(big, _mm256_sub_ps(f(1.0), q), q);
        let z = sel(lt(i(0x41af_ffff), ix), f(1.0), z);
        let z = _mm256_or_ps(z, _mm256_and_ps(x, f(-0.0)));
        let tiny = _mm256_mul_ps(x, _mm256_add_ps(f(1.0), x));
        let z = sel(lt(ix, i(0x2400_0000)), tiny, z);
        sel(lt(i(0x7f80_0000), ix), _mm256_add_ps(x, x), z)
    }
}

/// [`tanh_lane`] over sixteen lanes: the AVX2 form with every compare
/// landing in a mask register and every blend reading one. AVX-512F only,
/// so the bitwise float operations go through the integer domain.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::*;
    use core::arch::x86_64::*;

    inplace_kernel!(
        tanh_inplace,
        "avx512f",
        16,
        tanh16,
        _mm512_loadu_ps,
        _mm512_storeu_ps
    );

    #[target_feature(enable = "avx512f")]
    unsafe fn tanh16(x: __m512) -> __m512 {
        let f = |v: f32| _mm512_set1_ps(v);
        let i = |v: i32| _mm512_set1_epi32(v);
        let bits = |v: __m512| _mm512_castps_si512(v);
        let float = |v: __m512i| _mm512_castsi512_ps(v);
        // `c ? a : b` per lane
        let sel = |c: __mmask16, a: __m512, b: __m512| _mm512_mask_blend_ps(c, b, a);
        // `a < b` on lanes that are non-negative as signed integers
        let lt = |a: __m512i, b: __m512i| _mm512_cmplt_epi32_mask(a, b);

        let abs = i(ABS as i32);
        let ix = _mm512_and_si512(bits(x), abs);
        let ax = float(ix);
        let big = lt(i(0x3f7f_ffff), ix);

        let a = _mm512_mul_ps(sel(big, f(2.0), f(-2.0)), ax);
        let ha = _mm512_and_si512(bits(a), abs);
        let far_k = _mm512_cvttps_epi32(_mm512_add_ps(
            _mm512_mul_ps(f(INVLN2), a),
            sel(big, f(0.5), f(-0.5)),
        ));
        let k = _mm512_mask_blend_epi32(lt(ha, i(0x3f85_1592)), far_k, i(-1));
        let k = _mm512_maskz_mov_epi32(lt(i(0x3eb1_7218), ha), k);
        let k = _mm512_max_epi32(_mm512_min_epi32(k, i(63)), i(-3));
        let t = _mm512_cvtepi32_ps(k);
        let hi = _mm512_sub_ps(a, _mm512_mul_ps(t, f(LN2_HI)));
        let lo = _mm512_mul_ps(t, f(LN2_LO));
        let xr = _mm512_sub_ps(hi, lo);
        let c = _mm512_sub_ps(_mm512_sub_ps(hi, xr), lo);

        let hfx = _mm512_mul_ps(f(0.5), xr);
        let hxs = _mm512_mul_ps(xr, hfx);
        let mut r1 = f(Q5);
        for q in [Q4, Q3, Q2, Q1, 1.0] {
            r1 = _mm512_add_ps(f(q), _mm512_mul_ps(hxs, r1));
        }
        let tt = _mm512_sub_ps(f(3.0), _mm512_mul_ps(r1, hfx));
        let e = _mm512_mul_ps(
            hxs,
            _mm512_div_ps(
                _mm512_sub_ps(r1, tt),
                _mm512_sub_ps(f(6.0), _mm512_mul_ps(xr, tt)),
            ),
        );

        let k_exp = _mm512_slli_epi32::<23>(k);
        let scale = |y: __m512| float(_mm512_add_epi32(bits(y), k_exp));
        let unreduced = _mm512_sub_ps(xr, _mm512_sub_ps(_mm512_mul_ps(xr, e), hxs));
        let e = _mm512_sub_ps(
            _mm512_sub_ps(_mm512_mul_ps(xr, _mm512_sub_ps(e, c)), c),
            hxs,
        );
        let minus_one = _mm512_sub_ps(_mm512_mul_ps(f(0.5), _mm512_sub_ps(xr, e)), f(0.5));
        let e_minus_xr = _mm512_sub_ps(e, xr);
        let far = _mm512_sub_ps(scale(_mm512_sub_ps(f(1.0), e_minus_xr)), f(1.0));
        let below_one = _mm512_sub_epi32(i(0x3f80_0000), _mm512_srlv_epi32(i(0x0100_0000), k));
        let low = scale(_mm512_sub_ps(float(below_one), e_minus_xr));
        let two_pow_minus_k = float(_mm512_slli_epi32::<23>(_mm512_sub_epi32(i(0x7f), k)));
        let high = scale(_mm512_add_ps(
            _mm512_sub_ps(xr, _mm512_add_ps(e, two_pow_minus_k)),
            f(1.0),
        ));
        let em1 = sel(lt(k, i(23)), low, high);
        let outside = lt(k, i(-1)) | lt(i(56), k);
        let em1 = sel(outside, far, em1);
        let em1 = sel(_mm512_cmpeq_epi32_mask(k, i(-1)), minus_one, em1);
        let em1 = sel(_mm512_cmpeq_epi32_mask(k, i(0)), unreduced, em1);
        let em1 = sel(lt(ha, i(0x3300_0000)), a, em1);

        let sign = i(!ABS as i32);
        let minus_em1 = float(_mm512_xor_si512(bits(em1), sign));
        let q = _mm512_div_ps(sel(big, f(2.0), minus_em1), _mm512_add_ps(em1, f(2.0)));
        let z = sel(big, _mm512_sub_ps(f(1.0), q), q);
        let z = sel(lt(i(0x41af_ffff), ix), f(1.0), z);
        let z = float(_mm512_or_si512(bits(z), _mm512_and_si512(bits(x), sign)));
        let tiny = _mm512_mul_ps(x, _mm512_add_ps(f(1.0), x));
        let z = sel(lt(ix, i(0x2400_0000)), tiny, z);
        sel(lt(i(0x7f80_0000), ix), _mm512_add_ps(x, x), z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::force_backend;
    use crate::tests::{force_lock, supported, Sweep};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn lane_bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|&x| tanh_lane(x).to_bits()).collect()
    }

    /// Whether the libm behind `f32::tanh` is the fdlibm one [`tanh_lane`]
    /// re-expresses: 64 inputs spread over every branch of the table.
    fn host_tanhf_is_fdlibm() -> bool {
        (0..64u32).all(|i| {
            let x = f32::from_bits((0x2000_0000 + i * 0x0090_0000) | ((i & 1) << 31));
            x.tanh().to_bits() == tanh_lane(x).to_bits()
        })
    }

    const TANH: Sweep = Sweep {
        name: "tanh",
        lane: tanh_lane,
        host: f32::tanh,
        dispatch,
    };

    #[test]
    fn strided_sweep_matches_lane_form_and_host() {
        TANH.strided(host_tanhf_is_fdlibm());
    }

    /// The proof behind the module docs; `ci/test.sh` runs it in a release
    /// build (`-- --ignored`). Rerun it on a host with another libm: the
    /// backend comparison must still pass there.
    #[test]
    #[ignore = "all 2^32 inputs: minutes in a release build, hours in a debug one"]
    fn exhaustive_sweep_of_all_bit_patterns() {
        TANH.exhaustive(host_tanhf_is_fdlibm());
    }

    #[test]
    fn signed_zeros_keep_their_sign() {
        assert_eq!(tanh_lane(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh_lane(-0.0).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn subnormals_return_x_times_one_plus_x() {
        for bits in [1u32, 2, 0x0000_ffff, 0x007f_ffff, 0x8000_0001, 0x807f_ffff] {
            let x = f32::from_bits(bits);
            assert_eq!(tanh_lane(x).to_bits(), (x * (1.0 + x)).to_bits());
        }
    }

    #[test]
    fn saturates_to_exactly_one_from_22_up() {
        for x in [22.0f32, 22.5, 88.0, 1e30, f32::MAX, f32::INFINITY] {
            assert_eq!(tanh_lane(x).to_bits(), 1.0f32.to_bits(), "{x}");
            assert_eq!(tanh_lane(-x).to_bits(), (-1.0f32).to_bits(), "-{x}");
        }
    }

    #[test]
    fn signalling_nan_comes_back_quieted_with_its_payload() {
        for snan in [0x7f80_0001u32, 0x7fa1_2345, 0xff80_0001, 0xffbf_ffff] {
            let mut one = [std::hint::black_box(f32::from_bits(snan))];
            assert_eq!(tanh_lane(one[0]).to_bits(), snan | 0x0040_0000);
            tanh_inplace(&mut one);
            assert_eq!(one[0].to_bits(), snan | 0x0040_0000);
        }
    }

    #[test]
    fn odd_symmetry_is_bitwise() {
        let mut rng = StdRng::seed_from_u64(19);
        for _ in 0..100_000 {
            let bits: u32 = rng.gen();
            let (pos, neg) = (f32::from_bits(bits & ABS), f32::from_bits(bits | !ABS));
            assert_eq!(
                tanh_lane(neg).to_bits(),
                tanh_lane(pos).to_bits() | !ABS,
                "{pos}"
            );
        }
    }

    #[test]
    fn every_backend_gives_identical_bits_on_a_mixed_slice() {
        let _g = force_lock();
        let prev = force_backend(None);
        let mut rng = StdRng::seed_from_u64(1001);
        // activations-sized values, then raw patterns (NaNs, infinities,
        // subnormals); 1 001 = 125 vectors and a tail of one
        let xs: Vec<f32> = (0..1001)
            .map(|i| match i % 3 {
                0 => rng.gen_range(-4.0f32..4.0),
                1 => rng.gen_range(-30.0f32..30.0),
                _ => f32::from_bits(rng.gen()),
            })
            .collect();
        let want = lane_bits(&xs);
        for b in supported() {
            force_backend(Some(b));
            let mut ys = xs.clone();
            tanh_inplace(&mut ys);
            let got: Vec<u32> = ys.iter().map(|y| y.to_bits()).collect();
            assert_eq!(got, want, "{}", b.name());
        }
        force_backend(prev);
    }
}
