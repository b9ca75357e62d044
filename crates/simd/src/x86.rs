//! AVX-512, AVX2 and SSE2 microkernels. FMA is deliberately never used: a
//! fused multiply-add rounds once, separate `mul` + `add` round twice, and
//! the scalar reference rounds twice — fusing would change the bits.
//!
//! Shape: `MR` batch rows × `NV` vectors of output cells, accumulators held
//! in registers across the whole `k ∈ [k0, k1)` panel. The accumulators are
//! *loaded from* `y` (which holds bias or the previous panel's partial sum)
//! and *stored back* — f32 load/store is exact, so panel boundaries don't
//! perturb any cell's serial chain.
//!
//! Column tails (`out_dim` modulo the vector width) run through the same
//! kernel with masked loads and stores on the two AVX tiers: a masked-off
//! lane reads as zero, is never stored and touches no memory, so every live
//! cell keeps its chain and nothing past the end of a row is accessed. SSE2
//! has no masked move and keeps the scalar column tail.

#![allow(clippy::too_many_arguments)]
#![allow(clippy::needless_range_loop)]
// `b + MR <= b1` is spelled once for every tile height, 1 included
#![allow(clippy::int_plus_one)]

use core::arch::x86_64::*;

/// `$mr` rows × `$nv` vectors of `$lanes` cells, k ∈ [k0, k1). `m` is the
/// lane mask handed to `$load`/`$store` (`()` for the full-width forms).
/// The left operand is read in place through its strides — element
/// `(row, k)` at `x[row · rs + k · ks]` — so a transposed view costs no
/// copy; it is only ever broadcast, one scalar load per row and `k`.
macro_rules! gemm_kernel {
    ($name:ident, $feat:literal, $lanes:expr, $mr:expr, $nv:expr, $mask:ty,
     $load:expr, $store:expr, $set1:ident, $mul:ident, $add:ident) => {
        #[target_feature(enable = $feat)]
        unsafe fn $name(
            x: &[f32],
            (rs, ks): (usize, usize),
            b0: usize,
            wt: &[f32],
            out_dim: usize,
            j: usize,
            k0: usize,
            k1: usize,
            y: &mut [f32],
            m: $mask,
        ) {
            let (load, store) = ($load, $store);
            let zero = $set1(0.0);
            let mut acc = [[zero; $nv]; $mr];
            for r in 0..$mr {
                let yp = y.as_ptr().add((b0 + r) * out_dim + j);
                for v in 0..$nv {
                    acc[r][v] = load(yp.add(v * $lanes), m);
                }
            }
            for k in k0..k1 {
                let wp = wt.as_ptr().add(k * out_dim + j);
                let mut w = [zero; $nv];
                for v in 0..$nv {
                    w[v] = load(wp.add(v * $lanes), m);
                }
                for r in 0..$mr {
                    let xb = $set1(*x.get_unchecked((b0 + r) * rs + k * ks));
                    for v in 0..$nv {
                        acc[r][v] = $add(acc[r][v], $mul(xb, w[v]));
                    }
                }
            }
            for r in 0..$mr {
                let yp = y.as_mut_ptr().add((b0 + r) * out_dim + j);
                for v in 0..$nv {
                    store(yp.add(v * $lanes), m, acc[r][v]);
                }
            }
        }
    };
}

macro_rules! avx512_kernel {
    ($name:ident, $mr:expr, masked) => {
        gemm_kernel!(
            $name,
            "avx512f",
            16,
            $mr,
            1,
            __mmask16,
            |p, m| _mm512_maskz_loadu_ps(m, p),
            |p, m, v| _mm512_mask_storeu_ps(p, m, v),
            _mm512_set1_ps,
            _mm512_mul_ps,
            _mm512_add_ps
        );
    };
    ($name:ident, $mr:expr, $nv:expr) => {
        gemm_kernel!(
            $name,
            "avx512f",
            16,
            $mr,
            $nv,
            (),
            |p, ()| _mm512_loadu_ps(p),
            |p, (), v| _mm512_storeu_ps(p, v),
            _mm512_set1_ps,
            _mm512_mul_ps,
            _mm512_add_ps
        );
    };
}

macro_rules! avx2_kernel {
    ($name:ident, $mr:expr, masked) => {
        gemm_kernel!(
            $name,
            "avx2",
            8,
            $mr,
            1,
            __m256i,
            |p, m| _mm256_maskload_ps(p, m),
            |p, m, v| _mm256_maskstore_ps(p, m, v),
            _mm256_set1_ps,
            _mm256_mul_ps,
            _mm256_add_ps
        );
    };
    ($name:ident, $mr:expr, $nv:expr) => {
        gemm_kernel!(
            $name,
            "avx2",
            8,
            $mr,
            $nv,
            (),
            |p, ()| _mm256_loadu_ps(p),
            |p, (), v| _mm256_storeu_ps(p, v),
            _mm256_set1_ps,
            _mm256_mul_ps,
            _mm256_add_ps
        );
    };
}

macro_rules! sse2_kernel {
    ($name:ident, $mr:expr, $nv:expr) => {
        gemm_kernel!(
            $name,
            "sse2",
            4,
            $mr,
            $nv,
            (),
            |p, ()| _mm_loadu_ps(p),
            |p, (), v| _mm_storeu_ps(p, v),
            _mm_set1_ps,
            _mm_mul_ps,
            _mm_add_ps
        );
    };
}

// AVX-512: 16-lane vectors. 8×32 core (16 zmm accumulators + 2 w + 1
// broadcast of 32), then 4 rows, then single rows.
avx512_kernel!(k8x32_avx512, 8, 2);
avx512_kernel!(k8x16_avx512, 8, 1);
avx512_kernel!(k8xm_avx512, 8, masked);
avx512_kernel!(k4x32_avx512, 4, 2);
avx512_kernel!(k4x16_avx512, 4, 1);
avx512_kernel!(k4xm_avx512, 4, masked);
avx512_kernel!(k1x32_avx512, 1, 2);
avx512_kernel!(k1x16_avx512, 1, 1);
avx512_kernel!(k1xm_avx512, 1, masked);

// AVX2: 8-lane vectors. 4×16 core (8 ymm accumulators + 2 w + 1 broadcast).
avx2_kernel!(k4x16_avx2, 4, 2);
avx2_kernel!(k4x8_avx2, 4, 1);
avx2_kernel!(k4xm_avx2, 4, masked);
avx2_kernel!(k1x16_avx2, 1, 2);
avx2_kernel!(k1x8_avx2, 1, 1);
avx2_kernel!(k1xm_avx2, 1, masked);

// SSE2: 4-lane vectors. 4×8 core (8 xmm accumulators + 2 w + 1 broadcast).
sse2_kernel!(k4x8_sse2, 4, 2);
sse2_kernel!(k4x4_sse2, 4, 1);
sse2_kernel!(k1x8_sse2, 1, 2);
sse2_kernel!(k1x4_sse2, 1, 1);

/// The scalar column tail of `MR` rows, with a tail kernel's signature.
unsafe fn scalar_tail<const MR: usize>(
    x: &[f32],
    strides: (usize, usize),
    b0: usize,
    wt: &[f32],
    out_dim: usize,
    j: usize,
    k0: usize,
    k1: usize,
    y: &mut [f32],
    (): (),
) {
    crate::scalar::panel_cols(x, strides, b0, b0 + MR, wt, out_dim, j, k0, k1, y);
}

/// Lane mask of the first `live` (< 16) cells of a zmm vector.
fn mask_avx512(live: usize) -> __mmask16 {
    (1 << live) - 1
}

/// Lane mask of the first `live` cells of a ymm vector: `maskload` and
/// `maskstore` move the lanes whose top bit is set.
#[target_feature(enable = "avx2")]
unsafe fn mask_avx2(live: usize) -> __m256i {
    let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    _mm256_cmpgt_epi32(_mm256_set1_epi32(live as i32), lane)
}

macro_rules! panel_driver {
    ($name:ident, $feat:literal, $wide:expr, $narrow:expr, $tail_mask:expr,
     $(($mr:expr, $k_wide:ident, $k_narrow:ident, $k_tail:expr)),+) => {
        /// Sweeps rows `[b0, b1)` in blocks of each listed height in turn
        /// (tallest first, single rows last) and columns in `$wide` /
        /// `$narrow` vector blocks, the column tail last.
        ///
        /// # Safety
        /// Caller must have verified the `$feat` CPU feature is present,
        /// that `wt` and `y` hold `k1 × out_dim` and `b1 × out_dim` cells,
        /// and that `(b1 − 1) · rs + (k1 − 1) · ks` indexes into `x`.
        #[target_feature(enable = $feat)]
        pub unsafe fn $name(
            x: &[f32],
            strides: (usize, usize),
            b0: usize,
            b1: usize,
            wt: &[f32],
            out_dim: usize,
            k0: usize,
            k1: usize,
            y: &mut [f32],
        ) {
            let tail = $tail_mask(out_dim % $narrow);
            let mut b = b0;
            $(
                while b + $mr <= b1 {
                    let mut j = 0;
                    while j + $wide <= out_dim {
                        $k_wide(x, strides, b, wt, out_dim, j, k0, k1, y, ());
                        j += $wide;
                    }
                    while j + $narrow <= out_dim {
                        $k_narrow(x, strides, b, wt, out_dim, j, k0, k1, y, ());
                        j += $narrow;
                    }
                    if j < out_dim {
                        $k_tail(x, strides, b, wt, out_dim, j, k0, k1, y, tail);
                    }
                    b += $mr;
                }
            )+
        }
    };
}

panel_driver!(
    panel_avx512,
    "avx512f",
    32,
    16,
    mask_avx512,
    (8, k8x32_avx512, k8x16_avx512, k8xm_avx512),
    (4, k4x32_avx512, k4x16_avx512, k4xm_avx512),
    (1, k1x32_avx512, k1x16_avx512, k1xm_avx512)
);
panel_driver!(
    panel_avx2,
    "avx2",
    16,
    8,
    mask_avx2,
    (4, k4x16_avx2, k4x8_avx2, k4xm_avx2),
    (1, k1x16_avx2, k1x8_avx2, k1xm_avx2)
);
panel_driver!(
    panel_sse2,
    "sse2",
    8,
    4,
    |_| (),
    (4, k4x8_sse2, k4x4_sse2, scalar_tail::<4>),
    (1, k1x8_sse2, k1x4_sse2, scalar_tail::<1>)
);
