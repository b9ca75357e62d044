//! AVX2 and SSE2 microkernels. FMA is deliberately never used: a fused
//! multiply-add rounds once, separate `mul` + `add` round twice, and the
//! scalar reference rounds twice — fusing would change the bits.
//!
//! Shape: `MR` batch rows × `NV` vectors of output cells, accumulators held
//! in registers across the whole `k ∈ [k0, k1)` panel. The accumulators are
//! *loaded from* `y` (which holds bias or the previous panel's partial sum)
//! and *stored back* — f32 load/store is exact, so panel boundaries don't
//! perturb any cell's serial chain.

#![allow(clippy::too_many_arguments)]
#![allow(clippy::needless_range_loop)]

use core::arch::x86_64::*;

macro_rules! gemm_kernel {
    ($name:ident, $feat:literal, $lanes:expr, $mr:expr, $nv:expr,
     $load:ident, $store:ident, $set1:ident, $mul:ident, $add:ident) => {
        /// `$mr` rows × `$nv` vectors of `$lanes` cells, k ∈ [k0, k1).
        #[target_feature(enable = $feat)]
        unsafe fn $name(
            x: &[f32],
            in_dim: usize,
            b0: usize,
            wt: &[f32],
            out_dim: usize,
            j: usize,
            k0: usize,
            k1: usize,
            y: &mut [f32],
        ) {
            let zero = $set1(0.0);
            let mut acc = [[zero; $nv]; $mr];
            for r in 0..$mr {
                let yp = y.as_ptr().add((b0 + r) * out_dim + j);
                for v in 0..$nv {
                    acc[r][v] = $load(yp.add(v * $lanes));
                }
            }
            for k in k0..k1 {
                let wp = wt.as_ptr().add(k * out_dim + j);
                let mut w = [zero; $nv];
                for v in 0..$nv {
                    w[v] = $load(wp.add(v * $lanes));
                }
                for r in 0..$mr {
                    let xb = $set1(*x.get_unchecked((b0 + r) * in_dim + k));
                    for v in 0..$nv {
                        acc[r][v] = $add(acc[r][v], $mul(xb, w[v]));
                    }
                }
            }
            for r in 0..$mr {
                let yp = y.as_mut_ptr().add((b0 + r) * out_dim + j);
                for v in 0..$nv {
                    $store(yp.add(v * $lanes), acc[r][v]);
                }
            }
        }
    };
}

// AVX2: 8-lane vectors. 4×16 core (8 ymm accumulators + 2 w + 1 broadcast).
gemm_kernel!(
    k4x16_avx2,
    "avx2",
    8,
    4,
    2,
    _mm256_loadu_ps,
    _mm256_storeu_ps,
    _mm256_set1_ps,
    _mm256_mul_ps,
    _mm256_add_ps
);
gemm_kernel!(
    k4x8_avx2,
    "avx2",
    8,
    4,
    1,
    _mm256_loadu_ps,
    _mm256_storeu_ps,
    _mm256_set1_ps,
    _mm256_mul_ps,
    _mm256_add_ps
);
gemm_kernel!(
    k1x16_avx2,
    "avx2",
    8,
    1,
    2,
    _mm256_loadu_ps,
    _mm256_storeu_ps,
    _mm256_set1_ps,
    _mm256_mul_ps,
    _mm256_add_ps
);
gemm_kernel!(
    k1x8_avx2,
    "avx2",
    8,
    1,
    1,
    _mm256_loadu_ps,
    _mm256_storeu_ps,
    _mm256_set1_ps,
    _mm256_mul_ps,
    _mm256_add_ps
);

// SSE2: 4-lane vectors. 4×8 core (8 xmm accumulators + 2 w + 1 broadcast).
gemm_kernel!(
    k4x8_sse2,
    "sse2",
    4,
    4,
    2,
    _mm_loadu_ps,
    _mm_storeu_ps,
    _mm_set1_ps,
    _mm_mul_ps,
    _mm_add_ps
);
gemm_kernel!(
    k4x4_sse2,
    "sse2",
    4,
    4,
    1,
    _mm_loadu_ps,
    _mm_storeu_ps,
    _mm_set1_ps,
    _mm_mul_ps,
    _mm_add_ps
);
gemm_kernel!(
    k1x8_sse2,
    "sse2",
    4,
    1,
    2,
    _mm_loadu_ps,
    _mm_storeu_ps,
    _mm_set1_ps,
    _mm_mul_ps,
    _mm_add_ps
);
gemm_kernel!(
    k1x4_sse2,
    "sse2",
    4,
    1,
    1,
    _mm_loadu_ps,
    _mm_storeu_ps,
    _mm_set1_ps,
    _mm_mul_ps,
    _mm_add_ps
);

macro_rules! panel_driver {
    ($name:ident, $feat:literal, $wide:expr, $narrow:expr,
     $kmr_wide:ident, $kmr_narrow:ident, $k1_wide:ident, $k1_narrow:ident) => {
        /// Sweeps rows `[b0, b1)` in blocks of 4 (then singles) and columns
        /// in `$wide`/`$narrow` vector blocks, scalar column tail last.
        ///
        /// # Safety
        /// Caller must have verified the `$feat` CPU feature is present.
        #[target_feature(enable = $feat)]
        pub unsafe fn $name(
            x: &[f32],
            in_dim: usize,
            b0: usize,
            b1: usize,
            wt: &[f32],
            out_dim: usize,
            k0: usize,
            k1: usize,
            y: &mut [f32],
        ) {
            let mut b = b0;
            while b + 4 <= b1 {
                let mut j = 0;
                while j + $wide <= out_dim {
                    $kmr_wide(x, in_dim, b, wt, out_dim, j, k0, k1, y);
                    j += $wide;
                }
                while j + $narrow <= out_dim {
                    $kmr_narrow(x, in_dim, b, wt, out_dim, j, k0, k1, y);
                    j += $narrow;
                }
                if j < out_dim {
                    crate::scalar::panel_cols(x, in_dim, b, b + 4, wt, out_dim, j, k0, k1, y);
                }
                b += 4;
            }
            while b < b1 {
                let mut j = 0;
                while j + $wide <= out_dim {
                    $k1_wide(x, in_dim, b, wt, out_dim, j, k0, k1, y);
                    j += $wide;
                }
                while j + $narrow <= out_dim {
                    $k1_narrow(x, in_dim, b, wt, out_dim, j, k0, k1, y);
                    j += $narrow;
                }
                if j < out_dim {
                    crate::scalar::panel_cols(x, in_dim, b, b + 1, wt, out_dim, j, k0, k1, y);
                }
                b += 1;
            }
        }
    };
}

panel_driver!(panel_avx2, "avx2", 16, 8, k4x16_avx2, k4x8_avx2, k1x16_avx2, k1x8_avx2);
panel_driver!(panel_sse2, "sse2", 8, 4, k4x8_sse2, k4x4_sse2, k1x8_sse2, k1x4_sse2);
