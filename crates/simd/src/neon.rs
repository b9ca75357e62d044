//! NEON microkernels (aarch64 baseline, no runtime detection needed).
//! `vmlaq_f32` lowers to fused FMLA on aarch64, which rounds once and would
//! change the bits — so these use explicit `vmulq_f32` + `vaddq_f32`,
//! mirroring the AVX2/SSE2 no-FMA rule.

#![allow(clippy::too_many_arguments)]
#![allow(clippy::needless_range_loop)]

use core::arch::aarch64::*;

/// 4 rows × 8 cells (2 vectors), accumulators in registers over [k0, k1).
unsafe fn k4x8(
    x: &[f32],
    (rs, ks): (usize, usize),
    b0: usize,
    wt: &[f32],
    out_dim: usize,
    j: usize,
    k0: usize,
    k1: usize,
    y: &mut [f32],
) {
    let zero = vdupq_n_f32(0.0);
    let mut acc = [[zero; 2]; 4];
    for r in 0..4 {
        let yp = y.as_ptr().add((b0 + r) * out_dim + j);
        for v in 0..2 {
            acc[r][v] = vld1q_f32(yp.add(v * 4));
        }
    }
    for k in k0..k1 {
        let wp = wt.as_ptr().add(k * out_dim + j);
        let w = [vld1q_f32(wp), vld1q_f32(wp.add(4))];
        for r in 0..4 {
            let xb = vdupq_n_f32(*x.get_unchecked((b0 + r) * rs + k * ks));
            for v in 0..2 {
                acc[r][v] = vaddq_f32(acc[r][v], vmulq_f32(xb, w[v]));
            }
        }
    }
    for r in 0..4 {
        let yp = y.as_mut_ptr().add((b0 + r) * out_dim + j);
        for v in 0..2 {
            vst1q_f32(yp.add(v * 4), acc[r][v]);
        }
    }
}

/// 1 row × 8 cells (2 vectors).
unsafe fn k1x8(
    x: &[f32],
    (rs, ks): (usize, usize),
    b0: usize,
    wt: &[f32],
    out_dim: usize,
    j: usize,
    k0: usize,
    k1: usize,
    y: &mut [f32],
) {
    let yp0 = y.as_ptr().add(b0 * out_dim + j);
    let mut acc = [vld1q_f32(yp0), vld1q_f32(yp0.add(4))];
    for k in k0..k1 {
        let wp = wt.as_ptr().add(k * out_dim + j);
        let xb = vdupq_n_f32(*x.get_unchecked(b0 * rs + k * ks));
        acc[0] = vaddq_f32(acc[0], vmulq_f32(xb, vld1q_f32(wp)));
        acc[1] = vaddq_f32(acc[1], vmulq_f32(xb, vld1q_f32(wp.add(4))));
    }
    let yp = y.as_mut_ptr().add(b0 * out_dim + j);
    vst1q_f32(yp, acc[0]);
    vst1q_f32(yp.add(4), acc[1]);
}

/// Sweeps rows in blocks of 4 (then singles), columns in 8-cell blocks,
/// scalar column tail last — same shape as the x86 drivers.
pub fn panel(
    x: &[f32],
    (rs, ks): (usize, usize),
    b0: usize,
    b1: usize,
    wt: &[f32],
    out_dim: usize,
    k0: usize,
    k1: usize,
    y: &mut [f32],
) {
    unsafe {
        let mut b = b0;
        while b + 4 <= b1 {
            let mut j = 0;
            while j + 8 <= out_dim {
                k4x8(x, (rs, ks), b, wt, out_dim, j, k0, k1, y);
                j += 8;
            }
            if j < out_dim {
                crate::scalar::panel_cols(x, (rs, ks), b, b + 4, wt, out_dim, j, k0, k1, y);
            }
            b += 4;
        }
        while b < b1 {
            let mut j = 0;
            while j + 8 <= out_dim {
                k1x8(x, (rs, ks), b, wt, out_dim, j, k0, k1, y);
                j += 8;
            }
            if j < out_dim {
                crate::scalar::panel_cols(x, (rs, ks), b, b + 1, wt, out_dim, j, k0, k1, y);
            }
            b += 1;
        }
    }
}
