//! Reference kernels: plain Rust loops with the pinned per-cell
//! accumulation order. Every SIMD backend must bit-match these.

/// Accumulates `y[b][o] += Σ_{k∈[k0,k1)} x[b][k] · wt[k][o]` for batch rows
/// `b ∈ [b0, b1)`, `x[b][k]` being `x[b · rs + k · ks]`. The k-outer /
/// o-inner sweep keeps the inner loop contiguous (autovectorizable); per
/// cell the order is still ascending `k`.
#[allow(clippy::too_many_arguments)]
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
    for b in b0..b1 {
        let y_row = &mut y[b * out_dim..(b + 1) * out_dim];
        for k in k0..k1 {
            let xv = x[b * rs + k * ks];
            let w_row = &wt[k * out_dim..(k + 1) * out_dim];
            for (yo, &wo) in y_row.iter_mut().zip(w_row) {
                *yo += xv * wo;
            }
        }
    }
}

/// Column-tail helper used by the SIMD panels: cells `[j0, out_dim)` of
/// batch rows `[b0, b1)`, each accumulated ascending `k` — identical chain,
/// just without vector lanes.
#[allow(clippy::too_many_arguments)]
pub fn panel_cols(
    x: &[f32],
    (rs, ks): (usize, usize),
    b0: usize,
    b1: usize,
    wt: &[f32],
    out_dim: usize,
    j0: usize,
    k0: usize,
    k1: usize,
    y: &mut [f32],
) {
    for b in b0..b1 {
        for j in j0..out_dim {
            let mut acc = y[b * out_dim + j];
            for k in k0..k1 {
                acc += x[b * rs + k * ks] * wt[k * out_dim + j];
            }
            y[b * out_dim + j] = acc;
        }
    }
}
