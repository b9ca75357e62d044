//! Blocked, cache-tiled GEMM for the batch-major dense layers.
//!
//! The layers store weights row-major `out_dim × in_dim` (one contiguous
//! row per output unit) because that is the natural layout for Adam and
//! serde. For a batch-major forward pass `Y = X·Wᵀ + b` that layout is
//! hostile: the inner product over `k` strides `W` by `in_dim`. So each
//! layer keeps a k-major copy `wt[k·out_dim + o]`, rebuilt whenever Adam
//! moves the weights, and hands the blocked sweep to the
//! runtime-dispatched `harl-simd` MR×NR microkernel, whose vector lanes run
//! across `o` cells (AVX-512/AVX2/SSE2/NEON, scalar fallback, FMA never
//! used). The
//! backward pass needs no transposed weights: the stored layout is already
//! k-major for `dX = gy·W` (see [`crate::layers::Linear::backward_batch`]).
//!
//! ## Determinism contract
//!
//! Every output element is accumulated in exactly one fixed order:
//!
//! ```text
//! y[b][o] = bias[o] + x[b][0]·wt[0][o] + x[b][1]·wt[1][o] + … (k ascending)
//! ```
//!
//! The batch-row blocking (`MB`) and k-panelling (`KC`) only change *which*
//! `(b, o)` cell is touched when — never the order of additions into a
//! given cell, because panels are visited in ascending `k` and each cell
//! belongs to exactly one batch row. Hence a batch-`N` call produces, row
//! for row, the exact bits of `N` batch-1 calls, and both equal the
//! classic per-sample dot product `bias + Σ_k w[o][k]·x[k]`: addition
//! happens in the same order on the same products (multiplication is
//! commutative bitwise under IEEE-754). This is what lets callers batch
//! freely while `tests/scoring_determinism.rs` pins bit-equality.
//!
//! The same argument extends to vector backends: `harl-simd` holds each
//! cell's accumulator in one vector *lane*, multiplies and adds separately
//! (no FMA, which would round once instead of twice), and spills between
//! k-panels through exact f32 load/store — so AVX-512, AVX2, SSE2, NEON, and
//! scalar all produce identical bits (pinned by harl-simd's own backend-matrix
//! tests and by `tests/scoring_determinism.rs`).

pub use harl_simd::{gemm_bias_into, gemm_bias_slice};

/// Transposes row-major `w` (`out_dim × in_dim`) into k-major `wt`
/// (`in_dim × out_dim`), i.e. `wt[k·out_dim + o] = w[o·in_dim + k]`.
pub fn transpose_into(w: &[f32], out_dim: usize, in_dim: usize, wt: &mut Vec<f32>) {
    debug_assert_eq!(w.len(), out_dim * in_dim);
    wt.clear();
    wt.resize(out_dim * in_dim, 0.0);
    for o in 0..out_dim {
        let row = &w[o * in_dim..(o + 1) * in_dim];
        for (k, &v) in row.iter().enumerate() {
            wt[k * out_dim + o] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn per_sample_reference(
        x: &[f32],
        w: &[f32],
        bias: &[f32],
        batch: usize,
        in_dim: usize,
        out_dim: usize,
    ) -> Vec<f32> {
        // the seed's serial dot product: bias + ascending-k accumulation
        let mut y = Vec::with_capacity(batch * out_dim);
        for b in 0..batch {
            let xr = &x[b * in_dim..(b + 1) * in_dim];
            for o in 0..out_dim {
                let row = &w[o * in_dim..(o + 1) * in_dim];
                let mut acc = bias[o];
                for (wi, xi) in row.iter().zip(xr) {
                    acc += wi * xi;
                }
                y.push(acc);
            }
        }
        y
    }

    #[test]
    fn transpose_round_trips() {
        let w: Vec<f32> = (0..6).map(|i| i as f32).collect(); // 2×3
        let mut wt = Vec::new();
        transpose_into(&w, 2, 3, &mut wt);
        assert_eq!(wt, vec![0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
    }

    #[test]
    fn matches_per_sample_bits_across_blocking_boundaries() {
        // dims straddle both MB (batch) and KC (reduction) boundaries, then
        // every masked column-tail width of the 8- and 16-lane kernels
        // against every row-tile remainder of their 8/4/1-row tiles
        let mut rng = StdRng::seed_from_u64(99);
        let mut shapes = vec![
            (1usize, 3usize, 2usize),
            (7, 300, 5),
            (9, 257, 64),
            (17, 64, 101),
        ];
        let odd = [1usize, 3, 7, 9, 15, 17, 31, 33, 101, 110];
        for (i, &out_dim) in odd.iter().enumerate() {
            for (j, &batch) in [1usize, 3, 5, 9].iter().enumerate() {
                shapes.push((batch, odd[(i + j) % odd.len()], out_dim));
            }
        }
        for (batch, in_dim, out_dim) in shapes {
            let x: Vec<f32> = (0..batch * in_dim)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            let w: Vec<f32> = (0..out_dim * in_dim)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            let bias: Vec<f32> = (0..out_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut wt = Vec::new();
            transpose_into(&w, out_dim, in_dim, &mut wt);
            let reference = per_sample_reference(&x, &w, &bias, batch, in_dim, out_dim);
            // every dispatch tier must reproduce the serial per-sample bits
            for backend in harl_simd::Backend::ALL
                .into_iter()
                .filter(|b| b.is_supported())
            {
                let prev = harl_simd::force_backend(Some(backend));
                let mut y = Vec::new();
                gemm_bias_into(&x, &wt, &bias, batch, in_dim, out_dim, &mut y);
                harl_simd::force_backend(prev);
                assert_eq!(y.len(), reference.len());
                for (i, (a, b)) in y.iter().zip(&reference).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{}: ({batch}×{in_dim}→{out_dim}) cell {i}: {a} vs {b}",
                        backend.name()
                    );
                }
            }
        }
    }

    #[test]
    fn batch_n_rows_equal_batch_1_calls() {
        let mut rng = StdRng::seed_from_u64(100);
        let (batch, in_dim, out_dim) = (13usize, 70usize, 33usize);
        let x: Vec<f32> = (0..batch * in_dim)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let w: Vec<f32> = (0..out_dim * in_dim)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let bias: Vec<f32> = (0..out_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut wt = Vec::new();
        transpose_into(&w, out_dim, in_dim, &mut wt);
        let mut y = Vec::new();
        gemm_bias_into(&x, &wt, &bias, batch, in_dim, out_dim, &mut y);
        for b in 0..batch {
            let mut row = Vec::new();
            gemm_bias_into(
                &x[b * in_dim..(b + 1) * in_dim],
                &wt,
                &bias,
                1,
                in_dim,
                out_dim,
                &mut row,
            );
            assert_eq!(
                row.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                y[b * out_dim..(b + 1) * out_dim]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "batch row {b} must equal its batch-1 twin"
            );
        }
    }
}
