//! BERT-base workload: the 10 distinct subgraphs of Table 4 with their
//! appearance weights `w_n`.
//!
//! Configuration: hidden 768, 12 heads (64 per head), FFN 3072, sequence
//! length 128, 12 encoder layers, plus the pooler. Weight = number of times
//! the subgraph appears across the network (`f(S) ≈ Σ w_n g_n`, §2.2).

use crate::{workload, Subgraph};

/// BERT-base structural constants.
/// Hidden (model) dimension.
pub const HIDDEN: u32 = 768;
/// Attention heads.
pub const HEADS: u32 = 12;
/// Per-head dimension.
pub const HEAD_DIM: u32 = 64;
/// Feed-forward inner dimension.
pub const FFN: u32 = 3072;
/// Sequence length used in the evaluation.
pub const SEQ: u32 = 128;
/// Encoder layers (= the appearance weight of per-layer subgraphs).
pub const LAYERS: f64 = 12.0;

/// Builds the 10 distinct BERT subgraphs at a batch size. Names match the
/// rows of Table 4.
pub fn bert(batch: u32) -> Vec<Subgraph> {
    let rows = batch * SEQ; // token dimension of the fused-batch GEMMs
    let mut out = Vec::with_capacity(10);

    // GEMM-I: fused QKV projection [rows, 768] × [768, 2304]
    let mut g = workload::gemm(rows, HIDDEN, 3 * HIDDEN);
    g.name = "GEMM-I".into();
    g.weight = LAYERS;
    out.push(g);

    // GEMM-II: attention output projection [rows, 768] × [768, 768]
    let mut g = workload::gemm(rows, HIDDEN, HIDDEN);
    g.name = "GEMM-II".into();
    g.weight = LAYERS;
    out.push(g);

    // GEMM-III: FFN up projection [rows, 768] × [768, 3072]
    let mut g = workload::gemm(rows, HIDDEN, FFN);
    g.name = "GEMM-III".into();
    g.weight = LAYERS;
    out.push(g);

    // GEMM-IV: FFN down projection [rows, 3072] × [3072, 768]
    let mut g = workload::gemm(rows, FFN, HIDDEN);
    g.name = "GEMM-IV".into();
    g.weight = LAYERS;
    out.push(g);

    // Softmax over attention scores: (batch·heads·seq) rows of length seq
    let mut g = workload::softmax(batch * HEADS * SEQ, SEQ);
    g.name = "Softmax".into();
    g.weight = LAYERS;
    out.push(g);

    // Batch_GEMM-I: Q·Kᵀ — batch·heads batched [seq, 64] × [64, seq]
    let mut g = workload::batch_gemm(batch * HEADS, SEQ, HEAD_DIM, SEQ);
    g.name = "Batch_GEMM-I".into();
    g.weight = LAYERS;
    out.push(g);

    // Batch_GEMM-II: scores·V — batched [seq, seq] × [seq, 64]
    let mut g = workload::batch_gemm(batch * HEADS, SEQ, SEQ, HEAD_DIM);
    g.name = "Batch_GEMM-II".into();
    g.weight = LAYERS;
    out.push(g);

    // Element-wise-I: residual add + layer-norm after attention
    let mut g = workload::elementwise(rows, HIDDEN, 6.0);
    g.name = "Element-wise-I".into();
    g.weight = LAYERS;
    out.push(g);

    // Element-wise-II: GELU inside the FFN (wider tensor)
    let mut g = workload::elementwise(rows, FFN, 8.0);
    g.name = "Element-wise-II".into();
    g.weight = LAYERS;
    out.push(g);

    // GEMM+Tanh: the pooler head (appears once)
    let mut g = workload::gemm_epilogue(batch, HIDDEN, HIDDEN, "tanh", 8.0);
    g.name = "GEMM+Tanh".into();
    g.weight = 1.0;
    out.push(g);

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bert_has_ten_distinct_subgraphs() {
        // §4.1: "in a BERT model, the number of distinct subgraphs is 10"
        let b = bert(1);
        assert_eq!(b.len(), 10);
        let names: std::collections::HashSet<&str> = b.iter().map(|g| g.name.as_str()).collect();
        assert_eq!(names.len(), 10);
        for g in &b {
            g.validate().unwrap_or_else(|e| panic!("{}: {e}", g.name));
        }
    }

    #[test]
    fn gemms_dominate_flops() {
        // Table 4: the four GEMMs contribute ~82% of execution time; in
        // FLOP terms they dominate even more.
        let b = bert(1);
        let total: f64 = b.iter().map(|g| g.weight * g.flops()).sum();
        let gemms: f64 = b
            .iter()
            .filter(|g| g.name.starts_with("GEMM-"))
            .map(|g| g.weight * g.flops())
            .sum();
        assert!(gemms / total > 0.8, "GEMM share {}", gemms / total);
    }

    #[test]
    fn batch_gemm_flops_are_small_fraction_of_gemm() {
        // §6.3: batch GEMMs have magnitudes-smaller FLOP counts than the
        // projection GEMMs.
        let b = bert(1);
        let gemm1 = b.iter().find(|g| g.name == "GEMM-I").unwrap().flops();
        let bg = b.iter().find(|g| g.name == "Batch_GEMM-I").unwrap().flops();
        assert!(bg < gemm1 / 5.0);
    }

    #[test]
    fn batch_scales_everything() {
        let b1 = bert(1);
        let b16 = bert(16);
        for (a, b) in b1.iter().zip(&b16) {
            assert!(b.flops() > 10.0 * a.flops(), "{} did not scale", a.name);
        }
    }
}
