//! ResNet-50 workload: 24 distinct subgraphs (conv+bn+relu blocks and the
//! classifier GEMM) with appearance weights — matching §4.1's "the number
//! of distinct subgraphs of ResNet-50 is 24".

use crate::{workload, Subgraph};

/// Distinct convolution shapes of ResNet-50:
/// `(H, W, Ci, Co, K, stride, pad, weight)`.
#[allow(clippy::type_complexity)]
const CONVS: [(u32, u32, u32, u32, u32, u32, u32, f64); 23] = [
    // stem
    (224, 224, 3, 64, 7, 2, 3, 1.0),
    // stage 1 (56×56, bottleneck 64/256); the stride-1 projection
    // shortcut shares the 64→256 1×1 shape, hence its weight of 4
    (56, 56, 64, 64, 1, 1, 0, 1.0),
    (56, 56, 64, 64, 3, 1, 1, 3.0),
    (56, 56, 64, 256, 1, 1, 0, 4.0),
    (56, 56, 256, 64, 1, 1, 0, 2.0),
    // stage 2 (28×28, bottleneck 128/512)
    (56, 56, 256, 128, 1, 1, 0, 1.0),
    (56, 56, 128, 128, 3, 2, 1, 1.0),
    (28, 28, 128, 512, 1, 1, 0, 4.0),
    (28, 28, 512, 128, 1, 1, 0, 3.0),
    (28, 28, 128, 128, 3, 1, 1, 3.0),
    (56, 56, 256, 512, 1, 2, 0, 1.0), // projection shortcut
    // stage 3 (14×14, bottleneck 256/1024)
    (28, 28, 512, 256, 1, 1, 0, 1.0),
    (28, 28, 256, 256, 3, 2, 1, 1.0),
    (14, 14, 256, 1024, 1, 1, 0, 6.0),
    (14, 14, 1024, 256, 1, 1, 0, 5.0),
    (14, 14, 256, 256, 3, 1, 1, 5.0),
    (28, 28, 512, 1024, 1, 2, 0, 1.0), // projection shortcut
    // stage 4 (7×7, bottleneck 512/2048)
    (14, 14, 1024, 512, 1, 1, 0, 1.0),
    (14, 14, 512, 512, 3, 2, 1, 1.0),
    (7, 7, 512, 2048, 1, 1, 0, 3.0),
    (7, 7, 2048, 512, 1, 1, 0, 2.0),
    (7, 7, 512, 512, 3, 1, 1, 2.0),
    (14, 14, 1024, 2048, 1, 2, 0, 1.0), // projection shortcut
];

/// Builds the 24 distinct ResNet-50 subgraphs at a batch size
/// (23 conv+bn+relu blocks + the final classifier GEMM).
pub fn resnet50(batch: u32) -> Vec<Subgraph> {
    let mut out: Vec<Subgraph> = CONVS
        .iter()
        .map(|&(h, w, ci, co, k, s, p, weight)| {
            let mut g = workload::conv2d_bn_relu(batch, h, w, ci, co, k, s, p);
            g.weight = weight;
            g
        })
        .collect();
    // classifier: [batch, 2048] × [2048, 1000]
    let mut fc = workload::gemm(batch.max(1), 2048, 1000);
    fc.name = "FC-2048x1000".into();
    fc.weight = 1.0;
    out.push(fc);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet50_has_24_distinct_subgraphs() {
        // §4.1: "that of ResNet-50 is 24"
        let r = resnet50(1);
        assert_eq!(r.len(), 24);
        let names: std::collections::HashSet<&str> = r.iter().map(|g| g.name.as_str()).collect();
        assert_eq!(names.len(), 24);
        for g in &r {
            g.validate().unwrap_or_else(|e| panic!("{}: {e}", g.name));
        }
    }

    #[test]
    fn block_weights_count_50_layers() {
        // 1 stem + 16 bottleneck blocks × 3 convs + 4 shortcuts + 1 FC;
        // the conv weights must sum to 1 + 48 + 4 = 53.
        let total: f64 = resnet50(1)
            .iter()
            .filter(|g| g.name.starts_with("C2D"))
            .map(|g| g.weight)
            .sum();
        assert_eq!(total as u32, 53);
    }

    #[test]
    fn weighted_flops_in_resnet50_range() {
        // ResNet-50 forward pass ≈ 3.8–4.1 GFLOPs (multiply–add counted
        // as 2 FLOPs, batch 1).
        let r = resnet50(1);
        let total: f64 = r.iter().map(|g| g.weight * g.flops()).sum();
        assert!(
            (6e9..10e9).contains(&total),
            "total weighted flops {total:.3e} (conv+bn+relu counts epilogues too)"
        );
    }
}
