//! MobileNet-V2 workload: inverted-residual blocks (1×1 expand → 3×3
//! depthwise → 1×1 project) plus stem and head convolutions, with
//! appearance weights from the standard `(t, c, n, s)` table of Sandler et
//! al. 2018.

use crate::{workload, Subgraph};

/// One distinct conv shape with its appearance count.
struct Conv {
    h: u32,
    ci: u32,
    co: u32,
    k: u32,
    stride: u32,
    depthwise: bool,
    weight: f64,
}

/// The standard MobileNet-V2 configuration: `(expansion t, channels c,
/// repeats n, first-stride s)` at 224×224 input.
const BLOCKS: [(u32, u32, u32, u32); 7] = [
    (1, 16, 1, 1),
    (6, 24, 2, 2),
    (6, 32, 3, 2),
    (6, 64, 4, 2),
    (6, 96, 3, 1),
    (6, 160, 3, 2),
    (6, 320, 1, 1),
];

fn block_convs() -> Vec<Conv> {
    let mut convs = Vec::new();
    // stem: 3×3 stride-2, 3→32 @224
    convs.push(Conv {
        h: 224,
        ci: 3,
        co: 32,
        k: 3,
        stride: 2,
        depthwise: false,
        weight: 1.0,
    });

    let mut c_in = 32u32;
    let mut h = 112u32;
    for &(t, c, n, s) in &BLOCKS {
        for rep in 0..n {
            let stride = if rep == 0 { s } else { 1 };
            let expanded = c_in * t;
            if t != 1 {
                // expand 1×1 at the input resolution
                convs.push(Conv {
                    h,
                    ci: c_in,
                    co: expanded,
                    k: 1,
                    stride: 1,
                    depthwise: false,
                    weight: 1.0,
                });
            }
            // depthwise 3×3 (possibly strided)
            convs.push(Conv {
                h,
                ci: expanded,
                co: expanded,
                k: 3,
                stride,
                depthwise: true,
                weight: 1.0,
            });
            let h_out = if stride == 2 { h / 2 } else { h };
            // project 1×1 at the output resolution
            convs.push(Conv {
                h: h_out,
                ci: expanded,
                co: c,
                k: 1,
                stride: 1,
                depthwise: false,
                weight: 1.0,
            });
            h = h_out;
            c_in = c;
        }
    }
    // head: 1×1 320→1280 @7
    convs.push(Conv {
        h: 7,
        ci: 320,
        co: 1280,
        k: 1,
        stride: 1,
        depthwise: false,
        weight: 1.0,
    });
    convs
}

/// Builds the distinct MobileNet-V2 subgraphs at a batch size, merging
/// repeated shapes into appearance weights.
pub fn mobilenet_v2(batch: u32) -> Vec<Subgraph> {
    let mut merged: Vec<Conv> = Vec::new();
    for c in block_convs() {
        if let Some(m) = merged.iter_mut().find(|m| {
            m.h == c.h
                && m.ci == c.ci
                && m.co == c.co
                && m.k == c.k
                && m.stride == c.stride
                && m.depthwise == c.depthwise
        }) {
            m.weight += c.weight;
        } else {
            merged.push(c);
        }
    }

    let mut out: Vec<Subgraph> = merged
        .into_iter()
        .map(|c| {
            let pad = if c.k == 3 { 1 } else { 0 };
            let mut g = if c.depthwise {
                workload::depthwise_conv2d(batch, c.h, c.h, c.ci, c.k, c.stride, pad)
            } else {
                workload::conv2d_bn_relu(batch, c.h, c.h, c.ci, c.co, c.k, c.stride, pad)
            };
            g.weight = c.weight;
            g
        })
        .collect();

    // classifier: [batch, 1280] × [1280, 1000]
    let mut fc = workload::gemm(batch.max(1), 1280, 1000);
    fc.name = "FC-1280x1000".into();
    fc.weight = 1.0;
    out.push(fc);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subgraphs_validate_and_are_distinct() {
        let m = mobilenet_v2(1);
        assert!(
            m.len() >= 20,
            "MobileNet-V2 has many distinct blocks, got {}",
            m.len()
        );
        let names: std::collections::HashSet<&str> = m.iter().map(|g| g.name.as_str()).collect();
        assert_eq!(
            names.len(),
            m.len(),
            "duplicate subgraph names after merging"
        );
        for g in &m {
            g.validate().unwrap_or_else(|e| panic!("{}: {e}", g.name));
        }
    }

    #[test]
    fn total_weight_counts_52_convs() {
        // stem + head + 17 blocks × (2 or 3 convs) + FC:
        // blocks with t=1: 2 convs (1 block); t=6: 3 convs (16 blocks)
        // = 1 + 1 + 2 + 48 + 1 = 53 subgraph instances.
        let total: f64 = mobilenet_v2(1).iter().map(|g| g.weight).sum();
        assert_eq!(total as u32, 53);
    }

    #[test]
    fn flops_much_smaller_than_resnet() {
        // MobileNet-V2 ≈ 0.6 GFLOPs vs ResNet-50 ≈ 8 GFLOPs
        let m: f64 = mobilenet_v2(1).iter().map(|g| g.weight * g.flops()).sum();
        let r: f64 = crate::models::resnet::resnet50(1)
            .iter()
            .map(|g| g.weight * g.flops())
            .sum();
        assert!(m < r / 5.0, "mobilenet {m:.3e} vs resnet {r:.3e}");
    }

    #[test]
    fn contains_depthwise_convolutions() {
        let m = mobilenet_v2(1);
        assert!(m.iter().any(|g| g.name.starts_with("DW2D")));
    }
}
