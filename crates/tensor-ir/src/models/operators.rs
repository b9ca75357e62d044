//! The tensor-operator benchmark suite of §6.2 — exactly the shapes of
//! Table 6 (Appendix A.3), each class with 4 parameter sets, tested with
//! batch sizes 1 and 16.

use crate::{workload, Subgraph};

/// Operator classes of the paper's Figure 5/6 x-axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatorClass {
    /// Small GEMMs (Table 6 row 1).
    GemmS,
    /// Medium GEMMs.
    GemmM,
    /// Large GEMMs (the paper's hardest search spaces).
    GemmL,
    /// 1D convolutions.
    C1d,
    /// 2D convolutions.
    C2d,
    /// 3D convolutions.
    C3d,
    /// Transposed 2D convolutions.
    T2d,
}

impl OperatorClass {
    /// All seven classes in the paper's figure order.
    pub const ALL: [OperatorClass; 7] = [
        OperatorClass::GemmS,
        OperatorClass::GemmM,
        OperatorClass::GemmL,
        OperatorClass::C1d,
        OperatorClass::C2d,
        OperatorClass::C3d,
        OperatorClass::T2d,
    ];

    /// The class label used on the figures' x-axes.
    pub fn name(&self) -> &'static str {
        match self {
            OperatorClass::GemmS => "GEMM-S",
            OperatorClass::GemmM => "GEMM-M",
            OperatorClass::GemmL => "GEMM-L",
            OperatorClass::C1d => "C1D",
            OperatorClass::C2d => "C2D",
            OperatorClass::C3d => "C3D",
            OperatorClass::T2d => "T2D",
        }
    }
}

/// GEMM shape table (M, K, N) — Table 6.
pub const GEMM_S: [(u32, u32, u32); 4] = [
    (128, 128, 128),
    (128, 256, 128),
    (256, 256, 256),
    (512, 32, 512),
];
/// GEMM-M shape table (M, K, N) — Table 6.
pub const GEMM_M: [(u32, u32, u32); 4] = [
    (512, 512, 512),
    (128, 1536, 512),
    (128, 512, 1536),
    (256, 1024, 512),
];
/// GEMM-L shape table (M, K, N) — Table 6.
pub const GEMM_L: [(u32, u32, u32); 4] = [
    (1024, 1024, 1024),
    (128, 3072, 768),
    (128, 768, 3072),
    (256, 1536, 768),
];

/// C1D shape table (L, Ci, Co, K, stride, padding) — Table 6.
pub const C1D: [(u32, u32, u32, u32, u32, u32); 4] = [
    (256, 64, 128, 3, 2, 1),
    (128, 128, 256, 1, 2, 0),
    (64, 256, 256, 5, 1, 2),
    (32, 512, 512, 3, 1, 1),
];

/// C2D shape table (H, W, Ci, Co, K, stride, padding) — Table 6.
pub const C2D: [(u32, u32, u32, u32, u32, u32, u32); 4] = [
    (224, 224, 3, 64, 7, 2, 3),
    (56, 56, 64, 64, 1, 1, 0),
    (14, 14, 256, 256, 3, 1, 1),
    (7, 7, 512, 512, 3, 1, 1),
];

/// C3D shape table (D, H, W, Ci, Co, K, stride, padding) — Table 6.
#[allow(clippy::type_complexity)]
pub const C3D: [(u32, u32, u32, u32, u32, u32, u32, u32); 4] = [
    (16, 224, 224, 3, 64, 7, 2, 3),
    (16, 56, 56, 64, 64, 1, 1, 0),
    (16, 14, 14, 256, 256, 3, 1, 1),
    (16, 7, 7, 512, 512, 3, 1, 1),
];

/// T2D shape table (H, W, Ci, Co, K, stride, padding) — Table 6.
pub const T2D: [(u32, u32, u32, u32, u32, u32, u32); 4] = [
    (4, 4, 512, 256, 4, 2, 1),
    (8, 8, 256, 128, 4, 2, 1),
    (16, 16, 128, 64, 4, 2, 1),
    (32, 32, 64, 3, 4, 2, 1),
];

/// Builds the 4 test subgraphs of one operator class at a batch size.
/// Batched GEMMs become `batch_gemm`; convolutions take batch directly,
/// matching how Ansor's benchmark suite parameterizes them.
pub fn operator_suite(class: OperatorClass, batch: u32) -> Vec<Subgraph> {
    match class {
        OperatorClass::GemmS => gemm_suite(&GEMM_S, batch),
        OperatorClass::GemmM => gemm_suite(&GEMM_M, batch),
        OperatorClass::GemmL => gemm_suite(&GEMM_L, batch),
        OperatorClass::C1d => C1D
            .iter()
            .map(|&(l, ci, co, k, s, p)| workload::conv1d(batch, l, ci, co, k, s, p))
            .collect(),
        OperatorClass::C2d => C2D
            .iter()
            .map(|&(h, w, ci, co, k, s, p)| workload::conv2d(batch, h, w, ci, co, k, s, p))
            .collect(),
        OperatorClass::C3d => C3D
            .iter()
            .map(|&(d, h, w, ci, co, k, s, p)| workload::conv3d(batch, d, h, w, ci, co, k, s, p))
            .collect(),
        OperatorClass::T2d => T2D
            .iter()
            .map(|&(h, w, ci, co, k, s, p)| {
                workload::conv2d_transposed(batch, h, w, ci, co, k, s, p)
            })
            .collect(),
    }
}

fn gemm_suite(shapes: &[(u32, u32, u32)], batch: u32) -> Vec<Subgraph> {
    shapes
        .iter()
        .map(|&(m, k, n)| {
            if batch <= 1 {
                workload::gemm(m, k, n)
            } else {
                workload::batch_gemm(batch, m, k, n)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_class_has_four_shapes() {
        for class in OperatorClass::ALL {
            for batch in [1, 16] {
                let suite = operator_suite(class, batch);
                assert_eq!(suite.len(), 4, "{} batch {batch}", class.name());
                for g in &suite {
                    g.validate().unwrap_or_else(|e| panic!("{}: {e}", g.name));
                }
            }
        }
    }

    #[test]
    fn batch16_scales_flops() {
        for class in OperatorClass::ALL {
            let b1 = operator_suite(class, 1);
            let b16 = operator_suite(class, 16);
            for (a, b) in b1.iter().zip(&b16) {
                let ratio = b.flops() / a.flops();
                assert!(
                    (ratio - 16.0).abs() < 0.01,
                    "{}: flops ratio {ratio}",
                    a.name
                );
            }
        }
    }

    #[test]
    fn gemm_l_is_biggest_gemm() {
        let s: f64 = operator_suite(OperatorClass::GemmS, 1)
            .iter()
            .map(|g| g.flops())
            .sum();
        let m: f64 = operator_suite(OperatorClass::GemmM, 1)
            .iter()
            .map(|g| g.flops())
            .sum();
        let l: f64 = operator_suite(OperatorClass::GemmL, 1)
            .iter()
            .map(|g| g.flops())
            .sum();
        assert!(s < m && m < l);
    }

    #[test]
    fn names_are_distinct() {
        use std::collections::HashSet;
        for class in OperatorClass::ALL {
            let names: HashSet<String> = operator_suite(class, 1)
                .iter()
                .map(|g| g.name.clone())
                .collect();
            assert_eq!(names.len(), 4);
        }
    }
}
