//! The evaluation workloads of §6, built from the [`workload`](crate::workload)
//! constructors: the Table 6 tensor-operator suite (GEMM-S/M/L, C1D, C2D,
//! C3D, T2D with 4 parameter sets each) and the end-to-end networks — BERT
//! (10 distinct subgraphs, Table 4), ResNet-50 (24 distinct subgraphs) and
//! MobileNet-V2 — expressed as weighted subgraph lists `{(w_n, subgraph_n)}`
//! for the task schedulers.

pub mod bert;
pub mod mobilenet;
pub mod operators;
pub mod resnet;

pub use bert::bert;
pub use mobilenet::mobilenet_v2;
pub use operators::{operator_suite, OperatorClass};
pub use resnet::resnet50;

/// The three end-to-end networks of §6.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Network {
    /// ResNet-50 (24 distinct subgraphs).
    ResNet50,
    /// MobileNet-V2 (inverted-residual blocks).
    MobileNetV2,
    /// BERT-base (10 distinct subgraphs, Table 4).
    Bert,
}

impl Network {
    /// The three networks of §6.3.
    pub const ALL: [Network; 3] = [Network::ResNet50, Network::MobileNetV2, Network::Bert];

    /// Display name used in the figures.
    pub fn name(&self) -> &'static str {
        match self {
            Network::ResNet50 => "ResNet50",
            Network::MobileNetV2 => "MobileNet-V2",
            Network::Bert => "BERT",
        }
    }

    /// Builds the network's weighted subgraph list at a batch size.
    pub fn subgraphs(&self, batch: u32) -> Vec<crate::Subgraph> {
        match self {
            Network::ResNet50 => resnet50(batch),
            Network::MobileNetV2 => mobilenet_v2(batch),
            Network::Bert => bert(batch),
        }
    }

    /// The measurement-trial budget the paper allocates per network (§6.3):
    /// 12,000 for BERT, 22,000 for ResNet-50, 16,000 for MobileNet-V2.
    pub fn paper_trials(&self) -> u64 {
        match self {
            Network::ResNet50 => 22_000,
            Network::MobileNetV2 => 16_000,
            Network::Bert => 12_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_networks_build_and_validate() {
        for net in Network::ALL {
            for batch in [1, 16] {
                let subs = net.subgraphs(batch);
                assert!(!subs.is_empty());
                for g in &subs {
                    g.validate()
                        .unwrap_or_else(|e| panic!("{} {}: {e}", net.name(), g.name));
                }
            }
        }
    }

    #[test]
    fn paper_trial_budgets() {
        assert_eq!(Network::Bert.paper_trials(), 12_000);
        assert_eq!(Network::ResNet50.paper_trials(), 22_000);
        assert_eq!(Network::MobileNetV2.paper_trials(), 16_000);
    }
}
