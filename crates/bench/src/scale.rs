//! Experiment scaling: paper-scale settings vs. fast defaults.
//!
//! The paper runs 1000 measurement trials per operator and 12k–22k per
//! network on a real testbed. Our simulator makes each trial cheap, but the
//! cost model / RL training still dominates wall-clock, so the default
//! scale trims trial counts and shape counts while keeping every algorithm
//! identical. `--paper` restores the published scale.

use harl_core::ansor::{AnsorConfig, EvoConfig};
use harl_core::HarlConfig;
use harl_gbt::GbtParams;

/// Scale knobs shared by all experiments.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Trials per tensor-operator tuning run (paper: 1000).
    pub op_trials: u64,
    /// Shapes per operator class (paper: 4 — Table 6).
    pub shapes_per_class: usize,
    /// Batch sizes (paper: 1 and 16).
    pub batches: Vec<u32>,
    /// Trials per network run; `None` uses the paper's per-network budget.
    pub net_trials: Option<u64>,
    /// When `net_trials` is `None` and this is set, the budget is
    /// `tasks × net_trials_per_task` (keeps fast runs meaningful for
    /// networks with many subgraphs).
    pub net_trials_per_task: Option<u64>,
    /// Programs sampled for Fig. 1(b) (paper: 200).
    pub fig1b_programs: usize,
    /// Mutations per program for Fig. 1(b) (paper: 20).
    pub fig1b_mutations: usize,
    /// Measurement candidates per round for both schedulers.
    pub measure_per_round: usize,
    /// Whether this is the paper-scale configuration.
    pub paper: bool,
    pub seed: u64,
}

impl Scale {
    pub fn fast() -> Self {
        Scale {
            op_trials: 192,
            shapes_per_class: 2,
            batches: vec![1],
            net_trials: None,
            net_trials_per_task: Some(96),
            fig1b_programs: 60,
            fig1b_mutations: 20,
            measure_per_round: 16,
            paper: false,
            seed: 2026,
        }
    }

    /// Minimal scale for unit tests (tiny algorithm configs, few trials).
    pub fn tiny() -> Self {
        Scale {
            op_trials: 48,
            shapes_per_class: 1,
            batches: vec![1],
            net_trials: Some(200),
            net_trials_per_task: None,
            fig1b_programs: 10,
            fig1b_mutations: 5,
            measure_per_round: 8,
            paper: false,
            seed: 2026,
        }
    }

    pub fn paper() -> Self {
        Scale {
            op_trials: 1000,
            shapes_per_class: 4,
            batches: vec![1, 16],
            net_trials: None,
            net_trials_per_task: None,
            fig1b_programs: 200,
            fig1b_mutations: 20,
            measure_per_round: 64,
            paper: true,
            seed: 2026,
        }
    }

    /// Ansor configuration at this scale.
    pub fn ansor_config(&self) -> AnsorConfig {
        if self.paper {
            AnsorConfig {
                seed: self.seed,
                ..Default::default()
            }
        } else {
            AnsorConfig {
                measure_per_round: self.measure_per_round,
                evo: EvoConfig {
                    population: 128,
                    generations: 3,
                },
                gbt: GbtParams {
                    n_rounds: 12,
                    ..Default::default()
                },
                seed: self.seed,
            }
        }
    }

    /// HARL configuration at this scale.
    pub fn harl_config(&self) -> HarlConfig {
        if self.paper {
            HarlConfig {
                seed: self.seed,
                ..HarlConfig::paper()
            }
        } else if self.measure_per_round <= 8 {
            HarlConfig {
                measure_per_round: self.measure_per_round,
                seed: self.seed,
                ..HarlConfig::tiny()
            }
        } else {
            HarlConfig {
                measure_per_round: self.measure_per_round,
                seed: self.seed,
                ..HarlConfig::fast()
            }
        }
    }

    /// Trial budget for a network run.
    pub fn net_budget(&self, net: harl_tensor_ir::models::Network) -> u64 {
        if let Some(n) = self.net_trials {
            return n;
        }
        if let Some(per_task) = self.net_trials_per_task {
            return per_task * net.subgraphs(1).len() as u64;
        }
        net.paper_trials()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_section6() {
        let s = Scale::paper();
        assert_eq!(s.op_trials, 1000);
        assert_eq!(s.shapes_per_class, 4);
        assert_eq!(s.batches, vec![1, 16]);
        assert_eq!(s.net_budget(harl_tensor_ir::models::Network::Bert), 12_000);
        assert_eq!(s.measure_per_round, 64);
    }

    #[test]
    fn every_scale_builds_configs_the_searchers_accept() {
        for s in [Scale::paper(), Scale::fast(), Scale::tiny()] {
            s.harl_config().validate().unwrap();
            s.ansor_config().validate().unwrap();
        }
    }

    #[test]
    fn fast_scale_is_smaller() {
        let f = Scale::fast();
        let p = Scale::paper();
        assert!(f.op_trials < p.op_trials);
        assert!(f.net_budget(harl_tensor_ir::models::Network::Bert) < 12_000);
        // per-task scaling: ResNet-50 (24 tasks) gets a larger fast budget
        // than BERT (10 tasks)
        assert!(
            f.net_budget(harl_tensor_ir::models::Network::ResNet50)
                > f.net_budget(harl_tensor_ir::models::Network::Bert)
        );
    }
}
