//! # harl-repro
//!
//! A from-scratch Rust reproduction of **HARL: Hierarchical Adaptive
//! Reinforcement Learning Based Auto Scheduler for Neural Networks**
//! (Zhang, He, Zhang — ICPP 2022).
//!
//! This facade crate re-exports the whole stack:
//!
//! * [`ir`] — tensor-program IR: subgraphs, sketches (Table 2 rules),
//!   schedules, the Table 3 action space, feature extraction.
//! * [`sim`] — analytical CPU/GPU performance models + the measurer with
//!   simulated search-time accounting (substitutes for the paper's
//!   Xeon 6226R / RTX 3090 testbed).
//! * [`gbt`] — XGBoost-lite cost model.
//! * [`nnet`] — from-scratch MLP + PPO actor-critic.
//! * [`bandit`] — SW-UCB and baseline bandit policies.
//! * [`ansor`] — the Ansor baseline (evolutionary search, gradient task
//!   scheduler) and the Flextensor-like fixed-length RL tuner.
//! * [`harl`] — the paper's system: hierarchical MABs + PPO parameter
//!   search + adaptive stopping — plus the unified [`harl::TuningSession`]
//!   API that drives any tuner with record persistence, checkpoint/resume,
//!   and warm-starting.
//! * [`store`] — the append-only JSONL record store backing sessions:
//!   every hardware measurement and the latest session checkpoint.
//! * [`serve`] — the tuning service: a TCP daemon with a priority job
//!   queue, worker pool, per-job persistent sessions, and cross-job
//!   warm-starting, plus the `harl-serve` / `harl-cli` binaries.
//! * [`models`] — BERT / ResNet-50 / MobileNet-V2 workloads and the
//!   Table 6 operator suite.
//! * [`verify`] — the schedule lint framework (V001–V006): structured
//!   diagnostics over tensor programs, consumed by every tuner to reject
//!   illegal candidates before cost-model scoring.
//!
//! ## Quickstart
//!
//! ```
//! use harl_repro::prelude::*;
//!
//! // tune a small GEMM with HARL on the simulated CPU
//! let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
//! let gemm = harl_repro::ir::workload::gemm(128, 128, 128);
//! let mut tuner = HarlOperatorTuner::new(gemm, &measurer, HarlConfig::tiny());
//! tuner.tune(16);
//! assert!(tuner.best_time.is_finite());
//! ```

pub mod envopts;

pub use harl_bandit as bandit;
pub use harl_core as harl;
pub use harl_core::{ansor, mcts};
pub use harl_gbt as gbt;
pub use harl_nn_models as models;
pub use harl_nnet as nnet;
pub use harl_obs as obs;
pub use harl_serve as serve;
pub use harl_store as store;
pub use harl_tensor_ir as ir;
pub use harl_tensor_sim as sim;
pub use harl_verify as verify;

/// The most commonly used types, one import away.
pub mod prelude {
    pub use harl_core::ansor::{AnsorConfig, AnsorTuner, FlextensorTuner};
    pub use harl_core::mcts::{CdConfig, CdTuner, FinetuneConfig, MctsConfig, MctsTuner};
    pub use harl_core::{
        AnsorNetworkTuner, HarlConfig, HarlNetworkTuner, HarlOperatorTuner, ParallelismOpts, Tuner,
        TunerState, TuningSession,
    };
    pub use harl_nn_models::{operator_suite, Network, OperatorClass};
    pub use harl_store::{MeasureRecord, RecordStore};
    pub use harl_tensor_ir::{generate_sketches, Schedule, Sketch, Subgraph, Target};
    pub use harl_tensor_sim::{ConfigError, Hardware, MeasureConfig, Measurer, TuneTrace};
    pub use harl_verify::{Analyzer, Diagnostic, LintCode, LintStats, Severity};
}
