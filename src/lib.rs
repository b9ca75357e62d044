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
//!   warm-starting; this package's `harl-serve` / `harl-cli` binaries
//!   drive it.
//! * [`models`] — BERT / ResNet-50 / MobileNet-V2 workloads and the
//!   Table 6 operator suite.
//! * [`verify`] — the schedule lint framework (V001–V006): structured
//!   diagnostics over tensor programs, consumed by every tuner to reject
//!   illegal candidates before cost-model scoring.
//! * [`cli`] — the command line of every program: the binaries under
//!   `src/bin/`, `experiments` and the examples, one grammar for all.
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

pub mod cli;

pub use harl_core as harl;
pub use harl_core::{ansor, bandit, mcts};
pub use harl_gbt as gbt;
pub use harl_nnet as nnet;
pub use harl_obs as obs;
pub use harl_serve as serve;
pub use harl_store as store;
pub use harl_tensor_ir as ir;
pub use harl_tensor_ir::models;
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
    pub use harl_store::{MeasureRecord, RecordStore};
    pub use harl_tensor_ir::models::{operator_suite, Network, OperatorClass};
    pub use harl_tensor_ir::{generate_sketches, Schedule, Sketch, Subgraph, Target};
    pub use harl_tensor_sim::{ConfigError, Hardware, MeasureConfig, Measurer, TuneTrace};
    pub use harl_verify::{Analyzer, Diagnostic, LintCode, LintStats, Severity};
}

/// The quickstart's record store and target latency, once two environment
/// hooks read by a module of this name and now its `--store DIR` and
/// `--target-ms MS` flags, read by [`cli::QUICKSTART`]. A blank or
/// malformed value must abort the run: a silently ignored `--target-ms 0,5`
/// would make a warm-start check pass or fail for the wrong reason.
#[cfg(test)]
mod envopts {
    mod tests {
        use std::path::PathBuf;

        use crate::cli::{Quickstart, QUICKSTART};

        fn quickstart(list: &[&str]) -> Result<Quickstart, String> {
            let args: Vec<String> = list.iter().map(|a| a.to_string()).collect();
            QUICKSTART.parse(&args)
        }

        #[test]
        fn store_dir_accepts_unset_and_paths() {
            assert_eq!(quickstart(&[]).unwrap().store, None);
            assert_eq!(
                quickstart(&["--store", "/tmp/x"]).unwrap().store,
                Some(PathBuf::from("/tmp/x"))
            );
        }

        #[test]
        fn store_dir_rejects_empty() {
            for bad in ["", "   "] {
                let err = quickstart(&["--store", bad]).unwrap_err();
                assert!(
                    err.contains("--store needs a value, got a blank"),
                    "`{bad}`: {err}"
                );
            }
            let err = quickstart(&["--store", "a", "--store", "b"]).unwrap_err();
            assert!(err.contains("--store given twice"), "{err}");
        }

        #[test]
        fn target_ms_accepts_unset_and_positive_numbers() {
            assert_eq!(quickstart(&[]).unwrap().target_ms, None);
            for (ms, want) in [("1.5", 1.5), ("42", 42.0), ("0.123456789", 0.123456789)] {
                assert_eq!(
                    quickstart(&["--target-ms", ms]).unwrap().target_ms,
                    Some(want),
                    "{ms}"
                );
            }
        }

        #[test]
        fn target_ms_rejects_malformed_values() {
            for bad in ["", "  "] {
                let err = quickstart(&["--target-ms", bad]).unwrap_err();
                assert!(
                    err.contains("--target-ms needs a value, got a blank"),
                    "`{bad}`: {err}"
                );
            }
            // A value is taken as given: " 42 " is not trimmed into 42.
            for bad in [" 42 ", "abc", "0,5", "1.5ms", "NaN", "inf", "-1", "0"] {
                let err = quickstart(&["--target-ms", bad]).unwrap_err();
                assert!(
                    err.contains("--target-ms must be a finite number > 0"),
                    "`{bad}`: {err}"
                );
            }
            let err = quickstart(&["--target-ms"]).unwrap_err();
            assert!(err.contains("--target-ms needs a value"), "{err}");
            let err = quickstart(&["dir"]).unwrap_err();
            assert!(err.contains("unexpected argument `dir`"), "{err}");
        }
    }
}
