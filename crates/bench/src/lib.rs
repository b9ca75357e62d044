//! # harl-bench
//!
//! The experiment harness: one function per figure/table of the paper's
//! evaluation (§2.2 Observations, §6.2 operators, §6.3 networks, Appendix
//! A.4 sensitivity), plus the five-searcher tournament, each returning
//! serializable results with a text renderer. The `experiments` binary
//! reads its arguments with `harl_repro::cli::EXPERIMENTS` and dispatches
//! them; DESIGN.md maps each experiment to its implementing modules.

pub mod ablation;
pub mod fig1;
pub mod networks;
pub mod operators;
pub mod report;
pub mod scale;
pub mod tournament;

pub use report::{geomean, save_json, Table};
pub use scale::Scale;
