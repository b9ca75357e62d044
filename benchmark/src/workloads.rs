//! The four workloads: which searcher tunes which task in each leg, with
//! the trial budgets and targets committed in `workloads.json`.

use serde::Deserialize;

use harl_repro::serve::WorkloadSpec;

use crate::search::{Leg, Searcher, Task};

const WORKLOADS_JSON: &str = include_str!("../workloads.json");
const EXPECTED_JSON: &str = include_str!("../expected.json");

#[derive(Debug, Deserialize)]
struct LegBudget {
    name: String,
    trials: u64,
    target_ms: f64,
}

#[derive(Debug, Deserialize)]
struct WorkloadBudget {
    name: String,
    legs: Vec<LegBudget>,
}

#[derive(Debug, Deserialize)]
struct Budgets {
    /// Common factor applied once to the trial budgets the issue sized, so
    /// that all of the driver's runs fit its time cap.
    scale: f64,
    workloads: Vec<WorkloadBudget>,
}

#[derive(Debug, Deserialize)]
struct ExpectedWorkload {
    name: String,
    digests: Vec<String>,
}

#[derive(Debug, Deserialize)]
struct Expected {
    workloads: Vec<ExpectedWorkload>,
}

/// Searcher and task of every leg, in run order.
fn shape(workload: &str) -> Vec<(&'static str, Searcher, Task)> {
    let gemm = |m, k, n| Task::Spec(WorkloadSpec::Gemm { m, k, n });
    match workload {
        "op_search" => vec![
            ("harl-fast/gemm-1024", Searcher::HarlFast, Task::Gemm1024),
            ("harl-paper/c2d-0", Searcher::HarlPaper, Task::C2d0),
        ],
        "net_search" => vec![("harl-net/bert", Searcher::HarlNet, Task::Bert)],
        "baseline_search" => vec![
            ("ansor/gemm-1024", Searcher::Ansor, Task::Gemm1024),
            ("ansor/c2d-0", Searcher::Ansor, Task::C2d0),
            ("mcts/gemm-1024", Searcher::Mcts, Task::Gemm1024),
            ("mcts/c2d-0", Searcher::Mcts, Task::C2d0),
        ],
        // the warm job repeats the cold job's shape: pool records of any
        // other extent fail `Schedule::validate` and warm-start nothing.
        // The resumed job is a softmax, so the GEMM records in the pool
        // cannot warm-start it and its reference is a plain in-process run;
        // it is small because restoring a checkpoint is slow (see README)
        "served_jobs" => vec![
            ("cold/gemm-1024", Searcher::HarlFast, gemm(1024, 1024, 1024)),
            ("warm/gemm-1024", Searcher::HarlFast, gemm(1024, 1024, 1024)),
            (
                "resumed/softmax-1536x128",
                Searcher::HarlFast,
                Task::Spec(WorkloadSpec::Softmax {
                    rows: 1536,
                    cols: 128,
                }),
            ),
        ],
        _ => Vec::new(),
    }
}

/// The legs of `workload` with their committed budgets; `None` for a name
/// that is not a workload.
pub fn legs(workload: &str) -> Option<Vec<Leg>> {
    let budgets: Budgets = serde_json::from_str(WORKLOADS_JSON).expect("workloads.json parses");
    let budget = budgets.workloads.iter().find(|w| w.name == workload)?;
    let legs: Vec<Leg> = shape(workload)
        .into_iter()
        .zip(&budget.legs)
        .map(|((name, searcher, task), b)| {
            assert_eq!(
                name, b.name,
                "workloads.json leg order differs from the code"
            );
            Leg {
                name: name.to_string(),
                searcher,
                task,
                trials: b.trials,
                target_ms: b.target_ms,
            }
        })
        .collect();
    assert_eq!(
        legs.len(),
        budget.legs.len(),
        "workloads.json has extra legs"
    );
    Some(legs)
}

/// The common budget factor, for the environment block.
pub fn scale() -> f64 {
    serde_json::from_str::<Budgets>(WORKLOADS_JSON)
        .expect("workloads.json parses")
        .scale
}

/// Per-leg digests recorded on the commit that introduced the benchmark.
pub fn expected_digests(workload: &str) -> Option<Vec<String>> {
    let expected: Expected = serde_json::from_str(EXPECTED_JSON).expect("expected.json parses");
    expected
        .workloads
        .into_iter()
        .find(|w| w.name == workload)
        .map(|w| w.digests)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WORKLOADS;

    #[test]
    fn every_workload_has_budgeted_legs_on_whole_rounds() {
        for w in WORKLOADS {
            let legs = legs(w).unwrap_or_else(|| panic!("{w} missing from workloads.json"));
            assert!(!legs.is_empty());
            for leg in &legs {
                assert!(leg.trials >= leg.round_size(), "{}", leg.name);
                assert_eq!(leg.trials % leg.round_size(), 0, "{}", leg.name);
                assert!(leg.target_ms > 0.0, "{}", leg.name);
            }
        }
        assert!(legs("no_such_workload").is_none());
        assert!(scale() > 0.0);
    }
}
