//! Ablations of the reproduction's own design choices (beyond the paper's
//! Figures 7/10): elite track seeding, actor proposal count, and the
//! bandit algorithm used for sketch selection. DESIGN.md §5 calls these
//! out as the knobs a downstream user may want to revisit.

use serde::Serialize;

use harl_core::bandit::BanditKind;
use harl_core::{HarlConfig, HarlOperatorTuner};
use harl_tensor_ir::models::operators::{operator_suite, OperatorClass};
use harl_tensor_sim::{Hardware, MeasureConfig, Measurer};

use crate::report::{f3, Table};
use crate::scale::Scale;

/// One ablation variant's outcome.
#[derive(Debug, Serialize)]
pub struct AblationRow {
    pub variant: String,
    /// Best execution time found (seconds).
    pub best_time: f64,
    /// Normalized performance (best across the sweep = 1.0).
    pub normalized_performance: f64,
    /// Trials needed to reach the final best.
    pub trials_to_best: u64,
}

/// One sweep (a group of variants over the same workload/budget).
#[derive(Debug, Serialize)]
pub struct AblationSweep {
    pub name: String,
    pub rows: Vec<AblationRow>,
}

fn run_variant(scale: &Scale, cfg: HarlConfig, label: &str) -> (String, f64, u64) {
    let g = operator_suite(OperatorClass::GemmM, 1).remove(0);
    let m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let mut t = HarlOperatorTuner::new(g, &m, cfg);
    t.tune(scale.op_trials);
    let trials_to_best = t
        .trace
        .first_reaching(t.best_time * 1.0001)
        .map(|(trials, _)| trials)
        .unwrap_or(t.trials_used);
    (label.to_string(), t.best_time, trials_to_best)
}

fn finish(name: &str, raw: Vec<(String, f64, u64)>) -> AblationSweep {
    let best = raw.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    AblationSweep {
        name: name.to_string(),
        rows: raw
            .into_iter()
            .map(|(variant, time, trials)| AblationRow {
                variant,
                best_time: time,
                normalized_performance: best / time,
                trials_to_best: trials,
            })
            .collect(),
    }
}

/// Sweep the elite-track warm-start fraction.
pub fn ablate_elite_fraction(scale: &Scale) -> AblationSweep {
    let base = scale.harl_config();
    let raw = [0.0, 0.25, 0.5, 0.75]
        .into_iter()
        .map(|f| {
            run_variant(
                scale,
                HarlConfig {
                    elite_track_fraction: f,
                    ..base.clone()
                },
                &format!("elite_fraction={f}"),
            )
        })
        .collect();
    finish("elite track fraction", raw)
}

/// Sweep the number of actor proposals the cost model prunes per step.
pub fn ablate_action_samples(scale: &Scale) -> AblationSweep {
    let base = scale.harl_config();
    let raw = [1usize, 2, 4, 8]
        .into_iter()
        .map(|n| {
            run_variant(
                scale,
                HarlConfig {
                    action_samples: n,
                    ..base.clone()
                },
                &format!("action_samples={n}"),
            )
        })
        .collect();
    finish("actor proposals per step", raw)
}

/// Sweep the bandit algorithm behind sketch selection.
pub fn ablate_bandit_kind(scale: &Scale) -> AblationSweep {
    let base = scale.harl_config();
    let kinds: [(&str, BanditKind); 4] = [
        ("SW-UCB (paper)", BanditKind::paper_default()),
        (
            "D-UCB",
            BanditKind::DUcb {
                c: 0.25,
                gamma: 0.99,
            },
        ),
        ("Thompson", BanditKind::Thompson { gamma: 0.99 }),
        ("Uniform (Ansor)", BanditKind::Uniform),
    ];
    let raw = kinds
        .into_iter()
        .map(|(label, kind)| {
            run_variant(
                scale,
                HarlConfig {
                    mab_kind: kind,
                    ..base.clone()
                },
                label,
            )
        })
        .collect();
    finish("sketch-selection bandit", raw)
}

pub fn render_sweep(s: &AblationSweep) -> String {
    let mut t = Table::new(
        format!("Ablation: {}", s.name),
        &[
            "variant",
            "best time (ms)",
            "normalized perf",
            "trials to best",
        ],
    );
    for r in &s.rows {
        t.row(vec![
            r.variant.clone(),
            format!("{:.3}", r.best_time * 1e3),
            f3(r.normalized_performance),
            r.trials_to_best.to_string(),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_produce_normalized_rows() {
        let scale = Scale::tiny();
        for sweep in [ablate_elite_fraction(&scale), ablate_bandit_kind(&scale)] {
            assert!(sweep.rows.len() >= 4);
            let maxp = sweep
                .rows
                .iter()
                .map(|r| r.normalized_performance)
                .fold(0.0f64, f64::max);
            assert!((maxp - 1.0).abs() < 1e-9, "{}: max {maxp}", sweep.name);
            assert!(!render_sweep(&sweep).is_empty());
        }
    }

    #[test]
    fn action_sample_sweep_runs() {
        let scale = Scale::tiny();
        let s = ablate_action_samples(&scale);
        assert_eq!(s.rows.len(), 4);
        assert!(s.rows.iter().all(|r| r.best_time.is_finite()));
    }
}
