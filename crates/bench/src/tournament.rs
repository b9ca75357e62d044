//! Five-searcher tournament (no paper figure): HARL, Ansor, Flextensor,
//! MCTS and coordinate-descent restarts race over the first shape of every
//! operator class with the same trial budget, and each result is then
//! fine-tuned by coordinate descent. The searcher configs are fixed (each
//! at its default seed), so a row depends on the budget alone.

use serde::Serialize;

use harl_core::ansor::{AnsorConfig, AnsorTuner, FlextensorTuner};
use harl_core::mcts::{CdConfig, CdTuner, FinetuneConfig, MctsConfig, MctsTuner};
use harl_core::{HarlConfig, HarlOperatorTuner, Tuner, TuningSession};
use harl_tensor_ir::models::operators::{operator_suite, OperatorClass};
use harl_tensor_ir::Subgraph;
use harl_tensor_sim::{Hardware, MeasureConfig, Measurer};

use crate::report::Table;
use crate::scale::Scale;

pub const SEARCHERS: [&str; 5] = ["harl", "ansor", "flextensor", "mcts", "cd"];

fn make_tuner<'m>(searcher: &str, g: Subgraph, m: &'m Measurer) -> Box<dyn Tuner + 'm> {
    match searcher {
        "harl" => Box::new(HarlOperatorTuner::new(
            g,
            m,
            HarlConfig {
                measure_per_round: 16,
                ..HarlConfig::tiny()
            },
        )),
        "ansor" => Box::new(AnsorTuner::new(
            g,
            m,
            AnsorConfig {
                measure_per_round: 16,
                ..Default::default()
            },
        )),
        "flextensor" => Box::new(FlextensorTuner::new(g, m, Default::default())),
        "mcts" => Box::new(MctsTuner::new(
            g,
            m,
            MctsConfig {
                measure_per_round: 16,
                playouts_per_round: 48,
                ..Default::default()
            },
        )),
        "cd" => Box::new(CdTuner::new(
            g,
            m,
            CdConfig {
                measure_per_round: 16,
                ..Default::default()
            },
        )),
        other => panic!("unknown searcher {other}"),
    }
}

/// One searcher's run on one operator class; times in seconds.
#[derive(Debug, Serialize)]
pub struct TournamentRow {
    pub class: String,
    pub searcher: String,
    pub trials: u64,
    pub best: f64,
    pub finetune_trials: u64,
    /// Never above `best`.
    pub finetuned_best: f64,
    /// Simulated search time, fine-tuning included.
    pub sim_seconds: f64,
}

/// Runs every searcher on the first shape of every operator class for
/// `scale.op_trials` trials, then fine-tunes each with
/// `max(trials / 4, 8)` more.
pub fn tournament(scale: &Scale) -> Vec<TournamentRow> {
    let trials = scale.op_trials;
    let finetune_cfg = FinetuneConfig {
        max_trials: (trials / 4).max(8) as usize,
        ..Default::default()
    };
    let mut rows = Vec::new();
    for class in OperatorClass::ALL {
        let g = operator_suite(class, 1).remove(0);
        for searcher in SEARCHERS {
            let m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
            let mut session = TuningSession::builder()
                .launch(make_tuner(searcher, g.clone(), &m), &m, None)
                .expect("a session without a store launches");
            session.run(trials).expect("a session without a store runs");
            let best = session.best_latency();
            let search_trials = session.trials_used();
            let out = session
                .then_finetune(&finetune_cfg)
                .expect("a session without a store fine-tunes");
            rows.push(TournamentRow {
                class: class.name().to_string(),
                searcher: searcher.to_string(),
                trials: search_trials,
                best,
                finetune_trials: out.trials,
                finetuned_best: out.after,
                sim_seconds: m.sim_seconds(),
            });
        }
    }
    rows
}

fn ms(x: f64) -> String {
    if x.is_finite() {
        format!("{:.4}", x * 1e3)
    } else {
        "inf".to_string()
    }
}

/// One line per row; `*` marks each class's winner by fine-tuned best.
pub fn render_tournament(rows: &[TournamentRow]) -> String {
    let mut t = Table::new(
        "Tournament: five searchers per operator class, then fine-tuning",
        &[
            "class",
            "searcher",
            "trials",
            "best_ms",
            "finetune_trials",
            "finetuned_best_ms",
            "sim_s",
            "winner",
        ],
    );
    for class in rows.chunk_by(|a, b| a.class == b.class) {
        let winner = class
            .iter()
            .map(|r| r.finetuned_best)
            .fold(f64::INFINITY, f64::min);
        for r in class {
            t.row(vec![
                r.class.clone(),
                r.searcher.clone(),
                r.trials.to_string(),
                ms(r.best),
                r.finetune_trials.to_string(),
                ms(r.finetuned_best),
                format!("{:.0}", r.sim_seconds),
                if r.finetuned_best == winner { "*" } else { "" }.to_string(),
            ]);
        }
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_one_winner_per_class() {
        let row = |class: &str, searcher: &str, finetuned_best: f64| TournamentRow {
            class: class.into(),
            searcher: searcher.into(),
            trials: 8,
            best: 2e-3,
            finetune_trials: 8,
            finetuned_best,
            sim_seconds: 10.0,
        };
        let s = render_tournament(&[
            row("GEMM-S", "harl", 1e-3),
            row("GEMM-S", "cd", 0.5e-3),
            row("C1D", "mcts", f64::INFINITY),
            row("C1D", "ansor", 1.5e-3),
        ]);
        let winners: Vec<&str> = s.lines().filter(|l| l.contains(" * ")).collect();
        assert_eq!(winners.len(), 2, "{s}");
        assert!(
            winners[0].contains("| cd ") && winners[1].contains("| ansor "),
            "{s}"
        );
        assert!(s.contains("| inf "), "{s}");
    }
}
