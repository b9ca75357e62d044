//! Five-searcher tournament: HARL, Ansor, Flextensor, MCTS, and
//! coordinate-descent restarts fight over each operator class with identical
//! measurement budgets, with and without the coordinate-descent fine-tuning
//! phase composed after the search.
//!
//! ```text
//! cargo run --release --example tournament [-- [--smoke] [--trials N]]
//! ```
//!
//! Arguments (anything else is rejected):
//! - `--smoke` — CI smoke mode: two operator classes, a tiny budget, and
//!   the kill/resume + monotonicity checks (the part CI gates).
//! - `--trials N` — the per-searcher trial budget (default 160; 48 in
//!   smoke mode).
//!
//! Every result row is machine readable:
//!
//! ```text
//! tournament: class=GEMM-S searcher=mcts trials=160 best_ms=1.234 \
//!     finetune_trials=12 finetuned_best_ms=1.201 sim_s=418
//! ```

use harl_repro::prelude::*;
use std::sync::Arc;

const SEARCHERS: [&str; 5] = ["harl", "ansor", "flextensor", "mcts", "cd"];

fn mcts_config() -> MctsConfig {
    MctsConfig {
        measure_per_round: 16,
        playouts_per_round: 48,
        ..Default::default()
    }
}

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
        "mcts" => Box::new(MctsTuner::new(g, m, mcts_config())),
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

struct Row {
    class: &'static str,
    searcher: &'static str,
    best: f64,
    finetuned_best: f64,
}

fn ms(x: f64) -> String {
    if x.is_finite() {
        format!("{:.4}", x * 1e3)
    } else {
        "inf".to_string()
    }
}

/// MCTS kill/resume bit-identity: an uninterrupted run and a killed-then-
/// resumed run over the same budget must land on bit-equal best latencies
/// and serialized tuner state.
fn mcts_resume_check(g: &Subgraph, trials: u64) -> bool {
    let m_ref = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let t_ref = MctsTuner::new(g.clone(), &m_ref, mcts_config());
    let mut s_ref = TuningSession::builder()
        .launch(Box::new(t_ref), &m_ref, None)
        .expect("launch reference session");
    s_ref.run(trials / 2).expect("reference first half");
    s_ref
        .run(trials - trials / 2)
        .expect("reference second half");
    let best_ref = s_ref.best_latency();
    let state_ref = serde_json::to_string(&s_ref.tuner_state()).expect("serialize");

    let dir = std::env::temp_dir().join(format!("harl-tournament-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let best_resumed;
    let state_resumed;
    {
        let store = Arc::new(RecordStore::open(&dir).expect("open store"));
        let m1 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let t1 = MctsTuner::new(g.clone(), &m1, mcts_config());
        let mut s1 = TuningSession::builder()
            .launch(Box::new(t1), &m1, Some(store))
            .expect("launch first session");
        s1.run(trials / 2).expect("first half");
        drop(s1); // killed: checkpoint stays on disk

        let store2 = Arc::new(RecordStore::open(&dir).expect("reopen store"));
        let m2 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let t2 = MctsTuner::new(g.clone(), &m2, mcts_config());
        let mut s2 = TuningSession::builder()
            .launch(Box::new(t2), &m2, Some(store2))
            .expect("launch resumed session");
        assert!(s2.resumed(), "second session must resume the checkpoint");
        s2.run(trials - trials / 2).expect("second half");
        best_resumed = s2.best_latency();
        state_resumed = serde_json::to_string(&s2.tuner_state()).expect("serialize");
    }
    let _ = std::fs::remove_dir_all(&dir);

    best_ref.to_bits() == best_resumed.to_bits() && state_ref == state_resumed
}

/// `(smoke, trials)` from the command line; any other argument, a
/// repeated one or a malformed count is an error.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<(bool, Option<u64>), String> {
    let (mut smoke, mut trials) = (false, None);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" if !smoke => smoke = true,
            "--trials" if trials.is_none() => {
                let n = args.next().ok_or("--trials needs a count")?;
                trials = Some(
                    n.parse()
                        .map_err(|e| format!("--trials `{n}` is not a count: {e}"))?,
                );
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok((smoke, trials))
}

fn main() {
    let (smoke, trials) = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\nusage: tournament [--smoke] [--trials N]");
        std::process::exit(2);
    });
    let trials = trials.unwrap_or(if smoke { 48 } else { 160 });
    let classes: &[OperatorClass] = if smoke {
        &[OperatorClass::GemmS, OperatorClass::C1d]
    } else {
        &OperatorClass::ALL
    };
    let finetune_cfg = FinetuneConfig {
        max_trials: (trials / 4).max(8) as usize,
        ..Default::default()
    };

    println!(
        "tournament: {} classes x {} searchers, {trials} trials each{}",
        classes.len(),
        SEARCHERS.len(),
        if smoke { " (smoke)" } else { "" }
    );

    let mut rows = Vec::new();
    let mut monotone = true;
    for class in classes {
        let g = operator_suite(*class, 1)
            .into_iter()
            .next()
            .expect("operator class has at least one subgraph");
        for searcher in SEARCHERS {
            let m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
            let tuner = make_tuner(searcher, g.clone(), &m);
            let mut session = TuningSession::builder()
                .launch(tuner, &m, None)
                .expect("launch session");
            session.run(trials).expect("run session");
            let best = session.best_latency();
            let search_trials = session.trials_used();
            let out = session.then_finetune(&finetune_cfg).expect("finetune");
            monotone &= out.after <= out.before;
            println!(
                "tournament: class={} searcher={searcher} trials={} best_ms={} \
                 finetune_trials={} finetuned_best_ms={} sim_s={:.0}",
                class.name(),
                search_trials,
                ms(best),
                out.trials,
                ms(out.after),
                m.sim_seconds()
            );
            rows.push(Row {
                class: class.name(),
                searcher,
                best,
                finetuned_best: out.after,
            });
        }
    }

    println!(
        "\n{:>8} {:>12} {:>12} {:>12}",
        "class", "winner", "best_ms", "ft_ms"
    );
    for class in classes {
        let winner = rows
            .iter()
            .filter(|r| r.class == class.name())
            .min_by(|a, b| a.finetuned_best.total_cmp(&b.finetuned_best))
            .expect("every class has rows");
        println!(
            "{:>8} {:>12} {:>12} {:>12}",
            winner.class,
            winner.searcher,
            ms(winner.best),
            ms(winner.finetuned_best)
        );
    }

    println!("monotone={}", if monotone { "ok" } else { "VIOLATED" });
    let resume_ok = mcts_resume_check(&operator_suite(classes[0], 1)[0], trials.clamp(16, 48));
    println!(
        "mcts_resume={}",
        if resume_ok {
            "bit-identical"
        } else {
            "MISMATCH"
        }
    );
    if !monotone || !resume_ok {
        std::process::exit(1);
    }
}
