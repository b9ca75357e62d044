//! End-to-end tests of the tuning session API: record persistence across
//! processes' store directories, kill/resume determinism, and warm-starts.

use std::sync::Arc;

use harl_repro::prelude::*;

fn temp_store(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("harl-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn gemm() -> Subgraph {
    harl_repro::ir::workload::gemm(256, 256, 256)
}

const SEARCHERS: [&str; 5] = ["harl", "ansor", "flextensor", "mcts", "cd"];

/// One of the five searchers, boxed the way the daemon drives it.
fn tuner<'m>(name: &str, graph: Subgraph, measurer: &'m Measurer) -> Box<dyn Tuner + 'm> {
    match name {
        "harl" => Box::new(HarlOperatorTuner::new(graph, measurer, HarlConfig::tiny())),
        "ansor" => Box::new(AnsorTuner::new(graph, measurer, AnsorConfig::default())),
        "flextensor" => Box::new(FlextensorTuner::new(graph, measurer, Default::default())),
        "mcts" => Box::new(MctsTuner::new(graph, measurer, MctsConfig::default())),
        "cd" => Box::new(CdTuner::new(graph, measurer, CdConfig::default())),
        other => panic!("unknown searcher {other}"),
    }
}

#[test]
fn record_store_round_trips_session_measurements() {
    let dir = temp_store("roundtrip");
    {
        let store = Arc::new(RecordStore::open(&dir).unwrap());
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let mut tuner = HarlOperatorTuner::new(gemm(), &measurer, HarlConfig::tiny());
        let mut session = TuningSession::builder()
            .launch(Box::new(&mut tuner), &measurer, Some(store.clone()))
            .unwrap();
        session.run(16).unwrap();
        session.finish().unwrap();
        assert_eq!(store.len() as u64, measurer.trials());
        assert_eq!(store.dropped_writes(), 0);
    }
    // a fresh open sees byte-identical records
    let reopened = RecordStore::open(&dir).unwrap();
    assert!(reopened.len() >= 16);
    let key = gemm().similarity_key();
    for r in reopened.snapshot() {
        assert_eq!(r.similarity_key, key);
        assert_eq!(r.workload, gemm().name);
        assert!(r.time.is_finite() && r.time > 0.0);
        assert!(r.flops_per_sec > 0.0);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// What a run leaves behind that a resume must reproduce bit for bit.
#[derive(Debug, PartialEq)]
struct RunEnd {
    best_bits: u64,
    trials_used: u64,
    measured: u64,
    sim_seconds_bits: u64,
    state: String,
}

fn run_end(session: &TuningSession<'_>, measurer: &Measurer) -> RunEnd {
    RunEnd {
        best_bits: session.best_latency().to_bits(),
        trials_used: session.trials_used(),
        measured: measurer.trials(),
        sim_seconds_bits: measurer.sim_seconds().to_bits(),
        state: serde_json::to_string(&session.tuner_state()).unwrap(),
    }
}

#[test]
fn killed_session_resumes_to_bit_equal_best() {
    for searcher in SEARCHERS {
        let dir = temp_store(&format!("resume-{searcher}"));

        // uninterrupted reference run, with the same two 24-trial budgets
        let m_ref = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let mut s_ref = TuningSession::builder()
            .launch(tuner(searcher, gemm(), &m_ref), &m_ref, None)
            .unwrap();
        s_ref.run(24).unwrap();
        s_ref.run(24).unwrap();
        let reference = run_end(&s_ref, &m_ref);
        drop(s_ref);

        // the same run killed after 24 trials, then resumed in a fresh
        // "process" (new store handle, measurer, tuner)
        for resumed in [false, true] {
            let store = Arc::new(RecordStore::open(&dir).unwrap());
            let m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
            let mut s = TuningSession::builder()
                .launch(tuner(searcher, gemm(), &m), &m, Some(store))
                .unwrap();
            assert_eq!(s.resumed(), resumed, "{searcher}: checkpoint pick-up");
            s.run(24).unwrap();
            // no finish(): the checkpoint stays, as after a crash
            if resumed {
                assert_eq!(
                    run_end(&s, &m),
                    reference,
                    "{searcher}: resumed search must match the uninterrupted one bit-for-bit"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn warm_start_trains_cost_model_with_zero_fresh_trials() {
    let dir = temp_store("warmtrain");

    let store = Arc::new(RecordStore::open(&dir).unwrap());
    let m1 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let mut t1 = HarlOperatorTuner::new(gemm(), &m1, HarlConfig::tiny());
    {
        let mut s = TuningSession::builder()
            .launch(Box::new(&mut t1), &m1, Some(store.clone()))
            .unwrap();
        s.run(32).unwrap();
        s.finish().unwrap();
    }
    drop(store);

    let store2 = Arc::new(RecordStore::open(&dir).unwrap());
    let m2 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let mut t2 = HarlOperatorTuner::new(gemm(), &m2, HarlConfig::tiny());
    let s = TuningSession::builder()
        .launch(Box::new(&mut t2), &m2, Some(store2))
        .unwrap();
    assert!(!s.resumed());
    assert!(s.warm_records() > 0);
    drop(s);
    assert!(
        t2.learner().is_some_and(|l| l.model.is_trained()),
        "warm-start must pre-train the cost model"
    );
    assert_eq!(t2.trials_used, 0, "warm-start spends no trials");
    assert_eq!(m2.trials(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cold run fills a store; a warm run against it must reach the cold
/// run's best in strictly fewer trials (the best records jump the
/// measurement queue, and for MCTS seed the search tree's roots).
fn warm_run_reaches_cold_best_sooner(searcher: &str) {
    let dir = temp_store(&format!("warmspeed-{searcher}"));
    let mut runs = Vec::new();
    for warm in [false, true] {
        let store = Arc::new(RecordStore::open(&dir).unwrap());
        let m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let mut s = TuningSession::builder()
            .launch(tuner(searcher, gemm(), &m), &m, Some(store))
            .unwrap();
        assert_eq!(s.warm_records() > 0, warm, "{searcher}: warm run {warm}");
        s.run(160).unwrap();
        runs.push((s.best_latency(), s.trace().unwrap().clone()));
        s.finish().unwrap();
    }
    let cold_best = runs[0].0;
    let cold_to_best = runs[0].1.first_reaching(cold_best).unwrap().0;
    let warm_to_cold_best = runs[1]
        .1
        .first_reaching(cold_best)
        .expect("warm run must reach the cold run's best")
        .0;
    assert!(
        warm_to_cold_best < cold_to_best,
        "{searcher}: warm start must reach the cold best in strictly fewer trials: \
         warm {warm_to_cold_best} vs cold {cold_to_best}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_run_reaches_cold_best_in_strictly_fewer_trials() {
    warm_run_reaches_cold_best_sooner("harl");
}

#[test]
fn mcts_warm_run_reaches_cold_best_in_strictly_fewer_trials() {
    warm_run_reaches_cold_best_sooner("mcts");
}

#[test]
fn then_finetune_is_monotone_for_every_searcher() {
    let cfg = FinetuneConfig {
        max_trials: 24,
        ..Default::default()
    };
    let c1d = operator_suite(OperatorClass::C1d, 1).remove(0);

    // one session per searcher and graph, all driven through the same
    // trait object path the daemon uses; fine-tuning may only improve the
    // best
    for g in [gemm(), c1d] {
        for searcher in SEARCHERS {
            let m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
            let mut session = TuningSession::builder()
                .launch(tuner(searcher, g.clone(), &m), &m, None)
                .unwrap();
            session.run(32).unwrap();
            let out = session.then_finetune(&cfg).unwrap();
            let at = format!("{searcher} on {}", g.name);
            assert!(!out.skipped, "{at}: finetune must run");
            assert!(out.before.is_finite(), "{at}: the search found nothing");
            assert!(
                out.after <= out.before,
                "{at}: finetune regressed {} -> {}",
                out.before,
                out.after
            );
            assert_eq!(
                out.after.to_bits(),
                session.best_latency().to_bits(),
                "{at}: outcome and session must agree on the final best"
            );
        }
    }
}
