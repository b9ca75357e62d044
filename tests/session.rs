//! End-to-end tests of the tuning session API: record persistence across
//! processes' store directories, kill/resume determinism, and warm-starts.

use std::sync::Arc;

use harl_repro::harl::HarlOperatorTuner;
use harl_repro::prelude::*;

fn temp_store(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("harl-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn gemm() -> Subgraph {
    harl_repro::ir::workload::gemm(256, 256, 256)
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

#[test]
fn killed_session_resumes_to_bit_equal_best() {
    let dir = temp_store("resume");

    // uninterrupted reference run: 6 rounds in one go
    let m_ref = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let mut t_ref = HarlOperatorTuner::new(gemm(), &m_ref, HarlConfig::tiny());
    {
        let mut s = TuningSession::builder()
            .launch(Box::new(&mut t_ref), &m_ref, None)
            .unwrap();
        s.run(48).unwrap();
    }

    // the same run killed after 24 trials...
    let store = Arc::new(RecordStore::open(&dir).unwrap());
    let m1 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let mut t1 = HarlOperatorTuner::new(gemm(), &m1, HarlConfig::tiny());
    {
        let mut s = TuningSession::builder()
            .launch(Box::new(&mut t1), &m1, Some(store.clone()))
            .unwrap();
        s.run(24).unwrap();
        // no finish(): the checkpoint stays, as after a crash
    }
    drop(store);

    // ...resumes in a fresh "process" (new store handle, measurer, tuner)
    let store2 = Arc::new(RecordStore::open(&dir).unwrap());
    let m2 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let mut t2 = HarlOperatorTuner::new(gemm(), &m2, HarlConfig::tiny());
    {
        let mut s = TuningSession::builder()
            .launch(Box::new(&mut t2), &m2, Some(store2))
            .unwrap();
        assert!(s.resumed(), "checkpoint must be picked up");
        s.run(24).unwrap();
    }

    assert_eq!(
        t2.best_time.to_bits(),
        t_ref.best_time.to_bits(),
        "resumed search must match the uninterrupted one bit-for-bit"
    );
    assert_eq!(t2.trials_used, t_ref.trials_used);
    assert_eq!(m2.trials(), m_ref.trials());
    assert_eq!(m2.sim_seconds().to_bits(), m_ref.sim_seconds().to_bits());
    let _ = std::fs::remove_dir_all(&dir);
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
        t2.proposer().cost_model().is_trained(),
        "warm-start must pre-train the cost model"
    );
    assert_eq!(t2.trials_used, 0, "warm-start spends no trials");
    assert_eq!(m2.trials(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_run_reaches_cold_best_in_strictly_fewer_trials() {
    let dir = temp_store("warmspeed");

    // cold run: 160 trials from scratch
    let store = Arc::new(RecordStore::open(&dir).unwrap());
    let m1 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let mut cold = HarlOperatorTuner::new(gemm(), &m1, HarlConfig::tiny());
    {
        let mut s = TuningSession::builder()
            .launch(Box::new(&mut cold), &m1, Some(store.clone()))
            .unwrap();
        s.run(160).unwrap();
        s.finish().unwrap();
    }
    drop(store);
    let cold_best = cold.best_time;
    let cold_to_best = cold
        .trace
        .first_reaching(cold_best)
        .expect("cold run reached its own best")
        .0;

    // warm run against the same store
    let store2 = Arc::new(RecordStore::open(&dir).unwrap());
    let m2 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let mut warm = HarlOperatorTuner::new(gemm(), &m2, HarlConfig::tiny());
    {
        let mut s = TuningSession::builder()
            .launch(Box::new(&mut warm), &m2, Some(store2))
            .unwrap();
        assert!(s.warm_records() > 0);
        s.run(160).unwrap();
        s.finish().unwrap();
    }
    let warm_to_cold_best = warm
        .trace
        .first_reaching(cold_best)
        .expect("warm run must reach the cold run's best")
        .0;

    assert!(
        warm_to_cold_best < cold_to_best,
        "warm start must reach the cold best in strictly fewer trials: \
         warm {warm_to_cold_best} vs cold {cold_to_best}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mcts_warm_run_reaches_cold_best_in_strictly_fewer_trials() {
    let dir = temp_store("mcts-warmspeed");

    // cold MCTS run: 160 trials from scratch
    let store = Arc::new(RecordStore::open(&dir).unwrap());
    let m1 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let mut cold = MctsTuner::new(gemm(), &m1, MctsConfig::default());
    {
        let mut s = TuningSession::builder()
            .launch(Box::new(&mut cold), &m1, Some(store.clone()))
            .unwrap();
        s.run(160).unwrap();
        s.finish().unwrap();
    }
    drop(store);
    let cold_best = cold.best_time;
    let cold_to_best = cold
        .trace
        .first_reaching(cold_best)
        .expect("cold run reached its own best")
        .0;

    // warm MCTS run against the same store: the best record jumps the
    // measurement queue and seeds the search tree's roots
    let store2 = Arc::new(RecordStore::open(&dir).unwrap());
    let m2 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let mut warm = MctsTuner::new(gemm(), &m2, MctsConfig::default());
    {
        let mut s = TuningSession::builder()
            .launch(Box::new(&mut warm), &m2, Some(store2))
            .unwrap();
        assert!(s.warm_records() > 0);
        s.run(160).unwrap();
        s.finish().unwrap();
    }
    let warm_to_cold_best = warm
        .trace
        .first_reaching(cold_best)
        .expect("warm run must reach the cold run's best")
        .0;

    assert!(
        warm_to_cold_best < cold_to_best,
        "warm-started MCTS must reach the cold best in strictly fewer trials: \
         warm {warm_to_cold_best} vs cold {cold_to_best}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn then_finetune_is_monotone_for_every_searcher() {
    let cfg = FinetuneConfig {
        max_trials: 24,
        ..Default::default()
    };
    let g = gemm();

    // five sessions, one per searcher, all driven through the same trait
    // object path the daemon uses; fine-tuning may only improve the best
    for searcher in ["harl", "ansor", "flextensor", "mcts", "cd"] {
        let m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let tuner: Box<dyn Tuner + '_> = match searcher {
            "harl" => Box::new(HarlOperatorTuner::new(g.clone(), &m, HarlConfig::tiny())),
            "ansor" => Box::new(AnsorTuner::new(g.clone(), &m, AnsorConfig::default())),
            "flextensor" => Box::new(FlextensorTuner::new(g.clone(), &m, Default::default())),
            "mcts" => Box::new(MctsTuner::new(g.clone(), &m, MctsConfig::default())),
            _ => Box::new(CdTuner::new(g.clone(), &m, CdConfig::default())),
        };
        let mut session = TuningSession::builder().launch(tuner, &m, None).unwrap();
        session.run(32).unwrap();
        let out = session.then_finetune(&cfg).unwrap();
        assert!(!out.skipped, "{searcher}: finetune must run");
        assert!(
            out.after <= out.before,
            "{searcher}: finetune regressed {} -> {}",
            out.before,
            out.after
        );
        assert_eq!(
            out.after.to_bits(),
            session.best_latency().to_bits(),
            "{searcher}: outcome and session must agree on the final best"
        );
    }
}
