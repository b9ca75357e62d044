//! How many checkpoints a session writes. Its own file, and one test, so
//! that nothing else in the process moves
//! `harl_store_checkpoint_writes_total`.

use std::sync::Arc;

use harl_repro::harl::{HarlOperatorTuner, SessionControl};
use harl_repro::prelude::*;

fn writes() -> u64 {
    harl_repro::obs::global()
        .counter("harl_store_checkpoint_writes_total")
        .get()
}

/// A session of 16-trial rounds on the store at `dir`.
fn with_session<T>(
    dir: &std::path::Path,
    checkpoint_every: u64,
    f: impl FnOnce(&mut TuningSession<'_>) -> T,
) -> T {
    let store = Arc::new(RecordStore::open(dir).unwrap());
    let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let cfg = HarlConfig {
        measure_per_round: 16,
        ..HarlConfig::tiny()
    };
    let graph = harl_repro::ir::workload::gemm(256, 256, 256);
    let tuner = HarlOperatorTuner::new(graph, &measurer, cfg);
    let mut session = TuningSession::builder()
        .checkpoint_every(checkpoint_every)
        .launch(Box::new(tuner), &measurer, Some(store))
        .unwrap();
    f(&mut session)
}

#[test]
fn run_writes_each_state_once() {
    let dir = std::env::temp_dir().join(format!("harl-it-cadence-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let checkpoint = dir.join("checkpoint.json");

    // cadence 1: the third round's checkpoint is the final state, so `run`
    // has nothing left to write
    let before = writes();
    with_session(&dir, 1, |s| {
        assert_eq!(s.run(48).unwrap(), 48);
        assert_eq!(s.rounds_done(), 3);
    });
    assert_eq!(writes() - before, 3, "three rounds, three checkpoints");
    // and what is on disk is that final state
    with_session(&dir, 1, |s| {
        assert!(s.resumed());
        assert_eq!((s.rounds_done(), s.trials_used()), (3, 48));
        // a resumed session stopped at once has nothing new to save
        let before = writes();
        let stop = s.run_with(16, |_| SessionControl::Stop).unwrap();
        assert!(stop.stopped);
        assert_eq!(writes() - before, 0);
    });
    std::fs::remove_file(&checkpoint).unwrap();

    // a fresh, warm-started session stopped before its first round has
    // never been saved: the stop still leaves a checkpoint to resume from
    let before = writes();
    with_session(&dir, 1, |s| {
        assert!(!s.resumed());
        assert!(s.warm_records() > 0);
        assert!(s.run_with(16, |_| SessionControl::Stop).unwrap().stopped);
    });
    assert_eq!(writes() - before, 1);
    assert!(checkpoint.exists());
    std::fs::remove_file(&checkpoint).unwrap();

    // cadence 2: round 2 checkpoints, round 3 does not, so the run ends
    // with a write of its own
    let before = writes();
    with_session(&dir, 2, |s| {
        s.run(48).unwrap();
        assert_eq!(s.rounds_done(), 3);
    });
    assert_eq!(writes() - before, 2);
    with_session(&dir, 2, |s| assert_eq!(s.rounds_done(), 3));

    let _ = std::fs::remove_dir_all(&dir);
}
