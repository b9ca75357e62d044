//! How many checkpoints a session writes, when they land, and what a
//! failed one does. Its own file, and one test, so that nothing else in
//! the process moves `harl_store_checkpoint_writes_total` or
//! `harl_session_checkpoint_wait_seconds`.

use std::path::Path;
use std::sync::Arc;

use harl_repro::harl::{HarlOperatorTuner, SessionCheckpoint, SessionControl, CHECKPOINT_VERSION};
use harl_repro::prelude::*;
use harl_repro::store::StoreError;

fn writes() -> u64 {
    harl_repro::obs::global()
        .counter("harl_store_checkpoint_writes_total")
        .get()
}

/// Background writes joined so far.
fn waits() -> u64 {
    harl_repro::obs::global()
        .histogram(
            "harl_session_checkpoint_wait_seconds",
            harl_repro::obs::FINE_SECONDS_BOUNDS,
        )
        .count()
}

/// The checkpoint file's text, if there is one.
fn on_disk(dir: &Path) -> Option<String> {
    std::fs::read_to_string(dir.join("checkpoint.json")).ok()
}

/// A session of 16-trial rounds on the store at `dir`, handed to `f` with
/// its measurer and dropped afterwards.
fn with_session<T>(
    dir: &Path,
    checkpoint_every: u64,
    f: impl FnOnce(&mut TuningSession<'_>, &Measurer) -> T,
) -> T {
    let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let mut session = launch(dir, &measurer, checkpoint_every);
    f(&mut session, &measurer)
}

fn launch<'m>(dir: &Path, measurer: &'m Measurer, checkpoint_every: u64) -> TuningSession<'m> {
    let store = Arc::new(RecordStore::open(dir).unwrap());
    let cfg = HarlConfig {
        measure_per_round: 16,
        ..HarlConfig::tiny()
    };
    let graph = harl_repro::ir::workload::gemm(256, 256, 256);
    let tuner = HarlOperatorTuner::new(graph, measurer, cfg);
    TuningSession::builder()
        .checkpoint_every(checkpoint_every)
        .launch(Box::new(tuner), measurer, Some(store))
        .unwrap()
}

/// The checkpoint text of the session's state right now.
fn state_text(s: &TuningSession<'_>, measurer: &Measurer) -> String {
    serde_json::to_string(&SessionCheckpoint {
        version: CHECKPOINT_VERSION,
        job_key: None,
        rounds_done: s.rounds_done(),
        finetuned: false,
        measurer: measurer.state(),
        tuner: s.tuner_state(),
    })
    .unwrap()
}

#[test]
fn run_writes_each_state_once() {
    let dir = std::env::temp_dir().join(format!("harl-it-cadence-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let checkpoint = dir.join("checkpoint.json");

    // cadence 1: the third round's checkpoint is the final state, so `run`
    // has nothing left to write; each round's write went out behind it and
    // was waited for once, the last one before `run` returned
    let (before, waited) = (writes(), waits());
    let text = with_session(&dir, 1, |s, m| {
        assert_eq!(s.run(48).unwrap(), 48);
        assert_eq!(s.rounds_done(), 3);
        let text = state_text(s, m);
        assert_eq!(on_disk(&dir).as_ref(), Some(&text), "run returned early");
        text
    });
    assert_eq!(writes() - before, 3, "three rounds, three checkpoints");
    assert_eq!(waits() - waited, 3, "three writes, each joined once");
    // and what is on disk is that final state
    assert_eq!(on_disk(&dir), Some(text));
    with_session(&dir, 1, |s, _| {
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
    // never been saved: the stop still leaves a checkpoint to resume from,
    // written in the foreground
    let (before, waited) = (writes(), waits());
    let text = with_session(&dir, 1, |s, m| {
        assert!(!s.resumed());
        assert!(s.warm_records() > 0);
        assert!(s.run_with(16, |_| SessionControl::Stop).unwrap().stopped);
        state_text(s, m)
    });
    assert_eq!(writes() - before, 1);
    assert_eq!(waits() - waited, 0);
    assert_eq!(on_disk(&dir), Some(text));
    std::fs::remove_file(&checkpoint).unwrap();

    // cadence 2: round 2 checkpoints, round 3 does not, so the run ends
    // with a write of its own
    let (before, waited) = (writes(), waits());
    with_session(&dir, 2, |s, m| {
        s.run(48).unwrap();
        assert_eq!(s.rounds_done(), 3);
        assert_eq!(on_disk(&dir), Some(state_text(s, m)));
    });
    assert_eq!(writes() - before, 2);
    assert_eq!(waits() - waited, 1);
    with_session(&dir, 2, |s, _| assert_eq!(s.rounds_done(), 3));

    // a session dropped while its last round's write is in flight: the
    // drop waits for the write, which lands before it returns
    let waited = waits();
    let text = with_session(&dir, 1, |s, m| {
        assert_eq!(s.round(16).unwrap(), 16);
        state_text(s, m)
    });
    assert_eq!(waits() - waited, 1, "the drop did not wait for the write");
    assert_eq!(on_disk(&dir), Some(text));
    with_session(&dir, 1, |s, _| assert_eq!(s.rounds_done(), 4));

    // `finish` waits for the write in flight, then clears: no file left
    let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let mut s = launch(&dir, &measurer, 1);
    s.round(16).unwrap();
    let waited = waits();
    s.finish().unwrap();
    assert_eq!(waits() - waited, 1, "finish did not wait for the write");
    assert_eq!(on_disk(&dir), None);
    assert!(!dir.join("checkpoint.json.tmp").exists());

    // a write that fails — a directory where its temp file goes — is the
    // error of the next round, and of `run_with` when it is the last
    let tmp = dir.join("checkpoint.json.tmp");
    std::fs::create_dir(&tmp).unwrap();
    with_session(&dir, 1, |s, _| {
        assert_eq!(
            s.round(16).unwrap(),
            16,
            "the write has not been waited for"
        );
        assert!(matches!(s.round(16), Err(StoreError::Io(_))));
    });
    with_session(&dir, 1, |s, _| {
        assert!(matches!(
            s.run_with(16, |_| SessionControl::Continue),
            Err(StoreError::Io(_))
        ));
    });
    assert_eq!(on_disk(&dir), None, "no write succeeded");
    std::fs::remove_dir(&tmp).unwrap();

    let _ = std::fs::remove_dir_all(&dir);
}
