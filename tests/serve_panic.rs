//! A search that panics fails its job, not the daemon's worker: the job
//! ends `failed` with the panic's message in `failed.txt`, and the same
//! worker goes on to run the next job. The panic here comes from a
//! checkpoint whose proposer half decodes but does not fit its workload:
//! an MCTS tree whose nodes name a sketch the workload lacks. A resume
//! refuses a shared half that does not fit, and a HARL or Flextensor half
//! (their sketch bandit and agent), but nothing checks an MCTS tree yet.

use std::sync::Arc;
use std::time::Duration;

use harl_repro::harl::{SessionCheckpoint, TunerState};
use harl_repro::prelude::*;
use harl_repro::serve::{Client, Daemon, JobSpec, Preset, ServeConfig, TunerKind, WorkloadSpec};

fn job(workload: &str, tuner: TunerKind, trials: u64) -> JobSpec {
    JobSpec {
        workload: WorkloadSpec::parse(workload).unwrap(),
        tuner,
        preset: Preset::Tiny,
        hardware: "cpu".into(),
        trials,
        priority: 0,
        target_ms: None,
        parallelism: None,
        finetune: false,
    }
}

#[test]
fn a_panicking_search_fails_its_job_and_the_worker_runs_the_next() {
    let root = std::env::temp_dir().join(format!("harl-serve-panic-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // an unfinished job on disk, as a killed daemon leaves it, whose
    // checkpoint's search tree names a sketch that is not there
    let bad = job("gemm:256x256x256", TunerKind::Mcts, 48);
    let job_dir = root.join("jobs").join("j000001");
    std::fs::create_dir_all(&job_dir).unwrap();
    std::fs::write(
        job_dir.join("job.json"),
        serde_json::to_string(&bad).unwrap(),
    )
    .unwrap();
    let store = Arc::new(RecordStore::open(job_dir.join("store")).unwrap());
    let sketches = {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let tuner = MctsTuner::new(bad.workload.build(), &measurer, MctsConfig::default());
        let sketches = tuner.sketches.len();
        let mut session = TuningSession::builder()
            .job_key(bad.job_key())
            .launch(Box::new(tuner), &measurer, Some(store.clone()))
            .unwrap();
        session.round(8).unwrap();
        // dropped unfinished: the checkpoint stays
        sketches
    };
    let text = store
        .load_checkpoint()
        .unwrap()
        .expect("an unfinished session's checkpoint");
    drop(store);
    let mut checkpoint: SessionCheckpoint = serde_json::from_str(&text).unwrap();
    let TunerState::Mcts(state) = &mut checkpoint.tuner else {
        panic!("an MCTS job checkpoints an MCTS state");
    };
    assert!(!state.proposer.nodes.is_empty(), "a round grows the tree");
    for node in &mut state.proposer.nodes {
        node.schedule.sketch_id = sketches;
    }
    let damaged = serde_json::to_string(&checkpoint).unwrap();
    std::fs::write(job_dir.join("store").join("checkpoint.json"), damaged).unwrap();

    // one worker: the job after the panic runs on the worker that caught it
    let mut cfg = ServeConfig::new(&root);
    cfg.workers = 1;
    let daemon = Daemon::start(cfg).expect("daemon starts");
    let client = Client::new(daemon.addr().to_string());
    let poll = Duration::from_millis(20);

    let failed = client
        .wait("j000001", poll, |_| {})
        .expect_err("the job must fail");
    assert!(failed.to_string().contains("search panicked: "), "{failed}");
    let reason = std::fs::read_to_string(job_dir.join("failed.txt")).expect("failed.txt");
    assert!(reason.starts_with("search panicked: "), "{reason}");
    assert!(reason.contains("out of bounds"), "{reason}");

    let next = client
        .submit(&job("gemm:128x128x128", TunerKind::Harl, 16))
        .unwrap();
    let outcome = client
        .wait(&next, poll, |_| {})
        .expect("the next job completes");
    assert!(outcome.trials >= 16);
    assert!(outcome.best_ms.is_finite());

    daemon.shutdown();
    daemon.wait();
    let _ = std::fs::remove_dir_all(&root);
}
