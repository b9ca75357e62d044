//! A search that panics fails its job, not the daemon's worker: the job
//! ends `failed` with the panic's message in `failed.txt`, and the same
//! worker goes on to run the next job. The panic here comes from a
//! checkpoint that decodes but does not fit its workload (a HARL state
//! with no elite pools, where the workload has one per sketch), which
//! nothing checks on restore.

use std::sync::Arc;
use std::time::Duration;

use harl_repro::harl::{SessionCheckpoint, TunerState};
use harl_repro::prelude::*;
use harl_repro::serve::{Client, Daemon, JobSpec, Preset, ServeConfig, TunerKind, WorkloadSpec};

fn harl_job(workload: &str, trials: u64) -> JobSpec {
    JobSpec {
        workload: WorkloadSpec::parse(workload).unwrap(),
        tuner: TunerKind::Harl,
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
    // checkpoint has lost its elite pools
    let bad = harl_job("gemm:256x256x256", 48);
    let job_dir = root.join("jobs").join("j000001");
    std::fs::create_dir_all(&job_dir).unwrap();
    std::fs::write(
        job_dir.join("job.json"),
        serde_json::to_string(&bad).unwrap(),
    )
    .unwrap();
    let store = Arc::new(RecordStore::open(job_dir.join("store")).unwrap());
    {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let tuner =
            HarlOperatorTuner::new(bad.workload.build(), &measurer, Preset::Tiny.harl_config());
        let mut session = TuningSession::builder()
            .job_key(bad.job_key())
            .launch(Box::new(tuner), &measurer, Some(store.clone()))
            .unwrap();
        session.round(8).unwrap();
        // dropped unfinished: the checkpoint stays
    }
    let text = store
        .load_checkpoint()
        .unwrap()
        .expect("an unfinished session's checkpoint");
    drop(store);
    let mut checkpoint: SessionCheckpoint = serde_json::from_str(&text).unwrap();
    let TunerState::Harl(state) = &mut checkpoint.tuner else {
        panic!("a HARL job checkpoints a HARL state");
    };
    state.elites.clear();
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

    let next = client.submit(&harl_job("gemm:128x128x128", 16)).unwrap();
    let outcome = client
        .wait(&next, poll, |_| {})
        .expect("the next job completes");
    assert!(outcome.trials >= 16);
    assert!(outcome.best_ms.is_finite());

    daemon.shutdown();
    daemon.wait();
    let _ = std::fs::remove_dir_all(&root);
}
