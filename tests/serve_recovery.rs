//! One damaged job on disk is that job's failure, not the daemon's: a
//! restart over a root holding a cut-short `job.json` and a spec `submit`
//! would refuse still serves, leaves each job's reason in its
//! `failed.txt`, runs the good queued job to the end and keeps counting
//! job numbers past all three.

use std::time::Duration;

use harl_repro::serve::{Client, Daemon, JobSpec, Preset, ServeConfig, TunerKind, WorkloadSpec};

fn harl_job(workload: WorkloadSpec, trials: u64) -> JobSpec {
    JobSpec {
        workload,
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
fn damaged_jobs_fail_on_recovery_and_the_daemon_serves_the_rest() {
    let root = std::env::temp_dir().join(format!("harl-serve-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let job_dir = |id: &str| root.join("jobs").join(id);
    let gemm = |m, k, n| WorkloadSpec::Gemm { m, k, n };

    // a killed daemon's jobs: a spec cut short mid-write, a spec with a
    // zero dimension, and a good one still queued
    let cut = serde_json::to_string_pretty(&harl_job(gemm(64, 64, 64), 16)).unwrap();
    let invalid = harl_job(gemm(0, 64, 64), 16);
    assert!(invalid.validate().is_err());
    let files = [
        ("j000001", cut[..cut.len() / 2].to_string()),
        ("j000002", serde_json::to_string_pretty(&invalid).unwrap()),
        (
            "j000003",
            serde_json::to_string_pretty(&harl_job(gemm(128, 128, 128), 16)).unwrap(),
        ),
    ];
    for (id, text) in &files {
        std::fs::create_dir_all(job_dir(id)).unwrap();
        std::fs::write(job_dir(id).join("job.json"), text).unwrap();
    }

    let mut cfg = ServeConfig::new(&root);
    cfg.workers = 1;
    let daemon = Daemon::start(cfg).expect("damaged jobs must not keep the daemon down");
    let client = Client::new(daemon.addr().to_string());
    let poll = Duration::from_millis(20);

    let reason = |id: &str| std::fs::read_to_string(job_dir(id).join("failed.txt")).unwrap();
    assert!(
        reason("j000001").starts_with("bad job.json: "),
        "{}",
        reason("j000001")
    );
    assert!(
        client.status("j000001").is_err(),
        "a spec that does not decode is not registered"
    );
    let invalid_reason = reason("j000002");
    assert!(
        invalid_reason.starts_with("invalid job.json: ")
            && invalid_reason.contains("dimensions must be > 0"),
        "{invalid_reason}"
    );
    let failed = client
        .wait("j000002", poll, |_| {})
        .expect_err("an invalid spec must not run");
    assert!(
        failed.to_string().contains("dimensions must be > 0"),
        "{failed}"
    );

    let outcome = client
        .wait("j000003", poll, |_| {})
        .expect("the good job completes");
    assert!(outcome.trials >= 16);
    assert!(outcome.best_ms.is_finite());

    let next = client.submit(&harl_job(gemm(64, 64, 64), 8)).unwrap();
    assert_eq!(next, "j000004");
    assert!(
        !job_dir(&next).join("job.json.tmp").exists(),
        "submit renames its spec into place"
    );
    client
        .wait(&next, poll, |_| {})
        .expect("the next job completes");

    daemon.shutdown();
    daemon.wait();
    let _ = std::fs::remove_dir_all(&root);
}
