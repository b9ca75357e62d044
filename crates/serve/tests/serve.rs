//! End-to-end tests of the tuning daemon over real TCP connections:
//! job lifecycle, cancellation, backpressure, graceful shutdown with
//! checkpointing, restart-resume determinism, and cross-job warm-starts.

use std::time::{Duration, Instant};

use harl_serve::{
    Client, Daemon, JobSpec, JobState, Preset, Request, Response, ServeConfig, TunerKind,
    WorkloadSpec,
};

fn temp_root(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("harl-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn gemm_spec(trials: u64) -> JobSpec {
    JobSpec {
        workload: WorkloadSpec::Gemm {
            m: 256,
            k: 256,
            n: 256,
        },
        tuner: TunerKind::Harl,
        // tiny => 8 measurements per round => many round boundaries for
        // cancellation / shutdown to land on
        preset: Preset::Tiny,
        hardware: "cpu".to_string(),
        trials,
        priority: 0,
        target_ms: None,
        parallelism: None,
        finetune: false,
    }
}

fn start(root: &std::path::Path, workers: usize, queue_capacity: usize) -> (Daemon, Client) {
    let mut cfg = ServeConfig::new(root);
    cfg.workers = workers;
    cfg.queue_capacity = queue_capacity;
    let daemon = Daemon::start(cfg).expect("daemon starts");
    let client = Client::new(daemon.addr().to_string());
    (daemon, client)
}

/// Polls `status` until `pred` holds, panicking after 30 s.
fn wait_until(client: &Client, id: &str, what: &str, pred: impl Fn(&harl_serve::JobView) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let view = client.status(id).expect("status");
        if pred(&view) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; last view: {view:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn job_lifecycle_submit_status_result() {
    let root = temp_root("lifecycle");
    let (daemon, client) = start(&root, 1, 8);

    let id = client.submit(&gemm_spec(32)).expect("submit");
    assert_eq!(id, "j000001");
    let outcome = client
        .wait(&id, Duration::from_millis(10), |_| {})
        .expect("job completes");
    assert_eq!(outcome.id, id);
    assert_eq!(outcome.workload, "gemm:256x256x256");
    assert_eq!(outcome.tuner, "harl");
    assert!(outcome.best_ms.is_finite() && outcome.best_ms > 0.0);
    assert!(outcome.trials >= 32);
    assert!(outcome.trials_to_best >= 1);
    assert!(outcome.sim_seconds > 0.0);
    assert!(!outcome.resumed);
    assert!(outcome.trials_to_target.is_none());

    // status agrees and list contains exactly this job
    let view = client.status(&id).expect("status");
    assert_eq!(view.state, JobState::Done);
    assert_eq!(view.trials_used, outcome.trials);
    let jobs = client.list().expect("list");
    assert_eq!(jobs.len(), 1);
    assert_eq!(jobs[0].id, id);

    // unknown ids are structured errors
    let err = client.status("j999999");
    assert!(err.is_err());

    client.shutdown().expect("shutdown");
    daemon.wait();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_failed_checkpoint_write_fails_its_job_and_the_next_job_completes() {
    let root = temp_root("ckpt-fault");
    let (daemon, client) = start(&root, 1, 8);

    // the first job's checkpoint cannot be written: a directory stands
    // where its temp file goes. The write fails behind the round, and the
    // job fails at the next wait for it
    let store = root.join("jobs").join("j000001").join("store");
    std::fs::create_dir_all(store.join("checkpoint.json.tmp")).expect("plant the fault");
    let id = client.submit(&gemm_spec(32)).expect("submit");
    assert_eq!(id, "j000001");
    wait_until(&client, &id, "job failed", |view| {
        view.state == JobState::Failed
    });
    let reason = std::fs::read_to_string(root.join("jobs").join(&id).join("failed.txt"))
        .expect("failed.txt written");
    assert!(reason.contains("I/O"), "{reason}");
    assert!(client.result(&id).is_err());

    let next = client.submit(&gemm_spec(32)).expect("submit");
    let outcome = client
        .wait(&next, Duration::from_millis(10), |_| {})
        .expect("the next job completes");
    assert!(outcome.trials >= 32);
    assert!(!root
        .join("jobs")
        .join(&next)
        .join("store")
        .join("checkpoint.json")
        .exists());

    client.shutdown().expect("shutdown");
    daemon.wait();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn cancel_mid_run_stops_at_round_boundary() {
    let root = temp_root("cancel");
    let (daemon, client) = start(&root, 1, 8);

    let id = client.submit(&gemm_spec(100_000)).expect("submit");
    wait_until(&client, &id, "job running with progress", |view| {
        view.state == JobState::Running && view.trials_used > 0
    });
    client.cancel(&id).expect("cancel");
    wait_until(&client, &id, "job cancelled", |view| {
        view.state == JobState::Cancelled
    });
    let view = client.status(&id).expect("status");
    assert!(
        view.trials_used < 100_000,
        "cancel must stop the job early, used {}",
        view.trials_used
    );
    // a settled job has no checkpoint left to resume
    assert!(!root
        .join("jobs")
        .join(&id)
        .join("store")
        .join("checkpoint.json")
        .exists());
    // result of a cancelled job is a structured error
    assert!(client.result(&id).is_err());

    client.shutdown().expect("shutdown");
    daemon.wait();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn full_queue_answers_busy() {
    let root = temp_root("busy");
    let (daemon, client) = start(&root, 1, 1);

    // occupy the single worker, then fill the queue's single slot
    let running = client.submit(&gemm_spec(100_000)).expect("submit running");
    wait_until(&client, &running, "first job running", |view| {
        view.state == JobState::Running
    });
    let queued = client.submit(&gemm_spec(100_000)).expect("submit queued");

    // the queue is full now: the daemon must answer busy, not buffer
    match client
        .request(&Request::Submit(gemm_spec(8)))
        .expect("request")
    {
        Response::Busy { queued, capacity } => {
            assert_eq!((queued, capacity), (1, 1));
        }
        other => panic!("expected Busy, got {other:?}"),
    }
    // the rejected job left no trace
    assert_eq!(client.list().expect("list").len(), 2);

    client.cancel(&queued).expect("cancel queued");
    client.cancel(&running).expect("cancel running");
    client.shutdown().expect("shutdown");
    daemon.wait();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn graceful_shutdown_checkpoints_and_restart_resumes_bit_equal() {
    const TRIALS: u64 = 200;

    // reference: the same spec run to completion without interruption
    let root_ref = temp_root("resume-ref");
    let (daemon, client) = start(&root_ref, 1, 8);
    let id = client.submit(&gemm_spec(TRIALS)).expect("submit ref");
    let reference = client
        .wait(&id, Duration::from_millis(10), |_| {})
        .expect("reference completes");
    client.shutdown().expect("shutdown ref");
    daemon.wait();

    // interrupted: shut the daemon down mid-job, then restart on the root
    let root = temp_root("resume");
    let (daemon, client) = start(&root, 1, 8);
    let id = client.submit(&gemm_spec(TRIALS)).expect("submit");
    wait_until(&client, &id, "a few rounds of progress", |view| {
        view.state == JobState::Running && view.rounds_done >= 2 && view.trials_used < TRIALS
    });
    client.shutdown().expect("shutdown mid-job");
    daemon.wait();
    // the in-flight job was checkpointed, not finished
    let ckpt = root
        .join("jobs")
        .join(&id)
        .join("store")
        .join("checkpoint.json");
    assert!(ckpt.exists(), "graceful shutdown must leave a checkpoint");

    let (daemon2, client2) = start(&root, 1, 8);
    // recovery requeued the job under its old id; it resumes and finishes
    let resumed = client2
        .wait(&id, Duration::from_millis(10), |_| {})
        .expect("resumed job completes");
    assert!(resumed.resumed, "job must report it resumed");
    assert_eq!(
        resumed.best_ms.to_bits(),
        reference.best_ms.to_bits(),
        "restart-resume must reproduce the uninterrupted best bit-for-bit \
         (resumed {} vs reference {})",
        resumed.best_ms,
        reference.best_ms
    );
    assert_eq!(resumed.trials, reference.trials);
    client2.shutdown().expect("shutdown 2");
    daemon2.wait();

    let _ = std::fs::remove_dir_all(&root_ref);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn second_job_warm_starts_from_first_jobs_records() {
    let root = temp_root("warm");
    let (daemon, client) = start(&root, 1, 8);

    let first = client.submit(&gemm_spec(64)).expect("submit first");
    let out1 = client
        .wait(&first, Duration::from_millis(10), |_| {})
        .expect("first completes");
    assert_eq!(out1.warm_records, 0, "pool starts empty");

    // same workload again: its records are in the pool now
    let second = client.submit(&gemm_spec(64)).expect("submit second");
    let out2 = client
        .wait(&second, Duration::from_millis(10), |_| {})
        .expect("second completes");
    assert!(
        out2.warm_records > 0,
        "second job must warm-start from the pool"
    );

    // a structurally different workload matches nothing
    let mut other = gemm_spec(32);
    other.workload = WorkloadSpec::Softmax {
        rows: 128,
        cols: 128,
    };
    let third = client.submit(&other).expect("submit third");
    let out3 = client
        .wait(&third, Duration::from_millis(10), |_| {})
        .expect("third completes");
    assert_eq!(out3.warm_records, 0, "dissimilar workloads must not match");

    client.shutdown().expect("shutdown");
    daemon.wait();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn mcts_job_completes_donates_records_and_warm_starts_harl() {
    let root = temp_root("mcts");
    let (daemon, client) = start(&root, 1, 8);

    // an MCTS job with fine-tuning runs end to end through the daemon
    let mut mcts = gemm_spec(48);
    mcts.tuner = TunerKind::Mcts;
    mcts.finetune = true;
    let first = client.submit(&mcts).expect("submit mcts");
    let out1 = client
        .wait(&first, Duration::from_millis(10), |_| {})
        .expect("mcts job completes");
    assert_eq!(out1.tuner, "mcts");
    assert!(out1.best_ms.is_finite() && out1.best_ms > 0.0);
    assert!(
        out1.finetune_trials.is_some_and(|t| t > 0),
        "finetune=true must report descent trials: {:?}",
        out1.finetune_trials
    );
    assert!(out1.metrics_line().contains("finetune_trials="));

    // its records landed in the shared pool: a HARL job on the same
    // workload shape warm-starts from them
    let second = client.submit(&gemm_spec(48)).expect("submit harl");
    let out2 = client
        .wait(&second, Duration::from_millis(10), |_| {})
        .expect("harl job completes");
    assert_eq!(out2.tuner, "harl");
    assert!(
        out2.warm_records > 0,
        "harl job must warm-start from the mcts job's donated records"
    );

    client.shutdown().expect("shutdown");
    daemon.wait();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn priorities_order_the_queue_and_invalid_specs_are_rejected() {
    let root = temp_root("prio");
    let (daemon, client) = start(&root, 1, 8);

    // invalid specs never enter the queue
    let mut bad = gemm_spec(0);
    assert!(client.submit(&bad).is_err(), "trials=0 must be rejected");
    bad = gemm_spec(8);
    bad.hardware = "abacus".into();
    assert!(
        client.submit(&bad).is_err(),
        "bad hardware must be rejected"
    );

    // hold the worker, then queue low before high: the high-priority job
    // must be picked first once the worker frees up (pop order itself is
    // unit-tested in queue.rs; here we check it end-to-end)
    let blocker = client.submit(&gemm_spec(100_000)).expect("submit blocker");
    wait_until(&client, &blocker, "blocker running", |view| {
        view.state == JobState::Running
    });
    let mut low = gemm_spec(100_000);
    low.priority = 1;
    let mut high = gemm_spec(8);
    high.priority = 5;
    let low_id = client.submit(&low).expect("submit low");
    let high_id = client.submit(&high).expect("submit high");
    client.cancel(&blocker).expect("cancel blocker");
    // the single worker takes `high` next even though `low` queued first;
    // `low` is so large it cannot possibly be Done before `high` starts
    let out = client
        .wait(&high_id, Duration::from_millis(10), |_| {})
        .expect("high-priority job completes");
    assert!(out.best_ms.is_finite());
    let low_view = client.status(&low_id).expect("status low");
    assert_ne!(
        low_view.state,
        JobState::Done,
        "low priority must not have finished before high: {low_view:?}"
    );
    client.cancel(&low_id).expect("cancel low");

    client.shutdown().expect("shutdown");
    daemon.wait();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn metrics_verb_exposes_lifecycle_and_request_counters() {
    let root = temp_root("metrics");
    let (daemon, client) = start(&root, 1, 8);

    let id = client.submit(&gemm_spec(16)).expect("submit");
    client
        .wait(&id, Duration::from_millis(10), |_| {})
        .expect("job completes");

    let dump = client.metrics().expect("metrics verb");
    // Prometheus exposition format: typed families, labelled samples
    assert!(dump.contains("# TYPE harl_serve_requests_total counter"));
    assert!(dump.contains("harl_serve_requests_total{verb=\"submit\"}"));
    assert!(dump.contains("harl_serve_requests_total{verb=\"status\"}"));
    assert!(dump.contains("harl_serve_jobs_total{state=\"submitted\"}"));
    assert!(dump.contains("harl_serve_jobs_total{state=\"completed\"}"));
    assert!(dump.contains("# TYPE harl_serve_request_seconds histogram"));
    assert!(dump.contains("harl_serve_request_seconds_bucket{le=\"+Inf\"}"));
    assert!(dump.contains("harl_serve_request_seconds_count"));
    assert!(dump.contains("harl_serve_queue_depth"));
    // the tuning run itself feeds the scoring counters
    assert!(dump.contains("harl_scoring_candidates_total"));
    assert!(dump.contains("harl_measure_trials_total"));
    // SIMD dispatch surface: backend code gauge, labelled name, kernel counters
    assert!(dump.contains("harl_simd_backend"));
    assert!(dump.contains(&format!(
        "harl_simd_backend_info{{backend=\"{}\"}}",
        harl_simd::backend_name()
    )));
    assert!(dump.contains("harl_simd_gemm_calls"));
    assert!(dump.contains("harl_simd_score_batch_calls"));
    assert!(dump.contains("harl_simd_tanh_calls"));
    assert!(dump.contains("harl_simd_exp_calls"));
    assert!(dump.contains("harl_simd_ln_calls"));
    assert!(dump.contains("harl_simd_vector_lane_fraction"));

    // raw wire shape: one Metrics request line -> one Metrics response line
    match client.request(&Request::Metrics).expect("raw request") {
        Response::Metrics { text } => assert!(text.contains("harl_serve_requests_total")),
        other => panic!("unexpected reply: {other:?}"),
    }

    client.shutdown().expect("shutdown");
    daemon.wait();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn oversized_request_line_is_dropped_and_the_daemon_keeps_serving() {
    use std::io::{Read, Write};

    let root = temp_root("line-cap");
    let (daemon, client) = start(&root, 1, 8);
    let id = client.submit(&gemm_spec(8)).expect("submit");
    let dropped = harl_obs::global().counter("harl_net_conns_total{event=\"dropped\"}");
    let dropped_before = dropped.get();

    // 65 KiB and no newline: past the daemon's 64 KiB request-line cap
    let mut hostile = std::net::TcpStream::connect(daemon.addr()).expect("connect");
    hostile
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let _ = hostile.write_all(&vec![b'x'; 65 * 1024]);
    let mut reply = Vec::new();
    // EOF or a reset, never a reply
    let _ = hostile.read_to_end(&mut reply);
    assert!(reply.is_empty(), "an oversized line must not be answered");
    assert!(dropped.get() > dropped_before, "the connection was dropped");

    // a fresh connection is served as before
    let fresh = Client::new(daemon.addr().to_string());
    assert_eq!(fresh.status(&id).expect("status").id, id);

    client.shutdown().expect("shutdown");
    daemon.wait();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_submit_line_without_finetune_is_a_bad_request_naming_it() {
    use std::io::{BufRead, BufReader, Write};

    let root = temp_root("no-finetune");
    let (daemon, client) = start(&root, 1, 8);
    // every field of a spec is required on the wire: a client that leaves
    // one out is told which, and no job is queued
    let full = serde_json::to_string(&Request::Submit(gemm_spec(8))).unwrap();
    let line = full.replacen(",\"finetune\":false", "", 1);
    assert_ne!(line, full, "{full}");
    let mut conn = std::net::TcpStream::connect(daemon.addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    conn.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut reply = String::new();
    BufReader::new(&conn).read_line(&mut reply).unwrap();
    match serde_json::from_str::<Response>(&reply).unwrap() {
        Response::Error { code, message } => {
            assert_eq!(code, harl_serve::ErrorCode::BadRequest, "{message}");
            assert!(message.contains("missing field `finetune`"), "{message}");
        }
        other => panic!("unexpected reply: {other:?}"),
    }
    assert!(client.list().expect("list").is_empty(), "nothing queued");

    client.shutdown().expect("shutdown");
    daemon.wait();
    let _ = std::fs::remove_dir_all(&root);
}
