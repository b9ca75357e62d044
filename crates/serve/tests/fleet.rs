//! Fleet-scale behavior over real TCP: pool federation between daemons,
//! client reconnection across a daemon restart, recovery-before-accept
//! ordering, and the event loop holding hundreds of idle connections on
//! a fixed thread count.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use harl_serve::{Client, Daemon, JobSpec, JobState, Preset, ServeConfig, TunerKind, WorkloadSpec};

fn temp_root(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("harl-fleet-{tag}-{}", std::process::id()));
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
        preset: Preset::Tiny,
        hardware: "cpu".to_string(),
        trials,
        priority: 0,
        target_ms: None,
        parallelism: None,
        finetune: false,
    }
}

fn start_with(root: &std::path::Path, peers: Vec<String>) -> (Daemon, Client) {
    let mut cfg = ServeConfig::new(root);
    cfg.workers = 1;
    cfg.queue_capacity = 64;
    cfg.peers = peers;
    cfg.sync_interval = Duration::from_millis(50);
    let daemon = Daemon::start(cfg).expect("daemon starts");
    let client = Client::new(daemon.addr().to_string());
    (daemon, client)
}

/// The daemon's pool size as seen over the wire (`pool_sync` past the
/// end returns the total with an empty page).
fn pool_total(client: &Client) -> u64 {
    client.pool_sync(u64::MAX).expect("pool_sync").0
}

/// Completed federation sync rounds, read from the daemon's metrics dump.
fn sync_rounds(client: &Client) -> u64 {
    client
        .metrics()
        .expect("metrics")
        .lines()
        .find(|l| l.starts_with("harl_serve_pool_sync_rounds_total "))
        .and_then(|l| l.rsplit(' ').next()?.parse().ok())
        .unwrap_or(0)
}

fn wait_for(what: &str, timeout: Duration, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The federation acceptance path: a job tuned on daemon A makes a
/// similar job on daemon B warm-start from A's records and reach A's
/// cold best in strictly fewer trials; re-syncing from scratch after the
/// puller loses its cursor appends nothing (wire-level idempotence).
#[test]
fn federated_peer_history_warm_starts_jobs_and_resync_is_idempotent() {
    let root_a = temp_root("fed-a");
    let root_b = temp_root("fed-b");
    let (daemon_a, client_a) = start_with(&root_a, Vec::new());

    // cold run on A; its records land in A's pool at completion
    let id = client_a.submit(&gemm_spec(64)).expect("submit on A");
    let cold = client_a
        .wait(&id, Duration::from_millis(10), |_| {})
        .expect("cold job completes");
    assert_eq!(cold.warm_records, 0);
    let a_total = pool_total(&client_a);
    assert!(a_total > 0, "completed job must donate records");

    // B pulls A's pool in the background
    let (daemon_b, client_b) = start_with(&root_b, vec![daemon_a.addr().to_string()]);
    wait_for("B to pull A's pool", Duration::from_secs(20), || {
        pool_total(&client_b) >= a_total
    });

    // similar job on B: warm-started from the fleet's history, it must
    // reach A's cold best in strictly fewer trials than A needed
    let mut warm_spec = gemm_spec(64);
    warm_spec.target_ms = Some(cold.best_ms);
    let id = client_b.submit(&warm_spec).expect("submit on B");
    let warm = client_b
        .wait(&id, Duration::from_millis(10), |_| {})
        .expect("warm job completes");
    assert!(
        warm.warm_records > 0,
        "job on B must warm-start from A's synced records"
    );
    // warm_records is surfaced in live status views too
    let view = client_b.status(&warm.id).expect("status");
    assert_eq!(view.warm_records, warm.warm_records);
    let reached = warm.trials_to_target.expect("target was set");
    assert!(
        reached >= 1,
        "warm job must reach A's cold best at all, got {reached}"
    );
    assert!(
        reached < cold.trials_to_best,
        "warm start must reach A's cold best ({} ms) in strictly fewer \
         trials: {reached} vs {} on cold A",
        cold.best_ms,
        cold.trials_to_best
    );

    // B's pool now also holds B's own donation; a puller that lost its
    // cursor re-pages A's whole segment through the fingerprint filter
    // and must merge nothing new
    let b_total = pool_total(&client_b);
    assert!(b_total > a_total, "B donates its own records to its pool");
    // the metrics registry is process-global here, so count sync rounds
    // relative to where the first B instance left off
    let rounds_before = sync_rounds(&client_b);
    client_b.shutdown().expect("shutdown B");
    daemon_b.wait();
    std::fs::remove_file(root_b.join("sync_cursors.txt")).expect("cursor file persisted");
    let (daemon_b, client_b) = start_with(&root_b, vec![daemon_a.addr().to_string()]);
    wait_for("a full re-sync round", Duration::from_secs(20), || {
        sync_rounds(&client_b) >= rounds_before + 2
    });
    assert_eq!(
        pool_total(&client_b),
        b_total,
        "re-syncing the same segment from offset 0 must append nothing"
    );

    client_b.shutdown().expect("shutdown B");
    daemon_b.wait();
    client_a.shutdown().expect("shutdown A");
    daemon_a.wait();
    let _ = std::fs::remove_dir_all(&root_a);
    let _ = std::fs::remove_dir_all(&root_b);
}

/// A `watch` in flight keeps reporting across a daemon restart on the
/// same root and address: the client reconnects with backoff and the
/// resumed job completes under its watch.
#[test]
fn watch_survives_daemon_restart_via_reconnect() {
    let root = temp_root("reconnect");
    let mut cfg = ServeConfig::new(&root);
    cfg.workers = 1;
    let daemon = Daemon::start(cfg).expect("daemon starts");
    let addr = daemon.addr().to_string();
    let client = Client::new(addr.clone());

    let id = client.submit(&gemm_spec(200)).expect("submit");
    let watcher = {
        let client = Client::new(addr.clone());
        let id = id.clone();
        std::thread::spawn(move || client.wait(&id, Duration::from_millis(25), |_| {}))
    };

    // let the job make checkpointed progress, then take the daemon down
    wait_for("mid-job progress", Duration::from_secs(30), || {
        let v = client.status(&id).expect("status");
        v.state == JobState::Running && v.rounds_done >= 2 && v.trials_used < 200
    });
    daemon.shutdown();
    daemon.wait();

    // restart on the same root and the same port; the watcher's next
    // status poll rides its reconnect backoff straight onto the new
    // daemon, which recovered and resumed the job
    let mut cfg = ServeConfig::new(&root);
    cfg.workers = 1;
    cfg.addr = addr;
    let daemon = Daemon::start(cfg).expect("daemon restarts on same addr");
    let outcome = watcher
        .join()
        .expect("watcher thread")
        .expect("watch survives the restart and the job completes");
    assert_eq!(outcome.id, id);
    assert!(outcome.resumed, "restarted job must resume its checkpoint");

    client.shutdown().expect("shutdown");
    daemon.wait();
    let _ = std::fs::remove_dir_all(&root);
}

/// Recovery completes before the listener exists: the very first `list`
/// any client can get answered must already show every recovered job.
#[test]
fn listener_accepts_only_after_recovery_completed() {
    const JOBS: usize = 40;
    let root = temp_root("recovery-gate");

    // pre-populate unfinished jobs as a crashed daemon would leave them
    for i in 1..=JOBS {
        let dir = root.join("jobs").join(format!("j{i:06}"));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let spec = serde_json::to_string_pretty(&gemm_spec(100_000)).expect("encode spec");
        std::fs::write(dir.join("job.json"), spec).expect("write spec");
    }

    // a racing client that connects the instant serve.addr appears; with
    // the recovery pause widening the window, accept-before-recovery
    // would reliably show a partial registry here
    let addr_file = root.join("serve.addr");
    let racer = std::thread::spawn(move || {
        let deadline = Instant::now() + Duration::from_secs(30);
        let addr = loop {
            if let Ok(s) = std::fs::read_to_string(&addr_file) {
                break s.trim().to_string();
            }
            assert!(Instant::now() < deadline, "serve.addr never appeared");
            std::thread::yield_now();
        };
        Client::new(addr).list().expect("first list").len()
    });

    let mut cfg = ServeConfig::new(&root);
    cfg.workers = 1;
    cfg.recovery_pause = Duration::from_millis(300);
    let daemon = Daemon::start(cfg).expect("daemon starts");
    assert_eq!(
        racer.join().expect("racer"),
        JOBS,
        "a client that can connect must see the fully recovered registry"
    );

    daemon.shutdown();
    daemon.wait();
    let _ = std::fs::remove_dir_all(&root);
}

/// The event loop holds 512 concurrent idle watch-style connections
/// without growing the process thread count: idle clients cost buffers,
/// not threads.
#[test]
fn event_loop_holds_512_idle_connections_without_extra_threads() {
    const CONNS: usize = 512;
    let root = temp_root("idle-conns");
    let mut cfg = ServeConfig::new(&root);
    cfg.workers = 1;
    let daemon = Daemon::start(cfg).expect("daemon starts");
    let addr = daemon.addr();
    let client = Client::new(addr.to_string());
    let id = client.submit(&gemm_spec(100_000)).expect("submit");

    let threads_before = process_threads();
    let mut conns = Vec::with_capacity(CONNS);
    let status_line = format!(
        "{}\n",
        serde_json::to_string(&harl_serve::Request::Status(id.clone())).unwrap()
    );
    for i in 0..CONNS {
        let stream = TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect #{i}: {e}"));
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        // each connection issues one watch-style status poll, then idles
        writer.write_all(status_line.as_bytes()).expect("write");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read");
        assert!(
            reply.contains("\"Status\""),
            "conn #{i} got a non-status reply: {reply}"
        );
        conns.push((reader, writer));
    }
    let threads_after = process_threads();
    assert!(
        threads_after <= threads_before + 8,
        "{CONNS} idle connections must not grow the thread count \
         (before {threads_before}, after {threads_after}); other tests \
         may add a few threads concurrently, never hundreds"
    );

    // the daemon agrees it is multiplexing them all on the loop thread.
    // The gauge is process-global and every event loop `set`s it each
    // sweep, so the daemons of the tests running beside this one overwrite
    // it with their own counts: sample until this daemon's value shows.
    wait_for(
        "harl_net_connections to report all idle connections live",
        Duration::from_secs(5),
        || {
            let dump = client.metrics().expect("metrics");
            dump.lines()
                .find(|l| l.starts_with("harl_net_connections "))
                .and_then(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
                .expect("harl_net_connections gauge")
                >= CONNS as f64
        },
    );

    // every idle connection is still serviceable afterwards
    for (i, (reader, writer)) in conns.iter_mut().enumerate().step_by(64) {
        writer
            .write_all(status_line.as_bytes())
            .expect("write again");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read again");
        assert!(
            reply.contains("\"Status\""),
            "conn #{i} went stale: {reply}"
        );
    }

    drop(conns);
    client.cancel(&id).expect("cancel");
    client.shutdown().expect("shutdown");
    daemon.wait();
    let _ = std::fs::remove_dir_all(&root);
}

/// Live thread count of this process (Linux `/proc/self/status`).
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}
