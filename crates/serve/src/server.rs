//! The tuning daemon: event-loop frontend, job registry, recovery,
//! dispatch.
//!
//! On-disk layout under [`ServeConfig::root`]:
//!
//! ```text
//! serve.addr          actual listening address (ephemeral ports resolve here)
//! pool/               shared cross-job record store (warm-start source)
//! jobs/<id>/job.json  the submitted JobSpec
//! jobs/<id>/store/    the job's own RecordStore (records + checkpoint)
//! jobs/<id>/result.json    final JobOutcome (state: done)
//! jobs/<id>/cancelled      marker (state: cancelled)
//! jobs/<id>/failed.txt     failure message (state: failed)
//! ```
//!
//! Every job state is thus derivable from disk alone: a restarted daemon
//! (graceful or `kill -9`) rebuilds its registry by scanning `jobs/` and
//! requeues everything unfinished, which then resumes from its store
//! checkpoint. Recovery completes *before* the listener binds, so a
//! client that can connect at all is guaranteed to see the full
//! recovered registry — `serve.addr` appearing means recovery is done.
//!
//! All connections are multiplexed onto a single `harl-net` event-loop
//! thread: a thousand idle `watch` clients cost buffers, not threads.
//! The daemon's thread count is fixed at `workers + 1` (plus one
//! federation puller when [`ServeConfig::peers`] is non-empty).

use std::collections::BTreeMap;
use std::fs;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use harl_check::{AtomicRole, CAtomicBool, CAtomicU64, CMutex};
use std::thread::JoinHandle;
use std::time::Duration;

use harl_net::{EventLoop, LoopConfig, Outbox, Service, Token};
use harl_store::RecordStore;

use crate::error::ServeError;
use crate::federation;
use crate::job::{JobOutcome, JobSpec, JobState, JobView};
use crate::protocol::{decode_request, ErrorCode, Request, Response};
use crate::queue::{JobQueue, PushError};
use crate::worker;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// State root: job directories, the shared pool, `serve.addr`.
    pub root: PathBuf,
    /// Bind address; `127.0.0.1:0` picks an ephemeral port (the resolved
    /// address is written to `<root>/serve.addr`).
    pub addr: String,
    /// Worker threads tuning jobs concurrently.
    pub workers: usize,
    /// Bound of the waiting-job queue (backpressure threshold).
    pub queue_capacity: usize,
    /// Checkpoint cadence forwarded to each job's session (rounds).
    pub checkpoint_every: u64,
    /// Peer daemon addresses this daemon pulls pool records from. Empty
    /// (the default) disables federation and its puller thread.
    pub peers: Vec<String>,
    /// Pause between federation sync rounds.
    pub sync_interval: Duration,
    /// Test hook: artificial delay inserted before recovery scans the
    /// job directory, widening the recovery window so tests can prove
    /// the listener only accepts once recovery has completed.
    #[doc(hidden)]
    pub recovery_pause: Duration,
}

impl ServeConfig {
    /// Defaults: loopback ephemeral port, 2 workers, queue of 16,
    /// checkpoint every round, no peers.
    pub fn new(root: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            root: root.into(),
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 16,
            checkpoint_every: 1,
            peers: Vec::new(),
            sync_interval: Duration::from_millis(500),
            recovery_pause: Duration::ZERO,
        }
    }
}

/// One job's registry entry.
#[derive(Debug)]
pub(crate) struct JobEntry {
    pub(crate) spec: JobSpec,
    pub(crate) state: JobState,
    pub(crate) cancel: Arc<CAtomicBool>,
    pub(crate) trials_used: u64,
    pub(crate) rounds_done: u64,
    /// Best latency so far, seconds (`+inf` before any measurement).
    pub(crate) best_latency: f64,
    pub(crate) resumed: bool,
    /// Pool records replayed before the job's first fresh trial.
    pub(crate) warm_records: u64,
    /// Scoring-pipeline counters, filled in when the job completes.
    pub(crate) score_stats: Option<harl_gbt::ScoreStats>,
    pub(crate) outcome: Option<JobOutcome>,
    pub(crate) error: Option<String>,
}

impl JobEntry {
    fn new(spec: JobSpec) -> JobEntry {
        JobEntry {
            spec,
            state: JobState::Queued,
            cancel: Arc::new(CAtomicBool::new(
                false,
                "serve.job_cancel",
                AtomicRole::Flag,
            )),
            trials_used: 0,
            rounds_done: 0,
            best_latency: f64::INFINITY,
            resumed: false,
            warm_records: 0,
            score_stats: None,
            outcome: None,
            error: None,
        }
    }

    fn view(&self, id: &str) -> JobView {
        JobView {
            id: id.to_string(),
            state: self.state,
            workload: self.spec.workload.summary(),
            tuner: self.spec.tuner.name().to_string(),
            priority: self.spec.priority,
            trials_total: self.spec.trials,
            trials_used: self.trials_used,
            rounds_done: self.rounds_done,
            best_latency_ms: self.best_latency * 1e3,
            resumed: self.resumed,
            warm_records: self.warm_records,
            score_stats: self.score_stats,
            error: self.error.clone(),
        }
    }
}

/// State shared by the event loop, workers, and the federation puller.
pub(crate) struct Shared {
    pub(crate) cfg: ServeConfig,
    pub(crate) jobs: CMutex<BTreeMap<String, JobEntry>>,
    pub(crate) queue: JobQueue,
    /// Cross-job warm-start pool; `None` once the daemon has fully stopped
    /// (dropping it releases the store's writer lock for a successor).
    pool: CMutex<Option<Arc<RecordStore>>>,
    pub(crate) shutdown: CAtomicBool,
    next_id: CAtomicU64,
}

impl Shared {
    pub(crate) fn jobs_dir(&self) -> PathBuf {
        self.cfg.root.join("jobs")
    }

    pub(crate) fn job_dir(&self, id: &str) -> PathBuf {
        self.jobs_dir().join(id)
    }

    pub(crate) fn pool_handle(&self) -> Option<Arc<RecordStore>> {
        self.pool.lock().expect("pool poisoned").clone()
    }

    pub(crate) fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
    }

    /// Marks a job cancelled and leaves the on-disk marker.
    pub(crate) fn mark_cancelled(&self, id: &str) {
        let _ = fs::write(self.job_dir(id).join("cancelled"), "");
        if let Some(e) = self.jobs.lock().expect("jobs poisoned").get_mut(id) {
            e.state = JobState::Cancelled;
        }
        job_counter("cancelled").inc();
    }

    /// Marks a job failed with a persisted reason.
    pub(crate) fn mark_failed(&self, id: &str, message: &str) {
        let _ = fs::write(self.job_dir(id).join("failed.txt"), message);
        if let Some(e) = self.jobs.lock().expect("jobs poisoned").get_mut(id) {
            e.state = JobState::Failed;
            e.error = Some(message.to_string());
        }
        job_counter("failed").inc();
    }

    /// Publishes the waiting-queue depth gauge; called after every
    /// push/pop so the dump always reflects the live queue.
    pub(crate) fn update_queue_gauge(&self) {
        harl_obs::global()
            .gauge("harl_serve_queue_depth")
            .set(self.queue.len() as f64);
    }
}

/// Job lifecycle counter `harl_serve_jobs_total{state="..."}`.
pub(crate) fn job_counter(state: &str) -> harl_obs::Counter {
    harl_obs::global().counter(&format!("harl_serve_jobs_total{{state=\"{state}\"}}"))
}

/// Publishes the readiness file `<root>/serve.addr` in one step (write
/// `serve.addr.tmp`, rename it over, as `federation` does for its cursors):
/// whoever polls the file sees none, a previous daemon's, or this complete
/// `host:port\n` — never the empty or partial file that creating and then
/// writing it in place shows in between.
fn publish_addr(root: &Path, addr: SocketAddr) -> std::io::Result<()> {
    let tmp = root.join("serve.addr.tmp");
    fs::write(&tmp, format!("{addr}\n"))?;
    fs::rename(&tmp, root.join("serve.addr"))
}

/// A running daemon: one event-loop thread + worker pool over a state
/// root, plus a federation puller when peers are configured.
pub struct Daemon {
    shared: Arc<Shared>,
    addr: SocketAddr,
    event_loop: Option<JoinHandle<()>>,
    sync: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Recovers every job found under the root (requeueing the unfinished
    /// ones), then binds and starts the worker pool and event loop.
    ///
    /// Recovery runs to completion *before* the listener exists, so any
    /// client that can connect observes the fully rebuilt registry;
    /// `serve.addr` is only written once the daemon is serving.
    pub fn start(cfg: ServeConfig) -> Result<Daemon, ServeError> {
        fs::create_dir_all(cfg.root.join("jobs"))?;
        let pool = Arc::new(RecordStore::open(cfg.root.join("pool"))?);
        let shared = Arc::new(Shared {
            queue: JobQueue::new(cfg.queue_capacity),
            cfg,
            jobs: CMutex::new("serve.jobs", BTreeMap::new()),
            pool: CMutex::new("serve.pool", Some(pool)),
            shutdown: CAtomicBool::new(false, "serve.shutdown", AtomicRole::Flag),
            next_id: CAtomicU64::new(1, "serve.next_id", AtomicRole::Counter),
        });
        if !shared.cfg.recovery_pause.is_zero() {
            std::thread::sleep(shared.cfg.recovery_pause);
        }
        recover_jobs(&shared)?;

        let listener = TcpListener::bind(&shared.cfg.addr)?;
        let addr = listener.local_addr()?;
        let mut event_loop = EventLoop::new(
            listener,
            ServeService {
                shared: shared.clone(),
            },
            // requests are under 1 KiB; only `PoolSegment` replies are large,
            // and those are read by the blocking `Client`, not by this loop
            LoopConfig {
                max_line_bytes: 64 * 1024,
            },
        )?;
        let event_loop = {
            let shared = shared.clone();
            std::thread::spawn(move || {
                event_loop.run(|| shared.shutdown.load(Ordering::SeqCst));
            })
        };
        publish_addr(&shared.cfg.root, addr)?;

        let workers = (0..shared.cfg.workers.max(1))
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || worker::worker_loop(&shared))
            })
            .collect();
        let sync = if shared.cfg.peers.is_empty() {
            None
        } else {
            let shared = shared.clone();
            Some(std::thread::spawn(move || federation::sync_loop(&shared)))
        };
        Ok(Daemon {
            shared,
            addr,
            event_loop: Some(event_loop),
            sync,
            workers,
        })
    }

    /// The resolved listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates a graceful shutdown, exactly as the `shutdown` verb does.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until the event loop, every worker, and the federation
    /// puller have exited (i.e. until a shutdown completes), then
    /// releases the warm-start pool so a successor daemon can reopen the
    /// same root in this process.
    pub fn wait(mut self) {
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.sync.take() {
            let _ = h.join();
        }
        *self.shared.pool.lock().expect("pool poisoned") = None;
    }
}

/// Rebuilds the job registry from `<root>/jobs/` and requeues everything
/// that has not reached a terminal state.
fn recover_jobs(shared: &Arc<Shared>) -> Result<(), ServeError> {
    let mut ids: Vec<String> = Vec::new();
    for entry in fs::read_dir(shared.jobs_dir())? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            ids.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    ids.sort();
    let mut max_num = 0u64;
    for id in ids {
        if let Some(num) = id.strip_prefix('j').and_then(|n| n.parse::<u64>().ok()) {
            max_num = max_num.max(num);
        }
        let dir = shared.job_dir(&id);
        let spec_json = match fs::read_to_string(dir.join("job.json")) {
            Ok(s) => s,
            Err(_) => continue, // half-created dir from a crashed submit
        };
        let spec: JobSpec = serde_json::from_str(&spec_json)
            .map_err(|e| ServeError::Job(format!("{id}: bad job.json: {e}")))?;
        let mut entry = JobEntry::new(spec);
        if let Ok(outcome_json) = fs::read_to_string(dir.join("result.json")) {
            let outcome: JobOutcome = serde_json::from_str(&outcome_json)
                .map_err(|e| ServeError::Job(format!("{id}: bad result.json: {e}")))?;
            entry.state = JobState::Done;
            entry.trials_used = outcome.trials;
            entry.best_latency = outcome.best_ms / 1e3;
            entry.resumed = outcome.resumed;
            entry.warm_records = outcome.warm_records;
            entry.score_stats = outcome.score_stats;
            entry.outcome = Some(outcome);
        } else if dir.join("cancelled").exists() {
            entry.state = JobState::Cancelled;
        } else if let Ok(msg) = fs::read_to_string(dir.join("failed.txt")) {
            entry.state = JobState::Failed;
            entry.error = Some(msg);
        } else {
            // unfinished: requeue. Recovery must never drop an accepted
            // job, so this bypasses the backpressure bound.
            shared.queue.push_unbounded(id.clone(), entry.spec.priority);
        }
        shared.jobs.lock().expect("jobs poisoned").insert(id, entry);
    }
    shared.next_id.store(max_num + 1, Ordering::SeqCst);
    Ok(())
}

/// The wire frontend: decodes one [`Request`] per line and answers with
/// exactly one [`Response`] line, preserving the thread-per-connection
/// protocol byte-for-byte. Runs on the event-loop thread, so every arm
/// of [`dispatch`] must stay non-blocking (workers do the tuning).
struct ServeService {
    shared: Arc<Shared>,
}

impl Service for ServeService {
    fn on_line(&mut self, _token: Token, line: &str, out: &mut Outbox) {
        let req = match decode_request(line) {
            Ok(req) => req,
            Err(message) => {
                out.line(encode(&Response::error(ErrorCode::BadRequest, message)));
                out.close_after_flush();
                return;
            }
        };
        let is_shutdown = matches!(req, Request::Shutdown);
        out.line(encode(&dispatch(&self.shared, req)));
        if is_shutdown {
            out.close_after_flush();
        }
    }
}

fn encode(resp: &Response) -> String {
    serde_json::to_string(resp).unwrap_or_else(|_| {
        r#"{"Error":{"code":"Internal","message":"encoding reply failed"}}"#.to_string()
    })
}

fn dispatch(shared: &Arc<Shared>, req: Request) -> Response {
    let verb = match &req {
        Request::Submit(_) => "submit",
        Request::Status(_) => "status",
        Request::Result(_) => "result",
        Request::Cancel(_) => "cancel",
        Request::List => "list",
        Request::Metrics => "metrics",
        Request::PoolSync { .. } => "pool_sync",
        Request::Shutdown => "shutdown",
    };
    let started = std::time::Instant::now();
    let resp = match req {
        Request::Submit(spec) => submit(shared, spec),
        Request::Status(id) => status(shared, &id),
        Request::Result(id) => result(shared, &id),
        Request::Cancel(id) => cancel(shared, &id),
        Request::List => Response::Jobs(
            shared
                .jobs
                .lock()
                .expect("jobs poisoned")
                .iter()
                .map(|(id, e)| e.view(id))
                .collect(),
        ),
        Request::Metrics => {
            publish_simd_metrics();
            Response::Metrics {
                text: harl_obs::global().render(),
            }
        }
        Request::PoolSync { from } => pool_segment(shared, from),
        Request::Shutdown => {
            shared.begin_shutdown();
            Response::ShuttingDown
        }
    };
    let reg = harl_obs::global();
    reg.counter(&format!("harl_serve_requests_total{{verb=\"{verb}\"}}"))
        .inc();
    reg.histogram("harl_serve_request_seconds", harl_obs::SECONDS_BOUNDS)
        .observe(started.elapsed().as_secs_f64());
    resp
}

/// Snapshots the process-wide SIMD kernel stats into the metrics
/// registry so every `metrics` reply reports the dispatched backend and
/// kernel counters. The gauge value of `harl_simd_backend` is the
/// backend code (0 scalar, 1 sse2, 2 avx2, 3 neon, 4 avx512); the labeled
/// `harl_simd_backend_info` gauge carries the name for humans.
fn publish_simd_metrics() {
    let reg = harl_obs::global();
    let stats = harl_simd::stats();
    reg.gauge("harl_simd_backend")
        .set(stats.backend.code() as f64);
    reg.gauge(&format!(
        "harl_simd_backend_info{{backend=\"{}\"}}",
        stats.backend.name()
    ))
    .set(1.0);
    reg.gauge("harl_simd_gemm_calls")
        .set(stats.gemm_calls as f64);
    reg.gauge("harl_simd_score_batch_calls")
        .set(stats.score_batch_calls as f64);
    reg.gauge("harl_simd_tanh_calls")
        .set(stats.tanh_calls as f64);
    reg.gauge("harl_simd_exp_calls").set(stats.exp_calls as f64);
    reg.gauge("harl_simd_ln_calls").set(stats.ln_calls as f64);
    reg.gauge("harl_simd_vector_lane_fraction")
        .set(stats.vector_fraction());
}

/// One page of the shared pool for a federated puller.
fn pool_segment(shared: &Arc<Shared>, from: u64) -> Response {
    match shared.pool_handle() {
        Some(pool) => {
            let (total, records) = pool.segment(from, federation::SYNC_PAGE);
            harl_obs::global()
                .counter("harl_serve_pool_sync_served_records_total")
                .add(records.len() as u64);
            Response::PoolSegment { total, records }
        }
        None => Response::error(ErrorCode::ShuttingDown, "pool is closed"),
    }
}

fn submit(shared: &Arc<Shared>, spec: JobSpec) -> Response {
    if shared.shutdown.load(Ordering::SeqCst) {
        return Response::error(ErrorCode::ShuttingDown, "daemon is shutting down");
    }
    if let Err(m) = spec.validate() {
        return Response::error(ErrorCode::InvalidSpec, m);
    }
    let id = format!("j{:06}", shared.next_id.fetch_add(1, Ordering::SeqCst));
    let dir = shared.job_dir(&id);
    let persisted = fs::create_dir_all(&dir)
        .map_err(ServeError::from)
        .and_then(|()| {
            let json = serde_json::to_string_pretty(&spec)
                .map_err(|e| ServeError::Protocol(e.to_string()))?;
            fs::write(dir.join("job.json"), json).map_err(ServeError::from)
        });
    if let Err(e) = persisted {
        return Response::error(ErrorCode::Internal, format!("persisting job: {e}"));
    }
    let priority = spec.priority;
    shared
        .jobs
        .lock()
        .expect("jobs poisoned")
        .insert(id.clone(), JobEntry::new(spec));
    match shared.queue.push(id.clone(), priority) {
        Ok(()) => {
            job_counter("submitted").inc();
            shared.update_queue_gauge();
            Response::Submitted { id }
        }
        Err(err) => {
            // roll the registration back: the job was never accepted
            shared.jobs.lock().expect("jobs poisoned").remove(&id);
            let _ = fs::remove_dir_all(&dir);
            match err {
                PushError::Full { capacity } => Response::Busy {
                    queued: shared.queue.len() as u64,
                    capacity: capacity as u64,
                },
                PushError::Closed => {
                    Response::error(ErrorCode::ShuttingDown, "daemon is shutting down")
                }
            }
        }
    }
}

fn status(shared: &Arc<Shared>, id: &str) -> Response {
    match shared.jobs.lock().expect("jobs poisoned").get(id) {
        Some(e) => Response::Status(e.view(id)),
        None => Response::error(ErrorCode::UnknownJob, format!("no job `{id}`")),
    }
}

fn result(shared: &Arc<Shared>, id: &str) -> Response {
    let jobs = shared.jobs.lock().expect("jobs poisoned");
    let Some(e) = jobs.get(id) else {
        return Response::error(ErrorCode::UnknownJob, format!("no job `{id}`"));
    };
    match (e.state, &e.outcome) {
        (JobState::Done, Some(outcome)) => Response::Outcome(outcome.clone()),
        (JobState::Failed, _) => Response::error(
            ErrorCode::JobFailed,
            e.error.clone().unwrap_or_else(|| "job failed".into()),
        ),
        (state, _) => Response::error(
            ErrorCode::NotFinished,
            format!("job `{id}` is {}", state.name()),
        ),
    }
}

fn cancel(shared: &Arc<Shared>, id: &str) -> Response {
    let (was_queued, known) = {
        let jobs = shared.jobs.lock().expect("jobs poisoned");
        match jobs.get(id) {
            None => (false, false),
            Some(e) if e.state.is_terminal() => {
                return Response::error(
                    ErrorCode::BadRequest,
                    format!("job `{id}` already {}", e.state.name()),
                );
            }
            Some(e) => {
                e.cancel.store(true, Ordering::SeqCst);
                (e.state == JobState::Queued, true)
            }
        }
    };
    if !known {
        return Response::error(ErrorCode::UnknownJob, format!("no job `{id}`"));
    }
    if was_queued {
        // never started: settle it immediately (the queue pop will skip it)
        shared.mark_cancelled(id);
    }
    Response::Cancelled { id: id.to_string() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    /// A restarted daemon replaces the previous run's `serve.addr`. Done
    /// in place (truncate, then write), a reader that already opened the
    /// file would read an empty, partial or spliced address; a rename
    /// leaves what it holds complete.
    #[test]
    fn republishing_serve_addr_leaves_an_open_readers_file_whole() {
        let root = std::env::temp_dir().join(format!("harl-serve-addr-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("mkdir");
        let path = root.join("serve.addr");

        publish_addr(&root, "127.0.0.1:1111".parse().unwrap()).expect("first publish");
        let mut held = fs::File::open(&path).expect("open");
        publish_addr(&root, "127.0.0.1:22222".parse().unwrap()).expect("second publish");

        let mut old = String::new();
        held.read_to_string(&mut old).expect("read held");
        assert_eq!(
            old, "127.0.0.1:1111\n",
            "the held file was written in place"
        );
        assert_eq!(fs::read_to_string(&path).unwrap(), "127.0.0.1:22222\n");
        assert!(
            !root.join("serve.addr.tmp").exists(),
            "tmp file left behind"
        );
        let _ = fs::remove_dir_all(&root);
    }
}
