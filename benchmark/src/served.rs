//! The served-job path: an in-process daemon on a scratch root, one
//! closed-loop client over loopback, and the three jobs of `served_jobs`
//! (cold, warm-started from the pool, stopped and resumed).

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use harl_repro::harl::{SessionCheckpoint, CHECKPOINT_VERSION};
use harl_repro::prelude::*;
use harl_repro::serve::{
    Client, Daemon, JobOutcome, JobSpec, JobState, JobView, Preset, ServeConfig, TunerKind,
};

use crate::calib::Calibrator;
use crate::search::{Leg, LegResult, Probe, Task, THREADS};

/// Pause between two status polls of a waiting client.
const POLL: Duration = Duration::from_millis(5);

/// Operations attempted and failed: wire calls and checkpoint writes here,
/// measured trials and result checks in `main`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Counts one operation and passes its result through.
    pub fn call<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        r: Result<T, E>,
    ) -> Result<T, String> {
        self.attempted += 1;
        r.map_err(|e| {
            self.failed += 1;
            format!("{what}: {e}")
        })
    }

    /// Counts one result check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    pub fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Client-side timings of one repetition, milliseconds.
#[derive(Debug, Default, Clone)]
pub struct ServeTimers {
    pub submit_ack_ms: Vec<f64>,
    /// Submit → first status reply that says `Running`.
    pub queue_wait_ms: Vec<f64>,
    pub result_fetch_ms: Vec<f64>,
    /// Status round trips while the polled job was running.
    pub status_rtt_ms: Vec<f64>,
    /// `Daemon::start` on the root the stopped job was left in.
    pub recovery_start_ms: f64,
    /// That restart → a status reply `Running` with `resumed = true`.
    pub resume_ms: f64,
    /// Pool records the warm job replayed before its first fresh trial.
    pub warm_records: u64,
    /// Status round trips with no job running (traced runs only).
    pub idle_status_rtt_ms: Vec<f64>,
}

/// One repetition of `served_jobs`.
pub struct ServedRep {
    /// First `Daemon::start` → resumed job's result in hand, less the idle
    /// polls of a traced run.
    pub wall_s: f64,
    /// Submit → result of the cold job.
    pub turnaround_s: f64,
    /// Outcomes in leg order: cold, warm, resumed.
    pub outcomes: Vec<JobOutcome>,
    pub timers: ServeTimers,
    pub ops: Ops,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The wire spec of a served leg: HARL at the `fast` preset on the CPU
/// model, the width every other workload uses.
pub fn job_spec(leg: &Leg) -> JobSpec {
    let Task::Spec(workload) = &leg.task else {
        panic!("served leg `{}` must name a wire workload", leg.name);
    };
    JobSpec {
        workload: workload.clone(),
        tuner: TunerKind::Harl,
        preset: Preset::Fast,
        hardware: "cpu".to_string(),
        trials: leg.trials,
        priority: 0,
        target_ms: Some(leg.target_ms),
        parallelism: Some(ParallelismOpts::uniform(THREADS)),
        finetune: false,
    }
}

/// Runs `f` on a fresh scratch directory under `<dir>/out/tmp`, unique in
/// this process and across concurrent runs, and removes it afterwards.
pub fn with_scratch<T>(dir: &Path, f: impl FnOnce(&Path) -> T) -> T {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let root = dir
        .join("out")
        .join("tmp")
        .join(format!("{}-{n}", std::process::id()));
    let out = f(&root);
    // scratch either way; a failed removal only leaves litter
    let _ = std::fs::remove_dir_all(&root);
    out
}

/// Pause between two samples of the calibration kernel taken by the
/// waiting client: about a tenth of its time, so the second core stays
/// free for the job's own threads.
const SAMPLE_EVERY: Duration = Duration::from_millis(200);

struct Session<'a> {
    client: Client,
    timers: &'a mut ServeTimers,
    ops: &'a mut Ops,
    /// Timed runs: the kernel is sampled while waiting for a job, so that
    /// the samples cover the same stretch of time as the job does.
    calibrator: Option<&'a mut Calibrator>,
    sampled: Instant,
}

impl Session<'_> {
    /// Submits `spec` and polls until the job is done or `stop` says so;
    /// returns the job id and whether it ran to completion.
    fn submit_and_poll(
        &mut self,
        spec: &JobSpec,
        mut stop: impl FnMut(&JobView) -> bool,
    ) -> Result<(String, bool), String> {
        let t0 = Instant::now();
        let id = self.ops.call("submit", self.client.submit(spec))?;
        self.timers.submit_ack_ms.push(ms(t0.elapsed()));
        let done = self.poll(&id, Some(t0), &mut stop)?;
        Ok((id, done))
    }

    fn poll(
        &mut self,
        id: &str,
        submitted: Option<Instant>,
        stop: &mut impl FnMut(&JobView) -> bool,
    ) -> Result<bool, String> {
        let mut seen_running = false;
        loop {
            let t = Instant::now();
            let view = self.ops.call("status", self.client.status(id))?;
            let rtt = ms(t.elapsed());
            match view.state {
                JobState::Done => return Ok(true),
                JobState::Failed | JobState::Cancelled => {
                    self.ops.failed += 1;
                    return Err(format!("job {id} ended {:?}: {:?}", view.state, view.error));
                }
                JobState::Running => {
                    if let (false, Some(t0)) = (seen_running, submitted) {
                        self.timers.queue_wait_ms.push(ms(t0.elapsed()));
                    }
                    seen_running = true;
                    self.timers.status_rtt_ms.push(rtt);
                }
                JobState::Queued => {}
            }
            if stop(&view) {
                return Ok(false);
            }
            match &mut self.calibrator {
                Some(cal) if self.sampled.elapsed() >= SAMPLE_EVERY => {
                    cal.sample();
                    self.sampled = Instant::now();
                }
                _ => std::thread::sleep(POLL),
            }
        }
    }

    fn result(&mut self, id: &str) -> Result<JobOutcome, String> {
        let t = Instant::now();
        let outcome = self.ops.call("result", self.client.result(id))?;
        self.timers.result_fetch_ms.push(ms(t.elapsed()));
        Ok(outcome)
    }
}

fn start_daemon(root: &Path, ops: &mut Ops) -> Result<Daemon, String> {
    let mut cfg = ServeConfig::new(root);
    cfg.workers = 1;
    ops.call("daemon start", Daemon::start(cfg))
}

/// Runs the three jobs once on a fresh root under `dir`. `idle_polls`
/// status calls are made while no job runs (after the warm job), off the
/// clock. The calibration kernel, if any, is sampled by the client while it
/// waits for a job.
pub fn run_rep(
    dir: &Path,
    legs: &[Leg],
    idle_polls: usize,
    calibrator: Option<&mut Calibrator>,
) -> Result<ServedRep, String> {
    with_scratch(dir, |root| run_rep_in(root, legs, idle_polls, calibrator))
}

fn run_rep_in(
    root: &Path,
    legs: &[Leg],
    idle_polls: usize,
    mut calibrator: Option<&mut Calibrator>,
) -> Result<ServedRep, String> {
    let [cold, warm, resumed] = legs else {
        return Err(format!("served_jobs has three legs, got {}", legs.len()));
    };
    let mut timers = ServeTimers::default();
    let mut ops = Ops::default();
    let mut outcomes = Vec::new();
    let never = |_: &JobView| false;
    if let Some(cal) = calibrator.as_mut() {
        cal.burst();
    }
    let t0 = Instant::now();
    let daemon = start_daemon(root, &mut ops)?;
    let mut s = Session {
        client: Client::new(daemon.addr().to_string()),
        timers: &mut timers,
        ops: &mut ops,
        calibrator,
        sampled: Instant::now(),
    };

    let t_cold = Instant::now();
    let (id, _) = s.submit_and_poll(&job_spec(cold), never)?;
    outcomes.push(s.result(&id)?);
    let turnaround_s = t_cold.elapsed().as_secs_f64();

    let (id, _) = s.submit_and_poll(&job_spec(warm), never)?;
    outcomes.push(s.result(&id)?);
    s.timers.warm_records = outcomes[1].warm_records;

    let t_idle = Instant::now();
    for _ in 0..idle_polls {
        let t = Instant::now();
        s.ops.call("idle status", s.client.status(&id))?;
        s.timers.idle_status_rtt_ms.push(ms(t.elapsed()));
        std::thread::sleep(POLL);
    }
    let paused = t_idle.elapsed();

    // stop the third job once at least half its rounds are checkpointed,
    // then bring a new daemon up on the same root and let it finish
    let spec = job_spec(resumed);
    let half = (resumed.trials / resumed.round_size()).div_ceil(2);
    let (id, done) = s.submit_and_poll(&spec, |v| v.rounds_done >= half)?;
    if done {
        return Err(format!("job {id} finished before it could be stopped"));
    }
    daemon.shutdown();
    daemon.wait();

    let t_restart = Instant::now();
    let daemon = start_daemon(root, s.ops)?;
    s.timers.recovery_start_ms = ms(t_restart.elapsed());
    s.client = Client::new(daemon.addr().to_string());
    let mut resume_ms = None;
    s.poll(&id, None, &mut |v: &JobView| {
        if v.state == JobState::Running && v.resumed && resume_ms.is_none() {
            resume_ms = Some(ms(t_restart.elapsed()));
        }
        false
    })?;
    outcomes.push(s.result(&id)?);
    let wall_s = (t0.elapsed() - paused).as_secs_f64();
    s.timers.resume_ms = resume_ms.unwrap_or(0.0);
    let was_resumed = outcomes[2].resumed;
    s.ops
        .check("stopped job resumed from its checkpoint", was_resumed);

    daemon.shutdown();
    daemon.wait();
    Ok(ServedRep {
        wall_s,
        turnaround_s,
        outcomes,
        timers,
        ops,
    })
}

/// Set-up of `served_jobs`: daemon up on a fresh root, one one-round job
/// through the client, daemon down.
pub fn warmup(dir: &Path, leg: &Leg) -> Result<(), String> {
    with_scratch(dir, |root| {
        let mut ops = Ops::default();
        let mut timers = ServeTimers::default();
        let daemon = start_daemon(root, &mut ops)?;
        let mut s = Session {
            client: Client::new(daemon.addr().to_string()),
            timers: &mut timers,
            ops: &mut ops,
            calibrator: None,
            sampled: Instant::now(),
        };
        let spec = JobSpec {
            trials: leg.round_size(),
            ..job_spec(leg)
        };
        let (id, _) = s.submit_and_poll(&spec, |_| false)?;
        s.result(&id)?;
        daemon.shutdown();
        daemon.wait();
        Ok(())
    })
}

fn digest(
    best_ms: f64,
    trials: u64,
    to_best: i64,
    to_target: i64,
    sim_s: f64,
    warm: u64,
) -> String {
    format!(
        "{:016x}:{trials}:{to_best}:{to_target}:{:016x}:{warm}",
        best_ms.to_bits(),
        sim_s.to_bits()
    )
}

/// The digest of one served job: every deterministic field of its outcome.
pub fn outcome_digest(o: &JobOutcome) -> String {
    digest(
        o.best_ms,
        o.trials,
        o.trials_to_best,
        o.trials_to_target.unwrap_or(-1),
        o.sim_seconds,
        o.warm_records,
    )
}

/// The digest a job on `leg`'s spec must have if it ran exactly like
/// `reference`, the same spec run in process by `search::run_leg` with no
/// warm-start records: the fields are derived the way a daemon worker
/// derives them.
pub fn reference_digest(leg: &Leg, reference: &LegResult) -> String {
    let first = |target_s: f64| {
        reference
            .trace
            .first_reaching(target_s)
            .map_or(-1, |(t, _)| t as i64)
    };
    digest(
        reference.best_s * 1e3,
        reference.trials,
        first(reference.best_s),
        first(leg.target_ms * (1.0 + 1e-7) / 1e3),
        reference.sim_s,
        0,
    )
}

/// Timings of the store-backed mirror of the cold job (traced runs).
#[derive(Debug, Default)]
pub struct MirrorResult {
    /// All rounds and all `checkpoint_now` calls, seconds.
    pub wall_s: f64,
    pub trials: u64,
    pub round_ms: Vec<f64>,
    /// `TuningSession::checkpoint_now` per round, the path the daemon pays.
    pub checkpoint_ms: Vec<f64>,
    /// The same checkpoint taken apart: `tuner_state()`, `to_string`,
    /// `save_checkpoint`.
    pub build_ms: Vec<f64>,
    pub encode_ms: Vec<f64>,
    pub write_ms: Vec<f64>,
    pub checkpoint_bytes: u64,
    /// Load, parse and restore of the first round's checkpoint into a
    /// fresh tuner, and that checkpoint's size. The first, because the
    /// program's JSON parser is quadratic in the text (see README): the
    /// last round's checkpoint would take longer than the whole run.
    pub restore_ms: f64,
    pub restore_bytes: u64,
    pub ops: Ops,
}

/// Runs the cold job's spec in process the way a daemon worker does — a
/// store attached, a checkpoint after every round — with timers around
/// each public call. When `split` is set, each checkpoint is also taken
/// apart into build, encode and write; that extra work is kept out of
/// `wall_s` and sits under its own `bench_split` span.
pub fn mirror(
    dir: &Path,
    leg: &Leg,
    probe: &Probe,
    split: bool,
) -> Result<(MirrorResult, Vec<MeasureRecord>), String> {
    with_scratch(dir, |root| mirror_in(root, leg, probe, split))
}

/// A fresh tuner on `spec` in a store-backed session, built the way
/// `harl_serve`'s worker builds it; the caller checkpoints by hand.
fn launch_like_a_worker<'m>(
    spec: &JobSpec,
    measurer: &'m Measurer,
    store: Arc<RecordStore>,
    probe: &Probe,
) -> Result<TuningSession<'m>, harl_repro::store::StoreError> {
    let mut tuner =
        HarlOperatorTuner::new(spec.workload.build(), measurer, spec.preset.harl_config());
    tuner.set_tracer(probe.tracer.clone());
    TuningSession::builder()
        .job_key(spec.job_key())
        .checkpoint_every(0)
        .parallelism(ParallelismOpts::uniform(THREADS))
        .launch(Box::new(tuner), measurer, Some(store))
}

/// What a resuming session does with the store's checkpoint, step by
/// step through the same public calls: load the text, parse it, restore a
/// fresh tuner and measurer from it. Milliseconds.
fn time_restore(spec: &JobSpec, store: &RecordStore, ops: &mut Ops) -> Result<f64, String> {
    let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let mut tuner =
        HarlOperatorTuner::new(spec.workload.build(), &measurer, spec.preset.harl_config());
    let t = Instant::now();
    let json = ops
        .call("checkpoint load", store.load_checkpoint())?
        .ok_or("the checkpoint just written is gone")?;
    let ck: SessionCheckpoint = ops.call("checkpoint parse", serde_json::from_str(&json))?;
    measurer.restore_state(&ck.measurer);
    Tuner::restore(&mut tuner, ck.tuner);
    Ok(ms(t.elapsed()))
}

fn mirror_in(
    root: &Path,
    leg: &Leg,
    probe: &Probe,
    split: bool,
) -> Result<(MirrorResult, Vec<MeasureRecord>), String> {
    let spec = job_spec(leg);
    let mut m = MirrorResult::default();
    let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let store = Arc::new(
        m.ops
            .call("store open", RecordStore::open(root.join("store")))?,
    );
    let session = launch_like_a_worker(&spec, &measurer, store.clone(), probe);
    let mut session = m.ops.call("session launch", session)?;
    while session.trials_used() < spec.trials {
        let t = Instant::now();
        let left = (spec.trials - session.trials_used()) as usize;
        if m.ops.call("round", session.round(left))? == 0 {
            break;
        }
        m.round_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        {
            let _span = probe.tracer.span("checkpoint");
            m.ops.call("checkpoint write", session.checkpoint_now())?;
        }
        m.checkpoint_ms.push(ms(t.elapsed()));
        if split {
            let _span = probe.tracer.span("bench_split");
            let t = Instant::now();
            let state = session.tuner_state();
            m.build_ms.push(ms(t.elapsed()));
            let ck = SessionCheckpoint {
                version: CHECKPOINT_VERSION,
                job_key: Some(spec.job_key()),
                rounds_done: session.rounds_done(),
                finetuned: false,
                measurer: measurer.state(),
                tuner: state,
            };
            let t = Instant::now();
            let json = m
                .ops
                .call("checkpoint encode", serde_json::to_string(&ck))?;
            m.encode_ms.push(ms(t.elapsed()));
            m.checkpoint_bytes = json.len() as u64;
            let t = Instant::now();
            m.ops
                .call("checkpoint write", store.save_checkpoint(&json))?;
            m.write_ms.push(ms(t.elapsed()));
            if m.restore_bytes == 0 {
                m.restore_bytes = json.len() as u64;
                m.restore_ms = time_restore(&spec, &store, &mut m.ops)?;
            }
        }
    }
    m.wall_s = (m.round_ms.iter().sum::<f64>() + m.checkpoint_ms.iter().sum::<f64>()) / 1e3;
    m.trials = session.trials_used();
    m.ops.call("session finish", session.finish())?;
    Ok((m, store.snapshot()))
}
