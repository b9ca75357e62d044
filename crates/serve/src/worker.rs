//! Worker threads: pop jobs, run them as persistent tuning sessions.
//!
//! Each job gets its own `RecordStore` directory, so it checkpoints every
//! round and survives daemon death. Before the first fresh trial the
//! worker replays similarity-matched records from the daemon's shared
//! pool, so later jobs on structurally similar workloads warm-start off
//! earlier ones. Cancellation and graceful shutdown are both cooperative:
//! the session's round-boundary controller sees the flag, checkpoints,
//! and stops.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use harl_core::ansor::{AnsorConfig, AnsorTuner, FlextensorConfig, FlextensorTuner};
use harl_core::mcts::{FinetuneConfig, MctsConfig, MctsTuner};
use harl_core::{HarlOperatorTuner, SessionControl, Tuner, TuningSession};
use harl_store::RecordStore;
use harl_tensor_sim::{Hardware, MeasureConfig, Measurer};

use crate::error::ServeError;
use crate::job::{JobOutcome, JobState, TunerKind};
use crate::server::{job_counter, Shared};

/// Pops and runs jobs until the queue closes (graceful shutdown).
pub(crate) fn worker_loop(shared: &Arc<Shared>) {
    while let Some(id) = shared.queue.pop() {
        shared.update_queue_gauge();
        let claimed = {
            let mut jobs = shared.jobs.lock().expect("jobs poisoned");
            match jobs.get_mut(&id) {
                // cancelled (or otherwise settled) while still queued
                Some(e) if e.state != JobState::Queued => false,
                Some(e) if e.cancel.load(Ordering::SeqCst) => false,
                Some(e) => {
                    e.state = JobState::Running;
                    true
                }
                None => false,
            }
        };
        if !claimed {
            continue;
        }
        // a search that panics fails its job, not the worker: the reason
        // lands in failed.txt and the worker takes the next job
        let failure = match panic::catch_unwind(AssertUnwindSafe(|| run_job(shared, &id))) {
            Ok(Ok(())) => None,
            Ok(Err(e)) => Some(e.to_string()),
            Err(payload) => Some(format!("search panicked: {}", panic_message(&*payload))),
        };
        if let Some(message) = failure {
            shared.mark_failed(&id, &message);
        }
    }
}

/// The message a `panic!` carried (its payload is a `&str` or a `String`).
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    (payload.downcast_ref::<&str>().copied())
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("a payload that is not a message")
}

fn run_job(shared: &Arc<Shared>, id: &str) -> Result<(), ServeError> {
    let (spec, cancel) = {
        let jobs = shared.jobs.lock().expect("jobs poisoned");
        let e = jobs
            .get(id)
            .ok_or_else(|| ServeError::Job(format!("job `{id}` vanished")))?;
        (e.spec.clone(), e.cancel.clone())
    };

    let graph = spec.workload.build();
    let hardware = Hardware::from_name(&spec.hardware)
        .ok_or_else(|| ServeError::Job(format!("unknown hardware `{}`", spec.hardware)))?;
    let measurer = Measurer::new(hardware, MeasureConfig::default());
    let store = Arc::new(RecordStore::open(shared.job_dir(id).join("store"))?);
    let warm_pool = shared
        .pool_handle()
        .map(|pool| pool.matching(graph.similarity_key()))
        .unwrap_or_default();

    // per-job trace: with HARL_TRACE on, each job writes its own
    // jobs/<id>/trace.jsonl (the global HARL_TRACE_FILE would interleave
    // concurrent jobs). Tracing failures never take the job down.
    let tracer = if harl_obs::Tracer::env_enabled() {
        match harl_obs::Tracer::to_file(&shared.job_dir(id).join("trace.jsonl")) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("harl-serve: cannot open trace for job {id}: {e}; tracing disabled");
                harl_obs::Tracer::disabled()
            }
        }
    } else {
        harl_obs::Tracer::disabled()
    };
    let _job_span = tracer.span_with("job", &[("id", id.into())]);

    let mut tuner: Box<dyn Tuner + '_> = match spec.tuner {
        TunerKind::Harl => Box::new(HarlOperatorTuner::new(
            graph,
            &measurer,
            spec.preset.harl_config(),
        )),
        TunerKind::Ansor => Box::new(AnsorTuner::new(graph, &measurer, AnsorConfig::default())),
        TunerKind::Flextensor => Box::new(FlextensorTuner::new(
            graph,
            &measurer,
            FlextensorConfig::default(),
        )),
        TunerKind::Mcts => Box::new(MctsTuner::new(graph, &measurer, MctsConfig::default())),
    };
    tuner.set_tracer(tracer.clone());
    let mut session = TuningSession::builder()
        .job_key(spec.job_key())
        .warm_pool(warm_pool)
        .checkpoint_every(shared.cfg.checkpoint_every)
        .launch(tuner, &measurer, Some(store.clone()))?;

    let resumed = session.resumed();
    if resumed {
        job_counter("resumed").inc();
    }
    let warm_records = session.warm_records() as u64;
    {
        let mut jobs = shared.jobs.lock().expect("jobs poisoned");
        if let Some(e) = jobs.get_mut(id) {
            e.resumed = resumed;
            e.warm_records = warm_records;
            e.trials_used = session.trials_used();
            e.rounds_done = session.rounds_done();
            e.best_latency = session.best_latency();
        }
    }

    // `run_with` hands out exactly the *remaining* budget, so a resumed
    // job replays the same round(budget) call sequence the uninterrupted
    // run would have made — that is what makes restart-resume bit-equal.
    let remaining = spec.trials.saturating_sub(session.trials_used());
    let outcome = session.run_with(remaining, |p| {
        // Round boundary: the session is about to go back into sketch
        // generation + measurement. Holding any daemon lock across that
        // would stall the other workers and every status request.
        harl_check::assert_lock_free("session round boundary");
        {
            let mut jobs = shared.jobs.lock().expect("jobs poisoned");
            if let Some(e) = jobs.get_mut(id) {
                e.trials_used = p.trials_used;
                e.rounds_done = p.rounds_done;
                e.best_latency = p.best_latency;
            }
        }
        if cancel.load(Ordering::SeqCst) || shared.shutdown.load(Ordering::SeqCst) {
            SessionControl::Stop
        } else {
            SessionControl::Continue
        }
    })?;

    // scoring counters live on the tuner (outside checkpoint state), so
    // they are only readable between rounds — snapshot them post-run
    let score_stats = session.score_stats().copied();
    {
        let mut jobs = shared.jobs.lock().expect("jobs poisoned");
        if let Some(e) = jobs.get_mut(id) {
            e.score_stats = score_stats;
        }
    }

    if outcome.stopped {
        if cancel.load(Ordering::SeqCst) {
            // cancelled: the job is settled, so the checkpoint goes too
            session.finish()?;
            shared.mark_cancelled(id);
        } else {
            // graceful shutdown: keep the checkpoint (drop, don't finish)
            // and put the job back in line for the next daemon
            drop(session);
            let mut jobs = shared.jobs.lock().expect("jobs poisoned");
            if let Some(e) = jobs.get_mut(id) {
                e.state = JobState::Queued;
            }
        }
        return Ok(());
    }

    // completed: optionally descend from the best schedule before the
    // metrics are collected. Never on the stopped path above — a resumed
    // job must replay the search first, then fine-tune exactly once.
    let finetune_trials = if spec.finetune {
        let cfg = FinetuneConfig {
            max_trials: (spec.trials / 4).max(8) as usize,
            ..Default::default()
        };
        cfg.validate()
            .map_err(|e| ServeError::Job(format!("finetune config: {e}")))?;
        Some(session.then_finetune(&cfg)?.trials)
    } else {
        None
    };

    // collect the quickstart-style metrics, settle, and donate the job's
    // records to the shared pool for future warm-starts
    let best = session.best_latency();
    let trials_to_best = session
        .trace()
        .and_then(|t| t.first_reaching(best))
        .map(|(t, _)| t as i64)
        .unwrap_or(-1);
    let trials_to_target = spec.target_ms.map(|target| {
        // tiny relative tolerance absorbs decimal truncation of reported ms
        session
            .trace()
            .and_then(|t| t.first_reaching(target * (1.0 + 1e-7) / 1e3))
            .map(|(t, _)| t as i64)
            .unwrap_or(-1)
    });
    let payload = JobOutcome {
        id: id.to_string(),
        workload: spec.workload.summary(),
        tuner: spec.tuner.name().to_string(),
        best_ms: best * 1e3,
        trials: session.trials_used(),
        trials_to_best,
        trials_to_target,
        warm_records,
        resumed,
        sim_seconds: measurer.sim_seconds(),
        score_stats,
        finetune_trials,
    };
    session.finish()?;
    // append_unique keeps the pool duplicate-free even when a federated
    // peer already pulled and re-donated some of these records
    if let Some(pool) = shared.pool_handle() {
        for record in store.snapshot() {
            let _ = pool.append_unique(record);
        }
    }
    let json =
        serde_json::to_string_pretty(&payload).map_err(|e| ServeError::Protocol(e.to_string()))?;
    std::fs::write(shared.job_dir(id).join("result.json"), json)?;
    {
        let mut jobs = shared.jobs.lock().expect("jobs poisoned");
        if let Some(e) = jobs.get_mut(id) {
            e.state = JobState::Done;
            e.trials_used = payload.trials;
            e.best_latency = best;
            e.outcome = Some(payload);
        }
    }
    job_counter("completed").inc();
    Ok(())
}
