//! The unified tuner session API.
//!
//! A searcher has two faces. Typed, per searcher: a
//! [`Proposer`] (its config, its state struct, its propose
//! step) inside the one tuner shell [`Searcher`], which is what tests,
//! reports and the network tuner hold. Erased, per session: [`Tuner`], the
//! object-safe handle with a common round/checkpoint/restore surface over
//! the shared [`SearchCore`], whose state is the [`TunerState`] enum. Its
//! one impl over every `Searcher<'_, P>`, below, is the whole bridge
//! between the two.
//!
//! [`TuningSession`] drives any `dyn Tuner` while persisting everything a
//! deployment wants kept between runs into a [`RecordStore`] directory:
//!
//! * every hardware measurement as an append-only JSONL record (via the
//!   measurer's [`RecordSink`] hook),
//! * periodic session checkpoints (tuner + measurer state) so an
//!   interrupted run resumes deterministically, and
//! * warm-starts: replaying matching prior records pre-trains the cost
//!   model and seeds the search before any fresh trial is spent.

use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use serde::de::{self, DeError, Value};
use serde::ser::JsonWriter;
use serde::{Deserialize, Serialize};

use harl_gbt::ScoreStats;
use harl_par::ParallelismOpts;
use harl_store::{MeasureRecord, RecordStore, StoreError};
use harl_tensor_sim::{Measurer, MeasurerState, TuneTrace};

use crate::ansor::{AnsorTunerState, FlextensorTunerState};
use crate::mcts::{CdTunerState, FinetuneConfig, MctsTunerState};
use crate::search::{Proposer, SearchCore, Searcher};
use crate::tuner::HarlTunerState;

/// Serialized search state of any [`Tuner`]: one variant per
/// [`Proposer::State`].
// checkpoints are created once per round, so variant-size skew is irrelevant
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum TunerState {
    /// State of a [`crate::HarlOperatorTuner`].
    Harl(HarlTunerState),
    /// State of an [`crate::ansor::AnsorTuner`].
    Ansor(AnsorTunerState),
    /// State of a [`crate::ansor::FlextensorTuner`].
    Flextensor(FlextensorTunerState),
    /// State of an [`crate::mcts::MctsTuner`].
    Mcts(MctsTunerState),
    /// State of a [`crate::mcts::CdTuner`].
    Cd(CdTunerState),
}

impl TunerState {
    /// The tuner name this state belongs to.
    pub fn tuner_name(&self) -> &'static str {
        match self {
            TunerState::Harl(_) => "harl",
            TunerState::Ansor(_) => "ansor",
            TunerState::Flextensor(_) => "flextensor",
            TunerState::Mcts(_) => "mcts",
            TunerState::Cd(_) => "cd",
        }
    }
}

/// Object-safe interface shared by all tuners: what a session, the
/// daemon or a `Box<dyn Tuner>` needs, with the searcher's types erased.
/// Implemented once, for every [`Searcher`] (and for `&mut T`); a new
/// searcher implements [`Proposer`], not this.
///
/// `checkpoint`/`restore` capture only the *mutable* search state; the
/// restore contract is to construct the tuner with the identical workload,
/// config, and seed, then call [`Tuner::restore`] with the saved state.
pub trait Tuner {
    /// Short algorithm name (`"harl"`, `"ansor"`, `"flextensor"`,
    /// `"mcts"`, `"cd"`).
    fn name(&self) -> &str;

    /// The search state every tuner shares: workload, sketches, best
    /// schedule, trial count, trace, lint counters.
    fn core(&self) -> &SearchCore<'_>;

    /// Runs one tuning round with up to `budget` measurements; returns the
    /// trials actually used (0 means the tuner cannot make progress).
    fn round(&mut self, budget: usize) -> usize;

    /// Best latency found so far (seconds; `+inf` before any measurement).
    fn best_latency(&self) -> f64 {
        self.core().best_time
    }

    /// Total hardware measurements consumed.
    fn trials_used(&self) -> u64 {
        self.core().trials_used
    }

    /// Snapshots the mutable search state.
    fn checkpoint(&self) -> TunerState;

    /// Overwrites the mutable search state from a checkpoint.
    ///
    /// # Panics
    /// Panics when `state` belongs to a different tuner kind.
    fn restore(&mut self, state: TunerState);

    /// Replays prior measurement records to seed the search without
    /// spending trials; returns how many records were usable.
    fn warm_start(&mut self, records: &[MeasureRecord]) -> usize;

    /// Coordinate-descent fine-tune pass over the tuner's current best
    /// schedule (arXiv 2406.20037): descend one parameter axis at a time,
    /// keeping only strictly-better measured neighbours, so
    /// [`Tuner::best_latency`] can never regress. Returns the trials
    /// spent.
    fn finetune(&mut self, cfg: &FinetuneConfig) -> u64;

    /// The best-so-far trace (trials / sim-seconds / best time), one point
    /// per round. Drives per-job metrics in serving deployments.
    fn trace(&self) -> Option<&TuneTrace> {
        Some(&self.core().trace)
    }

    /// Counters of the tuner's batched scoring pipeline (batches,
    /// candidates scored), when it has one. Tuners that measure every
    /// candidate on hardware instead of model-scoring return `None`.
    fn score_stats(&self) -> Option<&ScoreStats>;

    /// Attaches a span tracer for phase-level observability. Observation
    /// only: a traced run is bit-identical to an untraced one.
    fn set_tracer(&mut self, tracer: harl_obs::Tracer);
}

// A mutable borrow drives the same way, so callers can keep ownership of
// the concrete tuner (reports need its fields after the session ends).
impl<T: Tuner + ?Sized> Tuner for &mut T {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn core(&self) -> &SearchCore<'_> {
        (**self).core()
    }

    fn round(&mut self, budget: usize) -> usize {
        (**self).round(budget)
    }

    fn checkpoint(&self) -> TunerState {
        (**self).checkpoint()
    }

    fn restore(&mut self, state: TunerState) {
        (**self).restore(state)
    }

    fn warm_start(&mut self, records: &[MeasureRecord]) -> usize {
        (**self).warm_start(records)
    }

    fn finetune(&mut self, cfg: &FinetuneConfig) -> u64 {
        (**self).finetune(cfg)
    }

    fn score_stats(&self) -> Option<&ScoreStats> {
        (**self).score_stats()
    }

    fn set_tracer(&mut self, tracer: harl_obs::Tracer) {
        (**self).set_tracer(tracer)
    }
}

/// A searcher's typed state as its [`TunerState`] variant, and back (or
/// the tuner name of the foreign variant that was offered).
trait Variant: Sized {
    fn wrap(self) -> TunerState;
    fn unwrap(state: TunerState) -> Result<Self, &'static str>;
}

macro_rules! variants {
    ($($variant:ident($state:ty)),*) => {$(
        impl Variant for $state {
            fn wrap(self) -> TunerState {
                TunerState::$variant(self)
            }
            fn unwrap(state: TunerState) -> Result<Self, &'static str> {
                match state {
                    TunerState::$variant(s) => Ok(s),
                    other => Err(other.tuner_name()),
                }
            }
        }
    )*};
}

variants!(
    Harl(HarlTunerState),
    Ansor(AnsorTunerState),
    Flextensor(FlextensorTunerState),
    Mcts(MctsTunerState),
    Cd(CdTunerState)
);

// The one place a typed searcher is erased: every method is the shell's,
// and the state crosses as its `TunerState` variant.
impl<P: Proposer> Tuner for Searcher<'_, P>
where
    P::State: Variant,
{
    fn name(&self) -> &str {
        P::NAME
    }

    fn core(&self) -> &SearchCore<'_> {
        self
    }

    fn round(&mut self, budget: usize) -> usize {
        Searcher::round(self, budget)
    }

    fn checkpoint(&self) -> TunerState {
        self.checkpoint_state().wrap()
    }

    fn restore(&mut self, state: TunerState) {
        match P::State::unwrap(state) {
            Ok(s) => self.restore_state(s),
            Err(other) => panic!("cannot restore {other} state into {}", P::NAME),
        }
    }

    fn warm_start(&mut self, records: &[MeasureRecord]) -> usize {
        Searcher::warm_start(self, records)
    }

    fn finetune(&mut self, cfg: &FinetuneConfig) -> u64 {
        Searcher::finetune(self, cfg)
    }

    fn score_stats(&self) -> Option<&ScoreStats> {
        self.learner().map(|l| l.pipeline.stats())
    }

    fn set_tracer(&mut self, tracer: harl_obs::Tracer) {
        Searcher::set_tracer(self, tracer)
    }
}

/// On-disk session checkpoint: tuner + measurer state plus bookkeeping.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionCheckpoint {
    /// Checkpoint format version.
    pub version: u32,
    /// Identity of the job spec that wrote the checkpoint (see
    /// [`SessionBuilder::job_key`]); `None` when the caller opted out.
    pub job_key: Option<String>,
    /// Session rounds completed when the checkpoint was taken.
    pub rounds_done: u64,
    /// True once [`TuningSession::then_finetune`] has completed, so a
    /// resumed session does not descend a second time. Defaults to `false`
    /// for checkpoints written before the field existed.
    #[serde(default)]
    pub finetuned: bool,
    /// Simulated-measurer state (noise RNG, trial count, sim clock).
    pub measurer: MeasurerState,
    /// Tuner search state.
    pub tuner: TunerState,
}

/// Version of the [`SessionCheckpoint`] JSON payload. Version 3 packs the
/// PPO agent's bulk fields (`harl_nnet`'s `Linear` and `Transition`) into
/// hex strings; a version-2 file is rejected, not migrated — a checkpoint
/// lives only as long as its job.
pub const CHECKPOINT_VERSION: u32 = 3;

/// Configures how a [`TuningSession`] uses its record store.
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    checkpoint_every: u64,
    job_key: Option<String>,
    warm_pool: Vec<MeasureRecord>,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder {
            checkpoint_every: 1,
            job_key: None,
            warm_pool: Vec::new(),
        }
    }
}

impl SessionBuilder {
    /// Writes a checkpoint every `rounds` session rounds (0 disables
    /// periodic checkpoints; default 1).
    pub fn checkpoint_every(mut self, rounds: u64) -> Self {
        self.checkpoint_every = rounds;
        self
    }

    /// Stamps checkpoints with a job identity and guards resumes with it:
    /// a store checkpoint left behind by a *different* job spec (e.g. a
    /// changed workload or config sharing the store directory) is rejected
    /// with a clear error instead of being silently resumed. Sessions
    /// without a job key skip the guard.
    pub fn job_key(mut self, key: impl Into<String>) -> Self {
        self.job_key = Some(key.into());
        self
    }

    /// Additional records (e.g. a daemon's shared cross-job record pool)
    /// replayed into the tuner's warm-start after the store's own records.
    /// Ignored when a checkpoint is resumed.
    pub fn warm_pool(mut self, records: Vec<MeasureRecord>) -> Self {
        self.warm_pool = records;
        self
    }

    /// Accepted and ignored; the search runs on the caller's thread;
    /// removed with the benchmark re-baseline (ROADMAP item 7).
    pub fn parallelism(self, _opts: ParallelismOpts) -> Self {
        self
    }

    /// Builds the session: attaches the store as the measurer's record
    /// sink, then either resumes from the store's checkpoint or warm-starts
    /// the tuner from its records (plus any [`SessionBuilder::warm_pool`]).
    pub fn launch<'m>(
        self,
        tuner: Box<dyn Tuner + 'm>,
        measurer: &'m Measurer,
        store: Option<Arc<RecordStore>>,
    ) -> Result<TuningSession<'m>, StoreError> {
        let mut session = TuningSession {
            tuner,
            measurer,
            store,
            checkpoint_every: self.checkpoint_every,
            rounds_done: 0,
            finetuned: false,
            resumed: false,
            warm_records: 0,
            job_key: self.job_key.clone(),
            saved: false,
            buffer: String::new(),
            writer: None,
        };
        let checkpoint = if let Some(store) = &session.store {
            measurer.set_sink(store.clone() as Arc<dyn harl_tensor_sim::RecordSink>);
            store.load_checkpoint()?
        } else {
            None
        };
        match checkpoint {
            Some(json) => {
                let bad = |e: DeError| StoreError::Format(format!("bad checkpoint: {e}"));
                let value = Value::parse(&json).map_err(bad)?;
                // the version first: another version's payload need not
                // decode under this one's layout
                let version: u32 = de::field(&value, "version").map_err(bad)?;
                if version != CHECKPOINT_VERSION {
                    return Err(StoreError::Format(format!(
                        "unsupported checkpoint version {version} (supported: {CHECKPOINT_VERSION})"
                    )));
                }
                let ck = SessionCheckpoint::deserialize_value(&value).map_err(bad)?;
                if let Some(want) = &self.job_key {
                    if ck.job_key.as_deref() != Some(want.as_str()) {
                        return Err(StoreError::Format(format!(
                            "stale checkpoint: written by job `{}` but this session is job \
                             `{want}`; delete checkpoint.json or use a separate store directory",
                            ck.job_key.as_deref().unwrap_or("<unkeyed>")
                        )));
                    }
                }
                if ck.tuner.tuner_name() != session.tuner.name() {
                    return Err(StoreError::Format(format!(
                        "checkpoint holds {} state but the session tuner is {}",
                        ck.tuner.tuner_name(),
                        session.tuner.name()
                    )));
                }
                measurer.restore_state(&ck.measurer);
                session.tuner.restore(ck.tuner);
                session.rounds_done = ck.rounds_done;
                session.finetuned = ck.finetuned;
                session.resumed = true;
                session.saved = true;
            }
            None => {
                let mut records = match &session.store {
                    Some(store) => store.snapshot(),
                    None => Vec::new(),
                };
                records.extend(self.warm_pool);
                if !records.is_empty() {
                    session.warm_records = session.tuner.warm_start(&records);
                }
            }
        }
        Ok(session)
    }
}

/// Point-in-time view of a running session, handed to [`TuningSession::run_with`]
/// controllers at every round boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionProgress {
    /// Session rounds completed (across resumes).
    pub rounds_done: u64,
    /// Total measurement trials the tuner has consumed (across resumes).
    pub trials_used: u64,
    /// Best latency found so far (seconds; `+inf` before any measurement).
    pub best_latency: f64,
}

/// A [`TuningSession::run_with`] controller's verdict at a round boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionControl {
    /// Keep tuning.
    Continue,
    /// Stop cooperatively: the session checkpoints and returns without
    /// clearing the store, so a later session resumes where this one left
    /// off. Used for cancellation and graceful daemon shutdown.
    Stop,
}

/// What a [`TuningSession::run_with`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Fresh trials used by this call.
    pub trials: u64,
    /// True when the controller answered [`SessionControl::Stop`]. The
    /// controller is consulted before the budget check, so a `Stop` at
    /// the boundary after the last round still reports `true` with the
    /// whole budget spent. The store keeps its checkpoint either way, so
    /// a later session resumes from it; asked for the remaining budget,
    /// as the daemon asks, it runs no further trials.
    pub stopped: bool,
}

/// What a [`TuningSession::then_finetune`] call did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FinetuneOutcome {
    /// Best latency before the descent (seconds).
    pub before: f64,
    /// Best latency after the descent; never worse than `before`.
    pub after: f64,
    /// Fresh measurement trials the descent consumed.
    pub trials: u64,
    /// True when the descent was skipped because this session (or the
    /// checkpoint it resumed from) had already fine-tuned.
    pub skipped: bool,
}

/// Drives one tuner against a measurer, persisting records and checkpoints
/// into an optional [`RecordStore`].
pub struct TuningSession<'m> {
    tuner: Box<dyn Tuner + 'm>,
    measurer: &'m Measurer,
    store: Option<Arc<RecordStore>>,
    checkpoint_every: u64,
    rounds_done: u64,
    finetuned: bool,
    resumed: bool,
    warm_records: usize,
    job_key: Option<String>,
    /// True while the store's checkpoint is this session's state, or will
    /// be once the write in flight lands: after a checkpoint and after a
    /// resume, until the next round or fine-tune.
    saved: bool,
    /// The checkpoint text buffer, reused from one checkpoint to the next;
    /// empty while it is out with the writer.
    buffer: String,
    /// The cadence checkpoint being written behind the rounds, at most
    /// one: it hands back the buffer and the write's result when joined.
    writer: Option<JoinHandle<(String, Result<(), StoreError>)>>,
}

/// `harl_session_checkpoint_wait_seconds`: how long a session's thread
/// waited on its background checkpoint write, one sample per write.
fn checkpoint_wait() -> &'static harl_obs::Histogram {
    static CELL: OnceLock<harl_obs::Histogram> = OnceLock::new();
    CELL.get_or_init(|| {
        harl_obs::global().histogram(
            "harl_session_checkpoint_wait_seconds",
            harl_obs::FINE_SECONDS_BOUNDS,
        )
    })
}

impl<'m> TuningSession<'m> {
    /// Starts configuring a session with the default store behaviour
    /// (resume if possible, otherwise warm-start; checkpoint every round).
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The driven tuner's name.
    pub fn tuner_name(&self) -> &str {
        self.tuner.name()
    }

    /// True when the session resumed from a store checkpoint.
    pub fn resumed(&self) -> bool {
        self.resumed
    }

    /// Records replayed into the tuner by the warm-start (0 when resumed).
    pub fn warm_records(&self) -> usize {
        self.warm_records
    }

    /// Session rounds completed (across resumes).
    pub fn rounds_done(&self) -> u64 {
        self.rounds_done
    }

    /// Best latency found so far.
    pub fn best_latency(&self) -> f64 {
        self.tuner.best_latency()
    }

    /// Total measurement trials the tuner has consumed.
    pub fn trials_used(&self) -> u64 {
        self.tuner.trials_used()
    }

    /// The tuner's best-so-far trace.
    pub fn trace(&self) -> Option<&TuneTrace> {
        self.tuner.trace()
    }

    /// Scoring-pipeline counters of the driven tuner, when it has them.
    pub fn score_stats(&self) -> Option<&ScoreStats> {
        self.tuner.score_stats()
    }

    /// A point-in-time snapshot of the tuner's serializable search state.
    /// Two runs that took the same measurements serialize bit-identically,
    /// which is how kill/resume equivalence is asserted end to end.
    pub fn tuner_state(&self) -> TunerState {
        self.tuner.checkpoint()
    }

    /// Runs one tuning round with up to `budget` measurements, then
    /// checkpoints when the cadence says so. Returns the trials used.
    ///
    /// The cadence checkpoint is written behind: the state is encoded
    /// here, and a writer thread puts the text on disk while the next
    /// round runs. A write that fails is reported by whatever waits for
    /// it next: the next `round`, `run_with`, `checkpoint_now` or
    /// `finish`.
    pub fn round(&mut self, budget: usize) -> Result<usize, StoreError> {
        self.saved = false;
        let used = self.tuner.round(budget);
        if used == 0 {
            return Ok(0);
        }
        self.rounds_done += 1;
        if self.checkpoint_every > 0 && self.rounds_done.is_multiple_of(self.checkpoint_every) {
            self.write_behind()?;
        }
        Ok(used)
    }

    /// Runs rounds until `total_trials` fresh measurements have been used
    /// in this process (resumed trials are not re-counted), then makes
    /// sure the store's checkpoint holds the final state (one write, not
    /// two, when the last round's cadence checkpoint already does).
    /// Returns the trials used.
    pub fn run(&mut self, total_trials: u64) -> Result<u64, StoreError> {
        self.run_with(total_trials, |_| SessionControl::Continue)
            .map(|outcome| outcome.trials)
    }

    /// Like [`TuningSession::run`], but consults `controller` at every
    /// round boundary (before the first round and after each one) with the
    /// session's live progress. Returning [`SessionControl::Stop`] ends the
    /// run cooperatively: a checkpoint is written and the store is left
    /// intact so a later session resumes from this exact point. This is the
    /// hook a serving daemon uses for cancellation, graceful shutdown, and
    /// per-job progress reporting.
    pub fn run_with(
        &mut self,
        total_trials: u64,
        mut controller: impl FnMut(&SessionProgress) -> SessionControl,
    ) -> Result<RunOutcome, StoreError> {
        let mut used_here = 0u64;
        let mut stopped = false;
        loop {
            let progress = SessionProgress {
                rounds_done: self.rounds_done,
                trials_used: self.tuner.trials_used(),
                best_latency: self.tuner.best_latency(),
            };
            if controller(&progress) == SessionControl::Stop {
                stopped = true;
                break;
            }
            if used_here >= total_trials {
                break;
            }
            let remaining = (total_trials - used_here) as usize;
            let used = self.round(remaining)?;
            if used == 0 {
                break;
            }
            used_here += used as u64;
        }
        // the last round's write lands before this returns. At the default
        // cadence it holds this very state, and encoding and writing the
        // same bytes again would buy nothing
        self.join_writer()?;
        if !self.saved {
            self.checkpoint_now()?;
        }
        Ok(RunOutcome {
            trials: used_here,
            stopped,
        })
    }

    /// Runs a coordinate-descent fine-tuning phase on the tuner's current
    /// best schedule (see [`crate::mcts::coordinate_descent`]), then writes a
    /// checkpoint. Composes after *any* search phase — HARL, Ansor,
    /// Flextensor, or MCTS — and never regresses `best_latency`: the
    /// descent only accepts strictly better measured neighbours, so
    /// `after <= before` always holds (pinned by tests). Runs at most once
    /// per session lifecycle: a session resumed from a checkpoint written
    /// after a completed fine-tune skips the descent, keeping the
    /// kill/resume replay bit-identical. A call before anything was
    /// measured has no best schedule to descend from; it spends nothing
    /// and does not use up that one run.
    pub fn then_finetune(&mut self, cfg: &FinetuneConfig) -> Result<FinetuneOutcome, StoreError> {
        let before = self.tuner.best_latency();
        if self.finetuned {
            return Ok(FinetuneOutcome {
                before,
                after: before,
                trials: 0,
                skipped: true,
            });
        }
        let had_best = self.tuner.core().best_schedule.is_some();
        self.saved = false;
        let trials = self.tuner.finetune(cfg);
        let after = self.tuner.best_latency();
        // `!(after > before)` rather than `after <= before`: a never-measured
        // session has `before = after = infinity` (incomparable under <= only
        // for NaN, but infinity == infinity holds) and must not trip the
        // assert; only a strict regression is a contract violation.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        {
            assert!(
                !(after > before),
                "finetune regressed best latency: {before} -> {after}"
            );
        }
        self.finetuned = had_best;
        self.checkpoint_now()?;
        Ok(FinetuneOutcome {
            before,
            after,
            trials,
            skipped: false,
        })
    }

    /// Writes a checkpoint immediately and waits for it (no-op without a
    /// store); a background write still in flight lands first, and its
    /// error, if any, is this call's.
    pub fn checkpoint_now(&mut self) -> Result<(), StoreError> {
        self.join_writer()?;
        let Some(store) = self.store.clone() else {
            return Ok(());
        };
        let json = self.encode();
        let written = store.save_checkpoint(&json);
        self.buffer = json;
        written?;
        self.saved = true;
        Ok(())
    }

    /// The session's state as checkpoint text, in the reused buffer.
    fn encode(&mut self) -> String {
        let ck = SessionCheckpoint {
            version: CHECKPOINT_VERSION,
            job_key: self.job_key.clone(),
            rounds_done: self.rounds_done,
            finetuned: self.finetuned,
            measurer: self.measurer.state(),
            tuner: self.tuner.checkpoint(),
        };
        let mut w = JsonWriter::with_buffer(std::mem::take(&mut self.buffer));
        ck.serialize(&mut w);
        w.finish()
    }

    /// Encodes the state on this thread, then hands the text to a writer
    /// thread (no-op without a store). Encoding stays here: the state
    /// changes with the next round, and a snapshot on the writer would
    /// have to clone it first.
    fn write_behind(&mut self) -> Result<(), StoreError> {
        self.join_writer()?;
        let Some(store) = self.store.clone() else {
            return Ok(());
        };
        let json = self.encode();
        let writer = std::thread::Builder::new()
            .name("harl-checkpoint".into())
            .spawn(move || {
                let written = store.save_checkpoint(&json);
                (json, written)
            })?;
        self.writer = Some(writer);
        self.saved = true;
        Ok(())
    }

    /// Waits for the background write, if one is in flight, and returns
    /// its result; a panic on the writer comes back as an error.
    fn join_writer(&mut self) -> Result<(), StoreError> {
        let Some(writer) = self.writer.take() else {
            return Ok(());
        };
        let waited = Instant::now();
        let joined = writer.join();
        checkpoint_wait().observe(waited.elapsed().as_secs_f64());
        let written = match joined {
            Ok((buffer, written)) => {
                self.buffer = buffer;
                written
            }
            Err(panic) => {
                let why = panic
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("no message");
                Err(StoreError::Io(std::io::Error::other(format!(
                    "checkpoint writer panicked: {why}"
                ))))
            }
        };
        if written.is_err() {
            // the store holds an older state, or none
            self.saved = false;
        }
        written
    }

    /// Removes the store's checkpoint (e.g. after a completed run) and
    /// detaches the record sink, consuming the session. A background
    /// write lands first, so it cannot bring the file back.
    pub fn finish(mut self) -> Result<(), StoreError> {
        self.join_writer()?;
        self.measurer.clear_sink();
        if let Some(store) = &self.store {
            store.clear_checkpoint()?;
        }
        Ok(())
    }
}

impl Drop for TuningSession<'_> {
    /// Lets a background write land, then detaches the record sink so the
    /// measurer stops holding the store (and its single-writer lock) once
    /// the session is gone. Unlike [`TuningSession::finish`], the
    /// checkpoint is left on disk — a dropped-without-finish session is
    /// the crash/interruption path and must stay resumable. A write that
    /// fails here has no caller left to tell; the previous checkpoint
    /// stays, as after a kill.
    fn drop(&mut self) {
        let _ = self.join_writer();
        self.measurer.clear_sink();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ansor::{AnsorConfig, AnsorTuner, FlextensorTuner};
    use crate::config::HarlConfig;
    use crate::mcts::{CdTuner, MctsTuner};
    use crate::tuner::HarlOperatorTuner;
    use harl_tensor_ir::workload;
    use harl_tensor_sim::{Hardware, MeasureConfig};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("harl-session-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn session_records_measurements_to_store() {
        let dir = temp_dir("records");
        let store = Arc::new(RecordStore::open(&dir).unwrap());
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let g = workload::gemm(128, 128, 128);
        let tuner = HarlOperatorTuner::new(g, &measurer, HarlConfig::tiny());
        let mut session = TuningSession::builder()
            .launch(Box::new(tuner), &measurer, Some(store.clone()))
            .unwrap();
        assert!(!session.resumed());
        assert_eq!(session.warm_records(), 0, "store starts empty");
        let used = session.run(16).unwrap();
        assert!(used >= 16);
        assert_eq!(store.len() as u64, measurer.trials());
        assert_eq!(store.dropped_writes(), 0);
        session.finish().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_session_resumes_to_same_best() {
        let dir = temp_dir("resume");
        let g = workload::gemm(256, 256, 256);

        // uninterrupted reference: 48 trials straight through, no store
        let m_ref = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let t_ref = HarlOperatorTuner::new(g.clone(), &m_ref, HarlConfig::tiny());
        let mut s_ref = TuningSession::builder()
            .launch(Box::new(t_ref), &m_ref, None)
            .unwrap();
        s_ref.run(24).unwrap();
        s_ref.run(24).unwrap();
        let best_ref = s_ref.best_latency();

        // same run "killed" after 24 trials, then resumed in a fresh
        // session from the store checkpoint
        let store = Arc::new(RecordStore::open(&dir).unwrap());
        let m1 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let t1 = HarlOperatorTuner::new(g.clone(), &m1, HarlConfig::tiny());
        let mut s1 = TuningSession::builder()
            .launch(Box::new(t1), &m1, Some(store.clone()))
            .unwrap();
        s1.run(24).unwrap();
        drop(s1); // killed: no finish(), checkpoint stays on disk
        drop(store); // last handle gone: the store's writer lock is released

        let store2 = Arc::new(RecordStore::open(&dir).unwrap());
        let m2 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let t2 = HarlOperatorTuner::new(g, &m2, HarlConfig::tiny());
        let mut s2 = TuningSession::builder()
            .launch(Box::new(t2), &m2, Some(store2))
            .unwrap();
        assert!(s2.resumed());
        s2.run(24).unwrap();

        assert_eq!(
            s2.best_latency().to_bits(),
            best_ref.to_bits(),
            "resumed run must match the uninterrupted run bit-for-bit"
        );
        assert_eq!(m2.trials(), m_ref.trials());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_start_pretrains_from_prior_run() {
        let dir = temp_dir("warm");
        let g = workload::gemm(256, 256, 256);

        // first (cold) run fills the store, then finishes cleanly
        let store = Arc::new(RecordStore::open(&dir).unwrap());
        let m1 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let t1 = AnsorTuner::new(g.clone(), &m1, AnsorConfig::default());
        let mut s1 = TuningSession::builder()
            .launch(Box::new(t1), &m1, Some(store))
            .unwrap();
        s1.run(64).unwrap();
        s1.finish().unwrap();

        // second run warm-starts: trained cost model, zero trials spent
        let store2 = Arc::new(RecordStore::open(&dir).unwrap());
        let m2 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let t2 = AnsorTuner::new(g, &m2, AnsorConfig::default());
        let s2 = TuningSession::builder()
            .launch(Box::new(t2), &m2, Some(store2))
            .unwrap();
        assert!(!s2.resumed(), "finished runs leave no checkpoint");
        assert!(s2.warm_records() > 0);
        assert_eq!(s2.trials_used(), 0);
        assert_eq!(m2.trials(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_tuner_checkpoint_is_rejected() {
        let dir = temp_dir("mismatch");
        let g = workload::gemm(128, 128, 128);

        let store = Arc::new(RecordStore::open(&dir).unwrap());
        let m1 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let t1 = HarlOperatorTuner::new(g.clone(), &m1, HarlConfig::tiny());
        let mut s1 = TuningSession::builder()
            .launch(Box::new(t1), &m1, Some(store))
            .unwrap();
        s1.run(8).unwrap(); // leaves a harl checkpoint
        drop(s1); // releases the store handle (and with it the writer lock)

        let store2 = Arc::new(RecordStore::open(&dir).unwrap());
        let m2 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let t2 = AnsorTuner::new(g, &m2, AnsorConfig::default());
        let err = TuningSession::builder().launch(Box::new(t2), &m2, Some(store2));
        assert!(matches!(err, Err(StoreError::Format(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    // `launch` turns the mismatch above into an error before it gets here;
    // a direct caller has only the panic, which must name both kinds
    #[test]
    #[should_panic(expected = "cannot restore ansor state into harl")]
    fn restoring_a_foreign_variant_panics_with_both_names() {
        let m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let g = workload::gemm(128, 128, 128);
        let ansor = AnsorTuner::new(g.clone(), &m, AnsorConfig::default());
        let mut harl = HarlOperatorTuner::new(g, &m, HarlConfig::tiny());
        Tuner::restore(&mut harl, Tuner::checkpoint(&ansor));
    }

    #[test]
    fn stale_checkpoint_from_different_job_spec_is_rejected() {
        let dir = temp_dir("jobkey");
        let g = workload::gemm(128, 128, 128);

        // job A checkpoints mid-run (simulating a panic/kill: no finish())
        let store = Arc::new(RecordStore::open(&dir).unwrap());
        let m1 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let t1 = HarlOperatorTuner::new(g.clone(), &m1, HarlConfig::tiny());
        let mut s1 = TuningSession::builder()
            .job_key("job-a")
            .launch(Box::new(t1), &m1, Some(store))
            .unwrap();
        s1.run(8).unwrap();
        drop(s1);

        // a *different* job spec must not silently resume job A's state
        let store2 = Arc::new(RecordStore::open(&dir).unwrap());
        let m2 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let t2 = HarlOperatorTuner::new(g.clone(), &m2, HarlConfig::tiny());
        let err = TuningSession::builder()
            .job_key("job-b")
            .launch(Box::new(t2), &m2, Some(store2));
        match err {
            Err(StoreError::Format(msg)) => {
                assert!(msg.contains("job-a") && msg.contains("job-b"), "{msg}")
            }
            other => panic!(
                "expected stale-checkpoint rejection, got {:?}",
                other.is_ok()
            ),
        }

        // the matching job spec still resumes
        let store3 = Arc::new(RecordStore::open(&dir).unwrap());
        let m3 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let t3 = HarlOperatorTuner::new(g, &m3, HarlConfig::tiny());
        let s3 = TuningSession::builder()
            .job_key("job-a")
            .launch(Box::new(t3), &m3, Some(store3))
            .unwrap();
        assert!(s3.resumed());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_with_controller_stops_at_round_boundary_and_resumes() {
        let dir = temp_dir("ctl");
        let g = workload::gemm(256, 256, 256);

        // uninterrupted reference
        let m_ref = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let t_ref = HarlOperatorTuner::new(g.clone(), &m_ref, HarlConfig::tiny());
        let mut s_ref = TuningSession::builder()
            .launch(Box::new(t_ref), &m_ref, None)
            .unwrap();
        let full = s_ref.run_with(40, |_| SessionControl::Continue).unwrap();
        assert!(!full.stopped);
        let best_ref = s_ref.best_latency();

        // same run stopped by the controller after 2 rounds, then resumed
        let store = Arc::new(RecordStore::open(&dir).unwrap());
        let m1 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let t1 = HarlOperatorTuner::new(g.clone(), &m1, HarlConfig::tiny());
        let mut s1 = TuningSession::builder()
            .launch(Box::new(t1), &m1, Some(store.clone()))
            .unwrap();
        let partial = s1
            .run_with(40, |p| {
                if p.rounds_done >= 2 {
                    SessionControl::Stop
                } else {
                    SessionControl::Continue
                }
            })
            .unwrap();
        assert!(partial.stopped);
        assert!(partial.trials > 0 && partial.trials < 40);
        drop(s1);
        drop(store);

        let store2 = Arc::new(RecordStore::open(&dir).unwrap());
        let m2 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let t2 = HarlOperatorTuner::new(g, &m2, HarlConfig::tiny());
        let mut s2 = TuningSession::builder()
            .launch(Box::new(t2), &m2, Some(store2))
            .unwrap();
        assert!(s2.resumed());
        let remaining = 40 - s2.trials_used();
        s2.run(remaining).unwrap();
        assert_eq!(
            s2.best_latency().to_bits(),
            best_ref.to_bits(),
            "controller-stopped + resumed run must match the uninterrupted one"
        );
        assert_eq!(m2.trials(), m_ref.trials());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_pool_records_seed_a_storeless_session() {
        let dir = temp_dir("pool");
        let g = workload::gemm(256, 256, 256);

        // fill a store with one cold run, then read its records back
        let store = Arc::new(RecordStore::open(&dir).unwrap());
        let m1 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let t1 = HarlOperatorTuner::new(g.clone(), &m1, HarlConfig::tiny());
        let mut s1 = TuningSession::builder()
            .launch(Box::new(t1), &m1, Some(store.clone()))
            .unwrap();
        s1.run(32).unwrap();
        s1.finish().unwrap();
        let pool = store.snapshot();
        drop(store);

        // a session with no store of its own warm-starts from the pool
        let m2 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let t2 = HarlOperatorTuner::new(g, &m2, HarlConfig::tiny());
        let s2 = TuningSession::builder()
            .warm_pool(pool)
            .launch(Box::new(t2), &m2, None)
            .unwrap();
        assert!(s2.warm_records() > 0);
        assert_eq!(s2.trials_used(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flextensor_drives_through_the_trait() {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let g = workload::gemm(128, 128, 128);
        let tuner = FlextensorTuner::new(g, &measurer, Default::default());
        let mut session = TuningSession::builder()
            .launch(Box::new(tuner), &measurer, None)
            .unwrap();
        assert_eq!(session.tuner_name(), "flextensor");
        let used = session.round(20).unwrap();
        assert!(used > 0 && used <= 20);
        assert!(session.best_latency().is_finite());
    }

    #[test]
    fn mcts_and_cd_drive_through_the_trait() {
        let g = workload::gemm(128, 128, 128);

        let m1 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let tuner = MctsTuner::new(g.clone(), &m1, crate::mcts::MctsConfig::default());
        let mut session = TuningSession::builder()
            .launch(Box::new(tuner), &m1, None)
            .unwrap();
        assert_eq!(session.tuner_name(), "mcts");
        let used = session.round(16).unwrap();
        assert!(used > 0 && used <= 16);
        assert!(session.best_latency().is_finite());
        assert!(session.trace().is_some());
        assert!(session.score_stats().is_some());

        let m2 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let tuner = CdTuner::new(g, &m2, crate::mcts::CdConfig::default());
        let mut session = TuningSession::builder()
            .launch(Box::new(tuner), &m2, None)
            .unwrap();
        assert_eq!(session.tuner_name(), "cd");
        let used = session.round(12).unwrap();
        assert!(used > 0 && used <= 12);
        assert!(session.best_latency().is_finite());
        assert!(session.score_stats().is_none(), "cd has no cost model");
    }

    #[test]
    fn mcts_interrupted_session_resumes_bit_identically() {
        let dir = temp_dir("mcts-resume");
        let g = workload::gemm(256, 256, 256);

        // uninterrupted reference: two rounds straight through, no store
        let m_ref = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let t_ref = MctsTuner::new(g.clone(), &m_ref, crate::mcts::MctsConfig::default());
        let mut s_ref = TuningSession::builder()
            .launch(Box::new(t_ref), &m_ref, None)
            .unwrap();
        s_ref.run(24).unwrap();
        s_ref.run(24).unwrap();
        let best_ref = s_ref.best_latency();

        // same run killed after the first 24 trials, resumed from the store
        let store = Arc::new(RecordStore::open(&dir).unwrap());
        let m1 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let t1 = MctsTuner::new(g.clone(), &m1, crate::mcts::MctsConfig::default());
        let mut s1 = TuningSession::builder()
            .launch(Box::new(t1), &m1, Some(store.clone()))
            .unwrap();
        s1.run(24).unwrap();
        drop(s1);
        drop(store);

        let store2 = Arc::new(RecordStore::open(&dir).unwrap());
        let m2 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let t2 = MctsTuner::new(g, &m2, crate::mcts::MctsConfig::default());
        let mut s2 = TuningSession::builder()
            .launch(Box::new(t2), &m2, Some(store2))
            .unwrap();
        assert!(s2.resumed());
        s2.run(24).unwrap();
        assert_eq!(
            s2.best_latency().to_bits(),
            best_ref.to_bits(),
            "resumed MCTS run must match the uninterrupted run bit-for-bit"
        );
        assert_eq!(m2.trials(), m_ref.trials());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn then_finetune_never_regresses_and_runs_once() {
        let dir = temp_dir("finetune");
        let g = workload::gemm(256, 256, 256);
        let cfg = crate::mcts::FinetuneConfig::default();

        let store = Arc::new(RecordStore::open(&dir).unwrap());
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let tuner = HarlOperatorTuner::new(g.clone(), &measurer, HarlConfig::tiny());
        let mut session = TuningSession::builder()
            .launch(Box::new(tuner), &measurer, Some(store.clone()))
            .unwrap();
        session.run(24).unwrap();
        let before = session.best_latency();

        let out = session.then_finetune(&cfg).unwrap();
        assert!(!out.skipped);
        assert_eq!(out.before.to_bits(), before.to_bits());
        assert!(out.after <= out.before, "descent must be monotone");
        assert_eq!(out.after.to_bits(), session.best_latency().to_bits());

        // a second call in the same session is a no-op
        let again = session.then_finetune(&cfg).unwrap();
        assert!(again.skipped);
        assert_eq!(again.trials, 0);
        assert_eq!(again.after.to_bits(), out.after.to_bits());
        drop(session);
        drop(store);

        // a resumed session sees the finetuned flag and skips the descent,
        // so kill-after-finetune replays stay bit-identical
        let store2 = Arc::new(RecordStore::open(&dir).unwrap());
        let m2 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let t2 = HarlOperatorTuner::new(g, &m2, HarlConfig::tiny());
        let mut s2 = TuningSession::builder()
            .launch(Box::new(t2), &m2, Some(store2))
            .unwrap();
        assert!(s2.resumed());
        let resumed = s2.then_finetune(&cfg).unwrap();
        assert!(resumed.skipped);
        assert_eq!(resumed.after.to_bits(), out.after.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn then_finetune_before_any_measurement_does_not_latch() {
        let dir = temp_dir("finetune-empty");
        let cfg = crate::mcts::FinetuneConfig::default();
        let store = Arc::new(RecordStore::open(&dir).unwrap());
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let tuner =
            HarlOperatorTuner::new(workload::gemm(128, 128, 128), &measurer, HarlConfig::tiny());
        let mut session = TuningSession::builder()
            .launch(Box::new(tuner), &measurer, Some(store))
            .unwrap();

        // nothing measured: no best schedule, so nothing to descend from
        let empty = session.then_finetune(&cfg).unwrap();
        assert!(!empty.skipped);
        assert_eq!(empty.trials, 0);
        assert!(empty.before.is_infinite() && empty.after.is_infinite());

        // the session's one fine-tune is still available after a search
        session.run(16).unwrap();
        let real = session.then_finetune(&cfg).unwrap();
        assert!(!real.skipped, "the empty descent used up the fine-tune");
        assert!(real.trials > 0);
        assert!(session.then_finetune(&cfg).unwrap().skipped);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn then_finetune_composes_after_every_searcher() {
        let g = workload::gemm(128, 128, 128);
        let cfg = crate::mcts::FinetuneConfig {
            max_trials: 24,
            ..Default::default()
        };
        // storeless sessions keep this test cheap; monotonicity is the
        // property under test, persistence is covered elsewhere
        for which in ["harl", "ansor", "flextensor", "mcts", "cd"] {
            let m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
            let tuner: Box<dyn Tuner + '_> = match which {
                "harl" => Box::new(HarlOperatorTuner::new(g.clone(), &m, HarlConfig::tiny())),
                "ansor" => Box::new(AnsorTuner::new(g.clone(), &m, AnsorConfig::default())),
                "flextensor" => Box::new(FlextensorTuner::new(g.clone(), &m, Default::default())),
                "mcts" => Box::new(MctsTuner::new(
                    g.clone(),
                    &m,
                    crate::mcts::MctsConfig::default(),
                )),
                _ => Box::new(CdTuner::new(
                    g.clone(),
                    &m,
                    crate::mcts::CdConfig::default(),
                )),
            };
            let mut session = TuningSession::builder().launch(tuner, &m, None).unwrap();
            session.run(16).unwrap();
            let out = session.then_finetune(&cfg).unwrap();
            assert!(!out.skipped, "{which}: finetune must run");
            assert!(
                out.after <= out.before,
                "{which}: finetune regressed {} -> {}",
                out.before,
                out.after
            );
        }
    }
}
