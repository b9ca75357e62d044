//! The search core all five searchers are built on.
//!
//! Algorithm 1's outer loop — propose, lint, measure the top K, record the
//! best, retrain, charge search time — is the same loop in every searcher;
//! only the *propose* step differs. [`SearchCore`] owns the state that loop
//! shares (workload, sketches, measurer, analyzer, lint counters, the set
//! of measured schedules, the queued warm-start seeds, the elite pools,
//! the best schedule, the trial count and the best-so-far trace) and the
//! steps over it, each written once. A [`Learner`] is the on-line cost
//! model and the pipeline that scores candidates with it, with the
//! measure-and-absorb step; the model is fitted when a round is about to
//! read it, never after the last measurement. A [`Proposer`] is the
//! propose step and the state only it needs (agent, bandit, tree, RNG,
//! config); [`Searcher`] puts one on a core,
//! builds the learner from the proposer's GBT parameters (if it has any)
//! and lends it to each round, and is the whole tuner shell: budget
//! guard, `tune` loop, fine-tune, warm-start filter and pretrain,
//! checkpoint/restore. Every `*Tuner` is an alias of it, and the erased,
//! per-session side — the object-safe [`Tuner`](crate::Tuner) — is
//! implemented once for every `Searcher`. A new searcher is one `impl Proposer` (the tests
//! below hold a complete toy one).

use std::collections::HashSet;
use std::ops::Deref;

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use harl_gbt::{CostModel, GbtParams, ScoreStats, ScoringPipeline};
use harl_obs::Tracer;
use harl_par::ParallelismOpts;
use harl_store::MeasureRecord;
use harl_tensor_ir::{
    generate_sketches, FeaturePlan, Schedule, Sketch, Subgraph, Target, FEATURE_DIM,
};
use harl_tensor_sim::{ConfigError, Measurement, Measurer, TuneTrace, PRICES};
use harl_verify::{Analyzer, LintStats};

use crate::mcts::{coordinate_descent, DescentOutcome, FinetuneConfig};

/// State and steps shared by every searcher. A [`Searcher`] hands it out
/// read-only (`Deref`, `Tuner::core`) and mutably only to its own
/// proposer, so `best_time`, `best_schedule`, `trials_used` and `trace`
/// only ever change through the steps below and always describe the same
/// measurements.
pub struct SearchCore<'m> {
    /// The subgraph being tuned.
    pub graph: Subgraph,
    /// Its generated sketches.
    pub sketches: Vec<Sketch>,
    /// Best noise-free execution time found.
    pub best_time: f64,
    /// The schedule achieving `best_time`.
    pub best_schedule: Option<Schedule>,
    /// Hardware measurements consumed so far.
    pub trials_used: u64,
    /// Best-so-far curve, one point per round.
    pub trace: TuneTrace,
    /// Lint findings over every candidate considered; rejected ones never
    /// reach the measurer.
    pub lint_stats: LintStats,
    target: Target,
    /// One feature plan per generated sketch, indexed by sketch id: every
    /// searcher lints and scores its candidates through these.
    plans: Vec<FeaturePlan>,
    measurer: &'m Measurer,
    analyzer: Analyzer,
    /// Dedup keys of every schedule measured so far.
    seen: HashSet<u64>,
    /// Warm-start schedules queued for forced measurement, best last (see
    /// [`SearchCore::queue_seeds`]).
    seeds: Vec<Schedule>,
    /// One elite pool per sketch (see [`SearchCore::elites`]).
    elites: Vec<Vec<(f64, Schedule)>>,
    /// Observation only: never serialized, never feeds back into the
    /// search, so traced and untraced runs are bit-identical.
    tracer: Tracer,
}

/// Entries an elite pool keeps.
pub const ELITE_POOL: usize = 32;

/// Best first by time; a stable sort keeps equal times in their order.
fn by_time(a: &(f64, Schedule), b: &(f64, Schedule)) -> std::cmp::Ordering {
    a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal)
}

/// A round's measurement set while it is assembled: at most `cap`
/// distinct schedules, none measured before (see [`SearchCore::pick`]).
pub struct Picks {
    /// The schedules picked so far, in pick order.
    pub schedules: Vec<Schedule>,
    keys: HashSet<u64>,
    cap: usize,
}

impl Picks {
    /// An empty set that holds up to `cap` schedules.
    pub fn new(cap: usize) -> Self {
        Picks {
            schedules: Vec::with_capacity(cap),
            keys: HashSet::new(),
            cap,
        }
    }

    /// True once `cap` schedules are picked.
    pub fn is_full(&self) -> bool {
        self.schedules.len() >= self.cap
    }
}

impl<'m> SearchCore<'m> {
    /// A core over every sketch `graph` has on the measurer's target.
    pub fn new(graph: Subgraph, measurer: &'m Measurer) -> Self {
        let target = measurer.hardware().target();
        let sketches = generate_sketches(&graph, target);
        SearchCore {
            elites: vec![Vec::new(); sketches.len()],
            plans: (sketches.iter())
                .map(|sk| FeaturePlan::new(&graph, sk, target))
                .collect(),
            sketches,
            graph,
            best_time: f64::INFINITY,
            best_schedule: None,
            trials_used: 0,
            trace: TuneTrace::new(),
            lint_stats: LintStats::new(),
            target,
            measurer,
            analyzer: Analyzer::for_hardware(measurer.hardware()),
            seen: HashSet::new(),
            seeds: Vec::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// The hardware target the sketches were generated for.
    pub fn target(&self) -> Target {
        self.target
    }

    /// The shared measurer this search charges trials to.
    pub fn measurer(&self) -> &'m Measurer {
        self.measurer
    }

    /// The feature plans of the generated sketches, indexed by sketch id.
    pub fn plans(&self) -> &[FeaturePlan] {
        &self.plans
    }

    /// The schedule analyzer behind [`SearchCore::lint_rejects`].
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// The attached span tracer (disabled unless one was set).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Attaches a tracer for the round/measure/fine-tune spans.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The measured keys in ascending order, as checkpoints store them.
    pub fn seen_sorted(&self) -> Vec<u64> {
        let mut seen: Vec<u64> = self.seen.iter().copied().collect();
        seen.sort_unstable();
        seen
    }

    /// Lints `s` on its sketch and counts the findings; true when it must
    /// not be measured.
    pub fn lint_rejects(&mut self, s: &Schedule) -> bool {
        let (sk, plan) = (&self.sketches[s.sketch_id], &self.plans[s.sketch_id]);
        let verdict = self.analyzer.verdict(&self.graph, sk, plan, s);
        self.lint_stats.record(&verdict)
    }

    /// Cost-model features of `s` on its sketch.
    pub fn features(&self, s: &Schedule) -> Vec<f32> {
        let mut buf = Vec::new();
        self.features_into(s, &mut buf);
        buf
    }

    /// [`SearchCore::features`] into a reused buffer.
    pub fn features_into(&self, s: &Schedule, buf: &mut Vec<f32>) {
        self.plans[s.sketch_id].extract_into(s, buf);
    }

    /// Spends one trial on `s`: measures it, marks it seen and keeps it as
    /// the best when its noise-free time beats `best_time`.
    pub fn measure(&mut self, s: &Schedule) -> Measurement {
        let sk = &self.sketches[s.sketch_id];
        let m = self.measurer.measure(&self.graph, sk, s);
        self.seen.insert(s.dedup_key());
        let truth = self.measurer.true_time(&self.graph, sk, s);
        if truth < self.best_time {
            self.best_time = truth;
            self.best_schedule = Some(s.clone());
        }
        m
    }

    /// True when `s` has not been measured yet.
    pub fn is_fresh(&self, s: &Schedule) -> bool {
        !self.seen.contains(&s.dedup_key())
    }

    /// Whether `s` may join `picks`: never measured and not picked yet.
    fn admits(&self, picks: &mut Picks, s: &Schedule) -> bool {
        let key = s.dedup_key();
        !self.seen.contains(&key) && picks.keys.insert(key)
    }

    /// Adds `s` to `picks` unless it was measured or picked before; true
    /// when added. The caller checks [`Picks::is_full`].
    pub fn pick(&self, picks: &mut Picks, s: &Schedule) -> bool {
        let added = self.admits(picks, s);
        if added {
            picks.schedules.push(s.clone());
        }
        added
    }

    /// Queues the schedules of the `limit` best distinct `usable` records
    /// for forced measurement, best *last*, so [`SearchCore::pick_seeds`]
    /// re-measures the best prior schedule first. Returns the ones just
    /// queued.
    pub fn queue_seeds(&mut self, usable: &[&MeasureRecord], limit: usize) -> &[Schedule] {
        let owned: Vec<MeasureRecord> = usable.iter().map(|&r| r.clone()).collect();
        let best = harl_store::best_records(&owned, limit);
        let start = self.seeds.len();
        self.seeds
            .extend(best.into_iter().rev().map(|r| r.schedule));
        &self.seeds[start..]
    }

    /// The queued warm-start seeds, best last, as checkpoints store them.
    pub fn seeds(&self) -> &[Schedule] {
        &self.seeds
    }

    /// Moves queued warm-start seeds into `picks` until it is full or the
    /// queue is empty: the best seed sits last and is popped first;
    /// measured ones are dropped.
    pub fn pick_seeds(&mut self, picks: &mut Picks) {
        while !picks.is_full() {
            let Some(s) = self.seeds.pop() else {
                break;
            };
            if self.admits(picks, &s) {
                picks.schedules.push(s);
            }
        }
    }

    /// The elite pools, one per sketch: the best measured schedules of
    /// that sketch as `(measured time, schedule)`, best first, at most
    /// [`ELITE_POOL`] each. They hold every pick measured through
    /// [`Learner::measure_and_learn`] and every usable warm-start record,
    /// nothing that [`SearchCore::descend`] or a fine-tune measures.
    pub fn elites(&self) -> &[Vec<(f64, Schedule)>] {
        &self.elites
    }

    /// The [`ELITE_POOL`] best entries across all pools, best first.
    /// Equal times are ordered by sketch, then by position in their pool,
    /// so while no two sketches hold the same time this is exactly one
    /// pool over all sketches, fed and cut by the same rule.
    pub fn best_elites(&self) -> Vec<&(f64, Schedule)> {
        let mut all: Vec<&(f64, Schedule)> = self.elites.iter().flatten().collect();
        all.sort_by(|a, b| by_time(a, b));
        all.truncate(ELITE_POOL);
        all
    }

    /// Adds each `(measured time, schedule)` to its sketch's pool, then
    /// sorts every pool best first and cuts it to [`ELITE_POOL`].
    fn add_elites(&mut self, entries: impl IntoIterator<Item = (f64, Schedule)>) {
        for (time, s) in entries {
            self.elites[s.sketch_id].push((time, s));
        }
        for pool in &mut self.elites {
            pool.sort_by(by_time);
            pool.truncate(ELITE_POOL);
        }
    }

    /// Fills `picks` with lint-clean random schedules of `sketch` (a
    /// uniformly drawn one per attempt when `None`), so a round always
    /// makes progress. Gives up after `50 * round_k` attempts, `round_k`
    /// being the round's measurement budget.
    pub fn pick_random(
        &mut self,
        picks: &mut Picks,
        sketch: Option<usize>,
        round_k: usize,
        rng: &mut StdRng,
    ) {
        let mut guard = 0;
        while !picks.is_full() && guard < 50 * round_k {
            guard += 1;
            let sid = sketch.unwrap_or_else(|| rng.gen_range(0..self.sketches.len()));
            let s = Schedule::random(&self.sketches[sid], self.target, rng);
            if !self.lint_rejects(&s) && self.admits(picks, &s) {
                picks.schedules.push(s);
            }
        }
    }

    /// Closes a round: charges `search_seconds` of simulated algorithm
    /// overhead, counts the round's `trials` and adds a trace point.
    pub fn end_round(&mut self, search_seconds: f64, trials: u64) {
        self.measurer.charge_search_time(search_seconds);
        self.trials_used += trials;
        self.trace_point();
    }

    fn trace_point(&mut self) {
        self.trace.record(
            self.measurer.trials(),
            self.measurer.sim_seconds(),
            self.best_time,
        );
    }

    /// The prior records a warm-start may use: same workload shape
    /// (`similarity_key`), a sketch this workload has, and a schedule that
    /// names that sketch and is valid on it.
    pub fn usable_records<'r>(&self, records: &'r [MeasureRecord]) -> Vec<&'r MeasureRecord> {
        let key = self.graph.similarity_key();
        records
            .iter()
            .filter(|r| {
                r.similarity_key == key
                    && r.sketch_id < self.sketches.len()
                    && r.schedule.sketch_id == r.sketch_id
                    && r.schedule
                        .validate(&self.sketches[r.sketch_id], self.target)
                        .is_ok()
            })
            .collect()
    }

    /// Coordinate descent from `start` (see [`coordinate_descent`]) on
    /// real measurements, lint-gated; every measured neighbour is marked
    /// seen and a better end point becomes the best. `start_time` is
    /// `start`'s known noise-free time, or infinity to measure it first.
    pub fn descend(
        &mut self,
        cfg: &FinetuneConfig,
        start: Schedule,
        start_time: f64,
    ) -> DescentOutcome {
        let SearchCore {
            graph,
            sketches,
            target,
            plans,
            measurer,
            analyzer,
            lint_stats,
            seen,
            ..
        } = &mut *self;
        let (sk, plan) = (&sketches[start.sketch_id], &plans[start.sketch_id]);
        let valid = |s: &Schedule| !lint_stats.record(&analyzer.verdict(graph, sk, plan, s));
        let measure = |s: &Schedule| {
            measurer.measure(graph, sk, s);
            seen.insert(s.dedup_key());
            measurer.true_time(graph, sk, s)
        };
        let out = coordinate_descent(cfg, sk, *target, start, start_time, valid, measure);
        if out.best_time < self.best_time {
            self.best_time = out.best_time;
            self.best_schedule = Some(out.best_schedule.clone());
        }
        out
    }

    /// The fine-tune phase every searcher offers: descends from the
    /// current best schedule under a span named `span`. Monotone —
    /// `best_time` never regresses. Returns the trials spent; without a
    /// best schedule it spends nothing and records nothing.
    ///
    /// # Panics
    /// If `cfg` fails [`FinetuneConfig::validate`].
    pub fn finetune(&mut self, cfg: &FinetuneConfig, span: &str) -> u64 {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        let _span = self.tracer.span(span);
        let Some(start) = self.best_schedule.clone() else {
            return 0;
        };
        let out = self.descend(cfg, start, self.best_time);
        self.measurer
            .charge_search_time(PRICES.sweep_overhead * out.sweeps as f64);
        self.trials_used += out.trials as u64;
        if out.trials > 0 {
            self.trace_point();
        }
        out.trials as u64
    }
}

/// The on-line cost model and the pipeline that scores candidates with
/// it. A [`Searcher`] whose proposer has GBT parameters owns one and lends
/// it to every round, fitted to every row so far (see
/// [`Searcher::round`]); the pipeline's counters never reach a checkpoint.
pub struct Learner {
    /// The cost model (dataset + the booster fitted to it, a cache).
    pub model: CostModel,
    /// Batched candidate scoring and its counters.
    pub pipeline: ScoringPipeline,
}

impl Learner {
    /// An untrained model with `params` and a fresh pipeline.
    pub fn new(params: GbtParams) -> Self {
        Learner {
            model: CostModel::new(params),
            pipeline: ScoringPipeline::default(),
        }
    }

    /// Measures `picks` in order through `core` under one `measure` span,
    /// then adds one row per pick (its features and measured throughput)
    /// to the model, which leaves it stale until the next round fits it,
    /// and adds every pick to the core's elite pools. Returns the measured
    /// throughputs (FLOP/s) in pick order.
    pub fn measure_and_learn(&mut self, core: &mut SearchCore<'_>, picks: &[Schedule]) -> Vec<f64> {
        let mut flops = Vec::with_capacity(picks.len());
        let mut rows = Vec::with_capacity(picks.len());
        let mut elites = Vec::with_capacity(picks.len());
        let span = core
            .tracer()
            .span_with("measure", &[("k", picks.len().into())]);
        for s in picks {
            let m = core.measure(s);
            rows.push((core.features(s), m.flops_per_sec));
            flops.push(m.flops_per_sec);
            elites.push((m.time, m.schedule));
        }
        drop(span);
        self.model.absorb(rows);
        core.add_elites(elites);
        flops
    }
}

/// Serializable snapshot of a [`Searcher`]'s mutable state: the loop state
/// the shell writes and restores for every searcher, and the proposer's
/// own [`Proposer::State`]. The graph, config and measurer are *not*
/// captured: restoring needs a searcher built from the identical
/// workload, config and seed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Snapshot<S> {
    /// The learner's cost model (its parameters, dataset and scale: the
    /// booster is refitted, not stored); `None` exactly when the proposer
    /// has no GBT parameters.
    pub cost_model: Option<CostModel>,
    /// Dedup keys of every schedule measured so far (sorted).
    pub seen: Vec<u64>,
    /// Warm-start schedules queued and not yet measured, best last.
    pub pending_seeds: Vec<Schedule>,
    /// The elite pools, one per sketch, best first.
    pub elites: Vec<Vec<(f64, Schedule)>>,
    /// Best noise-free execution time found (`null` before any).
    pub best_time: f64,
    /// The schedule achieving `best_time`.
    pub best_schedule: Option<Schedule>,
    /// Hardware measurements consumed.
    pub trials_used: u64,
    /// Best-so-far curve.
    pub trace: TuneTrace,
    /// Lint counters.
    pub lint_stats: LintStats,
    /// The proposer's own state.
    pub proposer: S,
}

impl<S> Snapshot<S> {
    /// Whether the snapshot can resume on `core`: a cost model whose rows
    /// can be fitted (see [`CostModel::check_rows`]), one elite pool per
    /// sketch, every pooled schedule, queued seed and the best schedule
    /// valid on its sketch, and then the proposer's own half as
    /// [`Proposer::fits`] checks it. The error says what does not fit.
    pub fn fits<P: Proposer<State = S>>(&self, core: &SearchCore<'_>) -> Result<(), String> {
        if let Some(model) = &self.cost_model {
            model.check_rows(FEATURE_DIM)?;
        }
        let n = core.sketches.len();
        if self.elites.len() != n {
            return Err(format!(
                "{} elite pools for {n} sketches",
                self.elites.len()
            ));
        }
        // why `s` is not a schedule of `sketch`, if it is not
        let unfit = |s: &Schedule, sketch: usize| match core.sketches.get(sketch) {
            None => Some(format!("names sketch {sketch} of {n}")),
            Some(_) if s.sketch_id != sketch => Some(format!("names sketch {}", s.sketch_id)),
            Some(sk) => s.validate(sk, core.target()).err(),
        };
        for (i, pool) in self.elites.iter().enumerate() {
            for (j, (_, s)) in pool.iter().enumerate() {
                if let Some(e) = unfit(s, i) {
                    return Err(format!(
                        "elite {j} of pool {i} is not valid on sketch {i}: {e}"
                    ));
                }
            }
        }
        for (j, s) in self.pending_seeds.iter().enumerate() {
            if let Some(e) = unfit(s, s.sketch_id) {
                return Err(format!("queued seed {j} is not valid on its sketch: {e}"));
            }
        }
        if let Some(e) = (self.best_schedule.as_ref()).and_then(|s| unfit(s, s.sketch_id)) {
            return Err(format!("the best schedule is not valid on its sketch: {e}"));
        }
        P::fits(&self.proposer, core)
    }
}

/// The learner a round is lent: `Some` exactly when [`Proposer::gbt`] is.
pub type Lent<'a> = Option<&'a mut Learner>;

/// Why a proposer with GBT parameters may `expect` the learner it is lent.
pub(crate) const HAS_LEARNER: &str =
    "the shell builds a learner from every proposer's GBT parameters";

/// The propose step of one searcher, and the state only that step needs.
/// Everything else a tuner does is [`Searcher`], written once.
pub trait Proposer: Sized {
    /// Short searcher name (`"harl"`, `"ansor"`, …): the `Tuner` name and
    /// the prefix of the `<NAME>_finetune` span.
    const NAME: &'static str;
    /// The searcher's configuration.
    type Config;
    /// Serializable snapshot of the state only the proposer owns; the
    /// shell's [`Snapshot`] carries it next to the shared loop state.
    type State;

    /// The first field of `cfg` that is out of range, if any:
    /// [`Searcher::new`] refuses such a config before [`Proposer::new`]
    /// sees it.
    fn validate(cfg: &Self::Config) -> Result<(), ConfigError>;

    /// The cost-model parameters of a proposer that ranks candidates with
    /// a model: the shell builds its [`Learner`] from them. The default,
    /// `None`, is a proposer that measures without one.
    fn gbt(cfg: &Self::Config) -> Option<GbtParams> {
        let _ = cfg;
        None
    }

    /// Proposer state for a fresh search over `core` (which it may cut
    /// down, e.g. to one fixed sketch).
    fn new(core: &mut SearchCore<'_>, cfg: Self::Config) -> Self;

    /// One round: propose a measurement set of at most `budget > 0`
    /// schedules, measure it through `core` (and `learner`, when there is
    /// one: see [`Learner::measure_and_learn`]) and close the round with
    /// [`SearchCore::end_round`]. Returns the trials used; 0 means no
    /// progress is possible.
    fn round(&mut self, core: &mut SearchCore<'_>, learner: Lent<'_>, budget: usize) -> usize;

    /// Snapshots the proposer's own mutable state.
    fn checkpoint(&self) -> Self::State;

    /// Why `state` cannot resume on `core` (a search whose own half would
    /// index past the workload or feed its networks the wrong shapes), if
    /// it cannot. The default checks nothing.
    fn fits(state: &Self::State, core: &SearchCore<'_>) -> Result<(), String> {
        let _ = (state, core);
        Ok(())
    }

    /// Overwrites the proposer's own mutable state. The tracer is not part
    /// of a checkpoint: the shell hands it back through
    /// [`Proposer::set_tracer`] afterwards.
    fn restore(&mut self, state: Self::State);

    /// Seeds the search from `usable` (never empty: already filtered by
    /// [`SearchCore::usable_records`]) without spending a trial, e.g. by
    /// [`SearchCore::queue_seeds`]; returns how many records were used.
    /// The shell has added them to the learner's rows already. The default
    /// uses none.
    fn warm_start(&mut self, core: &mut SearchCore<'_>, usable: &[&MeasureRecord]) -> usize {
        let _ = (core, usable);
        0
    }

    /// Hands the proposer's own stages (the agent) the tracer the core is
    /// about to get.
    fn set_tracer(&mut self, tracer: &Tracer) {
        let _ = tracer;
    }
}

/// A tuner: one [`SearchCore`], the [`Learner`] of a proposer that has a
/// model, and the [`Proposer`] that drives them. The core derefs
/// read-only and the learner and proposer are reachable only by `&`, so
/// search state changes through rounds, fine-tunes, warm-starts and
/// restores alone.
pub struct Searcher<'m, P> {
    core: SearchCore<'m>,
    learner: Option<Learner>,
    proposer: P,
}

impl<'m, P> Deref for Searcher<'m, P> {
    type Target = SearchCore<'m>;

    fn deref(&self) -> &SearchCore<'m> {
        &self.core
    }
}

/// What [`Searcher::score_stats`] reports without a learner.
static NOTHING_SCORED: ScoreStats = ScoreStats {
    batch_count: 0,
    scored: 0,
    cache_misses: 0,
};

impl<'m, P: Proposer> Searcher<'m, P> {
    /// A searcher over every sketch `graph` has on the measurer's target.
    ///
    /// # Panics
    /// If `cfg` fails [`Proposer::validate`].
    pub fn new(graph: Subgraph, measurer: &'m Measurer, cfg: P::Config) -> Self {
        P::validate(&cfg).unwrap_or_else(|e| panic!("{e}"));
        let mut core = SearchCore::new(graph, measurer);
        let gbt = P::gbt(&cfg);
        let proposer = P::new(&mut core, cfg);
        // one pool per sketch the proposer kept
        core.elites.truncate(core.sketches.len());
        let learner = gbt.map(Learner::new);
        Searcher {
            core,
            learner,
            proposer,
        }
    }

    /// The proposer's own state and diagnostics (round log, critical
    /// steps, restarts, …).
    pub fn proposer(&self) -> &P {
        &self.proposer
    }

    /// The cost model and its scoring pipeline; `None` for a proposer
    /// without GBT parameters.
    pub fn learner(&self) -> Option<&Learner> {
        self.learner.as_ref()
    }

    /// One tuning round with up to `budget` measurements; returns the
    /// trials used (0 when the budget is spent or nothing is left to try).
    /// A stale model is fitted first, under a `gbt_retrain` span: the only
    /// fit site of a search, so rows measured in a search's last round are
    /// never fitted.
    pub fn round(&mut self, budget: usize) -> usize {
        if budget == 0 {
            return 0;
        }
        if let Some(learner) = self.learner.as_mut().filter(|l| l.model.is_stale()) {
            let _span = self.core.tracer().span("gbt_retrain");
            learner.model.fit();
        }
        (self.proposer).round(&mut self.core, self.learner.as_mut(), budget)
    }

    /// Runs rounds until `total_trials` measurements have been used.
    pub fn tune(&mut self, total_trials: u64) {
        while self.core.trials_used < total_trials {
            let remaining = (total_trials - self.core.trials_used) as usize;
            if self.round(remaining) == 0 {
                break;
            }
        }
    }

    /// Coordinate-descent fine-tune pass over the current best schedule
    /// (see [`SearchCore::finetune`]) under a `<NAME>_finetune` span;
    /// monotone — `best_time` never regresses. Returns the trials spent.
    pub fn finetune(&mut self, cfg: &FinetuneConfig) -> u64 {
        self.core.finetune(cfg, &format!("{}_finetune", P::NAME))
    }

    /// Warm-starts from prior measurement records of similar workloads
    /// without spending a trial: adds the usable records to the learner's
    /// rows, if there is one (the first round fits them), and to the elite
    /// pools, and hands them to the proposer. Returns how many records the
    /// proposer used.
    pub fn warm_start(&mut self, records: &[MeasureRecord]) -> usize {
        let usable = self.core.usable_records(records);
        if usable.is_empty() {
            return 0;
        }
        if let Some(learner) = &mut self.learner {
            let rows = (usable.iter()).map(|r| (self.core.features(&r.schedule), r.flops_per_sec));
            learner.model.absorb(rows);
        }
        (self.core).add_elites(usable.iter().map(|r| (r.time, r.schedule.clone())));
        self.proposer.warm_start(&mut self.core, &usable)
    }

    /// Snapshots the mutable search state for checkpointing. Never fits:
    /// a stale model is stored as its rows.
    pub fn checkpoint_state(&self) -> Snapshot<P::State> {
        let core = &self.core;
        Snapshot {
            cost_model: self.learner.as_ref().map(|l| l.model.clone()),
            seen: core.seen_sorted(),
            pending_seeds: core.seeds.clone(),
            elites: core.elites.clone(),
            best_time: core.best_time,
            best_schedule: core.best_schedule.clone(),
            trials_used: core.trials_used,
            trace: core.trace.clone(),
            lint_stats: core.lint_stats.clone(),
            proposer: self.proposer.checkpoint(),
        }
    }

    /// Overwrites the mutable search state from a checkpoint. The searcher
    /// must have been built from the same graph, config and seed; a
    /// snapshot without a model leaves the learner's as it is. A restored
    /// model is stale until the next round fits it.
    pub fn restore_state(&mut self, state: Snapshot<P::State>) {
        let core = &mut self.core;
        core.seen = state.seen.into_iter().collect();
        core.seeds = state.pending_seeds;
        core.elites = state.elites;
        // JSON has no Infinity literal: the writer emits null, which
        // decodes to NaN, so "no best yet" is normalized back to +inf
        core.best_time = if state.best_time.is_finite() {
            state.best_time
        } else {
            f64::INFINITY
        };
        core.best_schedule = state.best_schedule;
        core.trials_used = state.trials_used;
        core.trace = state.trace;
        core.lint_stats = state.lint_stats;
        if let (Some(learner), Some(model)) = (&mut self.learner, state.cost_model) {
            learner.model = model;
        }
        self.proposer.restore(state.proposer);
        self.proposer.set_tracer(core.tracer());
    }

    /// Counters of the learner's scoring pipeline (batches, candidates
    /// scored); all zero for a proposer that scores nothing.
    pub fn score_stats(&self) -> &ScoreStats {
        (self.learner.as_ref()).map_or(&NOTHING_SCORED, |l| l.pipeline.stats())
    }

    /// Attaches a tracer: rounds, measurements, fine-tunes, scoring
    /// batches and the proposer's stages become spans. Observation only —
    /// the search is bit-identical with or without it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        if let Some(learner) = &mut self.learner {
            learner.pipeline.set_tracer(tracer.clone());
        }
        self.proposer.set_tracer(&tracer);
        self.core.set_tracer(tracer);
    }

    /// Accepted and ignored; the search runs on the caller's thread;
    /// removed with the benchmark re-baseline (ROADMAP item 7).
    pub fn set_parallelism(&mut self, _opts: ParallelismOpts) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use harl_tensor_ir::workload;
    use harl_tensor_sim::{Hardware, MeasureConfig};
    use rand::SeedableRng;

    /// The smallest searcher, and the template for a new one: each round
    /// measures up to four random lint-clean schedules, through the
    /// learner when it has GBT parameters. It stops proposing after
    /// `max_rounds` calls, and counts the calls that reached it.
    struct Toy {
        max_rounds: usize,
        round_calls: usize,
        warm_start_calls: usize,
        /// Every measured schedule of every round and its throughput, in
        /// order.
        measured: Vec<(Schedule, f64)>,
        rng: StdRng,
    }

    impl Proposer for Toy {
        const NAME: &'static str = "toy";
        /// `(seed, max_rounds, cost-model parameters)`.
        type Config = (u64, usize, Option<GbtParams>);
        type State = [u64; 4];

        fn validate(_cfg: &Self::Config) -> Result<(), ConfigError> {
            Ok(())
        }

        fn gbt(cfg: &Self::Config) -> Option<GbtParams> {
            cfg.2.clone()
        }

        fn new(_core: &mut SearchCore<'_>, (seed, max_rounds, _): Self::Config) -> Self {
            Toy {
                max_rounds,
                round_calls: 0,
                warm_start_calls: 0,
                measured: Vec::new(),
                rng: StdRng::seed_from_u64(seed),
            }
        }

        fn round(&mut self, core: &mut SearchCore<'_>, learner: Lent<'_>, budget: usize) -> usize {
            self.round_calls += 1;
            if self.round_calls > self.max_rounds {
                return 0;
            }
            let k = budget.min(4);
            let mut picks = Picks::new(k);
            core.pick_random(&mut picks, None, k, &mut self.rng);
            let flops: Vec<f64> = match learner {
                Some(learner) => learner.measure_and_learn(core, &picks.schedules),
                None => (picks.schedules.iter())
                    .map(|s| core.measure(s).flops_per_sec)
                    .collect(),
            };
            let n = flops.len();
            self.measured.extend(picks.schedules.into_iter().zip(flops));
            core.end_round(1.0, n as u64);
            n
        }

        fn checkpoint(&self) -> [u64; 4] {
            self.rng.state()
        }

        fn restore(&mut self, rng: [u64; 4]) {
            self.rng = StdRng::from_state(rng);
        }

        fn warm_start(&mut self, _core: &mut SearchCore<'_>, usable: &[&MeasureRecord]) -> usize {
            self.warm_start_calls += 1;
            usable.len()
        }
    }

    fn toy<'m>(measurer: &'m Measurer, max_rounds: usize) -> Searcher<'m, Toy> {
        Searcher::new(
            workload::gemm(128, 128, 128),
            measurer,
            (9, max_rounds, None),
        )
    }

    fn toy_gbt() -> GbtParams {
        GbtParams {
            n_rounds: 4,
            ..GbtParams::default()
        }
    }

    fn toy_with_model(measurer: &Measurer) -> Searcher<'_, Toy> {
        let cfg = (9, usize::MAX, Some(toy_gbt()));
        Searcher::new(workload::gemm(128, 128, 128), measurer, cfg)
    }

    #[test]
    fn a_zero_budget_or_an_unusable_warm_start_never_reaches_the_proposer() {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let mut t = toy(&measurer, usize::MAX);
        assert_eq!(t.round(0), 0);
        assert_eq!(t.proposer().round_calls, 0);

        let mut rng = StdRng::seed_from_u64(3);
        let good = Schedule::random(&t.sketches[0], t.target(), &mut rng);
        let good = record(&t, good, 1e-3);
        let mut foreign = good.clone();
        foreign.similarity_key ^= 1;
        assert_eq!(t.warm_start(&[]), 0);
        assert_eq!(t.warm_start(&[foreign.clone()]), 0);
        assert_eq!(t.proposer().warm_start_calls, 0);
        assert_eq!(t.warm_start(&[foreign, good]), 1, "the usable one");
        assert_eq!(t.proposer().warm_start_calls, 1);
        assert_eq!((t.trials_used, measurer.trials()), (0, 0));
        assert_eq!(t.score_stats().scored, 0, "no pipeline, nothing scored");
    }

    /// The model's training rows as text: two models that learnt the same
    /// rows serialize identically.
    fn model_json(model: &CostModel) -> String {
        serde_json::to_string(model).unwrap()
    }

    #[test]
    fn the_learner_is_pretrained_on_the_usable_rows_then_learns_each_measured_pick() {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let mut t = toy_with_model(&measurer);
        let mut rng = StdRng::seed_from_u64(3);
        let mut distinct = Picks::new(3);
        t.core.pick_random(&mut distinct, None, 3, &mut rng);
        let mut records: Vec<MeasureRecord> = (distinct.schedules.into_iter())
            .zip([1e-3, 2e-3, 3e-3])
            .map(|(s, time)| record(&t, s, time))
            .collect();
        records[1].similarity_key ^= 1;
        let usable = t.usable_records(&records);
        assert_eq!(usable.len(), 2);
        let mut reference = CostModel::new(toy_gbt());
        reference.absorb(
            usable
                .iter()
                .map(|r| (t.features(&r.schedule), r.flops_per_sec)),
        );

        assert_eq!(t.warm_start(&records), 2);
        let model = &t.learner().unwrap().model;
        assert_eq!(
            model.num_samples(),
            2,
            "the usable records' rows, no others"
        );
        assert!(model.is_stale(), "absorbed, fitted by the first round");
        assert_eq!(model_json(model), model_json(&reference));
        assert_eq!((t.trials_used, measurer.trials()), (0, 0));

        assert_eq!(t.round(4), 4);
        let measured = &t.proposer().measured;
        assert_eq!(measured.len(), 4);
        reference.absorb((measured.iter()).map(|(s, flops)| (t.features(s), *flops)));
        let model = &t.learner().unwrap().model;
        assert_eq!(model.num_samples(), 2 + 4, "one row per measured pick");
        assert!(model.is_stale(), "the round's rows wait for the next round");
        assert_eq!(model_json(model), model_json(&reference));
        assert_eq!(t.score_stats().scored, 0, "the toy scores nothing");
    }

    #[test]
    fn a_proposer_without_a_model_has_no_learner_and_trains_nothing() {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let mut t = toy(&measurer, usize::MAX);
        let mut rng = StdRng::seed_from_u64(3);
        let good = Schedule::random(&t.sketches[0], t.target(), &mut rng);
        let good = record(&t, good, 1e-3);
        assert_eq!(t.warm_start(&[good]), 1);
        t.tune(8);
        // `Tuner::score_stats` is `learner().map(…)`: `None` here
        assert!(t.learner().is_none());
        assert_eq!(*t.score_stats(), ScoreStats::default());
    }

    #[test]
    fn tune_stops_at_the_budget_or_when_the_proposer_gives_up() {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let mut t = toy(&measurer, usize::MAX);
        t.tune(10);
        assert_eq!(t.trials_used, 10, "4 + 4 + the 2 that were left");
        assert_eq!(t.proposer().round_calls, 3);

        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let mut t = toy(&measurer, 2);
        t.tune(100);
        assert_eq!(t.trials_used, 8);
        assert_eq!(t.proposer().round_calls, 3, "the third returned 0");
        assert_eq!(t.trace.points.len(), 2);
    }

    #[test]
    fn checkpoint_restore_and_two_rounds_equal_four_straight_rounds() {
        let json = |t: &Searcher<'_, Toy>| serde_json::to_string(&t.checkpoint_state()).unwrap();
        let m_ref = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let mut t_ref = toy(&m_ref, usize::MAX);
        t_ref.tune(8);
        let (ck, ck_measurer) = (t_ref.checkpoint_state(), m_ref.state());
        t_ref.tune(16);

        let m2 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        m2.restore_state(&ck_measurer);
        let mut t2 = toy(&m2, usize::MAX);
        t2.restore_state(ck);
        assert_eq!(t2.trials_used, 8);
        t2.tune(16);

        assert_eq!(json(&t2), json(&t_ref));
        assert_eq!(t2.best_time.to_bits(), t_ref.best_time.to_bits());
        assert_eq!(m2.sim_seconds().to_bits(), m_ref.sim_seconds().to_bits());
    }

    fn record(core: &SearchCore<'_>, s: Schedule, time: f64) -> MeasureRecord {
        MeasureRecord {
            workload: core.graph.name.clone(),
            similarity_key: core.graph.similarity_key(),
            sketch_id: s.sketch_id,
            schedule: s,
            time,
            flops_per_sec: core.graph.flops() / time,
        }
    }

    #[test]
    fn usable_records_drops_a_record_for_each_of_its_four_reasons() {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let core = SearchCore::new(workload::gemm(256, 256, 256), &measurer);
        assert!(
            core.sketches.len() >= 2,
            "needs a second sketch to mislabel"
        );
        let mut rng = StdRng::seed_from_u64(3);
        let good = Schedule::random(&core.sketches[0], core.target(), &mut rng);
        let good = record(&core, good, 1e-3);

        let mut foreign_key = good.clone();
        foreign_key.similarity_key ^= 1;
        let mut sketch_out_of_range = good.clone();
        sketch_out_of_range.sketch_id = core.sketches.len();
        sketch_out_of_range.schedule.sketch_id = core.sketches.len();
        let mut schedule_names_other_sketch = good.clone();
        schedule_names_other_sketch.schedule.sketch_id = 1;
        let mut invalid_on_its_sketch = good.clone();
        invalid_on_its_sketch.schedule.tiles[0][0] += 1;
        assert!(invalid_on_its_sketch
            .schedule
            .validate(&core.sketches[0], core.target())
            .is_err());

        let records = [
            foreign_key,
            good.clone(),
            sketch_out_of_range,
            schedule_names_other_sketch,
            invalid_on_its_sketch,
        ];
        let usable = core.usable_records(&records);
        assert_eq!(usable.len(), 1);
        assert_eq!(usable[0].schedule.dedup_key(), good.schedule.dedup_key());
    }

    #[test]
    fn pick_seeds_hands_out_the_best_seed_first_and_skips_measured_ones() {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let mut core = SearchCore::new(workload::gemm(256, 256, 256), &measurer);
        let mut rng = StdRng::seed_from_u64(5);
        let mut distinct = Picks::new(3);
        core.pick_random(&mut distinct, None, 3, &mut rng);
        let [worst, middle, best]: [Schedule; 3] = distinct.schedules.try_into().unwrap();
        let records = [
            record(&core, worst.clone(), 3e-3),
            record(&core, best.clone(), 1e-3),
            record(&core, middle.clone(), 2e-3),
        ];
        let usable = core.usable_records(&records);
        assert_eq!(core.queue_seeds(&usable, 8).len(), 3);
        assert_eq!(core.seeds().last(), Some(&best), "best last");

        // the middle one was measured since it was queued
        core.measure(&middle);
        assert!(!core.is_fresh(&middle));
        let mut picks = Picks::new(1);
        core.pick_seeds(&mut picks);
        assert_eq!(picks.schedules[0].dedup_key(), best.dedup_key());
        assert_eq!(core.seeds().len(), 2, "a full set stops the popping");
        let mut picks = Picks::new(4);
        core.pick_seeds(&mut picks);
        assert_eq!(picks.schedules.len(), 1, "measured seeds are dropped");
        assert_eq!(picks.schedules[0].dedup_key(), worst.dedup_key());
        assert!(core.seeds().is_empty());
    }

    #[test]
    fn elite_pools_keep_the_best_per_sketch_and_merge_ties_by_sketch_then_position() {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let mut core = SearchCore::new(workload::gemm(256, 256, 256), &measurer);
        assert_eq!(core.elites().len(), core.sketches.len());
        assert!(core.sketches.len() >= 3, "needs three sketches");
        let mut rng = StdRng::seed_from_u64(11);
        let (sketches, target) = (core.sketches.clone(), core.target());
        let mut on = |sketch: usize| Schedule::random(&sketches[sketch], target, &mut rng);
        let (a1, a0, b0, c1) = (on(1), on(0), on(0), on(1));
        // equal times on two sketches, sketch 1's fed first
        core.add_elites([
            (2.0, a1.clone()),
            (2.0, a0.clone()),
            (1.0, b0.clone()),
            (2.0, c1.clone()),
        ]);
        assert_eq!(core.elites()[0], [(1.0, b0.clone()), (2.0, a0.clone())]);
        assert_eq!(core.elites()[1], [(2.0, a1.clone()), (2.0, c1.clone())]);
        let merged = |core: &SearchCore<'_>| -> Vec<(f64, Schedule)> {
            core.best_elites().into_iter().cloned().collect()
        };
        assert_eq!(
            merged(&core),
            [(1.0, b0), (2.0, a0), (2.0, a1), (2.0, c1)],
            "sketch 0's tie first, then sketch 1's in pool order"
        );

        // a pool is cut to its best `ELITE_POOL`, and so is the merged view
        let pool: Vec<(f64, Schedule)> = (0..ELITE_POOL + 8)
            .map(|i| ((ELITE_POOL + 8 - i) as f64, on(2)))
            .collect();
        core.add_elites(pool);
        let times =
            |entries: &[(f64, Schedule)]| -> Vec<f64> { entries.iter().map(|e| e.0).collect() };
        let expected: Vec<f64> = (1..=ELITE_POOL).map(|t| t as f64).collect();
        assert_eq!(times(&core.elites()[2]), expected);
        let merged = merged(&core);
        assert_eq!(merged.len(), ELITE_POOL);
        assert_eq!(
            times(&merged[..5]),
            [1.0, 1.0, 2.0, 2.0, 2.0],
            "sketch 0's 1.0 before sketch 2's; then sketches 0, 1, 2"
        );
        assert_eq!(merged[0].1, core.elites()[0][0].1);
        assert_eq!(merged[1].1, core.elites()[2][0].1);
    }

    #[test]
    fn finetune_without_a_best_schedule_spends_nothing() {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let mut core = SearchCore::new(workload::gemm(128, 128, 128), &measurer);
        assert_eq!(
            core.finetune(&FinetuneConfig::default(), "test_finetune"),
            0
        );
        assert_eq!(core.trials_used, 0);
        assert_eq!(measurer.trials(), 0);
        assert_eq!(measurer.sim_seconds(), 0.0);
        assert!(
            core.trace.points.is_empty(),
            "no trace point without trials"
        );
        assert!(core.best_time.is_infinite() && core.best_schedule.is_none());
    }
}
