//! The Ansor baseline tuner: per-subgraph evolutionary rounds and the
//! greedy gradient task scheduler for end-to-end networks.

use std::ops::Deref;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use harl_gbt::{CostModel, GbtParams, ScoreStats, ScoringPipeline};
use harl_mcts::SearchCore;
use harl_par::ParallelismOpts;
use harl_store::MeasureRecord;
use harl_tensor_ir::{Schedule, Subgraph};
use harl_tensor_sim::{ConfigError, Measurer, TuneTrace};
use harl_verify::LintStats;

use crate::evolution::{evolve_candidates, EvoConfig};
use crate::task_sched::{
    weighted_latency, GradientParams, GreedyTaskScheduler, TaskInfo, TaskState,
};

/// Configuration shared by Ansor operator and network tuning.
#[derive(Debug, Clone)]
pub struct AnsorConfig {
    /// Measurement candidates per exploration round (the paper sets HARL
    /// and Ansor to the same number for fairness, §6.2).
    pub measure_per_round: usize,
    /// Evolutionary-search parameters.
    pub evo: EvoConfig,
    /// Cost-model parameters.
    pub gbt: GbtParams,
    /// Simulated seconds of fixed algorithm overhead charged per round
    /// (cost-model retraining, bookkeeping).
    pub round_overhead: f64,
    /// Simulated seconds per cost-model evaluation during evolution.
    pub eval_cost: f64,
    /// RNG seed.
    pub seed: u64,
    /// Elite pool size carried between rounds.
    pub elite_pool: usize,
}

impl Default for AnsorConfig {
    fn default() -> Self {
        AnsorConfig {
            measure_per_round: 64,
            evo: EvoConfig::default(),
            gbt: GbtParams::default(),
            round_overhead: 2.0,
            eval_cost: 5e-4,
            seed: 0xa5,
            elite_pool: 32,
        }
    }
}

impl AnsorConfig {
    /// Starts a validating builder from the defaults.
    pub fn builder() -> AnsorConfigBuilder {
        AnsorConfigBuilder {
            cfg: AnsorConfig::default(),
        }
    }

    /// Checks every field without consuming the config.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.measure_per_round == 0 {
            return Err(ConfigError::new(
                "ansor.measure_per_round",
                "must be positive",
            ));
        }
        if self.elite_pool == 0 {
            return Err(ConfigError::new("ansor.elite_pool", "must be positive"));
        }
        if self.evo.population == 0 {
            return Err(ConfigError::new("ansor.evo.population", "must be positive"));
        }
        if self.evo.generations == 0 {
            return Err(ConfigError::new(
                "ansor.evo.generations",
                "must be positive",
            ));
        }
        for (field, v) in [
            ("ansor.round_overhead", self.round_overhead),
            ("ansor.eval_cost", self.eval_cost),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(ConfigError::new(field, "must be finite and non-negative"));
            }
        }
        Ok(())
    }
}

/// Validating builder for [`AnsorConfig`].
#[derive(Debug, Clone)]
pub struct AnsorConfigBuilder {
    cfg: AnsorConfig,
}

impl AnsorConfigBuilder {
    /// Measurement candidates per exploration round.
    pub fn measure_per_round(mut self, n: usize) -> Self {
        self.cfg.measure_per_round = n;
        self
    }

    /// Evolutionary-search parameters.
    pub fn evo(mut self, evo: EvoConfig) -> Self {
        self.cfg.evo = evo;
        self
    }

    /// Cost-model parameters.
    pub fn gbt(mut self, gbt: GbtParams) -> Self {
        self.cfg.gbt = gbt;
        self
    }

    /// Fixed simulated overhead charged per round.
    pub fn round_overhead(mut self, secs: f64) -> Self {
        self.cfg.round_overhead = secs;
        self
    }

    /// Simulated seconds per cost-model evaluation.
    pub fn eval_cost(mut self, secs: f64) -> Self {
        self.cfg.eval_cost = secs;
        self
    }

    /// RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Elite pool size carried between rounds.
    pub fn elite_pool(mut self, n: usize) -> Self {
        self.cfg.elite_pool = n;
        self
    }

    /// Validates and returns the config.
    pub fn build(self) -> Result<AnsorConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// Serializable snapshot of an [`AnsorTuner`]'s mutable search state.
///
/// The graph, config, and measurer are *not* captured: restoring requires a
/// tuner constructed with the identical workload, config, and seed, after
/// which [`AnsorTuner::restore_state`] overwrites the mutable fields so the
/// search continues exactly where the checkpoint left off.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnsorTunerState {
    /// On-line cost model (dataset + fitted booster).
    pub cost_model: CostModel,
    /// Dedup keys of every schedule measured so far (sorted).
    pub seen: Vec<u64>,
    /// `(measured time, schedule)` elite pool, best-first.
    pub elites: Vec<(f64, Schedule)>,
    /// Best noise-free execution time found.
    pub best_time: f64,
    /// The schedule achieving `best_time`.
    pub best_schedule: Option<Schedule>,
    /// Hardware measurements consumed.
    pub trials_used: u64,
    /// Best-so-far curve.
    pub trace: TuneTrace,
    /// Lint counters.
    pub lint_stats: LintStats,
    /// Raw xoshiro256** state of the search RNG.
    pub rng: [u64; 4],
}

/// Tunes one subgraph with evolutionary search (Ansor §5).
pub struct AnsorTuner<'m> {
    /// Shared search state; lint-rejected candidates never reach the
    /// measurer.
    core: SearchCore<'m>,
    cost_model: CostModel,
    /// `(measured time, schedule)` sorted best-first.
    elites: Vec<(f64, Schedule)>,
    /// Batched fitness scoring (thread pool + feature cache). Runtime
    /// machinery, deliberately outside [`AnsorTunerState`]: its counters
    /// and thread width must not leak into checkpoints, which stay
    /// byte-equal across `HARL_SCORE_THREADS` settings.
    pipeline: ScoringPipeline,
    cfg: AnsorConfig,
    rng: StdRng,
}

impl<'m> Deref for AnsorTuner<'m> {
    type Target = SearchCore<'m>;

    fn deref(&self) -> &SearchCore<'m> {
        &self.core
    }
}

impl<'m> AnsorTuner<'m> {
    /// Creates a tuner; sketches are generated for the measurer's target.
    pub fn new(graph: Subgraph, measurer: &'m Measurer, cfg: AnsorConfig) -> Self {
        let seed = cfg.seed ^ graph.name.len() as u64;
        AnsorTuner {
            core: SearchCore::new(graph, measurer),
            cost_model: CostModel::new(cfg.gbt.clone()),
            elites: Vec::new(),
            pipeline: ScoringPipeline::from_env(),
            cfg,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Attaches a tracer: rounds become `ansor_round` spans with
    /// `evolve`/`measure`/`gbt_retrain` children. Tracing never changes
    /// the search — checkpoints stay byte-equal with it on or off.
    pub fn set_tracer(&mut self, tracer: harl_obs::Tracer) {
        self.pipeline.set_tracer(tracer.clone());
        self.core.set_tracer(tracer);
    }

    /// Counters of the batched scoring pipeline (cache hits, batches,
    /// thread width).
    pub fn score_stats(&self) -> &ScoreStats {
        self.pipeline.stats()
    }

    /// Applies thread-pool widths (tests and explicit config; normally
    /// inherited from `HARL_SCORE_THREADS`). Ansor has no PPO stage, so
    /// only the scoring width applies. Scores are bit-identical at any
    /// width.
    pub fn set_parallelism(&mut self, opts: ParallelismOpts) {
        self.pipeline.set_threads(opts.score_threads);
    }

    /// The on-line cost model (diagnostics; e.g. warm-start checks).
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// Re-sorts the elite pool best-first and cuts it to `elite_pool`.
    fn trim_elites(&mut self) {
        self.elites
            .sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        self.elites.truncate(self.cfg.elite_pool);
    }

    /// One exploration round with up to `budget` measurements; returns the
    /// number of trials actually used.
    pub fn round(&mut self, budget: usize) -> usize {
        if budget == 0 {
            return 0;
        }
        let _round_span = self.core.tracer().span("ansor_round");
        let k = budget.min(self.cfg.measure_per_round);
        let evolve_span = self.core.tracer().span_with("evolve", &[("k", k.into())]);
        let elite_scheds: Vec<Schedule> = self.elites.iter().map(|(_, s)| s.clone()).collect();
        let mut cands = evolve_candidates(
            &self.core.graph,
            &self.core.sketches,
            self.core.target(),
            &self.cost_model,
            &elite_scheds,
            self.core.seen(),
            k,
            &self.cfg.evo,
            &mut self.pipeline,
            &mut self.rng,
        );
        // drop illegal candidates before they reach the measurer
        cands.retain(|s| !self.core.lint_rejects(s));
        drop(evolve_span);
        if cands.is_empty() {
            return 0;
        }

        let mut updates = Vec::with_capacity(cands.len());
        for (m, features) in self.core.measure_all(&cands) {
            updates.push((features, m.flops_per_sec));
            self.elites.push((m.time, m.schedule));
        }
        {
            let _retrain_span = self.core.tracer().span("gbt_retrain");
            self.cost_model.update_batch(updates);
        }
        self.trim_elites();

        // simulated algorithm overhead: fixed + per-fitness-evaluation
        self.core.end_round(
            self.cfg.round_overhead
                + (self.cfg.evo.population * self.cfg.evo.generations) as f64 * self.cfg.eval_cost,
            cands.len() as u64,
        );
        cands.len()
    }

    /// Runs rounds until `total_trials` measurements have been used.
    pub fn tune(&mut self, total_trials: u64) {
        while self.trials_used < total_trials {
            let remaining = (total_trials - self.trials_used) as usize;
            if self.round(remaining) == 0 {
                break;
            }
        }
    }

    /// Snapshots the mutable search state for checkpointing.
    pub fn checkpoint_state(&self) -> AnsorTunerState {
        AnsorTunerState {
            cost_model: self.cost_model.clone(),
            seen: self.seen_sorted(),
            elites: self.elites.clone(),
            best_time: self.best_time,
            best_schedule: self.best_schedule.clone(),
            trials_used: self.trials_used,
            trace: self.trace.clone(),
            lint_stats: self.lint_stats.clone(),
            rng: self.rng.state(),
        }
    }

    /// Overwrites the mutable search state from a checkpoint. The tuner
    /// must have been constructed with the same graph, config, and seed.
    pub fn restore_state(&mut self, state: AnsorTunerState) {
        self.core.restore(
            state.seen,
            state.best_time,
            state.best_schedule,
            state.trials_used,
            state.trace,
            state.lint_stats,
        );
        self.cost_model = state.cost_model;
        self.elites = state.elites;
        self.rng = StdRng::from_state(state.rng);
    }

    /// Coordinate-descent fine-tune pass over the current best schedule
    /// (see [`harl_mcts::coordinate_descent`]); monotone — `best_time`
    /// never regresses. Returns the trials spent.
    pub fn finetune(&mut self, cfg: &harl_mcts::FinetuneConfig) -> u64 {
        self.core.finetune(cfg, "ansor_finetune")
    }

    /// Warm-starts from prior measurement records of similar workloads:
    /// pre-trains the cost model on their features and seeds the elite pool
    /// with their schedules, without spending any fresh measurements.
    /// Returns how many records were usable.
    pub fn warm_start(&mut self, records: &[MeasureRecord]) -> usize {
        let usable = self.core.usable_records(records);
        if usable.is_empty() {
            return 0;
        }
        self.cost_model
            .update_batch(self.core.training_rows(&usable));
        self.elites
            .extend(usable.iter().map(|r| (r.time, r.schedule.clone())));
        self.trim_elites();
        usable.len()
    }
}

/// One allocation decision in a network tuning run.
#[derive(Debug, Clone, Copy)]
pub struct NetRound {
    /// Index of the tuned task.
    pub task: usize,
    /// Cumulative trials after this round.
    pub trials_after: u64,
    /// Weighted network latency estimate after this round.
    pub latency: f64,
}

/// End-to-end network tuning with Ansor's greedy gradient task scheduler.
pub struct AnsorNetworkTuner<'m> {
    /// Per-subgraph tuners.
    pub tuners: Vec<AnsorTuner<'m>>,
    /// Static task descriptions.
    pub infos: Vec<TaskInfo>,
    /// Mutable tuning state per task.
    pub states: Vec<TaskState>,
    scheduler: GreedyTaskScheduler,
    /// Allocation decisions in order.
    pub rounds: Vec<NetRound>,
    /// Weighted-latency best-so-far curve.
    pub trace: TuneTrace,
    total_trials_used: u64,
    /// Observation only — see [`AnsorTuner::set_tracer`].
    tracer: harl_obs::Tracer,
}

impl<'m> AnsorNetworkTuner<'m> {
    /// Creates one Ansor tuner per subgraph sharing `measurer`.
    pub fn new(
        subgraphs: Vec<Subgraph>,
        measurer: &'m Measurer,
        cfg: AnsorConfig,
        grad: GradientParams,
    ) -> Self {
        let infos = subgraphs
            .iter()
            .map(|g| TaskInfo {
                name: g.name.clone(),
                weight: g.weight,
                flops: g.flops(),
                similarity_key: g.similarity_key(),
            })
            .collect();
        let states = subgraphs.iter().map(|_| TaskState::default()).collect();
        let tuners = subgraphs
            .into_iter()
            .enumerate()
            .map(|(i, g)| {
                let mut c = cfg.clone();
                c.seed = cfg.seed.wrapping_add(i as u64 * 0x9e37);
                AnsorTuner::new(g, measurer, c)
            })
            .collect();
        AnsorNetworkTuner {
            tuners,
            infos,
            states,
            scheduler: GreedyTaskScheduler::new(grad),
            rounds: Vec::new(),
            trace: TuneTrace::new(),
            total_trials_used: 0,
            tracer: harl_obs::Tracer::disabled(),
        }
    }

    /// Attaches a tracer to the scheduler and every per-task tuner.
    pub fn set_tracer(&mut self, tracer: harl_obs::Tracer) {
        for t in &mut self.tuners {
            t.set_tracer(tracer.clone());
        }
        self.tracer = tracer;
    }

    /// Weighted latency estimate `Σ w_n g_n` of the current bests.
    pub fn network_latency(&self) -> f64 {
        weighted_latency(&self.infos, &self.states)
    }

    /// One task-scheduler round: pick a task, run one tuning round on it.
    /// Returns the trials used (0 when `budget` is exhausted).
    pub fn round(&mut self, budget: u64) -> u64 {
        if budget == 0 {
            return 0;
        }
        let _net_span = self.tracer.span("net_round");
        let task = self.scheduler.select(&self.infos, &self.states);
        self.tracer.event("task_pick", &[("task", task.into())]);
        let used = self.tuners[task].round(budget as usize) as u64;
        if used == 0 {
            return 0;
        }
        self.states[task].record_round(used, self.tuners[task].best_time);
        self.total_trials_used += used;
        let latency = self.network_latency();
        self.rounds.push(NetRound {
            task,
            trials_after: self.total_trials_used,
            latency,
        });
        if latency.is_finite() {
            let m = self.tuners[0].measurer();
            self.trace.record(m.trials(), m.sim_seconds(), latency);
        }
        used
    }

    /// Tunes the whole network for `total_trials` measurements.
    pub fn tune(&mut self, total_trials: u64) {
        while self.total_trials_used < total_trials {
            let remaining = total_trials - self.total_trials_used;
            if self.round(remaining) == 0 {
                break;
            }
        }
    }

    /// Per-task trial allocations `{T^n}`.
    pub fn allocations(&self) -> Vec<u64> {
        self.states.iter().map(|s| s.trials).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harl_tensor_ir::workload;
    use harl_tensor_sim::{Hardware, MeasureConfig};

    fn small_cfg() -> AnsorConfig {
        AnsorConfig {
            measure_per_round: 16,
            evo: EvoConfig {
                population: 64,
                generations: 2,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn operator_tuning_improves_over_random() {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let g = workload::gemm(256, 256, 256);
        let mut t = AnsorTuner::new(g, &measurer, small_cfg());
        t.round(16);
        let first = t.best_time;
        t.tune(160);
        assert!(t.best_time <= first);
        assert!(t.best_schedule.is_some());
        assert!(t.trials_used >= 150, "used {}", t.trials_used);
        // evolved candidates all pass the analyzer (legal by construction)
        assert!(t.lint_stats.checked >= t.trials_used);
        assert_eq!(t.lint_stats.rejected, 0);
        // improvement should be real: best beats the first round by some margin
        assert!(
            t.best_time < first * 0.999,
            "no improvement: first {first}, final {}",
            t.best_time
        );
    }

    #[test]
    fn trace_is_monotone_and_counts_trials() {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let g = workload::gemm(128, 128, 128);
        let mut t = AnsorTuner::new(g, &measurer, small_cfg());
        t.tune(64);
        assert_eq!(t.trace.total_trials(), measurer.trials());
        let times: Vec<f64> = t.trace.points.iter().map(|p| p.best_time).collect();
        assert!(times.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn network_tuning_allocates_all_tasks() {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let graphs = vec![
            workload::gemm(128, 128, 128),
            workload::gemm(256, 256, 256),
            workload::softmax(512, 128),
        ];
        let mut nt =
            AnsorNetworkTuner::new(graphs, &measurer, small_cfg(), GradientParams::default());
        nt.tune(32 * 6);
        let alloc = nt.allocations();
        assert!(
            alloc.iter().all(|&a| a > 0),
            "warm-up must touch all tasks: {alloc:?}"
        );
        assert_eq!(alloc.iter().sum::<u64>(), nt.total_trials_used);
        assert!(nt.network_latency().is_finite());
        assert!(!nt.rounds.is_empty());
    }

    #[test]
    fn budget_is_respected_exactly() {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let g = workload::gemm(128, 256, 128);
        let mut t = AnsorTuner::new(g, &measurer, small_cfg());
        t.tune(50);
        assert!(t.trials_used <= 50 || t.trials_used - 50 < 16);
        assert_eq!(t.trials_used, measurer.trials());
    }

    #[test]
    fn builder_validates_fields() {
        assert!(AnsorConfig::builder().build().is_ok());
        let err = AnsorConfig::builder().measure_per_round(0).build();
        assert_eq!(err.unwrap_err().field, "ansor.measure_per_round");
        let err = AnsorConfig::builder().elite_pool(0).build();
        assert_eq!(err.unwrap_err().field, "ansor.elite_pool");
        let err = AnsorConfig::builder().eval_cost(-1.0).build();
        assert_eq!(err.unwrap_err().field, "ansor.eval_cost");
        let err = AnsorConfig::builder().round_overhead(f64::NAN).build();
        assert_eq!(err.unwrap_err().field, "ansor.round_overhead");
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        let g = workload::gemm(256, 256, 256);

        // uninterrupted reference run: 4 rounds of 16
        let m_ref = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let mut t_ref = AnsorTuner::new(g.clone(), &m_ref, small_cfg());
        for _ in 0..2 {
            t_ref.round(16);
        }
        let tuner_ckpt = serde_json::to_string(&t_ref.checkpoint_state()).unwrap();
        let measurer_ckpt = serde_json::to_string(&m_ref.state()).unwrap();
        for _ in 0..2 {
            t_ref.round(16);
        }

        // "killed" run resumed from the serialized checkpoint
        let m2 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        m2.restore_state(&serde_json::from_str(&measurer_ckpt).unwrap());
        let mut t2 = AnsorTuner::new(g, &m2, small_cfg());
        t2.restore_state(serde_json::from_str(&tuner_ckpt).unwrap());
        for _ in 0..2 {
            t2.round(16);
        }

        assert_eq!(t2.best_time.to_bits(), t_ref.best_time.to_bits());
        assert_eq!(t2.trials_used, t_ref.trials_used);
        assert_eq!(m2.trials(), m_ref.trials());
        assert_eq!(m2.sim_seconds().to_bits(), m_ref.sim_seconds().to_bits());
    }

    #[test]
    fn warm_start_pretrains_without_fresh_trials() {
        let g = workload::gemm(256, 256, 256);
        let key = g.similarity_key();

        // first run produces measurement records
        let m1 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let mut cold = AnsorTuner::new(g.clone(), &m1, small_cfg());
        cold.tune(64);
        let records: Vec<MeasureRecord> = cold
            .elites
            .iter()
            .map(|(time, s)| MeasureRecord {
                workload: cold.graph.name.clone(),
                similarity_key: key,
                sketch_id: s.sketch_id,
                schedule: s.clone(),
                time: *time,
                flops_per_sec: cold.graph.flops() / *time,
            })
            .collect();

        // second run warm-starts from them: trained model, zero trials spent
        let m2 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let mut warm = AnsorTuner::new(g, &m2, small_cfg());
        let used = warm.warm_start(&records);
        assert!(used > 0, "no records were usable");
        assert!(warm.cost_model.is_trained());
        assert_eq!(warm.trials_used, 0);
        assert_eq!(m2.trials(), 0);
        assert!(!warm.elites.is_empty());

        // mismatched similarity keys are ignored
        let mut bogus = records.clone();
        for r in &mut bogus {
            r.similarity_key ^= 1;
        }
        let m3 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let g3 = workload::gemm(256, 256, 256);
        let mut t3 = AnsorTuner::new(g3, &m3, small_cfg());
        assert_eq!(t3.warm_start(&bogus), 0);
        assert!(!t3.cost_model.is_trained());
    }
}
