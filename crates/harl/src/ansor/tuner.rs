//! The Ansor baseline tuner: per-subgraph evolutionary rounds. Its
//! end-to-end network form is [`crate::AnsorNetworkTuner`]: the one
//! network loop under the greedy gradient task scheduler.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use harl_gbt::{CostModel, GbtParams, ScoringPipeline};
use harl_obs::Tracer;
use harl_store::MeasureRecord;
use harl_tensor_ir::Schedule;
use harl_tensor_sim::{ConfigError, TuneTrace, PRICES};
use harl_verify::LintStats;

use crate::ansor::evolution::{evolve_candidates, EvoConfig};
use crate::search::{Proposer, SearchCore, Searcher};

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
    /// RNG seed.
    pub seed: u64,
}

impl Default for AnsorConfig {
    fn default() -> Self {
        AnsorConfig {
            measure_per_round: 64,
            evo: EvoConfig::default(),
            gbt: GbtParams::default(),
            seed: 0xa5,
        }
    }
}

impl AnsorConfig {
    /// Checks every field without consuming the config.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.measure_per_round == 0 {
            return Err(ConfigError::new(
                "ansor.measure_per_round",
                "must be positive",
            ));
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
        Ok(())
    }
}

/// Elite pool size carried between rounds.
const ELITE_POOL: usize = 32;

/// Serializable snapshot of an [`AnsorTuner`]'s mutable search state (see
/// [`Proposer::State`]).
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
pub type AnsorTuner<'m> = Searcher<'m, AnsorProposer>;

/// The evolutionary proposer; lint-rejected candidates never reach the
/// measurer.
pub struct AnsorProposer {
    cost_model: CostModel,
    /// `(measured time, schedule)` sorted best-first.
    elites: Vec<(f64, Schedule)>,
    /// Batched fitness scoring (feature cache + counters). Runtime
    /// machinery, deliberately outside [`AnsorTunerState`]: its counters
    /// must not leak into checkpoints.
    pipeline: ScoringPipeline,
    cfg: AnsorConfig,
    rng: StdRng,
}

impl AnsorProposer {
    /// The on-line cost model (diagnostics; e.g. warm-start checks).
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// Re-sorts the elite pool best-first and cuts it to [`ELITE_POOL`].
    fn trim_elites(&mut self) {
        self.elites
            .sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        self.elites.truncate(ELITE_POOL);
    }
}

impl Proposer for AnsorProposer {
    const NAME: &'static str = "ansor";
    type Config = AnsorConfig;
    type State = AnsorTunerState;

    fn validate(cfg: &AnsorConfig) -> Result<(), ConfigError> {
        cfg.validate()
    }

    fn new(core: &mut SearchCore<'_>, cfg: AnsorConfig) -> Self {
        let seed = cfg.seed ^ core.graph.name.len() as u64;
        AnsorProposer {
            cost_model: CostModel::new(cfg.gbt.clone()),
            elites: Vec::new(),
            pipeline: ScoringPipeline::default(),
            cfg,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// One exploration round: an `ansor_round` span with `evolve`/
    /// `measure`/`gbt_retrain` children.
    fn round(&mut self, core: &mut SearchCore<'_>, budget: usize) -> usize {
        let _round_span = core.tracer().span("ansor_round");
        let k = budget.min(self.cfg.measure_per_round);
        let evolve_span = core.tracer().span_with("evolve", &[("k", k.into())]);
        let elite_scheds: Vec<Schedule> = self.elites.iter().map(|(_, s)| s.clone()).collect();
        let mut cands = evolve_candidates(
            core.plans(),
            &core.sketches,
            core.target(),
            &self.cost_model,
            &elite_scheds,
            core.seen(),
            k,
            &self.cfg.evo,
            &mut self.pipeline,
            &mut self.rng,
        );
        // drop illegal candidates before they reach the measurer
        cands.retain(|s| !core.lint_rejects(s));
        drop(evolve_span);
        if cands.is_empty() {
            return 0;
        }

        let mut updates = Vec::with_capacity(cands.len());
        for (m, features) in core.measure_all(&cands) {
            updates.push((features, m.flops_per_sec));
            self.elites.push((m.time, m.schedule));
        }
        {
            let _retrain_span = core.tracer().span("gbt_retrain");
            self.cost_model.update_batch(updates);
        }
        self.trim_elites();

        // simulated algorithm overhead: fixed + per-fitness-evaluation
        core.end_round(
            PRICES.round_overhead
                + (self.cfg.evo.population * self.cfg.evo.generations) as f64 * PRICES.eval_cost,
            cands.len() as u64,
        );
        cands.len()
    }

    fn checkpoint(&self, core: &SearchCore<'_>) -> AnsorTunerState {
        AnsorTunerState {
            cost_model: self.cost_model.clone(),
            seen: core.seen_sorted(),
            elites: self.elites.clone(),
            best_time: core.best_time,
            best_schedule: core.best_schedule.clone(),
            trials_used: core.trials_used,
            trace: core.trace.clone(),
            lint_stats: core.lint_stats.clone(),
            rng: self.rng.state(),
        }
    }

    fn restore(&mut self, core: &mut SearchCore<'_>, state: AnsorTunerState) {
        core.restore(
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

    /// Pre-trains the cost model on the records' features and seeds the
    /// elite pool with their schedules.
    fn warm_start(&mut self, core: &SearchCore<'_>, usable: &[&MeasureRecord]) -> usize {
        self.cost_model.update_batch(core.training_rows(usable));
        self.elites
            .extend(usable.iter().map(|r| (r.time, r.schedule.clone())));
        self.trim_elites();
        usable.len()
    }

    fn pipeline(&self) -> Option<&ScoringPipeline> {
        Some(&self.pipeline)
    }

    fn set_tracer(&mut self, tracer: &Tracer) {
        self.pipeline.set_tracer(tracer.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harl_tensor_ir::workload;
    use harl_tensor_sim::{Hardware, MeasureConfig, Measurer};

    fn small_cfg() -> AnsorConfig {
        AnsorConfig {
            measure_per_round: 16,
            evo: EvoConfig {
                population: 64,
                generations: 2,
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
    fn budget_is_respected_exactly() {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let g = workload::gemm(128, 256, 128);
        let mut t = AnsorTuner::new(g, &measurer, small_cfg());
        t.tune(50);
        assert!(t.trials_used <= 50 || t.trials_used - 50 < 16);
        assert_eq!(t.trials_used, measurer.trials());
    }

    #[test]
    fn validate_names_the_bad_field() {
        let base = AnsorConfig::default;
        assert!(base().validate().is_ok());
        #[rustfmt::skip]
        let bad = [
            ("ansor.measure_per_round", AnsorConfig { measure_per_round: 0, ..base() }),
        ];
        for (field, cfg) in bad {
            assert_eq!(cfg.validate().unwrap_err().field, field);
        }
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
            .proposer()
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
        assert!(warm.proposer().cost_model.is_trained());
        assert_eq!(warm.trials_used, 0);
        assert_eq!(m2.trials(), 0);
        assert!(!warm.proposer().elites.is_empty());

        // mismatched similarity keys are ignored
        let mut bogus = records.clone();
        for r in &mut bogus {
            r.similarity_key ^= 1;
        }
        let m3 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let g3 = workload::gemm(256, 256, 256);
        let mut t3 = AnsorTuner::new(g3, &m3, small_cfg());
        assert_eq!(t3.warm_start(&bogus), 0);
        assert!(!t3.proposer().cost_model.is_trained());
    }
}
