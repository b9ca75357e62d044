//! The HARL operator tuner: sketch-level SW-UCB on top of the PPO
//! parameter search, with top-K measurement and on-line cost-model
//! training (Algorithm 1's outer loop, §4).

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::bandit::{AnyBandit, Bandit};
use harl_gbt::{CostModel, GbtParams};
use harl_nnet::PpoAgent;
use harl_obs::{FieldValue, Tracer};
use harl_store::MeasureRecord;
use harl_tensor_ir::{ActionSpace, Schedule};
use harl_tensor_sim::{ConfigError, TuneTrace, PRICES};
use harl_verify::{check_finite, LintCode, LintStats};

use crate::adaptive::CriticalStep;
use crate::config::HarlConfig;
use crate::episode::{run_episode, EpisodeResult};
use crate::search::{Lent, Picks, Proposer, SearchCore, Searcher, HAS_LEARNER};

/// Log entry of one tuning round.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RoundLog {
    pub sketch: usize,
    pub trials: u64,
    /// Best throughput measured in this round (FLOP/s).
    pub round_best_flops: f64,
}

/// Tunes one subgraph with the full HARL stack below the subgraph level:
/// sketch MAB → PPO parameter search with adaptive stopping → top-K
/// measurement → cost-model update.
pub type HarlOperatorTuner<'m> = Searcher<'m, HarlProposer>;

/// The HARL proposer. The core's lint counters cover every candidate its
/// episodes considered, across all rounds.
pub struct HarlProposer {
    agent: PpoAgent,
    sketch_bandit: AnyBandit,
    /// Best measured schedules per sketch, `(measured time, schedule)`
    /// sorted best-first — warm-start seeds for later episodes.
    elites: Vec<Vec<(f64, Schedule)>>,
    /// Critical steps of every schedule track explored (Fig. 7(b)).
    pub critical_steps: Vec<CriticalStep>,
    pub rounds: Vec<RoundLog>,
    cfg: HarlConfig,
    rng: StdRng,
}

impl HarlProposer {
    /// Re-sorts every elite pool best-first and cuts it to 32 entries.
    fn trim_elites(&mut self) {
        for pool in &mut self.elites {
            pool.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            pool.truncate(32);
        }
    }

    /// One `ppo_health` trace event for the PPO updates of the episode that
    /// just ran (observation only: the agent's running sums feed nothing,
    /// and are taken — reset — traced or not).
    fn trace_ppo_health(&mut self, tracer: &Tracer) {
        let health = self.agent.take_health();
        if !tracer.is_enabled() {
            return;
        }
        let heads: Vec<String> = (0..health.entropy_per_head.len())
            .map(|h| format!("entropy_head{h}"))
            .collect();
        let mut fields: Vec<(&str, FieldValue)> = vec![
            ("updates", health.updates.into()),
            ("samples", health.samples.into()),
            ("clip_fraction", health.clip_fraction.into()),
            ("approx_kl", health.approx_kl.into()),
            ("value_loss", health.value_loss.into()),
            ("adv_mean", health.adv_mean.into()),
            ("adv_var", health.adv_var.into()),
            ("buffer_len", health.buffer_len.into()),
            ("evicted", health.evicted.into()),
            ("sample_age_mean", health.sample_age_mean.into()),
        ];
        fields.extend(
            (heads.iter().map(String::as_str))
                .zip(health.entropy_per_head.iter().map(|&e| e.into())),
        );
        tracer.event("ppo_health", &fields);
    }
}

impl Proposer for HarlProposer {
    const NAME: &'static str = "harl";
    type Config = HarlConfig;
    type State = HarlTunerState;

    fn validate(cfg: &HarlConfig) -> Result<(), ConfigError> {
        cfg.validate()
    }

    fn gbt(cfg: &HarlConfig) -> Option<GbtParams> {
        Some(cfg.gbt.clone())
    }

    fn new(core: &mut SearchCore<'_>, cfg: HarlConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ (core.graph.name.len() as u64) << 3);
        let space = ActionSpace::of(&core.sketches[0]);
        let agent = PpoAgent::new(
            harl_tensor_ir::FEATURE_DIM,
            &[space.tile_actions(), 3, 3, 3],
            cfg.ppo.clone(),
            &mut rng,
        );
        HarlProposer {
            agent,
            sketch_bandit: cfg.bandit(core.sketches.len()),
            elites: vec![Vec::new(); core.sketches.len()],
            critical_steps: Vec::new(),
            rounds: Vec::new(),
            cfg,
            rng,
        }
    }

    /// One tuning round (sketch selection → episode → top-K measurement):
    /// a `harl_round` span with `sketch_pick`/`episode`/`topk_select`/
    /// `measure`/`gbt_retrain` children.
    fn round(&mut self, core: &mut SearchCore<'_>, learner: Lent<'_>, budget: usize) -> usize {
        let learner = learner.expect(HAS_LEARNER);
        let _round_span = core.tracer().span("harl_round");
        // --- sketch selection (§4.1, Eq. 2) -------------------------------
        let sketch_id = {
            let _pick_span = core.tracer().span("sketch_pick");
            self.sketch_bandit.select(&mut self.rng)
        };

        // --- parameter modification phase (Algorithm 1) --------------------
        let seeds: Vec<Schedule> = self.elites[sketch_id]
            .iter()
            .map(|(_, s)| s.clone())
            .collect();
        let episode_span = core
            .tracer()
            .span_with("episode", &[("sketch", sketch_id.into())]);
        let episode = run_episode(
            &core.graph,
            &core.sketches[sketch_id],
            &core.plans()[sketch_id],
            &mut self.agent,
            learner,
            &self.cfg,
            &seeds,
            core.analyzer(),
            core.tracer(),
            &mut self.rng,
        );
        drop(episode_span);
        self.trace_ppo_health(core.tracer());
        self.critical_steps
            .extend(episode.critical_steps.iter().copied());
        core.lint_stats.merge(&episode.lint_stats);

        // --- top-K selection phase (lines 20–22) ----------------------------
        let topk_span = core.tracer().span("topk_select");
        let k = budget.min(self.cfg.measure_per_round);
        let mut picks = Picks::new(k);
        // forced warm-start seeds jump the queue: prior-run bests are
        // re-measured before any fresh candidates
        core.pick_seeds(&mut picks);
        pick_top_k(core, &episode, sketch_id, &mut picks, (k / 8).max(2));
        // fall back to random sampling when the episode didn't yield enough
        // unseen schedules
        core.pick_random(&mut picks, Some(sketch_id), k, &mut self.rng);
        drop(topk_span);
        let picks = picks.schedules;
        if picks.is_empty() {
            return 0;
        }

        // measure, and train the cost model with the measurements (line 22)
        let mut round_best_flops = 0.0f64;
        for m in learner.measure_and_learn(core, &picks) {
            round_best_flops = round_best_flops.max(m.flops_per_sec);
            self.elites[m.schedule.sketch_id].push((m.time, m.schedule));
        }
        self.trim_elites();

        // --- sketch MAB reward: normalized maximal performance X_t ---------
        let scale = learner.model.scale();
        let mut x_t = if scale > 0.0 {
            round_best_flops / scale
        } else {
            0.0
        };
        if check_finite("sketch MAB reward", x_t).is_some() {
            core.lint_stats.record_finding(LintCode::NonFiniteValue);
            x_t = 0.0;
        }
        self.sketch_bandit.update(sketch_id, x_t);

        self.rounds.push(RoundLog {
            sketch: sketch_id,
            trials: picks.len() as u64,
            round_best_flops,
        });
        // simulated algorithm overhead: fixed + per-evaluation + per-RL-step
        core.end_round(
            PRICES.round_overhead
                + episode.visited.len() as f64 * PRICES.eval_cost
                + episode.steps as f64 * PRICES.ppo_step,
            picks.len() as u64,
        );
        picks.len()
    }

    fn checkpoint(&self, core: &SearchCore<'_>, model: Option<&CostModel>) -> HarlTunerState {
        HarlTunerState {
            cost_model: model.expect(HAS_LEARNER).clone(),
            agent: self.agent.clone(),
            sketch_bandit: self.sketch_bandit.clone(),
            seen: core.seen_sorted(),
            elites: self.elites.clone(),
            pending_seeds: core.seeds().to_vec(),
            best_time: core.best_time,
            best_schedule: core.best_schedule.clone(),
            trials_used: core.trials_used,
            trace: core.trace.clone(),
            critical_steps: self.critical_steps.clone(),
            rounds: self.rounds.clone(),
            lint_stats: core.lint_stats.clone(),
            rng: self.rng.state(),
        }
    }

    fn restore(&mut self, core: &mut SearchCore<'_>, state: HarlTunerState) -> Option<CostModel> {
        core.restore(
            state.seen,
            state.pending_seeds,
            state.best_time,
            state.best_schedule,
            state.trials_used,
            state.trace,
            state.lint_stats,
        );
        // the agent's tracer is runtime wiring outside the checkpoint
        self.agent = state.agent;
        self.agent.set_tracer(core.tracer().clone());
        self.sketch_bandit = state.sketch_bandit;
        self.elites = state.elites;
        self.critical_steps = state.critical_steps;
        self.rounds = state.rounds;
        self.rng = StdRng::from_state(state.rng);
        Some(state.cost_model)
    }

    /// Seeds the per-sketch elite pools (episode warm-start tracks), and
    /// queues the best prior schedules for forced re-measurement in the
    /// next rounds, so a warm run re-establishes the old best immediately.
    fn warm_start(&mut self, core: &mut SearchCore<'_>, usable: &[&MeasureRecord]) -> usize {
        for r in usable {
            self.elites[r.sketch_id].push((r.time, r.schedule.clone()));
        }
        self.trim_elites();
        core.queue_seeds(usable, self.cfg.measure_per_round);
        usable.len()
    }

    /// The agent then emits its `ppo_act_batch`/`gemm`/`ppo_backward`
    /// spans.
    fn set_tracer(&mut self, tracer: &Tracer) {
        self.agent.set_tracer(tracer.clone());
    }
}

/// The top-K walk over an episode of sketch `sketch_id`: fills `picks` with
/// its best-predicted schedules never measured before, at most
/// `per_track_cap` per schedule track — so the measurement set stays
/// diverse instead of collapsing onto the single best-predicted track's
/// neighbourhood — and without the cap if that leaves room. Only the
/// entries the walk reaches before `picks` is full are rebuilt as
/// schedules; ties in score keep visit order.
pub fn pick_top_k(
    core: &SearchCore<'_>,
    episode: &EpisodeResult,
    sketch_id: usize,
    picks: &mut Picks,
    per_track_cap: usize,
) {
    let (sketch, plan) = (&core.sketches[sketch_id], &core.plans()[sketch_id]);
    let visited = &episode.visited;
    let mut ranked: Vec<usize> = (0..visited.len()).collect();
    ranked.sort_by(|&a, &b| {
        (visited[b].score.partial_cmp(&visited[a].score)).unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut track_counts: std::collections::HashMap<usize, usize> =
        std::collections::HashMap::new();
    let mut slot = Schedule::default();
    for pass in 0..2 {
        for &i in &ranked {
            if picks.is_full() {
                return;
            }
            let picked = track_counts.entry(visited[i].track).or_insert(0);
            // pass 0 enforces the diversity cap; pass 1 fills leftovers
            if pass == 0 && *picked >= per_track_cap {
                continue;
            }
            if core.pick(picks, episode.schedule(i, sketch, plan, &mut slot)) {
                *picked += 1;
            }
        }
    }
}

/// Serializable snapshot of a [`HarlOperatorTuner`]'s mutable search state
/// (see [`Proposer::State`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HarlTunerState {
    /// On-line cost model (dataset + fitted booster).
    pub cost_model: CostModel,
    /// PPO agent (networks, optimizer moments, replay buffer).
    pub agent: PpoAgent,
    /// Sketch-level bandit state.
    pub sketch_bandit: AnyBandit,
    /// Dedup keys of every schedule measured so far (sorted).
    pub seen: Vec<u64>,
    /// Per-sketch elite pools, best-first.
    pub elites: Vec<Vec<(f64, Schedule)>>,
    /// Warm-start schedules not yet measured.
    pub pending_seeds: Vec<Schedule>,
    /// Best noise-free execution time found.
    pub best_time: f64,
    /// The schedule achieving `best_time`.
    pub best_schedule: Option<Schedule>,
    /// Hardware measurements consumed.
    pub trials_used: u64,
    /// Best-so-far curve.
    pub trace: TuneTrace,
    /// Critical steps of every explored track.
    pub critical_steps: Vec<CriticalStep>,
    /// Per-round log.
    pub rounds: Vec<RoundLog>,
    /// Lint counters.
    pub lint_stats: LintStats,
    /// Raw xoshiro256** state of the search RNG.
    pub rng: [u64; 4],
}

#[cfg(test)]
mod tests {
    use super::*;
    use harl_tensor_ir::workload;
    use harl_tensor_sim::{Hardware, MeasureConfig, Measurer};

    #[test]
    fn operator_tuning_improves() {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let g = workload::gemm(256, 256, 256);
        let mut t = HarlOperatorTuner::new(g, &measurer, HarlConfig::tiny());
        t.round(16);
        let first = t.best_time;
        t.tune(160);
        assert!(
            t.best_time < first,
            "no improvement: {first} → {}",
            t.best_time
        );
        assert!(t.best_schedule.is_some());
        // every candidate went through the analyzer; legal generators are
        // clean by construction so nothing gets rejected
        assert!(t.lint_stats.checked > 0);
        assert_eq!(t.lint_stats.rejected, 0);
    }

    #[test]
    fn budget_and_accounting_consistent() {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let g = workload::gemm(128, 128, 128);
        let mut t = HarlOperatorTuner::new(g, &measurer, HarlConfig::tiny());
        t.tune(48);
        assert_eq!(t.trials_used, measurer.trials());
        assert_eq!(
            t.trials_used,
            t.proposer().rounds.iter().map(|r| r.trials).sum::<u64>()
        );
        assert!(t.trials_used >= 48);
    }

    #[test]
    fn sketch_mab_explores_all_sketches() {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let g = workload::gemm(512, 512, 512);
        let mut t = HarlOperatorTuner::new(g, &measurer, HarlConfig::tiny());
        // gemm has 3 sketches; after ≥3 rounds every sketch must be pulled
        for _ in 0..6 {
            t.round(8);
        }
        let mut pulled: Vec<usize> = t.proposer().rounds.iter().map(|r| r.sketch).collect();
        pulled.sort_unstable();
        pulled.dedup();
        assert_eq!(pulled.len(), t.sketches.len(), "sketches pulled {pulled:?}");
    }

    #[test]
    fn the_sketch_bandit_is_the_configured_sw_ucb() {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let cfg = HarlConfig {
            mab_kind: crate::bandit::BanditKind::SwUcb { c: 0.5, tau: 64 },
            ..HarlConfig::tiny()
        };
        let t = HarlOperatorTuner::new(workload::gemm(128, 128, 128), &measurer, cfg);
        let bandit = serde_json::to_string(&t.checkpoint_state().sketch_bandit).unwrap();
        assert!(bandit.contains(r#""c":0.5,"tau":64,"#), "{bandit}");
    }

    #[test]
    fn critical_steps_accumulate() {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let g = workload::gemm(128, 256, 128);
        let mut t = HarlOperatorTuner::new(g, &measurer, HarlConfig::tiny());
        t.round(8);
        assert_eq!(
            t.proposer().critical_steps.len(),
            HarlConfig::tiny().tracks_per_round
        );
    }

    #[test]
    fn measured_schedules_never_repeat() {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let g = workload::gemm(128, 128, 128);
        let mut t = HarlOperatorTuner::new(g, &measurer, HarlConfig::tiny());
        t.tune(64);
        // `seen` is exactly the set of measured keys; sizes must agree
        assert_eq!(t.seen_sorted().len() as u64, t.trials_used);
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        let g = workload::gemm(256, 256, 256);

        let m_ref = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let mut t_ref = HarlOperatorTuner::new(g.clone(), &m_ref, HarlConfig::tiny());
        for _ in 0..2 {
            t_ref.round(8);
        }
        let ck_tuner = serde_json::to_string(&t_ref.checkpoint_state()).unwrap();
        let ck_measurer = serde_json::to_string(&m_ref.state()).unwrap();
        for _ in 0..2 {
            t_ref.round(8);
        }

        let m2 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        m2.restore_state(&serde_json::from_str(&ck_measurer).unwrap());
        let mut t2 = HarlOperatorTuner::new(g, &m2, HarlConfig::tiny());
        t2.restore_state(serde_json::from_str(&ck_tuner).unwrap());
        for _ in 0..2 {
            t2.round(8);
        }

        assert_eq!(t2.best_time.to_bits(), t_ref.best_time.to_bits());
        assert_eq!(t2.trials_used, t_ref.trials_used);
        assert_eq!(m2.trials(), m_ref.trials());
        assert_eq!(m2.sim_seconds().to_bits(), m_ref.sim_seconds().to_bits());
    }

    #[test]
    fn warm_start_pretrains_and_queues_seeds() {
        let g = workload::gemm(256, 256, 256);
        let key = g.similarity_key();

        let m1 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let mut cold = HarlOperatorTuner::new(g.clone(), &m1, HarlConfig::tiny());
        cold.tune(48);
        let records: Vec<MeasureRecord> = cold
            .proposer()
            .elites
            .iter()
            .flatten()
            .map(|(time, s)| MeasureRecord {
                workload: cold.graph.name.clone(),
                similarity_key: key,
                sketch_id: s.sketch_id,
                schedule: s.clone(),
                time: *time,
                flops_per_sec: cold.graph.flops() / *time,
            })
            .collect();

        let m2 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let mut warm = HarlOperatorTuner::new(g, &m2, HarlConfig::tiny());
        let used = warm.warm_start(&records);
        assert!(used > 0, "no records were usable");
        assert!(warm.learner().unwrap().model.is_trained());
        assert_eq!(warm.trials_used, 0);
        assert_eq!(m2.trials(), 0);
        assert!(!warm.seeds().is_empty());

        // the queued seeds are measured first, so one round re-establishes
        // a best at least as good as the best prior record
        let prior_best = records.iter().map(|r| r.time).fold(f64::INFINITY, f64::min);
        warm.round(8);
        assert!(
            warm.best_time <= prior_best * 1.5,
            "warm round should revisit prior bests: {} vs {prior_best}",
            warm.best_time
        );
    }

    #[test]
    fn fixed_length_mode_also_works() {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let g = workload::gemm(128, 128, 128);
        let cfg = HarlConfig {
            adaptive_stopping: false,
            ..HarlConfig::tiny()
        };
        let mut t = HarlOperatorTuner::new(g, &measurer, cfg);
        t.tune(32);
        assert!(t.best_time.is_finite());
    }
}
