//! Flextensor-like fixed-length RL tuner.
//!
//! Reproduces the comparator behind Observation 2 / Fig. 1(c): an RL agent
//! explores schedule tracks of a *fixed* length with a *fixed* sketch (no
//! subgraph/sketch hierarchy — Table 1), measuring every visited schedule
//! on hardware. The position of the best-performing schedule along each
//! track (the *critical step*) is recorded, showing that most tracks peak
//! early and the remaining steps are wasted.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use harl_gbt::CostModel;
use harl_nnet::{PpoAgent, PpoConfig};
use harl_obs::Tracer;
use harl_tensor_ir::{
    apply_action, compute_at_mask, parallel_mask, tile_action_mask, unroll_mask, Action,
    ActionSpace, Schedule, Sketch, StepDir, Target,
};
use harl_tensor_sim::{ConfigError, TuneTrace, PRICES};
use harl_verify::LintStats;

use crate::adaptive::CriticalStep;
use crate::search::{Lent, Proposer, SearchCore, Searcher};

/// Configuration of the fixed-length tuner.
#[derive(Debug, Clone)]
pub struct FlextensorConfig {
    /// Fixed track length `L`.
    pub episode_len: usize,
    /// Tracks per episode `I`.
    pub tracks: usize,
    /// PPO settings for the fixed-length agent.
    pub ppo: PpoConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FlextensorConfig {
    fn default() -> Self {
        FlextensorConfig {
            episode_len: 16,
            tracks: 8,
            ppo: PpoConfig::default(),
            seed: 0xf1e,
        }
    }
}

impl FlextensorConfig {
    /// Checks every field, the nested PPO settings included.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (field, v) in [
            ("flextensor.episode_len", self.episode_len),
            ("flextensor.tracks", self.tracks),
        ] {
            if v == 0 {
                return Err(ConfigError::new(field, "must be positive"));
            }
        }
        self.ppo.validate()
    }
}

/// Train the networks every `T_rl` steps.
const TRAIN_INTERVAL: usize = 2;

/// A measured move of one track, awaiting the step's critic pass.
struct Move {
    feat: Vec<f32>,
    acts: Vec<usize>,
    logp: f32,
    reward: f32,
    masks: Vec<Vec<bool>>,
}

/// Serializable snapshot of a [`FlextensorTuner`]'s mutable search state
/// (see [`Proposer::State`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlextensorTunerState {
    /// PPO agent (networks, optimizer moments, replay buffer).
    pub agent: PpoAgent,
    /// Best noise-free execution time found.
    pub best_time: f64,
    /// The schedule achieving `best_time`.
    pub best_schedule: Option<Schedule>,
    /// Per-track critical steps.
    pub critical_steps: Vec<CriticalStep>,
    /// Hardware measurements consumed.
    pub trials_used: u64,
    /// Best-so-far curve.
    pub trace: TuneTrace,
    /// Lint counters.
    pub lint_stats: LintStats,
    /// Raw xoshiro256** state of the search RNG.
    pub rng: [u64; 4],
}

/// The fixed-length RL tuner; a round is one episode.
pub type FlextensorTuner<'m> = Searcher<'m, FlextensorProposer>;

/// The fixed-length episode over a core cut down to the fixed first
/// sketch. Every visited schedule is measured, so the core's seen-set is
/// never consulted (nor checkpointed), and there is no model to
/// warm-start.
pub struct FlextensorProposer {
    space: ActionSpace,
    agent: PpoAgent,
    /// Per-track critical steps (Fig. 1(c)).
    pub critical_steps: Vec<CriticalStep>,
    cfg: FlextensorConfig,
    rng: StdRng,
}

impl FlextensorProposer {
    fn masks(&self, sketch: &Sketch, target: Target, s: &Schedule) -> Vec<Vec<bool>> {
        vec![
            tile_action_mask(sketch, s, &self.space),
            compute_at_mask(sketch, s).to_vec(),
            parallel_mask(sketch, s).to_vec(),
            unroll_mask(target, s).to_vec(),
        ]
    }
}

impl Proposer for FlextensorProposer {
    const NAME: &'static str = "flextensor";
    type Config = FlextensorConfig;
    type State = FlextensorTunerState;

    fn validate(cfg: &FlextensorConfig) -> Result<(), ConfigError> {
        cfg.validate()
    }

    fn new(core: &mut SearchCore<'_>, cfg: FlextensorConfig) -> Self {
        // fixed sketch: the first (plain multi-level tiling) — Table 1.
        core.sketches.truncate(1);
        let space = ActionSpace::of(&core.sketches[0]);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ core.graph.name.len() as u64);
        let head_sizes = [
            space.tile_actions(),
            StepDir::COUNT,
            StepDir::COUNT,
            StepDir::COUNT,
        ];
        let agent = PpoAgent::new(
            harl_tensor_ir::FEATURE_DIM,
            &head_sizes,
            cfg.ppo.clone(),
            &mut rng,
        );
        FlextensorProposer {
            space,
            agent,
            critical_steps: Vec::new(),
            cfg,
            rng,
        }
    }

    /// One fixed-length episode (a `flex_episode` span).
    fn round(&mut self, core: &mut SearchCore<'_>, _: Lent<'_>, budget: usize) -> usize {
        let _episode_span = core
            .tracer()
            .span_with("flex_episode", &[("tracks", self.cfg.tracks.into())]);
        let target = core.target();
        let sketch = core.sketches[0].clone();
        let mut used = 0usize;

        // sample and measure the initial schedules
        let mut states: Vec<Schedule> = Vec::with_capacity(self.cfg.tracks);
        let mut perf: Vec<f64> = Vec::with_capacity(self.cfg.tracks);
        let mut best_pos: Vec<usize> = vec![0; self.cfg.tracks];
        let mut best_perf: Vec<f64> = Vec::with_capacity(self.cfg.tracks);
        for _ in 0..self.cfg.tracks {
            if used >= budget {
                break;
            }
            let s = Schedule::random(&sketch, target, &mut self.rng);
            if core.lint_rejects(&s) {
                continue;
            }
            let m = core.measure(&s);
            used += 1;
            perf.push(1.0 / m.time);
            best_perf.push(1.0 / m.time);
            states.push(s);
        }

        let mut steps_taken = 0usize;
        // scratch for the post-action feature vector, and the step's
        // measured moves awaiting its one critic pass: nothing trains
        // inside a step, so the `(S', S)` pairs of all tracks are valued
        // together and recorded in track order
        let mut next_feat: Vec<f32> = Vec::new();
        let mut moves: Vec<Move> = Vec::new();
        let mut value_pairs: Vec<f32> = Vec::new();
        for step in 1..=self.cfg.episode_len {
            let mut out_of_budget = false;
            for i in 0..states.len() {
                if used >= budget {
                    out_of_budget = true;
                    break;
                }
                let feat = core.features(&states[i]);
                let masks = self.masks(&sketch, target, &states[i]);
                let (acts, logp) = self.agent.act(&feat, &masks, &mut self.rng);
                let action = Action {
                    tile: acts[0],
                    compute_at: StepDir::from_index(acts[1]),
                    parallel: StepDir::from_index(acts[2]),
                    unroll: StepDir::from_index(acts[3]),
                };
                let next = apply_action(&sketch, target, &states[i], &action);
                // reject illegal proposals before spending a measurement
                if core.lint_rejects(&next) {
                    continue;
                }
                let m = core.measure(&next);
                used += 1;
                let new_perf = 1.0 / m.time;
                let reward = ((new_perf - perf[i]) / perf[i]) as f32;
                core.features_into(&next, &mut next_feat);
                value_pairs.extend_from_slice(&next_feat);
                value_pairs.extend_from_slice(&feat);
                moves.push(Move {
                    feat,
                    acts,
                    logp,
                    reward,
                    masks,
                });
                if new_perf > best_perf[i] {
                    best_perf[i] = new_perf;
                    best_pos[i] = step;
                }
                perf[i] = new_perf;
                states[i] = next;
            }
            if !moves.is_empty() {
                let values = self.agent.values(&value_pairs, 2 * moves.len()).to_vec();
                value_pairs.clear();
                for (mv, v) in moves.drain(..).zip(values.chunks_exact(2)) {
                    self.agent.record_valued(
                        &mv.feat, &mv.acts, mv.logp, mv.reward, v[0], v[1], &mv.masks,
                    );
                }
            }
            if out_of_budget {
                break;
            }
            steps_taken = step;
            if step % TRAIN_INTERVAL == 0 {
                self.agent.train_step(&mut self.rng);
                core.measurer()
                    .charge_search_time(PRICES.flextensor_train_step);
            }
        }

        for &pos in best_pos.iter().take(states.len()) {
            self.critical_steps.push(CriticalStep {
                position: pos,
                length: steps_taken,
            });
        }
        // training time was charged step by step above
        core.end_round(0.0, used as u64);
        used
    }

    fn checkpoint(&self, core: &SearchCore<'_>, _: Option<&CostModel>) -> Self::State {
        FlextensorTunerState {
            agent: self.agent.clone(),
            best_time: core.best_time,
            best_schedule: core.best_schedule.clone(),
            critical_steps: self.critical_steps.clone(),
            trials_used: core.trials_used,
            trace: core.trace.clone(),
            lint_stats: core.lint_stats.clone(),
            rng: self.rng.state(),
        }
    }

    fn restore(&mut self, core: &mut SearchCore<'_>, state: Self::State) -> Option<CostModel> {
        core.restore(
            Vec::new(),
            Vec::new(),
            state.best_time,
            state.best_schedule,
            state.trials_used,
            state.trace,
            state.lint_stats,
        );
        // the agent's tracer is runtime config, not search state: carry it
        // across the overwrite
        self.agent = state.agent;
        self.agent.set_tracer(core.tracer().clone());
        self.critical_steps = state.critical_steps;
        self.rng = StdRng::from_state(state.rng);
        None
    }

    fn set_tracer(&mut self, tracer: &Tracer) {
        self.agent.set_tracer(tracer.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harl_tensor_ir::workload;
    use harl_tensor_sim::{Hardware, MeasureConfig, Measurer};

    fn cfg() -> FlextensorConfig {
        FlextensorConfig {
            episode_len: 6,
            tracks: 4,
            ..Default::default()
        }
    }

    #[test]
    fn episode_respects_budget() {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let g = workload::gemm(128, 128, 128);
        let mut t = FlextensorTuner::new(g, &measurer, cfg());
        let used = t.round(10) as u64;
        assert!(used <= 10);
        assert_eq!(t.trials_used, used);
        assert_eq!(measurer.trials(), used);
        // legal proposals only: the analyzer checked but never rejected
        assert!(t.lint_stats.checked >= used);
        assert_eq!(t.lint_stats.rejected, 0);
    }

    #[test]
    fn records_critical_steps_within_length() {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let g = workload::gemm(128, 128, 128);
        let mut t = FlextensorTuner::new(g, &measurer, cfg());
        t.tune(120);
        assert!(!t.proposer().critical_steps.is_empty());
        for cs in &t.proposer().critical_steps {
            assert!(cs.position <= cs.length);
            assert!((0.0..=1.0).contains(&cs.relative()));
        }
    }

    #[test]
    fn finds_some_improvement() {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let g = workload::gemm(256, 256, 256);
        let mut t = FlextensorTuner::new(g, &measurer, cfg());
        t.round(usize::MAX >> 1);
        let first = t.best_time;
        for _ in 0..5 {
            t.round(usize::MAX >> 1);
        }
        assert!(t.best_time <= first);
        assert!(t.best_schedule.is_some());
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        let g = workload::gemm(128, 128, 128);
        let m_ref = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let mut t_ref = FlextensorTuner::new(g.clone(), &m_ref, cfg());
        t_ref.round(40);
        let ck_tuner = serde_json::to_string(&t_ref.checkpoint_state()).unwrap();
        let ck_measurer = serde_json::to_string(&m_ref.state()).unwrap();
        t_ref.round(40);

        let m2 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        m2.restore_state(&serde_json::from_str(&ck_measurer).unwrap());
        let mut t2 = FlextensorTuner::new(g, &m2, cfg());
        t2.restore_state(serde_json::from_str(&ck_tuner).unwrap());
        t2.round(40);

        assert_eq!(t2.best_time.to_bits(), t_ref.best_time.to_bits());
        assert_eq!(t2.trials_used, t_ref.trials_used);
        assert_eq!(m2.trials(), m_ref.trials());
        assert_eq!(m2.sim_seconds().to_bits(), m_ref.sim_seconds().to_bits());
    }
}
