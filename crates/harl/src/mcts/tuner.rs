//! The UCT schedule searcher.
//!
//! One playout = UCB1 selection from a sketch root down the
//! modification tree, one expansion (a fresh single-modification child),
//! a short random rollout, batch-scoring the visited path through the
//! GBT pipeline, and backing the best normalized score up the path.
//! After `playouts_per_round` playouts the top-predicted unseen
//! schedules are measured, the cost model is retrained, and the next
//! round's playouts see the sharper model (the pipeline's score cache is
//! cleared at the round boundary exactly like the other tuners).

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use harl_gbt::{CostModel, GbtParams, ScoringPipeline};
use harl_obs::Tracer;
use harl_store::MeasureRecord;
use harl_tensor_ir::{mutate, Schedule};
use harl_tensor_sim::{ConfigError, TuneTrace, PRICES};
use harl_verify::LintStats;

use crate::search::{best_last_seeds, Picks, Proposer, SearchCore, Searcher};

/// Configuration of the [`MctsTuner`].
#[derive(Debug, Clone)]
pub struct MctsConfig {
    /// Measurement candidates per round.
    pub measure_per_round: usize,
    /// UCT playouts per round.
    pub playouts_per_round: usize,
    /// Cost-model parameters.
    pub gbt: GbtParams,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MctsConfig {
    fn default() -> Self {
        MctsConfig {
            measure_per_round: 64,
            playouts_per_round: 128,
            gbt: GbtParams::default(),
            seed: 0x3c75,
        }
    }
}

impl MctsConfig {
    /// Checks every field without consuming the config.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (field, v) in [
            ("mcts.measure_per_round", self.measure_per_round),
            ("mcts.playouts_per_round", self.playouts_per_round),
        ] {
            if v == 0 {
                return Err(ConfigError::new(field, "must be positive"));
            }
        }
        Ok(())
    }
}

/// Random modifications applied per rollout.
const ROLLOUT_DEPTH: usize = 4;
/// UCB1 exploration constant `c`.
const EXPLORATION: f64 = 1.4;
/// Progressive-widening cap: children per node.
const MAX_CHILDREN: usize = 8;
/// Tree-size cap; expansion stops (rollouts continue) once reached.
const MAX_NODES: usize = 4096;

/// One node of the modification tree: a complete schedule reached by a
/// chain of single modifications from its sketch's root schedule.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MctsNode {
    /// The schedule this node stands for.
    pub schedule: Schedule,
    /// Parent node index (`None` for sketch roots).
    pub parent: Option<usize>,
    /// Child node indices, in creation order.
    pub children: Vec<usize>,
    /// Playouts that passed through this node.
    pub visits: u64,
    /// Sum of backed-up rewards.
    pub total_reward: f64,
}

/// Serializable snapshot of an [`MctsTuner`]'s mutable search state,
/// the whole tree included (see [`Proposer::State`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MctsTunerState {
    /// On-line cost model (dataset + fitted booster).
    pub cost_model: CostModel,
    /// The modification tree, index-addressed.
    pub nodes: Vec<MctsNode>,
    /// Node index of each sketch's root (empty before the first round).
    pub roots: Vec<usize>,
    /// Dedup keys of every schedule measured so far (sorted).
    pub seen: Vec<u64>,
    /// Schedules queued for forced measurement (warm-start bests).
    pub pending_seeds: Vec<Schedule>,
    /// Warm-start schedules to graft onto sketch roots at tree init.
    pub warm_seeds: Vec<Schedule>,
    /// Running maximum raw model score, the reward normalizer.
    pub reward_scale: f64,
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

/// Tunes one subgraph with UCT search over modification trees.
pub type MctsTuner<'m> = Searcher<'m, MctsProposer>;

/// The UCT proposer: every sketch is one tree root, and lint rejects
/// never enter the tree or reach the measurer.
pub struct MctsProposer {
    cost_model: CostModel,
    nodes: Vec<MctsNode>,
    roots: Vec<usize>,
    pending_seeds: Vec<Schedule>,
    warm_seeds: Vec<Schedule>,
    reward_scale: f64,
    /// Batched rollout scoring (feature cache + counters). Runtime
    /// machinery, deliberately outside [`MctsTunerState`]: its counters
    /// must not leak into checkpoints.
    pipeline: ScoringPipeline,
    cfg: MctsConfig,
    rng: StdRng,
}

impl MctsProposer {
    /// The on-line cost model (diagnostics; e.g. warm-start checks).
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// Nodes currently in the tree (diagnostics/tests).
    pub fn tree_size(&self) -> usize {
        self.nodes.len()
    }

    /// Lazily builds one root per sketch (plus any warm-start grafts).
    /// Runs at most once; the whole tree lives in the checkpoint, so a
    /// restored tuner never re-enters this.
    fn init_tree(&mut self, core: &mut SearchCore<'_>) {
        if !self.nodes.is_empty() {
            return;
        }
        let target = core.target();
        for sid in 0..core.sketches.len() {
            // draw a few candidates so roots start lint-clean when possible
            let mut root = Schedule::random(&core.sketches[sid], target, &mut self.rng);
            for _ in 0..4 {
                if !core.lint_rejects(&root) {
                    break;
                }
                root = Schedule::random(&core.sketches[sid], target, &mut self.rng);
            }
            let idx = self.nodes.len();
            self.nodes.push(MctsNode {
                schedule: root,
                parent: None,
                children: Vec::new(),
                visits: 0,
                total_reward: 0.0,
            });
            self.roots.push(idx);
        }
        // graft warm-start bests as unvisited root children: UCB1 visits
        // unvisited children first, so prior-run knowledge is explored
        // before fresh random modifications
        let grafts = std::mem::take(&mut self.warm_seeds);
        for s in grafts {
            let root = self.roots[s.sketch_id];
            if self.nodes[root].children.len() >= MAX_CHILDREN {
                continue;
            }
            let idx = self.nodes.len();
            self.nodes.push(MctsNode {
                schedule: s,
                parent: Some(root),
                children: Vec::new(),
                visits: 0,
                total_reward: 0.0,
            });
            self.nodes[root].children.push(idx);
        }
    }

    /// UCB1 value of node `child` under a parent with `parent_visits`.
    fn ucb(&self, child: usize, parent_visits: u64) -> f64 {
        let n = &self.nodes[child];
        if n.visits == 0 {
            return f64::INFINITY;
        }
        let mean = n.total_reward / n.visits as f64;
        let bonus = EXPLORATION * (((parent_visits.max(1)) as f64).ln() / n.visits as f64).sqrt();
        mean + bonus
    }

    /// Selects a leaf-ish node: root by UCB1 over sketch roots, then down
    /// the tree until a node that wants expansion (or has no children).
    fn select(&self) -> usize {
        let total: u64 = self.roots.iter().map(|&r| self.nodes[r].visits).sum();
        let mut cur = self.roots[0];
        let mut best = f64::NEG_INFINITY;
        for &r in &self.roots {
            let v = self.ucb(r, total);
            if v > best {
                best = v;
                cur = r;
            }
        }
        loop {
            let node = &self.nodes[cur];
            let widen = node.children.len() < MAX_CHILDREN
                && node.children.len() as u64 <= node.visits
                && self.nodes.len() < MAX_NODES;
            if widen || node.children.is_empty() {
                return cur;
            }
            let mut next = node.children[0];
            let mut best = f64::NEG_INFINITY;
            for &c in &node.children {
                let v = self.ucb(c, node.visits);
                if v > best {
                    best = v;
                    next = c;
                }
            }
            cur = next;
        }
    }

    /// Expands `at` with one fresh single-modification child; returns the
    /// child index, or `None` when every attempt was a lint reject, a
    /// sibling duplicate, or the tree is full.
    fn expand(&mut self, core: &mut SearchCore<'_>, at: usize) -> Option<usize> {
        if self.nodes.len() >= MAX_NODES || self.nodes[at].children.len() >= MAX_CHILDREN {
            return None;
        }
        let sid = self.nodes[at].schedule.sketch_id;
        for _ in 0..8 {
            let cand = mutate(
                &core.sketches[sid],
                core.target(),
                &self.nodes[at].schedule,
                &mut self.rng,
            );
            let key = cand.dedup_key();
            let dup = self.nodes[at]
                .children
                .iter()
                .any(|&c| self.nodes[c].schedule.dedup_key() == key);
            if dup {
                continue;
            }
            if core.lint_rejects(&cand) {
                continue;
            }
            let idx = self.nodes.len();
            self.nodes.push(MctsNode {
                schedule: cand,
                parent: Some(at),
                children: Vec::new(),
                visits: 0,
                total_reward: 0.0,
            });
            self.nodes[at].children.push(idx);
            return Some(idx);
        }
        None
    }
}

impl Proposer for MctsProposer {
    const NAME: &'static str = "mcts";
    type Config = MctsConfig;
    type State = MctsTunerState;

    fn validate(cfg: &MctsConfig) -> Result<(), ConfigError> {
        cfg.validate()
    }

    fn new(core: &mut SearchCore<'_>, cfg: MctsConfig) -> Self {
        let seed = cfg.seed ^ core.graph.name.len() as u64;
        MctsProposer {
            cost_model: CostModel::new(cfg.gbt.clone()),
            nodes: Vec::new(),
            roots: Vec::new(),
            pending_seeds: Vec::new(),
            warm_seeds: Vec::new(),
            reward_scale: 0.0,
            pipeline: ScoringPipeline::default(),
            cfg,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// One exploration round (an `mcts_round` span with `playouts`/
    /// `measure`/`gbt_retrain` children): playouts, top-K measurement,
    /// model retrain.
    fn round(&mut self, core: &mut SearchCore<'_>, budget: usize) -> usize {
        let _round_span = core.tracer().span("mcts_round");
        self.init_tree(core);
        // cached scores are stale the moment the model retrains, so each
        // round starts with a cold cache like every other tuner
        self.pipeline.begin_episode();

        let playout_span = core
            .tracer()
            .span_with("playouts", &[("n", self.cfg.playouts_per_round.into())]);
        // (score, schedule) candidates visited this round, playout order
        let mut visited: Vec<(f64, Schedule)> = Vec::new();
        let mut scored_evals = 0usize;
        let mut scores = Vec::new();
        for _ in 0..self.cfg.playouts_per_round {
            let picked = self.select();
            let leaf = self.expand(core, picked).unwrap_or(picked);
            // rollout: a short chain of random modifications from the leaf
            let sid = self.nodes[leaf].schedule.sketch_id;
            let mut path = vec![self.nodes[leaf].schedule.clone()];
            for _ in 1..ROLLOUT_DEPTH {
                let cand = mutate(
                    &core.sketches[sid],
                    core.target(),
                    path.last().unwrap(),
                    &mut self.rng,
                );
                if core.lint_rejects(&cand) {
                    continue;
                }
                path.push(cand);
            }
            // the analyzer is not `Sync`, so the pool's extractor borrows
            // the core's plans, not the core
            let plans = core.plans();
            let extract =
                |s: &Schedule, buf: &mut Vec<f32>| plans[s.sketch_id].extract_into(s, buf);
            self.pipeline.score_into(
                &self.cost_model,
                &path,
                |s| s.fingerprint(),
                extract,
                &mut scores,
            );
            scored_evals += path.len();
            // reward: best normalized predicted throughput along the path
            // (the min-latency surrogate; scores are FLOP/s predictions)
            let mut best_raw = 0.0f64;
            for (s, &raw) in path.iter().zip(scores.iter()) {
                if raw.is_finite() && raw > best_raw {
                    best_raw = raw;
                }
                if core.is_fresh(s) {
                    visited.push((raw, s.clone()));
                }
            }
            if best_raw > self.reward_scale {
                self.reward_scale = best_raw;
            }
            let reward = if self.reward_scale > 0.0 {
                best_raw / self.reward_scale
            } else {
                0.0
            };
            // backprop through the selected path up to the sketch root
            let mut cur = Some(leaf);
            while let Some(i) = cur {
                self.nodes[i].visits += 1;
                self.nodes[i].total_reward += reward;
                cur = self.nodes[i].parent;
            }
        }
        drop(playout_span);

        // --- top-K measurement --------------------------------------------
        let k = budget.min(self.cfg.measure_per_round);
        let mut picks = Picks::new(k);
        // forced warm-start seeds jump the queue: prior-run bests are
        // re-measured before any fresh candidates
        core.pick_seeds(&mut picks, &mut self.pending_seeds);
        visited.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        for (_, s) in &visited {
            if picks.is_full() {
                break;
            }
            core.pick(&mut picks, s);
        }
        // fall back to random sampling when playouts stayed inside seen
        // territory, so a round always makes progress
        core.pick_random(&mut picks, None, k, &mut self.rng);
        let picks = picks.schedules;
        if picks.is_empty() {
            return 0;
        }

        let updates: Vec<(Vec<f32>, f64)> = core
            .measure_all(&picks)
            .into_iter()
            .map(|(m, features)| (features, m.flops_per_sec))
            .collect();
        {
            let _retrain_span = core.tracer().span("gbt_retrain");
            self.cost_model.update_batch(updates);
        }

        // simulated algorithm overhead: fixed + per-model-evaluation
        core.end_round(
            PRICES.round_overhead + scored_evals as f64 * PRICES.eval_cost,
            picks.len() as u64,
        );
        picks.len()
    }

    fn checkpoint(&self, core: &SearchCore<'_>) -> MctsTunerState {
        MctsTunerState {
            cost_model: self.cost_model.clone(),
            nodes: self.nodes.clone(),
            roots: self.roots.clone(),
            seen: core.seen_sorted(),
            pending_seeds: self.pending_seeds.clone(),
            warm_seeds: self.warm_seeds.clone(),
            reward_scale: self.reward_scale,
            best_time: core.best_time,
            best_schedule: core.best_schedule.clone(),
            trials_used: core.trials_used,
            trace: core.trace.clone(),
            lint_stats: core.lint_stats.clone(),
            rng: self.rng.state(),
        }
    }

    fn restore(&mut self, core: &mut SearchCore<'_>, state: MctsTunerState) {
        core.restore(
            state.seen,
            state.best_time,
            state.best_schedule,
            state.trials_used,
            state.trace,
            state.lint_stats,
        );
        self.cost_model = state.cost_model;
        self.nodes = state.nodes;
        self.roots = state.roots;
        self.pending_seeds = state.pending_seeds;
        self.warm_seeds = state.warm_seeds;
        self.reward_scale = if state.reward_scale.is_finite() {
            state.reward_scale
        } else {
            0.0
        };
        self.rng = StdRng::from_state(state.rng);
    }

    /// Pre-trains the cost model, grafts record schedules onto the sketch
    /// roots (explored before fresh modifications), and queues the best
    /// prior schedules for forced re-measurement.
    fn warm_start(&mut self, core: &SearchCore<'_>, usable: &[&MeasureRecord]) -> usize {
        self.cost_model.update_batch(core.training_rows(usable));
        let seeds = best_last_seeds(usable, self.cfg.measure_per_round);
        self.warm_seeds.extend(seeds.iter().rev().cloned());
        self.pending_seeds.extend(seeds);
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

    fn small_cfg() -> MctsConfig {
        MctsConfig {
            measure_per_round: 16,
            playouts_per_round: 48,
            ..Default::default()
        }
    }

    #[test]
    fn tuning_improves_over_first_round() {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let g = workload::gemm(256, 256, 256);
        let mut t = MctsTuner::new(g, &measurer, small_cfg());
        t.round(16);
        let first = t.best_time;
        assert!(first.is_finite());
        t.tune(160);
        assert!(t.best_time <= first);
        assert!(t.best_schedule.is_some());
        assert!(t.trials_used >= 150, "used {}", t.trials_used);
        assert!(
            t.proposer().tree_size() > t.sketches.len(),
            "tree never expanded"
        );
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
        let mut t = MctsTuner::new(g, &measurer, small_cfg());
        t.tune(64);
        assert_eq!(t.trace.total_trials(), measurer.trials());
        let times: Vec<f64> = t.trace.points.iter().map(|p| p.best_time).collect();
        assert!(times.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        let g = workload::gemm(256, 256, 256);

        let m_ref = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let mut t_ref = MctsTuner::new(g.clone(), &m_ref, small_cfg());
        for _ in 0..2 {
            t_ref.round(16);
        }
        let tuner_ckpt = serde_json::to_string(&t_ref.checkpoint_state()).unwrap();
        let measurer_ckpt = serde_json::to_string(&m_ref.state()).unwrap();
        for _ in 0..2 {
            t_ref.round(16);
        }

        let m2 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        m2.restore_state(&serde_json::from_str(&measurer_ckpt).unwrap());
        let mut t2 = MctsTuner::new(g, &m2, small_cfg());
        t2.restore_state(serde_json::from_str(&tuner_ckpt).unwrap());
        for _ in 0..2 {
            t2.round(16);
        }

        assert_eq!(t2.best_time.to_bits(), t_ref.best_time.to_bits());
        assert_eq!(t2.trials_used, t_ref.trials_used);
        assert_eq!(m2.trials(), m_ref.trials());
        assert_eq!(m2.sim_seconds().to_bits(), m_ref.sim_seconds().to_bits());
        // the serialized tree itself must round-trip byte-equal
        let again = serde_json::to_string(&t2.checkpoint_state()).unwrap();
        let reference = serde_json::to_string(&t_ref.checkpoint_state()).unwrap();
        assert_eq!(again, reference);
    }

    #[test]
    fn warm_start_pretrains_and_grafts_roots() {
        let g = workload::gemm(256, 256, 256);
        let key = g.similarity_key();

        let m1 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let mut cold = MctsTuner::new(g.clone(), &m1, small_cfg());
        cold.tune(48);
        let best = cold.best_schedule.clone().unwrap();
        let records = vec![MeasureRecord {
            workload: cold.graph.name.clone(),
            similarity_key: key,
            sketch_id: best.sketch_id,
            schedule: best,
            time: cold.best_time,
            flops_per_sec: cold.graph.flops() / cold.best_time,
        }];

        let m2 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let mut warm = MctsTuner::new(g, &m2, small_cfg());
        let used = warm.warm_start(&records);
        assert_eq!(used, 1);
        assert!(warm.proposer().cost_model().is_trained());
        assert_eq!(warm.trials_used, 0);
        assert_eq!(m2.trials(), 0);
        assert!(!warm.proposer().pending_seeds.is_empty());
        // the first round measures the grafted seed before anything fresh
        warm.round(4);
        assert!(warm.best_time <= records[0].time * 1.05);

        // mismatched similarity keys are ignored
        let mut bogus = records.clone();
        bogus[0].similarity_key ^= 1;
        let m3 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let g3 = workload::gemm(256, 256, 256);
        let mut t3 = MctsTuner::new(g3, &m3, small_cfg());
        assert_eq!(t3.warm_start(&bogus), 0);
        assert!(!t3.proposer().cost_model().is_trained());
    }

    #[test]
    fn validate_names_the_bad_field() {
        let base = MctsConfig::default;
        assert!(base().validate().is_ok());
        #[rustfmt::skip]
        let bad = [
            ("mcts.measure_per_round", MctsConfig { measure_per_round: 0, ..base() }),
            ("mcts.playouts_per_round", MctsConfig { playouts_per_round: 0, ..base() }),
        ];
        for (field, cfg) in bad {
            assert_eq!(cfg.validate().unwrap_err().field, field);
        }
    }

    #[test]
    fn budget_is_respected_exactly() {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let g = workload::gemm(128, 256, 128);
        let mut t = MctsTuner::new(g, &measurer, small_cfg());
        t.tune(50);
        assert!(t.trials_used <= 50 || t.trials_used - 50 < 16);
        assert_eq!(t.trials_used, measurer.trials());
    }
}
