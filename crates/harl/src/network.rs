//! End-to-end network tuning: one allocation loop over per-subgraph
//! tuners, under either task policy.
//!
//! Each step picks a subgraph, runs one tuning round on it, and updates
//! the weighted network latency `f(S) ≈ Σ w_n g_n`. HARL pulls the
//! subgraph arm with the non-stationary SW-UCB of §4.1 (reward = the
//! normalized gradient estimate of Eq. 3, Eq. 4); Ansor — and HARL with
//! `subgraph_mab = false`, the "w/o subgraph MAB" ablation of Table 4 /
//! Fig. 10 — takes the greedy gradient argmax.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::bandit::{AnyBandit, Bandit};
use harl_tensor_ir::Subgraph;
use harl_tensor_sim::{Measurer, TuneTrace};

use crate::ansor::{
    task_gradient, weighted_latency, AnsorConfig, AnsorProposer, GreedyTaskScheduler, TaskInfo,
    TaskState,
};
use crate::config::HarlConfig;
use crate::search::{Proposer, Searcher};
use crate::tuner::HarlProposer;

/// Log entry of one network-level allocation decision.
#[derive(Debug, Clone, Copy)]
pub struct NetRound {
    /// Index of the tuned task.
    pub task: usize,
    /// Cumulative trials after this round.
    pub trials_after: u64,
    /// Weighted network latency estimate after this round.
    pub latency: f64,
}

/// How the next subgraph is chosen.
enum TaskPolicy {
    /// Ansor's greedy gradient task scheduler.
    Greedy(GreedyTaskScheduler),
    /// The subgraph-level bandit `π_t(n)`, rewarded with the pulled arm's
    /// normalized Eq. 3 gradient.
    Bandit { bandit: AnyBandit, rng: StdRng },
}

/// End-to-end network tuner: one `P` searcher per subgraph sharing a
/// measurer, and the task policy that allocates rounds among them.
pub struct NetworkTuner<'m, P> {
    /// Per-subgraph tuners.
    pub tuners: Vec<Searcher<'m, P>>,
    /// Static task descriptions.
    pub infos: Vec<TaskInfo>,
    /// Mutable tuning state per task.
    pub states: Vec<TaskState>,
    policy: TaskPolicy,
    /// Allocation decisions in order.
    pub rounds: Vec<NetRound>,
    /// Weighted-latency best-so-far curve.
    pub trace: TuneTrace,
    total_trials_used: u64,
    /// Observation only — see [`Searcher::set_tracer`].
    tracer: harl_obs::Tracer,
}

/// HARL's network tuner: the subgraph bandit (or, with `subgraph_mab`
/// off, the greedy scheduler) over HARL operator tuners.
pub type HarlNetworkTuner<'m> = NetworkTuner<'m, HarlProposer>;

/// Ansor's network tuner: the greedy gradient task scheduler over Ansor
/// operator tuners.
pub type AnsorNetworkTuner<'m> = NetworkTuner<'m, AnsorProposer>;

/// Seed-domain separator for the network-level RNG ("net_seed" in ASCII).
const NET_SEED: u64 = 0x6e65745f73656564;

impl<'m> HarlNetworkTuner<'m> {
    /// Creates one HARL tuner per subgraph sharing `measurer`.
    pub fn new(subgraphs: Vec<Subgraph>, measurer: &'m Measurer, cfg: HarlConfig) -> Self {
        let policy = if cfg.subgraph_mab {
            TaskPolicy::Bandit {
                bandit: cfg.bandit(subgraphs.len()),
                rng: StdRng::seed_from_u64(cfg.seed ^ NET_SEED),
            }
        } else {
            TaskPolicy::Greedy(GreedyTaskScheduler::new())
        };
        Self::with_policy(subgraphs, measurer, policy, |i| HarlConfig {
            seed: cfg.seed.wrapping_add(i * 0x51ed),
            ..cfg.clone()
        })
    }
}

impl<'m> AnsorNetworkTuner<'m> {
    /// Creates one Ansor tuner per subgraph sharing `measurer`.
    pub fn new(subgraphs: Vec<Subgraph>, measurer: &'m Measurer, cfg: AnsorConfig) -> Self {
        let policy = TaskPolicy::Greedy(GreedyTaskScheduler::new());
        Self::with_policy(subgraphs, measurer, policy, |i| AnsorConfig {
            seed: cfg.seed.wrapping_add(i * 0x9e37),
            ..cfg.clone()
        })
    }
}

impl<'m, P: Proposer> NetworkTuner<'m, P> {
    /// `task_cfg(i)` is the config of subgraph `i`'s tuner (its own seed).
    fn with_policy(
        subgraphs: Vec<Subgraph>,
        measurer: &'m Measurer,
        policy: TaskPolicy,
        task_cfg: impl Fn(u64) -> P::Config,
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
            .map(|(i, g)| Searcher::new(g, measurer, task_cfg(i as u64)))
            .collect();
        NetworkTuner {
            tuners,
            infos,
            states,
            policy,
            rounds: Vec::new(),
            trace: TuneTrace::new(),
            total_trials_used: 0,
            tracer: harl_obs::Tracer::disabled(),
        }
    }

    /// Attaches a tracer to the network tuner and every per-task operator
    /// tuner: allocation decisions become `net_round` spans with a
    /// `task_pick` event, operator rounds nest underneath.
    pub fn set_tracer(&mut self, tracer: harl_obs::Tracer) {
        for t in &mut self.tuners {
            t.set_tracer(tracer.clone());
        }
        self.tracer = tracer;
    }

    /// Weighted network latency `Σ w_n g_n` of the current bests.
    pub fn network_latency(&self) -> f64 {
        weighted_latency(&self.infos, &self.states)
    }

    /// One allocation round: pick a task, run one tuning round on it.
    /// Returns the trials used (0 when `budget` is exhausted).
    pub fn round(&mut self, budget: u64) -> u64 {
        if budget == 0 {
            return 0;
        }
        let _net_span = self.tracer.span("net_round");
        // subgraph selection π_t(n)
        let task = match &mut self.policy {
            TaskPolicy::Greedy(scheduler) => scheduler.select(&self.infos, &self.states),
            TaskPolicy::Bandit { bandit, rng, .. } => bandit.select(rng),
        };
        self.tracer.event("task_pick", &[("task", task.into())]);

        let used = self.tuners[task].round(budget as usize) as u64;
        if used == 0 {
            return 0;
        }
        self.states[task].record_round(used, self.tuners[task].best_time);
        self.total_trials_used += used;

        // reward: the normalized Eq. 3 gradient of the pulled arm
        if let TaskPolicy::Bandit { bandit, .. } = &mut self.policy {
            let grads: Vec<f64> = (0..self.infos.len())
                .map(|i| task_gradient(&self.infos, &self.states, i))
                .collect();
            let gmax = grads
                .iter()
                .copied()
                .filter(|g| g.is_finite())
                .fold(0.0f64, f64::max);
            let g = grads[task];
            let reward = if g.is_finite() && gmax > 0.0 {
                g / gmax
            } else {
                1.0
            };
            bandit.update(task, reward);
        }

        let latency = self.network_latency();
        self.rounds.push(NetRound {
            task,
            trials_after: self.total_trials_used,
            latency,
        });
        if latency.is_finite() {
            // all tuners share the same measurer
            let m = self.tuners[0].measurer();
            self.trace.record(m.trials(), m.sim_seconds(), latency);
        }
        used
    }

    /// Tunes the network for a total measurement budget.
    pub fn tune(&mut self, total_trials: u64) {
        while self.total_trials_used < total_trials {
            let remaining = total_trials - self.total_trials_used;
            if self.round(remaining) == 0 {
                break;
            }
        }
    }

    /// Per-task trial allocations `{T^n}` (Fig. 10).
    pub fn allocations(&self) -> Vec<u64> {
        self.states.iter().map(|s| s.trials).collect()
    }

    /// Total trials used so far.
    pub fn trials_used(&self) -> u64 {
        self.total_trials_used
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harl_tensor_ir::workload;
    use harl_tensor_sim::{Hardware, MeasureConfig};

    fn graphs() -> Vec<Subgraph> {
        vec![
            workload::gemm(128, 128, 128),
            workload::gemm(256, 256, 256),
            workload::softmax(512, 128),
        ]
    }

    #[test]
    fn all_tasks_get_allocations() {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let mut nt = HarlNetworkTuner::new(graphs(), &measurer, HarlConfig::tiny());
        nt.tune(16 * 8);
        let alloc = nt.allocations();
        assert!(alloc.iter().all(|&a| a > 0), "allocations {alloc:?}");
        assert_eq!(alloc.iter().sum::<u64>(), nt.trials_used());
        assert!(nt.network_latency().is_finite());
    }

    #[test]
    fn greedy_fallback_matches_ablation_mode() {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let cfg = HarlConfig {
            subgraph_mab: false,
            ..HarlConfig::tiny()
        };
        let mut nt = HarlNetworkTuner::new(graphs(), &measurer, cfg);
        nt.tune(16 * 6);
        assert!(nt.allocations().iter().all(|&a| a > 0));
    }

    #[test]
    fn latency_improves_over_tuning() {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let mut nt = HarlNetworkTuner::new(graphs(), &measurer, HarlConfig::tiny());
        nt.tune(16 * 3); // warm-up: every task once
        let early = nt.network_latency();
        nt.tune(16 * 12);
        let late = nt.network_latency();
        assert!(
            late <= early,
            "latency should not regress: {early} → {late}"
        );
    }

    #[test]
    fn ansor_network_tuning_allocates_all_tasks() {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let cfg = AnsorConfig {
            measure_per_round: 16,
            evo: crate::ansor::EvoConfig {
                population: 64,
                generations: 2,
            },
            ..Default::default()
        };
        let mut nt = AnsorNetworkTuner::new(graphs(), &measurer, cfg);
        nt.tune(32 * 6);
        let alloc = nt.allocations();
        assert!(
            alloc.iter().all(|&a| a > 0),
            "warm-up must touch all tasks: {alloc:?}"
        );
        assert_eq!(alloc.iter().sum::<u64>(), nt.trials_used());
        assert!(nt.network_latency().is_finite());
        assert!(!nt.rounds.is_empty());
    }
}
