//! End-to-end network tuning: the subgraph-level non-stationary MAB
//! (§4.1, Eq. 3 + Eq. 4) on top of per-subgraph HARL operator tuners.
//!
//! Each step pulls a subgraph arm with SW-UCB (reward = the normalized
//! gradient estimate of Eq. 3), runs one HARL tuning round on it, and
//! updates the weighted network latency `f(S) ≈ Σ w_n g_n`. Setting
//! `subgraph_mab = false` reverts to Ansor's greedy gradient selection (the
//! "w/o subgraph MAB" ablation of Table 4 / Fig. 10).

use rand::rngs::StdRng;
use rand::SeedableRng;

use harl_ansor::{task_gradient, weighted_latency, GreedyTaskScheduler, TaskInfo, TaskState};
use harl_bandit::{AnyBandit, Bandit};
use harl_tensor_ir::Subgraph;
use harl_tensor_sim::{Measurer, TuneTrace};

use crate::config::HarlConfig;
use crate::tuner::HarlOperatorTuner;

/// Log entry of one network-level allocation decision.
#[derive(Debug, Clone, Copy)]
pub struct NetRound {
    pub task: usize,
    pub trials_after: u64,
    pub latency: f64,
}

/// HARL end-to-end network tuner.
pub struct HarlNetworkTuner<'m> {
    pub tuners: Vec<HarlOperatorTuner<'m>>,
    pub infos: Vec<TaskInfo>,
    pub states: Vec<TaskState>,
    subgraph_bandit: AnyBandit,
    greedy_fallback: GreedyTaskScheduler,
    pub rounds: Vec<NetRound>,
    pub trace: TuneTrace,
    total_trials_used: u64,
    /// Observation only — see [`HarlOperatorTuner::set_tracer`].
    tracer: harl_obs::Tracer,
    cfg: HarlConfig,
    rng: StdRng,
}

impl<'m> HarlNetworkTuner<'m> {
    pub fn new(subgraphs: Vec<Subgraph>, measurer: &'m Measurer, cfg: HarlConfig) -> Self {
        let infos: Vec<TaskInfo> = subgraphs
            .iter()
            .map(|g| TaskInfo {
                name: g.name.clone(),
                weight: g.weight,
                flops: g.flops(),
                similarity_key: g.similarity_key(),
            })
            .collect();
        let states = subgraphs.iter().map(|_| TaskState::default()).collect();
        let tuners: Vec<HarlOperatorTuner<'m>> = subgraphs
            .into_iter()
            .enumerate()
            .map(|(i, g)| {
                let mut c = cfg.clone();
                c.seed = cfg.seed.wrapping_add(i as u64 * 0x51ed);
                HarlOperatorTuner::new(g, measurer, c)
            })
            .collect();
        let mut mab_kind = cfg.mab_kind;
        if let harl_bandit::BanditKind::SwUcb { c, tau } = &mut mab_kind {
            *c = cfg.mab_c;
            *tau = cfg.mab_tau;
        }
        let subgraph_bandit = mab_kind.build(tuners.len());
        let greedy_fallback = GreedyTaskScheduler::new(cfg.grad);
        let rng = StdRng::seed_from_u64(cfg.seed ^ NET_SEED);
        HarlNetworkTuner {
            tuners,
            infos,
            states,
            subgraph_bandit,
            greedy_fallback,
            rounds: Vec::new(),
            trace: TuneTrace::new(),
            total_trials_used: 0,
            tracer: harl_obs::Tracer::disabled(),
            cfg,
            rng,
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

    /// One allocation round; returns the trials used.
    pub fn round(&mut self, budget: u64) -> u64 {
        if budget == 0 {
            return 0;
        }
        let _net_span = self.tracer.span("net_round");
        // subgraph selection π_t(n)
        let task = if self.cfg.subgraph_mab {
            self.subgraph_bandit.select(&mut self.rng)
        } else {
            self.greedy_fallback.select(&self.infos, &self.states)
        };
        self.tracer.event("task_pick", &[("task", task.into())]);

        let used = self.tuners[task].round(budget as usize) as u64;
        if used == 0 {
            return 0;
        }
        self.states[task].record_round(used, self.tuners[task].best_time);
        self.total_trials_used += used;

        // reward: the normalized Eq. 3 gradient of the pulled arm
        if self.cfg.subgraph_mab {
            let grads: Vec<f64> = (0..self.infos.len())
                .map(|i| task_gradient(&self.infos, &self.states, i, &self.cfg.grad))
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
            self.subgraph_bandit.update(task, reward);
        }

        let latency = self.network_latency();
        self.rounds.push(NetRound {
            task,
            trials_after: self.total_trials_used,
            latency,
        });
        if latency.is_finite() {
            let m = self.measurer();
            self.trace.record(m.trials(), m.sim_seconds(), latency);
        }
        used
    }

    fn measurer(&self) -> &'m Measurer {
        // all tuners share the same measurer
        self.tuners[0].measurer()
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

/// Seed-domain separator for the network-level RNG ("net_seed" in ASCII).
const NET_SEED: u64 = 0x6e65745f73656564;

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
}
