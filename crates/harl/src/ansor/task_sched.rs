//! Task (subgraph) scheduling: Ansor's gradient-based greedy allocator.
//!
//! The network objective is `f(S) ≈ Σ_n w_n · g_n` (§2.2). Ansor picks the
//! next subgraph greedily by the gradient estimate the HARL paper reuses as
//! its MAB reward (Eq. 3):
//!
//! ```text
//! grad_i = w_i · [ α · (g_i(t_i) − g_i(t_i−Δt)) / Δt
//!                + (1−α) · min( −g_i/t_i,  β·C_i/maxV − g_i ) ]
//! ```
//!
//! where `C_i` is task `i`'s FLOP count and `maxV` the best throughput among
//! similar tasks. The first term extrapolates recent history; the second
//! bounds the remaining headroom optimistically. Ansor selects
//! `argmax |grad_i|` (deterministic, greedy — Table 1); HARL feeds
//! `|grad_i|` into SW-UCB instead.

use serde::{Deserialize, Serialize};

/// Static description of one tuning task (subgraph).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskInfo {
    /// Task (subgraph) name.
    pub name: String,
    /// Appearance count `w_n`.
    pub weight: f64,
    /// FLOPs per execution `C_i`.
    pub flops: f64,
    /// Similarity group (tasks with the same key are "similar" — same
    /// anchor kind and iterator structure).
    pub similarity_key: u64,
}

/// Mutable tuning state of one task.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskState {
    /// Best execution time found so far `g_i(t_i)` (∞ before any trial).
    pub best_time: f64,
    /// Trials allocated so far `t_i`.
    pub trials: u64,
    /// Checkpoints `(t, g(t))` after every allocation round.
    pub history: Vec<(u64, f64)>,
}

impl Default for TaskState {
    fn default() -> Self {
        TaskState {
            best_time: f64::INFINITY,
            trials: 0,
            history: Vec::new(),
        }
    }
}

impl TaskState {
    /// Records the outcome of an allocation round.
    pub fn record_round(&mut self, trials_used: u64, best_time: f64) {
        self.trials += trials_used;
        self.best_time = self.best_time.min(best_time);
        self.history.push((self.trials, self.best_time));
    }

    /// `g_i(t_i − Δt)`: best time known `dt` trials ago. Falls back to the
    /// earliest checkpoint when `dt` reaches back into the first round, and
    /// to ∞ when it reaches before any trial at all.
    pub fn best_time_before(&self, dt: u64) -> f64 {
        let cutoff = self.trials.saturating_sub(dt);
        if cutoff == 0 {
            return f64::INFINITY;
        }
        self.history
            .iter()
            .take_while(|(t, _)| *t <= cutoff)
            .last()
            .or_else(|| self.history.first())
            .map(|(_, g)| *g)
            .unwrap_or(f64::INFINITY)
    }
}

/// Weight α of the history slope term (Table 5: 0.2).
const ALPHA: f64 = 0.2;
/// Similar-task bound multiplier β (Table 5: 2).
const BETA: f64 = 2.0;
/// Backward window Δt in trials.
const DT: u64 = 64;

/// Computes `|grad_i|` for task `i`. Returns `f64::INFINITY` for untried
/// tasks so they are explored first.
pub fn task_gradient(infos: &[TaskInfo], states: &[TaskState], i: usize) -> f64 {
    let info = &infos[i];
    let st = &states[i];
    if st.trials == 0 || !st.best_time.is_finite() {
        return f64::INFINITY;
    }
    let g = st.best_time;

    // history slope (≤ 0 when improving)
    let g_prev = st.best_time_before(DT);
    let term1 = if g_prev.is_finite() {
        (g - g_prev) / DT as f64
    } else {
        0.0
    };

    // optimistic headroom: either keep the historical rate −g/t, or close
    // the gap to β × the time predicted from similar tasks' throughput.
    let term2a = -g / st.trials as f64;
    let max_v = infos
        .iter()
        .zip(states)
        .enumerate()
        .filter(|(j, (inf, s))| {
            *j != i && inf.similarity_key == info.similarity_key && s.best_time.is_finite()
        })
        .map(|(_, (inf, s))| inf.flops / s.best_time)
        .fold(f64::NAN, f64::max);
    let term2 = if max_v.is_finite() && max_v > 0.0 {
        let predicted = BETA * info.flops / max_v;
        term2a.min(predicted - g)
    } else {
        term2a
    };

    (info.weight * (ALPHA * term1 + (1.0 - ALPHA) * term2)).abs()
}

/// Ansor's greedy task scheduler: round-robin warm-up, then
/// `argmax |grad|` (deterministic).
#[derive(Debug, Clone, Default)]
pub struct GreedyTaskScheduler;

impl GreedyTaskScheduler {
    /// The greedy scheduler.
    pub fn new() -> Self {
        GreedyTaskScheduler
    }

    /// Picks the next task to tune.
    pub fn select(&self, infos: &[TaskInfo], states: &[TaskState]) -> usize {
        // warm-up: first untried task
        if let Some(i) = states.iter().position(|s| s.trials == 0) {
            return i;
        }
        (0..infos.len())
            .max_by(|&a, &b| {
                task_gradient(infos, states, a)
                    .partial_cmp(&task_gradient(infos, states, b))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap_or(0)
    }
}

/// Weighted network latency estimate `f(S) = Σ w_n g_n` over current bests.
pub fn weighted_latency(infos: &[TaskInfo], states: &[TaskState]) -> f64 {
    infos
        .iter()
        .zip(states)
        .map(|(i, s)| {
            if s.best_time.is_finite() {
                i.weight * s.best_time
            } else {
                f64::INFINITY
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_tasks(n: usize) -> (Vec<TaskInfo>, Vec<TaskState>) {
        let infos = (0..n)
            .map(|i| TaskInfo {
                name: format!("t{i}"),
                weight: 1.0,
                flops: 1e9,
                similarity_key: 7,
            })
            .collect();
        let states = (0..n).map(|_| TaskState::default()).collect();
        (infos, states)
    }

    #[test]
    fn warmup_visits_all_tasks() {
        let (infos, mut states) = mk_tasks(3);
        let sched = GreedyTaskScheduler::new();
        let mut visited = [false; 3];
        for _ in 0..3 {
            let i = sched.select(&infos, &states);
            visited[i] = true;
            states[i].record_round(10, 1.0);
        }
        assert!(visited.iter().all(|&v| v));
    }

    #[test]
    fn greedy_prefers_improving_heavy_task() {
        let (mut infos, mut states) = mk_tasks(2);
        infos[0].weight = 10.0; // heavy task
                                // both warmed up with same time
        states[0].record_round(64, 1.0);
        states[1].record_round(64, 1.0);
        // task 0 keeps improving, task 1 stagnates
        states[0].record_round(64, 0.5);
        states[1].record_round(64, 1.0);
        let sched = GreedyTaskScheduler::new();
        assert_eq!(sched.select(&infos, &states), 0);
    }

    #[test]
    fn similar_task_bound_raises_priority() {
        let (infos, mut states) = mk_tasks(2);
        // both tried; task 1 is 100x slower than its similar peer task 0,
        // so the similarity bound predicts big headroom for task 1.
        states[0].record_round(64, 0.001);
        states[1].record_round(64, 0.1);
        let g0 = task_gradient(&infos, &states, 0);
        let g1 = task_gradient(&infos, &states, 1);
        assert!(
            g1 > g0,
            "lagging similar task should be prioritised: {g1} vs {g0}"
        );
    }

    #[test]
    fn untried_task_has_infinite_gradient() {
        let (infos, states) = mk_tasks(2);
        assert!(task_gradient(&infos, &states, 0).is_infinite());
    }

    #[test]
    fn best_time_before_walks_history() {
        let mut st = TaskState::default();
        st.record_round(10, 5.0);
        st.record_round(10, 3.0);
        st.record_round(10, 2.0);
        // trials = 30; 10 trials ago → cutoff 20 → best was 3.0
        assert_eq!(st.best_time_before(10), 3.0);
        assert_eq!(st.best_time_before(25), 5.0);
        assert!(st.best_time_before(31).is_infinite());
    }

    #[test]
    fn weighted_latency_sums() {
        let (mut infos, mut states) = mk_tasks(2);
        infos[1].weight = 3.0;
        states[0].record_round(1, 2.0);
        states[1].record_round(1, 1.0);
        assert!((weighted_latency(&infos, &states) - 5.0).abs() < 1e-12);
    }
}
