//! Tuning traces: best-so-far curves over trials and simulated seconds.
//!
//! Every tuner (Ansor baseline, Flextensor-like, HARL) appends to a
//! [`TuneTrace`]; the experiment harness uses them for the performance
//! figures (best final time), the search-time figures (time/trials to
//! reach a target), and the ablation curves of Fig. 7(a).

use serde::{Deserialize, Serialize};

/// One checkpoint of the search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TracePoint {
    /// Hardware measurements performed so far.
    pub trials: u64,
    /// Simulated search seconds elapsed so far.
    pub sim_seconds: f64,
    /// Best (noise-free) execution time found so far, seconds.
    pub best_time: f64,
}

/// Best-so-far curve of one tuning run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TuneTrace {
    /// Checkpoints in recording order.
    pub points: Vec<TracePoint>,
}

impl TuneTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a checkpoint; `best_time` must be the best-so-far (the
    /// trace enforces monotonicity defensively).
    pub fn record(&mut self, trials: u64, sim_seconds: f64, best_time: f64) {
        let monotone = self
            .points
            .last()
            .map(|p| best_time.min(p.best_time))
            .unwrap_or(best_time);
        self.points.push(TracePoint {
            trials,
            sim_seconds,
            best_time: monotone,
        });
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// First checkpoint at which the best time is ≤ `target`; returns the
    /// `(trials, sim_seconds)` of that checkpoint.
    pub fn first_reaching(&self, target: f64) -> Option<(u64, f64)> {
        self.points
            .iter()
            .find(|p| p.best_time <= target)
            .map(|p| (p.trials, p.sim_seconds))
    }

    /// Total trials recorded.
    pub fn total_trials(&self) -> u64 {
        self.points.last().map(|p| p.trials).unwrap_or(0)
    }

    /// Total simulated seconds recorded.
    pub fn total_seconds(&self) -> f64 {
        self.points.last().map(|p| p.sim_seconds).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_best() {
        let mut t = TuneTrace::new();
        t.record(10, 15.0, 3.0);
        t.record(20, 30.0, 5.0); // regression attempt is clamped
        t.record(30, 45.0, 1.0);
        assert_eq!(t.points[1].best_time, 3.0);
        assert_eq!(t.points[2].best_time, 1.0);
    }

    #[test]
    fn first_reaching_finds_crossing() {
        let mut t = TuneTrace::new();
        t.record(10, 15.0, 3.0);
        t.record(20, 30.0, 2.0);
        t.record(30, 45.0, 1.0);
        assert_eq!(t.first_reaching(2.5), Some((20, 30.0)));
        assert_eq!(t.first_reaching(0.5), None);
    }

    #[test]
    fn empty_trace_defaults() {
        let t = TuneTrace::new();
        assert_eq!(t.total_trials(), 0);
        assert!(t.is_empty());
    }
}
