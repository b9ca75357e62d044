//! The light-weight cost model of §3.2 / §4.3.
//!
//! Wraps the GBT booster as an on-line learned predictor of *normalized
//! throughput* (measured FLOP/s divided by a per-workload scale). It is the
//! RL reward function `r(s_t, s_{t-1}) = (C(s_t) − C(s_{t-1})) / C(s_{t-1})`
//! and the top-K filter before hardware measurements, retrained on the fly
//! from measurement results (Algorithm 1, line 22).

use crate::booster::{Dataset, Gbt, GbtParams};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Global retrain count + wall-time histogram: GBT fits are the heaviest
/// non-measurement phase, so their cost shows up in every metrics dump.
fn retrain_metrics() -> &'static (harl_obs::Counter, harl_obs::Histogram) {
    static CELL: OnceLock<(harl_obs::Counter, harl_obs::Histogram)> = OnceLock::new();
    CELL.get_or_init(|| {
        let reg = harl_obs::global();
        (
            reg.counter("harl_gbt_retrains_total"),
            reg.histogram("harl_gbt_retrain_seconds", harl_obs::SECONDS_BOUNDS),
        )
    })
}

/// Samples refused for a non-finite feature or target.
fn rejected_samples() -> &'static harl_obs::Counter {
    static CELL: OnceLock<harl_obs::Counter> = OnceLock::new();
    CELL.get_or_init(|| harl_obs::global().counter("harl_gbt_rejected_samples_total"))
}

/// On-line cost model over feature vectors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostModel {
    params: GbtParams,
    data: Dataset,
    model: Option<Gbt>,
    /// Throughput scale so targets sit near [0, 1].
    scale: f64,
    /// Retrain after this many new samples.
    retrain_every: usize,
    since_train: usize,
    /// Prediction floor: scores are clamped to stay positive so the
    /// relative-improvement reward is well-defined.
    floor: f64,
}

impl CostModel {
    /// An empty (untrained) cost model.
    pub fn new(params: GbtParams) -> Self {
        CostModel {
            params,
            data: Dataset::with_capacity(4096),
            model: None,
            scale: 0.0,
            retrain_every: 32,
            since_train: 0,
            floor: 1e-3,
        }
    }

    /// Number of measurement samples absorbed.
    pub fn num_samples(&self) -> usize {
        self.data.len()
    }

    /// True once at least one retrain has happened.
    pub fn is_trained(&self) -> bool {
        self.model.is_some()
    }

    /// Stores one sample, unless its target or any feature is non-finite:
    /// the split search orders keys with `partial_cmp`, which is a total
    /// order (and safe to hand to std's sort) only without NaN, and an
    /// infinite target would turn every gradient non-finite.
    fn absorb(&mut self, features: Vec<f32>, flops_per_sec: f64) -> bool {
        if !flops_per_sec.is_finite() || features.iter().any(|v| !v.is_finite()) {
            rejected_samples().inc();
            return false;
        }
        self.scale = self.scale.max(flops_per_sec);
        self.data.push(features, flops_per_sec);
        true
    }

    /// Records a measured `(features, flops_per_sec)` pair and retrains
    /// periodically. Returns `true` when a retrain happened. A sample with
    /// a non-finite value is dropped.
    ///
    /// Raw throughputs are stored; normalization by the running maximum
    /// happens at retrain time so early samples are rescaled consistently.
    pub fn update(&mut self, features: Vec<f32>, flops_per_sec: f64) -> bool {
        if !self.absorb(features, flops_per_sec) {
            return false;
        }
        self.since_train += 1;
        if self.since_train >= self.retrain_every || self.model.is_none() {
            self.retrain();
            true
        } else {
            false
        }
    }

    /// Records a whole batch (dropping samples with a non-finite value),
    /// then retrains once.
    pub fn update_batch(&mut self, batch: impl IntoIterator<Item = (Vec<f32>, f64)>) {
        for (f, y) in batch {
            self.absorb(f, y);
        }
        self.retrain();
    }

    fn retrain(&mut self) {
        if self.data.is_empty() {
            return;
        }
        let t = std::time::Instant::now();
        let scale = if self.scale > 0.0 { self.scale } else { 1.0 };
        let targets: Vec<f64> = self.data.targets().iter().map(|&y| y / scale).collect();
        self.model = Some(Gbt::fit(
            self.data.features(),
            &targets,
            self.params.clone(),
        ));
        self.since_train = 0;
        retrain_metrics().0.inc();
        retrain_metrics().1.observe(t.elapsed().as_secs_f64());
    }

    /// Predicted score (normalized throughput, clamped positive). Before
    /// any training data exists, returns a neutral constant so rewards are
    /// zero rather than undefined.
    pub fn score(&self, features: &[f32]) -> f64 {
        match &self.model {
            Some(m) => m.predict(features).max(self.floor),
            None => 0.5,
        }
    }

    /// Scores a batch of feature vectors into `out` (cleared first) via
    /// the flattened batch kernel, amortizing tree iteration over the
    /// whole candidate matrix. Bit-identical to mapping [`CostModel::score`].
    pub fn score_batch_into<X: AsRef<[f32]>>(&self, features: &[X], out: &mut Vec<f64>) {
        match &self.model {
            Some(m) => {
                m.predict_batch_into(features, out);
                for v in out.iter_mut() {
                    *v = v.max(self.floor);
                }
            }
            None => {
                out.clear();
                out.resize(features.len(), 0.5);
            }
        }
    }

    /// Scores a batch of feature vectors (flattened batch kernel).
    pub fn score_batch(&self, features: &[Vec<f32>]) -> Vec<f64> {
        let mut out = Vec::new();
        self.score_batch_into(features, &mut out);
        out
    }

    /// RL reward: relative improvement from `prev` to `next` feature
    /// vectors, `(C(s') − C(s)) / C(s)`.
    pub fn reward(&self, prev: &[f32], next: &[f32]) -> f64 {
        let cp = self.score(prev);
        let cn = self.score(next);
        (cn - cp) / cp
    }

    /// The throughput scale used for target normalization (max observed
    /// FLOP/s).
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Split-frequency feature importance of the current model (empty when
    /// untrained). Useful for diagnosing which schedule features drive the
    /// cost model's predictions.
    pub fn feature_importance(&self, n_features: usize) -> Vec<u64> {
        match &self.model {
            Some(m) => m.feature_importance(n_features),
            None => vec![0; n_features],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feat(v: f32) -> Vec<f32> {
        vec![v, v * v, 1.0 - v]
    }

    #[test]
    fn untrained_is_neutral() {
        let cm = CostModel::new(GbtParams::default());
        assert_eq!(cm.score(&feat(0.3)), 0.5);
        assert_eq!(cm.reward(&feat(0.1), &feat(0.9)), 0.0);
    }

    #[test]
    fn learns_ordering_from_measurements() {
        let mut cm = CostModel::new(GbtParams::default());
        // throughput rises with the feature
        let batch: Vec<(Vec<f32>, f64)> = (0..200)
            .map(|i| (feat(i as f32 / 200.0), 1e9 * (1.0 + i as f64 / 50.0)))
            .collect();
        cm.update_batch(batch);
        assert!(cm.is_trained());
        assert!(cm.score(&feat(0.95)) > cm.score(&feat(0.05)));
        assert!(cm.reward(&feat(0.05), &feat(0.95)) > 0.0);
        assert!(cm.reward(&feat(0.95), &feat(0.05)) < 0.0);
    }

    #[test]
    fn retrains_periodically() {
        let mut cm = CostModel::new(GbtParams {
            n_rounds: 5,
            ..Default::default()
        });
        let mut retrains = 0;
        for i in 0..100 {
            if cm.update(feat(i as f32 / 100.0), 1e9 + i as f64) {
                retrains += 1;
            }
        }
        assert!(retrains >= 3, "expected periodic retrains, got {retrains}");
    }

    #[test]
    fn scores_stay_positive() {
        let mut cm = CostModel::new(GbtParams::default());
        cm.update_batch((0..64).map(|i| (feat(i as f32), if i % 2 == 0 { 1.0 } else { 1e12 })));
        for i in 0..64 {
            assert!(cm.score(&feat(i as f32)) > 0.0);
        }
    }

    #[test]
    fn untrained_importance_is_zero() {
        let cm = CostModel::new(GbtParams::default());
        assert!(cm.feature_importance(3).iter().all(|&c| c == 0));
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let mut cm = CostModel::new(GbtParams::default());
        cm.update_batch((0..100).map(|i| (feat(i as f32 / 100.0), 1e9 * (1.0 + i as f64))));
        let text = serde_json::to_string(&cm).unwrap();
        let back: CostModel = serde_json::from_str(&text).unwrap();
        assert_eq!(back.num_samples(), cm.num_samples());
        assert_eq!(back.scale(), cm.scale());
        for i in 0..20 {
            let f = feat(i as f32 / 20.0);
            assert_eq!(back.score(&f).to_bits(), cm.score(&f).to_bits());
        }
    }

    #[test]
    fn score_batch_bit_equal_to_score() {
        let mut cm = CostModel::new(GbtParams::default());
        cm.update_batch((0..150).map(|i| (feat(i as f32 / 150.0), 1e9 * (1.0 + i as f64 / 30.0))));
        let rows: Vec<Vec<f32>> = (0..64).map(|i| feat(i as f32 / 64.0 - 0.2)).collect();
        let batch = cm.score_batch(&rows);
        for (b, r) in batch.iter().zip(&rows) {
            assert_eq!(b.to_bits(), cm.score(r).to_bits());
        }
        // untrained model stays at the neutral constant
        let fresh = CostModel::new(GbtParams::default());
        assert_eq!(fresh.score_batch(&rows), vec![0.5; rows.len()]);
    }

    #[test]
    fn serde_round_trip_preserves_batch_predictions() {
        // the flat layout is rebuilt after deserialize; batch predictions
        // must stay bit-identical to the pointer walk on both sides
        let mut cm = CostModel::new(GbtParams::default());
        cm.update_batch((0..100).map(|i| (feat(i as f32 / 100.0), 1e9 * (1.0 + i as f64))));
        let rows: Vec<Vec<f32>> = (0..20).map(|i| feat(i as f32 / 20.0)).collect();
        let before = cm.score_batch(&rows);
        let back: CostModel = serde_json::from_str(&serde_json::to_string(&cm).unwrap()).unwrap();
        let after = back.score_batch(&rows);
        for ((a, b), r) in before.iter().zip(&after).zip(&rows) {
            assert_eq!(a.to_bits(), b.to_bits());
            assert_eq!(a.to_bits(), back.score(r).to_bits());
        }
    }

    #[test]
    fn scale_tracks_max_throughput() {
        let mut cm = CostModel::new(GbtParams::default());
        cm.update(feat(0.1), 5e9);
        cm.update(feat(0.2), 2e9);
        assert_eq!(cm.scale(), 5e9);
    }
}
