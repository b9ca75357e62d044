//! The light-weight cost model of §3.2 / §4.3.
//!
//! Wraps the GBT booster as an on-line learned predictor of *normalized
//! throughput* (measured FLOP/s divided by a per-workload scale). It is the
//! RL reward function `r(s_t, s_{t-1}) = (C(s_t) − C(s_{t-1})) / C(s_{t-1})`
//! and the top-K filter before hardware measurements, retrained on the fly
//! from measurement results (Algorithm 1, line 22): rows are absorbed as
//! they are measured, and the booster is refitted when it is next read.

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

/// Prediction floor: scores are clamped to stay positive so the
/// relative-improvement reward is well-defined.
const FLOOR: f64 = 1e-3;

/// On-line cost model over feature vectors: a dataset, and the booster
/// fitted to it as a cache.
///
/// Absorbing rows ([`CostModel::absorb`]) makes a fitted model *stale*;
/// [`CostModel::fit`] refits it. Reading a stale model panics, so a score
/// is never the untrained constant of a model that has samples. The
/// booster is a deterministic function of the dataset, so it is never
/// serialized: a deserialized model with samples is stale until fitted.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostModel {
    params: GbtParams,
    data: Dataset,
    /// Throughput scale so targets sit near [0, 1].
    scale: f64,
    /// `Gbt::fit` of `data / scale`; `None` while stale or empty.
    #[serde(skip)]
    model: Option<Gbt>,
}

impl CostModel {
    /// An empty (untrained) cost model.
    pub fn new(params: GbtParams) -> Self {
        CostModel {
            params,
            data: Dataset::with_capacity(4096),
            scale: 0.0,
            model: None,
        }
    }

    /// Number of measurement samples absorbed.
    pub fn num_samples(&self) -> usize {
        self.data.len()
    }

    /// True once the model has samples (it may still be stale).
    pub fn is_trained(&self) -> bool {
        !self.data.is_empty()
    }

    /// True when rows were absorbed since the last fit: the model must be
    /// [fitted](CostModel::fit) before it is read.
    pub fn is_stale(&self) -> bool {
        self.model.is_none() && !self.data.is_empty()
    }

    /// Stores a batch of measured `(features, flops_per_sec)` rows without
    /// fitting, dropping any with a non-finite target or feature: the split
    /// search orders keys with `partial_cmp`, which is a total order (and
    /// safe to hand to std's sort) only without NaN, and an infinite target
    /// would turn every gradient non-finite. The model is stale once a row
    /// is stored.
    ///
    /// Raw throughputs are stored; normalization by the running maximum
    /// happens at fit time so early samples are rescaled consistently.
    pub fn absorb(&mut self, batch: impl IntoIterator<Item = (Vec<f32>, f64)>) {
        for (features, flops_per_sec) in batch {
            if !flops_per_sec.is_finite() || features.iter().any(|v| !v.is_finite()) {
                rejected_samples().inc();
                continue;
            }
            self.scale = self.scale.max(flops_per_sec);
            self.data.push(features, flops_per_sec);
            self.model = None;
        }
    }

    /// [Absorbs](CostModel::absorb) a batch, then [fits](CostModel::fit).
    pub fn update_batch(&mut self, batch: impl IntoIterator<Item = (Vec<f32>, f64)>) {
        self.absorb(batch);
        self.fit();
    }

    /// Fits the booster to the dataset when the model is stale; a fitted
    /// or empty model is left as it is.
    pub fn fit(&mut self) {
        if !self.is_stale() {
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
        retrain_metrics().0.inc();
        retrain_metrics().1.observe(t.elapsed().as_secs_f64());
    }

    /// Whether a restored dataset can be fitted: as many targets as
    /// feature rows, every row `width` wide, every value finite (what
    /// [`CostModel::absorb`] admits). The error says what does not fit.
    pub fn check_rows(&self, width: usize) -> Result<(), String> {
        let (rows, targets) = (self.data.features(), self.data.targets());
        if rows.len() != targets.len() {
            return Err(format!(
                "the cost model holds {} feature rows for {} targets",
                rows.len(),
                targets.len()
            ));
        }
        for (i, (row, y)) in rows.iter().zip(targets).enumerate() {
            if row.len() != width {
                return Err(format!(
                    "cost-model row {i} has {} features, not {width}",
                    row.len()
                ));
            }
            if !y.is_finite() || row.iter().any(|v| !v.is_finite()) {
                return Err(format!("cost-model row {i} holds a non-finite value"));
            }
        }
        Ok(())
    }

    /// The fitted booster, `None` for an empty model.
    ///
    /// # Panics
    /// If the model is stale: rows absorbed since the last fit would be
    /// scored as if they had never been measured.
    fn booster(&self) -> Option<&Gbt> {
        assert!(
            !self.is_stale(),
            "a stale cost model was read: fit it after absorbing rows"
        );
        self.model.as_ref()
    }

    /// Predicted score (normalized throughput, clamped positive). Before
    /// any training data exists, returns a neutral constant so rewards are
    /// zero rather than undefined.
    pub fn score(&self, features: &[f32]) -> f64 {
        match self.booster() {
            Some(m) => m.predict(features).max(FLOOR),
            None => 0.5,
        }
    }

    /// Scores a batch of feature vectors into `out` (cleared first) via
    /// the flattened batch kernel, amortizing tree iteration over the
    /// whole candidate matrix. Bit-identical to mapping [`CostModel::score`].
    pub fn score_batch_into<X: AsRef<[f32]>>(&self, features: &[X], out: &mut Vec<f64>) {
        match self.booster() {
            Some(m) => {
                m.predict_batch_into(features, out);
                for v in out.iter_mut() {
                    *v = v.max(FLOOR);
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
    fn absorbing_makes_the_model_stale_until_it_is_fitted() {
        let mut cm = CostModel::new(GbtParams {
            n_rounds: 5,
            ..Default::default()
        });
        cm.absorb([(feat(0.5), f64::NAN)]);
        assert!(!cm.is_stale(), "a refused row changes nothing");
        cm.absorb((0..40).map(|i| (feat(i as f32 / 40.0), 1e9 + i as f64)));
        assert!(cm.is_trained() && cm.is_stale());
        cm.fit();
        assert!(!cm.is_stale());
        let fitted = cm.score(&feat(0.3));
        cm.absorb([(feat(0.9), 2e9)]);
        assert!(cm.is_stale());
        cm.fit();
        assert_ne!(cm.score(&feat(0.9)).to_bits(), fitted.to_bits());
    }

    #[test]
    #[should_panic(expected = "a stale cost model was read")]
    fn reading_a_stale_model_panics() {
        let mut cm = CostModel::new(GbtParams::default());
        cm.absorb([(feat(0.5), 1e9)]);
        cm.score(&feat(0.5));
    }

    #[test]
    fn check_rows_names_what_cannot_be_fitted() {
        let mut cm = CostModel::new(GbtParams::default());
        cm.absorb([(feat(0.5), 1e9), (feat(0.7), 2e9)]);
        assert_eq!(cm.check_rows(3), Ok(()));
        let err = cm.check_rows(4).unwrap_err();
        assert!(err.contains("row 0 has 3 features, not 4"), "{err}");
        let text = serde_json::to_string(&cm).unwrap();
        let damaged = |from: &str, to: &str| -> CostModel {
            serde_json::from_str(&text.replacen(from, to, 1)).unwrap()
        };
        let short = damaged(r#""targets":[1000000000,"#, r#""targets":["#);
        let err = short.check_rows(3).unwrap_err();
        assert!(err.contains("2 feature rows for 1 targets"), "{err}");
        let nan = damaged(r#""targets":[1000000000,"#, r#""targets":[null,"#);
        let err = nan.check_rows(3).unwrap_err();
        assert!(err.contains("row 0 holds a non-finite value"), "{err}");
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
    fn serde_round_trip_preserves_predictions() {
        let mut cm = CostModel::new(GbtParams::default());
        cm.update_batch((0..100).map(|i| (feat(i as f32 / 100.0), 1e9 * (1.0 + i as f64))));
        let text = serde_json::to_string(&cm).unwrap();
        assert!(!text.contains("trees"), "the booster is not serialized");
        let mut back: CostModel = serde_json::from_str(&text).unwrap();
        assert_eq!(back.num_samples(), cm.num_samples());
        assert_eq!(back.scale(), cm.scale());
        assert!(
            back.is_stale(),
            "a restored model is refitted before it is read"
        );
        back.fit();
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
        // the refitted booster's batch predictions must stay bit-identical
        // to the pointer walk on both sides
        let mut cm = CostModel::new(GbtParams::default());
        cm.update_batch((0..100).map(|i| (feat(i as f32 / 100.0), 1e9 * (1.0 + i as f64))));
        let rows: Vec<Vec<f32>> = (0..20).map(|i| feat(i as f32 / 20.0)).collect();
        let before = cm.score_batch(&rows);
        let mut back: CostModel =
            serde_json::from_str(&serde_json::to_string(&cm).unwrap()).unwrap();
        back.fit();
        let after = back.score_batch(&rows);
        for ((a, b), r) in before.iter().zip(&after).zip(&rows) {
            assert_eq!(a.to_bits(), b.to_bits());
            assert_eq!(a.to_bits(), back.score(r).to_bits());
        }
    }

    #[test]
    fn scale_tracks_max_throughput() {
        let mut cm = CostModel::new(GbtParams::default());
        cm.absorb([(feat(0.1), 5e9), (feat(0.2), 2e9)]);
        assert_eq!(cm.scale(), 5e9);
    }
}
