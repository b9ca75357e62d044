//! Batched candidate scoring.
//!
//! All three tuners score candidates the same way: extract a feature
//! vector per schedule, then ask the [`CostModel`] for a predicted score.
//! The seed implementation did both serially, one candidate at a time.
//! This module collects a whole candidate set and runs two stages:
//!
//! 1. **extraction**, in input order, each candidate straight into its
//!    own reused row buffer;
//! 2. **batched prediction** of every row with the flattened tree kernel
//!    ([`CostModel::score_batch_into`]), tree-major over the row matrix.
//!
//! Determinism: extraction is a pure function of the candidate and
//! prediction accumulates per sample independently, so scores are
//! bit-identical to the seed's per-candidate `extract → score` loop
//! (scoring a sample alone or inside any batch walks the same trees in
//! the same order).

use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

use crate::cost_model::CostModel;
use harl_obs::{Counter, Tracer};

/// Candidates scored by every pipeline in the process, for the serve
/// `metrics` verb. Per-tuner numbers stay in [`ScoreStats`].
fn candidates_counter() -> &'static Counter {
    static CELL: OnceLock<Counter> = OnceLock::new();
    CELL.get_or_init(|| harl_obs::global().counter("harl_scoring_candidates_total"))
}

/// Monotonic counters of the scoring pipeline (`LintStats`-style): cheap
/// to keep, merged into reports and serve status replies. Never serialized
/// into tuner checkpoints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScoreStats {
    /// Scoring batches issued.
    pub batch_count: u64,
    /// Candidates scored (each one extracted and predicted) across all
    /// batches.
    pub scored: u64,
    /// Always equal to `scored`: kept for `benchmark/` only, removed with
    /// the benchmark re-baseline (ROADMAP item 7).
    pub cache_misses: u64,
}

impl ScoreStats {
    /// Adds another pipeline's counters into this one.
    pub fn merge(&mut self, other: &ScoreStats) {
        self.batch_count += other.batch_count;
        self.scored += other.scored;
        self.cache_misses += other.cache_misses;
    }

    /// Always 0 (there is no cache): kept for `benchmark/` only, removed
    /// with the benchmark re-baseline (ROADMAP item 7).
    pub fn hit_rate(&self) -> f64 {
        0.0
    }
}

/// The capacity [`ScoringPipeline::new`] ignores: kept for `benchmark/`
/// only, removed with the benchmark re-baseline (ROADMAP item 7).
pub const DEFAULT_CACHE_CAP: usize = 4096;

/// The batched scoring pipeline: counters + reusable row buffers. One per
/// tuner; **not** part of checkpoint state.
#[derive(Debug, Default)]
pub struct ScoringPipeline {
    stats: ScoreStats,
    /// Feature matrix of the current batch; inner `Vec`s keep their
    /// capacity across batches, so steady-state scoring allocates nothing.
    rows: Vec<Vec<f32>>,
    /// Rows valid after the last [`ScoringPipeline::score`] call.
    last_n: usize,
    /// Per-batch trace events when tracing is on; disabled by default.
    tracer: Tracer,
}

impl ScoringPipeline {
    /// [`ScoringPipeline::default`]; both arguments are ignored. Kept for
    /// `benchmark/` only, removed with the benchmark re-baseline (ROADMAP
    /// item 7).
    pub fn new(_threads: usize, _cache_cap: usize) -> Self {
        ScoringPipeline::default()
    }

    /// The pipeline counters.
    pub fn stats(&self) -> &ScoreStats {
        &self.stats
    }

    /// Attaches a tracer: each batch then emits a `score_batch` event
    /// (batch size, SIMD backend). Observation only — scores are
    /// unchanged.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Does nothing: nothing outlives a batch. Kept for `benchmark/` only,
    /// removed with the benchmark re-baseline (ROADMAP item 7).
    pub fn begin_episode(&mut self) {}

    /// Feature row `i` of the last batch (valid until the next call).
    pub fn row(&self, i: usize) -> &[f32] {
        debug_assert!(i < self.last_n, "row {i} outside last batch");
        &self.rows[i]
    }

    /// Scores `items` into `out` (cleared first), in input order.
    ///
    /// `extract` fills a feature vector for one item and must be a pure
    /// function of the item. After the call, [`ScoringPipeline::row`]
    /// exposes each item's features without re-extraction.
    pub fn score<S>(
        &mut self,
        cost: &CostModel,
        items: &[S],
        extract: impl Fn(&S, &mut Vec<f32>),
        out: &mut Vec<f64>,
    ) {
        let n = items.len();
        self.last_n = n;
        self.stats.batch_count += 1;
        self.stats.scored += n as u64;
        self.stats.cache_misses += n as u64;
        candidates_counter().add(n as u64);
        if self.tracer.is_enabled() {
            self.tracer.event(
                "score_batch",
                &[
                    ("n", n.into()),
                    ("backend", harl_simd::backend_name().into()),
                ],
            );
        }

        // 1. extract each candidate in place into its reused row buffer
        if self.rows.len() < n {
            self.rows.resize_with(n, Vec::new);
        }
        for (buf, item) in self.rows.iter_mut().zip(items) {
            buf.clear();
            extract(item, buf);
        }

        // 2. batched prediction with the flattened kernel, straight off
        // the rows
        cost.score_batch_into(&self.rows[..n], out);
    }

    /// [`ScoringPipeline::score`]; `fingerprint` is ignored. Kept for
    /// `benchmark/` only, removed with the benchmark re-baseline (ROADMAP
    /// item 7).
    pub fn score_into<S>(
        &mut self,
        cost: &CostModel,
        items: &[S],
        _fingerprint: impl Fn(&S) -> u64,
        extract: impl Fn(&S, &mut Vec<f32>),
        out: &mut Vec<f64>,
    ) {
        self.score(cost, items, extract, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::booster::GbtParams;

    fn feat_of(x: &f32, buf: &mut Vec<f32>) {
        buf.clear();
        buf.extend_from_slice(&[*x, x * x, 1.0 - x]);
    }

    fn trained_model() -> CostModel {
        let mut cm = CostModel::new(GbtParams::default());
        cm.update_batch((0..200).map(|i| {
            let x = i as f32 / 200.0;
            let mut f = Vec::new();
            feat_of(&x, &mut f);
            (f, 1e9 * (1.0 + i as f64 / 50.0))
        }));
        cm
    }

    #[test]
    fn pipeline_matches_serial_scoring_bit_for_bit() {
        let cm = trained_model();
        let mut pipe = ScoringPipeline::default();
        for n in [1, 97, 5] {
            let items: Vec<f32> = (0..n).map(|i| i as f32 / n as f32).collect();
            let mut out = Vec::new();
            pipe.score(&cm, &items, feat_of, &mut out);
            assert_eq!(out.len(), n);
            for (o, x) in out.iter().zip(&items) {
                let mut f = Vec::new();
                feat_of(x, &mut f);
                assert_eq!(o.to_bits(), cm.score(&f).to_bits());
            }
        }
        assert_eq!(pipe.stats().batch_count, 3);
        assert_eq!(pipe.stats().scored, 103);
    }

    #[test]
    fn rows_expose_last_batch_features() {
        let cm = trained_model();
        let items = [0.1f32, 0.9];
        let mut pipe = ScoringPipeline::default();
        let mut out = Vec::new();
        pipe.score(&cm, &items, feat_of, &mut out);
        let mut want = Vec::new();
        feat_of(&items[1], &mut want);
        assert_eq!(pipe.row(1), want.as_slice());
    }

    #[test]
    fn stats_merge_adds_counters() {
        let mut a = ScoreStats {
            batch_count: 1,
            scored: 10,
            cache_misses: 10,
        };
        let b = ScoreStats {
            batch_count: 2,
            scored: 20,
            cache_misses: 20,
        };
        a.merge(&b);
        assert_eq!(
            a,
            ScoreStats {
                batch_count: 3,
                scored: 30,
                cache_misses: 30,
            }
        );
        assert_eq!(a.hit_rate(), 0.0);
    }
}
