//! Batched candidate scoring.
//!
//! All three tuners score candidates the same way: extract a feature
//! vector per schedule, then ask the [`CostModel`] for a predicted score.
//! The seed implementation did both serially, one candidate at a time.
//! This module collects a whole candidate set and runs the pipeline
//!
//! 1. **fingerprint + cache probe** (input order):
//!    schedules revisited inside an episode — mutation neighbourhoods,
//!    surviving elites, re-scored populations — skip extraction *and*
//!    model inference entirely (the cache holds both the feature row and
//!    the model's score, valid because the model is fixed between
//!    [`ScoringPipeline::begin_episode`] boundaries);
//! 2. **miss extraction**, in input order, into reused buffers;
//! 3. **batched prediction of the misses** with the flattened tree kernel
//!    ([`CostModel::score_batch_into`]), tree-major over the miss matrix.
//!
//! Determinism: fingerprints and cache updates happen in input order,
//! extraction is a pure function scattered back by index, and prediction
//! accumulates per sample independently — so scores are bit-identical to
//! the seed's per-candidate `extract → score` loop (scoring a sample alone
//! or inside any batch walks the same trees in the same order).

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::OnceLock;

use crate::cost_model::CostModel;
use harl_obs::{Counter, Tracer};

/// Global scoring counters, aggregated across every pipeline in the
/// process so the serve `metrics` verb can report an overall cache hit
/// rate. Per-tuner numbers stay in [`ScoreStats`].
fn scoring_counters() -> &'static (Counter, Counter, Counter) {
    static CELL: OnceLock<(Counter, Counter, Counter)> = OnceLock::new();
    CELL.get_or_init(|| {
        let reg = harl_obs::global();
        (
            reg.counter("harl_scoring_candidates_total"),
            reg.counter("harl_scoring_cache_hits_total"),
            reg.counter("harl_scoring_cache_misses_total"),
        )
    })
}

/// Monotonic counters of the scoring pipeline (`LintStats`-style): cheap
/// to keep, merged into reports and serve status replies. Never serialized
/// into tuner checkpoints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScoreStats {
    /// `score_into` calls issued.
    pub batch_count: u64,
    /// Candidates scored across all batches.
    pub scored: u64,
    /// Candidates served entirely from the cache (no extraction, no
    /// model inference).
    pub cache_hits: u64,
    /// Candidates that needed a fresh extraction.
    pub cache_misses: u64,
    /// Feature vectors inserted into the cache.
    pub features_cached: u64,
}

impl ScoreStats {
    /// Adds another pipeline's counters into this one.
    pub fn merge(&mut self, other: &ScoreStats) {
        self.batch_count += other.batch_count;
        self.scored += other.scored;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.features_cached += other.features_cached;
    }

    /// Fraction of scored candidates served from the cache.
    pub fn hit_rate(&self) -> f64 {
        if self.scored == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.scored as f64
        }
    }
}

/// Slab index meaning "no entry" (ends of the recency list).
const NIL: u32 = u32::MAX;

/// One cached scoring result — the extracted feature row and the model's
/// score for it — threaded on the recency list.
#[derive(Debug, Clone)]
struct CacheEntry {
    key: u64,
    /// Neighbour used more recently (`NIL` at the head).
    prev: u32,
    /// Neighbour used less recently (`NIL` at the tail).
    next: u32,
    features: Vec<f32>,
    score: f64,
}

/// LRU cache of scoring results (feature vector + model score) keyed by
/// schedule fingerprint.
///
/// Lives inside one tuner, cleared at episode/round boundaries
/// ([`ScoringPipeline::begin_episode`]) so a key never outlives the
/// (graph, sketch-set, target, model) context it was computed under —
/// cost-model updates happen between rounds, never inside an episode.
///
/// Entries live in a slab threaded on an intrusive doubly-linked recency
/// list (`head` most recent, `tail` least), with a map from fingerprint to
/// slab index, so hit, insert and evict are all O(1). Every touch happens
/// in input order, so eviction is deterministic. Live entries always
/// occupy `slab[..map.len()]`: a new key takes the next slot until the
/// cache is full and the tail's slot afterwards, and the only removal is
/// [`FeatureCache::clear`], which keeps the slab — the feature buffers are
/// recycled by the next episode.
#[derive(Debug, Clone)]
pub struct FeatureCache {
    map: HashMap<u64, u32>,
    slab: Vec<CacheEntry>,
    head: u32,
    tail: u32,
    cap: usize,
}

impl FeatureCache {
    /// A cache holding at most `cap.max(1)` entries (slab indices are
    /// `u32` with `NIL` reserved, which bounds `cap` from above).
    pub fn new(cap: usize) -> Self {
        FeatureCache {
            map: HashMap::new(),
            slab: Vec::new(),
            head: NIL,
            tail: NIL,
            cap: cap.clamp(1, NIL as usize),
        }
    }

    /// Looks a fingerprint up, refreshing its recency on hit.
    pub fn get(&mut self, key: u64) -> Option<(&[f32], f64)> {
        let idx = *self.map.get(&key)?;
        self.unlink(idx);
        self.push_front(idx);
        let entry = &self.slab[idx as usize];
        Some((&entry.features, entry.score))
    }

    /// Inserts a scoring result, evicting the least-recently-used entry
    /// when full.
    pub fn insert(&mut self, key: u64, features: Vec<f32>, score: f64) {
        let entry = self.claim(key);
        entry.features = features;
        entry.score = score;
    }

    /// Inserts a scoring result from a borrowed row into the claimed
    /// slot's buffer — the evicted entry's when full, a previous episode's
    /// after `clear` — so caching a miss allocates only while the slab is
    /// still growing towards `cap`.
    pub fn insert_from_slice(&mut self, key: u64, features: &[f32], score: f64) {
        let entry = self.claim(key);
        entry.features.clear();
        entry.features.extend_from_slice(features);
        entry.score = score;
    }

    /// Makes `key` the most recent entry and returns it for filling: its
    /// own slot when present (a refresh, nothing is evicted), else the
    /// next unused slot, else the least-recently-used entry's.
    fn claim(&mut self, key: u64) -> &mut CacheEntry {
        let idx = if let Some(&idx) = self.map.get(&key) {
            self.unlink(idx);
            idx
        } else {
            let idx = if self.map.len() < self.cap {
                let idx = self.map.len() as u32;
                if idx as usize == self.slab.len() {
                    self.slab.push(CacheEntry {
                        key,
                        prev: NIL,
                        next: NIL,
                        features: Vec::new(),
                        score: 0.0,
                    });
                }
                idx
            } else {
                let lru = self.tail;
                self.unlink(lru);
                self.map.remove(&self.slab[lru as usize].key);
                lru
            };
            self.slab[idx as usize].key = key;
            self.map.insert(key, idx);
            idx
        };
        self.push_front(idx);
        &mut self.slab[idx as usize]
    }

    /// Detaches `idx` from the recency list.
    fn unlink(&mut self, idx: u32) {
        let (prev, next) = (self.slab[idx as usize].prev, self.slab[idx as usize].next);
        match prev {
            NIL => self.head = next,
            p => self.slab[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n as usize].prev = prev,
        }
    }

    /// Links a detached `idx` in as the most recent entry.
    fn push_front(&mut self, idx: u32) {
        let old = self.head;
        let entry = &mut self.slab[idx as usize];
        entry.prev = NIL;
        entry.next = old;
        match old {
            NIL => self.tail = idx,
            h => self.slab[h as usize].prev = idx,
        }
        self.head = idx;
    }

    /// Number of cached feature vectors.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drops every entry (episode boundary); the slab and its feature
    /// buffers stay for the next episode to refill.
    pub fn clear(&mut self) {
        self.map.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Live entries from most to least recently used, without touching
    /// recency.
    #[cfg(test)]
    fn entries_by_recency(&self) -> Vec<(u64, Vec<f32>, u64)> {
        let mut out = Vec::new();
        let mut idx = self.head;
        while idx != NIL {
            let e = &self.slab[idx as usize];
            out.push((e.key, e.features.clone(), e.score.to_bits()));
            idx = e.next;
        }
        out
    }
}

/// Default feature-cache capacity (vectors, not bytes: `FEATURE_DIM` f32
/// each, so the worst case is ~1 MiB).
pub const DEFAULT_CACHE_CAP: usize = 4096;

/// The batched scoring pipeline: feature cache + counters + reusable
/// scratch. One per tuner; **not** part of checkpoint state.
#[derive(Debug)]
pub struct ScoringPipeline {
    /// Probed before and filled after the extraction.
    cache: FeatureCache,
    stats: ScoreStats,
    /// Scratch: fingerprints of the current batch, input order.
    keys: Vec<u64>,
    /// Scratch: indices that missed the cache.
    misses: Vec<usize>,
    /// Scratch feature matrix; inner `Vec`s keep their capacity across
    /// batches, so steady-state hits allocate nothing.
    rows: Vec<Vec<f32>>,
    /// Scratch extraction buffers, one per miss, reused across batches:
    /// misses are extracted into these in place, the model predicts
    /// straight off them, and each then trades places with its `rows`
    /// slot — so steady-state misses allocate nothing either.
    miss_rows: Vec<Vec<f32>>,
    /// Scratch: scores of the current batch's misses.
    miss_scores: Vec<f64>,
    /// Rows valid after the last `score_into` call.
    last_n: usize,
    /// Per-batch trace events when tracing is on; disabled by default.
    tracer: Tracer,
}

impl ScoringPipeline {
    /// A pipeline with the given cache capacity. `_threads` is accepted
    /// and ignored; the search runs on the caller's thread; removed with
    /// the benchmark re-baseline (ROADMAP item 7).
    pub fn new(_threads: usize, cache_cap: usize) -> Self {
        ScoringPipeline {
            cache: FeatureCache::new(cache_cap),
            stats: ScoreStats::default(),
            keys: Vec::new(),
            misses: Vec::new(),
            rows: Vec::new(),
            miss_rows: Vec::new(),
            miss_scores: Vec::new(),
            last_n: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// The pipeline counters.
    pub fn stats(&self) -> &ScoreStats {
        &self.stats
    }

    /// Attaches a tracer: each `score_into` call then emits a
    /// `score_batch` event (batch size, hits, misses). Observation only —
    /// scores and cache behaviour are unchanged.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Clears the cache at an episode/round boundary. The cache key is a
    /// schedule fingerprint only, so it must not survive into a different
    /// (graph, sketch-set, target) context — nor across a cost-model
    /// update, since cached entries hold the model's scores.
    pub fn begin_episode(&mut self) {
        self.cache.clear();
    }

    /// Feature row `i` of the last batch (valid until the next call).
    pub fn row(&self, i: usize) -> &[f32] {
        debug_assert!(i < self.last_n, "row {i} outside last batch");
        &self.rows[i]
    }

    /// Scores `items` into `out` (cleared first), in input order.
    ///
    /// `fingerprint` keys the feature cache; `extract` fills a feature
    /// vector for one item and must be a pure function of the item. After
    /// the call, [`ScoringPipeline::row`] exposes each item's features
    /// without re-extraction.
    pub fn score_into<S>(
        &mut self,
        cost: &CostModel,
        items: &[S],
        fingerprint: impl Fn(&S) -> u64,
        extract: impl Fn(&S, &mut Vec<f32>),
        out: &mut Vec<f64>,
    ) {
        let n = items.len();
        self.last_n = n;
        self.stats.batch_count += 1;
        self.stats.scored += n as u64;
        if self.rows.len() < n {
            self.rows.resize_with(n, Vec::new);
        }
        self.keys.clear();
        self.misses.clear();

        out.clear();
        out.resize(n, 0.0);

        // 1. cache probe, input order: a hit fills
        // both the feature row and the final score
        for (i, item) in items.iter().enumerate() {
            let key = fingerprint(item);
            self.keys.push(key);
            match self.cache.get(key) {
                Some((feat, score)) => {
                    self.stats.cache_hits += 1;
                    let row = &mut self.rows[i];
                    row.clear();
                    row.extend_from_slice(feat);
                    out[i] = score;
                }
                None => {
                    self.stats.cache_misses += 1;
                    self.misses.push(i);
                }
            }
        }
        let hits = n - self.misses.len();
        let (cand, hit, miss) = scoring_counters();
        cand.add(n as u64);
        hit.add(hits as u64);
        miss.add(self.misses.len() as u64);
        if self.tracer.is_enabled() {
            self.tracer.event(
                "score_batch",
                &[
                    ("n", n.into()),
                    ("hits", hits.into()),
                    ("misses", self.misses.len().into()),
                    ("backend", harl_simd::backend_name().into()),
                ],
            );
        }
        if self.misses.is_empty() {
            return;
        }

        // 2. extract misses in place into the persistent per-miss buffers
        // (buffers keep their capacity across batches, so steady-state
        // misses allocate nothing here)
        let m = self.misses.len();
        if self.miss_rows.len() < m {
            self.miss_rows.resize_with(m, Vec::new);
        }
        for (buf, &i) in self.miss_rows.iter_mut().zip(&self.misses) {
            buf.clear();
            extract(&items[i], buf);
        }

        // 3. batched prediction of the misses with the flattened kernel,
        // straight off the extraction buffers. Per-sample accumulation is
        // independent, so scoring the misses alone is bit-identical to
        // scoring them inside the full batch.
        cost.score_batch_into(&self.miss_rows[..m], &mut self.miss_scores);
        for (j, &i) in self.misses.iter().enumerate() {
            let score = self.miss_scores[j];
            out[i] = score;
            // the one copy of a miss row goes into the cache slot's buffer;
            // the extraction buffer itself becomes row `i` by swap
            self.cache
                .insert_from_slice(self.keys[i], &self.miss_rows[j], score);
            std::mem::swap(&mut self.rows[i], &mut self.miss_rows[j]);
            self.stats.features_cached += 1;
        }
    }
}

impl Default for ScoringPipeline {
    /// A pipeline with the default cache capacity.
    fn default() -> Self {
        ScoringPipeline::new(1, DEFAULT_CACHE_CAP)
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
        for n in [1, 97] {
            let items: Vec<f32> = (0..n).map(|i| i as f32 / n as f32).collect();
            let mut pipe = ScoringPipeline::new(1, 64);
            let mut out = Vec::new();
            pipe.score_into(&cm, &items, |x| x.to_bits() as u64, feat_of, &mut out);
            assert_eq!(pipe.stats().cache_misses, n as u64);
            for (o, x) in out.iter().zip(&items) {
                let mut f = Vec::new();
                feat_of(x, &mut f);
                assert_eq!(o.to_bits(), cm.score(&f).to_bits());
            }
        }
    }

    #[test]
    fn cache_hits_skip_extraction_and_stay_bit_identical() {
        let cm = trained_model();
        let items: Vec<f32> = (0..32).map(|i| i as f32 / 32.0).collect();
        let mut pipe = ScoringPipeline::new(1, 64);
        let mut first = Vec::new();
        pipe.score_into(&cm, &items, |x| x.to_bits() as u64, feat_of, &mut first);
        assert_eq!(pipe.stats().cache_misses, 32);
        assert_eq!(pipe.stats().cache_hits, 0);
        let mut second = Vec::new();
        pipe.score_into(&cm, &items, |x| x.to_bits() as u64, feat_of, &mut second);
        assert_eq!(pipe.stats().cache_hits, 32, "second pass all hits");
        assert_eq!(pipe.stats().features_cached, 32, "nothing re-extracted");
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(pipe.stats().hit_rate() > 0.49);
    }

    #[test]
    fn begin_episode_clears_the_cache() {
        let cm = trained_model();
        let items = [0.25f32, 0.5];
        let mut pipe = ScoringPipeline::new(1, 64);
        let mut out = Vec::new();
        pipe.score_into(&cm, &items, |x| x.to_bits() as u64, feat_of, &mut out);
        pipe.begin_episode();
        pipe.score_into(&cm, &items, |x| x.to_bits() as u64, feat_of, &mut out);
        assert_eq!(pipe.stats().cache_hits, 0);
        assert_eq!(pipe.stats().cache_misses, 4);
    }

    #[test]
    fn rows_expose_last_batch_features() {
        let cm = trained_model();
        let items = [0.1f32, 0.9];
        let mut pipe = ScoringPipeline::new(1, 8);
        let mut out = Vec::new();
        pipe.score_into(&cm, &items, |x| x.to_bits() as u64, feat_of, &mut out);
        let mut want = Vec::new();
        feat_of(&items[1], &mut want);
        assert_eq!(pipe.row(1), want.as_slice());
    }

    #[test]
    fn lru_evicts_oldest_entry_deterministically() {
        let mut cache = FeatureCache::new(2);
        cache.insert(1, vec![1.0], 0.1);
        cache.insert(2, vec![2.0], 0.2);
        assert!(cache.get(1).is_some()); // refresh 1; 2 is now LRU
        cache.insert(3, vec![3.0], 0.3);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(2).is_none(), "entry 2 was least recently used");
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
    }

    /// The tick-scanned cache the slab LRU replaced, kept verbatim as the
    /// reference model: every entry carries the tick of its last touch and
    /// eviction scans for the smallest.
    struct TickScanCache {
        map: HashMap<u64, (u64, Vec<f32>, f64)>,
        cap: usize,
        tick: u64,
    }

    impl TickScanCache {
        fn new(cap: usize) -> Self {
            TickScanCache {
                map: HashMap::new(),
                cap: cap.max(1),
                tick: 0,
            }
        }

        fn get(&mut self, key: u64) -> Option<(&[f32], f64)> {
            self.tick += 1;
            let tick = self.tick;
            match self.map.get_mut(&key) {
                Some(entry) => {
                    entry.0 = tick;
                    Some((&entry.1, entry.2))
                }
                None => None,
            }
        }

        fn insert(&mut self, key: u64, features: Vec<f32>, score: f64) {
            self.tick += 1;
            self.evict_if_full(key);
            self.map.insert(key, (self.tick, features, score));
        }

        fn insert_from_slice(&mut self, key: u64, features: &[f32], score: f64) {
            self.tick += 1;
            let mut buf = self.evict_if_full(key).unwrap_or_default();
            buf.clear();
            buf.extend_from_slice(features);
            self.map.insert(key, (self.tick, buf, score));
        }

        fn evict_if_full(&mut self, key: u64) -> Option<Vec<f32>> {
            if self.map.len() >= self.cap && !self.map.contains_key(&key) {
                if let Some(&lru) = self.map.iter().min_by_key(|(_, e)| e.0).map(|(k, _)| k) {
                    return self.map.remove(&lru).map(|e| e.1);
                }
            }
            None
        }

        fn clear(&mut self) {
            self.map.clear();
            self.tick = 0;
        }

        fn entries_by_recency(&self) -> Vec<(u64, Vec<f32>, u64)> {
            let mut live: Vec<_> = self.map.iter().collect();
            live.sort_by_key(|(_, e)| std::cmp::Reverse(e.0));
            live.into_iter()
                .map(|(&k, e)| (k, e.1.clone(), e.2.to_bits()))
                .collect()
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The slab LRU and the tick scan agree after every operation: same
        /// hit or miss with the same row and score bits, and the same live
        /// entries in the same recency order (so the same next victim).
        /// Key ranges start below the capacity (refreshes, duplicate keys
        /// inside one batch) and reach far above it (eviction on every miss).
        #[test]
        fn slab_lru_matches_the_tick_scan_it_replaced(
            cap in prop_oneof![Just(1usize), Just(2usize), Just(3usize), Just(8usize)],
            spread in 1u64..=4,
            seed in any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let keys = (cap as u64 * spread).div_ceil(2).max(1);
            let mut new = FeatureCache::new(cap);
            let mut old = TickScanCache::new(cap);
            for op in 0..200u32 {
                let key = rng.gen_range(0..keys);
                let row = [op as f32, key as f32 + 0.5];
                let score = f64::from(op) / 3.0;
                match rng.gen_range(0..16) {
                    0..=4 => {
                        let (a, b) = (new.get(key), old.get(key));
                        prop_assert_eq!(
                            a.map(|(f, s)| (f.to_vec(), s.to_bits())),
                            b.map(|(f, s)| (f.to_vec(), s.to_bits()))
                        );
                    }
                    5..=7 => {
                        new.insert(key, row.to_vec(), score);
                        old.insert(key, row.to_vec(), score);
                    }
                    8..=10 => {
                        new.insert_from_slice(key, &row, score);
                        old.insert_from_slice(key, &row, score);
                    }
                    11..=14 => {
                        // one `score_into` batch: probe every key in input
                        // order, then cache the misses in the same order
                        let batch: Vec<u64> =
                            (0..rng.gen_range(1..=6)).map(|_| rng.gen_range(0..keys)).collect();
                        let mut misses = Vec::new();
                        for &k in &batch {
                            let hit = new.get(k).is_some();
                            prop_assert_eq!(hit, old.get(k).is_some());
                            if !hit {
                                misses.push(k);
                            }
                        }
                        for k in misses {
                            new.insert_from_slice(k, &row, score);
                            old.insert_from_slice(k, &row, score);
                        }
                    }
                    _ => {
                        new.clear();
                        old.clear();
                    }
                }
                prop_assert_eq!(new.len(), old.map.len());
                prop_assert_eq!(new.entries_by_recency(), old.entries_by_recency());
            }
        }
    }

    #[test]
    fn stats_merge_adds_counters() {
        let mut a = ScoreStats {
            batch_count: 1,
            scored: 10,
            cache_hits: 4,
            cache_misses: 6,
            features_cached: 6,
        };
        let b = ScoreStats {
            batch_count: 2,
            scored: 20,
            cache_hits: 5,
            cache_misses: 15,
            features_cached: 15,
        };
        a.merge(&b);
        assert_eq!(a.batch_count, 3);
        assert_eq!(a.scored, 30);
        assert_eq!(a.cache_hits, 9);
    }
}
