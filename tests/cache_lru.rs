//! Tier-1 driver for the scoring cache's LRU contract (the crate-level
//! property test in `crates/gbt` compares against the tick-scanned cache
//! the slab replaced; this one compares the public `FeatureCache` against
//! the plainest possible model, a `Vec` kept in recency order).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use harl_repro::gbt::FeatureCache;

/// Least recently used first; the back is the most recent touch.
struct Model {
    entries: Vec<(u64, Vec<f32>, f64)>,
    cap: usize,
}

impl Model {
    fn get(&mut self, key: u64) -> Option<(Vec<f32>, u64)> {
        let at = self.entries.iter().position(|e| e.0 == key)?;
        let entry = self.entries.remove(at);
        let found = (entry.1.clone(), entry.2.to_bits());
        self.entries.push(entry);
        Some(found)
    }

    fn insert(&mut self, key: u64, row: &[f32], score: f64) {
        match self.entries.iter().position(|e| e.0 == key) {
            Some(at) => drop(self.entries.remove(at)),
            None if self.entries.len() == self.cap => drop(self.entries.remove(0)),
            None => {}
        }
        self.entries.push((key, row.to_vec(), score));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn feature_cache_is_an_exact_lru(
        cap in prop_oneof![Just(1usize), Just(2usize), Just(3usize), Just(8usize)],
        keys in 1u64..=20,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cache = FeatureCache::new(cap);
        let mut model = Model { entries: Vec::new(), cap };
        for op in 0..300u32 {
            let key = rng.gen_range(0..keys);
            let row = [op as f32, key as f32];
            let score = f64::from(op) * 0.25;
            match rng.gen_range(0..10) {
                0..=3 => {
                    let got = cache.get(key).map(|(f, s)| (f.to_vec(), s.to_bits()));
                    prop_assert_eq!(got, model.get(key));
                }
                4..=5 => {
                    cache.insert(key, row.to_vec(), score);
                    model.insert(key, &row, score);
                }
                6..=8 => {
                    cache.insert_from_slice(key, &row, score);
                    model.insert(key, &row, score);
                }
                _ => {
                    cache.clear();
                    model.entries.clear();
                }
            }
            prop_assert_eq!(cache.len(), model.entries.len());
            prop_assert_eq!(cache.is_empty(), model.entries.is_empty());
        }
    }
}
