//! Golden tree fits on data built to expose tie order.
//!
//! The exact-greedy split search accumulates the left gradient sum in
//! sorted order, so the order *inside a run of equal keys* — whatever
//! `sort_unstable_by` leaves, starting from the previous feature's sorted
//! order — decides the last bits of every gain, and with them which of two
//! correlated features wins a split. The digests below were recorded with
//! the row-major `build` that re-sorted a `Vec<usize>` per feature per
//! node; any rewrite of the fit path (layout, element type, skipped or
//! cached sorts) must reproduce them, in debug and in release builds
//! (`ci/test.sh` runs this file in both).
//!
//! Columns: few distinct values, two perfectly correlated pairs, one
//! all-equal column, `0.0`/`-0.0` mixed, one medium- and one
//! high-cardinality column. Sizes straddle std's insertion-sort (20) and
//! small-sort (32) thresholds, at the root and in the nodes below it.

use harl_repro::gbt::{CostModel, Gbt, GbtParams};

mod common;

const SIZES: [usize; 8] = [5, 19, 20, 21, 32, 33, 257, 1000];

const GOLDEN_FITS: [u64; 8] = [
    0x85380b905b7a0cc9,
    0xd0d92442e8bd852a,
    0xa77ee22ec083d647,
    0x1f0a481073b557d6,
    0x94fcb2b6f347b567,
    0x2a512b4943eb7f92,
    0xf4715d06426aa2de,
    0xe8a2a7b6ca080b6e,
];
/// Digest of the cost model as checkpoint version 5 spelled it (see
/// [`common::v5_cost_model_text`]).
const GOLDEN_COST_MODEL: u64 = 0x1a0db4b37f540f41;

const TOOLCHAIN_NOTE: &str = "the fit path must reproduce the recorded trees bit for bit; \
     if this fails right after a toolchain bump with the fit path untouched, std's \
     unstable sort changed the order it leaves equal keys in (recorded under rustc 1.95.0)";

/// SplitMix64: a fixed stream that no shim or toolchain can move.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn dataset(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<f64>) {
    let mut rng = Mix(seed);
    let mut xs = Vec::with_capacity(n);
    let mut ys = Vec::with_capacity(n);
    for _ in 0..n {
        let three = rng.below(3) as f32;
        let five = rng.below(5) as f32 * 0.5;
        let zero = match rng.below(4) {
            0 => 0.0f32,
            1 => -0.0,
            2 => 1.0,
            _ => -1.0,
        };
        let mid = rng.below(17) as f32 / 17.0;
        let wide = rng.below(1 << 20) as f32 / (1 << 20) as f32;
        let noise = rng.below(1 << 16) as f64 / (1 << 16) as f64;
        xs.push(vec![
            three,
            five,
            2.0 * five + 1.0, // same order and same ties as column 1
            0.25,             // all equal
            zero,
            -three, // column 0 reversed
            mid,
            wide,
        ]);
        ys.push(
            0.4 * three as f64 + (five as f64 - 1.0).powi(2) - 0.3 * zero as f64
                + (6.0 * mid as f64).sin()
                + 0.5 * wide as f64 * three as f64
                + 0.05 * noise,
        );
    }
    (xs, ys)
}

/// FNV-1a over the bytes of the model's JSON.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

#[test]
fn gbt_fit_matches_golden_trees_at_every_size() {
    let got: Vec<u64> = SIZES
        .iter()
        .map(|&n| {
            let (xs, ys) = dataset(n, 17 + n as u64);
            let model = Gbt::fit(&xs, &ys, GbtParams::default());
            fnv(&serde_json::to_string(&model).unwrap())
        })
        .collect();
    assert_eq!(
        got, GOLDEN_FITS,
        "Gbt::fit digests at sizes {SIZES:?} (got {got:#018x?}): {TOOLCHAIN_NOTE}"
    );
}

#[test]
fn cost_model_matches_golden_after_three_batches() {
    let mut cm = CostModel::new(GbtParams::default());
    for (batch, n) in [40usize, 33, 64].into_iter().enumerate() {
        let (xs, ys) = dataset(n, 900 + batch as u64);
        // y > -1.3, so every throughput is positive
        cm.update_batch(xs.into_iter().zip(ys.into_iter().map(|y| 1e9 * (y + 2.0))));
    }
    assert_eq!(cm.num_samples(), 137);
    let got = fnv(&common::v5_cost_model_text(&cm));
    assert_eq!(
        got, GOLDEN_COST_MODEL,
        "CostModel digest after three update_batch calls (got {got:#018x}): {TOOLCHAIN_NOTE}"
    );
    // the booster is not serialized: the restored model's refit scores
    // what the live one does, bit for bit
    let mut back: CostModel = serde_json::from_str(&serde_json::to_string(&cm).unwrap()).unwrap();
    assert!(back.is_stale());
    back.fit();
    let (rows, _) = dataset(64, 901);
    assert_eq!(
        (back.score_batch(&rows).iter().map(|v| v.to_bits())).collect::<Vec<_>>(),
        (cm.score_batch(&rows).iter().map(|v| v.to_bits())).collect::<Vec<_>>()
    );
}

/// A fit this size builds its trees through the node queue on a host with a
/// second core, where which thread computes which node varies run to run:
/// none of that may reach the trees.
#[test]
fn repeated_queued_fits_give_the_golden_trees_every_time() {
    let n = SIZES[7];
    let (xs, ys) = dataset(n, 17 + n as u64);
    for run in 0..16 {
        let model = Gbt::fit(&xs, &ys, GbtParams::default());
        let got = fnv(&serde_json::to_string(&model).unwrap());
        assert_eq!(
            got, GOLDEN_FITS[7],
            "fit {run} of the {n}-row dataset (got {got:#018x}): {TOOLCHAIN_NOTE}"
        );
    }
}
