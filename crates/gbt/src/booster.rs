//! Gradient-boosted tree ensemble (XGBoost-lite) for squared-error
//! regression, plus the incremental dataset used for on-line cost-model
//! training during search.

use serde::{Deserialize, Serialize};

use std::sync::OnceLock;

use crate::queue::NodeQueue;
use crate::tree::{FitMatrix, RegressionTree, TreeParams, QUEUE_MIN_ROWS};

/// Booster hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GbtParams {
    /// Boosting rounds (number of trees).
    pub n_rounds: usize,
    /// Shrinkage (learning rate η).
    pub eta: f64,
    /// Per-tree parameters.
    pub tree: TreeParams,
    /// Base prediction before any trees.
    pub base_score: f64,
}

impl Default for GbtParams {
    fn default() -> Self {
        GbtParams {
            n_rounds: 30,
            eta: 0.3,
            tree: TreeParams::default(),
            base_score: 0.0,
        }
    }
}

/// A trained gradient-boosted regression model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Gbt {
    params: GbtParams,
    trees: Vec<RegressionTree>,
}

impl Gbt {
    /// Fits a fresh ensemble to `(features, targets)`.
    ///
    /// A fit of at least `2 · QUEUE_MIN_ROWS` rows on a host with a second
    /// core builds its trees through a node queue that one scoped helper
    /// drains alongside this thread; the trees are the same bits either way.
    pub fn fit(features: &[Vec<f32>], targets: &[f64], params: GbtParams) -> Self {
        let helper = features.len() >= 2 * QUEUE_MIN_ROWS && second_core();
        Self::fit_with(features, targets, params, helper)
    }

    /// [`fit`](Self::fit), with the helper chosen by the caller.
    fn fit_with(features: &[Vec<f32>], targets: &[f64], params: GbtParams, helper: bool) -> Self {
        assert_eq!(features.len(), targets.len());
        let matrix = FitMatrix::new(features);
        let trees = if helper {
            let queue = NodeQueue::new();
            std::thread::scope(|scope| {
                // a helper that cannot be spawned leaves the caller to
                // drain the queue alone
                let helper = std::thread::Builder::new()
                    .name("gbt-fit-helper".into())
                    .spawn_scoped(scope, || queue.help())
                    .ok();
                let trees = {
                    let _close = queue.close_on_drop();
                    boost(features, targets, &params, &mut |grad| {
                        RegressionTree::fit_queued(&queue, &matrix, grad, &params.tree)
                    })
                };
                if let Some(Err(panic)) = helper.map(|h| h.join()) {
                    std::panic::resume_unwind(panic);
                }
                trees
            })
        } else {
            boost(features, targets, &params, &mut |grad| {
                RegressionTree::fit_matrix(&matrix, &grad, &params.tree)
            })
        };
        Gbt { params, trees }
    }

    /// Predicts the regression target for one sample.
    pub fn predict(&self, x: &[f32]) -> f64 {
        self.params.base_score
            + self
                .trees
                .iter()
                .map(|t| self.params.eta * t.predict(x))
                .sum::<f64>()
    }

    /// Predicts a batch of samples into `out` (cleared first) using the
    /// flattened tree layout, iterating **tree-major**: each tree's flat
    /// arrays stay hot in cache while they sweep the whole candidate
    /// matrix, instead of re-chasing every tree's pointers per sample.
    ///
    /// On SIMD backends the sweep walks samples in *lanes* — 8 at a time
    /// via AVX2 gathers, 4 interleaved on SSE2/NEON — with per-sample
    /// leaf values folded back in ascending-sample order, so the result is
    /// bit-identical to per-sample [`Gbt::predict`] on every backend: each
    /// sample's accumulator starts at 0, adds `eta * leaf` in tree order
    /// (the same fold `sum::<f64>()` performs), and the base score is
    /// added last.
    pub fn predict_batch_into<X: AsRef<[f32]>>(&self, xs: &[X], out: &mut Vec<f64>) {
        out.clear();
        out.resize(xs.len(), 0.0);
        let eta = self.params.eta;
        let n = xs.len();
        let backend = harl_simd::active_backend();
        let vec_samples = match backend {
            #[cfg(target_arch = "x86_64")]
            // the gather walk is 8 lanes wide on both AVX tiers
            harl_simd::Backend::Avx2 | harl_simd::Backend::Avx512 => self.sweep_avx2(xs, out),
            harl_simd::Backend::Sse2 | harl_simd::Backend::Neon => {
                for tree in &self.trees {
                    let flat = tree.flat();
                    let mut s = 0;
                    while s + 4 <= n {
                        let leaves = flat.predict4_interleaved([
                            xs[s].as_ref(),
                            xs[s + 1].as_ref(),
                            xs[s + 2].as_ref(),
                            xs[s + 3].as_ref(),
                        ]);
                        for (acc, leaf) in out[s..s + 4].iter_mut().zip(leaves) {
                            *acc += eta * leaf;
                        }
                        s += 4;
                    }
                    for (acc, x) in out[s..].iter_mut().zip(&xs[s..]) {
                        *acc += eta * flat.predict(x.as_ref());
                    }
                }
                n - n % 4
            }
            _ => {
                for tree in &self.trees {
                    let flat = tree.flat();
                    for (acc, x) in out.iter_mut().zip(xs) {
                        *acc += eta * flat.predict(x.as_ref());
                    }
                }
                0
            }
        };
        if !self.trees.is_empty() {
            harl_simd::record_score_batch(vec_samples as u64, (n - vec_samples) as u64);
        }
        // IEEE addition is commutative, so `acc + base` is bit-equal to
        // the serial `base + sum` (associativity is what must be kept:
        // trees accumulate first, base score joins last)
        for acc in out.iter_mut() {
            *acc += self.params.base_score;
        }
    }

    /// AVX2 gather sweep: flattens the rows into one row-major matrix so a
    /// lane's feature load is a single gather at `sample·dim + f`, then
    /// walks 8 samples per tree step. Trees whose feature set does not fit
    /// the row width (or non-uniform batches) fall back to scalar walks,
    /// preserving the `x.get(f).unwrap_or(0.0)` semantics. Returns how many
    /// samples rode vector lanes.
    #[cfg(target_arch = "x86_64")]
    fn sweep_avx2<X: AsRef<[f32]>>(&self, xs: &[X], out: &mut [f64]) -> usize {
        use std::cell::RefCell;
        thread_local! {
            /// Per-thread flatten scratch, reused across batch calls.
            static XFLAT: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
        }
        let n = xs.len();
        let eta = self.params.eta;
        let dim = xs.first().map(|x| x.as_ref().len()).unwrap_or(0);
        let uniform =
            dim > 0 && n * dim <= i32::MAX as usize && xs.iter().all(|x| x.as_ref().len() == dim);
        if !uniform || n < 8 {
            for tree in &self.trees {
                let flat = tree.flat();
                for (acc, x) in out.iter_mut().zip(xs) {
                    *acc += eta * flat.predict(x.as_ref());
                }
            }
            return 0;
        }
        XFLAT.with(|cell| {
            let mut xflat = cell.borrow_mut();
            xflat.clear();
            xflat.reserve(n * dim);
            for x in xs {
                xflat.extend_from_slice(x.as_ref());
            }
            for tree in &self.trees {
                let flat = tree.flat();
                if flat.lanes_ok(dim) {
                    let mut leaves = [0.0f64; 8];
                    let mut s = 0;
                    while s + 8 <= n {
                        // SAFETY: AVX2 is present (dispatch: the `Avx2`
                        // tier, or `Avx512`, whose support check includes
                        // it), lanes_ok(dim) holds, and xflat has
                        // (s+8)·dim floats.
                        unsafe { flat.predict8_avx2(&xflat, dim, s, &mut leaves) };
                        for (acc, leaf) in out[s..s + 8].iter_mut().zip(leaves) {
                            *acc += eta * leaf;
                        }
                        s += 8;
                    }
                    for (acc, x) in out[s..].iter_mut().zip(&xs[s..]) {
                        *acc += eta * flat.predict(x.as_ref());
                    }
                } else {
                    for (acc, x) in out.iter_mut().zip(xs) {
                        *acc += eta * flat.predict(x.as_ref());
                    }
                }
            }
        });
        n - n % 8
    }

    /// Number of fitted trees.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Root-mean-squared error on a dataset.
    pub fn rmse(&self, features: &[Vec<f32>], targets: &[f64]) -> f64 {
        if features.is_empty() {
            return 0.0;
        }
        let se: f64 = features
            .iter()
            .zip(targets)
            .map(|(x, t)| {
                let d = self.predict(x) - t;
                d * d
            })
            .sum();
        (se / features.len() as f64).sqrt()
    }
}

/// The boosting rounds: each fits a tree to the gradients of the current
/// predictions (squared error: `pred − target`) and adds its shrunk output.
fn boost(
    features: &[Vec<f32>],
    targets: &[f64],
    params: &GbtParams,
    fit_tree: &mut dyn FnMut(Vec<f64>) -> RegressionTree,
) -> Vec<RegressionTree> {
    let mut preds = vec![params.base_score; targets.len()];
    let mut trees = Vec::with_capacity(params.n_rounds);
    if features.is_empty() {
        return trees;
    }
    for _ in 0..params.n_rounds {
        let grad: Vec<f64> = preds.iter().zip(targets).map(|(p, t)| p - t).collect();
        let tree = fit_tree(grad);
        for (p, x) in preds.iter_mut().zip(features) {
            *p += params.eta * tree.predict(x);
        }
        trees.push(tree);
    }
    trees
}

/// Whether the host runs two threads at once; asked once per process.
fn second_core() -> bool {
    static CELL: OnceLock<bool> = OnceLock::new();
    *CELL.get_or_init(|| std::thread::available_parallelism().is_ok_and(|n| n.get() > 1))
}

/// On-line training dataset with a capacity cap (keeps the most recent
/// samples, as the cost model is retrained on the fly from measurements).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Dataset {
    features: Vec<Vec<f32>>,
    targets: Vec<f64>,
    cap: usize,
}

impl Dataset {
    /// A dataset that keeps at most `cap` most-recent samples (0 = unbounded).
    pub fn with_capacity(cap: usize) -> Self {
        Dataset {
            features: Vec::new(),
            targets: Vec::new(),
            cap,
        }
    }

    /// Appends a sample, evicting the oldest when over capacity.
    pub fn push(&mut self, x: Vec<f32>, y: f64) {
        self.features.push(x);
        self.targets.push(y);
        if self.cap > 0 && self.features.len() > self.cap {
            let excess = self.features.len() - self.cap;
            self.features.drain(0..excess);
            self.targets.drain(0..excess);
        }
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True when no samples are stored.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// The stored feature rows.
    pub fn features(&self) -> &[Vec<f32>] {
        &self.features
    }

    /// The stored targets (raw, unnormalized).
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn synthetic(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..4).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| (x[0] as f64) * 2.0 + (x[1] as f64).powi(2) - (x[2] as f64) * (x[3] as f64))
            .collect();
        (xs, ys)
    }

    #[test]
    fn fits_nonlinear_function() {
        let (xs, ys) = synthetic(600, 1);
        let model = Gbt::fit(&xs, &ys, GbtParams::default());
        let train_rmse = model.rmse(&xs, &ys);
        let (xt, yt) = synthetic(200, 2);
        let test_rmse = model.rmse(&xt, &yt);
        assert!(train_rmse < 0.5, "train rmse {train_rmse}");
        assert!(test_rmse < 1.2, "test rmse {test_rmse}");
    }

    #[test]
    fn more_rounds_reduce_train_error() {
        let (xs, ys) = synthetic(300, 3);
        let few = Gbt::fit(
            &xs,
            &ys,
            GbtParams {
                n_rounds: 3,
                ..Default::default()
            },
        );
        let many = Gbt::fit(
            &xs,
            &ys,
            GbtParams {
                n_rounds: 40,
                ..Default::default()
            },
        );
        assert!(many.rmse(&xs, &ys) < few.rmse(&xs, &ys));
    }

    #[test]
    fn shared_root_orders_give_the_trees_of_per_tree_matrices() {
        // the root's sorted orders depend on the features alone, so the 30
        // rounds may share them, with or without the helper; duplicate-heavy
        // columns make any slip in the shared order show up as a different
        // split
        let (mut xs, ys) = synthetic(300, 5);
        for (i, x) in xs.iter_mut().enumerate() {
            x[1] = (i % 4) as f32;
            x[3] = x[1] * 0.5;
        }
        let params = GbtParams::default();
        let want = json(&round_loop(&xs, &ys, &params));
        for helper in [false, true] {
            let shared = Gbt::fit_with(&xs, &ys, params.clone(), helper);
            assert_eq!(shared.num_trees(), 30);
            assert_eq!(json(&shared), want, "helper: {helper}");
        }
    }

    /// The trees of a one-thread round loop of `RegressionTree::fit`, each
    /// over its own matrix: the reference every fit path must equal.
    fn round_loop(xs: &[Vec<f32>], ys: &[f64], params: &GbtParams) -> Gbt {
        let mut preds = vec![params.base_score; ys.len()];
        let mut trees = Vec::new();
        for _ in 0..params.n_rounds {
            let grad: Vec<f64> = preds.iter().zip(ys).map(|(p, t)| p - t).collect();
            let tree = RegressionTree::fit(xs, &grad, &params.tree);
            for (p, x) in preds.iter_mut().zip(xs) {
                *p += params.eta * tree.predict(x);
            }
            trees.push(tree);
        }
        Gbt {
            params: params.clone(),
            trees,
        }
    }

    fn json(model: &Gbt) -> String {
        serde_json::to_string(model).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The node queue changes no tree: whether the helper computes a
        /// node, the caller computes it twice or nobody helps, the fit
        /// serialises byte-equal to the one-thread round loop. Sizes
        /// straddle `QUEUE_MIN_ROWS` and twice it; the duplicate-heavy
        /// columns (one constant at the root, one constant only where
        /// `x0 < 1`, `0.0`/`-0.0` mixed, one a copy of another) make the
        /// tie order inside equal runs decide splits.
        #[test]
        fn queued_fits_equal_the_one_thread_round_loop(
            n in (QUEUE_MIN_ROWS - 8)..(2 * QUEUE_MIN_ROWS + 40),
            levels in 2u32..=6,
            max_depth in 2usize..=12,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let xs: Vec<Vec<f32>> = (0..n)
                .map(|_| {
                    let a = rng.gen_range(0..levels) as f32;
                    let b = rng.gen_range(0..levels * 3) as f32 * 0.25;
                    let z = if rng.gen_range(0..2) == 0 { 0.0f32 } else { -0.0 };
                    let inside = if a < 1.0 { 2.5 } else { rng.gen_range(0..4) as f32 };
                    vec![a, 7.5, b, inside, z * (b - 1.0), a * 2.0, rng.gen_range(-1.0f32..1.0)]
                })
                .collect();
            let ys: Vec<f64> = xs
                .iter()
                .map(|x| x[0] as f64 - 0.5 * x[2] as f64 + 0.3 * x[3] as f64 + rng.gen_range(-0.3f64..0.3))
                .collect();
            let params = GbtParams {
                n_rounds: 8,
                tree: TreeParams { max_depth, ..Default::default() },
                ..Default::default()
            };
            let want = json(&round_loop(&xs, &ys, &params));
            proptest::prop_assert_eq!(json(&Gbt::fit(&xs, &ys, params.clone())), want.clone());
            proptest::prop_assert_eq!(json(&Gbt::fit_with(&xs, &ys, params.clone(), true)), want.clone());
            proptest::prop_assert_eq!(json(&Gbt::fit_with(&xs, &ys, params, false)), want);
        }
    }

    #[test]
    #[should_panic(expected = "injected helper panic")]
    fn a_helper_panic_surfaces_from_the_fit() {
        let (xs, ys) = synthetic(4 * QUEUE_MIN_ROWS, 21);
        crate::queue::tests::PANIC_IN_HELPER.with(|p| p.set(true));
        Gbt::fit_with(&xs, &ys, GbtParams::default(), true);
    }

    #[test]
    fn empty_training_is_base_score() {
        let model = Gbt::fit(
            &[],
            &[],
            GbtParams {
                base_score: 0.25,
                ..Default::default()
            },
        );
        assert_eq!(model.predict(&[1.0, 2.0]), 0.25);
        assert_eq!(model.num_trees(), 0);
    }

    #[test]
    fn ranking_is_preserved_on_monotone_target() {
        // cost-model usage cares about ordering more than absolute values
        let xs: Vec<Vec<f32>> = (0..200).map(|i| vec![i as f32 / 10.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] as f64).sqrt()).collect();
        let model = Gbt::fit(&xs, &ys, GbtParams::default());
        let p10 = model.predict(&[1.0]);
        let p100 = model.predict(&[10.0]);
        let p190 = model.predict(&[19.0]);
        assert!(p10 < p100 && p100 < p190);
    }

    #[test]
    fn dataset_capacity_evicts_oldest() {
        let mut d = Dataset::with_capacity(3);
        for i in 0..5 {
            d.push(vec![i as f32], i as f64);
        }
        assert_eq!(d.len(), 3);
        assert_eq!(d.targets(), &[2.0, 3.0, 4.0]);
    }

    #[test]
    fn predict_batch_matches_predict() {
        let (xs, ys) = synthetic(100, 4);
        let model = Gbt::fit(&xs, &ys, GbtParams::default());
        let mut batch = Vec::new();
        model.predict_batch_into(&xs, &mut batch);
        for (b, x) in batch.iter().zip(&xs) {
            assert_eq!(b.to_bits(), model.predict(x).to_bits());
        }
    }

    #[test]
    fn predict_batch_bit_equal_on_every_backend() {
        // the lane walks (AVX2 gathers, interleaved 4-wide) must take each
        // sample down exactly the scalar path; sizes cover lane tails
        let (xs, ys) = synthetic(203, 11);
        let model = Gbt::fit(&xs, &ys, GbtParams::default());
        let want: Vec<u64> = xs.iter().map(|x| model.predict(x).to_bits()).collect();
        for backend in harl_simd::Backend::ALL
            .into_iter()
            .filter(|b| b.is_supported())
        {
            let prev = harl_simd::force_backend(Some(backend));
            for n in [1usize, 3, 4, 7, 8, 9, 16, 203] {
                let mut out = Vec::new();
                model.predict_batch_into(&xs[..n], &mut out);
                for (i, (got, want)) in out.iter().zip(&want[..n]).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        *want,
                        "{}: sample {i} of batch {n}",
                        backend.name()
                    );
                }
            }
            harl_simd::force_backend(prev);
        }
    }

    #[test]
    fn predict_batch_handles_non_uniform_and_short_rows_on_simd() {
        // rows narrower than the trees' feature set (and mixed widths)
        // must keep the scalar `x.get(f).unwrap_or(0.0)` semantics on
        // every backend rather than gathering out of bounds
        let (xs, ys) = synthetic(150, 13);
        let model = Gbt::fit(&xs, &ys, GbtParams::default());
        let probes: Vec<Vec<f32>> = vec![
            vec![],
            vec![0.5],
            vec![0.5, -1.0],
            vec![0.1, 0.2, 0.3, 0.4],
            vec![1e9, -1e9],
            vec![f32::NAN, 0.0, 0.0, 0.0],
            vec![0.7; 4],
            vec![-0.3; 4],
            vec![0.0; 4],
        ];
        let want: Vec<u64> = probes.iter().map(|x| model.predict(x).to_bits()).collect();
        for backend in harl_simd::Backend::ALL
            .into_iter()
            .filter(|b| b.is_supported())
        {
            let prev = harl_simd::force_backend(Some(backend));
            let mut out = Vec::new();
            model.predict_batch_into(&probes, &mut out);
            harl_simd::force_backend(prev);
            for (i, (got, want)) in out.iter().zip(&want).enumerate() {
                assert_eq!(got.to_bits(), *want, "{}: probe {i}", backend.name());
            }
        }
    }

    #[test]
    fn predict_batch_bit_equal_with_nonzero_base_score() {
        // base_score + eta-scaled sums must fold in exactly predict's order
        let (xs, ys) = synthetic(120, 9);
        let model = Gbt::fit(
            &xs,
            &ys,
            GbtParams {
                base_score: 0.31,
                eta: 0.17,
                n_rounds: 17,
                ..Default::default()
            },
        );
        let mut out = Vec::new();
        model.predict_batch_into(&xs, &mut out);
        for (b, x) in out.iter().zip(&xs) {
            assert_eq!(b.to_bits(), model.predict(x).to_bits());
        }
        // buffer reuse: a second call over a smaller batch truncates
        model.predict_batch_into(&xs[..7], &mut out);
        assert_eq!(out.len(), 7);
        assert_eq!(out[3].to_bits(), model.predict(&xs[3]).to_bits());
    }
}
