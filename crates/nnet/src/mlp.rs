//! Multi-layer perceptron with tanh hidden activations.
//!
//! The forward/backward API is batch-major and `&self`-shareable: all
//! mutable per-pass state (activation caches, gradient buffers, backward
//! scratch) lives in a caller-owned [`Workspace`], not inside the network.
//! That is what lets one set of weights serve any batch shape without
//! interior mutability, and it keeps serde state identical to the old
//! per-sample design (the caches were `#[serde(skip)]` there too).

use harl_par::ThreadPool;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::layers::{tanh_backward, tanh_forward, GradScratch, Linear};

/// Caller-owned scratch for one network's forward/backward passes:
/// batch-major activations, gradient buffers, and the layers' backward
/// scratch. Reusing one workspace across calls amortizes every allocation
/// in the hot path; distinct workspaces make the same `&Mlp` usable from
/// several call sites without aliasing.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    batch: usize,
    input: Vec<f32>,
    acts: Vec<Vec<f32>>,
    gy: Vec<f32>,
    gx: Vec<f32>,
    pub(crate) grad: GradScratch,
}

impl Workspace {
    /// A fresh, empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Batch size of the most recent forward pass.
    pub fn batch(&self) -> usize {
        self.batch
    }
}

/// An MLP: linear layers with tanh between them; the final layer is linear
/// (logits / value output).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    /// The dense layers, in forward order.
    pub layers: Vec<Linear>,
    adam_t: u64,
}

impl Mlp {
    /// Builds an MLP with the given layer sizes, e.g. `[64, 64, 64, 10]`
    /// creates two hidden tanh layers of 64 and a 10-dim linear output.
    pub fn new<R: Rng + ?Sized>(sizes: &[usize], rng: &mut R) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output dims");
        let layers = sizes
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Mlp { layers, adam_t: 0 }
    }

    /// Why a decoded network cannot be run — no layers, or a layer whose
    /// input is not its predecessor's output; `Ok` for any network
    /// [`Mlp::new`] builds. ([`Linear`]'s decoder has checked every array
    /// against its layer's own dimensions.)
    pub(crate) fn check_shapes(&self) -> Result<(), String> {
        if self.layers.is_empty() {
            return Err("a network without layers".into());
        }
        match (self.layers.windows(2)).position(|pair| pair[0].out_dim != pair[1].in_dim) {
            Some(i) => Err(format!(
                "layer {i} has {} outputs, layer {} takes {}",
                self.layers[i].out_dim,
                i + 1,
                self.layers[i + 1].in_dim
            )),
            None => Ok(()),
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers.first().expect("non-empty").in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim
    }

    /// Batch-major forward pass: `x` is `batch × in_dim` row-major, the
    /// returned slice is `batch × out_dim`. Activations are cached in `ws`
    /// for a subsequent [`Mlp::backward_batch`]. Every output row is
    /// bit-equal to a batch-1 call on that row (see [`crate::gemm`]).
    pub fn forward_batch<'w>(&self, x: &[f32], batch: usize, ws: &'w mut Workspace) -> &'w [f32] {
        let n = self.layers.len();
        debug_assert_eq!(x.len(), batch * self.in_dim());
        ws.batch = batch;
        ws.input.clear();
        ws.input.extend_from_slice(x);
        ws.acts.resize(n, Vec::new());
        let Workspace { acts, input, .. } = ws;
        for li in 0..n {
            let (prev, rest) = acts.split_at_mut(li);
            let inp: &[f32] = if li == 0 { input } else { &prev[li - 1] };
            self.layers[li].forward_batch_into(inp, batch, &mut rest[0]);
            if li + 1 < n {
                tanh_forward(&mut rest[0]);
            }
        }
        acts.last().expect("non-empty").as_slice()
    }

    /// Backward pass for the most recent [`Mlp::forward_batch`] through
    /// the same workspace; accumulates parameter gradients (reduction on
    /// `pool`, order fixed — see [`Linear::backward_batch`]). The
    /// batch-major `∂L/∂input` costs one more GEMM that no training loop
    /// reads, so it is computed only when `input_grad` asks for it.
    pub fn backward_batch(
        &mut self,
        grad_out: &[f32],
        ws: &mut Workspace,
        pool: &ThreadPool,
        mut input_grad: Option<&mut Vec<f32>>,
    ) {
        let n = self.layers.len();
        assert_eq!(ws.acts.len(), n, "backward without forward");
        let batch = ws.batch;
        debug_assert_eq!(grad_out.len(), batch * self.out_dim());
        ws.gy.clear();
        ws.gy.extend_from_slice(grad_out);
        let Workspace {
            acts,
            input,
            gy,
            gx,
            grad,
            ..
        } = ws;
        for li in (0..n).rev() {
            if li + 1 < n {
                // gy is w.r.t. the post-tanh output of layer li
                tanh_backward(&acts[li], gy);
            }
            if li == 0 {
                self.layers[0].backward_batch(input, gy, batch, pool, grad, input_grad.take());
            } else {
                self.layers[li].backward_batch(&acts[li - 1], gy, batch, pool, grad, Some(gx));
                std::mem::swap(gy, gx);
            }
        }
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// Applies an Adam update with the accumulated gradients.
    pub fn adam_step(&mut self, lr: f32, scale: f32) {
        self.adam_t += 1;
        for l in &mut self.layers {
            l.adam_step(lr, self.adam_t, scale);
        }
    }

    /// Total trainable parameter count.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Linear::num_params).sum()
    }

    /// Every layer's [`Linear::state_bits`] in forward order, then the
    /// Adam step count.
    pub fn state_bits(&self) -> impl Iterator<Item = u64> + '_ {
        self.layers
            .iter()
            .flat_map(Linear::state_bits)
            .chain([self.adam_t])
    }
}

/// Softmax over logits with an optional validity mask; invalid entries get
/// probability 0. Returns the probability vector.
pub fn masked_softmax(logits: &[f32], mask: Option<&[bool]>) -> Vec<f32> {
    let mut probs = Vec::with_capacity(logits.len());
    masked_softmax_into(logits, mask, &mut probs);
    probs
}

/// [`masked_softmax`] into a reused row (`probs` is cleared first).
pub fn masked_softmax_into(logits: &[f32], mask: Option<&[bool]>, probs: &mut Vec<f32>) {
    probs.clear();
    probs.resize(logits.len(), 0.0);
    shift_logits(logits, mask, probs);
    harl_simd::exp_inplace(probs);
    normalize(probs);
}

/// The softmax exponents of one row: `z − max` over the valid cells, and
/// `-inf` for a masked one (its `exp` is the `+0` a masked probability
/// is). With no valid action (the caller should avoid this) every cell
/// gets `0`, which the `exp` and [`normalize`] that follow turn into the
/// uniform row. Split from [`masked_softmax_into`] so a batch of rows can
/// share one `exp` call.
///
/// The maximum is taken over eight interleaved runs of the row instead of
/// down one chain of 101 dependent `max`es. `f32::max` skips NaN, so the
/// runs meet at the same value whatever the order — up to the sign of a
/// zero maximum, which only shows in the cells that are themselves `±0`,
/// and `exp(−0) = exp(+0) = 1`: no probability can tell.
pub(crate) fn shift_logits(logits: &[f32], mask: Option<&[bool]>, row: &mut [f32]) {
    const RUNS: usize = 8;
    debug_assert_eq!(logits.len(), row.len());
    // the candidates of the maximum: a masked cell stands back as `-inf`
    match mask {
        None => row.copy_from_slice(logits),
        Some(mask) => {
            for ((c, &z), &valid) in row.iter_mut().zip(logits).zip(&mask[..logits.len()]) {
                *c = if valid { z } else { f32::NEG_INFINITY };
            }
        }
    }
    let mut runs = [f32::NEG_INFINITY; RUNS];
    let mut groups = row.chunks_exact(RUNS);
    for group in &mut groups {
        for (run, &c) in runs.iter_mut().zip(group) {
            *run = run.max(c);
        }
    }
    let mx = (runs.iter().chain(groups.remainder())).fold(f32::NEG_INFINITY, |mx, &c| mx.max(c));
    if mx == f32::NEG_INFINITY {
        row.fill(0.0);
        return;
    }
    // `-inf − mx` is the `-inf` of a masked cell
    for c in row {
        *c -= mx;
    }
}

/// Divides one row of exponentials by its sum, taken in ascending order.
pub(crate) fn normalize(row: &mut [f32]) {
    let sum: f32 = row.iter().sum();
    for p in row {
        *p /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn infer1(mlp: &Mlp, x: &[f32]) -> Vec<f32> {
        let mut ws = Workspace::new();
        mlp.forward_batch(x, 1, &mut ws).to_vec()
    }

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(4);
        let mlp = Mlp::new(&[8, 16, 3], &mut rng);
        let mut ws = Workspace::new();
        let y = mlp.forward_batch(&[0.1; 8], 1, &mut ws);
        assert_eq!(y.len(), 3);
        assert_eq!(mlp.in_dim(), 8);
        assert_eq!(mlp.out_dim(), 3);
    }

    #[test]
    fn batched_forward_rows_equal_single_rows() {
        let mut rng = StdRng::seed_from_u64(5);
        let mlp = Mlp::new(&[4, 8, 2], &mut rng);
        let x: Vec<f32> = (0..12).map(|i| (i as f32 * 0.31).sin()).collect();
        let mut ws = Workspace::new();
        let y = mlp.forward_batch(&x, 3, &mut ws).to_vec();
        for b in 0..3 {
            let row = infer1(&mlp, &x[b * 4..(b + 1) * 4]);
            assert_eq!(
                row.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                y[b * 2..(b + 1) * 2]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "row {b}"
            );
        }
    }

    #[test]
    fn gradcheck_full_network() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut mlp = Mlp::new(&[3, 5, 2], &mut rng);
        let pool = ThreadPool::new(1);
        let x = vec![0.2f32, -0.4, 0.9];
        // loss = sum of outputs
        let mut ws = Workspace::new();
        let _ = mlp.forward_batch(&x, 1, &mut ws);
        mlp.zero_grad();
        let mut gin = Vec::new();
        mlp.backward_batch(&[1.0, 1.0], &mut ws, &pool, Some(&mut gin));

        let eps = 1e-3f32;
        // check one weight in each layer
        for li in 0..mlp.layers.len() {
            let orig = mlp.layers[li].w[0];
            mlp.layers[li].set_w(0, orig + eps);
            let lp: f32 = infer1(&mlp, &x).iter().sum();
            mlp.layers[li].set_w(0, orig - eps);
            let lm: f32 = infer1(&mlp, &x).iter().sum();
            mlp.layers[li].set_w(0, orig);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - mlp.layers[li].gw[0]).abs() < 2e-2,
                "layer {li}: fd {fd} vs {}",
                mlp.layers[li].gw[0]
            );
        }
        // input gradient check
        for i in 0..3 {
            let mut xp = x.clone();
            xp[i] += eps;
            let lp: f32 = infer1(&mlp, &xp).iter().sum();
            xp[i] = x[i] - eps;
            let lm: f32 = infer1(&mlp, &xp).iter().sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - gin[i]).abs() < 2e-2);
        }
    }

    #[test]
    fn can_learn_xor() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut mlp = Mlp::new(&[2, 16, 1], &mut rng);
        let pool = ThreadPool::new(1);
        let mut ws = Workspace::new();
        let xs: Vec<f32> = vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0];
        let ts = [0.0f32, 1.0, 1.0, 0.0];
        for _ in 0..2000 {
            mlp.zero_grad();
            let y = mlp.forward_batch(&xs, 4, &mut ws).to_vec();
            let grad: Vec<f32> = y.iter().zip(&ts).map(|(yi, ti)| 2.0 * (yi - ti)).collect();
            mlp.backward_batch(&grad, &mut ws, &pool, None);
            mlp.adam_step(0.01, 0.25);
        }
        for (i, t) in ts.iter().enumerate() {
            let y = infer1(&mlp, &xs[i * 2..(i + 1) * 2])[0];
            assert!((y - t).abs() < 0.2, "xor case {i} = {y}, want {t}");
        }
    }

    #[test]
    fn masked_softmax_zeroes_invalid() {
        let p = masked_softmax(&[1.0, 2.0, 3.0], Some(&[true, false, true]));
        assert_eq!(p[1], 0.0);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[0]);
    }

    #[test]
    fn masked_softmax_all_invalid_is_uniform() {
        let p = masked_softmax(&[1.0, 2.0], Some(&[false, false]));
        assert_eq!(p, vec![0.5, 0.5]);
    }
}
