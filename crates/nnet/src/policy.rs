//! Multi-head categorical policy network.
//!
//! The actor of §4.3 outputs one categorical distribution per modification
//! type (tiling pairs, compute-at, parallel-loops, auto-unroll — Appendix
//! A.1: `num_iters² + 1` actions for tiling, 3 for each of the others). A
//! shared tanh trunk feeds independent linear heads; invalid actions are
//! masked out of the softmax.
//!
//! Like [`crate::mlp::Mlp`], the network itself is `&self`-shareable: all
//! per-pass state lives in a caller-owned [`PolicyWorkspace`], and the
//! forward path is batch-major so one matrix-matrix pass serves every
//! live schedule track of an episode step.

use std::sync::OnceLock;

use harl_simd::Strided;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::gemm::gemm_bias_into;
use crate::layers::{column_sums, gemm_from_zero, tanh_backward, tanh_forward, Linear};
use crate::mlp::{masked_softmax, Mlp, Workspace};

/// Caller-owned scratch for the policy's batched passes: the trunk's own
/// [`Workspace`], the post-tanh trunk output, the batch-major logits of all
/// heads side by side, and gradient buffers.
#[derive(Debug, Clone, Default)]
pub struct PolicyWorkspace {
    trunk: Workspace,
    trunk_out: Vec<f32>,
    /// `batch × Σ head sizes`: head `h` is columns
    /// `offsets[h]..offsets[h + 1]` of every row.
    logits: Vec<f32>,
    offsets: Vec<usize>,
    /// `dW` of all heads, `Σ head sizes × hidden`.
    dw: Vec<f32>,
    gx: Vec<f32>,
    g_trunk: Vec<f32>,
    batch: usize,
}

impl PolicyWorkspace {
    /// A fresh, empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        PolicyWorkspace::default()
    }

    /// Batch size of the most recent forward pass.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The logits of the last forward pass, batch-major, each row holding
    /// every head's logits side by side (see
    /// [`MultiHeadPolicy::head_offsets`]).
    pub fn all_logits(&self) -> &[f32] {
        &self.logits
    }

    /// Batch-major logits of head `h` from the last forward pass, gathered
    /// out of [`Self::all_logits`] (for tests and probes).
    pub fn logits(&self, h: usize) -> Vec<f32> {
        (0..self.batch)
            .flat_map(|b| self.head_logits(h, b).iter().copied())
            .collect()
    }

    /// Logits of head `h` for batch row `b` from the last forward pass.
    pub fn head_logits(&self, h: usize, b: usize) -> &[f32] {
        let total = self.offsets.last().copied().unwrap_or(0);
        &self.logits[b * total + self.offsets[h]..b * total + self.offsets[h + 1]]
    }
}

/// The heads' weights as the one matrix the forward GEMM reads: the
/// k-major `hidden × Σ head sizes` block whose column range
/// `offsets[h]..offsets[h + 1]` is head `h`'s transposed weights, and the
/// heads' biases side by side.
#[derive(Debug, Clone, Default)]
struct HeadBlock {
    wt: Vec<f32>,
    bias: Vec<f32>,
    offsets: Vec<usize>,
}

impl HeadBlock {
    fn of(heads: &[Linear]) -> Self {
        let mut block = HeadBlock::default();
        block.offsets.push(0);
        for head in heads {
            block
                .offsets
                .push(block.offsets.last().expect("starts at 0") + head.out_dim);
        }
        block.refill(heads);
        block
    }

    /// Re-reads every head's weights and biases.
    fn refill(&mut self, heads: &[Linear]) {
        let total = *self.offsets.last().expect("starts at 0");
        let hidden = heads.first().map_or(0, |h| h.in_dim);
        self.wt.resize(hidden * total, 0.0);
        self.bias.clear();
        for (head, &first) in heads.iter().zip(&self.offsets) {
            for (o, row) in head.w.chunks_exact(hidden.max(1)).enumerate() {
                for (k, &v) in row.iter().enumerate() {
                    self.wt[k * total + first + o] = v;
                }
            }
            self.bias.extend_from_slice(&head.b);
        }
    }
}

/// Shared-trunk, multi-head categorical policy.
///
/// The heads are stored (and serialized) as one [`Linear`] each, but run
/// as one matrix: a cached [`HeadBlock`] — built on first use and rebuilt
/// by [`MultiHeadPolicy::adam_step`], like a layer's own transpose — gives
/// all logits in one GEMM, and the backward takes `dW` and `db` of all
/// heads from one product and one pass of column sums.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiHeadPolicy {
    trunk: Mlp,
    heads: Vec<Linear>,
    adam_t: u64,
    #[serde(skip)]
    block: OnceLock<HeadBlock>,
}

impl MultiHeadPolicy {
    /// `state_dim → hidden (tanh) → hidden (tanh) → heads`.
    pub fn new<R: Rng + ?Sized>(
        state_dim: usize,
        hidden: usize,
        head_sizes: &[usize],
        rng: &mut R,
    ) -> Self {
        let trunk = Mlp::new(&[state_dim, hidden, hidden], rng);
        let heads = head_sizes
            .iter()
            .map(|&h| Linear::new(hidden, h, rng))
            .collect();
        MultiHeadPolicy {
            trunk,
            heads,
            adam_t: 0,
            block: OnceLock::new(),
        }
    }

    fn block(&self) -> &HeadBlock {
        self.block.get_or_init(|| HeadBlock::of(&self.heads))
    }

    /// [`Mlp::check_shapes`] of the trunk, and every head — of at least one
    /// action — must take the trunk's output.
    pub(crate) fn check_shapes(&self) -> Result<(), String> {
        self.trunk.check_shapes()?;
        let hidden = self.trunk.out_dim();
        match (self.heads.iter()).position(|h| h.in_dim != hidden || h.out_dim == 0) {
            Some(h) => Err(format!(
                "head {h} maps {} inputs to {} actions, the trunk has {hidden} outputs",
                self.heads[h].in_dim, self.heads[h].out_dim
            )),
            None => Ok(()),
        }
    }

    /// Input dimensionality.
    pub fn state_dim(&self) -> usize {
        self.trunk.in_dim()
    }

    /// Width of the trunk's output, which every head takes.
    pub(crate) fn hidden(&self) -> usize {
        self.trunk.out_dim()
    }

    /// Number of action heads.
    pub fn num_heads(&self) -> usize {
        self.heads.len()
    }

    /// Per-head action-space sizes.
    pub fn head_sizes(&self) -> Vec<usize> {
        self.heads.iter().map(|h| h.out_dim).collect()
    }

    /// Where each head sits in a row of logits: head `h` is columns
    /// `offsets[h]..offsets[h + 1]`, the last entry the row length.
    pub fn head_offsets(&self) -> &[usize] {
        &self.block().offsets
    }

    /// Batch-major forward pass: `x` is `batch × state_dim` row-major.
    /// Leaves the logits (and everything a subsequent
    /// [`Self::backward_batch`] needs) in `ws`. Each logit is its head's
    /// bias plus an ascending-`k` chain over the trunk output, whichever
    /// columns stand next to it: the bits of a GEMM per head.
    pub fn forward_batch(&self, x: &[f32], batch: usize, ws: &mut PolicyWorkspace) {
        ws.batch = batch;
        let t = self.trunk.forward_batch(x, batch, &mut ws.trunk);
        ws.trunk_out.clear();
        ws.trunk_out.extend_from_slice(t);
        tanh_forward(&mut ws.trunk_out);
        let block = self.block();
        ws.offsets.clone_from(&block.offsets);
        let (hidden, total) = (self.trunk.out_dim(), block.bias.len());
        gemm_bias_into(
            &ws.trunk_out,
            &block.wt,
            &block.bias,
            batch,
            hidden,
            total,
            &mut ws.logits,
        );
    }

    /// Batched backward for the most recent [`Self::forward_batch`]
    /// through the same workspace: `grad_logits` is the batch-major logit
    /// gradient laid out like [`PolicyWorkspace::all_logits`]. `dW` of all
    /// heads is one product over `grad_logits` read through its strides
    /// and `db` one pass of column sums, each cell the chain a backward
    /// per head gives it. `dX` stays one `+0.0`-seeded product per head,
    /// added into the trunk gradient in ascending head order: that order
    /// is the per-sample loop's, whatever the batch size (head 0's
    /// product is the first term, so it is written, not added).
    pub fn backward_batch(&mut self, grad_logits: &[f32], ws: &mut PolicyWorkspace) {
        let batch = ws.batch;
        let hidden = self.trunk.out_dim();
        let offsets = &ws.offsets;
        let total = offsets.last().copied().unwrap_or(0);
        assert_eq!(
            offsets.len(),
            self.heads.len() + 1,
            "backward without forward"
        );
        assert_eq!(grad_logits.len(), batch * total);
        let scratch = &mut ws.trunk.grad;

        ws.dw.resize(total * hidden, 0.0);
        gemm_from_zero(
            Strided::columns(grad_logits, total),
            &ws.trunk_out,
            &mut scratch.zeros,
            batch,
            hidden,
            &mut ws.dw,
        );
        column_sums(grad_logits, total, &mut scratch.sums);
        for (head, at) in self.heads.iter_mut().zip(offsets.windows(2)) {
            head.add_grads(
                &ws.dw[at[0] * hidden..at[1] * hidden],
                &scratch.sums[at[0]..at[1]],
            );
        }

        ws.g_trunk.resize(batch * hidden, 0.0);
        for (h, (head, &first)) in self.heads.iter().zip(offsets).enumerate() {
            let gy = Strided::rows(grad_logits, total).from_k(first);
            if h == 0 {
                head.input_grad(gy, batch, &mut scratch.zeros, &mut ws.g_trunk);
            } else {
                head.input_grad(gy, batch, &mut scratch.zeros, &mut ws.gx);
                for (a, b) in ws.g_trunk.iter_mut().zip(&ws.gx) {
                    *a += *b;
                }
            }
        }
        tanh_backward(&ws.trunk_out, &mut ws.g_trunk);
        self.trunk.backward_batch(&ws.g_trunk, &mut ws.trunk, None);
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.trunk.zero_grad();
        for h in &mut self.heads {
            h.zero_grad();
        }
    }

    /// Applies an Adam update with the accumulated gradients.
    pub fn adam_step(&mut self, lr: f32, scale: f32) {
        self.adam_t += 1;
        self.trunk.adam_step(lr, scale);
        for h in &mut self.heads {
            h.adam_step(lr, self.adam_t, scale);
        }
        if let Some(block) = self.block.get_mut() {
            block.refill(&self.heads);
        }
    }

    /// Samples one action per head; returns `(actions, total logp)`.
    /// `masks[h]` may be missing or empty to mean "all valid".
    pub fn sample<R: Rng + ?Sized>(
        &self,
        x: &[f32],
        masks: &[Vec<bool>],
        ws: &mut PolicyWorkspace,
        rng: &mut R,
    ) -> (Vec<usize>, f32) {
        self.forward_batch(x, 1, ws);
        let mut actions = Vec::with_capacity(self.heads.len());
        let mut logp = 0.0f32;
        for h in 0..self.heads.len() {
            let probs = masked_softmax(ws.head_logits(h, 0), head_mask(masks, h));
            let a = sample_categorical(&probs, rng);
            actions.push(a);
            logp += harl_simd::ln_lane(probs[a].max(1e-12));
        }
        (actions, logp)
    }

    /// Greedy (argmax) action per head.
    pub fn greedy(&self, x: &[f32], masks: &[Vec<bool>], ws: &mut PolicyWorkspace) -> Vec<usize> {
        self.forward_batch(x, 1, ws);
        (0..self.heads.len())
            .map(|h| {
                let probs = masked_softmax(ws.head_logits(h, 0), head_mask(masks, h));
                probs
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Total trainable parameter count.
    pub fn num_params(&self) -> usize {
        self.trunk.num_params() + self.heads.iter().map(Linear::num_params).sum::<usize>()
    }

    /// The trunk's [`Mlp::state_bits`], every head's
    /// [`Linear::state_bits`], then the Adam step count.
    pub fn state_bits(&self) -> impl Iterator<Item = u64> + '_ {
        self.trunk
            .state_bits()
            .chain(self.heads.iter().flat_map(Linear::state_bits))
            .chain([self.adam_t])
    }
}

/// Head `h`'s mask in a per-head mask list; `None` — all valid — for a
/// missing or empty entry.
pub(crate) fn head_mask(masks: &[Vec<bool>], h: usize) -> Option<&[bool]> {
    masks.get(h).filter(|m| !m.is_empty()).map(Vec::as_slice)
}

/// Samples an index from a probability vector.
pub fn sample_categorical<R: Rng + ?Sized>(probs: &[f32], rng: &mut R) -> usize {
    let r: f32 = rng.gen();
    let mut acc = 0.0f32;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if r < acc {
            return i;
        }
    }
    // numeric tail: last valid index
    probs
        .iter()
        .rposition(|&p| p > 0.0)
        .unwrap_or(probs.len().saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn heads_have_requested_sizes() {
        let mut rng = StdRng::seed_from_u64(8);
        let p = MultiHeadPolicy::new(10, 16, &[101, 3, 3, 3], &mut rng);
        assert_eq!(p.head_sizes(), vec![101, 3, 3, 3]);
        let mut ws = PolicyWorkspace::new();
        p.forward_batch(&[0.0; 10], 1, &mut ws);
        assert_eq!(p.num_heads(), 4);
        assert_eq!(ws.logits(0).len(), 101);
        assert_eq!(ws.head_logits(3, 0).len(), 3);
    }

    #[test]
    fn batched_logits_equal_single_rows() {
        let mut rng = StdRng::seed_from_u64(13);
        let p = MultiHeadPolicy::new(6, 8, &[5, 3], &mut rng);
        let x: Vec<f32> = (0..24).map(|i| (i as f32 * 0.17).sin()).collect();
        let mut ws = PolicyWorkspace::new();
        p.forward_batch(&x, 4, &mut ws);
        let batched: Vec<Vec<u32>> = (0..4)
            .map(|b| {
                (0..2)
                    .flat_map(|h| ws.head_logits(h, b).iter().map(|v| v.to_bits()))
                    .collect()
            })
            .collect();
        for b in 0..4 {
            let mut ws1 = PolicyWorkspace::new();
            p.forward_batch(&x[b * 6..(b + 1) * 6], 1, &mut ws1);
            let single: Vec<u32> = (0..2)
                .flat_map(|h| ws1.head_logits(h, 0).iter().map(|v| v.to_bits()))
                .collect();
            assert_eq!(single, batched[b], "row {b} must equal its batch-1 twin");
        }
    }

    #[test]
    fn the_fused_heads_are_the_heads_one_by_one() {
        // logits against a GEMM per head, then `gw`, `gb` and the trunk
        // gradient against a `Linear::backward_batch` per head folded in
        // ascending head order — once right after `zero_grad` and once on
        // top of those gradients — for batches 1…65 on every backend
        use crate::layers::GradScratch;
        use rand::Rng;
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let backends: Vec<_> = harl_simd::Backend::ALL
            .into_iter()
            .filter(|b| b.is_supported())
            .collect();
        for head_sizes in [&[101usize, 3, 3, 3][..], &[1, 3], &[257]] {
            let mut rng = StdRng::seed_from_u64(14 + head_sizes.len() as u64);
            let mut p = MultiHeadPolicy::new(7, 16, head_sizes, &mut rng);
            let total: usize = head_sizes.iter().sum();
            assert_eq!(p.head_offsets().last(), Some(&total));
            let mut ws = PolicyWorkspace::new();
            let mut scratch = GradScratch::default();
            for batch in 1..=65usize {
                let x: Vec<f32> = (0..batch * 7).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let gy: Vec<f32> = (0..batch * total)
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect();
                for &backend in &backends {
                    let what = format!("{head_sizes:?}, batch {batch}, {}", backend.name());
                    let prev = harl_simd::force_backend(Some(backend));
                    p.forward_batch(&x, batch, &mut ws);
                    let trunk_out = ws.trunk_out.clone();
                    let mut reference = p.heads.clone();
                    let mut g_trunk = vec![0.0f32; batch * 16];
                    p.zero_grad();
                    reference.iter_mut().for_each(Linear::zero_grad);
                    for pass in 0..2 {
                        p.backward_batch(&gy, &mut ws);
                        g_trunk.iter_mut().for_each(|g| *g = 0.0);
                        for (h, head) in reference.iter_mut().enumerate() {
                            let first = p.head_offsets()[h];
                            let mut y = Vec::new();
                            head.forward_batch_into(&trunk_out, batch, &mut y);
                            assert_eq!(bits(&ws.logits(h)), bits(&y), "logits {h}, {what}");
                            let gy_h: Vec<f32> = gy
                                .chunks_exact(total)
                                .flat_map(|row| row[first..first + head.out_dim].iter().copied())
                                .collect();
                            let mut gx = Vec::new();
                            head.backward_batch(
                                &trunk_out,
                                &gy_h,
                                batch,
                                &mut scratch,
                                Some(&mut gx),
                            );
                            for (a, b) in g_trunk.iter_mut().zip(&gx) {
                                *a += *b;
                            }
                            assert_eq!(
                                bits(&p.heads[h].gw),
                                bits(&head.gw),
                                "gw {h}/{pass}, {what}"
                            );
                            assert_eq!(
                                bits(&p.heads[h].gb),
                                bits(&head.gb),
                                "gb {h}/{pass}, {what}"
                            );
                        }
                        tanh_backward(&trunk_out, &mut g_trunk);
                        assert_eq!(bits(&ws.g_trunk), bits(&g_trunk), "g_trunk/{pass}, {what}");
                    }
                    harl_simd::force_backend(prev);
                }
                // move the weights, so the block is rebuilt along the way
                p.adam_step(0.01, 1.0 / batch as f32);
            }
        }
    }

    #[test]
    fn sample_respects_masks() {
        let mut rng = StdRng::seed_from_u64(9);
        let p = MultiHeadPolicy::new(4, 8, &[5, 3], &mut rng);
        let mut ws = PolicyWorkspace::new();
        let masks = vec![
            vec![false, false, true, false, false],
            vec![true, true, true],
        ];
        for _ in 0..50 {
            let (a, logp) = p.sample(&[0.1, 0.2, 0.3, 0.4], &masks, &mut ws, &mut rng);
            assert_eq!(a[0], 2, "masked sampling must pick the only valid action");
            assert!(logp.is_finite());
        }
    }

    #[test]
    fn backward_changes_sampled_probability() {
        // pushing gradient toward an action should raise its probability
        let mut rng = StdRng::seed_from_u64(10);
        let mut p = MultiHeadPolicy::new(3, 8, &[4], &mut rng);
        let mut ws = PolicyWorkspace::new();
        let x = [0.5f32, -0.5, 0.25];
        let target = 2usize;
        for _ in 0..200 {
            p.forward_batch(&x, 1, &mut ws);
            let probs = masked_softmax(ws.head_logits(0, 0), None);
            // gradient of -logp(target): p - onehot
            let g: Vec<f32> = probs
                .iter()
                .enumerate()
                .map(|(i, &pi)| pi - if i == target { 1.0 } else { 0.0 })
                .collect();
            p.zero_grad();
            p.backward_batch(&g, &mut ws);
            p.adam_step(0.01, 1.0);
        }
        p.forward_batch(&x, 1, &mut ws);
        let probs = masked_softmax(ws.head_logits(0, 0), None);
        assert!(probs[target] > 0.9, "target prob {}", probs[target]);
    }

    #[test]
    fn sample_categorical_degenerate() {
        let mut rng = StdRng::seed_from_u64(11);
        assert_eq!(sample_categorical(&[0.0, 1.0, 0.0], &mut rng), 1);
        // all-mass-on-last with fp dust
        assert_eq!(sample_categorical(&[0.0, 0.0, 1.0], &mut rng), 2);
    }

    #[test]
    fn greedy_picks_argmax() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut p = MultiHeadPolicy::new(2, 4, &[3], &mut rng);
        // force strong logits via a head bias
        p.heads[0].b = vec![-5.0, 10.0, -5.0];
        let mut ws = PolicyWorkspace::new();
        let a = p.greedy(&[0.0, 0.0], &[vec![]], &mut ws);
        assert_eq!(a[0], 1);
    }
}
