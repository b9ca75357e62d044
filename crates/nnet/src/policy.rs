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

use harl_par::ThreadPool;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::layers::{tanh_backward, tanh_forward, Linear};
use crate::mlp::{masked_softmax, Mlp, Workspace};

/// Caller-owned scratch for the policy's batched passes: the trunk's own
/// [`Workspace`], the post-tanh trunk output, per-head batch-major logits,
/// and gradient buffers.
#[derive(Debug, Clone, Default)]
pub struct PolicyWorkspace {
    trunk: Workspace,
    trunk_out: Vec<f32>,
    logits: Vec<Vec<f32>>,
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

    /// Batch-major logits of head `h` from the last forward pass.
    pub fn logits(&self, h: usize) -> &[f32] {
        &self.logits[h]
    }

    /// Logits of head `h` for batch row `b` from the last forward pass.
    pub fn head_logits(&self, h: usize, b: usize) -> &[f32] {
        let out = self.logits[h].len() / self.batch.max(1);
        &self.logits[h][b * out..(b + 1) * out]
    }
}

/// Shared-trunk, multi-head categorical policy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiHeadPolicy {
    trunk: Mlp,
    heads: Vec<Linear>,
    adam_t: u64,
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
        }
    }

    /// Number of action heads.
    pub fn num_heads(&self) -> usize {
        self.heads.len()
    }

    /// Per-head action-space sizes.
    pub fn head_sizes(&self) -> Vec<usize> {
        self.heads.iter().map(|h| h.out_dim).collect()
    }

    /// Batch-major forward pass: `x` is `batch × state_dim` row-major.
    /// Leaves per-head logits (and everything a subsequent
    /// [`Self::backward_batch`] needs) in `ws`.
    pub fn forward_batch(&self, x: &[f32], batch: usize, ws: &mut PolicyWorkspace) {
        ws.batch = batch;
        let t = self.trunk.forward_batch(x, batch, &mut ws.trunk);
        ws.trunk_out.clear();
        ws.trunk_out.extend_from_slice(t);
        tanh_forward(&mut ws.trunk_out);
        ws.logits.resize(self.heads.len(), Vec::new());
        for (h, head) in self.heads.iter().enumerate() {
            head.forward_batch_into(&ws.trunk_out, batch, &mut ws.logits[h]);
        }
    }

    /// Batched backward for the most recent [`Self::forward_batch`]
    /// through the same workspace: `grad_logits[h]` is the batch-major
    /// logit gradient of head `h`. Heads are reduced in ascending head
    /// order into the trunk gradient, so the accumulation order matches
    /// the per-sample loop regardless of batch size or pool width.
    pub fn backward_batch(
        &mut self,
        grad_logits: &[Vec<f32>],
        ws: &mut PolicyWorkspace,
        pool: &ThreadPool,
    ) {
        assert_eq!(grad_logits.len(), self.heads.len());
        let batch = ws.batch;
        ws.g_trunk.clear();
        ws.g_trunk.resize(ws.trunk_out.len(), 0.0);
        for (h, gl) in self.heads.iter_mut().zip(grad_logits) {
            let scratch = &mut ws.trunk.grad;
            h.backward_batch(&ws.trunk_out, gl, batch, pool, scratch, Some(&mut ws.gx));
            for (a, b) in ws.g_trunk.iter_mut().zip(&ws.gx) {
                *a += *b;
            }
        }
        tanh_backward(&ws.trunk_out, &mut ws.g_trunk);
        self.trunk
            .backward_batch(&ws.g_trunk, &mut ws.trunk, pool, None);
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
    }

    /// Samples one action per head; returns `(actions, total logp)`.
    /// `masks[h]` may be empty to mean "all valid".
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
            let mask = masks.get(h).filter(|m| !m.is_empty()).map(|m| m.as_slice());
            let probs = masked_softmax(ws.head_logits(h, 0), mask);
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
                let mask = masks.get(h).filter(|m| !m.is_empty()).map(|m| m.as_slice());
                let probs = masked_softmax(ws.head_logits(h, 0), mask);
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
        let pool = ThreadPool::new(1);
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
            p.backward_batch(&[g], &mut ws, &pool);
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
