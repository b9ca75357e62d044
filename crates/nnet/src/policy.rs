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
//!
//! A policy inside a [`crate::PpoAgent`] computes its *live* columns
//! alone: the logits a mask it acted or trained on has allowed, and those
//! whose Adam moments have moved. The tiling head's masks never allow most
//! of its `num_iters² + 1` pairs, and a column no mask allows cannot reach
//! a bit of anything else (DESIGN §12), so skipping it changes nothing.

use std::ops::Range;
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
    /// `batch × columns`: head `h` is columns `offsets[h]..offsets[h + 1]`
    /// of every row.
    logits: Vec<f32>,
    offsets: Vec<usize>,
    /// `dW` of all columns, `columns × hidden`.
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
    /// the columns that pass computed of every head side by side: every
    /// column after [`MultiHeadPolicy::forward_batch`] (see
    /// [`MultiHeadPolicy::head_offsets`]), the live ones, in ascending
    /// action order within each head, after an agent's forward.
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
        let columns = self.offsets.last().copied().unwrap_or(0);
        &self.logits[b * columns + self.offsets[h]..b * columns + self.offsets[h + 1]]
    }
}

/// The heads' selected columns as the one matrix the forward GEMM reads:
/// the k-major `hidden × columns` block whose column range
/// `offsets[h]..offsets[h + 1]` is head `h`'s selected weight rows,
/// transposed, the same rows row-major (the k-major operand of `dX`), the
/// selected biases side by side, and which action of its head each column
/// is. Every column is the selection of a policy of its own; an agent's
/// policy selects its live columns.
#[derive(Debug, Clone, Default)]
pub(crate) struct HeadBlock {
    /// Where each head sits in a row of every column: head `h` is
    /// `all[h]..all[h + 1]`.
    all: Vec<usize>,
    /// Where each head's selected columns sit in a row of the block.
    offsets: Vec<usize>,
    /// The action of each selected column, ascending within its head.
    actions: Vec<usize>,
    wt: Vec<f32>,
    w: Vec<f32>,
    bias: Vec<f32>,
}

impl HeadBlock {
    /// The block of the columns `live` flags (one flag per column of a row
    /// of every column), or of every column.
    fn of(heads: &[Linear], live: Option<&[bool]>) -> Self {
        let mut block = HeadBlock {
            all: vec![0],
            offsets: vec![0],
            ..HeadBlock::default()
        };
        for head in heads {
            let first = *block.all.last().expect("starts at 0");
            block.all.push(first + head.out_dim);
            let selected = (0..head.out_dim).filter(|&a| live.is_none_or(|live| live[first + a]));
            block.actions.extend(selected);
            block.offsets.push(block.actions.len());
        }
        block.refill(heads);
        block
    }

    /// Re-reads the selected rows of every head's weights and biases.
    fn refill(&mut self, heads: &[Linear]) {
        let columns = self.columns();
        let hidden = heads.first().map_or(0, |h| h.in_dim);
        self.wt.resize(hidden * columns, 0.0);
        self.w.clear();
        self.bias.clear();
        for (h, head) in heads.iter().enumerate() {
            let at = self.offsets[h]..self.offsets[h + 1];
            for (c, &a) in at.clone().zip(&self.actions[at]) {
                let row = &head.w[a * hidden..(a + 1) * hidden];
                for (k, &v) in row.iter().enumerate() {
                    self.wt[k * columns + c] = v;
                }
                self.w.extend_from_slice(row);
                self.bias.push(head.b[a]);
            }
        }
    }

    /// Selected columns per row.
    pub(crate) fn columns(&self) -> usize {
        self.actions.len()
    }

    /// Where each head's selected columns sit in a row of the block: head
    /// `h` at `offsets[h]..offsets[h + 1]`.
    pub(crate) fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Head `h`'s selected actions, ascending.
    pub(crate) fn actions(&self, h: usize) -> &[usize] {
        &self.actions[self.offsets[h]..self.offsets[h + 1]]
    }

    /// Where action `a` of head `h` sits among the head's selected
    /// columns; `None` if it is not selected.
    pub(crate) fn position(&self, h: usize, a: usize) -> Option<usize> {
        self.actions(h).binary_search(&a).ok()
    }

    /// Head `h`'s action at `position` among its selected columns, or —
    /// for `None` — its last action.
    pub(crate) fn action(&self, h: usize, position: Option<usize>) -> usize {
        position.map_or(self.all[h + 1] - self.all[h] - 1, |i| self.actions(h)[i])
    }

    /// The validity of every selected column of `rows` rows into `valid`
    /// (batch-major, laid out like a row of the block): head `h` of row `b`
    /// reads `mask_of(b, h)`, a mask over every action of the head, and is
    /// all valid where there is none.
    pub(crate) fn select_masks<'m>(
        &self,
        rows: usize,
        mask_of: impl Fn(usize, usize) -> Option<&'m [bool]>,
        valid: &mut Vec<bool>,
    ) {
        valid.clear();
        for b in 0..rows {
            for h in 0..self.offsets.len() - 1 {
                let actions = self.actions(h);
                match mask_of(b, h) {
                    // a head selected whole reads its mask as it is
                    Some(mask) if actions.len() == mask.len() => valid.extend_from_slice(mask),
                    Some(mask) => valid.extend(actions.iter().map(|&a| mask[a])),
                    None => valid.resize(valid.len() + actions.len(), true),
                }
            }
        }
    }
}

/// The runs of consecutive values in ascending `values`.
fn runs(values: &[usize]) -> impl Iterator<Item = Range<usize>> + '_ {
    (values.chunk_by(|a, b| a + 1 == *b)).map(|run| run[0]..run[run.len() - 1] + 1)
}

/// Shared-trunk, multi-head categorical policy.
///
/// The heads are stored (and serialized) as one [`Linear`] each, but run
/// as one matrix: a cached [`HeadBlock`] of the policy's columns — built
/// on first use, rebuilt when the live columns grow, refilled by
/// [`MultiHeadPolicy::adam_step`] like a layer's own transpose — gives
/// their logits in one GEMM, and the backward takes their `dW` and `db`
/// from one product and one pass of column sums.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiHeadPolicy {
    trunk: Mlp,
    heads: Vec<Linear>,
    adam_t: u64,
    /// The live columns, one flag per column of a row of every column,
    /// once an agent tracks them; `None` — a policy of its own — computes
    /// every column. Only grows; an agent rebuilds it on decode.
    #[serde(skip)]
    live: Option<Vec<bool>>,
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
            live: None,
            block: OnceLock::new(),
        }
    }

    /// The block of the policy's columns: its live ones, or every one.
    pub(crate) fn block(&self) -> &HeadBlock {
        self.block
            .get_or_init(|| HeadBlock::of(&self.heads, self.live.as_deref()))
    }

    /// Starts tracking live columns: a column is live from now on if any
    /// of its Adam moments has a bit set, or once [`Self::widen`] makes it
    /// so. (A fresh agent's policy starts with none.)
    pub(crate) fn track_live(&mut self) {
        let live = (self.heads.iter())
            .flat_map(|head| (0..head.out_dim).map(|o| head.has_moments(o)))
            .collect();
        self.live = Some(live);
        self.block = OnceLock::new();
    }

    /// Makes live every column that `rows` rows of masks allow: head `h`
    /// of row `b` reads `mask_of(b, h)`, a mask over every action of the
    /// head. A head without a mask, or whose mask allows nothing (which the
    /// softmax reads as uniform over the whole head), goes live whole.
    /// Nothing for a policy that computes every column.
    pub(crate) fn widen<'m>(
        &mut self,
        rows: usize,
        mask_of: impl Fn(usize, usize) -> Option<&'m [bool]>,
    ) {
        let Some(live) = &mut self.live else {
            return;
        };
        let mut grew = false;
        for b in 0..rows {
            let mut first = 0;
            for (h, head) in self.heads.iter().enumerate() {
                let cells = &mut live[first..first + head.out_dim];
                first += head.out_dim;
                if !cells.contains(&false) {
                    // a head live whole stays so
                    continue;
                }
                match mask_of(b, h).filter(|mask| mask.contains(&true)) {
                    Some(mask) => {
                        for (live, &valid) in cells.iter_mut().zip(mask) {
                            grew |= valid & !*live;
                            *live |= valid;
                        }
                    }
                    None => {
                        grew = true;
                        cells.fill(true);
                    }
                }
            }
        }
        if grew {
            self.block = OnceLock::new();
        }
    }

    /// Columns the policy computes, per head: its live ones, or all.
    pub(crate) fn live_per_head(&self) -> Vec<usize> {
        let mut first = 0;
        (self.heads.iter())
            .map(|head| {
                let cells = first..first + head.out_dim;
                first = cells.end;
                self.live.as_ref().map_or(head.out_dim, |live| {
                    live[cells].iter().filter(|&&l| l).count()
                })
            })
            .collect()
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

    /// Where each head sits in a row of every column's logits: head `h` is
    /// columns `offsets[h]..offsets[h + 1]`, the last entry the row length.
    pub fn head_offsets(&self) -> &[usize] {
        &self.block().all
    }

    /// Batch-major forward pass of every column: `x` is `batch ×
    /// state_dim` row-major. Leaves the logits (and everything a
    /// subsequent [`Self::backward_batch`] of a policy of its own needs)
    /// in `ws`. Each logit is its head's bias plus an ascending-`k` chain
    /// over the trunk output, whichever columns stand next to it: the bits
    /// of a GEMM per head. An agent's policy builds every column's block
    /// for the call (a probe's cost: the agent itself forwards through
    /// [`Self::forward_live`]).
    pub fn forward_batch(&self, x: &[f32], batch: usize, ws: &mut PolicyWorkspace) {
        if self.live.is_some() {
            self.forward_block(&HeadBlock::of(&self.heads, None), x, batch, ws);
        } else {
            self.forward_block(self.block(), x, batch, ws);
        }
    }

    /// [`Self::forward_batch`] of the policy's own columns: the live ones
    /// of an agent's policy. Same bits in every column it computes.
    pub(crate) fn forward_live(&self, x: &[f32], batch: usize, ws: &mut PolicyWorkspace) {
        self.forward_block(self.block(), x, batch, ws);
    }

    fn forward_block(&self, block: &HeadBlock, x: &[f32], batch: usize, ws: &mut PolicyWorkspace) {
        ws.batch = batch;
        let t = self.trunk.forward_batch(x, batch, &mut ws.trunk);
        ws.trunk_out.clear();
        ws.trunk_out.extend_from_slice(t);
        tanh_forward(&mut ws.trunk_out);
        ws.offsets.clone_from(&block.offsets);
        gemm_bias_into(
            &ws.trunk_out,
            &block.wt,
            &block.bias,
            batch,
            self.trunk.out_dim(),
            block.columns(),
            &mut ws.logits,
        );
    }

    /// Batched backward for the most recent forward of the policy's own
    /// columns through the same workspace: `grad_logits` is the
    /// batch-major logit gradient laid out like
    /// [`PolicyWorkspace::all_logits`]. `dW` of those columns is one
    /// product over `grad_logits` read through its strides and `db` one
    /// pass of column sums, each cell the chain a backward per head gives
    /// it; the rows of the other columns keep what
    /// [`Self::zero_grad`] left. `dX` stays one `+0.0`-seeded product per
    /// head, added into the trunk gradient in ascending head order: that
    /// order is the per-sample loop's, whatever the batch size (head 0's
    /// product is the first term, so it is written, not added).
    pub fn backward_batch(&mut self, grad_logits: &[f32], ws: &mut PolicyWorkspace) {
        let batch = ws.batch;
        let hidden = self.trunk.out_dim();
        let block = (self.block).get_or_init(|| HeadBlock::of(&self.heads, self.live.as_deref()));
        assert_eq!(
            ws.offsets, block.offsets,
            "backward without a forward of the policy's columns"
        );
        let columns = block.columns();
        assert_eq!(grad_logits.len(), batch * columns);
        let scratch = &mut ws.trunk.grad;

        ws.dw.resize(columns * hidden, 0.0);
        gemm_from_zero(
            Strided::columns(grad_logits, columns),
            &ws.trunk_out,
            &mut scratch.zeros,
            batch,
            hidden,
            &mut ws.dw,
        );
        column_sums(grad_logits, columns, &mut scratch.sums);
        for (h, head) in self.heads.iter_mut().enumerate() {
            let at = block.offsets[h]..block.offsets[h + 1];
            head.add_grads(
                block.actions(h),
                &ws.dw[at.start * hidden..at.end * hidden],
                &scratch.sums[at],
            );
        }

        ws.g_trunk.resize(batch * hidden, 0.0);
        ws.gx.resize(batch * hidden, 0.0);
        for (h, at) in block.offsets.windows(2).enumerate() {
            let gy = Strided::rows(grad_logits, columns).from_k(at[0]);
            let w = &block.w[at[0] * hidden..at[1] * hidden];
            let gx = if h == 0 { &mut ws.g_trunk } else { &mut ws.gx };
            gemm_from_zero(gy, w, &mut scratch.zeros, at[1] - at[0], hidden, gx);
            if h > 0 {
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

    /// Applies an Adam update with the accumulated gradients: the trunk
    /// whole, the heads' rows of the policy's columns alone (a column
    /// outside them has a `+0.0` gradient and `+0.0` moments, which a step
    /// leaves as they are).
    pub fn adam_step(&mut self, lr: f32, scale: f32) {
        self.adam_t += 1;
        self.trunk.adam_step(lr, scale);
        let block = (self.block).get_or_init(|| HeadBlock::of(&self.heads, self.live.as_deref()));
        for (h, head) in self.heads.iter_mut().enumerate() {
            head.adam_step_rows(lr, self.adam_t, scale, runs(block.actions(h)));
        }
        let block = self.block.get_mut().expect("built above");
        block.refill(&self.heads);
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

/// The first index of `probs` whose running sum exceeds `r`.
fn first_above(probs: &[f32], r: f32) -> Option<usize> {
    let mut acc = 0.0f32;
    probs.iter().position(|&p| {
        acc += p;
        r < acc
    })
}

/// The numeric tail: the last positive index.
fn last_positive(probs: &[f32]) -> Option<usize> {
    probs.iter().rposition(|&p| p > 0.0)
}

/// `sums[i]` = the running sum `acc += p` (from `+0.0`) of `probs[..=i]`,
/// for a row drawn from again and again ([`draw_from_sums`]).
pub(crate) fn running_sums(probs: &[f32], sums: &mut [f32]) {
    let mut acc = 0.0f32;
    for (s, &p) in sums.iter_mut().zip(probs) {
        acc += p;
        *s = acc;
    }
}

/// The categorical draw `r` out of `probs`, given their [`running_sums`]:
/// the first cell whose running sum exceeds `r`, else the last positive
/// one, found by bisection (the sums of non-negative cells never fall). A
/// row whose sums hold a NaN (every one after it is NaN too) is scanned.
/// `None` where the draw is the row's last cell for want of a positive
/// one, which a caller of a row of selected columns maps to the head's
/// last action.
pub(crate) fn draw_from_sums(probs: &[f32], sums: &[f32], r: f32) -> Option<usize> {
    let found = if sums.last().is_some_and(|s| s.is_nan()) {
        first_above(probs, r)
    } else {
        Some(sums.partition_point(|&s| s <= r)).filter(|&i| i < sums.len())
    };
    found.or_else(|| last_positive(probs))
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

    /// The sampler this crate shipped before the running sums, kept as
    /// their oracle: one scan of the running sum per draw.
    fn sample_categorical(probs: &[f32], r: f32) -> usize {
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

    #[test]
    fn draws_from_running_sums_are_the_scan_s_picks() {
        // rows with masked zeros, rows whose sum falls short of 1, NaN
        // rows and a NaN after finite cells, all-zero rows; draws at the
        // sums themselves and between them
        let mut rng = StdRng::seed_from_u64(15);
        let mut rows: Vec<Vec<f32>> = vec![
            vec![0.0, 0.0, 0.0],
            vec![f32::NAN; 4],
            vec![0.25, f32::NAN, 0.5],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![0.3, 0.3, 0.3],
        ];
        for n in [1usize, 2, 7, 101] {
            for _ in 0..20 {
                let mut row: Vec<f32> = (0..n)
                    .map(|_| {
                        if rng.gen_range(0..3) == 0 {
                            0.0
                        } else {
                            rng.gen()
                        }
                    })
                    .collect();
                let sum: f32 = row.iter().sum();
                row.iter_mut()
                    .for_each(|p| *p /= sum.max(f32::MIN_POSITIVE));
                rows.push(row);
            }
        }
        for probs in &rows {
            let mut sums = vec![0.0; probs.len()];
            running_sums(probs, &mut sums);
            let draws = (sums.iter().copied())
                .chain((0..50).map(|_| rng.gen::<f32>()))
                .chain([0.0, 0.999_999_9]);
            for r in draws {
                let got = draw_from_sums(probs, &sums, r).unwrap_or(probs.len() - 1);
                assert_eq!(got, sample_categorical(probs, r), "{probs:?} at {r}");
            }
        }
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
