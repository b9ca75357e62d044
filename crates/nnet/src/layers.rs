//! Dense layers with manual backprop and Adam state.
//!
//! The networks in the paper are small MLPs (the PPO reference
//! implementation (reference \[4\] of the paper) uses two hidden layers of
//! 64 tanh units), but Algorithm 1 evaluates them once per live schedule
//! track per step and once per minibatch sample per update — an
//! embarrassingly batchable shape. The layer API is therefore batch-major:
//! `&self` forward through the blocked GEMM in [`crate::gemm`], and a
//! batched backward whose per-parameter reductions keep one fixed
//! summation order no matter the batch size or pool width.

use std::ops::Deref;
use std::sync::OnceLock;

use harl_par::ThreadPool;
use rand::Rng;
use serde::de::{self, DeError, Value};
use serde::ser::JsonWriter;
use serde::{Deserialize, Serialize};

use harl_simd::{gemm_bias_strided, Strided};

use crate::gemm::{gemm_bias_into, transpose_into};
use crate::packed;

/// A layer's row-major `out_dim × in_dim` weight matrix. It reads as a
/// plain `[f32]`, but only [`Linear`] can write it: every write goes
/// through a method that also refreshes the layer's cached transpose, so
/// the forward pass can never see a stale one.
#[derive(Debug, Clone)]
pub struct Weights(Vec<f32>);

impl Deref for Weights {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.0
    }
}

/// A fully-connected layer `Y = X·Wᵀ + b` with gradient accumulators and
/// Adam moments.
///
/// Serialized by hand: the two dimensions as numbers, then the eight
/// arrays as [`crate::packed`] strings, whose lengths a decode checks
/// against the dimensions.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Input dimensionality.
    pub in_dim: usize,
    /// Output dimensionality.
    pub out_dim: usize,
    /// Row-major `out_dim × in_dim`.
    pub w: Weights,
    /// Bias vector.
    pub b: Vec<f32>,
    /// Accumulated weight gradients.
    pub gw: Vec<f32>,
    /// Accumulated bias gradients.
    pub gb: Vec<f32>,
    mw: Vec<f32>,
    vw: Vec<f32>,
    mb: Vec<f32>,
    vb: Vec<f32>,
    /// The k-major transpose of `w` the forward GEMM reads. Built on first
    /// use (a new, cloned-before-use or deserialized layer has none) and
    /// rebuilt by [`Linear::adam_step`], the only writer of `w`.
    wt: OnceLock<Vec<f32>>,
    /// Every cell of `gw` is `+0.0` because [`Linear::zero_grad`] just
    /// wrote it: the next backward may write its `dW` instead of adding it.
    /// A layer that was only constructed or decoded never claims this.
    zeroed: bool,
}

impl Serialize for Linear {
    fn serialize(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.key("in_dim");
        self.in_dim.serialize(w);
        w.key("out_dim");
        self.out_dim.serialize(w);
        for (name, values) in self.arrays() {
            packed::write_f32s(w, name, values);
        }
        w.end_object();
    }
}

impl<'de> Deserialize<'de> for Linear {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        let in_dim: usize = de::field(v, "in_dim")?;
        let out_dim: usize = de::field(v, "out_dim")?;
        let weights = in_dim
            .checked_mul(out_dim)
            .ok_or_else(|| DeError::new(format!("a {out_dim}×{in_dim} layer overflows usize")))?;
        let read = |name: &str, len: usize| {
            let values = packed::read_f32s(v, name)?;
            if values.len() == len {
                Ok(values)
            } else {
                Err(DeError::new(format!(
                    "field `{name}`: {} values in a {out_dim}×{in_dim} layer, expected {len}",
                    values.len()
                )))
            }
        };
        Ok(Linear {
            in_dim,
            out_dim,
            w: Weights(read("w", weights)?),
            b: read("b", out_dim)?,
            gw: read("gw", weights)?,
            gb: read("gb", out_dim)?,
            mw: read("mw", weights)?,
            vw: read("vw", weights)?,
            mb: read("mb", out_dim)?,
            vb: read("vb", out_dim)?,
            wt: OnceLock::new(),
            zeroed: false,
        })
    }
}

/// Caller-owned scratch of [`Linear::backward_batch`], reusable across
/// layers and calls: the weight-gradient partial of a backward that has to
/// add to `gw`, the column sums of the output gradient, and the `+0.0`
/// bias both backward GEMMs start from.
#[derive(Debug, Clone, Default)]
pub struct GradScratch {
    pub(crate) dw: Vec<f32>,
    pub(crate) sums: Vec<f32>,
    pub(crate) zeros: Vec<f32>,
}

/// `y = x·wt` (`rows × k` through `x`'s strides, times k-major `k × n`),
/// every cell a `+0.0`-seeded ascending-`k` chain, with the output rows
/// split into blocks across `pool`. `zeros` is resized to the `n` zeros
/// the chains start from.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_on_pool(
    pool: &ThreadPool,
    x: Strided<'_>,
    wt: &[f32],
    zeros: &mut Vec<f32>,
    k: usize,
    n: usize,
    y: &mut [f32],
) {
    zeros.clear();
    zeros.resize(n, 0.0);
    if n == 0 {
        return;
    }
    pool.for_each_row_block(y, n, |first, block| {
        gemm_bias_strided(x.from_row(first), wt, zeros, block.len() / n, k, n, block);
    });
}

/// The sum of every column of batch-major `gy` (rows of `out_dim` cells)
/// into `sums`: row after row added into all columns at once, so column
/// `o` is the chain `+0.0 + gy[0][o] + gy[1][o] + …` — the per-output-unit
/// sum in ascending sample order, across vector lanes instead of down a
/// transposed row.
pub(crate) fn column_sums(gy: &[f32], out_dim: usize, sums: &mut Vec<f32>) {
    sums.clear();
    sums.resize(out_dim, 0.0);
    for row in gy.chunks_exact(out_dim.max(1)) {
        for (s, &g) in sums.iter_mut().zip(row) {
            *s += g;
        }
    }
}

/// `acc[i] += g[i]`.
fn add_into(acc: &mut [f32], g: &[f32]) {
    for (acc, &g) in acc.iter_mut().zip(g) {
        *acc += g;
    }
}

/// One Adam step over a parameter slice and its gradient and moment
/// slices. The lock-step iteration has no bounds checks, so the
/// elementwise chain (exact `sqrt` and divisions included) vectorizes
/// without changing a bit.
fn adam(p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], lr: f32, t: u64, scale: f32) {
    const B1: f32 = 0.9;
    const B2: f32 = 0.999;
    const EPS: f32 = 1e-8;
    let bc1 = 1.0 - B1.powi(t as i32);
    let bc2 = 1.0 - B2.powi(t as i32);
    for (((p, &g), m), v) in p.iter_mut().zip(g).zip(m).zip(v) {
        let g = g * scale;
        *m = B1 * *m + (1.0 - B1) * g;
        *v = B2 * *v + (1.0 - B2) * g * g;
        *p -= lr * (*m / bc1) / ((*v / bc2).sqrt() + EPS);
    }
}

impl Linear {
    /// Orthogonal-ish init: scaled uniform (He-style) — adequate for the
    /// shallow nets used here.
    pub fn new<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        let bound = (6.0 / (in_dim + out_dim) as f32).sqrt();
        let w = (0..in_dim * out_dim)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Linear {
            in_dim,
            out_dim,
            w: Weights(w),
            b: vec![0.0; out_dim],
            gw: vec![0.0; in_dim * out_dim],
            gb: vec![0.0; out_dim],
            mw: vec![0.0; in_dim * out_dim],
            vw: vec![0.0; in_dim * out_dim],
            mb: vec![0.0; out_dim],
            vb: vec![0.0; out_dim],
            wt: OnceLock::new(),
            zeroed: false,
        }
    }

    /// Batch-major forward: `y[b·out + o] = b[o] + Σ_k w[o·in + k]·x[b·in + k]`
    /// for every row `b < batch`, through the blocked GEMM over the cached
    /// weight transpose; every row comes out bit-equal to a batch-1 call.
    pub fn forward_batch_into(&self, x: &[f32], batch: usize, y: &mut Vec<f32>) {
        debug_assert_eq!(x.len(), batch * self.in_dim);
        let wt = self.wt.get_or_init(|| {
            let mut wt = Vec::new();
            transpose_into(&self.w, self.out_dim, self.in_dim, &mut wt);
            wt
        });
        gemm_bias_into(x, wt, &self.b, batch, self.in_dim, self.out_dim, y);
    }

    /// Batched backward: accumulates `∂L/∂W` and `∂L/∂b` over the whole
    /// batch and, when the caller asks for it, writes `∂L/∂X` (batch-major)
    /// into `gx`.
    ///
    /// Both gradients are products whose reduction operand is already
    /// k-major, so both run on the forward's GEMM microkernel:
    /// `dW = gyᵀ·X` reduces over the batch with `X` (`batch × in`) as the
    /// k-major operand and `gy` read in place through its strides as the
    /// left one, `dX = gy·W` reduces over the outputs with the stored `W`
    /// (`out × in`) as the k-major operand. The kernel gives every cell
    /// one chain — the `+0.0` bias, then ascending `b` (resp. ascending
    /// `o`) multiply-then-add, `g` always the left factor — which is the
    /// chain of the serial per-sample loop. Right after
    /// [`Linear::zero_grad`] the `dW` product is written straight into
    /// `gw`; otherwise it lands in a private partial that is then added.
    /// Both leave the bits of accumulating the terms directly: the partial
    /// of a `+0.0`-seeded chain is never `-0.0`, so `+0.0 + dw` is `dw`.
    /// `pool` splits the output rows of either product into blocks; rows
    /// are independent, so any width — and any batch split — equals the
    /// serial loop bit-for-bit, on every backend.
    pub fn backward_batch(
        &mut self,
        x: &[f32],
        gy: &[f32],
        batch: usize,
        pool: &ThreadPool,
        scratch: &mut GradScratch,
        gx: Option<&mut Vec<f32>>,
    ) {
        debug_assert_eq!(x.len(), batch * self.in_dim);
        debug_assert_eq!(gy.len(), batch * self.out_dim);
        let (in_dim, out_dim) = (self.in_dim, self.out_dim);
        let GradScratch { dw, sums, zeros } = scratch;

        // dL/dW = gyᵀ·X; dL/db sums each column of gy, batch in order
        let gyt = Strided::columns(gy, out_dim);
        if std::mem::take(&mut self.zeroed) {
            gemm_on_pool(pool, gyt, x, zeros, batch, in_dim, &mut self.gw);
        } else {
            dw.resize(out_dim * in_dim, 0.0);
            gemm_on_pool(pool, gyt, x, zeros, batch, in_dim, dw);
            add_into(&mut self.gw, dw);
        }
        column_sums(gy, out_dim, sums);
        add_into(&mut self.gb, sums);

        // dL/dX = gy·W
        if let Some(gx) = gx {
            self.input_grad(Strided::rows(gy, out_dim), batch, pool, zeros, gx);
        }
    }

    /// [`Linear::backward_batch`]'s parameter half for a caller that
    /// computed the layer's `dW` (`out × in`) and `db` as rows of a larger
    /// product: `gw += dw` — a plain copy right after
    /// [`Linear::zero_grad`], which leaves the same bits — and `gb += db`.
    pub(crate) fn add_grads(&mut self, dw: &[f32], db: &[f32]) {
        debug_assert_eq!(dw.len(), self.gw.len());
        if std::mem::take(&mut self.zeroed) {
            self.gw.copy_from_slice(dw);
        } else {
            add_into(&mut self.gw, dw);
        }
        add_into(&mut self.gb, db);
    }

    /// `∂L/∂X = gy·W` into `gx` (`batch × in`), `gy` read through its
    /// strides: the input-gradient half of [`Linear::backward_batch`].
    pub(crate) fn input_grad(
        &self,
        gy: Strided<'_>,
        batch: usize,
        pool: &ThreadPool,
        zeros: &mut Vec<f32>,
        gx: &mut Vec<f32>,
    ) {
        gx.resize(batch * self.in_dim, 0.0);
        gemm_on_pool(pool, gy, &self.w, zeros, self.out_dim, self.in_dim, gx);
    }

    /// Clears accumulated gradients. The backward that follows writes its
    /// `dW` over `gw` instead of adding to it, so `gw` must not be filled
    /// by hand in between.
    pub fn zero_grad(&mut self) {
        self.gw.iter_mut().for_each(|g| *g = 0.0);
        self.gb.iter_mut().for_each(|g| *g = 0.0);
        self.zeroed = true;
    }

    /// Adam update with bias correction; `t` is the 1-based step count and
    /// `scale` divides accumulated gradients (e.g. by the minibatch size).
    /// Refreshes the cached weight transpose.
    pub fn adam_step(&mut self, lr: f32, t: u64, scale: f32) {
        adam(
            &mut self.w.0,
            &self.gw,
            &mut self.mw,
            &mut self.vw,
            lr,
            t,
            scale,
        );
        adam(
            &mut self.b,
            &self.gb,
            &mut self.mb,
            &mut self.vb,
            lr,
            t,
            scale,
        );
        if let Some(wt) = self.wt.get_mut() {
            transpose_into(&self.w, self.out_dim, self.in_dim, wt);
        }
    }

    /// Trainable parameter count.
    pub fn num_params(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Everything the layer stores — dimensions, then the bit patterns of
    /// weights, biases, gradients and Adam moments in declaration order.
    /// Golden tests digest this rather than the serialized text, which may
    /// change layout without a bit of state moving.
    pub fn state_bits(&self) -> impl Iterator<Item = u64> + '_ {
        let values = self.arrays().into_iter().flat_map(|(_, values)| values);
        [self.in_dim as u64, self.out_dim as u64]
            .into_iter()
            .chain(values.map(|v| u64::from(v.to_bits())))
    }

    /// The eight stored arrays under their serialized names, in
    /// declaration order.
    fn arrays(&self) -> [(&'static str, &[f32]); 8] {
        [
            ("w", &self.w),
            ("b", &self.b),
            ("gw", &self.gw),
            ("gb", &self.gb),
            ("mw", &self.mw),
            ("vw", &self.vw),
            ("mb", &self.mb),
            ("vb", &self.vb),
        ]
    }
}

/// In-place tanh and its backward pass. The kernel is `harl-simd`'s lane
/// form of fdlibm's `tanhf`: the bits the goldens were recorded with, on
/// every backend and whatever libm the host links.
pub fn tanh_forward(x: &mut [f32]) {
    harl_simd::tanh_inplace(x);
}

/// `gx = gy * (1 - y²)` where `y = tanh(x)` is the forward output.
pub fn tanh_backward(y: &[f32], gy: &mut [f32]) {
    for (g, &yv) in gy.iter_mut().zip(y) {
        *g *= 1.0 - yv * yv;
    }
}

#[cfg(test)]
impl Linear {
    /// Test-only single-weight write (finite differences); drops the
    /// cached transpose like any writer of `w` must.
    pub(crate) fn set_w(&mut self, i: usize, v: f32) {
        self.w.0[i] = v;
        self.wt = OnceLock::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn forward1(l: &Linear, x: &[f32]) -> Vec<f32> {
        let mut y = Vec::new();
        l.forward_batch_into(x, 1, &mut y);
        y
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// A layer's text as the generic writer made it before the hex table,
    /// kept as the oracle of the table's.
    fn reference_text(l: &Linear) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("in_dim");
        l.in_dim.serialize(&mut w);
        w.key("out_dim");
        l.out_dim.serialize(&mut w);
        for (name, values) in l.arrays() {
            crate::packed::reference::write_f32s(&mut w, name, values);
        }
        w.end_object();
        w.finish()
    }

    #[test]
    fn the_hex_table_writes_what_the_formatter_wrote() {
        let mut rng = StdRng::seed_from_u64(29);
        for (in_dim, out_dim) in [(0, 0), (1, 1), (3, 5), (64, 110), (37, 9)] {
            let mut l = Linear::new(in_dim, out_dim, &mut rng);
            // every stored array, with the bit patterns text gets wrong
            let specials = [f32::NAN, -0.0, f32::INFINITY, f32::from_bits(0xff80_0001)];
            for (i, v) in (l.w.0.iter_mut())
                .chain(&mut l.b)
                .chain(&mut l.gw)
                .chain(&mut l.gb)
                .chain(&mut l.mw)
                .chain(&mut l.vw)
                .chain(&mut l.mb)
                .chain(&mut l.vb)
                .enumerate()
            {
                *v = match i % 7 {
                    0..=3 => specials[i % 7],
                    4 => f32::from_bits(rng.gen::<u32>() & 0x807f_ffff),
                    _ => f32::from_bits(rng.gen()),
                };
            }
            let text = serde_json::to_string(&l).unwrap();
            assert_eq!(text, reference_text(&l), "{out_dim}×{in_dim}");
        }
    }

    /// The backward this crate shipped before the GEMM one: one private
    /// `+0.0` row per output unit (resp. per sample), rank-1 updates
    /// `row += g·x_row` in ascending `b` (resp. `o`), partials folded into
    /// `gw`/`gb` afterwards. Kept as the bit oracle of the rewrite.
    fn backward_per_row(l: &mut Linear, x: &[f32], gy: &[f32], batch: usize) -> Vec<f32> {
        let (in_dim, out_dim) = (l.in_dim, l.out_dim);
        let axpy = |a: f32, x: &[f32], y: &mut [f32]| {
            for (yi, &xi) in y.iter_mut().zip(x) {
                *yi += a * xi;
            }
        };
        for o in 0..out_dim {
            let mut gw_row = vec![0.0f32; in_dim];
            let mut gb_o = 0.0f32;
            for b in 0..batch {
                let g = gy[b * out_dim + o];
                gb_o += g;
                axpy(g, &x[b * in_dim..(b + 1) * in_dim], &mut gw_row);
            }
            l.gb[o] += gb_o;
            for (acc, &g) in l.gw[o * in_dim..(o + 1) * in_dim].iter_mut().zip(&gw_row) {
                *acc += g;
            }
        }
        let mut gx = vec![0.0f32; batch * in_dim];
        for b in 0..batch {
            for o in 0..out_dim {
                let g = gy[b * out_dim + o];
                axpy(
                    g,
                    &l.w[o * in_dim..(o + 1) * in_dim],
                    &mut gx[b * in_dim..(b + 1) * in_dim],
                );
            }
        }
        gx
    }

    #[test]
    fn forward_matches_manual() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Linear::new(2, 2, &mut rng);
        for (i, v) in [1.0, 2.0, 3.0, 4.0].into_iter().enumerate() {
            l.set_w(i, v);
        }
        l.b = vec![0.5, -0.5];
        let y = forward1(&l, &[1.0, -1.0]);
        assert_eq!(y, vec![1.0 - 2.0 + 0.5, 3.0 - 4.0 - 0.5]);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut l = Linear::new(3, 2, &mut rng);
        let pool = ThreadPool::new(1);
        let x = [0.3f32, -0.7, 1.1];
        // loss = sum(y)
        let gy = [1.0f32, 1.0];
        let mut gx = Vec::new();
        l.zero_grad();
        l.backward_batch(
            &x,
            &gy,
            1,
            &pool,
            &mut GradScratch::default(),
            Some(&mut gx),
        );

        let eps = 1e-3f32;
        for i in 0..l.w.len() {
            let orig = l.w[i];
            l.set_w(i, orig + eps);
            let lp: f32 = forward1(&l, &x).iter().sum();
            l.set_w(i, orig - eps);
            let lm: f32 = forward1(&l, &x).iter().sum();
            l.set_w(i, orig);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - l.gw[i]).abs() < 1e-2,
                "w[{i}]: fd {fd} vs {}",
                l.gw[i]
            );
        }
        // input grads
        for i in 0..3 {
            let mut xp = x;
            xp[i] += eps;
            let lp: f32 = forward1(&l, &xp).iter().sum();
            xp[i] = x[i] - eps;
            let lm: f32 = forward1(&l, &xp).iter().sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - gx[i]).abs() < 1e-2);
        }
    }

    #[test]
    fn batched_backward_equals_per_sample_accumulation() {
        // one batch-3 backward must leave the exact gradient bits of three
        // batch-1 backwards, at every pool width
        let mut rng = StdRng::seed_from_u64(21);
        let l0 = Linear::new(5, 4, &mut rng);
        let x: Vec<f32> = (0..15).map(|i| (i as f32 * 0.37).sin()).collect();
        let gy: Vec<f32> = (0..12).map(|i| (i as f32 * 0.53).cos()).collect();
        let mut scratch = GradScratch::default();

        let mut serial = l0.clone();
        let pool1 = ThreadPool::new(1);
        let mut gx_serial = Vec::new();
        for b in 0..3 {
            let mut gx_b = Vec::new();
            serial.backward_batch(
                &x[b * 5..(b + 1) * 5],
                &gy[b * 4..(b + 1) * 4],
                1,
                &pool1,
                &mut scratch,
                Some(&mut gx_b),
            );
            gx_serial.extend_from_slice(&gx_b);
        }

        for threads in [1, 2, 7] {
            let mut batched = l0.clone();
            let pool = ThreadPool::new(threads);
            let mut gx = Vec::new();
            batched.backward_batch(&x, &gy, 3, &pool, &mut scratch, Some(&mut gx));
            assert_eq!(bits(&batched.gw), bits(&serial.gw), "gw, width {threads}");
            assert_eq!(bits(&batched.gb), bits(&serial.gb), "gb, width {threads}");
            assert_eq!(bits(&gx), bits(&gx_serial), "gx, width {threads}");
        }
    }

    /// `(batch, out_dim, in_dim)` of the backward comparisons. The shapes
    /// straddle the kernel's MB = 8 row block, its KC = 256 reduction panel
    /// (`batch` is dW's reduction length, `out_dim` dX's) and the 8-lane
    /// column tail; the odd sizes after them put every masked column-tail
    /// width of the 8- and 16-lane kernels (`in_dim` is both products'
    /// column count) against every row-tile remainder (dW has `out_dim`
    /// rows, dX `batch`); the two thin shapes at the end cross the pool's
    /// inline threshold at width 2, so its workers really spawn.
    fn backward_shapes() -> Vec<(usize, usize, usize)> {
        let mut shapes = Vec::new();
        for &batch in &[1usize, 7, 64, 65, 300] {
            for &out_dim in &[1usize, 3, 64, 101, 130] {
                for &in_dim in &[5usize, 64, 257] {
                    shapes.push((batch, out_dim, in_dim));
                }
            }
        }
        let odd = [1usize, 3, 7, 9, 15, 17, 31, 33, 101, 110];
        for (i, &in_dim) in odd.iter().enumerate() {
            for (j, &batch) in [1usize, 3, 5, 9].iter().enumerate() {
                shapes.push((batch, odd[(i + j) % odd.len()], in_dim));
            }
        }
        let split = 2 * harl_par::MIN_ITEMS_PER_WORKER + 8;
        shapes.extend([(2, split, 4), (split, 1, 4)]);
        shapes
    }

    fn supported_backends() -> Vec<harl_simd::Backend> {
        harl_simd::Backend::ALL
            .into_iter()
            .filter(|b| b.is_supported())
            .collect()
    }

    #[test]
    fn gemm_backward_equals_the_per_row_backward_bit_for_bit() {
        // every shape once with gradients that start non-zero, so the fold
        // of a partial into `gw`/`gb` is covered, and once right after
        // `zero_grad`, where `dW` is written into `gw` itself
        let mut rng = StdRng::seed_from_u64(77);
        let mut scratch = GradScratch::default();
        let backends = supported_backends();
        let spawned = harl_obs::global().counter("harl_par_maps_total{mode=\"parallel\"}");
        let spawned_before = spawned.get();
        for (batch, out_dim, in_dim) in backward_shapes() {
            let mut l0 = Linear::new(in_dim, out_dim, &mut rng);
            l0.gw.iter_mut().for_each(|g| *g = rng.gen_range(-1.0..1.0));
            l0.gb.iter_mut().for_each(|g| *g = rng.gen_range(-1.0..1.0));
            let x: Vec<f32> = (0..batch * in_dim)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            let gy: Vec<f32> = (0..batch * out_dim)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            for zeroed in [false, true] {
                if zeroed {
                    l0.zero_grad();
                }
                let mut want = l0.clone();
                let want_gx = backward_per_row(&mut want, &x, &gy, batch);
                for &backend in &backends {
                    for threads in [1, 2, 7] {
                        let shape = format!(
                            "{}: {batch}×{in_dim}→{out_dim}, width {threads}, zeroed {zeroed}",
                            backend.name()
                        );
                        let mut got = l0.clone();
                        let mut gx = Vec::new();
                        let prev = harl_simd::force_backend(Some(backend));
                        got.backward_batch(
                            &x,
                            &gy,
                            batch,
                            &ThreadPool::new(threads),
                            &mut scratch,
                            Some(&mut gx),
                        );
                        harl_simd::force_backend(prev);
                        assert_eq!(bits(&got.gw), bits(&want.gw), "gw, {shape}");
                        assert_eq!(bits(&got.gb), bits(&want.gb), "gb, {shape}");
                        assert_eq!(bits(&gx), bits(&want_gx), "gx, {shape}");
                    }
                }
            }
        }
        assert!(
            spawned.get() > spawned_before,
            "the two thin shapes must split across workers at width 2"
        );
    }

    #[test]
    fn a_second_backward_without_zero_grad_accumulates() {
        // `zero_grad` arms one direct write, not two: the second backward
        // must add to what the first left
        let mut rng = StdRng::seed_from_u64(78);
        let mut l = Linear::new(9, 5, &mut rng);
        let pool = ThreadPool::new(1);
        let mut scratch = GradScratch::default();
        let x: Vec<f32> = (0..27).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let gy: Vec<f32> = (0..15).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut want = l.clone();
        backward_per_row(&mut want, &x, &gy, 3);
        backward_per_row(&mut want, &x, &gy, 3);
        l.zero_grad();
        l.backward_batch(&x, &gy, 3, &pool, &mut scratch, None);
        l.backward_batch(&x, &gy, 3, &pool, &mut scratch, None);
        assert_eq!(bits(&l.gw), bits(&want.gw));
        assert_eq!(bits(&l.gb), bits(&want.gb));
    }

    #[test]
    fn a_strided_left_operand_equals_its_transposed_copy() {
        // `dW = gyᵀ·X` with `gy` read through strides against the product
        // over `transpose_into(gy)`, and a column range of a wider matrix
        // (one head's `gy` inside the fused gradient) against its gathered
        // copy, over the shapes of the backward comparison
        let mut rng = StdRng::seed_from_u64(79);
        for (batch, out_dim, in_dim) in backward_shapes() {
            let x: Vec<f32> = (0..batch * in_dim)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            let gy: Vec<f32> = (0..batch * out_dim)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            let bias: Vec<f32> = (0..in_dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut gyt = Vec::new();
            transpose_into(&gy, batch, out_dim, &mut gyt);
            // columns `first..` of `gy`, as `width` rows (dW) or as a
            // `batch × width` left operand (dX)
            let first = out_dim / 3;
            let width = out_dim - first;
            let gathered: Vec<f32> = gy
                .chunks_exact(out_dim)
                .flat_map(|row| row[first..].iter().copied())
                .collect();
            let w: Vec<f32> = (0..width * in_dim)
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect();
            for backend in supported_backends() {
                let shape = format!("{}: {batch}×{in_dim}→{out_dim}", backend.name());
                let prev = harl_simd::force_backend(Some(backend));
                let (mut want, mut got) = (Vec::new(), vec![0.0; out_dim * in_dim]);
                gemm_bias_into(&gyt, &x, &bias, out_dim, batch, in_dim, &mut want);
                let view = Strided::columns(&gy, out_dim);
                gemm_bias_strided(view, &x, &bias, out_dim, batch, in_dim, &mut got);
                assert_eq!(bits(&got), bits(&want), "all columns, {shape}");

                let rows = width * in_dim;
                got.truncate(rows);
                let view = Strided::columns(&gy, out_dim).from_row(first);
                gemm_bias_strided(view, &x, &bias, width, batch, in_dim, &mut got);
                assert_eq!(bits(&got), bits(&want[first * in_dim..]), "tail, {shape}");

                got.resize(batch * in_dim, 0.0);
                gemm_bias_into(&gathered, &w, &bias, batch, width, in_dim, &mut want);
                let view = Strided::rows(&gy, out_dim).from_k(first);
                gemm_bias_strided(view, &w, &bias, batch, width, in_dim, &mut got);
                harl_simd::force_backend(prev);
                assert_eq!(bits(&got), bits(&want), "column range, {shape}");
            }
        }
    }

    #[test]
    fn forward_follows_every_weight_update() {
        // the cached transpose must track `adam_step`, and a clone taken
        // after the cache was built must keep tracking its own updates
        let mut rng = StdRng::seed_from_u64(5);
        let mut l = Linear::new(7, 5, &mut rng);
        let pool = ThreadPool::new(1);
        let x: Vec<f32> = (0..14).map(|i| (i as f32 * 0.41).sin()).collect();
        let gy: Vec<f32> = (0..10).map(|i| (i as f32 * 0.29).cos()).collect();
        let fresh = |l: &Linear| {
            // an independent forward straight from the public weights
            let (mut wt, mut y) = (Vec::new(), Vec::new());
            transpose_into(&l.w, l.out_dim, l.in_dim, &mut wt);
            gemm_bias_into(&x, &wt, &l.b, 2, l.in_dim, l.out_dim, &mut y);
            bits(&y)
        };
        let cached = |l: &Linear| {
            let mut y = Vec::new();
            l.forward_batch_into(&x, 2, &mut y);
            bits(&y)
        };
        assert_eq!(cached(&l), fresh(&l));
        let mut twin = l.clone();
        for t in 1..=3 {
            for net in [&mut l, &mut twin] {
                net.zero_grad();
                net.backward_batch(&x, &gy, 2, &pool, &mut GradScratch::default(), None);
            }
            l.adam_step(0.05, t, 1.0);
            twin.adam_step(0.01, t, 1.0);
            assert_eq!(cached(&l), fresh(&l), "after update {t}");
            assert_eq!(cached(&twin), fresh(&twin), "clone, after update {t}");
            assert_ne!(cached(&l), cached(&twin), "the clone trains apart");
        }
    }

    #[test]
    fn adam_reduces_quadratic_loss() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut l = Linear::new(1, 1, &mut rng);
        let pool = ThreadPool::new(1);
        let mut scratch = GradScratch::default();
        // learn y = 2x: loss = (y - 2x)^2 on x=1
        let mut t = 0;
        for _ in 0..500 {
            let y = forward1(&l, &[1.0]);
            let err = y[0] - 2.0;
            l.zero_grad();
            l.backward_batch(&[1.0], &[2.0 * err], 1, &pool, &mut scratch, None);
            t += 1;
            l.adam_step(0.05, t, 1.0);
        }
        let y = forward1(&l, &[1.0]);
        assert!((y[0] - 2.0).abs() < 0.05, "converged to {}", y[0]);
    }

    #[test]
    fn tanh_backward_matches_derivative() {
        let mut y = vec![0.5f32, -0.25, 0.0];
        tanh_forward(&mut y);
        let mut g = vec![1.0f32; 3];
        tanh_backward(&y, &mut g);
        for (gi, yi) in g.iter().zip(&y) {
            assert!((gi - (1.0 - yi * yi)).abs() < 1e-6);
        }
    }
}
