//! Batched-PPO benchmark: the seed's per-sample scalar forward/backward
//! loops vs the batch-major GEMM path behind `ppo_act` and `Ppo::train`.
//!
//! The workload mirrors the tuners' inner loops at paper shapes: a policy
//! (trunk `FEATURE_DIM → 64 → 64` + tanh + heads `[101, 3, 3, 3]`) scores
//! all live tracks of an episode step in one matrix-matrix pass, and a
//! critic (`FEATURE_DIM → 64 → 64 → 1`) runs a 64-sample training
//! minibatch forward + backward with the gradient reduction on the
//! `HARL_PPO_THREADS`-style pool. The serial reference reimplements the
//! seed's scalar per-sample loops (o-major dot products, per-sample
//! gradient accumulation) over the exact same weights and inputs.
//!
//! Both paths must produce bit-identical logits, values, and gradients —
//! the benchmark asserts it before timing anything. Results land in
//! `BENCH_ppo.json`.
//!
//! `HARL_BENCH_SMOKE=1` shrinks the workload for CI smoke runs;
//! `HARL_BENCH_REPS` raises the rep count (the bench-regression gate
//! does); `HARL_BENCH_OUT` redirects the JSON report.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use harl_nnet::{Linear, Mlp, Workspace};
use harl_par::ThreadPool;
use harl_tensor_ir::FEATURE_DIM;

const HIDDEN: usize = 64;
const HEADS: [usize; 4] = [101, 3, 3, 3];
const MINIBATCH: usize = 64;

struct Workload {
    /// Live tracks per episode step (rows of the `ppo_act` batch).
    tracks: usize,
    /// Episode steps per rep (each is one policy pass over all tracks).
    steps: usize,
    /// Training minibatch passes per rep (each is critic forward+backward).
    epochs: usize,
    reps: usize,
}

#[derive(Serialize)]
struct Report {
    tracks: usize,
    steps: usize,
    epochs: usize,
    minibatch: usize,
    threads: usize,
    serial_ms: f64,
    batched_ms: f64,
    speedup: f64,
    bit_identical: bool,
    smoke: bool,
}

/// The seed's per-sample dense layer: `y[o] = b[o] + Σ_i w[o][i]·x[i]`,
/// o-major, ascending i — the addition chain the GEMM kernel reproduces.
#[allow(clippy::needless_range_loop)] // index loops mirror the seed's exact order
fn scalar_linear(l: &Linear, x: &[f32], y: &mut [f32]) {
    let out = l.b.len();
    let ind = l.w.len() / out;
    for o in 0..out {
        let mut acc = l.b[o];
        for (wv, xv) in l.w[o * ind..(o + 1) * ind].iter().zip(x) {
            acc += wv * xv;
        }
        y[o] = acc;
    }
}

/// Seed-style per-sample MLP forward; fills `acts` with every layer's
/// post-activation output (tanh on hidden layers, linear final layer).
fn scalar_mlp_forward(m: &Mlp, x: &[f32], acts: &mut Vec<Vec<f32>>) {
    acts.clear();
    for (li, l) in m.layers.iter().enumerate() {
        let mut y = vec![0.0f32; l.b.len()];
        {
            let inp: &[f32] = if li == 0 { x } else { &acts[li - 1] };
            scalar_linear(l, inp, &mut y);
        }
        if li + 1 < m.layers.len() {
            for v in y.iter_mut() {
                *v = v.tanh();
            }
        }
        acts.push(y);
    }
}

/// Seed-style per-sample MLP backward: accumulates into `gw`/`gb` and
/// chains `gx` layer to layer, in the exact order `backward_batch`
/// reproduces per output row (ascending samples, ascending o).
#[allow(clippy::needless_range_loop)] // index loops mirror the seed's exact order
fn scalar_mlp_backward(m: &mut Mlp, x: &[f32], acts: &[Vec<f32>], grad_out: &[f32]) {
    let mut gy = grad_out.to_vec();
    for li in (0..m.layers.len()).rev() {
        if li + 1 < m.layers.len() {
            for (g, a) in gy.iter_mut().zip(&acts[li]) {
                *g *= 1.0 - a * a;
            }
        }
        let inp: &[f32] = if li == 0 { x } else { &acts[li - 1] };
        let l = &mut m.layers[li];
        let out = l.b.len();
        let ind = l.w.len() / out;
        let mut gx = vec![0.0f32; ind];
        for o in 0..out {
            let g = gy[o];
            l.gb[o] += g;
            for i in 0..ind {
                l.gw[o * ind + i] += g * inp[i];
            }
            for i in 0..ind {
                gx[i] += l.w[o * ind + i] * g;
            }
        }
        gy = gx;
    }
}

#[derive(Clone)]
struct Nets {
    trunk: Mlp,
    heads: Vec<Linear>,
    critic: Mlp,
}

fn nets(rng: &mut StdRng) -> Nets {
    Nets {
        trunk: Mlp::new(&[FEATURE_DIM, HIDDEN, HIDDEN], rng),
        heads: HEADS.iter().map(|&h| Linear::new(HIDDEN, h, rng)).collect(),
        critic: Mlp::new(&[FEATURE_DIM, HIDDEN, HIDDEN, 1], rng),
    }
}

/// Per-sample scalar pass over every step and epoch (the seed's shape of
/// `ppo_act` + critic training). Returns (logits, values, critic grads)
/// for the bit-identity check.
fn run_serial(
    n: &mut Nets,
    act_steps: &[Vec<f32>],
    train_x: &[f32],
    targets: &[f32],
    epochs: usize,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let mut logits = Vec::new();
    let mut acts = Vec::new();
    for step in act_steps {
        for x in step.chunks(FEATURE_DIM) {
            scalar_mlp_forward(&n.trunk, x, &mut acts);
            let mut trunk_out = acts.last().expect("trunk has layers").clone();
            for v in trunk_out.iter_mut() {
                *v = v.tanh();
            }
            for h in &n.heads {
                let mut y = vec![0.0f32; h.b.len()];
                scalar_linear(h, &trunk_out, &mut y);
                logits.extend_from_slice(&y);
            }
        }
    }
    let mut values = Vec::new();
    for _ in 0..epochs {
        n.critic.zero_grad();
        values.clear();
        let inv = 1.0f32 / MINIBATCH as f32;
        for (s, x) in train_x.chunks(FEATURE_DIM).enumerate() {
            scalar_mlp_forward(&n.critic, x, &mut acts);
            let v = acts.last().expect("critic has layers")[0];
            values.push(v);
            let g = 2.0 * (v - targets[s]) * inv;
            scalar_mlp_backward(&mut n.critic, x, &acts, &[g]);
        }
    }
    let grads: Vec<f32> = n
        .critic
        .layers
        .iter()
        .flat_map(|l| l.gw.iter().chain(l.gb.iter()).copied())
        .collect();
    (logits, values, grads)
}

/// The batch-major path: one GEMM pass per step over all tracks, one
/// batched forward + pool-reduced backward per training epoch.
fn run_batched(
    n: &mut Nets,
    act_steps: &[Vec<f32>],
    train_x: &[f32],
    targets: &[f32],
    epochs: usize,
    tracks: usize,
    pool: &ThreadPool,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let mut logits = Vec::new();
    let mut ws = Workspace::new();
    let mut head_y = Vec::new();
    let mut trunk_out = Vec::new();
    for step in act_steps {
        let out = n.trunk.forward_batch(step, tracks, &mut ws);
        trunk_out.clear();
        trunk_out.extend_from_slice(out);
        for v in trunk_out.iter_mut() {
            *v = v.tanh();
        }
        for h in &n.heads {
            h.forward_batch_into(&trunk_out, tracks, &mut head_y);
            logits.push((h.b.len(), head_y.clone()));
        }
    }
    // re-shuffle head-major step output into the serial row-major order
    let mut flat = Vec::new();
    for chunk in logits.chunks(HEADS.len()) {
        for b in 0..tracks {
            for (hs, y) in chunk {
                flat.extend_from_slice(&y[b * hs..(b + 1) * hs]);
            }
        }
    }
    let mut values = Vec::new();
    let mut grad = vec![0.0f32; MINIBATCH];
    for _ in 0..epochs {
        n.critic.zero_grad();
        let out = n.critic.forward_batch(train_x, MINIBATCH, &mut ws);
        values.clear();
        values.extend_from_slice(out);
        let inv = 1.0f32 / MINIBATCH as f32;
        for s in 0..MINIBATCH {
            grad[s] = 2.0 * (values[s] - targets[s]) * inv;
        }
        n.critic.backward_batch(&grad, &mut ws, pool, None);
    }
    let grads: Vec<f32> = n
        .critic
        .layers
        .iter()
        .flat_map(|l| l.gw.iter().chain(l.gb.iter()).copied())
        .collect();
    (flat, values, grads)
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

fn main() {
    let smoke = std::env::var("HARL_BENCH_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false);
    let mut wl = if smoke {
        Workload {
            tracks: 8,
            steps: 3,
            epochs: 2,
            reps: 2,
        }
    } else {
        Workload {
            tracks: 64,
            steps: 24,
            epochs: 16,
            reps: 5,
        }
    };
    if let Ok(reps) = std::env::var("HARL_BENCH_REPS") {
        if let Ok(r) = reps.trim().parse::<usize>() {
            wl.reps = r.max(1);
        }
    }
    let threads = 4;
    let pool = ThreadPool::new(threads);

    let mut rng = StdRng::seed_from_u64(42);
    let mut net_a = nets(&mut rng);
    let mut net_b = net_a.clone();
    let act_steps: Vec<Vec<f32>> = (0..wl.steps)
        .map(|_| {
            (0..wl.tracks * FEATURE_DIM)
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect()
        })
        .collect();
    let train_x: Vec<f32> = (0..MINIBATCH * FEATURE_DIM)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    let targets: Vec<f32> = (0..MINIBATCH)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();

    // warm-up + bit-identity check outside the timed region
    let serial = run_serial(&mut net_a, &act_steps, &train_x, &targets, wl.epochs);
    let batched = run_batched(
        &mut net_b, &act_steps, &train_x, &targets, wl.epochs, wl.tracks, &pool,
    );
    let bit_identical = bits_equal(&serial.0, &batched.0)
        && bits_equal(&serial.1, &batched.1)
        && bits_equal(&serial.2, &batched.2);
    assert!(
        bit_identical,
        "batched PPO math must be bit-identical to the per-sample path"
    );

    let mut serial_samples = Vec::with_capacity(wl.reps);
    for _ in 0..wl.reps {
        let t = Instant::now();
        let r = run_serial(&mut net_a, &act_steps, &train_x, &targets, wl.epochs);
        serial_samples.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(r);
    }
    let mut batched_samples = Vec::with_capacity(wl.reps);
    for _ in 0..wl.reps {
        let t = Instant::now();
        let r = run_batched(
            &mut net_b, &act_steps, &train_x, &targets, wl.epochs, wl.tracks, &pool,
        );
        batched_samples.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(r);
    }

    let serial_ms = median_ms(serial_samples);
    let batched_ms = median_ms(batched_samples);
    let speedup = serial_ms / batched_ms;
    println!(
        "ppo_serial_t{}x{}s_e{} time: [{serial_ms:.3} ms]",
        wl.tracks, wl.steps, wl.epochs
    );
    println!(
        "ppo_batched_t{}x{}s_e{}_p{threads} time: [{batched_ms:.3} ms]",
        wl.tracks, wl.steps, wl.epochs
    );
    println!("ppo speedup: {speedup:.2}x (bit-identical)");

    let report = Report {
        tracks: wl.tracks,
        steps: wl.steps,
        epochs: wl.epochs,
        minibatch: MINIBATCH,
        threads,
        serial_ms,
        batched_ms,
        speedup,
        bit_identical,
        smoke,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let path = match std::env::var("HARL_BENCH_OUT") {
        Ok(p) => std::path::PathBuf::from(p),
        Err(_) => std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_ppo.json"),
    };
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}
