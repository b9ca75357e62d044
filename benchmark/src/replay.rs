//! Unit-cost replay (source R): every schedule the traced repetition
//! measured is pushed through each layer's public function in isolation,
//! and a few fixed-shape kernels time the layers that see no schedules.
//! Synthetic inputs (matrices, states, rewards) are drawn from `--seed`.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use harl_repro::bandit::{Bandit, BanditKind};
use harl_repro::gbt::scoring::DEFAULT_CACHE_CAP;
use harl_repro::gbt::{CostModel, GbtParams, ScoringPipeline};
use harl_repro::ir::{extract_features_into, mutate, ActionSpace, FEATURE_DIM};
use harl_repro::nnet::gemm::{gemm_bias_into, transpose_into};
use harl_repro::nnet::{PpoAgent, PpoConfig, Transition};
use harl_repro::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::search::{Captured, THREADS};
use crate::served::{with_scratch, Ops};

/// Wall time each replayed layer is given; repeats fill it.
const SLICE_S: f64 = 0.05;
/// Schedules replayed per layer; more only repeats the same distribution.
const MAX_SCHEDULES: usize = 512;

/// Mean nanoseconds of one `f()` call over `SLICE_S` of repeats.
fn time_ns(mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    let mut calls = 0u64;
    while t.elapsed().as_secs_f64() < SLICE_S {
        f();
        calls += 1;
    }
    t.elapsed().as_secs_f64() * 1e9 / calls as f64
}

/// Unit costs that depend on the schedules a workload measured.
#[derive(Debug, Default)]
pub struct ScheduleCosts {
    pub lint_ns_per_schedule: f64,
    pub extract_ns_per_row: f64,
    pub predict_ns_per_row: f64,
    /// Per candidate, every one a miss, on an empty cache.
    pub pipeline_miss_ns: f64,
    /// Per candidate, every one a miss, with the cache at capacity, where
    /// each insert first has to find an entry to evict.
    pub pipeline_full_miss_ns: f64,
    pub pipeline_hit_ns: f64,
    pub retrain_ms_at_1k: f64,
    pub sketch_gen_us: f64,
    pub mutate_ns: f64,
    pub measure_ns_per_trial: f64,
}

impl ScheduleCosts {
    /// Adds `weight × other` to every cost: the mean over a workload's legs,
    /// weighted by the schedules each leg measured.
    pub fn add_weighted(&mut self, other: &ScheduleCosts, weight: f64) {
        let pairs = [
            (&mut self.lint_ns_per_schedule, other.lint_ns_per_schedule),
            (&mut self.extract_ns_per_row, other.extract_ns_per_row),
            (&mut self.predict_ns_per_row, other.predict_ns_per_row),
            (&mut self.pipeline_miss_ns, other.pipeline_miss_ns),
            (&mut self.pipeline_full_miss_ns, other.pipeline_full_miss_ns),
            (&mut self.pipeline_hit_ns, other.pipeline_hit_ns),
            (&mut self.retrain_ms_at_1k, other.retrain_ms_at_1k),
            (&mut self.sketch_gen_us, other.sketch_gen_us),
            (&mut self.mutate_ns, other.mutate_ns),
            (&mut self.measure_ns_per_trial, other.measure_ns_per_trial),
        ];
        for (mine, theirs) in pairs {
            *mine += weight * theirs;
        }
    }
}

/// Replays `captured` (indices into `graphs`) through lint, feature
/// extraction, the cost model, the scoring pipeline, mutation and the
/// simulator, each alone.
pub fn schedule_costs(
    graphs: &[Subgraph],
    captured: &[Captured],
    gbt: &GbtParams,
    seed: u64,
) -> ScheduleCosts {
    if captured.is_empty() {
        return ScheduleCosts::default();
    }
    let hw = Hardware::cpu();
    let target = hw.target();
    let sketches: Vec<Vec<Sketch>> = graphs
        .iter()
        .map(|g| generate_sketches(g, target))
        .collect();
    // an even stride keeps early and late schedules of every task
    let stride = captured.len().div_ceil(MAX_SCHEDULES);
    let items: Vec<(&Subgraph, &Sketch, &Schedule)> = captured
        .iter()
        .step_by(stride)
        .map(|(g, s)| (&graphs[*g], &sketches[*g][s.sketch_id], s))
        .collect();
    let n = items.len() as f64;
    let mut c = ScheduleCosts::default();

    let analyzer = Analyzer::for_hardware(&hw);
    c.lint_ns_per_schedule = time_ns(|| {
        for (g, sk, s) in &items {
            black_box(analyzer.analyze(g, sk, target, s));
        }
    }) / n;

    let mut row = Vec::new();
    c.extract_ns_per_row = time_ns(|| {
        for (g, sk, s) in &items {
            extract_features_into(g, sk, target, s, &mut row);
            black_box(&row);
        }
    }) / n;

    // a cost model fitted to these schedules' simulated throughput
    let measurer = Measurer::new(hw.clone(), MeasureConfig::default());
    let rows: Vec<(Vec<f32>, f64)> = items
        .iter()
        .map(|(g, sk, s)| {
            extract_features_into(g, sk, target, s, &mut row);
            (row.clone(), g.flops() / measurer.true_time(g, sk, s))
        })
        .collect();
    let mut model = CostModel::new(gbt.clone());
    model.update_batch(rows.iter().cloned());
    let features: Vec<&[f32]> = rows.iter().map(|(f, _)| f.as_slice()).collect();
    let mut scores = Vec::new();
    c.predict_ns_per_row = time_ns(|| {
        model.score_batch_into(&features, &mut scores);
        black_box(&scores);
    }) / n;

    let mut pipeline = ScoringPipeline::new(THREADS, DEFAULT_CACHE_CAP);
    let fingerprint = |it: &(&Subgraph, &Sketch, &Schedule)| it.2.fingerprint();
    let extract = |it: &(&Subgraph, &Sketch, &Schedule), buf: &mut Vec<f32>| {
        extract_features_into(it.0, it.1, target, it.2, buf)
    };
    c.pipeline_miss_ns = time_ns(|| {
        pipeline.begin_episode();
        pipeline.score_into(&model, &items, fingerprint, extract, &mut scores);
    }) / n;
    c.pipeline_hit_ns = time_ns(|| {
        pipeline.score_into(&model, &items, fingerprint, extract, &mut scores);
    }) / n;
    // a fresh salt per pass makes every key new; after the filling passes
    // the cache stays at capacity
    let salt = std::cell::Cell::new(0u64);
    let mut salted_pass = || {
        salt.set(salt.get().wrapping_add(0x9e37_79b9_7f4a_7c15));
        let fingerprint = |it: &(&Subgraph, &Sketch, &Schedule)| it.2.fingerprint() ^ salt.get();
        pipeline.score_into(&model, &items, fingerprint, extract, &mut scores);
    };
    for _ in 0..DEFAULT_CACHE_CAP.div_ceil(items.len()) {
        salted_pass();
    }
    c.pipeline_full_miss_ns = time_ns(salted_pass) / n;

    let thousand: Vec<(Vec<f32>, f64)> = rows.iter().cycle().take(1000).cloned().collect();
    let t = Instant::now();
    let mut fresh = CostModel::new(gbt.clone());
    fresh.update_batch(thousand);
    c.retrain_ms_at_1k = t.elapsed().as_secs_f64() * 1e3;
    black_box(&fresh);

    c.sketch_gen_us = time_ns(|| {
        for g in graphs {
            black_box(generate_sketches(g, target));
        }
    }) / graphs.len() as f64
        / 1e3;

    let mut rng = StdRng::seed_from_u64(seed);
    c.mutate_ns = time_ns(|| {
        for (_, sk, s) in &items {
            black_box(mutate(sk, target, s, &mut rng));
        }
    }) / n;

    c.measure_ns_per_trial = time_ns(|| {
        for (g, sk, s) in &items {
            black_box(measurer.measure(g, sk, s));
        }
    }) / n;
    c
}

/// Unit costs of the layers that never see a schedule; fixed shapes.
#[derive(Debug, Default)]
pub struct KernelCosts {
    pub act_batch_us: f64,
    pub train_minibatch_us: f64,
    pub gemm_gflops: f64,
    pub map_overhead_us: f64,
    pub bandit_select_update_ns: f64,
    pub scalar_gemm_ms: f64,
}

pub fn kernel_costs(seed: u64) -> KernelCosts {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b65_726e);
    let mut k = KernelCosts::default();

    // the policy of a GEMM sketch at the width the tuners run
    let gemm = harl_repro::ir::workload::gemm(1024, 1024, 1024);
    let sketch = generate_sketches(&gemm, Target::Cpu).swap_remove(0);
    let heads = [ActionSpace::of(&sketch).tile_actions(), 3, 3, 3];
    let cfg = PpoConfig::default();
    let minibatch = cfg.minibatch;
    let mut agent = PpoAgent::new(FEATURE_DIM, &heads, cfg, &mut rng);
    agent.set_threads(THREADS);
    const ROWS: usize = 64;
    let states: Vec<f32> = (0..ROWS * FEATURE_DIM).map(|_| rng.gen::<f32>()).collect();
    let masks = vec![vec![Vec::new(); heads.len()]; ROWS];
    k.act_batch_us = time_ns(|| {
        black_box(agent.act_batch(&states, ROWS, &masks, 8, &mut rng));
    }) / 1e3;

    let batch: Vec<Transition> = (0..minibatch)
        .map(|i| Transition {
            state: states[(i % ROWS) * FEATURE_DIM..(i % ROWS + 1) * FEATURE_DIM].to_vec(),
            actions: heads.iter().map(|&h| rng.gen_range(0..h)).collect(),
            logp: -2.0,
            reward: rng.gen::<f32>() - 0.5,
            advantage: rng.gen::<f32>() - 0.5,
            value_target: rng.gen::<f32>(),
            masks: vec![Vec::new(); heads.len()],
        })
        .collect();
    k.train_minibatch_us = time_ns(|| {
        black_box(agent.train_minibatch(&batch));
    }) / 1e3;

    let (m, kk, n) = (64usize, 256usize, 256usize);
    let x: Vec<f32> = (0..m * kk).map(|_| rng.gen::<f32>()).collect();
    let w: Vec<f32> = (0..n * kk).map(|_| rng.gen::<f32>()).collect();
    let bias = vec![0.1f32; n];
    let mut wt = Vec::new();
    transpose_into(&w, n, kk, &mut wt);
    let mut y = Vec::new();
    let ns = time_ns(|| {
        gemm_bias_into(&x, &wt, &bias, m, kk, n, &mut y);
        black_box(&y);
    });
    k.gemm_gflops = (2 * m * kk * n) as f64 / ns;

    let pool = harl_par::ThreadPool::new(THREADS);
    k.map_overhead_us = time_ns(|| {
        black_box(pool.map_range(128, |i| i));
    }) / 1e3;

    let mut bandit = BanditKind::paper_default().build(8);
    k.bandit_select_update_ns = time_ns(|| {
        let arm = bandit.select(&mut rng);
        bandit.update(arm, rng.gen::<f64>());
    });

    let mut cal = crate::calib::Calibrator::new();
    cal.burst();
    k.scalar_gemm_ms = cal.mean_ms();
    k
}

/// Store unit costs over the records a store-backed session wrote.
#[derive(Debug, Default)]
pub struct StoreCosts {
    pub append_us_per_record: f64,
    pub open_ms_per_1k_records: f64,
    pub bytes_per_trial: f64,
}

pub fn store_costs(
    dir: &Path,
    records: &[MeasureRecord],
    ops: &mut Ops,
) -> Result<StoreCosts, String> {
    if records.is_empty() {
        return Ok(StoreCosts::default());
    }
    with_scratch(dir, |root| {
        let n = records.len() as f64;
        let store = ops.call("store open", RecordStore::open(root))?;
        let t = Instant::now();
        for r in records {
            ops.call("store append", store.append(r.clone()))?;
        }
        let append_us_per_record = t.elapsed().as_secs_f64() * 1e6 / n;
        drop(store);
        let bytes = ops.call("store stat", std::fs::metadata(root.join("records.jsonl")))?;
        let t = Instant::now();
        let reopened = ops.call("store reopen", RecordStore::open(root))?;
        let open_ms = t.elapsed().as_secs_f64() * 1e3;
        ops.check(
            "reopened store holds every record",
            reopened.len() == records.len(),
        );
        Ok(StoreCosts {
            append_us_per_record,
            open_ms_per_1k_records: open_ms * 1000.0 / n,
            bytes_per_trial: bytes.len() as f64 / n,
        })
    })
}
