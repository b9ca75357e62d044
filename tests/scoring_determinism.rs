//! Bit-determinism of the batched stages.
//!
//! The scoring pipeline (extract, batch-predict) and the batched
//! `ppo_act` matrix pass over all live tracks must come out bit-equal to
//! the seed's per-candidate loops, and a run must really score. The runtime-dispatched SIMD backends (`harl-simd`) are the
//! other axis: scalar-forced, every supported vector backend, and
//! auto-dispatched runs must all be bit-equal, and a checkpoint written
//! under one backend must resume bit-equal under another.

use std::sync::Arc;

use harl_repro::ansor::AnsorTuner;
use harl_repro::harl::HarlOperatorTuner;
use harl_repro::prelude::*;

fn gemm() -> Subgraph {
    harl_repro::ir::workload::gemm(256, 256, 256)
}

fn temp_store(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("harl-det-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// (best_time bits, trials, trace JSON, checkpoint JSON) of a HARL run.
fn harl_run(trials: u64) -> (u64, u64, String, String) {
    let m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let mut t = HarlOperatorTuner::new(gemm(), &m, HarlConfig::tiny());
    {
        let mut s = TuningSession::builder()
            .launch(Box::new(&mut t), &m, None)
            .unwrap();
        s.run(trials).unwrap();
    }
    (
        t.best_time.to_bits(),
        t.trials_used,
        serde_json::to_string(&t.trace).unwrap(),
        serde_json::to_string(&t.checkpoint_state()).unwrap(),
    )
}

fn ansor_run(trials: u64) -> (u64, u64, String, String) {
    let m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let mut t = AnsorTuner::new(gemm(), &m, AnsorConfig::default());
    {
        let mut s = TuningSession::builder()
            .launch(Box::new(&mut t), &m, None)
            .unwrap();
        s.run(trials).unwrap();
    }
    (
        t.best_time.to_bits(),
        t.trials_used,
        serde_json::to_string(&t.trace).unwrap(),
        serde_json::to_string(&t.checkpoint_state()).unwrap(),
    )
}

/// Serializes the tests that flip the process-wide forced SIMD backend.
/// (Flipping mid-run is harmless for the *other* tests in this binary —
/// every backend is bit-identical, which is exactly what this file pins —
/// but the matrix tests need each phase to really run the backend it
/// names.)
fn force_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Restores auto dispatch even if the test panics.
struct RestoreDispatch;
impl Drop for RestoreDispatch {
    fn drop(&mut self) {
        harl_simd::force_backend(None);
    }
}

#[test]
fn full_runs_are_bit_identical_across_simd_backends() {
    // The PR-9 kernel-dispatch invariant end-to-end: a full HARL run and
    // a full Ansor run forced onto the scalar reference kernels must be
    // bit-equal — best latency, trace bytes, checkpoint bytes — to the
    // same runs forced onto every vector backend this host supports, and
    // to the auto-dispatched run (HARL_SIMD unset → best supported).
    use harl_simd::Backend;
    let _serialize = force_lock();
    let _restore = RestoreDispatch;

    harl_simd::force_backend(Some(Backend::Scalar));
    let harl_ref = harl_run(32);
    let ansor_ref = ansor_run(24);

    let mut cases: Vec<(&str, Option<Backend>)> = Backend::ALL
        .into_iter()
        .filter(|b| b.is_supported() && *b != Backend::Scalar)
        .map(|b| (b.name(), Some(b)))
        .collect();
    cases.push(("auto", None));

    for (name, force) in cases {
        harl_simd::force_backend(force);
        let harl = harl_run(32);
        assert_eq!(harl_ref.0, harl.0, "{name}: HARL best latency bits");
        assert_eq!(harl_ref.1, harl.1, "{name}: HARL trial count");
        assert_eq!(harl_ref.2, harl.2, "{name}: HARL trace bytes");
        assert_eq!(harl_ref.3, harl.3, "{name}: HARL checkpoint bytes");
        let ansor = ansor_run(24);
        assert_eq!(ansor_ref.0, ansor.0, "{name}: Ansor best latency bits");
        assert_eq!(ansor_ref.1, ansor.1, "{name}: Ansor trial count");
        assert_eq!(ansor_ref.2, ansor.2, "{name}: Ansor trace bytes");
        assert_eq!(ansor_ref.3, ansor.3, "{name}: Ansor checkpoint bytes");
    }
}

#[test]
fn killed_session_resumes_bit_equal_across_backend_flip() {
    // A checkpoint written under the scalar kernels and resumed under the
    // auto-dispatched vector backend (the "crashed on an old box, resumed
    // on an AVX2 box" scenario) must land bit-equal to an uninterrupted
    // auto-dispatched run.
    use harl_simd::Backend;
    let _serialize = force_lock();
    let _restore = RestoreDispatch;
    let dir = temp_store("backend-resume");

    harl_simd::force_backend(None);
    let m_ref = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let mut t_ref = HarlOperatorTuner::new(gemm(), &m_ref, HarlConfig::tiny());
    {
        let mut s = TuningSession::builder()
            .launch(Box::new(&mut t_ref), &m_ref, None)
            .unwrap();
        s.run(48).unwrap();
    }

    harl_simd::force_backend(Some(Backend::Scalar));
    let store = Arc::new(RecordStore::open(&dir).unwrap());
    let m1 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let mut t1 = HarlOperatorTuner::new(gemm(), &m1, HarlConfig::tiny());
    {
        let mut s = TuningSession::builder()
            .launch(Box::new(&mut t1), &m1, Some(store.clone()))
            .unwrap();
        s.run(24).unwrap();
        // no finish(): checkpoint stays, as after a crash
    }
    drop(store);

    harl_simd::force_backend(None);
    let store2 = Arc::new(RecordStore::open(&dir).unwrap());
    let m2 = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let mut t2 = HarlOperatorTuner::new(gemm(), &m2, HarlConfig::tiny());
    {
        let mut s = TuningSession::builder()
            .launch(Box::new(&mut t2), &m2, Some(store2))
            .unwrap();
        assert!(s.resumed(), "checkpoint must be picked up");
        s.run(24).unwrap();
    }

    assert_eq!(
        t2.best_time.to_bits(),
        t_ref.best_time.to_bits(),
        "scalar-kill / dispatched-resume must match the uninterrupted run"
    );
    assert_eq!(t2.trials_used, t_ref.trials_used);
    assert_eq!(m2.trials(), m_ref.trials());
    assert_eq!(m2.sim_seconds().to_bits(), m_ref.sim_seconds().to_bits());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batched_ppo_act_matches_per_sample_act() {
    // The episode loop batches all live tracks into one `act_batch`
    // matrix pass. This pins, through the public facade, that the batch
    // pass consumes the RNG stream and produces the (actions, logp)
    // pairs of the seed's per-track `act` loop — bit-for-bit, including
    // rows with empty masks.
    use harl_repro::nnet::PpoAgent;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let heads = [11usize, 3, 3, 3];
    let dim = harl_repro::ir::FEATURE_DIM;
    let mut rng_init = StdRng::seed_from_u64(7);
    let agent = PpoAgent::new(dim, &heads, Default::default(), &mut rng_init);

    let batch = 5;
    let samples = 3;
    let mut states = vec![0.0f32; batch * dim];
    for (i, v) in states.iter_mut().enumerate() {
        *v = ((i * 37 % 101) as f32) / 101.0 - 0.5;
    }
    let masks: Vec<Vec<Vec<bool>>> = (0..batch)
        .map(|b| {
            heads
                .iter()
                .map(|&h| (0..h).map(|a| (a + b) % 3 != 0 || a == 1).collect())
                .collect()
        })
        .collect();

    let mut rng_a = StdRng::seed_from_u64(12345);
    let mut rng_b = StdRng::seed_from_u64(12345);

    let mut batched_agent = agent.clone();
    let batched = batched_agent.act_batch(&states, batch, &masks, samples, &mut rng_a);

    let mut serial_agent = agent.clone();
    for b in 0..batch {
        for (s, draw) in batched[b].iter().enumerate().take(samples) {
            let (actions, logp) =
                serial_agent.act(&states[b * dim..(b + 1) * dim], &masks[b], &mut rng_b);
            assert_eq!(draw.0, actions, "row {b} draw {s}: actions");
            assert_eq!(
                draw.1.to_bits(),
                logp.to_bits(),
                "row {b} draw {s}: logp must match bit-for-bit"
            );
        }
    }
    // both paths must have consumed the identical RNG stream
    assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>());
}

#[test]
fn scoring_pool_reports_cache_traffic() {
    // the determinism above must come from runs that really score: a real
    // run has to show batches and candidates
    let m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let mut t = HarlOperatorTuner::new(gemm(), &m, HarlConfig::tiny());
    {
        let mut s = TuningSession::builder()
            .launch(Box::new(&mut t), &m, None)
            .unwrap();
        s.run(32).unwrap();
    }
    let stats = *t.score_stats();
    assert!(stats.batch_count > 0, "pipeline must have run batches");
    assert!(stats.scored > 0, "{stats:?}");
}

#[test]
fn score_stats_match_golden_counts() {
    // How many candidates each searcher scores is part of its behaviour;
    // these counts were recorded with the old feature cache in front of
    // the pipeline, and deleting it did not move them.
    const HARL_SCORED: u64 = 15488;
    const ANSOR_SCORED: u64 = 1280;
    let m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let big = harl_repro::ir::workload::gemm(1024, 1024, 1024);
    let mut t = HarlOperatorTuner::new(big, &m, HarlConfig::fast());
    t.tune(32);
    assert_eq!(t.score_stats().scored, HARL_SCORED, "HARL");

    let m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let mut a = AnsorTuner::new(gemm(), &m, AnsorConfig::default());
    a.tune(64);
    assert_eq!(a.score_stats().scored, ANSOR_SCORED, "Ansor");
}

#[test]
fn a_repeated_candidate_scores_what_it_scores_alone() {
    // Nothing is remembered between candidates: one met twice inside a
    // batch and again in a later batch is extracted and predicted each
    // time, at a different lane position of the tree kernel each time, and
    // every occurrence must carry the bits of scoring it alone.
    use harl_repro::gbt::{CostModel, ScoringPipeline};
    use harl_repro::ir::FeaturePlan;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let bits = |row: &[f32]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let g = gemm();
    let target = Target::Cpu;
    let sk = &generate_sketches(&g, target)[0];
    let plan = FeaturePlan::new(&g, sk, target);
    let extract = |s: &Schedule, buf: &mut Vec<f32>| plan.extract_into(s, buf);
    let mut rng = StdRng::seed_from_u64(0x5c0e);
    let mut cost = CostModel::new(HarlConfig::tiny().gbt);
    cost.update_batch((0..64).map(|i| {
        let mut row = Vec::new();
        extract(&Schedule::random(sk, target, &mut rng), &mut row);
        (row, 1e9 * (1 + i % 7) as f64)
    }));
    let alone = |s: &Schedule| {
        let mut row = Vec::new();
        extract(s, &mut row);
        let mut out = Vec::new();
        cost.score_batch_into(&[row.as_slice()], &mut out);
        (bits(&row), out[0].to_bits())
    };

    let twice = Schedule::random(sk, target, &mut rng);
    let others: Vec<Schedule> = (0..20)
        .map(|_| Schedule::random(sk, target, &mut rng))
        .collect();
    let mut first = others[..5].to_vec();
    first.push(twice.clone());
    first.extend_from_slice(&others[5..13]);
    first.push(twice.clone());
    first.extend_from_slice(&others[13..17]);
    let mut later = others[17..].to_vec();
    later.push(twice);

    let mut pipe = ScoringPipeline::default();
    let mut scores = Vec::new();
    for batch in [&first, &later] {
        pipe.score(&cost, batch, extract, &mut scores);
        assert_eq!(scores.len(), batch.len());
        for (i, s) in batch.iter().enumerate() {
            let (row, score) = alone(s);
            assert_eq!(bits(pipe.row(i)), row, "row {i}");
            assert_eq!(scores[i].to_bits(), score, "score {i}");
        }
    }
    assert_eq!(pipe.stats().scored, (first.len() + later.len()) as u64);
}
