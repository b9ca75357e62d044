//! Bit-determinism of the batched stages.
//!
//! The scoring pipeline (fingerprint, cache, extract, batch-predict) and
//! the batched `ppo_act` matrix pass over all live tracks must come out
//! bit-equal to the seed's per-candidate loops, and the cache must really
//! engage. The runtime-dispatched SIMD backends (`harl-simd`) are the
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
    // the determinism above must not come from the cache never engaging:
    // a real run has to show both batches and hits
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
    assert!(stats.scored > 0);
    assert_eq!(stats.scored, stats.cache_hits + stats.cache_misses);
    assert!(
        stats.cache_hits > 0,
        "episodes revisit candidates: {stats:?}"
    );
}

#[test]
fn score_stats_match_golden_counts() {
    // Best-latency bits cannot see the cache's eviction order (a score is
    // the same on a hit or a miss); the hit/miss split can. Recorded at
    // the last commit with the tick-scanned cache (64c4e83): any
    // replacement must evict the same entries. HARL/fast visits 7744
    // candidates per episode against 4096 slots, so both rounds run the
    // cache full; the Ansor run never fills it (no-eviction control).
    // Columns: scored, cache_hits, cache_misses, features_cached.
    const HARL_GOLDEN: [u64; 4] = [15488, 1044, 14444, 14444];
    const ANSOR_GOLDEN: [u64; 4] = [1280, 188, 1092, 1092];
    let counts = |s: &harl_repro::gbt::ScoreStats| {
        [s.scored, s.cache_hits, s.cache_misses, s.features_cached]
    };
    let m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let big = harl_repro::ir::workload::gemm(1024, 1024, 1024);
    let mut t = HarlOperatorTuner::new(big, &m, HarlConfig::fast());
    t.tune(32);
    assert_eq!(counts(t.score_stats()), HARL_GOLDEN, "HARL");

    let m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let mut a = AnsorTuner::new(gemm(), &m, AnsorConfig::default());
    a.tune(64);
    assert_eq!(counts(a.score_stats()), ANSOR_GOLDEN, "Ansor");
}
