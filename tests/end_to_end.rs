//! Cross-crate integration tests: the full tuning pipelines exercised
//! through the public API.

use harl_repro::prelude::*;

fn small_harl() -> HarlConfig {
    HarlConfig {
        measure_per_round: 8,
        ..HarlConfig::tiny()
    }
}

fn small_ansor() -> AnsorConfig {
    AnsorConfig {
        measure_per_round: 8,
        ..Default::default()
    }
}

#[test]
fn harl_improves_gemm_over_first_round() {
    let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let g = harl_repro::ir::workload::gemm(512, 512, 512);
    let mut t = HarlOperatorTuner::new(g, &measurer, small_harl());
    t.round(8);
    let first = t.best_time;
    t.tune(96);
    assert!(
        t.best_time < first,
        "HARL must improve: {first} → {}",
        t.best_time
    );
}

#[test]
fn both_tuners_find_reasonable_gemm_schedules() {
    // both tuners should comfortably beat the median random schedule
    let g = harl_repro::ir::workload::gemm(512, 512, 512);
    let hw = Hardware::cpu();
    let sketches = generate_sketches(&g, Target::Cpu);
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(99);
    let mut random_times: Vec<f64> = (0..200)
        .map(|_| {
            let s = Schedule::random(&sketches[0], Target::Cpu, &mut rng);
            hw.execution_time(&g, &sketches[0], &s)
        })
        .collect();
    random_times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = random_times[100];

    let am = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let mut ansor = AnsorTuner::new(g.clone(), &am, small_ansor());
    ansor.tune(96);
    let hm = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let mut harl = HarlOperatorTuner::new(g.clone(), &hm, small_harl());
    harl.tune(96);

    assert!(
        ansor.best_time < median / 2.0,
        "Ansor {} vs median {median}",
        ansor.best_time
    );
    assert!(
        harl.best_time < median / 2.0,
        "HARL {} vs median {median}",
        harl.best_time
    );
}

#[test]
fn same_seed_same_result() {
    let run = || {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let g = harl_repro::ir::workload::gemm(256, 256, 256);
        let mut t = HarlOperatorTuner::new(g, &measurer, small_harl());
        t.tune(48);
        (t.best_time, t.trials_used, measurer.sim_seconds())
    };
    let a = run();
    let b = run();
    assert_eq!(
        a.0, b.0,
        "best time must be deterministic under a fixed seed"
    );
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}

#[test]
fn different_seeds_explore_differently() {
    let run = |seed: u64| {
        let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
        let g = harl_repro::ir::workload::gemm(256, 256, 256);
        let cfg = HarlConfig {
            seed,
            ..small_harl()
        };
        let mut t = HarlOperatorTuner::new(g, &measurer, cfg);
        t.tune(24);
        t.best_time
    };
    // not a hard guarantee per-pair, but across three seeds at least one
    // pair must differ if seeding is wired through
    let times = [run(1), run(2), run(3)];
    assert!(
        times[0] != times[1] || times[1] != times[2],
        "seeds appear to be ignored: {times:?}"
    );
}

#[test]
fn network_tuning_full_pipeline_on_gpu_model() {
    let measurer = Measurer::new(Hardware::gpu(), MeasureConfig::default());
    let subgraphs = Network::Bert.subgraphs(1);
    let mut nt = HarlNetworkTuner::new(subgraphs, &measurer, small_harl());
    nt.tune(8 * 12);
    assert!(nt.network_latency().is_finite());
    assert!(nt.allocations().iter().all(|&a| a > 0));
}

#[test]
fn operator_suite_tunes_on_both_targets() {
    for hw in [Hardware::cpu(), Hardware::gpu()] {
        let measurer = Measurer::new(hw, MeasureConfig::default());
        let g = operator_suite(OperatorClass::C2d, 1).remove(1); // 56x56x64x64 1x1
        let mut t = HarlOperatorTuner::new(g, &measurer, small_harl());
        t.tune(24);
        assert!(t.best_time.is_finite());
        assert!(t.best_schedule.is_some());
    }
}

#[test]
fn flextensor_baseline_runs_through_prelude() {
    let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let g = harl_repro::ir::workload::gemm(128, 128, 128);
    let mut t = FlextensorTuner::new(g, &measurer, Default::default());
    t.tune(60);
    assert!(t.best_time.is_finite());
    assert!(!t.proposer().critical_steps.is_empty());
}

#[test]
fn search_time_accounting_is_monotone_and_positive() {
    let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let g = harl_repro::ir::workload::gemm(256, 256, 256);
    let mut t = HarlOperatorTuner::new(g, &measurer, small_harl());
    let mut last = 0.0;
    for _ in 0..4 {
        t.round(8);
        let now = measurer.sim_seconds();
        assert!(now > last, "simulated clock must advance monotonically");
        last = now;
    }
    // each trial costs at least r_min (1 s) + build overhead (0.5 s)
    assert!(last >= t.trials_used as f64 * 1.5);
}
