//! Edge-case and failure-injection tests across the stack.

use harl_repro::ir::{workload, ActionSpace};
use harl_repro::prelude::*;

#[test]
fn extent_one_iterators_are_schedulable() {
    // batch-1 convolutions carry extent-1 iterators; everything must cope
    let g = workload::conv2d(1, 7, 7, 1, 1, 1, 1, 0);
    g.validate().unwrap();
    let sketches = generate_sketches(&g, Target::Cpu);
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(1);
    for sk in &sketches {
        for _ in 0..20 {
            let s = Schedule::random(sk, Target::Cpu, &mut rng);
            s.validate(sk, Target::Cpu).unwrap();
            assert!(Hardware::cpu().execution_time(&g, sk, &s) > 0.0);
        }
    }
}

#[test]
fn prime_extent_iterators_tile_correctly() {
    // 97 and 13 are prime: tiling can only put the whole factor in one slot
    let g = workload::gemm(97, 13, 101);
    let sketches = generate_sketches(&g, Target::Cpu);
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(2);
    for sk in &sketches {
        for _ in 0..30 {
            let s = Schedule::random(sk, Target::Cpu, &mut rng);
            s.validate(sk, Target::Cpu).unwrap();
            for (k, t) in sk.tiled_iters.iter().enumerate() {
                let prod: u64 = s.tiles[k].iter().map(|&f| f as u64).product();
                assert_eq!(prod, t.extent as u64);
            }
        }
    }
}

#[test]
fn tuning_survives_extreme_measurement_noise() {
    // 50% noise: the tuner must still terminate and return something sane
    let cfg = MeasureConfig {
        noise: 0.5,
        ..Default::default()
    };
    let measurer = Measurer::new(Hardware::cpu(), cfg);
    let g = workload::gemm(128, 128, 128);
    let mut t = HarlOperatorTuner::new(g, &measurer, HarlConfig::tiny());
    t.tune(24);
    assert!(t.best_time.is_finite() && t.best_time > 0.0);
    assert!(t.best_schedule.is_some());
}

#[test]
fn tuning_with_zero_noise_is_fully_deterministic_across_tuners() {
    let run = || {
        let cfg = MeasureConfig {
            noise: 0.0,
            ..Default::default()
        };
        let measurer = Measurer::new(Hardware::cpu(), cfg);
        let g = workload::gemm(128, 256, 128);
        let mut t = HarlOperatorTuner::new(g, &measurer, HarlConfig::tiny());
        t.tune(16);
        t.best_time
    };
    assert_eq!(run(), run());
}

#[test]
fn single_sketch_subgraph_tunes() {
    // elementwise has one sketch and no reduction; sketch MAB has 1 arm
    let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let g = workload::elementwise(256, 256, 2.0);
    let mut t = HarlOperatorTuner::new(g, &measurer, HarlConfig::tiny());
    t.tune(16);
    assert!(t.best_time.is_finite());
}

#[test]
fn tiny_budget_one_trial() {
    let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let g = workload::gemm(64, 64, 64);
    let mut t = HarlOperatorTuner::new(g, &measurer, HarlConfig::tiny());
    t.tune(1);
    assert_eq!(t.trials_used, 1);
    assert!(t.best_time.is_finite());
}

#[test]
fn ansor_and_harl_agree_on_zero_budget() {
    let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let g = workload::gemm(64, 64, 64);
    let mut a = AnsorTuner::new(g.clone(), &measurer, AnsorConfig::default());
    assert_eq!(a.round(0), 0);
    let mut h = HarlOperatorTuner::new(g, &measurer, HarlConfig::tiny());
    assert_eq!(h.round(0), 0);
    assert_eq!(measurer.trials(), 0);
}

#[test]
fn huge_tile_head_workload_runs() {
    // C3D has 9 iterators → 28 tiled loops on CPU → 785-way tile head;
    // make sure the policy machinery handles the big head
    let g = workload::conv3d(1, 4, 8, 8, 4, 4, 3, 1, 1);
    let sk = &generate_sketches(&g, Target::Cpu)[0];
    let space = ActionSpace::of(sk);
    assert!(space.tile_actions() > 500);
    let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let mut t = HarlOperatorTuner::new(g, &measurer, HarlConfig::tiny());
    t.tune(8);
    assert!(t.best_time.is_finite());
}

#[test]
fn network_with_single_subgraph() {
    let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let mut nt = HarlNetworkTuner::new(
        vec![workload::gemm(128, 128, 128)],
        &measurer,
        HarlConfig::tiny(),
    );
    nt.tune(16);
    assert!(nt.network_latency().is_finite());
    assert_eq!(nt.allocations().len(), 1);
}

#[test]
fn weighted_latency_respects_weights() {
    let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let mut g1 = workload::gemm(128, 128, 128);
    g1.weight = 10.0;
    let g2 = workload::gemm(128, 128, 128);
    // same graph tuned twice; weight must scale the latency contribution
    let mut nt = HarlNetworkTuner::new(vec![g1, g2], &measurer, HarlConfig::tiny());
    nt.tune(32);
    let lat = nt.network_latency();
    let t1 = nt.states[0].best_time * 10.0;
    let t2 = nt.states[1].best_time;
    assert!((lat - (t1 + t2)).abs() / lat < 1e-9);
}

#[test]
fn cost_model_skips_non_finite_samples() {
    // a NaN key makes `partial_cmp(..).unwrap_or(Equal)` a non-total order,
    // which std's sort answers with a panic: one bad measurement row used
    // to abort the whole search from inside `Gbt::fit`
    use harl_repro::gbt::{CostModel, GbtParams};
    let row = |i: usize| vec![i as f32, (i % 5) as f32, 1.0];
    let good: Vec<(Vec<f32>, f64)> = (0..30).map(|i| (row(i), 1e9 * (1.0 + i as f64))).collect();
    let bad = [
        (vec![f32::NAN, 0.0, 1.0], 1e9),
        (vec![3.0, f32::INFINITY, 1.0], 1e9),
        (vec![3.0, 0.0, f32::NEG_INFINITY], 1e9),
        (row(3), f64::NAN),
        (row(4), f64::INFINITY),
    ];

    let mut clean = CostModel::new(GbtParams::default());
    clean.update_batch(good.clone());

    let mut batched = CostModel::new(GbtParams::default());
    batched.update_batch(bad.iter().cloned().chain(good.clone()));
    assert_eq!(batched.num_samples(), 30);
    assert!(batched.is_trained());

    let mut single = CostModel::new(GbtParams::default());
    for row in bad.iter().cloned() {
        single.absorb([row]);
        assert!(!single.is_stale(), "a dropped sample leaves nothing to fit");
    }
    assert_eq!(single.num_samples(), 0);
    assert!(!single.is_trained());
    for row in good.iter().cloned() {
        single.absorb([row]);
    }
    assert_eq!(single.num_samples(), 30);
    single.fit();

    // the surviving rows train the model a clean run gets
    assert_eq!(batched.scale(), clean.scale());
    for i in 0..30 {
        let score = batched.score(&row(i));
        assert!(score.is_finite());
        assert_eq!(score.to_bits(), clean.score(&row(i)).to_bits());
        assert_eq!(single.score(&row(i)).to_bits(), score.to_bits());
    }
}

#[test]
fn a_bad_config_field_panics_at_construction_by_name_and_every_preset_constructs() {
    use harl_repro::ansor::FlextensorConfig;
    use harl_repro::nnet::{PpoAgent, PpoConfig};
    use harl_repro::serve::Preset;
    use rand::{rngs::StdRng, SeedableRng};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    type Construct<'a> = Box<dyn FnOnce() + 'a>;

    let m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let g = || workload::gemm(64, 64, 64);
    let agent = |cfg: PpoConfig| PpoAgent::new(8, &[3, 2], cfg, &mut StdRng::seed_from_u64(1));
    let finetune = |cfg: FinetuneConfig| CdTuner::new(g(), &m, CdConfig::default()).finetune(&cfg);
    let bad_ppo = || PpoConfig {
        lr_actor: f32::NAN,
        ..Default::default()
    };

    // one bad field each: refused where the config is consumed, the
    // message opening with the field
    #[rustfmt::skip]
    let bad: Vec<(&str, Construct<'_>)> = vec![
        ("harl.lambda", Box::new(|| { HarlOperatorTuner::new(g(), &m, HarlConfig { lambda: 0, ..HarlConfig::fast() }); })),
        ("harl.rho", Box::new(|| { HarlOperatorTuner::new(g(), &m, HarlConfig { rho: 1.5, ..HarlConfig::paper() }); })),
        ("ppo.lr_actor", Box::new(|| { HarlOperatorTuner::new(g(), &m, HarlConfig { ppo: bad_ppo(), ..HarlConfig::tiny() }); })),
        ("harl.lambda", Box::new(|| { HarlNetworkTuner::new(vec![g()], &m, HarlConfig { lambda: 0, ..HarlConfig::tiny() }); })),
        ("ansor.measure_per_round", Box::new(|| { AnsorTuner::new(g(), &m, AnsorConfig { measure_per_round: 0, ..Default::default() }); })),
        ("flextensor.tracks", Box::new(|| { FlextensorTuner::new(g(), &m, FlextensorConfig { tracks: 0, ..Default::default() }); })),
        ("ppo.lr_actor", Box::new(|| { FlextensorTuner::new(g(), &m, FlextensorConfig { ppo: bad_ppo(), ..Default::default() }); })),
        ("mcts.playouts_per_round", Box::new(|| { MctsTuner::new(g(), &m, MctsConfig { playouts_per_round: 0, ..Default::default() }); })),
        ("cd.measure_per_round", Box::new(|| { CdTuner::new(g(), &m, CdConfig { measure_per_round: 0, ..Default::default() }); })),
        ("ppo.lr_actor", Box::new(|| { agent(bad_ppo()); })),
        ("ppo.minibatch", Box::new(|| { agent(PpoConfig { minibatch: 0, ..Default::default() }); })),
        ("measure.noise", Box::new(|| { Measurer::new(Hardware::cpu(), MeasureConfig { noise: -0.1, ..Default::default() }); })),
        ("finetune.max_sweeps", Box::new(|| { finetune(FinetuneConfig { max_sweeps: 0, ..Default::default() }); })),
    ];
    for (field, construct) in bad {
        let panic = catch_unwind(AssertUnwindSafe(construct)).expect_err(field);
        let msg = panic.downcast_ref::<String>().expect("a formatted panic");
        assert!(msg.starts_with(field), "`{field}`: {msg}");
    }

    // every preset and default goes through the same constructors
    let presets = [Preset::Tiny, Preset::Fast, Preset::Paper].map(|p| p.harl_config());
    let harl = [
        HarlConfig::paper(),
        HarlConfig::fast(),
        HarlConfig::tiny(),
        HarlConfig::default(),
    ];
    for cfg in harl.into_iter().chain(presets) {
        HarlOperatorTuner::new(g(), &m, cfg);
    }
    AnsorTuner::new(g(), &m, AnsorConfig::default());
    FlextensorTuner::new(g(), &m, FlextensorConfig::default());
    MctsTuner::new(g(), &m, MctsConfig::default());
    CdTuner::new(g(), &m, CdConfig::default());
    agent(PpoConfig::default());
    finetune(FinetuneConfig::default());
}
