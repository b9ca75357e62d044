//! Criterion benchmarks of whole search rounds: one Ansor evolutionary
//! round, one HARL episode+measurement round, one Flextensor episode, and
//! one network task-scheduler step. These are the units the experiment
//! figures are built from.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use harl_ansor::{
    AnsorConfig, AnsorTuner, EvoConfig, FlextensorConfig, FlextensorTuner, GradientParams,
};
use harl_core::{AnsorNetworkTuner, HarlConfig, HarlNetworkTuner, HarlOperatorTuner};
use harl_gbt::GbtParams;
use harl_tensor_ir::workload;
use harl_tensor_sim::{Hardware, MeasureConfig, Measurer};

fn small_ansor_cfg() -> AnsorConfig {
    AnsorConfig {
        measure_per_round: 16,
        evo: EvoConfig {
            population: 64,
            generations: 2,
            ..Default::default()
        },
        gbt: GbtParams {
            n_rounds: 8,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn small_harl_cfg() -> HarlConfig {
    HarlConfig {
        measure_per_round: 16,
        ..HarlConfig::fast()
    }
}

fn bench_ansor_round(c: &mut Criterion) {
    c.bench_function("ansor_round_16_measurements", |b| {
        b.iter_batched(
            || {
                let m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
                (m, workload::gemm(512, 512, 512))
            },
            |(m, g)| {
                let mut t = AnsorTuner::new(g, &m, small_ansor_cfg());
                t.round(16)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_harl_round(c: &mut Criterion) {
    c.bench_function("harl_round_16_measurements", |b| {
        b.iter_batched(
            || {
                let m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
                (m, workload::gemm(512, 512, 512))
            },
            |(m, g)| {
                let mut t = HarlOperatorTuner::new(g, &m, small_harl_cfg());
                t.round(16)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_flextensor_episode(c: &mut Criterion) {
    c.bench_function("flextensor_episode", |b| {
        b.iter_batched(
            || {
                let m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
                (m, workload::gemm(256, 256, 256))
            },
            |(m, g)| {
                let cfg = FlextensorConfig {
                    episode_len: 8,
                    tracks: 4,
                    ..Default::default()
                };
                let mut t = FlextensorTuner::new(g, &m, cfg);
                t.round(64)
            },
            BatchSize::SmallInput,
        )
    });
}

fn net_graphs() -> Vec<harl_tensor_ir::Subgraph> {
    vec![
        workload::gemm(256, 256, 256),
        workload::softmax(1024, 128),
        workload::conv2d_bn_relu(1, 28, 28, 64, 64, 3, 1, 1),
    ]
}

fn bench_network_steps(c: &mut Criterion) {
    c.bench_function("ansor_network_round", |b| {
        b.iter_batched(
            || Measurer::new(Hardware::cpu(), MeasureConfig::default()),
            |m| {
                let mut nt = AnsorNetworkTuner::new(
                    net_graphs(),
                    &m,
                    small_ansor_cfg(),
                    GradientParams::default(),
                );
                nt.round(16)
            },
            BatchSize::SmallInput,
        )
    });
    c.bench_function("harl_network_round", |b| {
        b.iter_batched(
            || Measurer::new(Hardware::cpu(), MeasureConfig::default()),
            |m| {
                let mut nt = HarlNetworkTuner::new(net_graphs(), &m, small_harl_cfg());
                nt.round(16)
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_ansor_round, bench_harl_round, bench_flextensor_episode, bench_network_steps
}
criterion_main!(benches);
