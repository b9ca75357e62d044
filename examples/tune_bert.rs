//! End-to-end network tuning: HARL's hierarchical search over the 10
//! distinct BERT subgraphs, showing how the subgraph MAB allocates trials
//! — a miniature of §6.3 / Table 4 / Figure 10.
//!
//! ```text
//! cargo run --release --example tune_bert [-- --trials N]
//! ```

use harl_repro::cli;
use harl_repro::prelude::*;

fn main() {
    let trials = cli::TUNE_BERT.args();

    let subgraphs = Network::Bert.subgraphs(1);
    println!(
        "BERT: {} distinct subgraphs, {trials}-trial budget",
        subgraphs.len()
    );
    for g in &subgraphs {
        println!(
            "  {:<16} w={:<3} {:>10.2} MFLOPs",
            g.name,
            g.weight,
            g.flops() / 1e6
        );
    }

    let measurer = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let cfg = HarlConfig {
        measure_per_round: 16,
        ..HarlConfig::fast()
    };
    let mut tuner = HarlNetworkTuner::new(subgraphs, &measurer, cfg);
    tuner.tune(trials);

    println!(
        "\nestimated network latency f(S) = Σ wₙ·gₙ = {:.3} ms",
        tuner.network_latency() * 1e3
    );
    println!("simulated search time: {:.0} s\n", measurer.sim_seconds());

    println!(
        "{:<16} {:>8} {:>12} {:>14}",
        "subgraph", "trials", "best (µs)", "weighted (µs)"
    );
    let mut order: Vec<usize> = (0..tuner.infos.len()).collect();
    order.sort_by(|&a, &b| {
        let ca = tuner.infos[a].weight * tuner.states[a].best_time;
        let cb = tuner.infos[b].weight * tuner.states[b].best_time;
        cb.partial_cmp(&ca).unwrap()
    });
    for i in order {
        let info = &tuner.infos[i];
        let st = &tuner.states[i];
        println!(
            "{:<16} {:>8} {:>12.1} {:>14.1}",
            info.name,
            st.trials,
            st.best_time * 1e6,
            info.weight * st.best_time * 1e6
        );
    }

    println!("\nallocation history (first 20 rounds):");
    for r in tuner.rounds.iter().take(20) {
        println!(
            "  round at trial {:>5}: tuned {:<16} → f(S) = {:.3} ms",
            r.trials_after,
            tuner.infos[r.task].name,
            if r.latency.is_finite() {
                r.latency * 1e3
            } else {
                f64::NAN
            }
        );
    }
}
