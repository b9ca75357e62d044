//! Ablation of the adaptive-stopping module (§5): HARL with fixed-length
//! episodes ("Hierarchical-RL") vs HARL with adaptive stopping, on the
//! same GEMM — a miniature of Figure 7.
//!
//! ```text
//! cargo run --release --example ablation_adaptive [-- trials]
//! ```

use harl_repro::harl::critical_step_histogram;
use harl_repro::prelude::*;

fn main() {
    let trials: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(320);

    let gemm = harl_repro::ir::workload::gemm(1024, 1024, 1024);
    println!(
        "workload: {} | budget: {trials} trials per variant\n",
        gemm.name
    );

    let base = HarlConfig {
        measure_per_round: 16,
        ..HarlConfig::fast()
    };

    let fm = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let mut fixed = HarlOperatorTuner::new(
        gemm.clone(),
        &fm,
        HarlConfig {
            adaptive_stopping: false,
            ..base.clone()
        },
    );
    fixed.tune(trials);

    let am = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let mut adaptive = HarlOperatorTuner::new(gemm.clone(), &am, base);
    adaptive.tune(trials);

    println!(
        "Hierarchical-RL (fixed length): best {:.3} ms",
        fixed.best_time * 1e3
    );
    println!(
        "HARL (adaptive stopping):       best {:.3} ms",
        adaptive.best_time * 1e3
    );
    println!(
        "adaptive/fixed performance: {:.2}x\n",
        fixed.best_time / adaptive.best_time
    );

    // Fig 7(b): where along each schedule track was the best schedule found?
    let hf = critical_step_histogram(&fixed.proposer().critical_steps, 10);
    let ha = critical_step_histogram(&adaptive.proposer().critical_steps, 10);
    println!("critical-step position histogram (relative position on track):");
    println!("{:>10} {:>8} {:>9}", "bin", "fixed", "adaptive");
    for i in 0..10 {
        println!(
            "{:>6.1}-{:<3.1} {:>8} {:>9}",
            i as f64 / 10.0,
            (i + 1) as f64 / 10.0,
            hf[i],
            ha[i]
        );
    }
    let frac = |h: &[u64]| {
        let total: u64 = h.iter().sum();
        if total == 0 {
            0.0
        } else {
            h[9] as f64 / total as f64
        }
    };
    println!(
        "\ncritical steps in the last 10% of their track: fixed {:.0}%, adaptive {:.0}%",
        frac(&hf) * 100.0,
        frac(&ha) * 100.0
    );
    println!("(the paper's point: adaptive stopping wastes far fewer post-peak steps)");
}
