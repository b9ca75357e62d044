//! Head-to-head: HARL vs the Ansor baseline on one tensor operator, with
//! identical measurement budgets — a miniature of Figures 5 and 6.
//!
//! ```text
//! cargo run --release --example compare_ansor [-- trials]
//! ```

use harl_repro::prelude::*;

/// Drives any tuner through the unified session API with the same budget.
fn run_session(label: &str, tuner: Box<dyn Tuner + '_>, measurer: &Measurer, trials: u64) {
    let mut session = TuningSession::builder()
        .launch(tuner, measurer, None)
        .expect("launch session");
    session.run(trials).expect("run session");
    println!(
        "{label:6}: best {:.3} ms after {} trials ({:.0} simulated seconds)",
        session.best_latency() * 1e3,
        session.trials_used(),
        measurer.sim_seconds()
    );
}

fn main() {
    let trials: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(320);

    let gemm = harl_repro::ir::workload::gemm(1024, 1024, 1024);
    println!("workload: {} | budget: {trials} trials each\n", gemm.name);

    // Both tuners implement the common `Tuner` trait, so one driver covers
    // them — the head-to-head is identical by construction.

    // --- Ansor -----------------------------------------------------------
    let ansor_m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let mut ansor = AnsorTuner::new(
        gemm.clone(),
        &ansor_m,
        AnsorConfig {
            measure_per_round: 16,
            ..Default::default()
        },
    );
    run_session("Ansor", Box::new(&mut ansor), &ansor_m, trials);

    // --- HARL ---------------------------------------------------------------
    let harl_m = Measurer::new(Hardware::cpu(), MeasureConfig::default());
    let mut harl = HarlOperatorTuner::new(
        gemm.clone(),
        &harl_m,
        HarlConfig {
            measure_per_round: 16,
            ..HarlConfig::fast()
        },
    );
    run_session("HARL", Box::new(&mut harl), &harl_m, trials);

    // --- the two headline metrics -------------------------------------------
    let perf_ratio = ansor.best_time / harl.best_time;
    println!("\nfinal performance: HARL/Ansor = {perf_ratio:.2}x");

    match harl.trace.first_reaching(ansor.best_time) {
        Some((t, s)) => println!(
            "search speed: HARL reached Ansor's final performance after {t} trials \
             / {s:.0} s  ({:.2}x faster than Ansor's {:.0} s)",
            ansor_m.sim_seconds() / s,
            ansor_m.sim_seconds()
        ),
        None => {
            println!("search speed: HARL did not reach Ansor's final performance in this budget")
        }
    }

    println!("\nbest-so-far trace (trials → ms):");
    println!("  {:>8} {:>12} {:>12}", "trials", "Ansor", "HARL");
    let steps = 8;
    for i in 1..=steps {
        let t = trials * i / steps;
        let a = ansor.trace.best_at_trial(t);
        let h = harl.trace.best_at_trial(t);
        let ms = |x: f64| {
            if x.is_finite() {
                format!("{:.3}", x * 1e3)
            } else {
                "-".to_string()
            }
        };
        println!("  {:>8} {:>12} {:>12}", t, ms(a), ms(h));
    }
}
