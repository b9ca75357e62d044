//! Fuzzes the schedule analyzer over the bundled workloads and prints a
//! per-lint hit-rate table.
//!
//! For every workload the fuzzer checks three schedule populations per
//! sketch: freshly random ones, mutation chains, and deliberately
//! corrupted ones (zero factors, broken products, parallel bands dragged
//! over reductions, out-of-range indices). Random and mutated schedules
//! are clean by construction, so every error hit must come from the
//! corrupted third — a quick end-to-end check that the lints fire on what
//! they claim to catch and stay quiet otherwise.
//!
//! Usage: `lint-schedules [schedules-per-sketch]` (default 150).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use harl_nn_models::{operator_suite, OperatorClass};
use harl_tensor_ir::{
    generate_sketches, mutate, workload, FeaturePlan, Schedule, Sketch, Subgraph, Target,
};
use harl_verify::{check_finite, Analyzer, LintCode, LintStats, Severity};

/// One deliberate corruption of a legal schedule.
fn corrupt(s: &Schedule, sketch: &Sketch, target: Target, rng: &mut StdRng) -> Schedule {
    let mut c = s.clone();
    match rng.gen_range(0..6u32) {
        0 => {
            // zero factor
            let k = rng.gen_range(0..c.tiles.len());
            let l = rng.gen_range(0..c.tiles[k].len());
            c.tiles[k][l] = 0;
        }
        1 => {
            // product != extent
            let k = rng.gen_range(0..c.tiles.len());
            c.tiles[k][0] = c.tiles[k][0].saturating_mul(3).max(2);
        }
        2 => {
            // drag the parallel band over everything (incl. reductions)
            c.parallel_fuse = sketch.tiled_iters.len() + rng.gen_range(0..2usize);
        }
        3 => {
            // compute-at off the end of the candidate list
            c.compute_at = sketch.compute_at_candidates.len() + rng.gen_range(1..4usize);
        }
        4 => {
            // unroll index past the depth table
            c.unroll_idx = target.unroll_depths().len() + rng.gen_range(0..3usize);
        }
        _ => {
            // level-count mismatch
            let k = rng.gen_range(0..c.tiles.len());
            c.tiles[k].push(1);
        }
    }
    c
}

fn bundled_workloads() -> Vec<Subgraph> {
    let mut ws: Vec<Subgraph> = Vec::new();
    for class in [
        OperatorClass::GemmS,
        OperatorClass::GemmM,
        OperatorClass::C1d,
        OperatorClass::C2d,
    ] {
        ws.extend(operator_suite(class, 1).into_iter().take(2));
    }
    ws.push(workload::conv2d_bn_relu(1, 28, 28, 32, 64, 3, 1, 1));
    ws.push(workload::gemm_epilogue(128, 128, 128, "relu", 1.0));
    ws.push(workload::softmax(512, 128));
    ws
}

struct Population {
    label: &'static str,
    stats: LintStats,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--explain") {
        let Some(code) = args.get(1) else {
            eprintln!("usage: lint-schedules --explain <V001..V006|C001..C005>");
            std::process::exit(2);
        };
        match LintCode::from_code(code) {
            Some(c) => {
                println!("{}", c.explain());
                return;
            }
            None => {
                eprintln!("unknown lint code `{code}`; known codes:");
                for c in LintCode::ALL {
                    eprintln!("  {} {}", c.code(), c.name());
                }
                std::process::exit(2);
            }
        }
    }
    let per_sketch: usize = args.first().and_then(|a| a.parse().ok()).unwrap_or(150);
    let target = Target::Cpu;
    let analyzer = Analyzer::for_target(target);
    let mut rng = StdRng::seed_from_u64(0x11f7);

    let mut pops = [
        Population {
            label: "random",
            stats: LintStats::new(),
        },
        Population {
            label: "mutated",
            stats: LintStats::new(),
        },
        Population {
            label: "corrupted",
            stats: LintStats::new(),
        },
    ];
    let mut total = LintStats::new();

    let workloads = bundled_workloads();
    println!(
        "linting {} workloads, {} schedules per sketch per population (target: {target:?})\n",
        workloads.len(),
        per_sketch
    );

    for g in &workloads {
        for sk in generate_sketches(g, target) {
            let plan = FeaturePlan::new(g, &sk, target);
            for _ in 0..per_sketch {
                let s = Schedule::random(&sk, target, &mut rng);
                let verdict = analyzer.verdict(g, &sk, &plan, &s);
                pops[0].stats.record(&verdict);
                total.record(&verdict);

                let mut m = s.clone();
                for _ in 0..5 {
                    m = mutate(&sk, target, &m, &mut rng);
                }
                let verdict = analyzer.verdict(g, &sk, &plan, &m);
                pops[1].stats.record(&verdict);
                total.record(&verdict);

                let c = corrupt(&s, &sk, target, &mut rng);
                let verdict = analyzer.verdict(g, &sk, &plan, &c);
                pops[2].stats.record(&verdict);
                total.record(&verdict);
            }
        }
    }

    // V006 fuzz: relative-improvement rewards with degenerate baselines,
    // the way a search loop would compute them.
    let mut v006_checked = 0u64;
    for _ in 0..per_sketch * 10 {
        let prev: f64 = if rng.gen_bool(0.1) {
            0.0
        } else {
            rng.gen::<f64>() + 1e-3
        };
        let next: f64 = rng.gen::<f64>() - 0.5;
        let reward = (next - prev) / prev;
        v006_checked += 1;
        if check_finite("fuzzed reward", reward).is_some() {
            total.record_finding(LintCode::NonFiniteValue);
        }
    }

    println!(
        "{:<6} {:<26} {:<8} {:>9} {:>9} {:>8}",
        "lint", "name", "severity", "hits", "checked", "rate"
    );
    println!("{}", "-".repeat(70));
    for code in LintCode::SCHEDULE {
        let checked = if code == LintCode::NonFiniteValue {
            v006_checked
        } else {
            total.checked
        };
        let hits = total.count(code);
        let sev = match code.severity() {
            Severity::Error => "error",
            Severity::Warn => "warn",
        };
        let rate = if checked == 0 {
            0.0
        } else {
            100.0 * hits as f64 / checked as f64
        };
        println!(
            "{:<6} {:<26} {:<8} {:>9} {:>9} {:>7.2}%",
            code.code(),
            code.name(),
            sev,
            hits,
            checked,
            rate
        );
    }
    println!("{}", "-".repeat(70));
    println!(
        "{} schedules checked, {} rejected ({:.2}%)",
        total.checked,
        total.rejected,
        100.0 * total.rejected as f64 / total.checked.max(1) as f64
    );
    for p in &pops {
        println!(
            "  {:<10} checked {:>7}  rejected {:>7}  warn-findings {:>7}",
            p.label,
            p.stats.checked,
            p.stats.rejected,
            p.stats.count(LintCode::CacheOverSubscription)
                + p.stats.count(LintCode::DegenerateUnroll),
        );
    }

    // legal generators must be clean: any rejection there is a bug
    let clean = pops[0].stats.rejected == 0 && pops[1].stats.rejected == 0;
    let caught = pops[2].stats.rejected > 0;
    if clean && caught {
        println!("\nOK: legal populations clean, corrupted population rejected");
    } else {
        println!("\nFAIL: clean={clean} caught={caught}");
        std::process::exit(1);
    }
}
