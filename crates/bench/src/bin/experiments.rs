//! Regenerates every figure and table of the paper's evaluation.
//!
//! ```text
//! experiments [EXPERIMENTS...] [--paper] [--trials N] [--net-trials N]
//!             [--seed S] [--out DIR]
//!
//! EXPERIMENTS: fig1a fig1b fig1c fig5 fig6 fig7a fig7b fig8 fig9 fig10
//!              table4 table7 table8 all      (default: all)
//! --paper       paper-scale budgets (1000 trials/operator, 12k-22k/network)
//! --trials N    override trials per operator run
//! --net-trials N  override trials per network run
//! --seed S      RNG seed (default 2026)
//! --out DIR     JSON output directory (default results/)
//! ```

use std::collections::BTreeSet;
use std::path::PathBuf;

use harl_bench::scale::Scale;
use harl_bench::{ablation, fig1, networks, operators, save_json};
use harl_tensor_ir::models::bert;
use harl_tensor_sim::Hardware;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::fast();
    let mut out_dir = PathBuf::from("results");
    let mut wanted: BTreeSet<String> = BTreeSet::new();

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--paper" => scale = Scale::paper(),
            "--trials" => {
                i += 1;
                scale.op_trials = args[i].parse().expect("--trials N");
            }
            "--net-trials" => {
                i += 1;
                scale.net_trials = Some(args[i].parse().expect("--net-trials N"));
            }
            "--seed" => {
                i += 1;
                scale.seed = args[i].parse().expect("--seed S");
            }
            "--out" => {
                i += 1;
                out_dir = PathBuf::from(&args[i]);
            }
            "--help" | "-h" => {
                println!("{}", HELP);
                return;
            }
            other => {
                wanted.insert(other.to_string());
            }
        }
        i += 1;
    }
    if wanted.is_empty() || wanted.contains("all") {
        for e in [
            "fig1a", "fig1b", "fig1c", "fig5", "fig6", "fig7a", "fig7b", "fig8", "fig9", "fig10",
            "table4", "table7", "table8", "ablation",
        ] {
            wanted.insert(e.to_string());
        }
    }

    eprintln!(
        "# scale: {} ({} trials/op, {:?} trials/net, {} shapes/class, batches {:?}, seed {})",
        if scale.paper { "paper" } else { "fast" },
        scale.op_trials,
        scale.net_trials,
        scale.shapes_per_class,
        scale.batches,
        scale.seed
    );

    let cpu = Hardware::cpu();

    if wanted.contains("fig1a") {
        eprintln!("# running fig1a (Ansor greedy allocation on BERT)...");
        let r = fig1::fig1a(&scale);
        println!("{}", fig1::render_fig1a(&r));
        let _ = save_json(&out_dir, "fig1a", &r);
    }
    if wanted.contains("fig1b") {
        eprintln!("# running fig1b (uniform schedule-selection improvements)...");
        let r = fig1::fig1b(&scale);
        println!("{}", fig1::render_fig1b(&r));
        let _ = save_json(&out_dir, "fig1b", &r);
    }
    if wanted.contains("fig1c") {
        eprintln!("# running fig1c (fixed-length critical steps)...");
        let r = fig1::fig1c(&scale);
        println!("{}", fig1::render_fig1c(&r));
        let _ = save_json(&out_dir, "fig1c", &r);
    }

    if wanted.contains("fig5") || wanted.contains("fig6") {
        eprintln!("# running fig5+fig6 (operator comparison, this is the long one)...");
        let r = operators::operator_comparison(&scale, &cpu);
        if wanted.contains("fig5") {
            println!("{}", operators::render_fig5(&r));
        }
        if wanted.contains("fig6") {
            println!("{}", operators::render_fig6(&r));
        }
        let _ = save_json(&out_dir, "fig5_fig6", &r);
    }

    if wanted.contains("fig7a") || wanted.contains("fig7b") {
        eprintln!("# running fig7 (ablation on GEMM-L)...");
        let (a, b) = operators::fig7a(&scale, &cpu);
        if wanted.contains("fig7a") {
            println!("{}", operators::render_fig7a(&a));
        }
        if wanted.contains("fig7b") {
            println!("{}", operators::render_fig7b(&b));
        }
        let _ = save_json(&out_dir, "fig7a", &a);
        let _ = save_json(&out_dir, "fig7b", &b);
    }

    if wanted.contains("fig8") || wanted.contains("fig9") {
        eprintln!("# running fig8+fig9 (network comparison: 3 nets x CPU/GPU)...");
        let r = networks::network_comparison(&scale);
        if wanted.contains("fig8") {
            println!("{}", networks::render_fig8(&r));
        }
        if wanted.contains("fig9") {
            println!("{}", networks::render_fig9(&r));
        }
        let _ = save_json(&out_dir, "fig8_fig9", &r);
    }

    if wanted.contains("fig10") || wanted.contains("table4") {
        eprintln!("# running fig10+table4 (BERT study with subgraph-MAB ablation)...");
        let r = networks::bert_study(&scale);
        if wanted.contains("table4") {
            println!("{}", networks::render_table4(&r));
        }
        if wanted.contains("fig10") {
            let names: Vec<String> = bert(1).iter().map(|g| g.name.clone()).collect();
            println!("{}", networks::render_fig10(&r, &names));
        }
        let _ = save_json(&out_dir, "table4_fig10", &r);
    }

    if wanted.contains("table7") {
        eprintln!("# running table7 (lambda sensitivity)...");
        let r = operators::table7(&scale, &cpu);
        println!(
            "{}",
            operators::render_sensitivity(&r, "Table 7: adaptive-stopping window size λ")
        );
        let _ = save_json(&out_dir, "table7", &r);
    }
    if wanted.contains("table8") {
        eprintln!("# running table8 (rho sensitivity)...");
        let r = operators::table8(&scale, &cpu);
        println!(
            "{}",
            operators::render_sensitivity(&r, "Table 8: adaptive-stopping elimination ratio ρ")
        );
        let _ = save_json(&out_dir, "table8", &r);
    }
    if wanted.contains("ablation") {
        eprintln!("# running ablation sweeps (elite fraction / proposals / bandit kind)...");
        let sweeps = vec![
            ablation::ablate_elite_fraction(&scale),
            ablation::ablate_action_samples(&scale),
            ablation::ablate_bandit_kind(&scale),
        ];
        for s in &sweeps {
            println!("{}", ablation::render_sweep(s));
        }
        let _ = save_json(&out_dir, "ablation", &sweeps);
    }
    eprintln!("# done; JSON results in {}", out_dir.display());
}

const HELP: &str = "\
experiments — regenerate the HARL paper's figures and tables

USAGE:
  experiments [EXPERIMENTS...] [--paper] [--trials N] [--net-trials N]
              [--seed S] [--out DIR]

EXPERIMENTS (default: all)
  fig1a fig1b fig1c   motivating observations (Section 2.2)
  fig5 fig6           tensor-operator performance / search time (Section 6.2)
  fig7a fig7b         hierarchical-RL + adaptive-stopping ablation
  fig8 fig9           end-to-end networks, CPU and GPU (Section 6.3)
  fig10 table4        BERT subgraph study with subgraph-MAB ablation
  table7 table8       lambda / rho sensitivity (Appendix A.4)
  ablation            reproduction design-choice sweeps (DESIGN.md section 5)
";
