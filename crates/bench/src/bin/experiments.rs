//! Regenerates every figure and table of the paper's evaluation, and the
//! five-searcher tournament.
//!
//! ```text
//! experiments [EXPERIMENTS...] [--paper] [--trials N] [--net-trials N]
//!             [--seed S] [--out DIR]
//! ```
//!
//! `experiments --help` lists the experiments. The arguments are read by
//! [`harl_repro::cli::EXPERIMENTS`]: a bad one exits 2 with the usage text
//! before anything runs; a JSON file that cannot be written exits 1.

use std::path::Path;

use harl_bench::{ablation, fig1, networks, operators, save_json, tournament, Scale};
use harl_repro::cli;
use harl_tensor_ir::models::bert;
use harl_tensor_sim::Hardware;
use serde::Serialize;

/// Writes one result file, or exits 1 naming it.
fn save<T: Serialize>(out_dir: &Path, name: &str, value: &T) {
    if let Err(e) = save_json(out_dir, name, value) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// Runs experiment `name` if it was asked for: its table to stdout, its
/// result to `<out>/<name>.json`.
fn run<T: Serialize>(
    args: &cli::Experiments,
    scale: &Scale,
    name: &str,
    go: impl FnOnce(&Scale) -> T,
    render: impl FnOnce(&T) -> String,
) {
    if args.names.contains(name) {
        eprintln!("# running {name}...");
        let r = go(scale);
        println!("{}", render(&r));
        save(&args.out, name, &r);
    }
}

fn main() {
    let args = cli::EXPERIMENTS.args();
    // --paper picks the base scale; the other options adjust it
    let mut scale = if args.paper {
        Scale::paper()
    } else {
        Scale::fast()
    };
    scale.op_trials = args.trials.unwrap_or(scale.op_trials);
    scale.net_trials = args.net_trials.or(scale.net_trials);
    scale.seed = args.seed.unwrap_or(scale.seed);
    let (scale, out_dir, wanted) = (&scale, args.out.as_path(), &args.names);

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

    run(&args, scale, "fig1a", fig1::fig1a, fig1::render_fig1a);
    run(&args, scale, "fig1b", fig1::fig1b, fig1::render_fig1b);
    run(&args, scale, "fig1c", fig1::fig1c, fig1::render_fig1c);

    if wanted.contains("fig5") || wanted.contains("fig6") {
        eprintln!("# running fig5+fig6 (operator comparison, this is the long one)...");
        let r = operators::operator_comparison(scale, &cpu);
        if wanted.contains("fig5") {
            println!("{}", operators::render_fig5(&r));
        }
        if wanted.contains("fig6") {
            println!("{}", operators::render_fig6(&r));
        }
        save(out_dir, "fig5_fig6", &r);
    }

    if wanted.contains("fig7a") || wanted.contains("fig7b") {
        eprintln!("# running fig7 (ablation on GEMM-L)...");
        let (a, b) = operators::fig7a(scale, &cpu);
        if wanted.contains("fig7a") {
            println!("{}", operators::render_fig7a(&a));
        }
        if wanted.contains("fig7b") {
            println!("{}", operators::render_fig7b(&b));
        }
        save(out_dir, "fig7a", &a);
        save(out_dir, "fig7b", &b);
    }

    if wanted.contains("fig8") || wanted.contains("fig9") {
        eprintln!("# running fig8+fig9 (network comparison: 3 nets x CPU/GPU)...");
        let r = networks::network_comparison(scale);
        if wanted.contains("fig8") {
            println!("{}", networks::render_fig8(&r));
        }
        if wanted.contains("fig9") {
            println!("{}", networks::render_fig9(&r));
        }
        save(out_dir, "fig8_fig9", &r);
    }

    if wanted.contains("fig10") || wanted.contains("table4") {
        eprintln!("# running fig10+table4 (BERT study with subgraph-MAB ablation)...");
        let r = networks::bert_study(scale);
        if wanted.contains("table4") {
            println!("{}", networks::render_table4(&r));
        }
        if wanted.contains("fig10") {
            let names: Vec<String> = bert(1).iter().map(|g| g.name.clone()).collect();
            println!("{}", networks::render_fig10(&r, &names));
        }
        save(out_dir, "table4_fig10", &r);
    }

    run(
        &args,
        scale,
        "table7",
        |s| operators::table7(s, &cpu),
        |r| operators::render_sensitivity(r, "Table 7: adaptive-stopping window size λ"),
    );
    run(
        &args,
        scale,
        "table8",
        |s| operators::table8(s, &cpu),
        |r| operators::render_sensitivity(r, "Table 8: adaptive-stopping elimination ratio ρ"),
    );
    let sweeps = |s: &Scale| {
        vec![
            ablation::ablate_elite_fraction(s),
            ablation::ablate_action_samples(s),
            ablation::ablate_bandit_kind(s),
        ]
    };
    run(&args, scale, "ablation", sweeps, |r| {
        r.iter()
            .map(ablation::render_sweep)
            .collect::<Vec<_>>()
            .join("\n")
    });
    run(&args, scale, "tournament", tournament::tournament, |r| {
        tournament::render_tournament(r)
    });
    eprintln!("# done; JSON results in {}", out_dir.display());
}
