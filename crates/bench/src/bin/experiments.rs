//! Regenerates every figure and table of the paper's evaluation, and the
//! five-searcher tournament.
//!
//! ```text
//! experiments [EXPERIMENTS...] [--paper] [--trials N] [--net-trials N]
//!             [--seed S] [--out DIR]
//! ```
//!
//! `experiments --help` lists the experiments. A bad argument exits 2 with
//! the usage text; a JSON file that cannot be written exits 1.

use std::path::Path;

use harl_bench::cli::{parse_args, Args, HELP};
use harl_bench::{ablation, fig1, networks, operators, save_json, tournament, Scale};
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
    args: &Args,
    name: &str,
    go: impl FnOnce(&Scale) -> T,
    render: impl FnOnce(&T) -> String,
) {
    if args.experiments.contains(name) {
        eprintln!("# running {name}...");
        let r = go(&args.scale);
        println!("{}", render(&r));
        save(&args.out_dir, name, &r);
    }
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n\n{HELP}");
        std::process::exit(2);
    });
    if args.help {
        println!("{HELP}");
        return;
    }
    let (scale, out_dir, wanted) = (&args.scale, args.out_dir.as_path(), &args.experiments);

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

    run(&args, "fig1a", fig1::fig1a, fig1::render_fig1a);
    run(&args, "fig1b", fig1::fig1b, fig1::render_fig1b);
    run(&args, "fig1c", fig1::fig1c, fig1::render_fig1c);

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
        "table7",
        |s| operators::table7(s, &cpu),
        |r| operators::render_sensitivity(r, "Table 7: adaptive-stopping window size λ"),
    );
    run(
        &args,
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
    run(&args, "ablation", sweeps, |r| {
        r.iter()
            .map(ablation::render_sweep)
            .collect::<Vec<_>>()
            .join("\n")
    });
    run(&args, "tournament", tournament::tournament, |r| {
        tournament::render_tournament(r)
    });
    eprintln!("# done; JSON results in {}", out_dir.display());
}
