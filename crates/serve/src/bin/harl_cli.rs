//! Client for a running harl-serve daemon.
//!
//! ```text
//! harl-cli [--addr HOST:PORT] submit WORKLOAD [--searcher T] [--finetune]
//!          [--preset P] [--hardware H] [--trials N] [--priority P]
//!          [--target-ms MS] [--watch]
//! harl-cli [--addr HOST:PORT] status|result|cancel|watch JOB_ID
//! harl-cli [--addr HOST:PORT] list
//! harl-cli [--addr HOST:PORT] metrics
//! harl-cli [--addr HOST:PORT] bench-load [--clients N] [--requests N]
//!          [--submit-every N] [--list-every N] [--smoke] [--out FILE]
//! harl-cli [--addr HOST:PORT] shutdown
//! ```
//!
//! The daemon address comes from `--addr` (anywhere on the line) or
//! `HARL_SERVE_ADDR` (e.g. read from the daemon root's `serve.addr` file).
//! `result` and `watch` print the quickstart-compatible `metrics:` line
//! for scripts. Arguments are parsed by [`harl_serve::cli_args`]: any
//! fault in them prints `error: …` and the usage text and exits 2; a
//! request the daemon answers with an error exits 1.

use std::time::Duration;

use harl_serve::{
    bench_load, cli_args, BenchLoadConfig, CliCommand, Client, JobSpec, JobState, JobView,
    CLI_USAGE,
};

fn usage_error(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}\n\n{CLI_USAGE}");
    std::process::exit(2);
}

fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        println!("{CLI_USAGE}");
        return;
    }
    let parsed = cli_args(&args).unwrap_or_else(|e| usage_error(e));
    let addr = match parsed
        .addr
        .or_else(|| std::env::var("HARL_SERVE_ADDR").ok())
    {
        Some(addr) if !addr.trim().is_empty() => addr,
        // a blank `--addr` is refused by `cli_args`
        Some(_) => usage_error("HARL_SERVE_ADDR is set but empty"),
        None => usage_error("no daemon address: pass --addr or set HARL_SERVE_ADDR"),
    };
    let client = Client::new(addr.clone());
    match parsed.command {
        CliCommand::Submit { spec, watch } => submit(&client, &spec, watch),
        CliCommand::Status(id) => {
            let view = client.status(&id).unwrap_or_else(|e| die(e));
            print_view(&view);
        }
        CliCommand::Result(id) => {
            let outcome = client.result(&id).unwrap_or_else(|e| die(e));
            println!("{}", outcome.metrics_line());
        }
        CliCommand::Watch(id) => watch(&client, &id),
        CliCommand::Cancel(id) => {
            client.cancel(&id).unwrap_or_else(|e| die(e));
            println!("cancel requested for {id}");
        }
        CliCommand::List => {
            for view in client.list().unwrap_or_else(|e| die(e)) {
                print_view(&view);
            }
        }
        CliCommand::Metrics => {
            print!("{}", client.metrics().unwrap_or_else(|e| die(e)));
        }
        CliCommand::BenchLoad { cfg, out } => bench(&addr, &cfg, out),
        CliCommand::Shutdown => {
            client.shutdown().unwrap_or_else(|e| die(e));
            println!("shutdown requested");
        }
    }
}

fn submit(client: &Client, spec: &JobSpec, watch_it: bool) {
    let id = client.submit(spec).unwrap_or_else(|e| die(e));
    println!("submitted {id}");
    if watch_it {
        watch(client, &id);
    }
}

fn bench(addr: &str, cfg: &BenchLoadConfig, out: Option<String>) {
    let report = bench_load::run(addr, cfg).unwrap_or_else(|e| die(e));
    let json = report.to_json();
    match out {
        Some(path) => {
            std::fs::write(&path, format!("{json}\n")).unwrap_or_else(|e| die(e));
            eprintln!("bench-load report written to {path}");
        }
        None => println!("{json}"),
    }
}

fn watch(client: &Client, id: &str) {
    let mut last = (JobState::Queued, u64::MAX);
    let outcome = client
        .wait(id, Duration::from_millis(100), |view| {
            let now = (view.state, view.trials_used);
            if now != last {
                print_view(view);
                last = now;
            }
        })
        .unwrap_or_else(|e| die(e));
    println!("{}", outcome.metrics_line());
}

fn print_view(view: &JobView) {
    let best = if view.best_latency_ms.is_finite() {
        format!("{:.3} ms", view.best_latency_ms)
    } else {
        "-".to_string()
    };
    let mut line = format!(
        "{} {:9} {} tuner={} prio={} trials={}/{} rounds={} best={best}",
        view.id,
        view.state.name(),
        view.workload,
        view.tuner,
        view.priority,
        view.trials_used,
        view.trials_total,
        view.rounds_done,
    );
    if view.warm_records > 0 {
        line.push_str(&format!(" warm={}", view.warm_records));
    }
    if view.resumed {
        line.push_str(" resumed");
    }
    if let Some(s) = &view.score_stats {
        line.push_str(&format!(
            " score_batches={} scored={}",
            s.batch_count, s.scored
        ));
    }
    if let Some(err) = &view.error {
        line.push_str(&format!(" error={err}"));
    }
    println!("{line}");
}
