//! Client for a running harl-serve daemon.
//!
//! ```text
//! harl-cli --addr HOST:PORT submit WORKLOAD [--searcher T] [--finetune]
//!          [--preset P] [--hardware H] [--trials N] [--priority P]
//!          [--target-ms MS] [--watch]
//! harl-cli --addr HOST:PORT status|result|cancel|watch JOB_ID
//! harl-cli --addr HOST:PORT list
//! harl-cli --addr HOST:PORT metrics
//! harl-cli --addr HOST:PORT bench-load [--clients N] [--requests N]
//!          [--submit-every N] [--list-every N] [--smoke] [--out FILE]
//! harl-cli --addr HOST:PORT shutdown
//! ```
//!
//! `--addr` (the daemon root's `serve.addr` file holds it) may stand
//! anywhere on the line. `result` and `watch` print the
//! quickstart-compatible `metrics:` line for scripts. Arguments are read
//! by [`harl_repro::cli::CLIENT`]: any fault in them prints `error: …`
//! and the usage text and exits 2; a request the daemon answers with an
//! error exits 1.

use std::time::Duration;

use harl_repro::cli::{self, CliCommand};
use harl_serve::{bench_load, BenchLoadConfig, Client, JobSpec, JobState, JobView};

fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn main() {
    let cli::Cli { addr, command } = cli::CLIENT.args();
    let client = Client::new(addr.clone());
    match command {
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
