//! Client for a running harl-serve daemon.
//!
//! ```text
//! harl-cli [--addr HOST:PORT] submit WORKLOAD [--tuner T] [--preset P]
//!          [--hardware H] [--trials N] [--priority P] [--target-ms MS]
//!          [--score-threads N] [--ppo-threads N] [--watch]
//! harl-cli [--addr HOST:PORT] status|result|cancel|watch JOB_ID
//! harl-cli [--addr HOST:PORT] list
//! harl-cli [--addr HOST:PORT] metrics
//! harl-cli [--addr HOST:PORT] bench-load [--clients N] [--requests N]
//!          [--submit-every N] [--list-every N] [--smoke] [--out FILE]
//! harl-cli [--addr HOST:PORT] shutdown
//! ```
//!
//! The daemon address comes from `--addr` or `HARL_SERVE_ADDR` (e.g. read
//! from the daemon root's `serve.addr` file). `result` and `watch` print
//! the quickstart-compatible `metrics:` line for scripts.

use std::time::Duration;

use harl_serve::{
    bench_load, BenchLoadConfig, Client, JobSpec, JobState, JobView, ParallelismOpts, Preset,
    TunerKind, WorkloadSpec,
};

fn usage() -> ! {
    eprintln!(
        "usage: harl-cli [--addr HOST:PORT] <command>\n\
         commands:\n\
         \x20 submit WORKLOAD [--searcher harl|ansor|flextensor|mcts] [--finetune]\n\
         \x20        [--preset tiny|fast|paper] [--hardware NAME] [--trials N]\n\
         \x20        [--priority P] [--target-ms MS]\n\
         \x20        [--score-threads N] [--ppo-threads N] [--watch]\n\
         \x20 status JOB_ID      one job's live state\n\
         \x20 result JOB_ID      a finished job's metrics\n\
         \x20 watch JOB_ID       follow a job to completion\n\
         \x20 cancel JOB_ID      stop a queued or running job\n\
         \x20 list               all jobs\n\
         \x20 metrics            Prometheus text dump of the daemon's metrics\n\
         \x20 bench-load [--clients N] [--requests N] [--submit-every N]\n\
         \x20        [--list-every N] [--smoke] [--out FILE]\n\
         \x20                    drive the daemon with concurrent load, report p50/p99\n\
         \x20 shutdown           checkpoint in-flight jobs and stop the daemon\n\
         WORKLOAD is e.g. gemm:1024x1024x1024, bgemm:8x128x64x128,\n\
         conv2d:1x56x56x64x64x3x1x1, or softmax:1024x1024"
    );
    std::process::exit(2);
}

fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = std::env::var("HARL_SERVE_ADDR").ok();
    if args.first().map(String::as_str) == Some("--addr") {
        if args.len() < 2 {
            die("--addr needs a value");
        }
        addr = Some(args[1].clone());
        args.drain(0..2);
    }
    let Some(addr) = addr else {
        die("no daemon address: pass --addr or set HARL_SERVE_ADDR");
    };
    let client = Client::new(addr.clone());

    let Some(command) = args.first().cloned() else {
        usage();
    };
    let rest = &args[1..];
    match command.as_str() {
        "submit" => submit(&client, rest),
        "status" => {
            let view = client.status(one_id(rest)).unwrap_or_else(|e| die(e));
            print_view(&view);
        }
        "result" => {
            let outcome = client.result(one_id(rest)).unwrap_or_else(|e| die(e));
            println!("{}", outcome.metrics_line());
        }
        "watch" => watch(&client, one_id(rest)),
        "cancel" => {
            let id = one_id(rest);
            client.cancel(id).unwrap_or_else(|e| die(e));
            println!("cancel requested for {id}");
        }
        "list" => {
            for view in client.list().unwrap_or_else(|e| die(e)) {
                print_view(&view);
            }
        }
        "metrics" => {
            print!("{}", client.metrics().unwrap_or_else(|e| die(e)));
        }
        "bench-load" => bench(&addr, rest),
        "shutdown" => {
            client.shutdown().unwrap_or_else(|e| die(e));
            println!("shutdown requested");
        }
        _ => usage(),
    }
}

fn one_id(rest: &[String]) -> &str {
    match rest {
        [id] => id,
        _ => usage(),
    }
}

fn submit(client: &Client, rest: &[String]) {
    let Some((workload_str, flags)) = rest.split_first() else {
        usage();
    };
    let workload = WorkloadSpec::parse(workload_str).unwrap_or_else(|e| die(e));
    let mut spec = JobSpec {
        workload,
        tuner: TunerKind::Harl,
        preset: Preset::Fast,
        hardware: "cpu".to_string(),
        trials: 160,
        priority: 0,
        target_ms: None,
        parallelism: None,
        finetune: false,
    };
    let mut watch_it = false;
    let mut flags = flags.iter();
    while let Some(flag) = flags.next() {
        let mut value = |name: &str| {
            flags
                .next()
                .unwrap_or_else(|| die(format!("{name} needs a value")))
        };
        match flag.as_str() {
            // --tuner is the historical spelling; --searcher matches the
            // tournament vocabulary
            "--tuner" | "--searcher" => {
                spec.tuner = TunerKind::parse(value(flag)).unwrap_or_else(|e| die(e))
            }
            "--finetune" => spec.finetune = true,
            "--preset" => spec.preset = Preset::parse(value("--preset")).unwrap_or_else(|e| die(e)),
            "--hardware" => spec.hardware = value("--hardware").clone(),
            "--trials" => {
                spec.trials = value("--trials")
                    .parse()
                    .unwrap_or_else(|e| die(format!("--trials: {e}")))
            }
            "--priority" => {
                spec.priority = value("--priority")
                    .parse()
                    .unwrap_or_else(|e| die(format!("--priority: {e}")))
            }
            "--target-ms" => {
                spec.target_ms = Some(
                    value("--target-ms")
                        .parse()
                        .unwrap_or_else(|e| die(format!("--target-ms: {e}"))),
                )
            }
            "--score-threads" => {
                let n = value("--score-threads")
                    .parse()
                    .unwrap_or_else(|e| die(format!("--score-threads: {e}")));
                spec.parallelism
                    .get_or_insert_with(ParallelismOpts::serial)
                    .score_threads = n;
            }
            "--ppo-threads" => {
                let n = value("--ppo-threads")
                    .parse()
                    .unwrap_or_else(|e| die(format!("--ppo-threads: {e}")));
                spec.parallelism
                    .get_or_insert_with(ParallelismOpts::serial)
                    .ppo_threads = n;
            }
            "--watch" => watch_it = true,
            other => die(format!("unknown submit flag `{other}`")),
        }
    }
    spec.validate().unwrap_or_else(|e| die(e));
    let id = client.submit(&spec).unwrap_or_else(|e| die(e));
    println!("submitted {id}");
    if watch_it {
        watch(client, &id);
    }
}

fn bench(addr: &str, rest: &[String]) {
    let mut cfg = BenchLoadConfig::default();
    let mut out: Option<String> = None;
    let mut flags = rest.iter();
    while let Some(flag) = flags.next() {
        let mut value = |name: &str| {
            flags
                .next()
                .unwrap_or_else(|| die(format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--clients" => {
                cfg.clients = value("--clients")
                    .parse()
                    .unwrap_or_else(|e| die(format!("--clients: {e}")))
            }
            "--requests" => {
                cfg.requests = value("--requests")
                    .parse()
                    .unwrap_or_else(|e| die(format!("--requests: {e}")))
            }
            "--submit-every" => {
                cfg.submit_every = value("--submit-every")
                    .parse()
                    .unwrap_or_else(|e| die(format!("--submit-every: {e}")))
            }
            "--list-every" => {
                cfg.list_every = value("--list-every")
                    .parse()
                    .unwrap_or_else(|e| die(format!("--list-every: {e}")))
            }
            "--smoke" => cfg.smoke = true,
            "--out" => out = Some(value("--out").clone()),
            other => die(format!("unknown bench-load flag `{other}`")),
        }
    }
    let report = bench_load::run(addr, &cfg).unwrap_or_else(|e| die(e));
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
            " score_batches={} cache_hit_rate={:.2}",
            s.batch_count,
            s.hit_rate()
        ));
    }
    if let Some(err) = &view.error {
        line.push_str(&format!(" error={err}"));
    }
    println!("{line}");
}
