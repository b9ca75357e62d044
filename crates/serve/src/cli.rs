//! The `harl-cli` command line, parsed as a library function (as
//! [`serve_args`](crate::serve_args) parses the daemon's): a flag given
//! twice, or under both of its spellings, an unknown flag or command, a
//! missing or malformed value and a job spec the daemon would refuse are
//! all usage errors, which the binary reports with [`CLI_USAGE`] and exit
//! status 2. `--addr` may stand anywhere.

use std::collections::BTreeMap;
use std::str::FromStr;

use crate::bench_load::BenchLoadConfig;
use crate::job::{JobSpec, Preset, TunerKind, WorkloadSpec};

/// The `harl-cli` usage text.
pub const CLI_USAGE: &str = "\
usage: harl-cli [--addr HOST:PORT] <command>
commands:
  submit WORKLOAD [--searcher harl|ansor|flextensor|mcts] [--finetune]
         [--preset tiny|fast|paper] [--hardware NAME] [--trials N]
         [--priority P] [--target-ms MS] [--watch]
  status JOB_ID      one job's live state
  result JOB_ID      a finished job's metrics
  watch JOB_ID       follow a job to completion
  cancel JOB_ID      stop a queued or running job
  list               all jobs
  metrics            Prometheus text dump of the daemon's metrics
  bench-load [--clients N] [--requests N] [--submit-every N]
         [--list-every N] [--smoke] [--out FILE]
                     drive the daemon with concurrent load, report p50/p99
  shutdown           checkpoint in-flight jobs and stop the daemon
--addr may stand anywhere; without it HARL_SERVE_ADDR names the daemon.
--tuner is another spelling of --searcher.
WORKLOAD is e.g. gemm:1024x1024x1024, bgemm:8x128x64x128,
conv2d:1x56x56x64x64x3x1x1, or softmax:1024x1024";

/// One parsed `harl-cli` invocation.
#[derive(Debug, Clone)]
pub struct CliArgs {
    /// The `--addr` value, if given (the binary falls back to
    /// `HARL_SERVE_ADDR`).
    pub addr: Option<String>,
    /// What to ask the daemon.
    pub command: CliCommand,
}

/// A `harl-cli` command and its arguments.
#[derive(Debug, Clone)]
pub enum CliCommand {
    /// Submit a validated job, then follow it when `watch` is set.
    Submit {
        /// The job.
        spec: JobSpec,
        /// `--watch`.
        watch: bool,
    },
    /// One job's live state.
    Status(String),
    /// A finished job's metrics.
    Result(String),
    /// Follow a job to completion.
    Watch(String),
    /// Stop a queued or running job.
    Cancel(String),
    /// All jobs.
    List,
    /// The daemon's metrics dump.
    Metrics,
    /// Drive the daemon with load; write the report to `out` or stdout.
    BenchLoad {
        /// The load mix.
        cfg: BenchLoadConfig,
        /// `--out FILE`.
        out: Option<String>,
    },
    /// Stop the daemon.
    Shutdown,
}

/// Parses `harl-cli`'s arguments (without the program name).
pub fn cli_args(args: &[String]) -> Result<CliArgs, String> {
    let mut addr = None;
    let mut rest = Vec::with_capacity(args.len());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--addr" {
            let value = it.next().ok_or("--addr needs a value")?;
            if value.trim().is_empty() {
                return Err("--addr must be HOST:PORT, got an empty value".into());
            }
            if addr.replace(value.clone()).is_some() {
                return Err(format!("--addr given twice (again as `{value}`)"));
            }
        } else {
            rest.push(arg.as_str());
        }
    }
    let (&command, rest) = rest.split_first().ok_or("no command given")?;
    let one_id = |what: fn(String) -> CliCommand| match rest {
        [id] if !id.starts_with("--") => Ok(what(id.to_string())),
        _ => Err(format!("{command} takes one JOB_ID")),
    };
    let command = match command {
        "submit" => submit(rest)?,
        "status" => one_id(CliCommand::Status)?,
        "result" => one_id(CliCommand::Result)?,
        "watch" => one_id(CliCommand::Watch)?,
        "cancel" => one_id(CliCommand::Cancel)?,
        "list" | "metrics" | "shutdown" if !rest.is_empty() => {
            return Err(format!("{command} takes no arguments, got `{}`", rest[0]))
        }
        "list" => CliCommand::List,
        "metrics" => CliCommand::Metrics,
        "shutdown" => CliCommand::Shutdown,
        "bench-load" => bench_load(rest)?,
        other => return Err(format!("unknown command `{other}`")),
    };
    Ok(CliArgs { addr, command })
}

/// The flags of one command: each given at most once, `valued` ones with
/// the argument that follows, `switches` without; `--tuner` is stored as
/// `--searcher`.
struct Flags<'a>(BTreeMap<&'a str, &'a str>);

impl<'a> Flags<'a> {
    fn parse(args: &[&'a str], valued: &[&str], switches: &[&str]) -> Result<Self, String> {
        let mut flags = BTreeMap::new();
        let mut it = args.iter();
        while let Some(&flag) = it.next() {
            let value = if valued.contains(&flag) {
                *it.next().ok_or_else(|| format!("{flag} needs a value"))?
            } else if switches.contains(&flag) {
                ""
            } else {
                return Err(format!("unknown argument `{flag}`"));
            };
            let name = if flag == "--tuner" {
                "--searcher"
            } else {
                flag
            };
            if flags.insert(name, value).is_some() {
                return Err(match name {
                    "--searcher" => "--searcher/--tuner given twice".to_string(),
                    _ => format!("{flag} given twice"),
                });
            }
        }
        Ok(Flags(flags))
    }

    fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    /// The value of `name` parsed as a `T`, if given.
    fn value<T: FromStr>(&self, name: &str, what: &str) -> Result<Option<T>, String> {
        (self.0.get(name)).map_or(Ok(None), |&value| {
            (value.parse().ok())
                .map(Some)
                .ok_or_else(|| format!("{name} must be {what}, got `{value}`"))
        })
    }
}

fn submit(args: &[&str]) -> Result<CliCommand, String> {
    let (&workload, rest) = (args.split_first())
        .filter(|(w, _)| !w.starts_with("--"))
        .ok_or("submit needs a WORKLOAD first")?;
    let flags = Flags::parse(
        rest,
        &[
            "--searcher",
            "--tuner",
            "--preset",
            "--hardware",
            "--trials",
            "--priority",
            "--target-ms",
        ],
        &["--finetune", "--watch"],
    )?;
    let named = |name: &str| flags.0.get(name).copied();
    let spec = JobSpec {
        workload: WorkloadSpec::parse(workload)?,
        tuner: named("--searcher").map_or(Ok(TunerKind::Harl), TunerKind::parse)?,
        preset: named("--preset").map_or(Ok(Preset::Fast), Preset::parse)?,
        hardware: named("--hardware").unwrap_or("cpu").to_string(),
        trials: (flags.value("--trials", "a positive integer")?).unwrap_or(160),
        priority: (flags.value("--priority", "an integer")?).unwrap_or(0),
        target_ms: flags.value("--target-ms", "a latency in ms")?,
        parallelism: None,
        finetune: flags.has("--finetune"),
    };
    spec.validate()?;
    Ok(CliCommand::Submit {
        spec,
        watch: flags.has("--watch"),
    })
}

fn bench_load(args: &[&str]) -> Result<CliCommand, String> {
    let flags = Flags::parse(
        args,
        &[
            "--clients",
            "--requests",
            "--submit-every",
            "--list-every",
            "--out",
        ],
        &["--smoke"],
    )?;
    let positive = |name: &str| -> Result<Option<usize>, String> {
        match flags.value(name, "a positive integer")? {
            Some(0) => Err(format!("{name} must be a positive integer, got `0`")),
            n => Ok(n),
        }
    };
    let every = |name: &str| flags.value::<usize>(name, "an integer (0 disables)");
    let base = BenchLoadConfig::default();
    let cfg = BenchLoadConfig {
        clients: positive("--clients")?.unwrap_or(base.clients),
        requests: positive("--requests")?.unwrap_or(base.requests),
        submit_every: every("--submit-every")?.unwrap_or(base.submit_every),
        list_every: every("--list-every")?.unwrap_or(base.list_every),
        smoke: flags.has("--smoke"),
    };
    let out = flags.0.get("--out").map(|s| s.to_string());
    Ok(CliCommand::BenchLoad { cfg, out })
}
