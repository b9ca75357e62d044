//! The command lines of every program in this repository: the binaries
//! `harl-serve`, `harl-cli`, `harl-trace`, `lint-schedules` and
//! `experiments`, and the examples `quickstart` and `tune_bert`. Each one
//! is a [`Program`]: a usage text and a reader from its arguments to its
//! typed input, all written against one grammar:
//!
//! * `--name VALUE`, each flag at most once; only `harl-serve --peer`
//!   repeats. A flag's value is the argument after it, whatever it is.
//! * Positionals are declared per program (experiment names, the trace
//!   path, the fuzz count, `harl-cli`'s command and its `JOB_ID` or
//!   `WORKLOAD`); one more is an error.
//! * A blank value or positional is refused.
//! * Values are read by type: a positive integer, an integer (0 only
//!   where the usage says "0 disables" or any seed goes), a finite
//!   positive number, or a percentage in [0, 100].
//! * `-h`/`--help` anywhere prints the usage text to stdout and exits 0;
//!   any other fault prints `error: …`, a blank line and the usage text to
//!   stderr and exits 2 ([`Program::args`]).
//!
//! No program reads an input from the environment: the only `HARL_*`
//! names are the library-wide `HARL_SIMD`, `HARL_TRACE` and
//! `HARL_TRACE_FILE`.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

use harl_serve::{BenchLoadConfig, JobSpec, Preset, ServeConfig, TunerKind, WorkloadSpec};
use harl_verify::LintCode;

/// One program's command line: its usage text and the reader of its
/// arguments.
pub struct Program<T> {
    /// What `--help` prints and every fault is followed by.
    pub usage: &'static str,
    read: fn(&[String]) -> Result<T, String>,
}

impl<T> Program<T> {
    /// Reads `args`, the arguments after the program name (`--help` is
    /// [`Program::args`]'s to answer).
    pub fn parse(&self, args: &[String]) -> Result<T, String> {
        (self.read)(args)
    }

    /// Reads the process's own arguments, or exits: 0 after printing the
    /// usage text for `-h`/`--help`, 2 after printing `error: …` and the
    /// usage text for any fault.
    pub fn args(&self) -> T {
        let args: Vec<String> = std::env::args_os()
            .skip(1)
            .map(|arg| arg.into_string())
            .collect::<Result<_, _>>()
            .unwrap_or_else(|arg| self.fail(format!("argument {arg:?} is not UTF-8")));
        if args.iter().any(|a| a == "-h" || a == "--help") {
            println!("{}", self.usage);
            std::process::exit(0);
        }
        self.parse(&args).unwrap_or_else(|e| self.fail(e))
    }

    fn fail(&self, msg: impl Display) -> ! {
        eprintln!("error: {msg}\n\n{}", self.usage);
        std::process::exit(2);
    }
}

/// A command line read against a flag table: the values of the flags
/// given (a switch's is empty) and the positionals in order.
struct Parsed {
    flags: BTreeMap<String, Vec<String>>,
    positionals: Vec<String>,
}

/// Reads `args` against `flags`, a flag table written the way a usage
/// line is: `--name` alone is a switch, `--name VALUE` takes a value, and
/// `--name VALUE...` takes one each time it is given. At most
/// `positionals` of the arguments may be something other than a flag.
fn parse(args: &[String], flags: &str, positionals: usize) -> Result<Parsed, String> {
    let mut parsed = Parsed {
        flags: BTreeMap::new(),
        positionals: Vec::new(),
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with('-') {
            if arg.trim().is_empty() {
                return Err(format!("a blank argument `{arg}`"));
            }
            if parsed.positionals.len() == positionals {
                return Err(format!("unexpected argument `{arg}`"));
            }
            parsed.positionals.push(arg.clone());
            continue;
        }
        let mut table = flags.split_whitespace().peekable();
        let metavar = loop {
            let name = table
                .next()
                .ok_or_else(|| format!("unknown flag `{arg}`"))?;
            let metavar = table.next_if(|word| !word.starts_with("--"));
            if name == arg {
                break metavar;
            }
        };
        let value = match metavar {
            None => String::new(),
            Some(_) => {
                let value = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
                if value.trim().is_empty() {
                    return Err(format!("{arg} needs a value, got a blank `{value}`"));
                }
                value.clone()
            }
        };
        let values = parsed.flags.entry(arg.clone()).or_default();
        if !values.is_empty() && !metavar.is_some_and(|m| m.ends_with("...")) {
            return Err(format!("{arg} given twice"));
        }
        values.push(value);
    }
    Ok(parsed)
}

/// `text` read as a `T` that passes `ok`, or an error naming `name` and
/// what it must be.
fn read<T: FromStr>(
    name: &str,
    text: &str,
    what: &str,
    ok: impl Fn(&T) -> bool,
) -> Result<T, String> {
    (text.parse().ok().filter(|v| ok(v)))
        .ok_or_else(|| format!("{name} must be {what}, got `{text}`"))
}

impl Parsed {
    fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(|values| values[0].as_str())
    }

    fn values(&self, name: &str) -> &[String] {
        self.flags.get(name).map_or(&[], Vec::as_slice)
    }

    fn read<T: FromStr>(
        &self,
        name: &str,
        what: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, String> {
        self.value(name)
            .map(|text| read(name, text, what, ok))
            .transpose()
    }

    fn positive<T: FromStr + PartialOrd + Default>(&self, name: &str) -> Result<Option<T>, String> {
        self.read(name, "a positive integer", |n| *n > T::default())
    }

    fn number(&self, name: &str) -> Result<Option<f64>, String> {
        self.read(name, "a finite number > 0", |x: &f64| {
            x.is_finite() && *x > 0.0
        })
    }
}

/// `harl-serve`: the daemon's configuration.
pub const SERVE: Program<ServeConfig> = Program {
    usage: "\
usage: harl-serve --root DIR [--addr HOST:PORT] [--workers N] [--queue-cap N]
                  [--peer HOST:PORT]... [--sync-ms N]
N is a positive integer; --peer may repeat, every other flag is given once.",
    read: harl_serve,
};

/// `--root` is required; `--workers`, `--queue-cap` and `--sync-ms` are
/// positive: 0 workers or queue slots would serve nothing, and a 0 ms
/// sync pause would re-pull every peer with no pause at all.
fn harl_serve(args: &[String]) -> Result<ServeConfig, String> {
    let flags =
        "--root DIR --addr HOST:PORT --workers N --queue-cap N --peer HOST:PORT... --sync-ms N";
    let p = parse(args, flags, 0)?;
    let mut cfg = ServeConfig::new(p.value("--root").ok_or("--root is required")?);
    if let Some(addr) = p.value("--addr") {
        cfg.addr = addr.to_string();
    }
    cfg.workers = p.positive("--workers")?.unwrap_or(cfg.workers);
    cfg.queue_capacity = p.positive("--queue-cap")?.unwrap_or(cfg.queue_capacity);
    if let Some(ms) = p.positive("--sync-ms")? {
        cfg.sync_interval = Duration::from_millis(ms);
    }
    cfg.peers = p.values("--peer").to_vec();
    Ok(cfg)
}

/// `harl-cli`: the daemon to ask, and what.
pub const CLIENT: Program<Cli> = Program {
    usage: "\
usage: harl-cli --addr HOST:PORT <command>
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
--addr may stand anywhere. N is a positive integer, except that 0 disables
--submit-every and --list-every; P is an integer and MS a number > 0.
WORKLOAD is e.g. gemm:1024x1024x1024, bgemm:8x128x64x128,
conv2d:1x56x56x64x64x3x1x1, or softmax:1024x1024",
    read: harl_cli,
};

/// One parsed `harl-cli` invocation.
#[derive(Debug, Clone)]
pub struct Cli {
    /// The daemon's `HOST:PORT`.
    pub addr: String,
    /// What to ask it.
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

/// The command is the first argument that is not `--addr` or its value;
/// the rest are read against that command's table, in which `--addr`
/// stands too. A job spec the daemon would refuse is refused here.
fn harl_cli(args: &[String]) -> Result<Cli, String> {
    let mut at = 0;
    while args.get(at).is_some_and(|a| a == "--addr") {
        at += 2;
    }
    let command = match args.get(at) {
        Some(command) => command.as_str(),
        None if at > args.len() => return Err("--addr needs a value".into()),
        None => return Err("no command given".into()),
    };
    let (flags, positionals) = match command {
        "submit" => (
            "--searcher NAME --finetune --preset NAME --hardware NAME --trials N --priority P \
             --target-ms MS --watch",
            1,
        ),
        "status" | "result" | "watch" | "cancel" => ("", 1),
        "list" | "metrics" | "shutdown" => ("", 0),
        "bench-load" => (
            "--clients N --requests N --submit-every N --list-every N --smoke --out FILE",
            0,
        ),
        other => return Err(format!("unknown command `{other}`")),
    };
    let rest = [&args[..at], &args[at + 1..]].concat();
    let p = parse(&rest, &format!("--addr HOST:PORT {flags}"), positionals)?;
    let addr =
        (p.value("--addr").map(String::from)).ok_or("no daemon address: pass --addr HOST:PORT")?;
    let positional = |what: &str| {
        (p.positionals.first().cloned()).ok_or_else(|| format!("{command} needs a {what}"))
    };
    let command = match command {
        "submit" => {
            let spec = JobSpec {
                workload: WorkloadSpec::parse(&positional("WORKLOAD")?)?,
                tuner: p
                    .value("--searcher")
                    .map_or(Ok(TunerKind::Harl), TunerKind::parse)?,
                preset: p
                    .value("--preset")
                    .map_or(Ok(Preset::Fast), Preset::parse)?,
                hardware: p.value("--hardware").unwrap_or("cpu").to_string(),
                trials: p.positive("--trials")?.unwrap_or(160),
                priority: p.read("--priority", "an integer", |_| true)?.unwrap_or(0),
                target_ms: p.number("--target-ms")?,
                parallelism: None,
                finetune: p.has("--finetune"),
            };
            spec.validate()?;
            CliCommand::Submit {
                spec,
                watch: p.has("--watch"),
            }
        }
        "status" => CliCommand::Status(positional("JOB_ID")?),
        "result" => CliCommand::Result(positional("JOB_ID")?),
        "watch" => CliCommand::Watch(positional("JOB_ID")?),
        "cancel" => CliCommand::Cancel(positional("JOB_ID")?),
        "list" => CliCommand::List,
        "metrics" => CliCommand::Metrics,
        "shutdown" => CliCommand::Shutdown,
        _ => {
            let base = BenchLoadConfig::default();
            let every = |name| p.read(name, "an integer (0 disables)", |_: &usize| true);
            let cfg = BenchLoadConfig {
                clients: p.positive("--clients")?.unwrap_or(base.clients),
                requests: p.positive("--requests")?.unwrap_or(base.requests),
                submit_every: every("--submit-every")?.unwrap_or(base.submit_every),
                list_every: every("--list-every")?.unwrap_or(base.list_every),
                smoke: p.has("--smoke"),
            };
            let out = p.value("--out").map(String::from);
            CliCommand::BenchLoad { cfg, out }
        }
    };
    Ok(Cli { addr, command })
}

/// `harl-trace`: the trace to summarize and its coverage gate.
pub const TRACE: Program<Trace> = Program {
    usage: "\
usage: harl-trace <trace.jsonl> [--min-coverage PCT]
PCT is a percentage in [0, 100]; below it the exit status is 1.",
    read: harl_trace,
};

/// A parsed `harl-trace` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The `trace.jsonl` to read.
    pub path: String,
    /// `--min-coverage`.
    pub min_coverage: Option<f64>,
}

/// The gate is a finite percentage in [0, 100]: `nan` would pass every
/// trace (no coverage is below it), and a value out of range could never
/// fail or never pass.
fn harl_trace(args: &[String]) -> Result<Trace, String> {
    let p = parse(args, "--min-coverage PCT", 1)?;
    let min_coverage = p.read("--min-coverage", "a percentage in [0, 100]", |pct| {
        (0.0..=100.0).contains(pct)
    })?;
    let path = p
        .positionals
        .first()
        .cloned()
        .ok_or("no trace file given")?;
    Ok(Trace { path, min_coverage })
}

/// `lint-schedules`: fuzz the analyzer, or explain one code.
pub const LINT_SCHEDULES: Program<LintSchedules> = Program {
    usage: "\
usage: lint-schedules [SCHEDULES]     fuzz SCHEDULES per sketch per population
                                      (a positive integer, default 150)
       lint-schedules --explain CODE  describe a V001..V006 or C001..C005 code",
    read: lint_schedules,
};

/// What `lint-schedules` is asked to do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LintSchedules {
    /// Fuzz this many schedules per sketch per population.
    Fuzz(usize),
    /// Print the long description of a code.
    Explain(LintCode),
}

fn lint_schedules(args: &[String]) -> Result<LintSchedules, String> {
    let p = parse(args, "--explain CODE", 1)?;
    match (p.value("--explain"), p.positionals.first()) {
        (Some(_), Some(count)) => Err(format!("unexpected argument `{count}` beside --explain")),
        (Some(code), None) => LintCode::from_code(code)
            .map(LintSchedules::Explain)
            .ok_or_else(|| {
                let known: Vec<String> = LintCode::ALL
                    .iter()
                    .map(|c| format!("{} {}", c.code(), c.name()))
                    .collect();
                format!(
                    "unknown lint code `{code}`; known codes: {}",
                    known.join(", ")
                )
            }),
        (None, None) => Ok(LintSchedules::Fuzz(150)),
        (None, Some(count)) => {
            read("SCHEDULES", count, "a positive integer", |n| *n > 0).map(LintSchedules::Fuzz)
        }
    }
}

/// Every experiment name, in the order of the usage text, separated by
/// spaces.
pub const EXPERIMENT_NAMES: &str = "fig1a fig1b fig1c fig5 fig6 fig7a fig7b fig8 fig9 fig10 \
                                    table4 table7 table8 ablation tournament";

/// `experiments`: which of the paper's figures and tables to regenerate,
/// at what scale, and where their JSON goes.
pub const EXPERIMENTS: Program<Experiments> = Program {
    usage: "\
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
  tournament          five searchers per operator class, then fine-tuning
                      (fixed searcher configs: --seed does not apply)

OPTIONS (each at most once; --paper applies first, whatever the order)
  --paper             paper-scale budgets (1000 trials/operator, 12k-22k/network)
  --trials N          trials per operator run (a positive integer)
  --net-trials N      trials per network run (a positive integer)
  --seed S            RNG seed, any integer in [0, 2^64) (default 2026)
  --out DIR           JSON output directory (default results/)",
    read: experiments,
};

/// A parsed `experiments` command line. The scale options are kept apart
/// from the scale they adjust, so `--paper` applies first whatever the
/// order they were given in.
#[derive(Debug, Clone, PartialEq)]
pub struct Experiments {
    /// The experiments to run; `all` (or no name) is every one.
    pub names: BTreeSet<&'static str>,
    /// `--paper`.
    pub paper: bool,
    /// `--trials`.
    pub trials: Option<u64>,
    /// `--net-trials`.
    pub net_trials: Option<u64>,
    /// `--seed`.
    pub seed: Option<u64>,
    /// `--out`, `results` by default.
    pub out: PathBuf,
}

/// A zero trial budget is refused: it would run nothing and write empty
/// curves over the results in `--out`.
fn experiments(args: &[String]) -> Result<Experiments, String> {
    let flags = "--paper --trials N --net-trials N --seed S --out DIR";
    let p = parse(args, flags, usize::MAX)?;
    let every = || EXPERIMENT_NAMES.split_whitespace();
    let mut names = BTreeSet::new();
    for name in &p.positionals {
        match every().find(|e| e == name) {
            Some(e) => {
                names.insert(e);
            }
            None if name == "all" => names.extend(every()),
            None => return Err(format!("unknown experiment `{name}`")),
        }
    }
    if names.is_empty() {
        names.extend(every());
    }
    Ok(Experiments {
        names,
        paper: p.has("--paper"),
        trials: p.positive("--trials")?,
        net_trials: p.positive("--net-trials")?,
        seed: p.read("--seed", "an integer in [0, 2^64)", |_| true)?,
        out: PathBuf::from(p.value("--out").unwrap_or("results")),
    })
}

/// The `quickstart` example: where to keep its records, and the latency
/// to count trials to.
pub const QUICKSTART: Program<Quickstart> = Program {
    usage: "\
usage: quickstart [--store DIR] [--target-ms MS]
  --store DIR      keep the measurement records and the session checkpoint in
                   DIR: a second run warm-starts from the first (or resumes it)
  --target-ms MS   also report trials_to_target, the trials it took to reach
                   MS milliseconds (a number > 0)",
    read: quickstart,
};

/// A parsed `quickstart` command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Quickstart {
    /// `--store`.
    pub store: Option<PathBuf>,
    /// `--target-ms`.
    pub target_ms: Option<f64>,
}

fn quickstart(args: &[String]) -> Result<Quickstart, String> {
    let p = parse(args, "--store DIR --target-ms MS", 0)?;
    Ok(Quickstart {
        store: p.value("--store").map(PathBuf::from),
        target_ms: p.number("--target-ms")?,
    })
}

/// The `tune_bert` example: its trial budget.
pub const TUNE_BERT: Program<u64> = Program {
    usage: "\
usage: tune_bert [--trials N]
  --trials N   the network's trial budget, a positive integer (default 640)",
    read: tune_bert,
};

fn tune_bert(args: &[String]) -> Result<u64, String> {
    let p = parse(args, "--trials N", 0)?;
    Ok(p.positive("--trials")?.unwrap_or(640))
}
