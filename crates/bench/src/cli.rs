//! The `experiments` command line: which experiments to run, at what scale,
//! and where their JSON goes.

use std::collections::BTreeSet;
use std::path::PathBuf;

use crate::scale::Scale;

/// Every experiment name, separated by spaces.
pub const EXPERIMENTS: &str = "fig1a fig1b fig1c fig5 fig6 fig7a fig7b fig8 fig9 fig10 \
                               table4 table7 table8 ablation tournament";

pub const HELP: &str = "\
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
  --trials N          trials per operator run
  --net-trials N      trials per network run
  --seed S            RNG seed (default 2026)
  --out DIR           JSON output directory (default results/)
";

/// A parsed `experiments` command line.
#[derive(Debug)]
pub struct Args {
    /// `--help` / `-h` was given: print [`HELP`] and run nothing.
    pub help: bool,
    pub scale: Scale,
    pub out_dir: PathBuf,
    /// The experiments to run; `all` (or no name) is every one.
    pub experiments: BTreeSet<&'static str>,
}

/// Parses the arguments after the program name. An unknown experiment or
/// flag, a repeated flag and a missing or malformed value are errors.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = args.into_iter();
    let mut seen = BTreeSet::new();
    let (mut paper, mut help) = (false, false);
    let (mut trials, mut net_trials, mut seed, mut out_dir) = (None, None, None, None);
    let mut experiments = BTreeSet::new();
    while let Some(arg) = args.next() {
        let flag = arg.as_str();
        if flag.starts_with('-') && !seen.insert(arg.clone()) {
            return Err(format!("{flag} given twice"));
        }
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag {
            "--help" | "-h" => help = true,
            "--paper" => paper = true,
            "--trials" => trials = Some(number(flag, value()?)?),
            "--net-trials" => net_trials = Some(number(flag, value()?)?),
            "--seed" => seed = Some(number(flag, value()?)?),
            "--out" => out_dir = Some(PathBuf::from(value()?)),
            "all" => experiments.extend(EXPERIMENTS.split_whitespace()),
            name => match EXPERIMENTS.split_whitespace().find(|e| *e == name) {
                Some(e) => {
                    experiments.insert(e);
                }
                None if name.starts_with('-') => return Err(format!("unknown flag {name}")),
                None => return Err(format!("unknown experiment {name}")),
            },
        }
    }
    let mut scale = if paper { Scale::paper() } else { Scale::fast() };
    scale.op_trials = trials.unwrap_or(scale.op_trials);
    scale.net_trials = net_trials.or(scale.net_trials);
    scale.seed = seed.unwrap_or(scale.seed);
    if experiments.is_empty() {
        experiments.extend(EXPERIMENTS.split_whitespace());
    }
    Ok(Args {
        help,
        scale,
        out_dir: out_dir.unwrap_or_else(|| PathBuf::from("results")),
        experiments,
    })
}

fn number(flag: &str, text: String) -> Result<u64, String> {
    text.parse()
        .map_err(|e| format!("{flag} `{text}` is not a number: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn faults_are_errors_naming_their_argument() {
        for (line, expected) in [
            ("fig55", "unknown experiment fig55"),
            ("fig5 --fast", "unknown flag --fast"),
            ("--trials", "--trials needs a value"),
            ("--net-trials", "--net-trials needs a value"),
            ("--seed", "--seed needs a value"),
            ("fig5 --out", "--out needs a value"),
            ("--trials x", "--trials `x` is not a number"),
            ("--seed -1", "--seed `-1` is not a number"),
            ("--trials 48 --trials 96", "--trials given twice"),
            ("--paper fig5 --paper", "--paper given twice"),
        ] {
            let err = parse(line).expect_err(line);
            assert!(err.contains(expected), "`{line}`: {err}");
        }
    }

    #[test]
    fn paper_applies_before_overrides_in_any_order() {
        for line in [
            "--trials 48 --seed 7 --paper",
            "--paper --trials 48 --seed 7",
        ] {
            let a = parse(line).unwrap();
            assert!(a.scale.paper, "{line}");
            assert_eq!(a.scale.op_trials, 48, "{line}");
            assert_eq!(a.scale.seed, 7, "{line}");
            assert_eq!(a.scale.shapes_per_class, 4, "{line}");
        }
        let a = parse("--net-trials 300").unwrap();
        assert_eq!(a.scale.net_trials, Some(300));
        assert_eq!(a.scale.op_trials, Scale::fast().op_trials);
    }

    #[test]
    fn names_select_experiments_and_none_means_all() {
        let a = parse("tournament fig5 --out /tmp/r").unwrap();
        assert_eq!(a.experiments, BTreeSet::from(["fig5", "tournament"]));
        assert_eq!(a.out_dir, PathBuf::from("/tmp/r"));
        assert!(!a.help);
        let every = EXPERIMENTS.split_whitespace().collect::<BTreeSet<_>>();
        assert_eq!(every.len(), 15);
        assert_eq!(parse("").unwrap().experiments, every);
        assert_eq!(parse("fig5 all").unwrap().experiments, every);
        assert!(parse("-h").unwrap().help);
    }
}
