//! Every program's command line, through `harl_repro::cli`: the binaries
//! are run with a faulty argument of each kind and with `--help`, and each
//! program's reader is checked for what it makes of good arguments and
//! which bad ones it refuses. A faulty argument exits before a program
//! opens a store or starts a daemon, so nothing here does either.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

use harl_repro::cli::{
    CliCommand, Experiments, LintSchedules, Program, Trace, CLIENT, EXPERIMENTS, EXPERIMENT_NAMES,
    LINT_SCHEDULES, SERVE, TRACE, TUNE_BERT,
};
use harl_repro::serve::{Preset, TunerKind, WorkloadSpec};
use harl_repro::verify::LintCode;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|a| a.to_string()).collect()
}

/// Asserts that `program` refuses each argument list with an error that
/// contains its reason.
fn refuses<T: std::fmt::Debug>(program: &Program<T>, rows: &[(&[&str], &str)]) {
    for (list, reason) in rows {
        match program.parse(&args(list)) {
            Err(e) => assert!(
                e.contains(reason),
                "{list:?}: `{e}` does not name `{reason}`"
            ),
            Ok(parsed) => panic!("{list:?} was accepted as {parsed:?}"),
        }
    }
}

/// Rows built at run time, as [`refuses`] reads them.
fn slices<'a>(rows: &'a [(Vec<&'a str>, &'a str)]) -> Vec<(&'a [&'a str], &'a str)> {
    rows.iter()
        .map(|(list, reason)| (list.as_slice(), *reason))
        .collect()
}

#[test]
fn faulty_arguments_exit_2_with_the_usage_text_and_help_exits_0() {
    let binaries = [
        (env!("CARGO_BIN_EXE_harl-serve"), SERVE.usage),
        (env!("CARGO_BIN_EXE_harl-cli"), CLIENT.usage),
        (env!("CARGO_BIN_EXE_harl-trace"), TRACE.usage),
        (env!("CARGO_BIN_EXE_lint-schedules"), LINT_SCHEDULES.usage),
    ];
    // per binary: an unknown flag, a repeated flag, a missing value, a
    // malformed value and a blank value, each with what its error names
    let faults: [&[(&[&str], &str)]; 4] = [
        &[
            (
                &["--root", "r", "--threads", "4"],
                "unknown flag `--threads`",
            ),
            (&["--root", "r", "--root", "s"], "--root given twice"),
            (&["--root", "r", "--sync-ms"], "--sync-ms needs a value"),
            (
                &["--root", "r", "--workers", "0"],
                "--workers must be a positive integer, got `0`",
            ),
            (
                &["--root", "r", "--peer", ""],
                "--peer needs a value, got a blank",
            ),
        ],
        &[
            (
                &["--addr", "h:1", "submit", "gemm:64x64x64", "--threads", "4"],
                "unknown flag `--threads`",
            ),
            (
                &[
                    "--addr",
                    "h:1",
                    "submit",
                    "gemm:64x64x64",
                    "--watch",
                    "--watch",
                ],
                "--watch given twice",
            ),
            (
                &["--addr", "h:1", "submit", "gemm:64x64x64", "--trials"],
                "--trials needs a value",
            ),
            (
                &[
                    "--addr",
                    "h:1",
                    "submit",
                    "gemm:64x64x64",
                    "--trials",
                    "abc",
                ],
                "--trials must be a positive integer, got `abc`",
            ),
            (
                &["--addr", " ", "list"],
                "--addr needs a value, got a blank",
            ),
        ],
        &[
            (
                &["t.jsonl", "--max-coverage", "95"],
                "unknown flag `--max-coverage`",
            ),
            (
                &["t.jsonl", "--min-coverage", "95", "--min-coverage", "50"],
                "--min-coverage given twice",
            ),
            (
                &["t.jsonl", "--min-coverage"],
                "--min-coverage needs a value",
            ),
            (
                &["t.jsonl", "--min-coverage", "nan"],
                "--min-coverage must be a percentage in [0, 100], got `nan`",
            ),
            (
                &["t.jsonl", "--min-coverage", ""],
                "--min-coverage needs a value, got a blank",
            ),
        ],
        &[
            (&["--fast"], "unknown flag `--fast`"),
            (
                &["--explain", "V001", "--explain", "V002"],
                "--explain given twice",
            ),
            (&["--explain"], "--explain needs a value"),
            (&["abc"], "SCHEDULES must be a positive integer, got `abc`"),
            (&["--explain", " "], "--explain needs a value, got a blank"),
        ],
    ];
    for ((bin, usage), rows) in binaries.iter().zip(faults) {
        for (list, reason) in rows {
            let out = Command::new(bin).args(*list).output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin} {list:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{bin} {list:?} printed to stdout");
            assert_eq!(
                stderr,
                format!("error: {}\n\n{usage}\n", reason_line(&stderr)),
                "{bin} {list:?}"
            );
            assert!(
                stderr.contains(reason),
                "{bin} {list:?}: `{stderr}` does not name `{reason}`"
            );
        }
        // --help anywhere, even beside a fault
        for list in [&["--help"][..], &["-h"], &["--bogus", "--help"]] {
            let out = Command::new(bin).args(list).output().unwrap();
            assert_eq!(out.status.code(), Some(0), "{bin} {list:?}");
            assert_eq!(
                String::from_utf8_lossy(&out.stdout),
                format!("{usage}\n"),
                "{bin} {list:?}"
            );
            assert!(out.stderr.is_empty(), "{bin} {list:?} printed to stderr");
        }
    }
}

/// The text after `error: ` on the first line of `stderr`.
fn reason_line(stderr: &str) -> &str {
    let line = stderr.lines().next().unwrap_or_default();
    line.strip_prefix("error: ").unwrap_or(line)
}

#[test]
fn harl_serve_flags_are_taken_as_given_or_refused() {
    let cfg = SERVE.parse(&args(&["--root", "r"])).unwrap();
    assert_eq!(cfg.root, PathBuf::from("r"));
    assert_eq!(cfg.addr, "127.0.0.1:0");
    assert_eq!((cfg.workers, cfg.queue_capacity), (2, 16), "the defaults");
    assert!(cfg.peers.is_empty());

    let cfg = SERVE
        .parse(&args(&[
            "--workers",
            "3",
            "--root",
            "r",
            "--addr",
            "127.0.0.1:7000",
            "--queue-cap",
            "5",
            "--peer",
            "a:1",
            "--sync-ms",
            "250",
            "--peer",
            "b:2",
        ]))
        .unwrap();
    assert_eq!(cfg.addr, "127.0.0.1:7000");
    assert_eq!((cfg.workers, cfg.queue_capacity), (3, 5));
    assert_eq!(cfg.sync_interval, Duration::from_millis(250));
    assert_eq!(cfg.peers, ["a:1", "b:2"], "--peer repeats, in order");

    refuses(
        &SERVE,
        &[
            (&[], "--root is required"),
            (&["--workers", "2"], "--root is required"),
            (
                &["--root", "r", "--workers", "0"],
                "--workers must be a positive integer, got `0`",
            ),
            (
                &["--root", "r", "--queue-cap", "0"],
                "--queue-cap must be a positive integer",
            ),
            (
                &["--root", "r", "--sync-ms", "0"],
                "--sync-ms must be a positive integer",
            ),
            (
                &["--root", "r", "--workers", "-1"],
                "--workers must be a positive integer, got `-1`",
            ),
            (
                &["--root", "r", "--workers", "two"],
                "--workers must be a positive integer, got `two`",
            ),
            (
                &["--root", "r", "--queue-cap", ""],
                "--queue-cap needs a value, got a blank",
            ),
            (&["--root", "r", "--root", "s"], "--root given twice"),
            (
                &[
                    "--root",
                    "r",
                    "--addr",
                    "127.0.0.1:1",
                    "--addr",
                    "127.0.0.1:2",
                ],
                "--addr given twice",
            ),
            (
                &["--root", "r", "--workers", "2", "--workers", "3"],
                "--workers given twice",
            ),
            (&["--root"], "--root needs a value"),
            (&["--root", "r", "--addr"], "--addr needs a value"),
            (&["--root", "r", "--sync-ms"], "--sync-ms needs a value"),
            (
                &["--root", "r", "--threads", "4"],
                "unknown flag `--threads`",
            ),
            (&["--root", "r", "extra"], "unexpected argument `extra`"),
            (&["--root", ""], "--root needs a value, got a blank"),
            (
                &["--root", "r", "--addr", " "],
                "--addr needs a value, got a blank",
            ),
            (
                &["--root", "r", "--peer", ""],
                "--peer needs a value, got a blank",
            ),
        ],
    );
}

#[test]
fn harl_cli_arguments_are_taken_as_given_or_refused() {
    let parsed = CLIENT.parse(&args(&["--addr", "h:1", "list"])).unwrap();
    assert_eq!(parsed.addr, "h:1");
    assert!(matches!(parsed.command, CliCommand::List));

    // --addr before, between and after the command's own arguments
    for list in [
        &["--addr", "h:1", "submit", "gemm:64x64x64", "--trials", "8"][..],
        &["submit", "--addr", "h:1", "gemm:64x64x64", "--trials", "8"],
        &["submit", "gemm:64x64x64", "--trials", "8", "--addr", "h:1"],
    ] {
        let parsed = CLIENT.parse(&args(list)).unwrap();
        assert_eq!(parsed.addr, "h:1", "{list:?}");
        let CliCommand::Submit { spec, watch } = parsed.command else {
            panic!("{list:?} is a submit");
        };
        assert_eq!(spec.trials, 8, "{list:?}");
        assert!(!watch);
    }

    let parsed = CLIENT
        .parse(&args(&[
            "--addr",
            "h:1",
            "submit",
            "gemm:128x64x32",
            "--searcher",
            "mcts",
            "--finetune",
            "--preset",
            "tiny",
            "--hardware",
            "gpu",
            "--priority",
            "-3",
            "--target-ms",
            "0.5",
            "--watch",
        ]))
        .unwrap();
    let CliCommand::Submit { spec, watch } = parsed.command else {
        panic!("a submit");
    };
    assert_eq!(
        spec.workload,
        WorkloadSpec::Gemm {
            m: 128,
            k: 64,
            n: 32
        }
    );
    assert_eq!((spec.tuner, spec.preset), (TunerKind::Mcts, Preset::Tiny));
    assert_eq!(spec.hardware, "gpu");
    assert_eq!(
        (spec.trials, spec.priority),
        (160, -3),
        "the default budget"
    );
    assert_eq!(spec.target_ms, Some(0.5));
    assert!(spec.finetune && watch);

    let parsed = CLIENT
        .parse(&args(&["watch", "j000007", "--addr", "h:2"]))
        .unwrap();
    assert_eq!(parsed.addr, "h:2");
    assert!(matches!(parsed.command, CliCommand::Watch(id) if id == "j000007"));

    let parsed = CLIENT
        .parse(&args(&[
            "--addr",
            "h:1",
            "bench-load",
            "--clients",
            "2",
            "--requests",
            "40",
            "--submit-every",
            "0",
            "--smoke",
            "--out",
            "r.json",
        ]))
        .unwrap();
    let CliCommand::BenchLoad { cfg, out } = parsed.command else {
        panic!("a bench-load");
    };
    assert_eq!((cfg.clients, cfg.requests, cfg.submit_every), (2, 40, 0));
    assert_eq!(cfg.list_every, 10, "the default mix");
    assert!(cfg.smoke);
    assert_eq!(out.as_deref(), Some("r.json"));

    let submit = |rest: &[&'static str]| {
        let mut list = vec!["--addr", "h:1", "submit", "gemm:64x64x64"];
        list.extend_from_slice(rest);
        list
    };
    let rows: Vec<(Vec<&str>, &str)> = vec![
        (vec![], "no command"),
        (vec!["--addr", "h:1"], "no command"),
        (vec!["--addr"], "--addr needs a value"),
        (vec!["list"], "no daemon address"),
        (
            vec!["--addr", " ", "list"],
            "--addr needs a value, got a blank",
        ),
        (
            vec!["--addr", "h:1", "list", "--addr", "h:2"],
            "--addr given twice",
        ),
        (
            vec!["--addr", "h:1", "frobnicate"],
            "unknown command `frobnicate`",
        ),
        (
            vec!["--addr", "h:1", "list", "extra"],
            "unexpected argument `extra`",
        ),
        (
            vec!["--addr", "h:1", "shutdown", "--watch"],
            "unknown flag `--watch`",
        ),
        (vec!["--addr", "h:1", "status"], "status needs a JOB_ID"),
        (
            vec!["--addr", "h:1", "cancel", "j1", "j2"],
            "unexpected argument `j2`",
        ),
        (
            vec!["--addr", "h:1", "result", "--trials"],
            "unknown flag `--trials`",
        ),
        (vec!["--addr", "h:1", "submit"], "submit needs a WORKLOAD"),
        (
            vec!["--addr", "h:1", "submit", "--trials", "8"],
            "submit needs a WORKLOAD",
        ),
        (vec!["--addr", "h:1", "submit", "gemm:0x8"], "gemm"),
        (
            submit(&["--trials", "5", "--trials", "6"]),
            "--trials given twice",
        ),
        (submit(&["--watch", "--watch"]), "--watch given twice"),
        (
            submit(&["--searcher", "ansor", "--searcher", "ansor"]),
            "--searcher given twice",
        ),
        (submit(&["--tuner", "ansor"]), "unknown flag `--tuner`"),
        (
            submit(&["--trials", "abc"]),
            "--trials must be a positive integer, got `abc`",
        ),
        (
            submit(&["--trials", "-1"]),
            "--trials must be a positive integer, got `-1`",
        ),
        (
            submit(&["--trials", "0"]),
            "--trials must be a positive integer, got `0`",
        ),
        (submit(&["--trials"]), "--trials needs a value"),
        (
            submit(&["--priority", "high"]),
            "--priority must be an integer, got `high`",
        ),
        (
            submit(&["--target-ms", "0"]),
            "--target-ms must be a finite number > 0, got `0`",
        ),
        (
            submit(&["--target-ms", "nan"]),
            "--target-ms must be a finite number > 0, got `nan`",
        ),
        (submit(&["--searcher", "random"]), "random"),
        (submit(&["--preset", "huge"]), "huge"),
        (submit(&["--hardware", "abacus"]), "abacus"),
        (
            submit(&["--hardware", ""]),
            "--hardware needs a value, got a blank",
        ),
        (submit(&["--threads", "4"]), "unknown flag `--threads`"),
        (submit(&["extra"]), "unexpected argument `extra`"),
        (
            vec!["--addr", "h:1", "bench-load", "--clients", "0"],
            "--clients must be a positive integer",
        ),
        (
            vec!["--addr", "h:1", "bench-load", "--requests", "many"],
            "--requests must be",
        ),
        (
            vec!["--addr", "h:1", "bench-load", "--list-every", "-1"],
            "--list-every must be an integer (0 disables)",
        ),
        (
            vec!["--addr", "h:1", "bench-load", "--smoke", "--smoke"],
            "--smoke given twice",
        ),
        (
            vec!["--addr", "h:1", "bench-load", "--out"],
            "--out needs a value",
        ),
        (
            vec!["--addr", "h:1", "bench-load", "--trials", "8"],
            "unknown flag `--trials`",
        ),
    ];
    refuses(&CLIENT, &slices(&rows));
}

#[test]
fn harl_trace_min_coverage_is_one_finite_percentage_or_refused() {
    let accepted: &[(&[&str], Option<f64>)] = &[
        (&["t.jsonl"], None),
        (&["t.jsonl", "--min-coverage", "95"], Some(95.0)),
        (&["--min-coverage", "95", "t.jsonl"], Some(95.0)),
        (&["t.jsonl", "--min-coverage", "0"], Some(0.0)),
        (&["t.jsonl", "--min-coverage", "100"], Some(100.0)),
        (&["t.jsonl", "--min-coverage", "99.5"], Some(99.5)),
    ];
    for (list, min_coverage) in accepted {
        let want = Trace {
            path: "t.jsonl".into(),
            min_coverage: *min_coverage,
        };
        assert_eq!(TRACE.parse(&args(list)), Ok(want), "{list:?}");
    }
    let mut rows: Vec<(Vec<&str>, &str)> = vec![
        (
            vec!["t.jsonl", "--min-coverage", ""],
            "--min-coverage needs a value, got a blank",
        ),
        (
            vec!["t.jsonl", "--min-coverage", "95", "--min-coverage", "50"],
            "--min-coverage given twice",
        ),
        (
            vec!["t.jsonl", "--min-coverage"],
            "--min-coverage needs a value",
        ),
        (vec!["--min-coverage", "95"], "no trace file given"),
        (vec![], "no trace file given"),
        (vec!["t.jsonl", "u.jsonl"], "unexpected argument `u.jsonl`"),
        (vec![""], "a blank argument"),
    ];
    for pct in ["nan", "NaN", "inf", "-1", "100.5", "abc"] {
        rows.push((
            vec!["t.jsonl", "--min-coverage", pct],
            "--min-coverage must be a percentage in [0, 100]",
        ));
    }
    refuses(&TRACE, &slices(&rows));
}

#[test]
fn lint_schedules_count_is_a_positive_integer_or_refused() {
    let accepted: &[(&[&str], LintSchedules)] = &[
        (&[], LintSchedules::Fuzz(150)),
        (&["40"], LintSchedules::Fuzz(40)),
        (&["1"], LintSchedules::Fuzz(1)),
        (&["+7"], LintSchedules::Fuzz(7)),
        (
            &["--explain", "C005"],
            LintSchedules::Explain(LintCode::ModelCheckViolation),
        ),
        (
            &["--explain", "v001"],
            LintSchedules::Explain(LintCode::TileFactorization),
        ),
    ];
    for (list, want) in accepted {
        assert_eq!(LINT_SCHEDULES.parse(&args(list)), Ok(*want), "{list:?}");
    }
    refuses(
        &LINT_SCHEDULES,
        &[
            (&["0"], "SCHEDULES must be a positive integer, got `0`"),
            (&["-3"], "unknown flag `-3`"),
            (&["abc"], "`abc`"),
            (&["4x"], "`4x`"),
            (&["2.5"], "`2.5`"),
            (&[""], "a blank argument ``"),
            (&[" 40"], "` 40`"),
            (&["40", "extra"], "unexpected argument `extra`"),
            (
                &["--explain", "V999"],
                "unknown lint code `V999`; known codes: V001",
            ),
            (
                &["--explain", "V001", "40"],
                "unexpected argument `40` beside --explain",
            ),
        ],
    );
}

#[test]
fn experiments_arguments_are_taken_as_given_or_refused() {
    let every: BTreeSet<&str> = EXPERIMENT_NAMES.split_whitespace().collect();
    assert_eq!(every.len(), 15);
    let defaults = Experiments {
        names: every.clone(),
        paper: false,
        trials: None,
        net_trials: None,
        seed: None,
        out: PathBuf::from("results"),
    };
    assert_eq!(
        EXPERIMENTS.parse(&[]),
        Ok(defaults.clone()),
        "no name is every one"
    );
    assert_eq!(
        EXPERIMENTS.parse(&args(&["fig5", "all"])).unwrap().names,
        every
    );

    let picked = EXPERIMENTS
        .parse(&args(&["tournament", "fig5", "--out", "/tmp/r"]))
        .unwrap();
    assert_eq!(picked.names, BTreeSet::from(["fig5", "tournament"]));
    assert_eq!(picked.out, PathBuf::from("/tmp/r"));

    // --paper applies first whatever the order: the options are kept apart
    // from the scale they adjust
    let paper = Experiments {
        paper: true,
        trials: Some(48),
        seed: Some(7),
        ..defaults.clone()
    };
    for list in [
        &["--trials", "48", "--seed", "7", "--paper"][..],
        &["--paper", "--trials", "48", "--seed", "7"],
    ] {
        assert_eq!(
            EXPERIMENTS.parse(&args(list)),
            Ok(paper.clone()),
            "{list:?}"
        );
    }
    let net = EXPERIMENTS.parse(&args(&["--net-trials", "300"])).unwrap();
    assert_eq!((net.net_trials, net.trials), (Some(300), None));

    // the seed is any u64
    for seed in [0, 1, u64::MAX] {
        let list = args(&["--seed", &seed.to_string()]);
        assert_eq!(EXPERIMENTS.parse(&list).unwrap().seed, Some(seed));
    }

    refuses(
        &EXPERIMENTS,
        &[
            (&["fig55"], "unknown experiment `fig55`"),
            (&["fig5", "--fast"], "unknown flag `--fast`"),
            (&["--trials"], "--trials needs a value"),
            (&["--net-trials"], "--net-trials needs a value"),
            (&["--seed"], "--seed needs a value"),
            (&["fig5", "--out"], "--out needs a value"),
            (
                &["--trials", "x"],
                "--trials must be a positive integer, got `x`",
            ),
            (
                &["fig7a", "--trials", "0"],
                "--trials must be a positive integer, got `0`",
            ),
            (
                &["fig8", "--net-trials", "0"],
                "--net-trials must be a positive integer, got `0`",
            ),
            (
                &["--seed", "-1"],
                "--seed must be an integer in [0, 2^64), got `-1`",
            ),
            (
                &["--seed", "18446744073709551616"],
                "--seed must be an integer",
            ),
            (
                &["--trials", "48", "--trials", "96"],
                "--trials given twice",
            ),
            (&["--paper", "fig5", "--paper"], "--paper given twice"),
            (&["fig5", "--out", ""], "--out needs a value, got a blank"),
        ],
    );
}

/// The quickstart's `--store` and `--target-ms` rows are the unit tests of
/// `src/lib.rs`' `envopts` module.
#[test]
fn tune_bert_trials_are_taken_as_given_or_refused() {
    assert_eq!(TUNE_BERT.parse(&[]), Ok(640), "the default budget");
    assert_eq!(TUNE_BERT.parse(&args(&["--trials", "8"])), Ok(8));
    refuses(
        &TUNE_BERT,
        &[
            (&["abc"], "unexpected argument `abc`"),
            (
                &["--trials", "abc"],
                "--trials must be a positive integer, got `abc`",
            ),
            (
                &["--trials", "0"],
                "--trials must be a positive integer, got `0`",
            ),
            (&["--trials", "8", "--trials", "9"], "--trials given twice"),
        ],
    );
}
