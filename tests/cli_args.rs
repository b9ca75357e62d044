//! The `harl-cli` arguments: `--addr` anywhere, every flag at most once
//! (`--tuner` and `--searcher` are one flag), and a malformed value, a
//! missing one, an unknown flag or command and a job spec the daemon would
//! refuse are usage errors (the binary exits 2 with the usage text), never
//! a silently overridden or dropped value.

use harl_repro::serve::{cli_args, CliCommand, Preset, TunerKind, WorkloadSpec};

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|a| a.to_string()).collect()
}

#[test]
fn cli_arguments_are_taken_as_given_or_refused() {
    let parsed = cli_args(&args(&["list"])).unwrap();
    assert_eq!(parsed.addr, None);
    assert!(matches!(parsed.command, CliCommand::List));

    // --addr before, between and after the command's own arguments
    for list in [
        &["--addr", "h:1", "submit", "gemm:64x64x64", "--trials", "8"][..],
        &["submit", "--addr", "h:1", "gemm:64x64x64", "--trials", "8"],
        &["submit", "gemm:64x64x64", "--trials", "8", "--addr", "h:1"],
    ] {
        let parsed = cli_args(&args(list)).unwrap();
        assert_eq!(parsed.addr.as_deref(), Some("h:1"), "{list:?}");
        let CliCommand::Submit { spec, watch } = parsed.command else {
            panic!("{list:?} is a submit");
        };
        assert_eq!(spec.trials, 8, "{list:?}");
        assert!(!watch);
    }

    let parsed = cli_args(&args(&[
        "submit",
        "gemm:128x64x32",
        "--tuner",
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

    let parsed = cli_args(&args(&["watch", "j000007", "--addr", "h:2"])).unwrap();
    assert_eq!(parsed.addr.as_deref(), Some("h:2"));
    assert!(matches!(parsed.command, CliCommand::Watch(id) if id == "j000007"));

    let parsed = cli_args(&args(&[
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

    // (arguments, what the error must name)
    let refused: &[(&[&str], &str)] = &[
        (&[], "no command"),
        (&["--addr", "h:1"], "no command"),
        (&["--addr"], "--addr needs a value"),
        (&["--addr", " ", "list"], "--addr must be HOST:PORT"),
        (
            &["--addr", "h:1", "list", "--addr", "h:2"],
            "--addr given twice",
        ),
        (&["frobnicate"], "unknown command `frobnicate`"),
        (&["list", "extra"], "list takes no arguments"),
        (&["shutdown", "--watch"], "shutdown takes no arguments"),
        (&["status"], "status takes one JOB_ID"),
        (&["cancel", "j1", "j2"], "cancel takes one JOB_ID"),
        (&["result", "--trials"], "result takes one JOB_ID"),
        (&["submit"], "submit needs a WORKLOAD"),
        (&["submit", "--trials", "8"], "submit needs a WORKLOAD"),
        (&["submit", "gemm:0x8"], "gemm"),
        (
            &["submit", "gemm:64x64x64", "--trials", "5", "--trials", "6"],
            "--trials given twice",
        ),
        (
            &["submit", "gemm:64x64x64", "--watch", "--watch"],
            "--watch given twice",
        ),
        (
            &[
                "submit",
                "gemm:64x64x64",
                "--tuner",
                "ansor",
                "--searcher",
                "mcts",
            ],
            "--searcher/--tuner given twice",
        ),
        (
            &[
                "submit",
                "gemm:64x64x64",
                "--searcher",
                "ansor",
                "--searcher",
                "ansor",
            ],
            "--searcher/--tuner given twice",
        ),
        (
            &["submit", "gemm:64x64x64", "--trials", "abc"],
            "--trials must be",
        ),
        (
            &["submit", "gemm:64x64x64", "--trials", "-1"],
            "--trials must be",
        ),
        (
            &["submit", "gemm:64x64x64", "--trials", "0"],
            "trials must be > 0",
        ),
        (
            &["submit", "gemm:64x64x64", "--trials"],
            "--trials needs a value",
        ),
        (
            &["submit", "gemm:64x64x64", "--priority", "high"],
            "--priority must be",
        ),
        (
            &["submit", "gemm:64x64x64", "--target-ms", "0"],
            "target_ms",
        ),
        (
            &["submit", "gemm:64x64x64", "--target-ms", "nan"],
            "target_ms",
        ),
        (
            &["submit", "gemm:64x64x64", "--searcher", "random"],
            "random",
        ),
        (&["submit", "gemm:64x64x64", "--preset", "huge"], "huge"),
        (
            &["submit", "gemm:64x64x64", "--hardware", "abacus"],
            "abacus",
        ),
        (
            &["submit", "gemm:64x64x64", "--threads", "4"],
            "unknown argument `--threads`",
        ),
        (
            &["submit", "gemm:64x64x64", "extra"],
            "unknown argument `extra`",
        ),
        (
            &["bench-load", "--clients", "0"],
            "--clients must be a positive integer",
        ),
        (&["bench-load", "--requests", "many"], "--requests must be"),
        (&["bench-load", "--smoke", "--smoke"], "--smoke given twice"),
        (&["bench-load", "--out"], "--out needs a value"),
        (
            &["bench-load", "--trials", "8"],
            "unknown argument `--trials`",
        ),
    ];
    for (list, reason) in refused {
        match cli_args(&args(list)) {
            Err(e) => assert!(e.contains(reason), "{list:?}: {e}"),
            Ok(parsed) => panic!("{list:?} was accepted as {parsed:?}"),
        }
    }
}
