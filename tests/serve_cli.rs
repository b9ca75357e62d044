//! The `harl-serve` flags: a value the daemon could not use as given (no
//! workers, no queue slots, a sync pause of 0 ms), a repeated flag, a flag
//! without its value and an unknown argument are usage errors (exit 2),
//! never silently changed into something else.

use std::time::Duration;

use harl_repro::serve::serve_args;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|a| a.to_string()).collect()
}

#[test]
fn serve_flags_are_taken_as_given_or_refused() {
    let cfg = serve_args(&args(&["--root", "r"])).unwrap();
    assert_eq!(cfg.root, std::path::PathBuf::from("r"));
    assert_eq!((cfg.workers, cfg.queue_capacity), (2, 16), "the defaults");
    assert!(cfg.peers.is_empty());

    let cfg = serve_args(&args(&[
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

    let refused: &[&[&str]] = &[
        &[],
        &["--workers", "2"],
        &["--root", "r", "--workers", "0"],
        &["--root", "r", "--queue-cap", "0"],
        &["--root", "r", "--sync-ms", "0"],
        &["--root", "r", "--workers", "-1"],
        &["--root", "r", "--workers", "two"],
        &["--root", "r", "--queue-cap", ""],
        &["--root", "r", "--root", "s"],
        &[
            "--root",
            "r",
            "--addr",
            "127.0.0.1:1",
            "--addr",
            "127.0.0.1:2",
        ],
        &["--root", "r", "--workers", "2", "--workers", "3"],
        &["--root"],
        &["--root", "r", "--addr"],
        &["--root", "r", "--sync-ms"],
        &["--root", "r", "--threads", "4"],
        &["--root", "r", "extra"],
    ];
    for list in refused {
        assert!(serve_args(&args(list)).is_err(), "{list:?} was accepted");
    }
    // a refused value is named
    let err = serve_args(&args(&["--root", "r", "--workers", "0"])).unwrap_err();
    assert!(err.contains("--workers") && err.contains("`0`"), "{err}");
    let err = serve_args(&args(&["--root", "r", "--root", "s"])).unwrap_err();
    assert!(err.contains("--root given twice"), "{err}");
}
