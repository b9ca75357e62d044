//! The `harl-trace` arguments: a `--min-coverage` that could never fail
//! the smoke gate (`nan`), or that is out of range or given twice, is a
//! usage error (exit 2), never a silent pass.

use harl_repro::obs::trace_args;

#[test]
fn min_coverage_is_one_finite_percentage_or_a_usage_error() {
    let table: &[(&[&str], Option<Option<f64>>)] = &[
        (&["t.jsonl"], Some(None)),
        (&["t.jsonl", "--min-coverage", "95"], Some(Some(95.0))),
        (&["--min-coverage", "95", "t.jsonl"], Some(Some(95.0))),
        (&["t.jsonl", "--min-coverage", "0"], Some(Some(0.0))),
        (&["t.jsonl", "--min-coverage", "100"], Some(Some(100.0))),
        (&["t.jsonl", "--min-coverage", "99.5"], Some(Some(99.5))),
        (&["t.jsonl", "--min-coverage", "nan"], None),
        (&["t.jsonl", "--min-coverage", "NaN"], None),
        (&["t.jsonl", "--min-coverage", "inf"], None),
        (&["t.jsonl", "--min-coverage", "-1"], None),
        (&["t.jsonl", "--min-coverage", "100.5"], None),
        (&["t.jsonl", "--min-coverage", "abc"], None),
        (&["t.jsonl", "--min-coverage", ""], None),
        (
            &["t.jsonl", "--min-coverage", "95", "--min-coverage", "50"],
            None,
        ),
        (&["t.jsonl", "--min-coverage"], None),
        (&["--min-coverage", "95"], None),
        (&[], None),
        (&["t.jsonl", "u.jsonl"], None),
    ];
    for &(args, want) in table {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let got = trace_args(&args);
        assert_eq!(
            got.as_ref().ok().map(|(_, pct)| *pct),
            want,
            "{args:?} gave {got:?}"
        );
        if let Ok((path, _)) = &got {
            assert_eq!(path, "t.jsonl");
        }
    }
    // a refused value is named
    let bad = ["t.jsonl", "--min-coverage", "nan"].map(String::from);
    assert!(trace_args(&bad).unwrap_err().contains("`nan`"));
}
