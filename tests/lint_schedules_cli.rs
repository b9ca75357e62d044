//! The `lint-schedules` fuzzer's count argument: a malformed count is a
//! usage error (exit 2), never a silent fall-back to the default run.

use harl_repro::verify::fuzz_count;

#[test]
fn the_fuzz_count_is_a_positive_integer_or_a_usage_error() {
    let table: &[(&[&str], Option<usize>)] = &[
        (&[], Some(150)),
        (&["40"], Some(40)),
        (&["1"], Some(1)),
        (&["+7"], Some(7)),
        (&["0"], None),
        (&["-3"], None),
        (&["abc"], None),
        (&["4x"], None),
        (&["2.5"], None),
        (&[""], None),
        (&[" 40"], None),
        (&["40", "extra"], None),
    ];
    for &(args, want) in table {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let got = fuzz_count(&args);
        assert_eq!(got.as_ref().ok().copied(), want, "{args:?} gave {got:?}");
        if let Err(e) = got {
            let named = args.last().map(String::as_str).unwrap_or_default();
            assert!(
                e.contains(&format!("`{named}`")),
                "{args:?}: `{e}` must name the value"
            );
        }
    }
}
