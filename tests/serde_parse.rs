//! Tier-1 driver for the serde shim's linear-time string parsing (the
//! full escape matrix lives in `shims/serde`'s own test): a checkpoint-
//! sized, string-heavy document must round-trip through the public
//! `serde_json` entry points in seconds, not minutes.

#[test]
fn string_heavy_document_round_trips_quickly() {
    let strings: Vec<String> = (0..200_000)
        .map(|i| format!("naïve \"日本語\" \\ 🦀\n{i}"))
        .collect();
    let text = serde_json::to_string(&strings).unwrap();
    assert!(text.len() >= 4 << 20, "document is {} bytes", text.len());

    let start = std::time::Instant::now();
    let parsed: Vec<String> = serde_json::from_str(&text).unwrap();
    let took = start.elapsed();
    assert!(parsed == strings, "round trip changed a string");
    assert!(took.as_secs() < 5, "parsing took {took:?}");
}

/// The parser recurses once per `[` or `{`. Unbounded, a line of a million
/// brackets — from the wire, a peer or a damaged file — overflows the
/// stack and aborts the process; bounded, it is one more decode error.
#[test]
fn nesting_is_bounded_at_128_levels() {
    use serde::de::{Value, MAX_DEPTH};
    assert_eq!(MAX_DEPTH, 128);

    let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
    let objects = |depth: usize| "{\"k\":".repeat(depth) + "0" + &"}".repeat(depth);
    let mixed = |depth: usize| "[{\"k\":".repeat(depth / 2) + "0" + &"}]".repeat(depth / 2);
    for nest in [&arrays as &dyn Fn(usize) -> String, &objects, &mixed] {
        let fits = Value::parse(&nest(128)).expect("128 levels parse");
        // the value really is that deep: the bound is not off by one
        let mut depth = 0;
        let mut v = &fits;
        while let Value::Arr(_) | Value::Obj(_) = v {
            depth += 1;
            v = match v {
                Value::Arr(items) if !items.is_empty() => &items[0],
                Value::Obj(entries) => &entries[0].1,
                _ => break,
            };
        }
        assert_eq!(depth, 128);
        let err = Value::parse(&nest(130)).unwrap_err();
        assert_eq!(err.0, "nesting deeper than 128");
    }
    assert!(Value::parse(&arrays(129)).is_err());
    assert!(Value::parse(&objects(129)).is_err());

    // hostile input: unclosed, a million deep, through the public entry
    // points every reader of the wire and the store uses
    for open in ["[", "{\"k\":", "[{\"k\":"] {
        let text = open.repeat(1_000_000);
        let err = serde_json::from_str::<Vec<u8>>(&text).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
    }
    // siblings are not nesting
    let wide = format!("[{}[]]", "[],".repeat(10_000));
    assert!(Value::parse(&wide).is_ok());
}
