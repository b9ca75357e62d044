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
