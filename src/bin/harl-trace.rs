//! `harl-trace` — summarize a `trace.jsonl` into a per-phase time table.
//!
//! ```text
//! harl-trace trace.jsonl [--min-coverage PCT]
//! ```
//!
//! For every span name the table reports how many spans ran, their total
//! (inclusive) time, and their self time (total minus child spans) as a
//! percentage of the trace's wall time. Self times of disjoint spans sum
//! to the covered fraction of the run, so the final `coverage` line says
//! how much wall time the named phases account for; `--min-coverage 95`
//! turns that into an exit code for CI.
//!
//! The parser is deliberately minimal: it understands exactly the records
//! `harl-obs` emits (flat JSON objects, known keys) and skips anything
//! else — a truncated final line never aborts the summary.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};

use harl_repro::cli;

#[derive(Default, Clone)]
struct Phase {
    count: u64,
    total_us: u64,
    child_us: u64,
    events: u64,
}

struct OpenSpan {
    name: String,
    start_us: u64,
    parent: Option<u64>,
    child_us: u64,
}

/// Extracts the numeric value of `"key":123` from a flat JSON line.
fn num_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Extracts the string value of `"key":"..."`, undoing harl-obs escapes.
fn str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

fn main() {
    let cli::Trace { path, min_coverage } = cli::TRACE.args();

    let file = match std::fs::File::open(&path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("harl-trace: open {path}: {e}");
            std::process::exit(1);
        }
    };

    let mut open: BTreeMap<u64, OpenSpan> = BTreeMap::new();
    let mut phases: BTreeMap<String, Phase> = BTreeMap::new();
    let mut first_ts: Option<u64> = None;
    let mut last_ts: u64 = 0;
    let mut records: u64 = 0;
    let mut skipped: u64 = 0;

    for line in BufReader::new(file).lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Some(kind) = str_field(line, "t") else {
            skipped += 1;
            continue;
        };
        let Some(ts) = num_field(line, "ts_us") else {
            skipped += 1;
            continue;
        };
        records += 1;
        first_ts.get_or_insert(ts);
        last_ts = last_ts.max(ts);
        match kind.as_str() {
            "span_start" => {
                let (Some(id), Some(name)) = (num_field(line, "id"), str_field(line, "name"))
                else {
                    skipped += 1;
                    continue;
                };
                open.insert(
                    id,
                    OpenSpan {
                        name,
                        start_us: ts,
                        parent: num_field(line, "parent"),
                        child_us: 0,
                    },
                );
            }
            "span_end" => {
                let Some(id) = num_field(line, "id") else {
                    skipped += 1;
                    continue;
                };
                let Some(span) = open.remove(&id) else {
                    skipped += 1;
                    continue;
                };
                let dur = ts.saturating_sub(span.start_us);
                if let Some(pid) = span.parent {
                    if let Some(parent) = open.get_mut(&pid) {
                        parent.child_us += dur;
                    }
                }
                let ph = phases.entry(span.name).or_default();
                ph.count += 1;
                ph.total_us += dur;
                ph.child_us += span.child_us;
            }
            "event" => {
                if let Some(name) = str_field(line, "name") {
                    phases.entry(name).or_default().events += 1;
                }
            }
            _ => skipped += 1,
        }
    }

    // spans never closed (crash / truncation) still cover time up to the
    // last timestamp; count that as their self time so coverage is honest
    for (_, span) in open {
        let dur = last_ts.saturating_sub(span.start_us);
        let ph = phases.entry(span.name + " (unclosed)").or_default();
        ph.count += 1;
        ph.total_us += dur;
        ph.child_us += span.child_us;
    }

    let wall_us = last_ts.saturating_sub(first_ts.unwrap_or(0)).max(1);
    let mut rows: Vec<(String, Phase)> =
        phases.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1.total_us));

    println!("trace: {path}");
    println!(
        "records: {records} (skipped {skipped}), wall time: {:.3} ms",
        wall_us as f64 / 1e3
    );
    println!();
    println!(
        "{:<24} {:>8} {:>8} {:>12} {:>12} {:>7}",
        "phase", "spans", "events", "total ms", "self ms", "self %"
    );
    let mut covered_us: u64 = 0;
    for (name, ph) in &rows {
        let self_us = ph.total_us.saturating_sub(ph.child_us);
        covered_us += self_us;
        println!(
            "{:<24} {:>8} {:>8} {:>12.3} {:>12.3} {:>6.1}%",
            name,
            ph.count,
            ph.events,
            ph.total_us as f64 / 1e3,
            self_us as f64 / 1e3,
            self_us as f64 / wall_us as f64 * 100.0
        );
    }
    let coverage = covered_us as f64 / wall_us as f64 * 100.0;
    println!();
    println!("coverage: {coverage:.1}% of wall time in named phases");

    if let Some(min) = min_coverage {
        if coverage < min {
            eprintln!("harl-trace: coverage {coverage:.1}% below required {min}%");
            std::process::exit(1);
        }
    }
}
