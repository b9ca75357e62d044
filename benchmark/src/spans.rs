//! In-memory span capture and the `harl-trace` self-time rule.
//!
//! The program's tracer writes JSON lines to any `Write`; here that is a
//! shared byte buffer, parsed once the traced repetition has ended. A
//! phase's self time is its spans' duration minus the part their child
//! spans cover — the same arithmetic `harl-trace` prints, so the shares
//! below can be checked against that tool on a trace file.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};

use harl_repro::obs::Tracer;

/// A `Write` that appends to a buffer the benchmark keeps a handle to.
#[derive(Clone, Default)]
pub struct MemTrace(Arc<Mutex<Vec<u8>>>);

impl Write for MemTrace {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("trace buffer poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl MemTrace {
    /// A tracer writing into this buffer.
    pub fn tracer(&self) -> Tracer {
        Tracer::to_writer(Box::new(self.clone()))
    }

    /// Flushes `tracer` and parses everything captured so far.
    pub fn table(&self, tracer: &Tracer) -> SpanTable {
        tracer.flush();
        let bytes = self.0.lock().expect("trace buffer poisoned");
        SpanTable::parse(&String::from_utf8_lossy(&bytes))
    }
}

/// Totals of one span name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Phase {
    pub count: u64,
    pub total_us: u64,
    pub child_us: u64,
}

impl Phase {
    pub fn self_us(&self) -> u64 {
        self.total_us.saturating_sub(self.child_us)
    }
}

/// Per-name span totals of one trace.
#[derive(Debug, Default)]
pub struct SpanTable {
    pub phases: BTreeMap<String, Phase>,
    pub records: u64,
}

/// The unsigned number after `"key":` in a flat JSON line.
fn num_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The string after `"key":"`; span names carry no escapes.
fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let rest = &line[line.find(&pat)? + pat.len()..];
    Some(&rest[..rest.find('"')?])
}

impl SpanTable {
    pub fn parse(text: &str) -> SpanTable {
        struct Open {
            name: String,
            start_us: u64,
            parent: Option<u64>,
            child_us: u64,
        }
        let mut open: BTreeMap<u64, Open> = BTreeMap::new();
        let mut table = SpanTable::default();
        for line in text.lines() {
            let (Some(kind), Some(ts)) = (str_field(line, "t"), num_field(line, "ts_us")) else {
                continue;
            };
            table.records += 1;
            match kind {
                "span_start" => {
                    if let (Some(id), Some(name)) = (num_field(line, "id"), str_field(line, "name"))
                    {
                        open.insert(
                            id,
                            Open {
                                name: name.to_string(),
                                start_us: ts,
                                parent: num_field(line, "parent"),
                                child_us: 0,
                            },
                        );
                    }
                }
                "span_end" => {
                    let Some(span) = num_field(line, "id").and_then(|id| open.remove(&id)) else {
                        continue;
                    };
                    let dur = ts.saturating_sub(span.start_us);
                    if let Some(parent) = span.parent.and_then(|p| open.get_mut(&p)) {
                        parent.child_us += dur;
                    }
                    let phase = table.phases.entry(span.name).or_default();
                    phase.count += 1;
                    phase.total_us += dur;
                    phase.child_us += span.child_us;
                }
                _ => {}
            }
        }
        table
    }

    pub fn phase(&self, name: &str) -> Phase {
        self.phases.get(name).cloned().unwrap_or_default()
    }

    /// Summed self time of `names`, microseconds.
    pub fn self_us(&self, names: &[&str]) -> u64 {
        names.iter().map(|n| self.phase(n).self_us()).sum()
    }

    /// Summed span count of `names`.
    pub fn count(&self, names: &[&str]) -> u64 {
        names.iter().map(|n| self.phase(n).count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let text = r#"{"t":"span_start","id":1,"ts_us":0,"name":"round"}
{"t":"span_start","id":2,"parent":1,"ts_us":10,"name":"episode","f":{"sketch":1}}
{"t":"span_start","id":3,"parent":2,"ts_us":20,"name":"score"}
{"t":"event","parent":3,"ts_us":25,"name":"score_batch","f":{"n":4}}
{"t":"span_end","id":3,"ts_us":50}
{"t":"span_start","id":4,"parent":2,"ts_us":50,"name":"score"}
{"t":"span_end","id":4,"ts_us":60}
{"t":"span_end","id":2,"ts_us":90}
{"t":"span_end","id":1,"ts_us":100}
"#;
        let t = SpanTable::parse(text);
        assert_eq!(t.records, 9);
        assert_eq!(
            t.phase("score"),
            Phase {
                count: 2,
                total_us: 40,
                child_us: 0
            }
        );
        assert_eq!(t.phase("episode").self_us(), 80 - 40);
        assert_eq!(t.phase("round").self_us(), 100 - 80);
        assert_eq!(t.self_us(&["score", "episode", "round"]), 100);
        assert_eq!(t.count(&["score", "missing"]), 2);
    }

    #[test]
    fn captures_what_the_program_tracer_writes() {
        let mem = MemTrace::default();
        let tracer = mem.tracer();
        {
            let _outer = tracer.span("outer");
            let _inner = tracer.span_with("inner", &[("k", 3usize.into())]);
        }
        let t = mem.table(&tracer);
        assert_eq!(t.records, 4);
        assert_eq!(t.phase("outer").count, 1);
        assert_eq!(t.phase("outer").child_us, t.phase("inner").total_us);
    }
}
