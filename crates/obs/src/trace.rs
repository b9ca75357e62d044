//! Span-based tracing with bounded JSONL output.
//!
//! A [`Tracer`] is either disabled (the default — one `Option` check per
//! call, no allocation, no I/O) or writes line-delimited JSON events to a
//! buffered sink. Three event kinds:
//!
//! ```text
//! {"t":"span_start","id":3,"parent":2,"ts_us":123,"name":"episode","f":{"sketch":1}}
//! {"t":"span_end","id":3,"ts_us":456}
//! {"t":"event","parent":3,"ts_us":234,"name":"adaptive_prune","f":{"dropped":5}}
//! ```
//!
//! Timestamps are microseconds since the tracer was created, taken from a
//! monotonic [`Instant`] — never wall clock, so traces are immune to NTP
//! steps and comparable within a run.
//!
//! Spans nest through a per-tracer stack: `span()` pushes, dropping the
//! returned [`Span`] guard pops. The tuners drive one tracer from one
//! thread, which is the intended shape; concurrent spans on a shared
//! tracer would interleave parents arbitrarily (events still serialize
//! safely through the internal mutex).
//!
//! Output is bounded: after [`DEFAULT_MAX_EVENTS`] records the tracer
//! stops writing (id/stack bookkeeping continues so nesting stays
//! coherent) and counts the drops, emitting a final `trace_truncated`
//! marker.
//!
//! Determinism: the tracer only *observes*. It never feeds anything back
//! into search state, RNG streams, or checkpoints, so a traced run is
//! bit-identical to an untraced one (asserted in `tests/observability.rs`).

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, Once};
use std::time::Instant;

/// Environment variable toggling tracing (on: `1`, `true`, `on`; off:
/// unset, `0`, `false`, `off`).
pub const TRACE_ENV: &str = "HARL_TRACE";
/// Environment variable overriding the trace output path.
pub const TRACE_FILE_ENV: &str = "HARL_TRACE_FILE";

/// Default cap on emitted records per trace file (~100 MB worst case).
pub const DEFAULT_MAX_EVENTS: u64 = 1_000_000;

/// A field value attached to a span or event.
#[derive(Debug, Clone)]
pub enum FieldValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

struct State {
    out: BufWriter<Box<dyn Write + Send>>,
    next_id: u64,
    /// Open span ids, innermost last. New spans/events parent to the top.
    stack: Vec<u64>,
    /// Records written so far (for the cap).
    written: u64,
    dropped: u64,
    truncation_noted: bool,
}

struct Inner {
    start: Instant,
    max_events: u64,
    state: Mutex<State>,
}

/// A handle to a trace sink. Cloning shares the sink and the span stack.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

/// Parses a `HARL_TRACE` value (`None` when unset): `Ok(true)` for `1`,
/// `true` or `on`, `Ok(false)` for unset, `0`, `false` or `off`, and
/// `Err(())` for anything else, the empty value included.
fn parse_trace_env(value: Option<&str>) -> Result<bool, ()> {
    match value.map(str::trim) {
        None | Some("0" | "false" | "off") => Ok(false),
        Some("1" | "true" | "on") => Ok(true),
        Some(_) => Err(()),
    }
}

impl Tracer {
    /// The no-op tracer: every call is an `Option` check and a return.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// A tracer writing to `path` (created/truncated).
    pub fn to_file(path: &Path) -> std::io::Result<Self> {
        let f = File::create(path)?;
        Ok(Tracer::to_writer(Box::new(f)))
    }

    /// A tracer writing to an arbitrary sink (used by tests).
    pub fn to_writer(out: Box<dyn Write + Send>) -> Self {
        Tracer {
            inner: Some(Arc::new(Inner {
                start: Instant::now(),
                max_events: DEFAULT_MAX_EVENTS,
                state: Mutex::new(State {
                    out: BufWriter::new(out),
                    next_id: 1,
                    stack: Vec::new(),
                    written: 0,
                    dropped: 0,
                    truncation_noted: false,
                }),
            })),
        }
    }

    /// Builds a tracer from the environment: disabled unless `HARL_TRACE`
    /// is truthy, writing to `HARL_TRACE_FILE` (default `./trace.jsonl`).
    ///
    /// I/O errors fall back to the disabled tracer with a note on stderr —
    /// tracing must never take a run down.
    pub fn from_env() -> Self {
        if !Tracer::env_enabled() {
            return Tracer::disabled();
        }
        let path = std::env::var(TRACE_FILE_ENV).unwrap_or_else(|_| "trace.jsonl".to_string());
        match Tracer::to_file(Path::new(&path)) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("harl-obs: cannot open trace file {path}: {e}; tracing disabled");
                Tracer::disabled()
            }
        }
    }

    /// Whether `HARL_TRACE` requests tracing. Services that pick their
    /// own per-run trace paths check this instead of [`Tracer::from_env`].
    /// A value that is neither on nor off leaves tracing off and is named
    /// on stderr, once per process.
    pub fn env_enabled() -> bool {
        let value = std::env::var_os(TRACE_ENV).map(|v| v.to_string_lossy().into_owned());
        parse_trace_env(value.as_deref()).unwrap_or_else(|()| {
            static WARNED: Once = Once::new();
            WARNED.call_once(|| {
                eprintln!(
                    "harl-obs: unrecognized {TRACE_ENV}={:?} \
                     (expected 1|true|on or 0|false|off); tracing disabled",
                    value.unwrap_or_default()
                );
            });
            false
        })
    }

    /// Whether this tracer writes anywhere.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span named `name`. The span closes when the guard drops.
    pub fn span(&self, name: &str) -> Span {
        self.span_with(name, &[])
    }

    /// Opens a span with attached fields.
    pub fn span_with(&self, name: &str, fields: &[(&str, FieldValue)]) -> Span {
        let Some(inner) = &self.inner else {
            return Span { tracer: None };
        };
        let ts = inner.start.elapsed().as_micros() as u64;
        let mut st = inner.state.lock().expect("tracer state poisoned");
        let id = st.next_id;
        st.next_id += 1;
        let parent = st.stack.last().copied();
        let mut line = format!("{{\"t\":\"span_start\",\"id\":{id}");
        if let Some(p) = parent {
            line.push_str(&format!(",\"parent\":{p}"));
        }
        line.push_str(&format!(",\"ts_us\":{ts},\"name\":\"{}\"", escape(name)));
        push_fields(&mut line, fields);
        line.push('}');
        write_record(inner, &mut st, &line);
        st.stack.push(id);
        Span {
            tracer: Some((self.clone(), id)),
        }
    }

    /// Emits a point event parented to the innermost open span.
    pub fn event(&self, name: &str, fields: &[(&str, FieldValue)]) {
        let Some(inner) = &self.inner else { return };
        let ts = inner.start.elapsed().as_micros() as u64;
        let mut st = inner.state.lock().expect("tracer state poisoned");
        let mut line = String::from("{\"t\":\"event\"");
        if let Some(p) = st.stack.last().copied() {
            line.push_str(&format!(",\"parent\":{p}"));
        }
        line.push_str(&format!(",\"ts_us\":{ts},\"name\":\"{}\"", escape(name)));
        push_fields(&mut line, fields);
        line.push('}');
        write_record(inner, &mut st, &line);
    }

    fn end_span(&self, id: u64) {
        let Some(inner) = &self.inner else { return };
        let ts = inner.start.elapsed().as_micros() as u64;
        let mut st = inner.state.lock().expect("tracer state poisoned");
        // pop to (and including) this span; tolerates out-of-order drops
        if let Some(pos) = st.stack.iter().rposition(|&s| s == id) {
            st.stack.truncate(pos);
        }
        let line = format!("{{\"t\":\"span_end\",\"id\":{id},\"ts_us\":{ts}}}");
        write_record(inner, &mut st, &line);
    }

    /// Flushes buffered output to the sink.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            let mut st = inner.state.lock().expect("tracer state poisoned");
            let _ = st.out.flush();
        }
    }

    /// Number of records dropped by the event cap.
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.state.lock().expect("tracer state poisoned").dropped)
            .unwrap_or(0)
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        // last handle out flushes the file so short-lived runs never lose
        // their tail to the BufWriter
        if let Some(inner) = &self.inner {
            if Arc::strong_count(inner) == 1 {
                let mut st = inner.state.lock().expect("tracer state poisoned");
                let _ = st.out.flush();
            }
        }
    }
}

fn write_record(inner: &Inner, st: &mut State, line: &str) {
    if st.written >= inner.max_events {
        st.dropped += 1;
        if !st.truncation_noted {
            st.truncation_noted = true;
            let ts = inner.start.elapsed().as_micros() as u64;
            let _ = writeln!(
                st.out,
                "{{\"t\":\"event\",\"ts_us\":{ts},\"name\":\"trace_truncated\",\"f\":{{\"max_events\":{}}}}}",
                inner.max_events
            );
        }
        return;
    }
    if writeln!(st.out, "{line}").is_ok() {
        st.written += 1;
    } else {
        st.dropped += 1;
    }
}

fn push_fields(line: &mut String, fields: &[(&str, FieldValue)]) {
    if fields.is_empty() {
        return;
    }
    line.push_str(",\"f\":{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&format!("\"{}\":", escape(k)));
        match v {
            FieldValue::U64(n) => line.push_str(&n.to_string()),
            FieldValue::I64(n) => line.push_str(&n.to_string()),
            FieldValue::F64(x) if x.is_finite() => line.push_str(&format!("{x}")),
            FieldValue::F64(_) => line.push_str("null"),
            FieldValue::Str(s) => line.push_str(&format!("\"{}\"", escape(s))),
        }
    }
    line.push('}');
}

/// Minimal JSON string escaping (quotes, backslash, control chars).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// RAII guard for an open span; dropping it emits `span_end`.
#[must_use = "dropping the span immediately closes it"]
pub struct Span {
    tracer: Option<(Tracer, u64)>,
}

impl Span {
    /// The span id (0 when tracing is disabled).
    pub fn id(&self) -> u64 {
        self.tracer.as_ref().map(|(_, id)| *id).unwrap_or(0)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((tracer, id)) = self.tracer.take() {
            tracer.end_span(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A Write sink backed by a shared buffer we can inspect after the
    /// tracer is gone.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn lines(buf: &SharedBuf) -> Vec<String> {
        String::from_utf8(buf.0.lock().unwrap().clone())
            .unwrap()
            .lines()
            .map(|s| s.to_string())
            .collect()
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let s = t.span("x");
        assert_eq!(s.id(), 0);
        t.event("e", &[("k", 1u64.into())]);
        drop(s);
        t.flush();
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn spans_nest_and_close_in_order() {
        let buf = SharedBuf::default();
        let t = Tracer::to_writer(Box::new(buf.clone()));
        {
            let _outer = t.span("outer");
            {
                let _inner = t.span_with("inner", &[("k", 7u64.into())]);
                t.event("tick", &[]);
            }
        }
        t.flush();
        let got = lines(&buf);
        assert_eq!(got.len(), 5);
        assert!(got[0].contains("\"t\":\"span_start\"") && got[0].contains("\"name\":\"outer\""));
        assert!(!got[0].contains("\"parent\""), "root span has no parent");
        assert!(got[1].contains("\"name\":\"inner\"") && got[1].contains("\"parent\":1"));
        assert!(got[1].contains("\"f\":{\"k\":7}"));
        assert!(got[2].contains("\"t\":\"event\"") && got[2].contains("\"parent\":2"));
        assert!(got[3].contains("\"t\":\"span_end\"") && got[3].contains("\"id\":2"));
        assert!(got[4].contains("\"t\":\"span_end\"") && got[4].contains("\"id\":1"));
    }

    #[test]
    fn timestamps_are_monotonic() {
        let buf = SharedBuf::default();
        let t = Tracer::to_writer(Box::new(buf.clone()));
        for _ in 0..50 {
            let _s = t.span("w");
        }
        t.flush();
        let mut last = 0u64;
        for line in lines(&buf) {
            let ts: u64 = line
                .split("\"ts_us\":")
                .nth(1)
                .unwrap()
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect::<String>()
                .parse()
                .unwrap();
            assert!(ts >= last, "timestamps went backwards");
            last = ts;
        }
    }

    #[test]
    fn strings_are_escaped() {
        let buf = SharedBuf::default();
        let t = Tracer::to_writer(Box::new(buf.clone()));
        t.event("has\"quote", &[("k", "a\\b\nc".into())]);
        t.flush();
        let got = lines(&buf);
        assert!(got[0].contains("has\\\"quote"));
        assert!(got[0].contains("a\\\\b\\nc"));
    }

    #[test]
    fn cap_drops_and_marks_truncation() {
        // the cap is `DEFAULT_MAX_EVENTS`; exercise the write_record
        // policy through a tracer with max_events forced low
        let buf = SharedBuf::default();
        let t = Tracer {
            inner: Some(Arc::new(Inner {
                start: Instant::now(),
                max_events: 3,
                state: Mutex::new(State {
                    out: BufWriter::new(Box::new(buf.clone())),
                    next_id: 1,
                    stack: Vec::new(),
                    written: 0,
                    dropped: 0,
                    truncation_noted: false,
                }),
            })),
        };
        for _ in 0..5 {
            t.event("e", &[]);
        }
        t.flush();
        assert_eq!(t.dropped(), 2);
        let got = lines(&buf);
        assert_eq!(got.len(), 4, "3 records + 1 truncation marker");
        assert!(got[3].contains("trace_truncated"));
    }

    #[test]
    fn near_zero_overhead_when_disabled() {
        // not a timing assertion (too flaky); assert the fast path does
        // no work that could allocate or lock by hammering it
        static CALLS: AtomicU64 = AtomicU64::new(0);
        let t = Tracer::disabled();
        for _ in 0..100_000 {
            let _s = t.span("x");
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
        assert_eq!(CALLS.load(Ordering::Relaxed), 100_000);
    }

    #[test]
    fn trace_env_values_parse_strictly() {
        #[rustfmt::skip]
        let table: [(Option<&str>, Result<bool, ()>); 14] = [
            (None, Ok(false)), (Some("0"), Ok(false)), (Some("false"), Ok(false)),
            (Some("off"), Ok(false)), (Some(" off "), Ok(false)),
            (Some("1"), Ok(true)), (Some("true"), Ok(true)), (Some("on"), Ok(true)),
            (Some(" 1\n"), Ok(true)),
            (Some(""), Err(())), (Some("  "), Err(())), (Some("yes"), Err(())),
            (Some("TRUE"), Err(())), (Some("2"), Err(())),
        ];
        for (value, want) in table {
            assert_eq!(parse_trace_env(value), want, "HARL_TRACE={value:?}");
        }
    }
}
