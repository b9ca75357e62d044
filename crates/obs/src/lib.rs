//! # harl-obs
//!
//! Dependency-free observability for the HARL workspace: a process-wide
//! [`MetricsRegistry`] (counters / gauges / histograms rendered in
//! Prometheus text format) and a span-based [`Tracer`] writing bounded
//! JSONL traces, off by default and togglable via `HARL_TRACE`.
//!
//! Two rules keep this layer safe to wire into every decision point:
//!
//! 1. **Observation only.** Nothing here feeds back into search state,
//!    RNG streams, or checkpoint bytes. A traced run is bit-identical to
//!    an untraced one; `tests/observability.rs` asserts it.
//! 2. **Never fail the run.** Trace I/O errors degrade to the disabled
//!    tracer; the metrics hot path is atomics only.
//!
//! The `harl-trace` binary (this crate) summarizes a `trace.jsonl` into a
//! per-phase time table; `harl-cli metrics` and the serve `metrics` verb
//! render the global registry.

mod metrics;
mod trace;

pub use metrics::{
    global, Counter, Gauge, Histogram, MetricsRegistry, FINE_SECONDS_BOUNDS, SECONDS_BOUNDS,
};
pub use trace::{FieldValue, Span, Tracer, DEFAULT_MAX_EVENTS, TRACE_ENV, TRACE_FILE_ENV};

/// The `harl-trace` summarizer's command line.
pub const TRACE_USAGE: &str = "usage: harl-trace <trace.jsonl> [--min-coverage PCT]";

/// The trace path and the `--min-coverage` gate of `harl-trace`, from its
/// arguments after the program name (`-h` / `--help` is handled before).
/// The gate is optional, may be given once, and must be a finite
/// percentage in [0, 100]: `nan` would pass every trace (no coverage is
/// below it), and a value out of range could never fail or never pass.
/// A missing or second path and any other argument are errors too.
pub fn trace_args(args: &[String]) -> Result<(String, Option<f64>), String> {
    let mut path = None;
    let mut min_coverage = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == "--min-coverage" {
            let value = args.next().ok_or("--min-coverage needs a percentage")?;
            let pct = value
                .parse::<f64>()
                .ok()
                .filter(|p| (0.0..=100.0).contains(p))
                .ok_or_else(|| {
                    format!("--min-coverage must be a percentage in [0, 100], got `{value}`")
                })?;
            if min_coverage.replace(pct).is_some() {
                return Err(format!("--min-coverage given twice (again as `{value}`)"));
            }
        } else if path.is_none() {
            path = Some(arg.clone());
        } else {
            return Err(format!("unexpected argument `{arg}`"));
        }
    }
    Ok((path.ok_or("no trace file given")?, min_coverage))
}
