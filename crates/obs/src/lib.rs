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
//! The root package's `harl-trace` binary summarizes a `trace.jsonl` into
//! a per-phase time table; `harl-cli metrics` and the serve `metrics` verb
//! render the global registry.

mod metrics;
mod trace;

pub use metrics::{
    global, Counter, Gauge, Histogram, MetricsRegistry, FINE_SECONDS_BOUNDS, SECONDS_BOUNDS,
};
pub use trace::{FieldValue, Span, Tracer, DEFAULT_MAX_EVENTS, TRACE_ENV, TRACE_FILE_ENV};
