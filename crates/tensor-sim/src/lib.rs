//! # harl-tensor-sim
//!
//! Analytical CPU/GPU performance models and the measurement harness that
//! substitute for the paper's Xeon 6226R / RTX 3090 testbed. See DESIGN.md
//! for the substitution argument: search algorithms are compared on a
//! deterministic, rugged, structurally faithful performance landscape with
//! simulated measurement-time accounting.

pub mod config;
pub mod hardware;
pub mod measure;
pub mod rugged;
pub mod trace;

pub use config::ConfigError;
pub use hardware::{CpuModel, GpuModel, Hardware};
pub use measure::{
    MeasureConfig, MeasureEvent, Measurement, Measurer, MeasurerState, RecordSink, PRICES,
};
pub use rugged::{mix64, rugged_factor, unit_hash};
pub use trace::{TracePoint, TuneTrace};
