//! # harl-serve
//!
//! A concurrent tuning service over the session layer: a TCP daemon that
//! accepts tuning jobs, runs them on a bounded worker pool, and persists
//! everything so jobs survive daemon death.
//!
//! * **Wire protocol** ([`protocol`]) — line-delimited JSON with verbs
//!   `submit` / `status` / `result` / `cancel` / `list` / `pool_sync` /
//!   `shutdown`; the full shapes are documented in DESIGN.md §8.
//! * **Event-loop frontend** ([`net`]) — all connections are multiplexed
//!   onto one loop thread, so thousands of idle `watch` clients cost
//!   buffers, not threads; the daemon runs exactly `workers + 1` threads
//!   (plus one federation puller when peers are configured).
//! * **Priority queue with backpressure** ([`queue`]) — a full queue
//!   answers `busy` instead of buffering unboundedly.
//! * **Per-job persistence** (`jobs/<id>/store/`) — every job
//!   is a checkpointing [`harl_core::TuningSession`]; a killed daemon
//!   restarts, requeues unfinished jobs, and resumes them bit-for-bit.
//! * **Cross-job warm-starting** — completed jobs donate their records to
//!   a shared pool; new jobs on similar workloads (matched by the store's
//!   similarity key) pre-train their cost model from it.
//! * **Pool federation** ([`federation`](crate)) — daemons configured
//!   with peers pull each other's pools via `pool_sync` and merge by
//!   record fingerprint, so jobs warm-start from the whole fleet's
//!   history; see DESIGN.md §14.
//! * **Cooperative cancellation & graceful shutdown** — both take effect
//!   at the next round boundary; shutdown checkpoints in-flight jobs.
//!
//! Binaries: `harl-serve` (the daemon) and `harl-cli` (submit / watch /
//! cancel / list / metrics / bench-load / shutdown). `bench-load` drives
//! a daemon with [`bench_load`] and reports per-verb p50/p99 latency.

pub mod bench_load;
mod error;
mod federation;
pub mod job;
pub mod net;
pub mod protocol;
pub mod queue;
mod server;
mod worker;

pub mod client;

pub use bench_load::{BenchLoadConfig, BenchLoadReport};
pub use client::{Client, ClientConfig};
pub use error::ServeError;
pub use harl_core::ParallelismOpts;
pub use job::{JobOutcome, JobSpec, JobState, JobView, Preset, TunerKind, WorkloadSpec};
pub use protocol::{decode_request, ErrorCode, Request, Response};
pub use server::{serve_args, Daemon, ServeConfig, SERVE_USAGE};
