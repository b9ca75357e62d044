//! # harl-check
//!
//! Concurrency correctness toolkit for the HARL workspace, in two parts:
//!
//! 1. [`sync`] — drop-in wrappers over `std::sync` primitives
//!    ([`CMutex`], [`CCondvar`], role-declared atomics). In a normal build
//!    they are `#[repr(transparent)]` newtypes that compile to plain
//!    `std::sync` (a zero-overhead test pins this). Compiled with
//!    `--cfg harl_check`, every acquisition is recorded in a per-thread
//!    lock stack and a global class-level acquisition graph, failing fast
//!    on:
//!    - **C001** lock-order inversion (an ABBA cycle in the graph),
//!    - **C002** double-lock (same instance or same-class nesting),
//!    - **C004** `Ordering::Relaxed` on an atomic declared a `Flag`,
//!
//!    and recording **C003** warnings for long holds (over 100 ms,
//!    condvar waits with other locks held, locks held across a blocking
//!    [`assert_lock_free`] region such as a `Measurer` call).
//!
//! 2. `model` (checked build only) — a schedule explorer for the real
//!    code: the body of a test and the threads it starts with
//!    `model::spawn` run one at a time, every wrapper operation and every
//!    [`yield_point`] is a place where the explorer may switch threads,
//!    and a depth-first search re-runs the body for every schedule up to
//!    a preemption bound. A panic, a failed assertion or a deadlock is a
//!    **C005** violation carrying the thread schedule that reproduces
//!    it. `crates/serve` checks its `JobQueue` with it, `crates/store`
//!    its append order and `crates/gbt` its fit's node queue.
//!
//! Diagnostics flow through the `harl-verify` machinery (codes C001–C005,
//! `lint-schedules --explain <code>`), counters through `harl-obs`
//! (`harl_check_violations_total{code=...}`).

#[cfg(harl_check)]
pub mod model;
pub mod sync;

pub use sync::{AtomicRole, CAtomicBool, CAtomicU64, CCondvar, CMutex};

#[cfg(harl_check)]
pub use sync::take_warnings;

/// Marks a blocking region (a `Measurer` call, file I/O, a network wait):
/// in the checked build, records a C003 warning if the current thread
/// holds any instrumented lock — the "lock held across `.await`" pattern.
/// A no-op otherwise.
#[inline]
pub fn assert_lock_free(context: &str) {
    #[cfg(harl_check)]
    sync::assert_lock_free_impl(context);
    #[cfg(not(harl_check))]
    let _ = context;
}

/// Marks a step on state the wrappers cannot see (a file, a socket) as a
/// place where the schedule explorer may switch threads: put one before
/// each such step of a protocol a `model::check` exercises. `label` names
/// the step in deadlock reports. A no-op outside an exploration and in a
/// normal build.
#[inline(always)]
pub fn yield_point(label: &'static str) {
    #[cfg(harl_check)]
    model::yield_point(label);
    #[cfg(not(harl_check))]
    let _ = label;
}
