//! # harl-check
//!
//! Concurrency correctness toolkit for the HARL workspace, in two parts:
//!
//! 1. [`sync`] — drop-in wrappers over `std::sync` primitives
//!    ([`CMutex`], [`CCondvar`], role-declared atomics). In a normal build
//!    they are `#[repr(transparent)]` newtypes that compile to plain
//!    `std::sync` (a zero-overhead test pins this). Compiled with
//!    `--cfg harl_check` *and* run with `HARL_CHECK=1`, every acquisition
//!    is recorded in a per-thread lock stack and a global class-level
//!    acquisition graph, failing fast on:
//!    - **C001** lock-order inversion (an ABBA cycle in the graph),
//!    - **C002** double-lock (same instance or same-class nesting),
//!    - **C004** unprotected shared writes (`assert_held` misses,
//!      `Ordering::Relaxed` on publish flags),
//!
//!    and recording **C003** warnings for long holds (time threshold,
//!    condvar waits with other locks held, locks held across a blocking
//!    [`assert_lock_free`] region such as a `Measurer` call).
//!
//! 2. [`model`] — a small explicit-state model checker that exhaustively
//!    explores thread interleavings of [`models`] of the workspace's
//!    concurrency primitives (the serve `JobQueue`, the store `DirLock`
//!    steal protocol), checking an invariant after every transition and
//!    a completion invariant at quiescence.
//!    Violations are reported as **C005** with the exact thread schedule
//!    that reproduces them. `cargo test -p harl-check` runs the models;
//!    the `lint-concurrency` binary runs them standalone (mirroring
//!    `lint-schedules`) and also asserts that known-bad model variants
//!    *are* caught.
//!
//! Diagnostics flow through the `harl-verify` machinery (codes C001–C005,
//! `lint-concurrency --explain <code>`), counters through `harl-obs`
//! (`harl_check_violations_total{code=...}`).

pub mod model;
pub mod models;
pub mod sync;

pub use sync::{AtomicRole, CAtomicBool, CAtomicU64, CAtomicUsize, CCondvar, CMutex};

use harl_verify::Diagnostic;

/// Environment variable that turns the instrumented wrappers on at
/// runtime (the instrumentation must also be compiled in with
/// `--cfg harl_check`).
pub const CHECK_ENV: &str = "HARL_CHECK";

/// Environment variable overriding the C003 hold-time threshold, in
/// milliseconds (default [`DEFAULT_HOLD_MS`]).
pub const HOLD_MS_ENV: &str = "HARL_CHECK_HOLD_MS";

/// Default lock-hold duration above which a C003 warning is recorded.
pub const DEFAULT_HOLD_MS: u64 = 100;

#[cfg(harl_check)]
mod active {
    use super::*;
    use std::sync::atomic::{AtomicU8, Ordering};
    use std::sync::Mutex;

    // 0 = undecided, 1 = off, 2 = on
    static STATE: AtomicU8 = AtomicU8::new(0);

    pub fn checking_enabled() -> bool {
        match STATE.load(Ordering::Relaxed) {
            2 => true,
            1 => false,
            _ => {
                let on = std::env::var(CHECK_ENV)
                    .map(|v| v.trim() == "1")
                    .unwrap_or(false);
                STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
                on
            }
        }
    }

    /// Turns checking on regardless of the environment (for tests).
    pub fn force_enable() {
        STATE.store(2, Ordering::Relaxed);
    }

    static WARNINGS: Mutex<Vec<Diagnostic>> = Mutex::new(Vec::new());

    pub(crate) fn record_warning(d: Diagnostic) {
        violation_counter(&d).inc();
        WARNINGS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(d);
    }

    /// Drains the warn-severity findings recorded so far (C003).
    pub fn take_warnings() -> Vec<Diagnostic> {
        std::mem::take(
            &mut *WARNINGS
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// Reports an error-severity violation: counts it, then panics with
    /// the rendered diagnostic (fail fast — the whole point of running
    /// under `HARL_CHECK=1`).
    pub(crate) fn fail(d: Diagnostic) -> ! {
        violation_counter(&d).inc();
        panic!("harl-check: {d}");
    }

    fn violation_counter(d: &Diagnostic) -> harl_obs::Counter {
        harl_obs::global().counter(&format!(
            "harl_check_violations_total{{code=\"{}\"}}",
            d.code.code()
        ))
    }
}

#[cfg(harl_check)]
pub use active::{checking_enabled, force_enable, take_warnings};

#[cfg(not(harl_check))]
mod inactive {
    use super::*;

    /// Always false: the instrumentation was not compiled in (build with
    /// `RUSTFLAGS="--cfg harl_check"` to enable it).
    #[inline(always)]
    pub fn checking_enabled() -> bool {
        false
    }

    /// No-op without `--cfg harl_check`.
    #[inline(always)]
    pub fn force_enable() {}

    /// Always empty without `--cfg harl_check`.
    #[inline(always)]
    pub fn take_warnings() -> Vec<Diagnostic> {
        Vec::new()
    }
}

#[cfg(not(harl_check))]
pub use inactive::{checking_enabled, force_enable, take_warnings};

/// Marks a blocking region (a `Measurer` call, file I/O, a network wait):
/// under checking, records a C003 warning if the current thread holds any
/// instrumented lock — the "lock held across `.await`" pattern. A no-op
/// otherwise.
#[inline]
pub fn assert_lock_free(context: &str) {
    #[cfg(harl_check)]
    sync::assert_lock_free_impl(context);
    #[cfg(not(harl_check))]
    let _ = context;
}
