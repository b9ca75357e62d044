//! Instrumented `std::sync` wrappers.
//!
//! Without `--cfg harl_check` every type here is a `#[repr(transparent)]`
//! newtype over its `std::sync` counterpart with `#[inline]` forwarding
//! methods — release builds pay nothing (the `passthrough` tests pin the
//! layout). With `--cfg harl_check`, acquisitions feed a per-thread
//! held-lock stack and a global *class-level* acquisition-order graph
//! ("class" = the static name given at construction, e.g.
//! `"serve.queue"`), and the wrappers fail fast on C001/C002/C004 or
//! record C003 warnings (see the crate docs for the code meanings). Inside
//! a `model::check` exploration every operation is also a scheduling
//! point, and blocking is the explorer's, not the OS's.
//!
//! Atomics additionally declare a [`AtomicRole`]: a `Counter` is a pure
//! statistic where `Ordering::Relaxed` is fine; a `Flag` publishes a
//! decision other threads act on (shutdown, cancellation), where a
//! `Relaxed` access is flagged as C004.

/// What an atomic is used for — determines which orderings the checked
/// build accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicRole {
    /// A statistic or monotonically advancing cursor; any ordering is
    /// acceptable, including `Relaxed`.
    Counter,
    /// A flag other threads make control-flow decisions on (shutdown,
    /// cancel, "results ready"). `Relaxed` loads/stores are reported as
    /// C004 in the checked build.
    Flag,
}

// ---------------------------------------------------------------------------
// Passthrough build: transparent newtypes, zero overhead.
// ---------------------------------------------------------------------------

#[cfg(not(harl_check))]
mod passthrough {
    use super::AtomicRole;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Condvar, LockResult, Mutex, MutexGuard};

    /// `std::sync::Mutex` with a lock-class name (discarded in this
    /// build).
    #[repr(transparent)]
    #[derive(Debug, Default)]
    pub struct CMutex<T>(Mutex<T>);

    impl<T> CMutex<T> {
        /// Wraps `value`; `_name` is the lock class used by the checked
        /// build.
        #[inline]
        pub fn new(_name: &'static str, value: T) -> Self {
            CMutex(Mutex::new(value))
        }

        #[inline]
        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            self.0.lock()
        }
    }

    /// `std::sync::Condvar` usable with [`CMutex`] guards.
    #[repr(transparent)]
    #[derive(Debug, Default)]
    pub struct CCondvar(Condvar);

    impl CCondvar {
        #[inline]
        pub fn new() -> Self {
            CCondvar(Condvar::new())
        }

        #[inline]
        pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
            self.0.wait(guard)
        }

        #[inline]
        pub fn notify_one(&self) {
            self.0.notify_one();
        }

        #[inline]
        pub fn notify_all(&self) {
            self.0.notify_all();
        }
    }

    macro_rules! passthrough_atomic {
        ($name:ident, $inner:ident, $val:ty) => {
            /// Role-declared atomic; plain `std::sync::atomic` in this
            /// build.
            #[repr(transparent)]
            #[derive(Debug, Default)]
            pub struct $name($inner);

            impl $name {
                #[inline]
                pub fn new(value: $val, _name: &'static str, _role: AtomicRole) -> Self {
                    $name($inner::new(value))
                }

                #[inline]
                pub fn load(&self, order: Ordering) -> $val {
                    self.0.load(order)
                }

                #[inline]
                pub fn store(&self, value: $val, order: Ordering) {
                    self.0.store(value, order);
                }
            }
        };
    }

    passthrough_atomic!(CAtomicBool, AtomicBool, bool);
    passthrough_atomic!(CAtomicU64, AtomicU64, u64);

    impl CAtomicU64 {
        #[inline]
        pub fn fetch_add(&self, value: u64, order: Ordering) -> u64 {
            self.0.fetch_add(value, order)
        }
    }
}

#[cfg(not(harl_check))]
pub use passthrough::{CAtomicBool, CAtomicU64, CCondvar, CMutex};

// ---------------------------------------------------------------------------
// Checked build: lock-graph recording, fail-fast diagnostics, scheduling
// points for the explorer.
// ---------------------------------------------------------------------------

#[cfg(harl_check)]
mod checked {
    use super::AtomicRole;
    use crate::model;
    use harl_verify::{Component, Diagnostic, LintCode};
    use std::cell::RefCell;
    use std::collections::{HashMap, HashSet};
    use std::ops::{Deref, DerefMut};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Condvar, LockResult, Mutex, MutexGuard, OnceLock, PoisonError};
    use std::time::{Duration, Instant};

    /// A lock held longer than this is a C003 warning.
    const HOLD_THRESHOLD: Duration = Duration::from_millis(100);

    fn diag(code: LintCode, message: String) -> Diagnostic {
        Diagnostic::new(code, Component::SyncPrimitive, message)
    }

    static WARNINGS: Mutex<Vec<Diagnostic>> = Mutex::new(Vec::new());

    fn violation_counter(d: &Diagnostic) -> harl_obs::Counter {
        let code = d.code.code();
        harl_obs::global().counter(&format!("harl_check_violations_total{{code=\"{code}\"}}"))
    }

    fn record_warning(d: Diagnostic) {
        violation_counter(&d).inc();
        WARNINGS
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(d);
    }

    /// Drains the warn-severity findings recorded so far (C003).
    pub fn take_warnings() -> Vec<Diagnostic> {
        std::mem::take(&mut *WARNINGS.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Reports an error-severity violation: counts it, then panics with
    /// the rendered diagnostic (fail fast — the whole point of the
    /// checked build).
    fn fail(d: Diagnostic) -> ! {
        violation_counter(&d).inc();
        panic!("harl-check: {d}");
    }

    /// Identities of mutexes and condvars (the explorer keys its
    /// ownership, wait queues and step footprints on them).
    fn next_id() -> u64 {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        model::object_id().unwrap_or_else(|| NEXT_ID.fetch_add(1, Ordering::Relaxed))
    }

    struct Held {
        id: u64,
        class: &'static str,
        since: Instant,
    }

    thread_local! {
        static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    }

    /// Class-level acquisition graph: an edge `a -> b` means some thread
    /// acquired a lock of class `b` while holding one of class `a`.
    type Graph = HashMap<&'static str, HashSet<&'static str>>;

    fn graph() -> &'static Mutex<Graph> {
        static GRAPH: OnceLock<Mutex<Graph>> = OnceLock::new();
        GRAPH.get_or_init(|| Mutex::new(HashMap::new()))
    }

    fn reaches(g: &Graph, from: &'static str, to: &'static str) -> bool {
        let (mut stack, mut seen) = (vec![from], HashSet::new());
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if seen.insert(n) {
                stack.extend(g.get(n).into_iter().flatten());
            }
        }
        false
    }

    /// Checks an acquisition of `(id, class)` by the current thread
    /// against the locks it holds and the acquisition graph. Runs *before*
    /// the real `Mutex::lock` (and the explorer's scheduling point) so a
    /// self-deadlock panics instead of hanging.
    fn check_acquire(id: u64, class: &'static str) {
        // Same-instance or same-class nesting → C002.
        let nested = HELD.with(|h| {
            h.borrow().iter().find_map(|held| {
                let message = if held.id == id {
                    format!(
                        "thread re-locked mutex `{class}` (id {id}) it already \
                         holds; std::sync::Mutex is not reentrant, this deadlocks"
                    )
                } else if held.class == class {
                    format!(
                        "thread acquired a second lock of class `{class}` while \
                         holding one; same-class nesting has no defined order"
                    )
                } else {
                    return None;
                };
                Some(diag(LintCode::DoubleLock, message))
            })
        });
        if let Some(d) = nested {
            fail(d);
        }
        // Order inversion: acquiring `class` while holding `h` creates
        // the edge h -> class; if class already reaches h, that's a
        // cycle → C001.
        let inverted = {
            let mut g = graph().lock().unwrap_or_else(PoisonError::into_inner);
            let held = held_classes();
            let inverted = held.iter().copied().find(|hc| reaches(&g, class, hc));
            if inverted.is_none() {
                for hc in held {
                    g.entry(hc).or_default().insert(class);
                }
            }
            inverted
        };
        if let Some(hc) = inverted {
            fail(diag(
                LintCode::LockOrderInversion,
                format!(
                    "acquiring `{class}` while holding `{hc}` inverts the \
                     established order `{class}` -> `{hc}`; two threads taking \
                     the classes in opposite orders can deadlock"
                ),
            ));
        }
    }

    /// Records that the current thread now holds `(id, class)`: only once
    /// the real lock is taken, so a thread unwound while it waited for the
    /// lock leaves nothing behind.
    fn hold(id: u64, class: &'static str) {
        let since = Instant::now();
        HELD.with(|h| h.borrow_mut().push(Held { id, class, since }));
    }

    fn on_release(id: u64) {
        let released = HELD.with(|h| {
            let mut h = h.borrow_mut();
            h.iter().rposition(|e| e.id == id).map(|pos| h.remove(pos))
        });
        if let Some(e) = released {
            let held_for = e.since.elapsed();
            if held_for > HOLD_THRESHOLD {
                record_warning(diag(
                    LintCode::LongLockHold,
                    format!(
                        "lock `{}` held for {:?} (threshold {:?}); long holds \
                         serialize the pipeline — move slow work (measurement, I/O) \
                         outside the critical section",
                        e.class, held_for, HOLD_THRESHOLD
                    ),
                ));
            }
        }
    }

    fn held_classes() -> Vec<&'static str> {
        HELD.with(|h| h.borrow().iter().map(|e| e.class).collect())
    }

    pub(crate) fn assert_lock_free_impl(context: &str) {
        let held = held_classes();
        if !held.is_empty() {
            record_warning(diag(
                LintCode::LongLockHold,
                format!(
                    "blocking region `{context}` entered while holding lock(s) \
                     [{}]; a slow measurement here stalls every thread contending \
                     on them",
                    held.join(", ")
                ),
            ));
        }
    }

    /// `std::sync::Mutex` that records acquisitions in the lock graph.
    #[derive(Debug)]
    pub struct CMutex<T> {
        id: u64,
        name: &'static str,
        inner: Mutex<T>,
    }

    impl<T> CMutex<T> {
        pub fn new(name: &'static str, value: T) -> Self {
            CMutex {
                id: next_id(),
                name,
                inner: Mutex::new(value),
            }
        }

        pub fn lock(&self) -> LockResult<CMutexGuard<'_, T>> {
            check_acquire(self.id, self.name);
            model::lock_mutex(self.id, self.name);
            let wrap = |g| {
                hold(self.id, self.name);
                CMutexGuard {
                    id: self.id,
                    class: self.name,
                    mutex: &self.inner,
                    inner: Some(g),
                }
            };
            self.inner
                .lock()
                .map(wrap)
                .map_err(|e| PoisonError::new(wrap(e.into_inner())))
        }
    }

    impl<T: Default> Default for CMutex<T> {
        fn default() -> Self {
            CMutex::new("<default>", T::default())
        }
    }

    /// Guard for [`CMutex`]; pops the held-lock stack (and checks the
    /// hold duration) on drop.
    #[derive(Debug)]
    pub struct CMutexGuard<'a, T> {
        id: u64,
        class: &'static str,
        mutex: &'a Mutex<T>,
        inner: Option<MutexGuard<'a, T>>,
    }

    impl<T> Deref for CMutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().expect("guard taken")
        }
    }

    impl<T> DerefMut for CMutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().expect("guard taken")
        }
    }

    impl<T> Drop for CMutexGuard<'_, T> {
        fn drop(&mut self) {
            // The real unlock comes first: once the explorer sees the
            // mutex free, the thread it schedules next may take it.
            if self.inner.take().is_some() {
                on_release(self.id);
                model::unlock_mutex(self.id);
            }
        }
    }

    /// `std::sync::Condvar` aware of [`CMutexGuard`] tracking: the wait
    /// releases the guard's slot in the held stack and re-records it on
    /// wake, and waiting while holding *other* locks is a C003 warning
    /// (those locks stay held for the whole sleep).
    #[derive(Debug)]
    pub struct CCondvar {
        id: u64,
        inner: Condvar,
    }

    impl Default for CCondvar {
        fn default() -> Self {
            Self::new()
        }
    }

    impl CCondvar {
        pub fn new() -> Self {
            CCondvar {
                id: next_id(),
                inner: Condvar::new(),
            }
        }

        pub fn wait<'a, T>(&self, mut guard: CMutexGuard<'a, T>) -> LockResult<CMutexGuard<'a, T>> {
            let (id, class, mutex) = (guard.id, guard.class, guard.mutex);
            let others: Vec<&'static str> =
                held_classes().into_iter().filter(|c| *c != class).collect();
            if !others.is_empty() {
                record_warning(diag(
                    LintCode::LongLockHold,
                    format!(
                        "condvar wait on `{class}` while still holding \
                         [{}]; those locks stay blocked for the whole sleep",
                        others.join(", ")
                    ),
                ));
            }
            on_release(id);
            let inner = guard.inner.take().expect("guard taken");
            drop(guard);
            let relocked = if model::exploring() {
                // The explorer owns the blocking: drop the real guard,
                // wait for a notify and for the mutex, then re-lock it
                // (uncontended: no other thread runs meanwhile).
                drop(inner);
                model::wait(self.id, id, class);
                mutex.lock()
            } else {
                self.inner.wait(inner)
            };
            check_acquire(id, class);
            let wrap = |g| {
                hold(id, class);
                CMutexGuard {
                    id,
                    class,
                    mutex,
                    inner: Some(g),
                }
            };
            relocked
                .map(wrap)
                .map_err(|e| PoisonError::new(wrap(e.into_inner())))
        }

        pub fn notify_one(&self) {
            model::notify(self.id, false);
            self.inner.notify_one();
        }

        pub fn notify_all(&self) {
            model::notify(self.id, true);
            self.inner.notify_all();
        }
    }

    fn check_flag_ordering(name: &'static str, role: AtomicRole, order: Ordering, op: &str) {
        if role == AtomicRole::Flag && order == Ordering::Relaxed {
            fail(diag(
                LintCode::UnorderedSharedWrite,
                format!(
                    "Relaxed {op} on flag atomic `{name}`; a flag publishes a \
                     decision other threads act on and needs at least \
                     Acquire/Release ordering"
                ),
            ));
        }
        model::yield_point(name);
    }

    macro_rules! checked_atomic {
        ($name:ident, $inner:ident, $val:ty) => {
            /// Role-declared atomic; checks orderings against the role.
            #[derive(Debug)]
            pub struct $name {
                inner: $inner,
                name: &'static str,
                role: AtomicRole,
            }

            impl $name {
                pub fn new(value: $val, name: &'static str, role: AtomicRole) -> Self {
                    $name {
                        inner: $inner::new(value),
                        name,
                        role,
                    }
                }

                pub fn load(&self, order: Ordering) -> $val {
                    check_flag_ordering(self.name, self.role, order, "load");
                    self.inner.load(order)
                }

                pub fn store(&self, value: $val, order: Ordering) {
                    check_flag_ordering(self.name, self.role, order, "store");
                    self.inner.store(value, order);
                }
            }
        };
    }

    checked_atomic!(CAtomicBool, AtomicBool, bool);
    checked_atomic!(CAtomicU64, AtomicU64, u64);

    impl CAtomicU64 {
        pub fn fetch_add(&self, value: u64, order: Ordering) -> u64 {
            check_flag_ordering(self.name, self.role, order, "fetch_add");
            self.inner.fetch_add(value, order)
        }
    }
}

#[cfg(harl_check)]
pub use checked::{take_warnings, CAtomicBool, CAtomicU64, CCondvar, CMutex, CMutexGuard};

#[cfg(harl_check)]
pub(crate) use checked::assert_lock_free_impl;

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(all(test, not(harl_check)))]
mod passthrough_tests {
    use super::*;
    use std::mem::size_of;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Condvar, Mutex};

    /// The whole point of the passthrough build: the wrappers add no
    /// fields, so every release-mode access compiles to the plain
    /// std::sync operation.
    #[test]
    fn wrappers_are_layout_identical_to_std() {
        assert_eq!(size_of::<CMutex<u64>>(), size_of::<Mutex<u64>>());
        assert_eq!(
            size_of::<CMutex<Vec<String>>>(),
            size_of::<Mutex<Vec<String>>>()
        );
        assert_eq!(size_of::<CCondvar>(), size_of::<Condvar>());
        assert_eq!(size_of::<CAtomicBool>(), size_of::<AtomicBool>());
        assert_eq!(size_of::<CAtomicU64>(), size_of::<AtomicU64>());
    }

    #[test]
    fn passthrough_mutex_and_atomics_behave_like_std() {
        let m = CMutex::new("test.plain", 1u64);
        *m.lock().expect("lock") += 41;
        assert_eq!(*m.lock().expect("lock"), 42);

        let b = CAtomicBool::new(false, "test.flag", AtomicRole::Flag);
        b.store(true, Ordering::SeqCst);
        assert!(b.load(Ordering::SeqCst));
        let c = CAtomicU64::new(5, "test.ctr", AtomicRole::Counter);
        assert_eq!(c.fetch_add(3, Ordering::Relaxed), 5);
        assert_eq!(c.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn checking_is_compiled_out() {
        crate::assert_lock_free("anywhere");
        crate::yield_point("anywhere");
    }
}

#[cfg(all(test, harl_check))]
mod checked_tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::Ordering;
    use std::sync::Arc;
    use std::time::Duration;

    /// The warnings sink is global and `take_warnings` drains it, so the
    /// tests that assert on recorded warnings must not run concurrently
    /// with each other.
    static WARNINGS_SINK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn panic_message(r: std::thread::Result<()>) -> String {
        let payload = r.expect_err("expected a harl-check panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn double_lock_same_instance_is_c002() {
        let m = CMutex::new("t.double", 0u32);
        let _g = m.lock().expect("first lock");
        let msg = panic_message(catch_unwind(AssertUnwindSafe(|| {
            let _g2 = m.lock();
        })));
        assert!(msg.contains("C002"), "got: {msg}");
    }

    #[test]
    fn same_class_nesting_is_c002() {
        let a = CMutex::new("t.sameclass", 0u32);
        let b = CMutex::new("t.sameclass", 0u32);
        let _g = a.lock().expect("lock a");
        let msg = panic_message(catch_unwind(AssertUnwindSafe(|| {
            let _g2 = b.lock();
        })));
        assert!(msg.contains("C002"), "got: {msg}");
    }

    #[test]
    fn abba_inversion_is_c001() {
        let a = CMutex::new("t.inv_a", ());
        let b = CMutex::new("t.inv_b", ());
        {
            let _ga = a.lock().expect("a");
            let _gb = b.lock().expect("b"); // establishes t.inv_a -> t.inv_b
        }
        let msg = panic_message(catch_unwind(AssertUnwindSafe(|| {
            let _gb = b.lock().expect("b");
            let _ga = a.lock(); // inverts the order
        })));
        assert!(msg.contains("C001"), "got: {msg}");
    }

    #[test]
    fn relaxed_flag_access_is_c004() {
        let f = CAtomicBool::new(false, "t.flag_relaxed", AtomicRole::Flag);
        f.store(true, Ordering::SeqCst); // fine
        assert!(f.load(Ordering::Acquire));
        let msg = panic_message(catch_unwind(AssertUnwindSafe(|| {
            f.store(false, Ordering::Relaxed);
        })));
        assert!(msg.contains("C004"), "got: {msg}");
        // Counters may be Relaxed.
        let c = CAtomicU64::new(0, "t.ctr_relaxed", AtomicRole::Counter);
        c.fetch_add(1, Ordering::Relaxed);
        assert_eq!(c.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn long_hold_records_c003_warning() {
        let _sink = WARNINGS_SINK.lock().unwrap_or_else(|e| e.into_inner());
        let m = CMutex::new("t.long_hold", ());
        {
            let _g = m.lock().expect("lock");
            std::thread::sleep(Duration::from_millis(150));
        }
        let warned = crate::take_warnings()
            .iter()
            .any(|d| d.code.code() == "C003" && d.message.contains("t.long_hold"));
        assert!(warned, "expected a C003 long-hold warning");
    }

    #[test]
    fn assert_lock_free_under_lock_records_c003() {
        let _sink = WARNINGS_SINK.lock().unwrap_or_else(|e| e.into_inner());
        let m = CMutex::new("t.lock_free_zone", ());
        {
            let _g = m.lock().expect("lock");
            crate::assert_lock_free("measurer call");
        }
        let warned = crate::take_warnings().iter().any(|d| {
            d.code.code() == "C003"
                && d.message.contains("measurer call")
                && d.message.contains("t.lock_free_zone")
        });
        assert!(warned, "expected a C003 blocking-region warning");
    }

    #[test]
    fn condvar_wait_holding_another_lock_records_c003() {
        let _sink = WARNINGS_SINK.lock().unwrap_or_else(|e| e.into_inner());
        let outer = CMutex::new("t.wait_outer", ());
        let pair = Arc::new((CMutex::new("t.wait_inner", false), CCondvar::new()));
        {
            let _outer = outer.lock().expect("outer");
            let mut g = pair.0.lock().expect("inner");
            // Spawned while we hold the inner lock: the notifier can only
            // set the flag after our wait() has released it, so the wait
            // genuinely happens.
            let notifier = {
                let pair = Arc::clone(&pair);
                std::thread::spawn(move || {
                    *pair.0.lock().expect("inner") = true;
                    pair.1.notify_all();
                })
            };
            while !*g {
                g = pair.1.wait(g).expect("wait");
            }
            drop(g);
            notifier.join().expect("notifier");
        }
        let warned = crate::take_warnings().iter().any(|d| {
            d.code.code() == "C003"
                && d.message.contains("t.wait_inner")
                && d.message.contains("t.wait_outer")
        });
        assert!(warned, "expected a C003 wait-while-holding warning");
    }
}
