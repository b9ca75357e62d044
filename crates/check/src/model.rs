//! A schedule explorer for the real code, in the `--cfg harl_check` build
//! only — the technique of CHESS (Musuvathi & Qadeer, "Iterative Context
//! Bounding for Systematic Testing of Multithreaded Programs", PLDI 2007).
//!
//! [`check`] runs a test body on a fresh OS thread; the body starts more
//! threads with [`spawn`] and waits for them with [`JoinHandle::join`].
//! Exactly one of these threads runs at a time. Every `CMutex::lock`,
//! `CCondvar::wait` / `notify_*`, `CAtomic*` operation and
//! [`crate::yield_point`] is a scheduling point, where the explorer may
//! switch to another thread. A thread is blocked while another holds the
//! mutex it wants, while it waits for a notify, and while it joins an
//! unfinished thread. The blocking is the explorer's: a condvar wait drops
//! the real guard and re-locks the real mutex once it is scheduled again,
//! so no OS thread ever blocks outside the explorer. A new thread runs to
//! its first scheduling point as soon as it is spawned (what it does
//! before one touches nothing shared), so a spawn is not a choice.
//!
//! The search is depth-first and keeps no program state: every run
//! re-executes the body from scratch, replays a prefix of choices and
//! extends it with the first option at each new point; the next prefix
//! advances the last choice that has an untried option. Switching away
//! from a thread that could have continued is a *preemption*, and runs are
//! bounded by [`PREEMPTIONS`] of them; switching away from a thread that
//! blocked or finished is free, and `notify_one` branches over which
//! waiter wakes.
//!
//! Sleep sets (Godefroid, "Partial-Order Methods for the Verification of
//! Concurrent Systems", 1996) skip schedules that only reorder independent
//! steps. A step is what one thread does from one scheduling point to the
//! next; its footprint is the mutexes, condvars and finished threads it
//! touches, and every `yield_point` touches one shared "world". Once a
//! branch has tried thread `t` at a point, `t` sleeps in the later
//! branches until a step whose footprint meets its own runs; a run in
//! which every thread that may run sleeps is cut, because each of its
//! continuations starts with a sleeping step that was explored earlier, at
//! no more preemptions. A panic in any thread (a failed assertion after
//! the joins included), a deadlock, or a run past [`MAX_STEPS`]
//! scheduling points stops the search with a C005 [`Violation`] whose
//! schedule [`replay`] re-runs.
//!
//! A pass covers the real code, every schedule within the bound up to the
//! order of independent steps, at the thread counts the body chooses. It
//! does not cover the real memory model (one thread runs at a time, so
//! every access is sequentially consistent), state the wrappers cannot see
//! unless a `yield_point` precedes each step on it, or other processes —
//! see DESIGN.md §11.

use std::any::Any;
use std::cell::RefCell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, PoisonError};
use std::thread::{self, Thread};

use harl_verify::LintCode;

/// Preemptions per schedule that [`check`] explores up to.
pub const PREEMPTIONS: usize = 2;

/// Scheduling points one run may reach before it is reported as a
/// livelock.
pub const MAX_STEPS: usize = 10_000;

/// Runs after which a search stops without being exhaustive.
const MAX_RUNS: usize = 1_000_000;

/// A counterexample: the schedule that reproduces a failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The choice made at each scheduling point, in order: the thread
    /// that runs next, or, at a `notify_one` with several waiters, the
    /// waiter it wakes. Thread 0 is the body, then threads in spawn
    /// order.
    pub schedule: Vec<usize>,
    /// What went wrong: the panic message, or the deadlock.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let code = LintCode::ModelCheckViolation.code();
        write!(f, "{code}: {} (schedule {:?})", self.message, self.schedule)
    }
}

/// Result of exploring one body.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The name given to [`check`].
    pub model: &'static str,
    /// Nodes of the search tree: distinct schedule prefixes reached.
    pub states_explored: usize,
    /// Most scheduling points reached by one run.
    pub max_depth_seen: usize,
    /// True when every schedule within the preemption bound was run (up
    /// to the order of independent steps).
    pub exhausted: bool,
    /// First violation found, if any (the search stops at the first).
    pub violation: Option<Violation>,
}

impl Report {
    /// Exhaustive and violation-free.
    pub fn passed(&self) -> bool {
        self.exhausted && self.violation.is_none()
    }
}

/// Explores every schedule of `body` with at most [`PREEMPTIONS`]
/// preemptions, stopping at the first violation.
pub fn check(name: &'static str, body: impl Fn() + Send + Sync + 'static) -> Report {
    let body: Body = Arc::new(body);
    let mut report = Report {
        model: name,
        ..Report::default()
    };
    let mut nodes = Vec::new();
    for _ in 0..MAX_RUNS {
        let prefix = nodes.len();
        let (mut run, failure) = execute(&body, nodes, PREEMPTIONS);
        report.states_explored += (run.len() + 1).saturating_sub(prefix);
        report.max_depth_seen = report.max_depth_seen.max(run.len());
        if let Some(message) = failure {
            let schedule = choices(&run);
            report.violation = Some(Violation { schedule, message });
            return report;
        }
        // advance the last node with an untried option
        while let Some(last) = run.last_mut() {
            if last.taken + 1 < last.options.len() {
                let footprint = std::mem::take(&mut last.footprint);
                last.tried.push((last.options[last.taken], footprint));
                last.taken += 1;
                break;
            }
            run.pop();
        }
        if run.is_empty() {
            report.exhausted = true;
            return report;
        }
        nodes = run;
    }
    report
}

/// Re-runs `body` along `schedule` (then the first option at every
/// further point) and returns the failure it reaches, if any.
pub fn replay(schedule: &[usize], body: impl Fn() + Send + Sync + 'static) -> Option<Violation> {
    let body: Body = Arc::new(body);
    let nodes = schedule.iter().map(|&t| Node {
        options: vec![t],
        ..Node::default()
    });
    let nodes = nodes.collect();
    let (run, failure) = execute(&body, nodes, usize::MAX);
    let schedule = choices(&run);
    failure.map(|message| Violation { schedule, message })
}

/// Starts `f` on a new thread of the running exploration. Panics outside
/// one.
pub fn spawn<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> JoinHandle<T> {
    let (exec, me) = current().expect("model::spawn outside model::check");
    let result = Arc::new(Mutex::new(None));
    let tid = {
        let mut st = exec.state();
        st.threads.push(Slot::default());
        let tid = st.threads.len() - 1;
        st.threads[tid].parent = Some(me);
        st.running = tid;
        st.touched.0.push(Object::Spawn);
        tid
    };
    let slot = Arc::clone(&result);
    exec.launch(tid, move || *lock(&slot) = Some(f()));
    // the child hands back at its first scheduling point
    exec.park(me);
    JoinHandle { tid, result }
}

/// Owned permission to join a thread started by [`spawn`].
#[derive(Debug)]
pub struct JoinHandle<T> {
    tid: usize,
    result: Arc<Mutex<Option<T>>>,
}

impl<T> JoinHandle<T> {
    /// Blocks (in the explorer) until the thread finishes; returns its
    /// value.
    pub fn join(self) -> T {
        let (exec, me) = current().expect("JoinHandle::join outside model::check");
        if exec.state().threads[self.tid].status != Status::Finished {
            drop(exec.reach(me, Op::Join(self.tid)));
        }
        let value = lock(&self.result).take();
        value.unwrap_or_else(|| panic::resume_unwind(Box::new(Abort)))
    }
}

/// The id of a mutex or condvar created by an explored thread: its
/// creator and how many it created before, the same in every run that
/// replays the same steps of that thread (a global id would differ).
pub(crate) fn object_id() -> Option<u64> {
    let (exec, me) = current()?;
    let mut st = exec.state();
    let slot = &mut st.threads[me];
    slot.created += 1;
    Some((1 << 63) | ((me as u64) << 32) | slot.created)
}

pub(crate) fn exploring() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

pub(crate) fn yield_point(label: &'static str) {
    if let Some((exec, me)) = current() {
        drop(exec.reach(me, Op::Yield(label)));
    }
}

pub(crate) fn lock_mutex(id: u64, class: &'static str) {
    if let Some((exec, me)) = current() {
        if let Some(mut st) = exec.reach(me, Op::Lock(id, class)) {
            st.held.push(id);
        }
    }
}

pub(crate) fn unlock_mutex(id: u64) {
    if let Some((exec, _)) = current() {
        let mut st = exec.state();
        st.held.retain(|&m| m != id);
        st.touched.0.push(Object::Mutex(id));
    }
}

/// The explorer's half of a condvar wait, called with the real guard
/// already dropped: release the mutex, wait for a notify, take the mutex
/// back.
pub(crate) fn wait(cv: u64, mutex: u64, class: &'static str) {
    let Some((exec, me)) = current() else { return };
    let Some(mut st) = exec.reach(me, Op::Wait(cv, mutex, class)) else {
        return;
    };
    st.held.retain(|&m| m != mutex);
    st.threads[me].status = Status::Waiting(cv, mutex, class);
    if let Some(mut st) = exec.schedule(st, me) {
        st.held.push(mutex);
    };
}

pub(crate) fn notify(cv: u64, all: bool) {
    let Some((exec, me)) = current() else { return };
    let Some(mut st) = exec.reach(me, Op::Notify(cv)) else {
        return;
    };
    let waiting = |s: &Slot| matches!(s.status, Status::Waiting(c, ..) if c == cv);
    let waiters: Vec<_> = (0..st.threads.len())
        .filter(|&t| waiting(&st.threads[t]))
        .collect();
    let woken = if all || waiters.len() <= 1 {
        waiters
    } else {
        match st.pick(waiters, true) {
            Ok(w) => vec![w],
            Err(failure) => exec.stop(st, failure),
        }
    };
    for t in woken {
        if let Status::Waiting(_, mutex, class) = st.threads[t].status {
            st.threads[t].status = Status::Ready(Op::Lock(mutex, class));
        }
    }
}

// ---------------------------------------------------------------------------
// The scheduler
// ---------------------------------------------------------------------------

type Body = Arc<dyn Fn() + Send + Sync>;

/// Unwinds a parked thread out of a run that is over.
struct Abort;

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Exec>, usize)>> = const { RefCell::new(None) };
}

fn current() -> Option<(Arc<Exec>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a thread parked at a scheduling point does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Take a mutex (id, class).
    Lock(u64, &'static str),
    /// Release a mutex and wait on a condvar (condvar, mutex, class).
    Wait(u64, u64, &'static str),
    Notify(u64),
    Join(usize),
    Yield(&'static str),
}

impl Op {
    fn label(self) -> &'static str {
        match self {
            Op::Lock(_, label) | Op::Wait(_, _, label) | Op::Yield(label) => label,
            Op::Notify(_) => "notify",
            Op::Join(_) => "join",
        }
    }

    fn footprint(self) -> Footprint {
        Footprint(match self {
            Op::Lock(id, _) => vec![Object::Mutex(id)],
            Op::Wait(cv, mutex, _) => vec![Object::Mutex(mutex), Object::Condvar(cv)],
            Op::Notify(cv) => vec![Object::Condvar(cv)],
            Op::Join(t) => vec![Object::Thread(t)],
            Op::Yield(_) => vec![Object::World],
        })
    }
}

/// Something two steps can both touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Object {
    Mutex(u64),
    Condvar(u64),
    /// The thread finishing, or being joined.
    Thread(usize),
    /// Whatever a `yield_point` guards.
    World,
    /// The numbering of threads: two steps that spawn do not commute.
    Spawn,
}

/// What a step touched.
#[derive(Debug, Clone, Default)]
struct Footprint(Vec<Object>);

impl Footprint {
    fn meets(&self, other: &Footprint) -> bool {
        self.0.iter().any(|o| other.0.contains(o))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Status {
    #[default]
    Running,
    Ready(Op),
    /// Waiting for a notify on a condvar, to take the mutex back then
    /// (condvar, mutex, class). Waiters wake in thread order.
    Waiting(u64, u64, &'static str),
    Finished,
}

#[derive(Default)]
struct Slot {
    status: Status,
    /// Set until the thread's first scheduling point, where it hands
    /// control back to the thread that spawned it.
    parent: Option<usize>,
    unpark: Option<Thread>,
    /// Mutexes and condvars it created.
    created: u64,
}

/// One scheduling point of the search tree, kept across the runs that
/// share it.
#[derive(Default)]
struct Node {
    /// Threads to try here (or, at a `notify_one`, waiters), in order.
    options: Vec<usize>,
    taken: usize,
    /// Threads whose next step was explored already, with its footprint.
    sleep: Vec<(usize, Footprint)>,
    /// Options tried before `taken`, with their steps' footprints.
    tried: Vec<(usize, Footprint)>,
    /// What the step taken touched.
    footprint: Footprint,
}

fn choices(nodes: &[Node]) -> Vec<usize> {
    nodes.iter().map(|n| n.options[n.taken]).collect()
}

/// Why a run stops before its threads finish: its failure, or `None`
/// when every thread that may run sleeps (the rest was explored already).
type Stop = Option<String>;

#[derive(Default)]
struct State {
    threads: Vec<Slot>,
    running: usize,
    /// The replayed prefix, then the nodes this run adds.
    nodes: Vec<Node>,
    step: usize,
    /// The node of the step in progress, and what it touched so far.
    current: Option<usize>,
    touched: Footprint,
    preemptions: usize,
    bound: usize,
    /// Mutexes some thread holds.
    held: Vec<u64>,
    failure: Option<String>,
    over: bool,
    /// Threads launched and not yet returned to the pool.
    live: usize,
}

impl State {
    fn enabled(&self, t: usize) -> bool {
        match self.threads[t].status {
            Status::Ready(Op::Lock(id, _)) => !self.held.contains(&id),
            Status::Ready(Op::Join(u)) => self.threads[u].status == Status::Finished,
            status => matches!(status, Status::Ready(_)),
        }
    }

    /// Picks the thread to run after `me` reached a scheduling point (or
    /// blocked, or finished), and starts its step.
    fn decide(&mut self, me: usize) -> Result<usize, Stop> {
        let enabled: Vec<_> = (0..self.threads.len())
            .filter(|&t| self.enabled(t))
            .collect();
        if enabled.is_empty() {
            return Err(Some(self.deadlock()));
        }
        if self.step >= MAX_STEPS {
            let at = match self.threads[me].status {
                Status::Ready(op) => op.label(),
                _ => "exit",
            };
            return Err(Some(format!(
                "livelock: more than {MAX_STEPS} scheduling points in one run (thread {me} at `{at}`)"
            )));
        }
        let me_enabled = enabled.contains(&me);
        let options = match (me_enabled, self.preemptions < self.bound) {
            (false, _) => enabled,
            (true, true) => std::iter::once(me)
                .chain(enabled.into_iter().filter(|&t| t != me))
                .collect(),
            (true, false) => vec![me],
        };
        // the step in progress ends here
        if let Some(prev) = self.current {
            self.nodes[prev].footprint = std::mem::take(&mut self.touched);
        }
        let step = self.step;
        let next = self.pick(options, false)?;
        self.preemptions += usize::from(me_enabled && next != me);
        self.current = Some(step);
        if let Status::Ready(op) = self.threads[next].status {
            self.touched = op.footprint();
        }
        Ok(next)
    }

    /// Takes the replayed choice at this point, or else adds a node and
    /// takes its first option that does not sleep.
    fn pick(&mut self, mut options: Vec<usize>, wake: bool) -> Result<usize, Stop> {
        let step = self.step;
        self.step += 1;
        if let Some(node) = self.nodes.get(step) {
            let t = node.options[node.taken];
            return options.contains(&t).then_some(t).ok_or_else(|| {
                Some(format!(
                    "schedule diverged at step {step}: {t} is not among {options:?} \
                     (does the body depend on anything but the schedule?)"
                ))
            });
        }
        let mut node = Node::default();
        if let (false, Some(prev)) = (wake, self.current.map(|p| &self.nodes[p])) {
            // what slept at the last step, or was tried there, sleeps on
            // unless that step's footprint met it
            node.sleep = (prev.sleep.iter().chain(&prev.tried))
                .filter(|(_, f)| !f.meets(&prev.footprint))
                .cloned()
                .collect();
            options.retain(|t| node.sleep.iter().all(|(s, _)| s != t));
            if options.is_empty() {
                return Err(None);
            }
        }
        node.options = options;
        self.nodes.push(node);
        Ok(self.nodes[step].options[0])
    }

    fn deadlock(&self) -> String {
        let blocked: Vec<String> = (self.threads.iter().enumerate())
            .filter_map(|(t, s)| match s.status {
                Status::Ready(Op::Lock(_, class)) => {
                    Some(format!("thread {t} waits for `{class}`"))
                }
                Status::Ready(Op::Join(u)) => Some(format!("thread {t} joins thread {u}")),
                Status::Waiting(_, _, class) => {
                    Some(format!("thread {t} waits for a notify ({class})"))
                }
                _ => None,
            })
            .collect();
        format!("deadlock: {}", blocked.join(", "))
    }
}

/// One run of a body.
#[derive(Default)]
struct Exec {
    state: Mutex<State>,
    /// Signalled when the run is over and its last thread returned.
    done: Condvar,
}

impl Exec {
    fn state(&self) -> MutexGuard<'_, State> {
        lock(&self.state)
    }

    fn launch(self: &Arc<Self>, tid: usize, f: impl FnOnce() + Send + 'static) {
        self.state().live += 1;
        let exec = Arc::clone(self);
        run_job(Box::new(move || exec.run_thread(tid, f)));
    }

    fn run_thread(self: Arc<Self>, tid: usize, f: impl FnOnce()) {
        CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&self), tid)));
        self.state().threads[tid].unpark = Some(thread::current());
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            self.park(tid);
            f();
        }));
        CURRENT.with(|c| *c.borrow_mut() = None);
        // a panic other than `Abort` already ended the run (in the hook)
        if outcome.is_ok() {
            self.finish(tid);
        }
        let mut st = self.state();
        st.live -= 1;
        if st.over && st.live == 0 {
            self.done.notify_all();
        }
    }

    /// Sleeps until `me` is scheduled; unwinds if the run is over.
    fn park(&self, me: usize) {
        loop {
            let (over, running) = {
                let st = self.state();
                (st.over, st.running == me)
            };
            if over {
                panic::resume_unwind(Box::new(Abort));
            }
            if running {
                return;
            }
            thread::park();
        }
    }

    /// `me` reached a scheduling point before `op`: returns, with the
    /// state locked, once `me` is scheduled to perform it. `None` when
    /// the run is over (a destructor running during the unwind).
    fn reach(&self, me: usize, op: Op) -> Option<MutexGuard<'_, State>> {
        let mut st = self.state();
        if st.over {
            return None;
        }
        st.threads[me].status = Status::Ready(op);
        self.schedule(st, me)
    }

    /// Hands over to the next thread and parks until `me` runs again.
    fn schedule<'a>(
        &'a self,
        mut st: MutexGuard<'a, State>,
        me: usize,
    ) -> Option<MutexGuard<'a, State>> {
        let next = match st.threads[me].parent.take() {
            Some(parent) => parent,
            None => match st.decide(me) {
                Ok(next) => next,
                Err(stop) => self.stop(st, stop),
            },
        };
        if next != me {
            self.hand_over(st, next);
            self.park(me);
            st = self.state();
        }
        st.threads[me].status = Status::Running;
        Some(st)
    }

    /// Makes `next` the running thread and wakes it.
    fn hand_over(&self, mut st: MutexGuard<'_, State>, next: usize) {
        st.running = next;
        let wake = st.threads[next].unpark.clone();
        drop(st);
        if let Some(t) = wake {
            t.unpark();
        }
    }

    fn finish(&self, me: usize) {
        let mut st = self.state();
        if st.over {
            return;
        }
        st.threads[me].status = Status::Finished;
        st.touched.0.push(Object::Thread(me));
        let next = match st.threads[me].parent.take() {
            Some(parent) => Ok(parent),
            None if st.threads.iter().all(|s| s.status == Status::Finished) => Err(None),
            None => st.decide(me),
        };
        match next {
            Ok(next) => self.hand_over(st, next),
            Err(failure) => self.end(st, failure),
        }
    }

    /// Ends the run, with `failure` unless one is recorded already, and
    /// wakes every parked thread to unwind.
    fn end(&self, mut st: MutexGuard<'_, State>, failure: Option<String>) {
        st.failure = st.failure.take().or(failure);
        st.over = true;
        let parked = st.threads.iter().filter(|s| s.status != Status::Finished);
        let parked: Vec<Thread> = parked.filter_map(|s| s.unpark.clone()).collect();
        drop(st);
        parked.iter().for_each(Thread::unpark);
    }

    /// Ends the run and unwinds the calling thread out of it.
    fn stop(&self, st: MutexGuard<'_, State>, failure: Stop) -> ! {
        self.end(st, failure);
        panic::resume_unwind(Box::new(Abort))
    }
}

/// Records a panic in an explored thread as the run's failure before the
/// thread unwinds, so the destructors that run meanwhile see the run over
/// and never switch threads.
fn install_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if let Some((exec, tid)) = current() {
                let st = exec.state();
                if !st.over {
                    let at = info
                        .location()
                        .map(|l| format!(" at {l}"))
                        .unwrap_or_default();
                    let text = payload_text(info.payload());
                    exec.end(st, Some(format!("thread {tid} panicked{at}: {text}")));
                }
            }
            previous(info);
        }));
    });
}

fn payload_text(payload: &(dyn Any + Send)) -> &str {
    (payload.downcast_ref::<&str>().copied())
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string payload>")
}

type Job = Box<dyn FnOnce() + Send>;

/// Runs `job` on an OS thread kept for the whole process: each explored
/// thread is a job, and a worker whose job returned waits for the next.
fn run_job(job: Job) {
    static IDLE: Mutex<Vec<Sender<Job>>> = Mutex::new(Vec::new());
    let idle = lock(&IDLE).pop();
    match idle {
        Some(worker) => worker.send(job).expect("a worker waits for jobs forever"),
        None => drop(thread::spawn(move || {
            let (worker, jobs) = mpsc::channel::<Job>();
            let mut job = job;
            loop {
                job();
                lock(&IDLE).push(worker.clone());
                job = jobs.recv().expect("a worker holds its own sender");
            }
        })),
    }
}

/// One run along `nodes`: the nodes it reached and its failure.
fn execute(body: &Body, nodes: Vec<Node>, bound: usize) -> (Vec<Node>, Option<String>) {
    install_panic_hook();
    let exec = Arc::new(Exec::default());
    let mut st = exec.state();
    st.threads.push(Slot::default());
    (st.nodes, st.bound) = (nodes, bound);
    drop(st);
    let body = Arc::clone(body);
    exec.launch(0, move || body());
    // over, and every explored thread finished or unwound
    let mut st = exec.state();
    while !st.over || st.live > 0 {
        st = exec.done.wait(st).unwrap_or_else(PoisonError::into_inner);
    }
    // nodes past the step reached belong to a prefix this run left
    let reached = st.step;
    st.nodes.truncate(reached);
    if let Some(prev) = st.current {
        st.nodes[prev].footprint = std::mem::take(&mut st.touched);
    }
    (std::mem::take(&mut st.nodes), st.failure.take())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{yield_point, AtomicRole, CAtomicBool, CAtomicU64, CCondvar, CMutex};
    use std::fs;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Asserts that `found` is a violation mentioning `needle` and that
    /// its schedule replays to the same failure.
    fn assert_caught(
        found: Report,
        needle: &str,
        body: impl Fn() + Send + Sync + 'static,
    ) -> Violation {
        let v = found.violation.expect("the explorer must find the bug");
        assert!(v.message.contains(needle), "unexpected violation: {v}");
        assert!(v.to_string().starts_with("C005"), "{v}");
        assert_eq!(replay(&v.schedule, body).as_ref(), Some(&v));
        v
    }

    /// Two threads add one to a shared counter, in one `fetch_add` or in a
    /// `load` and a separate `store`.
    fn counter(split: bool) -> impl Fn() + Send + Sync + 'static {
        move || {
            let c = Arc::new(CAtomicU64::new(0, "t.counter", AtomicRole::Counter));
            let adders: Vec<_> = (0..2)
                .map(|_| {
                    let c = Arc::clone(&c);
                    spawn(move || {
                        if split {
                            let v = c.load(Ordering::SeqCst);
                            c.store(v + 1, Ordering::SeqCst);
                        } else {
                            c.fetch_add(1, Ordering::SeqCst);
                        }
                    })
                })
                .collect();
            for a in adders {
                a.join();
            }
            assert_eq!(c.load(Ordering::SeqCst), 2, "lost update");
        }
    }

    #[test]
    fn a_load_then_store_counter_loses_an_update() {
        let fine = check("counter/fetch_add", counter(false));
        assert!(fine.passed(), "{fine:?}");
        let v = assert_caught(
            check("counter/load-store", counter(true)),
            "lost update",
            counter(true),
        );
        assert!(v.message.contains("thread 0 panicked"), "{v}");
    }

    /// A one-slot queue: `(items, closed)` under a mutex, a condvar for
    /// poppers.
    struct Queue {
        state: CMutex<(Vec<u32>, bool)>,
        ready: CCondvar,
    }

    impl Queue {
        fn pop(&self, recheck: bool) -> Option<u32> {
            let mut g = self.state.lock().expect("queue");
            if recheck {
                while g.0.is_empty() && !g.1 {
                    g = self.ready.wait(g).expect("queue");
                }
            } else if g.0.is_empty() && !g.1 {
                // the bug: a wake-up is taken to mean an item is there
                g = self.ready.wait(g).expect("queue");
            }
            if g.0.is_empty() {
                assert!(g.1, "popper woke to an empty, open queue");
            }
            g.0.pop()
        }
    }

    /// One submitter pushes an item, then closes; two poppers drain.
    fn submit_and_drain(recheck: bool) -> impl Fn() + Send + Sync + 'static {
        move || {
            let q = Arc::new(Queue {
                state: CMutex::new("t.queue", (Vec::new(), false)),
                ready: CCondvar::new(),
            });
            let poppers: Vec<_> = (0..2)
                .map(|_| {
                    let q = Arc::clone(&q);
                    spawn(move || std::iter::from_fn(|| q.pop(recheck)).count())
                })
                .collect();
            let submitter = {
                let q = Arc::clone(&q);
                spawn(move || {
                    q.state.lock().expect("queue").0.push(7);
                    q.ready.notify_one();
                    q.state.lock().expect("queue").1 = true;
                    q.ready.notify_all();
                })
            };
            submitter.join();
            let popped: usize = poppers.into_iter().map(JoinHandle::join).sum();
            assert_eq!(popped, 1);
        }
    }

    #[test]
    fn a_popper_that_skips_the_recheck_is_caught() {
        let fine = check("queue/recheck", submit_and_drain(true));
        assert!(fine.passed(), "{fine:?}");
        assert_caught(
            check("queue/no-recheck", submit_and_drain(false)),
            "empty, open queue",
            submit_and_drain(false),
        );
    }

    /// Two threads take one mutex; run after runs that ended while a
    /// thread waited for it, on the same reused workers and mutex ids.
    #[test]
    fn a_run_cut_while_a_thread_waits_for_a_lock_leaves_no_hold_behind() {
        let body = || {
            let m = Arc::new(CMutex::new("t.cut", 0));
            let other = {
                let m = Arc::clone(&m);
                spawn(move || *m.lock().expect("t.cut") += 1)
            };
            *m.lock().expect("t.cut") += 1;
            other.join();
        };
        for _ in 0..8 {
            // thread 7 does not exist: the run diverges at its first point,
            // with thread 1 parked before its lock
            let cut = replay(&[7], body).expect("a schedule naming no thread diverges");
            assert!(cut.message.contains("diverged"), "{cut}");
            let r = check("lock/after-cut", body);
            assert!(r.passed(), "{r:?}");
        }
    }

    #[test]
    fn a_spin_on_a_flag_nobody_sets_in_time_is_a_livelock() {
        let body = || {
            let flag = Arc::new(CAtomicBool::new(false, "t.spin", AtomicRole::Flag));
            let spinner = {
                let flag = Arc::clone(&flag);
                spawn(move || while !flag.load(Ordering::Acquire) {})
            };
            flag.store(true, Ordering::Release);
            spinner.join();
        };
        let v = assert_caught(check("spin", body), "livelock", body);
        assert!(v.message.contains("thread 1 at `t.spin`"), "{v}");
        assert_eq!(v.schedule.len(), MAX_STEPS);
    }

    #[test]
    fn a_wait_nobody_notifies_is_a_deadlock() {
        let body = || {
            let flag = Arc::new((CMutex::new("t.flag", false), CCondvar::new()));
            let waiter = {
                let flag = Arc::clone(&flag);
                spawn(move || {
                    let mut g = flag.0.lock().expect("flag");
                    while !*g {
                        g = flag.1.wait(g).expect("flag");
                    }
                })
            };
            // sets the flag but forgets the notify
            *flag.0.lock().expect("flag") = true;
            waiter.join();
        };
        let v = assert_caught(check("condvar/no-notify", body), "deadlock", body);
        assert!(
            v.message.contains("thread 1 waits for a notify (t.flag)"),
            "{v}"
        );
        assert!(v.message.contains("thread 0 joins thread 1"), "{v}");
    }

    const DEAD: u32 = u32::MAX;

    /// A directory removed when dropped (a failing run unwinds through
    /// it).
    struct TempDir(PathBuf);

    impl TempDir {
        fn new() -> TempDir {
            static N: AtomicUsize = AtomicUsize::new(0);
            let n = N.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("harl-check-steal-{}-{n}", std::process::id()));
            fs::create_dir_all(&dir).expect("create temp dir");
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    /// The steal the directory lock replaced: read the owner, and if it is
    /// dead, remove the lock file and create a new one. True if `pid`
    /// ends up holding the lock.
    fn remove_then_create(dir: &Path, pid: u32) -> bool {
        let lock = dir.join("lock");
        let tmp = dir.join(format!("lock.tmp.{pid}"));
        for _ in 0..4 {
            yield_point("hard_link");
            if fs::hard_link(&tmp, &lock).is_ok() {
                return true;
            }
            yield_point("read");
            let owner = fs::read_to_string(&lock).ok();
            match owner.and_then(|s| s.trim().parse::<u32>().ok()) {
                Some(DEAD) => {
                    yield_point("remove_file");
                    let _ = fs::remove_file(&lock);
                }
                Some(_) => return false,
                None => {}
            }
        }
        false
    }

    fn two_stealers() {
        let dir = TempDir::new();
        fs::write(dir.0.join("lock"), format!("{DEAD}\n")).expect("stale lock");
        let stealers: Vec<_> = [1u32, 2]
            .into_iter()
            .map(|pid| {
                fs::write(dir.0.join(format!("lock.tmp.{pid}")), format!("{pid}\n"))
                    .expect("tmp file");
                let dir = dir.0.clone();
                spawn(move || remove_then_create(&dir, pid))
            })
            .collect();
        let winners = stealers.into_iter().map(JoinHandle::join);
        assert_eq!(winners.filter(|&won| won).count(), 1, "winners");
    }

    #[test]
    fn a_steal_that_removes_then_creates_is_caught() {
        assert_caught(
            check("dirlock/remove-then-create", two_stealers),
            "winners",
            two_stealers,
        );
    }
}
