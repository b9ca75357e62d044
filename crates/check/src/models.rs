//! Models of the workspace's concurrency protocols, checked by
//! [`crate::model::Checker`].
//!
//! Each model exists in a **good** variant mirroring the shipped code and
//! at least one **known-bad** variant reproducing a historical or
//! plausible bug. The good variants must pass exhaustively; the bad ones
//! must yield a counterexample schedule — `lint-concurrency` enforces
//! both directions, so the checker itself is validated every run.
//!
//! - [`QueueModel`] — `harl-serve`'s `JobQueue`: a bounded priority
//!   queue under one mutex + condvar, with submitter / popper / closer
//!   threads. Bad variant: a popper that skips the wake-up recheck
//!   (classic lost "spurious wakeup" discipline) and pops from an empty
//!   queue.
//! - [`DirLockModel`] — `harl-store`'s `DirLock` stale-lock steal with
//!   two racing stealers and a dead previous owner. Good variant is the
//!   tmp + `hard_link` acquire / rename-claim steal; bad variant is the
//!   legacy read-check-`remove_file`-`create_new` sequence, where the
//!   second stealer's `remove_file` deletes the first winner's fresh
//!   lock and both end up holding it.

use crate::model::{Checker, Model, Report, Step};

// ---------------------------------------------------------------------------
// JobQueue
// ---------------------------------------------------------------------------

/// One logical submitter: pushes its items one by one.
#[derive(Clone, Hash)]
struct Submitter {
    pc: u8,
    idx: usize,
    /// `(priority, item id)` to push, in order.
    items: Vec<(i8, u8)>,
}

#[derive(Clone, Hash)]
struct Popper {
    pc: u8,
}

/// Model of `harl_serve::queue::JobQueue`: mutex-protected bounded
/// priority queue, condvar for poppers, a closer that shuts it down.
#[derive(Clone, Hash)]
pub struct QueueModel {
    name: &'static str,
    broken_wait: bool,
    capacity: usize,
    // shared state
    lock: Option<u8>,
    /// FIFO condvar wait queue (thread ids).
    waiters: Vec<u8>,
    /// Notified threads that still need to re-acquire the mutex.
    awakened: Vec<u8>,
    /// `(priority, seq, item)`; pop takes max priority, min seq.
    heap: Vec<(i8, u8, u8)>,
    next_seq: u8,
    closed: bool,
    // histories for the invariants
    accepted: Vec<u8>,
    popped: Vec<(i8, u8, u8)>,
    rejected: u8,
    bad_pop_empty: bool,
    // threads
    submitters: Vec<Submitter>,
    poppers: Vec<Popper>,
    closer_pc: u8,
}

impl QueueModel {
    fn build(
        name: &'static str,
        items: Vec<Vec<(i8, u8)>>,
        poppers: usize,
        capacity: usize,
        broken_wait: bool,
    ) -> Self {
        QueueModel {
            name,
            broken_wait,
            capacity,
            lock: None,
            waiters: Vec::new(),
            awakened: Vec::new(),
            heap: Vec::new(),
            next_seq: 0,
            closed: false,
            accepted: Vec::new(),
            popped: Vec::new(),
            rejected: 0,
            bad_pop_empty: false,
            submitters: items
                .into_iter()
                .map(|items| Submitter {
                    pc: 0,
                    idx: 0,
                    items,
                })
                .collect(),
            poppers: (0..poppers).map(|_| Popper { pc: 0 }).collect(),
            closer_pc: 0,
        }
    }

    /// Two submitters (same priority, so FIFO order is observable), two
    /// poppers, capacity 2: both items always fit.
    pub fn well_synchronized() -> Self {
        Self::build(
            "queue/well-synchronized",
            vec![vec![(0, 10)], vec![(0, 11)]],
            2,
            2,
            false,
        )
    }

    /// Same threads at capacity 1: exercises the busy-reply path — a
    /// rejected submit must never be silently lost (accounting checked
    /// in the finale).
    pub fn contended() -> Self {
        Self::build(
            "queue/contended-capacity-1",
            vec![vec![(0, 10)], vec![(1, 11)]],
            2,
            1,
            false,
        )
    }

    /// A popper that skips the post-wake recheck: one submitter, two
    /// poppers — the non-waiting popper can steal the item between the
    /// notify and the waiter's re-acquire, and the broken waiter then
    /// pops an empty queue.
    pub fn broken_wait() -> Self {
        Self::build(
            "queue/broken-wait-no-recheck",
            vec![vec![(0, 10)]],
            2,
            1,
            true,
        )
    }

    fn pop_best(&mut self) -> (i8, u8, u8) {
        let mut best = 0;
        for i in 1..self.heap.len() {
            let (bp, bs, _) = self.heap[best];
            let (p, s, _) = self.heap[i];
            if p > bp || (p == bp && s < bs) {
                best = i;
            }
        }
        self.heap.remove(best)
    }

    fn step_submitter(&mut self, s: usize, tid: u8) -> Step {
        match self.submitters[s].pc {
            0 => {
                if self.submitters[s].idx >= self.submitters[s].items.len() {
                    return Step::Done;
                }
                if self.lock.is_some() {
                    return Step::Blocked;
                }
                self.lock = Some(tid);
                self.submitters[s].pc = 1;
                Step::Ran
            }
            1 => {
                let (prio, item) = self.submitters[s].items[self.submitters[s].idx];
                if self.closed || self.heap.len() >= self.capacity {
                    self.rejected += 1;
                } else {
                    self.heap.push((prio, self.next_seq, item));
                    self.next_seq += 1;
                    self.accepted.push(item);
                }
                self.submitters[s].pc = 2;
                Step::Ran
            }
            2 => {
                // drop the guard before notifying, like the real push()
                self.lock = None;
                self.submitters[s].pc = 3;
                Step::Ran
            }
            _ => {
                // notify_one
                if !self.waiters.is_empty() {
                    let w = self.waiters.remove(0);
                    self.awakened.push(w);
                }
                self.submitters[s].idx += 1;
                self.submitters[s].pc = 0;
                Step::Ran
            }
        }
    }

    fn step_popper(&mut self, p: usize, tid: u8) -> Step {
        match self.poppers[p].pc {
            0 => {
                if self.lock.is_some() {
                    return Step::Blocked;
                }
                self.lock = Some(tid);
                self.poppers[p].pc = 1;
                Step::Ran
            }
            1 => {
                // critical section: pop, exit, or wait
                if !self.heap.is_empty() {
                    let e = self.pop_best();
                    self.popped.push(e);
                    self.poppers[p].pc = 2;
                } else if self.closed {
                    self.poppers[p].pc = 4;
                } else {
                    // condvar wait: release + enqueue atomically
                    self.lock = None;
                    self.waiters.push(tid);
                    self.poppers[p].pc = 3;
                }
                Step::Ran
            }
            2 => {
                self.lock = None;
                self.poppers[p].pc = 0;
                Step::Ran
            }
            3 => {
                if self.waiters.contains(&tid) {
                    return Step::Blocked; // not yet notified
                }
                if self.lock.is_some() {
                    return Step::Blocked; // notified, mutex contended
                }
                self.awakened.retain(|&w| w != tid);
                self.lock = Some(tid);
                // the bug: a correct popper rechecks (pc 1); the broken
                // one assumes the wake-up means an item is present
                self.poppers[p].pc = if self.broken_wait { 5 } else { 1 };
                Step::Ran
            }
            4 => {
                self.lock = None;
                self.poppers[p].pc = 6;
                Step::Ran
            }
            5 => {
                if self.heap.is_empty() {
                    self.bad_pop_empty = true;
                } else {
                    let e = self.pop_best();
                    self.popped.push(e);
                }
                self.poppers[p].pc = 2;
                Step::Ran
            }
            _ => Step::Done,
        }
    }

    fn step_closer(&mut self, tid: u8) -> Step {
        match self.closer_pc {
            0 => {
                if self.lock.is_some() {
                    return Step::Blocked;
                }
                self.lock = Some(tid);
                self.closer_pc = 1;
                Step::Ran
            }
            1 => {
                self.closed = true;
                self.closer_pc = 2;
                Step::Ran
            }
            2 => {
                self.lock = None;
                self.closer_pc = 3;
                Step::Ran
            }
            3 => {
                // notify_all
                self.awakened.append(&mut self.waiters);
                self.closer_pc = 4;
                Step::Ran
            }
            _ => Step::Done,
        }
    }
}

impl Model for QueueModel {
    fn name(&self) -> &'static str {
        self.name
    }

    fn thread_count(&self) -> usize {
        self.submitters.len() + self.poppers.len() + 1
    }

    fn step(&mut self, tid: usize) -> Step {
        let s = self.submitters.len();
        let p = self.poppers.len();
        if tid < s {
            self.step_submitter(tid, tid as u8)
        } else if tid < s + p {
            self.step_popper(tid - s, tid as u8)
        } else {
            self.step_closer(tid as u8)
        }
    }

    fn invariant(&self) -> Result<(), String> {
        if self.bad_pop_empty {
            return Err("popper consumed from an empty queue (missing recheck after wake)".into());
        }
        if self.heap.len() > self.capacity {
            return Err(format!(
                "queue holds {} items, capacity {}",
                self.heap.len(),
                self.capacity
            ));
        }
        // no item pops twice
        for (i, (_, _, a)) in self.popped.iter().enumerate() {
            if self.popped[i + 1..].iter().any(|(_, _, b)| a == b) {
                return Err(format!("item {a} popped twice"));
            }
        }
        // nothing pops that was never accepted
        for (_, _, a) in &self.popped {
            if !self.accepted.contains(a) {
                return Err(format!("item {a} popped but never accepted"));
            }
        }
        Ok(())
    }

    fn finale(&self) -> Result<(), String> {
        if !self.heap.is_empty() {
            return Err(format!("{} item(s) stranded in the queue", self.heap.len()));
        }
        if self.popped.len() != self.accepted.len() {
            return Err(format!(
                "accepted {} item(s) but popped {}",
                self.accepted.len(),
                self.popped.len()
            ));
        }
        // every submit is accounted for: accepted or explicitly rejected
        let attempts: usize = self.submitters.iter().map(|s| s.items.len()).sum();
        if self.accepted.len() + self.rejected as usize != attempts {
            return Err(format!(
                "{} attempts but {} accepted + {} rejected",
                attempts,
                self.accepted.len(),
                self.rejected
            ));
        }
        // FIFO within priority: pop order must have increasing seq per prio
        for (i, &(prio, seq, _)) in self.popped.iter().enumerate() {
            for &(p2, s2, _) in &self.popped[i + 1..] {
                if p2 == prio && s2 < seq {
                    return Err(format!(
                        "priority {prio}: seq {s2} popped after seq {seq} (FIFO broken)"
                    ));
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// DirLock steal
// ---------------------------------------------------------------------------

/// Pid recorded by the dead previous owner.
const DEAD_PID: u8 = 0;

/// Model of two processes racing to steal a `DirLock` held by a dead
/// pid. File-system operations (`hard_link`, `rename`, `remove_file`,
/// reads) are single atomic steps; `lock` is the lock file's content,
/// `tombs[i]` is stealer `i`'s private rename target.
#[derive(Clone, Hash)]
pub struct DirLockModel {
    name: &'static str,
    legacy: bool,
    lock: Option<u8>,
    tombs: [Option<u8>; 2],
    pcs: [u8; 2],
    won: [bool; 2],
}

impl DirLockModel {
    /// The shipped protocol: acquire by `hard_link` of a pre-written tmp
    /// file, steal by `rename` to a stealer-unique tomb, verify the tomb
    /// content, restore if it turned out to be a live owner's lock.
    pub fn atomic_steal() -> Self {
        DirLockModel {
            name: "dirlock/atomic-steal",
            legacy: false,
            lock: Some(DEAD_PID),
            tombs: [None, None],
            pcs: [0, 0],
            won: [false, false],
        }
    }

    /// The historical bug: read pid, check liveness, `remove_file`,
    /// `create_new`. The second stealer's remove deletes the first
    /// winner's fresh lock and both acquire.
    pub fn legacy_remove() -> Self {
        DirLockModel {
            name: "dirlock/legacy-remove-race",
            legacy: true,
            ..Self::atomic_steal()
        }
    }

    fn pid(i: usize) -> u8 {
        i as u8 + 1
    }

    fn step_atomic(&mut self, i: usize) -> Step {
        let pid = Self::pid(i);
        match self.pcs[i] {
            0 => {
                // write tmp (private file, content = own pid)
                self.pcs[i] = 1;
                Step::Ran
            }
            1 => {
                // hard_link(tmp, lock): atomic create-with-content
                if self.lock.is_none() {
                    self.lock = Some(pid);
                    self.won[i] = true;
                    self.pcs[i] = 9;
                } else {
                    self.pcs[i] = 2;
                }
                Step::Ran
            }
            2 => {
                // read the lock file
                match self.lock {
                    None => self.pcs[i] = 1,           // vanished: retry acquire
                    Some(DEAD_PID) => self.pcs[i] = 3, // stale: steal it
                    Some(_) => self.pcs[i] = 9,        // live owner: we lost
                }
                Step::Ran
            }
            3 => {
                // rename(lock, tomb_i): claims whatever is there now
                match self.lock.take() {
                    None => self.pcs[i] = 1, // NotFound: someone else claimed it
                    Some(content) => {
                        self.tombs[i] = Some(content);
                        self.pcs[i] = 4;
                    }
                }
                Step::Ran
            }
            4 => {
                // verify what we actually stole
                let content = self.tombs[i].take().expect("tomb exists at pc 4");
                if content == DEAD_PID {
                    // genuinely stale: discard the tomb, race to acquire
                    self.pcs[i] = 1;
                } else {
                    // we stole a live lock — put it back if still absent
                    if self.lock.is_none() {
                        self.lock = Some(content);
                    }
                    self.pcs[i] = 9;
                }
                Step::Ran
            }
            _ => Step::Done,
        }
    }

    fn step_legacy(&mut self, i: usize) -> Step {
        let pid = Self::pid(i);
        match self.pcs[i] {
            0 => {
                // read + liveness check
                match self.lock {
                    None => self.pcs[i] = 2,           // absent: try create
                    Some(DEAD_PID) => self.pcs[i] = 1, // stale: remove it
                    Some(_) => self.pcs[i] = 9,        // live owner: we lost
                }
                Step::Ran
            }
            1 => {
                // remove_file(lock) — unconditional: this is the bug
                self.lock = None;
                self.pcs[i] = 2;
                Step::Ran
            }
            2 => {
                // create_new
                if self.lock.is_none() {
                    self.lock = Some(pid);
                    self.won[i] = true;
                    self.pcs[i] = 9;
                } else {
                    self.pcs[i] = 0;
                }
                Step::Ran
            }
            _ => Step::Done,
        }
    }
}

impl Model for DirLockModel {
    fn name(&self) -> &'static str {
        self.name
    }

    fn thread_count(&self) -> usize {
        2
    }

    fn step(&mut self, tid: usize) -> Step {
        if self.legacy {
            self.step_legacy(tid)
        } else {
            self.step_atomic(tid)
        }
    }

    fn invariant(&self) -> Result<(), String> {
        if self.won.iter().filter(|&&w| w).count() > 1 {
            return Err("both stealers acquired the lock (single-writer broken)".into());
        }
        Ok(())
    }

    fn finale(&self) -> Result<(), String> {
        let winners: Vec<usize> = (0..2).filter(|&i| self.won[i]).collect();
        if winners.len() != 1 {
            return Err(format!("{} winner(s), expected exactly 1", winners.len()));
        }
        let expect = Self::pid(winners[0]);
        if self.lock != Some(expect) {
            return Err(format!(
                "lock file holds {:?} at quiescence, winner pid is {expect}",
                self.lock
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Suite
// ---------------------------------------------------------------------------

/// One model run plus the expectation `lint-concurrency` enforces.
pub struct SuiteEntry {
    pub report: Report,
    /// `false`: the model must pass exhaustively. `true`: the model is a
    /// known-bad variant and the checker must find a counterexample.
    pub expect_violation: bool,
}

/// Runs every bundled model (good and known-bad) under `checker`.
pub fn run_suite(checker: &Checker) -> Vec<SuiteEntry> {
    vec![
        SuiteEntry {
            report: checker.check(QueueModel::well_synchronized()),
            expect_violation: false,
        },
        SuiteEntry {
            report: checker.check(QueueModel::contended()),
            expect_violation: false,
        },
        SuiteEntry {
            report: checker.check(DirLockModel::atomic_steal()),
            expect_violation: false,
        },
        SuiteEntry {
            report: checker.check(QueueModel::broken_wait()),
            expect_violation: true,
        },
        SuiteEntry {
            report: checker.check(DirLockModel::legacy_remove()),
            expect_violation: true,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::replay;

    #[test]
    fn queue_well_synchronized_passes_exhaustively() {
        let r = Checker::default().check(QueueModel::well_synchronized());
        assert!(r.passed(), "violation: {:?}", r.violation);
        assert!(r.states_explored > 50, "suspiciously small state space");
    }

    #[test]
    fn queue_contended_busy_replies_never_lose_items() {
        let r = Checker::default().check(QueueModel::contended());
        assert!(r.passed(), "violation: {:?}", r.violation);
    }

    #[test]
    fn queue_broken_wait_pops_empty_and_replays() {
        let r = Checker::default().check(QueueModel::broken_wait());
        let v = r.violation.expect("missing recheck must be caught");
        assert!(
            v.message.contains("empty queue"),
            "unexpected violation: {}",
            v.message
        );
        let (_, err) = replay(QueueModel::broken_wait(), &v.schedule);
        assert!(err.is_some(), "counterexample must replay to a failure");
    }

    #[test]
    fn dirlock_atomic_steal_has_single_winner() {
        let r = Checker::default().check(DirLockModel::atomic_steal());
        assert!(r.passed(), "violation: {:?}", r.violation);
    }

    #[test]
    fn dirlock_legacy_remove_double_acquires() {
        let r = Checker::default().check(DirLockModel::legacy_remove());
        let v = r.violation.expect("legacy steal race must be caught");
        assert!(
            v.message.contains("both stealers"),
            "unexpected violation: {}",
            v.message
        );
        let (_, err) = replay(DirLockModel::legacy_remove(), &v.schedule);
        assert!(err.is_some(), "counterexample must replay to a failure");
    }

    #[test]
    fn suite_matches_expectations() {
        for e in run_suite(&Checker::default()) {
            if e.expect_violation {
                assert!(
                    e.report.violation.is_some(),
                    "{} should have failed",
                    e.report.model
                );
            } else {
                assert!(
                    e.report.passed(),
                    "{} failed: {:?}",
                    e.report.model,
                    e.report.violation
                );
            }
        }
    }
}
