//! The node queue that two threads drain while one tree is built.
//!
//! A tree node's work — split search, leaf-or-split decision, partition —
//! reads only the fit's matrix, the round's gradients and the node's own
//! rows, so any thread may compute any node, and two threads computing
//! the same node get the same bits. [`NodeQueue`] hands nodes to the
//! fit's own thread (the *caller*, [`NodeQueue::build`]) and one helper
//! ([`NodeQueue::help`]), records each node's outcome in a slot, and
//! queues the two children of every split it records. The tree is
//! assembled from the slots afterwards, so which thread built which node
//! never reaches the result.
//!
//! **The caller never waits.** When the queue is empty and the tree is
//! not finished, the only unrecorded node nobody else is computing is the
//! one the helper holds, so the caller computes it too; the first outcome
//! recorded for a slot wins and the other is dropped (both are the same
//! bits). A helper that is descheduled or slow therefore costs the tree
//! at most one node, and the caller's loop contains no wait at all: only
//! the helper parks, on an empty queue. A helper outcome that arrives
//! after its tree finished belongs to a stale generation and is dropped.

use std::sync::{Arc, OnceLock, PoisonError};

use harl_check::{CCondvar, CMutex};

/// One tree's node computations, as the queue sees them.
pub(crate) trait Work: Send + Sync {
    /// A node to compute.
    type Job: Send + Sync;
    /// What computing a node decides.
    type Done: Send;
    /// A worker's reusable buffers.
    type Scratch: Default;

    /// Computes `job`: its outcome and, for a split, the two children to
    /// queue (left, right).
    fn run(
        &self,
        job: &Self::Job,
        scratch: &mut Self::Scratch,
    ) -> (Self::Done, Option<[Self::Job; 2]>);

    /// Tree nodes in an outcome, for the node counters.
    fn nodes(done: &Self::Done) -> usize;
}

/// A node's recorded outcome and the slots its two children were given.
pub(crate) struct Recorded<D> {
    pub(crate) done: D,
    pub(crate) children: Option<[usize; 2]>,
}

struct Slot<W: Work> {
    job: Arc<W::Job>,
    recorded: Option<Recorded<W::Done>>,
}

struct State<W: Work> {
    /// The tree being built; `None` between trees.
    tree: Option<Arc<W>>,
    /// Bumped as each tree finishes, so a late helper outcome is known to
    /// be stale.
    generation: u64,
    /// Slot 0 is the root; children are appended as splits are recorded.
    slots: Vec<Slot<W>>,
    /// Queued slots, taken last-in first-out.
    ready: Vec<usize>,
    /// Slots without an outcome: the tree is done at 0.
    unrecorded: usize,
    /// The current tree's slot the helper is computing.
    held: Option<usize>,
    helper_parked: bool,
    closed: bool,
}

impl<W: Work> State<W> {
    /// Records `done` for `slot` unless an outcome is there already, and
    /// queues its children. Returns whether it was recorded.
    fn record(&mut self, slot: usize, done: W::Done, children: Option<[W::Job; 2]>) -> bool {
        if self.slots[slot].recorded.is_some() {
            counters().recomputed.add(W::nodes(&done) as u64);
            return false;
        }
        let children = children.map(|jobs| {
            jobs.map(|job| {
                self.slots.push(Slot {
                    job: Arc::new(job),
                    recorded: None,
                });
                self.slots.len() - 1
            })
        });
        if let Some([left, right]) = children {
            // the left child comes off the stack first
            self.ready.extend([right, left]);
            self.unrecorded += 2;
        }
        self.unrecorded -= 1;
        self.slots[slot].recorded = Some(Recorded { done, children });
        true
    }
}

/// The fit's node queue: one per `Gbt::fit`, reused by every tree.
pub(crate) struct NodeQueue<W: Work> {
    state: CMutex<State<W>>,
    /// Wakes a parked helper: new nodes queued, or the queue closed.
    wake: CCondvar,
    /// Test hook ([`tests::PANIC_IN_HELPER`] on the thread that creates
    /// the queue): the helper panics at its first node, or at close if it
    /// never got one.
    #[cfg(test)]
    panic_in_helper: bool,
}

impl<W: Work> NodeQueue<W> {
    pub(crate) fn new() -> Self {
        NodeQueue {
            state: CMutex::new(
                "gbt.node_queue",
                State {
                    tree: None,
                    generation: 0,
                    slots: Vec::new(),
                    ready: Vec::new(),
                    unrecorded: 0,
                    held: None,
                    helper_parked: false,
                    closed: false,
                },
            ),
            wake: CCondvar::new(),
            #[cfg(test)]
            panic_in_helper: tests::PANIC_IN_HELPER.with(std::cell::Cell::get),
        }
    }

    /// The caller's side: builds one tree from `root` and returns every
    /// slot's outcome (slot 0 is the root). Runs queued nodes, or else the
    /// node the helper holds, until every slot is recorded.
    pub(crate) fn build(&self, work: W, root: W::Job) -> Vec<Recorded<W::Done>> {
        let work = Arc::new(work);
        let mut scratch = W::Scratch::default();
        let mut st = self.state.lock().expect("gbt node queue poisoned");
        st.tree = Some(Arc::clone(&work));
        st.slots.clear();
        st.slots.push(Slot {
            job: Arc::new(root),
            recorded: None,
        });
        st.ready.push(0);
        st.unrecorded = 1;
        // the root is the caller's: the helper is not woken before there
        // are two nodes to share
        while st.unrecorded > 0 {
            let slot = match st.ready.pop() {
                Some(slot) => slot,
                None => st.held.expect("an unrecorded node is queued or held"),
            };
            let job = Arc::clone(&st.slots[slot].job);
            drop(st);
            let (done, children) = work.run(&job, &mut scratch);
            counters().caller.add(W::nodes(&done) as u64);
            st = self.state.lock().expect("gbt node queue poisoned");
            let split = children.is_some();
            if st.record(slot, done, children) && split && st.helper_parked {
                self.wake.notify_one();
            }
        }
        // whatever the helper still holds is now stale
        st.generation += 1;
        st.held = None;
        st.tree = None;
        st.slots
            .drain(..)
            .map(|slot| slot.recorded.expect("every slot is recorded"))
            .collect()
    }

    /// The helper's side: computes queued nodes of whatever tree is being
    /// built, parking while there are none, until [`close`](Self::close).
    pub(crate) fn help(&self) {
        let mut scratch = W::Scratch::default();
        let mut st = self.state.lock().expect("gbt node queue poisoned");
        loop {
            if st.closed {
                #[cfg(test)]
                assert!(!self.panic_in_helper, "injected helper panic");
                return;
            }
            let Some(slot) = st.ready.pop() else {
                st.helper_parked = true;
                st = self.wake.wait(st).expect("gbt node queue poisoned");
                st.helper_parked = false;
                continue;
            };
            let generation = st.generation;
            let work = Arc::clone(st.tree.as_ref().expect("queued nodes belong to a tree"));
            let job = Arc::clone(&st.slots[slot].job);
            st.held = Some(slot);
            drop(st);
            #[cfg(test)]
            assert!(!self.panic_in_helper, "injected helper panic");
            let (done, children) = work.run(&job, &mut scratch);
            counters().helper.add(W::nodes(&done) as u64);
            st = self.state.lock().expect("gbt node queue poisoned");
            if st.generation == generation {
                st.held = None;
                st.record(slot, done, children);
            } else {
                counters().recomputed.add(W::nodes(&done) as u64);
            }
        }
    }

    /// Stops the helper once it has finished the node it holds. Safe on
    /// a poisoned lock, so an unwinding caller can still release it.
    pub(crate) fn close(&self) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.closed = true;
        drop(st);
        self.wake.notify_all();
    }

    /// A guard that closes the queue when dropped, on unwind too: a
    /// scope that joins the helper then never waits on a parked one.
    pub(crate) fn close_on_drop(&self) -> impl Drop + '_ {
        struct Close<'q, W: Work>(&'q NodeQueue<W>);
        impl<W: Work> Drop for Close<'_, W> {
            fn drop(&mut self) {
                self.0.close();
            }
        }
        Close(self)
    }
}

/// Node counters: observation only, they show whether the second core
/// helped.
pub(crate) struct Counters {
    /// Tree nodes the fit's own thread computed (every node of a fit
    /// without a helper).
    pub(crate) caller: harl_obs::Counter,
    /// Tree nodes the helper computed.
    pub(crate) helper: harl_obs::Counter,
    /// Tree nodes computed a second time, whose outcome was dropped.
    pub(crate) recomputed: harl_obs::Counter,
}

pub(crate) fn counters() -> &'static Counters {
    static CELL: OnceLock<Counters> = OnceLock::new();
    CELL.get_or_init(|| {
        let reg = harl_obs::global();
        Counters {
            caller: reg.counter("harl_gbt_fit_nodes_total{thread=\"caller\"}"),
            helper: reg.counter("harl_gbt_fit_nodes_total{thread=\"helper\"}"),
            recomputed: reg.counter("harl_gbt_fit_nodes_recomputed_total"),
        }
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::{Condvar, Mutex};
    use std::thread::ThreadId;

    thread_local! {
        /// Makes the helper of the next queue this thread creates panic.
        pub(crate) static PANIC_IN_HELPER: std::cell::Cell<bool> =
            const { std::cell::Cell::new(false) };
    }

    /// A toy tree: node `k` splits into `2k + 1` and `2k + 2` while
    /// `k < splits`; a node's outcome is its own label.
    fn toy_node(k: u32, splits: u32) -> (u32, Option<[u32; 2]>) {
        (k, (k < splits).then_some([2 * k + 1, 2 * k + 2]))
    }

    /// Walks the recorded tree from slot 0: every node of the toy tree is
    /// recorded exactly once, with its own outcome, under its parent.
    fn check_tree(recorded: &[Recorded<u32>], splits: u32) {
        let mut seen = Vec::new();
        let mut stack = vec![(0usize, 0u32)];
        while let Some((slot, label)) = stack.pop() {
            let r = &recorded[slot];
            assert_eq!(r.done, label, "slot {slot} holds another node's outcome");
            seen.push(label);
            match r.children {
                Some([left, right]) => {
                    assert!(label < splits, "leaf {label} recorded as a split");
                    stack.extend([(left, 2 * label + 1), (right, 2 * label + 2)]);
                }
                None => assert!(label >= splits, "split {label} lost its children"),
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..=2 * splits).collect::<Vec<_>>());
        assert_eq!(recorded.len(), seen.len(), "a node was recorded twice");
    }

    /// Who computed what, for [`Gated`].
    #[derive(Default)]
    struct Gate {
        /// The nodes the helper took, in order.
        helper_took: Vec<u32>,
        /// The nodes the caller has computed.
        on_caller: HashSet<u32>,
    }

    /// The toy tree with the never-wait rule made to fire, and its
    /// duplicate recorded second within the tree: the caller's first node
    /// after the root waits until the helper has taken a node; the helper
    /// holds that node until the caller has computed it too; and the
    /// caller's copy does not return before the helper, having recorded
    /// the node, has taken its next one.
    struct Gated<'a> {
        splits: u32,
        helper: ThreadId,
        gate: &'a (Mutex<Gate>, Condvar),
    }

    impl Work for Gated<'_> {
        type Job = u32;
        type Done = u32;
        type Scratch = ();

        fn run(&self, &k: &u32, _: &mut ()) -> (u32, Option<[u32; 2]>) {
            let (gate, changed) = self.gate;
            let mut g = gate.lock().unwrap();
            if std::thread::current().id() != self.helper {
                g.on_caller.insert(k);
                changed.notify_all();
                while k != 0
                    && (g.helper_took.is_empty()
                        || (g.helper_took[0] == k && g.helper_took.len() < 2))
                {
                    g = changed.wait(g).unwrap();
                }
            } else {
                g.helper_took.push(k);
                changed.notify_all();
                while g.helper_took.len() == 1 && !g.on_caller.contains(&k) {
                    g = changed.wait(g).unwrap();
                }
            }
            toy_node(k, self.splits)
        }

        fn nodes(_: &u32) -> usize {
            1
        }
    }

    #[test]
    fn a_node_the_helper_holds_is_computed_by_the_caller_and_recorded_once() {
        let queue = NodeQueue::new();
        let gate = (Mutex::new(Gate::default()), Condvar::new());
        std::thread::scope(|scope| {
            let helper = scope.spawn(|| queue.help());
            let _close = queue.close_on_drop();
            let tree = Gated {
                splits: 3,
                helper: helper.thread().id(),
                gate: &gate,
            };
            check_tree(&queue.build(tree, 0), 3);
        });
        let g = gate.0.lock().unwrap();
        assert!(
            g.helper_took.len() >= 2,
            "the helper took {:?}",
            g.helper_took
        );
        let held = g.helper_took[0];
        assert!(
            g.on_caller.contains(&held),
            "the caller computed node {held} too"
        );
    }

    /// The node queue under the schedule explorer (`--cfg harl_check`
    /// builds only): the caller and one helper over two small trees in a
    /// row, every schedule up to two preemptions.
    #[cfg(harl_check)]
    mod explore {
        use super::*;
        use harl_check::model::{self, spawn};

        struct Toy {
            splits: u32,
        }

        impl Work for Toy {
            type Job = u32;
            type Done = u32;
            type Scratch = ();

            fn run(&self, &k: &u32, _: &mut ()) -> (u32, Option<[u32; 2]>) {
                toy_node(k, self.splits)
            }

            fn nodes(_: &u32) -> usize {
                1
            }
        }

        /// The caller builds two trees while the helper drains alongside
        /// it, then closes the queue: each tree comes back whole (a helper
        /// outcome from the first tree must not reach the second), the
        /// caller's `held` fallback never finds nothing to run, and the
        /// helper is never left parked on a closed queue. The caller's
        /// loop has no wait, so a schedule where it parks is a deadlock
        /// the explorer reports.
        fn caller_and_helper() {
            let q = Arc::new(NodeQueue::new());
            let helper = {
                let q = Arc::clone(&q);
                spawn(move || q.help())
            };
            for splits in [3, 1] {
                check_tree(&q.build(Toy { splits }, 0), splits);
            }
            q.close();
            helper.join();
        }

        #[test]
        fn caller_and_helper_record_every_node_once() {
            let started = std::time::Instant::now();
            let report = model::check("gbt.node_queue/two-trees", caller_and_helper);
            eprintln!("{report:?} in {:?}", started.elapsed());
            assert!(report.passed(), "{report:?}");
        }
    }
}
