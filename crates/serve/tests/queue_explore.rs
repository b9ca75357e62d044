//! The real `JobQueue` under the schedule explorer (`--cfg harl_check`
//! builds only; `ci/analyze.sh` runs them): two submitters, two poppers
//! and a closer, every schedule up to the default preemption bound, at
//! capacity 2 (both items fit) and at capacity 1 (a push can come back
//! `Full`).
#![cfg(harl_check)]

use std::sync::Arc;
use std::time::Instant;

use harl_check::model::{self, spawn, JoinHandle};
use harl_serve::queue::{JobQueue, PushError};

/// Every push is accepted, `Full` (only at capacity) or `Closed`; every
/// accepted item pops exactly once; a popper gives up only once the
/// queue is closed (a push then comes back `Closed`); nothing is left
/// behind.
fn submit_pop_close(capacity: usize, items: [(&'static str, i32); 2]) -> impl Fn() + Send + Sync {
    move || {
        let q = Arc::new(JobQueue::new(capacity));
        let submitters: Vec<_> = items
            .iter()
            .map(|&(id, priority)| {
                let q = Arc::clone(&q);
                spawn(move || (id, q.push(id.to_string(), priority)))
            })
            .collect();
        let poppers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                spawn(move || {
                    let popped: Vec<String> = std::iter::from_fn(|| q.pop()).collect();
                    let probe = q.push("probe".into(), 0);
                    assert_eq!(
                        probe,
                        Err(PushError::Closed),
                        "pop gave up on an open queue"
                    );
                    popped
                })
            })
            .collect();
        let closer = {
            let q = Arc::clone(&q);
            spawn(move || q.close())
        };

        // the poppers finish last in most schedules: joining them first
        // keeps the body blocked instead of waking it once per finish
        let mut popped: Vec<String> = poppers.into_iter().flat_map(JoinHandle::join).collect();
        closer.join();
        let mut accepted = Vec::new();
        for (id, pushed) in submitters.into_iter().map(JoinHandle::join) {
            match pushed {
                Ok(()) => accepted.push(id.to_string()),
                Err(PushError::Full { capacity: c }) => {
                    assert_eq!(c, capacity);
                    assert!(
                        capacity < items.len(),
                        "{id} refused as Full below capacity"
                    );
                }
                Err(PushError::Closed) => {}
            }
        }
        accepted.sort();
        popped.sort();
        assert_eq!(
            popped, accepted,
            "the popped items are not the accepted ones"
        );
        assert!(q.is_empty(), "items left in a closed, drained queue");
    }
}

fn explore(name: &'static str, capacity: usize, items: [(&'static str, i32); 2]) {
    let started = Instant::now();
    let report = model::check(name, submit_pop_close(capacity, items));
    eprintln!("{report:?} in {:?}", started.elapsed());
    assert!(report.passed(), "{report:?}");
}

#[test]
fn two_submitters_two_poppers_and_a_closer_at_capacity_2() {
    explore("serve.queue/capacity-2", 2, [("a", 0), ("b", 0)]);
}

#[test]
fn two_submitters_two_poppers_and_a_closer_at_capacity_1() {
    explore("serve.queue/capacity-1", 1, [("a", 0), ("b", 1)]);
}
