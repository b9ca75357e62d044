//! Stress tests for `JobQueue` under real thread contention and the real
//! memory model — the statistical companion to `queue_explore.rs`, which
//! runs the same queue through every schedule up to two preemptions at
//! small thread counts (in the `--cfg harl_check` build).

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use harl_serve::queue::{JobQueue, PushError};

/// Eight submitters hammer a capacity-4 queue while two poppers drain it:
/// every push must either land or come back `Full`/`Closed` — retried
/// until accepted here — and every accepted job must pop exactly once.
#[test]
fn concurrent_submitters_at_capacity_lose_nothing() {
    const SUBMITTERS: usize = 8;
    const PER_THREAD: usize = 25;
    let q = Arc::new(JobQueue::new(4));
    let popped = Arc::new(Mutex::new(Vec::<String>::new()));

    let poppers: Vec<_> = (0..2)
        .map(|_| {
            let q = Arc::clone(&q);
            let popped = Arc::clone(&popped);
            std::thread::spawn(move || {
                while let Some(id) = q.pop() {
                    popped.lock().expect("popped").push(id);
                }
            })
        })
        .collect();

    let submitters: Vec<_> = (0..SUBMITTERS)
        .map(|s| {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut busy = 0u64;
                for k in 0..PER_THREAD {
                    let id = format!("s{s}-{k}");
                    let prio = (k % 3) as i32;
                    loop {
                        match q.push(id.clone(), prio) {
                            Ok(()) => break,
                            Err(PushError::Full { capacity }) => {
                                assert_eq!(capacity, 4);
                                busy += 1;
                                std::thread::yield_now();
                            }
                            Err(PushError::Closed) => {
                                panic!("queue closed while submitters were running")
                            }
                        }
                    }
                }
                busy
            })
        })
        .collect();

    let mut busy_total = 0u64;
    for s in submitters {
        busy_total += s.join().expect("submitter");
    }
    q.close();
    for p in poppers {
        p.join().expect("popper");
    }

    let popped = popped.lock().expect("popped");
    assert_eq!(
        popped.len(),
        SUBMITTERS * PER_THREAD,
        "accepted and popped counts diverge (busy retries seen: {busy_total})"
    );
    let unique: HashSet<&String> = popped.iter().collect();
    assert_eq!(unique.len(), popped.len(), "some job popped twice");
    for s in 0..SUBMITTERS {
        for k in 0..PER_THREAD {
            let id = format!("s{s}-{k}");
            assert!(unique.contains(&id), "job {id} was lost");
        }
    }
}

/// Eight submitters push prioritized jobs concurrently; a single popper
/// then drains the settled queue. Drained this way, priorities must come
/// out nonincreasing, and *within* one priority each submitter's jobs
/// must pop in that submitter's push order (FIFO by acceptance).
#[test]
fn fifo_within_priority_across_eight_submitters() {
    const SUBMITTERS: usize = 8;
    const PER_THREAD: usize = 12;
    // Capacity fits everything: no Full replies, so acceptance order is
    // exactly each thread's push order interleaved.
    let q = Arc::new(JobQueue::new(SUBMITTERS * PER_THREAD));

    let submitters: Vec<_> = (0..SUBMITTERS)
        .map(|s| {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for k in 0..PER_THREAD {
                    let prio = (k % 4) as i32;
                    q.push(format!("s{s}-p{prio}-k{k}"), prio).expect("push");
                }
            })
        })
        .collect();
    for s in submitters {
        s.join().expect("submitter");
    }
    q.close();

    let mut order: Vec<(i32, usize, usize)> = Vec::new(); // (prio, submitter, k)
    while let Some(id) = q.pop() {
        let mut parts = id.split('-');
        let s: usize = parts.next().unwrap()[1..].parse().unwrap();
        let p: i32 = parts.next().unwrap()[1..].parse().unwrap();
        let k: usize = parts.next().unwrap()[1..].parse().unwrap();
        order.push((p, s, k));
    }
    assert_eq!(order.len(), SUBMITTERS * PER_THREAD);

    // priorities nonincreasing once the queue is settled
    for w in order.windows(2) {
        assert!(
            w[0].0 >= w[1].0,
            "priority order violated: {:?} before {:?}",
            w[0],
            w[1]
        );
    }
    // within a priority, each submitter's own jobs keep their push order
    for s in 0..SUBMITTERS {
        for prio in 0..4 {
            let ks: Vec<usize> = order
                .iter()
                .filter(|&&(p, who, _)| p == prio && who == s)
                .map(|&(_, _, k)| k)
                .collect();
            assert!(
                ks.windows(2).all(|w| w[0] < w[1]),
                "submitter {s} priority {prio}: pop order {ks:?} breaks FIFO"
            );
        }
    }
}
