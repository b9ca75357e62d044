//! The record store's single-writer lock and append order, as a caller
//! sees them. The lock is the kernel's, so what `<dir>/lock` holds means
//! nothing: a PID written there by an older build, even a live one, never
//! keeps a store shut. A second handle is refused while the first is
//! open, in this process too, and is let in once it drops. Appends from
//! many threads leave the in-memory records in the file's order, which is
//! what makes a pool segment's offsets mean the same records after a
//! restart.

use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};

use harl_repro::ir::workload;
use harl_repro::prelude::*;
use harl_repro::store::{read_records, MeasureRecord, StoreError};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Held around a spawn and around a test that reopens a dropped store:
/// until it execs, a child holds a copy of this process's open files, OS
/// locks included, so a spawn on another test thread could keep a dropped
/// handle's lock alive for a moment.
static SPAWN: Mutex<()> = Mutex::new(());

/// A fresh store directory of this process, removed when dropped.
struct TmpDir(PathBuf);

impl TmpDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("harl-lock-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TmpDir(dir)
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `n` distinct records of one GEMM schedule (distinct measured times).
fn records(n: usize) -> Vec<MeasureRecord> {
    let g = workload::gemm(64, 64, 64);
    let sketch = &generate_sketches(&g, Target::Cpu)[0];
    let schedule = Schedule::random(sketch, Target::Cpu, &mut StdRng::seed_from_u64(5));
    (0..n)
        .map(|i| MeasureRecord {
            workload: g.name.clone(),
            similarity_key: g.similarity_key(),
            sketch_id: schedule.sketch_id,
            schedule: schedule.clone(),
            time: 1e-3 + i as f64 * 1e-6,
            flops_per_sec: 1e9,
        })
        .collect()
}

/// Child-process mode: stays alive until its stdin closes. Ignored in a
/// normal run; the live-PID test starts it with `--ignored`.
#[test]
#[ignore = "child process of a_live_pid_in_the_lock_file_does_not_hold_the_store"]
fn stay_alive_until_stdin_closes() {
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
}

#[test]
fn a_live_pid_in_the_lock_file_does_not_hold_the_store() {
    let dir = TmpDir::new("live-pid");
    let spawning = SPAWN.lock().unwrap();
    let mut child = Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "stay_alive_until_stdin_closes", "--ignored"])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn child");
    drop(spawning);
    // a PID-file lock of a live process other than this one
    std::fs::write(dir.0.join("lock"), format!("{}\n", child.id())).unwrap();
    let opened = RecordStore::open(&dir.0);
    let _ = child.kill();
    let _ = child.wait();
    let store = opened.expect("a PID in the lock file must not hold the store");
    store.append(records(1).remove(0)).unwrap();
    assert_eq!(store.len(), 1);
}

#[test]
fn a_second_handle_is_refused_until_the_first_drops() {
    let dir = TmpDir::new("second");
    let _no_spawn = SPAWN.lock().unwrap();
    let first = RecordStore::open(&dir.0).unwrap();
    match RecordStore::open(&dir.0) {
        Err(StoreError::Locked(_)) => {}
        Err(e) => panic!("expected Locked, got {e}"),
        Ok(_) => panic!("two handles own one store"),
    }
    drop(first);
    let again = RecordStore::open(&dir.0).expect("the lock dies with the handle");
    drop(again);
    // the lock file stays: removing it would let two openers lock two inodes
    assert!(dir.0.join("lock").exists());
    RecordStore::open(&dir.0).expect("and a third open after that");
}

#[test]
fn concurrent_appends_leave_memory_in_file_order() {
    const THREADS: usize = 8;
    const PER_THREAD: usize = 40;
    let dir = TmpDir::new("order");
    let store = Arc::new(RecordStore::open(&dir.0).unwrap());
    let all = records(THREADS * PER_THREAD);
    std::thread::scope(|scope| {
        for chunk in all.chunks(PER_THREAD) {
            let store = store.clone();
            scope.spawn(move || {
                for r in chunk {
                    store.append(r.clone()).unwrap();
                }
            });
        }
    });
    let memory = store.snapshot();
    assert_eq!(memory.len(), THREADS * PER_THREAD);
    assert_eq!(
        memory,
        read_records(&dir.0).unwrap(),
        "memory order is not file order"
    );
    assert_eq!(store.segment(0, memory.len()).1, memory);
}
