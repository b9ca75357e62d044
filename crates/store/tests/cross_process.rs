//! The single-writer lock across processes. A child process (this test
//! binary re-run on its ignored `hold_the_store` test) opens the store
//! and holds it until its stdin closes. While it does, the parent's
//! `RecordStore::open` is refused with `Locked`. Once the child exits,
//! whether it dropped the handle or was killed with SIGKILL mid-hold, the
//! kernel has released the lock and the parent's open succeeds at once:
//! a crashed writer leaves nothing to reclaim.

use std::io::{BufRead, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use harl_store::{RecordStore, StoreError};

/// Written into the store directory by the child once it holds the store.
const HELD: &str = "held-by-child";

/// Child-process mode: reads a store directory from the first line of
/// stdin, opens the store, writes the `HELD` marker, and keeps the handle
/// until stdin closes. Ignored in a normal run.
#[test]
#[ignore = "child process of the cross-process lock tests"]
fn hold_the_store() {
    let mut stdin = std::io::stdin().lock();
    let mut dir = String::new();
    stdin.read_line(&mut dir).expect("read store dir");
    let store = RecordStore::open(dir.trim()).expect("child opens the store");
    std::fs::write(Path::new(dir.trim()).join(HELD), "").unwrap();
    let _ = stdin.read_to_end(&mut Vec::new());
    drop(store);
}

/// A fresh store directory of this process, removed when dropped.
struct TmpDir(PathBuf);

impl TmpDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("harl-xproc-{tag}-{}", std::process::id()));
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

/// Starts a child that holds the store in `dir`, and returns once it
/// does.
fn holder(dir: &TmpDir) -> Child {
    let mut child = Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "hold_the_store", "--ignored"])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn child");
    let stdin = child.stdin.as_mut().unwrap();
    writeln!(stdin, "{}", dir.0.display()).unwrap();
    stdin.flush().unwrap();
    let started = Instant::now();
    while !dir.0.join(HELD).exists() {
        if let Some(status) = child.try_wait().unwrap() {
            panic!("the child exited ({status}) without holding the store");
        }
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "the child never held the store"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    child
}

fn assert_locked(dir: &TmpDir) {
    match RecordStore::open(&dir.0) {
        Err(StoreError::Locked(_)) => {}
        Err(e) => panic!("expected Locked while the child holds the store, got {e}"),
        Ok(_) => panic!("two processes own one store"),
    }
}

#[test]
fn a_store_held_by_another_process_is_refused_until_it_lets_go() {
    let dir = TmpDir::new("held");
    let mut child = holder(&dir);
    assert_locked(&dir);
    drop(child.stdin.take()); // the child drops its handle and exits
    assert!(child.wait().unwrap().success());
    RecordStore::open(&dir.0).expect("the lock goes with the child's handle");
}

#[test]
fn a_writer_killed_while_holding_the_store_leaves_it_openable_at_once() {
    let dir = TmpDir::new("killed");
    let mut child = holder(&dir);
    assert_locked(&dir);
    child.kill().unwrap(); // SIGKILL: no destructor runs
    child.wait().unwrap();
    RecordStore::open(&dir.0).expect("the kernel released the dead writer's lock");
}
