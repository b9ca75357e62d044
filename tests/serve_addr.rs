//! `serve.addr` is the daemon's readiness signal: scripts and tests poll
//! it and connect to what it says. Whatever instant a poll lands on, it
//! must find no file, a previous daemon's file, or the complete new one —
//! never the empty or partial file an in-place write shows in between
//! (the torn read behind the `listener_accepts_only_after_recovery_
//! completed` flake).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use harl_repro::serve::{Daemon, ServeConfig};

#[test]
fn a_reader_polling_serve_addr_during_start_up_sees_it_absent_or_complete() {
    let root = std::env::temp_dir().join(format!("harl-serve-addr-poll-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let done = Arc::new(AtomicBool::new(false));
    let poller = {
        let (done, path) = (done.clone(), root.join("serve.addr"));
        std::thread::spawn(move || {
            let mut seen: Vec<String> = Vec::new();
            // the flag is read before the poll, so the last poll always
            // follows the last publish
            loop {
                let last = done.load(Ordering::SeqCst);
                if let Ok(text) = std::fs::read_to_string(&path) {
                    if seen.last() != Some(&text) {
                        seen.push(text);
                    }
                }
                if last {
                    return seen;
                }
            }
        })
    };

    // restarts on one root: from the second on, the publish replaces a
    // stale file, the case an in-place write truncates first
    let mut published = Vec::new();
    for _ in 0..8 {
        let mut cfg = ServeConfig::new(&root);
        cfg.workers = 1;
        let daemon = Daemon::start(cfg).expect("daemon starts");
        published.push(format!("{}\n", daemon.addr()));
        daemon.shutdown();
        daemon.wait();
    }
    done.store(true, Ordering::SeqCst);
    let seen = poller.join().expect("poller");

    for text in &seen {
        let addr = text
            .strip_suffix('\n')
            .and_then(|a| a.parse::<SocketAddr>().ok());
        assert!(
            addr.is_some() && published.contains(text),
            "a poll read {text:?}, not a complete published address"
        );
    }
    assert_eq!(
        seen.last(),
        published.last(),
        "the final address is visible"
    );
    let _ = std::fs::remove_dir_all(&root);
}
